//! Property suite for the counting selection (`CountingTopK`), the serving
//! k-NN and radius ranking: over generated widths, tie-heavy codes, masks,
//! ascending ids with gaps, `k` and radii, its answer must be byte-identical
//! to the bounded heap (`SearchScratch`), to full-sort-then-truncate, and —
//! in radius mode — to the radius scan sorted by (distance, id).

use eq_hashindex::{
    sort_neighbors, BinaryCode, Bitmap, CodeArena, CountingTopK, IdMask, ItemId, Neighbor,
    SearchScratch,
};
use proptest::prelude::*;

fn arb_code(bits: u32) -> impl Strategy<Value = BinaryCode> {
    proptest::collection::vec(any::<bool>(), bits as usize)
        .prop_map(|bools| BinaryCode::from_bools(&bools))
}

/// Widths covering every kernel arm: sub-word, one word, the 128-bit MiLaN
/// width, a ragged two-word width, the four-word arm and the generic one.
fn arb_bits() -> impl Strategy<Value = u32> {
    prop_oneof![Just(8u32), Just(64), Just(100), Just(128), Just(256), Just(320)]
}

/// One arena's rows: each a code from a small pool (so distances tie), an
/// id gap (ids ascend with rows, as in a dense-id arena, but may skip) and
/// whether the row is in the mask.
type Rows = Vec<(BinaryCode, u64, bool)>;

fn arb_workload() -> impl Strategy<Value = (u32, Rows, BinaryCode)> {
    arb_bits().prop_flat_map(|bits| {
        (
            Just(bits),
            proptest::collection::vec(arb_code(bits), 1..8).prop_flat_map(|pool| {
                let row = (0usize..pool.len(), 1u64..4, any::<bool>());
                proptest::collection::vec(row, 0..160).prop_map(move |rows| {
                    rows.into_iter().map(|(i, gap, kept)| (pool[i].clone(), gap, kept)).collect()
                })
            }),
            arb_code(bits),
        )
    })
}

/// The arena (ids ascending from 0 by the drawn gaps) and the mask of the
/// rows drawn into it.
fn build(bits: u32, rows: &Rows) -> (CodeArena, IdMask) {
    let mut arena = CodeArena::new(bits);
    let mut subset = Bitmap::new();
    let mut id: ItemId = 0;
    for (code, gap, kept) in rows {
        arena.push(id, code);
        if *kept {
            subset.insert(id);
        }
        id += gap;
    }
    (arena, IdMask::from_bitmap(&subset))
}

/// Every row (in the mask, given one) by (distance, id).
fn full_sort(arena: &CodeArena, query: &[u64], mask: Option<&IdMask>) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = (0..arena.len())
        .filter(|&r| mask.is_none_or(|m| m.contains(arena.id(r))))
        .map(|r| Neighbor::new(arena.id(r), arena.distance(r, query)))
        .collect();
    sort_neighbors(&mut all);
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn counting_knn_equals_the_heap_and_the_full_sort(
        w in arb_workload(),
        k in 0usize..180,
    ) {
        let (bits, rows, query) = w;
        let (arena, mask) = build(bits, &rows);
        let (mut counting, mut heap) = (CountingTopK::new(), SearchScratch::new());
        for mask in [None, Some(&mask)] {
            let mut want = full_sort(&arena, query.words(), mask);
            want.truncate(k);
            heap.begin(k);
            match mask {
                Some(mask) => heap.scan_arena_masked(&arena, query.words(), mask),
                None => heap.scan_arena(&arena, query.words()),
            }
            prop_assert_eq!(heap.finish(), &want[..]);
            prop_assert_eq!(counting.knn(&arena, query.words(), k, mask), &want[..]);
            // A second use of the same selection stays exact.
            prop_assert_eq!(counting.knn(&arena, query.words(), k, mask), &want[..]);
        }
    }

    #[test]
    fn counting_radius_equals_the_sorted_radius_scan(
        w in arb_workload(),
        radius in 0u32..340,
    ) {
        let (bits, rows, query) = w;
        let (arena, mask) = build(bits, &rows);
        let mut counting = CountingTopK::new();
        for radius in [radius, u32::MAX] {
            let mut want = Vec::new();
            arena.scan_radius_into(query.words(), radius, &mut want);
            sort_neighbors(&mut want);
            prop_assert_eq!(counting.within(&arena, query.words(), radius, None), &want[..]);
            want.clear();
            arena.scan_radius_masked_into(query.words(), radius, &mask, &mut want);
            sort_neighbors(&mut want);
            prop_assert_eq!(counting.within(&arena, query.words(), radius, Some(&mask)), &want[..]);
        }
    }
}
