//! Property suite for the positional mask walk.  On a dense arena — row
//! `r` holds id `r`, as the serving arena does — a masked scan reads mask
//! bit `r` as row `r`'s keep bit and walks the mask's words instead of
//! every row.  At every kernel tier the CPU reports, over 64-, 100-, 128-,
//! 192- and 256-bit codes (every width arm of every tier, and a padded
//! last word), lengths that are not a multiple of 8, empty, sparse, half
//! and full masks and mask bits past the last row:
//!
//! * the counting selection behind `CountingTopK::knn` and the heap behind
//!   `SearchScratch::scan_arena_masked` must equal the masked rows' full
//!   sort, truncated to `k`;
//! * the counting selection behind `CountingTopK::within` must equal the
//!   full sort cut at the radius;
//! * a radius visitor and a visitor that lowers the bound to each
//!   distance it is shown must see exactly the rows a row-by-row walk
//!   shows, in row order.
//!
//! The public entry points, at the detected tier, must give the same
//! answers.  One more push whose id is not its row makes the arena
//! non-dense, and every check above must then read the mask by id again.

use proptest::prelude::*;

use crate::{
    sort_neighbors, BinaryCode, Bitmap, CodeArena, CountingTopK, IdMask, ItemId, KernelTier,
    Neighbor, SearchScratch,
};

fn arb_code(bits: u32) -> impl Strategy<Value = BinaryCode> {
    proptest::collection::vec(any::<bool>(), bits as usize)
        .prop_map(|bools| BinaryCode::from_bools(&bools))
}

/// The one-word arm, the two-word (MiLaN) arm and a two-word width with a
/// padded last word, a three-word width (gathered at AVX-512, the generic
/// portable arm) and the portable four-word arm.
fn arb_bits() -> impl Strategy<Value = u32> {
    prop_oneof![Just(64u32), Just(100), Just(128), Just(192), Just(256)]
}

/// Rows per 1 000 in the mask: empty, a fraction of a percent (most bytes
/// of the mask zero), 3 %, half and full.
fn arb_density() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(4), Just(30), Just(500), Just(1_000)]
}

/// One generated arena and its mask.
#[derive(Debug, Clone)]
struct Case {
    bits: u32,
    /// Each row's code, drawn from a small pool so distances tie.
    codes: Vec<BinaryCode>,
    /// Row `r` is in the mask iff `draws[r] < density`.
    draws: Vec<u32>,
    density: u32,
    /// Ids past the last row set in the mask, as offsets from the length.
    past: Vec<u64>,
    /// One more row whose id is not its row: (gap past the length, whether
    /// its id is in the mask).  Its row's own number is put in the mask
    /// exactly when its id is not, so reading that row by position gives
    /// the other answer.
    scatter: Option<(u64, bool)>,
    query: BinaryCode,
}

fn arb_case() -> impl Strategy<Value = Case> {
    arb_bits().prop_flat_map(|bits| {
        (
            proptest::collection::vec(arb_code(bits), 1..6).prop_flat_map(|pool| {
                let row = (0usize..pool.len(), 0u32..1_000);
                proptest::collection::vec(row, 0..300).prop_map(move |rows| {
                    rows.into_iter().map(|(i, draw)| (pool[i].clone(), draw)).unzip()
                })
            }),
            arb_density(),
            proptest::collection::vec(0u64..200, 0..4),
            (any::<bool>(), 0u64..70, any::<bool>()),
            arb_code(bits),
        )
            .prop_map(move |(rows, density, past, (scatter, gap, kept), query)| {
                let (codes, draws): (Vec<BinaryCode>, Vec<u32>) = rows;
                let scatter = scatter.then_some((gap, kept));
                Case { bits, codes, draws, density, past, scatter, query }
            })
    })
}

/// The arena (dense unless the case scatters it) and its mask.
fn build(case: &Case) -> (CodeArena, IdMask) {
    let mut arena = CodeArena::new(case.bits);
    let mut ids = Bitmap::new();
    for (r, (code, &draw)) in case.codes.iter().zip(&case.draws).enumerate() {
        arena.push(r as ItemId, code);
        if draw < case.density {
            ids.insert(r as ItemId);
        }
    }
    let len = case.codes.len() as ItemId;
    for &offset in &case.past {
        ids.insert(len + offset);
    }
    if let Some((gap, kept)) = case.scatter {
        // Row `len` holds id `len + 1 + gap`.
        let id = len + 1 + gap;
        arena.push(id, &case.query.with_flipped_bit(0));
        ids.insert(if kept { id } else { len });
    }
    (arena, IdMask::from_bitmap(&ids))
}

/// The rows in the mask, by id, with their distances, in row order.
fn masked_rows(arena: &CodeArena, query: &[u64], mask: &IdMask) -> Vec<(usize, u32)> {
    (0..arena.len())
        .filter(|&r| mask.contains(arena.id(r)))
        .map(|r| (r, arena.distance(r, query)))
        .collect()
}

/// The masked rows by (distance, id).
fn full_sort(arena: &CodeArena, rows: &[(usize, u32)]) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = rows.iter().map(|&(r, d)| Neighbor::new(arena.id(r), d)).collect();
    sort_neighbors(&mut all);
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn masked_selections_equal_the_full_sort_at_every_tier(
        case in arb_case(),
        k in prop_oneof![0usize..24, 0usize..400],
        radius in 0u32..300,
    ) {
        let (arena, mask) = build(&case);
        prop_assert_eq!(arena.is_dense(), case.scatter.is_none());
        let q = case.query.words();
        let rows = masked_rows(&arena, q, &mask);
        let sorted = full_sort(&arena, &rows);
        let nearest = &sorted[..k.min(sorted.len())];
        let radius = radius.min(case.bits + 1);
        let near: Vec<Neighbor> = sorted.iter().copied().filter(|n| n.distance <= radius).collect();
        let near_rows: Vec<Neighbor> = rows
            .iter()
            .filter(|&&(_, d)| d <= radius)
            .map(|&(r, d)| Neighbor::new(arena.id(r), d))
            .collect();
        // A visitor that lowers the bound to each distance it is shown sees
        // the running minima of the masked rows, in row order.
        let mut minima = Vec::new();
        for &(r, d) in &rows {
            if minima.last().is_none_or(|&(_, best)| d <= best) {
                minima.push((r, d));
            }
        }
        let (mut counting, mut heap) = (CountingTopK::new(), SearchScratch::new());
        let (knn_limit, within_limit) = (case.bits + 1, radius.min(case.bits) + 1);
        for tier in KernelTier::supported() {
            let m = Some(&mask);
            // Each answer beside its tier, so a failure names the tier.
            let knn = counting.rank(tier, &arena, q, m, k, knn_limit);
            prop_assert_eq!((tier, knn), (tier, nearest));
            let within = counting.rank(tier, &arena, q, m, usize::MAX, within_limit);
            prop_assert_eq!((tier, within), (tier, &near[..]));
            heap.begin(k);
            heap.select(tier, &arena, q, m);
            prop_assert_eq!((tier, heap.finish()), (tier, nearest));
            let mut got = Vec::new();
            arena.scan_tier(tier, q, m, radius, |r, d| {
                got.push(Neighbor::new(arena.id(r), d));
                radius
            });
            prop_assert_eq!((tier, &got), (tier, &near_rows));
            let mut seen = Vec::new();
            arena.scan_tier(tier, q, m, u32::MAX, |r, d| {
                seen.push((r, d));
                d
            });
            prop_assert_eq!((tier, &seen), (tier, &minima));
        }
        prop_assert_eq!(counting.knn(&arena, q, k, Some(&mask)), nearest);
        prop_assert_eq!(counting.within(&arena, q, radius, Some(&mask)), &near[..]);
        heap.begin(k);
        heap.scan_arena_masked(&arena, q, &mask);
        prop_assert_eq!(heap.finish(), nearest);
        let mut got = Vec::new();
        arena.scan_radius_masked_into(q, radius, &mask, &mut got);
        prop_assert_eq!(got, near_rows);
    }
}
