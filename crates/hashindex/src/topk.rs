//! Bounded top-k selection over arena scans.
//!
//! A k-NN query used to materialise *every* match, sort the full list and
//! truncate to `k` — O(n log n) work and an O(n) allocation per query even
//! when the caller wants ten neighbours out of forty thousand codes.
//! [`SearchScratch`] replaces that with a size-`k` max-heap threaded
//! through the scan: a candidate only enters the heap if it beats the
//! current k-th best, the running bound — the k-th distance, handed to the
//! arena's scan kernel — rejects every worse row before it reaches the
//! heap (eight rows per compare in the AVX-512 tier), and only the final
//! `k` survivors are sorted.
//!
//! The scratch owns all its buffers and is reusable across queries, so a
//! scratch kept per thread (see the query core in `eq_earthqube`) makes
//! steady-state k-NN serving allocation-free.
//!
//! Exactness: the heap orders candidates by `(distance, id)` — the same
//! total order [`sort_neighbors`](crate::sort_neighbors) uses — so the
//! surviving `k` are exactly the first `k` elements of the full sorted
//! list, ties and all.  The property suite in
//! `tests/proptest_arena.rs` pins this against full-sort-then-truncate.

use crate::arena::{CodeArena, KernelTier};
use crate::bitmap::IdMask;
use crate::{ItemId, Neighbor};

/// Reusable scratch state for bounded top-k searches: a max-heap of the
/// current `k` best candidates plus the output buffer the sorted winners
/// are written to.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// Binary max-heap ordered by `(distance, id)`; the root is the
    /// *worst* of the current best `k`, i.e. the short-circuit bound.
    heap: Vec<Neighbor>,
    /// Requested result size of the selection in progress.
    k: usize,
    /// The sorted winners of the last [`finish`](Self::finish).
    out: Vec<Neighbor>,
}

/// `(distance, id)` lexicographic order — the neighbour sort order.
#[inline]
fn worse(a: &Neighbor, b: &Neighbor) -> bool {
    (a.distance, a.id) > (b.distance, b.id)
}

impl SearchScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new top-k selection, clearing previous state and reserving
    /// the heap (a no-op once the scratch is warm).
    pub fn begin(&mut self, k: usize) {
        self.heap.clear();
        self.out.clear();
        self.k = k;
        self.heap.reserve(k);
    }

    /// The current short-circuit bound: the `(distance, id)` of the k-th
    /// best candidate so far, or `None` while the heap is not yet full
    /// (every candidate is accepted then).
    #[inline]
    pub fn bound(&self) -> Option<Neighbor> {
        if self.heap.len() < self.k {
            None
        } else {
            self.heap.first().copied()
        }
    }

    /// Offers one candidate to the selection.
    #[inline]
    pub fn offer(&mut self, id: ItemId, distance: u32) {
        if self.k == 0 {
            return;
        }
        let candidate = Neighbor::new(id, distance);
        if self.heap.len() < self.k {
            // lint:allow(hot-path) bounded by k and begin() reserves k slots, so the push never grows the heap when warm
            self.heap.push(candidate);
            self.sift_up(self.heap.len() - 1);
        } else if worse(&self.heap[0], &candidate) {
            self.heap[0] = candidate;
            self.sift_down(0);
        }
    }

    /// Scans an entire arena, offering every row within the running bound.
    /// The kernel compares each row's distance with the heap's k-th
    /// distance (`u32::MAX` while the heap is not full) before the heap sees
    /// it, so once the heap is full a worse row costs no heap traffic —
    /// which is what keeps the scan at memory bandwidth.
    ///
    /// Callable repeatedly between [`begin`](Self::begin) and
    /// [`finish`](Self::finish): the sharded index fans one selection out
    /// over every shard's arena, which yields the exact global top-k
    /// without per-shard result lists.
    ///
    /// # Panics
    /// Panics if the query width does not match the arena.
    pub fn scan_arena(&mut self, arena: &CodeArena, query: &[u64]) {
        self.select(KernelTier::detected(), arena, query, None);
    }

    /// The masked counterpart of [`scan_arena`](Self::scan_arena): offers
    /// only rows whose id is in `mask` — rows outside it never reach the
    /// distance computation, let alone the heap.  Same begin/scan/finish
    /// protocol, same exactness: the survivors are the global top-k *of
    /// the masked subset*.
    ///
    /// # Panics
    /// Panics if the query width does not match the arena.
    pub fn scan_arena_masked(&mut self, arena: &CodeArena, query: &[u64], mask: &IdMask) {
        self.select(KernelTier::detected(), arena, query, Some(mask));
    }

    /// The one selection loop behind both scans, at a given kernel tier.
    fn select(
        &mut self,
        tier: KernelTier,
        arena: &CodeArena,
        query: &[u64],
        mask: Option<&IdMask>,
    ) {
        if self.k == 0 {
            // Nothing can be selected; still validate the query width.
            assert_eq!(query.len(), arena.words_per_code(), "query width does not match the arena");
            return;
        }
        let bound = self.kth_distance();
        arena.scan_tier(tier, query, mask, bound, |row, d| {
            self.offer(arena.id(row), d);
            self.kth_distance()
        });
    }

    /// The distance of the current bound, or `u32::MAX` while the heap is
    /// not full (every row is admitted then).
    #[inline]
    fn kth_distance(&self) -> u32 {
        self.bound().map_or(u32::MAX, |n| n.distance)
    }

    /// Ends the selection: sorts the (at most `k`) survivors by
    /// `(distance, id)` and returns them.  The slice borrows the scratch —
    /// copy it out before starting the next selection.
    pub fn finish(&mut self) -> &[Neighbor] {
        self.out.clear();
        self.out.extend_from_slice(&self.heap);
        crate::sort_neighbors(&mut self.out);
        &self.out
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if worse(&self.heap[i], &self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < n && worse(&self.heap[l], &self.heap[largest]) {
                largest = l;
            }
            if r < n && worse(&self.heap[r], &self.heap[largest]) {
                largest = r;
            }
            if largest == i {
                return;
            }
            self.heap.swap(i, largest);
            i = largest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::BinaryCode;
    use crate::sort_neighbors;

    fn rand_code(bits: u32, seed: u64) -> BinaryCode {
        let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(7);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        BinaryCode::from_words(bits, (0..bits.div_ceil(64)).map(|_| next()).collect())
    }

    /// Reference: full sort, then truncate.
    fn full_sort_topk(arena: &CodeArena, query: &[u64], k: usize) -> Vec<Neighbor> {
        let mut all: Vec<Neighbor> = (0..arena.len())
            .map(|r| Neighbor::new(arena.id(r), arena.distance(r, query)))
            .collect();
        sort_neighbors(&mut all);
        all.truncate(k);
        all
    }

    #[test]
    fn topk_matches_full_sort_then_truncate() {
        for bits in [32u32, 128] {
            let mut arena = CodeArena::new(bits);
            // Low-entropy codes force distance ties, exercising id
            // tie-breaks through the heap.
            for i in 0..300u64 {
                arena.push(i, &rand_code(bits, i / 4));
            }
            let query = rand_code(bits, 9999);
            let mut scratch = SearchScratch::new();
            for k in [0usize, 1, 7, 50, 300, 500] {
                scratch.begin(k);
                scratch.scan_arena(&arena, query.words());
                let got = scratch.finish().to_vec();
                assert_eq!(got, full_sort_topk(&arena, query.words(), k), "bits {bits}, k {k}");
            }
        }
    }

    #[test]
    fn multi_arena_selection_is_the_global_topk() {
        // Split rows over three arenas; one selection over all of them
        // must equal the top-k over the union (the sharded fan-out path).
        let mut arenas = vec![CodeArena::new(64), CodeArena::new(64), CodeArena::new(64)];
        let mut union = CodeArena::new(64);
        for i in 0..200u64 {
            let c = rand_code(64, i / 3);
            arenas[(i % 3) as usize].push(i, &c);
            union.push(i, &c);
        }
        let query = rand_code(64, 4242);
        let mut scratch = SearchScratch::new();
        scratch.begin(13);
        for a in &arenas {
            scratch.scan_arena(a, query.words());
        }
        let got = scratch.finish().to_vec();
        assert_eq!(got, full_sort_topk(&union, query.words(), 13));
    }

    #[test]
    fn scratch_is_reusable_without_reallocation() {
        let mut arena = CodeArena::new(64);
        for i in 0..100u64 {
            arena.push(i, &rand_code(64, i));
        }
        let query = rand_code(64, 5);
        let mut scratch = SearchScratch::new();
        // Warm-up pass sizes the buffers.
        scratch.begin(10);
        scratch.scan_arena(&arena, query.words());
        let warm = scratch.finish().to_vec();
        let heap_ptr = scratch.heap.as_ptr();
        let out_ptr = scratch.out.as_ptr();
        for _ in 0..5 {
            scratch.begin(10);
            scratch.scan_arena(&arena, query.words());
            assert_eq!(scratch.finish(), &warm[..]);
        }
        assert_eq!(heap_ptr, scratch.heap.as_ptr(), "warm heap must not reallocate");
        assert_eq!(out_ptr, scratch.out.as_ptr(), "warm output must not reallocate");
    }

    #[test]
    fn bound_tracks_the_kth_best() {
        let mut scratch = SearchScratch::new();
        scratch.begin(2);
        assert!(scratch.bound().is_none());
        scratch.offer(1, 10);
        assert!(scratch.bound().is_none(), "heap not yet full");
        scratch.offer(2, 4);
        assert_eq!(scratch.bound(), Some(Neighbor::new(1, 10)));
        scratch.offer(3, 6);
        assert_eq!(scratch.bound(), Some(Neighbor::new(3, 6)));
        // A worse candidate leaves the heap untouched.
        scratch.offer(4, 7);
        assert_eq!(scratch.bound(), Some(Neighbor::new(3, 6)));
        assert_eq!(scratch.finish(), &[Neighbor::new(2, 4), Neighbor::new(3, 6)]);
    }

    #[test]
    fn masked_topk_is_the_topk_of_the_masked_subset() {
        use crate::bitmap::{Bitmap, IdMask};
        let mut arena = CodeArena::new(128);
        for i in 0..300u64 {
            // Ties via low-entropy codes, as in the unmasked test.
            arena.push(i, &rand_code(128, i / 4));
        }
        let bitmap: Bitmap = (0..300u64).filter(|id| id % 7 < 3).collect();
        let mask = IdMask::from_bitmap(&bitmap);
        let query = rand_code(128, 31337);
        let mut scratch = SearchScratch::new();
        for k in [0usize, 1, 10, 128, 400] {
            scratch.begin(k);
            scratch.scan_arena_masked(&arena, query.words(), &mask);
            let got = scratch.finish().to_vec();
            // Reference: full sort of the masked rows, truncated.
            let mut all: Vec<Neighbor> = (0..arena.len())
                .filter(|&r| mask.contains(arena.id(r)))
                .map(|r| Neighbor::new(arena.id(r), arena.distance(r, query.words())))
                .collect();
            sort_neighbors(&mut all);
            all.truncate(k);
            assert_eq!(got, all, "k {k}");
        }
    }

    #[test]
    fn every_tier_selects_the_full_sort_topk() {
        use crate::bitmap::{Bitmap, IdMask};
        let mut scratch = SearchScratch::new();
        for bits in [7u32, 64, 100, 128, 192, 256, 320] {
            for rows in (0..=19u64).chain([300]) {
                // Low-entropy codes (ties) and ids past the short mask's end.
                let mut arena = CodeArena::new(bits);
                for r in 0..rows {
                    arena.push(7 * r + 1, &rand_code(bits, r / 3));
                }
                let all: Bitmap = arena.ids().iter().copied().collect();
                let sparse: Bitmap = all.iter().filter(|id| id % 3 == 2).collect();
                let short: Bitmap = [1u64, 15, 29, 36].into_iter().collect();
                let masks = [Bitmap::new(), all, sparse, short].map(|b| IdMask::from_bitmap(&b));
                let query = rand_code(bits, 77);
                for mask in [None].into_iter().chain(masks.iter().map(Some)) {
                    for k in [0usize, 1, 7, 21, rows as usize + 5] {
                        let mut want: Vec<Neighbor> = (0..arena.len())
                            .filter(|&r| mask.is_none_or(|m| m.contains(arena.id(r))))
                            .map(|r| Neighbor::new(arena.id(r), arena.distance(r, query.words())))
                            .collect();
                        sort_neighbors(&mut want);
                        want.truncate(k);
                        for tier in KernelTier::supported() {
                            scratch.begin(k);
                            scratch.select(tier, &arena, query.words(), mask);
                            let got = scratch.finish();
                            assert_eq!(got, &want[..], "{tier:?}, bits {bits}, rows {rows}, k {k}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn k_zero_selects_nothing() {
        let mut scratch = SearchScratch::new();
        scratch.begin(0);
        scratch.offer(1, 1);
        assert!(scratch.finish().is_empty());
    }
}
