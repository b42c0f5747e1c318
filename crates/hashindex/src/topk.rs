//! Top-k selection over arena scans: a counting selection for one scan in
//! row order, and a bounded heap for any arrival order.
//!
//! A k-NN query used to materialise *every* match, sort the full list and
//! truncate to `k` — O(n log n) work and an O(n) allocation per query even
//! when the caller wants ten neighbours out of forty thousand codes.  Both
//! selections here thread a running bound through the arena's scan kernel
//! instead, so a row worse than the current k-th best is rejected eight
//! rows per compare (AVX-512 tier) before the selection sees it.
//!
//! * [`CountingTopK`] serves: `eq_earthqube`'s k-NN and radius queries over
//!   its one dense-id arena.  Hamming distances are integers in `0..=bits`
//!   and rows arrive in ascending row order, so one counter per distance
//!   and the accepted rows in arrival order rank by (distance, row) with
//!   one counting sort at the end: no row is compared with another and no
//!   tie needs handling (faiss's `hammings_knn_mc` is the model).
//! * [`SearchScratch`] is a size-`k` max-heap on `(distance, id)`, exact
//!   for any arrival order: the id-keyed indexes (`ShardedHashIndex`,
//!   `HashTableIndex`, `LinearScanIndex`) select with it, across shards
//!   and bucket layouts, and the tests take it as the reference the
//!   counting selection must equal.
//!
//! Both own their buffers and are reusable across queries, so a selection
//! kept per thread (see the query core in `eq_earthqube`) makes
//! steady-state k-NN serving allocation-free.
//!
//! Exactness: the heap orders candidates by `(distance, id)` — the same
//! total order [`sort_neighbors`](crate::sort_neighbors) uses — so the
//! surviving `k` are exactly the first `k` elements of the full sorted
//! list, ties and all; the counting selection's (distance, row) order is
//! the same order wherever ids ascend with rows.  `tests/proptest_arena.rs`
//! and `tests/proptest_counting.rs` pin both against
//! full-sort-then-truncate.

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
    pub(crate) fn select(
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

/// Reusable counting selection over one [`CodeArena`] scan: the `k` rows
/// nearest a query by (distance, row), or every row within a radius.
///
/// The scan kernel hands rows over in ascending row order.  The selection
/// keeps one counter per distance in `0..=bits` and the accepted rows in
/// arrival order.  Once count(≤ d) reaches `k`, the bound it returns to the
/// kernel falls to d − 1: a later row at distance d ties the k-th row and
/// comes after it, so it always loses.  The end is one stable counting
/// sort of the accepted rows by distance, which cuts distance d at the
/// rows it still needs.  The result is exact in (distance, row) order —
/// (distance, id) order wherever ids ascend with rows, as in a dense-id
/// arena — and equals [`SearchScratch`]'s there.
#[derive(Debug, Default)]
pub struct CountingTopK {
    /// `counts[d]`: accepted rows at distance `d`, for `d` in
    /// `0..=bits + 1`.  No row is accepted at `bits + 1`, so the finish
    /// reads the slot at `limit` whatever the limit.
    counts: Vec<usize>,
    /// The accepted rows in arrival order, each with its id and distance.
    hits: Vec<Neighbor>,
    /// Requested result size (`usize::MAX` for a radius query).
    k: usize,
    /// Accepted rows with a distance below `limit`; less than `k`.
    kept: usize,
    /// A row is accepted iff its distance is below this.  It starts one
    /// past the radius (or the width) and falls each time `kept` reaches
    /// `k`; the distance it falls to is the one the finish cuts.
    limit: u32,
    /// The ranking of the last selection.
    out: Vec<Neighbor>,
}

impl CountingTopK {
    /// Creates an empty selection.
    pub fn new() -> Self {
        Self::default()
    }

    /// The `k` rows of `arena` nearest `query` — among those whose id is
    /// in `mask`, given one — by (distance, row).  The slice borrows the
    /// selection: copy it out before the next query.
    ///
    /// # Panics
    /// Panics if the query width does not match the arena.
    pub fn knn(
        &mut self,
        arena: &CodeArena,
        query: &[u64],
        k: usize,
        mask: Option<&IdMask>,
    ) -> &[Neighbor] {
        self.rank(KernelTier::detected(), arena, query, mask, k, arena.bits() + 1)
    }

    /// Every row of `arena` within Hamming distance `radius` of `query` —
    /// among those whose id is in `mask`, given one — by (distance, row).
    /// A radius past the code width (`u32::MAX` included) is the width.
    ///
    /// # Panics
    /// Panics if the query width does not match the arena.
    pub fn within(
        &mut self,
        arena: &CodeArena,
        query: &[u64],
        radius: u32,
        mask: Option<&IdMask>,
    ) -> &[Neighbor] {
        let limit = radius.min(arena.bits()) + 1;
        self.rank(KernelTier::detected(), arena, query, mask, usize::MAX, limit)
    }

    /// One selection at a given kernel tier: at most `k` rows, each below
    /// distance `limit`.
    pub(crate) fn rank(
        &mut self,
        tier: KernelTier,
        arena: &CodeArena,
        query: &[u64],
        mask: Option<&IdMask>,
        k: usize,
        limit: u32,
    ) -> &[Neighbor] {
        self.counts.clear();
        self.counts.resize(arena.bits() as usize + 2, 0);
        self.hits.clear();
        self.k = k;
        self.kept = 0;
        self.limit = if k == 0 { 0 } else { limit };
        self.count_scan(tier, arena, query, mask);
        self.count_sort()
    }

    /// The scan: every row the kernel shows is accepted or rejected by its
    /// distance alone.
    fn count_scan(
        &mut self,
        tier: KernelTier,
        arena: &CodeArena,
        query: &[u64],
        mask: Option<&IdMask>,
    ) {
        if self.limit == 0 {
            // Nothing can be selected; still validate the query width.
            assert_eq!(query.len(), arena.words_per_code(), "query width does not match the arena");
            return;
        }
        arena.scan_tier(tier, query, mask, self.limit - 1, |row, d| self.accept(arena.id(row), d));
    }

    /// Accepts a row below the limit and returns the kernel's bound for the
    /// rows after it.  (At limit 0 the kernel still shows distance-0 rows,
    /// which land here and are rejected.)
    #[inline]
    fn accept(&mut self, id: ItemId, distance: u32) -> u32 {
        if distance < self.limit {
            self.counts[distance as usize] += 1;
            // lint:allow(hot-path) the buffer is reused across queries; warm, it holds a scan's accepted rows without growing
            self.hits.push(Neighbor::new(id, distance));
            self.kept += 1;
            if self.kept == self.k {
                // The k-th row's distance: the largest one below the limit
                // with a row (the row just accepted is one).
                let mut top = self.limit - 1;
                while self.counts[top as usize] == 0 {
                    top -= 1;
                }
                self.kept -= self.counts[top as usize];
                self.limit = top;
            }
        }
        self.limit.saturating_sub(1)
    }

    /// The finish: a stable counting sort of the accepted rows by distance.
    /// Every row below the limit is kept; rows at the limit fill the
    /// remaining `k - kept` slots in arrival order; stale rows above it,
    /// accepted before the bound fell, are dropped.
    fn count_sort(&mut self) -> &[Neighbor] {
        let limit = self.limit as usize;
        let len = self.kept + self.counts[limit].min(self.k - self.kept);
        // Each distance's counter becomes its first output slot.
        let mut start = 0;
        for slot in &mut self.counts[..=limit] {
            start += std::mem::replace(slot, start);
        }
        self.out.clear();
        self.out.resize(len, Neighbor::new(0, 0));
        for hit in &self.hits {
            let d = hit.distance as usize;
            if d <= limit && self.counts[d] < len {
                self.out[self.counts[d]] = *hit;
                self.counts[d] += 1;
            }
        }
        &self.out
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

    /// Both selections, at every tier, against full-sort-then-truncate,
    /// and the counting selection's radius mode against the radius scan.
    #[test]
    fn every_tier_selects_the_full_sort_topk() {
        use crate::bitmap::{Bitmap, IdMask};
        let (mut heap, mut counting) = (SearchScratch::new(), CountingTopK::new());
        for bits in [7u32, 64, 100, 128, 192, 256, 320] {
            for rows in (0..=19u64).chain([300]) {
                // Low-entropy codes (ties) and ids past the short mask's end;
                // ids ascend with rows, so (distance, row) is (distance, id).
                let mut arena = CodeArena::new(bits);
                for r in 0..rows {
                    arena.push(7 * r + 1, &rand_code(bits, r / 3));
                }
                let all: Bitmap = arena.ids().iter().copied().collect();
                let sparse: Bitmap = all.iter().filter(|id| id % 3 == 2).collect();
                let short: Bitmap = [1u64, 15, 29, 36].into_iter().collect();
                let masks = [Bitmap::new(), all, sparse, short].map(|b| IdMask::from_bitmap(&b));
                let query = rand_code(bits, 77);
                let q = query.words();
                for mask in [None].into_iter().chain(masks.iter().map(Some)) {
                    let mut sorted: Vec<Neighbor> = (0..arena.len())
                        .filter(|&r| mask.is_none_or(|m| m.contains(arena.id(r))))
                        .map(|r| Neighbor::new(arena.id(r), arena.distance(r, q)))
                        .collect();
                    sort_neighbors(&mut sorted);
                    for k in [0usize, 1, 7, 21, rows as usize, rows as usize + 5] {
                        let want = &sorted[..k.min(sorted.len())];
                        for tier in KernelTier::supported() {
                            heap.begin(k);
                            heap.select(tier, &arena, q, mask);
                            assert_eq!(heap.finish(), want, "heap {tier:?}, bits {bits}, k {k}");
                            let got = counting.rank(tier, &arena, q, mask, k, bits + 1);
                            assert_eq!(got, want, "{tier:?}, bits {bits}, rows {rows}, k {k}");
                        }
                        let got = counting.knn(&arena, q, k, mask);
                        assert_eq!(got, want, "knn, bits {bits}, rows {rows}, k {k}");
                    }
                    for radius in [0, bits / 4, bits, bits + 1, u32::MAX] {
                        let mut want = Vec::new();
                        match mask {
                            Some(mask) => arena.scan_radius_masked_into(q, radius, mask, &mut want),
                            None => arena.scan_radius_into(q, radius, &mut want),
                        }
                        sort_neighbors(&mut want);
                        let got = counting.within(&arena, q, radius, mask);
                        assert_eq!(got, want, "bits {bits}, rows {rows}, radius {radius}");
                        let limit = radius.min(bits) + 1;
                        for tier in KernelTier::supported() {
                            let got = counting.rank(tier, &arena, q, mask, usize::MAX, limit);
                            assert_eq!(got, want, "{tier:?}, bits {bits}, radius {radius}");
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
