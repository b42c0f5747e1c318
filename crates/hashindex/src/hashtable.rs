//! The paper's hash-table index: binary codes are keys of a hash table and
//! retrieval returns "all images in the hash buckets that are within a
//! small hamming radius of the query image" (§2.2).

use std::collections::HashMap;

use crate::arena::CodeArena;
use crate::code::BinaryCode;
use crate::topk::SearchScratch;
use crate::{sort_neighbors, HammingIndex, ItemId, Neighbor};

/// A Hamming hash-table index.
///
/// * Items with identical codes share a bucket.
/// * `radius_search(query, r)` retrieves every item whose code is within
///   Hamming distance `r` of the query.  Two strategies are available and
///   chosen adaptively:
///   1. **Enumeration** — probe every code obtained by flipping up to `r`
///      bits of the query (exactly what the paper describes for "a small
///      hamming radius"); cost grows as `C(bits, r)`.
///   2. **Bucket scan** — iterate over all distinct codes present in the
///      table and keep those within distance `r`; cost grows with the
///      number of distinct codes but not with `r`.
///
/// The cheaper strategy is picked per query; `force_strategy` pins it for
/// experiments (E1/E3 compare the two).
///
/// The bucket scan does **not** iterate the `HashMap` (a pointer chase per
/// distinct code): every inserted `(id, code)` row is mirrored into a
/// [`CodeArena`], a flat structure-of-arrays store the scan kernel streams
/// through at memory bandwidth (experiment E11).  The bucket map serves
/// exact lookups and enumeration probes.  Neither has a durable encoding:
/// the table is derived from its codes, so a restore re-inserts them.
#[derive(Debug, Clone)]
pub struct HashTableIndex {
    bits: u32,
    buckets: HashMap<BinaryCode, Vec<ItemId>>,
    /// Scan mirror of the buckets, in insertion order.
    arena: CodeArena,
    len: usize,
    forced: Option<Strategy>,
}

/// Radius-search strategy of the [`HashTableIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Enumerate all codes within the radius and probe each bucket.
    Enumerate,
    /// Scan all distinct codes in the table.
    BucketScan,
}

impl HashTableIndex {
    /// Creates an empty index for codes of the given width.
    pub fn new(bits: u32) -> Self {
        assert!(bits > 0, "code width must be positive");
        Self { bits, buckets: HashMap::new(), arena: CodeArena::new(bits), len: 0, forced: None }
    }

    /// The flat scan store backing the bucket-scan strategy.  Exposed so
    /// fan-out callers (the sharded index, benchmarks) can run one bounded
    /// top-k selection across several tables without per-table result
    /// lists.
    pub fn arena(&self) -> &CodeArena {
        &self.arena
    }

    /// Code width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of distinct codes (hash buckets) currently stored.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Forces a radius-search strategy (used by the benchmarks); `None`
    /// restores adaptive selection.
    pub fn force_strategy(&mut self, strategy: Option<Strategy>) {
        self.forced = strategy;
    }

    /// Returns the items whose code is exactly `code` (one bucket lookup).
    pub fn exact_lookup(&self, code: &BinaryCode) -> &[ItemId] {
        self.buckets.get(code).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Estimated number of bucket probes of the enumeration strategy for a
    /// given radius: `sum_{d=0..=r} C(bits, d)`, saturating.
    pub fn enumeration_probes(&self, radius: u32) -> u128 {
        let mut total: u128 = 0;
        for d in 0..=radius.min(self.bits) {
            total = total.saturating_add(binomial(self.bits as u128, d as u128));
        }
        total
    }

    fn pick_strategy(&self, radius: u32) -> Strategy {
        if let Some(s) = self.forced {
            return s;
        }
        let probes = self.enumeration_probes(radius);
        if probes <= self.buckets.len() as u128 {
            Strategy::Enumerate
        } else {
            Strategy::BucketScan
        }
    }

    /// Appends every item within Hamming distance `radius` of `query` to
    /// `out` (unsorted — the caller sorts once, after any fan-out merge),
    /// using the adaptively picked strategy.  This is the allocation-free
    /// core of [`radius_search`](HammingIndex::radius_search): a caller
    /// that owns `out` pays no per-query allocation once the buffer is
    /// warm.
    ///
    /// # Panics
    /// Panics if the query width does not match the index.
    pub fn radius_search_into(&self, query: &BinaryCode, radius: u32, out: &mut Vec<Neighbor>) {
        assert_eq!(query.bits(), self.bits, "query width does not match the index");
        match self.pick_strategy(radius) {
            Strategy::Enumerate => self.enumerate_into(query, radius, out),
            Strategy::BucketScan => self.arena.scan_radius_into(query.words(), radius, out),
        }
    }

    /// The enumeration strategy: depth-first bit-flip enumeration with
    /// increasing flip positions (no code is visited twice), flipping a
    /// **single scratch code in place** — no clone per probed bucket.
    fn enumerate_into(&self, query: &BinaryCode, radius: u32, out: &mut Vec<Neighbor>) {
        if let Some(bucket) = self.buckets.get(query) {
            for &id in bucket {
                out.push(Neighbor::new(id, 0));
            }
        }
        let mut current = query.clone();
        enumerate_flips(&mut current, 0, radius, self.bits, &mut |code, flipped| {
            if let Some(bucket) = self.buckets.get(code) {
                for &id in bucket {
                    out.push(Neighbor::new(id, flipped));
                }
            }
        });
    }

    /// Bounded k-NN: one pass over the arena through `scratch`'s size-`k`
    /// max-heap, so no full candidate list is ever materialised or sorted.
    /// The returned slice borrows the scratch; copy it out before reusing.
    ///
    /// Results are exactly [`knn`](HammingIndex::knn)'s: the heap's
    /// `(distance, id)` order is the neighbour sort order, so the `k`
    /// survivors are the first `k` rows of the full sorted list.
    ///
    /// # Panics
    /// Panics if the query width does not match the index.
    pub fn knn_with<'s>(
        &self,
        query: &BinaryCode,
        k: usize,
        scratch: &'s mut SearchScratch,
    ) -> &'s [Neighbor] {
        assert_eq!(query.bits(), self.bits, "query width does not match the index");
        scratch.begin(k);
        scratch.scan_arena(&self.arena, query.words());
        scratch.finish()
    }

    /// Masked radius search: appends every item within Hamming distance
    /// `radius` of `query` **whose id is in `mask`** to `out` (unsorted).
    /// Always runs the arena scan — the point of the mask is to skip the
    /// XOR/popcount per rejected row, which bucket enumeration cannot do —
    /// so cost is one mask probe per row plus a distance computation per
    /// surviving row.
    ///
    /// # Panics
    /// Panics if the query width does not match the index.
    pub fn radius_search_masked_into(
        &self,
        query: &BinaryCode,
        radius: u32,
        mask: &crate::bitmap::IdMask,
        out: &mut Vec<Neighbor>,
    ) {
        assert_eq!(query.bits(), self.bits, "query width does not match the index");
        self.arena.scan_radius_masked_into(query.words(), radius, mask, out);
    }

    /// Masked bounded k-NN: the `k` nearest items among those whose id is
    /// in `mask`, selected in one masked arena pass through `scratch`'s
    /// size-`k` heap.  The returned slice borrows the scratch.
    ///
    /// # Panics
    /// Panics if the query width does not match the index.
    pub fn knn_masked_with<'s>(
        &self,
        query: &BinaryCode,
        k: usize,
        mask: &crate::bitmap::IdMask,
        scratch: &'s mut SearchScratch,
    ) -> &'s [Neighbor] {
        assert_eq!(query.bits(), self.bits, "query width does not match the index");
        scratch.begin(k);
        scratch.scan_arena_masked(&self.arena, query.words(), mask);
        scratch.finish()
    }
}

impl HammingIndex for HashTableIndex {
    fn insert(&mut self, id: ItemId, code: BinaryCode) {
        assert_eq!(code.bits(), self.bits, "code width does not match the index");
        self.arena.push(id, &code);
        self.buckets.entry(code).or_default().push(id);
        self.len += 1;
    }

    fn radius_search(&self, query: &BinaryCode, radius: u32) -> Vec<Neighbor> {
        let mut out = Vec::new();
        self.radius_search_into(query, radius, &mut out);
        sort_neighbors(&mut out);
        out
    }

    fn knn(&self, query: &BinaryCode, k: usize) -> Vec<Neighbor> {
        // One bounded arena pass — no radius-expansion retries, no full
        // sort.  (An earlier revision expanded a radius search until `k`
        // items appeared, re-paying the scan per retry on sparse tables.)
        self.knn_with(query, k, &mut SearchScratch::new()).to_vec()
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Calls `visit` for every code within `max_flips` bit flips of `code`
/// (excluding zero flips), flipping and unflipping bits **in place** on the
/// single working buffer: an enumerated bucket probe costs one XOR going
/// in and one coming back out, never a clone or an allocation.
fn enumerate_flips(
    code: &mut BinaryCode,
    start_bit: u32,
    remaining: u32,
    bits: u32,
    visit: &mut impl FnMut(&BinaryCode, u32),
) {
    fn rec(
        code: &mut BinaryCode,
        start_bit: u32,
        remaining: u32,
        bits: u32,
        depth: u32,
        visit: &mut impl FnMut(&BinaryCode, u32),
    ) {
        if remaining == 0 {
            return;
        }
        for i in start_bit..bits {
            code.toggle_bit(i);
            visit(code, depth + 1);
            rec(code, i + 1, remaining - 1, bits, depth + 1, visit);
            code.toggle_bit(i); // unflip: restore before the next branch
        }
    }
    rec(code, start_bit, remaining, bits, 0, visit);
}

fn binomial(n: u128, k: u128) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u128 = 1;
    for i in 0..k {
        result = result.saturating_mul(n - i) / (i + 1);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code(s: &str) -> BinaryCode {
        BinaryCode::from_bit_string(s).unwrap()
    }

    fn sample_index() -> HashTableIndex {
        let mut idx = HashTableIndex::new(8);
        idx.insert(1, code("00000000"));
        idx.insert(2, code("00000001"));
        idx.insert(3, code("00000011"));
        idx.insert(4, code("11111111"));
        idx.insert(5, code("00000000")); // same bucket as 1
        idx
    }

    #[test]
    fn insert_and_exact_lookup() {
        let idx = sample_index();
        assert_eq!(idx.len(), 5);
        assert_eq!(idx.bucket_count(), 4);
        assert_eq!(idx.exact_lookup(&code("00000000")), &[1, 5]);
        assert_eq!(idx.exact_lookup(&code("01010101")), &[] as &[ItemId]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn insert_rejects_wrong_width() {
        let mut idx = HashTableIndex::new(8);
        idx.insert(1, BinaryCode::zeros(16));
    }

    #[test]
    fn radius_zero_returns_exact_bucket() {
        let idx = sample_index();
        let hits = idx.radius_search(&code("00000000"), 0);
        assert_eq!(hits, vec![Neighbor::new(1, 0), Neighbor::new(5, 0)]);
    }

    #[test]
    fn radius_search_returns_all_within_radius_sorted() {
        let idx = sample_index();
        let hits = idx.radius_search(&code("00000000"), 2);
        assert_eq!(
            hits,
            vec![
                Neighbor::new(1, 0),
                Neighbor::new(5, 0),
                Neighbor::new(2, 1),
                Neighbor::new(3, 2),
            ]
        );
    }

    #[test]
    fn both_strategies_agree() {
        let mut idx = sample_index();
        for radius in 0..=8 {
            idx.force_strategy(Some(Strategy::Enumerate));
            let a = idx.radius_search(&code("00000001"), radius);
            idx.force_strategy(Some(Strategy::BucketScan));
            let b = idx.radius_search(&code("00000001"), radius);
            assert_eq!(a, b, "strategies disagree at radius {radius}");
        }
    }

    #[test]
    fn knn_expands_radius_until_k_found() {
        let idx = sample_index();
        let hits = idx.knn(&code("00000000"), 3);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].id, 1);
        assert_eq!(hits[1].id, 5);
        assert_eq!(hits[2].id, 2);
        // k larger than the index size returns everything.
        let all = idx.knn(&code("00000000"), 100);
        assert_eq!(all.len(), 5);
        // k = 0 returns nothing.
        assert!(idx.knn(&code("00000000"), 0).is_empty());
    }

    #[test]
    fn knn_on_empty_index_is_empty() {
        let idx = HashTableIndex::new(16);
        assert!(idx.knn(&BinaryCode::zeros(16), 5).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn enumeration_probe_count_is_binomial_sum() {
        let idx = HashTableIndex::new(8);
        assert_eq!(idx.enumeration_probes(0), 1);
        assert_eq!(idx.enumeration_probes(1), 1 + 8);
        assert_eq!(idx.enumeration_probes(2), 1 + 8 + 28);
        assert_eq!(idx.enumeration_probes(8), 256);
        // Radius above the width saturates at 2^bits.
        assert_eq!(idx.enumeration_probes(100), 256);
    }

    #[test]
    fn adaptive_strategy_prefers_enumeration_for_small_radius_on_large_tables() {
        let mut idx = HashTableIndex::new(64);
        // Many distinct buckets.
        for i in 0..5_000u64 {
            let mut c = BinaryCode::zeros(64);
            for b in 0..64 {
                if (i >> (b % 13)) & 1 == 1 {
                    c.set_bit(b, true);
                }
            }
            // Add the item index to make codes distinct.
            for b in 0..13 {
                c.set_bit(50 + (b % 14), (i >> b) & 1 == 1);
            }
            idx.insert(i, c);
        }
        assert_eq!(idx.pick_strategy(0), Strategy::Enumerate);
        assert_eq!(idx.pick_strategy(1), Strategy::Enumerate);
        assert_eq!(idx.pick_strategy(5), Strategy::BucketScan);
    }

    #[test]
    fn binomial_helper() {
        assert_eq!(binomial(128, 0), 1);
        assert_eq!(binomial(128, 1), 128);
        assert_eq!(binomial(128, 2), 8128);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(5, 6), 0);
    }

    #[test]
    fn radius_search_with_128_bit_codes() {
        let mut idx = HashTableIndex::new(128);
        let base = BinaryCode::zeros(128);
        idx.insert(10, base.clone());
        idx.insert(11, base.with_flipped_bit(3));
        idx.insert(12, base.with_flipped_bit(3).with_flipped_bit(77));
        let hits = idx.radius_search(&base, 1);
        assert_eq!(hits.iter().map(|n| n.id).collect::<Vec<_>>(), vec![10, 11]);
        let hits = idx.radius_search(&base, 2);
        assert_eq!(hits.iter().map(|n| n.id).collect::<Vec<_>>(), vec![10, 11, 12]);
    }
}
