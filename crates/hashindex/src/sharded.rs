//! A sharded Hamming index: the paper's hash table split `N` ways.
//!
//! [`ShardedHashIndex`] splits one logical [`HashTableIndex`] into `N`
//! shards.  Every code is routed to a shard by a deterministic hash of its
//! bit pattern, so identical codes always share a shard (and a bucket
//! within it).  Searches fan out over all shards and merge the per-shard
//! hit lists.
//!
//! Who uses it: the benchmark harness's layer replays (`bench_e2e`), and
//! the allocation tests that pin its scans.  The bucket table it splits is
//! the one experiments E1–E3 measure.  It is *not* `eq_earthqube`'s
//! serving index, which is one [`CodeArena`](crate::CodeArena) whose row
//! *r* is dense patch id *r*; nor is hash routing how a scan would go
//! parallel, which splits an arena's rows into contiguous ranges.  Each
//! shard keeps its own `RwLock` only because
//! [`insert`](ShardedHashIndex::insert) takes `&self`, the form the
//! harness calls on a non-`mut` binding.  The index has no durable
//! encoding: it is derived from its codes.
//!
//! Determinism: the merged results are sorted with [`sort_neighbors`]
//! (distance, then id), exactly like the unsharded index, so a sharded
//! search returns *byte-identical* results to [`HashTableIndex`] over the
//! same items.  For `knn` this holds because one bounded top-`k` selection
//! (a [`SearchScratch`] heap) is threaded across every shard's
//! [`CodeArena`](crate::CodeArena) in turn: the heap sees the union of all
//! rows, so its `k` survivors are the global top-`k` by construction — no
//! per-shard result lists, no merge-then-truncate.

use parking_lot::RwLock;

use crate::code::BinaryCode;
use crate::hashtable::HashTableIndex;
use crate::topk::SearchScratch;
use crate::{sort_neighbors, HammingIndex, ItemId, Neighbor};

/// A Hamming index split into `N` [`HashTableIndex`] shards with
/// fan-out/merge search.
///
/// All operations — including [`insert`](Self::insert) — take `&self`
/// through a per-shard lock (see the module docs for why it stays), so the
/// index can be shared across threads without an external lock.
#[derive(Debug)]
pub struct ShardedHashIndex {
    bits: u32,
    shards: Vec<RwLock<HashTableIndex>>,
}

impl ShardedHashIndex {
    /// Creates an empty index for codes of the given width, split into
    /// `shards` shards.
    ///
    /// # Panics
    /// Panics if `bits == 0` or `shards == 0`.
    pub fn new(bits: u32, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        Self {
            bits,
            shards: (0..shards)
                .map(|_| RwLock::with_name(HashTableIndex::new(bits), "index-shard"))
                .collect(),
        }
    }

    /// Code width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The shard a code is routed to: an FNV-1a hash of the code words,
    /// reduced modulo the shard count.  Process-independent, so shard
    /// layout is reproducible across runs.
    fn shard_of(&self, code: &BinaryCode) -> usize {
        (fnv1a(code.words()) % self.shards.len() as u64) as usize
    }

    /// Inserts an item, write-locking only the shard its code hashes to.
    ///
    /// # Panics
    /// Panics if the code width does not match the index.
    pub fn insert(&self, id: ItemId, code: BinaryCode) {
        assert_eq!(code.bits(), self.bits, "code width does not match the index");
        self.shards[self.shard_of(&code)].write().insert(id, code);
    }

    /// Returns all items within Hamming distance `radius` of `query`,
    /// sorted by distance then id — fan-out over every shard, merge.
    ///
    /// Each shard appends its hits straight into one shared buffer (its
    /// adaptively chosen strategy scans the shard arena or enumerates
    /// probes), so the fan-out allocates one output list, not one per
    /// shard.
    pub fn radius_search(&self, query: &BinaryCode, radius: u32) -> Vec<Neighbor> {
        assert_eq!(query.bits(), self.bits, "query width does not match the index");
        let mut out = Vec::new();
        for shard in &self.shards {
            shard.read().radius_search_into(query, radius, &mut out);
        }
        sort_neighbors(&mut out);
        out
    }

    /// Returns the `k` nearest items (ties broken by id), sorted by
    /// distance then id.
    pub fn knn(&self, query: &BinaryCode, k: usize) -> Vec<Neighbor> {
        self.knn_with(query, k, &mut SearchScratch::new()).to_vec()
    }

    /// Bounded k-NN through a caller-owned scratch: **one** size-`k` heap
    /// is threaded across every shard's arena in turn (each under its own
    /// read lock), so the selection sees the union of all rows and its
    /// survivors are the exact global top-`k` — no per-shard result lists,
    /// no full sort, and zero allocation once the scratch is warm.  The
    /// returned slice borrows the scratch; copy it out before reusing.
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
        for shard in &self.shards {
            scratch.scan_arena(shard.read().arena(), query.words());
        }
        scratch.finish()
    }

    /// Masked radius search: appends every item within `radius` of `query`
    /// whose id is in `mask` to `out` (unsorted — the caller sorts once
    /// after the fan-out merge, like the flat index's masked scan).  Each
    /// shard's arena is scanned through the masked kernel under its own
    /// read lock, so rows outside the mask never pay for a distance
    /// computation.
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
        for shard in &self.shards {
            shard.read().radius_search_masked_into(query, radius, mask, out);
        }
    }

    /// Masked bounded k-NN: one size-`k` selection threaded across every
    /// shard's arena through the masked kernel, yielding the exact global
    /// top-`k` *of the masked subset*.  The returned slice borrows the
    /// scratch; copy it out before reusing.
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
        for shard in &self.shards {
            scratch.scan_arena_masked(shard.read().arena(), query.words(), mask);
        }
        scratch.finish()
    }

    /// Total number of indexed items across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl HammingIndex for ShardedHashIndex {
    fn insert(&mut self, id: ItemId, code: BinaryCode) {
        ShardedHashIndex::insert(self, id, code);
    }

    fn radius_search(&self, query: &BinaryCode, radius: u32) -> Vec<Neighbor> {
        ShardedHashIndex::radius_search(self, query, radius)
    }

    fn knn(&self, query: &BinaryCode, k: usize) -> Vec<Neighbor> {
        ShardedHashIndex::knn(self, query, k)
    }

    fn len(&self) -> usize {
        ShardedHashIndex::len(self)
    }
}

/// FNV-1a over a word slice; fixed offset/prime so shard routing is
/// deterministic across processes (unlike `std`'s randomised hasher).
fn fnv1a(words: &[u64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &word in words {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScanIndex;

    fn rand_code(bits: u32, seed: u64) -> BinaryCode {
        // SplitMix64-style expansion: deterministic, well mixed.
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let words: Vec<u64> = (0..bits.div_ceil(64)).map(|_| next()).collect();
        BinaryCode::from_words(bits, words)
    }

    #[test]
    fn sharded_results_match_the_unsharded_index_exactly() {
        let sharded = ShardedHashIndex::new(64, 5);
        let mut flat = HashTableIndex::new(64);
        let mut linear = LinearScanIndex::new(64);
        for i in 0..400u64 {
            // Low-entropy codes so buckets collide and ties exercise id ordering.
            let code = rand_code(64, i / 3);
            sharded.insert(i, code.clone());
            flat.insert(i, code.clone());
            linear.insert(i, code);
        }
        assert_eq!(sharded.len(), 400);
        for q in 0..10u64 {
            let query = rand_code(64, q);
            for radius in [0, 2, 8, 20] {
                assert_eq!(
                    sharded.radius_search(&query, radius),
                    flat.radius_search(&query, radius),
                    "radius {radius} disagrees"
                );
            }
            for k in [1, 5, 17, 500] {
                let got = sharded.knn(&query, k);
                assert_eq!(got, flat.knn(&query, k), "knn k={k} disagrees with hash table");
                assert_eq!(got, linear.knn(&query, k), "knn k={k} disagrees with linear scan");
            }
        }
    }

    #[test]
    fn masked_search_matches_the_flat_index_and_the_post_filtered_scan() {
        use crate::bitmap::{Bitmap, IdMask};
        let sharded = ShardedHashIndex::new(64, 5);
        let mut flat = HashTableIndex::new(64);
        for i in 0..400u64 {
            let code = rand_code(64, i / 3);
            sharded.insert(i, code.clone());
            flat.insert(i, code);
        }
        let bitmap: Bitmap = (0..400u64).filter(|id| id % 5 == 0).collect();
        let mask = IdMask::from_bitmap(&bitmap);
        let mut scratch = SearchScratch::new();
        for q in 0..6u64 {
            let query = rand_code(64, q);
            // Radius: sharded masked == flat masked == unmasked-then-filter.
            let mut sharded_hits = Vec::new();
            sharded.radius_search_masked_into(&query, 12, &mask, &mut sharded_hits);
            sort_neighbors(&mut sharded_hits);
            let mut flat_hits = Vec::new();
            flat.radius_search_masked_into(&query, 12, &mask, &mut flat_hits);
            sort_neighbors(&mut flat_hits);
            let mut reference = sharded.radius_search(&query, 12);
            reference.retain(|n| mask.contains(n.id));
            assert_eq!(sharded_hits, reference, "query {q}");
            assert_eq!(flat_hits, reference, "query {q}");
            // k-NN: masked selection == post-filtered full ranking prefix.
            let got = sharded.knn_masked_with(&query, 9, &mask, &mut scratch).to_vec();
            let mut want = sharded.knn(&query, 400);
            want.retain(|n| mask.contains(n.id));
            want.truncate(9);
            assert_eq!(got, want, "query {q}");
            let flat_got = flat.knn_masked_with(&query, 9, &mask, &mut scratch).to_vec();
            assert_eq!(flat_got, want, "query {q}");
        }
    }

    #[test]
    fn identical_codes_are_found_together_in_id_order() {
        let idx = ShardedHashIndex::new(16, 8);
        let code = rand_code(16, 7);
        idx.insert(2, code.clone());
        idx.insert(1, code.clone());
        idx.insert(3, code.with_flipped_bit(0));
        let hits = idx.radius_search(&code, 0);
        assert_eq!(hits.iter().map(|n| n.id).collect::<Vec<_>>(), vec![1, 2]);
        let nearest = idx.knn(&code, 2);
        assert_eq!(nearest, vec![Neighbor::new(1, 0), Neighbor::new(2, 0)]);
    }

    #[test]
    fn concurrent_inserts_and_searches_do_not_lose_items() {
        let idx = ShardedHashIndex::new(64, 4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let idx = &idx;
                s.spawn(move || {
                    for i in 0..100u64 {
                        idx.insert(t * 100 + i, rand_code(64, t * 100 + i));
                        // Interleave searches with the writes.
                        let _ = idx.knn(&rand_code(64, i), 3);
                    }
                });
            }
        });
        assert_eq!(idx.len(), 400);
    }

    #[test]
    fn trait_object_usability() {
        let mut idx: Box<dyn HammingIndex> = Box::new(ShardedHashIndex::new(8, 2));
        idx.insert(1, BinaryCode::zeros(8));
        idx.insert(2, BinaryCode::zeros(8).with_flipped_bit(3));
        assert_eq!(idx.len(), 2);
        assert!(!idx.is_empty());
        let hits = idx.radius_search(&BinaryCode::zeros(8), 1);
        assert_eq!(hits.len(), 2);
        assert_eq!(idx.knn(&BinaryCode::zeros(8), 1)[0].id, 1);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn insert_rejects_wrong_width() {
        let idx = ShardedHashIndex::new(8, 2);
        idx.insert(1, BinaryCode::zeros(16));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_are_rejected() {
        let _ = ShardedHashIndex::new(8, 0);
    }
}
