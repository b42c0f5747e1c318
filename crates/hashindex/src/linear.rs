//! Brute-force Hamming linear scan, the baseline the hash-table lookup is
//! compared against in experiment E1.

use crate::arena::CodeArena;
use crate::code::BinaryCode;
use crate::topk::SearchScratch;
use crate::{sort_neighbors, HammingIndex, ItemId, Neighbor};

/// A linear-scan index: stores `(id, code)` rows in a [`CodeArena`] and
/// answers every query by scanning all of them.
///
/// Although asymptotically the slowest option, the scan is branch-friendly
/// and cache-friendly (code words are stored contiguously and word-striped
/// in the arena, scanned by the arena's block kernel), so it is a
/// strong baseline on small archives — which is exactly the crossover
/// experiment E1 measures.
#[derive(Debug, Clone)]
pub struct LinearScanIndex {
    bits: u32,
    arena: CodeArena,
}

impl LinearScanIndex {
    /// Creates an empty index for codes of the given width.
    pub fn new(bits: u32) -> Self {
        assert!(bits > 0, "code width must be positive");
        Self { bits, arena: CodeArena::new(bits) }
    }

    /// Code width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The flat scan store.
    pub fn arena(&self) -> &CodeArena {
        &self.arena
    }

    /// Iterates over the stored `(id, code)` pairs, reconstructing each
    /// code from its arena row (for inspection/tests — the scan paths read
    /// the arena words directly).
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, BinaryCode)> + '_ {
        (0..self.arena.len()).map(|row| (self.arena.id(row), self.arena.code(row)))
    }

    /// Bounded k-NN through a caller-owned scratch: one arena pass, no
    /// full-result materialisation or sort.  See
    /// [`HashTableIndex::knn_with`](crate::HashTableIndex::knn_with).
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
}

impl HammingIndex for LinearScanIndex {
    fn insert(&mut self, id: ItemId, code: BinaryCode) {
        assert_eq!(code.bits(), self.bits, "code width does not match the index");
        self.arena.push(id, &code);
    }

    fn radius_search(&self, query: &BinaryCode, radius: u32) -> Vec<Neighbor> {
        assert_eq!(query.bits(), self.bits, "query width does not match the index");
        let mut out = Vec::new();
        self.arena.scan_radius_into(query.words(), radius, &mut out);
        sort_neighbors(&mut out);
        out
    }

    fn knn(&self, query: &BinaryCode, k: usize) -> Vec<Neighbor> {
        self.knn_with(query, k, &mut SearchScratch::new()).to_vec()
    }

    fn len(&self) -> usize {
        self.arena.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code(s: &str) -> BinaryCode {
        BinaryCode::from_bit_string(s).unwrap()
    }

    fn sample() -> LinearScanIndex {
        let mut idx = LinearScanIndex::new(8);
        idx.insert(1, code("00000000"));
        idx.insert(2, code("00000111"));
        idx.insert(3, code("11111111"));
        idx.insert(4, code("00000001"));
        idx
    }

    #[test]
    fn radius_search_filters_and_sorts() {
        let idx = sample();
        let hits = idx.radius_search(&code("00000000"), 3);
        assert_eq!(hits, vec![Neighbor::new(1, 0), Neighbor::new(4, 1), Neighbor::new(2, 3)]);
        assert!(idx.radius_search(&code("00000000"), 0).len() == 1);
    }

    #[test]
    fn knn_returns_k_nearest() {
        let idx = sample();
        let hits = idx.knn(&code("00000000"), 2);
        assert_eq!(hits, vec![Neighbor::new(1, 0), Neighbor::new(4, 1)]);
        assert_eq!(idx.knn(&code("00000000"), 10).len(), 4);
        assert!(idx.knn(&code("00000000"), 0).is_empty());
    }

    #[test]
    fn empty_index_behaviour() {
        let idx = LinearScanIndex::new(8);
        assert!(idx.is_empty());
        assert!(idx.radius_search(&code("00000000"), 8).is_empty());
        assert!(idx.knn(&code("00000000"), 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn width_mismatch_panics() {
        let idx = sample();
        let _ = idx.radius_search(&BinaryCode::zeros(16), 1);
    }

    #[test]
    fn duplicate_ids_are_allowed_and_returned() {
        let mut idx = LinearScanIndex::new(4);
        idx.insert(7, code("0000"));
        idx.insert(7, code("1111"));
        assert_eq!(idx.len(), 2);
        let hits = idx.radius_search(&code("0000"), 4);
        assert_eq!(hits.len(), 2);
    }
}
