//! Binary hash codes and Hamming-space nearest-neighbour indexes.
//!
//! MiLaN (§2.2 of the paper) maps every archive image to a compact binary
//! hash code and uses the codes "as keys in a hash table to enable
//! real-time nearest neighbor search": all images whose codes lie within a
//! small Hamming radius of the query code are retrieved.  This crate
//! provides that machinery plus the baselines the experiments compare
//! against:
//!
//! * [`BinaryCode`] — a fixed-width binary code packed into `u64` words,
//! * [`HashTableIndex`] — the paper's hash-table lookup with adaptive
//!   radius enumeration,
//! * [`MultiIndexHashing`] — substring-based multi-index hashing for larger
//!   radii (Norouzi et al.), the standard way to scale exact Hamming-radius
//!   search,
//! * [`LinearScanIndex`] — brute-force Hamming scan baseline,
//! * [`FloatKnnIndex`] — exact k-NN over the raw float features (the
//!   "no hashing" baseline),
//! * [`RandomHyperplaneHasher`] — untrained LSH codes (the "no learning"
//!   baseline),
//! * [`ShardedHashIndex`] — the hash-table index split into independently
//!   locked shards with fan-out/merge search, the benchmark harness's
//!   replay index (EarthQube serves from one [`CodeArena`] instead),
//! * [`CodeArena`] — the flat structure-of-arrays code store every scan
//!   path runs over, and EarthQube's serving index, one row per patch in
//!   dense-id order: contiguous word-striped code data and one Hamming
//!   block kernel, dispatched to the best [`KernelTier`] the CPU offers
//!   (`popcnt`, AVX-512), so a scan streams at memory bandwidth instead of
//!   pointer-chasing per-code heap allocations (experiment E11),
//! * [`CountingTopK`] — EarthQube's k-NN and radius ranking over one
//!   arena scan in row order: a counter per distance and a bound that falls
//!   as the counts fill, then one counting sort, so no row is compared with
//!   another; kept per thread by the serving tier,
//! * [`SearchScratch`] — bounded top-k selection (size-`k` max-heap with a
//!   running short-circuit bound) for any arrival order: the id-keyed
//!   indexes' k-NN and the reference the counting selection must equal,
//! * [`Bitmap`] / [`IdMask`] — roaring-style compressed id sets with
//!   AND/OR/AND-NOT algebra, and the dense scan-time mask that lets the
//!   arena kernels skip rows outside a precompiled candidate set — the
//!   substrate of bitmap-prefiltered filtered search (experiment E13).

#![deny(missing_docs)]
// `unsafe` is confined to the scan kernel in `arena`, the one item that
// allows it; every block there says why it is sound.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod arena;
pub mod bitmap;
pub mod code;
pub mod float_knn;
pub mod hashtable;
pub mod linear;
pub mod lsh;
pub mod mih;
pub mod sharded;
pub mod topk;

pub use arena::{CodeArena, KernelTier};
pub use bitmap::{Bitmap, IdMask};
pub use code::BinaryCode;
pub use float_knn::{DistanceMetric, FloatKnnIndex};
pub use hashtable::HashTableIndex;
pub use linear::LinearScanIndex;
pub use lsh::RandomHyperplaneHasher;
pub use mih::MultiIndexHashing;
pub use sharded::ShardedHashIndex;
pub use topk::{CountingTopK, SearchScratch};

/// Identifier of an indexed item (a patch id in EarthQube).
pub type ItemId = u64;

/// A search hit: an item id together with its Hamming distance to the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Neighbor {
    /// The indexed item.
    pub id: ItemId,
    /// Hamming distance from the query code.
    pub distance: u32,
}

impl Neighbor {
    /// Creates a neighbour record.
    pub fn new(id: ItemId, distance: u32) -> Self {
        Self { id, distance }
    }
}

/// Orders neighbours by distance, then by id for determinism.
pub fn sort_neighbors(neighbors: &mut [Neighbor]) {
    neighbors.sort_unstable_by(|a, b| a.distance.cmp(&b.distance).then(a.id.cmp(&b.id)));
}

/// Common interface of the Hamming-space indexes, so that benchmarks and
/// the EarthQube CBIR service can swap implementations.
pub trait HammingIndex {
    /// Inserts an item with the given code.
    fn insert(&mut self, id: ItemId, code: BinaryCode);

    /// Returns all items within Hamming distance `radius` of `query`,
    /// sorted by distance then id.
    fn radius_search(&self, query: &BinaryCode, radius: u32) -> Vec<Neighbor>;

    /// Returns the `k` nearest items (ties broken by id), sorted by
    /// distance then id.
    fn knn(&self, query: &BinaryCode, k: usize) -> Vec<Neighbor>;

    /// Number of indexed items.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod dense_mask_tests;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_sorting_is_by_distance_then_id() {
        let mut v = vec![Neighbor::new(5, 2), Neighbor::new(1, 2), Neighbor::new(9, 0)];
        sort_neighbors(&mut v);
        assert_eq!(v, vec![Neighbor::new(9, 0), Neighbor::new(1, 2), Neighbor::new(5, 2)]);
    }
}
