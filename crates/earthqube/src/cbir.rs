//! The content-based image retrieval (CBIR) service (§3.3 of the paper).
//!
//! For every archive image a 128-bit binary code is inferred with MiLaN.
//! The service keeps an in-memory hash table mapping each image patch name
//! to its code (query-by-archive-image path) and a Hamming hash index over
//! all codes.  For external images the model produces a code on the fly
//! (query-by-new-example path).
//!
//! This is the CBIR half of the one query core (the crate's `catalog`
//! module): the service holds the state, the core ranks over it and
//! assembles the responses.

use std::collections::HashMap;
use std::sync::Arc;

use eq_bigearthnet::patch::PatchMetadata;
use eq_bigearthnet::Archive;
use eq_hashindex::{BinaryCode, ShardedHashIndex};
use eq_milan::Milan;

/// Configuration of the CBIR service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbirConfig {
    /// Default Hamming radius for radius queries ("a small hamming radius",
    /// §2.2/§3.3).
    pub default_radius: u32,
    /// Default number of results for k-NN queries.
    pub default_k: usize,
}

impl Default for CbirConfig {
    fn default() -> Self {
        Self { default_radius: 8, default_k: 20 }
    }
}

/// The MiLaN-backed CBIR service: the trained model, the name→code table
/// and the Hamming index over the same codes.
#[derive(Debug)]
pub struct CbirService {
    pub(crate) config: CbirConfig,
    /// Immutable once built, so the server hashes uploads and ingest
    /// batches through its own handle without taking the catalog lock.
    pub(crate) model: Arc<Milan>,
    pub(crate) index: ShardedHashIndex,
    /// In-memory hash table: image patch name → binary code (§3.3).
    pub(crate) name_to_code: HashMap<String, BinaryCode>,
}

impl CbirService {
    /// Builds the service: infers a binary code for every archive image,
    /// fills the name→code table and a Hamming index of `shards` shards
    /// (at least one).
    ///
    /// The model should already be trained; an untrained model still works
    /// but retrieves poorly (that difference is experiment E2).
    pub(crate) fn build(
        model: Milan,
        archive: &Archive,
        config: CbirConfig,
        shards: usize,
    ) -> Self {
        let codes = model.hash_archive(archive);
        let images = archive.patches().iter().map(|patch| &patch.meta).zip(codes);
        Self::from_codes(model, config, shards, images)
    }

    /// The service over already-inferred codes: each one goes through
    /// [`insert`](Self::insert) in the order given, which is dense-id order
    /// for both callers (build, and recovery from the image table).
    pub(crate) fn from_codes<'m>(
        model: Milan,
        config: CbirConfig,
        shards: usize,
        images: impl ExactSizeIterator<Item = (&'m PatchMetadata, BinaryCode)>,
    ) -> Self {
        let index = ShardedHashIndex::new(model.code_bits(), shards.max(1));
        let name_to_code = HashMap::with_capacity(images.len());
        let mut service = Self { config, model: Arc::new(model), index, name_to_code };
        for (meta, code) in images {
            service.insert(meta.id.0 as u64, &meta.name, code);
        }
        service
    }

    /// Adds one image to the table and the index, keeping the two in step.
    pub(crate) fn insert(&mut self, id: u64, name: &str, code: BinaryCode) {
        self.index.insert(id, code.clone());
        self.name_to_code.insert(name.to_string(), code);
    }

    /// The service configuration.
    pub fn config(&self) -> CbirConfig {
        self.config
    }

    /// Number of indexed images.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The code width in bits.
    pub fn code_bits(&self) -> u32 {
        self.model.code_bits()
    }

    /// The stored binary code of an archive image.
    pub fn code_of(&self, name: &str) -> Option<&BinaryCode> {
        self.name_to_code.get(name)
    }

    /// The underlying model (e.g. to hash external features directly).
    pub fn model(&self) -> &Milan {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_bigearthnet::{ArchiveGenerator, GeneratorConfig};
    use eq_milan::MilanConfig;

    fn service(n: usize, seed: u64, shards: usize) -> (CbirService, Archive) {
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(n, seed)).unwrap().generate();
        let model = Milan::new(MilanConfig::fast(32, seed)).unwrap();
        (CbirService::build(model, &archive, CbirConfig::default(), shards), archive)
    }

    #[test]
    fn build_indexes_every_archive_image() {
        let (svc, archive) = service(40, 31, 1);
        assert_eq!(svc.len(), 40);
        assert!(!svc.is_empty());
        assert_eq!(svc.code_bits(), 32);
        assert_eq!(svc.config(), CbirConfig::default());
        for p in archive.patches() {
            assert_eq!(svc.code_of(&p.meta.name), Some(&svc.model().hash_patch(p)));
        }
        assert!(svc.code_of("nonexistent").is_none());
    }

    #[test]
    fn a_zero_shard_request_builds_one_shard() {
        let (svc, _) = service(5, 33, 0);
        assert_eq!(svc.index.shard_count(), 1);
    }
}
