//! The content-based image retrieval (CBIR) service (§3.3 of the paper).
//!
//! For every archive image a binary code is inferred with MiLaN, as wide as
//! the model is configured (`MilanConfig::code_bits`: the paper's codes are
//! 128 bits; `EarthQubeConfig::fast`, which the end-to-end benchmark runs,
//! uses 64).
//! The service keeps an in-memory hash table mapping each image patch name
//! to its dense id and code (query-by-archive-image path) and one
//! [`CodeArena`] over the same codes, whose row *r* holds dense patch id
//! *r*: every k-NN and radius query scans it, the layout of faiss's flat
//! binary index.  (The
//! paper probes a hash table keyed by the codes; `eq_hashindex` keeps that
//! bucket table for the experiments, but no query here probes buckets.)
//! For external images the model produces a code on the fly
//! (query-by-new-example path).
//!
//! This is the CBIR half of the one query core (the crate's `catalog`
//! module): the service holds the state, the core ranks over it and
//! assembles the responses.

use std::collections::HashMap;
use std::sync::Arc;

use eq_hashindex::{BinaryCode, CodeArena};
use eq_milan::Milan;

/// The MiLaN-backed CBIR service: the trained model, the name→(id, code)
/// table and the code arena over the same codes.
#[derive(Debug)]
pub struct CbirService {
    /// Immutable once built, so the server hashes uploads and ingest
    /// batches through its own handle without taking the catalog lock.
    pub(crate) model: Arc<Milan>,
    /// The serving index: row *r* holds the code of dense patch id *r*,
    /// appended in dense-id order by [`insert`](Self::insert).
    pub(crate) arena: CodeArena,
    /// In-memory hash table: image patch name → dense id and binary code
    /// (§3.3).
    names: HashMap<String, (u64, BinaryCode)>,
}

impl CbirService {
    /// The service over a model, with no image yet and room for `images`.
    pub(crate) fn new(model: Milan, images: usize) -> Self {
        let arena = CodeArena::with_capacity(model.code_bits(), images);
        Self { model: Arc::new(model), arena, names: HashMap::with_capacity(images) }
    }

    /// Adds one image to the table and the arena, keeping the two in step.
    /// Callers insert in dense-id order, so `id` lands in row `id`.
    pub(crate) fn insert(&mut self, id: u64, name: &str, code: BinaryCode) {
        self.arena.push(id, &code);
        self.names.insert(name.to_string(), (id, code));
    }

    /// Number of indexed images.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether no image is indexed.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// The code width in bits.
    pub fn code_bits(&self) -> u32 {
        self.model.code_bits()
    }

    /// The stored binary code of an archive image.
    pub fn code_of(&self, name: &str) -> Option<&BinaryCode> {
        self.image(name).map(|(_, code)| code)
    }

    /// An archive image's dense id and stored code.
    pub(crate) fn image(&self, name: &str) -> Option<(u64, &BinaryCode)> {
        self.names.get(name).map(|(id, code)| (*id, code))
    }

    /// The underlying model (e.g. to hash external features directly).
    pub fn model(&self) -> &Milan {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use crate::catalog::Catalog;
    use crate::EarthQubeConfig;
    use eq_bigearthnet::{ArchiveGenerator, GeneratorConfig};
    use eq_milan::MilanConfig;

    #[test]
    fn build_indexes_every_archive_image() {
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(40, 31)).unwrap().generate();
        let mut config = EarthQubeConfig::fast(31);
        config.train_model = false;
        config.milan = MilanConfig::fast(32, 31);
        let svc = Catalog::build(&archive, &config).unwrap().cbir;
        assert_eq!(svc.len(), 40);
        assert!(!svc.is_empty());
        assert_eq!(svc.code_bits(), 32);
        for p in archive.patches() {
            assert_eq!(svc.code_of(&p.meta.name), Some(&svc.model().hash_patch(p)));
        }
        assert!(svc.code_of("nonexistent").is_none());
    }
}
