//! Shared helpers for the Criterion benchmark harness.
//!
//! Every benchmark in `benches/` reproduces one experiment from
//! `EXPERIMENTS.md`; this crate hosts the common setup code (synthetic
//! archives, code generation, trained models) so that the individual bench
//! files stay focused on what they measure.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use eq_bigearthnet::{Archive, ArchiveGenerator, GeneratorConfig};
use eq_hashindex::BinaryCode;
use eq_milan::{Milan, MilanConfig, TrainingDataset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a small synthetic archive with pixel data (deterministic).
pub fn archive(num_patches: usize, seed: u64) -> Archive {
    ArchiveGenerator::new(GeneratorConfig::tiny(num_patches, seed))
        .expect("valid generator configuration")
        .generate()
}

/// Generates archive metadata only (no pixels), for metadata-scale benches.
pub fn metadata(num_patches: usize, seed: u64) -> Vec<eq_bigearthnet::PatchMetadata> {
    ArchiveGenerator::new(GeneratorConfig::tiny(num_patches, seed))
        .expect("valid generator configuration")
        .generate_metadata_only()
}

/// Trains a small MiLaN model on an archive (few epochs; the benches measure
/// inference/search, not training).
pub fn trained_model(archive: &Archive, code_bits: u32, seed: u64) -> Milan {
    let dataset = TrainingDataset::from_archive(archive);
    let mut model = Milan::new(MilanConfig {
        epochs: 12,
        triplets_per_epoch: 128,
        ..MilanConfig::fast(code_bits, seed)
    })
    .expect("valid model configuration");
    model.train(&dataset);
    model
}

/// Generates `n` synthetic binary codes of the given width whose pairwise
/// distances have cluster structure (items belong to one of `clusters`
/// centroids with a few random bit flips), mimicking the distribution of
/// learned hash codes without paying for model training at every archive
/// size of experiment E1.
pub fn clustered_codes(n: usize, bits: u32, clusters: usize, seed: u64) -> Vec<BinaryCode> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centroids: Vec<BinaryCode> = (0..clusters.max(1))
        .map(|_| {
            let bools: Vec<bool> = (0..bits).map(|_| rng.gen_bool(0.5)).collect();
            BinaryCode::from_bools(&bools)
        })
        .collect();
    (0..n)
        .map(|i| {
            let mut code = centroids[i % centroids.len()].clone();
            // Flip ~5 % of the bits.
            let flips = (bits as f64 * 0.05).ceil() as u32;
            for _ in 0..flips {
                let b = rng.gen_range(0..bits);
                code.set_bit(b, !code.bit(b));
            }
            code
        })
        .collect()
}

/// Generates `n` random float feature vectors of dimension `dim`.
pub fn random_features(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_codes_have_cluster_structure() {
        let codes = clustered_codes(200, 64, 8, 1);
        assert_eq!(codes.len(), 200);
        // Same-cluster items (stride `clusters`) are closer than different-cluster items on average.
        let same: u32 = (0..50).map(|i| codes[i].hamming_distance(&codes[i + 8])).sum();
        let diff: u32 = (0..50).map(|i| codes[i].hamming_distance(&codes[i + 1])).sum();
        assert!(same < diff);
    }

    #[test]
    fn helpers_are_deterministic() {
        assert_eq!(clustered_codes(10, 32, 4, 7), clustered_codes(10, 32, 4, 7));
        assert_eq!(random_features(5, 8, 3), random_features(5, 8, 3));
        assert_eq!(metadata(20, 9).len(), 20);
        assert_eq!(archive(5, 9).len(), 5);
    }
}
