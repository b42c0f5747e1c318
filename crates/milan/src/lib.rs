//! MiLaN: metric-learning based deep hashing for content-based retrieval of
//! remote-sensing images.
//!
//! This crate implements the paper's core technology (§2.2): a deep hashing
//! network that "simultaneously learns (i) a semantic-based metric space for
//! effective feature representation and (ii) compact binary hash codes for
//! scalable search", trained with three losses:
//!
//! 1. the **triplet loss**, pulling images that share labels together and
//!    pushing images with disjoint labels apart ([`loss::triplet_loss`]),
//! 2. the **bit-balance loss**, forcing every bit to be active ~50 % of the
//!    time and the bits to be mutually independent ([`loss::bit_balance_loss`]),
//! 3. the **quantization loss**, keeping network outputs close to ±1 so that
//!    binarisation loses little information ([`loss::quantization_loss`]).
//!
//! The learned codes are consumed by the `eq-hashindex` crate (hash-table
//! lookups within a small Hamming radius) and by the EarthQube CBIR service.
//!
//! The convolutional backbone of the original MiLaN is replaced by the
//! hand-crafted spectral/texture descriptor in [`features`] (see ARCHITECTURE.md,
//! "Substitutions"); the hashing head and its losses are faithful.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dataset;
pub mod features;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod normalizer;
pub mod persist;

pub use dataset::TrainingDataset;
pub use features::{FeatureExtractor, FEATURE_DIM};
pub use loss::{LossWeights, MilanLoss};
pub use metrics::{
    average_precision, mean_average_precision, precision_at_k, recall_at_k, CodeStatistics,
};
pub use model::{Milan, MilanConfig, TrainingReport};
pub use normalizer::Normalizer;
