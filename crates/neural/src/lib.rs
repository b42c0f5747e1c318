//! Minimal dense neural-network substrate.
//!
//! MiLaN (Roy et al. 2021, used in §2.2 of the paper) is a deep hashing
//! network trained with metric-learning losses.  Rather than binding to an
//! external deep-learning framework, this crate implements the small amount
//! of machinery the hashing head actually needs, from scratch:
//!
//! * [`Matrix`] — a row-major `f32` matrix with the usual BLAS-free
//!   operations,
//! * [`Dense`] + [`Activation`] — fully connected layers with ReLU / Tanh /
//!   identity activations and manual backpropagation,
//! * [`Mlp`] — a sequential multi-layer perceptron,
//! * [`Adam`] and [`Sgd`] — optimisers with gradient clipping.
//!
//! The implementation favours clarity and determinism (seeded
//! initialisation) over raw speed; the matrices involved in the experiments
//! are small (feature dimension ≤ 256, batch size ≤ 256).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod layers;
pub mod matrix;
pub mod network;
pub mod optimizer;

pub use layers::{Activation, Dense};
pub use matrix::Matrix;
pub use network::{Mlp, MlpConfig};
pub use optimizer::{Adam, Optimizer, Sgd};
