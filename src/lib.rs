//! # AgoraEO / EarthQube — satellite image search (VLDB 2022 reproduction)
//!
//! This umbrella crate re-exports the workspace crates that together
//! reproduce *"Satellite Image Search in AgoraEO"* (Aksoy et al., PVLDB
//! 15(12), 2022):
//!
//! * [`bigearthnet`] — synthetic BigEarthNet-MM archive substrate,
//! * [`milan`] — the MiLaN metric-learning deep-hashing model,
//! * [`hashindex`] — Hamming hash-table index and search baselines,
//! * [`docstore`] — embedded document store (MongoDB substitute),
//! * [`earthqube`] — the EarthQube back-end (query panel, CBIR, statistics),
//! * [`agora`] — the AgoraEO asset registry,
//! * [`proto`] — the binary RPC protocol of the network serving tier,
//! * [`geo`], [`neural`], [`wire`] — supporting substrates.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use eq_agora as agora;
pub use eq_bigearthnet as bigearthnet;
pub use eq_docstore as docstore;
pub use eq_earthqube as earthqube;
pub use eq_geo as geo;
pub use eq_hashindex as hashindex;
pub use eq_milan as milan;
pub use eq_neural as neural;
pub use eq_proto as proto;
pub use eq_wire as wire;
