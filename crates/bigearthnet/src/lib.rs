//! Synthetic BigEarthNet-MM archive substrate.
//!
//! The paper's demo runs over the real BigEarthNet archive (Sumbul et al.
//! 2021): 590,326 pairs of Sentinel-1/Sentinel-2 image patches acquired over
//! 10 European countries between June 2017 and May 2018, each annotated with
//! CORINE Land Cover (CLC) 2018 Level-3 multi-labels.
//!
//! Shipping ~66 GB of imagery is impossible here, so this crate provides a
//! faithful *synthetic* stand-in (see ARCHITECTURE.md "Substitutions"):
//!
//! * the real 43-class CLC Level-3 nomenclature with its 3-level hierarchy
//!   ([`labels`]),
//! * the real band layout: 12 Sentinel-2 bands at three resolutions and the
//!   two Sentinel-1 polarisations ([`bands`]),
//! * the real country set and acquisition-time range ([`countries`],
//!   [`patch::Season`]),
//! * a deterministic patch generator whose pixel statistics are driven by
//!   per-label spectral signatures, so that semantic similarity is
//!   recoverable from the pixels ([`generator`]),
//! * an [`archive::Archive`] container with train/validation/test splits.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod archive;
pub mod bands;
pub mod countries;
pub mod generator;
pub mod labels;
pub mod patch;
pub mod signature;
pub mod wire;

pub use archive::{Archive, ArchiveStats, Split};
pub use bands::{Band, BandData, Polarization, Resolution, SENTINEL2_BANDS};
pub use countries::Country;
pub use generator::{ArchiveGenerator, GeneratorConfig};
pub use labels::{Label, LabelHierarchy, LabelSet, Level1, Level2};
pub use patch::{AcquisitionDate, Patch, PatchId, PatchMetadata, Season};
