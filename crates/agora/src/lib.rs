//! A minimal AgoraEO asset registry.
//!
//! The paper positions EarthQube inside the larger AgoraEO vision (§1):
//! "an ecosystem where one can offer, discover, combine, and efficiently
//! execute EO-related assets, such as datasets, algorithms, and tools".
//! This crate provides that integration point at library scale: a thread-safe
//! registry where the other crates register themselves as assets (the
//! BigEarthNet dataset, the MiLaN model, the hash index, the EarthQube
//! search service) and where simple pipelines over assets can be recorded.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;

use parking_lot::RwLock;

/// The kinds of assets AgoraEO manages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AssetKind {
    /// A data archive (e.g. BigEarthNet).
    Dataset,
    /// A trained model (e.g. MiLaN).
    Model,
    /// A search index (e.g. the Hamming hash table).
    Index,
    /// A callable service (e.g. the EarthQube back-end).
    Service,
    /// A supporting tool (e.g. the RGB renderer).
    Tool,
}

impl AssetKind {
    /// Human-readable name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            AssetKind::Dataset => "dataset",
            AssetKind::Model => "model",
            AssetKind::Index => "index",
            AssetKind::Service => "service",
            AssetKind::Tool => "tool",
        }
    }
}

/// Metadata describing a registered asset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Asset {
    /// Unique asset name (registry key).
    pub name: String,
    /// Asset kind.
    pub kind: AssetKind,
    /// Human-readable description.
    pub description: String,
    /// Free-form discovery tags.
    pub tags: Vec<String>,
    /// The asset owner / providing party.
    pub provider: String,
}

/// A recorded composition of assets into an executable pipeline, e.g.
/// `bigearthnet → milan → hash-index → earthqube`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pipeline {
    /// Pipeline name.
    pub name: String,
    /// Ordered asset names; every stage must be registered.
    pub stages: Vec<String>,
}

/// Errors returned by the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AgoraError {
    /// An asset with the same name is already registered.
    Duplicate(String),
    /// A referenced asset is not registered.
    UnknownAsset(String),
    /// A pipeline referenced an empty stage list.
    EmptyPipeline,
}

impl std::fmt::Display for AgoraError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AgoraError::Duplicate(n) => write!(f, "asset already registered: {n}"),
            AgoraError::UnknownAsset(n) => write!(f, "unknown asset: {n}"),
            AgoraError::EmptyPipeline => write!(f, "a pipeline needs at least one stage"),
        }
    }
}

impl std::error::Error for AgoraError {}

/// A thread-safe asset registry.
#[derive(Debug, Default)]
pub struct AssetRegistry {
    inner: RwLock<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    assets: BTreeMap<String, Asset>,
    pipelines: BTreeMap<String, Pipeline>,
}

impl AssetRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an asset.
    ///
    /// # Errors
    /// Fails if an asset with the same name is already registered.
    pub fn offer(&self, asset: Asset) -> Result<(), AgoraError> {
        let mut inner = self.inner.write();
        if inner.assets.contains_key(&asset.name) {
            return Err(AgoraError::Duplicate(asset.name));
        }
        inner.assets.insert(asset.name.clone(), asset);
        Ok(())
    }

    /// Removes an asset, returning whether it existed.  Pipelines that
    /// reference it are removed as well.
    pub fn withdraw(&self, name: &str) -> bool {
        let mut inner = self.inner.write();
        let existed = inner.assets.remove(name).is_some();
        if existed {
            inner.pipelines.retain(|_, p| !p.stages.iter().any(|s| s == name));
        }
        existed
    }

    /// The asset with the given name.
    pub fn get(&self, name: &str) -> Option<Asset> {
        self.inner.read().assets.get(name).cloned()
    }

    /// Number of registered assets.
    pub fn len(&self) -> usize {
        self.inner.read().assets.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All assets of a given kind, sorted by name.
    pub fn discover_by_kind(&self, kind: AssetKind) -> Vec<Asset> {
        self.inner.read().assets.values().filter(|a| a.kind == kind).cloned().collect()
    }

    /// All assets carrying the given tag, sorted by name.
    pub fn discover_by_tag(&self, tag: &str) -> Vec<Asset> {
        self.inner
            .read()
            .assets
            .values()
            .filter(|a| a.tags.iter().any(|t| t == tag))
            .cloned()
            .collect()
    }

    /// Records a pipeline over registered assets.
    ///
    /// # Errors
    /// Fails if the stage list is empty or references unknown assets.
    pub fn compose(&self, name: &str, stages: Vec<String>) -> Result<(), AgoraError> {
        if stages.is_empty() {
            return Err(AgoraError::EmptyPipeline);
        }
        let mut inner = self.inner.write();
        for s in &stages {
            if !inner.assets.contains_key(s) {
                return Err(AgoraError::UnknownAsset(s.clone()));
            }
        }
        inner.pipelines.insert(name.to_string(), Pipeline { name: name.to_string(), stages });
        Ok(())
    }

    /// The recorded pipeline with the given name.
    pub fn pipeline(&self, name: &str) -> Option<Pipeline> {
        self.inner.read().pipelines.get(name).cloned()
    }

    /// Names of all recorded pipelines, sorted.
    pub fn pipeline_names(&self) -> Vec<String> {
        self.inner.read().pipelines.keys().cloned().collect()
    }
}

/// Convenience constructor for an asset.
pub fn asset(
    name: &str,
    kind: AssetKind,
    description: &str,
    provider: &str,
    tags: &[&str],
) -> Asset {
    Asset {
        name: name.to_string(),
        kind,
        description: description.to_string(),
        provider: provider.to_string(),
        tags: tags.iter().map(|t| t.to_string()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> AssetRegistry {
        let r = AssetRegistry::new();
        r.offer(asset(
            "bigearthnet",
            AssetKind::Dataset,
            "BigEarthNet-MM archive",
            "TU Berlin",
            &["eo", "sentinel"],
        ))
        .unwrap();
        r.offer(asset(
            "milan",
            AssetKind::Model,
            "Deep hashing network",
            "RSiM",
            &["hashing", "cbir"],
        ))
        .unwrap();
        r.offer(asset("hash-index", AssetKind::Index, "Hamming hash table", "DIMA", &["cbir"]))
            .unwrap();
        r.offer(asset("earthqube", AssetKind::Service, "Search engine", "DIMA", &["search", "eo"]))
            .unwrap();
        r
    }

    #[test]
    fn offer_get_and_duplicate_detection() {
        let r = sample_registry();
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert_eq!(r.get("milan").unwrap().kind, AssetKind::Model);
        assert!(r.get("unknown").is_none());
        let err = r.offer(asset("milan", AssetKind::Model, "dup", "x", &[])).unwrap_err();
        assert_eq!(err, AgoraError::Duplicate("milan".into()));
    }

    #[test]
    fn discovery_by_kind_and_tag() {
        let r = sample_registry();
        assert_eq!(r.discover_by_kind(AssetKind::Dataset).len(), 1);
        assert_eq!(r.discover_by_kind(AssetKind::Tool).len(), 0);
        let cbir = r.discover_by_tag("cbir");
        assert_eq!(cbir.len(), 2);
        assert!(cbir.iter().any(|a| a.name == "milan"));
        assert!(r.discover_by_tag("nonexistent").is_empty());
    }

    #[test]
    fn pipelines_require_known_assets() {
        let r = sample_registry();
        assert_eq!(r.compose("cbir", vec![]), Err(AgoraError::EmptyPipeline));
        assert_eq!(
            r.compose("cbir", vec!["bigearthnet".into(), "ghost".into()]),
            Err(AgoraError::UnknownAsset("ghost".into()))
        );
        r.compose(
            "cbir",
            vec!["bigearthnet".into(), "milan".into(), "hash-index".into(), "earthqube".into()],
        )
        .unwrap();
        assert_eq!(r.pipeline("cbir").unwrap().stages.len(), 4);
        assert_eq!(r.pipeline_names(), vec!["cbir".to_string()]);
        assert!(r.pipeline("nope").is_none());
    }

    #[test]
    fn withdraw_removes_asset_and_dependent_pipelines() {
        let r = sample_registry();
        r.compose("cbir", vec!["milan".into(), "hash-index".into()]).unwrap();
        assert!(r.withdraw("milan"));
        assert!(!r.withdraw("milan"));
        assert!(r.get("milan").is_none());
        assert!(r.pipeline("cbir").is_none(), "pipelines referencing withdrawn assets must go");
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn kind_names() {
        assert_eq!(AssetKind::Dataset.name(), "dataset");
        assert_eq!(AssetKind::Service.name(), "service");
    }

    #[test]
    fn registry_is_usable_across_threads() {
        let r = std::sync::Arc::new(sample_registry());
        let mut handles = Vec::new();
        for i in 0..4 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                r.offer(asset(&format!("tool-{i}"), AssetKind::Tool, "t", "p", &[])).unwrap();
                r.discover_by_kind(AssetKind::Tool).len()
            }));
        }
        for h in handles {
            assert!(h.join().unwrap() >= 1);
        }
        assert_eq!(r.discover_by_kind(AssetKind::Tool).len(), 4);
    }
}
