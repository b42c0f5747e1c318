//! A database: a named set of collections.

use std::collections::BTreeMap;

use crate::collection::Collection;
use crate::StoreError;

/// A named set of [`Collection`]s — the embedded equivalent of the MongoDB
/// database EarthQube connects to.
#[derive(Debug, Clone, Default)]
pub struct Database {
    collections: BTreeMap<String, Collection>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates (or returns the existing) collection with the given name and
    /// primary key.
    pub fn create_collection(&mut self, name: &str, primary_key: &str) -> &mut Collection {
        self.collections
            .entry(name.to_string())
            .or_insert_with(|| Collection::new(name, primary_key))
    }

    /// The collection with the given name.
    pub fn collection(&self, name: &str) -> Result<&Collection, StoreError> {
        self.collections.get(name).ok_or_else(|| StoreError::NoSuchCollection(name.to_string()))
    }

    /// Names of all collections, sorted.
    pub fn collection_names(&self) -> Vec<&str> {
        self.collections.keys().map(|s| s.as_str()).collect()
    }

    /// Number of collections.
    pub fn len(&self) -> usize {
        self.collections.len()
    }

    /// Whether the database has no collections.
    pub fn is_empty(&self) -> bool {
        self.collections.is_empty()
    }

    /// Iterates over the collections in name order.
    pub fn collections(&self) -> impl Iterator<Item = &Collection> {
        self.collections.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Document;

    #[test]
    fn create_and_access_collections() {
        let mut db = Database::new();
        assert!(db.is_empty());
        db.create_collection("metadata", "name");
        db.create_collection("feedback", "id");
        assert_eq!(db.len(), 2);
        assert_eq!(db.collection_names(), vec!["feedback", "metadata"]);
        assert!(db.collection("metadata").is_ok());
        assert!(db.collection("nope").is_err());
    }

    #[test]
    fn create_collection_is_idempotent_and_usable() {
        let mut db = Database::new();
        db.create_collection("metadata", "name")
            .insert(Document::new().with("name", "p1"))
            .unwrap();
        // Second create returns the same collection with its contents.
        let c = db.create_collection("metadata", "name");
        assert_eq!(c.len(), 1);
        assert_eq!(db.collection("metadata").unwrap().len(), 1);
    }
}
