//! An embedded document store — the MongoDB substitute of the EarthQube
//! data tier (§3.2 of the paper).
//!
//! EarthQube stores four collections in MongoDB: image metadata, raw image
//! data, rendered images and user feedback.  The metadata collection is
//! queried by geospatial extent (through MongoDB's built-in 2-D geohashing
//! index), by label codes, by acquisition date and by other attributes.
//! This crate provides the same capabilities as an embedded library:
//!
//! * [`Value`] / [`Document`] / [`Fields`] — a dynamically typed document
//!   model whose field lists are sorted, exactly sized vectors,
//! * [`Filter`] — a conjunction of comparison, membership, array and
//!   geospatial predicates, the class of filter EarthQube's query panel
//!   sends (no disjunction, no negation),
//! * [`Collection`] — insert-only storage under dense ids with a
//!   primary-key index, secondary B-tree attribute indexes and a
//!   geohash-based 2-D index, queried through one filter engine
//!   ([`prefilter`]) that compiles what the indexes can decide into a
//!   candidate bitmap and reports an execution plan (equality on numbers
//!   is left to the residual filter: the index order and `==` disagree
//!   on them),
//! * [`Database`] — a named set of collections,
//! * [`wire`] — the binary encoding of values and documents that the
//!   durable storage tier's records carry.
//!
//! EarthQube's archive only grows (§3.2): patches and feedback are
//! ingested, never deleted or replaced, so neither is a collection.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod collection;
pub mod database;
pub mod filter;
pub mod index;
pub mod prefilter;
pub mod value;
pub mod wire;

pub use collection::{Collection, CollectionStats, QueryPlan, QueryResult};
pub use database::Database;
pub use filter::Filter;
pub use index::{AttributeIndex, GeoIndex, Indexes};
pub use prefilter::PrefilterPlan;
pub use value::{Document, Fields, Value};
pub use wire::{decode_document, decode_value, encode_document, encode_value};

/// Internal identifier of a stored document.
pub type DocId = u64;

/// Errors returned by the document store.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// A document with the same primary key already exists.
    DuplicateKey(String),
    /// The referenced collection does not exist.
    NoSuchCollection(String),
    /// A document is missing the collection's primary-key field.
    MissingPrimaryKey(String),
    /// An index was requested on a field with unsupported contents.
    BadIndex(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::DuplicateKey(k) => write!(f, "duplicate primary key: {k}"),
            StoreError::NoSuchCollection(c) => write!(f, "no such collection: {c}"),
            StoreError::MissingPrimaryKey(field) => {
                write!(f, "document is missing primary key field {field}")
            }
            StoreError::BadIndex(msg) => write!(f, "bad index: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_meaningfully() {
        assert!(StoreError::DuplicateKey("a".into()).to_string().contains("duplicate"));
        assert!(StoreError::NoSuchCollection("c".into())
            .to_string()
            .contains("no such collection"));
        assert!(StoreError::MissingPrimaryKey("name".into()).to_string().contains("primary key"));
        assert!(StoreError::BadIndex("oops".into()).to_string().contains("bad index"));
    }
}
