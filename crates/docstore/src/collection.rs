//! Collections: document storage, indexes and query execution.

use std::collections::BTreeMap;

use eq_hashindex::Bitmap;

use crate::filter::{point_from_field, Filter};
use crate::index::{AttributeIndex, GeoIndex, DEFAULT_GEOHASH_PRECISION};
use crate::value::{Document, Value};
use crate::{DocId, StoreError};

/// How a query was executed; returned alongside every result so that the
/// experiments (E4/E5) can verify which access path was taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// The indexes the candidate set was built from — `"pk"`, an attribute
    /// field name or the geo field; several joined with `+` in filter
    /// order — or `None` for a full collection scan.
    pub index_used: Option<String>,
    /// Number of candidate documents examined (the whole collection on a
    /// full scan).
    pub scanned: usize,
    /// Number of documents that matched the filter.
    pub matched: usize,
}

/// The result of a query: matching document ids (ascending, which is
/// insertion order) plus the execution plan.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Ids of the matching documents.
    pub ids: Vec<DocId>,
    /// How the query was executed.
    pub plan: QueryPlan,
}

/// Summary statistics of a collection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionStats {
    /// Number of stored documents.
    pub count: usize,
    /// Approximate total size in bytes.
    pub approximate_bytes: usize,
    /// Names of the secondary attribute indexes.
    pub attribute_indexes: Vec<String>,
    /// Whether a geospatial index exists and on which field.
    pub geo_index: Option<String>,
}

/// A collection of documents with a mandatory primary key, optional
/// secondary attribute indexes and an optional geohash 2-D index.
#[derive(Debug, Clone)]
pub struct Collection {
    name: String,
    primary_key: String,
    /// Document `id` is `docs[id]`: ids are dense, handed out in insertion
    /// order, and a document is never removed, so ascending id order is
    /// insertion order.
    docs: Vec<Document>,
    pk_index: BTreeMap<Value, DocId>,
    attr_indexes: BTreeMap<String, AttributeIndex>,
    /// The geo index and the field it covers.
    geo: Option<(String, GeoIndex)>,
    /// Bitmap of every document id, `0..len` — the universe the prefilter
    /// compiler negates against (`Ne`, `Not`), extended by every insert.
    live: Bitmap,
}

impl Collection {
    /// Creates an empty collection whose documents must carry the given
    /// primary-key field (EarthQube uses the image patch name, §3.2).
    pub fn new(name: &str, primary_key: &str) -> Self {
        Self {
            name: name.to_string(),
            primary_key: primary_key.to_string(),
            docs: Vec::new(),
            pk_index: BTreeMap::new(),
            attr_indexes: BTreeMap::new(),
            geo: None,
            live: Bitmap::new(),
        }
    }

    /// The collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The primary-key field.
    pub fn primary_key(&self) -> &str {
        &self.primary_key
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Declares a secondary index on a (dotted-path) attribute; existing
    /// documents are indexed immediately.
    pub fn create_attribute_index(&mut self, field: &str) {
        let mut index = AttributeIndex::new();
        for (id, doc) in self.iter() {
            if let Some(v) = doc.get(field) {
                index.insert(v.clone(), id);
            }
        }
        self.attr_indexes.insert(field.to_string(), index);
    }

    /// Declares a geohash 2-D index on a point attribute (a `[lon, lat]`
    /// array field); existing documents are indexed immediately.
    ///
    /// # Errors
    /// Returns [`StoreError::BadIndex`] if a geo index already exists on a
    /// different field.
    pub fn create_geo_index(&mut self, field: &str) -> Result<(), StoreError> {
        if let Some((existing, _)) = self.geo.as_ref().filter(|(existing, _)| existing != field) {
            return Err(StoreError::BadIndex(format!(
                "geo index already exists on field {existing}"
            )));
        }
        let mut index = GeoIndex::new(DEFAULT_GEOHASH_PRECISION);
        for (id, doc) in self.iter() {
            if let Some(p) = point_from_field(doc, field) {
                index.insert(id, p);
            }
        }
        self.geo = Some((field.to_string(), index));
        Ok(())
    }

    /// Whether an attribute index exists on the field.
    pub fn has_attribute_index(&self, field: &str) -> bool {
        self.attr_indexes.contains_key(field)
    }

    /// The attribute index on a field, if one was declared.
    pub fn attribute_index(&self, field: &str) -> Option<&AttributeIndex> {
        self.attr_indexes.get(field)
    }

    /// The geo index and the field it covers, if one was declared.
    pub fn geo_index(&self) -> Option<(&str, &GeoIndex)> {
        self.geo.as_ref().map(|(field, index)| (field.as_str(), index))
    }

    /// The bitmap of every document id — the universe against which
    /// the prefilter compiler evaluates `Ne` and `Not` (there is no
    /// unbounded complement on [`Bitmap`]).
    pub fn live_bitmap(&self) -> &Bitmap {
        &self.live
    }

    /// Inserts a document under the next id, [`next_id`](Self::next_id).
    ///
    /// # Errors
    /// Fails if the primary-key field is missing or already present.
    pub fn insert(&mut self, doc: Document) -> Result<DocId, StoreError> {
        let key = self.check_insert(&doc)?;
        let id = self.next_id();
        for (field, index) in self.attr_indexes.iter_mut() {
            if let Some(v) = doc.get(field) {
                index.insert(v.clone(), id);
            }
        }
        if let Some((field, index)) = self.geo.as_mut() {
            if let Some(p) = point_from_field(&doc, field) {
                index.insert(id, p);
            }
        }
        self.pk_index.insert(key, id);
        self.docs.push(doc);
        self.live.insert(id);
        Ok(id)
    }

    /// The primary key `doc` would be stored under, checked as
    /// [`insert`](Self::insert) checks it: so a write spanning several
    /// collections can be validated before it changes any of them.
    ///
    /// # Errors
    /// Fails if the primary-key field is missing or already present.
    pub fn check_insert(&self, doc: &Document) -> Result<Value, StoreError> {
        let key = doc
            .get(&self.primary_key)
            .cloned()
            .ok_or_else(|| StoreError::MissingPrimaryKey(self.primary_key.clone()))?;
        if self.pk_index.contains_key(&key) {
            return Err(StoreError::DuplicateKey(format!("{key:?}")));
        }
        Ok(key)
    }

    /// The id the next inserted document will receive: the number of
    /// documents, since ids are dense.
    pub fn next_id(&self) -> DocId {
        self.docs.len() as DocId
    }

    /// The document with the given internal id.
    pub fn get(&self, id: DocId) -> Option<&Document> {
        self.docs.get(usize::try_from(id).ok()?)
    }

    /// The document with the given primary-key value.
    pub fn get_by_key(&self, key: &Value) -> Option<&Document> {
        self.id_by_key(key).and_then(|id| self.get(id))
    }

    /// The internal id stored under a primary-key value (the key-index
    /// probe behind the prefilter compiler's `Eq`/`In` on the key field).
    pub(crate) fn id_by_key(&self, key: &Value) -> Option<DocId> {
        self.pk_index.get(key).copied()
    }

    /// Runs a query through the store's one filter engine:
    /// [`compile_prefilter`](Self::compile_prefilter) turns whatever the
    /// indexes (primary key, attribute, geo) can decide into a candidate
    /// bitmap, and the residual filter runs on the candidates in ascending
    /// id order — over every document only when nothing compiled.
    pub fn find(&self, filter: &Filter) -> QueryResult {
        let plan = self.compile_prefilter(filter);
        let ids: Vec<DocId> = plan.matching(self).map(|(id, _)| id).collect();
        let scanned = plan.cardinality().map_or(self.len(), |c| c as usize);
        let matched = ids.len();
        QueryResult { ids, plan: QueryPlan { index_used: plan.index_used, scanned, matched } }
    }

    /// Like [`find`](Self::find) but returns document references.
    pub fn find_docs(&self, filter: &Filter) -> Vec<&Document> {
        self.compile_prefilter(filter).matching(self).map(|(_, doc)| doc).collect()
    }

    /// Number of documents matching a filter.
    pub fn count(&self, filter: &Filter) -> usize {
        self.find(filter).plan.matched
    }

    /// Iterates over all documents in insertion order, which is ascending
    /// id order.
    pub fn iter(&self) -> impl Iterator<Item = (DocId, &Document)> {
        self.docs.iter().enumerate().map(|(id, doc)| (id as DocId, doc))
    }

    /// Collection statistics.
    pub fn stats(&self) -> CollectionStats {
        CollectionStats {
            count: self.docs.len(),
            approximate_bytes: self.docs.iter().map(Document::approximate_size).sum(),
            attribute_indexes: self.attr_indexes.keys().cloned().collect(),
            geo_index: self.geo.as_ref().map(|(field, _)| field.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_geo::{BBox, GeoShape};

    fn patch_doc(
        name: &str,
        country: &str,
        lon: f64,
        lat: f64,
        labels: &str,
        date: i64,
    ) -> Document {
        Document::new()
            .with("name", name)
            .with("country", country)
            .with("labels", labels)
            .with("date", Value::Date(date))
            .with("location", Value::Array(vec![Value::Float(lon), Value::Float(lat)]))
    }

    fn sample_collection() -> Collection {
        let mut c = Collection::new("metadata", "name");
        c.create_attribute_index("country");
        c.create_geo_index("location").unwrap();
        c.insert(patch_doc("p1", "Portugal", -8.5, 37.1, "AB", 100)).unwrap();
        c.insert(patch_doc("p2", "Portugal", -8.6, 37.2, "BC", 200)).unwrap();
        c.insert(patch_doc("p3", "Austria", 14.0, 47.5, "C", 300)).unwrap();
        c.insert(patch_doc("p4", "Finland", 25.0, 62.0, "AD", 400)).unwrap();
        c
    }

    #[test]
    fn insert_get_and_primary_key_constraints() {
        let mut c = sample_collection();
        assert_eq!(c.len(), 4);
        assert_eq!(c.name(), "metadata");
        assert_eq!(c.primary_key(), "name");
        assert!(c.get_by_key(&"p1".into()).is_some());
        assert!(c.get_by_key(&"nope".into()).is_none());
        // Duplicate key rejected.
        let err = c.insert(patch_doc("p1", "Serbia", 20.0, 44.0, "A", 1)).unwrap_err();
        assert!(matches!(err, StoreError::DuplicateKey(_)));
        // Missing key rejected.
        let err = c.insert(Document::new().with("country", "Serbia")).unwrap_err();
        assert!(matches!(err, StoreError::MissingPrimaryKey(_)));
    }

    #[test]
    fn get_by_internal_id_and_iteration_order() {
        let c = sample_collection();
        let names: Vec<&str> =
            c.iter().map(|(_, d)| d.get("name").unwrap().as_str().unwrap()).collect();
        assert_eq!(names, vec!["p1", "p2", "p3", "p4"]);
        let (first_id, _) = c.iter().next().unwrap();
        assert!(c.get(first_id).is_some());
        assert!(c.get(9999).is_none());
    }

    #[test]
    fn primary_key_lookup_uses_pk_index() {
        let c = sample_collection();
        let r = c.find(&Filter::Eq("name".into(), "p3".into()));
        assert_eq!(r.ids.len(), 1);
        assert_eq!(r.plan.index_used.as_deref(), Some("pk"));
        assert_eq!(r.plan.scanned, 1);
        // Missing key: zero scanned/matched, still the pk path.
        let r = c.find(&Filter::Eq("name".into(), "missing".into()));
        assert!(r.ids.is_empty());
        assert_eq!(r.plan.index_used.as_deref(), Some("pk"));
    }

    #[test]
    fn attribute_index_is_used_for_equality() {
        let c = sample_collection();
        let r = c.find(&Filter::Eq("country".into(), "Portugal".into()));
        assert_eq!(r.ids.len(), 2);
        assert_eq!(r.plan.index_used.as_deref(), Some("country"));
        assert_eq!(r.plan.scanned, 2); // only the posting list, not the whole collection
                                       // The same query without the index would scan everything.
        let mut no_index = Collection::new("metadata", "name");
        no_index.insert(patch_doc("p1", "Portugal", -8.5, 37.1, "AB", 100)).unwrap();
        no_index.insert(patch_doc("p3", "Austria", 14.0, 47.5, "C", 300)).unwrap();
        let r = no_index.find(&Filter::Eq("country".into(), "Portugal".into()));
        assert_eq!(r.plan.index_used, None);
        assert_eq!(r.plan.scanned, 2);
    }

    #[test]
    fn geo_index_drives_spatial_queries() {
        let c = sample_collection();
        let portugal_box = GeoShape::Rect(BBox::new(-9.5, 36.5, -6.0, 42.0).unwrap());
        let r = c.find(&Filter::GeoWithin("location".into(), portugal_box));
        assert_eq!(r.ids.len(), 2);
        assert_eq!(r.plan.index_used.as_deref(), Some("location"));
        assert!(r.plan.scanned <= 2, "geo index should prune non-candidates");
    }

    #[test]
    fn combined_geo_and_attribute_filter() {
        let c = sample_collection();
        let shape = GeoShape::Rect(BBox::new(-9.5, 36.5, 26.0, 63.0).unwrap());
        let f = Filter::GeoWithin("location".into(), shape)
            .and(Filter::ContainsAny("labels".into(), vec!["A".into()]));
        let r = c.find(&f);
        // p1 (labels AB) and p4 (labels AD) match; p2/p3 have no 'A'.
        assert_eq!(r.ids.len(), 2);
        // `labels` carries no index here: the geo cover alone bounds the
        // candidates (all four points) and the label test is residual.
        assert_eq!(r.plan.index_used.as_deref(), Some("location"));
        assert_eq!(r.plan.scanned, 4);
        // An indexed attribute narrows the same cover and is named after it.
        let r = c.find(&f.and(Filter::Eq("country".into(), "Portugal".into())));
        assert_eq!(r.ids, vec![0]);
        assert_eq!(r.plan.index_used.as_deref(), Some("location+country"));
        assert_eq!(r.plan.scanned, 2);
    }

    #[test]
    fn a_disjunction_with_an_unindexed_branch_is_a_full_scan() {
        let c = sample_collection();
        let f = Filter::Or(vec![
            Filter::Eq("country".into(), "Austria".into()),
            Filter::Eq("labels".into(), "AD".into()),
        ]);
        let r = c.find(&f);
        assert_eq!(r.ids, vec![2, 3]);
        assert_eq!(r.plan, QueryPlan { index_used: None, scanned: 4, matched: 2 });
        // Several values of the key are still point lookups.
        let r = c.find(&Filter::In("name".into(), vec!["p4".into(), "p2".into(), "nope".into()]));
        assert_eq!(r.ids, vec![1, 3]);
        assert_eq!(r.plan, QueryPlan { index_used: Some("pk".into()), scanned: 2, matched: 2 });
    }

    #[test]
    fn full_scan_fallback_and_count() {
        let c = sample_collection();
        let f = Filter::Gt("date".into(), Value::Date(150));
        let r = c.find(&f);
        assert_eq!(r.plan.index_used, None);
        assert_eq!(r.plan.scanned, 4);
        assert_eq!(r.ids.len(), 3);
        assert_eq!(c.count(&f), 3);
        assert_eq!(c.find_docs(&f).len(), 3);
    }

    #[test]
    fn late_index_creation_indexes_existing_documents() {
        let mut c = Collection::new("metadata", "name");
        c.insert(patch_doc("p1", "Portugal", -8.5, 37.1, "AB", 100)).unwrap();
        c.insert(patch_doc("p2", "Austria", 14.0, 47.5, "C", 300)).unwrap();
        c.create_attribute_index("country");
        c.create_geo_index("location").unwrap();
        assert!(c.has_attribute_index("country"));
        let r = c.find(&Filter::Eq("country".into(), "Austria".into()));
        assert_eq!(r.plan.index_used.as_deref(), Some("country"));
        assert_eq!(r.ids.len(), 1);
        // A second geo index on a different field is rejected.
        assert!(matches!(c.create_geo_index("other"), Err(StoreError::BadIndex(_))));
        // Re-creating on the same field is fine (rebuild).
        assert!(c.create_geo_index("location").is_ok());
    }

    #[test]
    fn stats_reflect_contents() {
        let c = sample_collection();
        let s = c.stats();
        assert_eq!(s.count, 4);
        assert!(s.approximate_bytes > 0);
        assert_eq!(s.attribute_indexes, vec!["country".to_string()]);
        assert_eq!(s.geo_index.as_deref(), Some("location"));
    }

    #[test]
    fn documents_without_indexed_fields_are_tolerated() {
        let mut c = Collection::new("misc", "key");
        c.create_attribute_index("country");
        c.create_geo_index("location").unwrap();
        c.insert(Document::new().with("key", "a")).unwrap();
        assert_eq!(c.len(), 1);
        let r = c.find(&Filter::All);
        assert_eq!(r.ids.len(), 1);
    }
}
