//! Secondary indexes: ordered attribute indexes, the geohash 2-D index, and
//! [`Indexes`], the set of them a collection keeps beside its documents.
//!
//! Every posting is a compressed [`Bitmap`] of document ids: per distinct
//! attribute value, per distinct *element* of array/string values (the
//! label codes) and per geohash cell.  The prefilter compiler
//! ([`crate::prefilter`]) — the store's one filter engine, behind
//! [`Collection::find`](crate::Collection::find) and the filtered
//! similarity searches alike — unions and intersects these to turn a
//! filter's indexable part into one candidate set without touching any
//! document.

use std::collections::BTreeMap;
use std::ops::Bound;

use eq_geo::{geohash, GeoShape, Point};
use eq_hashindex::Bitmap;

use crate::filter::point_from_field;
use crate::value::{Document, Value};
use crate::{DocId, StoreError};

/// A collection's indexes without its documents: the secondary attribute
/// indexes, the geo index and the bitmap of every document id, with the
/// store's one filter compiler ([`compile_prefilter`](Self::compile_prefilter)).
/// A [`Collection`](crate::Collection) holds one beside its documents; a
/// caller that keeps its rows typed elsewhere holds one alone, indexing
/// each document as it inserts it.  The *n*-th document inserted is id *n*.
#[derive(Debug, Clone, Default)]
pub struct Indexes {
    attributes: BTreeMap<String, AttributeIndex>,
    /// The geo index and the field it covers.
    geo: Option<(String, GeoIndex)>,
    /// Every document id, `0..len`: the candidates of a plan that compiled
    /// nothing.
    live: Bitmap,
}

impl Indexes {
    /// Indexes over no document, with no index declared.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed documents, which is the next document's id.
    pub fn len(&self) -> usize {
        self.live.len() as usize
    }

    /// Whether no document is indexed.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Declares a secondary index on a (dotted-path) attribute, indexing
    /// `docs`, the documents inserted so far in id order.
    pub fn create_attribute_index(&mut self, field: &str, docs: &[Document]) {
        self.attributes.insert(field.to_string(), AttributeIndex::new());
        self.post_all(docs);
    }

    /// Declares a geohash 2-D index on a point attribute (a `[lon, lat]`
    /// array field), indexing `docs`, the documents inserted so far in id
    /// order.
    ///
    /// # Errors
    /// Returns [`StoreError::BadIndex`] if a geo index already exists on a
    /// different field.
    pub fn create_geo_index(&mut self, field: &str, docs: &[Document]) -> Result<(), StoreError> {
        if let Some((existing, _)) = self.geo.as_ref().filter(|(existing, _)| existing != field) {
            return Err(StoreError::BadIndex(format!(
                "geo index already exists on field {existing}"
            )));
        }
        self.geo = Some((field.to_string(), GeoIndex::new(DEFAULT_GEOHASH_PRECISION)));
        self.post_all(docs);
        Ok(())
    }

    /// Indexes a document under the next id, and returns that id.
    pub fn insert(&mut self, doc: &Document) -> DocId {
        let id = self.live.len();
        self.post(id, doc);
        id
    }

    /// Posts `docs` again under their ids: a posting is a set insert, so
    /// only a newly declared index changes.
    fn post_all(&mut self, docs: &[Document]) {
        (0..).zip(docs).for_each(|(id, doc)| self.post(id, doc));
    }

    /// Posts document `id` into every index.
    fn post(&mut self, id: DocId, doc: &Document) {
        for (field, index) in &mut self.attributes {
            if let Some(v) = doc.get(field) {
                index.insert(v.clone(), id);
            }
        }
        if let Some((field, index)) = &mut self.geo {
            if let Some(p) = point_from_field(doc, field) {
                index.insert(id, p);
            }
        }
        self.live.insert(id);
    }

    /// The attribute index on a field, if one was declared.
    pub fn attribute_index(&self, field: &str) -> Option<&AttributeIndex> {
        self.attributes.get(field)
    }

    /// The fields carrying an attribute index, in name order.
    pub fn attribute_fields(&self) -> impl Iterator<Item = &str> {
        self.attributes.keys().map(String::as_str)
    }

    /// The geo index and the field it covers, if one was declared.
    pub fn geo_index(&self) -> Option<(&str, &GeoIndex)> {
        self.geo.as_ref().map(|(field, index)| (field.as_str(), index))
    }

    /// The bitmap of every document id.
    pub fn live_bitmap(&self) -> &Bitmap {
        &self.live
    }
}

/// An ordered secondary index over one (dotted-path) attribute.
///
/// Implemented as a B-tree from attribute value to the bitmap of documents
/// holding it, which supports lookups and ordered range unions, plus a
/// per-element B-tree over the distinct elements of `Array` values and the
/// characters of `Str` values (as one-character strings — the ASCII label
/// encoding), powering the `Contains*` operators.  Both are keyed by the
/// total [`Value`] order, under which `Int(2)` and `Float(2.0)` share a
/// key although `==` keeps them apart, so the compiler never looks up a
/// numeric through them.
#[derive(Debug, Clone, Default)]
pub struct AttributeIndex {
    entries: BTreeMap<Value, Bitmap>,
    elements: BTreeMap<Value, Bitmap>,
    len: usize,
}

impl AttributeIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed (value, document) postings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.entries.len()
    }

    /// Adds a posting.
    pub fn insert(&mut self, key: Value, doc: DocId) {
        for_each_element(&key, |element| {
            self.elements.entry(element).or_default().insert(doc);
        });
        if self.entries.entry(key).or_default().insert(doc) {
            self.len += 1;
        }
    }

    /// The bitmap of documents whose attribute equals `key` — equality
    /// under the index's total [`Ord`], which the prefilter compiler only
    /// trusts for values where that coincides with `==`.
    pub fn value_bitmap(&self, key: &Value) -> Option<&Bitmap> {
        self.entries.get(key)
    }

    /// The union bitmap of every posting whose key lies in the given
    /// bounds (the `Lt`/`Lte`/`Gt`/`Gte` compilation: both the evaluator's
    /// comparisons and the B-tree order are [`Value::cmp`], so the result
    /// is exact, and documents missing the field are absent on both
    /// sides).
    pub fn range_bitmap(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Bitmap {
        let mut out = Bitmap::new();
        for (_, bitmap) in self.entries.range((lo, hi)) {
            out = out.or(bitmap);
        }
        out
    }

    /// The bitmap of documents whose attribute *contains* `element`: an
    /// `Array` value with an equal element, or a `Str` value containing it
    /// as a character (`element` must then be a one-character string).
    pub fn element_bitmap(&self, element: &Value) -> Option<&Bitmap> {
        self.elements.get(element)
    }
}

/// Calls `visit` once per distinct *element* of an indexed value: the
/// elements of an `Array`, or the characters of a `Str` as one-character
/// strings (the ASCII label encoding).  Scalar values have no elements.
/// Duplicate elements may be visited twice; a bitmap insert is
/// idempotent, so multiplicity never matters here.
fn for_each_element(key: &Value, mut visit: impl FnMut(Value)) {
    match key {
        Value::Array(elements) => {
            for e in elements {
                visit(e.clone());
            }
        }
        Value::Str(s) => {
            for c in s.chars() {
                visit(Value::Str(c.to_string()));
            }
        }
        _ => {}
    }
}

/// Default geohash precision of the 2-D index: ~5 characters ≈ 5 km cells,
/// a good match for EarthQube's typical query extents.
pub const DEFAULT_GEOHASH_PRECISION: usize = 5;

/// A geohash-based 2-D index over a point attribute, mirroring MongoDB's
/// built-in geohashing index used by EarthQube (§3.2).
///
/// Points are encoded to geohash strings keying an ordered map of per-cell
/// document bitmaps; a shape query becomes a handful of prefix scans over
/// covering cells, followed by exact point-in-shape verification by the
/// caller.
#[derive(Debug, Clone)]
pub struct GeoIndex {
    precision: usize,
    /// Per-cell document bitmaps.  A cell's bitmap holds every document
    /// hashed into it *without* point verification, so unions over covering
    /// cells are supersets by construction.
    cells: BTreeMap<String, Bitmap>,
    len: usize,
}

impl Default for GeoIndex {
    fn default() -> Self {
        Self::new(DEFAULT_GEOHASH_PRECISION)
    }
}

impl GeoIndex {
    /// Creates an empty index with the given geohash precision (1..=12).
    ///
    /// # Panics
    /// Panics if the precision is out of range.
    pub fn new(precision: usize) -> Self {
        assert!(
            (1..=geohash::MAX_PRECISION).contains(&precision),
            "geohash precision {precision} out of range"
        );
        Self { precision, cells: BTreeMap::new(), len: 0 }
    }

    /// The geohash precision in use.
    pub fn precision(&self) -> usize {
        self.precision
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The cell a point hashes into.
    fn cell_of(&self, point: Point) -> String {
        // lint:allow(panic) `new` asserted the precision is in range, the only error `encode` has
        geohash::encode(point, self.precision).expect("valid precision")
    }

    /// Indexes a point.
    pub fn insert(&mut self, doc: DocId, point: Point) {
        let cell = self.cell_of(point);
        if self.cells.entry(cell).or_default().insert(doc) {
            self.len += 1;
        }
    }

    /// The union bitmap of every cell covering the query shape's bounding
    /// region — a **superset** of the documents inside the shape (cell
    /// membership is never point-verified), so a `GeoWithin` compiled
    /// through this bitmap always keeps the exact predicate in the
    /// residual filter.  A shape crossing the antimeridian covers with two
    /// boxes; both are unioned.
    ///
    /// Also returns the number of geohash cells inspected.
    pub fn bitmap_in_shape(&self, shape: &GeoShape) -> (Bitmap, usize) {
        let cover = shape.bounding_box();
        let mut ids: Vec<DocId> = Vec::new();
        let mut cells_scanned = 0usize;
        for piece in cover.boxes() {
            // lint:allow(panic) `new` asserted the precision is in range, the only error `cover_bbox` has
            let cells = geohash::cover_bbox(piece, self.precision, 512).expect("valid precision");
            cells_scanned += cells.len();
            for prefix in &cells {
                // All stored hashes with this prefix form a contiguous
                // range in the ordered map.
                let end = prefix_upper_bound(prefix);
                for (_, bm) in self.cells.range(prefix.clone()..end) {
                    ids.extend(bm.iter());
                }
            }
        }
        // One ascending bulk load: a union per cell would copy the growing
        // result once for each of up to 512 cells.
        ids.sort_unstable();
        (ids.into_iter().collect(), cells_scanned)
    }
}

/// The smallest string strictly greater than every string with the given
/// prefix (used to turn a prefix into a `BTreeMap` range bound).
fn prefix_upper_bound(prefix: &str) -> String {
    let mut end = prefix.to_string();
    // Geohash alphabet is ASCII; bumping the last character is always valid here.
    if let Some(last) = end.pop() {
        end.push(char::from(last as u8 + 1));
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_geo::BBox;

    fn ids(bitmap: &Bitmap) -> Vec<DocId> {
        bitmap.iter().collect()
    }

    #[test]
    fn attribute_index_value_and_range_bitmaps() {
        let mut idx = AttributeIndex::new();
        idx.insert(Value::Str("Portugal".into()), 1);
        idx.insert(Value::Str("Portugal".into()), 2);
        idx.insert(Value::Str("Austria".into()), 3);
        idx.insert(Value::Date(100), 4);
        idx.insert(Value::Date(200), 5);
        idx.insert(Value::Date(300), 6);

        assert_eq!(idx.len(), 6);
        assert_eq!(idx.distinct_keys(), 5);
        assert_eq!(idx.value_bitmap(&Value::Str("Portugal".into())).map(ids), Some(vec![1, 2]));
        assert!(idx.value_bitmap(&Value::Str("Serbia".into())).is_none());
        let range = idx
            .range_bitmap(Bound::Included(&Value::Date(100)), Bound::Included(&Value::Date(250)));
        assert_eq!(ids(&range), vec![4, 5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn geo_index_rejects_bad_precision() {
        let _ = GeoIndex::new(0);
    }

    #[test]
    fn geo_index_covers_points_in_bbox() {
        let mut idx = GeoIndex::new(5);
        // Points around Lisbon and Berlin.
        idx.insert(1, Point::new(-9.14, 38.72).unwrap());
        idx.insert(2, Point::new(-9.20, 38.70).unwrap());
        idx.insert(3, Point::new(13.40, 52.52).unwrap());
        assert_eq!(idx.len(), 3);

        let lisbon = GeoShape::Rect(BBox::new(-9.5, 38.5, -8.9, 38.9).unwrap());
        let (hits, cells) = idx.bitmap_in_shape(&lisbon);
        assert_eq!(ids(&hits), vec![1, 2]);
        assert!(cells >= 1);

        let berlin = GeoShape::Rect(BBox::new(13.0, 52.0, 14.0, 53.0).unwrap());
        assert_eq!(ids(&idx.bitmap_in_shape(&berlin).0), vec![3]);

        let atlantic = GeoShape::Rect(BBox::new(-40.0, 30.0, -30.0, 40.0).unwrap());
        assert!(idx.bitmap_in_shape(&atlantic).0.is_empty());
    }

    #[test]
    fn geo_index_default_precision_and_circle_query() {
        let mut idx = GeoIndex::default();
        assert_eq!(idx.precision(), DEFAULT_GEOHASH_PRECISION);
        let p = Point::new(10.0, 50.0).unwrap();
        idx.insert(8, p);
        let shape = GeoShape::Circle(eq_geo::Circle::new(p, 10.0).unwrap());
        assert_eq!(ids(&idx.bitmap_in_shape(&shape).0), vec![8]);
    }

    #[test]
    fn geo_index_covers_do_not_miss_boundary_points() {
        // Points near a cell boundary must still be found via covering cells.
        let mut idx = GeoIndex::new(5);
        let mut expected = Vec::new();
        for i in 0..50u64 {
            let lon = 12.0 + (i as f64) * 0.01;
            let lat = 51.0 + (i as f64) * 0.005;
            idx.insert(i, Point::new(lon, lat).unwrap());
            expected.push(i);
        }
        let bbox = GeoShape::Rect(BBox::new(11.9, 50.9, 12.6, 51.3).unwrap());
        assert_eq!(ids(&idx.bitmap_in_shape(&bbox).0), expected);
    }

    #[test]
    fn prefix_upper_bound_is_exclusive_end() {
        assert_eq!(prefix_upper_bound("u33"), "u34".to_string());
        assert!("u33zzz" < prefix_upper_bound("u33").as_str());
        assert!("u34" >= prefix_upper_bound("u33").as_str());
    }
}
