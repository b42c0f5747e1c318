//! The store's one filter engine: compiling a filter's indexable prefix
//! into one candidate bitmap, then resolving it.
//!
//! Every query — [`Collection::find`] behind the query panel as much as a
//! bitmap-prefiltered similarity search — wants to know, *before* touching
//! any document or code, which documents can possibly match a filter.  The
//! compiler walks the [`Filter`] AST against an [`Indexes`] value (the
//! posting bitmaps of attribute values, array/label elements and geohash
//! cells — see [`crate::index`]), plus, in a [`Collection`], its
//! primary-key map, and produces a [`PrefilterPlan`]: an optional candidate
//! [`Bitmap`] plus the **residual** filter that must still be evaluated on
//! the surviving documents, which [`PrefilterPlan::matching`] does in
//! ascending id order.  An [`Indexes`] held without its documents compiles
//! the same plan; its owner evaluates the residual on rows of its own.
//!
//! The contract, pinned by the property suite in
//! `tests/proptest_prefilter.rs`, is:
//!
//! ```text
//! filter.matches(doc)  ==  plan.bitmap.map_or(true, |b| b.contains(id))
//!                          && plan.residual.matches(doc)
//! ```
//!
//! for every live document.  A filter is a conjunction (`And`) of leaves,
//! and each leaf compiles in one of three ways:
//!
//! * **Exact** (residual contribution `All`): `Eq`, `In`,
//!   `Lt`/`Lte`/`Gt`/`Gte`, `ContainsAll` and `ContainsAny` on an indexed
//!   field, and `Eq`/`In` on a collection's primary key (an at-most-one-id
//!   bitmap per value straight from the key map, so a point lookup stays
//!   O(log n)).
//! * **Superset** (the leaf stays in the residual): `ContainsExactly`
//!   (element postings bound membership but not multiset equality) and
//!   `GeoWithin` (covering cells are never point-verified).
//! * **Uncompiled** (`bitmap: None`, the leaf stays in the residual):
//!   anything on an unindexed field, equality or containment of a value
//!   holding a number, and an empty `ContainsAll`/`ContainsExactly` list
//!   (no element posting to start from).
//!
//! `And` intersects the bitmaps of the conjuncts that compiled and keeps
//! the other residuals.
//!
//! Numerics are left to the residual because the evaluator's `Eq`/`In`/
//! `Contains*` use `==` (`PartialEq`), while posting lookup uses the index
//! B-tree's total [`Value`] order, and the two disagree on numbers
//! (`Int(2)` Ord-equals `Float(2.0)`; `0.0`/`-0.0` split the other way;
//! `NaN` equals nothing).  No field EarthQube indexes holds a number.  The
//! comparison operators are unaffected: both the evaluator and the B-tree
//! use [`Value::cmp`], so ranges are exact for every type straight off the
//! ordered map.

use std::ops::Bound::{self, Excluded, Included, Unbounded};

use eq_hashindex::Bitmap;

use crate::collection::Collection;
use crate::filter::Filter;
use crate::index::{AttributeIndex, Indexes};
use crate::value::{Document, Value};
use crate::DocId;

/// The result of compiling a filter against a collection's posting
/// bitmaps: an optional candidate set plus the filter that must still run
/// on the candidates.
#[derive(Debug, Clone)]
pub struct PrefilterPlan {
    /// Every possibly-matching document — `None` when nothing in the
    /// filter is indexable (resolving the plan is then a full scan).
    pub bitmap: Option<Bitmap>,
    /// The part of the filter the bitmap does not decide; [`Filter::All`]
    /// when the bitmap alone is exact.
    pub residual: Filter,
    /// The indexes the bitmap was built from, in filter order joined with
    /// `+` (`"pk"` for the primary key, else the field name); `None`
    /// exactly when `bitmap` is.
    pub(crate) index_used: Option<String>,
}

impl PrefilterPlan {
    /// Whether the bitmap alone decides the filter (no residual work).
    pub fn is_exact(&self) -> bool {
        self.bitmap.is_some() && self.residual == Filter::All
    }

    /// Candidate-set cardinality, if a bitmap was compiled.
    pub fn cardinality(&self) -> Option<u64> {
        self.bitmap.as_ref().map(Bitmap::len)
    }

    /// The indexes the bitmap was built from, as
    /// [`QueryPlan::index_used`](crate::QueryPlan::index_used) names them;
    /// `None` exactly when nothing compiled.
    pub fn index_used(&self) -> Option<&str> {
        self.index_used.as_deref()
    }

    /// Resolves the plan against the collection it was compiled for: walks
    /// the candidates (every live document when nothing compiled) in
    /// ascending id order and yields those the residual accepts — exactly
    /// the documents matching the compiled filter.
    pub fn matching<'a, 'c: 'a>(
        &'a self,
        coll: &'c Collection,
    ) -> impl Iterator<Item = (DocId, &'c Document)> + 'a {
        let candidates = self.bitmap.as_ref().unwrap_or(coll.live_bitmap());
        candidates
            .iter()
            .filter_map(|id| Some((id, coll.get(id)?)))
            .filter(|(_, doc)| self.residual.matches(doc))
    }
}

impl Indexes {
    /// Compiles a filter's indexable prefix into a candidate bitmap; see
    /// the [module docs](self) for the exactness contract.  Indexes alone
    /// hold no primary-key map, so an `Eq`/`In` on the key field compiles
    /// like one on any other field.
    pub fn compile_prefilter(&self, filter: &Filter) -> PrefilterPlan {
        plan(Sources { indexes: self, keys: None }, filter)
    }
}

impl Collection {
    /// Compiles a filter's indexable prefix into a candidate bitmap, with
    /// the primary-key map as one more index; see the [module docs](self)
    /// for the exactness contract.
    pub fn compile_prefilter(&self, filter: &Filter) -> PrefilterPlan {
        plan(Sources { indexes: self.indexes(), keys: Some(self) }, filter)
    }
}

/// What a filter compiles against: a set of indexes, and the collection
/// whose primary-key map can answer key equality, when there is one.
#[derive(Clone, Copy)]
struct Sources<'c> {
    indexes: &'c Indexes,
    keys: Option<&'c Collection>,
}

/// The one compiler's entry: the plan of `filter` over `s`.
fn plan(s: Sources<'_>, filter: &Filter) -> PrefilterPlan {
    let mut used = Vec::new();
    let (bitmap, residual) = compile(s, filter, &mut used);
    let index_used = bitmap.is_some().then(|| used.join("+"));
    PrefilterPlan { bitmap, residual, index_used }
}

/// Recursive compilation: returns `(bitmap, residual)` satisfying the
/// module-level invariant for this sub-filter, and appends to `used` the
/// indexes the bitmap was built from (nothing when there is no bitmap).
fn compile<'f>(
    s: Sources<'_>,
    filter: &'f Filter,
    used: &mut Vec<&'f str>,
) -> (Option<Bitmap>, Filter) {
    let mark = used.len();
    let compiled = compile_node(s, filter, used);
    if compiled.0.is_none() {
        used.truncate(mark);
    }
    compiled
}

/// Records an index as consulted, once.
fn note<'f>(used: &mut Vec<&'f str>, index: &'f str) {
    if !used.contains(&index) {
        used.push(index);
    }
}

/// The attribute index on `field`, recorded in `used` when there is one.
fn consult<'c, 'f>(
    s: Sources<'c>,
    field: &'f str,
    used: &mut Vec<&'f str>,
) -> Option<&'c AttributeIndex> {
    let idx = s.indexes.attribute_index(field)?;
    note(used, field);
    Some(idx)
}

fn compile_node<'f>(
    s: Sources<'_>,
    filter: &'f Filter,
    used: &mut Vec<&'f str>,
) -> (Option<Bitmap>, Filter) {
    match filter {
        Filter::All => (None, Filter::All),

        Filter::Eq(field, v) => equality_leaf(s, field, std::slice::from_ref(v), filter, used),
        Filter::In(field, values) => equality_leaf(s, field, values, filter, used),

        Filter::Lt(field, v) => range_leaf(s, field, Unbounded, Excluded(v), filter, used),
        Filter::Lte(field, v) => range_leaf(s, field, Unbounded, Included(v), filter, used),
        Filter::Gt(field, v) => range_leaf(s, field, Excluded(v), Unbounded, filter, used),
        Filter::Gte(field, v) => range_leaf(s, field, Included(v), Unbounded, filter, used),

        Filter::ContainsAll(field, values) | Filter::ContainsExactly(field, values) => {
            let Some(idx) = consult(s, field, used) else {
                return uncompiled(filter);
            };
            let mut out: Option<Bitmap> = None;
            for v in values {
                let Some(bm) = exact_element_bitmap(idx, v) else {
                    return uncompiled(filter);
                };
                out = Some(match out {
                    Some(acc) => acc.and(&bm),
                    None => bm,
                });
            }
            // The vacuous `[]` has no posting to intersect: uncompiled.
            let Some(out) = out else {
                return uncompiled(filter);
            };
            // Element postings decide containment, but never the multiset
            // equality `ContainsExactly` also asks for: that leaf is a
            // superset and stays in the residual.
            let exact = matches!(filter, Filter::ContainsAll(..));
            (Some(out), if exact { Filter::All } else { filter.clone() })
        }

        Filter::ContainsAny(field, values) => match consult(s, field, used) {
            // `any` over an empty list is false: the empty bitmap is exact.
            Some(idx) => {
                let mut out = Bitmap::new();
                for v in values {
                    let Some(bm) = exact_element_bitmap(idx, v) else {
                        return uncompiled(filter);
                    };
                    out = out.or(&bm);
                }
                (Some(out), Filter::All)
            }
            None => uncompiled(filter),
        },

        Filter::GeoWithin(field, shape) => match s.indexes.geo_index() {
            Some((geo_field, idx)) if geo_field == field => {
                let (bm, _cells) = idx.bitmap_in_shape(shape);
                note(used, field);
                // Covering cells are a superset: exact point-in-shape
                // verification stays in the residual.
                (Some(bm), filter.clone())
            }
            _ => uncompiled(filter),
        },

        Filter::And(fs) => {
            let mut bitmap: Option<Bitmap> = None;
            let mut residuals = Vec::new();
            for f in fs {
                let (b, r) = compile(s, f, used);
                if let Some(b) = b {
                    bitmap = Some(match bitmap {
                        Some(acc) => acc.and(&b),
                        None => b,
                    });
                }
                if r != Filter::All {
                    residuals.push(r);
                }
            }
            let residual = match residuals.len() {
                0 => Filter::All,
                1 => residuals.swap_remove(0),
                _ => Filter::And(residuals),
            };
            (bitmap, residual)
        }
    }
}

/// A leaf that compiles to nothing: no bitmap, itself as the residual.
fn uncompiled(filter: &Filter) -> (Option<Bitmap>, Filter) {
    (None, filter.clone())
}

/// Shared compilation of the four comparison operators.
fn range_leaf<'f>(
    s: Sources<'_>,
    field: &'f str,
    lo: Bound<&Value>,
    hi: Bound<&Value>,
    filter: &Filter,
    used: &mut Vec<&'f str>,
) -> (Option<Bitmap>, Filter) {
    match consult(s, field, used) {
        Some(idx) => (Some(idx.range_bitmap(lo, hi)), Filter::All),
        None => uncompiled(filter),
    }
}

/// Shared compilation of `Eq` (one value) and `In` (any of several): the
/// union of the values' exact equality bitmaps.  On the primary-key field
/// that is one key-index probe per value — a point lookup never touches a
/// posting — for values whose key order agrees with `==` (see
/// [`ord_eq_safe`]); any other field needs an attribute index.
fn equality_leaf<'f>(
    s: Sources<'_>,
    field: &'f str,
    values: &[Value],
    filter: &Filter,
    used: &mut Vec<&'f str>,
) -> (Option<Bitmap>, Filter) {
    let mut out = Bitmap::new();
    let keys = s.keys.filter(|c| field == c.primary_key() && values.iter().all(ord_eq_safe));
    if let Some(c) = keys {
        out.extend(values.iter().filter_map(|v| c.id_by_key(v)));
        note(used, "pk");
    } else if let Some(idx) = consult(s, field, used) {
        for v in values {
            let Some(bm) = exact_value_bitmap(idx, v) else {
                return uncompiled(filter);
            };
            out = out.or(&bm);
        }
    } else {
        return uncompiled(filter);
    }
    (Some(out), Filter::All)
}

/// The exact `==` equality bitmap for one query value, when the ordered
/// posting map can supply one (see [`ord_eq_safe`]); `None` leaves the
/// leaf uncompiled.
fn exact_value_bitmap(idx: &AttributeIndex, v: &Value) -> Option<Bitmap> {
    ord_eq_safe(v).then(|| idx.value_bitmap(v).cloned().unwrap_or_default())
}

/// [`exact_value_bitmap`]'s counterpart for the `Contains*` family:
/// documents whose indexed value *contains* an element `==` to `v`.
fn exact_element_bitmap(idx: &AttributeIndex, v: &Value) -> Option<Bitmap> {
    ord_eq_safe(v).then(|| idx.element_bitmap(v).cloned().unwrap_or_default())
}

/// Whether `==` and the index order's equality coincide for this value:
/// `Int`/`Float` anywhere inside breaks the correspondence (`Int(2)`
/// Ord-equals `Float(2.0)` but `!=` it; `NaN`/`±0.0` split the other
/// way), so such values cannot drive an exact equality bitmap and their
/// leaf stays in the residual.
fn ord_eq_safe(v: &Value) -> bool {
    match v {
        Value::Int(_) | Value::Float(_) => false,
        Value::Array(elements) => elements.iter().all(ord_eq_safe),
        Value::Doc(doc) => doc.iter().all(|(_, inner)| ord_eq_safe(inner)),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::QueryPlan;
    use crate::value::Document;
    use eq_geo::{BBox, GeoShape};

    fn labelled(name: &str, country: &str, labels: &str, date: i64) -> Document {
        Document::new()
            .with("name", name)
            .with("country", country)
            .with("labels", labels)
            .with("date", Value::Date(date))
            .with(
                "location",
                Value::Array(vec![Value::Float(14.0 + date as f64 * 0.001), Value::Float(47.5)]),
            )
    }

    fn sample() -> Collection {
        let mut c = Collection::new("metadata", "name");
        c.create_attribute_index("country");
        c.create_attribute_index("labels");
        c.create_attribute_index("date");
        c.create_geo_index("location").unwrap();
        c.insert(labelled("p0", "Austria", "AB", 100)).unwrap();
        c.insert(labelled("p1", "Austria", "BC", 200)).unwrap();
        c.insert(labelled("p2", "Portugal", "A", 300)).unwrap();
        c.insert(labelled("p3", "Portugal", "CD", 400)).unwrap();
        c.insert(labelled("p4", "Finland", "AAB", 500)).unwrap();
        c
    }

    /// The module-level invariant, checked exhaustively over a collection.
    fn assert_invariant(c: &Collection, filter: &Filter) {
        let plan = c.compile_prefilter(filter);
        for (id, doc) in c.iter() {
            let in_bitmap = plan.bitmap.as_ref().is_none_or(|b| b.contains(id));
            let residual_ok = plan.residual.matches(doc);
            assert_eq!(
                filter.matches(doc),
                in_bitmap && residual_ok,
                "invariant broken for doc {id} under {filter:?} (plan {plan:?})"
            );
        }
    }

    #[test]
    fn eq_and_in_compile_exactly() {
        let c = sample();
        for f in [
            Filter::Eq("country".into(), "Austria".into()),
            Filter::Eq("country".into(), "Nowhere".into()),
            Filter::In("country".into(), vec!["Austria".into(), "Finland".into()]),
            Filter::In("country".into(), vec![]),
        ] {
            let plan = c.compile_prefilter(&f);
            assert!(plan.is_exact(), "{f:?} should compile exactly, got {plan:?}");
            assert_invariant(&c, &f);
        }
        // Cardinalities drive the planner.
        let plan = c.compile_prefilter(&Filter::Eq("country".into(), "Austria".into()));
        assert_eq!(plan.cardinality(), Some(2));
    }

    /// Indexes held without their documents, inserted into one document
    /// at a time, compile every filter to the plan the collection compiles,
    /// except that the key field has no key map there.
    #[test]
    fn indexes_alone_compile_the_collection_s_plans() {
        let c = sample();
        let mut alone = Indexes::new();
        for field in ["country", "labels", "date"] {
            alone.create_attribute_index(field, &[]);
        }
        alone.create_geo_index("location", &[]).unwrap();
        for (id, doc) in c.iter() {
            assert_eq!(alone.insert(doc), id);
        }
        let shape = GeoShape::Rect(BBox::new(13.9, 47.0, 14.25, 48.0).unwrap());
        for f in [
            Filter::All,
            Filter::Eq("country".into(), "Austria".into()),
            Filter::ContainsExactly("labels".into(), vec!["A".into(), "B".into()])
                .and(Filter::Gte("date".into(), Value::Date(200))),
            Filter::GeoWithin("location".into(), shape),
        ] {
            let (plan, kept) = (c.compile_prefilter(&f), alone.compile_prefilter(&f));
            assert_eq!((plan.bitmap, plan.residual), (kept.bitmap, kept.residual), "{f:?}");
            assert_eq!(plan.index_used, kept.index_used);
        }
        assert_eq!(alone.live_bitmap(), c.live_bitmap());
        let key = Filter::Eq("name".into(), "p3".into());
        let kept = alone.compile_prefilter(&key);
        assert_eq!((kept.bitmap, kept.residual), (None, key));
    }

    #[test]
    fn primary_key_equality_compiles_to_point_lookups() {
        let c = sample();
        for (f, hits) in [
            (Filter::Eq("name".into(), "p3".into()), 1),
            (Filter::Eq("name".into(), "ghost".into()), 0),
            (Filter::In("name".into(), vec!["p0".into(), "ghost".into(), "p4".into()]), 2),
        ] {
            let plan = c.compile_prefilter(&f);
            assert!(plan.is_exact(), "{f:?} should compile exactly, got {plan:?}");
            assert_eq!(plan.cardinality(), Some(hits));
            assert_eq!(plan.index_used.as_deref(), Some("pk"));
            assert_invariant(&c, &f);
        }
        // Numeric keys order apart from how they compare (`0.0 == -0.0`), so
        // they are left to the evaluator.
        let mut numbered = Collection::new("t", "n");
        numbered.insert(Document::new().with("n", Value::Float(-0.0))).unwrap();
        let f = Filter::Eq("n".into(), Value::Float(0.0));
        assert!(numbered.compile_prefilter(&f).bitmap.is_none());
        assert_eq!(numbered.find(&f).ids, vec![0]);
    }

    #[test]
    fn the_plan_names_the_indexes_its_bitmap_came_from() {
        let c = sample();
        let shape = GeoShape::Rect(BBox::new(13.9, 47.0, 14.25, 48.0).unwrap());
        let dated = Filter::Gte("date".into(), Value::Date(100))
            .and(Filter::GeoWithin("location".into(), shape))
            .and(Filter::Lte("date".into(), Value::Date(300)));
        assert_eq!(c.compile_prefilter(&dated).index_used.as_deref(), Some("date+location"));
        // A leaf that consults an index but compiles to nothing takes the
        // index with it …
        let numeric = Filter::Eq("country".into(), Value::Int(2));
        assert_eq!(c.compile_prefilter(&numeric).index_used, None);
        // … also from inside a conjunction that still has a bitmap.
        let both = Filter::ContainsAny("labels".into(), vec!["A".into()]).and(numeric);
        assert_eq!(c.compile_prefilter(&both).index_used.as_deref(), Some("labels"));
    }

    #[test]
    fn ranges_compile_exactly_for_any_value_type() {
        let c = sample();
        for f in [
            Filter::Lt("date".into(), Value::Date(300)),
            Filter::Lte("date".into(), Value::Date(300)),
            Filter::Gt("date".into(), Value::Date(300)),
            Filter::Gte("date".into(), Value::Date(300)),
        ] {
            let plan = c.compile_prefilter(&f);
            assert!(plan.is_exact(), "{f:?} should compile exactly");
            assert_invariant(&c, &f);
        }
        let lt = c.compile_prefilter(&Filter::Lt("date".into(), Value::Date(300)));
        assert_eq!(lt.cardinality(), Some(2));
    }

    #[test]
    fn label_contains_operators_use_element_postings() {
        let c = sample();
        // ContainsAny/All are exact through element postings.
        let any = c
            .compile_prefilter(&Filter::ContainsAny("labels".into(), vec!["A".into(), "D".into()]));
        assert!(any.is_exact());
        assert_eq!(any.cardinality(), Some(4)); // p0, p2, p3, p4
        let all = c
            .compile_prefilter(&Filter::ContainsAll("labels".into(), vec!["A".into(), "B".into()]));
        assert!(all.is_exact());
        assert_eq!(all.cardinality(), Some(2)); // p0, p4
                                                // ContainsExactly is a superset: the leaf survives in the residual.
        let exactly = c.compile_prefilter(&Filter::ContainsExactly(
            "labels".into(),
            vec!["A".into(), "B".into()],
        ));
        assert!(!exactly.is_exact());
        assert_eq!(exactly.cardinality(), Some(2), "p0 (AB) and p4 (AAB) both survive the bitmap");
        // An empty list has no element posting to intersect.
        for f in [
            Filter::ContainsAll("labels".into(), vec![]),
            Filter::ContainsExactly("labels".into(), vec![]),
        ] {
            let plan = c.compile_prefilter(&f);
            assert!(plan.bitmap.is_none(), "{f:?} must stay uncompiled, got {plan:?}");
            assert_eq!(plan.residual, f);
        }
        for f in [
            Filter::ContainsAny("labels".into(), vec!["A".into(), "D".into()]),
            Filter::ContainsAny("labels".into(), vec![]),
            Filter::ContainsAll("labels".into(), vec!["A".into(), "B".into()]),
            Filter::ContainsAll("labels".into(), vec![]),
            Filter::ContainsExactly("labels".into(), vec!["A".into(), "B".into()]),
            Filter::ContainsExactly("labels".into(), vec![]),
        ] {
            assert_invariant(&c, &f);
        }
    }

    #[test]
    fn geo_within_is_a_superset_with_residual_verification() {
        let c = sample();
        let shape = GeoShape::Rect(BBox::new(13.9, 47.0, 14.25, 48.0).unwrap());
        let f = Filter::GeoWithin("location".into(), shape);
        let plan = c.compile_prefilter(&f);
        assert!(plan.bitmap.is_some(), "geo leaf should produce a cell-cover bitmap");
        assert_eq!(plan.residual, f, "geo verification must stay in the residual");
        assert_invariant(&c, &f);
    }

    #[test]
    fn and_intersects_what_compiled_and_keeps_the_rest() {
        let c = sample();
        let f = Filter::Eq("country".into(), "Austria".into())
            .and(Filter::ContainsAny("labels".into(), vec!["B".into()]));
        let plan = c.compile_prefilter(&f);
        assert!(plan.is_exact());
        assert_eq!(plan.cardinality(), Some(2)); // p0, p1
        assert_invariant(&c, &f);

        // A superset leaf keeps itself in the residual over the
        // intersection …
        let shape = GeoShape::Rect(BBox::new(13.9, 47.0, 14.25, 48.0).unwrap());
        let geo = Filter::GeoWithin("location".into(), shape);
        let f = Filter::Eq("country".into(), "Austria".into()).and(geo.clone());
        let plan = c.compile_prefilter(&f);
        assert!(plan.bitmap.is_some());
        assert_eq!(plan.residual, geo);
        assert_invariant(&c, &f);

        // … and an uncompiled leaf adds no bitmap, only its residual.
        let unindexed = Filter::Eq("unindexed".into(), "x".into());
        let f = Filter::Eq("country".into(), "Finland".into()).and(unindexed.clone());
        let plan = c.compile_prefilter(&f);
        assert_eq!(plan.cardinality(), Some(1));
        assert_eq!(plan.residual, unindexed);
        assert_invariant(&c, &f);
    }

    #[test]
    fn numeric_equality_is_decided_by_the_residual() {
        // The ordered postings key `Int(2)` with `Float(2.0)` and `-0.0`
        // apart from `0.0`, the opposite of `==`, and `NaN` equals nothing:
        // a numeric `Eq`/`In`/`ContainsAny` on an indexed field compiles to
        // no bitmap, and `find` returns exactly the `==` matches.
        let mut c = Collection::new("t", "name");
        c.create_attribute_index("x");
        let nan = Value::Float(f64::NAN);
        for x in [
            Value::Int(2),
            Value::Float(2.0),
            Value::Float(-0.0),
            Value::Float(0.0),
            nan.clone(),
            Value::Array(vec![Value::Int(2), Value::Float(-0.0), nan.clone()]),
        ] {
            let name = format!("d{}", c.len());
            c.insert(Document::new().with("name", name).with("x", x)).unwrap();
        }
        c.insert(Document::new().with("name", "bare")).unwrap();
        let x = || "x".to_string();
        for (f, ids) in [
            (Filter::Eq(x(), Value::Int(2)), vec![0]),
            (Filter::Eq(x(), Value::Float(2.0)), vec![1]),
            (Filter::Eq(x(), Value::Float(0.0)), vec![2, 3]),
            (Filter::Eq(x(), nan.clone()), vec![]),
            (Filter::In(x(), vec![Value::Int(2), Value::Float(-0.0), "2".into()]), vec![0, 2, 3]),
            (Filter::In(x(), vec![Value::Float(2.0), nan.clone()]), vec![1]),
            (Filter::ContainsAny(x(), vec![Value::Int(2)]), vec![5]),
            (Filter::ContainsAny(x(), vec![Value::Float(2.0)]), vec![]),
            (Filter::ContainsAny(x(), vec![Value::Float(0.0)]), vec![5]),
            (Filter::ContainsAny(x(), vec![nan.clone()]), vec![]),
        ] {
            let plan = c.compile_prefilter(&f);
            assert!(plan.bitmap.is_none(), "{f:?} must stay uncompiled, got {plan:?}");
            // `NaN != NaN`, so the residual is compared by its rendering.
            assert_eq!(format!("{:?}", plan.residual), format!("{f:?}"));
            let found = c.find(&f);
            assert_eq!(found.ids, ids, "{f:?}");
            assert_eq!(found.plan, QueryPlan { index_used: None, scanned: 7, matched: ids.len() });
        }

        // Ranges stay exact for numerics (`cmp` on both sides).
        let f = Filter::Lte(x(), Value::Float(2.5));
        assert!(c.compile_prefilter(&f).is_exact());
        assert_invariant(&c, &f);
    }
}
