//! The store's one filter engine: compiling a filter's indexable prefix
//! into one candidate bitmap, then resolving it.
//!
//! Every query — [`Collection::find`] behind the query panel as much as a
//! bitmap-prefiltered similarity search — wants to know, *before* touching
//! any document or code, which documents can possibly match a filter.  The
//! compiler walks the [`Filter`] AST against a collection's indexes (the
//! primary-key map and the posting bitmaps of attribute values,
//! array/label elements and geohash cells — see [`crate::index`]) and
//! produces a [`PrefilterPlan`]: an optional candidate [`Bitmap`] plus the
//! **residual** filter that must still be evaluated on the surviving
//! documents, which [`PrefilterPlan::matching`] does in ascending id order.
//!
//! The contract, pinned by the property suite in
//! `tests/proptest_prefilter.rs`, is:
//!
//! ```text
//! filter.matches(doc)  ==  plan.bitmap.map_or(true, |b| b.contains(id))
//!                          && plan.residual.matches(doc)
//! ```
//!
//! for every live document.  Operators compile in one of three ways:
//!
//! * **Exact** (residual contribution `All`): `Eq`, `Ne`, `In`, `Exists`,
//!   `StartsWith`, `Lt`/`Lte`/`Gt`/`Gte`, `ContainsAny` on an indexed
//!   field, and `Eq`/`In` on the primary key (an at-most-one-id bitmap per
//!   value straight from the key map, so a point lookup stays O(log n)).
//!   `Ne` is `live \ value-postings`, which by construction matches
//!   documents *missing* the field — exactly the evaluator's documented
//!   semantics.
//! * **Superset** (the leaf stays in the residual): `ContainsExactly`
//!   (element postings bound membership but not multiset equality) and
//!   `GeoWithin` (covering cells are never point-verified).
//! * **Uncompiled** (`bitmap: None`, the leaf stays in the residual):
//!   anything on an unindexed field.
//!
//! One equality caveat decides exactness: the evaluator's `Eq`/`In`/
//! `Contains*` use `==` (`PartialEq`), while posting lookup uses the index
//! B-tree's total [`Value`] order — and the two disagree on numerics
//! (`Int(2)` Ord-equals `Float(2.0)`; `0.0`/`-0.0` split the other way).
//! Numeric **scalar** query values therefore resolve through the index's
//! canonical exact-numeric postings
//! ([`AttributeIndex::numeric_eq_bitmap`]), which key postings the way
//! `==` compares them — ints and floats apart, `±0.0` merged, `NaN`
//! equal to nothing — so `Eq`/`In`/`Contains*` on numbers compile to
//! exact bitmaps too.  Only numerics *nested* inside `Array`/`Doc` query
//! values still force the leaf to stay uncompiled (composite `==` has no
//! posting mirror).  The comparison operators never needed any of this:
//! both the evaluator and the B-tree use [`Value::cmp`], so ranges are
//! exact for every type straight off the ordered map.

use std::ops::Bound::{self, Excluded, Included, Unbounded};

use eq_hashindex::Bitmap;

use crate::collection::Collection;
use crate::filter::Filter;
use crate::index::AttributeIndex;
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

impl Collection {
    /// Compiles a filter's indexable prefix into a candidate bitmap; see
    /// the [module docs](self) for the exactness contract.
    pub fn compile_prefilter(&self, filter: &Filter) -> PrefilterPlan {
        let mut used = Vec::new();
        let (bitmap, residual) = compile(self, filter, &mut used);
        let index_used = bitmap.is_some().then(|| used.join("+"));
        PrefilterPlan { bitmap, residual, index_used }
    }
}

/// Recursive compilation: returns `(bitmap, residual)` satisfying the
/// module-level invariant for this sub-filter, and appends to `used` the
/// indexes the bitmap was built from (nothing when there is no bitmap).
fn compile<'f>(
    c: &Collection,
    filter: &'f Filter,
    used: &mut Vec<&'f str>,
) -> (Option<Bitmap>, Filter) {
    let mark = used.len();
    let compiled = compile_node(c, filter, used);
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
    c: &'c Collection,
    field: &'f str,
    used: &mut Vec<&'f str>,
) -> Option<&'c AttributeIndex> {
    let idx = c.attribute_index(field)?;
    note(used, field);
    Some(idx)
}

fn compile_node<'f>(
    c: &Collection,
    filter: &'f Filter,
    used: &mut Vec<&'f str>,
) -> (Option<Bitmap>, Filter) {
    match filter {
        Filter::All => (None, Filter::All),

        Filter::Eq(field, v) => equality_leaf(c, field, std::slice::from_ref(v), filter, used),
        Filter::In(field, values) => equality_leaf(c, field, values, filter, used),

        Filter::Ne(field, v) => match consult(c, field, used) {
            Some(idx) => match exact_value_bitmap(idx, v) {
                Some(matching) => (Some(c.live_bitmap().and_not(&matching)), Filter::All),
                None => uncompiled(filter),
            },
            None => uncompiled(filter),
        },

        Filter::Lt(field, v) => range_leaf(c, field, Unbounded, Excluded(v), filter, used),
        Filter::Lte(field, v) => range_leaf(c, field, Unbounded, Included(v), filter, used),
        Filter::Gt(field, v) => range_leaf(c, field, Excluded(v), Unbounded, filter, used),
        Filter::Gte(field, v) => range_leaf(c, field, Included(v), Unbounded, filter, used),

        Filter::Exists(field) => match consult(c, field, used) {
            Some(idx) => (Some(idx.present_bitmap().clone()), Filter::All),
            None => uncompiled(filter),
        },

        Filter::StartsWith(field, prefix) => match consult(c, field, used) {
            Some(idx) => (Some(idx.prefix_bitmap(prefix)), Filter::All),
            None => uncompiled(filter),
        },

        Filter::ContainsAll(field, values) | Filter::ContainsExactly(field, values) => {
            match consult(c, field, used) {
                // The vacuous `[]` matches any array or string (`All`) or
                // only empty ones (`Exactly`); `present` is a superset of
                // both (it also holds scalar-valued documents), so the
                // leaf stays.
                Some(idx) if values.is_empty() => {
                    (Some(idx.present_bitmap().clone()), filter.clone())
                }
                Some(idx) => {
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
                    // Element postings decide containment, but never the
                    // multiset equality `ContainsExactly` also asks for:
                    // that leaf is a superset and stays in the residual.
                    let exact = matches!(filter, Filter::ContainsAll(..));
                    (out, if exact { Filter::All } else { filter.clone() })
                }
                None => uncompiled(filter),
            }
        }

        Filter::ContainsAny(field, values) => match consult(c, field, used) {
            // `any` over an empty list is false: the empty bitmap is exact.
            Some(_) if values.is_empty() => (Some(Bitmap::new()), Filter::All),
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

        Filter::GeoWithin(field, shape) => match c.geo_index() {
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
                let (b, r) = compile(c, f, used);
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

        Filter::Or(fs) => {
            // A disjunction only has a candidate set when *every* branch
            // has one (a branch without a bitmap can match anything).
            let mut bitmap = Some(Bitmap::new());
            let mut all_exact = true;
            for f in fs {
                let (b, r) = compile(c, f, used);
                match (&bitmap, b) {
                    (Some(acc), Some(b)) => bitmap = Some(acc.or(&b)),
                    _ => bitmap = None,
                }
                all_exact &= r == Filter::All;
                if bitmap.is_none() {
                    break;
                }
            }
            match (&bitmap, all_exact) {
                (Some(_), true) => (bitmap, Filter::All),
                // Per-branch residuals cannot be OR-ed independently of
                // their bitmaps, so a partially-exact disjunction keeps
                // the whole `Or` in the residual over the union bitmap.
                (Some(_), false) => (bitmap, filter.clone()),
                (None, _) => (None, filter.clone()),
            }
        }

        Filter::Not(inner) => {
            let (b, r) = compile(c, inner, used);
            match (b, r) {
                // Only an *exact* inner bitmap can be complemented; a
                // superset's complement would drop matching documents.
                (Some(b), Filter::All) => (Some(c.live_bitmap().and_not(&b)), Filter::All),
                _ => uncompiled(filter),
            }
        }
    }
}

/// A leaf that compiles to nothing: no bitmap, itself as the residual.
fn uncompiled(filter: &Filter) -> (Option<Bitmap>, Filter) {
    (None, filter.clone())
}

/// Shared compilation of the four comparison operators.
fn range_leaf<'f>(
    c: &Collection,
    field: &'f str,
    lo: Bound<&Value>,
    hi: Bound<&Value>,
    filter: &Filter,
    used: &mut Vec<&'f str>,
) -> (Option<Bitmap>, Filter) {
    match consult(c, field, used) {
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
    c: &Collection,
    field: &'f str,
    values: &[Value],
    filter: &Filter,
    used: &mut Vec<&'f str>,
) -> (Option<Bitmap>, Filter) {
    let mut out = Bitmap::new();
    if field == c.primary_key() && values.iter().all(ord_eq_safe) {
        out.extend(values.iter().filter_map(|v| c.id_by_key(v)));
        note(used, "pk");
    } else if let Some(idx) = consult(c, field, used) {
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

/// The **exact** `==` equality bitmap for one query value, when the index
/// can supply one: numeric scalars go through the canonical numeric
/// postings (`Int(2)` and `Float(2.0)` resolve to distinct sets, `NaN` to
/// the empty set), every other `==`-faithful value through the ordered
/// posting map.  `None` means no exact bitmap exists — numerics nested
/// inside `Array`/`Doc` query values — and the leaf must stay uncompiled.
fn exact_value_bitmap(idx: &AttributeIndex, v: &Value) -> Option<Bitmap> {
    if let Some(bm) = idx.numeric_eq_bitmap(v) {
        return Some(bm);
    }
    if ord_eq_safe(v) {
        return Some(idx.value_bitmap(v).cloned().unwrap_or_default());
    }
    None
}

/// [`exact_value_bitmap`]'s counterpart for the `Contains*` family:
/// documents whose indexed value *contains* an element `==` to `v`.
fn exact_element_bitmap(idx: &AttributeIndex, v: &Value) -> Option<Bitmap> {
    if let Some(bm) = idx.numeric_element_bitmap(v) {
        return Some(bm);
    }
    if ord_eq_safe(v) {
        return Some(idx.element_bitmap(v).cloned().unwrap_or_default());
    }
    None
}

/// Whether `==` and the index order's equality coincide for this value:
/// `Int`/`Float` anywhere inside breaks the correspondence (`Int(2)`
/// Ord-equals `Float(2.0)` but `!=` it; `NaN`/`±0.0` split the other
/// way), so such values cannot drive an exact equality bitmap **through
/// the ordered posting map**.  Numeric *scalars* are instead resolved
/// through the canonical numeric postings before this check is consulted
/// (see [`exact_value_bitmap`]); only composite values with numerics
/// inside reach here and stay uncompiled.
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
    fn eq_in_ne_and_exists_compile_exactly() {
        let c = sample();
        for f in [
            Filter::Eq("country".into(), "Austria".into()),
            Filter::Eq("country".into(), "Nowhere".into()),
            Filter::In("country".into(), vec!["Austria".into(), "Finland".into()]),
            Filter::In("country".into(), vec![]),
            Filter::Ne("country".into(), "Austria".into()),
            Filter::Exists("labels".into()),
            Filter::StartsWith("country".into(), "Po".into()),
        ] {
            let plan = c.compile_prefilter(&f);
            assert!(plan.is_exact(), "{f:?} should compile exactly, got {plan:?}");
            assert_invariant(&c, &f);
        }
        // Cardinalities drive the planner.
        let plan = c.compile_prefilter(&Filter::Eq("country".into(), "Austria".into()));
        assert_eq!(plan.cardinality(), Some(2));
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
        // A branch that compiles to nothing takes its indexes with it …
        let unindexed = Filter::Eq("unindexed".into(), "x".into());
        let either = Filter::Or(vec![Filter::Eq("country".into(), "Austria".into()), unindexed]);
        assert_eq!(c.compile_prefilter(&either).index_used, None);
        // … also from inside a conjunction that still has a bitmap.
        let both = Filter::Exists("labels".into()).and(either);
        assert_eq!(c.compile_prefilter(&both).index_used.as_deref(), Some("labels"));
    }

    #[test]
    fn ne_matches_documents_missing_the_field() {
        let mut c = sample();
        // A document without `country` at all.
        c.insert(Document::new().with("name", "bare").with("labels", "Z")).unwrap();
        let f = Filter::Ne("country".into(), "Austria".into());
        let plan = c.compile_prefilter(&f);
        assert!(plan.is_exact());
        let bare_id = c.find(&Filter::Eq("name".into(), "bare".into())).ids[0];
        assert!(
            plan.bitmap.as_ref().is_some_and(|b| b.contains(bare_id)),
            "Ne must keep documents missing the field"
        );
        assert_invariant(&c, &f);
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
    fn and_intersects_and_or_unions() {
        let c = sample();
        let f = Filter::Eq("country".into(), "Austria".into())
            .and(Filter::ContainsAny("labels".into(), vec!["B".into()]));
        let plan = c.compile_prefilter(&f);
        assert!(plan.is_exact());
        assert_eq!(plan.cardinality(), Some(2)); // p0, p1
        assert_invariant(&c, &f);

        let f = Filter::Or(vec![
            Filter::Eq("country".into(), "Finland".into()),
            Filter::Eq("country".into(), "Portugal".into()),
        ]);
        let plan = c.compile_prefilter(&f);
        assert!(plan.is_exact());
        assert_eq!(plan.cardinality(), Some(3)); // p2, p3, p4
        assert_invariant(&c, &f);

        // An Or with a superset branch keeps the whole Or in the residual.
        let shape = GeoShape::Rect(BBox::new(13.9, 47.0, 14.25, 48.0).unwrap());
        let f = Filter::Or(vec![
            Filter::Eq("country".into(), "Finland".into()),
            Filter::GeoWithin("location".into(), shape),
        ]);
        let plan = c.compile_prefilter(&f);
        assert!(plan.bitmap.is_some());
        assert_eq!(plan.residual, f);
        assert_invariant(&c, &f);

        // An Or with an uncompilable branch has no bitmap at all.
        let f = Filter::Or(vec![
            Filter::Eq("country".into(), "Finland".into()),
            Filter::Eq("unindexed".into(), "x".into()),
        ]);
        let plan = c.compile_prefilter(&f);
        assert!(plan.bitmap.is_none());
        assert_invariant(&c, &f);
    }

    #[test]
    fn not_complements_only_exact_children() {
        let c = sample();
        let f = Filter::Not(Box::new(Filter::Eq("country".into(), "Austria".into())));
        let plan = c.compile_prefilter(&f);
        assert!(plan.is_exact());
        assert_eq!(plan.cardinality(), Some(3));
        assert_invariant(&c, &f);

        // Not over a superset leaf must NOT complement the bitmap.
        let shape = GeoShape::Rect(BBox::new(13.9, 47.0, 14.25, 48.0).unwrap());
        let f = Filter::Not(Box::new(Filter::GeoWithin("location".into(), shape)));
        let plan = c.compile_prefilter(&f);
        assert!(plan.bitmap.is_none());
        assert_eq!(plan.residual, f);
        assert_invariant(&c, &f);
    }

    #[test]
    fn numeric_equality_compiles_exactly_through_canonical_postings() {
        let mut c = Collection::new("t", "name");
        c.create_attribute_index("x");
        c.insert(Document::new().with("name", "a").with("x", Value::Float(2.0))).unwrap();
        c.insert(Document::new().with("name", "b").with("x", Value::Int(2))).unwrap();
        c.insert(Document::new().with("name", "z").with("x", Value::Float(-0.0))).unwrap();
        c.insert(
            Document::new()
                .with("name", "arr")
                .with("x", Value::Array(vec![Value::Int(2), Value::Float(3.5)])),
        )
        .unwrap();
        c.insert(Document::new().with("name", "bare")).unwrap();

        // Int(2) and Float(2.0) share a B-tree key under the index order
        // but are `!=` to the evaluator; the canonical numeric postings
        // keep them apart, so equality-family leaves compile *exactly*.
        for f in [
            Filter::Eq("x".into(), Value::Int(2)),
            Filter::Eq("x".into(), Value::Float(2.0)),
            Filter::Eq("x".into(), Value::Float(0.0)), // merges with the stored -0.0
            Filter::Eq("x".into(), Value::Float(f64::NAN)), // == nothing: empty, still exact
            Filter::Ne("x".into(), Value::Int(2)),
            Filter::In("x".into(), vec![Value::Int(2), Value::Float(3.5), "y".into()]),
            Filter::ContainsAny("x".into(), vec![Value::Int(2)]),
            Filter::ContainsAll("x".into(), vec![Value::Int(2), Value::Float(3.5)]),
        ] {
            let plan = c.compile_prefilter(&f);
            assert!(plan.is_exact(), "{f:?} should compile exactly, got {plan:?}");
            assert_invariant(&c, &f);
        }
        let eq_int = c.compile_prefilter(&Filter::Eq("x".into(), Value::Int(2)));
        assert_eq!(eq_int.cardinality(), Some(1), "only doc b holds Int(2)");
        let eq_float = c.compile_prefilter(&Filter::Eq("x".into(), Value::Float(2.0)));
        assert_eq!(eq_float.cardinality(), Some(1), "only doc a holds Float(2.0)");
        assert_eq!(
            c.compile_prefilter(&Filter::Eq("x".into(), Value::Float(0.0))).cardinality(),
            Some(1),
            "-0.0 == 0.0 to the evaluator, so the stored -0.0 matches"
        );
        assert_eq!(
            c.compile_prefilter(&Filter::Eq("x".into(), Value::Float(f64::NAN))).cardinality(),
            Some(0)
        );
        // Ne keeps documents missing the field, like every other Ne.
        assert_eq!(
            c.compile_prefilter(&Filter::Ne("x".into(), Value::Int(2))).cardinality(),
            Some(4)
        );
        // Array elements resolve through the numeric element postings.
        assert_eq!(
            c.compile_prefilter(&Filter::ContainsAny("x".into(), vec![Value::Float(3.5)]))
                .cardinality(),
            Some(1)
        );
        assert_eq!(
            c.compile_prefilter(&Filter::ContainsAny("x".into(), vec![Value::Float(2.0)]))
                .cardinality(),
            Some(0),
            "the array holds Int(2), which the evaluator's == keeps distinct from Float(2.0)"
        );

        // Composite query values with numerics inside have no posting
        // mirror for `==` and must stay uncompiled.
        for f in [
            Filter::Eq("x".into(), Value::Array(vec![Value::Int(2), Value::Float(3.5)])),
            Filter::In("x".into(), vec![Value::Array(vec![Value::Int(2)])]),
        ] {
            let plan = c.compile_prefilter(&f);
            assert!(plan.bitmap.is_none(), "{f:?} must stay uncompiled");
            assert_invariant(&c, &f);
        }

        // Ranges stay exact even for numerics (cmp on both sides).
        let f = Filter::Lte("x".into(), Value::Float(2.5));
        assert!(c.compile_prefilter(&f).is_exact());
        assert_invariant(&c, &f);
    }
}
