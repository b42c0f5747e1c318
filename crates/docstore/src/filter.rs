//! The query filter AST and its evaluator.

use eq_geo::{GeoShape, Point};

use crate::value::{Document, Value};

/// A query predicate over documents.
///
/// A filter is a conjunction of atomic predicates — the shape of every
/// query the EarthQube panel sends: attribute equality/ranges (dates,
/// countries, seasons), label-code array predicates (the three label
/// operators of §3.1) and geospatial containment (the map query shapes).
/// There is no disjunction or negation.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Matches every document.
    All,
    /// Field equals the value.
    Eq(String, Value),
    /// Field is strictly less than the value.
    Lt(String, Value),
    /// Field is less than or equal to the value.
    Lte(String, Value),
    /// Field is strictly greater than the value.
    Gt(String, Value),
    /// Field is greater than or equal to the value.
    Gte(String, Value),
    /// Field value is one of the listed values.
    In(String, Vec<Value>),
    /// The field is an array (or string treated as a set of characters)
    /// containing **all** of the listed values.
    ContainsAll(String, Vec<Value>),
    /// The field is an array (or string) containing **at least one** of the
    /// listed values.
    ContainsAny(String, Vec<Value>),
    /// The field is an array (or string) whose elements are **exactly** the
    /// listed values as a multiset: order-insensitive, but multiplicities
    /// must agree (`["A","A","B"]` does not match a query for
    /// `["A","B","B"]`).
    ContainsExactly(String, Vec<Value>),
    /// All sub-filters match.
    And(Vec<Filter>),
    /// A geospatial point field (a two-element `[lon, lat]` array) lies
    /// within the shape.
    GeoWithin(String, GeoShape),
}

impl Filter {
    /// Convenience constructor for an AND of two filters, flattening nested ANDs.
    pub fn and(self, other: Filter) -> Filter {
        match (self, other) {
            (Filter::All, f) | (f, Filter::All) => f,
            (Filter::And(mut a), Filter::And(b)) => {
                a.extend(b);
                Filter::And(a)
            }
            (Filter::And(mut a), f) => {
                a.push(f);
                Filter::And(a)
            }
            (f, Filter::And(mut b)) => {
                b.insert(0, f);
                Filter::And(b)
            }
            (a, b) => Filter::And(vec![a, b]),
        }
    }

    /// Evaluates the filter against a document.
    pub fn matches(&self, doc: &Document) -> bool {
        match self {
            Filter::All => true,
            Filter::Eq(field, v) => doc.get(field) == Some(v),
            Filter::Lt(field, v) => cmp_field(doc, field, v).is_some_and(|o| o.is_lt()),
            Filter::Lte(field, v) => cmp_field(doc, field, v).is_some_and(|o| o.is_le()),
            Filter::Gt(field, v) => cmp_field(doc, field, v).is_some_and(|o| o.is_gt()),
            Filter::Gte(field, v) => cmp_field(doc, field, v).is_some_and(|o| o.is_ge()),
            Filter::In(field, values) => doc.get(field).is_some_and(|v| values.contains(v)),
            Filter::ContainsAll(field, values) => {
                Elements::of(doc, field).is_some_and(|els| values.iter().all(|v| els.contains(v)))
            }
            Filter::ContainsAny(field, values) => {
                Elements::of(doc, field).is_some_and(|els| values.iter().any(|v| els.contains(v)))
            }
            Filter::ContainsExactly(field, values) => {
                Elements::of(doc, field).is_some_and(|els| els.eq_multiset(values))
            }
            Filter::And(fs) => fs.iter().all(|f| f.matches(doc)),
            Filter::GeoWithin(field, shape) => {
                point_from_field(doc, field).map(|p| shape.contains(p)).unwrap_or(false)
            }
        }
    }
}

fn cmp_field(doc: &Document, field: &str, v: &Value) -> Option<std::cmp::Ordering> {
    doc.get(field).map(|dv| dv.cmp(v))
}

/// A borrowed view of an array field's elements; a string field is treated
/// as its sequence of one-character strings, which is how EarthQube stores
/// ASCII-coded labels.
///
/// This view evaluates containment without materialising anything: the
/// residual-filter path of a bitmap-prefiltered search runs `matches` per
/// surviving document, so per-document allocation here (the old
/// `field_elements` cloned the whole array, or built one `String` per
/// character) is banned — the evaluator is hot-path-registered in
/// `lint.toml`.
pub(crate) enum Elements<'a> {
    /// The elements of an array value.
    Array(&'a [Value]),
    /// A string value viewed as one-character string elements.
    Chars(&'a str),
}

impl<'a> Elements<'a> {
    /// The element view of `doc.field`, if the field exists and is an
    /// array or a string.
    pub(crate) fn of(doc: &'a Document, field: &str) -> Option<Elements<'a>> {
        match doc.get(field)? {
            Value::Array(a) => Some(Elements::Array(a)),
            Value::Str(s) => Some(Elements::Chars(s)),
            _ => None,
        }
    }

    /// Number of elements (characters for a string field).
    pub(crate) fn len(&self) -> usize {
        match self {
            Elements::Array(a) => a.len(),
            Elements::Chars(s) => s.chars().count(),
        }
    }

    /// Whether `v` occurs among the elements.
    pub(crate) fn contains(&self, v: &Value) -> bool {
        self.count_of(v) > 0
    }

    /// Multiplicity of `v` among the elements.  For a string field only a
    /// one-character string value can match.
    pub(crate) fn count_of(&self, v: &Value) -> usize {
        match self {
            Elements::Array(a) => a.iter().filter(|e| *e == v).count(),
            Elements::Chars(s) => match v {
                Value::Str(needle) => {
                    let mut cs = needle.chars();
                    match (cs.next(), cs.next()) {
                        (Some(c), None) => s.chars().filter(|x| *x == c).count(),
                        _ => 0,
                    }
                }
                _ => 0,
            },
        }
    }

    /// Whether the elements equal `values` as a multiset (order-insensitive,
    /// multiplicity-sensitive).
    ///
    /// Equal lengths plus equal multiplicity for every queried value is
    /// sufficient: an element outside `values` would make the elements'
    /// total count exceed the sum of the matched multiplicities,
    /// contradicting the length equality.
    pub(crate) fn eq_multiset(&self, values: &[Value]) -> bool {
        self.len() == values.len() && values.iter().all(|v| self.count_of(v) == count_in(values, v))
    }
}

/// Multiplicity of `v` in a value list.
fn count_in(values: &[Value], v: &Value) -> usize {
    values.iter().filter(|x| *x == v).count()
}

/// The point a two-element `[lon, lat]` array field holds, if it is one.
pub(crate) fn point_from_field(doc: &Document, field: &str) -> Option<Point> {
    let arr = doc.get(field)?.as_array()?;
    if arr.len() != 2 {
        return None;
    }
    let lon = arr[0].as_float()?;
    let lat = arr[1].as_float()?;
    Point::new(lon, lat).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_geo::BBox;

    fn doc() -> Document {
        Document::new()
            .with("name", "S2A_patch_7")
            .with("country", "Portugal")
            .with("date", Value::Date(750_000))
            .with("labels", "ABT")
            .with("bands", vec![2i64, 3, 4])
            .with("location", Value::Array(vec![Value::Float(-8.5), Value::Float(37.1)]))
            .with("cloud", Value::Null)
    }

    #[test]
    fn comparison_operators() {
        let d = doc();
        assert!(Filter::All.matches(&d));
        assert!(Filter::Eq("country".into(), "Portugal".into()).matches(&d));
        assert!(!Filter::Eq("country".into(), "Austria".into()).matches(&d));
        assert!(Filter::Lt("date".into(), Value::Date(750_001)).matches(&d));
        assert!(Filter::Lte("date".into(), Value::Date(750_000)).matches(&d));
        assert!(Filter::Gt("date".into(), Value::Date(749_999)).matches(&d));
        assert!(Filter::Gte("date".into(), Value::Date(750_000)).matches(&d));
        assert!(!Filter::Gt("date".into(), Value::Date(750_000)).matches(&d));
        // Comparisons against missing fields never match.
        assert!(!Filter::Lt("missing".into(), Value::Int(1)).matches(&d));
    }

    #[test]
    fn membership() {
        let d = doc();
        assert!(Filter::In("country".into(), vec!["Austria".into(), "Portugal".into()]).matches(&d));
        assert!(!Filter::In("country".into(), vec!["Austria".into()]).matches(&d));
    }

    #[test]
    fn array_and_label_string_operators() {
        let d = doc();
        // Array field.
        assert!(Filter::ContainsAll("bands".into(), vec![2i64.into(), 4i64.into()]).matches(&d));
        assert!(!Filter::ContainsAll("bands".into(), vec![2i64.into(), 9i64.into()]).matches(&d));
        assert!(Filter::ContainsAny("bands".into(), vec![9i64.into(), 3i64.into()]).matches(&d));
        assert!(!Filter::ContainsAny("bands".into(), vec![9i64.into()]).matches(&d));
        assert!(Filter::ContainsExactly(
            "bands".into(),
            vec![4i64.into(), 3i64.into(), 2i64.into()]
        )
        .matches(&d));
        assert!(
            !Filter::ContainsExactly("bands".into(), vec![2i64.into(), 3i64.into()]).matches(&d)
        );
        // Label string treated as a character set (the ASCII label encoding).
        assert!(Filter::ContainsAll("labels".into(), vec!["A".into(), "T".into()]).matches(&d));
        assert!(Filter::ContainsAny("labels".into(), vec!["Z".into(), "B".into()]).matches(&d));
        assert!(Filter::ContainsExactly("labels".into(), vec!["A".into(), "B".into(), "T".into()])
            .matches(&d));
        assert!(!Filter::ContainsExactly("labels".into(), vec!["A".into(), "B".into()]).matches(&d));
        // Non-array, non-string fields never match element predicates.
        assert!(!Filter::ContainsAny("date".into(), vec![Value::Date(750_000)]).matches(&d));
    }

    #[test]
    fn contains_exactly_compares_multisets_not_sets() {
        // Regression: the old evaluator compared element *sets* plus a
        // length check, so `["A","A","B"]` matched a query for
        // `["A","B","B"]` (same distinct elements, same length).
        let d = Document::new().with("labels", "AAB").with("bands", vec![2i64, 2, 3]);
        let exactly = |vals: Vec<Value>| Filter::ContainsExactly("labels".into(), vals);
        assert!(!exactly(vec!["A".into(), "B".into(), "B".into()]).matches(&d));
        assert!(exactly(vec!["A".into(), "A".into(), "B".into()]).matches(&d));
        // Order-insensitivity is preserved.
        assert!(exactly(vec!["B".into(), "A".into(), "A".into()]).matches(&d));
        // Subsets and supersets still do not match.
        assert!(!exactly(vec!["A".into(), "B".into()]).matches(&d));
        assert!(!exactly(vec!["A".into(), "A".into(), "A".into(), "B".into()]).matches(&d));
        // Same multiset bug on array fields.
        let on_bands = |vals: Vec<Value>| Filter::ContainsExactly("bands".into(), vals);
        assert!(!on_bands(vec![2i64.into(), 3i64.into(), 3i64.into()]).matches(&d));
        assert!(on_bands(vec![3i64.into(), 2i64.into(), 2i64.into()]).matches(&d));
        // Multi-character values never match a character element.
        assert!(!exactly(vec!["AA".into(), "B".into()]).matches(&d));
    }

    #[test]
    fn conjunctions_compose() {
        let d = doc();
        let f = Filter::Eq("country".into(), "Portugal".into())
            .and(Filter::Gt("date".into(), Value::Date(0)));
        assert!(f.matches(&d));
        assert!(!f.and(Filter::Eq("country".into(), "Austria".into())).matches(&d));
        assert!(Filter::And(vec![]).matches(&d));
    }

    #[test]
    fn and_builder_flattens() {
        let f = Filter::Eq("a".into(), 1i64.into())
            .and(Filter::Eq("b".into(), 2i64.into()))
            .and(Filter::Eq("c".into(), 3i64.into()));
        match f {
            Filter::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected And, got {other:?}"),
        }
        let leaf = Filter::Eq("x".into(), "y".into());
        assert_eq!(Filter::All.and(leaf.clone()), leaf);
    }

    #[test]
    fn geo_within_checks_the_point() {
        let d = doc();
        let hit = GeoShape::Rect(BBox::new(-10.0, 36.0, -6.0, 39.0).unwrap());
        let miss = GeoShape::Rect(BBox::new(0.0, 0.0, 1.0, 1.0).unwrap());
        assert!(Filter::GeoWithin("location".into(), hit).matches(&d));
        assert!(!Filter::GeoWithin("location".into(), miss.clone()).matches(&d));
        assert!(!Filter::GeoWithin("missing".into(), miss.clone()).matches(&d));
        // A malformed location never matches.
        let bad = Document::new().with("location", Value::Array(vec![Value::Float(1.0)]));
        assert!(!Filter::GeoWithin("location".into(), miss).matches(&bad));
    }
}
