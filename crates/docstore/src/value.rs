//! The dynamically typed document model.

/// A dynamically typed value, the unit of storage in the document store.
///
/// The variants mirror the BSON types EarthQube actually uses: scalars,
/// strings, arrays (e.g. label-code lists), nested documents (the
/// `properties` sub-document of the metadata collection), raw bytes (band
/// rasters, rendered images) and dates.  A nested document's fields are a
/// [`Fields`] list, the same type a [`Document`] holds.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent / null.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered array of values.
    Array(Vec<Value>),
    /// Nested document.
    Doc(Fields),
    /// Raw binary data.
    Bytes(Vec<u8>),
    /// A date stored as an ordinal day number (see
    /// `eq_bigearthnet::AcquisitionDate::ordinal`).
    Date(i64),
}

impl Value {
    /// A human-readable name of the value's type.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Doc(_) => "document",
            Value::Bytes(_) => "bytes",
            Value::Date(_) => "date",
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a float (integers are widened).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as a nested document, if it is one.
    pub fn as_doc(&self) -> Option<&Fields> {
        match self {
            Value::Doc(d) => Some(d),
            _ => None,
        }
    }

    /// The value as raw bytes, if it is one.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a date ordinal, if it is one.
    pub fn as_date(&self) -> Option<i64> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// A rank used for cross-type ordering (index keys need a total order).
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Date(_) => 3,
            Value::Str(_) => 4,
            Value::Bytes(_) => 5,
            Value::Array(_) => 6,
            Value::Doc(_) => 7,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// A total order across all value types: values of different types are
    /// ordered by type rank; numbers compare numerically across Int/Float.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        let rank = self.type_rank().cmp(&other.type_rank());
        if rank != Ordering::Equal {
            return rank;
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bytes(a), Value::Bytes(b)) => a.cmp(b),
            (Value::Array(a), Value::Array(b)) => a.cmp(b),
            (Value::Doc(a), Value::Doc(b)) => a.iter().cmp(b.iter()),
            // Equal rank and none of the above: the numeric rank, whose
            // two variants compare by value.
            (a, b) => match (a.as_float(), b.as_float()) {
                (Some(x), Some(y)) => x.total_cmp(&y),
                _ => Ordering::Equal,
            },
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

/// The fields of a [`Document`] or a [`Value::Doc`]: string keys mapped to
/// [`Value`]s, held as one vector of `(key, value)` pairs in strictly
/// ascending key order.
///
/// A collected or decoded list is sized exactly, so a document costs its
/// keys, its values and one `(String, Value)` slot per field (a B-tree
/// would add a ~630-byte node per list, however few fields it held).
/// Lookup is a binary search and iteration runs in key order; collecting,
/// equality, ordering and `Debug` (a map) behave as a `BTreeMap`'s with the
/// same entries.
#[derive(Clone, PartialEq, Default)]
pub struct Fields {
    /// Keys strictly ascending.
    entries: Vec<(String, Value)>,
}

impl Fields {
    /// Creates an empty field list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes `entries` as they are; the caller guarantees their keys are
    /// strictly ascending (the wire decoder checks it before calling).
    pub(crate) fn from_sorted(entries: Vec<(String, Value)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "keys must ascend");
        Self { entries }
    }

    /// The value under `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let at = self.entries.binary_search_by(|(k, _)| k.as_str().cmp(key)).ok()?;
        Some(&self.entries[at].1)
    }

    /// Sets `key` to `value` in key order, returning the value it replaces.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        match self.entries.binary_search_by(|(k, _)| k.as_str().cmp(&key)) {
            Ok(at) => Some(std::mem::replace(&mut self.entries[at].1, value)),
            Err(at) => {
                self.entries.insert(at, (key, value));
                None
            }
        }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no fields.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the fields in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl std::fmt::Debug for Fields {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl FromIterator<(String, Value)> for Fields {
    /// Collects like a `BTreeMap`: keys sorted, and the last value wins on a
    /// repeated key.  An already ascending input is taken as it is.
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let mut entries: Vec<(String, Value)> = iter.into_iter().collect();
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            // Stable, so equal keys keep their input order; `dedup_by`
            // then keeps the first of each run, holding the last's value.
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            entries.dedup_by(|later, kept| {
                let repeated = later.0 == kept.0;
                if repeated {
                    std::mem::swap(&mut later.1, &mut kept.1);
                }
                repeated
            });
        }
        entries.shrink_to_fit();
        Self { entries }
    }
}

impl<const N: usize> From<[(&str, Value); N]> for Fields {
    /// Collects literal fields in one exactly sized allocation (sorted, the
    /// last value winning, like any collection).
    fn from(fields: [(&str, Value); N]) -> Self {
        fields.into_iter().map(|(key, value)| (key.to_string(), value)).collect()
    }
}

/// A document: a string-keyed map of [`Value`]s with dotted-path access.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Document {
    fields: Fields,
}

impl Document {
    /// Creates an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style field insertion.
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.set(key, value);
        self
    }

    /// Sets a top-level field, in key order.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) {
        self.fields.insert(key.to_string(), value.into());
    }

    /// Gets a field by dotted path, e.g. `"properties.labels"`.
    pub fn get(&self, path: &str) -> Option<&Value> {
        let mut parts = path.split('.');
        let first = parts.next()?;
        let mut current = self.fields.get(first)?;
        for part in parts {
            current = current.as_doc()?.get(part)?;
        }
        Some(current)
    }

    /// Number of top-level fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the document has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterates over the top-level fields in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.fields.iter()
    }

    /// The top-level fields.
    pub fn fields(&self) -> &Fields {
        &self.fields
    }

    /// Approximate in-memory size in bytes (used for collection statistics).
    pub fn approximate_size(&self) -> usize {
        fn size_of(v: &Value) -> usize {
            match v {
                Value::Null => 1,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) | Value::Date(_) => 8,
                Value::Str(s) => s.len() + 8,
                Value::Bytes(b) => b.len() + 8,
                Value::Array(a) => 8 + a.iter().map(size_of).sum::<usize>(),
                Value::Doc(d) => 8 + d.iter().map(|(k, v)| k.len() + size_of(v)).sum::<usize>(),
            }
        }
        self.fields.iter().map(|(k, v)| k.len() + size_of(v)).sum()
    }
}

impl From<Fields> for Document {
    fn from(fields: Fields) -> Self {
        Self { fields }
    }
}

impl<const N: usize> From<[(&str, Value); N]> for Document {
    /// Collects literal fields like [`Fields`]'s `From` does.
    fn from(fields: [(&str, Value); N]) -> Self {
        Self { fields: Fields::from(fields) }
    }
}

impl FromIterator<(String, Value)> for Document {
    /// Collects like [`Fields`]: keys sorted, the last value wins.
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        Self { fields: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors_return_only_matching_types() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Int(5).as_float(), Some(5.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Float(2.5).as_int(), None);
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Str("x".into()).as_int(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Date(100).as_date(), Some(100));
        assert_eq!(Value::Bytes(vec![1, 2]).as_bytes(), Some(&[1u8, 2u8][..]));
        assert!(Value::Array(vec![Value::Int(1)]).as_array().is_some());
        assert!(Value::Null.as_str().is_none());
    }

    #[test]
    fn type_names_are_stable() {
        assert_eq!(Value::Null.type_name(), "null");
        assert_eq!(Value::Int(1).type_name(), "int");
        assert_eq!(Value::Doc(Fields::new()).type_name(), "document");
    }

    #[test]
    fn from_impls_build_expected_variants() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(Value::from(1.5), Value::Float(1.5));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(Value::from(vec![1i64, 2]), Value::Array(vec![Value::Int(1), Value::Int(2)]));
    }

    #[test]
    fn ordering_is_total_and_numeric_across_int_float() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(2.5) > Value::Int(2));
        assert_eq!(Value::Int(2).cmp(&Value::Float(2.0)), std::cmp::Ordering::Equal);
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
        // Different types order by rank, deterministically.
        assert!(Value::Int(100) < Value::Str("a".into()));
        assert!(Value::Date(5) < Value::Str("".into()));
    }

    #[test]
    fn document_dotted_path_access() {
        let mut props = Fields::new();
        props.insert("labels".to_string(), Value::from("ABC"));
        props.insert("season".to_string(), Value::from("Summer"));
        let doc = Document::new()
            .with("name", "patch_1")
            .with("properties", Value::Doc(props))
            .with("size", 42i64);
        assert_eq!(doc.get("name").unwrap().as_str(), Some("patch_1"));
        assert_eq!(doc.get("properties.labels").unwrap().as_str(), Some("ABC"));
        assert_eq!(doc.get("properties.season").unwrap().as_str(), Some("Summer"));
        assert!(doc.get("properties.missing").is_none());
        assert!(doc.get("missing.path").is_none());
        assert_eq!(doc.len(), 3);
        assert!(!doc.is_empty());
    }

    #[test]
    fn document_mutation_and_iteration() {
        let mut doc = Document::new().with("a", 1i64).with("b", 2i64);
        doc.set("c", "three");
        let keys: Vec<&String> = doc.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "b", "c"]);
        assert_eq!(doc.fields().len(), 3);
    }

    #[test]
    fn approximate_size_grows_with_content() {
        let small = Document::new().with("a", 1i64);
        let big = Document::new().with("a", Value::Bytes(vec![0u8; 1000]));
        assert!(big.approximate_size() > small.approximate_size() + 900);
    }

    #[test]
    fn document_from_iterator() {
        let doc: Document =
            vec![("x".to_string(), Value::Int(1)), ("y".to_string(), Value::Int(2))]
                .into_iter()
                .collect();
        assert_eq!(doc.len(), 2);
        assert_eq!(doc.get("y"), Some(&Value::Int(2)));
    }
}
