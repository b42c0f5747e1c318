//! The dynamically typed document model.

use std::collections::BTreeMap;

/// A dynamically typed value, the unit of storage in the document store.
///
/// The variants mirror the BSON types EarthQube actually uses: scalars,
/// strings, arrays (e.g. label-code lists), nested documents (the
/// `properties` sub-document of the metadata collection), raw bytes (band
/// rasters, rendered images) and dates.
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
    Doc(BTreeMap<String, Value>),
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
    pub fn as_doc(&self) -> Option<&BTreeMap<String, Value>> {
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

/// A document: a string-keyed map of [`Value`]s with dotted-path access.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Document {
    fields: BTreeMap<String, Value>,
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

    /// Sets a top-level field.
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

    /// Whether the dotted path resolves to a (possibly null) value.
    pub fn contains(&self, path: &str) -> bool {
        self.get(path).is_some()
    }

    /// Number of top-level fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the document has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterates over the top-level fields.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.fields.iter()
    }

    /// The top-level field map.
    pub fn fields(&self) -> &BTreeMap<String, Value> {
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

impl FromIterator<(String, Value)> for Document {
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
        assert_eq!(Value::Doc(BTreeMap::new()).type_name(), "document");
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
        let mut props = BTreeMap::new();
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
        assert!(doc.contains("properties.labels"));
        assert!(!doc.contains("nope"));
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
