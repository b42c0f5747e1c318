//! Binary wire format for the document store: values, documents,
//! collections and whole databases.
//!
//! This is the docstore's half of the durable snapshot format (see the
//! repository's `ARCHITECTURE.md`, "Durability"): little-endian, length
//! prefixed, and decoded with [`eq_wire::Reader`]'s checked reads, so a
//! truncated or bit-flipped input returns a clean [`WireError`] instead of
//! panicking or over-allocating.
//!
//! Layouts (all integers little-endian):
//!
//! ```text
//! value       := tag:u8 payload
//!   0 Null    | 1 Bool b:u8 | 2 Int i64 | 3 Float f64-bits | 4 Str string
//!   5 Array n:u32 value*n    | 6 Doc n:u32 (string value)*n
//!   7 Bytes bytes            | 8 Date i64
//! document    := n:u32 (string value)*n          (fields in key order)
//! collection  := name pk next_id:u64
//!                attrs:u32 string*                (attribute-index fields)
//!                geo:u8 [string]                  (optional geo-index field)
//!                docs:u32 (doc_id:u64 document)*  (in insertion order)
//! database    := n:u32 collection*n               (in name order)
//! ```
//!
//! Only *storage* state is serialized; query filters are runtime values and
//! are deliberately not part of the format.  Encoding is deterministic
//! (documents iterate their `BTreeMap` fields in key order, collections in
//! insertion order, databases in name order), so encoding the same logical
//! state twice yields byte-identical output — which is what lets the
//! property suite assert encode→decode→encode fixpoints.

use crate::collection::{Collection, CollectionDelta};
use crate::database::Database;
use crate::value::{Document, Value};
use crate::DocId;
use eq_wire::{Reader, WireError, Writer};

/// Maximum nesting depth accepted when decoding a [`Value`].  Corrupt input
/// could otherwise encode arbitrarily deep `Array`/`Doc` towers and blow
/// the decoder's stack; genuine EarthQube documents nest two levels deep.
pub const MAX_VALUE_DEPTH: usize = 64;

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_ARRAY: u8 = 5;
const TAG_DOC: u8 = 6;
const TAG_BYTES: u8 = 7;
const TAG_DATE: u8 = 8;

/// Encodes a value.
pub fn encode_value(value: &Value, w: &mut Writer) {
    match value {
        Value::Null => w.u8(TAG_NULL),
        Value::Bool(b) => {
            w.u8(TAG_BOOL);
            w.bool(*b);
        }
        Value::Int(i) => {
            w.u8(TAG_INT);
            w.i64(*i);
        }
        Value::Float(f) => {
            w.u8(TAG_FLOAT);
            w.f64(*f);
        }
        Value::Str(s) => {
            w.u8(TAG_STR);
            w.str(s);
        }
        Value::Array(items) => {
            w.u8(TAG_ARRAY);
            w.seq_len(items.len());
            for item in items {
                encode_value(item, w);
            }
        }
        Value::Doc(fields) => {
            w.u8(TAG_DOC);
            w.seq_len(fields.len());
            for (key, val) in fields {
                w.str(key);
                encode_value(val, w);
            }
        }
        Value::Bytes(b) => {
            w.u8(TAG_BYTES);
            w.bytes(b);
        }
        Value::Date(d) => {
            w.u8(TAG_DATE);
            w.i64(*d);
        }
    }
}

/// Decodes a value.
///
/// # Errors
/// Returns a [`WireError`] on truncation, an unknown tag, invalid UTF-8 or
/// nesting deeper than [`MAX_VALUE_DEPTH`]; never panics.
pub fn decode_value(r: &mut Reader<'_>) -> Result<Value, WireError> {
    decode_value_at(r, 0)
}

fn decode_value_at(r: &mut Reader<'_>, depth: usize) -> Result<Value, WireError> {
    if depth > MAX_VALUE_DEPTH {
        return Err(WireError::Corrupt(format!("value nesting exceeds {MAX_VALUE_DEPTH} levels")));
    }
    match r.u8()? {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL => Ok(Value::Bool(r.bool()?)),
        TAG_INT => Ok(Value::Int(r.i64()?)),
        TAG_FLOAT => Ok(Value::Float(r.f64()?)),
        TAG_STR => Ok(Value::Str(r.str()?.to_string())),
        TAG_ARRAY => {
            let n = r.seq_len(1)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value_at(r, depth + 1)?);
            }
            Ok(Value::Array(items))
        }
        TAG_DOC => {
            let n = r.seq_len(1)?;
            let mut fields = std::collections::BTreeMap::new();
            for _ in 0..n {
                let key = r.str()?.to_string();
                let val = decode_value_at(r, depth + 1)?;
                if fields.insert(key.clone(), val).is_some() {
                    return Err(WireError::Corrupt(format!("duplicate document key {key:?}")));
                }
            }
            Ok(Value::Doc(fields))
        }
        TAG_BYTES => Ok(Value::Bytes(r.bytes()?.to_vec())),
        TAG_DATE => Ok(Value::Date(r.i64()?)),
        other => Err(WireError::Corrupt(format!("unknown value tag {other:#04x}"))),
    }
}

/// Encodes a document (fields in key order, so output is deterministic).
pub fn encode_document(doc: &Document, w: &mut Writer) {
    w.seq_len(doc.len());
    for (key, value) in doc.iter() {
        w.str(key);
        encode_value(value, w);
    }
}

/// Decodes a document.
///
/// # Errors
/// Returns a [`WireError`] on any structural problem; never panics.
pub fn decode_document(r: &mut Reader<'_>) -> Result<Document, WireError> {
    let n = r.seq_len(1)?;
    let mut fields = Vec::with_capacity(n);
    let mut last_key: Option<String> = None;
    for _ in 0..n {
        let key = r.str()?.to_string();
        if last_key.as_deref().is_some_and(|prev| prev >= key.as_str()) {
            return Err(WireError::Corrupt(format!("document keys out of order at {key:?}")));
        }
        let value = decode_value_at(r, 1)?;
        last_key = Some(key.clone());
        fields.push((key, value));
    }
    Ok(fields.into_iter().collect())
}

/// Encodes a collection: schema (name, primary key, declared indexes) plus
/// every document with its internal id, in insertion order.
pub fn encode_collection(collection: &Collection, w: &mut Writer) {
    let stats = collection.stats();
    w.str(collection.name());
    w.str(collection.primary_key());
    w.u64(collection.next_id());
    w.seq_len(stats.attribute_indexes.len());
    for field in &stats.attribute_indexes {
        w.str(field);
    }
    match &stats.geo_index {
        Some(field) => {
            w.u8(1);
            w.str(field);
        }
        None => w.u8(0),
    }
    w.seq_len(collection.len());
    for (&id, doc) in collection.iter() {
        w.u64(id);
        encode_document(doc, w);
    }
}

/// Decodes a collection, rebuilding its primary-key, attribute and geo
/// indexes from the stored documents.
///
/// # Errors
/// Returns a [`WireError`] on structural corruption, including logical
/// inconsistencies a bit flip can produce (duplicate primary keys, ids at
/// or above `next_id`).
pub fn decode_collection(r: &mut Reader<'_>) -> Result<Collection, WireError> {
    let name = r.str()?.to_string();
    let primary_key = r.str()?.to_string();
    let next_id = r.u64()?;
    let n_attrs = r.seq_len(1)?;
    let mut attr_fields = Vec::with_capacity(n_attrs);
    for _ in 0..n_attrs {
        attr_fields.push(r.str()?.to_string());
    }
    let geo_field = match r.u8()? {
        0 => None,
        1 => Some(r.str()?.to_string()),
        other => return Err(WireError::Corrupt(format!("invalid geo-index flag {other:#04x}"))),
    };
    let n_docs = r.seq_len(8)?;
    let mut docs: Vec<(DocId, Document)> = Vec::with_capacity(n_docs);
    for _ in 0..n_docs {
        let id = r.u64()?;
        docs.push((id, decode_document(r)?));
    }
    Collection::from_parts(&name, &primary_key, next_id, docs, &attr_fields, geo_field.as_deref())
        .map_err(|e| WireError::Corrupt(format!("collection {name:?} is inconsistent: {e}")))
}

/// Encodes a collection delta: the documents that changed since a base
/// snapshot.
///
/// Layout: `name next_id:u64 deletes:u32 value* upserts:u32 (doc_id:u64
/// document)*` — deletes in key order, upserts in ascending id order.
pub fn encode_collection_delta(delta: &CollectionDelta, w: &mut Writer) {
    w.str(&delta.name);
    w.u64(delta.next_id);
    w.seq_len(delta.deletes.len());
    for key in &delta.deletes {
        encode_value(key, w);
    }
    w.seq_len(delta.upserts.len());
    for (id, doc) in &delta.upserts {
        w.u64(*id);
        encode_document(doc, w);
    }
}

/// Decodes a collection delta, validating that upsert ids are strictly
/// ascending and below the delta's watermark.
///
/// # Errors
/// Returns a [`WireError`] on any structural problem; never panics.
pub fn decode_collection_delta(r: &mut Reader<'_>) -> Result<CollectionDelta, WireError> {
    let name = r.str()?.to_string();
    let next_id = r.u64()?;
    let n_deletes = r.seq_len(1)?;
    let mut deletes = Vec::with_capacity(n_deletes);
    for _ in 0..n_deletes {
        deletes.push(decode_value(r)?);
    }
    let n_upserts = r.seq_len(8)?;
    let mut upserts: Vec<(DocId, Document)> = Vec::with_capacity(n_upserts);
    for _ in 0..n_upserts {
        let id = r.u64()?;
        if upserts.last().is_some_and(|(prev, _)| id <= *prev) {
            return Err(WireError::Corrupt(format!("delta document ids out of order at {id}")));
        }
        if id >= next_id {
            return Err(WireError::Corrupt(format!(
                "delta document id {id} is not below the delta's next_id {next_id}"
            )));
        }
        upserts.push((id, decode_document(r)?));
    }
    Ok(CollectionDelta { name, next_id, deletes, upserts })
}

/// Encodes a database (collections in name order).
pub fn encode_database(db: &Database, w: &mut Writer) {
    w.seq_len(db.len());
    for collection in db.collections() {
        encode_collection(collection, w);
    }
}

/// Decodes a database.
///
/// # Errors
/// Returns a [`WireError`] on any structural problem; never panics.
pub fn decode_database(r: &mut Reader<'_>) -> Result<Database, WireError> {
    let n = r.seq_len(1)?;
    let mut collections = Vec::with_capacity(n);
    for _ in 0..n {
        collections.push(decode_collection(r)?);
    }
    Ok(Database::from_collections(collections))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Filter;

    fn sample_doc(name: &str) -> Document {
        let mut nested = std::collections::BTreeMap::new();
        nested.insert("labels".to_string(), Value::Str("ABC".into()));
        nested.insert("flag".to_string(), Value::Bool(true));
        Document::new()
            .with("name", name)
            .with("count", 42i64)
            .with("ratio", 2.5f64)
            .with("when", Value::Date(123))
            .with("blob", Value::Bytes(vec![0, 255, 7]))
            .with("tags", Value::Array(vec![Value::Int(1), Value::Null]))
            .with("properties", Value::Doc(nested))
    }

    fn encode_to_vec<T>(value: &T, f: impl Fn(&T, &mut Writer)) -> Vec<u8> {
        let mut w = Writer::new();
        f(value, &mut w);
        w.into_bytes()
    }

    #[test]
    fn value_and_document_roundtrip() {
        let doc = sample_doc("p1");
        let bytes = encode_to_vec(&doc, encode_document);
        let mut r = Reader::new(&bytes);
        let back = decode_document(&mut r).unwrap();
        assert!(r.is_empty(), "document encoding is self-delimiting");
        assert_eq!(back, doc);
        // Deterministic: re-encoding yields identical bytes.
        assert_eq!(encode_to_vec(&back, encode_document), bytes);
    }

    #[test]
    fn unknown_tags_and_bad_flags_are_corrupt() {
        let mut r = Reader::new(&[99]);
        assert!(matches!(decode_value(&mut r), Err(WireError::Corrupt(_))));
        // Bool with an out-of-range payload byte.
        let mut r = Reader::new(&[TAG_BOOL, 9]);
        assert!(matches!(decode_value(&mut r), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // A tower of one-element arrays deeper than the limit.
        let mut bytes = Vec::new();
        for _ in 0..(MAX_VALUE_DEPTH + 2) {
            bytes.push(TAG_ARRAY);
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        bytes.push(TAG_NULL);
        let mut r = Reader::new(&bytes);
        assert!(matches!(decode_value(&mut r), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn collection_roundtrip_preserves_ids_indexes_and_plans() {
        let mut c = Collection::new("metadata", "name");
        c.create_attribute_index("count");
        for i in 0..6 {
            c.insert(sample_doc(&format!("p{i}"))).unwrap();
        }
        // Leave an id gap so the roundtrip must preserve it.
        c.delete_by_key(&"p3".into()).unwrap();

        let bytes = encode_to_vec(&c, encode_collection);
        let back = decode_collection(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.len(), c.len());
        assert_eq!(back.next_id(), c.next_id());
        let ids: Vec<_> = back.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, c.iter().map(|(id, _)| *id).collect::<Vec<_>>());
        // Indexed queries take the same path with the same counts.
        let f = Filter::Eq("count".into(), Value::Int(42));
        let (a, b) = (c.find(&f), back.find(&f));
        assert_eq!(a.ids, b.ids);
        assert_eq!(a.plan, b.plan);
        // The new collection allocates fresh ids above the historical ones.
        let mut back = back;
        let new_id = back.insert(sample_doc("fresh")).unwrap();
        assert_eq!(new_id, c.next_id());
    }

    #[test]
    fn database_roundtrip() {
        let mut db = Database::new();
        db.create_collection("metadata", "name").insert(sample_doc("p")).unwrap();
        db.create_collection("feedback", "id")
            .insert(Document::new().with("id", 0i64).with("text", "hi"))
            .unwrap();
        let bytes = encode_to_vec(&db, encode_database);
        let back = decode_database(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.collection_names(), db.collection_names());
        assert_eq!(back.collection("metadata").unwrap().len(), 1);
        assert_eq!(encode_to_vec(&back, encode_database), bytes);
    }

    #[test]
    fn corrupt_collection_internals_are_rejected() {
        // Duplicate primary keys cannot be restored.
        let mut w = Writer::new();
        w.str("c");
        w.str("name");
        w.u64(10);
        w.seq_len(0); // no attribute indexes
        w.u8(0); // no geo index
        w.seq_len(2);
        for id in [0u64, 1] {
            w.u64(id);
            encode_document(&Document::new().with("name", "dup"), &mut w);
        }
        let buf = w.into_bytes();
        assert!(matches!(decode_collection(&mut Reader::new(&buf)), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn duplicate_document_ids_are_rejected() {
        // Two docs with distinct primary keys but the same internal id: a
        // corruption shape the CRC cannot rule out, which must fail decode
        // instead of building a collection that panics later.
        let mut w = Writer::new();
        w.str("c");
        w.str("name");
        w.u64(10);
        w.seq_len(0); // no attribute indexes
        w.u8(0); // no geo index
        w.seq_len(2);
        for name in ["a", "b"] {
            w.u64(0); // same id twice
            encode_document(&Document::new().with("name", name), &mut w);
        }
        let buf = w.into_bytes();
        assert!(matches!(decode_collection(&mut Reader::new(&buf)), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn collection_delta_roundtrips_and_rejects_corruption() {
        let mut base = Collection::new("metadata", "name");
        for i in 0..4 {
            base.insert(sample_doc(&format!("p{i}"))).unwrap();
        }
        let mut live = base.clone();
        live.delete_by_key(&"p1".into()).unwrap();
        let upserts =
            ["p4", "p5"].map(|name| (live.insert(sample_doc(name)).unwrap(), sample_doc(name)));
        let delta = CollectionDelta {
            name: "metadata".into(),
            next_id: live.next_id(),
            deletes: vec![Value::from("p1")],
            upserts: upserts.to_vec(),
        };

        let bytes = encode_to_vec(&delta, encode_collection_delta);
        let mut r = Reader::new(&bytes);
        let back = decode_collection_delta(&mut r).unwrap();
        assert!(r.is_empty(), "delta encoding is self-delimiting");
        assert_eq!(back, delta);
        assert_eq!(encode_to_vec(&back, encode_collection_delta), bytes);

        base.apply_delta(back).unwrap();
        assert_eq!(base.len(), live.len());
        assert_eq!(base.next_id(), live.next_id());

        // Every strict prefix fails to decode.
        for cut in 0..bytes.len() {
            assert!(
                decode_collection_delta(&mut Reader::new(&bytes[..cut])).is_err(),
                "prefix of {cut}/{} bytes decoded",
                bytes.len()
            );
        }
    }

    #[test]
    fn delta_ids_at_or_above_the_watermark_are_rejected() {
        let delta = crate::CollectionDelta {
            name: "c".into(),
            next_id: 3,
            deletes: vec![],
            upserts: vec![(3, sample_doc("p"))],
        };
        let bytes = encode_to_vec(&delta, encode_collection_delta);
        assert!(matches!(
            decode_collection_delta(&mut Reader::new(&bytes)),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_database_prefixes_error_cleanly() {
        let mut db = Database::new();
        db.create_collection("metadata", "name").insert(sample_doc("p")).unwrap();
        let bytes = encode_to_vec(&db, encode_database);
        for cut in 0..bytes.len() {
            assert!(
                decode_database(&mut Reader::new(&bytes[..cut])).is_err(),
                "strict prefix of {cut}/{} bytes decoded",
                bytes.len()
            );
        }
    }
}
