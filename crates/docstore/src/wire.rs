//! Binary wire format for the document store: values and documents.
//!
//! This is the docstore's half of the durable format (see the repository's
//! `ARCHITECTURE.md`, "Durability"), which stores documents inside WAL
//! records and records chunks: little-endian, length
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
//! ```
//!
//! A document and a `Doc` value hold their fields in strictly ascending key
//! order, which is the only order the encoder writes: a decoder refuses any
//! other, so whatever decodes re-encodes to the bytes it came from.
//!
//! Only *storage* state is serialized; query filters are runtime values and
//! are deliberately not part of the format.  Encoding is deterministic
//! (a [`Fields`] list iterates in key order), so encoding the same logical
//! state twice yields byte-identical output — which is what lets the
//! property suite assert encode→decode→encode fixpoints.  The decoded
//! field vector, already checked ascending, becomes the [`Fields`] list as
//! it is, sized by its count.

use crate::value::{Document, Fields, Value};
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
            for (key, val) in fields.iter() {
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
        TAG_DOC => Ok(Value::Doc(decode_fields(r, depth + 1)?)),
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
    Ok(Document::from(decode_fields(r, 1)?))
}

/// The fields of a document or a `Doc` value whose values sit at `depth`:
/// keys strictly ascending, as the encoder writes them.
fn decode_fields(r: &mut Reader<'_>, depth: usize) -> Result<Fields, WireError> {
    let n = r.seq_len(1)?;
    let mut fields: Vec<(String, Value)> = Vec::with_capacity(n);
    for _ in 0..n {
        let key = r.str()?;
        if fields.last().is_some_and(|(prev, _)| prev.as_str() >= key) {
            return Err(WireError::Corrupt(format!("document keys out of order at {key:?}")));
        }
        fields.push((key.to_string(), decode_value_at(r, depth)?));
    }
    Ok(Fields::from_sorted(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc(name: &str) -> Document {
        let mut nested = Fields::new();
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

    /// A `Doc` value's keys, like a document's, must be strictly
    /// ascending: out of order or repeated, they are corrupt.
    #[test]
    fn nested_keys_out_of_order_are_corrupt() {
        for keys in [["b", "a"], ["a", "a"]] {
            let mut w = Writer::new();
            w.u8(TAG_DOC);
            w.seq_len(2);
            for key in keys {
                w.str(key);
                encode_value(&Value::Null, &mut w);
            }
            let mut r = Reader::new(w.as_bytes());
            assert!(matches!(decode_value(&mut r), Err(WireError::Corrupt(_))), "{keys:?}");
        }
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
}
