//! Property tests of the wire format: arbitrary values and patch-shaped
//! documents must round-trip encode→decode byte-identically, and decoding
//! any truncated or bit-flipped input must return a clean error — never
//! panic, never over-allocate.  Under them, the field list the codec
//! writes and reads must behave as a `BTreeMap` of the same fields:
//! collected or set one field at a time, it iterates, answers `get`,
//! compares and prints as the map does, the last value winning on a
//! repeated key.
//!
//! Arbitrary `Value` trees are grown by interpreting a random byte script,
//! which gives the vendored (non-recursive) proptest stub full coverage of
//! the recursive value grammar, including arbitrary `f64` bit patterns
//! (NaNs with payloads, -0.0) and non-UTF-8-adjacent strings.

use eq_docstore::wire::{decode_document, decode_value, encode_document, encode_value};
use eq_docstore::{Document, Fields, Value};
use eq_wire::{Reader, Writer};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Consumes up to `n` bytes of the script as a big-endian integer; an
/// exhausted script reads as zeros.
fn take(script: &mut &[u8], n: usize) -> u64 {
    let mut out = 0u64;
    for _ in 0..n {
        let (byte, rest) = match script.split_first() {
            Some((b, rest)) => (*b, rest),
            None => (0, *script),
        };
        *script = rest;
        out = (out << 8) | byte as u64;
    }
    out
}

/// Interprets a byte script as one `Value`.  Every script byte is consumed
/// at most once, scripts of any content are valid, and nesting is bounded
/// by construction — exactly what a generator for a recursive grammar
/// needs under a strategy stub without recursion support.
fn value_from_script(script: &mut &[u8], depth: u32) -> Value {
    let op = take(script, 1) % 9;
    // Past depth 3, collapse the recursive variants to scalars.
    let op = if depth >= 3 && (op == 5 || op == 6) { op - 4 } else { op };
    match op {
        0 => Value::Null,
        1 => Value::Bool(take(script, 1) % 2 == 1),
        2 => Value::Int(take(script, 8) as i64),
        3 => Value::Float(f64::from_bits(take(script, 8))),
        4 => {
            let len = (take(script, 1) % 9) as usize;
            let mut s = String::new();
            for _ in 0..len {
                // A spread of code points incl. multi-byte ones.
                let c = char::from_u32((take(script, 2) as u32) % 0xD7FF).unwrap_or('ø');
                s.push(c);
            }
            Value::Str(s)
        }
        5 => {
            let n = (take(script, 1) % 4) as usize;
            Value::Array((0..n).map(|_| value_from_script(script, depth + 1)).collect())
        }
        6 => {
            let n = (take(script, 1) % 4) as usize;
            let mut fields = eq_docstore::Fields::new();
            for i in 0..n {
                let key = format!("k{}_{}", i, take(script, 1));
                fields.insert(key, value_from_script(script, depth + 1));
            }
            Value::Doc(fields)
        }
        7 => {
            let len = (take(script, 1) % 16) as usize;
            Value::Bytes((0..len).map(|_| take(script, 1) as u8).collect())
        }
        _ => Value::Date(take(script, 8) as i64),
    }
}

/// A patch-shaped document: the metadata-collection layout (name, dense
/// id, location pair, bbox quad, nested properties) with script-driven
/// field values, plus a few entirely arbitrary extra fields.
fn document_from_script(script: &mut &[u8]) -> Document {
    let mut properties = eq_docstore::Fields::new();
    properties.insert("labels".to_string(), Value::Str("ABC".into()));
    properties.insert("date".to_string(), Value::Date(take(script, 8) as i64));
    let mut doc = Document::new()
        .with("name", format!("patch_{}", take(script, 4)))
        .with("patch_id", take(script, 4) as i64)
        .with(
            "location",
            Value::Array(vec![
                Value::Float(f64::from_bits(take(script, 8))),
                Value::Float(f64::from_bits(take(script, 8))),
            ]),
        )
        .with("properties", Value::Doc(properties));
    for i in 0..(take(script, 1) % 4) {
        doc.set(&format!("extra_{i}"), value_from_script(script, 1));
    }
    doc
}

fn encoded_value(value: &Value) -> Vec<u8> {
    let mut w = Writer::new();
    encode_value(value, &mut w);
    w.into_bytes()
}

fn encoded_document(doc: &Document) -> Vec<u8> {
    let mut w = Writer::new();
    encode_document(doc, &mut w);
    w.into_bytes()
}

/// Field names with shared prefixes, an empty and a multi-byte one, and
/// byte orders that differ from char orders' intuition (`B` < `a`).
const KEYS: [&str; 10] = ["", "a", "ab", "abc", "b", "B", "b2", "é", "z", "aé"];

/// Turns drawn `(key, value)` indexes into a field sequence.  `shape`
/// picks it as drawn (repeats anywhere), sorted with its repeats kept side
/// by side, or strictly ascending (the input a collect may take as it is).
fn field_sequence(draws: &[(usize, i64)], shape: u8) -> Vec<(String, Value)> {
    let mut fields: Vec<(String, Value)> =
        draws.iter().map(|&(k, v)| (KEYS[k].to_string(), Value::Int(v))).collect();
    if shape > 0 {
        fields.sort_by(|a, b| a.0.cmp(&b.0));
    }
    if shape > 1 {
        fields.dedup_by(|later, kept| later.0 == kept.0);
    }
    fields
}

/// A field list's `(key, value)` pairs as its iterator yields them.
fn pairs<'a>(fields: impl Iterator<Item = (&'a String, &'a Value)>) -> Vec<(String, Value)> {
    fields.map(|(k, v)| (k.clone(), v.clone())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Collected, and built by `insert` one field at a time, a field list
    /// agrees with a `BTreeMap` fed the same sequence: the same fields in
    /// the same order, the last value of a repeated key, the same `get`
    /// answers for present and absent keys, the same replaced values, the
    /// same `Debug` text and the same order between two lists.
    #[test]
    fn fields_behave_as_a_btreemap_of_the_same_fields(
        draws in proptest::collection::vec((0usize..KEYS.len(), -3i64..1000), 0..48),
        others in proptest::collection::vec((0usize..KEYS.len(), -3i64..4), 0..6),
        shape in 0u8..3,
    ) {
        let sequence = field_sequence(&draws, shape);
        let reference: BTreeMap<String, Value> = sequence.iter().cloned().collect();
        let want = pairs(reference.iter());

        let collected: Fields = sequence.iter().cloned().collect();
        prop_assert_eq!(pairs(collected.iter()), want.clone());
        prop_assert_eq!(collected.len(), reference.len());
        let document: Document = sequence.iter().cloned().collect();
        prop_assert_eq!(pairs(document.iter()), want.clone());

        let mut inserted = Fields::new();
        let mut map = BTreeMap::new();
        let mut set = Document::new();
        for (key, value) in &sequence {
            prop_assert_eq!(
                inserted.insert(key.clone(), value.clone()),
                map.insert(key.clone(), value.clone())
            );
            set.set(key, value.clone());
        }
        prop_assert_eq!(pairs(inserted.iter()), want.clone());
        prop_assert_eq!(pairs(set.iter()), want);

        for key in KEYS {
            prop_assert_eq!(collected.get(key), reference.get(key));
            prop_assert_eq!(inserted.get(key), reference.get(key));
            prop_assert_eq!(document.get(key), reference.get(key));
        }
        prop_assert_eq!(format!("{collected:?}"), format!("{reference:?}"));
        prop_assert_eq!(&collected, &inserted);

        let other_sequence = field_sequence(&others, 0);
        let other_reference: BTreeMap<String, Value> = other_sequence.iter().cloned().collect();
        let other: Fields = other_sequence.into_iter().collect();
        prop_assert_eq!(
            Value::Doc(collected.clone()).cmp(&Value::Doc(other.clone())),
            reference.iter().cmp(other_reference.iter())
        );
        prop_assert_eq!(collected == other, reference == other_reference);
    }

    /// encode→decode→encode is a byte-identical fixpoint for arbitrary
    /// values (bit-pattern equality even for NaN floats, which `==` on the
    /// decoded `Value` could not check).
    #[test]
    fn value_roundtrip_is_byte_identical(script in proptest::collection::vec(0u8..=255u8, 0..96)) {
        let value = value_from_script(&mut script.as_slice(), 0);
        let bytes = encoded_value(&value);
        let mut r = Reader::new(&bytes);
        let decoded = decode_value(&mut r).expect("own encoding must decode");
        prop_assert!(r.is_empty(), "value encoding must be self-delimiting");
        prop_assert_eq!(encoded_value(&decoded), bytes);
    }

    /// Patch-shaped documents round-trip byte-identically as well.
    #[test]
    fn patch_document_roundtrip_is_byte_identical(
        script in proptest::collection::vec(0u8..=255u8, 0..96),
    ) {
        let doc = document_from_script(&mut script.as_slice());
        let bytes = encoded_document(&doc);
        let mut r = Reader::new(&bytes);
        let decoded = decode_document(&mut r).expect("own encoding must decode");
        prop_assert!(r.is_empty());
        prop_assert_eq!(encoded_document(&decoded), bytes);
    }

    /// Every strict prefix of a valid encoding fails to decode — with an
    /// error, not a panic.  (Each encoded byte is required, so truncation
    /// anywhere must surface as `UnexpectedEof`/`Corrupt`.)
    #[test]
    fn truncated_prefixes_return_clean_errors(
        script in proptest::collection::vec(0u8..=255u8, 0..64),
    ) {
        let value = value_from_script(&mut script.as_slice(), 0);
        let bytes = encoded_value(&value);
        for cut in 0..bytes.len() {
            let result = decode_value(&mut Reader::new(&bytes[..cut]));
            prop_assert!(result.is_err(), "prefix of {}/{} bytes decoded", cut, bytes.len());
        }
    }

    /// Decoding a bit-flipped encoding never panics and never allocates
    /// absurdly: it either fails cleanly or yields some other valid value
    /// (a flip inside an integer payload is still a well-formed integer).
    #[test]
    fn bit_flips_never_panic(
        script in proptest::collection::vec(0u8..=255u8, 1..64),
        flip in 0usize..4096,
    ) {
        let value = value_from_script(&mut script.as_slice(), 0);
        let mut bytes = encoded_value(&value);
        let bit = flip % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        // Must not panic; both Ok and Err are acceptable outcomes.
        let result = decode_value(&mut Reader::new(&bytes));
        if let Ok(decoded) = result {
            // Whatever decoded must itself re-encode and re-decode.
            let rebytes = encoded_value(&decoded);
            prop_assert!(decode_value(&mut Reader::new(&rebytes)).is_ok());
        }
    }

    /// Same corruption-safety for the document decoder, which additionally
    /// validates key ordering.
    #[test]
    fn document_bit_flips_never_panic(
        script in proptest::collection::vec(0u8..=255u8, 1..64),
        flip in 0usize..4096,
    ) {
        let doc = document_from_script(&mut script.as_slice());
        let mut bytes = encoded_document(&doc);
        let bit = flip % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let _ = decode_document(&mut Reader::new(&bytes));
    }
}
