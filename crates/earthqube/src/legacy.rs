//! The legacy checkpoint format: read and translated into WAL records,
//! never written.
//!
//! Directories written before records chunks (tag 6, see the crate's
//! `persist` module) hold the document store itself: one full collection
//! per `coll:NAME` chunk (tag 2), deltas layered on it, one per
//! `delta:NAME` chunk (tag 3), and the image table in dense-id ranges, one
//! per `images:START` chunk (tag 4).  This module owns that format whole
//! and builds no docstore: a collection is two plain maps, documents by id
//! and ids by primary key, and a delta applies to them deletes first, then
//! upserts.  What comes out is the records the same writes would have
//! logged, which recovery applies like any others.
//!
//! ```text
//! coll   := 2 name pk next_id:u64
//!           attrs:u32 string*                (attribute-index fields)
//!           geo:u8 [string]                  (optional geo-index field)
//!           docs:u32 (doc_id:u64 document)*
//! delta  := 3 name next_id:u64
//!           deletes:u32 value*               (primary keys)
//!           upserts:u32 (doc_id:u64 document)*
//! images := 4 start:u64 n:u32 (patch_metadata code)*
//! ```
//!
//! Chunks apply in manifest order: a full collection replaces its base and
//! the deltas before it.  Ids lie below their chunk's `next_id`, a delta's
//! upserts ascend from its base's `next_id`, and no id or primary key is
//! stored twice; bytes that break a rule are [`EarthQubeError::Persist`].
//! A delete of a key the base never held is tolerated (the document came
//! and went inside the delta's window).  The index declarations are read
//! and dropped: recovery rebuilds every index from the records.

use std::collections::BTreeMap;
use std::ops::Range;

use eq_bigearthnet::patch::PatchMetadata;
use eq_bigearthnet::wire::decode_patch_metadata;
use eq_docstore::wire::{decode_document, decode_value};
use eq_docstore::{DocId, Document, Value};
use eq_hashindex::BinaryCode;
use eq_wire::{Reader, WireError};

use crate::persist::{self, corrupt, WalRecord};
use crate::schema::{collections, fields};
use crate::EarthQubeError;

/// The legacy chunk tags: a collection, a delta, an image range.
pub(crate) const CHUNK_COLLECTION: u8 = 2;
const CHUNK_DELTA: u8 = 3;
pub(crate) const CHUNK_IMAGES: u8 = 4;

/// The manifest kind prefixes of the legacy chunks, in tag order.
const KINDS: [&str; 3] = ["coll:", "delta:", "images:"];

/// Whether a manifest kind names a legacy chunk.
pub(crate) fn is_kind(kind: &str) -> bool {
    KINDS.iter().any(|prefix| kind.starts_with(prefix))
}

/// One decoded legacy chunk body.
pub(crate) enum Chunk {
    /// A full collection: replaces its base and any prior deltas.
    Collection(Collection),
    /// A delta layered on the collection's current base.
    Delta(Delta),
    /// A dense-id range of per-image metadata and binary codes: its first
    /// dense id, then the pairs in dense-id order.
    Images(u64, Vec<(PatchMetadata, BinaryCode)>),
}

impl Chunk {
    /// Decodes a chunk body past its tag, one of
    /// `CHUNK_COLLECTION..=CHUNK_IMAGES`.
    pub(crate) fn decode(tag: u8, r: &mut Reader<'_>) -> Result<Self, EarthQubeError> {
        let chunk = match tag {
            CHUNK_COLLECTION => Collection::decode(r).map(Chunk::Collection),
            CHUNK_DELTA => Delta::decode(r).map(Chunk::Delta),
            _ => decode_images(r),
        };
        chunk.map_err(corrupt)
    }

    /// The manifest kind this chunk must be filed under.
    pub(crate) fn kind(&self) -> String {
        match self {
            Chunk::Collection(c) => format!("{}{}", KINDS[0], c.name),
            Chunk::Delta(d) => format!("{}{}", KINDS[1], d.name),
            Chunk::Images(start, _) => format!("{}{start}", KINDS[2]),
        }
    }
}

fn decode_images(r: &mut Reader<'_>) -> Result<Chunk, WireError> {
    let start = r.u64()?;
    let images =
        (0..r.seq_len(8)?).map(|_| Ok((decode_patch_metadata(r)?, BinaryCode::decode(r)?)));
    Ok(Chunk::Images(start, images.collect::<Result<_, WireError>>()?))
}

/// A collection as the legacy chunks carry it.
pub(crate) struct Collection {
    name: String,
    primary_key: String,
    next_id: DocId,
    docs: BTreeMap<DocId, Document>,
    ids: BTreeMap<Value, DocId>,
}

impl Collection {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (name, primary_key) = (r.str()?.to_string(), r.str()?.to_string());
        let next_id = r.u64()?;
        for _ in 0..r.seq_len(1)? {
            r.str()?;
        }
        match r.u8()? {
            0 => {}
            1 => _ = r.str()?,
            other => {
                return Err(WireError::Corrupt(format!("invalid geo-index flag {other:#04x}")))
            }
        }
        let (docs, ids) = (BTreeMap::new(), BTreeMap::new());
        let mut collection = Collection { name, primary_key, next_id, docs, ids };
        for _ in 0..r.seq_len(8)? {
            let (id, doc) = (r.u64()?, decode_document(r)?);
            collection.store(id, doc, 0..next_id).map_err(|e| {
                WireError::Corrupt(format!("collection {:?} is inconsistent: {e}", collection.name))
            })?;
        }
        Ok(collection)
    }

    /// Stores `doc` under `id`, refusing an id outside `range` or already
    /// stored, and a primary key missing or already stored.
    fn store(&mut self, id: DocId, doc: Document, range: Range<DocId>) -> Result<(), String> {
        if !range.contains(&id) || self.docs.contains_key(&id) {
            return Err(format!("document id {id} is stored or outside {range:?}"));
        }
        let Some(key) = doc.get(&self.primary_key) else {
            return Err(format!("a document is missing primary key field {}", self.primary_key));
        };
        if self.ids.contains_key(key) {
            return Err(format!("duplicate primary key: {key:?}"));
        }
        self.ids.insert(key.clone(), id);
        self.docs.insert(id, doc);
        Ok(())
    }

    /// Applies a delta: deletes first, then upserts in ascending id order
    /// from the collection's `next_id` to the delta's, where `next_id`
    /// then stands.
    fn apply(&mut self, delta: Delta) -> Result<(), String> {
        for key in &delta.deletes {
            if let Some(id) = self.ids.remove(key) {
                self.docs.remove(&id);
            }
        }
        let mut floor = self.next_id;
        for (id, doc) in delta.upserts {
            self.store(id, doc, floor..delta.next_id)?;
            floor = id + 1;
        }
        self.next_id = self.next_id.max(delta.next_id);
        Ok(())
    }

    /// The document stored under a primary key.
    fn get(&self, key: &Value) -> Option<&Document> {
        self.ids.get(key).and_then(|id| self.docs.get(id))
    }
}

/// The documents that changed in one collection since its base: the
/// primary keys deleted, then the documents inserted under their ids.
pub(crate) struct Delta {
    name: String,
    next_id: DocId,
    deletes: Vec<Value>,
    upserts: Vec<(DocId, Document)>,
}

impl Delta {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (name, next_id) = (r.str()?.to_string(), r.u64()?);
        let deletes = (0..r.seq_len(1)?).map(|_| decode_value(r)).collect::<Result<_, _>>()?;
        let upserts = (0..r.seq_len(8)?).map(|_| Ok((r.u64()?, decode_document(r)?)));
        Ok(Delta { name, next_id, deletes, upserts: upserts.collect::<Result<_, WireError>>()? })
    }
}

/// What a legacy directory's chunks hold once applied in manifest order.
#[derive(Default)]
pub(crate) struct Legacy {
    collections: BTreeMap<String, Collection>,
    ranges: Vec<(u64, Vec<(PatchMetadata, BinaryCode)>)>,
}

impl Legacy {
    /// Applies the next chunk in manifest order.
    pub(crate) fn apply(&mut self, chunk: Chunk) -> Result<(), EarthQubeError> {
        match chunk {
            Chunk::Collection(collection) => {
                self.collections.insert(collection.name.clone(), collection);
            }
            Chunk::Delta(delta) => {
                let applied = match self.collections.get_mut(&delta.name) {
                    Some(base) => base.apply(delta),
                    None => Err(format!("no such collection: {}", delta.name)),
                };
                applied.map_err(|e| {
                    EarthQubeError::Persist(format!("collection delta does not apply: {e}"))
                })?;
            }
            Chunk::Images(start, images) => self.ranges.push((start, images)),
        }
        Ok(())
    }

    /// Whether no legacy chunk was applied.
    pub(crate) fn is_empty(&self) -> bool {
        self.collections.is_empty() && self.ranges.is_empty()
    }

    /// The records the same writes would have logged: one ingest record
    /// per image, in dense-id order, with its stored documents (keyed by its
    /// name) as its raster bytes, then one feedback record per stored entry
    /// with an integer id and a text, in ascending document id.  Applying
    /// them checks that the ranges tile.
    pub(crate) fn into_records(self) -> Result<Vec<WalRecord>, EarthQubeError> {
        let Legacy { collections: stored, mut ranges } = self;
        ranges.sort_by_key(|(start, _)| *start);
        let document = |name: &str, key: &Value| {
            let doc = stored.get(name).and_then(|c| c.get(key));
            doc.filter(|doc| doc.get(fields::NAME) == Some(key)).ok_or_else(|| {
                EarthQubeError::Persist(format!("the legacy {name} collection lacks {key:?}"))
            })
        };
        let mut records = Vec::new();
        for (meta, code) in ranges.into_iter().flat_map(|(_, range)| range) {
            let key = Value::Str(meta.name.clone());
            let image_doc = document(collections::IMAGE_DATA, &key)?;
            let rendered_doc = document(collections::RENDERED, &key)?;
            let rasters = persist::encode_rasters(image_doc, rendered_doc);
            records.push(WalRecord::Ingest { meta, code, rasters });
        }
        let feedback = stored.get(collections::FEEDBACK).map(|c| c.docs.values());
        for doc in feedback.into_iter().flatten() {
            if doc.get("id").and_then(Value::as_int).is_none() {
                continue;
            }
            let Some(text) = doc.get("text").and_then(Value::as_str) else { continue };
            let category = doc.get("category").and_then(Value::as_str).map(str::to_string);
            records.push(WalRecord::Feedback { text: text.to_string(), category });
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_bigearthnet::wire::encode_patch_metadata;
    use eq_bigearthnet::{ArchiveGenerator, GeneratorConfig};
    use eq_docstore::wire::{encode_document, encode_value};
    use eq_wire::Writer;

    /// A `coll:` body past its tag, keyed by `name`.
    fn coll(name: &str, next_id: DocId, geo: u8, docs: &[(DocId, Document)]) -> Vec<u8> {
        keyed_coll(name, "name", next_id, geo, docs)
    }

    /// A `coll:` body past its tag, keyed by the field `key`.
    fn keyed_coll(
        name: &str,
        key: &str,
        next_id: DocId,
        geo: u8,
        docs: &[(DocId, Document)],
    ) -> Vec<u8> {
        let mut w = Writer::new();
        w.str(name);
        w.str(key);
        w.u64(next_id);
        w.seq_len(1);
        w.str("country");
        w.u8(geo);
        if geo == 1 {
            w.str("location");
        }
        w.seq_len(docs.len());
        for (id, doc) in docs {
            w.u64(*id);
            encode_document(doc, &mut w);
        }
        w.into_bytes()
    }

    /// A `delta:` body past its tag.
    fn delta(
        name: &str,
        next_id: DocId,
        deletes: &[&str],
        upserts: &[(DocId, Document)],
    ) -> Vec<u8> {
        let mut w = Writer::new();
        w.str(name);
        w.u64(next_id);
        w.seq_len(deletes.len());
        for key in deletes {
            encode_value(&Value::from(*key), &mut w);
        }
        w.seq_len(upserts.len());
        for (id, doc) in upserts {
            w.u64(*id);
            encode_document(doc, &mut w);
        }
        w.into_bytes()
    }

    fn doc(name: &str) -> Document {
        Document::new().with("name", name)
    }

    fn note(name: &str, text: &str) -> Document {
        doc(name).with("id", 0i64).with("text", text)
    }

    fn decode(tag: u8, body: &[u8]) -> Result<Chunk, EarthQubeError> {
        let mut r = Reader::new(body);
        let chunk = Chunk::decode(tag, &mut r)?;
        assert!(r.is_empty(), "a legacy body is self-delimiting");
        Ok(chunk)
    }

    /// Applies the chunks in order, as recovery does.
    fn applied(chunks: &[(u8, Vec<u8>)]) -> Result<Legacy, EarthQubeError> {
        let mut legacy = Legacy::default();
        for (tag, body) in chunks {
            legacy.apply(decode(*tag, body)?)?;
        }
        Ok(legacy)
    }

    fn feedback_texts(legacy: Legacy) -> Vec<String> {
        let records = legacy.into_records().unwrap();
        let text = |record| match record {
            WalRecord::Feedback { text, .. } => text,
            WalRecord::Ingest { .. } => panic!("an ingest record from no image range"),
        };
        records.into_iter().map(text).collect()
    }

    #[test]
    fn a_delta_applies_deletes_first_then_upserts_in_id_order() {
        let base = [(0, note("a", "one")), (1, note("b", "two")), (3, note("c", "four"))];
        // `b` is deleted and upserted again under a fresh id, which only
        // a deletes-first order accepts; `ghost` came and went inside the
        // delta's window; a document without an id or a text is no
        // feedback entry.
        let no_text = doc("f").with("id", 1i64);
        let upserts =
            [(4, note("b", "two again")), (5, doc("d")), (6, note("e", "six")), (7, no_text)];
        let chunks = [
            (CHUNK_COLLECTION, coll(collections::FEEDBACK, 4, 0, &base)),
            (CHUNK_DELTA, delta(collections::FEEDBACK, 8, &["ghost", "b"], &upserts)),
        ];
        let texts = feedback_texts(applied(&chunks).unwrap());
        assert_eq!(texts, ["one", "four", "two again", "six"]);
        // A second full collection replaces the base and its deltas.
        let chunks = [
            chunks[0].clone(),
            chunks[1].clone(),
            (CHUNK_COLLECTION, coll(collections::FEEDBACK, 1, 1, &[(0, note("z", "only"))])),
        ];
        assert_eq!(feedback_texts(applied(&chunks).unwrap()), ["only"]);
    }

    #[test]
    fn every_inconsistent_body_is_refused() {
        let c = |next_id, geo, docs: &[(DocId, Document)]| {
            (CHUNK_COLLECTION, coll("c", next_id, geo, docs))
        };
        let d = |next_id, deletes: &[&str], upserts: &[(DocId, Document)]| {
            (CHUNK_DELTA, delta("c", next_id, deletes, upserts))
        };
        let base = c(3, 0, &[(0, doc("a")), (2, doc("b"))]);
        let refused = [
            ("an id at the collection's next_id", vec![c(2, 0, &[(2, doc("a"))])]),
            ("a duplicate id", vec![c(5, 0, &[(1, doc("a")), (1, doc("b"))])]),
            ("a missing primary key", vec![c(5, 0, &[(1, Document::new())])]),
            ("a duplicate primary key", vec![c(5, 0, &[(1, doc("a")), (2, doc("a"))])]),
            ("a bad geo flag", vec![c(5, 2, &[])]),
            (
                "upserts out of order",
                vec![base.clone(), d(9, &[], &[(5, doc("x")), (4, doc("y"))])],
            ),
            ("an upsert at the delta's next_id", vec![base.clone(), d(5, &[], &[(5, doc("x"))])]),
            ("an upsert below the base", vec![base.clone(), d(9, &[], &[(1, doc("x"))])]),
            ("an upsert of a stored key", vec![base.clone(), d(9, &[], &[(4, doc("a"))])]),
            ("an upsert without a key", vec![base.clone(), d(9, &[], &[(4, Document::new())])]),
            ("a delta of no collection", vec![(CHUNK_DELTA, delta("d", 9, &[], &[]))]),
        ];
        for (what, chunks) in refused {
            assert!(matches!(applied(&chunks), Err(EarthQubeError::Persist(_))), "{what} accepted");
        }
        let accepted = d(9, &["a"], &[(4, doc("a"))]);
        assert!(applied(&[base.clone(), accepted.clone()]).is_ok());
        // Every strict prefix of a body is refused too.
        for (tag, body) in [base, accepted] {
            for cut in 0..body.len() {
                assert!(decode(tag, &body[..cut]).is_err(), "a prefix of {cut} bytes decoded");
            }
        }
    }

    #[test]
    fn image_ranges_become_ingest_records_in_dense_id_order() {
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(3, 5)).unwrap().generate();
        let metas: Vec<&PatchMetadata> = archive.patches().iter().map(|p| &p.meta).collect();
        let range = |start: usize, metas: &[&PatchMetadata]| {
            let mut w = Writer::new();
            w.u64(start as u64);
            w.seq_len(metas.len());
            for (i, meta) in metas.iter().enumerate() {
                encode_patch_metadata(meta, &mut w);
                BinaryCode::from_words(8, vec![(start + i) as u64]).encode(&mut w);
            }
            (CHUNK_IMAGES, w.into_bytes())
        };
        let stored: Vec<_> =
            metas.iter().enumerate().map(|(i, m)| (i as DocId, doc(&m.name))).collect();
        let mut chunks = vec![
            range(1, &metas[1..]),
            (CHUNK_COLLECTION, coll(collections::IMAGE_DATA, 3, 0, &stored)),
            (CHUNK_COLLECTION, coll(collections::RENDERED, 3, 0, &stored)),
            range(0, &metas[..1]),
        ];
        let records = applied(&chunks).unwrap().into_records().unwrap();
        let names: Vec<&str> = records
            .iter()
            .map(|record| match record {
                WalRecord::Ingest { meta, rasters, .. } => {
                    let mut r = Reader::new(rasters);
                    let docs = persist::read_rasters(&mut r, &meta.name).unwrap();
                    assert!(r.is_empty() && docs == [doc(&meta.name), doc(&meta.name)]);
                    meta.name.as_str()
                }
                WalRecord::Feedback { .. } => panic!("a feedback record from no feedback"),
            })
            .collect();
        assert_eq!(names, metas.iter().map(|m| m.name.as_str()).collect::<Vec<_>>());
        // An image whose rendered document is missing is refused, and so is
        // one whose rendered document is keyed by another name.
        chunks[2] = (CHUNK_COLLECTION, coll(collections::RENDERED, 3, 0, &stored[..2]));
        assert!(applied(&chunks).unwrap().into_records().is_err());
        let aliased: Vec<_> = metas
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let name = if i == 1 { "someone-else" } else { &m.name };
                (i as DocId, doc(name).with("alias", m.name.as_str()))
            })
            .collect();
        chunks[2] = (CHUNK_COLLECTION, keyed_coll(collections::RENDERED, "alias", 3, 0, &aliased));
        assert!(matches!(
            applied(&chunks).unwrap().into_records(),
            Err(EarthQubeError::Persist(e)) if e.contains(&metas[1].name)
        ));
    }
}
