//! Property: every codec accepts only what it writes.  For a random value,
//! decode ∘ encode is the identity and the value re-encodes to its own
//! bytes; for a valid encoding with one byte damaged (overwritten, or one
//! bit flipped), decode either fails with the codec's typed error or
//! returns a value whose encoding is exactly the damaged bytes.  A lenient
//! decoder (a masked label bit, a case-folded country, a dropped stats
//! counter, a reordered document key) fails it.
//!
//! This file holds the public codecs: requests and responses of every
//! kind (a stats snapshot included), patches, the checkpoint manifest and
//! docstore values and documents.  The durable tier's own codecs (WAL
//! records, records chunk bodies) are `pub(crate)`, so their half of the
//! property lives in `persist.rs`'s tests.
//!
//! Values are grown by interpreting a random byte script, as in
//! `eq_proto`'s `proto_roundtrip.rs`; an exhausted script reads as zeros.

use std::fmt::Debug;

use eq_bigearthnet::bands::BandData;
use eq_bigearthnet::patch::{AcquisitionDate, Patch, PatchId, PatchMetadata, Satellite, Season};
use eq_bigearthnet::wire::{decode_patch, encode_patch};
use eq_bigearthnet::{Country, Label, LabelSet};
use eq_docstore::{decode_document, decode_value, encode_document, encode_value, Document, Value};
use eq_geo::{BBox, Circle, GeoShape, Point, Polygon};
use eq_proto::{
    ErrorCode, ErrorPayload, FilterStrategy, FilteredPayload, FilteredPlan, IngestReport,
    LabelFilterSpec, LabelOp, PlanSpec, PrefilterMode, QuerySpec, ReplBatch, ReplState, Request,
    RequestBody, Response, ResponseBody, ResultEntry, SearchPayload, ServerStats,
};
use eq_wire::manifest::{decode_manifest, encode_manifest, ChunkEntry, Manifest};
use eq_wire::{Reader, WireError, Writer};
use proptest::prelude::*;

/// A random value's source: a byte script read front to back.
struct Script<'a>(&'a [u8]);

impl Script<'_> {
    /// The next `n` bytes as a big-endian integer.
    fn take(&mut self, n: usize) -> u64 {
        (0..n).fold(0, |out, _| {
            let (byte, rest) = self.0.split_first().map_or((0, self.0), |(b, rest)| (*b, rest));
            self.0 = rest;
            out << 8 | u64::from(byte)
        })
    }

    fn below(&mut self, n: u64) -> u64 {
        self.take(2) % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    fn coin(&mut self) -> bool {
        self.take(1) % 2 == 1
    }

    fn string(&mut self) -> String {
        let len = self.below(9);
        (0..len).map(|_| char::from_u32(self.take(2) as u32 % 0xD7FF).unwrap_or('ø')).collect()
    }

    fn date(&mut self) -> AcquisitionDate {
        let (year, month, day) = (self.below(10_000), 1 + self.below(12), 1 + self.below(31));
        AcquisitionDate::new(year as u16, month as u8, day as u8).expect("in-range date")
    }

    fn labels(&mut self) -> LabelSet {
        LabelSet::from_bits(self.take(8) & ((1 << Label::COUNT) - 1))
    }

    fn coord(&mut self) -> f64 {
        self.take(1) as f64 / 4.0 - 30.0
    }

    fn bbox(&mut self) -> BBox {
        let (lon, lat) = (self.coord(), self.coord());
        BBox::new(lon, lat, lon + self.take(1) as f64 / 8.0, lat + 1.0).expect("ordered bbox")
    }

    fn shape(&mut self) -> GeoShape {
        match self.below(3) {
            0 => GeoShape::Rect(self.bbox()),
            1 => {
                let center = Point::new(self.coord(), self.coord()).expect("in-range point");
                GeoShape::Circle(Circle::new(center, 1.0 + self.take(1) as f64).expect("radius"))
            }
            _ => {
                let n = 3 + self.below(4) as usize;
                let vertices = (0..n)
                    .map(|i| Point::new(self.coord() + i as f64, self.coord() - i as f64))
                    .collect::<Result<_, _>>()
                    .expect("in-range points");
                GeoShape::Polygon(Polygon::new(vertices).expect("non-degenerate polygon"))
            }
        }
    }

    fn query(&mut self) -> QuerySpec {
        let shape = self.coin().then(|| self.shape());
        let date_range = self.coin().then(|| {
            let (a, b) = (self.date(), self.date());
            (a.min(b), a.max(b))
        });
        QuerySpec {
            shape,
            date_range,
            satellites: (0..self.below(3)).map(|_| self.pick(&Satellite::ALL)).collect(),
            seasons: (0..self.below(5)).map(|_| self.pick(&Season::ALL)).collect(),
            countries: (0..self.below(4)).map(|_| self.pick(&Country::ALL)).collect(),
            labels: self.coin().then(|| LabelFilterSpec {
                op: self.pick(&[LabelOp::Some, LabelOp::Exactly, LabelOp::AtLeastAndMore]),
                labels: (0..self.below(5)).map(|_| self.pick(&Label::ALL)).collect(),
            }),
        }
    }

    fn band(&mut self) -> BandData {
        let size = self.below(3) as usize;
        BandData::from_pixels(size, (0..size * size).map(|_| self.take(2) as u16).collect())
    }

    fn patch(&mut self) -> Patch {
        let meta = PatchMetadata {
            id: PatchId(self.take(4) as u32),
            name: self.string(),
            bbox: self.bbox(),
            labels: self.labels(),
            country: self.pick(&Country::ALL),
            date: self.date(),
        };
        let s2_bands = (0..self.below(3)).map(|_| self.band()).collect();
        let s1_bands = (0..self.below(2)).map(|_| self.band()).collect();
        Patch { meta, s2_bands, s1_bands }
    }

    fn request(&mut self) -> Request {
        let id = self.take(8);
        let body = match self.below(12) {
            0 => RequestBody::Ping,
            1 => RequestBody::Search(self.query()),
            2 => RequestBody::SimilarTo { name: self.string(), k: self.take(2) },
            3 => RequestBody::SearchByNewExample { patch: Box::new(self.patch()), k: self.take(2) },
            4 => {
                RequestBody::Ingest { patches: (0..self.below(3)).map(|_| self.patch()).collect() }
            }
            5 => RequestBody::Feedback {
                text: self.string(),
                category: self.coin().then(|| self.string()),
            },
            6 => RequestBody::Stats,
            7 => RequestBody::MetricsText,
            8 => RequestBody::SimilarToFiltered {
                name: self.string(),
                k: self.take(2),
                spec: self.query(),
                mode: self.mode(),
            },
            9 => RequestBody::SimilarWithinFiltered {
                name: self.string(),
                radius: self.take(4) as u32,
                spec: self.query(),
                mode: self.mode(),
            },
            10 => RequestBody::ReplState,
            _ => RequestBody::ReplPull {
                generation: self.take(4) as u32,
                ingested: self.take(8),
                feedback: self.take(8),
                tails: [self.take(4) as u32, self.take(4) as u32],
                max_bytes: self.take(8),
            },
        };
        Request { id, body }
    }

    fn mode(&mut self) -> PrefilterMode {
        self.pick(&[
            PrefilterMode::Auto,
            PrefilterMode::ForceBitmap,
            PrefilterMode::ForcePostFilter,
        ])
    }

    fn search(&mut self) -> SearchPayload {
        let row = |s: &mut Self| ResultEntry {
            name: s.string(),
            country: s.pick(&Country::ALL),
            date: s.date(),
            labels: s.labels(),
            distance: s.coin().then(|| s.take(4) as u32),
        };
        SearchPayload {
            rows: (0..self.below(4)).map(|_| row(self)).collect(),
            page_size: self.take(8),
            label_counts: (0..self.below(50)).map(|_| self.take(4) as u32).collect(),
            image_count: self.take(8),
            plan: self.coin().then(|| PlanSpec {
                index_used: self.coin().then(|| self.string()),
                scanned: self.take(8),
                matched: self.take(8),
            }),
        }
    }

    fn response(&mut self) -> Response {
        let id = self.take(8);
        let body = match self.below(10) {
            0 => ResponseBody::Pong,
            1 => ResponseBody::Search(self.search()),
            2 => ResponseBody::Ingest(IngestReport {
                metadata_docs: self.take(8) as usize,
                image_docs: self.take(8) as usize,
                rendered_docs: self.take(8) as usize,
            }),
            3 => ResponseBody::Feedback { id: self.take(8) as i64 },
            4 => ResponseBody::Stats(ServerStats {
                queries_served: self.take(8),
                cache_hits: self.take(8),
                cache_misses: self.take(8),
                cache_entries: self.take(8) as usize,
                filter_cache_hits: self.take(8),
                filter_cache_misses: self.take(8),
                filter_cache_entries: self.take(8) as usize,
                filter_cache_bytes: self.take(8) as usize,
                archive_size: self.take(8) as usize,
                ingested_images: self.take(8),
            }),
            5 => ResponseBody::Error(ErrorPayload {
                code: self.pick(&[
                    ErrorCode::UnknownImage,
                    ErrorCode::Store,
                    ErrorCode::CbirNotReady,
                    ErrorCode::BadRequest,
                    ErrorCode::Persist,
                    ErrorCode::Internal,
                    ErrorCode::Overloaded,
                    ErrorCode::NotPrimary,
                ]),
                message: self.string(),
            }),
            6 => ResponseBody::MetricsText(self.string()),
            7 => ResponseBody::Filtered(FilteredPayload {
                search: self.search(),
                plan: FilteredPlan {
                    strategy: self
                        .pick(&[FilterStrategy::BitmapPrefilter, FilterStrategy::PostFilter]),
                    candidates: self.coin().then(|| self.take(8)),
                    residual: self.coin(),
                    matching: self.take(8) as usize,
                },
            }),
            8 => ResponseBody::ReplState(ReplState {
                primary: self.coin(),
                attached: self.coin(),
                generation: self.take(4) as u32,
                ingested: self.take(8),
                feedback: self.take(8),
            }),
            _ => ResponseBody::ReplRecords(ReplBatch {
                reseed: self.coin(),
                generation: self.take(4) as u32,
                ingested: self.take(8),
                feedback: self.take(8),
                static_chunk: (0..self.below(6)).map(|_| self.take(1) as u8).collect(),
                runs: (0..self.below(3))
                    .map(|_| (0..self.below(6)).map(|_| self.take(1) as u8).collect())
                    .collect(),
            }),
        };
        Response { id, body }
    }

    fn manifest(&mut self) -> Manifest {
        let chunk = |s: &mut Self| ChunkEntry {
            file: format!("chunk-{:06}-{:03}.eqc", s.take(2), s.take(1)),
            kind: s.string(),
            len: s.take(8),
            crc: s.take(4) as u32,
        };
        Manifest {
            seq: self.take(8),
            generation: self.take(4) as u32,
            first_segment: self.take(4) as u32,
            chunks: (0..self.below(4)).map(|_| chunk(self)).collect(),
        }
    }

    fn value(&mut self, depth: u32) -> Value {
        // Half the composite draws are documents, whose key order matters.
        match self.below(if depth == 0 { 7 } else { 10 }) {
            0 => Value::Null,
            1 => Value::Bool(self.coin()),
            2 => Value::Int(self.take(8) as i64),
            3 => Value::Float(self.take(2) as i16 as f64 / 8.0),
            4 => Value::Str(self.string()),
            5 => Value::Bytes((0..self.below(6)).map(|_| self.take(1) as u8).collect()),
            6 => Value::Date(self.take(4) as i64),
            7 => Value::Array((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
            _ => Value::Doc(
                (0..1 + self.below(4)).map(|_| (self.key(), self.value(depth - 1))).collect(),
            ),
        }
    }

    /// A short field name from a small alphabet, so that a damaged key
    /// often still decodes, out of order with its neighbours.
    fn key(&mut self) -> String {
        (0..1 + self.below(2)).map(|_| char::from(b'a' + self.below(8) as u8)).collect()
    }

    fn document(&mut self) -> Document {
        (0..self.below(6)).map(|_| (self.key(), self.value(2))).collect()
    }
}

/// One byte of a valid encoding damaged: `at` (modulo the length) is
/// overwritten with `byte`, or, with `flip`, has its bit `byte % 8` flipped.
type Damage = (usize, u8, bool);

fn damage() -> impl Strategy<Value = Damage> {
    (0usize..1 << 20, 0u8..=255u8, any::<bool>())
}

/// The property for one codec and one value: `value` decodes back from its
/// encoding and re-encodes to the same bytes, and the encoding with
/// `damage` applied either fails to decode or re-encodes to itself.
fn accepts_only_what_it_writes<T: PartialEq + Debug, E: Debug>(
    value: &T,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Result<T, E>,
    (at, byte, flip): Damage,
) -> Result<(), TestCaseError> {
    let bytes = encode(value);
    let back = decode(&bytes).map_err(|e| TestCaseError::fail(format!("{value:?}: {e:?}")))?;
    prop_assert_eq!(&back, value);
    prop_assert_eq!(encode(&back), bytes);
    if bytes.is_empty() {
        return Ok(());
    }
    let mut damaged = bytes;
    let at = at % damaged.len();
    if flip {
        damaged[at] ^= 1 << (byte % 8);
    } else {
        damaged[at] = byte;
    }
    if let Ok(back) = decode(&damaged) {
        prop_assert!(encode(&back) == damaged, "damaged at {at}, decoded {back:?}");
    }
    Ok(())
}

/// Runs `decode` over the whole of `bytes`: a value followed by anything
/// is corrupt.
fn whole<T>(
    bytes: &[u8],
    decode: impl FnOnce(&mut Reader<'_>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let value = decode(&mut r)?;
    match r.remaining() {
        0 => Ok(value),
        n => Err(WireError::Corrupt(format!("{n} trailing bytes"))),
    }
}

fn written(encode: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    encode(&mut w);
    w.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_accept_only_what_they_write(
        script in proptest::collection::vec(0u8..=255u8, 0..160),
        damage in damage(),
    ) {
        let request = Script(&script).request();
        accepts_only_what_it_writes(&request, Request::encode, Request::decode, damage)?;
    }

    #[test]
    fn responses_accept_only_what_they_write(
        script in proptest::collection::vec(0u8..=255u8, 0..200),
        damage in damage(),
    ) {
        let response = Script(&script).response();
        accepts_only_what_it_writes(&response, Response::encode, Response::decode, damage)?;
    }

    #[test]
    fn patches_accept_only_what_they_write(
        script in proptest::collection::vec(0u8..=255u8, 0..80),
        damage in damage(),
    ) {
        let patch = Script(&script).patch();
        let encode = |patch: &Patch| written(|w| encode_patch(patch, w));
        accepts_only_what_it_writes(&patch, encode, |b| whole(b, decode_patch), damage)?;
    }

    #[test]
    fn manifests_accept_only_what_they_write(
        script in proptest::collection::vec(0u8..=255u8, 0..96),
        damage in damage(),
    ) {
        let manifest = Script(&script).manifest();
        accepts_only_what_it_writes(&manifest, encode_manifest, decode_manifest, damage)?;
    }

    #[test]
    fn docstore_values_accept_only_what_they_write(
        script in proptest::collection::vec(0u8..=255u8, 0..128),
        damage in damage(),
    ) {
        let mut script = Script(&script);
        let value = script.value(3);
        let encode = |value: &Value| written(|w| encode_value(value, w));
        accepts_only_what_it_writes(&value, encode, |b| whole(b, decode_value), damage)?;
        let document = script.document();
        let encode = |document: &Document| written(|w| encode_document(document, w));
        accepts_only_what_it_writes(&document, encode, |b| whole(b, decode_document), damage)?;
    }
}
