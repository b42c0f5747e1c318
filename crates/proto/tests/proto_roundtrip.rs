//! Property tests of the RPC protocol: arbitrary requests and responses
//! must round-trip encode→decode exactly, truncating a frame anywhere must
//! fail cleanly, and flipping any single bit of a frame must be *detected*
//! (the CRC-32 guarantees it for the payload; magic/length/checksum
//! corruption is caught structurally).
//!
//! Message shapes are grown by interpreting a random byte script — the
//! same technique as the docstore wire proptests — which gives the
//! vendored (non-recursive) proptest stub full coverage of the message
//! grammar, including every request and response tag.
//!
//! Result rows are typed (country, date, label set) and cross the wire as
//! those typed fields: a country tag, the date's year, month and day, and
//! the label set's bits.  Two more properties fence that: the encoder
//! writes the bytes a field-by-field reference writes, and the decoder
//! accepts only what the encoder writes — a corrupt row is a [`WireError`],
//! and whatever decodes re-encodes to the bytes it came from.

use eq_bigearthnet::bands::BandData;
use eq_bigearthnet::labels::LabelSet;
use eq_bigearthnet::patch::{AcquisitionDate, Patch, PatchId, PatchMetadata, Satellite, Season};
use eq_bigearthnet::{Country, Label};
use eq_geo::{BBox, Circle, GeoShape, Point, Polygon};
use eq_proto::{
    ErrorCode, ErrorPayload, IngestReport, LabelFilterSpec, LabelOp, PlanSpec, QuerySpec, Request,
    RequestBody, Response, ResponseBody, ResultEntry, SearchPayload, ServerStats,
};
use eq_wire::{Reader, WireError, Writer};
use proptest::prelude::*;

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

fn string_from_script(script: &mut &[u8]) -> String {
    let len = (take(script, 1) % 9) as usize;
    (0..len).map(|_| char::from_u32((take(script, 2) as u32) % 0xD7FF).unwrap_or('ø')).collect()
}

fn date_from_script(script: &mut &[u8]) -> AcquisitionDate {
    AcquisitionDate::new(
        2000 + (take(script, 1) % 30) as u16,
        1 + (take(script, 1) % 12) as u8,
        1 + (take(script, 1) % 28) as u8,
    )
    .expect("in-range date")
}

/// Any row the typed representation can hold: any country, any date
/// `AcquisitionDate::new` accepts, any label set, any name.
fn row_from_script(script: &mut &[u8]) -> ResultEntry {
    ResultEntry {
        name: string_from_script(script),
        country: Country::ALL[(take(script, 1) as usize) % Country::ALL.len()],
        date: AcquisitionDate::new(
            (take(script, 2) % 10_000) as u16,
            1 + (take(script, 1) % 12) as u8,
            1 + (take(script, 1) % 31) as u8,
        )
        .expect("in-range date"),
        labels: LabelSet::from_bits(take(script, 8) & ((1 << Label::COUNT) - 1)),
        distance: (take(script, 1) % 2 == 1).then(|| take(script, 4) as u32),
    }
}

fn search_from_script(script: &mut &[u8]) -> SearchPayload {
    SearchPayload {
        rows: (0..take(script, 1) % 5).map(|_| row_from_script(script)).collect(),
        page_size: take(script, 1),
        label_counts: (0..take(script, 1) % 50).map(|_| take(script, 4)).collect(),
        image_count: take(script, 2),
        plan: (take(script, 1) % 2 == 1).then(|| PlanSpec {
            index_used: (take(script, 1) % 2 == 1).then(|| string_from_script(script)),
            scanned: take(script, 3),
            matched: take(script, 3),
        }),
    }
}

/// One row as the protocol lays it out, written field by field from raw
/// values: the name, the country tag, the date's year, month and day, the
/// label bits and the optional distance.
fn reference_row(
    w: &mut Writer,
    name: &str,
    country_tag: u8,
    (year, month, day): (u16, u8, u8),
    label_bits: u64,
    distance: Option<u32>,
) {
    w.str(name);
    w.u8(country_tag);
    w.u16(year);
    w.u8(month);
    w.u8(day);
    w.u64(label_bits);
    match distance {
        None => w.u8(0),
        Some(d) => {
            w.u8(1);
            w.u32(d);
        }
    }
}

/// The search payload, every field written by hand.  Shares nothing with
/// the encoder under test: the country tag is found by searching
/// `Country::ALL`, the label bits are summed from the labels' indexes.
fn reference_search_bytes(payload: &SearchPayload) -> Vec<u8> {
    let mut w = Writer::new();
    w.seq_len(payload.rows.len());
    for row in &payload.rows {
        let country_tag = Country::ALL.iter().position(|&c| c == row.country).unwrap() as u8;
        let label_bits = row.labels.iter().fold(0u64, |bits, l| bits | 1 << l.index());
        let date = (row.date.year, row.date.month, row.date.day);
        reference_row(&mut w, &row.name, country_tag, date, label_bits, row.distance);
    }
    w.u64(payload.page_size);
    w.seq_len(payload.label_counts.len());
    for &count in &payload.label_counts {
        w.u32(u32::try_from(count).unwrap());
    }
    w.u64(payload.image_count);
    match &payload.plan {
        None => w.u8(0),
        Some(plan) => {
            w.u8(1);
            match &plan.index_used {
                None => w.u8(0),
                Some(index) => {
                    w.u8(1);
                    w.str(index);
                }
            }
            w.u64(plan.scanned);
            w.u64(plan.matched);
        }
    }
    w.into_bytes()
}

fn shape_from_script(script: &mut &[u8]) -> GeoShape {
    // Small integer-ish coordinates: valid for every shape constructor.
    let coord = |script: &mut &[u8]| (take(script, 1) as f64) / 4.0 - 30.0;
    match take(script, 1) % 3 {
        0 => {
            let (lon, lat) = (coord(script), coord(script));
            GeoShape::Rect(
                BBox::new(lon, lat, lon + 1.0 + coord(script).abs() / 100.0, lat + 1.0)
                    .expect("ordered bbox"),
            )
        }
        1 => GeoShape::Circle(
            Circle::new(
                Point::new(coord(script), coord(script)).expect("in-range point"),
                1.0 + (take(script, 1) as f64),
            )
            .expect("positive radius"),
        ),
        _ => {
            let n = 3 + (take(script, 1) % 4) as usize;
            GeoShape::Polygon(
                Polygon::new(
                    (0..n)
                        .map(|i| {
                            Point::new(coord(script) + i as f64, coord(script) - i as f64)
                                .expect("in-range point")
                        })
                        .collect(),
                )
                .expect("non-degenerate polygon"),
            )
        }
    }
}

fn query_from_script(script: &mut &[u8]) -> QuerySpec {
    let shape = (take(script, 1) % 2 == 1).then(|| shape_from_script(script));
    let date_range = (take(script, 1) % 2 == 1).then(|| {
        let a = date_from_script(script);
        let b = date_from_script(script);
        (a.min(b), a.max(b))
    });
    let satellites =
        (0..take(script, 1) % 3).map(|_| Satellite::ALL[(take(script, 1) % 2) as usize]).collect();
    let seasons =
        (0..take(script, 1) % 5).map(|_| Season::ALL[(take(script, 1) % 4) as usize]).collect();
    let countries = (0..take(script, 1) % 4)
        .map(|_| Country::ALL[(take(script, 1) as usize) % Country::ALL.len()])
        .collect();
    let labels = (take(script, 1) % 2 == 1).then(|| LabelFilterSpec {
        op: [LabelOp::Some, LabelOp::Exactly, LabelOp::AtLeastAndMore]
            [(take(script, 1) % 3) as usize],
        labels: (0..take(script, 1) % 5)
            .map(|_| Label::from_index((take(script, 1) as usize) % Label::COUNT).unwrap())
            .collect(),
    });
    QuerySpec { shape, date_range, satellites, seasons, countries, labels }
}

fn patch_from_script(script: &mut &[u8]) -> Patch {
    let band = |script: &mut &[u8]| {
        let size = 1 + (take(script, 1) % 4) as usize;
        BandData::from_pixels(size, (0..size * size).map(|_| take(script, 2) as u16).collect())
    };
    Patch {
        meta: PatchMetadata {
            id: PatchId(take(script, 4) as u32),
            name: format!("patch_{}", take(script, 4)),
            bbox: BBox::new(-9.0, 37.0, -8.9, 37.1).unwrap(),
            labels: LabelSet::from_bits(take(script, 8)),
            country: Country::ALL[(take(script, 1) as usize) % Country::ALL.len()],
            date: date_from_script(script),
        },
        s2_bands: (0..take(script, 1) % 4).map(|_| band(script)).collect(),
        s1_bands: (0..take(script, 1) % 3).map(|_| band(script)).collect(),
    }
}

fn request_from_script(script: &mut &[u8]) -> Request {
    let id = take(script, 8);
    let body = match take(script, 1) % 7 {
        0 => RequestBody::Ping,
        1 => RequestBody::Search(query_from_script(script)),
        2 => RequestBody::SimilarTo { name: string_from_script(script), k: take(script, 2) },
        3 => RequestBody::SearchByNewExample {
            patch: Box::new(patch_from_script(script)),
            k: take(script, 2),
        },
        4 => RequestBody::Ingest {
            patches: (0..take(script, 1) % 3).map(|_| patch_from_script(script)).collect(),
        },
        5 => RequestBody::Feedback {
            text: string_from_script(script),
            category: (take(script, 1) % 2 == 1).then(|| string_from_script(script)),
        },
        _ => RequestBody::Stats,
    };
    Request { id, body }
}

fn response_from_script(script: &mut &[u8]) -> Response {
    let id = take(script, 8);
    let body = match take(script, 1) % 6 {
        0 => ResponseBody::Pong,
        1 => ResponseBody::Search(search_from_script(script)),
        2 => ResponseBody::Ingest(IngestReport {
            metadata_docs: take(script, 2) as usize,
            image_docs: take(script, 2) as usize,
            rendered_docs: take(script, 2) as usize,
        }),
        3 => ResponseBody::Feedback { id: take(script, 8) as i64 },
        4 => ResponseBody::Stats(ServerStats {
            queries_served: take(script, 4),
            cache_hits: take(script, 4),
            cache_misses: take(script, 4),
            cache_entries: take(script, 2) as usize,
            filter_cache_hits: take(script, 4),
            filter_cache_misses: take(script, 4),
            filter_cache_entries: take(script, 2) as usize,
            filter_cache_bytes: take(script, 4) as usize,
            archive_size: take(script, 4) as usize,
            ingested_images: take(script, 2),
        }),
        _ => ResponseBody::Error(ErrorPayload {
            code: [
                ErrorCode::UnknownImage,
                ErrorCode::Store,
                ErrorCode::CbirNotReady,
                ErrorCode::BadRequest,
                ErrorCode::Persist,
                ErrorCode::Internal,
            ][(take(script, 1) % 6) as usize],
            message: string_from_script(script),
        }),
    };
    Response { id, body }
}

fn request_frame(request: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    eq_proto::write_request(&mut buf, request).unwrap();
    buf
}

fn response_frame(response: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    eq_proto::write_response(&mut buf, response).unwrap();
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Requests round-trip exactly, and re-encoding the decoded message is
    /// a byte-identical fixpoint.
    #[test]
    fn request_roundtrip_is_exact(script in proptest::collection::vec(0u8..=255u8, 0..96)) {
        let request = request_from_script(&mut script.as_slice());
        let frame = request_frame(&request);
        let mut cursor = std::io::Cursor::new(&frame);
        let back = eq_proto::read_request(&mut cursor).unwrap().expect("one frame");
        prop_assert_eq!(&back, &request);
        prop_assert_eq!(request_frame(&back), frame);
    }

    /// Responses round-trip exactly as well.
    #[test]
    fn response_roundtrip_is_exact(script in proptest::collection::vec(0u8..=255u8, 0..96)) {
        let response = response_from_script(&mut script.as_slice());
        let frame = response_frame(&response);
        let back = eq_proto::read_response(&mut std::io::Cursor::new(&frame))
            .unwrap()
            .expect("one frame");
        prop_assert_eq!(&back, &response);
        prop_assert_eq!(response_frame(&back), frame);
    }

    /// The encoder's bytes are the bytes of the field-by-field reference,
    /// for any rows.
    #[test]
    fn typed_rows_encode_to_the_reference_bytes(
        script in proptest::collection::vec(0u8..=255u8, 0..160),
    ) {
        let payload = search_from_script(&mut script.as_slice());
        let mut w = Writer::new();
        payload.encode(&mut w);
        prop_assert_eq!(w.into_bytes(), reference_search_bytes(&payload));
    }

    /// Overwriting any byte of a search response either fails to decode —
    /// with an error, never a panic — or decodes to a message whose encoding
    /// is exactly the overwritten bytes: the decoder accepts nothing the
    /// encoder does not write.
    #[test]
    fn a_damaged_search_response_fails_or_decodes_to_its_own_bytes(
        script in proptest::collection::vec(0u8..=255u8, 0..160),
        at in 0usize..1 << 20,
        byte in 0u8..=255u8,
    ) {
        let body = ResponseBody::Search(search_from_script(&mut script.as_slice()));
        let mut bytes = Response { id: 7, body }.encode();
        let at = at % bytes.len();
        bytes[at] = byte;
        if let Ok(back) = Response::decode(&bytes) {
            prop_assert_eq!(back.encode(), bytes);
        }
    }

    /// Truncating a request frame anywhere past the empty prefix must fail
    /// cleanly; the empty prefix is a clean EOF (`Ok(None)`), never a
    /// message.
    #[test]
    fn truncated_frames_error_cleanly(script in proptest::collection::vec(0u8..=255u8, 0..64)) {
        let request = request_from_script(&mut script.as_slice());
        let frame = request_frame(&request);
        // Sample cut points (patch-bearing frames can be sizeable).
        let stride = (frame.len() / 61).max(1);
        for cut in (0..frame.len()).step_by(stride) {
            let result = eq_proto::read_request(&mut std::io::Cursor::new(&frame[..cut]));
            match result {
                Ok(None) => prop_assert!(cut == 0, "only the empty prefix is a clean EOF"),
                Ok(Some(_)) => prop_assert!(false, "prefix of {}/{} decoded", cut, frame.len()),
                Err(_) => {}
            }
        }
    }

    /// Every single-bit flip of a frame is detected: the CRC-32 catches
    /// payload corruption, and magic/length/checksum corruption is caught
    /// structurally.  No flipped frame may ever decode as a message.
    #[test]
    fn single_bit_flips_are_always_rejected(
        script in proptest::collection::vec(0u8..=255u8, 0..64),
        flip in 0usize..1 << 20,
    ) {
        let request = request_from_script(&mut script.as_slice());
        let mut frame = request_frame(&request);
        let bit = flip % (frame.len() * 8);
        frame[bit / 8] ^= 1 << (bit % 8);
        let result = eq_proto::read_request(&mut std::io::Cursor::new(&frame));
        prop_assert!(
            !matches!(result, Ok(Some(_))),
            "bit flip {} went undetected", bit
        );
    }

    /// A frame stream survives a corrupt *predecessor* being cut out: the
    /// reader reports the fault on the corrupt frame without consuming the
    /// following one (resynchronisation is by closing the connection, as
    /// the server does — but bytes after the reported fault are untouched).
    #[test]
    fn corruption_does_not_bleed_into_following_frames(
        script in proptest::collection::vec(0u8..=255u8, 0..48),
    ) {
        let request = request_from_script(&mut script.as_slice());
        let good = request_frame(&request);
        // Stream = [corrupted frame][good frame].
        let mut corrupted = good.clone();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0xFF;
        let mut stream = corrupted;
        stream.extend_from_slice(&good);
        let mut cursor = std::io::Cursor::new(&stream);
        prop_assert!(eq_proto::read_request(&mut cursor).is_err());
        // The reader stopped exactly at the frame boundary: the next read
        // yields the intact frame.
        let back = eq_proto::read_request(&mut cursor).unwrap().expect("second frame");
        prop_assert_eq!(back, request);
    }
}

/// A search payload of one row whose country tag, date and label bits are
/// written raw, as a damaged or hostile peer could send them.
fn decode_raw_row(
    country_tag: u8,
    date: (u16, u8, u8),
    label_bits: u64,
) -> Result<SearchPayload, WireError> {
    let mut w = Writer::new();
    w.seq_len(1);
    reference_row(&mut w, "patch_a", country_tag, date, label_bits, Some(3));
    w.u64(50);
    w.seq_len(0);
    w.u64(1);
    w.u8(0);
    let bytes = w.into_bytes();
    let mut r = Reader::new(&bytes);
    let payload = SearchPayload::decode(&mut r)?;
    assert!(r.is_empty(), "the payload decoded short");
    Ok(payload)
}

#[test]
fn the_three_ways_a_row_is_corrupt_are_typed_errors() {
    let (portugal, date, labels) = (7, (2017, 7, 17), 1 | 1 << 42);
    let row = decode_raw_row(portugal, date, labels).unwrap().rows.remove(0);
    assert_eq!(row.country, Country::Portugal);
    assert_eq!(row.date, AcquisitionDate::new(2017, 7, 17).unwrap());
    assert_eq!(row.labels, LabelSet::from_labels([Label::ALL[0], Label::ALL[42]]));
    let corrupt = |decoded: Result<SearchPayload, WireError>, what: &str| match decoded {
        Err(WireError::Corrupt(message)) => assert!(message.contains(what), "{message}"),
        other => panic!("expected {what:?}, decoded {other:?}"),
    };
    // A country tag past `Country::ALL` is no country: not wrapped round.
    for tag in [10, 255] {
        corrupt(decode_raw_row(tag, date, labels), &format!("unknown country tag {tag}"));
    }
    // A label bit at or past `Label::COUNT` is refused, not masked away.
    for bit in [43, 63] {
        corrupt(decode_raw_row(portugal, date, labels | 1 << bit), &format!("label bit {bit} "));
    }
    // Only a date `AcquisitionDate::new` accepts is a date.
    for (month, day) in [(0, 17), (13, 17), (7, 0), (7, 32)] {
        corrupt(decode_raw_row(portugal, (2017, month, day), labels), "invalid date");
    }
}

/// `RequestBody::is_write` is pinned kind by kind: ingest and feedback are
/// the writes, and every other kind, replication's included, is a read.
/// The match below has no wildcard, so a new kind has to be classified.
#[test]
fn only_ingest_and_feedback_are_writes() {
    let patch = patch_from_script(&mut [0u8; 0].as_slice());
    let spec = query_from_script(&mut [0u8; 0].as_slice());
    let mode = eq_proto::PrefilterMode::Auto;
    let every_kind = [
        RequestBody::Ping,
        RequestBody::Search(spec.clone()),
        RequestBody::SimilarTo { name: "a".into(), k: 1 },
        RequestBody::SearchByNewExample { patch: Box::new(patch.clone()), k: 1 },
        RequestBody::Ingest { patches: vec![patch] },
        RequestBody::Feedback { text: "t".into(), category: None },
        RequestBody::Stats,
        RequestBody::MetricsText,
        RequestBody::SimilarToFiltered { name: "a".into(), k: 1, spec: spec.clone(), mode },
        RequestBody::SimilarWithinFiltered { name: "a".into(), radius: 1, spec, mode },
        RequestBody::ReplState,
        RequestBody::ReplPull {
            generation: 1,
            ingested: 0,
            feedback: 0,
            tails: [0, 0],
            max_bytes: 1,
        },
    ];
    for body in &every_kind {
        let write = match body {
            RequestBody::Ingest { .. } | RequestBody::Feedback { .. } => true,
            RequestBody::Ping
            | RequestBody::Search(_)
            | RequestBody::SimilarTo { .. }
            | RequestBody::SearchByNewExample { .. }
            | RequestBody::Stats
            | RequestBody::MetricsText
            | RequestBody::SimilarToFiltered { .. }
            | RequestBody::SimilarWithinFiltered { .. }
            | RequestBody::ReplState
            | RequestBody::ReplPull { .. } => false,
        };
        assert_eq!(body.is_write(), write, "{body:?}");
    }
}
