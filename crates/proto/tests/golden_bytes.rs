//! Golden-bytes conformance suite: the exact frame encoding of every
//! protocol message type is pinned to fixture files committed under
//! `tests/golden/`.  Any byte-layout change — reordered fields, a new
//! tag value, a different length prefix — fails these tests instead of
//! silently breaking old clients, so protocol drift across PRs is a
//! reviewed decision (regenerate with `EQ_PROTO_BLESS=1 cargo test -p
//! eq_proto --test golden_bytes`, then bump [`eq_proto::PROTOCOL_VERSION`]).
//!
//! Each fixture is checked both ways:
//! * **encode**: the canonical sample message must serialize to the exact
//!   fixture bytes,
//! * **decode**: the fixture bytes must parse back into the exact sample —
//!   so a future build can still read frames produced by this one.

use std::path::PathBuf;

use eq_bigearthnet::bands::BandData;
use eq_bigearthnet::labels::LabelSet;
use eq_bigearthnet::patch::{AcquisitionDate, Patch, PatchId, PatchMetadata, Satellite, Season};
use eq_bigearthnet::{Country, Label};
use eq_geo::{BBox, Circle, GeoShape, Point, Polygon};
use eq_proto::{
    ErrorCode, ErrorPayload, FilterStrategy, FilteredPayload, FilteredPlan, IngestReport,
    LabelFilterSpec, LabelOp, PlanSpec, PrefilterMode, QuerySpec, ReplBatch, ReplState, Request,
    RequestBody, Response, ResponseBody, ResultEntry, SearchPayload, ServerStats,
};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Asserts `bytes` matches the committed fixture (or rewrites the fixture
/// when blessing).
fn check(name: &str, bytes: &[u8]) {
    let path = golden_dir().join(format!("{name}.bin"));
    if std::env::var_os("EQ_PROTO_BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, bytes).unwrap();
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!("missing golden fixture {path:?} ({e}); regenerate with EQ_PROTO_BLESS=1")
    });
    assert_eq!(
        bytes,
        expected.as_slice(),
        "{name}: encoding drifted from the committed fixture — if intentional, \
         bless new fixtures AND bump PROTOCOL_VERSION"
    );
}

fn check_request(name: &str, request: &Request) {
    let mut bytes = Vec::new();
    eq_proto::write_request(&mut bytes, request).unwrap();
    check(name, &bytes);
    // The fixture decodes back to the exact message.
    let back = eq_proto::read_request(&mut std::io::Cursor::new(&bytes)).unwrap().unwrap();
    assert_eq!(&back, request, "{name}: fixture did not decode to the sample");
}

fn check_response(name: &str, response: &Response) {
    let mut bytes = Vec::new();
    eq_proto::write_response(&mut bytes, response).unwrap();
    check(name, &bytes);
    let back = eq_proto::read_response(&mut std::io::Cursor::new(&bytes)).unwrap().unwrap();
    assert_eq!(&back, response, "{name}: fixture did not decode to the sample");
}

/// A hand-built 2×2/1×1 patch — deliberately *not* generator output, so
/// the fixtures pin only the protocol, never the generator's internals.
fn sample_patch() -> Patch {
    Patch {
        meta: PatchMetadata {
            id: PatchId(7),
            name: "S2A_MSIL2A_20170717T100031_T29SNC_23_42".into(),
            bbox: BBox::new(-8.5, 40.0, -8.49, 40.01).unwrap(),
            labels: LabelSet::from_labels([Label::SeaAndOcean, Label::ConiferousForest]),
            country: Country::Portugal,
            date: AcquisitionDate::new(2017, 7, 17).unwrap(),
        },
        s2_bands: vec![
            BandData::from_pixels(2, vec![0, 1, 2, 3]),
            BandData::from_pixels(1, vec![65535]),
        ],
        s1_bands: vec![BandData::from_pixels(2, vec![9, 8, 7, 6])],
    }
}

fn sample_query() -> QuerySpec {
    QuerySpec {
        shape: Some(GeoShape::Rect(BBox::new(-9.5, 36.9, -6.2, 42.2).unwrap())),
        date_range: Some((
            AcquisitionDate::new(2017, 6, 1).unwrap(),
            AcquisitionDate::new(2018, 5, 31).unwrap(),
        )),
        satellites: vec![Satellite::Sentinel1, Satellite::Sentinel2],
        seasons: vec![Season::Summer, Season::Winter],
        countries: vec![Country::Portugal, Country::Finland],
        labels: Some(LabelFilterSpec {
            op: LabelOp::AtLeastAndMore,
            labels: vec![Label::SeaAndOcean, Label::ConiferousForest],
        }),
    }
}

#[test]
fn request_ping() {
    check_request("request_ping", &Request { id: 1, body: RequestBody::Ping });
}

#[test]
fn request_search_full_query() {
    check_request(
        "request_search_full_query",
        &Request { id: 0x0123_4567_89AB_CDEF, body: RequestBody::Search(sample_query()) },
    );
}

#[test]
fn request_search_empty_query() {
    check_request(
        "request_search_empty_query",
        &Request { id: 2, body: RequestBody::Search(QuerySpec::default()) },
    );
}

#[test]
fn request_search_circle_and_polygon_shapes() {
    let circle = QuerySpec {
        shape: Some(GeoShape::Circle(Circle::new(Point::new(10.5, 50.25).unwrap(), 42.0).unwrap())),
        ..QuerySpec::default()
    };
    check_request("request_search_circle", &Request { id: 3, body: RequestBody::Search(circle) });
    let polygon = QuerySpec {
        shape: Some(GeoShape::Polygon(
            Polygon::new(vec![
                Point::new(0.0, 0.0).unwrap(),
                Point::new(2.0, 0.0).unwrap(),
                Point::new(1.0, 3.0).unwrap(),
            ])
            .unwrap(),
        )),
        ..QuerySpec::default()
    };
    check_request("request_search_polygon", &Request { id: 4, body: RequestBody::Search(polygon) });
}

#[test]
fn request_similar_to() {
    check_request(
        "request_similar_to",
        &Request { id: 5, body: RequestBody::SimilarTo { name: "patch_0".into(), k: 10 } },
    );
}

#[test]
fn request_search_by_new_example() {
    check_request(
        "request_search_by_new_example",
        &Request {
            id: 6,
            body: RequestBody::SearchByNewExample { patch: Box::new(sample_patch()), k: 5 },
        },
    );
}

#[test]
fn request_ingest() {
    check_request(
        "request_ingest",
        &Request { id: 7, body: RequestBody::Ingest { patches: vec![sample_patch()] } },
    );
}

#[test]
fn request_feedback() {
    check_request(
        "request_feedback_with_category",
        &Request {
            id: 8,
            body: RequestBody::Feedback {
                text: "héllo".into(), category: Some("reaction".into())
            },
        },
    );
    check_request(
        "request_feedback_no_category",
        &Request { id: 9, body: RequestBody::Feedback { text: "plain".into(), category: None } },
    );
}

#[test]
fn request_stats() {
    check_request("request_stats", &Request { id: 10, body: RequestBody::Stats });
}

#[test]
fn request_metrics_text() {
    check_request("request_metrics_text", &Request { id: 17, body: RequestBody::MetricsText });
}

#[test]
fn request_similar_to_filtered() {
    check_request(
        "request_similar_to_filtered",
        &Request {
            id: 19,
            body: RequestBody::SimilarToFiltered {
                name: "patch_0".into(),
                k: 10,
                spec: sample_query(),
                mode: PrefilterMode::Auto,
            },
        },
    );
}

#[test]
fn request_similar_within_filtered() {
    check_request(
        "request_similar_within_filtered",
        &Request {
            id: 20,
            body: RequestBody::SimilarWithinFiltered {
                name: "patch_0".into(),
                radius: 8,
                spec: QuerySpec::default(),
                mode: PrefilterMode::ForceBitmap,
            },
        },
    );
}

#[test]
fn request_repl_state() {
    check_request("request_repl_state", &Request { id: 21, body: RequestBody::ReplState });
}

#[test]
fn request_repl_pull() {
    check_request(
        "request_repl_pull",
        &Request {
            id: 24,
            body: RequestBody::ReplPull {
                generation: 3,
                ingested: 120,
                feedback: 2,
                tails: [0x1234_5678, 0x9ABC_DEF0],
                max_bytes: 1_048_576,
            },
        },
    );
}

#[test]
fn response_pong() {
    check_response("response_pong", &Response { id: 1, body: ResponseBody::Pong });
}

#[test]
fn response_search() {
    let mut label_counts = vec![0u64; Label::COUNT];
    label_counts[Label::SeaAndOcean.index()] = 2;
    label_counts[Label::ConiferousForest.index()] = 1;
    check_response(
        "response_search",
        &Response {
            id: 11,
            body: ResponseBody::Search(SearchPayload {
                rows: vec![
                    ResultEntry {
                        name: "patch_a".into(),
                        country: Country::Portugal,
                        date: AcquisitionDate::new(2017, 7, 17).unwrap(),
                        // On the wire in `LabelSet::iter` order — ascending
                        // label index — whatever order they are given in.
                        labels: LabelSet::from_labels([
                            Label::SeaAndOcean,
                            Label::ConiferousForest,
                        ]),
                        distance: Some(3),
                    },
                    ResultEntry {
                        name: "patch_b".into(),
                        country: Country::Finland,
                        date: AcquisitionDate::new(2018, 1, 2).unwrap(),
                        labels: LabelSet::from_labels([Label::SeaAndOcean]),
                        distance: None,
                    },
                ],
                page_size: 50,
                label_counts,
                image_count: 2,
                plan: Some(PlanSpec {
                    index_used: Some("country".into()),
                    scanned: 40,
                    matched: 2,
                }),
            }),
        },
    );
}

#[test]
fn response_search_empty_no_plan() {
    check_response(
        "response_search_empty",
        &Response {
            id: 12,
            body: ResponseBody::Search(SearchPayload {
                rows: vec![],
                page_size: 50,
                label_counts: vec![0; Label::COUNT],
                image_count: 0,
                plan: None,
            }),
        },
    );
}

#[test]
fn response_ingest() {
    check_response(
        "response_ingest",
        &Response {
            id: 13,
            body: ResponseBody::Ingest(IngestReport {
                metadata_docs: 3,
                image_docs: 3,
                rendered_docs: 3,
            }),
        },
    );
}

#[test]
fn response_feedback() {
    check_response(
        "response_feedback",
        &Response { id: 14, body: ResponseBody::Feedback { id: 42 } },
    );
}

#[test]
fn response_stats() {
    check_response(
        "response_stats",
        &Response {
            id: 15,
            body: ResponseBody::Stats(ServerStats {
                queries_served: 600,
                cache_hits: 200,
                cache_misses: 400,
                cache_entries: 37,
                filter_cache_hits: 150,
                filter_cache_misses: 50,
                filter_cache_entries: 9,
                filter_cache_bytes: 65_536,
                archive_size: 40_000,
                ingested_images: 12,
            }),
        },
    );
}

#[test]
fn response_errors() {
    for (name, code, message) in [
        ("response_error_unknown_image", ErrorCode::UnknownImage, "ghost"),
        ("response_error_store", ErrorCode::Store, "duplicate key"),
        ("response_error_cbir_not_ready", ErrorCode::CbirNotReady, ""),
        ("response_error_bad_request", ErrorCode::BadRequest, "inverted date range"),
        ("response_error_persist", ErrorCode::Persist, "disk full"),
        ("response_error_internal", ErrorCode::Internal, "boom"),
        ("response_error_overloaded", ErrorCode::Overloaded, "per-client quota exceeded"),
        ("response_error_not_primary", ErrorCode::NotPrimary, "this server is a read replica"),
    ] {
        check_response(
            name,
            &Response {
                id: 16,
                body: ResponseBody::Error(ErrorPayload { code, message: message.into() }),
            },
        );
    }
}

#[test]
fn response_metrics_text() {
    check_response(
        "response_metrics_text",
        &Response {
            id: 18,
            body: ResponseBody::MetricsText(
                "eq_queries_served_total 600\neq_net_accepted_total 4\n".into(),
            ),
        },
    );
}

#[test]
fn response_filtered() {
    let mut label_counts = vec![0u64; Label::COUNT];
    label_counts[Label::SeaAndOcean.index()] = 1;
    check_response(
        "response_filtered",
        &Response {
            id: 25,
            body: ResponseBody::Filtered(FilteredPayload {
                search: SearchPayload {
                    rows: vec![ResultEntry {
                        name: "patch_a".into(),
                        country: Country::Portugal,
                        date: AcquisitionDate::new(2017, 7, 17).unwrap(),
                        labels: LabelSet::from_labels([Label::SeaAndOcean]),
                        distance: Some(5),
                    }],
                    page_size: 50,
                    label_counts,
                    image_count: 1,
                    plan: None,
                },
                plan: FilteredPlan {
                    strategy: FilterStrategy::BitmapPrefilter,
                    candidates: Some(17),
                    residual: false,
                    matching: 17,
                },
            }),
        },
    );
}

#[test]
fn response_filtered_post_filter() {
    check_response(
        "response_filtered_post_filter",
        &Response {
            id: 26,
            body: ResponseBody::Filtered(FilteredPayload {
                search: SearchPayload {
                    rows: vec![],
                    page_size: 50,
                    label_counts: vec![0; Label::COUNT],
                    image_count: 0,
                    plan: None,
                },
                plan: FilteredPlan {
                    strategy: FilterStrategy::PostFilter,
                    candidates: None,
                    residual: false,
                    matching: 3,
                },
            }),
        },
    );
}

#[test]
fn response_repl_state() {
    check_response(
        "response_repl_state",
        &Response {
            id: 27,
            body: ResponseBody::ReplState(ReplState {
                primary: true,
                attached: true,
                generation: 7,
                ingested: 2048,
                feedback: 4,
            }),
        },
    );
}

#[test]
fn response_repl_records() {
    check_response(
        "response_repl_records",
        &Response {
            id: 30,
            body: ResponseBody::ReplRecords(ReplBatch {
                reseed: false,
                generation: 7,
                ingested: 12,
                feedback: 3,
                static_chunk: vec![],
                runs: vec![vec![6, 0, 0, 0, 0, 0, 0, 0, 10, 1, 2], vec![6, 1, 0, 0, 0, 0, 0, 0, 0]],
            }),
        },
    );
}

#[test]
fn response_repl_records_reseed() {
    check_response(
        "response_repl_records_reseed",
        &Response {
            id: 31,
            body: ResponseBody::ReplRecords(ReplBatch {
                reseed: true,
                generation: 9,
                ingested: 1,
                feedback: 0,
                static_chunk: vec![1, 0xE5, 0x51],
                runs: vec![vec![6, 0, 0, 0, 0, 0, 0, 0, 0, 1]],
            }),
        },
    );
}

// Orphan-fixture detection lives in eq_lint's `golden` rule now: the
// referenced-name set is derived from this file's source instead of a
// hand-maintained `known` array, so adding a conformance test above
// automatically blesses its fixture name.
