//! The EarthQube binary RPC protocol.
//!
//! The paper positions EarthQube as a multi-user service; this crate
//! defines the wire contract between a remote client and the serving
//! process — the request/response boundary everything network-facing in
//! the workspace is built on.  It deliberately contains **no sockets and
//! no server**: just message types, their byte layout, and checked
//! encode/decode over arbitrary `std::io` streams.  The TCP serving tier
//! (`NetServer`) and the blocking client (`EqClient`) live in
//! `eq_earthqube::net` and speak exclusively through this crate.
//!
//! # Frame layout
//!
//! Every message travels in one [`eq_wire::frame`] frame:
//!
//! ```text
//! frame    := magic[4] len:u32le crc32(payload):u32le payload[len]
//! payload  := version:u16 request_id:u64 tag:u8 body
//! ```
//!
//! * `magic` is direction-tagged — [`REQUEST_MAGIC`] (`"EQRQ"`) for
//!   client→server frames, [`RESPONSE_MAGIC`] (`"EQRS"`) for
//!   server→client — so a confused endpoint fails on the first frame
//!   instead of misinterpreting bytes.
//! * `version` is checked on decode; a peer from an incompatible build is
//!   rejected with a clear error, not a garbled message.
//! * `request_id` is chosen by the client and echoed verbatim in the
//!   response, which is what makes pipelining safe: a client may write N
//!   requests back-to-back and match the N responses by id.
//! * the CRC-32 plus the length prefix make every transport fault a
//!   *detected* fault: truncation, bit flips and oversized lengths all
//!   surface as typed errors (see `eq_wire::frame::FrameError`).
//!
//! # Message catalogue
//!
//! | Request ([`RequestBody`])        | Response ([`ResponseBody`])      |
//! |----------------------------------|----------------------------------|
//! | `Ping`                           | `Pong`                           |
//! | `Search(QuerySpec)`              | `Search(SearchPayload)`          |
//! | `SimilarTo { name, k }`          | `Search(SearchPayload)`          |
//! | `SearchByNewExample { patch, k }`| `Search(SearchPayload)`          |
//! | `Ingest { patches }`             | `Ingest(IngestReport)`           |
//! | `Feedback { text, category }`    | `Feedback { id }`                |
//! | `Stats`                          | `Stats(ServerStats)`             |
//! | `MetricsText`                    | `MetricsText(String)`            |
//! | `SimilarToFiltered { .. }`       | `Filtered(FilteredPayload)`      |
//! | `SimilarWithinFiltered { .. }`   | `Filtered(FilteredPayload)`      |
//! | `ReplState`                      | `ReplState(ReplState)`           |
//! | `ReplPull { generation, .. }`    | `ReplRecords(ReplBatch)`         |
//! | *(any, on failure)*              | `Error(ErrorPayload)`            |
//!
//! The `Repl*` kinds are the replication plane: a read replica pulls the
//! records past its own two record counts (ingest, feedback) under the
//! lineage generation it follows, with the CRC-32 of its last record in
//! each; a replica with no lineage, a foreign generation, counts above the
//! primary's or a last record the primary does not hold there is answered
//! `reseed`, with the primary's static chunk and the records from 0, so one
//! pull both seeds and catches up (see `eq_earthqube::replicate`).  Request
//! tags 12 and 13
//! and response tags 10 and 11 carried protocol v2's snapshot shipping
//! (`ReplManifest`, `ReplChunk`); they are retired and never reused.
//!
//! # One type per concept
//!
//! A result row ([`ResultEntry`]), an [`IngestReport`], a [`ServerStats`]
//! snapshot, the [`PrefilterMode`] knob, a [`FilteredPlan`] with its
//! [`FilterStrategy`], and the replication plane's [`ReplState`] and
//! [`ReplBatch`] are each defined once, here, with their codec beside them.
//! `eq_earthqube` re-exports them as its serving types, so the value a
//! query returns in process is the value the wire carries — there is no
//! conversion to drift.  [`SearchPayload`] and [`FilteredPayload`] are the
//! wire form of `eq_earthqube`'s `SearchResponse` / `FilteredResponse`
//! (whose panel and statistics are that crate's types); they hold the rows
//! and the plan themselves.  Three wire types still mirror another crate's
//! type, each for a reason:
//!
//! * [`QuerySpec`] (with [`LabelFilterSpec`] / [`LabelOp`]) mirrors
//!   `ImageQuery`, whose `to_filter` builds an `eq_docstore` filter.
//! * [`PlanSpec`] mirrors `eq_docstore::QueryPlan`.  Neither it nor the
//!   query can move here: this crate does not depend on `eq_docstore`, and
//!   taking that edge would rewrite every dependent's lock file.
//! * [`ErrorPayload`] is a codec of `EarthQubeError`, not a copy of it.
//!
//! A remote client therefore reconstructs results byte-identical to an
//! in-process call ([`ResultEntry`] says how each typed field of a row
//! crosses the wire).  Every enum the protocol carries crosses as a `u8`
//! tag and a label count as a `u32`.  The patch fields have one codec
//! each, in `eq_bigearthnet::wire`, which the patch codec of uploads, WAL
//! records and checkpoints shares: a date (`u16` year, `u8` month, `u8`
//! day), a bounding box (four `f64`s, also a query's rectangle) and a label
//! set (its `u64` bits).  Every decoder accepts only what its encoder
//! writes, so whatever decodes re-encodes to the bytes it came from.
//! Protocol drift is guarded by the golden-bytes conformance suite in
//! `tests/golden_bytes.rs`: the encoding of every message type is pinned
//! to committed fixture files.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::io::{Read, Write};

use eq_bigearthnet::patch::{AcquisitionDate, Patch, PatchMetadata, Satellite, Season};
use eq_bigearthnet::wire::{
    decode_bbox, decode_date, decode_labels, decode_patch, encode_bbox, encode_date, encode_labels,
    encode_patch,
};
use eq_bigearthnet::{Country, Label, LabelSet};
use eq_geo::{Circle, GeoShape, Point, Polygon};
use eq_wire::frame::{begin_frame, end_frame, read_frame, write_frame, FrameError, HEADER_LEN};
use eq_wire::{Reader, WireError, Writer};

/// Protocol version; bumped on any byte-layout change.  Decoders reject
/// frames carrying any other version.
pub const PROTOCOL_VERSION: u16 = 4;

/// Frame magic of client→server frames.
pub const REQUEST_MAGIC: [u8; 4] = *b"EQRQ";

/// Frame magic of server→client frames.
pub const RESPONSE_MAGIC: [u8; 4] = *b"EQRS";

/// Maximum accepted frame payload, request and response alike (64 MiB —
/// comfortably above any realistic ingest batch, far below an allocation
/// a hostile length prefix could weaponise).
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Errors crossing the protocol layer: either the stream/frame failed, or
/// a frame arrived intact but its payload bytes are not a valid message.
#[derive(Debug)]
pub enum ProtoError {
    /// Transport-level failure: I/O, torn frame, bad magic, oversized
    /// length, checksum mismatch.
    Frame(FrameError),
    /// The frame was delivered intact but its payload does not decode as a
    /// protocol message (wrong version, bad tag, corrupt field).
    Message(WireError),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Frame(e) => write!(f, "{e}"),
            ProtoError::Message(e) => write!(f, "invalid protocol message: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<FrameError> for ProtoError {
    fn from(e: FrameError) -> Self {
        ProtoError::Frame(e)
    }
}

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> Self {
        ProtoError::Message(e)
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One client→server message: a request id (echoed by the response) plus
/// the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id; the server echoes it in the matching response.
    pub id: u64,
    /// The requested operation.
    pub body: RequestBody,
}

/// The operations of the protocol (one per `QueryServer` entry point).
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Liveness probe; answered with [`ResponseBody::Pong`].
    Ping,
    /// Query-panel metadata search.
    Search(QuerySpec),
    /// "Retrieve similar images" for an indexed archive image.
    SimilarTo {
        /// The query image's patch name.
        name: String,
        /// Number of neighbours to retrieve.
        k: u64,
    },
    /// Query-by-new-example: the client uploads a patch to encode.
    SearchByNewExample {
        /// The uploaded patch (bands and all — this is the upload path).
        patch: Box<Patch>,
        /// Number of neighbours to retrieve.
        k: u64,
    },
    /// Append patches to the live archive through the write path.
    Ingest {
        /// The patches to ingest, in order.
        patches: Vec<Patch>,
    },
    /// Store an anonymous feedback comment.
    Feedback {
        /// The free-text comment.
        text: String,
        /// Optional category (e.g. "reaction").
        category: Option<String>,
    },
    /// Fetch a snapshot of the serving counters.
    Stats,
    /// Fetch the serving and network-tier counters rendered as
    /// Prometheus-style scrape text; answered with
    /// [`ResponseBody::MetricsText`].
    MetricsText,
    /// "Retrieve similar images", restricted to archive images matching a
    /// metadata filter; answered with [`ResponseBody::Filtered`].
    SimilarToFiltered {
        /// The query image's patch name.
        name: String,
        /// Number of neighbours to retrieve.
        k: u64,
        /// The metadata filter restricting the candidate set.
        spec: QuerySpec,
        /// Filter-execution strategy selection.
        mode: PrefilterMode,
    },
    /// All filtered matches within a Hamming radius of an archive image;
    /// answered with [`ResponseBody::Filtered`].
    SimilarWithinFiltered {
        /// The query image's patch name.
        name: String,
        /// Inclusive Hamming radius.
        radius: u32,
        /// The metadata filter restricting the candidate set.
        spec: QuerySpec,
        /// Filter-execution strategy selection.
        mode: PrefilterMode,
    },
    /// Replication handshake: report the server's role, lineage and
    /// record counts; answered with [`ResponseBody::ReplState`].
    ReplState,
    /// Pull the records past a replica's counts; answered with
    /// [`ResponseBody::ReplRecords`].
    ReplPull {
        /// The lineage generation the replica follows (0: none yet).
        generation: u32,
        /// Ingest records the replica holds.
        ingested: u64,
        /// Feedback records the replica holds.
        feedback: u64,
        /// The CRC-32 of the replica's last record in each sequence,
        /// ingest's first (0 for an empty sequence): the primary answers
        /// `reseed` when its own record at that position differs, so a
        /// history that diverged under the same generation is not resumed.
        tails: [u32; 2],
        /// Soft cap on the record bytes of the answer, which carries at
        /// least one pending record whatever the cap.
        max_bytes: u64,
    },
}

const REQ_PING: u8 = 1;
const REQ_SEARCH: u8 = 2;
const REQ_SIMILAR_TO: u8 = 3;
const REQ_NEW_EXAMPLE: u8 = 4;
const REQ_INGEST: u8 = 5;
const REQ_FEEDBACK: u8 = 6;
const REQ_STATS: u8 = 7;
const REQ_METRICS_TEXT: u8 = 8;
const REQ_SIMILAR_TO_FILTERED: u8 = 9;
const REQ_SIMILAR_WITHIN_FILTERED: u8 = 10;
const REQ_REPL_STATE: u8 = 11;
// 12 and 13 are retired (v2's `ReplManifest`, `ReplChunk`): never reuse.
const REQ_REPL_PULL: u8 = 14;

/// Bytes of the envelope every message starts with: the protocol version
/// (`u16`) and the request id (`u64`).
pub const ENVELOPE_LEN: usize = 10;

fn encode_envelope(w: &mut Writer, id: u64) {
    w.u16(PROTOCOL_VERSION);
    w.u64(id);
}

fn encode_new_example_body(w: &mut Writer, patch: &Patch, k: u64) {
    w.u8(REQ_NEW_EXAMPLE);
    encode_patch(patch, w);
    w.u64(k);
}

fn encode_ingest_body(w: &mut Writer, patches: &[Patch]) {
    w.u8(REQ_INGEST);
    w.seq_len(patches.len());
    for patch in patches {
        encode_patch(patch, w);
    }
}

/// Encodes a query-by-new-example request from a *borrowed* patch —
/// byte-identical to `Request::encode` with the same fields, without the
/// caller having to clone raster data into an owned [`RequestBody`].
pub fn encode_new_example_request(id: u64, patch: &Patch, k: u64) -> Vec<u8> {
    let mut w = Writer::new();
    encode_new_example_request_into(&mut w, id, patch, k);
    w.into_bytes()
}

/// [`encode_new_example_request`] appending to a caller's writer (a frame
/// buffer under construction, see [`frame_request_with`]).
pub fn encode_new_example_request_into(w: &mut Writer, id: u64, patch: &Patch, k: u64) {
    encode_envelope(w, id);
    encode_new_example_body(w, patch, k);
}

/// Encodes an ingest request from *borrowed* patches — the client upload
/// hot path; byte-identical to `Request::encode` with the same fields.
pub fn encode_ingest_request(id: u64, patches: &[Patch]) -> Vec<u8> {
    let mut w = Writer::new();
    encode_ingest_request_into(&mut w, id, patches);
    w.into_bytes()
}

/// [`encode_ingest_request`] appending to a caller's writer.
pub fn encode_ingest_request_into(w: &mut Writer, id: u64, patches: &[Patch]) {
    encode_envelope(w, id);
    encode_ingest_body(w, patches);
}

impl RequestBody {
    /// Whether the request changes the archive or the feedback store: the
    /// writes a replica refuses, a cluster client routes to the primary and
    /// a panic mid-request poisons the server for.  Every other kind,
    /// replication's included, is a read.
    pub fn is_write(&self) -> bool {
        matches!(self, RequestBody::Ingest { .. } | RequestBody::Feedback { .. })
    }

    /// Appends the request to `w` under `id`, borrowing every field: the
    /// payload bytes [`Request::encode`] writes for `Request { id, body }`.
    pub fn encode_into(&self, w: &mut Writer, id: u64) {
        encode_envelope(w, id);
        match self {
            RequestBody::Ping => w.u8(REQ_PING),
            RequestBody::Search(spec) => {
                w.u8(REQ_SEARCH);
                spec.encode(w);
            }
            RequestBody::SimilarTo { name, k } => {
                w.u8(REQ_SIMILAR_TO);
                w.str(name);
                w.u64(*k);
            }
            RequestBody::SearchByNewExample { patch, k } => encode_new_example_body(w, patch, *k),
            RequestBody::Ingest { patches } => encode_ingest_body(w, patches),
            RequestBody::Feedback { text, category } => {
                w.u8(REQ_FEEDBACK);
                w.str(text);
                w.opt_str(category.as_deref());
            }
            RequestBody::Stats => w.u8(REQ_STATS),
            RequestBody::MetricsText => w.u8(REQ_METRICS_TEXT),
            RequestBody::SimilarToFiltered { name, k, spec, mode } => {
                w.u8(REQ_SIMILAR_TO_FILTERED);
                w.str(name);
                w.u64(*k);
                spec.encode(w);
                mode.encode(w);
            }
            RequestBody::SimilarWithinFiltered { name, radius, spec, mode } => {
                w.u8(REQ_SIMILAR_WITHIN_FILTERED);
                w.str(name);
                w.u32(*radius);
                spec.encode(w);
                mode.encode(w);
            }
            RequestBody::ReplState => w.u8(REQ_REPL_STATE),
            RequestBody::ReplPull { generation, ingested, feedback, tails, max_bytes } => {
                w.u8(REQ_REPL_PULL);
                w.u32(*generation);
                w.u64(*ingested);
                w.u64(*feedback);
                tails.iter().for_each(|&tail| w.u32(tail));
                w.u64(*max_bytes);
            }
        }
    }
}

impl Request {
    /// Serializes the request into frame-payload bytes (version, id, tag,
    /// body — everything but the frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// [`encode`](Self::encode) appending to a caller's writer.
    pub fn encode_into(&self, w: &mut Writer) {
        self.body.encode_into(w, self.id);
    }

    /// Decodes frame-payload bytes into a request.
    ///
    /// # Errors
    /// Returns [`WireError`] on a version mismatch, an unknown tag, corrupt
    /// fields or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let id = decode_envelope(&mut r)?;
        let body = match r.u8()? {
            REQ_PING => RequestBody::Ping,
            REQ_SEARCH => RequestBody::Search(QuerySpec::decode(&mut r)?),
            REQ_SIMILAR_TO => RequestBody::SimilarTo { name: r.str()?.to_string(), k: r.u64()? },
            REQ_NEW_EXAMPLE => RequestBody::SearchByNewExample {
                patch: Box::new(decode_patch(&mut r)?),
                k: r.u64()?,
            },
            REQ_INGEST => {
                // An encoded patch is at least metadata + two sequence
                // lengths; 30 bytes is a safe floor bounding preallocation.
                let n = r.seq_len(30)?;
                let patches =
                    (0..n).map(|_| decode_patch(&mut r)).collect::<Result<Vec<_>, _>>()?;
                RequestBody::Ingest { patches }
            }
            REQ_FEEDBACK => RequestBody::Feedback {
                text: r.str()?.to_string(),
                category: r.opt_str()?.map(str::to_string),
            },
            REQ_STATS => RequestBody::Stats,
            REQ_METRICS_TEXT => RequestBody::MetricsText,
            REQ_SIMILAR_TO_FILTERED => RequestBody::SimilarToFiltered {
                name: r.str()?.to_string(),
                k: r.u64()?,
                spec: QuerySpec::decode(&mut r)?,
                mode: PrefilterMode::decode(&mut r)?,
            },
            REQ_SIMILAR_WITHIN_FILTERED => RequestBody::SimilarWithinFiltered {
                name: r.str()?.to_string(),
                radius: r.u32()?,
                spec: QuerySpec::decode(&mut r)?,
                mode: PrefilterMode::decode(&mut r)?,
            },
            REQ_REPL_STATE => RequestBody::ReplState,
            REQ_REPL_PULL => RequestBody::ReplPull {
                generation: r.u32()?,
                ingested: r.u64()?,
                feedback: r.u64()?,
                tails: [r.u32()?, r.u32()?],
                max_bytes: r.u64()?,
            },
            other => return Err(WireError::Corrupt(format!("unknown request tag {other}"))),
        };
        expect_empty(&r)?;
        Ok(Self { id, body })
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One server→client message: the echoed request id plus the outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The id of the request this answers.
    pub id: u64,
    /// The outcome.
    pub body: ResponseBody,
}

/// The response payloads of the protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Answer to [`RequestBody::Ping`].
    Pong,
    /// Answer to the three search request kinds.
    Search(SearchPayload),
    /// Answer to [`RequestBody::Ingest`].
    Ingest(IngestReport),
    /// Answer to [`RequestBody::Feedback`]: the stored entry's id.
    Feedback {
        /// Sequential feedback id assigned by the server.
        id: i64,
    },
    /// Answer to [`RequestBody::Stats`].
    Stats(ServerStats),
    /// The request failed; carries the server-side error.
    Error(ErrorPayload),
    /// Answer to [`RequestBody::MetricsText`]: the scrape text, one
    /// `name value` metric per line (Prometheus text exposition style).
    MetricsText(String),
    /// Answer to the filtered similarity request kinds: the result panel
    /// plus the filter-execution plan report.
    Filtered(FilteredPayload),
    /// Answer to [`RequestBody::ReplState`].
    ReplState(ReplState),
    /// Answer to [`RequestBody::ReplPull`].
    ReplRecords(ReplBatch),
}

const RESP_PONG: u8 = 1;
const RESP_SEARCH: u8 = 2;
const RESP_INGEST: u8 = 3;
const RESP_FEEDBACK: u8 = 4;
const RESP_STATS: u8 = 5;
const RESP_ERROR: u8 = 6;
const RESP_METRICS_TEXT: u8 = 7;
const RESP_FILTERED: u8 = 8;
const RESP_REPL_STATE: u8 = 9;
// 10 and 11 are retired (v2's `ReplManifest`, `ReplChunk`): never reuse.
const RESP_REPL_RECORDS: u8 = 12;

impl Response {
    /// Serializes the response into frame-payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// [`encode`](Self::encode) appending to a caller's writer.
    pub fn encode_into(&self, w: &mut Writer) {
        encode_envelope(w, self.id);
        self.body.encode_into(w);
    }

    /// Decodes frame-payload bytes into a response.
    ///
    /// # Errors
    /// Returns [`WireError`] on a version mismatch, an unknown tag, corrupt
    /// fields or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let id = decode_envelope(&mut r)?;
        let body = ResponseBody::decode_from(&mut r)?;
        expect_empty(&r)?;
        Ok(Self { id, body })
    }
}

impl ResponseBody {
    /// Appends the body — tag and fields, no envelope — to `w`: the bytes
    /// [`Response::encode`] writes after the version and the id.
    pub fn encode_into(&self, w: &mut Writer) {
        match self {
            ResponseBody::Pong => w.u8(RESP_PONG),
            ResponseBody::Search(payload) => {
                w.u8(RESP_SEARCH);
                payload.encode(w);
            }
            ResponseBody::Ingest(payload) => {
                w.u8(RESP_INGEST);
                payload.encode(w);
            }
            ResponseBody::Feedback { id } => {
                w.u8(RESP_FEEDBACK);
                w.i64(*id);
            }
            ResponseBody::Stats(payload) => {
                w.u8(RESP_STATS);
                payload.encode(w);
            }
            ResponseBody::Error(payload) => {
                w.u8(RESP_ERROR);
                payload.encode(w);
            }
            ResponseBody::MetricsText(text) => {
                w.u8(RESP_METRICS_TEXT);
                w.str(text);
            }
            ResponseBody::Filtered(payload) => {
                w.u8(RESP_FILTERED);
                payload.encode(w);
            }
            ResponseBody::ReplState(payload) => {
                w.u8(RESP_REPL_STATE);
                payload.encode(w);
            }
            ResponseBody::ReplRecords(payload) => {
                w.u8(RESP_REPL_RECORDS);
                payload.encode(w);
            }
        }
    }

    /// Decodes a body [`encode_into`](Self::encode_into) wrote, and nothing
    /// after it.
    ///
    /// # Errors
    /// Returns [`WireError`] on an unknown tag, corrupt fields or trailing
    /// bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let body = Self::decode_from(&mut r)?;
        expect_empty(&r)?;
        Ok(body)
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            RESP_PONG => ResponseBody::Pong,
            RESP_SEARCH => ResponseBody::Search(SearchPayload::decode(r)?),
            RESP_INGEST => ResponseBody::Ingest(IngestReport::decode(r)?),
            RESP_FEEDBACK => ResponseBody::Feedback { id: r.i64()? },
            RESP_STATS => ResponseBody::Stats(ServerStats::decode(r)?),
            RESP_ERROR => ResponseBody::Error(ErrorPayload::decode(r)?),
            RESP_METRICS_TEXT => ResponseBody::MetricsText(r.str()?.to_string()),
            RESP_FILTERED => ResponseBody::Filtered(FilteredPayload::decode(r)?),
            RESP_REPL_STATE => ResponseBody::ReplState(ReplState::decode(r)?),
            RESP_REPL_RECORDS => ResponseBody::ReplRecords(ReplBatch::decode(r)?),
            other => return Err(WireError::Corrupt(format!("unknown response tag {other}"))),
        })
    }
}

/// Reads and checks the shared envelope prefix (version, request id).
fn decode_envelope(r: &mut Reader<'_>) -> Result<u64, WireError> {
    let version = r.u16()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::Corrupt(format!(
            "protocol version {version} (this build speaks {PROTOCOL_VERSION})"
        )));
    }
    r.u64()
}

fn expect_empty(r: &Reader<'_>) -> Result<(), WireError> {
    if r.is_empty() {
        Ok(())
    } else {
        Err(WireError::Corrupt(format!("{} trailing bytes after the message", r.remaining())))
    }
}

// ---------------------------------------------------------------------------
// Query specification
// ---------------------------------------------------------------------------

/// The label-filter operators, mirroring `eq_earthqube::LabelOperator`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LabelOp {
    /// At least one of the selected labels.
    Some,
    /// Exactly the selected labels.
    Exactly,
    /// All the selected labels and possibly more.
    AtLeastAndMore,
}

/// A label filter: operator plus selected CLC Level-3 labels.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LabelFilterSpec {
    /// The operator.
    pub op: LabelOp,
    /// The selected labels.
    pub labels: Vec<Label>,
}

/// The query-panel request as it crosses the wire, mirroring
/// `eq_earthqube::ImageQuery` field for field, its structural `Hash`
/// included (equal specs hash equal, `-0.0` and `0.0` alike).
#[derive(Debug, Clone, Default, PartialEq, Hash)]
pub struct QuerySpec {
    /// Geospatial restriction.
    pub shape: Option<GeoShape>,
    /// Acquisition-date range, inclusive on both ends.
    pub date_range: Option<(AcquisitionDate, AcquisitionDate)>,
    /// Satellites of interest.
    pub satellites: Vec<Satellite>,
    /// Seasons of interest (empty = all).
    pub seasons: Vec<Season>,
    /// Countries of interest (empty = all).
    pub countries: Vec<Country>,
    /// Label filter; `None` = no label filtering.
    pub labels: Option<LabelFilterSpec>,
}

impl QuerySpec {
    /// Encodes the query specification.
    pub fn encode(&self, w: &mut Writer) {
        match &self.shape {
            None => w.u8(0),
            Some(shape) => {
                w.u8(1);
                encode_geo_shape(shape, w);
            }
        }
        match &self.date_range {
            None => w.u8(0),
            Some((from, to)) => {
                w.u8(1);
                encode_date(*from, w);
                encode_date(*to, w);
            }
        }
        w.seq_len(self.satellites.len());
        for sat in &self.satellites {
            w.u8(match sat {
                Satellite::Sentinel1 => 1,
                Satellite::Sentinel2 => 2,
            });
        }
        w.seq_len(self.seasons.len());
        for season in &self.seasons {
            w.u8(match season {
                Season::Spring => 1,
                Season::Summer => 2,
                Season::Autumn => 3,
                Season::Winter => 4,
            });
        }
        w.seq_len(self.countries.len());
        for &country in &self.countries {
            w.u8(country.tag());
        }
        match &self.labels {
            None => w.u8(0),
            Some(filter) => {
                w.u8(1);
                w.u8(match filter.op {
                    LabelOp::Some => 1,
                    LabelOp::Exactly => 2,
                    LabelOp::AtLeastAndMore => 3,
                });
                w.seq_len(filter.labels.len());
                for label in &filter.labels {
                    w.u16(label.index() as u16);
                }
            }
        }
    }

    /// Decodes a query specification.
    ///
    /// # Errors
    /// Returns [`WireError`] on truncation or corrupt fields.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let shape = match r.bool()? {
            false => None,
            true => Some(decode_geo_shape(r)?),
        };
        let date_range = match r.bool()? {
            false => None,
            true => Some((decode_date(r)?, decode_date(r)?)),
        };
        let n = r.seq_len(1)?;
        let satellites = (0..n)
            .map(|_| match r.u8()? {
                1 => Ok(Satellite::Sentinel1),
                2 => Ok(Satellite::Sentinel2),
                other => Err(WireError::Corrupt(format!("unknown satellite tag {other}"))),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let n = r.seq_len(1)?;
        let seasons = (0..n)
            .map(|_| match r.u8()? {
                1 => Ok(Season::Spring),
                2 => Ok(Season::Summer),
                3 => Ok(Season::Autumn),
                4 => Ok(Season::Winter),
                other => Err(WireError::Corrupt(format!("unknown season tag {other}"))),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let n = r.seq_len(1)?;
        let countries = (0..n).map(|_| read_country(r)).collect::<Result<Vec<_>, _>>()?;
        let labels = match r.bool()? {
            false => None,
            true => {
                let op = match r.u8()? {
                    1 => LabelOp::Some,
                    2 => LabelOp::Exactly,
                    3 => LabelOp::AtLeastAndMore,
                    other => {
                        return Err(WireError::Corrupt(format!(
                            "unknown label operator tag {other}"
                        )))
                    }
                };
                let n = r.seq_len(2)?;
                let labels = (0..n)
                    .map(|_| {
                        let idx = r.u16()? as usize;
                        Label::from_index(idx).ok_or_else(|| {
                            WireError::Corrupt(format!("label index {idx} out of range"))
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Some(LabelFilterSpec { op, labels })
            }
        };
        Ok(Self { shape, date_range, satellites, seasons, countries, labels })
    }
}

/// Reads a country's tag (`Country::tag`; `Country::from_tag` owns the
/// mapping): a tag no country has is corrupt.
fn read_country(r: &mut Reader<'_>) -> Result<Country, WireError> {
    let tag = r.u8()?;
    Country::from_tag(tag).ok_or_else(|| WireError::Corrupt(format!("unknown country tag {tag}")))
}

const SHAPE_RECT: u8 = 1;
const SHAPE_CIRCLE: u8 = 2;
const SHAPE_POLYGON: u8 = 3;

fn encode_geo_shape(shape: &GeoShape, w: &mut Writer) {
    match shape {
        GeoShape::Rect(bbox) => {
            w.u8(SHAPE_RECT);
            encode_bbox(bbox, w);
        }
        GeoShape::Circle(circle) => {
            w.u8(SHAPE_CIRCLE);
            w.f64(circle.center.lon);
            w.f64(circle.center.lat);
            w.f64(circle.radius_km);
        }
        GeoShape::Polygon(polygon) => {
            w.u8(SHAPE_POLYGON);
            w.seq_len(polygon.vertices().len());
            for v in polygon.vertices() {
                w.f64(v.lon);
                w.f64(v.lat);
            }
        }
    }
}

fn decode_geo_shape(r: &mut Reader<'_>) -> Result<GeoShape, WireError> {
    let geo = |e: eq_geo::GeoError| WireError::Corrupt(format!("invalid query shape: {e}"));
    match r.u8()? {
        SHAPE_RECT => Ok(GeoShape::Rect(decode_bbox(r)?)),
        SHAPE_CIRCLE => {
            let center = Point::new(r.f64()?, r.f64()?).map_err(geo)?;
            Ok(GeoShape::Circle(Circle::new(center, r.f64()?).map_err(geo)?))
        }
        SHAPE_POLYGON => {
            let n = r.seq_len(16)?;
            let vertices = (0..n)
                .map(|_| Point::new(r.f64()?, r.f64()?).map_err(geo))
                .collect::<Result<Vec<_>, _>>()?;
            let polygon = Polygon::new(vertices).map_err(geo)?;
            // The encoder never writes a closing vertex, which `new` drops.
            if polygon.vertices().len() != n {
                return Err(WireError::Corrupt("polygon with a closing vertex".into()));
            }
            Ok(GeoShape::Polygon(polygon))
        }
        other => Err(WireError::Corrupt(format!("unknown shape tag {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Result payloads
// ---------------------------------------------------------------------------

/// One row of the result panel: one allocation, the name.  Country, date
/// and labels are the metadata table's `Copy` values and cross the wire as
/// such; they become display strings only in [`describe`](Self::describe).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultEntry {
    /// Patch name.
    pub name: String,
    /// Country of acquisition (on the wire: a `u8` tag, its position in
    /// `Country::ALL`).
    pub country: Country,
    /// Acquisition date (on the wire: `u16` year, `u8` month, `u8` day, as
    /// in a query's date range).
    pub date: AcquisitionDate,
    /// The patch's labels (on the wire: `LabelSet::bits`, a `u64`).
    pub labels: LabelSet,
    /// Hamming distance to the query image (only for similarity searches).
    pub distance: Option<u32>,
}

impl ResultEntry {
    /// Builds an entry from patch metadata.
    pub fn from_metadata(meta: &PatchMetadata, distance: Option<u32>) -> Self {
        Self {
            // lint:allow(hot-path) the name is the row's one owned field; everything else is `Copy`
            name: meta.name.clone(),
            country: meta.country,
            date: meta.date,
            labels: meta.labels,
            distance,
        }
    }

    /// A one-line description as displayed in the image-patches view.
    pub fn describe(&self) -> String {
        let labels: Vec<&str> = self.labels.iter().map(Label::name).collect();
        let line =
            format!("{} [{}] {} — {}", self.name, self.country, self.date, labels.join(", "));
        match self.distance {
            Some(d) => format!("{line} (hamming {d})"),
            None => line,
        }
    }
}

/// A row is its typed fields: a prefix ([`encode_row_prefix`]) and the
/// optional distance.
fn encode_row(row: &ResultEntry, w: &mut Writer) {
    encode_row_prefix(&row.name, row.country, row.date, row.labels, w);
    encode_row_distance(row.distance, w);
}

/// A row's prefix, every field but the distance: the name, the country's
/// tag, the date and, last, the label set's bits.  The query core encodes
/// each patch's prefix once, when the patch is applied, and copies it into
/// every answer that returns the patch ([`AnswerWriter::row`]).
pub fn encode_row_prefix(
    name: &str,
    country: Country,
    date: AcquisitionDate,
    labels: LabelSet,
    w: &mut Writer,
) {
    w.str(name);
    w.u8(country.tag());
    encode_date(date, w);
    encode_labels(labels, w);
}

/// The bytes [`encode_row_prefix`] writes for a row named `name`: the
/// name's length prefix and bytes, the country tag, the date and the label
/// bits.
pub const fn row_prefix_len(name: &str) -> usize {
    4 + name.len() + 1 + 4 + 8
}

/// A row's suffix: the distance flag, then the distance when there is one.
fn encode_row_distance(distance: Option<u32>, w: &mut Writer) {
    w.bool(distance.is_some());
    if let Some(d) = distance {
        w.u32(d);
    }
}

/// The label bits a row prefix ends with (0 for a prefix too short to hold
/// them, which [`encode_row_prefix`] never writes).
fn prefix_label_bits(prefix: &[u8]) -> u64 {
    prefix.last_chunk::<8>().map_or(0, |bits| u64::from_le_bytes(*bits))
}

/// The fewest bytes [`encode_row`] writes: an empty name's prefix and the
/// distance flag.
const MIN_ROW_LEN: usize = row_prefix_len("") + 1;

/// Accepts only what [`encode_row`] writes: an unknown country tag, a label
/// bit at or past `Label::COUNT` and an invalid date are corrupt, so
/// whatever decodes re-encodes to the bytes it came from.
fn decode_row(r: &mut Reader<'_>) -> Result<ResultEntry, WireError> {
    let name = r.str()?.to_string();
    let country = read_country(r)?;
    let date = decode_date(r)?;
    let labels = decode_labels(r)?;
    let distance = r.bool()?.then(|| r.u32()).transpose()?;
    Ok(ResultEntry { name, country, date, labels, distance })
}

/// The planner report of a metadata search, mirroring
/// `eq_docstore`'s `QueryPlan`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSpec {
    /// The index that drove the scan, or `None` for a full scan.
    pub index_used: Option<String>,
    /// Candidate documents examined.
    pub scanned: u64,
    /// Documents that matched.
    pub matched: u64,
}

/// A full search response as it crosses the wire: the rows, page size,
/// label statistics and plan of `eq_earthqube::SearchResponse`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchPayload {
    /// All result rows, in rank order (the full panel, not one page).
    pub rows: Vec<ResultEntry>,
    /// The result panel's page size.
    pub page_size: u64,
    /// Per-label occurrence counts, indexed by `Label::index`, as the wire
    /// carries them: a count never exceeds the rows of an answer, and rows
    /// are dense ids, which are `u32`.
    pub label_counts: Vec<u32>,
    /// Number of images the statistics cover.
    pub image_count: u64,
    /// Planner report (`None` for pure CBIR responses).
    pub plan: Option<PlanSpec>,
}

impl SearchPayload {
    /// Encodes the search payload.
    pub fn encode(&self, w: &mut Writer) {
        w.seq_len(self.rows.len());
        for row in &self.rows {
            encode_row(row, w);
        }
        w.u64(self.page_size);
        w.seq_len(self.label_counts.len());
        for &count in &self.label_counts {
            w.u32(count);
        }
        w.u64(self.image_count);
        encode_plan(self.plan.as_ref(), w);
    }

    /// Decodes a search payload.
    ///
    /// # Errors
    /// Returns [`WireError`] on truncation or corrupt fields.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        // `seq_len` bounds `n` by the bytes left (`MIN_ROW_LEN` a row), so
        // the reservation is a small multiple of the frame, whatever it claims.
        let n = r.seq_len(MIN_ROW_LEN)?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            rows.push(decode_row(r)?);
        }
        let page_size = r.u64()?;
        // Bounded the same way: four bytes a count.
        let n = r.seq_len(4)?;
        let mut label_counts = Vec::with_capacity(n);
        for _ in 0..n {
            label_counts.push(r.u32()?);
        }
        let image_count = r.u64()?;
        let plan = match r.bool()? {
            false => None,
            true => Some(PlanSpec {
                index_used: r.opt_str()?.map(str::to_string),
                scanned: r.u64()?,
                matched: r.u64()?,
            }),
        };
        Ok(Self { rows, page_size, label_counts, image_count, plan })
    }
}

fn encode_plan(plan: Option<&PlanSpec>, w: &mut Writer) {
    match plan {
        None => w.u8(0),
        Some(plan) => {
            w.u8(1);
            w.opt_str(plan.index_used.as_deref());
            w.u64(plan.scanned);
            w.u64(plan.matched);
        }
    }
}

/// The most rows a page of the result panel holds (the paper's UI adds
/// "the current page range of images (up to 50)" to the cart).
pub const MAX_PAGE_SIZE: usize = 50;

/// The page size a result panel keeps for a requested one: clamped to
/// 1..=[`MAX_PAGE_SIZE`].  The panel and the answer writer both clamp here.
pub fn panel_page_size(page_size: usize) -> usize {
    page_size.clamp(1, MAX_PAGE_SIZE)
}

/// Which body an [`AnswerWriter`] writes, and the plan it ends with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerPlan<'p> {
    /// A [`ResponseBody::Search`] body, with the planner report of a
    /// metadata search (`None` for a similarity search).
    Search(Option<&'p PlanSpec>),
    /// A [`ResponseBody::Filtered`] body: no planner report, then the
    /// filter's plan.
    Filtered(FilteredPlan),
}

/// Writes a [`ResponseBody::Search`] or [`ResponseBody::Filtered`] body one
/// row at a time, from row prefixes encoded ahead of time
/// ([`encode_row_prefix`]): the bytes [`ResponseBody::encode_into`] writes
/// for the payload whose rows those are, with label statistics counted from
/// the rows' own label bits.  The row count is the rows written, set into a
/// `u32` reserved before them; the page size is clamped as the result panel
/// clamps it ([`panel_page_size`]); each label count is a `u32`, as on the
/// wire.  Dropped before [`finish`](Self::finish), it leaves a torn body.
#[derive(Debug)]
pub struct AnswerWriter<'w, 'p> {
    w: &'w mut Writer,
    plan: AnswerPlan<'p>,
    /// Where the reserved row count sits in `w`.
    rows_at: usize,
    rows: u32,
    label_counts: [u32; Label::COUNT],
}

impl<'w, 'p> AnswerWriter<'w, 'p> {
    /// Starts a body in `w`: its tag and the reserved row count.
    pub fn new(w: &'w mut Writer, plan: AnswerPlan<'p>) -> Self {
        w.u8(match plan {
            AnswerPlan::Search(_) => RESP_SEARCH,
            AnswerPlan::Filtered(_) => RESP_FILTERED,
        });
        let rows_at = w.len();
        w.u32(0);
        Self { w, plan, rows_at, rows: 0, label_counts: [0; Label::COUNT] }
    }

    /// Appends one row, its prefix copied and its distance written after
    /// it, and counts the labels the prefix ends with.
    pub fn row(&mut self, prefix: &[u8], distance: Option<u32>) {
        self.w.raw(prefix);
        encode_row_distance(distance, self.w);
        let mut bits = prefix_label_bits(prefix);
        while bits != 0 {
            // A prefix holds a `LabelSet`'s bits, all below `Label::COUNT`.
            if let Some(count) = self.label_counts.get_mut(bits.trailing_zeros() as usize) {
                *count += 1;
            }
            bits &= bits - 1;
        }
        self.rows += 1;
    }

    /// Ends the body: sets the row count, then writes the page size, the
    /// label statistics over the rows and the plan.
    pub fn finish(self, page_size: usize) {
        let Self { w, plan, rows_at, rows, label_counts } = self;
        w.set_u32(rows_at, rows);
        w.u64(panel_page_size(page_size) as u64);
        w.seq_len(label_counts.len());
        for count in label_counts {
            w.u32(count);
        }
        w.u64(u64::from(rows));
        match plan {
            AnswerPlan::Search(plan) => encode_plan(plan, w),
            AnswerPlan::Filtered(plan) => {
                encode_plan(None, w);
                plan.encode(w);
            }
        }
    }
}

/// Summary of an ingestion run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Number of metadata documents written.
    pub metadata_docs: usize,
    /// Number of image-data documents written (0 for metadata-only ingest).
    pub image_docs: usize,
    /// Number of rendered-image documents written.
    pub rendered_docs: usize,
}

impl IngestReport {
    /// Encodes the report.
    pub fn encode(&self, w: &mut Writer) {
        w.u64(self.metadata_docs as u64);
        w.u64(self.image_docs as u64);
        w.u64(self.rendered_docs as u64);
    }

    /// Decodes a report.
    ///
    /// # Errors
    /// Returns [`WireError`] on truncation.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut count = || r.u64().map(|n| n as usize);
        Ok(Self { metadata_docs: count()?, image_docs: count()?, rendered_docs: count()? })
    }
}

/// A point-in-time snapshot of the serving counters.  Every counter
/// crosses the wire, so a snapshot fetched by `EqClient::stats` equals the
/// in-process one it was taken from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// Total queries attempted (cache hits and failed queries included).
    pub queries_served: u64,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
    /// Queries that missed the cache and were computed.
    pub cache_misses: u64,
    /// Entries currently held by the result cache.
    pub cache_entries: usize,
    /// Filter resolutions answered from the resolved-filter cache (a
    /// result-cache hit resolves nothing and counts in neither of these).
    pub filter_cache_hits: u64,
    /// Filter resolutions that compiled and walked the filter.
    pub filter_cache_misses: u64,
    /// Resolved filters currently cached.
    pub filter_cache_entries: usize,
    /// Bytes the cached resolved filters hold, masks first.
    pub filter_cache_bytes: usize,
    /// Images currently indexed (initial build plus live ingest).
    pub archive_size: usize,
    /// Images appended through `QueryServer::ingest`.
    pub ingested_images: u64,
}

impl ServerStats {
    /// Fraction of queries answered from the cache (`0.0` when no query
    /// has been served yet).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Renders the snapshot as a short text report (for the examples).
    pub fn render(&self) -> String {
        format!(
            "{} queries served ({} cache hits, {} misses, hit rate {:.0}%)\n\
             {} images indexed ({} ingested live), {} cached results\n\
             {} filters resolved from cache, {} compiled; {} cached in {} bytes\n",
            self.queries_served,
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_rate() * 100.0,
            self.archive_size,
            self.ingested_images,
            self.cache_entries,
            self.filter_cache_hits,
            self.filter_cache_misses,
            self.filter_cache_entries,
            self.filter_cache_bytes,
        )
    }

    /// Encodes the snapshot: its ten counters as `u64`s, in field order.
    pub fn encode(&self, w: &mut Writer) {
        w.u64(self.queries_served);
        w.u64(self.cache_hits);
        w.u64(self.cache_misses);
        w.u64(self.cache_entries as u64);
        w.u64(self.filter_cache_hits);
        w.u64(self.filter_cache_misses);
        w.u64(self.filter_cache_entries as u64);
        w.u64(self.filter_cache_bytes as u64);
        w.u64(self.archive_size as u64);
        w.u64(self.ingested_images);
    }

    /// Decodes a snapshot written by [`encode`](Self::encode).
    ///
    /// # Errors
    /// Returns [`WireError`] on truncation.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            queries_served: r.u64()?,
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
            cache_entries: r.u64()? as usize,
            filter_cache_hits: r.u64()?,
            filter_cache_misses: r.u64()?,
            filter_cache_entries: r.u64()? as usize,
            filter_cache_bytes: r.u64()? as usize,
            archive_size: r.u64()? as usize,
            ingested_images: r.u64()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Filtered similarity search
// ---------------------------------------------------------------------------

/// How a filtered similarity search chooses its execution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrefilterMode {
    /// Cost-based choice: use the bitmap prefilter when the filter
    /// compiles to a candidate set no larger than half the collection,
    /// otherwise scan-then-post-filter.
    #[default]
    Auto,
    /// Use the bitmap prefilter whenever the filter compiles to a bitmap
    /// at all: how the query panel's own `search` resolves (it is what
    /// `Collection::find` does), and a benchmark / test knob for the
    /// similarity searches.
    ForceBitmap,
    /// Always scan-then-post-filter (benchmark / test knob).
    ForcePostFilter,
}

impl PrefilterMode {
    /// Encodes the mode tag.
    pub fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            PrefilterMode::Auto => 1,
            PrefilterMode::ForceBitmap => 2,
            PrefilterMode::ForcePostFilter => 3,
        });
    }

    /// Decodes the mode tag.
    ///
    /// # Errors
    /// Returns [`WireError`] on truncation or an unknown tag.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            1 => Ok(PrefilterMode::Auto),
            2 => Ok(PrefilterMode::ForceBitmap),
            3 => Ok(PrefilterMode::ForcePostFilter),
            other => Err(WireError::Corrupt(format!("unknown prefilter mode tag {other}"))),
        }
    }
}

/// The strategy a filtered similarity search actually executed.  Both
/// resolve the exact matching set before any distance work; they differ
/// only in how they find it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterStrategy {
    /// Posting-bitmap candidates, residual on survivors only.
    BitmapPrefilter,
    /// Full metadata scan with per-document filter evaluation.
    PostFilter,
}

/// How a filtered similarity search was planned and executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilteredPlan {
    /// The strategy that ran.
    pub strategy: FilterStrategy,
    /// Cardinality of the compiled candidate bitmap (`None` when nothing
    /// in the filter was indexable).  Reported for both strategies — it is
    /// the number the planner based its decision on.
    pub candidates: Option<u64>,
    /// Whether a residual filter had to run on the candidates (`false`
    /// means the bitmap alone was exact).
    pub residual: bool,
    /// Exact number of archive images matching the filter — the universe
    /// the similarity search ranked.
    pub matching: usize,
}

impl FilteredPlan {
    /// Encodes the plan.
    pub fn encode(&self, w: &mut Writer) {
        w.u8(match self.strategy {
            FilterStrategy::BitmapPrefilter => 1,
            FilterStrategy::PostFilter => 2,
        });
        match self.candidates {
            None => w.u8(0),
            Some(n) => {
                w.u8(1);
                w.u64(n);
            }
        }
        w.bool(self.residual);
        w.u64(self.matching as u64);
    }

    /// Decodes a plan.
    ///
    /// # Errors
    /// Returns [`WireError`] on truncation or an unknown strategy tag.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let strategy = match r.u8()? {
            1 => FilterStrategy::BitmapPrefilter,
            2 => FilterStrategy::PostFilter,
            other => {
                return Err(WireError::Corrupt(format!("unknown filter strategy tag {other}")))
            }
        };
        let candidates = r.bool()?.then(|| r.u64()).transpose()?;
        Ok(Self { strategy, candidates, residual: r.bool()?, matching: r.u64()? as usize })
    }
}

/// A filtered similarity response: the result panel plus the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilteredPayload {
    /// The result panel, label statistics and (CBIR) distances.
    pub search: SearchPayload,
    /// How the filter was executed.
    pub plan: FilteredPlan,
}

impl FilteredPayload {
    /// Encodes the filtered payload.
    pub fn encode(&self, w: &mut Writer) {
        self.search.encode(w);
        self.plan.encode(w);
    }

    /// Decodes a filtered payload.
    ///
    /// # Errors
    /// Returns [`WireError`] on truncation or corrupt fields.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self { search: SearchPayload::decode(r)?, plan: FilteredPlan::decode(r)? })
    }
}

// ---------------------------------------------------------------------------
// Replication plane
// ---------------------------------------------------------------------------

/// A server's replication role, lineage and record counts — the answer to
/// [`RequestBody::ReplState`], and the replication handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplState {
    /// Whether the server accepts writes.
    pub primary: bool,
    /// Whether the server is attached to a persistence directory (a
    /// detached server cannot serve or follow replication; the other
    /// fields are then zero).
    pub attached: bool,
    /// The WAL generation of the current lineage (0 when detached).
    pub generation: u32,
    /// Ingest records the server holds, all of them durable.
    pub ingested: u64,
    /// Feedback records the server holds, all of them durable.
    pub feedback: u64,
}

impl ReplState {
    /// Encodes the state.
    pub fn encode(&self, w: &mut Writer) {
        w.bool(self.primary);
        w.bool(self.attached);
        w.u32(self.generation);
        w.u64(self.ingested);
        w.u64(self.feedback);
    }

    /// Decodes a state.
    ///
    /// # Errors
    /// Returns [`WireError`] on truncation.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            primary: r.bool()?,
            attached: r.bool()?,
            generation: r.u32()?,
            ingested: r.u64()?,
            feedback: r.u64()?,
        })
    }
}

/// One replication pull's worth of records — the answer to
/// [`RequestBody::ReplPull`].
///
/// `runs` holds records chunk bodies exactly as `eq_earthqube` checkpoints
/// them (a tag, the run's start in its sequence, the WAL record payloads
/// back to back): at most one per sequence, ingest's first, each starting
/// at the count the replica asked from (from 0 with `reseed`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplBatch {
    /// The primary does not continue the replica's lineage (none yet, a
    /// foreign generation, counts above its own, or a last record it does
    /// not hold at that position): the replica must
    /// start over from `static_chunk` and the runs, under `generation`.
    pub reseed: bool,
    /// The primary's lineage generation.
    pub generation: u32,
    /// Ingest records the primary held at reply time (for lag accounting).
    pub ingested: u64,
    /// Feedback records the primary held at reply time.
    pub feedback: u64,
    /// With `reseed`, the primary's static chunk body (configuration and
    /// model); empty otherwise.
    pub static_chunk: Vec<u8>,
    /// The records, as records chunk bodies (possibly none when caught up).
    pub runs: Vec<Vec<u8>>,
}

impl ReplBatch {
    /// Encodes the batch.
    pub fn encode(&self, w: &mut Writer) {
        w.bool(self.reseed);
        w.u32(self.generation);
        w.u64(self.ingested);
        w.u64(self.feedback);
        w.bytes(&self.static_chunk);
        w.seq_len(self.runs.len());
        for run in &self.runs {
            w.bytes(run);
        }
    }

    /// Decodes a batch.
    ///
    /// # Errors
    /// Returns [`WireError`] on truncation.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (reseed, generation, ingested, feedback) = (r.bool()?, r.u32()?, r.u64()?, r.u64()?);
        let static_chunk = r.bytes()?.to_vec();
        let n = r.seq_len(4)?;
        let runs = (0..n).map(|_| Ok(r.bytes()?.to_vec())).collect::<Result<_, WireError>>()?;
        Ok(Self { reseed, generation, ingested, feedback, static_chunk, runs })
    }
}

// ---------------------------------------------------------------------------
// Errors over the wire
// ---------------------------------------------------------------------------

/// Error categories, mirroring `eq_earthqube::EarthQubeError` so a remote
/// client can reconstruct the exact server-side error variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// A referenced image does not exist.
    UnknownImage,
    /// The document store failed.
    Store,
    /// The CBIR service is not built.
    CbirNotReady,
    /// The request was malformed.
    BadRequest,
    /// The durable storage tier failed.
    Persist,
    /// Any other server-side failure.
    Internal,
    /// The server shed this request: it was over the per-connection quota
    /// of one read burst.  The connection stays usable and the client may
    /// retry once it has read its answers.
    Overloaded,
    /// A write reached a read replica; the client should re-discover the
    /// primary and retry there.
    NotPrimary,
}

/// A server-side error as it crosses the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorPayload {
    /// The error category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorPayload {
    /// Encodes the error payload.
    pub fn encode(&self, w: &mut Writer) {
        w.u8(match self.code {
            ErrorCode::UnknownImage => 1,
            ErrorCode::Store => 2,
            ErrorCode::CbirNotReady => 3,
            ErrorCode::BadRequest => 4,
            ErrorCode::Persist => 5,
            ErrorCode::Internal => 6,
            ErrorCode::Overloaded => 7,
            ErrorCode::NotPrimary => 8,
        });
        w.str(&self.message);
    }

    /// Decodes an error payload.
    ///
    /// # Errors
    /// Returns [`WireError`] on truncation or an unknown code.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let code = match r.u8()? {
            1 => ErrorCode::UnknownImage,
            2 => ErrorCode::Store,
            3 => ErrorCode::CbirNotReady,
            4 => ErrorCode::BadRequest,
            5 => ErrorCode::Persist,
            6 => ErrorCode::Internal,
            7 => ErrorCode::Overloaded,
            8 => ErrorCode::NotPrimary,
            other => return Err(WireError::Corrupt(format!("unknown error code {other}"))),
        };
        Ok(Self { code, message: r.str()?.to_string() })
    }
}

// ---------------------------------------------------------------------------
// Stream I/O
// ---------------------------------------------------------------------------

/// Enforces [`MAX_FRAME_LEN`] on the *sending* side: every reader rejects
/// larger frames, so emitting one would only fail at the peer with an
/// opaque transport error instead of a clear local one.
fn check_outgoing(payload_len: usize) -> Result<(), ProtoError> {
    if payload_len as u64 > MAX_FRAME_LEN as u64 {
        return Err(ProtoError::Frame(FrameError::Oversized {
            declared: payload_len as u64,
            max: MAX_FRAME_LEN as u64,
        }));
    }
    Ok(())
}

/// Appends one complete frame to `buf`, its payload written by `encode`
/// straight behind the reserved header (no payload → frame copy).  On an
/// error `buf` is back to what it held before.
fn frame_with(
    buf: &mut Vec<u8>,
    magic: &[u8; 4],
    encode: impl FnOnce(&mut Writer),
) -> Result<(), ProtoError> {
    let start = begin_frame(buf, magic);
    let mut w = Writer::appending_to(std::mem::take(buf));
    encode(&mut w);
    *buf = w.into_bytes();
    let framed = check_outgoing(buf.len() - start - HEADER_LEN)
        .and_then(|()| end_frame(buf, start).map_err(ProtoError::from));
    if framed.is_err() {
        buf.truncate(start);
    }
    framed
}

/// Appends one complete request frame to `buf`; `encode` writes the payload
/// (envelope included: [`Request::encode_into`], or one of the borrowed
/// `encode_*_request_into` encoders) in place.  A connection that reuses one
/// buffer per frame and sends it with one `write_all` pays one `write(2)`
/// and no copy per request.
///
/// # Errors
/// Returns [`ProtoError::Frame`] for a payload exceeding [`MAX_FRAME_LEN`];
/// `buf` is then unchanged.
pub fn frame_request_with(
    buf: &mut Vec<u8>,
    encode: impl FnOnce(&mut Writer),
) -> Result<(), ProtoError> {
    frame_with(buf, &REQUEST_MAGIC, encode)
}

/// Appends one complete response frame to `buf`, encoded in place.
///
/// # Errors
/// Returns [`ProtoError::Frame`] for a message exceeding [`MAX_FRAME_LEN`];
/// `buf` is then unchanged.
pub fn frame_response(buf: &mut Vec<u8>, response: &Response) -> Result<(), ProtoError> {
    frame_with(buf, &RESPONSE_MAGIC, |w| response.encode_into(w))
}

/// Appends one complete response frame to `buf` from a body already
/// encoded by [`ResponseBody::encode_into`]: a fresh envelope under `id`,
/// the body's bytes, the CRC over both.  `buf` grows once, to exactly the
/// frame's size; the bytes are those [`frame_response`] writes for the
/// decoded body.
///
/// # Errors
/// Returns [`ProtoError::Frame`] for a message exceeding [`MAX_FRAME_LEN`];
/// `buf` is then unchanged.
pub fn frame_encoded_response(buf: &mut Vec<u8>, id: u64, body: &[u8]) -> Result<(), ProtoError> {
    buf.reserve_exact(HEADER_LEN + ENVELOPE_LEN + body.len());
    frame_with(buf, &RESPONSE_MAGIC, |w| {
        encode_envelope(w, id);
        w.raw(body);
    })
}

/// Writes one request frame to the stream, in one `write_all`.
///
/// # Errors
/// Returns [`ProtoError::Frame`] on I/O failure or a message exceeding
/// [`MAX_FRAME_LEN`] (which no peer would accept).
pub fn write_request<W: Write>(w: &mut W, request: &Request) -> Result<(), ProtoError> {
    let mut frame = Vec::new();
    frame_request_with(&mut frame, |out| request.encode_into(out))?;
    w.write_all(&frame).map_err(FrameError::Io)?;
    Ok(())
}

/// Writes pre-encoded request payload bytes (from [`Request::encode`],
/// [`encode_ingest_request`] or [`encode_new_example_request`]) as one
/// request frame.
///
/// # Errors
/// Returns [`ProtoError::Frame`] on I/O failure or a payload exceeding
/// [`MAX_FRAME_LEN`].
pub fn write_request_payload<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), ProtoError> {
    check_outgoing(payload.len())?;
    write_frame(w, &REQUEST_MAGIC, payload)?;
    Ok(())
}

/// Reads one request frame; `Ok(None)` means the peer closed the stream
/// cleanly on a frame boundary.
///
/// # Errors
/// Returns [`ProtoError`] on transport faults or an invalid message.
pub fn read_request<R: Read>(r: &mut R) -> Result<Option<Request>, ProtoError> {
    match read_frame(r, &REQUEST_MAGIC, MAX_FRAME_LEN)? {
        None => Ok(None),
        Some(payload) => Ok(Some(Request::decode(&payload)?)),
    }
}

/// Writes one response frame to the stream, in one `write_all`.
///
/// # Errors
/// Returns [`ProtoError::Frame`] on I/O failure or a message exceeding
/// [`MAX_FRAME_LEN`] (which no peer would accept).
pub fn write_response<W: Write>(w: &mut W, response: &Response) -> Result<(), ProtoError> {
    let mut frame = Vec::new();
    frame_response(&mut frame, response)?;
    w.write_all(&frame).map_err(FrameError::Io)?;
    Ok(())
}

/// Reads one response frame; `Ok(None)` means the server closed the stream
/// cleanly on a frame boundary.
///
/// # Errors
/// Returns [`ProtoError`] on transport faults or an invalid message.
pub fn read_response<R: Read>(r: &mut R) -> Result<Option<Response>, ProtoError> {
    match read_frame(r, &RESPONSE_MAGIC, MAX_FRAME_LEN)? {
        None => Ok(None),
        Some(payload) => Ok(Some(Response::decode(&payload)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_bigearthnet::{ArchiveGenerator, GeneratorConfig};
    use eq_geo::BBox;

    fn sample_query() -> QuerySpec {
        QuerySpec {
            shape: Some(GeoShape::Rect(BBox::new(-9.5, 36.9, -6.2, 42.2).unwrap())),
            date_range: Some((
                AcquisitionDate::new(2017, 6, 1).unwrap(),
                AcquisitionDate::new(2018, 5, 31).unwrap(),
            )),
            satellites: vec![Satellite::Sentinel2],
            seasons: vec![Season::Summer, Season::Winter],
            countries: vec![Country::Portugal, Country::Finland],
            labels: Some(LabelFilterSpec {
                op: LabelOp::AtLeastAndMore,
                labels: vec![Label::SeaAndOcean, Label::ConiferousForest],
            }),
        }
    }

    fn sample_stats() -> ServerStats {
        ServerStats {
            queries_served: 100,
            cache_hits: 40,
            cache_misses: 60,
            cache_entries: 12,
            filter_cache_hits: 7,
            filter_cache_misses: 3,
            filter_cache_entries: 2,
            filter_cache_bytes: 4096,
            archive_size: 500,
            ingested_images: 20,
        }
    }

    fn roundtrip_request(request: &Request) {
        let mut buf = Vec::new();
        write_request(&mut buf, request).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let back = read_request(&mut cursor).unwrap().unwrap();
        assert_eq!(&back, request);
        assert!(read_request(&mut cursor).unwrap().is_none(), "clean EOF after one frame");
    }

    fn roundtrip_response(response: &Response) {
        let mut buf = Vec::new();
        write_response(&mut buf, response).unwrap();
        let back = read_response(&mut std::io::Cursor::new(&buf)).unwrap().unwrap();
        assert_eq!(&back, response);

        // The body alone: what a server caches.  It is the message minus
        // the envelope, decodes back, and frames under a fresh envelope to
        // the very bytes `frame_response` writes, in one allocation.
        let mut w = Writer::new();
        response.body.encode_into(&mut w);
        let body = w.into_bytes();
        assert_eq!(&response.encode()[ENVELOPE_LEN..], &body[..]);
        assert_eq!(ResponseBody::decode(&body).unwrap(), response.body);
        let mut framed = Vec::new();
        frame_encoded_response(&mut framed, response.id, &body).unwrap();
        assert_eq!(framed, buf);
        assert_eq!(framed.capacity(), framed.len());
        let mut trailing = body.clone();
        trailing.push(0);
        assert!(ResponseBody::decode(&trailing).is_err(), "trailing bytes are refused");
    }

    #[test]
    fn every_request_kind_roundtrips() {
        let patch = ArchiveGenerator::new(GeneratorConfig::tiny(1, 5)).unwrap().generate_patch(0);
        let requests = vec![
            Request { id: 0, body: RequestBody::Ping },
            Request { id: 1, body: RequestBody::Search(sample_query()) },
            Request { id: 2, body: RequestBody::Search(QuerySpec::default()) },
            Request { id: 3, body: RequestBody::SimilarTo { name: "patch_x".into(), k: 9 } },
            Request {
                id: 4,
                body: RequestBody::SearchByNewExample { patch: Box::new(patch.clone()), k: 5 },
            },
            Request { id: 5, body: RequestBody::Ingest { patches: vec![patch.clone(), patch] } },
            Request {
                id: 6,
                body: RequestBody::Feedback { text: "nice".into(), category: Some("r".into()) },
            },
            Request { id: 7, body: RequestBody::Feedback { text: "…".into(), category: None } },
            Request { id: u64::MAX, body: RequestBody::Stats },
            Request { id: 8, body: RequestBody::MetricsText },
            Request {
                id: 9,
                body: RequestBody::SimilarToFiltered {
                    name: "patch_y".into(),
                    k: 12,
                    spec: sample_query(),
                    mode: PrefilterMode::Auto,
                },
            },
            Request {
                id: 10,
                body: RequestBody::SimilarWithinFiltered {
                    name: "patch_z".into(),
                    radius: 6,
                    spec: QuerySpec::default(),
                    mode: PrefilterMode::ForcePostFilter,
                },
            },
            Request { id: 11, body: RequestBody::ReplState },
            Request {
                id: 14,
                body: RequestBody::ReplPull {
                    generation: 17,
                    ingested: 3,
                    feedback: 16,
                    tails: [0xDEAD_BEEF, 7],
                    max_bytes: 1 << 20,
                },
            },
        ];
        for request in &requests {
            roundtrip_request(request);
        }
    }

    #[test]
    fn every_response_kind_roundtrips() {
        let search = SearchPayload {
            rows: vec![
                ResultEntry {
                    name: "p0".into(),
                    country: Country::Portugal,
                    date: AcquisitionDate::new(2017, 7, 17).unwrap(),
                    labels: LabelSet::from_labels([Label::SeaAndOcean]),
                    distance: Some(3),
                },
                ResultEntry {
                    name: "p1".into(),
                    country: Country::Finland,
                    date: AcquisitionDate::new(2018, 1, 2).unwrap(),
                    labels: LabelSet::EMPTY,
                    distance: None,
                },
            ],
            page_size: 50,
            label_counts: vec![0; Label::COUNT],
            image_count: 2,
            plan: Some(PlanSpec { index_used: Some("country".into()), scanned: 10, matched: 2 }),
        };
        let responses = vec![
            Response { id: 0, body: ResponseBody::Pong },
            Response { id: 1, body: ResponseBody::Search(search) },
            Response {
                id: 2,
                body: ResponseBody::Ingest(IngestReport {
                    metadata_docs: 3,
                    image_docs: 3,
                    rendered_docs: 3,
                }),
            },
            Response { id: 3, body: ResponseBody::Feedback { id: -7 } },
            Response { id: 4, body: ResponseBody::Stats(sample_stats()) },
            Response {
                id: 5,
                body: ResponseBody::Error(ErrorPayload {
                    code: ErrorCode::UnknownImage,
                    message: "unknown image: ghost".into(),
                }),
            },
            Response {
                id: 6,
                body: ResponseBody::Error(ErrorPayload {
                    code: ErrorCode::Overloaded,
                    message: "per-client quota exceeded".into(),
                }),
            },
            Response {
                id: 7,
                body: ResponseBody::MetricsText(
                    "eq_queries_served_total 100\neq_net_accepted_total 3\n".into(),
                ),
            },
            Response {
                id: 8,
                body: ResponseBody::Error(ErrorPayload {
                    code: ErrorCode::NotPrimary,
                    message: "writes must go to the primary".into(),
                }),
            },
            Response {
                id: 9,
                body: ResponseBody::Filtered(FilteredPayload {
                    search: SearchPayload {
                        rows: vec![],
                        page_size: 50,
                        label_counts: vec![0; Label::COUNT],
                        image_count: 0,
                        plan: None,
                    },
                    plan: FilteredPlan {
                        strategy: FilterStrategy::BitmapPrefilter,
                        candidates: Some(42),
                        residual: true,
                        matching: 120,
                    },
                }),
            },
            Response {
                id: 10,
                body: ResponseBody::ReplState(ReplState {
                    primary: true,
                    attached: true,
                    generation: 9,
                    ingested: 5,
                    feedback: 8192,
                }),
            },
            Response {
                id: 13,
                body: ResponseBody::ReplRecords(ReplBatch {
                    reseed: false,
                    generation: 9,
                    ingested: 6,
                    feedback: 16,
                    static_chunk: vec![],
                    runs: vec![vec![7; 10], vec![8; 3]],
                }),
            },
            Response {
                id: 14,
                body: ResponseBody::ReplRecords(ReplBatch {
                    reseed: true,
                    generation: 11,
                    static_chunk: vec![1, 2, 3],
                    ..ReplBatch::default()
                }),
            },
        ];
        for response in &responses {
            roundtrip_response(response);
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut bytes = Request { id: 1, body: RequestBody::Ping }.encode();
        bytes[0] = 99; // version low byte
        assert!(matches!(Request::decode(&bytes), Err(WireError::Corrupt(_))));
    }

    /// A version 1 peer wrote rows as strings; its frames are refused by the
    /// envelope, before a row is read, so no v1 row is ever read as v2.
    #[test]
    fn a_version_1_frame_is_refused_not_misread() {
        let mut frame = Vec::new();
        frame_with(&mut frame, &RESPONSE_MAGIC, |w| {
            w.u16(1);
            w.u64(3);
            w.u8(RESP_SEARCH);
            w.seq_len(1);
            for field in ["p", "Portugal", "2017-07-17"] {
                w.str(field);
            }
            w.seq_len(1);
            w.str("Sea and ocean");
            w.bool(false);
            w.u64(50);
            w.seq_len(0);
            w.u64(1);
            w.u8(0);
        })
        .unwrap();
        match read_response(&mut std::io::Cursor::new(frame)) {
            Err(ProtoError::Message(WireError::Corrupt(message))) => {
                assert!(message.starts_with("protocol version 1 "), "{message}")
            }
            other => panic!("a version 1 frame read as {other:?}"),
        }
    }

    /// A version 2 peer wrote label counts as `u64`s and knew the snapshot
    /// shipping kinds; a version 3 peer wrote a stats snapshot as seven
    /// fields (no filter-cache counters, a shard occupancy list).  Their
    /// frames are refused by the envelope, before a field is read, so no
    /// older answer is ever read as a v4 one.
    #[test]
    fn version_2_and_3_frames_are_refused_not_misread() {
        let refused = |version: u16, body: &dyn Fn(&mut Writer)| {
            let mut frame = Vec::new();
            frame_with(&mut frame, &RESPONSE_MAGIC, |w| {
                w.u16(version);
                w.u64(3);
                body(w);
            })
            .unwrap();
            match read_response(&mut std::io::Cursor::new(frame)) {
                Err(ProtoError::Message(WireError::Corrupt(message))) => {
                    assert!(
                        message.starts_with(&format!("protocol version {version} ")),
                        "{message}"
                    )
                }
                other => panic!("a version {version} frame read as {other:?}"),
            }
        };
        refused(2, &|w| {
            w.u8(RESP_SEARCH);
            w.seq_len(0);
            w.u64(50);
            w.seq_len(1);
            w.u64(1);
            w.u64(1);
            w.u8(0);
        });
        refused(3, &|w| {
            w.u8(RESP_STATS);
            for counter in [100, 40, 60, 12, 500, 20] {
                w.u64(counter);
            }
            w.seq_len(1);
            w.u64(500);
        });
    }

    /// The snapshot shipping tags of version 2 are retired: a v3 or v4 frame
    /// carrying one is an unknown tag, never another kind.
    #[test]
    fn retired_replication_tags_are_unknown() {
        for tag in [12, 13] {
            let mut w = Writer::new();
            w.u16(PROTOCOL_VERSION);
            w.u64(1);
            w.u8(tag);
            assert!(Request::decode(w.as_bytes()).is_err(), "request tag {tag}");
        }
        for tag in [10, 11] {
            assert!(ResponseBody::decode(&[tag, 0, 0, 0, 0]).is_err(), "response tag {tag}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Request { id: 1, body: RequestBody::Stats }.encode();
        bytes.push(0);
        assert!(matches!(Request::decode(&bytes), Err(WireError::Corrupt(_))));
        let mut bytes = Response { id: 1, body: ResponseBody::Pong }.encode();
        bytes.push(0);
        assert!(matches!(Response::decode(&bytes), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let mut w = Writer::new();
        w.u16(PROTOCOL_VERSION);
        w.u64(1);
        w.u8(200);
        assert!(Request::decode(w.as_bytes()).is_err());
        assert!(Response::decode(w.as_bytes()).is_err());
    }

    #[test]
    fn request_and_response_magics_are_direction_tagged() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request { id: 1, body: RequestBody::Ping }).unwrap();
        // Reading a request frame as a response fails on the first frame.
        let err = read_response(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, ProtoError::Frame(FrameError::BadMagic { .. })));
    }

    #[test]
    fn all_geo_shapes_roundtrip() {
        for shape in [
            GeoShape::Rect(BBox::new(0.0, 0.0, 1.0, 1.0).unwrap()),
            GeoShape::Circle(Circle::new(Point::new(10.0, 50.0).unwrap(), 25.0).unwrap()),
            GeoShape::Polygon(
                Polygon::new(vec![
                    Point::new(0.0, 0.0).unwrap(),
                    Point::new(1.0, 0.0).unwrap(),
                    Point::new(0.5, 1.5).unwrap(),
                ])
                .unwrap(),
            ),
        ] {
            let spec = QuerySpec { shape: Some(shape), ..QuerySpec::default() };
            let request = Request { id: 9, body: RequestBody::Search(spec) };
            roundtrip_request(&request);
        }
    }

    /// The encoder never writes a polygon's closing vertex, so a polygon
    /// that repeats its first vertex last is corrupt, not shortened.
    #[test]
    fn a_polygon_with_a_closing_vertex_is_refused() {
        let mut w = Writer::new();
        w.u16(PROTOCOL_VERSION);
        w.u64(1);
        w.u8(REQ_SEARCH);
        w.u8(1);
        w.u8(SHAPE_POLYGON);
        w.seq_len(4);
        for (lon, lat) in [(0.0, 0.0), (1.0, 0.0), (0.5, 1.5), (0.0, 0.0)] {
            w.f64(lon);
            w.f64(lat);
        }
        w.u8(0); // no date range
        for _ in 0..3 {
            w.seq_len(0); // no satellites, seasons or countries
        }
        w.u8(0); // no label filter
        match Request::decode(w.as_bytes()) {
            Err(WireError::Corrupt(message)) => assert!(message.contains("closing vertex")),
            other => panic!("a closed polygon decoded as {other:?}"),
        }
    }

    /// The borrowed encode helpers must stay byte-identical to the owned
    /// `Request::encode` path — they exist only to spare the client a
    /// deep copy of raster data, not to be a second layout.
    #[test]
    fn borrowed_encoders_match_owned_encoding() {
        let patch = ArchiveGenerator::new(GeneratorConfig::tiny(1, 6)).unwrap().generate_patch(0);
        let owned = Request {
            id: 9,
            body: RequestBody::SearchByNewExample { patch: Box::new(patch.clone()), k: 4 },
        };
        assert_eq!(encode_new_example_request(9, &patch, 4), owned.encode());
        let patches = vec![patch.clone(), patch];
        let owned = Request { id: 10, body: RequestBody::Ingest { patches: patches.clone() } };
        assert_eq!(encode_ingest_request(10, &patches), owned.encode());
    }

    #[test]
    fn oversized_outgoing_payloads_fail_at_the_sender() {
        let huge = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let mut sink = Vec::new();
        assert!(matches!(
            write_request_payload(&mut sink, &huge),
            Err(ProtoError::Frame(FrameError::Oversized { .. }))
        ));
        assert!(sink.is_empty(), "nothing may reach the wire");
    }

    /// An over-cap message built in place is refused too, and the caller's
    /// buffer (with whatever frames it already holds) is left as it was.
    #[test]
    fn oversized_in_place_frames_leave_the_buffer_unchanged() {
        let mut buf = Vec::new();
        frame_response(&mut buf, &Response { id: 1, body: ResponseBody::Pong }).unwrap();
        let before = buf.clone();
        let huge =
            Response { id: 2, body: ResponseBody::MetricsText("x".repeat(MAX_FRAME_LEN as usize)) };
        assert!(matches!(
            frame_response(&mut buf, &huge),
            Err(ProtoError::Frame(FrameError::Oversized { .. }))
        ));
        assert_eq!(buf, before);
    }

    /// One request or response frame costs its stream exactly one `write`
    /// call (header and payload leave together: one segment on a
    /// `TCP_NODELAY` socket, one wake-up at the peer), and frames built in
    /// place are the bytes the stream writers emit.
    #[test]
    fn a_frame_is_one_write_and_in_place_frames_match_written_ones() {
        struct CountingWriter(usize, Vec<u8>);
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0 += 1;
                self.1.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let patch = ArchiveGenerator::new(GeneratorConfig::tiny(1, 6)).unwrap().generate_patch(0);
        let request = Request { id: 5, body: RequestBody::Search(sample_query()) };
        let response = Response {
            id: 5,
            body: ResponseBody::Error(ErrorPayload {
                code: ErrorCode::Overloaded,
                message: "busy".into(),
            }),
        };

        let mut w = CountingWriter(0, Vec::new());
        write_request(&mut w, &request).unwrap();
        assert_eq!(w.0, 1, "a request frame is one write");
        write_response(&mut w, &response).unwrap();
        assert_eq!(w.0, 2, "a response frame is one write");
        write_request_payload(&mut w, &encode_new_example_request(6, &patch, 3)).unwrap();
        assert_eq!(w.0, 3, "a pre-encoded request frame is one write");

        // The same three frames, built in place in one reused buffer.
        let mut buf = Vec::new();
        frame_request_with(&mut buf, |out| request.encode_into(out)).unwrap();
        frame_response(&mut buf, &response).unwrap();
        frame_request_with(&mut buf, |out| encode_new_example_request_into(out, 6, &patch, 3))
            .unwrap();
        assert_eq!(buf, w.1);
    }

    #[test]
    fn proto_errors_display_meaningfully() {
        let e: ProtoError = WireError::Corrupt("bad tag".into()).into();
        assert!(e.to_string().contains("bad tag"));
        let e: ProtoError =
            FrameError::Oversized { declared: u32::MAX as u64, max: MAX_FRAME_LEN as u64 }.into();
        assert!(e.to_string().contains("maximum"));
    }
}
