//! The network serving tier: EarthQube over TCP.
//!
//! The paper's EarthQube is a multi-user *service*; everything below this
//! module can only be driven in-process.  This module puts the
//! [`QueryServer`] behind a wire boundary:
//!
//! * [`NetServer`] — K **readiness-driven event loops**, one thread each
//!   (a vendored `poll(2)` shim).  Every accepted connection belongs to
//!   one loop, which reads its requests, answers each through the
//!   server's one wire entry ([`QueryServer::frame`]) on the shared
//!   `&self` server, and writes the answers itself.
//!   One process serves thousands of idle-or-slow sockets over K loops;
//!   a connection no longer pins a thread for its lifetime.  Faults are
//!   isolated per connection: a malformed frame (garbage preamble, torn
//!   payload, checksum mismatch, hostile length prefix) errors *that*
//!   connection — a best-effort error frame, then close — and every other
//!   connection keeps being served.  [`NetServer::shutdown`] wakes every
//!   loop, closes live connections and joins every thread.
//! * **Admission control** — a per-connection quota and a bound on the
//!   requests waiting on a loop.  An over-quota request, or one arriving
//!   while its loop is at the bound, is answered immediately with a typed
//!   [`eq_proto::ErrorCode::Overloaded`] error frame instead of stalling
//!   the connection; clients that stop draining their responses (slow
//!   loris) are evicted on a write timeout or when their unsent answers
//!   exceed a cap.  The [`RequestBody::MetricsText`] endpoint
//!   renders the serving counters plus the net-tier counters
//!   ([`NetTierStats`]) as Prometheus-style scrape text.
//! * [`EqClient`] — a blocking client over one reused connection: one
//!   [`call`](EqClient::call) sending any [`RequestBody`], typed
//!   calls mirroring the [`QueryServer`] API, and a **pipelined**
//!   [`run_batch`](EqClient::run_batch) that streams a whole workload of
//!   request frames (from a scoped writer thread) while reading the
//!   responses, amortising round-trip latency without ever risking a
//!   full-duplex deadlock.
//!
//! # Remote equivalence
//!
//! The server never builds a typed answer: the query core writes a search
//! or filtered answer's bytes itself, one pre-encoded row prefix per hit
//! (see the crate's `catalog` module), and those bytes are what the result
//! cache files and [`QueryServer::frame`] frames.  Typed values are
//! decoded from them — by [`EqClient`], by [`QueryServer::call`] and by the bare
//! [`EarthQube`](crate::EarthQube) façade alike — so a [`SearchResponse`]
//! received through [`EqClient`] is **equal to the in-process result, byte
//! for byte**; the umbrella crate's `remote_equivalence` test drives the
//! same workload through both paths and compares the `eq_proto` encodings.
//! A result row, an ingest report, a stats snapshot, a filtered plan and
//! the replication state and batch are `eq_proto` types that this crate
//! re-exports.  What is still converted is lossless in both directions: a
//! query ([`query_to_spec`] / [`spec_to_query`]), an error
//! ([`error_to_payload`] / [`payload_to_error`]), and a decoded payload's
//! panel, statistics and plan ([`payload_to_response`], which moves the
//! rows whole; [`response_to_payload`] copies them back out of a borrowed
//! response).
//!
//! # Threading model
//!
//! ```text
//!               ┌───────────────────────── event loop i of K ─────────────────────────┐
//! listener ────▶│ loop 0 only: accept → loop (n mod K)'s inbox + wake byte            │
//! sockets ─────▶│ poll(2) → read → FrameDecoder → admit the whole burst → answer each: │
//!               │   QueryServer::frame (&self), behind catch_unwind: hit or miss      │
//!     ◀─────────│ the burst's answers in one non-blocking write; POLLOUT drains rest  │
//!               └─────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Each loop owns its connections outright — socket, frame decoder,
//! unsent answers — so nothing on the request path takes a lock.  Loop 0
//! also owns the listener and hands each accepted socket to loop
//! *n* mod *K* (*n* counts accepts) through that loop's inbox and wake
//! pipe.  A loop reads a connection once per readiness, decodes every
//! frame of that burst and admits them all — poison check, per-connection
//! quota — before it answers any.  It then answers them in request order
//! on its own thread, each run to completion by [`QueryServer::frame`]: a
//! result-cache hit is a fresh envelope, the cached body bytes and their
//! CRC, a miss the same around the bytes the query core just wrote.  The
//! burst's answers leave in one `write(2)`.  So a request costs one loop
//! wake-up and one `write(2)`, hit or miss, with no hand-off between
//! threads, and answers leave in request order by construction — a
//! pipelining client
//! ([`EqClient::run_batch`]) observes exactly the blocking server's
//! ordering.  The sockets are non-blocking, so a loop never parks on a
//! peer: bytes the socket would not take wait for `POLLOUT` (or the
//! eviction sweep).  The trade-off is head-of-line blocking within a loop:
//! a long request (an ingest's fsync, a large panel) delays the other
//! connections of its own loop, never another loop's, and a pipelining
//! connection runs at most one read's admitted requests before the
//! loop's other ready connections get their turn.  All loops share
//! the *same* `QueryServer` by reference — the catalog read/write locking,
//! the CBIR index and the result cache behave exactly as they do for
//! in-process threads.

use std::io::{BufReader, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd as _;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eq_bigearthnet::patch::Patch;
use eq_docstore::QueryPlan;
use eq_proto::{RequestBody, ResponseBody};
use eq_wire::frame::FRAME_BUF_KEEP;
use rand::SeedableRng as _;

use crate::engine::SearchResponse;
use crate::filtered::{FilteredResponse, PrefilterMode};
use crate::ingest::IngestReport;
use crate::query::{ImageQuery, LabelFilter, LabelOperator};
use crate::replicate::{ReplBatch, ReplState, RetryPolicy};
use crate::results::ResultPanel;
use crate::serve::{QueryServer, ServerStats};
use crate::stats::LabelStatistics;
use crate::EarthQubeError;

fn net_err(context: &str, e: impl std::fmt::Display) -> EarthQubeError {
    EarthQubeError::Net(format!("{context}: {e}"))
}

// ---------------------------------------------------------------------------
// Lossless conversions between serving types and protocol mirrors
// ---------------------------------------------------------------------------

/// Translates an [`ImageQuery`] into its wire specification (lossless).
pub fn query_to_spec(query: &ImageQuery) -> eq_proto::QuerySpec {
    eq_proto::QuerySpec {
        shape: query.shape.clone(),
        date_range: query.date_range,
        satellites: query.satellites.clone(),
        seasons: query.seasons.clone(),
        countries: query.countries.clone(),
        labels: query.labels.as_ref().map(|filter| eq_proto::LabelFilterSpec {
            op: match filter.operator {
                LabelOperator::Some => eq_proto::LabelOp::Some,
                LabelOperator::Exactly => eq_proto::LabelOp::Exactly,
                LabelOperator::AtLeastAndMore => eq_proto::LabelOp::AtLeastAndMore,
            },
            labels: filter.labels.clone(),
        }),
    }
}

/// Translates a wire specification back into an [`ImageQuery`] (the exact
/// inverse of [`query_to_spec`]).
pub fn spec_to_query(spec: &eq_proto::QuerySpec) -> ImageQuery {
    ImageQuery {
        shape: spec.shape.clone(),
        date_range: spec.date_range,
        satellites: spec.satellites.clone(),
        seasons: spec.seasons.clone(),
        countries: spec.countries.clone(),
        labels: spec.labels.as_ref().map(|filter| {
            LabelFilter::new(
                match filter.op {
                    eq_proto::LabelOp::Some => LabelOperator::Some,
                    eq_proto::LabelOp::Exactly => LabelOperator::Exactly,
                    eq_proto::LabelOp::AtLeastAndMore => LabelOperator::AtLeastAndMore,
                },
                filter.labels.clone(),
            )
        }),
    }
}

/// Serializes a [`SearchResponse`] into its wire payload (lossless), the
/// rows copied.  The server never converts: its query core writes an
/// answer's bytes directly.
pub fn response_to_payload(response: &SearchResponse) -> eq_proto::SearchPayload {
    let SearchResponse { panel, statistics, plan } = response;
    eq_proto::SearchPayload {
        rows: panel.entries().to_vec(),
        page_size: panel.page_size() as u64,
        // A count never exceeds the answer's rows, which are dense ids, so
        // it always fits; saturate rather than wrap if it ever did not.
        label_counts: statistics
            .counts()
            .iter()
            .map(|&c| u32::try_from(c).unwrap_or(u32::MAX))
            .collect(),
        image_count: statistics.image_count() as u64,
        plan: plan.as_ref().map(plan_spec),
    }
}

/// A metadata search's plan as the wire carries it.
pub(crate) fn plan_spec(plan: &QueryPlan) -> eq_proto::PlanSpec {
    eq_proto::PlanSpec {
        index_used: plan.index_used.clone(),
        scanned: plan.scanned as u64,
        matched: plan.matched as u64,
    }
}

/// Reassembles a [`SearchResponse`] from its wire payload (the exact
/// inverse of [`response_to_payload`] — this is what makes remote results
/// byte-identical to in-process ones).
pub fn payload_to_response(payload: eq_proto::SearchPayload) -> SearchResponse {
    let counts = payload.label_counts.into_iter().map(|c| c as usize).collect();
    SearchResponse {
        panel: ResultPanel::new(payload.rows, payload.page_size as usize),
        statistics: LabelStatistics::from_parts(counts, payload.image_count as usize),
        plan: payload.plan.map(|p| QueryPlan {
            index_used: p.index_used,
            scanned: p.scanned as usize,
            matched: p.matched as usize,
        }),
    }
}

/// Maps a server-side error onto the wire so the client can reconstruct
/// the exact [`EarthQubeError`] variant.
pub fn error_to_payload(error: &EarthQubeError) -> eq_proto::ErrorPayload {
    let (code, message) = match error {
        EarthQubeError::UnknownImage(m) => (eq_proto::ErrorCode::UnknownImage, m.clone()),
        EarthQubeError::Store(m) => (eq_proto::ErrorCode::Store, m.clone()),
        EarthQubeError::CbirNotReady => (eq_proto::ErrorCode::CbirNotReady, String::new()),
        EarthQubeError::BadRequest(m) => (eq_proto::ErrorCode::BadRequest, m.clone()),
        EarthQubeError::Persist(m) => (eq_proto::ErrorCode::Persist, m.clone()),
        EarthQubeError::Net(m) => (eq_proto::ErrorCode::Internal, m.clone()),
        EarthQubeError::Overloaded(m) => (eq_proto::ErrorCode::Overloaded, m.clone()),
        EarthQubeError::NotPrimary(m) => (eq_proto::ErrorCode::NotPrimary, m.clone()),
    };
    eq_proto::ErrorPayload { code, message }
}

/// Reconstructs the [`EarthQubeError`] a wire error payload describes.
pub fn payload_to_error(payload: eq_proto::ErrorPayload) -> EarthQubeError {
    match payload.code {
        eq_proto::ErrorCode::UnknownImage => EarthQubeError::UnknownImage(payload.message),
        eq_proto::ErrorCode::Store => EarthQubeError::Store(payload.message),
        eq_proto::ErrorCode::CbirNotReady => EarthQubeError::CbirNotReady,
        eq_proto::ErrorCode::BadRequest => EarthQubeError::BadRequest(payload.message),
        eq_proto::ErrorCode::Persist => EarthQubeError::Persist(payload.message),
        eq_proto::ErrorCode::Internal => EarthQubeError::Net(payload.message),
        eq_proto::ErrorCode::Overloaded => EarthQubeError::Overloaded(payload.message),
        eq_proto::ErrorCode::NotPrimary => EarthQubeError::NotPrimary(payload.message),
    }
}

/// The identity: [`PrefilterMode`] is the wire type.  Kept only because
/// `bench_e2e`, whose sources are frozen, imports it.
pub fn mode_to_spec(mode: PrefilterMode) -> PrefilterMode {
    mode
}

/// Translates a filtered search's response — result panel plus execution
/// plan — onto the wire (lossless).
pub fn filtered_to_payload(filtered: &FilteredResponse) -> eq_proto::FilteredPayload {
    eq_proto::FilteredPayload {
        search: response_to_payload(&filtered.response),
        plan: filtered.plan,
    }
}

/// Reconstructs the [`FilteredResponse`] a wire payload describes.
pub fn payload_to_filtered(payload: eq_proto::FilteredPayload) -> FilteredResponse {
    FilteredResponse { response: payload_to_response(payload.search), plan: payload.plan }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Tuning knobs of the event-driven serving tier.
///
/// [`NetServer::bind`] uses [`NetConfig::default`] with only the loop
/// count (`workers`) overridden; [`NetServer::bind_with`] takes the full
/// set.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Event loops (at least one).  Each is a thread that owns the
    /// connections assigned to it and runs their requests to completion,
    /// so this bounds CPU concurrency, not connection count.
    pub workers: usize,
    /// Per-connection cap on the requests of one read burst a loop
    /// admits.  A request arriving over quota is answered immediately
    /// with a typed [`eq_proto::ErrorCode::Overloaded`] error.
    pub max_inflight_per_conn: usize,
    /// A connection whose output backlog makes no write progress for
    /// this long is evicted (slow-loris defence).
    pub write_timeout: Duration,
    /// A connection holding more than this many bytes of unsent answers
    /// is evicted regardless of progress, bounding per-connection memory.
    pub write_buffer_cap: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_inflight_per_conn: 64,
            write_timeout: Duration::from_secs(30),
            // Above the 64 MiB frame cap: a single legitimate maximum-size
            // response must never trip the eviction sweep.
            write_buffer_cap: 160 * 1024 * 1024,
        }
    }
}

/// Internal atomic counters of the network tier.
#[derive(Debug, Default)]
struct NetStats {
    accepted: AtomicU64,
    rejected_overload: AtomicU64,
    evicted_slow: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    queue_depth: AtomicU64,
    queue_depth_hwm: AtomicU64,
    acceptor_fatal: AtomicU64,
    connections_failed: AtomicU64,
    responses_direct: AtomicU64,
    responses_deferred: AtomicU64,
    poller_wakeups: AtomicU64,
    /// One gauge per loop, written only by that loop.
    loop_connections: Vec<AtomicU64>,
}

/// A snapshot of the network-tier counters ([`NetServer::net_stats`]);
/// the same numbers the `MetricsText` endpoint renders as scrape text.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetTierStats {
    /// Connections accepted since bind.
    pub accepted: u64,
    /// Requests rejected with `Overloaded` (quota or a loop at its bound).
    pub rejected_overload: u64,
    /// Connections evicted for not draining their responses.
    pub evicted_slow: u64,
    /// Payload bytes read off sockets.
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
    /// Admitted requests currently waiting to run, over all loops.
    pub queue_depth: u64,
    /// High-water mark of [`queue_depth`](Self::queue_depth).
    pub queue_depth_high_water: u64,
    /// Fatal listener errors (the acceptor stopped; connections live on).
    pub acceptor_fatal: u64,
    /// Connections that ended with a protocol or transport fault.
    pub connections_failed: u64,
    /// Answers to admitted requests, result-cache hits included, after
    /// whose loop's write nothing was left on the connection for
    /// `POLLOUT` to write.
    pub responses_direct: u64,
    /// Answers to admitted requests after whose loop's write the socket
    /// would not take the whole backlog: the rest waits for `POLLOUT`.
    pub responses_deferred: u64,
    /// Returns of any loop's `poll(2)` with at least one ready descriptor
    /// (idle ticks are not counted), summed over the loops.
    pub poller_wakeups: u64,
    /// Connections each event loop owns now, indexed by loop.
    pub loop_connections: Vec<u64>,
}

impl NetStats {
    fn new(loops: usize) -> Self {
        Self {
            loop_connections: (0..loops).map(|_| AtomicU64::new(0)).collect(),
            ..Self::default()
        }
    }

    fn snapshot(&self) -> NetTierStats {
        NetTierStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            evicted_slow: self.evicted_slow.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_depth_high_water: self.queue_depth_hwm.load(Ordering::Relaxed),
            acceptor_fatal: self.acceptor_fatal.load(Ordering::Relaxed),
            connections_failed: self.connections_failed.load(Ordering::Relaxed),
            responses_direct: self.responses_direct.load(Ordering::Relaxed),
            responses_deferred: self.responses_deferred.load(Ordering::Relaxed),
            poller_wakeups: self.poller_wakeups.load(Ordering::Relaxed),
            loop_connections: self
                .loop_connections
                .iter()
                .map(|gauge| gauge.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// State shared by the event loops and the [`NetServer`] handle.  The
/// connections are not here: each belongs to the one loop that serves it.
struct Shared {
    server: Arc<QueryServer>,
    /// Set once by shutdown; checked by every loop after each wake-up.
    stop: AtomicBool,
    /// Latched when a *mutating* request (ingest, feedback) panicked
    /// mid-dispatch: the write may be half-applied (locks here do not
    /// poison), so the server refuses all further work rather than serve
    /// possibly corrupt state.
    poisoned: AtomicBool,
    stats: NetStats,
    /// Each loop's door, by loop index.
    doors: Vec<Door>,
}

/// How a loop is reached from outside its thread: loop 0 leaves the
/// sockets it accepted for the loop in its inbox, and shutdown only wakes
/// it.  Either way a byte on the loop's wake pipe gets it out of `poll(2)`.
struct Door {
    inbox: mpsc::Sender<TcpStream>,
    wake: UnixStream,
}

impl Door {
    /// Writes one wake byte.  The pipe is non-blocking, and a full pipe
    /// already wakes the loop, so a `WouldBlock` here loses nothing.
    fn wake(&self) {
        let _ = (&self.wake).write(&[1]);
    }
}

/// One connection, owned by the event loop it was assigned to: the
/// socket, its frame decoder and the answers the socket has not taken yet.
struct Conn {
    stream: TcpStream,
    decoder: eq_wire::frame::FrameDecoder,
    /// Unsent response bytes; `outpos` marks the consumed prefix.
    outbuf: Vec<u8>,
    outpos: usize,
    /// When the current backlog began, or last shrank.
    last_write_progress: Instant,
    /// Peer closed its write half (clean EOF observed).
    read_closed: bool,
    /// The write side errored: the next sweep closes the connection.
    write_dead: bool,
    /// This connection was counted in `connections_failed`.
    failed: bool,
    /// Stop reading; close once the output backlog drains.
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            decoder: eq_wire::frame::FrameDecoder::new(
                eq_proto::REQUEST_MAGIC,
                eq_proto::MAX_FRAME_LEN,
            ),
            outbuf: Vec::new(),
            outpos: 0,
            last_write_progress: Instant::now(),
            read_closed: false,
            write_dead: false,
            failed: false,
            closing: false,
        }
    }

    fn has_backlog(&self) -> bool {
        self.outpos < self.outbuf.len()
    }

    /// The sweep's eviction test: the unsent output made no progress for
    /// `write_timeout`, or it is more than `write_buffer_cap` bytes.
    /// Bytes the socket already took count for neither.
    fn should_evict(&self, now: Instant, write_timeout: Duration, write_buffer_cap: usize) -> bool {
        let unsent = self.outbuf.len() - self.outpos;
        let stalled = unsent > 0 && now.duration_since(self.last_write_progress) >= write_timeout;
        stalled || unsent > write_buffer_cap
    }

    /// Queues an answer behind the unsent ones.
    fn push(&mut self, frame: Vec<u8>) {
        if self.write_dead {
            return;
        }
        if self.has_backlog() {
            self.outbuf.extend_from_slice(&frame);
        } else {
            // The common case: the frame becomes the output buffer, no copy.
            self.last_write_progress = Instant::now();
            self.outbuf = frame;
            self.outpos = 0;
        }
    }

    /// Writes as much of the backlog as the non-blocking socket accepts
    /// right now.  Returns whether unsent bytes remain, which only
    /// `POLLOUT` (or the eviction sweep) can deal with.
    fn flush(&mut self, stats: &NetStats) -> bool {
        while self.has_backlog() && !self.write_dead {
            // Counted before the write, the unwritten part taken back after
            // it: the write can wake the peer before this thread runs on,
            // and a peer holding a reply must find its bytes in `bytes_out`.
            let unsent = self.outbuf.len() - self.outpos;
            stats.bytes_out.fetch_add(unsent as u64, Ordering::Relaxed);
            let written = (&self.stream).write(&self.outbuf[self.outpos..]);
            let unwritten = unsent - written.as_ref().map_or(0, |&n| n);
            if unwritten > 0 {
                stats.bytes_out.fetch_sub(unwritten as u64, Ordering::Relaxed);
            }
            match written {
                Ok(0) => self.write_dead = true,
                Ok(n) => {
                    self.outpos += n;
                    if self.has_backlog() {
                        self.last_write_progress = Instant::now();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => self.write_dead = true,
            }
        }
        if !self.has_backlog() {
            self.outbuf.clear();
            self.outpos = 0;
        } else if self.outpos > OUTBUF_COMPACT {
            self.outbuf.drain(..self.outpos);
            self.outpos = 0;
        }
        self.has_backlog() && !self.write_dead
    }
}

/// The poll-interest mask for one connection: read while the connection
/// is live, write only while there is a backlog to drain.
fn want_events(conn: &Conn) -> i16 {
    let mut events = 0;
    if !conn.closing && !conn.read_closed {
        events |= polling::POLLIN;
    }
    if conn.has_backlog() && !conn.write_dead {
        events |= polling::POLLOUT;
    }
    events
}

/// Reads the request id out of raw frame-payload bytes (version `u16`,
/// then id `u64`, little-endian) without a full decode — admission-control
/// rejections need the id for the error frame before the payload is
/// decoded.  Returns 0 (the reserved "unknown request" id) for payloads
/// too short to carry an envelope.
fn peek_request_id(payload: &[u8]) -> u64 {
    match payload.get(2..10) {
        Some(bytes) => {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(bytes);
            u64::from_le_bytes(raw)
        }
        None => 0,
    }
}

/// Classifies an `accept(2)` error: transient per-connection failures
/// (aborted handshakes, resource pressure) are retried on the next
/// readiness event; anything else means the listener itself is broken and
/// retrying forever would spin — the acceptor stops and the fatal counter
/// surfaces it.  `WouldBlock` never reaches this (it ends the accept
/// burst).
fn accept_error_is_fatal(error: &std::io::Error) -> bool {
    use std::io::ErrorKind;
    if matches!(
        error.kind(),
        ErrorKind::WouldBlock
            | ErrorKind::Interrupted
            | ErrorKind::ConnectionAborted
            | ErrorKind::ConnectionReset
            | ErrorKind::TimedOut
    ) {
        return false;
    }
    // Resource exhaustion (EMFILE / ENFILE / ENOBUFS / ENOMEM): pressure,
    // not a broken listener — connections closing will free capacity.
    !matches!(error.raw_os_error(), Some(12) | Some(23) | Some(24) | Some(105))
}

/// The sweep tick of a loop that holds a backlog: how often the eviction
/// sweep runs when nothing else asks for one.  A loop with no backlog
/// waits in `poll(2)` without a timeout.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Consumed-prefix threshold past which a connection's output buffer is
/// compacted instead of growing unboundedly.
const OUTBUF_COMPACT: usize = 64 * 1024;

/// The most bytes one read of a connection takes in: what a loop serves
/// of one connection before it turns to the next.
const READ_CHUNK: usize = 64 * 1024;

/// One decoded frame of a read burst, after admission.
enum Slot {
    /// An admitted request's payload, answered in turn.
    Admitted(Vec<u8>),
    /// A refusal (poisoned server, over quota, loop at its bound), framed.
    Refused(Vec<u8>),
}

/// One event loop: its connections, its wake pipe's read end and its
/// inbox; loop 0 also owns the listener.  Runs on a thread of its own.
struct EventLoop {
    shared: Arc<Shared>,
    config: NetConfig,
    /// This loop's index: its door and its `loop_connections` gauge.
    index: usize,
    listener: Option<TcpListener>,
    /// Sockets this loop accepted so far: accept *n* goes to loop
    /// *n* mod *K*.
    accepted: usize,
    wake_rx: UnixStream,
    inbox: mpsc::Receiver<TcpStream>,
    conns: Vec<Conn>,
    /// Reused poll set: the wake pipe, the listener if any, then one entry
    /// per connection in `conns` order.
    fds: Vec<polling::PollFd>,
    readbuf: Vec<u8>,
    /// Reused by every read burst.
    burst: Vec<Slot>,
}

impl EventLoop {
    fn run(mut self) {
        self.readbuf.resize(READ_CHUNK, 0);
        let mut next_sweep = Instant::now() + POLL_TICK;
        while !self.shared.stop.load(Ordering::SeqCst) {
            let timeout = if self.build_poll_set() { POLL_TICK.as_millis() as i32 } else { -1 };
            match polling::poll_fds(&mut self.fds, timeout) {
                Ok(0) => {}
                Ok(_) => {
                    self.shared.stats.poller_wakeups.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    // EINVAL/ENOMEM from poll(2) itself: the loop cannot make
                    // progress; treat it like a fatal listener error and stop.
                    self.shared.stats.acceptor_fatal.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            if self.fds[0].readable_or_closed() {
                self.drain_wake();
                self.adopt_inbox();
            }
            // A request that is read and answered changes no connection's
            // lifecycle, so the steady state never sweeps outside the tick.
            // A POLLOUT drain and an EOF or fault can, and sweep at once.
            let mut sweep_due = false;
            let conn_base = match &self.listener {
                Some(_) => {
                    if self.fds[1].readable_or_closed() {
                        self.accept_ready();
                    }
                    2
                }
                None => 1,
            };
            for i in conn_base..self.fds.len() {
                let fd = self.fds[i];
                if fd.has(polling::POLLOUT) {
                    self.conns[i - conn_base].flush(&self.shared.stats);
                    sweep_due = true;
                }
                if fd.readable_or_closed() {
                    sweep_due |= self.read_ready(i - conn_base);
                }
            }
            let now = Instant::now();
            if sweep_due || now >= next_sweep {
                self.sweep(now);
                next_sweep = now + POLL_TICK;
            }
        }
        // Shutdown: close every socket so blocked clients observe EOF,
        // those still waiting in the inbox too.
        for conn in self.conns.drain(..) {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        while let Ok(stream) = self.inbox.try_recv() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Rebuilds the poll set; returns whether any connection holds a
    /// backlog (only a backlog needs the sweep tick).
    fn build_poll_set(&mut self) -> bool {
        self.fds.clear();
        self.fds.push(polling::PollFd::new(self.wake_rx.as_raw_fd(), polling::POLLIN));
        if let Some(listener) = &self.listener {
            self.fds.push(polling::PollFd::new(listener.as_raw_fd(), polling::POLLIN));
        }
        let mut backlog = false;
        for conn in &self.conns {
            let events = want_events(conn);
            backlog |= events & polling::POLLOUT != 0;
            self.fds.push(polling::PollFd::new(conn.stream.as_raw_fd(), events));
        }
        backlog
    }

    fn drain_wake(&mut self) {
        let mut scratch = [0u8; 256];
        loop {
            match (&self.wake_rx).read(&mut scratch) {
                Ok(0) => break, // every writer gone (only during teardown)
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: drained
            }
        }
    }

    /// Takes over the sockets loop 0 left in this loop's inbox.
    fn adopt_inbox(&mut self) {
        while let Ok(stream) = self.inbox.try_recv() {
            self.conns.push(Conn::new(stream));
        }
        self.publish_connections();
    }

    fn publish_connections(&self) {
        let gauge = &self.shared.stats.loop_connections[self.index];
        gauge.store(self.conns.len() as u64, Ordering::Relaxed);
    }

    /// Accepts a bounded burst of pending connections and deals them out
    /// round-robin in accept order: this loop's share joins its table, any
    /// other loop's goes to that loop's inbox with a wake byte.  Transient
    /// errors are skipped; a fatal listener error stops the acceptor for
    /// good (existing connections keep being served) and is surfaced
    /// through the `acceptor_fatal` counter — retrying a broken listener
    /// forever would turn the event loop into a busy spin.
    fn accept_ready(&mut self) {
        for _ in 0..128 {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue; // the socket died during the handshake
                    }
                    let _ = stream.set_nodelay(true);
                    self.shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    let target = self.accepted % self.shared.doors.len();
                    self.accepted += 1;
                    if target == self.index {
                        self.conns.push(Conn::new(stream));
                        self.publish_connections();
                    } else {
                        let door = &self.shared.doors[target];
                        // A loop that has stopped hands the socket back,
                        // and dropping it closes it.
                        if door.inbox.send(stream).is_ok() {
                            door.wake();
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if !accept_error_is_fatal(&e) => continue,
                Err(_) => {
                    self.shared.stats.acceptor_fatal.fetch_add(1, Ordering::Relaxed);
                    self.listener = None;
                    return;
                }
            }
        }
    }

    /// Serves a readable connection: one read, and the complete frames it
    /// brings in ([`serve_burst`]).  One read per readiness bounds what a
    /// pipelining connection runs before the loop's other connections get
    /// their turn; level-triggered `poll(2)` signals the bytes left behind
    /// again.  Returns whether the connection stopped reading or writing
    /// (EOF, fault, dead write side) and so may be ready to close.
    fn read_ready(&mut self, index: usize) -> bool {
        let stats = &self.shared.stats;
        let conn = &mut self.conns[index];
        if conn.closing {
            return false;
        }
        let read = loop {
            match (&conn.stream).read(&mut self.readbuf) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                read => break read,
            }
        };
        match read {
            Ok(0) => {
                conn.read_closed = true;
                if conn.decoder.has_partial_frame() {
                    // Torn frame: the peer died mid-request.
                    fault_conn(stats, conn, "connection closed mid-frame");
                }
            }
            Ok(n) => {
                stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                conn.decoder.extend(&self.readbuf[..n]);
                serve_burst(&self.shared, &self.config, conn, &mut self.burst);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(_) => {
                // Transport fault (reset mid-stream): count and close.
                conn.read_closed = true;
                fault_conn(stats, conn, "transport error reading the connection");
            }
        }
        conn.closing || conn.read_closed || conn.write_dead
    }

    /// Evicts connections that stopped draining their responses and
    /// closes connections that finished (cleanly or after a fault).
    fn sweep(&mut self, now: Instant) {
        let stats = &self.shared.stats;
        let config = &self.config;
        self.conns.retain(|conn| {
            let close = if conn.write_dead {
                true
            } else if conn.should_evict(now, config.write_timeout, config.write_buffer_cap) {
                stats.evicted_slow.fetch_add(1, Ordering::Relaxed);
                true
            } else {
                !conn.has_backlog() && (conn.closing || conn.read_closed)
            };
            if close {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
            !close
        });
        self.publish_connections();
    }
}

/// Counts a connection in `connections_failed` exactly once (`failed` is
/// the connection's own latch).
fn mark_failed(stats: &NetStats, failed: &mut bool) {
    if !*failed {
        *failed = true;
        stats.connections_failed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Fails a connection on a protocol or transport fault: counts it, sends
/// a best-effort `BadRequest` error frame behind the answers already
/// queued (so responses to earlier pipelined requests still go out
/// first), and stops reading.
fn fault_conn(stats: &NetStats, conn: &mut Conn, message: &str) {
    mark_failed(stats, &mut conn.failed);
    conn.closing = true;
    conn.push(encode_response_frame(&error_response(0, eq_proto::ErrorCode::BadRequest, message)));
    conn.flush(stats);
}

/// Serves what one read brought in.  Every complete frame is decoded and
/// admitted first — poisoned server → typed internal error; over the
/// connection's quota → typed `Overloaded` — so no request of the burst runs, and gives its slot back, before
/// the rest are admitted.  The admitted ones are then answered in request
/// order ([`answer`]) and the burst's answers, refusals included, leave in
/// one write, so a flood costs one `write(2)` per read, not one per
/// request.  A malformed frame faults the connection behind the answers
/// to the frames ahead of it; a fatal answer ends the burst.
fn serve_burst(shared: &Shared, config: &NetConfig, conn: &mut Conn, burst: &mut Vec<Slot>) {
    let stats = &shared.stats;
    let mut admitted = 0;
    let mut fault = None;
    loop {
        match conn.decoder.next_frame() {
            Ok(Some(payload)) => {
                let id = || peek_request_id(&payload);
                let refusal = if shared.poisoned.load(Ordering::SeqCst) {
                    Some(poisoned_response(id()))
                } else if admitted >= config.max_inflight_per_conn {
                    let message = format!(
                        "per-connection in-flight quota of {} exceeded; \
                         read responses before sending more requests",
                        config.max_inflight_per_conn
                    );
                    Some(overloaded(stats, id(), &message))
                } else {
                    None
                };
                burst.push(match refusal {
                    Some(response) => Slot::Refused(encode_response_frame(&response)),
                    None => {
                        admitted += 1;
                        Slot::Admitted(payload)
                    }
                });
            }
            Ok(None) => break,
            // The decoder state is unspecified after an error: fault the
            // connection once the frames ahead are answered, and never
            // feed it again.
            Err(e) => {
                fault = Some(format!("malformed frame: {e}"));
                break;
            }
        }
    }
    let depth = stats.queue_depth.fetch_add(admitted as u64, Ordering::Relaxed) + admitted as u64;
    stats.queue_depth_hwm.fetch_max(depth, Ordering::Relaxed);
    let mut answered = 0u64;
    for slot in burst.drain(..) {
        match slot {
            // A fatal answer ended the connection: the rest goes unserved.
            Slot::Refused(_) if conn.closing => {}
            Slot::Refused(frame) => conn.push(frame),
            Slot::Admitted(payload) => {
                stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                if conn.closing {
                    continue;
                }
                let (frame, fatal) = answer(shared, &payload);
                conn.push(frame);
                answered += 1;
                if fatal {
                    mark_failed(stats, &mut conn.failed);
                    conn.closing = true;
                }
            }
        }
    }
    match fault {
        Some(message) if !conn.closing => fault_conn(stats, conn, &message),
        _ => {}
    }
    let backlog = conn.flush(stats);
    if answered > 0 {
        let counter = if backlog { &stats.responses_deferred } else { &stats.responses_direct };
        counter.fetch_add(answered, Ordering::Relaxed);
    }
}

/// Answers one admitted request on the loop that read it: decodes it,
/// answers `MetricsText` — the one kind that reads this tier's counters —
/// here, and every other request, hit or miss, through the server's one
/// wire entry ([`QueryServer::frame`]).  Returns the response frame and
/// whether it is fatal: a payload that is not a request is a protocol
/// fault.
///
/// A panic provoked by one connection's input (a bug this layer's input
/// validation missed) fails that request instead of killing the loop and
/// every connection on it.
fn answer(shared: &Shared, payload: &[u8]) -> (Vec<u8>, bool) {
    let server = &shared.server;
    let mut write = false;
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let request = match eq_proto::Request::decode(payload) {
            Ok(request) => request,
            Err(e) => {
                // The frame was well-formed but the payload is not a request
                // (wrong version, unknown tag, corrupt fields): a protocol
                // fault — best-effort error frame under id 0, then close.
                let message = format!("malformed request: {e}");
                let response = error_response(0, eq_proto::ErrorCode::BadRequest, &message);
                return (encode_response_frame(&response), true);
            }
        };
        let id = request.id;
        // An earlier request of the same burst may have poisoned the server.
        if shared.poisoned.load(Ordering::SeqCst) {
            return (encode_response_frame(&poisoned_response(id)), false);
        }
        write = request.body.is_write();
        if let RequestBody::MetricsText = request.body {
            let text = render_metrics(&server.stats(), &shared.stats.snapshot());
            let body = ResponseBody::MetricsText(text);
            return (encode_response_frame(&eq_proto::Response { id, body }), false);
        }
        (server.frame(&request), false)
    }));
    attempt.unwrap_or_else(|_| {
        // A panic in a *read-only* request mutated nothing (the engine read
        // path takes only shared locks); report it and keep serving.  A
        // panic in a mutating request may have left a half-applied write
        // behind — these locks do not poison — so latch the server-wide
        // poison flag: wrong answers forever are worse than refusing work.
        let id = peek_request_id(payload);
        let response = if write {
            shared.poisoned.store(true, Ordering::SeqCst);
            poisoned_response(id)
        } else {
            let message = "internal panic while serving the request";
            error_response(id, eq_proto::ErrorCode::Internal, message)
        };
        (encode_response_frame(&response), false)
    })
}

/// A typed `Overloaded` refusal — the client gets a definite answer
/// instead of a stalled connection.
fn overloaded(stats: &NetStats, id: u64, message: &str) -> eq_proto::Response {
    stats.rejected_overload.fetch_add(1, Ordering::Relaxed);
    error_response(id, eq_proto::ErrorCode::Overloaded, message)
}

/// Encodes a response as complete frame bytes, in place behind the frame
/// header.  A response over the frame cap is a *request* problem (result
/// set bigger than any reader accepts), not a dead connection: it is
/// replaced by a typed error under the same id, so the connection keeps
/// being served.
pub(crate) fn encode_response_frame(response: &eq_proto::Response) -> Vec<u8> {
    let mut frame = Vec::new();
    match eq_proto::frame_response(&mut frame, response) {
        Ok(()) => frame,
        Err(e) => unsendable(response.id, &e),
    }
}

/// The typed error frame that replaces a response over the frame cap.
pub(crate) fn unsendable(id: u64, e: &eq_proto::ProtoError) -> Vec<u8> {
    let message =
        format!("the response cannot be sent ({e}); narrow the query or ingest in smaller batches");
    let mut frame = Vec::new();
    // A short error message is far below the frame cap.
    let _ = eq_proto::frame_response(
        &mut frame,
        &error_response(id, eq_proto::ErrorCode::BadRequest, &message),
    );
    frame
}

/// The TCP serving tier: K event-loop threads, each multiplexing its share
/// of the connections and answering their `eq_proto` requests on a shared
/// [`QueryServer`].
///
/// Dropping the server performs the same graceful shutdown as
/// [`shutdown`](Self::shutdown).
pub struct NetServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    loops: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("loops", &self.loops.len())
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Binds a listener and starts serving `server` on `workers` event
    /// loops (at least one), with every other knob at its [`NetConfig`]
    /// default.
    ///
    /// Bind to port 0 for an ephemeral port; [`local_addr`](Self::local_addr)
    /// reports the actual address.
    ///
    /// # Errors
    /// Fails with [`EarthQubeError::Net`] if the address cannot be bound.
    pub fn bind(
        server: Arc<QueryServer>,
        addr: impl ToSocketAddrs,
        workers: usize,
    ) -> Result<Self, EarthQubeError> {
        Self::bind_with(server, addr, NetConfig { workers, ..NetConfig::default() })
    }

    /// Binds a listener and starts serving `server` with explicit
    /// admission-control and eviction settings.
    ///
    /// # Errors
    /// Fails with [`EarthQubeError::Net`] if the address cannot be bound,
    /// a loop's wake pipe cannot be created or its thread not spawned.
    pub fn bind_with(
        server: Arc<QueryServer>,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> Result<Self, EarthQubeError> {
        let listener = TcpListener::bind(addr).map_err(|e| net_err("binding the listener", e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| net_err("switching the listener to nonblocking", e))?;
        let addr = listener.local_addr().map_err(|e| net_err("resolving the bound address", e))?;
        let loops = config.workers.max(1);
        let mut doors = Vec::with_capacity(loops);
        let mut ends = Vec::with_capacity(loops);
        for _ in 0..loops {
            let (wake, wake_rx) =
                UnixStream::pair().map_err(|e| net_err("creating a wake pipe", e))?;
            wake_rx
                .set_nonblocking(true)
                .map_err(|e| net_err("switching a wake pipe to nonblocking", e))?;
            let _ = wake.set_nonblocking(true);
            let (inbox, inbox_rx) = mpsc::channel();
            doors.push(Door { inbox, wake });
            ends.push((wake_rx, inbox_rx));
        }
        let shared = Arc::new(Shared {
            server,
            stop: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            stats: NetStats::new(loops),
            doors,
        });
        let mut net = Self { shared, addr, loops: Vec::with_capacity(loops) };
        let mut listener = Some(listener);
        for (index, (wake_rx, inbox)) in ends.into_iter().enumerate() {
            let event_loop = EventLoop {
                shared: Arc::clone(&net.shared),
                config: config.clone(),
                index,
                listener: listener.take(),
                accepted: 0,
                wake_rx,
                inbox,
                conns: Vec::new(),
                fds: Vec::new(),
                readbuf: Vec::new(),
                burst: Vec::new(),
            };
            let spawned = std::thread::Builder::new()
                .name(format!("eq-net-loop-{index}"))
                .spawn(move || event_loop.run());
            match spawned {
                Ok(handle) => net.loops.push(handle),
                Err(e) => {
                    net.stop_loops();
                    return Err(net_err("spawning an event loop", e));
                }
            }
        }
        Ok(net)
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of connections that ended with a protocol or transport
    /// fault (and were closed without affecting any other connection).
    /// Slow-reader evictions are counted separately
    /// ([`NetTierStats::evicted_slow`]).
    pub fn connections_failed(&self) -> u64 {
        self.shared.stats.connections_failed.load(Ordering::Relaxed)
    }

    /// A snapshot of the network-tier counters — the same numbers the
    /// `MetricsText` endpoint renders.
    pub fn net_stats(&self) -> NetTierStats {
        self.shared.stats.snapshot()
    }

    /// Whether a mutating request panicked mid-dispatch, leaving the
    /// engine state suspect.  A poisoned server answers every further
    /// request with a typed internal error; restart (or recover from the
    /// durable tier) to resume serving.
    pub fn poisoned(&self) -> bool {
        self.shared.poisoned.load(Ordering::SeqCst)
    }

    /// Gracefully shuts down: stops every event loop (closing the listener
    /// and every live connection) and joins its thread.  A request a loop
    /// is running completes first; its connection is then closed.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if !self.stop_loops() {
            return; // already shut down
        }
        // With every loop joined, no more writes can arrive: stop the
        // background checkpointer and flush whatever the last requests
        // dirtied, so a graceful shutdown never loses the final WAL-only
        // state to a subsequent unclean stop.  Best-effort — a flush
        // failure leaves the WAL segments, which recovery replays.
        self.shared.server.stop_checkpointer();
        let _ = self.shared.server.checkpoint_if_dirty();
    }

    /// Sets the stop flag, wakes every loop through its own pipe (an idle
    /// loop waits in `poll(2)` without a timeout, so nothing else would)
    /// and joins them all.  `false` if the loops were already stopped.
    fn stop_loops(&mut self) -> bool {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return false;
        }
        for door in &self.shared.doors {
            door.wake();
        }
        for handle in self.loops.drain(..) {
            let _ = handle.join();
        }
        true
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Renders the serving counters and the network-tier counters as
/// Prometheus-style scrape text (one `name value` line per counter, and
/// one connection gauge per event loop with a `loop` label).
pub(crate) fn render_metrics(stats: &ServerStats, net: &NetTierStats) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "eq_queries_served_total {}", stats.queries_served);
    let _ = writeln!(out, "eq_cache_hits_total {}", stats.cache_hits);
    let _ = writeln!(out, "eq_cache_misses_total {}", stats.cache_misses);
    let _ = writeln!(out, "eq_cache_entries {}", stats.cache_entries);
    let _ = writeln!(out, "eq_filter_cache_hits_total {}", stats.filter_cache_hits);
    let _ = writeln!(out, "eq_filter_cache_misses_total {}", stats.filter_cache_misses);
    let _ = writeln!(out, "eq_filter_cache_entries {}", stats.filter_cache_entries);
    let _ = writeln!(out, "eq_filter_cache_bytes {}", stats.filter_cache_bytes);
    let _ = writeln!(out, "eq_archive_size {}", stats.archive_size);
    let _ = writeln!(out, "eq_ingested_images_total {}", stats.ingested_images);
    let _ = writeln!(out, "eq_net_accepted_total {}", net.accepted);
    let _ = writeln!(out, "eq_net_rejected_overload_total {}", net.rejected_overload);
    let _ = writeln!(out, "eq_net_evicted_slow_total {}", net.evicted_slow);
    let _ = writeln!(out, "eq_net_bytes_in_total {}", net.bytes_in);
    let _ = writeln!(out, "eq_net_bytes_out_total {}", net.bytes_out);
    let _ = writeln!(out, "eq_net_queue_depth {}", net.queue_depth);
    let _ = writeln!(out, "eq_net_queue_depth_high_water {}", net.queue_depth_high_water);
    let _ = writeln!(out, "eq_net_connections_failed_total {}", net.connections_failed);
    let _ = writeln!(out, "eq_net_acceptor_fatal_total {}", net.acceptor_fatal);
    let _ = writeln!(out, "eq_net_responses_direct_total {}", net.responses_direct);
    let _ = writeln!(out, "eq_net_responses_deferred_total {}", net.responses_deferred);
    let _ = writeln!(out, "eq_net_poller_wakeups_total {}", net.poller_wakeups);
    for (index, connections) in net.loop_connections.iter().enumerate() {
        let _ = writeln!(out, "eq_net_loop_connections{{loop=\"{index}\"}} {connections}");
    }
    out
}

/// The answer every request gets once a mutating dispatch has panicked.
fn poisoned_response(id: u64) -> eq_proto::Response {
    let message = "the server is poisoned by a panic during an earlier write; \
                   restart it (or recover from the durable tier)";
    error_response(id, eq_proto::ErrorCode::Internal, message)
}

/// A typed error answer to request `id` (0: no request can be named).
fn error_response(id: u64, code: eq_proto::ErrorCode, message: &str) -> eq_proto::Response {
    let payload = eq_proto::ErrorPayload { code, message: message.to_string() };
    eq_proto::Response { id, body: ResponseBody::Error(payload) }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A blocking EarthQube client over one reused TCP connection.
///
/// Every call mirrors a [`QueryServer`] entry point and returns the same
/// types — including the same [`EarthQubeError`] variants for server-side
/// failures, reconstructed from the wire.  Transport-level failures
/// surface as [`EarthQubeError::Net`].
///
/// For throughput, [`run_batch`](Self::run_batch) pipelines a whole
/// workload over the connection: all request frames are written before
/// any response is read, so the batch pays one round trip, not one per
/// request.
pub struct EqClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    /// The request frame under construction, reused across calls: every
    /// request leaves in one `write(2)` of one buffer.
    frame: Vec<u8>,
}

impl std::fmt::Debug for EqClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EqClient").field("next_id", &self.next_id).finish_non_exhaustive()
    }
}

impl EqClient {
    /// Connects to a [`NetServer`].
    ///
    /// # Errors
    /// Fails with [`EarthQubeError::Net`] if the connection cannot be
    /// established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, EarthQubeError> {
        let stream = TcpStream::connect(addr).map_err(|e| net_err("connecting", e))?;
        let _ = stream.set_nodelay(true);
        let reader =
            BufReader::new(stream.try_clone().map_err(|e| net_err("cloning the connection", e))?);
        Ok(Self { stream, reader, next_id: 1, frame: Vec::new() })
    }

    /// Like [`connect`](Self::connect), but retries connection
    /// establishment under `policy`'s capped, jittered exponential
    /// backoff — the standard way to ride out a server that is still
    /// binding (or briefly restarting) without hammering it.
    ///
    /// # Errors
    /// The last connection error once the retry budget is exhausted.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Copy,
        policy: &RetryPolicy,
    ) -> Result<Self, EarthQubeError> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(policy.jitter_seed);
        policy.run(policy.attempts, &mut rng, || match Self::connect(addr) {
            Ok(client) => std::ops::ControlFlow::Break(Ok(client)),
            Err(e) => std::ops::ControlFlow::Continue(e),
        })
    }

    /// Sends one request frame whose payload `encode` writes in place —
    /// for the borrowed encoders (`encode_ingest_request_into` & co.) this
    /// also avoids cloning raster data into an owned request body.
    fn send_with(
        &mut self,
        encode: impl FnOnce(&mut eq_wire::Writer, u64),
    ) -> Result<u64, EarthQubeError> {
        let id = self.next_id;
        self.next_id += 1;
        let sent = send_frame(&mut self.stream, &mut self.frame, |w| encode(w, id));
        if self.frame.capacity() > FRAME_BUF_KEEP {
            self.frame = Vec::new(); // an upload's buffer is not kept for pings
        }
        sent.map(|()| id)
    }

    fn receive(&mut self, expected_id: u64) -> Result<ResponseBody, EarthQubeError> {
        let response = eq_proto::read_response(&mut self.reader)
            .map_err(|e| net_err("reading the response", e))?
            .ok_or_else(|| EarthQubeError::Net("the server closed the connection".to_string()))?;
        if response.id != expected_id {
            return Err(EarthQubeError::Net(format!(
                "response id {} does not match request id {expected_id}",
                response.id
            )));
        }
        Ok(response.body)
    }

    /// Sends any request and returns the server's answer as it arrived: a
    /// server-side failure is a [`ResponseBody::Error`], so only transport
    /// failures are errors here.  The body is encoded where it lies.
    ///
    /// # Errors
    /// Fails with [`EarthQubeError::Net`] on transport faults.
    pub fn call(&mut self, body: &RequestBody) -> Result<ResponseBody, EarthQubeError> {
        let id = self.send_with(|w, id| body.encode_into(w, id))?;
        self.receive(id)
    }

    /// Liveness probe.
    ///
    /// # Errors
    /// Fails with [`EarthQubeError::Net`] on transport faults.
    pub fn ping(&mut self) -> Result<(), EarthQubeError> {
        match self.call(&RequestBody::Ping)? {
            ResponseBody::Pong => Ok(()),
            other => Err(unexpected(other, "ping")),
        }
    }

    /// Remote counterpart of [`QueryServer::search`].
    ///
    /// # Errors
    /// Propagates the server-side error, or [`EarthQubeError::Net`].
    pub fn search(&mut self, query: &ImageQuery) -> Result<SearchResponse, EarthQubeError> {
        let body = self.call(&RequestBody::Search(query_to_spec(query)))?;
        expect_search(body)
    }

    /// Remote counterpart of [`QueryServer::similar_to`].
    ///
    /// # Errors
    /// Propagates the server-side error, or [`EarthQubeError::Net`].
    pub fn similar_to(&mut self, name: &str, k: usize) -> Result<SearchResponse, EarthQubeError> {
        let body = self.call(&RequestBody::SimilarTo { name: name.to_string(), k: k as u64 })?;
        expect_search(body)
    }

    /// Remote counterpart of [`QueryServer::search_by_new_example`]: the
    /// patch is uploaded inside the request frame.
    ///
    /// # Errors
    /// Propagates the server-side error, or [`EarthQubeError::Net`].
    pub fn search_by_new_example(
        &mut self,
        patch: &Patch,
        k: usize,
    ) -> Result<SearchResponse, EarthQubeError> {
        // The borrowed encoder spares a deep copy of the raster data.
        let id = self
            .send_with(|w, id| eq_proto::encode_new_example_request_into(w, id, patch, k as u64))?;
        expect_search(self.receive(id)?)
    }

    /// Remote counterpart of [`QueryServer::ingest`].
    ///
    /// # Errors
    /// Propagates the server-side error, or [`EarthQubeError::Net`].
    pub fn ingest(&mut self, patches: &[Patch]) -> Result<IngestReport, EarthQubeError> {
        // The borrowed encoder spares a deep copy of every patch's rasters.
        let id = self.send_with(|w, id| eq_proto::encode_ingest_request_into(w, id, patches))?;
        let body = self.receive(id)?;
        match body {
            ResponseBody::Ingest(report) => Ok(report),
            other => Err(unexpected(other, "ingest")),
        }
    }

    /// Remote counterpart of [`QueryServer::submit_feedback`].
    ///
    /// # Errors
    /// Propagates the server-side error, or [`EarthQubeError::Net`].
    pub fn submit_feedback(
        &mut self,
        text: &str,
        category: Option<&str>,
    ) -> Result<i64, EarthQubeError> {
        let body = self.call(&RequestBody::Feedback {
            text: text.to_string(),
            category: category.map(str::to_string),
        })?;
        match body {
            ResponseBody::Feedback { id } => Ok(id),
            other => Err(unexpected(other, "feedback")),
        }
    }

    /// Remote counterpart of [`QueryServer::stats`].
    ///
    /// # Errors
    /// Propagates the server-side error, or [`EarthQubeError::Net`].
    pub fn stats(&mut self) -> Result<ServerStats, EarthQubeError> {
        match self.call(&RequestBody::Stats)? {
            ResponseBody::Stats(stats) => Ok(stats),
            other => Err(unexpected(other, "stats")),
        }
    }

    /// Fetches the serving and network-tier counters rendered as
    /// Prometheus-style scrape text.
    ///
    /// # Errors
    /// Propagates the server-side error, or [`EarthQubeError::Net`].
    pub fn metrics_text(&mut self) -> Result<String, EarthQubeError> {
        match self.call(&RequestBody::MetricsText)? {
            ResponseBody::MetricsText(text) => Ok(text),
            other => Err(unexpected(other, "metrics")),
        }
    }

    /// Remote counterpart of [`QueryServer::similar_to_filtered`]: the
    /// filtered k-nearest search, execution plan included.
    ///
    /// # Errors
    /// Propagates the server-side error, or [`EarthQubeError::Net`].
    pub fn similar_to_filtered(
        &mut self,
        name: &str,
        k: usize,
        query: &ImageQuery,
        mode: PrefilterMode,
    ) -> Result<FilteredResponse, EarthQubeError> {
        let body = self.call(&RequestBody::SimilarToFiltered {
            name: name.to_string(),
            k: k as u64,
            spec: query_to_spec(query),
            mode,
        })?;
        expect_filtered(body)
    }

    /// Remote counterpart of [`QueryServer::similar_within_filtered`]: the
    /// filtered Hamming-radius search, execution plan included.
    ///
    /// # Errors
    /// Propagates the server-side error, or [`EarthQubeError::Net`].
    pub fn similar_within_filtered(
        &mut self,
        name: &str,
        radius: u32,
        query: &ImageQuery,
        mode: PrefilterMode,
    ) -> Result<FilteredResponse, EarthQubeError> {
        let body = self.call(&RequestBody::SimilarWithinFiltered {
            name: name.to_string(),
            radius,
            spec: query_to_spec(query),
            mode,
        })?;
        expect_filtered(body)
    }

    /// Fetches the server's replication role, lineage and record counts —
    /// the replication handshake, and how a cluster client discovers the
    /// primary.
    ///
    /// # Errors
    /// Propagates the server-side error, or [`EarthQubeError::Net`].
    pub fn repl_state(&mut self) -> Result<ReplState, EarthQubeError> {
        match self.call(&RequestBody::ReplState)? {
            ResponseBody::ReplState(state) => Ok(state),
            other => Err(unexpected(other, "repl_state")),
        }
    }

    /// Pulls the records past `(ingested, feedback)` under `generation`,
    /// whose last records have the CRC-32s `tails` — the replication
    /// transport primitive [`crate::replicate::Replica`] is built on.
    ///
    /// # Errors
    /// Propagates the server-side error, or [`EarthQubeError::Net`].
    pub fn repl_pull(
        &mut self,
        generation: u32,
        ingested: u64,
        feedback: u64,
        tails: [u32; 2],
        max_bytes: u64,
    ) -> Result<ReplBatch, EarthQubeError> {
        let body = RequestBody::ReplPull { generation, ingested, feedback, tails, max_bytes };
        match self.call(&body)? {
            ResponseBody::ReplRecords(batch) => Ok(batch),
            other => Err(unexpected(other, "repl_pull")),
        }
    }

    /// Executes a batch of requests **pipelined**: request frames are
    /// written by a scoped writer thread while this thread reads the
    /// responses, so the whole batch pays one network round trip instead
    /// of one per request.  Responses come back in request order, with
    /// per-request server-side errors in their slots — the remote
    /// counterpart of [`QueryServer::run_workload`].
    ///
    /// Reading concurrently with writing (rather than writing everything
    /// first) keeps arbitrarily large batches deadlock-free: the client
    /// always drains responses, so the server never blocks forever on a
    /// full response direction while requests back up.
    ///
    /// # Errors
    /// A transport failure aborts the whole batch (per-request errors do
    /// not).
    pub fn run_batch(
        &mut self,
        requests: &[RequestBody],
    ) -> Result<Vec<ResponseBody>, EarthQubeError> {
        let first_id = self.next_id;
        self.next_id += requests.len() as u64;
        let mut writer = self
            .stream
            .try_clone()
            .map_err(|e| net_err("cloning the connection for the batch writer", e))?;
        std::thread::scope(|scope| {
            let sender = scope.spawn(move || -> Result<(), EarthQubeError> {
                let mut frame = Vec::new();
                for (i, request) in requests.iter().enumerate() {
                    let id = first_id + i as u64;
                    let encode = |w: &mut eq_wire::Writer| request.encode_into(w, id);
                    if let Err(e) = send_frame(&mut writer, &mut frame, encode) {
                        // The failure may be purely local (e.g. a payload
                        // over the frame cap, rejected before any byte hit
                        // the socket) with the connection itself healthy —
                        // the reader would then wait forever for a response
                        // that was never requested.  Kill the socket so the
                        // reader unblocks with an error.
                        let _ = writer.shutdown(Shutdown::Both);
                        return Err(e);
                    }
                }
                Ok(())
            });
            let mut results = Vec::with_capacity(requests.len());
            let mut receive_error = None;
            for i in 0..requests.len() {
                match self.receive(first_id + i as u64) {
                    Ok(body) => results.push(body),
                    Err(e) => {
                        // Abort the batch: shut the socket down so the
                        // writer thread (possibly blocked mid-write) fails
                        // fast and the join below cannot hang.  The
                        // connection is unusable after a transport error
                        // anyway.
                        let _ = self.stream.shutdown(Shutdown::Both);
                        receive_error = Some(e);
                        break;
                    }
                }
            }
            let sent = sender
                .join()
                .unwrap_or_else(|_| Err(EarthQubeError::Net("batch writer panicked".into())));
            // A writer failure is the root cause when both sides errored
            // (the reader's error is then just the induced socket
            // shutdown), so it takes precedence in the report.
            match (sent, receive_error) {
                (Err(e), _) => Err(e),
                (Ok(()), Some(e)) => Err(e),
                (Ok(()), None) => Ok(results),
            }
        })
    }
}

/// A search answer as the typed call returns it.
pub(crate) fn expect_search(body: ResponseBody) -> Result<SearchResponse, EarthQubeError> {
    match body {
        ResponseBody::Search(payload) => Ok(payload_to_response(payload)),
        other => Err(unexpected(other, "a search request")),
    }
}

/// A filtered-search answer as the typed call returns it.
pub(crate) fn expect_filtered(body: ResponseBody) -> Result<FilteredResponse, EarthQubeError> {
    match body {
        ResponseBody::Filtered(payload) => Ok(payload_to_filtered(payload)),
        other => Err(unexpected(other, "a filtered search")),
    }
}

/// The error for a response that is not the kind the request calls for: the
/// server's own typed error, reconstructed, or a transport-level complaint.
pub(crate) fn unexpected(body: ResponseBody, request: &str) -> EarthQubeError {
    match body {
        ResponseBody::Error(e) => payload_to_error(e),
        other => EarthQubeError::Net(format!("unexpected response {other:?} to {request}")),
    }
}

/// Builds one request frame in `frame` (cleared first) and sends it with
/// one `write_all`: header and payload leave in one `write(2)`, so the
/// server's event loop wakes once per request and never decodes half a frame.
fn send_frame(
    stream: &mut TcpStream,
    frame: &mut Vec<u8>,
    encode: impl FnOnce(&mut eq_wire::Writer),
) -> Result<(), EarthQubeError> {
    frame.clear();
    eq_proto::frame_request_with(frame, encode).map_err(|e| net_err("sending the request", e))?;
    stream.write_all(frame).map_err(|e| net_err("sending the request", e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EarthQubeConfig;
    use crate::serve::ServeConfig;
    use eq_bigearthnet::{Archive, ArchiveGenerator, GeneratorConfig};

    fn served(n: usize, seed: u64) -> (NetServer, Arc<QueryServer>, Archive) {
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(n, seed)).unwrap().generate();
        let mut config = EarthQubeConfig::fast(seed);
        config.train_model = false;
        let server =
            Arc::new(QueryServer::build(&archive, config, ServeConfig::default()).unwrap());
        let net = NetServer::bind(Arc::clone(&server), "127.0.0.1:0", 2).unwrap();
        (net, server, archive)
    }

    #[test]
    fn remote_calls_mirror_the_in_process_server() {
        let (net, server, archive) = served(24, 301);
        let mut client = EqClient::connect(net.local_addr()).unwrap();
        client.ping().unwrap();

        let query = ImageQuery::all();
        assert_eq!(client.search(&query).unwrap(), server.search(&query).unwrap());

        let name = &archive.patches()[2].meta.name;
        assert_eq!(client.similar_to(name, 5).unwrap(), server.similar_to(name, 5).unwrap());

        let external =
            ArchiveGenerator::new(GeneratorConfig::tiny(1, 999)).unwrap().generate_patch(0);
        assert_eq!(
            client.search_by_new_example(&external, 4).unwrap(),
            server.search_by_new_example(&external, 4).unwrap()
        );

        // Server-side errors come back as their original variants.
        assert!(matches!(client.similar_to("ghost", 3), Err(EarthQubeError::UnknownImage(_))));

        let id = client.submit_feedback("over the wire", Some("reaction")).unwrap();
        assert!(id >= 0);
        assert_eq!(server.list_feedback().unwrap().len(), 1);

        let stats = client.stats().unwrap();
        assert_eq!(stats, server.stats());
        net.shutdown();
    }

    #[test]
    fn remote_ingest_appends_to_the_live_archive() {
        let (net, server, _) = served(10, 302);
        let mut client = EqClient::connect(net.local_addr()).unwrap();
        let extra = ArchiveGenerator::new(GeneratorConfig::tiny(3, 888)).unwrap().generate();
        let report = client.ingest(extra.patches()).unwrap();
        assert_eq!(report.metadata_docs, 3);
        assert_eq!(server.archive_size(), 13);
        // Duplicate ingest surfaces the server's BadRequest.
        assert!(matches!(client.ingest(&extra.patches()[..1]), Err(EarthQubeError::BadRequest(_))));
        net.shutdown();
    }

    #[test]
    fn pipelined_batch_matches_one_shot_execution() {
        let (net, server, archive) = served(20, 303);
        let mut requests: Vec<RequestBody> = archive
            .patches()
            .iter()
            .take(6)
            .map(|p| RequestBody::SimilarTo { name: p.meta.name.clone(), k: 4 })
            .collect();
        requests.push(RequestBody::Search(query_to_spec(&ImageQuery::all())));
        requests.push(RequestBody::SimilarTo { name: "ghost".into(), k: 2 });

        let mut client = EqClient::connect(net.local_addr()).unwrap();
        let batched = client.run_batch(&requests).unwrap();
        assert_eq!(batched.len(), requests.len());
        for (got, request) in batched.iter().zip(&requests) {
            assert_eq!(got, &server.call(request), "batched disagrees with in-process");
        }
        net.shutdown();
    }

    #[test]
    fn many_clients_are_served_concurrently() {
        let (net, _, archive) = served(16, 304);
        let addr = net.local_addr();
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let names: Vec<String> =
                    archive.patches().iter().map(|p| p.meta.name.clone()).collect();
                scope.spawn(move || {
                    let mut client = EqClient::connect(addr).unwrap();
                    for i in 0..10usize {
                        let name = &names[(t * 7 + i) % names.len()];
                        client.similar_to(name, 3).unwrap();
                    }
                });
            }
        });
        net.shutdown();
    }

    #[test]
    fn shutdown_is_graceful_and_idempotent_under_drop() {
        let (net, server, _) = served(8, 305);
        let addr = net.local_addr();
        let mut client = EqClient::connect(addr).unwrap();
        client.ping().unwrap();
        net.shutdown(); // joins every event loop; kicks the client
        assert!(client.ping().is_err(), "a kicked client observes the close");
        assert!(EqClient::connect(addr).and_then(|mut c| c.ping()).is_err());
        // A second server on a fresh port serves the same QueryServer.
        let net2 = NetServer::bind(server, "127.0.0.1:0", 1).unwrap();
        let mut client2 = EqClient::connect(net2.local_addr()).unwrap();
        client2.ping().unwrap();
        drop(net2); // Drop performs the same shutdown
    }

    /// A structurally invalid patch (decodable bytes, non-canonical band
    /// layout) must be rejected with `BadRequest` — never reach the
    /// engine's unconditional band indexing — and the event loop must keep
    /// serving.  Guards the panic-drain hole: one hostile frame per loop
    /// would otherwise kill every loop and its connections.
    #[test]
    fn malformed_patches_are_rejected_not_panicking() {
        let (net, server, _) = served(10, 306);
        let mut client = EqClient::connect(net.local_addr()).unwrap();

        let mut bad = ArchiveGenerator::new(GeneratorConfig::tiny(1, 1)).unwrap().generate_patch(0);
        bad.meta.name = "band_thief".into();
        bad.s2_bands.truncate(3); // the engine indexes all 12 unconditionally
        assert!(matches!(
            client.search_by_new_example(&bad, 3),
            Err(EarthQubeError::BadRequest(_))
        ));
        assert!(matches!(client.ingest(&[bad.clone()]), Err(EarthQubeError::BadRequest(_))));
        assert_eq!(server.archive_size(), 10, "the bad batch must not partially ingest");

        let mut empty = bad.clone();
        empty.s2_bands = vec![eq_bigearthnet::BandData::from_pixels(0, vec![]); 12];
        assert!(matches!(
            client.search_by_new_example(&empty, 3),
            Err(EarthQubeError::BadRequest(_))
        ));

        // Disagreeing RGB band sizes would overrun `render_rgb`'s output
        // buffer during ingest — must be rejected up front.
        let mut lopsided =
            ArchiveGenerator::new(GeneratorConfig::tiny(1, 2)).unwrap().generate_patch(0);
        lopsided.meta.name = "lopsided".into();
        lopsided.s2_bands[eq_bigearthnet::Band::B04.index()] =
            eq_bigearthnet::BandData::from_pixels(1, vec![7]);
        assert!(matches!(client.ingest(&[lopsided]), Err(EarthQubeError::BadRequest(_))));
        assert_eq!(server.archive_size(), 10);

        // A hostile neighbour count is clamped, not overflowed.
        let name = "ghost";
        assert!(matches!(
            client.similar_to(name, usize::MAX),
            Err(EarthQubeError::UnknownImage(_))
        ));

        // The same connection — hence the same event loop — still serves.
        client.ping().unwrap();
        assert!(client.search(&ImageQuery::all()).is_ok());
        net.shutdown();
    }

    /// A batch whose request fails *locally* (payload over the frame cap,
    /// never sent) must error out, not hang: the reader would otherwise
    /// wait forever for a response to a request the writer never sent.
    #[test]
    fn run_batch_surfaces_local_send_failures_instead_of_hanging() {
        let (net, _, _) = served(6, 307);
        let mut client = EqClient::connect(net.local_addr()).unwrap();
        // One band of 5800² u16 pixels encodes past the 64 MiB frame cap.
        let mut huge =
            ArchiveGenerator::new(GeneratorConfig::tiny(1, 3)).unwrap().generate_patch(0);
        huge.s2_bands[0] = eq_bigearthnet::BandData::zeros(5800);
        let requests = vec![RequestBody::SearchByNewExample { patch: Box::new(huge), k: 3 }];
        assert!(matches!(client.run_batch(&requests), Err(EarthQubeError::Net(_))));
        net.shutdown();
    }

    /// The metrics endpoint renders the same numbers `stats()` reports:
    /// parse the Prometheus-style text and reconcile it against a
    /// [`ServerStats`] snapshot and the net-tier counters.
    #[test]
    fn metrics_text_matches_server_stats() {
        let (net, server, archive) = served(18, 308);
        let mut client = EqClient::connect(net.local_addr()).unwrap();

        client.search(&ImageQuery::all()).unwrap();
        client.search(&ImageQuery::all()).unwrap(); // cache hit
        let name = &archive.patches()[0].meta.name;
        client.similar_to(name, 4).unwrap();

        let stats = server.stats();
        let text = client.metrics_text().unwrap();
        let metric = |name: &str| -> u64 {
            text.lines()
                .find_map(|line| {
                    line.strip_prefix(name)
                        .and_then(|rest| rest.strip_prefix(' ').and_then(|v| v.parse().ok()))
                })
                .unwrap_or_else(|| panic!("metric {name} missing from:\n{text}"))
        };
        assert_eq!(metric("eq_queries_served_total"), stats.queries_served);
        assert_eq!(metric("eq_cache_hits_total"), stats.cache_hits);
        assert_eq!(metric("eq_cache_misses_total"), stats.cache_misses);
        assert_eq!(metric("eq_cache_entries"), stats.cache_entries as u64);
        // The one computed search resolved its filter once; the repeat was
        // a result-cache hit and resolved nothing.
        assert_eq!((stats.filter_cache_hits, stats.filter_cache_misses), (0, 1));
        assert_eq!(metric("eq_filter_cache_hits_total"), stats.filter_cache_hits);
        assert_eq!(metric("eq_filter_cache_misses_total"), stats.filter_cache_misses);
        assert_eq!(metric("eq_filter_cache_entries"), 1);
        assert_eq!(metric("eq_filter_cache_bytes"), stats.filter_cache_bytes as u64);
        assert!(stats.filter_cache_bytes > 0);
        assert_eq!(metric("eq_archive_size"), stats.archive_size as u64);
        assert_eq!(metric("eq_net_accepted_total"), 1, "one client connected");
        assert_eq!(metric("eq_net_rejected_overload_total"), 0);
        assert_eq!(metric("eq_net_evicted_slow_total"), 0);
        assert!(metric("eq_net_bytes_in_total") > 0);
        assert!(metric("eq_net_bytes_out_total") > 0);
        // A closed loop of small answers: every response is flushed by the
        // worker that produced it (counted right after its write, so the
        // third may still be uncounted here), and each of the four requests
        // cost the poller one wake-up to read it.
        assert!(metric("eq_net_responses_direct_total") <= 3);
        assert_eq!(metric("eq_net_responses_deferred_total"), 0);
        assert!(metric("eq_net_poller_wakeups_total") >= 4);

        // The snapshot API reports the same counters the text renders.
        let deadline = Instant::now() + Duration::from_secs(10);
        while net.net_stats().responses_direct < 4 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let snap = net.net_stats();
        assert_eq!(snap.accepted, 1);
        assert_eq!(snap.connections_failed, 0);
        assert!(snap.bytes_out > 0);
        assert_eq!((snap.responses_direct, snap.responses_deferred), (4, 0));
        assert!(snap.poller_wakeups >= 4);
        net.shutdown();
    }

    /// Satellite-3 regression: the acceptor classifies listener errors
    /// instead of retrying everything forever.  Readiness and transient
    /// per-connection failures (including fd exhaustion) are retried;
    /// genuine listener breakage is fatal.
    #[test]
    fn accept_errors_are_classified() {
        use std::io::{Error, ErrorKind};
        for transient in [
            Error::from(ErrorKind::WouldBlock),
            Error::from(ErrorKind::Interrupted),
            Error::from(ErrorKind::ConnectionAborted),
            Error::from(ErrorKind::ConnectionReset),
            Error::from(ErrorKind::TimedOut),
            Error::from_raw_os_error(24),  // EMFILE
            Error::from_raw_os_error(23),  // ENFILE
            Error::from_raw_os_error(105), // ENOBUFS
        ] {
            assert!(!accept_error_is_fatal(&transient), "{transient:?} must be retried");
        }
        for fatal in [
            Error::from_raw_os_error(9),  // EBADF: the listener fd is gone
            Error::from_raw_os_error(22), // EINVAL: not listening
            Error::from_raw_os_error(88), // ENOTSOCK
        ] {
            assert!(accept_error_is_fatal(&fatal), "{fatal:?} must stop the acceptor");
        }
    }

    /// The envelope peek used by admission-control rejections reads the
    /// id every `Request::encode` writes.
    #[test]
    fn peeked_request_ids_match_encoded_envelopes() {
        for id in [0u64, 1, 77, u64::MAX] {
            let payload = eq_proto::Request { id, body: eq_proto::RequestBody::Ping }.encode();
            assert_eq!(peek_request_id(&payload), id);
        }
        assert_eq!(peek_request_id(&[0u8; 5]), 0, "short payloads fall back to id 0");
    }

    #[test]
    fn conversions_are_lossless_for_rich_queries() {
        use eq_bigearthnet::patch::{AcquisitionDate, Satellite, Season};
        use eq_bigearthnet::{Country, Label};
        use eq_geo::{BBox, GeoShape};
        let query = ImageQuery::all()
            .with_shape(GeoShape::Rect(BBox::new(-9.0, 37.0, -6.0, 42.0).unwrap()))
            .with_date_range(
                AcquisitionDate::new(2017, 6, 1).unwrap(),
                AcquisitionDate::new(2018, 5, 31).unwrap(),
            )
            .with_seasons(vec![Season::Summer])
            .with_countries(vec![Country::Portugal])
            .with_labels(LabelFilter::new(LabelOperator::Exactly, vec![Label::SeaAndOcean]));
        let mut with_satellites = query.clone();
        with_satellites.satellites = vec![Satellite::Sentinel1, Satellite::Sentinel2];
        for q in [query, with_satellites, ImageQuery::all()] {
            assert_eq!(spec_to_query(&query_to_spec(&q)), q);
        }
    }

    #[test]
    fn a_delivered_reply_is_already_counted_in_bytes_out() {
        let (net, _server, _) = served(8, 306);
        let mut client = EqClient::connect(net.local_addr()).unwrap();
        let pong = eq_proto::Response { id: 0, body: eq_proto::ResponseBody::Pong }.encode();
        let frame_len = (eq_wire::frame::HEADER_LEN + pong.len()) as u64;
        for k in 1..=2_000 {
            client.ping().unwrap();
            assert_eq!(net.net_stats().bytes_out, k * frame_len, "after pong {k}");
        }
        net.shutdown();
    }

    /// After one miss, every repeat of the request on the connection is
    /// answered by its event loop from the result cache: counted as a
    /// server cache hit, rendered by the metrics text, and never queued
    /// behind another request.
    #[test]
    fn repeats_of_a_cached_read_are_answered_on_the_event_loop() {
        let (net, server, archive) = served(20, 309);
        let mut client = EqClient::connect(net.local_addr()).unwrap();
        let request = RequestBody::SimilarTo { name: archive.patches()[3].meta.name.clone(), k: 5 };
        let first = client.call(&request).unwrap();
        assert_eq!(server.stats().cache_hits, 0, "the first call is a miss");
        const N: u64 = 25;
        for _ in 0..N {
            assert_eq!(client.call(&request).unwrap(), first);
        }
        let stats = net.net_stats();
        assert_eq!(server.stats().cache_hits, N);
        assert_eq!(stats.queue_depth_high_water, 1, "no repeat waited behind another request");
        assert_eq!((server.stats().cache_hits, server.stats().cache_misses), (N, 1));

        // Every answer counts once as direct or deferred (a loop counts a
        // burst's answers after its write, so wait for the last one's).
        let deadline = Instant::now() + Duration::from_secs(10);
        let answers = |s: &NetTierStats| s.responses_direct + s.responses_deferred;
        while answers(&net.net_stats()) < N + 1 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(answers(&net.net_stats()), N + 1);

        let text = client.metrics_text().unwrap();
        assert!(text.contains(&format!("eq_cache_hits_total {N}\n")), "{text}");
        assert_eq!(net.net_stats().queue_depth_high_water, 1);
        net.shutdown();
    }

    /// A cached answer is admitted like any request: the event loop answers
    /// a hit only after the poison check and the connection's quota.
    #[test]
    fn a_cache_hit_passes_the_poison_check_and_the_quota() {
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(12, 310)).unwrap().generate();
        let mut config = EarthQubeConfig::fast(310);
        config.train_model = false;
        let server =
            Arc::new(QueryServer::build(&archive, config, ServeConfig::default()).unwrap());
        let request = RequestBody::Search(query_to_spec(&ImageQuery::all()));
        let cached = server.call(&request);
        assert_eq!(server.stats().cache_entries, 1);
        let error_code = |body: ResponseBody| match body {
            ResponseBody::Error(e) => Some(e.code),
            _ => None,
        };

        // No quota at all: the hit is refused, not answered.
        let config = NetConfig { workers: 1, max_inflight_per_conn: 0, ..NetConfig::default() };
        let net = NetServer::bind_with(Arc::clone(&server), "127.0.0.1:0", config).unwrap();
        let mut client = EqClient::connect(net.local_addr()).unwrap();
        let refused = client.call(&request).unwrap();
        assert_eq!(error_code(refused), Some(eq_proto::ErrorCode::Overloaded));
        assert_eq!((server.stats().cache_hits, net.net_stats().rejected_overload), (0, 1));
        net.shutdown();

        // A poisoned server answers nothing from its cache either.
        let net = NetServer::bind(Arc::clone(&server), "127.0.0.1:0", 1).unwrap();
        let mut client = EqClient::connect(net.local_addr()).unwrap();
        assert_eq!(client.call(&request).unwrap(), cached);
        assert_eq!(server.stats().cache_hits, 1);
        net.shared.poisoned.store(true, Ordering::SeqCst);
        let refused = client.call(&request).unwrap();
        assert_eq!(error_code(refused), Some(eq_proto::ErrorCode::Internal));
        assert_eq!(server.stats().cache_hits, 1);
        net.shutdown();
    }

    /// A frame whose payload carries a query kind's tag but does not
    /// decode is a protocol fault: the answers to the requests ahead of it
    /// (here a cache hit and a miss), then the fatal `BadRequest` frame
    /// under id 0, byte for byte, then the close.
    #[test]
    fn an_undecodable_query_payload_gets_the_fatal_frame() {
        let (net, server, archive) = served(12, 311);
        let cached = RequestBody::Search(query_to_spec(&ImageQuery::all()));
        server.call(&cached);
        let miss = RequestBody::SimilarTo { name: archive.patches()[1].meta.name.clone(), k: 3 };
        let similar = RequestBody::SimilarTo { name: "p".into(), k: 3 };
        let mut bad = eq_proto::Request { id: 9, body: similar }.encode();
        bad.push(0); // the tag says `SimilarTo`; the decoder refuses the trailing byte
        let error = eq_proto::Request::decode(&bad).unwrap_err();
        let message = format!("malformed request: {error}");
        let fatal =
            encode_response_frame(&error_response(0, eq_proto::ErrorCode::BadRequest, &message));

        let mut burst = Vec::new();
        for (id, body) in [(1, &cached), (2, &miss)] {
            let request = eq_proto::Request { id, body: body.clone() };
            eq_proto::write_request(&mut burst, &request).unwrap();
        }
        eq_proto::write_request_payload(&mut burst, &bad).unwrap();
        let mut stream = TcpStream::connect(net.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(&burst).unwrap();
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes).expect("the server closes the connection");
        assert_eq!(server.stats().cache_hits, 1, "the first request's answer was the hit");

        let mut rest = &bytes[..];
        for (id, body) in [(1, &cached), (2, &miss)] {
            let response = eq_proto::read_response(&mut rest).unwrap().unwrap();
            assert_eq!(response, eq_proto::Response { id, body: server.call(body) });
        }
        assert_eq!(rest, &fatal[..], "the fatal frame, byte for byte, and nothing after it");
        let deadline = Instant::now() + Duration::from_secs(10);
        while net.connections_failed() == 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(net.connections_failed(), 1);
        net.shutdown();
    }

    /// A loopback pair: the accepted side as a loop's connection, and the
    /// peer, which reads nothing unless the test says so.
    fn conn_pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        (Conn::new(stream), peer)
    }

    /// The sweep's eviction test sees the answers a connection holds and
    /// has not sent: what the socket took counts neither toward the buffer
    /// cap nor as a stall, and a backlog is stalled only once it made no
    /// write progress for the whole write timeout.
    #[test]
    fn eviction_counts_only_the_unsent_answers() {
        const FRAME: usize = 8 << 20;
        let stats = NetStats::new(1);
        let timeout = Duration::from_secs(30);
        let (mut conn, mut peer) = conn_pair();
        let start = Instant::now();
        assert!(!conn.should_evict(start + 2 * timeout, timeout, 0), "nothing held");

        // Two answers far beyond what the loopback buffers take: the peer
        // reads nothing, so the write stops short.
        conn.push(vec![7; FRAME]);
        conn.push(vec![7; FRAME]);
        assert!(conn.flush(&stats), "the unread socket leaves a backlog");
        let sent = stats.bytes_out.load(Ordering::Relaxed) as usize;
        let unsent = 2 * FRAME - sent;
        assert!(sent > 0 && conn.outbuf.len() - conn.outpos == unsent);
        assert!(!conn.should_evict(start, timeout, unsent));
        assert!(conn.should_evict(start, timeout, unsent - 1));
        let progress = conn.last_write_progress;
        assert!(!conn.should_evict(progress + timeout - Duration::from_millis(1), timeout, unsent));
        assert!(conn.should_evict(progress + timeout, timeout, unsent), "stalled output");

        // Bytes the socket took but the buffer still holds, below the
        // compaction threshold, count for nothing.
        conn.outpos += 1_000;
        assert!(!conn.should_evict(start, timeout, unsent - 1_000));
        conn.outpos -= 1_000;

        // The peer reads a little: the next write makes progress, which
        // restarts the stall clock.
        let mut chunk = vec![0; 1 << 20];
        peer.read_exact(&mut chunk).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        assert!(conn.flush(&stats));
        assert!(conn.last_write_progress > progress);
        assert!(
            !conn.should_evict(progress + timeout, timeout, usize::MAX),
            "progress is no stall"
        );

        // The peer drains it all: nothing unsent, nothing to evict.
        let reader = std::thread::spawn(move || {
            let mut rest = vec![0; 2 * FRAME - chunk.len()];
            peer.read_exact(&mut rest).unwrap();
        });
        while conn.flush(&stats) {
            std::thread::yield_now();
        }
        reader.join().unwrap();
        assert_eq!(stats.bytes_out.load(Ordering::Relaxed) as usize, 2 * FRAME);
        assert!(!conn.has_backlog());
        assert!(!conn.should_evict(progress + 2 * timeout, timeout, 0));
    }

    /// Loop 0 deals accepted connections out round-robin in accept order,
    /// and each loop's gauge counts the connections it owns now.
    #[test]
    fn connections_are_dealt_round_robin_over_the_loops() {
        let (net, _server, _) = served(8, 312);
        let mut clients: Vec<EqClient> = (0..4)
            .map(|_| {
                let mut client = EqClient::connect(net.local_addr()).unwrap();
                client.ping().unwrap();
                client
            })
            .collect();
        assert_eq!(net.net_stats().loop_connections, vec![2, 2]);
        let text = clients[0].metrics_text().unwrap();
        for index in 0..2 {
            let line = format!("eq_net_loop_connections{{loop=\"{index}\"}} 2\n");
            assert!(text.contains(&line), "{text}");
        }
        drop(clients);
        let deadline = Instant::now() + Duration::from_secs(10);
        while net.net_stats().loop_connections != [0, 0] && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(net.net_stats().loop_connections, vec![0, 0], "closed connections leave");
        net.shutdown();
    }

    /// A loop serves one read of a connection per readiness, so a
    /// connection flooding its loop with pipelined requests holds back a
    /// request on another connection of the same loop by at most two
    /// reads' worth of answers, however deep the flood.
    #[test]
    fn a_pipelining_connection_does_not_hold_its_loop() {
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(8, 314)).unwrap().generate();
        let mut config = EarthQubeConfig::fast(314);
        config.train_model = false;
        let server =
            Arc::new(QueryServer::build(&archive, config, ServeConfig::default()).unwrap());
        // No quota below what one read holds: only the read bounds a turn.
        let config =
            NetConfig { workers: 1, max_inflight_per_conn: usize::MAX, ..NetConfig::default() };
        let net = NetServer::bind_with(server, "127.0.0.1:0", config).unwrap();
        const FLOOD: usize = 200_000;
        let mut flood = Vec::new();
        for id in 0..FLOOD as u64 {
            let ping = eq_proto::Request { id, body: RequestBody::Ping };
            eq_proto::write_request(&mut flood, &ping).unwrap();
        }
        let frame_len = flood.len() / FLOOD;
        assert_eq!(flood.len(), FLOOD * frame_len, "every ping frame is the same length");
        let per_read = (READ_CHUNK / frame_len + 1) as u64;

        // A ping on each puts both connections in the loop's table, the
        // flooder first, so it is read first in every round.
        let mut flooder = TcpStream::connect(net.local_addr()).unwrap();
        let mut other = TcpStream::connect(net.local_addr()).unwrap();
        for stream in [&mut flooder, &mut other] {
            let ping = eq_proto::Request { id: 0, body: RequestBody::Ping };
            eq_proto::write_request(stream, &ping).unwrap();
            assert_eq!(eq_proto::read_response(stream).unwrap().unwrap().body, ResponseBody::Pong);
        }
        let mut drain = flooder.try_clone().unwrap();
        let writer = std::thread::spawn(move || flooder.write_all(&flood));
        let reader = std::thread::spawn(move || std::io::copy(&mut drain, &mut std::io::sink()));
        let answers = |s: &NetTierStats| s.responses_direct + s.responses_deferred;
        let deadline = Instant::now() + Duration::from_secs(10);
        while answers(&net.net_stats()) <= 2 && Instant::now() < deadline {
            std::thread::yield_now();
        }

        // The loop renders the scrape text when it serves the request, so
        // its answer counters say how many answers went out before it.
        let scrape = eq_proto::Request { id: 1, body: RequestBody::MetricsText };
        eq_proto::write_request(&mut other, &scrape).unwrap();
        let before = answers(&net.net_stats());
        let text = match eq_proto::read_response(&mut other).unwrap().unwrap().body {
            ResponseBody::MetricsText(text) => text,
            other => panic!("not a scrape: {other:?}"),
        };
        let counter = |name: &str| -> u64 {
            let line = text.lines().find(|line| line.starts_with(name)).unwrap();
            line.rsplit(' ').next().unwrap().parse().unwrap()
        };
        let served =
            counter("eq_net_responses_direct_total ") + counter("eq_net_responses_deferred_total ");
        assert!(served < FLOOD as u64, "the flood was still running: {served}");
        let overtaking = served.saturating_sub(before);
        assert!(overtaking <= 2 * per_read, "{overtaking} answers overtook the scrape");

        net.shutdown();
        let _ = writer.join().unwrap();
        let _ = reader.join().unwrap();
    }

    /// Shutdown wakes every loop through its own pipe and joins it: an idle
    /// loop waits in `poll(2)` without a timeout, so a loop left unwoken
    /// would neither close its connections nor return.
    #[test]
    fn dropping_the_server_wakes_and_joins_every_loop() {
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(8, 313)).unwrap().generate();
        let mut config = EarthQubeConfig::fast(313);
        config.train_model = false;
        let server =
            Arc::new(QueryServer::build(&archive, config, ServeConfig::default()).unwrap());
        let net = NetServer::bind(server, "127.0.0.1:0", 4).unwrap();
        let mut ping = Vec::new();
        eq_proto::write_request(&mut ping, &eq_proto::Request { id: 1, body: RequestBody::Ping })
            .unwrap();
        let mut clients: Vec<TcpStream> = (0..4)
            .map(|_| {
                let mut stream = TcpStream::connect(net.local_addr()).unwrap();
                stream.write_all(&ping).unwrap();
                let pong = eq_proto::read_response(&mut stream).unwrap().unwrap();
                assert_eq!(pong.body, ResponseBody::Pong);
                stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                stream
            })
            .collect();
        assert_eq!(net.net_stats().loop_connections, vec![1; 4], "one idle connection per loop");

        // Dropped on a thread of its own: a loop never woken hangs the join.
        let (joined, dropped) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            drop(net);
            let _ = joined.send(());
        });
        for (index, stream) in clients.iter_mut().enumerate() {
            let mut byte = [0u8; 1];
            assert_eq!(stream.read(&mut byte).ok(), Some(0), "client {index} reads EOF");
        }
        dropped.recv_timeout(Duration::from_secs(10)).expect("every loop is joined");
    }
}
