//! The network serving tier: EarthQube over TCP.
//!
//! The paper's EarthQube is a multi-user *service*; everything below this
//! module can only be driven in-process.  This module puts the
//! [`QueryServer`] behind a wire boundary:
//!
//! * [`NetServer`] — a **readiness-driven event loop** multiplexing every
//!   accepted connection over one poller thread (a vendored `poll(2)`
//!   shim), which answers reads the result cache holds itself, plus a
//!   **bounded worker pool** that hands every other request to the
//!   server's one request entry ([`QueryServer::call`]'s work) on the
//!   shared `&self` server.
//!   One process serves thousands of idle-or-slow sockets over K workers;
//!   a connection no longer pins a thread for its lifetime.  Faults are
//!   isolated per connection: a malformed frame (garbage preamble, torn
//!   payload, checksum mismatch, hostile length prefix) errors *that*
//!   connection — a best-effort error frame, then close — and every other
//!   connection keeps being served.  [`NetServer::shutdown`] stops the
//!   poller, closes live connections and joins every thread.
//! * **Admission control** — per-connection in-flight quotas and a
//!   bounded dispatch queue.  An over-quota request, or one arriving
//!   while the queue is full, is answered immediately with a typed
//!   [`eq_proto::ErrorCode::Overloaded`] error frame instead of stalling
//!   the connection; clients that stop draining their responses (slow
//!   loris) are evicted on a write timeout or when the answers they hold,
//!   unsent or waiting their turn, exceed a cap.  The [`RequestBody::MetricsText`] endpoint
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
//! A result row, an ingest report, a stats snapshot, a filtered plan and
//! the replication state and batch are `eq_proto` types that this crate
//! re-exports: the server encodes the value it computed and the client
//! returns the value it decoded, with nothing converted in between.  What
//! is still converted is lossless in both directions: a query
//! ([`query_to_spec`] / [`spec_to_query`]), an error ([`error_to_payload`] /
//! [`payload_to_error`]), and a response's panel, statistics and plan
//! ([`response_to_payload`] / [`payload_to_response`]: the rows are copied
//! out of a borrowed response and moved back whole).  So a [`SearchResponse`] received through [`EqClient`] is
//! **equal to the in-process result, byte for byte** — the umbrella crate's
//! `remote_equivalence` test drives the same workload through both paths
//! and compares the `eq_proto` encodings.
//!
//! # Threading model
//!
//! ```text
//!            ┌──────────────────── poller thread ─────────────────────┐
//! sockets ──▶ poll(2) → read → FrameDecoder → admission → query? → cache ──miss──▶ job queue ──▶ worker 0..K ──▶ QueryServer (&self)
//!    ▲       └──▲───────────────────────────────────────────────│────┘                              │
//!    │          │                                           hit: frame                              │
//!    │          └ wake pipe: only a worker's backlog (POLLOUT) or close ◀────────────────────────────┤
//!    └────────── ordered, non-blocking write under the `conn-out` lock ◀─────────────────────────────┘
//! ```
//!
//! The poller owns the listener, the connection table and every socket's
//! *read* half (no locks there).  A connection's *write* half — reorder
//! buffer, unsent bytes, in-flight quota — is a `ConnOut` behind the
//! connection's `conn-out` mutex and travels with each job: the worker that
//! executed a request writes the response itself, so a request a worker
//! answers costs one poller wake-up (its bytes arriving), one worker
//! wake-up and one `write(2)`.  A read the result cache holds costs less:
//! the poller decodes the four cache-keyed kinds (`Search`, `SimilarTo`,
//! `SimilarToFiltered`, `SimilarWithinFiltered`; it peeks the tag, and
//! every other kind goes to the queue undecoded), probes the cache and, on
//! a hit, writes a fresh envelope, the cached body bytes and their CRC
//! itself ([`QueryServer::cached_frame`]) — one poller wake-up and one
//! `write(2)`, no hand-off and no per-row work.  A miss travels to a worker
//! decoded and fingerprinted.  Each complete request frame takes a
//! per-connection sequence number at decode time and responses leave
//! **strictly in that order**, whoever wrote them — a pipelining client
//! ([`EqClient::run_batch`]) observes exactly the blocking server's
//! ordering even though the requests of one connection may be answered by
//! the poller and by different workers.  The sockets are non-blocking, so
//! nobody parks on a peer: bytes the socket would not take stay in the
//! `ConnOut`, a worker writes one byte to the wake pipe (the poller knows
//! its own), and the poller drains them on `POLLOUT` (or evicts the
//! connection).  The poller and all workers share the *same* `QueryServer`
//! by reference — the catalog read/write locking, the CBIR index and the
//! result cache behave exactly as they do for in-process threads.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufReader, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd as _;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eq_bigearthnet::patch::Patch;
use eq_docstore::QueryPlan;
use eq_proto::{RequestBody, ResponseBody};
use parking_lot::{Condvar, Mutex};
use rand::SeedableRng as _;

use crate::engine::SearchResponse;
use crate::filtered::{FilteredResponse, PrefilterMode};
use crate::ingest::IngestReport;
use crate::query::{ImageQuery, LabelFilter, LabelOperator};
use crate::replicate::{ReplBatch, ReplState, RetryPolicy};
use crate::results::ResultPanel;
use crate::serve::{QueryServer, Reply, ServerStats};
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

/// Serializes a [`SearchResponse`] into its wire payload (lossless): a
/// copy of the response, moved into the payload.  The server owns its
/// responses and moves them without the copy.
pub fn response_to_payload(response: &SearchResponse) -> eq_proto::SearchPayload {
    search_payload(response.clone())
}

/// The one response-to-wire conversion: the rows move into the payload,
/// so no row's name is copied.
pub(crate) fn search_payload(response: SearchResponse) -> eq_proto::SearchPayload {
    let SearchResponse { panel, statistics, plan } = response;
    eq_proto::SearchPayload {
        page_size: panel.page_size() as u64,
        rows: panel.into_entries(),
        label_counts: statistics.counts().iter().map(|&c| c as u64).collect(),
        image_count: statistics.image_count() as u64,
        plan: plan.map(|p| eq_proto::PlanSpec {
            index_used: p.index_used,
            scanned: p.scanned as u64,
            matched: p.matched as u64,
        }),
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
/// [`NetServer::bind`] uses [`NetConfig::default`] with only the worker
/// count overridden; [`NetServer::bind_with`] takes the full set.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Dispatch pool size (at least one).  Workers execute requests; the
    /// poller thread owns all sockets, so this bounds CPU concurrency,
    /// not connection count.
    pub workers: usize,
    /// Per-connection cap on requests concurrently at the dispatch tier.
    /// A request arriving over quota is answered immediately with a
    /// typed [`eq_proto::ErrorCode::Overloaded`] error.
    pub max_inflight_per_conn: usize,
    /// Bound of the poller→worker hand-off queue.  A request arriving
    /// while the queue is full is rejected with `Overloaded` instead of
    /// stalling the poller.
    pub queue_capacity: usize,
    /// A connection whose output backlog makes no write progress for
    /// this long is evicted (slow-loris defence).
    pub write_timeout: Duration,
    /// A connection holding more than this many bytes of answers — unsent
    /// output plus frames waiting in its reorder buffer behind a slower
    /// request — is evicted regardless of progress, bounding
    /// per-connection memory.
    pub write_buffer_cap: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_inflight_per_conn: 64,
            queue_capacity: 256,
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
    answered_on_loop: AtomicU64,
    poller_wakeups: AtomicU64,
}

/// A snapshot of the network-tier counters ([`NetServer::net_stats`]);
/// the same numbers the `MetricsText` endpoint renders as scrape text.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetTierStats {
    /// Connections accepted since bind.
    pub accepted: u64,
    /// Requests rejected with `Overloaded` (quota or full queue).
    pub rejected_overload: u64,
    /// Connections evicted for not draining their responses.
    pub evicted_slow: u64,
    /// Payload bytes read off sockets.
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
    /// Requests currently queued for the worker pool.
    pub queue_depth: u64,
    /// High-water mark of the dispatch queue depth.
    pub queue_depth_high_water: u64,
    /// Fatal listener errors (the acceptor stopped; connections live on).
    pub acceptor_fatal: u64,
    /// Connections that ended with a protocol or transport fault.
    pub connections_failed: u64,
    /// Answers to admitted requests — written by the worker that executed
    /// the request, or by the event loop for a result-cache hit — after
    /// which nothing was left on the connection for `POLLOUT` to write.
    pub responses_direct: u64,
    /// Answers to admitted requests, whoever wrote them, after which the
    /// socket would not take the whole backlog: the rest waits for the
    /// poller's `POLLOUT`.
    pub responses_deferred: u64,
    /// Requests the event loop answered from the result cache itself,
    /// with no worker hand-off (each also counts as a server cache hit).
    pub answered_on_loop: u64,
    /// Returns of the poller's `poll(2)` with at least one ready
    /// descriptor (idle ticks are not counted).
    pub poller_wakeups: u64,
}

impl NetStats {
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
            answered_on_loop: self.answered_on_loop.load(Ordering::Relaxed),
            poller_wakeups: self.poller_wakeups.load(Ordering::Relaxed),
        }
    }
}

/// State shared between the poller, the workers and the [`NetServer`]
/// handle.  The connection table is *not* here: the poller thread owns it
/// exclusively; a connection's write half ([`ConnOut`]) travels with its
/// jobs instead.
struct Shared {
    server: Arc<QueryServer>,
    /// Set once by shutdown; checked by the poller and the workers.
    stop: AtomicBool,
    /// Latched when a *mutating* request (ingest, feedback) panicked
    /// mid-dispatch: the write may be half-applied (locks here do not
    /// poison), so the server refuses all further work rather than serve
    /// possibly corrupt state.
    poisoned: AtomicBool,
    stats: NetStats,
}

/// One request frame on its way to the worker pool.
struct Job {
    /// The connection to answer: the worker writes the response itself.
    conn: Arc<ConnIo>,
    /// Per-connection sequence number; responses leave in this order so
    /// pipelined clients see the blocking server's ordering.
    seq: u64,
    work: Work,
}

/// What a worker gets to answer.
enum Work {
    /// A frame payload the event loop did not decode: every kind but the
    /// four cache-keyed reads, and a read payload that does not decode.
    Raw(Vec<u8>),
    /// A cache-keyed read the result cache did not hold: decoded and
    /// fingerprinted once, on the event loop (boxed: a queued job stays a
    /// few words).
    Read(Box<eq_proto::Request>, Option<u64>),
}

impl Work {
    /// The request id an admission refusal answers under.
    fn request_id(&self) -> u64 {
        match self {
            Work::Raw(payload) => peek_request_id(payload),
            Work::Read(request, _) => request.id,
        }
    }
}

/// The bounded poller→worker hand-off.  One mutex and one condition
/// variable: a push wakes exactly one parked worker (`notify_one`), where a
/// `Mutex<mpsc::Receiver>` woke the worker in `recv` *and* the next one
/// queued on the mutex.  The bound is the backpressure boundary: when the
/// queue is full the poller rejects with `Overloaded` instead of queueing
/// unboundedly, so a request flood cannot exhaust memory.
struct JobQueue {
    capacity: usize,
    queue: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// The poller is gone: workers drain what is queued and stop.
    closed: bool,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            queue: Mutex::with_name(
                QueueState { jobs: VecDeque::new(), closed: false },
                "job-queue",
            ),
            ready: Condvar::new(),
        }
    }

    /// Queues a job, or hands it back when the queue is full.
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut state = self.queue.lock();
        if state.jobs.len() >= self.capacity {
            return Err(job);
        }
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed and empty.
    fn pop(&self) -> Option<Job> {
        let mut state = self.queue.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            self.ready.wait(&mut state);
        }
    }

    fn close(&self) {
        self.queue.lock().closed = true;
        self.ready.notify_all();
    }
}

/// A response waiting in a connection's reorder buffer.
struct PendingResponse {
    frame: Vec<u8>,
    fatal: bool,
}

/// A finished response frame for [`ConnIo::advance`] to file.
struct Done {
    seq: u64,
    /// The fully framed response bytes, ready for the socket.
    frame: Vec<u8>,
    /// The connection must close after this frame (a protocol fault).
    fatal: bool,
    /// The frame answers an admitted request: release its quota slot.
    retire: bool,
}

/// What the poller and the workers share of one connection: the socket
/// and, behind the `conn-out` lock, its write half.  The poller reads the
/// socket without any lock.
struct ConnIo {
    stream: TcpStream,
    conn_out: Mutex<ConnOut>,
}

/// A connection's write half: the reorder buffer, the unsent bytes and the
/// admission quota.
struct ConnOut {
    /// Unsent response bytes; `outpos` marks the consumed prefix.
    outbuf: Vec<u8>,
    outpos: usize,
    /// Sequence number whose response goes out next.
    next_to_send: u64,
    /// Out-of-order completions waiting for `next_to_send` to catch up.
    pending: BTreeMap<u64, PendingResponse>,
    /// Requests of this connection currently at the dispatch tier: taken
    /// at admission, released when the answer is filed.
    inflight: usize,
    /// A fatal frame was released: nothing may follow it.
    fatal: bool,
    /// The write side errored or the connection was closed: frames filed
    /// from here on are dropped.
    write_dead: bool,
    /// When the current backlog began, or last shrank.
    last_write_progress: Instant,
}

impl ConnOut {
    fn new() -> Self {
        Self {
            outbuf: Vec::new(),
            outpos: 0,
            next_to_send: 0,
            pending: BTreeMap::new(),
            inflight: 0,
            fatal: false,
            write_dead: false,
            last_write_progress: Instant::now(),
        }
    }

    fn has_backlog(&self) -> bool {
        self.outpos < self.outbuf.len()
    }

    /// Response bytes the connection holds: the unsent output and the
    /// frames in the reorder buffer, waiting behind a slower request.
    fn buffered_bytes(&self) -> usize {
        let pending: usize = self.pending.values().map(|p| p.frame.len()).sum();
        self.outbuf.len() - self.outpos + pending
    }

    /// The sweep's eviction test: the unsent output made no progress for
    /// `write_timeout`, or the connection holds more than
    /// `write_buffer_cap` bytes of answers, unsent or waiting their turn.
    fn should_evict(&self, now: Instant, write_timeout: Duration, write_buffer_cap: usize) -> bool {
        let stalled =
            self.has_backlog() && now.duration_since(self.last_write_progress) >= write_timeout;
        stalled || self.buffered_bytes() > write_buffer_cap
    }

    /// Files a finished frame at its slot and releases every frame that is
    /// next in the connection's order into the output buffer.  A fatal
    /// frame is the last: later slots are dropped.
    fn file(&mut self, seq: u64, frame: Vec<u8>, fatal: bool) {
        if self.fatal || self.write_dead {
            return;
        }
        if seq != self.next_to_send {
            self.pending.insert(seq, PendingResponse { frame, fatal });
            return;
        }
        self.release(frame, fatal);
        while !self.fatal {
            let Some(next) = self.pending.remove(&self.next_to_send) else { break };
            self.release(next.frame, next.fatal);
        }
    }

    fn release(&mut self, frame: Vec<u8>, fatal: bool) {
        if self.has_backlog() {
            self.outbuf.extend_from_slice(&frame);
        } else {
            // The common case: the frame becomes the output buffer, no copy.
            self.last_write_progress = Instant::now();
            self.outbuf = frame;
            self.outpos = 0;
        }
        self.next_to_send += 1;
        if fatal {
            self.fatal = true;
            self.pending.clear();
        }
    }
}

impl ConnIo {
    fn new(stream: TcpStream) -> Self {
        Self { stream, conn_out: Mutex::with_name(ConnOut::new(), "conn-out") }
    }

    /// Takes one slot of the connection's in-flight quota, if there is one.
    fn admit(&self, quota: usize) -> bool {
        let mut out = self.conn_out.lock();
        let admitted = out.inflight < quota;
        if admitted {
            out.inflight += 1;
        }
        admitted
    }

    /// The one way bytes reach a peer: files the `done` frames at their
    /// slots, then writes as much of the in-order backlog as the socket
    /// accepts right now.  Workers call it with their answer, the poller
    /// with its own frames (a burst's rejections, a fault frame) and,
    /// frameless, on `POLLOUT`.
    /// The socket is non-blocking, so nobody ever parks on a peer: the
    /// return value says whether unsent bytes remain, which only the
    /// poller's `POLLOUT` (or the eviction sweep) can deal with.
    fn advance(&self, stats: &NetStats, done: impl IntoIterator<Item = Done>) -> bool {
        let mut out = self.conn_out.lock();
        for done in done {
            if done.retire {
                out.inflight = out.inflight.saturating_sub(1);
            }
            out.file(done.seq, done.frame, done.fatal);
        }
        while out.has_backlog() && !out.write_dead {
            // Counted before the write, the unwritten part taken back after
            // it: the write can wake the peer before this thread runs on,
            // and a peer holding a reply must find its bytes in `bytes_out`.
            let unsent = out.outbuf.len() - out.outpos;
            stats.bytes_out.fetch_add(unsent as u64, Ordering::Relaxed);
            // lint:allow(lock) a non-blocking socket: the write returns WouldBlock instead of waiting, and the guard is what keeps two writers from interleaving frames
            let written = (&self.stream).write(&out.outbuf[out.outpos..]);
            let unwritten = unsent - written.as_ref().map_or(0, |&n| n);
            if unwritten > 0 {
                stats.bytes_out.fetch_sub(unwritten as u64, Ordering::Relaxed);
            }
            match written {
                Ok(0) => out.write_dead = true,
                Ok(n) => {
                    out.outpos += n;
                    if out.has_backlog() {
                        out.last_write_progress = Instant::now();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => out.write_dead = true,
            }
        }
        if !out.has_backlog() {
            out.outbuf.clear();
            out.outpos = 0;
        } else if out.outpos > OUTBUF_COMPACT {
            let sent = out.outpos;
            out.outbuf.drain(..sent);
            out.outpos = 0;
        }
        out.has_backlog() && !out.write_dead
    }
}

/// The poller's per-connection state; the write half lives in `io`.
struct Conn {
    io: Arc<ConnIo>,
    decoder: eq_wire::frame::FrameDecoder,
    /// Sequence number assigned to the next decoded request.
    next_seq: u64,
    /// Peer closed its write half (clean EOF observed).
    read_closed: bool,
    /// This connection was counted in `connections_failed`.
    failed: bool,
    /// Stop reading; close once the output backlog drains.
    closing: bool,
    /// The poller's last view of "there is a backlog to drain": refreshed
    /// by its own `advance` calls and by every sweep (a worker that leaves
    /// a backlog wakes the poller, and a wake-up sweeps).
    want_out: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            io: Arc::new(ConnIo::new(stream)),
            decoder: eq_wire::frame::FrameDecoder::new(
                eq_proto::REQUEST_MAGIC,
                eq_proto::MAX_FRAME_LEN,
            ),
            next_seq: 0,
            read_closed: false,
            failed: false,
            closing: false,
            want_out: false,
        }
    }
}

/// The poll-interest mask for one connection: read while the connection
/// is live, write only while there is a backlog to drain.
fn want_events(conn: &Conn) -> i16 {
    let mut events = 0;
    if !conn.closing && !conn.read_closed {
        events |= polling::POLLIN;
    }
    if conn.want_out {
        events |= polling::POLLOUT;
    }
    events
}

/// Reads the request id out of raw frame-payload bytes (version `u16`,
/// then id `u64`, little-endian) without a full decode — admission-control
/// rejections need the id for the error frame before any worker sees the
/// payload.  Returns 0 (the reserved "unknown request" id) for payloads
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

/// The poll-loop tick: how often the eviction sweep runs when nothing
/// else asks for one, and the fallback wake-up should a wake byte ever be
/// lost.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Consumed-prefix threshold past which a connection's output buffer is
/// compacted instead of growing unboundedly.
const OUTBUF_COMPACT: usize = 64 * 1024;

/// The event loop: owns the listener, the wake pipe's read end and the
/// whole connection table; runs on the dedicated poller thread.  Dropping
/// it (return or unwind) closes the job queue, which is what stops the
/// workers.
struct EventLoop {
    shared: Arc<Shared>,
    config: NetConfig,
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    queue: Arc<JobQueue>,
    conns: HashMap<u64, Conn>,
    next_conn_id: u64,
    /// Reused poll set and its parallel connection-id map.
    fds: Vec<polling::PollFd>,
    fd_conns: Vec<u64>,
    readbuf: Vec<u8>,
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        self.queue.close();
    }
}

impl EventLoop {
    fn run(mut self) {
        self.readbuf.resize(64 * 1024, 0);
        let mut next_sweep = Instant::now() + POLL_TICK;
        while !self.shared.stop.load(Ordering::SeqCst) {
            self.build_poll_set();
            match polling::poll_fds(&mut self.fds, POLL_TICK.as_millis() as i32) {
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
            // A request that is read, admitted and answered by a worker
            // changes no connection's lifecycle, so the steady state never
            // sweeps outside the tick.  A wake byte (a worker left a
            // backlog or sent a fatal frame), a POLLOUT drain and an EOF or
            // fault all can, and ask for a sweep right away.
            let mut sweep_due = false;
            if self.fds[0].readable_or_closed() {
                self.drain_wake();
                sweep_due = true;
            }
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
                let id = self.fd_conns[i - conn_base];
                if fd.has(polling::POLLOUT) {
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.want_out = conn.io.advance(&self.shared.stats, None);
                        sweep_due = true;
                    }
                }
                if fd.readable_or_closed() {
                    sweep_due |= self.read_ready(id);
                }
            }
            let now = Instant::now();
            if sweep_due || now >= next_sweep {
                self.sweep(now);
                next_sweep = now + POLL_TICK;
            }
        }
        // Shutdown: close every socket so blocked clients observe EOF.
        for (_, conn) in self.conns.drain() {
            let _ = conn.io.stream.shutdown(Shutdown::Both);
        }
    }

    fn build_poll_set(&mut self) {
        self.fds.clear();
        self.fd_conns.clear();
        self.fds.push(polling::PollFd::new(self.wake_rx.as_raw_fd(), polling::POLLIN));
        if let Some(listener) = &self.listener {
            self.fds.push(polling::PollFd::new(listener.as_raw_fd(), polling::POLLIN));
        }
        for (&id, conn) in &self.conns {
            self.fds.push(polling::PollFd::new(conn.io.stream.as_raw_fd(), want_events(conn)));
            self.fd_conns.push(id);
        }
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

    /// Accepts a bounded burst of pending connections.  Transient errors
    /// are skipped; a fatal listener error stops the acceptor for good
    /// (existing connections keep being served) and is surfaced through
    /// the `acceptor_fatal` counter — retrying a broken listener forever
    /// would turn the event loop into a busy spin.
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
                    let id = self.next_conn_id;
                    self.next_conn_id += 1;
                    self.conns.insert(id, Conn::new(stream));
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

    /// Drains a readable connection: reads a bounded burst, feeds the
    /// frame decoder, and admits every completed request frame.  Returns
    /// whether the connection stopped reading (EOF or fault) and so may be
    /// ready to close.
    fn read_ready(&mut self, conn_id: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&conn_id) else { return false };
        if conn.closing {
            return false;
        }
        // Bound the burst so one firehose connection cannot starve the
        // rest of the poll set; level-triggered poll re-signals leftovers.
        for _ in 0..16 {
            match (&conn.io.stream).read(&mut self.readbuf) {
                Ok(0) => {
                    conn.read_closed = true;
                    if conn.decoder.has_partial_frame() {
                        // Torn frame: the peer died mid-request.
                        fault_conn(&self.shared.stats, conn, "connection closed mid-frame");
                    }
                    break;
                }
                Ok(n) => {
                    self.shared.stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                    conn.decoder.extend(&self.readbuf[..n]);
                    pump_decoder(&self.shared, &self.config, &self.queue, conn);
                    if conn.closing || n < self.readbuf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transport fault (reset mid-stream): count and close.
                    conn.read_closed = true;
                    fault_conn(&self.shared.stats, conn, "transport error reading the connection");
                    break;
                }
            }
        }
        conn.closing || conn.read_closed
    }

    /// Evicts connections that stopped draining their responses, closes
    /// connections that finished (cleanly or after a fault), and refreshes
    /// the poller's view of who has a backlog.
    fn sweep(&mut self, now: Instant) {
        let stats = &self.shared.stats;
        let config = &self.config;
        self.conns.retain(|_, conn| {
            let mut out = conn.io.conn_out.lock();
            if out.fatal && !conn.closing {
                // A worker found the payload undecodable: a protocol fault.
                mark_failed(stats, &mut conn.failed);
                conn.closing = true;
            }
            let close = if out.write_dead {
                true
            } else if out.should_evict(now, config.write_timeout, config.write_buffer_cap) {
                stats.evicted_slow.fetch_add(1, Ordering::Relaxed);
                true
            } else if out.has_backlog() {
                false
            } else {
                let drained = out.pending.is_empty() && out.inflight == 0;
                (conn.closing || conn.read_closed) && drained
            };
            if close {
                // Answers still in flight for this connection are dropped
                // when their workers file them.
                out.write_dead = true;
                out.pending.clear();
                out.outbuf = Vec::new();
                out.outpos = 0;
                let _ = conn.io.stream.shutdown(Shutdown::Both);
                return false;
            }
            conn.want_out = out.has_backlog();
            true
        });
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

/// Fails a connection on a protocol or transport fault: counts it, queues
/// a best-effort `BadRequest` error frame at the connection's next
/// response slot (so responses to earlier pipelined requests still go out
/// first), and stops reading.
fn fault_conn(stats: &NetStats, conn: &mut Conn, message: &str) {
    mark_failed(stats, &mut conn.failed);
    conn.closing = true;
    let response = error_response(0, eq_proto::ErrorCode::BadRequest, message);
    let seq = conn.next_seq;
    conn.next_seq += 1;
    let done = Done { seq, frame: encode_response_frame(&response), fatal: true, retire: false };
    conn.want_out = conn.io.advance(stats, Some(done));
}

/// Decodes every complete frame buffered on the connection and runs
/// admission control on each: poisoned server → typed internal error;
/// over quota or full queue → typed `Overloaded`.  An admitted read of one
/// of the four cache-keyed kinds is decoded here and, when the result cache
/// holds its answer, answered here ([`answer_on_loop`]); every other
/// request, and a read the cache missed, goes to the worker pool.  The
/// refusals and cache answers of one burst are filed together and leave in
/// one write, so a flood costs the poller one `write(2)` per read, not one
/// per request.
fn pump_decoder(shared: &Shared, config: &NetConfig, queue: &JobQueue, conn: &mut Conn) {
    let stats = &shared.stats;
    let mut filed = Vec::new();
    let mut answered = 0u64;
    while !conn.closing {
        match conn.decoder.next_frame() {
            Ok(Some(payload)) => {
                let seq = conn.next_seq;
                conn.next_seq += 1;
                if shared.poisoned.load(Ordering::SeqCst) {
                    let response = poisoned_response(peek_request_id(&payload));
                    let frame = encode_response_frame(&response);
                    filed.push(Done { seq, frame, fatal: false, retire: false });
                    continue;
                }
                if !conn.io.admit(config.max_inflight_per_conn) {
                    let message = format!(
                        "per-connection in-flight quota of {} exceeded; \
                         read responses before sending more requests",
                        config.max_inflight_per_conn
                    );
                    let id = peek_request_id(&payload);
                    filed.push(overloaded(stats, seq, id, &message, false));
                    continue;
                }
                let work = if eq_proto::is_query_payload(&payload) {
                    match answer_on_loop(shared, payload) {
                        Ok(frame) => {
                            filed.push(Done { seq, frame, fatal: false, retire: true });
                            answered += 1;
                            continue;
                        }
                        Err(work) => work,
                    }
                } else {
                    Work::Raw(payload)
                };
                // Count the queue slot *before* the push: the worker's
                // decrement happens-after its pop, so the depth gauge can
                // never underflow.
                let depth = stats.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
                stats.queue_depth_hwm.fetch_max(depth, Ordering::Relaxed);
                if let Err(job) = queue.try_push(Job { conn: Arc::clone(&conn.io), seq, work }) {
                    stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    let message = "the server's request queue is full; retry later";
                    filed.push(overloaded(stats, seq, job.work.request_id(), message, true));
                }
            }
            Ok(None) => break,
            // The decoder state is unspecified after an error: fault the
            // connection (which ends this loop) and never feed it again.
            Err(e) => fault_conn(stats, conn, &format!("malformed frame: {e}")),
        }
    }
    if !filed.is_empty() {
        conn.want_out = conn.io.advance(stats, filed);
        if answered > 0 {
            let counter =
                if conn.want_out { &stats.responses_deferred } else { &stats.responses_direct };
            counter.fetch_add(answered, Ordering::Relaxed);
        }
    }
}

/// The event loop's turn at an admitted read of a cache-keyed kind: decode
/// it, fingerprint it and probe the result cache.  A hit is the complete
/// response frame, for the caller to file at the request's own slot; a miss
/// goes to a worker decoded and fingerprinted, and a payload that does not
/// decode goes to a worker raw, whose decode answers it with the protocol
/// fault's fatal frame.  A panic here (a bug the decoder's checks missed)
/// is the request's internal error, as on a worker: a read mutated nothing,
/// and the poller lives on.
fn answer_on_loop(shared: &Shared, payload: Vec<u8>) -> Result<Vec<u8>, Work> {
    let server = &shared.server;
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let request = eq_proto::Request::decode(&payload).ok()?;
        let fingerprint = server.cache_fingerprint(&request.body);
        Some(match fingerprint.and_then(|fp| server.cached_frame(&request, fp)) {
            Some(frame) => Ok(frame),
            None => Err((request, fingerprint)),
        })
    }));
    match attempt {
        Ok(Some(Ok(frame))) => {
            // Counted before the write, like the server's hit: a peer
            // holding the answer finds it counted.
            shared.stats.answered_on_loop.fetch_add(1, Ordering::Relaxed);
            Ok(frame)
        }
        Ok(Some(Err((request, fingerprint)))) => Err(Work::Read(Box::new(request), fingerprint)),
        Ok(None) => Err(Work::Raw(payload)),
        Err(_) => {
            let message = "internal panic while serving the request";
            let response =
                error_response(peek_request_id(&payload), eq_proto::ErrorCode::Internal, message);
            Ok(encode_response_frame(&response))
        }
    }
}

/// A typed `Overloaded` rejection for a request's response slot — the
/// client gets a definite answer instead of a stalled connection.
/// `retire` gives back the quota slot of a request that was admitted and
/// then found the queue full.
fn overloaded(stats: &NetStats, seq: u64, id: u64, message: &str, retire: bool) -> Done {
    stats.rejected_overload.fetch_add(1, Ordering::Relaxed);
    let response = error_response(id, eq_proto::ErrorCode::Overloaded, message);
    Done { seq, frame: encode_response_frame(&response), fatal: false, retire }
}

/// Encodes a response as complete frame bytes, in place behind the frame
/// header.  A response over the frame cap is a *request* problem (result
/// set bigger than any reader accepts), not a dead connection: it is
/// replaced by a typed error under the same id, so the connection keeps
/// being served.
fn encode_response_frame(response: &eq_proto::Response) -> Vec<u8> {
    let mut frame = Vec::new();
    match eq_proto::frame_response(&mut frame, response) {
        Ok(()) => frame,
        Err(e) => unsendable(response.id, &e),
    }
}

/// [`encode_response_frame`] for a server reply: a body already encoded
/// (a result-cache entry) is framed behind a fresh envelope, not decoded.
fn encode_reply_frame(id: u64, reply: Reply) -> Vec<u8> {
    match reply {
        Reply::Body(body) => encode_response_frame(&eq_proto::Response { id, body }),
        Reply::Encoded(bytes) => {
            let mut frame = Vec::new();
            match eq_proto::frame_encoded_response(&mut frame, id, &bytes) {
                Ok(()) => frame,
                Err(e) => unsendable(id, &e),
            }
        }
    }
}

/// The typed error frame that replaces a response over the frame cap.
fn unsendable(id: u64, e: &eq_proto::ProtoError) -> Vec<u8> {
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

/// The worker-pool thread body: take jobs, execute them against the
/// shared [`QueryServer`], and write the framed response to the
/// connection.  The poller is woken only when it has something to do: a
/// backlog the socket would not take, or a faulted connection to close (a
/// write side that died is found by the next tick's sweep).
fn worker_loop(shared: Arc<Shared>, queue: Arc<JobQueue>, wake: UnixStream) {
    let stats = &shared.stats;
    while let Some(job) = queue.pop() {
        stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
        if shared.stop.load(Ordering::SeqCst) {
            continue; // draining during shutdown: drop unserved
        }
        let (frame, fatal) = process_job(&shared, job.work);
        let done = Done { seq: job.seq, frame, fatal, retire: true };
        let backlog = job.conn.advance(stats, Some(done));
        let counter = if backlog { &stats.responses_deferred } else { &stats.responses_direct };
        counter.fetch_add(1, Ordering::Relaxed);
        if backlog || fatal {
            // Nonblocking one-byte wake; a full pipe already wakes the
            // poller, so a WouldBlock here loses nothing.
            let _ = (&wake).write(&[1]);
        }
    }
}

/// Decodes (unless the event loop did) and dispatches one request,
/// isolating panics.
///
/// A panic provoked by one connection's input (a bug this layer's input
/// validation missed) fails that request instead of killing the pool
/// worker — otherwise a hostile client could drain the whole pool one
/// panic at a time.
fn process_job(shared: &Shared, work: Work) -> (Vec<u8>, bool) {
    let (request, fingerprint) = match work {
        Work::Read(request, fingerprint) => (*request, fingerprint),
        Work::Raw(payload) => match eq_proto::Request::decode(&payload) {
            Ok(request) => (request, None),
            Err(e) => {
                // The frame was well-formed but the payload is not a request
                // (wrong version, unknown tag, corrupt fields): a protocol
                // fault — best-effort error frame under id 0, then close.
                let message = format!("malformed request: {e}");
                let response = error_response(0, eq_proto::ErrorCode::BadRequest, &message);
                return (encode_response_frame(&response), true);
            }
        },
    };
    let id = request.id;
    if shared.poisoned.load(Ordering::SeqCst) {
        return (encode_response_frame(&poisoned_response(id)), false);
    }
    // The one kind that reads this tier's counters is answered here;
    // every other goes to the server's one request entry.
    let reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &request.body {
        RequestBody::MetricsText => Reply::Body(ResponseBody::MetricsText(render_metrics(
            &shared.server.stats(),
            &shared.stats.snapshot(),
        ))),
        body => shared.server.respond(body, fingerprint),
    }));
    match reply {
        Ok(reply) => (encode_reply_frame(id, reply), false),
        Err(_) => {
            // A panic in a *read-only* request mutated nothing (the
            // engine read path takes only shared locks); report it
            // and keep serving.  A panic in a mutating request may
            // have left a half-applied write behind — these locks
            // do not poison — so latch the server-wide poison flag:
            // wrong answers forever are worse than refusing work.
            let response = if request.body.is_write() {
                shared.poisoned.store(true, Ordering::SeqCst);
                poisoned_response(id)
            } else {
                let message = "internal panic while serving the request";
                error_response(id, eq_proto::ErrorCode::Internal, message)
            };
            (encode_response_frame(&response), false)
        }
    }
}

/// The TCP serving tier: an event-loop poller thread multiplexing every
/// connection, plus a bounded worker pool dispatching `eq_proto` requests
/// onto a shared [`QueryServer`].
///
/// Dropping the server performs the same graceful shutdown as
/// [`shutdown`](Self::shutdown).
pub struct NetServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    /// Write end of the poller's wake pipe (shutdown signalling).
    wake: UnixStream,
    poller: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Binds a listener and starts serving `server` on a pool of
    /// `workers` threads (at least one), with every other knob at its
    /// [`NetConfig`] default.
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
    /// Fails with [`EarthQubeError::Net`] if the address cannot be bound
    /// or the event loop's wake pipe cannot be created.
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
        let (wake_tx, wake_rx) =
            UnixStream::pair().map_err(|e| net_err("creating the wake pipe", e))?;
        wake_rx
            .set_nonblocking(true)
            .map_err(|e| net_err("switching the wake pipe to nonblocking", e))?;
        let _ = wake_tx.set_nonblocking(true);

        let shared = Arc::new(Shared {
            server,
            stop: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            stats: NetStats::default(),
        });
        let pool = config.workers.max(1);
        let queue = Arc::new(JobQueue::new(config.queue_capacity.max(1)));
        // Built before the workers: should spawning one fail, dropping the
        // loop closes the queue and the workers already running stop.
        let event_loop = EventLoop {
            shared: Arc::clone(&shared),
            config,
            listener: Some(listener),
            wake_rx,
            queue: Arc::clone(&queue),
            conns: HashMap::new(),
            next_conn_id: 0,
            fds: Vec::new(),
            fd_conns: Vec::new(),
            readbuf: Vec::new(),
        };
        let workers = (0..pool)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let queue = Arc::clone(&queue);
                let wake = wake_tx
                    .try_clone()
                    .map_err(|e| net_err("cloning the wake pipe for a worker", e))?;
                Ok(std::thread::spawn(move || worker_loop(shared, queue, wake)))
            })
            .collect::<Result<Vec<_>, EarthQubeError>>()?;
        let poller = std::thread::spawn(move || event_loop.run());

        Ok(Self { shared, addr, wake: wake_tx, poller: Some(poller), workers })
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

    /// Gracefully shuts down: stops the poller (closing the listener and
    /// every live connection) and joins every serving thread.  In-flight
    /// requests that already reached dispatch complete; their connections
    /// are then closed.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return; // already shut down
        }
        // Wake the poller; if the pipe write fails the poll tick still
        // observes the stop flag within one interval.
        let _ = (&self.wake).write(&[1]);
        if let Some(handle) = self.poller.take() {
            let _ = handle.join();
        }
        // The poller closed the job queue on exit; workers drain it
        // (dropping unserved jobs now that the stop flag is set) and stop.
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // With every serving thread joined, no more writes can arrive:
        // stop the background checkpointer and flush whatever the last
        // requests dirtied, so a graceful shutdown never loses the final
        // WAL-only state to a subsequent unclean stop.  Best-effort — a
        // flush failure leaves the WAL segments, which recovery replays.
        self.shared.server.stop_checkpointer();
        let _ = self.shared.server.checkpoint_if_dirty();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Renders the serving counters and the network-tier counters as
/// Prometheus-style scrape text (one `name value` line per counter,
/// index occupancy with a `shard` label, one series for the one arena).
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
    for (shard, occupancy) in stats.shard_occupancy.iter().enumerate() {
        let _ = writeln!(out, "eq_shard_occupancy{{shard=\"{shard}\"}} {occupancy}");
    }
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
    let _ = writeln!(out, "eq_net_answered_on_loop_total {}", net.answered_on_loop);
    let _ = writeln!(out, "eq_net_poller_wakeups_total {}", net.poller_wakeups);
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

    /// Fetches the server's replication role and durable WAL position —
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

    /// Fetches the raw bytes of the server's published manifest, for
    /// snapshot seeding.
    ///
    /// # Errors
    /// Propagates the server-side error, or [`EarthQubeError::Net`].
    pub fn repl_manifest(&mut self) -> Result<Vec<u8>, EarthQubeError> {
        match self.call(&RequestBody::ReplManifest)? {
            ResponseBody::ReplManifest { bytes } => Ok(bytes),
            other => Err(unexpected(other, "repl_manifest")),
        }
    }

    /// Fetches one slice of a checkpoint chunk file: `(total file length,
    /// bytes at `offset`)`.  The server caps the slice length, so loop
    /// until the accumulated bytes reach the total.
    ///
    /// # Errors
    /// Propagates the server-side error, or [`EarthQubeError::Net`].
    pub fn repl_chunk(
        &mut self,
        file: &str,
        offset: u64,
        max_bytes: u64,
    ) -> Result<(u64, Vec<u8>), EarthQubeError> {
        let body =
            self.call(&RequestBody::ReplChunk { file: file.to_string(), offset, max_bytes })?;
        match body {
            ResponseBody::ReplChunk(payload) => Ok((payload.total_len, payload.bytes)),
            other => Err(unexpected(other, "repl_chunk")),
        }
    }

    /// Pulls WAL records at and after `(generation, segment, offset)` —
    /// the replication transport primitive [`crate::replicate::Replica`]
    /// is built on.
    ///
    /// # Errors
    /// Propagates the server-side error, or [`EarthQubeError::Net`].
    pub fn repl_pull(
        &mut self,
        replica_id: u64,
        generation: u32,
        segment: u32,
        offset: u64,
        max_bytes: u64,
    ) -> Result<ReplBatch, EarthQubeError> {
        let body = self.call(&RequestBody::ReplPull {
            replica_id,
            generation,
            segment,
            offset,
            max_bytes,
        })?;
        match body {
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

/// A client keeps its frame buffer across requests only up to this
/// capacity.
const FRAME_BUF_KEEP: usize = 1 << 20;

/// Builds one request frame in `frame` (cleared first) and sends it with
/// one `write_all`: header and payload leave in one `write(2)`, so the
/// server's poller wakes once per request and never decodes half a frame.
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
        net.shutdown(); // joins acceptor and workers; kicks the client
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
    /// engine's unconditional band indexing — and the worker must keep
    /// serving.  Guards the panic-drain hole: one hostile frame per
    /// worker would otherwise kill the whole pool.
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

        // The same connection — hence the same pool worker — still serves.
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
        for (shard, &occupancy) in stats.shard_occupancy.iter().enumerate() {
            let label = format!("eq_shard_occupancy{{shard=\"{shard}\"}}");
            assert_eq!(metric(&label), occupancy as u64);
        }
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

    /// After one miss (answered by a worker, the only job ever queued),
    /// every repeat of the request on the connection is answered by the
    /// event loop from the result cache: counted as a loop answer and a
    /// server cache hit, rendered by the metrics text, and never queued.
    #[test]
    fn repeats_of_a_cached_read_are_answered_on_the_event_loop() {
        let (net, server, archive) = served(20, 309);
        let mut client = EqClient::connect(net.local_addr()).unwrap();
        let request = RequestBody::SimilarTo { name: archive.patches()[3].meta.name.clone(), k: 5 };
        let first = client.call(&request).unwrap();
        assert_eq!(net.net_stats().answered_on_loop, 0, "the first call is a miss");
        const N: u64 = 25;
        for _ in 0..N {
            assert_eq!(client.call(&request).unwrap(), first);
        }
        let stats = net.net_stats();
        assert_eq!(stats.answered_on_loop, N);
        assert_eq!(stats.queue_depth_high_water, 1, "no repeat reached the job queue");
        assert_eq!((server.stats().cache_hits, server.stats().cache_misses), (N, 1));

        // Every answer counts once as direct or deferred, whoever wrote it
        // (a worker counts its own after the write, so wait for the miss's).
        let deadline = Instant::now() + Duration::from_secs(10);
        let answers = |s: &NetTierStats| s.responses_direct + s.responses_deferred;
        while answers(&net.net_stats()) < N + 1 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(answers(&net.net_stats()), N + 1);

        let text = client.metrics_text().unwrap();
        assert!(text.contains(&format!("eq_net_answered_on_loop_total {N}\n")), "{text}");
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
        assert_eq!((net.net_stats().answered_on_loop, net.net_stats().rejected_overload), (0, 1));
        net.shutdown();

        // A poisoned server answers nothing from its cache either.
        let net = NetServer::bind(Arc::clone(&server), "127.0.0.1:0", 1).unwrap();
        let mut client = EqClient::connect(net.local_addr()).unwrap();
        assert_eq!(client.call(&request).unwrap(), cached);
        assert_eq!(net.net_stats().answered_on_loop, 1);
        net.shared.poisoned.store(true, Ordering::SeqCst);
        let refused = client.call(&request).unwrap();
        assert_eq!(error_code(refused), Some(eq_proto::ErrorCode::Internal));
        assert_eq!(net.net_stats().answered_on_loop, 1);
        net.shutdown();
    }

    /// A frame whose payload carries a query kind's tag but does not
    /// decode is a protocol fault, answered as it was before the event
    /// loop decoded queries: the answers to the requests ahead of it (here
    /// a loop hit and a worker's miss), then the fatal `BadRequest` frame
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
        assert!(eq_proto::is_query_payload(&bad));
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

        let mut rest = &bytes[..];
        for (id, body) in [(1, &cached), (2, &miss)] {
            let response = eq_proto::read_response(&mut rest).unwrap().unwrap();
            assert_eq!(response, eq_proto::Response { id, body: server.call(body) });
        }
        assert_eq!(rest, &fatal[..], "the fatal frame, byte for byte, and nothing after it");
        assert_eq!(net.net_stats().answered_on_loop, 1);
        let deadline = Instant::now() + Duration::from_secs(10);
        while net.connections_failed() == 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(net.connections_failed(), 1);
        net.shutdown();
    }

    /// The sweep's eviction test sees every byte of answers a connection
    /// holds: the frames waiting in the reorder buffer behind a slower
    /// request count toward the buffer cap, though only unsent output that
    /// makes no progress counts as stalled.
    #[test]
    fn eviction_counts_the_frames_waiting_in_the_reorder_buffer() {
        let mut out = ConnOut::new();
        let now = out.last_write_progress;
        let timeout = Duration::from_secs(30);
        // Slot 0 is still at a worker; slots 1 and 2 wait behind it.
        out.file(1, vec![0; 600], false);
        out.file(2, vec![0; 500], false);
        assert!(!out.has_backlog());
        assert_eq!(out.buffered_bytes(), 1_100);
        assert!(out.should_evict(now, timeout, 1_099));
        assert!(!out.should_evict(now, timeout, 1_100));
        // Waiting behind a slow request is no stall, however long it lasts.
        assert!(!out.should_evict(now + 2 * timeout, timeout, 1_100));

        // Slot 0 arrives: all three are released, in order, to be sent.
        out.file(0, vec![0; 100], false);
        assert!(out.pending.is_empty());
        assert_eq!((out.next_to_send, out.buffered_bytes()), (3, 1_200));
        assert!(out.should_evict(now, timeout, 1_199));
        let since = out.last_write_progress;
        assert!(!out.should_evict(since + timeout - Duration::from_millis(1), timeout, 1_200));
        assert!(out.should_evict(since + timeout, timeout, 1_200), "stalled output");
        // Bytes already sent no longer count.
        out.outpos = 1_000;
        assert_eq!(out.buffered_bytes(), 200);
        assert!(!out.should_evict(since, timeout, 200));
    }

    #[test]
    fn owned_responses_move_their_rows_onto_the_wire() {
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(12, 305)).unwrap().generate();
        let mut config = EarthQubeConfig::fast(305);
        config.train_model = false;
        let server = QueryServer::build(&archive, config, ServeConfig::default()).unwrap();
        let response = server.search(&ImageQuery::all()).unwrap();
        let copied = response_to_payload(&response);
        let name = response.panel.entries()[0].name.as_ptr();
        let moved = search_payload(response);
        assert_eq!(moved.rows[0].name.as_ptr(), name, "the row was copied, not moved");
        assert_eq!(moved, copied);
    }
}
