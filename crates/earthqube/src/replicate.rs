//! Replication & failover: read replicas over the `eq_proto` wire.
//!
//! One **primary** [`QueryServer`] streams its records to N replicas over
//! the same framed RPC transport the query tier already speaks —
//! replication needs no second port, no second protocol, and no second
//! durability format:
//!
//! * **One logical stream.**  A [`Replica`]'s cursor is the lineage
//!   generation it follows plus its two record counts (ingest, feedback):
//!   a count is a position, since each sequence only grows.  It pulls the
//!   records past its counts ([`eq_proto::RequestBody::ReplPull`]), naming
//!   the CRC-32 of its last record in each; the primary encodes them from
//!   memory, as its checkpoints do, and ships only what it holds durably.  The replica applies them through the
//!   write section into its *own* WAL and checkpoints its lineage like any
//!   server, so its segments retire and a restart replays only its tail.
//! * **Seeding is a pull from nothing.**  A replica with no lineage, a
//!   foreign generation (after a failover), counts above the primary's or
//!   a last record the primary does not hold there (a history that
//!   diverged under one generation) is answered `reseed`, with the
//!   primary's static chunk and the records from 0: one answer both seeds
//!   and catches up.  The replica starts a new lineage in its directory
//!   under the *primary's* generation.  The primary keeps nothing per
//!   replica.
//! * **Read service, write fencing.**  Replicas serve every read
//!   (search / similar / filtered / stats) with byte-identical responses;
//!   writes are rejected with the typed
//!   [`eq_proto::ErrorCode::NotPrimary`].
//! * **Failover.**  [`Replica::promote`] cuts the applied state into a
//!   full checkpoint under a **fresh WAL generation** and only then starts
//!   accepting writes.  A resurrected old primary still carries the old
//!   generation: its pulls answer `reseed`, and its unreplicated suffix is
//!   discarded when it re-seeds — split-brain cannot merge.
//! * **Cluster client.**  [`ClusterClient`] fans reads across every
//!   endpoint round-robin (with per-endpoint failure cooldown), routes
//!   writes to the discovered primary, and retries *safe* transient
//!   failures — connection refused, [`EarthQubeError::Overloaded`],
//!   [`EarthQubeError::NotPrimary`] after a promotion — under the capped,
//!   jittered exponential backoff of [`RetryPolicy`].  A transport error
//!   after a write was sent is **not** retried: the write may have
//!   applied, and replaying it could duplicate state.

use std::ops::ControlFlow;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

use crate::engine::SearchResponse;
use crate::filtered::{FilteredResponse, PrefilterMode};
use crate::ingest::IngestReport;
use crate::net::{expect_filtered, expect_search, query_to_spec, unexpected, EqClient};
use crate::persist::{self, Sequence};
use crate::query::ImageQuery;
use crate::serve::{QueryServer, RequestBody, ResponseBody};
use crate::EarthQubeError;

use eq_bigearthnet::patch::Patch;
use eq_proto::{ErrorCode, ErrorPayload};

/// Record bytes a replica asks for per pull.
const REPL_PULL_BYTES: u64 = 4 * 1024 * 1024;

/// Server-side cap on the record bytes of one pull, regardless of what the
/// replica asks for — comfortably under `eq_proto::MAX_FRAME_LEN` with
/// framing (and a reseed's static chunk) to spare.
const REPL_MAX_BATCH_BYTES: u64 = 8 * 1024 * 1024;

/// Record bytes a pull encodes under one catalog read guard (about 0.3 ms
/// of encoding), so a concurrent write waits for one slice at most.
const REPL_SLICE_BYTES: usize = 256 * 1024;

// ---------------------------------------------------------------------------
// Wire-adjacent data types
// ---------------------------------------------------------------------------

// The handshake state and the pull batch are defined in `eq_proto` beside
// their codec: the wire carries them as they are.
pub use eq_proto::{ReplBatch, ReplState};

// ---------------------------------------------------------------------------
// Serving replication (the primary's side)
// ---------------------------------------------------------------------------

impl QueryServer {
    /// The server's replication role, lineage and record counts — the
    /// replication handshake, and what a promoted replica reports to
    /// clients probing for the primary.  A detached server reports its
    /// role only.
    pub fn repl_state(&self) -> ReplState {
        let primary = self.is_primary();
        let held = self.durability.serving(|| counts(&self.catalog.read()));
        let Ok((generation, [ingested, feedback])) = held else {
            return ReplState { primary, ..ReplState::default() };
        };
        ReplState { primary, attached: true, generation, ingested, feedback }
    }

    /// Serves one replication pull: the records past the replica's counts
    /// under `generation`, encoded from memory.
    ///
    /// The counts are read under a catalog read guard taken while the WAL
    /// lock shows an attachment: no write is then between its sync and its
    /// apply, and everything an attached server's catalog holds is on its
    /// log, so only durable records are shipped.  The records below those
    /// counts are encoded in slices of `REPL_SLICE_BYTES`, each under a
    /// read guard of its own, so no write waits for a whole batch.  The
    /// answer carries at least one
    /// pending record, whatever `max_bytes` says, so every pull makes
    /// progress.  A foreign generation (0 included: a replica with no
    /// lineage yet), counts above this server's, or `tails` (the CRC-32 of
    /// the replica's last record in each sequence) that differ from this
    /// server's records at those positions, is answered with `reseed`, the
    /// static chunk and the records from 0, rather than an error: the
    /// verdict is authoritative.
    ///
    /// # Errors
    /// Fails with [`EarthQubeError::Persist`] when detached.
    pub fn repl_pull(
        &self,
        generation: u32,
        ingested: u64,
        feedback: u64,
        tails: [u32; 2],
        max_bytes: u64,
    ) -> Result<ReplBatch, EarthQubeError> {
        let (lineage, core) = self.durability.serving(|| self.catalog.read())?;
        let held = counts(&core);
        let reseed = generation != lineage
            || ingested > held[0]
            || feedback > held[1]
            || self::tails(&core, [ingested, feedback])? != tails;
        drop(core);
        let from = if reseed { [0, 0] } else { [ingested, feedback] };
        let mut budget = max_bytes.min(REPL_MAX_BATCH_BYTES) as usize;
        let mut runs = Vec::new();
        for seq in Sequence::ALL {
            let (mut at, end) = (from[seq as usize] as usize, held[seq as usize] as usize);
            // Once the budget is spent, a run only goes out as the first.
            if at >= end || (budget == 0 && !runs.is_empty()) {
                continue;
            }
            let mut run = persist::records_chunk(at);
            let header = run.len();
            // A slice per catalog read guard: a writer waiting for the
            // write lock, and the readers queued behind it, wait for one
            // slice, not the batch.  Every record below `end` was durable
            // at the guard above, and a record's encoding never changes.
            loop {
                let slice = budget.saturating_sub(run.len() - header).clamp(1, REPL_SLICE_BYTES);
                let core = self.catalog.read();
                let appended = core.append_records(seq, at..end, Some(slice), &mut run)?;
                drop(core);
                at += appended;
                if appended == 0 || at >= end || run.len() - header >= budget {
                    break;
                }
            }
            budget = budget.saturating_sub(run.len() - header);
            runs.push(run.into_bytes());
        }
        let static_chunk = if reseed { self.static_chunk() } else { Vec::new() };
        let [ingested, feedback] = held;
        Ok(ReplBatch { reseed, generation: lineage, ingested, feedback, static_chunk, runs })
    }

    /// Where this server resumes as a replica: its lineage generation,
    /// record counts and their [`tails`] — all zero when detached.
    fn repl_cursor(&self) -> Result<Cursor, EarthQubeError> {
        let held = self.durability.serving(|| {
            let core = self.catalog.read();
            let counts = counts(&core);
            tails(&core, counts).map(|tails| (counts, tails))
        });
        let Ok((generation, cursor)) = held else { return Ok(Cursor::default()) };
        let (counts, tails) = cursor?;
        Ok(Cursor { generation, counts, tails })
    }
}

/// The catalog's two record counts, the replication cursor's unit.
fn counts(core: &crate::catalog::Catalog) -> [u64; 2] {
    Sequence::ALL.map(|seq| core.record_count(seq) as u64)
}

/// The CRC-32 of each sequence's record just below `counts`, as a pulled
/// run carries it (0 for an empty sequence).  A replica sends its own with
/// every pull, so a history that diverged under one generation — a primary
/// restored from an older copy of its directory, then written again — is
/// re-seeded rather than resumed.
fn tails(core: &crate::catalog::Catalog, counts: [u64; 2]) -> Result<[u32; 2], EarthQubeError> {
    let mut tails = [0; 2];
    for seq in Sequence::ALL {
        if let Some(last) = counts[seq as usize].checked_sub(1) {
            let record = core.encode_records(seq, last as usize, Some(1))?;
            tails[seq as usize] = eq_wire::crc32(&record);
        }
    }
    Ok(tails)
}

/// A replica's replication cursor: what one pull asks from.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    generation: u32,
    counts: [u64; 2],
    tails: [u32; 2],
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

/// Bounded retry with capped exponential backoff and deterministic jitter.
///
/// Shared by [`EqClient::connect_with_retry`], the [`Replica`] sync loop
/// and [`ClusterClient`]: attempt `n` (zero-based) sleeps a uniformly
/// jittered duration in `[d/2, d]` where `d = base_delay · 2ⁿ` capped at
/// `max_delay`, so synchronised clients spread out instead of stampeding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (at least 1; 1 means no retry).
    pub attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Backoff cap.
    pub max_delay: Duration,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(640),
            jitter_seed: 0xEA57_0B5E,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, no backoff).
    pub fn no_retries() -> Self {
        RetryPolicy { attempts: 1, ..RetryPolicy::default() }
    }

    /// The jittered sleep before retry number `attempt` (zero-based):
    /// uniform in `[d/2, d]` with `d = base_delay · 2^attempt`, capped at
    /// `max_delay`.
    pub fn backoff_delay(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let base = self.base_delay.as_nanos().min(u128::from(u64::MAX)) as u64;
        let cap = self.max_delay.as_nanos().min(u128::from(u64::MAX)) as u64;
        let exp = base.checked_shl(attempt.min(32)).unwrap_or(u64::MAX).min(cap);
        if exp == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(rng.gen_range(exp / 2..=exp))
    }

    /// Whether `error` is transient for an *idempotent* operation:
    /// transport faults (the connection may simply be refused or broken)
    /// and typed admission-control rejections.  Writes must apply a
    /// narrower test — see the [`ClusterClient`] write path.
    pub fn is_transient(error: &EarthQubeError) -> bool {
        matches!(error, EarthQubeError::Net(_) | EarthQubeError::Overloaded(_))
    }

    /// The one retry loop: runs `attempt` up to `attempts` times (at least
    /// once), sleeping [`backoff_delay`](Self::backoff_delay), drawn from
    /// `rng`, before each retry.  Each try decides for itself: `Break`
    /// ends the loop with its result, `Continue` asks for another try with
    /// the error that ends the loop should the budget run out.
    pub(crate) fn run<T>(
        &self,
        attempts: u32,
        rng: &mut StdRng,
        mut attempt: impl FnMut() -> ControlFlow<Result<T, EarthQubeError>, EarthQubeError>,
    ) -> Result<T, EarthQubeError> {
        let mut retry = 0;
        loop {
            match attempt() {
                ControlFlow::Break(result) => return result,
                ControlFlow::Continue(e) if retry + 1 >= attempts.max(1) => return Err(e),
                ControlFlow::Continue(_) => {}
            }
            std::thread::sleep(self.backoff_delay(retry, rng));
            retry += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

/// A replica's sync progress snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicaSync {
    /// Records applied over this replica's lifetime.
    pub records_applied: u64,
    /// Pull round trips made.
    pub batches: u64,
    /// Times the primary answered `reseed` to a replica holding a lineage.
    pub reseeds: u64,
    /// The lineage generation being followed.
    pub generation: u32,
    /// Ingest records the replica holds.
    pub ingested: u64,
    /// Feedback records the replica holds.
    pub feedback: u64,
    /// Ingest records the primary held at the last pull.
    pub primary_ingested: u64,
    /// Feedback records the primary held at the last pull.
    pub primary_feedback: u64,
}

impl ReplicaSync {
    /// Whether the replica had caught up with the primary's records as of
    /// the last pull.
    pub fn caught_up(&self) -> bool {
        self.ingested >= self.primary_ingested && self.feedback >= self.primary_feedback
    }

    /// Records the replica was behind the primary as of the last pull.
    pub fn lag_records(&self) -> u64 {
        self.primary_ingested.saturating_sub(self.ingested)
            + self.primary_feedback.saturating_sub(self.feedback)
    }
}

/// The outcome of one [`Replica::sync_once`] pull/apply round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncStatus {
    /// Applied this many records.
    Applied(u64),
    /// Nothing new: the replica holds every record the primary does.
    CaughtUp,
    /// The primary does not continue this replica's lineage (a foreign
    /// generation after failover, or a diverged history).  Re-bootstrap
    /// the replica — [`Replica::bootstrap`] re-seeds it.
    ReseedRequired,
}

/// The link to the primary: one connection, reopened after a transport
/// fault, under the retry policy.
struct Link {
    addr: String,
    policy: RetryPolicy,
    rng: StdRng,
    client: Option<EqClient>,
}

impl Link {
    /// Pulls the records past `cursor`, reconnecting and retrying
    /// transient failures under the policy: a pull is idempotent, so the
    /// broad transient test applies.
    fn pull(&mut self, cursor: Cursor, max_bytes: u64) -> Result<ReplBatch, EarthQubeError> {
        let Cursor { generation, counts: [ingested, feedback], tails } = cursor;
        let (client, addr) = (&mut self.client, self.addr.as_str());
        self.policy.run(self.policy.attempts, &mut self.rng, || {
            let connected = match client {
                Some(connected) => connected,
                None => match EqClient::connect(addr) {
                    Ok(connected) => client.insert(connected),
                    Err(e) => return ControlFlow::Continue(e),
                },
            };
            match connected.repl_pull(generation, ingested, feedback, tails, max_bytes) {
                Ok(batch) => ControlFlow::Break(Ok(batch)),
                Err(e) if RetryPolicy::is_transient(&e) => {
                    // The connection state is suspect after any transport
                    // fault; reconnect on the next attempt.
                    *client = None;
                    ControlFlow::Continue(e)
                }
                Err(e) => ControlFlow::Break(Err(e)),
            }
        })
    }
}

/// A read replica: a local [`QueryServer`] in replica mode plus the link
/// to the primary it follows.  The sync cursor is not kept here: it *is*
/// the server's lineage generation and record counts.
///
/// The replica's server serves reads (wrap it in a
/// [`NetServer`](crate::net::NetServer) via [`server`](Self::server)) while
/// the owner drives [`sync_once`](Self::sync_once) /
/// [`run`](Self::run) — typically from a dedicated thread — and may run
/// its checkpointer ([`QueryServer::start_checkpointer`]).  On failover,
/// [`promote`](Self::promote) consumes the replica (ending its sync by
/// construction) and turns the server into a fenced-off new primary.
pub struct Replica {
    server: Arc<QueryServer>,
    link: Link,
    /// Progress so far; its cursor fields are filled in on read, from the
    /// server.
    sync: ReplicaSync,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("primary_addr", &self.link.addr)
            .field("position", &self.server.repl_state())
            .finish_non_exhaustive()
    }
}

impl Replica {
    /// Builds a replica of the primary at `primary_addr` over the local
    /// directory `dir`: recovers the lineage the directory holds, if any,
    /// and pulls past its counts; when there is none, or the primary does
    /// not continue it, seeds a new lineage there from the primary's
    /// answer.  Either way the first batch is applied.
    ///
    /// `replica_id` seeds the jitter of this replica's retries; give each
    /// replica of one primary a distinct id.
    ///
    /// # Errors
    /// Fails with the connection error when the primary stays unreachable
    /// past the retry budget, or with [`EarthQubeError::Persist`] when
    /// neither local recovery nor seeding produces a server.
    pub fn bootstrap(
        dir: &Path,
        primary_addr: &str,
        replica_id: u64,
        policy: RetryPolicy,
    ) -> Result<Self, EarthQubeError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| persist::io_error("creating the replica directory", e))?;
        let rng = StdRng::seed_from_u64(policy.jitter_seed ^ replica_id);
        let client = Some(EqClient::connect_with_retry(primary_addr, &policy)?);
        let mut link = Link { addr: primary_addr.to_string(), policy, rng, client };
        // A usable local lineage resumes by its counts — the common case
        // for a replica restarting after a crash.
        let recovered = QueryServer::recover(dir).ok();
        let cursor = recovered.as_ref().map_or(Ok(Cursor::default()), QueryServer::repl_cursor)?;
        let batch = link.pull(cursor, REPL_PULL_BYTES)?;
        let mut sync = ReplicaSync::default();
        let server = match recovered {
            Some(server) if !batch.reseed => server,
            recovered => {
                // No lineage, or one the primary disowns (failover
                // happened): seed afresh.  Dropping the recovered server
                // releases the directory lock the new lineage needs.
                sync.reseeds += u64::from(recovered.is_some());
                drop(recovered);
                if !batch.reseed {
                    return Err(EarthQubeError::Persist(
                        "the primary served records to a replica with no lineage".into(),
                    ));
                }
                QueryServer::seed(dir, &batch.static_chunk, batch.generation)?
            }
        };
        server.set_replica_mode();
        let mut replica = Replica { server: Arc::new(server), link, sync };
        replica.apply(&batch)?;
        Ok(replica)
    }

    /// The replica's query server — share it with a serving front end
    /// (e.g. [`NetServer::bind`](crate::net::NetServer::bind)); it serves
    /// reads and rejects writes with [`EarthQubeError::NotPrimary`].
    pub fn server(&self) -> &Arc<QueryServer> {
        &self.server
    }

    /// The current sync progress snapshot.
    pub fn sync_state(&self) -> ReplicaSync {
        let ReplState { generation, ingested, feedback, .. } = self.server.repl_state();
        ReplicaSync { generation, ingested, feedback, ..self.sync }
    }

    /// Applies a batch the primary continued this replica's lineage with.
    fn apply(&mut self, batch: &ReplBatch) -> Result<SyncStatus, EarthQubeError> {
        self.sync.batches += 1;
        self.sync.primary_ingested = batch.ingested;
        self.sync.primary_feedback = batch.feedback;
        if batch.runs.is_empty() {
            return Ok(SyncStatus::CaughtUp);
        }
        let applied = self.server.apply_runs(&batch.runs)?;
        self.sync.records_applied += applied;
        Ok(SyncStatus::Applied(applied))
    }

    /// One pull/apply round trip.
    ///
    /// # Errors
    /// Transport failures past the retry budget surface as
    /// [`EarthQubeError::Net`]; a local apply failure (WAL I/O, or records
    /// that no longer fit this replica's state) as
    /// [`EarthQubeError::Persist`] — the latter generally means the
    /// replica should be re-bootstrapped.
    pub fn sync_once(&mut self) -> Result<SyncStatus, EarthQubeError> {
        self.sync_within(REPL_PULL_BYTES)
    }

    /// [`sync_once`](Self::sync_once) asking for at most `max_bytes` of
    /// records, which the primary exceeds only to carry one: a pull always
    /// makes progress.
    ///
    /// # Errors
    /// Like [`sync_once`](Self::sync_once).
    pub fn sync_within(&mut self, max_bytes: u64) -> Result<SyncStatus, EarthQubeError> {
        let batch = self.link.pull(self.server.repl_cursor()?, max_bytes)?;
        if batch.reseed {
            self.sync.batches += 1;
            self.sync.reseeds += 1;
            return Ok(SyncStatus::ReseedRequired);
        }
        self.apply(&batch)
    }

    /// Pulls until the replica holds every record the primary does.
    ///
    /// # Errors
    /// Like [`sync_once`](Self::sync_once); a `reseed` verdict surfaces as
    /// [`EarthQubeError::Persist`] (re-bootstrap to recover).
    pub fn catch_up(&mut self) -> Result<ReplicaSync, EarthQubeError> {
        loop {
            match self.sync_once()? {
                SyncStatus::Applied(_) => {}
                SyncStatus::CaughtUp => return Ok(self.sync_state()),
                SyncStatus::ReseedRequired => return Err(reseed_error()),
            }
        }
    }

    /// A continuous sync loop for a dedicated thread: pulls until `stop`
    /// is set, sleeping `idle` whenever caught up, and riding out
    /// transient pull failures beyond the per-call retry budget (the
    /// primary being down is normal from a replica's point of view).
    ///
    /// # Errors
    /// Returns early on a local apply failure or a `reseed` verdict; both
    /// need the owner's intervention.
    pub fn run(
        &mut self,
        stop: &AtomicBool,
        idle: Duration,
    ) -> Result<ReplicaSync, EarthQubeError> {
        while !stop.load(Ordering::Acquire) {
            match self.sync_once() {
                Ok(SyncStatus::Applied(_)) => {}
                Ok(SyncStatus::CaughtUp) => std::thread::sleep(idle),
                Ok(SyncStatus::ReseedRequired) => return Err(reseed_error()),
                Err(e) if RetryPolicy::is_transient(&e) => std::thread::sleep(idle),
                Err(e) => return Err(e),
            }
        }
        Ok(self.sync_state())
    }

    /// Promotes this replica to primary and returns its server, now
    /// accepting writes under a fresh, fencing WAL generation (see
    /// [`QueryServer::promote`]).  Consuming the replica ends its sync by
    /// construction; call [`catch_up`](Self::catch_up) first when the old
    /// primary is still reachable, so no acknowledged write is left
    /// behind.
    ///
    /// A [`NetServer`](crate::net::NetServer) already serving this
    /// replica's reads keeps working across the promotion — the returned
    /// server is the same shared instance, now also taking writes.
    ///
    /// # Errors
    /// Fails with [`EarthQubeError::Persist`] if the promotion checkpoint
    /// fails; the server is then **not** promoted.  It stays attached to
    /// the lineage it had, so [`QueryServer::promote`] can be retried on
    /// the server a [`NetServer`](crate::net::NetServer) still shares.
    pub fn promote(self) -> Result<Arc<QueryServer>, EarthQubeError> {
        self.server.promote()?;
        Ok(self.server)
    }
}

fn reseed_error() -> EarthQubeError {
    EarthQubeError::Persist(
        "the primary does not continue this replica's lineage; re-bootstrap the replica to \
         seed it afresh"
            .into(),
    )
}

// ---------------------------------------------------------------------------
// Cluster client
// ---------------------------------------------------------------------------

/// How long a read endpoint sits out after a transport failure before the
/// round-robin considers it again.
const ENDPOINT_COOLDOWN: Duration = Duration::from_millis(500);

struct Endpoint {
    addr: String,
    client: Option<EqClient>,
    cooldown_until: Option<Instant>,
}

impl Endpoint {
    fn cooling(&self, now: Instant) -> bool {
        self.cooldown_until.is_some_and(|until| now < until)
    }

    /// The endpoint's connection, opened first if there is none.
    fn connect(&mut self) -> Result<&mut EqClient, EarthQubeError> {
        let client = match self.client.take() {
            Some(client) => client,
            None => EqClient::connect(self.addr.as_str())?,
        };
        Ok(self.client.insert(client))
    }

    fn cool_down(&mut self) {
        self.cooldown_until = Some(Instant::now() + ENDPOINT_COOLDOWN);
    }
}

/// Probes every endpoint's replication state for the one that is primary.
fn discover(endpoints: &mut [Endpoint]) -> Result<usize, EarthQubeError> {
    for (i, endpoint) in endpoints.iter_mut().enumerate() {
        let Ok(client) = endpoint.connect() else { continue };
        match client.repl_state() {
            Ok(state) if state.primary => return Ok(i),
            Ok(_) => {}
            Err(_) => endpoint.client = None,
        }
    }
    Err(EarthQubeError::Net(format!(
        "no reachable endpoint of {} reports itself primary",
        endpoints.len()
    )))
}

/// The next endpoint for a read: round-robin from `next`, preferring
/// endpoints not on cooldown; when every endpoint is cooling, takes the
/// next one anyway (refusing to even try would turn a blip into an outage).
fn pick_read_endpoint(endpoints: &[Endpoint], next: &mut usize) -> usize {
    let n = endpoints.len();
    let now = Instant::now();
    let i = (0..n).map(|step| (*next + step) % n).find(|&i| !endpoints[i].cooling(now));
    let i = i.unwrap_or(*next % n);
    *next = (i + 1) % n;
    i
}

/// A cluster-aware blocking client over a primary and its replicas.
///
/// Reads fan out **round-robin** across all endpoints (replicas serve them
/// byte-identically); an endpoint that fails a transport-level call is put
/// on a short cooldown and the read retries elsewhere.  Writes go to the
/// discovered primary; [`EarthQubeError::NotPrimary`] triggers
/// re-discovery (the primary moved — a failover), connection failures and
/// [`EarthQubeError::Overloaded`] back off and retry under the
/// [`RetryPolicy`].  A transport error *after* a write was sent is
/// returned as-is: the write may have applied, and blind replay could
/// duplicate it.
pub struct ClusterClient {
    endpoints: Vec<Endpoint>,
    policy: RetryPolicy,
    rng: StdRng,
    primary: Option<usize>,
    next_read: usize,
}

impl std::fmt::Debug for ClusterClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterClient")
            .field("endpoints", &self.endpoints.iter().map(|e| e.addr.as_str()).collect::<Vec<_>>())
            .field("primary", &self.primary)
            .finish_non_exhaustive()
    }
}

impl ClusterClient {
    /// Builds a client over `addrs` (primary and replicas, in any order).
    /// Connections are opened lazily, so unreachable endpoints only cost
    /// their first read attempt.
    ///
    /// # Errors
    /// Fails with [`EarthQubeError::BadRequest`] on an empty endpoint
    /// list.
    pub fn new<A: Into<String>>(
        addrs: impl IntoIterator<Item = A>,
        policy: RetryPolicy,
    ) -> Result<Self, EarthQubeError> {
        let endpoints: Vec<Endpoint> = addrs
            .into_iter()
            .map(|addr| Endpoint { addr: addr.into(), client: None, cooldown_until: None })
            .collect();
        if endpoints.is_empty() {
            return Err(EarthQubeError::BadRequest(
                "a cluster client needs at least one endpoint".into(),
            ));
        }
        let rng = StdRng::seed_from_u64(policy.jitter_seed);
        Ok(ClusterClient { endpoints, policy, rng, primary: None, next_read: 0 })
    }

    /// The configured endpoint addresses, in construction order.
    pub fn addresses(&self) -> Vec<String> {
        self.endpoints.iter().map(|e| e.addr.clone()).collect()
    }

    /// The address of the endpoint currently believed to be the primary,
    /// probing the cluster if none is known yet.
    ///
    /// # Errors
    /// Fails with [`EarthQubeError::Net`] when no reachable endpoint
    /// reports itself primary.
    pub fn primary_addr(&mut self) -> Result<String, EarthQubeError> {
        let i = match self.primary {
            Some(i) => i,
            None => self.discover_primary()?,
        };
        Ok(self.endpoints[i].addr.clone())
    }

    /// Probes every endpoint's replication state and records which one is
    /// primary.  Used automatically by the write path; public so a caller
    /// can force re-discovery after orchestrating a failover.
    ///
    /// # Errors
    /// Fails with [`EarthQubeError::Net`] when no reachable endpoint
    /// reports itself primary.
    pub fn discover_primary(&mut self) -> Result<usize, EarthQubeError> {
        let found = discover(&mut self.endpoints);
        self.primary = found.as_ref().ok().copied();
        found
    }

    /// Sends one request to the cluster: a read fans across the endpoints,
    /// a write ([`RequestBody::is_write`]) goes to the primary.  A server's
    /// answer returns as it arrived, typed errors like `UnknownImage`
    /// included.  What retries under the [`RetryPolicy`] cannot have
    /// executed, or is safe to repeat: a failed connection, an `Overloaded`
    /// answer, a write's `NotPrimary` answer (the primary moved, so it is
    /// rediscovered), and a read's transport fault (the endpoint cools down
    /// and the read goes elsewhere).  A write's transport fault after
    /// sending is returned as-is: the write may have applied.
    ///
    /// # Errors
    /// [`EarthQubeError::Net`] on a write's transport fault, or the last
    /// retried failure once the budget is spent.
    pub fn call(&mut self, body: &RequestBody) -> Result<ResponseBody, EarthQubeError> {
        let write = body.is_write();
        let attempts = if write {
            self.policy.attempts
        } else {
            self.policy.attempts.max(1).max(self.endpoints.len() as u32)
        };
        let (endpoints, primary, next_read) =
            (&mut self.endpoints, &mut self.primary, &mut self.next_read);
        self.policy.run(attempts, &mut self.rng, || {
            let i = match (write, *primary) {
                (false, _) => pick_read_endpoint(endpoints, next_read),
                (true, Some(i)) => i,
                (true, None) => match discover(endpoints) {
                    Ok(i) => *primary.insert(i),
                    Err(e) => return ControlFlow::Continue(e),
                },
            };
            let endpoint = &mut endpoints[i];
            let client = match endpoint.connect() {
                Ok(client) => client,
                Err(e) => {
                    // An unreachable primary may have died: rediscover.
                    if write {
                        *primary = None;
                    } else {
                        endpoint.cool_down();
                    }
                    return ControlFlow::Continue(e);
                }
            };
            match client.call(body) {
                // Healthy but shedding load: rotate without benching it.
                Ok(ResponseBody::Error(ErrorPayload { code: ErrorCode::Overloaded, message })) => {
                    ControlFlow::Continue(EarthQubeError::Overloaded(message))
                }
                Ok(ResponseBody::Error(ErrorPayload { code: ErrorCode::NotPrimary, message }))
                    if write =>
                {
                    *primary = None;
                    ControlFlow::Continue(EarthQubeError::NotPrimary(message))
                }
                Ok(answer) => {
                    endpoint.cooldown_until = None;
                    ControlFlow::Break(Ok(answer))
                }
                Err(e) => {
                    endpoint.client = None;
                    if write {
                        return ControlFlow::Break(Err(e));
                    }
                    endpoint.cool_down();
                    ControlFlow::Continue(e)
                }
            }
        })
    }

    /// Cluster counterpart of [`EqClient::search`] (read fan-out).
    ///
    /// # Errors
    /// The server-side error, or [`EarthQubeError::Net`] past the budget.
    pub fn search(&mut self, query: &ImageQuery) -> Result<SearchResponse, EarthQubeError> {
        expect_search(self.call(&RequestBody::Search(query_to_spec(query)))?)
    }

    /// Cluster counterpart of [`EqClient::similar_to_filtered`] (read
    /// fan-out).
    ///
    /// # Errors
    /// The server-side error, or [`EarthQubeError::Net`] past the budget.
    pub fn similar_to_filtered(
        &mut self,
        name: &str,
        k: usize,
        query: &ImageQuery,
        mode: PrefilterMode,
    ) -> Result<FilteredResponse, EarthQubeError> {
        let spec = query_to_spec(query);
        let body = RequestBody::SimilarToFiltered { name: name.into(), k: k as u64, spec, mode };
        expect_filtered(self.call(&body)?)
    }

    /// Cluster counterpart of [`EqClient::ingest`]: routed to the primary
    /// with failover-aware retry.  The request owns a copy of the patches.
    ///
    /// # Errors
    /// The server-side error; [`EarthQubeError::Net`] when the primary
    /// stays undiscoverable past the budget, or when the transport failed
    /// after the request was sent (the write may have applied — do not
    /// blindly replay).
    pub fn ingest(&mut self, patches: &[Patch]) -> Result<IngestReport, EarthQubeError> {
        match self.call(&RequestBody::Ingest { patches: patches.to_vec() })? {
            ResponseBody::Ingest(report) => Ok(report),
            other => Err(unexpected(other, "ingest")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let policy = RetryPolicy {
            attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            jitter_seed: 7,
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mut prev_cap = Duration::ZERO;
        for attempt in 0..8 {
            let d = policy.backoff_delay(attempt, &mut rng);
            let cap = Duration::from_millis(100).min(Duration::from_millis(10 * (1 << attempt)));
            assert!(d <= cap, "attempt {attempt}: {d:?} over cap {cap:?}");
            assert!(d >= cap / 2, "attempt {attempt}: {d:?} under half-cap {cap:?}");
            assert!(cap >= prev_cap);
            prev_cap = cap;
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let policy = RetryPolicy::default();
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for attempt in 0..6 {
            assert_eq!(
                policy.backoff_delay(attempt, &mut a),
                policy.backoff_delay(attempt, &mut b)
            );
        }
    }

    #[test]
    fn transient_classification() {
        assert!(RetryPolicy::is_transient(&EarthQubeError::Net("refused".into())));
        assert!(RetryPolicy::is_transient(&EarthQubeError::Overloaded("full".into())));
        assert!(!RetryPolicy::is_transient(&EarthQubeError::NotPrimary("moved".into())));
        assert!(!RetryPolicy::is_transient(&EarthQubeError::BadRequest("bad".into())));
        assert!(!RetryPolicy::is_transient(&EarthQubeError::UnknownImage("x".into())));
    }

    #[test]
    fn replica_sync_lag_accounting() {
        let caught_up = ReplicaSync {
            ingested: 40,
            feedback: 3,
            primary_ingested: 40,
            primary_feedback: 3,
            ..ReplicaSync::default()
        };
        assert!(caught_up.caught_up());
        assert_eq!(caught_up.lag_records(), 0);

        let behind = ReplicaSync { primary_ingested: 45, primary_feedback: 5, ..caught_up };
        assert!(!behind.caught_up());
        assert_eq!(behind.lag_records(), 7);
        let feedback_behind = ReplicaSync { primary_feedback: 4, ..caught_up };
        assert!(!feedback_behind.caught_up());
        assert_eq!(feedback_behind.lag_records(), 1);
    }

    #[test]
    fn cluster_client_rejects_empty_endpoint_list() {
        let err = ClusterClient::new(Vec::<String>::new(), RetryPolicy::default());
        assert!(matches!(err, Err(EarthQubeError::BadRequest(_))));
    }

    /// A pull encodes from memory past the asked counts, and whatever the
    /// budget, even one byte, carries at least one pending record: pulling
    /// one record at a time walks both sequences, ingest's first, and the
    /// runs concatenate to what a whole-tail pull carries.  A record's tail
    /// digest is the CRC-32 of its one-record run.  A foreign generation,
    /// counts above the server's, or a tail digest the server's record
    /// there does not have, reseeds from 0 with the static chunk.
    #[test]
    fn pulls_walk_the_counts_under_any_budget() {
        use eq_bigearthnet::{ArchiveGenerator, GeneratorConfig};
        let dir = std::env::temp_dir().join(format!("eq_repl_pulls_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(6, 77)).unwrap().generate();
        let mut config = crate::EarthQubeConfig::fast(77);
        config.train_model = false;
        let server = QueryServer::build(&archive, config, crate::ServeConfig::default()).unwrap();
        server.submit_feedback("one", None).unwrap();
        server.checkpoint(&dir).unwrap();
        server.submit_feedback("two", Some("c")).unwrap();
        let ReplState { generation, ingested, feedback, .. } = server.repl_state();
        assert_eq!((ingested, feedback), (6, 2));

        let tails_at = |counts| tails(&server.catalog.read(), counts).unwrap();
        let whole = server.repl_pull(generation, 2, 0, tails_at([2, 0]), u64::MAX).unwrap();
        assert!(!whole.reseed && whole.static_chunk.is_empty());
        assert_eq!((whole.ingested, whole.feedback, whole.runs.len()), (6, 2, 2));
        let (mut at, mut singles) = ([2, 0], Vec::new());
        while at != [ingested, feedback] {
            let batch = server.repl_pull(generation, at[0], at[1], tails_at(at), 1).unwrap();
            let [run] = &batch.runs[..] else { panic!("one record per 1-byte pull: {at:?}") };
            let records = run.len() - 9;
            singles.push(run.clone());
            let seq = usize::from(at[0] == ingested);
            at[seq] += 1;
            assert!(records > 0);
            assert_eq!(tails_at(at)[seq], eq_wire::crc32(run));
        }
        assert_eq!(singles.len(), 6);
        for (runs, whole) in [(&singles[..4], &whole.runs[0]), (&singles[4..], &whole.runs[1])] {
            let tail: Vec<u8> = runs.iter().flat_map(|run| run[9..].to_vec()).collect();
            assert_eq!(tail, whole[9..], "single-record runs concatenate to the whole tail");
        }
        let held = tails_at([ingested, feedback]);
        let caught_up = server.repl_pull(generation, ingested, feedback, held, 1).unwrap();
        assert!(!caught_up.reseed && caught_up.runs.is_empty());

        let diverged = [[held[0] ^ 1, held[1]], [held[0], held[1] ^ 1]];
        let reseeds = [
            (generation ^ 1, [6, 2], held),
            (0, [0, 0], [0, 0]),
            (generation, [7, 0], held),
            (generation, [6, 2], diverged[0]),
            (generation, [6, 2], diverged[1]),
            (generation, [0, 0], [1, 0]),
        ];
        for (asked, counts, tails) in reseeds {
            let batch = server.repl_pull(asked, counts[0], counts[1], tails, u64::MAX).unwrap();
            assert!(batch.reseed && batch.generation == generation, "{asked} {counts:?} {tails:?}");
            assert_eq!(batch.static_chunk, server.static_chunk());
            assert_eq!(batch.runs.len(), 2);
        }
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_retries_policy_is_single_attempt() {
        assert_eq!(RetryPolicy::no_retries().attempts, 1);
    }
}
