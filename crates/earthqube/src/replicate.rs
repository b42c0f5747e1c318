//! Replication & failover: read replicas over the `eq_proto` wire.
//!
//! One **primary** [`QueryServer`] streams its write-ahead log to N
//! replicas over the same framed RPC transport the query tier already
//! speaks — replication needs no second port, no second protocol, and no
//! second durability format:
//!
//! * **Pull-based log shipping.**  A [`Replica`] pulls raw WAL record
//!   payloads from the primary by `(generation, segment, offset)` position
//!   ([`eq_proto::RequestBody::ReplPull`]), applies them through the same
//!   code path recovery uses, and appends them to its *own* WAL at the
//!   same positions — the mirrored log is byte-identical, so the replica's
//!   durable WAL position *is* its replication cursor and crash-resume
//!   needs no extra bookkeeping.
//! * **Snapshot seeding.**  A replica whose position the primary can no
//!   longer serve (fresh directory, retired segments, or a foreign
//!   generation after failover) ships the primary's checkpoint instead:
//!   manifest bytes plus chunk files over
//!   [`eq_proto::RequestBody::ReplChunk`], then recovers locally and
//!   resumes pulling from the manifest's first segment.
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

use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
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
use crate::persist::{self, Faults};
use crate::query::ImageQuery;
use crate::serve::{QueryServer, RequestBody, ResponseBody};
use crate::EarthQubeError;

use eq_bigearthnet::patch::Patch;
use eq_proto::{ErrorCode, ErrorPayload};

/// Bytes a replica asks for per pull (the primary additionally caps the
/// reply server-side).
const REPL_PULL_BYTES: u64 = 4 * 1024 * 1024;

/// Bytes a seeding replica asks for per chunk slice.
const SEED_SLICE_BYTES: u64 = 4 * 1024 * 1024;

/// Server-side cap on the summed record-payload bytes of one replication
/// pull batch, regardless of what the replica asks for — comfortably
/// under `eq_proto::MAX_FRAME_LEN` with framing overhead to spare.
const REPL_MAX_BATCH_BYTES: u64 = 8 * 1024 * 1024;

/// Server-side cap on one chunk-fetch slice, same rationale.
const REPL_MAX_SLICE_BYTES: u64 = 8 * 1024 * 1024;

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
    /// The server's replication role and durable WAL position — the
    /// replication handshake, and what a promoted replica reports to
    /// clients probing for the primary.
    pub fn repl_state(&self) -> ReplState {
        self.durability.repl_state(self.is_primary())
    }

    /// The raw bytes of the published manifest, for shipping a snapshot to
    /// a seeding replica.  The manifest is published by atomic rename, so
    /// an unlocked read observes a complete old or new file, never a torn
    /// one.
    ///
    /// # Errors
    /// Fails with [`EarthQubeError::Persist`] when detached or on I/O.
    pub fn repl_manifest_bytes(&self) -> Result<Vec<u8>, EarthQubeError> {
        let dir = self.durability.serving(|att| att.dir.clone())?;
        std::fs::read(dir.join(persist::MANIFEST_FILE))
            .map_err(|e| persist::io_error("reading the manifest for replication", e))
    }

    /// One slice of a checkpoint chunk file, for snapshot seeding, with the
    /// file's total length.  `file` must be a chunk the *current*
    /// attachment's manifest references — which both confines the read to
    /// real chunk files (no path traversal) and turns a mid-seed checkpoint
    /// race into a clean error the seeder answers by refetching the
    /// manifest.  Only the slice is read, never the whole file.
    ///
    /// # Errors
    /// [`EarthQubeError::BadRequest`] for an unreferenced file name,
    /// [`EarthQubeError::Persist`] when detached or on I/O.
    pub fn repl_chunk_bytes(
        &self,
        file: &str,
        offset: u64,
        max_bytes: u64,
    ) -> Result<(u64, Vec<u8>), EarthQubeError> {
        let path = self.durability.serving(|att| {
            att.manifest.chunks.iter().any(|c| c.file == file).then(|| att.dir.join(file))
        })?;
        let path = path.ok_or_else(|| {
            EarthQubeError::BadRequest(format!("{file:?} is not a chunk of the current manifest"))
        })?;
        let io = |e| persist::io_error("reading a chunk for replication", e);
        let mut chunk = std::fs::File::open(path).map_err(io)?;
        let total = chunk.metadata().map_err(io)?.len();
        let start = offset.min(total);
        let len = max_bytes.min(REPL_MAX_SLICE_BYTES).min(total - start);
        let mut slice = vec![0; len as usize];
        chunk.seek(SeekFrom::Start(start)).map_err(io)?;
        chunk.read_exact(&mut slice).map_err(io)?;
        Ok((total, slice))
    }

    /// Serves one replication pull: WAL record payloads at and after the
    /// replica's `(generation, segment, offset)` position.
    ///
    /// The attachment state is snapshotted under the wal lock, where a
    /// servable position also renews the replica's retention mark (the
    /// marks live in the attachment: they are about this lineage's
    /// segments).  The segment file is then read **unlocked** — safe
    /// because record bytes below the snapshotted length are fully written,
    /// segments only grow, and every reply position is re-validated on the
    /// next pull.  A position this primary cannot serve (foreign generation
    /// after a failover, or a segment already retired) is answered with
    /// `reseed` rather than an error: the verdict is authoritative.
    ///
    /// # Errors
    /// Fails with [`EarthQubeError::Persist`] when detached or on I/O
    /// reading a segment that should exist.
    pub fn repl_pull(
        &self,
        replica_id: u64,
        generation: u32,
        segment: u32,
        offset: u64,
        max_bytes: u64,
    ) -> Result<ReplBatch, EarthQubeError> {
        let (dir, reseed, servable) = self.durability.serving(|att| {
            let reseed = ReplBatch {
                reseed: true,
                generation: att.manifest.generation,
                primary_segment: att.segment_index,
                primary_offset: att.segment_bytes,
                ..ReplBatch::default()
            };
            let servable = generation == att.manifest.generation
                && (att.manifest.first_segment..=att.segment_index).contains(&segment)
                && offset >= persist::SEGMENT_HEADER_LEN;
            if servable {
                att.mark_replica(replica_id, segment);
            }
            (att.dir.clone(), reseed, servable)
        })?;
        if !servable {
            return Ok(reseed);
        }
        let bytes = match std::fs::read(dir.join(persist::segment_file_name(segment))) {
            Ok(bytes) => bytes,
            // Retired between the snapshot above and this read: a
            // checkpoint raced us and the position is gone for good.
            Err(_) => return Ok(reseed),
        };
        let sealed = segment < reseed.primary_segment;
        let end = if sealed { bytes.len() as u64 } else { reseed.primary_offset };
        if offset > end {
            return Ok(reseed);
        }
        let (entries, valid_end) =
            persist::scan_record_payloads(&bytes, offset, end, max_bytes.min(REPL_MAX_BATCH_BYTES));
        let rotate = sealed && valid_end >= end;
        let (next_segment, next_offset) =
            if rotate { (segment + 1, persist::SEGMENT_HEADER_LEN) } else { (segment, valid_end) };
        Ok(ReplBatch { reseed: false, entries, rotate, next_segment, next_offset, ..reseed })
    }
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
    /// WAL records applied over this replica's lifetime.
    pub records_applied: u64,
    /// Pull round trips made.
    pub batches: u64,
    /// Times the primary answered `reseed`.
    pub reseeds: u64,
    /// The lineage generation being followed.
    pub generation: u32,
    /// The replica's durable segment position.
    pub segment: u32,
    /// The replica's durable offset within `segment`.
    pub offset: u64,
    /// The primary's live segment at the last pull.
    pub primary_segment: u32,
    /// The primary's durable live-segment length at the last pull.
    pub primary_offset: u64,
}

impl ReplicaSync {
    /// Whether the replica had fully caught up with the primary's durable
    /// position as of the last pull.
    pub fn caught_up(&self) -> bool {
        self.segment == self.primary_segment && self.offset >= self.primary_offset
    }

    /// Whole segments the replica is behind the primary's live segment.
    pub fn lag_segments(&self) -> u32 {
        self.primary_segment.saturating_sub(self.segment)
    }

    /// Bytes behind within the live segment — exact only when
    /// [`lag_segments`](Self::lag_segments) is zero.
    pub fn lag_bytes(&self) -> u64 {
        if self.segment == self.primary_segment {
            self.primary_offset.saturating_sub(self.offset)
        } else {
            self.primary_offset
        }
    }
}

/// The outcome of one [`Replica::sync_once`] pull/apply round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncStatus {
    /// Applied this many records (and possibly rotated).
    Applied(u64),
    /// Nothing new: the replica is at the primary's durable position.
    CaughtUp,
    /// The primary can no longer serve this replica's position (retired
    /// segments, or a foreign generation after failover).  Re-bootstrap
    /// the replica — [`Replica::bootstrap`] re-seeds from a snapshot.
    ReseedRequired,
}

/// A read replica: a local [`QueryServer`] in replica mode plus the link
/// to the primary it follows.  The sync cursor is not kept here: it *is*
/// the server's durable WAL position.
///
/// The replica's server serves reads (wrap it in a
/// [`NetServer`](crate::net::NetServer) via [`server`](Self::server)) while
/// the owner drives [`sync_once`](Self::sync_once) /
/// [`run`](Self::run) — typically from a dedicated thread.  On failover,
/// [`promote`](Self::promote) consumes the replica (ending its sync by
/// construction) and turns the server into a fenced-off new primary.
pub struct Replica {
    server: Arc<QueryServer>,
    primary_addr: String,
    replica_id: u64,
    policy: RetryPolicy,
    rng: StdRng,
    client: Option<EqClient>,
    /// Progress so far; its position fields are filled in on read, from
    /// the server.
    sync: ReplicaSync,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("primary_addr", &self.primary_addr)
            .field("replica_id", &self.replica_id)
            .field("position", &self.server.repl_state())
            .finish_non_exhaustive()
    }
}

impl Replica {
    /// Builds a replica of the primary at `primary_addr` over the local
    /// directory `dir`: recovers locally when the directory already holds
    /// a usable lineage, seeds a snapshot from the primary otherwise (or
    /// when the primary disowns the recovered position), switches the
    /// server to replica mode and applies a first catch-up batch.
    ///
    /// `replica_id` identifies this replica to the primary's WAL-retention
    /// floor; give each replica of one primary a distinct id.
    ///
    /// # Errors
    /// Fails with the connection error when the primary stays unreachable
    /// past the retry budget, or with [`EarthQubeError::Persist`] when
    /// neither local recovery nor snapshot seeding produces a server.
    pub fn bootstrap(
        dir: &Path,
        primary_addr: &str,
        replica_id: u64,
        policy: RetryPolicy,
    ) -> Result<Self, EarthQubeError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| persist::io_error("creating the replica directory", e))?;
        let mut rng = StdRng::seed_from_u64(policy.jitter_seed ^ replica_id);
        let mut client = EqClient::connect_with_retry(primary_addr, &policy)?;
        // A usable local lineage spares the snapshot transfer entirely —
        // the common case for a replica restarting after a crash.
        let server = match QueryServer::recover(dir) {
            Ok(server) => server,
            Err(_) => {
                seed_dir(&mut client, dir, &policy, &mut rng)?;
                QueryServer::recover(dir)?
            }
        };
        server.set_replica_mode();
        let mut replica = Replica {
            server: Arc::new(server),
            primary_addr: primary_addr.to_string(),
            replica_id,
            policy,
            rng,
            client: Some(client),
            sync: ReplicaSync::default(),
        };
        if replica.sync_once()? == SyncStatus::ReseedRequired {
            // The recovered lineage is foreign (failover happened) or its
            // position was retired: discard it and seed afresh.  Dropping
            // the server releases the directory lock the re-recover needs.
            drop(replica.server);
            let mut client = match replica.client.take() {
                Some(client) => client,
                None => EqClient::connect_with_retry(primary_addr, &replica.policy)?,
            };
            seed_dir(&mut client, dir, &replica.policy, &mut replica.rng)?;
            replica.client = Some(client);
            let server = QueryServer::recover(dir)?;
            server.set_replica_mode();
            replica.server = Arc::new(server);
            if replica.sync_once()? == SyncStatus::ReseedRequired {
                return Err(EarthQubeError::Persist(
                    "the primary disowned a snapshot it just served; is it checkpointing \
                     faster than this replica can seed?"
                        .into(),
                ));
            }
        }
        Ok(replica)
    }

    /// The replica's query server — share it with a serving front end
    /// (e.g. [`NetServer::bind`](crate::net::NetServer::bind)); it serves
    /// reads and rejects writes with [`EarthQubeError::NotPrimary`].
    pub fn server(&self) -> &Arc<QueryServer> {
        &self.server
    }

    /// This replica's id on the primary's retention floor.
    pub fn replica_id(&self) -> u64 {
        self.replica_id
    }

    /// The current sync progress snapshot.
    pub fn sync_state(&self) -> ReplicaSync {
        let ReplState { generation, segment, offset, .. } = self.server.repl_state();
        ReplicaSync { generation, segment, offset, ..self.sync }
    }

    /// Runs `op` against the primary connection, reconnecting and retrying
    /// transient failures under the policy.  Pulls are idempotent, so the
    /// broad transient test applies.
    fn with_client<T>(
        &mut self,
        op: impl Fn(&mut EqClient) -> Result<T, EarthQubeError>,
    ) -> Result<T, EarthQubeError> {
        let (client, addr) = (&mut self.client, self.primary_addr.as_str());
        self.policy.run(self.policy.attempts, &mut self.rng, || {
            let connected = match client {
                Some(connected) => connected,
                None => match EqClient::connect(addr) {
                    Ok(connected) => client.insert(connected),
                    Err(e) => return ControlFlow::Continue(e),
                },
            };
            match op(connected) {
                Ok(value) => ControlFlow::Break(Ok(value)),
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

    /// One pull/apply round trip.
    ///
    /// # Errors
    /// Transport failures past the retry budget surface as
    /// [`EarthQubeError::Net`]; a local apply failure (WAL I/O, or records
    /// that no longer fit this replica's state) as
    /// [`EarthQubeError::Persist`] — the latter generally means the
    /// replica should be re-bootstrapped.
    pub fn sync_once(&mut self) -> Result<SyncStatus, EarthQubeError> {
        // The mirrored log is byte-identical to the primary's, so the
        // server's durable WAL position is the position to pull from.
        let (id, at) = (self.replica_id, self.server.repl_state());
        let batch = self.with_client(|c| {
            c.repl_pull(id, at.generation, at.segment, at.offset, REPL_PULL_BYTES)
        })?;
        self.sync.batches += 1;
        self.sync.primary_segment = batch.primary_segment;
        self.sync.primary_offset = batch.primary_offset;
        if batch.reseed {
            self.sync.reseeds += 1;
            return Ok(SyncStatus::ReseedRequired);
        }
        if batch.entries.is_empty() && !batch.rotate {
            return Ok(SyncStatus::CaughtUp);
        }
        let applied = self.server.apply_replicated(&batch.entries, batch.rotate)?;
        self.sync.records_applied += applied;
        Ok(SyncStatus::Applied(applied))
    }

    /// Pulls until the replica reaches the primary's durable position.
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
        "the primary can no longer serve this replica's position; re-bootstrap the replica \
         to seed a fresh snapshot"
            .into(),
    )
}

/// Ships the primary's current checkpoint into `dir`: every chunk file the
/// manifest references, then the manifest itself (tmp + rename, so a crash
/// mid-seed never leaves a manifest pointing at missing chunks).  Existing
/// WAL segments and the old manifest are removed first — the snapshot
/// replaces the lineage wholesale.
///
/// A checkpoint completing on the primary mid-transfer invalidates chunk
/// names we are still fetching; the primary answers those with
/// `BadRequest`, and the whole transfer restarts against the new manifest
/// (bounded by the retry budget).
fn seed_dir(
    client: &mut EqClient,
    dir: &Path,
    policy: &RetryPolicy,
    rng: &mut StdRng,
) -> Result<(), EarthQubeError> {
    policy.run(policy.attempts, rng, || match seed_dir_once(client, dir) {
        Ok(()) => ControlFlow::Break(Ok(())),
        // BadRequest: a chunk vanished mid-transfer (the primary
        // checkpointed); transient faults: the transport hiccuped.  Both
        // warrant a fresh attempt against the current manifest.
        Err(e) if matches!(e, EarthQubeError::BadRequest(_)) || RetryPolicy::is_transient(&e) => {
            ControlFlow::Continue(e)
        }
        Err(e) => ControlFlow::Break(Err(e)),
    })
}

fn seed_dir_once(client: &mut EqClient, dir: &Path) -> Result<(), EarthQubeError> {
    let manifest_bytes = client.repl_manifest()?;
    let manifest = eq_wire::manifest::decode_manifest(&manifest_bytes).map_err(persist::corrupt)?;
    // Invalidate the old lineage before touching its files: removing the
    // manifest first means a crash at any later point leaves a directory
    // that simply seeds from scratch again.
    let old_manifest = dir.join(persist::MANIFEST_FILE);
    if old_manifest.exists() {
        std::fs::remove_file(&old_manifest)
            .map_err(|e| persist::io_error("removing the superseded manifest", e))?;
    }
    for (_, path) in persist::list_segment_files(dir)? {
        std::fs::remove_file(&path)
            .map_err(|e| persist::io_error("removing a superseded WAL segment", e))?;
    }
    for chunk in &manifest.chunks {
        // Each slice is appended as it arrives (a chunk can be hundreds of
        // megabytes) and the file is synced once, at the end.
        let io = |e| persist::io_error("writing a seeded chunk", e);
        let mut file = std::fs::File::create(dir.join(&chunk.file)).map_err(io)?;
        let mut received = 0u64;
        loop {
            let (total, part) = client.repl_chunk(&chunk.file, received, SEED_SLICE_BYTES)?;
            if part.is_empty() && received < total {
                return Err(EarthQubeError::Net(format!(
                    "chunk {} transfer stalled at {received} of {total} bytes",
                    chunk.file
                )));
            }
            file.write_all(&part).map_err(io)?;
            received += part.len() as u64;
            if received >= total {
                break;
            }
        }
        if received != chunk.len {
            // The chunk changed size under us — the manifest was replaced
            // mid-transfer.  BadRequest triggers a re-fetch of the
            // manifest in the caller's retry loop.
            return Err(EarthQubeError::BadRequest(format!(
                "chunk {} is {received} bytes, the manifest promised {}",
                chunk.file, chunk.len
            )));
        }
        file.sync_all().map_err(|e| persist::io_error("syncing a seeded chunk", e))?;
    }
    // Publish last: recovery trusts any directory whose manifest exists,
    // so the manifest must only appear once every chunk it references is
    // durable.  (Chunk content integrity is CRC-checked at recovery.)
    persist::write_manifest_file(dir, &manifest, &Faults::default())?;
    persist::sweep_orphan_chunks(dir, &manifest, &Faults::default())?;
    Ok(())
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
            segment: 3,
            offset: 400,
            primary_segment: 3,
            primary_offset: 400,
            ..ReplicaSync::default()
        };
        assert!(caught_up.caught_up());
        assert_eq!(caught_up.lag_segments(), 0);
        assert_eq!(caught_up.lag_bytes(), 0);

        let behind = ReplicaSync {
            segment: 2,
            offset: 900,
            primary_segment: 3,
            primary_offset: 250,
            ..ReplicaSync::default()
        };
        assert!(!behind.caught_up());
        assert_eq!(behind.lag_segments(), 1);
        assert_eq!(behind.lag_bytes(), 250);

        let same_segment = ReplicaSync {
            segment: 3,
            offset: 100,
            primary_segment: 3,
            primary_offset: 250,
            ..ReplicaSync::default()
        };
        assert_eq!(same_segment.lag_bytes(), 150);
    }

    #[test]
    fn cluster_client_rejects_empty_endpoint_list() {
        let err = ClusterClient::new(Vec::<String>::new(), RetryPolicy::default());
        assert!(matches!(err, Err(EarthQubeError::BadRequest(_))));
    }

    /// Snapshot seeding reads a chunk slice by slice: whatever the slicing,
    /// the slices concatenate to the file and each reports the same total.
    #[test]
    fn chunk_slices_concatenate_to_the_file() {
        use eq_bigearthnet::{ArchiveGenerator, GeneratorConfig};
        let dir = std::env::temp_dir().join(format!("eq_repl_slices_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(6, 77)).unwrap().generate();
        let mut config = crate::EarthQubeConfig::fast(77);
        config.train_model = false;
        let server = QueryServer::build(&archive, config, crate::ServeConfig::default()).unwrap();
        server.checkpoint(&dir).unwrap();

        let manifest =
            eq_wire::manifest::decode_manifest(&server.repl_manifest_bytes().unwrap()).unwrap();
        let chunk = manifest.chunks.iter().max_by_key(|c| c.len).unwrap();
        let bytes = std::fs::read(dir.join(&chunk.file)).unwrap();
        let total = bytes.len() as u64;
        assert_eq!(total, chunk.len);
        let step = total / 3 + 1; // two full slices and a short last one
        assert!(step > 1 && step * 2 < total && step * 3 > total);

        let mut seen = Vec::new();
        for offset in [0, step, 2 * step] {
            let (reported, slice) = server.repl_chunk_bytes(&chunk.file, offset, step).unwrap();
            assert_eq!(reported, total);
            assert_eq!(slice.len() as u64, step.min(total - offset));
            seen.extend(slice);
        }
        assert_eq!(seen, bytes);
        for offset in [total, total + 10] {
            let (reported, slice) = server.repl_chunk_bytes(&chunk.file, offset, step).unwrap();
            assert_eq!((reported, slice.len()), (total, 0), "at or past EOF");
        }
        // A name the manifest does not reference is refused, not read.
        assert!(matches!(
            server.repl_chunk_bytes("wal.lock", 0, step),
            Err(EarthQubeError::BadRequest(_))
        ));
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_retries_policy_is_single_attempt() {
        assert_eq!(RetryPolicy::no_retries().attempts, 1);
    }
}
