//! The durable tier's one owner.  A [`Durability`] is a server's connection
//! to a persistence directory, and the only code that appends to the
//! write-ahead log or cuts a checkpoint;
//! [`QueryServer`] keeps the catalog side of every write and calls the
//! verbs below.  File formats and file I/O are the crate's `persist` module.
//!
//! **The WAL policy** is [`WalBatch`], which a write holds throughout: its
//! records are appended and made durable by one `fdatasync` before any of
//! them is applied; a failed append or sync applies nothing and *detaches*
//! the log (the server keeps serving from memory until the next successful
//! checkpoint), so nothing is ever written after a gap; the live segment is
//! sealed only between synced writes, so a torn tail can only exist in the
//! last segment of a chain.
//!
//! **The checkpoint protocol** is one sequence, [`Durability::checkpoint`]:
//! *cut → write chunks → publish manifest → commit attachment → retire and
//! sweep*.  A checkpoint is the static chunk plus the log, compacted: each
//! of the two record sequences (ingest records by dense id, feedback
//! records by feedback id) is persisted as append-only runs of records
//! chunks, and the attachment counts how many records of each the
//! published chunks hold.  A checkpoint into the attached directory
//! continues the lineage and writes each sequence's records past its
//! count, or the whole sequence from 0 once `RUN_COMPACT_THRESHOLD` runs
//! are stacked.  A **new lineage** (detached server, foreign directory,
//! promotion, a replica seeding, or a directory recovered from the legacy
//! chunk format) is the same protocol from 0: the static chunk, both
//! sequences in full, an empty base chunk list, a generation tag (a fresh
//! one, or the followed primary's, see [`Lineage`]) and a segment
//! numbering above every file on disk.  The one difference is lock scope,
//! explained where the paths part.  Nothing derived is written: recovery
//! applies the records to an empty catalog, which rebuilds the arena and
//! the metadata postings as live writes built them.  The atomic
//! rename of the manifest is the commit point: a failure before it leaves
//! the old manifest, the old attachment and both counts in force, so there
//! is nothing to restore; after it, at worst retired segments and orphan
//! chunks are left behind, which recovery ignores.

use std::borrow::Cow;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use eq_wire::manifest::{ChunkEntry, Manifest};
use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::catalog::Catalog;
use crate::persist::{self, ChainTail, DirLock, Faults, Sequence, WalWriter, SEGMENT_HEADER_LEN};
use crate::serve::QueryServer;
use crate::EarthQubeError;

/// Rotate the live WAL segment once it outgrows this many bytes
/// (overridable per server with `QueryServer::set_segment_limit`).
const DEFAULT_SEGMENT_LIMIT: u64 = 4 * 1024 * 1024;

/// Rewrite a record sequence from 0 as one run once this many of its runs
/// are stacked — recovery cost stays bounded and superseded chunks get
/// swept.
pub(crate) const RUN_COMPACT_THRESHOLD: usize = 8;

/// What kind of work a [`QueryServer::checkpoint`] call ended up doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// A new lineage: the static chunk and every record (the index and
    /// the metadata postings are rebuilt from them on recovery, never
    /// written).
    Full,
    /// Only the records past the previous checkpoint were written.
    Incremental,
    /// No record was new; no bytes were written.
    Skipped,
}

/// What a [`QueryServer::checkpoint`] call wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Which lineage decision the checkpoint took.
    pub kind: CheckpointKind,
    /// Bytes written to chunk files plus the manifest.
    pub bytes_written: u64,
    /// Number of chunk files written.
    pub chunks_written: u64,
    /// WAL segments retired (deleted) because the new manifest no longer
    /// needs them.
    pub segments_retired: u64,
}

/// Counters of the background checkpointer (separate from `ServerStats`,
/// whose shape is frozen into the wire protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointerStats {
    /// Wake-ups of the background thread.
    pub passes: u64,
    /// Passes that wrote a checkpoint (full or incremental).
    pub completed: u64,
    /// Passes that found nothing dirty (or no attachment) and skipped.
    pub skipped: u64,
    /// Passes whose checkpoint attempt failed.
    pub failures: u64,
}

struct CheckpointerHandle {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

/// A live connection to a persistence directory: the exclusive directory
/// lock, the published manifest (what the *next* checkpoint is derived
/// from) and the open tail segment of the WAL.
struct Attachment {
    dir: PathBuf,
    /// The manifest currently published in `dir`.
    manifest: Manifest,
    /// Index of the live (tail) segment `writer` appends to.
    segment_index: u32,
    /// Current byte length of the live segment (header included).
    segment_bytes: u64,
    writer: WalWriter,
    /// How many records of each [`Sequence`] the published chunks hold.
    persisted: [usize; 2],
    lock: DirLock,
}

impl Attachment {
    /// The one place an attachment is built: by recovery over the reopened
    /// tail of a chain, by a new lineage over its first segment.
    fn open(
        dir: &Path,
        lock: DirLock,
        manifest: Manifest,
        (segment_index, segment_bytes, writer): (u32, u64, WalWriter),
        persisted: [usize; 2],
    ) -> Self {
        Attachment {
            dir: dir.to_path_buf(),
            manifest,
            segment_index,
            segment_bytes,
            writer,
            persisted,
            lock,
        }
    }

    /// Seals the live segment and opens the next one.  The caller must
    /// have synced the live segment first: rotation only ever happens at a
    /// batch boundary, so sealed segments are always clean-ended.
    fn rotate(&mut self, faults: &Faults) -> Result<(), EarthQubeError> {
        let next = self.segment_index + 1;
        self.writer = WalWriter::create(&self.dir, self.manifest.generation, next, faults)?;
        self.segment_index = next;
        self.segment_bytes = SEGMENT_HEADER_LEN;
        Ok(())
    }

    /// Whether the published manifest lists legacy chunks, which the next
    /// checkpoint replaces with a new lineage in place.
    fn is_legacy(&self) -> bool {
        self.manifest.chunks.iter().any(|c| crate::legacy::is_kind(&c.kind))
    }
}

/// Which lineage a checkpoint writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lineage {
    /// The attached one, when the checkpoint goes to its directory; a new
    /// one under a fresh generation anywhere else.
    Continue,
    /// A new one under a fresh generation, which fences the old one off:
    /// a promotion.
    Fresh,
    /// A new one under the given generation: a replica seeding from its
    /// primary, whose lineage it follows.
    Follow(u32),
}

/// The WAL for one write.  Taken first and held to the end of the write,
/// so writers serialise here and take the catalog lock inside it.  On a
/// detached server every verb is a no-op.
pub(crate) struct WalBatch<'a> {
    wal: MutexGuard<'a, Option<Attachment>>,
    owner: &'a Durability,
}

impl WalBatch<'_> {
    /// Appends every payload and makes them durable with one `fdatasync`,
    /// which a write awaits before it applies any.  A failed append or sync
    /// detaches the log, so nothing is ever written after a gap.
    pub(crate) fn log(
        &mut self,
        payloads: impl IntoIterator<Item = Vec<u8>>,
    ) -> Result<(), EarthQubeError> {
        let (Some(att), faults) = (self.wal.as_mut(), &self.owner.faults) else { return Ok(()) };
        let mut appended = false;
        let mut logged = payloads.into_iter().try_for_each(|payload| {
            faults.check("wal-append")?;
            att.segment_bytes += att.writer.append(&payload)?;
            appended = true;
            Ok(())
        });
        if appended && logged.is_ok() {
            logged = faults.check("wal-sync").and_then(|()| att.writer.sync());
        }
        if logged.is_err() {
            *self.wal = None;
        }
        logged
    }

    /// Seals the live segment once it outgrows the limit, after a whole
    /// synced write, so sealed segments are clean-ended.  Best effort: on
    /// failure the oversized segment stays live and the next write retries.
    pub(crate) fn seal(&mut self) {
        let Some(att) = self.wal.as_mut() else { return };
        if att.segment_bytes >= self.owner.segment_limit.load(Ordering::Relaxed) {
            let _ = att.rotate(&self.owner.faults);
        }
    }
}

/// What a new lineage carries from its cut to its commit.
struct NewLineage {
    /// Its first segment, created before the manifest names it.
    writer: WalWriter,
    static_body: Vec<u8>,
    /// The target directory's lock; `None` when this component holds that
    /// directory already (promotion) and the held lock is reused.
    dir_lock: Option<DirLock>,
}

/// What one checkpoint cut decided, under both locks.
struct Cut {
    /// The manifest to publish; so far it lists the chunks inherited from
    /// the published one (none for a new lineage).  Its `first_segment` is
    /// the segment the cut opened, where post-cut records land.
    manifest: Manifest,
    fresh: Option<NewLineage>,
    /// The records of each [`Sequence`] to write; a run that starts at 0
    /// supersedes every published chunk of its sequence.
    runs: [Range<usize>; 2],
}

impl Cut {
    /// Each sequence with records to write, and where its run starts.
    fn runs(&self) -> impl Iterator<Item = (Sequence, usize)> + '_ {
        let runs = Sequence::ALL.into_iter().zip(&self.runs);
        runs.filter(|(_, run)| !run.is_empty()).map(|(seq, run)| (seq, run.start))
    }
}

fn detached_mid_checkpoint() -> EarthQubeError {
    EarthQubeError::Persist("the persistence attachment was detached mid-checkpoint".into())
}

/// The durable tier of one server: see the module docs.
pub(crate) struct Durability {
    /// The persistence attachment; `None` for a purely in-memory server.
    /// Lock order: before the catalog lock (a write, the checkpoint cut),
    /// never inside it.
    wal: Mutex<Option<Attachment>>,
    /// Serialises whole checkpoints (manual calls and the background
    /// checkpointer).  Lock order: before `wal` and the catalog lock.
    ckpt_serial: Mutex<()>,
    /// The background checkpointer thread, if one is running.  Never held
    /// while taking any other lock.
    checkpointer: Mutex<Option<CheckpointerHandle>>,
    checkpointer_stats: Mutex<CheckpointerStats>,
    /// WAL segment rotation threshold in bytes.
    segment_limit: AtomicU64,
    faults: Faults,
}

impl Durability {
    /// A detached component: nothing is logged until the first checkpoint
    /// or [`attach`](Self::attach).
    pub(crate) fn new() -> Self {
        Durability {
            wal: Mutex::with_name(None, "wal"),
            ckpt_serial: Mutex::with_name((), "ckpt-serial"),
            checkpointer: Mutex::with_name(None, "checkpointer"),
            checkpointer_stats: Mutex::default(),
            segment_limit: AtomicU64::new(DEFAULT_SEGMENT_LIMIT),
            faults: Faults::default(),
        }
    }

    /// The attachment's generation, with what `f` computes under the WAL
    /// lock — a catalog read guard taken there shows only what the log
    /// holds — for the replication serving methods: the one place
    /// "detached" becomes their error.
    pub(crate) fn serving<R>(&self, f: impl FnOnce() -> R) -> Result<(u32, R), EarthQubeError> {
        let wal = self.wal.lock();
        let att = wal.as_ref().ok_or_else(|| {
            EarthQubeError::Persist("serving replication requires a persistence attachment".into())
        })?;
        Ok((att.manifest.generation, f()))
    }

    /// Opens the WAL for one write.  A replica's write on a detached log is
    /// refused here, before anything: a replica serves only what its own
    /// log holds.
    pub(crate) fn begin(&self, replica: bool) -> Result<WalBatch<'_>, EarthQubeError> {
        let wal = self.wal.lock();
        if replica && wal.is_none() {
            return Err(EarthQubeError::Persist(
                "the replica has no persistence attachment".into(),
            ));
        }
        Ok(WalBatch { wal, owner: self })
    }

    /// Attaches a recovered directory: reopens (or creates) the tail
    /// segment of its chain and resumes appending there.
    pub(crate) fn attach(
        &self,
        dir: &Path,
        lock: DirLock,
        manifest: Manifest,
        tail: ChainTail,
        persisted: [usize; 2],
    ) -> Result<(), EarthQubeError> {
        let live = match tail {
            ChainTail::Reopen { index, valid_len } => {
                let path = dir.join(persist::segment_file_name(index));
                (index, valid_len, WalWriter::open_truncated(&path, valid_len)?)
            }
            ChainTail::Create { index } => {
                let generation = manifest.generation;
                let writer = WalWriter::create(dir, generation, index, &self.faults)?;
                (index, SEGMENT_HEADER_LEN, writer)
            }
        };
        *self.wal.lock() = Some(Attachment::open(dir, lock, manifest, live, persisted));
        Ok(())
    }

    /// Checkpoints `catalog` into `dir` by the protocol of the module docs,
    /// in the [`Lineage`] asked for.  `static_chunk` encodes configuration
    /// and model, which only a new lineage writes.
    pub(crate) fn checkpoint(
        &self,
        catalog: &RwLock<Catalog>,
        dir: &Path,
        lineage: Lineage,
        static_chunk: impl FnOnce() -> Vec<u8>,
    ) -> Result<CheckpointStats, EarthQubeError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| persist::io_error("creating the persistence directory", e))?;
        let _serial = self.ckpt_serial.lock();
        let held = self.wal.lock().as_ref().is_some_and(|att| att.dir == dir);
        // Attaching needs the directory's exclusive lock; take it up front,
        // so a directory another live instance serves is refused before any
        // state is cut.  A directory this component already holds (reached
        // through the same path spelling) keeps its lock.
        let dir_lock = if held { None } else { Some(persist::lock_dir(dir)?) };

        // ---- The cut: under the wal lock and a catalog read guard ----
        let mut wal = self.wal.lock();
        let core = catalog.read();
        let continuing = held
            && lineage == Lineage::Continue
            && !wal.as_ref().is_some_and(Attachment::is_legacy);
        let new = (!continuing).then_some(lineage);
        let Some(cut) = self.cut(&core, wal.as_mut(), dir, new, dir_lock, static_chunk)? else {
            return Ok(CheckpointStats {
                kind: CheckpointKind::Skipped,
                bytes_written: 0,
                chunks_written: 0,
                segments_retired: 0,
            });
        };

        // ---- Chunk I/O and manifest publish ----
        let runs = cut.runs().map(|(seq, start)| -> Piece<'_> {
            Ok((seq.kind(start), core.encode_records(seq, start, None)?.into()))
        });
        let (published, guards) = if continuing {
            // Post-cut writes land in the segment the cut opened, so copy
            // the record tail and release both locks before any I/O.
            let tail: Result<Vec<_>, _> = runs.collect();
            drop(core);
            drop(wal);
            (tail.and_then(|tail| self.publish(dir, &cut, tail.into_iter().map(Ok))), None)
        } else {
            // A new lineage has no segment a post-cut write could land in
            // until its manifest is committed: it keeps both guards until
            // then (writers wait on the wal lock, readers keep running),
            // and so encodes from the catalog in place, one chunk body at a
            // time, instead of copying it.
            let statics = cut.fresh.iter().map(|fresh| -> Piece<'_> {
                Ok((persist::kind_static(), fresh.static_body.as_slice().into()))
            });
            (self.publish(dir, &cut, statics.chain(runs)), Some((core, wal)))
        };
        // A failure leaves the old manifest, attachment and counts in
        // force: the next checkpoint retries the same work.
        let (bytes_written, chunks_written, manifest) = published?;

        // ---- Committed: the attachment follows the new manifest ----
        let mut wal = guards.map_or_else(|| self.wal.lock(), |(_, wal)| wal);
        let kind = if continuing { CheckpointKind::Incremental } else { CheckpointKind::Full };
        let persisted = cut.runs.clone().map(|run| run.end);
        if let Some(NewLineage { writer, dir_lock, .. }) = cut.fresh {
            // Replacing the attachment detaches from the old directory and
            // releases its lock, unless that lock is the one reused.
            let lock = match (dir_lock, wal.take()) {
                (Some(lock), _) => lock,
                (None, Some(old)) => old.lock,
                (None, None) => return Err(detached_mid_checkpoint()),
            };
            let live = (manifest.first_segment, SEGMENT_HEADER_LEN, writer);
            *wal = Some(Attachment::open(dir, lock, manifest.clone(), live, persisted));
        } else if let Some(att) = wal.as_mut() {
            att.manifest = manifest.clone();
            att.persisted = persisted;
        }
        drop(wal);

        // ---- Post-publish GC: covered segments, earlier lineages' (they
        // sort below a new lineage's first) and unreferenced chunks. ----
        let segments_retired = persist::retire_segments(dir, manifest.first_segment, &self.faults)?;
        persist::sweep_orphan_chunks(dir, &manifest, &self.faults)?;
        Ok(CheckpointStats { kind, bytes_written, chunks_written, segments_retired })
    }

    /// The state cut: opens the segment post-cut records land in, and
    /// picks each sequence's run: from its persisted count, or from 0 when
    /// compacting or starting the `new` lineage.  `None` when a continuing
    /// lineage has no new record.
    fn cut(
        &self,
        core: &Catalog,
        att: Option<&mut Attachment>,
        dir: &Path,
        new: Option<Lineage>,
        dir_lock: Option<DirLock>,
        static_chunk: impl FnOnce() -> Vec<u8>,
    ) -> Result<Option<Cut>, EarthQubeError> {
        let ends = Sequence::ALL.map(|seq| core.record_count(seq));
        let (manifest, starts, fresh) = if let Some(lineage) = new {
            if dir_lock.is_none() && att.is_none() {
                return Err(detached_mid_checkpoint());
            }
            // Interrupted earlier lineages may have left segments behind; a
            // unique generation (or the followed primary's) *and* a
            // numbering above every file on disk keep recovery from ever
            // confusing their records with this lineage's.  The first
            // segment exists before the manifest names it, so a published
            // manifest always finds its chain.
            let seq = persist::read_manifest(dir)?.map_or(1, |m| m.seq + 1);
            let static_body = static_chunk();
            let generation = match lineage {
                Lineage::Follow(generation) => generation,
                _ => persist::unique_generation(dir, persist::generation_nonce()),
            };
            let first_segment = persist::next_free_segment_index(dir)?;
            let writer = WalWriter::create(dir, generation, first_segment, &self.faults)?;
            let manifest = Manifest { seq, generation, first_segment, chunks: Vec::new() };
            (manifest, [0, 0], Some(NewLineage { writer, static_body, dir_lock }))
        } else {
            let att = att.ok_or_else(detached_mid_checkpoint)?;
            if att.persisted.iter().zip(ends).all(|(&persisted, end)| persisted >= end) {
                return Ok(None);
            }
            // Seal the live segment: records before the cut are covered by
            // the chunks about to be written, records after it land in the
            // segment the new manifest starts from.
            att.rotate(&self.faults)?;
            let (seq, first_segment) = (att.manifest.seq + 1, att.segment_index);
            let starts = Sequence::ALL.map(|sequence| {
                let persisted = att.persisted[sequence as usize];
                let stacked = att.manifest.chunks.iter().filter(|c| sequence.files(&c.kind));
                let compact =
                    persisted < ends[sequence as usize] && stacked.count() >= RUN_COMPACT_THRESHOLD;
                if compact {
                    0
                } else {
                    persisted
                }
            });
            (Manifest { seq, first_segment, ..att.manifest.clone() }, starts, None)
        };
        let runs = [0, 1].map(|i| starts[i]..ends[i]);
        Ok(Some(Cut { manifest, fresh, runs }))
    }

    /// Writes the chunks `pieces` yields, one body in memory at a time,
    /// then derives and publishes the manifest.  Returns the bytes and
    /// chunks written, and the manifest.
    fn publish<'p>(
        &self,
        dir: &Path,
        cut: &Cut,
        pieces: impl Iterator<Item = Piece<'p>>,
    ) -> Result<(u64, u64, Manifest), EarthQubeError> {
        let mut written: Vec<ChunkEntry> = Vec::new();
        for piece in pieces {
            let (kind, body) = piece?;
            let file = persist::chunk_file_name(cut.manifest.seq, written.len() as u32);
            written.push(persist::write_chunk_file(dir, &file, &kind, &body, &self.faults)?);
        }
        // Derive the manifest from the published base: a run from 0
        // supersedes every chunk of its sequence, and retired kinds go;
        // everything new is appended, so each sequence's chunks stay in
        // ascending start order.
        let mut manifest = cut.manifest.clone();
        let superseded = |kind: &str| {
            persist::is_retired_kind(kind)
                || cut.runs().any(|(seq, start)| start == 0 && seq.files(kind))
        };
        manifest.chunks.retain(|c| !superseded(&c.kind));
        let (chunk_bytes, chunks) = (written.iter().map(|c| c.len).sum::<u64>(), written.len());
        manifest.chunks.append(&mut written);
        let manifest_bytes = persist::write_manifest_file(dir, &manifest, &self.faults)?;
        Ok((chunk_bytes + manifest_bytes, chunks as u64, manifest))
    }
}

/// One chunk to write: its manifest kind and its body.
type Piece<'p> = Result<(String, Cow<'p, [u8]>), EarthQubeError>;

/// The part of the server's public surface that is the component's alone.
impl QueryServer {
    /// The persistence directory this server is attached to, if any.
    pub fn attached_dir(&self) -> Option<PathBuf> {
        self.durability.wal.lock().as_ref().map(|att| att.dir.clone())
    }

    /// Overrides the WAL segment rotation threshold, in bytes (default
    /// 4 MiB).  Smaller segments retire sooner after a checkpoint at the
    /// cost of more files; mainly useful for tests and experiments.
    pub fn set_segment_limit(&self, bytes: u64) {
        self.durability.segment_limit.store(bytes.max(SEGMENT_HEADER_LEN + 1), Ordering::Relaxed);
    }

    /// This server's crash plan (test builds only): arm one of
    /// [`failpoints::ALL_POINTS`](crate::failpoints::ALL_POINTS) and this
    /// server's next checkpoint dies at that I/O boundary.
    #[cfg(feature = "failpoints")]
    pub fn failpoints(&self) -> &crate::failpoints::Plan {
        &self.durability.faults.plan
    }

    /// Starts the background checkpointer: a thread that wakes every
    /// `interval` (or immediately on [`trigger_checkpoint`](Self::trigger_checkpoint))
    /// and runs [`checkpoint_if_dirty`](Self::checkpoint_if_dirty).  The
    /// thread holds only a weak reference, so it never keeps a dropped
    /// server alive; it exits when the server is dropped or
    /// [`stop_checkpointer`](Self::stop_checkpointer) is called.
    ///
    /// # Errors
    /// Fails if a checkpointer is already running or the thread cannot be
    /// spawned.
    pub fn start_checkpointer(self: &Arc<Self>, interval: Duration) -> Result<(), EarthQubeError> {
        let stop = Arc::new(AtomicBool::new(false));
        let (thread_stop, weak) = (Arc::clone(&stop), Arc::downgrade(self));
        // The thread's body, which runs under none of this function's locks.
        let body = move || loop {
            std::thread::park_timeout(interval);
            if thread_stop.load(Ordering::Acquire) {
                break;
            }
            let Some(server) = weak.upgrade() else { break };
            let outcome = server.checkpoint_if_dirty();
            let mut stats = server.durability.checkpointer_stats.lock();
            stats.passes += 1;
            match outcome {
                Ok(Some(_)) => stats.completed += 1,
                Ok(None) => stats.skipped += 1,
                Err(_) => stats.failures += 1,
            }
        };
        let mut slot = self.durability.checkpointer.lock();
        if slot.is_some() {
            return Err(EarthQubeError::BadRequest(
                "a background checkpointer is already running".into(),
            ));
        }
        let thread =
            std::thread::Builder::new().name("eq-checkpointer".into()).spawn(body).map_err(
                |e| EarthQubeError::Persist(format!("spawning the checkpointer thread: {e}")),
            )?;
        *slot = Some(CheckpointerHandle { stop, thread });
        Ok(())
    }

    /// Stops and joins the background checkpointer, if one is running.  An
    /// in-flight checkpoint pass finishes first; no new pass starts.
    pub fn stop_checkpointer(&self) {
        let handle = self.durability.checkpointer.lock().take();
        if let Some(CheckpointerHandle { stop, thread }) = handle {
            stop.store(true, Ordering::Release);
            thread.thread().unpark();
            // The last `Arc` can die *inside* a checkpointer pass, in
            // which case drop (and thus this method) runs on the
            // checkpointer thread itself — joining would self-deadlock.
            if thread.thread().id() != std::thread::current().id() {
                let _ = thread.join();
            }
        }
    }

    /// Wakes the background checkpointer immediately instead of waiting
    /// for its next interval tick.  A no-op if none is running.
    pub fn trigger_checkpoint(&self) {
        if let Some(handle) = self.durability.checkpointer.lock().as_ref() {
            handle.thread.thread().unpark();
        }
    }

    /// A snapshot of the background-checkpointer counters.
    pub fn checkpointer_stats(&self) -> CheckpointerStats {
        *self.durability.checkpointer_stats.lock()
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        self.stop_checkpointer();
    }
}
