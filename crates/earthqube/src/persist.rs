//! The durable storage tier: checkpoints and a segmented write-ahead log.
//!
//! EarthQube in the paper serves a continuously growing archive; losing the
//! docstore, the CBIR index and the trained MiLaN codes on every restart
//! would mean re-ingesting and re-encoding from scratch.  Every write is
//! one WAL record, and a checkpoint is the log, compacted: the static part
//! (configuration and trained model) plus the records themselves, in
//! append-only runs, so a checkpoint after a small ingest writes only the
//! new records.  A persistence directory holds four kinds of files (the
//! public entry points are [`QueryServer::checkpoint`],
//! [`QueryServer::recover`] and
//! [`QueryServer::open`](crate::serve::QueryServer::open)):
//!
//! * **Manifest** (`manifest.eqm`) — the commit point.  A small CRC-framed
//!   record (see [`eq_wire::manifest`], magic `EQMANI01`) listing every
//!   chunk file of the current checkpoint (name, kind, length, CRC-32),
//!   the checkpoint sequence number, the WAL *generation* tag and the
//!   first live WAL segment.  It is written to a temporary file, synced,
//!   and atomically renamed into place: a checkpoint is published when the
//!   rename lands, and never half-published.
//!
//! * **Chunks** (`chunk-SSSSSS-OOO.eqc`, magic `EQCHNK01`) — the checkpoint
//!   payload: one static chunk, and records chunks, each a run of WAL record
//!   payloads in the WAL's own encoding after the run's start position.
//!   The records form two sequences, each tiled from 0 by its own chunks in
//!   manifest order: ingest records by dense id (manifest kind
//!   `ingest:START`) and feedback records by feedback id (`feedback:START`).
//!   A checkpoint appends one run per sequence that grew, and rewrites a
//!   sequence from 0 as one run once `RUN_COMPACT_THRESHOLD` runs are
//!   stacked.  Nothing derived is persisted: recovery applies the records
//!   to an empty catalog, which rebuilds the metadata collection, its
//!   indexes, the name→code table and the code arena as the writer built
//!   them.  A chunk file not named by the published manifest is a harmless
//!   orphan (a crashed checkpoint) and is swept by the next successful one.
//!
//!   ```text
//!   chunk  := "EQCHNK01" body_len:u64 body crc32(body):u32
//!   body   := 1 engine_config serve_config milan_model        (static)
//!           | 6 start:u64 payload*                           (records)
//!   ```
//!
//!   A payload is a WAL record's, byte for byte (grammar below); records
//!   are self-delimiting, so a run holds them back to back.  The static
//!   body carries the MiLaN configuration twice, first inside
//!   `engine_config` and then at the head of `milan_model`; a body whose
//!   two copies differ in any byte is refused.
//!
//!   Tags 2–4 are the legacy format, owned and only read by the crate's
//!   `legacy` module: a full collection (`coll:NAME`), a collection delta
//!   (`delta:NAME`) and a dense-id range of patch metadata and codes
//!   (`images:START`).  Recovery translates them into the same records,
//!   and the next checkpoint starts a new lineage in place, so no manifest
//!   mixes the two formats.  Tag 5 (manifest kind `shard:N`) held one index
//!   shard; it is retired and must never be reused: recovery skips `shard:`
//!   entries unread, and the next checkpoint drops them from the manifest,
//!   so their files are swept.
//!
//! * **WAL segments** (`wal.NNNN.eqw`, magic `EQWSEG01`) — the write-ahead
//!   log, rotated into bounded segments instead of one endless file.  Each
//!   segment header carries the generation tag and its own index; records
//!   are framed with a length and a per-record CRC-32, so a torn tail (the
//!   crash happened mid-`write`) is detected and cleanly discarded on
//!   recovery.  A checkpoint *cut* seals the live segment and starts the
//!   next one; segments below the manifest's `first_segment` are covered
//!   by the checkpoint and retired (deleted) after it publishes.
//!
//!   ```text
//!   segment  := "EQWSEG01" generation:u32 segment_index:u32 record*
//!   record   := len:u32 crc32(payload):u32 payload[len]
//!   payload  := 1 patch_metadata code image_doc rendered_doc   (ingest)
//!             | 2 text:string category:u8 [string]             (feedback)
//!   ```
//!
//! * **Directory lock** (`wal.lock`) — an advisory exclusive file lock held
//!   for the lifetime of an attached server, so a directory serves exactly
//!   one live writer.  The OS releases it when the holder dies, so a
//!   crashed server never wedges its directory.
//!
//! The `generation` tag names the checkpoint *lineage*: it is constant
//! across incremental checkpoints and re-stamped only by a new lineage.  A
//! segment tagged with a foreign generation is debris from an interrupted
//! lineage switch; recovery ignores it when (and only when) it trails the
//! live chain.  Appends are made durable with `fdatasync`, and every chunk
//! and the manifest are synced before the rename publishes them — `flush`
//! alone would not survive a power loss.
//!
//! This module is formats and file I/O only.  Who writes what when — the
//! WAL policy, the checkpoint protocol — is the crate's `durability`
//! module; recovery is [`QueryServer::recover`].  With the `failpoints`
//! feature (test builds only) every I/O helper that declares a crash point
//! takes the server's `failpoints::Plan` and fails *before* its
//! write/sync/rename when that point is armed.
//!
//! [`QueryServer::checkpoint`]: crate::serve::QueryServer::checkpoint
//! [`QueryServer::recover`]: crate::serve::QueryServer::recover

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use eq_bigearthnet::patch::PatchMetadata;
use eq_bigearthnet::wire::{decode_patch_metadata, encode_patch_metadata};
use eq_docstore::{wire, Document};
use eq_hashindex::BinaryCode;
use eq_milan::persist::{
    decode_config as decode_milan_config, encode_config as encode_milan_config,
};
use eq_milan::{Milan, MilanConfig};
use eq_wire::manifest::{decode_manifest, encode_manifest, ChunkEntry, Manifest};
use eq_wire::{crc32, Reader, WireError, Writer};

use crate::engine::EarthQubeConfig;
use crate::legacy::{self, Legacy};
use crate::serve::ServeConfig;
use crate::EarthQubeError;

/// Manifest file name inside a persistence directory (the commit point).
pub(crate) const MANIFEST_FILE: &str = "manifest.eqm";
/// Scratch name the manifest is written under before the atomic rename.
const MANIFEST_TMP_FILE: &str = "manifest.eqm.tmp";
/// The advisory directory lock taken by an attached server.
pub(crate) const LOCK_FILE: &str = "wal.lock";

const CHUNK_MAGIC: &[u8; 8] = b"EQCHNK01";
const SEGMENT_MAGIC: &[u8; 8] = b"EQWSEG01";
/// Segment header: magic, generation tag, segment index.
pub(crate) const SEGMENT_HEADER_LEN: u64 = 16;

const CHUNK_STATIC: u8 = 1;
// Tags 2–4 are the legacy format (`crate::legacy`).
// Tag 5 is retired (index shards): never reuse it.
const CHUNK_RECORDS: u8 = 6;

const RECORD_INGEST: u8 = 1;
const RECORD_FEEDBACK: u8 = 2;

// ---------------------------------------------------------------------------
// Crash-point injection
// ---------------------------------------------------------------------------

/// Test-only crash-point injection, compiled out of release builds of the
/// library (the `failpoints` cargo feature is only enabled by the
/// workspace's dev-dependencies).
///
/// Every server carries its own [`Plan`](failpoints::Plan), reached through
/// `QueryServer::failpoints`, with at most one point armed at a time; when
/// that server's persistence code reaches it, the I/O helper returns an
/// error *before* performing its write/sync/rename, leaving the directory
/// in exactly the state a crash at that boundary would.  The test suites arm
/// each of [`ALL_POINTS`](failpoints::ALL_POINTS) and `WRITE_POINTS` in turn.
#[cfg(feature = "failpoints")]
pub mod failpoints {
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The checkpoint matrix: every crash point a checkpoint, or the segment
    /// creation it shares with rotation, can reach, in the order the helpers
    /// declare them.  The crash-point suite iterates this list so a newly
    /// added point can never be silently skipped.
    pub const ALL_POINTS: &[&str] = &[
        "segment-precreate",
        "segment-header-sync",
        "segment-dir-sync",
        "chunk-write",
        "chunk-sync",
        "manifest-write",
        "manifest-sync",
        "manifest-rename",
        "manifest-dir-sync",
        "wal-retire",
        "chunk-gc",
    ];

    /// The write path's points: before a write's WAL append, before its
    /// sync.  [`Plan::arm`] takes them like the checkpoint matrix's.
    pub const WRITE_POINTS: &[&str] = &["wal-append", "wal-sync"];

    /// One server's crash plan: which point is armed, and how often an
    /// armed point fired.
    #[derive(Debug, Default)]
    pub struct Plan {
        /// `0` = disarmed; `i + 1` = point `i` of `ALL_POINTS`, then `WRITE_POINTS`.
        armed: AtomicUsize,
        fired: AtomicUsize,
    }

    impl Plan {
        /// Arms the named point (disarming any other); returns whether the
        /// name is a declared point.
        pub fn arm(&self, name: &str) -> bool {
            let index = ALL_POINTS.iter().chain(WRITE_POINTS).position(|p| *p == name);
            self.armed.store(index.map_or(0, |i| i + 1), Ordering::Release);
            index.is_some()
        }

        /// Disarms whatever point is armed.
        pub fn disarm(&self) {
            self.armed.store(0, Ordering::Release);
        }

        /// How many times an armed point of this server has fired.
        pub fn fired_count(&self) -> usize {
            self.fired.load(Ordering::Acquire)
        }

        /// Whether the named point is armed (bumping the fired counter if so).
        pub(crate) fn should_fail(&self, name: &str) -> bool {
            let armed = self.armed.load(Ordering::Acquire);
            let hit =
                armed > 0 && ALL_POINTS.iter().chain(WRITE_POINTS).nth(armed - 1) == Some(&name);
            if hit {
                self.fired.fetch_add(1, Ordering::AcqRel);
            }
            hit
        }
    }
}

/// The crash points of one server, handed to every I/O helper that declares
/// one: a `failpoints::Plan` with the `failpoints` feature, and nothing at
/// all (every check compiles out) without it.
#[derive(Debug, Default)]
pub(crate) struct Faults {
    #[cfg(feature = "failpoints")]
    pub(crate) plan: failpoints::Plan,
}

impl Faults {
    /// Fails when `point` is armed: the caller's "crash" at that boundary.
    pub(crate) fn check(&self, point: &str) -> Result<(), EarthQubeError> {
        #[cfg(feature = "failpoints")]
        if self.plan.should_fail(point) {
            return Err(EarthQubeError::Persist(format!("injected crash at failpoint `{point}`")));
        }
        #[cfg(not(feature = "failpoints"))]
        let _ = point;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Error helpers
// ---------------------------------------------------------------------------

/// Maps a wire-format error into the crate error type.
pub(crate) fn corrupt(e: WireError) -> EarthQubeError {
    EarthQubeError::Persist(format!("corrupt persistent state: {e}"))
}

/// Maps an I/O error into the crate error type.
pub(crate) fn io_error(context: &str, e: std::io::Error) -> EarthQubeError {
    EarthQubeError::Persist(format!("{context}: {e}"))
}

// ---------------------------------------------------------------------------
// Shared field encoders
// ---------------------------------------------------------------------------
// The `PatchMetadata` codec lives in `eq_bigearthnet::wire` (it is shared
// with the `eq_proto` network protocol); the chunk and WAL layouts import
// it so both byte formats stay identical by construction.

/// Two retired slots of the static chunk, a default radius and a default
/// `k` that no query read: written as their last values, read and ignored.
const RETIRED_RADIUS: u32 = 8;
const RETIRED_K: u64 = 20;

fn encode_engine_config(config: &EarthQubeConfig, w: &mut Writer) {
    encode_milan_config(&config.milan, w);
    w.u32(RETIRED_RADIUS);
    w.u64(RETIRED_K);
    w.u64(config.page_size as u64);
    w.bool(config.train_model);
}

fn decode_engine_config(r: &mut Reader<'_>) -> Result<EarthQubeConfig, WireError> {
    let milan = decode_milan_config(r)?;
    let (_retired_radius, _retired_k) = (r.u32()?, r.u64()?);
    let page_size = r.u64()? as usize;
    let train_model = r.bool()?;
    Ok(EarthQubeConfig { milan, page_size, train_model })
}

/// A MiLaN configuration as the static chunk encodes it.  The chunk
/// carries it twice, in the engine configuration and in the model, and a
/// chunk whose two copies differ in any byte is refused.
fn milan_config_bytes(config: &MilanConfig) -> Vec<u8> {
    let mut w = Writer::new();
    encode_milan_config(config, &mut w);
    w.into_bytes()
}

fn encode_serve_config(serve: ServeConfig, w: &mut Writer) {
    w.u64(serve.shards as u64);
    w.u64(serve.cache_capacity as u64);
}

fn decode_serve_config(r: &mut Reader<'_>) -> Result<ServeConfig, WireError> {
    let shards = r.u64()? as usize;
    let cache_capacity = r.u64()? as usize;
    if shards == 0 {
        return Err(WireError::Corrupt("serve configuration with zero shards".into()));
    }
    Ok(ServeConfig { shards, cache_capacity })
}

// ---------------------------------------------------------------------------
// Chunks
// ---------------------------------------------------------------------------

/// Chunk file name for checkpoint `seq`, chunk ordinal `ordinal`.
pub(crate) fn chunk_file_name(seq: u64, ordinal: u32) -> String {
    format!("chunk-{seq:06}-{ordinal:03}.eqc")
}

/// Manifest kind string of the static chunk.
pub(crate) fn kind_static() -> String {
    "static".to_string()
}

/// Whether a manifest kind names a retired index-shard chunk, which older
/// directories still list: read by nothing, dropped by the next manifest.
pub(crate) fn is_retired_kind(kind: &str) -> bool {
    kind.starts_with("shard:")
}

/// The two record sequences a checkpoint persists, each in records chunks
/// of its own that tile it from 0: ingest records by dense id, feedback
/// records by feedback id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sequence {
    Ingest = 0,
    Feedback = 1,
}

impl Sequence {
    pub(crate) const ALL: [Sequence; 2] = [Sequence::Ingest, Sequence::Feedback];

    fn prefix(self) -> &'static str {
        ["ingest:", "feedback:"][self as usize]
    }

    /// Manifest kind string of this sequence's records chunk from `start`.
    pub(crate) fn kind(self, start: usize) -> String {
        format!("{}{start}", self.prefix())
    }

    /// Whether a manifest kind names one of this sequence's chunks.
    pub(crate) fn files(self, kind: &str) -> bool {
        kind.starts_with(self.prefix())
    }

    /// The sequence a record belongs to.
    pub(crate) fn of(record: &WalRecord) -> Sequence {
        match record {
            WalRecord::Ingest { .. } => Sequence::Ingest,
            WalRecord::Feedback { .. } => Sequence::Feedback,
        }
    }
}

/// One decoded chunk body.
pub(crate) enum ChunkPayload {
    /// Configuration and trained model — written once per lineage.
    Static {
        /// The engine configuration.
        config: EarthQubeConfig,
        /// The serving-layer configuration.
        serve: ServeConfig,
        /// The trained MiLaN model.
        model: Milan,
    },
    /// A run of one sequence's WAL records.
    Records {
        /// Position of the first record in its sequence.
        start: u64,
        /// The records, in sequence order.
        records: Vec<WalRecord>,
    },
    /// A chunk of the legacy format.
    Legacy(legacy::Chunk),
}

impl ChunkPayload {
    /// Whether the payload may be filed under the manifest kind `kind` —
    /// recovery cross-checks it so a mislabelled manifest entry cannot be
    /// silently accepted.
    fn is_filed_under(&self, kind: &str) -> bool {
        let expected = match self {
            ChunkPayload::Static { .. } => kind_static(),
            ChunkPayload::Records { start, records } => {
                return Sequence::ALL.into_iter().any(|seq| {
                    seq.kind(*start as usize) == kind
                        && records.iter().all(|record| Sequence::of(record) == seq)
                });
            }
            ChunkPayload::Legacy(chunk) => chunk.kind(),
        };
        expected == kind
    }
}

/// Encodes the static chunk body (configuration + model).
pub(crate) fn encode_static_chunk(
    config: &EarthQubeConfig,
    serve: ServeConfig,
    model: &Milan,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(CHUNK_STATIC);
    encode_engine_config(config, &mut w);
    encode_serve_config(serve, &mut w);
    model.encode(&mut w);
    w.into_bytes()
}

/// Starts a records chunk body whose first record is at `start` in its
/// sequence; each record is then written behind it, as
/// [`WalRecord::encode`] writes it.
pub(crate) fn records_chunk(start: usize) -> Writer {
    let mut w = Writer::new();
    w.u8(CHUNK_RECORDS);
    w.u64(start as u64);
    w
}

/// Decodes a chunk body: one read from a chunk file, or one a replication
/// pull carries (the primary's static chunk, a records run).
pub(crate) fn decode_chunk_body(body: &[u8]) -> Result<ChunkPayload, EarthQubeError> {
    let mut r = Reader::new(body);
    let payload = match r.u8().map_err(corrupt)? {
        CHUNK_STATIC => {
            let config = decode_engine_config(&mut r).map_err(corrupt)?;
            let serve = decode_serve_config(&mut r).map_err(corrupt)?;
            let model = Milan::decode(&mut r).map_err(corrupt)?;
            if milan_config_bytes(&config.milan) != milan_config_bytes(model.config()) {
                return Err(EarthQubeError::Persist(
                    "a static chunk's engine configuration differs from its model's own MiLaN \
                     configuration"
                        .into(),
                ));
            }
            ChunkPayload::Static { config, serve, model }
        }
        CHUNK_RECORDS => {
            let start = r.u64().map_err(corrupt)?;
            let mut records = Vec::new();
            while !r.is_empty() {
                records.push(read_record(&mut r).map_err(corrupt)?);
            }
            ChunkPayload::Records { start, records }
        }
        tag @ legacy::CHUNK_COLLECTION..=legacy::CHUNK_IMAGES => {
            ChunkPayload::Legacy(legacy::Chunk::decode(tag, &mut r)?)
        }
        other => {
            return Err(EarthQubeError::Persist(format!("unknown checkpoint chunk tag {other}")))
        }
    };
    if !r.is_empty() {
        return Err(EarthQubeError::Persist(format!(
            "{} trailing bytes inside a checkpoint chunk",
            r.remaining()
        )));
    }
    Ok(payload)
}

/// Writes one chunk file (framed, CRC'd, fsynced) and returns its manifest
/// entry.  The file is an orphan — invisible to recovery — until a
/// manifest naming it is published.
pub(crate) fn write_chunk_file(
    dir: &Path,
    file_name: &str,
    kind: &str,
    body: &[u8],
    faults: &Faults,
) -> Result<ChunkEntry, EarthQubeError> {
    faults.check("chunk-write")?;
    let body_crc = crc32(body);
    let mut w = Writer::with_capacity(body.len() + 20);
    w.raw(CHUNK_MAGIC);
    w.u64(body.len() as u64);
    w.raw(body);
    w.u32(body_crc);
    let bytes = w.into_bytes();
    let path = dir.join(file_name);
    let mut file = File::create(&path).map_err(|e| io_error("creating a checkpoint chunk", e))?;
    file.write_all(&bytes).map_err(|e| io_error("writing a checkpoint chunk", e))?;
    faults.check("chunk-sync")?;
    // Sync now: the manifest that will reference this chunk is itself
    // synced before its rename, so publication can never outrun content.
    file.sync_all().map_err(|e| io_error("syncing a checkpoint chunk", e))?;
    Ok(ChunkEntry {
        file: file_name.to_string(),
        kind: kind.to_string(),
        len: bytes.len() as u64,
        crc: body_crc,
    })
}

/// Reads and validates one chunk file against its manifest entry (length,
/// magic, framing, stored CRC and manifest CRC must all agree).
pub(crate) fn read_chunk_file(
    dir: &Path,
    entry: &ChunkEntry,
) -> Result<ChunkPayload, EarthQubeError> {
    let bytes = std::fs::read(dir.join(&entry.file))
        .map_err(|e| io_error(&format!("reading checkpoint chunk {}", entry.file), e))?;
    if bytes.len() as u64 != entry.len {
        return Err(EarthQubeError::Persist(format!(
            "chunk {} is {} bytes but the manifest records {}",
            entry.file,
            bytes.len(),
            entry.len
        )));
    }
    let mut r = Reader::new(&bytes);
    let magic = r.take(CHUNK_MAGIC.len()).map_err(corrupt)?;
    if magic != CHUNK_MAGIC {
        return Err(EarthQubeError::Persist(format!(
            "chunk {} is not an EarthQube checkpoint chunk (bad magic)",
            entry.file
        )));
    }
    let body_len = r.u64().map_err(corrupt)?;
    if r.remaining() < 4 || body_len != (r.remaining() - 4) as u64 {
        return Err(EarthQubeError::Persist(format!(
            "chunk {} body length {body_len} disagrees with file size",
            entry.file
        )));
    }
    let body = r.take(body_len as usize).map_err(corrupt)?;
    let stored_crc = r.u32().map_err(corrupt)?;
    if !r.is_empty() {
        return Err(EarthQubeError::Persist(format!(
            "{} trailing bytes after chunk {}",
            r.remaining(),
            entry.file
        )));
    }
    let actual_crc = crc32(body);
    if stored_crc != actual_crc || entry.crc != actual_crc {
        return Err(EarthQubeError::Persist(format!(
            "chunk {} checksum mismatch: stored {stored_crc:#010x}, manifest {:#010x}, \
             computed {actual_crc:#010x}",
            entry.file, entry.crc
        )));
    }
    let payload = decode_chunk_body(body)?;
    if !payload.is_filed_under(&entry.kind) {
        return Err(EarthQubeError::Persist(format!(
            "chunk {} does not decode as the `{}` the manifest files it under",
            entry.file, entry.kind
        )));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Manifest I/O
// ---------------------------------------------------------------------------

/// Reads the published manifest, or `None` when the directory holds none.
pub(crate) fn read_manifest(dir: &Path) -> Result<Option<Manifest>, EarthQubeError> {
    let bytes = match std::fs::read(dir.join(MANIFEST_FILE)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_error("reading the checkpoint manifest", e)),
    };
    decode_manifest(&bytes).map(Some).map_err(corrupt)
}

/// Publishes a manifest: writes it to a temporary file, syncs it, renames
/// it into place and syncs the directory.  The rename is the checkpoint's
/// commit point; everything before it leaves the previous manifest in
/// force, and the directory sync is part of the commit (without it the
/// rename itself could be lost to a power cut).  Returns the manifest's
/// encoded size.
pub(crate) fn write_manifest_file(
    dir: &Path,
    manifest: &Manifest,
    faults: &Faults,
) -> Result<u64, EarthQubeError> {
    faults.check("manifest-write")?;
    let bytes = encode_manifest(manifest);
    let tmp = dir.join(MANIFEST_TMP_FILE);
    {
        let mut file =
            File::create(&tmp).map_err(|e| io_error("creating the manifest scratch file", e))?;
        file.write_all(&bytes).map_err(|e| io_error("writing the manifest", e))?;
        faults.check("manifest-sync")?;
        file.sync_all().map_err(|e| io_error("syncing the manifest", e))?;
    }
    faults.check("manifest-rename")?;
    std::fs::rename(&tmp, dir.join(MANIFEST_FILE))
        .map_err(|e| io_error("publishing the manifest", e))?;
    faults.check("manifest-dir-sync")?;
    sync_dir(dir)?;
    Ok(bytes.len() as u64)
}

// ---------------------------------------------------------------------------
// Snapshot assembly (recovery)
// ---------------------------------------------------------------------------

/// Everything a checkpoint restores, decoded and validated.
pub(crate) struct SnapshotState {
    pub config: EarthQubeConfig,
    pub serve: ServeConfig,
    pub model: Milan,
    /// Every write the checkpoint covers: the ingest records in dense-id
    /// order, then the feedback records in id order.  Recovery applies
    /// them to an empty catalog, as the writer applied them live.
    pub records: Vec<WalRecord>,
}

/// Reads a manifest's chunks back into the records they persist.
///
/// Validation: exactly one static chunk; each sequence's records chunks
/// tile it from 0 in manifest order (a published manifest lists a
/// sequence's chunks in ascending start order).  A directory of the
/// legacy format is translated by [`Legacy`] into the same records, and
/// may not mix in records chunks.  Retired `shard:` entries are skipped
/// unread.  What the records carry (dense ids, code widths, duplicates)
/// is checked where they are applied.
pub(crate) fn read_snapshot(
    dir: &Path,
    manifest: &Manifest,
) -> Result<SnapshotState, EarthQubeError> {
    let mut static_part: Option<(EarthQubeConfig, ServeConfig, Milan)> = None;
    let mut runs: [Vec<WalRecord>; 2] = Default::default();
    let mut legacy = Legacy::default();
    for entry in manifest.chunks.iter().filter(|entry| !is_retired_kind(&entry.kind)) {
        match read_chunk_file(dir, entry)? {
            ChunkPayload::Static { config, serve, model } => {
                if static_part.is_some() {
                    return Err(EarthQubeError::Persist(
                        "manifest lists more than one static chunk".into(),
                    ));
                }
                static_part = Some((config, serve, model));
            }
            ChunkPayload::Records { start, records } => {
                let Some(first) = records.first() else { continue };
                let run = &mut runs[Sequence::of(first) as usize];
                if start != run.len() as u64 {
                    return Err(EarthQubeError::Persist(format!(
                        "records chunks do not tile: `{}` follows {} records",
                        entry.kind,
                        run.len()
                    )));
                }
                run.extend(records);
            }
            ChunkPayload::Legacy(chunk) => legacy.apply(chunk)?,
        }
    }
    let Some((config, serve, model)) = static_part else {
        return Err(EarthQubeError::Persist("manifest lists no static chunk".into()));
    };
    let [mut records, feedback] = runs;
    records.extend(feedback);
    if !legacy.is_empty() {
        if !records.is_empty() {
            return Err(EarthQubeError::Persist(
                "manifest mixes legacy chunks and records chunks".into(),
            ));
        }
        records = legacy.into_records()?;
    }
    Ok(SnapshotState { config, serve, model, records })
}

// ---------------------------------------------------------------------------
// Write-ahead log records
// ---------------------------------------------------------------------------

/// One decoded WAL record.
pub(crate) enum WalRecord {
    /// A patch applied by [`QueryServer::ingest`](crate::serve::QueryServer::ingest):
    /// the dense-id-assigned metadata, the binary code, and the two
    /// pre-serialized documents.
    Ingest { meta: PatchMetadata, code: BinaryCode, image_doc: Document, rendered_doc: Document },
    /// A feedback comment stored through the write path.
    Feedback { text: String, category: Option<String> },
}

impl WalRecord {
    /// The record's payload, as [`decode_record`] reads it back.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            WalRecord::Ingest { meta, code, image_doc, rendered_doc } => {
                encode_ingest(meta, code, image_doc, rendered_doc, &mut w)
            }
            WalRecord::Feedback { text, category } => {
                encode_feedback(text, category.as_deref(), &mut w)
            }
        }
        w.into_bytes()
    }
}

/// Writes an ingest record's payload from borrowed parts.
pub(crate) fn encode_ingest(
    meta: &PatchMetadata,
    code: &BinaryCode,
    image_doc: &Document,
    rendered_doc: &Document,
    w: &mut Writer,
) {
    w.u8(RECORD_INGEST);
    encode_patch_metadata(meta, w);
    code.encode(w);
    wire::encode_document(image_doc, w);
    wire::encode_document(rendered_doc, w);
}

/// Writes a feedback record's payload from borrowed parts.
pub(crate) fn encode_feedback(text: &str, category: Option<&str>, w: &mut Writer) {
    w.u8(RECORD_FEEDBACK);
    w.str(text);
    w.opt_str(category);
}

/// Decodes one WAL payload, which must hold exactly one record.
pub(crate) fn decode_record(payload: &[u8]) -> Result<WalRecord, WireError> {
    let mut r = Reader::new(payload);
    let record = read_record(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::Corrupt(format!(
            "{} trailing bytes inside a WAL record",
            r.remaining()
        )));
    }
    Ok(record)
}

/// Reads one record: the records are self-delimiting, so a records chunk
/// holds them back to back.
fn read_record(r: &mut Reader<'_>) -> Result<WalRecord, WireError> {
    Ok(match r.u8()? {
        RECORD_INGEST => WalRecord::Ingest {
            meta: decode_patch_metadata(r)?,
            code: BinaryCode::decode(r)?,
            image_doc: wire::decode_document(r)?,
            rendered_doc: wire::decode_document(r)?,
        },
        RECORD_FEEDBACK => WalRecord::Feedback {
            text: r.str()?.to_string(),
            category: r.opt_str()?.map(str::to_string),
        },
        other => return Err(WireError::Corrupt(format!("unknown WAL record type {other}"))),
    })
}

// ---------------------------------------------------------------------------
// WAL segments
// ---------------------------------------------------------------------------

/// Segment file name for the given index.
pub(crate) fn segment_file_name(index: u32) -> String {
    format!("wal.{index:04}.eqw")
}

/// Parses a segment file name back into its index (`None` for any other
/// file, including `wal.lock`).
pub(crate) fn parse_segment_file_name(name: &str) -> Option<u32> {
    let digits = name.strip_prefix("wal.")?.strip_suffix(".eqw")?;
    if digits.len() < 4 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Every segment file in the directory, sorted by index.
pub(crate) fn list_segment_files(dir: &Path) -> Result<Vec<(u32, PathBuf)>, EarthQubeError> {
    let mut segments = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| io_error("listing the persistence directory", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_error("listing the persistence directory", e))?;
        let name = entry.file_name();
        if let Some(index) = name.to_str().and_then(parse_segment_file_name) {
            segments.push((index, entry.path()));
        }
    }
    segments.sort_by_key(|(index, _)| *index);
    Ok(segments)
}

/// The segment index a brand-new lineage must start at: one past the
/// highest index on disk, so a full checkpoint can never collide with
/// debris from previous lineages (its retired or orphaned segments all
/// sort strictly below the new `first_segment`).
pub(crate) fn next_free_segment_index(dir: &Path) -> Result<u32, EarthQubeError> {
    Ok(list_segment_files(dir)?.last().map_or(0, |(index, _)| index.saturating_add(1)))
}

/// Reads a segment's header generation without scanning its records
/// (`None` when the file is unreadable or not a segment).
fn segment_generation(path: &Path) -> Option<u32> {
    let mut buf = [0u8; SEGMENT_HEADER_LEN as usize];
    let mut file = File::open(path).ok()?;
    file.read_exact(&mut buf).ok()?;
    if &buf[..8] != SEGMENT_MAGIC {
        return None;
    }
    Some(u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]))
}

/// Picks a generation tag for a new full checkpoint: `candidate` (a
/// [`generation_nonce`] outside tests), nudged until it collides with no
/// generation already on disk (the published manifest's or any leftover
/// segment's) and is not 0, which a replication pull sends for "no lineage
/// yet".  Uniqueness on disk is belt-and-braces — correctness against
/// stale segments rests on the `first_segment` index, which always sorts
/// above every older file.
pub(crate) fn unique_generation(dir: &Path, candidate: u32) -> u32 {
    let mut existing: Vec<u32> = Vec::new();
    if let Ok(Some(manifest)) = read_manifest(dir) {
        existing.push(manifest.generation);
    }
    if let Ok(segments) = list_segment_files(dir) {
        for (_, path) in segments {
            if let Some(generation) = segment_generation(&path) {
                existing.push(generation);
            }
        }
    }
    let mut generation = candidate;
    while generation == 0 || existing.contains(&generation) {
        generation = generation.wrapping_add(0x9E37_79B9);
    }
    generation
}

/// A fresh generation candidate: the process's randomly keyed hasher over
/// the clock, so two lineages built from one configuration and model — in
/// two directories, or two processes — start under different generations,
/// and a replica never takes one lineage's records for another's.
pub(crate) fn generation_nonce() -> u32 {
    use std::hash::{BuildHasher as _, Hasher as _};
    let mut hasher = std::collections::hash_map::RandomState::new().build_hasher();
    let now = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
    hasher.write_u128(now.map_or(0, |since| since.as_nanos()));
    let hash = hasher.finish();
    (hash ^ (hash >> 32)) as u32
}

/// The append handle of a live WAL segment.
pub(crate) struct WalWriter {
    file: File,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter").finish_non_exhaustive()
    }
}

impl WalWriter {
    /// Creates (or resets) segment `index` of `dir`, writing and syncing
    /// its header, then syncs `dir`, so the segment's directory entry is as
    /// durable as the records about to be acknowledged from it.
    /// Exclusivity comes from the directory lock, not per-file locks —
    /// callers hold the attachment's [`DirLock`] (or are mid-recovery,
    /// which takes it first).
    pub(crate) fn create(
        dir: &Path,
        generation: u32,
        index: u32,
        faults: &Faults,
    ) -> Result<Self, EarthQubeError> {
        faults.check("segment-precreate")?;
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(segment_file_name(index)))
            .map_err(|e| io_error("creating a WAL segment", e))?;
        file.set_len(0).map_err(|e| io_error("resetting a WAL segment", e))?;
        file.write_all(SEGMENT_MAGIC).map_err(|e| io_error("writing a segment header", e))?;
        file.write_all(&generation.to_le_bytes())
            .map_err(|e| io_error("writing a segment generation tag", e))?;
        file.write_all(&index.to_le_bytes()).map_err(|e| io_error("writing a segment index", e))?;
        faults.check("segment-header-sync")?;
        file.sync_data().map_err(|e| io_error("syncing a segment header", e))?;
        faults.check("segment-dir-sync")?;
        sync_dir(dir)?;
        Ok(Self { file })
    }

    /// Opens an existing segment for appending, first truncating it to
    /// `valid_len` bytes so a torn tail from a previous crash can never
    /// corrupt the framing of future records.
    pub(crate) fn open_truncated(path: &Path, valid_len: u64) -> Result<Self, EarthQubeError> {
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_error("opening a WAL segment", e))?;
        file.set_len(valid_len).map_err(|e| io_error("truncating a segment torn tail", e))?;
        file.sync_data().map_err(|e| io_error("syncing a segment truncation", e))?;
        file.seek(SeekFrom::End(0)).map_err(|e| io_error("seeking the segment end", e))?;
        Ok(Self { file })
    }

    /// Appends one framed record (length, CRC-32, payload), returning the
    /// number of bytes appended so the caller can track the segment size
    /// for rotation.  The bytes are not yet synced: a write syncs all of
    /// its records with one [`sync`](Self::sync), one flush per batch.
    pub(crate) fn append(&mut self, payload: &[u8]) -> Result<u64, EarthQubeError> {
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(
            &u32::try_from(payload.len())
                .map_err(|_| EarthQubeError::Persist("WAL record exceeds u32::MAX bytes".into()))?
                .to_le_bytes(),
        );
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame).map_err(|e| io_error("appending a WAL record", e))?;
        Ok(frame.len() as u64)
    }

    /// Forces appended records to stable storage (`fdatasync`); `flush`
    /// alone is a no-op for [`File`] and would not survive a power loss.
    pub(crate) fn sync(&mut self) -> Result<(), EarthQubeError> {
        self.file.sync_data().map_err(|e| io_error("syncing the WAL", e))
    }
}

/// The outcome of scanning one segment file.
pub(crate) enum SegmentScan {
    /// The header was never fully written (the crash hit segment creation).
    TornHeader,
    /// The header carries a foreign generation tag: debris from an
    /// interrupted full checkpoint of another lineage.
    Stale,
    /// A live segment: its intact records, the end offset of the last
    /// intact one, and whether bytes beyond it were discarded (torn tail).
    Valid {
        /// Every fully-written record, front to back.
        records: Vec<WalRecord>,
        /// End offset of the last intact record (the torn-tail boundary).
        valid_len: u64,
        /// Whether the file carried a torn/corrupt tail past `valid_len`.
        torn: bool,
    },
}

/// Decodes the record stream of a segment from `start` to the first torn,
/// CRC-failing or undecodable frame (a CRC collides with corruption only
/// astronomically rarely, but a framing bug must still fail safe): the
/// records and the offset just past the last one.
fn scan_records(bytes: &[u8], start: usize) -> (Vec<WalRecord>, u64) {
    let word = |at: usize| bytes.get(at..at + 4)?.try_into().ok().map(u32::from_le_bytes);
    let mut records = Vec::new();
    let mut pos = start.min(bytes.len());
    while let (Some(len), Some(stored_crc)) = (word(pos), word(pos + 4)) {
        let len = len as usize;
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else { break };
        if crc32(payload) != stored_crc {
            break; // torn or bit-flipped tail
        }
        let Ok(record) = decode_record(payload) else { break };
        records.push(record);
        pos += 8 + len;
    }
    (records, pos as u64)
}

/// Reads one segment file, validating its header against the expected
/// generation and index.  A file that is not a segment at all (bad magic)
/// or whose header index disagrees with its file name is a hard error;
/// every crash-shaped state maps to a non-`Valid` variant.
pub(crate) fn read_segment(
    path: &Path,
    generation: u32,
    expected_index: u32,
) -> Result<SegmentScan, EarthQubeError> {
    let bytes = std::fs::read(path).map_err(|e| io_error("reading a WAL segment", e))?;
    let magic_len = bytes.len().min(SEGMENT_MAGIC.len());
    if bytes[..magic_len] != SEGMENT_MAGIC[..magic_len] {
        return Err(EarthQubeError::Persist(format!(
            "{} is not an EarthQube WAL segment (bad magic)",
            path.display()
        )));
    }
    if (bytes.len() as u64) < SEGMENT_HEADER_LEN {
        return Ok(SegmentScan::TornHeader);
    }
    // lint:allow(panic) infallible: the SEGMENT_HEADER_LEN check above guarantees 16 header bytes
    let tag = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    // lint:allow(panic) infallible: the SEGMENT_HEADER_LEN check above guarantees 16 header bytes
    let header_index = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if tag != generation {
        return Ok(SegmentScan::Stale);
    }
    if header_index != expected_index {
        return Err(EarthQubeError::Persist(format!(
            "segment {} carries index {header_index} in its header",
            path.display()
        )));
    }
    let (records, valid_len) = scan_records(&bytes, SEGMENT_HEADER_LEN as usize);
    Ok(SegmentScan::Valid { records, valid_len, torn: valid_len < bytes.len() as u64 })
}

/// What recovery should do with the tail of the segment chain.
pub(crate) enum ChainTail {
    /// Reopen segment `index` for appending, truncated to `valid_len`.
    Reopen {
        /// Index of the last live segment.
        index: u32,
        /// Byte offset its torn tail (if any) is truncated to.
        valid_len: u64,
    },
    /// No live segment on disk: create a fresh one at `index`.
    Create {
        /// The index the fresh segment must carry.
        index: u32,
    },
}

/// A fully validated live segment chain.
pub(crate) struct SegmentChain {
    /// Every intact record of the chain, front to back.
    pub records: Vec<WalRecord>,
    /// How the attachment should resume appending.
    pub tail: ChainTail,
}

/// Reads and validates the live segment chain `first_segment..`.
///
/// Segments below `first_segment` are covered by the checkpoint and
/// ignored (retired-but-not-yet-deleted).  The live chain must start
/// exactly at `first_segment` and be contiguous; a hole means records
/// were lost, so it is a hard error, never a silent skip.  A torn tail is
/// only legal in the *final* live segment (earlier segments were sealed
/// and synced before rotation).  Stale-generation or torn-header segments
/// are tolerated only as a trailing run — debris of an interrupted
/// checkpoint — and are discarded; one in the middle of the chain is
/// corruption.
pub(crate) fn read_segment_chain(
    dir: &Path,
    generation: u32,
    first_segment: u32,
) -> Result<SegmentChain, EarthQubeError> {
    let candidates: Vec<(u32, PathBuf)> =
        list_segment_files(dir)?.into_iter().filter(|(index, _)| *index >= first_segment).collect();
    let mut records = Vec::new();
    let mut live: Option<(u32, u64, bool)> = None; // (index, valid_len, torn)
    let mut orphans_seen = false;
    for (index, path) in &candidates {
        match read_segment(path, generation, *index)? {
            SegmentScan::Valid { records: segment_records, valid_len, torn } => {
                if orphans_seen {
                    return Err(EarthQubeError::Persist(format!(
                        "live WAL segment {index} follows stale checkpoint debris",
                    )));
                }
                match live {
                    None if *index != first_segment => {
                        return Err(EarthQubeError::Persist(format!(
                            "stale manifest: the WAL chain should start at segment \
                             {first_segment} but the first live segment is {index}"
                        )));
                    }
                    Some((previous, _, _)) if *index != previous + 1 => {
                        return Err(EarthQubeError::Persist(format!(
                            "WAL segment chain is missing segment {} (found {index} after \
                             {previous})",
                            previous + 1
                        )));
                    }
                    Some((previous, _, true)) => {
                        return Err(EarthQubeError::Persist(format!(
                            "sealed WAL segment {previous} carries a torn record tail"
                        )));
                    }
                    _ => {}
                }
                records.extend(segment_records);
                live = Some((*index, valid_len, torn));
            }
            SegmentScan::Stale | SegmentScan::TornHeader => {
                // Debris from an interrupted checkpoint: legal only as a
                // trailing run, past every live segment.
                orphans_seen = true;
            }
        }
    }
    let tail = match live {
        Some((index, valid_len, _)) => ChainTail::Reopen { index, valid_len },
        None => ChainTail::Create { index: first_segment },
    };
    Ok(SegmentChain { records, tail })
}

// ---------------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------------

/// Deletes every WAL segment below `first_segment` — they are covered by
/// the just-published checkpoint.  Returns how many were deleted.  Runs
/// strictly after the manifest rename: a crash before it merely leaves
/// retired segments behind for the next checkpoint to sweep.
pub(crate) fn retire_segments(
    dir: &Path,
    first_segment: u32,
    faults: &Faults,
) -> Result<u64, EarthQubeError> {
    faults.check("wal-retire")?;
    let mut retired = 0;
    for (index, path) in list_segment_files(dir)? {
        if index < first_segment {
            std::fs::remove_file(&path)
                .map_err(|e| io_error("retiring a covered WAL segment", e))?;
            retired += 1;
        }
    }
    if retired > 0 {
        sync_dir(dir)?;
    }
    Ok(retired)
}

/// Deletes every chunk file the published manifest does not reference —
/// leftovers of superseded or crashed checkpoints.  Returns how many were
/// deleted.
pub(crate) fn sweep_orphan_chunks(
    dir: &Path,
    manifest: &Manifest,
    faults: &Faults,
) -> Result<u64, EarthQubeError> {
    faults.check("chunk-gc")?;
    let mut swept = 0;
    let entries =
        std::fs::read_dir(dir).map_err(|e| io_error("listing the persistence directory", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_error("listing the persistence directory", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.ends_with(".eqc") {
            continue;
        }
        if manifest.chunks.iter().any(|c| c.file == name) {
            continue;
        }
        std::fs::remove_file(entry.path())
            .map_err(|e| io_error("sweeping an orphan checkpoint chunk", e))?;
        swept += 1;
    }
    if swept > 0 {
        sync_dir(dir)?;
    }
    Ok(swept)
}

// ---------------------------------------------------------------------------
// Directory lock
// ---------------------------------------------------------------------------

/// The advisory exclusive lock an attached server holds on its persistence
/// directory for the lifetime of the attachment.  Dropping it (or crashing)
/// releases the lock at the OS level, so a dead server never wedges its
/// directory.
pub(crate) struct DirLock {
    _file: File,
}

impl std::fmt::Debug for DirLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirLock").finish_non_exhaustive()
    }
}

/// Takes the directory's advisory exclusive lock, failing fast if another
/// live server instance holds it.  Two writers appending framed records at
/// independent offsets would corrupt the log, and two checkpointers would
/// race the manifest — so attachment (and recovery, which leads to
/// attachment) takes this lock first.
pub(crate) fn lock_dir(dir: &Path) -> Result<DirLock, EarthQubeError> {
    let file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(dir.join(LOCK_FILE))
        .map_err(|e| io_error("opening the directory lock", e))?;
    file.try_lock().map_err(|e| {
        EarthQubeError::Persist(format!(
            "the persistence directory is held by another live server instance \
             (drop it before recovering the same directory): {e}"
        ))
    })?;
    Ok(DirLock { _file: file })
}

/// Opens `dir` and syncs it, making freshly created/renamed directory
/// entries (the published manifest, new segments) durable on filesystems
/// that require an explicit directory fsync.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), EarthQubeError> {
    let handle = File::open(dir).map_err(|e| io_error("opening the persistence directory", e))?;
    handle.sync_all().map_err(|e| io_error("syncing the persistence directory", e))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Scratch(PathBuf);

    impl Scratch {
        fn new(name: &str) -> Self {
            let path =
                std::env::temp_dir().join(format!("eq_persist_{name}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).unwrap();
            Scratch(path)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn segment_file_names_roundtrip() {
        assert_eq!(segment_file_name(0), "wal.0000.eqw");
        assert_eq!(segment_file_name(12345), "wal.12345.eqw");
        assert_eq!(parse_segment_file_name("wal.0000.eqw"), Some(0));
        assert_eq!(parse_segment_file_name("wal.12345.eqw"), Some(12345));
        assert_eq!(parse_segment_file_name("wal.lock"), None);
        assert_eq!(parse_segment_file_name("wal.eqw"), None);
        assert_eq!(parse_segment_file_name("wal.12.eqw"), None, "indexes are zero-padded to 4");
        assert_eq!(parse_segment_file_name("wal.00a0.eqw"), None);
        assert_eq!(parse_segment_file_name("chunk-000001-000.eqc"), None);
    }

    fn records_body(start: usize, payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut w = records_chunk(start);
        payloads.iter().for_each(|payload| w.raw(payload));
        w.into_bytes()
    }

    #[test]
    fn chunk_files_roundtrip_and_reject_corruption() {
        let dir = Scratch::new("chunk_roundtrip");
        let payloads = vec![feedback_record("a", None), feedback_record("b", Some("c"))];
        let body = records_body(3, &payloads);
        let entry = write_chunk_file(
            dir.path(),
            "chunk-000001-000.eqc",
            "feedback:3",
            &body,
            &Faults::default(),
        )
        .unwrap();
        assert_eq!(entry.file, "chunk-000001-000.eqc");
        assert_eq!(entry.kind, "feedback:3");
        match read_chunk_file(dir.path(), &entry).unwrap() {
            ChunkPayload::Records { start, records } => {
                assert_eq!(start, 3);
                let back: Vec<Vec<u8>> = records.iter().map(WalRecord::encode).collect();
                assert_eq!(back, payloads, "a run holds the WAL's payloads back to back");
            }
            _ => panic!("decoded the wrong payload kind"),
        }
        // A flipped byte in the body must be caught by the CRC.
        let path = dir.path().join(&entry.file);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_chunk_file(dir.path(), &entry).is_err());
        // A manifest entry whose kind disagrees with the payload is refused:
        // another tag, another start, or no sequence at all.
        std::fs::write(&path, {
            let mut w = Writer::new();
            w.raw(CHUNK_MAGIC);
            w.u64(body.len() as u64);
            w.raw(&body);
            w.u32(crc32(&body));
            w.into_bytes()
        })
        .unwrap();
        for kind in ["static", "feedback:0", "ingest:3", "images:3", "3"] {
            let mislabelled = ChunkEntry { kind: kind.into(), ..entry.clone() };
            assert!(read_chunk_file(dir.path(), &mislabelled).is_err(), "filed under {kind}");
        }
        // Truncations at every prefix are refused, never mis-decoded.
        let bytes = std::fs::read(&path).unwrap();
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(read_chunk_file(dir.path(), &entry).is_err(), "prefix {cut} accepted");
        }
    }

    #[test]
    fn manifest_publish_is_atomic_and_readable() {
        let dir = Scratch::new("manifest");
        assert!(read_manifest(dir.path()).unwrap().is_none());
        let manifest = Manifest {
            seq: 3,
            generation: 0xDEAD_BEEF,
            first_segment: 2,
            chunks: vec![ChunkEntry {
                file: "chunk-000003-000.eqc".into(),
                kind: "static".into(),
                len: 10,
                crc: 1,
            }],
        };
        let bytes = write_manifest_file(dir.path(), &manifest, &Faults::default()).unwrap();
        assert!(bytes > 0);
        let back = read_manifest(dir.path()).unwrap().unwrap();
        assert_eq!(back, manifest);
        assert!(
            !dir.path().join(MANIFEST_TMP_FILE).exists(),
            "the scratch file must be renamed away"
        );
        // Overwriting publishes the newer manifest.
        let newer = Manifest { seq: 4, ..manifest };
        write_manifest_file(dir.path(), &newer, &Faults::default()).unwrap();
        assert_eq!(read_manifest(dir.path()).unwrap().unwrap().seq, 4);
    }

    fn feedback_record(text: &str, category: Option<&str>) -> Vec<u8> {
        let (text, category) = (text.to_string(), category.map(String::from));
        WalRecord::Feedback { text, category }.encode()
    }

    #[test]
    fn segment_scan_classifies_crash_shapes() {
        let dir = Scratch::new("segment_scan");
        let path = dir.path().join(segment_file_name(0));
        let mut writer = WalWriter::create(dir.path(), 7, 0, &Faults::default()).unwrap();
        writer.append(&feedback_record("hello", None)).unwrap();
        writer.append(&feedback_record("world", Some("cat"))).unwrap();
        writer.sync().unwrap();
        drop(writer);

        let clean_len = std::fs::metadata(&path).unwrap().len();
        match read_segment(&path, 7, 0).unwrap() {
            SegmentScan::Valid { records, valid_len, torn } => {
                assert_eq!(records.len(), 2);
                assert_eq!(valid_len, clean_len);
                assert!(!torn);
            }
            _ => panic!("clean segment must scan as valid"),
        }
        // Wrong generation: stale.
        assert!(matches!(read_segment(&path, 8, 0).unwrap(), SegmentScan::Stale));
        // Header index disagreeing with the file name: hard error.
        assert!(read_segment(&path, 7, 1).is_err());
        // Torn tail: the last record is dropped, the prefix survives.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        match read_segment(&path, 7, 0).unwrap() {
            SegmentScan::Valid { records, valid_len, torn } => {
                assert_eq!(records.len(), 1);
                assert!(valid_len < clean_len);
                assert!(torn);
            }
            _ => panic!("torn segment must keep its intact prefix"),
        }
        // Torn header: shorter than the fixed header.
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(read_segment(&path, 7, 0).unwrap(), SegmentScan::TornHeader));
        // Bad magic: hard error.
        std::fs::write(&path, b"NOTAWAL!xxxxxxxx").unwrap();
        assert!(read_segment(&path, 7, 0).is_err());
    }

    #[test]
    fn segment_chain_validates_contiguity() {
        let dir = Scratch::new("chain");
        for index in 0..3u32 {
            let mut writer = WalWriter::create(dir.path(), 9, index, &Faults::default()).unwrap();
            writer.append(&feedback_record(&format!("seg{index}"), None)).unwrap();
            writer.sync().unwrap();
        }
        let chain = read_segment_chain(dir.path(), 9, 0).unwrap();
        assert_eq!(chain.records.len(), 3);
        assert!(matches!(chain.tail, ChainTail::Reopen { index: 2, .. }));
        // Retired segments below first_segment are ignored.
        let chain = read_segment_chain(dir.path(), 9, 1).unwrap();
        assert_eq!(chain.records.len(), 2);
        // A missing middle segment is a hard error, not a silent skip.
        std::fs::remove_file(dir.path().join(segment_file_name(1))).unwrap();
        assert!(read_segment_chain(dir.path(), 9, 0).is_err());
        // ... and a chain that starts past first_segment means the manifest
        // is stale: also a hard error.
        assert!(read_segment_chain(dir.path(), 9, 1).is_err());
        // A trailing stale-generation segment is checkpoint debris: ignored.
        let chain = read_segment_chain(dir.path(), 9, 2).unwrap();
        assert_eq!(chain.records.len(), 1);
        WalWriter::create(dir.path(), 77, 3, &Faults::default()).unwrap();
        let chain = read_segment_chain(dir.path(), 9, 2).unwrap();
        assert_eq!(chain.records.len(), 1);
        assert!(matches!(chain.tail, ChainTail::Reopen { index: 2, .. }));
        // No live segment at all: recovery creates one at first_segment.
        let chain = read_segment_chain(dir.path(), 9, 4).unwrap();
        assert!(chain.records.is_empty());
        assert!(matches!(chain.tail, ChainTail::Create { index: 4 }));
    }

    #[test]
    fn retirement_deletes_only_covered_segments() {
        let dir = Scratch::new("retire");
        for index in 0..4u32 {
            WalWriter::create(dir.path(), 5, index, &Faults::default()).unwrap();
        }
        assert_eq!(retire_segments(dir.path(), 2, &Faults::default()).unwrap(), 2);
        let left: Vec<u32> =
            list_segment_files(dir.path()).unwrap().into_iter().map(|(i, _)| i).collect();
        assert_eq!(left, vec![2, 3]);
        assert_eq!(
            retire_segments(dir.path(), 2, &Faults::default()).unwrap(),
            0,
            "retirement is idempotent"
        );
        assert_eq!(next_free_segment_index(dir.path()).unwrap(), 4);
    }

    #[test]
    fn orphan_chunks_are_swept() {
        let dir = Scratch::new("sweep");
        let body = records_body(0, &[]);
        let keep = write_chunk_file(
            dir.path(),
            "chunk-000001-000.eqc",
            "ingest:0",
            &body,
            &Faults::default(),
        )
        .unwrap();
        write_chunk_file(dir.path(), "chunk-000000-000.eqc", "ingest:0", &body, &Faults::default())
            .unwrap();
        let manifest = Manifest { seq: 1, generation: 1, first_segment: 0, chunks: vec![keep] };
        assert_eq!(sweep_orphan_chunks(dir.path(), &manifest, &Faults::default()).unwrap(), 1);
        assert!(dir.path().join("chunk-000001-000.eqc").exists());
        assert!(!dir.path().join("chunk-000000-000.eqc").exists());
    }

    #[test]
    fn dir_lock_is_exclusive_per_holder() {
        let dir = Scratch::new("dirlock");
        let held = lock_dir(dir.path()).unwrap();
        assert!(lock_dir(dir.path()).is_err(), "a second holder must be refused");
        drop(held);
        assert!(lock_dir(dir.path()).is_ok(), "the lock dies with its holder");
    }

    #[test]
    fn generations_avoid_everything_on_disk() {
        let dir = Scratch::new("gen");
        let candidate = crc32(b"static chunk bytes");
        let first = unique_generation(dir.path(), candidate);
        WalWriter::create(dir.path(), first, 0, &Faults::default()).unwrap();
        let second = unique_generation(dir.path(), candidate);
        assert_ne!(first, second, "a new lineage must not reuse a generation still on disk");
        assert_ne!(unique_generation(dir.path(), 0), 0, "0 means no lineage");
        let nonces: std::collections::HashSet<u32> = (0..64).map(|_| generation_nonce()).collect();
        assert!(nonces.len() > 60, "lineages built alike draw distinct generations");
    }

    /// The durable tier's half of the codec property (the public codecs'
    /// half is `tests/proptest_codecs.rs`): a random WAL record, a records
    /// chunk body of random records and a static chunk body of a random
    /// configuration and model re-encode to their own bytes, and the same
    /// bytes with one byte overwritten or one bit flipped either fail to
    /// decode or re-encode to the damaged bytes.  The static chunk's two
    /// retired slots are the one exception: read and dropped, so damage
    /// there re-encodes to the undamaged bytes.  A static chunk's engine
    /// configuration carries its model's MiLaN configuration, as a server
    /// writes it; the same chunk with the two disagreeing is refused.
    mod codec_property {
        use super::*;
        use eq_bigearthnet::patch::{AcquisitionDate, PatchId};
        use eq_bigearthnet::{ArchiveGenerator, Country, GeneratorConfig, Label, LabelSet};
        use eq_docstore::Value;
        use eq_geo::BBox;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        /// Draws from a byte script; an exhausted script reads as zeros.
        fn take(script: &mut &[u8], n: usize) -> u64 {
            (0..n).fold(0, |out, _| {
                let (byte, rest) = script.split_first().map_or((0, *script), |(b, r)| (*b, r));
                *script = rest;
                out << 8 | u64::from(byte)
            })
        }

        fn string(script: &mut &[u8]) -> String {
            let len = take(script, 1) % 7;
            (0..len)
                .map(|_| char::from_u32(take(script, 2) as u32 % 0xD7FF).unwrap_or('ø'))
                .collect()
        }

        fn value(script: &mut &[u8], depth: u32) -> Value {
            match take(script, 1) % if depth == 0 { 5 } else { 7 } {
                0 => Value::Null,
                1 => Value::Int(take(script, 8) as i64),
                2 => Value::Float(take(script, 2) as i16 as f64 / 8.0),
                3 => Value::Str(string(script)),
                4 => {
                    Value::Bytes((0..take(script, 1) % 5).map(|_| take(script, 1) as u8).collect())
                }
                5 => Value::Array(
                    (0..take(script, 1) % 3).map(|_| value(script, depth - 1)).collect(),
                ),
                _ => Value::Doc(
                    (0..take(script, 1) % 3)
                        .map(|_| (string(script), value(script, depth - 1)))
                        .collect(),
                ),
            }
        }

        fn document(script: &mut &[u8]) -> Document {
            (0..take(script, 1) % 4).map(|_| (string(script), value(script, 2))).collect()
        }

        fn record(script: &mut &[u8]) -> WalRecord {
            if take(script, 1) % 2 == 1 {
                let text = string(script);
                let category = (take(script, 1) % 2 == 1).then(|| string(script));
                return WalRecord::Feedback { text, category };
            }
            let (lon, lat) = (take(script, 1) as f64 / 4.0 - 30.0, take(script, 1) as f64 / 4.0);
            let meta = PatchMetadata {
                id: PatchId(take(script, 4) as u32),
                name: string(script),
                bbox: BBox::new(lon, lat, lon + 0.5, lat + 0.5).expect("ordered bbox"),
                labels: LabelSet::from_bits(take(script, 8) & ((1 << Label::COUNT) - 1)),
                country: Country::ALL[take(script, 1) as usize % Country::ALL.len()],
                date: AcquisitionDate::new(2017, 1 + take(script, 1) as u8 % 12, 1).expect("date"),
            };
            let bits = 1 + take(script, 1) as u32 % 128;
            let words = (0..bits.div_ceil(64)).map(|_| take(script, 8)).collect();
            let code = BinaryCode::from_words(bits, words);
            WalRecord::Ingest {
                meta,
                code,
                image_doc: document(script),
                rendered_doc: document(script),
            }
        }

        /// The records chunk body `records` make, from `start`.
        fn chunk_bytes(start: usize, records: &[WalRecord]) -> Vec<u8> {
            let mut w = records_chunk(start);
            records.iter().for_each(|record| w.raw(&record.encode()));
            w.into_bytes()
        }

        /// A decoded body re-encoded, or `None` for any kind but records.
        fn reencoded_chunk(body: &[u8]) -> Option<Result<Vec<u8>, EarthQubeError>> {
            match decode_chunk_body(body) {
                Ok(ChunkPayload::Records { start, records }) => {
                    Some(Ok(chunk_bytes(start as usize, &records)))
                }
                Ok(_) => None,
                Err(e) => Some(Err(e)),
            }
        }

        /// A MiLaN configuration: any field values for a disagreeing engine
        /// configuration's copy, valid ones when `valid` (a model's own).
        fn milan_config(script: &mut &[u8], valid: bool) -> MilanConfig {
            let floor = u64::from(valid);
            let dims: Vec<usize> =
                (0..take(script, 1) % 3).map(|_| (floor + take(script, 1) % 4) as usize).collect();
            let mut float = || f32::from_bits(take(script, 4) as u32);
            let loss = eq_milan::LossWeights {
                triplet: float(),
                bit_balance: float(),
                quantization: float(),
                margin: float(),
            };
            MilanConfig {
                code_bits: (floor + take(script, 1) % 24) as u32,
                hidden_dims: dims,
                loss,
                epochs: (floor + take(script, 2)) as usize,
                triplets_per_epoch: (floor + take(script, 2)) as usize,
                learning_rate: if valid { 0.01 } else { f32::from_bits(take(script, 4) as u32) },
                semi_hard_pool: take(script, 1) as usize,
                seed: take(script, 8),
            }
        }

        /// A model trained once on a small archive, so its normaliser is
        /// set: shared by every case that draws it.
        fn trained_model() -> &'static Milan {
            static MODEL: OnceLock<Milan> = OnceLock::new();
            MODEL.get_or_init(|| {
                let config =
                    MilanConfig { epochs: 1, triplets_per_epoch: 8, ..MilanConfig::fast(8, 3) };
                let mut model = Milan::new(config).expect("valid configuration");
                let archive = ArchiveGenerator::new(GeneratorConfig::tiny(6, 3)).expect("config");
                model.train_on_archive(&archive.generate());
                model
            })
        }

        /// A static chunk body whose engine configuration carries its
        /// model's MiLaN configuration, where its two retired slots lie in
        /// it, and the same chunk with the engine's copy drawn on its own
        /// (`None` if that draw encodes like the model's).
        fn static_chunk(script: &mut &[u8]) -> (Vec<u8>, std::ops::Range<usize>, Option<Vec<u8>>) {
            let drawn;
            let model = if take(script, 1) % 2 == 1 {
                trained_model()
            } else {
                drawn = Milan::new(milan_config(script, true)).expect("valid configuration");
                &drawn
            };
            let mut config = EarthQubeConfig {
                milan: model.config().clone(),
                page_size: take(script, 8) as usize,
                train_model: take(script, 1) % 2 == 1,
            };
            let serve = ServeConfig {
                shards: 1 + take(script, 2) as usize,
                cache_capacity: take(script, 8) as usize,
            };
            let bytes = encode_static_chunk(&config, serve, model);
            let retired = 1 + milan_config_bytes(&config.milan).len();
            config.milan = milan_config(script, false);
            let disagreeing = (milan_config_bytes(&config.milan)
                != milan_config_bytes(model.config()))
            .then(|| encode_static_chunk(&config, serve, model));
            (bytes, retired..retired + 12, disagreeing)
        }

        /// A decoded static chunk body re-encoded, or `None` for any other
        /// kind.
        fn reencoded_static(body: &[u8]) -> Option<Result<Vec<u8>, EarthQubeError>> {
            match decode_chunk_body(body) {
                Ok(ChunkPayload::Static { config, serve, model }) => {
                    Some(Ok(encode_static_chunk(&config, serve, &model)))
                }
                Ok(_) => None,
                Err(e) => Some(Err(e)),
            }
        }

        fn damaged(mut bytes: Vec<u8>, (at, byte, flip): (usize, u8, bool)) -> Vec<u8> {
            let at = at % bytes.len();
            if flip {
                bytes[at] ^= 1 << (byte % 8);
            } else {
                bytes[at] = byte;
            }
            bytes
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn wal_records_accept_only_what_they_write(
                script in proptest::collection::vec(0u8..=255u8, 0..160),
                damage in (0usize..1 << 20, 0u8..=255u8, any::<bool>()),
            ) {
                let bytes = record(&mut script.as_slice()).encode();
                prop_assert_eq!(decode_record(&bytes).map(|back| back.encode()), Ok(bytes.clone()));
                let bytes = damaged(bytes, damage);
                if let Ok(back) = decode_record(&bytes) {
                    prop_assert!(back.encode() == bytes, "a damaged record re-encodes otherwise");
                }
            }

            #[test]
            fn records_chunks_accept_only_what_they_write(
                script in proptest::collection::vec(0u8..=255u8, 0..240),
                damage in (0usize..1 << 20, 0u8..=255u8, any::<bool>()),
            ) {
                let mut script = script.as_slice();
                let start = take(&mut script, 2) as usize;
                let records: Vec<_> = (0..take(&mut script, 1) % 4).map(|_| record(&mut script)).collect();
                let bytes = chunk_bytes(start, &records);
                prop_assert!(matches!(reencoded_chunk(&bytes), Some(Ok(back)) if back == bytes));
                let bytes = damaged(bytes, damage);
                match reencoded_chunk(&bytes) {
                    Some(Ok(back)) => prop_assert!(back == bytes, "a damaged chunk re-encodes otherwise"),
                    Some(Err(_)) => {}
                    None => prop_assert!(false, "a damaged records chunk decoded as another kind"),
                }
            }
        }

        proptest! {
            // Each case decodes its chunk ~260 times, once per damaged byte.
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn static_chunks_accept_only_what_they_write(
                script in proptest::collection::vec(0u8..=255u8, 0..160),
                damage in (0usize..1 << 20, 0u8..=255u8, any::<bool>()),
            ) {
                let (bytes, retired, disagreeing) = static_chunk(&mut script.as_slice());
                prop_assert!(matches!(reencoded_static(&bytes), Some(Ok(back)) if back == bytes));
                if let Some(disagreeing) = disagreeing {
                    prop_assert!(
                        matches!(decode_chunk_body(&disagreeing), Err(EarthQubeError::Persist(_))),
                        "a static chunk whose two MiLaN configurations differ was accepted"
                    );
                }
                // Damage at every byte of the configurations and the model's
                // header, then at one byte anywhere: the weights behind the
                // header are bare `f32` bit patterns.
                let (_, byte, flip) = damage;
                for at in (0..bytes.len().min(256)).chain([damage.0 % bytes.len()]) {
                    let hurt = damaged(bytes.clone(), (at, byte, flip));
                    let expected = if retired.contains(&at) { &bytes } else { &hurt };
                    match reencoded_static(&hurt) {
                        Some(Ok(back)) => prop_assert!(back == *expected, "a damaged static chunk re-encodes otherwise at {}", at),
                        Some(Err(_)) => {}
                        None => prop_assert!(false, "a damaged static chunk decoded as another kind"),
                    }
                }
            }
        }
    }
}
