//! Write-path failures: durable before visible.  A write whose WAL append
//! or sync fails applies nothing — it is neither searchable nor counted,
//! and no cache is cleared — and detaches the log.  After the next
//! checkpoint the same write lands under the same key, and the directory
//! recovers to the answers of a server that never failed.  A replica's
//! pulled batch whose segment rotation fails after a good sync still
//! applies, and the next write seals the segment.
//!
//! Points are armed on the server under test (`QueryServer::failpoints`),
//! so the tests of this binary run in parallel without seeing each other.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use agoraeo::bigearthnet::patch::Patch;
use agoraeo::bigearthnet::{Archive, ArchiveGenerator, GeneratorConfig};
use agoraeo::earthqube::feedback::FeedbackEntry;
use agoraeo::earthqube::net::{query_to_spec, NetServer};
use agoraeo::earthqube::replicate::SyncStatus;
use agoraeo::earthqube::{
    failpoints, EarthQubeConfig, EarthQubeError, ImageQuery, QueryServer, Replica, RequestBody,
    RetryPolicy, ServeConfig,
};
use agoraeo::proto::Response;

const SEED: u64 = 7272;

fn generate(n: usize, seed: u64) -> Archive {
    ArchiveGenerator::new(GeneratorConfig::tiny(n, seed)).unwrap().generate()
}

fn build(archive: &Archive) -> QueryServer {
    let mut config = EarthQubeConfig::fast(SEED);
    config.train_model = false;
    QueryServer::build(archive, config, ServeConfig::default()).unwrap()
}

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let path = std::env::temp_dir().join(format!("eq_write_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        ScratchDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The two live writes, each of which a failed sync must leave unapplied.
#[derive(Debug, Clone, Copy)]
enum Write {
    Ingest,
    Feedback,
}

impl Write {
    /// Runs the write; its key is the patch's dense id or the feedback id.
    fn run(self, srv: &QueryServer, patch: &Patch) -> Result<i64, EarthQubeError> {
        match self {
            Write::Ingest => {
                srv.ingest(std::slice::from_ref(patch))?;
                Ok(srv.metadata_of(&patch.meta.name).map_or(-1, |m| i64::from(m.id.0)))
            }
            Write::Feedback => srv.submit_feedback("the coastline tiles load slowly", Some("bug")),
        }
    }
}

/// What a write changes: both record counts, the growth counter, the
/// stored feedback and the result cache.
fn state(srv: &QueryServer) -> (usize, u64, Vec<FeedbackEntry>, usize) {
    let stats = srv.stats();
    (stats.archive_size, stats.ingested_images, srv.list_feedback().unwrap(), stats.cache_entries)
}

/// Every answer a client could compare, as the wire encodes it.
fn answers(srv: &QueryServer, archive: &Archive, patch: &Patch) -> Vec<Vec<u8>> {
    let mut requests =
        vec![RequestBody::Search(query_to_spec(&ImageQuery::all())), RequestBody::Stats];
    for name in archive.patches().iter().chain([patch]).map(|p| p.meta.name.clone()) {
        requests.push(RequestBody::SimilarTo { name, k: 5 });
    }
    let mut bytes: Vec<Vec<u8>> =
        requests.iter().map(|r| Response { id: 0, body: srv.call(r) }.encode()).collect();
    bytes.push(format!("{:?}", srv.list_feedback().unwrap()).into_bytes());
    bytes
}

/// For each write-path point and each live write: the failed write is
/// `Persist`, changes nothing a reader sees, and detaches the log; the
/// retry after a checkpoint takes the same key, and the directory recovers
/// byte-identically to a twin that never failed.
#[test]
fn a_failed_append_or_sync_applies_nothing_and_the_retry_takes_the_same_key() {
    let archive = generate(12, SEED);
    let patch = generate(1, 7_373).patches()[0].clone();
    for point in failpoints::WRITE_POINTS {
        for write in [Write::Ingest, Write::Feedback] {
            let case = format!("{point}_{write:?}");
            let (dir, twin_dir) =
                (ScratchDir::new(&case), ScratchDir::new(&format!("{case}_twin")));
            let srv = build(&archive);
            srv.checkpoint(dir.path()).unwrap();
            srv.submit_feedback("first", None).unwrap();
            for p in &archive.patches()[..4] {
                srv.similar_to(&p.meta.name, 3).unwrap(); // warm the result cache
            }
            let before = state(&srv);
            assert!(before.3 > 0, "{case}: the cache holds answers to keep");

            let fired = srv.failpoints().fired_count();
            assert!(srv.failpoints().arm(point), "`{point}` is not a declared failpoint");
            let err = write.run(&srv, &patch).unwrap_err();
            srv.failpoints().disarm();
            assert!(matches!(err, EarthQubeError::Persist(_)), "{case}: {err:?}");
            assert_eq!(srv.failpoints().fired_count(), fired + 1, "{case}: the point was reached");
            assert_eq!(state(&srv), before, "{case}: a failed write applies nothing");
            let unknown = srv.similar_to(&patch.meta.name, 3).unwrap_err();
            assert!(matches!(unknown, EarthQubeError::UnknownImage(_)), "{case}: {unknown:?}");
            assert_eq!(srv.attached_dir(), None, "{case}: the log detaches");

            srv.checkpoint(dir.path()).unwrap();
            let key = write.run(&srv, &patch).unwrap();
            let expected = match write {
                Write::Ingest => 12, // the dense id after the 12 built patches
                Write::Feedback => 1,
            };
            assert_eq!(key, expected, "{case}: the retry lands under the same key");
            drop(srv);

            let twin = build(&archive);
            twin.checkpoint(twin_dir.path()).unwrap();
            twin.submit_feedback("first", None).unwrap();
            assert_eq!(write.run(&twin, &patch).unwrap(), expected);
            drop(twin);

            let back = QueryServer::recover(dir.path()).unwrap();
            let twin = QueryServer::recover(twin_dir.path()).unwrap();
            assert_eq!(
                answers(&back, &archive, &patch),
                answers(&twin, &archive, &patch),
                "{case}: the recovered directory answers as the twin's"
            );
        }
    }
}

/// The WAL segment files of a persistence directory.
fn segment_files(dir: &Path) -> usize {
    let entries = std::fs::read_dir(dir).unwrap();
    entries.filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".eqw")).count()
}

/// A replica's pulled batch whose segment rotation fails after a good sync
/// still applies what was synced: the records are on the replica's log,
/// so the replica serves them, and the pull succeeds — sealing is best
/// effort.  The next pull's write seals the oversized segment.
#[test]
fn a_failed_rotation_still_applies_the_synced_batch() {
    let archive = generate(10, SEED + 1);
    let (primary_dir, replica_dir) = (ScratchDir::new("primary"), ScratchDir::new("replica"));
    let primary = Arc::new(build(&archive));
    primary.checkpoint(primary_dir.path()).unwrap();
    let net = NetServer::bind(Arc::clone(&primary), "127.0.0.1:0", 1).unwrap();
    let addr = net.local_addr().to_string();
    let mut replica =
        Replica::bootstrap(replica_dir.path(), &addr, 1, RetryPolicy::no_retries()).unwrap();
    let follower = Arc::clone(replica.server());
    follower.set_segment_limit(1);
    let logged = segment_files(replica_dir.path());

    let extra = generate(2, 7_474);
    primary.ingest(extra.patches()).unwrap();
    assert!(follower.failpoints().arm("segment-precreate"));
    let status = replica.sync_once();
    follower.failpoints().disarm();
    assert_eq!(status.unwrap(), SyncStatus::Applied(2), "a failed seal fails no pull");
    assert_eq!(follower.archive_size(), 12, "the synced records are applied");
    for patch in extra.patches() {
        assert_eq!(
            follower.similar_to(&patch.meta.name, 4).unwrap(),
            primary.similar_to(&patch.meta.name, 4).unwrap()
        );
    }
    assert_eq!(segment_files(replica_dir.path()), logged, "the live segment was not sealed");

    primary.submit_feedback("after the failed seal", None).unwrap();
    assert_eq!(replica.sync_once().unwrap(), SyncStatus::Applied(1));
    assert_eq!(segment_files(replica_dir.path()), logged + 1, "the next write seals it");
    assert_eq!(primary.list_feedback().unwrap(), follower.list_feedback().unwrap());
    drop((replica, follower));
    let back = QueryServer::recover(replica_dir.path()).unwrap();
    assert_eq!(back.archive_size(), 12, "the records are on the replica's log");
    net.shutdown();
}
