//! Crash-point injection: every declared persistence failpoint is armed in
//! turn, the checkpoint is killed at exactly that I/O boundary, and the
//! directory must recover to byte-identical query answers.
//!
//! A point is armed on the server under test (`QueryServer::failpoints`),
//! so the tests of this binary run in parallel without seeing each other.

use std::path::{Path, PathBuf};

use agoraeo::bigearthnet::{Archive, ArchiveGenerator, Country, GeneratorConfig, Label};
use agoraeo::earthqube::failpoints;
use agoraeo::earthqube::net::{payload_to_response, query_to_spec};
use agoraeo::earthqube::{
    EarthQubeConfig, ImageQuery, LabelFilter, LabelOperator, QueryServer, RequestBody,
    ResponseBody, SearchResponse, ServeConfig,
};
use agoraeo::geo::GeoShape;

const SEED: u64 = 6161;

fn generate(n: usize, seed: u64) -> Archive {
    ArchiveGenerator::new(GeneratorConfig::tiny(n, seed)).unwrap().generate()
}

fn engine_config(seed: u64) -> EarthQubeConfig {
    let mut config = EarthQubeConfig::fast(seed);
    config.milan.epochs = 5;
    config
}

/// The same determinism mix as `persistence_recovery.rs`: CBIR, label,
/// spatial and query-by-new-example traffic.
fn workload(archive: &Archive) -> Vec<RequestBody> {
    let mut requests = Vec::new();
    for (i, patch) in archive.patches().iter().enumerate().take(16) {
        requests.push(match i % 4 {
            0 => RequestBody::SimilarTo { name: patch.meta.name.clone(), k: 8 },
            1 => RequestBody::Search(query_to_spec(&ImageQuery::all().with_labels(
                LabelFilter::new(LabelOperator::Some, vec![Label::ALL[(i * 5) % Label::ALL.len()]]),
            ))),
            2 => {
                RequestBody::Search(query_to_spec(&ImageQuery::all().with_shape(GeoShape::Rect(
                    Country::ALL[i % Country::ALL.len()].bounding_box(),
                ))))
            }
            _ => RequestBody::SearchByNewExample {
                patch: Box::new(
                    ArchiveGenerator::new(GeneratorConfig::tiny(1, 50_000 + i as u64))
                        .unwrap()
                        .generate_patch(0),
                ),
                k: 6,
            },
        });
    }
    requests
}

fn responses(server: &QueryServer, requests: &[RequestBody]) -> Vec<SearchResponse> {
    let search = |r| match server.call(r) {
        ResponseBody::Search(payload) => payload_to_response(payload),
        other => panic!("{r:?} answered {other:?}"),
    };
    requests.iter().map(search).collect()
}

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let path = std::env::temp_dir().join(format!("eq_crash_{name}_{}", std::process::id()));
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

/// Clones a checkpoint directory file-by-file, so every crash scenario
/// starts from the same expensive-to-build base without rebuilding it.
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        if path.is_file() {
            std::fs::copy(&path, dst.join(path.file_name().unwrap())).unwrap();
        }
    }
}

/// Kills `srv`'s checkpoint into `target` at `point`, asserting that the
/// point is declared, aborts the checkpoint and was actually reached.
fn kill_checkpoint_at(srv: &QueryServer, point: &str, target: &Path) {
    let fired_before = srv.failpoints().fired_count();
    assert!(srv.failpoints().arm(point), "`{point}` is not a declared failpoint");
    let result = srv.checkpoint(target);
    srv.failpoints().disarm();
    assert!(result.is_err(), "failpoint `{point}` must abort the checkpoint");
    assert!(
        srv.failpoints().fired_count() > fired_before,
        "failpoint `{point}` is declared but the checkpoint never reached it"
    );
}

/// The tentpole acceptance scenario: for **every** declared crash point —
/// segment pre-create, header sync, chunk write/sync, the four manifest
/// publication steps, segment retirement and chunk GC — kill a checkpoint
/// exactly there, twice: an incremental one into the attached directory,
/// and the lineage switch of a checkpoint into a fresh directory.  Either
/// way the directories must recover to byte-identical answers to an
/// uncrashed reference.  Iterating `failpoints::ALL_POINTS` means a newly
/// declared point can never be silently skipped by this suite.
#[test]
fn every_declared_crash_point_recovers_byte_identically() {
    let dir = ScratchDir::new("matrix");
    let base = dir.path().join("base");
    let initial = generate(30, SEED);
    let extra = generate(3, 888_888);
    let (extra, late) = extra.patches().split_at(2);
    let requests = workload(&initial);

    // One expensive build; every scenario below re-clones this checkpoint.
    {
        let srv =
            QueryServer::build(&initial, engine_config(SEED), ServeConfig::default()).unwrap();
        srv.checkpoint(&base).unwrap();
    }

    // The uncrashed reference: the same post-checkpoint ingests, no kill.
    let (expected, expected_late) = {
        let refdir = dir.path().join("reference");
        copy_dir(&base, &refdir);
        let srv = QueryServer::recover(&refdir).unwrap();
        for patch in extra {
            srv.ingest(std::slice::from_ref(patch)).unwrap();
        }
        let expected = responses(&srv, &requests);
        srv.ingest(late).unwrap();
        (expected, responses(&srv, &requests))
    };

    for (i, point) in failpoints::ALL_POINTS.iter().enumerate() {
        // ---- An incremental checkpoint dies at the point. ----
        let crash_dir = dir.path().join(format!("point_{i}"));
        copy_dir(&base, &crash_dir);
        let srv = QueryServer::recover(&crash_dir).unwrap();
        for patch in extra {
            srv.ingest(std::slice::from_ref(patch)).unwrap();
        }
        kill_checkpoint_at(&srv, point, &crash_dir);
        drop(srv); // the "kill": the directory is frozen at the crash boundary

        let recovered = QueryServer::recover(&crash_dir)
            .unwrap_or_else(|e| panic!("recovery after a crash at `{point}` failed: {e}"));
        assert_eq!(recovered.archive_size(), 32, "crash at `{point}` lost ingested images");
        assert_eq!(
            responses(&recovered, &requests),
            expected,
            "crash at `{point}` must recover byte-identically"
        );
        // The survivor is fully operational: it can checkpoint cleanly and
        // the next recovery still answers identically (GC debris from the
        // crash — orphan chunks, retired segments — is swept, not fatal).
        recovered.checkpoint(&crash_dir).unwrap();
        drop(recovered);
        let again = QueryServer::recover(&crash_dir).unwrap();
        assert_eq!(responses(&again, &requests), expected, "post-crash checkpoint at `{point}`");
        drop(again);

        // ---- The lineage switch dies at the point: a checkpoint into a
        // fresh directory while attached elsewhere. ----
        let home = dir.path().join(format!("home_{i}"));
        let target = dir.path().join(format!("target_{i}"));
        copy_dir(&base, &home);
        let srv = QueryServer::recover(&home).unwrap();
        for patch in extra {
            srv.ingest(std::slice::from_ref(patch)).unwrap();
        }
        kill_checkpoint_at(&srv, point, &target);
        // The manifest rename is the commit point.  Before it the target
        // holds no manifest; after it the target is a complete checkpoint
        // of the state at the cut.  The server itself only moves once the
        // attachment is committed, which the two GC points come after.
        let renamed = ["manifest-dir-sync", "wal-retire", "chunk-gc"].contains(point);
        let moved = ["wal-retire", "chunk-gc"].contains(point);
        let attached = srv.attached_dir().expect("a failed switch never detaches");
        assert_eq!(attached, if moved { target.clone() } else { home.clone() }, "at `{point}`");
        let frozen = dir.path().join(format!("frozen_{i}"));
        copy_dir(&target, &frozen);
        match QueryServer::recover(&frozen) {
            Ok(aborted) => {
                assert!(renamed, "a crash at `{point}` must not publish a manifest");
                assert_eq!(responses(&aborted, &requests), expected, "target after `{point}`");
            }
            Err(_) => assert!(!renamed, "the manifest renamed before `{point}` must recover"),
        }
        // The server's dirty state is intact: one more ingest and a
        // checkpoint into the old directory, and that directory recovers
        // byte-identically with the reference.
        srv.ingest(late).unwrap();
        srv.checkpoint(&home).unwrap();
        assert_eq!(srv.attached_dir(), Some(home.clone()));
        drop(srv);
        let recovered = QueryServer::recover(&home).unwrap();
        assert_eq!(recovered.archive_size(), 33, "switch killed at `{point}` lost images");
        assert_eq!(responses(&recovered, &requests), expected_late, "home after `{point}`");
    }
}

/// A failed promotion is retryable: the replica keeps its attachment and
/// its directory lock, so once the fault is gone `promote` succeeds on the
/// same server, under a fresh generation and with nothing lost.
#[test]
fn failed_promotion_leaves_an_attached_replica_that_can_retry() {
    let dir = ScratchDir::new("promote");
    let initial = generate(12, SEED + 1);
    let requests = workload(&initial);
    {
        let srv =
            QueryServer::build(&initial, engine_config(SEED + 1), ServeConfig::default()).unwrap();
        srv.checkpoint(dir.path()).unwrap();
        srv.ingest(generate(2, 777_111).patches()).unwrap();
    }
    let replica = QueryServer::recover(dir.path()).unwrap();
    replica.set_replica_mode();
    let old_generation = replica.repl_state().generation;
    let size = replica.archive_size();
    let expected = responses(&replica, &requests);

    assert!(replica.failpoints().arm("manifest-rename"));
    assert!(replica.promote().is_err());
    replica.failpoints().disarm();
    assert!(!replica.is_primary(), "a failed promotion must not start taking writes");
    assert_eq!(replica.attached_dir().as_deref(), Some(dir.path()));
    assert_eq!(replica.repl_state().generation, old_generation);

    replica.promote().unwrap();
    assert!(replica.is_primary());
    assert_ne!(replica.repl_state().generation, old_generation, "promotion must fence");
    assert_eq!(replica.archive_size(), size);
    assert_eq!(responses(&replica, &requests), expected);
    drop(replica);
    let recovered = QueryServer::recover(dir.path()).unwrap();
    assert_eq!(recovered.archive_size(), size);
    assert_eq!(responses(&recovered, &requests), expected);
}
