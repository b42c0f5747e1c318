//! Crash-point injection: every declared persistence failpoint is armed in
//! turn, the checkpoint is killed at exactly that I/O boundary, and the
//! directory must recover to byte-identical query answers.
//!
//! The failpoint registry is process-global (one armed point at a time),
//! so this suite lives in its own test binary, and its tests — which
//! `cargo test` would run on parallel threads — take [`FAILPOINTS`] for
//! their whole body: a point armed by one can never fire inside the
//! other's checkpoint.

use std::path::{Path, PathBuf};

use agoraeo::bigearthnet::{Archive, ArchiveGenerator, Country, GeneratorConfig, Label};
use agoraeo::earthqube::failpoints;
use agoraeo::earthqube::{
    EarthQubeConfig, ImageQuery, LabelFilter, LabelOperator, QueryRequest, QueryServer,
    SearchResponse, ServeConfig,
};
use agoraeo::geo::GeoShape;

const SEED: u64 = 6161;

/// Serialises the tests of this binary around the one global failpoint.
static FAILPOINTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn failpoints_lock() -> std::sync::MutexGuard<'static, ()> {
    // A test that failed while holding the lock must not fail the other.
    FAILPOINTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

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
fn workload(archive: &Archive) -> Vec<QueryRequest> {
    let mut requests = Vec::new();
    for (i, patch) in archive.patches().iter().enumerate().take(16) {
        requests.push(match i % 4 {
            0 => QueryRequest::SimilarTo { name: patch.meta.name.clone(), k: 8 },
            1 => QueryRequest::Metadata(ImageQuery::all().with_labels(LabelFilter::new(
                LabelOperator::Some,
                vec![Label::ALL[(i * 5) % Label::ALL.len()]],
            ))),
            2 => {
                QueryRequest::Metadata(ImageQuery::all().with_shape(GeoShape::Rect(
                    Country::ALL[i % Country::ALL.len()].bounding_box(),
                )))
            }
            _ => QueryRequest::NewExample {
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

fn responses(server: &QueryServer, requests: &[QueryRequest]) -> Vec<SearchResponse> {
    requests.iter().map(|r| server.execute(r).unwrap()).collect()
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

/// The tentpole acceptance scenario: for **every** declared crash point —
/// segment pre-create, header sync, chunk write/sync, the four manifest
/// publication steps, segment retirement and chunk GC — kill an
/// incremental checkpoint exactly there, recover the directory, and
/// demand byte-identical answers to an uncrashed reference.  Iterating
/// `failpoints::ALL_POINTS` means a newly declared point can never be
/// silently skipped by this suite.
#[test]
fn every_declared_crash_point_recovers_byte_identically() {
    let _serial = failpoints_lock();
    let dir = ScratchDir::new("matrix");
    let base = dir.path().join("base");
    let initial = generate(30, SEED);
    let extra = generate(2, 888_888);
    let requests = workload(&initial);

    // One expensive build; every scenario below re-clones this checkpoint.
    {
        let srv =
            QueryServer::build(&initial, engine_config(SEED), ServeConfig::default()).unwrap();
        srv.checkpoint(&base).unwrap();
    }

    // The uncrashed reference: the same post-checkpoint ingest, no kill.
    let expected = {
        let refdir = dir.path().join("reference");
        copy_dir(&base, &refdir);
        let srv = QueryServer::recover(&refdir).unwrap();
        for patch in extra.patches() {
            srv.ingest(std::slice::from_ref(patch)).unwrap();
        }
        responses(&srv, &requests)
    };

    for (i, point) in failpoints::ALL_POINTS.iter().enumerate() {
        let crash_dir = dir.path().join(format!("point_{i}"));
        copy_dir(&base, &crash_dir);
        let srv = QueryServer::recover(&crash_dir).unwrap();
        for patch in extra.patches() {
            srv.ingest(std::slice::from_ref(patch)).unwrap();
        }

        let fired_before = failpoints::fired_count();
        assert!(failpoints::arm(point), "`{point}` is not a declared failpoint");
        let result = srv.checkpoint(&crash_dir);
        failpoints::disarm();
        assert!(result.is_err(), "failpoint `{point}` must abort the checkpoint");
        assert!(
            failpoints::fired_count() > fired_before,
            "failpoint `{point}` is declared but the checkpoint never reached it"
        );
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
    }
}

/// A crash *during a full checkpoint into a fresh lineage* (simulated at
/// the chunk-write boundary) leaves orphan chunks and possibly a
/// foreign-generation segment behind; the original directory's state must
/// be untouched by the failed attempt and keep recovering.
#[test]
fn crashed_full_checkpoint_leaves_the_old_lineage_recoverable() {
    let _serial = failpoints_lock();
    let dir = ScratchDir::new("full");
    let initial = generate(12, SEED + 1);
    let srv =
        QueryServer::build(&initial, engine_config(SEED + 1), ServeConfig::default()).unwrap();
    srv.checkpoint(dir.path()).unwrap();
    srv.ingest(generate(2, 777_111).patches()).unwrap();
    let requests = workload(&initial);
    let expected = responses(&srv, &requests);

    // A full checkpoint into a *different* directory dies at chunk-write.
    let other = dir.path().join("other");
    assert!(failpoints::arm("chunk-write"));
    let result = srv.checkpoint(&other);
    failpoints::disarm();
    assert!(result.is_err());
    drop(srv);

    // The original directory never saw the failed attempt.
    let recovered = QueryServer::recover(dir.path()).unwrap();
    assert_eq!(recovered.archive_size(), 14);
    assert_eq!(responses(&recovered, &requests), expected);
    // The aborted target holds no manifest, so recovering it is refused.
    assert!(QueryServer::recover(&other).is_err());
}
