//! Crash-recovery tests of the durable storage tier: a `QueryServer` that
//! is checkpointed, killed mid-ingest (torn WAL record) and recovered must
//! answer the umbrella determinism workload byte-identically to a server
//! that never crashed, and recovery itself must be idempotent.

use std::fs::OpenOptions;
use std::path::{Path, PathBuf};

use agoraeo::bigearthnet::{Archive, ArchiveGenerator, Country, GeneratorConfig, Label};
use agoraeo::earthqube::net::{payload_to_response, query_to_spec};
use agoraeo::earthqube::{
    EarthQubeConfig, ImageQuery, LabelFilter, LabelOperator, QueryServer, RequestBody,
    ResponseBody, SearchResponse, ServeConfig,
};
use agoraeo::geo::GeoShape;

const SEED: u64 = 7878;

fn generate(n: usize, seed: u64) -> Archive {
    ArchiveGenerator::new(GeneratorConfig::tiny(n, seed)).unwrap().generate()
}

fn engine_config(seed: u64) -> EarthQubeConfig {
    let mut config = EarthQubeConfig::fast(seed);
    config.milan.epochs = 5;
    config
}

/// The umbrella determinism workload: CBIR, label, spatial and
/// query-by-new-example traffic (the same mix as `concurrent_serving.rs`,
/// plus the model-dependent new-example path so recovery of the trained
/// weights is exercised too).
fn workload(archive: &Archive) -> Vec<RequestBody> {
    let mut requests = Vec::new();
    for (i, patch) in archive.patches().iter().enumerate().take(24) {
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
                    ArchiveGenerator::new(GeneratorConfig::tiny(1, 40_000 + i as u64))
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

fn assert_identical(a: &QueryServer, b: &QueryServer, requests: &[RequestBody], what: &str) {
    let (ra, rb) = (responses(a, requests), responses(b, requests));
    for (i, (x, y)) in ra.iter().zip(&rb).enumerate() {
        assert_eq!(x.panel, y.panel, "{what}: panel of request {i} differs");
        assert_eq!(x.statistics, y.statistics, "{what}: statistics of request {i} differ");
        assert_eq!(x.plan, y.plan, "{what}: plan of request {i} differs");
    }
}

/// A scratch directory that cleans up after itself.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let path = std::env::temp_dir().join(format!("eq_recovery_{name}_{}", std::process::id()));
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

/// Every WAL segment file in the directory, sorted by segment index.
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal.") && n.ends_with(".eqw"))
        })
        .collect();
    segments.sort();
    segments
}

/// Chops `n` bytes off the end of the live (highest-indexed) WAL segment,
/// simulating a crash in the middle of a record `write` (a torn write: the
/// length/CRC frame no longer matches the payload).
fn tear_wal_tail(dir: &Path, n: u64) {
    let wal = segment_files(dir).pop().expect("a WAL segment exists");
    let file = OpenOptions::new().write(true).open(&wal).expect("WAL exists");
    let len = file.metadata().unwrap().len();
    assert!(len > n, "WAL too short to tear");
    file.set_len(len - n).unwrap();
}

/// The acceptance scenario: checkpoint, ingest patch-by-patch, kill the WAL
/// mid-record, recover — and compare byte-for-byte against an uncrashed
/// reference server that applied exactly the writes that became durable.
#[test]
fn torn_wal_recovery_matches_an_uncrashed_server() {
    let dir = ScratchDir::new("torn");
    let initial = generate(60, SEED);
    let extra = generate(8, 555_555); // distinct seed → distinct patch names

    // The server that will "crash": checkpoint first, then ingest the extra
    // patches one at a time so each becomes one WAL record.
    let crashed =
        QueryServer::build(&initial, engine_config(SEED), ServeConfig::default()).unwrap();
    crashed.checkpoint(dir.path()).unwrap();
    for patch in extra.patches() {
        crashed.ingest(std::slice::from_ref(patch)).unwrap();
    }
    crashed.submit_feedback("mid-flight comment", None).unwrap();
    drop(crashed); // the "kill"

    // Tear the feedback record (the last one) mid-write: after recovery the
    // eight ingested patches survive, the torn feedback does not.
    tear_wal_tail(dir.path(), 3);
    let recovered = QueryServer::recover(dir.path()).unwrap();
    assert_eq!(recovered.archive_size(), 68);
    assert!(recovered.list_feedback().unwrap().is_empty(), "torn record must be discarded");

    // The uncrashed reference applies exactly the durable writes.
    let reference =
        QueryServer::build(&initial, engine_config(SEED), ServeConfig::default()).unwrap();
    reference.ingest(extra.patches()).unwrap();

    let requests = workload(&initial);
    assert_identical(&recovered, &reference, &requests, "recovered vs uncrashed");

    // The appended patches themselves answer identically too.
    for patch in extra.patches() {
        assert_eq!(
            recovered.similar_to(&patch.meta.name, 5).unwrap(),
            reference.similar_to(&patch.meta.name, 5).unwrap()
        );
    }
}

/// Tearing into the middle of an *ingest* record drops exactly that patch:
/// recovery falls back to the longest intact record prefix.
#[test]
fn torn_ingest_record_recovers_the_intact_prefix() {
    let dir = ScratchDir::new("torn_ingest");
    let initial = generate(30, SEED + 1);
    let extra = generate(5, 666_666);

    let crashed =
        QueryServer::build(&initial, engine_config(SEED + 1), ServeConfig::default()).unwrap();
    crashed.checkpoint(dir.path()).unwrap();
    for patch in extra.patches() {
        crashed.ingest(std::slice::from_ref(patch)).unwrap();
    }
    drop(crashed);
    tear_wal_tail(dir.path(), 100); // well into the last ingest record

    let recovered = QueryServer::recover(dir.path()).unwrap();
    assert_eq!(recovered.archive_size(), 34, "the torn fifth patch must be dropped");

    let reference =
        QueryServer::build(&initial, engine_config(SEED + 1), ServeConfig::default()).unwrap();
    reference.ingest(&extra.patches()[..4]).unwrap();
    let requests = workload(&initial);
    assert_identical(&recovered, &reference, &requests, "prefix recovery");
}

/// Recovery is idempotent: a second recovery of the same directory — after
/// the first one already truncated the torn tail — yields a server with
/// identical answers and identical on-disk state.
#[test]
fn second_recovery_is_idempotent() {
    let dir = ScratchDir::new("idempotent");
    let initial = generate(25, SEED + 2);
    let extra = generate(4, 777_777);

    let crashed =
        QueryServer::build(&initial, engine_config(SEED + 2), ServeConfig::default()).unwrap();
    crashed.checkpoint(dir.path()).unwrap();
    for patch in extra.patches() {
        crashed.ingest(std::slice::from_ref(patch)).unwrap();
    }
    drop(crashed);
    tear_wal_tail(dir.path(), 7);

    let first = QueryServer::recover(dir.path()).unwrap();
    let first_size = first.archive_size();
    let requests = workload(&initial);
    let first_responses = responses(&first, &requests);
    drop(first); // releases the WAL handle; no writes happened

    let second = QueryServer::recover(dir.path()).unwrap();
    assert_eq!(second.archive_size(), first_size);
    let second_responses = responses(&second, &requests);
    assert_eq!(first_responses, second_responses, "second recovery must change nothing");

    // And a third, for good measure — the truncation performed by the first
    // recovery must itself be stable.
    drop(second);
    let third = QueryServer::recover(dir.path()).unwrap();
    assert_eq!(responses(&third, &requests), first_responses);
}

/// A checkpoint with no subsequent writes restores the exact server: the
/// plain snapshot path, no WAL involved.
#[test]
fn checkpoint_without_wal_traffic_roundtrips() {
    let dir = ScratchDir::new("plain");
    let initial = generate(40, SEED + 3);
    let original = QueryServer::build(
        &initial,
        engine_config(SEED + 3),
        ServeConfig { shards: 4, cache_capacity: 64 },
    )
    .unwrap();
    original.checkpoint(dir.path()).unwrap();
    // Capture the original's answers, then drop it: recovery takes the WAL
    // file lock, which refuses to coexist with a live writer.
    let requests = workload(&initial);
    let expected_serve = original.serve_config();
    let expected_size = original.stats().archive_size;
    let expected_responses = responses(&original, &requests);
    drop(original);

    let recovered = QueryServer::recover(dir.path()).unwrap();
    assert_eq!(recovered.serve_config(), expected_serve);
    assert_eq!(recovered.stats().archive_size, expected_size, "every image must be restored");
    assert_eq!(responses(&recovered, &requests), expected_responses, "snapshot-only recovery");
}

/// An incremental checkpoint after a one-patch ingest writes a small
/// fraction of the full snapshot, and retires the WAL segments the new
/// manifest no longer needs — the two headline properties of the
/// incremental design, asserted on the real write path.
#[test]
fn incremental_checkpoint_writes_a_fraction_and_retires_segments() {
    use agoraeo::earthqube::CheckpointKind;

    let dir = ScratchDir::new("fraction");
    let initial = generate(60, SEED + 7);
    let srv =
        QueryServer::build(&initial, engine_config(SEED + 7), ServeConfig::default()).unwrap();
    let full = srv.checkpoint(dir.path()).unwrap();
    assert_eq!(full.kind, CheckpointKind::Full);

    let extra = generate(1, 123_123);
    srv.ingest(extra.patches()).unwrap();
    let segments_before = segment_files(dir.path()).len();
    let incr = srv.checkpoint(dir.path()).unwrap();
    assert_eq!(incr.kind, CheckpointKind::Incremental);
    assert!(
        incr.bytes_written * 10 < full.bytes_written,
        "one dirty patch must checkpoint in <10% of the full snapshot \
         ({} vs {} bytes)",
        incr.bytes_written,
        full.bytes_written
    );
    assert_eq!(incr.segments_retired as usize, segments_before, "covered segments must retire");
    assert_eq!(segment_files(dir.path()).len(), 1, "only the fresh live segment remains");
}

/// A hole in the middle of the segment chain means records were lost;
/// recovery must refuse, never silently skip to the next segment.
#[test]
fn missing_middle_segment_is_a_hard_error() {
    let dir = ScratchDir::new("gap");
    let initial = generate(20, SEED + 5);
    let srv =
        QueryServer::build(&initial, engine_config(SEED + 5), ServeConfig::default()).unwrap();
    srv.checkpoint(dir.path()).unwrap();
    srv.set_segment_limit(1); // every synced batch seals its segment
    for seed in [901u64, 902, 903] {
        srv.ingest(generate(1, seed).patches()).unwrap();
    }
    drop(srv);
    let segments = segment_files(dir.path());
    assert!(segments.len() >= 3, "rotation must have produced a chain");
    std::fs::remove_file(&segments[1]).unwrap(); // punch a hole mid-chain
    let err = QueryServer::recover(dir.path()).unwrap_err();
    assert!(err.to_string().contains("missing segment"), "unexpected error: {err}");
}

/// A manifest whose chain start is gone while later segments survive is
/// stale — replaying only the surviving suffix would silently drop the
/// records of the missing segment, so recovery must refuse.
#[test]
fn chain_not_starting_at_first_segment_is_a_stale_manifest_error() {
    let dir = ScratchDir::new("stale_start");
    let initial = generate(20, SEED + 6);
    let srv =
        QueryServer::build(&initial, engine_config(SEED + 6), ServeConfig::default()).unwrap();
    srv.checkpoint(dir.path()).unwrap();
    srv.ingest(generate(2, 999_999).patches()).unwrap();
    srv.checkpoint(dir.path()).unwrap(); // incremental: chain restarts past segment 0
    srv.set_segment_limit(1);
    srv.ingest(generate(1, 999_998).patches()).unwrap(); // seals the chain start
    srv.ingest(generate(1, 999_997).patches()).unwrap();
    drop(srv);
    let segments = segment_files(dir.path());
    assert!(segments.len() >= 2);
    std::fs::remove_file(&segments[0]).unwrap(); // the manifest's first segment
    let err = QueryServer::recover(dir.path()).unwrap_err();
    assert!(err.to_string().contains("stale manifest"), "unexpected error: {err}");
}

/// Restoring a superseded manifest over an advanced directory must not
/// quietly resurrect the old checkpoint: the first WAL segment it starts
/// from was retired when its successor published.
#[test]
fn restored_old_manifest_over_an_advanced_directory_is_refused() {
    let dir = ScratchDir::new("old_manifest");
    let initial = generate(20, SEED + 8);
    let srv =
        QueryServer::build(&initial, engine_config(SEED + 8), ServeConfig::default()).unwrap();
    srv.checkpoint(dir.path()).unwrap();
    let old_manifest = std::fs::read(dir.path().join("manifest.eqm")).unwrap();
    srv.ingest(generate(2, 555_444).patches()).unwrap();
    srv.checkpoint(dir.path()).unwrap(); // supersedes: retires WAL segment 0
    drop(srv);
    std::fs::write(dir.path().join("manifest.eqm"), &old_manifest).unwrap();
    assert!(QueryServer::recover(dir.path()).is_err(), "resurrected manifest must be refused");
}
