//! Property-based convergence: an arbitrary interleaving of ingest batches,
//! feedback entries, incremental checkpoints, clean crashes, torn-tail
//! crashes and crash-injected checkpoints must end up answering queries
//! and listing feedback exactly like a reference server that saw the same
//! writes and then took one full checkpoint into a fresh lineage (a fresh
//! generation tag).

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use agoraeo::bigearthnet::{Archive, ArchiveGenerator, Country, GeneratorConfig, Label};
use agoraeo::earthqube::failpoints;
use agoraeo::earthqube::net::{payload_to_response, query_to_spec};
use agoraeo::earthqube::{
    EarthQubeConfig, ImageQuery, LabelFilter, LabelOperator, QueryServer, RequestBody,
    ResponseBody, SearchResponse, ServeConfig,
};
use agoraeo::geo::GeoShape;
use proptest::prelude::*;

const SEED: u64 = 40_412;
const INITIAL: usize = 20;
/// Large enough for the worst case: 8 ops, every one an ingest of 3.
const POOL: usize = 24;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Ingest the next `n` patches from the fixed pool.
    Ingest(usize),
    /// Submit the next feedback entry: every other one has a category.
    Feedback,
    /// Incremental checkpoint into the attached directory (may skip).
    Checkpoint,
    /// Drop the server and recover from disk.
    Crash,
    /// Crash, then scribble a partial record onto the live WAL segment —
    /// the torn tail of a write that never returned to its caller.
    CrashTorn,
    /// Arm the indexed declared crash point, attempt a checkpoint, crash.
    CrashAtPoint(usize),
}

fn decode(raw: &[(usize, usize)]) -> Vec<Op> {
    raw.iter()
        .map(|&(sel, param)| match sel {
            0 | 1 => Op::Ingest(1 + param % 3),
            2 => Op::Checkpoint,
            3 => Op::Crash,
            4 => Op::CrashTorn,
            5 => Op::Feedback,
            _ => Op::CrashAtPoint(param % failpoints::ALL_POINTS.len()),
        })
        .collect()
}

fn generate(n: usize, seed: u64) -> Archive {
    ArchiveGenerator::new(GeneratorConfig::tiny(n, seed)).unwrap().generate()
}

fn engine_config(seed: u64) -> EarthQubeConfig {
    let mut config = EarthQubeConfig::fast(seed);
    config.milan.epochs = 5;
    config
}

fn workload(archive: &Archive) -> Vec<RequestBody> {
    let mut requests = Vec::new();
    for (i, patch) in archive.patches().iter().enumerate().take(12) {
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
                    ArchiveGenerator::new(GeneratorConfig::tiny(1, 90_000 + i as u64))
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

/// Submits the `i`-th feedback entry of a case.
fn submit_feedback(server: &QueryServer, i: usize) {
    let category = i.is_multiple_of(2).then_some("reaction");
    server.submit_feedback(&format!("feedback {i}"), category).unwrap();
}

/// A write the subject took, which the reference repeats in order.
#[derive(Debug, Clone, Copy)]
enum Write {
    Ingest(usize),
    Feedback(usize),
}

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("eq_prop_{tag}_{}_{case}", std::process::id()));
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

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        if path.is_file() {
            std::fs::copy(&path, dst.join(path.file_name().unwrap())).unwrap();
        }
    }
}

/// Appends a partial record frame to the highest-indexed WAL segment —
/// what a kill mid-`append` (before the sync acknowledged the write)
/// leaves behind.  Recovery must truncate it, not refuse the chain.
fn scribble_torn_tail(dir: &Path) {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            let name = p.file_name()?.to_str()?.to_string();
            (name.starts_with("wal.") && name.ends_with(".eqw")).then_some(p)
        })
        .collect();
    segments.sort();
    let live = segments.last().expect("an attached directory always has a live segment");
    let mut file = std::fs::OpenOptions::new().append(true).open(live).unwrap();
    file.write_all(&[0xde, 0xad, 0xbe, 0xef, 0x01]).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The convergence property: whatever the interleaving, the final
    /// recovered state answers the fixed workload and lists feedback
    /// exactly like a reference that took the same writes and a single
    /// full checkpoint (fresh generation, fresh segment lineage).
    #[test]
    fn interleavings_converge_to_a_single_full_checkpoint(
        raw in proptest::collection::vec((0usize..7, 0usize..24), 1..9),
    ) {
        let ops = decode(&raw);
        let initial = generate(INITIAL, SEED);
        let pool = generate(POOL, SEED + 1);
        let requests = workload(&initial);

        // One trained base checkpoint per case keeps the property about
        // persistence, not training.
        let dir = ScratchDir::new("ivl");
        let base = dir.path().join("base");
        QueryServer::build(&initial, engine_config(SEED), ServeConfig::default())
            .unwrap()
            .checkpoint(&base)
            .unwrap();

        // --- Subject: replay the interleaving against `live`. ---------
        let live = dir.path().join("live");
        copy_dir(&base, &live);
        let mut srv = QueryServer::recover(&live).unwrap();
        // Small segments so rotation, retirement and orphan segments all
        // actually occur inside an 8-op interleaving.
        srv.set_segment_limit(1);
        let mut writes: Vec<Write> = Vec::new();
        let mut cursor = 0usize;
        let mut feedback = 0usize;
        for op in &ops {
            match *op {
                Op::Ingest(n) => {
                    let n = n.min(POOL - cursor);
                    if n == 0 {
                        continue;
                    }
                    srv.ingest(&pool.patches()[cursor..cursor + n]).unwrap();
                    cursor += n;
                    writes.push(Write::Ingest(n));
                }
                Op::Feedback => {
                    submit_feedback(&srv, feedback);
                    writes.push(Write::Feedback(feedback));
                    feedback += 1;
                }
                Op::Checkpoint => {
                    srv.checkpoint(&live).unwrap();
                }
                Op::Crash => {
                    drop(srv);
                    srv = QueryServer::recover(&live).unwrap();
                    srv.set_segment_limit(1);
                }
                Op::CrashTorn => {
                    drop(srv);
                    scribble_torn_tail(&live);
                    srv = QueryServer::recover(&live).unwrap();
                    srv.set_segment_limit(1);
                }
                Op::CrashAtPoint(point) => {
                    // The checkpoint may abort at the point (dirty state is
                    // restored) or skip before reaching it (nothing dirty);
                    // either way the directory is a legal crash boundary.
                    srv.failpoints().arm(failpoints::ALL_POINTS[point]);
                    let _ = srv.checkpoint(&live);
                    srv.failpoints().disarm();
                    drop(srv);
                    srv = QueryServer::recover(&live).unwrap();
                    srv.set_segment_limit(1);
                }
            }
            prop_assert_eq!(srv.archive_size(), INITIAL + cursor);
            prop_assert_eq!(srv.list_feedback().unwrap().len(), feedback);
        }
        drop(srv);
        let subject = QueryServer::recover(&live).unwrap();
        prop_assert_eq!(subject.archive_size(), INITIAL + cursor);

        // --- Reference: same writes, one full checkpoint. -------------
        let refdir = dir.path().join("reference");
        copy_dir(&base, &refdir);
        let reference = QueryServer::recover(&refdir).unwrap();
        let mut at = 0usize;
        for &write in &writes {
            match write {
                Write::Ingest(n) => {
                    reference.ingest(&pool.patches()[at..at + n]).unwrap();
                    at += n;
                }
                Write::Feedback(i) => submit_feedback(&reference, i),
            }
        }
        // Checkpointing into a directory the server is not attached to
        // always writes a full snapshot under a fresh generation tag.
        let full = dir.path().join("full");
        reference.checkpoint(&full).unwrap();
        drop(reference);
        let oracle = QueryServer::recover(&full).unwrap();

        prop_assert_eq!(responses(&subject, &requests), responses(&oracle, &requests));
        prop_assert_eq!(subject.list_feedback().unwrap(), oracle.list_feedback().unwrap());
    }
}
