//! The replication stream under random schedules.  One seeded stream of
//! operations, driven from the test thread over loopback, mixes ingest,
//! feedback, replica pulls under random byte budgets (one byte included),
//! replica checkpoints, replica drop-and-recover, primary checkpoints,
//! primary drop-and-recover, and promote-then-follow (the replica catches
//! up and is promoted, and the old primary's directory rejoins as its
//! replica).  After every catch-up the replica answers byte-identically to
//! the primary; after every operation every acknowledged write is on
//! whichever server is primary.  Steady-state pulls never re-seed: only
//! the rejoining old primary does, once.
//!
//! Until the net tier runs on a simulated clock and transport, this
//! property stands in for a seeded cluster simulation.  A failing case
//! prints its seed and its stream; `PROPTEST_SEED` draws new streams.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use agoraeo::bigearthnet::{Archive, ArchiveGenerator, GeneratorConfig, Label};
use agoraeo::earthqube::net::{response_to_payload, NetServer};
use agoraeo::earthqube::{
    EarthQubeConfig, ImageQuery, LabelFilter, LabelOperator, QueryServer, Replica, RetryPolicy,
    ServeConfig, SyncStatus,
};
use proptest::prelude::*;

const SEED: u64 = 36_036;
const INITIAL: usize = 8;
const POOL: usize = 24;
const OPS: usize = 14;
/// Small enough that both logs rotate inside a stream.
const SEGMENT_LIMIT: u64 = 4096;
/// Pull budgets: one byte, less than a record, a few records, everything.
const BUDGETS: [u64; 4] = [1, 512, 16 * 1024, 1 << 20];

#[derive(Debug, Clone, Copy)]
enum Op {
    Ingest(usize),
    Feedback,
    Pull(u64),
    CatchUp,
    ReplicaCheckpoint,
    ReplicaRestart,
    PrimaryCheckpoint,
    PrimaryRestart,
    PromoteThenFollow,
}

fn decode((kind, param): (usize, usize)) -> Op {
    match kind {
        0 | 1 => Op::Ingest(1 + param % 3),
        2 => Op::Feedback,
        3..=5 => Op::Pull(BUDGETS[param % BUDGETS.len()]),
        6 => Op::CatchUp,
        7 => Op::ReplicaCheckpoint,
        8 => Op::ReplicaRestart,
        9 => Op::PrimaryCheckpoint,
        10 => Op::PrimaryRestart,
        _ => Op::PromoteThenFollow,
    }
}

fn generate(n: usize, seed: u64) -> Archive {
    ArchiveGenerator::new(GeneratorConfig::tiny(n, seed)).unwrap().generate()
}

fn policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 6,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(20),
        jitter_seed: SEED,
    }
}

/// A scratch directory that cleans up after itself, one per case.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Self {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("eq_prop_repl_{}_{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        ScratchDir(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a replica must answer as its primary does, encoded: the query
/// panel, a label filter, k-NN from a few images, the feedback list.
fn answers(server: &QueryServer, names: &[String]) -> Vec<u8> {
    let mut w = agoraeo::wire::Writer::new();
    let labels = LabelFilter::new(LabelOperator::Some, vec![Label::ALL[0], Label::ALL[7]]);
    for query in [ImageQuery::all(), ImageQuery::all().with_labels(labels)] {
        response_to_payload(&server.search(&query).unwrap()).encode(&mut w);
    }
    for name in names.iter().step_by(5) {
        response_to_payload(&server.similar_to(name, 4).unwrap()).encode(&mut w);
    }
    for entry in server.list_feedback().unwrap() {
        w.i64(entry.id);
        w.str(&entry.text);
    }
    w.into_bytes()
}

/// Serves `server` on loopback at `addr` (or, should that port have been
/// taken meanwhile, on any free one), with small segments.
fn serve(server: &Arc<QueryServer>, addr: &str) -> NetServer {
    server.set_segment_limit(SEGMENT_LIMIT);
    let bind = |addr: &str| NetServer::bind(Arc::clone(server), addr, 1);
    bind(addr).or_else(|_| bind("127.0.0.1:0")).unwrap()
}

/// A replica over `dir` of the primary at `addr`, with small segments.
fn follow(dir: &Path, addr: &str) -> Replica {
    let replica = Replica::bootstrap(dir, addr, 1, policy()).unwrap();
    replica.server().set_segment_limit(SEGMENT_LIMIT);
    replica
}

/// Runs one stream; `Err` names the first divergence.  A panic (a failed
/// `unwrap`) is caught by the caller, which reports the case either way.
fn run(ops: &[Op]) -> Result<(), String> {
    let (initial, pool) = (generate(INITIAL, SEED), generate(POOL, SEED + 1));
    let scratch = ScratchDir::new();
    // The primary's directory first; promotion swaps them.
    let mut dirs = [scratch.0.join("a"), scratch.0.join("b")];

    let config = EarthQubeConfig { train_model: false, ..EarthQubeConfig::fast(SEED) };
    let mut primary =
        Arc::new(QueryServer::build(&initial, config, ServeConfig::default()).unwrap());
    primary.checkpoint(&dirs[0]).unwrap();
    let mut net = serve(&primary, "127.0.0.1:0");
    let mut addr = net.local_addr().to_string();
    let mut replica = follow(&dirs[1], &addr);

    let mut names: Vec<String> = initial.patches().iter().map(|p| p.meta.name.clone()).collect();
    let (mut ingested, mut feedback) = (0usize, 0usize);
    for (step, op) in ops.iter().enumerate() {
        let at = |what: &str| format!("step {step} {op:?}: {what}");
        let mut caught_up = false;
        match *op {
            Op::Ingest(n) => {
                let patches = &pool.patches()[ingested..(ingested + n).min(POOL)];
                primary.ingest(patches).unwrap();
                names.extend(patches.iter().map(|p| p.meta.name.clone()));
                ingested += patches.len();
            }
            Op::Feedback => {
                primary.submit_feedback(&format!("note {feedback}"), None).unwrap();
                feedback += 1;
            }
            Op::Pull(budget) => match replica.sync_within(budget).unwrap() {
                SyncStatus::Applied(n) if budget == 1 && n != 1 => {
                    return Err(at(&format!("a one-byte pull applied {n} records")));
                }
                SyncStatus::Applied(_) => {}
                SyncStatus::CaughtUp => caught_up = true,
                SyncStatus::ReseedRequired => return Err(at("a steady-state pull re-seeded")),
            },
            Op::CatchUp => {
                replica.catch_up().unwrap();
                caught_up = true;
            }
            Op::ReplicaCheckpoint => {
                replica.server().checkpoint(&dirs[1]).unwrap();
            }
            Op::ReplicaRestart => {
                // The restarted replica recovers what its log holds and
                // pulls only what it lacks: its first batch (which fits
                // every record of a stream) is exactly the lag.
                let (held, ahead) = (replica.server().repl_state(), primary.repl_state());
                drop(replica);
                replica = follow(&dirs[1], &addr);
                let resumed = replica.sync_state();
                let lag = ahead.ingested + ahead.feedback - held.ingested - held.feedback;
                if (resumed.reseeds, resumed.records_applied) != (0, lag) {
                    return Err(at(&format!("resumed as {resumed:?}, held {held:?}")));
                }
            }
            Op::PrimaryCheckpoint => {
                primary.checkpoint(&dirs[0]).unwrap();
            }
            Op::PrimaryRestart => {
                // A graceful stop, then recovery behind the same address:
                // the replica's link reconnects on its own.
                net.shutdown();
                drop(primary);
                primary = Arc::new(QueryServer::recover(&dirs[0]).unwrap());
                net = serve(&primary, &addr);
                if net.local_addr().to_string() != addr {
                    addr = net.local_addr().to_string();
                    drop(replica);
                    replica = follow(&dirs[1], &addr);
                }
            }
            Op::PromoteThenFollow => {
                replica.catch_up().unwrap();
                net.shutdown();
                drop(primary);
                primary = replica.promote().unwrap();
                net = serve(&primary, "127.0.0.1:0");
                addr = net.local_addr().to_string();
                dirs.swap(0, 1);
                replica = follow(&dirs[1], &addr);
                if replica.sync_state().reseeds != 1 {
                    return Err(at("the old primary's lineage was not re-seeded"));
                }
            }
        }
        if caught_up && answers(&primary, &names) != answers(replica.server(), &names) {
            return Err(at("the caught-up replica answers differently from its primary"));
        }
        // Every acknowledged write is on whichever server is primary.
        let held = (primary.archive_size(), primary.list_feedback().unwrap().len());
        if held != (INITIAL + ingested, feedback) {
            return Err(at(&format!("the primary holds {held:?}")));
        }
        if names.iter().any(|name| primary.metadata_of(name).is_none()) {
            return Err(at("an acknowledged image is missing on the primary"));
        }
    }
    replica.catch_up().unwrap();
    if answers(&primary, &names) != answers(replica.server(), &names) {
        return Err("the final replica answers differently".into());
    }
    net.shutdown();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever the schedule, a caught-up replica answers as its primary,
    /// no acknowledged write is lost, and steady-state pulls never
    /// re-seed.
    #[test]
    fn a_replica_follows_its_primary_through_any_schedule(
        raw in proptest::collection::vec((0usize..12, 0usize..12), OPS),
    ) {
        let ops: Vec<Op> = raw.into_iter().map(decode).collect();
        let failure = match std::panic::catch_unwind(|| run(&ops)) {
            Ok(outcome) => outcome.err(),
            Err(panic) => Some(
                panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default(),
            ),
        };
        prop_assert!(failure.is_none(), "{}; stream {ops:?}", failure.unwrap_or_default());
    }
}
