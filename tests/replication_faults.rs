//! Replication & failover faults: replicas must serve byte-identical
//! reads while rejecting writes, resume from their durable record counts
//! across their own and the primary's restarts, checkpoint their own
//! lineage, survive hostile replication frames on neighbouring
//! connections, and — the acceptance scenario — promote with zero
//! acknowledged-write loss while the fenced old generation's unreplicated
//! suffix can never re-enter the new lineage.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use agoraeo::bigearthnet::{Archive, ArchiveGenerator, GeneratorConfig, Label, Patch};
use agoraeo::earthqube::net::{response_to_payload, EqClient, NetServer};
use agoraeo::earthqube::replicate::SyncStatus;
use agoraeo::earthqube::{
    CheckpointKind, ClusterClient, EarthQubeConfig, EarthQubeError, ImageQuery, LabelFilter,
    LabelOperator, PrefilterMode, QueryServer, Replica, RetryPolicy, SearchResponse, ServeConfig,
};

const SEED: u64 = 15_012;

/// A scratch directory that cleans up after itself.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let path = std::env::temp_dir().join(format!("eq_repl_{name}_{}", std::process::id()));
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

fn generate(n: usize, seed: u64) -> Archive {
    ArchiveGenerator::new(GeneratorConfig::tiny(n, seed)).unwrap().generate()
}

/// A primary attached to `dir` and serving on loopback.
fn primary(archive: &Archive, seed: u64, dir: &Path) -> (Arc<QueryServer>, NetServer) {
    let mut config = EarthQubeConfig::fast(seed);
    config.milan.epochs = 3;
    let server = Arc::new(QueryServer::build(archive, config, ServeConfig::default()).unwrap());
    server.checkpoint(dir).unwrap();
    let net = NetServer::bind(Arc::clone(&server), "127.0.0.1:0", 2).unwrap();
    (server, net)
}

/// A fast retry policy so fault paths don't stall the test suite.
fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 4,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(20),
        jitter_seed: SEED,
    }
}

fn label_query() -> ImageQuery {
    ImageQuery::all().with_labels(LabelFilter::new(
        LabelOperator::Some,
        vec![Label::MixedForest, Label::SeaAndOcean, Label::Pastures],
    ))
}

fn assert_byte_identical(a: &SearchResponse, b: &SearchResponse, what: &str) {
    assert_eq!(a, b, "{what}: responses differ");
    let mut wa = agoraeo::wire::Writer::new();
    response_to_payload(a).encode(&mut wa);
    let mut wb = agoraeo::wire::Writer::new();
    response_to_payload(b).encode(&mut wb);
    assert_eq!(wa.as_bytes(), wb.as_bytes(), "{what}: responses encode to different bytes");
}

/// Snapshot seeding, catch-up, byte-identical read service and typed
/// write rejection — the base replica contract.
#[test]
fn replica_serves_byte_identical_reads_and_rejects_writes() {
    let dir_p = ScratchDir::new("base_p");
    let dir_r = ScratchDir::new("base_r");
    let elsewhere = ScratchDir::new("base_elsewhere");
    let archive = generate(14, SEED);
    let extra = generate(5, SEED + 1);
    let (server, net) = primary(&archive, SEED, dir_p.path());

    // Writes past the checkpoint, so catch-up replays real WAL traffic.
    let mut client = EqClient::connect(net.local_addr()).unwrap();
    client.ingest(extra.patches()).unwrap();
    client.submit_feedback("replicate me", Some("praise")).unwrap();

    let addr = net.local_addr().to_string();
    let mut replica = Replica::bootstrap(dir_r.path(), &addr, 1, fast_policy()).unwrap();
    let sync = replica.catch_up().unwrap();
    assert!(sync.caught_up(), "fresh replica must reach the primary's position: {sync:?}");
    assert!(sync.records_applied >= 6, "ingest + feedback records expected, got {sync:?}");

    // Reads are byte-identical — metadata search, CBIR and the filtered
    // paths, plan included.
    let follower = Arc::clone(replica.server());
    assert_byte_identical(
        &server.search(&ImageQuery::all()).unwrap(),
        &follower.search(&ImageQuery::all()).unwrap(),
        "metadata search",
    );
    for patch in archive.patches().iter().take(6).chain(extra.patches().iter().take(2)) {
        assert_byte_identical(
            &server.similar_to(&patch.meta.name, 5).unwrap(),
            &follower.similar_to(&patch.meta.name, 5).unwrap(),
            &format!("similar_to {}", patch.meta.name),
        );
    }
    let name = &archive.patches()[0].meta.name;
    for mode in [PrefilterMode::Auto, PrefilterMode::ForceBitmap, PrefilterMode::ForcePostFilter] {
        let ours = server.similar_to_filtered(name, 6, &label_query(), mode).unwrap();
        let theirs = follower.similar_to_filtered(name, 6, &label_query(), mode).unwrap();
        assert_eq!(ours.plan, theirs.plan, "filtered plan differs under {mode:?}");
        assert_byte_identical(&ours.response, &theirs.response, "filtered similar_to");
    }

    // Writes bounce with the typed error, in-process and over the wire.
    assert!(matches!(follower.ingest(&extra.patches()[..1]), Err(EarthQubeError::NotPrimary(_))));
    assert!(matches!(follower.submit_feedback("no", None), Err(EarthQubeError::NotPrimary(_))));
    assert!(matches!(follower.checkpoint(elsewhere.path()), Err(EarthQubeError::NotPrimary(_))));
    assert!(!elsewhere.path().exists(), "a refused checkpoint writes nothing");
    let replica_net = NetServer::bind(Arc::clone(&follower), "127.0.0.1:0", 1).unwrap();
    let mut replica_client = EqClient::connect(replica_net.local_addr()).unwrap();
    assert!(matches!(
        replica_client.ingest(&extra.patches()[..1]),
        Err(EarthQubeError::NotPrimary(_))
    ));
    assert!(matches!(
        replica_client.submit_feedback("no", None),
        Err(EarthQubeError::NotPrimary(_))
    ));
    // The same connection still serves reads after the rejections.
    assert_byte_identical(
        &server.search(&ImageQuery::all()).unwrap(),
        &replica_client.search(&ImageQuery::all()).unwrap(),
        "wire read after rejected write",
    );

    replica_net.shutdown();
    net.shutdown();
}

/// A replica's caches die with the catalog state they were computed on:
/// filters it resolved and results it cached before a pull must not
/// answer after a pull has appended images that match them.
/// Checked for all three filter-taking kinds against the primary (caching)
/// and a `cache_capacity: 0` server fed the same writes.
#[test]
fn replicated_writes_invalidate_the_replica_s_resolved_filters() {
    let dir_p = ScratchDir::new("stale_p");
    let dir_r = ScratchDir::new("stale_r");
    let archive = generate(16, SEED + 50);
    let (server, net) = primary(&archive, SEED + 50, dir_p.path());
    let addr = net.local_addr().to_string();
    let mut replica = Replica::bootstrap(dir_r.path(), &addr, 3, fast_policy()).unwrap();
    assert!(replica.catch_up().unwrap().caught_up());
    let follower = Arc::clone(replica.server());

    let mut config = EarthQubeConfig::fast(SEED + 50);
    config.milan.epochs = 3;
    let uncached = QueryServer::build(&archive, config, ServeConfig::uncached(8)).unwrap();

    let filter = label_query();
    let name = &archive.patches()[0].meta.name;
    let modes = [PrefilterMode::Auto, PrefilterMode::ForceBitmap, PrefilterMode::ForcePostFilter];
    let check = |what: &str| {
        let expected = uncached.search(&filter).unwrap();
        assert_byte_identical(&server.search(&filter).unwrap(), &expected, what);
        assert_byte_identical(&follower.search(&filter).unwrap(), &expected, what);
        for mode in modes {
            let expected = uncached.similar_to_filtered(name, 6, &filter, mode).unwrap();
            assert_eq!(server.similar_to_filtered(name, 6, &filter, mode).unwrap(), expected);
            let got = follower.similar_to_filtered(name, 6, &filter, mode).unwrap();
            assert_eq!(got, expected, "{what}: k-NN under {mode:?}");
            let expected = uncached.similar_within_filtered(name, 30, &filter, mode).unwrap();
            let got = follower.similar_within_filtered(name, 30, &filter, mode).unwrap();
            assert_eq!(got, expected, "{what}: radius under {mode:?}");
        }
        expected.plan.unwrap().matched
    };

    // Fill both of the replica's caches.
    let before = check("before the pull");
    assert!(follower.stats().filter_cache_entries >= 3, "one entry per mode");
    assert!(follower.stats().cache_entries > 0);

    // Writes on the primary, every patch rewritten to match the filter.
    let extra: Vec<Patch> = generate(4, SEED + 51)
        .patches()
        .iter()
        .cloned()
        .map(|mut patch| {
            patch.meta.labels.insert(Label::Pastures);
            patch
        })
        .collect();
    server.ingest(&extra).unwrap();
    uncached.ingest(&extra).unwrap();

    // One pull is one write on the replica: it clears both caches...
    assert!(matches!(replica.sync_once().unwrap(), SyncStatus::Applied(4)));
    let stats = follower.stats();
    assert_eq!(
        (stats.cache_entries, stats.filter_cache_entries, stats.filter_cache_bytes),
        (0, 0, 0)
    );
    // ...so the replica answers over the new catalog, plans included.
    assert_eq!(check("after the pull"), before + extra.len());

    net.shutdown();
}

/// A replica that disconnects (here: its process restarts) resumes from
/// its durable record counts — no re-seed, no re-applied records — while
/// both sides rotate their WAL segments on their own.
#[test]
fn replica_restart_resumes_from_acked_position_without_reseed() {
    let dir_p = ScratchDir::new("resume_p");
    let dir_r = ScratchDir::new("resume_r");
    let archive = generate(10, SEED + 10);
    let extra = generate(8, SEED + 11);
    let (server, net) = primary(&archive, SEED + 10, dir_p.path());
    // Tiny segments force rotations mid-stream on the primary, and on the
    // restarted replica's recovered log too.
    server.set_segment_limit(2048);
    let addr = net.local_addr().to_string();

    let mut client = EqClient::connect(net.local_addr()).unwrap();
    client.ingest(&extra.patches()[..4]).unwrap();

    let first_applied;
    {
        let mut replica = Replica::bootstrap(dir_r.path(), &addr, 7, fast_policy()).unwrap();
        let sync = replica.catch_up().unwrap();
        assert!(sync.caught_up());
        assert_eq!(sync.reseeds, 0, "a fresh bootstrap of an empty dir seeds, not reseeds");
        first_applied = sync.records_applied;
        // Dropping the replica closes its pull connection — the
        // "disconnect" half of the scenario.
    }

    // More acked writes while the replica is away.
    client.ingest(&extra.patches()[4..]).unwrap();
    client.submit_feedback("while you were out", None).unwrap();

    let mut replica = Replica::bootstrap(dir_r.path(), &addr, 7, fast_policy()).unwrap();
    let sync = replica.catch_up().unwrap();
    assert!(sync.caught_up());
    assert_eq!(sync.reseeds, 0, "restart must resume from the durable position, not re-seed");
    assert!(
        sync.records_applied < first_applied + 10,
        "resume must not replay the pre-restart records (applied {} after {first_applied})",
        sync.records_applied
    );
    let follower = replica.server();
    assert_eq!(follower.archive_size(), server.archive_size());
    assert_byte_identical(
        &server.search(&ImageQuery::all()).unwrap(),
        &follower.search(&ImageQuery::all()).unwrap(),
        "post-resume metadata search",
    );
    // The replica holds the primary's lineage and record counts.
    let (ours, theirs) = (follower.repl_state(), server.repl_state());
    assert_eq!(
        (ours.generation, ours.ingested, ours.feedback),
        (theirs.generation, theirs.ingested, theirs.feedback)
    );
    assert_eq!((theirs.ingested, theirs.feedback), (18, 1));

    net.shutdown();
}

/// A hostile frame on one replication connection errors only that
/// connection: concurrent pulls and queries on other connections are
/// unaffected.
#[test]
fn torn_replication_frame_kills_only_that_stream() {
    use std::io::{Read as _, Write as _};

    let dir_p = ScratchDir::new("torn_p");
    let archive = generate(8, SEED + 20);
    let (server, net) = primary(&archive, SEED + 20, dir_p.path());
    let state = server.repl_state();

    let mut healthy = EqClient::connect(net.local_addr()).unwrap();
    let batch = healthy.repl_pull(state.generation, 0, 0, [0, 0], 1 << 20).unwrap();
    assert!(!batch.reseed);

    // A frame with a valid preamble but corrupt checksum: the server must
    // error this connection (error frame and/or close)...
    let mut hostile = std::net::TcpStream::connect(net.local_addr()).unwrap();
    let mut frame = Vec::new();
    frame.extend_from_slice(&agoraeo::proto::REQUEST_MAGIC);
    frame.extend_from_slice(&32u32.to_le_bytes());
    frame.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    frame.extend_from_slice(&[0xAB; 32]);
    hostile.write_all(&frame).unwrap();
    hostile.flush().unwrap();
    let mut sink = Vec::new();
    // ...either way the stream ends rather than hanging.
    hostile.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let _ = hostile.read_to_end(&mut sink);

    // The healthy replication stream and the query path keep working.
    let batch = healthy.repl_pull(state.generation, 0, 0, [0, 0], 1 << 20).unwrap();
    assert!(!batch.reseed);
    healthy.ping().unwrap();
    assert_eq!(
        healthy.search(&ImageQuery::all()).unwrap(),
        server.search(&ImageQuery::all()).unwrap()
    );

    net.shutdown();
}

/// The acceptance scenario: kill the primary, promote the replica, and
/// verify (a) zero acknowledged-write loss, (b) the promoted server takes
/// writes under a fresh generation, (c) the old generation is fenced —
/// its positions answer `reseed`, and the resurrected old primary's
/// unreplicated suffix is discarded when it rejoins as a replica.
#[test]
fn failover_promotes_with_zero_acked_loss_and_fences_the_old_generation() {
    let dir_p = ScratchDir::new("failover_p");
    let dir_r = ScratchDir::new("failover_r");
    let archive = generate(12, SEED + 30);
    let extra = generate(9, SEED + 31);
    let batch_a: Vec<Patch> = extra.patches()[0..3].to_vec();
    let batch_b: Vec<Patch> = extra.patches()[3..6].to_vec();
    let batch_c: Vec<Patch> = extra.patches()[6..9].to_vec();

    let (old_primary, net) = primary(&archive, SEED + 30, dir_p.path());
    let addr = net.local_addr().to_string();
    let old_generation = old_primary.repl_state().generation;

    // Batch A is acknowledged to the client and replicated.
    let mut client = EqClient::connect(net.local_addr()).unwrap();
    client.ingest(&batch_a).unwrap();
    let mut replica = Replica::bootstrap(dir_r.path(), &addr, 3, fast_policy()).unwrap();
    assert!(replica.catch_up().unwrap().caught_up());

    // The primary "dies": its front end goes away mid-flight...
    net.shutdown();
    // ...but the process lingers and even keeps writing — batch B is
    // *never acknowledged to any replicated client* and must die with the
    // old generation.
    old_primary.ingest(&batch_b).unwrap();

    // Promote.  The replica cuts its applied state into a checkpoint under
    // a fresh generation and starts taking writes.
    let promoted = replica.promote().unwrap();
    assert!(promoted.is_primary());
    let new_state = promoted.repl_state();
    assert!(new_state.attached && new_state.primary);
    assert_ne!(new_state.generation, old_generation, "promotion must fence via a new generation");

    // (a) Zero acknowledged-write loss: everything acked before the crash
    // is served by the new primary.
    assert_eq!(promoted.archive_size(), archive.patches().len() + batch_a.len());
    for patch in &batch_a {
        assert!(!promoted.similar_to(&patch.meta.name, 3).unwrap().panel.entries().is_empty());
    }

    // (b) The new primary accepts writes; batch C exists only in the new
    // lineage.
    let new_net = NetServer::bind(Arc::clone(&promoted), "127.0.0.1:0", 2).unwrap();
    let new_addr = new_net.local_addr().to_string();
    let mut new_client = EqClient::connect(new_net.local_addr()).unwrap();
    new_client.ingest(&batch_c).unwrap();

    // (c) Fencing: a follower of the old lineage presenting the old
    // generation is told to reseed, whatever counts it claims.
    let old_state = old_primary.repl_state();
    let verdict = new_client
        .repl_pull(old_state.generation, old_state.ingested, old_state.feedback, [0, 0], 1 << 20)
        .unwrap();
    assert!(verdict.reseed, "an old-generation position must be disowned, not served");

    // The resurrected old primary rejoins as a replica of the new one: its
    // recovered lineage is disowned, it re-seeds, and its unreplicated
    // suffix (batch B) is gone — split-brain cannot merge.
    drop(old_primary);
    let mut rejoined = Replica::bootstrap(dir_p.path(), &new_addr, 4, fast_policy()).unwrap();
    let sync = rejoined.catch_up().unwrap();
    assert!(sync.reseeds >= 1, "the fenced lineage must have been re-seeded: {sync:?}");
    let follower = rejoined.server();
    assert_eq!(follower.archive_size(), promoted.archive_size());
    for patch in &batch_b {
        assert!(
            matches!(
                follower.similar_to(&patch.meta.name, 3),
                Err(EarthQubeError::UnknownImage(_))
            ),
            "unreplicated write {} survived the fence",
            patch.meta.name
        );
        assert!(matches!(
            promoted.similar_to(&patch.meta.name, 3),
            Err(EarthQubeError::UnknownImage(_))
        ));
    }
    for patch in batch_a.iter().chain(&batch_c) {
        assert_byte_identical(
            &promoted.similar_to(&patch.meta.name, 4).unwrap(),
            &follower.similar_to(&patch.meta.name, 4).unwrap(),
            "post-failover replica read",
        );
    }

    new_net.shutdown();
}

/// The cluster client: reads fan out across primary + replicas, writes
/// follow the primary across a failover, and the retry policy rides out
/// the promotion window.
#[test]
fn cluster_client_fans_reads_and_follows_the_primary_across_failover() {
    let dir_p = ScratchDir::new("cluster_p");
    let dir_r1 = ScratchDir::new("cluster_r1");
    let dir_r2 = ScratchDir::new("cluster_r2");
    let archive = generate(10, SEED + 40);
    let extra = generate(9, SEED + 41);
    let batch_a: Vec<Patch> = extra.patches()[..6].to_vec();
    let batch_b: Vec<Patch> = extra.patches()[6..].to_vec();

    let (server, net) = primary(&archive, SEED + 40, dir_p.path());
    let addr = net.local_addr().to_string();
    let mut r1 = Replica::bootstrap(dir_r1.path(), &addr, 1, fast_policy()).unwrap();
    let mut r2 = Replica::bootstrap(dir_r2.path(), &addr, 2, fast_policy()).unwrap();
    let net_r1 = NetServer::bind(Arc::clone(r1.server()), "127.0.0.1:0", 1).unwrap();
    let net_r2 = NetServer::bind(Arc::clone(r2.server()), "127.0.0.1:0", 1).unwrap();

    // Endpoints deliberately listed replicas-first: primary discovery must
    // skip non-primaries, not assume an order.
    let mut cluster = ClusterClient::new(
        [net_r1.local_addr().to_string(), net_r2.local_addr().to_string(), addr.clone()],
        fast_policy(),
    )
    .unwrap();
    assert_eq!(cluster.primary_addr().unwrap(), addr);

    // Writes route to the primary even though reads rotate, and steady
    // replication never re-seeds: both replicas catch up after each wave.
    for wave in batch_a.chunks(3) {
        cluster.ingest(wave).unwrap();
        for replica in [&mut r1, &mut r2] {
            let sync = replica.catch_up().unwrap();
            assert!(sync.caught_up() && sync.reseeds == 0, "steady state re-seeded: {sync:?}");
        }
    }
    assert_eq!(server.archive_size(), archive.patches().len() + batch_a.len());

    // Reads fan out round-robin and every endpoint answers identically.
    let reference = server.search(&ImageQuery::all()).unwrap();
    for _ in 0..6 {
        assert_byte_identical(&reference, &cluster.search(&ImageQuery::all()).unwrap(), "fan-out");
    }
    let name = &archive.patches()[1].meta.name;
    let direct = server.similar_to_filtered(name, 5, &label_query(), PrefilterMode::Auto).unwrap();
    for _ in 0..3 {
        let via =
            cluster.similar_to_filtered(name, 5, &label_query(), PrefilterMode::Auto).unwrap();
        assert_eq!(via.plan, direct.plan);
        assert_byte_identical(&direct.response, &via.response, "filtered fan-out");
    }

    // Failover: the primary dies, r1 is promoted behind its existing
    // front end.
    net.shutdown();
    drop(server);
    let promoted = r1.promote().unwrap();
    assert!(promoted.is_primary());

    // Reads keep flowing (the dead endpoint is cooled down and skipped)...
    for _ in 0..4 {
        assert_byte_identical(&reference, &cluster.search(&ImageQuery::all()).unwrap(), "degraded");
    }
    // ...and the next write re-discovers the promoted primary and lands:
    // `NotPrimary` / connection-refused are retried, and the acknowledged
    // result is durable on the new primary.
    cluster.ingest(&batch_b).unwrap();
    assert_eq!(promoted.archive_size(), archive.patches().len() + batch_a.len() + batch_b.len());
    assert_eq!(cluster.primary_addr().unwrap(), net_r1.local_addr().to_string());

    // Reads served after the failover include the new write once the
    // surviving replica re-points (r2 still follows the dead primary, so
    // it re-bootstraps against the new one — re-seeding is expected).
    // Its front end must go first: the directory lock lives as long as
    // any handle to the old server instance.
    net_r2.shutdown();
    drop(r2);
    let mut r2 =
        Replica::bootstrap(dir_r2.path(), &net_r1.local_addr().to_string(), 2, fast_policy())
            .unwrap();
    assert!(r2.catch_up().unwrap().caught_up());
    assert_eq!(r2.server().archive_size(), promoted.archive_size());

    net_r1.shutdown();
}

/// The bounded retry budget: connecting to a dead endpoint fails with the
/// last transport error instead of hanging, and a zero-jitter policy
/// still sleeps monotonically bounded delays.
#[test]
fn connect_with_retry_exhausts_its_budget_quickly() {
    let policy = RetryPolicy {
        attempts: 3,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(4),
        jitter_seed: 1,
    };
    let started = std::time::Instant::now();
    // Port 9 (discard) on loopback is closed in the test environment.
    let result = EqClient::connect_with_retry("127.0.0.1:9", &policy);
    assert!(matches!(result, Err(EarthQubeError::Net(_))));
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "a refused endpoint must fail fast, took {:?}",
        started.elapsed()
    );
}

/// `SyncStatus` surfaces catch-up state transitions faithfully: a caught
/// up replica reports `CaughtUp` and applies nothing.
#[test]
fn caught_up_replica_pulls_are_empty() {
    let dir_p = ScratchDir::new("idle_p");
    let dir_r = ScratchDir::new("idle_r");
    let archive = generate(8, SEED + 50);
    let (_server, net) = primary(&archive, SEED + 50, dir_p.path());
    let addr = net.local_addr().to_string();

    let mut replica = Replica::bootstrap(dir_r.path(), &addr, 5, fast_policy()).unwrap();
    replica.catch_up().unwrap();
    let before = replica.sync_state();
    assert!(matches!(replica.sync_once().unwrap(), SyncStatus::CaughtUp));
    let after = replica.sync_state();
    assert_eq!(after.records_applied, before.records_applied);
    assert_eq!(after.batches, before.batches + 1);

    net.shutdown();
}

/// The WAL segment files of a persistence directory.
fn segment_files(dir: &Path) -> usize {
    let entries = std::fs::read_dir(dir).unwrap();
    entries.filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".eqw")).count()
}

/// Every answer a replica must give as the primary does: the query panel
/// and a k-NN search from each named image.
fn assert_same_answers(primary: &QueryServer, replica: &QueryServer, names: &[&str], what: &str) {
    let all = ImageQuery::all();
    assert_byte_identical(&primary.search(&all).unwrap(), &replica.search(&all).unwrap(), what);
    for name in names {
        let ours = primary.similar_to(name, 4).unwrap();
        assert_byte_identical(&ours, &replica.similar_to(name, 4).unwrap(), what);
    }
    assert_eq!(primary.list_feedback().unwrap(), replica.list_feedback().unwrap(), "{what}");
}

/// A replica that was down while its primary restarted and checkpointed
/// resumes by its record counts: the primary keeps nothing per replica, so
/// neither its lost memory nor its retired segments can force a re-seed,
/// and only the records past the replica's counts are pulled.
#[test]
fn a_replica_resumes_by_counts_across_a_primary_restart_and_checkpoint() {
    let dir_p = ScratchDir::new("restart_p");
    let dir_r = ScratchDir::new("restart_r");
    let archive = generate(10, SEED + 60);
    let extra = generate(8, SEED + 61);
    let (server, net) = primary(&archive, SEED + 60, dir_p.path());
    server.set_segment_limit(2048);
    server.ingest(&extra.patches()[..3]).unwrap();
    {
        let addr = net.local_addr().to_string();
        let mut replica = Replica::bootstrap(dir_r.path(), &addr, 8, fast_policy()).unwrap();
        assert!(replica.catch_up().unwrap().caught_up());
    }

    // While the replica is down: more writes, then the primary restarts
    // and checkpoints (a graceful stop checkpoints too), retiring every
    // segment those writes were logged in.
    server.ingest(&extra.patches()[3..6]).unwrap();
    server.submit_feedback("across the restart", None).unwrap();
    assert!(segment_files(dir_p.path()) > 1);
    net.shutdown();
    drop(server);
    let server = Arc::new(QueryServer::recover(dir_p.path()).unwrap());
    server.checkpoint(dir_p.path()).unwrap();
    server.ingest(&extra.patches()[6..]).unwrap();
    let net = NetServer::bind(Arc::clone(&server), "127.0.0.1:0", 2).unwrap();

    let addr = net.local_addr().to_string();
    let mut replica = Replica::bootstrap(dir_r.path(), &addr, 8, fast_policy()).unwrap();
    let sync = replica.catch_up().unwrap();
    assert_eq!(sync.reseeds, 0, "the counts survive the primary's restart: {sync:?}");
    assert_eq!(sync.records_applied, 6, "only the records past the counts: {sync:?}");
    assert_eq!((sync.ingested, sync.feedback), (18, 1));
    let names: Vec<&str> = extra.patches().iter().map(|p| p.meta.name.as_str()).collect();
    assert_same_answers(&server, replica.server(), &names, "after the primary's restart");
    assert_eq!(segment_files(dir_p.path()), 1, "the primary kept no segment for the replica");

    net.shutdown();
}

/// A replica checkpoints the lineage it follows like any server: its own
/// log's segments retire, its directory recovers to byte-identical
/// answers, and the recovered replica resumes by its counts.
#[test]
fn a_replica_checkpoints_its_own_lineage_and_recovers_byte_identically() {
    let dir_p = ScratchDir::new("own_ckpt_p");
    let dir_r = ScratchDir::new("own_ckpt_r");
    let archive = generate(10, SEED + 70);
    let extra = generate(8, SEED + 71);
    let (server, net) = primary(&archive, SEED + 70, dir_p.path());
    let addr = net.local_addr().to_string();
    server.ingest(&extra.patches()[..2]).unwrap();

    let mut replica = Replica::bootstrap(dir_r.path(), &addr, 9, fast_policy()).unwrap();
    let follower = Arc::clone(replica.server());
    follower.set_segment_limit(2048);
    for patch in &extra.patches()[2..] {
        server.ingest(std::slice::from_ref(patch)).unwrap();
        replica.catch_up().unwrap();
    }
    server.submit_feedback("checkpoint me", Some("replica")).unwrap();
    replica.catch_up().unwrap();
    let logged = segment_files(dir_r.path());
    assert!(logged > 2, "tiny segments rotate on the replica's own log: {logged}");

    let checkpoint = follower.checkpoint(dir_r.path()).unwrap();
    assert_eq!(checkpoint.kind, CheckpointKind::Incremental);
    assert_eq!(checkpoint.segments_retired as usize, logged, "{checkpoint:?}");
    assert_eq!(segment_files(dir_r.path()), 1);
    assert_eq!(follower.checkpoint_if_dirty().unwrap(), None, "nothing left to fold");

    drop((replica, follower));
    let back = QueryServer::recover(dir_r.path()).unwrap();
    let names: Vec<&str> = extra.patches().iter().map(|p| p.meta.name.as_str()).collect();
    assert_same_answers(&server, &back, &names, "the replica's recovered directory");
    drop(back);

    server.ingest(&generate(1, SEED + 72).patches()[..1]).unwrap();
    let mut replica = Replica::bootstrap(dir_r.path(), &addr, 9, fast_policy()).unwrap();
    let sync = replica.catch_up().unwrap();
    assert_eq!((sync.reseeds, sync.records_applied), (0, 1), "{sync:?}");
    assert_same_answers(&server, replica.server(), &names, "the resumed replica");

    net.shutdown();
}

/// Copies a persistence directory, the directory lock aside.
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        if entry.file_name() != "wal.lock" {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }
}

/// A replica holding more records than its primary (here: the primary
/// came back from a copy of its directory taken before its last writes)
/// is re-seeded, and under the *primary's* generation, over the lineage
/// its own directory held: it then follows the primary by counts, with no
/// further re-seed.
#[test]
fn a_replica_ahead_of_its_primary_reseeds_under_the_primary_s_generation() {
    let dir_p = ScratchDir::new("ahead_p");
    let dir_r = ScratchDir::new("ahead_r");
    let copy = ScratchDir::new("ahead_copy");
    let archive = generate(10, SEED + 80);
    let extra = generate(6, SEED + 81);
    let (server, net) = primary(&archive, SEED + 80, dir_p.path());
    let generation = server.repl_state().generation;
    server.ingest(&extra.patches()[..2]).unwrap();
    net.shutdown();
    drop(server);
    copy_dir(dir_p.path(), copy.path());

    let server = Arc::new(QueryServer::recover(dir_p.path()).unwrap());
    server.ingest(&extra.patches()[2..4]).unwrap();
    let net = NetServer::bind(Arc::clone(&server), "127.0.0.1:0", 2).unwrap();
    let mut replica =
        Replica::bootstrap(dir_r.path(), &net.local_addr().to_string(), 10, fast_policy()).unwrap();
    assert_eq!(replica.catch_up().unwrap().ingested, 14);
    drop(replica);
    net.shutdown();
    drop(server);

    // The primary returns from the copy: same lineage, two records fewer.
    let server = Arc::new(QueryServer::recover(copy.path()).unwrap());
    let net = NetServer::bind(Arc::clone(&server), "127.0.0.1:0", 2).unwrap();
    let addr = net.local_addr().to_string();
    let mut replica = Replica::bootstrap(dir_r.path(), &addr, 10, fast_policy()).unwrap();
    server.ingest(&extra.patches()[4..]).unwrap();
    let sync = replica.catch_up().unwrap();
    assert_eq!(sync.reseeds, 1, "counts above the primary's re-seed: {sync:?}");
    assert_eq!((sync.generation, sync.ingested), (generation, 14), "{sync:?}");
    let names: Vec<&str> = extra.patches().iter().map(|p| p.meta.name.as_str()).collect();
    let kept: Vec<&str> =
        names.iter().copied().filter(|&n| n != names[2] && n != names[3]).collect();
    assert_same_answers(&server, replica.server(), &kept, "after re-seeding");

    server.submit_feedback("and on it goes", None).unwrap();
    assert!(matches!(replica.sync_once().unwrap(), SyncStatus::Applied(1)));
    assert_eq!(replica.sync_state().reseeds, 1, "followed by counts, not re-seeded again");
    net.shutdown();
}

/// A primary that came back from an older copy of its directory keeps its
/// generation, and once written again it can reach the counts of a replica
/// that followed the history the copy lost.  The replica's pull names its
/// last record in each sequence, which the primary no longer holds there,
/// so the replica re-seeds instead of reporting itself caught up with
/// other patches at those dense ids.
#[test]
fn a_replica_reseeds_when_its_primary_s_history_diverged_under_one_generation() {
    let dir_p = ScratchDir::new("diverged_p");
    let dir_r = ScratchDir::new("diverged_r");
    let copy = ScratchDir::new("diverged_copy");
    let archive = generate(10, SEED + 90);
    let extra = generate(6, SEED + 91);
    let (server, net) = primary(&archive, SEED + 90, dir_p.path());
    let generation = server.repl_state().generation;
    server.ingest(&extra.patches()[..2]).unwrap();
    server.submit_feedback("kept", None).unwrap();
    net.shutdown();
    drop(server);
    copy_dir(dir_p.path(), copy.path());

    let server = Arc::new(QueryServer::recover(dir_p.path()).unwrap());
    server.ingest(&extra.patches()[2..4]).unwrap();
    server.submit_feedback("lost", None).unwrap();
    let net = NetServer::bind(Arc::clone(&server), "127.0.0.1:0", 2).unwrap();
    let mut replica =
        Replica::bootstrap(dir_r.path(), &net.local_addr().to_string(), 11, fast_policy()).unwrap();
    assert_eq!(replica.catch_up().unwrap().ingested, 14);
    drop(replica);
    net.shutdown();
    drop(server);

    // The primary returns from the copy and takes other writes up to the
    // replica's counts: same generation, same counts, different records.
    let server = Arc::new(QueryServer::recover(copy.path()).unwrap());
    server.ingest(&extra.patches()[4..]).unwrap();
    server.submit_feedback("written after the restore", Some("other")).unwrap();
    let held = server.repl_state();
    assert_eq!((held.generation, held.ingested, held.feedback), (generation, 14, 2));
    let net = NetServer::bind(Arc::clone(&server), "127.0.0.1:0", 2).unwrap();
    let addr = net.local_addr().to_string();
    let mut replica = Replica::bootstrap(dir_r.path(), &addr, 11, fast_policy()).unwrap();
    let sync = replica.catch_up().unwrap();
    assert_eq!(sync.reseeds, 1, "a diverged history re-seeds: {sync:?}");
    assert_eq!((sync.generation, sync.ingested, sync.feedback), (generation, 14, 2), "{sync:?}");
    let names: Vec<&str> = extra.patches().iter().map(|p| p.meta.name.as_str()).collect();
    let kept: Vec<&str> =
        names.iter().copied().filter(|&n| n != names[2] && n != names[3]).collect();
    assert_same_answers(&server, replica.server(), &kept, "after the diverged history");
    for lost in &names[2..4] {
        assert!(replica.server().similar_to(lost, 4).is_err(), "{lost} is not the primary's");
    }
    net.shutdown();
}

/// Two lineages built alike — the same archive, configuration and model in
/// two directories — start under different generations, so a replica of
/// one is re-seeded by the other, written differently since, rather than
/// resumed on a history that only begins like its own.
#[test]
fn lineages_built_alike_start_under_distinct_generations() {
    let (dir_a, dir_b, dir_r) =
        (ScratchDir::new("alike_a"), ScratchDir::new("alike_b"), ScratchDir::new("alike_r"));
    let archive = generate(10, SEED + 95);
    let extra = generate(2, SEED + 96);
    let (a, net_a) = primary(&archive, SEED + 95, dir_a.path());
    let (b, net_b) = primary(&archive, SEED + 95, dir_b.path());
    assert_ne!(a.repl_state().generation, b.repl_state().generation);
    assert_same_answers(&a, &b, &[], "built alike");
    a.ingest(&extra.patches()[..1]).unwrap();
    b.ingest(&extra.patches()[1..]).unwrap();

    let addr_a = net_a.local_addr().to_string();
    let mut replica = Replica::bootstrap(dir_r.path(), &addr_a, 12, fast_policy()).unwrap();
    assert_eq!(replica.catch_up().unwrap().reseeds, 0);
    drop(replica);
    let addr_b = net_b.local_addr().to_string();
    let mut replica = Replica::bootstrap(dir_r.path(), &addr_b, 12, fast_policy()).unwrap();
    let sync = replica.catch_up().unwrap();
    assert_eq!(sync.reseeds, 1, "another lineage is not resumed: {sync:?}");
    assert_eq!(sync.generation, b.repl_state().generation);
    let names: Vec<&str> = archive.patches().iter().map(|p| p.meta.name.as_str()).collect();
    assert_same_answers(&b, replica.server(), &names, "following the other lineage");
    net_a.shutdown();
    net_b.shutdown();
}
