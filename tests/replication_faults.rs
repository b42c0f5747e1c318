//! Replication & failover faults: replicas must serve byte-identical
//! reads while rejecting writes, resume from their durable (acked)
//! position across restarts, survive hostile replication frames on
//! neighbouring connections, and — the acceptance scenario — promote with
//! zero acknowledged-write loss while the fenced old generation's
//! unreplicated suffix can never re-enter the new lineage.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use agoraeo::bigearthnet::{Archive, ArchiveGenerator, GeneratorConfig, Label, Patch};
use agoraeo::earthqube::net::{response_to_payload, EqClient, NetServer};
use agoraeo::earthqube::replicate::SyncStatus;
use agoraeo::earthqube::{
    ClusterClient, EarthQubeConfig, EarthQubeError, ImageQuery, LabelFilter, LabelOperator,
    PrefilterMode, QueryServer, Replica, RetryPolicy, SearchResponse, ServeConfig,
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
    assert!(matches!(follower.checkpoint(dir_r.path()), Err(EarthQubeError::NotPrimary(_))));
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
/// answer after `apply_replicated` has appended images that match them.
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

    // One pull is one `apply_replicated`: it clears both caches...
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
/// its durable position — no re-seed, no re-applied records, and the
/// mirrored WAL still tracks the primary through segment rotations.
#[test]
fn replica_restart_resumes_from_acked_position_without_reseed() {
    let dir_p = ScratchDir::new("resume_p");
    let dir_r = ScratchDir::new("resume_r");
    let archive = generate(10, SEED + 10);
    let extra = generate(8, SEED + 11);
    let (server, net) = primary(&archive, SEED + 10, dir_p.path());
    // Tiny segments force rotations mid-stream, so resume must also cope
    // with a position in a later segment.
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
    // The mirrored WAL sits at the same (generation, segment, offset).
    assert_eq!(follower.repl_state().segment, server.repl_state().segment);
    assert_eq!(follower.repl_state().offset, server.repl_state().offset);
    assert!(server.repl_state().segment > server.repl_state().first_segment.saturating_sub(1));

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
    let batch =
        healthy.repl_pull(1, state.generation, state.segment, state.offset, 1 << 20).unwrap();
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
    let batch =
        healthy.repl_pull(1, state.generation, state.segment, state.offset, 1 << 20).unwrap();
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
    // generation is told to reseed, whatever position it claims.
    let old_state = old_primary.repl_state();
    let verdict = new_client
        .repl_pull(99, old_state.generation, old_state.segment, old_state.offset, 1 << 20)
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
