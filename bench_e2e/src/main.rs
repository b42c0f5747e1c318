//! `e2e` — the repository's end-to-end and per-layer benchmark.
//!
//! One process builds the corpus and a `QueryServer`, serves it through a
//! real `NetServer` on loopback, and drives it with `nproc` = 2 client
//! connections.  Every answer is checked, and every time is scaled by what a
//! fixed piece of work took beside it, because the sandbox changes speed.
//! The last line of standard output is the result (`correct`, `attempted`,
//! `failed`, `metrics`); the line before it is the full record with the
//! settings, the environment and the times as measured.
//! `README.md` beside this file describes the workloads and every metric.
//!
//! ```text
//! e2e --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--smoke] [--verify-repeat]
//! ```

mod layers;
mod load;
mod metrics;
mod trace;
mod workloads;
mod world;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eq_bigearthnet::{ArchiveGenerator, GeneratorConfig, Patch};
use eq_earthqube::net::NetConfig;
use eq_earthqube::{
    EarthQube, EarthQubeConfig, EqClient, ImageQuery, NetServer, QueryServer, ServeConfig,
};
use eq_milan::Milan;

use layers::{Fixtures, ProbeSizes, Rig};
use load::{closed_loop_client, open_loop_writer, Log, SpeedProbe, WriterLog, INGEST_RATE_HZ};
use metrics::{
    json_number, json_string, median_us_between, percentile_unchecked, window_stats, Metrics,
};
use trace::Tracer;
use workloads::{panel_pool, probe_mix, Op, Plan, Workload};
use world::World;

// -- fixed settings: constants, echoed in every record, never flags --------

/// Seed of the corpus, the model and the held-out patches.  The `--seed`
/// flag drives the request stream only.
const ARCHIVE_SEED: u64 = 0xE2E;
/// Client connections: the box has two cores.
const CLIENTS: usize = 2;
/// The measured window, `run_seconds` in `BENCHMARK.json`.  The driver
/// passes it as `--seconds`; a run with another value is not comparable.
const MEASURED_S: u64 = 20;
/// What the speed probe's piece of work takes on the builder's sandbox at
/// its usual speed.  Every bounded time is reported as it would have been
/// had the probe taken exactly this long beside it.
const PROBE_REFERENCE_US: f64 = 460.0;
const MILAN_EPOCHS: usize = 12;
/// Requests checked against the oracle before anything is timed.
const GATE_REQUESTS: usize = 64;
const CHECKPOINT_INTERVAL: Duration = Duration::from_secs(2);
/// Requests of the workload's stream the traced run replays.
const REPLAY_REQUESTS: usize = 2000;
/// Requests of each similarity kind in the traced run's probe mix.
const PROBE_MIX_EACH: usize = 48;

/// The settings that `--smoke` shrinks.
#[derive(Debug, Clone, Copy)]
struct Settings {
    corpus: usize,
    /// Query-panel pool size, and the match counts a pool query may have.
    pool: usize,
    min_matches: usize,
    max_matches: usize,
    /// Patches outside the corpus: uploads, ingests, write-path probe.
    held_out: usize,
    warmup: Duration,
    measured: Duration,
    probes: ProbeSizes,
}

impl Settings {
    fn full(seconds: u64) -> Self {
        Self {
            corpus: 40_000,
            pool: 2048,
            min_matches: 20,
            max_matches: 4_000,
            // Enough for the ingest stream to last the whole load phase.
            held_out: 1024 + INGEST_RATE_HZ as usize * (seconds as usize + 4),
            warmup: Duration::from_secs(3),
            measured: Duration::from_secs(seconds),
            probes: ProbeSizes {
                big_scan_codes: 1_000_000,
                side_corpus: 2_000,
                paced_ingests: 300,
            },
        }
    }

    fn smoke() -> Self {
        Self {
            corpus: 2_000,
            // More queries than the result cache holds entries.
            pool: 512,
            min_matches: 1,
            max_matches: 200,
            held_out: 1024,
            warmup: Duration::from_millis(500),
            measured: Duration::from_secs(2),
            probes: ProbeSizes { big_scan_codes: 50_000, side_corpus: 300, paced_ingests: 100 },
        }
    }
}

/// An end-to-end metric: name, unit, direction, and the share of the
/// parent's median by which it may worsen.  `BENCHMARK.json` holds the same
/// table; a test keeps the two equal.  The four times are at the reference
/// speed; the record carries each as measured too, as `raw_<name>`.
const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("throughput_rps", "1/s", "higher", 0.25),
    ("latency_p50_us", "us", "lower", 0.25),
    ("latency_p90_us", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
];

/// The per-layer metrics of a traced run, in `BENCHMARK.json`'s order.
const PER_LAYER: [(&str, &str); 57] = [
    ("eq_wire.frame_encode_us", "us"),
    ("eq_wire.frame_decode_us", "us"),
    ("eq_proto.encode_request_us", "us"),
    ("eq_proto.decode_request_us", "us"),
    ("eq_proto.encode_response_us", "us"),
    ("eq_proto.decode_response_us", "us"),
    ("eq_proto.response_bytes", "B"),
    ("net.ping_rtt_us", "us"),
    ("net.remote_p50_us", "us"),
    ("net.round_trip_self_us", "us"),
    ("net.bytes_out_per_request", "B"),
    ("net.bytes_in_per_request", "B"),
    ("net.queue_depth_hwm", "count"),
    ("net.rejected_overload", "count"),
    ("net.evicted_slow", "count"),
    ("net.connections_failed", "count"),
    ("serve.execute_p50_us", "us"),
    ("serve.execute_p99_us", "us"),
    ("serve.self_us", "us"),
    ("serve.cache_hit_us", "us"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.cache_entries", "count"),
    ("engine.assemble_us", "us"),
    ("engine.assemble_ns_per_entry", "ns"),
    ("filtered.bitmap_strategy_share", "ratio"),
    ("filtered.candidates_per_match", "ratio"),
    ("eq_docstore.find_indexed_us", "us"),
    ("eq_docstore.find_scan_us", "us"),
    ("eq_docstore.scanned_per_match", "ratio"),
    ("eq_docstore.index_used_share", "ratio"),
    ("eq_docstore.compile_prefilter_us", "us"),
    ("eq_docstore.mask_resolve_us", "us"),
    ("eq_docstore.insert_us", "us"),
    ("eq_hashindex.knn_us", "us"),
    ("eq_hashindex.knn_ns_per_code", "ns"),
    ("eq_hashindex.knn_masked_us", "us"),
    ("eq_hashindex.radius_masked_us", "us"),
    ("eq_hashindex.insert_us", "us"),
    ("eq_hashindex.knn_big_us", "us"),
    ("eq_milan.encode_us", "us"),
    ("eq_milan.train_s", "s"),
    ("persist.ingest_durable_us", "us"),
    ("persist.ingest_volatile_us", "us"),
    ("persist.ingest_ack_p50_us", "us"),
    ("persist.ingest_ack_p90_us", "us"),
    ("persist.ingest_ack_p99_us", "us"),
    ("persist.ingest_ack_max_us", "us"),
    ("persist.ingest_sched_lag_p99_us", "us"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.checkpoint_bytes", "B"),
    ("persist.disk_bytes_per_ingested_byte", "ratio"),
    ("persist.recover_s", "s"),
    ("replicate.bootstrap_s", "s"),
    ("replicate.catchup_ms", "ms"),
    ("eq_bigearthnet.generate_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

// -- arguments ---------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    verify_repeat: bool,
}

const USAGE: &str = "usage: e2e --workload <qbe_cold|qbe_hot|panel|filtered_qbe|ingest_reads> \
                     --seed <u64> [--seconds <1..=60>] [--trace [0|1]] [--smoke] [--verify-repeat]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds) = (None, None, MEASURED_S);
    let (mut trace, mut smoke, mut verify_repeat) = (false, false, false);
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                // Bare `--trace` turns tracing on; the driver passes 0 or 1.
                trace = it.next_if(|v| *v == "0" || *v == "1").is_none_or(|v| v == "1");
            }
            "--smoke" => smoke = true,
            "--verify-repeat" => verify_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        smoke,
        verify_repeat,
    })
}

// -- set-up ------------------------------------------------------------------

/// Where the benchmark may write: under the build directory of the
/// checkout it runs in.
fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("e2e")
}

fn engine_config() -> EarthQubeConfig {
    let mut config = EarthQubeConfig::fast(ARCHIVE_SEED);
    config.milan.epochs = MILAN_EPOCHS;
    config
}

/// The built system and what the oracle needs of it.
struct Built {
    server: Arc<QueryServer>,
    metas: Vec<eq_bigearthnet::PatchMetadata>,
    codes: Vec<eq_hashindex::BinaryCode>,
    model: Milan,
    generate_s: f64,
    /// Training the same model again on its own, when asked for.
    train_s: Option<f64>,
    /// Everything a restart would have to redo: generation, build and,
    /// for a durable server, the first checkpoint.
    total_s: f64,
}

/// Generates the corpus and builds the server over it; with `data_dir`,
/// attaches it there through its first full checkpoint.  `time_training`
/// trains a second model outside the timed set-up, for `eq_milan.train_s`.
fn set_up(corpus: usize, data_dir: Option<&Path>, time_training: bool) -> Result<Built, String> {
    let err = |e: eq_earthqube::EarthQubeError| format!("set-up: {e}");
    let start = Instant::now();
    let archive = eq_bench::archive(corpus, ARCHIVE_SEED);
    let generate_s = start.elapsed().as_secs_f64();
    let engine = EarthQube::build(&archive, engine_config()).map_err(err)?;

    // The oracle's copy of the model and the codes; not part of set-up.
    let pause = Instant::now();
    let cbir = engine.cbir().map_err(err)?;
    let model = cbir.model().clone();
    let codes = archive
        .patches()
        .iter()
        .map(|p| cbir.code_of(&p.meta.name).cloned().ok_or("a corpus patch has no code"))
        .collect::<Result<Vec<_>, _>>()?;
    let metas = archive.metadata();
    let train_s = if time_training {
        let mut twin = Milan::new(engine_config().milan).map_err(|e| format!("model: {e}"))?;
        let start = Instant::now();
        twin.train_on_archive(&archive);
        Some(start.elapsed().as_secs_f64())
    } else {
        None
    };
    let paused = pause.elapsed();

    let server = QueryServer::from_engine(engine, ServeConfig::default()).map_err(err)?;
    if let Some(dir) = data_dir {
        let _ = std::fs::remove_dir_all(dir);
        server.checkpoint(dir).map_err(err)?;
    }
    let total_s = (start.elapsed() - paused).as_secs_f64();
    Ok(Built { server: Arc::new(server), metas, codes, model, generate_s, train_s, total_s })
}

/// Patches that are never part of the corpus.  Their ids continue the
/// corpus's, because a patch's name derives from its id.
fn held_out(corpus: usize, n: usize) -> Vec<Patch> {
    let generator =
        ArchiveGenerator::new(GeneratorConfig::tiny(corpus + n, ARCHIVE_SEED ^ 0x4845_4C44))
            .expect("a valid generator configuration");
    (corpus..corpus + n).map(|id| generator.generate_patch(id as u32)).collect()
}

// -- the environment ---------------------------------------------------------

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("unknown".into(), |out| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// Whether `dir` lives on a tmpfs, by the longest mount point above it.
fn on_tmpfs(dir: &Path) -> bool {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(point).then_some((point.len(), kind == "tmpfs"))
        })
        .max()
        .is_some_and(|(_, tmpfs)| tmpfs)
}

fn environment_json(work_dir: &Path) -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!(
        "{{\"nproc\": {}, \"kernel\": {}, \"rustc\": {}, \"git_commit\": {}, \"data_dir_tmpfs\": {}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_string(kernel.trim()),
        json_string(&command_line("rustc", &["-V"])),
        json_string(&command_line("git", &["rev-parse", "HEAD"])),
        on_tmpfs(work_dir),
    )
}

// -- one run -----------------------------------------------------------------

/// What one run measured and checked.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// The gate passed and no acknowledged write was lost.
    correct: bool,
    /// Sample counts and the like, as JSON fields of the record.
    notes: Vec<(&'static str, String)>,
}

/// Runs `run` beside the load: `readers` closed-loop clients and, with
/// `with_writer`, the open-loop ingest writer, all stamping their samples on
/// the clock that started at `origin`.  The load starts before `run` and is
/// stopped and joined when `run` returns.
fn with_load<R>(
    world: &World,
    plan: &Plan,
    addr: std::net::SocketAddr,
    origin: Instant,
    with_writer: bool,
    readers: usize,
    run: impl FnOnce() -> R,
) -> (R, Log, Option<WriterLog>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let stop = &stop;
        let clients: Vec<_> = (0..readers)
            .map(|c| {
                scope.spawn(move || closed_loop_client(addr, world, plan, c, readers, origin, stop))
            })
            .collect();
        let writer = with_writer.then(|| {
            scope.spawn(move || open_loop_writer(addr, &world.held, INGEST_RATE_HZ, origin, stop))
        });
        let result = run();
        stop.store(true, Ordering::Relaxed);
        let logs =
            clients.into_iter().map(|c| c.join().expect("a client thread panicked")).collect();
        let writer = writer.map(|w| w.join().expect("the writer thread panicked"));
        (result, Log::merge(logs), writer)
    })
}

fn run_once(args: &Args, settings: &Settings) -> Result<Outcome, String> {
    let workload = args.workload;
    let durable = workload == Workload::IngestReads;
    let work_dir = work_dir();
    let data_dir = work_dir.join(format!("data-{}-{}", workload.name(), std::process::id()));
    let mut m = Metrics::default();
    let mut notes: Vec<(&'static str, String)> = Vec::new();
    let mut tracer = Tracer::new();

    // The run's clock.  A timed run has the speed probe beside all of it.
    let origin = Instant::now();
    let since_origin = || origin.elapsed().as_nanos() as u64;
    let probe = (!args.trace).then(|| SpeedProbe::start(origin));

    // One set-up per run: the server under load has a fresh process's heap,
    // and the runs the driver repeats give `setup_s` its median.
    let Built { server, metas, codes, model, generate_s, train_s, total_s } =
        set_up(settings.corpus, durable.then_some(data_dir.as_path()), args.trace)?;
    let set_up_ns = since_origin();
    m.push("raw_setup_s", total_s, "s");
    m.push("eq_bigearthnet.generate_s", generate_s, "s");

    let needs_pool = args.trace || matches!(workload, Workload::Panel | Workload::FilteredQbe);
    let pool = if needs_pool {
        panel_pool(&metas, args.seed, settings.pool, settings.min_matches, settings.max_matches)
    } else {
        Vec::new()
    };
    let world =
        World { metas, codes, model, held: held_out(settings.corpus, settings.held_out), pool };
    let plan = Plan::new(workload, args.seed, settings.corpus, world.held.len(), world.pool.len());
    notes.push(("stream_hash", json_string(&format!("{:016x}", plan.stream_hash(CLIENTS, 1000)))));

    if durable {
        server.start_checkpointer(CHECKPOINT_INTERVAL).map_err(|e| format!("checkpointer: {e}"))?;
    }
    let net = NetServer::bind_with(Arc::clone(&server), "127.0.0.1:0", NetConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = net.local_addr();
    let mut client = EqClient::connect(addr).map_err(|e| format!("connect: {e}"))?;

    // The correctness gate, before anything is timed.
    let gate_ops: Vec<Op> = {
        let mut stream = plan.stream(0, 1);
        (0..GATE_REQUESTS).map(|_| stream.next_op()).collect()
    };
    let mut attempted = 2 * gate_ops.len() as u64;
    let mut failed = 0;
    let mut correct = true;
    if let Err(failure) = world.gate(&server, &mut client, &gate_ops) {
        eprintln!("e2e: gate: {failure}");
        failed += 1;
        correct = false;
    }

    let writer = if args.trace {
        // The traced run: per-layer numbers only, no end-to-end metric.
        m.push("eq_milan.train_s", train_s.unwrap_or(0.0), "s");
        let fixtures = Fixtures::build(
            &mut tracer,
            &world,
            server.serve_config().shards,
            server.config().page_size,
        );
        for (metric, span) in [
            ("eq_docstore.insert_us", "eq_docstore.insert_all"),
            ("eq_hashindex.insert_us", "eq_hashindex.insert_all"),
        ] {
            let total_ns: u64 = tracer.durations_ns(span, 0).iter().sum();
            m.push(metric, total_ns as f64 / 1e3 / settings.corpus as f64, "us");
        }

        let ops: Vec<Op> = {
            let mut stream = plan.stream(0, 1);
            (0..REPLAY_REQUESTS).map(|_| stream.next_op()).collect()
        };
        let rig =
            Rig { world: &world, fixtures: &fixtures, server: &server, net: &net, plan: &plan };
        // Beside the ingest stream, the replay runs with the writer on.
        let (replayed, _, writer) = with_load(&world, &plan, addr, origin, durable, 0, || {
            rig.replay(&mut tracer, &mut client, &ops, false)
        });
        replayed?.workload_metrics(&tracer, &mut m);
        let mix = probe_mix(&plan, PROBE_MIX_EACH);
        rig.replay(&mut tracer, &mut client, &mix, true)?.layer_metrics(
            &tracer,
            settings.corpus,
            &mut m,
        );
        attempted += layers::PASSES * (ops.len() + mix.len()) as u64;
        layers::probes(&mut tracer, &world, addr, &settings.probes, args.seed, &work_dir, &mut m)?;
        writer
    } else {
        let total = settings.warmup + settings.measured;
        let readers = if durable { 1 } else { CLIENTS };
        let start_ns = since_origin() + settings.warmup.as_nanos() as u64;
        let end_ns = start_ns + settings.measured.as_nanos() as u64;
        let ((), log, writer) =
            with_load(&world, &plan, addr, origin, durable, readers, || std::thread::sleep(total));
        attempted += log.attempted;
        failed += log.failed;
        if let Some(failure) = &log.first_failure {
            eprintln!("e2e: first failed request: {failure}");
        }
        let window = window_stats(&log.samples, start_ns, end_ns);
        m.push("raw_throughput_rps", window.throughput_rps, "1/s");
        m.push("raw_latency_p50_us", window.p50_us, "us");
        m.push("raw_latency_p90_us", window.p90_us, "us");
        m.push("latency_p99_us", window.p99_us, "us");
        m.push("latency_max_us", window.max_us, "us");

        // The same times at the reference speed: each as measured, times
        // what the probe should take over what it took in that interval.
        let probe = probe.expect("a timed run has a speed probe").finish();
        let probe_us = |from_ns, to_ns| {
            median_us_between(&probe, from_ns, to_ns).unwrap_or(PROBE_REFERENCE_US)
        };
        let (probe_set_up_us, probe_window_us) =
            (probe_us(0, set_up_ns), probe_us(start_ns, end_ns));
        let at_reference = PROBE_REFERENCE_US / probe_window_us;
        m.push("throughput_rps", window.throughput_rps / at_reference, "1/s");
        m.push("latency_p50_us", window.p50_us * at_reference, "us");
        m.push("latency_p90_us", window.p90_us * at_reference, "us");
        m.push("setup_s", total_s * PROBE_REFERENCE_US / probe_set_up_us, "s");
        m.push("speed_probe_window_us", probe_window_us, "us");
        m.push("speed_probe_set_up_us", probe_set_up_us, "us");
        notes.push(("speed_probe_samples", probe.len().to_string()));
        notes.push(("samples", window.samples.to_string()));
        notes.push(("slice_rps", format!("{:?}", window.slice_rps)));
        notes.push(("p99_has_ten_samples_beyond", window.p99_supported.to_string()));

        if let Some(writer) = &writer {
            let mut acks: Vec<u64> = writer
                .log
                .samples
                .iter()
                .filter(|s| (start_ns..end_ns).contains(&s.end_ns))
                .map(|s| s.latency_ns)
                .collect();
            acks.sort_unstable();
            let mut lags = writer.lag_ns.clone();
            lags.sort_unstable();
            let p =
                |sorted: &[u64], p: f64| percentile_unchecked(sorted, p).unwrap_or(0) as f64 / 1e3;
            m.push("ingest_ack_p50_us", p(&acks, 0.50), "us");
            m.push("ingest_ack_p90_us", p(&acks, 0.90), "us");
            m.push("ingest_ack_p99_us", p(&acks, 0.99), "us");
            m.push("ingest_ack_max_us", p(&acks, 1.0), "us");
            m.push("ingest_sched_lag_p99_us", p(&lags, 0.99), "us");
            m.push("ingest_rate_rps", acks.len() as f64 / settings.measured.as_secs_f64(), "1/s");
            notes.push(("ingest_samples", acks.len().to_string()));
        }
        writer
    };
    let mut acked: Vec<usize> = Vec::new();
    if let Some(writer) = writer {
        attempted += writer.log.attempted;
        failed += writer.log.failed;
        if let Some(failure) = &writer.log.first_failure {
            eprintln!("e2e: first failed ingest: {failure}");
        }
        acked = writer.acked;
    }

    let stats = server.stats();
    m.push("serve.cache_hit_rate_overall", stats.cache_hit_rate(), "ratio");
    let checkpoints = server.checkpointer_stats();
    drop(client);
    let net_stats = net.net_stats();
    m.push("net.queue_depth_hwm", net_stats.queue_depth_high_water as f64, "count");
    m.push("net.rejected_overload", net_stats.rejected_overload as f64, "count");
    m.push("net.evicted_slow", net_stats.evicted_slow as f64, "count");
    m.push("net.connections_failed", net_stats.connections_failed as f64, "count");
    failed += net_stats.rejected_overload + net_stats.evicted_slow + net_stats.connections_failed;
    net.shutdown();

    if durable {
        // Shut down, recover from the directory alone, and look for every
        // patch the server acknowledged.
        m.push("checkpoints_completed", checkpoints.completed as f64, "count");
        m.push("checkpoint_failures", checkpoints.failures as f64, "count");
        drop(server);
        let start = Instant::now();
        let recovered = QueryServer::recover(&data_dir).map_err(|e| format!("recover: {e}"))?;
        m.push("recover_s", start.elapsed().as_secs_f64(), "s");
        let all =
            recovered.search(&ImageQuery::all()).map_err(|e| format!("recovered search: {e}"))?;
        let names: std::collections::HashSet<&str> =
            all.panel.entries().iter().map(|e| e.name.as_str()).collect();
        let lost =
            acked.iter().filter(|&&i| !names.contains(world.held[i].meta.name.as_str())).count();
        notes.push(("acked_ingests", acked.len().to_string()));
        notes.push(("lost_acked_ingests", lost.to_string()));
        attempted += acked.len() as u64;
        failed += lost as u64;
        correct &= lost == 0 && checkpoints.failures == 0;
        drop(recovered);
        let _ = std::fs::remove_dir_all(&data_dir);
    }
    m.push("peak_rss_mb", peak_rss_mb(), "MB");

    if args.trace {
        let path = work_dir.join(format!("{}-{}.trace.jsonl", workload.name(), args.seed));
        tracer.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        notes.push(("trace_file", json_string(&path.display().to_string())));
        notes.push(("spans", tracer.spans().len().to_string()));
    }
    Ok(Outcome { metrics: m, attempted, failed, correct, notes })
}

// -- records -----------------------------------------------------------------

/// The full record: what ran, where, and every number it measured.
fn record_json(args: &Args, settings: &Settings, outcome: &Outcome, work_dir: &Path) -> String {
    let notes: Vec<String> =
        outcome.notes.iter().map(|(k, v)| format!("{}: {v}", json_string(k))).collect();
    let serve = ServeConfig::default();
    let all_metrics =
        outcome.metrics.to_json(&outcome.metrics.names()).expect("names come from the metrics");
    format!(
        "{{\"benchmark\": \"e2e\", \"workload\": {}, \"why\": {}, \"seed\": {}, \"traced\": {}, \
         \"comparable\": {}, \"gated\": {}, \"claim\": null, \
         \"settings\": {{\"corpus\": {}, \"code_bits\": {}, \"milan_epochs\": {MILAN_EPOCHS}, \
         \"index_shards\": {}, \"cache_entries\": {}, \"net_workers\": {}, \"clients\": {CLIENTS}, \
         \"loop\": \"closed\", \"warmup_s\": {}, \"measured_s\": {}, \
         \"probe_reference_us\": {PROBE_REFERENCE_US}, \
         \"pool_queries\": {}, \"ingest_rate_hz\": {INGEST_RATE_HZ}, \"checkpoint_interval_s\": {}}}, \
         \"environment\": {}, \"attempted\": {}, \"failed\": {}, \"failed_share\": {}, {}, \
         \"metrics\": {all_metrics}}}",
        json_string(args.workload.name()),
        json_string(args.workload.why()),
        args.seed,
        args.trace,
        !args.smoke && args.seconds == MEASURED_S,
        Workload::GATED.contains(&args.workload),
        settings.corpus,
        engine_config().milan.code_bits,
        serve.shards,
        serve.cache_capacity,
        NetConfig::default().workers,
        json_number(settings.warmup.as_secs_f64()),
        json_number(settings.measured.as_secs_f64()),
        settings.pool,
        CHECKPOINT_INTERVAL.as_secs(),
        environment_json(work_dir),
        outcome.attempted,
        outcome.failed,
        json_number(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        notes.join(", "),
    )
}

/// Prints the record, then the result line.  The run passes when the gate
/// held, nothing failed and every promised metric was measured.
fn report(args: &Args, settings: &Settings, outcome: &Outcome) -> Result<bool, String> {
    println!("{}", record_json(args, settings, outcome, &work_dir()));
    let names: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|(name, _)| *name).collect()
    } else {
        END_TO_END.iter().map(|(name, ..)| *name).collect()
    };
    let passed = outcome.correct && outcome.failed == 0;
    let line = metrics::result_line(
        passed,
        outcome.attempted,
        outcome.failed,
        &outcome.metrics.to_json(&names)?,
    );
    println!("{line}");
    Ok(passed)
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(better: &str, first: f64, second: f64) -> f64 {
    match better {
        "higher" => (first - second) / first,
        _ => (second - first) / first,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let settings = if args.smoke { Settings::smoke() } else { Settings::full(args.seconds) };
    let run =
        || run_once(&args, &settings).and_then(|o| report(&args, &settings, &o).map(|ok| (ok, o)));
    let outcome = run().and_then(|(ok, first)| {
        if !args.verify_repeat || args.trace {
            return Ok(ok);
        }
        // The same workload again, back to back: every end-to-end metric
        // must repeat within its bound.
        let (ok_again, second) = run()?;
        let mut repeats = true;
        for (name, _, better, bound) in END_TO_END {
            let (a, b) =
                (first.metrics.get(name).unwrap_or(0.0), second.metrics.get(name).unwrap_or(0.0));
            let worse = worsening(better, a, b).max(worsening(better, b, a));
            let within = worse <= bound;
            eprintln!(
                "e2e: verify-repeat {name}: {a} vs {b}, {:.1}% apart, bound {:.0}%{}",
                worse * 100.0,
                bound * 100.0,
                if within { "" } else { " -- EXCEEDED" }
            );
            repeats &= within;
        }
        Ok(ok && ok_again && repeats)
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::json::{parse, Json};

    fn strings(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn arguments_parse_in_the_driver_and_the_manual_form() {
        let driver = parse_args(&strings(&[
            "--workload",
            "panel",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(
            driver,
            Args {
                workload: Workload::Panel,
                seed: 7,
                seconds: 10,
                trace: false,
                smoke: false,
                verify_repeat: false
            }
        );
        let manual =
            parse_args(&strings(&["--trace", "--workload", "qbe_hot", "--smoke", "--seed", "1"]))
                .unwrap();
        assert!(manual.trace && manual.smoke && manual.workload == Workload::QbeHot);
        assert_eq!(manual.seconds, MEASURED_S);
        assert!(
            parse_args(&strings(&["--seed", "1", "--workload", "qbe_hot", "--trace", "1"]))
                .unwrap()
                .trace
        );
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "panel", "--seed", "1", "--seconds", "0"]))
            .is_err());
        assert!(parse_args(&strings(&["--workload", "panel", "--seed", "x"])).is_err());
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening("higher", 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening("lower", 100.0, 115.0) - 0.15).abs() < 1e-12);
        assert!(worsening("lower", 100.0, 90.0) < 0.0);
    }

    /// `BENCHMARK.json` at the repository root is the contract; the tables
    /// in this file must say the same.
    #[test]
    fn benchmark_json_names_the_metrics_and_workloads_this_harness_prints() {
        let contract = parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(
            contract.keys(),
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(contract.get("run_seconds").and_then(Json::as_f64), Some(MEASURED_S as f64));
        let field =
            |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).unwrap().to_string();

        let end_to_end: Vec<(String, String, String, f64)> = contract
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .iter()
            .map(|e| {
                assert_eq!(e.keys(), ["name", "unit", "better", "bound"]);
                let bound = e.get("bound").and_then(Json::as_f64).unwrap();
                (field(e, "name"), field(e, "unit"), field(e, "better"), bound)
            })
            .collect();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u, b, bound)| (n.to_string(), u.to_string(), b.to_string(), *bound))
            .collect();
        assert_eq!(end_to_end, ours);

        let per_layer: Vec<(String, String)> = contract
            .get("per_layer")
            .unwrap()
            .as_arr()
            .iter()
            .map(|e| {
                assert_eq!(e.keys(), ["name", "unit", "better"]);
                (field(e, "name"), field(e, "unit"))
            })
            .collect();
        let ours: Vec<_> = PER_LAYER.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(per_layer, ours);

        let workloads: Vec<(String, String)> = contract
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<_> =
            Workload::GATED.iter().map(|w| (w.name().to_string(), w.why().to_string())).collect();
        assert_eq!(workloads, ours);
        assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
    }

    /// A separate workspace root does not inherit the repository's release
    /// profile; the copy in this package's manifest must not drift from it.
    #[test]
    fn release_profile_equals_the_repositorys() {
        fn release_profile(manifest: &str) -> Vec<&str> {
            manifest
                .lines()
                .skip_while(|line| line.trim() != "[profile.release]")
                .skip(1)
                .take_while(|line| !line.starts_with('['))
                .map(str::trim)
                .filter(|line| !line.is_empty() && !line.starts_with('#'))
                .collect()
        }
        let ours = release_profile(include_str!("../Cargo.toml"));
        assert!(!ours.is_empty());
        assert_eq!(ours, release_profile(include_str!("../../Cargo.toml")));
    }

    /// A smoke run end to end: the record and the result line parse back and
    /// carry every metric `BENCHMARK.json` names.
    #[test]
    fn smoke_records_parse_back_with_every_promised_metric() {
        // Smaller still than `--smoke`: the tests run unoptimised.
        let settings = Settings {
            corpus: 600,
            pool: 96,
            max_matches: 60,
            measured: Duration::from_secs(1),
            ..Settings::smoke()
        };
        for (trace, promised) in [
            (false, END_TO_END.iter().map(|(n, ..)| *n).collect::<Vec<_>>()),
            (true, PER_LAYER.iter().map(|(n, _)| *n).collect::<Vec<_>>()),
        ] {
            let args = Args {
                workload: Workload::FilteredQbe,
                seed: 3,
                seconds: 1,
                trace,
                smoke: true,
                verify_repeat: false,
            };
            let outcome = run_once(&args, &settings).unwrap();
            assert!(outcome.correct && outcome.failed == 0 && outcome.attempted > 0);
            if !trace {
                // A slow machine (a long probe) makes the scaled times
                // shorter than measured and the scaled throughput higher.
                let get = |name: &str| outcome.metrics.get(name).unwrap();
                let window = PROBE_REFERENCE_US / get("speed_probe_window_us");
                let set_up = PROBE_REFERENCE_US / get("speed_probe_set_up_us");
                for (scaled, expected) in [
                    (get("latency_p50_us"), get("raw_latency_p50_us") * window),
                    (get("latency_p90_us"), get("raw_latency_p90_us") * window),
                    (get("throughput_rps"), get("raw_throughput_rps") / window),
                    (get("setup_s"), get("raw_setup_s") * set_up),
                ] {
                    assert!(scaled > 0.0 && (scaled / expected - 1.0).abs() < 1e-12);
                }
            }
            let result = parse(&metrics::result_line(
                true,
                outcome.attempted,
                outcome.failed,
                &outcome.metrics.to_json(&promised).unwrap(),
            ))
            .unwrap();
            assert_eq!(result.get("metrics").unwrap().keys(), promised);
            let unit_of = |name: &str| {
                let metric = result.get("metrics").unwrap().get(name).unwrap();
                metric.get("unit").and_then(Json::as_str).unwrap().to_string()
            };
            for (name, unit, ..) in END_TO_END.iter().filter(|_| !trace) {
                assert_eq!(unit_of(name), *unit, "{name}");
            }
            for (name, unit) in PER_LAYER.iter().filter(|_| trace) {
                assert_eq!(unit_of(name), *unit, "{name}");
            }
            let record = parse(&record_json(&args, &settings, &outcome, &work_dir())).unwrap();
            assert_eq!(record.get("comparable"), Some(&Json::Bool(false)));
            assert_eq!(record.get("claim"), Some(&Json::Null));
            for key in ["settings", "environment", "failed_share", "stream_hash", "metrics"] {
                assert!(record.get(key).is_some(), "the record lacks {key}");
            }
            for key in ["nproc", "kernel", "rustc", "git_commit", "data_dir_tmpfs"] {
                assert!(record.get("environment").unwrap().get(key).is_some(), "no {key}");
            }
        }
    }
}
