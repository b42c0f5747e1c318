//! Experiment E8 — concurrent query serving: throughput of a mixed query
//! workload executed by the `QueryServer` at 1/2/4/8 worker threads,
//! against the sequential `EarthQube` engine as the baseline (the same query
//! core with no lock and no cache), plus the effect of the
//! LRU result cache on a repeating workload.
//!
//! The shape to look for (on a multi-core machine): the per-batch time of
//! `server_workers/N` drops roughly linearly with N until the core count is
//! reached, i.e. >1.5× throughput at 4 workers over `sequential_engine`.
//! On a single-core host the worker counts collapse onto the sequential
//! baseline (there is no parallel hardware to exploit) — the run prints the
//! measured speedup so the result is explicit either way.  `server_cached`
//! shows the cache short-circuiting a repeating workload entirely.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eq_bench::archive;
use eq_bigearthnet::{Country, Label};
use eq_earthqube::net::{payload_to_response, query_to_spec, spec_to_query};
use eq_earthqube::{
    EarthQube, EarthQubeConfig, ImageQuery, LabelFilter, LabelOperator, QueryServer, RequestBody,
    ResponseBody, SearchResponse, ServeConfig,
};
use eq_geo::GeoShape;
use std::hint::black_box;
use std::time::Instant;

const N: usize = 1_000;
const BATCH: usize = 64;
const K: u64 = 20;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A mixed workload: CBIR queries over a rotating set of archive images,
/// interleaved with label and spatial metadata searches.  Every request is
/// distinct, so the uncached benchmarks measure real query execution.
fn workload(archive: &eq_bigearthnet::Archive) -> Vec<RequestBody> {
    let mut requests = Vec::with_capacity(BATCH);
    for i in 0..BATCH {
        requests.push(match i % 4 {
            0 | 1 => RequestBody::SimilarTo {
                name: archive.patches()[(i * 13) % archive.len()].meta.name.clone(),
                k: K,
            },
            2 => RequestBody::Search(query_to_spec(&ImageQuery::all().with_labels(
                LabelFilter::new(LabelOperator::Some, vec![Label::ALL[(i * 7) % Label::ALL.len()]]),
            ))),
            _ => RequestBody::Search(query_to_spec(&ImageQuery::all().with_shape(GeoShape::Rect(
                Country::ALL[(i / 4) % Country::ALL.len()].bounding_box(),
            )))),
        });
    }
    requests
}

/// One workload request run on the sequential engine.
fn on_engine(engine: &EarthQube, request: &RequestBody) -> SearchResponse {
    match request {
        RequestBody::Search(spec) => engine.search(&spec_to_query(spec)),
        RequestBody::SimilarTo { name, k } => engine.similar_to(name, *k as usize),
        RequestBody::SearchByNewExample { patch, k } => {
            engine.search_by_new_example(patch, *k as usize)
        }
        other => panic!("not in the workload: {other:?}"),
    }
    .unwrap()
}

fn bench_concurrent_serving(c: &mut Criterion) {
    let archive = archive(N, 88);
    let mut config = EarthQubeConfig::fast(88);
    config.milan.epochs = 12;
    let engine = EarthQube::build(&archive, config.clone()).expect("back-end builds");
    // Two servers over the identical engine build: one uncached (raw
    // throughput), one with the default cache (repeating workloads).
    let uncached =
        QueryServer::build(&archive, config.clone(), ServeConfig::uncached(8)).expect("server");
    let cached = QueryServer::build(&archive, config, ServeConfig::default()).expect("server");
    let requests = workload(&archive);

    // Sanity: the concurrent server agrees with the sequential engine.
    for request in &requests {
        let ResponseBody::Search(answer) = uncached.call(request) else { panic!("{request:?}") };
        assert_eq!(payload_to_response(answer), on_engine(&engine, request));
    }

    let mut group = c.benchmark_group("e8_concurrent_serving");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(2000));
    group.warm_up_time(std::time::Duration::from_millis(400));

    group.bench_function("sequential_engine", |b| {
        b.iter(|| {
            for request in &requests {
                black_box(on_engine(&engine, request));
            }
        })
    });
    for workers in WORKER_COUNTS {
        group.bench_with_input(BenchmarkId::new("server_workers", workers), &workers, |b, &w| {
            b.iter(|| black_box(uncached.run_workload(&requests, w)))
        });
    }
    group.bench_function("server_cached_repeat", |b| {
        // Warm the cache once; the repeating workload is then served from it.
        let _ = cached.run_workload(&requests, 4);
        b.iter(|| black_box(cached.run_workload(&requests, 4)))
    });
    group.finish();

    // Explicit speedup summary (criterion's per-bench times measure the
    // same thing, but the ratio is the experiment's headline number).
    let time = |f: &mut dyn FnMut()| {
        f(); // warm
        let start = Instant::now();
        for _ in 0..3 {
            f();
        }
        start.elapsed().as_secs_f64() / 3.0
    };
    let base = time(&mut || {
        for request in &requests {
            black_box(uncached.call(request));
        }
    });
    println!(
        "[E8] archive of {N} images, batch of {BATCH} mixed queries, \
         {} cores available",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    println!("[E8] sequential baseline: {:.1} ms/batch", base * 1e3);
    for workers in WORKER_COUNTS {
        let t = time(&mut || {
            black_box(uncached.run_workload(&requests, workers));
        });
        println!(
            "[E8] {workers} worker(s): {:.1} ms/batch — {:.2}x throughput vs sequential",
            t * 1e3,
            base / t
        );
    }
    let stats = uncached.stats();
    println!(
        "[E8] server stats: {} queries served, shard occupancy {:?}",
        stats.queries_served, stats.shard_occupancy
    );
}

criterion_group!(benches, bench_concurrent_serving);
criterion_main!(benches);
