//! Cross-crate tests of the concurrent serving layer: the `QueryServer`
//! must be a drop-in, thread-safe replacement for the sequential
//! `EarthQube` engine — byte-identical results, live ingest isolated from
//! queries, and a result cache that never serves stale data.

use agoraeo::bigearthnet::{Archive, ArchiveGenerator, GeneratorConfig};
use agoraeo::bigearthnet::{Country, Label};
use agoraeo::earthqube::net::{payload_to_response, query_to_spec, spec_to_query};
use agoraeo::earthqube::{
    EarthQube, EarthQubeConfig, ImageQuery, LabelFilter, LabelOperator, QueryServer, RequestBody,
    ResponseBody, SearchResponse, ServeConfig,
};
use agoraeo::geo::GeoShape;

const SEED: u64 = 4242;

fn generate(n: usize, seed: u64) -> Archive {
    ArchiveGenerator::new(GeneratorConfig::tiny(n, seed)).unwrap().generate()
}

fn engine_config(seed: u64) -> EarthQubeConfig {
    let mut config = EarthQubeConfig::fast(seed);
    config.milan.epochs = 5;
    config
}

/// A mixed workload over the archive: CBIR + label + spatial queries.
fn workload(archive: &Archive) -> Vec<RequestBody> {
    let mut requests = Vec::new();
    for (i, patch) in archive.patches().iter().enumerate().take(24) {
        requests.push(match i % 3 {
            0 => RequestBody::SimilarTo { name: patch.meta.name.clone(), k: 8 },
            1 => RequestBody::Search(query_to_spec(&ImageQuery::all().with_labels(
                LabelFilter::new(LabelOperator::Some, vec![Label::ALL[(i * 5) % Label::ALL.len()]]),
            ))),
            _ => {
                RequestBody::Search(query_to_spec(&ImageQuery::all().with_shape(GeoShape::Rect(
                    Country::ALL[i % Country::ALL.len()].bounding_box(),
                ))))
            }
        });
    }
    requests
}

/// A search request's answer, which must be one.
fn search(response: ResponseBody) -> SearchResponse {
    match response {
        ResponseBody::Search(payload) => payload_to_response(payload),
        other => panic!("not a search answer: {other:?}"),
    }
}

/// The concurrent server returns byte-identical `ResultPanel`s (and
/// statistics, and plans) to the sequential engine for a fixed seed,
/// regardless of the worker count.
#[test]
fn concurrent_results_are_identical_to_the_sequential_engine() {
    let archive = generate(80, SEED);
    let engine = EarthQube::build(&archive, engine_config(SEED)).unwrap();
    let server = QueryServer::build(&archive, engine_config(SEED), ServeConfig::default()).unwrap();
    let requests = workload(&archive);

    let sequential: Vec<_> = requests
        .iter()
        .map(|request| match request {
            RequestBody::Search(spec) => engine.search(&spec_to_query(spec)).unwrap(),
            RequestBody::SimilarTo { name, k } => engine.similar_to(name, *k as usize).unwrap(),
            RequestBody::SearchByNewExample { patch, k } => {
                engine.search_by_new_example(patch, *k as usize).unwrap()
            }
            other => panic!("not in the workload: {other:?}"),
        })
        .collect();

    for workers in [1, 4, 8] {
        let concurrent = server.run_workload(&requests, workers);
        assert_eq!(concurrent.len(), sequential.len());
        for (got, want) in concurrent.into_iter().zip(&sequential) {
            let got = search(got);
            assert_eq!(got.panel, want.panel, "panels must be byte-identical at {workers} workers");
            assert_eq!(got.statistics, want.statistics);
            assert_eq!(got.plan, want.plan);
        }
    }
}

/// Mixed query + ingest traffic: worker threads hammer the read path while
/// another thread appends patches through the write path.  Nothing panics,
/// every response is internally consistent, and afterwards the server's
/// answers are identical to a second server that applied the same ingests
/// sequentially.
#[test]
fn mixed_query_and_ingest_traffic_matches_sequential_execution() {
    let initial = generate(60, SEED + 1);
    let extra = generate(20, 999_999); // distinct seed → distinct patch names
    let server =
        QueryServer::build(&initial, engine_config(SEED + 1), ServeConfig::default()).unwrap();
    let requests = workload(&initial);

    std::thread::scope(|scope| {
        // Write path: ingest the extra patches a few at a time.
        let ingester = {
            let server = &server;
            let extra = &extra;
            scope.spawn(move || {
                for chunk in extra.patches().chunks(5) {
                    server.ingest(chunk).unwrap();
                }
            })
        };
        // Read path: four workers run the workload concurrently with ingest.
        for _ in 0..4 {
            let server = &server;
            let requests = &requests;
            scope.spawn(move || {
                for request in requests {
                    let response = search(server.call(request));
                    // Internal consistency even while ingest is running:
                    // distances sorted ascending, no duplicate names.
                    let page = response.panel.page(0);
                    let mut prev = 0u32;
                    for entry in &page.entries {
                        if let Some(d) = entry.distance {
                            assert!(d >= prev, "distances must be sorted");
                            prev = d;
                        }
                    }
                    let mut names: Vec<&String> = page.entries.iter().map(|e| &e.name).collect();
                    names.sort();
                    names.dedup();
                    assert_eq!(names.len(), page.entries.len(), "no duplicate results");
                }
            });
        }
        ingester.join().unwrap();
    });

    assert_eq!(server.archive_size(), 80);
    assert_eq!(server.stats().ingested_images, 20);

    // Reference: the same initial engine state with the same ingests applied
    // sequentially (the model build is deterministic for a fixed seed).
    let reference =
        QueryServer::build(&initial, engine_config(SEED + 1), ServeConfig::default()).unwrap();
    reference.ingest(extra.patches()).unwrap();

    let mut post_requests = workload(&initial);
    // Also query the live-ingested images.
    for patch in extra.patches().iter().take(6) {
        post_requests.push(RequestBody::SimilarTo { name: patch.meta.name.clone(), k: 6 });
    }
    let got = server.run_workload(&post_requests, 4);
    let want = reference.run_workload(&post_requests, 1);
    for (g, w) in got.into_iter().zip(want) {
        assert_eq!(search(g), search(w), "concurrent ingest must converge to sequential state");
    }
}

/// Regression: a cached result must not survive an ingest that changes it.
#[test]
fn cache_is_invalidated_on_ingest() {
    let initial = generate(30, SEED + 2);
    let extra = generate(4, 888_888);
    let server =
        QueryServer::build(&initial, engine_config(SEED + 2), ServeConfig::default()).unwrap();

    // Prime the cache.
    let everything = ImageQuery::all();
    assert_eq!(server.search(&everything).unwrap().total(), 30);
    assert_eq!(server.search(&everything).unwrap().total(), 30);
    let stats = server.stats();
    assert_eq!(stats.cache_hits, 1, "second identical query must be a cache hit");
    assert!(stats.cache_entries > 0);

    server.ingest(extra.patches()).unwrap();

    // The post-ingest answer reflects the appended images — a stale cached
    // panel of 30 entries would fail this.
    assert_eq!(server.search(&everything).unwrap().total(), 34);
    // And the new images are immediately retrievable by similarity.
    let response = server.similar_to(&extra.patches()[0].meta.name, 5).unwrap();
    assert!(response.total() > 0);
}

/// The serving counters add up across a workload.
#[test]
fn server_stats_track_the_workload() {
    let archive = generate(25, SEED + 3);
    let server =
        QueryServer::build(&archive, engine_config(SEED + 3), ServeConfig::default()).unwrap();
    let requests = workload(&archive);
    // Two full passes: the first fills the cache, the second repeats every
    // query and must be answered from it entirely.
    for _ in 0..2 {
        let results = server.run_workload(&requests, 4);
        assert!(results.iter().all(|r| matches!(r, ResponseBody::Search(_))));
    }

    let stats = server.stats();
    assert_eq!(stats.queries_served, 2 * requests.len() as u64);
    assert!(stats.cache_hits >= requests.len() as u64, "stats: {stats:?}");
    assert!(stats.cache_hit_rate() > 0.0);
    assert_eq!(stats.archive_size, 25);
    assert_eq!(stats.shard_occupancy.len(), 1, "one arena indexes the archive");
    assert_eq!(stats.shard_occupancy.iter().sum::<usize>(), 25);
}
