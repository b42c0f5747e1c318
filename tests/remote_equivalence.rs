//! Remote equivalence: the same ingest + query workload driven (a)
//! directly on a `QueryServer` and (b) through `EqClient` over loopback
//! must produce identical results — equal response values, **byte-equal**
//! protocol encodings, identical result ids/scores, and identical stats
//! deltas.  Two servers are built from the same seed (every build step is
//! deterministic), one per path, so even the serving counters must agree.

use std::sync::Arc;

use agoraeo::bigearthnet::{Archive, ArchiveGenerator, GeneratorConfig, Label};
use agoraeo::earthqube::net::{query_to_spec, response_to_payload, EqClient, NetConfig, NetServer};
use agoraeo::earthqube::{
    EarthQubeConfig, ImageQuery, LabelFilter, LabelOperator, PrefilterMode, QueryServer,
    RequestBody, ResponseBody, SearchResponse, ServeConfig,
};
use agoraeo::geo::GeoShape;

fn build_server(archive: &Archive, seed: u64) -> QueryServer {
    let mut config = EarthQubeConfig::fast(seed);
    config.milan.epochs = 3; // train for real: the workload exercises CBIR
    QueryServer::build(archive, config, ServeConfig::default()).unwrap()
}

/// The shared workload: metadata searches (filtered and unfiltered),
/// CBIR neighbour queries, query-by-new-example, and one failing request.
fn workload(archive: &Archive) -> Vec<RequestBody> {
    let mut requests = vec![
        RequestBody::Search(query_to_spec(&ImageQuery::all())),
        RequestBody::Search(query_to_spec(&ImageQuery::all().with_labels(LabelFilter::new(
            LabelOperator::Some,
            vec![Label::MixedForest, Label::SeaAndOcean],
        )))),
        RequestBody::Search(query_to_spec(
            &ImageQuery::all()
                .with_shape(GeoShape::Rect(agoraeo::bigearthnet::Country::Portugal.bounding_box())),
        )),
    ];
    for patch in archive.patches().iter().take(6) {
        requests.push(RequestBody::SimilarTo { name: patch.meta.name.clone(), k: 7 });
    }
    let external = ArchiveGenerator::new(GeneratorConfig::tiny(1, 4242)).unwrap().generate_patch(0);
    requests.push(RequestBody::SearchByNewExample { patch: Box::new(external), k: 5 });
    requests.push(RequestBody::SimilarTo { name: "ghost".into(), k: 3 });
    requests
}

fn assert_byte_identical(local: &SearchResponse, remote: &SearchResponse, what: &str) {
    assert_eq!(remote, local, "{what}: remote response differs from in-process");
    // Equality of the Rust values could in principle hide encoding
    // differences; pin the protocol bytes too.
    let mut local_bytes = agoraeo::wire::Writer::new();
    response_to_payload(local).encode(&mut local_bytes);
    let mut remote_bytes = agoraeo::wire::Writer::new();
    response_to_payload(remote).encode(&mut remote_bytes);
    assert_eq!(
        local_bytes.as_bytes(),
        remote_bytes.as_bytes(),
        "{what}: remote response encodes to different bytes"
    );
}

/// [`assert_byte_identical`] for a whole response body, typed errors
/// included.
fn assert_same_body(local: &ResponseBody, remote: &ResponseBody, what: &str) {
    assert_eq!(remote, local, "{what}: remote response differs from in-process");
    let bytes =
        |body: &ResponseBody| agoraeo::proto::Response { id: 0, body: body.clone() }.encode();
    assert_eq!(bytes(local), bytes(remote), "{what}: remote response encodes to different bytes");
}

#[test]
fn remote_workload_is_byte_identical_to_in_process() {
    let archive = ArchiveGenerator::new(GeneratorConfig::tiny(40, 501)).unwrap().generate();
    let extra = ArchiveGenerator::new(GeneratorConfig::tiny(4, 777)).unwrap().generate();
    let requests = workload(&archive);

    // Path (a): in-process, including a live ingest mid-workload.
    let local = build_server(&archive, 501);
    let local_before = local.stats();
    let local_ingest = local.ingest(extra.patches()).unwrap();
    let local_results: Vec<_> = requests.iter().map(|r| local.call(r)).collect();
    let local_after = local.stats();

    // Path (b): the identical server driven through the wire.
    let remote = Arc::new(build_server(&archive, 501));
    let net = NetServer::bind(Arc::clone(&remote), "127.0.0.1:0", 2).unwrap();
    let mut client = EqClient::connect(net.local_addr()).unwrap();
    let remote_before = client.stats().unwrap();
    let remote_ingest = client.ingest(extra.patches()).unwrap();
    let remote_results = client.run_batch(&requests).unwrap();
    let remote_after = client.stats().unwrap();

    // Ingest reports agree.
    assert_eq!(remote_ingest, local_ingest);

    // Every workload slot agrees: same result ids (names), same scores
    // (hamming distances), same statistics, byte-identical encodings;
    // failing requests reconstruct the same error.
    assert_eq!(remote_results.len(), local_results.len());
    for (i, (remote_result, local_result)) in remote_results.iter().zip(&local_results).enumerate()
    {
        assert_same_body(local_result, remote_result, &format!("slot {i}"));
    }

    // Stats deltas agree: the wire adds no phantom queries and loses none.
    assert_eq!(remote_before, local_before, "pre-workload stats differ");
    assert_eq!(
        remote_after.queries_served - remote_before.queries_served,
        local_after.queries_served - local_before.queries_served
    );
    assert_eq!(
        remote_after.cache_misses - remote_before.cache_misses,
        local_after.cache_misses - local_before.cache_misses
    );
    assert_eq!(remote_after.ingested_images, local_after.ingested_images);
    assert_eq!(remote_after.archive_size, local_after.archive_size);

    // And the full post-workload snapshots, transported over the wire,
    // agree with the in-process view of the remote server itself.
    assert_eq!(remote_after, remote.stats());

    // One round trip per request (`EqClient::call`) answers the same.
    for (i, (request, local)) in requests.iter().zip(&local_results).enumerate() {
        assert_eq!(&client.call(request).unwrap(), local, "slot {i}: one-shot differs");
    }

    net.shutdown();
}

/// Filtered similarity search crosses the wire unchanged: the response is
/// byte-identical to the in-process call and the execution plan —
/// strategy, candidate count, residual flag, matching population — is
/// reported identically for every prefilter mode, for both the top-k and
/// the radius variant.
#[test]
fn filtered_search_is_byte_identical_over_the_wire() {
    let archive = ArchiveGenerator::new(GeneratorConfig::tiny(30, 503)).unwrap().generate();
    let server = Arc::new(build_server(&archive, 503));
    let net = NetServer::bind(Arc::clone(&server), "127.0.0.1:0", 2).unwrap();
    let mut client = EqClient::connect(net.local_addr()).unwrap();

    let query = ImageQuery::all().with_labels(LabelFilter::new(
        LabelOperator::Some,
        vec![Label::MixedForest, Label::SeaAndOcean, Label::Pastures],
    ));
    let name = &archive.patches()[2].meta.name;
    for mode in [PrefilterMode::Auto, PrefilterMode::ForceBitmap, PrefilterMode::ForcePostFilter] {
        let local = server.similar_to_filtered(name, 8, &query, mode).unwrap();
        let remote = client.similar_to_filtered(name, 8, &query, mode).unwrap();
        assert_eq!(remote.plan, local.plan, "top-k plan differs under {mode:?}");
        assert_byte_identical(
            &local.response,
            &remote.response,
            &format!("similar_to_filtered under {mode:?}"),
        );

        let local = server.similar_within_filtered(name, 24, &query, mode).unwrap();
        let remote = client.similar_within_filtered(name, 24, &query, mode).unwrap();
        assert_eq!(remote.plan, local.plan, "radius plan differs under {mode:?}");
        assert_byte_identical(
            &local.response,
            &remote.response,
            &format!("similar_within_filtered under {mode:?}"),
        );
    }

    // Failing filtered requests reconstruct the same typed error too.
    let local = server.similar_to_filtered("ghost", 3, &query, PrefilterMode::Auto);
    let remote = client.similar_to_filtered("ghost", 3, &query, PrefilterMode::Auto);
    assert_eq!(remote.unwrap_err(), local.unwrap_err());

    net.shutdown();
}

/// Re-running a (sub)workload through the cache must be equivalent over
/// the wire too: the second pass is served from the result cache, and the
/// responses are still byte-identical to in-process ones.
#[test]
fn cached_responses_cross_the_wire_unchanged() {
    let archive = ArchiveGenerator::new(GeneratorConfig::tiny(18, 502)).unwrap().generate();
    let server = Arc::new(build_server(&archive, 502));
    let net = NetServer::bind(Arc::clone(&server), "127.0.0.1:0", 2).unwrap();
    let mut client = EqClient::connect(net.local_addr()).unwrap();

    let name = &archive.patches()[0].meta.name;
    let first = client.similar_to(name, 5).unwrap();
    let second = client.similar_to(name, 5).unwrap();
    assert_eq!(first, second);
    let stats = client.stats().unwrap();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    assert_byte_identical(&server.similar_to(name, 5).unwrap(), &second, "cached similar_to");
    net.shutdown();
}

/// Four workers answer one connection's pipelined batch concurrently and
/// write the socket themselves; the per-connection reorder buffer must
/// still release the responses in submission order (`run_batch` fails on
/// the first response id out of order) and unchanged: slow requests
/// (uploads, whole-archive searches) interleaved with fast ones (cached
/// and uncached neighbour queries, an error) come back byte-identical to
/// executing the same list sequentially in process.
#[test]
fn out_of_order_completions_leave_in_submission_order() {
    let archive = ArchiveGenerator::new(GeneratorConfig::tiny(40, 504)).unwrap().generate();
    let server = Arc::new(build_server(&archive, 504));
    // A quota above the batch size: nothing may be rejected here.
    let config = NetConfig { workers: 4, max_inflight_per_conn: 1024, ..NetConfig::default() };
    let net = NetServer::bind_with(Arc::clone(&server), "127.0.0.1:0", config).unwrap();
    let mut client = EqClient::connect(net.local_addr()).unwrap();

    let external = ArchiveGenerator::new(GeneratorConfig::tiny(3, 4243)).unwrap().generate();
    let mut requests = Vec::new();
    for round in 0..12usize {
        let upload = external.patches()[round % 3].clone();
        requests.push(RequestBody::SearchByNewExample { patch: Box::new(upload), k: 9 });
        for patch in archive.patches().iter().skip(round).step_by(7) {
            requests.push(RequestBody::SimilarTo { name: patch.meta.name.clone(), k: 5 });
        }
        requests.push(RequestBody::Search(query_to_spec(&ImageQuery::all())));
        requests.push(RequestBody::SimilarTo { name: format!("ghost-{round}"), k: 2 });
    }

    let remote = client.run_batch(&requests).unwrap();
    assert_eq!(remote.len(), requests.len());
    for (i, (remote_result, request)) in remote.iter().zip(&requests).enumerate() {
        assert_same_body(&server.call(request), remote_result, &format!("slot {i}"));
    }
    assert_eq!(net.connections_failed(), 0);
    net.shutdown();
}
