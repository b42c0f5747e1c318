//! Remote serving demo: put the `QueryServer` behind the `eq_proto` TCP
//! tier, drive it with blocking clients over loopback — one-shot calls,
//! a pipelined batch, a live remote ingest — and shut down gracefully.
//!
//! Run with: `cargo run --release --example remote_serving`

use std::sync::Arc;

use agoraeo::bigearthnet::{ArchiveGenerator, GeneratorConfig};
use agoraeo::earthqube::net::{EqClient, NetServer};
use agoraeo::earthqube::{
    EarthQubeConfig, ImageQuery, QueryServer, RequestBody, ResponseBody, ServeConfig,
};

fn main() {
    // 1. Build the query server and put it on the wire (ephemeral port).
    let archive =
        ArchiveGenerator::new(GeneratorConfig { num_patches: 300, seed: 31, ..Default::default() })
            .expect("valid generator configuration")
            .generate();
    let mut config = EarthQubeConfig::fast(31);
    config.milan.epochs = 12;
    let server =
        Arc::new(QueryServer::build(&archive, config, ServeConfig::default()).expect("builds"));
    let net = NetServer::bind(Arc::clone(&server), "127.0.0.1:0", 4).expect("binds");
    println!(
        "NetServer listening on {} ({} images, 4 workers)",
        net.local_addr(),
        server.archive_size()
    );

    // 2. One-shot calls over a reused connection.
    let mut client = EqClient::connect(net.local_addr()).expect("connects");
    client.ping().expect("pong");
    let all = client.search(&ImageQuery::all()).expect("search");
    println!("remote search: {} images match the empty query", all.total());
    let name = &archive.patches()[0].meta.name;
    let similar = client.similar_to(name, 8).expect("similar_to");
    println!("remote similar_to({name}): {} neighbours", similar.total());

    // 3. Remote equivalence: the wire adds nothing and loses nothing.
    assert_eq!(all, server.search(&ImageQuery::all()).expect("local search"));
    assert_eq!(similar, server.similar_to(name, 8).expect("local similar_to"));
    println!("remote responses are byte-identical to in-process calls");

    // 4. A pipelined batch: N requests, one round trip.
    let requests: Vec<RequestBody> = archive
        .patches()
        .iter()
        .take(24)
        .map(|p| RequestBody::SimilarTo { name: p.meta.name.clone(), k: 6 })
        .collect();
    let batched = client.run_batch(&requests).expect("batch");
    let answered = batched.iter().filter(|r| !matches!(r, ResponseBody::Error(_))).count();
    println!("pipelined batch: {answered}/{} requests answered", requests.len());

    // 5. Concurrent clients from several threads, while one ingests.
    let fresh = ArchiveGenerator::new(GeneratorConfig::tiny(6, 6060)).unwrap().generate();
    std::thread::scope(|scope| {
        let addr = net.local_addr();
        scope.spawn(move || {
            let mut writer = EqClient::connect(addr).expect("ingest client connects");
            let report = writer.ingest(fresh.patches()).expect("remote ingest");
            println!("remote ingest: {} patches appended", report.metadata_docs);
        });
        for _ in 0..2 {
            let requests = &requests;
            scope.spawn(move || {
                let mut reader = EqClient::connect(addr).expect("reader connects");
                let results = reader.run_batch(requests).expect("reader batch");
                assert!(results.iter().all(|r| matches!(r, ResponseBody::Search(_))));
            });
        }
    });

    // 6. Server-side stats over the wire, then graceful shutdown.
    let stats = client.stats().expect("stats");
    print!("{}", stats.render());
    assert_eq!(stats.archive_size, 306);
    net.shutdown();
    assert!(client.ping().is_err(), "the connection observed the shutdown");
    println!("NetServer shut down cleanly");
}
