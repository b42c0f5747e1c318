//! Concurrent serving demo: wrap the EarthQube back-end in a `QueryServer`,
//! fan a mixed query workload over worker threads while ingesting new
//! patches on the write path, and print the serving statistics.
//!
//! Run with: `cargo run --release --example concurrent_serving`

use agoraeo::bigearthnet::{ArchiveGenerator, Country, GeneratorConfig, Label};
use agoraeo::earthqube::{
    EarthQubeConfig, ImageQuery, LabelFilter, LabelOperator, QueryRequest, QueryServer, ServeConfig,
};
use agoraeo::geo::GeoShape;

fn main() {
    // 1. Build the server over a synthetic archive (engine + code arena).
    let archive =
        ArchiveGenerator::new(GeneratorConfig { num_patches: 400, seed: 21, ..Default::default() })
            .expect("valid generator configuration")
            .generate();
    let mut config = EarthQubeConfig::fast(21);
    config.milan.epochs = 15;
    let server =
        QueryServer::build(&archive, config, ServeConfig::default()).expect("server builds");
    println!(
        "QueryServer ready: {} images indexed, cache capacity {}",
        server.archive_size(),
        server.serve_config().cache_capacity,
    );

    // 2. A mixed workload: CBIR queries, label searches, spatial searches.
    let mut requests = Vec::new();
    for (i, patch) in archive.patches().iter().enumerate().take(48) {
        requests.push(match i % 3 {
            0 => QueryRequest::SimilarTo { name: patch.meta.name.clone(), k: 10 },
            1 => QueryRequest::Metadata(ImageQuery::all().with_labels(LabelFilter::new(
                LabelOperator::Some,
                vec![Label::ALL[(i * 5) % Label::ALL.len()]],
            ))),
            _ => {
                QueryRequest::Metadata(ImageQuery::all().with_shape(GeoShape::Rect(
                    Country::ALL[i % Country::ALL.len()].bounding_box(),
                )))
            }
        });
    }

    // 3. Serve the workload on 4 workers while the write path ingests new
    //    patches — queries and ingest proceed concurrently.
    let fresh = ArchiveGenerator::new(GeneratorConfig::tiny(8, 4040)).unwrap().generate();
    std::thread::scope(|scope| {
        let ingest = scope.spawn(|| server.ingest(fresh.patches()).expect("ingest succeeds"));
        let results = server.run_workload(&requests, 4);
        let answered = results.iter().filter(|r| r.is_ok()).count();
        println!("Workload pass 1: {answered}/{} queries answered", requests.len());
        ingest.join().expect("ingest thread");
    });
    println!("Live-ingested {} patches during the workload", fresh.len());

    // 4. Repeat the workload: the LRU result cache now answers most of it.
    let results = server.run_workload(&requests, 4);
    let answered = results.iter().filter(|r| r.is_ok()).count();
    println!("Workload pass 2: {answered}/{} queries answered\n", requests.len());

    // 5. The serving statistics snapshot.
    println!("=== ServerStats ===");
    print!("{}", server.stats().render());
}
