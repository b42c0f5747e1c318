//! Persistent serving demo: open a `QueryServer` on a persistence
//! directory, ingest live traffic into the write-ahead log, "crash", and
//! recover to the exact pre-crash state — then show the cold-start win of
//! loading the checkpoint instead of rebuilding from the archive, and how
//! little an incremental checkpoint writes compared to the first full one.
//!
//! Run with: `cargo run --release --example persistent_serving`

use std::time::Instant;

use agoraeo::bigearthnet::{ArchiveGenerator, GeneratorConfig};
use agoraeo::earthqube::{EarthQubeConfig, ImageQuery, QueryServer, ServeConfig};

fn main() {
    let dir = std::env::temp_dir().join(format!("eq_persistent_serving_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // 1. First boot: `open` finds no manifest, builds the full back-end
    //    (ingest + MiLaN training + encoding) and checkpoints it.
    let archive =
        ArchiveGenerator::new(GeneratorConfig { num_patches: 400, seed: 33, ..Default::default() })
            .expect("valid generator configuration")
            .generate();
    let mut config = EarthQubeConfig::fast(33);
    config.milan.epochs = 15;
    let start = Instant::now();
    let server = QueryServer::open(&dir, &archive, config.clone(), ServeConfig::default())
        .expect("first open builds and checkpoints");
    let build_time = start.elapsed();
    println!(
        "cold boot (build + checkpoint): {} images in {:.2?}",
        server.archive_size(),
        build_time
    );

    // 2. Live traffic: every ingest and feedback submission is appended to
    //    the write-ahead log inside the ingest lock section.
    let fresh = ArchiveGenerator::new(GeneratorConfig::tiny(12, 4242)).unwrap().generate();
    for chunk in fresh.patches().chunks(4) {
        server.ingest(chunk).expect("live ingest");
    }
    server.submit_feedback("the archive grew while persisted!", Some("reaction")).unwrap();
    let reference = server.search(&ImageQuery::all()).expect("search");
    // A k-NN answer reads the Hamming index, which recovery rebuilds from
    // the checkpoint's image table plus the WAL.
    let probe = &fresh.patches()[5].meta.name;
    let similar = server.similar_to(probe, 10).expect("similar");
    println!(
        "ingested {} live patches (WAL-logged); archive now {} images",
        fresh.patches().len(),
        server.archive_size()
    );

    // 3. "Crash": drop the server without another checkpoint.  The WAL is
    //    the only durable trace of the live ingests.
    drop(server);
    println!("server dropped (simulated crash) — recovering from checkpoint + WAL …");

    // 4. Recovery: the manifest's chunk set plus WAL-segment replay
    //    restores the exact pre-crash state, byte for byte.
    let start = Instant::now();
    let recovered = QueryServer::recover(&dir).expect("recovery");
    let recover_time = start.elapsed();
    let after = recovered.search(&ImageQuery::all()).expect("search");
    assert_eq!(after, reference, "recovered responses must be byte-identical");
    let similar_after = recovered.similar_to(probe, 10).expect("similar");
    assert_eq!(similar_after, similar, "the rebuilt index must answer identically");
    println!(
        "recovered {} images + {} feedback entries in {:.2?} — responses byte-identical",
        recovered.archive_size(),
        recovered.list_feedback().expect("feedback").len(),
        recover_time
    );
    println!(
        "cold-start speedup vs full rebuild: {:.1}x",
        build_time.as_secs_f64() / recover_time.as_secs_f64().max(1e-9)
    );

    // 5. An incremental checkpoint folds the WAL into delta chunks and
    //    retires the covered segments — recovery after it replays nothing,
    //    and only the state dirtied since boot was written.
    let stats = recovered.checkpoint(&dir).expect("checkpoint");
    println!(
        "incremental checkpoint ({:?}): {} bytes in {} chunks, {} WAL segments retired",
        stats.kind, stats.bytes_written, stats.chunks_written, stats.segments_retired
    );
    println!("{}", recovered.stats().render());

    let _ = std::fs::remove_dir_all(&dir);
}
