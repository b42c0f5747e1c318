//! The query path's allocation budget.
//!
//! A row of the result panel carries its country, date and label set as the
//! `Copy` values of the metadata table, so assembling a response, converting
//! it for the wire, encoding it and decoding it on the client each cost one
//! allocation per row — the name — or none.  Under the rows, a warm Hamming
//! scan costs none at all.  Both are counted with a counting global
//! allocator (its own test binary, so nothing else runs under it); the tests
//! fail if a per-row `to_string()` / `format!` comes back anywhere on the
//! path, or if a scan entry point stops reusing its caller's buffers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use agoraeo::bigearthnet::{ArchiveGenerator, GeneratorConfig};
use agoraeo::earthqube::net::{payload_to_response, query_to_spec, response_to_payload};
use agoraeo::earthqube::{
    EarthQube, EarthQubeConfig, ImageQuery, QueryServer, RequestBody, ServeConfig,
};
use agoraeo::hashindex::hashtable::Strategy;
use agoraeo::hashindex::{
    BinaryCode, Bitmap, CodeArena, CountingTopK, HammingIndex, HashTableIndex, IdMask,
    SearchScratch, ShardedHashIndex,
};
use agoraeo::proto::{read_response, Request, Response, ResponseBody};

/// Counts the allocations of the thread that makes them, so the test
/// harness's own threads cannot disturb the count.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `work` and returns its result with the allocations it made.
fn counted<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Rows in the measured response.
const N: u64 = 200;

/// Allocations a response may make that do not scale with its rows: filter
/// resolution, the statistics and plan, the vectors themselves and the
/// doublings of the encode buffer.
const FIXED: u64 = 32;

#[test]
fn a_response_costs_one_allocation_per_row_at_every_step() {
    let archive = ArchiveGenerator::new(GeneratorConfig::tiny(N as usize, 19)).unwrap().generate();
    let mut config = EarthQubeConfig::fast(19);
    config.train_model = false;
    let eq = EarthQube::build(&archive, config).unwrap();
    let everything = ImageQuery::all();

    let (response, assemble) = counted(|| eq.search(&everything).unwrap());
    assert_eq!(response.total() as u64, N);
    let (payload, convert) = counted(|| response_to_payload(&response));
    let message = Response { id: 1, body: ResponseBody::Search(payload) };
    let (bytes, encode) = counted(|| message.encode());
    let (decoded, decode) = counted(|| Response::decode(&bytes).unwrap());
    assert_eq!(decoded, message);
    let ResponseBody::Search(payload) = decoded.body else { unreachable!("asserted equal above") };
    let (remote, rebuild) = counted(|| payload_to_response(payload));
    assert_eq!(remote, response);

    println!(
        "{N} rows: assemble {assemble}, to payload {convert}, encode {encode}, \
         decode {decode}, from payload {rebuild} allocations"
    );
    assert!(assemble <= N + FIXED, "assembling {N} rows made {assemble} allocations");
    assert!(convert <= N + FIXED, "converting {N} rows made {convert} allocations");
    assert!(encode <= FIXED, "encoding {N} rows made {encode} allocations");
    assert!(assemble + convert + encode <= 3 * N + FIXED);
    assert!(decode <= N + FIXED, "decoding {N} rows made {decode} allocations");
    assert!(rebuild <= FIXED, "moving {N} decoded rows into a response made {rebuild} allocations");
}

/// `n` 128-bit codes around 64 centroids, ~5 % of their bits flipped: the
/// cluster structure of learned hash codes (splitmix64, so no `rand`).
fn clustered_codes(n: usize) -> Vec<BinaryCode> {
    let mut state = 11u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let centroids: Vec<Vec<u64>> = (0..64).map(|_| vec![next(), next()]).collect();
    (0..n)
        .map(|i| {
            let mut code = BinaryCode::from_words(128, centroids[i % 64].clone());
            for _ in 0..7 {
                code.toggle_bit((next() % 128) as u32);
            }
            code
        })
        .collect()
}

/// A warm scan allocates nothing: the serving selection over one dense-id
/// arena (`CountingTopK::knn`, unmasked and masked, and `CountingTopK::within`
/// masked: what `Catalog::nearest` and `similar_within_filtered` call), the
/// sharded index's k-NN, masked k-NN and masked radius search (the heap and
/// the masked radius scan; the benchmark harness replays them), and the
/// flat table's k-NN and radius scan, each into a cleared, warm buffer.
#[test]
fn a_warm_scan_allocates_nothing() {
    let codes = clustered_codes(4_000);
    let mut arena = CodeArena::new(128);
    let sharded = ShardedHashIndex::new(128, 8);
    let mut table = HashTableIndex::new(128);
    let mut subset = Bitmap::new();
    for (id, code) in (0u64..).zip(&codes) {
        arena.push(id, code);
        sharded.insert(id, code.clone());
        table.insert(id, code.clone());
        if id % 7 == 0 {
            subset.insert(id);
        }
    }
    // Enumeration clones the query per call; the scan is the hot path.
    table.force_strategy(Some(Strategy::BucketScan));
    let mask = IdMask::from_bitmap(&subset);
    let query = &codes[2_000];
    let (mut scratch, mut counting, mut out) =
        (SearchScratch::new(), CountingTopK::new(), Vec::new());
    let mut hits = [0; 8];
    let mut scan = || {
        hits[0] += sharded.knn_with(query, 10, &mut scratch).len();
        hits[1] += sharded.knn_masked_with(query, 10, &mask, &mut scratch).len();
        out.clear();
        sharded.radius_search_masked_into(query, 12, &mask, &mut out);
        hits[2] += out.len();
        hits[3] += table.knn_with(query, 10, &mut scratch).len();
        out.clear();
        table.radius_search_into(query, 12, &mut out);
        hits[4] += out.len();
        hits[5] += counting.knn(&arena, query.words(), 10, None).len();
        hits[6] += counting.knn(&arena, query.words(), 10, Some(&mask)).len();
        hits[7] += counting.within(&arena, query.words(), 12, Some(&mask)).len();
    };
    // Warms the scratch heap, the counting selection, `out` and the
    // per-thread stack of the debug-build lock-order tracker in
    // `vendor/parking_lot`.
    scan();
    let ((), allocations) = counted(|| (0..200).for_each(|_| scan()));
    assert!(hits.iter().all(|&h| h > 0), "a scan found nothing to rank: {hits:?}");
    assert_eq!(allocations, 0, "200 warm scans made {allocations} allocations");
}

/// Rows of the large cached answer the event loop frames.
const CACHED_ROWS: usize = 4_000;

/// A result-cache hit through `QueryServer::frame`, what the event loop
/// writes, frames the cached answer behind a fresh envelope: one probe, one
/// frame buffer, one copy and one CRC of the body, so its allocations do
/// not grow with the rows — a 20-row answer and a 4 000-row answer cost the
/// same.
#[test]
fn framing_a_cached_answer_allocates_the_same_at_any_row_count() {
    let archive = ArchiveGenerator::new(GeneratorConfig::tiny(CACHED_ROWS, 23)).unwrap().generate();
    let mut config = EarthQubeConfig::fast(23);
    config.train_model = false;
    let server = QueryServer::build(&archive, config, ServeConfig::default()).unwrap();
    let name = archive.patches()[7].meta.name.clone();
    let small = Request { id: 6, body: RequestBody::SimilarTo { name, k: 20 } };
    let large = Request { id: 7, body: RequestBody::Search(query_to_spec(&ImageQuery::all())) };

    let mut allocations = Vec::new();
    for (request, rows) in [(&small, 20), (&large, CACHED_ROWS)] {
        let answer = server.call(&request.body); // the miss that fills the cache
        let hits = server.stats().cache_hits;
        let (frame, made) = counted(|| server.frame(request));
        assert_eq!(server.stats().cache_hits, hits + 1, "the answer is cached");
        let response = read_response(&mut &frame[..]).unwrap().expect("one frame");
        let ResponseBody::Search(payload) = &response.body else { panic!("{:?}", response.body) };
        assert_eq!(payload.rows.len(), rows);
        assert_eq!(response, Response { id: request.id, body: answer });
        allocations.push(made);
    }
    println!(
        "framing a cached answer: 20 rows {}, {CACHED_ROWS} rows {}",
        allocations[0], allocations[1]
    );
    assert_eq!(allocations[0], allocations[1], "the allocations grew with the rows");
    assert_eq!(allocations[1], 1, "the frame buffer is the hit path's one allocation");
}

/// A result-cache miss on `QueryServer::call` writes the answer's bytes
/// straight from the catalog's row table and decodes them once: the decode's
/// one allocation per row (the name) is the only one that scales with the
/// rows.
#[test]
fn a_result_cache_miss_costs_the_decode_s_one_allocation_per_row() {
    let archive = ArchiveGenerator::new(GeneratorConfig::tiny(N as usize, 29)).unwrap().generate();
    let mut config = EarthQubeConfig::fast(29);
    config.train_model = false;
    let server = QueryServer::build(&archive, config, ServeConfig::default()).unwrap();
    let request = RequestBody::Search(query_to_spec(&ImageQuery::all()));

    let (answer, made) = counted(|| server.call(&request));
    let ResponseBody::Search(payload) = &answer else { panic!("{answer:?}") };
    assert_eq!(payload.rows.len() as u64, N);
    assert_eq!(server.stats().cache_misses, 1, "the measured call was a miss");
    println!("a {N}-row result-cache miss: {made} allocations");
    assert!(made <= N + FIXED, "a {N}-row miss made {made} allocations");
}
