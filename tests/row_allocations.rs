//! A result row is one allocation.
//!
//! A row of the result panel carries its country, date and label set as the
//! `Copy` values of the metadata table, so assembling a response, converting
//! it for the wire, encoding it and decoding it on the client each cost one
//! allocation per row — the name — or none.  This test counts them with a
//! counting global allocator (its own test binary, so nothing else runs
//! under it) and fails if a per-row `to_string()` / `format!` comes back
//! anywhere on the path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use agoraeo::bigearthnet::{ArchiveGenerator, GeneratorConfig};
use agoraeo::earthqube::net::{payload_to_response, response_to_payload};
use agoraeo::earthqube::{EarthQube, EarthQubeConfig, ImageQuery};
use agoraeo::proto::{Response, ResponseBody};

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
