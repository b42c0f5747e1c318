//! The memory a document holds.
//!
//! A document's fields are one exactly sized vector of `(key, value)`
//! pairs, so an image-data-shaped document — a name, a 12-band `Doc` and a
//! 2-polarisation `Doc` of raster bytes — holds its payload, its key bytes
//! and one `(String, Value)` slot per field, however it was built: collected
//! or decoded, with or without a repeated key.  A tree node per field list,
//! or a vector reserved with slack, holds more.  Live bytes are counted by a global allocator, per
//! thread (its own test binary, so nothing else runs under it).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eq_docstore::wire::{decode_document, encode_document};
use eq_docstore::{Document, Fields, Value};
use eq_wire::{Reader, Writer};

/// Counts the bytes the calling thread holds, as requested (not as the
/// system allocator rounds them), so the test harness's own threads cannot
/// disturb the count.
struct CountingAlloc;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn add(bytes: isize) {
    LIVE.with(|live| live.set(live.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as isize);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as isize - layout.size() as isize);
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `build` and returns what it built with the bytes it still holds.
fn held<T>(build: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.with(Cell::get);
    let out = build();
    (out, (LIVE.with(Cell::get) - before) as usize)
}

/// The Sentinel-2 band names, in the archive's (not key) order.
const BANDS: [&str; 12] =
    ["B01", "B02", "B03", "B04", "B05", "B06", "B07", "B08", "B8A", "B09", "B11", "B12"];
const POLARISATIONS: [&str; 2] = ["VV", "VH"];
/// Bytes of one raster: a 10 × 10 patch of `u16` pixels.
const RASTER: usize = 200;
const NAME: &str = "S2A_MSIL2A_20170613T101031_0_48";

/// An image-data-shaped document, collected field list by field list.
fn collected() -> Document {
    let raster = |i: usize| Value::Bytes(vec![i as u8; RASTER]);
    let bands: Fields =
        BANDS.iter().enumerate().map(|(i, band)| (band.to_string(), raster(i))).collect();
    // A polarisation re-read replaces its first raster: the last value wins
    // and the list is still sized to the fields it keeps.
    let sar: Fields = std::iter::once(("VV".to_string(), raster(9)))
        .chain(POLARISATIONS.iter().enumerate().map(|(i, pol)| (pol.to_string(), raster(i))))
        .collect();
    Document::from([
        ("bands", Value::Doc(bands)),
        ("name", Value::from(NAME)),
        ("sar", Value::Doc(sar)),
    ])
}

/// Payload, key bytes and one slot per field: all a document may hold.
fn budget(doc: &Document) -> usize {
    fn of(key: &str, value: &Value) -> usize {
        let own = key.len() + std::mem::size_of::<(String, Value)>();
        own + match value {
            Value::Str(s) => s.len(),
            Value::Bytes(b) => b.len(),
            Value::Doc(fields) => fields.iter().map(|(k, v)| of(k, v)).sum(),
            other => panic!("not an image-document field: {other:?}"),
        }
    }
    doc.iter().map(|(k, v)| of(k, v)).sum()
}

#[test]
fn a_collected_image_document_holds_its_bytes_and_one_slot_per_field() {
    let (doc, bytes) = held(collected);
    assert_eq!(doc.len(), 3);
    assert_eq!(doc.get("bands.B8A").and_then(Value::as_bytes).map(<[u8]>::len), Some(RASTER));
    assert_eq!(doc.get("sar.VV").and_then(Value::as_bytes), Some(&[0u8; RASTER][..]));
    let budget = budget(&doc);
    // 3 + 12 + 2 slots, 12 + 36 + 4 key bytes, the name and 14 rasters.
    assert_eq!(budget, 17 * std::mem::size_of::<(String, Value)>() + 52 + NAME.len() + 14 * RASTER);
    assert!(bytes <= budget, "a collected document holds {bytes} B, over its {budget} B");
}

#[test]
fn a_decoded_image_document_holds_its_bytes_and_one_slot_per_field() {
    let original = collected();
    let mut w = Writer::new();
    encode_document(&original, &mut w);
    let encoded = w.into_bytes();
    let (doc, bytes) = held(|| decode_document(&mut Reader::new(&encoded)).unwrap());
    assert_eq!(doc, original);
    let budget = budget(&doc);
    assert!(bytes <= budget, "a decoded document holds {bytes} B, over its {budget} B");
}
