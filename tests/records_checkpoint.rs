//! Directories written in the current checkpoint format keep recovering.
//!
//! `tests/fixtures/records_checkpoint` was written by [`write_the_fixture`]
//! (below, ignored; it is the program that wrote the committed files): 12
//! patches (`GeneratorConfig::tiny(16, 41_041)`, `EarthQubeConfig::fast`
//! with 5 epochs) and one feedback entry with a category, a full
//! checkpoint (`static`, `ingest:0`, `feedback:0`), two more patches and a
//! feedback entry without a category folded in by an incremental
//! checkpoint (`ingest:12`, `feedback:1`), then one more patch and one
//! more feedback entry left in the WAL.  Beside the directory it holds
//! that revision's answers to a fixed query set (`answers.bin`) and its
//! `list_feedback` (`feedback.bin`), written by this file's own encoder
//! rather than the wire protocol's, so the committed bytes outlive the
//! protocol.
//!
//! Recovering a copy must reproduce both byte for byte, and a full
//! checkpoint of the recovered server must hold the fixture's bytes: the
//! same static chunk, and each record sequence as the fixture's runs and
//! WAL tail hold it.
//!
//! The same check runs on a directory another revision's
//! `write_the_fixture` wrote: [`read_a_written_directory`] (ignored) is
//! the reader of CI's upgrade check, where the parent commit writes and
//! this one reads.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use agoraeo::bigearthnet::patch::Season;
use agoraeo::bigearthnet::{Archive, ArchiveGenerator, GeneratorConfig, Label};
use agoraeo::earthqube::{
    CheckpointKind, EarthQubeConfig, FilteredResponse, ImageQuery, LabelFilter, LabelOperator,
    PrefilterMode, QueryServer, SearchResponse, ServeConfig,
};
use agoraeo::wire::manifest::{decode_manifest, Manifest};
use agoraeo::wire::{crc32, Writer};

const SEED: u64 = 41_041;

/// Every fixture file with its [`pin`]: the fixture is a record of what
/// this format wrote, so it is never regenerated.
const FIXTURE_FILES: &[(&str, u32)] = &[
    ("answers.bin", 0xc062_e68a),
    ("chunk-000001-000.eqc", 0x6335_ab60),
    ("chunk-000001-001.eqc", 0x6809_4b2f),
    ("chunk-000001-002.eqc", 0x92ec_a56e),
    ("chunk-000002-000.eqc", 0xe1dd_3393),
    ("chunk-000002-001.eqc", 0x81b9_329a),
    ("feedback.bin", 0xb53e_f4bf),
    ("manifest.eqm", 0xe274_cb54),
    ("wal.0001.eqw", 0x8573_e40f),
];

/// A file's pin: the CRC-32 of its bytes read back to front.  A chunk or
/// manifest file ends in the CRC-32 of the body it frames, and the CRC-32
/// of such a file read front to back depends on its length alone.
fn pin(bytes: &[u8]) -> u32 {
    crc32(&bytes.iter().rev().copied().collect::<Vec<u8>>())
}

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/records_checkpoint")
}

fn committed(file: &str) -> Vec<u8> {
    std::fs::read(fixture().join(file)).unwrap()
}

struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A fresh directory, one per call in this process.
    fn new(name: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let nth = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("eq_records_{name}_{}_{nth}", std::process::id());
        let path = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        ScratchDir(path)
    }

    /// A copy of a written directory's persistence files (all but the
    /// answers and the directory lock): recovery takes the directory lock
    /// and may truncate a torn tail, so it never runs on the written files.
    fn copy_of(written: &Path) -> Self {
        let dir = Self::new("copy");
        for entry in std::fs::read_dir(written).unwrap() {
            let file = entry.unwrap().file_name();
            let name = file.to_string_lossy();
            if !name.ends_with(".bin") && name != "wal.lock" {
                std::fs::copy(written.join(&file), dir.0.join(&file)).unwrap();
            }
        }
        dir
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A search answer: each row's name, country, ISO date, label names and
/// optional distance, then the page size, the label counts, the image
/// count and the optional metadata plan.
fn encode_search(response: &SearchResponse, w: &mut Writer) {
    let rows = response.panel.entries();
    w.seq_len(rows.len());
    for row in rows {
        w.str(&row.name);
        w.str(row.country.name());
        w.str(&row.date.to_iso());
        w.seq_len(row.labels.len());
        for label in row.labels.iter() {
            w.str(label.name());
        }
        encode_option(row.distance.map(u64::from), w);
    }
    w.u64(response.panel.page_size() as u64);
    w.seq_len(response.statistics.counts().len());
    for &count in response.statistics.counts() {
        w.u64(count as u64);
    }
    w.u64(response.statistics.image_count() as u64);
    w.bool(response.plan.is_some());
    if let Some(plan) = &response.plan {
        w.bool(plan.index_used.is_some());
        if let Some(index) = &plan.index_used {
            w.str(index);
        }
        w.u64(plan.scanned as u64);
        w.u64(plan.matched as u64);
    }
}

/// A filtered answer: the search answer, then the strategy's name, the
/// optional candidate count, the residual flag and the match count.
fn encode_filtered(filtered: &FilteredResponse, w: &mut Writer) {
    encode_search(&filtered.response, w);
    w.str(&format!("{:?}", filtered.plan.strategy));
    encode_option(filtered.plan.candidates, w);
    w.bool(filtered.plan.residual);
    w.u64(filtered.plan.matching as u64);
}

fn encode_option(value: Option<u64>, w: &mut Writer) {
    w.bool(value.is_some());
    if let Some(v) = value {
        w.u64(v);
    }
}

/// The fixed query set: the query panel unfiltered and under two
/// filters; `similar_to` from five images (two built, the two folded in
/// by the incremental checkpoint, the one replayed from the WAL); a
/// filtered radius search from two of them in each prefilter mode; and
/// one upload.
fn answers(srv: &QueryServer) -> Vec<u8> {
    let all = srv.search(&ImageQuery::all()).unwrap();
    let names: Vec<String> = all.panel.entries().iter().map(|e| e.name.clone()).collect();
    assert_eq!(names.len(), 15, "12 built, 2 checkpointed, 1 in the WAL");
    let seasons = ImageQuery::all().with_seasons(vec![Season::Summer, Season::Winter]);
    let labels = ImageQuery::all()
        .with_labels(LabelFilter::new(LabelOperator::Some, vec![Label::ALL[0], Label::ALL[7]]));
    let mut w = Writer::new();
    for query in [&ImageQuery::all(), &seasons, &labels] {
        encode_search(&srv.search(query).unwrap(), &mut w);
    }
    for i in [0, 5, 12, 13, 14] {
        encode_search(&srv.similar_to(&names[i], 6).unwrap(), &mut w);
    }
    for i in [3, 14] {
        for mode in
            [PrefilterMode::Auto, PrefilterMode::ForceBitmap, PrefilterMode::ForcePostFilter]
        {
            let within = srv.similar_within_filtered(&names[i], 24, &seasons, mode).unwrap();
            encode_filtered(&within, &mut w);
        }
    }
    let upload =
        ArchiveGenerator::new(GeneratorConfig::tiny(1, SEED + 1)).unwrap().generate_patch(0);
    encode_search(&srv.search_by_new_example(&upload, 6).unwrap(), &mut w);
    w.into_bytes()
}

/// `list_feedback`: a count, then each entry's id, text and optional
/// category.
fn feedback(srv: &QueryServer) -> Vec<u8> {
    let mut w = Writer::new();
    let entries = srv.list_feedback().unwrap();
    w.seq_len(entries.len());
    for entry in entries {
        w.i64(entry.id);
        w.str(&entry.text);
        w.bool(entry.category.is_some());
        if let Some(c) = &entry.category {
            w.str(c);
        }
    }
    w.into_bytes()
}

fn manifest_of(dir: &Path) -> Manifest {
    decode_manifest(&std::fs::read(dir.join("manifest.eqm")).unwrap()).unwrap()
}

/// The file of the manifest entry filed under `kind`.
fn chunk_file(manifest: &Manifest, kind: &str) -> String {
    let entry = manifest.chunks.iter().find(|c| c.kind == kind);
    entry.unwrap_or_else(|| panic!("no `{kind}` chunk")).file.clone()
}

/// The record payloads of a records chunk file, back to back: the body
/// past its chunk header (magic, length), tag and start.
fn run_payloads(file: &[u8]) -> &[u8] {
    &file[8 + 8 + 1 + 8..file.len() - 4]
}

/// Each record sequence of a directory as its records chunks and its WAL
/// segments hold it: `[ingest, feedback]`, payloads back to back.
fn sequences(dir: &Path) -> [Vec<u8>; 2] {
    let manifest = manifest_of(dir);
    let mut out: [Vec<u8>; 2] = Default::default();
    for chunk in &manifest.chunks {
        let seq = if chunk.kind.starts_with("ingest:") {
            0
        } else if chunk.kind.starts_with("feedback:") {
            1
        } else {
            continue;
        };
        out[seq].extend_from_slice(run_payloads(&std::fs::read(dir.join(&chunk.file)).unwrap()));
    }
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "eqw"))
        .collect();
    segments.sort();
    for segment in segments {
        // A segment: a 16-byte header, then `len:u32 crc:u32 payload`
        // frames; a payload's first byte is its kind (1 ingest, 2
        // feedback).
        let bytes = std::fs::read(segment).unwrap();
        let mut at = 16;
        while at < bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            let payload = &bytes[at + 8..at + 8 + len];
            out[usize::from(payload[0] - 1)].extend_from_slice(payload);
            at += 8 + len;
        }
    }
    out
}

#[test]
fn a_records_directory_recovers_byte_identically() {
    for (file, crc) in FIXTURE_FILES {
        assert_eq!(pin(&committed(file)), *crc, "fixture file {file} changed");
    }
    let kinds: Vec<String> = decode_manifest(&committed("manifest.eqm"))
        .unwrap()
        .chunks
        .into_iter()
        .map(|c| c.kind)
        .collect();
    assert_eq!(kinds, ["static", "ingest:0", "feedback:0", "ingest:12", "feedback:1"]);

    assert_recovers_byte_identically(&fixture());
}

/// Recovers a copy of `written`, a directory [`write_the_fixture`] wrote:
/// the recovered server answers the fixed query set and lists its feedback
/// as the `answers.bin` and `feedback.bin` written beside it, byte for
/// byte, and a full checkpoint of it holds the directory's bytes.
fn assert_recovers_byte_identically(written: &Path) {
    let read = |file: &str| std::fs::read(written.join(file)).unwrap();
    let dir = ScratchDir::copy_of(written);
    let srv = QueryServer::recover(&dir.0).unwrap();
    assert_eq!(srv.archive_size(), 15);
    assert_eq!(srv.stats().ingested_images, 1, "only the WAL tail counts as ingested");
    assert_eq!(answers(&srv), read("answers.bin"));
    assert_eq!(feedback(&srv), read("feedback.bin"));

    // A full checkpoint of the recovered server holds the written bytes.
    let full = ScratchDir::new("full");
    assert_eq!(srv.checkpoint(&full.0).unwrap().kind, CheckpointKind::Full);
    let manifest = manifest_of(&full.0);
    let static_chunk = |dir: &Path, manifest: &Manifest| {
        std::fs::read(dir.join(chunk_file(manifest, "static"))).unwrap()
    };
    let written_manifest = manifest_of(written);
    assert!(
        static_chunk(&full.0, &manifest) == static_chunk(written, &written_manifest),
        "the static chunk re-encodes otherwise"
    );
    assert!(sequences(&full.0) == sequences(written), "the records re-encode otherwise");
}

/// The reader of a directory [`write_the_fixture`] wrote, maybe under
/// another revision: run it with `EQ_RECORDS_DIR=<dir> cargo test --test
/// records_checkpoint -- --ignored read_a_written_directory`.  It makes
/// the fixture test's checks but the pins, which belong to the committed
/// files.
#[test]
#[ignore = "reads a directory `write_the_fixture` wrote; run by CI's upgrade check"]
fn read_a_written_directory() {
    let written = PathBuf::from(std::env::var("EQ_RECORDS_DIR").expect("EQ_RECORDS_DIR"));
    assert_recovers_byte_identically(&written);
}

/// The program that wrote `tests/fixtures/records_checkpoint`: run it with
/// `EQ_RECORDS_FIXTURE=<empty dir> cargo test --test records_checkpoint --
/// --ignored --nocapture`; it prints the `FIXTURE_FILES` entries of what
/// it wrote.  Only a new format generation gets a new
/// fixture, beside this one.
#[test]
#[ignore = "writes a fixture directory; run by hand for a new format generation"]
fn write_the_fixture() {
    let out = PathBuf::from(std::env::var("EQ_RECORDS_FIXTURE").expect("EQ_RECORDS_FIXTURE"));
    std::fs::create_dir_all(&out).unwrap();
    assert!(std::fs::read_dir(&out).unwrap().next().is_none(), "{} is not empty", out.display());
    let archive = ArchiveGenerator::new(GeneratorConfig::tiny(16, SEED)).unwrap().generate();
    let patches = archive.patches();
    let mut config = EarthQubeConfig::fast(SEED);
    config.milan.epochs = 5;
    let built = Archive::new(patches[..12].to_vec());
    let srv = QueryServer::build(&built, config, ServeConfig::default()).unwrap();
    srv.submit_feedback("Great tool!", Some("reaction")).unwrap();
    assert_eq!(srv.checkpoint(&out).unwrap().kind, CheckpointKind::Full);
    srv.ingest(&patches[12..14]).unwrap();
    srv.submit_feedback("  the map is slow when zoomed out ", None).unwrap();
    assert_eq!(srv.checkpoint(&out).unwrap().kind, CheckpointKind::Incremental);
    srv.ingest(&patches[14..15]).unwrap();
    srv.submit_feedback("a note left in the log", Some("bug")).unwrap();
    std::fs::write(out.join("answers.bin"), answers(&srv)).unwrap();
    std::fs::write(out.join("feedback.bin"), feedback(&srv)).unwrap();
    drop(srv);
    let mut files: Vec<String> = std::fs::read_dir(&out)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name != "wal.lock")
        .collect();
    files.sort();
    for file in files {
        let pin = pin(&std::fs::read(out.join(&file)).unwrap());
        println!("    (\"{file}\", 0x{:04x}_{:04x}),", pin >> 16, pin & 0xffff);
    }
}
