//! Directories written in the legacy checkpoint format keep recovering.
//!
//! `tests/fixtures/legacy_checkpoint` was written by the last revision
//! that wrote that format: 12 patches (`GeneratorConfig::tiny(12, 28_028)`,
//! `EarthQubeConfig::fast(28_028)`), a full checkpoint, one ingest and one
//! feedback entry folded in by an incremental checkpoint (so its manifest
//! lists `coll:`, `delta:` and `images:` chunks), then one more ingest and
//! one more feedback entry left in the WAL.  Beside the directory it holds
//! that revision's answers to a fixed query set (`answers.bin`) and its
//! `list_feedback` (`feedback.bin`), encoded as below: the answers in the
//! row layout of protocol version 1, which that revision spoke, so the
//! committed bytes outlive the protocol.  Recovering the
//! directory must reproduce both byte for byte; the first checkpoint
//! afterwards starts a new lineage in place, in records chunks only.

use std::path::{Path, PathBuf};

use agoraeo::bigearthnet::patch::Season;
use agoraeo::bigearthnet::Label;
use agoraeo::earthqube::net::{filtered_to_payload, response_to_payload};
use agoraeo::earthqube::{
    CheckpointKind, ImageQuery, LabelFilter, LabelOperator, PrefilterMode, QueryServer,
};
use agoraeo::proto::SearchPayload;
use agoraeo::wire::manifest::decode_manifest;
use agoraeo::wire::{crc32, Writer};

/// Every fixture file with its CRC-32: the fixture is a record of what
/// the legacy format wrote, so it is never regenerated.
const FIXTURE_FILES: &[(&str, u32)] = &[
    ("answers.bin", 0xddb7_c54a),
    ("chunk-000001-000.eqc", 0x497f_be8b),
    ("chunk-000001-001.eqc", 0xd4e0_51a4),
    ("chunk-000001-002.eqc", 0x18ce_0afe),
    ("chunk-000001-003.eqc", 0x50c5_8c0f),
    ("chunk-000001-004.eqc", 0x8bf3_f141),
    ("chunk-000001-005.eqc", 0x7648_9589),
    ("chunk-000002-000.eqc", 0xd86f_ab89),
    ("chunk-000002-001.eqc", 0x19b0_f58b),
    ("chunk-000002-002.eqc", 0xb4bb_25e2),
    ("chunk-000002-003.eqc", 0xbe6a_1a6a),
    ("chunk-000002-004.eqc", 0x459d_0925),
    ("feedback.bin", 0x500c_525b),
    ("manifest.eqm", 0x961e_0900),
    ("wal.0001.eqw", 0x10d9_789c),
];

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy_checkpoint")
}

struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A copy of the fixture's persistence files: recovery takes the
    /// directory lock and may truncate a torn tail, so it never runs on
    /// the committed files.
    fn copy_of_fixture() -> Self {
        let path = std::env::temp_dir().join(format!("eq_legacy_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        for (file, _) in FIXTURE_FILES.iter().filter(|(file, _)| !file.ends_with(".bin")) {
            std::fs::copy(fixture().join(file), path.join(file)).unwrap();
        }
        ScratchDir(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A search payload as protocol version 1 wrote it: each row's country,
/// ISO date and label names as strings, then the page size, the label
/// counts, the image count and the plan.
fn encode_v1_search(payload: &SearchPayload, w: &mut Writer) {
    w.seq_len(payload.rows.len());
    for row in &payload.rows {
        w.str(&row.name);
        w.str(row.country.name());
        w.str(&row.date.to_iso());
        w.seq_len(row.labels.len());
        for label in row.labels.iter() {
            w.str(label.name());
        }
        w.bool(row.distance.is_some());
        if let Some(d) = row.distance {
            w.u32(d);
        }
    }
    w.u64(payload.page_size);
    w.seq_len(payload.label_counts.len());
    for &count in &payload.label_counts {
        w.u64(u64::from(count));
    }
    w.u64(payload.image_count);
    w.bool(payload.plan.is_some());
    if let Some(plan) = &payload.plan {
        w.bool(plan.index_used.is_some());
        if let Some(index) = &plan.index_used {
            w.str(index);
        }
        w.u64(plan.scanned);
        w.u64(plan.matched);
    }
}

/// The fixed query set, encoded in version 1's layout: the query panel under three
/// filters, then `similar_to` and a filtered radius search from four
/// images — two built, one folded in by the incremental checkpoint, one
/// replayed from the WAL.
fn answers(srv: &QueryServer) -> Vec<u8> {
    let all = srv.search(&ImageQuery::all()).unwrap();
    let names: Vec<String> = all.panel.entries().iter().map(|e| e.name.clone()).collect();
    let n = names.len();
    let picks = [0, 5, n - 2, n - 1];
    let seasons = ImageQuery::all().with_seasons(vec![Season::Summer, Season::Winter]);
    let labels = ImageQuery::all()
        .with_labels(LabelFilter::new(LabelOperator::Some, vec![Label::ALL[0], Label::ALL[7]]));
    let mut w = Writer::new();
    for query in [&ImageQuery::all(), &seasons, &labels] {
        encode_v1_search(&response_to_payload(&srv.search(query).unwrap()), &mut w);
    }
    for &i in &picks {
        encode_v1_search(&response_to_payload(&srv.similar_to(&names[i], 6).unwrap()), &mut w);
    }
    for &i in &picks {
        let within = srv.similar_within_filtered(&names[i], 24, &seasons, PrefilterMode::Auto);
        let within = filtered_to_payload(&within.unwrap());
        encode_v1_search(&within.search, &mut w);
        within.plan.encode(&mut w);
    }
    w.into_bytes()
}

/// `list_feedback`, encoded: a count, then each entry's id, text and
/// optional category.
fn feedback(srv: &QueryServer) -> Vec<u8> {
    let mut w = Writer::new();
    let entries = srv.list_feedback().unwrap();
    w.seq_len(entries.len());
    for entry in entries {
        w.i64(entry.id);
        w.str(&entry.text);
        match &entry.category {
            Some(c) => {
                w.u8(1);
                w.str(c);
            }
            None => w.u8(0),
        }
    }
    w.into_bytes()
}

fn committed(file: &str) -> Vec<u8> {
    std::fs::read(fixture().join(file)).unwrap()
}

#[test]
fn a_legacy_directory_recovers_byte_identically_and_upgrades_in_place() {
    for (file, crc) in FIXTURE_FILES {
        assert_eq!(crc32(&committed(file)), *crc, "fixture file {file} changed");
    }
    let manifest = decode_manifest(&committed("manifest.eqm")).unwrap();
    for kind in ["coll:", "delta:", "images:"] {
        assert!(manifest.chunks.iter().any(|c| c.kind.starts_with(kind)), "no {kind} chunk");
    }

    let dir = ScratchDir::copy_of_fixture();
    let srv = QueryServer::recover(&dir.0).unwrap();
    assert_eq!(srv.archive_size(), 14);
    assert_eq!(srv.stats().ingested_images, 1, "only the WAL tail counts as ingested");
    assert_eq!(answers(&srv), committed("answers.bin"));
    assert_eq!(feedback(&srv), committed("feedback.bin"));

    // The first checkpoint starts a new lineage in place: records chunks
    // only, the legacy chunks and the old WAL segment swept.
    assert_eq!(srv.checkpoint(&dir.0).unwrap().kind, CheckpointKind::Full);
    let manifest = decode_manifest(&std::fs::read(dir.0.join("manifest.eqm")).unwrap()).unwrap();
    for chunk in &manifest.chunks {
        let records = chunk.kind.starts_with("ingest:") || chunk.kind.starts_with("feedback:");
        assert!(chunk.kind == "static" || records, "unexpected chunk kind {}", chunk.kind);
    }
    let mut files: Vec<String> = std::fs::read_dir(&dir.0)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".eqc") || name.ends_with(".eqw"))
        .collect();
    files.sort();
    let mut expected: Vec<String> = manifest.chunks.iter().map(|c| c.file.clone()).collect();
    expected.push(format!("wal.{:04}.eqw", manifest.first_segment));
    expected.sort();
    assert_eq!(files, expected, "only the new lineage's files remain");
    drop(srv);

    let again = QueryServer::recover(&dir.0).unwrap();
    assert_eq!(answers(&again), committed("answers.bin"));
    assert_eq!(feedback(&again), committed("feedback.bin"));
}
