//! Pins the content of every file of the committed legacy-format
//! directory `tests/fixtures/legacy_checkpoint`.
//!
//! `legacy_checkpoint.rs` pins each file by its plain CRC-32.  A chunk
//! file (`EQCHNK01`, the body length, the body, the CRC-32 of the body)
//! and the manifest (magic, version, length, body, CRC-32 of the body)
//! end in the CRC of what they frame, and the CRC-32 of a message followed
//! by its own CRC is fixed by the bytes before it and the message's
//! length: a chunk re-framed around another body of the same length keeps
//! the whole-file CRC.  The CRC-32 of the bytes read back to front has no
//! such residue, so this test pins that, as `records_checkpoint.rs` does
//! for the current format's fixture.  The fixture is a record of what the
//! legacy format wrote: it is never regenerated.

use std::path::Path;

use agoraeo::wire::crc32;

/// Every file of the fixture with its [`pin`].
const FIXTURE_FILES: &[(&str, u32)] = &[
    ("answers.bin", 0x43f3_2c2b),
    ("chunk-000001-000.eqc", 0x099f_436e),
    ("chunk-000001-001.eqc", 0x526c_92e3),
    ("chunk-000001-002.eqc", 0x7678_7843),
    ("chunk-000001-003.eqc", 0x2dc9_03a6),
    ("chunk-000001-004.eqc", 0x6f92_b00e),
    ("chunk-000001-005.eqc", 0x57ab_17c6),
    ("chunk-000002-000.eqc", 0x08e2_2266),
    ("chunk-000002-001.eqc", 0xc255_c90d),
    ("chunk-000002-002.eqc", 0xfbc2_e512),
    ("chunk-000002-003.eqc", 0xac35_520f),
    ("chunk-000002-004.eqc", 0xb9bf_5de9),
    ("feedback.bin", 0xa01a_bd4f),
    ("manifest.eqm", 0x9fd4_82a4),
    ("wal.0001.eqw", 0x8bb6_8239),
];

/// The CRC-32 of `bytes` read back to front.
fn pin(bytes: &[u8]) -> u32 {
    crc32(&bytes.iter().rev().copied().collect::<Vec<u8>>())
}

#[test]
fn every_legacy_fixture_file_is_pinned_by_its_content() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy_checkpoint");
    let mut present: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    present.sort();
    let pinned: Vec<&str> = FIXTURE_FILES.iter().map(|(file, _)| *file).collect();
    assert_eq!(present, pinned, "the fixture holds exactly the pinned files");
    for (file, expected) in FIXTURE_FILES {
        let bytes = std::fs::read(dir.join(file)).unwrap();
        assert_eq!(pin(&bytes), *expected, "fixture file {file} changed");
    }
}
