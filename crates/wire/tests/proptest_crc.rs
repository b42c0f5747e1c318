//! Every tier of `crc32` against the textbook bitwise definition: every
//! checksum this workspace stores or sends (frames, WAL records, snapshots,
//! chunks, manifests) goes through the one function, whichever tier the CPU
//! picks, so each tier must equal the reference for every length and every
//! alignment of the input — up to and past a 16 KB `panel` answer.

use eq_wire::{crc32, CrcTier};
use proptest::prelude::*;

/// CRC-32/ISO-HDLC one bit at a time — no tables, no folding to get wrong.
fn crc32_reference(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

#[test]
fn check_value_and_every_short_length() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
    // Every length around the 8-byte stride and the 64-byte fold group, at
    // every start offset.
    let data: Vec<u8> = (0..160u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    for start in 0..16 {
        for len in 0..=144 {
            let slice = &data[start..start + len];
            for tier in CrcTier::supported() {
                assert_eq!(tier.checksum(slice), crc32_reference(slice), "{tier:?}, {start}+{len}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_tier_equals_the_bitwise_reference(
        seed in 0u64..=u64::MAX,
        len in 0usize..=70_000,
        start in 0usize..=15,
    ) {
        // A cheap LCG fills the buffer; the slice starts at an arbitrary
        // offset so the 8-byte chunks and 16-byte loads land on every
        // alignment.
        let mut state = seed | 1;
        let data: Vec<u8> = (0..start + len)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        let slice = &data[start..];
        let want = crc32_reference(slice);
        prop_assert_eq!(crc32(slice), want);
        for tier in CrcTier::supported() {
            let got = tier.checksum(slice);
            prop_assert!(got == want, "{tier:?}: {got:08x} vs {want:08x}, len {len}");
        }
    }
}
