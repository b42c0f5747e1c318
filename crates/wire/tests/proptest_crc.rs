//! The slicing-by-8 `crc32` against the textbook bytewise definition:
//! every checksum this workspace stores (frames, WAL records, snapshots,
//! manifests) goes through the one function, so it must equal the reference
//! for every length and every alignment of the input.

use eq_wire::crc32;
use proptest::prelude::*;

/// CRC-32/ISO-HDLC one bit at a time — no tables to get wrong.
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
    // Every length around the 8-byte stride, at every start offset.
    let data: Vec<u8> = (0..64u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    for start in 0..16 {
        for len in 0..=40 {
            let slice = &data[start..start + len];
            assert_eq!(crc32(slice), crc32_reference(slice), "start {start}, len {len}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sliced_crc_equals_the_bytewise_reference(
        seed in 0u64..=u64::MAX,
        len in 0usize..=4099,
        start in 0usize..=15,
    ) {
        // A cheap LCG fills the buffer; the slice starts at an arbitrary
        // offset so the 8-byte chunks land on every alignment.
        let mut state = seed | 1;
        let data: Vec<u8> = (0..start + len)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        let slice = &data[start..];
        prop_assert_eq!(crc32(slice), crc32_reference(slice));
    }
}
