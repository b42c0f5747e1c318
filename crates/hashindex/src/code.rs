//! Fixed-width binary hash codes.

/// A binary hash code of `bits` bits, packed little-endian into `u64` words
/// (bit `i` of the code is bit `i % 64` of word `i / 64`).
///
/// MiLaN uses 128-bit codes (§3.3 of the paper), but the width is
/// configurable so that the loss-ablation and radius-sweep experiments can
/// explore other widths.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BinaryCode {
    bits: u32,
    words: Vec<u64>,
}

impl BinaryCode {
    /// Creates an all-zero code of the given width.
    ///
    /// # Panics
    /// Panics if `bits == 0`.
    pub fn zeros(bits: u32) -> Self {
        assert!(bits > 0, "a binary code needs at least one bit");
        let n_words = bits.div_ceil(64) as usize;
        Self { bits, words: vec![0; n_words] }
    }

    /// Builds a code from boolean bit values (`bits.len()` defines the width).
    ///
    /// # Panics
    /// Panics if `bits` is empty.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut code = Self::zeros(bits.len() as u32);
        for (i, &b) in bits.iter().enumerate() {
            if b {
                code.set_bit(i as u32, true);
            }
        }
        code
    }

    /// Builds a code from real-valued network outputs by taking the sign:
    /// values `> 0` become 1, values `<= 0` become 0.  This is exactly the
    /// binarisation step MiLaN applies to its hashing-layer outputs.
    ///
    /// # Panics
    /// Panics if `values` is empty.
    pub fn from_signs(values: &[f32]) -> Self {
        let mut code = Self::zeros(values.len() as u32);
        for (i, &v) in values.iter().enumerate() {
            if v > 0.0 {
                code.set_bit(i as u32, true);
            }
        }
        code
    }

    /// Builds a code from raw words; extra bits beyond `bits` are masked off.
    ///
    /// # Panics
    /// Panics if `bits == 0` or `words` is shorter than `bits` requires.
    pub fn from_words(bits: u32, mut words: Vec<u64>) -> Self {
        assert!(bits > 0, "a binary code needs at least one bit");
        let n_words = bits.div_ceil(64) as usize;
        assert!(words.len() >= n_words, "word buffer too short for {bits} bits");
        words.truncate(n_words);
        let rem = bits % 64;
        if rem != 0 {
            let mask = (1u64 << rem) - 1;
            if let Some(last) = words.last_mut() {
                *last &= mask;
            }
        }
        Self { bits, words }
    }

    /// Code width in bits.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The packed words.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Value of bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= bits`.
    #[inline]
    pub fn bit(&self, i: u32) -> bool {
        assert!(i < self.bits, "bit index {i} out of range for {} bits", self.bits);
        (self.words[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= bits`.
    #[inline]
    pub fn set_bit(&mut self, i: u32, value: bool) {
        assert!(i < self.bits, "bit index {i} out of range for {} bits", self.bits);
        let w = (i / 64) as usize;
        let m = 1u64 << (i % 64);
        if value {
            self.words[w] |= m;
        } else {
            self.words[w] &= !m;
        }
    }

    /// Flips bit `i` in place — one XOR, no branch, no allocation.  This
    /// is what the radius-enumeration hot loop uses to flip/unflip its
    /// single scratch code per probed bucket.
    ///
    /// # Panics
    /// Panics if `i >= bits`.
    #[inline]
    pub fn toggle_bit(&mut self, i: u32) {
        assert!(i < self.bits, "bit index {i} out of range for {} bits", self.bits);
        self.words[(i / 64) as usize] ^= 1u64 << (i % 64);
    }

    /// Flips bit `i`, returning a new code.
    pub fn with_flipped_bit(&self, i: u32) -> Self {
        let mut c = self.clone();
        c.toggle_bit(i);
        c
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Hamming distance to `other`.
    ///
    /// # Panics
    /// Panics if the widths differ.
    #[inline]
    pub fn hamming_distance(&self, other: &BinaryCode) -> u32 {
        assert_eq!(self.bits, other.bits, "cannot compare codes of different widths");
        self.words.iter().zip(other.words.iter()).map(|(a, b)| (a ^ b).count_ones()).sum()
    }

    /// Extracts the `chunk`-th substring of `chunk_bits` bits as a `u64` key
    /// (used by multi-index hashing).  Bits past the end of the code are
    /// treated as zero.
    ///
    /// Word-aligned extraction: the substring spans at most two words, so
    /// it is assembled with two shifts and a mask instead of a bit-by-bit
    /// loop — this runs once per chunk for every MIH insert *and* query.
    ///
    /// # Panics
    /// Panics if `chunk_bits == 0` or `chunk_bits > 64`.
    pub fn substring(&self, chunk: u32, chunk_bits: u32) -> u64 {
        assert!(chunk_bits > 0 && chunk_bits <= 64, "chunk_bits must be in 1..=64");
        let start = chunk as u64 * chunk_bits as u64;
        if start >= self.bits as u64 {
            return 0;
        }
        let start = start as u32;
        let word = (start / 64) as usize;
        let offset = start % 64;
        // Low part from the first word; high part (if the substring crosses
        // a word boundary) from the next.  Bits beyond the code width are
        // zero by the struct invariant (`from_words`/`set_bit` mask them),
        // so no end-of-code special case is needed.
        let mut out = self.words[word] >> offset;
        if offset > 0 && word + 1 < self.words.len() {
            out |= self.words[word + 1] << (64 - offset);
        }
        if chunk_bits < 64 {
            out &= (1u64 << chunk_bits) - 1;
        }
        out
    }

    /// Renders the code as a `0`/`1` string, most significant chunk last
    /// (bit 0 first).  Useful for debugging and round-tripping in tests.
    pub fn to_bit_string(&self) -> String {
        (0..self.bits).map(|i| if self.bit(i) { '1' } else { '0' }).collect()
    }

    /// Parses a `0`/`1` string produced by [`to_bit_string`](Self::to_bit_string).
    pub fn from_bit_string(s: &str) -> Option<Self> {
        if s.is_empty() || !s.chars().all(|c| c == '0' || c == '1') {
            return None;
        }
        Some(Self::from_bools(&s.chars().map(|c| c == '1').collect::<Vec<_>>()))
    }

    /// Serializes the code: `bits:u32` followed by the packed words (their
    /// count is implied by the width).  Part of the durable snapshot/WAL
    /// format.
    pub fn encode(&self, w: &mut eq_wire::Writer) {
        Self::encode_words(self.bits, &self.words, w);
    }

    /// [`encode`](Self::encode) of a code held as `words` of a `bits`-wide
    /// code (a [`CodeArena`](crate::CodeArena) row): the same bytes, with no
    /// code built.  `words` must be as many as the width needs, bits past
    /// it zero, as every stored code's are.
    pub fn encode_words(bits: u32, words: &[u64], w: &mut eq_wire::Writer) {
        w.u32(bits);
        for &word in words {
            w.u64(word);
        }
    }

    /// Decodes a code written by [`encode`](Self::encode), validating the
    /// width against the remaining input before allocating.  The last
    /// word's bits past the width are zero in every encoded code, and a set
    /// one is refused, not masked away.
    ///
    /// # Errors
    /// Returns a [`eq_wire::WireError`] on truncation, a zero width or a
    /// set bit past the width; never panics.
    pub fn decode(r: &mut eq_wire::Reader<'_>) -> Result<Self, eq_wire::WireError> {
        let bits = r.u32()?;
        if bits == 0 {
            return Err(eq_wire::WireError::Corrupt("binary code of width 0".into()));
        }
        let n_words = bits.div_ceil(64) as usize;
        if n_words.saturating_mul(8) > r.remaining() {
            return Err(eq_wire::WireError::Corrupt(format!(
                "code of {bits} bits needs {} bytes, only {} remain",
                n_words * 8,
                r.remaining()
            )));
        }
        let mut words = Vec::with_capacity(n_words);
        for _ in 0..n_words {
            words.push(r.u64()?);
        }
        let rem = bits % 64;
        if rem != 0 && words.last().is_some_and(|&last| last >> rem != 0) {
            return Err(eq_wire::WireError::Corrupt(format!(
                "code of {bits} bits has bits past it"
            )));
        }
        Ok(Self::from_words(bits, words))
    }
}

impl std::fmt::Display for BinaryCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BinaryCode<{}>({}…)",
            self.bits,
            &self.to_bit_string()[..self.bits.min(16) as usize]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_width_codes_are_rejected() {
        let _ = BinaryCode::zeros(0);
    }

    #[test]
    fn zeros_has_no_set_bits() {
        let c = BinaryCode::zeros(128);
        assert_eq!(c.bits(), 128);
        assert_eq!(c.count_ones(), 0);
        assert_eq!(c.words().len(), 2);
    }

    #[test]
    fn non_multiple_of_64_widths_work() {
        let c = BinaryCode::zeros(100);
        assert_eq!(c.words().len(), 2);
        let mut c = c;
        c.set_bit(99, true);
        assert!(c.bit(99));
        assert_eq!(c.count_ones(), 1);
    }

    #[test]
    fn set_get_flip_bits() {
        let mut c = BinaryCode::zeros(64);
        c.set_bit(0, true);
        c.set_bit(63, true);
        assert!(c.bit(0) && c.bit(63) && !c.bit(32));
        c.set_bit(0, false);
        assert!(!c.bit(0));
        let f = c.with_flipped_bit(32);
        assert!(f.bit(32));
        assert!(!c.bit(32)); // original untouched
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        let c = BinaryCode::zeros(16);
        let _ = c.bit(16);
    }

    #[test]
    fn from_bools_and_bit_string_roundtrip() {
        let bits = [true, false, true, true, false, false, true, false, true];
        let c = BinaryCode::from_bools(&bits);
        assert_eq!(c.bits(), 9);
        let s = c.to_bit_string();
        assert_eq!(s, "101100101");
        assert_eq!(BinaryCode::from_bit_string(&s).unwrap(), c);
        assert!(BinaryCode::from_bit_string("").is_none());
        assert!(BinaryCode::from_bit_string("10a").is_none());
    }

    #[test]
    fn from_signs_thresholds_at_zero() {
        let c = BinaryCode::from_signs(&[0.5, -0.5, 0.0, 1e-9, -1e-9, 3.0]);
        assert_eq!(c.to_bit_string(), "100101");
    }

    #[test]
    fn from_words_masks_excess_bits() {
        let c = BinaryCode::from_words(4, vec![0xFFu64]);
        assert_eq!(c.count_ones(), 4);
        assert_eq!(c.words()[0], 0xF);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn from_words_rejects_short_buffers() {
        let _ = BinaryCode::from_words(128, vec![0u64]);
    }

    #[test]
    fn hamming_distance_basics() {
        let a = BinaryCode::from_bit_string("0000").unwrap();
        let b = BinaryCode::from_bit_string("1111").unwrap();
        let c = BinaryCode::from_bit_string("0101").unwrap();
        assert_eq!(a.hamming_distance(&a), 0);
        assert_eq!(a.hamming_distance(&b), 4);
        assert_eq!(a.hamming_distance(&c), 2);
        assert_eq!(b.hamming_distance(&c), 2);
        // Symmetry.
        assert_eq!(c.hamming_distance(&b), b.hamming_distance(&c));
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn hamming_distance_rejects_width_mismatch() {
        let a = BinaryCode::zeros(64);
        let b = BinaryCode::zeros(128);
        let _ = a.hamming_distance(&b);
    }

    #[test]
    fn hamming_distance_across_word_boundary() {
        let mut a = BinaryCode::zeros(128);
        let mut b = BinaryCode::zeros(128);
        a.set_bit(63, true);
        a.set_bit(64, true);
        b.set_bit(64, true);
        b.set_bit(127, true);
        assert_eq!(a.hamming_distance(&b), 2);
    }

    #[test]
    fn substring_extraction() {
        // bits 0..16 = pattern; chunk_bits 8.
        let c = BinaryCode::from_bit_string("1010101011110000").unwrap();
        assert_eq!(c.substring(0, 8), 0b01010101); // bit 0 is LSB of the key
        assert_eq!(c.substring(1, 8), 0b00001111);
        // Chunk that extends past the end of the code is zero-padded.
        assert_eq!(c.substring(2, 8), 0);
        // Full width as a single chunk.
        assert_eq!(c.substring(0, 16), 0b0000111101010101);
    }

    #[test]
    #[should_panic(expected = "chunk_bits")]
    fn substring_rejects_bad_chunk_width() {
        let c = BinaryCode::zeros(16);
        let _ = c.substring(0, 0);
    }

    /// The shift/mask extraction against a bit-by-bit reference, covering
    /// word-boundary-crossing substrings, ragged final chunks, chunks
    /// entirely past the end of the code, and the full-word case.
    #[test]
    fn substring_matches_bit_by_bit_reference() {
        let reference = |c: &BinaryCode, chunk: u32, chunk_bits: u32| -> u64 {
            let start = chunk * chunk_bits;
            let mut out = 0u64;
            for i in 0..chunk_bits {
                let bit_idx = start + i;
                if bit_idx >= c.bits() {
                    break;
                }
                if c.bit(bit_idx) {
                    out |= 1u64 << i;
                }
            }
            out
        };
        let mut state = 0xDEAD_BEEF_CAFE_F00Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for bits in [1u32, 7, 63, 64, 65, 100, 127, 128, 130, 200, 256] {
            let words: Vec<u64> = (0..bits.div_ceil(64)).map(|_| next()).collect();
            let c = BinaryCode::from_words(bits, words);
            for chunk_bits in [1u32, 3, 8, 13, 32, 63, 64] {
                let n_chunks = bits.div_ceil(chunk_bits) + 2; // incl. past-the-end chunks
                for chunk in 0..n_chunks {
                    assert_eq!(
                        c.substring(chunk, chunk_bits),
                        reference(&c, chunk, chunk_bits),
                        "bits {bits}, chunk {chunk} of {chunk_bits}"
                    );
                }
            }
        }
    }

    #[test]
    fn toggle_bit_flips_in_place_across_word_boundaries() {
        let mut c = BinaryCode::zeros(128);
        for i in [0u32, 63, 64, 127] {
            c.toggle_bit(i);
            assert!(c.bit(i));
            c.toggle_bit(i);
            assert!(!c.bit(i));
        }
        assert_eq!(c.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn toggle_bit_out_of_range_panics() {
        let mut c = BinaryCode::zeros(16);
        c.toggle_bit(16);
    }

    #[test]
    fn display_is_truncated_and_tagged_with_width() {
        let c = BinaryCode::zeros(128);
        let s = format!("{c}");
        assert!(s.contains("128"));
    }

    /// A code round-trips exactly, and a set bit past its width (which no
    /// encoder writes) is refused rather than masked away.
    #[test]
    fn decode_accepts_only_what_encode_writes() {
        let code = BinaryCode::from_words(48, vec![0xABCD_1234_5678]);
        let mut w = eq_wire::Writer::new();
        code.encode(&mut w);
        let mut bytes = w.into_bytes();
        let mut r = eq_wire::Reader::new(&bytes);
        assert_eq!(BinaryCode::decode(&mut r).unwrap(), code);
        assert!(r.is_empty());
        *bytes.last_mut().unwrap() = 0x80;
        assert!(matches!(
            BinaryCode::decode(&mut eq_wire::Reader::new(&bytes)),
            Err(eq_wire::WireError::Corrupt(_))
        ));
    }
}
