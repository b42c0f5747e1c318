//! Little-endian wire framing for the persistence tier.
//!
//! The durable storage formats of this workspace — docstore snapshots,
//! hash-index tables, MiLaN model weights and the EarthQube write-ahead
//! log — all share one byte-level vocabulary, defined here:
//!
//! * [`Writer`] — an append-only byte buffer with fixed-width little-endian
//!   primitives and `u32`-length-prefixed strings/byte strings,
//! * [`Reader`] — the matching cursor, where **every** read is checked:
//!   running off the end of the buffer, an invalid enum tag, a non-UTF-8
//!   string or an implausible sequence length returns a [`WireError`]
//!   instead of panicking, so decoding attacker- or corruption-shaped bytes
//!   is always safe,
//! * [`crc32`] — the CRC-32 (IEEE 802.3) checksum guarding every snapshot
//!   body, WAL record, checkpoint chunk, manifest and network frame, at the
//!   best [`CrcTier`] the CPU offers: carry-less-multiply folding (~15×
//!   faster on large inputs) or slicing-by-8.  Both compute the remainder of
//!   one polynomial division, so every checksum is the same on every CPU.
//!
//! The [`frame`] module adds the stream-level counterpart: magic-tagged,
//! length-prefixed, CRC-guarded frames read from and written to arbitrary
//! `std::io` streams — the message boundary of the `eq_proto` network RPC
//! protocol.  (The write-ahead log keeps its own, slightly different
//! record framing in `eq_earthqube::persist`: no magic per record, and
//! torn-tail tolerance instead of hard truncation errors.)
//!
//! The crate is dependency-free by design: the build environment has no
//! registry access, and a hand-rolled format this small is easier to audit
//! than a vendored serde stack.

#![deny(missing_docs)]
// `unsafe` is confined to the checksum kernel (`impl CrcTier`'s second
// block), the one item that carries `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

use std::sync::OnceLock;

/// Errors produced while decoding wire-format bytes.
///
/// Decoding never panics: any structural problem — truncation, a bad tag, a
/// corrupt length — surfaces as one of these variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    UnexpectedEof {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were actually available.
        available: usize,
    },
    /// The bytes were structurally invalid (bad tag, bad length, bad UTF-8,
    /// checksum mismatch, ...).
    Corrupt(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnexpectedEof { needed, available } => {
                write!(f, "unexpected end of input: needed {needed} bytes, had {available}")
            }
            WireError::Corrupt(msg) => write!(f, "corrupt wire data: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// An append-only byte buffer writing the wire format.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { buf: Vec::with_capacity(capacity) }
    }

    /// Continues an existing buffer: everything written lands after the
    /// bytes `buf` already holds, and [`into_bytes`](Self::into_bytes) hands
    /// the same allocation back.  This is how a message is encoded straight
    /// into a frame buffer ([`frame::begin_frame`]) or a reused one.
    pub fn appending_to(buf: Vec<u8>) -> Self {
        Self { buf }
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Overwrites the `u32` written at byte offset `at` (a length reserved
    /// before the elements it counts were written).  An offset without four
    /// written bytes behind it changes nothing.
    pub fn set_u32(&mut self, at: usize, v: u32) {
        if let Some(slot) = self.buf.get_mut(at..).and_then(|tail| tail.get_mut(..4)) {
            slot.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends raw bytes with no length prefix (headers, magic numbers).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f32` as its exact IEEE-754 bit pattern (NaN-preserving).
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes an `f64` as its exact IEEE-754 bit pattern (NaN-preserving).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes a byte string: `u32` length prefix followed by the bytes.
    ///
    /// # Panics
    /// Panics if the slice is longer than `u32::MAX` bytes (no single field
    /// of the formats built on this crate comes near 4 GiB).
    pub fn bytes(&mut self, bytes: &[u8]) {
        // lint:allow(panic) documented contract: no caller can build a single >4 GiB field (see # Panics above)
        self.u32(u32::try_from(bytes.len()).expect("field longer than u32::MAX bytes"));
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a UTF-8 string: `u32` length prefix followed by the bytes.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Writes a sequence length as a `u32` prefix.
    ///
    /// # Panics
    /// Panics if the length exceeds `u32::MAX` elements.
    pub fn seq_len(&mut self, len: usize) {
        // lint:allow(panic) documented contract: no caller can build a sequence of >u32::MAX elements (see # Panics above)
        self.u32(u32::try_from(len).expect("sequence longer than u32::MAX elements"));
    }
}

/// A checked cursor over wire-format bytes.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes and returns the next `n` bytes.
    ///
    /// # Errors
    /// Returns [`WireError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof { needed: n, available: self.remaining() });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let slice = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        Ok(out)
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    /// Returns [`WireError::UnexpectedEof`] on truncation.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a `bool` (rejecting any byte other than 0 or 1).
    ///
    /// # Errors
    /// Returns [`WireError`] on truncation or a non-boolean byte.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Corrupt(format!("invalid bool byte {other:#04x}"))),
        }
    }

    /// Reads a `u16`, little-endian.
    ///
    /// # Errors
    /// Returns [`WireError::UnexpectedEof`] on truncation.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array::<2>()?))
    }

    /// Reads a `u32`, little-endian.
    ///
    /// # Errors
    /// Returns [`WireError::UnexpectedEof`] on truncation.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array::<4>()?))
    }

    /// Reads a `u64`, little-endian.
    ///
    /// # Errors
    /// Returns [`WireError::UnexpectedEof`] on truncation.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array::<8>()?))
    }

    /// Reads an `i64`, little-endian two's complement.
    ///
    /// # Errors
    /// Returns [`WireError::UnexpectedEof`] on truncation.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.array::<8>()?))
    }

    /// Reads an `f32` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    /// Returns [`WireError::UnexpectedEof`] on truncation.
    pub fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(u32::from_le_bytes(self.array::<4>()?)))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    /// Returns [`WireError::UnexpectedEof`] on truncation.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(u64::from_le_bytes(self.array::<8>()?)))
    }

    /// Reads a `u32`-length-prefixed byte string.
    ///
    /// The length is validated against the remaining buffer *before* any
    /// slice is taken, so a corrupt length cannot trigger a huge allocation
    /// or a panic.
    ///
    /// # Errors
    /// Returns [`WireError`] on truncation.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// Returns [`WireError`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|e| WireError::Corrupt(format!("invalid UTF-8 string: {e}")))
    }

    /// Reads a sequence length written by [`Writer::seq_len`], rejecting
    /// lengths that could not possibly fit in the remaining bytes (every
    /// element of every sequence in these formats occupies at least
    /// `min_element_size` bytes).  This bounds `Vec` pre-allocation by the
    /// input size, so a bit-flipped length fails cleanly instead of
    /// attempting a multi-gigabyte allocation.
    ///
    /// # Errors
    /// Returns [`WireError`] on truncation or an implausible length.
    pub fn seq_len(&mut self, min_element_size: usize) -> Result<usize, WireError> {
        let len = self.u32()? as usize;
        let min_total = len.saturating_mul(min_element_size.max(1));
        if min_total > self.remaining() {
            return Err(WireError::Corrupt(format!(
                "sequence of {len} elements needs at least {min_total} bytes, only {} remain",
                self.remaining()
            )));
        }
        Ok(len)
    }
}

pub mod frame;
pub mod manifest;

/// The CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) lookup
/// tables for the portable tier's slicing-by-8: `CRC32_TABLES[0]` is the
/// classic bytewise table, and `CRC32_TABLES[k][b]` is the checksum state
/// after byte `b` followed by `k` zero bytes, so eight table reads advance
/// the state by eight bytes.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// An instruction-set tier of [`crc32`], slowest first.  Every tier
/// computes the same polynomial over the same bits, so every tier returns
/// exactly what `Portable` returns, for every input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrcTier {
    /// Slicing-by-8 in plain Rust: the reference, the tier for inputs
    /// under 64 bytes, and the only tier off x86_64.
    Portable,
    /// `pclmulqdq` + `sse4.1` carry-less-multiply folding, 64 bytes per
    /// step; the last `len % 16` bytes run the portable loop.
    Clmul,
}

impl CrcTier {
    /// Whether this CPU can run the tier (`is_x86_feature_detected!`).
    pub(crate) fn is_supported(self) -> bool {
        match self {
            CrcTier::Portable => true,
            #[cfg(target_arch = "x86_64")]
            CrcTier::Clmul => {
                is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
            }
            #[cfg(not(target_arch = "x86_64"))]
            CrcTier::Clmul => false,
        }
    }

    /// The tiers this CPU can run, slowest first (`Portable` always).
    pub fn supported() -> impl Iterator<Item = CrcTier> {
        [Self::Portable, Self::Clmul].into_iter().filter(|t| t.is_supported())
    }

    /// The best tier this CPU can run: detected on first use, then fixed
    /// for the life of the process.  [`crc32`] runs at it.
    pub fn detected() -> CrcTier {
        static DETECTED: OnceLock<CrcTier> = OnceLock::new();
        *DETECTED.get_or_init(|| Self::supported().last().unwrap_or(CrcTier::Portable))
    }
}

/// The portable tier on the raw (uninverted) register: eight bytes per step
/// (slicing-by-8), the tail bytewise.
fn portable_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The checksum kernel: the one place in the crate allowed `unsafe`, for
/// the call into the `#[target_feature]` CLMUL tier and its 16-byte loads.
#[allow(unsafe_code)]
impl CrcTier {
    /// The CRC-32 of `bytes` at this tier: the same value at every tier
    /// (what the tests pin, tier by tier).
    ///
    /// # Panics
    /// Panics if this CPU cannot run the tier.
    #[inline]
    pub fn checksum(self, bytes: &[u8]) -> u32 {
        assert!(self.is_supported(), "this CPU cannot run the {self:?} CRC-32 tier");
        !match self {
            // SAFETY: `is_supported` confirmed `pclmulqdq` and `sse4.1`
            // (`is_x86_feature_detected!`); the tier reads `bytes` only
            // through `as_chunks`, so every load stays inside the slice.
            #[cfg(target_arch = "x86_64")]
            CrcTier::Clmul => unsafe { Self::clmul_update(!0, bytes) },
            _ => portable_update(!0, bytes),
        }
    }

    /// The CLMUL tier on the raw register: 64-byte groups fold into four
    /// 128-bit lanes, the lanes and the remaining 16-byte blocks fold into
    /// one, a Barrett reduction takes it to 32 bits, and the last
    /// `len % 16` bytes run portable.  Inputs under 64 bytes run portable.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn clmul_update(crc: u32, bytes: &[u8]) -> u32 {
        use std::arch::x86_64::*;
        // `x^n mod P(x)` for each fold distance `n`, bit-reflected and
        // shifted left by one (Gopal et al., "Fast CRC Computation for
        // Generic Polynomials Using PCLMULQDQ", Intel, 2009): K1/K2 carry a
        // lane's halves 64 bytes on (n = 4·128 ± 32), K3/K4 16 bytes on
        // (n = 128 ± 32), K5 takes 96 bits to 64 (n = 64); P and
        // μ = ⌊x^64 / P(x)⌋, reflected, are the Barrett reduction's.
        const K1: i64 = 0x1_5444_2BD4;
        const K2: i64 = 0x1_C6E4_1596;
        const K3: i64 = 0x1_7519_97D0;
        const K4: i64 = 0x0_CCAA_009E;
        const K5: i64 = 0x1_63CD_6124;
        const P: i64 = 0x1_DB71_0641;
        const MU: i64 = 0x1_F701_1641;
        let (blocks, tail) = bytes.as_chunks::<16>();
        let (groups, singles) = blocks.as_chunks::<4>();
        let Some((first, groups)) = groups.split_first() else {
            return portable_update(crc, bytes);
        };
        // SAFETY: `pclmulqdq` and `sse4.1` are on (`is_supported`, SSE2 is
        // x86_64's baseline); the load reads the 16 bytes of one `&[u8; 16]`.
        let load = |block: &[u8; 16]| unsafe { _mm_loadu_si128(block.as_ptr().cast()) };
        // `lane` carried forward by the distance `k` encodes, onto `next`.
        let fold = |lane, next, k| {
            let (lo, hi) =
                (_mm_clmulepi64_si128::<0x00>(lane, k), _mm_clmulepi64_si128::<0x11>(lane, k));
            _mm_xor_si128(next, _mm_xor_si128(lo, hi))
        };
        let mut lanes = first.each_ref().map(load);
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let by_four = _mm_set_epi64x(K2, K1);
        for group in groups {
            for (lane, block) in lanes.iter_mut().zip(group) {
                *lane = fold(*lane, load(block), by_four);
            }
        }
        let by_one = _mm_set_epi64x(K4, K3);
        let mut x = lanes[0];
        for &lane in &lanes[1..] {
            x = fold(x, lane, by_one);
        }
        for block in singles {
            x = fold(x, load(block), by_one);
        }
        // 128 bits to 96, 96 to 64, then Barrett: the reflected register
        // is the upper half of the low 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, by_one), _mm_srli_si128::<8>(x));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        let barrett = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), barrett);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), barrett);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        portable_update(crc, tail)
    }
}

/// Computes the CRC-32 (IEEE 802.3) checksum of a byte slice — the same
/// polynomial used by zip, PNG and Ethernet, so reference vectors are easy
/// to verify — at [`CrcTier::detected`]: carry-less-multiply folding where
/// the CPU has it, slicing-by-8 elsewhere and under 64 bytes.  Both tiers
/// compute the same remainder of the same polynomial, so every frame, WAL
/// record, chunk and manifest checksum is the same on every CPU.
pub fn crc32(bytes: &[u8]) -> u32 {
    CrcTier::detected().checksum(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip_exactly() {
        let mut w = Writer::new();
        w.u8(0xAB);
        w.bool(true);
        w.bool(false);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 7);
        w.i64(-42);
        w.f32(f32::from_bits(0x7FC0_1234)); // a non-canonical NaN
        w.f64(-0.0);
        w.str("héllo");
        w.bytes(&[1, 2, 3]);
        w.seq_len(5);
        w.raw(&[9; 5]); // the sequence seq_len promises

        let mut r = Reader::new(w.as_bytes());
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f32().unwrap().to_bits(), 0x7FC0_1234, "NaN payload must survive");
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.seq_len(1).unwrap(), 5);
        assert_eq!(r.take(5).unwrap(), &[9; 5]);
        assert!(r.is_empty());
    }

    #[test]
    fn a_reserved_u32_is_overwritten_in_place() {
        let mut w = Writer::new();
        w.u8(1);
        w.u32(0);
        w.u8(2);
        w.set_u32(1, 0xDEAD_BEEF);
        assert_eq!(w.as_bytes(), &[1, 0xEF, 0xBE, 0xAD, 0xDE, 2]);
        // An offset without four written bytes behind it changes nothing.
        w.set_u32(3, 7);
        w.set_u32(usize::MAX, 7);
        assert_eq!(w.as_bytes(), &[1, 0xEF, 0xBE, 0xAD, 0xDE, 2]);
    }

    #[test]
    fn every_truncation_point_errors_cleanly() {
        let mut w = Writer::new();
        w.u64(7);
        w.str("abc");
        let full = w.into_bytes();
        for cut in 0..full.len() {
            let mut r = Reader::new(&full[..cut]);
            let a = r.u64();
            let b = r.str();
            assert!(
                a.is_err() || b.is_err(),
                "prefix of {cut}/{} bytes decoded completely",
                full.len()
            );
        }
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_corrupt_not_eof() {
        let mut r = Reader::new(&[7]);
        assert!(matches!(r.bool(), Err(WireError::Corrupt(_))));
        let mut w = Writer::new();
        w.bytes(&[0xFF, 0xFE]);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.str(), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn huge_sequence_lengths_are_rejected_before_allocation() {
        let mut w = Writer::new();
        w.u32(u32::MAX); // an absurd element count
        w.u8(0);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.seq_len(1), Err(WireError::Corrupt(_))));
        // A length-prefixed byte string with a huge length is EOF-checked too.
        let mut r = Reader::new(&buf);
        assert!(matches!(r.bytes(), Err(WireError::UnexpectedEof { .. })));
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    /// CRC-32 one bit at a time — no tables, no folding — of every prefix
    /// of `data`: entry `n` is the checksum of `data[..n]`.
    fn bitwise_prefixes(data: &[u8]) -> Vec<u32> {
        let mut crc = !0u32;
        let mut out = Vec::with_capacity(data.len() + 1);
        out.push(!crc);
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
            out.push(!crc);
        }
        out
    }

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn every_crc_tier_matches_the_reference() {
        // Every length up to 4 099 at every start offset mod 16: the
        // portable tier's 8-byte stride and the CLMUL tier's 16-byte loads,
        // 64-byte groups and `len % 16` tails land on every alignment.
        let random = random_bytes(4099 + 16, 7);
        for start in 0..16 {
            let data = &random[start..];
            let want = bitwise_prefixes(data);
            for tier in CrcTier::supported() {
                for len in 0..=4099 {
                    assert_eq!(tier.checksum(&data[..len]), want[len], "{tier:?}, start {start}");
                }
            }
        }
        // Each fold boundary, a `panel` frame, 64 KiB and 1 MiB, on random,
        // all-zero and all-0xFF bytes.
        let lengths: Vec<usize> = (1..=20)
            .flat_map(|k| [16 * k - 1, 16 * k, 16 * k + 1, 16 * k + 15])
            .chain([16 << 10, 64 << 10, 1 << 20].into_iter().flat_map(|n| [n - 1, n, n + 15]))
            .collect();
        let big = (1 << 20) + 15;
        for data in [random_bytes(big, 11), vec![0; big], vec![0xFF; big]] {
            let want = bitwise_prefixes(&data);
            for tier in CrcTier::supported() {
                for &len in &lengths {
                    assert_eq!(tier.checksum(&data[..len]), want[len], "{tier:?}, len {len}");
                }
            }
        }
    }

    #[test]
    fn the_detected_crc_tier_is_the_best_the_cpu_reports() {
        #[cfg(target_arch = "x86_64")]
        let best = if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
            CrcTier::Clmul
        } else {
            CrcTier::Portable
        };
        #[cfg(not(target_arch = "x86_64"))]
        let best = CrcTier::Portable;
        assert_eq!(CrcTier::detected(), best);
        assert_eq!(CrcTier::supported().last(), Some(best));
        assert_eq!(CrcTier::supported().next(), Some(CrcTier::Portable));
        assert_eq!(crc32(b"123456789"), best.checksum(b"123456789"));
    }

    /// The micro-benchmark behind EXPERIMENTS.md's CRC table: ns per byte
    /// of each tier at a small request, a k-NN answer, a `panel` answer and
    /// 64 KiB.  `cargo test --release -p eq_wire -- --ignored --nocapture
    /// crc_tier_throughput`.
    #[test]
    #[ignore = "timing, not a check; run in release"]
    fn crc_tier_throughput() {
        let data = random_bytes(64 << 10, 3);
        for len in [80, 3_500, 16_500, 64 << 10] {
            for tier in CrcTier::supported() {
                let reps = (64 << 20) / len;
                let start = std::time::Instant::now();
                for _ in 0..reps {
                    std::hint::black_box(tier.checksum(std::hint::black_box(&data[..len])));
                }
                let ns = start.elapsed().as_nanos() as f64 / (reps * len) as f64;
                println!("{len:>6} B  {tier:?}: {ns:.3} ns/B");
            }
        }
    }

    #[test]
    fn errors_display_meaningfully() {
        let e = WireError::UnexpectedEof { needed: 8, available: 3 };
        assert!(e.to_string().contains("needed 8"));
        assert!(WireError::Corrupt("bad tag".into()).to_string().contains("bad tag"));
    }
}
