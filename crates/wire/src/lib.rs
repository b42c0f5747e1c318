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
//!   body and every WAL record.
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
#![forbid(unsafe_code)]

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
/// tables for slicing-by-8: `CRC32_TABLES[0]` is the classic bytewise table,
/// and `CRC32_TABLES[k][b]` is the checksum state after byte `b` followed by
/// `k` zero bytes, so eight table reads advance the state by eight bytes.
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

/// Computes the CRC-32 (IEEE 802.3) checksum of a byte slice — the same
/// polynomial used by zip, PNG and Ethernet, so reference vectors are easy
/// to verify.  Eight bytes per step (slicing-by-8); the tail goes bytewise.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
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
    !crc
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

    #[test]
    fn errors_display_meaningfully() {
        let e = WireError::UnexpectedEof { needed: 8, available: 3 };
        assert!(e.to_string().contains("needed 8"));
        assert!(WireError::Corrupt("bad tag".into()).to_string().contains("bad tag"));
    }
}
