//! Stream framing: magic-tagged, length-prefixed, CRC-32-guarded frames
//! over arbitrary `std::io` streams.
//!
//! A frame is the unit of message delimitation on a byte stream (a TCP
//! connection, a pipe):
//!
//! ```text
//! frame := magic[4] len:u32le crc32(payload):u32le payload[len]
//! ```
//!
//! The design goals mirror the rest of this crate: reading a frame from a
//! hostile or half-dead peer must never panic, never allocate more than the
//! declared maximum, and always distinguish the three stream endings a
//! server cares about — a *clean* close (EOF exactly on a frame boundary),
//! a *torn* frame (the peer died mid-message), and *corruption* (wrong
//! magic, an implausible length, a checksum mismatch).

use std::io::{ErrorKind, Read, Write};

use crate::crc32;

/// Errors produced while reading a frame from a byte stream.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The frame did not start with the expected magic bytes (the peer is
    /// speaking a different protocol, or the stream lost sync).
    BadMagic {
        /// The four bytes actually read.
        found: [u8; 4],
        /// The magic that was expected.
        expected: [u8; 4],
    },
    /// The length prefix exceeds the reader's configured maximum; the
    /// payload was not allocated or read.
    Oversized {
        /// The declared payload length.
        declared: u64,
        /// The maximum the reader accepts.
        max: u64,
    },
    /// The stream ended in the middle of a frame (torn header or torn
    /// payload) — a mid-message disconnect, not a clean close.
    Truncated {
        /// Which part of the frame was cut short.
        context: &'static str,
    },
    /// The payload arrived complete but its CRC-32 does not match.
    CrcMismatch {
        /// The checksum stored in the frame header.
        stored: u32,
        /// The checksum computed over the received payload.
        computed: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::BadMagic { found, expected } => {
                write!(f, "bad frame magic {found:02x?} (expected {expected:02x?})")
            }
            FrameError::Oversized { declared, max } => {
                write!(f, "frame declares {declared} payload bytes, maximum is {max}")
            }
            FrameError::Truncated { context } => {
                write!(f, "stream ended mid-frame ({context})")
            }
            FrameError::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Bytes of a frame header: magic, payload length, payload CRC-32.
pub const HEADER_LEN: usize = 12;

/// The largest frame buffer kept once it is empty: a connection's buffer
/// above this capacity (a large upload's, say) is given back instead of
/// being held for the connection's life.  Both the server's
/// [`FrameDecoder`] and the client's send buffer keep to it.
pub const FRAME_BUF_KEEP: usize = 1 << 20;

/// Starts a frame at the end of `buf`: appends the magic and a placeholder
/// for the length and checksum, and returns the frame's start offset for
/// [`end_frame`].  The caller then appends the payload to `buf` directly —
/// the message is encoded where it will be sent from, with no payload →
/// frame copy.
pub fn begin_frame(buf: &mut Vec<u8>, magic: &[u8; 4]) -> usize {
    let start = buf.len();
    buf.extend_from_slice(magic);
    buf.extend_from_slice(&[0u8; HEADER_LEN - 4]);
    start
}

/// Completes the frame [`begin_frame`] started at `start`: everything after
/// its header is the payload, whose length and CRC-32 are patched into the
/// header.
///
/// # Errors
/// Fails with [`FrameError::Oversized`] if the payload exceeds `u32::MAX`
/// bytes, and with [`FrameError::Truncated`] if `start` is not the offset of
/// a header inside `buf` (a caller bug, reported instead of panicking).
pub fn end_frame(buf: &mut [u8], start: usize) -> Result<(), FrameError> {
    let Some((header, payload)) =
        buf.get_mut(start..).and_then(|frame| frame.split_at_mut_checked(HEADER_LEN))
    else {
        return Err(FrameError::Truncated { context: "frame header to patch" });
    };
    let len = u32::try_from(payload.len()).map_err(|_| FrameError::Oversized {
        declared: payload.len() as u64,
        max: u32::MAX as u64,
    })?;
    header[4..8].copy_from_slice(&len.to_le_bytes());
    header[8..].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(())
}

/// Writes one frame (magic, length, CRC-32, payload) to the stream with
/// **one** `write_all` of one contiguous buffer, so a small frame is one
/// `write(2)` and one TCP segment.  The payload is copied once to get there;
/// senders that encode the payload themselves avoid the copy with
/// [`begin_frame`] / [`end_frame`].  Streams with more than one concurrent
/// writer need external serialisation.
///
/// The caller is responsible for flushing if the stream is buffered.
///
/// # Errors
/// Fails if the payload exceeds `u32::MAX` bytes or on stream I/O errors.
pub fn write_frame<W: Write>(w: &mut W, magic: &[u8; 4], payload: &[u8]) -> Result<(), FrameError> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    let start = begin_frame(&mut frame, magic);
    frame.extend_from_slice(payload);
    end_frame(&mut frame, start)?;
    w.write_all(&frame)?;
    Ok(())
}

/// Reads one frame from the stream, returning its payload.
///
/// Returns `Ok(None)` on a *clean* end of stream: EOF before the first
/// header byte.  EOF anywhere later is a torn frame and surfaces as
/// [`FrameError::Truncated`].  The length prefix is validated against
/// `max_len` **before** any payload allocation, so a corrupt or hostile
/// length can never trigger a huge allocation.
///
/// # Errors
/// Returns [`FrameError`] on I/O failure, wrong magic, an oversized
/// length, a torn frame, or a payload checksum mismatch.
pub fn read_frame<R: Read>(
    r: &mut R,
    magic: &[u8; 4],
    max_len: u32,
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut found = [0u8; 4];
    match read_exact_or_eof(r, &mut found)? {
        Eof::Clean => return Ok(None),
        Eof::Torn => return Err(FrameError::Truncated { context: "frame magic" }),
        Eof::Complete => {}
    }
    if &found != magic {
        return Err(FrameError::BadMagic { found, expected: *magic });
    }
    let mut header = [0u8; 8];
    r.read_exact(&mut header).map_err(truncated("frame length/checksum header"))?;
    // lint:allow(panic) infallible: both slices of the fixed [u8; 8] header are exactly 4 bytes
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    // lint:allow(panic) infallible: both slices of the fixed [u8; 8] header are exactly 4 bytes
    let stored = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    if len > max_len {
        return Err(FrameError::Oversized { declared: len as u64, max: max_len as u64 });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(truncated("frame payload"))?;
    let computed = crc32(&payload);
    if stored != computed {
        return Err(FrameError::CrcMismatch { stored, computed });
    }
    Ok(Some(payload))
}

/// Incremental frame decoder for readiness-driven servers.
///
/// The blocking [`read_frame`] owns its stream and can simply block until a
/// frame completes; an event loop cannot — bytes arrive in whatever chunks
/// a non-blocking socket yields, and a single chunk may hold half a frame
/// or three and a half.  `FrameDecoder` buffers fed bytes and hands back
/// complete payloads as they become available, enforcing the same
/// validation order as the blocking reader: the magic is checked as soon
/// as four bytes are buffered, the length bound as soon as the 12-byte
/// header is — both *before* any payload accumulates, so a hostile length
/// prefix still cannot drive a huge allocation — and the CRC-32 once the
/// payload completes.
///
/// After a returned error the decoder's state is unspecified; the caller
/// is expected to drop the connection (every error here is unrecoverable
/// stream corruption, not a transient condition).
#[derive(Debug)]
pub struct FrameDecoder {
    magic: [u8; 4],
    max_len: u32,
    buf: Vec<u8>,
    /// Start of undecoded bytes within `buf`; consumed prefixes are
    /// compacted away once they outgrow a small threshold, so steady-state
    /// decoding reuses one buffer instead of shifting bytes per frame.  A
    /// drained buffer above [`FRAME_BUF_KEEP`] is dropped.
    pos: usize,
}

impl FrameDecoder {
    /// Consumed-prefix size beyond which the buffer is compacted.
    const COMPACT_THRESHOLD: usize = 64 * 1024;

    /// Creates a decoder for frames tagged with `magic`, rejecting
    /// payloads longer than `max_len`.
    pub fn new(magic: [u8; 4], max_len: u32) -> Self {
        Self { magic, max_len, buf: Vec::new(), pos: 0 }
    }

    /// Appends raw stream bytes (as read from a non-blocking socket).
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete frame payload, if the buffered bytes
    /// hold one.  `Ok(None)` means "feed me more"; call again after every
    /// [`extend`](Self::extend) until it returns `None`, since one chunk
    /// can complete several frames.
    ///
    /// # Errors
    /// Returns [`FrameError::BadMagic`], [`FrameError::Oversized`] or
    /// [`FrameError::CrcMismatch`] exactly where the blocking
    /// [`read_frame`] would; the connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let b = &self.buf[self.pos..];
        if b.len() >= 4 {
            // lint:allow(panic) infallible: the slice is exactly 4 bytes
            let found: [u8; 4] = b[..4].try_into().expect("4 bytes");
            if found != self.magic {
                return Err(FrameError::BadMagic { found, expected: self.magic });
            }
        }
        if b.len() < 12 {
            return Ok(None);
        }
        // lint:allow(panic) infallible: both slices of the fixed 12-byte header are exactly 4 bytes
        let len = u32::from_le_bytes(b[4..8].try_into().expect("4 bytes"));
        // lint:allow(panic) infallible: both slices of the fixed 12-byte header are exactly 4 bytes
        let stored = u32::from_le_bytes(b[8..12].try_into().expect("4 bytes"));
        if len > self.max_len {
            return Err(FrameError::Oversized { declared: len as u64, max: self.max_len as u64 });
        }
        let total = 12 + len as usize;
        if b.len() < total {
            return Ok(None);
        }
        let payload = b[12..total].to_vec();
        self.pos += total;
        if self.pos == self.buf.len() {
            if self.buf.capacity() > FRAME_BUF_KEEP {
                self.buf = Vec::new();
            } else {
                self.buf.clear();
            }
            self.pos = 0;
        } else if self.pos > Self::COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let computed = crc32(&payload);
        if stored != computed {
            return Err(FrameError::CrcMismatch { stored, computed });
        }
        Ok(Some(payload))
    }

    /// Whether undecoded bytes are buffered — i.e. the stream is *inside*
    /// a frame.  An EOF while this is true is a torn frame (the peer died
    /// mid-message); an EOF while it is false is a clean close.
    pub fn has_partial_frame(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Number of undecoded bytes currently buffered.
    pub fn buffered_len(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// How a buffered `read_exact`-like attempt ended.
enum Eof {
    /// All requested bytes arrived.
    Complete,
    /// EOF before the first byte.
    Clean,
    /// EOF after at least one byte.
    Torn,
}

/// Fills `buf` completely, distinguishing a clean EOF (no bytes read) from
/// a torn one (some bytes read) — `Read::read_exact` collapses both into
/// one error, which is not enough to tell a closed connection from a dead
/// peer mid-frame.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<Eof, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Ok(if filled == 0 { Eof::Clean } else { Eof::Torn }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Eof::Complete)
}

/// Maps a `read_exact` error to [`FrameError::Truncated`] when it is an
/// EOF, and to [`FrameError::Io`] otherwise.
fn truncated(context: &'static str) -> impl Fn(std::io::Error) -> FrameError {
    move |e| {
        if e.kind() == ErrorKind::UnexpectedEof {
            FrameError::Truncated { context }
        } else {
            FrameError::Io(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const MAGIC: &[u8; 4] = b"TST1";

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, MAGIC, payload).unwrap();
        buf
    }

    #[test]
    fn frames_roundtrip_and_stream_in_sequence() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MAGIC, b"hello").unwrap();
        write_frame(&mut buf, MAGIC, b"").unwrap();
        write_frame(&mut buf, MAGIC, &[0xFF; 1000]).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r, MAGIC, 4096).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, MAGIC, 4096).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r, MAGIC, 4096).unwrap().unwrap(), vec![0xFF; 1000]);
        assert!(read_frame(&mut r, MAGIC, 4096).unwrap().is_none(), "clean EOF");
    }

    /// Counts the `write` calls a frame costs its stream.
    struct CountingWriter {
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_exactly_one_write_call() {
        let mut w = CountingWriter { calls: 0, bytes: Vec::new() };
        write_frame(&mut w, MAGIC, &[7u8; 3000]).unwrap();
        assert_eq!(w.calls, 1, "header and payload must leave in one write");
        assert_eq!(read_frame(&mut Cursor::new(w.bytes), MAGIC, 4096).unwrap().unwrap(), [7; 3000]);
    }

    #[test]
    fn in_place_frames_equal_written_frames() {
        // A frame built behind a reserved header, after earlier content, is
        // byte-identical to the one `write_frame` emits.
        let mut buf = b"earlier bytes".to_vec();
        let start = begin_frame(&mut buf, MAGIC);
        assert_eq!(start, 13);
        buf.extend_from_slice(b"payload in place");
        end_frame(&mut buf, start).unwrap();
        assert_eq!(&buf[start..], framed(b"payload in place"));
        // An empty payload is a valid frame too.
        let mut empty = Vec::new();
        let start = begin_frame(&mut empty, MAGIC);
        end_frame(&mut empty, start).unwrap();
        assert_eq!(empty, framed(b""));
        // A start offset that is not a header is an error, never a panic.
        assert!(matches!(end_frame(&mut empty, 5), Err(FrameError::Truncated { .. })));
        assert!(matches!(end_frame(&mut empty, 99), Err(FrameError::Truncated { .. })));
    }

    #[test]
    fn clean_eof_is_none_but_torn_frames_error() {
        let full = framed(b"payload");
        // EOF exactly on the boundary: clean.
        let mut r = Cursor::new(&full[..0]);
        assert!(read_frame(&mut r, MAGIC, 64).unwrap().is_none());
        // Every other truncation point is a torn frame.
        for cut in 1..full.len() {
            let mut r = Cursor::new(&full[..cut]);
            let err = read_frame(&mut r, MAGIC, 64).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated { .. }),
                "cut at {cut}/{} gave {err}",
                full.len()
            );
        }
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"EVIL", b"x").unwrap();
        let err = read_frame(&mut Cursor::new(buf), MAGIC, 64).unwrap_err();
        assert!(matches!(err, FrameError::BadMagic { .. }));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        // Hand-build a header declaring a 4 GiB payload.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut Cursor::new(buf), MAGIC, 1024).unwrap_err();
        assert!(matches!(err, FrameError::Oversized { declared, max: 1024 }
            if declared == u32::MAX as u64));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let full = framed(b"checksummed payload");
        for bit in 0..full.len() * 8 {
            let mut bad = full.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let result = read_frame(&mut Cursor::new(&bad), MAGIC, 64);
            assert!(result.is_err(), "flipping bit {bit} went undetected");
        }
    }

    #[test]
    fn decoder_extracts_frames_fed_one_byte_at_a_time() {
        let mut stream = Vec::new();
        write_frame(&mut stream, MAGIC, b"hello").unwrap();
        write_frame(&mut stream, MAGIC, b"").unwrap();
        write_frame(&mut stream, MAGIC, &[0xAB; 300]).unwrap();
        let mut dec = FrameDecoder::new(*MAGIC, 4096);
        let mut frames = Vec::new();
        for &byte in &stream {
            dec.extend(&[byte]);
            while let Some(payload) = dec.next_frame().unwrap() {
                frames.push(payload);
            }
        }
        assert_eq!(frames, vec![b"hello".to_vec(), Vec::new(), vec![0xAB; 300]]);
        assert!(!dec.has_partial_frame(), "all bytes consumed on a frame boundary");
        assert_eq!(dec.buffered_len(), 0);
    }

    #[test]
    fn decoder_drains_multiple_frames_from_one_chunk() {
        let mut stream = Vec::new();
        for i in 0..5u8 {
            write_frame(&mut stream, MAGIC, &[i; 3]).unwrap();
        }
        // Plus half of a sixth frame.
        let tail = framed(b"torn");
        stream.extend_from_slice(&tail[..tail.len() - 2]);
        let mut dec = FrameDecoder::new(*MAGIC, 4096);
        dec.extend(&stream);
        let mut n = 0;
        while let Some(payload) = dec.next_frame().unwrap() {
            assert_eq!(payload, vec![n as u8; 3]);
            n += 1;
        }
        assert_eq!(n, 5);
        assert!(dec.has_partial_frame(), "the torn sixth frame is still buffered");
        // The missing bytes complete it.
        dec.extend(&tail[tail.len() - 2..]);
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"torn");
    }

    #[test]
    fn decoder_rejects_bad_magic_before_the_full_header_arrives() {
        let mut dec = FrameDecoder::new(*MAGIC, 4096);
        dec.extend(b"GET ");
        assert!(matches!(dec.next_frame(), Err(FrameError::BadMagic { .. })));
    }

    #[test]
    fn decoder_rejects_oversized_lengths_before_buffering_any_payload() {
        let mut dec = FrameDecoder::new(*MAGIC, 1024);
        let mut header = Vec::new();
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        dec.extend(&header);
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::Oversized { declared, max: 1024 }) if declared == u32::MAX as u64
        ));
    }

    #[test]
    fn decoder_detects_payload_corruption() {
        let mut bad = framed(b"checksummed");
        *bad.last_mut().unwrap() ^= 0x01;
        let mut dec = FrameDecoder::new(*MAGIC, 4096);
        dec.extend(&bad);
        assert!(matches!(dec.next_frame(), Err(FrameError::CrcMismatch { .. })));
    }

    #[test]
    fn decoder_compacts_its_buffer_across_many_frames() {
        // Feed far more than the compaction threshold through the decoder;
        // the internal buffer must not grow with the total stream size.
        let frame = framed(&[0x5A; 1024]);
        let mut dec = FrameDecoder::new(*MAGIC, 4096);
        for _ in 0..256 {
            dec.extend(&frame);
            assert_eq!(dec.next_frame().unwrap().unwrap(), vec![0x5A; 1024]);
        }
        assert_eq!(dec.buffered_len(), 0);
    }

    #[test]
    fn a_drained_decoder_gives_a_large_buffer_back() {
        let mut dec = FrameDecoder::new(*MAGIC, 8 << 20);
        // Small frames keep their buffer: one allocation, reused.
        for _ in 0..4 {
            dec.extend(&framed(&[1; 3000]));
            assert_eq!(dec.next_frame().unwrap().unwrap(), [1; 3000]);
        }
        let kept = dec.buf.capacity();
        assert!(kept >= 3000);
        dec.extend(&framed(&[2; 100]));
        dec.next_frame().unwrap().unwrap();
        assert_eq!(dec.buf.capacity(), kept, "a small frame's buffer is kept");
        // A 4 MiB frame, fed in socket-sized reads, grows the buffer past
        // the cap; once it is out, the buffer is given back.
        let big = framed(&vec![3; 4 << 20]);
        for read in big.chunks(64 << 10) {
            dec.extend(read);
        }
        assert!(dec.buf.capacity() > FRAME_BUF_KEEP);
        assert_eq!(dec.next_frame().unwrap().unwrap().len(), 4 << 20);
        assert!(dec.buf.capacity() <= FRAME_BUF_KEEP, "{} bytes kept", dec.buf.capacity());
        dec.extend(&framed(b"after"));
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"after");
    }

    #[test]
    fn errors_display_meaningfully() {
        let e = FrameError::CrcMismatch { stored: 1, computed: 2 };
        assert!(e.to_string().contains("checksum"));
        assert!(FrameError::Truncated { context: "payload" }.to_string().contains("payload"));
        assert!(FrameError::Oversized { declared: 9, max: 1 }.to_string().contains('9'));
        let e: FrameError = std::io::Error::other("boom").into();
        assert!(e.to_string().contains("boom"));
        assert!(FrameError::BadMagic { found: [0; 4], expected: *MAGIC }
            .to_string()
            .contains("magic"));
    }
}
