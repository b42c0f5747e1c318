//! The checkpoint manifest record (`EQMANI01`).
//!
//! An incremental checkpoint directory is *rooted* in a single manifest
//! file: it names every chunk file that makes up the current snapshot
//! (with per-chunk length and CRC-32 so recovery can detect swapped or
//! truncated chunks before decoding them), the generation tag that binds
//! the write-ahead-log segments to this snapshot lineage, and the index
//! of the first WAL segment that must be replayed on top of the chunks.
//! Atomically renaming a new manifest over the old one is the commit
//! point of a checkpoint — chunk files not referenced by the published
//! manifest are unreachable orphans, and WAL segments below
//! `first_segment` are retired.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! manifest := "EQMANI01" version:u16 body_len:u64 body crc32(body):u32
//! body     := seq:u64 generation:u32 first_segment:u32
//!             chunks:u32 (file:string kind:string len:u64 crc:u32)*
//! ```
//!
//! `seq` is a monotonically increasing checkpoint sequence number (used
//! only to derive fresh chunk file names); `generation` is the WAL
//! lineage epoch; `first_segment` is the lowest-numbered WAL segment the
//! snapshot does *not* already contain.

use crate::{crc32, Reader, WireError, Writer};

/// Magic bytes opening every manifest file.
pub const MANIFEST_MAGIC: [u8; 8] = *b"EQMANI01";

/// Manifest format version; bump on any layout change.
pub const MANIFEST_VERSION: u16 = 1;

/// One chunk file referenced by a [`Manifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkEntry {
    /// File name of the chunk, relative to the manifest's directory.
    pub file: String,
    /// What the chunk contains (e.g. `"static"`, `"ingest:0"`,
    /// `"feedback:12"`) — an opaque label to this crate, interpreted by the
    /// persistence tier.
    pub kind: String,
    /// Expected total file length in bytes.
    pub len: u64,
    /// Expected CRC-32 of the chunk's *body* bytes (the chunk file's own
    /// trailing checksum, recorded here so a stale chunk from an earlier
    /// checkpoint cannot silently satisfy a newer manifest).
    pub crc: u32,
}

/// The decoded contents of a manifest file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Checkpoint sequence number, strictly increasing across checkpoints
    /// of one directory.
    pub seq: u64,
    /// Generation tag binding WAL segments to this snapshot lineage.
    pub generation: u32,
    /// Index of the first WAL segment to replay on top of the chunks.
    pub first_segment: u32,
    /// Every chunk file making up the snapshot, in apply order.
    pub chunks: Vec<ChunkEntry>,
}

/// Encodes a manifest to its full framed byte representation.
pub fn encode_manifest(manifest: &Manifest) -> Vec<u8> {
    let mut body = Writer::new();
    body.u64(manifest.seq);
    body.u32(manifest.generation);
    body.u32(manifest.first_segment);
    body.seq_len(manifest.chunks.len());
    for chunk in &manifest.chunks {
        body.str(&chunk.file);
        body.str(&chunk.kind);
        body.u64(chunk.len);
        body.u32(chunk.crc);
    }
    let body = body.into_bytes();
    let mut w = Writer::with_capacity(MANIFEST_MAGIC.len() + 14 + body.len());
    w.raw(&MANIFEST_MAGIC);
    w.u16(MANIFEST_VERSION);
    w.u64(body.len() as u64);
    w.raw(&body);
    w.u32(crc32(&body));
    w.into_bytes()
}

/// Decodes a framed manifest, verifying magic, version, length and CRC.
///
/// # Errors
/// Returns a [`WireError`] on truncation, a wrong magic or version, a
/// length that disagrees with the buffer, a checksum mismatch, or any
/// structural problem in the body; never panics.
pub fn decode_manifest(bytes: &[u8]) -> Result<Manifest, WireError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(MANIFEST_MAGIC.len())?;
    if magic != MANIFEST_MAGIC {
        return Err(WireError::Corrupt(format!("bad manifest magic {magic:02x?}")));
    }
    let version = r.u16()?;
    if version != MANIFEST_VERSION {
        return Err(WireError::Corrupt(format!(
            "unsupported manifest version {version} (expected {MANIFEST_VERSION})"
        )));
    }
    let body_len = r.u64()? as usize;
    if r.remaining().checked_sub(4) != Some(body_len) {
        return Err(WireError::Corrupt(format!(
            "manifest body length {body_len} disagrees with {} remaining bytes",
            r.remaining()
        )));
    }
    let body = r.take(body_len)?;
    let stored_crc = r.u32()?;
    let actual_crc = crc32(body);
    if stored_crc != actual_crc {
        return Err(WireError::Corrupt(format!(
            "manifest checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )));
    }
    let mut b = Reader::new(body);
    let seq = b.u64()?;
    let generation = b.u32()?;
    let first_segment = b.u32()?;
    let n_chunks = b.seq_len(20)?; // two length prefixes + len + crc minimum
    let mut chunks = Vec::with_capacity(n_chunks);
    for _ in 0..n_chunks {
        let file = b.str()?.to_string();
        let kind = b.str()?.to_string();
        let len = b.u64()?;
        let crc = b.u32()?;
        if file.is_empty() || file.contains('/') || file.contains('\\') {
            return Err(WireError::Corrupt(format!(
                "manifest chunk file name {file:?} is empty or contains a path separator"
            )));
        }
        chunks.push(ChunkEntry { file, kind, len, crc });
    }
    if !b.is_empty() {
        return Err(WireError::Corrupt(format!(
            "{} trailing bytes after the manifest body",
            b.remaining()
        )));
    }
    Ok(Manifest { seq, generation, first_segment, chunks })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            seq: 17,
            generation: 0xDEAD_BEEF,
            first_segment: 3,
            chunks: vec![
                ChunkEntry {
                    file: "chunk-0001-static.eqc".into(),
                    kind: "static".into(),
                    len: 4096,
                    crc: 0x1234_5678,
                },
                ChunkEntry {
                    file: "chunk-0017-shard-2.eqc".into(),
                    kind: "shard:2".into(),
                    len: 77,
                    crc: 0,
                },
            ],
        }
    }

    #[test]
    fn roundtrip_is_exact_and_deterministic() {
        let m = sample();
        let bytes = encode_manifest(&m);
        let back = decode_manifest(&bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(encode_manifest(&back), bytes);
    }

    #[test]
    fn empty_chunk_list_roundtrips() {
        let m = Manifest { seq: 0, generation: 1, first_segment: 0, chunks: Vec::new() };
        assert_eq!(decode_manifest(&encode_manifest(&m)).unwrap(), m);
    }

    #[test]
    fn every_truncation_errors_cleanly() {
        let bytes = encode_manifest(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode_manifest(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded",
                bytes.len()
            );
        }
    }

    #[test]
    fn bad_magic_version_and_crc_are_rejected() {
        let good = encode_manifest(&sample());

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(decode_manifest(&bad_magic), Err(WireError::Corrupt(_))));

        let mut bad_version = good.clone();
        bad_version[8] = 0xFF;
        assert!(matches!(decode_manifest(&bad_version), Err(WireError::Corrupt(_))));

        // Flip one body byte: the trailing CRC no longer matches.
        let mut bad_body = good.clone();
        let mid = 8 + 2 + 8 + 4;
        bad_body[mid] ^= 0x01;
        let err = decode_manifest(&bad_body).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // Trailing garbage after the frame is rejected via the length check.
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(decode_manifest(&trailing), Err(WireError::Corrupt(_))));

        // A body length no buffer can hold is refused, not overflowed.
        let mut huge = good.clone();
        huge[10..18].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(decode_manifest(&huge), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn path_separators_in_chunk_names_are_rejected() {
        let mut m = sample();
        m.chunks[0].file = "../escape.eqc".into();
        let bytes = encode_manifest(&m);
        let err = decode_manifest(&bytes).unwrap_err();
        assert!(err.to_string().contains("path separator"), "{err}");
    }
}
