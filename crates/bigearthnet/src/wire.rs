//! Wire codecs for the archive substrate types.
//!
//! [`PatchMetadata`] and full [`Patch`]es cross two byte boundaries in this
//! workspace: the durable storage tier (snapshots and the write-ahead log
//! in `eq_earthqube`) and the `eq_proto` network RPC protocol (query-by-new-
//! example uploads, remote ingest).  Both must agree on the byte layout, so
//! the codec lives here, next to the types it serializes.  So do the codecs
//! of the fields the protocol carries on their own: a date ([`encode_date`],
//! in a result row and a query's date range), a bounding box
//! ([`encode_bbox`], a query's rectangle) and a label set
//! ([`encode_labels`], in a result row).
//!
//! Every decoder is checked and strict: it accepts only what its encoder
//! writes, so whatever decodes re-encodes to the bytes it came from.
//! Truncation, an unknown country, a label bit past [`Label::COUNT`], an
//! invalid date or bounding box, or a raster whose pixel buffer disagrees
//! with its declared size all surface as [`WireError`]s, never as panics —
//! these bytes arrive from disk *and* from the network.

use eq_geo::BBox;
use eq_wire::{Reader, WireError, Writer};

use crate::bands::BandData;
use crate::countries::Country;
use crate::labels::{Label, LabelSet};
use crate::patch::{AcquisitionDate, Patch, PatchId, PatchMetadata};

/// Encodes a date: `u16` year, `u8` month, `u8` day.
pub fn encode_date(date: AcquisitionDate, w: &mut Writer) {
    w.u16(date.year);
    w.u8(date.month);
    w.u8(date.day);
}

/// Decodes a date written by [`encode_date`].
///
/// # Errors
/// Returns [`WireError`] on truncation or a date [`AcquisitionDate::new`]
/// refuses.
pub fn decode_date(r: &mut Reader<'_>) -> Result<AcquisitionDate, WireError> {
    let (year, month, day) = (r.u16()?, r.u8()?, r.u8()?);
    AcquisitionDate::new(year, month, day)
        .ok_or_else(|| WireError::Corrupt(format!("invalid date {year}-{month}-{day}")))
}

/// Encodes a bounding box: `min_lon`, `min_lat`, `max_lon`, `max_lat` as
/// `f64`s.
pub fn encode_bbox(bbox: &BBox, w: &mut Writer) {
    w.f64(bbox.min_lon);
    w.f64(bbox.min_lat);
    w.f64(bbox.max_lon);
    w.f64(bbox.max_lat);
}

/// Decodes a bounding box written by [`encode_bbox`].
///
/// # Errors
/// Returns [`WireError`] on truncation or a box [`BBox::new`] refuses.
pub fn decode_bbox(r: &mut Reader<'_>) -> Result<BBox, WireError> {
    let (min_lon, min_lat, max_lon, max_lat) = (r.f64()?, r.f64()?, r.f64()?, r.f64()?);
    BBox::new(min_lon, min_lat, max_lon, max_lat)
        .map_err(|e| WireError::Corrupt(format!("invalid bbox: {e}")))
}

/// Encodes a label set as its `u64` bits.
pub fn encode_labels(labels: LabelSet, w: &mut Writer) {
    w.u64(labels.bits());
}

/// Decodes a label set written by [`encode_labels`]: a bit at or past
/// [`Label::COUNT`] is corrupt, not masked away.
///
/// # Errors
/// Returns [`WireError`] on truncation or an out-of-range bit.
pub fn decode_labels(r: &mut Reader<'_>) -> Result<LabelSet, WireError> {
    let bits = r.u64()?;
    if bits >> Label::COUNT != 0 {
        let bit = 63 - bits.leading_zeros();
        return Err(WireError::Corrupt(format!("label bit {bit} out of range")));
    }
    Ok(LabelSet::from_bits(bits))
}

/// Encodes patch metadata: dense id, name, bbox, label bits, country name,
/// and the acquisition date.
pub fn encode_patch_metadata(meta: &PatchMetadata, w: &mut Writer) {
    w.u32(meta.id.0);
    w.str(&meta.name);
    encode_bbox(&meta.bbox, w);
    encode_labels(meta.labels, w);
    w.str(meta.country.name());
    encode_date(meta.date, w);
}

/// Decodes patch metadata written by [`encode_patch_metadata`]; the
/// country is its exact [`Country::name`].
///
/// # Errors
/// Returns [`WireError`] on truncation, an invalid bounding box, a label
/// bit out of range, an unknown country or an invalid date.
pub fn decode_patch_metadata(r: &mut Reader<'_>) -> Result<PatchMetadata, WireError> {
    let id = PatchId(r.u32()?);
    let name = r.str()?.to_string();
    let bbox = decode_bbox(r)?;
    let labels = decode_labels(r)?;
    let country_name = r.str()?;
    let country = Country::from_name(country_name)
        .ok_or_else(|| WireError::Corrupt(format!("unknown country {country_name:?}")))?;
    let date = decode_date(r)?;
    Ok(PatchMetadata { id, name, bbox, labels, country, date })
}

/// Encodes one raster: side length plus the row-major `u16` pixels as one
/// little-endian byte string.
pub fn encode_band_data(band: &BandData, w: &mut Writer) {
    w.u32(band.size() as u32);
    // Byte-identical to `w.bytes(flattened)` but without materialising the
    // flattened temporary — this runs per band on the upload hot path.
    w.u32(u32::try_from(band.pixels().len() * 2).expect("raster exceeds u32::MAX bytes"));
    for &px in band.pixels() {
        w.u16(px);
    }
}

/// Decodes a raster written by [`encode_band_data`].
///
/// # Errors
/// Returns [`WireError`] on truncation or when the pixel buffer length
/// disagrees with the declared `size × size` shape.
pub fn decode_band_data(r: &mut Reader<'_>) -> Result<BandData, WireError> {
    let size = r.u32()? as usize;
    let bytes = r.bytes()?;
    let expected = size
        .checked_mul(size)
        .and_then(|n| n.checked_mul(2))
        .ok_or_else(|| WireError::Corrupt(format!("raster size {size} overflows")))?;
    if bytes.len() != expected {
        return Err(WireError::Corrupt(format!(
            "raster of size {size} needs {expected} pixel bytes, got {}",
            bytes.len()
        )));
    }
    let pixels =
        bytes.chunks_exact(2).map(|c| u16::from_le_bytes(c.try_into().expect("2 bytes"))).collect();
    Ok(BandData::from_pixels(size, pixels))
}

/// Encodes a full patch: metadata, the Sentinel-2 rasters, the Sentinel-1
/// rasters.
pub fn encode_patch(patch: &Patch, w: &mut Writer) {
    encode_patch_metadata(&patch.meta, w);
    w.seq_len(patch.s2_bands.len());
    for band in &patch.s2_bands {
        encode_band_data(band, w);
    }
    w.seq_len(patch.s1_bands.len());
    for band in &patch.s1_bands {
        encode_band_data(band, w);
    }
}

/// Decodes a patch written by [`encode_patch`].
///
/// The band *counts* and raster shapes are whatever the bytes say — decode
/// restores the encoded value exactly.  Callers that require the canonical
/// BigEarthNet layout (12 Sentinel-2 bands, 2 polarisations, per-resolution
/// sizes) must run [`Patch::validate`] on the result.
///
/// # Errors
/// Returns [`WireError`] on truncation or corrupt fields.
pub fn decode_patch(r: &mut Reader<'_>) -> Result<Patch, WireError> {
    let meta = decode_patch_metadata(r)?;
    // A raster is at least 8 bytes (size + byte-string length).
    let n_s2 = r.seq_len(8)?;
    let s2_bands = (0..n_s2).map(|_| decode_band_data(r)).collect::<Result<Vec<_>, _>>()?;
    let n_s1 = r.seq_len(8)?;
    let s1_bands = (0..n_s1).map(|_| decode_band_data(r)).collect::<Result<Vec<_>, _>>()?;
    Ok(Patch { meta, s2_bands, s1_bands })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchiveGenerator, GeneratorConfig};

    fn sample_patch() -> Patch {
        ArchiveGenerator::new(GeneratorConfig::tiny(1, 33)).unwrap().generate_patch(0)
    }

    fn encoded<F: Fn(&mut Writer)>(f: F) -> Vec<u8> {
        let mut w = Writer::new();
        f(&mut w);
        w.into_bytes()
    }

    #[test]
    fn metadata_roundtrips_exactly() {
        let meta = sample_patch().meta;
        let bytes = encoded(|w| encode_patch_metadata(&meta, w));
        let mut r = Reader::new(&bytes);
        let back = decode_patch_metadata(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back, meta);
        // Re-encoding is a byte-identical fixpoint.
        assert_eq!(encoded(|w| encode_patch_metadata(&back, w)), bytes);
    }

    #[test]
    fn full_patch_roundtrips_with_every_pixel() {
        let patch = sample_patch();
        let bytes = encoded(|w| encode_patch(&patch, w));
        let mut r = Reader::new(&bytes);
        let back = decode_patch(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.meta, patch.meta);
        assert_eq!(back.s2_bands, patch.s2_bands);
        assert_eq!(back.s1_bands, patch.s1_bands);
        assert_eq!(encoded(|w| encode_patch(&back, w)), bytes);
    }

    #[test]
    fn truncations_error_cleanly() {
        let patch = sample_patch();
        let bytes = encoded(|w| encode_patch(&patch, w));
        // Sampled truncation points (every offset would be slow at ~350 KB).
        for cut in (0..bytes.len()).step_by(striding(bytes.len())) {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(decode_patch(&mut r).is_err(), "prefix of {cut} bytes decoded");
        }
    }

    fn striding(len: usize) -> usize {
        (len / 257).max(1)
    }

    #[test]
    fn corrupt_fields_are_rejected() {
        let meta = sample_patch().meta;
        // Unknown country.
        let mut w = Writer::new();
        w.u32(0);
        w.str("x");
        for _ in 0..4 {
            w.f64(0.0);
        }
        w.u64(0);
        w.str("Atlantis");
        w.u16(2017);
        w.u8(7);
        w.u8(1);
        let mut r = Reader::new(w.as_bytes());
        assert!(matches!(decode_patch_metadata(&mut r), Err(WireError::Corrupt(_))));

        // A country name is matched exactly, not case-folded.
        let mut bytes = encoded(|w| encode_patch_metadata(&meta, w));
        let name = meta.country.name();
        let at = bytes.windows(name.len()).position(|win| win == name.as_bytes()).unwrap();
        bytes[at..at + name.len()].make_ascii_uppercase();
        assert!(matches!(
            decode_patch_metadata(&mut Reader::new(&bytes)),
            Err(WireError::Corrupt(message)) if message.contains("unknown country")
        ));

        // A label bit at or past `Label::COUNT` is refused, not masked.
        for bit in [Label::COUNT as u32, 63] {
            let mut w = Writer::new();
            w.u64(meta.labels.bits() | 1 << bit);
            assert!(matches!(
                decode_labels(&mut Reader::new(w.as_bytes())),
                Err(WireError::Corrupt(message)) if message.contains(&format!("label bit {bit} "))
            ));
        }

        // Invalid date (month 13).
        let mut bytes = encoded(|w| encode_patch_metadata(&meta, w));
        let month_at = bytes.len() - 2;
        bytes[month_at] = 13;
        assert!(decode_patch_metadata(&mut Reader::new(&bytes)).is_err());

        // Raster byte count disagreeing with its size.
        let mut w = Writer::new();
        w.u32(4);
        w.bytes(&[0u8; 10]); // 4×4 needs 32 bytes
        assert!(matches!(
            decode_band_data(&mut Reader::new(w.as_bytes())),
            Err(WireError::Corrupt(_))
        ));
    }
}
