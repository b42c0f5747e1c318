//! Base-32 geohash encoding.
//!
//! EarthQube stores patch locations in MongoDB and indexes them with
//! MongoDB's built-in 2-D geohashing index (§3.2 of the paper).  The
//! document store substrate in this workspace uses the same technique: each
//! location is encoded to a geohash string, stored in an ordered index, and
//! rectangle queries become a small set of prefix scans.

use crate::{BBox, Point};

/// Standard geohash base-32 alphabet.
const BASE32: &[u8; 32] = b"0123456789bcdefghjkmnpqrstuvwxyz";

/// Maximum supported geohash precision (characters).
pub const MAX_PRECISION: usize = 12;

/// Errors returned by the geohash codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeohashError {
    /// Requested precision was zero or above [`MAX_PRECISION`].
    InvalidPrecision(usize),
    /// The string contained a character outside the geohash alphabet.
    InvalidCharacter(char),
    /// The string was empty.
    Empty,
}

impl std::fmt::Display for GeohashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeohashError::InvalidPrecision(p) => write!(f, "invalid geohash precision {p}"),
            GeohashError::InvalidCharacter(c) => write!(f, "invalid geohash character {c:?}"),
            GeohashError::Empty => write!(f, "empty geohash"),
        }
    }
}

impl std::error::Error for GeohashError {}

fn char_index(c: char) -> Result<u8, GeohashError> {
    let lower = c.to_ascii_lowercase();
    BASE32
        .iter()
        .position(|&b| b as char == lower)
        .map(|i| i as u8)
        .ok_or(GeohashError::InvalidCharacter(c))
}

/// Encodes a point into a geohash string of the given precision (1..=12).
pub fn encode(p: Point, precision: usize) -> Result<String, GeohashError> {
    if precision == 0 || precision > MAX_PRECISION {
        return Err(GeohashError::InvalidPrecision(precision));
    }
    let mut lon_range = (-180.0f64, 180.0f64);
    let mut lat_range = (-90.0f64, 90.0f64);
    let mut out = String::with_capacity(precision);
    let mut bit = 0u8;
    let mut ch = 0u8;
    let mut even = true; // even bits encode longitude
    while out.len() < precision {
        if even {
            let mid = (lon_range.0 + lon_range.1) / 2.0;
            if p.lon >= mid {
                ch = (ch << 1) | 1;
                lon_range.0 = mid;
            } else {
                ch <<= 1;
                lon_range.1 = mid;
            }
        } else {
            let mid = (lat_range.0 + lat_range.1) / 2.0;
            if p.lat >= mid {
                ch = (ch << 1) | 1;
                lat_range.0 = mid;
            } else {
                ch <<= 1;
                lat_range.1 = mid;
            }
        }
        even = !even;
        bit += 1;
        if bit == 5 {
            out.push(BASE32[ch as usize] as char);
            bit = 0;
            ch = 0;
        }
    }
    Ok(out)
}

/// Decodes a geohash into the bounding box of its cell.
pub fn decode_bbox(hash: &str) -> Result<BBox, GeohashError> {
    if hash.is_empty() {
        return Err(GeohashError::Empty);
    }
    let mut lon_range = (-180.0f64, 180.0f64);
    let mut lat_range = (-90.0f64, 90.0f64);
    let mut even = true;
    for c in hash.chars() {
        let idx = char_index(c)?;
        for shift in (0..5).rev() {
            let bit = (idx >> shift) & 1;
            if even {
                let mid = (lon_range.0 + lon_range.1) / 2.0;
                if bit == 1 {
                    lon_range.0 = mid;
                } else {
                    lon_range.1 = mid;
                }
            } else {
                let mid = (lat_range.0 + lat_range.1) / 2.0;
                if bit == 1 {
                    lat_range.0 = mid;
                } else {
                    lat_range.1 = mid;
                }
            }
            even = !even;
        }
    }
    Ok(BBox {
        min_lon: lon_range.0,
        min_lat: lat_range.0,
        max_lon: lon_range.1,
        max_lat: lat_range.1,
    })
}

/// Decodes a geohash into the centre point of its cell.
pub fn decode(hash: &str) -> Result<Point, GeohashError> {
    Ok(decode_bbox(hash)?.center())
}

/// Returns the eight neighbouring geohash cells (and excludes cells that
/// would fall outside the valid coordinate range, e.g. north of the pole).
pub fn neighbors(hash: &str) -> Result<Vec<String>, GeohashError> {
    let bbox = decode_bbox(hash)?;
    let precision = hash.len();
    let w = bbox.width();
    let h = bbox.height();
    let c = bbox.center();
    let mut out = Vec::with_capacity(8);
    for dy in [-1.0, 0.0, 1.0] {
        for dx in [-1.0, 0.0, 1.0] {
            if dx == 0.0 && dy == 0.0 {
                continue;
            }
            let lon = c.lon + dx * w;
            let lat = c.lat + dy * h;
            if !(-180.0..=180.0).contains(&lon) || !(-90.0..=90.0).contains(&lat) {
                continue;
            }
            let n = encode(Point::new_unchecked(lon, lat), precision)?;
            if !out.contains(&n) && n != hash {
                out.push(n);
            }
        }
    }
    Ok(out)
}

/// Computes a small set of geohash prefixes of the given precision that
/// together cover `bbox`.
///
/// The result is clamped to at most `max_cells` prefixes; if the box is too
/// large for the precision, the precision is reduced until the cover fits.
/// This mirrors how a geohash-backed 2-D index turns a rectangle query into
/// a handful of ordered prefix scans.
pub fn cover_bbox(
    bbox: &BBox,
    precision: usize,
    max_cells: usize,
) -> Result<Vec<String>, GeohashError> {
    if precision == 0 || precision > MAX_PRECISION {
        return Err(GeohashError::InvalidPrecision(precision));
    }
    let max_cells = max_cells.max(1);
    let mut prec = precision;
    loop {
        let cell = decode_bbox(&encode(bbox.center(), prec)?)?;
        let cols = (bbox.width() / cell.width()).ceil() as usize + 2;
        let rows = (bbox.height() / cell.height()).ceil() as usize + 2;
        if cols.saturating_mul(rows) > max_cells && prec > 1 {
            prec -= 1;
            continue;
        }
        let mut cells = Vec::new();
        let mut lat = bbox.min_lat;
        // Step through the box one cell at a time from its south-west
        // corner, one step past the north and east edges, so that every
        // cell the box touches gets a sample point (deduplicated below).
        while lat <= bbox.max_lat + cell.height() {
            let mut lon = bbox.min_lon;
            while lon <= bbox.max_lon + cell.width() {
                let p = Point::new_unchecked(lon.clamp(-180.0, 180.0), lat.clamp(-90.0, 90.0));
                cells.push(encode(p, prec)?);
                lon += cell.width();
            }
            lat += cell.height();
        }
        cells.sort();
        cells.dedup();
        return Ok(cells);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lon: f64, lat: f64) -> Point {
        Point::new(lon, lat).unwrap()
    }

    #[test]
    fn known_geohash_values() {
        // Reference values from the original geohash.org implementation.
        assert_eq!(encode(p(-5.6, 42.6), 5).unwrap(), "ezs42");
        assert_eq!(encode(p(13.361389, 38.115556), 7).unwrap(), "sqc8b49");
        assert_eq!(encode(p(-0.08, 51.51), 4).unwrap(), "gcpv");
    }

    #[test]
    fn encode_rejects_bad_precision() {
        assert!(encode(p(0.0, 0.0), 0).is_err());
        assert!(encode(p(0.0, 0.0), 13).is_err());
        assert!(encode(p(0.0, 0.0), 12).is_ok());
    }

    #[test]
    fn decode_rejects_bad_input() {
        assert_eq!(decode(""), Err(GeohashError::Empty));
        assert!(matches!(decode("ez!42"), Err(GeohashError::InvalidCharacter('!'))));
        // 'a', 'i', 'l', 'o' are not in the geohash alphabet.
        assert!(decode("a").is_err());
        assert!(decode("i").is_err());
    }

    #[test]
    fn decode_is_case_insensitive() {
        assert_eq!(decode_bbox("EZS42").unwrap(), decode_bbox("ezs42").unwrap());
    }

    #[test]
    fn roundtrip_point_stays_in_cell() {
        for &(lon, lat) in &[
            (13.4, 52.5),
            (-9.14, 38.72),
            (24.94, 60.17),
            (0.0, 0.0),
            (-179.9, -89.9),
            (179.9, 89.9),
        ] {
            let point = p(lon, lat);
            for prec in 1..=9 {
                let h = encode(point, prec).unwrap();
                let bb = decode_bbox(&h).unwrap();
                assert!(bb.contains(point), "point {point} not in cell {h} ({bb})");
            }
        }
    }

    #[test]
    fn longer_prefix_means_smaller_cell_and_prefix_nesting() {
        let point = p(13.4, 52.5);
        let h8 = encode(point, 8).unwrap();
        let h4 = encode(point, 4).unwrap();
        assert!(h8.starts_with(&h4));
        let b8 = decode_bbox(&h8).unwrap();
        let b4 = decode_bbox(&h4).unwrap();
        assert!(b4.contains_bbox(&b8));
        assert!(b4.area_deg2() > b8.area_deg2());
    }

    #[test]
    fn neighbors_are_adjacent_and_distinct() {
        let h = encode(p(13.4, 52.5), 5).unwrap();
        let ns = neighbors(&h).unwrap();
        assert_eq!(ns.len(), 8);
        let home = decode_bbox(&h).unwrap();
        for n in &ns {
            assert_ne!(n, &h);
            let nb = decode_bbox(n).unwrap();
            // Adjacent cells must touch or overlap the slightly expanded home cell.
            let margin = home.width().max(home.height());
            assert!(home.expand(margin).intersects(&nb));
        }
    }

    #[test]
    fn neighbors_at_pole_are_fewer() {
        let h = encode(p(0.0, 89.99), 3).unwrap();
        let ns = neighbors(&h).unwrap();
        assert!(ns.len() < 8, "expected clipped neighbour set at the pole, got {}", ns.len());
    }

    #[test]
    fn cover_bbox_covers_sample_points() {
        let bbox = BBox::new(12.0, 51.0, 14.0, 53.0).unwrap();
        let cover = cover_bbox(&bbox, 4, 256).unwrap();
        assert!(!cover.is_empty());
        // Every sampled point inside the bbox must be covered by some prefix.
        for i in 0..10 {
            for j in 0..10 {
                let point =
                    p(12.0 + 2.0 * (i as f64 + 0.5) / 10.0, 51.0 + 2.0 * (j as f64 + 0.5) / 10.0);
                let h = encode(point, 4).unwrap();
                assert!(
                    cover.iter().any(|c| h.starts_with(c.as_str())),
                    "point {point} (hash {h}) not covered by {cover:?}"
                );
            }
        }
    }

    #[test]
    fn cover_of_a_many_cell_box_is_the_sorted_set_of_its_cells() {
        // ~30 x 30 cells at precision 5, polar clamping included.
        let bbox = BBox::new(10.0, 88.9, 11.3, 90.0).unwrap();
        let cover = cover_bbox(&bbox, 5, 4096).unwrap();
        assert!(cover.len() > 500, "only {} cells", cover.len());
        assert!(cover.windows(2).all(|w| w[0] < w[1]), "not sorted and duplicate-free");

        let cell = decode_bbox(&encode(bbox.center(), 5).unwrap()).unwrap();
        let mut expected = std::collections::BTreeSet::new();
        let mut samples = 0;
        let mut lat = bbox.min_lat;
        while lat <= bbox.max_lat + cell.height() {
            let mut lon = bbox.min_lon;
            while lon <= bbox.max_lon + cell.width() {
                let point = Point::new_unchecked(lon.clamp(-180.0, 180.0), lat.clamp(-90.0, 90.0));
                expected.insert(encode(point, 5).unwrap());
                samples += 1;
                lon += cell.width();
            }
            lat += cell.height();
        }
        assert!(expected.len() < samples, "the rows clamped to the pole must repeat cells");
        assert_eq!(cover, expected.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn cover_bbox_respects_max_cells_by_coarsening() {
        let bbox = BBox::new(-10.0, 35.0, 30.0, 65.0).unwrap(); // most of Europe
        let cover = cover_bbox(&bbox, 6, 64).unwrap();
        assert!(cover.len() <= 64, "cover has {} cells", cover.len());
    }

    #[test]
    fn cover_bbox_rejects_bad_precision() {
        let bbox = BBox::new(0.0, 0.0, 1.0, 1.0).unwrap();
        assert!(cover_bbox(&bbox, 0, 10).is_err());
        assert!(cover_bbox(&bbox, 99, 10).is_err());
    }
}
