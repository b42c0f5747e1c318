//! Geospatial substrate for the EarthQube / AgoraEO reproduction.
//!
//! This crate provides the geospatial primitives that the rest of the
//! workspace relies on:
//!
//! * [`Point`] — a WGS-84 longitude/latitude coordinate,
//! * [`BBox`] — an axis-aligned bounding rectangle,
//! * [`Circle`] and [`Polygon`] — the additional query shapes supported by
//!   the EarthQube query panel (§3.1 of the paper),
//! * [`GeoShape`] — the union of the three query shapes,
//! * [`geohash`] — a base-32 geohash codec used by the document store's
//!   2-D index, mirroring MongoDB's built-in geohashing index (§3.2),
//! * [`haversine_km`] — great-circle distance.
//!
//! All angles are degrees; longitudes are in `[-180, 180]`, latitudes in
//! `[-90, 90]`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bbox;
pub mod distance;
pub mod geohash;
pub mod point;
pub mod shape;

pub use bbox::{BBox, SplitBBox};
pub use distance::{haversine_km, EARTH_RADIUS_KM};
pub use geohash::{decode, decode_bbox, encode, neighbors, GeohashError};
pub use point::Point;
pub use shape::{Circle, GeoShape, Polygon};

/// Errors produced by geospatial constructors and predicates.
#[derive(Debug, Clone, PartialEq)]
pub enum GeoError {
    /// A longitude was outside `[-180, 180]` or a latitude outside `[-90, 90]`.
    OutOfRange {
        /// Human readable description of the offending value.
        what: String,
    },
    /// A polygon had fewer than three distinct vertices.
    DegeneratePolygon,
    /// A circle radius was not strictly positive and finite.
    InvalidRadius(f64),
    /// A bounding box had min > max on some axis.
    InvertedBBox,
}

impl std::fmt::Display for GeoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeoError::OutOfRange { what } => write!(f, "coordinate out of range: {what}"),
            GeoError::DegeneratePolygon => write!(f, "polygon needs at least 3 vertices"),
            GeoError::InvalidRadius(r) => write!(f, "invalid circle radius: {r}"),
            GeoError::InvertedBBox => write!(f, "bounding box has min > max"),
        }
    }
}

impl std::error::Error for GeoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = GeoError::OutOfRange { what: "lat=95".into() };
        assert!(e.to_string().contains("lat=95"));
        assert!(GeoError::DegeneratePolygon.to_string().contains("3 vertices"));
        assert!(GeoError::InvalidRadius(-1.0).to_string().contains("-1"));
        assert!(GeoError::InvertedBBox.to_string().contains("min > max"));
    }
}
