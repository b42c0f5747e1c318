//! Axis-aligned bounding boxes.

use crate::{GeoError, Point};

/// An axis-aligned WGS-84 bounding rectangle.
///
/// BigEarthNet metadata stores the bounding rectangle of every image patch
/// (the `location` attribute in the paper's metadata collection, §3.2), and
/// EarthQube's query panel lets users draw rectangles on the map (§3.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    /// Western edge (minimum longitude).
    pub min_lon: f64,
    /// Southern edge (minimum latitude).
    pub min_lat: f64,
    /// Eastern edge (maximum longitude).
    pub max_lon: f64,
    /// Northern edge (maximum latitude).
    pub max_lat: f64,
}

impl BBox {
    /// Creates a bounding box, validating coordinate ranges and ordering.
    pub fn new(min_lon: f64, min_lat: f64, max_lon: f64, max_lat: f64) -> Result<Self, GeoError> {
        Point::new(min_lon, min_lat)?;
        Point::new(max_lon, max_lat)?;
        if min_lon > max_lon || min_lat > max_lat {
            return Err(GeoError::InvertedBBox);
        }
        Ok(Self { min_lon, min_lat, max_lon, max_lat })
    }

    /// Creates a bounding box from two opposite corner points (in any order).
    pub fn from_corners(a: Point, b: Point) -> Self {
        Self {
            min_lon: a.lon.min(b.lon),
            min_lat: a.lat.min(b.lat),
            max_lon: a.lon.max(b.lon),
            max_lat: a.lat.max(b.lat),
        }
    }

    /// Creates a square box of `side_km` kilometres centred at `center`.
    ///
    /// This is how synthetic BigEarthNet patch footprints are derived: a
    /// 120 × 120 px patch at 10 m resolution covers 1.2 × 1.2 km.  It is the
    /// generator's footprint convention (the ellipsoidal kilometres per
    /// degree of [`km_to_lat_degrees`](crate::distance::km_to_lat_degrees)
    /// and [`km_to_lon_degrees`](crate::distance::km_to_lon_degrees)), not a
    /// bound on a query shape: a circle's box is
    /// [`Circle::bounding_box`](crate::Circle::bounding_box).
    ///
    /// A box whose longitude span crosses the antimeridian **wraps** into
    /// two disjoint boxes (see [`SplitBBox`]) instead of being clamped to
    /// `[-180, 180]` — clamping silently dropped the far side of the query
    /// region.  Latitude is still clamped at the poles: there is nothing
    /// beyond ±90°, so a polar clamp never loses area.
    pub fn square_around(center: Point, side_km: f64) -> SplitBBox {
        let half_lat = crate::distance::km_to_lat_degrees(side_km / 2.0);
        let half_lon = crate::distance::km_to_lon_degrees(side_km / 2.0, center.lat);
        SplitBBox::from_lon_span(
            center.lon - half_lon,
            center.lon + half_lon,
            (center.lat - half_lat).max(-90.0),
            (center.lat + half_lat).min(90.0),
        )
    }

    /// The centre of the box.
    pub fn center(&self) -> Point {
        Point::new_unchecked(
            (self.min_lon + self.max_lon) / 2.0,
            (self.min_lat + self.max_lat) / 2.0,
        )
    }

    /// Width in degrees of longitude.
    pub fn width(&self) -> f64 {
        self.max_lon - self.min_lon
    }

    /// Height in degrees of latitude.
    pub fn height(&self) -> f64 {
        self.max_lat - self.min_lat
    }

    /// Whether `p` lies inside or on the edge of the box.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.lon >= self.min_lon
            && p.lon <= self.max_lon
            && p.lat >= self.min_lat
            && p.lat <= self.max_lat
    }

    /// Whether `other` is fully contained in `self` (edges included).
    pub fn contains_bbox(&self, other: &BBox) -> bool {
        other.min_lon >= self.min_lon
            && other.max_lon <= self.max_lon
            && other.min_lat >= self.min_lat
            && other.max_lat <= self.max_lat
    }

    /// Whether the two boxes share any point.
    #[inline]
    pub fn intersects(&self, other: &BBox) -> bool {
        self.min_lon <= other.max_lon
            && self.max_lon >= other.min_lon
            && self.min_lat <= other.max_lat
            && self.max_lat >= other.min_lat
    }

    /// The smallest box containing both boxes.
    pub fn union(&self, other: &BBox) -> BBox {
        BBox {
            min_lon: self.min_lon.min(other.min_lon),
            min_lat: self.min_lat.min(other.min_lat),
            max_lon: self.max_lon.max(other.max_lon),
            max_lat: self.max_lat.max(other.max_lat),
        }
    }

    /// The intersection of two boxes, or `None` if they do not overlap.
    pub fn intersection(&self, other: &BBox) -> Option<BBox> {
        if !self.intersects(other) {
            return None;
        }
        Some(BBox {
            min_lon: self.min_lon.max(other.min_lon),
            min_lat: self.min_lat.max(other.min_lat),
            max_lon: self.max_lon.min(other.max_lon),
            max_lat: self.max_lat.min(other.max_lat),
        })
    }

    /// Grows the box by `margin_deg` degrees (non-negative) on every side.
    ///
    /// Latitude is clamped at the poles; a longitude span that crosses the
    /// antimeridian **wraps** into two boxes (see [`SplitBBox`]) rather
    /// than being clamped, so no part of the grown region is lost.
    pub fn expand(&self, margin_deg: f64) -> SplitBBox {
        SplitBBox::from_lon_span(
            self.min_lon - margin_deg,
            self.max_lon + margin_deg,
            (self.min_lat - margin_deg).max(-90.0),
            (self.max_lat + margin_deg).min(90.0),
        )
    }

    /// Area of the box in square degrees (used only for selectivity estimates).
    pub fn area_deg2(&self) -> f64 {
        self.width() * self.height()
    }
}

/// A bounding region that may cross the antimeridian: either a single box
/// or — when a constructor's longitude span runs past ±180° — two disjoint
/// boxes, one ending at +180° and one starting at −180°.
///
/// This is the *wrap* resolution of the antimeridian problem: constructors
/// like [`BBox::square_around`] and [`BBox::expand`] used to clamp the
/// longitude span into `[-180, 180]`, which silently dropped the far side
/// of a query region near the date line.  Wrapping keeps both sides; index
/// code scans each piece and callers test containment against the union.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitBBox {
    /// The region fits within `[-180, 180]` as one box.
    One(BBox),
    /// The region crosses the antimeridian.  Pieces are ordered by
    /// longitude: `[0]` starts at −180° and `[1]` ends at +180°.  The
    /// pieces share their latitude band and are disjoint in longitude.
    Two([BBox; 2]),
}

impl SplitBBox {
    /// Normalises a raw (possibly out-of-range) longitude span into a
    /// wrapped region.  Latitudes must already be clamped to `[-90, 90]`.
    pub(crate) fn from_lon_span(min_lon: f64, max_lon: f64, min_lat: f64, max_lat: f64) -> Self {
        let full = BBox { min_lon: -180.0, min_lat, max_lon: 180.0, max_lat };
        let span = max_lon - min_lon;
        // A span covering the whole circle (including the degenerate
        // infinite span produced at the poles, where one degree of
        // longitude is zero kilometres) collapses to the full lon range.
        if !span.is_finite() || span >= 360.0 {
            return SplitBBox::One(full);
        }
        if min_lon < -180.0 {
            // Wraps westwards: [min_lon + 360, 180] ∪ [-180, max_lon].
            SplitBBox::Two([
                BBox { min_lon: -180.0, min_lat, max_lon, max_lat },
                BBox { min_lon: min_lon + 360.0, min_lat, max_lon: 180.0, max_lat },
            ])
        } else if max_lon > 180.0 {
            // Wraps eastwards: [min_lon, 180] ∪ [-180, max_lon - 360].
            SplitBBox::Two([
                BBox { min_lon: -180.0, min_lat, max_lon: max_lon - 360.0, max_lat },
                BBox { min_lon, min_lat, max_lon: 180.0, max_lat },
            ])
        } else {
            SplitBBox::One(BBox { min_lon, min_lat, max_lon, max_lat })
        }
    }

    /// The boxes making up the region: one box, or two (ordered by
    /// longitude) when the region crosses the antimeridian.
    pub fn boxes(&self) -> &[BBox] {
        match self {
            SplitBBox::One(b) => std::slice::from_ref(b),
            SplitBBox::Two(pair) => pair,
        }
    }

    /// The single box, if the region does not cross the antimeridian.
    pub fn single(&self) -> Option<&BBox> {
        match self {
            SplitBBox::One(b) => Some(b),
            SplitBBox::Two(_) => None,
        }
    }

    /// Whether the region crosses the antimeridian.
    pub fn is_split(&self) -> bool {
        matches!(self, SplitBBox::Two(_))
    }

    /// Whether any piece of the region contains the point.
    pub fn contains(&self, p: Point) -> bool {
        self.boxes().iter().any(|b| b.contains(p))
    }

    /// Whether any piece of the region intersects the box.
    pub fn intersects(&self, other: &BBox) -> bool {
        self.boxes().iter().any(|b| b.intersects(other))
    }

    /// Grows every piece by `margin_deg` degrees (non-negative).
    ///
    /// A single box may wrap into two; the pieces of an already-split
    /// region stay clamped at the antimeridian (the other side is covered
    /// by the sibling piece, which grows symmetrically).
    pub fn expand(&self, margin_deg: f64) -> SplitBBox {
        match self {
            SplitBBox::One(b) => b.expand(margin_deg),
            SplitBBox::Two([lo, hi]) => SplitBBox::Two([
                BBox {
                    min_lon: -180.0,
                    min_lat: (lo.min_lat - margin_deg).max(-90.0),
                    max_lon: (lo.max_lon + margin_deg).min(180.0),
                    max_lat: (lo.max_lat + margin_deg).min(90.0),
                },
                BBox {
                    min_lon: (hi.min_lon - margin_deg).max(-180.0),
                    min_lat: (hi.min_lat - margin_deg).max(-90.0),
                    max_lon: 180.0,
                    max_lat: (hi.max_lat + margin_deg).min(90.0),
                },
            ]),
        }
    }
}

impl From<BBox> for SplitBBox {
    fn from(b: BBox) -> Self {
        SplitBBox::One(b)
    }
}

impl std::fmt::Display for SplitBBox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SplitBBox::One(b) => write!(f, "{b}"),
            SplitBBox::Two([lo, hi]) => write!(f, "{hi} ∪ {lo}"),
        }
    }
}

impl std::fmt::Display for BBox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:.4},{:.4} .. {:.4},{:.4}]",
            self.min_lon, self.min_lat, self.max_lon, self.max_lat
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(a: f64, b_: f64, c: f64, d: f64) -> BBox {
        BBox::new(a, b_, c, d).unwrap()
    }

    #[test]
    fn new_rejects_inverted_boxes() {
        assert_eq!(BBox::new(10.0, 0.0, 5.0, 1.0), Err(GeoError::InvertedBBox));
        assert_eq!(BBox::new(0.0, 10.0, 1.0, 5.0), Err(GeoError::InvertedBBox));
    }

    #[test]
    fn new_rejects_out_of_range() {
        assert!(BBox::new(-200.0, 0.0, 0.0, 1.0).is_err());
        assert!(BBox::new(0.0, 0.0, 0.0, 100.0).is_err());
    }

    #[test]
    fn from_corners_normalizes_order() {
        let p1 = Point::new(10.0, 50.0).unwrap();
        let p2 = Point::new(5.0, 55.0).unwrap();
        let bb = BBox::from_corners(p1, p2);
        assert_eq!(bb, b(5.0, 50.0, 10.0, 55.0));
    }

    #[test]
    fn contains_point_edges_inclusive() {
        let bb = b(0.0, 0.0, 10.0, 10.0);
        assert!(bb.contains(Point::new_unchecked(0.0, 0.0)));
        assert!(bb.contains(Point::new_unchecked(10.0, 10.0)));
        assert!(bb.contains(Point::new_unchecked(5.0, 5.0)));
        assert!(!bb.contains(Point::new_unchecked(10.1, 5.0)));
        assert!(!bb.contains(Point::new_unchecked(5.0, -0.1)));
    }

    #[test]
    fn intersects_and_intersection_agree() {
        let a = b(0.0, 0.0, 10.0, 10.0);
        let c = b(5.0, 5.0, 15.0, 15.0);
        let d = b(11.0, 11.0, 12.0, 12.0);
        assert!(a.intersects(&c));
        assert_eq!(a.intersection(&c), Some(b(5.0, 5.0, 10.0, 10.0)));
        assert!(!a.intersects(&d));
        assert_eq!(a.intersection(&d), None);
    }

    #[test]
    fn touching_boxes_intersect() {
        let a = b(0.0, 0.0, 5.0, 5.0);
        let c = b(5.0, 0.0, 10.0, 5.0);
        assert!(a.intersects(&c));
        let i = a.intersection(&c).unwrap();
        assert_eq!(i.width(), 0.0);
    }

    #[test]
    fn union_contains_both() {
        let a = b(0.0, 0.0, 5.0, 5.0);
        let c = b(7.0, 7.0, 9.0, 9.0);
        let u = a.union(&c);
        assert!(u.contains_bbox(&a));
        assert!(u.contains_bbox(&c));
    }

    #[test]
    fn square_around_has_roughly_requested_size() {
        let center = Point::new(13.0, 52.0).unwrap();
        let split = BBox::square_around(center, 1.2);
        let bb = *split.single().expect("far from the antimeridian");
        // Height should be ~1.2 km in latitude degrees.
        let h_km = bb.height() * 110.574;
        assert!((h_km - 1.2).abs() < 0.01, "height_km={h_km}");
        assert!(bb.contains(center));
        let c = bb.center();
        assert!((c.lon - 13.0).abs() < 1e-9 && (c.lat - 52.0).abs() < 1e-9);
    }

    #[test]
    fn square_around_wraps_at_the_antimeridian() {
        // A 100 km box centred 10 km west of the antimeridian must keep its
        // far side: points just east of −180° used to be silently dropped
        // by the old clamping behaviour.
        let center = Point::new(179.9, 0.0).unwrap();
        let split = BBox::square_around(center, 100.0);
        assert!(split.is_split());
        assert!(split.contains(Point::new_unchecked(179.95, 0.0)));
        assert!(split.contains(Point::new_unchecked(-179.8, 0.0)), "far side lost");
        assert!(!split.contains(Point::new_unchecked(178.0, 0.0)));
        // Pieces are ordered by longitude, disjoint, and meet at ±180°.
        let [lo, hi] = match split {
            SplitBBox::Two(pair) => pair,
            other => panic!("expected a split region, got {other:?}"),
        };
        assert_eq!(lo.min_lon, -180.0);
        assert_eq!(hi.max_lon, 180.0);
        assert!(lo.max_lon < hi.min_lon);
    }

    #[test]
    fn square_around_at_the_pole_covers_all_longitudes() {
        // At ±90° latitude one degree of longitude is zero km, so any box
        // spans the full longitude circle.
        let split = BBox::square_around(Point::new_unchecked(10.0, 90.0), 1.0);
        let bb = split.single().expect("full-circle span collapses to one box");
        assert_eq!((bb.min_lon, bb.max_lon), (-180.0, 180.0));
        assert_eq!(bb.max_lat, 90.0);
    }

    #[test]
    fn expand_grows_and_wraps() {
        // Latitude clamps at the pole; longitude wraps into two boxes.
        let a = b(178.0, 88.0, 179.5, 89.5);
        let e = a.expand(1.0);
        assert!(e.is_split());
        assert!(e.contains(Point::new_unchecked(-179.8, 88.5)), "wrapped side lost");
        assert!(e.contains(Point::new_unchecked(177.5, 89.0)));
        assert!(!e.contains(Point::new_unchecked(0.0, 89.0)));
        for piece in e.boxes() {
            assert!(piece.max_lat <= 90.0);
        }
        // A mid-ocean box stays a single box and simply grows.
        let m = b(-10.0, 10.0, 10.0, 20.0);
        let g = m.expand(1.0);
        let gb = g.single().expect("no wrap needed");
        assert_eq!((gb.min_lon, gb.max_lon), (-11.0, 11.0));
        assert!(gb.contains_bbox(&m));
        // A span reaching all the way around collapses to the full range.
        let w = b(-170.0, 0.0, 170.0, 1.0);
        let full = w.expand(15.0);
        let fb = full.single().expect("full circle is one box");
        assert_eq!((fb.min_lon, fb.max_lon), (-180.0, 180.0));
    }

    #[test]
    fn split_bbox_expand_keeps_covering_the_wrapped_region() {
        let split = BBox::square_around(Point::new_unchecked(179.9, 0.0), 100.0);
        let grown = split.expand(0.5);
        assert!(grown.is_split());
        // Every point of the original region stays covered.
        for piece in split.boxes() {
            assert!(grown.contains(piece.center()));
            assert!(grown.contains(Point::new_unchecked(piece.min_lon, piece.min_lat)));
            assert!(grown.contains(Point::new_unchecked(piece.max_lon, piece.max_lat)));
        }
        assert!(grown.intersects(&b(179.0, -1.0, 180.0, 1.0)));
        assert!(!grown.intersects(&b(0.0, 0.0, 1.0, 1.0)));
    }

    #[test]
    fn contains_bbox_is_reflexive_and_antisymmetric_for_strict_nesting() {
        let outer = b(0.0, 0.0, 10.0, 10.0);
        let inner = b(2.0, 2.0, 8.0, 8.0);
        assert!(outer.contains_bbox(&outer));
        assert!(outer.contains_bbox(&inner));
        assert!(!inner.contains_bbox(&outer));
    }

    #[test]
    fn area_is_width_times_height() {
        let a = b(0.0, 0.0, 2.0, 3.0);
        assert_eq!(a.area_deg2(), 6.0);
    }
}
