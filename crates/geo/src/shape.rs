//! Query shapes supported by the EarthQube query panel: rectangle, circle
//! and free-form polygon (§3.1 of the paper).

use std::f64::consts::FRAC_PI_2;
use std::hash::{Hash, Hasher};

use crate::bbox::SplitBBox;
use crate::{distance, BBox, GeoError, Point};

/// Relative slack on a circle's angular radius: far above the rounding
/// error of the bound and of `haversine_km` (~1e-15), far below any
/// distance that matters (1e-9 of 2 000 km is 2 mm).
const OUTWARD: f64 = 1e-9;

/// A circle defined by a centre and a radius in kilometres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Circle centre.
    pub center: Point,
    /// Radius in kilometres; strictly positive.
    pub radius_km: f64,
}

impl Circle {
    /// Creates a circle, validating the radius.
    pub fn new(center: Point, radius_km: f64) -> Result<Self, GeoError> {
        if !(radius_km.is_finite() && radius_km > 0.0) {
            return Err(GeoError::InvalidRadius(radius_km));
        }
        Ok(Self { center, radius_km })
    }

    /// Whether the point lies within the circle (great-circle distance).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        distance::haversine_km(self.center, p) <= self.radius_km
    }

    /// A bounding region that contains every point [`contains`](Self::contains)
    /// accepts; used for index pre-filtering.
    ///
    /// The circle is a spherical cap of angular radius δ = r / R on the
    /// sphere [`haversine_km`](distance::haversine_km) measures on, so its
    /// exact extent is latitude φ ± δ and longitude λ ± asin(sin δ / cos φ)
    /// (<http://janmatuschek.de/LatitudeLongitudeBoundingCoordinates>).  δ
    /// is rounded outward first, so float error can only widen the box.  A
    /// cap that reaches a pole spans every longitude, and one across the
    /// antimeridian wraps into two boxes (see [`SplitBBox`]).
    pub fn bounding_box(&self) -> SplitBBox {
        let delta = self.radius_km / distance::EARTH_RADIUS_KM * (1.0 + OUTWARD);
        let lat = self.center.lat.to_radians();
        let (south, north) = (lat - delta, lat + delta);
        if south <= -FRAC_PI_2 || north >= FRAC_PI_2 {
            let (min_lat, max_lat) = (south.to_degrees().max(-90.0), north.to_degrees().min(90.0));
            return SplitBBox::One(BBox { min_lon: -180.0, min_lat, max_lon: 180.0, max_lat });
        }
        let half_lon = (delta.sin() / lat.cos()).asin().to_degrees();
        SplitBBox::from_lon_span(
            self.center.lon - half_lon,
            self.center.lon + half_lon,
            south.to_degrees(),
            north.to_degrees(),
        )
    }
}

/// A simple (non self-intersecting) polygon in WGS-84 degree space.
///
/// The vertex ring does not need to be explicitly closed: the last vertex is
/// implicitly connected back to the first.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from at least three vertices.
    pub fn new(mut vertices: Vec<Point>) -> Result<Self, GeoError> {
        // Drop an explicit closing vertex if present.
        if vertices.len() >= 2 && vertices.first() == vertices.last() {
            vertices.pop();
        }
        if vertices.len() < 3 {
            return Err(GeoError::DegeneratePolygon);
        }
        Ok(Self { vertices })
    }

    /// The polygon's vertices (without a duplicated closing vertex).
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Ray-casting point-in-polygon test (even-odd rule).
    ///
    /// Points exactly on an edge may be classified either way; this matches
    /// the behaviour of typical GIS engines for degree-space polygons and is
    /// irrelevant at the 10 m resolution of the archive.
    pub fn contains(&self, p: Point) -> bool {
        let mut inside = false;
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            let vi = self.vertices[i];
            let vj = self.vertices[j];
            let intersects = ((vi.lat > p.lat) != (vj.lat > p.lat))
                && (p.lon < (vj.lon - vi.lon) * (p.lat - vi.lat) / (vj.lat - vi.lat) + vi.lon);
            if intersects {
                inside = !inside;
            }
            j = i;
        }
        inside
    }

    /// The axis-aligned bounding box of the polygon.
    pub fn bounding_box(&self) -> BBox {
        let mut min_lon = f64::INFINITY;
        let mut min_lat = f64::INFINITY;
        let mut max_lon = f64::NEG_INFINITY;
        let mut max_lat = f64::NEG_INFINITY;
        for v in &self.vertices {
            min_lon = min_lon.min(v.lon);
            min_lat = min_lat.min(v.lat);
            max_lon = max_lon.max(v.lon);
            max_lat = max_lat.max(v.lat);
        }
        BBox { min_lon, min_lat, max_lon, max_lat }
    }

    /// Signed area in square degrees (positive for counter-clockwise rings).
    pub fn signed_area_deg2(&self) -> f64 {
        let n = self.vertices.len();
        let mut acc = 0.0;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            acc += a.lon * b.lat - b.lon * a.lat;
        }
        acc / 2.0
    }
}

/// The union of the query shapes a user can draw or type in the EarthQube
/// query panel: rectangle, circle, or arbitrary polygon.
#[derive(Debug, Clone, PartialEq)]
pub enum GeoShape {
    /// An axis-aligned rectangle.
    Rect(BBox),
    /// A circle with a radius in kilometres.
    Circle(Circle),
    /// A free-form polygon.
    Polygon(Polygon),
}

/// A structural hash for cache keys: equal shapes hash equal.  Floats
/// cannot derive it, so every coordinate is hashed by bit pattern with
/// `-0.0` folded into `0.0`, the one pair of distinct patterns `==` calls
/// equal (`NaN` equals nothing, so it may hash anywhere).
impl Hash for GeoShape {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let coordinate = |value: f64, state: &mut H| {
            (if value == 0.0 { 0.0 } else { value }).to_bits().hash(state);
        };
        let point = |p: Point, state: &mut H| {
            coordinate(p.lon, state);
            coordinate(p.lat, state);
        };
        match self {
            GeoShape::Rect(b) => {
                1u8.hash(state);
                for value in [b.min_lon, b.min_lat, b.max_lon, b.max_lat] {
                    coordinate(value, state);
                }
            }
            GeoShape::Circle(c) => {
                2u8.hash(state);
                point(c.center, state);
                coordinate(c.radius_km, state);
            }
            GeoShape::Polygon(polygon) => {
                3u8.hash(state);
                polygon.vertices.len().hash(state);
                for &vertex in &polygon.vertices {
                    point(vertex, state);
                }
            }
        }
    }
}

impl GeoShape {
    /// Whether the shape contains the given point.
    pub fn contains(&self, p: Point) -> bool {
        match self {
            GeoShape::Rect(b) => b.contains(p),
            GeoShape::Circle(c) => c.contains(p),
            GeoShape::Polygon(poly) => poly.contains(p),
        }
    }

    /// A bounding region enclosing the shape, used by indexes for
    /// pre-filtering.  Rectangles and polygons are built from in-range
    /// coordinates and never wrap; a circle near the antimeridian yields
    /// two boxes (see [`SplitBBox`]).
    pub fn bounding_box(&self) -> SplitBBox {
        match self {
            GeoShape::Rect(b) => SplitBBox::One(*b),
            GeoShape::Circle(c) => c.bounding_box(),
            GeoShape::Polygon(poly) => SplitBBox::One(poly.bounding_box()),
        }
    }

    /// Whether the shape (conservatively, via its exact geometry for rects
    /// and via bounding boxes for circles/polygons) intersects the given box.
    pub fn intersects_bbox(&self, bbox: &BBox) -> bool {
        match self {
            GeoShape::Rect(b) => b.intersects(bbox),
            _ => {
                let cover = self.bounding_box();
                if !cover.intersects(bbox) {
                    return false;
                }
                // Exact-ish test: any corner or the centre of the candidate
                // box inside the shape, or the centre of a covering piece
                // inside the candidate box.
                let corners = [
                    Point::new_unchecked(bbox.min_lon, bbox.min_lat),
                    Point::new_unchecked(bbox.min_lon, bbox.max_lat),
                    Point::new_unchecked(bbox.max_lon, bbox.min_lat),
                    Point::new_unchecked(bbox.max_lon, bbox.max_lat),
                    bbox.center(),
                ];
                corners.iter().any(|c| self.contains(*c))
                    || cover.boxes().iter().any(|piece| bbox.contains(piece.center()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lon: f64, lat: f64) -> Point {
        Point::new(lon, lat).unwrap()
    }

    #[test]
    fn circle_rejects_bad_radius() {
        assert!(Circle::new(p(0.0, 0.0), 0.0).is_err());
        assert!(Circle::new(p(0.0, 0.0), -5.0).is_err());
        assert!(Circle::new(p(0.0, 0.0), f64::NAN).is_err());
        assert!(Circle::new(p(0.0, 0.0), 10.0).is_ok());
    }

    #[test]
    fn circle_contains_center_and_excludes_far_points() {
        let c = Circle::new(p(13.0, 52.0), 50.0).unwrap();
        assert!(c.contains(p(13.0, 52.0)));
        assert!(c.contains(p(13.2, 52.1)));
        assert!(!c.contains(p(20.0, 60.0)));
    }

    #[test]
    fn circle_bounding_box_encloses_circle_boundary() {
        let c = Circle::new(p(13.0, 52.0), 10.0).unwrap();
        let bb = c.bounding_box();
        // Points just inside 10 km due north and east must be inside the box.
        let degrees = (10.0 / distance::EARTH_RADIUS_KM).to_degrees() * 0.999;
        let north = p(13.0, 52.0 + degrees);
        let east = p(13.0 + degrees / 52f64.to_radians().cos(), 52.0);
        for point in [north, east] {
            assert!(c.contains(point), "{point}");
            assert!(bb.contains(point), "{point}");
        }
        // The generator's footprint convention is a narrower box.
        let square = BBox::square_around(c.center, 20.0);
        let rim = p(
            13.0 + (10.0 / distance::EARTH_RADIUS_KM).to_degrees() / 52f64.to_radians().cos()
                * 0.9999,
            52.0,
        );
        assert!(c.contains(rim) && bb.contains(rim) && !square.contains(rim));
    }

    #[test]
    fn circle_on_the_antimeridian_covers_both_sides() {
        // A 50 km circle centred right on the date line: its bounding
        // region must include points on both sides of ±180°.
        let c = Circle::new(p(179.99, 10.0), 50.0).unwrap();
        let cover = c.bounding_box();
        assert!(cover.is_split());
        assert!(cover.contains(p(179.8, 10.0)));
        assert!(cover.contains(p(-179.8, 10.0)), "eastern side of the date line lost");
        let shape = GeoShape::Circle(c);
        assert!(shape.intersects_bbox(&BBox::new(-180.0, 9.0, -179.0, 11.0).unwrap()));
        assert!(shape.intersects_bbox(&BBox::new(179.0, 9.0, 180.0, 11.0).unwrap()));
        assert!(!shape.intersects_bbox(&BBox::new(0.0, 9.0, 1.0, 11.0).unwrap()));
    }

    #[test]
    fn polygon_needs_three_vertices() {
        assert!(Polygon::new(vec![p(0.0, 0.0), p(1.0, 1.0)]).is_err());
        assert!(Polygon::new(vec![p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)]).is_ok());
    }

    #[test]
    fn polygon_drops_explicit_closing_vertex() {
        let poly =
            Polygon::new(vec![p(0.0, 0.0), p(2.0, 0.0), p(2.0, 2.0), p(0.0, 2.0), p(0.0, 0.0)])
                .unwrap();
        assert_eq!(poly.vertices().len(), 4);
    }

    #[test]
    fn square_polygon_point_in_polygon() {
        let poly = Polygon::new(vec![p(0.0, 0.0), p(4.0, 0.0), p(4.0, 4.0), p(0.0, 4.0)]).unwrap();
        assert!(poly.contains(p(2.0, 2.0)));
        assert!(!poly.contains(p(5.0, 2.0)));
        assert!(!poly.contains(p(2.0, -1.0)));
    }

    #[test]
    fn concave_polygon_point_in_polygon() {
        // An L-shaped polygon.
        let poly = Polygon::new(vec![
            p(0.0, 0.0),
            p(4.0, 0.0),
            p(4.0, 2.0),
            p(2.0, 2.0),
            p(2.0, 4.0),
            p(0.0, 4.0),
        ])
        .unwrap();
        assert!(poly.contains(p(1.0, 3.0)));
        assert!(poly.contains(p(3.0, 1.0)));
        assert!(!poly.contains(p(3.0, 3.0))); // inside the notch
    }

    #[test]
    fn polygon_bbox_and_area() {
        let poly = Polygon::new(vec![p(0.0, 0.0), p(4.0, 0.0), p(4.0, 4.0), p(0.0, 4.0)]).unwrap();
        let bb = poly.bounding_box();
        assert_eq!((bb.min_lon, bb.min_lat, bb.max_lon, bb.max_lat), (0.0, 0.0, 4.0, 4.0));
        assert!((poly.signed_area_deg2() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn geoshape_dispatches_contains() {
        let rect = GeoShape::Rect(BBox::new(0.0, 0.0, 2.0, 2.0).unwrap());
        let circ = GeoShape::Circle(Circle::new(p(10.0, 10.0), 100.0).unwrap());
        let poly = GeoShape::Polygon(
            Polygon::new(vec![p(20.0, 20.0), p(22.0, 20.0), p(21.0, 22.0)]).unwrap(),
        );
        assert!(rect.contains(p(1.0, 1.0)));
        assert!(!rect.contains(p(3.0, 1.0)));
        assert!(circ.contains(p(10.1, 10.1)));
        assert!(poly.contains(p(21.0, 20.5)));
        assert!(!poly.contains(p(25.0, 25.0)));
    }

    #[test]
    fn geoshape_intersects_bbox() {
        let rect = GeoShape::Rect(BBox::new(0.0, 0.0, 2.0, 2.0).unwrap());
        let hit = BBox::new(1.0, 1.0, 3.0, 3.0).unwrap();
        let miss = BBox::new(5.0, 5.0, 6.0, 6.0).unwrap();
        assert!(rect.intersects_bbox(&hit));
        assert!(!rect.intersects_bbox(&miss));

        let circ = GeoShape::Circle(Circle::new(p(10.0, 10.0), 50.0).unwrap());
        let near = BBox::new(9.9, 9.9, 10.1, 10.1).unwrap();
        let far = BBox::new(40.0, 40.0, 41.0, 41.0).unwrap();
        assert!(circ.intersects_bbox(&near));
        assert!(!circ.intersects_bbox(&far));
    }
}
