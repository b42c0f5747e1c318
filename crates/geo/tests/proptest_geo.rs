//! Property-based tests for the geospatial substrate.

use eq_geo::{decode_bbox, encode, geohash, haversine_km, BBox, Circle, GeoShape, Point, Polygon};
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (-180.0f64..180.0, -90.0f64..90.0).prop_map(|(lon, lat)| Point::new(lon, lat).unwrap())
}

fn arb_bbox() -> impl Strategy<Value = BBox> {
    (arb_point(), arb_point()).prop_map(|(a, b)| BBox::from_corners(a, b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn geohash_roundtrip_contains_point(p in arb_point(), prec in 1usize..=10) {
        let h = encode(p, prec).unwrap();
        prop_assert_eq!(h.len(), prec);
        let cell = decode_bbox(&h).unwrap();
        prop_assert!(cell.contains(p));
    }

    #[test]
    fn geohash_prefix_nesting(p in arb_point(), prec in 2usize..=10) {
        let long = encode(p, prec).unwrap();
        let short = encode(p, prec - 1).unwrap();
        prop_assert!(long.starts_with(&short));
        let long_cell = decode_bbox(&long).unwrap();
        let short_cell = decode_bbox(&short).unwrap();
        prop_assert!(short_cell.contains_bbox(&long_cell));
    }

    #[test]
    fn haversine_is_a_metric_sample(a in arb_point(), b in arb_point(), c in arb_point()) {
        let dab = haversine_km(a, b);
        let dba = haversine_km(b, a);
        prop_assert!((dab - dba).abs() < 1e-6);
        prop_assert!(dab >= 0.0);
        // Triangle inequality with a generous numerical slack.
        let dac = haversine_km(a, c);
        let dcb = haversine_km(c, b);
        prop_assert!(dab <= dac + dcb + 1e-6);
    }

    #[test]
    fn bbox_union_contains_both(a in arb_bbox(), b in arb_bbox()) {
        let u = a.union(&b);
        prop_assert!(u.contains_bbox(&a));
        prop_assert!(u.contains_bbox(&b));
    }

    #[test]
    fn bbox_intersection_is_contained_in_both(a in arb_bbox(), b in arb_bbox()) {
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_bbox(&i));
            prop_assert!(b.contains_bbox(&i));
            prop_assert!(a.intersects(&b));
        } else {
            prop_assert!(!a.intersects(&b));
        }
    }

    #[test]
    fn bbox_contains_center(b in arb_bbox()) {
        prop_assert!(b.contains(b.center()));
    }

    #[test]
    fn circle_contains_implies_bbox_contains(center in arb_point(), r in 1.0f64..500.0, p in arb_point()) {
        let c = Circle::new(center, r).unwrap();
        if c.contains(p) {
            // The bounding region wraps at the antimeridian, so no longitude
            // restriction is needed any more; only the polar regions are
            // skipped (lon degrees shrink towards the poles faster than the
            // centre-latitude approximation accounts for).
            prop_assume!(center.lat.abs() < 80.0);
            prop_assert!(c.bounding_box().expand(0.1).contains(p));
        }
    }

    #[test]
    fn polygon_contains_implies_bbox_contains(pts in proptest::collection::vec(arb_point(), 3..8), q in arb_point()) {
        if let Ok(poly) = Polygon::new(pts) {
            if poly.contains(q) {
                prop_assert!(poly.bounding_box().contains(q));
            }
        }
    }

    #[test]
    fn geoshape_rect_contains_matches_bbox(b in arb_bbox(), p in arb_point()) {
        let shape = GeoShape::Rect(b);
        prop_assert_eq!(shape.contains(p), b.contains(p));
    }
}

/// A circle centre: anywhere, within 10° of a pole, or within 10° of the
/// antimeridian.
fn arb_centre() -> impl Strategy<Value = Point> {
    (0u8..3, -180.0f64..180.0, -90.0f64..90.0, 0.0f64..10.0).prop_map(|(kind, lon, lat, off)| {
        let (lon, lat) = match kind {
            0 => (lon, lat),
            1 => (lon, (90.0 - off).copysign(lat)),
            _ => ((180.0 - off).copysign(lon), lat),
        };
        Point::new(lon, lat).unwrap()
    })
}

/// The point `fraction × radius` from `centre` along `bearing_deg`, on the
/// sphere `haversine_km` measures on, its longitude wrapped into range.
fn destination(centre: Point, radius_km: f64, bearing_deg: f64, fraction: f64) -> Point {
    let delta = radius_km * fraction / eq_geo::EARTH_RADIUS_KM;
    let (lat, bearing) = (centre.lat.to_radians(), bearing_deg.to_radians());
    let lat2 = (lat.sin() * delta.cos() + lat.cos() * delta.sin() * bearing.cos()).asin();
    let dlon =
        (bearing.sin() * delta.sin() * lat.cos()).atan2(delta.cos() - lat.sin() * lat2.sin());
    let lon2 = (centre.lon + dlon.to_degrees() + 540.0).rem_euclid(360.0) - 180.0;
    Point::new(lon2.clamp(-180.0, 180.0), lat2.to_degrees().clamp(-90.0, 90.0)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A circle's box contains the circle: every point the haversine test
    /// accepts lies in the box, and in a cell of the geohash cover the
    /// document store's geo index scans for it (precision 5, at most 512
    /// cells per piece) — near the poles and the antimeridian too.
    #[test]
    fn a_circle_lies_in_its_box_and_its_geohash_cover(
        centre in arb_centre(),
        log_radius in -1.0f64..3.301,
        bearing in 0.0f64..360.0,
        fraction in prop_oneof![0.0f64..1.2, 0.999_999f64..1.000_001],
    ) {
        let radius_km = 10f64.powf(log_radius);
        let circle = Circle::new(centre, radius_km).unwrap();
        let p = destination(centre, radius_km, bearing, fraction);
        if haversine_km(centre, p) <= radius_km {
            let cover = circle.bounding_box();
            prop_assert!(cover.contains(p), "{p} outside {cover} of {centre} r={radius_km}");
            let hash = encode(p, 5).unwrap();
            let covered = cover.boxes().iter().filter(|piece| piece.contains(p)).any(|piece| {
                geohash::cover_bbox(piece, 5, 512).unwrap().iter().any(|cell| hash.starts_with(cell))
            });
            prop_assert!(covered, "{p} ({hash}) outside the cover of {cover}");
        }
    }
}
