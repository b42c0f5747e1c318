//! Great-circle distance.

use crate::Point;

/// Mean Earth radius in kilometres (IUGG).
pub const EARTH_RADIUS_KM: f64 = 6_371.008_8;

/// Haversine great-circle distance between two WGS-84 points, in kilometres.
///
/// The haversine formulation is numerically stable for the short distances
/// (tens to hundreds of kilometres) that dominate EarthQube queries.
pub fn haversine_km(a: Point, b: Point) -> f64 {
    let (lat1, lat2) = (a.lat.to_radians(), b.lat.to_radians());
    let dlat = (b.lat - a.lat).to_radians();
    let dlon = (b.lon - a.lon).to_radians();
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * h.sqrt().min(1.0).asin()
}

/// Approximate degrees of longitude spanned by `km` kilometres at latitude `lat`.
///
/// The synthetic archive's footprint convention (see
/// [`BBox::square_around`](crate::BBox::square_around)): its kilometres per
/// degree are the ellipsoid's, not those of the sphere [`haversine_km`]
/// measures on, so it bounds no query shape.
pub fn km_to_lon_degrees(km: f64, lat: f64) -> f64 {
    let cos_lat = lat.to_radians().cos().max(1e-9);
    km / (111.319_49 * cos_lat)
}

/// Approximate degrees of latitude spanned by `km` kilometres: like
/// [`km_to_lon_degrees`], the synthetic archive's footprint convention.
pub fn km_to_lat_degrees(km: f64) -> f64 {
    km / 110.574
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lon: f64, lat: f64) -> Point {
        Point::new(lon, lat).unwrap()
    }

    #[test]
    fn berlin_to_lisbon_is_about_2313_km() {
        // Berlin (13.405, 52.52), Lisbon (-9.1393, 38.7223)
        let d = haversine_km(p(13.405, 52.52), p(-9.1393, 38.7223));
        assert!((d - 2313.0).abs() < 25.0, "got {d}");
    }

    #[test]
    fn symmetric() {
        let a = p(10.0, 45.0);
        let b = p(24.0, 60.0);
        assert!((haversine_km(a, b) - haversine_km(b, a)).abs() < 1e-9);
    }

    #[test]
    fn zero_for_identical_points() {
        let a = p(5.0, 5.0);
        assert_eq!(haversine_km(a, a), 0.0);
    }

    #[test]
    fn antipodal_is_half_circumference() {
        let d = haversine_km(p(0.0, 0.0), p(180.0, 0.0));
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((d - half).abs() < 1.0, "got {d}, want {half}");
    }

    #[test]
    fn one_degree_of_latitude_is_about_111_km() {
        let d = haversine_km(p(0.0, 0.0), p(0.0, 1.0));
        assert!((d - 111.2).abs() < 1.0, "got {d}");
    }

    #[test]
    fn km_degree_conversions_are_consistent() {
        // 111 km of latitude ~ 1 degree.
        assert!((km_to_lat_degrees(110.574) - 1.0).abs() < 1e-9);
        // At the equator, 111.3 km of longitude ~ 1 degree.
        assert!((km_to_lon_degrees(111.319_49, 0.0) - 1.0).abs() < 1e-9);
        // At 60N, longitude degrees are twice as "cheap".
        assert!((km_to_lon_degrees(111.319_49, 60.0) - 2.0).abs() < 1e-2);
    }

    #[test]
    fn triangle_inequality_holds_for_sample_points() {
        let a = p(5.0, 50.0);
        let b = p(6.0, 51.0);
        let c = p(7.0, 49.5);
        assert!(haversine_km(a, c) <= haversine_km(a, b) + haversine_km(b, c) + 1e-9);
    }
}
