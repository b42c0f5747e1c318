//! The ten European countries covered by BigEarthNet (§2.1 of the paper).

use eq_geo::BBox;

/// The ten countries whose Sentinel tiles make up BigEarthNet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Country {
    Austria,
    Belgium,
    Finland,
    Ireland,
    Kosovo,
    Lithuania,
    Luxembourg,
    Portugal,
    Serbia,
    Switzerland,
}

impl Country {
    /// All ten countries, alphabetically, in declaration order.
    pub const ALL: [Country; 10] = [
        Country::Austria,
        Country::Belgium,
        Country::Finland,
        Country::Ireland,
        Country::Kosovo,
        Country::Lithuania,
        Country::Luxembourg,
        Country::Portugal,
        Country::Serbia,
        Country::Switzerland,
    ];

    /// Country name.
    pub fn name(self) -> &'static str {
        match self {
            Country::Austria => "Austria",
            Country::Belgium => "Belgium",
            Country::Finland => "Finland",
            Country::Ireland => "Ireland",
            Country::Kosovo => "Kosovo",
            Country::Lithuania => "Lithuania",
            Country::Luxembourg => "Luxembourg",
            Country::Portugal => "Portugal",
            Country::Serbia => "Serbia",
            Country::Switzerland => "Switzerland",
        }
    }

    /// The country's one-byte tag: its position in [`Country::ALL`], which
    /// lists the variants in declaration order.  Every binary codec that
    /// carries a country (a result row, a query's country list) writes it.
    pub const fn tag(self) -> u8 {
        self as u8
    }

    /// The country a [`tag`](Self::tag) names, or `None` past the last one.
    pub fn from_tag(tag: u8) -> Option<Country> {
        Country::ALL.get(usize::from(tag)).copied()
    }

    /// Parses a country from its English name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Country> {
        Country::ALL.iter().copied().find(|c| c.name().eq_ignore_ascii_case(name))
    }

    /// An approximate land bounding box (continental territory) used by the
    /// synthetic generator to place patch footprints.
    pub fn bounding_box(self) -> BBox {
        // (min_lon, min_lat, max_lon, max_lat); coarse but disjoint enough
        // to make spatial queries meaningful.
        let (a, b, c, d) = match self {
            Country::Austria => (9.5, 46.4, 17.2, 49.0),
            Country::Belgium => (2.5, 49.5, 6.4, 51.5),
            Country::Finland => (20.6, 59.8, 31.5, 70.1),
            Country::Ireland => (-10.5, 51.4, -6.0, 55.4),
            Country::Kosovo => (20.0, 41.8, 21.8, 43.3),
            Country::Lithuania => (21.0, 53.9, 26.8, 56.4),
            Country::Luxembourg => (5.7, 49.4, 6.5, 50.2),
            Country::Portugal => (-9.5, 36.9, -6.2, 42.2),
            Country::Serbia => (18.8, 42.2, 23.0, 46.2),
            Country::Switzerland => (5.9, 45.8, 10.5, 47.8),
        };
        BBox::new(a, b, c, d).expect("country bounding boxes are valid")
    }

    /// Relative share of BigEarthNet patches acquired over this country.
    ///
    /// The real archive is heavily skewed (Finland, Portugal, Austria and
    /// Serbia contribute most patches; Luxembourg and Kosovo very few); the
    /// synthetic generator reproduces that skew.  Unnormalised weights.
    pub fn patch_share(self) -> f64 {
        match self {
            Country::Finland => 25.0,
            Country::Portugal => 18.0,
            Country::Austria => 15.0,
            Country::Serbia => 13.0,
            Country::Ireland => 10.0,
            Country::Lithuania => 8.0,
            Country::Switzerland => 6.0,
            Country::Belgium => 3.0,
            Country::Kosovo => 1.5,
            Country::Luxembourg => 0.5,
        }
    }

    /// The Sentinel-2 tile prefix used in synthetic patch names for this
    /// country (a real-looking MGRS-like tile identifier).
    pub fn tile_code(self) -> &'static str {
        match self {
            Country::Austria => "T33UWP",
            Country::Belgium => "T31UFS",
            Country::Finland => "T35VLJ",
            Country::Ireland => "T29UNV",
            Country::Kosovo => "T34TDN",
            Country::Lithuania => "T34UDG",
            Country::Luxembourg => "T31UGR",
            Country::Portugal => "T29SNC",
            Country::Serbia => "T34TDQ",
            Country::Switzerland => "T32TMT",
        }
    }
}

impl std::fmt::Display for Country {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_ten_countries() {
        assert_eq!(Country::ALL.len(), 10);
    }

    #[test]
    fn names_roundtrip_case_insensitively() {
        for c in Country::ALL {
            assert_eq!(Country::from_name(c.name()), Some(c));
            assert_eq!(Country::from_name(&c.name().to_uppercase()), Some(c));
        }
        assert_eq!(Country::from_name("Germany"), None);
    }

    #[test]
    fn tags_are_positions_in_all_and_roundtrip() {
        for (i, c) in Country::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(c.tag()), i);
            assert_eq!(Country::from_tag(c.tag()), Some(c));
        }
        assert_eq!(Country::from_tag(Country::ALL.len() as u8), None);
        assert_eq!(Country::from_tag(u8::MAX), None);
    }

    #[test]
    fn bounding_boxes_are_in_europe_and_valid() {
        for c in Country::ALL {
            let b = c.bounding_box();
            assert!(b.min_lon >= -11.0 && b.max_lon <= 32.0, "{c}: {b}");
            assert!(b.min_lat >= 36.0 && b.max_lat <= 71.0, "{c}: {b}");
            assert!(b.width() > 0.0 && b.height() > 0.0);
        }
    }

    #[test]
    fn portugal_and_finland_do_not_overlap() {
        assert!(!Country::Portugal.bounding_box().intersects(&Country::Finland.bounding_box()));
    }

    #[test]
    fn luxembourg_is_the_smallest() {
        let lux = Country::Luxembourg.bounding_box().area_deg2();
        for c in Country::ALL {
            if c != Country::Luxembourg {
                assert!(c.bounding_box().area_deg2() > lux, "{c} smaller than Luxembourg?");
            }
        }
    }

    #[test]
    fn patch_shares_are_positive_and_skewed() {
        let total: f64 = Country::ALL.iter().map(|c| c.patch_share()).sum();
        assert!(total > 0.0);
        assert!(Country::Finland.patch_share() > Country::Luxembourg.patch_share() * 10.0);
    }

    #[test]
    fn tile_codes_are_unique() {
        let mut codes: Vec<&str> = Country::ALL.iter().map(|c| c.tile_code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 10);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Country::Switzerland.to_string(), "Switzerland");
    }
}
