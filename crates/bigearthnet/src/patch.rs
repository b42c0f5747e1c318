//! BigEarthNet image patches and their metadata.

use crate::bands::{Band, BandData, Polarization, SENTINEL2_BANDS};
use crate::countries::Country;
use crate::labels::LabelSet;
use eq_geo::BBox;

/// A calendar date within the BigEarthNet acquisition window
/// (June 2017 – May 2018, §2.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AcquisitionDate {
    /// Four-digit year.
    pub year: u16,
    /// Month 1..=12.
    pub month: u8,
    /// Day 1..=31 (not validated against month length beyond 31).
    pub day: u8,
}

impl AcquisitionDate {
    /// Creates a date, validating the year (at most four digits, so the
    /// date has a `YYYY-MM-DD` form), month and day ranges.
    pub fn new(year: u16, month: u8, day: u8) -> Option<Self> {
        if year > 9999 || !(1..=12).contains(&month) || !(1..=31).contains(&day) {
            return None;
        }
        Some(Self { year, month, day })
    }

    /// Days since 0000-01-01 in a simplified 365.25-day calendar; only used
    /// for ordering and range queries, never for display.
    pub fn ordinal(&self) -> i64 {
        self.year as i64 * 372 + (self.month as i64 - 1) * 31 + (self.day as i64 - 1)
    }

    /// The ten ASCII bytes of the ISO-like `YYYY-MM-DD` form, as used in
    /// the metadata store and by `Display`: the one date formatter, exact
    /// for every date [`new`](Self::new) accepts and allocation-free.
    pub fn iso_bytes(&self) -> [u8; 10] {
        let digit = |n: u16| b'0' + (n % 10) as u8;
        let (y, m, d) = (self.year, u16::from(self.month), u16::from(self.day));
        let (y3, y2, y1) = (digit(y / 1000), digit(y / 100), digit(y / 10));
        [y3, y2, y1, digit(y), b'-', digit(m / 10), digit(m), b'-', digit(d / 10), digit(d)]
    }

    /// `YYYY-MM-DD` as an owned string.
    pub fn to_iso(&self) -> String {
        self.to_string()
    }

    /// Parses exactly the fixed-width `YYYY-MM-DD` form
    /// [`iso_bytes`](Self::iso_bytes) writes (`"2017-7-17"` is not a date),
    /// given as text or as undecoded bytes, without allocating.
    pub fn from_iso(s: impl AsRef<[u8]>) -> Option<Self> {
        let b: &[u8; 10] = s.as_ref().try_into().ok()?;
        let num = |digits: &[u8]| {
            let digit = |n, d: &u8| d.is_ascii_digit().then(|| n * 10 + u16::from(d - b'0'));
            digits.iter().try_fold(0u16, digit)
        };
        if b[4] != b'-' || b[7] != b'-' {
            return None;
        }
        Self::new(num(&b[..4])?, num(&b[5..7])? as u8, num(&b[8..])? as u8)
    }

    /// Compact `YYYYMMDD` form used inside patch names.
    pub fn to_compact(&self) -> String {
        self.iso_bytes().iter().filter(|&&b| b != b'-').map(|&b| char::from(b)).collect()
    }

    /// The meteorological season of the date.
    pub fn season(&self) -> Season {
        match self.month {
            3..=5 => Season::Spring,
            6..=8 => Season::Summer,
            9..=11 => Season::Autumn,
            _ => Season::Winter,
        }
    }

    /// Whether the date falls inside the BigEarthNet acquisition window
    /// (June 2017 to May 2018 inclusive).
    pub fn in_bigearthnet_window(&self) -> bool {
        let start = AcquisitionDate { year: 2017, month: 6, day: 1 };
        let end = AcquisitionDate { year: 2018, month: 5, day: 31 };
        *self >= start && *self <= end
    }
}

impl std::fmt::Display for AcquisitionDate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let iso = self.iso_bytes();
        f.write_str(std::str::from_utf8(&iso).expect("ASCII digits and dashes"))
    }
}

/// Meteorological seasons, one of the query-panel filters (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Season {
    Spring,
    Summer,
    Autumn,
    Winter,
}

impl Season {
    /// All four seasons.
    pub const ALL: [Season; 4] = [Season::Spring, Season::Summer, Season::Autumn, Season::Winter];

    /// Season name.
    pub fn name(self) -> &'static str {
        match self {
            Season::Spring => "Spring",
            Season::Summer => "Summer",
            Season::Autumn => "Autumn",
            Season::Winter => "Winter",
        }
    }

    /// Parses a season name (case-insensitive).
    pub fn from_name(s: &str) -> Option<Season> {
        Season::ALL.iter().copied().find(|x| x.name().eq_ignore_ascii_case(s))
    }
}

impl std::fmt::Display for Season {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which satellite(s) a record refers to; one of the query-panel filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Satellite {
    Sentinel1,
    Sentinel2,
}

impl Satellite {
    /// Both satellites.
    pub const ALL: [Satellite; 2] = [Satellite::Sentinel1, Satellite::Sentinel2];

    /// Satellite name.
    pub fn name(self) -> &'static str {
        match self {
            Satellite::Sentinel1 => "Sentinel-1",
            Satellite::Sentinel2 => "Sentinel-2",
        }
    }
}

/// A unique patch identifier: the dense archive index.
///
/// Patch ids are assigned contiguously by the generator; the id doubles as
/// the row index into feature/code matrices, which keeps the retrieval
/// pipeline allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatchId(pub u32);

impl PatchId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PatchId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "patch#{}", self.0)
    }
}

/// Everything EarthQube stores about a patch in the *metadata* collection:
/// the patch name (primary key of the image-data collection), the bounding
/// rectangle, labels, country, acquisition date, season (§3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct PatchMetadata {
    /// Dense archive id.
    pub id: PatchId,
    /// BigEarthNet-style patch name, e.g.
    /// `S2A_MSIL2A_20170717T113321_T29SNC_23_42`.
    pub name: String,
    /// Bounding rectangle of the patch footprint.
    pub bbox: BBox,
    /// Multi-label annotation (CLC Level-3).
    pub labels: LabelSet,
    /// Country of acquisition.
    pub country: Country,
    /// Acquisition date.
    pub date: AcquisitionDate,
}

impl PatchMetadata {
    /// The meteorological season of the acquisition.
    pub fn season(&self) -> Season {
        self.date.season()
    }
}

/// A full BigEarthNet-MM patch: metadata plus the Sentinel-2 band rasters
/// and the Sentinel-1 polarisation rasters.
#[derive(Debug, Clone, PartialEq)]
pub struct Patch {
    /// The patch metadata (shared with the metadata collection).
    pub meta: PatchMetadata,
    /// The 12 Sentinel-2 band rasters, indexed by [`Band::index`].
    pub s2_bands: Vec<BandData>,
    /// The two Sentinel-1 rasters (VV, VH) at 120 × 120 px.
    pub s1_bands: Vec<BandData>,
}

impl Patch {
    /// Returns the raster of a Sentinel-2 band.
    pub fn band(&self, band: Band) -> &BandData {
        &self.s2_bands[band.index()]
    }

    /// Returns the raster of a Sentinel-1 polarisation.
    pub fn polarization(&self, pol: Polarization) -> &BandData {
        match pol {
            Polarization::VV => &self.s1_bands[0],
            Polarization::VH => &self.s1_bands[1],
        }
    }

    /// Validates that every band raster has the size its resolution demands.
    pub fn validate(&self) -> Result<(), String> {
        if self.s2_bands.len() != Band::COUNT {
            return Err(format!(
                "expected {} Sentinel-2 bands, got {}",
                Band::COUNT,
                self.s2_bands.len()
            ));
        }
        for band in SENTINEL2_BANDS {
            let want = band.resolution().patch_size();
            let got = self.s2_bands[band.index()].size();
            if got != want {
                return Err(format!("band {} has size {got}, expected {want}", band.name()));
            }
        }
        if self.s1_bands.len() != 2 {
            return Err(format!(
                "expected 2 Sentinel-1 polarisations, got {}",
                self.s1_bands.len()
            ));
        }
        for (i, b) in self.s1_bands.iter().enumerate() {
            if b.size() != 120 {
                return Err(format!("Sentinel-1 raster {i} has size {}, expected 120", b.size()));
            }
        }
        Ok(())
    }

    /// Renders an 8-bit RGB thumbnail by combining the B04/B03/B02 bands
    /// with a 2–98 percentile contrast stretch, the way EarthQube's
    /// *rendered images* collection is produced (§3.2).
    ///
    /// Returns `(size, rgb_pixels)` with `rgb_pixels.len() == size*size*3`.
    pub fn render_rgb(&self) -> (usize, Vec<u8>) {
        let r = self.band(Band::B04);
        let g = self.band(Band::B03);
        let b = self.band(Band::B02);
        let size = r.size();
        let mut out = vec![0u8; size * size * 3];
        for (ch, band) in [r, g, b].into_iter().enumerate() {
            let lo = band.percentile(2.0) as f64;
            let hi = (band.percentile(98.0) as f64).max(lo + 1.0);
            for (i, &px) in band.pixels().iter().enumerate() {
                let v = ((px as f64 - lo) / (hi - lo) * 255.0).clamp(0.0, 255.0) as u8;
                out[i * 3 + ch] = v;
            }
        }
        (size, out)
    }
}

/// Builds the BigEarthNet-style patch name for a tile/date/grid position.
pub fn patch_name(country: Country, date: AcquisitionDate, grid_x: u32, grid_y: u32) -> String {
    format!("S2A_MSIL2A_{}T100031_{}_{}_{}", date.to_compact(), country.tile_code(), grid_x, grid_y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::Label;

    #[test]
    fn date_validation_and_roundtrip() {
        assert!(AcquisitionDate::new(2017, 13, 1).is_none());
        assert!(AcquisitionDate::new(2017, 0, 1).is_none());
        assert!(AcquisitionDate::new(2017, 6, 32).is_none());
        let d = AcquisitionDate::new(2017, 7, 17).unwrap();
        assert_eq!(d.to_iso(), "2017-07-17");
        assert_eq!(AcquisitionDate::from_iso("2017-07-17"), Some(d));
        assert_eq!(AcquisitionDate::from_iso("2017-07"), None);
        assert_eq!(AcquisitionDate::from_iso("2017-07-17-00"), None);
        assert_eq!(AcquisitionDate::from_iso("garbage"), None);
        assert_eq!(d.to_compact(), "20170717");
        assert_eq!(&d.iso_bytes(), b"2017-07-17");
        assert_eq!(d.to_string(), "2017-07-17");
    }

    #[test]
    fn the_iso_form_is_fixed_width_and_its_parser_accepts_nothing_else() {
        // Four-digit years only: every accepted date has a ten-byte form.
        assert!(AcquisitionDate::new(10_000, 1, 1).is_none());
        let early = AcquisitionDate::new(7, 1, 2).unwrap();
        assert_eq!(early.to_iso(), "0007-01-02");
        assert_eq!(AcquisitionDate::from_iso("0007-01-02"), Some(early));
        for bad in
            ["2017-7-17", "2017-07-7", "+017-07-17", "2017/07/17", "2017-07-1x", "2017-13-01"]
        {
            assert_eq!(AcquisitionDate::from_iso(bad), None, "{bad}");
        }
        for (year, month, day) in [(0, 1, 1), (2018, 5, 31), (9999, 12, 31)] {
            let d = AcquisitionDate::new(year, month, day).unwrap();
            assert_eq!(AcquisitionDate::from_iso(d.to_iso()), Some(d));
        }
    }

    #[test]
    fn date_ordering_via_ordinal() {
        let a = AcquisitionDate::new(2017, 6, 30).unwrap();
        let b = AcquisitionDate::new(2017, 7, 1).unwrap();
        let c = AcquisitionDate::new(2018, 1, 1).unwrap();
        assert!(a.ordinal() < b.ordinal());
        assert!(b.ordinal() < c.ordinal());
        assert!(a < b && b < c);
    }

    #[test]
    fn seasons_from_months() {
        assert_eq!(AcquisitionDate::new(2017, 6, 15).unwrap().season(), Season::Summer);
        assert_eq!(AcquisitionDate::new(2017, 10, 15).unwrap().season(), Season::Autumn);
        assert_eq!(AcquisitionDate::new(2018, 1, 15).unwrap().season(), Season::Winter);
        assert_eq!(AcquisitionDate::new(2018, 4, 15).unwrap().season(), Season::Spring);
        assert_eq!(Season::from_name("spring"), Some(Season::Spring));
        assert_eq!(Season::from_name("monsoon"), None);
    }

    #[test]
    fn bigearthnet_window_check() {
        assert!(AcquisitionDate::new(2017, 6, 1).unwrap().in_bigearthnet_window());
        assert!(AcquisitionDate::new(2018, 5, 31).unwrap().in_bigearthnet_window());
        assert!(!AcquisitionDate::new(2017, 5, 31).unwrap().in_bigearthnet_window());
        assert!(!AcquisitionDate::new(2018, 6, 1).unwrap().in_bigearthnet_window());
    }

    #[test]
    fn patch_name_contains_tile_and_date() {
        let d = AcquisitionDate::new(2017, 7, 17).unwrap();
        let n = patch_name(Country::Portugal, d, 23, 42);
        assert_eq!(n, "S2A_MSIL2A_20170717T100031_T29SNC_23_42");
    }

    fn tiny_valid_patch() -> Patch {
        let meta = PatchMetadata {
            id: PatchId(0),
            name: "test".into(),
            bbox: BBox::new(0.0, 0.0, 0.01, 0.01).unwrap(),
            labels: LabelSet::from_labels([Label::SeaAndOcean]),
            country: Country::Portugal,
            date: AcquisitionDate::new(2017, 8, 1).unwrap(),
        };
        let s2_bands =
            SENTINEL2_BANDS.iter().map(|b| BandData::zeros(b.resolution().patch_size())).collect();
        let s1_bands = vec![BandData::zeros(120), BandData::zeros(120)];
        Patch { meta, s2_bands, s1_bands }
    }

    #[test]
    fn patch_validation_accepts_correct_layout() {
        assert_eq!(tiny_valid_patch().validate(), Ok(()));
    }

    #[test]
    fn patch_validation_rejects_wrong_band_count_or_size() {
        let mut p = tiny_valid_patch();
        p.s2_bands.pop();
        assert!(p.validate().is_err());

        let mut p = tiny_valid_patch();
        p.s2_bands[Band::B02.index()] = BandData::zeros(60);
        assert!(p.validate().unwrap_err().contains("B02"));

        let mut p = tiny_valid_patch();
        p.s1_bands[0] = BandData::zeros(60);
        assert!(p.validate().is_err());
    }

    #[test]
    fn band_and_polarization_accessors() {
        let p = tiny_valid_patch();
        assert_eq!(p.band(Band::B01).size(), 20);
        assert_eq!(p.band(Band::B08).size(), 120);
        assert_eq!(p.polarization(Polarization::VV).size(), 120);
        assert_eq!(p.polarization(Polarization::VH).size(), 120);
    }

    #[test]
    fn render_rgb_produces_correct_buffer_shape() {
        let mut p = tiny_valid_patch();
        // Give the RGB bands some contrast so stretching has work to do.
        for (i, px) in p.s2_bands[Band::B04.index()].pixels_mut().iter_mut().enumerate() {
            *px = (i % 4000) as u16;
        }
        let (size, rgb) = p.render_rgb();
        assert_eq!(size, 120);
        assert_eq!(rgb.len(), 120 * 120 * 3);
        // Red channel has non-trivial dynamic range after the stretch.
        let reds: Vec<u8> = rgb.iter().step_by(3).copied().collect();
        assert!(reds.iter().any(|&v| v > 200));
        assert!(reds.iter().any(|&v| v < 50));
    }

    #[test]
    fn patch_id_display_and_index() {
        assert_eq!(PatchId(7).index(), 7);
        assert_eq!(PatchId(7).to_string(), "patch#7");
    }

    #[test]
    fn satellite_names() {
        assert_eq!(Satellite::Sentinel1.name(), "Sentinel-1");
        assert_eq!(Satellite::Sentinel2.name(), "Sentinel-2");
        assert_eq!(Satellite::ALL.len(), 2);
    }
}
