//! The typed matcher against the document filter: for random query-panel
//! requests and random metadata rows, `ImageQuery::matches` on the row must
//! decide exactly what `ImageQuery::to_filter` decides on the row's
//! metadata document.  The resolver evaluates residuals and post-filters
//! with the typed matcher while the postings are built from the documents,
//! so a disagreement would make a mode resolve another mask than `find`.
//!
//! The queries are drawn around each row so that every leaf can go either
//! way: shapes (rectangles, circles and polygons) with the row's point on
//! or a hair off their rims, date ranges ending the day before, on or after
//! the row's date, seasons and countries with and without the row's, and
//! all three label operators over the row's own labels, its labels with
//! one repeated, and random selections with repeats.  Mutants it catches:
//! any one leaf dropped from `matches`, `<` in place of `<=` on either end
//! of the date range, and set equality in place of the multiset test under
//! `Exactly`.

use eq_bigearthnet::labels::{Label, LabelSet};
use eq_bigearthnet::patch::{AcquisitionDate, PatchId, PatchMetadata, Satellite, Season};
use eq_bigearthnet::Country;
use eq_earthqube::{metadata_document, ImageQuery, LabelFilter, LabelOperator};
use eq_geo::{haversine_km, BBox, Circle, GeoShape, Point, Polygon};
use proptest::prelude::*;

/// The labels rows and selections are drawn from: few, so that selections
/// and rows overlap often.
const LABELS: [Label; 5] = [
    Label::MixedForest,
    Label::ConiferousForest,
    Label::SeaAndOcean,
    Label::BareRock,
    Label::Pastures,
];

/// The members of `all` whose bit is set in `bits`.
fn subset<T: Copy>(all: &[T], bits: u32) -> Vec<T> {
    (0..).zip(all).filter(|(i, _)| bits >> i & 1 == 1).map(|(_, &x)| x).collect()
}

/// A row: a small footprint centred at (`lon`, `lat`), a date, a country
/// and a label set over [`LABELS`].
fn row(
    lon: f64,
    lat: f64,
    (year, month, day): (u16, u8, u8),
    country: usize,
    labels: u32,
) -> PatchMetadata {
    PatchMetadata {
        id: PatchId(0),
        name: "S2A_MSIL2A_ROW".to_string(),
        bbox: BBox::new(lon - 0.01, lat - 0.01, lon + 0.01, lat + 0.01).unwrap(),
        labels: LabelSet::from_labels(subset(&LABELS, labels)),
        country: Country::ALL[country],
        date: AcquisitionDate::new(year, month, day).unwrap(),
    }
}

/// A shape whose rim passes through or a hair off the row's point `p`:
/// `kind` 0 a rectangle with an edge there, 1 a circle reaching it, 2 a
/// triangle with an edge through it.  `nudge` ∈ {-1, 0, 1} moves the rim
/// inward, onto or outward of the point; `side` picks the edge or bearing.
fn rim_shape(p: Point, kind: u8, side: u8, nudge: i8, reach: f64) -> GeoShape {
    let eps = f64::from(nudge) * 1e-9;
    match kind {
        0 => {
            let (lo, hi) = (reach, reach * 0.5);
            let bbox = match side % 4 {
                0 => BBox::new(p.lon + eps, p.lat - lo, p.lon + hi, p.lat + lo),
                1 => BBox::new(p.lon - hi, p.lat - lo, p.lon - eps, p.lat + lo),
                2 => BBox::new(p.lon - lo, p.lat + eps, p.lon + lo, p.lat + hi),
                _ => BBox::new(p.lon - lo, p.lat - hi, p.lon + lo, p.lat - eps),
            };
            GeoShape::Rect(bbox.unwrap())
        }
        1 => {
            let bearing = f64::from(side) * std::f64::consts::FRAC_PI_4;
            let centre = Point::new(p.lon + reach * bearing.cos(), p.lat + reach * bearing.sin());
            let centre = centre.unwrap();
            let radius = haversine_km(centre, p) * (1.0 + f64::from(nudge) * 1e-4);
            GeoShape::Circle(Circle::new(centre, radius).unwrap())
        }
        _ => {
            // The edge from (lon − reach, lat + eps) to (lon + reach, lat + eps)
            // passes the point; the apex lies above or below it.
            let apex = if side.is_multiple_of(2) { reach } else { -reach };
            let corners = [(-reach, eps), (reach, eps), (0.0, apex)];
            let ring = corners.iter().map(|&(dx, dy)| Point::new(p.lon + dx, p.lat + dy).unwrap());
            GeoShape::Polygon(Polygon::new(ring.collect()).unwrap())
        }
    }
}

/// A date `offset` days (−1, 0 or 1) from the row's, kept a valid date.
fn near(date: AcquisitionDate, offset: i8) -> AcquisitionDate {
    let day = (i16::from(date.day) + i16::from(offset)).clamp(1, 31) as u8;
    AcquisitionDate::new(date.year, date.month, day).unwrap()
}

/// The label selection: `mode` 0 the row's own labels, 1 its own labels
/// with the first repeated, 2 a random list over [`LABELS`] (repeats
/// likely), 3 its own labels with one swapped for another.
fn selection(own: LabelSet, mode: u8, picks: &[usize]) -> Vec<Label> {
    let own: Vec<Label> = own.iter().collect();
    match mode {
        0 => own,
        1 => own.iter().chain(own.first()).copied().collect(),
        2 => picks.iter().map(|&i| LABELS[i]).collect(),
        _ => own.iter().skip(1).copied().chain(picks.first().map(|&i| LABELS[i])).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn the_typed_matcher_agrees_with_the_document_filter(
        at in (-170.0f64..170.0, -80.0f64..80.0),
        date in (2017u16..2019, 1u8..13, 1u8..29),
        country in 0usize..10,
        labels in 0u32..32,
        shape in (0u8..4, 0u8..8, -1i8..2, 0.01f64..3.0),
        dates in (0u8..2, -1i8..2, -1i8..2),
        seasons in (0u8..2, 0u32..16),
        countries in (0u8..2, 0u32..1024, 0u8..2),
        label_filter in (0u8..4, 0u8..4, proptest::collection::vec(0usize..5, 1..5)),
    ) {
        let meta = row(at.0, at.1, date, country, labels);
        let mut query = ImageQuery { satellites: vec![Satellite::Sentinel2], ..ImageQuery::all() };
        let (kind, side, nudge, reach) = shape;
        if kind < 3 {
            query = query.with_shape(rim_shape(meta.bbox.center(), kind, side, nudge, reach));
        }
        if dates.0 == 1 {
            query = query.with_date_range(near(meta.date, dates.1), near(meta.date, dates.2));
        }
        if seasons.0 == 1 {
            query = query.with_seasons(subset(&Season::ALL, seasons.1));
        }
        if countries.0 == 1 {
            let mut picked = subset(&Country::ALL, countries.1);
            if countries.2 == 1 && !picked.contains(&meta.country) {
                picked.push(meta.country);
            }
            query = query.with_countries(picked);
        }
        let (operator, mode, picks) = label_filter;
        let operator = [LabelOperator::Some, LabelOperator::Exactly, LabelOperator::AtLeastAndMore]
            .get(usize::from(operator));
        if let Some(&operator) = operator {
            query = query.with_labels(LabelFilter::new(operator, selection(meta.labels, mode, &picks)));
        }

        let document = query.to_filter().matches(&metadata_document(&meta));
        let typed = query.matches(&meta);
        prop_assert!(typed == document, "typed {typed}, document {document}: {query:?} on {meta:?}");
    }
}
