//! Property-based byte-identity pinning for bitmap-prefiltered similarity
//! search (E13): for random query-panel requests, random query images and
//! random `k`/radius, the bitmap-prefilter strategy, the post-filter scan
//! and the cost-based `Auto` planner must return **byte-identical**
//! responses, and every hit must satisfy the query's metadata filter.
//! A last property pins the filtered searches to the query panel's own
//! `search`: both count the same matches, on circle rims too.
//!
//! One engine is built once (via `OnceLock`) outside the proptest loop —
//! the properties randomise the *queries*, not the corpus, which keeps the
//! suite fast while still sweeping the full query-panel surface (country
//! and season subsets, all three label operators, geo rectangles and date
//! ranges).

use std::sync::OnceLock;

use eq_bigearthnet::labels::Label;
use eq_bigearthnet::patch::{AcquisitionDate, Season};
use eq_bigearthnet::{ArchiveGenerator, Country, GeneratorConfig};
use eq_earthqube::{
    metadata_document, EarthQube, EarthQubeConfig, FilteredResponse, ImageQuery, LabelFilter,
    LabelOperator, PrefilterMode, QueryServer, ServeConfig,
};
use eq_geo::{haversine_km, BBox, Circle, GeoShape, Point};
use proptest::prelude::*;

const PATCHES: usize = 48;

fn build_engine() -> (EarthQube, Vec<String>) {
    let archive = ArchiveGenerator::new(GeneratorConfig::tiny(PATCHES, 77)).unwrap().generate();
    let mut cfg = EarthQubeConfig::fast(77);
    cfg.train_model = false; // untrained codes are still deterministic
    let names = archive.patches().iter().map(|p| p.meta.name.clone()).collect();
    (EarthQube::build(&archive, cfg).unwrap(), names)
}

fn engine() -> &'static (EarthQube, Vec<String>) {
    static ENGINE: OnceLock<(EarthQube, Vec<String>)> = OnceLock::new();
    ENGINE.get_or_init(build_engine)
}

/// The same archive behind the concurrent server.
fn server() -> &'static QueryServer {
    static SERVER: OnceLock<QueryServer> = OnceLock::new();
    SERVER
        .get_or_init(|| QueryServer::from_engine(build_engine().0, ServeConfig::default()).unwrap())
}

const COUNTRIES: [Country; 4] =
    [Country::Austria, Country::Finland, Country::Portugal, Country::Serbia];
const LABELS: [Label; 3] = [Label::MixedForest, Label::ConiferousForest, Label::SeaAndOcean];

/// Builds a random-but-valid query-panel request from drawn primitives.
fn arb_query() -> impl Strategy<Value = ImageQuery> {
    (0u8..16, 0u8..16, 0u8..8, 1u8..8, 0u8..3, -10.0f64..20.0, 37.0f64..60.0, 0u8..3).prop_map(
        |(cbits, sbits, lop, lbits, geo, lon, lat, dates)| {
            let mut q = ImageQuery::all();
            let picked: Vec<Country> = COUNTRIES
                .iter()
                .enumerate()
                .filter(|(i, _)| cbits & (1 << i) != 0)
                .map(|(_, c)| *c)
                .collect();
            if !picked.is_empty() {
                q = q.with_countries(picked);
            }
            let seasons: Vec<Season> = Season::ALL
                .iter()
                .enumerate()
                .filter(|(i, _)| sbits & (1 << i) != 0)
                .map(|(_, s)| *s)
                .collect();
            if !seasons.is_empty() {
                q = q.with_seasons(seasons);
            }
            // lop 0..5 → an operator, 5..8 → no label filter; the selection
            // is always non-empty so the query always validates.
            let operator = match lop {
                0 | 1 => Some(LabelOperator::Some),
                2 | 3 => Some(LabelOperator::AtLeastAndMore),
                4 => Some(LabelOperator::Exactly),
                _ => None,
            };
            if let Some(op) = operator {
                let labels: Vec<Label> = LABELS
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| lbits & (1 << i) != 0)
                    .map(|(_, l)| *l)
                    .collect();
                q = q.with_labels(LabelFilter::new(op, labels));
            }
            if geo == 1 {
                let bbox = BBox::new(lon, lat, lon + 8.0, lat + 6.0).unwrap();
                q = q.with_shape(GeoShape::Rect(bbox));
            }
            match dates {
                1 => {
                    let from = AcquisitionDate::new(2017, 6, 1).unwrap();
                    let to = AcquisitionDate::new(2018, 5, 31).unwrap();
                    q = q.with_date_range(from, to);
                }
                2 => {
                    let from = AcquisitionDate::new(2017, 1, 1).unwrap();
                    let to = AcquisitionDate::new(2017, 12, 31).unwrap();
                    q = q.with_date_range(from, to);
                }
                _ => {}
            }
            q
        },
    )
}

/// Asserts the three planner modes agree byte-for-byte and returns the
/// bitmap-strategy response for further checks.
fn identical_across_modes(
    run: impl Fn(PrefilterMode) -> FilteredResponse,
) -> Result<FilteredResponse, TestCaseError> {
    let bitmap = run(PrefilterMode::ForceBitmap);
    let scan = run(PrefilterMode::ForcePostFilter);
    let auto = run(PrefilterMode::Auto);
    prop_assert!(
        bitmap.response == scan.response,
        "bitmap and post-filter responses diverge: {:?} vs {:?}",
        bitmap.plan,
        scan.plan
    );
    prop_assert!(auto.response == scan.response, "auto diverges from post-filter");
    prop_assert!(bitmap.plan.matching == scan.plan.matching, "match counts diverge");
    prop_assert!(auto.plan.matching == scan.plan.matching, "auto match count diverges");
    Ok(bitmap)
}

/// Every hit satisfies the query's metadata filter and is not the query
/// image itself.
fn assert_hits_match(
    eq: &EarthQube,
    query: &ImageQuery,
    name: &str,
    got: &FilteredResponse,
) -> Result<(), TestCaseError> {
    let filter = query.to_filter();
    for e in got.response.panel.entries() {
        prop_assert!(e.name != name, "query image leaked into its own results");
        let meta = eq.metadata_of(&e.name).expect("hit refers to an archived patch");
        prop_assert!(
            filter.matches(&metadata_document(meta)),
            "{} does not satisfy the query filter",
            e.name
        );
    }
    prop_assert!(
        got.response.total() <= got.plan.matching,
        "more hits than filter-matching images"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn filtered_knn_is_byte_identical_across_strategies(
        query in arb_query(),
        who in 0usize..PATCHES,
        k in 0usize..12,
    ) {
        let (eq, names) = engine();
        let name = &names[who];
        let got = identical_across_modes(|mode| {
            eq.similar_to_filtered(name, k, &query, mode).unwrap()
        })?;
        prop_assert!(got.response.total() <= k, "k-NN returned more than k hits");
        assert_hits_match(eq, &query, name, &got)?;
    }

    #[test]
    fn filtered_radius_search_is_byte_identical_across_strategies(
        query in arb_query(),
        who in 0usize..PATCHES,
        radius in 0u32..40,
    ) {
        let (eq, names) = engine();
        let name = &names[who];
        let got = identical_across_modes(|mode| {
            eq.similar_within_filtered(name, radius, &query, mode).unwrap()
        })?;
        assert_hits_match(eq, &query, name, &got)?;
    }

    #[test]
    fn unrestricted_filtered_knn_equals_the_plain_cbir_path(
        who in 0usize..PATCHES,
        k in 1usize..10,
    ) {
        let (eq, names) = engine();
        let name = &names[who];
        // With Filter::All the filtered path ranks the same universe as
        // the ordinary similar-to query — responses must coincide.
        let got = identical_across_modes(|mode| {
            eq.similar_to_filtered(name, k, &ImageQuery::all(), mode).unwrap()
        })?;
        let plain = eq.similar_to(name, k).unwrap();
        prop_assert!(got.response.panel.entries() == plain.panel.entries());
        prop_assert!(got.plan.matching == PATCHES);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Regression: the query panel and the filtered similarity searches
    /// resolve a filter through one engine, so they count the same matches
    /// — on a circle's rim too.  Half the circles here are drawn so that an
    /// archive patch lies due east or west of the centre just inside the
    /// radius, where `Circle::bounding_box` is a hair narrower than the
    /// circle itself (the two use different kilometres per degree): the old
    /// geo branch of `find` verified candidates against that box and lost
    /// the patch, while the prefilter kept its whole cell.
    #[test]
    fn query_panel_and_filtered_search_count_the_same_circle_matches(
        who in 0usize..PATCHES,
        offset_deg in 0.05f64..0.4,
        east in 0u8..2,
        slack in prop_oneof![1.00005f64..1.001, 1.001f64..3.0],
    ) {
        let (eq, names) = engine();
        let name = &names[who];
        let patch = eq.metadata_of(name).unwrap().bbox.center();
        let side = if east == 1 { offset_deg } else { -offset_deg };
        let centre = Point::new(patch.lon + side, patch.lat).unwrap();
        let circle = Circle::new(centre, haversine_km(centre, patch) * slack).unwrap();
        let query = ImageQuery::all().with_shape(GeoShape::Circle(circle));
        let bits = eq.cbir().unwrap().code_bits();

        let panel = eq.search(&query).unwrap().plan.unwrap();
        let filtered = eq.similar_within_filtered(name, bits, &query, PrefilterMode::Auto).unwrap();
        prop_assert_eq!(panel.matched, filtered.plan.matching);

        let panel = server().search(&query).unwrap().plan.unwrap();
        let filtered =
            server().similar_within_filtered(name, bits, &query, PrefilterMode::Auto).unwrap();
        prop_assert_eq!(panel.matched, filtered.plan.matching);
    }
}
