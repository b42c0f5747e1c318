//! Property-based byte-identity pinning for bitmap-prefiltered similarity
//! search (E13): for random query-panel requests, random query images and
//! random `k`/radius, the bitmap-prefilter strategy, the post-filter scan
//! and the cost-based `Auto` planner must return **byte-identical**
//! responses, and every hit must satisfy the query's metadata filter.
//! Another property pins the filtered searches to the query panel's own
//! `search`: both count the same matches, on circle rims too.  The last
//! one interleaves ingest with all three filter-taking kinds on a caching
//! server, whose resolved-filter and result caches must never answer from
//! a catalog that has since changed.
//!
//! One engine is built once (via `OnceLock`) outside the proptest loop —
//! the properties randomise the *queries*, not the corpus, which keeps the
//! suite fast while still sweeping the full query-panel surface (country
//! and season subsets, all three label operators, geo rectangles and date
//! ranges).

use std::sync::OnceLock;

use eq_bigearthnet::labels::Label;
use eq_bigearthnet::patch::{AcquisitionDate, Patch, PatchId, Season};
use eq_bigearthnet::{Archive, ArchiveGenerator, Country, GeneratorConfig};
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

/// The same kind of archive with every patch moved a hair west of a
/// geohash column boundary (every 1.406 25° of longitude, a boundary at
/// every precision the geo index covers with): a circle reaching a patch
/// from the east covers the patch's cell only if the circle's box reaches
/// the patch.
fn rim_engine() -> &'static (EarthQube, Vec<String>) {
    static ENGINE: OnceLock<(EarthQube, Vec<String>)> = OnceLock::new();
    ENGINE.get_or_init(|| {
        const COLUMN: f64 = 360.0 / 256.0;
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(PATCHES, 79)).unwrap().generate();
        let mut patches = archive.patches().to_vec();
        for patch in &mut patches {
            let centre = patch.meta.bbox.center();
            let lon = ((centre.lon + 180.0) / COLUMN).round() * COLUMN - 180.0 - 1e-6;
            let (lat, half) = (centre.lat, 0.005);
            patch.meta.bbox = BBox::new(lon - half, lat - half, lon + half, lat + half).unwrap();
        }
        let names = patches.iter().map(|p| p.meta.name.clone()).collect();
        let mut cfg = EarthQubeConfig::fast(79);
        cfg.train_model = false;
        (EarthQube::build(&Archive::new(patches), cfg).unwrap(), names)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Rim cases: for a circle whose radius is a patch's haversine distance
    /// from the centre × (1 ± 1e-4), `Auto`, `ForceBitmap` and
    /// `ForcePostFilter` resolve the same mask — the bitmap's geohash cover
    /// loses no match the scan keeps — which is the brute-force haversine
    /// match set, and the query panel counts the same.  Half the centres
    /// lie nearly due east or west of the patch, where a box narrower than
    /// its circle would miss the rim.
    #[test]
    fn every_mode_resolves_the_same_mask_on_a_circle_s_rim(
        who in 0usize..PATCHES,
        dlon in -0.5f64..0.5,
        tilt in prop_oneof![-0.02f64..0.02, -2.0f64..2.0],
        inside in 0u8..2,
        on_boundary in 0u8..2,
    ) {
        let (eq, names) = if on_boundary == 1 { rim_engine() } else { engine() };
        let name = &names[who];
        let patch = eq.metadata_of(name).unwrap().bbox.center();
        let centre = Point::new(patch.lon + dlon, patch.lat + dlon.abs() * tilt).unwrap();
        let slack = if inside == 1 { 1.0 + 1e-4 } else { 1.0 - 1e-4 };
        let radius_km = haversine_km(centre, patch) * slack;
        prop_assume!(radius_km > 0.0);
        let circle = Circle::new(centre, radius_km).unwrap();
        let query = ImageQuery::all().with_shape(GeoShape::Circle(circle));
        let bits = eq.cbir().unwrap().code_bits();

        // Every other matching image is within the code width, so the
        // radius search lists the whole mask but the query image.
        let got = identical_across_modes(|mode| {
            eq.similar_within_filtered(name, bits, &query, mode).unwrap()
        })?;
        let centres = names.iter().map(|n| eq.metadata_of(n).unwrap().bbox.center());
        let expected = centres.filter(|&c| haversine_km(centre, c) <= radius_km).count();
        prop_assert_eq!(got.plan.matching, expected);
        prop_assert_eq!(got.response.total(), expected - usize::from(inside == 1));
        prop_assert_eq!(eq.search(&query).unwrap().total(), expected);
    }
}

// ---------------------------------------------------------------------------
// Staleness: ingest interleaved with cached filtered queries
// ---------------------------------------------------------------------------

/// Images the interleaving starts from.
const BASE: usize = 14;

fn untrained() -> EarthQubeConfig {
    let mut cfg = EarthQubeConfig::fast(78);
    cfg.train_model = false;
    cfg
}

/// The bare engine over `patches`, dense ids reassigned in order — what a
/// server that ingested them one batch after another holds.
fn bare_engine(patches: &[Patch]) -> EarthQube {
    let mut patches = patches.to_vec();
    for (id, patch) in patches.iter_mut().enumerate() {
        patch.meta.id = PatchId(id as u32);
    }
    EarthQube::build(&Archive::new(patches), untrained()).unwrap()
}

/// The panel filters the interleaving keeps re-issuing: attribute-only,
/// label (exact bitmap), and geo (residual on the candidates).
fn panel_filters() -> Vec<ImageQuery> {
    vec![
        ImageQuery::all().with_countries(vec![Country::Austria]).with_seasons(vec![Season::Summer]),
        ImageQuery::all()
            .with_labels(LabelFilter::new(LabelOperator::AtLeastAndMore, vec![Label::MixedForest])),
        ImageQuery::all()
            .with_shape(GeoShape::Rect(BBox::new(10.0, 46.5, 17.0, 49.0).unwrap()))
            .with_seasons(vec![Season::Summer, Season::Autumn]),
        ImageQuery::all(),
    ]
}

/// Rewrites a patch so that every one of [`panel_filters`] matches it.
fn matching_all_filters(mut patch: Patch, nth: usize) -> Patch {
    patch.meta.country = Country::Austria;
    patch.meta.date = AcquisitionDate::new(2017, 7, 1 + (nth % 28) as u8).unwrap();
    patch.meta.labels.insert(Label::MixedForest);
    let (lon, lat) = (11.0 + 0.1 * (nth % 50) as f64, 47.0 + 0.01 * (nth % 100) as f64);
    patch.meta.bbox = BBox::new(lon, lat, lon + 0.01, lat + 0.01).unwrap();
    patch
}

const MODES: [PrefilterMode; 3] =
    [PrefilterMode::Auto, PrefilterMode::ForceBitmap, PrefilterMode::ForcePostFilter];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// After every step of a random interleaving of `ingest` (half the
    /// patches built to match the filters already cached) with `search`,
    /// `similar_to_filtered` and `similar_within_filtered`, the caching
    /// server answers exactly what a `cache_capacity: 0` server and the
    /// bare engine fed the same writes answer — `QueryPlan` and
    /// `FilteredPlan` included.
    #[test]
    fn cached_filters_never_outlive_the_catalog_they_were_resolved_on(
        steps in proptest::collection::vec((0u8..7, 0usize..64, 0usize..30, 0u8..3), 5..12),
    ) {
        let base = ArchiveGenerator::new(GeneratorConfig::tiny(BASE, 78)).unwrap().generate();
        let fresh = ArchiveGenerator::new(GeneratorConfig::tiny(40, 4078)).unwrap();
        let filters = panel_filters();

        let mut patches: Vec<Patch> = base.patches().to_vec();
        let mut bare = bare_engine(&patches);
        let cached = QueryServer::build(&base, untrained(), ServeConfig::default()).unwrap();
        let uncached = QueryServer::build(&base, untrained(), ServeConfig::uncached(3)).unwrap();

        // Every filter is cached, in every mode, before the first write.
        for filter in &filters {
            cached.search(filter).unwrap();
            for mode in MODES {
                cached.similar_to_filtered(&patches[0].meta.name, 3, filter, mode).unwrap();
            }
        }
        prop_assert!(cached.stats().filter_cache_entries >= filters.len());

        let mut ingested = 0usize;
        for (kind, a, b, m) in steps {
            let filter = &filters[a % filters.len()];
            let name = patches[a % patches.len()].meta.name.clone();
            let mode = MODES[m as usize];
            match kind {
                // Ingest one or two patches; every other one matches the
                // cached filters, so a stale mask would miss it.
                0 | 1 => {
                    let batch: Vec<Patch> = (0..1 + usize::from(kind))
                        .map(|_| {
                            let patch = fresh.generate_patch(ingested as u32);
                            ingested += 1;
                            if ingested % 2 == 1 {
                                matching_all_filters(patch, ingested)
                            } else {
                                patch
                            }
                        })
                        .collect();
                    prop_assert!(cached.ingest(&batch) == uncached.ingest(&batch));
                    patches.extend(batch);
                    bare = bare_engine(&patches);
                    prop_assert!(cached.stats().filter_cache_entries == 0);
                }
                2 | 3 => {
                    let expected = bare.search(filter).unwrap();
                    prop_assert!(expected.plan.is_some());
                    prop_assert!(cached.search(filter).unwrap() == expected, "search, cached");
                    prop_assert!(uncached.search(filter).unwrap() == expected, "search, uncached");
                }
                4 | 5 => {
                    let expected = bare.similar_to_filtered(&name, b, filter, mode).unwrap();
                    let got = cached.similar_to_filtered(&name, b, filter, mode).unwrap();
                    prop_assert!(got == expected, "k-NN, cached: {:?} vs {:?}", got.plan, expected.plan);
                    let got = uncached.similar_to_filtered(&name, b, filter, mode).unwrap();
                    prop_assert!(got == expected, "k-NN, uncached");
                }
                _ => {
                    let radius = b as u32 + 8;
                    let expected = bare.similar_within_filtered(&name, radius, filter, mode).unwrap();
                    let got = cached.similar_within_filtered(&name, radius, filter, mode).unwrap();
                    prop_assert!(got == expected, "radius, cached: {:?} vs {:?}", got.plan, expected.plan);
                    let got = uncached.similar_within_filtered(&name, radius, filter, mode).unwrap();
                    prop_assert!(got == expected, "radius, uncached");
                }
            }
        }
        prop_assert!(uncached.stats().filter_cache_entries == 0);
    }
}
