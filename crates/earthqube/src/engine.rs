//! The EarthQube facade: the back-end server of the three-tier architecture
//! (§3.2), combining the data tier, the query services and the MiLaN CBIR
//! integration, and registering everything as AgoraEO assets.

use eq_agora::{asset, AssetKind, AssetRegistry};
use eq_bigearthnet::patch::{Patch, PatchMetadata};
use eq_bigearthnet::Archive;
use eq_docstore::QueryPlan;
use eq_milan::MilanConfig;
use eq_proto::ResponseBody;

use crate::catalog::Catalog;
use crate::cbir::CbirService;
use crate::feedback::{FeedbackEntry, FeedbackService};
use crate::filtered::{FilteredResponse, PrefilterMode};
use crate::ingest::validate_patch;
use crate::net::{expect_filtered, expect_search};
use crate::persist::WalRecord;
use crate::query::ImageQuery;
use crate::results::ResultPanel;
use crate::serve::decode_answer;
use crate::stats::LabelStatistics;
use crate::EarthQubeError;

/// Configuration of the whole EarthQube back-end.
#[derive(Debug, Clone)]
pub struct EarthQubeConfig {
    /// MiLaN model configuration.
    pub milan: MilanConfig,
    /// Result-panel page size.
    pub page_size: usize,
    /// Whether to train MiLaN during [`EarthQube::build`] (disable only in
    /// tests that exercise the untrained baseline).
    pub train_model: bool,
}

impl Default for EarthQubeConfig {
    fn default() -> Self {
        Self { milan: MilanConfig::default(), page_size: 50, train_model: true }
    }
}

impl EarthQubeConfig {
    /// A small, fast configuration for examples and tests.
    pub fn fast(seed: u64) -> Self {
        Self { milan: MilanConfig::fast(64, seed), ..Self::default() }
    }
}

/// The response of a metadata search or a similarity search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResponse {
    /// The result panel (pagination, cart source, text rendering).
    pub panel: ResultPanel,
    /// Label statistics over the retrieved images (Figure 2-4).
    pub statistics: LabelStatistics,
    /// How the metadata query was executed (`None` for pure CBIR queries).
    pub plan: Option<QueryPlan>,
}

impl SearchResponse {
    /// Total number of matching images.
    pub fn total(&self) -> usize {
        self.panel.total()
    }
}

/// The EarthQube back-end: the crate's one query core in its bare
/// configuration — no cache, no lock.  A query's answer is decoded from the
/// bytes the core writes, as a remote client decodes them.
///
/// All query methods take `&self`; the only `&mut self` entry point is
/// [`submit_feedback`](Self::submit_feedback), which writes to the data
/// tier.  For concurrent serving, hand the built engine to
/// [`QueryServer::from_engine`](crate::serve::QueryServer::from_engine),
/// which moves the same core behind the server's lock and cache.
#[derive(Debug)]
pub struct EarthQube {
    pub(crate) config: EarthQubeConfig,
    pub(crate) catalog: Catalog,
    pub(crate) registry: AssetRegistry,
}

impl EarthQube {
    /// Builds the full back-end from an archive: trains MiLaN, ingests
    /// every patch (metadata postings, raster bytes, CBIR code), and
    /// registers the assets in the AgoraEO registry.
    ///
    /// # Errors
    /// Propagates ingestion/model-configuration errors: the patches must be
    /// in dense-id order, with distinct names.
    pub fn build(archive: &Archive, config: EarthQubeConfig) -> Result<Self, EarthQubeError> {
        let catalog = Catalog::build(archive, &config)?;
        let registry = build_registry(&config);
        Ok(Self { config, catalog, registry })
    }

    /// The back-end configuration.
    pub fn config(&self) -> &EarthQubeConfig {
        &self.config
    }

    /// The AgoraEO asset registry this instance registered itself in.
    pub fn registry(&self) -> &AssetRegistry {
        &self.registry
    }

    /// The CBIR service.
    ///
    /// # Errors
    /// Never fails: every engine has one.  The `Result` predates that.
    pub fn cbir(&self) -> Result<&CbirService, EarthQubeError> {
        Ok(&self.catalog.cbir)
    }

    /// Number of images in the archive.
    pub fn archive_size(&self) -> usize {
        self.catalog.metadata.len()
    }

    /// The metadata of an archive image.
    pub fn metadata_of(&self, name: &str) -> Option<&PatchMetadata> {
        self.catalog.metadata_of(name)
    }

    /// Runs a query-panel search over the archive's metadata (§3.1).
    ///
    /// # Errors
    /// Fails on an invalid query.
    pub fn search(&self, query: &ImageQuery) -> Result<SearchResponse, EarthQubeError> {
        query.validate()?;
        let filter = self.catalog.resolve(query, PrefilterMode::Auto);
        expect_search(decoded(|w| self.catalog.search(&filter, w))?)
    }

    /// "Retrieve similar images" for an existing archive image (§3.3 /
    /// Figure 1): the CBIR path plus result-panel/statistics assembly.
    ///
    /// The underlying k-NN runs as a bounded top-k selection over the
    /// index's flat code arena (see `eq_hashindex::CodeArena`), so the
    /// engine never materialises or sorts the full candidate set — the
    /// same code the concurrent [`QueryServer`](crate::QueryServer) runs.
    ///
    /// # Errors
    /// Fails if the image is unknown.
    pub fn similar_to(&self, name: &str, k: usize) -> Result<SearchResponse, EarthQubeError> {
        expect_search(decoded(|w| self.catalog.similar_to(name, k, w))?)
    }

    /// Query-by-new-example (§4): encodes an external patch on the fly and
    /// retrieves its neighbours.
    ///
    /// # Errors
    /// Fails with [`EarthQubeError::BadRequest`] on a patch out of the
    /// canonical band layout; propagates result-assembly errors.
    pub fn search_by_new_example(
        &self,
        patch: &Patch,
        k: usize,
    ) -> Result<SearchResponse, EarthQubeError> {
        validate_patch(patch)?;
        let code = self.catalog.cbir.model().hash_patch(patch);
        expect_search(decoded(|w| self.catalog.search_by_code(&code, k, w))?)
    }

    /// Filtered "retrieve similar images" (E13): the `k` nearest
    /// neighbours of an archive image **among the images matching the
    /// query-panel filter** — e.g. similar agricultural patches in
    /// Austria, summer acquisitions only.
    ///
    /// The filter resolves to a dense-id mask first (bitmap prefilter or
    /// post-filter scan, per `mode` — see [`PrefilterMode`]); the masked
    /// bounded top-k then skips non-matching rows before any XOR/popcount
    /// work.  Both modes return byte-identical responses.
    ///
    /// # Errors
    /// Fails on an invalid query or an unknown image.
    pub fn similar_to_filtered(
        &self,
        name: &str,
        k: usize,
        query: &ImageQuery,
        mode: PrefilterMode,
    ) -> Result<FilteredResponse, EarthQubeError> {
        query.validate()?;
        let filter = self.catalog.resolve(query, mode);
        expect_filtered(decoded(|w| self.catalog.similar_to_filtered(name, k, &filter, w))?)
    }

    /// Filtered radius search (E13): every archive image within the given
    /// Hamming radius of an archive image's code **and** matching the
    /// query-panel filter, excluding the query image itself.
    ///
    /// # Errors
    /// Fails on an invalid query or an unknown image.
    pub fn similar_within_filtered(
        &self,
        name: &str,
        radius: u32,
        query: &ImageQuery,
        mode: PrefilterMode,
    ) -> Result<FilteredResponse, EarthQubeError> {
        query.validate()?;
        let filter = self.catalog.resolve(query, mode);
        expect_filtered(decoded(|w| {
            self.catalog.similar_within_filtered(name, radius, &filter, w)
        })?)
    }

    /// Submits anonymous feedback.
    ///
    /// # Errors
    /// Fails if the text is empty.
    pub fn submit_feedback(
        &mut self,
        text: &str,
        category: Option<&str>,
    ) -> Result<i64, EarthQubeError> {
        let (text, category) = (text.to_string(), category.map(String::from));
        self.catalog.apply_record(WalRecord::Feedback { text, category })
    }

    /// Lists all stored feedback.
    ///
    /// # Errors
    /// Fails if the feedback collection is missing.
    pub fn list_feedback(&self) -> Result<Vec<FeedbackEntry>, EarthQubeError> {
        FeedbackService.list(&self.catalog.database)
    }
}

/// The answer a query kind of the core writes, decoded.
fn decoded(
    write: impl FnOnce(&mut eq_wire::Writer) -> Result<(), EarthQubeError>,
) -> Result<ResponseBody, EarthQubeError> {
    let mut w = eq_wire::Writer::new();
    write(&mut w)?;
    Ok(decode_answer(w.as_bytes()))
}

/// Builds the AgoraEO asset registry an EarthQube instance announces
/// itself in — shared by [`EarthQube::build`] and snapshot recovery (the
/// registry holds only descriptive metadata derived from the
/// configuration, so rebuilding it is exact).
pub(crate) fn build_registry(config: &EarthQubeConfig) -> AssetRegistry {
    let registry = AssetRegistry::new();
    let _ = registry.offer(asset(
        "bigearthnet-synthetic",
        AssetKind::Dataset,
        "Synthetic BigEarthNet-MM archive",
        "eq-bigearthnet",
        &["eo", "sentinel-1", "sentinel-2"],
    ));
    let _ = registry.offer(asset(
        "milan",
        AssetKind::Model,
        &format!("Metric-learning deep hashing network ({}-bit codes)", config.milan.code_bits),
        "eq-milan",
        &["hashing", "cbir", "metric-learning"],
    ));
    let _ = registry.offer(asset(
        "hamming-hash-index",
        AssetKind::Index,
        "Hash-table index over MiLaN codes with Hamming-radius lookup",
        "eq-hashindex",
        &["cbir", "ann"],
    ));
    let _ = registry.offer(asset(
        "earthqube",
        AssetKind::Service,
        "EarthQube browser and search engine",
        "eq-earthqube",
        &["search", "eo"],
    ));
    let _ = registry.compose(
        "earthqube-cbir",
        vec![
            "bigearthnet-synthetic".into(),
            "milan".into(),
            "hamming-hash-index".into(),
            "earthqube".into(),
        ],
    );
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{LabelFilter, LabelOperator};
    use eq_bigearthnet::labels::Label;
    use eq_bigearthnet::patch::Season;
    use eq_bigearthnet::{ArchiveGenerator, Country, GeneratorConfig};
    use eq_geo::GeoShape;

    fn build(n: usize, seed: u64) -> (EarthQube, Archive) {
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(n, seed)).unwrap().generate();
        let mut cfg = EarthQubeConfig::fast(seed);
        cfg.milan.epochs = 5;
        let eq = EarthQube::build(&archive, cfg).unwrap();
        (eq, archive)
    }

    #[test]
    fn build_populates_database_cbir_and_registry() {
        let (eq, archive) = build(40, 51);
        assert_eq!(eq.archive_size(), 40);
        assert_eq!(eq.catalog.indexes.len(), 40);
        assert_eq!(eq.cbir().unwrap().len(), 40);
        assert_eq!(eq.registry().discover_by_kind(eq_agora::AssetKind::Service).len(), 1);
        assert!(eq.registry().pipeline("earthqube-cbir").is_some());
        assert!(eq.metadata_of(&archive.patches()[0].meta.name).is_some());
        assert!(eq.metadata_of("ghost").is_none());
    }

    /// The engine checks an upload as the server does: a patch with 11
    /// Sentinel-2 bands is a `BadRequest`, not a panic in the extractor.
    #[test]
    fn a_short_band_list_is_a_bad_request_in_process() {
        let (eq, _) = build(8, 99);
        let mut short =
            ArchiveGenerator::new(GeneratorConfig::tiny(1, 556)).unwrap().generate_patch(0);
        short.s2_bands.pop();
        assert_eq!(short.s2_bands.len(), 11);
        let uploaded = eq.search_by_new_example(&short, 3);
        assert!(matches!(uploaded, Err(EarthQubeError::BadRequest(_))), "{uploaded:?}");
        assert_eq!(eq.archive_size(), 8);
    }

    #[test]
    fn metadata_search_filters_by_country_and_labels() {
        let (eq, archive) = build(120, 52);
        let query =
            ImageQuery::all().with_countries(vec![Country::Finland]).with_labels(LabelFilter::new(
                LabelOperator::Some,
                vec![Label::MixedForest, Label::ConiferousForest, Label::BroadLeavedForest],
            ));
        let response = eq.search(&query).unwrap();
        // Cross-check against a direct scan of the archive.
        let expected = archive
            .patches()
            .iter()
            .filter(|p| {
                p.meta.country == Country::Finland
                    && (p.meta.labels.contains(Label::MixedForest)
                        || p.meta.labels.contains(Label::ConiferousForest)
                        || p.meta.labels.contains(Label::BroadLeavedForest))
            })
            .count();
        assert_eq!(response.total(), expected);
        // Statistics only count retrieved images.
        assert_eq!(response.statistics.image_count(), expected);
        // Both attribute indexes bounded the scan, and exactly: every
        // candidate matched.
        let plan = response.plan.unwrap();
        use crate::schema::fields;
        let consulted = format!("{}+{}", fields::COUNTRY, fields::LABELS);
        assert_eq!(plan.index_used, Some(consulted));
        assert_eq!(plan.scanned, expected);
    }

    #[test]
    fn spatial_search_uses_the_geo_index() {
        let (eq, _) = build(80, 53);
        let portugal = GeoShape::Rect(Country::Portugal.bounding_box());
        let response = eq.search(&ImageQuery::all().with_shape(portugal)).unwrap();
        let plan = response.plan.unwrap();
        assert_eq!(plan.index_used.as_deref(), Some(crate::schema::fields::LOCATION));
        // Every hit really is in Portugal.
        for page in 0..response.panel.page_count() {
            for e in response.panel.page(page).entries {
                assert_eq!(e.country, Country::Portugal);
            }
        }
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let (eq, _) = build(10, 54);
        let bad = ImageQuery::all().with_labels(LabelFilter::new(LabelOperator::Some, vec![]));
        assert!(matches!(eq.search(&bad), Err(EarthQubeError::BadRequest(_))));
    }

    #[test]
    fn similar_to_returns_ranked_neighbours_with_statistics() {
        let (eq, archive) = build(60, 55);
        let name = &archive.patches()[2].meta.name;
        let response = eq.similar_to(name, 8).unwrap();
        assert!(response.total() <= 8);
        assert!(response.total() > 0);
        assert!(response.plan.is_none());
        let page = response.panel.page(0);
        for e in &page.entries {
            assert!(e.distance.is_some());
            assert_ne!(&e.name, name, "query image must not appear in its own results");
        }
        assert_eq!(response.statistics.image_count(), response.total());
        // Unknown query image errors.
        assert!(matches!(eq.similar_to("ghost", 5), Err(EarthQubeError::UnknownImage(_))));
    }

    #[test]
    fn filtered_similarity_restricts_results_to_the_filter() {
        let (eq, archive) = build(120, 58);
        let name = &archive.patches()[0].meta.name;
        let query = ImageQuery::all().with_seasons(vec![Season::Summer]);

        let bitmap = eq.similar_to_filtered(name, 10, &query, PrefilterMode::ForceBitmap).unwrap();
        let scan =
            eq.similar_to_filtered(name, 10, &query, PrefilterMode::ForcePostFilter).unwrap();
        assert_eq!(bitmap.response, scan.response, "strategies must agree byte-for-byte");
        assert_eq!(bitmap.plan.strategy, crate::filtered::FilterStrategy::BitmapPrefilter);
        assert_eq!(scan.plan.strategy, crate::filtered::FilterStrategy::PostFilter);
        assert_eq!(bitmap.plan.matching, scan.plan.matching);
        assert!(!bitmap.plan.residual, "season membership compiles exactly");

        // Every hit is a summer acquisition and not the query image.
        assert!(bitmap.response.total() > 0);
        for page in 0..bitmap.response.panel.page_count() {
            for e in bitmap.response.panel.page(page).entries {
                assert_ne!(&e.name, name);
                let meta = eq.metadata_of(&e.name).unwrap();
                assert_eq!(meta.season(), Season::Summer, "{} leaked through the filter", e.name);
            }
        }
    }

    #[test]
    fn filtered_radius_search_equals_post_filtering_the_unfiltered_scan() {
        let (eq, archive) = build(100, 59);
        let name = &archive.patches()[4].meta.name;
        let query = ImageQuery::all().with_countries(vec![Country::Austria, Country::Portugal]);
        let radius = eq.cbir().unwrap().code_bits() / 3;

        let filtered =
            eq.similar_within_filtered(name, radius, &query, PrefilterMode::Auto).unwrap();
        // Reference: the same radius search under the match-all filter,
        // then drop non-matching images.
        let unfiltered = eq
            .similar_within_filtered(name, radius, &ImageQuery::all(), PrefilterMode::Auto)
            .unwrap();
        let reference: Vec<String> = (0..unfiltered.response.panel.page_count())
            .flat_map(|p| unfiltered.response.panel.page(p).entries)
            .map(|e| e.name.clone())
            .filter(|n| {
                let meta = eq.metadata_of(n).unwrap();
                matches!(meta.country, Country::Austria | Country::Portugal)
            })
            .collect();
        assert!(!reference.contains(name));
        let got: Vec<String> = (0..filtered.response.panel.page_count())
            .flat_map(|p| filtered.response.panel.page(p).entries)
            .map(|e| e.name.clone())
            .collect();
        assert_eq!(got, reference);
        assert!(filtered.plan.matching >= got.len());
    }

    #[test]
    fn filtered_search_validates_the_query_and_the_image() {
        let (eq, archive) = build(20, 60);
        let name = &archive.patches()[0].meta.name;
        let bad = ImageQuery::all().with_labels(LabelFilter::new(LabelOperator::Some, vec![]));
        assert!(matches!(
            eq.similar_to_filtered(name, 5, &bad, PrefilterMode::Auto),
            Err(EarthQubeError::BadRequest(_))
        ));
        assert!(matches!(
            eq.similar_to_filtered("ghost", 5, &ImageQuery::all(), PrefilterMode::Auto),
            Err(EarthQubeError::UnknownImage(_))
        ));
        assert!(matches!(
            eq.similar_within_filtered("ghost", 4, &ImageQuery::all(), PrefilterMode::Auto),
            Err(EarthQubeError::UnknownImage(_))
        ));
    }

    #[test]
    fn query_by_new_example_round_trips() {
        let (eq, _) = build(50, 56);
        let external =
            ArchiveGenerator::new(GeneratorConfig::tiny(1, 777)).unwrap().generate_patch(0);
        let response = eq.search_by_new_example(&external, 5).unwrap();
        assert_eq!(response.total(), 5);
    }

    #[test]
    fn feedback_round_trips_through_the_engine() {
        let (mut eq, _) = build(10, 57);
        eq.submit_feedback("very nice demo", Some("reaction")).unwrap();
        eq.submit_feedback("please add NDVI layer", None).unwrap();
        let all = eq.list_feedback().unwrap();
        assert_eq!(all.len(), 2);
        assert!(matches!(eq.submit_feedback("", None), Err(EarthQubeError::BadRequest(_))));
    }
}
