//! Cross-crate integration tests: the three demo scenarios of §4 running
//! end-to-end through the public API (archive generation → ingestion →
//! MiLaN training → CBIR → query panel → result panel / statistics).

use agoraeo::bigearthnet::{ArchiveGenerator, Country, GeneratorConfig, Label};
use std::sync::Arc;

use agoraeo::earthqube::net::{response_to_payload, EqClient, NetServer};
use agoraeo::earthqube::{
    DownloadCart, EarthQube, EarthQubeConfig, EarthQubeError, FilteredResponse, ImageQuery,
    LabelFilter, LabelOperator, PrefilterMode, QueryServer, ServeConfig,
};
use agoraeo::geo::{BBox, GeoShape};

fn build_earthqube(n: usize, seed: u64) -> (EarthQube, agoraeo::bigearthnet::Archive) {
    let archive = ArchiveGenerator::new(GeneratorConfig::tiny(n, seed)).unwrap().generate();
    let mut config = EarthQubeConfig::fast(seed);
    config.milan.epochs = 8;
    (EarthQube::build(&archive, config).unwrap(), archive)
}

#[test]
fn scenario_label_based_exploration() {
    // §4 scenario 1: industrial areas adjacent to inland water bodies.
    let (eq, archive) = build_earthqube(250, 101);
    let query = ImageQuery::all().with_labels(LabelFilter::new(
        LabelOperator::AtLeastAndMore,
        vec![Label::IndustrialOrCommercialUnits, Label::WaterBodies],
    ));
    let response = eq.search(&query).unwrap();

    // Ground truth by direct archive scan.
    let expected = archive
        .patches()
        .iter()
        .filter(|p| {
            p.meta.labels.contains(Label::IndustrialOrCommercialUnits)
                && p.meta.labels.contains(Label::WaterBodies)
        })
        .count();
    assert_eq!(response.total(), expected);

    // Every retrieved image carries both labels, and the statistics count
    // them in every retrieved image.
    assert_eq!(response.statistics.count(Label::IndustrialOrCommercialUnits), expected);
    assert_eq!(response.statistics.count(Label::WaterBodies), expected);

    // The label-statistics bar chart is renderable either way (it reports
    // the image count, or an explicit empty-retrieval message).
    let chart = response.statistics.render_bar_chart(10, 30);
    assert!(chart.contains("images") || chart.contains("no labels"));
}

#[test]
fn scenario_spatial_exploration_and_query_by_existing_example() {
    // §4 scenario 2: spatial query over Portugal, then CBIR from a hit.
    let (eq, _) = build_earthqube(300, 102);
    let portugal = GeoShape::Rect(Country::Portugal.bounding_box());
    let spatial = eq.search(&ImageQuery::all().with_shape(portugal)).unwrap();
    assert!(spatial.total() > 0, "the generator always places patches in Portugal");
    assert_eq!(
        spatial.plan.as_ref().unwrap().index_used.as_deref(),
        Some("location"),
        "spatial queries must go through the geohash index"
    );
    for entry in spatial.panel.page(0).entries {
        assert_eq!(entry.country, Country::Portugal);
    }

    // Query-by-existing-example from the first hit.
    let query_image = spatial.panel.page(0).entries.first().unwrap().name.clone();
    let similar = eq.similar_to(&query_image, 10).unwrap();
    assert!(similar.total() > 0);
    assert!(similar.total() <= 10);
    let entries = similar.panel.page(0).entries;
    // Sorted by Hamming distance, query image excluded.
    for w in entries.windows(2) {
        assert!(w[0].distance.unwrap() <= w[1].distance.unwrap());
    }
    assert!(entries.iter().all(|e| e.name != query_image));

    // The download cart combines results from both searches without duplicates.
    let mut cart = DownloadCart::new();
    cart.add_page(&spatial.panel.page(0));
    let before = cart.len();
    cart.add_page(&spatial.panel.page(0));
    assert_eq!(cart.len(), before, "adding the same page twice must not duplicate");
    cart.add_page(&similar.panel.page(0));
    assert!(cart.len() >= before);
}

#[test]
fn scenario_query_by_new_example_supports_auto_labelling() {
    // §4 scenario 3: an external unlabeled image is encoded on the fly.
    let (eq, _) = build_earthqube(300, 103);
    let external = ArchiveGenerator::new(GeneratorConfig::tiny(1, 9999)).unwrap().generate_patch(0);
    let response = eq.search_by_new_example(&external, 12).unwrap();
    assert_eq!(response.total(), 12);
    // The statistics over the neighbours give a label proposal; it must
    // contain at least one label (every archive patch has ≥ 1 label).
    assert!(response.statistics.dominant().is_some());
}

#[test]
fn combined_spatial_temporal_label_query_matches_reference_scan() {
    let (eq, archive) = build_earthqube(300, 104);
    let from = agoraeo::bigearthnet::AcquisitionDate::new(2017, 9, 1).unwrap();
    let to = agoraeo::bigearthnet::AcquisitionDate::new(2018, 2, 28).unwrap();
    let bbox = BBox::new(-10.0, 36.0, 30.0, 66.0).unwrap(); // most of Europe (clips N-Finland / W-Ireland)
    let query = ImageQuery::all()
        .with_shape(GeoShape::Rect(bbox))
        .with_date_range(from, to)
        .with_labels(LabelFilter::new(
            LabelOperator::Some,
            vec![Label::MixedForest, Label::ConiferousForest],
        ));
    let response = eq.search(&query).unwrap();
    let expected = archive
        .patches()
        .iter()
        .filter(|p| {
            bbox.contains(p.meta.bbox.center())
                && p.meta.date >= from
                && p.meta.date <= to
                && (p.meta.labels.contains(Label::MixedForest)
                    || p.meta.labels.contains(Label::ConiferousForest))
        })
        .count();
    assert_eq!(response.total(), expected);
}

#[test]
fn error_paths_are_reported_not_panicked() {
    let (mut eq, _) = build_earthqube(30, 105);
    assert!(matches!(eq.similar_to("does-not-exist", 5), Err(EarthQubeError::UnknownImage(_))));
    assert!(matches!(
        eq.search(&ImageQuery::all().with_labels(LabelFilter::new(LabelOperator::Some, vec![]))),
        Err(EarthQubeError::BadRequest(_))
    ));
    assert!(matches!(eq.submit_feedback("  ", None), Err(EarthQubeError::BadRequest(_))));
    // Valid feedback still works afterwards.
    eq.submit_feedback("works end to end", Some("reaction")).unwrap();
    assert_eq!(eq.list_feedback().unwrap().len(), 1);
}

/// A radius arrives from the wire unvalidated: past the code width, up to
/// `u32::MAX`, it must answer what the width answers — byte for byte, with
/// no overflow — on the bare engine, on the server and through the client.
#[test]
fn a_radius_past_the_code_width_answers_as_the_width_on_every_facade() {
    let (eq, archive) = build_earthqube(60, 107);
    let mut config = EarthQubeConfig::fast(107);
    config.milan.epochs = 8;
    let server = Arc::new(QueryServer::build(&archive, config, ServeConfig::default()).unwrap());
    let net = NetServer::bind(Arc::clone(&server), "127.0.0.1:0", 2).unwrap();
    let mut client = EqClient::connect(net.local_addr()).unwrap();
    let bits = eq.cbir().unwrap().code_bits();
    let name = &archive.patches()[3].meta.name;
    let query = ImageQuery::all();
    let bytes = |answer: &FilteredResponse| {
        let mut out = agoraeo::wire::Writer::new();
        response_to_payload(&answer.response).encode(&mut out);
        out.as_bytes().to_vec()
    };
    let mode = PrefilterMode::Auto;
    let width = eq.similar_within_filtered(name, bits, &query, mode).unwrap();
    // Every other image is within the width.
    assert_eq!(width.response.total(), archive.len() - 1);
    for radius in [bits, bits + 1, u32::MAX] {
        let answers = [
            eq.similar_within_filtered(name, radius, &query, mode).unwrap(),
            server.similar_within_filtered(name, radius, &query, mode).unwrap(),
            client.similar_within_filtered(name, radius, &query, mode).unwrap(),
        ];
        for (facade, answer) in ["engine", "server", "client"].iter().zip(&answers) {
            assert_eq!(answer, &width, "{facade} at radius {radius}");
            assert_eq!(bytes(answer), bytes(&width), "{facade} bytes at radius {radius}");
        }
    }
    net.shutdown();
}

#[test]
fn agora_registry_exposes_the_full_cbir_pipeline() {
    let (eq, _) = build_earthqube(30, 106);
    let registry = eq.registry();
    let pipeline = registry.pipeline("earthqube-cbir").expect("pipeline registered");
    assert_eq!(pipeline.stages.len(), 4);
    for stage in &pipeline.stages {
        assert!(registry.get(stage).is_some(), "pipeline stage {stage} must be a registered asset");
    }
    assert_eq!(registry.discover_by_tag("cbir").len(), 2);
}
