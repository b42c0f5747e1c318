//! An independent reference for the one query core.
//!
//! [`EarthQube`] (one index shard, no cache) and [`QueryServer`] (eight
//! shards, cached) run the same ranking code, so comparing them to each
//! other no longer proves that code right.  This suite compares both to a
//! brute-force ranking written here: every archive code sorted by
//! (Hamming distance, dense id), the query image dropped, the first `k`
//! taken or the radius applied; the filtered forms restricted to the images
//! whose metadata passes a predicate written out by hand.

use std::sync::OnceLock;

use eq_bigearthnet::labels::Label;
use eq_bigearthnet::patch::{Patch, PatchMetadata, Season};
use eq_bigearthnet::{Archive, ArchiveGenerator, Country, GeneratorConfig};
use eq_earthqube::{
    EarthQube, EarthQubeConfig, EarthQubeError, ImageQuery, LabelFilter, LabelOperator,
    PrefilterMode, QueryServer, SearchResponse, ServeConfig,
};
use eq_hashindex::BinaryCode;

const PATCHES: usize = 150;
const MODES: [PrefilterMode; 3] =
    [PrefilterMode::Auto, PrefilterMode::ForceBitmap, PrefilterMode::ForcePostFilter];

struct World {
    archive: Archive,
    engine: EarthQube,
    server: QueryServer,
    /// Every archive code, by dense id.
    codes: Vec<BinaryCode>,
}

/// Built once: the tests randomise nothing and only read.
fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(build_world)
}

fn build_world() -> World {
    let archive = ArchiveGenerator::new(GeneratorConfig::tiny(PATCHES, 161)).unwrap().generate();
    let mut config = EarthQubeConfig::fast(161);
    config.milan.epochs = 3;
    let engine = EarthQube::build(&archive, config.clone()).unwrap();
    let server = QueryServer::build(&archive, config, ServeConfig::default()).unwrap();
    assert_eq!(server.stats().archive_size, PATCHES, "the server indexes every patch once");
    let cbir = engine.cbir().unwrap();
    let codes = archive.patches().iter().map(|p| cbir.code_of(&p.meta.name).unwrap().clone());
    World { codes: codes.collect(), archive, engine, server }
}

/// A filter as the query panel states it, and as a plain predicate.
type Filter = (ImageQuery, fn(&PatchMetadata) -> bool);

fn filters() -> Vec<Filter> {
    vec![
        (ImageQuery::all(), |_| true),
        (ImageQuery::all().with_seasons(vec![Season::Summer, Season::Winter]), |m| {
            matches!(m.season(), Season::Summer | Season::Winter)
        }),
        (ImageQuery::all().with_countries(vec![Country::Austria, Country::Portugal]), |m| {
            matches!(m.country, Country::Austria | Country::Portugal)
        }),
        (
            ImageQuery::all()
                .with_countries(vec![Country::Finland, Country::Serbia, Country::Austria])
                .with_labels(LabelFilter::new(
                    LabelOperator::Some,
                    vec![Label::MixedForest, Label::ConiferousForest],
                )),
            |m| {
                matches!(m.country, Country::Finland | Country::Serbia | Country::Austria)
                    && (m.labels.contains(Label::MixedForest)
                        || m.labels.contains(Label::ConiferousForest))
            },
        ),
        (
            ImageQuery::all()
                .with_seasons(vec![Season::Spring])
                .with_countries(vec![Country::Ireland]),
            |m| m.season() == Season::Spring && m.country == Country::Ireland,
        ),
    ]
}

impl World {
    /// (name, distance) of every image passing `keep`, except the one with
    /// dense id `skip`, by (distance to `code`, dense id).
    fn ranking(
        &self,
        code: &BinaryCode,
        skip: Option<usize>,
        keep: fn(&PatchMetadata) -> bool,
    ) -> Vec<(String, u32)> {
        let mut ranked: Vec<(u32, usize)> = (0..self.codes.len())
            .filter(|&id| Some(id) != skip && keep(&self.archive.patches()[id].meta))
            .map(|id| (code.hamming_distance(&self.codes[id]), id))
            .collect();
        ranked.sort_unstable();
        ranked
            .into_iter()
            .map(|(d, id)| (self.archive.patches()[id].meta.name.clone(), d))
            .collect()
    }

    fn patch(&self, id: usize) -> &Patch {
        &self.archive.patches()[id]
    }
}

fn hits(response: &SearchResponse) -> Vec<(String, u32)> {
    assert!(response.plan.is_none(), "a CBIR answer carries no metadata plan");
    assert_eq!(response.statistics.image_count(), response.total());
    response.panel.entries().iter().map(|e| (e.name.clone(), e.distance.unwrap())).collect()
}

fn first(k: usize, mut ranked: Vec<(String, u32)>) -> Vec<(String, u32)> {
    ranked.truncate(k);
    ranked
}

#[test]
fn similar_to_is_the_brute_force_ranking_on_both_facades() {
    let w = world();
    for id in [0, 7, 64, PATCHES - 1] {
        let name = &w.patch(id).meta.name;
        let reference = w.ranking(&w.codes[id], Some(id), |_| true);
        for k in [0, 1, 10, PATCHES - 1, PATCHES, PATCHES + 5] {
            let expected = first(k, reference.clone());
            assert_eq!(hits(&w.engine.similar_to(name, k).unwrap()), expected, "engine, k={k}");
            assert_eq!(hits(&w.server.similar_to(name, k).unwrap()), expected, "server, k={k}");
        }
    }
}

#[test]
fn search_by_code_and_by_new_example_are_the_brute_force_ranking() {
    let w = world();
    let external = ArchiveGenerator::new(GeneratorConfig::tiny(3, 909)).unwrap().generate();
    for patch in external.patches() {
        // An upload is not in the archive: nothing is dropped.
        let code = w.engine.cbir().unwrap().model().hash_patch(patch);
        let reference = w.ranking(&code, None, |_| true);
        for k in [0, 5, PATCHES, PATCHES + 1] {
            let expected = first(k, reference.clone());
            let engine = w.engine.search_by_new_example(patch, k).unwrap();
            assert_eq!(hits(&engine), expected, "engine, k={k}");
            let server = w.server.search_by_new_example(patch, k).unwrap();
            assert_eq!(hits(&server), expected, "server new example, k={k}");
            assert_eq!(hits(&w.server.search_by_code(&code, k).unwrap()), expected);
        }
    }
    // An archive image's own code finds the image itself first.
    let own = w.server.search_by_code(&w.codes[3], 4).unwrap();
    assert_eq!(hits(&own), first(4, w.ranking(&w.codes[3], None, |_| true)));
    assert_eq!(hits(&own)[0], (w.patch(3).meta.name.clone(), 0));
}

#[test]
fn similar_to_filtered_is_the_brute_force_ranking_of_the_matching_images() {
    let w = world();
    for (query, keep) in filters() {
        for id in [2, 90] {
            let name = &w.patch(id).meta.name;
            let reference = w.ranking(&w.codes[id], Some(id), keep);
            let matching = reference.len() + usize::from(keep(&w.patch(id).meta));
            for k in [1, 8, PATCHES] {
                let expected = first(k, reference.clone());
                for mode in MODES {
                    let engine = w.engine.similar_to_filtered(name, k, &query, mode).unwrap();
                    assert_eq!(hits(&engine.response), expected, "engine, k={k}, {mode:?}");
                    assert_eq!(engine.plan.matching, matching);
                    // Twice: the repeat is answered from a cache (the
                    // filter's from the second `k` on, the result's here).
                    for pass in ["first", "repeat"] {
                        let server = w.server.similar_to_filtered(name, k, &query, mode).unwrap();
                        assert_eq!(hits(&server.response), expected, "{pass}, k={k}, {mode:?}");
                        assert_eq!(server.plan, engine.plan, "{pass}, k={k}, {mode:?}");
                    }
                }
            }
        }
    }
    assert_caches_answered(&w.server);
}

/// The suites above must not pass by never reaching a cache.
fn assert_caches_answered(server: &QueryServer) {
    let stats = server.stats();
    assert!(stats.cache_hits > 0, "no result-cache hit: {stats:?}");
    assert!(stats.filter_cache_hits > 0, "no resolved-filter-cache hit: {stats:?}");
}

#[test]
fn similar_within_filtered_is_the_brute_force_radius_list() {
    let w = world();
    let bits = w.engine.cbir().unwrap().code_bits();
    for (query, keep) in filters() {
        for id in [0, 41] {
            let name = &w.patch(id).meta.name;
            let reference = w.ranking(&w.codes[id], Some(id), keep);
            for radius in [0, 2, 6, 12, bits / 3, bits] {
                let expected: Vec<_> =
                    reference.iter().filter(|(_, d)| *d <= radius).cloned().collect();
                for mode in MODES {
                    let engine =
                        w.engine.similar_within_filtered(name, radius, &query, mode).unwrap();
                    assert_eq!(hits(&engine.response), expected, "engine, r={radius}, {mode:?}");
                    for pass in ["first", "repeat"] {
                        let server =
                            w.server.similar_within_filtered(name, radius, &query, mode).unwrap();
                        assert_eq!(
                            hits(&server.response),
                            expected,
                            "{pass}, r={radius}, {mode:?}"
                        );
                        assert_eq!(server.plan, engine.plan, "{pass}, r={radius}, {mode:?}");
                    }
                }
            }
        }
    }
    // The whole code width under the match-all filter is everyone else.
    let all = w.engine.similar_within_filtered(
        &w.patch(0).meta.name,
        bits,
        &ImageQuery::all(),
        PrefilterMode::Auto,
    );
    assert_eq!(all.unwrap().response.total(), PATCHES - 1);
    assert_caches_answered(&w.server);
}

/// The query panel against a hand-written predicate: the matching images
/// in archive order, on both façades, on the miss and on the repeat.
#[test]
fn search_lists_the_matching_images_in_archive_order() {
    let w = world();
    for (query, keep) in filters() {
        let expected: Vec<&str> = w
            .archive
            .patches()
            .iter()
            .filter(|p| keep(&p.meta))
            .map(|p| p.meta.name.as_str())
            .collect();
        let names = |response: &SearchResponse| -> Vec<String> {
            assert!(response.panel.entries().iter().all(|e| e.distance.is_none()));
            assert_eq!(response.plan.as_ref().unwrap().matched, expected.len());
            assert_eq!(response.statistics.image_count(), expected.len());
            response.panel.entries().iter().map(|e| e.name.clone()).collect()
        };
        let engine = w.engine.search(&query).unwrap();
        assert_eq!(names(&engine), expected, "engine, {query:?}");
        for pass in ["first", "repeat"] {
            assert_eq!(w.server.search(&query).unwrap(), engine, "{pass}, {query:?}");
        }
    }
}

/// `k + 1` used to be computed unchecked and the selection reserved that
/// much: `usize::MAX` overflowed (a panic in debug builds, an empty answer
/// in release builds).
#[test]
fn an_unbounded_k_returns_every_other_matching_image() {
    let w = world();
    let name = &w.patch(5).meta.name;
    let everyone = w.ranking(&w.codes[5], Some(5), |_| true);
    assert_eq!(everyone.len(), PATCHES - 1);
    assert_eq!(hits(&w.engine.similar_to(name, usize::MAX).unwrap()), everyone);
    assert_eq!(hits(&w.server.similar_to(name, usize::MAX).unwrap()), everyone);
    assert_eq!(hits(&w.server.search_by_code(&w.codes[5], usize::MAX).unwrap()).len(), PATCHES);

    let (query, keep) = filters().swap_remove(2);
    let matching = w.ranking(&w.codes[5], Some(5), keep);
    assert!(!matching.is_empty() && matching.len() < PATCHES - 1);
    for mode in MODES {
        let engine = w.engine.similar_to_filtered(name, usize::MAX, &query, mode).unwrap();
        assert_eq!(hits(&engine.response), matching, "engine, {mode:?}");
        let server = w.server.similar_to_filtered(name, usize::MAX, &query, mode).unwrap();
        assert_eq!(hits(&server.response), matching, "server, {mode:?}");
    }
}

#[test]
fn an_unknown_query_image_is_a_typed_error_on_both_facades() {
    let w = world();
    let all = ImageQuery::all();
    let unknown = |r: Result<(), EarthQubeError>| matches!(r, Err(EarthQubeError::UnknownImage(_)));
    assert!(unknown(w.engine.similar_to("ghost", 3).map(drop)));
    assert!(unknown(w.server.similar_to("ghost", 3).map(drop)));
    for mode in MODES {
        assert!(unknown(w.engine.similar_to_filtered("ghost", 3, &all, mode).map(drop)));
        assert!(unknown(w.server.similar_to_filtered("ghost", 3, &all, mode).map(drop)));
        assert!(unknown(w.engine.similar_within_filtered("ghost", 3, &all, mode).map(drop)));
        assert!(unknown(w.server.similar_within_filtered("ghost", 3, &all, mode).map(drop)));
    }
}

/// Guards the suite itself: the filters select proper subsets, distances
/// spread over the radii swept, and ties exist for the dense id to break.
#[test]
fn the_reference_exercises_filters_radii_and_ties() {
    let w = world();
    let selected: Vec<usize> = filters()
        .iter()
        .map(|(_, keep)| w.archive.patches().iter().filter(|p| keep(&p.meta)).count())
        .collect();
    assert_eq!(selected[0], PATCHES);
    assert!(selected[1..4].iter().all(|&n| 0 < n && n < PATCHES), "{selected:?}");

    let ranking = w.ranking(&w.codes[0], Some(0), |_| true);
    let within = |r: u32| ranking.iter().filter(|(_, d)| *d <= r).count();
    let bits = w.engine.cbir().unwrap().code_bits();
    assert!(0 < within(12) && within(12) < within(bits / 3) && within(bits / 3) < PATCHES - 1);
    assert!(ranking.windows(2).any(|pair| pair[0].1 == pair[1].1), "no tie to break");
}
