//! The five workloads: their seeded request streams, the query-panel pool
//! and the brute-force oracle every answer is checked against.

use std::collections::HashSet;

use eq_bigearthnet::patch::{AcquisitionDate, PatchMetadata, Season};
use eq_bigearthnet::Label;
use eq_earthqube::{ImageQuery, LabelFilter, LabelOperator};
use eq_geo::{BBox, Circle, GeoShape};
use eq_hashindex::BinaryCode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Neighbours asked of every similarity search.
pub const K: usize = 20;
/// Hamming radius of `similar_within_filtered`, out of 64 code bits.
pub const RADIUS: u32 = 12;
/// Names the hot workloads draw from: half the 256-entry result cache.
pub const HOT_NAMES: usize = 128;
/// The pool repeats geo, geo, attribute.  `filtered_qbe` and the traced
/// run's probe mix draw on all of it; `panel` times the geo queries only.
/// `search` answers an attribute query by a full scan of the documents, and
/// that scan is the one operation whose time doubles for minutes at a stretch
/// on the shared sandbox.  With a third of attribute queries, ten `panel`
/// runs had a median throughput of 185 requests a second where the ten before
/// them had 333, and one binary with one seed gave 180 and 293 eighteen
/// minutes apart (README, run history).  ISSUE 13 moves what two sets of runs
/// do not agree on to the per-layer list: the mix measures the scan as
/// `eq_docstore.find_scan_us`.
pub const POOL_CYCLE: usize = 3;
/// Share of `qbe_cold` requests that upload a new example.
const NEW_EXAMPLE_SHARE: f64 = 0.15;
/// Share of `filtered_qbe` requests that are radius searches.
const WITHIN_SHARE: f64 = 0.30;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QbeCold,
    QbeHot,
    Panel,
    FilteredQbe,
    IngestReads,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::QbeCold,
        Workload::QbeHot,
        Workload::Panel,
        Workload::FilteredQbe,
        Workload::IngestReads,
    ];

    /// The workloads `BENCHMARK.json` lists, which the driver runs and
    /// bounds.  `ingest_reads` is not one of them: its times hang on the
    /// shared disk's fsync, which the speed probe cannot follow, and spread
    /// 27-36 % in the driver's own runs.  It runs by hand, with every check.
    pub const GATED: [Workload; 4] =
        [Workload::QbeCold, Workload::QbeHot, Workload::Panel, Workload::FilteredQbe];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QbeCold => "qbe_cold",
            Workload::QbeHot => "qbe_hot",
            Workload::Panel => "panel",
            Workload::FilteredQbe => "filtered_qbe",
            Workload::IngestReads => "ingest_reads",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists; `BENCHMARK.json` carries the same line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::QbeCold => {
                "similar-image searches over all names plus 15% uploads: every request misses \
                 the cache, so scan, assembly and MiLaN inference do the work"
            }
            Workload::QbeHot => {
                "Zipf over 128 names: every request is a cache hit, so the frame codec, the \
                 poller-worker hand-off and the cache probe do the work; the scan is bypassed"
            }
            Workload::Panel => {
                "1366 distinct geo query-panel searches with large answers: the docstore planner's \
                 geo index, result-panel and statistics assembly and response encode do the work; \
                 the Hamming index is idle"
            }
            Workload::FilteredQbe => {
                "filtered k-NN and radius searches over the panel's filters: prefilter compile, \
                 mask flatten and masked kernels do the work; unmasked kernel and cache are \
                 bypassed"
            }
            Workload::IngestReads => {
                "a 200/s durable ingest stream beside hot reads: WAL fsync, catalog write-lock \
                 stalls and whole-cache invalidation do the work; ends with recover and a \
                 lost-write check"
            }
        }
    }
}

/// One request, as indexes into the corpus names, the held-out patches and
/// the query pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    Similar { name: u32 },
    NewExample { held: u32 },
    Panel { query: u32 },
    SimilarFiltered { name: u32, query: u32 },
    WithinFiltered { name: u32, query: u32 },
}

/// Everything the request streams of one run are drawn from.  It depends on
/// the seed and on sizes only, never on archive content.
#[derive(Debug)]
pub struct Plan {
    workload: Workload,
    seed: u64,
    held: u32,
    pool: u32,
    /// Seeded permutation of the corpus ids.
    permutation: Vec<u32>,
    /// Cumulative Zipf(1.0) weights over the first [`HOT_NAMES`] of it.
    zipf_cdf: Vec<f64>,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, corpus: usize, held: usize, pool: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7065_726D);
        let mut permutation: Vec<u32> = (0..corpus as u32).collect();
        for i in (1..permutation.len()).rev() {
            permutation.swap(i, rng.gen_range(0..=i));
        }
        let hot = HOT_NAMES.min(corpus);
        let total: f64 = (1..=hot).map(|rank| 1.0 / rank as f64).sum();
        let mut acc = 0.0;
        let zipf_cdf = (1..=hot)
            .map(|rank| {
                acc += 1.0 / rank as f64 / total;
                acc
            })
            .collect();
        Self { workload, seed, held: held as u32, pool: pool as u32, permutation, zipf_cdf }
    }

    /// The request stream of one of `clients` closed-loop clients.
    pub fn stream(&self, client: usize, clients: usize) -> Stream<'_> {
        // `panel` clients each walk their own half of the pool's geo
        // queries; the others share one walk of the permutation, a stride
        // apart.
        let (position, stride) = match self.workload {
            Workload::Panel => (client * (self.geo_queries() / clients), 1),
            _ => (client, clients),
        };
        Stream {
            plan: self,
            rng: StdRng::seed_from_u64(self.seed ^ (0x636C_6965 + client as u64)),
            position,
            stride,
        }
    }

    /// How many of the pool's queries are geo queries: all but the last of
    /// every full [`POOL_CYCLE`].
    fn geo_queries(&self) -> usize {
        let pool = self.pool as usize;
        pool - pool / POOL_CYCLE
    }

    /// Corpus ids the hot workloads read, most popular first.
    #[cfg(test)]
    pub fn hot_names(&self) -> &[u32] {
        &self.permutation[..self.zipf_cdf.len()]
    }

    /// Corpus ids from the far end of the permutation, for requests that
    /// only exist to push every workload entry out of the result cache.
    pub fn filler_names(&self, n: usize) -> &[u32] {
        &self.permutation[self.permutation.len().saturating_sub(n)..]
    }

    /// FNV-1a over the first `n` requests of each client's stream.
    pub fn stream_hash(&self, clients: usize, n: usize) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for client in 0..clients {
            let mut stream = self.stream(client, clients);
            for _ in 0..n {
                let (tag, a, b) = match stream.next_op() {
                    Op::Similar { name } => (0, name, 0),
                    Op::NewExample { held } => (1, held, 0),
                    Op::Panel { query } => (2, query, 0),
                    Op::SimilarFiltered { name, query } => (3, name, query),
                    Op::WithinFiltered { name, query } => (4, name, query),
                };
                mix(tag);
                mix(a as u64);
                mix(b as u64);
            }
        }
        hash
    }
}

#[derive(Debug)]
pub struct Stream<'p> {
    plan: &'p Plan,
    rng: StdRng,
    /// Walks the permutation (or the pool) so that the clients together
    /// visit every entry once before any repeats.
    position: usize,
    stride: usize,
}

impl Stream<'_> {
    pub fn next_op(&mut self) -> Op {
        let plan = self.plan;
        let position = self.position;
        self.position += self.stride;
        let walk = plan.permutation[position % plan.permutation.len()];
        match plan.workload {
            Workload::QbeCold => {
                if self.rng.gen_bool(NEW_EXAMPLE_SHARE) {
                    Op::NewExample { held: self.rng.gen_range(0..plan.held) }
                } else {
                    Op::Similar { name: walk }
                }
            }
            Workload::QbeHot | Workload::IngestReads => {
                let u: f64 = self.rng.gen_range(0.0..1.0);
                let rank = plan.zipf_cdf.partition_point(|&c| c < u).min(plan.zipf_cdf.len() - 1);
                Op::Similar { name: plan.permutation[rank] }
            }
            Workload::Panel => {
                // The n-th geo query of the pool: skip the attribute slots.
                let nth = position % plan.geo_queries();
                Op::Panel { query: (nth + nth / (POOL_CYCLE - 1)) as u32 }
            }
            Workload::FilteredQbe => {
                let query = self.rng.gen_range(0..plan.pool);
                if self.rng.gen_bool(WITHIN_SHARE) {
                    Op::WithinFiltered { name: walk, query }
                } else {
                    Op::SimilarFiltered { name: walk, query }
                }
            }
        }
    }
}

/// A fixed blend of every request kind, so that the traced run measures
/// every layer whatever the workload: `each` of the four similarity kinds
/// and `each / 4` query-panel searches.
pub fn probe_mix(plan: &Plan, each: usize) -> Vec<Op> {
    let names = plan.filler_names(4 * each);
    let mut ops = Vec::new();
    for i in 0..each {
        let query = (i as u32 * 7) % plan.pool;
        ops.push(Op::Similar { name: names[4 * i] });
        ops.push(Op::NewExample { held: i as u32 % plan.held });
        ops.push(Op::SimilarFiltered { name: names[4 * i + 1], query });
        ops.push(Op::WithinFiltered { name: names[4 * i + 2], query });
        if i % 4 == 0 {
            // Consecutive pool entries, so both query kinds are present.
            ops.push(Op::Panel { query: (i / 4) as u32 % plan.pool });
        }
    }
    ops
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// Whether a patch satisfies a query-panel request, straight from the
/// metadata (no document store, no index).
pub fn matches(query: &ImageQuery, meta: &PatchMetadata) -> bool {
    (query.countries.is_empty() || query.countries.contains(&meta.country))
        && (query.seasons.is_empty() || query.seasons.contains(&meta.season()))
        && query.date_range.is_none_or(|(from, to)| from <= meta.date && meta.date <= to)
        && query.labels.as_ref().is_none_or(|filter| filter.matches(meta.labels))
        && query.shape.as_ref().is_none_or(|shape| shape.contains(meta.bbox.center()))
}

/// How far beyond a shape's bounding box the oracle looks for matches.
const COVER_MARGIN_DEG: f64 = 0.05;

/// Dense ids of the patches matching `query`, ascending.
///
/// `None` for a query the store itself answers two ways: a circle's
/// `bounding_box()` is a hair narrower than the circle (the two use
/// different kilometres per degree), so the geo index behind `search` drops
/// a match on the rim that the prefilter behind `similar_to_filtered`
/// keeps.  The pool skips such queries; the benchmark may not fix them.
pub fn matching_ids(query: &ImageQuery, metas: &[PatchMetadata]) -> Option<Vec<u32>> {
    let cover = query.shape.as_ref().map(GeoShape::bounding_box);
    // Only patches near the shape pay for the exact test.
    let near = cover.as_ref().map(|c| c.expand(COVER_MARGIN_DEG));
    let mut ids = Vec::new();
    for (id, meta) in metas.iter().enumerate() {
        let center = meta.bbox.center();
        if near.as_ref().is_none_or(|n| n.contains(center)) && matches(query, meta) {
            if cover.as_ref().is_some_and(|c| !c.contains(center)) {
                return None;
            }
            ids.push(id as u32);
        }
    }
    Some(ids)
}

/// The `k` ids nearest to `query` by (Hamming distance, id), drawn from
/// `among` (every id when `None`) without `exclude`.
pub fn knn(
    codes: &[BinaryCode],
    query: &BinaryCode,
    k: usize,
    among: Option<&[u32]>,
    exclude: Option<u32>,
) -> Vec<(u32, u32)> {
    let mut ranked = within(codes, query, u32::MAX, among, exclude);
    ranked.truncate(k);
    ranked
}

/// Every id within `radius` of `query`, ordered by (distance, id), drawn
/// from `among` (every id when `None`) without `exclude`.
pub fn within(
    codes: &[BinaryCode],
    query: &BinaryCode,
    radius: u32,
    among: Option<&[u32]>,
    exclude: Option<u32>,
) -> Vec<(u32, u32)> {
    let all: Vec<u32>;
    let ids = match among {
        Some(ids) => ids,
        None => {
            all = (0..codes.len() as u32).collect();
            &all
        }
    };
    let mut ranked: Vec<(u32, u32)> = ids
        .iter()
        .filter(|&&id| Some(id) != exclude)
        .map(|&id| (id, codes[id as usize].hamming_distance(query)))
        .filter(|&(_, distance)| distance <= radius)
        .collect();
    ranked.sort_unstable_by_key(|&(id, distance)| (distance, id));
    ranked
}

// ---------------------------------------------------------------------------
// Query-panel pool
// ---------------------------------------------------------------------------

/// One query-panel request with the dense ids it must return.
#[derive(Debug, Clone)]
pub struct PoolQuery {
    pub query: ImageQuery,
    /// Ascending.
    pub matches: Vec<u32>,
}

/// The twelve months the generator draws acquisition dates from.
fn month(index: i32) -> (u16, u8) {
    let index = index.clamp(0, 11) as u8;
    if index < 7 {
        (2017, 6 + index)
    } else {
        (2018, index - 6)
    }
}

fn month_index(date: AcquisitionDate) -> i32 {
    (date.year as i32 - 2017) * 12 + date.month as i32 - 6
}

fn attribute_query(rng: &mut StdRng, basis: &PatchMetadata) -> ImageQuery {
    let mut seasons = vec![basis.season()];
    if rng.gen_bool(0.5) {
        let other = Season::ALL[rng.gen_range(0..Season::ALL.len())];
        if other != seasons[0] {
            seasons.push(other);
        }
    }
    let own: Vec<Label> = basis.labels.iter().collect();
    let (operator, labels) = match rng.gen_range(0..3u32) {
        0 => {
            let mut labels = vec![own[rng.gen_range(0..own.len())]];
            for _ in 0..rng.gen_range(0..3u32) {
                let extra = Label::ALL[rng.gen_range(0..Label::COUNT)];
                if !labels.contains(&extra) {
                    labels.push(extra);
                }
            }
            (LabelOperator::Some, labels)
        }
        1 => (LabelOperator::Exactly, own),
        _ => {
            let keep = rng.gen_range(1..=own.len().min(2));
            let start = rng.gen_range(0..own.len());
            let labels = (0..keep).map(|i| own[(start + i) % own.len()]).collect();
            (LabelOperator::AtLeastAndMore, labels)
        }
    };
    let at = month_index(basis.date);
    let (from_year, from_month) = month(at - rng.gen_range(0..=3));
    let (to_year, to_month) = month(at + rng.gen_range(0..=3));
    ImageQuery::all()
        .with_countries(vec![basis.country])
        .with_seasons(seasons)
        .with_labels(LabelFilter::new(operator, labels))
        .with_date_range(
            AcquisitionDate::new(from_year, from_month, 1).expect("a valid first of the month"),
            AcquisitionDate::new(to_year, to_month, 28).expect("every month has a 28th"),
        )
}

fn geo_query(rng: &mut StdRng, basis: &PatchMetadata) -> ImageQuery {
    let center = basis.bbox.center();
    let shape = if rng.gen_bool(0.5) {
        let radius_km = rng.gen_range(10.0..50.0);
        GeoShape::Circle(Circle::new(center, radius_km).expect("a positive radius"))
    } else {
        let (w, h): (f64, f64) = (rng.gen_range(0.2..1.0), rng.gen_range(0.2..1.0));
        let rect = BBox::new(
            center.lon - w / 2.0,
            center.lat - h / 2.0,
            center.lon + w / 2.0,
            center.lat + h / 2.0,
        );
        GeoShape::Rect(rect.expect("the countries lie far from the poles and the antimeridian"))
    };
    ImageQuery::all().with_shape(shape)
}

/// Draws `size` distinct query-panel requests, two geo then one by
/// attributes ([`POOL_CYCLE`]), each built around a random patch and kept
/// only if it matches between `min_matches` and `max_matches` patches.
pub fn panel_pool(
    metas: &[PatchMetadata],
    seed: u64,
    size: usize,
    min_matches: usize,
    max_matches: usize,
) -> Vec<PoolQuery> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x706F_6F6C);
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(size);
    while pool.len() < size {
        let basis = &metas[rng.gen_range(0..metas.len())];
        let query = if pool.len() % POOL_CYCLE == POOL_CYCLE - 1 {
            attribute_query(&mut rng, basis)
        } else {
            geo_query(&mut rng, basis)
        };
        let Some(matches) = matching_ids(&query, metas) else { continue };
        if (min_matches..=max_matches).contains(&matches.len()) && seen.insert(format!("{query:?}"))
        {
            pool.push(PoolQuery { query, matches });
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_bigearthnet::{ArchiveGenerator, GeneratorConfig};

    fn plan(workload: Workload, seed: u64) -> Plan {
        Plan::new(workload, seed, 5000, 100, 64)
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for workload in Workload::ALL {
            let a = plan(workload, 1).stream_hash(2, 500);
            assert_eq!(a, plan(workload, 1).stream_hash(2, 500), "{workload:?}");
            if workload != Workload::Panel {
                // `panel` walks the pool in order; its seed picks the pool.
                assert_ne!(a, plan(workload, 2).stream_hash(2, 500), "{workload:?}");
            }
        }
        assert_ne!(
            plan(Workload::QbeCold, 1).stream_hash(2, 500),
            plan(Workload::QbeHot, 1).stream_hash(2, 500)
        );
    }

    #[test]
    fn cold_clients_cover_the_permutation_without_repeats() {
        let plan = plan(Workload::QbeCold, 3);
        let mut seen = HashSet::new();
        let mut uploads = 0;
        for client in 0..2 {
            let mut stream = plan.stream(client, 2);
            for _ in 0..2500 {
                match stream.next_op() {
                    Op::Similar { name } => assert!(seen.insert(name), "repeat of {name}"),
                    Op::NewExample { held } => {
                        assert!(held < 100);
                        uploads += 1;
                    }
                    op => panic!("unexpected {op:?}"),
                }
            }
        }
        assert!((500..1000).contains(&uploads), "{uploads} uploads of 5000");
    }

    #[test]
    fn panel_clients_walk_disjoint_halves_of_the_geo_queries() {
        let plan = Plan::new(Workload::Panel, 6, 5000, 100, 2048);
        let firsts: Vec<Vec<Op>> = (0..2)
            .map(|c| {
                let mut stream = plan.stream(c, 2);
                (0..683).map(|_| stream.next_op()).collect()
            })
            .collect();
        assert_eq!(firsts[0][..4], [0, 1, 3, 4].map(|query| Op::Panel { query }));
        assert_eq!(firsts[1][..3], [1024, 1026, 1027].map(|query| Op::Panel { query }));
        let all: HashSet<u32> = firsts
            .iter()
            .flatten()
            .map(|op| match op {
                Op::Panel { query } => *query,
                op => panic!("unexpected {op:?}"),
            })
            .collect();
        // Every geo slot once, no attribute slot.
        assert_eq!(all.len(), 1366);
        assert!(all.iter().all(|q| *q < 2048 && *q as usize % POOL_CYCLE != POOL_CYCLE - 1));
    }

    #[test]
    fn hot_stream_is_skewed_over_the_hot_names() {
        let plan = plan(Workload::QbeHot, 4);
        let hot = plan.hot_names();
        assert_eq!(hot.len(), HOT_NAMES);
        let mut stream = plan.stream(0, 2);
        let mut top = 0;
        for _ in 0..10_000 {
            let Op::Similar { name } = stream.next_op() else { panic!("hot ops are Similar") };
            assert!(hot.contains(&name));
            top += usize::from(name == hot[0]);
        }
        // Zipf(1.0) over 128 names gives the first about 18 %.
        assert!((1500..2200).contains(&top), "{top}");
        assert!(plan.filler_names(64).iter().all(|n| !hot.contains(n)));
    }

    #[test]
    fn probe_mix_holds_every_request_kind() {
        let plan = plan(Workload::QbeHot, 5);
        let mix = probe_mix(&plan, 8);
        let count = |f: fn(&Op) -> bool| mix.iter().filter(|op| f(op)).count();
        assert_eq!(count(|op| matches!(op, Op::Similar { .. })), 8);
        assert_eq!(count(|op| matches!(op, Op::NewExample { .. })), 8);
        assert_eq!(count(|op| matches!(op, Op::SimilarFiltered { .. })), 8);
        assert_eq!(count(|op| matches!(op, Op::WithinFiltered { .. })), 8);
        assert_eq!(count(|op| matches!(op, Op::Panel { .. })), 2);
    }

    #[test]
    fn pool_queries_are_distinct_valid_and_agree_with_the_document_filter() {
        let metas =
            ArchiveGenerator::new(GeneratorConfig::tiny(3000, 9)).unwrap().generate_metadata_only();
        let pool = panel_pool(&metas, 11, 40, 2, 300);
        assert_eq!(pool.len(), 40);
        let distinct: HashSet<String> = pool.iter().map(|p| format!("{:?}", p.query)).collect();
        assert_eq!(distinct.len(), 40);
        for (i, entry) in pool.iter().enumerate() {
            entry.query.validate().unwrap();
            assert_eq!(entry.query.shape.is_none(), i % POOL_CYCLE == POOL_CYCLE - 1);
            assert!((2..=300).contains(&entry.matches.len()));
            // The oracle agrees with the store's own predicate.
            let filter = entry.query.to_filter();
            let by_filter: Vec<u32> = metas
                .iter()
                .enumerate()
                .filter(|(_, m)| filter.matches(&eq_earthqube::metadata_document(m)))
                .map(|(id, _)| id as u32)
                .collect();
            assert_eq!(entry.matches, by_filter, "query {i}: {:?}", entry.query);
        }
        assert_eq!(pool.len(), panel_pool(&metas, 11, 40, 2, 300).len());
        assert_ne!(
            format!("{:?}", pool[0].query),
            format!("{:?}", panel_pool(&metas, 12, 40, 2, 300)[0].query)
        );
    }

    #[test]
    fn a_match_outside_the_shapes_own_bounding_box_disqualifies_the_query() {
        let metas =
            ArchiveGenerator::new(GeneratorConfig::tiny(1, 9)).unwrap().generate_metadata_only();
        let patch = metas[0].bbox.center();
        let west = eq_geo::Point::new_unchecked(patch.lon - 0.177, patch.lat);
        let distance = eq_geo::haversine_km(west, patch);
        let circle = |radius_km: f64| Circle::new(west, radius_km).unwrap();
        let ids =
            |c: Circle| matching_ids(&ImageQuery::all().with_shape(GeoShape::Circle(c)), &metas);

        assert_eq!(ids(circle(distance * 2.0)), Some(vec![0]));
        assert_eq!(ids(circle(distance * 0.5)), Some(vec![]));
        // The patch lies just inside the rim.  Today the circle's own box
        // leaves it out; if the library comes to enclose it, it is a match.
        let rim = circle(distance * 1.0003);
        assert!(rim.contains(patch));
        let enclosed = rim.bounding_box().contains(patch);
        assert_eq!(ids(rim), enclosed.then(|| vec![0]));
    }

    #[test]
    fn knn_and_within_rank_by_distance_then_id() {
        let code = |bits: u64| BinaryCode::from_words(64, vec![bits]);
        let codes = vec![code(0b0000), code(0b0001), code(0b0011), code(0b0001), code(0b1111)];
        let q = code(0b0000);
        assert_eq!(knn(&codes, &q, 3, None, Some(0)), [(1, 1), (3, 1), (2, 2)]);
        assert_eq!(knn(&codes, &q, 9, Some(&[4, 2, 0]), None), [(0, 0), (2, 2), (4, 4)]);
        assert_eq!(within(&codes, &q, 1, None, None), [(0, 0), (1, 1), (3, 1)]);
        assert_eq!(within(&codes, &q, 2, Some(&[2, 4]), Some(2)), []);
    }
}
