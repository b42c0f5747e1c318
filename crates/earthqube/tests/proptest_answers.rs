//! Property: the answer bytes the query core writes from its row table
//! equal the typed reference.  For a random archive (names of random
//! length, random countries, dates and label sets) and a random hit list
//! (empty or not, in any order, no id twice, each row with or without a
//! distance), the body `QueryServer::answer_body` returns must be the
//! encoding of the answer built value by value: one
//! `ResultEntry::from_metadata` per hit, `LabelStatistics::from_label_sets`
//! over their label sets and `ResultPanel::new` for the page size.  Both
//! plan shapes are drawn — a search body with or without a planner report,
//! a filtered body with a filter plan whose counts need not match the hits
//! — at page sizes 0, 1, 50 and 51.  Each case checks the server as built,
//! again after an ingest appended rows to the table, and again after a
//! checkpoint and a recovery rebuilt the table from the records.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use eq_bigearthnet::patch::{AcquisitionDate, Patch, PatchMetadata};
use eq_bigearthnet::{Archive, ArchiveGenerator, Country, GeneratorConfig, LabelSet};
use eq_earthqube::{
    EarthQubeConfig, EarthQubeError, FilterStrategy, FilteredPlan, LabelStatistics, QueryServer,
    ResponseBody, ResultEntry, ResultPanel, ServeConfig,
};
use eq_milan::MilanConfig;
use eq_proto::{AnswerPlan, FilteredPayload, PlanSpec, SearchPayload};
use proptest::prelude::*;

/// The page sizes around both ends of the panel's clamp.
const PAGE_SIZES: [usize; 4] = [0, 1, 50, 51];

/// Every label bit a `LabelSet` can hold.
const LABEL_MASK: u64 = (1 << eq_bigearthnet::Label::COUNT) - 1;

/// A patch's drawn fields: name suffix length, country index, (year,
/// month, day), label bits.
type PatchFields = (usize, usize, (u16, u8, u8), u64);

/// One drawn archive: how many patches are built in, how many ingested
/// after, and the fields each patch gets.
#[derive(Debug, Clone)]
struct ArchiveDraw {
    built: usize,
    ingested: usize,
    page_size: usize,
    fields: Vec<PatchFields>,
}

fn arb_archive() -> impl Strategy<Value = ArchiveDraw> {
    (0usize..12, 1usize..5, 0usize..PAGE_SIZES.len()).prop_flat_map(|(built, ingested, page)| {
        let field = (0usize..40, 0usize..Country::ALL.len(), (2017u16..2019, 1u8..13, 1u8..29))
            .prop_flat_map(|(suffix, country, date)| {
                any::<u64>().prop_map(move |bits| (suffix, country, date, bits & LABEL_MASK))
            });
        proptest::collection::vec(field, built + ingested).prop_map(move |fields| ArchiveDraw {
            built,
            ingested,
            page_size: PAGE_SIZES[page],
            fields,
        })
    })
}

/// A hit list before it meets an archive: raw ids, reduced modulo the
/// archive's size with repeats dropped, and each row's distance.
fn arb_hits() -> impl Strategy<Value = Vec<(u64, Option<u32>)>> {
    let row = (any::<u64>(), any::<bool>(), any::<u32>())
        .prop_map(|(id, has, d)| (id, has.then_some(d % 1_000)));
    proptest::collection::vec(row, 0..40)
}

/// Which body and plan an answer ends with.
#[derive(Debug, Clone)]
enum PlanDraw {
    Search(Option<PlanSpec>),
    Filtered(FilteredPlan),
}

fn arb_plan() -> impl Strategy<Value = PlanDraw> {
    (0u8..4, any::<u64>(), any::<u64>(), any::<bool>(), 0usize..3).prop_map(
        |(shape, a, b, flag, index)| match shape {
            0 => PlanDraw::Search(None),
            1 => PlanDraw::Search(Some(PlanSpec {
                index_used: ["", "country", "country+labels"].get(index).map(|s| s.to_string()),
                scanned: a % 100,
                matched: b % 100,
            })),
            _ => PlanDraw::Filtered(FilteredPlan {
                strategy: if flag {
                    FilterStrategy::BitmapPrefilter
                } else {
                    FilterStrategy::PostFilter
                },
                candidates: (shape == 2).then_some(a % 100),
                residual: flag,
                matching: (b % 100) as usize,
            }),
        },
    )
}

impl PlanDraw {
    fn as_answer_plan(&self) -> AnswerPlan<'_> {
        match self {
            PlanDraw::Search(plan) => AnswerPlan::Search(plan.as_ref()),
            PlanDraw::Filtered(plan) => AnswerPlan::Filtered(*plan),
        }
    }
}

/// The drawn archive's patches: generated rasters, with the drawn names,
/// countries, dates and labels.
fn patches(draw: &ArchiveDraw, seed: u64) -> Vec<Patch> {
    let total = draw.built + draw.ingested;
    let archive = ArchiveGenerator::new(GeneratorConfig::tiny(total, seed)).unwrap().generate();
    let mut patches = archive.patches().to_vec();
    for (i, (patch, &(suffix, country, (y, m, d), bits))) in
        patches.iter_mut().zip(&draw.fields).enumerate()
    {
        patch.meta.name = format!("p{i}_{}", "x".repeat(suffix));
        patch.meta.country = Country::ALL[country];
        patch.meta.date = AcquisitionDate::new(y, m, d).unwrap();
        patch.meta.labels = LabelSet::from_bits(bits);
    }
    patches
}

/// The drawn hits over an archive of `size` images: ids reduced modulo the
/// size, the first occurrence of each kept, in the drawn order.
fn hits_over(raw: &[(u64, Option<u32>)], size: usize) -> Vec<(u64, Option<u32>)> {
    let mut seen = vec![false; size];
    raw.iter()
        .filter_map(|&(id, distance)| {
            let id = id.checked_rem(size as u64)?;
            let fresh = !std::mem::replace(&mut seen[id as usize], true);
            fresh.then_some((id, distance))
        })
        .collect()
}

/// The typed reference: the answer built value by value, then encoded.
fn reference(
    metas: &[PatchMetadata],
    hits: &[(u64, Option<u32>)],
    plan: &PlanDraw,
    page_size: usize,
) -> Vec<u8> {
    let entries: Vec<ResultEntry> = hits
        .iter()
        .map(|&(id, distance)| ResultEntry::from_metadata(&metas[id as usize], distance))
        .collect();
    let statistics = LabelStatistics::from_label_sets(entries.iter().map(|e| e.labels));
    let panel = ResultPanel::new(entries, page_size);
    let search = |plan: Option<PlanSpec>| SearchPayload {
        rows: panel.entries().to_vec(),
        page_size: panel.page_size() as u64,
        label_counts: statistics.counts().iter().map(|&c| c as u32).collect(),
        image_count: statistics.image_count() as u64,
        plan,
    };
    let body = match plan {
        PlanDraw::Search(plan) => ResponseBody::Search(search(plan.clone())),
        PlanDraw::Filtered(plan) => {
            ResponseBody::Filtered(FilteredPayload { search: search(None), plan: *plan })
        }
    };
    let mut w = eq_wire::Writer::new();
    body.encode_into(&mut w);
    w.into_bytes()
}

/// Checks one server against the reference over the metadata it holds.
fn check(
    server: &QueryServer,
    metas: &[PatchMetadata],
    raw: &[(u64, Option<u32>)],
    plan: &PlanDraw,
    page_size: usize,
    stage: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(server.archive_size() == metas.len(), "{stage}: the archive size differs");
    let hits = hits_over(raw, metas.len());
    let body = server.answer_body(&hits, plan.as_answer_plan()).unwrap();
    prop_assert!(
        body == reference(metas, &hits, plan, page_size),
        "{stage}: the body of {hits:?} under {plan:?} at page size {page_size} differs"
    );
    // An id past the table is refused, not answered.
    let past = [(metas.len() as u64, None)];
    let refused = server.answer_body(&past, plan.as_answer_plan());
    prop_assert!(matches!(refused, Err(EarthQubeError::UnknownImage(_))), "{stage}: {refused:?}");
    Ok(())
}

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Self {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("eq_prop_answers_{}_{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        ScratchDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn answer_bodies_equal_the_typed_reference(
        draw in arb_archive(),
        seed in 0u64..1_000,
        raw in arb_hits(),
        plan in arb_plan(),
    ) {
        let patches = patches(&draw, seed);
        let mut config = EarthQubeConfig::fast(seed);
        config.train_model = false;
        config.milan = MilanConfig::fast(16, seed);
        config.page_size = draw.page_size;
        let archive = Archive::new(patches[..draw.built].to_vec());
        let server = QueryServer::build(&archive, config, ServeConfig::default()).unwrap();
        let mut metas: Vec<PatchMetadata> =
            patches[..draw.built].iter().map(|p| p.meta.clone()).collect();
        check(&server, &metas, &raw, &plan, draw.page_size, "built")?;

        server.ingest(&patches[draw.built..]).unwrap();
        metas.extend(patches[draw.built..].iter().map(|p| p.meta.clone()));
        check(&server, &metas, &raw, &plan, draw.page_size, "after an ingest")?;

        let dir = ScratchDir::new();
        server.checkpoint(dir.path()).unwrap();
        drop(server);
        let recovered = QueryServer::recover(dir.path()).unwrap();
        check(&recovered, &metas, &raw, &plan, draw.page_size, "after checkpoint and recovery")?;
    }
}
