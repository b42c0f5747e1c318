//! Bitmap-prefiltered similarity search (experiment E13): combine the
//! query panel's metadata filter with CBIR so "similar images" can be
//! restricted to, say, agricultural patches in Austria acquired in summer.
//!
//! Two execution strategies produce byte-identical results:
//!
//! * **Bitmap prefilter** — resolve the filter the way the query panel's
//!   `find` does: compile its indexable prefix against the metadata
//!   collection's posting bitmaps
//!   ([`Collection::compile_prefilter`](eq_docstore::Collection::compile_prefilter)),
//!   let the docstore evaluate the residual filter on the bitmap's
//!   survivors ([`PrefilterPlan::matching`](eq_docstore::PrefilterPlan::matching)),
//!   and map the matching documents to an [`IdMask`] over dense patch ids.
//!   The Hamming kernels then skip every masked-out row *before* paying
//!   for a distance computation.
//! * **Scan-then-post-filter** — evaluate the full filter on every
//!   metadata document (the pre-bitmap baseline), then run the same masked
//!   kernels over the resulting mask.
//!
//! Both strategies compute the *exact* set of filter-matching images
//! before any distance work, so the downstream k-NN / radius selection
//! sees the same mask either way — that is what makes the responses
//! byte-identical (pinned by `tests/proptest_filtered.rs`) and what keeps
//! the bounded top-k correct: a superset mask fed to a size-`k` heap could
//! surface images the residual would later reject, silently shrinking the
//! result below `k`.
//!
//! The planner picks between them from the compiled bitmap's cardinality:
//! a selective filter (candidates ≤ half the collection) pays one posting
//! walk plus residual checks on the candidates, while a broad filter falls
//! back to the full scan whose per-document cost needs no posting walk.

use eq_docstore::{Collection, Document, Filter, Value};
use eq_hashindex::{Bitmap, IdMask};

use crate::engine::SearchResponse;
use crate::schema::fields;

/// How a filtered similarity search chooses its execution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefilterMode {
    /// Cost-based choice: use the bitmap prefilter when the filter
    /// compiles to a candidate set no larger than half the collection,
    /// otherwise scan-then-post-filter.
    #[default]
    Auto,
    /// Use the bitmap prefilter whenever the filter compiles to a bitmap
    /// at all (benchmark / test knob).
    ForceBitmap,
    /// Always scan-then-post-filter (benchmark / test knob).
    ForcePostFilter,
}

/// The strategy a filtered similarity search actually executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterStrategy {
    /// Posting-bitmap candidates, residual on survivors only.
    BitmapPrefilter,
    /// Full metadata scan with per-document filter evaluation.
    PostFilter,
}

/// How a filtered similarity search was planned and executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilteredPlan {
    /// The strategy that ran.
    pub strategy: FilterStrategy,
    /// Cardinality of the compiled candidate bitmap (`None` when nothing
    /// in the filter was indexable).  Reported for both strategies — it is
    /// the number the planner based its decision on.
    pub candidates: Option<u64>,
    /// Whether a residual filter had to run on the candidates (`false`
    /// means the bitmap alone was exact).
    pub residual: bool,
    /// Exact number of archive images matching the filter — the universe
    /// the similarity search ranked.
    pub matching: usize,
}

/// A filtered similarity search response: the ordinary result panel plus
/// the planning report.
#[derive(Debug, Clone, PartialEq)]
pub struct FilteredResponse {
    /// The result panel, statistics and (absent) metadata plan — the same
    /// shape the unfiltered CBIR paths return.
    pub response: SearchResponse,
    /// How the filter was executed.
    pub plan: FilteredPlan,
}

/// Resolves a metadata filter to the exact set of matching dense patch
/// ids, as an [`IdMask`] the masked Hamming kernels consume, plus the
/// planning report, for the query core's filtered searches.
pub(crate) fn matching_item_mask(
    coll: &Collection,
    filter: &Filter,
    mode: PrefilterMode,
) -> (IdMask, FilteredPlan) {
    let plan = coll.compile_prefilter(filter);
    let use_bitmap = match mode {
        PrefilterMode::ForcePostFilter => false,
        PrefilterMode::ForceBitmap => plan.bitmap.is_some(),
        PrefilterMode::Auto => {
            plan.cardinality().is_some_and(|c| c.saturating_mul(2) <= coll.len() as u64)
        }
    };

    // The documents' ids and the archive's dense patch ids are different
    // spaces (document ids are never reused after a rollback), so matches
    // map through the metadata document's `patch_id` field.
    let mut items = Bitmap::new();
    let mut push_item = |doc: &Document| {
        if let Some(item) = doc.get(fields::PATCH_ID).and_then(Value::as_int) {
            items.insert(item as u64);
        }
    };
    if use_bitmap {
        plan.matching(coll).for_each(|(_, doc)| push_item(doc));
    } else {
        coll.iter().filter(|(_, doc)| filter.matches(doc)).for_each(|(_, doc)| push_item(doc));
    }

    let report = FilteredPlan {
        strategy: if use_bitmap {
            FilterStrategy::BitmapPrefilter
        } else {
            FilterStrategy::PostFilter
        },
        candidates: plan.cardinality(),
        residual: plan.residual != Filter::All,
        matching: items.len() as usize,
    };
    (IdMask::from_bitmap(&items), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::ingest_metadata;
    use crate::query::ImageQuery;
    use crate::schema::collections;
    use eq_bigearthnet::patch::Season;
    use eq_bigearthnet::{ArchiveGenerator, Country, GeneratorConfig};
    use eq_docstore::Database;

    fn metadata_db(n: usize, seed: u64) -> Database {
        let metas =
            ArchiveGenerator::new(GeneratorConfig::tiny(n, seed)).unwrap().generate_metadata_only();
        let mut db = Database::new();
        ingest_metadata(&mut db, &metas).unwrap();
        db
    }

    #[test]
    fn both_strategies_resolve_the_same_mask() {
        let db = metadata_db(150, 71);
        let coll = db.collection(collections::METADATA).unwrap();
        let filter = ImageQuery::all()
            .with_countries(vec![Country::Austria, Country::Finland])
            .with_seasons(vec![Season::Summer])
            .to_filter();
        let (bitmap_mask, bitmap_plan) =
            matching_item_mask(coll, &filter, PrefilterMode::ForceBitmap);
        let (scan_mask, scan_plan) =
            matching_item_mask(coll, &filter, PrefilterMode::ForcePostFilter);
        assert_eq!(bitmap_plan.strategy, FilterStrategy::BitmapPrefilter);
        assert_eq!(scan_plan.strategy, FilterStrategy::PostFilter);
        assert_eq!(bitmap_plan.matching, scan_plan.matching);
        for id in 0..150u64 {
            assert_eq!(bitmap_mask.contains(id), scan_mask.contains(id), "patch {id}");
        }
        // Country ∧ season compiles exactly: no residual on the bitmap path.
        assert!(!bitmap_plan.residual);
        assert!(bitmap_plan.candidates.is_some());
    }

    #[test]
    fn auto_mode_picks_by_selectivity() {
        let db = metadata_db(120, 72);
        let coll = db.collection(collections::METADATA).unwrap();
        // One country out of ten is selective → bitmap.
        let selective = ImageQuery::all().with_countries(vec![Country::Austria]).to_filter();
        let (_, plan) = matching_item_mask(coll, &selective, PrefilterMode::Auto);
        assert_eq!(plan.strategy, FilterStrategy::BitmapPrefilter);
        // An unrestricted query compiles to no bitmap → post-filter scan.
        let (mask, plan) = matching_item_mask(coll, &Filter::All, PrefilterMode::Auto);
        assert_eq!(plan.strategy, FilterStrategy::PostFilter);
        assert_eq!(plan.candidates, None);
        assert_eq!(plan.matching, 120);
        assert!((0..120u64).all(|id| mask.contains(id)));
    }

    #[test]
    fn mask_is_over_patch_ids_not_document_ids() {
        let mut db = metadata_db(30, 73);
        // Delete and re-ingest a patch: its document id moves past 30 while
        // its dense patch id stays put.
        let coll = db.collection_mut(collections::METADATA).unwrap();
        let doc = coll.iter().map(|(_, d)| d.clone()).next().unwrap();
        let name = doc.get(fields::NAME).unwrap().clone();
        let patch_id = doc.get(fields::PATCH_ID).unwrap().as_int().unwrap() as u64;
        coll.delete_by_key(&name).unwrap();
        coll.insert(doc).unwrap();
        let coll = db.collection(collections::METADATA).unwrap();
        let filter = Filter::Eq(fields::NAME.into(), name);
        for mode in [PrefilterMode::ForceBitmap, PrefilterMode::ForcePostFilter] {
            let (mask, plan) = matching_item_mask(coll, &filter, mode);
            assert_eq!(plan.matching, 1);
            assert!(mask.contains(patch_id), "mask must be in patch-id space ({mode:?})");
        }
    }
}
