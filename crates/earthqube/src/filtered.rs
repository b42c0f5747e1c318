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
//!   and take the matching document ids as an [`IdMask`].  A metadata
//!   document's id is its dense patch id, so the ids need no mapping, and
//!   an exact plan's compiled bitmap is the mask without touching a
//!   document.  The Hamming kernels then skip every masked-out row
//!   *before* paying for a distance computation.
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
//!
//! Either way the outcome is a `ResolvedFilter`: the mask plus the plan
//! facts, owning everything it holds.  It is the one value all three
//! filter-taking query kinds consume — the query panel's `search` resolves
//! in [`PrefilterMode::Auto`] like them, reads its mask in ascending order
//! and rebuilds `find`'s `QueryPlan` from its facts — and, since a visitor
//! re-issues the same panel filter with one query image after another, the
//! value the server caches per (filter, mode) until the next write.

use eq_docstore::{Collection, Filter, QueryPlan};
use eq_hashindex::{Bitmap, IdMask};

use crate::engine::SearchResponse;

// Defined in `eq_proto` beside their codec: what a filtered search reports
// in process is what the wire carries.
pub use eq_proto::{FilterStrategy, FilteredPlan, PrefilterMode};

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

/// A query-panel filter resolved against one catalog state: the one value
/// every filter-taking query kind consumes, and what the server's
/// resolved-filter cache holds.  Nothing in it borrows the catalog, so a
/// cached one answers later requests without a `Filter`, a compile or a
/// `Document` — until a write changes the catalog and the cache is cleared.
#[derive(Debug)]
pub(crate) struct ResolvedFilter {
    /// The exact matching dense patch ids: what the masked Hamming kernels
    /// test rows against, and, read ascending, the query panel's order.
    pub(crate) mask: IdMask,
    /// Strategy, candidate count, residual flag and match count.
    pub(crate) plan: FilteredPlan,
    /// The plan `Collection::find` reports for the same filter: which
    /// indexes built the candidates, how many documents were examined (the
    /// whole collection without candidates) and how many matched.
    pub(crate) query_plan: QueryPlan,
}

impl ResolvedFilter {
    /// Resolves `filter` over the metadata collection by the strategy
    /// `mode` selects (see the module docs).
    pub(crate) fn resolve(coll: &Collection, filter: &Filter, mode: PrefilterMode) -> Self {
        let plan = coll.compile_prefilter(filter);
        let use_bitmap = match mode {
            PrefilterMode::ForcePostFilter => false,
            PrefilterMode::ForceBitmap => plan.bitmap.is_some(),
            PrefilterMode::Auto => {
                plan.cardinality().is_some_and(|c| c.saturating_mul(2) <= coll.len() as u64)
            }
        };

        // A metadata document's id is its dense patch id, so the matching
        // document ids are the mask: an exact plan's bitmap as compiled, else
        // the ids the residual (or, scanning, the whole filter) accepts.
        let mask = match &plan.bitmap {
            Some(bitmap) if use_bitmap && plan.is_exact() => IdMask::from_bitmap(bitmap),
            _ if use_bitmap => {
                IdMask::from_bitmap(&plan.matching(coll).map(|(id, _)| id).collect::<Bitmap>())
            }
            _ => IdMask::from_bitmap(
                &coll.iter().filter(|(_, doc)| filter.matches(doc)).map(|(id, _)| id).collect(),
            ),
        };

        let report = FilteredPlan {
            strategy: if use_bitmap {
                FilterStrategy::BitmapPrefilter
            } else {
                FilterStrategy::PostFilter
            },
            candidates: plan.cardinality(),
            residual: plan.residual != Filter::All,
            matching: mask.len() as usize,
        };
        let query_plan = QueryPlan {
            index_used: plan.index_used().map(str::to_string),
            scanned: plan.cardinality().map_or(coll.len(), |c| c as usize),
            matched: report.matching,
        };
        Self { mask, plan: report, query_plan }
    }

    /// Approximate bytes this value keeps alive, mask first: what the
    /// resolved-filter cache charges against its budget.
    pub(crate) fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.mask.size_bytes()
            + self.query_plan.index_used.as_ref().map_or(0, String::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::ingest_metadata;
    use crate::query::ImageQuery;
    use crate::schema::collections;
    use eq_bigearthnet::patch::{PatchId, PatchMetadata, Season};
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
        let ResolvedFilter { mask: bitmap_mask, plan: bitmap_plan, .. } =
            ResolvedFilter::resolve(coll, &filter, PrefilterMode::ForceBitmap);
        let ResolvedFilter { mask: scan_mask, plan: scan_plan, .. } =
            ResolvedFilter::resolve(coll, &filter, PrefilterMode::ForcePostFilter);
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
        let plan = ResolvedFilter::resolve(coll, &selective, PrefilterMode::Auto).plan;
        assert_eq!(plan.strategy, FilterStrategy::BitmapPrefilter);
        // An unrestricted query compiles to no bitmap → post-filter scan.
        let ResolvedFilter { mask, plan, .. } =
            ResolvedFilter::resolve(coll, &Filter::All, PrefilterMode::Auto);
        assert_eq!(plan.strategy, FilterStrategy::PostFilter);
        assert_eq!(plan.candidates, None);
        assert_eq!(plan.matching, 120);
        assert!((0..120u64).all(|id| mask.contains(id)));
    }

    /// Whatever the mode, a resolution reports the plan `find` reports:
    /// the query panel reads it from here instead of running `find`.
    #[test]
    fn the_query_plan_is_the_one_find_reports() {
        let db = metadata_db(90, 74);
        let coll = db.collection(collections::METADATA).unwrap();
        let queries = [
            ImageQuery::all(),
            ImageQuery::all().with_countries(vec![Country::Austria, Country::Serbia]),
            ImageQuery::all().with_seasons(vec![Season::Winter]).with_shape(
                eq_geo::GeoShape::Rect(eq_geo::BBox::new(-10.0, 36.0, 30.0, 70.0).unwrap()),
            ),
        ];
        for query in queries {
            let filter = query.to_filter();
            let found = coll.find(&filter);
            for mode in
                [PrefilterMode::Auto, PrefilterMode::ForceBitmap, PrefilterMode::ForcePostFilter]
            {
                let resolved = ResolvedFilter::resolve(coll, &filter, mode);
                assert_eq!(resolved.query_plan, found.plan, "{query:?} under {mode:?}");
                assert_eq!(resolved.mask.len() as usize, found.ids.len());
                assert!(resolved.size_bytes() >= resolved.mask.size_bytes());
            }
        }
    }

    /// The mask is the matching document ids, which are dense patch ids:
    /// a refused ingest burns no document id, so metadata document `r`
    /// stays `metadata[r]` and a patch ingested after the refusal is found
    /// under its dense id in every mode.
    #[test]
    fn document_ids_are_dense_patch_ids_across_a_refused_ingest() {
        use crate::catalog::Catalog;
        use crate::persist::WalRecord;
        use crate::schema::fields;
        use crate::EarthQubeConfig;
        use eq_bigearthnet::Archive;
        use eq_docstore::{Document, Value};

        let patches = ArchiveGenerator::new(GeneratorConfig::tiny(6, 73)).unwrap().generate();
        let patches = patches.patches();
        let mut config = EarthQubeConfig::fast(73);
        config.train_model = false;
        let mut catalog = Catalog::build(&Archive::new(patches[..4].to_vec()), &config).unwrap();
        let record = |catalog: &Catalog, nth: usize| {
            let patch = &patches[nth];
            let meta =
                PatchMetadata { id: PatchId(catalog.metadata.len() as u32), ..patch.meta.clone() };
            let code = catalog.cbir.model().hash_patch(patch);
            let rasters = crate::ingest::patch_rasters(patch, &meta.name);
            WalRecord::Ingest { meta, code, rasters }
        };
        // A squatter takes a document id, so it is dropped again (its
        // collection as it was before it) once it refused its patch.
        let squatter = Document::new().with(fields::NAME, patches[4].meta.name.as_str());
        let docs = catalog.database.collection_mut(collections::METADATA).unwrap();
        let without_squatter = docs.clone();
        docs.insert(squatter).unwrap();
        assert!(catalog.apply_record(record(&catalog, 4)).is_err());
        *catalog.database.collection_mut(collections::METADATA).unwrap() = without_squatter;
        assert_eq!(catalog.apply_record(record(&catalog, 5)).unwrap(), 4);

        let coll = catalog.database.collection(collections::METADATA).unwrap();
        assert_eq!(coll.next_id(), 5);
        for (id, meta) in catalog.metadata.iter().enumerate() {
            let name = coll.get(id as u64).and_then(|doc| doc.get(fields::NAME));
            assert_eq!(name.and_then(Value::as_str), Some(meta.name.as_str()), "document {id}");
        }
        let filter = Filter::Eq(fields::NAME.into(), patches[5].meta.name.as_str().into());
        for mode in
            [PrefilterMode::Auto, PrefilterMode::ForceBitmap, PrefilterMode::ForcePostFilter]
        {
            let ResolvedFilter { mask, plan, .. } = ResolvedFilter::resolve(coll, &filter, mode);
            assert_eq!(plan.matching, 1);
            assert_eq!(mask.iter().collect::<Vec<_>>(), [4], "{mode:?}");
        }
    }
}
