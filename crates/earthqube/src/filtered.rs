//! Bitmap-prefiltered similarity search (experiment E13): combine the
//! query panel's metadata filter with CBIR so "similar images" can be
//! restricted to, say, agricultural patches in Austria acquired in summer.
//!
//! Two execution strategies produce byte-identical results:
//!
//! * **Bitmap prefilter** — compile the filter's indexable prefix against
//!   the metadata postings
//!   ([`Indexes::compile_prefilter`](eq_docstore::Indexes::compile_prefilter),
//!   the compiler behind the query panel's `find`), evaluate the query on
//!   the typed metadata row of each of the bitmap's survivors
//!   ([`ImageQuery::matches`]), and take the ids it accepts as an
//!   [`IdMask`].  A posting id is its dense patch id, so the ids need no
//!   mapping, and an exact plan's compiled bitmap is the mask without
//!   touching a row.  The Hamming kernels then skip every masked-out row
//!   *before* paying for a distance computation.
//! * **Scan-then-post-filter** — evaluate the query on every metadata row
//!   (the pre-bitmap baseline), then run the same masked kernels over the
//!   resulting mask.
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

use eq_bigearthnet::patch::PatchMetadata;
use eq_docstore::{Filter, Indexes, QueryPlan};
use eq_hashindex::IdMask;

use crate::engine::SearchResponse;
use crate::query::ImageQuery;

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
/// row test — until a write changes the catalog and the cache is cleared.
#[derive(Debug)]
pub(crate) struct ResolvedFilter {
    /// The exact matching dense patch ids: what the masked Hamming kernels
    /// test rows against, and, read ascending, the query panel's order.
    pub(crate) mask: IdMask,
    /// Strategy, candidate count, residual flag and match count.
    pub(crate) plan: FilteredPlan,
    /// The plan `Collection::find` reports for the same filter over the
    /// metadata documents: which indexes built the candidates, how many
    /// were examined (every row without candidates) and how many matched.
    pub(crate) query_plan: QueryPlan,
}

impl ResolvedFilter {
    /// Resolves `query` over the metadata postings `indexes` and the typed
    /// rows they index (posting id *r* is `rows[r]`) by the strategy `mode`
    /// selects (see the module docs).
    pub(crate) fn resolve(
        indexes: &Indexes,
        rows: &[PatchMetadata],
        query: &ImageQuery,
        mode: PrefilterMode,
    ) -> Self {
        let plan = indexes.compile_prefilter(&query.to_filter());
        let use_bitmap = match mode {
            PrefilterMode::ForcePostFilter => false,
            PrefilterMode::ForceBitmap => plan.bitmap.is_some(),
            PrefilterMode::Auto => {
                plan.cardinality().is_some_and(|c| c.saturating_mul(2) <= rows.len() as u64)
            }
        };

        // The mask is the matching dense ids: an exact plan's bitmap as
        // compiled, else the candidates — the bitmap's, or every row when
        // post-filtering — whose row the query accepts.  A candidate
        // already passed the compiled leaves, so testing the whole query on
        // it decides exactly the residual.
        let mask = match plan.bitmap.as_ref().filter(|_| use_bitmap) {
            Some(bitmap) if plan.is_exact() => IdMask::from_bitmap(bitmap),
            Some(bitmap) => accepted(bitmap.iter(), rows, query),
            None => accepted(0..rows.len() as u64, rows, query),
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
            scanned: plan.cardinality().map_or(rows.len(), |c| c as usize),
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

/// The ids among `ids` whose row `query` accepts, as a mask.
fn accepted(ids: impl Iterator<Item = u64>, rows: &[PatchMetadata], query: &ImageQuery) -> IdMask {
    let matching = ids.filter(|&id| rows.get(id as usize).is_some_and(|row| query.matches(row)));
    IdMask::from_bitmap(&matching.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::ingest_metadata;
    use crate::schema::{collections, metadata_document};
    use eq_bigearthnet::patch::{PatchId, PatchMetadata, Season};
    use eq_bigearthnet::{ArchiveGenerator, Country, GeneratorConfig};
    use eq_docstore::Database;

    /// `n` patches' metadata, and a standalone database holding their
    /// documents (whose collection's indexes the resolver reads).
    fn metadata_db(n: usize, seed: u64) -> (Vec<PatchMetadata>, Database) {
        let metas =
            ArchiveGenerator::new(GeneratorConfig::tiny(n, seed)).unwrap().generate_metadata_only();
        let mut db = Database::new();
        ingest_metadata(&mut db, &metas).unwrap();
        (metas, db)
    }

    #[test]
    fn both_strategies_resolve_the_same_mask() {
        let (metas, db) = metadata_db(150, 71);
        let indexes = db.collection(collections::METADATA).unwrap().indexes();
        let query = ImageQuery::all()
            .with_countries(vec![Country::Austria, Country::Finland])
            .with_seasons(vec![Season::Summer]);
        let ResolvedFilter { mask: bitmap_mask, plan: bitmap_plan, .. } =
            ResolvedFilter::resolve(indexes, &metas, &query, PrefilterMode::ForceBitmap);
        let ResolvedFilter { mask: scan_mask, plan: scan_plan, .. } =
            ResolvedFilter::resolve(indexes, &metas, &query, PrefilterMode::ForcePostFilter);
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
        let (metas, db) = metadata_db(120, 72);
        let indexes = db.collection(collections::METADATA).unwrap().indexes();
        // One country out of ten is selective → bitmap.
        let selective = ImageQuery::all().with_countries(vec![Country::Austria]);
        let plan = ResolvedFilter::resolve(indexes, &metas, &selective, PrefilterMode::Auto).plan;
        assert_eq!(plan.strategy, FilterStrategy::BitmapPrefilter);
        // An unrestricted query compiles to no bitmap → post-filter scan.
        let ResolvedFilter { mask, plan, .. } =
            ResolvedFilter::resolve(indexes, &metas, &ImageQuery::all(), PrefilterMode::Auto);
        assert_eq!(plan.strategy, FilterStrategy::PostFilter);
        assert_eq!(plan.candidates, None);
        assert_eq!(plan.matching, 120);
        assert!((0..120u64).all(|id| mask.contains(id)));
    }

    /// Whatever the mode, a resolution reports the plan `find` reports:
    /// the query panel reads it from here instead of running `find`.
    #[test]
    fn the_query_plan_is_the_one_find_reports() {
        let (metas, db) = metadata_db(90, 74);
        let coll = db.collection(collections::METADATA).unwrap();
        let queries = [
            ImageQuery::all(),
            ImageQuery::all().with_countries(vec![Country::Austria, Country::Serbia]),
            ImageQuery::all().with_seasons(vec![Season::Winter]).with_shape(
                eq_geo::GeoShape::Rect(eq_geo::BBox::new(-10.0, 36.0, 30.0, 70.0).unwrap()),
            ),
        ];
        for query in queries {
            let found = coll.find(&query.to_filter());
            for mode in
                [PrefilterMode::Auto, PrefilterMode::ForceBitmap, PrefilterMode::ForcePostFilter]
            {
                let resolved = ResolvedFilter::resolve(coll.indexes(), &metas, &query, mode);
                assert_eq!(resolved.query_plan, found.plan, "{query:?} under {mode:?}");
                assert_eq!(resolved.mask.iter().collect::<Vec<_>>(), found.ids);
                assert!(resolved.size_bytes() >= resolved.mask.size_bytes());
            }
        }
    }

    /// The mask holds dense ids: a refused ingest takes no posting id, so
    /// posting id `r` stays `metadata[r]`, and a patch ingested after the
    /// refusal is found under its dense id in every mode.
    #[test]
    fn document_ids_are_dense_patch_ids_across_a_refused_ingest() {
        use crate::catalog::Catalog;
        use crate::persist::WalRecord;
        use crate::schema::fields;
        use crate::{EarthQubeConfig, EarthQubeError};
        use eq_bigearthnet::Archive;
        use eq_docstore::Value;

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
        // A name already indexed is refused before anything is applied.
        let refused = catalog.apply_record(record(&catalog, 0)).unwrap_err();
        assert!(matches!(refused, EarthQubeError::BadRequest(_)), "{refused:?}");
        assert_eq!(catalog.apply_record(record(&catalog, 5)).unwrap(), 4);

        assert_eq!(catalog.indexes.len(), 5);
        let countries = catalog.indexes.attribute_index(fields::COUNTRY).unwrap();
        for (id, meta) in catalog.metadata.iter().enumerate() {
            let posting = countries.value_bitmap(&Value::from(meta.country.name()));
            assert!(posting.is_some_and(|ids| ids.contains(id as u64)), "posting {id}");
        }
        let last = &catalog.metadata[4];
        assert_eq!(last.name, patches[5].meta.name);
        let query = ImageQuery::all()
            .with_countries(vec![last.country])
            .with_date_range(last.date, last.date);
        let filter = query.to_filter();
        let expected: Vec<u64> = (0..)
            .zip(&catalog.metadata)
            .filter(|(_, meta)| filter.matches(&metadata_document(meta)))
            .map(|(id, _)| id)
            .collect();
        assert!(expected.contains(&4), "{expected:?}");
        for mode in
            [PrefilterMode::Auto, PrefilterMode::ForceBitmap, PrefilterMode::ForcePostFilter]
        {
            let ResolvedFilter { mask, plan, .. } = catalog.resolve(&query, mode);
            assert_eq!(plan.matching, expected.len());
            assert_eq!(mask.iter().collect::<Vec<_>>(), expected, "{mode:?}");
        }
    }
}
