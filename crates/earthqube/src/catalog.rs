//! The one query core: the state a query reads, and the single
//! implementation of every query kind over it.
//!
//! A [`Catalog`] is the document store, the dense-id metadata table and
//! the CBIR service (model, name→code table, Hamming index) as one value.
//! Both façades are configurations of it: [`EarthQube`](crate::EarthQube)
//! owns it bare (a one-shard index, one [`QueryScratch`], no cache), and
//! [`QueryServer`](crate::QueryServer) owns it behind the `catalog` lock
//! and adds only what is the server's: result and resolved-filter caches,
//! scratch pool, counters, durability, replication.  A query therefore
//! answers the same bytes on either, whatever the shard count.
//!
//! A filter-taking kind is two steps: [`Catalog::resolve`] turns the
//! [`ImageQuery`] into a `ResolvedFilter` (the crate's one path to the
//! store's prefilter compiler), and the kind consumes that value.  The
//! split is where the server's cache goes: the engine resolves per query,
//! the server reuses a resolution until the next write, and neither runs
//! different query code.
//!
//! The façades document each query's contract; they also validate the
//! [`ImageQuery`] first, before any cache probe or lock.

use eq_bigearthnet::patch::PatchMetadata;
use eq_bigearthnet::Archive;
use eq_docstore::{Database, DirtyLog, Document, QueryPlan};
use eq_hashindex::{BinaryCode, Neighbor, SearchScratch, ShardedHashIndex};
use eq_milan::Milan;

use crate::cbir::CbirService;
use crate::engine::{EarthQubeConfig, SearchResponse};
use crate::feedback::FeedbackService;
use crate::filtered::{FilteredResponse, PrefilterMode, ResolvedFilter};
use crate::ingest::{ingest_archive, insert_patch_docs};
use crate::persist::WalRecord;
use crate::query::ImageQuery;
use crate::results::{ResultEntry, ResultPanel};
use crate::schema::collections;
use crate::stats::LabelStatistics;
use crate::EarthQubeError;

/// Per-query scratch state for one CBIR query: the bounded top-k selection
/// heap plus the (small, ≤ k+1) neighbour buffer the ranking is cut in.
/// Both are reused across queries, so a steady-state k-NN query performs
/// **zero search-path allocation** — the selection is a size-k heap, never
/// a full candidate list.  The engine keeps one; the server pools them.
#[derive(Debug, Default)]
pub(crate) struct QueryScratch {
    search: SearchScratch,
    neighbors: Vec<Neighbor>,
}

/// Everything a query reads and the write path mutates, as one value, so
/// every query sees a consistent snapshot of store, metadata, code table
/// and index.
#[derive(Debug)]
pub(crate) struct Catalog {
    pub(crate) database: Database,
    /// Indexed by dense patch id.
    pub(crate) metadata: Vec<PatchMetadata>,
    pub(crate) cbir: CbirService,
    pub(crate) page_size: usize,
}

impl Catalog {
    /// Builds the core from an archive: ingests the four collections,
    /// trains MiLaN and indexes every code once, into `shards` shards.
    ///
    /// # Errors
    /// Propagates ingestion/model-configuration errors.
    pub(crate) fn build(
        archive: &Archive,
        config: &EarthQubeConfig,
        shards: usize,
    ) -> Result<Self, EarthQubeError> {
        let mut database = Database::new();
        ingest_archive(&mut database, archive)?;

        let mut model = Milan::new(config.milan.clone()).map_err(EarthQubeError::BadRequest)?;
        if config.train_model {
            model.train_on_archive(archive);
        }
        let cbir = CbirService::build(model, archive, config.cbir, shards);
        Ok(Self { database, metadata: archive.metadata(), cbir, page_size: config.page_size })
    }

    /// Re-routes every code into an index of `shards` shards, unless the
    /// index already has that many.  Fails if an indexed image has no code.
    pub(crate) fn reshard(&mut self, shards: usize) -> Result<(), EarthQubeError> {
        if self.cbir.index.shard_count() != shards {
            let index = ShardedHashIndex::new(self.cbir.index.bits(), shards);
            for (id, meta) in self.metadata.iter().enumerate() {
                index.insert(id as u64, self.code_of(&meta.name)?.clone());
            }
            self.cbir.index = index;
        }
        Ok(())
    }

    /// Ingest's duplicate check.
    pub(crate) fn ensure_new(&self, name: &str) -> Result<(), EarthQubeError> {
        if self.cbir.code_of(name).is_some() {
            return Err(EarthQubeError::BadRequest(format!(
                "image {name} is already in the archive"
            )));
        }
        Ok(())
    }

    /// Applies one prepared patch, whose dense id the caller has assigned
    /// (the next slot of `metadata`).  Live ingest, WAL replay and
    /// replication all write through here, which is what makes a recovered
    /// server or a replica byte-identical to the server that took the
    /// writes.  On a store error nothing is applied.
    pub(crate) fn apply_ingest(
        &mut self,
        meta: PatchMetadata,
        code: BinaryCode,
        image_doc: Document,
        rendered_doc: Document,
    ) -> Result<(), EarthQubeError> {
        insert_patch_docs(&mut self.database, &meta, image_doc, rendered_doc)?;
        self.cbir.insert(meta.id.0 as u64, &meta.name, code);
        self.metadata.push(meta);
        Ok(())
    }

    /// Applies one logged write, recovered or replicated, and says whether
    /// it was an ingest.  A record that does not continue this state is an
    /// [`EarthQubeError::Persist`], and nothing of it is applied.
    pub(crate) fn apply_record(&mut self, record: WalRecord) -> Result<bool, EarthQubeError> {
        let diverged = |e: EarthQubeError| {
            EarthQubeError::Persist(format!("a logged write does not apply: {e}"))
        };
        match record {
            WalRecord::Ingest { meta, code, image_doc, rendered_doc } => {
                if meta.id.0 as usize != self.metadata.len() {
                    return Err(EarthQubeError::Persist(format!(
                        "the logged record for {} carries dense id {}, expected {}",
                        meta.name,
                        meta.id.0,
                        self.metadata.len()
                    )));
                }
                if code.bits() != self.cbir.code_bits() {
                    return Err(EarthQubeError::Persist(format!(
                        "the logged record for {} carries a {}-bit code, expected {} bits",
                        meta.name,
                        code.bits(),
                        self.cbir.code_bits()
                    )));
                }
                self.apply_ingest(meta, code, image_doc, rendered_doc).map_err(diverged)?;
                Ok(true)
            }
            WalRecord::Feedback { text, category } => {
                FeedbackService
                    .submit(&mut self.database, &text, category.as_deref())
                    .map_err(diverged)?;
                Ok(false)
            }
        }
    }

    /// Each image from dense id `start` on with its stored code, in id
    /// order: what a checkpoint's image chunk persists.
    pub(crate) fn images_from(
        &self,
        start: usize,
    ) -> Result<Vec<(&PatchMetadata, &BinaryCode)>, EarthQubeError> {
        let tail = self.metadata.iter().skip(start);
        tail.map(|meta| Ok((meta, self.code_of(&meta.name)?))).collect()
    }

    /// Puts back the dirty logs a checkpoint cut drained, when the
    /// checkpoint failed before publishing, so the next one retries them.
    pub(crate) fn restore_dirty(&mut self, drained: Vec<(String, DirtyLog)>) {
        for (name, log) in drained {
            if let Ok(collection) = self.database.collection_mut(&name) {
                collection.restore_dirty(log);
            }
        }
    }

    /// The mode the query panel resolves in: the compiled bitmap whenever
    /// there is one, which is what `Collection::find` does.  (On a circle's
    /// rim the bitmap's covering cells and a full scan can disagree, so the
    /// panel must not let [`PrefilterMode::Auto`] pick.)
    pub(crate) const PANEL_MODE: PrefilterMode = PrefilterMode::ForceBitmap;

    /// The one resolver: turns a query-panel request into the exact set of
    /// matching dense patch ids, *before* any distance work, whatever the
    /// mode, so every mode ranks the same universe.  Every filter-taking
    /// query kind below consumes its result; the bare engine calls it per
    /// query, the server keeps what it returns in its resolved-filter cache.
    pub(crate) fn resolve(
        &self,
        query: &ImageQuery,
        mode: PrefilterMode,
    ) -> Result<ResolvedFilter, EarthQubeError> {
        let coll = self.database.collection(collections::METADATA)?;
        Ok(ResolvedFilter::resolve(coll, &query.to_filter(), mode))
    }

    /// The query-panel search over a filter resolved in
    /// [`PANEL_MODE`](Self::PANEL_MODE): the matching images in ascending
    /// dense id — insertion order, as `Collection::find` lists them —
    /// assembled from the dense metadata table, with the plan `find` would
    /// report.
    pub(crate) fn search(&self, filter: &ResolvedFilter) -> Result<SearchResponse, EarthQubeError> {
        let hits = filter.mask.iter().map(|id| (id, None));
        self.respond(filter.plan.matching, hits, Some(filter.query_plan.clone()))
    }

    /// The `k` nearest neighbours of an archive image, itself excluded.
    pub(crate) fn similar_to(
        &self,
        name: &str,
        k: usize,
        scratch: &mut QueryScratch,
    ) -> Result<SearchResponse, EarthQubeError> {
        self.nearest(self.code_of(name)?, k, Some(name), None, scratch)
    }

    /// The `k` archive images nearest to an arbitrary code: query by new
    /// example, once the model has encoded the upload.
    pub(crate) fn search_by_code(
        &self,
        code: &BinaryCode,
        k: usize,
        scratch: &mut QueryScratch,
    ) -> Result<SearchResponse, EarthQubeError> {
        self.nearest(code, k, None, None, scratch)
    }

    /// [`similar_to`](Self::similar_to) among the images matching the
    /// resolved query-panel filter only.
    pub(crate) fn similar_to_filtered(
        &self,
        name: &str,
        k: usize,
        filter: &ResolvedFilter,
        scratch: &mut QueryScratch,
    ) -> Result<FilteredResponse, EarthQubeError> {
        let response = self.nearest(self.code_of(name)?, k, Some(name), Some(filter), scratch)?;
        Ok(FilteredResponse { response, plan: filter.plan })
    }

    /// Every image within `radius` of an archive image's code that matches
    /// the resolved query-panel filter, itself excluded, by distance then id.
    pub(crate) fn similar_within_filtered(
        &self,
        name: &str,
        radius: u32,
        filter: &ResolvedFilter,
        scratch: &mut QueryScratch,
    ) -> Result<FilteredResponse, EarthQubeError> {
        let hits = &mut scratch.neighbors;
        hits.clear();
        self.cbir.index.radius_search_masked_into(self.code_of(name)?, radius, &filter.mask, hits);
        eq_hashindex::sort_neighbors(hits);
        hits.retain(|hit| !self.is_image(hit, name));
        let response = self.response_from_neighbors(hits)?;
        Ok(FilteredResponse { response, plan: filter.plan })
    }

    fn code_of(&self, name: &str) -> Result<&BinaryCode, EarthQubeError> {
        self.cbir.code_of(name).ok_or_else(|| EarthQubeError::UnknownImage(name.to_string()))
    }

    fn is_image(&self, hit: &Neighbor, name: &str) -> bool {
        self.metadata.get(hit.id as usize).is_some_and(|m| m.name == name)
    }

    /// The one k-NN entry: the `k` images nearest to `code`, among those
    /// matching `filter` when there is one, with the image named `exclude`
    /// dropped.
    ///
    /// The query image is itself indexed, so one extra hit is selected and
    /// the image dropped from the ranking.  `k` is clamped to the archive
    /// size first: no answer changes, and the selection never reserves more
    /// than the archive could fill, whatever `k` a caller sends.
    fn nearest(
        &self,
        code: &BinaryCode,
        k: usize,
        exclude: Option<&str>,
        filter: Option<&ResolvedFilter>,
        scratch: &mut QueryScratch,
    ) -> Result<SearchResponse, EarthQubeError> {
        let wanted = k.min(self.metadata.len()) + usize::from(exclude.is_some());
        let index = &self.cbir.index;
        let hits = match filter {
            Some(filter) => index.knn_masked_with(code, wanted, &filter.mask, &mut scratch.search),
            None => index.knn_with(code, wanted, &mut scratch.search),
        };
        let kept = hits.iter().filter(|hit| !exclude.is_some_and(|name| self.is_image(hit, name)));
        scratch.neighbors.clear();
        scratch.neighbors.extend(kept.take(k));
        self.response_from_neighbors(&scratch.neighbors)
    }

    /// Result-panel and label-statistics assembly for ranked index hits.
    fn response_from_neighbors(
        &self,
        neighbors: &[Neighbor],
    ) -> Result<SearchResponse, EarthQubeError> {
        let hits = neighbors.iter().map(|hit| (hit.id, Some(hit.distance)));
        self.respond(neighbors.len(), hits, None)
    }

    /// The one response assembly: panel entries of `count` images, in the
    /// order given, straight from the dense metadata table, and the label
    /// statistics counted from the label set each entry carries.
    fn respond(
        &self,
        count: usize,
        hits: impl Iterator<Item = (u64, Option<u32>)>,
        plan: Option<QueryPlan>,
    ) -> Result<SearchResponse, EarthQubeError> {
        let mut entries = Vec::with_capacity(count);
        for (id, distance) in hits {
            let meta = self
                .metadata
                .get(id as usize)
                .ok_or_else(|| EarthQubeError::UnknownImage(format!("dense patch id {id}")))?;
            entries.push(ResultEntry::from_metadata(meta, distance));
        }
        let statistics = LabelStatistics::from_label_sets(entries.iter().map(|e| e.labels));
        Ok(SearchResponse { panel: ResultPanel::new(entries, self.page_size), statistics, plan })
    }
}
