//! The one query core: the state a query reads, and the single
//! implementation of every query kind over it.
//!
//! A [`Catalog`] is the document store, the dense-id metadata table and
//! the CBIR service (model, name→code table, code arena) as one value.
//! Both façades are configurations of it: [`EarthQube`](crate::EarthQube)
//! owns it bare (no cache, no lock), and [`QueryServer`](crate::QueryServer)
//! owns it behind the `catalog` lock and adds only what is the server's:
//! result and resolved-filter caches, counters, durability, replication.
//! A query therefore answers the same bytes on either.  Every CBIR kind
//! scans the service's one code arena, whose row *r* is dense id *r*, with
//! the calling thread's own counting selection, so no query takes a lock
//! for its scratch.
//!
//! Every write, on either façade's side and the build included, is a
//! [`WalRecord`] checked by [`Catalog::check_records`] and applied by
//! [`Catalog::apply`]: build, live ingest and feedback make the record,
//! recovery and replication decode it.  So one id space holds: arena row
//! *r*, metadata entry *r* and metadata document *r* are dense patch id *r*.
//!
//! A filter-taking kind is two steps: [`Catalog::resolve`] turns the
//! [`ImageQuery`] into a `ResolvedFilter` (the crate's one path to the
//! store's prefilter compiler), and the kind consumes that value.  The
//! split is where the server's cache goes: the engine resolves per query,
//! the server reuses a resolution until the next write, and neither runs
//! different query code.
//!
//! Every query kind writes its answer straight into a caller's buffer, as
//! the `ResponseBody` bytes the wire carries and the server's result cache
//! files: the core keeps a row table, each patch's result-row prefix (name,
//! country tag, date, label bits) encoded once when the patch is applied,
//! and an answer copies one prefix per hit, writes the distance after it
//! and counts the statistics from the prefix's label bits.  Typed values
//! (`SearchResponse`, `FilteredResponse`) are decoded from those bytes, on
//! either façade as on a remote client.
//!
//! The façades document each query's contract; they also validate the
//! [`ImageQuery`] first, before any cache probe or lock.

use std::cell::RefCell;
use std::collections::HashSet;
use std::ops::Range;

use eq_bigearthnet::patch::PatchMetadata;
use eq_bigearthnet::Archive;
use eq_docstore::{Database, Value};
use eq_hashindex::{BinaryCode, CountingTopK};
use eq_milan::Milan;
use eq_proto::{AnswerPlan, AnswerWriter};
use eq_wire::Writer;

use crate::cbir::CbirService;
use crate::engine::EarthQubeConfig;
use crate::feedback::{self, FeedbackService};
use crate::filtered::{PrefilterMode, ResolvedFilter};
use crate::ingest::{insert_patch_docs, prepare_collections, prepare_patch_docs};
use crate::net::plan_spec;
use crate::persist::{self, Sequence, WalRecord};
use crate::query::ImageQuery;
use crate::schema::{collections, fields};
use crate::EarthQubeError;

thread_local! {
    /// Each thread's CBIR scratch: the counting selection over the
    /// dense-id arena (per-distance counters and the rows that passed the
    /// falling bound, never a full candidate list), reused across queries,
    /// so a steady-state k-NN or radius query performs **zero search-path
    /// allocation**.
    static SCRATCH: RefCell<CountingTopK> = RefCell::default();
}

/// Runs `f` on this thread's scratch.  A thread runs one query at a time
/// and no query re-enters another, so the scratch is never shared and
/// never borrowed twice; it warms on a thread's first CBIR query.
fn with_thread_scratch<R>(f: impl FnOnce(&mut CountingTopK) -> R) -> R {
    SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

/// The most bytes a row writes after its prefix: the distance flag and the
/// distance.
const DISTANCE_BYTES: usize = 5;

/// Room an answer buffer reserves past its rows: the body's tag, row count,
/// page size, label counts, image count and a short plan.
const ANSWER_TAIL_BYTES: usize = 256;

/// Each patch's result-row prefix ([`eq_proto::encode_row_prefix`]: name,
/// country tag, date, label bits), encoded back to back and indexed by
/// dense id.  [`Catalog::apply`] appends a patch's prefix beside its
/// metadata, so every write path fills it; it is never persisted (recovery
/// rebuilds it as it rebuilds the arena).
#[derive(Debug, Default)]
pub(crate) struct RowTable {
    bytes: Vec<u8>,
    /// `ends[r]` is where row *r*'s prefix ends; it starts where row
    /// *r* − 1's ends.
    ends: Vec<usize>,
}

impl RowTable {
    /// Room for exactly `rows` more rows holding `bytes` more prefix bytes.
    fn reserve_exact(&mut self, rows: usize, bytes: usize) {
        self.ends.reserve_exact(rows);
        self.bytes.reserve_exact(bytes);
    }

    /// Appends the next dense id's prefix.
    fn push(&mut self, meta: &PatchMetadata) {
        let mut w = Writer::appending_to(std::mem::take(&mut self.bytes));
        eq_proto::encode_row_prefix(&meta.name, meta.country, meta.date, meta.labels, &mut w);
        self.bytes = w.into_bytes();
        self.ends.push(self.bytes.len());
    }

    /// Dense id `id`'s prefix.
    fn prefix(&self, id: u64) -> Option<&[u8]> {
        let row = usize::try_from(id).ok()?;
        let start = match row.checked_sub(1) {
            Some(before) => *self.ends.get(before)?,
            None => 0,
        };
        self.bytes.get(start..*self.ends.get(row)?)
    }

    /// The mean prefix length: what an answer reserves per row.
    fn mean_len(&self) -> usize {
        self.bytes.len().checked_div(self.ends.len()).unwrap_or_default()
    }
}

/// Everything a query reads and the write path mutates, as one value, so
/// every query sees a consistent snapshot of store, metadata, code table
/// and arena.
#[derive(Debug)]
pub(crate) struct Catalog {
    pub(crate) database: Database,
    /// Indexed by dense patch id.
    pub(crate) metadata: Vec<PatchMetadata>,
    /// Indexed by dense patch id, filled beside `metadata`.
    pub(crate) rows: RowTable,
    pub(crate) cbir: CbirService,
    pub(crate) page_size: usize,
}

impl Catalog {
    /// Builds the core from an archive: trains MiLaN, hashes the archive
    /// once and applies one ingest record per patch to the
    /// [`empty`](Self::empty) core, through the same check and
    /// [`apply`](Self::apply) every later write takes.
    ///
    /// # Errors
    /// Propagates model-configuration errors, and refuses an archive whose
    /// patches are not in dense-id order or repeat a name.
    pub(crate) fn build(
        archive: &Archive,
        config: &EarthQubeConfig,
    ) -> Result<Self, EarthQubeError> {
        let mut model = Milan::new(config.milan.clone()).map_err(EarthQubeError::BadRequest)?;
        if config.train_model {
            model.train_on_archive(archive);
        }
        let codes = model.hash_archive(archive);
        let mut catalog = Self::empty(model, config.page_size, archive.len());
        // Every record is built before the first is applied, so what the
        // queries read (the metadata names, the name→code keys) is
        // allocated together, not each piece between two patches' rasters.
        let metas = archive.metadata();
        // The row table is sized exactly, once, before the first record.
        let prefix_bytes = metas.iter().map(|m| eq_proto::row_prefix_len(&m.name)).sum();
        catalog.rows.reserve_exact(metas.len(), prefix_bytes);
        let docs: Vec<_> =
            archive.patches().iter().map(|p| prepare_patch_docs(p, &p.meta.name)).collect();
        for ((meta, (image_doc, rendered_doc)), code) in metas.into_iter().zip(docs).zip(codes) {
            catalog.apply_record(WalRecord::Ingest { meta, code, image_doc, rendered_doc })?;
        }
        Ok(catalog)
    }

    /// An empty core over a trained model, with room for `images`: the four
    /// collections with their indexes, no image and no feedback — what
    /// recovery applies a checkpoint's records to.
    pub(crate) fn empty(model: Milan, page_size: usize, images: usize) -> Self {
        let mut database = Database::new();
        prepare_collections(&mut database);
        let cbir = CbirService::new(model, images);
        let metadata = Vec::with_capacity(images);
        Self { database, metadata, rows: RowTable::default(), cbir, page_size }
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

    /// Checks a batch of writes in order, each against the catalog as the
    /// records before it leave it: how many lead the batch before the first
    /// refusal, and that refusal.  [`apply`](Self::apply) cannot fail them.
    pub(crate) fn check_records(
        &self,
        records: &[WalRecord],
    ) -> (usize, Result<(), EarthQubeError>) {
        // The names the batch's earlier ingest records take, one per id.
        let mut ahead = HashSet::new();
        for (i, record) in records.iter().enumerate() {
            if let Err(e) = self.check_record(record, &ahead) {
                return (i, Err(e));
            }
            if let WalRecord::Ingest { meta, .. } = record {
                ahead.insert(meta.name.as_str());
            }
        }
        (records.len(), Ok(()))
    }

    /// One record's check, behind the `ahead` names.  Feedback must hold
    /// text.  An ingest must carry the next dense id (its metadata document's
    /// id too), a code of the model's width and documents keyed by its name,
    /// or it is an [`EarthQubeError::Persist`]; a name already indexed is a
    /// [`EarthQubeError::BadRequest`], one already stored a store error.
    fn check_record(
        &self,
        record: &WalRecord,
        ahead: &HashSet<&str>,
    ) -> Result<(), EarthQubeError> {
        let (meta, code, image_doc, rendered_doc) = match record {
            WalRecord::Ingest { meta, code, image_doc, rendered_doc } => {
                (meta, code, image_doc, rendered_doc)
            }
            WalRecord::Feedback { text, .. } => return feedback::trimmed(text).map(drop),
        };
        let next = self.metadata.len() + ahead.len();
        let next_doc = self.database.collection(collections::METADATA)?.next_id() as usize;
        let bits = self.cbir.code_bits();
        if (meta.id.0 as usize, next_doc + ahead.len(), code.bits()) != (next, next, bits) {
            return Err(EarthQubeError::Persist(format!(
                "the record for {} carries dense id {} and a {}-bit code, expected id {next} \
                 (next document id {next_doc}) and {bits} bits",
                meta.name,
                meta.id.0,
                code.bits()
            )));
        }
        let name = &meta.name;
        if ahead.contains(name.as_str()) {
            return Err(EarthQubeError::BadRequest(format!("image {name} is twice in the batch")));
        }
        self.ensure_new(name)?;
        let key = Value::Str(name.clone());
        if [image_doc, rendered_doc].iter().any(|doc| doc.get(fields::NAME) != Some(&key)) {
            return Err(EarthQubeError::Persist(format!("a document of {name} has another key")));
        }
        // All three collections are keyed by name, so the image document
        // stands in for the metadata document built at apply.
        use collections::{IMAGE_DATA, METADATA, RENDERED};
        for (coll, doc) in
            [(METADATA, image_doc), (IMAGE_DATA, image_doc), (RENDERED, rendered_doc)]
        {
            self.database.collection(coll)?.check_insert(doc)?;
        }
        Ok(())
    }

    /// Applies one write [`check_records`](Self::check_records) passed and
    /// returns its key: an ingest's dense id, a feedback entry's id.  Every
    /// write applies here, so a recovered server or a replica is
    /// byte-identical to the server that took the writes, and arena row
    /// *r*, metadata entry *r* and metadata document *r* are dense id *r*.
    pub(crate) fn apply(&mut self, record: WalRecord) -> i64 {
        match record {
            WalRecord::Ingest { meta, code, image_doc, rendered_doc } => {
                insert_patch_docs(&mut self.database, &meta, image_doc, rendered_doc);
                self.cbir.insert(meta.id.0 as u64, &meta.name, code);
                self.rows.push(&meta);
                self.metadata.push(meta);
                self.metadata.len() as i64 - 1
            }
            WalRecord::Feedback { text, category } => {
                let stored = FeedbackService.submit(&mut self.database, &text, category.as_deref());
                // lint:allow(panic) check_records refused an empty text, and feedback ids are 0..len (nothing deletes feedback), so `len` is free
                stored.expect("checked feedback is stored")
            }
        }
    }

    /// One write on its own, checked then applied: the bare engine's and
    /// the build's, and recovery's from a checkpoint's records.
    pub(crate) fn apply_record(&mut self, record: WalRecord) -> Result<i64, EarthQubeError> {
        self.check_records(std::slice::from_ref(&record)).1?;
        Ok(self.apply(record))
    }

    /// How many records of a sequence the catalog holds: images by dense
    /// id, feedback entries by id.  Each sequence only grows (a write
    /// applies only what its log holds, and nothing is ever taken back), so
    /// a count is a position in it.
    pub(crate) fn record_count(&self, sequence: Sequence) -> usize {
        match sequence {
            Sequence::Ingest => self.metadata.len(),
            Sequence::Feedback => {
                self.database.collection(collections::FEEDBACK).map_or(0, |c| c.len())
            }
        }
    }

    /// The records chunk body of a sequence from `start` on, with at most
    /// `budget` bytes of records (see [`append_records`](Self::append_records)).
    pub(crate) fn encode_records(
        &self,
        sequence: Sequence,
        start: usize,
        budget: Option<usize>,
    ) -> Result<Vec<u8>, EarthQubeError> {
        let mut chunk = persist::records_chunk(start);
        self.append_records(sequence, start..usize::MAX, budget, &mut chunk)?;
        Ok(chunk.into_bytes())
    }

    /// Appends a sequence's records at the positions `records` (those the
    /// catalog holds) to a records chunk body, and returns how many: each
    /// record encoded as its write logged it, from the catalog's own parts
    /// — metadata, stored code and stored documents — so no document is
    /// cloned, and each record is found by its position, so none before
    /// the range is visited.  With a `budget`, it stops before the first
    /// record past it once the appended records hold that many bytes: it
    /// appends at least one record when any is pending.
    pub(crate) fn append_records(
        &self,
        sequence: Sequence,
        records: Range<usize>,
        budget: Option<usize>,
        chunk: &mut eq_wire::Writer,
    ) -> Result<usize, EarthQubeError> {
        let base = chunk.len();
        let full = |chunk: &eq_wire::Writer| chunk.len() - base >= budget.unwrap_or(usize::MAX);
        let end = records.end.min(self.record_count(sequence));
        let mut appended = 0;
        match sequence {
            Sequence::Ingest => {
                let images = self.database.collection(collections::IMAGE_DATA)?;
                let rendered = self.database.collection(collections::RENDERED)?;
                for meta in self.metadata.get(records.start..end).unwrap_or_default() {
                    if full(chunk) {
                        break;
                    }
                    let key = Value::Str(meta.name.clone());
                    let missing = || EarthQubeError::UnknownImage(meta.name.clone());
                    let image_doc = images.get_by_key(&key).ok_or_else(missing)?;
                    let rendered_doc = rendered.get_by_key(&key).ok_or_else(missing)?;
                    let (_, code) = self.image(&meta.name)?;
                    persist::encode_ingest(meta, code, image_doc, rendered_doc, chunk);
                    appended += 1;
                }
            }
            Sequence::Feedback => {
                let feedback = self.database.collection(collections::FEEDBACK)?;
                for id in records.start..end {
                    if full(chunk) {
                        break;
                    }
                    // Feedback ids are positions: nothing deletes feedback.
                    let doc = feedback.get_by_key(&Value::Int(id as i64));
                    let text = doc.and_then(|doc| doc.get("text")?.as_str());
                    let text = text.ok_or_else(|| {
                        EarthQubeError::Persist(format!("feedback entry {id} holds no text"))
                    })?;
                    let category = doc.and_then(|doc| doc.get("category")?.as_str());
                    persist::encode_feedback(text, category, chunk);
                    appended += 1;
                }
            }
        }
        Ok(appended)
    }

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

    /// The query-panel search over a resolved filter, written into `w`:
    /// the matching images in ascending dense id — insertion order, as
    /// `Collection::find` lists them — with the plan `find` would report.
    pub(crate) fn search(
        &self,
        filter: &ResolvedFilter,
        w: &mut Writer,
    ) -> Result<(), EarthQubeError> {
        let hits = filter.mask.iter().map(|id| (id, None));
        let plan = plan_spec(&filter.query_plan);
        self.answer(AnswerPlan::Search(Some(&plan)), filter.plan.matching, hits, w)
    }

    /// The `k` nearest neighbours of an archive image, itself excluded.
    pub(crate) fn similar_to(
        &self,
        name: &str,
        k: usize,
        w: &mut Writer,
    ) -> Result<(), EarthQubeError> {
        let (id, code) = self.image(name)?;
        self.nearest(code, k, Some(id), None, w)
    }

    /// The `k` archive images nearest to an arbitrary code: query by new
    /// example, once the model has encoded the upload.
    pub(crate) fn search_by_code(
        &self,
        code: &BinaryCode,
        k: usize,
        w: &mut Writer,
    ) -> Result<(), EarthQubeError> {
        self.nearest(code, k, None, None, w)
    }

    /// [`similar_to`](Self::similar_to) among the images matching the
    /// resolved query-panel filter only.
    pub(crate) fn similar_to_filtered(
        &self,
        name: &str,
        k: usize,
        filter: &ResolvedFilter,
        w: &mut Writer,
    ) -> Result<(), EarthQubeError> {
        let (id, code) = self.image(name)?;
        self.nearest(code, k, Some(id), Some(filter), w)
    }

    /// Every image within `radius` of an archive image's code that matches
    /// the resolved query-panel filter, itself excluded, by distance then id.
    /// A radius past the code width is the width.
    pub(crate) fn similar_within_filtered(
        &self,
        name: &str,
        radius: u32,
        filter: &ResolvedFilter,
        w: &mut Writer,
    ) -> Result<(), EarthQubeError> {
        let (id, code) = self.image(name)?;
        with_thread_scratch(|topk| {
            let hits = topk.within(&self.cbir.arena, code.words(), radius, Some(&filter.mask));
            let kept = hits.iter().filter(|hit| hit.id != id);
            let kept = kept.map(|hit| (hit.id, Some(hit.distance)));
            self.answer(AnswerPlan::Filtered(filter.plan), hits.len(), kept, w)
        })
    }

    /// An archive image's dense id and code.
    fn image(&self, name: &str) -> Result<(u64, &BinaryCode), EarthQubeError> {
        self.cbir.image(name).ok_or_else(|| EarthQubeError::UnknownImage(name.to_string()))
    }

    /// The metadata of an archive image, found by its dense id.
    pub(crate) fn metadata_of(&self, name: &str) -> Option<&PatchMetadata> {
        self.metadata.get(self.cbir.image(name)?.0 as usize)
    }

    /// The one k-NN entry: the `k` images nearest to `code`, among those
    /// matching `filter` when there is one, with the dense id `exclude`
    /// dropped, written into `w`: a search answer, or with a `filter` a
    /// filtered one ending with the filter's plan.
    ///
    /// The query image is itself indexed, so one extra hit is selected and
    /// the image dropped from the ranking.  `k` is clamped to the archive
    /// size first, so the extra hit cannot overflow whatever `k` a caller
    /// sends.  Row *r* of the arena is dense id *r*, so the counting
    /// selection's (distance, row) order is (distance, id) order.
    ///
    /// # Panics
    /// Panics if `code` is not as wide as the archive's codes.
    fn nearest(
        &self,
        code: &BinaryCode,
        k: usize,
        exclude: Option<u64>,
        filter: Option<&ResolvedFilter>,
        w: &mut Writer,
    ) -> Result<(), EarthQubeError> {
        let wanted = k.min(self.metadata.len()) + usize::from(exclude.is_some());
        let arena = &self.cbir.arena;
        assert_eq!(code.bits(), arena.bits(), "query width does not match the index");
        let plan = filter.map_or(AnswerPlan::Search(None), |f| AnswerPlan::Filtered(f.plan));
        with_thread_scratch(|topk| {
            let hits = topk.knn(arena, code.words(), wanted, filter.map(|f| &f.mask));
            let kept = hits.iter().filter(|hit| exclude != Some(hit.id));
            let kept = kept.take(k).map(|hit| (hit.id, Some(hit.distance)));
            self.answer(plan, hits.len().min(k), kept, w)
        })
    }

    /// The row-copy loop, the one answer assembly: writes into `w` the
    /// response body of `hits` (dense id, distance), in the order given —
    /// each hit's row-table prefix copied, its distance written after it,
    /// the label statistics counted from the prefixes — then the page size
    /// and `plan`.  `expected` rows are reserved for; the body counts the
    /// rows it wrote.  An id past the table is an error, and leaves `w`
    /// holding a torn body.
    pub(crate) fn answer(
        &self,
        plan: AnswerPlan<'_>,
        expected: usize,
        hits: impl Iterator<Item = (u64, Option<u32>)>,
        w: &mut Writer,
    ) -> Result<(), EarthQubeError> {
        let row_bytes = self.rows.mean_len() + DISTANCE_BYTES;
        w.reserve(expected.saturating_mul(row_bytes).saturating_add(ANSWER_TAIL_BYTES));
        let mut answer = AnswerWriter::new(w, plan);
        for (id, distance) in hits {
            answer.row(self.rows.prefix(id).ok_or_else(|| unknown_row(id))?, distance);
        }
        answer.finish(self.page_size);
        Ok(())
    }
}

/// A hit whose dense id the catalog does not hold.
fn unknown_row(id: u64) -> EarthQubeError {
    EarthQubeError::UnknownImage(format!("dense patch id {id}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_bigearthnet::{ArchiveGenerator, GeneratorConfig};

    fn prefix_of(meta: &PatchMetadata) -> Vec<u8> {
        let mut w = Writer::new();
        eq_proto::encode_row_prefix(&meta.name, meta.country, meta.date, meta.labels, &mut w);
        w.into_bytes()
    }

    /// The build sizes the row table once, exactly: one allocation each
    /// for the prefixes and the offsets, no doubling slack, so the table
    /// is one block allocated before any record.  A later write grows it,
    /// and every row is the prefix of the metadata entry of its dense id.
    #[test]
    fn the_build_sizes_the_row_table_exactly() {
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(30, 81)).unwrap().generate();
        let mut config = EarthQubeConfig::fast(81);
        config.train_model = false;
        let patches = archive.patches();
        let mut catalog = Catalog::build(&Archive::new(patches[..29].to_vec()), &config).unwrap();
        let rows = &catalog.rows;
        assert_eq!((rows.bytes.capacity(), rows.ends.capacity()), (rows.bytes.len(), 29));
        let mut meta = patches[29].meta.clone();
        meta.id = eq_bigearthnet::patch::PatchId(29);
        let code = catalog.cbir.model().hash_patch(&patches[29]);
        let (image_doc, rendered_doc) = prepare_patch_docs(&patches[29], &meta.name);
        catalog.apply_record(WalRecord::Ingest { meta, code, image_doc, rendered_doc }).unwrap();
        for (id, meta) in catalog.metadata.iter().enumerate() {
            assert_eq!(catalog.rows.prefix(id as u64), Some(&prefix_of(meta)[..]), "row {id}");
        }
        assert_eq!(catalog.rows.prefix(30), None);
        assert_eq!(catalog.rows.prefix(u64::MAX), None);
    }
}
