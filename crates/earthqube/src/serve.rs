//! Concurrent query serving: the [`QueryServer`] puts the one query core
//! (the crate's `catalog` module, which the [`EarthQube`] facade runs bare,
//! one query at a time) behind shared state, so many analyst sessions can
//! search the archive in parallel while ingest traffic proceeds on an
//! isolated write path.  What the server adds to the core:
//!
//! * **Catalog lock** — the whole core (document store, metadata table,
//!   name→code map, code arena) sits behind one `parking_lot::RwLock`.
//!   Queries take the read side (shared, concurrent).  The write side is
//!   taken in one place, the server's write section, which every writer
//!   runs through — ingest, feedback, recovery's replay and a replicated
//!   batch — inside the WAL lock, and only once the write's records are
//!   checked (under the read side) and synced: it applies them and clears
//!   both caches exactly when the archive grew.  Holding the read lock
//!   across a query gives every query a consistent snapshot.
//! * **One index** — the core scans one [`eq_hashindex::CodeArena`] whose
//!   row *r* holds dense patch id *r*, whatever [`ServeConfig::shards`]
//!   says.  Checkpoints never write it (recovery rebuilds it from the
//!   checkpointed records), and it takes no lock of its own: it sits
//!   behind the catalog lock with the rest of the core.
//! * **Result cache** — a bounded LRU of answers held as the wire encodes
//!   them: each value is a [`ResponseBody`]'s bytes (`Arc<Vec<u8>>`, no
//!   envelope).  The four query kinds (`Search`, `SimilarTo`,
//!   `SimilarToFiltered`, `SimilarWithinFiltered`) are keyed on the request
//!   itself, an upload on its code and `k` (no request carries the code).
//!   Entries live under a structural hash of the key; the full key is
//!   stored and compared, so a fingerprint collision is a miss, never a
//!   wrong answer.  A miss files the very buffer the query core wrote from
//!   its row table (every answer arrives encoded, cache on or off); a hit
//!   hands it out — [`QueryServer::frame`] puts it behind a fresh envelope
//!   for the network tier, and [`QueryServer::call`] decodes it, so an
//!   in-process hit returns the very bytes a remote client receives.
//! * **Resolved-filter cache** — a second instance of the same LRU, under
//!   the first: what the core's resolver returned for a (filter, mode),
//!   budgeted in bytes.  A filter-taking query that misses the result
//!   cache (another query image, `k` or radius under the same panel
//!   filter) finds its filter here and skips `to_filter`, the prefilter
//!   compile, the candidate walk and the mask build.
//!   Both caches are off at `cache_capacity: 0`, and both are cleared by
//!   the one `invalidate`, which the write section calls whenever a write
//!   grew the archive, under the catalog write lock — readers insert under
//!   the read lock, so they can never re-insert a stale entry.
//! * **One request entry** — [`QueryServer::call`] answers any
//!   [`RequestBody`] with the [`ResponseBody`] the network tier sends, and
//!   [`QueryServer::frame`] answers a [`Request`] with that body's frame,
//!   hit or miss, which is what the event loops write.  The
//!   four query kinds run there, through the result cache, and their typed
//!   methods are `call` with the request they name; every other kind runs
//!   its typed method.  Those borrow names and patches, so in-process
//!   ingest and uploads copy no raster, and they validate every patch
//!   themselves (before ingest's role check), so every caller gets the
//!   same `BadRequest` for a bad one.
//! * **Worker pool** — [`QueryServer::run_workload`] fans a batch of
//!   [`RequestBody`]s over K scoped threads (`std::thread::scope`); all
//!   query entry points take `&self`, so workers share the server by plain
//!   reference.
//! * **Lock-free bookkeeping** — the query counters are three atomics
//!   (hits, misses, failures; `queries_served` is their sum), the ingest
//!   count is the archive's growth since construction, and the search
//!   scratch (a counting top-k selection) is the core's,
//!   one per thread, so steady-state serving does zero search-path
//!   allocation and a CBIR cache miss takes the catalog read lock and one
//!   cache-shard lock, nothing else.
//! * **Durability** — one component (the crate's `durability` module) owns
//!   the persistence attachment, the write-ahead log policy, the checkpoint
//!   protocol and the checkpointer; this file keeps the catalog side of
//!   every write (the write section) and the primary/replica role flag.
//!   What a server serves *to* replicas is in [`crate::replicate`].
//!
//! Determinism: a workload executed through the server returns exactly the
//! same [`SearchResponse`]s as the engine, regardless of worker count and
//! configuration — the umbrella crate's `concurrent_serving` test asserts
//! byte-identical result panels, and its `proptest_call` test that a typed
//! method, [`QueryServer::call`] and a remote call answer alike.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use eq_agora::AssetRegistry;
use eq_bigearthnet::patch::{Patch, PatchId, PatchMetadata};
use eq_bigearthnet::Archive;
use eq_hashindex::BinaryCode;
use eq_milan::Milan;
use parking_lot::RwLock;

use crate::catalog::Catalog;
pub use crate::durability::{CheckpointKind, CheckpointStats, CheckpointerStats};
use crate::durability::{Durability, Lineage};
use crate::engine::{build_registry, EarthQube, EarthQubeConfig, SearchResponse};
use crate::feedback::{FeedbackEntry, FeedbackService};
use crate::filtered::{FilteredResponse, PrefilterMode, ResolvedFilter};
use crate::ingest::{patch_rasters, validate_patch, IngestReport};
use crate::net::{
    encode_response_frame, error_to_payload, expect_filtered, expect_search, query_to_spec,
    render_metrics, spec_to_query, unsendable, NetTierStats,
};
use crate::persist::{self, Sequence, WalRecord};
use crate::query::ImageQuery;
use crate::EarthQubeError;

/// Configuration of the serving layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// No longer affects serving: the CBIR index is one arena, whatever
    /// the value.  It stays because the static checkpoint chunk persists it
    /// (normalised to at least 1, which recovery checks) and the frozen
    /// benchmark harness sets it; ROADMAP item 2 (iv) deletes it.
    pub shards: usize,
    /// Maximum number of cached query results; `0` disables the cache.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { shards: 8, cache_capacity: 256 }
    }
}

impl ServeConfig {
    /// A configuration with the result cache disabled: every request runs
    /// the query core (the E8 bench's raw-throughput server and the tests'
    /// cache-free references).
    pub fn uncached(shards: usize) -> Self {
        Self { shards, cache_capacity: 0 }
    }
}

// The serving-counter snapshot is defined in `eq_proto` beside its codec,
// which carries all ten counters.
pub use eq_proto::ServerStats;
// A request and its answer are the wire's values, in process too.
pub use eq_proto::{Request, RequestBody, ResponseBody};

/// Cap on the neighbour count a request may ask for: far above any UI use,
/// far below values whose `k + 1` arithmetic could overflow in the engine.
const MAX_REQUEST_K: u64 = 1 << 20;

/// A request's `u64` neighbour count as the engine's `usize`.
fn clamp_k(k: u64) -> usize {
    k.min(MAX_REQUEST_K) as usize
}

/// Result-cache key: the full request identity, stored alongside each entry
/// and compared on lookup so a 64-bit fingerprint collision degrades to a
/// cache miss instead of returning the wrong result.
#[derive(Debug, Clone, PartialEq)]
enum CacheKey {
    /// `Search`, `SimilarTo`, `SimilarToFiltered` and
    /// `SimilarWithinFiltered`: the request itself, as it arrived.  The
    /// filtered kinds' filter and prefilter mode are part of it — two modes
    /// may resolve the same mask through different plans, and the cached
    /// answer carries that plan.
    Request(RequestBody),
    /// An upload, by its code and `k`: no request carries the code, and
    /// keying on the patch would hash its rasters.
    ByCode(BinaryCode, usize),
}

/// A [`CacheKey`] borrowed: what a probe compares and hashes, so a request
/// is looked up where it lies and copied only when its answer is filed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum KeyRef<'a> {
    Request(&'a RequestBody),
    ByCode(&'a BinaryCode, usize),
}

impl CacheKey {
    fn as_ref(&self) -> KeyRef<'_> {
        match self {
            CacheKey::Request(body) => KeyRef::Request(body),
            CacheKey::ByCode(code, k) => KeyRef::ByCode(code, *k),
        }
    }
}

impl KeyRef<'_> {
    fn to_owned(self) -> CacheKey {
        match self {
            KeyRef::Request(body) => CacheKey::Request(body.clone()),
            KeyRef::ByCode(code, k) => CacheKey::ByCode(code.clone(), k),
        }
    }
}

/// The key's fields, hashed structurally.  Other request kinds are never
/// keys and hash to their kind alone.
impl Hash for KeyRef<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match *self {
            KeyRef::ByCode(code, k) => (0u8, code, k).hash(state),
            KeyRef::Request(RequestBody::Search(spec)) => (1u8, spec).hash(state),
            KeyRef::Request(RequestBody::SimilarTo { name, k }) => (2u8, name, k).hash(state),
            KeyRef::Request(RequestBody::SimilarToFiltered { name, k, spec, mode }) => {
                (3u8, name, k, spec, mode).hash(state);
            }
            KeyRef::Request(RequestBody::SimilarWithinFiltered { name, radius, spec, mode }) => {
                (4u8, name, radius, spec, mode).hash(state);
            }
            KeyRef::Request(_) => 5u8.hash(state),
        }
    }
}

/// An owned key hashes as its borrowed probe, so both find one entry.
impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

/// Resolved-filter-cache key: the filter and the mode that resolved it, so
/// `ForceBitmap` and `ForcePostFilter` each keep executing, and reporting,
/// their own strategy.
type FilterKey = (ImageQuery, PrefilterMode);

/// Where a key lives in either cache: a structural hash (a query hashes its
/// shape's floats by bit pattern, see `GeoShape`'s `Hash`), no rendering.
fn fingerprint<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

struct LruEntry<K, V> {
    key: K,
    value: V,
    weight: usize,
    last_used: u64,
}

/// One independently-locked slice of a cache: a map from fingerprint to
/// entry, bounded by the sum of the entries' weights, evicting strictly
/// least-recently-used first.
struct LruShard<K, V> {
    budget: usize,
    used: usize,
    tick: u64,
    entries: HashMap<u64, LruEntry<K, V>>,
    /// `last_used → fingerprint` of every entry (ticks are unique), so the
    /// victim is the first pair: eviction is O(log n), not a scan.
    recency: BTreeMap<u64, u64>,
}

impl<K, V: Clone> LruShard<K, V> {
    fn new(budget: usize) -> Self {
        Self { budget, used: 0, tick: 0, entries: HashMap::new(), recency: BTreeMap::new() }
    }

    /// The value under `fp` if its key `is_key`, refreshed as most recent.
    fn lookup(&mut self, fp: u64, is_key: impl FnOnce(&K) -> bool) -> Option<V> {
        self.tick += 1;
        let entry = self.entries.get_mut(&fp).filter(|entry| is_key(&entry.key))?;
        self.recency.remove(&entry.last_used);
        entry.last_used = self.tick;
        self.recency.insert(self.tick, fp);
        // lint:allow(hot-path) both caches hold `Arc`s: a reference-count increment
        Some(entry.value.clone())
    }

    fn remove(&mut self, fp: u64) {
        if let Some(entry) = self.entries.remove(&fp) {
            self.recency.remove(&entry.last_used);
            self.used -= entry.weight;
        }
    }

    /// Files `value`, evicting from the least recently used end until it
    /// fits; a value heavier than the whole budget is not kept.
    fn put(&mut self, fp: u64, key: K, value: V, weight: usize) {
        if weight > self.budget {
            return;
        }
        self.tick += 1;
        self.remove(fp);
        while self.used + weight > self.budget {
            let Some((_, victim)) = self.recency.pop_first() else { break };
            if let Some(entry) = self.entries.remove(&victim) {
                self.used -= entry.weight;
            }
        }
        self.used += weight;
        self.recency.insert(self.tick, fp);
        self.entries.insert(fp, LruEntry { key, value, weight, last_used: self.tick });
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.recency.clear();
        self.used = 0;
    }
}

/// The one bounded LRU cache, split into fingerprint-routed shards so a
/// cache hit (which must touch the recency order, i.e. write) only locks
/// one slice of the cache instead of serialising every worker on a single
/// lock.  The server keeps two: the result cache, budgeted in entries, and
/// the resolved-filter cache, budgeted in bytes.
struct Lru<K, V> {
    shards: Vec<RwLock<LruShard<K, V>>>,
}

impl<K, V: Clone> Lru<K, V> {
    /// `budget` split evenly over `shards` slices whose locks carry `name`.
    fn new(budget: usize, shards: usize, name: &'static str) -> Self {
        let base = budget / shards;
        let remainder = budget % shards;
        Self {
            shards: (0..shards)
                .map(|i| RwLock::with_name(LruShard::new(base + usize::from(i < remainder)), name))
                .collect(),
        }
    }

    fn shard(&self, fp: u64) -> &RwLock<LruShard<K, V>> {
        &self.shards[(fp % self.shards.len() as u64) as usize]
    }

    /// The cache-hit path of both caches: one shard lock, one map probe,
    /// one key comparison, one recency update.
    fn lookup(&self, fp: u64, is_key: impl FnOnce(&K) -> bool) -> Option<V> {
        self.shard(fp).write().lookup(fp, is_key)
    }

    fn put(&self, fp: u64, key: K, value: V, weight: usize) {
        self.shard(fp).write().put(fp, key, value, weight);
    }

    fn clear(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().entries.len()).sum()
    }

    /// Total weight held.
    fn used(&self) -> usize {
        self.shards.iter().map(|s| s.read().used).sum()
    }
}

/// The result cache holds every answer as the wire encodes it: the
/// [`ResponseBody`]'s bytes, without the envelope (version and request id),
/// which each reply adds fresh.  A filtered answer's plan is part of those
/// bytes, so a replayed hit reports the strategy that resolved the mask.
/// Every entry weighs one, so its budget is an entry count.
type ResultCache = Lru<CacheKey, Arc<Vec<u8>>>;

/// Shards of a sharded cache.
const CACHE_SHARDS: usize = 8;

/// Result caches at or above this capacity are sharded; smaller ones stay
/// single-sharded so eviction remains strict global LRU.
const RESULT_CACHE_SHARD_THRESHOLD: usize = 64;

/// The resolved-filter cache: what `Catalog::resolve` returned for a
/// (filter, mode), weighed in bytes.
type FilterCache = Lru<FilterKey, Arc<ResolvedFilter>>;

/// The resolved-filter cache's budget, fixed in code: at 40k patches a mask
/// is 5 KB, so this holds a 2 048-filter panel vocabulary in every mode.
const FILTER_CACHE_BYTES: usize = 32 << 20;

/// The concurrent EarthQube serving layer.
///
/// Every query entry point takes `&self`, so a server shared by reference
/// (or inside an `Arc`) serves many threads at once; [`ingest`] and
/// [`submit_feedback`] are the write path, through the server's one write
/// section — they also only need `&self`.
///
/// [`ingest`]: Self::ingest
/// [`submit_feedback`]: Self::submit_feedback
pub struct QueryServer {
    config: EarthQubeConfig,
    serve: ServeConfig,
    /// The query core, whole, behind one lock: queries take the read side,
    /// the write section the write side.
    pub(crate) catalog: RwLock<Catalog>,
    /// The catalog's model, shared: it never changes once built, so uploads
    /// and ingest batches are hashed without taking the catalog lock.
    model: Arc<Milan>,
    cache: ResultCache,
    /// What `Catalog::resolve` returned for each (filter, mode) since the
    /// last write; off, like the result cache, when `cache_capacity` is 0.
    filter_cache: FilterCache,
    filter_cache_hits: AtomicU64,
    filter_cache_misses: AtomicU64,
    registry: AssetRegistry,
    /// Each query bumps exactly one of these three, at its outcome: a
    /// result-cache hit, a computed answer, or an error.  `queries_served`
    /// is their sum, so a snapshot never counts a query as served but
    /// unclassified.
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    failed_queries: AtomicU64,
    /// The archive size the server was constructed with: everything past
    /// it arrived through the write section (live ingest, recovery's replay
    /// of the WAL tail, replication), and `ingested_images` reports it.
    constructed_size: usize,
    /// The durable tier: the persistence attachment (installed by
    /// [`checkpoint`](Self::checkpoint) / [`recover`](Self::recover)), its
    /// write-ahead log, the checkpoint protocol and the checkpointer.
    pub(crate) durability: Durability,
    /// `true` while this server accepts writes.  Cleared by
    /// [`set_replica_mode`](Self::set_replica_mode), restored by
    /// [`promote`](Self::promote); the network tier rejects ingest and
    /// feedback with [`EarthQubeError::NotPrimary`] while it is `false`,
    /// so every durable record originates on exactly one primary.
    primary: AtomicBool,
}

impl std::fmt::Debug for QueryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryServer")
            .field("serve", &self.serve)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl QueryServer {
    /// Builds the query core over the archive, every code indexed once.
    ///
    /// # Errors
    /// Propagates ingestion/model-configuration errors.
    pub fn build(
        archive: &Archive,
        config: EarthQubeConfig,
        serve: ServeConfig,
    ) -> Result<Self, EarthQubeError> {
        let catalog = Catalog::build(archive, &config)?;
        let registry = build_registry(&config);
        Ok(Self::new(config, serve, catalog, registry))
    }

    /// Converts a built [`EarthQube`] engine into a concurrent server by
    /// moving its query core across as it is, index included.  Server
    /// responses are identical to the consumed engine's.
    ///
    /// # Errors
    /// Never fails; the `Result` stays for callers that propagate it.
    pub fn from_engine(engine: EarthQube, serve: ServeConfig) -> Result<Self, EarthQubeError> {
        let EarthQube { config, catalog, registry, .. } = engine;
        Ok(Self::new(config, serve, catalog, registry))
    }

    /// The one constructor: every server, built, converted or recovered,
    /// starts detached, primary, with empty caches and zeroed counters.
    fn new(
        config: EarthQubeConfig,
        serve: ServeConfig,
        catalog: Catalog,
        registry: AssetRegistry,
    ) -> Self {
        // Normalize the configuration once, so the value the server reports
        // and *persists* is one recovery accepts (a raw `shards: 0` would
        // checkpoint fine but be rejected as corrupt on recovery).
        let serve = ServeConfig { shards: serve.shards.max(1), ..serve };
        let constructed_size = catalog.metadata.len();
        Self {
            config,
            serve,
            model: Arc::clone(&catalog.cbir.model),
            catalog: RwLock::with_name(catalog, "catalog"),
            cache: Lru::new(
                serve.cache_capacity,
                if serve.cache_capacity >= RESULT_CACHE_SHARD_THRESHOLD { CACHE_SHARDS } else { 1 },
                "cache-shard",
            ),
            filter_cache: Lru::new(FILTER_CACHE_BYTES, CACHE_SHARDS, "filter-cache"),
            filter_cache_hits: AtomicU64::new(0),
            filter_cache_misses: AtomicU64::new(0),
            registry,
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            failed_queries: AtomicU64::new(0),
            constructed_size,
            durability: Durability::new(),
            primary: AtomicBool::new(true),
        }
    }

    /// The engine configuration the server was built with.
    pub fn config(&self) -> &EarthQubeConfig {
        &self.config
    }

    /// The serving-layer configuration.
    pub fn serve_config(&self) -> ServeConfig {
        self.serve
    }

    /// The AgoraEO asset registry the consumed engine registered itself in
    /// (carried over by [`from_engine`](Self::from_engine)).
    pub fn registry(&self) -> &AssetRegistry {
        &self.registry
    }

    /// Number of images currently indexed.
    pub fn archive_size(&self) -> usize {
        self.catalog.read().metadata.len()
    }

    /// The metadata of an indexed image (cloned out of the catalog lock).
    pub fn metadata_of(&self, name: &str) -> Option<PatchMetadata> {
        self.catalog.read().metadata_of(name).cloned()
    }

    /// A snapshot of the serving counters.
    ///
    /// `queries_served` is summed from the three outcome counters read
    /// here, so it always equals `cache_hits + cache_misses` plus the failed
    /// queries, even mid-workload.
    pub fn stats(&self) -> ServerStats {
        let cache_hits = self.cache_hits.load(Ordering::Relaxed);
        let cache_misses = self.cache_misses.load(Ordering::Relaxed);
        let failed = self.failed_queries.load(Ordering::Relaxed);
        let archive_size = self.catalog.read().metadata.len();
        ServerStats {
            queries_served: cache_hits + cache_misses + failed,
            cache_hits,
            cache_misses,
            cache_entries: self.cache.len(),
            filter_cache_hits: self.filter_cache_hits.load(Ordering::Relaxed),
            filter_cache_misses: self.filter_cache_misses.load(Ordering::Relaxed),
            filter_cache_entries: self.filter_cache.len(),
            filter_cache_bytes: self.filter_cache.used(),
            archive_size,
            ingested_images: (archive_size - self.constructed_size) as u64,
        }
    }

    /// Runs a query-panel metadata search (the concurrent counterpart of
    /// [`EarthQube::search`]): [`call`](Self::call) with the request it
    /// names, so a hit decodes the bytes a remote client receives.
    ///
    /// # Errors
    /// Fails on an invalid query.
    pub fn search(&self, query: &ImageQuery) -> Result<SearchResponse, EarthQubeError> {
        expect_search(self.call(&RequestBody::Search(query_to_spec(query))))
    }

    /// "Retrieve similar images" for an archive image (the concurrent
    /// counterpart of [`EarthQube::similar_to`]), through
    /// [`call`](Self::call).
    ///
    /// # Errors
    /// Fails if the image is unknown.
    pub fn similar_to(&self, name: &str, k: usize) -> Result<SearchResponse, EarthQubeError> {
        expect_search(self.call(&RequestBody::SimilarTo { name: name.to_string(), k: k as u64 }))
    }

    /// Query-by-new-example: encodes the external patch on the fly (the
    /// concurrent counterpart of [`EarthQube::search_by_new_example`]).
    ///
    /// # Errors
    /// Fails with [`EarthQubeError::BadRequest`] on a patch out of the
    /// canonical band layout; propagates store errors from result assembly.
    pub fn search_by_new_example(
        &self,
        patch: &Patch,
        k: usize,
    ) -> Result<SearchResponse, EarthQubeError> {
        expect_search(self.upload(patch, k).into_body())
    }

    /// The k most similar archive images to an arbitrary binary code.
    ///
    /// # Errors
    /// [`EarthQubeError::BadRequest`] on a code not as wide as the model's,
    /// before the cache is probed; store errors from result assembly.
    pub fn search_by_code(
        &self,
        code: &BinaryCode,
        k: usize,
    ) -> Result<SearchResponse, EarthQubeError> {
        let bits = self.model.code_bits();
        if code.bits() != bits {
            let e = format!("a {}-bit code, the model's are {bits}-bit", code.bits());
            return Err(EarthQubeError::BadRequest(e));
        }
        expect_search(self.by_code(code, k).into_body())
    }

    /// An upload's answer: the patch checked, then hashed (no lock: the
    /// model is immutable shared state), then answered by its code.
    fn upload(&self, patch: &Patch, k: usize) -> Reply {
        match validate_patch(patch) {
            Ok(()) => self.by_code(&self.model.hash_patch(patch), k),
            Err(e) => Reply::error(&e),
        }
    }

    fn by_code(&self, code: &BinaryCode, k: usize) -> Reply {
        self.cached(KeyRef::ByCode(code, k), |catalog, w| catalog.search_by_code(code, k, w))
    }

    /// Filtered "retrieve similar images" (the concurrent counterpart of
    /// [`EarthQube::similar_to_filtered`]): the `k` nearest neighbours
    /// among the images matching the query-panel filter.
    ///
    /// Filtered responses — plan included — go through the result cache
    /// like every other query: the filter, the mode, the image and `k` are
    /// all part of the request the cache is keyed on, and ingest
    /// invalidation covers them the same way.  On a result-cache miss the
    /// filter itself comes from the resolved-filter cache: the same panel
    /// filter re-issued with another query image, `k` or radius is resolved
    /// once per catalog state.
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
        let (name, k, spec) = (name.to_string(), k as u64, query_to_spec(query));
        expect_filtered(self.call(&RequestBody::SimilarToFiltered { name, k, spec, mode }))
    }

    /// Filtered radius search (the concurrent counterpart of
    /// [`EarthQube::similar_within_filtered`]): every image within the
    /// Hamming radius that also matches the query-panel filter, excluding
    /// the query image itself.
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
        let (name, spec) = (name.to_string(), query_to_spec(query));
        expect_filtered(self.call(&RequestBody::SimilarWithinFiltered { name, radius, spec, mode }))
    }

    /// Resolve-or-reuse: the filter of every filter-taking query comes
    /// through here, on that query's result-cache miss.  A hit builds no
    /// `Filter`, compiles nothing, tests no row and allocates no mask; it
    /// costs one hash of the query and one shard lock.
    ///
    /// `catalog` is the guard [`cached`](Self::cached) holds, so an entry
    /// is inserted under the catalog read lock and the argument there
    /// covers this cache too: writers clear it under the write lock.
    fn resolved(
        &self,
        catalog: &Catalog,
        query: &ImageQuery,
        mode: PrefilterMode,
    ) -> Arc<ResolvedFilter> {
        if self.serve.cache_capacity == 0 {
            return Arc::new(catalog.resolve(query, mode));
        }
        let fp = fingerprint(&(query, mode));
        if let Some(hit) = self.filter_cache.lookup(fp, |key| key.1 == mode && key.0 == *query) {
            self.filter_cache_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        let filter = Arc::new(catalog.resolve(query, mode));
        let weight = filter.size_bytes();
        self.filter_cache.put(fp, (query.clone(), mode), Arc::clone(&filter), weight);
        self.filter_cache_misses.fetch_add(1, Ordering::Relaxed);
        filter
    }

    /// The server's one request entry: answers `body` with the response
    /// the network tier sends for it, errors included.  A request's `u64`
    /// neighbour count is clamped here, where it meets `usize`.
    /// [`RequestBody::MetricsText`] renders zero network-tier counters: a
    /// server in process has no network tier, and
    /// [`NetServer`](crate::NetServer) answers that kind itself.  An
    /// answer the result cache holds is decoded from the bytes it holds.
    pub fn call(&self, body: &RequestBody) -> ResponseBody {
        self.respond(body).into_body()
    }

    /// The complete response frame answering `request`: [`call`](Self::call)'s
    /// work, framed under `request.id` — what the network tier's event
    /// loops write for every request but `MetricsText`.  An encoded answer,
    /// a result-cache hit or a body the core just wrote, is framed from its
    /// bytes: one allocation, one copy and one CRC, however many rows it
    /// holds.  A body over the frame cap is replaced by a typed
    /// `BadRequest` under the same id, so the connection keeps being served.
    pub fn frame(&self, request: &Request) -> Vec<u8> {
        let id = request.id;
        match self.respond(&request.body) {
            Reply::Body(body) => encode_response_frame(&eq_proto::Response { id, body }),
            Reply::Encoded(bytes) => {
                // lint:allow(hot-path) the frame buffer: empty here, grown once by the framing to the frame's exact size
                let mut frame = Vec::new();
                match eq_proto::frame_encoded_response(&mut frame, id, &bytes) {
                    Ok(()) => frame,
                    Err(e) => unsendable(id, &e),
                }
            }
        }
    }

    /// The response body the query core writes for an explicit hit list
    /// (dense id, distance), in the order given, ended by `plan` — the
    /// assembly every search and filtered answer runs, without a ranking in
    /// front of it.  An id past the archive is
    /// [`EarthQubeError::UnknownImage`].  The answer property suite drives
    /// it against the typed reference; it is not a serving entry.
    #[doc(hidden)]
    pub fn answer_body(
        &self,
        hits: &[(u64, Option<u32>)],
        plan: eq_proto::AnswerPlan<'_>,
    ) -> Result<Vec<u8>, EarthQubeError> {
        let mut w = eq_wire::Writer::new();
        self.catalog.read().answer(plan, hits.len(), hits.iter().copied(), &mut w)?;
        Ok(w.into_bytes())
    }

    /// [`call`](Self::call)'s and [`frame`](Self::frame)'s work: the four
    /// request-keyed read kinds and uploads go through the result cache and
    /// come back encoded; every other kind runs the typed method it names.
    fn respond(&self, body: &RequestBody) -> Reply {
        let key = KeyRef::Request(body);
        let reply = |result: Result<ResponseBody, EarthQubeError>| {
            Reply::Body(result.unwrap_or_else(|e| ResponseBody::Error(error_to_payload(&e))))
        };
        match body {
            RequestBody::Search(spec) => self.cached(key, |catalog, w| {
                let query = spec_to_query(spec);
                query.validate()?;
                catalog.search(&self.resolved(catalog, &query, PrefilterMode::Auto), w)
            }),
            RequestBody::SimilarTo { name, k } => {
                self.cached(key, |catalog, w| catalog.similar_to(name, clamp_k(*k), w))
            }
            RequestBody::SimilarToFiltered { name, k, spec, mode } => {
                self.cached(key, |catalog, w| {
                    let query = spec_to_query(spec);
                    query.validate()?;
                    let filter = self.resolved(catalog, &query, *mode);
                    catalog.similar_to_filtered(name, clamp_k(*k), &filter, w)
                })
            }
            RequestBody::SimilarWithinFiltered { name, radius, spec, mode } => {
                self.cached(key, |catalog, w| {
                    let query = spec_to_query(spec);
                    query.validate()?;
                    let filter = self.resolved(catalog, &query, *mode);
                    catalog.similar_within_filtered(name, *radius, &filter, w)
                })
            }
            RequestBody::SearchByNewExample { patch, k } => self.upload(patch, clamp_k(*k)),
            RequestBody::Ping => Reply::Body(ResponseBody::Pong),
            RequestBody::Ingest { patches } => {
                reply(self.ingest(patches).map(ResponseBody::Ingest))
            }
            RequestBody::Feedback { text, category } => reply(
                self.submit_feedback(text, category.as_deref())
                    .map(|id| ResponseBody::Feedback { id }),
            ),
            RequestBody::Stats => Reply::Body(ResponseBody::Stats(self.stats())),
            RequestBody::MetricsText => Reply::Body(ResponseBody::MetricsText(render_metrics(
                &self.stats(),
                &NetTierStats::default(),
            ))),
            RequestBody::ReplState => Reply::Body(ResponseBody::ReplState(self.repl_state())),
            RequestBody::ReplPull { generation, ingested, feedback, tails, max_bytes } => reply(
                self.repl_pull(*generation, *ingested, *feedback, *tails, *max_bytes)
                    .map(ResponseBody::ReplRecords),
            ),
        }
    }

    /// Answers a batch of requests on `workers` scoped threads through
    /// [`call`](Self::call), returning the responses in request order.
    ///
    /// The batch is split into contiguous chunks, one per worker; each
    /// worker shares the server by reference (`std::thread::scope`), so
    /// queries proceed concurrently against the shared read path while any
    /// concurrent [`ingest`](Self::ingest) serialises through the write
    /// section.
    pub fn run_workload(&self, requests: &[RequestBody], workers: usize) -> Vec<ResponseBody> {
        if requests.is_empty() {
            return Vec::new();
        }
        let workers = workers.clamp(1, requests.len());
        let chunk = requests.len().div_ceil(workers);
        let mut results: Vec<Option<ResponseBody>> = (0..requests.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (reqs, outs) in requests.chunks(chunk).zip(results.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (request, out) in reqs.iter().zip(outs.iter_mut()) {
                        *out = Some(self.call(request));
                    }
                });
            }
        });
        results
            .into_iter()
            // lint:allow(panic) infallible: chunks() and chunks_mut() with the same size partition 0..len identically
            .map(|r| r.expect("every request is assigned to exactly one worker"))
            .collect()
    }

    /// Appends patches to the live archive: the write path.
    ///
    /// The expensive per-patch work — encoding with the model, serialising
    /// band data, rendering RGB — happens under no lock; the write section
    /// then checks, logs and applies the records, so concurrent queries
    /// are only blocked for the in-memory apply and the cache invalidation.
    /// When the server is attached to a persistence directory (via
    /// [`checkpoint`](Self::checkpoint), [`recover`](Self::recover) or
    /// [`open`](Self::open)), a patch is searchable only once the log holds
    /// it on stable storage.
    ///
    /// # Errors
    /// A batch holding a patch out of the canonical band layout
    /// ([`EarthQubeError::BadRequest`]) or naming an already-indexed image
    /// is rejected up front, before any work.  A patch refused mid-batch (a
    /// name the store already holds, one repeated in the batch) stops the
    /// batch there: the patches preceding it are logged and ingested, the
    /// rest are not.  A WAL I/O failure surfaces as
    /// [`EarthQubeError::Persist`], ingests nothing and detaches the log:
    /// the server keeps serving from memory, but durability is lost until
    /// the next successful [`checkpoint`](Self::checkpoint).
    pub fn ingest(&self, patches: &[Patch]) -> Result<IngestReport, EarthQubeError> {
        patches.iter().try_for_each(validate_patch)?;
        self.ensure_primary()?;
        // A cheap pre-screen, so a doomed batch skips the heavy phase; the
        // write section's check stays authoritative against racing writes.
        {
            let catalog = self.catalog.read();
            for patch in patches {
                catalog.ensure_new(&patch.meta.name)?;
            }
        }

        // Heavy phase, outside any lock: the model and the serialisation
        // code are immutable shared state.
        let mut records: Vec<WalRecord> = patches
            .iter()
            .map(|patch| {
                let (meta, code) = (patch.meta.clone(), self.model.hash_patch(patch));
                let rasters = patch_rasters(patch, &meta.name);
                WalRecord::Ingest { meta, code, rasters }
            })
            .collect();
        // Appended patches take the next dense ids.
        let stamped = |catalog: &Catalog| {
            for (id, record) in (catalog.metadata.len()..).zip(&mut records) {
                if let WalRecord::Ingest { meta, .. } = record {
                    meta.id = PatchId(id as u32);
                }
            }
            Ok(records)
        };
        self.write(stamped)?;
        let n = patches.len();
        Ok(IngestReport { metadata_docs: n, image_docs: n, rendered_docs: n })
    }

    /// Submits anonymous feedback through the write path (logged to the
    /// WAL like ingest, so feedback survives a crash too).
    ///
    /// # Errors
    /// Fails if the text is empty, or with [`EarthQubeError::Persist`] if
    /// the WAL append or sync fails: the feedback is then not stored, and
    /// the log detaches (see [`ingest`](Self::ingest)).
    pub fn submit_feedback(
        &self,
        text: &str,
        category: Option<&str>,
    ) -> Result<i64, EarthQubeError> {
        self.ensure_primary()?;
        let (text, category) = (text.to_string(), category.map(String::from));
        let record = WalRecord::Feedback { text, category };
        // One record checked and applied lands under one key.
        Ok(self.write(|_| Ok(vec![record]))?.unwrap_or_default())
    }

    /// Live writes are a primary's: a replica applies only what it pulls.
    fn ensure_primary(&self) -> Result<(), EarthQubeError> {
        if !self.is_primary() {
            return Err(EarthQubeError::NotPrimary(
                "replicas only apply records replicated from the primary".into(),
            ));
        }
        Ok(())
    }

    /// Lists all stored feedback.
    ///
    /// # Errors
    /// Fails if the feedback collection is missing.
    pub fn list_feedback(&self) -> Result<Vec<FeedbackEntry>, EarthQubeError> {
        let catalog = self.catalog.read();
        FeedbackService.list(&catalog.database)
    }

    /// The one write section: every change to the catalog — live
    /// [`ingest`](Self::ingest) and [`submit_feedback`](Self::submit_feedback),
    /// recovery's replay, a replica's pulled records — hands its records
    /// here.  Durable before visible, all under the WAL lock, where writers
    /// serialise (a replica's write needs a log, see
    /// [`Durability::begin`]): the records are built and checked in order
    /// under a catalog read guard, so readers keep running, up to the first
    /// refusal (a refused build applies nothing); those before it are
    /// appended and synced (a failure applies nothing); the live segment is
    /// sealed once it outgrows its limit; and what was synced is applied
    /// under the catalog write lock.
    ///
    /// Still under the write lock, both caches are cleared exactly when the
    /// archive grew: feedback, a refused patch or an empty batch evicts
    /// nothing.  Readers insert cache entries only under the read lock (see
    /// [`cached`](Self::cached)), so no stale entry survives the clear.
    /// Returns the key the last record landed under, or the refusal.
    fn write(
        &self,
        records: impl FnOnce(&Catalog) -> Result<Vec<WalRecord>, EarthQubeError>,
    ) -> Result<Option<i64>, EarthQubeError> {
        let mut log = self.durability.begin(!self.is_primary())?;
        let (records, (valid, refused)) = {
            let catalog = self.catalog.read();
            let records = records(&catalog)?;
            let checked = catalog.check_records(&records);
            (records, checked)
        };
        log.log(records.iter().take(valid).map(WalRecord::encode))?;
        log.seal();
        let mut last = None;
        if valid > 0 {
            let mut catalog = self.catalog.write();
            let size = catalog.metadata.len();
            for record in records.into_iter().take(valid) {
                last = Some(catalog.apply(record));
            }
            if catalog.metadata.len() > size {
                self.invalidate();
            }
        }
        refused.map(|()| last)
    }

    /// Drops everything derived from the catalog: both caches.
    fn invalidate(&self) {
        self.cache.clear();
        self.filter_cache.clear();
    }

    /// Cache-or-compute: every cached query flows through here, and its
    /// answer comes back encoded — a hit as the bytes the cache holds, a
    /// computed answer as the very buffer `compute` wrote (the query core
    /// writes it straight from its row table), filed as it is while the
    /// cache is on.  An error is never cached.
    ///
    /// The catalog read lock is held across both the computation *and* the
    /// cache inserts (the result here, a resolved filter inside `compute`,
    /// see [`resolved`](Self::resolved)).  The write section
    /// [`invalidate`](Self::invalidate)s while holding the catalog *write*
    /// lock, so any entry inserted under the read lock is either computed
    /// over the post-write catalog or cleared by the very write it
    /// predates — stale entries cannot survive.
    ///
    /// Each query bumps one outcome counter: a hit (before its answer is
    /// framed, so a peer holding the answer finds it counted), a miss (an
    /// answer computed, whether or not the cache is on) or a failure, which
    /// counts as served but drags no hit rate down.
    fn cached(
        &self,
        key: KeyRef<'_>,
        compute: impl FnOnce(&Catalog, &mut eq_wire::Writer) -> Result<(), EarthQubeError>,
    ) -> Reply {
        let caching = self.serve.cache_capacity > 0;
        let fp = if caching { fingerprint(&key) } else { 0 };
        if caching {
            if let Some(hit) = self.cache.lookup(fp, |k| k.as_ref() == key) {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Reply::Encoded(hit);
            }
        }
        let catalog = self.catalog.read();
        let mut w = eq_wire::Writer::new();
        let (reply, outcome) = match compute(&catalog, &mut w) {
            Ok(()) => {
                // The buffer the core wrote, filed as it is: no copy.
                let bytes = Arc::new(w.into_bytes());
                if caching {
                    self.cache.put(fp, key.to_owned(), Arc::clone(&bytes), 1);
                }
                (Reply::Encoded(bytes), &self.cache_misses)
            }
            Err(e) => (Reply::error(&e), &self.failed_queries),
        };
        drop(catalog);
        outcome.fetch_add(1, Ordering::Relaxed);
        reply
    }

    // -- durable storage tier ---------------------------------------------

    pub(crate) fn static_chunk(&self) -> Vec<u8> {
        persist::encode_static_chunk(&self.config, self.serve, &self.model)
    }

    /// Checkpoints the serving state into `dir` and (re)attaches the server
    /// to it: every subsequent [`ingest`](Self::ingest) and
    /// [`submit_feedback`](Self::submit_feedback) is appended to the
    /// write-ahead log there, so [`recover`](Self::recover) restores
    /// exactly the pre-crash state.
    ///
    /// A checkpoint is the log, compacted: the static chunk (configuration
    /// and model) plus every ingest and feedback record, as the WAL encodes
    /// them, in append-only runs of records chunks.  One protocol, two
    /// lineage decisions.  A checkpoint into a directory the server is not
    /// attached to is **full**: a new lineage, with every chunk written
    /// under a fresh manifest and WAL generation, and writes held off (the
    /// WAL lock) until it is committed; queries keep running.  So is the first checkpoint after
    /// recovering a directory of the legacy chunk format: it starts a new
    /// lineage in place.  Later checkpoints into the same directory are
    /// **incremental**: only the records past the previous checkpoint are
    /// written (a sequence is rewritten from 0 once enough runs of it are
    /// stacked), the manifest is atomically republished and the WAL
    /// segments it no longer needs are retired; writes are held off only
    /// for the brief state *cut* (encoding the new records, sealing the
    /// live WAL segment), so ingest keeps flowing during file I/O.  No
    /// checkpoint writes derived state — the Hamming index and the metadata
    /// postings — which [`recover`](Self::recover) rebuilds from the
    /// records.  With no new record the checkpoint is
    /// [`CheckpointKind::Skipped`] and writes no bytes.
    ///
    /// # Errors
    /// Fails with [`EarthQubeError::Persist`] on I/O errors.  A failure
    /// before the manifest rename (the commit point) leaves the server
    /// attached where it was, with the old manifest and its record counts
    /// in force, so the next checkpoint retries the same work.
    pub fn checkpoint(&self, dir: &Path) -> Result<CheckpointStats, EarthQubeError> {
        // A replica checkpoints the lineage it follows, like any server;
        // anywhere else it would start a lineage of its own.
        if !self.is_primary() && self.attached_dir().as_deref() != Some(dir) {
            return Err(EarthQubeError::NotPrimary(
                "a read replica checkpoints only the directory it replicates into; promote it \
                 first"
                    .into(),
            ));
        }
        self.durability.checkpoint(&self.catalog, dir, Lineage::Continue, || self.static_chunk())
    }

    /// Restores a server from a persistence directory: reads the manifest
    /// and its static chunk, applies every record of its records chunks to
    /// an empty catalog through the one apply path live writes use — which
    /// rebuilds the metadata postings and the code arena — then replays every intact record of the manifest's WAL
    /// segment chain through the write section, truncates a torn tail in
    /// the final segment, and re-attaches.  A directory of the legacy chunk
    /// format (full collections, deltas, image ranges) is read into the
    /// same records; `shard:` entries of older directories are skipped
    /// unread.  Only the replayed WAL tail counts in
    /// `stats().ingested_images`.
    ///
    /// Recovery is idempotent: recovering the same directory again (with no
    /// writes in between) yields a byte-identically answering server.
    ///
    /// # Errors
    /// Fails with [`EarthQubeError::Persist`] if the directory holds no
    /// manifest, a referenced chunk or mid-chain segment is missing or
    /// corrupt, or the directory is already served by a live instance.
    pub fn recover(dir: &Path) -> Result<Self, EarthQubeError> {
        // Take the directory lock first: a directory serves exactly one
        // live instance at a time.
        let lock = persist::lock_dir(dir)?;
        let manifest = persist::read_manifest(dir)?.ok_or_else(|| {
            EarthQubeError::Persist(format!("{} holds no checkpoint manifest", dir.display()))
        })?;
        let snapshot = persist::read_snapshot(dir, &manifest)?;

        // Everything but the static chunk is derived from the records:
        // applied to an empty catalog through the one apply path, they
        // rebuild the metadata postings, the name→code table and the arena
        // exactly as the writer built its own.
        let room = snapshot.records.len();
        let mut catalog = Catalog::empty(snapshot.model, snapshot.config.page_size, room);
        for record in snapshot.records {
            catalog.apply_record(record).map_err(not_applied)?;
        }
        let persisted = Sequence::ALL.map(|seq| catalog.record_count(seq));
        let registry = build_registry(&snapshot.config);
        let server = Self::new(snapshot.config, snapshot.serve, catalog, registry);

        let chain = persist::read_segment_chain(dir, manifest.generation, manifest.first_segment)?;
        // Replay runs detached (nothing is re-logged), through the write
        // section like any write: the replayed records grow the catalog
        // past `persisted` and count as ingested.  The next incremental
        // checkpoint folds them into chunks, and their segments retire.
        server.write(|_| Ok(chain.records)).map_err(not_applied)?;
        server.durability.attach(dir, lock, manifest, chain.tail, persisted)?;
        Ok(server)
    }

    /// A read replica's new lineage in `dir`, from its primary's static
    /// chunk (configuration and model) and under the primary's
    /// `generation`: an empty catalog, checkpointed there as a full
    /// checkpoint, whose commit replaces whatever lineage `dir` held.  The
    /// primary's records then arrive as pulled ones, through the write
    /// section.
    ///
    /// # Errors
    /// [`EarthQubeError::Persist`] on a static chunk that does not decode,
    /// on I/O, or when another live instance holds `dir`.
    pub(crate) fn seed(
        dir: &Path,
        static_chunk: &[u8],
        generation: u32,
    ) -> Result<Self, EarthQubeError> {
        let persist::ChunkPayload::Static { config, serve, model } =
            persist::decode_chunk_body(static_chunk)?
        else {
            return Err(EarthQubeError::Persist("a reseed answer without a static chunk".into()));
        };
        let catalog = Catalog::empty(model, config.page_size, 0);
        let registry = build_registry(&config);
        let server = Self::new(config, serve, catalog, registry);
        server.set_replica_mode();
        let lineage = Lineage::Follow(generation);
        server.durability.checkpoint(&server.catalog, dir, lineage, || static_chunk.to_vec())?;
        Ok(server)
    }

    /// Opens a persistent server in `dir`: recovers the existing manifest
    /// (plus WAL segments) if one is present, otherwise builds the server
    /// from the archive and writes the initial full checkpoint.  This is
    /// the cold-start entry point the `e9_cold_start` experiment measures —
    /// after the first run, restarts skip ingestion, training and encoding
    /// entirely.
    ///
    /// On a warm start the **persisted** configuration wins: `config` and
    /// `serve` only apply when the directory is empty (they are part of
    /// what the manifest's chunks restore — the model architecture in
    /// particular cannot change under recovered weights).  To apply a new
    /// configuration, rebuild into a fresh directory.
    ///
    /// # Errors
    /// Propagates build, recovery and checkpoint errors.
    pub fn open(
        dir: &Path,
        archive: &Archive,
        config: EarthQubeConfig,
        serve: ServeConfig,
    ) -> Result<Self, EarthQubeError> {
        if dir.join(persist::MANIFEST_FILE).exists() {
            Self::recover(dir)
        } else {
            let server = Self::build(archive, config, serve)?;
            server.checkpoint(dir)?;
            Ok(server)
        }
    }

    /// Checkpoints into the attached directory if (and only if) a record
    /// is not checkpointed yet; returns `None` when the server is detached
    /// or clean.
    /// This is the body of one background-checkpointer pass, callable
    /// directly for a final synchronous flush (e.g. on server shutdown).
    ///
    /// # Errors
    /// Propagates [`checkpoint`](Self::checkpoint) errors.
    pub fn checkpoint_if_dirty(&self) -> Result<Option<CheckpointStats>, EarthQubeError> {
        let Some(dir) = self.attached_dir() else { return Ok(None) };
        let stats = self.checkpoint(&dir)?;
        Ok((stats.kind != CheckpointKind::Skipped).then_some(stats))
    }

    // -- replication role (the serving side is in `replicate.rs`) ----------

    /// Whether this server accepts writes.  Every server starts as a
    /// primary; [`set_replica_mode`](Self::set_replica_mode) clears the
    /// flag and [`promote`](Self::promote) restores it.
    pub fn is_primary(&self) -> bool {
        self.primary.load(Ordering::Acquire)
    }

    /// Turns the server into a read replica: the network tier rejects
    /// ingest and feedback with [`EarthQubeError::NotPrimary`], a
    /// checkpoint anywhere but the attached directory is refused, and
    /// records pulled from the primary become the only writes.
    pub fn set_replica_mode(&self) {
        self.primary.store(false, Ordering::Release);
    }

    /// Applies pulled records runs (records chunk bodies, see
    /// [`eq_proto::ReplBatch`]) on a replica through the write section, so
    /// a replica serves only what its own log holds: they are logged,
    /// synced and sealed as any write, then applied.  A run that does not
    /// start where this replica's count of its sequence ends is refused
    /// before anything.
    ///
    /// # Errors
    /// [`EarthQubeError::BadRequest`] on a primary (replicas only);
    /// [`EarthQubeError::Persist`] with no persistence attachment, on an
    /// undecodable or misplaced run (nothing applies), on a diverging
    /// record (the records before it apply; the caller should re-seed), and
    /// on WAL I/O failure: a failed append or sync applies nothing and
    /// detaches the log.
    pub(crate) fn apply_runs(&self, runs: &[Vec<u8>]) -> Result<u64, EarthQubeError> {
        let mut decoded = Vec::with_capacity(runs.len());
        for run in runs {
            match persist::decode_chunk_body(run)? {
                persist::ChunkPayload::Records { start, records } => decoded.push((start, records)),
                _ => return Err(EarthQubeError::Persist("a pulled run holds no records".into())),
            }
        }
        self.replicate(|catalog| {
            let mut held = Sequence::ALL.map(|seq| catalog.record_count(seq) as u64);
            let mut records = Vec::new();
            for (start, run) in decoded {
                let Some(seq) = run.first().map(Sequence::of) else { continue };
                let at = &mut held[seq as usize];
                if start != *at || run.iter().any(|record| Sequence::of(record) != seq) {
                    return Err(EarthQubeError::Persist(format!(
                        "a pulled {seq:?} run starts at record {start}, this replica holds {at}"
                    )));
                }
                *at += run.len() as u64;
                records.extend(run);
            }
            Ok(records)
        })
    }

    /// A replica's write of records from its primary: refused on a
    /// primary, and whatever refuses a record is an
    /// [`EarthQubeError::Persist`] (the records no longer continue this
    /// replica's state).  Returns how many records applied.
    fn replicate(
        &self,
        records: impl FnOnce(&Catalog) -> Result<Vec<WalRecord>, EarthQubeError>,
    ) -> Result<u64, EarthQubeError> {
        if self.is_primary() {
            return Err(EarthQubeError::BadRequest(
                "replicated records apply only in replica mode".into(),
            ));
        }
        let mut applied = 0;
        let counted = |catalog: &Catalog| {
            let records = records(catalog)?;
            applied = records.len() as u64;
            Ok(records)
        };
        self.write(counted).map_err(not_applied)?;
        Ok(applied)
    }

    /// Promotes a replica to primary.  The replica's applied state is cut
    /// into a **full** checkpoint of its attached directory, a new lineage
    /// there: a *fresh* WAL generation and a segment numbering above every
    /// file on disk — so a resurrected old primary (or a replica still
    /// following it) presenting the old generation is fenced: its pulls
    /// answer `reseed`, and its unreplicated suffix is discarded by
    /// re-seeding.  Only then does the server start accepting writes.
    ///
    /// The caller must have stopped this replica's own pull loop first
    /// (see `replicate::Replica::promote`, which does).
    ///
    /// # Errors
    /// Fails with [`EarthQubeError::Persist`] when detached or if the
    /// promotion checkpoint fails — the server then stays a replica,
    /// attached to the lineage it had, and `promote` can be called again.
    pub fn promote(&self) -> Result<(), EarthQubeError> {
        if self.is_primary() {
            return Ok(());
        }
        let dir = self.attached_dir().ok_or_else(|| {
            EarthQubeError::Persist("promotion requires a persistence attachment".into())
        })?;
        self.durability.checkpoint(&self.catalog, &dir, Lineage::Fresh, || self.static_chunk())?;
        self.primary.store(true, Ordering::Release);
        Ok(())
    }
}

/// An answer as [`QueryServer::frame`] and [`QueryServer::call`] take it.
#[derive(Debug)]
enum Reply {
    /// A body to encode.
    Body(ResponseBody),
    /// A body already encoded (without the envelope): the buffer the query
    /// core wrote, shared with the result cache.
    Encoded(Arc<Vec<u8>>),
}

impl Reply {
    fn error(e: &EarthQubeError) -> Self {
        Reply::Body(ResponseBody::Error(error_to_payload(e)))
    }

    /// The body, decoded if it came encoded.
    fn into_body(self) -> ResponseBody {
        match self {
            Reply::Body(body) => body,
            Reply::Encoded(bytes) => decode_answer(&bytes),
        }
    }
}

/// Decodes an answer the query core wrote.  The bytes are the server's own
/// encoding, so the decode cannot fail short of a bug, which is answered
/// as an internal error rather than a panic.
pub(crate) fn decode_answer(bytes: &[u8]) -> ResponseBody {
    ResponseBody::decode(bytes).unwrap_or_else(|e| {
        ResponseBody::Error(eq_proto::ErrorPayload {
            code: eq_proto::ErrorCode::Internal,
            message: format!("an answer does not decode: {e}"),
        })
    })
}

/// A logged write, replayed or replicated, that does not continue the
/// catalog: a [`EarthQubeError::Persist`], whatever refused it.
fn not_applied(e: EarthQubeError) -> EarthQubeError {
    match e {
        EarthQubeError::Persist(_) => e,
        e => EarthQubeError::Persist(format!("a logged write does not apply: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::prepare_patch_docs;
    use eq_bigearthnet::{ArchiveGenerator, GeneratorConfig};
    use std::time::Duration;

    impl QueryServer {
        /// A replicated write of single WAL record payloads: what a pulled
        /// run carries, without the run framing.
        fn apply_replicated(&self, entries: &[Vec<u8>]) -> Result<u64, EarthQubeError> {
            let records = entries.iter().map(|payload| persist::decode_record(payload));
            let records = records.collect::<Result<Vec<_>, _>>().map_err(|e| {
                EarthQubeError::Persist(format!("invalid replicated WAL record: {e}"))
            })?;
            self.replicate(|_| Ok(records))
        }
    }

    fn server(n: usize, seed: u64, serve: ServeConfig) -> (QueryServer, Archive) {
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(n, seed)).unwrap().generate();
        let mut config = EarthQubeConfig::fast(seed);
        config.train_model = false;
        (QueryServer::build(&archive, config, serve).unwrap(), archive)
    }

    /// A computed answer is the very buffer the query core wrote, cache on
    /// or off: the reply holds it, and with the cache on, so does the entry
    /// a repeat hands out.
    #[test]
    fn a_computed_answer_is_the_buffer_the_core_wrote() {
        for serve in [ServeConfig::default(), ServeConfig::uncached(1)] {
            let (srv, archive) = server(20, 98, serve);
            let name = &archive.patches()[2].meta.name;
            let body = RequestBody::SimilarTo { name: name.clone(), k: 5 };
            let mut written = std::ptr::null();
            let reply = srv.cached(KeyRef::Request(&body), |catalog, w| {
                catalog.similar_to(name, 5, w)?;
                written = w.as_bytes().as_ptr();
                Ok(())
            });
            let Reply::Encoded(bytes) = reply else { panic!("{reply:?}") };
            assert_eq!(bytes.as_ptr(), written, "{serve:?}");
            assert_eq!(decode_answer(&bytes), srv.call(&body));
            if serve.cache_capacity > 0 {
                let Reply::Encoded(hit) = srv.respond(&body) else { panic!("a hit is encoded") };
                assert!(Arc::ptr_eq(&hit, &bytes));
            }
        }
    }

    /// Both façades find a name's metadata through its dense id: the
    /// metadata table's entry of every patch, an ingested one included, and
    /// nothing for an unknown name.
    #[test]
    fn metadata_of_is_the_table_entry_on_both_facades() {
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(30, 93)).unwrap().generate();
        let mut config = EarthQubeConfig::fast(93);
        config.train_model = false;
        let engine = EarthQube::build(&archive, config.clone()).unwrap();
        let srv = QueryServer::build(&archive, config, ServeConfig::default()).unwrap();
        let extra = ArchiveGenerator::new(GeneratorConfig::tiny(1, 931)).unwrap().generate();
        srv.ingest(extra.patches()).unwrap();
        assert_eq!(engine.catalog.metadata.len(), 30);
        for meta in &engine.catalog.metadata {
            assert_eq!(engine.metadata_of(&meta.name), Some(meta));
        }
        let table = srv.catalog.read().metadata.clone();
        assert_eq!(table.len(), 31);
        for meta in &table {
            assert_eq!(srv.metadata_of(&meta.name).as_ref(), Some(meta));
        }
        for unknown in ["ghost", ""] {
            assert_eq!(engine.metadata_of(unknown), None);
            assert_eq!(srv.metadata_of(unknown), None);
        }
    }

    #[test]
    fn server_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryServer>();
    }

    #[test]
    fn server_responses_match_the_sequential_engine() {
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(40, 91)).unwrap().generate();
        let mut config = EarthQubeConfig::fast(91);
        config.train_model = false;
        let engine = EarthQube::build(&archive, config.clone()).unwrap();
        let srv = QueryServer::build(&archive, config, ServeConfig::default()).unwrap();

        let query = ImageQuery::all();
        assert_eq!(srv.search(&query).unwrap(), engine.search(&query).unwrap());

        let name = &archive.patches()[3].meta.name;
        assert_eq!(srv.similar_to(name, 7).unwrap(), engine.similar_to(name, 7).unwrap());

        let external =
            ArchiveGenerator::new(GeneratorConfig::tiny(1, 555)).unwrap().generate_patch(0);
        assert_eq!(
            srv.search_by_new_example(&external, 5).unwrap(),
            engine.search_by_new_example(&external, 5).unwrap()
        );

        // Filtered similarity search: server == engine, for every planner
        // mode, for both k-NN and radius — and bitmap == post-filter.
        let filter = ImageQuery::all().with_seasons(vec![
            eq_bigearthnet::patch::Season::Summer,
            eq_bigearthnet::patch::Season::Winter,
        ]);
        for mode in
            [PrefilterMode::Auto, PrefilterMode::ForceBitmap, PrefilterMode::ForcePostFilter]
        {
            assert_eq!(
                srv.similar_to_filtered(name, 7, &filter, mode).unwrap(),
                engine.similar_to_filtered(name, 7, &filter, mode).unwrap(),
                "knn mode {mode:?}"
            );
            assert_eq!(
                srv.similar_within_filtered(name, 24, &filter, mode).unwrap(),
                engine.similar_within_filtered(name, 24, &filter, mode).unwrap(),
                "radius mode {mode:?}"
            );
        }
        assert_eq!(
            srv.similar_to_filtered(name, 7, &filter, PrefilterMode::ForceBitmap).unwrap().response,
            srv.similar_to_filtered(name, 7, &filter, PrefilterMode::ForcePostFilter)
                .unwrap()
                .response,
        );
        assert!(matches!(
            srv.similar_to_filtered("ghost", 3, &filter, PrefilterMode::Auto),
            Err(EarthQubeError::UnknownImage(_))
        ));

        // The asset registry is carried over from the consumed engine.
        assert!(srv.registry().pipeline("earthqube-cbir").is_some());
        assert_eq!(srv.registry().discover_by_kind(eq_agora::AssetKind::Service).len(), 1);
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let (srv, archive) = server(30, 92, ServeConfig::default());
        let name = &archive.patches()[0].meta.name;
        let first = srv.similar_to(name, 5).unwrap();
        let second = srv.similar_to(name, 5).unwrap();
        assert_eq!(first, second);
        let stats = srv.stats();
        assert_eq!(stats.queries_served, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert!((stats.cache_hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(stats.cache_entries, 1);
        // A different k is a different fingerprint.
        let _ = srv.similar_to(name, 6).unwrap();
        assert_eq!(srv.stats().cache_entries, 2);
    }

    #[test]
    fn filtered_queries_hit_the_cache_and_ingest_invalidates_them() {
        let (srv, archive) = server(30, 96, ServeConfig::default());
        let name = &archive.patches()[0].meta.name;
        let filter = ImageQuery::all().with_seasons(vec![
            eq_bigearthnet::patch::Season::Summer,
            eq_bigearthnet::patch::Season::Winter,
        ]);

        // Second identical filtered query is a hit with an identical
        // response, plan included.
        let first = srv.similar_to_filtered(name, 5, &filter, PrefilterMode::Auto).unwrap();
        let second = srv.similar_to_filtered(name, 5, &filter, PrefilterMode::Auto).unwrap();
        assert_eq!(first, second);
        let stats = srv.stats();
        assert_eq!(stats.queries_served, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_entries, 1);

        // The mode, k, filter and request kind are all part of the key.
        srv.similar_to_filtered(name, 5, &filter, PrefilterMode::ForcePostFilter).unwrap();
        srv.similar_to_filtered(name, 6, &filter, PrefilterMode::Auto).unwrap();
        srv.similar_to_filtered(name, 5, &ImageQuery::all(), PrefilterMode::Auto).unwrap();
        srv.similar_within_filtered(name, 24, &filter, PrefilterMode::Auto).unwrap();
        assert_eq!(srv.stats().cache_entries, 5);
        assert_eq!(srv.stats().cache_hits, 1, "distinct filtered keys must all miss");

        // Radius queries replay from the cache too.
        let within = srv.similar_within_filtered(name, 24, &filter, PrefilterMode::Auto).unwrap();
        assert_eq!(srv.stats().cache_hits, 2);

        // Ingest clears filtered entries like every other entry: the next
        // filtered query recomputes over the post-ingest catalog.
        let extra = ArchiveGenerator::new(GeneratorConfig::tiny(3, 778)).unwrap().generate();
        srv.ingest(extra.patches()).unwrap();
        assert_eq!(srv.stats().cache_entries, 0, "ingest must clear the cache");
        let recomputed =
            srv.similar_within_filtered(name, 24, &filter, PrefilterMode::Auto).unwrap();
        assert_eq!(srv.stats().cache_hits, 2, "post-ingest filtered query must recompute");
        assert!(recomputed.response.total() >= within.response.total());
    }

    #[test]
    fn cache_is_bounded_and_evicts_least_recently_used() {
        let (srv, archive) = server(20, 93, ServeConfig { shards: 2, cache_capacity: 2 });
        let names: Vec<&String> = archive.patches().iter().map(|p| &p.meta.name).collect();
        srv.similar_to(names[0], 3).unwrap();
        srv.similar_to(names[1], 3).unwrap();
        srv.similar_to(names[0], 3).unwrap(); // refresh entry 0
        srv.similar_to(names[2], 3).unwrap(); // evicts entry 1
        assert_eq!(srv.stats().cache_entries, 2);
        srv.similar_to(names[0], 3).unwrap(); // still cached
        let stats = srv.stats();
        assert_eq!(stats.cache_hits, 2);
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        let (srv, archive) = server(15, 94, ServeConfig::uncached(4));
        let name = &archive.patches()[0].meta.name;
        srv.similar_to(name, 5).unwrap();
        srv.similar_to(name, 5).unwrap();
        let stats = srv.stats();
        assert_eq!(stats.cache_entries, 0);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.queries_served, 2);
    }

    #[test]
    fn ingest_appends_and_invalidates_the_cache() {
        let (srv, _) = server(25, 95, ServeConfig::default());
        let before = srv.search(&ImageQuery::all()).unwrap();
        assert_eq!(before.total(), 25);
        assert_eq!(srv.stats().cache_entries, 1);

        let extra = ArchiveGenerator::new(GeneratorConfig::tiny(3, 777)).unwrap().generate();
        let report = srv.ingest(extra.patches()).unwrap();
        assert_eq!(report.metadata_docs, 3);
        assert_eq!(srv.stats().cache_entries, 0, "ingest must clear the cache");
        assert_eq!(srv.archive_size(), 28);

        let after = srv.search(&ImageQuery::all()).unwrap();
        assert_eq!(after.total(), 28, "the cached pre-ingest result must not be served");

        // The appended images are retrievable by similarity and metadata.
        let new_name = &extra.patches()[0].meta.name;
        assert!(srv.metadata_of(new_name).is_some());
        let hits = srv.similar_to(new_name, 4).unwrap();
        assert!(hits.total() > 0);
        assert_eq!(srv.stats().ingested_images, 3);
    }

    #[test]
    fn duplicate_ingest_is_rejected() {
        let (srv, archive) = server(10, 96, ServeConfig::default());
        let err = srv.ingest(&archive.patches()[..1]).unwrap_err();
        assert!(matches!(err, EarthQubeError::BadRequest(_)));
        assert_eq!(srv.archive_size(), 10);
    }

    #[test]
    fn no_op_ingest_keeps_the_cache_warm() {
        let (srv, archive) = server(10, 101, ServeConfig::default());
        srv.search(&ImageQuery::all()).unwrap();
        assert_eq!(srv.stats().cache_entries, 1);
        // Neither an empty batch nor an up-front duplicate rejection
        // changed any state, so neither may evict cached results.
        srv.ingest(&[]).unwrap();
        assert_eq!(srv.stats().cache_entries, 1);
        srv.ingest(&archive.patches()[..1]).unwrap_err();
        assert_eq!(srv.stats().cache_entries, 1);
    }

    /// The write section's invalidation rule: both caches are cleared
    /// exactly when a write grew the archive.  Feedback (live or
    /// replicated) and an ingest whose only patch the write section refuses
    /// keep them warm; a live and a replicated ingest each clear them.
    #[test]
    fn only_a_write_that_grows_the_archive_clears_the_caches() {
        let dir = ScratchDir::new("invalidation");
        let (srv, archive) = server(12, 105, ServeConfig::default());
        let name = &archive.patches()[0].meta.name;
        let filter = ImageQuery::all().with_seasons(vec![eq_bigearthnet::patch::Season::Summer]);
        let warm = || {
            srv.similar_to_filtered(name, 4, &filter, PrefilterMode::Auto).unwrap();
            srv.search(&ImageQuery::all()).unwrap();
            let stats = srv.stats();
            (stats.cache_entries, stats.filter_cache_entries)
        };
        let entries = || {
            let stats = srv.stats();
            (stats.cache_entries, stats.filter_cache_entries)
        };
        let warmed = warm();
        assert!(warmed.0 > 0 && warmed.1 > 0, "{warmed:?}");
        let extra = ArchiveGenerator::new(GeneratorConfig::tiny(3, 781)).unwrap().generate();

        srv.submit_feedback("keep the caches", None).unwrap();
        assert_eq!(entries(), warmed, "feedback");
        // A record under a name already indexed is refused at the check.
        let indexed = &archive.patches()[0];
        let meta = PatchMetadata { id: PatchId(srv.archive_size() as u32), ..indexed.meta.clone() };
        let (code, rasters) = (srv.model.hash_patch(indexed), patch_rasters(indexed, &meta.name));
        let record = WalRecord::Ingest { meta, code, rasters };
        let refused = srv.write(|_| Ok(vec![record])).unwrap_err();
        assert!(matches!(refused, EarthQubeError::BadRequest(_)), "{refused:?}");
        assert_eq!(entries(), warmed, "a refused ingest");
        srv.ingest(&extra.patches()[1..2]).unwrap();
        assert_eq!(entries(), (0, 0), "a live ingest");

        // A replica needs an attachment to log what it pulls.
        srv.checkpoint(dir.path()).unwrap();
        srv.set_replica_mode();
        assert_eq!(warm(), warmed);
        let (text, category) = ("replicated".to_string(), None);
        let feedback = WalRecord::Feedback { text, category }.encode();
        assert_eq!(srv.apply_replicated(&[feedback]).unwrap(), 1);
        assert_eq!(entries(), warmed, "a replicated feedback batch");
        let patch = &extra.patches()[2];
        let meta = PatchMetadata { id: PatchId(srv.archive_size() as u32), ..patch.meta.clone() };
        let rasters = patch_rasters(patch, &meta.name);
        let code = srv.model.hash_patch(patch);
        let ingest = WalRecord::Ingest { meta, code, rasters }.encode();
        assert_eq!(srv.apply_replicated(&[ingest]).unwrap(), 1);
        assert_eq!(entries(), (0, 0), "a replicated ingest");
    }

    /// A code of another width than the model's is a bad request, not a
    /// panic in the scan, and is never cached: a code of the right width
    /// after it is the first query the cache sees.
    #[test]
    fn a_code_of_another_width_is_a_bad_request() {
        let (srv, archive) = server(10, 106, ServeConfig::default());
        let code = srv.model.hash_patch(&archive.patches()[0]);
        for bits in [code.bits() - 1, code.bits() + 1, 1] {
            let err = srv.search_by_code(&BinaryCode::zeros(bits), 3).unwrap_err();
            assert!(matches!(err, EarthQubeError::BadRequest(_)), "{bits} bits: {err:?}");
        }
        let stats = srv.stats();
        assert_eq!((stats.cache_hits, stats.cache_misses, stats.cache_entries), (0, 0, 0));
        assert_eq!(srv.search_by_code(&code, 3).unwrap().panel.entries().len(), 3);
        assert_eq!(srv.stats().cache_misses, 1);
    }

    #[test]
    fn workload_runs_across_worker_counts() {
        let (srv, archive) = server(30, 97, ServeConfig::uncached(4));
        let mut requests: Vec<RequestBody> = archive
            .patches()
            .iter()
            .take(9)
            .map(|p| RequestBody::SimilarTo { name: p.meta.name.clone(), k: 5 })
            .collect();
        requests.push(RequestBody::Search(crate::net::query_to_spec(&ImageQuery::all())));
        let sequential: Vec<_> = requests.iter().map(|r| srv.call(r)).collect();
        assert!(sequential.iter().all(|r| matches!(r, ResponseBody::Search(_))), "{sequential:?}");
        for workers in [1, 2, 4, 32] {
            let results = srv.run_workload(&requests, workers);
            assert_eq!(results.len(), requests.len());
            for (got, want) in results.into_iter().zip(&sequential) {
                assert_eq!(&got, want, "workload results must not depend on workers");
            }
        }
        assert!(srv.run_workload(&[], 4).is_empty());
    }

    #[test]
    fn workload_surfaces_per_request_errors() {
        let (srv, _) = server(10, 98, ServeConfig::default());
        let requests = vec![
            RequestBody::SimilarTo { name: "ghost".into(), k: 3 },
            RequestBody::Search(crate::net::query_to_spec(&ImageQuery::all())),
        ];
        let results = srv.run_workload(&requests, 2);
        let unknown = |e: &eq_proto::ErrorPayload| e.code == eq_proto::ErrorCode::UnknownImage;
        assert!(matches!(&results[0], ResponseBody::Error(e) if unknown(e)));
        assert!(matches!(&results[1], ResponseBody::Search(answer) if answer.rows.len() == 10));
        // The failed request was served, but it neither hit nor missed.
        let stats = srv.stats();
        assert_eq!(stats.queries_served, 2);
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));
    }

    /// A patch out of the canonical band layout is refused on every path,
    /// in process too, before it reaches the engine's band index.
    #[test]
    fn a_short_band_list_is_a_bad_request_in_process() {
        let (srv, _) = server(8, 99, ServeConfig::default());
        let mut short =
            ArchiveGenerator::new(GeneratorConfig::tiny(1, 556)).unwrap().generate_patch(0);
        short.s2_bands.pop();
        assert_eq!(short.s2_bands.len(), 11);
        let (size, stats) = (srv.archive_size(), srv.stats());
        let ingested = srv.ingest(std::slice::from_ref(&short));
        assert!(matches!(ingested, Err(EarthQubeError::BadRequest(_))), "{ingested:?}");
        let uploaded = srv.search_by_new_example(&short, 3);
        assert!(matches!(uploaded, Err(EarthQubeError::BadRequest(_))), "{uploaded:?}");
        assert_eq!(srv.archive_size(), size);
        assert_eq!(srv.stats(), stats);
    }

    #[test]
    fn feedback_flows_through_the_write_path() {
        let (srv, _) = server(8, 99, ServeConfig::default());
        srv.submit_feedback("fast!", Some("reaction")).unwrap();
        srv.submit_feedback("more bands please", None).unwrap();
        assert_eq!(srv.list_feedback().unwrap().len(), 2);
        assert!(matches!(srv.submit_feedback(" ", None), Err(EarthQubeError::BadRequest(_))));
    }

    #[test]
    fn stats_render_is_human_readable() {
        let (srv, archive) = server(12, 100, ServeConfig::default());
        srv.similar_to(&archive.patches()[0].meta.name, 3).unwrap();
        let text = srv.stats().render();
        assert!(text.contains("1 queries served"));
        assert!(text.contains("12 images indexed"));
        assert!(text.contains("filters resolved from cache"));
        assert!(!format!("{srv:?}").is_empty());
    }

    /// A scratch directory that cleans up after itself, so repeated test
    /// runs never see a stale snapshot.
    struct ScratchDir(std::path::PathBuf);

    impl ScratchDir {
        fn new(name: &str) -> Self {
            let path = std::env::temp_dir().join(format!("eq_serve_{name}_{}", std::process::id()));
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

    #[test]
    fn checkpoint_and_recover_roundtrip_byte_identically() {
        let dir = ScratchDir::new("roundtrip");
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(30, 201)).unwrap().generate();
        let mut config = EarthQubeConfig::fast(201);
        config.milan.epochs = 3;
        let srv = QueryServer::build(&archive, config, ServeConfig::default()).unwrap();
        srv.checkpoint(dir.path()).unwrap();

        // Post-checkpoint writes land in the WAL and must survive recovery.
        let extra = ArchiveGenerator::new(GeneratorConfig::tiny(4, 919)).unwrap().generate();
        srv.ingest(extra.patches()).unwrap();
        srv.submit_feedback("persist me", Some("reaction")).unwrap();

        // Capture the live server's answers, then drop it: recovery takes
        // the WAL file lock, which refuses to coexist with a live writer.
        let name = &extra.patches()[1].meta.name;
        let external =
            ArchiveGenerator::new(GeneratorConfig::tiny(1, 3131)).unwrap().generate_patch(0);
        let expected_size = srv.archive_size();
        let expected_feedback = srv.list_feedback().unwrap();
        let expected_all = srv.search(&ImageQuery::all()).unwrap();
        let expected_similar = srv.similar_to(name, 6).unwrap();
        let expected_new_example = srv.search_by_new_example(&external, 5).unwrap();
        drop(srv);

        let back = QueryServer::recover(dir.path()).unwrap();
        assert_eq!(back.archive_size(), expected_size);
        assert_eq!(back.stats().ingested_images, 4, "WAL replay counts as live ingest");
        assert_eq!(back.list_feedback().unwrap(), expected_feedback);
        assert_eq!(back.stats().archive_size, expected_size);

        // Byte-identical responses, including the model-dependent
        // query-by-new-example path (the model weights round-tripped).
        assert_eq!(back.search(&ImageQuery::all()).unwrap(), expected_all);
        assert_eq!(back.similar_to(name, 6).unwrap(), expected_similar);
        assert_eq!(back.search_by_new_example(&external, 5).unwrap(), expected_new_example);
        // The registry is rebuilt from the configuration.
        assert!(back.registry().pipeline("earthqube-cbir").is_some());
    }

    #[test]
    fn open_builds_cold_and_recovers_warm() {
        let dir = ScratchDir::new("open");
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(12, 202)).unwrap().generate();
        let mut config = EarthQubeConfig::fast(202);
        config.train_model = false;
        let first = QueryServer::open(dir.path(), &archive, config.clone(), ServeConfig::default())
            .unwrap();
        first
            .ingest(
                ArchiveGenerator::new(GeneratorConfig::tiny(2, 920)).unwrap().generate().patches(),
            )
            .unwrap();
        drop(first);
        // Second open must recover (14 images), not rebuild (12).
        let second =
            QueryServer::open(dir.path(), &archive, config, ServeConfig::default()).unwrap();
        assert_eq!(second.archive_size(), 14);
    }

    /// Regression test for the checkpoint crash-atomicity window: a crash
    /// *between* publishing a new manifest and retiring the covered WAL
    /// segments leaves an already-covered segment on disk.  Recovery must
    /// ignore it — replaying it would double-apply (or fail on) writes the
    /// new checkpoint's chunks already contain.
    #[test]
    fn covered_segment_from_an_interrupted_retirement_is_ignored() {
        let dir = ScratchDir::new("stale_wal");
        let (srv, _) = server(10, 205, ServeConfig::default());
        let full = srv.checkpoint(dir.path()).unwrap();
        assert_eq!(full.kind, CheckpointKind::Full);
        // One logged ingest lands in the first segment of the lineage.
        let extra = ArchiveGenerator::new(GeneratorConfig::tiny(2, 922)).unwrap().generate();
        srv.ingest(extra.patches()).unwrap();
        // A full checkpoint into an empty directory starts its lineage at
        // segment 0.
        let first = dir.path().join(persist::segment_file_name(0));
        let covered = std::fs::read(&first).unwrap();
        // Second checkpoint: incremental, covers the ingest and retires
        // the segment.  Simulate the crash window by restoring it.
        let incr = srv.checkpoint(dir.path()).unwrap();
        assert_eq!(incr.kind, CheckpointKind::Incremental);
        assert!(incr.segments_retired >= 1, "the covered segment must retire");
        let expected = srv.search(&ImageQuery::all()).unwrap();
        drop(srv); // releases the directory lock
        std::fs::write(&first, &covered).unwrap();

        let recovered = QueryServer::recover(dir.path()).unwrap();
        assert_eq!(recovered.archive_size(), 12, "covered segment must not double-apply");
        assert_eq!(recovered.search(&ImageQuery::all()).unwrap(), expected);
    }

    /// The incremental path: a second checkpoint after a small ingest
    /// writes the new record (a fraction of the full snapshot), retires
    /// the covered segment, and a third checkpoint with no new record
    /// skips.  No checkpoint writes index data, and the index recovery
    /// rebuilds answers like the writer's, whatever shard count is
    /// persisted: the count no longer shapes the index.
    #[test]
    fn incremental_checkpoints_write_a_fraction_and_skip_when_clean() {
        for shards in [ServeConfig::default().shards, 1, 3] {
            let dir = ScratchDir::new(&format!("incremental_{shards}"));
            let (srv, archive) = server(30, 208, ServeConfig { shards, cache_capacity: 0 });
            let full = srv.checkpoint(dir.path()).unwrap();
            assert_eq!(full.kind, CheckpointKind::Full);
            assert!(full.bytes_written > 0);
            assert_only_static_and_records_kinds(dir.path());

            let extra = ArchiveGenerator::new(GeneratorConfig::tiny(1, 923)).unwrap().generate();
            srv.ingest(extra.patches()).unwrap();
            let incr = srv.checkpoint(dir.path()).unwrap();
            assert_eq!(incr.kind, CheckpointKind::Incremental);
            assert!(incr.bytes_written > 0);
            assert!(
                incr.bytes_written * 10 < full.bytes_written,
                "a 1-patch incremental checkpoint ({} B) must write <10% of the full \
                 snapshot ({} B)",
                incr.bytes_written,
                full.bytes_written
            );
            assert!(incr.segments_retired >= 1);
            assert_only_static_and_records_kinds(dir.path());

            let skipped = srv.checkpoint(dir.path()).unwrap();
            assert_eq!(skipped.kind, CheckpointKind::Skipped);
            assert_eq!(skipped.bytes_written, 0);

            // The incremental chain recovers to the same answers, the
            // rebuilt index's included.
            let names = [&archive.patches()[4].meta.name, &extra.patches()[0].meta.name];
            let expected = index_answers(&srv, &names);
            drop(srv);
            let back = QueryServer::recover(dir.path()).unwrap();
            assert_eq!(back.archive_size(), 31);
            assert_eq!(index_answers(&back, &names), expected, "{shards} shards");
        }
    }

    /// Asserts the published manifest lists only the static chunk and the
    /// records chunks: no index data, no document store.
    fn assert_only_static_and_records_kinds(dir: &Path) {
        let manifest = persist::read_manifest(dir).unwrap().unwrap();
        for chunk in &manifest.chunks {
            assert!(
                chunk.kind == "static" || Sequence::ALL.iter().any(|seq| seq.files(&chunk.kind)),
                "unexpected chunk kind {}",
                chunk.kind
            );
        }
    }

    /// Answers that read the Hamming index (k-NN, filtered radius) next to
    /// the query panel's and the reported archive size.
    fn index_answers(
        srv: &QueryServer,
        names: &[&String],
    ) -> (SearchResponse, Vec<SearchResponse>, Vec<FilteredResponse>, usize) {
        let filter = ImageQuery::all().with_seasons(vec![
            eq_bigearthnet::patch::Season::Summer,
            eq_bigearthnet::patch::Season::Winter,
        ]);
        let similar = names.iter().map(|name| srv.similar_to(name, 6).unwrap()).collect();
        let within = names
            .iter()
            .map(|name| {
                srv.similar_within_filtered(name, 24, &filter, PrefilterMode::Auto).unwrap()
            })
            .collect();
        (srv.search(&ImageQuery::all()).unwrap(), similar, within, srv.stats().archive_size)
    }

    /// Each record sequence compacts on its own: once
    /// `RUN_COMPACT_THRESHOLD` runs of it are stacked, the next checkpoint
    /// with new records of it writes the sequence from 0 in one chunk, and
    /// the old runs' files are swept.
    #[test]
    fn stacked_record_runs_are_compacted() {
        use crate::durability::RUN_COMPACT_THRESHOLD;
        let dir = ScratchDir::new("record_runs");
        let (srv, archive) = server(6, 213, ServeConfig::uncached(3));
        srv.checkpoint(dir.path()).unwrap();
        let runs = |dir: &Path, seq: Sequence| {
            let manifest = persist::read_manifest(dir).unwrap().unwrap();
            manifest.chunks.iter().filter(|c| seq.files(&c.kind)).count()
        };
        let (mut ingest_runs, mut feedback_runs) = (Vec::new(), Vec::new());
        for seed in 940..950u64 {
            let extra = ArchiveGenerator::new(GeneratorConfig::tiny(1, seed)).unwrap().generate();
            srv.ingest(extra.patches()).unwrap();
            // Feedback every other round: its runs stack at their own pace.
            if seed.is_multiple_of(2) {
                srv.submit_feedback(&format!("round {seed}"), None).unwrap();
            }
            assert_eq!(srv.checkpoint(dir.path()).unwrap().kind, CheckpointKind::Incremental);
            ingest_runs.push(runs(dir.path(), Sequence::Ingest));
            feedback_runs.push(runs(dir.path(), Sequence::Feedback));
        }
        assert_eq!(ingest_runs.iter().max(), Some(&RUN_COMPACT_THRESHOLD), "{ingest_runs:?}");
        assert!(ingest_runs.contains(&1), "the ingest runs were never compacted: {ingest_runs:?}");
        assert_eq!(feedback_runs, [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]);
        let manifest = persist::read_manifest(dir.path()).unwrap().unwrap();
        let chunk_files = std::fs::read_dir(dir.path())
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".eqc"))
            .count();
        assert_eq!(chunk_files, manifest.chunks.len(), "superseded runs must be swept");

        let names = [&archive.patches()[1].meta.name];
        let expected = (index_answers(&srv, &names), srv.list_feedback().unwrap());
        drop(srv);
        let back = QueryServer::recover(dir.path()).unwrap();
        assert_eq!(back.archive_size(), 16);
        assert_eq!((index_answers(&back, &names), back.list_feedback().unwrap()), expected);
    }

    /// Each records chunk the published manifest lists: its file, its
    /// sequence, its start and its body, which `persist`'s reader must
    /// decode as records of that sequence.
    fn records_chunks(dir: &Path) -> Vec<(String, Sequence, usize, Vec<u8>)> {
        let manifest = persist::read_manifest(dir).unwrap().unwrap();
        let records = manifest.chunks.iter().filter(|entry| entry.kind != "static");
        records
            .map(|entry| {
                let seq = *Sequence::ALL.iter().find(|seq| seq.files(&entry.kind)).unwrap();
                let persist::ChunkPayload::Records { start, .. } =
                    persist::read_chunk_file(dir, entry).unwrap()
                else {
                    panic!("{} is not a records chunk", entry.file)
                };
                // The frame: magic, body length, body, CRC-32.
                let file = std::fs::read(dir.join(&entry.file)).unwrap();
                let body = file[16..file.len() - 4].to_vec();
                (entry.file.clone(), seq, start as usize, body)
            })
            .collect()
    }

    /// A records chunk body as `persist` starts one, then `payloads`.
    fn run_of(start: usize, payloads: &[&Vec<u8>]) -> Vec<u8> {
        let mut w = persist::records_chunk(start);
        payloads.iter().for_each(|payload| w.raw(payload));
        w.into_bytes()
    }

    /// A checkpoint is the log, compacted.  A new lineage of a built server
    /// writes each patch as the very record its ingest would log; an
    /// incremental checkpoint writes exactly the payloads of the WAL
    /// segment its cut sealed, each sequence in order, byte for byte.
    #[test]
    fn the_checkpoint_is_the_log_byte_for_byte() {
        let dir = ScratchDir::new("log_bytes");
        let (srv, archive) = server(10, 217, ServeConfig::default());
        srv.checkpoint(dir.path()).unwrap();
        let built: Vec<Vec<u8>> = archive
            .patches()
            .iter()
            .map(|patch| {
                let rasters = patch_rasters(patch, &patch.meta.name);
                let (meta, code) = (patch.meta.clone(), srv.model.hash_patch(patch));
                WalRecord::Ingest { meta, code, rasters }.encode()
            })
            .collect();
        let full = records_chunks(dir.path());
        assert_eq!(full.len(), 1, "no feedback yet, so one ingest run");
        let (_, seq, start, body) = &full[0];
        assert_eq!((*seq, *start), (Sequence::Ingest, 0));
        assert!(*body == run_of(0, &built.iter().collect::<Vec<_>>()), "the built patches");

        let extra = ArchiveGenerator::new(GeneratorConfig::tiny(3, 960)).unwrap().generate();
        srv.ingest(&extra.patches()[..2]).unwrap();
        srv.submit_feedback("more coastline, please", Some("request")).unwrap();
        srv.ingest(&extra.patches()[2..]).unwrap();
        srv.submit_feedback("loads quickly", None).unwrap();
        let live = persist::read_manifest(dir.path()).unwrap().unwrap().first_segment;
        let sealed = std::fs::read(dir.path().join(persist::segment_file_name(live))).unwrap();
        let incremental = srv.checkpoint(dir.path()).unwrap();
        assert_eq!(incremental.kind, CheckpointKind::Incremental);
        assert!(!dir.path().join(persist::segment_file_name(live)).exists(), "it was sealed");

        // The sealed segment's record payloads, as framed on disk.
        let mut logged = Vec::new();
        let mut rest = &sealed[persist::SEGMENT_HEADER_LEN as usize..];
        while let Some((frame, tail)) = rest.split_first_chunk::<8>() {
            let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
            logged.push(tail[..len].to_vec());
            rest = &tail[len..];
        }
        assert_eq!(logged.len(), 5);
        let written: Vec<_> = records_chunks(dir.path())
            .into_iter()
            .filter(|(file, ..)| full.iter().all(|(old, ..)| old != file))
            .collect();
        assert_eq!(written.len(), 2, "one run per sequence");
        for (_, seq, start, body) in written {
            let is_ingest = |payload: &&Vec<u8>| {
                matches!(persist::decode_record(payload).unwrap(), WalRecord::Ingest { .. })
            };
            let logged: Vec<&Vec<u8>> =
                logged.iter().filter(|p| is_ingest(p) == (seq == Sequence::Ingest)).collect();
            let persisted = if seq == Sequence::Ingest { 10 } else { 0 };
            assert_eq!(start, persisted, "{seq:?} starts at its persisted count");
            assert!(body == run_of(start, &logged), "{seq:?} holds the sealed segment's records");
        }
    }

    /// Directories written while the index was still persisted list
    /// retired `shard:N` chunks.  Recovery skips them unread, and the next
    /// checkpoint drops them from the manifest, so the sweep deletes their
    /// files.
    #[test]
    fn retired_shard_chunks_are_skipped_and_swept() {
        let dir = ScratchDir::new("retired_shard");
        let (srv, archive) = server(12, 214, ServeConfig::uncached(4));
        srv.checkpoint(dir.path()).unwrap();
        let names = [&archive.patches()[2].meta.name];
        let expected = index_answers(&srv, &names);
        drop(srv);

        let faults = persist::Faults::default();
        let mut manifest = persist::read_manifest(dir.path()).unwrap().unwrap();
        let file = persist::chunk_file_name(manifest.seq, 99);
        let garbage = persist::write_chunk_file(dir.path(), &file, "shard:0", b"\xFF", &faults);
        manifest.chunks.push(garbage.unwrap());
        persist::write_manifest_file(dir.path(), &manifest, &faults).unwrap();

        let back = QueryServer::recover(dir.path()).unwrap();
        assert_eq!(index_answers(&back, &names), expected);
        let extra = ArchiveGenerator::new(GeneratorConfig::tiny(1, 951)).unwrap().generate();
        back.ingest(extra.patches()).unwrap();
        assert_eq!(back.checkpoint(dir.path()).unwrap().kind, CheckpointKind::Incremental);
        assert!(!dir.path().join(&file).exists(), "the retired chunk must be swept");
        assert_only_static_and_records_kinds(dir.path());
    }

    /// A replica serves only what its own log holds, so one with no log
    /// refuses even a valid batch before applying any of it: nothing is
    /// served or counted that no log holds.
    #[test]
    fn a_replica_without_a_log_applies_nothing() {
        let (srv, _) = server(10, 218, ServeConfig::default());
        srv.set_replica_mode();
        let patch = ArchiveGenerator::new(GeneratorConfig::tiny(1, 955)).unwrap().generate_patch(0);
        let meta = PatchMetadata { id: PatchId(10), ..patch.meta.clone() };
        let rasters = patch_rasters(&patch, &meta.name);
        let code = srv.model.hash_patch(&patch);
        let record = WalRecord::Ingest { meta, code, rasters }.encode();
        let err = srv.apply_replicated(&[record]).unwrap_err();
        assert!(matches!(err, EarthQubeError::Persist(_)), "{err:?}");
        assert_eq!((srv.archive_size(), srv.stats().ingested_images), (10, 0));
        let unknown = srv.similar_to(&patch.meta.name, 3).unwrap_err();
        assert!(matches!(unknown, EarthQubeError::UnknownImage(_)), "{unknown:?}");
    }

    /// A logged ingest whose code is not the model's width is refused with
    /// a typed error before anything is applied: no document lands, and no
    /// index insert panics under the catalog write lock.
    #[test]
    fn a_replicated_ingest_of_the_wrong_code_width_is_refused_unapplied() {
        let (srv, _) = server(10, 215, ServeConfig::uncached(8));
        srv.set_replica_mode();
        let before = srv.search(&ImageQuery::all()).unwrap();
        let patch = ArchiveGenerator::new(GeneratorConfig::tiny(1, 952)).unwrap().generate_patch(0);
        let mut meta = patch.meta.clone();
        meta.id = PatchId(10);
        let rasters = patch_rasters(&patch, &meta.name);
        let code = BinaryCode::zeros(32);
        let record = WalRecord::Ingest { meta, code, rasters }.encode();
        let err = srv.apply_replicated(&[record]).unwrap_err();
        assert!(matches!(err, EarthQubeError::Persist(_)), "{err:?}");
        assert_eq!(srv.archive_size(), 10);
        assert_eq!(srv.search(&ImageQuery::all()).unwrap(), before);
    }

    /// A logged ingest whose image or rendered document is keyed by another
    /// name is refused where it is decoded, with a typed error, before
    /// anything is applied.  Had it applied, its documents would be filed
    /// under no patch of the replica's, so no checkpoint of it would
    /// recover and the replica could never be promoted.
    #[test]
    fn a_replicated_ingest_with_a_misnamed_document_is_refused_unapplied() {
        let dir = ScratchDir::new("misnamed");
        let (srv, _) = server(10, 217, ServeConfig::uncached(8));
        srv.checkpoint(dir.path()).unwrap();
        srv.set_replica_mode();
        let before = srv.search(&ImageQuery::all()).unwrap();
        let patch = ArchiveGenerator::new(GeneratorConfig::tiny(1, 954)).unwrap().generate_patch(0);
        let meta = PatchMetadata { id: PatchId(10), ..patch.meta.clone() };
        let code = srv.model.hash_patch(&patch);
        let (image_doc, rendered_doc) = prepare_patch_docs(&patch, &meta.name);
        let (other_image, other_rendered) = prepare_patch_docs(&patch, "someone-else");
        for (image_doc, rendered_doc) in
            [(&other_image, &rendered_doc), (&image_doc, &other_rendered)]
        {
            let (meta, code) = (meta.clone(), code.clone());
            let rasters = persist::encode_rasters(image_doc, rendered_doc);
            let record = WalRecord::Ingest { meta, code, rasters };
            let err = srv.apply_replicated(&[record.encode()]).unwrap_err();
            assert!(matches!(err, EarthQubeError::Persist(_)), "{err:?}");
            assert_eq!(srv.archive_size(), 10);
            assert_eq!(srv.search(&ImageQuery::all()).unwrap(), before);
        }
        // The record keyed right applies as dense id 10, and the replica's
        // whole state encodes into the promotion checkpoint.
        let rasters = persist::encode_rasters(&image_doc, &rendered_doc);
        let record = WalRecord::Ingest { meta, code, rasters };
        assert_eq!(srv.apply_replicated(&[record.encode()]).unwrap(), 1);
        assert_eq!(srv.archive_size(), 11);
        srv.promote().unwrap();
        assert!(srv.is_primary());
    }

    /// Segment rotation: with a tiny limit every batch seals a segment,
    /// the files stack up, recovery replays the whole chain, and the next
    /// checkpoint retires all of them.
    #[test]
    fn rotated_segments_replay_in_order_and_retire() {
        let dir = ScratchDir::new("rotate");
        let (srv, _) = server(6, 209, ServeConfig::default());
        srv.checkpoint(dir.path()).unwrap();
        srv.set_segment_limit(1); // rotate after every synced batch
        for seed in [931u64, 932, 933] {
            let extra = ArchiveGenerator::new(GeneratorConfig::tiny(1, seed)).unwrap().generate();
            srv.ingest(extra.patches()).unwrap();
        }
        let segments = |dir: &Path| {
            let mut n = 0;
            for entry in std::fs::read_dir(dir).unwrap() {
                let name = entry.unwrap().file_name();
                if name.to_string_lossy().ends_with(".eqw") {
                    n += 1;
                }
            }
            n
        };
        assert!(segments(dir.path()) >= 3, "each batch must seal its segment");
        let expected = srv.search(&ImageQuery::all()).unwrap();
        drop(srv);

        let back = QueryServer::recover(dir.path()).unwrap();
        assert_eq!(back.archive_size(), 9);
        assert_eq!(back.search(&ImageQuery::all()).unwrap(), expected);
        let stats = back.checkpoint(dir.path()).unwrap();
        assert_eq!(stats.kind, CheckpointKind::Incremental);
        assert!(stats.segments_retired >= 3, "the sealed chain must retire wholesale");
        assert_eq!(segments(dir.path()), 1, "only the fresh live segment remains");
    }

    /// The background checkpointer: flushes dirty state on its own, counts
    /// its passes, and shuts down cleanly (also via `Drop`).
    #[test]
    fn background_checkpointer_flushes_dirty_state() {
        let dir = ScratchDir::new("checkpointer");
        let (srv, _) = server(8, 210, ServeConfig::default());
        let srv = std::sync::Arc::new(srv);
        srv.checkpoint(dir.path()).unwrap();
        srv.start_checkpointer(Duration::from_secs(3600)).unwrap();
        assert!(srv.start_checkpointer(Duration::from_secs(3600)).is_err(), "one at a time");

        let extra = ArchiveGenerator::new(GeneratorConfig::tiny(2, 924)).unwrap().generate();
        srv.ingest(extra.patches()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while srv.checkpointer_stats().completed == 0 {
            assert!(std::time::Instant::now() < deadline, "checkpointer never flushed");
            srv.trigger_checkpoint();
            std::thread::sleep(Duration::from_millis(10));
        }
        let stats = srv.checkpointer_stats();
        assert!(stats.passes >= 1);
        assert_eq!(stats.failures, 0);
        srv.stop_checkpointer();
        // Idempotent, and a fresh one can start afterwards.
        srv.stop_checkpointer();
        srv.start_checkpointer(Duration::from_secs(3600)).unwrap();
        drop(srv); // Drop stops the second checkpointer

        let back = QueryServer::recover(dir.path()).unwrap();
        assert_eq!(back.archive_size(), 10, "the background flush covered the ingest");
    }

    /// A detached server (never checkpointed) reports no checkpointable
    /// state, and `checkpoint_if_dirty` is a clean no-op.
    #[test]
    fn checkpoint_if_dirty_is_a_noop_when_detached() {
        let (srv, _) = server(5, 211, ServeConfig::default());
        assert_eq!(srv.checkpoint_if_dirty().unwrap(), None);
    }

    /// The WAL file lock: a directory serves exactly one live writer, so a
    /// second instance appending interleaved records can never corrupt the
    /// log.  The lock dies with its holder (flock semantics), so a crashed
    /// server never wedges its directory.
    #[test]
    fn concurrent_recovery_of_the_same_directory_is_refused() {
        let dir = ScratchDir::new("lock");
        let (srv, _) = server(8, 206, ServeConfig::default());
        srv.checkpoint(dir.path()).unwrap();
        assert!(matches!(QueryServer::recover(dir.path()), Err(EarthQubeError::Persist(_))));
        drop(srv);
        assert!(QueryServer::recover(dir.path()).is_ok());
    }

    /// `shards: 0` is normalized at construction, so the value the server
    /// reports and persists is the one in effect — its own snapshot must
    /// always recover.
    #[test]
    fn zero_shard_config_is_normalized_and_roundtrips() {
        let dir = ScratchDir::new("zero_shards");
        let (srv, _) = server(6, 207, ServeConfig { shards: 0, cache_capacity: 16 });
        assert_eq!(srv.serve_config().shards, 1);
        srv.checkpoint(dir.path()).unwrap();
        drop(srv);
        let back = QueryServer::recover(dir.path()).unwrap();
        assert_eq!(back.serve_config().shards, 1);
    }

    #[test]
    fn recovering_nothing_is_a_clean_error() {
        let dir = ScratchDir::new("empty");
        assert!(matches!(QueryServer::recover(dir.path()), Err(EarthQubeError::Persist(_))));
    }

    #[test]
    fn recovered_server_keeps_logging_new_writes() {
        let dir = ScratchDir::new("relog");
        let (srv, _) = server(10, 203, ServeConfig::default());
        srv.checkpoint(dir.path()).unwrap();
        drop(srv); // releases the WAL lock for the recovering instance
        let first = QueryServer::recover(dir.path()).unwrap();
        first
            .ingest(
                ArchiveGenerator::new(GeneratorConfig::tiny(3, 921)).unwrap().generate().patches(),
            )
            .unwrap();
        drop(first);
        let second = QueryServer::recover(dir.path()).unwrap();
        assert_eq!(second.archive_size(), 13, "writes after recovery must be durable too");
    }

    /// Regression test for the stats-snapshot race: each query bumps one
    /// outcome counter and `queries_served` is their sum, so at *every*
    /// instant a snapshot must satisfy `queries_served == cache_hits +
    /// cache_misses` (the workload below has no failing queries).  An
    /// earlier revision bumped `queries_served` at query entry and the
    /// hit/miss counter at the outcome, so a concurrent snapshot could
    /// observe in-flight queries as served-but-unclassified and report a
    /// skewed hit rate.
    #[test]
    fn stats_snapshots_are_consistent_mid_workload() {
        let (srv, archive) = server(16, 204, ServeConfig::default());
        let names: Vec<String> = archive.patches().iter().map(|p| p.meta.name.clone()).collect();
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let srv = &srv;
                let names = &names;
                scope.spawn(move || {
                    for i in 0..150usize {
                        let name = &names[(t * 37 + i) % names.len()];
                        srv.similar_to(name, 3 + (i % 3)).unwrap();
                    }
                });
            }
            let srv = &srv;
            scope.spawn(move || {
                for _ in 0..400 {
                    let stats = srv.stats();
                    assert_eq!(
                        stats.queries_served,
                        stats.cache_hits + stats.cache_misses,
                        "snapshot mixes counters from different instants"
                    );
                    let rate = stats.cache_hit_rate();
                    assert!((0.0..=1.0).contains(&rate));
                }
            });
        });
        let stats = srv.stats();
        assert_eq!(stats.queries_served, 600);
        assert_eq!(stats.cache_hits + stats.cache_misses, 600);
    }

    #[test]
    fn fingerprints_distinguish_request_kinds() {
        let similar = |k| CacheKey::Request(RequestBody::SimilarTo { name: "p".into(), k });
        let a = similar(5);
        let b = similar(6);
        let c = CacheKey::Request(RequestBody::Search(query_to_spec(&ImageQuery::all())));
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
        // An upload's code key is a kind of its own.
        let code = BinaryCode::zeros(64);
        assert_ne!(fingerprint(&CacheKey::ByCode(code.clone(), 5)), fingerprint(&a));
        assert_ne!(
            fingerprint(&CacheKey::ByCode(code.clone(), 5)),
            fingerprint(&CacheKey::ByCode(code, 6))
        );

        // The query is hashed structurally: a shape is part of it, down to
        // the last bit of a coordinate.
        let circle = |radius_km: f64| {
            let centre = eq_geo::Point::new(13.0, 52.0).unwrap();
            let circle = eq_geo::Circle::new(centre, radius_km).unwrap();
            ImageQuery::all().with_shape(eq_geo::GeoShape::Circle(circle))
        };
        let radius = 25.0f64;
        let next_up = f64::from_bits(radius.to_bits() + 1);
        assert_ne!(circle(radius), circle(next_up));
        let metadata = |query: ImageQuery| {
            fingerprint(&CacheKey::Request(RequestBody::Search(query_to_spec(&query))))
        };
        assert_ne!(metadata(ImageQuery::all()), metadata(circle(radius)));
        assert_ne!(metadata(circle(radius)), metadata(circle(next_up)));
        assert_eq!(metadata(circle(radius)), metadata(circle(radius)));

        // Equal queries hash equal: `-0.0 == 0.0`, so the two must share a
        // fingerprint (their `Debug` renderings differ).
        let rect = |min_lon: f64| {
            let bbox = eq_geo::BBox::new(min_lon, 40.0, 10.0, 50.0).unwrap();
            ImageQuery::all().with_shape(eq_geo::GeoShape::Rect(bbox))
        };
        assert_eq!(rect(0.0), rect(-0.0));
        assert_eq!(metadata(rect(0.0)), metadata(rect(-0.0)));

        // The mode and the request kind are part of a filtered key, and of
        // a resolved-filter key.
        let filtered = |mode| {
            CacheKey::Request(RequestBody::SimilarToFiltered {
                name: "p".into(),
                k: 5,
                spec: query_to_spec(&circle(radius)),
                mode,
            })
        };
        let within = CacheKey::Request(RequestBody::SimilarWithinFiltered {
            name: "p".into(),
            radius: 5,
            spec: query_to_spec(&circle(radius)),
            mode: PrefilterMode::Auto,
        });
        assert_ne!(
            fingerprint(&filtered(PrefilterMode::Auto)),
            fingerprint(&filtered(PrefilterMode::ForceBitmap))
        );
        assert_ne!(fingerprint(&filtered(PrefilterMode::Auto)), fingerprint(&within));
        let query = circle(radius);
        assert_ne!(
            fingerprint(&(&query, PrefilterMode::ForceBitmap)),
            fingerprint(&(&query, PrefilterMode::ForcePostFilter))
        );
        // Probing with borrowed parts finds what was filed under owned ones:
        // a resolved filter, and a request the event loop probes in place.
        assert_eq!(
            fingerprint(&(&query, PrefilterMode::Auto)),
            fingerprint::<FilterKey>(&(query.clone(), PrefilterMode::Auto))
        );
        let CacheKey::Request(body) = &within else { unreachable!() };
        assert_eq!(fingerprint(&KeyRef::Request(body)), fingerprint(&within));
        assert_eq!(fingerprint(&within.as_ref().to_owned()), fingerprint(&within));
    }

    /// The resolved-filter cache: one entry per (filter, mode), shared by
    /// all three filter-taking kinds, counted apart from the result cache,
    /// cleared by ingest, and absent from an uncached server.
    #[test]
    fn resolved_filters_are_shared_across_kinds_and_cleared_by_ingest() {
        let (srv, archive) = server(40, 102, ServeConfig::default());
        let names: Vec<&String> = archive.patches().iter().map(|p| &p.meta.name).collect();
        let filter = ImageQuery::all().with_seasons(vec![
            eq_bigearthnet::patch::Season::Summer,
            eq_bigearthnet::patch::Season::Winter,
        ]);
        let filter_stats = |srv: &QueryServer| {
            let stats = srv.stats();
            (stats.filter_cache_hits, stats.filter_cache_misses, stats.filter_cache_entries)
        };

        // One resolution serves a second query image, another k, and the
        // radius kind: all result-cache misses, all but the first
        // filter-cache hits.
        let auto = PrefilterMode::Auto;
        srv.similar_to_filtered(names[0], 5, &filter, auto).unwrap();
        assert_eq!(filter_stats(&srv), (0, 1, 1));
        srv.similar_to_filtered(names[1], 5, &filter, auto).unwrap();
        srv.similar_to_filtered(names[0], 6, &filter, auto).unwrap();
        srv.similar_within_filtered(names[2], 24, &filter, auto).unwrap();
        assert_eq!(filter_stats(&srv), (3, 1, 1));
        assert_eq!(srv.stats().cache_hits, 0, "every request above was a result-cache miss");
        assert!(srv.stats().filter_cache_bytes >= 40 / 8);

        // A result-cache hit resolves nothing.
        srv.similar_to_filtered(names[0], 5, &filter, auto).unwrap();
        assert_eq!(srv.stats().cache_hits, 1);
        assert_eq!(filter_stats(&srv), (3, 1, 1));

        // Each mode keeps its own entry and reports its own strategy, on
        // the miss and on the hit alike.
        for _ in 0..2 {
            for (mode, strategy) in [
                (PrefilterMode::ForceBitmap, crate::FilterStrategy::BitmapPrefilter),
                (PrefilterMode::ForcePostFilter, crate::FilterStrategy::PostFilter),
            ] {
                let got = srv.similar_within_filtered(names[3], 24, &filter, mode).unwrap();
                assert_eq!(got.plan.strategy, strategy, "{mode:?}");
            }
            // Make the second round a result-cache miss again.
            srv.cache.clear();
        }
        assert_eq!(filter_stats(&srv), (5, 3, 3));

        // The query panel resolves in `Auto`, like the first queries: the
        // same entry.
        srv.search(&filter).unwrap();
        assert_eq!(filter_stats(&srv), (6, 3, 3));

        // Ingest clears it with the result cache.
        let extra = ArchiveGenerator::new(GeneratorConfig::tiny(3, 779)).unwrap().generate();
        srv.ingest(extra.patches()).unwrap();
        let stats = srv.stats();
        assert_eq!((stats.filter_cache_entries, stats.filter_cache_bytes), (0, 0));
        srv.similar_to_filtered(names[0], 5, &filter, auto).unwrap();
        assert_eq!(filter_stats(&srv), (6, 4, 1));

        // `cache_capacity: 0` turns this cache off too.
        let (bare, archive) = server(20, 103, ServeConfig::uncached(2));
        let name = &archive.patches()[0].meta.name;
        bare.similar_to_filtered(name, 5, &filter, auto).unwrap();
        bare.similar_to_filtered(name, 5, &filter, auto).unwrap();
        assert_eq!(filter_stats(&bare), (0, 0, 0));
        let text = srv.stats().render();
        assert!(text.contains("6 filters resolved from cache, 4 compiled; 1 cached in"), "{text}");
    }

    /// A patch named twice in a batch is refused before any insert, so it
    /// burns no posting id: posting ids stay the dense patch ids.  The
    /// query panel walks dense ids, `find` over the archive's metadata
    /// documents walks document ids; both must list the archive in
    /// insertion order, with the same plan.
    #[test]
    fn search_lists_insertion_order_across_a_refused_insert() {
        use crate::ingest::ingest_metadata;
        use crate::schema::collections;
        let (srv, archive) = server(12, 104, ServeConfig::default());
        let extra = ArchiveGenerator::new(GeneratorConfig::tiny(4, 780)).unwrap().generate();
        // Patch 0 lands, its repeat is refused and stops its batch.
        let repeated = [0, 0, 1].map(|i| extra.patches()[i].clone());
        let refused = srv.ingest(&repeated);
        assert!(matches!(refused, Err(EarthQubeError::BadRequest(_))), "{refused:?}");
        srv.ingest(&extra.patches()[2..]).unwrap();
        assert_eq!(srv.archive_size(), 15);

        let mut expected: Vec<&str> =
            archive.patches().iter().map(|p| p.meta.name.as_str()).collect();
        expected.extend([0, 2, 3].map(|i| extra.patches()[i].meta.name.as_str()));
        for query in [
            ImageQuery::all(),
            ImageQuery::all().with_seasons(eq_bigearthnet::patch::Season::ALL.to_vec()),
        ] {
            let found = {
                let catalog = srv.catalog.read();
                let mut db = eq_docstore::Database::new();
                ingest_metadata(&mut db, &catalog.metadata).unwrap();
                let coll = db.collection(collections::METADATA).unwrap();
                let found = coll.find(&query.to_filter());
                let last = *found.ids.last().unwrap();
                assert_eq!(last as usize, catalog.indexes.len() - 1, "no posting id was skipped");
                found
            };
            for _ in 0..2 {
                let response = srv.search(&query).unwrap();
                let names: Vec<&str> =
                    response.panel.entries().iter().map(|e| e.name.as_str()).collect();
                assert_eq!(names, expected);
                assert_eq!(response.plan.as_ref(), Some(&found.plan));
                srv.cache.clear(); // again, from the resolved-filter cache
            }
        }
    }

    /// One id space: the serving index is one arena in dense-id order, as
    /// many rows as the metadata table, row `r` holding dense id `r` and
    /// the code the name→code table has for `metadata[r]`; and the
    /// metadata postings index exactly `metadata[r]` under posting id `r`.
    fn assert_dense_arena(srv: &QueryServer) {
        use crate::schema::fields;
        let catalog = srv.catalog.read();
        let arena = &catalog.cbir.arena;
        assert_eq!(arena.len(), catalog.metadata.len());
        assert_eq!(catalog.indexes.len(), arena.len());
        let countries = catalog.indexes.attribute_index(fields::COUNTRY).unwrap();
        for (row, meta) in catalog.metadata.iter().enumerate() {
            assert_eq!(arena.id(row), row as u64);
            let code = catalog.cbir.code_of(&meta.name).unwrap();
            assert_eq!(arena.code_words(row), code.words(), "row {row}, {}", meta.name);
            let posting = countries.value_bitmap(&meta.country.name().into());
            assert!(posting.is_some_and(|ids| ids.contains(row as u64)), "posting {row}");
        }
    }

    /// Every write path keeps the arena and the metadata posting ids
    /// dense: build, live ingest, an ingest refused mid-batch, WAL
    /// recovery and a replicated apply.
    /// And each counts what it grew the archive by, past the 12 built (and
    /// checkpointed) images, as ingested: recovery's replay of the WAL
    /// tail included.
    #[test]
    fn every_write_path_keeps_the_arena_in_dense_id_order() {
        let dir = ScratchDir::new("dense_arena");
        let (srv, _) = server(12, 216, ServeConfig::default());
        let assert_dense_and_counted = |srv: &QueryServer| {
            assert_dense_arena(srv);
            let stats = srv.stats();
            assert_eq!(stats.ingested_images, stats.archive_size as u64 - 12);
        };
        assert_dense_and_counted(&srv);
        srv.checkpoint(dir.path()).unwrap();
        let extra = ArchiveGenerator::new(GeneratorConfig::tiny(4, 953)).unwrap().generate();
        srv.ingest(&extra.patches()[..1]).unwrap();
        assert_dense_and_counted(&srv);

        // Patch 1 lands, its repeat is refused and stops the batch.
        let repeated = [1, 1, 2].map(|i| extra.patches()[i].clone());
        let refused = srv.ingest(&repeated);
        assert!(matches!(refused, Err(EarthQubeError::BadRequest(_))), "{refused:?}");
        assert_eq!(srv.archive_size(), 14);
        assert_dense_and_counted(&srv);
        drop(srv);

        let back = QueryServer::recover(dir.path()).unwrap();
        assert_eq!(back.archive_size(), 14);
        assert_dense_and_counted(&back);

        back.set_replica_mode();
        let patch = &extra.patches()[3];
        let mut meta = patch.meta.clone();
        meta.id = PatchId(14);
        let rasters = patch_rasters(patch, &meta.name);
        let code = back.model.hash_patch(patch);
        let record = WalRecord::Ingest { meta, code, rasters }.encode();
        assert_eq!(back.apply_replicated(&[record]).unwrap(), 1);
        assert_eq!(back.archive_size(), 15);
        assert_dense_and_counted(&back);
    }

    /// Budgeted by weight, evicting least recently used first, in
    /// O(log n): the recency index and the entries never drift apart.
    #[test]
    fn the_lru_evicts_by_weight_in_recency_order() {
        let mut shard: LruShard<&str, u32> = LruShard::new(10);
        let is = |want: &'static str| move |key: &&str| *key == want;
        shard.put(1, "a", 1, 4);
        shard.put(2, "b", 2, 4);
        assert_eq!(shard.lookup(1, is("a")), Some(1)); // refresh a
        shard.put(3, "c", 3, 4); // 12 > 10: evicts b, the least recent
        assert_eq!(shard.lookup(2, is("b")), None);
        assert_eq!((shard.used, shard.entries.len(), shard.recency.len()), (8, 2, 2));
        // A fingerprint collision is a miss, and does not refresh.
        assert_eq!(shard.lookup(1, is("z")), None);
        // Replacing an entry re-weighs it; a heavy one evicts several.
        shard.put(3, "c", 33, 2);
        assert_eq!(shard.used, 6);
        shard.put(4, "d", 4, 9); // leaves room for nothing else
        assert_eq!(shard.lookup(4, is("d")), Some(4));
        assert_eq!((shard.used, shard.entries.len(), shard.recency.len()), (9, 1, 1));
        // Heavier than the whole budget: not kept, nothing evicted for it.
        shard.put(5, "e", 5, 11);
        assert_eq!(shard.lookup(5, is("e")), None);
        assert_eq!(shard.entries.len(), 1);
        shard.clear();
        assert_eq!((shard.used, shard.entries.len(), shard.recency.len()), (0, 0, 0));
        // A zero budget keeps nothing (the disabled result cache).
        let mut off: LruShard<&str, u32> = LruShard::new(0);
        off.put(1, "a", 1, 1);
        assert!(off.entries.is_empty());
    }
}
