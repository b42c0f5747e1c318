//! Concurrent query serving: the [`QueryServer`] puts the one query core
//! (the crate's `catalog` module, which the [`EarthQube`] facade runs bare,
//! one query at a time) behind shared state, so many analyst sessions can
//! search the archive in parallel while ingest traffic proceeds on an
//! isolated write path.  What the server adds to the core:
//!
//! * **Catalog lock** — the whole core (document store, metadata table,
//!   name→code map, code arena) sits behind one `parking_lot::RwLock`.
//!   Queries take the read side (shared, concurrent); ingest and feedback
//!   take the write side.  Holding the read lock across a query gives every
//!   query a consistent snapshot even while ingest is running.
//! * **One index** — the core scans one [`eq_hashindex::CodeArena`] whose
//!   row *r* holds dense patch id *r*, whatever [`ServeConfig::shards`]
//!   says.  Checkpoints never write it (recovery rebuilds it from the
//!   image table), and it takes no lock of its own: it sits behind the
//!   catalog lock with the rest of the core.
//! * **Result cache** — a bounded LRU keyed by a fingerprint of the query
//!   (a structural hash; the full query is stored and compared, so a
//!   fingerprint collision is a miss, never a wrong answer).
//! * **Resolved-filter cache** — a second instance of the same LRU, under
//!   the first: what the core's resolver returned for a (filter, mode),
//!   budgeted in bytes.  A filter-taking query that misses the result
//!   cache (another query image, `k` or radius under the same panel
//!   filter) finds its filter here and skips `to_filter`, the prefilter
//!   compile, the candidate walk and the mask build.
//!   Both caches are off at `cache_capacity: 0`, and both are cleared by
//!   the one `invalidate`, which every write that changes the archive
//!   calls inside the catalog write section — readers insert under the
//!   read lock, so they can never re-insert a stale entry.
//! * **Worker pool** — [`QueryServer::run_workload`] fans a batch of
//!   [`QueryRequest`]s over K scoped threads (`std::thread::scope`); all
//!   query entry points take `&self`, so workers share the server by plain
//!   reference.
//! * **Pooled search scratch** — every CBIR query checks a scratch (bounded
//!   top-k heap + neighbour buffer) out of a per-server pool and returns it
//!   afterwards, so steady-state serving does zero search-path allocation
//!   ([`prewarm_scratch`](QueryServer::prewarm_scratch) sizes the pool to
//!   the worker count; `NetServer` does this on bind).
//! * **Durability** — one component (the crate's `durability` module) owns
//!   the persistence attachment, the write-ahead log policy, the checkpoint
//!   protocol and the checkpointer; this file keeps the catalog side of
//!   each write ([`ingest`](QueryServer::ingest),
//!   [`apply_replicated`](QueryServer::apply_replicated), recovery's
//!   replay) and the primary/replica role flag.  What a server serves *to*
//!   replicas is in [`crate::replicate`].
//!
//! Determinism: a workload executed through the server returns exactly the
//! same [`SearchResponse`]s as the engine, regardless of worker count and
//! configuration — the umbrella crate's `concurrent_serving` test asserts
//! byte-identical result panels.

use std::any::Any;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use eq_agora::AssetRegistry;
use eq_bigearthnet::patch::{Patch, PatchId, PatchMetadata};
use eq_bigearthnet::Archive;
use eq_docstore::Document;
use eq_hashindex::BinaryCode;
use eq_milan::Milan;
use parking_lot::{Mutex, RwLock};

use crate::catalog::{Catalog, QueryScratch};
use crate::cbir::CbirService;
pub use crate::durability::{CheckpointKind, CheckpointStats, CheckpointerStats};
use crate::durability::{Durability, Seal};
use crate::engine::{build_registry, EarthQube, EarthQubeConfig, SearchResponse};
use crate::feedback::{FeedbackEntry, FeedbackService};
use crate::filtered::{FilteredResponse, PrefilterMode, ResolvedFilter};
use crate::ingest::{prepare_patch_docs, IngestReport};
use crate::persist;
use crate::query::ImageQuery;
use crate::EarthQubeError;

/// Configuration of the serving layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// No longer affects serving: the CBIR index is one arena, whatever
    /// the value.  It stays because the static checkpoint chunk persists it
    /// (normalised to at least 1, which recovery checks) and the benchmark
    /// harness reads it; ROADMAP item 2 deletes it.
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
    /// A configuration with the result cache disabled (used by benchmarks
    /// that measure raw query throughput).
    pub fn uncached(shards: usize) -> Self {
        Self { shards, cache_capacity: 0 }
    }
}

/// One request of a batched query workload.
#[derive(Debug, Clone)]
pub enum QueryRequest {
    /// A query-panel metadata search (§3.1).
    Metadata(ImageQuery),
    /// "Retrieve similar images" for an archive image (§3.3).
    SimilarTo {
        /// The query image's patch name.
        name: String,
        /// Number of neighbours to retrieve.
        k: usize,
    },
    /// Query-by-new-example: an external patch encoded on the fly (§4).
    NewExample {
        /// The uploaded patch.
        patch: Box<Patch>,
        /// Number of neighbours to retrieve.
        k: usize,
    },
}

// The serving-counter snapshot is defined in `eq_proto` beside its codec,
// which carries all but the four `filter_cache_*` counters.
pub use eq_proto::ServerStats;

/// Result-cache key: the full request identity, stored alongside each entry
/// and compared on lookup so a 64-bit fingerprint collision degrades to a
/// cache miss instead of returning the wrong result.
#[derive(Debug, Clone, PartialEq, Hash)]
enum CacheKey {
    Metadata(ImageQuery),
    Similar(String, usize),
    ByCode(BinaryCode, usize),
    /// Filtered k-NN: the query-panel filter (as the full `ImageQuery`)
    /// and the prefilter mode are part of the request identity — two
    /// modes may resolve the same mask through different plans, and the
    /// cached response carries that plan.
    SimilarFiltered {
        name: String,
        k: usize,
        query: ImageQuery,
        mode: PrefilterMode,
    },
    /// Filtered radius search; same identity rules as `SimilarFiltered`.
    WithinFiltered {
        name: String,
        radius: u32,
        query: ImageQuery,
        mode: PrefilterMode,
    },
}

/// Resolved-filter-cache key: the filter and the mode that resolved it, so
/// `ForceBitmap` and `ForcePostFilter` each keep executing, and reporting,
/// their own strategy.
type FilterKey = (ImageQuery, PrefilterMode);

/// Where a key lives in either cache: a structural hash (an `ImageQuery`
/// hashes its floats by bit pattern, see its `Hash`), no rendering.
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

/// The result cache never looks inside a response, so it holds one as
/// `dyn Any`: a [`SearchResponse`] for the unfiltered paths, the full
/// [`FilteredResponse`] for filtered queries (the plan is part of the
/// response surface: a replayed hit reports the strategy that resolved
/// the mask).  Every entry weighs one, so its budget is an entry count.
type ResultCache = Lru<CacheKey, Arc<dyn Any + Send + Sync>>;

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

/// The query counters, kept together behind one lock so that
/// [`QueryServer::stats`] can snapshot all three in a single pass.  Each
/// query updates them exactly once, *at its outcome*, so at every instant
/// `queries_served == cache_hits + cache_misses + failed queries` — a
/// snapshot can never observe a query that was counted as served but not
/// yet classified.  (An earlier revision kept three independent atomics
/// bumped at different points of the query; a mid-workload snapshot could
/// then see a hit rate computed from counters belonging to different sets
/// of queries.)
#[derive(Debug, Default)]
struct QueryCounters {
    served: u64,
    hits: u64,
    misses: u64,
}

/// The concurrent EarthQube serving layer.
///
/// Every query entry point takes `&self`, so a server shared by reference
/// (or inside an `Arc`) serves many threads at once; [`ingest`] and
/// [`submit_feedback`] are the write path and take the catalog write lock
/// internally — they also only need `&self`.
///
/// [`ingest`]: Self::ingest
/// [`submit_feedback`]: Self::submit_feedback
pub struct QueryServer {
    config: EarthQubeConfig,
    serve: ServeConfig,
    /// The query core, whole, behind one lock: queries take the read side,
    /// ingest and feedback the write side.
    catalog: RwLock<Catalog>,
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
    counters: Mutex<QueryCounters>,
    ingested_images: AtomicU64,
    /// Pool of per-query scratch state.  A query pops a scratch (or makes
    /// one if the pool momentarily runs dry), searches without holding the
    /// pool lock, and returns it — so concurrent workers never share a
    /// scratch and steady-state serving stops allocating once the pool has
    /// one warm scratch per worker (see
    /// [`prewarm_scratch`](Self::prewarm_scratch)).
    scratch_pool: Mutex<Vec<QueryScratch>>,
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
    /// starts detached, primary, with an empty cache and scratch pool.
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
            counters: Mutex::with_name(QueryCounters::default(), "counters"),
            ingested_images: AtomicU64::new(0),
            scratch_pool: Mutex::with_name(Vec::new(), "scratch_pool"),
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
        self.catalog.read().metadata.iter().find(|m| m.name == name).cloned()
    }

    /// A snapshot of the serving counters.
    ///
    /// The three query counters are read in one pass under their shared
    /// lock, so the snapshot is internally consistent even mid-workload:
    /// `queries_served` always equals `cache_hits + cache_misses` plus the
    /// failed queries, and the derived hit rate never mixes counters from
    /// different instants.
    pub fn stats(&self) -> ServerStats {
        let (queries_served, cache_hits, cache_misses) = {
            let counters = self.counters.lock();
            (counters.served, counters.hits, counters.misses)
        };
        // One arena, so one occupancy: the wire field keeps its shape.
        let archive_size = self.catalog.read().metadata.len();
        ServerStats {
            queries_served,
            cache_hits,
            cache_misses,
            cache_entries: self.cache.len(),
            filter_cache_hits: self.filter_cache_hits.load(Ordering::Relaxed),
            filter_cache_misses: self.filter_cache_misses.load(Ordering::Relaxed),
            filter_cache_entries: self.filter_cache.len(),
            filter_cache_bytes: self.filter_cache.used(),
            archive_size,
            ingested_images: self.ingested_images.load(Ordering::Relaxed),
            shard_occupancy: vec![archive_size],
        }
    }

    /// Runs a query-panel metadata search (the concurrent counterpart of
    /// [`EarthQube::search`]).
    ///
    /// # Errors
    /// Fails on an invalid query or a store error.
    pub fn search(&self, query: &ImageQuery) -> Result<SearchResponse, EarthQubeError> {
        query.validate()?;
        self.cached(CacheKey::Metadata(query.clone()), |catalog| {
            catalog.search(&*self.resolved(catalog, query, Catalog::PANEL_MODE)?)
        })
    }

    /// "Retrieve similar images" for an archive image (the concurrent
    /// counterpart of [`EarthQube::similar_to`]).
    ///
    /// # Errors
    /// Fails if the image is unknown.
    pub fn similar_to(&self, name: &str, k: usize) -> Result<SearchResponse, EarthQubeError> {
        self.cached(CacheKey::Similar(name.to_string(), k), |catalog| {
            self.with_scratch(|scratch| catalog.similar_to(name, k, scratch))
        })
    }

    /// Query-by-new-example: encodes the external patch on the fly (the
    /// concurrent counterpart of [`EarthQube::search_by_new_example`]).
    ///
    /// # Errors
    /// Propagates store errors from result assembly.
    pub fn search_by_new_example(
        &self,
        patch: &Patch,
        k: usize,
    ) -> Result<SearchResponse, EarthQubeError> {
        // Encoding needs no lock: the model is immutable shared state.
        let code = self.model.hash_patch(patch);
        self.search_by_code(&code, k)
    }

    /// The k most similar archive images to an arbitrary binary code.
    ///
    /// # Errors
    /// Propagates store errors from result assembly.
    pub fn search_by_code(
        &self,
        code: &BinaryCode,
        k: usize,
    ) -> Result<SearchResponse, EarthQubeError> {
        self.cached(CacheKey::ByCode(code.clone(), k), |catalog| {
            self.with_scratch(|scratch| catalog.search_by_code(code, k, scratch))
        })
    }

    /// Filtered "retrieve similar images" (the concurrent counterpart of
    /// [`EarthQube::similar_to_filtered`]): the `k` nearest neighbours
    /// among the images matching the query-panel filter.
    ///
    /// Filtered responses — plan included — go through the result cache
    /// like every other query: the filter, the mode, the image and `k` are
    /// all part of the cache key, and ingest invalidation covers them the
    /// same way.  On a result-cache miss the filter itself comes from the
    /// resolved-filter cache: the same panel filter re-issued with another
    /// query image, `k` or radius is resolved once per catalog state.
    ///
    /// # Errors
    /// Fails on an invalid query, an unknown image or a store error.
    pub fn similar_to_filtered(
        &self,
        name: &str,
        k: usize,
        query: &ImageQuery,
        mode: PrefilterMode,
    ) -> Result<FilteredResponse, EarthQubeError> {
        query.validate()?;
        let key =
            CacheKey::SimilarFiltered { name: name.to_string(), k, query: query.clone(), mode };
        self.cached(key, |catalog| {
            let filter = self.resolved(catalog, query, mode)?;
            self.with_scratch(|scratch| catalog.similar_to_filtered(name, k, &filter, scratch))
        })
    }

    /// Filtered radius search (the concurrent counterpart of
    /// [`EarthQube::similar_within_filtered`]): every image within the
    /// Hamming radius that also matches the query-panel filter, excluding
    /// the query image itself.
    ///
    /// # Errors
    /// Fails on an invalid query, an unknown image or a store error.
    pub fn similar_within_filtered(
        &self,
        name: &str,
        radius: u32,
        query: &ImageQuery,
        mode: PrefilterMode,
    ) -> Result<FilteredResponse, EarthQubeError> {
        query.validate()?;
        let key =
            CacheKey::WithinFiltered { name: name.to_string(), radius, query: query.clone(), mode };
        self.cached(key, |catalog| {
            let filter = self.resolved(catalog, query, mode)?;
            self.with_scratch(|scratch| {
                catalog.similar_within_filtered(name, radius, &filter, scratch)
            })
        })
    }

    /// Resolve-or-reuse: the filter of every filter-taking query comes
    /// through here, on that query's result-cache miss.  A hit builds no
    /// `Filter`, compiles nothing, touches no `Document` and allocates no
    /// mask; it costs one hash of the query and one shard lock.
    ///
    /// `catalog` is the guard [`cached`](Self::cached) holds, so an entry
    /// is inserted under the catalog read lock and the argument there
    /// covers this cache too: writers clear it under the write lock.
    fn resolved(
        &self,
        catalog: &Catalog,
        query: &ImageQuery,
        mode: PrefilterMode,
    ) -> Result<Arc<ResolvedFilter>, EarthQubeError> {
        if self.serve.cache_capacity == 0 {
            return catalog.resolve(query, mode).map(Arc::new);
        }
        let fp = fingerprint(&(query, mode));
        if let Some(hit) = self.filter_cache.lookup(fp, |key| key.1 == mode && key.0 == *query) {
            self.filter_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        let filter = Arc::new(catalog.resolve(query, mode)?);
        let weight = filter.size_bytes();
        self.filter_cache.put(fp, (query.clone(), mode), Arc::clone(&filter), weight);
        self.filter_cache_misses.fetch_add(1, Ordering::Relaxed);
        Ok(filter)
    }

    /// Checks a scratch out of the pool for the duration of `f`.  The pool
    /// lock is only held for the pop and the push, never across the search
    /// itself, so workers contend for nanoseconds, not query time.
    fn with_scratch<R>(&self, f: impl FnOnce(&mut QueryScratch) -> R) -> R {
        let mut scratch = self.scratch_pool.lock().pop().unwrap_or_default();
        let result = f(&mut scratch);
        // lint:allow(hot-path) returns the scratch to a pool prewarmed to the worker count: steady-state pushes land in reserved capacity
        self.scratch_pool.lock().push(scratch);
        result
    }

    /// Pre-populates the scratch pool with `workers` entries, so a serving
    /// tier that pins its worker count (e.g. `NetServer`) never constructs
    /// a scratch on the query path — after each worker's first query the
    /// pooled buffers are warm and steady-state serving is allocation-free
    /// on the search path.
    pub fn prewarm_scratch(&self, workers: usize) {
        let mut pool = self.scratch_pool.lock();
        while pool.len() < workers {
            pool.push(QueryScratch::default());
        }
    }

    /// Executes one workload request.
    ///
    /// # Errors
    /// Propagates the underlying query error.
    pub fn execute(&self, request: &QueryRequest) -> Result<SearchResponse, EarthQubeError> {
        match request {
            QueryRequest::Metadata(query) => self.search(query),
            QueryRequest::SimilarTo { name, k } => self.similar_to(name, *k),
            QueryRequest::NewExample { patch, k } => self.search_by_new_example(patch, *k),
        }
    }

    /// Executes a batch of requests on `workers` scoped threads, returning
    /// the per-request results in request order.
    ///
    /// The batch is split into contiguous chunks, one per worker; each
    /// worker shares the server by reference (`std::thread::scope`), so
    /// queries proceed concurrently against the shared read path while any
    /// concurrent [`ingest`](Self::ingest) serialises through the catalog
    /// write lock.
    pub fn run_workload(
        &self,
        requests: &[QueryRequest],
        workers: usize,
    ) -> Vec<Result<SearchResponse, EarthQubeError>> {
        if requests.is_empty() {
            return Vec::new();
        }
        let workers = workers.clamp(1, requests.len());
        let chunk = requests.len().div_ceil(workers);
        let mut results: Vec<Option<Result<SearchResponse, EarthQubeError>>> =
            (0..requests.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (reqs, outs) in requests.chunks(chunk).zip(results.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (request, out) in reqs.iter().zip(outs.iter_mut()) {
                        *out = Some(self.execute(request));
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
    /// band data, rendering RGB — happens *before* the catalog write lock
    /// is taken, so concurrent queries are only blocked for the cheap
    /// bookkeeping: the duplicate check, the three document inserts, the
    /// index insert and the cache invalidation.
    ///
    /// When the server is attached to a persistence directory (via
    /// [`checkpoint`](Self::checkpoint), [`recover`](Self::recover) or
    /// [`open`](Self::open)), every applied patch is appended to the
    /// write-ahead log *inside the same write-lock section*, so the
    /// per-patch rollback atomicity carries over to disk: a patch is either
    /// fully applied and fully logged, or neither.
    ///
    /// # Errors
    /// A batch naming an already-indexed image is rejected up front, before
    /// any work.  On a mid-batch store error, patches preceding the failure
    /// remain ingested (each patch is applied atomically, and the cache is
    /// invalidated whenever at least one patch was applied).  A WAL I/O
    /// failure surfaces as [`EarthQubeError::Persist`] and detaches the
    /// log: the server keeps serving from memory, but durability is lost
    /// until the next successful [`checkpoint`](Self::checkpoint).
    pub fn ingest(&self, patches: &[Patch]) -> Result<IngestReport, EarthQubeError> {
        if !self.is_primary() {
            return Err(EarthQubeError::NotPrimary(
                "replicas only apply records replicated from the primary".into(),
            ));
        }
        // Cheap pre-screen under a short read lock, so a doomed batch does
        // not pay the heavy phase below.  The check under the write lock
        // stays authoritative (an ingest racing in between is still caught).
        {
            let catalog = self.catalog.read();
            for patch in patches {
                catalog.ensure_new(&patch.meta.name)?;
            }
        }

        // Heavy phase, outside any lock: the model and the serialisation
        // code are immutable shared state.
        let prepared: Vec<(BinaryCode, Document, Document)> = patches
            .iter()
            .map(|patch| {
                let code = self.model.hash_patch(patch);
                let (image_doc, rendered_doc) = prepare_patch_docs(patch, &patch.meta.name);
                (code, image_doc, rendered_doc)
            })
            .collect();

        // Cheap phase, under the catalog write lock.
        let mut catalog = self.catalog.write();
        let mut log = self.durability.begin();
        let mut report = IngestReport { metadata_docs: 0, image_docs: 0, rendered_docs: 0 };
        let mut result = Ok(());
        for (patch, (code, image_doc, rendered_doc)) in patches.iter().zip(prepared) {
            if let Err(e) = catalog.ensure_new(&patch.meta.name) {
                result = Err(e);
                break;
            }
            // Re-assign the dense id: appended patches take the next slot.
            let mut meta = patch.meta.clone();
            meta.id = PatchId(catalog.metadata.len() as u32);
            // Encode the WAL record while the documents are still borrowable
            // (applying consumes them); it is only written once the patch
            // has actually been applied, so a rolled-back patch never
            // reaches the log.
            let record = log
                .attached()
                .then(|| persist::encode_ingest_record(&meta, &code, &image_doc, &rendered_doc));
            if let Err(e) = catalog.apply_ingest(meta, code, image_doc, rendered_doc) {
                result = Err(e);
                break;
            }
            report.metadata_docs += 1;
            report.image_docs += 1;
            report.rendered_docs += 1;
            self.ingested_images.fetch_add(1, Ordering::Relaxed);
            // A failed append leaves the patch applied in memory but not
            // durable: surface it and stop the batch.
            if let Err(e) = record.map_or(Ok(()), |record| log.append(&record)) {
                result = Err(e);
                break;
            }
        }
        // The commit runs even when the batch stopped early: the applied
        // prefix "remains ingested" per the contract above, so its records
        // must reach stable storage too.
        let result = log.commit(Seal::AtLimit, result);
        // Invalidate while still holding the catalog write lock: a reader
        // can only insert a cache entry while holding the read lock (see
        // `cached`), so no stale result can slip in after this clear.  A
        // no-op ingest (empty batch, duplicate rejected up front) changed
        // nothing, so it must not evict anyone's cached results either.
        if report.metadata_docs > 0 {
            self.invalidate();
        }
        result.map(|_| report)
    }

    /// Submits anonymous feedback through the write path (logged to the
    /// WAL like ingest, so feedback survives a crash too).
    ///
    /// # Errors
    /// Fails if the text is empty, or with [`EarthQubeError::Persist`] if
    /// the WAL append fails (the log detaches, see [`ingest`](Self::ingest)).
    pub fn submit_feedback(
        &self,
        text: &str,
        category: Option<&str>,
    ) -> Result<i64, EarthQubeError> {
        if !self.is_primary() {
            return Err(EarthQubeError::NotPrimary(
                "replicas only apply records replicated from the primary".into(),
            ));
        }
        let mut catalog = self.catalog.write();
        let id = FeedbackService.submit(&mut catalog.database, text, category)?;
        let mut log = self.durability.begin();
        let logged = log.append(&persist::encode_feedback_record(text, category));
        if let Err(e) = log.commit(Seal::AtLimit, logged) {
            // Unlike ingest (whose contract keeps the applied prefix),
            // feedback failure means "not stored": roll the entry back so a
            // retrying caller cannot store it twice.
            if let Ok(coll) = catalog.database.collection_mut(crate::schema::collections::FEEDBACK)
            {
                let _ = coll.delete_by_key(&eq_docstore::Value::Int(id));
            }
            return Err(e);
        }
        Ok(id)
    }

    /// Lists all stored feedback.
    ///
    /// # Errors
    /// Fails if the feedback collection is missing.
    pub fn list_feedback(&self) -> Result<Vec<FeedbackEntry>, EarthQubeError> {
        let catalog = self.catalog.read();
        FeedbackService.list(&catalog.database)
    }

    /// Drops everything derived from the catalog: both caches.  The two
    /// writers that change what a query can see ([`ingest`](Self::ingest),
    /// [`apply_replicated`](Self::apply_replicated)) call this while still
    /// holding the catalog write lock.
    fn invalidate(&self) {
        self.cache.clear();
        self.filter_cache.clear();
    }

    /// Cache-or-compute: every cached query flows through here.
    ///
    /// The catalog read lock is held across both the computation *and* the
    /// cache inserts (the result here, a resolved filter inside `compute`,
    /// see [`resolved`](Self::resolved)).  Writers
    /// [`invalidate`](Self::invalidate) while holding the catalog *write*
    /// lock, so any entry inserted under the read lock is either computed
    /// over the post-write catalog or cleared by the very write it
    /// predates — stale entries cannot survive.
    fn cached<R, F>(&self, key: CacheKey, compute: F) -> Result<R, EarthQubeError>
    where
        R: Clone + Send + Sync + 'static,
        F: FnOnce(&Catalog) -> Result<R, EarthQubeError>,
    {
        let caching = self.serve.cache_capacity > 0;
        let fp = fingerprint(&key);
        if caching {
            // `CacheKey` kinds map one-to-one onto response shapes, so an
            // equal key holds the shape asked for.
            let cached = self.cache.lookup(fp, |k| *k == key);
            if let Some(hit) = cached.as_deref().and_then(|any| any.downcast_ref::<R>()) {
                let mut counters = self.counters.lock();
                counters.served += 1;
                counters.hits += 1;
                return Ok(hit.clone());
            }
        }
        let catalog = self.catalog.read();
        let result = compute(&catalog);
        match &result {
            // A miss is only counted once something was actually computed,
            // so error traffic (e.g. unknown image names) does not drag the
            // reported hit rate down; errors bump `served` alone.  Each
            // outcome updates all its counters under one lock acquisition,
            // which is what keeps `stats()` snapshots consistent.
            Ok(response) if caching => {
                self.cache.put(fp, key, Arc::new(response.clone()), 1);
                let mut counters = self.counters.lock();
                counters.served += 1;
                counters.misses += 1;
            }
            _ => self.counters.lock().served += 1,
        }
        drop(catalog);
        result
    }

    // -- durable storage tier ---------------------------------------------

    fn static_chunk(&self) -> Vec<u8> {
        persist::encode_static_chunk(&self.config, self.serve, &self.model)
    }

    /// Checkpoints the serving state into `dir` and (re)attaches the server
    /// to it: every subsequent [`ingest`](Self::ingest) and
    /// [`submit_feedback`](Self::submit_feedback) is appended to the
    /// write-ahead log there, so [`recover`](Self::recover) restores
    /// exactly the pre-crash state.
    ///
    /// One protocol, two lineage decisions.  A checkpoint into a directory
    /// the server is not attached to is **full**: a new lineage, with every
    /// chunk written under a fresh manifest and WAL generation, and the
    /// catalog write lock held until it is committed.  Later checkpoints
    /// into the same directory are **incremental**: only collections and
    /// the image tail dirtied since the previous one are written, the
    /// manifest is atomically republished and the WAL segments it no longer
    /// needs are retired; the write lock is held only for the brief state
    /// *cut* (draining dirty logs, copying the new images and rewritten
    /// collections, sealing the live WAL segment), so queries and ingest
    /// keep flowing during chunk encoding and file I/O.  No checkpoint
    /// writes the Hamming index: it is derived from the image table's
    /// codes, and [`recover`](Self::recover) rebuilds it.  With nothing
    /// dirty the checkpoint is [`CheckpointKind::Skipped`] and writes no
    /// bytes.
    ///
    /// # Errors
    /// Fails with [`EarthQubeError::Persist`] on I/O errors.  A failure
    /// before the manifest rename (the commit point) restores the drained
    /// dirty state and leaves the server attached where it was, so the
    /// next checkpoint retries the same work over the old base.
    pub fn checkpoint(&self, dir: &Path) -> Result<CheckpointStats, EarthQubeError> {
        // A replica never checkpoints: the cut rotates the live segment,
        // which would desynchronise its mirrored WAL position from the
        // primary's.  Promotion runs the one checkpoint a replica takes.
        if !self.is_primary() {
            return Err(EarthQubeError::NotPrimary(
                "a read replica never checkpoints; promote it first".into(),
            ));
        }
        self.durability.checkpoint(&self.catalog, dir, false, || self.static_chunk())
    }

    /// Restores a server from a persistence directory: reads the manifest,
    /// loads its chunks (base collections, stacked deltas, image ranges),
    /// rebuilds the code arena by inserting every image's code in dense-id
    /// order, replays every intact
    /// record of the manifest's WAL segment chain through the same apply
    /// path live ingest uses, truncates a torn tail in the final segment,
    /// and re-attaches.  `shard:` entries of older directories are skipped
    /// unread.
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
        let state = persist::read_snapshot(dir, &manifest)?;
        let persisted_images = state.images.len();

        // The index is derived data: rebuilt from the image table through
        // the one insert path, in dense-id order — exactly as the writer
        // built its own.
        let (metadata, codes): (Vec<PatchMetadata>, Vec<BinaryCode>) =
            state.images.into_iter().unzip();
        let images = metadata.iter().zip(codes);
        let cbir = CbirService::from_codes(state.model, state.config.cbir, images);
        let page_size = state.config.page_size;
        let catalog = Catalog { database: state.database, metadata, cbir, page_size };
        let registry = build_registry(&state.config);
        let server = Self::new(state.config, state.serve, catalog, registry);

        let chain = persist::read_segment_chain(dir, manifest.generation, manifest.first_segment)?;
        {
            let mut catalog = server.catalog.write();
            for record in chain.records {
                if catalog.apply_record(record)? {
                    server.ingested_images.fetch_add(1, Ordering::Relaxed);
                }
            }
            // Replay re-marked the touched collections dirty and grew the
            // image table past `persisted_images` — deliberately so: the
            // replayed records still live only in WAL segments, and the
            // next incremental checkpoint folds them into chunks (after
            // which their segments retire).
        }
        server.durability.attach(dir, lock, manifest, chain.tail, persisted_images)?;
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

    /// Checkpoints into the attached directory if (and only if) anything
    /// is dirty; returns `None` when the server is detached or clean.
    /// This is the body of one background-checkpointer pass, callable
    /// directly for a final synchronous flush (e.g. on server shutdown).
    ///
    /// # Errors
    /// Propagates [`checkpoint`](Self::checkpoint) errors.
    pub fn checkpoint_if_dirty(&self) -> Result<Option<CheckpointStats>, EarthQubeError> {
        // Replicas are always "dirty" (their state runs ahead of the
        // seeded snapshot by design) but must never checkpoint — their
        // durability is the mirrored WAL itself.
        if !self.is_primary() {
            return Ok(None);
        }
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
    /// ingest and feedback with [`EarthQubeError::NotPrimary`], checkpoints
    /// are refused, and [`apply_replicated`](Self::apply_replicated)
    /// becomes the only write path.
    pub fn set_replica_mode(&self) {
        self.primary.store(false, Ordering::Release);
    }

    /// Applies one pulled batch on a replica: every record runs through
    /// the same apply path as recovery, then its raw payload is appended
    /// to the replica's own WAL — re-framed deterministically, so the
    /// mirrored log is byte-identical to the primary's and the replica's
    /// durable position *is* its replication position (crash-resume needs
    /// no extra bookkeeping).  With `rotate`, the live segment is sealed
    /// and the next one opened after the batch, mirroring the primary's
    /// rotation point exactly.
    ///
    /// # Errors
    /// [`EarthQubeError::BadRequest`] on a primary (replicas only),
    /// [`EarthQubeError::Persist`] on an undecodable or diverging record
    /// (the caller should re-seed) or on WAL I/O failure (the attachment
    /// detaches, same contract as [`ingest`](Self::ingest)).
    pub fn apply_replicated(
        &self,
        entries: &[Vec<u8>],
        rotate: bool,
    ) -> Result<u64, EarthQubeError> {
        if self.is_primary() {
            return Err(EarthQubeError::BadRequest(
                "apply_replicated is only legal in replica mode".into(),
            ));
        }
        // Decode before taking any lock: a corrupt batch is rejected
        // whole, so the applied state and the mirrored WAL never diverge.
        let mut records = Vec::with_capacity(entries.len());
        for payload in entries {
            records.push(persist::decode_record(payload).map_err(|e| {
                EarthQubeError::Persist(format!("invalid replicated WAL record: {e}"))
            })?);
        }
        let mut catalog = self.catalog.write();
        let mut log = self.durability.begin();
        let mut applied = 0u64;
        let mut ingested = false;
        let mut result = Ok(());
        for (payload, record) in entries.iter().zip(records) {
            let logged = catalog.apply_record(record).and_then(|was_ingest| {
                if was_ingest {
                    self.ingested_images.fetch_add(1, Ordering::Relaxed);
                    ingested = true;
                }
                if !log.attached() {
                    return Err(EarthQubeError::Persist(
                        "the replica lost its persistence attachment".into(),
                    ));
                }
                log.append(payload)
            });
            if let Err(e) = logged {
                result = Err(e);
                break;
            }
            applied += 1;
        }
        // Replicated records must be crash-durable before the pull is
        // acknowledged, same contract as ingest.  A partial batch stays on
        // the live segment, so the durable position matches exactly what
        // was applied.
        let result = log.commit(Seal::Mirror(rotate), result);
        if ingested {
            self.invalidate();
        }
        result.map(|()| applied)
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
        self.durability.checkpoint(&self.catalog, &dir, true, || self.static_chunk())?;
        self.primary.store(true, Ordering::Release);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_bigearthnet::{ArchiveGenerator, GeneratorConfig};
    use std::time::Duration;

    fn server(n: usize, seed: u64, serve: ServeConfig) -> (QueryServer, Archive) {
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(n, seed)).unwrap().generate();
        let mut config = EarthQubeConfig::fast(seed);
        config.train_model = false;
        (QueryServer::build(&archive, config, serve).unwrap(), archive)
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

    #[test]
    fn workload_runs_across_worker_counts() {
        let (srv, archive) = server(30, 97, ServeConfig::uncached(4));
        let mut requests: Vec<QueryRequest> = archive
            .patches()
            .iter()
            .take(9)
            .map(|p| QueryRequest::SimilarTo { name: p.meta.name.clone(), k: 5 })
            .collect();
        requests.push(QueryRequest::Metadata(ImageQuery::all()));
        let sequential: Vec<_> = requests.iter().map(|r| srv.execute(r).unwrap()).collect();
        for workers in [1, 2, 4, 32] {
            let results = srv.run_workload(&requests, workers);
            assert_eq!(results.len(), requests.len());
            for (got, want) in results.into_iter().zip(&sequential) {
                assert_eq!(&got.unwrap(), want, "workload results must not depend on workers");
            }
        }
        assert!(srv.run_workload(&[], 4).is_empty());
    }

    #[test]
    fn workload_surfaces_per_request_errors() {
        let (srv, _) = server(10, 98, ServeConfig::default());
        let requests = vec![
            QueryRequest::SimilarTo { name: "ghost".into(), k: 3 },
            QueryRequest::Metadata(ImageQuery::all()),
        ];
        let results = srv.run_workload(&requests, 2);
        assert!(matches!(results[0], Err(EarthQubeError::UnknownImage(_))));
        assert_eq!(results[1].as_ref().unwrap().total(), 10);
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
        assert!(text.contains("shard occupancy"));
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
        let expected_occupancy = srv.stats().shard_occupancy;
        let expected_all = srv.search(&ImageQuery::all()).unwrap();
        let expected_similar = srv.similar_to(name, 6).unwrap();
        let expected_new_example = srv.search_by_new_example(&external, 5).unwrap();
        drop(srv);

        let back = QueryServer::recover(dir.path()).unwrap();
        assert_eq!(back.archive_size(), expected_size);
        assert_eq!(back.stats().ingested_images, 4, "WAL replay counts as live ingest");
        assert_eq!(back.list_feedback().unwrap(), expected_feedback);
        assert_eq!(back.stats().shard_occupancy, expected_occupancy);

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
    /// writes deltas (a fraction of the full snapshot), retires the
    /// covered segment, and a third checkpoint with nothing dirty skips.
    /// No checkpoint writes index data, and the index recovery rebuilds
    /// answers like the writer's, whatever shard count is persisted: the
    /// count no longer shapes the index.
    #[test]
    fn incremental_checkpoints_write_deltas_and_skip_when_clean() {
        for shards in [ServeConfig::default().shards, 1, 3] {
            let dir = ScratchDir::new(&format!("incremental_{shards}"));
            let (srv, archive) = server(30, 208, ServeConfig { shards, cache_capacity: 0 });
            let full = srv.checkpoint(dir.path()).unwrap();
            assert_eq!(full.kind, CheckpointKind::Full);
            assert!(full.bytes_written > 0);
            assert_only_image_table_kinds(dir.path());

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
            assert_only_image_table_kinds(dir.path());

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

    /// Asserts the published manifest lists only what the image table and
    /// the docstore need: no index data.
    fn assert_only_image_table_kinds(dir: &Path) {
        let manifest = persist::read_manifest(dir).unwrap().unwrap();
        for chunk in &manifest.chunks {
            assert!(
                ["static", "coll:", "delta:", "images:"].iter().any(|k| chunk.kind.starts_with(k)),
                "unexpected chunk kind {}",
                chunk.kind
            );
        }
    }

    /// Answers that read the Hamming index (k-NN, filtered radius) next to
    /// the query panel's and the reported occupancy.
    fn index_answers(
        srv: &QueryServer,
        names: &[&String],
    ) -> (SearchResponse, Vec<SearchResponse>, Vec<FilteredResponse>, Vec<usize>) {
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
        (srv.search(&ImageQuery::all()).unwrap(), similar, within, srv.stats().shard_occupancy)
    }

    /// Image ranges compact like collection deltas: once
    /// `DELTA_COMPACT_THRESHOLD` ranges are stacked, the next checkpoint
    /// writes the table from 0 in one chunk, and the old ranges' files are
    /// swept.
    #[test]
    fn stacked_image_ranges_are_compacted() {
        use crate::durability::DELTA_COMPACT_THRESHOLD;
        let dir = ScratchDir::new("image_ranges");
        let (srv, archive) = server(6, 213, ServeConfig::uncached(3));
        srv.checkpoint(dir.path()).unwrap();
        let ranges = |dir: &Path| {
            let manifest = persist::read_manifest(dir).unwrap().unwrap();
            manifest.chunks.iter().filter(|c| persist::is_images_kind(&c.kind)).count()
        };
        let mut counts = Vec::new();
        for seed in 940..950u64 {
            let extra = ArchiveGenerator::new(GeneratorConfig::tiny(1, seed)).unwrap().generate();
            srv.ingest(extra.patches()).unwrap();
            assert_eq!(srv.checkpoint(dir.path()).unwrap().kind, CheckpointKind::Incremental);
            counts.push(ranges(dir.path()));
        }
        assert_eq!(counts.iter().max(), Some(&DELTA_COMPACT_THRESHOLD), "{counts:?}");
        assert!(counts.contains(&1), "the ranges were never compacted: {counts:?}");
        let manifest = persist::read_manifest(dir.path()).unwrap().unwrap();
        let chunk_files = std::fs::read_dir(dir.path())
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".eqc"))
            .count();
        assert_eq!(chunk_files, manifest.chunks.len(), "superseded ranges must be swept");

        let names = [&archive.patches()[1].meta.name];
        let expected = index_answers(&srv, &names);
        drop(srv);
        let back = QueryServer::recover(dir.path()).unwrap();
        assert_eq!(back.archive_size(), 16);
        assert_eq!(index_answers(&back, &names), expected);
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
        assert_only_image_table_kinds(dir.path());
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
        let (image_doc, rendered_doc) = prepare_patch_docs(&patch, &meta.name);
        let narrow = BinaryCode::zeros(32);
        let record = persist::encode_ingest_record(&meta, &narrow, &image_doc, &rendered_doc);
        let err = srv.apply_replicated(&[record], false).unwrap_err();
        assert!(matches!(err, EarthQubeError::Persist(_)), "{err:?}");
        assert_eq!(srv.archive_size(), 10);
        assert_eq!(srv.search(&ImageQuery::all()).unwrap(), before);
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

    /// Regression test for the stats-snapshot race: counters are updated
    /// once per query outcome under a single lock, so at *every* instant a
    /// snapshot must satisfy `queries_served == cache_hits + cache_misses`
    /// (the workload below has no failing queries).  The pre-fix code
    /// bumped `queries_served` at query entry and the hit/miss counter at
    /// the outcome, so a concurrent snapshot could observe in-flight
    /// queries as served-but-unclassified and report a skewed hit rate.
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
        let a = CacheKey::Similar("p".into(), 5);
        let b = CacheKey::Similar("p".into(), 6);
        let c = CacheKey::Metadata(ImageQuery::all());
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));

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
        let metadata = |query: ImageQuery| fingerprint(&CacheKey::Metadata(query));
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
        let filtered = |mode| CacheKey::SimilarFiltered {
            name: "p".into(),
            k: 5,
            query: circle(radius),
            mode,
        };
        let within = CacheKey::WithinFiltered {
            name: "p".into(),
            radius: 5,
            query: circle(radius),
            mode: PrefilterMode::Auto,
        };
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
        // Probing with borrowed parts finds what was filed under owned ones.
        assert_eq!(
            fingerprint(&(&query, PrefilterMode::Auto)),
            fingerprint::<FilterKey>(&(query.clone(), PrefilterMode::Auto))
        );
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

        // The query panel resolves in its own mode: here the same entry as
        // `ForceBitmap`.
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

    /// A patch whose second insert fails is rolled back, but its metadata
    /// document id stays burnt: document ids skip where dense patch ids do
    /// not.  The query panel walks dense ids, `find` walks document ids;
    /// both must list the archive in insertion order, with the same plan.
    #[test]
    fn search_lists_insertion_order_across_a_rolled_back_insert() {
        use crate::schema::{collections, fields};
        let (srv, archive) = server(12, 104, ServeConfig::default());
        let extra = ArchiveGenerator::new(GeneratorConfig::tiny(4, 780)).unwrap().generate();
        let squatted = extra.patches()[1].meta.name.clone();
        {
            let mut catalog = srv.catalog.write();
            let images = catalog.database.collection_mut(collections::IMAGE_DATA).unwrap();
            images.insert(Document::new().with(fields::NAME, squatted.as_str())).unwrap();
        }
        // Patch 0 lands, patch 1 rolls back and stops the batch.
        assert!(matches!(srv.ingest(extra.patches()), Err(EarthQubeError::Store(_))));
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
                let coll = catalog.database.collection(collections::METADATA).unwrap();
                let found = coll.find(&query.to_filter());
                let last = *found.ids.last().unwrap();
                assert!(last as usize >= coll.len(), "no document id was skipped");
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

    /// The serving index is one arena in dense-id order: as many rows as
    /// the metadata table, row `r` holding dense id `r` and the code the
    /// name→code table has for `metadata[r]`.
    fn assert_dense_arena(srv: &QueryServer) {
        let catalog = srv.catalog.read();
        let arena = &catalog.cbir.arena;
        assert_eq!(arena.len(), catalog.metadata.len());
        for (row, meta) in catalog.metadata.iter().enumerate() {
            assert_eq!(arena.id(row), row as u64);
            let code = catalog.cbir.code_of(&meta.name).unwrap();
            assert_eq!(arena.code_words(row), code.words(), "row {row}, {}", meta.name);
        }
    }

    /// Every write path keeps the arena dense: build, live ingest, an
    /// ingest rolled back mid-batch, WAL recovery and a replicated apply.
    #[test]
    fn every_write_path_keeps_the_arena_in_dense_id_order() {
        use crate::schema::{collections, fields};
        let dir = ScratchDir::new("dense_arena");
        let (srv, _) = server(12, 216, ServeConfig::default());
        assert_dense_arena(&srv);
        srv.checkpoint(dir.path()).unwrap();
        let extra = ArchiveGenerator::new(GeneratorConfig::tiny(4, 953)).unwrap().generate();
        srv.ingest(&extra.patches()[..1]).unwrap();
        assert_dense_arena(&srv);

        // Patch 1 lands, patch 2 rolls back on its squatted name.
        let squatted = extra.patches()[2].meta.name.as_str();
        {
            let mut catalog = srv.catalog.write();
            let images = catalog.database.collection_mut(collections::IMAGE_DATA).unwrap();
            images.insert(Document::new().with(fields::NAME, squatted)).unwrap();
        }
        assert!(matches!(srv.ingest(&extra.patches()[1..]), Err(EarthQubeError::Store(_))));
        assert_eq!(srv.archive_size(), 14);
        assert_dense_arena(&srv);
        drop(srv);

        let back = QueryServer::recover(dir.path()).unwrap();
        assert_eq!(back.archive_size(), 14);
        assert_dense_arena(&back);

        back.set_replica_mode();
        let patch = &extra.patches()[3];
        let mut meta = patch.meta.clone();
        meta.id = PatchId(14);
        let (image_doc, rendered_doc) = prepare_patch_docs(patch, &meta.name);
        let code = back.model.hash_patch(patch);
        let record = persist::encode_ingest_record(&meta, &code, &image_doc, &rendered_doc);
        assert_eq!(back.apply_replicated(&[record], false).unwrap(), 1);
        assert_eq!(back.archive_size(), 15);
        assert_dense_arena(&back);
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
