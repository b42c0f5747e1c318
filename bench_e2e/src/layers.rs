//! The traced run: a request stream replayed at three depths (remote call,
//! in-process call, direct calls into each layer on fixtures built from the
//! same corpus), and the probes of the layers no request stream reaches.
//!
//! The fixtures replay the layers; they do not observe them inside the
//! server.  A layer span therefore times the same public call on the same
//! input, without the server's locks, pools and caches around it.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use eq_docstore::{Database, Document, Value};
use eq_earthqube::net::{mode_to_spec, payload_to_filtered, payload_to_response, query_to_spec};
use eq_earthqube::schema::{collections, fields};
use eq_earthqube::{
    ingest_metadata, metadata_from_document, EarthQubeConfig, EarthQubeError, EqClient,
    LabelStatistics, NetServer, PrefilterMode, QueryServer, Replica, ResultEntry, ResultPanel,
    RetryPolicy, ServeConfig,
};
use eq_hashindex::{sort_neighbors, Bitmap, IdMask, Neighbor, SearchScratch, ShardedHashIndex};
use eq_proto::{Request, RequestBody, Response, ResponseBody, MAX_FRAME_LEN};
use eq_wire::frame::{write_frame, FrameDecoder};

use crate::load::{open_loop_writer, INGEST_RATE_HZ};
use crate::metrics::{median_u64, percentile_unchecked, Metrics};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{Op, Plan, K, RADIUS};
use crate::world::{Answer, World};

/// Times a replay sends each of its requests to the server: two untraced
/// remote passes, the traced one and the in-process one.
pub const PASSES: u64 = 4;

/// `request_id` of spans that belong to no replayed request.
pub const PROBE: u64 = u64::MAX;

/// The layers below the server, built from the corpus the server holds.
pub struct Fixtures {
    /// Metadata collection only, through `ingest_metadata`.
    db: Database,
    index: ShardedHashIndex,
    page_size: usize,
}

impl Fixtures {
    /// Builds the fixtures, timing the two bulk loads as the insert probes.
    pub fn build(tracer: &mut Tracer, world: &World, shards: usize, page_size: usize) -> Self {
        let mut db = Database::new();
        tracer.span("eq_docstore.insert_all", PROBE, None, || {
            ingest_metadata(&mut db, &world.metas).expect("corpus names are unique")
        });
        let index = ShardedHashIndex::new(world.codes[0].bits(), shards);
        tracer.span("eq_hashindex.insert_all", PROBE, None, || {
            for (id, code) in world.codes.iter().enumerate() {
                index.insert(id as u64, code.clone());
            }
        });
        Self { db, index, page_size }
    }
}

/// What replaying a stream recorded besides its spans.
pub struct Replay {
    /// First span of this replay.
    pub first_span: SpanId,
    remote: Vec<SpanId>,
    execute: Vec<SpanId>,
    /// In-process answers, in stream order.
    answers: Vec<Answer>,
    /// Whether the in-process call was answered from the result cache.
    hit: Vec<bool>,
    response_bytes: Vec<u64>,
    bytes_in_per_request: f64,
    bytes_out_per_request: f64,
    cache_entries: usize,
    /// Remote latencies of the untraced pass.
    untraced_ns: Vec<u64>,
}

/// Everything a replay runs against.
pub struct Rig<'a> {
    pub world: &'a World,
    pub fixtures: &'a Fixtures,
    pub server: &'a QueryServer,
    pub net: &'a NetServer,
    pub plan: &'a Plan,
}

impl Rig<'_> {
    /// Pushes every entry out of the result cache with distinct cheap
    /// requests, so each pass of a replay starts from the same cache state.
    fn evict(&self) {
        let cache = self.server.serve_config().cache_capacity;
        for &name in self.plan.filler_names(4 * cache) {
            let _ = self.server.similar_to(&self.world.metas[name as usize].name, 1);
        }
    }

    /// One timed in-process call, and whether the result cache answered it.
    fn local(&self, op: Op) -> (Result<Answer, EarthQubeError>, Instant, Instant, bool) {
        let hits_before = self.server.stats().cache_hits;
        let start = Instant::now();
        let answer = self.world.local(self.server, op);
        let end = Instant::now();
        (answer, start, end, self.server.stats().cache_hits > hits_before)
    }

    /// Replays `ops` remotely, in process and layer by layer.  With
    /// `repeat_for_hits`, a second in-process pass times the cache-hit path.
    pub fn replay(
        &self,
        tracer: &mut Tracer,
        client: &mut EqClient,
        ops: &[Op],
        repeat_for_hits: bool,
    ) -> Result<Replay, String> {
        let world = self.world;
        let first_span = tracer.spans().len();
        let n = ops.len() as f64;

        // The base of `trace.overhead_ratio`: an untraced remote pass before
        // and one after the traced pass, so that a drift over time cancels.
        let mut untraced_ns = Vec::with_capacity(2 * ops.len());
        let mut untraced_pass = |client: &mut EqClient| -> Result<(), String> {
            self.evict();
            for &op in ops {
                let sent = Instant::now();
                let answer = world.remote(client, op);
                // Timed before the answer is dropped, as a span is.
                untraced_ns.push(sent.elapsed().as_nanos() as u64);
                answer.map_err(|e| format!("untraced {op:?}: {e}"))?;
            }
            Ok(())
        };
        untraced_pass(client)?;
        self.evict();
        let before = self.net.net_stats();
        let mut remote = Vec::with_capacity(ops.len());
        for (i, &op) in ops.iter().enumerate() {
            let (answer, span) = tracer.span("remote", i as u64, None, || world.remote(client, op));
            answer.map_err(|e| format!("remote {op:?}: {e}"))?;
            remote.push(span);
        }
        let after = self.net.net_stats();
        untraced_pass(client)?;

        self.evict();
        let (mut execute, mut answers, mut hit) = (Vec::new(), Vec::new(), Vec::new());
        for (i, &op) in ops.iter().enumerate() {
            let (answer, start, end, was_hit) = self.local(op);
            execute.push(tracer.record("serve.execute", i as u64, Some(remote[i]), start, end));
            answers.push(answer.map_err(|e| format!("in-process {op:?}: {e}"))?);
            hit.push(was_hit);
        }
        let cache_entries = self.server.stats().cache_entries;
        if repeat_for_hits {
            for (i, &op) in ops.iter().enumerate() {
                let (_, start, end, was_hit) = self.local(op);
                if was_hit {
                    tracer.record("serve.cache_hit", i as u64, None, start, end);
                }
            }
        }

        let mut scratch = SearchScratch::new();
        let mut response_bytes = Vec::with_capacity(ops.len());
        for (i, &op) in ops.iter().enumerate() {
            let id = i as u64;
            if !hit[i] {
                server_layers(tracer, id, execute[i], world, self.fixtures, op, &mut scratch);
            }
            response_bytes.push(codec_layers(tracer, id, remote[i], world, op, &answers[i])?);
        }

        Ok(Replay {
            first_span,
            remote,
            execute,
            answers,
            hit,
            response_bytes,
            bytes_in_per_request: (after.bytes_in - before.bytes_in) as f64 / n,
            bytes_out_per_request: (after.bytes_out - before.bytes_out) as f64 / n,
            cache_entries,
            untraced_ns,
        })
    }
}

/// The server-side work of one uncached request, as direct layer calls.
fn server_layers(
    t: &mut Tracer,
    id: u64,
    parent: SpanId,
    world: &World,
    fx: &Fixtures,
    op: Op,
    scratch: &mut SearchScratch,
) {
    let parent = Some(parent);
    let coll = fx.db.collection(collections::METADATA).expect("the fixture has the collection");
    let assemble = |t: &mut Tracer, ranked: &[Neighbor]| {
        t.span("engine.assemble", id, parent, || {
            let metas = ranked.iter().map(|n| &world.metas[n.id as usize]);
            let entries: Vec<ResultEntry> = metas
                .clone()
                .zip(ranked)
                .map(|(m, n)| ResultEntry::from_metadata(m, Some(n.distance)))
                .collect();
            let statistics = LabelStatistics::from_label_sets(metas.map(|m| m.labels));
            (ResultPanel::new(entries, fx.page_size), statistics)
        });
    };
    let without = |hits: &[Neighbor], own: u32, keep: usize| -> Vec<Neighbor> {
        hits.iter().copied().filter(|n| n.id != own as u64).take(keep).collect()
    };
    // Mirrors `filtered::matching_item_mask` in `Auto` mode.
    let resolve_mask = |t: &mut Tracer, query: u32| -> IdMask {
        let filter = world.pool[query as usize].query.to_filter();
        let (plan, _) =
            t.span("eq_docstore.compile_prefilter", id, parent, || coll.compile_prefilter(&filter));
        t.span("eq_docstore.mask_resolve", id, parent, || {
            let mut items = Bitmap::new();
            let mut push = |doc: &Document| {
                if let Some(item) = doc.get(fields::PATCH_ID).and_then(Value::as_int) {
                    items.insert(item as u64);
                }
            };
            match &plan.bitmap {
                Some(bitmap) if bitmap.len().saturating_mul(2) <= coll.len() as u64 => {
                    for doc in bitmap.iter().filter_map(|doc_id| coll.get(doc_id)) {
                        if plan.residual.matches(doc) {
                            push(doc);
                        }
                    }
                }
                _ => coll.iter().filter(|(_, doc)| filter.matches(doc)).for_each(|(_, d)| push(d)),
            }
            IdMask::from_bitmap(&items)
        })
        .0
    };

    match op {
        Op::Similar { name } => {
            let code = &world.codes[name as usize];
            let (ranked, _) = t.span("eq_hashindex.knn", id, parent, || {
                without(fx.index.knn_with(code, K + 1, scratch), name, K)
            });
            assemble(t, &ranked);
        }
        Op::NewExample { held } => {
            let patch = &world.held[held as usize];
            let (code, _) = t.span("eq_milan.encode", id, parent, || world.model.hash_patch(patch));
            let (ranked, _) = t.span("eq_hashindex.knn", id, parent, || {
                fx.index.knn_with(&code, K, scratch).to_vec()
            });
            assemble(t, &ranked);
        }
        Op::Panel { query } => {
            let filter = world.pool[query as usize].query.to_filter();
            let start = Instant::now();
            let found = coll.find(&filter);
            // A full scan and an index lookup are two different costs.
            let name = match found.plan.index_used {
                Some(_) => "eq_docstore.find_indexed",
                None => "eq_docstore.find_scan",
            };
            t.record(name, id, parent, start, Instant::now());
            // Mirrors `engine::metadata_search`.
            t.span("engine.assemble", id, parent, || {
                let metas: Vec<_> = found
                    .ids
                    .iter()
                    .filter_map(|doc_id| coll.get(*doc_id))
                    .filter_map(metadata_from_document)
                    .collect();
                let entries: Vec<ResultEntry> =
                    metas.iter().map(|m| ResultEntry::from_metadata(m, None)).collect();
                let statistics = LabelStatistics::from_label_sets(metas.iter().map(|m| m.labels));
                (ResultPanel::new(entries, fx.page_size), statistics)
            });
        }
        Op::SimilarFiltered { name, query } => {
            let mask = resolve_mask(t, query);
            let code = &world.codes[name as usize];
            let (ranked, _) = t.span("eq_hashindex.knn_masked", id, parent, || {
                without(fx.index.knn_masked_with(code, K + 1, &mask, scratch), name, K)
            });
            assemble(t, &ranked);
        }
        Op::WithinFiltered { name, query } => {
            let mask = resolve_mask(t, query);
            let code = &world.codes[name as usize];
            let (ranked, _) = t.span("eq_hashindex.radius_masked", id, parent, || {
                let mut hits = Vec::new();
                fx.index.radius_search_masked_into(code, RADIUS, &mask, &mut hits);
                sort_neighbors(&mut hits);
                without(&hits, name, usize::MAX)
            });
            assemble(t, &ranked);
        }
    }
}

fn request_body(world: &World, op: Op) -> RequestBody {
    let name = |id: u32| world.metas[id as usize].name.clone();
    let spec = |query: u32| query_to_spec(&world.pool[query as usize].query);
    let mode = mode_to_spec(PrefilterMode::Auto);
    match op {
        Op::Similar { name: id } => RequestBody::SimilarTo { name: name(id), k: K as u64 },
        Op::NewExample { held } => RequestBody::SearchByNewExample {
            patch: Box::new(world.held[held as usize].clone()),
            k: K as u64,
        },
        Op::Panel { query } => RequestBody::Search(spec(query)),
        Op::SimilarFiltered { name: id, query } => {
            RequestBody::SimilarToFiltered { name: name(id), k: K as u64, spec: spec(query), mode }
        }
        Op::WithinFiltered { name: id, query } => RequestBody::SimilarWithinFiltered {
            name: name(id),
            radius: RADIUS,
            spec: spec(query),
            mode,
        },
    }
}

/// The codec work of one request on both sides of the wire; returns the
/// response payload's size.
fn codec_layers(
    t: &mut Tracer,
    id: u64,
    parent: SpanId,
    world: &World,
    op: Op,
    answer: &Answer,
) -> Result<u64, String> {
    let parent = Some(parent);
    let deframe = |magic: [u8; 4], frame: &[u8]| -> Result<Vec<u8>, String> {
        let mut decoder = FrameDecoder::new(magic, MAX_FRAME_LEN);
        decoder.extend(frame);
        decoder.next_frame().map_err(|e| e.to_string())?.ok_or("a short frame".to_string())
    };

    let (frame, _) = t.span("eq_proto.encode_request", id, parent, || {
        let payload = match op {
            // The client encodes an upload from the borrowed patch.
            Op::NewExample { held } => {
                eq_proto::encode_new_example_request(id, &world.held[held as usize], K as u64)
            }
            _ => Request { id, body: request_body(world, op) }.encode(),
        };
        let mut frame = Vec::with_capacity(payload.len() + 12);
        write_frame(&mut frame, &eq_proto::REQUEST_MAGIC, &payload).map(|()| frame)
    });
    let frame = frame.map_err(|e| e.to_string())?;
    let (request, _) = t.span("eq_proto.decode_request", id, parent, || {
        deframe(eq_proto::REQUEST_MAGIC, &frame)
            .and_then(|payload| Request::decode(&payload).map_err(|e| e.to_string()))
    });
    request?;

    let (payload, _) = t.span("eq_proto.encode_response", id, parent, || {
        Response { id, body: answer.body() }.encode()
    });
    let (frame, _) = t.span("eq_wire.frame_encode", id, parent, || {
        let mut frame = Vec::with_capacity(payload.len() + 12);
        write_frame(&mut frame, &eq_proto::RESPONSE_MAGIC, &payload).map(|()| frame)
    });
    let frame = frame.map_err(|e| e.to_string())?;
    let (deframed, _) =
        t.span("eq_wire.frame_decode", id, parent, || deframe(eq_proto::RESPONSE_MAGIC, &frame));
    let deframed = deframed?;
    let (decoded, _) = t.span("eq_proto.decode_response", id, parent, || {
        Response::decode(&deframed).map_err(|e| e.to_string()).map(|r| match r.body {
            ResponseBody::Search(p) => Some(Answer::Plain(payload_to_response(p))),
            ResponseBody::Filtered(p) => Some(Answer::Filtered(payload_to_filtered(p))),
            _ => None,
        })
    });
    if decoded?.as_ref() != Some(answer) {
        return Err(format!("{op:?}: the answer does not survive the codec"));
    }
    Ok(payload.len() as u64)
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

impl Replay {
    /// The numbers that describe this workload's requests: the remote and
    /// in-process calls, their residuals, the cache and the bytes moved.
    pub fn workload_metrics(&self, t: &Tracer, m: &mut Metrics) {
        let self_ns = t.self_ns();
        let durations = |ids: &[SpanId]| -> Vec<u64> {
            let mut d: Vec<u64> = ids.iter().map(|&i| t.spans()[i].duration_ns()).collect();
            d.sort_unstable();
            d
        };
        let selfs = |ids: &[SpanId]| -> Vec<u64> { ids.iter().map(|&i| self_ns[i]).collect() };
        let execute = durations(&self.execute);
        let remote = durations(&self.remote);
        let p = |sorted: &[u64], p: f64| us(percentile_unchecked(sorted, p).unwrap_or(0) as f64);

        m.push("net.remote_p50_us", p(&remote, 0.50), "us");
        m.push("net.round_trip_self_us", us(median_u64(&selfs(&self.remote))), "us");
        m.push("net.bytes_in_per_request", self.bytes_in_per_request, "B");
        m.push("net.bytes_out_per_request", self.bytes_out_per_request, "B");
        m.push("serve.execute_p50_us", p(&execute, 0.50), "us");
        m.push("serve.execute_p99_us", p(&execute, 0.99), "us");
        m.push("serve.self_us", us(median_u64(&selfs(&self.execute))), "us");
        let hits = self.hit.iter().filter(|&&h| h).count();
        m.push("serve.cache_hit_rate", hits as f64 / self.hit.len() as f64, "ratio");
        m.push("serve.cache_entries", self.cache_entries as f64, "count");
        m.push("eq_proto.response_bytes", median_u64(&self.response_bytes), "B");

        let total: u64 = remote.iter().sum();
        let residual: u64 = selfs(&self.remote).iter().chain(&selfs(&self.execute)).sum();
        m.push("trace.coverage", 1.0 - residual as f64 / total.max(1) as f64, "ratio");
        let mut untraced = self.untraced_ns.clone();
        untraced.sort_unstable();
        m.push("trace.overhead_ratio", p(&remote, 0.50) / p(&untraced, 0.50), "ratio");
    }

    /// The numbers that describe each layer, from the probe mix: the same
    /// blend of requests in every workload.
    pub fn layer_metrics(&self, t: &Tracer, corpus: usize, m: &mut Metrics) {
        let median = |name: &str| us(median_u64(&t.durations_ns(name, self.first_span)));
        for (metric, span) in [
            ("eq_wire.frame_encode_us", "eq_wire.frame_encode"),
            ("eq_wire.frame_decode_us", "eq_wire.frame_decode"),
            ("eq_proto.encode_request_us", "eq_proto.encode_request"),
            ("eq_proto.decode_request_us", "eq_proto.decode_request"),
            ("eq_proto.encode_response_us", "eq_proto.encode_response"),
            ("eq_proto.decode_response_us", "eq_proto.decode_response"),
            ("serve.cache_hit_us", "serve.cache_hit"),
            ("engine.assemble_us", "engine.assemble"),
            ("eq_docstore.find_indexed_us", "eq_docstore.find_indexed"),
            ("eq_docstore.find_scan_us", "eq_docstore.find_scan"),
            ("eq_docstore.compile_prefilter_us", "eq_docstore.compile_prefilter"),
            ("eq_docstore.mask_resolve_us", "eq_docstore.mask_resolve"),
            ("eq_hashindex.knn_us", "eq_hashindex.knn"),
            ("eq_hashindex.knn_masked_us", "eq_hashindex.knn_masked"),
            ("eq_hashindex.radius_masked_us", "eq_hashindex.radius_masked"),
            ("eq_milan.encode_us", "eq_milan.encode"),
        ] {
            m.push(metric, median(span), "us");
        }
        m.push(
            "eq_hashindex.knn_ns_per_code",
            median("eq_hashindex.knn") * 1e3 / corpus as f64,
            "ns",
        );
        let assembled: u64 = t.durations_ns("engine.assemble", self.first_span).iter().sum();
        let entries: usize = self.answers.iter().map(|a| a.response().total()).sum();
        m.push("engine.assemble_ns_per_entry", assembled as f64 / entries.max(1) as f64, "ns");

        let (mut bitmap, mut filtered, mut candidates, mut matching) = (0u64, 0u64, 0u64, 0u64);
        let (mut indexed, mut panels, mut scanned, mut matched) = (0u64, 0u64, 0u64, 0u64);
        for answer in &self.answers {
            match answer {
                Answer::Filtered(f) => {
                    filtered += 1;
                    bitmap +=
                        u64::from(f.plan.strategy == eq_earthqube::FilterStrategy::BitmapPrefilter);
                    candidates += f.plan.candidates.unwrap_or(corpus as u64);
                    matching += f.plan.matching as u64;
                }
                // Only a query-panel search reports a store plan.
                Answer::Plain(r) => {
                    if let Some(plan) = &r.plan {
                        panels += 1;
                        indexed += u64::from(plan.index_used.is_some());
                        scanned += plan.scanned as u64;
                        matched += plan.matched as u64;
                    }
                }
            }
        }
        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        m.push("filtered.bitmap_strategy_share", ratio(bitmap, filtered), "ratio");
        m.push("filtered.candidates_per_match", ratio(candidates, matching), "ratio");
        m.push("eq_docstore.index_used_share", ratio(indexed, panels), "ratio");
        m.push("eq_docstore.scanned_per_match", ratio(scanned, matched), "ratio");
    }
}

/// Sizes of the probes that need their own data.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSizes {
    /// Codes of the larger-than-cache scan.
    pub big_scan_codes: usize,
    /// Patches the write-path side server starts from.
    pub side_corpus: usize,
    /// Ingests the paced writer sends to the side server.
    pub paced_ingests: usize,
}

/// Single ingests timed in process, before and after the side server is
/// attached to its directory.
const INGESTS_EACH: usize = 64;
/// Ingests the replica has to catch up with.
const CATCH_UP_INGESTS: usize = 32;

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&e.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Probes the layers no query stream reaches: ping, the bulk inserts, the
/// larger-than-cache scan, and the write path (WAL, checkpoint, recovery,
/// replication) on a small side server of its own.
pub fn probes(
    t: &mut Tracer,
    world: &World,
    main_addr: SocketAddr,
    sizes: &ProbeSizes,
    seed: u64,
    work_dir: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let err = |what: &str, e: eq_earthqube::EarthQubeError| format!("{what}: {e}");
    let first = t.spans().len();

    let mut client = EqClient::connect(main_addr).map_err(|e| err("probe connect", e))?;
    for _ in 0..200 {
        t.span("net.ping", PROBE, None, || client.ping()).0.map_err(|e| err("ping", e))?;
    }

    let bits = world.codes[0].bits();
    let big = eq_bench::clustered_codes(sizes.big_scan_codes, bits, 256, seed);
    let index = ShardedHashIndex::new(bits, ServeConfig::default().shards);
    for (id, code) in big.iter().enumerate() {
        index.insert(id as u64, code.clone());
    }
    let mut scratch = SearchScratch::new();
    for query in big.iter().step_by(big.len() / 20) {
        t.span("eq_hashindex.knn_big", PROBE, None, || {
            index.knn_with(query, K, &mut scratch).len()
        });
    }
    drop((index, big));

    // -- the write path, on a side server ----------------------------------
    let needed = 2 * INGESTS_EACH + sizes.paced_ingests + CATCH_UP_INGESTS;
    assert!(world.held.len() >= needed, "the write-path probe needs {needed} held-out patches");
    let (volatile, rest) = world.held.split_at(INGESTS_EACH);
    let (durable, rest) = rest.split_at(INGESTS_EACH);
    let (paced, rest) = rest.split_at(sizes.paced_ingests);
    let late = &rest[..CATCH_UP_INGESTS];

    let primary_dir = work_dir.join("side-primary");
    let replica_dir = work_dir.join("side-replica");
    let side = eq_bench::archive(sizes.side_corpus, seed ^ 0x5349_4445);
    // Ingest encodes with whatever weights the model has; training them
    // would only lengthen the probe.
    let config = EarthQubeConfig { train_model: false, ..EarthQubeConfig::fast(seed) };
    let server = Arc::new(
        QueryServer::build(&side, config, ServeConfig::default())
            .map_err(|e| err("side build", e))?,
    );
    for patch in volatile {
        t.span("persist.ingest_volatile", PROBE, None, || {
            server.ingest(std::slice::from_ref(patch))
        })
        .0
        .map_err(|e| err("volatile ingest", e))?;
    }
    let (checkpoint, _) =
        t.span("persist.checkpoint", PROBE, None, || server.checkpoint(&primary_dir));
    let checkpoint = checkpoint.map_err(|e| err("side checkpoint", e))?;
    let after_checkpoint = dir_bytes(&primary_dir);
    for patch in durable {
        t.span("persist.ingest_durable", PROBE, None, || {
            server.ingest(std::slice::from_ref(patch))
        })
        .0
        .map_err(|e| err("durable ingest", e))?;
    }

    let net =
        NetServer::bind(Arc::clone(&server), "127.0.0.1:0", 2).map_err(|e| err("side bind", e))?;
    let writer = open_loop_writer(
        net.local_addr(),
        paced,
        INGEST_RATE_HZ,
        Instant::now(),
        &AtomicBool::new(false),
    );
    if let Some(failure) = writer.log.first_failure {
        return Err(format!("paced ingest: {failure}"));
    }
    let mut acks: Vec<u64> = writer.log.samples.iter().map(|s| s.latency_ns).collect();
    acks.sort_unstable();
    let mut lags = writer.lag_ns;
    lags.sort_unstable();

    let addr = net.local_addr().to_string();
    let (replica, _) = t.span("replicate.bootstrap", PROBE, None, || {
        Replica::bootstrap(&replica_dir, &addr, 1, RetryPolicy::default())
    });
    let mut replica = replica.map_err(|e| err("replica bootstrap", e))?;
    for patch in late {
        server.ingest(std::slice::from_ref(patch)).map_err(|e| err("late ingest", e))?;
    }
    let (sync, _) = t.span("replicate.catch_up", PROBE, None, || replica.catch_up());
    sync.map_err(|e| err("replica catch-up", e))?;
    let ingested = needed;
    if replica.server().archive_size() != sizes.side_corpus + ingested {
        return Err("the replica did not reach the primary's archive size".into());
    }
    drop(replica);

    let logged: usize = [durable, paced, late]
        .iter()
        .flat_map(|patches| patches.iter())
        .map(|p| eq_proto::encode_ingest_request(0, std::slice::from_ref(p)).len())
        .sum();
    let wal_bytes = dir_bytes(&primary_dir) - after_checkpoint;
    let incremental =
        server.checkpoint(&primary_dir).map_err(|e| err("incremental checkpoint", e))?;
    net.shutdown();
    drop(server);
    let (recovered, _) =
        t.span("persist.recover", PROBE, None, || QueryServer::recover(&primary_dir));
    let recovered = recovered.map_err(|e| err("side recover", e))?;
    let lost =
        world.held[..needed].iter().filter(|p| recovered.metadata_of(&p.meta.name).is_none());
    if lost.count() > 0 || recovered.archive_size() != sizes.side_corpus + ingested {
        return Err("the side server lost acknowledged ingests across recovery".into());
    }
    drop(recovered);
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);

    let median = |name: &str| median_u64(&t.durations_ns(name, first));
    let p = |sorted: &[u64], p: f64| us(percentile_unchecked(sorted, p).unwrap_or(0) as f64);
    m.push("net.ping_rtt_us", us(median("net.ping")), "us");
    m.push("eq_hashindex.knn_big_us", us(median("eq_hashindex.knn_big")), "us");
    m.push("persist.ingest_volatile_us", us(median("persist.ingest_volatile")), "us");
    m.push("persist.ingest_durable_us", us(median("persist.ingest_durable")), "us");
    m.push("persist.ingest_ack_p50_us", p(&acks, 0.50), "us");
    m.push("persist.ingest_ack_p90_us", p(&acks, 0.90), "us");
    m.push("persist.ingest_ack_p99_us", p(&acks, 0.99), "us");
    m.push("persist.ingest_ack_max_us", p(&acks, 1.0), "us");
    m.push("persist.ingest_sched_lag_p99_us", p(&lags, 0.99), "us");
    m.push("persist.checkpoint_ms", median("persist.checkpoint") / 1e6, "ms");
    m.push("persist.checkpoint_bytes", checkpoint.bytes_written as f64, "B");
    m.push(
        "persist.disk_bytes_per_ingested_byte",
        (wal_bytes + incremental.bytes_written) as f64 / logged as f64,
        "ratio",
    );
    m.push("persist.recover_s", median("persist.recover") / 1e9, "s");
    m.push("replicate.bootstrap_s", median("replicate.bootstrap") / 1e9, "s");
    m.push("replicate.catchup_ms", median("replicate.catch_up") / 1e6, "ms");
    Ok(())
}
