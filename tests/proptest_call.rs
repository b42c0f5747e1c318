//! One request, three ways to send it, one answer.  For a random stream of
//! requests, each sent three ways to its own twin server (same archive,
//! same seed), the three `eq_proto` response encodings must be
//! byte-identical:
//!
//! * the typed in-process method the request names, its result converted
//!   by the public `net` conversions;
//! * `QueryServer::call`, the server's one request entry;
//! * `EqClient::call`, over loopback to a `NetServer`.
//!
//! The stream covers every read kind but `MetricsText` (whose net-tier
//! counters differ by construction): unknown names, `k = 0` and `k` past
//! the 2^20 clamp, every `PrefilterMode`, an invalid query, radii past the
//! code width, and the replication reads of a detached server.  It covers
//! uploads and ingests too, malformed patches and duplicate names among
//! them, and empty feedback and stats.  After the stream, the twins'
//! counters, archives and feedback must agree.

use std::sync::Arc;

use agoraeo::bigearthnet::patch::{AcquisitionDate, Patch, Season};
use agoraeo::bigearthnet::{Archive, ArchiveGenerator, Country, GeneratorConfig, Label};
use agoraeo::earthqube::net::{
    error_to_payload, filtered_to_payload, query_to_spec, response_to_payload, spec_to_query,
    EqClient, NetServer,
};
use agoraeo::earthqube::{
    EarthQubeConfig, EarthQubeError, ImageQuery, LabelFilter, LabelOperator, PrefilterMode,
    QueryServer, RequestBody, ResponseBody, ServeConfig,
};
use agoraeo::geo::GeoShape;
use agoraeo::proto::{QuerySpec, Response};
use proptest::prelude::*;

const SEED: u64 = 31_031;
const ARCHIVE: usize = 12;
/// Patches a stream may ingest, by index (a repeated index is a duplicate).
const FRESH: usize = 4;

/// Neighbour counts: none, a few, more than the archive, past the clamp.
const KS: [u64; 4] = [0, 3, 40, (1 << 20) + 7];
/// Radii: exact matches only, some, the code width and far past it.
const RADII: [u32; 4] = [0, 6, 32, u32::MAX];
const MODES: [PrefilterMode; 3] =
    [PrefilterMode::Auto, PrefilterMode::ForceBitmap, PrefilterMode::ForcePostFilter];

fn generate(n: usize, seed: u64) -> Archive {
    ArchiveGenerator::new(GeneratorConfig::tiny(n, seed)).unwrap().generate()
}

fn twin(archive: &Archive) -> QueryServer {
    let mut config = EarthQubeConfig::fast(SEED);
    config.train_model = false;
    QueryServer::build(archive, config, ServeConfig::default()).unwrap()
}

/// What a stream draws from: the archive's names plus an unknown one, a
/// pool of panel filters (one of them invalid), uploads (two malformed)
/// and the patches it may ingest.
struct Pools {
    names: Vec<String>,
    archive: Vec<Patch>,
    specs: Vec<QuerySpec>,
    uploads: Vec<Patch>,
    fresh: Vec<Patch>,
}

impl Pools {
    fn new(archive: &Archive) -> Self {
        let mut names: Vec<String> =
            archive.patches().iter().map(|p| p.meta.name.clone()).collect();
        names.push("ghost".into());
        let date = |y, m, d| AcquisitionDate::new(y, m, d).unwrap();
        let mut inverted = query_to_spec(&ImageQuery::all());
        inverted.date_range = Some((date(2018, 5, 31), date(2017, 6, 1)));
        let specs = vec![
            query_to_spec(&ImageQuery::all()),
            query_to_spec(&ImageQuery::all().with_labels(LabelFilter::new(
                LabelOperator::Some,
                vec![Label::MixedForest, Label::SeaAndOcean, Label::Pastures],
            ))),
            query_to_spec(
                &ImageQuery::all().with_shape(GeoShape::Rect(Country::Portugal.bounding_box())),
            ),
            query_to_spec(&ImageQuery::all().with_seasons(vec![Season::Summer, Season::Winter])),
            inverted,
        ];
        let mut uploads = generate(2, SEED + 1).patches().to_vec();
        let mut short = uploads[0].clone();
        short.s2_bands.pop();
        let mut one_polarisation = uploads[1].clone();
        one_polarisation.s1_bands.pop();
        uploads.extend([short, one_polarisation]);
        let fresh = generate(FRESH, SEED + 2).patches().to_vec();
        Pools { names, archive: archive.patches().to_vec(), specs, uploads, fresh }
    }

    /// The request a drawn triple stands for.
    fn request(&self, kind: usize, a: usize, b: usize) -> RequestBody {
        let name = self.names[a % self.names.len()].clone();
        let spec = self.specs[b % self.specs.len()].clone();
        let (k, mode) = (KS[b % KS.len()], MODES[a % MODES.len()]);
        match kind {
            0 => RequestBody::Search(spec),
            1 => RequestBody::SimilarTo { name, k },
            2 => RequestBody::SimilarToFiltered { name, k, spec, mode },
            3 => RequestBody::SimilarWithinFiltered {
                name,
                radius: RADII[b % RADII.len()],
                spec,
                mode,
            },
            4 => RequestBody::SearchByNewExample {
                patch: Box::new(self.uploads[a % self.uploads.len()].clone()),
                k,
            },
            5 => {
                let fresh = |i: usize| self.fresh[i % FRESH].clone();
                let patches = match b % 4 {
                    0 => vec![fresh(a)],
                    1 => vec![self.archive[a % self.archive.len()].clone()],
                    2 => vec![fresh(a), self.uploads[2].clone()],
                    _ => vec![fresh(a), fresh(a + 1)],
                };
                RequestBody::Ingest { patches }
            }
            6 => RequestBody::Feedback {
                text: if b.is_multiple_of(3) { String::new() } else { format!("note {a}") },
                category: a.is_multiple_of(2).then(|| "reaction".to_string()),
            },
            7 => RequestBody::Stats,
            8 => RequestBody::Ping,
            _ if b.is_multiple_of(2) => RequestBody::ReplState,
            _ => RequestBody::ReplPull {
                generation: a as u32,
                ingested: b as u64,
                feedback: 0,
                tails: [a as u32 ^ b as u32, 0],
                max_bytes: 64,
            },
        }
    }
}

fn reply<T>(
    result: Result<T, EarthQubeError>,
    answer: impl FnOnce(T) -> ResponseBody,
) -> ResponseBody {
    result.map_or_else(|e| ResponseBody::Error(error_to_payload(&e)), answer)
}

/// The request run through the typed method it names; the `u64` count a
/// caller holds as a `usize` is clamped as the wire clamps it.
fn typed(server: &QueryServer, body: &RequestBody) -> ResponseBody {
    let k = |k: &u64| (*k).min(1 << 20) as usize;
    let search = |r: &_| ResponseBody::Search(response_to_payload(r));
    match body {
        RequestBody::Search(spec) => reply(server.search(&spec_to_query(spec)), |r| search(&r)),
        RequestBody::SimilarTo { name, k: n } => {
            reply(server.similar_to(name, k(n)), |r| search(&r))
        }
        RequestBody::SimilarToFiltered { name, k: n, spec, mode } => {
            reply(server.similar_to_filtered(name, k(n), &spec_to_query(spec), *mode), |r| {
                ResponseBody::Filtered(filtered_to_payload(&r))
            })
        }
        RequestBody::SimilarWithinFiltered { name, radius, spec, mode } => {
            reply(server.similar_within_filtered(name, *radius, &spec_to_query(spec), *mode), |r| {
                ResponseBody::Filtered(filtered_to_payload(&r))
            })
        }
        RequestBody::SearchByNewExample { patch, k: n } => {
            reply(server.search_by_new_example(patch, k(n)), |r| search(&r))
        }
        RequestBody::Ingest { patches } => reply(server.ingest(patches), ResponseBody::Ingest),
        RequestBody::Feedback { text, category } => {
            reply(server.submit_feedback(text, category.as_deref()), |id| ResponseBody::Feedback {
                id,
            })
        }
        RequestBody::Stats => ResponseBody::Stats(server.stats()),
        RequestBody::Ping => ResponseBody::Pong,
        RequestBody::ReplState => ResponseBody::ReplState(server.repl_state()),
        RequestBody::ReplPull { generation, ingested, feedback, tails, max_bytes } => reply(
            server.repl_pull(*generation, *ingested, *feedback, *tails, *max_bytes),
            ResponseBody::ReplRecords,
        ),
        RequestBody::MetricsText => unreachable!("not drawn: its net-tier counters differ"),
    }
}

fn encoded(body: ResponseBody) -> Vec<u8> {
    Response { id: 0, body }.encode()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn typed_in_process_and_remote_calls_answer_alike(
        draws in proptest::collection::vec((0usize..10, 0usize..64, 0usize..64), 1..16),
    ) {
        let archive = generate(ARCHIVE, SEED);
        let pools = Pools::new(&archive);
        let (typed_twin, call_twin) = (twin(&archive), twin(&archive));
        let remote_twin = Arc::new(twin(&archive));
        let net = NetServer::bind(Arc::clone(&remote_twin), "127.0.0.1:0", 2).unwrap();
        let mut client = EqClient::connect(net.local_addr()).unwrap();

        for (i, &(kind, a, b)) in draws.iter().enumerate() {
            let request = pools.request(kind, a, b);
            let want = encoded(typed(&typed_twin, &request));
            let called = encoded(call_twin.call(&request));
            prop_assert!(called == want, "request {i} {request:?}: call differs from typed");
            let remote = encoded(client.call(&request).unwrap());
            prop_assert!(remote == want, "request {i} {request:?}: remote differs from typed");
        }
        net.shutdown();

        // The counters, filter cache's included, agree whole.
        let stats = format!("{:?}", typed_twin.stats());
        prop_assert_eq!(format!("{:?}", call_twin.stats()), stats.clone());
        prop_assert_eq!(format!("{:?}", remote_twin.stats()), stats);
        let feedback = typed_twin.list_feedback().unwrap();
        prop_assert_eq!(call_twin.list_feedback().unwrap(), feedback.clone());
        prop_assert_eq!(remote_twin.list_feedback().unwrap(), feedback);
    }
}
