//! Answers leave in request order, hit or miss.  An event loop answers
//! every request of its connections itself, in order, through
//! `QueryServer::frame`: a read the result cache holds from the cached
//! bytes, a read it misses by running the query core; so a pipelined
//! stream of reads with repeats mixes hits and misses on one connection.
//! For a random such stream, sent through `EqClient::run_batch` at 1 and 4
//! event loops (`NetConfig::workers`), every slot's `eq_proto`
//! encoding must equal in-process `QueryServer::call`'s on a twin server,
//! in order.  Part of the pool is cached before the batch, so hits and
//! misses interleave from the first request on.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use agoraeo::bigearthnet::patch::Season;
use agoraeo::bigearthnet::{Archive, ArchiveGenerator, GeneratorConfig, Label};
use agoraeo::earthqube::net::{query_to_spec, EqClient, NetConfig, NetServer};
use agoraeo::earthqube::{
    EarthQubeConfig, ImageQuery, LabelFilter, LabelOperator, PrefilterMode, QueryServer,
    RequestBody, ResponseBody, ServeConfig,
};
use agoraeo::proto::Response;
use proptest::prelude::*;

const SEED: u64 = 32_032;
const ARCHIVE: usize = 24;

fn twin(archive: &Archive) -> QueryServer {
    let mut config = EarthQubeConfig::fast(SEED);
    config.train_model = false;
    QueryServer::build(archive, config, ServeConfig::default()).unwrap()
}

/// The read a drawn triple stands for: one of the four cache-keyed kinds
/// over a small pool of names, filters and counts, so streams repeat.
fn read(archive: &Archive, kind: usize, a: usize, b: usize) -> RequestBody {
    let names = archive.patches();
    let name = if a == 5 { "ghost".to_string() } else { names[a % names.len()].meta.name.clone() };
    let specs = [
        query_to_spec(&ImageQuery::all()),
        query_to_spec(&ImageQuery::all().with_seasons(vec![Season::Summer, Season::Winter])),
        query_to_spec(
            &ImageQuery::all()
                .with_labels(LabelFilter::new(LabelOperator::Some, vec![Label::MixedForest])),
        ),
    ];
    let spec = specs[b % specs.len()].clone();
    let k = [1, 4, 30][b % 3];
    let mode = [PrefilterMode::Auto, PrefilterMode::ForceBitmap][a % 2];
    match kind {
        0 => RequestBody::Search(spec),
        1 => RequestBody::SimilarTo { name, k },
        2 => RequestBody::SimilarToFiltered { name, k, spec, mode },
        _ => RequestBody::SimilarWithinFiltered { name, radius: 20, spec, mode },
    }
}

/// `stream` through `run_batch` on a fresh connection, or an error if the
/// batch fails or is not answered within `limit`: a slot that is never
/// filed stalls the connection, and shutting the server down (which the
/// caller does next) kicks the waiting client.
fn batch_within(
    net: &NetServer,
    stream: &[RequestBody],
    limit: Duration,
) -> Result<Vec<ResponseBody>, String> {
    let (done, answer) = mpsc::channel();
    let (addr, stream) = (net.local_addr(), stream.to_vec());
    std::thread::spawn(move || {
        let got = EqClient::connect(addr).and_then(|mut client| client.run_batch(&stream));
        let _ = done.send(got.map_err(|e| e.to_string()));
    });
    answer.recv_timeout(limit).map_err(|_| format!("no whole answer within {limit:?}"))?
}

fn encoded(body: ResponseBody) -> Vec<u8> {
    Response { id: 0, body }.encode()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn loop_answers_and_worker_answers_leave_in_request_order(
        draws in proptest::collection::vec((0usize..4, 0usize..6, 0usize..3), 1..64),
        warm in proptest::collection::vec(any::<bool>(), 1..64),
    ) {
        let archive =
            ArchiveGenerator::new(GeneratorConfig::tiny(ARCHIVE, SEED)).unwrap().generate();
        let stream: Vec<RequestBody> =
            draws.iter().map(|&(kind, a, b)| read(&archive, kind, a, b)).collect();
        let reference = twin(&archive);
        let want: Vec<Vec<u8>> = stream.iter().map(|r| encoded(reference.call(r))).collect();

        for workers in [1, 4] {
            let served = Arc::new(twin(&archive));
            for (request, &warm) in stream.iter().zip(warm.iter().cycle()) {
                if warm {
                    served.call(request);
                }
            }
            let config = NetConfig { workers, ..NetConfig::default() };
            let net = NetServer::bind_with(Arc::clone(&served), "127.0.0.1:0", config).unwrap();
            let got = batch_within(&net, &stream, Duration::from_secs(10));
            net.shutdown();
            let got = match got {
                Ok(got) => got,
                Err(e) => return Err(TestCaseError::fail(format!("{workers} workers: {e}"))),
            };
            prop_assert_eq!(got.len(), stream.len());
            for (i, (body, want)) in got.into_iter().zip(&want).enumerate() {
                prop_assert!(
                    &encoded(body) == want,
                    "{workers} workers, slot {i} ({:?}) differs from call",
                    stream[i]
                );
            }
        }
    }
}
