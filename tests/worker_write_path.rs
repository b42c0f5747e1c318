//! The write path of computed answers: an event loop's non-blocking write,
//! the backlog it leaves for `POLLOUT`, and the eviction of a connection
//! that stops draining.  `tests/net_faults.rs` floods with a cached
//! `Search(all)`, whose answers are result-cache hits; these twins of its
//! two slow-reader tests serve an uncached server, so every answer is
//! computed by the query core before the loop writes it.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use agoraeo::bigearthnet::{ArchiveGenerator, GeneratorConfig};
use agoraeo::earthqube::net::{query_to_spec, EqClient, NetConfig, NetServer};
use agoraeo::earthqube::{EarthQubeConfig, ImageQuery, QueryServer, ServeConfig};
use agoraeo::proto;

fn serve_uncached(n: usize, seed: u64, net_config: NetConfig) -> (NetServer, Arc<QueryServer>) {
    let archive = ArchiveGenerator::new(GeneratorConfig::tiny(n, seed)).unwrap().generate();
    let mut config = EarthQubeConfig::fast(seed);
    config.train_model = false;
    let server = Arc::new(QueryServer::build(&archive, config, ServeConfig::uncached(8)).unwrap());
    let net = NetServer::bind_with(Arc::clone(&server), "127.0.0.1:0", net_config).unwrap();
    (net, server)
}

/// `count` pipelined `Search(all)` request frames, ids from 1.
fn search_burst(count: u64) -> Vec<u8> {
    let spec = query_to_spec(&ImageQuery::all());
    let mut burst = Vec::new();
    for id in 1..=count {
        let body = proto::RequestBody::Search(spec.clone());
        proto::write_request(&mut burst, &proto::Request { id, body }).unwrap();
    }
    burst
}

/// A client that floods queries and never reads its responses is evicted
/// once the backlog its loop left trips the write cap (or stalls past the
/// write timeout), while a healthy client keeps being served.
#[test]
fn slow_readers_of_worker_answers_are_evicted_and_service_continues() {
    let (net, server) = serve_uncached(
        48,
        414,
        NetConfig {
            workers: 2,
            max_inflight_per_conn: 512,
            write_timeout: Duration::from_millis(250),
            write_buffer_cap: 64 * 1024,
        },
    );
    let addr = net.local_addr();
    let mut canary = EqClient::connect(addr).unwrap();
    let expected = server.search(&ImageQuery::all()).unwrap();

    // Flood until the eviction shows, bounded by a request count and a
    // deadline, never by a guess at the kernel's loopback buffer sizes.
    let mut loris = TcpStream::connect(addr).unwrap();
    let _ = loris.set_write_timeout(Some(Duration::from_secs(2)));
    let burst = search_burst(100);
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut bursts = 0;
    while net.net_stats().evicted_slow == 0 && Instant::now() < deadline {
        // A failed write means the server already shut the socket: evicted.
        if bursts < 5_000 && loris.write_all(&burst).is_ok() {
            bursts += 1;
        } else {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let stats = net.net_stats();
    assert!(stats.evicted_slow >= 1, "the non-reading client must be evicted: {stats:?}");
    assert_eq!(net.connections_failed(), 0, "eviction is not a protocol fault");

    assert_eq!(canary.search(&ImageQuery::all()).unwrap(), expected);
    canary.ping().unwrap();
    assert_eq!(server.stats().cache_hits, 0, "every answer was computed");
    drop(loris);
    net.shutdown();
}

/// An event loop never parks on a peer: with ONE loop and one connection
/// whose backlog is stuck (the peer never reads, the write timeout is
/// seconds away), a canary is still served at once by that loop — and the
/// stuck connection is evicted when its time is up.
#[test]
fn a_stuck_worker_backlog_never_parks_the_only_worker() {
    let (net, server) = serve_uncached(
        48,
        415,
        NetConfig {
            workers: 1,
            max_inflight_per_conn: 64,
            write_timeout: Duration::from_secs(3),
            ..NetConfig::default() // the 160 MiB buffer cap: only the timeout evicts
        },
    );
    let addr = net.local_addr();
    let mut canary = EqClient::connect(addr).unwrap();
    let expected = server.search(&ImageQuery::all()).unwrap();

    // Flood without reading until the loop's write stops short: the
    // socket took what its buffers hold and the rest is left to POLLOUT.
    let mut stuck = TcpStream::connect(addr).unwrap();
    let _ = stuck.set_write_timeout(Some(Duration::from_secs(2)));
    let burst = search_burst(32);
    let deadline = Instant::now() + Duration::from_secs(20);
    while net.net_stats().responses_deferred == 0 && Instant::now() < deadline {
        stuck.write_all(&burst).expect("the server keeps reading requests");
    }
    let stats = net.net_stats();
    assert!(stats.responses_deferred >= 1, "the unread socket must fill up: {stats:?}");

    assert_eq!(canary.search(&ImageQuery::all()).unwrap(), expected);
    canary.ping().unwrap();
    assert_eq!(net.net_stats().evicted_slow, 0, "served while the backlog was still stuck");

    let deadline = Instant::now() + Duration::from_secs(20);
    while net.net_stats().evicted_slow == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(net.net_stats().evicted_slow, 1, "the stuck connection times out");
    assert_eq!(net.connections_failed(), 0, "eviction is not a protocol fault");
    assert_eq!(server.stats().cache_hits, 0, "every answer was computed");
    canary.ping().unwrap();
    drop(stuck);
    net.shutdown();
}
