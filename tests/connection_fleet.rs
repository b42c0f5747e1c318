//! A 1 200-connection fleet stays bounded: one poller thread multiplexes
//! every loopback connection over a fixed worker pool, so holding the whole
//! fleet open and answering five pipelined ping rounds on it grows the
//! resident set by per-connection buffers, not by threads or stacks.  The
//! only test in its binary, so `VmRSS` sees nothing else.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use agoraeo::bigearthnet::{ArchiveGenerator, GeneratorConfig};
use agoraeo::earthqube::net::{NetConfig, NetServer};
use agoraeo::earthqube::{EarthQubeConfig, QueryServer, ServeConfig};
use agoraeo::proto::{self, Request, RequestBody, ResponseBody};

const CONNS: usize = 1_200;
const CLIENT_THREADS: usize = 4;
const ROUNDS: u64 = 5;

/// `VmRSS` of this process in kilobytes.
fn resident_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .unwrap_or(0)
}

/// One pipelined ping per connection, then every response, ids echoed.
fn ping_round(fleet: &mut [TcpStream], base_id: u64) {
    for (id, conn) in (base_id..).zip(fleet.iter_mut()) {
        proto::write_request(conn, &Request { id, body: RequestBody::Ping }).unwrap();
    }
    for (id, conn) in (base_id..).zip(fleet.iter_mut()) {
        let response = proto::read_response(conn).unwrap().expect("connection stays open");
        assert_eq!((response.id, response.body), (id, ResponseBody::Pong));
    }
}

#[test]
fn a_1200_connection_fleet_is_answered_in_bounded_memory() {
    let archive = ArchiveGenerator::new(GeneratorConfig::tiny(64, 140)).unwrap().generate();
    let mut config = EarthQubeConfig::fast(140);
    config.train_model = false;
    let server = Arc::new(QueryServer::build(&archive, config, ServeConfig::default()).unwrap());
    let net = NetServer::bind_with(
        server,
        "127.0.0.1:0",
        NetConfig { workers: 2, ..NetConfig::default() },
    )
    .unwrap();
    let addr = net.local_addr();

    let deadline = Instant::now() + Duration::from_secs(120);
    let before_kb = resident_kb();
    let (answered, peak_kb) = (AtomicUsize::new(0), AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..CLIENT_THREADS as u64 {
            let (answered, peak_kb) = (&answered, &peak_kb);
            scope.spawn(move || {
                let mut fleet: Vec<TcpStream> = (0..CONNS / CLIENT_THREADS)
                    .map(|_| TcpStream::connect(addr).unwrap())
                    .collect();
                for conn in &fleet {
                    conn.set_nodelay(true).unwrap();
                    conn.set_read_timeout(Some(deadline - Instant::now())).unwrap();
                }
                for round in 0..ROUNDS {
                    ping_round(&mut fleet, (t * ROUNDS + round) * 1_000_000);
                }
                // Hold every socket until the whole fleet is answered, so
                // the resident set is read with all of it open.
                answered.fetch_add(1, SeqCst);
                while answered.load(SeqCst) < CLIENT_THREADS {
                    assert!(Instant::now() < deadline, "a client thread never finished");
                    std::thread::yield_now();
                }
                peak_kb.fetch_max(resident_kb(), SeqCst);
            });
        }
    });

    // A thread per connection would blow this on stacks alone; E14
    // measured +1.0 MB against this 107 MB budget.
    let growth_kb = peak_kb.into_inner().saturating_sub(before_kb);
    let budget_kb = 64 * CONNS as u64 + 32 * 1024;
    println!("{CONNS} connections: resident +{growth_kb} kB (budget {budget_kb} kB)");
    assert!(growth_kb <= budget_kb, "resident growth {growth_kb} kB over {budget_kb} kB");
    assert_eq!(net.connections_failed(), 0);
    net.shutdown();
}
