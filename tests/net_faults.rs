//! Fault injection against the network serving tier: every transport-level
//! abuse — mid-frame disconnects, hostile length prefixes, garbage
//! preambles, checksum corruption, slow-trickle writers — must error *the
//! one faulty connection* cleanly while every other connection keeps being
//! served.  A healthy client stays connected across the whole gauntlet and
//! must observe correct responses after each fault.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use agoraeo::bigearthnet::{ArchiveGenerator, GeneratorConfig};
use agoraeo::earthqube::net::{EqClient, NetConfig, NetServer};
use agoraeo::earthqube::{EarthQubeConfig, ImageQuery, QueryServer, ServeConfig};
use agoraeo::proto;

fn serve(n: usize, seed: u64) -> (NetServer, Arc<QueryServer>) {
    let (net, server) = serve_with(n, seed, NetConfig { workers: 3, ..NetConfig::default() });
    (net, server)
}

fn serve_with(n: usize, seed: u64, net_config: NetConfig) -> (NetServer, Arc<QueryServer>) {
    let archive = ArchiveGenerator::new(GeneratorConfig::tiny(n, seed)).unwrap().generate();
    let mut config = EarthQubeConfig::fast(seed);
    config.train_model = false;
    let server = Arc::new(QueryServer::build(&archive, config, ServeConfig::default()).unwrap());
    let net = NetServer::bind_with(Arc::clone(&server), "127.0.0.1:0", net_config).unwrap();
    (net, server)
}

/// A valid ping request frame, as raw bytes to corrupt at will.
fn ping_frame() -> Vec<u8> {
    let mut buf = Vec::new();
    proto::write_request(&mut buf, &proto::Request { id: 77, body: proto::RequestBody::Ping })
        .unwrap();
    buf
}

/// Reads until the server closes the connection, returning the bytes it
/// sent first (the best-effort error frame, if any).
fn drain_to_close(stream: &mut TcpStream) -> Vec<u8> {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    out
}

/// Asserts the server answered the faulty connection with a best-effort
/// `BadRequest` error frame before closing it.
fn assert_error_frame_then_close(stream: &mut TcpStream) {
    let bytes = drain_to_close(stream);
    let response = proto::read_response(&mut std::io::Cursor::new(&bytes))
        .expect("the pre-close bytes are one well-formed response frame")
        .expect("an error frame, not a bare close");
    match response.body {
        proto::ResponseBody::Error(payload) => {
            assert_eq!(payload.code, proto::ErrorCode::BadRequest);
            assert!(!payload.message.is_empty());
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
}

#[test]
fn every_fault_is_isolated_to_its_connection() {
    let (net, server) = serve(20, 401);
    let addr = net.local_addr();

    // The canary: a healthy client connected for the whole gauntlet.
    let mut healthy = EqClient::connect(addr).unwrap();
    healthy.ping().unwrap();
    let expected_all = server.search(&ImageQuery::all()).unwrap();

    // --- Fault 1: mid-frame disconnect -----------------------------------
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let frame = ping_frame();
        stream.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(stream); // die mid-frame
    }
    assert_eq!(healthy.search(&ImageQuery::all()).unwrap(), expected_all);

    // --- Fault 2: oversized length prefix --------------------------------
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut frame = Vec::new();
        frame.extend_from_slice(&proto::REQUEST_MAGIC);
        frame.extend_from_slice(&u32::MAX.to_le_bytes()); // 4 GiB, says the liar
        frame.extend_from_slice(&0u32.to_le_bytes());
        stream.write_all(&frame).unwrap();
        // The server must reject the length *without* trying to read (or
        // allocate) 4 GiB, reply with an error frame, and close.
        assert_error_frame_then_close(&mut stream);
    }
    assert_eq!(healthy.search(&ImageQuery::all()).unwrap(), expected_all);

    // --- Fault 3: garbage preamble ---------------------------------------
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET / HTTP/1.1\r\nHost: earthqube\r\n\r\n").unwrap();
        assert_error_frame_then_close(&mut stream);
    }
    assert_eq!(healthy.search(&ImageQuery::all()).unwrap(), expected_all);

    // --- Fault 4: CRC-corrupted body -------------------------------------
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut frame = ping_frame();
        let last = frame.len() - 1;
        frame[last] ^= 0x01; // flip one payload bit; the CRC must catch it
        stream.write_all(&frame).unwrap();
        assert_error_frame_then_close(&mut stream);
    }
    assert_eq!(healthy.search(&ImageQuery::all()).unwrap(), expected_all);

    // --- Fault 5: slow-trickle writer ------------------------------------
    {
        // A valid frame dribbled one byte at a time must still be served —
        // TCP fragmentation is not a fault …
        let mut stream = TcpStream::connect(addr).unwrap();
        for &byte in &ping_frame() {
            stream.write_all(&[byte]).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let response = proto::read_response(&mut stream).unwrap().unwrap();
        assert_eq!(response.id, 77);
        assert!(matches!(response.body, proto::ResponseBody::Pong));

        // … but a trickle that dies mid-frame is fault 1 again, this time
        // with the server already mid-read.
        let mut stream = TcpStream::connect(addr).unwrap();
        let frame = ping_frame();
        for &byte in &frame[..frame.len() - 3] {
            stream.write_all(&[byte]).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(stream);
    }
    assert_eq!(healthy.search(&ImageQuery::all()).unwrap(), expected_all);

    // The canary served every probe over one connection; fresh clients
    // are also still welcome, and the faults were counted.
    let mut fresh = EqClient::connect(addr).unwrap();
    fresh.ping().unwrap();
    assert_eq!(fresh.search(&ImageQuery::all()).unwrap(), expected_all);
    // All five faulty connections (the trickled ping was *served*, not a
    // fault) are eventually accounted for; the fire-and-forget ones may
    // still be in flight, so poll briefly.
    let deadline = Instant::now() + Duration::from_secs(10);
    while net.connections_failed() < 5 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(net.connections_failed(), 5, "every fault counted, the served trickle not");
    net.shutdown();
}

/// Admission control under a request flood: a client that pipelines far
/// past its in-flight quota gets typed `Overloaded` error frames for the
/// excess — immediately, in request order, with the request ids echoed —
/// and the connection is *not* stalled or killed.  Rejection must never
/// count as a connection fault.
#[test]
fn over_quota_requests_are_rejected_with_typed_errors_not_stalled() {
    let (net, _server) = serve_with(
        16,
        403,
        NetConfig { workers: 1, max_inflight_per_conn: 4, ..NetConfig::default() },
    );
    let addr = net.local_addr();
    let mut canary = EqClient::connect(addr).unwrap();
    canary.ping().unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();

    // The only event loop is kept busy first, by an ingest from another
    // connection: once `bytes_in` shows the ingest read, the loop is
    // running it, so the pings below are all in the socket by the time the
    // loop reads it again, and a burst split over two reads tests nothing.
    let patches = ArchiveGenerator::new(GeneratorConfig::tiny(48, 4031)).unwrap().generate();
    let mut ingest = Vec::new();
    let body = proto::RequestBody::Ingest { patches: patches.patches().to_vec() };
    proto::write_request(&mut ingest, &proto::Request { id: 1, body }).unwrap();
    let mut busy = TcpStream::connect(addr).unwrap();
    let read_before = net.net_stats().bytes_in;
    busy.write_all(&ingest).unwrap();
    while net.net_stats().bytes_in < read_before + ingest.len() as u64 {
        std::thread::yield_now();
    }

    // Twelve pings in ONE write: they arrive as one burst, and a loop
    // admits a whole burst before it answers any of it, so exactly the
    // quota is admitted before any response can retire in-flight slots.
    let mut burst = Vec::new();
    for id in 1..=12u64 {
        proto::write_request(&mut burst, &proto::Request { id, body: proto::RequestBody::Ping })
            .unwrap();
    }
    stream.write_all(&burst).unwrap();
    stream.flush().unwrap();

    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut pongs = 0u64;
    let mut overloaded = 0u64;
    for expected_id in 1..=12u64 {
        let response = proto::read_response(&mut stream).unwrap().expect("a response per request");
        assert_eq!(response.id, expected_id, "responses come back in request order");
        match response.body {
            proto::ResponseBody::Pong => pongs += 1,
            proto::ResponseBody::Error(payload) => {
                assert_eq!(payload.code, proto::ErrorCode::Overloaded);
                assert!(!payload.message.is_empty());
                overloaded += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(pongs, 4, "requests within quota are served");
    assert_eq!(overloaded, 8, "requests over quota are rejected, not stalled");
    let _ = busy.set_read_timeout(Some(Duration::from_secs(30)));
    let report = proto::read_response(&mut busy).unwrap().expect("the ingest is answered");
    assert!(matches!(report.body, proto::ResponseBody::Ingest(_)), "{:?}", report.body);

    // The flooding connection survives rejection and is not a fault.
    stream.write_all(&ping_frame()).unwrap();
    let response = proto::read_response(&mut stream).unwrap().unwrap();
    assert_eq!(response.id, 77);
    assert!(matches!(response.body, proto::ResponseBody::Pong));

    let stats = net.net_stats();
    assert!(stats.rejected_overload >= 1);
    assert_eq!(net.connections_failed(), 0, "rejection is not a connection fault");
    canary.ping().unwrap();
    net.shutdown();
}

/// Slow-loris defence: a client that floods queries and never reads its
/// responses is evicted once its output backlog trips the write cap (or
/// stalls past the write timeout) — it can no longer pin server memory —
/// while a healthy client on the same server keeps being served.
#[test]
fn slow_readers_are_evicted_and_service_continues() {
    let (net, server) = serve_with(
        48,
        404,
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

    // The loris: pipelined searches in bursts, never reading a byte of the
    // response stream.  How much unread output the kernel's (autotuned)
    // loopback buffers swallow before the server's writes stall is not
    // ours to know, so the flood goes on until the eviction shows — bounded
    // by a request count (gigabytes of answers) and a deadline, never by a
    // guess at buffer sizes.
    let mut loris = TcpStream::connect(addr).unwrap();
    let _ = loris.set_write_timeout(Some(Duration::from_secs(2)));
    let spec = agoraeo::earthqube::net::query_to_spec(&ImageQuery::all());
    let mut burst = Vec::new();
    for id in 1..=100u64 {
        proto::write_request(
            &mut burst,
            &proto::Request { id, body: proto::RequestBody::Search(spec.clone()) },
        )
        .unwrap();
    }
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

    // The evicted socket is dead; the healthy client is untouched.
    assert_eq!(canary.search(&ImageQuery::all()).unwrap(), expected);
    canary.ping().unwrap();
    drop(loris);
    net.shutdown();
}

/// An event loop writes its answers itself, so it must never park on a
/// peer: with ONE loop and one connection whose backlog is stuck (the peer
/// never reads, the write timeout is seconds away), a canary is still
/// served at once — and the stuck connection is evicted when its time is up.
#[test]
fn a_stuck_backlog_never_parks_the_only_worker() {
    let (net, server) = serve_with(
        48,
        405,
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

    // Flood without reading until the loop's write stops short: the socket
    // took what its buffers hold and the rest is a backlog left to POLLOUT.
    let mut stuck = TcpStream::connect(addr).unwrap();
    let _ = stuck.set_write_timeout(Some(Duration::from_secs(2)));
    let spec = agoraeo::earthqube::net::query_to_spec(&ImageQuery::all());
    let mut burst = Vec::new();
    for id in 1..=32u64 {
        proto::write_request(
            &mut burst,
            &proto::Request { id, body: proto::RequestBody::Search(spec.clone()) },
        )
        .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while net.net_stats().responses_deferred == 0 && Instant::now() < deadline {
        stuck.write_all(&burst).expect("the server keeps reading requests");
    }
    let stats = net.net_stats();
    assert!(stats.responses_deferred >= 1, "the unread socket must fill up: {stats:?}");

    // The backlog is stuck and its connection still open; the one loop is
    // free all the same.
    assert_eq!(canary.search(&ImageQuery::all()).unwrap(), expected);
    canary.ping().unwrap();
    assert_eq!(net.net_stats().evicted_slow, 0, "served while the backlog was still stuck");

    let deadline = Instant::now() + Duration::from_secs(20);
    while net.net_stats().evicted_slow == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(net.net_stats().evicted_slow, 1, "the stuck connection times out");
    assert_eq!(net.connections_failed(), 0, "eviction is not a protocol fault");
    canary.ping().unwrap();
    drop(stuck);
    net.shutdown();
}

/// Faults arriving *concurrently* with real traffic: four clients hammer
/// queries while four abusers inject corrupt frames; every legitimate
/// response must stay correct.
#[test]
fn concurrent_faults_do_not_perturb_live_traffic() {
    let (net, server) = serve(16, 402);
    let addr = net.local_addr();
    let expected = server.search(&ImageQuery::all()).unwrap();

    std::thread::scope(|scope| {
        for _ in 0..2 {
            let expected = expected.clone();
            scope.spawn(move || {
                let mut client = EqClient::connect(addr).unwrap();
                for _ in 0..8 {
                    assert_eq!(client.search(&ImageQuery::all()).unwrap(), expected);
                }
            });
        }
        for i in 0..4u8 {
            scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                let mut frame = ping_frame();
                match i % 3 {
                    0 => {
                        frame[0] = b'X'; // garbage magic
                        let _ = stream.write_all(&frame);
                        drain_to_close(&mut stream);
                    }
                    1 => {
                        // Torn header: the server is rightfully waiting for
                        // the rest, so die instead of awaiting a reply.
                        let _ = stream.write_all(&frame[..5]);
                    }
                    _ => {
                        let last = frame.len() - 1;
                        frame[last] ^= 0x80; // corrupt payload
                        let _ = stream.write_all(&frame);
                        drain_to_close(&mut stream);
                    }
                }
            });
        }
    });

    // The pool survived the storm.
    let mut client = EqClient::connect(addr).unwrap();
    assert_eq!(client.search(&ImageQuery::all()).unwrap(), expected);
    net.shutdown();
}
