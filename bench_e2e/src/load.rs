//! The load generators: closed-loop query clients and the open-loop ingest
//! writer.  Both log one [`Sample`] per request, stamped on the run's clock,
//! and leave the split into warm-up and measured window to the caller.  The
//! speed probe beside them times a fixed piece of work on the same clock.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eq_bigearthnet::Patch;
use eq_earthqube::EqClient;

use crate::metrics::Sample;
use crate::workloads::Plan;
use crate::world::World;

/// Single-patch ingests the open-loop writer sends per second.
pub const INGEST_RATE_HZ: u32 = 200;

/// What one connection did.
#[derive(Debug, Default)]
pub struct Log {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// Errors, refusals and answers with the wrong entry count.
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Log {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    pub fn merge(logs: Vec<Log>) -> Log {
        let mut all = Log::default();
        for log in logs {
            all.samples.extend(log.samples);
            all.attempted += log.attempted;
            all.failed += log.failed;
            all.first_failure = all.first_failure.or(log.first_failure);
        }
        all
    }
}

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// One simulated visitor: sends its stream's next request only after the
/// previous answer arrived, until `stop` is set.  Each answer's entry count
/// is checked.
pub fn closed_loop_client(
    addr: SocketAddr,
    world: &World,
    plan: &Plan,
    client: usize,
    clients: usize,
    origin: Instant,
    stop: &AtomicBool,
) -> Log {
    let mut log = Log::default();
    let mut connection = match EqClient::connect(addr) {
        Ok(connection) => connection,
        Err(e) => {
            log.attempted = 1;
            log.fail(format!("client {client} could not connect: {e}"));
            return log;
        }
    };
    let mut stream = plan.stream(client, clients);
    while !stop.load(Ordering::Relaxed) {
        let op = stream.next_op();
        let sent = Instant::now();
        let answer = world.remote(&mut connection, op);
        let latency_ns = sent.elapsed().as_nanos() as u64;
        log.attempted += 1;
        match answer {
            Ok(answer) if answer.response().total() == world.expected_total(op) => {
                log.samples.push(Sample { end_ns: ns_since(origin), latency_ns });
            }
            Ok(answer) => log.fail(format!(
                "{op:?}: {} entries, expected {}",
                answer.response().total(),
                world.expected_total(op)
            )),
            Err(e) => log.fail(format!("{op:?}: {e}")),
        }
    }
    log
}

/// What the ingest writer did.
#[derive(Debug, Default)]
pub struct WriterLog {
    pub log: Log,
    /// How late each request left, against its schedule.
    pub lag_ns: Vec<u64>,
    /// Indexes into the held-out patches the server acknowledged.
    pub acked: Vec<usize>,
}

/// Sends `patches[i]` as a single-patch ingest at `origin + i / rate_hz`
/// whether or not the server keeps up, until `stop` is set or the patches
/// run out.  An acknowledgement is timed from when its request was due, so
/// a stall is charged to every request it delayed.
pub fn open_loop_writer(
    addr: SocketAddr,
    patches: &[Patch],
    rate_hz: u32,
    origin: Instant,
    stop: &AtomicBool,
) -> WriterLog {
    let mut out = WriterLog::default();
    let mut connection = match EqClient::connect(addr) {
        Ok(connection) => connection,
        Err(e) => {
            out.log.attempted = 1;
            out.log.fail(format!("the writer could not connect: {e}"));
            return out;
        }
    };
    let start = Instant::now();
    let period = Duration::from_secs(1) / rate_hz;
    for (i, patch) in patches.iter().enumerate() {
        let due = start + period * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        out.lag_ns.push(due.elapsed().as_nanos() as u64);
        let report = connection.ingest(std::slice::from_ref(patch));
        let latency_ns = due.elapsed().as_nanos() as u64;
        out.log.attempted += 1;
        match report {
            Ok(report) if report.metadata_docs == 1 => {
                out.log.samples.push(Sample { end_ns: ns_since(origin), latency_ns });
                out.acked.push(i);
            }
            Ok(report) => out.log.fail(format!("ingest {i}: unexpected report {report:?}")),
            Err(e) => out.log.fail(format!("ingest {i}: {e}")),
        }
    }
    out
}

/// How often the speed probe does its piece of work: about 2 % of one core.
const PROBE_PERIOD: Duration = Duration::from_millis(25);
const PROBE_WORDS: usize = 8192;
const PROBE_PASSES: usize = 64;

/// The probe's fixed piece of work: [`PROBE_PASSES`] XOR-and-popcount passes
/// over a 64 KiB table, each with the next query of a fixed sequence.  It
/// touches nothing the program under test owns, so only the machine's speed
/// can change how long it takes.
pub fn probe_work(words: &[u64], query: &mut u64) -> u64 {
    let mut sum = 0u64;
    for _ in 0..PROBE_PASSES {
        *query = query.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        sum += words.iter().map(|w| (w ^ *query).count_ones() as u64).sum::<u64>();
    }
    sum
}

pub fn probe_words() -> Vec<u64> {
    (0..PROBE_WORDS as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect()
}

/// A thread that times [`probe_work`] every [`PROBE_PERIOD`] from `start`
/// to `finish`: how fast the machine was while everything else ran.  The
/// shared sandbox changes speed by a fifth to a third for minutes at a
/// stretch; the probe's median over an interval slows by the same share as
/// the requests served in it, and the harness divides the one by the other.
pub struct SpeedProbe {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<Sample>>,
}

impl SpeedProbe {
    pub fn start(origin: Instant) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let words = probe_words();
            let mut query = 1u64;
            let mut samples = Vec::new();
            while !stopped.load(Ordering::Relaxed) {
                let start = Instant::now();
                std::hint::black_box(probe_work(&words, &mut query));
                let latency_ns = start.elapsed().as_nanos() as u64;
                samples.push(Sample { end_ns: ns_since(origin), latency_ns });
                std::thread::sleep(PROBE_PERIOD);
            }
            samples
        });
        Self { stop, thread }
    }

    /// Stops the thread, waits for it and returns one sample per piece of
    /// work, stamped on the clock the probe was started with.
    pub fn finish(self) -> Vec<Sample> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("the speed probe panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_work_is_the_same_work_every_time() {
        let words = probe_words();
        let (mut a, mut b) = (1u64, 1u64);
        let first = probe_work(&words, &mut a);
        assert_eq!(first, probe_work(&words, &mut b));
        assert_eq!(a, b);
        // About half of the bits differ from a pseudo-random query.
        let bits = (PROBE_WORDS * PROBE_PASSES * 64) as u64;
        assert!((bits * 49 / 100..bits * 51 / 100).contains(&first), "{first} of {bits}");
    }

    #[test]
    fn probe_samples_are_stamped_on_the_callers_clock() {
        let origin = Instant::now();
        let probe = SpeedProbe::start(origin);
        std::thread::sleep(4 * PROBE_PERIOD);
        let samples = probe.finish();
        let end = ns_since(origin);
        assert!(samples.len() >= 2, "{} samples", samples.len());
        assert!(samples.windows(2).all(|w| w[0].end_ns < w[1].end_ns));
        assert!(samples.iter().all(|s| s.latency_ns > 0 && s.latency_ns <= s.end_ns));
        assert!(samples.last().unwrap().end_ns <= end);
    }
}
