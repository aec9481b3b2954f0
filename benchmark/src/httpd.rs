//! `httpd-open-sharded`: the Lighttpd stand-in serving one 4 KiB file
//! through the sharded plane (2 lanes), driven by an **open-loop** client:
//! requests go out on a seeded Poisson schedule whether or not earlier ones
//! were answered, and latency counts from each request's *intended* send
//! time.
//!
//! `HttpServer::lighttpd` serves one connection to completion before it
//! accepts the next (and the sharded member interface serialises a member's
//! threads on one lock), so the two connections carry consecutive parts of
//! the schedule (see [`phases`]); on each, a sender (this thread) and a
//! receiver thread run concurrently so sending never waits for replies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::adapter::{self, Endpoint, HttpServer, Kernel, ServerConfig, VersionProgram};
use crate::gen::{self, Planned};
use crate::placement;
use crate::stats;
use crate::trace::{now_ns, ClientRequest, TraceSink};
use crate::trial::{Arm, TrialOutcome, TrialSpec};

const PORT: u16 = 18_080;
const LANES: usize = 2;
const BODY_BYTES: usize = 4_096;
const BODY_FILL: u8 = b'v';
const REQUEST: &[u8] = b"GET /index.html HTTP/1.1\r\nHost: bench\r\n\r\n";

/// Offered rates of the NVX arm, requests/second over both connections; the
/// native arm runs only [`REFERENCE_RATE`], where `op_latency_*` and
/// `overhead_ratio` are taken.
pub const RATES_RPS: [u64; 3] = [2_000, 4_000, 8_000];
pub const REFERENCE_RATE: u64 = 4_000;

/// The latency limit `max_rate_under_slo_rps` holds each rate to.
pub const SLO_P99_NS: f64 = 1_000_000.0;

/// A request sent more than this after its intended time counts as late.
const LATE_NS: u64 = 200_000;

/// How long the receiver waits for outstanding replies once sending stops.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Splits complete HTTP responses off the front of a byte stream.
#[derive(Default)]
struct ResponseReader {
    buffer: Vec<u8>,
}

impl ResponseReader {
    /// Pops one complete response if buffered; `Some(valid)` says whether
    /// it was the expected 200 with the expected body.
    fn pop(&mut self) -> Option<bool> {
        let header_end = self.buffer.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
        let header = String::from_utf8_lossy(&self.buffer[..header_end]).into_owned();
        let length = header
            .lines()
            .find_map(|line| line.strip_prefix("Content-Length: "))
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        if self.buffer.len() < header_end + length {
            return None;
        }
        let response: Vec<u8> = self.buffer.drain(..header_end + length).collect();
        let body = &response[header_end..];
        Some(
            header.starts_with("HTTP/1.1 200 OK")
                && body.len() == BODY_BYTES
                && body.iter().all(|&b| b == BODY_FILL),
        )
    }
}

/// Receives `expected` responses, stamping each as its last byte arrives;
/// also returns the CPU time this (generator) thread used.
fn receive(endpoint: &Endpoint, expected: usize, received: &AtomicU64) -> (Vec<(u64, bool)>, u64) {
    let mut replies = Vec::with_capacity(expected);
    let mut reader = ResponseReader::default();
    while replies.len() < expected {
        match endpoint.read_timeout(16 * 1024, DRAIN_TIMEOUT) {
            Ok(chunk) if !chunk.is_empty() => reader.buffer.extend_from_slice(&chunk),
            _ => break, // EOF or nothing for DRAIN_TIMEOUT: the rest failed
        }
        let stamp = now_ns();
        while let Some(valid) = reader.pop() {
            replies.push((stamp, valid));
            received.fetch_add(1, Ordering::Release);
        }
    }
    (replies, crate::procfs::thread_cpu_ns())
}

/// One stretch of the schedule at a fixed offered rate.
struct Phase {
    rate_rps: u64,
    duration_ns: u64,
    /// Which connection carries it.
    conn: usize,
    /// Warm-up requests are sent, validated and counted as operations, but
    /// their latencies are not sampled.
    measured: bool,
    latencies_ns: Vec<f64>,
    attempted: u64,
    failed: u64,
    late: u64,
    /// Requests sent but unanswered as the phase's last request goes out.
    backlog_end: u64,
}

/// The schedule of one trial, in units of `unit_ns` (= `--seconds` × 25 ms).
///
/// Connection 0 carries a short untimed warm-up (the first requests of a
/// cold process pay page faults and lazy set-up no steady-state request
/// pays) and then the reference rate, for two units — it is where
/// `op_latency_*` and `overhead_ratio` come from, identically in both arms.
/// The NVX arm then drives the other two rates over connection 1 for the
/// SLO search; the native arm stops after the reference phase (its server
/// is configured for one connection).
fn phases(arm: Arm, unit_ns: u64) -> Vec<Phase> {
    let phase = |rate_rps, duration_ns, conn, measured| Phase {
        rate_rps,
        duration_ns,
        conn,
        measured,
        latencies_ns: Vec::new(),
        attempted: 0,
        failed: 0,
        late: 0,
        backlog_end: 0,
    };
    let mut phases = vec![
        phase(REFERENCE_RATE, unit_ns / 5, 0, false),
        phase(REFERENCE_RATE, 2 * unit_ns, 0, true),
    ];
    if arm != Arm::Native {
        for rate in RATES_RPS.into_iter().filter(|&r| r != REFERENCE_RATE) {
            phases.push(phase(rate, unit_ns, 1, true));
        }
    }
    phases
}

pub fn run(spec: &TrialSpec) -> TrialOutcome {
    let mut outcome = TrialOutcome::default();
    let mut phases = phases(spec.arm, spec.size * 1_000_000);
    let connections = phases.iter().map(|p| p.conn).max().unwrap_or(0) + 1;
    let plan = gen::open_loop_schedule(
        spec.seed,
        spec.trial,
        &phases
            .iter()
            .map(|p| (p.rate_rps, p.duration_ns))
            .collect::<Vec<_>>(),
    );
    outcome.attempted = plan.len() as u64;

    let kernel = Kernel::new();
    kernel
        .populate_file("/var/www/index.html", vec![BODY_FILL; BODY_BYTES])
        .expect("populate web root");
    let sink = TraceSink::default();
    let config = ServerConfig::on_port(PORT).with_connections(connections as u64);
    let version = |index: usize| -> Box<dyn VersionProgram> {
        let program = Box::new(HttpServer::lighttpd(config.clone()));
        placement::version(program, index, 0, spec.traced.then_some(&sink))
    };
    enum Server {
        Native(std::thread::JoinHandle<adapter::ProgramExit>),
        Sharded(adapter::RunningSharded),
    }
    let launch_started = Instant::now();
    let server = if spec.arm == Arm::Native {
        Server::Native(adapter::spawn_native(&kernel, version(0)))
    } else {
        let versions = (0..=spec.arm.followers()).map(version).collect();
        match adapter::launch_sharded(&kernel, versions, LANES) {
            Ok(running) => Server::Sharded(running),
            Err(e) => {
                outcome.failed = outcome.attempted;
                outcome.check("launch", false, || e);
                return outcome;
            }
        }
    };
    outcome.extra("launch_ms", launch_started.elapsed().as_secs_f64() * 1e3);

    let mut schedule_start_ns = 0u64;
    for conn in 0..connections {
        let share: Vec<Planned> = plan
            .iter()
            .copied()
            .filter(|p| phases[p.phase].conn == conn)
            .collect();
        let Some(endpoint) = adapter::connect(&kernel, PORT) else {
            outcome.failed += share.len() as u64;
            outcome.check("client.connect", false, || {
                format!("connection {conn} refused")
            });
            continue;
        };
        let received = Arc::new(AtomicU64::new(0));
        let receiver = {
            let (endpoint, received, expected) =
                (endpoint.clone(), Arc::clone(&received), share.len());
            std::thread::spawn(move || receive(&endpoint, expected, &received))
        };
        if conn == 0 {
            // The schedule's zero is the moment the first connection is up.
            schedule_start_ns = now_ns();
        }
        let mut sent = Vec::with_capacity(share.len());
        for (i, planned) in share.iter().enumerate() {
            let intended_ns = schedule_start_ns + planned.at_ns;
            // Spin, yielding: a sleeping sender pays a timer wake-up from an
            // idle (halted) virtual CPU on every request, whose cost the
            // VM's host sets and varies (README, "Placement").  Yielding
            // hands the CPU to the leader or the receiver the moment either
            // is runnable, and this thread's CPU time is not the system's
            // (`generator_cpu_ns`).
            while now_ns() < intended_ns {
                std::thread::yield_now();
            }
            let sent_ns = now_ns();
            let delivered = endpoint.write(REQUEST).is_ok();
            sent.push((intended_ns, sent_ns, delivered));
            let phase = &mut phases[planned.phase];
            if outcome.first_op_ns == 0 {
                outcome.first_op_ns = sent_ns;
            }
            phase.late += u64::from(sent_ns.saturating_sub(intended_ns) > LATE_NS);
            // Sample the backlog as each phase's last request goes out.
            if share
                .get(i + 1)
                .is_none_or(|next| next.phase != planned.phase)
            {
                phase.backlog_end = (i as u64 + 1).saturating_sub(received.load(Ordering::Acquire));
            }
        }
        let (replies, receiver_cpu_ns) = receiver.join().expect("receiver thread");
        outcome.generator_cpu_ns += receiver_cpu_ns;
        endpoint.close();
        for (k, (planned, &(intended_ns, sent_ns, delivered))) in
            share.iter().zip(&sent).enumerate()
        {
            let phase = &mut phases[planned.phase];
            phase.attempted += 1;
            let reply = replies.get(k).copied().filter(|_| delivered);
            let request = ClientRequest {
                conn: conn as u32,
                k: k as u32,
                intended_ns,
                sent_ns,
                replied_ns: reply.map_or(sent_ns, |(at, _)| at),
                ok: reply.is_some_and(|(_, valid)| valid),
            };
            if !request.ok {
                phase.failed += 1;
            } else if phase.measured {
                phase.latencies_ns.push(request.latency_ns() as f64);
            }
            outcome.last_op_ns = outcome.last_op_ns.max(request.replied_ns);
            if spec.traced {
                outcome.requests.push(request);
            }
        }
    }

    match server {
        Server::Native(handle) => {
            let exit = handle.join().expect("native server thread");
            outcome.check("exit.clean", exit.is_clean(), || format!("{exit:?}"));
        }
        Server::Sharded(running) => {
            let (report, waits) = running.wait();
            outcome.check("shard.converged", report.converged(), || {
                format!(
                    "leader {:?} members {:?}",
                    report.leader_digests, report.members
                )
            });
            let clean = report
                .members
                .iter()
                .all(|m| m.exit.is_clean() && m.failure.is_none());
            outcome.check("shard.members_clean", clean, || {
                format!("{:?}", report.members)
            });
            outcome.check("shard.no_promotions", report.promotions == 0, || {
                report.promotions.to_string()
            });
            // Mechanism-fires: the keying must actually use both lanes.
            let (min, max) = report.balance();
            outcome.check(
                "shard.both_lanes_used",
                report.shards == LANES && min > 0,
                || format!("{:?}", report.leader_counts),
            );
            outcome.extra(
                "lane_balance",
                if max == 0 {
                    0.0
                } else {
                    min as f64 / max as f64
                },
            );
            outcome.extra("shard_converged", u64::from(report.converged()));
            outcome.extra("promotions", report.promotions);
            outcome.extra("producer_waits", waits.producer_waits);
            outcome.extra("consumer_waits", waits.consumer_waits);
        }
    }

    // The reference rate carries the trial's latency samples; every rate is
    // reported on its own for the SLO search.
    let mut max_rate_under_slo = 0u64;
    for phase in &phases {
        outcome.failed += phase.failed;
        if !phase.measured {
            continue;
        }
        let rate = phase.rate_rps;
        let sorted = stats::sorted(phase.latencies_ns.clone());
        let p99 = stats::percentile_sorted(&sorted, 99.0);
        // "No growing backlog": at most 2 ms worth of requests outstanding
        // when the phase's last request is sent.
        let backlog_limit = (rate / 500).max(8);
        if p99 <= SLO_P99_NS && phase.failed == 0 && phase.backlog_end <= backlog_limit {
            max_rate_under_slo = max_rate_under_slo.max(rate);
        }
        if rate == REFERENCE_RATE {
            outcome.latencies_ns = phase.latencies_ns.clone();
            outcome.extra("backlog_end", phase.backlog_end);
        }
    }
    let late: u64 = phases.iter().map(|p| p.late).sum();
    outcome.extra("late_ratio", late as f64 / outcome.attempted.max(1) as f64);
    outcome.extra("max_rate_under_slo_rps", max_rate_under_slo);
    if spec.traced {
        crate::layers::collect(&sink, &mut outcome);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_reader_splits_pipelined_responses() {
        let mut one = b"HTTP/1.1 200 OK\r\nServer: t\r\nContent-Length: 4096\r\n\r\n".to_vec();
        one.extend(std::iter::repeat_n(BODY_FILL, BODY_BYTES));
        let mut reader = ResponseReader::default();
        reader.buffer.extend_from_slice(&one);
        reader.buffer.extend_from_slice(&one[..100]);
        assert_eq!(reader.pop(), Some(true));
        assert_eq!(reader.pop(), None, "second response is incomplete");
        reader.buffer.extend_from_slice(&one[100..]);
        assert_eq!(reader.pop(), Some(true));
        assert_eq!(reader.pop(), None);
        // A 404 or a damaged body is a complete but invalid response.
        reader
            .buffer
            .extend_from_slice(b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n");
        assert_eq!(reader.pop(), Some(false));
        let mut damaged = one.clone();
        *damaged.last_mut().unwrap() = b'x';
        reader.buffer.extend_from_slice(&damaged);
        assert_eq!(reader.pop(), Some(false));
    }
}
