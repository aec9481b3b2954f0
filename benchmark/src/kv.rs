//! `kv-closed` and `kv-failover`: the mini-Redis behind a closed-loop
//! client over the virtual loopback.  The client sends a request only after
//! the previous reply is complete and validates every reply against the
//! generator's model.

use std::time::{Duration, Instant};

use crate::adapter::{self, Endpoint, Kernel, KvServer, NvxReport, ServerConfig, VersionProgram};
use crate::gen::{self, KvRequest};
use crate::placement;
use crate::trace::{now_ns, ClientRequest, TraceSink};
use crate::trial::{Arm, TrialOutcome, TrialSpec, Workload};

const PORT: u16 = 16_379;
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Connections per `kv-closed` trial.  `KvServer` is a single command loop
/// that serves one connection to completion before accepting the next, so
/// the client uses them one after the other (closed loop, concurrency 1).
const CONNECTIONS: usize = 2;

/// Sends `line` and reads the one-line reply.
fn exchange(endpoint: &Endpoint, line: &str, buffer: &mut Vec<u8>) -> Option<String> {
    endpoint.write(line.as_bytes()).ok()?;
    let deadline = Instant::now() + REPLY_TIMEOUT;
    loop {
        if let Some(at) = buffer.iter().position(|&b| b == b'\n') {
            let reply: Vec<u8> = buffer.drain(..=at).collect();
            return Some(String::from_utf8_lossy(&reply[..at]).into_owned());
        }
        let left = deadline.checked_duration_since(Instant::now())?;
        match endpoint.read_timeout(2_048, left) {
            Ok(chunk) if !chunk.is_empty() => buffer.extend_from_slice(&chunk),
            _ => return None, // EOF or timeout: the request failed
        }
    }
}

/// Runs one connection's script; returns the per-request records.
/// `leader_moves_after` is the request after which leadership passes to the
/// follower (failover rounds under NVX): the generator follows the leader
/// to the follower's CPU, as the placement rule (generator shares the
/// *current* leader's CPU) says.
fn drive_connection(
    kernel: &Kernel,
    conn: u32,
    script: &[KvRequest],
    leader_moves_after: Option<usize>,
    outcome: &mut TrialOutcome,
) -> Vec<ClientRequest> {
    let mut records = Vec::with_capacity(script.len());
    let Some(endpoint) = adapter::connect(kernel, PORT) else {
        outcome.attempted += script.len() as u64;
        outcome.failed += script.len() as u64;
        outcome.check("client.connect", false, || {
            format!("connection {conn} refused")
        });
        return records;
    };
    let mut buffer = Vec::new();
    for (k, request) in script.iter().enumerate() {
        let sent_ns = now_ns();
        if outcome.first_op_ns == 0 {
            outcome.first_op_ns = sent_ns;
        }
        let reply = exchange(&endpoint, &request.line, &mut buffer);
        let replied_ns = now_ns();
        let ok = reply.as_deref() == Some(request.expect.as_str());
        outcome.attempted += 1;
        if ok {
            outcome.latencies_ns.push((replied_ns - sent_ns) as f64);
        } else {
            outcome.failed += 1;
            if outcome.failed <= 3 {
                let (line, expect) = (request.line.trim_end().to_owned(), request.expect.clone());
                outcome.check("client.reply", false, || {
                    format!("conn {conn} #{k} {line:?}: got {reply:?}, expected {expect:?}")
                });
            }
        }
        outcome.last_op_ns = replied_ns;
        records.push(ClientRequest {
            conn,
            k: k as u32,
            intended_ns: sent_ns,
            sent_ns,
            replied_ns,
            ok,
        });
        if leader_moves_after == Some(k) {
            placement::pin_follower();
        }
        if reply.is_none() {
            // The stream is dead; everything left on it fails.
            let rest = (script.len() - k - 1) as u64;
            outcome.attempted += rest;
            outcome.failed += rest;
            break;
        }
    }
    endpoint.close();
    if leader_moves_after.is_some() {
        placement::pin_generator();
    }
    records
}

fn wrap(
    program: KvServer,
    index: usize,
    first_conn: u32,
    traced: bool,
    sink: &TraceSink,
) -> Box<dyn VersionProgram> {
    placement::version(Box::new(program), index, first_conn, traced.then_some(sink))
}

/// How one server lifetime (a whole `kv-closed` trial, or one failover
/// round) is run: natively on a thread, or under the monitor.
enum Server {
    Native(std::thread::JoinHandle<adapter::ProgramExit>),
    Nvx(adapter::Running),
}

fn start_server(
    kernel: &Kernel,
    arm: Arm,
    mut versions: Vec<Box<dyn VersionProgram>>,
) -> Result<Server, String> {
    if arm == Arm::Native {
        Ok(Server::Native(adapter::spawn_native(
            kernel,
            versions.remove(0),
        )))
    } else {
        adapter::launch(kernel, versions, None).map(Server::Nvx)
    }
}

fn log_distance_extras(report: &NvxReport, outcome: &mut TrialOutcome) {
    outcome.extra("log_distance_p50", report.median_log_distance);
    outcome.extra("log_distance_max", report.max_log_distance);
}

fn run_closed(spec: &TrialSpec) -> TrialOutcome {
    let mut outcome = TrialOutcome::default();
    let scripts = gen::kv_trial(spec.seed, spec.trial, CONNECTIONS, spec.size as usize);
    let sink = TraceSink::default();
    let kernel = Kernel::new();
    let config = ServerConfig::on_port(PORT).with_connections(CONNECTIONS as u64);
    let versions = (0..=spec.arm.followers())
        .map(|i| wrap(KvServer::new(config.clone()), i, 0, spec.traced, &sink))
        .collect();
    let launch_started = Instant::now();
    let server = match start_server(&kernel, spec.arm, versions) {
        Ok(server) => server,
        Err(e) => {
            outcome.attempted = (CONNECTIONS * spec.size as usize) as u64;
            outcome.failed = outcome.attempted;
            outcome.check("launch", false, || e);
            return outcome;
        }
    };
    outcome.extra("launch_ms", launch_started.elapsed().as_secs_f64() * 1e3);
    for (conn, script) in scripts.iter().enumerate() {
        let mut records = drive_connection(&kernel, conn as u32, script, None, &mut outcome);
        outcome.requests.append(&mut records);
    }
    match server {
        Server::Native(handle) => {
            let exit = handle.join().expect("native server thread");
            outcome.check("exit.clean", exit.is_clean(), || format!("{exit:?}"));
        }
        Server::Nvx(running) => {
            let report = running.wait();
            outcome.check("nvx.all_clean", report.all_clean(), || {
                format!("{:?}", report.exits)
            });
            outcome.check(
                "nvx.no_discarded_followers",
                report.discarded_followers == 0,
                || report.discarded_followers.to_string(),
            );
            outcome.check("nvx.no_promotions", report.promotions == 0, || {
                report.promotions.to_string()
            });
            outcome.extra("promotions", report.promotions);
            outcome.extra("discarded_followers", report.discarded_followers);
            log_distance_extras(&report, &mut outcome);
        }
    }
    if spec.traced {
        crate::layers::collect(&sink, &mut outcome);
    }
    outcome
}

/// §5.1: every round launches a buggy leader and a healthy follower, warms
/// the store, sends the one request that crashes the leader and keeps
/// talking to whoever answers.  The native arm (and the 0-follower arm,
/// which has nobody to promote) run the healthy revision alone.
fn run_failover(spec: &TrialSpec) -> TrialOutcome {
    let mut outcome = TrialOutcome::default();
    let rounds = spec.size as usize;
    let crash_points = gen::crash_points(spec.seed, spec.trial, rounds);
    let sink = TraceSink::default();
    let config = ServerConfig::on_port(PORT).with_connections(1);
    let mut trigger_ns = Vec::with_capacity(rounds);
    let mut launch_ms = Vec::with_capacity(rounds);
    let (mut promotions, mut discarded, mut unclean) = (0u64, 0u64, Vec::new());
    for (round, &crash_at) in crash_points.iter().enumerate() {
        let script = gen::failover_round(round, crash_at);
        let kernel = Kernel::new();
        // The client numbers this round's single connection `round`.
        let conn = round as u32;
        let healthy = |i| {
            let program = KvServer::new(config.clone()).with_revision("9a22de8", false);
            wrap(program, i, conn, spec.traced, &sink)
        };
        let versions = if spec.arm == Arm::Nvx {
            let buggy = KvServer::new(config.clone()).with_revision("7fb16ba", true);
            vec![wrap(buggy, 0, conn, spec.traced, &sink), healthy(1)]
        } else {
            vec![healthy(0)]
        };
        let launch_started = Instant::now();
        let server = match start_server(&kernel, spec.arm, versions) {
            Ok(server) => server,
            Err(e) => {
                outcome.attempted += script.len() as u64;
                outcome.failed += script.len() as u64;
                outcome.check("launch", false, || e);
                continue;
            }
        };
        launch_ms.push(launch_started.elapsed().as_secs_f64() * 1e3);
        let failover_at = (spec.arm == Arm::Nvx).then_some(crash_at);
        let records = drive_connection(&kernel, conn, &script, failover_at, &mut outcome);
        if let Some(trigger) = records.get(crash_at).filter(|r| r.ok) {
            trigger_ns.push((trigger.replied_ns - trigger.sent_ns) as f64);
        }
        if spec.traced {
            outcome.requests.extend(records);
        }
        match server {
            Server::Native(handle) => {
                let exit = handle.join().expect("native server thread");
                if !exit.is_clean() {
                    unclean.push(format!("round {round}: {exit:?}"));
                }
            }
            Server::Nvx(running) => {
                let report = running.wait();
                promotions += report.promotions;
                discarded += report.discarded_followers;
                // With a follower the leader is expected to crash and the
                // follower to finish cleanly; alone, the healthy version
                // must exit cleanly.
                let survivor = report
                    .exits
                    .last()
                    .and_then(|e| e.as_deref())
                    .unwrap_or("none");
                let leader = report
                    .exits
                    .first()
                    .and_then(|e| e.as_deref())
                    .unwrap_or("none");
                let as_expected = survivor.starts_with("exited")
                    && (spec.arm != Arm::Nvx || leader.starts_with("crashed"));
                if !as_expected {
                    unclean.push(format!("round {round}: {:?}", report.exits));
                }
                if round == 0 {
                    log_distance_extras(&report, &mut outcome);
                }
            }
        }
    }
    outcome.check("exits.as_expected", unclean.is_empty(), || {
        format!("{} rounds, first: {}", unclean.len(), unclean[0])
    });
    if spec.arm == Arm::Nvx {
        // Mechanism-fires: every round must really fail over.
        outcome.check(
            "failover.promotions_equal_rounds",
            promotions == rounds as u64,
            || format!("{promotions} promotions in {rounds} rounds"),
        );
        outcome.check("nvx.no_discarded_followers", discarded == 0, || {
            discarded.to_string()
        });
    }
    outcome.check(
        "failover.every_trigger_answered",
        trigger_ns.len() == rounds,
        || format!("{} of {rounds}", trigger_ns.len()),
    );
    outcome.extra("promotions", promotions);
    outcome.extra("discarded_followers", discarded);
    outcome.extra("trigger_ns", trigger_ns.as_slice());
    outcome.extra("launch_ms", crate::stats::median(&launch_ms));
    if spec.traced {
        crate::layers::collect(&sink, &mut outcome);
    }
    outcome
}

pub fn run(spec: &TrialSpec) -> TrialOutcome {
    match spec.workload {
        Workload::KvClosed => run_closed(spec),
        _ => run_failover(spec),
    }
}
