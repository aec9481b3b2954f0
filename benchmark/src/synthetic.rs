//! `syscall-dense` and `payload-journaled`: closed workloads with no client.
//! Every version runs the same loop of four syscalls; only the payload
//! sizes and the fleet (journal + joiners) differ between the two.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::adapter::{
    self, flags, FleetController, Kernel, ProgramExit, SyscallInterface, SyscallRequest, Sysno,
    VersionProgram,
};
use crate::gen;
use crate::placement;
use crate::trace::{block_id, now_ns, Span, TraceSink, BLOCK};
use crate::trial::{Arm, TrialOutcome, TrialSpec, Workload};

const SYSCALLS_PER_ITERATION: u64 = 4;

/// Latency is timed per block of syscalls and divided (block-averaged), so
/// the one timer read per block stays under 0.1% of even a native block
/// (≥ 40 µs) while a run still collects ≥ 10k samples per arm.
pub fn block_syscalls(workload: Workload) -> u64 {
    match workload {
        Workload::PayloadJournaled => 128,
        _ => 512,
    }
}

/// Syscalls around the loop: two opens, two closes, one exit.
const FRAME_SYSCALLS: u64 = 5;

/// Joiners attached per `payload-journaled` trial, and the journal's
/// records per segment (small enough that a trial rotates dozens of
/// segments, so compaction always finds a sealed segment to rewrite).
pub const JOINERS_PER_TRIAL: u64 = 8;
pub const SEGMENT_RECORDS: usize = 1_024;

/// Block timings of the recording version.
#[derive(Debug, Default)]
struct BlockLog {
    first_op_ns: u64,
    last_op_ns: u64,
    block_ns: Vec<u64>,
}

struct SyscallLoop {
    name: String,
    blocks: u64,
    iterations_per_block: u64,
    read_len: usize,
    write_len: usize,
    log: Option<Arc<Mutex<BlockLog>>>,
}

impl VersionProgram for SyscallLoop {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn run(&mut self, sys: &mut dyn SyscallInterface) -> ProgramExit {
        // /dev/null reads return EOF in the virtual kernel; /dev/zero gives
        // real payload bytes.
        let source = sys.open("/dev/zero", flags::O_RDONLY) as i32;
        let sink = sys.open("/dev/null", flags::O_WRONLY) as i32;
        let buffer = vec![0x5au8; self.write_len];
        let mut block_ns = Vec::with_capacity(self.blocks as usize);
        let first_op_ns = now_ns();
        let mut block_start = first_op_ns;
        for _ in 0..self.blocks {
            for _ in 0..self.iterations_per_block {
                sys.syscall(&SyscallRequest::new(Sysno::Getegid, [0; 6]));
                sys.time();
                sys.read(source, self.read_len);
                sys.write(sink, &buffer);
            }
            let now = now_ns();
            block_ns.push(now - block_start);
            block_start = now;
        }
        if let Some(log) = &self.log {
            *log.lock().expect("block log") = BlockLog {
                first_op_ns,
                last_op_ns: block_start,
                block_ns,
            };
        }
        sys.close(source);
        sys.close(sink);
        sys.exit(0);
        ProgramExit::Exited(0)
    }
}

/// What the joiner loop did during one trial.
#[derive(Debug, Default)]
struct JoinerLog {
    attach_ms: Vec<f64>,
    catch_up_ms: Vec<f64>,
    compacted_records: u64,
    failures: Vec<String>,
}

fn sleep_until(done: &AtomicBool, mut ready: impl FnMut() -> bool) -> bool {
    while !ready() {
        if done.load(Ordering::Acquire) {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    true
}

/// attach → wait_live → (let the anchor's segment seal) → compact → detach,
/// once per generated attach point.
fn joiner_loop(fleet: &FleetController, points: &[u64], done: &AtomicBool) -> JoinerLog {
    let mut log = JoinerLog::default();
    for (i, &point) in points.iter().enumerate() {
        if !sleep_until(done, || fleet.published() >= point) {
            break;
        }
        let started = Instant::now();
        let member = match fleet.attach(&format!("joiner-{i}")) {
            Ok(member) => member,
            Err(e) => {
                log.failures.push(format!("attach {i}: {e}"));
                break;
            }
        };
        log.attach_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if !member.wait_live(Duration::from_secs(10)) {
            // Stopped by the end of the run is not a failure of the joiner
            // (the per-trial joiner count below still notices).
            if let Some(failure) = member.failure() {
                log.failures.push(format!("joiner {i}: {failure:?}"));
            }
            fleet.detach(member.index);
            break;
        }
        if let Some(latency) = member.catch_up_latency() {
            log.catch_up_ms.push(latency.as_secs_f64() * 1e3);
        }
        // Going live moved the retention anchor to the tail, i.e. into the
        // *active* segment; compaction rewrites sealed segments only, so
        // stay attached (observing live traffic) until that segment seals.
        let sealed_at = fleet.journal().tail_sequence() + SEGMENT_RECORDS as u64;
        sleep_until(done, || fleet.journal().tail_sequence() >= sealed_at);
        match fleet.compact_journal() {
            Ok(dropped) => log.compacted_records += dropped,
            Err(e) => log.failures.push(format!("compact {i}: {e}")),
        }
        fleet.detach(member.index);
        let deadline = Instant::now() + Duration::from_secs(5);
        while fleet.available_spares() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    log
}

/// Reopens the journal (which scrubs every segment) and reads it from the
/// oldest retained record to the tail.
fn verify_journal(dir: &Path, expected_tail: u64, outcome: &mut TrialOutcome) {
    let reopened = match adapter::open_journal(dir, SEGMENT_RECORDS) {
        Ok(journal) => journal,
        Err(e) => return outcome.check("journal.reopen", false, || e),
    };
    let scrubs = reopened.scrub_reports();
    outcome.check("journal.scrub_clean", scrubs.is_empty(), || {
        format!("{scrubs:?}")
    });
    let oldest = reopened.oldest_sequence();
    match reopened.read_from(oldest, usize::MAX) {
        Ok((start, records)) => {
            let end = start + records.len() as u64;
            outcome.check(
                "journal.read_back_to_tail",
                start == oldest
                    && end == expected_tail
                    && reopened.tail_sequence() == expected_tail,
                || format!("read {start}..{end}, oldest {oldest}, tail {expected_tail}"),
            );
        }
        Err(e) => outcome.check("journal.read_back_to_tail", false, || e.to_string()),
    }
}

pub fn run(spec: &TrialSpec) -> TrialOutcome {
    let journaled = spec.workload == Workload::PayloadJournaled;
    let (read_len, write_len) = if journaled { (4_096, 4_096) } else { (64, 128) };
    let block_syscalls = block_syscalls(spec.workload);
    let blocks = (spec.size / block_syscalls).max(1);
    let ops = blocks * block_syscalls;
    let log = Arc::new(Mutex::new(BlockLog::default()));
    let sink = TraceSink::default();
    let version = |index: usize| -> Box<dyn VersionProgram> {
        let program = Box::new(SyscallLoop {
            name: format!("{}-v{index}", spec.workload.name()),
            blocks,
            iterations_per_block: block_syscalls / SYSCALLS_PER_ITERATION,
            read_len,
            write_len,
            log: (index == 0).then(|| Arc::clone(&log)),
        });
        placement::version(program, index, 0, spec.traced.then_some(&sink))
    };

    let mut outcome = TrialOutcome {
        attempted: ops,
        ..TrialOutcome::default()
    };
    let kernel = Kernel::new();
    if spec.arm == Arm::Native {
        let (exit, _) = adapter::run_native(&kernel, version(0).as_mut());
        outcome.check("exit.clean", exit.is_clean(), || format!("{exit:?}"));
    } else {
        let journal_dir =
            spec.out_dir
                .join(format!("journal-{}-{}", spec.trial, std::process::id()));
        let _ = std::fs::remove_dir_all(&journal_dir);
        let versions = (0..=spec.arm.followers()).map(version).collect();
        let launch_started = Instant::now();
        let running = match adapter::launch(
            &kernel,
            versions,
            journaled.then_some((journal_dir.as_path(), SEGMENT_RECORDS)),
        ) {
            Ok(running) => running,
            Err(e) => {
                outcome.failed = ops;
                outcome.check("launch", false, || e);
                return outcome;
            }
        };
        outcome.extra("launch_ms", launch_started.elapsed().as_secs_f64() * 1e3);

        let fleet = running.fleet();
        let done = Arc::new(AtomicBool::new(false));
        let joiner = fleet.clone().map(|fleet| {
            let points = gen::joiner_points(
                spec.seed,
                spec.trial,
                ops + FRAME_SYSCALLS,
                JOINERS_PER_TRIAL,
            );
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                // Joiners (their threads are spawned from this one) share the
                // leader's CPU; see `placement`.
                placement::pin_generator();
                joiner_loop(&fleet, &points, &done)
            })
        });
        let report = running.wait();
        done.store(true, Ordering::Release);

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
        // Every syscall of the loop is streamed: the leader publishes exactly
        // one event per call, frame included.
        let expected = ops + FRAME_SYSCALLS;
        outcome.check(
            "nvx.expected_event_count",
            report.events_published == expected,
            || format!("published {} expected {expected}", report.events_published),
        );
        outcome.extra("log_distance_p50", report.median_log_distance);
        outcome.extra("log_distance_max", report.max_log_distance);
        outcome.extra("promotions", report.promotions);
        outcome.extra("discarded_followers", report.discarded_followers);

        if let (Some(fleet), Some(joiner)) = (fleet, joiner) {
            let joined = joiner.join().expect("joiner thread");
            for failure in &joined.failures {
                outcome.check("fleet.joiner", false, || failure.clone());
            }
            // Mechanism-fires: a trial that names the journal must rotate
            // it, churn joiners through it and compact it.
            let attaches = joined.attach_ms.len() as u64;
            outcome.check(
                "fleet.all_joiners_attached",
                attaches == JOINERS_PER_TRIAL,
                || format!("{attaches} of {JOINERS_PER_TRIAL}"),
            );
            outcome.check(
                "fleet.all_joiners_went_live",
                joined.catch_up_ms.len() as u64 == attaches,
                || format!("{} of {attaches}", joined.catch_up_ms.len()),
            );
            outcome.check(
                "journal.compacted_records",
                joined.compacted_records > 0,
                || "compaction never dropped a record".into(),
            );
            let tail = fleet.journal().tail_sequence();
            let rotations = tail / SEGMENT_RECORDS as u64;
            outcome.check("journal.rotated", rotations >= 8, || {
                format!("{rotations} rotations")
            });
            outcome.check("journal.holds_every_event", tail == expected, || {
                format!("tail {tail} expected {expected}")
            });
            outcome.extra("attach_ms", joined.attach_ms.as_slice());
            outcome.extra("catch_up_ms", joined.catch_up_ms.as_slice());
            outcome.extra("compacted_records", joined.compacted_records);
            outcome.extra("rearms", fleet.rearmed());
            outcome.extra("checkpoint_chain_len", fleet.checkpoint_chain_len());
            outcome.extra("journal_segments", fleet.journal().segment_count());
            outcome.extra("journal_rotations", rotations);
            outcome.extra(
                "arena_mib",
                fleet.pool().stats().arena_bytes as f64 / (1024.0 * 1024.0),
            );
            let _ = fleet.journal().flush();
            fleet.shutdown();
            drop(fleet);
            if spec.verify_journal {
                verify_journal(&journal_dir, tail, &mut outcome);
            }
        }
        let _ = std::fs::remove_dir_all(&journal_dir);
    }

    let log = std::mem::take(&mut *log.lock().expect("block log"));
    outcome.check(
        "loop.ran_every_block",
        log.block_ns.len() as u64 == blocks,
        || format!("{} of {blocks} blocks", log.block_ns.len()),
    );
    outcome.first_op_ns = log.first_op_ns;
    outcome.last_op_ns = log.last_op_ns;
    // Block-averaged: each sample is one block's mean per-syscall latency.
    outcome.latencies_ns = log
        .block_ns
        .iter()
        .map(|&ns| ns as f64 / block_syscalls as f64)
        .collect();
    if spec.traced {
        crate::layers::collect(&sink, &mut outcome);
        // The leader's blocks become parent spans of its syscalls.
        let mut start = log.first_op_ns;
        for (k, &ns) in log.block_ns.iter().enumerate() {
            outcome.spans.push(Span {
                id: block_id(k as u64),
                parent: 0,
                name: BLOCK,
                version: 0,
                calls: 0,
                start_ns: start,
                end_ns: start + ns,
            });
            start += ns;
        }
    }
    outcome
}
