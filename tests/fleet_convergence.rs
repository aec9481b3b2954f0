//! Elastic-fleet integration: a follower attached to an already-running
//! N-version execution catches up via kernel checkpoint + journal replay
//! and thereafter observes the **identical** event stream —
//! sequence-for-sequence — as a follower that has been watching from the
//! start.

use std::time::Duration;

use varan::core::coordinator::{NvxConfig, NvxSystem};
use varan::core::fleet::{FleetConfig, FleetController};
use varan::core::program::{ProgramExit, SyscallInterface, VersionProgram};
use varan::kernel::syscall::SyscallRequest;
use varan::kernel::{Kernel, Sysno};

/// Created by a test to end [`SustainedLoad`] before its last iteration.
const STOP_FILE: &str = "/stop";

/// A steady stream of system calls with out-of-line payloads mixed in, for
/// `iterations` rounds or until [`STOP_FILE`] exists.  The leader's `open`
/// result is replayed to every follower, so all versions stop at the same
/// event.
struct SustainedLoad {
    name: String,
    iterations: u32,
}

impl VersionProgram for SustainedLoad {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn run(&mut self, sys: &mut dyn SyscallInterface) -> ProgramExit {
        let fd = sys.open("/dev/zero", 0);
        for i in 0..self.iterations {
            sys.syscall(&SyscallRequest::new(Sysno::Getegid, [0; 6]));
            sys.read(fd as i32, 64);
            if i % 16 == 0 {
                sys.time();
                let stop = sys.open(STOP_FILE, 0);
                if stop >= 0 {
                    sys.close(stop as i32);
                    break;
                }
            }
        }
        sys.close(fd as i32);
        sys.exit(0);
        ProgramExit::Exited(0)
    }
}

fn versions(iterations: u32) -> Vec<Box<dyn VersionProgram>> {
    (0..3)
        .map(|i| {
            Box::new(SustainedLoad {
                name: format!("rev-{i}"),
                iterations,
            }) as Box<dyn VersionProgram>
        })
        .collect()
}

fn journal_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "varan-fleet-convergence-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn mid_run_joiner_converges_to_the_from_start_stream() {
    let kernel = Kernel::new();
    let dir = journal_dir("converge");
    let config = NvxConfig::default().with_fleet(
        FleetConfig::new(&dir)
            .with_spares(2)
            .with_auto_rearm(false)
            .with_record_stream(true),
    );
    let running = NvxSystem::launch(&kernel, versions(4000), config).unwrap();
    let fleet = running.fleet().expect("fleet enabled");

    // One observer joins (essentially) from the start...
    let early = fleet.attach("from-start").unwrap();
    // ...and one joins mid-run, after a substantial journal backlog exists.
    while fleet.journal().tail_sequence() < 3000 {
        std::thread::yield_now();
    }
    let late = fleet.attach("mid-run").unwrap();
    assert!(late.start_sequence >= 3000, "attached mid-run");
    assert!(
        late.start_sequence > early.start_sequence,
        "the two joiners bracket the run"
    );

    assert!(
        early.wait_live(Duration::from_secs(30)),
        "from-start joiner failed: {:?}",
        early.failure()
    );
    assert!(
        late.wait_live(Duration::from_secs(30)),
        "mid-run joiner failed: {:?}",
        late.failure()
    );
    let report = running.wait();
    assert!(report.all_clean(), "exits: {:?}", report.exits);

    let early_stream = early.stream();
    let late_stream = late.stream();
    // Both observers drained the stream to its very end...
    assert_eq!(
        early_stream.last().map(|r| r.seq),
        Some(report.events_published - 1)
    );
    assert_eq!(
        late_stream.last().map(|r| r.seq),
        Some(report.events_published - 1)
    );
    // ...and on the overlap they agree sequence-for-sequence: same events,
    // same order, same results, same Lamport stamps.
    let offset = (late.start_sequence - early.start_sequence) as usize;
    assert!(!late_stream.is_empty());
    assert_eq!(&early_stream[offset..], &late_stream[..]);
    // The catch-up really went through the whole backlog.
    assert_eq!(
        late.events_observed(),
        report.events_published - late.start_sequence
    );
    assert!(late.catch_up_latency().is_some());

    std::fs::remove_dir_all(&dir).ok();
}

fn wait_for_tail(fleet: &FleetController, sequence: u64) {
    while fleet.journal().tail_sequence() < sequence {
        std::thread::yield_now();
    }
}

#[test]
fn joiner_after_compaction_converges_to_the_from_start_stream() {
    const SEGMENT: u64 = 256;
    let kernel = Kernel::new();
    let dir = journal_dir("compact");
    let mut fleet_config = FleetConfig::new(&dir)
        .with_spares(10)
        .with_auto_rearm(false)
        .with_record_stream(true);
    fleet_config.journal = fleet_config.journal.with_segment_records(SEGMENT as usize);
    let config = NvxConfig::default().with_fleet(fleet_config);
    let running = NvxSystem::launch(&kernel, versions(1_000_000), config).unwrap();
    let fleet = running.fleet().expect("fleet enabled");

    let early = fleet.attach("from-start").unwrap();
    assert!(
        early.wait_live(Duration::from_secs(30)),
        "{:?}",
        early.failure()
    );

    // A joiner going live moves the retention anchor to the tail; once the
    // segment holding the anchor seals, everything below it is dead.  The
    // fleet also compacts by itself when the anchor moves, so if the leader
    // sealed that segment first there is nothing left for the explicit
    // call: churn another joiner.
    let mut dropped = 0;
    for i in 0..8 {
        let joiner = fleet.attach(&format!("churn-{i}")).unwrap();
        assert!(
            joiner.wait_live(Duration::from_secs(30)),
            "{:?}",
            joiner.failure()
        );
        wait_for_tail(&fleet, fleet.journal().tail_sequence() + SEGMENT);
        dropped = fleet.compact_journal().unwrap();
        if dropped > 0 {
            break;
        }
    }
    assert!(dropped > 0, "compaction dropped no records");

    let late = fleet.attach("after-compaction").unwrap();
    assert!(
        late.wait_live(Duration::from_secs(30)),
        "{:?}",
        late.failure()
    );
    kernel.populate_file(STOP_FILE, Vec::new()).unwrap();
    let report = running.wait();
    assert!(report.all_clean(), "exits: {:?}", report.exits);

    // The post-compaction joiner drained the stream to its end and agrees
    // with the from-start observer sequence-for-sequence.
    let early_stream = early.stream();
    let late_stream = late.stream();
    assert_eq!(
        late_stream.last().map(|r| r.seq),
        Some(report.events_published - 1)
    );
    let offset = (late.start_sequence - early.start_sequence) as usize;
    assert!(!late_stream.is_empty());
    assert_eq!(&early_stream[offset..], &late_stream[..]);
    assert_eq!(
        late.events_observed(),
        report.events_published - late.start_sequence
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn leader_crash_during_catch_up_promotes_a_live_follower() {
    // A leader that crashes mid-run while a joiner may still be catching
    // up: promotion must go to a launched (live) follower — never a fleet
    // observer — and the run must survive.
    struct CrashingLoad {
        name: String,
        iterations: u32,
        crash_at: Option<u32>,
    }
    impl VersionProgram for CrashingLoad {
        fn name(&self) -> String {
            self.name.clone()
        }
        fn run(&mut self, sys: &mut dyn SyscallInterface) -> ProgramExit {
            for i in 0..self.iterations {
                if Some(i) == self.crash_at {
                    return ProgramExit::Crashed(varan::kernel::signal::Signal::Sigsegv);
                }
                sys.syscall(&SyscallRequest::new(Sysno::Getegid, [0; 6]));
                sys.time();
            }
            sys.exit(0);
            ProgramExit::Exited(0)
        }
    }

    let kernel = Kernel::new();
    let dir = journal_dir("crash");
    let config = NvxConfig::default().with_fleet(
        FleetConfig::new(&dir).with_spares(1).with_auto_rearm(false),
    );
    let versions: Vec<Box<dyn VersionProgram>> = vec![
        Box::new(CrashingLoad {
            name: "buggy-leader".into(),
            iterations: 3000,
            crash_at: Some(1500),
        }),
        Box::new(CrashingLoad {
            name: "healthy-1".into(),
            iterations: 3000,
            crash_at: None,
        }),
        Box::new(CrashingLoad {
            name: "healthy-2".into(),
            iterations: 3000,
            crash_at: None,
        }),
    ];
    let running = NvxSystem::launch(&kernel, versions, config).unwrap();
    let fleet = running.fleet().expect("fleet enabled");
    let observer = fleet.attach("observer").unwrap();
    let report = running.wait();
    assert_eq!(report.promotions, 1, "exits: {:?}", report.exits);
    assert!(report.exits[0].as_deref().unwrap().starts_with("crashed"));
    // The promoted follower is one of the launched versions (the observer
    // is not promotable), and the healthy followers finished cleanly.
    assert!(report.exits[1].as_deref().unwrap().starts_with("exited"));
    assert!(report.exits[2].as_deref().unwrap().starts_with("exited"));
    assert!(observer.failure().is_none(), "{:?}", observer.failure());
    std::fs::remove_dir_all(&dir).ok();
}
