//! End-to-end test of the live-upgrade pipeline: a multi-hop upgrade chain
//! over a running execution, with bad revisions that must be rolled back
//! automatically while the original fleet keeps running.
//!
//! The chain walked here: rev-a (launched leader) → rev-b (identical
//! behaviour, promoted) → rev-crash (deterministic crash during replay,
//! rolled back) → rev-divergent (unruled extra syscall, killed by the
//! divergence check and rolled back) → rev-c (benign extra syscall covered
//! by scoped rewrite rules, promoted).  A slowed-down rev-c then checks
//! that a promoted candidate drains the old leader's tail under its own
//! rules.
//!
//! The last test walks the §5.1 Redis revision range the same way, under
//! live client traffic: the zero-downtime bar is that no client request
//! goes unanswered across the whole 8-revision chain.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use varan::apps::clients::{connect_retry, read_until_satisfied, CLIENT_READ_TIMEOUT};
use varan::apps::revisions;
use varan::apps::servers::ServerConfig;
use varan::core::coordinator::{NvxConfig, NvxSystem};
use varan::core::fleet::FleetConfig;
use varan::core::program::{ProgramExit, SyscallInterface, VersionProgram};
use varan::core::upgrade::{
    RollbackReason, StageOutcome, UpgradeConfig, UpgradeOrchestrator, UpgradeStep,
};
use varan::core::RuleEngine;
use varan::kernel::syscall::SyscallRequest;
use varan::kernel::{Kernel, Sysno};

/// A self-driving service revision: every iteration issues a fixed syscall
/// mix, with per-revision quirks that model the §2.3 divergence classes.
struct Service {
    revision: String,
    iterations: u32,
    /// Issue an extra `getuid` before each `getegid` (rev-c's new check).
    extra_getuid: bool,
    /// Issue an unruled extra `open` each iteration (the divergent rev).
    extra_open: bool,
    /// Crash (SIGSEGV) at this iteration (the crashing rev).
    crash_at: Option<u32>,
    /// While set, sleep 20 ms every 32 iterations: a follower that trails
    /// its leader by up to a ring's worth of events.
    drag: Option<Arc<AtomicBool>>,
}

impl Service {
    fn new(revision: &str, iterations: u32) -> Self {
        Service {
            revision: revision.to_owned(),
            iterations,
            extra_getuid: false,
            extra_open: false,
            crash_at: None,
            drag: None,
        }
    }
}

impl VersionProgram for Service {
    fn name(&self) -> String {
        format!("service-{}", self.revision)
    }

    fn run(&mut self, sys: &mut dyn SyscallInterface) -> ProgramExit {
        let fd = sys.open("/dev/zero", 0);
        for i in 0..self.iterations {
            if Some(i) == self.crash_at {
                return ProgramExit::Crashed(varan::kernel::signal::Signal::Sigsegv);
            }
            if self.extra_open {
                sys.open("/tmp/divergent", 0);
            }
            if self.extra_getuid {
                sys.syscall(&SyscallRequest::new(Sysno::Getuid, [0; 6]));
            }
            sys.syscall(&SyscallRequest::new(Sysno::Getegid, [0; 6]));
            sys.read(fd as i32, 64);
            sys.time();
            // Pace the service on wall time so the run spans the whole
            // upgrade chain in release builds too (an un-paced release
            // leader finishes the entire workload before the later hops
            // can canary and soak).  Followers replay the same program, so
            // the pacing never desynchronizes the streams.
            if i % 2048 == 0 {
                std::thread::sleep(Duration::from_millis(10));
            }
            if let Some(drag) = &self.drag {
                if i % 32 == 0 && drag.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        sys.close(fd as i32);
        sys.exit(0);
        ProgramExit::Exited(0)
    }
}

fn journal_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("varan-upgrade-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The removal rule every *old* revision needs once rev-c leads: skip the
/// leader's extra `getuid` when the follower's next call is `getegid`.
fn skip_new_getuid() -> RuleEngine {
    let mut rules = RuleEngine::new();
    rules
        .allow_skipped_call(
            "skip-revc-getuid",
            Sysno::Getuid.number(),
            Sysno::Getegid.number(),
        )
        .unwrap();
    rules
}

/// The addition rule rev-c needs while replaying an old revision's stream:
/// its extra `getuid` is allowed when the leader's next event is `getegid`.
fn allow_new_getuid() -> RuleEngine {
    let mut rules = RuleEngine::new();
    rules
        .allow_extra_call(
            "allow-revc-getuid",
            Sysno::Getuid.number(),
            Sysno::Getegid.number(),
        )
        .unwrap();
    rules
}

#[test]
fn upgrade_chain_promotes_good_revisions_and_rolls_back_bad_ones() {
    const ITERATIONS: u32 = 150_000;

    let kernel = Kernel::new();
    let dir = journal_dir("chain");
    // The launched fleet: a single leader (rev-a). Old revisions fall back
    // to the default rule set, which already knows how to skip rev-c's
    // extra getuid once rev-c leads.
    let config = NvxConfig::default()
        .with_rules(skip_new_getuid())
        .with_fleet(FleetConfig::for_upgrades(&dir, 4));
    let versions: Vec<Box<dyn VersionProgram>> = vec![Box::new(Service::new("a", ITERATIONS))];
    let running = NvxSystem::launch(&kernel, versions, config).expect("launch");
    let fleet = running.fleet().expect("fleet enabled");

    let orchestrator = UpgradeOrchestrator::new(
        fleet.clone(),
        UpgradeConfig {
            soak_events: 64,
            ..UpgradeConfig::default()
        },
    );

    let mut crashing = Service::new("crash", ITERATIONS);
    crashing.crash_at = Some(40);
    let mut divergent = Service::new("divergent", ITERATIONS);
    divergent.extra_open = true;
    let mut revc = Service::new("c", ITERATIONS);
    revc.extra_getuid = true;

    let chain = vec![
        UpgradeStep::new(Box::new(Service::new("b", ITERATIONS))),
        UpgradeStep::new(Box::new(crashing)),
        UpgradeStep::new(Box::new(divergent)),
        UpgradeStep::new(Box::new(revc))
            .with_candidate_rules(allow_new_getuid())
            .with_retiree_rules(skip_new_getuid()),
    ];
    let upgrade_report = orchestrator.run_chain(chain);

    // Hop outcomes: b and c promoted, the crash and divergence rolled back.
    assert_eq!(upgrade_report.stages.len(), 4);
    assert!(
        upgrade_report.stages[0].promoted(),
        "rev-b: {:?}",
        upgrade_report.stages[0]
    );
    match &upgrade_report.stages[1].outcome {
        StageOutcome::RolledBack(RollbackReason::CandidateFailed(reason)) => {
            assert!(reason.contains("crashed"), "unexpected failure: {reason}");
        }
        other => panic!("rev-crash should crash during replay, got {other:?}"),
    }
    match &upgrade_report.stages[2].outcome {
        StageOutcome::RolledBack(RollbackReason::CandidateFailed(reason)) => {
            assert!(reason.contains("killed"), "unexpected failure: {reason}");
        }
        other => panic!("rev-divergent should be killed by the divergence check, got {other:?}"),
    }
    assert!(
        upgrade_report.stages[3].promoted(),
        "rev-c: {:?}",
        upgrade_report.stages[3]
    );
    assert_eq!(upgrade_report.promoted(), 2);
    assert_eq!(upgrade_report.rolled_back(), 2);

    // Leadership ended on rev-c.
    assert_eq!(
        Some(upgrade_report.final_leader),
        upgrade_report.stages[3].candidate_index,
    );
    assert_eq!(fleet.current_leader_index(), upgrade_report.final_leader);

    // rev-c's extra getuid calls were allowed by its scoped addition rules
    // while it replayed the old stream.
    assert!(
        upgrade_report.stages[3].divergences_allowed > 0,
        "rev-c replayed an old revision's stream through its scoped rules"
    );

    let report = running.wait();
    assert!(report.all_clean(), "exits: {:?}", report.exits);

    // The launched rev-a survived both handovers as a follower and exited
    // cleanly; its divergences against rev-c's stream were skipped by the
    // default removal rule.
    assert!(
        report.versions[0].divergences_allowed > 0,
        "rev-a skipped rev-c's extra getuid events: {:?}",
        report.versions[0]
    );
    assert_eq!(report.versions[0].divergences_killed, 0);

    // Member bookkeeping: promoted revisions ran to clean exits, bad ones
    // recorded their failures.
    let members = fleet.version_members();
    assert_eq!(members.len(), 4);
    assert_eq!(members[0].exit().as_deref(), Some("exited(0)"), "rev-b");
    assert!(members[1].failure().is_some(), "rev-crash failed");
    assert!(members[2].failure().is_some(), "rev-divergent failed");
    assert_eq!(members[3].exit().as_deref(), Some("exited(0)"), "rev-c");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn promoted_candidate_drains_the_old_leaders_tail_under_its_own_rules() {
    const ITERATIONS: u32 = 150_000;

    let kernel = Kernel::new();
    let dir = journal_dir("tail");
    let config = NvxConfig::default()
        .with_rules(skip_new_getuid())
        .with_fleet(FleetConfig::for_upgrades(&dir, 2));
    let versions: Vec<Box<dyn VersionProgram>> = vec![Box::new(Service::new("a", ITERATIONS))];
    let running = NvxSystem::launch(&kernel, versions, config).expect("launch");
    let fleet = running.fleet().expect("fleet enabled");
    let orchestrator = UpgradeOrchestrator::new(
        fleet.clone(),
        UpgradeConfig {
            soak_events: 64,
            ..UpgradeConfig::default()
        },
    );

    // Once live, rev-c drags, so the leader runs up to a ring's worth of
    // events ahead of it and the handover leaves it a long tail to drain.
    // Every iteration of that tail needs rev-c's own rule for its extra
    // getuid: without it the drain would skip the leader's events and
    // rev-c would execute them a second time as leader.
    let drag = Arc::new(AtomicBool::new(false));
    let watcher = {
        let fleet = fleet.clone();
        let drag = Arc::clone(&drag);
        std::thread::spawn(move || {
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            while std::time::Instant::now() < deadline {
                if fleet
                    .version_members()
                    .iter()
                    .any(|member| member.is_live())
                {
                    drag.store(true, Ordering::Release);
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };
    let mut revc = Service::new("c", ITERATIONS);
    revc.extra_getuid = true;
    revc.drag = Some(Arc::clone(&drag));
    let stage = orchestrator.upgrade(
        UpgradeStep::new(Box::new(revc))
            .with_candidate_rules(allow_new_getuid())
            .with_retiree_rules(skip_new_getuid()),
    );
    watcher.join().expect("watcher thread");
    assert!(drag.load(Ordering::Acquire), "rev-c never went live");
    // Keep rev-c dragging while it drains the tail, then let it lead at
    // full speed.
    std::thread::sleep(Duration::from_millis(200));
    drag.store(false, Ordering::Release);
    assert!(stage.promoted(), "rev-c: {stage:?}");

    let report = running.wait();
    assert!(report.all_clean(), "exits: {:?}", report.exits);
    assert_eq!(report.versions[0].divergences_killed, 0);
    let members = fleet.version_members();
    assert_eq!(members[0].exit().as_deref(), Some("exited(0)"), "rev-c");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_of_a_promoted_candidate_fails_over_to_the_retired_leader() {
    const ITERATIONS: u32 = 120_000;

    let kernel = Kernel::new();
    let dir = journal_dir("late-crash");
    let config = NvxConfig::default().with_fleet(FleetConfig::for_upgrades(&dir, 3));
    let versions: Vec<Box<dyn VersionProgram>> = vec![Box::new(Service::new("a", ITERATIONS))];
    let running = NvxSystem::launch(&kernel, versions, config).expect("launch");
    let fleet = running.fleet().expect("fleet enabled");
    let orchestrator = UpgradeOrchestrator::new(
        fleet.clone(),
        UpgradeConfig {
            soak_events: 64,
            ..UpgradeConfig::default()
        },
    );

    // The candidate soaks clean and is promoted, then hits its crash bug
    // much later, while *leading*.  The retired original leader — still
    // attached as a follower — must take leadership back, so the run
    // completes cleanly.
    let mut late_crash = Service::new("late-crash", ITERATIONS);
    late_crash.crash_at = Some(100_000);
    let stage = orchestrator.upgrade(UpgradeStep::new(Box::new(late_crash)));
    assert!(stage.promoted(), "stage: {stage:?}");

    let report = running.wait();
    assert!(report.all_clean(), "exits: {:?}", report.exits);
    assert_eq!(
        fleet.current_leader_index(),
        0,
        "leadership rolled back to the retired original leader"
    );
    // The re-promoted leader restarted its interrupted call (§3.2/§5.1).
    assert!(report.versions[0].restarts >= 1, "{:?}", report.versions[0]);
    let members = fleet.version_members();
    assert!(
        members[0]
            .failure()
            .map(|failure| failure.0.contains("crashed"))
            .unwrap_or(false),
        "the crashed ex-leader recorded its failure: {:?}",
        members[0].failure()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rolled_back_upgrade_leaves_the_original_fleet_intact() {
    const ITERATIONS: u32 = 40_000;

    let kernel = Kernel::new();
    let dir = journal_dir("rollback");
    let config = NvxConfig::default().with_fleet(FleetConfig::for_upgrades(&dir, 2));
    let versions: Vec<Box<dyn VersionProgram>> = vec![
        Box::new(Service::new("leader", ITERATIONS)),
        Box::new(Service::new("follower", ITERATIONS)),
    ];
    let running = NvxSystem::launch(&kernel, versions, config).expect("launch");
    let fleet = running.fleet().expect("fleet enabled");
    let orchestrator = UpgradeOrchestrator::new(
        fleet.clone(),
        UpgradeConfig {
            soak_events: 32,
            ..UpgradeConfig::default()
        },
    );

    // Let the leader run well past the crash point first, so the candidate
    // crashes while it replays the journal.  Attached any earlier, it could
    // soak 32 live events before iteration 25 and rightly be promoted.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while fleet.published() < 1_000 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut crashing = Service::new("bad", ITERATIONS);
    crashing.crash_at = Some(25);
    let stage = orchestrator.upgrade(UpgradeStep::new(Box::new(crashing)));
    assert!(!stage.promoted(), "bad revision must not be promoted: {stage:?}");

    // Leadership never moved and the fleet still has its spare slots once
    // the candidate's thread returned them.
    assert_eq!(fleet.current_leader_index(), 0);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while fleet.available_spares() < 2 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(fleet.available_spares(), 2, "candidate slot returned");
    assert_eq!(fleet.scoped_rules().scoped_count(), 0, "scoped rules removed");

    let report = running.wait();
    assert!(report.all_clean(), "exits: {:?}", report.exits);
    assert_eq!(report.promotions, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn redis_rolling_upgrade_under_live_traffic_fails_no_request() {
    const PORT: u16 = 6379;
    const CONNECTIONS: u64 = 400;
    const COMMANDS_PER_CONNECTION: usize = 5;

    let kernel = Kernel::new();
    let dir = journal_dir("redis-chain");
    let server_config = ServerConfig::on_port(PORT).with_connections(CONNECTIONS);
    let (initial, steps) = revisions::redis_upgrade_chain(&server_config);
    assert_eq!(steps.len(), 7, "8 revisions, 7 hops");

    // The oldest revision launches alone; every later one joins at runtime.
    // Ten spare slots: each retired ex-leader keeps one as a warm rollback
    // target, plus one in-flight canary.  A private registry keeps the
    // promote-latency samples of this run apart from every other test's.
    let obs = Arc::new(varan_obs::Registry::new());
    let config = NvxConfig::default()
        .with_fleet(FleetConfig::for_upgrades(&dir, 10))
        .with_obs(Arc::clone(&obs));
    let running = NvxSystem::launch(&kernel, vec![initial], config).expect("launch");
    let fleet = running.fleet().expect("fleet enabled");
    let orchestrator = UpgradeOrchestrator::new(
        fleet.clone(),
        UpgradeConfig {
            soak_events: 120,
            ..UpgradeConfig::default()
        },
    );

    // Every command must receive its reply.  The HMGET probes a key that
    // never exists: healthy revisions answer `*-1`, the buggy one would
    // crash.  Connections are paced while the chain is in flight so every
    // handover happens under live load.
    let chain_done = Arc::new(AtomicBool::new(false));
    let client_kernel = kernel.clone();
    let client_chain_done = Arc::clone(&chain_done);
    let client = std::thread::spawn(move || {
        for i in 0..CONNECTIONS {
            let commands =
                format!("PING\nSET key{i} value{i}\nGET key{i}\nHMGET ghost field\nINCR hits\n");
            let Some(endpoint) = connect_retry(&client_kernel, PORT, Duration::from_secs(20))
            else {
                return Err(format!("connection {i}: no listener for 20 s"));
            };
            let answered = endpoint.write(commands.as_bytes()).is_ok()
                && read_until_satisfied(&endpoint, CLIENT_READ_TIMEOUT, |buffer| {
                    buffer.iter().filter(|&&byte| byte == b'\n').count() >= COMMANDS_PER_CONNECTION
                })
                .is_some();
            endpoint.close();
            if !answered {
                return Err(format!("connection {i}: commands unanswered"));
            }
            if !client_chain_done.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(())
    });

    let upgrade_report = orchestrator.run_chain(steps);
    chain_done.store(true, Ordering::Release);
    // Checked before waiting for the run: a service that dropped a client
    // may never see its remaining connections, so it would never exit.
    if let Err(downtime) = client.join().expect("client thread") {
        panic!(
            "client-visible downtime at {downtime}; stages: {:?}",
            upgrade_report.stages
        );
    }
    let report = running.wait();
    assert!(report.all_clean(), "exits: {:?}", report.exits);
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(upgrade_report.stages.len(), 7);
    assert!(
        upgrade_report.promoted() >= 6,
        "only {} of 7 hops promoted: {:?}",
        upgrade_report.promoted(),
        upgrade_report.stages
    );
    assert_eq!(upgrade_report.rolled_back(), 1, "the planted bad revision");

    // The per-stage figures and the telemetry histogram saw the same
    // samples: one per promoted hop, with the same maximum.
    let promote_hist = obs.metrics.promote_latency_nanos.snapshot();
    assert_eq!(promote_hist.count, upgrade_report.promoted());
    let stage_max_ms = upgrade_report
        .stages
        .iter()
        .filter(|stage| stage.promoted())
        .map(|stage| stage.promote_latency_ms)
        .fold(0.0, f64::max);
    let hist_max_ms = promote_hist.max as f64 / 1_000_000.0;
    assert!(
        (stage_max_ms - hist_max_ms).abs() < 1e-9,
        "stage max {stage_max_ms} ms vs histogram max {hist_max_ms} ms"
    );
}
