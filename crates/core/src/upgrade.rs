//! Zero-downtime live upgrades: canary → soak → promote → retire.
//!
//! The paper's deployment scenarios treat the version set as fixed at launch:
//! §5.1 runs eight Redis revisions side by side so a crash in any one of them
//! is survived, and §5.2 keeps two Lighttpd revisions in lock-step under
//! rewrite rules — but both start every revision at boot.  The elastic fleet
//! (`crate::fleet`) made membership a runtime operation; this module composes
//! the two into a first-class **dynamic software update** pipeline an
//! operator could drive through a live service:
//!
//! 1. **Canary.** The candidate revision joins the running execution as a
//!    follower ([`crate::fleet::FleetController::attach_version`]): its
//!    program starts from the beginning and replays the complete spill
//!    journal, with its own [`RuleEngine`] scoped to it so benign
//!    syscall-sequence divergences between the revisions (§2.3/§3.4) are
//!    rewritten instead of fatal.  The outside world is untouched — the
//!    candidate never executes an external call.
//! 2. **Soak.** Once live on the ring, the candidate must replay a
//!    configurable number of events while its divergence and lag statistics
//!    are watched.  Crashing, diverging beyond its rule set, or falling
//!    behind the lag ceiling rolls the upgrade back.
//! 3. **Promote / retire.** The current leader picks up a handover ticket at
//!    its next system-call boundary: it stops publishing, re-registers on a
//!    spare ring slot at exactly the next sequence, and releases the
//!    candidate, which drains the ring and takes over through the existing
//!    promotion path — the same drain-then-switch used for crash failover,
//!    so the other followers observe one continuous stream and in-flight
//!    client connections keep being served (zero client-visible downtime).
//!    The retired leader keeps running as a follower of the new revision
//!    (with optional reverse rules scoped to it), available as an instant
//!    rollback target.
//! 4. **Rollback.** Any failure before the handover leaves the original
//!    fleet exactly as it was: the candidate is detached, its ring slot
//!    returns to the spare pool and its scoped rules are removed.
//!
//! The pipeline requires single-threaded application versions (the handover
//! executes on the leader's main monitor) and a fleet configured with
//! [`crate::fleet::FleetConfig::retain_history`].

use std::time::Duration;

use parking_lot::Mutex;

use crate::context::HandoverState;
use crate::fleet::{FleetController, VersionMember};
use crate::program::VersionProgram;
use crate::rules::RuleEngine;

/// How often the orchestrator polls member progress.  All orchestrator
/// waits and deadlines run on the execution's clock source — wall time in
/// production, virtual time under simulation — so the [`UpgradeConfig`]
/// timeouts keep their historical defaults while a simulated upgrade sweep
/// completes in wall microseconds.
const ORCHESTRATOR_POLL: Duration = Duration::from_millis(1);

/// Tunables of the upgrade pipeline.
#[derive(Debug, Clone)]
pub struct UpgradeConfig {
    /// Events the candidate must replay *live* (after catch-up) before it is
    /// considered soaked.
    pub soak_events: u64,
    /// Maximum replay backlog (events behind the leader) tolerated during
    /// soak; beyond it the candidate is rolled back as too slow to lead.
    pub lag_ceiling: u64,
    /// Bound on the canary stage (attach → live ring consumption).
    pub catch_up_timeout: Duration,
    /// Bound on the soak stage.
    pub soak_timeout: Duration,
    /// Bound on the handover (demote request → leadership switched).  Also
    /// bounds how long the orchestrator waits to observe the new leader's
    /// first published event.
    pub handover_timeout: Duration,
}

impl Default for UpgradeConfig {
    fn default() -> Self {
        UpgradeConfig {
            soak_events: 256,
            lag_ceiling: 4096,
            catch_up_timeout: Duration::from_secs(60),
            soak_timeout: Duration::from_secs(60),
            handover_timeout: Duration::from_secs(10),
        }
    }
}

/// Why an upgrade stage was rolled back.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RollbackReason {
    /// The candidate could not even be attached (no spare slot, member cap,
    /// missing journal history).
    AttachFailed(String),
    /// The candidate crashed, was killed by an unresolved divergence, hit a
    /// journal gap, or exited before the upgrade completed.
    CandidateFailed(String),
    /// The candidate did not reach live ring consumption in time.
    CatchUpTimeout,
    /// The candidate fell behind the lag ceiling during soak.
    LagExceeded {
        /// Observed backlog in events.
        backlog: u64,
        /// The configured ceiling.
        ceiling: u64,
    },
    /// The candidate did not replay enough live events in time.
    SoakTimeout,
    /// No spare ring slot was left for the retiring leader.
    NoSpareSlot(String),
    /// Another handover was already pending on the leader.
    HandoverRefused,
    /// The leader never reached a system-call boundary to execute the
    /// handover (e.g. parked in a blocking call with no traffic).
    HandoverTimeout,
}

impl std::fmt::Display for RollbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RollbackReason::AttachFailed(err) => write!(f, "attach failed: {err}"),
            RollbackReason::CandidateFailed(err) => write!(f, "candidate failed: {err}"),
            RollbackReason::CatchUpTimeout => write!(f, "catch-up timed out"),
            RollbackReason::LagExceeded { backlog, ceiling } => {
                write!(f, "lag {backlog} exceeded ceiling {ceiling}")
            }
            RollbackReason::SoakTimeout => write!(f, "soak timed out"),
            RollbackReason::NoSpareSlot(err) => write!(f, "no spare slot: {err}"),
            RollbackReason::HandoverRefused => write!(f, "handover refused"),
            RollbackReason::HandoverTimeout => write!(f, "handover timed out"),
        }
    }
}

/// How one upgrade stage ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageOutcome {
    /// The candidate was promoted and the old leader retired to a spare
    /// slot.
    Promoted,
    /// The upgrade was rolled back; the original fleet is intact.
    RolledBack(RollbackReason),
}

/// Statistics of one upgrade stage (one revision hop).
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Name of the candidate revision.
    pub revision: String,
    /// Version index assigned to the candidate (when it attached).
    pub candidate_index: Option<usize>,
    /// How the stage ended.
    pub outcome: StageOutcome,
    /// Canary cost: attach → live ring consumption, in milliseconds.
    pub catch_up_ms: f64,
    /// Events the candidate replayed during the soak stage.
    pub soak_events: u64,
    /// Divergences the candidate's scoped rules allowed (catch-up + soak).
    pub divergences_allowed: u64,
    /// Largest replay backlog observed during soak.
    pub max_lag: u64,
    /// Handover request → new leader's first published event, in
    /// milliseconds (0 when rolled back).
    pub promote_latency_ms: f64,
}

impl StageReport {
    /// Returns `true` if the stage promoted its candidate.
    #[must_use]
    pub fn promoted(&self) -> bool {
        matches!(self.outcome, StageOutcome::Promoted)
    }
}

/// The aggregate report of a multi-hop upgrade chain.
#[derive(Debug, Clone, Default)]
pub struct UpgradeReport {
    /// One report per attempted hop, in order.
    pub stages: Vec<StageReport>,
    /// Version index holding leadership after the chain.
    pub final_leader: usize,
}

impl UpgradeReport {
    /// Number of hops that promoted their candidate.
    #[must_use]
    pub fn promoted(&self) -> u64 {
        self.stages.iter().filter(|stage| stage.promoted()).count() as u64
    }

    /// Number of hops that were rolled back.
    #[must_use]
    pub fn rolled_back(&self) -> u64 {
        self.stages.len() as u64 - self.promoted()
    }

    /// Median promote latency over the promoted hops, in milliseconds.
    #[must_use]
    pub fn median_promote_latency_ms(&self) -> f64 {
        let mut latencies: Vec<f64> = self
            .stages
            .iter()
            .filter(|stage| stage.promoted())
            .map(|stage| stage.promote_latency_ms)
            .collect();
        if latencies.is_empty() {
            return 0.0;
        }
        latencies.sort_by(f64::total_cmp);
        latencies[latencies.len() / 2]
    }
}

/// One hop of an upgrade chain: the candidate revision plus the rewrite
/// rules that make its (and its predecessor's) benign divergences survivable.
pub struct UpgradeStep {
    /// The candidate revision's program.
    pub program: Box<dyn VersionProgram>,
    /// Rules scoped to the candidate while it replays the current leader's
    /// stream (the candidate's extra/missing calls relative to the leader).
    pub candidate_rules: RuleEngine,
    /// Rules scoped to the *retired* leader once it follows the candidate
    /// (the reverse direction), installed at promote time.
    pub retiree_rules: Option<RuleEngine>,
}

impl std::fmt::Debug for UpgradeStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpgradeStep")
            .field("program", &self.program.name())
            .field("candidate_rules", &self.candidate_rules.len())
            .field(
                "retiree_rules",
                &self.retiree_rules.as_ref().map(RuleEngine::len),
            )
            .finish()
    }
}

impl UpgradeStep {
    /// A step with no rewrite rules (revisions with identical syscall
    /// behaviour).
    #[must_use]
    pub fn new(program: Box<dyn VersionProgram>) -> Self {
        UpgradeStep {
            program,
            candidate_rules: RuleEngine::new(),
            retiree_rules: None,
        }
    }

    /// Sets the candidate-side rules, consuming and returning the step.
    #[must_use]
    pub fn with_candidate_rules(mut self, rules: RuleEngine) -> Self {
        self.candidate_rules = rules;
        self
    }

    /// Sets the retiree-side rules, consuming and returning the step.
    #[must_use]
    pub fn with_retiree_rules(mut self, rules: RuleEngine) -> Self {
        self.retiree_rules = Some(rules);
        self
    }
}

/// Drives staged dynamic software updates over a running N-version
/// execution.  One upgrade runs at a time; clone-free (borrow the fleet
/// controller wherever needed).
#[derive(Debug)]
pub struct UpgradeOrchestrator {
    fleet: FleetController,
    config: UpgradeConfig,
    /// Serialises hops: overlapping handovers would race for the leader.
    in_flight: Mutex<()>,
}

impl UpgradeOrchestrator {
    /// Creates an orchestrator over `fleet` with the given tunables.
    #[must_use]
    pub fn new(fleet: FleetController, config: UpgradeConfig) -> Self {
        UpgradeOrchestrator {
            fleet,
            config,
            in_flight: Mutex::new(()),
        }
    }

    /// The fleet controller this orchestrator drives.
    #[must_use]
    pub fn fleet(&self) -> &FleetController {
        &self.fleet
    }

    /// Runs every step of `steps` in order, continuing past rolled-back
    /// hops (a bad revision is skipped, the chain goes on from the current
    /// leader), and returns the aggregate report.
    pub fn run_chain(&self, steps: Vec<UpgradeStep>) -> UpgradeReport {
        let stages = steps.into_iter().map(|step| self.upgrade(step)).collect();
        UpgradeReport {
            stages,
            final_leader: self.fleet.current_leader_index(),
        }
    }

    /// Drives one complete upgrade hop: canary → soak → promote → retire,
    /// rolling back automatically on any failure before the handover.
    pub fn upgrade(&self, step: UpgradeStep) -> StageReport {
        let report = self.upgrade_inner(step);
        // Stage accounting covers every exit path of the hop at once.
        let obs = self.fleet.obs();
        let candidate = report.candidate_index.unwrap_or(usize::MAX) as u64;
        if report.promoted() {
            obs.metrics.promotions.add(1);
            obs.trace("upgrade.promoted", candidate, 0);
        } else {
            obs.metrics.rollbacks.add(1);
            obs.trace("upgrade.rollback", candidate, 0);
        }
        report
    }

    fn upgrade_inner(&self, step: UpgradeStep) -> StageReport {
        let _serial = self.in_flight.lock();
        let clock = self.fleet.wait_clock();
        let revision = step.program.name();
        let mut report = StageReport {
            revision,
            candidate_index: None,
            outcome: StageOutcome::RolledBack(RollbackReason::AttachFailed(String::new())),
            catch_up_ms: 0.0,
            soak_events: 0,
            divergences_allowed: 0,
            max_lag: 0,
            promote_latency_ms: 0.0,
        };

        // 1. Canary: attach the candidate and wait for the live switch.
        let member = match self.fleet.attach_version(step.program, step.candidate_rules) {
            Ok(member) => member,
            Err(err) => {
                report.outcome =
                    StageOutcome::RolledBack(RollbackReason::AttachFailed(err.to_string()));
                return report;
            }
        };
        report.candidate_index = Some(member.index);
        self.fleet
            .obs()
            .trace("upgrade.canary", member.index as u64, 0);
        let catch_up_deadline = clock.deadline(self.config.catch_up_timeout);
        loop {
            if member.is_live() {
                break;
            }
            if let Some(reason) = self.candidate_failure(&member) {
                report.divergences_allowed = member.divergences_allowed();
                report.outcome = StageOutcome::RolledBack(reason);
                return report;
            }
            if catch_up_deadline.expired() {
                self.fleet.detach_version(member.index);
                report.outcome = StageOutcome::RolledBack(RollbackReason::CatchUpTimeout);
                return report;
            }
            clock.sleep(ORCHESTRATOR_POLL);
        }
        report.catch_up_ms = member
            .catch_up_latency()
            .map(|latency| latency.as_secs_f64() * 1000.0)
            .unwrap_or(0.0);

        // 2. Soak: watch divergence, lag and liveness over live replay.
        let soak_started_events = member.events_replayed();
        self.fleet
            .obs()
            .trace("upgrade.soak", member.index as u64, soak_started_events);
        let soak_deadline = clock.deadline(self.config.soak_timeout);
        loop {
            if let Some(reason) = self.candidate_failure(&member) {
                report.divergences_allowed = member.divergences_allowed();
                report.outcome = StageOutcome::RolledBack(reason);
                return report;
            }
            let lag = self.fleet.backlog_of_slot(member.slot);
            report.max_lag = report.max_lag.max(lag);
            if lag > self.config.lag_ceiling {
                self.fleet.detach_version(member.index);
                report.outcome = StageOutcome::RolledBack(RollbackReason::LagExceeded {
                    backlog: lag,
                    ceiling: self.config.lag_ceiling,
                });
                return report;
            }
            let soaked = member.events_replayed().saturating_sub(soak_started_events);
            if soaked >= self.config.soak_events {
                report.soak_events = soaked;
                break;
            }
            if soak_deadline.expired() {
                self.fleet.detach_version(member.index);
                report.outcome = StageOutcome::RolledBack(RollbackReason::SoakTimeout);
                return report;
            }
            clock.sleep(ORCHESTRATOR_POLL);
        }
        report.divergences_allowed = member.divergences_allowed();

        // 3. Promote: post the handover ticket and wait for the leader to
        //    demote itself; retire rules for the outgoing leader first.
        let old_leader = self.fleet.current_leader_index();
        let retiree_rules_installed = if let Some(rules) = step.retiree_rules {
            self.fleet.scoped_rules().install(old_leader, rules);
            true
        } else {
            false
        };
        let rollback_rules = |this: &Self| {
            if retiree_rules_installed {
                this.fleet.scoped_rules().remove(old_leader);
            }
        };
        let Some(old_context) = self.fleet.context_of(old_leader) else {
            rollback_rules(self);
            self.fleet.detach_version(member.index);
            report.outcome = StageOutcome::RolledBack(RollbackReason::NoSpareSlot(format!(
                "unknown leader index {old_leader}"
            )));
            return report;
        };
        let ticket = match self.fleet.make_handover_ticket(member.index) {
            Ok(ticket) => ticket,
            Err(err) => {
                rollback_rules(self);
                self.fleet.detach_version(member.index);
                report.outcome =
                    StageOutcome::RolledBack(RollbackReason::NoSpareSlot(err.to_string()));
                return report;
            }
        };
        let promote_started = clock.start();
        self.fleet
            .obs()
            .trace("upgrade.promote", member.index as u64, old_leader as u64);
        if let Err(ticket) = old_context.handover.request(ticket) {
            self.fleet.return_ticket(ticket);
            rollback_rules(self);
            self.fleet.detach_version(member.index);
            report.outcome = StageOutcome::RolledBack(RollbackReason::HandoverRefused);
            return report;
        }
        let handover_deadline = clock.deadline(self.config.handover_timeout);
        loop {
            match old_context.handover.state() {
                HandoverState::Demoted => break,
                HandoverState::Aborted => {
                    // The leader refused the ticket: the candidate died in
                    // the window after the last soak check.  Its slot is
                    // already back in the pool; leadership never moved.
                    old_context.handover.reset();
                    rollback_rules(self);
                    report.outcome = StageOutcome::RolledBack(
                        RollbackReason::CandidateFailed(
                            member
                                .failure()
                                .map(|failure| failure.0)
                                .or_else(|| member.exit())
                                .unwrap_or_else(|| "died during handover".to_owned()),
                        ),
                    );
                    return report;
                }
                _ => {}
            }
            if handover_deadline.expired() {
                if let Some(ticket) = old_context.handover.cancel() {
                    self.fleet.return_ticket(ticket);
                    rollback_rules(self);
                    self.fleet.detach_version(member.index);
                    report.outcome = StageOutcome::RolledBack(RollbackReason::HandoverTimeout);
                    return report;
                }
                // The cancel lost the race: the leader is mid-demotion and
                // will acknowledge shortly — keep waiting.
            }
            clock.sleep(ORCHESTRATOR_POLL);
        }
        old_context.handover.reset();
        // The candidate keeps its canary-era rules until it has drained the
        // old leader's tail: it drops them itself when it takes over.

        // 4. The handover is irrevocable from here: leadership has switched.
        //    Wait (bounded — it needs traffic) for the new leader's first
        //    published event to measure client-visible promote latency.
        let published_at_switch = self.fleet.published();
        let publish_deadline = clock.deadline(self.config.handover_timeout);
        while self.fleet.published() <= published_at_switch && !publish_deadline.expired() {
            clock.sleep(ORCHESTRATOR_POLL);
        }
        // The stopwatch result goes into the telemetry histogram and the
        // report reads it *back* from there (`Histogram::last`): the figure
        // the bench publishes is provably the same number the live
        // introspection endpoint serves.  Hops are serialised by
        // `in_flight`, so the last recorded sample is this hop's.
        let metrics = &self.fleet.obs().metrics;
        metrics
            .promote_latency_nanos
            .record(promote_started.elapsed().as_nanos() as u64);
        report.promote_latency_ms =
            metrics.promote_latency_nanos.last() as f64 / 1_000_000.0;
        report.outcome = StageOutcome::Promoted;
        report
    }

    /// Classifies a candidate that stopped during canary or soak.
    fn candidate_failure(&self, member: &VersionMember) -> Option<RollbackReason> {
        if let Some(failure) = member.failure() {
            return Some(RollbackReason::CandidateFailed(failure.0));
        }
        if !member.is_alive() {
            return Some(RollbackReason::CandidateFailed(
                member
                    .exit()
                    .unwrap_or_else(|| "exited before going live".to_owned()),
            ));
        }
        None
    }
}
