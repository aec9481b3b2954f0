//! The per-version monitors: event streaming between leader and followers
//! (§3.3 of the paper).
//!
//! Every version runs with a monitor interposed on its system calls.  The
//! **leader**'s monitor executes each call against the kernel, transfers any
//! newly created descriptors to the followers over their data channels, and
//! publishes an event (with out-of-line payloads in the shared memory pool)
//! into the ring buffer.  A **follower**'s monitor replays those events: it
//! returns the leader's results to its own copy of the application without
//! touching the outside world, except for process-local calls which it
//! executes itself.  When a follower's next call does not match the next
//! event, the BPF rewrite rules decide whether the divergence is allowed
//! (§3.4); when the coordinator promotes a follower after a leader crash, the
//! monitor swaps its system call table and takes over as leader (§5.1).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::Mutex;

use varan_kernel::process::Pid;
use varan_kernel::sim::SimPoint;
use varan_kernel::syscall::{SyscallOutcome, SyscallRequest};
use varan_kernel::time::{ClockSource, SimInstant};
use varan_kernel::{Errno, Kernel};
use varan_ring::{
    ClockOrdering, Consumer, Event, EventJournal, JournalRecord, PoolAllocator, Producer,
    SharedPtr, SharedRegion,
};

use crate::context::{
    FollowerLink, HandoverTicket, LogDistanceSampler, RingSet, SharedFollowers, VersionContext,
};
use crate::costs::MonitorCosts;
use crate::program::SyscallInterface;
use crate::rules::{RuleAction, ScopedRules};
use crate::stats::VersionCounters;
use crate::table::{HandlerAction, SyscallTable};

/// How long a follower waits for the next event before re-checking its
/// promotion and kill flags.
const FOLLOWER_POLL: Duration = Duration::from_millis(2);

/// Journal records replayed per batch by a catching-up runtime joiner.
const REPLAY_BATCH: usize = 1024;

/// A pool of retired main-ring consumer handles shared with the fleet: slots
/// released by promoted or retired followers go back here for future
/// joiners.
pub(crate) type SlotPool = Arc<Mutex<Vec<Consumer<Event>>>>;

/// How long a follower facing a fatal divergence verdict waits for a
/// possible promotion before killing itself. A divergence at a crashed
/// leader's final events races with the coordinator's promotion decision;
/// the coordinator adjudicates within microseconds, so this bound is only
/// ever paid in full by genuinely divergent followers of a healthy leader
/// (their kill is delayed, never averted). Sized generously so even a
/// descheduled coordinator on a loaded CI machine wins the race.  Measured
/// against the kernel's [`ClockSource`]: under simulated time the grace is
/// 200 *virtual* milliseconds, so a 10,000-run sweep never sleeps through
/// it for real.
const PROMOTION_GRACE: Duration = Duration::from_millis(200);

/// The leader-side recording engine, shared by the leader's monitor and by a
/// follower's monitor after promotion.
#[derive(Debug)]
pub(crate) struct LeaderCore {
    kernel: Kernel,
    pid: Pid,
    tid: u32,
    producer: Producer<Event>,
    ring_capacity: u64,
    pool: Arc<PoolAllocator>,
    followers: SharedFollowers,
    rings: Arc<RingSet>,
    costs: MonitorCosts,
    sampler: Arc<LogDistanceSampler>,
    /// Payload regions attached to recent events; freed once every follower's
    /// reclamation horizon (lap counter for lap-gated replay consumers, the
    /// gating sequence otherwise) has passed them — see
    /// [`LeaderCore::retire_payloads`].
    payload_window: VecDeque<(u64, SharedRegion)>,
    /// The fleet's spill journal, when elastic membership is enabled.  Every
    /// main-tuple event is appended here **before** it is published to the
    /// ring: journal coverage is therefore always a superset of the
    /// published stream, which is what makes a joiner's
    /// journal-replay→ring handover race-free (see `varan_ring::journal`
    /// and `Consumer::resume_at`).
    journal: Option<Arc<EventJournal>>,
    /// Telemetry registry (shard lane = the ring this core publishes to).
    obs: Arc<varan_obs::Registry>,
    /// The telemetry shard lane: the clamped ring index.
    shard: usize,
    /// Captures since the last sampled latency measurement.
    capture_ticks: u64,
}

impl LeaderCore {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        kernel: Kernel,
        pid: Pid,
        tid: u32,
        rings: Arc<RingSet>,
        pool: Arc<PoolAllocator>,
        followers: SharedFollowers,
        costs: MonitorCosts,
        sampler: Arc<LogDistanceSampler>,
        journal: Option<Arc<EventJournal>>,
        obs: Arc<varan_obs::Registry>,
    ) -> Self {
        let ring = rings.ring(tid as usize);
        // Journal coverage must be a superset of ring 0's stream (the
        // joiner handover depends on it), so the gate is ring *identity*,
        // not the raw tid: with a single provisioned tuple every thread's
        // publishes clamp to ring 0 and must all be spilled.
        let shard = (tid as usize).min(rings.tuples().saturating_sub(1));
        let feeds_main_ring = shard == 0;
        let journal = if feeds_main_ring { journal } else { None };
        LeaderCore {
            kernel,
            pid,
            tid,
            producer: ring.producer(),
            ring_capacity: ring.capacity() as u64,
            pool: Arc::clone(&pool),
            followers,
            rings,
            costs,
            sampler,
            payload_window: VecDeque::new(),
            journal,
            obs,
            shard,
            capture_ticks: 0,
        }
    }

    /// Executes `request` against the kernel, streams it to the followers and
    /// returns the outcome, updating `counters`.
    pub(crate) fn execute_and_record(
        &mut self,
        request: &SyscallRequest,
        clock: &varan_ring::VariantClock,
        counters: &VersionCounters,
    ) -> SyscallOutcome {
        let (outcome, event, shared, overhead) = self.capture(request, clock, counters);
        let sequence = self.producer.publish_signed(event, event.signature());
        if let Some(region) = shared {
            self.payload_window.push_back((sequence, region));
        }
        self.retire_payloads();
        self.sample_backlog();
        SyscallOutcome {
            cost: outcome.cost + overhead,
            ..outcome
        }
    }

    /// Executes `requests` back to back and streams them as **one** ring
    /// claim ([`Producer::publish_batch`]): one gating check and one cursor
    /// store amortised over the whole batch.  Everything else — descriptor
    /// transfer, pool copies, the journal-append-before-publish ordering,
    /// per-event cost accounting — is identical to the one-at-a-time path,
    /// so followers and journal replayers cannot tell the difference.
    ///
    /// Batches larger than the ring are split into ring-sized claims (a
    /// single claim beyond capacity could never fit in flight at once).
    pub(crate) fn execute_and_record_batch(
        &mut self,
        requests: &[SyscallRequest],
        clock: &varan_ring::VariantClock,
        counters: &VersionCounters,
    ) -> Vec<SyscallOutcome> {
        let mut outcomes = Vec::with_capacity(requests.len());
        for chunk in requests.chunks((self.ring_capacity as usize).max(1)) {
            let mut events = Vec::with_capacity(chunk.len());
            let mut sigs = Vec::with_capacity(chunk.len());
            let mut regions = Vec::with_capacity(chunk.len());
            for request in chunk {
                let (outcome, event, shared, overhead) =
                    self.capture(request, clock, counters);
                sigs.push(event.signature());
                events.push(event);
                regions.push(shared);
                outcomes.push(SyscallOutcome {
                    cost: outcome.cost + overhead,
                    ..outcome
                });
            }
            if let Some(first) = self.producer.publish_batch_signed(&events, &sigs) {
                for (i, region) in regions.into_iter().enumerate() {
                    if let Some(region) = region {
                        self.payload_window.push_back((first + i as u64, region));
                    }
                }
                self.retire_payloads();
            }
        }
        self.sample_backlog();
        outcomes
    }

    /// Executes `request` against the kernel and prepares (but does not
    /// publish) its stream event: descriptor transfer, payload pool copy,
    /// clock stamp and journal append all happen here, in that order.
    /// Returns the raw outcome, the ready-to-publish event, the payload
    /// region to retire once the event leaves the ring, and the accounted
    /// monitor overhead.
    fn capture(
        &mut self,
        request: &SyscallRequest,
        clock: &varan_ring::VariantClock,
        counters: &VersionCounters,
    ) -> (SyscallOutcome, Event, Option<SharedRegion>, u64) {
        // Telemetry: one relaxed add per capture; the latency stopwatch is
        // sampled (1 in CAPTURE_SAMPLE_EVERY) so its own cost stays out of
        // the hot path it measures.
        let capture_started = if varan_obs::enabled() {
            self.obs.metrics.events_published.add(self.shard, 1);
            self.capture_ticks = self.capture_ticks.wrapping_add(1);
            (self.capture_ticks % varan_obs::CAPTURE_SAMPLE_EVERY == 0)
                .then(std::time::Instant::now)
        } else {
            None
        };
        let outcome = self.kernel.syscall(self.pid, request);
        VersionCounters::add(&counters.cycles, outcome.cost);

        // 1. Transfer any newly created descriptor to every live follower
        //    over its data channel, before the event becomes visible.
        let mut fd_transfers = 0usize;
        if let Some(fd_info) = outcome.fd {
            let followers = self.followers.read();
            for link in followers.iter().filter(|link| link.is_alive()) {
                // Upgrade members mirror the stream's descriptor numbering
                // (identity placement, like a checkpoint restore), so the
                // numbers their replayed application holds survive a
                // promotion; launched followers keep the historical
                // lowest-free placement plus translation.
                let transferred = if link.identity_fds {
                    self.kernel
                        .transfer_fd_identity(self.pid, fd_info.fd, link.pid)
                } else {
                    self.kernel.transfer_fd(self.pid, fd_info.fd, link.pid)
                };
                if let Ok(local_fd) = transferred {
                    link.channel.send_fd(fd_info.fd, local_fd);
                    fd_transfers += 1;
                }
            }
            VersionCounters::add(&counters.fd_transfers, 1);
        }

        // 2. Copy any out-of-line payload into the shared memory pool.
        let payload_len = outcome.payload_len();
        let shared = match &outcome.data {
            Some(data) if !data.is_empty() => match self.pool.alloc_and_write(data) {
                Ok(region) => Some(region),
                Err(_) => None, // pool exhausted: fall back to no payload reuse
            },
            _ => None,
        };
        let shared_ptr = shared.map(|region| region.ptr()).unwrap_or(SharedPtr::NULL);

        // 3. Publish the event, stamped with the variant clock.  With the
        //    fleet enabled the event is spilled to the journal *first*:
        //    anything visible in the ring is then guaranteed to be readable
        //    from the journal too, so a joining follower that switches from
        //    journal replay to ring consumption can never fall into a gap.
        let timestamp = clock.tick();
        let event = Event::syscall(request.sysno.number(), &request.args, outcome.result)
            .with_tid(self.tid)
            .with_clock(timestamp)
            .with_shared(shared_ptr);
        if let Some(journal) = &self.journal {
            // The journal record mirrors what the *ring* event advertises:
            // when the pool was exhausted the event carries no payload
            // handle, so the journal must not carry the payload either —
            // otherwise a journal-replaying joiner and a live follower
            // would disagree about the very same event.
            let payload = if event.has_payload() {
                outcome.data.clone()
            } else {
                None
            };
            let mut record = JournalRecord::from_event(&event, payload);
            record.args = request.args;
            // An append failure (disk full) only degrades elasticity —
            // running followers are unaffected — so it must not take
            // down the leader's syscall path.
            let _ = journal.append(record);
        }

        // 4. Account the monitor overhead (the publish itself is the
        //    caller's job — single or batched).
        let overhead = self.costs.leader_overhead(
            request.sysno.is_virtual(),
            payload_len,
            if fd_transfers > 0 { 1 } else { 0 },
        );
        VersionCounters::add(&counters.monitor_cycles, overhead);
        VersionCounters::add(&counters.events, 1);
        VersionCounters::add(&counters.syscalls, 1);
        self.kernel.clock().advance(overhead);
        if let Some(started) = capture_started {
            self.obs
                .metrics
                .syscall_capture_nanos
                .record(started.elapsed().as_nanos() as u64);
        }

        (outcome, event, shared, overhead)
    }

    /// Frees payload regions below the reclamation horizon: the minimum, over
    /// every active consumer, of its lap counter (replay completion, for
    /// lap-gated replay consumers) or its gating sequence (plain consumers).
    /// A region is only recycled once every registered consumer has *passed*
    /// it — not merely once the ring has lapped, as the PR 2 copy-out
    /// discipline assumed — which is what lets followers replay directly
    /// against pool-resident payloads.
    ///
    /// Uses the producer's cached horizon and refreshes it at most once per
    /// call (only when the cache blocks the oldest region), mirroring the
    /// cached-gate discipline of the publish path.
    fn retire_payloads(&mut self) {
        let mut horizon = self.producer.reclaim_horizon();
        let mut refreshed = false;
        while let Some(&(seq, region)) = self.payload_window.front() {
            if seq >= horizon {
                if refreshed {
                    break;
                }
                horizon = self.producer.refresh_reclaim_horizon();
                refreshed = true;
                if seq >= horizon {
                    break;
                }
            }
            let _ = self.pool.free(region);
            self.payload_window.pop_front();
        }
    }

    /// Samples the maximum follower backlog for the log-distance figure.
    ///
    /// The sample is the producer's own lag estimate — `published` minus its
    /// cached gating sequence, two relaxed loads — instead of a scan of
    /// every consumer cursor under the follower lock on each publish.  The
    /// cached gate refreshes lazily (on the publish slow path), so the
    /// estimate is an upper bound on the true maximum backlog; the exact
    /// per-slot scan (`RingSet::max_backlog`) remains in use off the hot
    /// path, where failover ranks promotion candidates.
    fn sample_backlog(&self) {
        let lag = self.producer.lag_estimate();
        self.sampler.observe(lag);
        if varan_obs::enabled() {
            self.obs.metrics.follower_lag.set(self.shard, lag);
        }
    }

    /// A fresh core for the same version on thread `tid`: shares every
    /// cross-version structure (rings, pool, followers, sampler, journal)
    /// and gets its own producer and payload window.
    pub(crate) fn fork_with_tid(&self, tid: u32) -> LeaderCore {
        LeaderCore::new(
            self.kernel.clone(),
            self.pid,
            tid,
            Arc::clone(&self.rings),
            Arc::clone(&self.pool),
            Arc::clone(&self.followers),
            self.costs.clone(),
            Arc::clone(&self.sampler),
            self.journal.clone(),
            Arc::clone(&self.obs),
        )
    }

    pub(crate) fn execute_locally(
        &mut self,
        request: &SyscallRequest,
        counters: &VersionCounters,
    ) -> SyscallOutcome {
        let outcome = self.kernel.syscall(self.pid, request);
        VersionCounters::add(&counters.cycles, outcome.cost);
        VersionCounters::add(&counters.local_calls, 1);
        VersionCounters::add(&counters.syscalls, 1);
        VersionCounters::add(
            &counters.monitor_cycles,
            self.costs.intercept_cost(request.sysno.is_virtual()),
        );
        outcome
    }
}

/// Executes a planned handover on the current leader's thread (the heart of
/// the upgrade pipeline's *promote* stage, see `crate::upgrade`): the leader
/// stops publishing by construction (it is running this instead of a system
/// call), re-activates the granted ring slot at exactly the next sequence —
/// so it will replay precisely the events it did not publish itself — links
/// itself back into the follower set so the successor's descriptor transfers
/// reach it, switches the current-leader register and only then releases the
/// successor.  Returns the activated consumer plus the rule registry and
/// slot pool carried by the ticket.
///
/// Ordering matters: the consumer gate must exist *before* the successor is
/// allowed to publish (otherwise the demoted leader could miss events), and
/// the successor's old follower link must be dead before it starts
/// transferring descriptors (so it never transfers to itself).
fn demote_to_follower(
    context: &VersionContext,
    ring: &Arc<varan_ring::RingBuffer<Event>>,
    followers: &SharedFollowers,
    ticket: HandoverTicket,
) -> Option<(Consumer<Event>, Arc<ScopedRules>, SlotPool)> {
    let HandoverTicket {
        mut consumer,
        successor_index,
        successor_promoted,
        current_leader,
        rules,
        slot_pool,
    } = ticket;
    // The successor may have died between the orchestrator's last liveness
    // check and this pickup; yielding leadership to a corpse would leave
    // the execution leaderless with a falsely successful report.  Refuse
    // the ticket instead: the leader keeps leading, the orchestrator sees
    // `Aborted` and rolls the hop back.
    let successor_alive = followers
        .read()
        .iter()
        .any(|link| link.index == successor_index && link.is_alive());
    if !successor_alive {
        consumer.unsubscribe();
        slot_pool.lock().push(consumer);
        context.handover.abort();
        return None;
    }
    consumer.resume_at(ring.published());
    {
        let mut links = followers.write();
        for link in links.iter() {
            if link.index == successor_index {
                link.discard();
            }
        }
        links.push(FollowerLink {
            index: context.index,
            pid: context.pid,
            channel: context.channel.clone(),
            alive: Arc::new(AtomicBool::new(true)),
            slot: consumer.index(),
            catching_up: Arc::new(AtomicBool::new(false)),
            promotable: true,
            // The retiree's table *is* the stream numbering; keep it that
            // way so a rollback re-promotion needs no renumbering.
            identity_fds: true,
        });
    }
    current_leader.store(successor_index, Ordering::Release);
    successor_promoted.store(true, Ordering::Release);
    context.obs.trace(
        "upgrade.demote",
        context.index as u64,
        successor_index as u64,
    );
    Some((consumer, rules, slot_pool))
}

/// The monitor interposed on the leader version.
#[derive(Debug)]
pub struct LeaderMonitor {
    core: LeaderCore,
    context: VersionContext,
    table: SyscallTable,
    next_tid: Arc<std::sync::atomic::AtomicU32>,
    /// Set once this leader executed a planned handover: from then on every
    /// call is dispatched through the embedded follower monitor (the
    /// retired leader keeps running, replaying its successor's stream from
    /// the spare slot granted by the handover ticket).
    demoted: Option<Box<FollowerMonitor>>,
}

impl LeaderMonitor {
    pub(crate) fn new(core: LeaderCore, context: VersionContext) -> Self {
        LeaderMonitor {
            core,
            context,
            table: SyscallTable::leader(),
            next_tid: Arc::new(std::sync::atomic::AtomicU32::new(1)),
            demoted: None,
        }
    }

    /// The version context this monitor serves.
    #[must_use]
    pub fn context(&self) -> &VersionContext {
        &self.context
    }

    /// The system call table currently installed.
    #[must_use]
    pub fn table(&self) -> &SyscallTable {
        &self.table
    }

    /// Picks up a posted handover ticket and retires this leader into a
    /// follower: subsequent calls replay the successor's stream.  Only the
    /// main-thread monitor (tuple 0) executes handovers; the upgrade
    /// pipeline requires single-threaded application versions.
    fn execute_handover(&mut self, ticket: HandoverTicket) {
        let followers = Arc::clone(&self.core.followers);
        let ring = Arc::clone(self.core.rings.ring(0));
        let Some((consumer, rules, slot_pool)) =
            demote_to_follower(&self.context, &ring, &followers, ticket)
        else {
            return; // dead successor: the handover was aborted, keep leading
        };
        let promoted_core = self.core.fork_with_tid(self.core.tid);
        let follower = FollowerMonitor::with_consumer(
            self.core.kernel.clone(),
            self.context.clone(),
            Arc::clone(&self.core.rings),
            consumer,
            Arc::clone(&self.core.pool),
            rules,
            self.core.costs.clone(),
            promoted_core,
            Some(slot_pool),
            None,
            None,
        );
        self.demoted = Some(Box::new(follower));
        self.context.handover.complete();
    }
}

impl SyscallInterface for LeaderMonitor {
    fn syscall(&mut self, request: &SyscallRequest) -> SyscallOutcome {
        if self.demoted.is_none() && self.core.tid == 0 && self.context.handover.is_requested() {
            if let Some(ticket) = self.context.handover.begin() {
                self.execute_handover(ticket);
            }
        }
        if let Some(follower) = self.demoted.as_mut() {
            return follower.syscall(request);
        }
        match self.table.action(request.sysno) {
            HandlerAction::ExecuteLocally => {
                self.core.execute_locally(request, &self.context.counters)
            }
            HandlerAction::Deny => {
                SyscallOutcome::err(request.sysno, Errno::ENOSYS, self.core.costs.intercept)
            }
            _ => self
                .core
                .execute_and_record(request, &self.context.clock, &self.context.counters),
        }
    }

    fn syscall_batch(&mut self, requests: &[SyscallRequest]) -> Vec<SyscallOutcome> {
        if self.demoted.is_none() && self.core.tid == 0 && self.context.handover.is_requested() {
            if let Some(ticket) = self.context.handover.begin() {
                self.execute_handover(ticket);
            }
        }
        if let Some(follower) = self.demoted.as_mut() {
            return follower.syscall_batch(requests);
        }
        // Only plain record-path calls batch into a single ring reservation;
        // a local or denied call in the middle falls back to the sequential
        // path to preserve program order.
        let all_recorded = requests.iter().all(|request| {
            !matches!(
                self.table.action(request.sysno),
                HandlerAction::ExecuteLocally | HandlerAction::Deny
            )
        });
        if all_recorded {
            self.core
                .execute_and_record_batch(requests, &self.context.clock, &self.context.counters)
        } else {
            requests.iter().map(|request| self.syscall(request)).collect()
        }
    }

    fn spawn_thread(&mut self) -> Box<dyn SyscallInterface> {
        if let Some(follower) = self.demoted.as_mut() {
            return follower.spawn_thread();
        }
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        let core = self.core.fork_with_tid(tid);
        Box::new(LeaderMonitor {
            core,
            context: self.context.clone(),
            table: self.table.clone(),
            next_tid: Arc::clone(&self.next_tid),
            demoted: None,
        })
    }

    fn cpu_work(&mut self, cycles: u64) {
        VersionCounters::add(&self.context.counters.cycles, cycles);
        if self.demoted.is_none() {
            self.core.kernel.clock().advance(cycles);
        }
    }
}

/// Where a staged event's out-of-line payload lives until replay delivers it.
///
/// The steady-state path is [`StagedPayload::Pooled`]: the payload stays in
/// the shared pool and the follower reads it only when the application asks
/// for the data, under lap-based reclamation (the leader may not recycle the
/// region until this queue's lap counter passes the event — see
/// [`Consumer::enable_lap_gate`]).  [`StagedPayload::Owned`] is the PR 2
/// copy-out fallback, kept for replay sources where a pool borrow is unsound
/// or unavailable: surplus sibling threads sharing a clamped ring (their
/// replay can stall arbitrarily long on the variant clock, and a promotion
/// could release the queue's consumer under them) and journal catch-up
/// (journal records carry their payload inline; the pool region may be long
/// recycled).
#[derive(Debug, Clone)]
enum StagedPayload {
    /// The event carried no out-of-line payload.
    None,
    /// Payload still resident in the shared pool, protected by the lap gate.
    Pooled(SharedPtr),
    /// Payload copied out of the pool (or journal) at staging time.
    Owned(Vec<u8>),
}

impl StagedPayload {
    fn len(&self) -> usize {
        match self {
            StagedPayload::None => 0,
            StagedPayload::Pooled(ptr) => ptr.len() as usize,
            StagedPayload::Owned(data) => data.len(),
        }
    }
}

/// An event taken out of the ring together with its out-of-line payload.
///
/// Draining a batch advances the gating sequence past the event, which frees
/// the *slot* for the producer — but under lap-based reclamation the payload
/// region stays pinned until the queue's lap counter passes `origin`, so the
/// payload does not need to be copied at drain time.
#[derive(Debug, Clone)]
struct StagedEvent {
    event: Event,
    payload: StagedPayload,
    /// The ring sequence this event was drained at; `None` for events staged
    /// from the journal (which are outside the ring's lap/certification
    /// discipline).
    origin: Option<u64>,
}

/// One ring event retained for batch-hash certification: the leader's
/// published signature lane value next to the follower's own signature,
/// filled in at replay.  Folded and compared once per window
/// ([`certify_window`]); individual entries are only revisited to localize a
/// fold mismatch.
#[derive(Debug, Clone, Copy)]
struct WindowEntry {
    seq: u64,
    leader_event: Event,
    leader_sig: u64,
    /// The signature the follower computed from its *own* request when it
    /// replayed this event; `None` until replayed (or never, if a rewrite
    /// rule consumed the event — the window is then dirty).
    follower_sig: Option<u64>,
    follower_event: Event,
}

/// Replay state shared by every follower thread whose (clamped) thread tuple
/// maps to the same ring: one exclusive ring consumer plus per-leader-thread
/// queues of staged events.
///
/// When the application spawns more threads than thread tuples were
/// provisioned, the leader clamps the surplus threads onto the last ring
/// ([`RingSet::ring`]) and keeps publishing, with each event tagged by its
/// raw tid.  The follower side must map threads identically — but a ring
/// consumer slot can only be claimed once, so the surplus follower threads
/// *share* the clamped ring's consumer through this queue and pick out the
/// events tagged with their own tid.
#[derive(Debug)]
struct TupleQueue {
    /// The ring consumer; `None` once released (promotion or retirement).
    consumer: Option<Consumer<Event>>,
    /// Events drained from the ring awaiting replay (payloads pool-resident
    /// on the zero-copy path), keyed by the leader thread that published
    /// them.  Replayed front to back per thread; cross-thread order is
    /// enforced by the variant clock.
    staged: HashMap<u32, VecDeque<StagedEvent>>,
    /// Scratch buffer reused by batch refills.
    scratch: Vec<Event>,
    /// Monitors currently sharing this queue; maintained under the queue
    /// lock so exactly one dropper observes the count reach zero and
    /// releases the consumer (an `Arc::strong_count` check would race when
    /// sibling threads exit concurrently).
    owners: usize,
    /// The largest batch one drain round may peek: half the ring capacity,
    /// so a laggard follower never pins more than half a lap of slots (and,
    /// under lap-based reclamation, payload regions) in one gulp.
    max_drain: usize,
    /// Ring events retained for batch-hash certification, contiguous by
    /// sequence (drain order); cleared at every window boundary.
    window: VecDeque<WindowEntry>,
    /// Ring-staged events drained but not yet disposed of (replayed, or
    /// consumed by a rewrite rule).  The lap counter advances — and the
    /// window certifies — when this reaches zero.
    outstanding: usize,
    /// The ring sequence up to which events have been drained (exclusive);
    /// the lap counter's target at the next quiescent point.
    drained_through: u64,
    /// Set when a rewrite rule consumed a window event (divergence already
    /// adjudicated per-event): the fold would compare mismatched pairings,
    /// so certification is skipped for that window.
    window_dirty: bool,
}

impl TupleQueue {
    fn with_consumer(mut consumer: Consumer<Event>, ring_capacity: usize) -> Self {
        // Every replay consumer is lap-gated: the gating sequence is free to
        // advance at drain time (unblocking the producer's slot reuse) while
        // the lap counter keeps the batch's payload regions pinned in the
        // pool until replay completes.
        consumer.enable_lap_gate();
        TupleQueue {
            consumer: Some(consumer),
            staged: HashMap::new(),
            scratch: Vec::new(),
            owners: 1,
            max_drain: (ring_capacity / 2).max(1),
            window: VecDeque::new(),
            outstanding: 0,
            drained_through: 0,
            window_dirty: false,
        }
    }
}

/// One bounded drain round: peek up to half a lap, stage every event, read
/// the leader's signature lane into the certification window, advance the
/// gating sequence once.  Returns the number of events staged.
///
/// The zero-copy path (sole queue owner) stages payloads as
/// [`StagedPayload::Pooled`]: no bytes leave the pool at drain time, and the
/// lap counter — which only advances at the next quiescent point
/// ([`finish_window_entry`]) — keeps the regions pinned.  With surplus
/// sibling threads sharing the queue (`owners > 1`) payloads are copied out
/// ([`StagedPayload::Owned`]), because a sibling's replay can stall
/// arbitrarily long on the variant clock and a promotion may release the
/// consumer while its events are still staged.
///
/// Reused buffers (`scratch`, the per-tid deques, the window) make the
/// steady state allocation-free; the counting-allocator test in the module
/// tests asserts this.
fn refill_ring_queue(
    queue: &mut TupleQueue,
    pool: &PoolAllocator,
    metrics: &varan_obs::Metrics,
) -> usize {
    let queue = &mut *queue;
    let mut scratch = std::mem::take(&mut queue.scratch);
    scratch.clear();
    let zero_copy = queue.owners == 1;
    let Some(consumer) = queue.consumer.as_mut() else {
        queue.scratch = scratch;
        return 0;
    };
    let base = consumer.next_sequence();
    let peeked = consumer.peek_batch(&mut scratch, queue.max_drain);
    for (i, event) in scratch.iter().copied().enumerate() {
        let seq = base + i as u64;
        let payload = if !event.has_payload() {
            StagedPayload::None
        } else if zero_copy {
            metrics
                .follower_copy_bytes_saved
                .add(u64::from(event.shared().len()));
            StagedPayload::Pooled(event.shared())
        } else {
            let data = pool.read(event.shared());
            metrics.follower_copy_bytes.add(data.len() as u64);
            StagedPayload::Owned(data)
        };
        // The signature lane is read while the slot is still gated (before
        // the advance below), like the event itself.
        queue.window.push_back(WindowEntry {
            seq,
            leader_event: event,
            leader_sig: consumer.sig_at(seq),
            follower_sig: None,
            follower_event: Event::default(),
        });
        queue.staged.entry(event.tid()).or_default().push_back(StagedEvent {
            event,
            payload,
            origin: Some(seq),
        });
    }
    if peeked > 0 {
        queue.outstanding += peeked;
        queue.drained_through = base + peeked as u64;
        consumer.advance(peeked);
    }
    queue.scratch = scratch;
    peeked
}

/// Marks the window entry for `seq` disposed of: `follower` carries the
/// identity event the follower computed from its own request when the event
/// was replayed, or `None` when a rewrite rule consumed it (the window is
/// then dirty — the pairing diverged and was already adjudicated per-event).
///
/// When the last outstanding event of the drained range is disposed of, the
/// window certifies ([`certify_window`]) and the lap counter advances to
/// `drained_through`, releasing the batch's pool regions to the producer in
/// one step.
fn finish_window_entry(
    queue: &mut TupleQueue,
    seq: u64,
    follower: Option<Event>,
    obs: &varan_obs::Registry,
    version: usize,
) {
    let index = queue
        .window
        .front()
        .and_then(|front| seq.checked_sub(front.seq));
    if let Some(index) = index {
        if let Some(entry) = queue.window.get_mut(index as usize) {
            debug_assert_eq!(entry.seq, seq, "window entries are sequence-contiguous");
            match follower {
                Some(event) => {
                    entry.follower_sig = Some(event.signature());
                    entry.follower_event = event;
                }
                None => queue.window_dirty = true,
            }
        }
    }
    queue.outstanding = queue.outstanding.saturating_sub(1);
    if queue.outstanding == 0 {
        certify_window(queue, obs, version);
        let through = queue.drained_through;
        if let Some(consumer) = queue.consumer.as_mut() {
            consumer.advance_lap_to(through);
        }
    }
}

/// Batch-hash divergence certification: folds the leader's published
/// signature lane and the follower's replay signatures over the window and
/// compares **one u64** for the whole batch.  Only on a fold mismatch does
/// it fall back to per-event comparison, localizing the first diverging
/// call byte-exactly (kind, sysno, tid and argument words all feed the
/// per-event CRC32C signature).
///
/// A mismatch is reported through telemetry, never by killing the follower:
/// the per-event sysno check and the rewrite rules (§3.4) remain the kill
/// authority, and a rule firing inside the window marks it dirty so the
/// fold never second-guesses an adjudicated divergence.
fn certify_window(queue: &mut TupleQueue, obs: &varan_obs::Registry, version: usize) {
    if queue.window.is_empty() {
        return;
    }
    let clean =
        !queue.window_dirty && queue.window.iter().all(|entry| entry.follower_sig.is_some());
    if clean {
        let mut leader = varan_ring::SIGNATURE_FOLD_SEED;
        let mut follower = varan_ring::SIGNATURE_FOLD_SEED;
        for entry in &queue.window {
            leader = varan_ring::fold_signature(leader, entry.leader_sig);
            follower =
                varan_ring::fold_signature(follower, entry.follower_sig.unwrap_or_default());
        }
        if leader == follower {
            obs.metrics.divergence_fast_path_hits.add(1);
        } else {
            obs.metrics.divergence_hash_mismatches.add(1);
            // Localize: first entry whose per-event signature differs.
            if let Some(entry) = queue
                .window
                .iter()
                .find(|entry| entry.follower_sig != Some(entry.leader_sig))
            {
                obs.trace("monitor.hash_divergence", version as u64, entry.seq);
                obs.trace(
                    "monitor.hash_divergence_pair",
                    u64::from(entry.leader_event.sysno()),
                    u64::from(entry.follower_event.sysno()),
                );
            }
        }
    }
    queue.window.clear();
    queue.window_dirty = false;
}

/// Catch-up state of a runtime joiner replaying the spill journal from
/// sequence 0 before switching to live ring consumption (the *canary* stage
/// of the upgrade pipeline; same protocol as `crate::fleet`'s observers but
/// driving a real application version through the replay).
#[derive(Debug)]
pub(crate) struct CatchUp {
    journal: Arc<EventJournal>,
    /// Next journal sequence to replay.
    pos: u64,
    /// Whether the ring gate has been registered (within half a lap).
    registered: bool,
    started: SimInstant,
    /// The follower link's catching-up flag, cleared at the live switch.
    link_catching_up: Arc<AtomicBool>,
    /// The member handle's live flag, set at the live switch.
    live: Arc<AtomicBool>,
    /// Attach→live latency sink, stored at the live switch.
    catch_up_nanos: Arc<AtomicU64>,
}

impl CatchUp {
    pub(crate) fn new(
        clock: &ClockSource,
        journal: Arc<EventJournal>,
        link_catching_up: Arc<AtomicBool>,
        live: Arc<AtomicBool>,
        catch_up_nanos: Arc<AtomicU64>,
    ) -> Self {
        CatchUp {
            journal,
            pos: 0,
            registered: false,
            started: clock.start(),
            link_catching_up,
            live,
            catch_up_nanos,
        }
    }
}

/// Installs descriptor mappings for fd-creating events that predate a
/// runtime joiner's attach: the descriptor was transferred to the other
/// followers when the event happened, so the joiner asks the kernel for its
/// own duplicate from the *current* leader on first use.
///
/// Healing resolves a historical number against the leader's **current**
/// table.  That is sound here because the virtual kernel never recycles
/// descriptor numbers within a process (`install_fd` is monotonic): a
/// number either still denotes the same object or is gone.  Across
/// leadership generations a number can denote a newer object, but replay
/// never executes against healed descriptors — only the state at the live
/// switch matters, and by then every mapping has converged to the current
/// meaning (later creation events overwrite nothing: the first heal already
/// resolved to the live object).
#[derive(Debug)]
pub(crate) struct FdHealer {
    kernel: Kernel,
    /// The joiner's own process.
    pid: Pid,
    current_leader: Arc<std::sync::atomic::AtomicUsize>,
    /// Version index → pid, covering launched versions and fleet members.
    pids: Arc<Mutex<HashMap<usize, Pid>>>,
}

impl FdHealer {
    pub(crate) fn new(
        kernel: Kernel,
        pid: Pid,
        current_leader: Arc<std::sync::atomic::AtomicUsize>,
        pids: Arc<Mutex<HashMap<usize, Pid>>>,
    ) -> Self {
        FdHealer {
            kernel,
            pid,
            current_leader,
            pids,
        }
    }

    fn heal(&self, result: i64, fd_map: &mut HashMap<i64, i32>) {
        if result < 0 || fd_map.contains_key(&result) {
            return;
        }
        let leader = self.current_leader.load(Ordering::Acquire);
        let Some(&leader_pid) = self.pids.lock().get(&leader) else {
            return;
        };
        if leader_pid == self.pid {
            return;
        }
        // Identity placement (falling back to lowest-free inside the
        // kernel): the joiner's table mirrors the leader's numbering.
        if let Ok(local) = self
            .kernel
            .transfer_fd_identity(leader_pid, result as i32, self.pid)
        {
            fd_map.insert(result, local);
        }
    }
}

/// The monitor interposed on a follower version.
#[derive(Debug)]
pub struct FollowerMonitor {
    kernel: Kernel,
    context: VersionContext,
    table: SyscallTable,
    /// Replay state of this thread's (clamped) ring, shared with any sibling
    /// threads clamped onto the same ring.
    tuple: Arc<Mutex<TupleQueue>>,
    /// Ring index → shared replay state, for [`FollowerMonitor::spawn_thread`]
    /// to find (or create) the queue of a clamped ring.
    tuples: Arc<Mutex<HashMap<usize, Weak<Mutex<TupleQueue>>>>>,
    /// The consumer slot this version drains on every ring.
    slot: usize,
    pool: Arc<PoolAllocator>,
    rules: Arc<ScopedRules>,
    costs: MonitorCosts,
    /// Leader descriptor number → descriptor number in this follower's
    /// process (populated from the data channel, §3.3.2). Shared across the
    /// version's thread monitors, like the process-wide descriptor table it
    /// mirrors — any thread may drain a transfer another thread needs.
    fd_map: Arc<Mutex<HashMap<i64, i32>>>,
    /// An event taken out of the staged queue but not yet consumed (pushed
    /// back when a divergence was resolved by executing an extra local call,
    /// or while the variant clock says another thread's event goes first).
    pending: Option<StagedEvent>,
    /// The leader engine used after promotion.
    promoted_core: Option<LeaderCore>,
    promotion_handled: bool,
    tid: u32,
    next_tid: Arc<std::sync::atomic::AtomicU32>,
    rings: Arc<RingSet>,
    /// Journal catch-up state; `Some` while a runtime joiner is replaying
    /// history, `None` once live (and always for launched followers).
    catch_up: Option<CatchUp>,
    /// Late-attach descriptor healing; `None` for launched followers.
    healer: Option<FdHealer>,
    /// Where the consumer handle goes when this follower releases it
    /// (promotion or retirement); `None` for launched followers whose slots
    /// are not pooled.
    slot_pool: Option<SlotPool>,
}

impl FollowerMonitor {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        kernel: Kernel,
        context: VersionContext,
        rings: Arc<RingSet>,
        consumer_slot: usize,
        pool: Arc<PoolAllocator>,
        rules: Arc<ScopedRules>,
        costs: MonitorCosts,
        promoted_core: LeaderCore,
    ) -> Result<Self, crate::error::CoreError> {
        let consumer = rings.ring(0).consumer(consumer_slot)?;
        Ok(Self::with_consumer(
            kernel,
            context,
            rings,
            consumer,
            pool,
            rules,
            costs,
            promoted_core,
            None,
            None,
            None,
        ))
    }

    /// Builds a follower around an already-claimed main-ring consumer: used
    /// by the fleet for runtime joiners (with catch-up and healing state)
    /// and by the handover path for demoted ex-leaders (with a slot pool).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn with_consumer(
        kernel: Kernel,
        context: VersionContext,
        rings: Arc<RingSet>,
        consumer: Consumer<Event>,
        pool: Arc<PoolAllocator>,
        rules: Arc<ScopedRules>,
        costs: MonitorCosts,
        promoted_core: LeaderCore,
        slot_pool: Option<SlotPool>,
        catch_up: Option<CatchUp>,
        healer: Option<FdHealer>,
    ) -> Self {
        let slot = consumer.index();
        let capacity = rings.ring(0).capacity();
        let tuple = Arc::new(Mutex::new(TupleQueue::with_consumer(consumer, capacity)));
        let mut registry = HashMap::new();
        registry.insert(0usize, Arc::downgrade(&tuple));
        FollowerMonitor {
            kernel,
            context,
            table: SyscallTable::follower(),
            tuple,
            tuples: Arc::new(Mutex::new(registry)),
            slot,
            pool,
            rules,
            costs,
            fd_map: Arc::new(Mutex::new(HashMap::new())),
            pending: None,
            promoted_core: Some(promoted_core),
            promotion_handled: false,
            tid: 0,
            next_tid: Arc::new(std::sync::atomic::AtomicU32::new(1)),
            rings,
            catch_up,
            healer,
            slot_pool,
        }
    }

    /// The version context this monitor serves.
    #[must_use]
    pub fn context(&self) -> &VersionContext {
        &self.context
    }

    /// A snapshot of the descriptor translation map accumulated from the
    /// data channel.
    #[must_use]
    pub fn fd_map(&self) -> HashMap<i64, i32> {
        self.fd_map.lock().clone()
    }

    /// The thread tuple this monitor belongs to (0 for the main thread).
    #[must_use]
    pub fn tid(&self) -> u32 {
        self.tid
    }

    fn drain_fd_channel(&mut self) {
        while let Some(transfer) = self.context.channel.recv_fd() {
            self.fd_map
                .lock()
                .insert(i64::from(transfer.leader_fd), transfer.local_fd);
            VersionCounters::add(&self.context.counters.fd_transfers, 1);
            VersionCounters::add(&self.context.counters.monitor_cycles, self.costs.fd_receive);
        }
    }

    /// Disposes of a ring-staged event a rewrite rule consumed without
    /// replay: the certification window for its batch is marked dirty (the
    /// pairing diverged and was adjudicated per-event) and the lap counter
    /// still advances once the batch quiesces.
    fn dispose_rule_consumed(&mut self, origin: Option<u64>) {
        if let Some(seq) = origin {
            let mut queue = self.tuple.lock();
            finish_window_entry(&mut queue, seq, None, &self.context.obs, self.context.index);
        }
    }

    /// Pops the next staged event published by this monitor's own thread.
    fn pop_staged(&mut self) -> Option<StagedEvent> {
        self.tuple
            .lock()
            .staged
            .get_mut(&self.tid)
            .and_then(VecDeque::pop_front)
    }

    /// Drains published events into the shared staged queues with one
    /// gating advance (§3.3.1 batched consumption). Returns `true` if any
    /// event was staged.
    fn refill_batch(&mut self) -> bool {
        if self.catch_up.is_some() {
            return self.refill_from_journal();
        }
        self.refill_from_ring()
    }

    fn refill_from_ring(&mut self) -> bool {
        let mut queue = self.tuple.lock();
        refill_ring_queue(&mut queue, &self.pool, &self.context.obs.metrics) > 0
    }

    /// One batch of the runtime joiner's catch-up protocol (mirrors
    /// `crate::fleet`'s observer loop, phases 3–5): replay the journal
    /// without gating the leader, register the ring gate once within half a
    /// lap of the cursor, and switch to live ring consumption when the
    /// journal is drained past the registered position.
    fn refill_from_journal(&mut self) -> bool {
        let mut cu = self.catch_up.take().expect("catch-up state");
        let (start, records) = match cu.journal.read_from(cu.pos, REPLAY_BATCH) {
            Ok(read) => read,
            Err(err) => {
                self.context.killed.store(true, Ordering::Release);
                panic!(
                    "varan: joiner {} journal read at {}: {err}",
                    self.context.index, cu.pos
                );
            }
        };
        if !records.is_empty() && start != cu.pos {
            self.context.killed.store(true, Ordering::Release);
            panic!(
                "varan: joiner {} journal gap: wanted sequence {}, oldest retained is {start}",
                self.context.index, cu.pos
            );
        }
        if records.is_empty() {
            {
                let mut queue = self.tuple.lock();
                let consumer = queue.consumer.as_mut().expect("joiner holds its ring slot");
                consumer.resume_at(cu.pos);
            }
            if !cu.registered {
                // Nothing left to replay but the gate was not registered
                // yet: register it and read the journal once more — the
                // leader may have appended (journal-first) while we were
                // registering, and those records must come from the journal,
                // not the ring, to keep the handover race-free.
                cu.registered = true;
                self.catch_up = Some(cu);
                // Simulation boundary: the window between gate registration
                // and the drain-switch is where a crashing candidate is the
                // nastiest (the gate exists, the member is not yet live).
                let _ = self
                    .kernel
                    .sim_probe(self.context.pid, SimPoint::GateRegistered);
                return true;
            }
            // Journal drained while gating: every remaining event is (or
            // will be) published at or above the gate — go live.
            let _ = self.kernel.sim_probe(self.context.pid, SimPoint::LiveSwitch);
            cu.link_catching_up.store(false, Ordering::Release);
            let catch_up = cu.started.elapsed().as_nanos() as u64;
            cu.catch_up_nanos.store(catch_up, Ordering::Release);
            cu.live.store(true, Ordering::Release);
            self.context.obs.metrics.joiner_catch_up_nanos.record(catch_up);
            self.context
                .obs
                .trace("fleet.live", self.context.index as u64, cu.pos);
            return self.refill_from_ring();
        }
        let replayed = records.len() as u64;
        let newly_registered = {
            let mut queue = self.tuple.lock();
            for record in records {
                let event = record.to_event();
                // Journal payloads are inline in the record (the pool region
                // may be long recycled): stage them owned, outside the ring's
                // lap/certification discipline.
                let staged = StagedEvent {
                    event,
                    payload: match record.payload {
                        Some(data) => StagedPayload::Owned(data),
                        None => StagedPayload::None,
                    },
                    origin: None,
                };
                queue
                    .staged
                    .entry(staged.event.tid())
                    .or_default()
                    .push_back(staged);
            }
            cu.pos += replayed;
            let consumer = queue.consumer.as_mut().expect("joiner holds its ring slot");
            if cu.registered {
                consumer.resume_at(cu.pos);
                false
            } else if self.rings.ring(0).published().saturating_sub(cu.pos)
                < (self.rings.ring(0).capacity() as u64) / 2
            {
                consumer.resume_at(cu.pos);
                cu.registered = true;
                true
            } else {
                false
            }
        };
        self.catch_up = Some(cu);
        if newly_registered {
            let _ = self
                .kernel
                .sim_probe(self.context.pid, SimPoint::GateRegistered);
        }
        true
    }

    /// Bounded wait for new events so the kill/promotion flags are
    /// re-checked regularly.
    ///
    /// The precise condvar wait on the ring is only used while this thread
    /// owns the queue exclusively; with siblings sharing the clamped ring
    /// the wait must not happen under the queue lock (it would stall a
    /// sibling whose events are already staged), so those threads fall back
    /// to a plain bounded sleep.
    fn wait_for_events(&self) {
        let clock = self.kernel.wait_clock();
        if clock.is_simulated() {
            // Virtual time: never park the thread — advance the clock and
            // yield so the producer (or coordinator) gets the CPU.
            clock.sleep(FOLLOWER_POLL);
            return;
        }
        {
            let queue = self.tuple.lock();
            if queue.owners == 1 {
                if let Some(consumer) = queue.consumer.as_ref() {
                    let _ = consumer.wait_for_published(FOLLOWER_POLL);
                    return;
                }
            }
        }
        std::thread::sleep(FOLLOWER_POLL);
    }

    /// Waits for the next event, respecting the variant clock's
    /// happens-before order and the promotion/kill flags.
    ///
    /// Events are pulled from the ring in batches — the gating sequence
    /// advances once per drained batch rather than once per event — and
    /// replayed front to back from this thread's staged queue.
    ///
    /// Promotion only takes effect once the ring has been drained: a freshly
    /// promoted follower first catches up with everything the crashed leader
    /// already published, so the remaining followers keep seeing a single
    /// consistent stream.
    fn next_event(&mut self) -> Option<StagedEvent> {
        loop {
            if self.context.is_killed() {
                return None;
            }
            let staged = match self.pending.take().or_else(|| self.pop_staged()) {
                Some(staged) => staged,
                None => {
                    if self.refill_batch() {
                        continue;
                    }
                    // The flag is raised only after the old leader's last
                    // publish, so one more refill sees all of it.  Without
                    // it, events published between the empty refill above
                    // and this load would be skipped, and the new leader
                    // would execute and publish those calls a second time.
                    if self.context.is_promoted() {
                        if self.refill_batch() {
                            continue;
                        }
                        return None;
                    }
                    // Nothing staged for this thread: wait (bounded, so the
                    // kill/promotion flags are re-checked) without consuming
                    // anything — the next refill stages whatever arrives.
                    self.wait_for_events();
                    continue;
                }
            };
            match self.context.clock.check(staged.event.clock()) {
                ClockOrdering::Ready | ClockOrdering::Stale => return Some(staged),
                ClockOrdering::NotYet => {
                    // An event from another thread tuple must be consumed
                    // first; hold on to this one and wait.
                    self.pending = Some(staged);
                    if self.context.is_killed() {
                        return None;
                    }
                    std::thread::yield_now();
                }
            }
        }
    }

    fn translate_fd_args(&self, request: &SyscallRequest) -> SyscallRequest {
        let mut translated = request.clone();
        if let Some(&local) = self.fd_map.lock().get(&(request.args[0] as i64)) {
            translated.args[0] = local as u64;
        }
        translated
    }

    fn replay(&mut self, request: &SyscallRequest) -> SyscallOutcome {
        loop {
            let staged = match self.next_event() {
                Some(staged) => staged,
                None => return self.after_wait_interrupted(request),
            };
            let event = staged.event;
            let origin = staged.origin;
            if event.sysno() == request.sysno.number() {
                return self.consume_matching(request, staged);
            }
            // Divergence: consult the rewrite rules (§3.4), resolved through
            // the scoped registry so a runtime joiner (or retired ex-leader)
            // answers to its own rule set without loosening anybody else's.
            let leader_events = vec![u32::from(event.sysno())];
            let engine = self.rules.engine_for(self.context.index);
            let (action, _rule) = engine.evaluate(request, &leader_events);
            match action {
                RuleAction::ExecuteExtra => {
                    VersionCounters::add(&self.context.counters.divergences_allowed, 1);
                    self.context.obs.metrics.divergences_allowed.add(1);
                    self.context.obs.trace(
                        "monitor.divergence_allowed",
                        self.context.index as u64,
                        u64::from(request.sysno.number()),
                    );
                    self.pending = Some(staged);
                    let translated = self.translate_fd_args(request);
                    let outcome = self.kernel.syscall(self.context.pid, &translated);
                    if let Some(fd_info) = outcome.fd {
                        // The extra call created a descriptor the application
                        // will name by its local number; drop any stale
                        // leader-numbered mapping that would shadow it.
                        self.fd_map.lock().remove(&i64::from(fd_info.fd));
                    }
                    VersionCounters::add(&self.context.counters.cycles, outcome.cost);
                    VersionCounters::add(&self.context.counters.syscalls, 1);
                    return outcome;
                }
                RuleAction::SkipLeaderEvent => {
                    VersionCounters::add(&self.context.counters.divergences_allowed, 1);
                    self.context.obs.metrics.divergences_allowed.add(1);
                    self.context.obs.trace(
                        "monitor.divergence_allowed",
                        self.context.index as u64,
                        u64::from(event.sysno()),
                    );
                    self.context.clock.observe(event.clock());
                    self.dispose_rule_consumed(origin);
                    continue;
                }
                RuleAction::Kill => {
                    // A crashed leader's tail can legitimately diverge from a
                    // healthy follower at the crash-triggering request, and
                    // the verdict races with the coordinator's promotion
                    // decision — give it a bounded window before treating
                    // the divergence as fatal.  The grace runs on the
                    // kernel's clock source (wall in production, virtual
                    // under simulation) with the PR-1 value as the default.
                    let clock = self.kernel.wait_clock();
                    let grace = clock.deadline(PROMOTION_GRACE);
                    while !self.context.is_promoted() && !grace.expired() {
                        clock.sleep(FOLLOWER_POLL);
                    }
                    // Once promoted, skip the stale event and keep draining;
                    // the takeover happens in after_wait_interrupted() when
                    // the ring is empty, preserving drain-before-promote.
                    if self.context.is_promoted() {
                        self.context.clock.observe(event.clock());
                        self.dispose_rule_consumed(origin);
                        continue;
                    }
                    VersionCounters::add(&self.context.counters.divergences_killed, 1);
                    self.context.obs.metrics.divergences_killed.add(1);
                    self.context.obs.trace(
                        "monitor.divergence_killed",
                        self.context.index as u64,
                        u64::from(event.sysno()),
                    );
                    self.context.killed.store(true, Ordering::Release);
                    panic!(
                        "varan: follower {} killed: attempted {} while leader executed {}",
                        self.context.index,
                        request.sysno.name(),
                        event.sysno()
                    );
                }
            }
        }
    }

    fn consume_matching(&mut self, request: &SyscallRequest, staged: StagedEvent) -> SyscallOutcome {
        let StagedEvent {
            event,
            payload,
            origin,
        } = staged;
        self.context.clock.observe(event.clock());
        let payload_len = payload.len();
        // Drain on every event, not just fd-creating ones: the leader also
        // re-transfers upgraded descriptors (e.g. listen() turning the plain
        // socket into a listener), and the mapping must be current before
        // this follower could ever be promoted.
        self.drain_fd_channel();
        let mut fds = 0usize;
        if request.sysno.creates_fd() && event.result() >= 0 {
            fds = 1;
            // A runtime joiner replays events whose descriptor transfers
            // happened before it attached; heal the missing mapping with a
            // fresh kernel-side transfer from the current leader.
            if let Some(healer) = &self.healer {
                healer.heal(event.result(), &mut self.fd_map.lock());
            }
        }
        let overhead =
            self.costs
                .follower_overhead(request.sysno.is_virtual(), payload_len, fds);
        if varan_obs::enabled() {
            // Lane = version index: replays are per-follower, not per-ring.
            self.context
                .obs
                .metrics
                .events_replayed
                .add(self.context.index, 1);
        }
        VersionCounters::add(&self.context.counters.monitor_cycles, overhead);
        VersionCounters::add(&self.context.counters.events, 1);
        VersionCounters::add(&self.context.counters.syscalls, 1);
        let mut outcome = SyscallOutcome::ok(request.sysno, event.result(), overhead);
        match payload {
            StagedPayload::None => {}
            StagedPayload::Owned(data) => outcome = outcome.with_data(data),
            // The one copy left on the payload path: the application owns
            // the buffer it receives (mirroring the paper's copy into the
            // app's own buffer), materialized here — after replay is
            // certain — rather than speculatively at drain time.  The lap
            // gate still pins the region: it only advances below, via
            // finish_window_entry, after this read.
            StagedPayload::Pooled(ptr) => outcome = outcome.with_data(self.pool.read(ptr)),
        }
        if fds > 0 {
            outcome = outcome.with_fd(event.result() as i32);
        }
        if let Some(seq) = origin {
            // The follower's own half of the certification fold: its request,
            // pressed into the same identity shape the leader published.
            let mine = Event::syscall(request.sysno.number(), &request.args, 0).with_tid(self.tid);
            let mut queue = self.tuple.lock();
            finish_window_entry(&mut queue, seq, Some(mine), &self.context.obs, self.context.index);
        }
        outcome
    }

    /// Handles a request whose event wait was interrupted by a promotion or a
    /// kill verdict.
    fn after_wait_interrupted(&mut self, request: &SyscallRequest) -> SyscallOutcome {
        if self.context.is_promoted() {
            self.ensure_promoted();
            // The interrupted call is restarted and executed by the new
            // leader, mirroring the -ERESTARTSYS handling in §3.2.
            VersionCounters::add(&self.context.counters.restarts, 1);
            return self.leader_execute(request);
        }
        // Killed: unwind this version.
        panic!(
            "varan: follower {} killed while waiting for events",
            self.context.index
        );
    }

    fn ensure_promoted(&mut self) {
        if self.promotion_handled {
            return;
        }
        self.promotion_handled = true;
        self.table.promote_to_leader();
        self.release_slot();
        // As leader this version evaluates no rules.  Its scoped set was
        // written for replaying its predecessor's stream, which it needed
        // until the drain above finished; left installed, it would silently
        // mask real divergences once a later hop demotes it.
        self.rules.remove(self.context.index);
        // Pick up any descriptor transfers still sitting on the data channel
        // (the crashed leader may have died before this follower replayed an
        // event that would have drained them).
        self.drain_fd_channel();
    }

    /// Retires this thread's ring consumer and, when the slot came from the
    /// fleet's spare pool, hands the handle back so a future joiner can
    /// re-activate it (consumer claims are permanent, so a dropped handle
    /// would leak the slot for the rest of the run).
    fn release_slot(&mut self) {
        let consumer = self.tuple.lock().consumer.take();
        if let Some(mut consumer) = consumer {
            consumer.unsubscribe();
            if let Some(pool) = &self.slot_pool {
                pool.lock().push(consumer);
            }
        }
    }

    /// Picks up a posted handover ticket: this *promoted* follower (the
    /// current leader) retires back into a plain follower on the granted
    /// spare slot, releasing its successor.  The inverse of
    /// [`FollowerMonitor::ensure_promoted`], used by multi-hop upgrade
    /// chains where the leader being retired is itself a previously promoted
    /// candidate.
    fn execute_unpromotion(&mut self, ticket: HandoverTicket) {
        let followers = Arc::clone(
            &self
                .promoted_core
                .as_ref()
                .expect("promoted follower has a leader core")
                .followers,
        );
        let ring = Arc::clone(self.rings.ring(0));
        let Some((consumer, rules, slot_pool)) =
            demote_to_follower(&self.context, &ring, &followers, ticket)
        else {
            return; // dead successor: the handover was aborted, keep leading
        };
        self.slot = consumer.index();
        let tuple = Arc::new(Mutex::new(TupleQueue::with_consumer(consumer, ring.capacity())));
        let mut registry = HashMap::new();
        registry.insert(0usize, Arc::downgrade(&tuple));
        self.tuple = tuple;
        self.tuples = Arc::new(Mutex::new(registry));
        self.table = SyscallTable::follower();
        self.rules = rules;
        self.slot_pool = Some(slot_pool);
        self.pending = None;
        self.promotion_handled = false;
        self.context.promoted.store(false, Ordering::Release);
        self.context.handover.complete();
    }

    fn leader_execute(&mut self, request: &SyscallRequest) -> SyscallOutcome {
        let translated = self.translate_fd_args(request);
        let core = self
            .promoted_core
            .as_mut()
            .expect("promoted follower has a leader core");
        let outcome = core.execute_and_record(&translated, &self.context.clock, &self.context.counters);
        if let Some(fd_info) = outcome.fd {
            // The application will refer to this brand-new descriptor by its
            // *local* number from now on.  A replay-era mapping keyed by the
            // same number (the old leader recycled it for a different object
            // back then) would silently shadow the new descriptor and
            // misdirect every later call on it — drop it.
            self.fd_map.lock().remove(&i64::from(fd_info.fd));
        }
        outcome
    }

    fn execute_locally(&mut self, request: &SyscallRequest) -> SyscallOutcome {
        let translated = self.translate_fd_args(request);
        let outcome = self.kernel.syscall(self.context.pid, &translated);
        VersionCounters::add(&self.context.counters.cycles, outcome.cost);
        VersionCounters::add(&self.context.counters.local_calls, 1);
        VersionCounters::add(&self.context.counters.syscalls, 1);
        VersionCounters::add(
            &self.context.counters.monitor_cycles,
            self.costs.intercept_cost(request.sysno.is_virtual()),
        );
        outcome
    }
}

impl SyscallInterface for FollowerMonitor {
    fn syscall(&mut self, request: &SyscallRequest) -> SyscallOutcome {
        // A promotion must not take effect before the ring is drained: the
        // crashed leader's published events still have to be replayed, or
        // the new leader would re-execute (and re-publish) calls the other
        // followers have already seen. The drain-then-switch happens inside
        // replay()/next_event(); only once the switch is done
        // (promotion_handled) does this monitor dispatch as a leader.
        if self.promotion_handled {
            // A planned handover retires this (promoted) leader back into a
            // follower before the next call executes.
            if self.tid == 0 && self.context.handover.is_requested() {
                if let Some(ticket) = self.context.handover.begin() {
                    self.execute_unpromotion(ticket);
                }
            }
        }
        if self.promotion_handled {
            return match self.table.action(request.sysno) {
                HandlerAction::ExecuteLocally => self.execute_locally(request),
                HandlerAction::Deny => {
                    SyscallOutcome::err(request.sysno, Errno::ENOSYS, self.costs.intercept)
                }
                _ => self.leader_execute(request),
            };
        }
        match self.table.action(request.sysno) {
            HandlerAction::ExecuteLocally => self.execute_locally(request),
            HandlerAction::Deny => {
                SyscallOutcome::err(request.sysno, Errno::ENOSYS, self.costs.intercept)
            }
            _ => self.replay(request),
        }
    }

    fn spawn_thread(&mut self) -> Box<dyn SyscallInterface> {
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        // Clamp exactly as the leader does (LeaderCore::new → RingSet::ring):
        // threads past the provisioned tuples share the last ring. A ring's
        // consumer slot can only be claimed once, so the surplus threads
        // share the clamped ring's replay queue instead of panicking with
        // "no free ring for thread".
        let ring_index = (tid as usize).min(self.rings.tuples().saturating_sub(1));
        let tuple = {
            let mut registry = self.tuples.lock();
            match registry.get(&ring_index).and_then(Weak::upgrade) {
                Some(tuple) => {
                    tuple.lock().owners += 1;
                    tuple
                }
                None => {
                    // A dead Weak with the slot still claimed means every
                    // thread of this tuple exited earlier in the run
                    // (consumer claims are permanent); spawning *another*
                    // thread onto it afterwards is unsupported — the retired
                    // gate cannot be safely re-registered mid-stream — and
                    // was a panic before this monitor existed too.
                    let consumer = self
                        .rings
                        .ring(ring_index)
                        .consumer(self.slot)
                        .unwrap_or_else(|err| {
                            panic!(
                                "varan: follower {} thread {tid}: cannot claim ring \
                                 {ring_index} slot {} (threads of an exhausted tuple \
                                 cannot be respawned): {err}",
                                self.context.index, self.slot
                            )
                        });
                    let capacity = self.rings.ring(ring_index).capacity();
                    let tuple =
                        Arc::new(Mutex::new(TupleQueue::with_consumer(consumer, capacity)));
                    registry.insert(ring_index, Arc::downgrade(&tuple));
                    tuple
                }
            }
        };
        let core = self
            .promoted_core
            .as_ref()
            .expect("follower has a leader core")
            .fork_with_tid(tid);
        Box::new(FollowerMonitor {
            kernel: self.kernel.clone(),
            context: self.context.clone(),
            table: self.table.clone(),
            tuple,
            tuples: Arc::clone(&self.tuples),
            slot: self.slot,
            pool: Arc::clone(&self.pool),
            rules: Arc::clone(&self.rules),
            costs: self.costs.clone(),
            fd_map: Arc::clone(&self.fd_map),
            pending: None,
            promoted_core: Some(core),
            promotion_handled: self.promotion_handled,
            tid,
            next_tid: Arc::clone(&self.next_tid),
            rings: Arc::clone(&self.rings),
            catch_up: None,
            healer: None,
            // The spare pool only holds *main-ring* consumers; a sibling
            // clamped onto ring 0 must be able to return the pooled slot if
            // it is the last owner, while non-main tuples are never pooled.
            slot_pool: if ring_index == 0 {
                self.slot_pool.clone()
            } else {
                None
            },
        })
    }

    fn cpu_work(&mut self, cycles: u64) {
        // Followers run the same computation on their own core; it counts
        // towards their own cycle budget but never touches the leader path.
        VersionCounters::add(&self.context.counters.cycles, cycles);
    }
}

impl Drop for FollowerMonitor {
    fn drop(&mut self) {
        // Hand a pooled slot back to the fleet when the follower retires
        // (clean exit, kill, or detach); no-op when already released by a
        // promotion. Threads sharing a clamped ring leave the release to
        // whichever of them drops last, decided under the queue lock.
        let last_owner = {
            let mut queue = self.tuple.lock();
            queue.owners = queue.owners.saturating_sub(1);
            queue.owners == 0
        };
        if last_owner {
            self.release_slot();
        }
    }
}

#[doc(hidden)]
pub mod replay_probe {
    //! A test- and bench-only driver for the zero-copy replay machinery:
    //! owns a `TupleQueue` over a real ring consumer and exposes the
    //! drain → replay → certify cycle without the full monitor stack, so
    //! allocation behaviour and certification arithmetic can be exercised
    //! deterministically (and from integration tests, which cannot reach
    //! the private internals).

    use super::*;
    use varan_ring::RingBuffer;

    /// Drives one replay queue the way a sole-owner [`FollowerMonitor`]
    /// would: bounded drains, pool-resident payloads, per-window
    /// certification and lap advancement.
    #[derive(Debug)]
    pub struct ReplayProbe {
        queue: TupleQueue,
        pool: Arc<PoolAllocator>,
        obs: Arc<varan_obs::Registry>,
    }

    impl ReplayProbe {
        /// Claims consumer `slot` on `ring` and wraps it in a lap-gated
        /// replay queue.
        pub fn new(
            ring: &Arc<RingBuffer<Event>>,
            slot: usize,
            pool: Arc<PoolAllocator>,
            obs: Arc<varan_obs::Registry>,
        ) -> Self {
            let consumer = ring.consumer(slot).expect("free consumer slot");
            ReplayProbe {
                queue: TupleQueue::with_consumer(consumer, ring.capacity()),
                pool,
                obs,
            }
        }

        /// One bounded drain round; returns the number of events staged.
        pub fn drain(&mut self) -> usize {
            refill_ring_queue(&mut self.queue, &self.pool, &self.obs.metrics)
        }

        /// Events currently staged for `tid`.
        pub fn staged_len(&self, tid: u32) -> usize {
            self.queue.staged.get(&tid).map_or(0, VecDeque::len)
        }

        /// The queue's lap counter: number of events whose replay has
        /// completed (pool regions below it are reclaimable).
        pub fn lap(&self) -> u64 {
            self.queue
                .consumer
                .as_ref()
                .map_or(0, Consumer::lap)
        }

        /// Replays the next staged event of `tid` as a perfectly matching
        /// follower request: delivers the payload (the single owned buffer
        /// the application receives) and completes the certification window
        /// entry.  Returns the delivered payload length.
        pub fn replay_next(&mut self, tid: u32) -> Option<usize> {
            let staged = self.queue.staged.get_mut(&tid)?.pop_front()?;
            let mine = Event::syscall(staged.event.sysno(), staged.event.args(), 0)
                .with_tid(staged.event.tid());
            self.finish(staged, mine)
        }

        /// Replays the next staged event of `tid` with the follower's side
        /// of the certification replaced by `follower` — used to plant
        /// divergences the batch fold must catch.
        pub fn replay_next_as(&mut self, tid: u32, follower: Event) -> Option<usize> {
            let staged = self.queue.staged.get_mut(&tid)?.pop_front()?;
            self.finish(staged, follower)
        }

        /// Drops the next staged event of `tid` as a rewrite rule would
        /// (consumed without replay): dirties the window, still advances
        /// the lap at the quiescent point.
        pub fn skip_next(&mut self, tid: u32) -> Option<()> {
            let staged = self.queue.staged.get_mut(&tid)?.pop_front()?;
            if let Some(seq) = staged.origin {
                finish_window_entry(&mut self.queue, seq, None, &self.obs, 0);
            }
            Some(())
        }

        fn finish(&mut self, staged: StagedEvent, mine: Event) -> Option<usize> {
            let delivered = match staged.payload {
                StagedPayload::None => Vec::new(),
                StagedPayload::Owned(data) => data,
                // Safe for the same reason as in consume_matching: the lap
                // only advances in finish_window_entry, below this read.
                StagedPayload::Pooled(ptr) => self.pool.read(ptr),
            };
            let len = delivered.len();
            if let Some(seq) = staged.origin {
                finish_window_entry(&mut self.queue, seq, Some(mine), &self.obs, 0);
            }
            Some(len)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::replay_probe::ReplayProbe;
    use super::*;
    use varan_ring::{PoolConfig, RingBuffer, WaitStrategy};

    fn harness(
        capacity: usize,
    ) -> (
        Arc<RingBuffer<Event>>,
        Arc<PoolAllocator>,
        Arc<varan_obs::Registry>,
        ReplayProbe,
    ) {
        let ring: Arc<RingBuffer<Event>> =
            Arc::new(RingBuffer::new(capacity, 1, WaitStrategy::Spin).unwrap());
        let pool = Arc::new(PoolAllocator::new(PoolConfig::default()));
        let obs = Arc::new(varan_obs::Registry::new());
        let probe = ReplayProbe::new(&ring, 0, Arc::clone(&pool), Arc::clone(&obs));
        (ring, pool, obs, probe)
    }

    fn publish_payload_event(
        ring: &Arc<RingBuffer<Event>>,
        pool: &PoolAllocator,
        fill: u8,
        len: usize,
    ) -> u64 {
        let region = pool.alloc_and_write(&vec![fill; len]).unwrap();
        let event = Event::syscall(0, &[u64::from(fill)], len as i64)
            .with_shared(region.ptr());
        ring.producer().publish_signed(event, event.signature())
    }

    #[test]
    fn laggard_drain_never_pins_more_than_half_a_lap() {
        let (ring, _pool, _obs, mut probe) = harness(16);
        let producer = ring.producer();
        for i in 0..16u64 {
            let event = Event::syscall(1, &[i], 0);
            producer.publish_signed(event, event.signature());
        }
        // The ring is full; one drain round takes at most half a lap...
        assert_eq!(probe.drain(), 8);
        assert_eq!(probe.staged_len(0), 8);
        // ...and frees those slots for the producer immediately (the gate
        // advanced), while the lap counter still pins the batch's payloads.
        assert_eq!(producer.refresh_reclaim_horizon(), 0);
        let event = Event::syscall(1, &[99], 0);
        assert!(producer.try_publish(event).is_ok());
        // Replay completion releases the whole batch in one lap advance.
        for _ in 0..8 {
            probe.replay_next(0).unwrap();
        }
        assert_eq!(probe.lap(), 8);
        assert_eq!(producer.refresh_reclaim_horizon(), 8);
    }

    #[test]
    fn zero_copy_staging_saves_payload_bytes_and_certifies_once_per_batch() {
        let (ring, pool, obs, mut probe) = harness(16);
        for i in 0..4 {
            publish_payload_event(&ring, &pool, i, 512);
        }
        assert_eq!(probe.drain(), 4);
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.follower_copy_bytes_saved, 4 * 512);
        assert_eq!(snap.follower_copy_bytes, 0);
        for _ in 0..4 {
            assert_eq!(probe.replay_next(0), Some(512));
        }
        let snap = obs.metrics.snapshot();
        // One fold comparison certified the whole batch.
        assert_eq!(snap.divergence_fast_path_hits, 1);
        assert_eq!(snap.divergence_hash_mismatches, 0);
    }

    #[test]
    fn planted_divergence_fails_the_fold_and_is_localized() {
        let (ring, _pool, obs, mut probe) = harness(16);
        let producer = ring.producer();
        for i in 0..4u64 {
            let event = Event::syscall(2, &[i, 7], 0);
            producer.publish_signed(event, event.signature());
        }
        assert_eq!(probe.drain(), 4);
        probe.replay_next(0).unwrap();
        // Same sysno, different argument word: the per-event sysno check
        // would pass this one, only the signature fold catches it.
        let divergent = Event::syscall(2, &[1, 8], 0);
        probe.replay_next_as(0, divergent).unwrap();
        probe.replay_next(0).unwrap();
        probe.replay_next(0).unwrap();
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.divergence_fast_path_hits, 0);
        assert_eq!(snap.divergence_hash_mismatches, 1);
        // The lap still advances: hash mismatches report, they never wedge
        // reclamation (or kill — the rules remain the kill authority).
        assert_eq!(probe.lap(), 4);
    }

    #[test]
    fn rule_consumed_event_dirties_the_window_but_not_the_lap() {
        let (ring, _pool, obs, mut probe) = harness(16);
        let producer = ring.producer();
        for i in 0..3u64 {
            let event = Event::syscall(3, &[i], 0);
            producer.publish_signed(event, event.signature());
        }
        assert_eq!(probe.drain(), 3);
        probe.replay_next(0).unwrap();
        probe.skip_next(0).unwrap();
        probe.replay_next(0).unwrap();
        let snap = obs.metrics.snapshot();
        // An adjudicated divergence skips certification entirely: neither
        // a fast-path hit nor a false mismatch.
        assert_eq!(snap.divergence_fast_path_hits, 0);
        assert_eq!(snap.divergence_hash_mismatches, 0);
        assert_eq!(probe.lap(), 3);
    }
}
