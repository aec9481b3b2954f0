//! Seeded fault plans: everything a simulated run does that a plain run
//! would not, derived as a pure function of one `u64` seed.
//!
//! A [`FaultPlan`] fully describes one scenario: the mode (which subsystem
//! is under attack), the workload shape (versions, iterations, journal
//! size, upgrade hops, ...) and the [`Fault`]s to inject.  Because the plan
//! is derived from the seed alone, `FaultPlan::generate(seed)` on two
//! machines produces the identical plan — which is half of what makes a
//! failing seed reproducible.  The other half (why re-running the same plan
//! yields the same trace hash) is argued in the crate docs.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::trace::Fnv;

/// Which subsystem a seeded run attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Versions crash at chosen syscall boundaries; failover must absorb
    /// every combination (leader, followers, cascades).
    Crash,
    /// Versions issue extra system calls; divergence verdicts must be
    /// deterministic and confined to the diverging version (or, for a
    /// diverging leader, to its followers).
    Divergence,
    /// Versions are slowed at seeded points; lag at ring-lap edges must
    /// never corrupt the stream or kill anybody.
    Lag,
    /// The spill journal suffers torn/short/corrupt final writes and is
    /// reopened; recovery must truncate, never invent or crash.
    Journal,
    /// Fleet members join (and leave) a running execution mid-stream; a
    /// joiner's observed stream must be byte-for-byte the leader's.
    Churn,
    /// A live upgrade runs its canary → soak → promote pipeline while the
    /// candidate crashes in chosen windows; outcomes must be deterministic
    /// and rollbacks complete.
    Upgrade,
    /// A client drives a crashing server fleet over the loopback network;
    /// every request must eventually be answered (§5.1's zero-downtime
    /// bar under retries).
    Clients,
    /// A multi-descriptor workload fans keyed traffic over a sharded
    /// plane while shard-targeted lag (and sometimes a crash) probes one
    /// lane's lap edges; survivors must converge on every shard and the
    /// plane must publish the full workload whoever ends up leading it.
    Shard,
    /// Several subsystems attacked in one seeded scenario: fleet churn
    /// (joiners attaching, optionally a crashing version) layered with a
    /// live-upgrade hop and journal media damage, all observed through one
    /// telemetry registry so the run covers tracepoint *edges* no
    /// single-mode plan can produce.  Never emitted by
    /// [`FaultPlan::generate`]; reached through [`FaultPlan::compose`] and
    /// the explorer's escalation mutation.
    Composed,
}

impl Mode {
    /// Stable numeric tag folded into digests.
    #[must_use]
    pub fn tag(self) -> u64 {
        match self {
            Mode::Crash => 1,
            Mode::Divergence => 2,
            Mode::Lag => 3,
            Mode::Journal => 4,
            Mode::Churn => 5,
            Mode::Upgrade => 6,
            Mode::Clients => 7,
            Mode::Shard => 8,
            Mode::Composed => 9,
        }
    }

    /// Human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mode::Crash => "crash",
            Mode::Divergence => "divergence",
            Mode::Lag => "lag",
            Mode::Journal => "journal",
            Mode::Churn => "churn",
            Mode::Upgrade => "upgrade",
            Mode::Clients => "clients",
            Mode::Shard => "shard",
            Mode::Composed => "composed",
        }
    }

    /// The inverse of [`name`](Self::name) (plan-file decoding).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Mode> {
        Some(match name {
            "crash" => Mode::Crash,
            "divergence" => Mode::Divergence,
            "lag" => Mode::Lag,
            "journal" => Mode::Journal,
            "churn" => Mode::Churn,
            "upgrade" => Mode::Upgrade,
            "clients" => Mode::Clients,
            "shard" => Mode::Shard,
            "composed" => Mode::Composed,
            _ => return None,
        })
    }
}

/// Where in the upgrade pipeline a candidate is crashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateWindow {
    /// During canary replay, at the candidate's own n-th system call.
    Canary {
        /// The candidate's own syscall count at which it crashes.
        at_syscall: u64,
    },
    /// Exactly between ring-gate registration and the drain-switch to live
    /// consumption — the window PR 4 reasons about.
    GateRegistered,
    /// At the live-switch boundary itself.
    LiveSwitch,
}

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Version `version` crashes at its own `at_syscall`-th system call
    /// (counted in the version's own frame, so the trigger is independent
    /// of whether it is leading or following at the time).
    CrashVersion {
        /// Version index.
        version: usize,
        /// The version's own syscall count at which it crashes.
        at_syscall: u64,
    },
    /// Version `version` issues one extra `getuid` immediately before its
    /// `at_syscall`-th call — a syscall-sequence divergence (§3.4).
    Diverge {
        /// Version index.
        version: usize,
        /// The version's own syscall count at which the extra call lands.
        at_syscall: u64,
    },
    /// Version `version` stalls (virtual-time delay plus a yield) every
    /// `every` calls — a seeded laggard probing ring-lap edges.
    Lag {
        /// Version index.
        version: usize,
        /// Stall every this many of the version's own calls.
        every: u64,
        /// Virtual microseconds per stall.
        micros: u64,
    },
    /// The `nth` descriptor transfer of the run fails (the receiving
    /// follower must cope with the missing mapping).
    FailFdTransfer {
        /// 1-based global transfer index.
        nth: u64,
    },
    /// The final journal append reaches the disk torn: only `keep` of its
    /// frame bytes are written.
    TornWrite {
        /// Sequence of the (final) torn record.
        at_record: u64,
        /// Frame bytes that survive.
        keep: usize,
    },
    /// One bit of the final journal frame is flipped on its way to disk
    /// (media corruption).
    FlipBit {
        /// Sequence of the (final) corrupted record.
        at_record: u64,
    },
    /// One byte of a *mid-journal* record's payload is flipped on its way
    /// to disk.  Unlike [`Fault::FlipBit`] this damages the interior of the
    /// journal, not its dying tail: recovery must surface a scrub report,
    /// keep the intact prefix byte-identical, and never silently absorb the
    /// corrupt frame (docs/DURABILITY.md).
    FlipPayloadByte {
        /// Sequence of the corrupted record (never the final one).
        at_record: u64,
    },
    /// Version `version` stalls only on calls that key to `shard` — a
    /// laggard confined to one lane of the sharded plane, probing that
    /// shard's lap edge while its sibling shards run free.
    ShardLag {
        /// Version index.
        version: usize,
        /// Shard whose keyed calls are stalled.
        shard: usize,
        /// Stall every this many of the version's matching calls.
        every: u64,
        /// Virtual microseconds per stall.
        micros: u64,
    },
    /// Upgrade hop `hop`'s candidate crashes in the given window.
    CrashCandidate {
        /// 0-based hop index within the chain.
        hop: usize,
        /// Where in the pipeline the crash lands.
        window: CandidateWindow,
    },
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::CrashVersion { version, at_syscall } => {
                write!(f, "crash version {version} at its syscall #{at_syscall}")
            }
            Fault::Diverge { version, at_syscall } => {
                write!(f, "diverge version {version} (extra getuid) at its syscall #{at_syscall}")
            }
            Fault::Lag { version, every, micros } => {
                write!(f, "lag version {version}: {micros}us stall every {every} calls")
            }
            Fault::ShardLag { version, shard, every, micros } => {
                write!(
                    f,
                    "shard-lag version {version}: {micros}us stall every {every} calls keyed to shard {shard}"
                )
            }
            Fault::FailFdTransfer { nth } => {
                write!(f, "fail descriptor transfer #{nth}")
            }
            Fault::TornWrite { at_record, keep } => {
                write!(f, "tear the write of journal record {at_record} to {keep} bytes")
            }
            Fault::FlipBit { at_record } => {
                write!(f, "flip one bit in the write of journal record {at_record}")
            }
            Fault::FlipPayloadByte { at_record } => {
                write!(
                    f,
                    "flip one payload byte in the write of mid-journal record {at_record}"
                )
            }
            Fault::CrashCandidate { hop, window } => match window {
                CandidateWindow::Canary { at_syscall } => write!(
                    f,
                    "crash upgrade hop {hop}'s candidate during canary replay at its syscall #{at_syscall}"
                ),
                CandidateWindow::GateRegistered => write!(
                    f,
                    "crash upgrade hop {hop}'s candidate between gate registration and drain-switch"
                ),
                CandidateWindow::LiveSwitch => {
                    write!(f, "crash upgrade hop {hop}'s candidate at the live-switch boundary")
                }
            },
        }
    }
}

impl Fault {
    fn fold_into(&self, fnv: &mut Fnv) {
        match *self {
            Fault::CrashVersion { version, at_syscall } => {
                fnv.fold(1);
                fnv.fold(version as u64);
                fnv.fold(at_syscall);
            }
            Fault::Diverge { version, at_syscall } => {
                fnv.fold(2);
                fnv.fold(version as u64);
                fnv.fold(at_syscall);
            }
            Fault::Lag { version, every, micros } => {
                fnv.fold(3);
                fnv.fold(version as u64);
                fnv.fold(every);
                fnv.fold(micros);
            }
            Fault::FailFdTransfer { nth } => {
                fnv.fold(4);
                fnv.fold(nth);
            }
            Fault::TornWrite { at_record, keep } => {
                fnv.fold(5);
                fnv.fold(at_record);
                fnv.fold(keep as u64);
            }
            Fault::FlipBit { at_record } => {
                fnv.fold(6);
                fnv.fold(at_record);
            }
            Fault::FlipPayloadByte { at_record } => {
                fnv.fold(9);
                fnv.fold(at_record);
            }
            Fault::ShardLag { version, shard, every, micros } => {
                fnv.fold(8);
                fnv.fold(version as u64);
                fnv.fold(shard as u64);
                fnv.fold(every);
                fnv.fold(micros);
            }
            Fault::CrashCandidate { hop, window } => {
                fnv.fold(7);
                fnv.fold(hop as u64);
                match window {
                    CandidateWindow::Canary { at_syscall } => {
                        fnv.fold(1);
                        fnv.fold(at_syscall);
                    }
                    CandidateWindow::GateRegistered => fnv.fold(2),
                    CandidateWindow::LiveSwitch => fnv.fold(3),
                }
            }
        }
    }
}

/// A complete seeded scenario description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed this plan was generated from.
    pub seed: u64,
    /// The schedule-exploration dimension: folded into the digest (and so
    /// the trace hash) but into *nothing else the outcome model sees* —
    /// the sweep driver derives its perturbation stream from
    /// `seed ^ mix(salt)`, so two plans differing only in salt run the
    /// same scenario under a different interleaving.  Generated plans
    /// carry salt 0; the explorer's reseed mutation sets it.
    pub salt: u64,
    /// Which subsystem is under attack.
    pub mode: Mode,
    /// Launched versions (leader + followers).
    pub versions: usize,
    /// Workload iterations per version (3 streamed calls each).
    pub iterations: u32,
    /// Ring-buffer capacity in events.  Seeded small-to-default so lap
    /// edges (the paper's tiny one-lap window) are probed constantly: with
    /// a 16-slot ring a bursty leader laps a distracted joiner in
    /// microseconds.
    pub ring_capacity: usize,
    /// Journal mode: records appended before the faulty final append.
    pub journal_records: u64,
    /// Journal mode: records per segment (rotation threshold).
    pub segment_records: usize,
    /// Churn mode: observers attached mid-run.
    pub joiners: usize,
    /// Upgrade mode: hops in the chain.
    pub hops: usize,
    /// Clients mode: echo requests the client must complete.
    pub requests: u32,
    /// Shard mode: shards in the sharded plane (0 everywhere else).
    pub shards: usize,
    /// The injected faults.
    pub faults: Vec<Fault>,
}

/// Total system calls the steady workload issues per version
/// (open + `3 * iterations` + close + exit).
#[must_use]
pub fn workload_syscalls(iterations: u32) -> u64 {
    3 * u64::from(iterations) + 3
}

/// Descriptors the shard-mode workload fans its keyed writes over.
pub const SHARD_FANOUT: u32 = 6;

/// Total system calls the shard-mode workload issues per version
/// ([`SHARD_FANOUT`] opens + one write per descriptor per iteration +
/// every-4th-iteration `getegid` + closes + exit).
#[must_use]
pub fn shard_workload_syscalls(iterations: u32) -> u64 {
    let fanout = u64::from(SHARD_FANOUT);
    let iters = u64::from(iterations);
    fanout + iters * fanout + iters.div_ceil(4) + fanout + 1
}

impl FaultPlan {
    /// Derives the complete plan from `seed`.
    ///
    /// The generator keeps plans inside the space where run outcomes are
    /// schedule-independent (see the crate docs): crash points are
    /// pairwise distinct, divergence plans never also crash the leader,
    /// journal faults only hit the final write, and at most one version
    /// survives unfaulted... er, at least one.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn generate(seed: u64) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0F4A_17_94A5);
        let mut pick = |bound: u64| -> u64 { rng.next_u64() % bound.max(1) };

        let mode = match pick(16) {
            0..=3 => Mode::Crash,
            4..=6 => Mode::Divergence,
            7..=8 => Mode::Lag,
            9..=10 => Mode::Journal,
            11..=12 => Mode::Churn,
            13 => Mode::Shard,
            14 => Mode::Upgrade,
            _ => Mode::Clients,
        };

        let mut plan = FaultPlan {
            seed,
            salt: 0,
            mode,
            versions: 2,
            iterations: 60,
            ring_capacity: [16, 32, 64, 128, 256][pick(5) as usize],
            journal_records: 0,
            segment_records: 16,
            joiners: 0,
            hops: 0,
            requests: 0,
            shards: 0,
            faults: Vec::new(),
        };

        match mode {
            Mode::Crash => {
                plan.versions = 2 + pick(3) as usize; // 2..=4
                plan.iterations = 40 + pick(100) as u32;
                let total = workload_syscalls(plan.iterations);
                let fault_count = 1 + pick(2) as usize; // 1..=2
                let mut versions: Vec<usize> = (0..plan.versions).collect();
                // Keep at least one version unfaulted so the lineage ends
                // with a clean survivor.
                let stride = plan.versions as u64;
                for _ in 0..fault_count.min(plan.versions - 1) {
                    let slot = pick(versions.len() as u64) as usize;
                    let version = versions.swap_remove(slot);
                    // Crash points congruent to the version index modulo the
                    // version count are pairwise distinct, which keeps the
                    // symbolic crash order (and so the expected outcome)
                    // unambiguous.
                    let at_syscall = 2 + pick((total - 8) / stride) * stride + version as u64;
                    plan.faults.push(Fault::CrashVersion {
                        version,
                        at_syscall,
                    });
                }
                if pick(4) == 0 {
                    plan.faults.push(Fault::FailFdTransfer { nth: 1 + pick(8) });
                }
            }
            Mode::Divergence => {
                plan.versions = 2 + pick(3) as usize;
                plan.iterations = 40 + pick(80) as u32;
                let total = workload_syscalls(plan.iterations);
                let fault_count = 1 + pick(2) as usize;
                let mut versions: Vec<usize> = (0..plan.versions).collect();
                let stride = plan.versions as u64;
                for _ in 0..fault_count.min(plan.versions) {
                    let slot = pick(versions.len() as u64) as usize;
                    let version = versions.swap_remove(slot);
                    // Pairwise-distinct divergence points (same congruence
                    // trick as the crash arm): a leader and a follower
                    // diverging at the *same* point would produce matching
                    // streams — the follower would survive, against the
                    // expected-outcome model.
                    plan.faults.push(Fault::Diverge {
                        version,
                        at_syscall: 3 + pick((total - 8) / stride) * stride + version as u64,
                    });
                }
            }
            Mode::Lag => {
                plan.versions = 2 + pick(3) as usize;
                plan.iterations = 80 + pick(200) as u32;
                let fault_count = 1 + pick(2) as usize;
                let mut versions: Vec<usize> = (0..plan.versions).collect();
                for _ in 0..fault_count.min(plan.versions) {
                    let slot = pick(versions.len() as u64) as usize;
                    let version = versions.swap_remove(slot);
                    plan.faults.push(Fault::Lag {
                        version,
                        every: 1 + pick(8),
                        micros: 100 + pick(5_000),
                    });
                }
            }
            Mode::Journal => {
                plan.versions = 0;
                plan.segment_records = 4 + pick(60) as usize;
                plan.journal_records = 5 + pick(180);
                // The faulty append must be the *final* write of a dying
                // writer; if it would land exactly on a rotation boundary
                // the writer would seal the torn segment afterwards, which
                // is outside the crash model — nudge off the boundary.
                if plan.journal_records.is_multiple_of(plan.segment_records as u64) {
                    plan.journal_records += 1;
                }
                // Records are numbered 0..journal_records; the dying write
                // is the last one.
                let at_record = plan.journal_records - 1;
                match pick(4) {
                    0 => plan.faults.push(Fault::FlipBit { at_record }),
                    1 => {
                        // Interior media corruption: damage a record the
                        // writer went on to durably follow (journal_records
                        // is >= 5, so a non-final target always exists).
                        plan.faults.push(Fault::FlipPayloadByte {
                            at_record: pick(at_record),
                        });
                    }
                    _ => {
                        // `keep` is clamped against the actual frame length
                        // at injection time; pick generously.
                        plan.faults.push(Fault::TornWrite {
                            at_record,
                            keep: pick(96) as usize,
                        });
                    }
                }
            }
            Mode::Churn => {
                plan.versions = 1 + pick(3) as usize; // 1..=3: includes the
                // follower-less topology where PR 4's infinite-gate bug lived
                plan.iterations = 150 + pick(250) as u32;
                plan.joiners = 1 + pick(2) as usize;
                if plan.versions >= 2 && pick(3) == 0 {
                    // Crash a version mid-churn (any, including the leader:
                    // the journal survives a promotion).
                    let version = pick(plan.versions as u64) as usize;
                    let total = workload_syscalls(plan.iterations);
                    plan.faults.push(Fault::CrashVersion {
                        version,
                        at_syscall: total / 4 + pick(total / 2),
                    });
                }
            }
            Mode::Upgrade => {
                plan.versions = 1;
                plan.iterations = 300 + pick(300) as u32;
                plan.hops = 1 + pick(2) as usize;
                for hop in 0..plan.hops {
                    match pick(5) {
                        0 => plan.faults.push(Fault::CrashCandidate {
                            hop,
                            window: CandidateWindow::GateRegistered,
                        }),
                        1 => plan.faults.push(Fault::CrashCandidate {
                            hop,
                            window: CandidateWindow::LiveSwitch,
                        }),
                        2 => plan.faults.push(Fault::CrashCandidate {
                            hop,
                            window: CandidateWindow::Canary {
                                // Strictly below the leader's journaled
                                // warmup (the scenario waits for it), so
                                // the crash always lands during replay.
                                at_syscall: 3 + pick(2 * u64::from(plan.iterations) - 8),
                            },
                        }),
                        _ => {} // clean hop: expect a promotion
                    }
                }
            }
            Mode::Clients => {
                plan.versions = 2 + pick(2) as usize; // 2..=3
                plan.requests = 16 + pick(32) as u32;
                if pick(2) == 0 {
                    // Crash the initial leader somewhere in the serve loop;
                    // the promoted follower must pick the connection up.
                    plan.faults.push(Fault::CrashVersion {
                        version: 0,
                        at_syscall: 4 + pick(u64::from(plan.requests)),
                    });
                }
            }
            Mode::Shard => {
                plan.versions = 2 + pick(2) as usize; // 2..=3
                plan.iterations = 40 + pick(80) as u32;
                plan.shards = 2 + 2 * pick(2) as usize; // 2 or 4
                let total = shard_workload_syscalls(plan.iterations);
                // Every shard plan carries at least one shard-targeted
                // fault: a laggard confined to one lane of the plane.
                plan.faults.push(Fault::ShardLag {
                    version: pick(plan.versions as u64) as usize,
                    shard: pick(plan.shards as u64) as usize,
                    every: 1 + pick(6),
                    micros: 100 + pick(3_000),
                });
                if pick(3) == 0 {
                    // Additionally crash one version (any, including the
                    // leader: a promotion must splice every shard's stream
                    // seamlessly).  A single crash always leaves a survivor.
                    plan.faults.push(Fault::CrashVersion {
                        version: pick(plan.versions as u64) as usize,
                        at_syscall: 2 + pick(total - 8),
                    });
                }
            }
            // `generate` never picks Composed: composed plans enter a
            // corpus only through `compose` (directly or via escalation),
            // which keeps the uniform seed sweep's mode mix stable.
            Mode::Composed => unreachable!("generate never picks Composed"),
        }
        plan
    }

    /// Derives a composed plan from `seed`: fleet churn (with an optional
    /// mid-run crash), a live-upgrade hop (with an optional candidate
    /// crash) and guaranteed journal media damage, all in one scenario
    /// sharing one telemetry registry.  A pure function of the seed, like
    /// [`generate`](Self::generate), but over a mode that generator never
    /// picks — composed plans enter a corpus only through this function
    /// (directly, or via the explorer's escalation mutation).
    #[must_use]
    pub fn compose(seed: u64) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC04D_05ED_0F4A_0001);
        let mut pick = |bound: u64| -> u64 { rng.next_u64() % bound.max(1) };

        let mut plan = FaultPlan {
            seed,
            salt: 0,
            mode: Mode::Composed,
            versions: 2 + pick(2) as usize, // 2..=3
            // One iteration count serves both fleet phases: inside churn's
            // floor (>= 150) and upgrade's (>= 300).
            iterations: 300 + pick(300) as u32,
            ring_capacity: [16, 32, 64, 128, 256][pick(5) as usize],
            journal_records: 5 + pick(60),
            segment_records: 4 + pick(28) as usize,
            joiners: 1 + pick(2) as usize,
            hops: 1,
            requests: 0,
            shards: 0,
            faults: Vec::new(),
        };
        // Same boundary nudge as the journal arm of `generate`.
        if plan.journal_records.is_multiple_of(plan.segment_records as u64) {
            plan.journal_records += 1;
        }

        // Churn-phase fault: crash one fleet member mid-run (half the time).
        if pick(2) == 0 {
            let total = workload_syscalls(plan.iterations);
            plan.faults.push(Fault::CrashVersion {
                version: pick(plan.versions as u64) as usize,
                at_syscall: total / 4 + pick(total / 2),
            });
        }
        // Upgrade-phase fault: crash the hop's candidate in a seeded window
        // (three quarters of the time; the clean quarter expects promotion).
        match pick(4) {
            0 => plan.faults.push(Fault::CrashCandidate {
                hop: 0,
                window: CandidateWindow::GateRegistered,
            }),
            1 => plan.faults.push(Fault::CrashCandidate {
                hop: 0,
                window: CandidateWindow::LiveSwitch,
            }),
            2 => plan.faults.push(Fault::CrashCandidate {
                hop: 0,
                window: CandidateWindow::Canary {
                    at_syscall: 3 + pick(2 * u64::from(plan.iterations) - 8),
                },
            }),
            _ => {}
        }
        // Journal-phase fault: always present — a composed plan without
        // media damage is just churn + upgrade.
        let at_record = plan.journal_records - 1;
        match pick(3) {
            0 => plan.faults.push(Fault::FlipBit { at_record }),
            1 => plan.faults.push(Fault::FlipPayloadByte {
                at_record: pick(at_record),
            }),
            _ => plan.faults.push(Fault::TornWrite {
                at_record,
                keep: pick(96) as usize,
            }),
        }
        plan
    }

    /// A digest of everything in the plan (folded into the trace hash).
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut fnv = Fnv::new();
        fnv.fold(self.seed);
        // Folded immediately after the seed so the salt reshapes the whole
        // digest (the trace hash is keyed on it too, by design).
        fnv.fold(self.salt);
        fnv.fold(self.mode.tag());
        fnv.fold(self.versions as u64);
        fnv.fold(u64::from(self.iterations));
        fnv.fold(self.ring_capacity as u64);
        fnv.fold(self.journal_records);
        fnv.fold(self.segment_records as u64);
        fnv.fold(self.joiners as u64);
        fnv.fold(self.hops as u64);
        fnv.fold(u64::from(self.requests));
        fnv.fold(self.shards as u64);
        for fault in &self.faults {
            fault.fold_into(&mut fnv);
        }
        fnv.value()
    }

    /// Human-readable description: mode, workload shape, one line per fault.
    #[must_use]
    pub fn describe(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "seed {:#018x}: {} mode, {} versions, {} iterations, {}-slot ring",
            self.seed,
            self.mode.name(),
            self.versions,
            self.iterations,
            self.ring_capacity
        )];
        match self.mode {
            Mode::Journal => lines.push(format!(
                "  journal: {} records, rotate every {}",
                self.journal_records, self.segment_records
            )),
            Mode::Churn => lines.push(format!("  churn: {} joiner(s)", self.joiners)),
            Mode::Upgrade => lines.push(format!("  upgrade: {} hop(s)", self.hops)),
            Mode::Clients => lines.push(format!("  clients: {} requests", self.requests)),
            Mode::Shard => lines.push(format!("  shard: {}-shard plane", self.shards)),
            Mode::Composed => lines.push(format!(
                "  composed: {} joiner(s), {} hop(s), journal {} records / rotate {}",
                self.joiners, self.hops, self.journal_records, self.segment_records
            )),
            _ => {}
        }
        if self.salt != 0 {
            lines.push(format!("  salt {:#018x}", self.salt));
        }
        for fault in &self.faults {
            lines.push(format!("  fault: {fault}"));
        }
        lines
    }

    /// The plan with fault `index` removed (used by the shrinker).
    #[must_use]
    pub fn without_fault(&self, index: usize) -> FaultPlan {
        let mut plan = self.clone();
        plan.faults.remove(index);
        plan
    }

    /// Serialises the plan to the `varan-plan/v1` text format — one
    /// `key value` line per field, one `fault ...` line per fault.  The
    /// explorer writes every corpus survivor and every failure in this
    /// format so a single interesting plan can be replayed (`cargo run -p
    /// varan-sim --example explore -- --plan <file>`) without regenerating
    /// the whole corpus.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(PLAN_FILE_HEADER);
        out.push('\n');
        out.push_str(&format!("seed {:#018x}\n", self.seed));
        out.push_str(&format!("salt {:#018x}\n", self.salt));
        out.push_str(&format!("mode {}\n", self.mode.name()));
        out.push_str(&format!("versions {}\n", self.versions));
        out.push_str(&format!("iterations {}\n", self.iterations));
        out.push_str(&format!("ring_capacity {}\n", self.ring_capacity));
        out.push_str(&format!("journal_records {}\n", self.journal_records));
        out.push_str(&format!("segment_records {}\n", self.segment_records));
        out.push_str(&format!("joiners {}\n", self.joiners));
        out.push_str(&format!("hops {}\n", self.hops));
        out.push_str(&format!("requests {}\n", self.requests));
        out.push_str(&format!("shards {}\n", self.shards));
        for fault in &self.faults {
            match *fault {
                Fault::CrashVersion { version, at_syscall } => {
                    out.push_str(&format!("fault crash_version {version} {at_syscall}\n"));
                }
                Fault::Diverge { version, at_syscall } => {
                    out.push_str(&format!("fault diverge {version} {at_syscall}\n"));
                }
                Fault::Lag { version, every, micros } => {
                    out.push_str(&format!("fault lag {version} {every} {micros}\n"));
                }
                Fault::FailFdTransfer { nth } => {
                    out.push_str(&format!("fault fail_fd_transfer {nth}\n"));
                }
                Fault::TornWrite { at_record, keep } => {
                    out.push_str(&format!("fault torn_write {at_record} {keep}\n"));
                }
                Fault::FlipBit { at_record } => {
                    out.push_str(&format!("fault flip_bit {at_record}\n"));
                }
                Fault::FlipPayloadByte { at_record } => {
                    out.push_str(&format!("fault flip_payload_byte {at_record}\n"));
                }
                Fault::ShardLag { version, shard, every, micros } => {
                    out.push_str(&format!("fault shard_lag {version} {shard} {every} {micros}\n"));
                }
                Fault::CrashCandidate { hop, window } => match window {
                    CandidateWindow::Canary { at_syscall } => {
                        out.push_str(&format!("fault crash_candidate {hop} canary {at_syscall}\n"));
                    }
                    CandidateWindow::GateRegistered => {
                        out.push_str(&format!("fault crash_candidate {hop} gate_registered\n"));
                    }
                    CandidateWindow::LiveSwitch => {
                        out.push_str(&format!("fault crash_candidate {hop} live_switch\n"));
                    }
                },
            }
        }
        out
    }

    /// Parses the `varan-plan/v1` text format produced by
    /// [`encode`](Self::encode).  Blank lines and `#` comments are
    /// ignored; every scalar field must appear exactly once.
    pub fn decode(text: &str) -> Result<FaultPlan, String> {
        fn parse_u64(token: &str, field: &str) -> Result<u64, String> {
            let parsed = if let Some(hex) = token.strip_prefix("0x") {
                u64::from_str_radix(hex, 16)
            } else {
                token.parse()
            };
            parsed.map_err(|_| format!("{field}: bad number {token:?}"))
        }
        fn parse_usize(token: &str, field: &str) -> Result<usize, String> {
            parse_u64(token, field).map(|value| value as usize)
        }

        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|line| !line.is_empty() && !line.starts_with('#'));
        match lines.next() {
            Some(PLAN_FILE_HEADER) => {}
            Some(other) => return Err(format!("bad header {other:?}, want {PLAN_FILE_HEADER:?}")),
            None => return Err("empty plan file".to_owned()),
        }

        let mut seed = None;
        let mut salt = None;
        let mut mode = None;
        let mut versions = None;
        let mut iterations = None;
        let mut ring_capacity = None;
        let mut journal_records = None;
        let mut segment_records = None;
        let mut joiners = None;
        let mut hops = None;
        let mut requests = None;
        let mut shards = None;
        let mut faults = Vec::new();

        for line in lines {
            let mut tokens = line.split_whitespace();
            let key = tokens.next().expect("non-empty line has a first token");
            let rest: Vec<&str> = tokens.collect();
            let scalar = |rest: &[&str]| -> Result<u64, String> {
                match rest {
                    [token] => parse_u64(token, key),
                    _ => Err(format!("{key}: want exactly one value, got {rest:?}")),
                }
            };
            match key {
                "seed" => seed = Some(scalar(&rest)?),
                "salt" => salt = Some(scalar(&rest)?),
                "mode" => match rest.as_slice() {
                    [name] => {
                        mode = Some(
                            Mode::from_name(name).ok_or_else(|| format!("unknown mode {name:?}"))?,
                        );
                    }
                    _ => return Err(format!("mode: want one name, got {rest:?}")),
                },
                "versions" => versions = Some(scalar(&rest)? as usize),
                "iterations" => iterations = Some(scalar(&rest)? as u32),
                "ring_capacity" => ring_capacity = Some(scalar(&rest)? as usize),
                "journal_records" => journal_records = Some(scalar(&rest)?),
                "segment_records" => segment_records = Some(scalar(&rest)? as usize),
                "joiners" => joiners = Some(scalar(&rest)? as usize),
                "hops" => hops = Some(scalar(&rest)? as usize),
                "requests" => requests = Some(scalar(&rest)? as u32),
                "shards" => shards = Some(scalar(&rest)? as usize),
                "fault" => {
                    let fault = match rest.as_slice() {
                        ["crash_version", version, at] => Fault::CrashVersion {
                            version: parse_usize(version, "crash_version")?,
                            at_syscall: parse_u64(at, "crash_version")?,
                        },
                        ["diverge", version, at] => Fault::Diverge {
                            version: parse_usize(version, "diverge")?,
                            at_syscall: parse_u64(at, "diverge")?,
                        },
                        ["lag", version, every, micros] => Fault::Lag {
                            version: parse_usize(version, "lag")?,
                            every: parse_u64(every, "lag")?,
                            micros: parse_u64(micros, "lag")?,
                        },
                        ["fail_fd_transfer", nth] => Fault::FailFdTransfer {
                            nth: parse_u64(nth, "fail_fd_transfer")?,
                        },
                        ["torn_write", at, keep] => Fault::TornWrite {
                            at_record: parse_u64(at, "torn_write")?,
                            keep: parse_usize(keep, "torn_write")?,
                        },
                        ["flip_bit", at] => Fault::FlipBit {
                            at_record: parse_u64(at, "flip_bit")?,
                        },
                        ["flip_payload_byte", at] => Fault::FlipPayloadByte {
                            at_record: parse_u64(at, "flip_payload_byte")?,
                        },
                        ["shard_lag", version, shard, every, micros] => Fault::ShardLag {
                            version: parse_usize(version, "shard_lag")?,
                            shard: parse_usize(shard, "shard_lag")?,
                            every: parse_u64(every, "shard_lag")?,
                            micros: parse_u64(micros, "shard_lag")?,
                        },
                        ["crash_candidate", hop, "canary", at] => Fault::CrashCandidate {
                            hop: parse_usize(hop, "crash_candidate")?,
                            window: CandidateWindow::Canary {
                                at_syscall: parse_u64(at, "crash_candidate")?,
                            },
                        },
                        ["crash_candidate", hop, "gate_registered"] => Fault::CrashCandidate {
                            hop: parse_usize(hop, "crash_candidate")?,
                            window: CandidateWindow::GateRegistered,
                        },
                        ["crash_candidate", hop, "live_switch"] => Fault::CrashCandidate {
                            hop: parse_usize(hop, "crash_candidate")?,
                            window: CandidateWindow::LiveSwitch,
                        },
                        _ => return Err(format!("unparseable fault line {line:?}")),
                    };
                    faults.push(fault);
                }
                _ => return Err(format!("unknown key {key:?}")),
            }
        }

        let missing = |field: &str| format!("missing field {field:?}");
        Ok(FaultPlan {
            seed: seed.ok_or_else(|| missing("seed"))?,
            salt: salt.ok_or_else(|| missing("salt"))?,
            mode: mode.ok_or_else(|| missing("mode"))?,
            versions: versions.ok_or_else(|| missing("versions"))?,
            iterations: iterations.ok_or_else(|| missing("iterations"))?,
            ring_capacity: ring_capacity.ok_or_else(|| missing("ring_capacity"))?,
            journal_records: journal_records.ok_or_else(|| missing("journal_records"))?,
            segment_records: segment_records.ok_or_else(|| missing("segment_records"))?,
            joiners: joiners.ok_or_else(|| missing("joiners"))?,
            hops: hops.ok_or_else(|| missing("hops"))?,
            requests: requests.ok_or_else(|| missing("requests"))?,
            shards: shards.ok_or_else(|| missing("shards"))?,
            faults,
        })
    }
}

/// First line of a serialised plan file (format version marker).
pub const PLAN_FILE_HEADER: &str = "varan-plan/v1";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        for seed in 0..200u64 {
            let a = FaultPlan::generate(seed);
            let b = FaultPlan::generate(seed);
            assert_eq!(a.digest(), b.digest(), "seed {seed}");
            assert_eq!(a.describe(), b.describe());
        }
    }

    #[test]
    fn every_mode_is_reachable() {
        use std::collections::HashSet;
        let modes: HashSet<Mode> = (0..400u64)
            .map(|seed| FaultPlan::generate(seed).mode)
            .collect();
        assert_eq!(modes.len(), 8, "got {modes:?}");
    }

    #[test]
    fn shard_plans_always_carry_a_shard_targeted_fault() {
        let mut seen = 0u32;
        for seed in 0..2_000u64 {
            let plan = FaultPlan::generate(seed);
            if plan.mode != Mode::Shard {
                continue;
            }
            seen += 1;
            assert!(plan.shards >= 2, "seed {seed}: unsharded shard plan");
            let targeted = plan.faults.iter().any(|fault| {
                matches!(fault, Fault::ShardLag { shard, .. } if *shard < plan.shards)
            });
            assert!(targeted, "seed {seed}: no shard-targeted fault");
            let crashes = plan
                .faults
                .iter()
                .filter(|fault| matches!(fault, Fault::CrashVersion { .. }))
                .count();
            assert!(crashes < plan.versions, "seed {seed}: no survivor");
            let total = shard_workload_syscalls(plan.iterations);
            for fault in &plan.faults {
                if let Fault::CrashVersion { at_syscall, .. } = fault {
                    assert!(
                        (2..total).contains(at_syscall),
                        "seed {seed}: crash point {at_syscall} outside the workload"
                    );
                }
            }
        }
        assert!(seen > 0, "no shard plans in 2000 seeds");
    }

    #[test]
    fn crash_plans_keep_a_clean_survivor_with_distinct_points() {
        for seed in 0..2_000u64 {
            let plan = FaultPlan::generate(seed);
            if plan.mode != Mode::Crash {
                continue;
            }
            let crashes: Vec<(usize, u64)> = plan
                .faults
                .iter()
                .filter_map(|fault| match fault {
                    Fault::CrashVersion { version, at_syscall } => {
                        Some((*version, *at_syscall))
                    }
                    _ => None,
                })
                .collect();
            assert!(crashes.len() < plan.versions, "seed {seed}: no survivor");
            for (i, a) in crashes.iter().enumerate() {
                for b in crashes.iter().skip(i + 1) {
                    assert_ne!(a.0, b.0, "seed {seed}: duplicate version");
                    assert_ne!(a.1, b.1, "seed {seed}: ambiguous crash order");
                }
            }
        }
    }

    #[test]
    fn composed_plans_are_pure_valid_and_always_damage_the_journal() {
        for seed in 0..500u64 {
            let a = FaultPlan::compose(seed);
            let b = FaultPlan::compose(seed);
            assert_eq!(a, b, "seed {seed}: compose not pure");
            assert_eq!(a.mode, Mode::Composed);
            assert!(a.versions >= 2, "seed {seed}");
            assert!(a.iterations >= 300, "seed {seed}");
            assert!(a.joiners >= 1, "seed {seed}");
            assert_eq!(a.hops, 1, "seed {seed}");
            assert!(
                !a.journal_records.is_multiple_of(a.segment_records as u64),
                "seed {seed}: faulty append on a rotation boundary"
            );
            let journal_faults = a
                .faults
                .iter()
                .filter(|fault| {
                    matches!(
                        fault,
                        Fault::TornWrite { .. } | Fault::FlipBit { .. } | Fault::FlipPayloadByte { .. }
                    )
                })
                .count();
            assert_eq!(journal_faults, 1, "seed {seed}: want exactly one journal fault");
            let crashes = a
                .faults
                .iter()
                .filter(|fault| matches!(fault, Fault::CrashVersion { .. }))
                .count();
            assert!(crashes <= 1, "seed {seed}");
        }
    }

    #[test]
    fn generate_never_emits_composed_plans() {
        for seed in 0..2_000u64 {
            assert_ne!(FaultPlan::generate(seed).mode, Mode::Composed, "seed {seed}");
        }
    }

    #[test]
    fn plan_files_round_trip() {
        for seed in 0..200u64 {
            let mut plan = FaultPlan::generate(seed);
            plan.salt = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let decoded = FaultPlan::decode(&plan.encode()).expect("round trip");
            assert_eq!(decoded, plan, "seed {seed}");
        }
        for seed in 0..100u64 {
            let plan = FaultPlan::compose(seed);
            let decoded = FaultPlan::decode(&plan.encode()).expect("round trip");
            assert_eq!(decoded, plan, "composed seed {seed}");
        }
    }

    #[test]
    fn decode_rejects_malformed_plan_files() {
        assert!(FaultPlan::decode("").is_err());
        assert!(FaultPlan::decode("varan-plan/v9\nseed 1\n").is_err());
        let plan = FaultPlan::generate(7);
        let encoded = plan.encode();
        // Drop a required field.
        let truncated: String = encoded
            .lines()
            .filter(|line| !line.starts_with("mode "))
            .map(|line| format!("{line}\n"))
            .collect();
        assert!(FaultPlan::decode(&truncated).is_err());
        // Unknown key.
        assert!(FaultPlan::decode(&format!("{encoded}mystery 3\n")).is_err());
        // Comments and blank lines are fine.
        let commented = format!("# a failure from the explorer\n\n{encoded}");
        assert_eq!(FaultPlan::decode(&commented).unwrap(), plan);
    }

    #[test]
    fn salt_reshapes_the_digest_but_not_the_scenario_shape() {
        let base = FaultPlan::generate(11);
        let mut salted = base.clone();
        salted.salt = 0xDEAD_BEEF;
        assert_ne!(base.digest(), salted.digest());
        assert_eq!(base.faults, salted.faults);
        assert_eq!(base.mode, salted.mode);
    }

    #[test]
    fn without_fault_drops_exactly_one() {
        let plan = FaultPlan::generate(3);
        if plan.faults.is_empty() {
            return;
        }
        let shrunk = plan.without_fault(0);
        assert_eq!(shrunk.faults.len(), plan.faults.len() - 1);
        assert_ne!(shrunk.digest(), plan.digest());
    }
}
