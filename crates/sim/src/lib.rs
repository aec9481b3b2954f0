//! # varan-sim — the deterministic simulation harness
//!
//! A FoundationDB-style fault explorer for the VARAN reproduction: an
//! entire N-version execution — leader, followers, fleet churn, the live
//! upgrade pipeline, clients — runs under virtual time with a seeded fault
//! plan, so that **one `u64` seed fully describes a run** and a CI failure
//! reproduces locally from its printed seed.
//!
//! Each of the real interleaving bugs this codebase has hit so far (the
//! infinite producer gate, the stale descriptor mapping at handover, the
//! `index-1` backlog sampling) was found by luck: the OS scheduler happened
//! to produce the bad interleaving under some test.  The simulator turns
//! that luck into a searchable space: `sweep::run_sweep` runs thousands of
//! seeded scenarios in seconds (virtual time makes every 60-second timeout
//! free), checks mode-specific invariants, and shrinks any failing seed to
//! a minimal human-readable fault trace.
//!
//! ## The reproducibility contract
//!
//! Full bit-determinism of a multi-threaded run would require owning the
//! scheduler; this harness deliberately does not (versions are real OS
//! threads, as everywhere else in the reproduction).  Instead it splits a
//! run's behaviour in two:
//!
//! * **Schedule-independent observables** — what the [`SimOutcome`] trace
//!   hash covers.  The fault plan is a pure function of the seed; every
//!   version-targeted fault fires in the *version's own frame* ("your
//!   57th system call"), so each version's attempted-syscall digest, its
//!   outcome class, journal recovery results, upgrade stage outcomes and
//!   all invariant verdicts are identical on every run of the same seed —
//!   regardless of how the host scheduler interleaved the threads.
//!   `tests/sweep_determinism.rs` asserts this by double-running seeds
//!   and whole sweeps.
//! * **Schedule-dependent texture** — which thread ran when, which
//!   follower won a promotion race, how far a joiner lagged.  The seeded
//!   driver *perturbs* these (virtual-time stalls at syscall boundaries)
//!   so distinct seeds explore distinct interleavings; the observed
//!   interleaving is fingerprinted (`distinct_schedules`) but never
//!   hashed into the trace.
//!
//! Invariants are chosen to be schedule-independent too: "every request
//! answered", "observer digest equals journal digest", "candidate crash in
//! the gate-registration window rolls back" hold (or fail) identically
//! across interleavings — so a failure is a real bug, and a seed is a
//! reproduction recipe.
//!
//! ## Layers
//!
//! * kernel: [`varan_kernel::sim::SimDriver`] — the syscall-boundary hook
//!   ([`driver::SweepDriver`] implements it).
//! * ring: [`varan_ring::journal::JournalFaults`] — torn/short/corrupt
//!   write injection on the spill journal.
//! * core: every wait in the fleet/upgrade/monitor layers runs on
//!   [`varan_kernel::time::ClockSource`], so simulated time advances
//!   instantly.
//!
//! See `docs/SIMULATION.md` for the operator view (reproducing a CI
//! failure, reading a shrunk trace).

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod driver;
pub mod explore;
pub mod mutate;
pub mod plan;
pub mod scenario;
pub mod shrink;
pub mod sweep;
pub mod trace;
pub mod workload;

pub use driver::SweepDriver;
pub use explore::{run_explore, ExploreConfig, ExploreReport};
pub use mutate::{mutate, MutationOp};
pub use plan::{CandidateWindow, Fault, FaultPlan, Mode, PLAN_FILE_HEADER};
pub use scenario::{run_plan, run_seed, Coverage, SimOutcome};
pub use shrink::{shrink, shrink_plan, ShrunkFailure};
pub use sweep::{run_sweep, SweepConfig, SweepReport};
pub use trace::{Fnv, VersionOutcome};
pub use workload::{FaultedProgram, SteadyWorkload, VersionFaults, VersionProbe};

/// Installs (once) a panic hook that silences the panics the framework
/// uses as control flow — divergence kills (`varan: follower ... killed`)
/// and injected crashes (`varan-sim: injected crash`) — so a
/// thousand-seed sweep does not write thousands of expected backtraces to
/// stderr.  Unexpected panics still print.
pub fn quiet_panics() {
    use std::sync::Once;
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if payload.starts_with("varan:") || payload.starts_with("varan-sim:") {
                return;
            }
            previous(info);
        }));
    });
}
