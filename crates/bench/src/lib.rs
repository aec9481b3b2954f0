//! Benchmark and experiment harness for the VARAN reproduction.
//!
//! Every table and figure in the paper's evaluation (§4 and §5) has a
//! corresponding function here that runs the experiment on the virtual
//! substrate and returns the measured series, together with the values the
//! paper reports so they can be printed side by side.  The `figures` binary
//! (`cargo run -p varan-bench --bin figures -- --all`) drives these
//! functions; the Criterion benches under `benches/` exercise the real
//! (wall-clock) performance of the framework's building blocks.
//!
//! | module | reproduces |
//! |--------|------------|
//! | [`microbench`] | Figure 4 — system call micro-benchmarks |
//! | [`servers`] | Figures 5 and 6 — C10k and prior-work servers |
//! | [`spec`] | Figures 7 and 8 — SPEC CPU2000/2006 scaling |
//! | [`comparison`] | Table 2 — comparison with Mx, Orchestra, Tachyon |
//! | [`scenarios`] | §5.1–§5.4 — failover, multi-revision execution, live sanitization, record-replay |
//! | [`report`] | plain-text rendering of the results |
//!
//! Wall-clock performance of the ring, journal, fleet, shard and telemetry
//! layers is measured by the standalone `benchmark/` package (repeated
//! trials with noise bounds; metric names in `BENCHMARK.json`), not here.
//! The correctness gates are tests, not figures: the 1000-seed simulation
//! sweep and the guided-vs-random exploration bar live in
//! `crates/sim/tests/`, the 8-revision Redis rolling upgrade in
//! `tests/live_upgrade.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod comparison;
pub mod microbench;
pub mod report;
pub mod scenarios;
pub mod servers;
pub mod spec;

/// Scale of an experiment run: `Quick` keeps the harness suitable for CI and
/// the test suite, `Full` uses larger workloads closer to the paper's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small workloads (seconds).
    Quick,
    /// Larger workloads (minutes).
    Full,
}

impl Scale {
    /// Multiplies a base workload size by the scale factor.
    #[must_use]
    pub fn scaled(self, base: u64) -> u64 {
        match self {
            Scale::Quick => base,
            Scale::Full => base * 8,
        }
    }
}
