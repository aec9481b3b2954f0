//! The seed sweep: run N consecutive seeds, spot-check same-seed
//! reproducibility, shrink failures, and aggregate the metrics
//! `tests/sweep_determinism.rs` asserts on for the default 1000 seeds.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use crate::scenario::run_seed;
use crate::shrink::{shrink, ShrunkFailure};
use crate::trace::Fnv;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// First seed (the sweep runs `base_seed .. base_seed + seeds`).
    pub base_seed: u64,
    /// Number of seeds to run.
    pub seeds: u64,
    /// Re-run every `determinism_every`-th seed a second time and compare
    /// trace hashes (0 disables the spot check).
    pub determinism_every: u64,
    /// Shrink failing seeds (bounded to the first few).
    pub shrink_failures: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            base_seed: 0,
            seeds: 1_000,
            determinism_every: 97,
            shrink_failures: true,
        }
    }
}

/// Aggregated sweep results.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The configuration that ran.
    pub config: SweepConfig,
    /// Seeds explored.
    pub seeds: u64,
    /// Distinct interleaving fingerprints observed (schedule diversity).
    pub distinct_schedules: u64,
    /// Distinct trace hashes (distinct schedule-independent outcomes).
    pub distinct_traces: u64,
    /// Seeds per mode.
    pub mode_counts: Vec<(String, u64)>,
    /// Fold of every seed's trace hash, in seed order: the sweep-level
    /// reproducibility witness (two runs of the same sweep must agree).
    pub combined_trace_hash: u64,
    /// Same-seed double-runs performed.
    pub determinism_checked: u64,
    /// Same-seed double-runs whose trace hashes differed (must be 0).
    pub determinism_mismatches: u64,
    /// Seeds that injected interior journal corruption and saw the scrub
    /// detect it (a `Corrupt` report, never a silent absorption).  The
    /// 1000-seed sweep test requires this coverage to stay non-trivial.
    pub journal_corruptions_detected: u64,
    /// Seeds whose isolated telemetry registry recorded at least one
    /// tracepoint — those seeds' trace rings are folded into `trace_hash`,
    /// so the determinism double-runs cover trace-ring contents too.
    pub trace_ring_seeds: u64,
    /// Catalog tracepoints ([`varan_obs::TRACEPOINT_KINDS`]) never hit by
    /// any seed in the sweep.  An unhit tracepoint is an unhit node of the
    /// coverage edge graph — every edge through it is unexplored — so this
    /// list is the sweep's blind spot, and the guided explorer's target.
    pub uncovered_edges: Vec<String>,
    /// Failing seeds, shrunk where possible.
    pub failures: Vec<ShrunkFailure>,
    /// Wall time of the whole sweep, milliseconds.
    pub wall_ms: u64,
}

/// Runs the sweep.
#[must_use]
pub fn run_sweep(config: SweepConfig) -> SweepReport {
    crate::quiet_panics();
    let started = Instant::now();
    let mut schedules = HashSet::new();
    let mut traces = HashSet::new();
    let mut combined = Fnv::new();
    let mut mode_counts: HashMap<&'static str, u64> = HashMap::new();
    let mut failures = Vec::new();
    let mut determinism_checked = 0u64;
    let mut determinism_mismatches = 0u64;
    let mut journal_corruptions_detected = 0u64;
    let mut trace_ring_seeds = 0u64;
    let mut kinds_hit = 0u64;

    for offset in 0..config.seeds {
        let seed = config.base_seed.wrapping_add(offset);
        let outcome = run_seed(seed);
        schedules.insert(outcome.schedule_hash);
        traces.insert(outcome.trace_hash);
        combined.fold(outcome.trace_hash);
        *mode_counts.entry(outcome.mode.name()).or_insert(0) += 1;
        journal_corruptions_detected += u64::from(outcome.journal_corruption_detected);
        trace_ring_seeds += u64::from(outcome.trace_events > 0);
        kinds_hit |= outcome.coverage.kind_mask;

        if config.determinism_every != 0 && offset % config.determinism_every == 0 {
            determinism_checked += 1;
            let again = run_seed(seed);
            if again.trace_hash != outcome.trace_hash {
                determinism_mismatches += 1;
                failures.push(ShrunkFailure {
                    seed,
                    failure: format!(
                        "trace hash not reproducible: {:#x} then {:#x}",
                        outcome.trace_hash, again.trace_hash
                    ),
                    reproducible: false,
                    removed_faults: 0,
                    trace: crate::plan::FaultPlan::generate(seed).describe(),
                });
            }
        }

        if outcome.failure.is_some() {
            // Shrink the first few failures; after that just record seeds
            // (a systematically broken invariant would otherwise turn the
            // sweep into an hour of shrink re-runs).
            if config.shrink_failures && failures.len() < 5 {
                failures.push(shrink(seed, &outcome));
            } else {
                failures.push(ShrunkFailure {
                    seed,
                    failure: outcome.failure.clone().unwrap_or_default(),
                    reproducible: true,
                    removed_faults: 0,
                    trace: crate::plan::FaultPlan::generate(seed).describe(),
                });
            }
        }
    }

    let mut mode_counts: Vec<(String, u64)> = mode_counts
        .into_iter()
        .map(|(name, count)| (name.to_owned(), count))
        .collect();
    mode_counts.sort();

    SweepReport {
        seeds: config.seeds,
        distinct_schedules: schedules.len() as u64,
        distinct_traces: traces.len() as u64,
        mode_counts,
        combined_trace_hash: combined.value(),
        determinism_checked,
        determinism_mismatches,
        journal_corruptions_detected,
        trace_ring_seeds,
        uncovered_edges: uncovered_kinds(kinds_hit),
        failures,
        wall_ms: started.elapsed().as_millis() as u64,
        config,
    }
}

/// The catalog tracepoints absent from `kinds_hit` (a
/// [`varan_obs::TRACEPOINT_KINDS`] index bitmask), by name.
#[must_use]
pub fn uncovered_kinds(kinds_hit: u64) -> Vec<String> {
    varan_obs::TRACEPOINT_KINDS
        .iter()
        .enumerate()
        .filter(|(index, _)| kinds_hit & (1u64 << index) == 0)
        .map(|(_, name)| (*name).to_owned())
        .collect()
}
