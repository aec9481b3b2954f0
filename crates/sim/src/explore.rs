//! Coverage-guided exploration: a corpus of fault plans evolved by
//! novelty instead of enumerated by seed.
//!
//! The uniform sweep ([`crate::sweep`]) draws consecutive seeds, which is
//! unbiased but blind: most seeds re-exercise behaviour the corpus has
//! already seen.  The explorer keeps a **corpus** of plans ranked by what
//! they newly touched — fresh trace-hash prefixes, newly-hit tracepoint
//! kinds and kind *edges* (read from each run's isolated
//! [`varan_obs::Registry`]), newly-seen invariant outcome classes — and
//! spends its plan budget mutating the interesting ones
//! ([`crate::mutate()`]): perturbed triggers, spliced fault lists, resized
//! workloads, re-salted schedules, and escalation into
//! [`Mode::Composed`] scenarios that layer churn, a live-upgrade hop and
//! journal damage in one run.
//!
//! ## Schedule probes and the determinism gate
//!
//! Every plan is executed [`ExploreConfig::schedule_probes`] times.  The
//! first two probes run the *identical* plan and their trace hashes must
//! match — each corpus plan is its own same-seed determinism check, so the
//! explorer enforces the sweep's reproducibility contract over mutated
//! and composed plans too, not just generated ones.  The remaining probes
//! re-salt the plan (same scenario, different seeded interleaving), which
//! is where the explorer's schedule diversity comes from: distinct
//! interleaving fingerprints are counted over **all** executions, and
//! `tests/explore_guided.rs` holds that count to at least 3× a random
//! sweep given the same number of distinct plans (one execution each).
//!
//! ## Determinism of the evolution itself
//!
//! Corpus evolution is scheduled by plan digest, never by wall clock:
//! mutation RNGs are seeded from `digest ^ generation`, parents are
//! processed in (novelty, digest) order, and the work-stealing workers
//! only race for *which worker runs which plan*, not for what the next
//! generation contains being dependent on arrival order — results are
//! aggregated in batch index order after a generation barrier.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::mutate::mutate;
use crate::plan::{FaultPlan, Mode};
use crate::scenario::{run_plan, SimOutcome};
use crate::shrink::ShrunkFailure;
use crate::sweep::uncovered_kinds;

/// Explorer parameters.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Base seed for the initial corpus (and the fresh-seed fallback).
    pub base_seed: u64,
    /// Total distinct plans to execute.  This is the equal-plan-count axis
    /// of the guided-vs-random comparison: a fair baseline is
    /// [`crate::sweep::run_sweep`] over the same number of seeds.
    pub plan_budget: u64,
    /// Executions per plan (clamped to at least 2): probes 0 and 1 run the
    /// identical plan as a determinism gate, later probes re-salt it.
    pub schedule_probes: u32,
    /// Worker threads for the work-stealing batch runs (0 = all cores).
    pub workers: usize,
    /// Interesting plans retained as mutation parents.
    pub corpus_cap: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            base_seed: 0,
            plan_budget: 64,
            schedule_probes: 4,
            workers: 0,
            corpus_cap: 48,
        }
    }
}

/// What the explorer found.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// The configuration that ran.
    pub config: ExploreConfig,
    /// Distinct plans executed (≤ `plan_budget`).
    pub plans: u64,
    /// Total scenario executions (`plans × schedule_probes`).
    pub executions: u64,
    /// Corpus generations evolved (generation 0 is the seeded corpus).
    pub generations: u64,
    /// Distinct interleaving fingerprints over all executions.
    pub distinct_schedules: u64,
    /// Distinct trace hashes over the base (probe-0) executions.
    pub distinct_traces: u64,
    /// Plans per mode, sorted by mode name.
    pub mode_counts: Vec<(String, u64)>,
    /// Plans in [`Mode::Composed`] — reached only by escalation, so this
    /// counts the explorer doing something the uniform sweep cannot.
    pub composed_plans: u64,
    /// Plans that contributed at least one new coverage feature.
    pub interesting_plans: u64,
    /// Distinct tracepoint kind edges observed across all executions.
    pub distinct_kind_edges: u64,
    /// Catalog tracepoints never hit by any execution (the remaining
    /// blind spot; same shape as `SweepReport::uncovered_edges`).
    pub uncovered_edges: Vec<String>,
    /// Same-plan double-runs performed (one per plan).
    pub determinism_checked: u64,
    /// Double-runs whose trace hashes differed (must be 0).
    pub determinism_mismatches: u64,
    /// Failing plans (invariant violations and determinism mismatches).
    pub failures: Vec<ShrunkFailure>,
    /// Encoded plan files for the first few failures, replayable with
    /// `cargo run -p varan-sim --example explore -- --plan <file>`.
    pub failure_plans: Vec<String>,
    /// Wall time, milliseconds.
    pub wall_ms: u64,
}

/// Everything one plan's probe batch produced.
struct PlanResult {
    base: SimOutcome,
    schedule_hashes: Vec<u64>,
    mismatch: bool,
    kind_mask: u64,
    kind_edges: Vec<(usize, usize)>,
}

/// Runs one plan `probes` times: an identical double-run first (the
/// determinism gate), then re-salted schedule probes.
fn run_probes(plan: &FaultPlan, probes: u32) -> PlanResult {
    let base = run_plan(plan);
    let again = run_plan(plan);
    let mismatch = again.trace_hash != base.trace_hash;
    let mut schedule_hashes = vec![base.schedule_hash, again.schedule_hash];
    let mut kind_mask = base.coverage.kind_mask | again.coverage.kind_mask;
    let mut kind_edges: HashSet<(usize, usize)> = base
        .coverage
        .kind_edges
        .iter()
        .chain(again.coverage.kind_edges.iter())
        .copied()
        .collect();
    for probe in 2..probes {
        let mut salted = plan.clone();
        // Deterministic per-probe salt: the same plan probes the same
        // salts on every explorer run.
        salted.salt = plan
            .salt
            .wrapping_add(u64::from(probe).wrapping_mul(0xA5A5_5A5A_0F0F_F0F1));
        let outcome = run_plan(&salted);
        schedule_hashes.push(outcome.schedule_hash);
        kind_mask |= outcome.coverage.kind_mask;
        kind_edges.extend(outcome.coverage.kind_edges.iter().copied());
    }
    let mut kind_edges: Vec<(usize, usize)> = kind_edges.into_iter().collect();
    kind_edges.sort_unstable();
    PlanResult {
        base,
        schedule_hashes,
        mismatch,
        kind_mask,
        kind_edges,
    }
}

/// Global coverage features seen so far; novelty is what a plan adds.
#[derive(Default)]
struct Seen {
    trace_prefixes: HashSet<u64>,
    kind_mask: u64,
    kind_edges: HashSet<(usize, usize)>,
    outcome_classes: HashSet<(bool, bool)>,
}

impl Seen {
    /// Records a plan's features; returns its novelty score (number of
    /// features the corpus had never seen).
    fn absorb(&mut self, result: &PlanResult) -> u64 {
        let mut novelty = 0u64;
        // Coarse trace-hash prefix: plans landing in an unseen region of
        // outcome space are interesting even when no new tracepoint fired.
        if self.trace_prefixes.insert(result.base.trace_hash >> 48) {
            novelty += 1;
        }
        let new_kinds = (result.kind_mask & !self.kind_mask).count_ones();
        novelty += u64::from(new_kinds) * 4;
        self.kind_mask |= result.kind_mask;
        for edge in &result.kind_edges {
            if self.kind_edges.insert(*edge) {
                novelty += 2;
            }
        }
        let class = (
            result.base.failure.is_some(),
            result.base.journal_corruption_detected,
        );
        if self.outcome_classes.insert(class) {
            novelty += 1;
        }
        novelty
    }
}

/// Runs `batch` through the probe harness on a work-stealing worker pool
/// and returns results in batch order (the generation barrier).
fn run_batch(batch: &[FaultPlan], probes: u32, workers: usize) -> Vec<PlanResult> {
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<PlanResult>> = batch.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(batch.len()).max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(plan) = batch.get(index) else { break };
                let result = run_probes(plan, probes);
                let _ = slots[index].set(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("worker filled every slot"))
        .collect()
}

/// Runs the coverage-guided exploration.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_explore(config: ExploreConfig) -> ExploreReport {
    crate::quiet_panics();
    let started = Instant::now();
    let probes = config.schedule_probes.max(2);
    let workers = if config.workers == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
    } else {
        config.workers
    };

    let mut seen = Seen::default();
    let mut executed: HashSet<u64> = HashSet::new();
    let mut schedules: HashSet<u64> = HashSet::new();
    let mut traces: HashSet<u64> = HashSet::new();
    let mut mode_counts: HashMap<&'static str, u64> = HashMap::new();
    let mut failures: Vec<ShrunkFailure> = Vec::new();
    let mut failure_plans: Vec<String> = Vec::new();
    // Parents: (novelty, digest, plan), kept sorted most-novel-first with
    // the digest as the deterministic tie-break.
    let mut corpus: Vec<(u64, u64, FaultPlan)> = Vec::new();
    let mut plans_run = 0u64;
    let mut executions = 0u64;
    let mut composed_plans = 0u64;
    let mut interesting_plans = 0u64;
    let mut determinism_mismatches = 0u64;
    let mut generations = 0u64;
    let mut fresh_cursor = 0u64;

    while plans_run < config.plan_budget {
        let remaining = (config.plan_budget - plans_run) as usize;
        let mut batch: Vec<FaultPlan> = Vec::new();
        if generations == 0 {
            // Seed corpus: a quarter of the budget (at least 8) of
            // generated plans, leaving most of the budget for evolution.
            let count = remaining.min((config.plan_budget as usize / 4).max(8));
            for index in 0..count {
                let plan = FaultPlan::generate(config.base_seed.wrapping_add(index as u64));
                if executed.insert(plan.digest()) {
                    batch.push(plan);
                }
            }
        } else {
            // Evolve: mutate parents in ranked order until the batch is
            // full (each parent splices with its ranked neighbour), with
            // extra rounds if early children collide with executed plans.
            let quota = remaining.min((corpus.len() * 4).max(8));
            if generations == 1 && composed_plans == 0 {
                // Escalation is guaranteed at least one attempt: the first
                // evolution batch always carries a composed plan, so the
                // layered-scenario coverage the report gates on never
                // depends on the mutation dice.
                let plan = FaultPlan::compose(config.base_seed);
                if executed.insert(plan.digest()) {
                    batch.push(plan);
                }
            }
            'fill: for round in 0..16u64 {
                let before = batch.len();
                for (index, (_, _, parent)) in corpus.iter().enumerate() {
                    let partner = if corpus.len() > 1 {
                        Some(&corpus[(index + 1) % corpus.len()].2)
                    } else {
                        None
                    };
                    let (_, child) =
                        mutate(parent, partner, generations.wrapping_mul(31).wrapping_add(round));
                    if executed.insert(child.digest()) {
                        batch.push(child);
                    }
                    if batch.len() >= quota {
                        break 'fill;
                    }
                }
                if batch.len() == before {
                    break; // the corpus is dry at this generation
                }
            }
            // Budget must always be met: top up with fresh seeds from a
            // disjoint range when mutation dries up.
            while batch.len() < quota.min(remaining) {
                let seed = config
                    .base_seed
                    .wrapping_add(0x0010_0000)
                    .wrapping_add(fresh_cursor);
                fresh_cursor += 1;
                let plan = FaultPlan::generate(seed);
                if executed.insert(plan.digest()) {
                    batch.push(plan);
                }
            }
        }
        batch.truncate(remaining);

        let results = run_batch(&batch, probes, workers);
        for (plan, result) in batch.iter().zip(results) {
            plans_run += 1;
            executions += result.schedule_hashes.len() as u64;
            schedules.extend(result.schedule_hashes.iter().copied());
            traces.insert(result.base.trace_hash);
            *mode_counts.entry(plan.mode.name()).or_insert(0) += 1;
            composed_plans += u64::from(plan.mode == Mode::Composed);
            if result.mismatch {
                determinism_mismatches += 1;
                record_failure(
                    &mut failures,
                    &mut failure_plans,
                    plan,
                    "trace hash not reproducible across the identical double-run".to_owned(),
                );
            }
            if let Some(failure) = &result.base.failure {
                record_failure(&mut failures, &mut failure_plans, plan, failure.clone());
            }
            let novelty = seen.absorb(&result);
            if novelty > 0 {
                interesting_plans += 1;
                corpus.push((novelty, plan.digest(), plan.clone()));
            }
        }
        corpus.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        corpus.truncate(config.corpus_cap);
        generations += 1;
    }

    let mut mode_counts: Vec<(String, u64)> = mode_counts
        .into_iter()
        .map(|(name, count)| (name.to_owned(), count))
        .collect();
    mode_counts.sort();

    ExploreReport {
        plans: plans_run,
        executions,
        generations,
        distinct_schedules: schedules.len() as u64,
        distinct_traces: traces.len() as u64,
        mode_counts,
        composed_plans,
        interesting_plans,
        distinct_kind_edges: seen.kind_edges.len() as u64,
        uncovered_edges: uncovered_kinds(seen.kind_mask),
        determinism_checked: plans_run,
        determinism_mismatches,
        failures,
        failure_plans,
        wall_ms: started.elapsed().as_millis() as u64,
        config,
    }
}

fn record_failure(
    failures: &mut Vec<ShrunkFailure>,
    failure_plans: &mut Vec<String>,
    plan: &FaultPlan,
    failure: String,
) {
    // Mutated and composed plans are not derivable from their seed, so
    // the replay recipe is the encoded plan file, not the seed.
    if failure_plans.len() < 8 {
        failure_plans.push(plan.encode());
    }
    failures.push(ShrunkFailure {
        seed: plan.seed,
        failure,
        reproducible: true,
        removed_faults: 0,
        trace: plan.describe(),
    });
}
