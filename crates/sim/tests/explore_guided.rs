//! End-to-end smoke of the coverage-guided explorer: a small budget must
//! be spent exactly, every plan must pass its identical double-run
//! determinism gate, and the evolved corpus must produce more schedule
//! diversity than one execution per plan could — at least 3× what a
//! uniform seed sweep finds with the same number of plans.

use varan_sim::{run_explore, run_sweep, ExploreConfig, SweepConfig};

/// Runs the explorer over `plans` plans (6 probes, corpus cap 48) against
/// a uniform sweep of as many seeds, and asserts the guided run is clean,
/// finds at least 3× the random sweep's distinct schedules and has at
/// least 1% composed plans.
fn assert_guided_beats_random(base_seed: u64, plans: u64) {
    let explore = run_explore(ExploreConfig {
        base_seed,
        plan_budget: plans,
        schedule_probes: 6,
        workers: 0,
        corpus_cap: 48,
    });
    // The fair baseline: the same number of distinct plans, drawn
    // uniformly by seed, one execution each.
    let baseline = run_sweep(SweepConfig {
        base_seed,
        seeds: plans,
        determinism_every: 0,
        shrink_failures: false,
    });
    assert_eq!(explore.plans, plans, "unequal plan budgets");

    assert!(
        explore.failures.is_empty() && explore.determinism_mismatches == 0,
        "{} failing plan(s), {} double-run mismatches; replay a plan file with \
         `cargo run --release -p varan-sim --example explore -- --plan FILE`:\n{}",
        explore.failures.len(),
        explore.determinism_mismatches,
        explore.failure_plans.join("\n")
    );
    assert_eq!(explore.determinism_checked, plans);

    let ratio = explore.distinct_schedules as f64 / baseline.distinct_schedules.max(1) as f64;
    assert!(
        ratio >= 3.0,
        "guided {} vs random {} distinct schedules over {plans} plans each: \
         {ratio:.2}x, below the 3x bar",
        explore.distinct_schedules,
        baseline.distinct_schedules
    );
    assert!(
        explore.composed_plans * 100 >= explore.plans,
        "composed plans are {} of {}, below 1% of the corpus",
        explore.composed_plans,
        explore.plans
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: 64 plans × 6 probes is slow in debug, where \
              Upgrade-mode seeds have failed or changed hash"
)]
fn guided_explorer_beats_an_equal_budget_random_sweep() {
    assert_guided_beats_random(0, 64);
}

#[test]
fn a_small_guided_run_beats_an_equal_budget_random_sweep() {
    // The smallest budget at which the corpus evolves; runs in every
    // profile.
    assert_guided_beats_random(5_000, 16);
}

#[test]
fn guided_exploration_meets_its_budget_and_stays_deterministic() {
    let config = ExploreConfig {
        base_seed: 7_000,
        plan_budget: 24,
        schedule_probes: 3,
        workers: 0,
        corpus_cap: 16,
    };
    let report = run_explore(config);

    assert_eq!(report.plans, 24, "budget must be spent exactly");
    assert_eq!(
        report.executions,
        24 * 3,
        "every plan runs every schedule probe"
    );
    assert!(
        report.generations >= 2,
        "the corpus must evolve past the seeded generation, got {}",
        report.generations
    );
    assert_eq!(report.determinism_checked, 24);
    assert_eq!(
        report.determinism_mismatches, 0,
        "identical double-runs disagreed: {:?}",
        report.failures
    );
    assert!(
        report.failures.is_empty(),
        "explorer surfaced invariant failures: {:?}",
        report.failures
    );
    // Schedule probes multiply interleaving coverage: even this tiny run
    // must observe more distinct schedules than it ran plans, which a
    // one-execution-per-plan sweep cannot.
    assert!(
        report.distinct_schedules > report.plans,
        "expected schedule diversity beyond plan count, got {} schedules over {} plans",
        report.distinct_schedules,
        report.plans
    );
    assert!(
        report.interesting_plans > 0,
        "nothing scored as novel — the corpus never formed"
    );
    assert!(
        report.distinct_kind_edges > 0,
        "no tracepoint edges observed"
    );
    let total_modes: u64 = report.mode_counts.iter().map(|(_, count)| *count).sum();
    assert_eq!(total_modes, report.plans);
}
