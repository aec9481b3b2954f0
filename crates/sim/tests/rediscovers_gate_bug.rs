//! The harness's teeth: with the historical infinite-producer-gate bug
//! resurrected (via the `VARAN_SIM_REVERT_GATE_FIX` fault-resurrection knob
//! in `varan-ring`), a seed sweep must rediscover the bug — a producer
//! silently lapping a late-registering joiner — as churn observers whose
//! stream digest differs from the journal digest.  With the fix in place
//! the same seeds run clean, which `sweep_determinism.rs` asserts.
//!
//! Rediscovery depends on the host schedule, so the window is wide: over
//! seeds 0..1000, release builds have found 3 to 11 mismatches and debug
//! builds 1 to 10, while 0..3000 has never found fewer than 7 in debug.
//!
//! Upgrade-mode seeds are left out.  Under the resurrected bug a lapped
//! upgrade candidate can be promoted with events missing from its replay;
//! it then waits forever for an event that never arrives while the demoted
//! leader waits for it, and nothing in the harness can stop those threads
//! (about 2% of 1000-seed sweeps hung this way).
//!
//! This file holds exactly one test because the knob is a process-wide
//! environment variable, read once per process.

use varan_sim::{run_seed, FaultPlan, Mode};

#[test]
fn resurrected_producer_gate_bug_is_rediscovered_by_the_sweep() {
    // The knob is latched on first use, so set it before any ring exists.
    std::env::set_var("VARAN_SIM_REVERT_GATE_FIX", "1");
    let mut rediscoveries = 0u32;
    let mut digest_mismatches = 0u32;
    for seed in 0..3_000u64 {
        if FaultPlan::generate(seed).mode == Mode::Upgrade {
            continue;
        }
        let outcome = run_seed(seed);
        if let Some(failure) = &outcome.failure {
            assert_eq!(
                outcome.mode,
                Mode::Churn,
                "seed {seed}: unexpected failing mode: {failure}"
            );
            rediscoveries += 1;
            digest_mismatches += u32::from(failure.contains("journal digest"));
        }
    }
    assert!(
        digest_mismatches >= 3,
        "only {digest_mismatches} of {rediscoveries} rediscoveries in 3000 seeds are \
         the lapped joiner's observer/journal digest mismatch"
    );
}
