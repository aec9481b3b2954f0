//! Seed explorer: run a range of seeds (optionally verbose) and print each
//! outcome — the tool `docs/SIMULATION.md` points at for reproducing a CI
//! failure locally from its printed seed.  `--plan FILE` instead replays a
//! `varan-plan/v1` file (as printed by the explorer's failing plans) twice
//! and exits non-zero on an invariant failure or a trace-hash mismatch.
//!
//! ```text
//! cargo run --release -p varan-sim --example explore -- <seeds> <base-seed> [-v]
//! cargo run --release -p varan-sim --example explore -- --plan FILE
//! ```

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(at) = args.iter().position(|arg| arg == "--plan") {
        let Some(path) = args.get(at + 1) else {
            eprintln!("--plan requires a plan file path");
            std::process::exit(2);
        };
        replay(path);
        return;
    }
    let n: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(20);
    let base: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0);
    let verbose = args.iter().any(|s| s == "-v");
    let mut failures = 0u64;
    for seed in base..base.wrapping_add(n) {
        let started = std::time::Instant::now();
        let plan = varan_sim::FaultPlan::generate(seed);
        let out = varan_sim::run_plan(&plan);
        println!(
            "seed {seed}: mode={:?} trace={:#018x} fail={:?} ({} ms)",
            out.mode,
            out.trace_hash,
            out.failure,
            started.elapsed().as_millis()
        );
        if verbose || out.failure.is_some() {
            for line in plan.describe() {
                println!("   {line}");
            }
        }
        failures += u64::from(out.failure.is_some());
    }
    if failures > 0 {
        eprintln!("{failures} failing seed(s)");
        std::process::exit(1);
    }
}

/// Decodes the plan file at `path` and runs it twice.
fn replay(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|err| {
        eprintln!("cannot read {path}: {err}");
        std::process::exit(1);
    });
    let plan = varan_sim::FaultPlan::decode(&text).unwrap_or_else(|err| {
        eprintln!("{path}: not a valid plan file: {err}");
        std::process::exit(1);
    });
    for line in plan.describe() {
        println!("{line}");
    }
    let first = varan_sim::run_plan(&plan);
    let second = varan_sim::run_plan(&plan);
    println!(
        "trace hash {:#018x} (replay {:#018x}), schedule hash {:#018x}",
        first.trace_hash, second.trace_hash, first.schedule_hash
    );
    if let Some(failure) = &first.failure {
        eprintln!("invariant failure: {failure}");
        std::process::exit(1);
    }
    if second.trace_hash != first.trace_hash {
        eprintln!("reproducibility mismatch: the two replays disagree");
        std::process::exit(1);
    }
    println!("replay OK: deterministic, no invariant failures");
}
