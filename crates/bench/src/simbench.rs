//! Machine-readable deterministic-simulation sweep (`BENCH_sim.json`).
//!
//! `figures --sim-sweep --seeds N` runs `varan-sim`'s seeded fault
//! exploration — crash failover, divergence verdicts, ring-lap laggards,
//! journal recovery, fleet churn, live-upgrade windows, crashing echo
//! servers under client retries — and records what the sweep saw: seeds
//! explored, distinct interleaving fingerprints, per-mode coverage, the
//! combined trace hash (the reproducibility witness: two runs of the same
//! sweep must emit the same value), same-seed double-run results, and any
//! failures shrunk to minimal fault traces.
//!
//! `figures --check-sim` validates the file and fails on any failure or
//! reproducibility mismatch, printing the offending seed so the run can be
//! replayed locally (`docs/SIMULATION.md`).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use varan_sim::{run_sweep, SweepConfig, SweepReport};

use crate::extract_number;

/// Schema identifier stamped into the JSON.
pub const SCHEMA: &str = "varan-bench-sim/v1";

/// Default output path, relative to the working directory.
pub const DEFAULT_PATH: &str = "BENCH_sim.json";

/// Runs the sweep over `seeds` seeds starting at `base_seed`.
#[must_use]
pub fn run(seeds: u64, base_seed: u64) -> SweepReport {
    run_sweep(SweepConfig {
        base_seed,
        seeds,
        ..SweepConfig::default()
    })
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Serialises a [`SweepReport`] into the `BENCH_sim.json` document.
#[must_use]
pub fn to_json(report: &SweepReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(out, "  \"base_seed\": {},", report.config.base_seed);
    let _ = writeln!(out, "  \"seeds\": {},", report.seeds);
    let _ = writeln!(out, "  \"distinct_schedules\": {},", report.distinct_schedules);
    let _ = writeln!(out, "  \"distinct_traces\": {},", report.distinct_traces);
    let _ = writeln!(
        out,
        "  \"combined_trace_hash\": \"{:#018x}\",",
        report.combined_trace_hash
    );
    let _ = writeln!(out, "  \"determinism_checked\": {},", report.determinism_checked);
    let _ = writeln!(
        out,
        "  \"determinism_mismatches\": {},",
        report.determinism_mismatches
    );
    let _ = writeln!(
        out,
        "  \"journal_corruptions_detected\": {},",
        report.journal_corruptions_detected
    );
    let _ = writeln!(out, "  \"trace_ring_seeds\": {},", report.trace_ring_seeds);
    let _ = writeln!(out, "  \"uncovered_edges\": [");
    for (i, edge) in report.uncovered_edges.iter().enumerate() {
        let comma = if i + 1 < report.uncovered_edges.len() { "," } else { "" };
        let _ = writeln!(out, "    \"{}\"{comma}", escape(edge));
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"wall_ms\": {},", report.wall_ms);
    let _ = writeln!(out, "  \"modes\": {{");
    for (i, (mode, count)) in report.mode_counts.iter().enumerate() {
        let comma = if i + 1 < report.mode_counts.len() { "," } else { "" };
        let _ = writeln!(out, "    \"{mode}\": {count}{comma}");
    }
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"failure_count\": {},", report.failures.len());
    let _ = writeln!(out, "  \"failures\": [");
    for (i, failure) in report.failures.iter().enumerate() {
        let comma = if i + 1 < report.failures.len() { "," } else { "" };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"seed\": {},", failure.seed);
        let _ = writeln!(out, "      \"reproducible\": {},", failure.reproducible);
        let _ = writeln!(out, "      \"removed_faults\": {},", failure.removed_faults);
        let _ = writeln!(out, "      \"failure\": \"{}\",", escape(&failure.failure));
        let _ = writeln!(out, "      \"trace\": [");
        for (j, line) in failure.trace.iter().enumerate() {
            let comma = if j + 1 < failure.trace.len() { "," } else { "" };
            let _ = writeln!(out, "        \"{}\"{comma}", escape(line));
        }
        let _ = writeln!(out, "      ]");
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Writes the report to `path`.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_to(report: &SweepReport, path: impl AsRef<Path>) -> io::Result<()> {
    fs::write(path, to_json(report))
}

/// Renders a short human-readable summary for the `figures` output.
#[must_use]
pub fn render(report: &SweepReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Deterministic simulation sweep ({} seeds from {:#x}, {} ms wall):",
        report.seeds, report.config.base_seed, report.wall_ms
    );
    let _ = writeln!(
        out,
        "  distinct schedules {}, distinct traces {}, combined trace hash {:#018x}",
        report.distinct_schedules, report.distinct_traces, report.combined_trace_hash
    );
    let modes: Vec<String> = report
        .mode_counts
        .iter()
        .map(|(mode, count)| format!("{mode} {count}"))
        .collect();
    let _ = writeln!(out, "  coverage: {}", modes.join(", "));
    let _ = writeln!(
        out,
        "  reproducibility: {} same-seed double-runs, {} mismatches",
        report.determinism_checked, report.determinism_mismatches
    );
    let _ = writeln!(
        out,
        "  durability: {} interior journal corruptions injected and detected",
        report.journal_corruptions_detected
    );
    let _ = writeln!(
        out,
        "  telemetry: {} seeds folded their trace-ring contents into the trace hash",
        report.trace_ring_seeds
    );
    if report.uncovered_edges.is_empty() {
        let _ = writeln!(out, "  coverage blind spot: none (every catalog tracepoint hit)");
    } else {
        let _ = writeln!(
            out,
            "  coverage blind spot: {} tracepoints never hit ({})",
            report.uncovered_edges.len(),
            report.uncovered_edges.join(", ")
        );
    }
    if report.failures.is_empty() {
        let _ = writeln!(out, "  failures: none");
    } else {
        let _ = writeln!(out, "  failures: {}", report.failures.len());
        for failure in &report.failures {
            let _ = writeln!(out, "    seed {}: {}", failure.seed, failure.failure);
            for line in &failure.trace {
                let _ = writeln!(out, "      {line}");
            }
        }
    }
    out
}

/// Validates a `BENCH_sim.json` file: schema marker, a real sweep (seeds,
/// schedule diversity, mode coverage, reproducibility double-runs), **zero
/// failures** and **zero reproducibility mismatches** — the seed of any
/// violation is in the file for local replay.
///
/// # Errors
///
/// Returns a description of the first problem found.
pub fn validate_file(path: impl AsRef<Path>) -> Result<(), String> {
    let path = path.as_ref();
    let json = fs::read_to_string(path)
        .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
    if !json.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!("{}: missing schema marker {SCHEMA:?}", path.display()));
    }
    let seeds = extract_number(&json, "seeds").map_err(|err| format!("{}: {err}", path.display()))?;
    if seeds < 1.0 {
        return Err(format!("{}: empty sweep", path.display()));
    }
    let schedules = extract_number(&json, "distinct_schedules")
        .map_err(|err| format!("{}: {err}", path.display()))?;
    if seeds >= 100.0 && schedules < seeds / 2.0 {
        return Err(format!(
            "{}: only {schedules} distinct schedules over {seeds} seeds — the seeded \
             perturbation is not exploring interleavings",
            path.display()
        ));
    }
    let checked = extract_number(&json, "determinism_checked")
        .map_err(|err| format!("{}: {err}", path.display()))?;
    if checked < 1.0 {
        return Err(format!(
            "{}: no same-seed double-runs were performed",
            path.display()
        ));
    }
    let mismatches = extract_number(&json, "determinism_mismatches")
        .map_err(|err| format!("{}: {err}", path.display()))?;
    if mismatches > 0.0 {
        return Err(format!(
            "{}: {mismatches} same-seed double-runs produced different trace hashes \
             (the offending seeds are in the failures list)",
            path.display()
        ));
    }
    let corruptions = extract_number(&json, "journal_corruptions_detected")
        .map_err(|err| format!("{}: {err}", path.display()))?;
    if seeds >= 400.0 && corruptions < seeds / 200.0 {
        return Err(format!(
            "{}: only {corruptions} detected journal corruptions over {seeds} seeds — the \
             sweep is not exercising interior media-corruption recovery \
             (docs/DURABILITY.md)",
            path.display()
        ));
    }
    let trace_ring_seeds = extract_number(&json, "trace_ring_seeds")
        .map_err(|err| format!("{}: {err}", path.display()))?;
    if seeds >= 400.0 && trace_ring_seeds < seeds / 200.0 {
        return Err(format!(
            "{}: only {trace_ring_seeds} seeds recorded telemetry tracepoints over \
             {seeds} seeds — the sweep is not exercising trace-ring determinism \
             (docs/OBSERVABILITY.md)",
            path.display()
        ));
    }
    let failures = extract_number(&json, "failure_count")
        .map_err(|err| format!("{}: {err}", path.display()))?;
    if failures > 0.0 {
        return Err(format!(
            "{}: {failures} failing seed(s); each entry in \"failures\" carries the \
             seed and its shrunk fault trace — reproduce locally with \
             `cargo run --release -p varan-sim --example explore -- 1 <seed> -v`",
            path.display()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use varan_sim::ShrunkFailure;

    fn sample(failures: Vec<ShrunkFailure>) -> SweepReport {
        let mismatches = failures
            .iter()
            .filter(|failure| failure.failure.contains("not reproducible"))
            .count() as u64;
        SweepReport {
            config: SweepConfig {
                base_seed: 0,
                seeds: 200,
                determinism_every: 97,
                shrink_failures: true,
            },
            seeds: 200,
            distinct_schedules: 198,
            distinct_traces: 180,
            mode_counts: vec![("crash".to_owned(), 60), ("churn".to_owned(), 40)],
            combined_trace_hash: 0xdead_beef,
            determinism_checked: 3,
            determinism_mismatches: mismatches,
            journal_corruptions_detected: 6,
            trace_ring_seeds: 12,
            uncovered_edges: vec!["shard_lag_wait".to_owned()],
            failures,
            wall_ms: 123,
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("varan-simbench-test-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("BENCH_sim.json")
    }

    #[test]
    fn clean_sweep_round_trips_through_validation() {
        let path = temp_path("clean");
        write_to(&sample(Vec::new()), &path).unwrap();
        validate_file(&path).unwrap();
        let rendered = render(&sample(Vec::new()));
        assert!(rendered.contains("failures: none"));
    }

    #[test]
    fn failures_fail_validation_with_the_seed_in_the_message() {
        let path = temp_path("failing");
        let failure = ShrunkFailure {
            seed: 42,
            failure: "observer digest mismatch".to_owned(),
            reproducible: true,
            removed_faults: 1,
            trace: vec!["seed 0x2a: churn mode".to_owned()],
        };
        write_to(&sample(vec![failure]), &path).unwrap();
        let err = validate_file(&path).unwrap_err();
        assert!(err.contains("failing seed"), "got: {err}");
    }

    #[test]
    fn a_tiny_real_sweep_runs_and_validates() {
        let path = temp_path("real");
        let report = run(8, 0);
        assert_eq!(report.seeds, 8);
        write_to(&report, &path).unwrap();
        validate_file(&path).unwrap();
    }

    #[test]
    fn absent_corruption_coverage_fails_a_big_sweep() {
        let path = temp_path("coverage");
        let mut report = sample(Vec::new());
        report.seeds = 1_000;
        report.distinct_schedules = 990;
        report.journal_corruptions_detected = 0;
        write_to(&report, &path).unwrap();
        let err = validate_file(&path).unwrap_err();
        assert!(err.contains("interior media-corruption"), "got: {err}");
    }

    #[test]
    fn missing_schema_is_rejected() {
        let path = temp_path("schema");
        std::fs::write(&path, "{}").unwrap();
        assert!(validate_file(&path).is_err());
    }
}
