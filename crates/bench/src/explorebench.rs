//! Machine-readable coverage-guided exploration report
//! (`BENCH_explore.json`).
//!
//! `figures --fig-explore` runs three acceptance legs and records them in
//! one document:
//!
//! 1. **Guided vs random** — `varan-sim`'s coverage-guided explorer
//!    ([`varan_sim::run_explore`]) against a uniform seed sweep given the
//!    *same number of distinct plans*.  The explorer's schedule probes and
//!    corpus evolution must find at least [`MIN_SCHEDULE_RATIO`]× the
//!    baseline's distinct interleaving fingerprints, with its per-plan
//!    identical-double-run determinism gate fully green, and with
//!    composed (multi-subsystem) plans at ≥ [`MIN_COMPOSED_FRACTION`] of
//!    the corpus — behaviour a seed-indexed sweep cannot reach at all.
//! 2. **Adversarial clients** — every misbehaving-client script against
//!    all four miniature servers under N-version execution: connections
//!    reaped, no divergence, clean exits.
//! 3. **Open-loop load** — a coordinated-omission-free latency
//!    measurement against each server (latency from *intended* send time,
//!    [`openloop`](crate::openloop)), plus the deterministic queue-model
//!    CO gap so the file documents *why* the closed-loop numbers cannot
//!    be trusted for tails.
//!
//! `figures --check-explore` validates the file and fails on any missed
//! gate.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use varan_apps::adversarial::{run_attack, ALL_ATTACKS};
use varan_apps::servers::ServerConfig;
use varan_core::coordinator::{NvxConfig, NvxSystem};
use varan_core::VersionProgram;
use varan_kernel::Kernel;
use varan_sim::{run_explore, run_sweep, ExploreConfig, ExploreReport, SweepConfig};

use crate::extract_number;
use crate::openloop::{
    closed_loop_latencies, open_loop_latencies, percentile, run_open_loop, OpenLoopConfig,
    OpenLoopReport, ServerKind, ALL_SERVERS,
};
use crate::servers::fresh_port;

/// Schema identifier stamped into the JSON.
pub const SCHEMA: &str = "varan-bench-explore/v1";

/// Default output path, relative to the working directory.
pub const DEFAULT_PATH: &str = "BENCH_explore.json";

/// The guided explorer must beat the equal-plan-count random sweep's
/// distinct-schedule count by at least this factor.
pub const MIN_SCHEDULE_RATIO: f64 = 3.0;

/// Composed plans must make up at least this fraction of the corpus.
pub const MIN_COMPOSED_FRACTION: f64 = 0.01;

/// The server's per-read deadline during the adversarial leg.
const SERVER_READ_TIMEOUT_MICROS: u64 = 50_000;

/// How long an adversarial script waits for its connection to be reaped.
const REAP_DEADLINE: Duration = Duration::from_secs(10);

/// One server's adversarial + open-loop acceptance results.
#[derive(Debug, Clone)]
pub struct ServerSuite {
    /// Server name (`kvstore`, `httpd`, `queue`, `cache`).
    pub name: String,
    /// Attacks whose connection was established, reaped in time, and left
    /// the server serving.
    pub attacks_passed: u64,
    /// Attacks attempted (the full catalog).
    pub attacks_total: u64,
    /// Human-readable descriptions of any failed cells.
    pub attack_failures: Vec<String>,
    /// The CO-free open-loop measurement taken after the attacks — it
    /// doubles as the "still serving" probe.
    pub open: OpenLoopReport,
    /// Every version exited cleanly.
    pub nvx_clean: bool,
    /// Follower divergences killed across the run (must be 0).
    pub divergences: u64,
}

/// The whole `BENCH_explore.json` document, before serialisation.
#[derive(Debug, Clone)]
pub struct ExploreBenchReport {
    /// The guided exploration.
    pub explore: ExploreReport,
    /// Plans the random baseline ran (equal to the explorer's).
    pub baseline_plans: u64,
    /// Distinct interleaving fingerprints the baseline found.
    pub baseline_distinct_schedules: u64,
    /// `explore.distinct_schedules / baseline_distinct_schedules`.
    pub schedule_ratio: f64,
    /// `explore.composed_plans / explore.plans`.
    pub composed_fraction: f64,
    /// Queue-model closed-loop p99 around a canonical stall, nanoseconds.
    pub model_closed_p99_nanos: u64,
    /// Queue-model open-loop p99 around the same stall, nanoseconds.
    pub model_open_p99_nanos: u64,
    /// `model_open_p99 / model_closed_p99` — the coordinated-omission gap.
    pub co_gap_ratio: f64,
    /// Per-server adversarial + open-loop results.
    pub servers: Vec<ServerSuite>,
    /// Wall time of the whole run, milliseconds.
    pub wall_ms: u64,
}

/// Runs one server's suite: an NVX leader/follower pair takes the full
/// attack catalog, then the open-loop measurement certifies it still
/// serves and records the CO-free percentiles.
fn run_server_suite(kind: ServerKind, open_config: OpenLoopConfig) -> ServerSuite {
    let kernel = Kernel::new();
    kernel
        .populate_file("/var/www/index.html", b"<html>up</html>".to_vec())
        .expect("populate web root");
    let port = fresh_port();
    // One connection per attack, plus the open-loop client's.
    let config = ServerConfig::on_port(port)
        .with_connections(ALL_ATTACKS.len() as u64 + 1)
        .with_read_timeout_micros(SERVER_READ_TIMEOUT_MICROS);
    let versions: Vec<Box<dyn VersionProgram>> =
        vec![kind.build(config.clone()), kind.build(config)];
    let running =
        NvxSystem::launch(&kernel, versions, NvxConfig::default()).expect("launch nvx pair");

    let mut attacks_passed = 0u64;
    let mut attack_failures = Vec::new();
    for attack in ALL_ATTACKS {
        let outcome = run_attack(&kernel, port, kind.protocol(), attack, REAP_DEADLINE);
        if outcome.connected && outcome.reaped {
            attacks_passed += 1;
        } else {
            attack_failures.push(format!(
                "{}/{attack:?}: connected={} reaped={} after {} bytes",
                kind.name(),
                outcome.connected,
                outcome.reaped,
                outcome.bytes_sent
            ));
        }
    }

    let obs = varan_obs::Registry::new();
    let open = run_open_loop(&kernel, port, kind, open_config, &obs);

    let report = running.wait();
    let divergences = report
        .versions
        .iter()
        .map(|version| version.divergences_killed)
        .sum();
    ServerSuite {
        name: kind.name().to_owned(),
        attacks_passed,
        attacks_total: ALL_ATTACKS.len() as u64,
        attack_failures,
        open,
        nvx_clean: report.all_clean(),
        divergences,
    }
}

/// Runs the full acceptance suite: guided-vs-random exploration over
/// `plans` plans (clamped to at least 16 so the corpus actually evolves),
/// the adversarial catalog and the open-loop measurement on all four
/// servers.
#[must_use]
pub fn run(plans: u64, base_seed: u64) -> ExploreBenchReport {
    let started = Instant::now();
    let plans = plans.max(16);
    let explore = run_explore(ExploreConfig {
        base_seed,
        plan_budget: plans,
        schedule_probes: 6,
        workers: 0,
        corpus_cap: 48,
    });
    // The fair baseline: the same number of distinct plans, drawn
    // uniformly by seed, one execution each — exactly what `--sim-sweep`
    // measures.
    let baseline = run_sweep(SweepConfig {
        base_seed,
        seeds: plans,
        determinism_every: 0,
        shrink_failures: false,
    });
    let schedule_ratio = if baseline.distinct_schedules == 0 {
        0.0
    } else {
        explore.distinct_schedules as f64 / baseline.distinct_schedules as f64
    };
    let composed_fraction = if explore.plans == 0 {
        0.0
    } else {
        explore.composed_plans as f64 / explore.plans as f64
    };

    // The canonical CO-gap demonstration, deterministic by construction:
    // 1µs service with one 50ms stall, arrivals every 2µs.
    let mut service = vec![1_000u64; 1_000];
    service[500] = 50_000_000;
    let model_closed_p99_nanos = percentile(&closed_loop_latencies(&service), 0.99);
    let model_open_p99_nanos = percentile(&open_loop_latencies(&service, 2_000), 0.99);
    let co_gap_ratio = if model_closed_p99_nanos == 0 {
        0.0
    } else {
        model_open_p99_nanos as f64 / model_closed_p99_nanos as f64
    };

    let open_config = OpenLoopConfig {
        requests: 200,
        interval_nanos: 100_000,
    };
    let servers: Vec<ServerSuite> = ALL_SERVERS
        .iter()
        .map(|kind| run_server_suite(*kind, open_config))
        .collect();

    ExploreBenchReport {
        explore,
        baseline_plans: baseline.seeds,
        baseline_distinct_schedules: baseline.distinct_schedules,
        schedule_ratio,
        composed_fraction,
        model_closed_p99_nanos,
        model_open_p99_nanos,
        co_gap_ratio,
        servers,
        wall_ms: started.elapsed().as_millis() as u64,
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Serialises the report into the `BENCH_explore.json` document.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn to_json(report: &ExploreBenchReport) -> String {
    let explore = &report.explore;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(out, "  \"base_seed\": {},", explore.config.base_seed);
    let _ = writeln!(out, "  \"plans\": {},", explore.plans);
    let _ = writeln!(out, "  \"executions\": {},", explore.executions);
    let _ = writeln!(out, "  \"generations\": {},", explore.generations);
    let _ = writeln!(out, "  \"schedule_probes\": {},", explore.config.schedule_probes);
    let _ = writeln!(out, "  \"distinct_schedules\": {},", explore.distinct_schedules);
    let _ = writeln!(out, "  \"distinct_traces\": {},", explore.distinct_traces);
    let _ = writeln!(out, "  \"interesting_plans\": {},", explore.interesting_plans);
    let _ = writeln!(out, "  \"distinct_kind_edges\": {},", explore.distinct_kind_edges);
    let _ = writeln!(out, "  \"composed_plans\": {},", explore.composed_plans);
    let _ = writeln!(out, "  \"composed_fraction\": {:.4},", report.composed_fraction);
    let _ = writeln!(out, "  \"baseline_plans\": {},", report.baseline_plans);
    let _ = writeln!(
        out,
        "  \"baseline_distinct_schedules\": {},",
        report.baseline_distinct_schedules
    );
    let _ = writeln!(out, "  \"schedule_ratio\": {:.3},", report.schedule_ratio);
    let _ = writeln!(out, "  \"determinism_checked\": {},", explore.determinism_checked);
    let _ = writeln!(
        out,
        "  \"determinism_mismatches\": {},",
        explore.determinism_mismatches
    );
    let _ = writeln!(out, "  \"modes\": {{");
    for (i, (mode, count)) in explore.mode_counts.iter().enumerate() {
        let comma = if i + 1 < explore.mode_counts.len() { "," } else { "" };
        let _ = writeln!(out, "    \"{mode}\": {count}{comma}");
    }
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"uncovered_edges\": [");
    for (i, edge) in explore.uncovered_edges.iter().enumerate() {
        let comma = if i + 1 < explore.uncovered_edges.len() { "," } else { "" };
        let _ = writeln!(out, "    \"{}\"{comma}", escape(edge));
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"model_closed_p99_nanos\": {},",
        report.model_closed_p99_nanos
    );
    let _ = writeln!(out, "  \"model_open_p99_nanos\": {},", report.model_open_p99_nanos);
    let _ = writeln!(out, "  \"co_gap_ratio\": {:.1},", report.co_gap_ratio);
    let adversarial_passed: u64 = report.servers.iter().map(|s| s.attacks_passed).sum();
    let adversarial_total: u64 = report.servers.iter().map(|s| s.attacks_total).sum();
    let open_errors: u64 = report.servers.iter().map(|s| s.open.errors).sum();
    let open_completed: u64 = report.servers.iter().map(|s| s.open.completed).sum();
    let _ = writeln!(out, "  \"adversarial_cells_passed\": {adversarial_passed},");
    let _ = writeln!(out, "  \"adversarial_cells_total\": {adversarial_total},");
    let _ = writeln!(out, "  \"open_loop_completed\": {open_completed},");
    let _ = writeln!(out, "  \"open_loop_errors\": {open_errors},");
    let _ = writeln!(out, "  \"servers\": [");
    for (i, server) in report.servers.iter().enumerate() {
        let comma = if i + 1 < report.servers.len() { "," } else { "" };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", escape(&server.name));
        let _ = writeln!(out, "      \"attacks_passed\": {},", server.attacks_passed);
        let _ = writeln!(out, "      \"attacks_total\": {},", server.attacks_total);
        let _ = writeln!(out, "      \"nvx_clean\": {},", server.nvx_clean);
        let _ = writeln!(out, "      \"divergences\": {},", server.divergences);
        let _ = writeln!(out, "      \"open_completed\": {},", server.open.completed);
        let _ = writeln!(out, "      \"open_errors\": {},", server.open.errors);
        let _ = writeln!(
            out,
            "      \"open_behind_schedule\": {},",
            server.open.behind_schedule
        );
        let _ = writeln!(
            out,
            "      \"offered_rate_hz\": {:.1},",
            server.open.offered_rate_hz
        );
        let _ = writeln!(out, "      \"open_p50_nanos\": {},", server.open.p50_nanos);
        let _ = writeln!(out, "      \"open_p99_nanos\": {},", server.open.p99_nanos);
        let _ = writeln!(out, "      \"open_p999_nanos\": {},", server.open.p999_nanos);
        let _ = writeln!(out, "      \"open_max_nanos\": {},", server.open.max_nanos);
        let _ = writeln!(out, "      \"attack_failures\": [");
        for (j, failure) in server.attack_failures.iter().enumerate() {
            let comma = if j + 1 < server.attack_failures.len() { "," } else { "" };
            let _ = writeln!(out, "        \"{}\"{comma}", escape(failure));
        }
        let _ = writeln!(out, "      ]");
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"failure_count\": {},", explore.failures.len());
    let _ = writeln!(out, "  \"failure_plans\": [");
    for (i, plan) in explore.failure_plans.iter().enumerate() {
        let comma = if i + 1 < explore.failure_plans.len() { "," } else { "" };
        let _ = writeln!(out, "    \"{}\"{comma}", escape(plan));
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"wall_ms\": {}", report.wall_ms);
    let _ = writeln!(out, "}}");
    out
}

/// Writes the report to `path`.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_to(report: &ExploreBenchReport, path: impl AsRef<Path>) -> io::Result<()> {
    fs::write(path, to_json(report))
}

/// Renders a short human-readable summary for the `figures` output.
#[must_use]
pub fn render(report: &ExploreBenchReport) -> String {
    let explore = &report.explore;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Coverage-guided exploration ({} plans, {} executions, {} generations, {} ms wall):",
        explore.plans, explore.executions, explore.generations, report.wall_ms
    );
    let _ = writeln!(
        out,
        "  schedules: guided {} vs random {} over {} plans each — {:.2}x (gate {MIN_SCHEDULE_RATIO}x)",
        explore.distinct_schedules,
        report.baseline_distinct_schedules,
        report.baseline_plans,
        report.schedule_ratio
    );
    let _ = writeln!(
        out,
        "  corpus: {} interesting plans, {} composed ({:.1}%), {} distinct kind edges, {} uncovered tracepoints",
        explore.interesting_plans,
        explore.composed_plans,
        report.composed_fraction * 100.0,
        explore.distinct_kind_edges,
        explore.uncovered_edges.len()
    );
    let _ = writeln!(
        out,
        "  reproducibility: {} identical double-runs, {} mismatches",
        explore.determinism_checked, explore.determinism_mismatches
    );
    let _ = writeln!(
        out,
        "  CO gap (queue model): closed p99 {}ns vs open p99 {}ns — {:.0}x",
        report.model_closed_p99_nanos, report.model_open_p99_nanos, report.co_gap_ratio
    );
    for server in &report.servers {
        let _ = writeln!(
            out,
            "  {}: attacks {}/{}, open-loop {} ok / {} err @ {:.0} req/s, p50 {}ns p99 {}ns p99.9 {}ns{}",
            server.name,
            server.attacks_passed,
            server.attacks_total,
            server.open.completed,
            server.open.errors,
            server.open.offered_rate_hz,
            server.open.p50_nanos,
            server.open.p99_nanos,
            server.open.p999_nanos,
            if server.nvx_clean { "" } else { " [DIRTY EXIT]" }
        );
    }
    if explore.failures.is_empty() {
        let _ = writeln!(out, "  failures: none");
    } else {
        let _ = writeln!(out, "  failures: {}", explore.failures.len());
        for failure in &explore.failures {
            let _ = writeln!(out, "    seed {}: {}", failure.seed, failure.failure);
        }
    }
    out
}

/// Validates a `BENCH_explore.json` file against every acceptance gate:
/// guided schedule diversity ≥ [`MIN_SCHEDULE_RATIO`]× the equal-plan
/// random baseline, composed coverage ≥ [`MIN_COMPOSED_FRACTION`], zero
/// determinism mismatches, zero invariant failures, the full adversarial
/// catalog passed on all four servers, and a CO-free open-loop
/// measurement present and error-free.
///
/// # Errors
///
/// Returns a description of the first missed gate.
pub fn validate_file(path: impl AsRef<Path>) -> Result<(), String> {
    let path = path.as_ref();
    let json = fs::read_to_string(path)
        .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
    if !json.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!("{}: missing schema marker {SCHEMA:?}", path.display()));
    }
    let fail = |message: String| Err(format!("{}: {message}", path.display()));
    let number = |key: &str| extract_number(&json, key).map_err(|err| format!("{}: {err}", path.display()));

    let plans = number("plans")?;
    if plans < 1.0 {
        return fail("empty exploration".to_owned());
    }
    let baseline_plans = number("baseline_plans")?;
    if (baseline_plans - plans).abs() > f64::EPSILON {
        return fail(format!(
            "unfair comparison: {plans} guided plans vs {baseline_plans} baseline plans"
        ));
    }
    let ratio = number("schedule_ratio")?;
    if ratio < MIN_SCHEDULE_RATIO {
        return fail(format!(
            "guided exploration found only {ratio:.2}x the random baseline's distinct \
             schedules (gate {MIN_SCHEDULE_RATIO}x at equal plan count)"
        ));
    }
    let composed = number("composed_fraction")?;
    if composed < MIN_COMPOSED_FRACTION {
        return fail(format!(
            "composed plans are {:.2}% of the corpus (gate {:.0}%) — escalation is not \
             reaching layered scenarios",
            composed * 100.0,
            MIN_COMPOSED_FRACTION * 100.0
        ));
    }
    let checked = number("determinism_checked")?;
    if checked < 1.0 {
        return fail("no identical double-runs were performed".to_owned());
    }
    let mismatches = number("determinism_mismatches")?;
    if mismatches > 0.0 {
        return fail(format!(
            "{mismatches} identical double-runs produced different trace hashes (the \
             offending plan files are in \"failure_plans\")"
        ));
    }
    let cells_total = number("adversarial_cells_total")?;
    let cells_passed = number("adversarial_cells_passed")?;
    if cells_total < 16.0 {
        return fail(format!(
            "only {cells_total} adversarial cells attempted (4 attacks x 4 servers = 16)"
        ));
    }
    if (cells_passed - cells_total).abs() > f64::EPSILON {
        return fail(format!(
            "{cells_passed}/{cells_total} adversarial cells passed — see \
             \"attack_failures\" in the per-server entries"
        ));
    }
    let open_completed = number("open_loop_completed")?;
    if open_completed < 1.0 {
        return fail("no open-loop requests completed".to_owned());
    }
    let open_errors = number("open_loop_errors")?;
    if open_errors > 0.0 {
        return fail(format!("{open_errors} open-loop request(s) failed"));
    }
    let co_gap = number("co_gap_ratio")?;
    if co_gap < 100.0 {
        return fail(format!(
            "queue-model CO gap is only {co_gap:.0}x — the open-loop model is not \
             charging stalls to the requests scheduled behind them"
        ));
    }
    let failures = number("failure_count")?;
    if failures > 0.0 {
        return fail(format!(
            "{failures} failing plan(s); each entry in \"failure_plans\" is a plan file \
             replayable with `figures --replay-plan <file>`"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("varan-explorebench-test-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("BENCH_explore.json")
    }

    #[test]
    fn a_small_real_run_passes_every_gate() {
        let path = temp_path("real");
        let report = run(16, 5_000);
        let rendered = render(&report);
        assert!(rendered.contains("Coverage-guided exploration"), "{rendered}");
        write_to(&report, &path).unwrap();
        validate_file(&path).unwrap_or_else(|err| panic!("{err}\n---\n{rendered}"));
    }

    #[test]
    fn missing_schema_is_rejected() {
        let path = temp_path("schema");
        std::fs::write(&path, "{}").unwrap();
        assert!(validate_file(&path).is_err());
    }

    #[test]
    fn a_missed_ratio_gate_is_reported() {
        let path = temp_path("ratio");
        let json = format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"plans\": 32,\n  \"baseline_plans\": 32,\n  \
             \"schedule_ratio\": 1.200,\n  \"composed_fraction\": 0.0625\n}}\n"
        );
        std::fs::write(&path, json).unwrap();
        let err = validate_file(&path).unwrap_err();
        assert!(err.contains("distinct"), "got: {err}");
    }

    #[test]
    fn an_unfair_baseline_is_rejected() {
        let path = temp_path("unfair");
        let json = format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"plans\": 32,\n  \"baseline_plans\": 8\n}}\n"
        );
        std::fs::write(&path, json).unwrap();
        let err = validate_file(&path).unwrap_err();
        assert!(err.contains("unfair"), "got: {err}");
    }
}
