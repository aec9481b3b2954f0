//! Machine-readable live-upgrade benchmark (`BENCH_upgrade.json`).
//!
//! Drives the §5.1 Redis revision range through the upgrade pipeline as a
//! **zero-downtime rolling deployment** instead of a boot-time version set:
//! the oldest revision launches as the only version, live client traffic
//! runs throughout, and the orchestrator walks the remaining seven revisions
//! canary → soak → promote → retire.  The newest revision carries the
//! `HMGET` crash bug; replaying history during its canary stage crashes it,
//! and the pipeline must roll it back automatically while the service keeps
//! answering.
//!
//! The headline acceptance bar (`figures --check-upgrade`, enforced in CI):
//!
//! * **zero failed client requests** across the whole chain — every command
//!   sent during every handover must receive its reply;
//! * at least six revisions promoted and the bad one rolled back;
//! * finite catch-up and promote-latency statistics.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use varan_apps::clients::{connect_retry, read_until_satisfied, CLIENT_READ_TIMEOUT};
use varan_apps::revisions;
use varan_apps::servers::ServerConfig;
use varan_core::coordinator::{NvxConfig, NvxSystem};
use varan_core::fleet::FleetConfig;
use varan_core::upgrade::{UpgradeConfig, UpgradeOrchestrator};
use varan_kernel::Kernel;

use crate::servers::fresh_port;
use crate::{extract_number, Scale};

/// Schema identifier stamped into the JSON.
pub const SCHEMA: &str = "varan-bench-upgrade/v1";

/// Default output path, relative to the working directory.
pub const DEFAULT_PATH: &str = "BENCH_upgrade.json";

/// Commands issued per client connection.
const COMMANDS_PER_CONNECTION: u64 = 5;

/// Results of the rolling-upgrade scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct UpgradeBenchReport {
    /// Revisions in the chain (initial leader + upgrade hops).
    pub revisions: usize,
    /// Upgrade hops attempted.
    pub hops: usize,
    /// Hops that promoted their candidate.
    pub promoted: u64,
    /// Hops rolled back (the planted bad revision).
    pub rolled_back: u64,
    /// Client connections driven over the run.
    pub connections: u64,
    /// Client commands issued.
    pub client_requests: u64,
    /// Client commands that did not receive their reply — the zero-downtime
    /// bar requires this to be 0.
    pub client_failed: u64,
    /// Canary cost per promoted hop: attach → live, milliseconds.
    pub catch_up_ms: Vec<f64>,
    /// Handover request → new leader publishing, milliseconds, per promoted
    /// hop.  Each value is read back from the run's `promote_latency_nanos`
    /// telemetry histogram, not a bench-local stopwatch.
    pub promote_latency_ms: Vec<f64>,
    /// Promote-latency samples in the run's telemetry registry — exactly one
    /// per promoted hop.
    pub promote_hist_samples: u64,
    /// Exact mean of the `promote_latency_nanos` histogram, milliseconds.
    pub promote_hist_mean_ms: f64,
    /// Exact maximum of the histogram, milliseconds.  Equals the per-stage
    /// `promote_latency_ms` max: both read the same samples.
    pub promote_hist_max_ms: f64,
    /// Events replayed during the soak stages, summed over promoted hops.
    pub soak_events_total: u64,
    /// Divergences allowed by scoped rules across all candidates.
    pub divergences_allowed: u64,
    /// Largest replay backlog any candidate showed during soak.
    pub max_lag: u64,
}

fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

fn maximum(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// Runs the rolling-upgrade scenario and returns the report.
///
/// # Panics
///
/// Panics if the execution itself fails (launch error, unclean exits) —
/// those are harness bugs, not measured outcomes.
#[must_use]
pub fn run(scale: Scale) -> UpgradeBenchReport {
    let (connections, soak_events) = match scale {
        Scale::Quick => (400u64, 120u64),
        Scale::Full => (1200u64, 400u64),
    };
    let kernel = Kernel::new();
    let port = fresh_port();
    let server_config = ServerConfig::on_port(port).with_connections(connections);
    let journal_dir = std::env::temp_dir().join(format!(
        "varan-upgradebench-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&journal_dir);

    let (initial, steps) = revisions::redis_upgrade_chain(&server_config);
    let revision_count = steps.len() + 1;
    let hops = steps.len();

    // One launched version (the oldest revision); every later revision joins
    // at runtime.  Ten spare slots: each retired ex-leader keeps one for the
    // rest of the run (it stays attached as a warm rollback target) plus one
    // in-flight canary.
    // The whole run reports into a private telemetry registry, so the
    // promote-latency figures below are read from the same histogram the
    // `/varan/metrics` endpoint serves — not from a bench-local stopwatch —
    // and concurrent benchmarks cannot bleed samples into each other.
    let obs = Arc::new(varan_obs::Registry::new());
    let config = NvxConfig::default()
        .with_fleet(FleetConfig::for_upgrades(&journal_dir, 10))
        .with_obs(Arc::clone(&obs));
    let running = NvxSystem::launch(&kernel, vec![initial], config).expect("launch");
    let fleet = running.fleet().expect("fleet enabled");
    let orchestrator = UpgradeOrchestrator::new(
        fleet.clone(),
        UpgradeConfig {
            soak_events,
            ..UpgradeConfig::default()
        },
    );

    // Continuous client traffic with per-command accounting: every command
    // must receive its reply (the HMGET probes a key that never exists —
    // healthy revisions answer `*-1`, the buggy revision would crash).
    // Connections are paced while the chain is in flight so every handover
    // happens under live load, then the remaining budget is burned at full
    // speed.
    let chain_done = Arc::new(AtomicBool::new(false));
    let client_kernel = kernel.clone();
    let client_chain_done = Arc::clone(&chain_done);
    let client = std::thread::spawn(move || {
        let mut requests = 0u64;
        let mut failed = 0u64;
        for i in 0..connections {
            requests += COMMANDS_PER_CONNECTION;
            let commands = format!(
                "PING\nSET key{i} value{i}\nGET key{i}\nHMGET ghost field\nINCR hits\n"
            );
            let Some(endpoint) = connect_retry(&client_kernel, port, Duration::from_secs(20))
            else {
                failed += COMMANDS_PER_CONNECTION;
                continue;
            };
            if endpoint.write(commands.as_bytes()).is_err() {
                failed += COMMANDS_PER_CONNECTION;
                endpoint.close();
                continue;
            }
            let replies = read_until_satisfied(&endpoint, CLIENT_READ_TIMEOUT, |buffer| {
                buffer.iter().filter(|&&byte| byte == b'\n').count()
                    >= COMMANDS_PER_CONNECTION as usize
            });
            if replies.is_none() {
                failed += COMMANDS_PER_CONNECTION;
            }
            endpoint.close();
            if !client_chain_done.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        (requests, failed)
    });

    let upgrade_report = orchestrator.run_chain(steps);
    chain_done.store(true, Ordering::Release);
    let (client_requests, client_failed) = client.join().expect("client thread");
    let nvx = running.wait();
    assert!(nvx.all_clean(), "unclean exits: {:?}", nvx.exits);
    let _ = fs::remove_dir_all(&journal_dir);

    let promote_hist = obs.metrics.promote_latency_nanos.snapshot();
    assert_eq!(
        promote_hist.count,
        upgrade_report.promoted(),
        "one promote-latency sample per promoted hop"
    );

    let promoted_stages: Vec<_> = upgrade_report
        .stages
        .iter()
        .filter(|stage| stage.promoted())
        .collect();
    UpgradeBenchReport {
        revisions: revision_count,
        hops,
        promoted: upgrade_report.promoted(),
        rolled_back: upgrade_report.rolled_back(),
        connections,
        client_requests,
        client_failed,
        catch_up_ms: promoted_stages.iter().map(|stage| stage.catch_up_ms).collect(),
        promote_latency_ms: promoted_stages
            .iter()
            .map(|stage| stage.promote_latency_ms)
            .collect(),
        promote_hist_samples: promote_hist.count,
        promote_hist_mean_ms: promote_hist.mean() / 1_000_000.0,
        promote_hist_max_ms: promote_hist.max as f64 / 1_000_000.0,
        soak_events_total: promoted_stages.iter().map(|stage| stage.soak_events).sum(),
        divergences_allowed: upgrade_report
            .stages
            .iter()
            .map(|stage| stage.divergences_allowed)
            .sum(),
        max_lag: upgrade_report
            .stages
            .iter()
            .map(|stage| stage.max_lag)
            .max()
            .unwrap_or(0),
    }
}

impl UpgradeBenchReport {
    /// Serialises the report to the `varan-bench-upgrade/v1` JSON schema.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "  \"revisions\": {},", self.revisions);
        let _ = writeln!(out, "  \"hops\": {},", self.hops);
        let _ = writeln!(out, "  \"promoted\": {},", self.promoted);
        let _ = writeln!(out, "  \"rolled_back\": {},", self.rolled_back);
        let _ = writeln!(out, "  \"client\": {{");
        let _ = writeln!(out, "    \"connections\": {},", self.connections);
        let _ = writeln!(out, "    \"requests\": {},", self.client_requests);
        let _ = writeln!(out, "    \"failed\": {}", self.client_failed);
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"soak\": {{");
        let _ = writeln!(out, "    \"events_total\": {},", self.soak_events_total);
        let _ = writeln!(out, "    \"divergences_allowed\": {},", self.divergences_allowed);
        let _ = writeln!(out, "    \"max_lag\": {}", self.max_lag);
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"catch_up_ms\": {{");
        let _ = writeln!(out, "    \"median\": {:.3},", median(&self.catch_up_ms));
        let _ = writeln!(out, "    \"max\": {:.3}", maximum(&self.catch_up_ms));
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"promote_latency_ms\": {{");
        let _ = writeln!(out, "    \"median\": {:.3},", median(&self.promote_latency_ms));
        let _ = writeln!(out, "    \"max\": {:.3},", maximum(&self.promote_latency_ms));
        let _ = writeln!(out, "    \"hist_samples\": {},", self.promote_hist_samples);
        let _ = writeln!(out, "    \"hist_mean\": {:.3},", self.promote_hist_mean_ms);
        let _ = writeln!(out, "    \"hist_max\": {:.3}", self.promote_hist_max_ms);
        let _ = writeln!(out, "  }}");
        let _ = writeln!(out, "}}");
        out
    }

    /// Writes the report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_json())
    }

    /// Renders a short human-readable summary for the `figures` output.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Live upgrade across {} Redis revisions ({} hops, one bad revision):",
            self.revisions, self.hops
        );
        let _ = writeln!(
            out,
            "  promoted {} / rolled back {}",
            self.promoted, self.rolled_back
        );
        let _ = writeln!(
            out,
            "  client: {} requests over {} connections, {} failed",
            self.client_requests, self.connections, self.client_failed
        );
        let _ = writeln!(
            out,
            "  canary catch-up: median {:.2} ms, max {:.2} ms",
            median(&self.catch_up_ms),
            maximum(&self.catch_up_ms)
        );
        let _ = writeln!(
            out,
            "  promote latency: median {:.2} ms, max {:.2} ms \
             ({} telemetry samples, hist mean {:.2} ms)",
            median(&self.promote_latency_ms),
            maximum(&self.promote_latency_ms),
            self.promote_hist_samples,
            self.promote_hist_mean_ms
        );
        let _ = writeln!(
            out,
            "  soak: {} events replayed, {} divergences allowed, max lag {}",
            self.soak_events_total, self.divergences_allowed, self.max_lag
        );
        out
    }
}

/// Validates a `BENCH_upgrade.json` file: schema marker present, **zero
/// failed client requests**, at least six promoted hops, at least one
/// rollback (the planted bad revision), and finite latency statistics.
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
    let failed =
        extract_number(&json, "failed").map_err(|err| format!("{}: {err}", path.display()))?;
    if failed != 0.0 {
        return Err(format!(
            "{}: {failed} client requests failed — the upgrade chain caused \
             client-visible downtime (the bar is zero failed requests)",
            path.display()
        ));
    }
    let requests =
        extract_number(&json, "requests").map_err(|err| format!("{}: {err}", path.display()))?;
    if requests < 1.0 {
        return Err(format!("{}: no client requests recorded", path.display()));
    }
    let promoted =
        extract_number(&json, "promoted").map_err(|err| format!("{}: {err}", path.display()))?;
    if promoted < 6.0 {
        return Err(format!(
            "{}: only {promoted} hops promoted (floor is 6 of the 7 in the chain)",
            path.display()
        ));
    }
    let rolled_back = extract_number(&json, "rolled_back")
        .map_err(|err| format!("{}: {err}", path.display()))?;
    if rolled_back < 1.0 {
        return Err(format!(
            "{}: the planted bad revision was not rolled back",
            path.display()
        ));
    }
    for key in ["median", "max", "hist_mean", "hist_max"] {
        let value =
            extract_number(&json, key).map_err(|err| format!("{}: {err}", path.display()))?;
        if !value.is_finite() || value < 0.0 {
            return Err(format!(
                "{}: latency metric {key:?} must be finite and non-negative, got {value}",
                path.display()
            ));
        }
    }
    let hist_samples = extract_number(&json, "hist_samples")
        .map_err(|err| format!("{}: {err}", path.display()))?;
    if hist_samples < promoted {
        return Err(format!(
            "{}: the telemetry histogram holds {hist_samples} promote samples \
             but {promoted} hops promoted — the plane missed a handover",
            path.display()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> UpgradeBenchReport {
        UpgradeBenchReport {
            revisions: 8,
            hops: 7,
            promoted: 6,
            rolled_back: 1,
            connections: 100,
            client_requests: 500,
            client_failed: 0,
            catch_up_ms: vec![3.0, 1.0, 2.0],
            promote_latency_ms: vec![0.5, 0.7],
            promote_hist_samples: 6,
            promote_hist_mean_ms: 0.6,
            promote_hist_max_ms: 0.7,
            soak_events_total: 720,
            divergences_allowed: 0,
            max_lag: 40,
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("varan-upgradebench-test-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("BENCH_upgrade.json")
    }

    #[test]
    fn json_round_trips_through_validation() {
        let path = temp_path("ok");
        sample().write_to(&path).unwrap();
        validate_file(&path).unwrap();
    }

    #[test]
    fn validation_rejects_client_visible_downtime() {
        let mut report = sample();
        report.client_failed = 5;
        let path = temp_path("downtime");
        report.write_to(&path).unwrap();
        let err = validate_file(&path).unwrap_err();
        assert!(err.contains("client-visible downtime"), "unexpected: {err}");
    }

    #[test]
    fn validation_rejects_missed_rollback_and_failed_promotions() {
        let path = temp_path("bad");
        let mut report = sample();
        report.rolled_back = 0;
        report.write_to(&path).unwrap();
        assert!(validate_file(&path).unwrap_err().contains("not rolled back"));
        let mut report = sample();
        report.promoted = 3;
        report.write_to(&path).unwrap();
        assert!(validate_file(&path).unwrap_err().contains("floor is 6"));
        std::fs::write(&path, "{}").unwrap();
        assert!(validate_file(&path).is_err());
    }

    #[test]
    fn tiny_upgrade_chain_completes_end_to_end() {
        // The full quick scenario is exercised by `figures --fig-upgrade`
        // (CI smoke); here a miniature inline run proves the harness wiring.
        let report = run(Scale::Quick);
        assert_eq!(report.hops, 7);
        assert_eq!(report.client_failed, 0, "zero-downtime bar");
        assert!(report.promoted >= 6, "report: {report:?}");
        assert_eq!(report.rolled_back, 1);
        // The per-stage figures and the telemetry histogram saw the same
        // samples, so their maxima agree exactly.
        assert_eq!(report.promote_hist_samples, report.promoted);
        let stage_max = report.promote_latency_ms.iter().copied().fold(0.0, f64::max);
        assert!(
            (stage_max - report.promote_hist_max_ms).abs() < 1e-9,
            "stage max {stage_max} vs histogram max {}",
            report.promote_hist_max_ms
        );
    }
}
