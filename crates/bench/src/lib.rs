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
//! | [`upgradebench`] | machine-readable zero-downtime rolling upgrade (`BENCH_upgrade.json`) |
//! | [`simbench`] | machine-readable deterministic-simulation sweep (`BENCH_sim.json`) |
//! | [`explorebench`] | machine-readable coverage-guided exploration + adversarial/open-loop acceptance (`BENCH_explore.json`) |
//! | [`openloop`] | open-loop workload model and CO-free live latency runner |
//! | [`report`] | plain-text rendering of the results |
//!
//! Wall-clock performance of the ring, journal, fleet, shard and telemetry
//! layers is measured by the standalone `benchmark/` package (repeated
//! trials with noise bounds; metric names in `BENCHMARK.json`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod comparison;
pub mod explorebench;
pub mod microbench;
pub mod openloop;
pub mod report;
pub mod scenarios;
pub mod servers;
pub mod simbench;
pub mod spec;
pub mod upgradebench;

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

/// Extracts the number following `"key":` inside `json` — the minimal parser
/// the `--check-*` gates use to read back the `BENCH_*.json` files this crate
/// writes.
pub(crate) fn extract_number(json: &str, key: &str) -> Result<f64, String> {
    let needle = format!("\"{key}\"");
    let at = json
        .find(&needle)
        .ok_or_else(|| format!("missing key {key:?}"))?;
    let rest = &json[at + needle.len()..];
    let rest = rest
        .trim_start()
        .strip_prefix(':')
        .ok_or_else(|| format!("malformed entry for {key:?} (no colon)"))?
        .trim_start();
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end]
        .parse::<f64>()
        .map_err(|err| format!("malformed number for {key:?}: {err}"))
}

#[cfg(test)]
mod tests {
    use super::extract_number;

    #[test]
    fn number_extractor_rejects_malformed_json() {
        assert_eq!(extract_number("{\"seeds\": 12, \"x\": -1.5e3}", "x"), Ok(-1500.0));
        assert!(extract_number("{\"schema\": \"varan-bench-sim/v1\"}", "seeds").is_err());
        assert!(extract_number("not json at all", "seeds").is_err());
        assert!(extract_number("{\"seeds\" 12}", "seeds").is_err());
        assert!(extract_number("{\"seeds\": \"twelve\"}", "seeds").is_err());
    }
}
