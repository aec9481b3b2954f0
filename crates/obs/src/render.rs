//! Snapshot rendering: hand-rolled JSON (the workspace's serde is an
//! offline stub, so every schema in this repo is written with `write!`) and
//! prometheus-style exposition text.
//!
//! The JSON layout is deliberately flat with prefixed histogram keys
//! (`promote_latency_nanos_count`, …) so a substring search can extract any
//! field unambiguously.

use std::fmt::Write as _;

use crate::metrics::{bucket_upper_bound, HistogramSnapshot, MetricsSnapshot, MAX_SHARDS};

/// Schema marker stamped into the JSON form.
pub const SNAPSHOT_SCHEMA: &str = "varan-obs/v1";

fn shard_array(out: &mut String, key: &str, lanes: &[u64; MAX_SHARDS], trailing_comma: bool) {
    let used = lanes
        .iter()
        .rposition(|&v| v != 0)
        .map(|i| i + 1)
        .unwrap_or(1);
    let rendered: Vec<String> = lanes[..used].iter().map(u64::to_string).collect();
    let comma = if trailing_comma { "," } else { "" };
    let _ = writeln!(out, "  \"{key}\": [{}]{comma}", rendered.join(", "));
}

fn histogram_json(out: &mut String, name: &str, hist: &HistogramSnapshot, trailing_comma: bool) {
    let _ = writeln!(out, "  \"{name}_count\": {},", hist.count);
    let _ = writeln!(out, "  \"{name}_sum\": {},", hist.sum);
    let _ = writeln!(out, "  \"{name}_max\": {},", hist.max);
    let _ = writeln!(out, "  \"{name}_p50\": {},", hist.quantile(0.5));
    let _ = writeln!(out, "  \"{name}_p99\": {},", hist.quantile(0.99));
    let _ = writeln!(out, "  \"{name}_p999\": {},", hist.quantile(0.999));
    let buckets: Vec<String> = hist
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &count)| count != 0)
        .map(|(index, &count)| format!("[{index}, {count}]"))
        .collect();
    let comma = if trailing_comma { "," } else { "" };
    let _ = writeln!(out, "  \"{name}_buckets\": [{}]{comma}", buckets.join(", "));
}

impl MetricsSnapshot {
    /// The snapshot as `varan-obs/v1` JSON (flat keys, sparse buckets).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{SNAPSHOT_SCHEMA}\",");
        let _ = writeln!(
            out,
            "  \"events_published_total\": {},",
            self.events_published_total()
        );
        shard_array(&mut out, "events_published_per_shard", &self.events_published, true);
        let _ = writeln!(
            out,
            "  \"events_replayed_total\": {},",
            self.events_replayed_total()
        );
        shard_array(&mut out, "events_replayed_per_shard", &self.events_replayed, true);
        for (key, value) in [
            ("ring_publishes", self.ring_publishes),
            ("ring_consumes", self.ring_consumes),
            ("syscalls_executed", self.syscalls_executed),
            ("divergences_allowed", self.divergences_allowed),
            ("divergences_killed", self.divergences_killed),
            ("divergence_fast_path_hits", self.divergence_fast_path_hits),
            ("divergence_hash_mismatches", self.divergence_hash_mismatches),
            ("follower_copy_bytes_saved", self.follower_copy_bytes_saved),
            ("follower_copy_bytes", self.follower_copy_bytes),
            ("fleet_attaches", self.fleet_attaches),
            ("fleet_detaches", self.fleet_detaches),
            ("promotions", self.promotions),
            ("failovers", self.failovers),
            ("rollbacks", self.rollbacks),
            ("journal_scrubs", self.journal_scrubs),
            ("journal_quarantines", self.journal_quarantines),
            ("journal_compactions", self.journal_compactions),
            ("journal_corruptions_detected", self.journal_corruptions_detected),
            ("checkpoint_chain_len", self.checkpoint_chain_len),
        ] {
            let _ = writeln!(out, "  \"{key}\": {value},");
        }
        shard_array(&mut out, "follower_lag_per_shard", &self.follower_lag, true);
        let lag_max = self.follower_lag.iter().copied().max().unwrap_or(0);
        let _ = writeln!(out, "  \"follower_lag_max\": {lag_max},");
        histogram_json(&mut out, "publish_gate_wait_nanos", &self.publish_gate_wait_nanos, true);
        histogram_json(&mut out, "syscall_capture_nanos", &self.syscall_capture_nanos, true);
        histogram_json(&mut out, "joiner_catch_up_nanos", &self.joiner_catch_up_nanos, true);
        histogram_json(&mut out, "promote_latency_nanos", &self.promote_latency_nanos, false);
        let _ = writeln!(out, "}}");
        out
    }

    /// The snapshot as prometheus-style exposition text (`varan_` prefix,
    /// cumulative `le` histogram buckets).
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, lanes) in [
            ("varan_events_published", &self.events_published),
            ("varan_events_replayed", &self.events_replayed),
        ] {
            let _ = writeln!(out, "# TYPE {name}_total counter");
            for (shard, &value) in lanes.iter().enumerate().filter(|(_, &v)| v != 0) {
                let _ = writeln!(out, "{name}_total{{shard=\"{shard}\"}} {value}");
            }
        }
        for (name, value) in [
            ("varan_ring_publishes", self.ring_publishes),
            ("varan_ring_consumes", self.ring_consumes),
            ("varan_syscalls_executed", self.syscalls_executed),
            ("varan_divergences_allowed", self.divergences_allowed),
            ("varan_divergences_killed", self.divergences_killed),
            (
                "varan_divergence_fast_path_hits",
                self.divergence_fast_path_hits,
            ),
            (
                "varan_divergence_hash_mismatches",
                self.divergence_hash_mismatches,
            ),
            (
                "varan_follower_copy_bytes_saved",
                self.follower_copy_bytes_saved,
            ),
            ("varan_follower_copy_bytes", self.follower_copy_bytes),
            ("varan_fleet_attaches", self.fleet_attaches),
            ("varan_fleet_detaches", self.fleet_detaches),
            ("varan_promotions", self.promotions),
            ("varan_failovers", self.failovers),
            ("varan_rollbacks", self.rollbacks),
            ("varan_journal_scrubs", self.journal_scrubs),
            ("varan_journal_quarantines", self.journal_quarantines),
            ("varan_journal_compactions", self.journal_compactions),
            (
                "varan_journal_corruptions_detected",
                self.journal_corruptions_detected,
            ),
        ] {
            let _ = writeln!(out, "# TYPE {name}_total counter");
            let _ = writeln!(out, "{name}_total {value}");
        }
        let _ = writeln!(out, "# TYPE varan_checkpoint_chain_len gauge");
        let _ = writeln!(out, "varan_checkpoint_chain_len {}", self.checkpoint_chain_len);
        let _ = writeln!(out, "# TYPE varan_follower_lag_sequences gauge");
        for (shard, &value) in self.follower_lag.iter().enumerate().filter(|(_, &v)| v != 0) {
            let _ = writeln!(
                out,
                "varan_follower_lag_sequences{{shard=\"{shard}\"}} {value}"
            );
        }
        for (name, hist) in [
            ("varan_publish_gate_wait_nanos", &self.publish_gate_wait_nanos),
            ("varan_syscall_capture_nanos", &self.syscall_capture_nanos),
            ("varan_joiner_catch_up_nanos", &self.joiner_catch_up_nanos),
            ("varan_promote_latency_nanos", &self.promote_latency_nanos),
        ] {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (index, &count) in hist.buckets.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                cumulative += count;
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper_bound(index)
                );
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count);
            let _ = writeln!(out, "{name}_sum {}", hist.sum);
            let _ = writeln!(out, "{name}_count {}", hist.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    fn sample() -> MetricsSnapshot {
        let metrics = Metrics::new();
        metrics.events_published.add(0, 100);
        metrics.events_published.add(1, 50);
        metrics.events_replayed.add(0, 300);
        metrics.promotions.add(2);
        metrics.follower_lag.set(0, 17);
        metrics.promote_latency_nanos.record(3_000_000);
        metrics.promote_latency_nanos.record(1_500_000);
        metrics.snapshot()
    }

    #[test]
    fn json_has_schema_flat_keys_and_sparse_buckets() {
        let json = sample().to_json();
        assert!(json.contains("\"schema\": \"varan-obs/v1\""), "{json}");
        assert!(json.contains("\"events_published_total\": 150"), "{json}");
        assert!(json.contains("\"events_published_per_shard\": [100, 50]"), "{json}");
        assert!(json.contains("\"events_replayed_total\": 300"), "{json}");
        assert!(json.contains("\"promotions\": 2"), "{json}");
        assert!(json.contains("\"promote_latency_nanos_count\": 2"), "{json}");
        assert!(json.contains("\"promote_latency_nanos_p999\": "), "{json}");
        assert!(json.contains("\"follower_lag_max\": 17"), "{json}");
        // Empty histograms render empty bucket lists, not 65 zeros.
        assert!(json.contains("\"joiner_catch_up_nanos_buckets\": []"), "{json}");
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let text = sample().to_prometheus();
        assert!(text.contains("varan_events_published_total{shard=\"0\"} 100"), "{text}");
        assert!(text.contains("varan_promote_latency_nanos_count 2"), "{text}");
        assert!(text.contains("varan_promote_latency_nanos_bucket{le=\"+Inf\"} 2"), "{text}");
        // 1.5ms (21 significant bits) cumulates to 1, then 3ms (22 bits) to 2.
        assert!(text.contains("le=\"2097151\"} 1"), "{text}");
        assert!(text.contains("le=\"4194303\"} 2"), "{text}");
    }
}
