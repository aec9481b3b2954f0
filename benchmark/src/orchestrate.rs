//! The parent side: spawns one child process per trial, alternates the
//! native and NVX arms, and turns trial outcomes into named metrics.

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::httpd::REFERENCE_RATE;
use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats;
use crate::trial::{Arm, TrialSpec, Workload};

/// Trial index of the warm-up trials (inputs distinct from measured ones).
const WARM_UP_TRIAL: u64 = 1_000;

/// A child that has not finished by now is hung (the coordination layer's
/// failure mode is a zero-CPU deadlock, not slowness): kill it and fail.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// Where trials are run from and where they may write.
pub struct Context {
    pub exe: PathBuf,
    pub out_dir: PathBuf,
    pub verbose: bool,
}

/// One finished trial, as the parent sees it.
#[derive(Debug, Clone)]
pub struct TrialResult {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    pub active_s: f64,
    pub cpu_ms: f64,
    pub peak_rss_mib: f64,
    /// Sorted ascending.
    pub latencies_ns: Vec<f64>,
    pub failed_checks: Vec<String>,
    pub extras: Value,
    pub counters: Value,
}

impl TrialResult {
    pub fn ops(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn ops_per_sec(&self) -> f64 {
        self.ops() as f64 / self.active_s.max(1e-9)
    }

    pub fn cpu_ms_per_kop(&self) -> f64 {
        self.cpu_ms * 1e3 / self.ops().max(1) as f64
    }

    pub fn latency_us(&self, pct: f64) -> f64 {
        stats::percentile_sorted(&self.latencies_ns, pct) / 1e3
    }

    fn extra(&self, name: &str) -> f64 {
        self.extras.num(name).unwrap_or(0.0)
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.num(name).unwrap_or(0.0)
    }

    fn per_kop(&self, count: f64) -> f64 {
        count * 1e3 / self.ops().max(1) as f64
    }
}

fn parse_result(line: &str) -> Result<TrialResult, String> {
    let doc =
        json::parse(line).map_err(|e| format!("child output is not JSON ({e}): {line:.200}"))?;
    let need = |key: &str| {
        doc.num(key)
            .ok_or_else(|| format!("child output lacks {key}"))
    };
    let failed_checks = doc
        .get("checks")
        .map(Value::items)
        .unwrap_or(&[])
        .iter()
        .filter(|c| c.bool("ok") == Some(false))
        .map(|c| {
            format!(
                "{}: {}",
                c.str("name").unwrap_or("?"),
                c.str("detail").unwrap_or("")
            )
        })
        .collect();
    Ok(TrialResult {
        attempted: need("attempted")? as u64,
        failed: need("failed")? as u64,
        // From the parent's spawn call to the first operation issued.
        setup_s: (need("startup_ns")? + need("first_op_ns")?) / 1e9,
        active_s: (need("last_op_ns")? - need("first_op_ns")?) / 1e9,
        cpu_ms: need("cpu_ms")?,
        peak_rss_mib: need("peak_rss_mib")?,
        latencies_ns: stats::sorted(doc.nums("latencies_ns")),
        failed_checks,
        extras: doc.get("extras").cloned().unwrap_or_else(Value::obj),
        counters: doc.get("counters").cloned().unwrap_or_else(Value::obj),
    })
}

/// Runs one trial in a child process and waits for it (bounded).
pub fn run_trial(ctx: &Context, spec: &TrialSpec) -> Result<TrialResult, String> {
    let spec = &TrialSpec {
        spawned_unix_ns: crate::trace::spawn_stamp(),
        ..spec.clone()
    };
    let mut child = Command::new(&ctx.exe)
        .args(spec.to_args())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", ctx.exe.display()))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!(
                    "{} {} trial {} hung for {CHILD_TIMEOUT:?}; killed",
                    spec.workload.name(),
                    spec.arm.name(),
                    spec.trial
                ));
            }
            Err(e) => return Err(format!("wait for child: {e}")),
        }
    };
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_owned())?;
    if !status.success() {
        return Err(format!(
            "{} {} trial {} exited with {status}",
            spec.workload.name(),
            spec.arm.name(),
            spec.trial
        ));
    }
    let line = text.lines().last().unwrap_or("");
    let result = parse_result(line)?;
    if ctx.verbose {
        eprintln!(
            "  {:<18} {:<6} trial {:<4} {:>9} ops {:>12.0} ops/s  p50 {:>9.2} us  setup {:.4} s{}",
            spec.workload.name(),
            spec.arm.name(),
            spec.trial,
            result.ops(),
            result.ops_per_sec(),
            result.latency_us(50.0),
            result.setup_s,
            if spec.traced { "  [traced]" } else { "" },
        );
    }
    Ok(result)
}

fn spec(
    ctx: &Context,
    workload: Workload,
    arm: Arm,
    seed: u64,
    trial: u64,
    size: u64,
) -> TrialSpec {
    TrialSpec {
        workload,
        arm,
        seed,
        trial,
        size,
        traced: false,
        obs_off: false,
        verify_journal: false,
        out_dir: ctx.out_dir.clone(),
        spawned_unix_ns: 0,
    }
}

/// A named, measured value with the per-trial samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn to_json(&self) -> Value {
        let (q1, q3) = stats::quartiles(&self.samples);
        Value::obj()
            .with("name", self.name)
            .with("unit", self.unit)
            .with("value", self.value)
            .with("q1", q1)
            .with("q3", q3)
            .with("n", self.samples.len())
            .with("samples", self.samples.as_slice())
    }
}

/// Everything one invocation (`--workload W --trace T`) produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: Workload,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failed_checks: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Latency samples behind `op_latency_*` and the tail they support.
    pub latency_samples: usize,
    pub top_percentile: (f64, f64),
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failed_checks.is_empty()
    }

    /// The line the run contract asks for.
    pub fn result_line(&self) -> String {
        let mut metrics = Value::obj();
        for metric in &self.metrics {
            metrics.set(
                metric.name,
                Value::obj()
                    .with("value", metric.value)
                    .with("unit", metric.unit),
            );
        }
        Value::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .render()
    }

    pub fn to_json(&self) -> Value {
        Value::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with(
                "failed_ops_ratio",
                self.failed as f64 / self.attempted.max(1) as f64,
            )
            .with(
                "failed_checks",
                Value::Arr(
                    self.failed_checks
                        .iter()
                        .map(|c| Value::from(c.as_str()))
                        .collect(),
                ),
            )
            .with("latency_samples", self.latency_samples)
            .with("top_percentile", self.top_percentile.0)
            .with("top_percentile_us", self.top_percentile.1)
            .with(
                "metrics",
                Value::Arr(self.metrics.iter().map(Metric::to_json).collect()),
            )
    }

    /// Every metric by name with its unit, median, quartiles and count.
    pub fn print_table(&self) {
        println!(
            "## {} ({}) — attempted {}, failed {}, failed_ops_ratio {}",
            self.workload.name(),
            if self.traced {
                "traced run: per-layer"
            } else {
                "untraced: end-to-end"
            },
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        for metric in &self.metrics {
            if self.traced {
                println!(
                    "  {:<46} {:>16.4} {}",
                    metric.name, metric.value, metric.unit
                );
            } else {
                let (q1, q3) = stats::quartiles(&metric.samples);
                println!(
                    "  {:<22} {:>14.4} {:<6} IQR [{:.4}, {:.4}] over n={} trials",
                    metric.name,
                    metric.value,
                    metric.unit,
                    q1,
                    q3,
                    metric.samples.len()
                );
            }
        }
        if !self.traced {
            println!(
                "  op latency: {} pooled samples; highest supported percentile p{} = {:.3} us",
                self.latency_samples, self.top_percentile.0, self.top_percentile.1
            );
        }
        for check in &self.failed_checks {
            println!("  CHECK FAILED: {check}");
        }
    }
}

fn pooled(trials: &[TrialResult]) -> Vec<f64> {
    stats::sorted(
        trials
            .iter()
            .flat_map(|t| t.latencies_ns.iter().copied())
            .collect(),
    )
}

fn collect_failures(label: &str, trial: &TrialResult, into: &mut Vec<String>) {
    for check in &trial.failed_checks {
        into.push(format!("{label}: {check}"));
    }
}

/// The untraced run: warm-up, then alternating native/NVX trial pairs; each
/// end-to-end value is the median over the measured trials of that trial's
/// own value (a trial's p99 is well determined by its ≥ 2k samples; the
/// median over trials then shrugs off a disturbed trial, which a percentile
/// of the pooled samples does not).  The pooled samples still name the
/// highest percentile the whole run supports.
pub fn run_end_to_end(
    ctx: &Context,
    workload: Workload,
    seed: u64,
    seconds: u64,
    smoke: bool,
) -> Result<RunReport, String> {
    let size = workload.size_for(seconds);
    let started = Instant::now();
    let mut failed_checks = Vec::new();
    if !smoke {
        for arm in [Arm::Native, Arm::Nvx] {
            let warm = run_trial(
                ctx,
                &spec(ctx, workload, arm, seed, WARM_UP_TRIAL, (size / 4).max(1)),
            )?;
            collect_failures(
                &format!("warm-up {}", arm.name()),
                &warm,
                &mut failed_checks,
            );
        }
    }
    let budget = Duration::from_secs(seconds);
    let (mut native, mut nvx) = (Vec::new(), Vec::new());
    let mut pair_time = Duration::ZERO;
    let mut pairs = 0u64;
    let (min_pairs, max_pairs) = if smoke { (1, 1) } else { workload.pairs() };
    while pairs < min_pairs || (pairs < max_pairs && started.elapsed() + pair_time <= budget) {
        let pair_started = Instant::now();
        // Alternate which arm goes first so slow drift hits both alike.
        let order = if pairs.is_multiple_of(2) {
            [Arm::Native, Arm::Nvx]
        } else {
            [Arm::Nvx, Arm::Native]
        };
        for arm in order {
            let mut trial_spec = spec(ctx, workload, arm, seed, pairs, size);
            trial_spec.verify_journal = arm == Arm::Nvx && pairs == 0;
            let result = run_trial(ctx, &trial_spec)?;
            collect_failures(
                &format!("{} trial {pairs}", arm.name()),
                &result,
                &mut failed_checks,
            );
            if arm == Arm::Native {
                native.push(result)
            } else {
                nvx.push(result)
            }
        }
        pair_time = pair_started.elapsed();
        pairs += 1;
    }

    // Whole-run mechanism assertion (the issue's ">= 40 joiners per run").
    if workload == Workload::PayloadJournaled && !smoke {
        let attaches: f64 = nvx.iter().map(|t| t.counter("fleet_attaches")).sum();
        if attaches < 40.0 {
            failed_checks.push(format!("run: only {attaches} joiners attached (< 40)"));
        }
    }

    let per_trial = |f: &dyn Fn(&TrialResult) -> f64| -> Vec<f64> { nvx.iter().map(f).collect() };
    let nvx_pool = pooled(&nvx);
    let mut metrics = Vec::new();
    for def in END_TO_END {
        let samples = match def.name {
            "ops_per_sec" => per_trial(&TrialResult::ops_per_sec),
            // Trial i of both arms ran the same input back to back.
            "overhead_ratio" => nvx
                .iter()
                .zip(&native)
                .map(|(n, b)| n.latency_us(50.0) / b.latency_us(50.0).max(1e-9))
                .collect(),
            "op_latency_p50_us" => per_trial(&|t| t.latency_us(50.0)),
            "op_latency_p99_us" => per_trial(&|t| t.latency_us(99.0)),
            "cpu_ms_per_kop" => per_trial(&TrialResult::cpu_ms_per_kop),
            "peak_rss_mib" => per_trial(&|t| t.peak_rss_mib),
            "setup_s" => per_trial(&|t| t.setup_s),
            other => unreachable!("end-to-end metric {other} has no source"),
        };
        let value = match def.name {
            // Ratio of the two arms' medians, not the median of per-pair
            // ratios: trial-to-trial noise here is independent between the
            // arms, so a per-pair ratio carries both arms' noise while each
            // median has already shed its own.
            "overhead_ratio" => {
                let p50 = |trials: &[TrialResult]| {
                    stats::median(
                        &trials
                            .iter()
                            .map(|t| t.latency_us(50.0))
                            .collect::<Vec<_>>(),
                    )
                };
                p50(&nvx) / p50(&native).max(1e-9)
            }
            _ => stats::median(&samples),
        };
        metrics.push(Metric {
            name: def.name,
            unit: def.unit,
            value,
            samples,
        });
    }
    let top = stats::top_percentile(nvx_pool.len());
    Ok(RunReport {
        workload,
        traced: false,
        attempted: nvx.iter().map(|t| t.attempted).sum::<u64>().max(1),
        failed: nvx.iter().chain(&native).map(|t| t.failed).sum(),
        failed_checks,
        metrics,
        latency_samples: nvx_pool.len(),
        top_percentile: (top, stats::percentile_sorted(&nvx_pool, top) / 1e3),
    })
}

/// The traced run: one trial per configuration, each in its own child, plus
/// the micro-timings; produces every per-layer metric.
pub fn run_per_layer(
    ctx: &Context,
    workload: Workload,
    seed: u64,
    seconds: u64,
) -> Result<RunReport, String> {
    // A dozen children share the budget; the traced ones record a span per
    // syscall, so every child runs a third of a measured trial's size to
    // bound memory.
    let size = (workload.size_for(seconds) / 3).max(1);
    let mut failed_checks = Vec::new();
    let mut run_one = |workload: Workload,
                       size: u64,
                       arm: Arm,
                       traced: bool,
                       obs_off: bool|
     -> Result<TrialResult, String> {
        let mut trial_spec = spec(ctx, workload, arm, seed, 0, size);
        trial_spec.traced = traced;
        trial_spec.obs_off = obs_off;
        let result = run_trial(ctx, &trial_spec)?;
        let label = format!(
            "{} {}{}{}",
            workload.name(),
            arm.name(),
            if traced { " traced" } else { "" },
            if obs_off { " obs-off" } else { "" }
        );
        collect_failures(&label, &result, &mut failed_checks);
        Ok(result)
    };
    let mut run = |arm, traced, obs_off| run_one(workload, size, arm, traced, obs_off);
    // The two overhead percentages are differences between whole trials,
    // so each side is the median of three, interleaved.
    let (mut plain, mut quiet) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        plain.push(run(Arm::Nvx, false, false)?);
        quiet.push(run(Arm::Nvx, false, true)?);
    }
    let median_rate = |trials: &[TrialResult]| {
        stats::median(
            &trials
                .iter()
                .map(TrialResult::ops_per_sec)
                .collect::<Vec<_>>(),
        )
    };
    let (untraced_rate, obs_off_rate) = (median_rate(&plain), median_rate(&quiet));
    let untraced = plain.swap_remove(0);
    let alone_untraced = run(Arm::Nvx0, false, false)?;
    let native = run(Arm::Native, true, false)?;
    let alone = run(Arm::Nvx0, true, false)?;
    let traced = run(Arm::Nvx, true, false)?;
    let micro = run(Arm::Micro, false, false)?;
    // Layers this workload never executes are still timed, by a short probe
    // (the smoke-sized trial of the workload that does execute them), so a
    // layer's *timing* reads the same kind of number on every run; counts
    // stay the workload's own and read 0 where the layer did not run.
    let mut layer_source = |owner: Workload, own: &TrialResult, traced: bool| {
        if workload == owner {
            Ok(own.clone())
        } else {
            run_one(owner, owner.size_for(2), Arm::Nvx, traced, false)
        }
    };
    let failover = layer_source(Workload::KvFailover, &untraced, false)?;
    let fleet = layer_source(Workload::PayloadJournaled, &untraced, false)?;
    let shard = layer_source(Workload::HttpdOpenSharded, &traced, true)?;

    let sharded = workload == Workload::HttpdOpenSharded;
    let pct_slower = |slow: f64, fast: f64| (fast - slow) / fast.max(1e-9) * 100.0;
    let value = |name: &str| -> f64 {
        let kernel_ns = native.extra("v0.syscall_p50_ns");
        let capture_ns = traced.extra("v0.syscall_p50_ns");
        match name {
            "failover_gap_us" => stats::median(&failover.extras.nums("trigger_ns")) / 1e3,
            "joiner_catch_up_ms" | "core.fleet.catch_up_ms" => {
                stats::median(&fleet.extras.nums("catch_up_ms"))
            }
            "max_rate_under_slo_rps" => untraced.extra("max_rate_under_slo_rps"),
            "kernel.syscall_ns" => kernel_ns,
            "core.monitor.intercept_only_ns" => alone.extra("v0.syscall_p50_ns"),
            "core.monitor.leader_capture_ns" => capture_ns,
            "core.monitor.leader_self_ns" => capture_ns - kernel_ns,
            "core.monitor.follower_replay_ns" => traced.extra("v1.syscall_p50_ns"),
            "core.monitor.follower_busy_share" => traced.extra("v1.busy_share"),
            "core.monitor.log_distance_p50_events" => untraced.extra("log_distance_p50"),
            "core.monitor.log_distance_max_events" => untraced.extra("log_distance_max"),
            "core.monitor.publish_gate_wait_p99_ns" => untraced.counter("gate_wait_p99_ns"),
            "core.monitor.fast_path_hits_per_kop" => {
                untraced.per_kop(untraced.counter("fast_path_hits"))
            }
            "core.monitor.hash_mismatches" => untraced.counter("hash_mismatches"),
            "core.monitor.follower_copy_bytes_per_op" => {
                untraced.counter("follower_copy_bytes") / untraced.ops().max(1) as f64
            }
            "core.monitor.copy_bytes_saved_per_op" => {
                untraced.counter("follower_copy_bytes_saved") / untraced.ops().max(1) as f64
            }
            "core.coordinator.launch_ms" => untraced.extra("launch_ms"),
            // What the crash-triggering request takes beyond an ordinary
            // one, from outside: obs records `promote_latency_nanos` only
            // for upgrade hand-overs, never on this path (README).
            "core.coordinator.promote_ms" => {
                (stats::median(&failover.extras.nums("trigger_ns")) / 1e3
                    - failover.latency_us(50.0))
                    / 1e3
            }
            "core.coordinator.promotions" => untraced.extra("promotions"),
            "core.coordinator.discarded_followers" => untraced.extra("discarded_followers"),
            "core.fleet.attach_ms" => stats::median(&fleet.extras.nums("attach_ms")),
            "core.fleet.attaches" => untraced.counter("fleet_attaches"),
            "core.fleet.detaches" => untraced.counter("fleet_detaches"),
            "core.fleet.rearms" => untraced.extra("rearms"),
            "core.fleet.checkpoint_chain_len" => untraced.extra("checkpoint_chain_len"),
            "core.fleet.compacted_records" => untraced.extra("compacted_records"),
            "core.shard.capture_ns" => shard.extra("v0.syscall_p50_ns"),
            "core.shard.replay_ns" => shard.extra("v1.syscall_p50_ns"),
            "core.shard.lane_balance" => untraced.extra("lane_balance"),
            "core.shard.converged" => untraced.extra("shard_converged"),
            // On the sharded plane the lanes' RingStats are reachable; the
            // single-ring plane only exposes the obs gate-wait count.
            "ring.producer_waits_per_kop" if sharded => {
                untraced.per_kop(untraced.extra("producer_waits"))
            }
            "ring.producer_waits_per_kop" => untraced.per_kop(untraced.counter("gate_waits")),
            "ring.shmem.arena_mib" if workload == Workload::PayloadJournaled => {
                untraced.extra("arena_mib")
            }
            "ring.journal.segments" if workload == Workload::PayloadJournaled => {
                untraced.extra("journal_rotations") + 1.0
            }
            "ring.journal.segments" => 0.0,
            "obs.hot_overhead_pct" => pct_slower(untraced_rate, obs_off_rate),
            "apps.syscalls_per_request" | "apps.server_self_us" => traced.extra(name),
            "bench.tracing_overhead_pct" => pct_slower(traced.ops_per_sec(), untraced_rate),
            "bench.generator_late_ratio" => untraced.extra("late_ratio"),
            "bench.backlog_end" => untraced.extra("backlog_end"),
            "trace.untraced_ops_per_sec" => untraced_rate,
            "trace.traced_ops_per_sec" => traced.ops_per_sec(),
            "trace.intercept_only_ops_per_sec" => alone_untraced.ops_per_sec(),
            "trace.native_ops_per_sec" => native.ops_per_sec(),
            "trace.untraced_op_latency_p50_us" => untraced.latency_us(50.0),
            "trace.traced_op_latency_p50_us" => traced.latency_us(50.0),
            "trace.spans_recorded" => traced.extra("spans_recorded"),
            micro_name => micro.extra(micro_name),
        }
    };
    let metrics = PER_LAYER
        .iter()
        .map(|def| {
            let v = value(def.name);
            Metric {
                name: def.name,
                unit: def.unit,
                value: v,
                samples: vec![v],
            }
        })
        .collect();

    // Mechanism-fires assertions that need the counters.
    if workload == Workload::SyscallDense {
        if untraced.counter("fast_path_hits") <= 0.0 {
            failed_checks.push("syscall-dense: divergence fast path never hit".into());
        }
        if untraced.counter("follower_copy_bytes") != 0.0 {
            failed_checks.push(format!(
                "syscall-dense: follower copied {} payload bytes (zero-copy replay expected)",
                untraced.counter("follower_copy_bytes")
            ));
        }
    }
    for (label, trial) in [("untraced", &untraced), ("traced", &traced)] {
        if trial.counter("hash_mismatches") != 0.0 {
            failed_checks.push(format!(
                "{label}: {} divergence hash mismatches",
                trial.counter("hash_mismatches")
            ));
        }
    }
    let all: Vec<&TrialResult> = [
        &untraced,
        &alone_untraced,
        &native,
        &alone,
        &traced,
        &micro,
        &failover,
        &fleet,
        &shard,
    ]
    .into_iter()
    .chain(&plain)
    .chain(&quiet)
    .collect();
    let latencies = &untraced.latencies_ns;
    let top = stats::top_percentile(latencies.len());
    Ok(RunReport {
        workload,
        traced: true,
        attempted: all.iter().map(|t| t.attempted).sum::<u64>().max(1),
        failed: all.iter().map(|t| t.failed).sum(),
        failed_checks,
        metrics,
        latency_samples: latencies.len(),
        top_percentile: (top, stats::percentile_sorted(latencies, top) / 1e3),
    })
}

/// nproc, commit, rustc, NVX configuration and journal filesystem.
pub fn environment(out_dir: &Path) -> Value {
    let output = |program: &str, args: &[&str]| -> String {
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let (ring_capacity, wait_strategy) = crate::adapter::default_ring();
    Value::obj()
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        )
        // A driver checkout is not a git repository; "unknown" there.
        .with("commit", output("git", &["rev-parse", "--short", "HEAD"]))
        .with("rustc", output("rustc", &["--version"]))
        .with("followers", 1u64)
        .with("ring_capacity", ring_capacity)
        .with("wait_strategy", format!("{wait_strategy:?}"))
        .with("sharded_lanes", 2u64)
        .with("reference_rate_rps", REFERENCE_RATE)
        .with("journal_dir", out_dir.display().to_string())
        .with("journal_filesystem", crate::procfs::filesystem_of(out_dir))
        .with("journal_fsync", false)
}
