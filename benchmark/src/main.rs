//! The repo's wall-clock benchmark (README.md in this directory).
//!
//! ```text
//! varan-benchmark --workload W --seed N --seconds S --trace 0|1   one run, contract mode
//! varan-benchmark [--seed N] [--seconds S]                         every workload, both modes; writes results
//! varan-benchmark --smoke                                          one short trial per workload, checks only
//! varan-benchmark compare A.json B.json                            per workload x metric verdicts
//! varan-benchmark manifest                                         prints BENCHMARK.json
//! varan-benchmark child ...                                        one trial (internal)
//! ```

mod adapter;
mod compare;
mod gen;
mod httpd;
mod json;
mod kv;
mod layers;
mod metrics;
mod micro;
mod orchestrate;
mod placement;
mod procfs;
mod rng;
mod stats;
mod synthetic;
mod trace;
mod trial;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Value;
use orchestrate::{Context, RunReport};
use trial::{Arm, TrialSpec, Workload};

/// One trial, in this (child) process; prints one JSON line.
fn child(args: &[String]) -> Result<(), String> {
    let spec = TrialSpec::from_args(args)?;
    std::fs::create_dir_all(&spec.out_dir)
        .map_err(|e| format!("{}: {e}", spec.out_dir.display()))?;
    if spec.obs_off {
        adapter::set_obs_enabled(false);
    }
    placement::pin_generator();
    let mut outcome = match (spec.arm, spec.workload) {
        (Arm::Micro, _) => micro::run(&spec),
        (_, Workload::SyscallDense | Workload::PayloadJournaled) => synthetic::run(&spec),
        (_, Workload::KvClosed | Workload::KvFailover) => kv::run(&spec),
        (_, Workload::HttpdOpenSharded) => httpd::run(&spec),
    };
    // A failed run-level check (unclean exit, discarded follower, mechanism
    // that never fired) fails every operation the run covered.
    if outcome.failed == 0 && outcome.checks.iter().any(|c| !c.ok) {
        outcome.failed = outcome.attempted;
    }
    // Accounting first: span analysis and printing are not the workload's.
    // The main thread is the load generator (or idle, on the synthetic
    // workloads); its CPU time and its helpers' is the client's, not the
    // system's.
    let generator_ms = (procfs::thread_cpu_ns() + outcome.generator_cpu_ns) as f64 / 1e6;
    let (cpu_ms, peak_rss_mib) = (
        procfs::process_cpu_ms() - generator_ms,
        procfs::peak_rss_mib(),
    );
    let counters = Value::Obj(
        adapter::obs_counters()
            .into_iter()
            .map(|(name, value)| (name.to_owned(), Value::from(value)))
            .collect(),
    );
    if spec.traced {
        layers::analyze(&spec, &mut outcome, &counters);
    }
    let checks = outcome
        .checks
        .iter()
        .map(|c| {
            Value::obj()
                .with("name", c.name.as_str())
                .with("ok", c.ok)
                .with("detail", c.detail.as_str())
        })
        .collect::<Vec<_>>();
    let line = Value::obj()
        .with("attempted", outcome.attempted)
        .with("failed", outcome.failed)
        .with("startup_ns", trace::startup_ns(spec.spawned_unix_ns))
        .with("first_op_ns", outcome.first_op_ns)
        .with("last_op_ns", outcome.last_op_ns)
        .with("cpu_ms", cpu_ms)
        .with("peak_rss_mib", peak_rss_mib)
        .with("checks", checks)
        .with("extras", Value::Obj(std::mem::take(&mut outcome.extras)))
        .with("counters", counters)
        .with("latencies_ns", outcome.latencies_ns.as_slice());
    println!("{}", line.render());
    Ok(())
}

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    smoke: bool,
    out_dir: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS,
        trace: None,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                options.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => options.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => options.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => options.trace = Some(value()? != "0"),
            "--out-dir" => options.out_dir = PathBuf::from(value()?),
            "--smoke" => options.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if options.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(options)
}

fn run(args: &[String]) -> Result<bool, String> {
    let options = parse_options(args)?;
    std::fs::create_dir_all(&options.out_dir)
        .map_err(|e| format!("{}: {e}", options.out_dir.display()))?;
    let ctx = Context {
        exe: std::env::current_exe().map_err(|e| e.to_string())?,
        out_dir: options.out_dir.clone(),
        verbose: true,
    };
    let env = orchestrate::environment(&options.out_dir);
    eprintln!("environment: {}", env.render());

    if options.smoke {
        // Checks only: one short pair per workload, no metrics printed.
        let mut ok = true;
        for workload in options.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]) {
            let report = orchestrate::run_end_to_end(&ctx, workload, options.seed, 2, true)?;
            println!(
                "smoke {:<20} {} ({} attempted, {} failed)",
                workload.name(),
                if report.correct() { "ok" } else { "FAILED" },
                report.attempted,
                report.failed
            );
            for check in &report.failed_checks {
                println!("  CHECK FAILED: {check}");
            }
            ok &= report.correct();
        }
        return Ok(ok);
    }

    let one = |workload: Workload, traced: bool| -> Result<RunReport, String> {
        let report = if traced {
            orchestrate::run_per_layer(&ctx, workload, options.seed, options.seconds)?
        } else {
            orchestrate::run_end_to_end(&ctx, workload, options.seed, options.seconds, false)?
        };
        report.print_table();
        Ok(report)
    };

    if let Some(workload) = options.workload {
        // Contract mode: one workload, one mode, result object last.
        let traced = options.trace.unwrap_or(false);
        let report = one(workload, traced)?;
        // Per-trial samples for whoever wants to look behind the medians.
        let path = options.out_dir.join(format!(
            "run-{}-trace{}-seed{}.json",
            workload.name(),
            u8::from(traced),
            options.seed
        ));
        std::fs::write(&path, report.to_json().render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{}", report.result_line());
        return Ok(report.correct());
    }

    // Full mode: everything, then the results file.
    let mut ok = true;
    let mut workloads = Value::obj();
    for workload in Workload::ALL {
        let end_to_end = one(workload, false)?;
        let per_layer = one(workload, true)?;
        ok &= end_to_end.correct() && per_layer.correct();
        workloads.set(
            workload.name(),
            Value::obj()
                .with("why", metrics::why(workload))
                .with("end_to_end", end_to_end.to_json())
                .with("per_layer", per_layer.to_json()),
        );
    }
    let results = Value::obj()
        .with("schema", "varan-benchmark/v1")
        .with("seed", options.seed)
        .with("seconds", options.seconds)
        .with("environment", env)
        .with("workloads", workloads);
    let path = options
        .out_dir
        .join(format!("results-seed{}.json", options.seed));
    std::fs::write(&path, results.render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(ok)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    trace::init_epoch();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("child") => child(&args[1..]).map(|()| true),
        Some("manifest") => {
            print!("{}", metrics::manifest_text());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => load(a)
                .and_then(|a| Ok((a, load(b)?)))
                .map(|(a, b)| compare::compare(&a, &b).0 == 0),
            _ => Err("usage: compare A.json B.json".into()),
        },
        _ => run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("varan-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
