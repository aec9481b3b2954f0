//! The `figures` binary: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p varan-bench --bin figures -- --all
//! cargo run --release -p varan-bench --bin figures -- --fig4 --fig5
//! cargo run --release -p varan-bench --bin figures -- --all --full
//! ```
//!
//! Without `--full` the workloads are scaled down so the whole suite runs in
//! a few minutes on a laptop; `--full` uses larger workloads.

use varan_bench::{
    comparison, explorebench, microbench, report, scenarios, servers, simbench, spec,
    upgradebench, Scale,
};

#[derive(Debug, Default)]
struct Options {
    fig4: bool,
    fig5: bool,
    fig6: bool,
    fig7: bool,
    fig8: bool,
    table1: bool,
    table2: bool,
    failover: bool,
    multirev: bool,
    sanitize: bool,
    recreplay: bool,
    fig_upgrade: bool,
    obs_dump: bool,
    sim_sweep: bool,
    fig_explore: bool,
    check_explore: bool,
    replay_plan: Option<String>,
    explore_plans: u64,
    check_upgrade: bool,
    check_sim: bool,
    sim_seeds: u64,
    sim_base_seed: u64,
    full: bool,
}

impl Options {
    fn parse(args: &[String]) -> Options {
        let mut options = Options::default();
        options.sim_seeds = 1_000;
        options.explore_plans = 48;
        let mut any = false;
        let mut sim_values_given = false;
        let mut plans_given = false;
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            // Value-taking flags first.
            match arg.as_str() {
                "--plans" => {
                    let Some(value) = args.next().and_then(|v| v.parse::<u64>().ok()) else {
                        eprintln!("{arg} requires a numeric value");
                        std::process::exit(2);
                    };
                    options.explore_plans = value.max(1);
                    plans_given = true;
                    continue;
                }
                "--replay-plan" => {
                    let Some(value) = args.next() else {
                        eprintln!("{arg} requires a plan file path");
                        std::process::exit(2);
                    };
                    options.replay_plan = Some(value.clone());
                    any = true;
                    continue;
                }
                "--seeds" | "--sim-seed" => {
                    let Some(value) = args.next().and_then(|v| v.parse::<u64>().ok()) else {
                        eprintln!("{arg} requires a numeric value");
                        std::process::exit(2);
                    };
                    if arg == "--seeds" {
                        options.sim_seeds = value.max(1);
                    } else {
                        options.sim_base_seed = value;
                    }
                    sim_values_given = true;
                    continue;
                }
                _ => {}
            }
            match arg.as_str() {
                "--fig4" => options.fig4 = true,
                "--fig5" => options.fig5 = true,
                "--fig6" => options.fig6 = true,
                "--fig7" => options.fig7 = true,
                "--fig8" => options.fig8 = true,
                "--table1" => options.table1 = true,
                "--table2" => options.table2 = true,
                "--failover" => options.failover = true,
                "--multirev" => options.multirev = true,
                "--sanitize" => options.sanitize = true,
                "--recreplay" => options.recreplay = true,
                "--fig-upgrade" => options.fig_upgrade = true,
                "--obs-dump" => options.obs_dump = true,
                "--sim-sweep" => options.sim_sweep = true,
                "--fig-explore" => options.fig_explore = true,
                "--check-explore" => options.check_explore = true,
                // Action flags: a standalone `--check-*` must validate the
                // existing file, not regenerate it via the default subset.
                "--check-upgrade" => options.check_upgrade = true,
                "--check-sim" => options.check_sim = true,
                "--full" => {
                    options.full = true;
                    continue;
                }
                "--all" => {
                    options.fig4 = true;
                    options.fig5 = true;
                    options.fig6 = true;
                    options.fig7 = true;
                    options.fig8 = true;
                    options.table1 = true;
                    options.table2 = true;
                    options.failover = true;
                    options.multirev = true;
                    options.sanitize = true;
                    options.recreplay = true;
                    options.fig_upgrade = true;
                }
                "--help" | "-h" => {
                    println!(
                        "usage: figures [--all] [--full] [--fig4 --fig5 --fig6 --fig7 --fig8]\n\
                         \x20              [--table1 --table2] [--failover --multirev --sanitize --recreplay]\n\
                         \x20              [--fig-upgrade] [--check-upgrade] [--obs-dump]\n\
                         \x20              [--sim-sweep [--seeds N] [--sim-seed S]] [--check-sim]\n\
                         \x20              [--fig-explore [--plans N]] [--check-explore]\n\
                         \x20              [--replay-plan FILE]\n\
                         --sim-sweep runs the deterministic simulation sweep (N seeded fault\n\
                         scenarios, default 1000 starting at S, default 0) and writes {sim};\n\
                         --check-sim validates {sim} and exits non-zero on any failing seed or\n\
                         any same-seed reproducibility mismatch (see docs/SIMULATION.md).\n\
                         --fig-explore runs the coverage-guided fault explorer against an\n\
                         equal-plan-count random baseline (N plans, default 48), the\n\
                         adversarial-client catalog and a CO-free open-loop latency run on\n\
                         all four servers, and writes {explore}; --check-explore validates\n\
                         {explore} (guided >= 3x the baseline's distinct schedules, composed\n\
                         plans >= 1%, zero mismatches/failures, all 16 adversarial cells).\n\
                         --replay-plan FILE replays a varan-plan/v1 file (as emitted in\n\
                         \"failure_plans\") twice and exits non-zero on any invariant\n\
                         failure or reproducibility mismatch.\n\
                         --fig-upgrade drives the 8-revision Redis rolling upgrade under live\n\
                         traffic and writes {upgrade}; --check-upgrade validates {upgrade}\n\
                         (zero failed client requests, >= 6 promotions, the bad revision\n\
                         rolled back).\n\
                         --obs-dump prints the process-global telemetry registry snapshot\n\
                         (JSON then prometheus text) after the requested figures have run.\n\
                         Wall-clock performance of the ring, journal, fleet, shard and\n\
                         telemetry layers is measured by `bash benchmark/run.sh`.",
                        upgrade = varan_bench::upgradebench::DEFAULT_PATH,
                        sim = varan_bench::simbench::DEFAULT_PATH,
                        explore = varan_bench::explorebench::DEFAULT_PATH,
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag `{other}` (try --help)");
                    std::process::exit(2);
                }
            }
            any = true;
        }
        if sim_values_given && !options.sim_sweep {
            // `--seeds`/`--sim-seed` without `--sim-sweep` would silently
            // run the default figure subset and leave a stale
            // BENCH_sim.json for a later --check-sim to bless.
            eprintln!("--seeds/--sim-seed only apply to --sim-sweep (try --help)");
            std::process::exit(2);
        }
        if plans_given && !options.fig_explore {
            eprintln!("--plans only applies to --fig-explore (try --help)");
            std::process::exit(2);
        }
        if !any {
            // Default: a representative quick subset.
            options.fig4 = true;
            options.table1 = true;
            options.fig5 = true;
        }
        options
    }

    fn scale(&self) -> Scale {
        if self.full {
            Scale::Full
        } else {
            Scale::Quick
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = Options::parse(&args);
    let scale = options.scale();
    let max_followers = if options.full { 6 } else { 3 };

    if options.table1 {
        println!("{}", report::render_table_1());
    }
    if options.fig4 {
        let iterations = if options.full { 10_000 } else { 1_000 };
        let results = microbench::figure_4(iterations);
        println!("{}", report::render_figure_4(&results));
    }
    if options.fig5 {
        let series = servers::figure_5(scale, max_followers);
        println!("{}", report::render_server_figure("Figure 5", &series));
    }
    if options.fig6 {
        let series = servers::figure_6(scale, max_followers);
        println!("{}", report::render_server_figure("Figure 6", &series));
    }
    if options.fig7 {
        let figure = spec::figure_7(scale, max_followers);
        println!("{}", report::render_spec_figure("Figure 7 (SPEC CPU2000)", &figure));
    }
    if options.fig8 {
        let figure = spec::figure_8(scale, max_followers);
        println!("{}", report::render_spec_figure("Figure 8 (SPEC CPU2006)", &figure));
    }
    if options.table2 {
        let rows = comparison::table_2(scale);
        println!("{}", report::render_table_2(&rows));
    }
    if options.failover {
        let redis = vec![
            scenarios::failover_redis(false),
            scenarios::failover_redis(true),
        ];
        println!(
            "{}",
            report::render_failover("§5.1 transparent failover — Redis revisions", &redis)
        );
        let lighttpd = vec![
            scenarios::failover_lighttpd(false),
            scenarios::failover_lighttpd(true),
        ];
        println!(
            "{}",
            report::render_failover("§5.1 transparent failover — Lighttpd 2437/2438", &lighttpd)
        );
    }
    if options.multirev {
        let results = scenarios::multi_revision();
        println!("{}", report::render_multi_revision(&results));
    }
    if options.sanitize {
        let result = scenarios::live_sanitization();
        println!("{}", report::render_sanitization(&result));
    }
    if options.recreplay {
        let operations = if options.full { 400 } else { 80 };
        let result = scenarios::record_replay(operations);
        println!("{}", report::render_record_replay(&result));
    }
    if options.fig_upgrade {
        let upgrade_report = upgradebench::run(scale);
        println!("{}", upgrade_report.render());
        match upgrade_report.write_to(upgradebench::DEFAULT_PATH) {
            Ok(()) => println!("wrote {}", upgradebench::DEFAULT_PATH),
            Err(err) => eprintln!(
                "warning: could not write {}: {err}",
                upgradebench::DEFAULT_PATH
            ),
        }
    }
    if options.obs_dump {
        let snapshot = varan_obs::global().snapshot();
        println!("{}", snapshot.to_json());
        println!("{}", snapshot.to_prometheus());
    }
    if options.sim_sweep {
        let sweep = simbench::run(options.sim_seeds, options.sim_base_seed);
        println!("{}", simbench::render(&sweep));
        match simbench::write_to(&sweep, simbench::DEFAULT_PATH) {
            Ok(()) => println!("wrote {}", simbench::DEFAULT_PATH),
            Err(err) => eprintln!(
                "warning: could not write {}: {err}",
                simbench::DEFAULT_PATH
            ),
        }
    }
    if options.fig_explore {
        let explore_report = explorebench::run(options.explore_plans, options.sim_base_seed);
        println!("{}", explorebench::render(&explore_report));
        match explorebench::write_to(&explore_report, explorebench::DEFAULT_PATH) {
            Ok(()) => println!("wrote {}", explorebench::DEFAULT_PATH),
            Err(err) => eprintln!(
                "warning: could not write {}: {err}",
                explorebench::DEFAULT_PATH
            ),
        }
    }
    if let Some(path) = &options.replay_plan {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("cannot read {path}: {err}");
                std::process::exit(1);
            }
        };
        let plan = match varan_sim::FaultPlan::decode(&text) {
            Ok(plan) => plan,
            Err(err) => {
                eprintln!("{path}: not a valid plan file: {err}");
                std::process::exit(1);
            }
        };
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
    if options.check_explore {
        match explorebench::validate_file(explorebench::DEFAULT_PATH) {
            Ok(()) => println!("{} OK", explorebench::DEFAULT_PATH),
            Err(err) => {
                eprintln!("BENCH_explore check failed: {err}");
                std::process::exit(1);
            }
        }
    }
    if options.check_upgrade {
        match upgradebench::validate_file(upgradebench::DEFAULT_PATH) {
            Ok(()) => println!("{} OK", upgradebench::DEFAULT_PATH),
            Err(err) => {
                eprintln!("BENCH_upgrade check failed: {err}");
                std::process::exit(1);
            }
        }
    }
    if options.check_sim {
        match simbench::validate_file(simbench::DEFAULT_PATH) {
            Ok(()) => println!("{} OK", simbench::DEFAULT_PATH),
            Err(err) => {
                eprintln!("BENCH_sim check failed: {err}");
                std::process::exit(1);
            }
        }
    }
}
