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

use varan_bench::{comparison, microbench, report, scenarios, servers, spec, Scale};

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
    obs_dump: bool,
    full: bool,
}

impl Options {
    fn parse(args: &[String]) -> Options {
        let mut options = Options::default();
        let mut any = false;
        for arg in args {
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
                "--obs-dump" => options.obs_dump = true,
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
                }
                "--help" | "-h" => {
                    println!(
                        "usage: figures [--all] [--full] [--fig4 --fig5 --fig6 --fig7 --fig8]\n\
                         \x20              [--table1 --table2] [--failover --multirev --sanitize --recreplay]\n\
                         \x20              [--obs-dump]\n\
                         --obs-dump prints the process-global telemetry registry snapshot\n\
                         (JSON then prometheus text) after the requested figures have run.\n\
                         Wall-clock performance of the ring, journal, fleet, shard and\n\
                         telemetry layers is measured by `bash benchmark/run.sh`. The\n\
                         simulation and exploration gates run under\n\
                         `cargo test --release -p varan-sim`, the rolling-upgrade gate\n\
                         under `cargo test --release --test live_upgrade`."
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
    if options.obs_dump {
        let snapshot = varan_obs::global().snapshot();
        println!("{}", snapshot.to_json());
        println!("{}", snapshot.to_prometheus());
    }
}
