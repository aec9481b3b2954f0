//! One trial = one child process: a single workload × arm × trial index,
//! run from a cold process so the global telemetry registry, `VmHWM` and
//! set-up time belong to that trial alone.  The child prints one JSON line;
//! the parent (`orchestrate`) aggregates.

use std::path::PathBuf;

use crate::json::Value;
use crate::trace::{ClientRequest, Span};

/// The five workloads, in the order they are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SyscallDense,
    PayloadJournaled,
    KvClosed,
    HttpdOpenSharded,
    KvFailover,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::SyscallDense,
        Workload::PayloadJournaled,
        Workload::KvClosed,
        Workload::HttpdOpenSharded,
        Workload::KvFailover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SyscallDense => "syscall-dense",
            Workload::PayloadJournaled => "payload-journaled",
            Workload::KvClosed => "kv-closed",
            Workload::HttpdOpenSharded => "httpd-open-sharded",
            Workload::KvFailover => "kv-failover",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Measured trial pairs per run: at least the first, and up to the
    /// second while the next pair still fits the `--seconds` budget.  The
    /// open-loop workload runs twice as many, half as long: its p99 is the
    /// one number a single multi-millisecond stall of this VM's host can
    /// move, and the median over trials only ignores stalls while most
    /// trials miss them.
    pub fn pairs(self) -> (u64, u64) {
        match self {
            Workload::HttpdOpenSharded => (9, 13),
            _ => (5, 7),
        }
    }

    /// What `TrialSpec::size` counts for this workload, and how many per
    /// second of `--seconds` one measured trial gets.  The factors come from
    /// the prototype rates in README.md ("Sizing"): they put 5–7 alternating
    /// native/NVX trial pairs into the budget on the 2-core reference box.
    pub fn size_for(self, seconds: u64) -> u64 {
        match self {
            // syscalls per trial (rounded to whole blocks by the workload)
            Workload::SyscallDense => 140_000 * seconds,
            Workload::PayloadJournaled => 15_000 * seconds,
            // requests per connection (two connections per trial)
            Workload::KvClosed => 1_400 * seconds,
            // milliseconds per open-loop schedule unit (`httpd::phases`)
            Workload::HttpdOpenSharded => 11 * seconds,
            // failover rounds per trial
            Workload::KvFailover => 15 * seconds,
        }
    }
}

/// Which configuration a trial runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// `run_native`: no monitor at all.
    Native,
    /// Leader only (interception cost, nothing consumes the ring).
    Nvx0,
    /// Leader + one follower: the NVX arm of every end-to-end metric.
    Nvx,
    /// The layer micro-timings (no workload run).
    Micro,
}

impl Arm {
    pub fn name(self) -> &'static str {
        match self {
            Arm::Native => "native",
            Arm::Nvx0 => "nvx0",
            Arm::Nvx => "nvx",
            Arm::Micro => "micro",
        }
    }

    pub fn parse(name: &str) -> Option<Arm> {
        [Arm::Native, Arm::Nvx0, Arm::Nvx, Arm::Micro]
            .into_iter()
            .find(|a| a.name() == name)
    }

    pub fn followers(self) -> usize {
        usize::from(self == Arm::Nvx)
    }
}

/// Everything a child needs to know.
#[derive(Debug, Clone)]
pub struct TrialSpec {
    pub workload: Workload,
    pub arm: Arm,
    pub seed: u64,
    pub trial: u64,
    pub size: u64,
    /// Wrap every version in `TimedSys` and record spans.
    pub traced: bool,
    /// Run with the hot-path telemetry switched off.
    pub obs_off: bool,
    /// Reopen and read back the journal after the run (`payload-journaled`).
    pub verify_journal: bool,
    /// Scratch directory (journals, trace files) inside the checkout.
    pub out_dir: PathBuf,
    /// `trace::spawn_stamp()` taken by the parent just before spawning.
    pub spawned_unix_ns: u64,
}

impl TrialSpec {
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "child".to_owned(),
            "--workload".into(),
            self.workload.name().into(),
            "--arm".into(),
            self.arm.name().into(),
            "--seed".into(),
            self.seed.to_string(),
            "--trial".into(),
            self.trial.to_string(),
            "--size".into(),
            self.size.to_string(),
            "--out-dir".into(),
            self.out_dir.display().to_string(),
            "--spawned-at".into(),
            self.spawned_unix_ns.to_string(),
        ];
        for (flag, on) in [
            ("--traced", self.traced),
            ("--obs-off", self.obs_off),
            ("--verify-journal", self.verify_journal),
        ] {
            if on {
                args.push(flag.into());
            }
        }
        args
    }

    pub fn from_args(args: &[String]) -> Result<TrialSpec, String> {
        let value = |flag: &str| -> Result<&str, String> {
            args.iter()
                .position(|a| a == flag)
                .and_then(|at| args.get(at + 1))
                .map(String::as_str)
                .ok_or_else(|| format!("child: missing {flag}"))
        };
        let number = |flag: &str| -> Result<u64, String> {
            value(flag)?
                .parse()
                .map_err(|_| format!("child: bad {flag}"))
        };
        let has = |flag: &str| args.iter().any(|a| a == flag);
        Ok(TrialSpec {
            workload: Workload::parse(value("--workload")?).ok_or("child: unknown workload")?,
            arm: Arm::parse(value("--arm")?).ok_or("child: unknown arm")?,
            seed: number("--seed")?,
            trial: number("--trial")?,
            size: number("--size")?,
            traced: has("--traced"),
            obs_off: has("--obs-off"),
            verify_journal: has("--verify-journal"),
            out_dir: PathBuf::from(value("--out-dir")?),
            spawned_unix_ns: number("--spawned-at")?,
        })
    }
}

/// One output check or mechanism-fires assertion.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What a trial measured.  Times are nanoseconds since process start.
#[derive(Debug, Default)]
pub struct TrialOutcome {
    /// Operations attempted / failed (a failed output check fails the
    /// operations it covers).
    pub attempted: u64,
    pub failed: u64,
    /// When the first operation was issued and the last one completed.
    pub first_op_ns: u64,
    pub last_op_ns: u64,
    /// CPU time of load-generator threads other than the main thread (the
    /// child subtracts both from the process total: the client is not the
    /// system under test).
    pub generator_cpu_ns: u64,
    /// Per-operation latency samples.
    pub latencies_ns: Vec<f64>,
    pub checks: Vec<Check>,
    /// Workload-specific series and layer counters (flat name → number or
    /// array of numbers).
    pub extras: Vec<(String, Value)>,
    /// Traced runs only.
    pub requests: Vec<ClientRequest>,
    pub spans: Vec<Span>,
}

impl TrialOutcome {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.checks.push(Check {
            name: name.to_owned(),
            ok,
            detail: if ok { String::new() } else { detail() },
        });
    }

    pub fn extra(&mut self, name: &str, value: impl Into<Value>) {
        self.extras.push((name.to_owned(), value.into()));
    }
}
