//! The benchmark's API surface: the ONLY module that names a product crate.
//!
//! Everything else in `benchmark/` imports from here, so when a later PR
//! moves or renames a product entry point (ROADMAP "one data plane", "bench
//! harness") this is the one file to edit — and the list below, mirrored in
//! README.md, is what such a PR must keep source-compatible or re-point.
//! `varan-bench`, `varan-sim` and `varan-baselines` are deliberately absent.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

pub use varan_apps::servers::httpd::HttpServer;
pub use varan_apps::servers::kvstore::KvServer;
pub use varan_apps::servers::ServerConfig;
pub use varan_core::program::run_native;
pub use varan_core::{
    FleetController, NvxReport, ProgramExit, ShardedReport, SyscallInterface, VersionProgram,
};
pub use varan_kernel::fs::flags;
pub use varan_kernel::net::Endpoint;
pub use varan_kernel::syscall::{SyscallOutcome, SyscallRequest};
pub use varan_kernel::{Kernel, Sysno};
pub use varan_ring::crc32c::crc32c;
pub use varan_ring::{
    Event, EventJournal, EventKind, JournalConfig, JournalRecord, PoolAllocator, RingBuffer,
    WaitLock, WaitStrategy,
};

use varan_core::{FleetConfig, NvxConfig, NvxSystem, RunningNvx, ShardedConfig, ShardedNvx};

/// Every NVX arm runs the product's defaults (ring 256, `Block`, 64 MiB
/// pool): the benchmark does no tuning of its own.
fn default_config() -> NvxConfig {
    NvxConfig::default()
}

/// Ring capacity and wait strategy of the default configuration, for the
/// environment stamp and for sizing the micro-timings like the real ring.
pub fn default_ring() -> (usize, WaitStrategy) {
    let config = default_config();
    (config.ring_capacity, config.wait_strategy)
}

/// A pool allocator configured like the one `NvxSystem::launch` creates.
pub fn default_pool() -> PoolAllocator {
    PoolAllocator::new(default_config().pool)
}

/// A launched single-ring execution (leader = `versions[0]`).
pub struct Running(RunningNvx);

/// Launches `versions` on the single-ring plane; `journal` turns the
/// elastic fleet on (every event journaled under that directory).
pub fn launch(
    kernel: &Kernel,
    versions: Vec<Box<dyn VersionProgram>>,
    journal: Option<(&Path, usize)>,
) -> Result<Running, String> {
    let mut config = default_config();
    if let Some((dir, segment_records)) = journal {
        let mut fleet = FleetConfig::new(dir).with_auto_rearm(false);
        fleet.journal = fleet.journal.with_segment_records(segment_records);
        config = config.with_fleet(fleet);
    }
    NvxSystem::launch(kernel, versions, config)
        .map(Running)
        .map_err(|e| format!("NvxSystem::launch: {e}"))
}

impl Running {
    pub fn fleet(&self) -> Option<FleetController> {
        self.0.fleet()
    }

    pub fn wait(self) -> NvxReport {
        self.0.wait()
    }
}

/// A launched sharded execution.
pub struct RunningSharded(ShardedNvx);

/// Ring statistics summed over the lanes of a sharded plane.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneWaits {
    pub producer_waits: u64,
    pub consumer_waits: u64,
}

pub fn launch_sharded(
    kernel: &Kernel,
    versions: Vec<Box<dyn VersionProgram>>,
    lanes: usize,
) -> Result<RunningSharded, String> {
    ShardedNvx::launch(kernel, versions, &ShardedConfig::new(lanes))
        .map(RunningSharded)
        .map_err(|e| format!("ShardedNvx::launch: {e}"))
}

impl RunningSharded {
    /// Waits for the run and returns its report plus the lanes' `RingStats`.
    pub fn wait(self) -> (ShardedReport, LaneWaits) {
        let plane = self.0.plane();
        let report = self.0.wait();
        let mut waits = LaneWaits::default();
        for lane in 0..plane.len() {
            let stats = plane.shard(lane).ring().stats();
            waits.producer_waits += stats.producer_waits;
            waits.consumer_waits += stats.consumer_waits;
        }
        (report, waits)
    }
}

/// The native arm of a server workload: `run_native` on its own thread, so
/// the caller can drive a client against it.
pub fn spawn_native(
    kernel: &Kernel,
    mut program: Box<dyn VersionProgram>,
) -> std::thread::JoinHandle<ProgramExit> {
    let kernel = kernel.clone();
    std::thread::spawn(move || run_native(&kernel, program.as_mut()).0)
}

/// Connects to `port`, retrying until the server listens.
pub fn connect(kernel: &Kernel, port: u16) -> Option<Endpoint> {
    varan_apps::clients::connect_retry(kernel, port, Duration::from_secs(10))
}

/// The counters the benchmark reads from the process-wide telemetry
/// registry, by the name the child reports them under (every trial is its
/// own process, so the registry holds exactly one run; ring- and
/// kernel-level sites report only there).  A renamed obs field is a
/// one-line fix here.
pub fn obs_counters() -> Vec<(&'static str, u64)> {
    let snap = varan_obs::global().snapshot();
    vec![
        ("fast_path_hits", snap.divergence_fast_path_hits),
        ("hash_mismatches", snap.divergence_hash_mismatches),
        ("follower_copy_bytes", snap.follower_copy_bytes),
        ("follower_copy_bytes_saved", snap.follower_copy_bytes_saved),
        ("fleet_attaches", snap.fleet_attaches),
        ("fleet_detaches", snap.fleet_detaches),
        ("promotions", snap.promotions),
        ("gate_waits", snap.publish_gate_wait_nanos.count),
        (
            "gate_wait_p99_ns",
            snap.publish_gate_wait_nanos.quantile(0.99),
        ),
        ("syscalls_executed", snap.syscalls_executed),
    ]
}

/// How long `rounds` calls of `Registry::snapshot()` take.
pub fn time_obs_snapshots(rounds: u32) -> Duration {
    let started = std::time::Instant::now();
    for _ in 0..rounds {
        std::hint::black_box(varan_obs::global().snapshot());
    }
    started.elapsed()
}

/// Switches the hot-path telemetry on or off (for `obs.hot_overhead_pct`).
pub fn set_obs_enabled(enabled: bool) {
    varan_obs::set_enabled(enabled);
}

/// `Kernel::checkpoint` of a fresh process on `kernel`, timed by the caller.
pub fn checkpoint(kernel: &Kernel) -> bool {
    let pid = kernel.spawn_process("bench-checkpoint");
    kernel
        .checkpoint(pid, 0, &std::collections::HashMap::new())
        .is_ok()
}

/// Opens (or reopens, scrubbing) a journal under `dir`.
pub fn open_journal(dir: &Path, segment_records: usize) -> Result<Arc<EventJournal>, String> {
    EventJournal::open(JournalConfig::new(dir).with_segment_records(segment_records))
        .map(Arc::new)
        .map_err(|e| format!("EventJournal::open: {e}"))
}
