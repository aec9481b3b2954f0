//! Always-on, lock-free telemetry plane for the VARAN reproduction.
//!
//! Varan's monitors are supposed to watch N versions *in production*; this
//! crate is the layer every other crate reports into so that a leader stall,
//! a follower falling a lap behind or a journal quarantine is visible while
//! the system runs, not only after a bench run happens to trip over it.
//!
//! Three pieces (docs/OBSERVABILITY.md has the full catalog):
//!
//! * **Metrics** ([`Metrics`]) — fixed-layout atomic counters, per-shard
//!   counter lanes, gauges and log₂-bucketed latency histograms.  The hot
//!   path is one relaxed `fetch_add`; snapshots ([`MetricsSnapshot`]) are
//!   read off-path and merge associatively, so per-shard snapshots fold
//!   into the same distribution a single global instance would have seen.
//! * **Tracepoints** ([`TraceRing`]) — a bounded in-memory ring of
//!   structured control-plane events (fleet attach/detach/promote, upgrade
//!   stages, scrub verdicts, shard cuts) stamped with a sequence number and
//!   a virtual-or-wall timestamp from whatever clock the host installs
//!   ([`Registry::install_clock`]).  Under the simulation harness the clock
//!   is virtual and the edges are scheduler-serialized, so same-seed runs
//!   reproduce bit-identical trace rings.
//! * **Registry** ([`Registry`]) — one `Metrics` + one `TraceRing` + the
//!   clock.  [`global()`] is the process-wide default every hot path reports
//!   to; isolated instances (`Registry::new()`) exist so deterministic
//!   simulation runs and exact-count tests never observe each other.
//!
//! The whole plane can be switched off ([`set_enabled`]) — the `benchmark/`
//! package measures instrumented-vs-uninstrumented workload throughput
//! through exactly this switch and reports the difference as
//! `obs.hot_overhead_pct`.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod metrics;
mod render;
mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, LazyLock, RwLock};

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Metrics, MetricsSnapshot, ShardedCounter,
    ShardedGauge, CAPTURE_SAMPLE_EVERY, HISTOGRAM_BUCKETS, MAX_SHARDS,
};
pub use render::SNAPSHOT_SCHEMA;
pub use trace::{
    tracepoint_index, TraceEvent, TraceRing, TraceSnapshot, TRACEPOINT_KINDS, TRACE_RING_CAPACITY,
};

/// The clock a registry stamps trace events with: nanoseconds on whatever
/// timeline the host runs (wall in production, virtual under simulation).
pub type ClockFn = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Master switch for the hot-path instrumentation.  Checked with one
/// relaxed load at each instrumented site; the overhead bench compares the
/// two positions.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns the hot-path instrumentation on or off (control plane only — the
/// trace ring and direct registry access ignore the switch).
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether the hot-path instrumentation is currently on.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One metrics + tracepoint domain.
///
/// The process-wide default is [`global()`]; isolated instances serve the
/// deterministic simulation (one registry per seeded run) and exact-count
/// tests.
pub struct Registry {
    /// The metric fields (public: instrumentation sites address them
    /// directly, e.g. `registry.metrics.events_published.add(shard, n)`).
    pub metrics: Metrics,
    trace: TraceRing,
    clock: RwLock<Option<ClockFn>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &"..")
            .field("trace_len", &self.trace.len())
            .finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates an empty, isolated registry with no clock installed
    /// (trace timestamps read 0 until [`install_clock`](Self::install_clock)).
    #[must_use]
    pub fn new() -> Self {
        Registry {
            metrics: Metrics::new(),
            trace: TraceRing::new(TRACE_RING_CAPACITY),
            clock: RwLock::new(None),
        }
    }

    /// Installs the timestamp source for trace events.  The coordinator
    /// installs its `ClockSource` here at launch, so simulated executions
    /// stamp virtual nanoseconds and production stamps wall nanoseconds.
    pub fn install_clock(&self, clock: ClockFn) {
        *self.clock.write().expect("obs clock lock") = Some(clock);
    }

    /// Removes the installed clock (timestamps return to 0).
    pub fn clear_clock(&self) {
        *self.clock.write().expect("obs clock lock") = None;
    }

    fn now_nanos(&self) -> u64 {
        match self.clock.read().expect("obs clock lock").as_ref() {
            Some(clock) => clock(),
            None => 0,
        }
    }

    /// Records a structured tracepoint: `kind` is a static label from the
    /// catalog (docs/OBSERVABILITY.md), `a`/`b` are its two operands.
    ///
    /// Control-plane rate only — takes the trace ring's mutex.
    pub fn trace(&self, kind: &'static str, a: u64, b: u64) {
        let timestamp = self.now_nanos();
        self.trace.record(kind, a, b, timestamp);
    }

    /// The trace ring.
    #[must_use]
    pub fn trace_ring(&self) -> &TraceRing {
        &self.trace
    }

    /// A coherent copy of every metric, taken off-path.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

static GLOBAL: LazyLock<Arc<Registry>> = LazyLock::new(|| Arc::new(Registry::new()));

/// The process-wide default registry every hot path reports to (and the
/// `/varan/metrics` endpoint serves).
#[must_use]
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// The default registry as a cloneable handle, for components that hold an
/// `Arc<Registry>` (the coordinator, the journal).
#[must_use]
pub fn global_arc() -> Arc<Registry> {
    Arc::clone(&GLOBAL)
}

/// The hot-path accessor: the global metrics, or `None` while the plane is
/// switched off.  One relaxed load; instrumentation sites write
/// `if let Some(m) = varan_obs::hot() { m.ring_publishes.add(1); }`.
#[inline]
#[must_use]
pub fn hot() -> Option<&'static Metrics> {
    if ENABLED.load(Ordering::Relaxed) {
        Some(&GLOBAL.metrics)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_is_shared_and_enabled_by_default() {
        assert!(enabled());
        let before = global().metrics.ring_publishes.get();
        hot().expect("enabled").ring_publishes.add(3);
        assert_eq!(global().metrics.ring_publishes.get(), before + 3);
    }

    #[test]
    fn disabling_hides_the_hot_path() {
        set_enabled(false);
        assert!(hot().is_none());
        set_enabled(true);
        assert!(hot().is_some());
    }

    #[test]
    fn isolated_registries_do_not_share_state() {
        let a = Registry::new();
        let b = Registry::new();
        a.metrics.promotions.add(1);
        assert_eq!(a.metrics.promotions.get(), 1);
        assert_eq!(b.metrics.promotions.get(), 0);
    }

    #[test]
    fn trace_timestamps_follow_the_installed_clock() {
        let registry = Registry::new();
        registry.trace("test.edge", 1, 2);
        registry.install_clock(Arc::new(|| 42));
        registry.trace("test.edge", 3, 4);
        let events = registry.trace_ring().snapshot().events;
        assert_eq!(events[0].timestamp_nanos, 0);
        assert_eq!(events[1].timestamp_nanos, 42);
        assert_eq!(events[1].seq, 1);
    }
}
