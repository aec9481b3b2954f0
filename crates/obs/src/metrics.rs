//! The metric primitives and the fixed metric catalog.
//!
//! Everything here is a plain atomic with **relaxed** ordering: metrics are
//! monotone statistics, not synchronization — no reader infers
//! happens-before from them.  The hot-path contract is a single relaxed
//! `fetch_add` per counted event; histograms cost a handful of relaxed
//! operations and are therefore *sampled* at the hottest sites (the caller
//! decides the sampling interval, see docs/OBSERVABILITY.md).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of shard lanes a [`ShardedCounter`]/[`ShardedGauge`] carries.
/// Shard indices are masked into this range, so a plane wider than
/// `MAX_SHARDS` folds extra lanes together rather than overflowing.
pub const MAX_SHARDS: usize = 16;

/// Number of log₂ buckets per histogram: bucket 0 holds exact zeros and
/// bucket *i* holds values with *i* significant bits, i.e. the range
/// `[2^(i-1), 2^i)`, which spans u64 nanoseconds end to end.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotone event counter on its own cache line (the leader and N
/// followers bump disjoint counters without false sharing).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n` — one relaxed `fetch_add`, the hot-path operation.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value instrument (chain lengths, lag estimates).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge.
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrites the value — one relaxed store.
    #[inline]
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Raises the value to `value` if larger.
    #[inline]
    pub fn raise(&self, value: u64) {
        self.value.fetch_max(value, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// One counter lane per shard.  `shard & (MAX_SHARDS - 1)` picks the lane,
/// so each shard's leader bumps its own cache line.
#[derive(Debug, Default)]
pub struct ShardedCounter {
    lanes: [Counter; MAX_SHARDS],
}

impl ShardedCounter {
    /// Zeroed lanes.
    #[must_use]
    pub fn new() -> Self {
        ShardedCounter::default()
    }

    /// Adds `n` to `shard`'s lane — one relaxed `fetch_add`.
    #[inline]
    pub fn add(&self, shard: usize, n: u64) {
        self.lanes[shard & (MAX_SHARDS - 1)].add(n);
    }

    /// One lane's value.
    #[must_use]
    pub fn lane(&self, shard: usize) -> u64 {
        self.lanes[shard & (MAX_SHARDS - 1)].get()
    }

    /// Sum over all lanes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.lanes.iter().map(Counter::get).sum()
    }

    /// All lanes, in shard order.
    #[must_use]
    pub fn lanes(&self) -> [u64; MAX_SHARDS] {
        std::array::from_fn(|i| self.lanes[i].get())
    }
}

/// One gauge lane per shard (per-shard follower lag).
#[derive(Debug, Default)]
pub struct ShardedGauge {
    lanes: [Gauge; MAX_SHARDS],
}

impl ShardedGauge {
    /// Zeroed lanes.
    #[must_use]
    pub fn new() -> Self {
        ShardedGauge::default()
    }

    /// Overwrites `shard`'s lane.
    #[inline]
    pub fn set(&self, shard: usize, value: u64) {
        self.lanes[shard & (MAX_SHARDS - 1)].set(value);
    }

    /// One lane's value.
    #[must_use]
    pub fn lane(&self, shard: usize) -> u64 {
        self.lanes[shard & (MAX_SHARDS - 1)].get()
    }

    /// The largest lane (the fleet's worst follower lag).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.lanes.iter().map(Gauge::get).max().unwrap_or(0)
    }

    /// All lanes, in shard order.
    #[must_use]
    pub fn lanes(&self) -> [u64; MAX_SHARDS] {
        std::array::from_fn(|i| self.lanes[i].get())
    }
}

/// A log₂-bucketed latency histogram.
///
/// `record` is a constant handful of relaxed atomic operations (bucket add,
/// sum add, max raise, last store) with no allocation and no locking, so it
/// is safe at any event site; the hottest sites additionally *sample* (every
/// Nth event) so even that handful amortizes to nothing.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
    last: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            last: AtomicU64::new(0),
        }
    }
}

/// Bucket index for `value`: 0 for zero, otherwise the number of significant
/// bits (so bucket *i* spans `[2^(i-1), 2^i)`).
#[inline]
#[must_use]
pub(crate) fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample (nanoseconds by convention).
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.last.store(value, Ordering::Relaxed);
    }

    /// The most recently recorded sample.  This is the read-back the
    /// upgrade pipeline reports its per-stage promote latency from, so the
    /// stage report and the live endpoint share one measurement.
    #[must_use]
    pub fn last(&self) -> u64 {
        self.last.load(Ordering::Relaxed)
    }

    /// A coherent-enough copy (relaxed reads; exact once writers are quiet).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; HISTOGRAM_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// The readable form of a [`Histogram`]; merging is associative and
/// commutative, so per-shard snapshots fold into exactly the distribution a
/// single global histogram over the same samples would report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Mean sample, or 0 for an empty histogram.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket-resolution quantile estimate: the upper bound of the bucket
    /// holding the `q`-th sample (so `quantile(0.5)` over-reports the
    /// median by at most 2×, the bucket width).  0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_upper_bound(index).min(self.max);
            }
        }
        self.max
    }
}

/// Inclusive upper bound of bucket `index` (0 for the zero bucket).
#[must_use]
pub(crate) fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// The fixed metric catalog (one instance per [`Registry`](crate::Registry)).
///
/// Fields are public: instrumentation sites address them directly and the
/// names here are the names the snapshot renders.
#[derive(Debug, Default)]
#[allow(missing_docs)] // each field is documented by the catalog table in docs/OBSERVABILITY.md
pub struct Metrics {
    // --- per-shard event-flow counters (core layer) ---
    /// Events the leader published into the ring/journal plane, per shard
    /// (shard 0 for the unsharded plane).
    pub events_published: ShardedCounter,
    /// Events followers replayed out of the plane, per shard.
    pub events_replayed: ShardedCounter,

    // --- ring layer (global totals; a ring does not know its shard) ---
    /// Producer publish calls (batched publishes count once).
    pub ring_publishes: Counter,
    /// Consumer batch reads that returned at least one event.
    pub ring_consumes: Counter,

    // --- kernel layer ---
    /// System calls executed by the virtual kernel.
    pub syscalls_executed: Counter,

    // --- divergence verdicts ---
    /// Divergences the rewrite rules allowed (extra/skipped calls).
    pub divergences_allowed: Counter,
    /// Divergences that killed the offending follower.
    pub divergences_killed: Counter,
    /// Replay windows certified by a single fold comparison (one u64 per
    /// batch) on the divergence fast path.
    pub divergence_fast_path_hits: Counter,
    /// Replay windows whose fold comparison mismatched, triggering the
    /// per-event localization slow path.
    pub divergence_hash_mismatches: Counter,

    // --- follower replay copy accounting ---
    /// Payload bytes the zero-copy follower path left pool-resident at
    /// staging time instead of copying out (lap-based reclamation).
    pub follower_copy_bytes_saved: Counter,
    /// Payload bytes copied out of the pool at staging time on the fallback
    /// path (surplus sibling threads sharing a clamped ring).
    pub follower_copy_bytes: Counter,

    // --- fleet control plane ---
    /// Runtime joins.
    pub fleet_attaches: Counter,
    /// Runtime leaves (including kills and retirements).
    pub fleet_detaches: Counter,
    /// Planned leadership handovers (upgrade promote, explicit promote).
    pub promotions: Counter,
    /// Unplanned handovers after a leader crash.
    pub failovers: Counter,
    /// Upgrade stages rolled back.
    pub rollbacks: Counter,

    // --- journal durability ---
    /// Scrub reports produced at reopen (torn tails and corruption).
    pub journal_scrubs: Counter,
    /// Segment files quarantined by the scrub.
    pub journal_quarantines: Counter,
    /// Compaction/retirement passes that removed at least one segment or
    /// dead record run.
    pub journal_compactions: Counter,
    /// Interior corruption verdicts (`ScrubKind::Corrupt`) — the CI-gated
    /// "detected, never silently absorbed" counter.
    pub journal_corruptions_detected: Counter,

    // --- gauges ---
    /// Links in the current incremental-checkpoint chain.
    pub checkpoint_chain_len: Gauge,
    /// Follower lag in sequences, per shard, read from the producer's
    /// cached gate (one relaxed load — never a rescan).
    pub follower_lag: ShardedGauge,

    // --- latency histograms (nanoseconds) ---
    /// Time the producer spent waiting for the gating sequence to advance
    /// (the publish slow path; the fast path records nothing).
    pub publish_gate_wait_nanos: Histogram,
    /// Leader-side cost of one capture (journal append + publish),
    /// sampled every [`CAPTURE_SAMPLE_EVERY`] captures.
    pub syscall_capture_nanos: Histogram,
    /// Runtime joiner attach → live.
    pub joiner_catch_up_nanos: Histogram,
    /// Handover request → new leader publishing.
    pub promote_latency_nanos: Histogram,
}

/// Sampling interval for the capture histogram: every 64th capture takes
/// two clock readings; the other 63 pay one relaxed counter add.
pub const CAPTURE_SAMPLE_EVERY: u64 = 64;

impl Metrics {
    /// A zeroed catalog.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// A coherent copy of every metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            events_published: self.events_published.lanes(),
            events_replayed: self.events_replayed.lanes(),
            ring_publishes: self.ring_publishes.get(),
            ring_consumes: self.ring_consumes.get(),
            syscalls_executed: self.syscalls_executed.get(),
            divergences_allowed: self.divergences_allowed.get(),
            divergences_killed: self.divergences_killed.get(),
            divergence_fast_path_hits: self.divergence_fast_path_hits.get(),
            divergence_hash_mismatches: self.divergence_hash_mismatches.get(),
            follower_copy_bytes_saved: self.follower_copy_bytes_saved.get(),
            follower_copy_bytes: self.follower_copy_bytes.get(),
            fleet_attaches: self.fleet_attaches.get(),
            fleet_detaches: self.fleet_detaches.get(),
            promotions: self.promotions.get(),
            failovers: self.failovers.get(),
            rollbacks: self.rollbacks.get(),
            journal_scrubs: self.journal_scrubs.get(),
            journal_quarantines: self.journal_quarantines.get(),
            journal_compactions: self.journal_compactions.get(),
            journal_corruptions_detected: self.journal_corruptions_detected.get(),
            checkpoint_chain_len: self.checkpoint_chain_len.get(),
            follower_lag: self.follower_lag.lanes(),
            publish_gate_wait_nanos: self.publish_gate_wait_nanos.snapshot(),
            syscall_capture_nanos: self.syscall_capture_nanos.snapshot(),
            joiner_catch_up_nanos: self.joiner_catch_up_nanos.snapshot(),
            promote_latency_nanos: self.promote_latency_nanos.snapshot(),
        }
    }
}

/// The readable form of [`Metrics`]: plain integers, mergeable, renderable
/// as JSON or prometheus-style text (see `render.rs`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[allow(missing_docs)] // field-for-field mirror of the documented catalog
pub struct MetricsSnapshot {
    pub events_published: [u64; MAX_SHARDS],
    pub events_replayed: [u64; MAX_SHARDS],
    pub ring_publishes: u64,
    pub ring_consumes: u64,
    pub syscalls_executed: u64,
    pub divergences_allowed: u64,
    pub divergences_killed: u64,
    pub divergence_fast_path_hits: u64,
    pub divergence_hash_mismatches: u64,
    pub follower_copy_bytes_saved: u64,
    pub follower_copy_bytes: u64,
    pub fleet_attaches: u64,
    pub fleet_detaches: u64,
    pub promotions: u64,
    pub failovers: u64,
    pub rollbacks: u64,
    pub journal_scrubs: u64,
    pub journal_quarantines: u64,
    pub journal_compactions: u64,
    pub journal_corruptions_detected: u64,
    pub checkpoint_chain_len: u64,
    pub follower_lag: [u64; MAX_SHARDS],
    pub publish_gate_wait_nanos: HistogramSnapshot,
    pub syscall_capture_nanos: HistogramSnapshot,
    pub joiner_catch_up_nanos: HistogramSnapshot,
    pub promote_latency_nanos: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Total events published across shards.
    #[must_use]
    pub fn events_published_total(&self) -> u64 {
        self.events_published.iter().sum()
    }

    /// Total events replayed across shards.
    #[must_use]
    pub fn events_replayed_total(&self) -> u64 {
        self.events_replayed.iter().sum()
    }

    /// Folds `other` into `self`: counters and histograms add, gauges take
    /// the maximum (a merged gauge answers "how bad is the worst domain").
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (mine, theirs) in self
            .events_published
            .iter_mut()
            .zip(other.events_published.iter())
        {
            *mine += theirs;
        }
        for (mine, theirs) in self
            .events_replayed
            .iter_mut()
            .zip(other.events_replayed.iter())
        {
            *mine += theirs;
        }
        self.ring_publishes += other.ring_publishes;
        self.ring_consumes += other.ring_consumes;
        self.syscalls_executed += other.syscalls_executed;
        self.divergences_allowed += other.divergences_allowed;
        self.divergences_killed += other.divergences_killed;
        self.divergence_fast_path_hits += other.divergence_fast_path_hits;
        self.divergence_hash_mismatches += other.divergence_hash_mismatches;
        self.follower_copy_bytes_saved += other.follower_copy_bytes_saved;
        self.follower_copy_bytes += other.follower_copy_bytes;
        self.fleet_attaches += other.fleet_attaches;
        self.fleet_detaches += other.fleet_detaches;
        self.promotions += other.promotions;
        self.failovers += other.failovers;
        self.rollbacks += other.rollbacks;
        self.journal_scrubs += other.journal_scrubs;
        self.journal_quarantines += other.journal_quarantines;
        self.journal_compactions += other.journal_compactions;
        self.journal_corruptions_detected += other.journal_corruptions_detected;
        self.checkpoint_chain_len = self.checkpoint_chain_len.max(other.checkpoint_chain_len);
        for (mine, theirs) in self.follower_lag.iter_mut().zip(other.follower_lag.iter()) {
            *mine = (*mine).max(*theirs);
        }
        self.publish_gate_wait_nanos
            .merge(&other.publish_gate_wait_nanos);
        self.syscall_capture_nanos.merge(&other.syscall_capture_nanos);
        self.joiner_catch_up_nanos.merge(&other.joiner_catch_up_nanos);
        self.promote_latency_nanos.merge(&other.promote_latency_nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_the_significant_bit_count() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for index in 1..64 {
            let low = 1u64 << (index - 1);
            assert_eq!(bucket_index(low), index);
            assert_eq!(bucket_index(bucket_upper_bound(index)), index);
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let hist = Histogram::new();
        for value in [0, 1, 1, 7, 1000] {
            hist.record(value);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1009);
        assert_eq!(snap.max, 1000);
        assert_eq!(hist.last(), 1000);
        assert_eq!(snap.buckets[0], 1); // the zero
        assert_eq!(snap.buckets[1], 2); // the two ones
        assert_eq!(snap.buckets[3], 1); // 7
        assert_eq!(snap.buckets[10], 1); // 1000 (10 significant bits)
    }

    #[test]
    fn quantile_is_bucket_bounded() {
        let hist = Histogram::new();
        for _ in 0..99 {
            hist.record(10);
        }
        hist.record(1 << 20);
        let snap = hist.snapshot();
        let p50 = snap.quantile(0.5);
        assert!((10..=15).contains(&p50), "p50 {p50} outside 10's bucket");
        assert_eq!(snap.quantile(1.0), 1 << 20); // clamped to max
    }

    #[test]
    fn sharded_counter_masks_and_totals() {
        let counter = ShardedCounter::new();
        counter.add(0, 5);
        counter.add(3, 7);
        counter.add(MAX_SHARDS + 3, 1); // folds onto lane 3
        assert_eq!(counter.lane(0), 5);
        assert_eq!(counter.lane(3), 8);
        assert_eq!(counter.total(), 13);
    }

    #[test]
    fn snapshot_merge_adds_counters_and_maxes_gauges() {
        let a = Metrics::new();
        let b = Metrics::new();
        a.events_published.add(0, 10);
        b.events_published.add(0, 20);
        a.checkpoint_chain_len.set(3);
        b.checkpoint_chain_len.set(9);
        a.promote_latency_nanos.record(500);
        b.promote_latency_nanos.record(700);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.events_published_total(), 30);
        assert_eq!(merged.checkpoint_chain_len, 9);
        assert_eq!(merged.promote_latency_nanos.count, 2);
        assert_eq!(merged.promote_latency_nanos.max, 700);
    }
}
