//! The sharded data plane: N independent ring+pool+journal lanes.
//!
//! Varan's original design (and this reproduction's PR 1–5 layers) funnels
//! every event through **one** shared ring, so every follower contends on a
//! single gating sequence and aggregate throughput stops scaling the moment
//! a second consumer appears.  A [`ShardSet`] removes that ceiling by
//! partitioning the event stream into `N` fully independent shards — each
//! with its own ring buffer (own leader cursor, own gating sequences), its
//! own payload pool, and its own journal (own `seg-<shard>-*.vrj` segment
//! files and own retention anchor).  Nothing on the hot path is shared
//! between shards: a leader publishing into shard 2 never touches a cache
//! line a shard-0 consumer reads.
//!
//! # Keying
//!
//! Events are keyed to shards **by connection/file descriptor at capture
//! time** ([`shard_for_key`]): every syscall naming descriptor `fd` in its
//! first argument register maps to `shard_for_key(fd, N)`; syscalls that
//! name no descriptor (time, getpid, exit, …) key to shard 0, the control
//! shard.  Keying off the *request* (not the result) means the leader and
//! every follower compute the same shard for the same program point without
//! any extra coordination — followers allocate descriptors deterministically
//! (lowest-free, same as the leader), so the same fd stream lands on the
//! same shard in every version.  `varan-kernel`'s `connection_key` extracts
//! the key; this module turns keys into shard indices.
//!
//! # Consistent cuts
//!
//! With one journal, a checkpoint is one sequence number.  With a shard set
//! it is a **cut vector**: one sequence per shard ([`ShardSet::consistent_cut`]).
//! No cross-shard barrier is needed to take one — each shard's journal is
//! appended *before* its ring publish (the PR-3 invariant, per shard), so a
//! cut component read before the kernel snapshot can only under-estimate
//! that shard's tail, never over-estimate it, and per-shard replay from the
//! cut is race-free exactly as single-ring replay was.  Retention is
//! per-shard as well ([`ShardSet::set_anchors`]): an idle shard's anchor
//! follows its own tail instead of being pinned by a busy shard's oldest
//! checkpoint.

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use crate::error::RingError;
use crate::event::Event;
use crate::journal::{EventJournal, JournalConfig, JournalError};
use crate::ring::{Consumer, Producer, RingBuffer, WaitStrategy};
use crate::shmem::{PoolAllocator, PoolConfig};

/// Maps a connection/descriptor key to a shard index, deterministically.
///
/// A Fibonacci-style multiplicative mix spreads consecutive descriptor
/// numbers (the common case: a server accepting fds 4, 5, 6, …) across the
/// whole shard space before the modulo, so neighbouring connections land on
/// different shards.  The function is pure: the same `(key, shards)` pair
/// yields the same index in every process, every version, every run — the
/// property the follower replay path and the checkpoint/restore round-trip
/// both rely on.
#[must_use]
pub fn shard_for_key(key: u64, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    // splitmix64-style finalizer: full-avalanche, dependency-free.
    let mut h = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    (h % shards as u64) as usize
}

/// Errors building a [`ShardSet`].
#[derive(Debug)]
#[non_exhaustive]
pub enum ShardError {
    /// A shard's ring buffer could not be created.
    Ring(RingError),
    /// A shard's journal could not be opened.
    Journal(JournalError),
    /// The spec asked for zero shards.
    ZeroShards,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Ring(err) => write!(f, "shard ring: {err}"),
            ShardError::Journal(err) => write!(f, "shard journal: {err}"),
            ShardError::ZeroShards => f.write_str("shard set needs at least one shard"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<RingError> for ShardError {
    fn from(err: RingError) -> Self {
        ShardError::Ring(err)
    }
}

impl From<JournalError> for ShardError {
    fn from(err: JournalError) -> Self {
        ShardError::Journal(err)
    }
}

/// Configuration of a [`ShardSet`].
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Number of independent shards (rings/pools/journals).
    pub shards: usize,
    /// Ring capacity per shard, in events (power of two).
    pub ring_capacity: usize,
    /// Consumer slots per shard ring (one per prospective member).
    pub consumers: usize,
    /// Wait strategy for every shard ring.
    pub wait: WaitStrategy,
    /// Payload-pool configuration per shard.
    pub pool: PoolConfig,
    /// Directory for the shard journals (`seg-<shard>-*.vrj` files, all in
    /// one directory); `None` disables journaling (no joiner catch-up).
    pub journal_dir: Option<PathBuf>,
    /// Records per journal segment before rotation.
    pub segment_records: usize,
}

impl ShardSpec {
    /// A spec with `shards` shards and the paper's defaults elsewhere.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        ShardSpec {
            shards,
            ring_capacity: 256,
            consumers: 4,
            wait: WaitStrategy::Yield,
            pool: PoolConfig::default(),
            journal_dir: None,
            segment_records: 4096,
        }
    }

    /// Overrides the per-shard ring capacity.
    #[must_use]
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }

    /// Overrides the per-shard consumer slot count.
    #[must_use]
    pub fn with_consumers(mut self, consumers: usize) -> Self {
        self.consumers = consumers;
        self
    }

    /// Enables journaling rooted at `dir`.
    #[must_use]
    pub fn with_journal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.journal_dir = Some(dir.into());
        self
    }

    /// Overrides the journal segment rotation threshold.
    #[must_use]
    pub fn with_segment_records(mut self, records: usize) -> Self {
        self.segment_records = records.max(1);
        self
    }

    /// Overrides the wait strategy.
    #[must_use]
    pub fn with_wait(mut self, wait: WaitStrategy) -> Self {
        self.wait = wait;
        self
    }
}

/// One shard: an independent ring + payload pool + optional journal lane.
pub struct Shard {
    index: usize,
    ring: Arc<RingBuffer<Event>>,
    pool: Arc<PoolAllocator>,
    journal: Option<Arc<EventJournal>>,
}

impl fmt::Debug for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shard")
            .field("index", &self.index)
            .field("published", &self.ring.published())
            .field("journaled", &self.journal.is_some())
            .finish()
    }
}

impl Shard {
    /// This shard's index within the set.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// This shard's ring buffer.
    #[must_use]
    pub fn ring(&self) -> &Arc<RingBuffer<Event>> {
        &self.ring
    }

    /// This shard's payload pool.
    #[must_use]
    pub fn pool(&self) -> &Arc<PoolAllocator> {
        &self.pool
    }

    /// This shard's journal, if the set was built with one.
    #[must_use]
    pub fn journal(&self) -> Option<&Arc<EventJournal>> {
        self.journal.as_ref()
    }

    /// Events published into this shard so far (the shard's leader cursor).
    #[must_use]
    pub fn published(&self) -> u64 {
        self.ring.published()
    }
}

/// `N` independent ring+pool+journal shards, addressed by key.
///
/// See the [module docs](self) for the keying and consistent-cut story.
pub struct ShardSet {
    shards: Vec<Shard>,
}

impl fmt::Debug for ShardSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardSet")
            .field("shards", &self.shards.len())
            .field("published", &self.published_vector())
            .finish()
    }
}

impl ShardSet {
    /// Builds the shard set described by `spec`.
    ///
    /// Each shard gets its own ring, pool and (if `spec.journal_dir` is set)
    /// its own journal writing `seg-<shard>-*.vrj` segments; all journals
    /// share one directory but never one file or one anchor.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError`] for a zero-shard spec, an invalid ring
    /// capacity, or a journal directory that cannot be opened.
    pub fn new(spec: &ShardSpec) -> Result<Self, ShardError> {
        if spec.shards == 0 {
            return Err(ShardError::ZeroShards);
        }
        let mut shards = Vec::with_capacity(spec.shards);
        for index in 0..spec.shards {
            let ring = Arc::new(RingBuffer::new(
                spec.ring_capacity,
                spec.consumers,
                spec.wait,
            )?);
            let pool = Arc::new(PoolAllocator::new(spec.pool.clone()));
            let journal = match &spec.journal_dir {
                Some(dir) => {
                    let config = JournalConfig::new(dir)
                        .with_segment_records(spec.segment_records)
                        .with_shard(index as u32);
                    Some(Arc::new(EventJournal::open(config)?))
                }
                None => None,
            };
            shards.push(Shard {
                index,
                ring,
                pool,
                journal,
            });
        }
        Ok(ShardSet { shards })
    }

    /// Number of shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True only for an (unconstructible) empty set; kept for API hygiene.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Shard `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn shard(&self, index: usize) -> &Shard {
        &self.shards[index]
    }

    /// Iterates the shards in index order.
    pub fn iter(&self) -> impl Iterator<Item = &Shard> {
        self.shards.iter()
    }

    /// The shard index a key maps to.
    #[must_use]
    pub fn shard_index_for(&self, key: u64) -> usize {
        shard_for_key(key, self.shards.len())
    }

    /// The shard a key maps to.
    #[must_use]
    pub fn shard_for(&self, key: u64) -> &Shard {
        &self.shards[self.shard_index_for(key)]
    }

    /// One producer handle per shard, in index order.
    #[must_use]
    pub fn producers(&self) -> Vec<Producer<Event>> {
        self.shards.iter().map(|s| s.ring.producer()).collect()
    }

    /// Claims consumer slot `slot` on **every** shard, in index order — one
    /// member's view of the whole set.
    ///
    /// # Errors
    ///
    /// Returns [`RingError`] if the slot is out of range or already claimed
    /// on any shard (claims made before the failure are not rolled back;
    /// callers treat this as fatal for the member).
    pub fn claim_slot(&self, slot: usize) -> Result<Vec<Consumer<Event>>, RingError> {
        self.shards.iter().map(|s| s.ring.consumer(slot)).collect()
    }

    /// Per-shard published counts, in index order.
    #[must_use]
    pub fn published_vector(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.ring.published()).collect()
    }

    /// Sum of events published across all shards.
    #[must_use]
    pub fn total_published(&self) -> u64 {
        self.shards.iter().map(|s| s.ring.published()).sum()
    }

    /// Takes a consistent cut: each shard's journal tail (or ring cursor if
    /// the set is unjournaled), in index order.  Components are read without
    /// a cross-shard barrier — see the [module docs](self) for why per-shard
    /// journal-before-publish makes that safe.
    #[must_use]
    pub fn consistent_cut(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| match &s.journal {
                Some(journal) => journal.tail_sequence(),
                None => s.ring.published(),
            })
            .collect()
    }

    /// Moves each shard's retention anchor to the matching component of
    /// `cut` (missing components leave that shard untouched).  Anchors never
    /// move backwards; each shard deletes only its *own* dead segments, so
    /// an idle shard can retire history even while a busy shard's oldest
    /// checkpoint pins that busy shard's segments.
    pub fn set_anchors(&self, cut: &[u64]) {
        for (shard, &anchor) in self.shards.iter().zip(cut) {
            if let Some(journal) = &shard.journal {
                journal.set_anchor(anchor);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("varan-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn keying_is_deterministic_and_in_range() {
        for shards in 1..=8usize {
            for key in 0..512u64 {
                let a = shard_for_key(key, shards);
                let b = shard_for_key(key, shards);
                assert_eq!(a, b);
                assert!(a < shards);
            }
        }
        // Single shard degenerates to the unsharded data plane.
        assert_eq!(shard_for_key(u64::MAX, 1), 0);
    }

    #[test]
    fn consecutive_descriptors_spread_across_shards() {
        // A server's accepted fds are consecutive integers; they must not
        // all pile onto one shard.
        let shards = 4;
        let mut counts = vec![0usize; shards];
        for fd in 4..68u64 {
            counts[shard_for_key(fd, shards)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(min > 0, "some shard got no connections: {counts:?}");
        assert!(
            max <= min * 4,
            "descriptor keying badly imbalanced: {counts:?}"
        );
    }

    #[test]
    fn shard_set_builds_independent_lanes() {
        let dir = temp_dir("lanes");
        let spec = ShardSpec::new(4)
            .with_ring_capacity(64)
            .with_consumers(2)
            .with_journal_dir(&dir)
            .with_segment_records(8);
        let set = ShardSet::new(&spec).unwrap();
        assert_eq!(set.len(), 4);

        let producers = set.producers();
        for (i, producer) in producers.iter().enumerate() {
            for k in 0..(i as u64 + 1) {
                producer.publish(Event::checkpoint(k));
            }
        }
        assert_eq!(set.published_vector(), vec![1, 2, 3, 4]);
        assert_eq!(set.total_published(), 10);

        // Each member claims the same slot index on every shard.
        let consumers = set.claim_slot(0).unwrap();
        assert_eq!(consumers.len(), 4);
        // Claiming the same slot twice fails on the first shard.
        assert!(set.claim_slot(0).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_journals_share_a_directory_but_not_segments() {
        let dir = temp_dir("segfiles");
        let spec = ShardSpec::new(2)
            .with_ring_capacity(16)
            .with_journal_dir(&dir)
            .with_segment_records(2);
        let set = ShardSet::new(&spec).unwrap();
        use crate::journal::JournalRecord;
        let record = JournalRecord::default();
        for _ in 0..5 {
            set.shard(0).journal().unwrap().append(record.clone()).unwrap();
        }
        set.shard(1).journal().unwrap().append(record.clone()).unwrap();
        for shard in set.iter() {
            shard.journal().unwrap().flush().unwrap();
        }
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.iter().any(|n| n.starts_with("seg-0-")), "{names:?}");
        assert!(names.iter().any(|n| n.starts_with("seg-1-")), "{names:?}");

        // Reopening sees only the owning shard's segments.
        drop(set);
        let set = ShardSet::new(&spec).unwrap();
        assert_eq!(set.shard(0).journal().unwrap().tail_sequence(), 5);
        assert_eq!(set.shard(1).journal().unwrap().tail_sequence(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn per_shard_anchors_do_not_pin_each_other() {
        let dir = temp_dir("anchors");
        let spec = ShardSpec::new(2)
            .with_ring_capacity(16)
            .with_journal_dir(&dir)
            .with_segment_records(2);
        let set = ShardSet::new(&spec).unwrap();
        use crate::journal::JournalRecord;
        let record = JournalRecord::default();
        // Shard 0 is busy (10 records), shard 1 idle (1 record).
        for _ in 0..10 {
            set.shard(0).journal().unwrap().append(record.clone()).unwrap();
        }
        set.shard(1).journal().unwrap().append(record.clone()).unwrap();

        // A checkpoint whose cut holds shard 0 at 2 (an old observer) must
        // not stop shard 1 retiring up to its own tail — and vice versa.
        set.set_anchors(&[2, 1]);
        assert_eq!(set.shard(0).journal().unwrap().oldest_sequence(), 2);
        assert_eq!(set.shard(0).journal().unwrap().anchor(), 2);
        assert_eq!(set.shard(1).journal().unwrap().anchor(), 1);

        // Advancing only shard 0's component later releases its segments
        // without consulting shard 1.
        set.set_anchors(&[10]);
        assert_eq!(set.shard(0).journal().unwrap().oldest_sequence(), 10);
        assert_eq!(set.shard(1).journal().unwrap().anchor(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn consistent_cut_tracks_journal_tails() {
        let dir = temp_dir("cut");
        let spec = ShardSpec::new(3)
            .with_ring_capacity(16)
            .with_journal_dir(&dir);
        let set = ShardSet::new(&spec).unwrap();
        use crate::journal::JournalRecord;
        let record = JournalRecord::default();
        set.shard(1).journal().unwrap().append(record.clone()).unwrap();
        set.shard(1).journal().unwrap().append(record.clone()).unwrap();
        set.shard(2).journal().unwrap().append(record).unwrap();
        assert_eq!(set.consistent_cut(), vec![0, 2, 1]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
