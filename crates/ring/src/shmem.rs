//! Bucketed shared-memory pool allocator (§3.3.4).
//!
//! System-call payloads that do not fit into a 64-byte event (e.g. the buffer
//! returned by `read`) are copied into a shared memory pool and referenced
//! from the event by a [`SharedPtr`].  The allocator has the notion of
//! *buckets* for different allocation sizes; each bucket holds a list of
//! *segments*, each segment is divided into equally sized *chunks*, and each
//! bucket keeps a free list of chunks.  A lock is associated with each bucket
//! and held only during allocation and deallocation, matching the paper's
//! locking discipline ("locks are used only during memory allocation and
//! deallocation").
//!
//! In the original system the pool lives in a POSIX shared-memory segment; in
//! this reproduction it is a heap arena shared between the leader and follower
//! threads, addressed by the same offset-based shared pointers.
//!
//! The read path is kept hot-path-clean: segments are bump-allocated so the
//! directory is base-sorted and [`PoolAllocator::read_into`] /
//! [`PoolAllocator::read_with`] resolve a shared pointer with one O(log n)
//! binary search and copy into a caller-owned buffer (or borrow in place)
//! without allocating.  Double frees are detected in O(1) via a mirror set of
//! each bucket's free list.

use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock};

use crate::error::RingError;
use crate::event::SharedPtr;

/// Offset reserved at the start of the arena so that a valid region never has
/// offset zero (offset zero is the [`SharedPtr::NULL`] sentinel).
const ARENA_BASE: u32 = 64;

/// Sentinel for "poison-on-free disabled" (any value above `u8::MAX`).
const POISON_DISABLED: u64 = u64::MAX;

/// Configuration for a [`PoolAllocator`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolConfig {
    /// Maximum total bytes the pool may hand out (across all segments).
    pub pool_size: usize,
    /// Chunk sizes of the buckets, in ascending order.
    pub bucket_sizes: Vec<usize>,
    /// Number of chunks carved out of each new segment.
    pub chunks_per_segment: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            // 16 MiB default pool, mirroring a modest shm segment.
            pool_size: 16 * 1024 * 1024,
            bucket_sizes: vec![64, 256, 1024, 4096, 16384, 65536],
            chunks_per_segment: 16,
        }
    }
}

/// A chunk handed out by the pool.
///
/// The region remembers the number of bytes requested (`len`), which may be
/// smaller than the underlying chunk.  Convert it to a [`SharedPtr`] with
/// [`SharedRegion::ptr`] to embed it into an [`crate::Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SharedRegion {
    ptr: SharedPtr,
    bucket: usize,
}

impl SharedRegion {
    /// The shared pointer identifying this region inside the pool.
    #[must_use]
    pub fn ptr(&self) -> SharedPtr {
        self.ptr
    }

    /// Number of bytes requested when the region was allocated.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ptr.len() as usize
    }

    /// Returns `true` if the requested length was zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ptr.len() == 0
    }
}

/// Counters exposed for tests and the evaluation harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Chunks currently allocated (not yet freed).
    pub live_chunks: u64,
    /// Total allocations performed.
    pub total_allocs: u64,
    /// Total frees performed.
    pub total_frees: u64,
    /// Segments carved so far.
    pub segments: u64,
    /// Bytes of arena capacity consumed by segments.
    pub arena_bytes: u64,
}

/// Free chunks of one bucket: a LIFO stack for O(1) alloc plus a mirror set
/// for O(1) double-free detection (`free.contains` on the stack was O(n)).
#[derive(Debug, Default)]
struct FreeList {
    stack: Vec<u32>,
    members: HashSet<u32>,
}

impl FreeList {
    fn pop(&mut self) -> Option<u32> {
        let offset = self.stack.pop()?;
        self.members.remove(&offset);
        Some(offset)
    }

    /// Pushes `offset`; returns `false` (without pushing) if it was already
    /// free.
    fn push(&mut self, offset: u32) -> bool {
        if !self.members.insert(offset) {
            return false;
        }
        self.stack.push(offset);
        true
    }
}

#[derive(Debug)]
struct Bucket {
    chunk_size: usize,
    /// Free chunks (global arena offsets). Guarded by the per-bucket lock.
    free: Mutex<FreeList>,
}

#[derive(Debug, Default)]
struct Segment {
    /// Global offset of the first byte of this segment.
    base: u32,
    /// Segment length in bytes, fixed at creation (kept outside the data
    /// lock so `locate` never has to lock the payload bytes).
    len: u32,
    data: RwLock<Vec<u8>>,
}

/// The bucketed shared-memory pool allocator.
///
/// # Examples
///
/// ```
/// use varan_ring::{PoolAllocator, PoolConfig};
///
/// # fn main() -> Result<(), varan_ring::RingError> {
/// let pool = PoolAllocator::new(PoolConfig::default());
/// let region = pool.alloc_and_write(b"response body")?;
/// assert_eq!(pool.read(region.ptr()), b"response body");
/// pool.free(region)?;
/// # Ok(())
/// # }
/// ```
pub struct PoolAllocator {
    config: PoolConfig,
    buckets: Vec<Bucket>,
    /// Segment directory, append-only. Guarded by `grow_lock` for writers.
    segments: RwLock<Vec<Segment>>,
    grow_lock: Mutex<()>,
    next_offset: AtomicU64,
    live_chunks: AtomicU64,
    total_allocs: AtomicU64,
    total_frees: AtomicU64,
    /// Poison byte written over every freed chunk, or a sentinel above
    /// `u8::MAX` when disabled (the default).  Test-oriented: makes
    /// use-after-free of a pool region observable as poisoned payload bytes
    /// instead of silently stale data ([`PoolAllocator::set_poison_on_free`]).
    poison: AtomicU64,
}

impl fmt::Debug for PoolAllocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolAllocator")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for PoolAllocator {
    fn default() -> Self {
        Self::new(PoolConfig::default())
    }
}

impl PoolAllocator {
    /// Creates a pool with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.bucket_sizes` is empty or not strictly ascending, or
    /// if `chunks_per_segment` is zero; these are programming errors in the
    /// embedding code rather than runtime conditions.
    #[must_use]
    pub fn new(config: PoolConfig) -> Self {
        assert!(
            !config.bucket_sizes.is_empty(),
            "pool must have at least one bucket"
        );
        assert!(
            config
                .bucket_sizes
                .windows(2)
                .all(|pair| pair[0] < pair[1]),
            "bucket sizes must be strictly ascending"
        );
        assert!(config.chunks_per_segment > 0, "segments must hold chunks");
        let buckets = config
            .bucket_sizes
            .iter()
            .map(|&chunk_size| Bucket {
                chunk_size,
                free: Mutex::new(FreeList::default()),
            })
            .collect();
        PoolAllocator {
            config,
            buckets,
            segments: RwLock::new(Vec::new()),
            grow_lock: Mutex::new(()),
            next_offset: AtomicU64::new(u64::from(ARENA_BASE)),
            live_chunks: AtomicU64::new(0),
            total_allocs: AtomicU64::new(0),
            total_frees: AtomicU64::new(0),
            poison: AtomicU64::new(POISON_DISABLED),
        }
    }

    /// Enables (`Some(byte)`) or disables (`None`) poisoning of freed
    /// chunks: while enabled, [`PoolAllocator::free`] overwrites the whole
    /// chunk with `byte` before returning it to the free list, so any
    /// reader still holding the region's [`SharedPtr`] observes poison
    /// instead of silently stale bytes.  Disabled by default — the free
    /// path stays O(1); this is a test facility for use-after-free hunting
    /// (the lap-reclamation property tests in `crates/ring/tests/`).
    pub fn set_poison_on_free(&self, byte: Option<u8>) {
        let value = byte.map_or(POISON_DISABLED, u64::from);
        self.poison.store(value, Ordering::Relaxed);
    }

    /// The configuration this pool was created with.
    #[must_use]
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Allocation statistics.
    #[must_use]
    pub fn stats(&self) -> AllocStats {
        let segments = self.segments.read();
        AllocStats {
            live_chunks: self.live_chunks.load(Ordering::Relaxed),
            total_allocs: self.total_allocs.load(Ordering::Relaxed),
            total_frees: self.total_frees.load(Ordering::Relaxed),
            segments: segments.len() as u64,
            arena_bytes: self.next_offset.load(Ordering::Relaxed) - u64::from(ARENA_BASE),
        }
    }

    fn bucket_for(&self, len: usize) -> Result<usize, RingError> {
        self.config
            .bucket_sizes
            .iter()
            .position(|&size| size >= len)
            .ok_or(RingError::AllocationTooLarge {
                requested: len,
                max_chunk: *self.config.bucket_sizes.last().expect("non-empty"),
            })
    }

    /// Allocates a region of at least `len` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`RingError::AllocationTooLarge`] if `len` exceeds the largest
    /// bucket chunk size and [`RingError::OutOfSharedMemory`] if the pool is
    /// exhausted.
    pub fn alloc(&self, len: usize) -> Result<SharedRegion, RingError> {
        let bucket_index = self.bucket_for(len)?;
        // Pop in its own statement: the guard must be released before
        // `grow_bucket` locks the same free list.
        let popped = self.buckets[bucket_index].free.lock().pop();
        let offset = match popped {
            Some(offset) => offset,
            None => self.grow_bucket(bucket_index)?,
        };
        self.live_chunks.fetch_add(1, Ordering::Relaxed);
        self.total_allocs.fetch_add(1, Ordering::Relaxed);
        Ok(SharedRegion {
            ptr: SharedPtr::new(offset, len as u32),
            bucket: bucket_index,
        })
    }

    /// Allocates a region and copies `data` into it.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`PoolAllocator::alloc`].
    pub fn alloc_and_write(&self, data: &[u8]) -> Result<SharedRegion, RingError> {
        let region = self.alloc(data.len())?;
        self.write(region.ptr(), data);
        Ok(region)
    }

    /// Carves a new segment for `bucket_index`, adding its chunks to the free
    /// list, and returns one chunk for the caller.
    ///
    /// The caller's chunk is taken inside the grow lock's critical section:
    /// were it popped after the lock is released, other threads could drain
    /// the new chunks first and leave the caller with an empty free list.
    fn grow_bucket(&self, bucket_index: usize) -> Result<u32, RingError> {
        let _guard = self.grow_lock.lock();
        let bucket = &self.buckets[bucket_index];
        // Another thread may have grown the bucket while we waited.
        if let Some(offset) = bucket.free.lock().pop() {
            return Ok(offset);
        }
        let chunk_size = bucket.chunk_size;
        let segment_bytes = chunk_size * self.config.chunks_per_segment;
        let used = self.next_offset.load(Ordering::Relaxed) - u64::from(ARENA_BASE);
        if used + segment_bytes as u64 > self.config.pool_size as u64 {
            return Err(RingError::OutOfSharedMemory {
                requested: segment_bytes,
                available: self.config.pool_size.saturating_sub(used as usize),
            });
        }
        let base = self
            .next_offset
            .fetch_add(segment_bytes as u64, Ordering::Relaxed) as u32;
        let segment = Segment {
            base,
            len: segment_bytes as u32,
            data: RwLock::new(vec![0u8; segment_bytes]),
        };
        self.segments.write().push(segment);
        let mut free = bucket.free.lock();
        for chunk in 1..self.config.chunks_per_segment {
            free.push(base + (chunk * chunk_size) as u32);
        }
        Ok(base)
    }

    /// Maps a global arena offset to `(segment index, offset inside it)`.
    ///
    /// Segments are bump-allocated under the grow lock, so the directory is
    /// append-only and base-sorted: a binary search finds the owning segment
    /// in O(log n) instead of scanning (and locking) every segment.
    fn locate(&self, offset: u32) -> Option<(usize, usize)> {
        let segments = self.segments.read();
        let index = segments
            .partition_point(|segment| segment.base <= offset)
            .checked_sub(1)?;
        let segment = &segments[index];
        if offset < segment.base + segment.len {
            Some((index, (offset - segment.base) as usize))
        } else {
            None
        }
    }

    /// Copies `data` into the region identified by `ptr`.
    ///
    /// # Panics
    ///
    /// Panics if `ptr` does not identify a region inside this pool or if
    /// `data` is longer than the region, both of which indicate corruption of
    /// the event stream.
    pub fn write(&self, ptr: SharedPtr, data: &[u8]) {
        assert!(
            data.len() <= ptr.len() as usize,
            "payload of {} bytes does not fit region of {} bytes",
            data.len(),
            ptr.len()
        );
        let (segment_index, local) = self
            .locate(ptr.offset())
            .expect("shared pointer does not belong to this pool");
        let segments = self.segments.read();
        let mut segment = segments[segment_index].data.write();
        segment[local..local + data.len()].copy_from_slice(data);
    }

    /// Reads the full contents of the region identified by `ptr`.
    ///
    /// Allocates a fresh `Vec` per call; hot paths should prefer
    /// [`PoolAllocator::read_into`] (reused buffer) or
    /// [`PoolAllocator::read_with`] (borrow, no copy).
    ///
    /// # Panics
    ///
    /// Panics if `ptr` does not identify a region inside this pool.
    #[must_use]
    pub fn read(&self, ptr: SharedPtr) -> Vec<u8> {
        let mut buf = Vec::with_capacity(ptr.len() as usize);
        self.read_into(ptr, &mut buf);
        buf
    }

    /// Copies the region identified by `ptr` into `buf`, reusing its
    /// capacity (the buffer is cleared first), and returns the number of
    /// bytes copied.
    ///
    /// After the buffer has grown to the largest payload size this performs
    /// zero heap allocations per read, unlike [`PoolAllocator::read`].
    ///
    /// # Panics
    ///
    /// Panics if `ptr` is non-null and does not identify a region inside
    /// this pool.
    pub fn read_into(&self, ptr: SharedPtr, buf: &mut Vec<u8>) -> usize {
        buf.clear();
        if ptr.is_null() {
            return 0;
        }
        self.read_with(ptr, |bytes| buf.extend_from_slice(bytes));
        ptr.len() as usize
    }

    /// Calls `f` with the region's bytes borrowed in place — a zero-copy
    /// read for callers that only inspect the payload.
    ///
    /// # Panics
    ///
    /// Panics if `ptr` is non-null and does not identify a region inside
    /// this pool.
    pub fn read_with<R>(&self, ptr: SharedPtr, f: impl FnOnce(&[u8]) -> R) -> R {
        if ptr.is_null() {
            return f(&[]);
        }
        let (segment_index, local) = self
            .locate(ptr.offset())
            .expect("shared pointer does not belong to this pool");
        let segments = self.segments.read();
        let segment = segments[segment_index].data.read();
        f(&segment[local..local + ptr.len() as usize])
    }

    /// Returns a region's chunk to its bucket's free list.
    ///
    /// # Errors
    ///
    /// Returns [`RingError::ForeignRegion`] if the region does not belong to
    /// this pool and [`RingError::DoubleFree`] if the chunk is already free.
    pub fn free(&self, region: SharedRegion) -> Result<(), RingError> {
        if self.locate(region.ptr().offset()).is_none() {
            return Err(RingError::ForeignRegion);
        }
        let bucket = self
            .buckets
            .get(region.bucket)
            .ok_or(RingError::ForeignRegion)?;
        let poison = self.poison.load(Ordering::Relaxed);
        if poison <= u64::from(u8::MAX) {
            // Overwrite the *whole* chunk (not just the requested length) so
            // any stale SharedPtr into it — whatever its length — reads
            // poison.  Done before the chunk re-enters the free list: a
            // racing re-allocation can only overwrite poison, never the
            // other way around.
            let chunk = vec![poison as u8; bucket.chunk_size];
            let (segment_index, local) = self
                .locate(region.ptr().offset())
                .expect("checked above");
            let segments = self.segments.read();
            let mut segment = segments[segment_index].data.write();
            segment[local..local + bucket.chunk_size].copy_from_slice(&chunk);
        }
        let mut free = bucket.free.lock();
        // O(1) membership check via the free list's mirror set (previously a
        // linear `Vec::contains` scan).
        if !free.push(region.ptr().offset()) {
            return Err(RingError::DoubleFree);
        }
        self.live_chunks.fetch_sub(1, Ordering::Relaxed);
        self.total_frees.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_payloads() {
        let pool = PoolAllocator::default();
        let region = pool.alloc_and_write(b"hello world").unwrap();
        assert_eq!(pool.read(region.ptr()), b"hello world");
        assert_eq!(region.len(), 11);
        pool.free(region).unwrap();
    }

    #[test]
    fn reuses_freed_chunks() {
        let pool = PoolAllocator::default();
        let first = pool.alloc(100).unwrap();
        let offset = first.ptr().offset();
        pool.free(first).unwrap();
        let second = pool.alloc(100).unwrap();
        assert_eq!(second.ptr().offset(), offset, "freed chunk should be reused");
        assert_eq!(pool.stats().live_chunks, 1);
    }

    #[test]
    fn different_sizes_use_different_buckets() {
        let pool = PoolAllocator::default();
        let small = pool.alloc(10).unwrap();
        let large = pool.alloc(5000).unwrap();
        assert_ne!(small.bucket, large.bucket);
        pool.free(small).unwrap();
        pool.free(large).unwrap();
    }

    #[test]
    fn rejects_oversized_allocations() {
        let pool = PoolAllocator::default();
        let err = pool.alloc(1 << 20).unwrap_err();
        assert!(matches!(err, RingError::AllocationTooLarge { .. }));
    }

    #[test]
    fn exhausts_pool_gracefully() {
        let pool = PoolAllocator::new(PoolConfig {
            pool_size: 1024,
            bucket_sizes: vec![256],
            chunks_per_segment: 4,
        });
        // One segment of 4 * 256 = 1024 bytes fits; the next does not.
        let regions: Vec<_> = (0..4).map(|_| pool.alloc(200).unwrap()).collect();
        let err = pool.alloc(200).unwrap_err();
        assert!(matches!(err, RingError::OutOfSharedMemory { .. }));
        for region in regions {
            pool.free(region).unwrap();
        }
        // After freeing, chunks are reusable without growing the arena.
        assert!(pool.alloc(200).is_ok());
    }

    #[test]
    fn poison_on_free_overwrites_the_chunk() {
        let pool = PoolAllocator::default();
        pool.set_poison_on_free(Some(0x5a));
        let region = pool.alloc_and_write(b"live payload").unwrap();
        let stale = region.ptr();
        pool.free(region).unwrap();
        // The stale pointer now reads poison, not the old payload.
        assert_eq!(pool.read(stale), vec![0x5a; stale.len() as usize]);
        // Re-allocation overwrites the poison as usual.
        let fresh = pool.alloc_and_write(b"new payload!").unwrap();
        assert_eq!(pool.read(fresh.ptr()), b"new payload!");
        pool.set_poison_on_free(None);
        let offset = fresh.ptr().offset();
        pool.free(fresh).unwrap();
        let reused = pool.alloc(12).unwrap();
        assert_eq!(reused.ptr().offset(), offset);
        // Poison disabled: the old bytes are simply stale, not poisoned.
        assert_eq!(pool.read(reused.ptr()), b"new payload!");
    }

    #[test]
    fn double_free_is_detected() {
        let pool = PoolAllocator::default();
        let region = pool.alloc(32).unwrap();
        pool.free(region).unwrap();
        assert_eq!(pool.free(region).unwrap_err(), RingError::DoubleFree);
    }

    #[test]
    fn zero_length_allocations_are_valid() {
        let pool = PoolAllocator::default();
        let region = pool.alloc_and_write(b"").unwrap();
        assert!(region.is_empty());
        assert!(pool.read(region.ptr()).is_empty());
        pool.free(region).unwrap();
    }

    #[test]
    fn null_pointer_reads_empty() {
        let pool = PoolAllocator::default();
        assert!(pool.read(SharedPtr::NULL).is_empty());
        let mut buf = vec![1, 2, 3];
        assert_eq!(pool.read_into(SharedPtr::NULL, &mut buf), 0);
        assert!(buf.is_empty());
        assert_eq!(pool.read_with(SharedPtr::NULL, <[u8]>::len), 0);
    }

    #[test]
    fn read_into_reuses_buffer_capacity() {
        let pool = PoolAllocator::default();
        let big = pool.alloc_and_write(&[0xaa; 900]).unwrap();
        let small = pool.alloc_and_write(b"tiny").unwrap();
        let mut buf = Vec::new();
        assert_eq!(pool.read_into(big.ptr(), &mut buf), 900);
        assert_eq!(buf, vec![0xaa; 900]);
        let capacity = buf.capacity();
        assert_eq!(pool.read_into(small.ptr(), &mut buf), 4);
        assert_eq!(buf, b"tiny");
        assert_eq!(buf.capacity(), capacity, "read_into must not reallocate");
    }

    #[test]
    fn read_with_borrows_in_place() {
        let pool = PoolAllocator::default();
        let region = pool.alloc_and_write(b"zero copy").unwrap();
        let sum: u64 = pool.read_with(region.ptr(), |bytes| {
            bytes.iter().map(|&b| u64::from(b)).sum()
        });
        assert_eq!(sum, b"zero copy".iter().map(|&b| u64::from(b)).sum());
    }

    #[test]
    fn locate_finds_regions_across_many_segments() {
        // Small segments force many grow calls; the base-sorted binary
        // search must resolve a pointer in every one of them.
        let pool = PoolAllocator::new(PoolConfig {
            pool_size: 1024 * 1024,
            bucket_sizes: vec![32, 128],
            chunks_per_segment: 2,
        });
        let mut regions = Vec::new();
        for i in 0..64u8 {
            let len = if i % 2 == 0 { 20 } else { 100 };
            let payload = vec![i; len];
            regions.push((pool.alloc_and_write(&payload).unwrap(), payload));
        }
        assert!(pool.stats().segments >= 32);
        for (region, payload) in &regions {
            assert_eq!(&pool.read(region.ptr()), payload);
        }
        // Offsets outside every segment are rejected, not misattributed.
        assert!(matches!(
            pool.free(SharedRegion {
                ptr: SharedPtr::new(u32::MAX - 8, 4),
                bucket: 0
            }),
            Err(RingError::ForeignRegion)
        ));
        assert!(matches!(
            pool.free(SharedRegion {
                ptr: SharedPtr::new(1, 4),
                bucket: 0
            }),
            Err(RingError::ForeignRegion)
        ));
    }

    #[test]
    fn offsets_never_collide_across_buckets() {
        let pool = PoolAllocator::default();
        let mut offsets = std::collections::HashSet::new();
        for len in [8usize, 100, 1000, 4000, 16000, 60000, 8, 100] {
            let region = pool.alloc(len).unwrap();
            assert!(
                offsets.insert(region.ptr().offset()),
                "offset collision for len {len}"
            );
        }
    }

    #[test]
    fn concurrent_allocations_are_disjoint() {
        let pool = std::sync::Arc::new(PoolAllocator::default());
        let mut handles = Vec::new();
        for thread in 0..4u8 {
            let pool = std::sync::Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                let mut regions = Vec::new();
                for i in 0..50u8 {
                    let payload = vec![thread ^ i; 128];
                    regions.push((pool.alloc_and_write(&payload).unwrap(), payload));
                }
                for (region, payload) in &regions {
                    assert_eq!(&pool.read(region.ptr()), payload);
                }
                for (region, _) in regions {
                    pool.free(region).unwrap();
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let stats = pool.stats();
        assert_eq!(stats.live_chunks, 0);
        assert_eq!(stats.total_allocs, 200);
        assert_eq!(stats.total_frees, 200);
    }

    #[test]
    fn racing_growers_each_get_a_chunk() {
        // Two chunks per segment and no frees: the bucket grows every other
        // allocation, so callers constantly race a grower for its new chunks.
        const THREADS: usize = 8;
        const ALLOCS: usize = 1_000;
        let pool = PoolAllocator::new(PoolConfig {
            pool_size: 64 * THREADS * ALLOCS,
            bucket_sizes: vec![64],
            chunks_per_segment: 2,
        });
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..ALLOCS {
                        pool.alloc(64).unwrap();
                    }
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.live_chunks, (THREADS * ALLOCS) as u64);
        assert_eq!(stats.segments, (THREADS * ALLOCS / 2) as u64);
    }
}
