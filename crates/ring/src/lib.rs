//! Shared-memory event-streaming primitives for the VARAN N-version execution
//! framework reproduction.
//!
//! This crate contains the communication substrate described in §3.3 of
//! *"Varan the Unbelievable: An Efficient N-version Execution Framework"*
//! (Hosek & Cadar, ASPLOS 2015):
//!
//! * [`Event`] — the fixed-size (64-byte, cache-line sized) record the leader
//!   publishes for every external action (system call, signal, fork, exit).
//! * [`RingBuffer`] — a Disruptor-style single-producer / multi-consumer ring
//!   buffer held entirely in memory, giving genuinely lock-free communication
//!   between the leader and its followers (§3.3.1): seqlock slot storage
//!   under cursor-gated publication, a cached minimum gating sequence in the
//!   producer, and batched consumption that advances the gating sequence
//!   once per drained batch (see `ring.rs` module docs for the ordering
//!   argument).
//! * [`WaitLock`] — the blocking-wait primitive used by followers when the
//!   leader is stuck in a long blocking system call (§3.3.1).
//! * [`LamportClock`] — the per-variant logical clock used to order events
//!   across the ring buffers of a multi-threaded application (§3.3.3).
//! * [`PoolAllocator`] — the bucketed shared-memory pool allocator used for
//!   out-of-line system-call payloads (§3.3.4).
//! * [`journal`] — the segmented, disk-backed spill journal that extends the
//!   bounded in-memory ring into an unbounded catch-up log for followers
//!   that join (or lag) at runtime, with retention anchored at the oldest
//!   live kernel checkpoint, per-frame CRC32C checksums ([`crc32c`]),
//!   sealed-segment trailer hashes, a verify-on-reopen scrub and
//!   anchor-aligned compaction (docs/DURABILITY.md).
//!
//! In the original system these structures live in a POSIX shared-memory
//! segment mapped into every version's address space; in this reproduction the
//! versions are threads of one process and the structures are shared through
//! [`std::sync::Arc`], which preserves the synchronisation algorithms and
//! memory layout while remaining portable (see `DESIGN.md`, substitution
//! table).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use varan_ring::{Event, EventKind, RingBuffer, WaitStrategy};
//!
//! # fn main() -> Result<(), varan_ring::RingError> {
//! // A leader and two followers share a 256-slot ring.
//! let ring: Arc<RingBuffer<Event>> = Arc::new(RingBuffer::new(256, 2, WaitStrategy::Spin)?);
//! let producer = ring.producer();
//! let mut consumer = ring.consumer(0)?;
//!
//! producer.publish(Event::syscall(1 /* write */, &[1, 0, 64], 64));
//! let event = consumer.next_blocking();
//! assert_eq!(event.kind(), EventKind::Syscall);
//! assert_eq!(event.result(), 64);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod clock;
pub mod crc32c;
mod error;
mod event;
pub mod journal;
mod ring;
mod sequence;
pub mod shard;
mod shmem;
mod waitlock;

pub use clock::{ClockOrdering, LamportClock, VariantClock};
pub use error::RingError;
pub use event::{
    fold_signature, Event, EventKind, SharedPtr, EVENT_INLINE_ARGS, EVENT_SIZE,
    SIGNATURE_FOLD_SEED,
};
pub use journal::{
    EventJournal, JournalConfig, JournalError, JournalFaults, JournalRecord, ScrubKind,
    ScrubReport,
};
pub use ring::{Consumer, Producer, RingBuffer, WaitStrategy};
pub use sequence::Sequence;
pub use shard::{shard_for_key, Shard, ShardError, ShardSet, ShardSpec};
pub use shmem::{AllocStats, PoolAllocator, PoolConfig, SharedRegion};
pub use waitlock::WaitLock;
