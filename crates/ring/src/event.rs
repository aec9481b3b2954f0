//! The fixed-size event record streamed from the leader to its followers.
//!
//! Each event is deliberately sized to a single cache line (64 bytes on
//! modern x86 CPUs, §3.3.1 of the paper) so that publishing an event never
//! straddles cache lines.  System calls whose arguments are passed by value
//! fit entirely into one event; arguments passed by reference are copied into
//! the shared memory pool and the event only carries a [`SharedPtr`]
//! identifying that region.

use serde::{Deserialize, Serialize};

/// Size, in bytes, of a single event: exactly one cache line.
pub const EVENT_SIZE: usize = 64;

/// Seed of the per-batch signature digest: the FNV-1a offset basis.
///
/// A divergence-checking window starts its running digest here and folds
/// each event's [`Event::signature`] in with [`fold_signature`]; leader and
/// follower digests over the same event sequence are then bit-identical.
pub const SIGNATURE_FOLD_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one per-event signature into a running batch digest (FNV-1a over
/// the eight little-endian bytes of `sig`).
///
/// The fold is order-sensitive, so two windows that contain the same
/// signatures in a different order produce different digests — a reordered
/// replay is a divergence, not a rearrangement.
#[must_use]
pub fn fold_signature(acc: u64, sig: u64) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut acc = acc;
    for byte in sig.to_le_bytes() {
        acc = (acc ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    acc
}

/// Number of by-value system-call arguments that fit inline in an event.
///
/// x86-64 system calls take up to six register arguments; the event keeps the
/// first four inline (the remaining two are only needed by a handful of calls
/// and are spilled to shared memory when present).
pub const EVENT_INLINE_ARGS: usize = 4;

/// Classification of the external actions recorded by the leader.
///
/// Events consist primarily of regular system-call invocations, but also of
/// signals, process forks and exits (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(u8)]
pub enum EventKind {
    /// Padding/unused slot. Freshly initialised ring slots hold this kind.
    Empty = 0,
    /// A regular system call executed by the leader.
    Syscall = 1,
    /// An asynchronous signal delivered to the leader.
    Signal = 2,
    /// A `fork`/`clone` performed by the leader; followers must fork too.
    Fork = 3,
    /// An `exit`/`exit_group`; followers must terminate the matching task.
    Exit = 4,
    /// A file descriptor was transferred over the data channel (§3.3.2);
    /// the event synchronises the point at which followers must receive it.
    FdTransfer = 5,
    /// Leader replacement notification used during transparent failover (§5.1).
    LeaderSwitch = 6,
    /// Synthetic checkpoint marker used by the record-replay clients (§5.4).
    Checkpoint = 7,
}

impl EventKind {
    /// Returns `true` for events that terminate the task that issued them.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, EventKind::Exit)
    }

    /// Looks a kind up by its `u8` value (the on-disk journal encoding).
    #[must_use]
    pub fn from_u8(value: u8) -> Option<EventKind> {
        Some(match value {
            0 => EventKind::Empty,
            1 => EventKind::Syscall,
            2 => EventKind::Signal,
            3 => EventKind::Fork,
            4 => EventKind::Exit,
            5 => EventKind::FdTransfer,
            6 => EventKind::LeaderSwitch,
            7 => EventKind::Checkpoint,
            _ => return None,
        })
    }
}

impl Default for EventKind {
    fn default() -> Self {
        EventKind::Empty
    }
}

/// A "shared pointer": an offset/length pair identifying a region inside the
/// shared memory pool (§3.3.1).
///
/// Events are only 64 bytes, so payloads that do not fit (e.g. the buffer
/// returned by `read`) are placed in pool memory and referenced by one of
/// these handles.  The null handle (`offset == 0 && len == 0`) means "no
/// out-of-line payload".
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct SharedPtr {
    offset: u32,
    len: u32,
}

impl SharedPtr {
    /// The null shared pointer: no out-of-line payload.
    pub const NULL: SharedPtr = SharedPtr { offset: 0, len: 0 };

    /// Creates a shared pointer covering `len` bytes starting at `offset`
    /// inside the pool arena.
    #[must_use]
    pub fn new(offset: u32, len: u32) -> Self {
        SharedPtr { offset, len }
    }

    /// Offset of the region inside the pool arena, in bytes.
    #[must_use]
    pub fn offset(self) -> u32 {
        self.offset
    }

    /// Length of the region, in bytes.
    #[must_use]
    pub fn len(self) -> u32 {
        self.len
    }

    /// Returns `true` if this is the null handle (no payload).
    #[must_use]
    pub fn is_null(self) -> bool {
        self == Self::NULL
    }

    /// Returns `true` if the region is zero length.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// A single 64-byte record in the event stream.
///
/// The leader writes one event for every intercepted external action; the
/// followers read the stream and mimic the leader's behaviour without
/// re-executing the action themselves (§3.3).
///
/// # Examples
///
/// ```
/// use varan_ring::{Event, EventKind};
///
/// let event = Event::syscall(0 /* read */, &[3, 0, 512], 512).with_clock(7).with_tid(2);
/// assert_eq!(event.kind(), EventKind::Syscall);
/// assert_eq!(event.sysno(), 0);
/// assert_eq!(event.result(), 512);
/// assert_eq!(event.clock(), 7);
/// assert_eq!(event.tid(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(C, align(64))]
pub struct Event {
    kind: EventKind,
    /// System call (or signal) number.
    sysno: u16,
    /// Thread index within the variant that produced the event.
    tid: u32,
    /// Lamport timestamp attached by the producing variant (§3.3.3).
    clock: u64,
    /// Result returned by the leader's execution of the action.
    result: i64,
    /// Inline by-value arguments.
    args: [u64; EVENT_INLINE_ARGS],
    /// Out-of-line payload, if any.
    shared: SharedPtr,
}

impl Default for Event {
    fn default() -> Self {
        Event {
            kind: EventKind::Empty,
            sysno: 0,
            tid: 0,
            clock: 0,
            result: 0,
            args: [0; EVENT_INLINE_ARGS],
            shared: SharedPtr::NULL,
        }
    }
}

impl Event {
    /// Creates a system-call event with the given number, inline arguments and
    /// result.
    ///
    /// At most [`EVENT_INLINE_ARGS`] arguments are stored inline; extra
    /// arguments must be spilled to shared memory by the caller.
    #[must_use]
    pub fn syscall(sysno: u16, args: &[u64], result: i64) -> Self {
        let mut inline = [0u64; EVENT_INLINE_ARGS];
        for (slot, value) in inline.iter_mut().zip(args.iter()) {
            *slot = *value;
        }
        Event {
            kind: EventKind::Syscall,
            sysno,
            args: inline,
            result,
            ..Event::default()
        }
    }

    /// Creates a signal-delivery event for signal number `signo`.
    #[must_use]
    pub fn signal(signo: u16) -> Self {
        Event {
            kind: EventKind::Signal,
            sysno: signo,
            ..Event::default()
        }
    }

    /// Creates a fork event; `child` identifies the new process tuple.
    #[must_use]
    pub fn fork(child: u64) -> Self {
        Event {
            kind: EventKind::Fork,
            args: [child, 0, 0, 0],
            ..Event::default()
        }
    }

    /// Creates an exit event carrying the exit status of the leader task.
    #[must_use]
    pub fn exit(status: i64) -> Self {
        Event {
            kind: EventKind::Exit,
            result: status,
            ..Event::default()
        }
    }

    /// Creates a file-descriptor-transfer synchronisation event.
    ///
    /// The descriptor value observed by the leader is carried in `fd`; the
    /// actual duplication happens over the data channel (§3.3.2).
    #[must_use]
    pub fn fd_transfer(fd: i64) -> Self {
        Event {
            kind: EventKind::FdTransfer,
            result: fd,
            ..Event::default()
        }
    }

    /// Creates a leader-switch notification used during transparent failover.
    #[must_use]
    pub fn leader_switch(new_leader: u64) -> Self {
        Event {
            kind: EventKind::LeaderSwitch,
            args: [new_leader, 0, 0, 0],
            ..Event::default()
        }
    }

    /// Creates a checkpoint marker used by the record-replay clients.
    #[must_use]
    pub fn checkpoint(id: u64) -> Self {
        Event {
            kind: EventKind::Checkpoint,
            args: [id, 0, 0, 0],
            ..Event::default()
        }
    }

    /// Overrides the event kind, consuming and returning the event.  Used
    /// when reconstructing an event from its journal record, whose frame
    /// stores the kind explicitly.
    #[must_use]
    pub fn with_kind(mut self, kind: EventKind) -> Self {
        self.kind = kind;
        self
    }

    /// Attaches a Lamport timestamp, consuming and returning the event.
    #[must_use]
    pub fn with_clock(mut self, clock: u64) -> Self {
        self.clock = clock;
        self
    }

    /// Attaches the producing thread index, consuming and returning the event.
    #[must_use]
    pub fn with_tid(mut self, tid: u32) -> Self {
        self.tid = tid;
        self
    }

    /// Attaches an out-of-line payload handle, consuming and returning the event.
    #[must_use]
    pub fn with_shared(mut self, shared: SharedPtr) -> Self {
        self.shared = shared;
        self
    }

    /// Overrides the recorded result, consuming and returning the event.
    #[must_use]
    pub fn with_result(mut self, result: i64) -> Self {
        self.result = result;
        self
    }

    /// The kind of external action this event records.
    #[must_use]
    pub fn kind(&self) -> EventKind {
        self.kind
    }

    /// The system-call (or signal) number.
    #[must_use]
    pub fn sysno(&self) -> u16 {
        self.sysno
    }

    /// The producing thread index within its variant.
    #[must_use]
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// The Lamport timestamp attached by the producing variant.
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The result the leader observed for this action.
    #[must_use]
    pub fn result(&self) -> i64 {
        self.result
    }

    /// The inline by-value arguments.
    #[must_use]
    pub fn args(&self) -> &[u64; EVENT_INLINE_ARGS] {
        &self.args
    }

    /// The out-of-line payload handle ([`SharedPtr::NULL`] when absent).
    #[must_use]
    pub fn shared(&self) -> SharedPtr {
        self.shared
    }

    /// Returns `true` if the event carries an out-of-line payload.
    #[must_use]
    pub fn has_payload(&self) -> bool {
        !self.shared.is_null()
    }

    /// The event's replay signature: a multiply-xor-rotate mix of the
    /// identity fields a follower can compute *before* replaying the call —
    /// kind, sysno, tid (packed into one word) and the inline arguments.
    ///
    /// Every step of the mix is a bijection of the running state, so two
    /// events that differ in any single identity field always get different
    /// signatures.  The signature only gates the divergence fast path: a
    /// batch whose folded digest mismatches is re-walked event by event, so
    /// the mix needs no CRC-strength error detection.
    ///
    /// The Lamport clock, the leader's result and the payload handle are
    /// deliberately excluded: those are assigned by the leader, so a
    /// follower computes the identical signature from its own intercepted
    /// request and the divergence fast path can compare one folded digest
    /// per batch ([`fold_signature`]) instead of byte-comparing events.
    #[must_use]
    pub fn signature(&self) -> u64 {
        const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
        let identity =
            u64::from(self.kind as u8) | u64::from(self.sysno) << 8 | u64::from(self.tid) << 24;
        let mut sig = identity.wrapping_mul(MUL);
        for &arg in &self.args {
            sig = (sig.rotate_left(23) ^ arg).wrapping_mul(MUL);
        }
        sig ^ (sig >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_fits_one_cache_line() {
        assert_eq!(std::mem::size_of::<Event>(), EVENT_SIZE);
        assert_eq!(std::mem::align_of::<Event>(), EVENT_SIZE);
    }

    #[test]
    fn syscall_event_truncates_extra_args() {
        let event = Event::syscall(9, &[1, 2, 3, 4, 5, 6], 0);
        assert_eq!(event.args(), &[1, 2, 3, 4]);
    }

    #[test]
    fn syscall_event_pads_missing_args() {
        let event = Event::syscall(9, &[42], -1);
        assert_eq!(event.args(), &[42, 0, 0, 0]);
        assert_eq!(event.result(), -1);
    }

    #[test]
    fn builders_compose() {
        let ptr = SharedPtr::new(128, 512);
        let event = Event::syscall(0, &[3], 512)
            .with_clock(99)
            .with_tid(7)
            .with_shared(ptr)
            .with_result(256);
        assert_eq!(event.clock(), 99);
        assert_eq!(event.tid(), 7);
        assert_eq!(event.shared(), ptr);
        assert_eq!(event.result(), 256);
        assert!(event.has_payload());
    }

    #[test]
    fn constructors_set_kinds() {
        assert_eq!(Event::signal(11).kind(), EventKind::Signal);
        assert_eq!(Event::fork(3).kind(), EventKind::Fork);
        assert_eq!(Event::exit(0).kind(), EventKind::Exit);
        assert_eq!(Event::fd_transfer(5).kind(), EventKind::FdTransfer);
        assert_eq!(Event::leader_switch(1).kind(), EventKind::LeaderSwitch);
        assert_eq!(Event::checkpoint(9).kind(), EventKind::Checkpoint);
        assert_eq!(Event::default().kind(), EventKind::Empty);
    }

    #[test]
    fn exit_is_terminal() {
        assert!(EventKind::Exit.is_terminal());
        assert!(!EventKind::Syscall.is_terminal());
    }

    #[test]
    fn shared_ptr_null_semantics() {
        assert!(SharedPtr::NULL.is_null());
        assert!(SharedPtr::NULL.is_empty());
        assert!(!SharedPtr::new(64, 8).is_null());
        assert!(SharedPtr::new(64, 0).is_empty());
        assert!(!Event::default().has_payload());
    }

    #[test]
    fn signature_covers_identity_fields_only() {
        let base = Event::syscall(1, &[3, 0, 512], 512);
        // Leader-assigned fields do not perturb the signature: a follower
        // computes the same value from its own request before replay.
        assert_eq!(base.signature(), base.with_clock(77).signature());
        assert_eq!(base.signature(), base.with_result(-1).signature());
        assert_eq!(
            base.signature(),
            base.with_shared(SharedPtr::new(64, 8)).signature()
        );
        // Identity fields do.
        assert_ne!(base.signature(), base.with_tid(2).signature());
        assert_ne!(base.signature(), Event::syscall(2, &[3, 0, 512], 512).signature());
        assert_ne!(base.signature(), Event::syscall(1, &[4, 0, 512], 512).signature());
        assert_ne!(base.signature(), Event::signal(1).signature());

        // Seeded single-field changes across every identity field: each
        // one must move the signature.
        let mut state = 0x5EED_5167_0000_0001u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let event = |kind, sysno, tid, args: [u64; EVENT_INLINE_ARGS]| {
            Event::syscall(sysno, &args, 0)
                .with_kind(kind)
                .with_tid(tid)
        };
        for round in 0..10_000u64 {
            let kind = EventKind::from_u8((next() % 8) as u8).unwrap();
            let (sysno, tid) = (next() as u16, next() as u32);
            let args = [next(), next(), next(), next()];
            let original = event(kind, sysno, tid, args);
            // Half the changes flip a single bit, half xor a random mask.
            let mut delta = next();
            if round % 2 == 0 {
                delta = 1 << (delta % 64);
            }
            delta = delta.max(1);
            let field = round % 7;
            let changed = match field {
                0 => {
                    let other = (kind as u64 + 1 + delta % 7) % 8;
                    event(EventKind::from_u8(other as u8).unwrap(), sysno, tid, args)
                }
                1 => event(kind, sysno ^ (delta as u16).max(1), tid, args),
                2 => event(kind, sysno, tid ^ (delta as u32).max(1), args),
                arg => {
                    let mut args = args;
                    args[arg as usize - 3] ^= delta;
                    event(kind, sysno, tid, args)
                }
            };
            assert_ne!(original, changed);
            assert_ne!(
                original.signature(),
                changed.signature(),
                "round {round}: change to field {field} left the signature unchanged"
            );
        }
    }

    #[test]
    fn fold_is_order_sensitive_and_deterministic() {
        let a = Event::syscall(0, &[1], 0).signature();
        let b = Event::syscall(1, &[2], 0).signature();
        let ab = fold_signature(fold_signature(SIGNATURE_FOLD_SEED, a), b);
        let ba = fold_signature(fold_signature(SIGNATURE_FOLD_SEED, b), a);
        assert_ne!(ab, ba, "fold must detect reordered replay");
        assert_eq!(
            ab,
            fold_signature(fold_signature(SIGNATURE_FOLD_SEED, a), b),
            "fold is deterministic"
        );
    }

    #[test]
    fn events_are_send_sync_copy() {
        fn assert_traits<T: Send + Sync + Copy + Default>() {}
        assert_traits::<Event>();
    }
}
