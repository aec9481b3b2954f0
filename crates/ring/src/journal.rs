//! The spill-to-disk event journal: a segmented, append-only, disk-backed
//! log of the leader's event stream.
//!
//! The in-memory ring buffer (§3.3.1) is deliberately tiny — one lap of
//! events — which is exactly why a *late-joining* or *lagging* follower can
//! never be served from it: by the time the follower attaches, the slots it
//! needs have been recycled.  The journal solves this by having the producer
//! spill every published event to an append-only log on disk.  Followers that
//! are catching up read the journal at their own pace without ever gating
//! the leader's ring space; only once a follower is within one ring lap of
//! the cursor does it register a gating sequence and switch to live ring
//! consumption (see `varan_core::fleet`).
//!
//! # Checkpoint-anchored retention and compaction
//!
//! The journal cannot grow forever.  Retention is anchored at the **oldest
//! live checkpoint**: a joiner restores a kernel checkpoint taken at event
//! sequence `S` and then replays the journal from `S`, so every segment
//! whose events all precede the oldest checkpoint any live (or future)
//! joiner could restore from is dead weight and is deleted by
//! [`EventJournal::set_anchor`].  Whole segments are the retention unit,
//! so the segment *straddling* the anchor survives with a dead prefix;
//! [`EventJournal::compact_to_anchor`] rewrites that segment into a fresh
//! checksummed one starting exactly at the anchor, keeping the disk
//! footprint and a joiner's replay length bounded by the checkpoint
//! cadence rather than by history (docs/DURABILITY.md).
//!
//! # On-disk format (v2)
//!
//! One format serves both this journal and the record-replay log
//! (`varan_core::record_replay` encodes its `RecordLog` as a single segment
//! with first-sequence 0): a segment file is the [`SEGMENT_MAGIC`] header,
//! the little-endian `u64` sequence number of its first record, then a run
//! of frames.  Each frame is a fixed 79-byte header (kind, sysno, tid,
//! clock, result, six argument registers, payload length), the payload
//! bytes, and a little-endian CRC32C over everything from the first header
//! byte through the last payload byte.  A *sealed* segment (rotated away
//! from, or a saved record-replay log) ends with a 16-byte trailer:
//! [`TRAILER_MAGIC`] plus a rolling FNV-1a fold of every frame's CRC, so a
//! spliced or re-ordered segment is caught even if each individual frame
//! still checksums.
//!
//! Decoding validates every length against the remaining input and every
//! frame against its CRC, so a truncated, bit-flipped or spliced file
//! yields a [`JournalError`] naming the byte offset — or, for the *final*
//! segment of a journal that died mid-append, a clean truncation to the
//! last whole frame.  [`EventJournal::open`] scrubs every segment: damage
//! beyond a routine torn tail quarantines the journal's damaged suffix
//! (the bytes are preserved as `.quarantine` files, never silently
//! absorbed) and is reported via [`EventJournal::scrub_reports`].

use std::collections::VecDeque;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::crc32c::crc32c;
use crate::event::{Event, EventKind, EVENT_INLINE_ARGS};

/// Magic bytes opening every journal segment (and every record-replay log).
/// The `2` is the frame-format version: v2 added per-frame CRC32C and the
/// sealed-segment trailer, and is not readable by (or from) v1.
pub const SEGMENT_MAGIC: &[u8; 8] = b"VRNJSEG2";

/// Magic bytes opening the 16-byte trailer that seals a finished segment.
/// The first byte (`V`) is not a valid [`EventKind`], so a decoder can
/// never mistake a trailer for a frame even before checking all 8 bytes.
pub const TRAILER_MAGIC: &[u8; 8] = b"VRNJTRL2";

/// Number of argument registers preserved per record (the full x86-64
/// system-call register set, not just the [`EVENT_INLINE_ARGS`] an in-ring
/// event keeps inline).
pub const JOURNAL_ARGS: usize = 6;

/// Fixed size of a frame before its payload bytes.
const FRAME_HEADER: usize = 1 + 2 + 4 + 8 + 8 + 8 * JOURNAL_ARGS + 8;

/// Bytes of CRC32C appended after each frame's payload.
const FRAME_CRC: usize = 4;

/// Total size of the sealed-segment trailer: magic plus the CRC fold.
const TRAILER_LEN: usize = 16;

/// FNV-1a basis for the trailer's rolling fold of frame CRCs.
const TRAILER_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a multiplier for the trailer fold.
const TRAILER_PRIME: u64 = 0x0100_0000_01b3;

/// Payload-length marker meaning "no payload" (distinct from an empty one).
const NO_PAYLOAD: u64 = u64::MAX;

/// Upper bound accepted for a single payload while decoding; anything larger
/// is treated as corruption rather than attempted as an allocation.
const MAX_PAYLOAD: u64 = 1 << 30;

/// Folds one frame's CRC into the trailer's rolling hash.
fn fold_frame_crc(hash: u64, crc: u32) -> u64 {
    let mut hash = hash;
    for byte in crc.to_le_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(TRAILER_PRIME);
    }
    hash
}

/// The trailer fold's starting state: the segment's first-sequence field is
/// folded in ahead of any frame CRC, so a sealed segment's *numbering* is
/// protected too — a bit flip in the header's sequence would otherwise
/// silently renumber every record in the segment.
fn trailer_basis(first_seq: u64) -> u64 {
    let mut hash = TRAILER_BASIS;
    for byte in first_seq.to_le_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(TRAILER_PRIME);
    }
    hash
}

/// The trailer fold a writer resuming mid-segment must continue from.
fn fold_records(first_seq: u64, records: &[JournalRecord]) -> u64 {
    let mut fold = trailer_basis(first_seq);
    let mut scratch = Vec::new();
    for record in records {
        scratch.clear();
        fold = fold_frame_crc(fold, record.encode_into(&mut scratch));
    }
    fold
}

/// Errors produced while encoding, decoding or persisting journal data.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum JournalError {
    /// The bytes do not start with [`SEGMENT_MAGIC`].
    BadMagic,
    /// The input ended in the middle of a header, frame or trailer.
    Truncated {
        /// Byte offset at which the input ran out.
        offset: usize,
    },
    /// A frame carried a field that cannot be valid (unknown event kind,
    /// absurd payload length) or failed its checksum.
    Corrupt {
        /// Byte offset of the offending frame.
        offset: usize,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// A frame-level error, wrapped with the identity of the segment it
    /// occurred in so multi-segment readers report *which* file failed.
    InSegment {
        /// First sequence number of the failing segment.
        first_seq: u64,
        /// The frame-level error inside it.
        error: Box<JournalError>,
    },
    /// An I/O error while reading or writing segment files.
    Io(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::BadMagic => write!(f, "journal segment: missing magic header"),
            JournalError::Truncated { offset } => {
                write!(f, "journal segment truncated at byte {offset}")
            }
            JournalError::Corrupt { offset, reason } => {
                write!(f, "journal segment corrupt at byte {offset}: {reason}")
            }
            JournalError::InSegment { first_seq, error } => {
                write!(f, "journal segment starting at sequence {first_seq}: {error}")
            }
            JournalError::Io(err) => write!(f, "journal i/o error: {err}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(err: std::io::Error) -> Self {
        JournalError::Io(err.to_string())
    }
}

/// One event as persisted in the journal: the ring event's fields plus the
/// two argument registers and the out-of-line payload that do not fit in a
/// 64-byte ring slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalRecord {
    /// The kind of external action ([`EventKind`] as its `u8` value).
    pub kind: EventKind,
    /// System call (or signal) number.
    pub sysno: u16,
    /// Producing thread index within the variant.
    pub tid: u32,
    /// Lamport timestamp attached by the producing variant.
    pub clock: u64,
    /// Result the leader observed.
    pub result: i64,
    /// All six argument registers.
    pub args: [u64; JOURNAL_ARGS],
    /// Out-of-line payload, materialised inline on disk.
    pub payload: Option<Vec<u8>>,
}

impl JournalRecord {
    /// Builds a record from an in-ring event and its copied-out payload.
    /// The two argument registers an event does not keep inline are zero.
    #[must_use]
    pub fn from_event(event: &Event, payload: Option<Vec<u8>>) -> Self {
        let mut args = [0u64; JOURNAL_ARGS];
        args[..EVENT_INLINE_ARGS].copy_from_slice(event.args());
        JournalRecord {
            kind: event.kind(),
            sysno: event.sysno(),
            tid: event.tid(),
            clock: event.clock(),
            result: event.result(),
            args,
            payload,
        }
    }

    /// Reconstructs the in-ring view of this record (the payload, which
    /// would live in the shared pool, is returned separately by the caller
    /// holding this record).
    #[must_use]
    pub fn to_event(&self) -> Event {
        Event::syscall(self.sysno, &self.args[..EVENT_INLINE_ARGS], self.result)
            .with_kind(self.kind)
            .with_tid(self.tid)
            .with_clock(self.clock)
    }

    /// Appends this record's frame to `out` and returns the frame's CRC32C
    /// (computed over the header and payload bytes, stored after them).
    pub fn encode_into(&self, out: &mut Vec<u8>) -> u32 {
        let start = out.len();
        self.encode_into_unchecked(out);
        let crc = crc32c(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
        crc
    }

    /// Appends this record's frame *without* the trailing CRC32C.
    ///
    /// The result is not decodable — [`JournalRecord::decode_from`] will
    /// report it truncated or checksum-mismatched.  This exists so the
    /// benchmark suite can measure the checksum's cost on the leader's
    /// spill path (`ring.journal.encode_nocrc_ns_4k` in `benchmark/`); every
    /// production writer goes through [`JournalRecord::encode_into`].
    pub fn encode_into_unchecked(&self, out: &mut Vec<u8>) {
        out.push(self.kind as u8);
        out.extend_from_slice(&self.sysno.to_le_bytes());
        out.extend_from_slice(&self.tid.to_le_bytes());
        out.extend_from_slice(&self.clock.to_le_bytes());
        out.extend_from_slice(&self.result.to_le_bytes());
        for arg in self.args {
            out.extend_from_slice(&arg.to_le_bytes());
        }
        match &self.payload {
            Some(payload) => {
                out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
                out.extend_from_slice(payload);
            }
            None => out.extend_from_slice(&NO_PAYLOAD.to_le_bytes()),
        }
    }

    /// Decodes one frame starting at `*cursor`, advancing the cursor past it.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Truncated`] if the input ends inside the
    /// frame and [`JournalError::Corrupt`] for invalid field values or a
    /// checksum mismatch; the cursor is left unspecified on error.
    pub fn decode_from(bytes: &[u8], cursor: &mut usize) -> Result<Self, JournalError> {
        let start = *cursor;
        let header = bytes
            .get(start..start.saturating_add(FRAME_HEADER))
            .ok_or(JournalError::Truncated { offset: start })?;
        let take8 = |at: usize| -> u64 {
            u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"))
        };
        let payload_len = take8(23 + 8 * JOURNAL_ARGS);
        let mut at = start + FRAME_HEADER;
        let payload_bytes = if payload_len == NO_PAYLOAD {
            None
        } else {
            if payload_len > MAX_PAYLOAD {
                return Err(JournalError::Corrupt {
                    offset: start,
                    reason: "payload length exceeds the 1 GiB bound",
                });
            }
            let end = at
                .checked_add(payload_len as usize)
                .ok_or(JournalError::Corrupt {
                    offset: start,
                    reason: "payload length overflows",
                })?;
            let payload = bytes
                .get(at..end)
                .ok_or(JournalError::Truncated { offset: at })?;
            at = end;
            Some(payload)
        };
        // Verify the checksum before trusting any decoded field: a flipped
        // header or payload bit must surface as a checksum mismatch, not be
        // handed to a replayer as a plausible-looking record.
        let stored = bytes
            .get(at..at + FRAME_CRC)
            .ok_or(JournalError::Truncated { offset: at })?;
        let stored = u32::from_le_bytes(stored.try_into().expect("4 bytes"));
        if stored != crc32c(&bytes[start..at]) {
            return Err(JournalError::Corrupt {
                offset: start,
                reason: "frame checksum mismatch",
            });
        }
        let kind = EventKind::from_u8(header[0]).ok_or(JournalError::Corrupt {
            offset: start,
            reason: "unknown event kind",
        })?;
        let sysno = u16::from_le_bytes(header[1..3].try_into().expect("2 bytes"));
        let tid = u32::from_le_bytes(header[3..7].try_into().expect("4 bytes"));
        let clock = take8(7);
        let result = take8(15) as i64;
        let mut args = [0u64; JOURNAL_ARGS];
        for (i, arg) in args.iter_mut().enumerate() {
            *arg = take8(23 + 8 * i);
        }
        *cursor = at + FRAME_CRC;
        Ok(JournalRecord {
            kind,
            sysno,
            tid,
            clock,
            result,
            args,
            payload: payload_bytes.map(<[u8]>::to_vec),
        })
    }
}

/// How a scrub classified the damage it found in a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubKind {
    /// The writer died mid-append: the final frame (or trailer) is an
    /// incomplete prefix.  Routine crash recovery, no data was corrupted.
    TornTail,
    /// Frame or trailer bytes failed validation — a checksum mismatch, an
    /// impossible field, or a bad trailer hash.  Media corruption.
    Corrupt,
}

/// The first undecodable point found while scanning a segment's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentDamage {
    /// Byte offset of the first frame (or trailer) that failed.
    pub offset: usize,
    /// Tear vs corruption.
    pub kind: ScrubKind,
    /// The decoder's reason.
    pub reason: &'static str,
}

/// Everything a scan of one segment's bytes yields: the decodable record
/// prefix, whether a valid trailer sealed it, and the first damage, if any.
#[derive(Debug, Clone)]
pub struct SegmentScan {
    /// Sequence number of the segment's first record.
    pub first_seq: u64,
    /// Every record decoded before the damage point (all of them if clean).
    pub records: Vec<JournalRecord>,
    /// The first undecodable point, or `None` for a clean segment.
    pub damage: Option<SegmentDamage>,
    /// True if the segment ends with a trailer whose hash verified.
    pub sealed: bool,
}

/// Encodes a whole *sealed* segment: magic, first-record sequence, frames,
/// and the trailer fold of every frame's CRC.  This is the shape of a
/// rotated-away-from journal segment and of a saved record-replay log.
#[must_use]
pub fn encode_segment(first_seq: u64, records: &[JournalRecord]) -> Vec<u8> {
    let mut out = encode_segment_unsealed(first_seq, records);
    let fold = fold_records(first_seq, records);
    out.extend_from_slice(TRAILER_MAGIC);
    out.extend_from_slice(&fold.to_le_bytes());
    out
}

/// Encodes a segment *without* the sealing trailer — the on-disk shape of
/// a journal's active segment, which the writer will keep appending to.
#[must_use]
pub fn encode_segment_unsealed(first_seq: u64, records: &[JournalRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + records.len() * (FRAME_HEADER + FRAME_CRC + 16));
    out.extend_from_slice(SEGMENT_MAGIC);
    out.extend_from_slice(&first_seq.to_le_bytes());
    for record in records {
        record.encode_into(&mut out);
    }
    out
}

/// Scans a segment's bytes, decoding as far as possible and classifying
/// the first failure instead of erroring on it.
///
/// This is the primitive under both decode modes and under
/// [`EventJournal::open`]'s scrub: strict decoding rejects any damage,
/// lossy decoding tolerates a torn tail, and the scrub additionally
/// salvages the record prefix ahead of a corrupt frame.
///
/// # Errors
///
/// Returns [`JournalError::BadMagic`] only — a segment without its magic
/// header has no trustworthy first-sequence, so there is nothing to scan.
pub fn scan_segment(bytes: &[u8]) -> Result<SegmentScan, JournalError> {
    if bytes.len() < SEGMENT_MAGIC.len() + 8 || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Err(JournalError::BadMagic);
    }
    let first_seq = u64::from_le_bytes(
        bytes[SEGMENT_MAGIC.len()..SEGMENT_MAGIC.len() + 8]
            .try_into()
            .expect("8 bytes"),
    );
    let mut cursor = SEGMENT_MAGIC.len() + 8;
    let mut records = Vec::new();
    let mut fold = trailer_basis(first_seq);
    let damaged = |offset, kind, reason| SegmentScan {
        first_seq,
        records: Vec::new(), // placeholder, replaced by caller below
        damage: Some(SegmentDamage {
            offset,
            kind,
            reason,
        }),
        sealed: false,
    };
    while cursor < bytes.len() {
        let frame_start = cursor;
        if bytes[cursor..].starts_with(TRAILER_MAGIC) {
            if bytes.len() - cursor < TRAILER_LEN {
                let mut scan = damaged(frame_start, ScrubKind::TornTail, "torn segment trailer");
                scan.records = records;
                return Ok(scan);
            }
            let stored = u64::from_le_bytes(
                bytes[cursor + 8..cursor + TRAILER_LEN]
                    .try_into()
                    .expect("8 bytes"),
            );
            if stored != fold {
                let mut scan = damaged(
                    frame_start,
                    ScrubKind::Corrupt,
                    "segment trailer hash mismatch",
                );
                scan.records = records;
                return Ok(scan);
            }
            if cursor + TRAILER_LEN != bytes.len() {
                let mut scan = damaged(
                    cursor + TRAILER_LEN,
                    ScrubKind::Corrupt,
                    "bytes after segment trailer",
                );
                scan.records = records;
                return Ok(scan);
            }
            return Ok(SegmentScan {
                first_seq,
                records,
                damage: None,
                sealed: true,
            });
        }
        match JournalRecord::decode_from(bytes, &mut cursor) {
            Ok(record) => {
                let crc = u32::from_le_bytes(
                    bytes[cursor - FRAME_CRC..cursor]
                        .try_into()
                        .expect("4 bytes"),
                );
                fold = fold_frame_crc(fold, crc);
                records.push(record);
            }
            Err(JournalError::Truncated { .. }) => {
                let mut scan = damaged(frame_start, ScrubKind::TornTail, "torn frame");
                scan.records = records;
                return Ok(scan);
            }
            Err(JournalError::Corrupt { offset, reason }) => {
                let mut scan = damaged(offset, ScrubKind::Corrupt, reason);
                scan.records = records;
                return Ok(scan);
            }
            Err(err) => return Err(err),
        }
    }
    Ok(SegmentScan {
        first_seq,
        records,
        damage: None,
        sealed: false,
    })
}

/// Decodes a segment strictly: every byte must belong to a whole,
/// checksum-valid frame (or the sealing trailer).
///
/// # Errors
///
/// Returns [`JournalError`] for a missing header, a truncated frame, a
/// checksum mismatch or any invalid field — this is the right mode for a
/// log that claims to be complete, like a saved record-replay log.
pub fn decode_segment(bytes: &[u8]) -> Result<(u64, Vec<JournalRecord>), JournalError> {
    let scan = scan_segment(bytes)?;
    match scan.damage {
        Some(SegmentDamage {
            offset,
            kind: ScrubKind::TornTail,
            ..
        }) => Err(JournalError::Truncated { offset }),
        Some(SegmentDamage {
            offset,
            kind: ScrubKind::Corrupt,
            reason,
        }) => Err(JournalError::Corrupt { offset, reason }),
        None => Ok((scan.first_seq, scan.records)),
    }
}

/// Decodes a segment, tolerating a torn final frame: returns every whole
/// frame plus the byte offset of the torn tail, if any.  Used when opening
/// a journal directory whose writer may have died mid-append.
///
/// # Errors
///
/// Still returns [`JournalError`] if the magic header itself is missing or
/// a portion fails validation (a checksum mismatch, unknown kind or absurd
/// length is corruption, not tearing).
pub fn decode_segment_lossy(
    bytes: &[u8],
) -> Result<(u64, Vec<JournalRecord>, Option<usize>), JournalError> {
    let scan = scan_segment(bytes)?;
    match scan.damage {
        Some(SegmentDamage {
            offset,
            kind: ScrubKind::TornTail,
            ..
        }) => Ok((scan.first_seq, scan.records, Some(offset))),
        Some(SegmentDamage {
            offset,
            kind: ScrubKind::Corrupt,
            reason,
        }) => Err(JournalError::Corrupt { offset, reason }),
        None => Ok((scan.first_seq, scan.records, None)),
    }
}

/// Test-only fault injection on the journal's disk writes.
///
/// The deterministic simulator (`varan-sim`) uses this to model the ways a
/// real log dies: torn final frames (the writer crashed mid-`write`), short
/// writes (the filesystem accepted a prefix), flipped bits (media
/// corruption).  The hook sees the encoded frame *about to reach the file*
/// and may mutate or truncate it; the in-memory tail is deliberately left
/// intact — exactly the state of a writer that believed its append
/// succeeded — so dropping and reopening the journal exercises the real
/// recovery path ([`EventJournal::open`]'s scrub).
///
/// Production executions never construct one: the only cost on the append
/// path is an `Option` check.
pub trait JournalFaults: Send {
    /// Called with frame `seq`'s encoded bytes before they are written to
    /// the active segment file; mutate (or truncate) them to inject the
    /// fault.
    fn on_append(&mut self, seq: u64, frame: &mut Vec<u8>);
}

impl fmt::Debug for dyn JournalFaults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("JournalFaults")
    }
}

/// What [`EventJournal::open`]'s verify-on-reopen scrub found and did about
/// one damaged segment.
///
/// A report is evidence, not an error: the open still succeeds, positioned
/// at the last trustworthy record, and the caller (the fleet, the
/// simulator's invariant checks) decides whether the loss is survivable —
/// typically by re-seeding the affected follower from a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// First sequence number of the damaged segment.
    pub segment_first_seq: u64,
    /// Byte offset of the damage within that segment's file.
    pub offset: usize,
    /// Routine torn tail vs real corruption.
    pub kind: ScrubKind,
    /// The decoder's reason.
    pub reason: &'static str,
    /// The journal's tail after the scrub: the sequence of the first record
    /// that was lost.  Everything below is intact and contiguous.
    pub new_tail: u64,
    /// Damaged files preserved (as `<name>.quarantine`) for forensics.
    /// Empty for a routine torn tail.
    pub quarantined: Vec<PathBuf>,
}

/// Factory producing an append-time fault injector for a freshly opened
/// journal (see [`JournalConfig::fault_factory`]).
pub type JournalFaultFactory = Arc<dyn Fn() -> Box<dyn JournalFaults> + Send + Sync>;

/// Configuration of an [`EventJournal`].
#[derive(Clone)]
pub struct JournalConfig {
    /// Directory holding the segment files (created if missing).
    pub dir: PathBuf,
    /// Records per segment before rotating to a new file.
    pub segment_records: usize,
    /// Shard index owning this journal, if it belongs to a sharded data
    /// plane.  A sharded journal names its segments `seg-<shard>-<seq>.vrj`
    /// instead of `seg-<seq>.vrj`, so any number of shard journals can share
    /// one directory while each scans, rotates and retires only its own
    /// files.
    pub shard: Option<u32>,
    /// The telemetry registry scrub verdicts, quarantines and compactions
    /// report into.  `None` (the default) uses the process-wide
    /// [`varan_obs::global`] registry; the deterministic simulation installs
    /// an isolated registry per seeded run.
    pub obs: Option<Arc<varan_obs::Registry>>,
    /// Test-only: a [`JournalFaults`] injector installed the moment the
    /// journal opens, *before* the first append can reach the disk.  The
    /// simulator's composed mode needs this because it damages a specific
    /// early sequence of a journal the fleet opens internally — installing
    /// the injector after launch would race the leader's first appends.
    /// `None` (production) costs nothing.
    pub fault_factory: Option<JournalFaultFactory>,
}

impl fmt::Debug for JournalConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JournalConfig")
            .field("dir", &self.dir)
            .field("segment_records", &self.segment_records)
            .field("shard", &self.shard)
            .field("obs", &self.obs.is_some())
            .field("fault_factory", &self.fault_factory.is_some())
            .finish()
    }
}

impl JournalConfig {
    /// A journal rooted at `dir` with the default segment size.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JournalConfig {
            dir: dir.into(),
            segment_records: 4096,
            shard: None,
            obs: None,
            fault_factory: None,
        }
    }

    /// Overrides the records-per-segment rotation threshold.
    #[must_use]
    pub fn with_segment_records(mut self, records: usize) -> Self {
        self.segment_records = records.max(1);
        self
    }

    /// Marks this journal as shard `shard` of a sharded data plane (see
    /// [`JournalConfig::shard`]).
    #[must_use]
    pub fn with_shard(mut self, shard: u32) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Reports this journal's durability telemetry into `obs` instead of
    /// the process-wide default registry.
    #[must_use]
    pub fn with_obs(mut self, obs: Arc<varan_obs::Registry>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Installs `factory` as the journal's append-time fault injector (see
    /// [`JournalConfig::fault_factory`]); test-only.
    #[must_use]
    pub fn with_fault_factory(mut self, factory: JournalFaultFactory) -> Self {
        self.fault_factory = Some(factory);
        self
    }

    /// The filename prefix of this journal's segments.
    #[must_use]
    pub fn segment_prefix(&self) -> String {
        match self.shard {
            Some(shard) => format!("seg-{shard}-"),
            None => "seg-".to_owned(),
        }
    }
}

/// A sealed (fully written, rotated-away-from) segment.
#[derive(Debug)]
struct SealedSegment {
    first_seq: u64,
    len: u64,
    path: PathBuf,
}

/// Decoded sealed segments kept for re-reads.  Catch-up replay walks the
/// journal in fixed-size batches smaller than a segment, so consecutive
/// [`EventJournal::read_from`] calls land in the same (immutable) sealed
/// file; caching the decoded records means each segment is read and
/// CRC-verified once per replay pass instead of once per batch.  Entries
/// are keyed by path *and* first sequence: compaction rewrites a segment
/// under a new path, so a stale entry can never be served.
#[derive(Debug)]
struct DecodedSegment {
    first_seq: u64,
    path: PathBuf,
    records: Arc<Vec<JournalRecord>>,
}

/// How many decoded sealed segments [`EventJournal`] keeps around for
/// readers (LRU).  Sized for a few concurrent catch-up replays without
/// holding more than a handful of segments' payloads in memory.
const SEGMENT_CACHE_CAP: usize = 4;

#[derive(Debug)]
struct JournalInner {
    sealed: VecDeque<SealedSegment>,
    /// The active segment's records, kept in memory so readers can serve
    /// the tail without re-reading a file the writer still appends to.
    /// `Arc`-wrapped so a reader's batch copy under the lock is a run of
    /// pointer clones; the payload bytes are only cloned outside the lock.
    active: Vec<Arc<JournalRecord>>,
    active_first: u64,
    /// Buffered writer for the active segment: appends cost a memcpy, not a
    /// syscall (readers never look at the active *file* — they read the
    /// in-memory copy above — so buffering does not delay visibility; the
    /// buffer is flushed on rotation and on drop, and a torn tail from a
    /// crash is what `open`'s recovery truncates away).
    active_file: BufWriter<File>,
    /// Rolling fold of the active segment's frame CRCs — becomes the
    /// trailer hash when the segment seals at rotation.
    crc_fold: u64,
    next_seq: u64,
    anchor: u64,
    /// What the verify-on-reopen scrub found, if anything.
    scrub: Vec<ScrubReport>,
    /// Test-only write-fault injection; `None` in production.
    faults: Option<Box<dyn JournalFaults>>,
}

impl Drop for JournalInner {
    fn drop(&mut self) {
        let _ = self.active_file.flush();
    }
}

/// The disk-backed event journal: one writer (the leader's monitor), any
/// number of readers (joining followers), segmented files with
/// checkpoint-anchored retention, per-frame CRCs and sealed-segment
/// trailer hashes.
///
/// All operations take a short internal lock; the writer's append is a
/// memory push plus one buffered file write, so the leader's publish path
/// never waits on a reader (readers never hold the lock across I/O on the
/// active segment — its tail is served from memory).
pub struct EventJournal {
    config: JournalConfig,
    inner: Mutex<JournalInner>,
    /// LRU of decoded sealed segments, under its own lock so a reader's
    /// file I/O and CRC verification never block the appender.
    read_cache: Mutex<Vec<DecodedSegment>>,
    /// Where scrub/quarantine/compaction telemetry goes (the configured
    /// registry, or the process-wide default).
    obs: Arc<varan_obs::Registry>,
}

impl fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("EventJournal")
            .field("dir", &self.config.dir)
            .field("segments", &(inner.sealed.len() + 1))
            .field("next_seq", &inner.next_seq)
            .field("anchor", &inner.anchor)
            .finish()
    }
}

fn segment_path(dir: &Path, prefix: &str, first_seq: u64) -> PathBuf {
    dir.join(format!("{prefix}{first_seq:020}.vrj"))
}

/// True if `name` is one of this journal's segment files: the prefix, then
/// exactly 20 ASCII digits, then `.vrj`.  The digit check keeps sharded and
/// unsharded journals sharing a directory out of each other's scans (an
/// unsharded scan must not swallow `seg-3-…`, whose remainder carries a
/// dash; a shard-0 scan must not swallow `seg-0000….vrj`, whose remainder
/// is 19 digits).  Quarantined files (`….vrj.quarantine`) fail the suffix
/// check, so scrubbed evidence is never re-indexed.
fn is_segment_name(name: &str, prefix: &str) -> bool {
    name.strip_prefix(prefix)
        .and_then(|rest| rest.strip_suffix(".vrj"))
        .map(|digits| digits.len() == 20 && digits.bytes().all(|b| b.is_ascii_digit()))
        .unwrap_or(false)
}

/// The first-sequence a segment's filename claims (used only when the file
/// body is too damaged to read its own header).
fn seq_from_name(path: &Path, prefix: &str) -> u64 {
    path.file_name()
        .and_then(|name| name.to_str())
        .and_then(|name| name.strip_prefix(prefix))
        .and_then(|rest| rest.strip_suffix(".vrj"))
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(0)
}

/// `<name>.quarantine` beside the original.
fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(std::ffi::OsStr::to_os_string)
        .unwrap_or_default();
    name.push(".quarantine");
    path.with_file_name(name)
}

fn open_segment_file(path: &Path, first_seq: u64) -> Result<BufWriter<File>, JournalError> {
    let file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(path)?;
    let mut writer = BufWriter::new(file);
    writer.write_all(SEGMENT_MAGIC)?;
    writer.write_all(&first_seq.to_le_bytes())?;
    Ok(writer)
}

impl EventJournal {
    /// Creates (or reopens) the journal at `config.dir`.
    ///
    /// Reopening scrubs every segment in sequence order.  A torn final
    /// frame on the newest segment (the writer died mid-append) is
    /// truncated away as routine crash recovery.  Any other damage — a
    /// checksum-mismatched frame, a bad trailer hash, a tear inside a
    /// sealed segment — quarantines the journal's suffix from that point:
    /// the damaged bytes are preserved as `.quarantine` files, the intact
    /// record prefix becomes the new tail, and a [`ScrubReport`] records
    /// what was lost so the caller can re-seed affected followers from a
    /// checkpoint instead of replaying corrupt data.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError`] only for I/O failures — damage is scrubbed,
    /// not fatal.
    pub fn open(config: JournalConfig) -> Result<Self, JournalError> {
        std::fs::create_dir_all(&config.dir)?;
        let prefix = config.segment_prefix();
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&config.dir)?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|path| {
                path.file_name()
                    .and_then(|name| name.to_str())
                    .map(|name| is_segment_name(name, &prefix))
                    .unwrap_or(false)
            })
            .collect();
        paths.sort();

        let mut sealed = VecDeque::new();
        let mut scrub: Vec<ScrubReport> = Vec::new();
        let mut tail: Option<(u64, Vec<JournalRecord>)> = None;
        let mut next_seq = 0u64;
        // Index from which the on-disk files are damaged (or shadowed by
        // damage before them) and must move aside as evidence.
        let mut quarantine_from: Option<usize> = None;

        for (i, path) in paths.iter().enumerate() {
            let is_last = i + 1 == paths.len();
            let bytes = std::fs::read(path)?;
            let scan = match scan_segment(&bytes) {
                Ok(scan) => scan,
                Err(_) => {
                    // Unreadable header: nothing salvageable in this file.
                    // Restart the active segment at the sequence the
                    // filename carries so numbering stays contiguous with
                    // the surviving prefix.
                    let first_seq = seq_from_name(path, &prefix);
                    scrub.push(ScrubReport {
                        segment_first_seq: first_seq,
                        offset: 0,
                        kind: ScrubKind::Corrupt,
                        reason: "missing segment magic",
                        new_tail: first_seq,
                        quarantined: Vec::new(),
                    });
                    tail = Some((first_seq, Vec::new()));
                    quarantine_from = Some(i);
                    break;
                }
            };
            match scan.damage {
                None if is_last && !scan.sealed => {
                    // The newest segment, still open for appends.
                    tail = Some((scan.first_seq, scan.records));
                }
                None => {
                    // A clean sealed segment (or, if last, one whose
                    // trailer landed but whose successor file never did —
                    // treat it as sealed and start a fresh active segment).
                    next_seq = scan.first_seq + scan.records.len() as u64;
                    sealed.push_back(SealedSegment {
                        first_seq: scan.first_seq,
                        len: scan.records.len() as u64,
                        path: path.clone(),
                    });
                }
                Some(damage) => {
                    let routine_tear = is_last && damage.kind == ScrubKind::TornTail;
                    let mut quarantined = Vec::new();
                    if !routine_tear {
                        // Preserve the damaged bytes before the rewrite
                        // below destroys them.
                        let qpath = quarantine_path(path);
                        std::fs::write(&qpath, &bytes)?;
                        quarantined.push(qpath);
                    }
                    // The intact prefix becomes the (unsealed) active
                    // segment; appends resume right after the last
                    // trustworthy record.
                    std::fs::write(path, encode_segment_unsealed(scan.first_seq, &scan.records))?;
                    scrub.push(ScrubReport {
                        segment_first_seq: scan.first_seq,
                        offset: damage.offset,
                        kind: damage.kind,
                        reason: damage.reason,
                        new_tail: scan.first_seq + scan.records.len() as u64,
                        quarantined,
                    });
                    tail = Some((scan.first_seq, scan.records));
                    if !is_last {
                        quarantine_from = Some(i + 1);
                    }
                    break;
                }
            }
        }

        if let Some(from) = quarantine_from {
            // Everything past the damage point is an untrusted suffix:
            // replay is sequential, so records above a lost range must not
            // be served even if their own frames verify.  Move the files
            // aside (they fail `is_segment_name`, so they are never
            // re-indexed) and note them in the report.
            let mut moved = Vec::new();
            for path in &paths[from..] {
                let qpath = quarantine_path(path);
                std::fs::rename(path, &qpath)?;
                moved.push(qpath);
            }
            scrub
                .last_mut()
                .expect("quarantine implies a scrub report")
                .quarantined
                .extend(moved);
        }

        let (active_first, active_records) = tail.unwrap_or((next_seq, Vec::new()));
        next_seq = active_first + active_records.len() as u64;
        let crc_fold = fold_records(active_first, &active_records);
        let active: Vec<Arc<JournalRecord>> = active_records.into_iter().map(Arc::new).collect();
        let path = segment_path(&config.dir, &prefix, active_first);
        let active_file = if active.is_empty() {
            open_segment_file(&path, active_first)?
        } else {
            // Reopen for append; any recovery rewrite above left only
            // whole, checksummed frames in the file.
            BufWriter::new(OpenOptions::new().append(true).open(&path)?)
        };
        let anchor = sealed
            .front()
            .map(|segment| segment.first_seq)
            .unwrap_or(active_first);
        let obs = config.obs.clone().unwrap_or_else(varan_obs::global_arc);
        // Surface the scrub verdicts while they are fresh: one scrub count
        // per report, one corruption count per `Corrupt` verdict, one
        // quarantine count per preserved file — so "did we ever lose data"
        // is a counter read, not a sim-output archaeology session.
        for report in &scrub {
            obs.metrics.journal_scrubs.add(1);
            let kind_tag = match report.kind {
                ScrubKind::TornTail => 1,
                ScrubKind::Corrupt => 2,
            };
            obs.trace("journal.scrub", kind_tag, report.new_tail);
            if report.kind == ScrubKind::Corrupt {
                obs.metrics.journal_corruptions_detected.add(1);
            }
            if !report.quarantined.is_empty() {
                obs.metrics
                    .journal_quarantines
                    .add(report.quarantined.len() as u64);
                obs.trace(
                    "journal.quarantine",
                    report.segment_first_seq,
                    report.quarantined.len() as u64,
                );
            }
        }
        // Armed before the journal is handed to anyone, so even sequence 0
        // can be damaged deterministically.
        let faults = config.fault_factory.as_ref().map(|factory| factory());
        Ok(EventJournal {
            config,
            inner: Mutex::new(JournalInner {
                sealed,
                active,
                active_first,
                active_file,
                crc_fold,
                next_seq,
                anchor,
                scrub,
                faults,
            }),
            read_cache: Mutex::new(Vec::new()),
            obs,
        })
    }

    /// What the verify-on-reopen scrub found, oldest first.  Empty for a
    /// journal that opened clean.
    #[must_use]
    pub fn scrub_reports(&self) -> Vec<ScrubReport> {
        self.inner.lock().scrub.clone()
    }

    /// Installs a write-fault injector (see [`JournalFaults`]); test-only.
    pub fn install_faults(&self, faults: Box<dyn JournalFaults>) {
        self.inner.lock().faults = Some(faults);
    }

    /// Removes the write-fault injector.
    pub fn clear_faults(&self) {
        self.inner.lock().faults = None;
    }

    /// Appends one record and returns the sequence number it was assigned.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] if the segment file cannot be written.
    pub fn append(&self, record: JournalRecord) -> Result<u64, JournalError> {
        let mut frame = Vec::with_capacity(FRAME_HEADER + FRAME_CRC + 16);
        let crc = record.encode_into(&mut frame);
        let record = Arc::new(record);
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        if let Some(faults) = inner.faults.as_mut() {
            // The injector damages only what reaches the disk; the
            // in-memory tail (what live readers see, and what the writer
            // believes it appended) stays whole.
            faults.on_append(seq, &mut frame);
        }
        inner.active_file.write_all(&frame)?;
        inner.active.push(record);
        inner.crc_fold = fold_frame_crc(inner.crc_fold, crc);
        inner.next_seq += 1;
        if inner.active.len() >= self.config.segment_records {
            self.rotate_locked(&mut inner)?;
        }
        Ok(seq)
    }

    /// Seals the active segment (writing its trailer) and starts a new one.
    fn rotate_locked(&self, inner: &mut JournalInner) -> Result<(), JournalError> {
        inner.active_file.write_all(TRAILER_MAGIC)?;
        let fold = inner.crc_fold;
        inner.active_file.write_all(&fold.to_le_bytes())?;
        inner.active_file.flush()?;
        let prefix = self.config.segment_prefix();
        let first_seq = inner.active_first;
        let len = inner.active.len() as u64;
        let path = segment_path(&self.config.dir, &prefix, first_seq);
        inner.sealed.push_back(SealedSegment {
            first_seq,
            len,
            path,
        });
        inner.active.clear();
        inner.active_first = inner.next_seq;
        inner.crc_fold = trailer_basis(inner.active_first);
        let path = segment_path(&self.config.dir, &prefix, inner.active_first);
        inner.active_file = open_segment_file(&path, inner.active_first)?;
        Ok(())
    }

    /// Flushes the active segment file to the OS.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on failure.
    pub fn flush(&self) -> Result<(), JournalError> {
        self.inner.lock().active_file.flush().map_err(Into::into)
    }

    /// The sequence number the next appended record will receive (equal to
    /// the number of records ever appended).
    #[must_use]
    pub fn tail_sequence(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// The oldest sequence number still retained.
    #[must_use]
    pub fn oldest_sequence(&self) -> u64 {
        let inner = self.inner.lock();
        inner
            .sealed
            .front()
            .map(|segment| segment.first_seq)
            .unwrap_or(inner.active_first)
    }

    /// The current retention anchor.
    #[must_use]
    pub fn anchor(&self) -> u64 {
        self.inner.lock().anchor
    }

    /// Number of segment files the journal currently spans (sealed plus
    /// the active one).
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.inner.lock().sealed.len() + 1
    }

    /// Moves the retention anchor to `seq` (the oldest live checkpoint's
    /// event sequence) and deletes every sealed segment that lies entirely
    /// below it.  The anchor never moves backwards.
    pub fn set_anchor(&self, seq: u64) {
        let mut inner = self.inner.lock();
        if seq <= inner.anchor {
            return;
        }
        inner.anchor = seq;
        let mut retired = 0u64;
        while let Some(front) = inner.sealed.front() {
            if front.first_seq + front.len <= seq {
                let dead = inner.sealed.pop_front().expect("front exists");
                let _ = std::fs::remove_file(&dead.path);
                retired += 1;
            } else {
                break;
            }
        }
        drop(inner);
        // A cached decode pins a whole segment's payloads; drop the ones
        // retention just deleted, which no reader can be served from again.
        self.read_cache
            .lock()
            .retain(|entry| entry.first_seq + entry.records.len() as u64 > seq);
        let shard = u64::from(self.config.shard.unwrap_or(0));
        self.obs.trace("journal.anchor", shard, seq);
        if retired > 0 {
            self.obs.metrics.journal_compactions.add(1);
            self.obs.trace("journal.retire_segments", shard, retired);
        }
    }

    /// Compacts the journal up to the retention anchor: if the oldest
    /// sealed segment *straddles* the anchor (its first records precede it
    /// but its last do not, so whole-segment retention kept it alive), the
    /// segment is rewritten as a fresh sealed, checksummed segment whose
    /// first record *is* the anchor, and the old file is removed.
    ///
    /// Returns the number of dead records dropped (0 if nothing straddled
    /// the anchor).  Together with [`EventJournal::set_anchor`] this keeps
    /// the disk footprint and a joiner's replay length bounded by the
    /// checkpoint cadence: nothing below the oldest restorable checkpoint
    /// survives on disk.  The active segment is never compacted — it is
    /// already bounded by `segment_records`.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError`] if the segment cannot be read back intact
    /// or the replacement cannot be written; the journal is unchanged on
    /// error.
    pub fn compact_to_anchor(&self) -> Result<u64, JournalError> {
        let mut inner = self.inner.lock();
        let anchor = inner.anchor;
        let Some(front) = inner.sealed.front() else {
            return Ok(0);
        };
        if front.first_seq >= anchor {
            return Ok(0);
        }
        let old_path = front.path.clone();
        let old_first = front.first_seq;
        let bytes = std::fs::read(&old_path)?;
        let (file_first, records) =
            decode_segment(&bytes).map_err(|err| JournalError::InSegment {
                first_seq: old_first,
                error: Box::new(err),
            })?;
        debug_assert_eq!(file_first, old_first);
        let keep: Vec<JournalRecord> = records
            .into_iter()
            .skip((anchor - old_first) as usize)
            .collect();
        let prefix = self.config.segment_prefix();
        let new_path = segment_path(&self.config.dir, &prefix, anchor);
        std::fs::write(&new_path, encode_segment(anchor, &keep))?;
        let front = inner.sealed.front_mut().expect("front exists");
        front.first_seq = anchor;
        front.len = keep.len() as u64;
        front.path = new_path;
        drop(inner);
        self.read_cache
            .lock()
            .retain(|entry| entry.path != old_path);
        let _ = std::fs::remove_file(&old_path);
        let removed = anchor - old_first;
        self.obs.metrics.journal_compactions.add(1);
        self.obs
            .trace("journal.compact", u64::from(self.config.shard.unwrap_or(0)), removed);
        Ok(removed)
    }

    /// Reads up to `max` records starting at sequence `from`.
    ///
    /// Returns the sequence of the first record returned (`>= from`; greater
    /// only if `from` has already been retired past by the retention anchor,
    /// which a correctly anchored reader never observes) and the records.
    /// An empty vector means the journal holds nothing at or after `from`.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::InSegment`] naming the failing segment if a
    /// sealed segment cannot be read back intact.
    pub fn read_from(
        &self,
        from: u64,
        max: usize,
    ) -> Result<(u64, Vec<JournalRecord>), JournalError> {
        // Index the sealed segments under the lock, but do the file reads —
        // and the materialisation of the active tail's records (payload
        // clones) — outside it, so a catching-up reader never stalls the
        // appender: the lock-held work is pointer clones only.
        let (sealed_paths, active_first, active_tail): (
            Vec<(u64, u64, PathBuf)>,
            u64,
            Vec<Arc<JournalRecord>>,
        ) = {
            let inner = self.inner.lock();
            let sealed = inner
                .sealed
                .iter()
                .filter(|segment| segment.first_seq + segment.len > from)
                .map(|segment| (segment.first_seq, segment.len, segment.path.clone()))
                .collect();
            let skip = (from.saturating_sub(inner.active_first)) as usize;
            let take: Vec<Arc<JournalRecord>> = inner
                .active
                .iter()
                .skip(skip)
                .take(max)
                .cloned()
                .collect();
            (sealed, inner.active_first, take)
        };

        let mut start = from;
        let mut records: Vec<JournalRecord> = Vec::new();
        for (first_seq, _len, path) in sealed_paths {
            if records.len() >= max {
                break;
            }
            let segment_records = self.sealed_records(first_seq, &path)?;
            let skip = (start.saturating_sub(first_seq)) as usize;
            if records.is_empty() {
                start = start.max(first_seq);
            }
            records.extend(
                segment_records
                    .iter()
                    .skip(skip)
                    .take(max - records.len())
                    .cloned(),
            );
        }
        if records.len() < max && !active_tail.is_empty() {
            if records.is_empty() {
                start = start.max(active_first);
            }
            let room = max - records.len();
            records.extend(
                active_tail
                    .iter()
                    .take(room)
                    .map(|record| (**record).clone()),
            );
        }
        Ok((start, records))
    }

    /// The decoded records of a sealed segment, served from the read cache
    /// when the same file was decoded recently (sealed files are immutable;
    /// compaction replaces a segment under a new path, never in place).
    fn sealed_records(
        &self,
        first_seq: u64,
        path: &Path,
    ) -> Result<Arc<Vec<JournalRecord>>, JournalError> {
        let mut cache = self.read_cache.lock();
        if let Some(at) = cache
            .iter()
            .position(|entry| entry.first_seq == first_seq && entry.path == path)
        {
            let entry = cache.remove(at);
            let records = Arc::clone(&entry.records);
            cache.push(entry);
            return Ok(records);
        }
        drop(cache);
        let bytes = std::fs::read(path)?;
        let (file_first, decoded) = decode_segment(&bytes).map_err(|err| JournalError::InSegment {
            first_seq,
            error: Box::new(err),
        })?;
        debug_assert_eq!(file_first, first_seq);
        let records = Arc::new(decoded);
        let mut cache = self.read_cache.lock();
        if cache.len() >= SEGMENT_CACHE_CAP {
            cache.remove(0);
        }
        cache.push(DecodedSegment {
            first_seq,
            path: path.to_owned(),
            records: Arc::clone(&records),
        });
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seed: u64) -> JournalRecord {
        JournalRecord {
            kind: EventKind::Syscall,
            sysno: (seed % 300) as u16,
            tid: (seed % 5) as u32,
            clock: seed,
            result: seed as i64 - 7,
            args: [seed, seed + 1, seed + 2, seed + 3, seed + 4, seed + 5],
            payload: if seed.is_multiple_of(3) {
                Some(vec![seed as u8; (seed % 17) as usize])
            } else {
                None
            },
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "varan-journal-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn frame_round_trips_with_and_without_payload() {
        for seed in 0..20u64 {
            let original = record(seed);
            let mut bytes = Vec::new();
            original.encode_into(&mut bytes);
            let mut cursor = 0usize;
            let decoded = JournalRecord::decode_from(&bytes, &mut cursor).unwrap();
            assert_eq!(decoded, original);
            assert_eq!(cursor, bytes.len());
        }
    }

    #[test]
    fn a_segment_written_by_the_byte_wise_crc_reopens_cleanly() {
        // A one-record sealed segment as the byte-at-a-time CRC32C wrote it
        // (frame CRC 0x41D0E921 at bytes 135..139, then the trailer): the
        // sliced CRC must reproduce it bit for bit and reopen it unscrubbed.
        const GOLDEN: [&str; 5] = [
            "56524e4a53454732000000000000000001000002000000070000000000000028",
            "0000000000000003000000000000000010000000000000280000000000000000",
            "0000000000000000000000000000000000000000000000280000000000000000",
            "0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20",
            "2122232425262721e9d04156524e4a54524c321419e105dd678c89",
        ];
        let golden: Vec<u8> = GOLDEN
            .concat()
            .as_bytes()
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect();
        let record = JournalRecord {
            kind: EventKind::Syscall,
            sysno: 0,
            tid: 2,
            clock: 7,
            result: 40,
            args: [3, 0x1000, 40, 0, 0, 0],
            payload: Some((0..40u8).collect()),
        };
        let mut frame = Vec::new();
        assert_eq!(record.encode_into(&mut frame), 0x41D0_E921);
        assert_eq!(encode_segment(0, std::slice::from_ref(&record)), golden);

        let dir = temp_dir("golden");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(segment_path(&dir, "seg-", 0), &golden).unwrap();
        let journal = EventJournal::open(JournalConfig::new(&dir)).unwrap();
        assert!(journal.scrub_reports().is_empty());
        let (_, records) = journal.read_from(0, usize::MAX).unwrap();
        assert_eq!(records, vec![record]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_payload_stays_distinct_from_none() {
        let mut with_empty = record(1);
        with_empty.payload = Some(Vec::new());
        let mut bytes = Vec::new();
        with_empty.encode_into(&mut bytes);
        let mut cursor = 0;
        let decoded = JournalRecord::decode_from(&bytes, &mut cursor).unwrap();
        assert_eq!(decoded.payload, Some(Vec::new()));
    }

    #[test]
    fn every_single_byte_flip_in_a_frame_is_detected() {
        let original = record(3); // has a payload
        let mut bytes = Vec::new();
        original.encode_into(&mut bytes);
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x40;
            let mut cursor = 0;
            let decoded = JournalRecord::decode_from(&flipped, &mut cursor);
            // A flip may masquerade as a tear (length field) but must never
            // decode into a record different from the original.
            match decoded {
                Err(_) => {}
                Ok(record) => assert_eq!(record, original, "byte {at} absorbed silently"),
            }
        }
    }

    #[test]
    fn unchecked_encoding_is_the_frame_minus_its_crc() {
        let original = record(6);
        let mut checked = Vec::new();
        original.encode_into(&mut checked);
        let mut unchecked = Vec::new();
        original.encode_into_unchecked(&mut unchecked);
        assert_eq!(&checked[..checked.len() - FRAME_CRC], &unchecked[..]);
    }

    #[test]
    fn event_conversion_preserves_inline_fields() {
        let original = record(9);
        let event = original.to_event();
        let back = JournalRecord::from_event(&event, original.payload.clone());
        assert_eq!(back.kind, original.kind);
        assert_eq!(back.sysno, original.sysno);
        assert_eq!(back.clock, original.clock);
        assert_eq!(back.result, original.result);
        assert_eq!(&back.args[..EVENT_INLINE_ARGS], &original.args[..EVENT_INLINE_ARGS]);
        // The two spilled registers are not representable in a ring event.
        assert_eq!(back.args[4], 0);
    }

    #[test]
    fn segment_decode_rejects_garbage() {
        assert_eq!(decode_segment(b"junk").unwrap_err(), JournalError::BadMagic);
        let mut bytes = encode_segment(0, &[record(1)]);
        bytes[0] = b'X';
        assert_eq!(decode_segment(&bytes).unwrap_err(), JournalError::BadMagic);
        let mut bytes = encode_segment(0, &[record(1)]);
        bytes[16] = 200; // flipped kind byte: caught by the frame CRC
        assert!(matches!(
            decode_segment(&bytes).unwrap_err(),
            JournalError::Corrupt { offset: 16, .. }
        ));
    }

    #[test]
    fn sealed_segment_ends_with_a_verifying_trailer() {
        let records: Vec<JournalRecord> = (0..5).map(record).collect();
        let bytes = encode_segment(7, &records);
        assert_eq!(
            &bytes[bytes.len() - TRAILER_LEN..bytes.len() - 8],
            TRAILER_MAGIC
        );
        let scan = scan_segment(&bytes).unwrap();
        assert!(scan.sealed);
        assert!(scan.damage.is_none());
        // Damage the trailer hash: the scan flags it even though every
        // frame still checksums individually.
        let mut bad = bytes.clone();
        let at = bad.len() - 1;
        bad[at] ^= 0xFF;
        let scan = scan_segment(&bad).unwrap();
        assert_eq!(scan.records, records, "frames themselves are intact");
        let damage = scan.damage.unwrap();
        assert_eq!(damage.kind, ScrubKind::Corrupt);
        assert_eq!(damage.reason, "segment trailer hash mismatch");
    }

    #[test]
    fn strict_decode_rejects_torn_tail_lossy_recovers_it() {
        let records: Vec<JournalRecord> = (0..5).map(record).collect();
        let sealed = encode_segment(7, &records);
        // Tear through the trailer *and* into the final frame's CRC.
        let mut bytes = sealed.clone();
        bytes.truncate(bytes.len() - TRAILER_LEN - 3);
        assert!(matches!(
            decode_segment(&bytes).unwrap_err(),
            JournalError::Truncated { .. }
        ));
        let (first, recovered, torn) = decode_segment_lossy(&bytes).unwrap();
        assert_eq!(first, 7);
        assert_eq!(recovered, records[..4].to_vec());
        assert!(torn.is_some());
        // A tear that only loses the trailer keeps every record.
        let mut bytes = sealed;
        bytes.truncate(bytes.len() - 3);
        let (_, recovered, torn) = decode_segment_lossy(&bytes).unwrap();
        assert_eq!(recovered, records);
        assert!(torn.is_some());
    }

    #[test]
    fn journal_appends_rotates_and_reads_back() {
        let dir = temp_dir("rotate");
        let journal =
            EventJournal::open(JournalConfig::new(&dir).with_segment_records(8)).unwrap();
        for seed in 0..30u64 {
            assert_eq!(journal.append(record(seed)).unwrap(), seed);
        }
        assert_eq!(journal.tail_sequence(), 30);
        let (start, all) = journal.read_from(0, usize::MAX).unwrap();
        assert_eq!(start, 0);
        assert_eq!(all.len(), 30);
        assert_eq!(all[17], record(17));
        // Mid-stream read crossing a segment boundary.
        let (start, tail) = journal.read_from(13, 10).unwrap();
        assert_eq!(start, 13);
        assert_eq!(tail.len(), 10);
        assert_eq!(tail[0], record(13));
        // Past the tail.
        let (_, none) = journal.read_from(30, usize::MAX).unwrap();
        assert!(none.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotated_segments_are_sealed_on_disk() {
        let dir = temp_dir("sealed");
        let journal =
            EventJournal::open(JournalConfig::new(&dir).with_segment_records(4)).unwrap();
        for seed in 0..6u64 {
            journal.append(record(seed)).unwrap();
        }
        let bytes = std::fs::read(segment_path(&dir, "seg-", 0)).unwrap();
        let scan = scan_segment(&bytes).unwrap();
        assert!(scan.sealed, "rotated segment must carry a trailer");
        assert_eq!(scan.records.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_recovers_a_torn_active_segment() {
        let dir = temp_dir("torn");
        {
            let journal =
                EventJournal::open(JournalConfig::new(&dir).with_segment_records(100)).unwrap();
            for seed in 0..10u64 {
                journal.append(record(seed)).unwrap();
            }
            journal.flush().unwrap();
        }
        // Tear the final frame of the active segment.
        let seg = segment_path(&dir, "seg-", 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes.truncate(bytes.len() - 5);
        std::fs::write(&seg, &bytes).unwrap();

        let journal =
            EventJournal::open(JournalConfig::new(&dir).with_segment_records(100)).unwrap();
        assert_eq!(journal.tail_sequence(), 9, "torn record truncated, not fatal");
        let reports = journal.scrub_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, ScrubKind::TornTail);
        assert_eq!(reports[0].new_tail, 9);
        assert!(reports[0].quarantined.is_empty(), "tears are routine");
        let (_, records) = journal.read_from(0, usize::MAX).unwrap();
        assert_eq!(records, (0..9).map(record).collect::<Vec<_>>());
        // Appending continues from the recovered position.
        assert_eq!(journal.append(record(99)).unwrap(), 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_torn_write_is_recovered_on_reopen() {
        /// Tears the frame of one chosen sequence down to a prefix.
        struct TearAt {
            seq: u64,
            keep: usize,
        }
        impl JournalFaults for TearAt {
            fn on_append(&mut self, seq: u64, frame: &mut Vec<u8>) {
                if seq == self.seq {
                    let keep = self.keep.min(frame.len().saturating_sub(1));
                    frame.truncate(keep);
                }
            }
        }

        let dir = temp_dir("fault-injector");
        {
            let journal =
                EventJournal::open(JournalConfig::new(&dir).with_segment_records(100)).unwrap();
            journal.install_faults(Box::new(TearAt { seq: 7, keep: 10 }));
            for seed in 0..8u64 {
                journal.append(record(seed)).unwrap();
            }
            // The writer believes all 8 made it: the in-memory tail serves
            // live readers the whole stream.
            assert_eq!(journal.tail_sequence(), 8);
            let (_, live) = journal.read_from(0, usize::MAX).unwrap();
            assert_eq!(live.len(), 8);
            journal.flush().unwrap();
        }
        // Reopen: the torn final frame is truncated away, never fatal.
        let journal =
            EventJournal::open(JournalConfig::new(&dir).with_segment_records(100)).unwrap();
        assert_eq!(journal.tail_sequence(), 7);
        let (_, records) = journal.read_from(0, usize::MAX).unwrap();
        assert_eq!(records, (0..7).map(record).collect::<Vec<_>>());
        // Appending continues from the recovered position, uninjected.
        assert_eq!(journal.append(record(70)).unwrap(), 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_payload_byte_is_detected_and_scrubbed_never_absorbed() {
        let dir = temp_dir("flip");
        {
            let journal =
                EventJournal::open(JournalConfig::new(&dir).with_segment_records(100)).unwrap();
            for seed in 0..10u64 {
                journal.append(record(seed)).unwrap();
            }
            journal.flush().unwrap();
        }
        // Flip one payload byte of record 6 (seed 6 carries a payload) —
        // mid-file, so this cannot masquerade as a tear.
        let seg = segment_path(&dir, "seg-", 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        let clean = bytes.clone();
        let mut cursor = 16;
        for _ in 0..6 {
            JournalRecord::decode_from(&bytes, &mut cursor).unwrap();
        }
        let flip_at = cursor + FRAME_HEADER; // first payload byte of record 6
        bytes[flip_at] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();

        let journal =
            EventJournal::open(JournalConfig::new(&dir).with_segment_records(100)).unwrap();
        // Detected: the scrub names the segment, offset and reason.
        let reports = journal.scrub_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].segment_first_seq, 0);
        assert_eq!(reports[0].kind, ScrubKind::Corrupt);
        assert_eq!(reports[0].reason, "frame checksum mismatch");
        assert_eq!(reports[0].offset, cursor, "offset of the damaged frame");
        assert_eq!(reports[0].new_tail, 6);
        // The damaged bytes are preserved as evidence.
        assert_eq!(reports[0].quarantined.len(), 1);
        assert_eq!(std::fs::read(&reports[0].quarantined[0]).unwrap(), bytes);
        // Recovered: the intact prefix is served, the corrupt record and
        // its successors are not, and appends continue at the new tail.
        assert_eq!(journal.tail_sequence(), 6);
        let (_, records) = journal.read_from(0, usize::MAX).unwrap();
        assert_eq!(records, (0..6).map(record).collect::<Vec<_>>());
        assert_eq!(journal.append(record(60)).unwrap(), 6);
        // Never absorbed: nothing the journal returns differs from what
        // was originally appended.
        let (_, reread) = journal.read_from(0, usize::MAX).unwrap();
        for (i, got) in reread.iter().take(6).enumerate() {
            let mut cursor = 16;
            for _ in 0..i {
                JournalRecord::decode_from(&clean, &mut cursor).unwrap();
            }
            let expected = JournalRecord::decode_from(&clean, &mut cursor).unwrap();
            assert_eq!(*got, expected);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_in_a_sealed_segment_quarantines_the_suffix() {
        let dir = temp_dir("quarantine");
        {
            let journal =
                EventJournal::open(JournalConfig::new(&dir).with_segment_records(4)).unwrap();
            for seed in 0..14u64 {
                journal.append(record(seed)).unwrap();
            }
            journal.flush().unwrap();
        }
        // Three sealed segments ([0..4), [4..8), [8..12)) plus the active
        // tail [12..14).  Corrupt a frame in the second sealed segment.
        let seg = segment_path(&dir, "seg-", 4);
        let mut bytes = std::fs::read(&seg).unwrap();
        let mut cursor = 16;
        JournalRecord::decode_from(&bytes, &mut cursor).unwrap();
        bytes[cursor + 2] ^= 0x80; // inside record 5's header
        std::fs::write(&seg, &bytes).unwrap();

        let journal =
            EventJournal::open(JournalConfig::new(&dir).with_segment_records(4)).unwrap();
        // The journal truncates to the last trustworthy record: 4 records
        // of segment 0 plus the single intact record of segment 4.
        assert_eq!(journal.tail_sequence(), 5);
        let (_, records) = journal.read_from(0, usize::MAX).unwrap();
        assert_eq!(records, (0..5).map(record).collect::<Vec<_>>());
        let reports = journal.scrub_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].segment_first_seq, 4);
        assert_eq!(reports[0].kind, ScrubKind::Corrupt);
        assert_eq!(reports[0].new_tail, 5);
        // The damaged segment and the two later files all moved aside.
        assert_eq!(reports[0].quarantined.len(), 3);
        for qpath in &reports[0].quarantined {
            assert!(qpath.exists(), "{} missing", qpath.display());
        }
        // Appends continue from the scrubbed tail.
        assert_eq!(journal.append(record(50)).unwrap(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_quarantine_increments_the_telemetry_counter_exactly_once() {
        let dir = temp_dir("quarantine-obs");
        {
            let journal =
                EventJournal::open(JournalConfig::new(&dir).with_segment_records(100)).unwrap();
            for seed in 0..10u64 {
                journal.append(record(seed)).unwrap();
            }
            journal.flush().unwrap();
        }
        // Flip a payload byte mid-file: one damaged frame, one preserved
        // `.quarantine` file.
        let seg = segment_path(&dir, "seg-", 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        let mut cursor = 16;
        for _ in 0..6 {
            JournalRecord::decode_from(&bytes, &mut cursor).unwrap();
        }
        bytes[cursor + FRAME_HEADER] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();

        let obs = Arc::new(varan_obs::Registry::new());
        let journal = EventJournal::open(
            JournalConfig::new(&dir)
                .with_segment_records(100)
                .with_obs(Arc::clone(&obs)),
        )
        .unwrap();
        assert_eq!(journal.scrub_reports().len(), 1);

        // One damaged file, one counter increment — and every scrub-side
        // verdict is surfaced through the snapshot, not only the reports.
        let snap = obs.snapshot();
        assert_eq!(snap.journal_quarantines, 1);
        assert_eq!(snap.journal_scrubs, 1);
        assert_eq!(snap.journal_corruptions_detected, 1);
        let traces = obs.trace_ring().snapshot();
        assert_eq!(
            traces
                .events
                .iter()
                .filter(|event| event.kind == "journal.quarantine")
                .count(),
            1
        );

        // A second open of the already-scrubbed directory finds a clean
        // journal: no new scrub, no double-counted quarantine.
        drop(journal);
        let reopened_obs = Arc::new(varan_obs::Registry::new());
        let reopened = EventJournal::open(
            JournalConfig::new(&dir)
                .with_segment_records(100)
                .with_obs(Arc::clone(&reopened_obs)),
        )
        .unwrap();
        assert!(reopened.scrub_reports().is_empty());
        assert_eq!(reopened_obs.snapshot().journal_quarantines, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retention_deletes_whole_segments_below_the_anchor() {
        let dir = temp_dir("retain");
        let journal =
            EventJournal::open(JournalConfig::new(&dir).with_segment_records(4)).unwrap();
        for seed in 0..20u64 {
            journal.append(record(seed)).unwrap();
        }
        assert_eq!(journal.oldest_sequence(), 0);
        journal.set_anchor(10);
        // Segments [0..4) and [4..8) die; [8..12) survives because record 10
        // lives in it.
        assert_eq!(journal.oldest_sequence(), 8);
        assert_eq!(journal.anchor(), 10);
        let (start, records) = journal.read_from(10, usize::MAX).unwrap();
        assert_eq!(start, 10);
        assert_eq!(records.len(), 10);
        assert_eq!(records[0], record(10));
        // The anchor never moves backwards.
        journal.set_anchor(3);
        assert_eq!(journal.anchor(), 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_rewrites_the_straddling_segment_to_the_anchor() {
        let dir = temp_dir("compact");
        let journal =
            EventJournal::open(JournalConfig::new(&dir).with_segment_records(4)).unwrap();
        for seed in 0..20u64 {
            journal.append(record(seed)).unwrap();
        }
        journal.set_anchor(10);
        assert_eq!(journal.oldest_sequence(), 8, "whole-segment retention");
        assert_eq!(journal.compact_to_anchor().unwrap(), 2);
        assert_eq!(journal.oldest_sequence(), 10, "compacted to the anchor");
        // The rewritten segment is sealed and checksummed; the old file is
        // gone and the new one carries the anchor sequence.
        assert!(!segment_path(&dir, "seg-", 8).exists());
        let bytes = std::fs::read(segment_path(&dir, "seg-", 10)).unwrap();
        let scan = scan_segment(&bytes).unwrap();
        assert!(scan.sealed);
        assert_eq!(scan.first_seq, 10);
        assert_eq!(scan.records.len(), 2);
        // Reads above the anchor are byte-identical to the originals.
        let (start, records) = journal.read_from(10, usize::MAX).unwrap();
        assert_eq!(start, 10);
        assert_eq!(records, (10..20).map(record).collect::<Vec<_>>());
        // Idempotent: nothing left to drop.
        assert_eq!(journal.compact_to_anchor().unwrap(), 0);
        // A compacted journal reopens clean.
        drop(journal);
        let journal =
            EventJournal::open(JournalConfig::new(&dir).with_segment_records(4)).unwrap();
        assert!(journal.scrub_reports().is_empty());
        assert_eq!(journal.tail_sequence(), 20);
        let (_, records) = journal.read_from(10, usize::MAX).unwrap();
        assert_eq!(records, (10..20).map(record).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retention_and_compaction_drop_cached_decodes_of_removed_segments() {
        let dir = temp_dir("cache-prune");
        let journal = EventJournal::open(JournalConfig::new(&dir).with_segment_records(4)).unwrap();
        for seed in 0..10u64 {
            journal.append(record(seed)).unwrap();
        }
        // Reading from 0 decodes both sealed segments, [0, 4) and [4, 8).
        journal.read_from(0, usize::MAX).unwrap();
        assert_eq!(journal.read_cache.lock().len(), 2);
        // Retention deletes [0, 4); compaction replaces [4, 8) by [6, 8).
        journal.set_anchor(6);
        assert_eq!(journal.read_cache.lock().len(), 1);
        assert_eq!(journal.compact_to_anchor().unwrap(), 2);
        assert!(journal.read_cache.lock().is_empty());
        let (start, records) = journal.read_from(6, usize::MAX).unwrap();
        assert_eq!(start, 6);
        assert_eq!(records, (6..10).map(record).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_treats_a_sealed_newest_segment_as_sealed() {
        // Crash window: rotation flushed the trailer but the successor
        // file was never created.  Reopen must not append after a trailer.
        let dir = temp_dir("sealed-newest");
        {
            let journal =
                EventJournal::open(JournalConfig::new(&dir).with_segment_records(4)).unwrap();
            for seed in 0..4u64 {
                journal.append(record(seed)).unwrap();
            }
        }
        // Remove the empty successor the rotation created, leaving only
        // the sealed segment — the crash-window on-disk state.
        std::fs::remove_file(segment_path(&dir, "seg-", 4)).unwrap();
        let journal =
            EventJournal::open(JournalConfig::new(&dir).with_segment_records(4)).unwrap();
        assert!(journal.scrub_reports().is_empty());
        assert_eq!(journal.tail_sequence(), 4);
        assert_eq!(journal.append(record(40)).unwrap(), 4);
        journal.flush().unwrap();
        // The sealed file was left untouched; the append went to a fresh
        // active segment.
        let (_, records) = journal.read_from(0, usize::MAX).unwrap();
        assert_eq!(records.len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_name_filter_keeps_shards_apart() {
        assert!(is_segment_name("seg-00000000000000000000.vrj", "seg-"));
        assert!(is_segment_name("seg-3-00000000000000000042.vrj", "seg-3-"));
        // An unsharded scan must not swallow shard segments…
        assert!(!is_segment_name("seg-3-00000000000000000042.vrj", "seg-"));
        // …and a shard-0 scan must not swallow unsharded ones.
        assert!(!is_segment_name("seg-00000000000000000000.vrj", "seg-0-"));
        assert!(!is_segment_name("seg-0000000000000000000.vrj", "seg-"));
        assert!(!is_segment_name("seg-00000000000000000000.tmp", "seg-"));
        // Quarantined evidence is never re-indexed.
        assert!(!is_segment_name(
            "seg-00000000000000000000.vrj.quarantine",
            "seg-"
        ));
    }

    #[test]
    fn sharded_journals_rotate_and_reopen_independently() {
        let dir = temp_dir("sharded");
        let mk = |shard: u32| {
            JournalConfig::new(&dir)
                .with_segment_records(4)
                .with_shard(shard)
        };
        {
            let a = EventJournal::open(mk(0)).unwrap();
            let b = EventJournal::open(mk(1)).unwrap();
            for seed in 0..10u64 {
                a.append(record(seed)).unwrap();
            }
            b.append(record(99)).unwrap();
            a.flush().unwrap();
            b.flush().unwrap();
        }
        let a = EventJournal::open(mk(0)).unwrap();
        let b = EventJournal::open(mk(1)).unwrap();
        assert_eq!(a.tail_sequence(), 10);
        assert_eq!(b.tail_sequence(), 1);
        let (_, records) = a.read_from(0, usize::MAX).unwrap();
        assert_eq!(records, (0..10).map(record).collect::<Vec<_>>());
        // Retention on shard 0 never deletes shard 1's files.
        a.set_anchor(10);
        assert_eq!(b.tail_sequence(), 1);
        let (_, survivor) = b.read_from(0, usize::MAX).unwrap();
        assert_eq!(survivor, vec![record(99)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_log_style_single_segment_round_trip() {
        // The record-replay log encodes itself as one segment with
        // first_seq 0; make sure that shape round-trips here too.
        let records: Vec<JournalRecord> = (0..12).map(record).collect();
        let bytes = encode_segment(0, &records);
        let (first, decoded) = decode_segment(&bytes).unwrap();
        assert_eq!(first, 0);
        assert_eq!(decoded, records);
    }
}
