//! Checkpoint/restore of virtual-kernel state.
//!
//! Elastic membership (followers joining a running N-version execution)
//! needs more than the event stream: a joiner must first acquire the
//! *state* the stream's future events will be interpreted against — open
//! descriptors, the files behind them, the listening sockets, pending
//! signals, and the descriptor-translation map its monitor will use.  A
//! [`KernelCheckpoint`] is a serializable snapshot of exactly that, taken
//! at an event-sequence boundary: `sequence` names the first event the
//! restored state has **not** observed, so a joiner restores the checkpoint
//! and replays the spill journal from `sequence` onwards.
//!
//! Two restore modes exist, because the virtual kernel is shared by every
//! version of a run:
//!
//! * [`Kernel::restore_process`] — live attach: installs the checkpointed
//!   descriptor table into a freshly spawned process *of the same kernel*,
//!   resolving listeners against the live network namespace (a restored
//!   listener shares the accept queue, exactly as a transferred descriptor
//!   would).  The shared fs/net tables are already live truth and are left
//!   untouched.
//! * [`Kernel::restore_filesystem`] + [`Kernel::restore_process`] on a
//!   **fresh** kernel — offline restore: rebuilds files, directories and
//!   listeners from the snapshot first (disaster recovery, or replaying a
//!   journal against a from-scratch kernel).
//!
//! Live stream connections cannot be resurrected from a serialized
//! snapshot (their peer is gone); they restore as disconnected endpoints —
//! reads see EOF, writes see `EPIPE` — which mirrors what a real process
//! would observe after its peer vanished.  Pipe contents are likewise not
//! persisted: a restored pipe is empty.
//!
//! Checkpoints taken in a sequence can be stored incrementally: a
//! [`CheckpointDelta`] carries only the tables that changed since the
//! previous checkpoint, chained by the base checkpoint's CRC32C so a
//! corrupted or misordered link is refused rather than folded into a wrong
//! snapshot ([`KernelCheckpoint::delta_against`],
//! [`KernelCheckpoint::fold_chain`]; docs/DURABILITY.md).

use std::collections::HashMap;
use std::fmt;

use varan_ring::crc32c::crc32c;

use crate::errno::Errno;
use crate::fs::Node;
use crate::kernel::Kernel;
use crate::net::Endpoint;
use crate::process::{FdEntry, FdObject, Pid};
use crate::signal::Signal;

/// Magic bytes opening every encoded checkpoint.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"VRNCKPT1";

/// Magic bytes opening every encoded incremental checkpoint delta.
pub const DELTA_MAGIC: &[u8; 8] = b"VRNCKDL1";

/// Upper bound accepted for any single length field while decoding.
const MAX_FIELD: u64 = 1 << 30;

/// Error produced when an encoded checkpoint cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// What was wrong.
    pub reason: &'static str,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt checkpoint at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for CheckpointError {}

/// Serializable form of one descriptor-table object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdObjectSnapshot {
    /// The process console (fds 0–2 and any duplicates).
    Console,
    /// An open VFS file.
    File {
        /// Path of the file.
        path: String,
        /// Read/write offset at checkpoint time.
        offset: u64,
        /// Whether writes append.
        append: bool,
    },
    /// A listening socket; restored by re-attaching to the live listener on
    /// `port` (or re-binding it during an offline restore).
    Listener {
        /// Bound port.
        port: u16,
        /// Backlog the listener was created with.
        backlog: u32,
    },
    /// A connected stream; restores as a disconnected endpoint.
    Stream,
    /// A socket created but not yet listening/connected.
    UnboundSocket {
        /// Port recorded by `bind`, if any.
        bound_port: Option<u16>,
    },
    /// The read end of a pipe (restored empty).
    PipeRead,
    /// The write end of a pipe (restored empty).
    PipeWrite,
    /// An epoll instance with its interest list.
    Epoll {
        /// Descriptors registered with `epoll_ctl`.
        watched: Vec<i32>,
    },
}

/// Serializable form of one descriptor-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdSnapshot {
    /// Descriptor number.
    pub fd: i32,
    /// Close-on-exec flag.
    pub cloexec: bool,
    /// Non-blocking flag.
    pub nonblocking: bool,
    /// The object behind the descriptor.
    pub object: FdObjectSnapshot,
}

/// Serializable form of one virtual process.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProcessSnapshot {
    /// Process name (the "binary" it runs).
    pub name: String,
    /// Next descriptor number the table would hand out.
    pub next_fd: i32,
    /// Program break.
    pub brk: u64,
    /// Next `mmap` address.
    pub next_mmap: u64,
    /// Number of threads the process had spawned.
    pub threads: u32,
    /// Pending (delivered but unconsumed) signal numbers, oldest first.
    pub pending_signals: Vec<u8>,
    /// The descriptor table.
    pub fds: Vec<FdSnapshot>,
}

/// One VFS node in a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSnapshot {
    /// Absolute path.
    pub path: String,
    /// The node at that path.
    pub node: Node,
}

/// A serializable snapshot of the virtual kernel's fs/net/process/signal
/// tables plus a per-version descriptor-translation map, taken at an
/// event-sequence boundary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KernelCheckpoint {
    /// First event sequence the snapshot has **not** observed: journal
    /// replay after restore starts here.
    pub sequence: u64,
    /// The checkpointed process (the leader, for fleet attach).
    pub process: ProcessSnapshot,
    /// Every VFS node (the fs table).
    pub files: Vec<FileSnapshot>,
    /// Ports with live listeners and their backlogs (the net table).
    pub listeners: Vec<(u16, u32)>,
    /// The checkpointed version's descriptor-translation map
    /// (leader descriptor number → descriptor number in that version).
    pub fd_translation: Vec<(i64, i32)>,
    /// Per-shard sequence anchors taken at a consistent cut of a sharded
    /// data plane: component `s` is the first event of shard `s` the
    /// snapshot has not observed, so per-shard journal replay after restore
    /// starts at `shard_cut[s]`.  For an unsharded plane this is the
    /// one-element vector `[sequence]` (and [`KernelCheckpoint::cut_vector`]
    /// normalises a default-constructed empty vector to that).
    pub shard_cut: Vec<u64>,
}

impl KernelCheckpoint {
    /// The consistent-cut vector this checkpoint was taken at, normalising
    /// checkpoints from an unsharded plane (or legacy encodings with no cut)
    /// to the one-element vector `[sequence]`.
    #[must_use]
    pub fn cut_vector(&self) -> Vec<u64> {
        if self.shard_cut.is_empty() {
            vec![self.sequence]
        } else {
            self.shard_cut.clone()
        }
    }
}

// ---------------------------------------------------------------------
// Binary encoding
// ---------------------------------------------------------------------

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(bytes);
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn fail<T>(&self, reason: &'static str) -> Result<T, CheckpointError> {
        Err(CheckpointError {
            offset: self.at,
            reason,
        })
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .at
            .checked_add(len)
            .ok_or(CheckpointError {
                offset: self.at,
                reason: "length overflows",
            })?;
        let slice = self.bytes.get(self.at..end).ok_or(CheckpointError {
            offset: self.at,
            reason: "truncated",
        })?;
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn len(&mut self) -> Result<usize, CheckpointError> {
        let len = self.u64()?;
        if len > MAX_FIELD {
            return self.fail("length exceeds the 1 GiB bound");
        }
        Ok(len as usize)
    }

    fn bytes_field(&mut self) -> Result<Vec<u8>, CheckpointError> {
        let len = self.len()?;
        Ok(self.take(len)?.to_vec())
    }

    fn string(&mut self) -> Result<String, CheckpointError> {
        let bytes = self.bytes_field()?;
        String::from_utf8(bytes).map_err(|_| CheckpointError {
            offset: self.at,
            reason: "invalid utf-8 in string field",
        })
    }
}

fn encode_fd_object(out: &mut Vec<u8>, object: &FdObjectSnapshot) {
    match object {
        FdObjectSnapshot::Console => out.push(0),
        FdObjectSnapshot::File {
            path,
            offset,
            append,
        } => {
            out.push(1);
            put_bytes(out, path.as_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.push(u8::from(*append));
        }
        FdObjectSnapshot::Listener { port, backlog } => {
            out.push(2);
            out.extend_from_slice(&port.to_le_bytes());
            out.extend_from_slice(&backlog.to_le_bytes());
        }
        FdObjectSnapshot::Stream => out.push(3),
        FdObjectSnapshot::UnboundSocket { bound_port } => {
            out.push(4);
            match bound_port {
                Some(port) => {
                    out.push(1);
                    out.extend_from_slice(&port.to_le_bytes());
                }
                None => out.push(0),
            }
        }
        FdObjectSnapshot::PipeRead => out.push(5),
        FdObjectSnapshot::PipeWrite => out.push(6),
        FdObjectSnapshot::Epoll { watched } => {
            out.push(7);
            out.extend_from_slice(&(watched.len() as u64).to_le_bytes());
            for fd in watched {
                out.extend_from_slice(&fd.to_le_bytes());
            }
        }
    }
}

fn decode_fd_object(reader: &mut Reader<'_>) -> Result<FdObjectSnapshot, CheckpointError> {
    Ok(match reader.u8()? {
        0 => FdObjectSnapshot::Console,
        1 => FdObjectSnapshot::File {
            path: reader.string()?,
            offset: reader.u64()?,
            append: reader.u8()? != 0,
        },
        2 => FdObjectSnapshot::Listener {
            port: reader.u16()?,
            backlog: reader.u32()?,
        },
        3 => FdObjectSnapshot::Stream,
        4 => match reader.u8()? {
            0 => FdObjectSnapshot::UnboundSocket { bound_port: None },
            1 => FdObjectSnapshot::UnboundSocket {
                bound_port: Some(reader.u16()?),
            },
            _ => return reader.fail("invalid option tag for bound port"),
        },
        5 => FdObjectSnapshot::PipeRead,
        6 => FdObjectSnapshot::PipeWrite,
        7 => {
            let count = reader.len()?;
            let mut watched = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                watched.push(reader.u32()? as i32);
            }
            FdObjectSnapshot::Epoll { watched }
        }
        _ => return reader.fail("unknown descriptor-object tag"),
    })
}

fn encode_node(out: &mut Vec<u8>, node: &Node) {
    match node {
        Node::File(data) => {
            out.push(0);
            put_bytes(out, data);
        }
        Node::Directory => out.push(1),
        Node::DevNull => out.push(2),
        Node::DevZero => out.push(3),
        Node::DevUrandom => out.push(4),
    }
}

fn decode_node(reader: &mut Reader<'_>) -> Result<Node, CheckpointError> {
    Ok(match reader.u8()? {
        0 => Node::File(reader.bytes_field()?),
        1 => Node::Directory,
        2 => Node::DevNull,
        3 => Node::DevZero,
        4 => Node::DevUrandom,
        _ => return reader.fail("unknown vfs node tag"),
    })
}

fn encode_process(out: &mut Vec<u8>, process: &ProcessSnapshot) {
    put_bytes(out, process.name.as_bytes());
    out.extend_from_slice(&process.next_fd.to_le_bytes());
    out.extend_from_slice(&process.brk.to_le_bytes());
    out.extend_from_slice(&process.next_mmap.to_le_bytes());
    out.extend_from_slice(&process.threads.to_le_bytes());
    put_bytes(out, &process.pending_signals);
    out.extend_from_slice(&(process.fds.len() as u64).to_le_bytes());
    for fd in &process.fds {
        out.extend_from_slice(&fd.fd.to_le_bytes());
        out.push(u8::from(fd.cloexec));
        out.push(u8::from(fd.nonblocking));
        encode_fd_object(out, &fd.object);
    }
}

fn decode_process(reader: &mut Reader<'_>) -> Result<ProcessSnapshot, CheckpointError> {
    let name = reader.string()?;
    let next_fd = reader.u32()? as i32;
    let brk = reader.u64()?;
    let next_mmap = reader.u64()?;
    let threads = reader.u32()?;
    let pending_signals = reader.bytes_field()?;
    let fd_count = reader.len()?;
    let mut fds = Vec::with_capacity(fd_count.min(1 << 16));
    for _ in 0..fd_count {
        let fd = reader.u32()? as i32;
        let cloexec = reader.u8()? != 0;
        let nonblocking = reader.u8()? != 0;
        let object = decode_fd_object(reader)?;
        fds.push(FdSnapshot {
            fd,
            cloexec,
            nonblocking,
            object,
        });
    }
    Ok(ProcessSnapshot {
        name,
        next_fd,
        brk,
        next_mmap,
        threads,
        pending_signals,
        fds,
    })
}

fn encode_files(out: &mut Vec<u8>, files: &[FileSnapshot]) {
    out.extend_from_slice(&(files.len() as u64).to_le_bytes());
    for file in files {
        put_bytes(out, file.path.as_bytes());
        encode_node(out, &file.node);
    }
}

fn decode_files(reader: &mut Reader<'_>) -> Result<Vec<FileSnapshot>, CheckpointError> {
    let file_count = reader.len()?;
    let mut files = Vec::with_capacity(file_count.min(1 << 16));
    for _ in 0..file_count {
        let path = reader.string()?;
        let node = decode_node(reader)?;
        files.push(FileSnapshot { path, node });
    }
    Ok(files)
}

fn encode_listeners(out: &mut Vec<u8>, listeners: &[(u16, u32)]) {
    out.extend_from_slice(&(listeners.len() as u64).to_le_bytes());
    for (port, backlog) in listeners {
        out.extend_from_slice(&port.to_le_bytes());
        out.extend_from_slice(&backlog.to_le_bytes());
    }
}

fn decode_listeners(reader: &mut Reader<'_>) -> Result<Vec<(u16, u32)>, CheckpointError> {
    let listener_count = reader.len()?;
    let mut listeners = Vec::with_capacity(listener_count.min(1 << 16));
    for _ in 0..listener_count {
        listeners.push((reader.u16()?, reader.u32()?));
    }
    Ok(listeners)
}

fn encode_translation(out: &mut Vec<u8>, translation: &[(i64, i32)]) {
    out.extend_from_slice(&(translation.len() as u64).to_le_bytes());
    for (leader_fd, local_fd) in translation {
        out.extend_from_slice(&leader_fd.to_le_bytes());
        out.extend_from_slice(&local_fd.to_le_bytes());
    }
}

fn decode_translation(reader: &mut Reader<'_>) -> Result<Vec<(i64, i32)>, CheckpointError> {
    let translation_count = reader.len()?;
    let mut fd_translation = Vec::with_capacity(translation_count.min(1 << 16));
    for _ in 0..translation_count {
        let leader_fd = reader.u64()? as i64;
        let local_fd = reader.u32()? as i32;
        fd_translation.push((leader_fd, local_fd));
    }
    Ok(fd_translation)
}

fn encode_cut(out: &mut Vec<u8>, cut: &[u64]) {
    out.extend_from_slice(&(cut.len() as u64).to_le_bytes());
    for component in cut {
        out.extend_from_slice(&component.to_le_bytes());
    }
}

fn decode_cut(reader: &mut Reader<'_>) -> Result<Vec<u64>, CheckpointError> {
    let cut_len = reader.len()?;
    let mut shard_cut = Vec::with_capacity(cut_len.min(1 << 10));
    for _ in 0..cut_len {
        shard_cut.push(reader.u64()?);
    }
    Ok(shard_cut)
}

impl KernelCheckpoint {
    /// Serialises the checkpoint into its binary form.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(CHECKPOINT_MAGIC);
        out.extend_from_slice(&self.sequence.to_le_bytes());
        encode_process(&mut out, &self.process);
        encode_files(&mut out, &self.files);
        encode_listeners(&mut out, &self.listeners);
        encode_translation(&mut out, &self.fd_translation);
        encode_cut(&mut out, &self.shard_cut);
        out
    }

    /// The checkpoint's CRC32C over its canonical encoding — the identity a
    /// [`CheckpointDelta`] chains against, so a delta can never be applied
    /// to a base that differs (even by one bit) from the snapshot it was
    /// computed from.
    #[must_use]
    pub fn checksum(&self) -> u32 {
        crc32c(&self.encode())
    }

    /// Decodes a checkpoint previously produced by [`KernelCheckpoint::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] with the failing offset if the bytes are
    /// truncated, carry invalid tags or lie about any length.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut reader = Reader { bytes, at: 0 };
        if reader.take(CHECKPOINT_MAGIC.len())? != CHECKPOINT_MAGIC {
            return Err(CheckpointError {
                offset: 0,
                reason: "missing checkpoint magic",
            });
        }
        let sequence = reader.u64()?;
        let process = decode_process(&mut reader)?;
        let files = decode_files(&mut reader)?;
        let listeners = decode_listeners(&mut reader)?;
        let fd_translation = decode_translation(&mut reader)?;
        let shard_cut = decode_cut(&mut reader)?;
        if reader.at != bytes.len() {
            return reader.fail("trailing bytes after checkpoint");
        }
        Ok(KernelCheckpoint {
            sequence,
            process,
            files,
            listeners,
            fd_translation,
            shard_cut,
        })
    }
}

// ---------------------------------------------------------------------
// Incremental checkpoints
// ---------------------------------------------------------------------

/// An incremental checkpoint: the tables that changed between a base
/// [`KernelCheckpoint`] and a later one, at table granularity.
///
/// Restore folds a base checkpoint plus a chain of deltas back into the
/// full snapshot ([`KernelCheckpoint::fold_chain`]).  Every link carries
/// the CRC32C of the exact base it was computed from, so a delta can never
/// be applied to a checkpoint that differs — even by one bit — from the
/// one it extends; corruption anywhere in the chain is detected instead of
/// silently producing a wrong snapshot (docs/DURABILITY.md).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointDelta {
    /// Event sequence of the checkpoint this delta produces when applied.
    pub sequence: u64,
    /// Event sequence of the base checkpoint the delta was computed from.
    pub base_sequence: u64,
    /// CRC32C of the base checkpoint's canonical encoding
    /// ([`KernelCheckpoint::checksum`]); [`KernelCheckpoint::apply_delta`]
    /// refuses the link if its actual base disagrees.
    pub base_checksum: u32,
    /// Replacement process table, or `None` if unchanged since the base.
    pub process: Option<ProcessSnapshot>,
    /// Replacement filesystem table, or `None` if unchanged.
    pub files: Option<Vec<FileSnapshot>>,
    /// Replacement listener table, or `None` if unchanged.
    pub listeners: Option<Vec<(u16, u32)>>,
    /// Replacement descriptor-translation map, or `None` if unchanged.
    pub fd_translation: Option<Vec<(i64, i32)>>,
    /// Replacement per-shard cut vector, or `None` if unchanged.
    pub shard_cut: Option<Vec<u64>>,
}

impl CheckpointDelta {
    /// True if the delta changes nothing except the sequence stamp.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.process.is_none()
            && self.files.is_none()
            && self.listeners.is_none()
            && self.fd_translation.is_none()
            && self.shard_cut.is_none()
    }

    /// Serialises the delta into its binary form: magic, sequence pair,
    /// base checksum, five tagged optional table sections, and a trailing
    /// CRC32C over everything before it.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        fn section<T>(out: &mut Vec<u8>, table: &Option<T>, encode: impl FnOnce(&mut Vec<u8>, &T)) {
            match table {
                None => out.push(0),
                Some(value) => {
                    out.push(1);
                    encode(out, value);
                }
            }
        }
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(DELTA_MAGIC);
        out.extend_from_slice(&self.sequence.to_le_bytes());
        out.extend_from_slice(&self.base_sequence.to_le_bytes());
        out.extend_from_slice(&self.base_checksum.to_le_bytes());
        section(&mut out, &self.process, encode_process);
        section(&mut out, &self.files, |out, files| encode_files(out, files));
        section(&mut out, &self.listeners, |out, listeners| {
            encode_listeners(out, listeners);
        });
        section(&mut out, &self.fd_translation, |out, translation| {
            encode_translation(out, translation);
        });
        section(&mut out, &self.shard_cut, |out, cut| encode_cut(out, cut));
        let crc = crc32c(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes a delta previously produced by [`CheckpointDelta::encode`],
    /// verifying the trailing CRC before trusting any field.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] with the failing offset if the bytes are
    /// truncated, fail the integrity check, carry invalid tags or lie about
    /// any length.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        const CRC_LEN: usize = 4;
        if bytes.len() < DELTA_MAGIC.len() + CRC_LEN {
            return Err(CheckpointError {
                offset: bytes.len(),
                reason: "truncated checkpoint delta",
            });
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - CRC_LEN);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte slice"));
        if crc32c(body) != stored {
            return Err(CheckpointError {
                offset: body.len(),
                reason: "checkpoint delta checksum mismatch",
            });
        }
        let mut reader = Reader { bytes: body, at: 0 };
        if reader.take(DELTA_MAGIC.len())? != DELTA_MAGIC {
            return Err(CheckpointError {
                offset: 0,
                reason: "missing checkpoint delta magic",
            });
        }
        let sequence = reader.u64()?;
        let base_sequence = reader.u64()?;
        let base_checksum = reader.u32()?;
        fn section<T>(
            reader: &mut Reader<'_>,
            decode: impl FnOnce(&mut Reader<'_>) -> Result<T, CheckpointError>,
        ) -> Result<Option<T>, CheckpointError> {
            match reader.u8()? {
                0 => Ok(None),
                1 => Ok(Some(decode(reader)?)),
                _ => reader.fail("invalid delta section tag"),
            }
        }
        let process = section(&mut reader, decode_process)?;
        let files = section(&mut reader, decode_files)?;
        let listeners = section(&mut reader, decode_listeners)?;
        let fd_translation = section(&mut reader, decode_translation)?;
        let shard_cut = section(&mut reader, decode_cut)?;
        if reader.at != body.len() {
            return reader.fail("trailing bytes after checkpoint delta");
        }
        Ok(CheckpointDelta {
            sequence,
            base_sequence,
            base_checksum,
            process,
            files,
            listeners,
            fd_translation,
            shard_cut,
        })
    }
}

impl KernelCheckpoint {
    /// Computes the incremental checkpoint that turns `prev` into `self`:
    /// only tables that actually differ are carried, each as a whole
    /// (table-granularity diffing keeps the codec bounds-checkable and the
    /// restore fold trivially associative).
    #[must_use]
    pub fn delta_against(&self, prev: &KernelCheckpoint) -> CheckpointDelta {
        CheckpointDelta {
            sequence: self.sequence,
            base_sequence: prev.sequence,
            base_checksum: prev.checksum(),
            process: (self.process != prev.process).then(|| self.process.clone()),
            files: (self.files != prev.files).then(|| self.files.clone()),
            listeners: (self.listeners != prev.listeners).then(|| self.listeners.clone()),
            fd_translation: (self.fd_translation != prev.fd_translation)
                .then(|| self.fd_translation.clone()),
            shard_cut: (self.shard_cut != prev.shard_cut).then(|| self.shard_cut.clone()),
        }
    }

    /// Applies one delta link, producing the next checkpoint in the chain.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] if the delta was not computed against
    /// exactly this checkpoint: a sequence mismatch, or a base-checksum
    /// mismatch (the base was corrupted, or the chain links were reordered).
    pub fn apply_delta(&self, delta: &CheckpointDelta) -> Result<KernelCheckpoint, CheckpointError> {
        if delta.base_sequence != self.sequence {
            return Err(CheckpointError {
                offset: 0,
                reason: "delta base sequence does not match the checkpoint it is applied to",
            });
        }
        if delta.base_checksum != self.checksum() {
            return Err(CheckpointError {
                offset: 0,
                reason: "checksum-mismatched delta link",
            });
        }
        Ok(KernelCheckpoint {
            sequence: delta.sequence,
            process: delta.process.clone().unwrap_or_else(|| self.process.clone()),
            files: delta.files.clone().unwrap_or_else(|| self.files.clone()),
            listeners: delta
                .listeners
                .clone()
                .unwrap_or_else(|| self.listeners.clone()),
            fd_translation: delta
                .fd_translation
                .clone()
                .unwrap_or_else(|| self.fd_translation.clone()),
            shard_cut: delta
                .shard_cut
                .clone()
                .unwrap_or_else(|| self.shard_cut.clone()),
        })
    }

    /// Folds a base checkpoint and an ordered delta chain into the final
    /// checkpoint, verifying every link's base checksum along the way.
    ///
    /// # Errors
    ///
    /// Returns the first link's [`CheckpointError`] if any delta in the
    /// chain fails [`KernelCheckpoint::apply_delta`]'s identity checks.
    pub fn fold_chain(
        base: &KernelCheckpoint,
        deltas: &[CheckpointDelta],
    ) -> Result<KernelCheckpoint, CheckpointError> {
        let mut current = base.clone();
        for delta in deltas {
            current = current.apply_delta(delta)?;
        }
        Ok(current)
    }
}

// ---------------------------------------------------------------------
// Taking and restoring checkpoints
// ---------------------------------------------------------------------

pub(crate) fn snapshot_fd_object(object: &FdObject) -> FdObjectSnapshot {
    match object {
        FdObject::Console => FdObjectSnapshot::Console,
        FdObject::File {
            path,
            offset,
            append,
        } => FdObjectSnapshot::File {
            path: path.clone(),
            offset: *offset,
            append: *append,
        },
        FdObject::Listener(listener) => FdObjectSnapshot::Listener {
            port: listener.port(),
            backlog: listener.backlog() as u32,
        },
        FdObject::Stream(_) => FdObjectSnapshot::Stream,
        FdObject::UnboundSocket { bound_port } => FdObjectSnapshot::UnboundSocket {
            bound_port: *bound_port,
        },
        FdObject::PipeRead(_) => FdObjectSnapshot::PipeRead,
        FdObject::PipeWrite(_) => FdObjectSnapshot::PipeWrite,
        FdObject::Epoll { watched } => FdObjectSnapshot::Epoll {
            watched: watched.clone(),
        },
    }
}

impl Kernel {
    /// Takes a checkpoint of this kernel's fs/net/signal tables and of
    /// process `pid`'s state, stamped with event `sequence` (the first event
    /// the snapshot has not observed) and carrying `fd_translation` as the
    /// checkpointed version's descriptor-translation map.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::ENOENT`] if `pid` is unknown.
    pub fn checkpoint(
        &self,
        pid: Pid,
        sequence: u64,
        fd_translation: &HashMap<i64, i32>,
    ) -> Result<KernelCheckpoint, Errno> {
        let process = self.snapshot_process(pid)?;
        let files = self
            .vfs_entries()
            .into_iter()
            .map(|(path, node)| FileSnapshot { path, node })
            .collect();
        let listeners = self
            .network()
            .live_listeners_snapshot()
            .into_iter()
            .map(|(port, backlog)| (port, backlog as u32))
            .collect();
        let mut fd_translation: Vec<(i64, i32)> =
            fd_translation.iter().map(|(&k, &v)| (k, v)).collect();
        fd_translation.sort_unstable();
        Ok(KernelCheckpoint {
            sequence,
            process,
            files,
            listeners,
            fd_translation,
            shard_cut: vec![sequence],
        })
    }

    /// Takes a checkpoint at a **consistent cut** of a sharded data plane:
    /// `cut[s]` is the first event of shard `s` the snapshot has not
    /// observed (each shard's journal tail, read before the snapshot).  The
    /// scalar `sequence` is set to the control shard's component, keeping
    /// unsharded consumers of the checkpoint meaningful.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::ENOENT`] if `pid` is unknown.
    pub fn checkpoint_at_cut(
        &self,
        pid: Pid,
        cut: &[u64],
        fd_translation: &HashMap<i64, i32>,
    ) -> Result<KernelCheckpoint, Errno> {
        let sequence = cut.first().copied().unwrap_or(0);
        let mut checkpoint = self.checkpoint(pid, sequence, fd_translation)?;
        checkpoint.shard_cut = cut.to_vec();
        Ok(checkpoint)
    }

    /// Restores a checkpointed process image into the (already spawned)
    /// process `target`: descriptor table, pending signals, break and mmap
    /// cursors.  Listeners re-attach to the live network namespace when the
    /// port is still bound (sharing the accept queue, as a transferred
    /// descriptor would) and are re-bound otherwise; streams restore as
    /// disconnected endpoints; pipes restore empty.
    ///
    /// Returns the joiner's descriptor-translation map: every checkpointed
    /// descriptor is installed *at its original number*, so the map is the
    /// identity over the snapshot's descriptors — exactly what a follower
    /// monitor needs to translate the leader's descriptor arguments.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::ENOENT`] if `target` is unknown.
    pub fn restore_process(
        &self,
        checkpoint: &KernelCheckpoint,
        target: Pid,
    ) -> Result<HashMap<i64, i32>, Errno> {
        let mut entries = Vec::with_capacity(checkpoint.process.fds.len());
        let mut translation = HashMap::with_capacity(checkpoint.process.fds.len());
        for fd in &checkpoint.process.fds {
            let object = match &fd.object {
                FdObjectSnapshot::Console => FdObject::Console,
                FdObjectSnapshot::File {
                    path,
                    offset,
                    append,
                } => FdObject::File {
                    path: path.clone(),
                    offset: *offset,
                    append: *append,
                },
                FdObjectSnapshot::Listener { port, backlog } => {
                    let listener = match self.network().listener(*port) {
                        Some(live) => live,
                        None => self
                            .network()
                            .listen(*port, *backlog as usize)
                            .map_err(|_| Errno::EADDRINUSE)?,
                    };
                    FdObject::Listener(listener)
                }
                FdObjectSnapshot::Stream => FdObject::Stream(Endpoint::disconnected()),
                FdObjectSnapshot::UnboundSocket { bound_port } => FdObject::UnboundSocket {
                    bound_port: *bound_port,
                },
                FdObjectSnapshot::PipeRead => {
                    FdObject::PipeRead(std::sync::Arc::new(crate::process::Pipe::default()))
                }
                FdObjectSnapshot::PipeWrite => {
                    FdObject::PipeWrite(std::sync::Arc::new(crate::process::Pipe::default()))
                }
                FdObjectSnapshot::Epoll { watched } => FdObject::Epoll {
                    watched: watched.clone(),
                },
            };
            let mut entry = FdEntry::new(object);
            entry.cloexec = fd.cloexec;
            entry.nonblocking = fd.nonblocking;
            entries.push((fd.fd, entry));
            translation.insert(i64::from(fd.fd), fd.fd);
        }
        {
            let mut table = self.processes_lock();
            let process = table.get_mut(target)?;
            process.restore_fds(entries, checkpoint.process.next_fd);
            process.brk = checkpoint.process.brk;
            process.next_mmap = checkpoint.process.next_mmap;
            for signo in &checkpoint.process.pending_signals {
                if let Some(signal) = Signal::from_number(*signo) {
                    process.deliver_signal(signal);
                }
            }
        }
        Ok(translation)
    }

    /// Rebuilds the checkpointed fs and net tables into this kernel:
    /// missing files, directories, devices and listeners are created; paths
    /// that already exist are left untouched (the live tables are newer
    /// truth than the snapshot).  Use on a fresh kernel for a full offline
    /// restore.
    ///
    /// # Errors
    ///
    /// Propagates VFS errors for unrestorable paths.
    pub fn restore_filesystem(&self, checkpoint: &KernelCheckpoint) -> Result<(), Errno> {
        // Parents first: the snapshot is sorted by construction (BTreeMap
        // iteration order), but re-sort defensively for decoded inputs.
        let mut files = checkpoint.files.clone();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        for file in &files {
            if self.file_exists(&file.path) {
                continue;
            }
            match &file.node {
                Node::Directory => self.vfs_mkdir(&file.path)?,
                Node::File(data) => self.populate_file(&file.path, data.clone())?,
                // Devices exist in every fresh VFS; nothing to do for the
                // standard ones, and custom device paths are not supported.
                Node::DevNull | Node::DevZero | Node::DevUrandom => {}
            }
        }
        for (port, backlog) in &checkpoint.listeners {
            if self.network().listener(*port).is_none() {
                let _ = self.network().listen(*port, *backlog as usize);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syscall::SyscallRequest;
    use crate::Sysno;

    fn populated_kernel() -> (Kernel, Pid) {
        let kernel = Kernel::new();
        kernel
            .populate_file("/var/www/index.html", b"<html>varan</html>".to_vec())
            .unwrap();
        let pid = kernel.spawn_process("server-v1");
        // open a file
        let open = kernel.syscall(pid, &SyscallRequest::open("/var/www/index.html", 0));
        assert!(open.result >= 0);
        // socket + bind + listen
        let sock = kernel.syscall(pid, &SyscallRequest::new(Sysno::Socket, [0; 6]));
        assert!(sock.result >= 0);
        let fd = sock.result as u64;
        kernel.syscall(pid, &SyscallRequest::new(Sysno::Bind, [fd, 6379, 0, 0, 0, 0]));
        let listen =
            kernel.syscall(pid, &SyscallRequest::new(Sysno::Listen, [fd, 16, 0, 0, 0, 0]));
        assert_eq!(listen.result, 0);
        kernel.deliver_signal(pid, Signal::Sigusr1).unwrap();
        (kernel, pid)
    }

    #[test]
    fn checkpoint_captures_all_four_tables() {
        let (kernel, pid) = populated_kernel();
        let translation: HashMap<i64, i32> = [(3i64, 3i32)].into_iter().collect();
        let checkpoint = kernel.checkpoint(pid, 42, &translation).unwrap();
        assert_eq!(checkpoint.sequence, 42);
        assert_eq!(checkpoint.process.name, "server-v1");
        assert!(checkpoint.process.fds.len() >= 5, "console x3 + file + listener");
        assert!(checkpoint
            .files
            .iter()
            .any(|f| f.path == "/var/www/index.html"));
        assert_eq!(checkpoint.listeners, vec![(6379, 16)]);
        assert_eq!(checkpoint.process.pending_signals, vec![Signal::Sigusr1.number()]);
        assert_eq!(checkpoint.fd_translation, vec![(3, 3)]);
        assert!(kernel.checkpoint(999, 0, &HashMap::new()).is_err());
    }

    #[test]
    fn encode_decode_round_trips() {
        let (kernel, pid) = populated_kernel();
        let checkpoint = kernel.checkpoint(pid, 7, &HashMap::new()).unwrap();
        let bytes = checkpoint.encode();
        let decoded = KernelCheckpoint::decode(&bytes).unwrap();
        assert_eq!(decoded, checkpoint);
    }

    #[test]
    fn decode_rejects_truncated_and_corrupt_bytes() {
        assert!(KernelCheckpoint::decode(b"junk").is_err());
        let (kernel, pid) = populated_kernel();
        let checkpoint = kernel.checkpoint(pid, 7, &HashMap::new()).unwrap();
        let bytes = checkpoint.encode();
        // Every truncation point must fail cleanly, never panic.
        for cut in [1, 8, 16, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(KernelCheckpoint::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Corrupt magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(KernelCheckpoint::decode(&bad).is_err());
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(KernelCheckpoint::decode(&long).is_err());
        // A length field claiming more than the 1 GiB bound.
        let mut lying = bytes;
        lying[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(KernelCheckpoint::decode(&lying).is_err());
    }

    #[test]
    fn live_restore_shares_the_listener_and_translates_identically() {
        let (kernel, pid) = populated_kernel();
        let checkpoint = kernel.checkpoint(pid, 0, &HashMap::new()).unwrap();
        let joiner = kernel.spawn_process("joiner");
        let translation = kernel.restore_process(&checkpoint, joiner).unwrap();
        // Identity translation over every checkpointed descriptor.
        for fd in &checkpoint.process.fds {
            assert_eq!(translation.get(&i64::from(fd.fd)), Some(&fd.fd));
        }
        // The restored listener shares the live accept queue: a connection
        // made to the leader's port is acceptable through the joiner's fd.
        let _client = kernel.network().connect(6379).unwrap();
        let accept = kernel.syscall(joiner, &SyscallRequest::new(Sysno::Accept, [4, 0, 0, 0, 0, 0]));
        assert!(accept.result >= 0, "joiner accepts via restored listener: {accept:?}");
        // The restored file descriptor reads the same file.
        let read = kernel.syscall(joiner, &SyscallRequest::read(3, 5));
        assert_eq!(read.result, 5);
    }

    #[test]
    fn offline_restore_rebuilds_fs_and_net_on_a_fresh_kernel() {
        let (kernel, pid) = populated_kernel();
        let bytes = kernel.checkpoint(pid, 9, &HashMap::new()).unwrap().encode();

        let fresh = Kernel::new();
        let checkpoint = KernelCheckpoint::decode(&bytes).unwrap();
        fresh.restore_filesystem(&checkpoint).unwrap();
        assert_eq!(
            fresh.read_file("/var/www/index.html").unwrap(),
            b"<html>varan</html>".to_vec()
        );
        assert!(fresh.network().listener(6379).is_some());

        let pid = fresh.spawn_process(&checkpoint.process.name);
        fresh.restore_process(&checkpoint, pid).unwrap();
        let read = fresh.syscall(pid, &SyscallRequest::read(3, 6));
        assert_eq!(read.result, 6, "restored fd 3 reads the restored file");
        assert_eq!(fresh.take_signal(pid), Some(Signal::Sigusr1));
    }

    #[test]
    fn restored_streams_are_disconnected_not_dangling() {
        let (kernel, pid) = populated_kernel();
        // Give the leader a live stream fd.
        let listener = kernel.network().listen(7000, 4).unwrap();
        let _client = kernel.network().connect(7000).unwrap();
        let endpoint = listener.accept(true).unwrap();
        let stream_fd = {
            let mut table = kernel.processes_lock();
            table
                .get_mut(pid)
                .unwrap()
                .install_fd(FdEntry::new(FdObject::Stream(endpoint)))
                .unwrap()
        };
        let checkpoint = kernel.checkpoint(pid, 0, &HashMap::new()).unwrap();
        let joiner = kernel.spawn_process("joiner");
        kernel.restore_process(&checkpoint, joiner).unwrap();
        let read = kernel.syscall(joiner, &SyscallRequest::read(stream_fd, 8));
        // EOF (0), not a hang and not EBADF.
        assert_eq!(read.result, 0);
    }

    #[test]
    fn delta_carries_only_changed_tables() {
        let (kernel, pid) = populated_kernel();
        let base = kernel.checkpoint(pid, 10, &HashMap::new()).unwrap();
        // Mutate only the fs table between checkpoints.
        kernel.populate_file("/tmp/app.log", b"line".to_vec()).unwrap();
        let next = kernel.checkpoint(pid, 20, &HashMap::new()).unwrap();
        let delta = next.delta_against(&base);
        assert_eq!(delta.sequence, 20);
        assert_eq!(delta.base_sequence, 10);
        assert_eq!(delta.base_checksum, base.checksum());
        assert!(delta.files.is_some(), "fs table changed");
        assert!(delta.process.is_none(), "process table unchanged");
        assert!(delta.listeners.is_none());
        assert!(delta.fd_translation.is_none());
        // The cut vector is stamped with the sequence, so it always changes
        // between checkpoints at different sequences.
        assert!(delta.shard_cut.is_some());
        assert!(!delta.is_empty());
        assert_eq!(base.apply_delta(&delta).unwrap(), next);
    }

    #[test]
    fn delta_encode_decode_round_trips_and_rejects_damage() {
        let (kernel, pid) = populated_kernel();
        let base = kernel.checkpoint(pid, 1, &HashMap::new()).unwrap();
        kernel.populate_file("/etc/config", b"v2".to_vec()).unwrap();
        let next = kernel.checkpoint(pid, 2, &HashMap::new()).unwrap();
        let delta = next.delta_against(&base);
        let bytes = delta.encode();
        assert_eq!(CheckpointDelta::decode(&bytes).unwrap(), delta);

        // Every truncation fails cleanly.
        for cut in [0, 1, 8, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(CheckpointDelta::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Any single corrupted byte is caught by the trailing CRC.
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert!(CheckpointDelta::decode(&bad).is_err(), "flip at {at} undetected");
        }
        // Trailing garbage moves the CRC out of place.
        let mut long = bytes.clone();
        long.push(0);
        assert!(CheckpointDelta::decode(&long).is_err());
    }

    #[test]
    fn apply_delta_refuses_mismatched_links() {
        let (kernel, pid) = populated_kernel();
        let base = kernel.checkpoint(pid, 1, &HashMap::new()).unwrap();
        kernel.populate_file("/a", b"x".to_vec()).unwrap();
        let next = kernel.checkpoint(pid, 2, &HashMap::new()).unwrap();
        let delta = next.delta_against(&base);

        // Wrong base sequence: the link is not for this checkpoint.
        let mut wrong_seq = delta.clone();
        wrong_seq.base_sequence = 999;
        let err = base.apply_delta(&wrong_seq).unwrap_err();
        assert!(err.reason.contains("base sequence"), "{}", err.reason);

        // A base that differs by one bit from the recorded checksum.
        let mut tampered_base = base.clone();
        tampered_base.process.brk ^= 1;
        let err = tampered_base.apply_delta(&delta).unwrap_err();
        assert_eq!(err.reason, "checksum-mismatched delta link");

        // The honest base still applies.
        assert_eq!(base.apply_delta(&delta).unwrap(), next);
    }

    #[test]
    fn folding_a_chain_reproduces_the_full_checkpoint() {
        let (kernel, pid) = populated_kernel();
        let translation: HashMap<i64, i32> = [(3i64, 3i32)].into_iter().collect();
        let c1 = kernel.checkpoint(pid, 100, &HashMap::new()).unwrap();
        kernel.populate_file("/data/1", b"one".to_vec()).unwrap();
        let c2 = kernel.checkpoint(pid, 200, &HashMap::new()).unwrap();
        kernel.populate_file("/data/2", b"two".to_vec()).unwrap();
        kernel.deliver_signal(pid, Signal::Sigusr1).unwrap();
        let c3 = kernel.checkpoint(pid, 300, &translation).unwrap();

        let d2 = c2.delta_against(&c1);
        let d3 = c3.delta_against(&c2);
        let folded = KernelCheckpoint::fold_chain(&c1, &[d2.clone(), d3.clone()]).unwrap();
        assert_eq!(folded, c3);
        assert_eq!(folded.checksum(), c3.checksum());
        assert_eq!(folded.encode(), c3.encode());

        // Reordering the chain breaks the checksum links.
        assert!(KernelCheckpoint::fold_chain(&c1, &[d3, d2]).is_err());
    }

    #[test]
    fn empty_delta_round_trips_and_applies() {
        let (kernel, pid) = populated_kernel();
        let base = kernel.checkpoint(pid, 5, &HashMap::new()).unwrap();
        // Same sequence, nothing mutated: every table section is omitted.
        let same = kernel.checkpoint(pid, 5, &HashMap::new()).unwrap();
        let delta = same.delta_against(&base);
        assert!(delta.is_empty());
        let bytes = delta.encode();
        assert_eq!(CheckpointDelta::decode(&bytes).unwrap(), delta);
        assert_eq!(base.apply_delta(&delta).unwrap(), base);
    }
}
