//! The traced run: spans recorded from the benchmark's side of each layer
//! boundary, kept in memory and written out when the run ends.
//!
//! A [`Traced`] program wraps a version and hands it a [`TimedSys`], which
//! delegates every `SyscallInterface` call to the real interface (native
//! executor, leader monitor or follower monitor) and records one span around
//! it.  On server workloads the wrapper also reconstructs **server request
//! spans**: the servers answer each request with exactly one write batch on
//! the connection, so the k-th response batch on the c-th accepted
//! connection closes request `(c, k)` — the same `(connection, k)` the
//! client numbers its requests with.  (The issue keyed on the k-th
//! data-returning read; under open-loop backlog one read delivers several
//! pipelined requests, so responses are the boundary that stays 1:1.)

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::adapter::{ProgramExit, SyscallInterface, SyscallOutcome, SyscallRequest, Sysno};
use crate::json::Value;
use crate::procfs;

/// Span names that are not syscall numbers.
pub const SERVER_REQUEST: u16 = u16::MAX - 1;
pub const BLOCK: u16 = u16::MAX - 2;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static EPOCH_UNIX_NS: OnceLock<u64> = OnceLock::new();

fn unix_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Pins the trace epoch (call first thing in `main`).
pub fn init_epoch() {
    EPOCH.get_or_init(Instant::now);
    EPOCH_UNIX_NS.get_or_init(unix_ns);
}

/// Wall-clock nanoseconds since the Unix epoch, for the one interval that
/// spans two processes: the parent stamps this just before it spawns a
/// trial, and the child subtracts it from its own epoch ([`startup_ns`]).
pub fn spawn_stamp() -> u64 {
    unix_ns()
}

/// How long after `spawned_unix_ns` this process reached `main`: fork, exec,
/// dynamic linking and runtime start, the part of set-up no in-process
/// clock can see.
pub fn startup_ns(spawned_unix_ns: u64) -> u64 {
    EPOCH_UNIX_NS
        .get()
        .copied()
        .unwrap_or(0)
        .saturating_sub(spawned_unix_ns)
}

/// Nanoseconds since the process started.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One timed interval.  `calls` is the number of syscalls it covers (a
/// `syscall_batch` is one call into the layer, hence one span).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: u16,
    pub version: u8,
    pub calls: u16,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

// Span ids stay below 2^53 so they survive a JSON reader that keeps numbers
// as doubles: kind in bits 50–51, version in 48–49, then 20 bits of
// connection and 28 of request index (or 8 of thread and 40 of sequence).
const KIND_SHIFT: u32 = 50;
const VERSION_SHIFT: u32 = 48;
const CONN_SHIFT: u32 = 28;

/// Span id of the client's k-th request on connection `conn`.
pub fn request_id(conn: u32, k: u32) -> u64 {
    (1 << KIND_SHIFT) | (u64::from(conn) << CONN_SHIFT) | u64::from(k)
}

fn server_request_id(version: u8, conn: u32, k: u32) -> u64 {
    (2 << KIND_SHIFT)
        | (u64::from(version) << VERSION_SHIFT)
        | (u64::from(conn) << CONN_SHIFT)
        | u64::from(k)
}

/// Span id of the k-th timed block of a synthetic workload.
pub fn block_id(k: u64) -> u64 {
    (3 << KIND_SHIFT) | k
}

/// A request as the load generator saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientRequest {
    pub conn: u32,
    pub k: u32,
    /// When the schedule said to send it (equals `sent_ns` in a closed loop).
    pub intended_ns: u64,
    pub sent_ns: u64,
    pub replied_ns: u64,
    pub ok: bool,
}

impl ClientRequest {
    /// Open-loop latency counts from the *intended* send time, so a stall
    /// is charged to every request it delayed.
    pub fn latency_ns(&self) -> u64 {
        self.replied_ns.saturating_sub(self.intended_ns)
    }
}

/// What one traced version did overall.
#[derive(Debug, Clone, Copy)]
pub struct VersionRun {
    pub version: u8,
    pub wall_ns: u64,
    pub cpu_ns: u64,
}

/// Where the wrappers of one run deposit their spans.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    spans: Arc<Mutex<Vec<Span>>>,
    runs: Arc<Mutex<Vec<VersionRun>>>,
}

impl TraceSink {
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.lock().expect("trace sink"))
    }

    pub fn runs(&self) -> Vec<VersionRun> {
        self.runs.lock().expect("trace sink").clone()
    }
}

enum Inner<'a> {
    Borrowed(&'a mut dyn SyscallInterface),
    Owned(Box<dyn SyscallInterface>),
}

impl Inner<'_> {
    fn get(&mut self) -> &mut dyn SyscallInterface {
        match self {
            Inner::Borrowed(sys) => &mut **sys,
            Inner::Owned(sys) => sys.as_mut(),
        }
    }
}

/// Per-connection bookkeeping for request reconstruction.
struct Conn {
    index: u32,
    responses: u32,
    /// End of the first data-returning read since the last response.
    delivered_ns: Option<u64>,
}

/// The delegating, span-recording `SyscallInterface`.
pub struct TimedSys<'a> {
    inner: Inner<'a>,
    version: u8,
    thread: u8,
    sink: TraceSink,
    spans: Vec<Span>,
    next_seq: u64,
    conns: HashMap<i32, Conn>,
    accepted: u32,
    /// First span not yet attributed to a request, and when the previous
    /// response (or accept) ended.
    unattributed_from: usize,
    last_boundary_ns: u64,
}

impl<'a> TimedSys<'a> {
    fn new(inner: Inner<'a>, version: u8, thread: u8, first_conn: u32, sink: TraceSink) -> Self {
        TimedSys {
            inner,
            version,
            thread,
            sink,
            spans: Vec::with_capacity(1 << 16),
            next_seq: 0,
            conns: HashMap::new(),
            accepted: first_conn,
            unattributed_from: 0,
            last_boundary_ns: 0,
        }
    }

    fn span_id(&mut self) -> u64 {
        self.next_seq += 1;
        (u64::from(self.version) << VERSION_SHIFT) | (u64::from(self.thread) << 40) | self.next_seq
    }

    fn record(&mut self, name: Sysno, calls: usize, start_ns: u64, end_ns: u64) {
        let id = self.span_id();
        self.spans.push(Span {
            id,
            parent: 0,
            name: name.number(),
            version: self.version,
            calls: calls.min(usize::from(u16::MAX)) as u16,
            start_ns,
            end_ns,
        });
    }

    /// Updates the connection table from one completed call.
    fn observe(&mut self, request: &SyscallRequest, outcome: &SyscallOutcome, end_ns: u64) {
        let fd = request.args[0] as i32;
        match request.sysno {
            Sysno::Accept | Sysno::Accept4 if outcome.result >= 0 => {
                self.conns.insert(
                    outcome.result as i32,
                    Conn {
                        index: self.accepted,
                        responses: 0,
                        delivered_ns: None,
                    },
                );
                self.accepted += 1;
                self.unattributed_from = self.spans.len();
                self.last_boundary_ns = end_ns;
            }
            Sysno::Read if outcome.result > 0 => {
                if let Some(conn) = self.conns.get_mut(&fd) {
                    conn.delivered_ns.get_or_insert(end_ns);
                }
            }
            Sysno::Close if self.conns.remove(&fd).is_some() => {
                self.unattributed_from = self.spans.len();
            }
            _ => {}
        }
    }

    /// A write (batch) on a connection is that connection's next response:
    /// close the server request span and adopt the spans since the last one.
    fn observe_response(&mut self, fd: i32, end_ns: u64) {
        let Some(conn) = self.conns.get_mut(&fd) else {
            return;
        };
        let (index, k) = (conn.index, conn.responses);
        conn.responses += 1;
        let start_ns = conn.delivered_ns.take().unwrap_or(self.last_boundary_ns);
        let id = server_request_id(self.version, index, k);
        for span in &mut self.spans[self.unattributed_from..] {
            span.parent = id;
        }
        self.spans.push(Span {
            id,
            parent: request_id(index, k),
            name: SERVER_REQUEST,
            version: self.version,
            calls: 0,
            start_ns,
            end_ns,
        });
        self.unattributed_from = self.spans.len();
        self.last_boundary_ns = end_ns;
    }
}

impl Drop for TimedSys<'_> {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.spans.lock() {
            sink.append(&mut self.spans);
        }
    }
}

impl SyscallInterface for TimedSys<'_> {
    fn syscall(&mut self, request: &SyscallRequest) -> SyscallOutcome {
        let start_ns = now_ns();
        let outcome = self.inner.get().syscall(request);
        let end_ns = now_ns();
        self.record(request.sysno, 1, start_ns, end_ns);
        self.observe(request, &outcome, end_ns);
        if request.sysno == Sysno::Write {
            self.observe_response(request.args[0] as i32, end_ns);
        }
        outcome
    }

    fn syscall_batch(&mut self, requests: &[SyscallRequest]) -> Vec<SyscallOutcome> {
        let start_ns = now_ns();
        let outcomes = self.inner.get().syscall_batch(requests);
        let end_ns = now_ns();
        if let Some(first) = requests.first() {
            self.record(first.sysno, requests.len(), start_ns, end_ns);
            for (request, outcome) in requests.iter().zip(&outcomes) {
                self.observe(request, outcome, end_ns);
            }
            if let Some(write) = requests.iter().find(|r| r.sysno == Sysno::Write) {
                self.observe_response(write.args[0] as i32, end_ns);
            }
        }
        outcomes
    }

    fn spawn_thread(&mut self) -> Box<dyn SyscallInterface> {
        let inner = self.inner.get().spawn_thread();
        self.thread = self.thread.saturating_add(1);
        Box::new(TimedSys::new(
            Inner::Owned(inner),
            self.version,
            self.thread,
            self.accepted,
            self.sink.clone(),
        ))
    }

    fn cpu_work(&mut self, cycles: u64) {
        self.inner.get().cpu_work(cycles);
    }
}

/// A version wrapped for the traced run.
pub struct Traced {
    inner: Box<dyn crate::adapter::VersionProgram>,
    version: u8,
    /// Number the client gives the first connection this program accepts.
    first_conn: u32,
    sink: TraceSink,
}

impl Traced {
    pub fn wrap(
        inner: Box<dyn crate::adapter::VersionProgram>,
        version: usize,
        first_conn: u32,
        sink: &TraceSink,
    ) -> Box<dyn crate::adapter::VersionProgram> {
        Box::new(Traced {
            inner,
            version: version as u8,
            first_conn,
            sink: sink.clone(),
        })
    }
}

impl crate::adapter::VersionProgram for Traced {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn run(&mut self, sys: &mut dyn SyscallInterface) -> ProgramExit {
        let (wall0, cpu0) = (now_ns(), procfs::thread_cpu_ns());
        let exit = {
            let mut timed = TimedSys::new(
                Inner::Borrowed(sys),
                self.version,
                0,
                self.first_conn,
                self.sink.clone(),
            );
            self.inner.run(&mut timed)
        };
        let run = VersionRun {
            version: self.version,
            wall_ns: now_ns() - wall0,
            cpu_ns: procfs::thread_cpu_ns().saturating_sub(cpu0),
        };
        self.sink.runs.lock().expect("trace sink").push(run);
        exit
    }
}

/// A span's self time: its duration minus the part of that interval its
/// children cover (children may overlap each other and stick out of the
/// parent; both are clipped).
pub fn self_time_ns(parent: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (start, end) = parent;
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for &(child_start, child_end) in children.iter() {
        let from = child_start.max(cursor);
        let to = child_end.min(end);
        if to > from {
            covered += to - from;
            cursor = to;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

/// Children intervals grouped by parent span id.
pub fn children_by_parent(spans: &[Span]) -> HashMap<u64, Vec<(u64, u64)>> {
    let mut map: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        map.entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    map
}

fn span_name(name: u16) -> String {
    match name {
        SERVER_REQUEST => "server_request".to_owned(),
        BLOCK => "block".to_owned(),
        number => Sysno::from_number(number)
            .map(|s| s.name().to_owned())
            .unwrap_or_else(|| format!("sys_{number}")),
    }
}

/// Most spans written per version; the header line records how many were
/// recorded, so a truncated file says so (a dense trial records millions).
pub const MAX_SPANS_PER_VERSION: usize = 20_000;

/// Writes `header`, then the client requests, then the spans, one JSON
/// object per line.
pub fn write_jsonl(
    path: &Path,
    header: Value,
    requests: &[ClientRequest],
    spans: &[Span],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let header = header
        .with("spans_recorded", spans.len())
        .with("requests_recorded", requests.len())
        .with("max_spans_per_version_written", MAX_SPANS_PER_VERSION);
    writeln!(out, "{}", header.render())?;
    for request in requests.iter().take(MAX_SPANS_PER_VERSION) {
        let line = Value::obj()
            .with("id", request_id(request.conn, request.k))
            .with("parent", 0u64)
            .with("name", "request")
            .with("conn", u64::from(request.conn))
            .with("k", u64::from(request.k))
            .with("intended_ns", request.intended_ns)
            .with("start_ns", request.sent_ns)
            .with("end_ns", request.replied_ns)
            .with("ok", request.ok);
        writeln!(out, "{}", line.render())?;
    }
    let mut written: HashMap<u8, usize> = HashMap::new();
    for span in spans {
        let count = written.entry(span.version).or_insert(0);
        if *count >= MAX_SPANS_PER_VERSION {
            continue;
        }
        *count += 1;
        let line = Value::obj()
            .with("id", span.id)
            .with("parent", span.parent)
            .with("name", span_name(span.name))
            .with("version", u64::from(span.version))
            .with("calls", u64::from(span.calls))
            .with("start_ns", span.start_ns)
            .with("end_ns", span.end_ns);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_clipped_union_of_children() {
        // No children: all self.
        assert_eq!(self_time_ns((100, 200), &mut []), 100);
        // Two disjoint children.
        assert_eq!(self_time_ns((100, 200), &mut [(110, 120), (150, 170)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time_ns((100, 200), &mut [(110, 150), (140, 160)]), 50);
        // A child sticking out of both ends is clipped to the parent.
        assert_eq!(self_time_ns((100, 200), &mut [(50, 120), (190, 400)]), 70);
        // A child entirely outside covers nothing; order does not matter.
        assert_eq!(self_time_ns((100, 200), &mut [(300, 400), (0, 50)]), 100);
        // Fully covered.
        assert_eq!(self_time_ns((100, 200), &mut [(100, 200), (120, 130)]), 0);
    }

    #[test]
    fn span_ids_are_distinct_and_exact_in_a_double() {
        let ids = [
            request_id(0, 0),
            request_id(499, 40),
            request_id(1, 0),
            server_request_id(0, 499, 40),
            server_request_id(1, 499, 40),
            block_id(40),
            (1 << VERSION_SHIFT) | (255 << 40) | ((1 << 40) - 1),
        ];
        for (i, &id) in ids.iter().enumerate() {
            assert!(id < 1 << 53 && (id as f64) as u64 == id);
            assert!(ids[..i].iter().all(|&other| other != id));
        }
    }

    #[test]
    fn open_loop_latency_counts_from_the_intended_time() {
        let late = ClientRequest {
            conn: 0,
            k: 3,
            intended_ns: 1_000,
            sent_ns: 5_000, // the generator (or a stalled connection) ran late
            replied_ns: 6_000,
            ok: true,
        };
        assert_eq!(late.latency_ns(), 5_000);
        let closed = ClientRequest {
            intended_ns: 5_000,
            ..late
        };
        assert_eq!(closed.latency_ns(), 1_000);
    }

    /// A scripted interface: accept returns fd 7, reads return data.
    struct Script;
    impl SyscallInterface for Script {
        fn syscall(&mut self, request: &SyscallRequest) -> SyscallOutcome {
            match request.sysno {
                Sysno::Accept => SyscallOutcome::ok(request.sysno, 7, 1),
                Sysno::Read => SyscallOutcome::ok(request.sysno, 4, 1).with_data(b"PING".to_vec()),
                _ => SyscallOutcome::ok(request.sysno, 0, 1),
            }
        }
        fn spawn_thread(&mut self) -> Box<dyn SyscallInterface> {
            Box::new(Script)
        }
    }

    #[test]
    fn responses_close_request_spans_and_adopt_their_syscalls() {
        let sink = TraceSink::default();
        {
            let mut script = Script;
            let mut timed = TimedSys::new(Inner::Borrowed(&mut script), 1, 0, 0, sink.clone());
            timed.syscall(&SyscallRequest::accept(3));
            for _ in 0..2 {
                timed.syscall(&SyscallRequest::read(7, 512));
                timed.syscall(&SyscallRequest::time());
                timed.syscall_batch(&[
                    SyscallRequest::write(7, b"+PONG".to_vec()),
                    SyscallRequest::write(7, b"\n".to_vec()),
                ]);
            }
            timed.syscall(&SyscallRequest::close(7));
        }
        let spans = sink.take_spans();
        let requests: Vec<&Span> = spans.iter().filter(|s| s.name == SERVER_REQUEST).collect();
        assert_eq!(requests.len(), 2);
        assert_eq!(requests[0].parent, request_id(0, 0));
        assert_eq!(requests[1].parent, request_id(0, 1));
        for request in &requests {
            let children: Vec<&Span> = spans.iter().filter(|s| s.parent == request.id).collect();
            // read + time + one write batch covering two syscalls
            assert_eq!(children.len(), 3);
            assert_eq!(children.iter().map(|s| u64::from(s.calls)).sum::<u64>(), 4);
            assert!(
                request.start_ns >= children[0].end_ns,
                "starts when the read delivered"
            );
        }
        // accept and close belong to no request
        assert!(spans
            .iter()
            .filter(|s| s.name == Sysno::Accept.number() || s.name == Sysno::Close.number())
            .all(|s| s.parent == 0));
    }
}
