//! The virtual kernel: state, process management and the syscall dispatcher.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::cost::{CostModel, Cycles};
use crate::errno::Errno;
use crate::fs::{flags, Node, Vfs};
use crate::net::Network;
use crate::process::{FdEntry, FdObject, Pid, Pipe, ProcessTable};
use crate::signal::Signal;
use crate::sim::{SimAction, SimDriver, SimPoint};
use crate::syscall::{fcntl, whence, SyscallOutcome, SyscallRequest};
use crate::sysno::Sysno;
use crate::time::{ClockSource, VirtualClock};

/// Aggregate kernel statistics, used by the evaluation harness.
#[derive(Debug, Clone, Default)]
pub struct KernelStats {
    /// Number of invocations per system call.
    pub syscalls: HashMap<Sysno, u64>,
    /// Total cycles charged for system-call execution.
    pub total_cycles: Cycles,
    /// Number of processes ever spawned.
    pub processes_spawned: u64,
}

impl KernelStats {
    /// Total number of system calls executed.
    #[must_use]
    pub fn total_syscalls(&self) -> u64 {
        self.syscalls.values().sum()
    }
}

#[derive(Debug)]
struct KernelInner {
    vfs: Mutex<Vfs>,
    net: Network,
    processes: Mutex<ProcessTable>,
    clock: Arc<VirtualClock>,
    cost: CostModel,
    rng: Mutex<SmallRng>,
    stats: Mutex<KernelStats>,
    /// Deterministic-simulation driver; consulted at syscall dispatch and
    /// descriptor transfers when `sim_enabled` is set.
    sim: RwLock<Option<Arc<dyn SimDriver>>>,
    /// Fast-path guard so production executions pay one relaxed load.
    sim_enabled: AtomicBool,
    /// Whether blocking waits should run on virtual time
    /// ([`ClockSource::Simulated`]) instead of the host clock.
    sim_time: AtomicBool,
}

/// The virtual kernel.  Cheap to clone (all clones share the same state).
///
/// See the crate-level documentation for an example.
#[derive(Clone)]
pub struct Kernel {
    inner: Arc<KernelInner>,
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("processes", &self.inner.processes.lock().len())
            .field("cycles", &self.inner.clock.cycles())
            .finish()
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Creates a kernel with the default (Figure 4-calibrated) cost model and
    /// a fixed random seed.
    #[must_use]
    pub fn new() -> Self {
        Kernel::with_config(CostModel::default(), 0x5EED_0001)
    }

    /// Creates a kernel with an explicit cost model and random seed.
    #[must_use]
    pub fn with_config(cost: CostModel, seed: u64) -> Self {
        let clock = Arc::new(VirtualClock::new(cost.cycles_per_us));
        Kernel {
            inner: Arc::new(KernelInner {
                vfs: Mutex::new(Vfs::new()),
                net: Network::new(),
                processes: Mutex::new(ProcessTable::new()),
                clock,
                cost,
                rng: Mutex::new(SmallRng::seed_from_u64(seed)),
                stats: Mutex::new(KernelStats::default()),
                sim: RwLock::new(None),
                sim_enabled: AtomicBool::new(false),
                sim_time: AtomicBool::new(false),
            }),
        }
    }

    /// The virtual clock.
    #[must_use]
    pub fn clock(&self) -> &VirtualClock {
        &self.inner.clock
    }

    // ------------------------------------------------------------------
    // Deterministic simulation (see `crate::sim` and the `varan-sim` crate)
    // ------------------------------------------------------------------

    /// Installs a simulation driver: from now on every system-call dispatch
    /// and descriptor transfer consults it (and the monitor layers probe it
    /// at their own boundaries via [`Kernel::sim_probe`]).
    pub fn install_sim_driver(&self, driver: Arc<dyn SimDriver>) {
        *self.inner.sim.write() = Some(driver);
        self.inner.sim_enabled.store(true, Ordering::Release);
    }

    /// Removes the simulation driver; probes return to their no-op fast
    /// path.
    pub fn clear_sim_driver(&self) {
        self.inner.sim_enabled.store(false, Ordering::Release);
        *self.inner.sim.write() = None;
    }

    /// Switches every [`Kernel::wait_clock`] consumer — monitor poll loops,
    /// fleet catch-up waits, upgrade deadlines, endpoint read timeouts — to
    /// virtual time: waits advance the shared [`VirtualClock`] and yield
    /// instead of parking, so simulated runs never burn wall time.
    pub fn enable_sim_time(&self) {
        self.inner.sim_time.store(true, Ordering::Release);
        self.inner.net.set_clock(self.wait_clock());
    }

    /// The time source blocking waits in the layers above should use: wall
    /// time in production, virtual time once [`Kernel::enable_sim_time`]
    /// was called.
    #[must_use]
    pub fn wait_clock(&self) -> ClockSource {
        if self.inner.sim_time.load(Ordering::Acquire) {
            ClockSource::Simulated(Arc::clone(&self.inner.clock))
        } else {
            ClockSource::Wall
        }
    }

    /// Consults the installed simulation driver (no-op without one) and
    /// applies crash/delay actions inline; a returned errno is the caller's
    /// to surface as an operation failure.
    pub fn sim_probe(&self, pid: Pid, point: SimPoint<'_>) -> Option<Errno> {
        if !self.inner.sim_enabled.load(Ordering::Relaxed) {
            return None;
        }
        let action = {
            let driver = self.inner.sim.read();
            match driver.as_ref() {
                Some(driver) => driver.intercept(pid, point),
                None => SimAction::Continue,
            }
        };
        crate::sim::apply_generic(action, &self.inner.clock, "kernel probe")
    }

    /// The cost model in effect.
    #[must_use]
    pub fn cost_model(&self) -> &CostModel {
        &self.inner.cost
    }

    /// The loopback network namespace (used directly by client drivers and
    /// tests; applications go through the `socket`/`connect` system calls).
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.inner.net
    }

    /// Snapshot of the kernel statistics.
    #[must_use]
    pub fn stats(&self) -> KernelStats {
        self.inner.stats.lock().clone()
    }

    /// Charges `cycles` of user-space computation to the machine: advances
    /// the virtual clock and accounts the cycles in the kernel statistics.
    ///
    /// The virtual kernel only knows about system calls; applications use
    /// this to account for the CPU time they spend *between* system calls
    /// (request parsing, hashing, compression), which is what amortises the
    /// monitor's per-call overhead for compute-heavy workloads.
    pub fn charge_compute(&self, cycles: Cycles) {
        self.inner.clock.advance(cycles);
        self.inner.stats.lock().total_cycles += cycles;
    }

    // ------------------------------------------------------------------
    // Process management
    // ------------------------------------------------------------------

    /// Spawns a new process running `name` and returns its pid.
    pub fn spawn_process(&self, name: &str) -> Pid {
        let mut table = self.inner.processes.lock();
        self.inner.stats.lock().processes_spawned += 1;
        table.spawn(name, None)
    }

    /// Forks `parent` (duplicating its descriptor table).
    ///
    /// # Errors
    ///
    /// Returns [`Errno::ENOENT`] if the parent does not exist.
    pub fn fork_process(&self, parent: Pid) -> Result<Pid, Errno> {
        let mut table = self.inner.processes.lock();
        self.inner.stats.lock().processes_spawned += 1;
        table.fork(parent)
    }

    /// Returns `true` while `pid` exists and has not exited.
    #[must_use]
    pub fn process_alive(&self, pid: Pid) -> bool {
        self.inner
            .processes
            .lock()
            .get(pid)
            .map(|process| !process.has_exited())
            .unwrap_or(false)
    }

    /// The exit status of `pid`, if it has exited.
    #[must_use]
    pub fn exit_status(&self, pid: Pid) -> Option<i32> {
        self.inner
            .processes
            .lock()
            .get(pid)
            .ok()
            .and_then(|process| process.exit_status)
    }

    /// Console output captured from `pid`'s writes to stdout/stderr.
    #[must_use]
    pub fn console_output(&self, pid: Pid) -> Vec<u8> {
        self.inner
            .processes
            .lock()
            .get(pid)
            .map(|process| process.console.clone())
            .unwrap_or_default()
    }

    /// Delivers `signal` to `pid`.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::ENOENT`] if the pid is unknown.
    pub fn deliver_signal(&self, pid: Pid, signal: Signal) -> Result<(), Errno> {
        let mut table = self.inner.processes.lock();
        table.get_mut(pid)?.deliver_signal(signal);
        Ok(())
    }

    /// Takes the oldest pending signal of `pid`, if any.
    #[must_use]
    pub fn take_signal(&self, pid: Pid) -> Option<Signal> {
        let mut table = self.inner.processes.lock();
        table.get_mut(pid).ok()?.pending_signals.pop()
    }

    /// Number of open descriptors in `pid`'s table.
    #[must_use]
    pub fn open_fds(&self, pid: Pid) -> usize {
        self.inner
            .processes
            .lock()
            .get(pid)
            .map(|process| process.fds.len())
            .unwrap_or(0)
    }

    /// Duplicates descriptor `src_fd` of `src_pid` into `dst_pid`'s table —
    /// the kernel-side effect of sending a descriptor over a UNIX domain
    /// socket with `SCM_RIGHTS`, which is how the data channel transfers
    /// descriptors to followers (§3.3.2).
    ///
    /// # Errors
    ///
    /// Returns [`Errno::ENOENT`] / [`Errno::EBADF`] if either process or the
    /// descriptor is missing, and [`Errno::EMFILE`] if the destination table
    /// is full.
    pub fn transfer_fd(&self, src_pid: Pid, src_fd: i32, dst_pid: Pid) -> Result<i32, Errno> {
        if let Some(errno) = self.sim_probe(
            src_pid,
            SimPoint::FdTransfer {
                src: src_pid,
                dst: dst_pid,
                fd: src_fd,
            },
        ) {
            return Err(errno);
        }
        let mut table = self.inner.processes.lock();
        let entry = table.get(src_pid)?.fd(src_fd)?.clone();
        table.get_mut(dst_pid)?.install_fd(entry)
    }

    /// Like [`Kernel::transfer_fd`], but installs the duplicate at the
    /// *same* descriptor number it has in the source process, falling back
    /// to the lowest free number when that slot is taken — unless it holds
    /// an unbound socket and the source's descriptor is no longer one (the
    /// re-transfer after `listen`/`connect`), which is replaced in place.
    /// Returns the number actually used.
    ///
    /// Identity placement is what lets a runtime-attached upgrade candidate
    /// mirror the leader's descriptor table exactly (the same way a
    /// checkpoint restore installs descriptors at identity numbers), so the
    /// numbers its application observed during replay stay valid after it
    /// is promoted to leader.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::ENOENT`] / [`Errno::EBADF`] if either process or the
    /// descriptor is missing, and [`Errno::EMFILE`] if the destination table
    /// is full.
    pub fn transfer_fd_identity(
        &self,
        src_pid: Pid,
        src_fd: i32,
        dst_pid: Pid,
    ) -> Result<i32, Errno> {
        if let Some(errno) = self.sim_probe(
            src_pid,
            SimPoint::FdTransfer {
                src: src_pid,
                dst: dst_pid,
                fd: src_fd,
            },
        ) {
            return Err(errno);
        }
        let mut table = self.inner.processes.lock();
        let entry = table.get(src_pid)?.fd(src_fd)?.clone();
        let destination = table.get_mut(dst_pid)?;
        // A socket that `listen`/`connect` upgraded is transferred again.
        // The destination's copy of its unbound state holds this number and
        // is replaced; the fallback below would put the upgraded socket on
        // a fresh number and leave the stale copy where the program looks.
        if let Ok(existing) = destination.fd_mut(src_fd) {
            if matches!(existing.object, FdObject::UnboundSocket { .. })
                && !matches!(entry.object, FdObject::UnboundSocket { .. })
            {
                *existing = entry;
                return Ok(src_fd);
            }
        }
        match destination.install_fd_at(src_fd, entry.clone()) {
            Ok(fd) => Ok(fd),
            Err(Errno::EEXIST) => destination.install_fd(entry),
            Err(errno) => Err(errno),
        }
    }

    // ------------------------------------------------------------------
    // Checkpoint support (see `checkpoint.rs`)
    // ------------------------------------------------------------------

    /// Takes a serializable snapshot of process `pid`.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::ENOENT`] if the pid is unknown.
    pub(crate) fn snapshot_process(
        &self,
        pid: Pid,
    ) -> Result<crate::checkpoint::ProcessSnapshot, Errno> {
        let table = self.inner.processes.lock();
        Ok(table.get(pid)?.snapshot())
    }

    /// Locked access to the process table, for checkpoint restore and tests.
    #[must_use]
    pub fn processes_lock(&self) -> parking_lot::MutexGuard<'_, ProcessTable> {
        self.inner.processes.lock()
    }

    /// A snapshot of every VFS node (path → node), for checkpointing.
    #[must_use]
    pub fn vfs_entries(&self) -> Vec<(String, Node)> {
        self.inner.vfs.lock().entries()
    }

    /// Creates a directory in the VFS (checkpoint restore helper).
    ///
    /// # Errors
    ///
    /// Propagates VFS errors.
    pub fn vfs_mkdir(&self, path: &str) -> Result<(), Errno> {
        match self.inner.vfs.lock().mkdir(path) {
            Ok(()) | Err(Errno::EEXIST) => Ok(()),
            Err(errno) => Err(errno),
        }
    }

    // ------------------------------------------------------------------
    // Filesystem helpers (workload setup and assertions)
    // ------------------------------------------------------------------

    /// Creates (or replaces) a file in the VFS.
    ///
    /// # Errors
    ///
    /// Propagates VFS errors (missing parent directory, path is a directory).
    pub fn populate_file(&self, path: &str, data: Vec<u8>) -> Result<(), Errno> {
        self.inner.vfs.lock().create_file(path, data)
    }

    /// Reads a whole file from the VFS.
    ///
    /// # Errors
    ///
    /// Propagates VFS errors.
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>, Errno> {
        let vfs = self.inner.vfs.lock();
        let size = vfs.size(path)?;
        let mut rng = self.inner.rng.lock();
        vfs.read(path, 0, size, &mut rng)
    }

    /// Returns `true` if `path` exists in the VFS.
    #[must_use]
    pub fn file_exists(&self, path: &str) -> bool {
        self.inner.vfs.lock().exists(path)
    }

    // ------------------------------------------------------------------
    // The system-call dispatcher
    // ------------------------------------------------------------------

    /// Executes `request` on behalf of `pid` and returns its outcome.
    ///
    /// Unknown processes yield an `ENOENT` outcome rather than panicking, so
    /// a monitor can keep streaming events for versions that have crashed.
    pub fn syscall(&self, pid: Pid, request: &SyscallRequest) -> SyscallOutcome {
        let cost = self
            .inner
            .cost
            .native_cost(request.sysno, request.payload_len());
        // The simulation boundary: an installed driver may crash this
        // thread, stretch time or fail the call before it touches any
        // kernel state (one relaxed load when no driver is installed).
        let outcome = match self.sim_probe(pid, SimPoint::Syscall { request }) {
            Some(errno) => SyscallOutcome::err(request.sysno, errno, cost),
            None => self.dispatch(pid, request, cost),
        };
        self.inner.clock.advance(outcome.cost);
        if let Some(metrics) = varan_obs::hot() {
            metrics.syscalls_executed.add(1);
        }
        let mut stats = self.inner.stats.lock();
        *stats.syscalls.entry(request.sysno).or_insert(0) += 1;
        stats.total_cycles += outcome.cost;
        outcome
    }

    #[allow(clippy::too_many_lines)]
    fn dispatch(&self, pid: Pid, request: &SyscallRequest, cost: Cycles) -> SyscallOutcome {
        let sysno = request.sysno;
        let args = request.args;
        let err = |errno: Errno| SyscallOutcome::err(sysno, errno, cost);
        let ok = |result: i64| SyscallOutcome::ok(sysno, result, cost);

        match sysno {
            // ---- identity and time ------------------------------------
            Sysno::Getpid => ok(i64::from(pid)),
            Sysno::Getuid | Sysno::Geteuid => ok(1000),
            Sysno::Getgid | Sysno::Getegid => ok(1000),
            Sysno::Getcpu => ok(0),
            Sysno::Time => ok(self.inner.clock.unix_seconds() as i64),
            Sysno::Gettimeofday => {
                let (seconds, micros) = self.inner.clock.timeofday();
                let mut data = Vec::with_capacity(16);
                data.extend_from_slice(&seconds.to_le_bytes());
                data.extend_from_slice(&micros.to_le_bytes());
                ok(0).with_data(data)
            }
            Sysno::ClockGettime => {
                let (seconds, nanos) = self.inner.clock.monotonic();
                let mut data = Vec::with_capacity(16);
                data.extend_from_slice(&seconds.to_le_bytes());
                data.extend_from_slice(&nanos.to_le_bytes());
                ok(0).with_data(data)
            }
            Sysno::Nanosleep | Sysno::ClockNanosleep => {
                let micros = args[0];
                let sleep_cycles = self.inner.cost.us_to_cycles(micros as f64);
                SyscallOutcome::ok(sysno, 0, cost + sleep_cycles)
            }
            Sysno::Getrandom => {
                let len = args[1] as usize;
                let mut buffer = vec![0u8; len.min(1 << 20)];
                self.inner.rng.lock().fill_bytes(&mut buffer);
                let result = buffer.len() as i64;
                ok(result).with_data(buffer)
            }

            // ---- process-local memory and signal management -----------
            Sysno::Mmap => {
                let len = (args[1] as usize).max(4096) as u64;
                let mut table = self.inner.processes.lock();
                match table.get_mut(pid) {
                    Ok(process) => {
                        let address = process.next_mmap;
                        process.next_mmap += (len + 0xFFF) & !0xFFF;
                        ok(address as i64)
                    }
                    Err(errno) => err(errno),
                }
            }
            Sysno::Munmap | Sysno::Mprotect | Sysno::Ioctl | Sysno::RtSigaction
            | Sysno::Sigaltstack | Sysno::Fsync | Sysno::EpollCtl | Sysno::Shutdown
            | Sysno::Futex => self.simple_fd_aware(pid, request, cost),
            Sysno::Brk => {
                let mut table = self.inner.processes.lock();
                match table.get_mut(pid) {
                    Ok(process) => {
                        if args[0] != 0 {
                            process.brk = args[0];
                        }
                        ok(process.brk as i64)
                    }
                    Err(errno) => err(errno),
                }
            }
            Sysno::SetTidAddress => ok(i64::from(pid)),

            // ---- processes and threads --------------------------------
            Sysno::Fork => match self.fork_process(pid) {
                Ok(child) => ok(i64::from(child)),
                Err(errno) => err(errno),
            },
            Sysno::Clone => {
                let mut table = self.inner.processes.lock();
                match table.get_mut(pid) {
                    Ok(process) => {
                        let tid = process.spawn_thread();
                        ok(i64::from(tid))
                    }
                    Err(errno) => err(errno),
                }
            }
            Sysno::Exit | Sysno::ExitGroup => {
                let mut table = self.inner.processes.lock();
                match table.get_mut(pid) {
                    Ok(process) => {
                        process.exit_status = Some(args[0] as i32);
                        ok(0)
                    }
                    Err(errno) => err(errno),
                }
            }
            Sysno::Kill => {
                let target = args[0] as Pid;
                let signal = Signal::from_number(args[1] as u8).unwrap_or(Signal::Sigterm);
                match self.deliver_signal(target, signal) {
                    Ok(()) => ok(0),
                    Err(errno) => err(errno),
                }
            }

            // ---- filesystem -------------------------------------------
            Sysno::Open | Sysno::Openat => self.do_open(pid, request, cost),
            Sysno::Close => {
                let fd = args[0] as i32;
                let mut table = self.inner.processes.lock();
                match table.get_mut(pid) {
                    Ok(process) => match process.close_fd(fd) {
                        Ok(entry) => {
                            if let FdObject::Stream(endpoint) = &entry.object {
                                endpoint.close();
                            }
                            if let FdObject::Listener(listener) = &entry.object {
                                listener.close();
                            }
                            ok(0)
                        }
                        Err(errno) => err(errno),
                    },
                    Err(errno) => err(errno),
                }
            }
            Sysno::Stat => {
                let path = match request.path() {
                    Some(path) => path,
                    None => return err(Errno::EINVAL),
                };
                match self.inner.vfs.lock().size(&path) {
                    Ok(size) => ok(size as i64),
                    Err(errno) => err(errno),
                }
            }
            Sysno::Fstat => {
                let fd = args[0] as i32;
                let table = self.inner.processes.lock();
                let entry = match table.get(pid).and_then(|p| p.fd(fd)) {
                    Ok(entry) => entry.clone(),
                    Err(errno) => return err(errno),
                };
                drop(table);
                match entry.object {
                    FdObject::File { path, .. } => match self.inner.vfs.lock().size(&path) {
                        Ok(size) => ok(size as i64),
                        Err(errno) => err(errno),
                    },
                    _ => ok(0),
                }
            }
            Sysno::Lseek => self.do_lseek(pid, request, cost),
            Sysno::Unlink => {
                let path = match request.path() {
                    Some(path) => path,
                    None => return err(Errno::EINVAL),
                };
                match self.inner.vfs.lock().unlink(&path) {
                    Ok(()) => ok(0),
                    Err(errno) => err(errno),
                }
            }
            Sysno::Mkdir => {
                let path = match request.path() {
                    Some(path) => path,
                    None => return err(Errno::EINVAL),
                };
                match self.inner.vfs.lock().mkdir(&path) {
                    Ok(()) => ok(0),
                    Err(errno) => err(errno),
                }
            }
            Sysno::Getcwd => ok(1).with_data(b"/".to_vec()),
            Sysno::Getdents64 => {
                let fd = args[0] as i32;
                let table = self.inner.processes.lock();
                let entry = match table.get(pid).and_then(|p| p.fd(fd)) {
                    Ok(entry) => entry.clone(),
                    Err(errno) => return err(errno),
                };
                drop(table);
                match entry.object {
                    FdObject::File { path, .. } => match self.inner.vfs.lock().list_dir(&path) {
                        Ok(children) => {
                            let listing = children.join("\n").into_bytes();
                            ok(listing.len() as i64).with_data(listing)
                        }
                        Err(errno) => err(errno),
                    },
                    _ => err(Errno::ENOTDIR),
                }
            }

            // ---- descriptor I/O ---------------------------------------
            Sysno::Read | Sysno::Recvfrom => self.do_read(pid, request, cost),
            Sysno::Write | Sysno::Sendto => self.do_write(pid, request, cost),
            Sysno::Fcntl => self.do_fcntl(pid, request, cost),
            Sysno::Pipe => {
                let pipe = Arc::new(Pipe::default());
                let mut table = self.inner.processes.lock();
                match table.get_mut(pid) {
                    Ok(process) => {
                        let read_fd =
                            match process.install_fd(FdEntry::new(FdObject::PipeRead(Arc::clone(&pipe)))) {
                                Ok(fd) => fd,
                                Err(errno) => return err(errno),
                            };
                        let write_fd =
                            match process.install_fd(FdEntry::new(FdObject::PipeWrite(pipe))) {
                                Ok(fd) => fd,
                                Err(errno) => return err(errno),
                            };
                        let mut data = Vec::with_capacity(8);
                        data.extend_from_slice(&read_fd.to_le_bytes());
                        data.extend_from_slice(&write_fd.to_le_bytes());
                        ok(0).with_data(data).with_fd(read_fd)
                    }
                    Err(errno) => err(errno),
                }
            }

            // ---- sockets ----------------------------------------------
            Sysno::Socket => {
                let mut table = self.inner.processes.lock();
                match table.get_mut(pid) {
                    Ok(process) => match process.install_fd(FdEntry::new(FdObject::UnboundSocket { bound_port: None })) {
                        Ok(fd) => ok(i64::from(fd)).with_fd(fd),
                        Err(errno) => err(errno),
                    },
                    Err(errno) => err(errno),
                }
            }
            Sysno::Bind => {
                let fd = args[0] as i32;
                let port = args[1] as u16;
                let mut table = self.inner.processes.lock();
                match table.get_mut(pid) {
                    Ok(process) => match process.fd_mut(fd) {
                        Ok(entry) => {
                            if let FdObject::UnboundSocket { bound_port } = &mut entry.object {
                                *bound_port = Some(port);
                                ok(0)
                            } else {
                                err(Errno::EINVAL)
                            }
                        }
                        Err(errno) => err(errno),
                    },
                    Err(errno) => err(errno),
                }
            }
            Sysno::Listen => self.do_listen(pid, request, cost),
            Sysno::Accept | Sysno::Accept4 => self.do_accept(pid, request, cost),
            Sysno::Connect => self.do_connect(pid, request, cost),
            Sysno::EpollCreate1 => {
                let mut table = self.inner.processes.lock();
                match table.get_mut(pid) {
                    Ok(process) => {
                        match process.install_fd(FdEntry::new(FdObject::Epoll { watched: Vec::new() })) {
                            Ok(fd) => ok(i64::from(fd)).with_fd(fd),
                            Err(errno) => err(errno),
                        }
                    }
                    Err(errno) => err(errno),
                }
            }
            Sysno::EpollWait => self.do_epoll_wait(pid, request, cost),
        }
    }

    /// Trivially successful calls that only need the descriptor to exist.
    fn simple_fd_aware(
        &self,
        pid: Pid,
        request: &SyscallRequest,
        cost: Cycles,
    ) -> SyscallOutcome {
        let sysno = request.sysno;
        // futex/mprotect/... either take no fd or we accept any argument.
        match sysno {
            Sysno::Shutdown | Sysno::Fsync | Sysno::Ioctl | Sysno::EpollCtl => {
                let fd = request.args[0] as i32;
                let mut table = self.inner.processes.lock();
                let process = match table.get_mut(pid) {
                    Ok(process) => process,
                    Err(errno) => return SyscallOutcome::err(sysno, errno, cost),
                };
                match process.fd_mut(fd) {
                    Ok(entry) => {
                        if sysno == Sysno::EpollCtl {
                            if let FdObject::Epoll { watched } = &mut entry.object {
                                watched.push(request.args[2] as i32);
                            }
                        }
                        if sysno == Sysno::Shutdown {
                            if let FdObject::Stream(endpoint) = &entry.object {
                                endpoint.close();
                            }
                        }
                        SyscallOutcome::ok(sysno, 0, cost)
                    }
                    Err(errno) => SyscallOutcome::err(sysno, errno, cost),
                }
            }
            _ => SyscallOutcome::ok(sysno, 0, cost),
        }
    }

    fn do_open(&self, pid: Pid, request: &SyscallRequest, cost: Cycles) -> SyscallOutcome {
        let sysno = request.sysno;
        let path = match request.path() {
            Some(path) => path,
            None => return SyscallOutcome::err(sysno, Errno::EINVAL, cost),
        };
        let open_flags = request.args[1];
        {
            let mut vfs = self.inner.vfs.lock();
            match vfs.lookup(&path) {
                Some(Node::Directory) if open_flags & flags::O_WRONLY != 0 => {
                    return SyscallOutcome::err(sysno, Errno::EISDIR, cost)
                }
                Some(_) => {
                    if open_flags & flags::O_TRUNC != 0 {
                        let _ = vfs.truncate(&path);
                    }
                }
                None => {
                    if open_flags & flags::O_CREAT != 0 {
                        if let Err(errno) = vfs.create_file(&path, Vec::new()) {
                            return SyscallOutcome::err(sysno, errno, cost);
                        }
                    } else {
                        return SyscallOutcome::err(sysno, Errno::ENOENT, cost);
                    }
                }
            }
        }
        let entry = FdEntry::new(FdObject::File {
            path,
            offset: 0,
            append: open_flags & flags::O_APPEND != 0,
        });
        let mut table = self.inner.processes.lock();
        match table.get_mut(pid) {
            Ok(process) => match process.install_fd(entry) {
                Ok(fd) => SyscallOutcome::ok(sysno, i64::from(fd), cost).with_fd(fd),
                Err(errno) => SyscallOutcome::err(sysno, errno, cost),
            },
            Err(errno) => SyscallOutcome::err(sysno, errno, cost),
        }
    }

    fn do_lseek(&self, pid: Pid, request: &SyscallRequest, cost: Cycles) -> SyscallOutcome {
        let sysno = request.sysno;
        let fd = request.args[0] as i32;
        let offset = request.args[1] as i64;
        let mode = request.args[2];
        let mut table = self.inner.processes.lock();
        let process = match table.get_mut(pid) {
            Ok(process) => process,
            Err(errno) => return SyscallOutcome::err(sysno, errno, cost),
        };
        let entry = match process.fd_mut(fd) {
            Ok(entry) => entry,
            Err(errno) => return SyscallOutcome::err(sysno, errno, cost),
        };
        if let FdObject::File {
            path,
            offset: current,
            ..
        } = &mut entry.object
        {
            let size = self.inner.vfs.lock().size(path).unwrap_or(0) as i64;
            let base = match mode {
                whence::SEEK_SET => 0,
                whence::SEEK_CUR => *current as i64,
                whence::SEEK_END => size,
                _ => return SyscallOutcome::err(sysno, Errno::EINVAL, cost),
            };
            let target = base + offset;
            if target < 0 {
                return SyscallOutcome::err(sysno, Errno::EINVAL, cost);
            }
            *current = target as u64;
            SyscallOutcome::ok(sysno, target, cost)
        } else {
            SyscallOutcome::err(sysno, Errno::EINVAL, cost)
        }
    }

    fn do_fcntl(&self, pid: Pid, request: &SyscallRequest, cost: Cycles) -> SyscallOutcome {
        let sysno = request.sysno;
        let fd = request.args[0] as i32;
        let cmd = request.args[1];
        let arg = request.args[2];
        let mut table = self.inner.processes.lock();
        let process = match table.get_mut(pid) {
            Ok(process) => process,
            Err(errno) => return SyscallOutcome::err(sysno, errno, cost),
        };
        let entry = match process.fd_mut(fd) {
            Ok(entry) => entry,
            Err(errno) => return SyscallOutcome::err(sysno, errno, cost),
        };
        match cmd {
            fcntl::F_GETFD => SyscallOutcome::ok(sysno, i64::from(entry.cloexec), cost),
            fcntl::F_SETFD => {
                entry.cloexec = arg & fcntl::FD_CLOEXEC != 0;
                SyscallOutcome::ok(sysno, 0, cost)
            }
            fcntl::F_GETFL => {
                SyscallOutcome::ok(sysno, if entry.nonblocking { flags::O_NONBLOCK as i64 } else { 0 }, cost)
            }
            fcntl::F_SETFL => {
                entry.nonblocking = arg & flags::O_NONBLOCK != 0;
                SyscallOutcome::ok(sysno, 0, cost)
            }
            _ => SyscallOutcome::err(sysno, Errno::EINVAL, cost),
        }
    }

    fn do_listen(&self, pid: Pid, request: &SyscallRequest, cost: Cycles) -> SyscallOutcome {
        let sysno = request.sysno;
        let fd = request.args[0] as i32;
        let backlog = request.args[1] as usize;
        let mut table = self.inner.processes.lock();
        let process = match table.get_mut(pid) {
            Ok(process) => process,
            Err(errno) => return SyscallOutcome::err(sysno, errno, cost),
        };
        let entry = match process.fd_mut(fd) {
            Ok(entry) => entry,
            Err(errno) => return SyscallOutcome::err(sysno, errno, cost),
        };
        // The port was recorded by bind(); listening on an unbound socket is
        // an error, as it would be on Linux (no ephemeral listeners here).
        let port = match entry.object {
            FdObject::UnboundSocket {
                bound_port: Some(port),
            } => port,
            FdObject::UnboundSocket { bound_port: None } => {
                return SyscallOutcome::err(sysno, Errno::EINVAL, cost)
            }
            _ => return SyscallOutcome::err(sysno, Errno::EINVAL, cost),
        };
        match self.inner.net.listen(port, backlog.max(16)) {
            Ok(listener) => {
                entry.object = FdObject::Listener(listener);
                // Flag the upgraded descriptor for transfer: monitors that
                // mirrored the plain socket created by socket() must receive
                // the listener object too, or a promoted follower would be
                // left accepting on a stale unbound-socket clone.
                SyscallOutcome::ok(sysno, 0, cost).with_fd(fd)
            }
            Err(errno) => SyscallOutcome::err(sysno, errno, cost),
        }
    }

    fn do_accept(&self, pid: Pid, request: &SyscallRequest, cost: Cycles) -> SyscallOutcome {
        let sysno = request.sysno;
        let fd = request.args[0] as i32;
        let (listener, nonblocking) = {
            let table = self.inner.processes.lock();
            let process = match table.get(pid) {
                Ok(process) => process,
                Err(errno) => return SyscallOutcome::err(sysno, errno, cost),
            };
            match process.fd(fd) {
                Ok(entry) => match &entry.object {
                    FdObject::Listener(listener) => (Arc::clone(listener), entry.nonblocking),
                    _ => return SyscallOutcome::err(sysno, Errno::EINVAL, cost),
                },
                Err(errno) => return SyscallOutcome::err(sysno, errno, cost),
            }
        };
        match listener.accept(!nonblocking) {
            Ok(endpoint) => {
                let mut table = self.inner.processes.lock();
                match table.get_mut(pid) {
                    Ok(process) => match process.install_fd(FdEntry::new(FdObject::Stream(endpoint))) {
                        Ok(new_fd) => SyscallOutcome::ok(sysno, i64::from(new_fd), cost).with_fd(new_fd),
                        Err(errno) => SyscallOutcome::err(sysno, errno, cost),
                    },
                    Err(errno) => SyscallOutcome::err(sysno, errno, cost),
                }
            }
            Err(errno) => SyscallOutcome::err(sysno, errno, cost),
        }
    }

    fn do_connect(&self, pid: Pid, request: &SyscallRequest, cost: Cycles) -> SyscallOutcome {
        let sysno = request.sysno;
        let fd = request.args[0] as i32;
        let port = request.args[1] as u16;
        match self.inner.net.connect(port) {
            Ok(endpoint) => {
                let mut table = self.inner.processes.lock();
                let process = match table.get_mut(pid) {
                    Ok(process) => process,
                    Err(errno) => return SyscallOutcome::err(sysno, errno, cost),
                };
                match process.fd_mut(fd) {
                    Ok(entry) => {
                        entry.object = FdObject::Stream(endpoint);
                        SyscallOutcome::ok(sysno, 0, cost)
                    }
                    Err(errno) => SyscallOutcome::err(sysno, errno, cost),
                }
            }
            Err(errno) => SyscallOutcome::err(sysno, errno, cost),
        }
    }

    fn do_read(&self, pid: Pid, request: &SyscallRequest, cost: Cycles) -> SyscallOutcome {
        let sysno = request.sysno;
        let fd = request.args[0] as i32;
        let len = request.args[2] as usize;
        let (object, nonblocking) = {
            let table = self.inner.processes.lock();
            let process = match table.get(pid) {
                Ok(process) => process,
                Err(errno) => return SyscallOutcome::err(sysno, errno, cost),
            };
            match process.fd(fd) {
                Ok(entry) => (entry.object.clone(), entry.nonblocking),
                Err(errno) => return SyscallOutcome::err(sysno, errno, cost),
            }
        };
        match object {
            FdObject::Console => SyscallOutcome::ok(sysno, 0, cost),
            FdObject::File { path, offset, .. } => {
                let data = {
                    let vfs = self.inner.vfs.lock();
                    let mut rng = self.inner.rng.lock();
                    vfs.read(&path, offset as usize, len, &mut rng)
                };
                match data {
                    Ok(data) => {
                        let read = data.len();
                        // Devices do not advance the offset; files do.
                        let mut table = self.inner.processes.lock();
                        if let Ok(process) = table.get_mut(pid) {
                            if let Ok(entry) = process.fd_mut(fd) {
                                if let FdObject::File { offset, .. } = &mut entry.object {
                                    *offset += read as u64;
                                }
                            }
                        }
                        // Cost is charged for the requested transfer size, as
                        // in the Figure 4 calibration (read of 512 bytes from
                        // /dev/null costs 1486 cycles even though it hits EOF).
                        let cost = self.inner.cost.native_cost(sysno, len);
                        SyscallOutcome::ok(sysno, read as i64, cost).with_data(data)
                    }
                    Err(errno) => SyscallOutcome::err(sysno, errno, cost),
                }
            }
            FdObject::Stream(endpoint) => {
                // args[1] carries an optional deadline in microseconds
                // (SyscallRequest::read_timeout); 0 keeps the historical
                // block-forever semantics.  Timed reads let servers bound
                // how long a slow client can pin a worker without switching
                // the fd to nonblocking polling, which would distort the
                // syscall footprint that followers replay.
                let timeout_micros = request.args[1];
                let result = if nonblocking || timeout_micros == 0 {
                    endpoint.read(len, !nonblocking)
                } else {
                    endpoint.read_timeout(len, Duration::from_micros(timeout_micros))
                };
                match result {
                    Ok(data) => {
                        let cost = self.inner.cost.native_cost(sysno, data.len());
                        SyscallOutcome::ok(sysno, data.len() as i64, cost).with_data(data)
                    }
                    Err(errno) => SyscallOutcome::err(sysno, errno, cost),
                }
            }
            FdObject::PipeRead(pipe) => {
                let data = pipe.drain(len);
                SyscallOutcome::ok(sysno, data.len() as i64, cost).with_data(data)
            }
            FdObject::PipeWrite(_) | FdObject::Listener(_) | FdObject::UnboundSocket { .. }
            | FdObject::Epoll { .. } => SyscallOutcome::err(sysno, Errno::EINVAL, cost),
        }
    }

    fn do_write(&self, pid: Pid, request: &SyscallRequest, cost: Cycles) -> SyscallOutcome {
        let sysno = request.sysno;
        let fd = request.args[0] as i32;
        let payload = request.data.clone().unwrap_or_default();
        let object = {
            let table = self.inner.processes.lock();
            let process = match table.get(pid) {
                Ok(process) => process,
                Err(errno) => return SyscallOutcome::err(sysno, errno, cost),
            };
            match process.fd(fd) {
                Ok(entry) => entry.object.clone(),
                Err(errno) => return SyscallOutcome::err(sysno, errno, cost),
            }
        };
        match object {
            FdObject::Console => {
                let mut table = self.inner.processes.lock();
                if let Ok(process) = table.get_mut(pid) {
                    process.console.extend_from_slice(&payload);
                }
                SyscallOutcome::ok(sysno, payload.len() as i64, cost)
            }
            FdObject::File {
                path,
                offset,
                append,
            } => {
                let written = self
                    .inner
                    .vfs
                    .lock()
                    .write(&path, offset as usize, &payload, append);
                match written {
                    Ok(written) => {
                        let mut table = self.inner.processes.lock();
                        if let Ok(process) = table.get_mut(pid) {
                            if let Ok(entry) = process.fd_mut(fd) {
                                if let FdObject::File { offset, .. } = &mut entry.object {
                                    *offset += written as u64;
                                }
                            }
                        }
                        SyscallOutcome::ok(sysno, written as i64, cost)
                    }
                    Err(errno) => SyscallOutcome::err(sysno, errno, cost),
                }
            }
            FdObject::Stream(endpoint) => match endpoint.write(&payload) {
                Ok(written) => SyscallOutcome::ok(sysno, written as i64, cost),
                Err(errno) => SyscallOutcome::err(sysno, errno, cost),
            },
            FdObject::PipeWrite(pipe) => {
                pipe.push(&payload);
                SyscallOutcome::ok(sysno, payload.len() as i64, cost)
            }
            FdObject::PipeRead(_) | FdObject::Listener(_) | FdObject::UnboundSocket { .. }
            | FdObject::Epoll { .. } => SyscallOutcome::err(sysno, Errno::EINVAL, cost),
        }
    }

    fn do_epoll_wait(&self, pid: Pid, request: &SyscallRequest, cost: Cycles) -> SyscallOutcome {
        let sysno = request.sysno;
        let fd = request.args[0] as i32;
        let watched = {
            let table = self.inner.processes.lock();
            let process = match table.get(pid) {
                Ok(process) => process,
                Err(errno) => return SyscallOutcome::err(sysno, errno, cost),
            };
            match process.fd(fd) {
                Ok(entry) => match &entry.object {
                    FdObject::Epoll { watched } => watched.clone(),
                    _ => return SyscallOutcome::err(sysno, Errno::EINVAL, cost),
                },
                Err(errno) => return SyscallOutcome::err(sysno, errno, cost),
            }
        };
        let table = self.inner.processes.lock();
        let process = match table.get(pid) {
            Ok(process) => process,
            Err(errno) => return SyscallOutcome::err(sysno, errno, cost),
        };
        let mut ready = Vec::new();
        for watched_fd in watched {
            if let Ok(entry) = process.fd(watched_fd) {
                let is_ready = match &entry.object {
                    FdObject::Stream(endpoint) => {
                        endpoint.readable_bytes() > 0 || endpoint.peer_closed()
                    }
                    FdObject::Listener(listener) => listener.pending_connections() > 0,
                    FdObject::PipeRead(pipe) => !pipe.is_empty(),
                    _ => false,
                };
                if is_ready {
                    ready.extend_from_slice(&watched_fd.to_le_bytes());
                }
            }
        }
        let count = (ready.len() / 4) as i64;
        SyscallOutcome::ok(sysno, count, cost).with_data(ready)
    }
}
