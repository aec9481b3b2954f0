//! Process accounting: CPU clocks through libc's `clock_gettime` (std links
//! libc; there is no `libc` crate in the container), the rest from `/proc`.

use std::fs;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    // From libc, which std already links; no crate is needed.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time charged to `clock_id` so far, nanoseconds.  `/proc/self/stat`
/// only has 10 ms ticks, too coarse for a per-trial CPU metric.
fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the duration
    // of the call, and both clock ids are defined on every Linux kernel;
    // clock_gettime writes nothing else and keeps no pointer.
    let status = unsafe { clock_gettime(clock_id, &mut ts) };
    if status == 0 {
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    } else {
        0
    }
}

/// User + system CPU time of this process so far (all threads, including
/// ones that have exited), in milliseconds.
pub fn process_cpu_ms() -> f64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID) as f64 / 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Nanoseconds the calling thread has spent on a CPU.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// The CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed; pid 0
    // means the calling thread; the kernel writes at most that many bytes.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if status != 0 {
        return vec![0];
    }
    (0..1024)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread (and threads it spawns from now on) to
/// `cpus`.  Best-effort: a refused call leaves the scheduler in charge.
pub fn pin_current_thread(cpus: &[usize]) {
    let mut set: CpuSet = [0; 16];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < 1024) {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a valid cpu_set_t of the size passed and outlives
    // the call; pid 0 means the calling thread.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
}

/// Filesystem type holding `path`, from the longest matching mount point in
/// `/proc/mounts` (for the environment stamp).
pub fn filesystem_of(path: &std::path::Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_owned()))
        })
        .max()
        .map(|(_, kind)| kind)
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_is_readable_and_monotonic() {
        let before = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu_ns() > before);
        assert!(process_cpu_ms() > 0.0);
        assert!(peak_rss_mib() > 0.0);
        let allowed = allowed_cpus();
        assert!(!allowed.is_empty());
        pin_current_thread(&allowed[..1]);
        assert_eq!(allowed_cpus(), allowed[..1]);
        pin_current_thread(&allowed);
        assert_ne!(filesystem_of(std::path::Path::new(".")), "");
    }
}
