//! Where the benchmark puts threads.
//!
//! On the 2-core reference box a closed-loop request is a pair of thread
//! wake-ups, and whether the scheduler happens to put client and server on
//! one core (≈ 12 µs round trip) or on two (≈ 37 µs: waking an idle virtual
//! CPU) is decided once per process and sticks — a 3× bimodal spread no
//! metric survives.  So placement is explicit, and the same in every arm:
//!
//! * the **leader** (version 0, or the only version) and the **load
//!   generator** share the first allowed CPU — in a closed loop they are
//!   never runnable at the same time, and it stands in for the paper's
//!   client on another machine without taking a core from a version;
//! * every **follower** runs on the second allowed CPU (the same CPU when
//!   only one is allowed), so leader and follower really run in parallel;
//! * fleet **joiners** run there too.  A joiner goes live only once its
//!   journal replay gets within half a ring lap of the leader; left to the
//!   scheduler on two saturated CPUs it lost that chase in about one trial
//!   in twelve and never went live.  Sharing the follower's CPU makes the
//!   chase self-limiting: while the joiner runs the follower does not, and
//!   the leader can get at most one lap (256 events) ahead of the follower.
//!
//! Versions are placed from inside: a thin wrapper program pins its own
//! thread, then runs the real program — no product code is involved.

use std::sync::OnceLock;

use crate::adapter::{ProgramExit, SyscallInterface, VersionProgram};
use crate::procfs;
use crate::trace::{TraceSink, Traced};

static CPUS: OnceLock<(usize, usize)> = OnceLock::new();

/// `(leader + generator CPU, follower CPU)`: the first two CPUs the process
/// was allowed at its first call — which must come before any pinning, as a
/// pinned thread (and every thread it spawns) sees only its own CPU.
pub fn cpus() -> (usize, usize) {
    *CPUS.get_or_init(|| {
        let allowed = procfs::allowed_cpus();
        let first = allowed.first().copied().unwrap_or(0);
        (first, allowed.get(1).copied().unwrap_or(first))
    })
}

/// Pins the calling thread to the leader/generator CPU (child `main`).
pub fn pin_generator() {
    procfs::pin_current_thread(&[cpus().0]);
}

/// Pins the calling thread to the follower CPU.
pub fn pin_follower() {
    procfs::pin_current_thread(&[cpus().1]);
}

struct Placed {
    inner: Box<dyn VersionProgram>,
    follower: bool,
}

impl VersionProgram for Placed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn run(&mut self, sys: &mut dyn SyscallInterface) -> ProgramExit {
        if self.follower {
            pin_follower();
        } else {
            pin_generator();
        }
        self.inner.run(sys)
    }
}

/// Wraps version `index` of a run: placement always, span recording when
/// the trial is traced (`first_conn` numbers its first accepted connection).
pub fn version(
    program: Box<dyn VersionProgram>,
    index: usize,
    first_conn: u32,
    traced: Option<&TraceSink>,
) -> Box<dyn VersionProgram> {
    let inner = match traced {
        Some(sink) => Traced::wrap(program, index, first_conn, sink),
        None => program,
    };
    Box::new(Placed {
        inner,
        follower: index > 0,
    })
}
