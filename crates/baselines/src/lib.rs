//! Prior-work baselines for comparing against VARAN.
//!
//! The paper's Table 2 compares VARAN with three state-of-the-art NVX systems
//! — Mx, Orchestra and Tachyon, all `ptrace`-based lock-step monitors — and
//! §5.4 compares its record-replay extension with Scribe, an in-kernel
//! record-replay system.  None of those systems is available here, so this
//! crate implements the *mechanisms* they rely on, running the same
//! application versions on the same virtual kernel so the comparison isolates
//! the monitor architecture:
//!
//! * [`lockstep`] — a centralised lock-step monitor: every version traps to
//!   the monitor at every system call, the monitor waits for all versions to
//!   reach the same call (the synchronisation bottleneck §2.2 describes),
//!   executes it once and copies the results back.  The interposition cost is
//!   configurable per mechanism (`ptrace` with its context switches and
//!   extra copying calls, or an in-kernel hook).
//! * [`scribe`] — an in-kernel record-replay baseline that logs every call
//!   synchronously on the critical path.
//! * [`presets`] — per-system cost presets (Mx, Orchestra, Tachyon) derived
//!   from the interposition work each system performs.
//! * [`pump`] — VARAN's own discarded first design (one queue per follower
//!   plus a central event pump), the ablation baseline for the shared ring.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod lockstep;
pub mod presets;
pub mod pump;
pub mod scribe;

pub use lockstep::{run_lockstep, LockstepConfig, LockstepReport};
pub use presets::{InterpositionCosts, Mechanism, PriorSystem};
pub use scribe::{ScribeConfig, ScribeRecorder};
