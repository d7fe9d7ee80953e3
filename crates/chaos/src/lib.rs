//! **fairwos-chaos** — deterministic fault injection for the Fairwos
//! pipeline: named failpoints driven by a seeded, replayable
//! [`FaultSchedule`], plus the shared [`RetryPolicy`] every retry loop in
//! the workspace uses.
//!
//! # Why a bespoke runtime
//!
//! The workspace's fault coverage used to be a patchwork of one-off test
//! doubles and ad-hoc retry loops, each with its own semantics. This crate
//! gives every I/O and concurrency seam one way to fail on demand:
//!
//! * a **failpoint** is a named hook (`failpoint!("ckpt/fs/write")`) at a
//!   seam, following the `<area>/<component>/<op>` naming convention
//!   (`docs/ROBUSTNESS.md`);
//! * a **schedule** says which points inject what ([`FaultAction`]) and
//!   when ([`Trigger`]): fail-nth, every-nth, seeded probability, or an
//!   explicit key such as a checkpoint generation;
//! * a **runner** replays the schedule deterministically — per-point hit
//!   counters and per-point [`FairRng`] streams derived from one seed, so the
//!   same seed always produces the byte-identical fault sequence. Chaos
//!   runs are replayable bugs, not flakes.
//!
//! # The workspace generator
//!
//! [`FairRng`] (with [`seeded_rng`]) is the one random-number generator of
//! the whole workspace, not only of the fault engine: a std-only ChaCha12
//! whose stream position checkpoints store. It lives here because this
//! crate depends on nothing third-party and sits below every crate that
//! draws; `fairwos-tensor` re-exports it.
//!
//! # Feature gating
//!
//! Like `fairwos-obs`, the **global** registry (`arm`/`disarm`/`eval`, and
//! therefore every `failpoint!` in production code) only does work with the
//! `enabled` cargo feature; without it `eval` is an empty
//! `#[inline(always)]` body and the seams compile to nothing. The schedule
//! *engine* — [`FaultSchedule`], [`ScheduleRunner`], [`RetryPolicy`] — is
//! always compiled, so test doubles (`FaultyCheckpointStore`,
//! `FaultyModelSource`) drive local runners even in default builds.
//!
//! ```
//! use fairwos_chaos as chaos;
//!
//! let mut schedule = chaos::FaultSchedule::new(42);
//! schedule.rule(
//!     "demo/io/write",
//!     chaos::Trigger::Nth(vec![2]),
//!     chaos::FaultAction::Fail,
//! );
//! // The schedule round-trips through JSON, so a failed soak can print it.
//! let replay = chaos::FaultSchedule::from_json(&schedule.to_json()).unwrap();
//!
//! let mut runner = chaos::ScheduleRunner::new(replay);
//! assert_eq!(runner.fire("demo/io/write"), None);
//! assert_eq!(runner.fire("demo/io/write"), Some(chaos::FaultAction::Fail));
//! assert_eq!(runner.log().len(), 1);
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]

mod clock;
mod isa;
mod retry;
mod rng;
mod schedule;

pub use clock::monotonic_micros;
pub use isa::Isa;
pub use retry::RetryPolicy;
pub use rng::{fnv1a64, mix, seeded_rng, splitmix64, Draw, DrawRange, FairRng};
pub use schedule::{FaultAction, FaultRule, FaultSchedule, InjectedFault, ScheduleRunner, Trigger};

/// Whether the `enabled` feature compiled the global failpoint registry in.
///
/// Harness code (e.g. `exp_chaos`) uses this to refuse to run in builds
/// where arming a schedule would be a silent no-op.
pub const fn is_enabled() -> bool {
    cfg!(feature = "enabled")
}

/// Evaluates a named failpoint against the globally armed schedule.
///
/// `failpoint!("area/component/op")` returns `Option<FaultAction>`; the
/// two-argument form `failpoint!("ckpt/fs/read", generation)` also matches
/// [`Trigger::Key`] rules against the key. Without the `enabled` feature
/// both forms compile to `None`.
#[macro_export]
macro_rules! failpoint {
    ($point:expr) => {
        $crate::eval($point)
    };
    ($point:expr, $key:expr) => {
        $crate::eval_keyed($point, $key)
    };
}

#[cfg(feature = "enabled")]
mod registry;

#[cfg(feature = "enabled")]
pub use registry::{arm, disarm, eval, eval_keyed, injection_log};

#[cfg(not(feature = "enabled"))]
mod noop {
    //! No-op stand-ins compiled without the `enabled` feature: every body
    //! is trivial and `#[inline(always)]`, so `failpoint!` call sites —
    //! and the fault-handling branches behind them — disappear from
    //! release builds.

    use crate::{FaultAction, FaultSchedule, InjectedFault};

    /// Arms the global registry (no-op in this build).
    #[inline(always)]
    pub fn arm(_schedule: FaultSchedule) {}

    /// Disarms the global registry (always empty in this build).
    #[inline(always)]
    pub fn disarm() -> Vec<InjectedFault> {
        Vec::new()
    }

    /// Evaluates a failpoint (always `None` in this build).
    #[inline(always)]
    pub fn eval(_point: &str) -> Option<FaultAction> {
        None
    }

    /// Evaluates a keyed failpoint (always `None` in this build).
    #[inline(always)]
    pub fn eval_keyed(_point: &str, _key: u64) -> Option<FaultAction> {
        None
    }

    /// Injection log snapshot (always empty in this build).
    #[inline(always)]
    pub fn injection_log() -> Vec<InjectedFault> {
        Vec::new()
    }
}

#[cfg(not(feature = "enabled"))]
pub use noop::{arm, disarm, eval, eval_keyed, injection_log};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failpoint_macro_is_inert_unless_armed() {
        // Without the feature this is the no-op; with it, nothing is armed
        // here (registry tests serialize arming behind their own gate), so
        // in both builds an unarmed point yields `None`.
        if !is_enabled() {
            assert_eq!(failpoint!("lib_test/unarmed/op"), None);
            assert_eq!(failpoint!("lib_test/unarmed/op", 3), None);
            assert!(disarm().is_empty());
        }
    }
}
