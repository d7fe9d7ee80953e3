//! **fairwos-obs** — zero-dependency observability for the Fairwos training
//! pipeline: hierarchical span timers, kernel counters, peak-scale gauges,
//! and a stable `RunMetrics` JSON schema.
//!
//! # Why a bespoke layer
//!
//! The paper's Fig. 8 reports per-method training time, and every perf PR in
//! this workspace needs to prove its win against per-stage numbers — but the
//! kernels live in `fairwos-tensor`, the innermost crate, where a `tracing`
//! dependency is unacceptable. This crate is pure `std`, so it can sit below
//! everything, and the whole API compiles to **no-ops** unless the `enabled`
//! cargo feature is on (each consumer crate forwards it as its own `obs`
//! feature).
//!
//! # The three instruments
//!
//! * **Spans** — `let _s = span("train/stage2/epoch");` measures wall time
//!   from construction to drop. The global registry aggregates
//!   count/total/min/max per label. Hierarchy is by naming convention:
//!   `/`-separated segments from coarse to fine (see
//!   `docs/OBSERVABILITY.md`).
//! * **Counters** — `counter_add("tensor/matmul/flops", 2 * m * k * n)`
//!   accumulates a total and a call count per label. Used by the matmul /
//!   SPMM kernels and the matrix allocator.
//! * **Scales** — `scale_max("train/nodes", n)` keeps the per-run maximum,
//!   recording the peak problem size a run touched. Its sibling
//!   `gauge_set("serve/latency/p50_ns", v)` keeps the **last** value
//!   instead — the right kind for quantities a live scraper watches, which
//!   must be able to go back down.
//!
//! # Live export
//!
//! [`MetricsSnapshot::capture`] copies the whole registry (plus the event
//! journal's occupancy and drop counter) at any moment, and
//! [`prometheus_text`] renders it in Prometheus text exposition — the
//! payload behind `fairwos-serve`'s admin `GET /metrics` endpoint
//! (`docs/OBSERVABILITY.md`).
//!
//! # Run lifecycle
//!
//! The registry is process-global (the kernels have no handle to thread
//! state through which a context could flow). A harness brackets each run
//! with [`reset`] … [`RunMetrics::capture`], then serializes the batch with
//! [`write_pipeline_json`] — the `results/bench_pipeline.json` schema
//! ([`Pipeline`], written by the [`json`] codec like every other document
//! of the workspace) that seeds the benchmark trajectory.
//!
//! ```
//! use fairwos_obs as obs;
//!
//! obs::reset();
//! {
//!     let _s = obs::span("demo/work");
//!     obs::counter_add("demo/ops", 42);
//!     obs::scale_max("demo/size", 7);
//! }
//! let metrics = obs::RunMetrics::capture("Fairwos", "nba", "GCN", 0, 1.25);
//! // With the `enabled` feature the snapshot now holds the span, counter,
//! // and scale; without it, the vectors are empty and the whole block above
//! // compiled to (almost) nothing.
//! assert_eq!(metrics.spans.is_empty(), !obs::is_enabled());
//! ```

mod event;
pub mod json;
mod prometheus;
mod report;
mod snapshot;
mod telemetry;
mod trace;
pub mod watchdog;

pub use event::{Event, EventRing, TimedEvent, DEFAULT_JOURNAL_CAPACITY};
pub use prometheus::{prometheus_text, validate_prometheus_text, PROMETHEUS_CONTENT_TYPE};
pub use report::{
    write_pipeline_json, CounterMetric, Pipeline, RunMetrics, ScaleMetric, SpanMetric,
};
pub use snapshot::{GaugeMetric, JournalStats, MetricsSnapshot};
pub use telemetry::{EpochRecord, EvalMetrics, TelemetrySink, TELEMETRY_SCHEMA_VERSION};
pub use trace::{write_trace_json, Trace, TRACE_SCHEMA_VERSION};
pub use watchdog::{lambda_in_simplex, Divergence, Watchdog, WatchdogPolicy};

/// Writes `text` to `path`, creating parent directories.
fn write_file(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, text)
}

/// Whether the `enabled` feature compiled the instrumentation in.
///
/// Harness code uses this to skip metric collection (and the files it would
/// write) in uninstrumented builds.
pub const fn is_enabled() -> bool {
    cfg!(feature = "enabled")
}

/// Starts a span: wall time is measured until the guard drops.
///
/// Equivalent to [`span()`]; exists so call sites read as instrumentation
/// (`span!("stage2/epoch/forward")`) rather than as a function call whose
/// return value must not be discarded.
#[macro_export]
macro_rules! span {
    ($label:expr) => {
        $crate::span($label)
    };
}

#[cfg(feature = "enabled")]
mod registry;

#[cfg(feature = "enabled")]
pub use registry::{
    counter_add, counter_totals, gauge_set, gauge_values, journal_alert, journal_checkpoint,
    journal_counter_snapshot, journal_epoch, journal_events, journal_record, journal_rollback,
    journal_stats, monotonic_ns, reset, scale_max, set_journal_capacity, span, SpanGuard,
};

#[cfg(not(feature = "enabled"))]
mod noop {
    //! No-op stand-ins compiled without the `enabled` feature: every body is
    //! empty and `#[inline(always)]`, so instrumented call sites — including
    //! the argument arithmetic feeding them — disappear from release builds.

    /// Dropping the guard ends the span. In this build: a zero-sized token.
    #[must_use = "a span measures until the guard drops; bind it with `let _s = ...`"]
    pub struct SpanGuard<'a>(core::marker::PhantomData<&'a ()>);

    /// Starts a span (no-op in this build).
    #[inline(always)]
    pub fn span(_label: &str) -> SpanGuard<'_> {
        SpanGuard(core::marker::PhantomData)
    }

    /// Adds `_amount` to a counter (no-op in this build).
    #[inline(always)]
    pub fn counter_add(_label: &str, _amount: u64) {}

    /// Records a peak value (no-op in this build).
    #[inline(always)]
    pub fn scale_max(_label: &str, _value: u64) {}

    /// Sets a last-value gauge (no-op in this build).
    #[inline(always)]
    pub fn gauge_set(_label: &str, _value: u64) {}

    /// Last-value gauge snapshot (always empty in this build).
    #[inline(always)]
    pub fn gauge_values() -> Vec<crate::GaugeMetric> {
        Vec::new()
    }

    /// Journal occupancy (always zero in this build).
    #[inline(always)]
    pub fn journal_stats() -> crate::JournalStats {
        crate::JournalStats::default()
    }

    /// Clears the registry (no-op in this build).
    #[inline(always)]
    pub fn reset() {}

    /// Counter totals snapshot (always empty in this build).
    #[inline(always)]
    pub fn counter_totals() -> Vec<(String, u64)> {
        Vec::new()
    }

    /// Appends an event to the journal (no-op in this build).
    #[inline(always)]
    pub fn journal_record(_event: crate::Event) {}

    /// Records an epoch-boundary event (no-op in this build).
    #[inline(always)]
    pub fn journal_epoch(_stage: u8, _epoch: u64) {}

    /// Records an alert event (no-op in this build).
    #[inline(always)]
    pub fn journal_alert(_code: &str, _message: &str) {}

    /// Records a counter-snapshot event (no-op in this build).
    #[inline(always)]
    pub fn journal_counter_snapshot(_label: &str, _value: u64) {}

    /// Records a checkpoint event (no-op in this build).
    #[inline(always)]
    pub fn journal_checkpoint(_generation: u64, _stage: u8, _epoch: u64) {}

    /// Records a rollback event (no-op in this build).
    #[inline(always)]
    pub fn journal_rollback(_generation: u64, _stage: u8, _epoch: u64) {}

    /// Journal snapshot (always empty in this build).
    #[inline(always)]
    pub fn journal_events() -> Vec<crate::TimedEvent> {
        Vec::new()
    }

    /// Resizes the journal ring (no-op in this build).
    #[inline(always)]
    pub fn set_journal_capacity(_capacity: usize) {}

    /// Monotonic timestamp (always `0` in this build, so latency deltas
    /// computed from it are `0` and downstream histograms stay empty).
    #[inline(always)]
    pub fn monotonic_ns() -> u64 {
        0
    }
}

#[cfg(not(feature = "enabled"))]
pub use noop::{
    counter_add, counter_totals, gauge_set, gauge_values, journal_alert, journal_checkpoint,
    journal_counter_snapshot, journal_epoch, journal_events, journal_record, journal_rollback,
    journal_stats, monotonic_ns, reset, scale_max, set_journal_capacity, span, SpanGuard,
};

/// Serializes the unit tests that reset, record into or read the
/// process-global registry: Rust runs a binary's tests concurrently, and a
/// `reset` in one would clear what another has just recorded.
#[cfg(test)]
pub(crate) fn registry_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed test poisons the lock; the registry is still usable.
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_mode_is_inert_and_enabled_mode_records() {
        let _lock = registry_test_lock();
        reset();
        {
            let _s = span("lib_test/outer");
            let _inner = span!("lib_test/inner");
            counter_add("lib_test/counter", 5);
            counter_add("lib_test/counter", 7);
            scale_max("lib_test/scale", 3);
            scale_max("lib_test/scale", 11);
            scale_max("lib_test/scale", 4);
        }
        let rm = RunMetrics::capture("m", "d", "b", 1, 0.5);
        if is_enabled() {
            let outer = rm
                .spans
                .iter()
                .find(|s| s.label == "lib_test/outer")
                .unwrap_or_else(|| panic!("outer span missing: {:?}", rm.spans));
            assert_eq!(outer.count, 1);
            assert!(outer.total_secs >= 0.0);
            assert!(outer.min_secs <= outer.max_secs);
            let c = rm
                .counters
                .iter()
                .find(|c| c.label == "lib_test/counter")
                .unwrap_or_else(|| panic!("counter missing: {:?}", rm.counters));
            assert_eq!(c.calls, 2);
            assert_eq!(c.total, 12);
            let s = rm
                .scales
                .iter()
                .find(|s| s.label == "lib_test/scale")
                .unwrap_or_else(|| panic!("scale missing: {:?}", rm.scales));
            assert_eq!(s.max, 11);
        } else {
            assert!(rm.spans.is_empty());
            assert!(rm.counters.is_empty());
            assert!(rm.scales.is_empty());
        }
        assert_eq!(rm.method, "m");
        assert_eq!(rm.seed, 1);
        assert_eq!(rm.wall_secs, 0.5);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn span_aggregates_min_and_max_across_repeats() {
        let _lock = registry_test_lock();
        for _ in 0..3 {
            let _s = span("lib_test/repeat");
            std::hint::black_box(0u64);
        }
        let rm = RunMetrics::capture("m", "d", "b", 0, 0.0);
        let agg = rm
            .spans
            .iter()
            .find(|s| s.label == "lib_test/repeat")
            .unwrap_or_else(|| panic!("repeat span missing"));
        assert!(agg.count >= 3, "count {} < 3", agg.count);
        assert!(agg.min_secs <= agg.max_secs);
        assert!(agg.total_secs >= agg.max_secs);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn reset_clears_only_state_recorded_before_it() {
        let _lock = registry_test_lock();
        counter_add("lib_test/reset_probe_unique", 1);
        reset();
        counter_add("lib_test/after_reset_unique", 2);
        let rm = RunMetrics::capture("m", "d", "b", 0, 0.0);
        assert!(rm
            .counters
            .iter()
            .all(|c| c.label != "lib_test/reset_probe_unique"));
        assert!(rm
            .counters
            .iter()
            .any(|c| c.label == "lib_test/after_reset_unique"));
    }
}
