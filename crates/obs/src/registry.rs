//! The armed instrumentation backend, compiled only with the `enabled`
//! feature: a process-global, mutex-guarded set of aggregation tables.
//!
//! A single coarse `Mutex` is deliberate. The hot kernels record once per
//! *kernel call* (a full matmul, a full SPMM), not per element, so the lock
//! is taken a few thousand times per training run — nanoseconds of
//! contention against milliseconds of math. `BTreeMap` keys keep every
//! snapshot deterministically ordered, which the golden-fixture test and the
//! stable `bench_pipeline.json` schema rely on.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::event::{Event, EventRing, TimedEvent, DEFAULT_JOURNAL_CAPACITY};
use crate::report::{CounterMetric, ScaleMetric, SpanMetric};
use crate::snapshot::{GaugeMetric, JournalStats};

#[derive(Default)]
struct SpanAgg {
    count: u64,
    total_ns: u128,
    min_ns: u128,
    max_ns: u128,
}

#[derive(Default)]
struct CounterAgg {
    calls: u64,
    total: u64,
}

#[derive(Default)]
struct Tables {
    spans: BTreeMap<String, SpanAgg>,
    counters: BTreeMap<String, CounterAgg>,
    scales: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
}

fn tables() -> &'static Mutex<Tables> {
    static TABLES: OnceLock<Mutex<Tables>> = OnceLock::new();
    TABLES.get_or_init(|| Mutex::new(Tables::default()))
}

/// Applies `f` to the entry of `label` in `map`, inserting a default entry
/// first when the label is new. Only that first insertion allocates the
/// key: every later record under the label is a lookup.
fn update<V: Default>(map: &mut BTreeMap<String, V>, label: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(label) {
        Some(v) => f(v),
        None => f(map.entry(label.to_owned()).or_default()),
    }
}

fn with_tables<R>(f: impl FnOnce(&mut Tables) -> R) -> R {
    // A panic while holding this lock poisons it, but the tables hold plain
    // aggregates that are never left half-updated, so recording into a
    // poisoned registry is safe — observability must not turn one panic
    // into a cascade.
    let mut guard = tables().lock().unwrap_or_else(PoisonError::into_inner);
    f(&mut guard)
}

// ---------------------------------------------------------------------------
// The event journal: a second global, independently locked, holding the
// bounded ring of timeline events. Its lock is never taken while the tables
// lock is held (and vice versa), so the two can never deadlock.
// ---------------------------------------------------------------------------

fn journal() -> &'static Mutex<EventRing> {
    static JOURNAL: OnceLock<Mutex<EventRing>> = OnceLock::new();
    JOURNAL.get_or_init(|| Mutex::new(EventRing::new(DEFAULT_JOURNAL_CAPACITY)))
}

fn with_journal<R>(f: impl FnOnce(&mut EventRing) -> R) -> R {
    // Same poison policy as the tables: the ring is never half-updated.
    let mut guard = journal().lock().unwrap_or_else(PoisonError::into_inner);
    f(&mut guard)
}

/// The process-wide journal epoch: anchored at the first timestamped event
/// and never re-anchored, so `ts_ns` stays monotonic and comparable across
/// `reset()` boundaries.
#[expect(
    clippy::disallowed_methods,
    reason = "the journal anchor is the process's one sanctioned time source"
)]
fn journal_anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Nanoseconds elapsed since the process-wide journal anchor.
///
/// This is the sanctioned monotonic clock for instrumented subsystems that
/// need raw timestamps (e.g. `fairwos-serve` latency histograms) without
/// owning an `Instant` of their own — FW005 (clippy's
/// `disallowed_methods`) confines `Instant::now()` to the sanctioned
/// anchors. Values are comparable with the `ts_ns`
/// field of journal events because both share the same anchor.
pub fn monotonic_ns() -> u64 {
    journal_anchor().elapsed().as_nanos() as u64
}

/// Dense per-process thread id, assigned in first-recording order.
fn current_tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Stamps `event` with the monotonic journal time and the calling thread's
/// dense id, then appends it to the ring (evicting oldest-first when full).
pub fn journal_record(event: Event) {
    let ts_ns = journal_anchor().elapsed().as_nanos() as u64;
    let tid = current_tid();
    with_journal(|j| j.push(TimedEvent { ts_ns, tid, event }));
}

/// Records a training-epoch boundary event (stage 1/2/3, 0-based epoch).
pub fn journal_epoch(stage: u8, epoch: u64) {
    journal_record(Event::Epoch { stage, epoch });
}

/// Records an alert event (e.g. a watchdog trigger): `code` is the short
/// machine-readable identifier, `message` the human-readable detail.
pub fn journal_alert(code: &str, message: &str) {
    journal_record(Event::Alert {
        code: code.to_owned(),
        message: message.to_owned(),
    });
}

/// Records a point-in-time counter reading (cumulative total).
pub fn journal_counter_snapshot(label: &str, value: u64) {
    journal_record(Event::CounterSnapshot {
        label: label.to_owned(),
        value,
    });
}

/// Records a durably written training checkpoint (generation, and the
/// stage/epoch it resumes into).
pub fn journal_checkpoint(generation: u64, stage: u8, epoch: u64) {
    journal_record(Event::Checkpoint {
        generation,
        stage,
        epoch,
    });
}

/// Records a rollback/restart onto checkpoint `generation` (0 for a fresh
/// restart with no valid checkpoint).
pub fn journal_rollback(generation: u64, stage: u8, epoch: u64) {
    journal_record(Event::Rollback {
        generation,
        stage,
        epoch,
    });
}

/// Copies the journal's retained events in push order (oldest first).
pub fn journal_events() -> Vec<TimedEvent> {
    with_journal(|j| j.snapshot())
}

/// Resizes the journal ring (clamped to ≥ 1), evicting oldest events if
/// shrinking below the current length. Harnesses call this before a run
/// whose event volume exceeds [`DEFAULT_JOURNAL_CAPACITY`].
pub fn set_journal_capacity(capacity: usize) {
    with_journal(|j| j.set_capacity(capacity));
}

/// Live span: wall time runs from [`span`] until this guard drops.
///
/// The lifetime ties the guard to its label so labels can be borrowed
/// `&'static str` literals or locally-formatted strings alike.
#[must_use = "a span measures until the guard drops; bind it with `let _s = ...`"]
pub struct SpanGuard<'a> {
    label: &'a str,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_nanos();
        // A journal event owns its label: the ring outlives the borrow.
        journal_record(Event::SpanEnd {
            label: self.label.to_owned(),
        });
        with_tables(|t| {
            update(&mut t.spans, self.label, |agg| {
                if agg.count == 0 || elapsed < agg.min_ns {
                    agg.min_ns = elapsed;
                }
                if elapsed > agg.max_ns {
                    agg.max_ns = elapsed;
                }
                agg.count += 1;
                agg.total_ns += elapsed;
            });
        });
    }
}

/// Starts a span: wall time is measured until the returned guard drops.
///
/// Repeated spans under the same label aggregate into one
/// count/total/min/max row. Nesting is expressed purely through label
/// convention (`train/stage2` contains `train/stage2/epoch`); the registry
/// itself is flat.
#[expect(
    clippy::disallowed_methods,
    reason = "spans time themselves; their durations are the journal's measurements"
)]
pub fn span(label: &str) -> SpanGuard<'_> {
    // The begin event is journaled *before* timing starts, so the journal
    // write does not count against the span's own measured duration.
    journal_record(Event::SpanBegin {
        label: label.to_owned(),
    });
    SpanGuard {
        label,
        start: Instant::now(),
    }
}

/// Adds `amount` to the counter `label` and bumps its call count.
///
/// Kernels report one unit that is meaningful for them: multiply-add FLOPs
/// for the matmul family, nnz×cols fused multiply-adds for SPMM, bytes for
/// the matrix allocator.
pub fn counter_add(label: &str, amount: u64) {
    with_tables(|t| {
        update(&mut t.counters, label, |agg| {
            agg.calls += 1;
            agg.total += amount;
        });
    });
}

/// Records `value` for gauge `label`, keeping the per-run maximum.
pub fn scale_max(label: &str, value: u64) {
    with_tables(|t| update(&mut t.scales, label, |slot| *slot = (*slot).max(value)));
}

/// Sets the last-value gauge `label` to `value`, overwriting any previous
/// reading.
///
/// Unlike [`scale_max`], which ratchets and therefore can never show a
/// quantity *improving* (a single latency spike pins the gauge forever), a
/// last-value gauge tracks the current state of the world — the right kind
/// for anything a live scraper watches: latency quantiles, queue depths,
/// fairness drift estimates.
pub fn gauge_set(label: &str, value: u64) {
    with_tables(|t| update(&mut t.gauges, label, |slot| *slot = value));
}

/// Clears every table *and* the event journal. Harnesses call this at the
/// start of each run so a subsequent [`crate::RunMetrics::capture`] (or
/// [`journal_events`] export) sees only that run. The journal's capacity
/// and the timestamp anchor survive the reset.
pub fn reset() {
    with_tables(|t| {
        t.spans.clear();
        t.counters.clear();
        t.scales.clear();
        t.gauges.clear();
    });
    with_journal(EventRing::clear);
}

/// Current `(label, cumulative total)` of every counter, sorted by label.
/// The trainer's telemetry layer diffs consecutive snapshots into per-epoch
/// counter deltas.
pub fn counter_totals() -> Vec<(String, u64)> {
    with_tables(|t| {
        t.counters
            .iter()
            .map(|(label, a)| (label.clone(), a.total))
            .collect()
    })
}

/// Point-in-time occupancy of the event journal: retained events, evictions
/// since the last [`reset`], and the ring's capacity. This is how silent
/// journal truncation (oldest-first eviction under event pressure) becomes
/// visible to a metrics scraper.
pub fn journal_stats() -> JournalStats {
    with_journal(|j| JournalStats {
        len: j.len() as u64,
        dropped: j.dropped(),
        capacity: j.capacity() as u64,
    })
}

/// Current `(label, value)` of every last-value gauge, sorted by label.
pub fn gauge_values() -> Vec<GaugeMetric> {
    with_tables(|t| {
        t.gauges
            .iter()
            .map(|(label, &value)| GaugeMetric {
                label: label.clone(),
                value,
            })
            .collect()
    })
}

const NANOS_PER_SEC: f64 = 1e9;

/// Snapshots the registry into the report types, sorted by label.
pub(crate) fn snapshot() -> (Vec<SpanMetric>, Vec<CounterMetric>, Vec<ScaleMetric>) {
    with_tables(|t| {
        let spans = t
            .spans
            .iter()
            .map(|(label, a)| SpanMetric {
                label: label.clone(),
                count: a.count,
                total_secs: a.total_ns as f64 / NANOS_PER_SEC,
                min_secs: a.min_ns as f64 / NANOS_PER_SEC,
                max_secs: a.max_ns as f64 / NANOS_PER_SEC,
            })
            .collect();
        let counters = t
            .counters
            .iter()
            .map(|(label, a)| CounterMetric {
                label: label.clone(),
                calls: a.calls,
                total: a.total,
            })
            .collect();
        let scales = t
            .scales
            .iter()
            .map(|(label, &max)| ScaleMetric {
                label: label.clone(),
                max,
            })
            .collect();
        (spans, counters, scales)
    })
}
