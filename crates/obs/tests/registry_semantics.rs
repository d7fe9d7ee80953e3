//! Direct regression tests of the armed registry's aggregation semantics:
//! `SpanAgg` min/max/count/total across interleaved spans from multiple
//! threads, and `reset()` isolation between captures.
//!
//! These run in their own process (integration test binary), so the only
//! state they share is with each other — a file-local mutex serializes them
//! against the process-global registry.

#![cfg(feature = "enabled")]

use std::sync::{Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use fairwos_obs as obs;

/// Serializes the tests in this binary against the global registry.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn interleaved_multi_thread_spans_pin_min_max_count_total() {
    let _g = lock();
    obs::reset();

    const LABEL: &str = "sem/interleaved";
    const SHORT_MS: u64 = 2;
    const LONG_MS: u64 = 8;
    // Two threads, each recording one short and one long span under the
    // same label, interleaved with the other thread.
    thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                {
                    let _s = obs::span(LABEL);
                    thread::sleep(Duration::from_millis(SHORT_MS));
                }
                {
                    let _s = obs::span(LABEL);
                    thread::sleep(Duration::from_millis(LONG_MS));
                }
            });
        }
    });

    let rm = obs::RunMetrics::capture("m", "d", "b", 0, 0.0);
    let agg = rm
        .spans
        .iter()
        .find(|s| s.label == LABEL)
        .unwrap_or_else(|| panic!("span {LABEL} missing from {:?}", rm.spans));

    assert_eq!(agg.count, 4, "2 threads × 2 spans");
    // sleep(d) guarantees at least d elapses, so these bounds are exact
    // even on a loaded machine (only the upper bounds would be flaky, and
    // none are asserted).
    let short = SHORT_MS as f64 / 1e3;
    let long = LONG_MS as f64 / 1e3;
    assert!(
        agg.min_secs >= short,
        "min {} must be ≥ the shortest sleep {short}",
        agg.min_secs
    );
    // The regression this test pins: min must track the *shortest* span,
    // not stay at the default 0 and not follow the most recent recording.
    assert!(
        agg.min_secs <= agg.max_secs,
        "min {} > max {}",
        agg.min_secs,
        agg.max_secs
    );
    assert!(
        agg.max_secs >= long,
        "max {} must be ≥ the longest sleep {long}",
        agg.max_secs
    );
    assert!(
        agg.total_secs >= 2.0 * (short + long),
        "total {} must be ≥ the sum of all sleeps {}",
        agg.total_secs,
        2.0 * (short + long)
    );
    assert!(
        agg.total_secs >= agg.max_secs + 3.0 * agg.min_secs - 1e-9,
        "total must dominate any single recording"
    );
}

#[test]
fn min_tracks_a_later_shorter_span() {
    let _g = lock();
    obs::reset();
    const LABEL: &str = "sem/min_order";
    {
        let _s = obs::span(LABEL);
        thread::sleep(Duration::from_millis(8));
    }
    {
        let _s = obs::span(LABEL);
        thread::sleep(Duration::from_millis(1));
    }
    let rm = obs::RunMetrics::capture("m", "d", "b", 0, 0.0);
    let agg = rm
        .spans
        .iter()
        .find(|s| s.label == LABEL)
        .unwrap_or_else(|| panic!("span missing"));
    assert_eq!(agg.count, 2);
    assert!(
        agg.min_secs < 0.008,
        "min {} still holds the first (long) recording",
        agg.min_secs
    );
    assert!(agg.max_secs >= 0.008);
}

#[test]
fn reset_between_captures_yields_empty_run_metrics() {
    let _g = lock();
    obs::reset();
    {
        let _s = obs::span("sem/reset_probe");
        obs::counter_add("sem/reset_counter", 3);
        obs::scale_max("sem/reset_scale", 9);
    }
    let before = obs::RunMetrics::capture("m", "d", "b", 0, 0.0);
    assert!(!before.spans.is_empty());
    assert!(!before.counters.is_empty());
    assert!(!before.scales.is_empty());

    obs::reset();
    let after = obs::RunMetrics::capture("m", "d", "b", 0, 0.0);
    assert!(
        after.spans.is_empty(),
        "spans survived reset: {:?}",
        after.spans
    );
    assert!(after.counters.is_empty(), "counters survived reset");
    assert!(after.scales.is_empty(), "scales survived reset");
}

#[test]
fn spans_feed_the_journal_and_reset_clears_it() {
    let _g = lock();
    obs::reset();
    assert!(obs::journal_events().is_empty(), "journal must start empty");
    {
        let _s = obs::span("sem/journal_span");
        obs::journal_epoch(2, 5);
    }
    obs::journal_alert("sem/alert", "test alert");
    let events = obs::journal_events();
    let begins = events
        .iter()
        .filter(
            |e| matches!(&e.event, obs::Event::SpanBegin { label } if label == "sem/journal_span"),
        )
        .count();
    let ends = events
        .iter()
        .filter(
            |e| matches!(&e.event, obs::Event::SpanEnd { label } if label == "sem/journal_span"),
        )
        .count();
    assert_eq!(begins, 1);
    assert_eq!(ends, 1);
    assert!(events
        .iter()
        .any(|e| matches!(&e.event, obs::Event::Epoch { stage: 2, epoch: 5 })));
    assert!(events
        .iter()
        .any(|e| matches!(&e.event, obs::Event::Alert { code, .. } if code == "sem/alert")));
    // Timestamps are non-decreasing per thread (single-threaded here).
    for pair in events.windows(2) {
        assert!(pair[0].ts_ns <= pair[1].ts_ns, "timestamps went backwards");
    }

    obs::reset();
    assert!(
        obs::journal_events().is_empty(),
        "reset must clear the journal"
    );
}

#[test]
fn gauge_keeps_last_value_while_scale_ratchets() {
    let _g = lock();
    obs::reset();
    // Identical write sequence to both kinds; only the fold differs.
    for v in [3u64, 11, 4] {
        obs::gauge_set("sem/kind_probe", v);
        obs::scale_max("sem/kind_probe", v);
    }
    let snap = obs::MetricsSnapshot::capture();
    let gauge = snap
        .gauges
        .iter()
        .find(|g| g.label == "sem/kind_probe")
        .unwrap_or_else(|| panic!("gauge missing from {:?}", snap.gauges));
    assert_eq!(gauge.value, 4, "a gauge must follow the value back down");
    let scale = snap
        .scales
        .iter()
        .find(|s| s.label == "sem/kind_probe")
        .unwrap_or_else(|| panic!("scale missing"));
    assert_eq!(scale.max, 11, "a scale must ratchet at the peak");

    obs::reset();
    assert!(
        obs::MetricsSnapshot::capture().gauges.is_empty(),
        "reset must clear gauges"
    );
}

#[test]
fn snapshot_surfaces_journal_drops_and_gauges_without_touching_run_metrics() {
    let _g = lock();
    obs::reset();
    obs::set_journal_capacity(2);
    // 5 events into a 2-slot ring: 3 oldest-first evictions.
    for epoch in 0..5 {
        obs::journal_epoch(1, epoch);
    }
    obs::gauge_set("sem/drop_probe", 7);

    let snap = obs::MetricsSnapshot::capture();
    assert_eq!(snap.journal.capacity, 2);
    assert_eq!(snap.journal.len, 2);
    assert_eq!(
        snap.journal.dropped, 3,
        "oldest-first eviction must be a scrapeable number"
    );

    // The exposition carries the drop counter end to end.
    let text = obs::prometheus_text(&snap);
    assert!(text.contains("fairwos_journal_dropped_total 3\n"), "{text}");
    assert!(text.contains("fairwos_gauge_sem_drop_probe 7\n"), "{text}");
    obs::validate_prometheus_text(&text).expect("live capture must validate");

    // Gauges are a live-export concern only: the byte-pinned RunMetrics
    // schema must not grow a gauges section.
    let runs = [obs::RunMetrics::capture("m", "d", "b", 0, 0.0)];
    let json = obs::json::to_string_pretty(&obs::Pipeline(&runs));
    assert!(
        !json.contains("\"gauges\""),
        "RunMetrics JSON must stay gauge-free"
    );

    obs::set_journal_capacity(obs::DEFAULT_JOURNAL_CAPACITY);
    obs::reset();
    let after = obs::MetricsSnapshot::capture();
    assert_eq!(
        after.journal.dropped, 0,
        "reset must clear the drop counter"
    );
    assert_eq!(after.journal.capacity, obs::DEFAULT_JOURNAL_CAPACITY as u64);
}

#[test]
fn counter_totals_snapshot_diffs() {
    let _g = lock();
    obs::reset();
    obs::counter_add("sem/totals", 5);
    let first: u64 = obs::counter_totals()
        .iter()
        .find(|(l, _)| l == "sem/totals")
        .map(|&(_, v)| v)
        .unwrap_or(0);
    assert_eq!(first, 5);
    obs::counter_add("sem/totals", 7);
    let second: u64 = obs::counter_totals()
        .iter()
        .find(|(l, _)| l == "sem/totals")
        .map(|&(_, v)| v)
        .unwrap_or(0);
    assert_eq!(second - first, 7, "totals must accumulate, not reset");
}
