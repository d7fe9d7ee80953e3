//! Chrome `trace_event` JSON export of the event journal.
//!
//! The output is the *JSON Object Format* understood by Perfetto and
//! `chrome://tracing`: a top-level object whose `traceEvents` array holds
//! one object per event. Mapping:
//!
//! | journal event      | `ph`  | notes                                    |
//! |--------------------|-------|------------------------------------------|
//! | `SpanBegin`        | `"B"` | duration-begin, `name` = span label      |
//! | `SpanEnd`          | `"E"` | duration-end, closes the innermost `"B"` |
//! | `Epoch`            | `"i"` | instant, `args: {stage, epoch}`          |
//! | `Alert`            | `"i"` | instant, `name` = alert code             |
//! | `CounterSnapshot`  | `"C"` | counter track, `args: {value}`           |
//!
//! Timestamps are microseconds (the format's unit) with nanosecond
//! precision kept as three fixed decimals, so the document is byte-stable
//! in the JSON codec's pretty layout and golden-fixture testable. Events
//! appear in journal push order; per-thread ordering (and thus `"B"`/`"E"`
//! nesting) is preserved because each thread pushes its own events in
//! program order.

use std::path::Path;

use crate::event::{Event, TimedEvent};
use crate::json::{self, JsonWriter, ToJson};

/// Version stamp written into the trace document (top-level
/// `schema_version` field, ignored by trace viewers).
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// The Chrome `trace_event` document over journal events, pinned by
/// `tests/golden_trace.rs`.
pub struct Trace<'a>(pub &'a [TimedEvent]);

impl ToJson for Trace<'_> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("schema_version", &TRACE_SCHEMA_VERSION);
        w.field("tool", "fairwos-obs");
        w.field("displayTimeUnit", "ms");
        w.field("traceEvents", self.0);
        w.end_object();
    }
}

/// One trace event: `name`, `cat`, `ph`, `ts`, `pid`, `tid`, then the
/// instant scope `s` and the `args` object where the event has them.
impl ToJson for TimedEvent {
    fn write_json(&self, w: &mut JsonWriter) {
        let envelope = |w: &mut JsonWriter, name: &str, cat: &str, ph: &str| {
            w.begin_object();
            w.field("name", name);
            w.field("cat", cat);
            w.field("ph", ph);
            // Microseconds with three decimals (`1234567` ns → `1234.567`).
            w.key("ts");
            w.raw(format_args!(
                "{}.{:03}",
                self.ts_ns / 1000,
                self.ts_ns % 1000
            ));
            w.field("pid", &1u8);
            w.field("tid", &self.tid);
        };
        let args = |w: &mut JsonWriter, scope: Option<&str>, members: &[(&str, &dyn ToJson)]| {
            if let Some(s) = scope {
                w.field("s", s);
            }
            w.key("args");
            w.object(members);
        };
        match &self.event {
            Event::SpanBegin { label } => envelope(w, label, "span", "B"),
            Event::SpanEnd { label } => envelope(w, label, "span", "E"),
            Event::Epoch { stage, epoch } => {
                envelope(w, "train/epoch", "train", "i");
                args(w, Some("t"), &[("stage", stage), ("epoch", epoch)]);
            }
            Event::Alert { code, message } => {
                envelope(w, code, "alert", "i");
                args(w, Some("g"), &[("message", message)]);
            }
            Event::CounterSnapshot { label, value } => {
                envelope(w, label, "counter", "C");
                args(w, None, &[("value", value)]);
            }
            Event::Checkpoint {
                generation,
                stage,
                epoch,
            } => {
                envelope(w, "train/checkpoint", "persist", "i");
                args(
                    w,
                    Some("t"),
                    &[
                        ("generation", generation),
                        ("stage", stage),
                        ("epoch", epoch),
                    ],
                );
            }
            Event::Rollback {
                generation,
                stage,
                epoch,
            } => {
                envelope(w, "train/rollback", "persist", "i");
                args(
                    w,
                    Some("g"),
                    &[
                        ("generation", generation),
                        ("stage", stage),
                        ("epoch", epoch),
                    ],
                );
            }
        }
        w.end_object();
    }
}

/// Writes the [`Trace`] document of `events` to `path` (pretty), creating
/// parent directories.
///
/// # Errors
///
/// Propagates any I/O error from directory creation or the file write.
pub fn write_trace_json(path: &Path, events: &[TimedEvent]) -> std::io::Result<()> {
    crate::write_file(path, &json::to_string_pretty(&Trace(events)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ts_ns: u64, tid: u64, event: Event) -> TimedEvent {
        TimedEvent { ts_ns, tid, event }
    }

    /// The compact text of the document, for pinning event fragments.
    fn compact(events: &[TimedEvent]) -> String {
        json::to_string(&Trace(events))
    }

    #[test]
    fn empty_journal_serializes_as_empty_array() {
        let doc = json::to_string_pretty(&Trace(&[]));
        assert!(doc.contains("\"traceEvents\": []\n}"), "{doc}");
        assert!(doc.starts_with("{\n  \"schema_version\": 1,\n"));
    }

    #[test]
    fn span_pair_maps_to_b_and_e_with_microsecond_ts() {
        let doc = compact(&[
            at(
                1_500,
                0,
                Event::SpanBegin {
                    label: "train/stage2/epoch".to_owned(),
                },
            ),
            at(
                2_501_250,
                0,
                Event::SpanEnd {
                    label: "train/stage2/epoch".to_owned(),
                },
            ),
        ]);
        assert!(
            doc.contains(
                "{\"name\":\"train/stage2/epoch\",\"cat\":\"span\",\"ph\":\"B\",\
                 \"ts\":1.500,\"pid\":1,\"tid\":0}"
            ),
            "{doc}"
        );
        assert!(doc.contains("\"ph\":\"E\",\"ts\":2501.250"), "{doc}");
    }

    #[test]
    fn instants_and_counters_carry_args() {
        let doc = compact(&[
            at(0, 1, Event::Epoch { stage: 3, epoch: 7 }),
            at(
                10,
                1,
                Event::Alert {
                    code: "watchdog/loss_spike".to_owned(),
                    message: "loss 9 exceeded baseline".to_owned(),
                },
            ),
            at(
                20,
                1,
                Event::CounterSnapshot {
                    label: "tensor/matmul/flops".to_owned(),
                    value: 1234,
                },
            ),
        ]);
        assert!(
            doc.contains("\"s\":\"t\",\"args\":{\"stage\":3,\"epoch\":7}"),
            "{doc}"
        );
        assert!(doc.contains("\"name\":\"watchdog/loss_spike\""), "{doc}");
        assert!(
            doc.contains("\"s\":\"g\",\"args\":{\"message\":\"loss 9 exceeded baseline\"}"),
            "{doc}"
        );
        assert!(doc.contains("\"ph\":\"C\",\"ts\":0.020"), "{doc}");
        assert!(doc.contains("\"tid\":1,\"args\":{\"value\":1234}"), "{doc}");
    }

    #[test]
    fn checkpoint_and_rollback_are_persist_instants() {
        let doc = compact(&[
            at(
                5,
                0,
                Event::Checkpoint {
                    generation: 3,
                    stage: 2,
                    epoch: 40,
                },
            ),
            at(
                9,
                0,
                Event::Rollback {
                    generation: 3,
                    stage: 2,
                    epoch: 40,
                },
            ),
        ]);
        assert!(
            doc.contains("\"name\":\"train/checkpoint\",\"cat\":\"persist\",\"ph\":\"i\""),
            "{doc}"
        );
        assert!(
            doc.contains("\"args\":{\"generation\":3,\"stage\":2,\"epoch\":40}"),
            "{doc}"
        );
        assert!(doc.contains("\"name\":\"train/rollback\""), "{doc}");
    }

    #[test]
    fn write_creates_parent_directories() {
        let dir = std::env::temp_dir().join("fairwos_obs_trace_test");
        let path = dir.join("nested").join("trace.json");
        let _ = std::fs::remove_dir_all(&dir);
        let events = [at(5, 0, Event::Epoch { stage: 1, epoch: 0 })];
        write_trace_json(&path, &events).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, json::to_string_pretty(&Trace(&events)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
