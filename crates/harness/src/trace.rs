//! JSON-lines serialization of trace event streams (`--trace PATH`).
//!
//! One line per [`TraceRecord`], with the payload words named per event
//! kind (`key`, `version`, `lag_ns`, …) instead of the raw `a`/`b`/`c`
//! slots, and one closing `trace_end` line per trial carrying the event
//! and drop counts. Lines of a fleet trial lead with a `shard` column and
//! come as one stream (events, then trailer) per shard. Records contain
//! only simulation output and trials are written in grid order, so the
//! stream is byte-identical at any `--threads N`.

use ddp_core::{StallCause, TraceDump, TraceEventKind, TraceRecord};

use crate::json::stream_line;

/// Serializes one trace event as a single JSON object (one line of the
/// `--trace` stream). `trial` is the grid index of the run the event
/// belongs to; `shard` is the event's replica group in a fleet trial and
/// `None` for a solo trial.
#[must_use]
pub fn trace_event_to_json(trial: usize, shard: Option<u16>, r: &TraceRecord) -> String {
    let mut o = stream_line(trial, shard);
    o.str("kind", r.kind.name());
    o.u64("seq", r.seq);
    o.u64("at_ns", r.at_ns);
    o.u64("node", u64::from(r.node));
    match r.kind {
        TraceEventKind::WriteIssue
        | TraceEventKind::WriteVp
        | TraceEventKind::ReplicaApply
        | TraceEventKind::PersistComplete => {
            o.u64("key", r.a);
            o.u64("version", r.b);
        }
        TraceEventKind::PersistIssue => {
            o.u64("key", r.a);
            o.u64("version", r.b);
            o.u64("queue_wait_ns", r.c);
        }
        TraceEventKind::WriteDp => {
            o.u64("key", r.a);
            o.u64("version", r.b);
            o.u64("lag_ns", r.c);
        }
        TraceEventKind::ReadIssue => {
            o.u64("key", r.a);
        }
        TraceEventKind::ReadComplete => {
            o.u64("key", r.a);
            o.u64("version", r.b);
            o.u64("latency_ns", r.c);
        }
        TraceEventKind::WriteComplete => {
            o.u64("key", r.a);
            o.u64("version", r.b);
            o.u64("latency_ns", r.c);
        }
        TraceEventKind::StallBegin => {
            o.u64("key", r.a);
            o.u64("blocking_version", r.b);
            o.str("cause", StallCause(r.c).name());
        }
        TraceEventKind::StallEnd => {
            o.u64("key", r.a);
            o.u64("stall_ns", r.c);
        }
        TraceEventKind::CompactionBegin => {
            o.u64("work", r.a);
            o.u64("entries", r.b);
            o.u64("bytes", r.c);
        }
        TraceEventKind::CompactionEnd => {
            o.u64("work", r.a);
            o.u64("bytes", r.c);
        }
    }
    o.finish()
}

/// The closing line of one trial's (or fleet shard's) trace stream: how
/// many events survived the ring and how many were overwritten
/// (`dropped` > 0 means the ring capacity was smaller than the run's
/// event count).
#[must_use]
pub fn trace_end_to_json(
    trial: usize,
    shard: Option<u16>,
    label: &str,
    dump: &TraceDump,
) -> String {
    let mut o = stream_line(trial, shard);
    o.str("kind", "trace_end");
    o.str("label", label);
    o.u64("events", dump.events.len() as u64);
    o.u64("dropped", dump.dropped);
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: TraceEventKind) -> TraceRecord {
        TraceRecord {
            seq: 7,
            at_ns: 1_000,
            a: 42,
            b: 3,
            c: 250,
            kind,
            node: 2,
        }
    }

    #[test]
    fn payload_words_are_named_per_kind() {
        let dp = trace_event_to_json(0, None, &rec(TraceEventKind::WriteDp));
        assert!(dp.contains("\"kind\":\"write_dp\""), "{dp}");
        assert!(
            dp.contains("\"key\":42") && dp.contains("\"lag_ns\":250"),
            "{dp}"
        );

        let stall = trace_event_to_json(1, None, &rec(TraceEventKind::StallBegin));
        assert!(
            stall.contains("\"cause\":\"persist\"") && stall.contains("\"blocking_version\":3"),
            "{stall}"
        );

        let cb = trace_event_to_json(5, None, &rec(TraceEventKind::CompactionBegin));
        assert!(
            cb.contains("\"kind\":\"compaction_begin\"")
                && cb.contains("\"work\":42")
                && cb.contains("\"entries\":3")
                && cb.contains("\"bytes\":250"),
            "{cb}"
        );

        let ce = trace_event_to_json(6, None, &rec(TraceEventKind::CompactionEnd));
        assert!(
            ce.contains("\"kind\":\"compaction_end\"")
                && ce.contains("\"work\":42")
                && ce.contains("\"bytes\":250"),
            "{ce}"
        );
    }

    #[test]
    fn fleet_lines_prepend_the_shard_and_change_nothing_else() {
        let base = trace_event_to_json(2, None, &rec(TraceEventKind::WriteDp));
        let sharded = trace_event_to_json(2, Some(3), &rec(TraceEventKind::WriteDp));
        assert_eq!(sharded, format!("{{\"shard\":3,{}", &base[1..]));

        let dump = TraceDump {
            events: Vec::new(),
            dropped: 0,
        };
        let end = trace_end_to_json(0, Some(1), "<Lin,Sync>", &dump);
        assert!(end.starts_with("{\"shard\":1,\"trial\":0,"), "{end}");
        assert!(end.contains("\"kind\":\"trace_end\""), "{end}");
    }

    #[test]
    fn trace_end_reports_counts() {
        let dump = TraceDump {
            events: vec![rec(TraceEventKind::WriteVp)],
            dropped: 9,
        };
        let line = trace_end_to_json(4, None, "<Lin,Sync>", &dump);
        assert!(line.contains("\"kind\":\"trace_end\""), "{line}");
        assert!(
            line.contains("\"events\":1") && line.contains("\"dropped\":9"),
            "{line}"
        );
    }
}
