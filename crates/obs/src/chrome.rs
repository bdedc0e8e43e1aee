//! Chrome trace-event JSON exporter.
//!
//! Produces a document loadable by `chrome://tracing` / Perfetto:
//! `{"displayTimeUnit":"ms","traceEvents":[...]}` with one event object
//! per line. Events are emitted sorted by `(ts_us, seq)` — a total
//! order, since `seq` is unique — so identical collections always render
//! byte-identically.

use crate::json::escape;
use crate::trace::{TraceEvent, TracePhase, Tracer};

/// Render every event collected by `tracer` as Chrome trace-event JSON.
pub fn export(tracer: &Tracer) -> String {
    let mut events = tracer.events();
    events.sort_by_key(|e| (e.ts_us, e.seq));
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&render_event(ev));
    }
    out.push_str("\n]}\n");
    out
}

fn render_event(ev: &TraceEvent) -> String {
    match ev.ph {
        TracePhase::Complete => format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}}}",
            escape(&ev.name),
            escape(&ev.cat),
            ev.ts_us,
            ev.dur_us,
            ev.pid,
            ev.tid,
        ),
        TracePhase::Instant => format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"ts\":{},\"s\":\"t\",\"pid\":{},\"tid\":{}}}",
            escape(&ev.name),
            escape(&ev.cat),
            ev.ts_us,
            ev.pid,
            ev.tid,
        ),
    }
}

/// The distinct categories present in a rendered Chrome trace, sorted.
/// Used by the CI smoke stage to assert span-category coverage without a
/// full JSON parser.
pub fn categories(trace_json: &str) -> Vec<String> {
    let mut cats: Vec<String> = Vec::new();
    let mut rest = trace_json;
    while let Some(idx) = rest.find("\"cat\":\"") {
        rest = &rest[idx + 7..];
        if let Some(end) = rest.find('"') {
            let c = &rest[..end];
            if !cats.iter().any(|x| x == c) {
                cats.push(c.to_string());
            }
            rest = &rest[end..];
        } else {
            break;
        }
    }
    cats.sort();
    cats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    #[test]
    fn export_is_valid_json_and_time_sorted() {
        let t = Tracer::default();
        t.complete("dagman", "node:b".into(), 0, 2, 5_000_000, 1_000_000);
        t.complete("pool", "stage_in".into(), 0, 1, 1_000_000, 2_000_000);
        t.instant("chaos", "fault".into(), 1, 0, 1_000_000);
        let j = export(&t);
        validate(&j).unwrap();
        // ts=1e6 events come first; the complete span (seq 1) precedes
        // the instant (seq 2) at the same timestamp.
        let stage_in = j.find("stage_in").unwrap();
        let fault = j.find("fault").unwrap();
        let node_b = j.find("node:b").unwrap();
        assert!(stage_in < fault && fault < node_b, "{j}");
        assert!(j.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let j = export(&Tracer::default());
        validate(&j).unwrap();
        assert!(categories(&j).is_empty());
    }

    #[test]
    fn categories_are_deduped_and_sorted() {
        let t = Tracer::default();
        t.instant("pool", "a".into(), 0, 0, 0);
        t.instant("chaos", "b".into(), 0, 0, 1);
        t.instant("pool", "c".into(), 0, 0, 2);
        t.instant("dagman", "d".into(), 0, 0, 3);
        assert_eq!(categories(&export(&t)), vec!["chaos", "dagman", "pool"]);
    }

    #[test]
    fn names_are_escaped() {
        let t = Tracer::default();
        t.instant("pool", "weird\"name".into(), 0, 0, 0);
        let j = export(&t);
        validate(&j).unwrap();
        assert!(j.contains("weird\\\"name"));
    }
}
