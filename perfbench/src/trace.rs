//! In-memory span recorder for the traced run.
//!
//! Spans are opened around calls into a layer's public functions from the
//! benchmark's own code. Each records its name, the id of the unit of work
//! it belongs to (a job, a grid point, a (seed, level) run or a replay), its
//! start, its duration and its parent. Callbacks too short and too frequent
//! to record one by one (the DAGMan driver's) go into one aggregate span per
//! parent whose duration is the sum of the calls. A layer's self time is its
//! spans' durations minus their direct children's.
//!
//! A disabled tracer records nothing and reads no clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    /// Layer name, `crate.module[.part]`.
    name: &'static str,
    /// Unit of work the span belongs to.
    id: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    start_ns: u64,
    /// Duration in nanoseconds (summed over calls for an aggregate).
    dur_ns: u64,
    /// Calls covered: 1 for a plain span, the call count for an aggregate.
    calls: u64,
}

/// Time and calls attributed to one layer name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Sum of span durations, seconds.
    pub total_s: f64,
    /// Sum of span durations minus their direct children's, seconds.
    pub self_s: f64,
    /// Calls covered.
    pub calls: u64,
}

/// Span and counter recorder. Single-threaded by design: spans are opened
/// only by the benchmark's own (sequential) code.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    counts: RefCell<BTreeMap<String, f64>>,
}

/// Closes its span when dropped, so a panicking call still leaves the
/// span stack balanced.
struct SpanGuard<'a> {
    tracer: &'a Tracer,
    idx: usize,
    t0: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let dur = self.t0.elapsed().as_nanos() as u64;
        self.tracer.spans.borrow_mut()[self.idx].dur_ns = dur;
        self.tracer.open.borrow_mut().pop();
    }
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            counts: RefCell::new(BTreeMap::new()),
        }
    }

    /// True when recording.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn push(&self, name: &'static str, id: u64, calls: u64) -> usize {
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            id,
            parent,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
            calls,
        });
        spans.len() - 1
    }

    /// Open a span; it closes when the guard drops. `None` when off.
    fn enter(&self, name: &'static str, id: u64) -> Option<SpanGuard<'_>> {
        if !self.on {
            return None;
        }
        let idx = self.push(name, id, 1);
        self.open.borrow_mut().push(idx);
        Some(SpanGuard {
            tracer: self,
            idx,
            t0: Instant::now(),
        })
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let _guard = self.enter(name, id);
        f()
    }

    /// Create an aggregate span under the currently open span. Calls are
    /// added to it with [`Tracer::accumulate`]. `None` when off.
    pub fn aggregate(&self, name: &'static str, id: u64) -> Option<usize> {
        self.on.then(|| self.push(name, id, 0))
    }

    /// Add one call that started at `t0` and ends now to aggregate `idx`.
    pub fn accumulate(&self, idx: usize, t0: Instant) {
        let dur = t0.elapsed().as_nanos() as u64;
        let mut spans = self.spans.borrow_mut();
        spans[idx].dur_ns += dur;
        spans[idx].calls += 1;
    }

    /// Add `delta` to counter `key`. Counters are kept only when on.
    pub fn count(&self, key: &str, delta: f64) {
        if self.on {
            *self
                .counts
                .borrow_mut()
                .entry(key.to_string())
                .or_insert(0.0) += delta;
        }
    }

    /// Snapshot of the counters.
    pub fn counts(&self) -> BTreeMap<String, f64> {
        self.counts.borrow().clone()
    }

    #[cfg(test)]
    fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Total, self time and calls per layer name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let lt = out.entry(s.name).or_default();
            lt.total_s += s.dur_ns as f64 * 1e-9;
            lt.self_s += s.dur_ns.saturating_sub(child_ns[i]) as f64 * 1e-9;
            lt.calls += s.calls;
        }
        out
    }

    /// The spans as JSON lines: name, id, index, parent, start and end in
    /// nanoseconds, calls.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"span\":{i},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.name,
                s.id,
                s.start_ns,
                s.start_ns + s.dur_ns,
                s.calls
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let tr = Tracer::on();
        tr.span("outer", 1, || {
            tr.span("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let lt = tr.layer_times();
        let outer = lt["outer"];
        let inner = lt["inner"];
        assert!(inner.self_s >= 0.019, "{inner:?}");
        assert!(outer.total_s >= inner.total_s + 0.009, "{outer:?}");
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-9);
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
    }

    #[test]
    fn aggregate_sums_calls_under_the_open_span() {
        let tr = Tracer::on();
        tr.span("outer", 7, || {
            let agg = tr.aggregate("cb", 7).expect("tracer is on");
            for _ in 0..3 {
                tr.accumulate(agg, Instant::now());
            }
        });
        let lt = tr.layer_times();
        assert_eq!(lt["cb"].calls, 3);
        assert_eq!(tr.spans()[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let tr = Tracer::off();
        assert_eq!(tr.span("x", 0, || 5), 5);
        tr.count("k", 1.0);
        assert!(tr.layer_times().is_empty());
        assert!(tr.counts().is_empty());
        assert!(tr.aggregate("cb", 0).is_none());
    }

    #[test]
    fn spans_survive_a_panicking_call() {
        let tr = Tracer::on();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tr.span("boom", 0, || panic!("expected"));
        }));
        assert!(r.is_err());
        tr.span("after", 0, || ());
        assert_eq!(tr.spans()[1].parent, None);
    }
}
