//! # fdw-obs — the observability layer of the FDW reproduction suite
//!
//! The paper's evaluation (§5–§6) is entirely about *measured* behaviour —
//! wait times, JPM throughput, goodput/badput, cache hit rates — so the
//! suite carries a first-class telemetry substrate instead of ad-hoc
//! accumulators scattered through the bench binaries:
//!
//! * [`metrics`] — a thread-safe [`metrics::MetricsRegistry`] of counters,
//!   gauges and fixed-bucket histograms supporting merge and quantile
//!   queries;
//! * [`trace`] — a span/instant-event tracer stamped with **simulation
//!   time** (seconds from `htcsim::time::SimTime`), never the wall clock,
//!   so identical seeds export byte-identical traces;
//! * [`chrome`] — the Chrome trace-event JSON exporter
//!   (`chrome://tracing`-loadable);
//! * [`dag_metrics`] — the HTCondor-DAGMan-style `*.dag.metrics` JSON
//!   file (node counts, per-attempt goodput/badput, hold/release totals)
//!   written alongside rescue files;
//! * [`json`] — the tiny escape/validate helpers the exporters and the CI
//!   smoke stage share;
//! * [`digest`] — the one FNV-1a content digest every byte-identity
//!   check in the workspace folds through.
//!
//! Everything funnels through an [`Obs`] handle: a cheap clonable value
//! that is a no-op when disabled, so instrumented code pays nothing on
//! the default path. The crate is dependency-free by design — `htcsim`,
//! `dagman` and `fdw-core` all sit *above* it, passing plain `u64`
//! simulation seconds down.
//!
//! ```
//! use fdw_obs::Obs;
//!
//! let obs = Obs::enabled();
//! obs.inc("pool.negotiation_cycles", 1);
//! obs.span("pool", "stage_in", 7, 10, 25); // tid 7, sim-seconds 10..25
//! assert_eq!(obs.counter("pool.negotiation_cycles"), 1);
//! assert!(fdw_obs::json::validate(&obs.chrome_trace()).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod dag_metrics;
pub mod digest;
pub mod json;
pub mod metrics;
pub mod trace;

use std::fmt::Display;
use std::sync::Arc;

use metrics::{HistStats, Histogram, MetricsRegistry};
use trace::Tracer;

/// The shared telemetry sink an [`Obs`] handle points at.
#[derive(Debug, Default)]
pub struct ObsSink {
    /// Span/instant-event collector.
    pub tracer: Tracer,
    /// Counter/gauge/histogram registry.
    pub registry: MetricsRegistry,
}

/// A cheap, clonable handle to a telemetry sink.
///
/// Handles are passed by value through the stack (cluster, DAGMan,
/// workflow, chaos). A disabled handle makes every record call a no-op;
/// [`Obs::scoped`] re-targets a handle at a different trace process lane
/// (`pid`) and time base without copying collected data, which is how
/// chaos rounds and matrix cells stay disjoint in one exported trace.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    sink: Option<Arc<ObsSink>>,
    trace_on: bool,
    pid: u32,
    base_s: u64,
}

impl Obs {
    /// A no-op handle: every record call returns immediately.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A fresh sink collecting both metrics and trace events.
    pub fn enabled() -> Self {
        Self {
            sink: Some(Arc::new(ObsSink::default())),
            trace_on: true,
            pid: 0,
            base_s: 0,
        }
    }

    /// A fresh sink collecting metrics only — for large runs where
    /// per-job spans would dominate memory (e.g. 50,000-waveform
    /// replications) but registry totals are still wanted.
    pub fn metrics_only() -> Self {
        Self {
            trace_on: false,
            ..Self::enabled()
        }
    }

    /// True when this handle records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// A handle on the same sink, re-targeted at trace process lane
    /// `pid` with timestamps shifted by `base_s` simulation seconds.
    pub fn scoped(&self, pid: u32, base_s: u64) -> Self {
        Self {
            sink: self.sink.clone(),
            trace_on: self.trace_on,
            pid,
            base_s,
        }
    }

    /// Borrow the sink, if any.
    pub fn sink(&self) -> Option<&ObsSink> {
        self.sink.as_deref()
    }

    /// Add `delta` to counter `name`.
    pub fn inc(&self, name: &str, delta: u64) {
        if let Some(s) = &self.sink {
            s.registry.inc(name, delta);
        }
    }

    /// Current value of counter `name` (0 when absent or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.sink.as_ref().map_or(0, |s| s.registry.counter(name))
    }

    /// Set gauge `name` to `value` (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(s) = &self.sink {
            s.registry.gauge(name, value);
        }
    }

    /// Record `value` into histogram `name` (default bucket bounds).
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(s) = &self.sink {
            s.registry.observe(name, value);
        }
    }

    /// Exact summary statistics of histogram `name`, if it exists.
    pub fn histogram_stats(&self, name: &str) -> Option<HistStats> {
        self.sink
            .as_ref()
            .and_then(|s| s.registry.histogram_stats(name))
    }

    /// Merge a histogram kept outside the registry into histogram `name`
    /// (counts and moments add, as in [`Obs::merge_from`]): how a run
    /// writes its local histograms once, at its end. Panics if `name`
    /// already holds a histogram with other bucket bounds; histograms
    /// built with `Histogram::default()` share the registry's.
    pub fn merge_histogram(&self, name: &str, h: &Histogram) {
        if let Some(s) = &self.sink {
            s.registry
                .merge_histogram(name, h)
                .expect("histograms recorded under one name share their bounds");
        }
    }

    /// Record a completed span: `[start_s, end_s]` in simulation seconds
    /// on track `tid` under category `cat`. The name is rendered only
    /// when tracing is on, so callers pass `format_args!` rather than a
    /// formatted `String`.
    pub fn span(&self, cat: &str, name: impl Display, tid: u64, start_s: u64, end_s: u64) {
        if let Some(s) = &self.sink {
            if self.trace_on {
                let (name, dur) = (name.to_string(), end_s.saturating_sub(start_s));
                s.tracer
                    .complete(cat, name, self.pid, tid, self.us(start_s), dur * 1_000_000);
            }
        }
    }

    /// Record an instant event at `t_s` simulation seconds (the name is
    /// rendered only when tracing is on, as in [`Obs::span`]).
    pub fn instant(&self, cat: &str, name: impl Display, tid: u64, t_s: u64) {
        if let Some(s) = &self.sink {
            if self.trace_on {
                s.tracer
                    .instant(cat, name.to_string(), self.pid, tid, self.us(t_s));
            }
        }
    }

    /// Absorb another handle's sink: trace events are re-homed to
    /// process lane `pid`, registry contents merge (counters and
    /// histograms add, gauges take the maximum).
    pub fn merge_from(&self, other: &Obs, pid: u32) -> Result<(), String> {
        let (Some(dst), Some(src)) = (&self.sink, &other.sink) else {
            return Ok(());
        };
        dst.tracer.absorb(&src.tracer, Some(pid));
        dst.registry.merge(&src.registry)
    }

    /// Export every collected span/instant as Chrome trace-event JSON
    /// (empty-trace document when disabled).
    pub fn chrome_trace(&self) -> String {
        match &self.sink {
            Some(s) => chrome::export(&s.tracer),
            None => chrome::export(&Tracer::default()),
        }
    }

    /// Export the registry as deterministic JSON (sorted keys).
    pub fn registry_json(&self) -> String {
        match &self.sink {
            Some(s) => s.registry.to_json(),
            None => MetricsRegistry::default().to_json(),
        }
    }

    fn us(&self, t_s: u64) -> u64 {
        (self.base_s + t_s) * 1_000_000
    }
}

/// Glob import of the most-used types.
pub mod prelude {
    pub use crate::dag_metrics::DagMetrics;
    pub use crate::metrics::{HistStats, Histogram, MetricsRegistry};
    pub use crate::trace::{TraceEvent, TracePhase, Tracer};
    pub use crate::Obs;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A span name that fails the test if it is ever formatted.
    struct Unformatted;

    impl std::fmt::Display for Unformatted {
        fn fmt(&self, _: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            panic!("span name formatted with tracing off");
        }
    }

    #[test]
    fn disabled_handle_is_a_cheap_no_op() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.inc("x", 5);
        obs.gauge("g", 1.0);
        obs.observe("h", 2.0);
        obs.span("pool", Unformatted, 0, 0, 10);
        obs.instant("pool", Unformatted, 0, 3);
        assert_eq!(obs.counter("x"), 0);
        assert!(obs.histogram_stats("h").is_none());
        assert!(json::validate(&obs.chrome_trace()).is_ok());
        assert!(json::validate(&obs.registry_json()).is_ok());
    }

    #[test]
    fn scoped_handles_share_one_sink() {
        let obs = Obs::enabled();
        let shifted = obs.scoped(3, 100);
        shifted.inc("c", 2);
        obs.inc("c", 1);
        assert_eq!(obs.counter("c"), 3);
        shifted.span("chaos", "round", 1, 0, 5);
        let trace = obs.chrome_trace();
        // Base offset shifts the span to 100 s; pid is the scope's lane.
        assert!(trace.contains("\"ts\":100000000"), "{trace}");
        assert!(trace.contains("\"pid\":3"), "{trace}");
    }

    #[test]
    fn metrics_only_drops_spans_but_keeps_counters() {
        let obs = Obs::metrics_only();
        obs.span("pool", Unformatted, 0, 0, 10);
        obs.instant("pool", Unformatted, 0, 3);
        obs.inc("c", 1);
        assert_eq!(obs.counter("c"), 1);
        assert!(!obs.chrome_trace().contains("\"name\""));
    }

    #[test]
    fn merge_from_rehomes_and_adds() {
        let master = Obs::enabled();
        let cell = Obs::enabled();
        cell.inc("chaos.rounds", 2);
        cell.span("chaos", "round", 0, 0, 9);
        master.merge_from(&cell, 7).unwrap();
        assert_eq!(master.counter("chaos.rounds"), 2);
        assert!(master.chrome_trace().contains("\"pid\":7"));
        // Merging through disabled handles is a silent no-op.
        Obs::disabled().merge_from(&cell, 1).unwrap();
        master.merge_from(&Obs::disabled(), 1).unwrap();
    }
}
