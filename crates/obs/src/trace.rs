//! Span/instant-event collection, stamped with simulation time.
//!
//! Events carry microsecond timestamps derived from `SimTime` seconds
//! (the [`crate::Obs`] handle does the ×1e6 conversion) and a
//! monotonically increasing per-tracer sequence number, so sorting by
//! `(ts_us, seq)` is a total, deterministic order — byte-identical
//! exports for identical seeds fall out of that.

use std::sync::Mutex;

/// Trace-event phase, mapping onto the Chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// A complete span (`ph: "X"`) with an explicit duration.
    Complete,
    /// A point-in-time event (`ph: "i"`).
    Instant,
}

/// One collected trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Category (e.g. `pool`, `dagman`, `phase`, `chaos`).
    pub cat: String,
    /// Event name (e.g. `stage_in`, `node:waveform_003`).
    pub name: String,
    /// Phase kind.
    pub ph: TracePhase,
    /// Start timestamp in microseconds of simulation time.
    pub ts_us: u64,
    /// Duration in microseconds ([`TracePhase::Complete`] only; 0 for
    /// instants).
    pub dur_us: u64,
    /// Process lane (scope: chaos round, matrix cell, …).
    pub pid: u32,
    /// Thread lane (job serial, DAG node id, machine id, …).
    pub tid: u64,
    /// Insertion sequence number; the tiebreaker for equal timestamps.
    pub seq: u64,
}

/// A thread-safe collector of [`TraceEvent`]s.
#[derive(Debug, Default)]
pub struct Tracer {
    events: Mutex<Vec<TraceEvent>>,
}

impl Tracer {
    /// Record a complete span.
    pub fn complete(&self, cat: &str, name: String, pid: u32, tid: u64, ts_us: u64, dur_us: u64) {
        self.push(cat, name, TracePhase::Complete, pid, tid, ts_us, dur_us);
    }

    /// Record an instant event.
    pub fn instant(&self, cat: &str, name: String, pid: u32, tid: u64, ts_us: u64) {
        self.push(cat, name, TracePhase::Instant, pid, tid, ts_us, 0);
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &self,
        cat: &str,
        name: String,
        ph: TracePhase,
        pid: u32,
        tid: u64,
        ts_us: u64,
        dur_us: u64,
    ) {
        let mut g = self.events.lock().expect("tracer lock");
        let seq = g.len() as u64;
        g.push(TraceEvent {
            cat: cat.to_string(),
            name,
            ph,
            ts_us,
            dur_us,
            pid,
            tid,
            seq,
        });
    }

    /// Append every event from `other`, renumbering sequence ids after
    /// this tracer's own and (optionally) overriding the process lane.
    /// Used to fold per-cell chaos-matrix sinks into one master trace.
    pub fn absorb(&self, other: &Tracer, pid_override: Option<u32>) {
        let theirs = other.events.lock().expect("tracer lock").clone();
        let mut g = self.events.lock().expect("tracer lock");
        for mut ev in theirs {
            ev.seq = g.len() as u64;
            if let Some(pid) = pid_override {
                ev.pid = pid;
            }
            g.push(ev);
        }
    }

    /// Snapshot of collected events in insertion order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("tracer lock").clone()
    }

    /// Number of collected events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("tracer lock").len()
    }

    /// True when nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_sequenced_in_insertion_order() {
        let t = Tracer::default();
        t.complete("pool", "a".into(), 0, 1, 100, 50);
        t.instant("pool", "b".into(), 0, 1, 100);
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[1].seq, 1);
        assert_eq!(evs[0].ph, TracePhase::Complete);
        assert_eq!(evs[1].ph, TracePhase::Instant);
        assert_eq!(evs[1].dur_us, 0);
    }

    #[test]
    fn absorb_renumbers_and_rehomes() {
        let a = Tracer::default();
        let b = Tracer::default();
        a.complete("x", "first".into(), 0, 0, 0, 1);
        b.complete("y", "second".into(), 5, 0, 0, 1);
        b.instant("y", "third".into(), 5, 0, 2);
        a.absorb(&b, Some(9));
        let evs = a.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[1].seq, 1);
        assert_eq!(evs[2].seq, 2);
        assert_eq!(evs[1].pid, 9);
        assert_eq!(evs[2].pid, 9);
        // Source tracer is untouched.
        assert_eq!(b.len(), 2);
    }
}
