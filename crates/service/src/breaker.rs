//! Per-tenant circuit breakers.
//!
//! A tenant whose campaigns keep failing (bad configuration, a poisoned
//! input, a broken submission script) burns shared slots on work that
//! produces nothing. After `threshold` *consecutive* failures the
//! tenant's breaker opens and its arrivals are rejected with
//! [`htcsim::service::RejectReason::CircuitOpen`] until a cool-down
//! elapses; the first campaign after the cool-down probes the tenant —
//! success closes the breaker, another failure re-opens it for a fresh
//! cool-down. Unlike the federation's pool breaker, which ignores
//! outcomes until its half-open probe, a completion that lands while the
//! breaker is open acts at once: a success closes it and a failure
//! re-opens it.

use htcsim::time::SimTime;

/// Breaker state for one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantBreaker {
    consecutive_failures: u32,
    open_until: Option<SimTime>,
    /// Times the breaker opened (telemetry).
    pub opens: u64,
}

impl TenantBreaker {
    /// A closed breaker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Is the breaker rejecting arrivals at `now`? (`threshold` of zero
    /// disables breakers entirely.)
    pub fn is_open(&self, now: SimTime, threshold: u32) -> bool {
        threshold > 0 && self.open_until.is_some_and(|t| now < t)
    }

    /// Record a campaign completion for this tenant. A success closes
    /// the breaker and resets the failure run; a failure extends the
    /// run and opens the breaker for `probe_s` once it reaches
    /// `threshold`. Returns `true` if this call opened the breaker.
    pub fn record(&mut self, now: SimTime, ok: bool, threshold: u32, probe_s: u64) -> bool {
        if ok {
            self.consecutive_failures = 0;
            self.open_until = None;
            return false;
        }
        self.consecutive_failures += 1;
        if threshold > 0 && self.consecutive_failures >= threshold {
            self.open_until = Some(now + probe_s);
            // Re-arm: the next failure after the cool-down re-opens
            // immediately (the probe protocol), rather than needing a
            // fresh run of `threshold` failures.
            self.consecutive_failures = threshold;
            self.opens += 1;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let mut b = TenantBreaker::new();
        assert!(!b.record(SimTime(10), false, 3, 100));
        assert!(!b.record(SimTime(20), false, 3, 100));
        assert!(!b.is_open(SimTime(25), 3));
        assert!(b.record(SimTime(30), false, 3, 100));
        assert!(b.is_open(SimTime(30), 3));
        assert!(b.is_open(SimTime(129), 3));
        assert!(!b.is_open(SimTime(130), 3), "cool-down elapsed");
        assert_eq!(b.opens, 1);
    }

    #[test]
    fn success_resets_the_failure_run() {
        let mut b = TenantBreaker::new();
        b.record(SimTime(1), false, 3, 100);
        b.record(SimTime(2), false, 3, 100);
        b.record(SimTime(3), true, 3, 100);
        assert!(!b.record(SimTime(4), false, 3, 100));
        assert!(!b.record(SimTime(5), false, 3, 100));
        assert!(b.record(SimTime(6), false, 3, 100), "fresh run of 3");
    }

    #[test]
    fn probe_failure_reopens_immediately() {
        let mut b = TenantBreaker::new();
        for t in 0..3 {
            b.record(SimTime(t), false, 3, 100);
        }
        assert!(b.is_open(SimTime(50), 3));
        // Cool-down passes; the probe campaign fails → re-open at once.
        assert!(b.record(SimTime(200), false, 3, 100));
        assert!(b.is_open(SimTime(250), 3));
        assert_eq!(b.opens, 2);
        // A successful probe closes it fully.
        b.record(SimTime(400), true, 3, 100);
        assert!(!b.is_open(SimTime(400), 3));
    }

    #[test]
    fn zero_threshold_disables() {
        let mut b = TenantBreaker::new();
        for t in 0..10 {
            assert!(!b.record(SimTime(t), false, 0, 100));
        }
        assert!(!b.is_open(SimTime(5), 0));
    }
}
