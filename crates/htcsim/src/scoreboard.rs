//! Per-machine reliability scoreboard: the pool-side half of the
//! self-healing defenses.
//!
//! Real OSPool users defend against "black hole" machines (nodes that
//! match fast and kill everything they run) by tracking per-machine job
//! history (`JobMachineAttrs`) and steering rematches away from repeat
//! offenders. This module reproduces that loop deterministically: every
//! execution outcome is recorded into a fast-failure EWMA per machine;
//! machines over the deprioritization threshold sort to the back of the
//! matchmaking order, and machines with enough *consecutive* fast
//! failures are blacklisted outright for a timed parole window. A
//! paroled machine that proves itself with one successful execution is
//! fully trusted again; one that fast-fails on parole goes straight back
//! on the blacklist.
//!
//! The scoreboard also owns the single black-hole *injection* site:
//! [`Scoreboard::black_hole_kills`] is the only place the simulator asks
//! the fault plan whether a machine eats jobs, so injection and defense
//! share one code path. The defense itself never reads the plan — it
//! observes failures exactly as a real negotiator would.

use std::collections::BTreeMap;

use crate::fault::FaultPlan;
use crate::pool::MachineId;

/// EWMA smoothing factor in `(0, 1]`; higher weights recent outcomes
/// more.
pub const EWMA_ALPHA: f64 = 0.4;

/// An execution failure at or under this many seconds counts as a
/// *fast* failure (the black-hole signature).
pub const FAST_FAIL_S: f64 = 60.0;

/// Machines with a fast-failure EWMA at or above this are matched only
/// when no cleaner machine fits.
pub const DEPRIORITIZE_THRESHOLD: f64 = 0.5;

/// Consecutive fast failures that trigger a blacklist.
pub const BLACKLIST_AFTER: u32 = 2;

/// Seconds a blacklisted machine sits out before parole.
pub const PAROLE_S: f64 = 1800.0;

/// Seconds a checksum-held job waits before automatic release (a
/// re-fetch retry, much shorter than an operator-scale hold).
pub const CHECKSUM_REQUEUE_S: u64 = 30;

/// Switches for the pool-side defenses. Both default to *off* so a
/// default cluster behaves exactly as before this layer existed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DefenseConfig {
    /// Master switch for the reliability scoreboard (deprioritization +
    /// blacklist/parole).
    pub scoreboard_enabled: bool,
    /// Master switch for verify-on-read transfer checksums.
    pub checksum_enabled: bool,
}

impl DefenseConfig {
    /// True when any defense is switched on.
    pub fn any_enabled(&self) -> bool {
        self.scoreboard_enabled || self.checksum_enabled
    }
}

/// Trust state of one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trust {
    /// Normal standing (may still be deprioritized by EWMA).
    Trusted,
    /// Removed from matchmaking until the stored sim-time.
    Blacklisted { until: f64 },
    /// Served the blacklist term; one success restores trust, one fast
    /// failure re-blacklists.
    Parole,
}

#[derive(Debug, Clone, Copy)]
struct MachineScore {
    /// EWMA of the fast-failure indicator (1 = every recent exec was a
    /// fast failure).
    ewma: f64,
    /// Current run of consecutive fast failures.
    consecutive_fast: u32,
    trust: Trust,
}

impl Default for MachineScore {
    fn default() -> Self {
        MachineScore {
            ewma: 0.0,
            consecutive_fast: 0,
            trust: Trust::Trusted,
        }
    }
}

/// Running totals of defense actions, for `RunReport` and telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefenseStats {
    /// Machines placed on the blacklist (re-blacklists count again).
    pub blacklists: u64,
    /// Blacklist terms that expired into parole.
    pub paroles: u64,
    /// Corrupted cache entries detected and quarantined.
    pub quarantines: u64,
}

/// The per-machine reliability scoreboard.
#[derive(Debug, Clone, Default)]
pub struct Scoreboard {
    cfg: DefenseConfig,
    // BTreeMap: iterated when splitting the match order, so ordering
    // must be deterministic.
    scores: BTreeMap<u64, MachineScore>,
    stats: DefenseStats,
}

impl Scoreboard {
    /// Build a scoreboard for a defense configuration.
    pub fn new(cfg: DefenseConfig) -> Self {
        Scoreboard {
            cfg,
            ..Default::default()
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &DefenseConfig {
        &self.cfg
    }

    /// Defense action totals so far.
    pub fn stats(&self) -> DefenseStats {
        self.stats
    }

    /// Count one quarantined cache entry (recorded here so every defense
    /// total lives on the scoreboard).
    pub fn record_quarantine(&mut self) {
        self.stats.quarantines += 1;
    }

    /// The single black-hole injection site: does `machine` kill the jobs
    /// it runs? Delegates to the fault plan; the defense half of the
    /// scoreboard never consults this, it only observes outcomes.
    pub fn black_hole_kills(&self, plan: &FaultPlan, machine: MachineId) -> bool {
        plan.is_black_hole(machine.0)
    }

    /// Record the outcome of one execution attempt on `machine`:
    /// `failed` with `exec_secs` at or under the fast-fail threshold is
    /// the black-hole signature. A new blacklisting shows up as a bump
    /// in [`Scoreboard::stats`].
    pub fn record_exec(&mut self, machine: MachineId, now_s: f64, exec_secs: f64, failed: bool) {
        if !self.cfg.scoreboard_enabled {
            return;
        }
        let fast_fail = failed && exec_secs <= FAST_FAIL_S;
        let entry = self.scores.entry(machine.0).or_default();
        entry.ewma =
            EWMA_ALPHA * if fast_fail { 1.0 } else { 0.0 } + (1.0 - EWMA_ALPHA) * entry.ewma;
        if fast_fail {
            entry.consecutive_fast += 1;
        } else {
            entry.consecutive_fast = 0;
            if !failed && entry.trust == Trust::Parole {
                // Parole served cleanly: fully trusted again.
                entry.trust = Trust::Trusted;
            }
        }
        let relapse = fast_fail && entry.trust == Trust::Parole;
        let threshold_hit = entry.consecutive_fast >= BLACKLIST_AFTER
            && !matches!(entry.trust, Trust::Blacklisted { .. });
        if relapse || threshold_hit {
            entry.trust = Trust::Blacklisted {
                until: now_s + PAROLE_S,
            };
            self.stats.blacklists += 1;
        }
    }

    /// True when the machine is deprioritized: matched only after every
    /// machine in good standing.
    fn suspect(score: &MachineScore) -> bool {
        score.trust == Trust::Parole || score.ewma >= DEPRIORITIZE_THRESHOLD
    }

    /// Filter and order candidate machines for one negotiation cycle.
    ///
    /// Expired blacklist terms transition to parole here (time advances
    /// only at negotiation). Still-blacklisted machines are dropped;
    /// machines in good standing keep their relative order, followed by
    /// the suspect tier (paroled or EWMA over threshold) in theirs.
    /// Returns the split point: entries `[0, split)` are the good tier.
    pub fn admit<T>(
        &mut self,
        now_s: f64,
        slots: Vec<T>,
        id_of: impl Fn(&T) -> MachineId,
    ) -> (Vec<T>, usize) {
        if !self.cfg.scoreboard_enabled {
            let n = slots.len();
            return (slots, n);
        }
        let mut good = Vec::with_capacity(slots.len());
        let mut suspect = Vec::new();
        for entry in slots {
            match self.scores.get_mut(&id_of(&entry).0) {
                Some(score) => {
                    if let Trust::Blacklisted { until } = score.trust {
                        if now_s < until {
                            continue;
                        }
                        score.trust = Trust::Parole;
                        self.stats.paroles += 1;
                    }
                    if Self::suspect(score) {
                        suspect.push(entry);
                    } else {
                        good.push(entry);
                    }
                }
                None => good.push(entry),
            }
        }
        let split = good.len();
        good.extend(suspect);
        (good, split)
    }

    /// Settle trust state at a point in time without a negotiation
    /// cycle: blacklist terms that have expired by `now_s` transition to
    /// parole (counted in [`Scoreboard::stats`]).
    ///
    /// Called at end of run so final metrics don't report a machine as
    /// still blacklisted when its parole timer elapsed — parole
    /// otherwise only happens when [`Scoreboard::admit`] sees the
    /// machine, and a machine blacklisted right at campaign end never
    /// is.
    pub fn reckon(&mut self, now_s: f64) {
        if !self.cfg.scoreboard_enabled {
            return;
        }
        for score in self.scores.values_mut() {
            if let Trust::Blacklisted { until } = score.trust {
                if now_s >= until {
                    score.trust = Trust::Parole;
                    self.stats.paroles += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;

    fn on() -> DefenseConfig {
        DefenseConfig {
            scoreboard_enabled: true,
            ..Default::default()
        }
    }

    fn slots(ids: &[u64]) -> Vec<(MachineId, ())> {
        ids.iter().map(|&i| (MachineId(i), ())).collect()
    }

    fn ids(v: &[(MachineId, ())]) -> Vec<u64> {
        v.iter().map(|(m, _)| m.0).collect()
    }

    #[test]
    fn disabled_scoreboard_is_inert() {
        let mut sb = Scoreboard::new(DefenseConfig::default());
        for _ in 0..10 {
            sb.record_exec(MachineId(1), 0.0, 5.0, true);
        }
        let (admitted, split) = sb.admit(1e6, slots(&[1, 2, 3]), |e| e.0);
        assert_eq!(ids(&admitted), vec![1, 2, 3]);
        assert_eq!(split, 3);
        assert_eq!(sb.stats(), DefenseStats::default());
    }

    #[test]
    fn consecutive_fast_failures_blacklist_then_parole() {
        let mut sb = Scoreboard::new(on());
        sb.record_exec(MachineId(7), 100.0, 30.0, true);
        sb.record_exec(MachineId(7), 200.0, 30.0, true);
        assert_eq!(sb.stats().blacklists, 1);
        // Inside the term: machine filtered out.
        let (admitted, split) = sb.admit(300.0, slots(&[5, 7]), |e| e.0);
        assert_eq!(ids(&admitted), vec![5]);
        assert_eq!(split, 1);
        // After the term: paroled, admitted in the suspect tier.
        let (admitted, split) = sb.admit(200.0 + 1801.0, slots(&[5, 7]), |e| e.0);
        assert_eq!(ids(&admitted), vec![5, 7]);
        assert_eq!(split, 1);
        assert_eq!(sb.stats().paroles, 1);
    }

    #[test]
    fn parole_success_restores_trust_and_relapse_reblacklists() {
        let mut sb = Scoreboard::new(on());
        for t in [0.0, 10.0] {
            sb.record_exec(MachineId(1), t, 5.0, true);
            sb.record_exec(MachineId(2), t, 5.0, true);
        }
        assert_eq!(sb.stats().blacklists, 2);
        let (_, _) = sb.admit(10.0 + 2000.0, slots(&[1, 2]), |e| e.0);
        assert_eq!(sb.stats().paroles, 2);
        // Machine 1 redeems itself; machine 2 relapses.
        sb.record_exec(MachineId(1), 3000.0, 300.0, false);
        sb.record_exec(MachineId(2), 3000.0, 5.0, true);
        assert_eq!(sb.stats().blacklists, 3, "relapse re-blacklists");
        let (admitted, _) = sb.admit(3100.0, slots(&[1, 2]), |e| e.0);
        assert_eq!(ids(&admitted), vec![1], "machine 2 is back inside");
        // Redeemed machine 1 may still sit in the suspect tier until its
        // EWMA decays below the threshold.
        let mut m1_good = false;
        for t in 0..10 {
            sb.record_exec(MachineId(1), 3200.0 + t as f64, 300.0, false);
            let (adm, split) = sb.admit(4000.0, slots(&[1]), |e| e.0);
            m1_good = ids(&adm) == vec![1] && split == 1;
            if m1_good {
                break;
            }
        }
        assert!(m1_good, "successes must decay the EWMA back to trusted");
    }

    #[test]
    fn ewma_deprioritizes_without_blacklisting() {
        // A success between the two fast failures resets the consecutive
        // count, so only the EWMA (0.4, 0.24, then 0.544) can act.
        let mut sb = Scoreboard::new(on());
        sb.record_exec(MachineId(9), 0.0, 5.0, true);
        sb.record_exec(MachineId(9), 1.0, 300.0, false);
        sb.record_exec(MachineId(9), 2.0, 5.0, true);
        assert_eq!(sb.stats().blacklists, 0);
        let (admitted, split) = sb.admit(10.0, slots(&[9, 4]), |e| e.0);
        assert_eq!(ids(&admitted), vec![4, 9], "offender sorts to the back");
        assert_eq!(split, 1);
    }

    #[test]
    fn slow_failures_are_not_fast_failures() {
        let mut sb = Scoreboard::new(on());
        for t in 0..10 {
            sb.record_exec(MachineId(3), t as f64, 500.0, true);
        }
        assert_eq!(sb.stats().blacklists, 0);
        let (_, split) = sb.admit(100.0, slots(&[3]), |e| e.0);
        assert_eq!(split, 1, "slow failures never deprioritize");
    }

    #[test]
    fn reckon_paroles_expired_blacklists_without_a_negotiation() {
        // Regression: a machine blacklisted right at campaign end used to
        // stay "blacklisted" in final metrics forever, because parole only
        // happened inside admit() and no further negotiation ran.
        let mut sb = Scoreboard::new(on());
        sb.record_exec(MachineId(7), 100.0, 30.0, true);
        sb.record_exec(MachineId(7), 200.0, 30.0, true);
        assert_eq!(sb.stats().blacklists, 1);
        assert_eq!(sb.stats().paroles, 0);
        // Before the term elapses reckon() changes nothing.
        sb.reckon(300.0);
        assert_eq!(sb.stats().paroles, 0);
        // After the term it settles the machine into parole.
        sb.reckon(200.0 + 1801.0);
        assert_eq!(sb.stats().paroles, 1);
        // Idempotent: a second settle does not double-count.
        sb.reckon(1e9);
        assert_eq!(sb.stats().paroles, 1);
        // A disabled scoreboard stays inert.
        let mut off = Scoreboard::new(DefenseConfig::default());
        off.reckon(1e9);
        assert_eq!(off.stats(), DefenseStats::default());
    }

    #[test]
    fn injection_site_delegates_to_the_plan() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 42,
            black_hole_fraction: 1.0,
            ..Default::default()
        });
        let sb = Scoreboard::new(DefenseConfig::default());
        assert!(sb.black_hole_kills(&plan, MachineId(7)));
        let clean = FaultPlan::new(FaultConfig::default());
        assert!(!sb.black_hole_kills(&clean, MachineId(7)));
    }
}
