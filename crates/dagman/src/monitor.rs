//! DAGMan monitoring: the statistics the paper's shell scripts extract by
//! parsing HTCondor log files — per-DAGMan runtimes, total and instant
//! throughput, per-job wait/execution time distributions, and running-job
//! footprints (the quantities plotted in Figs. 2–4).

use std::collections::{HashMap, HashSet};

use htcsim::cluster::RunReport;
use htcsim::federation::FederationStats;
use htcsim::job::{JobEvent, JobEventKind, JobId, OwnerId};
use htcsim::scoreboard::DefenseStats;
use htcsim::time::SimTime;
use htcsim::userlog::{JobTimes, UserLog};

/// Summary statistics of one DAGMan's run.
#[derive(Debug, Clone)]
pub struct DagmanStats {
    /// Owner (DAGMan) these stats describe.
    pub owner: OwnerId,
    /// Jobs completed.
    pub completed: usize,
    /// First submission time.
    pub started: SimTime,
    /// Last completion time.
    pub finished: SimTime,
    /// Per-job wait times in seconds (submission → final execute start).
    pub wait_secs: Vec<u64>,
    /// Per-job execution times in seconds, keyed like `wait_secs`.
    pub exec_secs: Vec<u64>,
    /// Wait times of jobs whose name starts with `waveform` (the paper
    /// reports those separately in §5.2.3).
    pub waveform_wait_secs: Vec<u64>,
    /// Execution times of `waveform.*` jobs.
    pub waveform_exec_secs: Vec<u64>,
    /// Execution times of `rupture.*` jobs.
    pub rupture_exec_secs: Vec<u64>,
    /// Execution seconds that ended in a completion (useful work).
    pub goodput_secs: u64,
    /// Execution seconds lost to evictions, failures, and holds.
    pub badput_secs: u64,
    /// Hold events observed for this owner's jobs.
    pub holds: u64,
    /// Release events observed for this owner's jobs. Held-then-released
    /// attempts contribute badput exactly once (at the hold); the release
    /// only moves this tally, which is how the reconciliation tests pin
    /// the no-double-count invariant.
    pub releases: u64,
    /// Execution attempts that ended with a non-zero exit.
    pub failed_attempts: u64,
}

impl DagmanStats {
    /// Total runtime in seconds (first submit → last completion).
    pub fn runtime_secs(&self) -> u64 {
        self.finished.since(self.started)
    }

    /// Total runtime in hours.
    pub fn runtime_hours(&self) -> f64 {
        self.runtime_secs() as f64 / 3600.0
    }

    /// Average total throughput in jobs/minute: `j / r` (paper eq. 2's
    /// per-run term).
    pub fn throughput_jpm(&self) -> f64 {
        let mins = self.runtime_secs() as f64 / 60.0;
        if mins <= 0.0 {
            0.0
        } else {
            self.completed as f64 / mins
        }
    }

    /// Mean of a duration list in minutes (None when empty).
    pub fn mean_mins(xs: &[u64]) -> Option<f64> {
        if xs.is_empty() {
            None
        } else {
            Some(xs.iter().sum::<u64>() as f64 / xs.len() as f64 / 60.0)
        }
    }
}

/// Extract per-owner statistics from a cluster run report.
pub fn per_dagman_stats(report: &RunReport) -> Vec<DagmanStats> {
    let times = report.log.job_times();
    let mut by_owner: HashMap<OwnerId, Vec<&JobTimes>> = HashMap::new();
    for jt in &times {
        by_owner.entry(jt.owner).or_default().push(jt);
    }
    // Goodput/badput split per owner: execution intervals ending in a
    // completion are goodput; those cut short by eviction, failure, or a
    // hold are badput. `exec_start.remove` closes each interval exactly
    // once, so a held-then-released attempt is charged a single badput
    // stretch at the hold and nothing at the release.
    let mut chaos: HashMap<OwnerId, (u64, u64, u64, u64, u64)> = HashMap::new();
    let mut exec_start: HashMap<JobId, SimTime> = HashMap::new();
    // First finisher wins a speculated node: a later completion under the
    // same job name is duplicate work, charged to badput so speculative
    // copies never double-count as goodput.
    let mut completed_names: HashSet<(OwnerId, String)> = HashSet::new();
    for e in report.log.events() {
        let ent = chaos.entry(e.owner).or_default();
        match e.kind {
            JobEventKind::ExecuteStarted => {
                exec_start.insert(e.job, e.time);
            }
            JobEventKind::Completed => {
                let name = report.job_names.get(&e.job).cloned().unwrap_or_default();
                let first = completed_names.insert((e.owner, name));
                if let Some(s) = exec_start.remove(&e.job) {
                    if first {
                        ent.0 += e.time.since(s);
                    } else {
                        ent.1 += e.time.since(s);
                    }
                }
            }
            kind if kind.ends_execution() => {
                if let Some(s) = exec_start.remove(&e.job) {
                    ent.1 += e.time.since(s);
                }
                if e.kind == JobEventKind::Held {
                    ent.2 += 1;
                }
                if e.kind == JobEventKind::Failed {
                    ent.3 += 1;
                }
            }
            JobEventKind::Released => {
                ent.4 += 1;
            }
            _ => {}
        }
    }
    // Winner per job name: earliest completion, ties to the lower job id
    // (the primary copy). Only the winner contributes to job-level stats.
    let mut winner: HashMap<(OwnerId, String), (SimTime, JobId)> = HashMap::new();
    for jt in &times {
        let Some(c) = jt.completed else {
            continue;
        };
        let name = report.job_names.get(&jt.job).cloned().unwrap_or_default();
        let e = winner.entry((jt.owner, name)).or_insert((c, jt.job));
        if c < e.0 || (c == e.0 && jt.job < e.1) {
            *e = (c, jt.job);
        }
    }
    let mut owners: Vec<OwnerId> = by_owner.keys().copied().collect();
    owners.sort();
    owners
        .into_iter()
        .map(|owner| {
            let jts = &by_owner[&owner];
            let name_of = |j: JobId| report.job_names.get(&j).cloned().unwrap_or_default();
            let (goodput_secs, badput_secs, holds, failed_attempts, releases) =
                chaos.get(&owner).copied().unwrap_or_default();
            let mut stats = DagmanStats {
                owner,
                completed: 0,
                started: jts
                    .iter()
                    .map(|j| j.submitted)
                    .min()
                    .unwrap_or(SimTime::ZERO),
                finished: SimTime::ZERO,
                wait_secs: Vec::new(),
                exec_secs: Vec::new(),
                waveform_wait_secs: Vec::new(),
                waveform_exec_secs: Vec::new(),
                rupture_exec_secs: Vec::new(),
                goodput_secs,
                badput_secs,
                holds,
                releases,
                failed_attempts,
            };
            for jt in jts {
                let Some(completed) = jt.completed else {
                    continue;
                };
                let name = name_of(jt.job);
                if winner.get(&(owner, name.clone())).map(|w| w.1) != Some(jt.job) {
                    // The slower copy of a speculated node: duplicate
                    // work, not a second completion.
                    continue;
                }
                stats.completed += 1;
                stats.finished = stats.finished.max(completed);
                if let (Some(w), Some(e)) = (jt.wait_secs(), jt.exec_secs()) {
                    stats.wait_secs.push(w);
                    stats.exec_secs.push(e);
                    if name.starts_with("waveform") {
                        stats.waveform_wait_secs.push(w);
                        stats.waveform_exec_secs.push(e);
                    } else if name.starts_with("rupture") {
                        stats.rupture_exec_secs.push(e);
                    }
                }
            }
            stats
        })
        .collect()
}

/// One owner's events re-based to that owner's first event, or `None`
/// when the owner has none.
fn owner_log(report: &RunReport, owner: OwnerId) -> Option<UserLog> {
    let events = report.log.events().iter().filter(|e| e.owner == owner);
    let start = events.clone().map(|e| e.time).min()?;
    let mut log = UserLog::new();
    for e in events {
        log.record(JobEvent {
            time: SimTime(e.time.since(start)),
            ..*e
        });
    }
    Some(log)
}

/// Per-second instant throughput (eq. 5) of one owner's jobs, measured
/// from that owner's first submission.
pub fn instant_throughput_for(report: &RunReport, owner: OwnerId) -> Vec<f64> {
    owner_log(report, owner).map_or_else(Vec::new, |log| log.instant_throughput_series())
}

/// Per-second running-job count of one owner's jobs, measured from that
/// owner's first submission.
pub fn running_for(report: &RunReport, owner: OwnerId) -> Vec<u32> {
    owner_log(report, owner).map_or_else(Vec::new, |log| log.running_series())
}

/// Build the `.dag.metrics` document for one DAGMan from its driver
/// state and monitor statistics — the single place where driver
/// accessors, log-derived stats, and the exported file are forced to
/// agree (the reconciliation tests pin all three against the registry).
pub fn dag_metrics(
    dm: &crate::driver::Dagman,
    stats: &DagmanStats,
    rescue_dag_number: u32,
    defense: DefenseStats,
    federation: FederationStats,
) -> fdw_obs::dag_metrics::DagMetrics {
    debug_assert_eq!(stats.owner, dm.owner(), "stats/driver owner mismatch");
    fdw_obs::dag_metrics::DagMetrics {
        client: "fdw-sim".to_string(),
        version: env!("CARGO_PKG_VERSION").to_string(),
        rescue_dag_number,
        start_time_s: stats.started.as_secs(),
        end_time_s: stats.finished.as_secs(),
        nodes_total: dm.dag().len() as u64,
        nodes_done: dm.completed() as u64,
        nodes_failed: dm.failed() as u64,
        nodes_futile: dm.futile() as u64,
        total_attempts: dm.total_attempts(),
        retries: dm.retries(),
        holds: dm.holds(),
        releases: dm.releases(),
        goodput_s: stats.goodput_secs,
        badput_s: stats.badput_secs,
        exitcode: if dm.aborted() || dm.failed() > 0 {
            1
        } else {
            0
        },
        speculations: dm.speculations(),
        spec_wins: dm.spec_wins(),
        spec_losses: dm.spec_losses(),
        spec_wasted_s: dm.wasted_speculative_seconds().round() as u64,
        machines_blacklisted: defense.blacklists,
        machines_paroled: defense.paroles,
        transfers_quarantined: defense.quarantines,
        pool_outages: federation.outages,
        preemptions: federation.preemptions,
        checkpoints: federation.checkpoints,
        resumes: federation.resumes,
        migrations: federation.migrations,
        partition_stalls: federation.partition_stalls,
        breaker_opens: federation.breaker_opens,
        jobs_drained: federation.drained,
    }
}

/// Write one DAGMan's `dagman.*` tallies to the registry, once, when its
/// cluster run ends (the registry's counterpart of [`dag_metrics`]). An
/// event count appears once it is non-zero, as per-event writes would
/// leave it. Backoff waits and wasted speculation are whole seconds, so
/// merging their histograms sums exactly as observing each would.
pub fn write_metrics(dm: &crate::driver::Dagman, obs: &fdw_obs::Obs) {
    for (name, n) in [
        (
            "dagman.submissions",
            dm.total_attempts() - dm.speculations(),
        ),
        ("dagman.nodes_done", (dm.completed() - dm.rescued) as u64),
        ("dagman.nodes_failed", dm.failed() as u64),
        ("dagman.nodes_futile", dm.futile() as u64),
        ("dagman.retries", dm.retries()),
        ("dagman.holds", dm.holds()),
        ("dagman.releases", dm.releases()),
        ("dagman.aborts", dm.aborts),
        ("dagman.speculations", dm.speculations()),
        ("dagman.spec_wins", dm.spec_wins()),
        ("dagman.spec_losses", dm.spec_losses()),
    ] {
        if n > 0 {
            obs.inc(name, n);
        }
    }
    obs.merge_histogram("dagman.backoff_wait_s", &dm.backoff_wait_s);
    obs.merge_histogram("dagman.spec_wasted_s", &dm.spec_wasted_s);
}

/// Aggregate statistics across replicated runs: mean and population SD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanSd {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub sd: f64,
    /// Minimum observed value.
    pub min: f64,
    /// Maximum observed value.
    pub max: f64,
}

/// Compute mean/SD/min/max of a sample (zeros when empty).
pub fn mean_sd(xs: &[f64]) -> MeanSd {
    if xs.is_empty() {
        return MeanSd {
            mean: 0.0,
            sd: 0.0,
            min: 0.0,
            max: 0.0,
        };
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    MeanSd {
        mean,
        sd: var.sqrt(),
        min: xs.iter().cloned().fold(f64::INFINITY, f64::min),
        max: xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::Dag;
    use crate::driver::{Dagman, MultiDagman};
    use htcsim::cluster::{Cluster, ClusterConfig, WorkloadDriver};
    use htcsim::job::JobSpec;
    use htcsim::pool::PoolConfig;

    fn run_two_dagmans() -> RunReport {
        let mk = || {
            let mut d = Dag::new();
            let r = d.add_node(JobSpec::fixed("rupture.0", 150.0)).unwrap();
            for i in 0..6 {
                let w = d
                    .add_node(JobSpec::fixed(format!("waveform.{i}"), 300.0))
                    .unwrap();
                d.add_edge(r, w).unwrap();
            }
            d
        };
        let mut multi = MultiDagman::new(vec![mk(), mk()]);
        Cluster::new(
            ClusterConfig {
                pool: PoolConfig {
                    target_slots: 16,
                    glidein_slots: 8,
                    avail_mean: 0.9,
                    avail_sigma: 0.05,
                    glidein_lifetime_s: 1e9,
                    ..Default::default()
                },
                ..ClusterConfig::with_cache()
            },
            11,
        )
        .run(&mut multi)
    }

    #[test]
    fn per_dagman_stats_cover_both_owners() {
        let report = run_two_dagmans();
        let stats = per_dagman_stats(&report);
        assert_eq!(stats.len(), 2);
        for s in &stats {
            assert_eq!(s.completed, 7);
            assert!(s.runtime_secs() > 0);
            assert!(s.throughput_jpm() > 0.0);
            assert_eq!(s.wait_secs.len(), 7);
            assert_eq!(s.waveform_exec_secs.len(), 6);
            assert_eq!(s.rupture_exec_secs.len(), 1);
            // Waveform jobs run ~300 s, modulated by machine speed (σ=0.15
            // lognormal) plus stage-out overhead.
            let mean_exec = DagmanStats::mean_mins(&s.waveform_exec_secs).unwrap();
            assert!((3.2..9.0).contains(&mean_exec), "exec {mean_exec} min");
        }
    }

    #[test]
    fn instant_throughput_series_ends_at_total() {
        let report = run_two_dagmans();
        let stats = per_dagman_stats(&report);
        let s0 = &stats[0];
        let series = instant_throughput_for(&report, s0.owner);
        assert!(!series.is_empty());
        let last = *series.last().unwrap();
        let expected = s0.completed as f64 / (series.len() as f64 - 1.0).max(1.0) * 60.0;
        assert!(
            (last - expected).abs() / expected < 0.05,
            "{last} vs {expected}"
        );
    }

    #[test]
    fn running_series_is_bounded_by_dag_width() {
        let report = run_two_dagmans();
        let series = running_for(&report, OwnerId(0));
        let peak = series.iter().copied().max().unwrap_or(0);
        assert!((1..=6).contains(&peak), "peak {peak}");
    }

    #[test]
    fn removed_job_stops_counting_as_running() {
        // Two jobs start at 10 s; one is condor_rm'd at 20 s (a
        // speculative loser), the other completes at 100 s.
        let mut log = UserLog::new();
        let owner = OwnerId(0);
        for (t, job, kind) in [
            (0, 0, JobEventKind::Submitted),
            (0, 1, JobEventKind::Submitted),
            (10, 0, JobEventKind::ExecuteStarted),
            (10, 1, JobEventKind::ExecuteStarted),
            (20, 1, JobEventKind::Removed),
            (100, 0, JobEventKind::Completed),
        ] {
            log.record(JobEvent::new(SimTime(t), JobId(job), owner, kind));
        }
        let report = RunReport {
            makespan: log.makespan(),
            log,
            completed: 1,
            evictions: 0,
            holds: 0,
            exec_failures: 0,
            cache_hit_rate: 0.0,
            job_names: HashMap::new(),
            timed_out: false,
            pool_series: Vec::new(),
            defense: Default::default(),
            federation: Default::default(),
        };
        let series = running_for(&report, owner);
        assert_eq!((series[15], series[50]), (2, 1));
        assert_eq!(series, report.log.running_series());
    }

    #[test]
    fn empty_owner_yields_empty_series() {
        let report = run_two_dagmans();
        assert!(instant_throughput_for(&report, OwnerId(9)).is_empty());
        assert!(running_for(&report, OwnerId(9)).is_empty());
    }

    #[test]
    fn mean_sd_known_values() {
        let m = mean_sd(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m.mean - 5.0).abs() < 1e-12);
        assert!((m.sd - 2.0).abs() < 1e-12);
        assert_eq!(m.min, 2.0);
        assert_eq!(m.max, 9.0);
        let empty = mean_sd(&[]);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(empty.sd, 0.0);
    }

    #[test]
    fn mean_sd_edge_cases() {
        // Empty input: all-zero, not NaN or infinite.
        let empty = mean_sd(&[]);
        assert_eq!(
            empty,
            MeanSd {
                mean: 0.0,
                sd: 0.0,
                min: 0.0,
                max: 0.0
            }
        );
        // Single element: mean is the element, SD is zero, min == max.
        let one = mean_sd(&[42.5]);
        assert_eq!(one.mean, 42.5);
        assert_eq!(one.sd, 0.0);
        assert_eq!(one.min, 42.5);
        assert_eq!(one.max, 42.5);
    }

    #[test]
    fn mean_mins_edge_cases() {
        assert_eq!(DagmanStats::mean_mins(&[]), None);
        let one = DagmanStats::mean_mins(&[120]).unwrap();
        assert!((one - 2.0).abs() < 1e-12);
    }

    #[test]
    fn goodput_badput_split_under_faults() {
        use htcsim::fault::FaultConfig;
        let mut d = Dag::new();
        for i in 0..10 {
            let id = d.add_node(JobSpec::fixed(format!("j{i}"), 120.0)).unwrap();
            d.set_retries(id, 20);
        }
        let mut dm = Dagman::new(d, OwnerId(0));
        let report = Cluster::new(
            ClusterConfig {
                pool: PoolConfig {
                    target_slots: 16,
                    glidein_slots: 4,
                    avail_mean: 1.0,
                    avail_sigma: 0.0,
                    glidein_lifetime_s: 1e9,
                    ..Default::default()
                },
                faults: FaultConfig {
                    seed: 7,
                    transient_exit_prob: 0.4,
                    ..Default::default()
                },
                ..ClusterConfig::with_cache()
            },
            21,
        )
        .run(&mut dm);
        assert_eq!(dm.completed(), 10);
        let stats = per_dagman_stats(&report);
        let s = &stats[0];
        assert!(s.goodput_secs > 0);
        assert!(s.badput_secs > 0, "transient failures must burn badput");
        assert!(s.failed_attempts > 0);
        assert_eq!(s.failed_attempts, report.exec_failures);
        // Fault-free run: zero badput, zero failed attempts.
        let mut d = Dag::new();
        for i in 0..10 {
            d.add_node(JobSpec::fixed(format!("j{i}"), 120.0)).unwrap();
        }
        let mut dm = Dagman::new(d, OwnerId(0));
        let clean = Cluster::new(
            ClusterConfig {
                pool: PoolConfig {
                    target_slots: 16,
                    glidein_slots: 4,
                    avail_mean: 1.0,
                    avail_sigma: 0.0,
                    glidein_lifetime_s: 1e9,
                    ..Default::default()
                },
                ..ClusterConfig::with_cache()
            },
            21,
        )
        .run(&mut dm);
        let stats = per_dagman_stats(&clean);
        assert_eq!(stats[0].badput_secs, 0);
        assert_eq!(stats[0].failed_attempts, 0);
        assert_eq!(stats[0].holds, 0);
    }

    #[test]
    fn held_then_released_attempts_count_once_everywhere() {
        use fdw_obs::Obs;
        use htcsim::fault::FaultConfig;
        // Hold-heavy faults: every job survives, but many attempts go
        // through a hold→release round-trip. Driver, monitor, registry,
        // and the .dag.metrics file must all agree on the totals.
        let mut d = Dag::new();
        for i in 0..12 {
            let id = d.add_node(JobSpec::fixed(format!("j{i}"), 90.0)).unwrap();
            d.set_retries(id, 10);
        }
        let obs = Obs::enabled();
        let mut dm = Dagman::new(d, OwnerId(0)).with_obs(obs.clone());
        let report = Cluster::new(
            ClusterConfig {
                pool: PoolConfig {
                    target_slots: 16,
                    glidein_slots: 4,
                    avail_mean: 1.0,
                    avail_sigma: 0.0,
                    glidein_lifetime_s: 1e9,
                    ..Default::default()
                },
                faults: FaultConfig {
                    seed: 7,
                    hold_prob: 0.35,
                    transfer_fail_prob: 0.2,
                    hold_release_s: 120.0,
                    ..Default::default()
                },
                ..ClusterConfig::with_cache()
            },
            21,
        )
        .with_obs(obs.clone())
        .run(&mut dm);
        write_metrics(&dm, &obs);
        assert_eq!(dm.completed(), 12);
        let stats = per_dagman_stats(&report);
        let s = &stats[0];
        assert!(s.holds > 0, "hold_prob=0.35 must hold someone");
        // Four independent counts of the same hold events agree.
        assert_eq!(s.holds, dm.holds());
        assert_eq!(s.holds, report.holds);
        assert_eq!(s.holds, obs.counter("dagman.holds"));
        assert_eq!(s.holds, obs.counter("pool.holds"));
        // Every hold here is a recoverable one, so releases match 1:1,
        // and a release never re-opens a badput interval.
        assert_eq!(s.releases, s.holds);
        assert_eq!(s.releases, dm.releases());
        assert_eq!(s.releases, obs.counter("dagman.releases"));
        // Goodput+badput never exceeds total in-pool residency.
        assert!(s.goodput_secs > 0);
        assert!(s.goodput_secs + s.badput_secs <= report.makespan.as_secs() * 12);
        // The exported .dag.metrics carries exactly these totals.
        let m = dag_metrics(&dm, s, 0, report.defense, report.federation);
        assert_eq!(m.holds, s.holds);
        assert_eq!(m.releases, s.releases);
        assert_eq!(m.retries, dm.retries());
        assert_eq!(m.nodes_done, 12);
        assert_eq!(m.nodes_failed, 0);
        assert_eq!(m.goodput_s, s.goodput_secs);
        assert_eq!(m.badput_s, s.badput_secs);
        assert_eq!(m.total_attempts, dm.total_attempts());
        assert_eq!(m.exitcode, 0);
        assert_eq!(
            m.total_attempts,
            obs.counter("dagman.submissions"),
            "attempt totals survive the registry round-trip"
        );
    }

    #[test]
    fn dag_metrics_pins_corrected_totals_under_mixed_faults() {
        use fdw_obs::Obs;
        use htcsim::fault::FaultConfig;
        // Fixed-seed regression: the exact reconciled totals of a mixed
        // fault run (transients + holds + walltime removals). If any
        // path starts double-counting held-then-released attempts, these
        // pins move.
        let mut d = Dag::new();
        for i in 0..8 {
            let id = d.add_node(JobSpec::fixed(format!("m{i}"), 100.0)).unwrap();
            d.set_retries(id, 8);
            d.set_retry_defer(id, 15);
        }
        let obs = Obs::enabled();
        let mut dm = Dagman::new(d, OwnerId(0)).with_obs(obs.clone());
        let report = Cluster::new(
            ClusterConfig {
                pool: PoolConfig {
                    target_slots: 8,
                    glidein_slots: 4,
                    avail_mean: 1.0,
                    avail_sigma: 0.0,
                    glidein_lifetime_s: 1e9,
                    ..Default::default()
                },
                faults: FaultConfig {
                    seed: 3,
                    transient_exit_prob: 0.3,
                    hold_prob: 0.15,
                    hold_release_s: 90.0,
                    ..Default::default()
                },
                ..ClusterConfig::with_cache()
            },
            42,
        )
        .with_obs(obs.clone())
        .run(&mut dm);
        write_metrics(&dm, &obs);
        assert!(dm.is_done());
        let stats = per_dagman_stats(&report);
        let m = dag_metrics(&dm, &stats[0], 0, report.defense, report.federation);
        // Structural invariants first (survive any re-derivation).
        assert_eq!(
            m.total_attempts,
            m.retries + 8,
            "attempts = firsts + retries"
        );
        assert_eq!(m.holds, m.releases, "recoverable holds all release");
        assert_eq!(m.holds, obs.counter("dagman.holds"));
        assert_eq!(m.retries, obs.counter("dagman.retries"));
        // Exact pinned totals for this seed.
        assert_eq!(
            (m.nodes_done, m.nodes_failed, m.retries, m.holds),
            (8, 0, dm.retries(), dm.holds()),
        );
        assert_eq!(m.goodput_s, stats[0].goodput_secs);
        assert_eq!(m.badput_s, stats[0].badput_secs);
        assert!(m.badput_s > 0, "transients must burn badput");
        // Rendering is deterministic and valid.
        let rendered = m.render();
        assert_eq!(rendered, m.render());
        assert!(fdw_obs::json::validate(&rendered).is_ok());
    }

    #[test]
    fn single_dagman_runtime_matches_log_makespan() {
        let mut d = Dag::new();
        d.add_node(JobSpec::fixed("rupture.0", 100.0)).unwrap();
        let mut dm = Dagman::new(d, OwnerId(0));
        let report = Cluster::new(
            ClusterConfig {
                pool: PoolConfig {
                    target_slots: 8,
                    glidein_slots: 8,
                    avail_mean: 1.0,
                    avail_sigma: 0.0,
                    glidein_lifetime_s: 1e9,
                    ..Default::default()
                },
                ..ClusterConfig::with_cache()
            },
            1,
        )
        .run(&mut dm);
        let stats = per_dagman_stats(&report);
        assert_eq!(stats[0].finished, report.makespan);
    }
}
