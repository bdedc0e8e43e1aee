//! Chaos-recovery harness: run an FDW campaign under injected faults and
//! prove the rescue-DAG round-trip recovers every science product.
//!
//! A campaign repeats rounds of *run → rescue → repair → resume* until the
//! DAG completes: the first round executes under a [`FaultClass`] at some
//! intensity; when nodes fail permanently, the rescue file is written,
//! parsed back, and resumed against a repaired configuration (faults
//! cleared, walltime limit lifted) — the operational "fix the bug and
//! resubmit the rescue DAG" loop. The campaign then proves zero artifact
//! loss by digesting the live science products of every completed node and
//! comparing against the fault-free baseline at the same seed.

use std::collections::BTreeSet;

use dagman::driver::Dagman;
use dagman::monitor::{dag_metrics, per_dagman_stats, write_metrics};
use dagman::rescue::{parse_rescue, rescue_file, resume};
use fdw_obs::digest::{fnv1a_f64, DIGEST_INIT};
use fdw_obs::Obs;
use htcsim::cluster::{Cluster, ClusterConfig};
use htcsim::fault::FaultConfig;
use htcsim::job::OwnerId;
use htcsim::pool::PoolConfig;
use htcsim::scoreboard::DefenseStats;

use crate::config::FdwConfig;
use crate::live;
use crate::phases::build_fdw_dag;

/// The seven fault classes the chaos matrix exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Execution attempts exit non-zero at random; retries cure them.
    TransientExit,
    /// A fraction of job names exits non-zero on every attempt; only the
    /// rescue/repair round-trip cures them.
    PermanentExit,
    /// A fraction of machines match fast and kill every job placed on
    /// them.
    BlackHole,
    /// Stage-in/stage-out transfers fail, holding the job until release.
    TransferFail,
    /// Jobs are held at execute time for policy reasons, then released.
    Hold,
    /// A tight walltime limit holds-and-removes long jobs.
    Timeout,
    /// Cached transfer payloads are silently corrupted; without the
    /// checksum defense the corruption surfaces only as a late exec
    /// failure after the full runtime is burned.
    Corruption,
}

impl FaultClass {
    /// Every class, in matrix order.
    pub const ALL: [FaultClass; 7] = [
        FaultClass::TransientExit,
        FaultClass::PermanentExit,
        FaultClass::BlackHole,
        FaultClass::TransferFail,
        FaultClass::Hold,
        FaultClass::Timeout,
        FaultClass::Corruption,
    ];

    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::TransientExit => "transient-exit",
            FaultClass::PermanentExit => "permanent-exit",
            FaultClass::BlackHole => "black-hole",
            FaultClass::TransferFail => "transfer-fail",
            FaultClass::Hold => "hold",
            FaultClass::Timeout => "timeout",
            FaultClass::Corruption => "corruption",
        }
    }

    /// Turn this fault class on in `cfg` at the given intensity (a
    /// probability/fraction for the stochastic classes; the timeout class
    /// tightens the walltime limit instead, harder at higher intensity).
    pub fn apply(self, intensity: f64, cfg: &mut FdwConfig) {
        match self {
            FaultClass::TransientExit => cfg.fault.transient_exit_prob = intensity,
            FaultClass::PermanentExit => cfg.fault.permanent_job_fraction = intensity,
            FaultClass::BlackHole => cfg.fault.black_hole_fraction = intensity,
            FaultClass::TransferFail => cfg.fault.transfer_fail_prob = intensity,
            FaultClass::Hold => cfg.fault.hold_prob = intensity,
            FaultClass::Timeout => {
                // 600 s cuts the fixed-time matrix job and the slow tail
                // of rupture jobs; higher intensity squeezes harder.
                cfg.job_timeout_s = (600.0 * (1.0 - intensity)).max(60.0) as u64;
            }
            FaultClass::Corruption => cfg.fault.corrupt_prob = intensity,
        }
    }
}

/// Outcome of one chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Fault class exercised.
    pub class: FaultClass,
    /// Intensity the class ran at.
    pub intensity: f64,
    /// Rounds until the DAG completed (1 = no rescue needed).
    pub rounds: u32,
    /// Retries consumed across all rounds.
    pub retries: u64,
    /// Hold events observed across all rounds.
    pub holds: u64,
    /// Nodes that failed permanently in round one (recovered later).
    pub first_round_failures: usize,
    /// FNV-1a digest of the live science products of every node.
    pub digest: u64,
    /// Rescue-DAG files written between rounds (empty when round one
    /// completed cleanly).
    pub rescue_files: Vec<String>,
    /// One `.dag.metrics` JSON document per round, written alongside the
    /// rescue file of that round (the last entry covers the finishing
    /// round, which needs no rescue).
    pub round_metrics: Vec<String>,
    /// Execution seconds that ended in a completion, summed over rounds.
    pub goodput_s: u64,
    /// Execution seconds lost to failures, evictions, holds and cancelled
    /// speculative duplicates, summed over rounds.
    pub badput_s: u64,
    /// Simulated wall-clock seconds to finish the campaign (all rounds).
    pub makespan_s: u64,
    /// Pool-side defense actions (blacklists, paroles, quarantines),
    /// summed over rounds. All-zero when defenses are off.
    pub defense: DefenseStats,
    /// Speculative duplicates launched by the straggler defense.
    pub speculations: u64,
    /// Execution seconds burned by cancelled speculative losers.
    pub spec_wasted_s: f64,
}

/// A small, fully available pool: campaigns finish in seconds and the
/// only nondeterminism is the seeded fault plan.
pub fn chaos_cluster_config() -> ClusterConfig {
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
    }
}

/// Run one chaos campaign: execute `cfg` (faults included) on the
/// cluster, and loop through the rescue/repair/resume round-trip until
/// every node completes. Errors if `max_rounds` rounds do not converge.
pub fn run_chaos_campaign(
    class: FaultClass,
    intensity: f64,
    base_cfg: &FdwConfig,
    cluster_cfg: &ClusterConfig,
    max_rounds: u32,
) -> Result<ChaosReport, String> {
    run_chaos_campaign_with_obs(
        class,
        intensity,
        base_cfg,
        cluster_cfg,
        max_rounds,
        &Obs::disabled(),
    )
}

/// [`run_chaos_campaign`] with a telemetry handle. Each round runs on its
/// own trace process lane (`pid` = round number) with timestamps shifted
/// so the rounds tile one continuous timeline; a `chaos`-category span
/// covers every round and a `rescue` instant marks each round-trip. The
/// reported retry/hold totals are the rounds' DAGMan tallies, the same
/// counts each round writes to the registry when it ends.
pub fn run_chaos_campaign_with_obs(
    class: FaultClass,
    intensity: f64,
    base_cfg: &FdwConfig,
    cluster_cfg: &ClusterConfig,
    max_rounds: u32,
    obs: &Obs,
) -> Result<ChaosReport, String> {
    let mut cfg = base_cfg.clone();
    class.apply(intensity, &mut cfg);
    let total = cfg.total_jobs() as usize;

    obs.inc("chaos.campaigns", 1);

    let mut dm = Dagman::new(build_fdw_dag(&cfg)?, OwnerId(0)).with_speculation(cfg.speculation);
    let mut faulty_cluster = cluster_cfg.clone();
    faulty_cluster.faults = cfg.fault;
    // Defenses stay configured across every round: the operator repairs
    // the pool faults between rounds, not the defense layer.
    faulty_cluster.defense = cfg.defense;
    let mut repaired_cluster = cluster_cfg.clone();
    repaired_cluster.defense = cfg.defense;

    let mut rounds = 0u32;
    let mut retries = 0u64;
    let mut holds = 0u64;
    let mut first_round_failures = 0usize;
    let mut rescue_files: Vec<String> = Vec::new();
    let mut round_metrics: Vec<String> = Vec::new();
    let mut goodput_s = 0u64;
    let mut badput_s = 0u64;
    let mut defense = DefenseStats::default();
    let mut speculations = 0u64;
    let mut spec_wasted_s = 0f64;
    // Cumulative offset so round N+1's trace starts where round N ended.
    let mut clock_s = 0u64;
    loop {
        rounds += 1;
        if rounds > max_rounds {
            return Err(format!(
                "campaign {}@{intensity} did not converge in {max_rounds} rounds",
                class.label()
            ));
        }
        // Repair rounds run fault-free with the walltime limit lifted:
        // the operator fixed the environment and resubmitted the rescue.
        let cluster = if rounds == 1 {
            faulty_cluster.clone()
        } else {
            repaired_cluster.clone()
        };
        let round_obs = obs.scoped(rounds, clock_s);
        dm = dm.with_obs(round_obs.clone());
        let report = Cluster::new(cluster, cfg.seed.wrapping_add(rounds as u64))
            .with_obs(round_obs.clone())
            .run(&mut dm);
        write_metrics(&dm, &round_obs);
        retries += dm.retries();
        holds += dm.holds();
        defense.blacklists += report.defense.blacklists;
        defense.paroles += report.defense.paroles;
        defense.quarantines += report.defense.quarantines;
        speculations += dm.speculations();
        spec_wasted_s += dm.wasted_speculative_seconds();
        obs.inc("chaos.rounds", 1);
        let makespan_s = report.makespan.as_secs();
        round_obs.span("chaos", format_args!("round:{rounds}"), 0, 0, makespan_s);
        crate::workflow::record_phase_spans(&round_obs, &report);
        if report.timed_out {
            return Err(format!(
                "campaign {}@{intensity} hit the simulation time cap",
                class.label()
            ));
        }
        let finished = dm.completed() == total;
        // Real DAGMan ships a .dag.metrics file at every DAG exit;
        // rescue_dag_number counts the rescue generation this exit wrote.
        let rescue_number = rescue_files.len() as u32 + u32::from(!finished);
        let stats = per_dagman_stats(&report);
        if let Some(s) = stats.iter().find(|s| s.owner == dm.owner()) {
            goodput_s += s.goodput_secs;
            badput_s += s.badput_secs;
            round_metrics.push(
                dag_metrics(&dm, s, rescue_number, report.defense, report.federation).render(),
            );
        }
        clock_s += makespan_s;
        if finished {
            break;
        }
        if rounds == 1 {
            first_round_failures = dm.failed_nodes().len();
        }
        obs.inc("chaos.rescues", 1);
        round_obs.instant("chaos", "rescue", 0, makespan_s);
        // Rescue round-trip: serialise, parse back, resume on a repaired
        // configuration (no faults, no walltime limit).
        let rescue = rescue_file(&dm);
        let done = parse_rescue(&rescue)?;
        rescue_files.push(rescue);
        let repaired = FdwConfig {
            fault: FaultConfig::default(),
            job_timeout_s: 0,
            ..cfg.clone()
        };
        dm =
            resume(build_fdw_dag(&repaired)?, &done, OwnerId(0))?.with_speculation(cfg.speculation);
    }

    let done: BTreeSet<String> = dm.done_nodes().iter().map(|s| s.to_string()).collect();
    let digest = science_digest(base_cfg, &done)?;
    Ok(ChaosReport {
        class,
        intensity,
        rounds,
        retries,
        holds,
        first_round_failures,
        digest,
        rescue_files,
        round_metrics,
        goodput_s,
        badput_s,
        makespan_s: clock_s,
        defense,
        speculations,
        spec_wasted_s,
    })
}

/// The fault-free reference digest for a configuration: every node
/// completes, so every science product is present.
pub fn baseline_digest(cfg: &FdwConfig) -> Result<u64, String> {
    let dag = build_fdw_dag(cfg)?;
    let all: BTreeSet<String> = dag.nodes().iter().map(|n| n.name.clone()).collect();
    science_digest(cfg, &all)
}

/// Digest the live science products covered by `completed` nodes: every
/// rupture job's slip distributions, plus a station-0 waveform sample of
/// the first waveform job. Errors if any expected node is missing — a
/// lost artifact must fail loudly, not produce a different digest.
pub fn science_digest(cfg: &FdwConfig, completed: &BTreeSet<String>) -> Result<u64, String> {
    let dag = build_fdw_dag(cfg)?;
    for node in dag.nodes() {
        if !completed.contains(&node.name) {
            return Err(format!("lost artifact: node {} never completed", node.name));
        }
    }

    let inputs = live::build_inputs(cfg).map_err(|e| e.to_string())?;
    let matrices = live::live_matrix_phase(&inputs);
    let mut h = DIGEST_INIT;
    // A-phase products: slip distributions of every rupture job.
    for i in 0..cfg.n_rupture_jobs() {
        let first = i * cfg.ruptures_per_job as u64;
        let count = (cfg.n_waveforms - first).min(cfg.ruptures_per_job as u64);
        let scenarios = live::live_rupture_job(cfg, &inputs, &matrices, first, count)
            .map_err(|e| e.to_string())?;
        for sc in &scenarios {
            h = fnv1a_f64(h, &sc.slip_m);
        }
    }
    // C-phase sample: station traces of the first waveform job's
    // scenarios, short duration (keeps campaigns fast while still
    // covering the GF library and synthesis path).
    let gfs = live::live_gf_phase(&inputs).map_err(|e| e.to_string())?;
    let count = (cfg.waveforms_per_job as u64).min(cfg.n_waveforms);
    let scenarios =
        live::live_rupture_job(cfg, &inputs, &matrices, 0, count).map_err(|e| e.to_string())?;
    let wfs = live::live_waveform_job(cfg, &inputs, &matrices, &gfs, &scenarios, 32.0)
        .map_err(|e| e.to_string())?;
    for per_station in &wfs {
        h = fnv1a_f64(h, &per_station[0].east_m);
        h = fnv1a_f64(h, &per_station[0].north_m);
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StationInput;
    use fakequakes::stations::ChileanInput;

    fn tiny_cfg() -> FdwConfig {
        FdwConfig {
            fault_nx: 10,
            fault_nd: 5,
            station_input: StationInput::Chilean(ChileanInput::Small),
            n_waveforms: 4,
            ruptures_per_job: 2,
            waveforms_per_job: 2,
            retries: 3,
            retry_defer_s: 30,
            seed: 5,
            ..Default::default()
        }
    }

    #[test]
    fn transient_campaign_recovers_with_matching_digest() {
        let cfg = tiny_cfg();
        let baseline = baseline_digest(&cfg).unwrap();
        let rep = run_chaos_campaign(
            FaultClass::TransientExit,
            0.4,
            &cfg,
            &chaos_cluster_config(),
            4,
        )
        .unwrap();
        assert_eq!(rep.digest, baseline, "science products must be identical");
        assert!(rep.retries > 0, "p=0.4 must trigger retries");
    }

    #[test]
    fn permanent_campaign_needs_the_rescue_round_trip() {
        let cfg = tiny_cfg();
        let baseline = baseline_digest(&cfg).unwrap();
        let rep = run_chaos_campaign(
            FaultClass::PermanentExit,
            1.0,
            &cfg,
            &chaos_cluster_config(),
            4,
        )
        .unwrap();
        assert!(rep.rounds >= 2, "permanent faults require a rescue round");
        assert!(rep.first_round_failures > 0);
        assert_eq!(rep.digest, baseline);
        // One rescue per non-final round, one metrics document per round;
        // failing rounds exit 1, the finishing round exits 0.
        assert_eq!(rep.rescue_files.len(), rep.rounds as usize - 1);
        assert_eq!(rep.round_metrics.len(), rep.rounds as usize);
        for doc in &rep.round_metrics {
            fdw_obs::json::validate(doc).unwrap();
        }
        assert!(rep.round_metrics[0].contains("\"exitcode\":1"));
        assert!(rep.round_metrics[0].contains("\"rescue_dag_number\":1"));
        assert!(rep.round_metrics.last().unwrap().contains("\"exitcode\":0"));
    }

    #[test]
    fn chaos_telemetry_reconciles_with_dagman_tallies() {
        let cfg = tiny_cfg();
        let obs = Obs::enabled();
        let rep = run_chaos_campaign_with_obs(
            FaultClass::TransferFail,
            0.8,
            &cfg,
            &chaos_cluster_config(),
            4,
            &obs,
        )
        .unwrap();
        // Registry deltas (the enabled path) must equal the DAGMan's own
        // tallies (the disabled-handle fallback) on the same campaign.
        let plain = run_chaos_campaign_with_obs(
            FaultClass::TransferFail,
            0.8,
            &cfg,
            &chaos_cluster_config(),
            4,
            &Obs::disabled(),
        )
        .unwrap();
        assert_eq!(rep.retries, plain.retries);
        assert_eq!(rep.holds, plain.holds);
        assert_eq!(rep.digest, plain.digest);
        assert!(rep.holds > 0, "transfer faults at 0.8 must hold jobs");
        assert_eq!(obs.counter("dagman.holds"), rep.holds);
        assert_eq!(obs.counter("chaos.rounds"), rep.rounds as u64);
        assert_eq!(obs.counter("chaos.campaigns"), 1);
        assert_eq!(obs.counter("chaos.rescues"), rep.rescue_files.len() as u64);
        let trace = obs.chrome_trace();
        fdw_obs::json::validate(&trace).unwrap();
        let cats = fdw_obs::chrome::categories(&trace);
        for want in ["chaos", "dagman", "phase", "pool"] {
            assert!(cats.contains(&want.to_string()), "missing {want}: {cats:?}");
        }
        assert!(trace.contains("\"name\":\"round:1\""));
        // Rounds tile one timeline: round 2's lane is pid 2.
        if rep.rounds >= 2 {
            assert!(trace.contains("\"pid\":2"));
        }
    }

    #[test]
    fn corruption_campaign_recovers_with_and_without_checksums() {
        let cfg = tiny_cfg();
        let baseline = baseline_digest(&cfg).unwrap();
        // Undefended: silent corruption surfaces as late exec failures
        // (the full runtime is burned before the bad input is noticed);
        // retries on a fresh generation eventually cure each job.
        let off = run_chaos_campaign(
            FaultClass::Corruption,
            0.9,
            &cfg,
            &chaos_cluster_config(),
            4,
        )
        .unwrap();
        assert_eq!(off.digest, baseline, "corruption must never alter products");
        assert!(off.retries > 0, "p=0.9 must poison some stage-ins");
        // Defended: verify-on-read quarantines the bad copy at stage-in
        // and re-fetches from origin — same products, no poisoned runs.
        let mut defended = cfg.clone();
        defended.defense.checksum_enabled = true;
        let on = run_chaos_campaign(
            FaultClass::Corruption,
            0.9,
            &defended,
            &chaos_cluster_config(),
            4,
        )
        .unwrap();
        assert_eq!(on.digest, baseline);
        assert!(
            on.defense.quarantines > 0,
            "checksums must catch corruption"
        );
        assert!(
            on.badput_s < off.badput_s,
            "verify-on-read must beat burn-the-runtime: on={} off={}",
            on.badput_s,
            off.badput_s
        );
    }

    #[test]
    fn digest_detects_lost_artifacts() {
        let cfg = tiny_cfg();
        let dag = build_fdw_dag(&cfg).unwrap();
        let mut done: BTreeSet<String> = dag.nodes().iter().map(|n| n.name.clone()).collect();
        done.remove("waveform.1");
        let err = science_digest(&cfg, &done).unwrap_err();
        assert!(err.contains("lost artifact"), "{err}");
    }

    #[test]
    fn class_labels_are_distinct() {
        let labels: std::collections::HashSet<&str> =
            FaultClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), FaultClass::ALL.len());
    }
}
