//! Deterministic fault injection for the simulated pool.
//!
//! Real OSPool campaigns fail in recognisable ways: jobs exit non-zero
//! (transiently or every time), "black hole" machines match quickly and
//! kill everything they run, file transfers to/from the origin break,
//! and the schedd puts jobs on hold. The FDW paper's workflows survive
//! these through DAGMan retries and rescue DAGs; this module gives the
//! simulator the same adversities so that machinery can be exercised.
//!
//! All decisions come from a stateless counter-free hash of
//! `(seed, domain, key, salt)`, so a [`FaultPlan`] is a pure function:
//! the same plan asked the same question always gives the same answer,
//! regardless of event ordering. That is what makes chaos campaigns
//! replayable — and what lets a rescue-DAG re-run see the *same* world.

use fdw_obs::digest::{fnv1a, DIGEST_INIT};

/// Exit code used for transient (retry-curable) job failures.
pub const EXIT_TRANSIENT: i32 = 1;
/// Exit code used for permanent (every-attempt) job failures.
pub const EXIT_PERMANENT: i32 = 2;
/// Exit code used when a black-hole machine kills a job.
pub const EXIT_BLACK_HOLE: i32 = 3;
/// Exit code used when a job consumed a silently corrupted cache entry
/// (only reachable with checksum verification disabled — the defense
/// detects the corruption at stage-in instead).
pub const EXIT_CORRUPT: i32 = 4;

/// Seconds a black-hole machine takes to kill a job: they fail *fast*,
/// which is exactly why they eat a disproportionate share of matches.
pub const BLACK_HOLE_FAIL_S: f64 = 30.0;

/// Why a job was put on hold (the `HoldReason` in a real 012 event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HoldReason {
    /// Transfer of input files from the origin failed.
    TransferInputError,
    /// Transfer of output files back to the origin failed.
    TransferOutputError,
    /// The job exceeded its allowed wall time (`periodic_hold`).
    WallTimeExceeded,
    /// Administrative/policy hold (the catch-all bucket).
    PolicyHold,
    /// A staged-in file failed checksum verification (corrupted cache
    /// entry detected by the verify-on-read defense).
    ChecksumMismatch,
}

impl HoldReason {
    /// The reason string written into the 012 log event.
    pub fn text(self) -> &'static str {
        match self {
            HoldReason::TransferInputError => "Transfer input files failure",
            HoldReason::TransferOutputError => "Transfer output files failure",
            HoldReason::WallTimeExceeded => "Job exceeded allowed walltime",
            HoldReason::PolicyHold => "Policy hold",
            HoldReason::ChecksumMismatch => "Transfer checksum validation failed",
        }
    }

    /// Snake-case label used in metric names (`pool.holds.<key>`).
    pub fn key(self) -> &'static str {
        match self {
            HoldReason::TransferInputError => "transfer_input",
            HoldReason::TransferOutputError => "transfer_output",
            HoldReason::WallTimeExceeded => "walltime",
            HoldReason::PolicyHold => "policy",
            HoldReason::ChecksumMismatch => "checksum",
        }
    }

    /// Inverse of [`HoldReason::text`].
    pub fn parse(text: &str) -> Option<HoldReason> {
        match text {
            "Transfer input files failure" => Some(HoldReason::TransferInputError),
            "Transfer output files failure" => Some(HoldReason::TransferOutputError),
            "Job exceeded allowed walltime" => Some(HoldReason::WallTimeExceeded),
            "Policy hold" => Some(HoldReason::PolicyHold),
            "Transfer checksum validation failed" => Some(HoldReason::ChecksumMismatch),
            _ => None,
        }
    }
}

/// Knobs for the injected fault mix. All probabilities are per-decision
/// and in `[0, 1]`; everything defaults to zero (no faults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault schedule. Independent of the cluster seed, so
    /// the same fault world can be replayed under different pools.
    pub seed: u64,
    /// Probability that any single execution attempt exits non-zero
    /// with [`EXIT_TRANSIENT`] (succeeds when retried elsewhere/later).
    pub transient_exit_prob: f64,
    /// Fraction of job *names* that fail with [`EXIT_PERMANENT`] on
    /// every attempt — the bug-in-the-code failure retries cannot cure.
    pub permanent_job_fraction: f64,
    /// Fraction of machines that are black holes: matched jobs die
    /// after [`BLACK_HOLE_FAIL_S`] with [`EXIT_BLACK_HOLE`].
    pub black_hole_fraction: f64,
    /// Probability that a stage-in or stage-out transfer fails, putting
    /// the job on hold with a transfer hold reason.
    pub transfer_fail_prob: f64,
    /// Probability that a matched job is held at execute time for
    /// policy reasons ([`HoldReason::PolicyHold`]).
    pub hold_prob: f64,
    /// Probability that a cacheable file lands in a site cache silently
    /// corrupted. Each (site, file, insert-generation) rolls once, so a
    /// re-fetch after quarantine rolls fresh.
    pub corrupt_prob: f64,
    /// Seconds a held job waits before it is automatically released
    /// back to the idle queue.
    pub hold_release_s: f64,
    /// Pool-granularity fault classes (outage windows, partitions, spot
    /// preemption); only active when the cluster runs a federation.
    pub pool: PoolFaultConfig,
}

/// Pool-granularity fault classes: whole-pool outage windows, network
/// partitions between a pool and the submit node, and spot-reclamation
/// preemption in the cloud pool. Everything defaults to zero/off.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PoolFaultConfig {
    /// Pool index hit by the outage window.
    pub outage_pool: u32,
    /// Sim-time the outage starts, seconds.
    pub outage_start_s: f64,
    /// Outage length, seconds (0 disables the outage).
    pub outage_duration_s: f64,
    /// Pool index cut off by the network partition.
    pub partition_pool: u32,
    /// Sim-time the partition starts, seconds.
    pub partition_start_s: f64,
    /// Partition length, seconds (0 disables the partition).
    pub partition_duration_s: f64,
    /// Probability that one execution attempt in the cloud pool is
    /// reclaimed mid-run (spot preemption).
    pub preempt_prob: f64,
}

impl PoolFaultConfig {
    /// True when any pool-level fault class is live.
    pub fn any_enabled(&self) -> bool {
        self.outage_duration_s > 0.0 || self.partition_duration_s > 0.0 || self.preempt_prob > 0.0
    }

    /// Validate ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.preempt_prob) {
            return Err(format!(
                "preempt_prob must be in [0, 1], got {}",
                self.preempt_prob
            ));
        }
        for (name, v) in [
            ("outage_start_s", self.outage_start_s),
            ("outage_duration_s", self.outage_duration_s),
            ("partition_start_s", self.partition_start_s),
            ("partition_duration_s", self.partition_duration_s),
        ] {
            if v < 0.0 {
                return Err(format!("{name} must be non-negative, got {v}"));
            }
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            transient_exit_prob: 0.0,
            permanent_job_fraction: 0.0,
            black_hole_fraction: 0.0,
            transfer_fail_prob: 0.0,
            hold_prob: 0.0,
            corrupt_prob: 0.0,
            hold_release_s: 600.0,
            pool: PoolFaultConfig::default(),
        }
    }
}

impl FaultConfig {
    /// True when any fault class has a non-zero probability.
    pub fn any_enabled(&self) -> bool {
        self.transient_exit_prob > 0.0
            || self.permanent_job_fraction > 0.0
            || self.black_hole_fraction > 0.0
            || self.transfer_fail_prob > 0.0
            || self.hold_prob > 0.0
            || self.corrupt_prob > 0.0
            || self.pool.any_enabled()
    }

    /// Validate the probability ranges.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("transient_exit_prob", self.transient_exit_prob),
            ("permanent_job_fraction", self.permanent_job_fraction),
            ("black_hole_fraction", self.black_hole_fraction),
            ("transfer_fail_prob", self.transfer_fail_prob),
            ("hold_prob", self.hold_prob),
            ("corrupt_prob", self.corrupt_prob),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        if self.hold_prob > 0.0 && self.hold_release_s <= 0.0 {
            return Err("hold_release_s must be positive when hold_prob > 0".into());
        }
        self.pool.validate()
    }
}

/// The realised fault schedule: answers "does fault X hit decision Y?"
/// deterministically from the config seed.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

/// splitmix64 finaliser: turns the structured FNV state into
/// well-mixed bits suitable for a uniform draw.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Split an independent per-lane RNG seed off a base seed.
///
/// Sharded event lanes each carry their own random stream; splitting
/// them through splitmix64 (rather than `seed + lane`) keeps streams
/// statistically independent, and deriving them from the *base* seed
/// (never the shard count) means re-sharding a run does not change a
/// single draw — the determinism contract of the sharded engine.
pub fn lane_seed(seed: u64, lane: u32) -> u64 {
    let h = fnv1a(DIGEST_INIT ^ seed, b"lane");
    mix(fnv1a(h, &u64::from(lane).to_le_bytes()))
}

impl FaultPlan {
    /// Build the plan for a fault configuration.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan { cfg }
    }

    /// Per-lane RNG seed split from this plan's fault seed (see
    /// [`lane_seed`]). Lane-local state machines (the sharded DES
    /// engine, per-pool noise sources) seed their streams here so the
    /// draw sequence is a function of `(fault seed, lane)` only.
    pub fn lane_seed(&self, lane: u32) -> u64 {
        lane_seed(self.cfg.seed, lane)
    }

    /// The configuration this plan realises.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// True when the plan can inject anything at all (fast-path guard).
    pub fn any_enabled(&self) -> bool {
        self.cfg.any_enabled()
    }

    /// Uniform `[0, 1)` draw for `(domain, key, salt)` under this seed.
    fn draw(&self, domain: &str, key: &str, salt: u64) -> f64 {
        let mut h = DIGEST_INIT ^ self.cfg.seed;
        h = fnv1a(h, domain.as_bytes());
        h = fnv1a(h, &[0xff]);
        h = fnv1a(h, key.as_bytes());
        h = fnv1a(h, &salt.to_le_bytes());
        // 53 high-quality bits → uniform double in [0, 1).
        (mix(h) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn chance(&self, domain: &str, key: &str, salt: u64, p: f64) -> bool {
        p > 0.0 && self.draw(domain, key, salt) < p
    }

    /// Is this machine a black hole?
    pub fn is_black_hole(&self, machine: u64) -> bool {
        self.chance("black-hole", "", machine, self.cfg.black_hole_fraction)
    }

    /// Exit code (if any) for one execution attempt of job `name`.
    ///
    /// Permanent failures key on the name alone so every attempt fails;
    /// transient failures key on `(name, attempt salt)` so a retry can
    /// land differently.
    pub fn exec_exit(&self, name: &str, salt: u64) -> Option<i32> {
        if self.chance("permanent", name, 0, self.cfg.permanent_job_fraction) {
            return Some(EXIT_PERMANENT);
        }
        if self.chance("transient", name, salt, self.cfg.transient_exit_prob) {
            return Some(EXIT_TRANSIENT);
        }
        None
    }

    /// Does the stage-in transfer for this attempt fail?
    pub fn stage_in_fails(&self, name: &str, salt: u64) -> bool {
        self.chance("stage-in", name, salt, self.cfg.transfer_fail_prob)
    }

    /// Does the stage-out transfer for this attempt fail?
    pub fn stage_out_fails(&self, name: &str, salt: u64) -> bool {
        self.chance("stage-out", name, salt, self.cfg.transfer_fail_prob)
    }

    /// Is the copy of `file` inserted into `site`'s cache at this insert
    /// `generation` silently corrupted? Keyed per insertion, so a fresh
    /// origin re-fetch after a quarantine rolls a new (usually clean)
    /// copy.
    pub fn cache_corrupts(&self, site: u32, file: &str, generation: u64) -> bool {
        let salt = (site as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(generation);
        self.chance("corrupt", file, salt, self.cfg.corrupt_prob)
    }

    /// Is this execution attempt in the cloud pool reclaimed mid-run?
    pub fn preempts(&self, name: &str, salt: u64) -> bool {
        self.chance("preempt", name, salt, self.cfg.pool.preempt_prob)
    }

    /// Fraction of the attempt's runtime that elapses before the
    /// reclamation lands, in `[0.1, 0.9)` — late enough that work is
    /// lost, early enough that the job never finishes.
    pub fn preempt_frac(&self, name: &str, salt: u64) -> f64 {
        0.1 + 0.8 * self.draw("preempt-frac", name, salt)
    }

    /// Policy hold (if any) for this attempt.
    pub fn hold(&self, name: &str, salt: u64) -> Option<HoldReason> {
        if self.chance("hold", name, salt, self.cfg.hold_prob) {
            Some(HoldReason::PolicyHold)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(mutate: impl FnOnce(&mut FaultConfig)) -> FaultPlan {
        let mut cfg = FaultConfig {
            seed: 42,
            ..Default::default()
        };
        mutate(&mut cfg);
        FaultPlan::new(cfg)
    }

    #[test]
    fn default_config_injects_nothing() {
        let p = FaultPlan::new(FaultConfig::default());
        assert!(!p.any_enabled());
        for i in 0..100 {
            assert!(!p.is_black_hole(i));
            assert_eq!(p.exec_exit("waveform.3", i), None);
            assert!(!p.stage_in_fails("waveform.3", i));
            assert!(!p.stage_out_fails("waveform.3", i));
            assert_eq!(p.hold("waveform.3", i), None);
            assert!(!p.cache_corrupts(3, "gf.mseed", i));
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = plan(|c| c.transient_exit_prob = 0.5);
        let b = plan(|c| c.transient_exit_prob = 0.5);
        let other = FaultPlan::new(FaultConfig {
            seed: 43,
            transient_exit_prob: 0.5,
            ..Default::default()
        });
        let answers: Vec<bool> = (0..64)
            .map(|i| a.exec_exit("rupture.0", i).is_some())
            .collect();
        let again: Vec<bool> = (0..64)
            .map(|i| b.exec_exit("rupture.0", i).is_some())
            .collect();
        let differently: Vec<bool> = (0..64)
            .map(|i| other.exec_exit("rupture.0", i).is_some())
            .collect();
        assert_eq!(answers, again);
        assert_ne!(answers, differently, "a new seed must reshuffle faults");
    }

    #[test]
    fn probabilities_are_roughly_honoured() {
        let p = plan(|c| c.transient_exit_prob = 0.3);
        let hits = (0..2000)
            .filter(|&i| p.exec_exit(&format!("job.{i}"), 0).is_some())
            .count();
        assert!((400..800).contains(&hits), "expected ~600 hits, got {hits}");
    }

    #[test]
    fn permanent_failures_ignore_the_attempt() {
        let p = plan(|c| c.permanent_job_fraction = 0.5);
        let doomed: Vec<&str> = ["a", "b", "c", "d", "e", "f", "g", "h"]
            .into_iter()
            .filter(|n| p.exec_exit(n, 0) == Some(EXIT_PERMANENT))
            .collect();
        assert!(!doomed.is_empty(), "half the names should be doomed");
        for name in doomed {
            for attempt in 0..32 {
                assert_eq!(p.exec_exit(name, attempt), Some(EXIT_PERMANENT));
            }
        }
    }

    #[test]
    fn fault_domains_are_independent() {
        // A plan with every class at p=1 must report all of them; a plan
        // with only transfers enabled must not leak into exec failures.
        let all = plan(|c| {
            c.transient_exit_prob = 1.0;
            c.transfer_fail_prob = 1.0;
            c.hold_prob = 1.0;
            c.black_hole_fraction = 1.0;
            c.corrupt_prob = 1.0;
        });
        assert!(all.is_black_hole(7));
        assert!(all.stage_in_fails("x", 0) && all.stage_out_fails("x", 0));
        assert_eq!(all.hold("x", 0), Some(HoldReason::PolicyHold));
        assert!(all.cache_corrupts(0, "x", 0));
        let only_transfer = plan(|c| c.transfer_fail_prob = 1.0);
        assert_eq!(only_transfer.exec_exit("x", 0), None);
        assert!(!only_transfer.is_black_hole(7));
        assert!(!only_transfer.cache_corrupts(0, "x", 0));
    }

    #[test]
    fn corruption_rolls_fresh_per_generation() {
        let p = plan(|c| c.corrupt_prob = 0.5);
        let rolls: Vec<bool> = (0..64)
            .map(|g| p.cache_corrupts(1, "gf.mseed", g))
            .collect();
        assert!(rolls.iter().any(|&c| c), "p=0.5 must corrupt sometimes");
        assert!(!rolls.iter().all(|&c| c), "p=0.5 must stay clean sometimes");
        // Same (site, file, generation) is a pure function.
        for (g, &r) in rolls.iter().enumerate() {
            assert_eq!(p.cache_corrupts(1, "gf.mseed", g as u64), r);
        }
        // Sites are independent.
        let other: Vec<bool> = (0..64)
            .map(|g| p.cache_corrupts(2, "gf.mseed", g))
            .collect();
        assert_ne!(rolls, other);
    }

    #[test]
    fn preemption_draws_are_deterministic_and_bounded() {
        let p = plan(|c| c.pool.preempt_prob = 0.5);
        assert!(p.any_enabled());
        let rolls: Vec<bool> = (0..64).map(|s| p.preempts("rupture.0", s)).collect();
        assert!(rolls.iter().any(|&r| r), "p=0.5 must preempt sometimes");
        assert!(!rolls.iter().all(|&r| r), "p=0.5 must spare sometimes");
        for (s, &r) in rolls.iter().enumerate() {
            assert_eq!(p.preempts("rupture.0", s as u64), r);
            let f = p.preempt_frac("rupture.0", s as u64);
            assert!((0.1..0.9).contains(&f), "preempt_frac out of range: {f}");
        }
        let off = FaultPlan::new(FaultConfig::default());
        assert!(!off.preempts("rupture.0", 0));
    }

    #[test]
    fn pool_fault_validate_rejects_bad_knobs() {
        let mut cfg = PoolFaultConfig::default();
        cfg.validate().unwrap();
        assert!(!cfg.any_enabled());
        cfg.preempt_prob = 1.5;
        assert!(cfg.validate().is_err());
        cfg.preempt_prob = 0.2;
        assert!(cfg.any_enabled());
        cfg.outage_start_s = -1.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn hold_reason_text_roundtrip() {
        for r in [
            HoldReason::TransferInputError,
            HoldReason::TransferOutputError,
            HoldReason::WallTimeExceeded,
            HoldReason::PolicyHold,
            HoldReason::ChecksumMismatch,
        ] {
            assert_eq!(HoldReason::parse(r.text()), Some(r));
        }
        assert_eq!(HoldReason::parse("gremlins"), None);
    }

    #[test]
    fn lane_seeds_are_stable_and_pairwise_distinct() {
        // Function of (seed, lane) only — shard count never appears.
        assert_eq!(lane_seed(9, 0), lane_seed(9, 0));
        let seeds: Vec<u64> = (0..64).map(|l| lane_seed(9, l)).collect();
        for (i, &a) in seeds.iter().enumerate() {
            for &b in &seeds[i + 1..] {
                assert_ne!(a, b, "lane streams must not collide");
            }
        }
        assert_ne!(lane_seed(9, 3), lane_seed(10, 3), "seed must matter");
        let p = plan(|c| c.seed = 9);
        assert_eq!(p.lane_seed(3), lane_seed(9, 3));
    }

    #[test]
    fn validate_rejects_bad_probabilities() {
        let mut cfg = FaultConfig::default();
        cfg.validate().unwrap();
        cfg.transient_exit_prob = 1.5;
        assert!(cfg.validate().is_err());
        cfg.transient_exit_prob = 0.0;
        cfg.hold_prob = 0.1;
        cfg.hold_release_s = 0.0;
        assert!(cfg.validate().is_err());
    }
}
