//! FDW configuration: the single parameter file a user edits before
//! launching the workflow ("editing a configuration file for simulation
//! parameters", §3).
//!
//! The format is `key = value` lines with `#` comments — serialisable via
//! [`FdwConfig::to_config_file`] and parsed by [`FdwConfig::parse`].

use fakequakes::rupture::RuptureConfig;
use fakequakes::stations::ChileanInput;
use fakequakes::stf::StfKind;
use fdw_service::config::ServiceConfig;
use htcsim::fault::FaultConfig;
use htcsim::federation::FederationConfig;
use htcsim::scoreboard::DefenseConfig;

/// Which subduction margin to simulate. The paper evaluates Chile; §7
/// names "regions beyond Chile" as future work, realised here as
/// Cascadia.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Region {
    /// The Chilean subduction zone (the paper's evaluation region).
    #[default]
    Chile,
    /// The Cascadia subduction zone (future-work region).
    Cascadia,
}

impl Region {
    /// Configuration-file label.
    pub fn label(self) -> &'static str {
        match self {
            Region::Chile => "chile",
            Region::Cascadia => "cascadia",
        }
    }

    /// Parse a configuration label.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "chile" => Some(Region::Chile),
            "cascadia" => Some(Region::Cascadia),
            _ => None,
        }
    }
}

/// Which GNSS station input to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StationInput {
    /// One of the paper's two canonical inputs.
    Chilean(ChileanInput),
    /// An arbitrary station count (for sweeps beyond the paper).
    Count(u32),
}

impl StationInput {
    /// Number of stations this input provides.
    pub fn station_count(self) -> u32 {
        match self {
            StationInput::Chilean(c) => c.station_count() as u32,
            StationInput::Count(n) => n,
        }
    }

    /// Configuration-file label.
    pub fn label(self) -> String {
        match self {
            StationInput::Chilean(c) => c.label().to_string(),
            StationInput::Count(n) => n.to_string(),
        }
    }

    /// Parse a configuration label: `full`, `small` or a station count.
    pub(crate) fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(StationInput::Chilean(ChileanInput::Full)),
            "small" => Some(StationInput::Chilean(ChileanInput::Small)),
            n => n.parse().ok().map(StationInput::Count),
        }
    }
}

/// The FDW parameter file.
#[derive(Debug, Clone, PartialEq)]
pub struct FdwConfig {
    /// Subduction margin to simulate.
    pub region: Region,
    /// Along-strike subfault count of the fault mesh.
    pub fault_nx: usize,
    /// Down-dip subfault count.
    pub fault_nd: usize,
    /// Station input selection.
    pub station_input: StationInput,
    /// Total waveform scenarios to generate.
    pub n_waveforms: u64,
    /// Rupture scenarios generated per A-phase job.
    pub ruptures_per_job: u32,
    /// Waveform scenarios synthesised per C-phase job.
    pub waveforms_per_job: u32,
    /// Target magnitude range.
    pub mw_range: (f64, f64),
    /// Source time function.
    pub stf: StfKind,
    /// Whether recycled `.npy` matrices are supplied (skips the matrix job).
    pub recycle_npy: bool,
    /// DAGMan maxidle throttle (0 = unlimited).
    pub max_idle: usize,
    /// DAGMan maxjobs throttle (0 = unlimited).
    pub max_jobs: usize,
    /// Base random seed.
    pub seed: u64,
    /// Per-node retry budget (DAGMan `RETRY`).
    pub retries: u32,
    /// Base retry backoff in seconds (`RETRY ... DEFER`, 0 = immediate).
    pub retry_defer_s: u64,
    /// Per-job wall-time limit in seconds (0 = unlimited); jobs over the
    /// limit are held and removed, consuming a retry.
    pub job_timeout_s: u64,
    /// Fault-injection plan applied to the cluster (all-zero = no faults).
    pub fault: FaultConfig,
    /// Pool-side failure defenses (scoreboard, checksums; off by default).
    pub defense: DefenseConfig,
    /// DAGMan straggler speculation (off by default).
    pub speculation: bool,
    /// Federated multi-pool layer: pool fault domains, circuit-breaker
    /// failover, checkpoint/restart migration (off by default).
    pub federation: FederationConfig,
    /// Multi-tenant campaign front-end: admission control, fair share,
    /// load shedding, shared artifact store (off by default).
    pub service: ServiceConfig,
    /// Physical event-queue shards for the cluster DES (0 = simulator
    /// default). Output is byte-identical for every value — the event
    /// order is pinned by the `(time, lane, seq)` key, never by layout.
    pub des_shards: usize,
}

impl Default for FdwConfig {
    fn default() -> Self {
        Self {
            region: Region::Chile,
            fault_nx: 32,
            fault_nd: 16,
            station_input: StationInput::Chilean(ChileanInput::Full),
            n_waveforms: 1024,
            ruptures_per_job: 16,
            waveforms_per_job: 2,
            mw_range: (7.5, 9.0),
            stf: StfKind::Dreger,
            recycle_npy: false,
            max_idle: 1000,
            max_jobs: 0,
            seed: 1,
            retries: 3,
            retry_defer_s: 60,
            job_timeout_s: 0,
            fault: FaultConfig::default(),
            defense: DefenseConfig::default(),
            speculation: false,
            federation: FederationConfig::default(),
            service: ServiceConfig::default(),
            des_shards: 0,
        }
    }
}

impl FdwConfig {
    /// Validate parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.fault_nx == 0 || self.fault_nd == 0 {
            return Err("fault mesh dimensions must be positive".into());
        }
        if self.n_waveforms == 0 {
            return Err("n_waveforms must be positive".into());
        }
        if self.ruptures_per_job == 0 || self.waveforms_per_job == 0 {
            return Err("per-job batch sizes must be positive".into());
        }
        if self.station_input.station_count() == 0 {
            return Err("station input cannot be empty".into());
        }
        // The rupture generator's own check, so a range it would refuse
        // fails at parse time rather than in the first rupture job.
        RuptureConfig {
            mw_range: self.mw_range,
            ..RuptureConfig::default()
        }
        .validate()
        .map_err(|e| e.to_string())?;
        if self.des_shards > 4096 {
            return Err("des_shards must be at most 4096".into());
        }
        self.fault.validate()?;
        self.federation.validate()?;
        self.service.validate()?;
        Ok(())
    }

    /// Number of A-phase rupture jobs this config produces.
    pub fn n_rupture_jobs(&self) -> u64 {
        self.n_waveforms.div_ceil(self.ruptures_per_job as u64)
    }

    /// Number of C-phase waveform jobs this config produces.
    pub fn n_waveform_jobs(&self) -> u64 {
        self.n_waveforms.div_ceil(self.waveforms_per_job as u64)
    }

    /// Total OSG jobs in the DAG (including the B-phase GF job and the
    /// optional matrix job).
    pub fn total_jobs(&self) -> u64 {
        self.n_rupture_jobs() + self.n_waveform_jobs() + 1 + if self.recycle_npy { 0 } else { 1 }
    }
}

/// The parameter file's keys in file order, one row per key: the key,
/// the `FdwConfig` field it binds and, for a value that is not the
/// field's own `Display`/`FromStr` text, `via T` to convert it through
/// `T::label` and `T::parse`. The rows expand into
/// [`FdwConfig::to_config_file`] and [`FdwConfig::parse`], so a knob is
/// added or renamed by editing its row, and fdwlint's `dead-config-knob`
/// reads the same rows.
macro_rules! config_keys {
    (@label $v:expr) => { $v };
    (@label $v:expr, $conv:ident) => { $conv::label($v) };
    (@read $s:expr) => { $s.parse().ok() };
    (@read $s:expr, $conv:ident) => { $conv::parse($s) };
    ($($key:literal => $($field:tt).+ $(via $conv:ident)?,)+) => {
        impl FdwConfig {
            /// Serialise as the FDW parameter file.
            pub fn to_config_file(&self) -> String {
                format!(
                    concat!(
                        "# FakeQuakes DAGMan Workflow configuration\n",
                        $($key, " = {}\n",)+
                    ),
                    $(config_keys!(@label self.$($field).+ $(, $conv)?),)+
                )
            }

            /// Parse the parameter-file format; unknown keys are an error
            /// (typos in simulation configs must not pass silently).
            pub fn parse(text: &str) -> Result<Self, String> {
                let mut cfg = FdwConfig::default();
                for (lineno, line) in text.lines().enumerate() {
                    let line = line.split('#').next().unwrap_or("").trim();
                    if line.is_empty() {
                        continue;
                    }
                    let (key, value) = line
                        .split_once('=')
                        .ok_or_else(|| format!("line {}: expected key = value", lineno + 1))?;
                    let (key, value) = (key.trim(), value.trim());
                    let bad = |what: &str| format!("line {}: invalid {what} '{value}'", lineno + 1);
                    match key {
                        $($key => {
                            cfg.$($field).+ =
                                config_keys!(@read value $(, $conv)?).ok_or_else(|| bad($key))?
                        })+
                        other => return Err(format!("line {}: unknown key '{other}'", lineno + 1)),
                    }
                }
                cfg.validate()?;
                Ok(cfg)
            }
        }
    };
}

config_keys! {
    "region" => region via Region,
    "fault_nx" => fault_nx,
    "fault_nd" => fault_nd,
    "station_input" => station_input via StationInput,
    "n_waveforms" => n_waveforms,
    "ruptures_per_job" => ruptures_per_job,
    "waveforms_per_job" => waveforms_per_job,
    "mw_min" => mw_range.0,
    "mw_max" => mw_range.1,
    "stf" => stf via StfKind,
    "recycle_npy" => recycle_npy,
    "max_idle" => max_idle,
    "max_jobs" => max_jobs,
    "seed" => seed,
    "retries" => retries,
    "retry_defer_s" => retry_defer_s,
    "job_timeout_s" => job_timeout_s,
    "fault_seed" => fault.seed,
    "fault_transient" => fault.transient_exit_prob,
    "fault_permanent" => fault.permanent_job_fraction,
    "fault_black_hole" => fault.black_hole_fraction,
    "fault_transfer" => fault.transfer_fail_prob,
    "fault_hold" => fault.hold_prob,
    "fault_hold_release_s" => fault.hold_release_s,
    "fault_corrupt" => fault.corrupt_prob,
    "defense_scoreboard" => defense.scoreboard_enabled,
    "defense_checksum" => defense.checksum_enabled,
    "speculation" => speculation,
    "federation_enabled" => federation.enabled,
    "federation_failover" => federation.failover_enabled,
    "federation_burst_idle" => federation.burst_idle_threshold,
    "federation_spinup_s" => federation.cloud_spinup_s,
    "checkpoint_enabled" => federation.checkpoint_enabled,
    "checkpoint_interval_s" => federation.checkpoint_interval_s,
    "fault_pool_outage_pool" => fault.pool.outage_pool,
    "fault_pool_outage_start_s" => fault.pool.outage_start_s,
    "fault_pool_outage_s" => fault.pool.outage_duration_s,
    "fault_partition_pool" => fault.pool.partition_pool,
    "fault_partition_start_s" => fault.pool.partition_start_s,
    "fault_partition_s" => fault.pool.partition_duration_s,
    "fault_preempt" => fault.pool.preempt_prob,
    "service_enabled" => service.enabled,
    "service_max_concurrent" => service.max_concurrent,
    "service_fair_share" => service.fair_share,
    "service_degrade_depth" => service.degrade_depth,
    "service_shed_backlog" => service.shed_backlog,
    "service_breaker_threshold" => service.breaker_threshold,
    "service_breaker_probe_s" => service.breaker_probe_s,
    "service_store" => service.store_enabled,
    "service_store_mb" => service.store_budget_mb,
    "service_store_verify" => service.store_verify,
    "tenant_count" => service.tenants,
    "tenant_quota" => service.tenant_quota,
    "tenant_queue_depth" => service.tenant_queue_depth,
    "tenant_deadline_shed" => service.tenant_deadline_shed,
    "des_shards" => des_shards,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(FdwConfig::default().validate().is_ok());
    }

    #[test]
    fn job_counts() {
        let cfg = FdwConfig {
            n_waveforms: 1024,
            ..Default::default()
        };
        assert_eq!(cfg.n_rupture_jobs(), 64);
        assert_eq!(cfg.n_waveform_jobs(), 512);
        assert_eq!(cfg.total_jobs(), 64 + 512 + 1 + 1);
        let recycled = FdwConfig {
            recycle_npy: true,
            ..cfg
        };
        assert_eq!(recycled.total_jobs(), 64 + 512 + 1);
    }

    #[test]
    fn job_counts_round_up() {
        let cfg = FdwConfig {
            n_waveforms: 17,
            ..Default::default()
        };
        assert_eq!(cfg.n_rupture_jobs(), 2);
        assert_eq!(cfg.n_waveform_jobs(), 9);
    }

    #[test]
    fn config_file_roundtrip() {
        let cfg = FdwConfig {
            n_waveforms: 50_000,
            station_input: StationInput::Chilean(ChileanInput::Small),
            recycle_npy: true,
            mw_range: (7.8, 8.4),
            stf: StfKind::Cosine,
            ..Default::default()
        };
        let text = cfg.to_config_file();
        let parsed = FdwConfig::parse(&text).unwrap();
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn parse_custom_station_count() {
        let cfg = FdwConfig::parse("station_input = 60\n").unwrap();
        assert_eq!(cfg.station_input, StationInput::Count(60));
        assert_eq!(cfg.station_input.station_count(), 60);
    }

    #[test]
    fn parse_rejects_unknown_keys_and_bad_values() {
        assert!(FdwConfig::parse("frobnicate = 3\n").is_err());
        assert!(FdwConfig::parse("n_waveforms = many\n").is_err());
        assert!(FdwConfig::parse("n_waveforms 1024\n").is_err());
        assert!(FdwConfig::parse("stf = boxcar\n").is_err());
        // Misspelled fault knobs must error, not inject nothing silently.
        assert!(FdwConfig::parse("fault_transients = 0.1\n").is_err());
        assert!(FdwConfig::parse("fault_transient = lots\n").is_err());
    }

    #[test]
    fn fault_keys_roundtrip() {
        let cfg = FdwConfig {
            retries: 5,
            retry_defer_s: 120,
            job_timeout_s: 7200,
            fault: FaultConfig {
                seed: 99,
                transient_exit_prob: 0.25,
                permanent_job_fraction: 0.01,
                black_hole_fraction: 0.1,
                transfer_fail_prob: 0.05,
                hold_prob: 0.02,
                hold_release_s: 300.0,
                corrupt_prob: 0.03,
                pool: Default::default(),
            },
            ..Default::default()
        };
        let text = cfg.to_config_file();
        assert!(text.contains("fault_transient = 0.25"));
        assert!(text.contains("fault_corrupt = 0.03"));
        let parsed = FdwConfig::parse(&text).unwrap();
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn defense_keys_roundtrip() {
        let cfg = FdwConfig {
            defense: DefenseConfig {
                scoreboard_enabled: true,
                checksum_enabled: true,
            },
            speculation: true,
            ..Default::default()
        };
        let text = cfg.to_config_file();
        assert!(text.contains("defense_scoreboard = true"));
        assert!(text.contains("speculation = true"));
        let parsed = FdwConfig::parse(&text).unwrap();
        assert_eq!(parsed, cfg);
        // Defaults keep every defense off, so legacy configs are
        // untouched by the new knobs.
        let d = FdwConfig::default();
        assert!(!d.defense.any_enabled());
        assert!(!d.speculation);
        assert!(FdwConfig::parse("defense_scoreboards = true\n").is_err());
    }

    #[test]
    fn tuning_constants_are_not_keys() {
        // The scoreboard, speculation and pool-breaker tunings are
        // constants beside the code that reads them, not file keys.
        let text = FdwConfig::default().to_config_file();
        assert_eq!(text.lines().filter(|l| l.contains(" = ")).count(), 56);
        for key in [
            "defense_ewma_alpha",
            "defense_fast_fail_s",
            "defense_deprioritize",
            "defense_blacklist_after",
            "defense_parole_s",
            "defense_checksum_requeue_s",
            "speculation_multiplier",
            "speculation_quantile",
            "speculation_min_samples",
            "federation_breaker_threshold",
            "federation_breaker_probe_s",
        ] {
            let err = FdwConfig::parse(&format!("{key} = 1\n")).unwrap_err();
            assert_eq!(err, format!("line 1: unknown key '{key}'"));
        }
    }

    #[test]
    fn service_keys_roundtrip() {
        let cfg = FdwConfig {
            service: ServiceConfig::defended(6),
            ..Default::default()
        };
        let text = cfg.to_config_file();
        assert!(text.contains("service_enabled = true"));
        assert!(text.contains("service_fair_share = 600"));
        assert!(text.contains("tenant_count = 6"));
        assert!(text.contains("tenant_deadline_shed = true"));
        let parsed = FdwConfig::parse(&text).unwrap();
        assert_eq!(parsed, cfg);
        // Defaults keep the front-end off so legacy configs behave as
        // before.
        assert!(!FdwConfig::default().service.enabled);
        // Inconsistent service knobs fail validation at parse time.
        assert!(FdwConfig::parse("tenant_count = 0\n").is_err());
        assert!(FdwConfig::parse("service_breaker_threshold = 3\n").is_err());
        assert!(FdwConfig::parse("service_degrade_depth = 8\nservice_shed_backlog = 8\n").is_err());
        assert!(
            FdwConfig::parse("service_tenants = 4\n").is_err(),
            "unknown key"
        );
    }

    #[test]
    fn federation_keys_roundtrip() {
        let cfg = FdwConfig {
            federation: FederationConfig {
                enabled: true,
                failover_enabled: true,
                burst_idle_threshold: 12,
                checkpoint_enabled: true,
                checkpoint_interval_s: 90.0,
                cloud_spinup_s: 240.0,
            },
            fault: FaultConfig {
                pool: htcsim::fault::PoolFaultConfig {
                    outage_pool: 1,
                    outage_start_s: 400.0,
                    outage_duration_s: 1800.0,
                    partition_pool: 0,
                    partition_start_s: 120.0,
                    partition_duration_s: 900.0,
                    preempt_prob: 0.35,
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let text = cfg.to_config_file();
        assert!(text.contains("federation_failover = true"));
        assert!(text.contains("checkpoint_interval_s = 90"));
        assert!(text.contains("fault_preempt = 0.35"));
        let parsed = FdwConfig::parse(&text).unwrap();
        assert_eq!(parsed, cfg);
        // Defaults keep the federation off, so legacy configs still run
        // on the single flat pool.
        assert!(!FdwConfig::default().federation.enabled);
        // Bad knob values are rejected at validate time.
        assert!(FdwConfig::parse(
            "federation_enabled = true\ncheckpoint_enabled = true\ncheckpoint_interval_s = 0\n"
        )
        .is_err());
        assert!(FdwConfig::parse("fault_preempt = 1.5\n").is_err());
        assert!(FdwConfig::parse("federation_failovers = true\n").is_err());
    }

    #[test]
    fn fault_probabilities_are_validated() {
        assert!(FdwConfig::parse("fault_transient = 1.5\n").is_err());
        assert!(FdwConfig::parse("fault_hold = -0.1\n").is_err());
    }

    /// `template` with `{}` replaced by each non-finite spelling `f64`
    /// parses must fail validation.
    fn rejects_non_finite(template: &str) {
        for v in ["NaN", "inf", "-inf"] {
            let text = template.replace("{}", v);
            assert!(FdwConfig::parse(&text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn non_finite_hold_release_is_rejected() {
        rejects_non_finite("fault_hold = 0.5\nfault_hold_release_s = {}\n");
    }

    #[test]
    fn non_finite_outage_start_is_rejected() {
        rejects_non_finite("fault_pool_outage_start_s = {}\n");
    }

    #[test]
    fn non_finite_outage_duration_is_rejected() {
        rejects_non_finite("fault_pool_outage_s = {}\n");
    }

    #[test]
    fn non_finite_partition_start_is_rejected() {
        rejects_non_finite("fault_partition_start_s = {}\n");
    }

    #[test]
    fn non_finite_partition_duration_is_rejected() {
        rejects_non_finite("fault_partition_s = {}\n");
    }

    #[test]
    fn non_finite_checkpoint_interval_is_rejected() {
        rejects_non_finite(
            "federation_enabled = true\ncheckpoint_enabled = true\ncheckpoint_interval_s = {}\n",
        );
    }

    #[test]
    fn non_finite_cloud_spinup_is_rejected() {
        rejects_non_finite("federation_enabled = true\nfederation_spinup_s = {}\n");
    }

    #[test]
    fn pool_fault_window_on_a_pool_the_federation_lacks_is_rejected() {
        for key in ["fault_pool_outage", "fault_partition"] {
            let text = format!("federation_enabled = true\n{key}_pool = 7\n{key}_s = 600\n");
            let err = FdwConfig::parse(&text).expect_err(&text);
            assert!(err.contains("pool index below 3"), "{text:?}: {err}");
            let last = format!("federation_enabled = true\n{key}_pool = 2\n{key}_s = 600\n");
            assert!(FdwConfig::parse(&last).is_ok(), "{last:?}");
        }
        // Without a live window the index steers nothing.
        assert!(
            FdwConfig::parse("federation_enabled = true\nfault_pool_outage_pool = 7\n").is_ok()
        );
    }

    #[test]
    fn hold_release_must_be_positive_without_policy_holds_too() {
        // Transfer holds wait the same release time as policy holds.
        for v in ["-30", "0"] {
            let text =
                format!("fault_transfer = 0.1\nfault_hold = 0\nfault_hold_release_s = {v}\n");
            let err = FdwConfig::parse(&text).expect_err(&text);
            assert!(err.contains("hold_release_s"), "{text:?}: {err}");
        }
    }

    #[test]
    fn parse_validates_result() {
        assert!(FdwConfig::parse("n_waveforms = 0\n").is_err());
        assert!(FdwConfig::parse("mw_min = 9.0\nmw_max = 8.0\n").is_err());
        assert!(FdwConfig::parse("fault_nx = 0\n").is_err());
        assert!(FdwConfig::parse("station_input = 0\n").is_err());
        assert!(FdwConfig::parse("ruptures_per_job = 0\n").is_err());
    }

    #[test]
    fn magnitude_range_the_rupture_generator_refuses_is_rejected() {
        for text in ["mw_min = 5.0\n", "mw_min = NaN\n", "mw_max = inf\n"] {
            let err = FdwConfig::parse(text).expect_err(text);
            assert!(err.contains("mw_range"), "{text:?}: {err}");
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let cfg = FdwConfig::parse("# hi\n\nseed = 9 # trailing\n").unwrap();
        assert_eq!(cfg.seed, 9);
    }

    #[test]
    fn station_input_labels() {
        assert_eq!(StationInput::Chilean(ChileanInput::Full).label(), "full");
        assert_eq!(StationInput::Count(7).label(), "7");
    }
}
