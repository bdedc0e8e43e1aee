//! Synthetic GNSS waveform synthesis — the C Phase's science payload.
//!
//! For each rupture scenario and each station, sum over subfaults the
//! station's static Green's function response scaled by that subfault's
//! slip and modulated in time by the source time function delayed by the
//! kinematic onset (plus a travel-time delay from the station–subfault
//! distance). Add GNSS noise. The result is the 3-component, 1 Hz
//! displacement waveform that EEW models train on.

use crate::error::{FqError, FqResult};
use crate::geometry::FaultModel;
use crate::greens::GfLibrary;
use crate::linalg::Matrix;
use crate::noise::NoiseModel;
use crate::rupture::RuptureScenario;
use crate::stf::StfKind;

/// Waveform synthesis parameters.
#[derive(Debug, Clone, Copy)]
pub struct WaveformConfig {
    /// Sample interval in seconds (1.0 for high-rate GNSS).
    pub dt_s: f64,
    /// Total record duration in seconds.
    pub duration_s: f64,
    /// Source time function shape.
    pub stf: StfKind,
    /// Apparent S-wave propagation speed used for travel-time delays, km/s.
    pub s_wave_kms: f64,
    /// Noise model for horizontal components.
    pub noise: NoiseModel,
}

impl Default for WaveformConfig {
    fn default() -> Self {
        Self {
            dt_s: 1.0,
            duration_s: 512.0,
            stf: StfKind::Dreger,
            s_wave_kms: 3.5,
            noise: NoiseModel::default(),
        }
    }
}

impl WaveformConfig {
    /// Number of samples in a record.
    pub fn n_samples(&self) -> usize {
        (self.duration_s / self.dt_s).ceil() as usize
    }

    /// Validate the configuration.
    pub fn validate(&self) -> FqResult<()> {
        if self.dt_s <= 0.0 || self.duration_s <= 0.0 {
            return Err(FqError::Config("dt and duration must be positive".into()));
        }
        if self.s_wave_kms <= 0.0 {
            return Err(FqError::Config("S-wave speed must be positive".into()));
        }
        Ok(())
    }
}

/// A 3-component displacement record at one station.
#[derive(Debug, Clone)]
pub struct GnssWaveform {
    /// Station code.
    pub station_code: String,
    /// Scenario id this waveform belongs to.
    pub scenario_id: u64,
    /// Sample interval, seconds.
    pub dt_s: f64,
    /// East displacement, metres.
    pub east_m: Vec<f64>,
    /// North displacement, metres.
    pub north_m: Vec<f64>,
    /// Up displacement, metres.
    pub up_m: Vec<f64>,
}

impl GnssWaveform {
    /// Number of samples per component.
    pub fn len(&self) -> usize {
        self.east_m.len()
    }

    /// True if the record has no samples.
    pub fn is_empty(&self) -> bool {
        self.east_m.is_empty()
    }

    /// Peak ground displacement: max over time of the 3-D vector norm.
    /// This is the feature EEW magnitude models are built on (Ruhl et al.
    /// 2017).
    pub fn pgd_m(&self) -> f64 {
        let mut peak = 0.0f64;
        for i in 0..self.len() {
            let v =
                (self.east_m[i].powi(2) + self.north_m[i].powi(2) + self.up_m[i].powi(2)).sqrt();
            peak = peak.max(v);
        }
        peak
    }

    /// Final (permanent) static offset vector magnitude, averaged over the
    /// last 5 % of the record to suppress noise.
    pub fn static_offset_m(&self) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        let tail = (n / 20).max(1);
        let avg = |c: &[f64]| crate::simd::lane_sum(&c[n - tail..]) / tail as f64;
        let (e, no, u) = (avg(&self.east_m), avg(&self.north_m), avg(&self.up_m));
        (e * e + no * no + u * u).sqrt()
    }
}

/// Synthesise the waveform for one (scenario, station) pair.
///
/// `station_idx` indexes both `gfs.stations()` and the rows of
/// `station_distances` (the recycled station–subfault matrix).
pub fn synthesize_station(
    fault: &FaultModel,
    gfs: &GfLibrary,
    station_distances: &Matrix,
    scenario: &RuptureScenario,
    station_idx: usize,
    config: &WaveformConfig,
    noise_seed: u64,
) -> FqResult<GnssWaveform> {
    config.validate()?;
    if gfs.n_subfaults() != fault.len() {
        return Err(FqError::Config(format!(
            "GF library covers {} subfaults, fault has {}",
            gfs.n_subfaults(),
            fault.len()
        )));
    }
    if station_idx >= gfs.n_stations() {
        return Err(FqError::Config(format!(
            "station index {station_idx} out of range ({} stations)",
            gfs.n_stations()
        )));
    }
    let sta = &gfs.stations()[station_idx];
    let n = config.n_samples();
    let mut east = vec![0.0; n];
    let mut north = vec![0.0; n];
    let mut up = vec![0.0; n];

    for (j, resp) in sta.responses.iter().enumerate() {
        let slip = scenario.slip_m[j];
        if slip <= 0.0 {
            continue;
        }
        let onset = scenario.onset_s[j];
        let travel = station_distances[(station_idx, j)] / config.s_wave_kms;
        let t0 = onset + travel;
        let rise = scenario.rise_time_s[j];
        // Hoist the onset test out of the sample loop: find the first k
        // with `k·dt > t0` (the same predicate the loop used to evaluate
        // per sample). The guess from division is corrected by exact
        // comparisons in both directions, so no sample is mis-classified
        // by floating-point rounding of the quotient.
        let mut k_start = ((t0 / config.dt_s).max(0.0) as usize).min(n);
        while k_start > 0 && (k_start - 1) as f64 * config.dt_s > t0 {
            k_start -= 1;
        }
        while k_start < n && k_start as f64 * config.dt_s <= t0 {
            k_start += 1;
        }
        // Split the loop at the first sample whose lag (computed exactly
        // as the STF sees it) reaches `settled_after`: from there on the
        // STF is exactly 1.0, so `slip * f == slip` and the rest of the
        // record gains the constant `resp * slip`. Every sample still
        // sums its subfaults in index order, so no output bit changes.
        let settled = config.stf.settled_after(rise);
        let k_settled = (k_start..n)
            .find(|&k| k as f64 * config.dt_s - t0 >= settled)
            .unwrap_or(n);
        for k in k_start..k_settled {
            let t = k as f64 * config.dt_s;
            let f = config.stf.cumulative(t - t0, rise);
            if f <= 0.0 {
                continue;
            }
            let s = slip * f;
            east[k] += resp.e * s;
            north[k] += resp.n * s;
            up[k] += resp.u * s;
        }
        for (series, r) in [(&mut east, resp.e), (&mut north, resp.n), (&mut up, resp.u)] {
            let c = r * slip;
            for v in &mut series[k_settled..] {
                *v += c;
            }
        }
    }

    // Independent noise per component; vertical is noisier.
    let base = noise_seed
        .wrapping_mul(0x2545_F491_4F6C_DD1D)
        .wrapping_add(scenario.id)
        .wrapping_add(station_idx as u64);
    for (c, (series, model)) in [
        (&mut east, config.noise),
        (&mut north, config.noise),
        (&mut up, config.noise.vertical()),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, p)| (i as u64, p))
    {
        let noise = model.generate(n, config.dt_s, base.wrapping_add(c * 7919));
        for (s, nz) in series.iter_mut().zip(noise) {
            *s += nz;
        }
    }

    Ok(GnssWaveform {
        station_code: sta.station_code.clone(),
        scenario_id: scenario.id,
        dt_s: config.dt_s,
        east_m: east,
        north_m: north,
        up_m: up,
    })
}

/// Synthesise waveforms for every station in the library for one scenario,
/// in parallel through [`crate::par`]. This is what one C-Phase job
/// computes per scenario. Each station is a pure function of its index,
/// so the result is bitwise [`synthesize_all_stations_seq`]'s.
pub fn synthesize_all_stations(
    fault: &FaultModel,
    gfs: &GfLibrary,
    station_distances: &Matrix,
    scenario: &RuptureScenario,
    config: &WaveformConfig,
    noise_seed: u64,
) -> FqResult<Vec<GnssWaveform>> {
    crate::par::map_indexed(gfs.n_stations(), 1, |si| {
        synthesize_station(
            fault,
            gfs,
            station_distances,
            scenario,
            si,
            config,
            noise_seed,
        )
    })
    .into_iter()
    .collect()
}

/// Sequential variant of [`synthesize_all_stations`] for the
/// Rayon-vs-sequential ablation bench.
pub fn synthesize_all_stations_seq(
    fault: &FaultModel,
    gfs: &GfLibrary,
    station_distances: &Matrix,
    scenario: &RuptureScenario,
    config: &WaveformConfig,
    noise_seed: u64,
) -> FqResult<Vec<GnssWaveform>> {
    (0..gfs.n_stations())
        .map(|si| {
            synthesize_station(
                fault,
                gfs,
                station_distances,
                scenario,
                si,
                config,
                noise_seed,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceMatrices;
    use crate::rupture::{RuptureConfig, RuptureGenerator};
    use crate::stations::{ChileanInput, StationNetwork};

    struct Fixture {
        fault: FaultModel,
        gfs: GfLibrary,
        dists: DistanceMatrices,
        scenario: RuptureScenario,
    }

    fn fixture() -> Fixture {
        let fault = FaultModel::chilean_subduction(12, 6).unwrap();
        let net = StationNetwork::chilean_input(ChileanInput::Small, 1);
        let dists = DistanceMatrices::compute(&fault, &net);
        let gfs = GfLibrary::compute(&fault, &net).unwrap();
        let gen = RuptureGenerator::new(
            &fault,
            &dists.subfault_to_subfault,
            RuptureConfig {
                mw_range: (8.5, 8.5),
                ..Default::default()
            },
        )
        .unwrap();
        let scenario = gen.generate(1, 0);
        Fixture {
            fault,
            gfs,
            dists,
            scenario,
        }
    }

    fn quiet_config() -> WaveformConfig {
        WaveformConfig {
            noise: NoiseModel::none(),
            ..Default::default()
        }
    }

    #[test]
    fn waveform_has_configured_length() {
        let fx = fixture();
        let w = synthesize_station(
            &fx.fault,
            &fx.gfs,
            &fx.dists.station_to_subfault,
            &fx.scenario,
            0,
            &quiet_config(),
            1,
        )
        .unwrap();
        assert_eq!(w.len(), 512);
        assert!(!w.is_empty());
        assert_eq!(w.north_m.len(), 512);
        assert_eq!(w.up_m.len(), 512);
        assert_eq!(w.scenario_id, 0);
    }

    #[test]
    fn starts_at_zero_and_reaches_permanent_offset() {
        let fx = fixture();
        let w = synthesize_station(
            &fx.fault,
            &fx.gfs,
            &fx.dists.station_to_subfault,
            &fx.scenario,
            0,
            &quiet_config(),
            1,
        )
        .unwrap();
        assert_eq!(w.east_m[0], 0.0);
        assert_eq!(w.north_m[0], 0.0);
        assert_eq!(w.up_m[0], 0.0);
        let offset = w.static_offset_m();
        assert!(
            offset > 1e-4,
            "Mw 8.5 should displace a Chilean station: {offset}"
        );
        // Displacement settles: last two samples nearly equal.
        let n = w.len();
        assert!((w.east_m[n - 1] - w.east_m[n - 2]).abs() < 1e-6);
    }

    #[test]
    fn pgd_bounds_static_offset() {
        let fx = fixture();
        let w = synthesize_station(
            &fx.fault,
            &fx.gfs,
            &fx.dists.station_to_subfault,
            &fx.scenario,
            0,
            &quiet_config(),
            1,
        )
        .unwrap();
        assert!(w.pgd_m() >= w.static_offset_m() * 0.99);
    }

    #[test]
    fn noise_changes_but_does_not_dominate() {
        let fx = fixture();
        let quiet = synthesize_station(
            &fx.fault,
            &fx.gfs,
            &fx.dists.station_to_subfault,
            &fx.scenario,
            0,
            &quiet_config(),
            1,
        )
        .unwrap();
        let noisy = synthesize_station(
            &fx.fault,
            &fx.gfs,
            &fx.dists.station_to_subfault,
            &fx.scenario,
            0,
            &WaveformConfig::default(),
            1,
        )
        .unwrap();
        assert_ne!(quiet.east_m, noisy.east_m);
        // Signal-to-noise for a Mw 8.5 nearby event must be comfortably > 1.
        let diff: f64 = quiet
            .east_m
            .iter()
            .zip(&noisy.east_m)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / quiet.len() as f64;
        assert!(
            diff < quiet.pgd_m(),
            "noise {diff} vs pgd {}",
            quiet.pgd_m()
        );
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let fx = fixture();
        let cfg = quiet_config();
        let par = synthesize_all_stations(
            &fx.fault,
            &fx.gfs,
            &fx.dists.station_to_subfault,
            &fx.scenario,
            &cfg,
            2,
        )
        .unwrap();
        let seq = synthesize_all_stations_seq(
            &fx.fault,
            &fx.gfs,
            &fx.dists.station_to_subfault,
            &fx.scenario,
            &cfg,
            2,
        )
        .unwrap();
        assert_eq!(par.len(), seq.len());
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(a.east_m, b.east_m);
            assert_eq!(a.station_code, b.station_code);
        }
    }

    #[test]
    fn bad_station_index_rejected() {
        let fx = fixture();
        assert!(synthesize_station(
            &fx.fault,
            &fx.gfs,
            &fx.dists.station_to_subfault,
            &fx.scenario,
            99,
            &quiet_config(),
            1,
        )
        .is_err());
    }

    #[test]
    fn bad_config_rejected() {
        let fx = fixture();
        let cfg = WaveformConfig {
            dt_s: 0.0,
            ..Default::default()
        };
        assert!(synthesize_station(
            &fx.fault,
            &fx.gfs,
            &fx.dists.station_to_subfault,
            &fx.scenario,
            0,
            &cfg,
            1,
        )
        .is_err());
        assert!(WaveformConfig {
            duration_s: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(WaveformConfig {
            s_wave_kms: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn n_samples_rounds_up() {
        let cfg = WaveformConfig {
            dt_s: 1.0,
            duration_s: 511.5,
            ..Default::default()
        };
        assert_eq!(cfg.n_samples(), 512);
    }

    #[test]
    fn noise_seed_changes_noise_only() {
        let fx = fixture();
        let cfg = WaveformConfig::default();
        let a = synthesize_station(
            &fx.fault,
            &fx.gfs,
            &fx.dists.station_to_subfault,
            &fx.scenario,
            0,
            &cfg,
            1,
        )
        .unwrap();
        let b = synthesize_station(
            &fx.fault,
            &fx.gfs,
            &fx.dists.station_to_subfault,
            &fx.scenario,
            0,
            &cfg,
            2,
        )
        .unwrap();
        assert_ne!(a.east_m, b.east_m);
        // Static offsets agree to within the accumulated random-walk level.
        assert!((a.static_offset_m() - b.static_offset_m()).abs() < 0.2);
    }
}
