//! Frequency-domain analysis of synthetic waveforms.
//!
//! Goldberg & Melgar (2020) validated FakeQuakes products against real
//! earthquakes "in both frequency and time domains" (paper §2). This
//! module provides the frequency side: a radix-2 FFT, amplitude spectra,
//! and the spectral comparison metric used to check that synthetic
//! waveforms carry energy where real GNSS records do (low frequencies,
//! with a corner controlled by rise time and rupture duration).

use crate::error::{FqError, FqResult};
use crate::waveform::GnssWaveform;

/// In-place radix-2 decimation-in-time FFT over interleaved complex
/// samples `(re, im)`. Length must be a power of two.
pub fn fft_in_place(data: &mut [(f64, f64)]) -> FqResult<()> {
    let n = data.len();
    if n == 0 {
        return Ok(());
    }
    if !n.is_power_of_two() {
        return Err(FqError::Config(format!(
            "FFT length {n} is not a power of two"
        )));
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u64).reverse_bits() >> (64 - bits) as u64;
        let j = j as usize;
        if j > i {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        for start in (0..n).step_by(len) {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let (ar, ai) = data[start + k];
                let (br, bi) = data[start + k + len / 2];
                let (tr, ti) = (br * cr - bi * ci, br * ci + bi * cr);
                data[start + k] = (ar + tr, ai + ti);
                data[start + k + len / 2] = (ar - tr, ai - ti);
                let (ncr, nci) = (cr * wr - ci * wi, cr * wi + ci * wr);
                cr = ncr;
                ci = nci;
            }
        }
        len *= 2;
    }
    Ok(())
}

/// One-sided amplitude spectrum of a real time series.
///
/// The series is zero-padded to the next power of two; returns
/// `(frequencies_hz, amplitudes)` for bins `0..=n/2`. Amplitudes are
/// normalised by the (padded) length so a unit-amplitude sinusoid shows
/// ~0.5 in its bin.
pub fn amplitude_spectrum(series: &[f64], dt_s: f64) -> FqResult<(Vec<f64>, Vec<f64>)> {
    if series.is_empty() {
        return Err(FqError::Config("cannot transform an empty series".into()));
    }
    if dt_s <= 0.0 {
        return Err(FqError::Config("sample interval must be positive".into()));
    }
    let n = series.len().next_power_of_two();
    let mut buf: Vec<(f64, f64)> = series
        .iter()
        .map(|x| (*x, 0.0))
        .chain(std::iter::repeat((0.0, 0.0)))
        .take(n)
        .collect();
    fft_in_place(&mut buf)?;
    let df = 1.0 / (n as f64 * dt_s);
    let half = n / 2;
    let freqs: Vec<f64> = (0..=half).map(|k| k as f64 * df).collect();
    let amps: Vec<f64> = (0..=half)
        .map(|k| {
            let (re, im) = buf[k];
            (re * re + im * im).sqrt() / n as f64
        })
        .collect();
    Ok((freqs, amps))
}

/// Spectral summary of one waveform component, the quantities the
/// Goldberg & Melgar comparison inspects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralSummary {
    /// Amplitude-weighted mean frequency, Hz.
    pub centroid_hz: f64,
    /// Fraction of spectral energy below 0.05 Hz (the long-period band
    /// where GNSS uniquely outperforms inertial sensors).
    pub low_freq_energy_fraction: f64,
    /// Frequency of the largest non-DC amplitude bin, Hz.
    pub peak_hz: f64,
}

/// Compute the spectral summary of a waveform's east component (the
/// horizontal with the largest interface-thrust signal). A non-finite
/// sample is a format error: it would leave no spectrum to summarise.
pub fn spectral_summary(w: &GnssWaveform) -> FqResult<SpectralSummary> {
    if let Some(i) = w.east_m.iter().position(|x| !x.is_finite()) {
        return Err(FqError::Format(format!(
            "east component sample {i} is {}",
            w.east_m[i]
        )));
    }
    let (freqs, amps) = amplitude_spectrum(&w.east_m, w.dt_s)?;
    // Skip DC: static offsets dominate bin 0 by construction.
    let total_energy: f64 = amps.iter().skip(1).map(|a| a * a).sum();
    if total_energy <= 0.0 {
        return Ok(SpectralSummary {
            centroid_hz: 0.0,
            low_freq_energy_fraction: 0.0,
            peak_hz: 0.0,
        });
    }
    let weighted: Vec<f64> = freqs
        .iter()
        .zip(&amps)
        .skip(1)
        .map(|(f, a)| f * a * a)
        .collect();
    let centroid = crate::simd::lane_sum(&weighted) / total_energy;
    let low: f64 = freqs
        .iter()
        .zip(&amps)
        .skip(1)
        .filter(|(f, _)| **f <= 0.05)
        .map(|(_, a)| a * a)
        .sum();
    let peak_idx = amps
        .iter()
        .enumerate()
        .skip(1)
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    Ok(SpectralSummary {
        centroid_hz: centroid,
        low_freq_energy_fraction: low / total_energy,
        peak_hz: freqs[peak_idx],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_of_delta_is_flat() {
        let mut data = vec![(0.0, 0.0); 8];
        data[0] = (1.0, 0.0);
        fft_in_place(&mut data).unwrap();
        for (re, im) in data {
            assert!((re - 1.0).abs() < 1e-12);
            assert!(im.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_rejects_non_power_of_two() {
        let mut data = vec![(0.0, 0.0); 6];
        assert!(fft_in_place(&mut data).is_err());
        assert!(fft_in_place(&mut []).is_ok());
    }

    #[test]
    fn parseval_energy_conserved() {
        let n = 64;
        let series: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 * 0.3 - 1.0).collect();
        let mut buf: Vec<(f64, f64)> = series.iter().map(|x| (*x, 0.0)).collect();
        fft_in_place(&mut buf).unwrap();
        let time_energy: f64 = series.iter().map(|x| x * x).sum();
        let freq_energy: f64 = buf.iter().map(|(r, i)| r * r + i * i).sum::<f64>() / n as f64;
        assert!(
            (time_energy - freq_energy).abs() < 1e-9 * time_energy.max(1.0),
            "{time_energy} vs {freq_energy}"
        );
    }

    #[test]
    fn sinusoid_peaks_in_its_bin() {
        let n = 256;
        let dt = 1.0;
        let cycle_bin = 16; // frequency = 16/(256*1) Hz
        let series: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * cycle_bin as f64 * i as f64 / n as f64).sin())
            .collect();
        let (freqs, amps) = amplitude_spectrum(&series, dt).unwrap();
        let peak = amps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, cycle_bin);
        assert!((freqs[peak] - cycle_bin as f64 / 256.0).abs() < 1e-12);
        assert!((amps[peak] - 0.5).abs() < 1e-9, "amp {}", amps[peak]);
    }

    #[test]
    fn spectrum_errors() {
        assert!(amplitude_spectrum(&[], 1.0).is_err());
        assert!(amplitude_spectrum(&[1.0], 0.0).is_err());
    }

    #[test]
    fn non_finite_sample_is_a_format_error() {
        let mut w = GnssWaveform {
            station_code: "NAN1".into(),
            scenario_id: 0,
            dt_s: 1.0,
            east_m: (0..64).map(|i| (i as f64 * 0.3).sin()).collect(),
            north_m: vec![0.0; 64],
            up_m: vec![0.0; 64],
        };
        assert!(spectral_summary(&w).is_ok());
        w.east_m[5] = f64::NAN;
        match spectral_summary(&w) {
            Err(FqError::Format(msg)) => assert!(msg.contains("sample 5"), "{msg}"),
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    #[test]
    fn synthetic_waveforms_are_long_period_dominated() {
        // FakeQuakes-style GNSS displacement records concentrate energy at
        // long periods — the property that makes GNSS valuable for large-
        // event EEW (Ruhl et al. 2017).
        use crate::distance::DistanceMatrices;
        use crate::geometry::FaultModel;
        use crate::greens::GfLibrary;
        use crate::noise::NoiseModel;
        use crate::rupture::{RuptureConfig, RuptureGenerator};
        use crate::stations::StationNetwork;
        use crate::waveform::{synthesize_station, WaveformConfig};

        let fault = FaultModel::chilean_subduction(12, 6).unwrap();
        let net = StationNetwork::chilean(3, 1).unwrap();
        let d = DistanceMatrices::compute(&fault, &net);
        let gfs = GfLibrary::compute(&fault, &net).unwrap();
        let gen = RuptureGenerator::new(
            &fault,
            &d.subfault_to_subfault,
            RuptureConfig {
                mw_range: (8.5, 8.5),
                ..Default::default()
            },
        )
        .unwrap();
        let sc = gen.generate(2, 0);
        let w = synthesize_station(
            &fault,
            &gfs,
            &d.station_to_subfault,
            &sc,
            0,
            &WaveformConfig {
                duration_s: 512.0,
                noise: NoiseModel::none(),
                ..Default::default()
            },
            1,
        )
        .unwrap();
        let s = spectral_summary(&w).unwrap();
        assert!(
            s.low_freq_energy_fraction > 0.5,
            "long-period fraction {}",
            s.low_freq_energy_fraction
        );
        assert!(s.centroid_hz < 0.1, "centroid {}", s.centroid_hz);
        assert!(s.peak_hz < 0.05, "peak {}", s.peak_hz);
    }

    #[test]
    fn flat_record_summary_is_zero() {
        let w = GnssWaveform {
            station_code: "X".into(),
            scenario_id: 0,
            dt_s: 1.0,
            east_m: vec![0.0; 64],
            north_m: vec![0.0; 64],
            up_m: vec![0.0; 64],
        };
        let s = spectral_summary(&w).unwrap();
        assert_eq!(s.centroid_hz, 0.0);
        assert_eq!(s.low_freq_energy_fraction, 0.0);
    }
}
