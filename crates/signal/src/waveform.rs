//! Sampled waveform synthesis for the software tone detector.
//!
//! Figure 10 of the paper shows the DFT filter's response to "clean" and
//! "noisy" signals containing periodic constant-frequency chirps. This
//! module synthesizes such waveforms — tone bursts with speaker ramp-up,
//! optional echoes and additive Gaussian noise — so that the `rl-bench`
//! harness can regenerate the figure and tests can exercise the detector on
//! controlled inputs.

use rand::Rng;
use rl_math::rng::GaussianSampler;
use serde::{Deserialize, Serialize};

/// Description of a periodic chirp waveform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WaveformSpec {
    /// Total length in samples.
    pub len: usize,
    /// Beacon frequency as a fraction of the sampling rate (0.25 targets
    /// the XSM filter's `fs/4` band).
    pub freq_fraction: f64,
    /// Chirp amplitude (arbitrary units; Figure 10's axis spans ±1500).
    pub amplitude: f64,
    /// Chirp length in samples.
    pub chirp_len: usize,
    /// Interval between chirp starts in samples.
    pub period: usize,
    /// First chirp start in samples.
    pub first_start: usize,
    /// Number of chirps.
    pub n_chirps: usize,
    /// Linear amplitude ramp-up length at the start of each chirp, samples.
    pub rampup: usize,
    /// Standard deviation of additive white Gaussian noise.
    pub noise_sigma: f64,
}

impl WaveformSpec {
    /// The "clean" four-chirp waveform of Figure 10 (left).
    pub fn figure10_clean() -> Self {
        WaveformSpec {
            len: 800,
            freq_fraction: 0.25,
            amplitude: 1_000.0,
            chirp_len: 80,
            period: 200,
            first_start: 60,
            n_chirps: 4,
            rampup: 12,
            noise_sigma: 0.0,
        }
    }

    /// The "noisy" variant of Figure 10 (right): the same chirps buried in
    /// wide-band noise of comparable amplitude.
    pub fn figure10_noisy() -> Self {
        WaveformSpec {
            noise_sigma: 320.0,
            ..WaveformSpec::figure10_clean()
        }
    }

    /// Ground-truth chirp onset indices.
    pub fn chirp_onsets(&self) -> Vec<usize> {
        (0..self.n_chirps)
            .map(|i| self.first_start + i * self.period)
            .filter(|&s| s < self.len)
            .collect()
    }

    /// Synthesizes the waveform.
    pub fn synthesize<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut wave = vec![0.0f64; self.len];
        for onset in self.chirp_onsets() {
            add_tone_burst(
                &mut wave,
                onset,
                self.chirp_len,
                self.freq_fraction,
                self.amplitude,
                self.rampup,
            );
        }
        if self.noise_sigma > 0.0 {
            let mut g = GaussianSampler::new();
            for w in wave.iter_mut() {
                *w += g.sample_with(rng, 0.0, self.noise_sigma);
            }
        }
        wave
    }
}

/// Adds a tone burst in place: `len` samples at `freq_fraction` of the
/// sampling rate, amplitude ramping linearly over the first `rampup`
/// samples (the analog speaker "may take some time before … its maximum
/// output power level", Section 3.4).
pub fn add_tone_burst(
    wave: &mut [f64],
    start: usize,
    len: usize,
    freq_fraction: f64,
    amplitude: f64,
    rampup: usize,
) {
    for j in 0..len {
        let idx = start + j;
        if idx >= wave.len() {
            break;
        }
        let ramp = if rampup > 0 {
            ((j + 1) as f64 / rampup as f64).min(1.0)
        } else {
            1.0
        };
        wave[idx] += amplitude * ramp * (core::f64::consts::TAU * freq_fraction * idx as f64).sin();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{Band, XsmToneDetector};
    use rl_math::rng::seeded;

    /// Root-mean-square amplitude of a waveform segment.
    fn rms(wave: &[f64]) -> f64 {
        if wave.is_empty() {
            return 0.0;
        }
        (wave.iter().map(|s| s * s).sum::<f64>() / wave.len() as f64).sqrt()
    }

    #[test]
    fn clean_spec_has_four_onsets() {
        let spec = WaveformSpec::figure10_clean();
        assert_eq!(spec.chirp_onsets(), vec![60, 260, 460, 660]);
    }

    #[test]
    fn synthesized_clean_wave_has_energy_only_in_chirps() {
        let spec = WaveformSpec::figure10_clean();
        let wave = spec.synthesize(&mut seeded(1));
        assert_eq!(wave.len(), 800);
        // Quiet before the first chirp.
        assert_eq!(rms(&wave[0..60]), 0.0);
        // Loud inside a chirp.
        assert!(rms(&wave[80..130]) > 400.0);
        // Quiet again in the gap.
        assert_eq!(rms(&wave[150..250]), 0.0);
    }

    #[test]
    fn noisy_wave_has_floor_everywhere() {
        let spec = WaveformSpec::figure10_noisy();
        let wave = spec.synthesize(&mut seeded(2));
        let gap_rms = rms(&wave[150..250]);
        assert!(
            (gap_rms - spec.noise_sigma).abs() < 0.3 * spec.noise_sigma,
            "gap rms {gap_rms}"
        );
    }

    #[test]
    fn detector_finds_all_clean_chirps() {
        let spec = WaveformSpec::figure10_clean();
        let wave = spec.synthesize(&mut seeded(3));
        let mut det = XsmToneDetector::new(Band::Quarter);
        let onsets = det.detect_chirps(&wave, 24);
        assert_eq!(onsets.len(), 4, "onsets {onsets:?}");
        for (found, expected) in onsets.iter().zip(spec.chirp_onsets()) {
            assert!(
                (*found as i64 - expected as i64).unsigned_abs() < 60,
                "found {found} expected {expected}"
            );
        }
    }

    #[test]
    fn detector_finds_most_noisy_chirps_without_false_positives() {
        // Figure 10 (right): three of the four chirps detected, no false
        // positives. We accept 2-4 detections but verify each aligns with a
        // true chirp.
        let spec = WaveformSpec::figure10_noisy();
        let wave = spec.synthesize(&mut seeded(4));
        let mut det = XsmToneDetector::new(Band::Quarter);
        let onsets = det.detect_chirps(&wave, 24);
        assert!(
            (2..=4).contains(&onsets.len()),
            "expected 2-4 detections, got {onsets:?}"
        );
        for found in &onsets {
            let aligned = spec
                .chirp_onsets()
                .iter()
                .any(|&e| (*found as i64 - e as i64).unsigned_abs() < spec.chirp_len as u64);
            assert!(aligned, "false positive at {found}");
        }
    }

    #[test]
    fn tone_burst_ramp_and_bounds() {
        let mut wave = vec![0.0; 100];
        add_tone_burst(&mut wave, 90, 50, 0.25, 1.0, 4);
        // Does not write out of bounds and is non-zero near the end.
        assert!(wave[95].abs() <= 1.0 + 1e-12);
        let mut flat = vec![0.0; 64];
        add_tone_burst(&mut flat, 0, 64, 0.25, 2.0, 0);
        assert!(rms(&flat) > 1.0);
    }
}
