//! The XSM software tone detector of Figure 9: a 36-sample sliding DFT.
//!
//! Platforms without the MICA hardware tone detector (e.g. Crossbow's XSM
//! mote) sample the microphone directly. The paper's filter maintains a
//! circular buffer of 36 raw samples and incrementally updates the DFT
//! coefficients of two beacon bands — `fs/4` and `fs/6` — chosen "to
//! minimize the need for numerical calculations when multiplying the samples
//! by the complex roots of unity": the `fs/4` coefficients are
//! `{1, 0, −1, 0}` and the `fs/6` ones `{2, 1, −1, −2, −1, 1}` (real) and
//! `{0, 1, 1, 0, −1, −1}` (imaginary).
//!
//! For noise rejection the paper suggests isolating the noise amplitude and
//! subtracting it from the DFT output; [`XsmToneDetector`] implements that
//! with a running broadband-energy estimate.

use serde::{Deserialize, Serialize};

/// Window length of the sliding DFT (a common multiple of 4 and 6).
pub const WINDOW: usize = 36;

/// Band amplitudes returned by one [`XsmFilter::filter`] step.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BandAmplitudes {
    /// Squared amplitude of the `fs/4` band: `re4² + im4²`.
    pub quarter: f64,
    /// Squared amplitude of the `fs/6` band: `(re6² + 3·im6²) / 2`.
    pub sixth: f64,
}

/// Figure 9's sliding-DFT filter, translated verbatim.
///
/// # Example
///
/// ```
/// use rl_signal::dft::XsmFilter;
///
/// let mut filter = XsmFilter::new();
/// let fs = 16_000.0;
/// // Feed a pure tone at fs/4; the quarter band lights up.
/// let mut last = Default::default();
/// for i in 0..200 {
///     let t = i as f64 / fs;
///     last = filter.filter((2.0 * std::f64::consts::PI * (fs / 4.0) * t).sin());
/// }
/// assert!(last.quarter > 10.0 * last.sixth);
/// ```
#[derive(Debug, Clone)]
pub struct XsmFilter {
    samples: [f64; WINDOW],
    n: usize,
    k: usize,
    re4: f64,
    im4: f64,
    re6: f64,
    im6: f64,
}

impl XsmFilter {
    /// Creates a filter with an all-zero window (Figure 9's `init`).
    pub fn new() -> Self {
        XsmFilter {
            samples: [0.0; WINDOW],
            n: 0,
            k: 0,
            re4: 0.0,
            im4: 0.0,
            re6: 0.0,
            im6: 0.0,
        }
    }

    /// Resets the filter to its initial state.
    pub fn reset(&mut self) {
        *self = XsmFilter::new();
    }

    /// Consumes one raw microphone sample and returns the updated band
    /// amplitudes (Figure 9's `filter`).
    pub fn filter(&mut self, sample: f64) -> BandAmplitudes {
        // `sample -= samples[n], samples[n] += sample`: compute the delta
        // against the sample leaving the window and store the new value.
        let delta = sample - self.samples[self.n];
        self.samples[self.n] += delta;

        match self.n % 4 {
            0 => self.re4 += delta,
            1 => self.im4 += delta,
            2 => self.re4 -= delta,
            _ => self.im4 -= delta,
        }
        match self.k {
            0 => self.re6 += 2.0 * delta,
            1 => {
                self.re6 += delta;
                self.im6 += delta;
            }
            2 => {
                self.re6 -= delta;
                self.im6 += delta;
            }
            3 => self.re6 -= 2.0 * delta,
            4 => {
                self.re6 -= delta;
                self.im6 -= delta;
            }
            _ => {
                self.re6 += delta;
                self.im6 -= delta;
            }
        }

        self.n = (self.n + 1) % WINDOW;
        self.k = (self.k + 1) % 6;

        BandAmplitudes {
            quarter: self.re4 * self.re4 + self.im4 * self.im4,
            sixth: (self.re6 * self.re6 + 3.0 * self.im6 * self.im6) / 2.0,
        }
    }

    /// Mean per-sample energy of the current window (broadband noise-floor
    /// proxy; by Parseval the average DFT magnitude over all bins tracks
    /// this quantity).
    pub fn window_energy(&self) -> f64 {
        self.samples.iter().map(|s| s * s).sum::<f64>() / WINDOW as f64
    }
}

impl Default for XsmFilter {
    fn default() -> Self {
        XsmFilter::new()
    }
}

/// Beacon band selector for [`XsmToneDetector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Band {
    /// Beacon at one quarter of the sampling rate.
    Quarter,
    /// Beacon at one sixth of the sampling rate.
    Sixth,
}

/// Tone detector with noise-floor subtraction built on [`XsmFilter`].
///
/// The squared band amplitude is normalized to a per-sample tone-power
/// estimate and compared against the broadband window energy; a sample is a
/// detection when `band_power > ratio * window_energy`. For a pure tone the
/// normalized band power is about twice the window energy, while for white
/// noise it is about one ninth of it, so the default ratio of 0.75 separates
/// the two cleanly.
#[derive(Debug, Clone)]
pub struct XsmToneDetector {
    filter: XsmFilter,
    band: Band,
    ratio: f64,
}

impl XsmToneDetector {
    /// Creates a detector for the chosen beacon band with the default
    /// detection ratio.
    pub fn new(band: Band) -> Self {
        XsmToneDetector {
            filter: XsmFilter::new(),
            band,
            ratio: 0.75,
        }
    }

    /// Consumes one sample; returns `(filtered_output, detected)`, where
    /// `filtered_output` is the noise-subtracted band power (the "filtered
    /// signal" trace of Figure 10).
    pub fn step(&mut self, sample: f64) -> (f64, bool) {
        let amps = self.filter.filter(sample);
        let raw = match self.band {
            Band::Quarter => amps.quarter,
            Band::Sixth => amps.sixth,
        };
        // Normalize: a full-scale aligned tone yields (WINDOW/2)^2 * A^2.
        let band_power = raw / ((WINDOW as f64 / 2.0) * (WINDOW as f64 / 2.0)) * 2.0;
        let noise = self.filter.window_energy();
        let output = band_power - self.ratio * noise;
        // The absolute floor guards against incremental-DFT floating-point
        // drift reading as a (vanishingly small) positive output in silence.
        (output, output > 1e-6)
    }

    /// Runs the detector over a whole waveform and returns the indices of
    /// detected chirp onsets: positions where detection turns on and stays
    /// on for at least `min_run` samples.
    pub fn detect_chirps(&mut self, waveform: &[f64], min_run: usize) -> Vec<usize> {
        let mut onsets = Vec::new();
        let mut run = 0usize;
        let mut candidate = None;
        for (i, &s) in waveform.iter().enumerate() {
            let (_, hit) = self.step(s);
            if hit {
                if run == 0 {
                    candidate = Some(i);
                }
                run += 1;
                if run == min_run {
                    if let Some(c) = candidate.take() {
                        onsets.push(c);
                    }
                }
            } else {
                run = 0;
                candidate = None;
            }
        }
        onsets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq_fraction: f64, n: usize, amplitude: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amplitude * (core::f64::consts::TAU * freq_fraction * i as f64).sin())
            .collect()
    }

    #[test]
    fn quarter_band_tone_excites_quarter_output() {
        let mut f = XsmFilter::new();
        let mut last = BandAmplitudes {
            quarter: 0.0,
            sixth: 0.0,
        };
        for s in tone(0.25, 144, 1.0) {
            last = f.filter(s);
        }
        assert!(
            last.quarter > 20.0 * last.sixth.max(1e-9),
            "quarter {} sixth {}",
            last.quarter,
            last.sixth
        );
        // Aligned full-scale tone: re4^2+im4^2 close to (W/2)^2.
        assert!(last.quarter > 0.5 * (WINDOW as f64 / 2.0).powi(2));
    }

    #[test]
    fn sixth_band_tone_excites_sixth_output() {
        let mut f = XsmFilter::new();
        let mut last = BandAmplitudes {
            quarter: 0.0,
            sixth: 0.0,
        };
        for s in tone(1.0 / 6.0, 144, 1.0) {
            last = f.filter(s);
        }
        assert!(
            last.sixth > 20.0 * last.quarter.max(1e-9),
            "quarter {} sixth {}",
            last.quarter,
            last.sixth
        );
    }

    #[test]
    fn silence_produces_zero_output() {
        let mut f = XsmFilter::new();
        let mut out = BandAmplitudes {
            quarter: 1.0,
            sixth: 1.0,
        };
        for _ in 0..100 {
            out = f.filter(0.0);
        }
        assert_eq!(out.quarter, 0.0);
        assert_eq!(out.sixth, 0.0);
        assert_eq!(f.window_energy(), 0.0);
    }

    #[test]
    fn off_band_tone_stays_quiet() {
        // A tone at fs/8 should excite neither band strongly.
        let mut f = XsmFilter::new();
        let mut peak_quarter: f64 = 0.0;
        for s in tone(0.125, 288, 1.0) {
            let a = f.filter(s);
            peak_quarter = peak_quarter.max(a.quarter);
        }
        let full_scale = (WINDOW as f64 / 2.0).powi(2);
        assert!(
            peak_quarter < 0.15 * full_scale,
            "fs/8 leakage into quarter band: {peak_quarter}"
        );
    }

    #[test]
    fn sliding_window_forgets_old_samples() {
        let mut f = XsmFilter::new();
        for s in tone(0.25, 72, 1.0) {
            f.filter(s);
        }
        // Now feed silence for a full window; the tone must wash out.
        let mut out = BandAmplitudes {
            quarter: 1.0,
            sixth: 1.0,
        };
        for _ in 0..WINDOW {
            out = f.filter(0.0);
        }
        assert!(out.quarter < 1e-9, "stale energy {}", out.quarter);
    }

    #[test]
    fn incremental_matches_direct_dft() {
        // The incremental sums must equal a direct DFT over the window.
        let wave = tone(0.23, 90, 0.8);
        let mut f = XsmFilter::new();
        let mut last = BandAmplitudes {
            quarter: 0.0,
            sixth: 0.0,
        };
        for &s in &wave {
            last = f.filter(s);
        }
        // Direct computation over the final 36 samples, mapping each sample
        // to its buffer slot coefficient (slot = global index % 36).
        let start = wave.len() - WINDOW;
        let (mut re4, mut im4, mut re6, mut im6) = (0.0, 0.0, 0.0, 0.0);
        for (offset, &s) in wave[start..].iter().enumerate() {
            let slot = (start + offset) % WINDOW;
            match slot % 4 {
                0 => re4 += s,
                1 => im4 += s,
                2 => re4 -= s,
                _ => im4 -= s,
            }
            match slot % 6 {
                0 => re6 += 2.0 * s,
                1 => {
                    re6 += s;
                    im6 += s;
                }
                2 => {
                    re6 -= s;
                    im6 += s;
                }
                3 => re6 -= 2.0 * s,
                4 => {
                    re6 -= s;
                    im6 -= s;
                }
                _ => {
                    re6 += s;
                    im6 -= s;
                }
            }
        }
        let expect_quarter = re4 * re4 + im4 * im4;
        let expect_sixth = (re6 * re6 + 3.0 * im6 * im6) / 2.0;
        assert!((last.quarter - expect_quarter).abs() < 1e-9 * (1.0 + expect_quarter));
        assert!((last.sixth - expect_sixth).abs() < 1e-9 * (1.0 + expect_sixth));
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut f = XsmFilter::new();
        for s in tone(0.25, 50, 1.0) {
            f.filter(s);
        }
        f.reset();
        assert_eq!(f.window_energy(), 0.0);
        let out = f.filter(0.0);
        assert_eq!(out.quarter, 0.0);
    }

    #[test]
    fn detector_finds_tone_against_noise() {
        let mut rng = rl_math::rng::seeded(55);
        let n = 2_000;
        let mut wave = vec![0.0f64; n];
        // Noise floor.
        for w in wave.iter_mut() {
            *w = rl_math::rng::normal(&mut rng, 0.0, 0.25);
        }
        // One strong chirp at fs/4 in the middle.
        for (i, w) in wave.iter_mut().enumerate().take(1_000).skip(800) {
            *w += 1.0 * (core::f64::consts::TAU * 0.25 * i as f64).sin();
        }
        let mut det = XsmToneDetector::new(Band::Quarter);
        let onsets = det.detect_chirps(&wave, 24);
        assert_eq!(onsets.len(), 1, "onsets: {onsets:?}");
        assert!(
            (onsets[0] as i64 - 800).unsigned_abs() < 80,
            "onset at {}",
            onsets[0]
        );
    }

    #[test]
    fn detector_quiet_on_pure_noise() {
        let mut rng = rl_math::rng::seeded(56);
        let wave: Vec<f64> = (0..4_000)
            .map(|_| rl_math::rng::normal(&mut rng, 0.0, 0.5))
            .collect();
        let mut det = XsmToneDetector::new(Band::Quarter);
        let onsets = det.detect_chirps(&wave, 24);
        assert!(onsets.is_empty(), "false onsets: {onsets:?}");
    }
}
