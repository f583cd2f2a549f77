//! Chirp-train configuration and scheduling.
//!
//! The refined ranging service emits "a sequence of identical chirps
//! interspersed with intervals of silence", with "small random delays between
//! elements of the pattern" to decorrelate echoes (Section 3.5). The field
//! experiments used a constant 4.3 kHz tone in **8 ms chirps**, ten chirps
//! per sequence, sampled at **16 kHz** (Section 3.6).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Result, SignalError, SPEED_OF_SOUND};

/// Configuration of one ranging chirp train.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChirpTrainConfig {
    /// Tone-detector sampling rate (Hz). The MICA service samples at 16 kHz.
    pub sampling_rate_hz: f64,
    /// Beacon tone frequency (Hz); 4.3 kHz in the paper.
    pub tone_hz: f64,
    /// Chirp duration in milliseconds (8 ms in the field experiments).
    pub chirp_ms: f64,
    /// Number of chirps accumulated per measurement (10 in the paper;
    /// the 4-bit accumulation buffer supports at most 15).
    pub n_chirps: usize,
    /// Nominal silence between chirps, milliseconds.
    pub gap_ms: f64,
    /// Uniform random extra delay added to each gap (echo decorrelation),
    /// milliseconds. Zero disables the paper's anti-echo randomization.
    pub gap_jitter_ms: f64,
    /// Time for the analog speaker to reach full output power,
    /// milliseconds. Chirps shorter than the ramp are poorly detected,
    /// which is why the paper settled on 8 ms.
    pub rampup_ms: f64,
    /// Maximum distance the receive buffer must cover, meters. Determines
    /// the buffer size (about 500 bytes of mote RAM at 20 m / 15 chirps).
    pub max_distance_m: f64,
}

impl ChirpTrainConfig {
    /// The configuration used in the paper's grass-field experiments.
    pub fn paper() -> Self {
        ChirpTrainConfig {
            sampling_rate_hz: 16_000.0,
            tone_hz: 4_300.0,
            chirp_ms: 8.0,
            n_chirps: 10,
            gap_ms: 60.0,
            gap_jitter_ms: 15.0,
            rampup_ms: 2.0,
            max_distance_m: 30.0,
        }
    }

    /// The baseline single-chirp configuration of Section 3.3 (one long
    /// chirp, no accumulation, no pattern).
    pub fn baseline() -> Self {
        ChirpTrainConfig {
            chirp_ms: 64.0,
            n_chirps: 1,
            gap_jitter_ms: 0.0,
            ..ChirpTrainConfig::paper()
        }
    }

    /// Chirp length in detector samples (rounded down, at least 1).
    pub fn chirp_samples(&self) -> usize {
        ((self.chirp_ms / 1_000.0 * self.sampling_rate_hz) as usize).max(1)
    }

    /// Speaker ramp-up length in detector samples.
    pub fn rampup_samples(&self) -> usize {
        (self.rampup_ms / 1_000.0 * self.sampling_rate_hz) as usize
    }

    /// Receive-buffer length in samples: sound flight time to
    /// `max_distance_m`, plus one chirp, plus detection-window slack.
    pub fn buffer_samples(&self) -> usize {
        let flight = self.max_distance_m / SPEED_OF_SOUND * self.sampling_rate_hz;
        flight.ceil() as usize + self.chirp_samples() + 64
    }

    /// Number of buffer samples corresponding to one meter of range.
    pub fn samples_per_meter(&self) -> f64 {
        self.sampling_rate_hz / SPEED_OF_SOUND
    }

    /// Converts a buffer sample index to meters of range.
    pub fn sample_to_meters(&self, sample: f64) -> f64 {
        sample / self.samples_per_meter()
    }

    /// Converts meters of range to a fractional buffer sample index.
    pub fn meters_to_sample(&self, meters: f64) -> f64 {
        meters * self.samples_per_meter()
    }

    /// Draws the randomized chirp start times for one train.
    pub fn schedule<R: Rng + ?Sized>(&self, rng: &mut R) -> ChirpTrainSchedule {
        let mut starts = Vec::with_capacity(self.n_chirps);
        let mut t = 0.0;
        let buffer_s = self.buffer_samples() as f64 / self.sampling_rate_hz;
        for _ in 0..self.n_chirps {
            starts.push(t);
            let jitter = if self.gap_jitter_ms > 0.0 {
                rng.random::<f64>() * self.gap_jitter_ms
            } else {
                0.0
            };
            // Next chirp begins after this chirp's listen window plus the
            // configured gap and its random extension.
            t += buffer_s + (self.gap_ms + jitter) / 1_000.0;
        }
        ChirpTrainSchedule { starts_s: starts }
    }

    /// Validates parameter domains.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::InvalidConfig`] naming the first violated
    /// constraint.
    pub fn validate(&self) -> Result<()> {
        if !(self.sampling_rate_hz > 0.0) {
            return Err(SignalError::InvalidConfig(
                "sampling_rate_hz must be positive",
            ));
        }
        if !(self.tone_hz > 0.0) || self.tone_hz * 2.0 > self.sampling_rate_hz {
            return Err(SignalError::InvalidConfig(
                "tone_hz must be positive and below Nyquist",
            ));
        }
        if !(self.chirp_ms > 0.0) {
            return Err(SignalError::InvalidConfig("chirp_ms must be positive"));
        }
        if self.n_chirps == 0 || self.n_chirps > 15 {
            return Err(SignalError::InvalidConfig(
                "n_chirps must be in 1..=15 (4-bit accumulation)",
            ));
        }
        if self.gap_ms < 0.0 || self.gap_jitter_ms < 0.0 {
            return Err(SignalError::InvalidConfig("gaps must be non-negative"));
        }
        if self.rampup_ms < 0.0 {
            return Err(SignalError::InvalidConfig("rampup_ms must be non-negative"));
        }
        if !(self.max_distance_m > 0.0) {
            return Err(SignalError::InvalidConfig(
                "max_distance_m must be positive",
            ));
        }
        Ok(())
    }

    /// Approximate mote RAM usage of the accumulation buffer in bytes
    /// (4 bits per sample, as in the paper's Section 3.6.2 analysis).
    pub fn buffer_ram_bytes(&self) -> usize {
        self.buffer_samples().div_ceil(2)
    }
}

impl Default for ChirpTrainConfig {
    fn default() -> Self {
        ChirpTrainConfig::paper()
    }
}

/// Concrete start times of the chirps of one train, seconds from the first
/// radio sync message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChirpTrainSchedule {
    /// Start time of each chirp, seconds.
    pub starts_s: Vec<f64>,
}

impl ChirpTrainSchedule {
    /// Gap between consecutive chirp starts, seconds.
    pub fn gaps(&self) -> Vec<f64> {
        self.starts_s.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Number of chirps in the schedule.
    pub fn len(&self) -> usize {
        self.starts_s.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.starts_s.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_math::rng::seeded;

    #[test]
    fn paper_config_is_valid_and_matches_text() {
        let c = ChirpTrainConfig::paper();
        c.validate().unwrap();
        assert_eq!(c.chirp_samples(), 128); // 8 ms at 16 kHz
        assert_eq!(c.n_chirps, 10);
        assert!((c.samples_per_meter() - 16_000.0 / 340.0).abs() < 1e-9);
    }

    #[test]
    fn baseline_config_has_long_single_chirp() {
        let c = ChirpTrainConfig::baseline();
        c.validate().unwrap();
        assert_eq!(c.n_chirps, 1);
        assert_eq!(c.chirp_samples(), 1024); // 64 ms at 16 kHz
    }

    #[test]
    fn buffer_covers_max_distance() {
        let c = ChirpTrainConfig::paper();
        let needed = c.meters_to_sample(c.max_distance_m);
        assert!(c.buffer_samples() as f64 >= needed);
    }

    #[test]
    fn buffer_ram_matches_paper_budget() {
        // Paper: "For 15 samples at distances up to 20 m, the service uses
        // less than 500 bytes of RAM" (4 bits per offset).
        let c = ChirpTrainConfig {
            max_distance_m: 20.0,
            n_chirps: 15,
            ..ChirpTrainConfig::paper()
        };
        assert!(
            c.buffer_ram_bytes() < 600,
            "buffer uses {} bytes",
            c.buffer_ram_bytes()
        );
    }

    #[test]
    fn sample_meter_roundtrip() {
        let c = ChirpTrainConfig::paper();
        let d = 17.3;
        assert!((c.sample_to_meters(c.meters_to_sample(d)) - d).abs() < 1e-12);
    }

    #[test]
    fn schedule_is_monotone_with_jittered_gaps() {
        let c = ChirpTrainConfig::paper();
        let mut rng = seeded(11);
        let s = c.schedule(&mut rng);
        assert_eq!(s.len(), 10);
        assert!(!s.is_empty());
        let gaps = s.gaps();
        let min_gap = c.buffer_samples() as f64 / c.sampling_rate_hz + c.gap_ms / 1_000.0;
        for g in &gaps {
            assert!(*g >= min_gap - 1e-12);
            assert!(*g <= min_gap + c.gap_jitter_ms / 1_000.0 + 1e-12);
        }
        // Jitter actually varies the gaps.
        let spread = gaps.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - gaps.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            spread > 1e-4,
            "gap jitter should vary gaps, spread {spread}"
        );
    }

    #[test]
    fn schedule_without_jitter_is_regular() {
        let c = ChirpTrainConfig {
            gap_jitter_ms: 0.0,
            ..ChirpTrainConfig::paper()
        };
        let mut rng = seeded(12);
        let gaps = c.schedule(&mut rng).gaps();
        for w in gaps.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let ok = ChirpTrainConfig::paper();
        for (field, cfg) in [
            (
                "fs",
                ChirpTrainConfig {
                    sampling_rate_hz: 0.0,
                    ..ok.clone()
                },
            ),
            (
                "nyquist",
                ChirpTrainConfig {
                    tone_hz: 9_000.0,
                    ..ok.clone()
                },
            ),
            (
                "chirp",
                ChirpTrainConfig {
                    chirp_ms: 0.0,
                    ..ok.clone()
                },
            ),
            (
                "chirps0",
                ChirpTrainConfig {
                    n_chirps: 0,
                    ..ok.clone()
                },
            ),
            (
                "chirps16",
                ChirpTrainConfig {
                    n_chirps: 16,
                    ..ok.clone()
                },
            ),
            (
                "gap",
                ChirpTrainConfig {
                    gap_ms: -1.0,
                    ..ok.clone()
                },
            ),
            (
                "dist",
                ChirpTrainConfig {
                    max_distance_m: 0.0,
                    ..ok.clone()
                },
            ),
        ] {
            assert!(cfg.validate().is_err(), "{field} should be rejected");
        }
    }
}
