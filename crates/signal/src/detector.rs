//! Stochastic tone-detector and reception simulation.
//!
//! The MICA sensor board's hardware phase-locked-loop tone detector outputs
//! a binary value per sample. Section 3.5 models it as a binary time series
//! `b(t)` with `P[b(t)=1 | signal present] ≫ P[b(t)=1 | no signal]`; that
//! model is what this module simulates, sample by sample, for a receiver at
//! a given distance from the chirping node.
//!
//! The simulation reproduces every error source of Section 3.4:
//!
//! 1. **timing effects** — integer sampling plus per-chirp Gaussian jitter,
//! 2. **non-deterministic acoustic delays** — speaker ramp-up attenuating
//!    the first milliseconds of each chirp (late detection ⇒ overestimate),
//! 3. **unit-to-unit variation** — per-pair sensitivity and delay offsets,
//!    with occasional faulty hardware,
//! 4. **signal attenuation** — the environment's distance-dependent hit
//!    probability,
//! 5. **noise** — ambient false positives plus discrete noise bursts,
//! 6. **echoes** — same-chirp delayed copies and stale reverberation from
//!    earlier chirps; stale echoes land at a *fixed* buffer offset when the
//!    inter-chirp gaps are regular and at *decorrelated* offsets when the
//!    paper's random gap jitter is enabled,
//! 7. **unreliable tone detection** — everything is Bernoulli, never exact.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::chirp::ChirpTrainConfig;
use crate::detection::{detect_signal, record_signal, DetectionParams};
use crate::env::AcousticProfile;

/// Per speaker–microphone-pair hardware variation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeAcoustics {
    /// Multiplicative sensitivity of this pair (1.0 = nominal). Models the
    /// ±3 dB microphone and up-to-5 dB loudspeaker variation of
    /// Section 3.6.2.
    pub sensitivity: f64,
    /// Constant per-pair detection-delay offset in samples (actuation and
    /// sensing delays differing between units).
    pub delay_offset_samples: f64,
    /// Whether this pair suffers from faulty hardware / persistent
    /// wide-band self-noise. Faulty pairs produce correlated phantom
    /// detections that only consistency checking can remove.
    pub faulty: bool,
    /// Buffer position of the faulty pair's phantom window, as a fraction
    /// of the buffer length. Fixed per pair so the error is *correlated
    /// across rounds* (median filtering cannot remove it; the
    /// bidirectional consistency check can).
    pub phantom_fraction: f64,
}

impl NodeAcoustics {
    /// A nominal, fault-free pair.
    pub fn nominal() -> Self {
        NodeAcoustics {
            sensitivity: 1.0,
            delay_offset_samples: 0.0,
            faulty: false,
            phantom_fraction: 0.5,
        }
    }

    /// Draws a random pair from the variation model.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R, model: &VariationModel) -> Self {
        let sensitivity = (rl_math::rng::normal(rng, 0.0, model.sensitivity_sigma)).exp();
        let delay_offset_samples = rl_math::rng::normal(rng, 0.0, model.delay_sigma_samples);
        let faulty = rng.random::<f64>() < model.faulty_probability;
        NodeAcoustics {
            sensitivity,
            delay_offset_samples,
            faulty,
            phantom_fraction: rng.random::<f64>(),
        }
    }
}

impl Default for NodeAcoustics {
    fn default() -> Self {
        NodeAcoustics::nominal()
    }
}

/// Distribution parameters for [`NodeAcoustics::sample`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariationModel {
    /// Log-normal sigma of the sensitivity multiplier.
    pub sensitivity_sigma: f64,
    /// Gaussian sigma of the per-pair delay offset, in samples.
    pub delay_sigma_samples: f64,
    /// Probability that a pair behaves as faulty hardware.
    pub faulty_probability: f64,
    /// Per-sample hit probability of the faulty pair's phantom window.
    pub phantom_hit_probability: f64,
}

impl Default for VariationModel {
    fn default() -> Self {
        VariationModel {
            sensitivity_sigma: 0.15,
            delay_sigma_samples: 5.0,
            faulty_probability: 0.03,
            phantom_hit_probability: 0.45,
        }
    }
}

/// Simulates the reception of a chirp train at a given true distance.
#[derive(Debug, Clone)]
pub struct ReceptionSimulator {
    profile: AcousticProfile,
    config: ChirpTrainConfig,
    variation: VariationModel,
}

impl ReceptionSimulator {
    /// Creates a simulator for an environment and chirp configuration.
    ///
    /// # Panics
    ///
    /// Panics if either the profile or the configuration fails validation;
    /// both come from presets or caller-constructed values that should have
    /// been validated first.
    pub fn new(profile: AcousticProfile, config: ChirpTrainConfig) -> Self {
        profile.validate().expect("invalid acoustic profile");
        config.validate().expect("invalid chirp configuration");
        ReceptionSimulator {
            profile,
            config,
            variation: VariationModel::default(),
        }
    }

    /// The chirp configuration in use.
    pub fn config(&self) -> &ChirpTrainConfig {
        &self.config
    }

    /// The acoustic profile in use.
    pub fn profile(&self) -> &AcousticProfile {
        &self.profile
    }

    /// Simulates one full chirp-train reception for a freshly sampled
    /// hardware pair.
    pub fn receive<R: Rng + ?Sized>(&self, distance_m: f64, rng: &mut R) -> ReceptionOutcome {
        let pair = NodeAcoustics::sample(rng, &self.variation);
        self.receive_with(distance_m, &pair, rng)
    }

    /// Simulates one full chirp-train reception for a specific hardware
    /// pair (used when the same pair measures repeatedly).
    ///
    /// # Panics
    ///
    /// Panics if `distance_m` is negative or not finite.
    pub fn receive_with<R: Rng + ?Sized>(
        &self,
        distance_m: f64,
        pair: &NodeAcoustics,
        rng: &mut R,
    ) -> ReceptionOutcome {
        assert!(
            distance_m.is_finite() && distance_m >= 0.0,
            "distance must be finite and non-negative, got {distance_m}"
        );
        let cfg = &self.config;
        let bufn = cfg.buffer_samples();
        let chirp_len = cfg.chirp_samples();
        let ramp = cfg.rampup_samples().max(1);
        let true_start = cfg.meters_to_sample(distance_m);
        let s0 = true_start + pair.delay_offset_samples;

        // Per-pair echo geometry, fixed for the whole train.
        let has_echo = rng.random::<f64>() < self.profile.echo_probability;
        let echo_delay_samples = if has_echo {
            let (lo, hi) = self.profile.echo_extra_path;
            cfg.meters_to_sample(lo + (hi - lo) * rng.random::<f64>())
        } else {
            0.0
        };
        // Stale reverberation offset used when gaps are regular: the
        // multi-bounce geometry repeats, so the tail lands at the same
        // buffer position every chirp.
        let stale_offset_fixed = (rng.random::<f64>() * bufn as f64) as usize;
        let has_stale = has_echo && rng.random::<f64>() < 0.5;
        // Faulty pairs carry a phantom self-noise window at a per-pair
        // fixed offset (correlated across rounds).
        let phantom_offset = (pair.phantom_fraction.clamp(0.0, 0.999) * bufn as f64) as usize;

        let p_direct =
            self.profile.p_hit(distance_m, pair.sensitivity) * if pair.faulty { 0.5 } else { 1.0 };

        let mut accumulated = vec![0u8; bufn];
        let mut first_chirp_hits = vec![false; bufn];

        let mut hits = vec![false; bufn];
        for chirp_idx in 0..cfg.n_chirps {
            hits.iter_mut().for_each(|h| *h = false);
            let jitter = rl_math::rng::normal(rng, 0.0, 2.0);
            let start = s0 + jitter;

            // Direct path with speaker ramp-up.
            paint_window(&mut hits, start, chirp_len, rng, |j| {
                let rampf = ((j + 1) as f64 / ramp as f64).min(1.0);
                p_direct * rampf
            });

            // Same-chirp echo: delayed, attenuated copy.
            if has_echo {
                let p_echo = p_direct * self.profile.echo_strength;
                paint_window(&mut hits, start + echo_delay_samples, chirp_len, rng, |j| {
                    let rampf = ((j + 1) as f64 / ramp as f64).min(1.0);
                    p_echo * rampf
                });
            }

            // Stale reverberation from earlier chirps. With the paper's
            // random gap jitter the tail decorrelates across chirps; with
            // regular gaps it repeats at a fixed offset.
            if has_stale && chirp_idx > 0 {
                let offset = if cfg.gap_jitter_ms > 0.0 {
                    (rng.random::<f64>() * bufn as f64) as usize
                } else {
                    stale_offset_fixed
                };
                // The reverberant tail is much weaker than the direct path:
                // weak enough that decorrelated (jittered) tails cannot
                // accumulate to the detection threshold, but a tail repeating
                // at a fixed offset across chirps can.
                let p_stale =
                    self.profile.p_hit(0.0, pair.sensitivity) * self.profile.echo_strength * 0.35;
                paint_window(&mut hits, offset as f64, chirp_len, rng, |_| p_stale);
            }

            // Faulty-hardware phantom window, correlated across chirps.
            if pair.faulty {
                paint_window(&mut hits, phantom_offset as f64, chirp_len, rng, |_| {
                    self.variation.phantom_hit_probability
                });
            }

            // Ambient noise, every sample.
            for h in hits.iter_mut() {
                if rng.random::<f64>() < self.profile.noise_rate {
                    *h = true;
                }
            }

            // Discrete noise bursts: Poisson arrivals over the window.
            let window_s = bufn as f64 / cfg.sampling_rate_hz;
            if self.profile.burst_rate_hz > 0.0 {
                let mut t = exponential(rng, self.profile.burst_rate_hz);
                while t < window_s {
                    let burst_start = t * cfg.sampling_rate_hz;
                    paint_window(
                        &mut hits,
                        burst_start,
                        self.profile.burst_len_samples,
                        rng,
                        |_| self.profile.burst_hit_probability,
                    );
                    t += exponential(rng, self.profile.burst_rate_hz);
                }
            }

            if chirp_idx == 0 {
                first_chirp_hits.copy_from_slice(&hits);
            }
            record_signal(&mut accumulated, &hits);
        }

        ReceptionOutcome {
            accumulated,
            first_chirp_hits,
            true_start,
            config: cfg.clone(),
            pair: pair.clone(),
            had_echo: has_echo,
        }
    }
}

/// Bernoulli-paints `len` samples starting at fractional index `start` using
/// a per-offset probability function.
fn paint_window<R: Rng + ?Sized>(
    hits: &mut [bool],
    start: f64,
    len: usize,
    rng: &mut R,
    p_at: impl Fn(usize) -> f64,
) {
    let base = start.round() as i64;
    for j in 0..len {
        let idx = base + j as i64;
        if idx < 0 || idx as usize >= hits.len() {
            continue;
        }
        let p = p_at(j);
        if p > 0.0 && rng.random::<f64>() < p {
            hits[idx as usize] = true;
        }
    }
}

/// Exponential deviate with the given rate (events per second).
fn exponential<R: Rng + ?Sized>(rng: &mut R, rate_hz: f64) -> f64 {
    let u: f64 = 1.0 - rng.random::<f64>();
    -u.ln() / rate_hz
}

/// The receiver-side product of one simulated chirp train.
#[derive(Debug, Clone)]
pub struct ReceptionOutcome {
    /// Accumulated detector counts per buffer offset (4-bit saturating, as
    /// on the mote).
    pub accumulated: Vec<u8>,
    /// Raw binary detector output of the first chirp only (what the
    /// baseline single-chirp service sees).
    pub first_chirp_hits: Vec<bool>,
    /// Ground-truth direct-path arrival, fractional samples (geometry only,
    /// excluding hardware delay offsets).
    pub true_start: f64,
    /// Chirp configuration used.
    pub config: ChirpTrainConfig,
    /// The hardware pair that produced this reception.
    pub pair: NodeAcoustics,
    /// Whether an echo path existed for this pair.
    pub had_echo: bool,
}

impl ReceptionOutcome {
    /// Runs the Figure-3 detector with explicit parameters; returns the
    /// detected signal-start sample.
    pub fn detect(&self, params: &DetectionParams) -> Option<usize> {
        detect_signal(&self.accumulated, params)
    }

    /// Runs the Figure-3 detector with the paper's calibrated parameters
    /// (threshold 2, at least 6 of 32 consecutive samples).
    pub fn detect_default(&self) -> Option<usize> {
        self.detect(&DetectionParams::paper())
    }

    /// Baseline detection: the first sample where the hardware detector
    /// fired during the first chirp (Section 3.3's unreliable scheme).
    pub fn baseline_first_hit(&self) -> Option<usize> {
        self.first_chirp_hits.iter().position(|&h| h)
    }

    /// Signed detection error in samples for a detected index.
    pub fn error_samples(&self, detected: usize) -> f64 {
        detected as f64 - self.true_start
    }

    /// Signed detection error in meters for a detected index.
    pub fn error_meters(&self, detected: usize) -> f64 {
        self.config.sample_to_meters(self.error_samples(detected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Environment;
    use rl_math::rng::seeded;

    fn grass_sim() -> ReceptionSimulator {
        ReceptionSimulator::new(Environment::Grass.profile(), ChirpTrainConfig::paper())
    }

    #[test]
    fn close_range_is_reliably_detected() {
        let sim = grass_sim();
        let mut rng = seeded(100);
        let mut detections = 0;
        let mut errors = Vec::new();
        for _ in 0..60 {
            let out = sim.receive(8.0, &mut rng);
            if let Some(idx) = out.detect_default() {
                detections += 1;
                errors.push(out.error_meters(idx));
            }
        }
        assert!(detections >= 54, "8 m on grass: {detections}/60 detections");
        // Median error magnitude should be decimeter-scale before
        // calibration (constant positive bias is removed by delta_const).
        let med = rl_math::stats::median_of(&errors).unwrap();
        assert!(med.abs() < 0.6, "median raw error {med} m");
    }

    #[test]
    fn beyond_hard_range_is_never_detected_directly() {
        let sim = grass_sim();
        let mut rng = seeded(101);
        let mut detections = 0;
        for _ in 0..40 {
            let out = sim.receive(26.0, &mut rng);
            // Any detection here is a false positive (noise/echo), and the
            // resulting "distance" is unrelated to 26 m.
            if out.detect_default().is_some() {
                detections += 1;
            }
        }
        assert!(
            detections <= 6,
            "26 m on grass: {detections}/40 false detections"
        );
    }

    #[test]
    fn detection_rate_decreases_with_distance() {
        let sim = grass_sim();
        let mut rng = seeded(102);
        let rate = |d: f64, rng: &mut rand::rngs::StdRng| {
            let mut n = 0;
            for _ in 0..40 {
                if sim.receive(d, rng).detect_default().is_some() {
                    n += 1;
                }
            }
            n
        };
        let near = rate(6.0, &mut rng);
        let mid = rate(14.0, &mut rng);
        let far = rate(21.0, &mut rng);
        assert!(
            near >= mid && mid >= far,
            "rates {near} {mid} {far} not monotone"
        );
        assert!(near >= 36);
        assert!(far <= 20);
    }

    #[test]
    fn pavement_outranges_grass() {
        let mut rng = seeded(103);
        let grass = grass_sim();
        let pave = ReceptionSimulator::new(
            Environment::Pavement.profile(),
            ChirpTrainConfig {
                max_distance_m: 45.0,
                ..ChirpTrainConfig::paper()
            },
        );
        let mut g = 0;
        let mut p = 0;
        for _ in 0..40 {
            if grass.receive(18.0, &mut rng).detect_default().is_some() {
                g += 1;
            }
            if pave.receive(18.0, &mut rng).detect_default().is_some() {
                p += 1;
            }
        }
        assert!(p > g, "pavement {p} vs grass {g} detections at 18 m");
    }

    #[test]
    fn deterministic_given_seed() {
        let sim = grass_sim();
        let out1 = sim.receive(10.0, &mut seeded(7));
        let out2 = sim.receive(10.0, &mut seeded(7));
        assert_eq!(out1.accumulated, out2.accumulated);
        assert_eq!(out1.detect_default(), out2.detect_default());
    }

    #[test]
    fn faulty_pair_can_produce_gross_errors() {
        let sim = grass_sim();
        let mut rng = seeded(104);
        let faulty = NodeAcoustics {
            sensitivity: 1.0,
            delay_offset_samples: 0.0,
            faulty: true,
            phantom_fraction: 0.23,
        };
        let mut gross = 0;
        for _ in 0..60 {
            let out = sim.receive_with(15.0, &faulty, &mut rng);
            if let Some(idx) = out.detect_default() {
                if out.error_meters(idx).abs() > 1.0 {
                    gross += 1;
                }
            }
        }
        assert!(
            gross >= 10,
            "faulty hardware produced only {gross} gross errors"
        );
    }

    #[test]
    fn regular_gaps_make_stale_echoes_correlated() {
        // Force echo-rich environment and compare underestimate rates with
        // and without the paper's random gap jitter.
        let mut profile = Environment::Urban.profile();
        profile.echo_probability = 1.0;
        let jittered = ReceptionSimulator::new(profile.clone(), ChirpTrainConfig::paper());
        let regular = ReceptionSimulator::new(
            profile,
            ChirpTrainConfig {
                gap_jitter_ms: 0.0,
                ..ChirpTrainConfig::paper()
            },
        );
        let count_under = |sim: &ReceptionSimulator, seed: u64| {
            let mut rng = seeded(seed);
            let mut under = 0;
            for _ in 0..150 {
                let out = sim.receive(20.0, &mut rng);
                if let Some(idx) = out.detect_default() {
                    if out.error_meters(idx) < -1.0 {
                        under += 1;
                    }
                }
            }
            under
        };
        let under_jittered = count_under(&jittered, 105);
        let under_regular = count_under(&regular, 105);
        assert!(
            under_regular > under_jittered,
            "regular gaps should underestimate more: {under_regular} vs {under_jittered}"
        );
    }

    #[test]
    fn baseline_first_hit_is_noisier_than_refined() {
        let profile = Environment::Urban.profile();
        let sim = ReceptionSimulator::new(profile, ChirpTrainConfig::paper());
        let mut rng = seeded(106);
        let mut baseline_gross = 0;
        let mut refined_gross = 0;
        let mut n = 0;
        for _ in 0..120 {
            let out = sim.receive(15.0, &mut rng);
            let (Some(b), Some(r)) = (out.baseline_first_hit(), out.detect_default()) else {
                continue;
            };
            n += 1;
            if out.error_meters(b).abs() > 1.0 {
                baseline_gross += 1;
            }
            if out.error_meters(r).abs() > 1.0 {
                refined_gross += 1;
            }
        }
        assert!(n > 40, "too few joint detections: {n}");
        assert!(
            baseline_gross > refined_gross,
            "baseline {baseline_gross} vs refined {refined_gross} gross errors over {n}"
        );
    }

    #[test]
    #[should_panic(expected = "distance must be finite")]
    fn negative_distance_panics() {
        let sim = grass_sim();
        let _ = sim.receive(-1.0, &mut seeded(0));
    }

    #[test]
    fn nominal_default_pair() {
        let p = NodeAcoustics::default();
        assert_eq!(p.sensitivity, 1.0);
        assert!(!p.faulty);
    }

    #[test]
    fn variation_model_produces_spread() {
        let mut rng = seeded(107);
        let model = VariationModel::default();
        let pairs: Vec<NodeAcoustics> = (0..300)
            .map(|_| NodeAcoustics::sample(&mut rng, &model))
            .collect();
        let sens: Vec<f64> = pairs.iter().map(|p| p.sensitivity).collect();
        let sd = rl_math::stats::std_dev(&sens).unwrap();
        assert!(sd > 0.05, "sensitivity spread {sd}");
        let faulty = pairs.iter().filter(|p| p.faulty).count();
        assert!(faulty > 0 && faulty < 40, "faulty count {faulty}");
    }
}
