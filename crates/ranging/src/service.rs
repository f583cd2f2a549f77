//! The ranging service: campaigns over whole deployments.
//!
//! For every ordered pair of nodes within acoustic reach, the service
//! simulates the full chirp-train reception (speaker and microphone
//! hardware variation included), runs the configured detector, converts the
//! detection to a distance with the calibrated `δ_const`, and records the
//! sample. Repeating for several rounds yields the raw
//! [`crate::measurement::RangingCampaign`] that
//! statistical filtering and consistency checking refine into a
//! [`crate::measurement::MeasurementSet`].

use rand::Rng;
use rl_geom::Point2;
use rl_net::NodeId;
use rl_signal::chirp::ChirpTrainConfig;
use rl_signal::detection::DetectionParams;
use rl_signal::detector::{NodeAcoustics, ReceptionOutcome, ReceptionSimulator};
use rl_signal::env::Environment;
use serde::{Deserialize, Serialize};

use crate::measurement::{DirectedSample, RangingCampaign};
use crate::tdoa::TdoaConverter;
use crate::{RangingError, Result};

/// Which detection pipeline the service runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServiceMode {
    /// Section 3.3's baseline: one long chirp, first hardware-detector hit.
    Baseline,
    /// Section 3.5's refined service: multi-chirp accumulation with
    /// two-level threshold detection.
    Refined,
}

/// Per-node hardware characteristics (speaker and microphone halves).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeHardware {
    /// Loudspeaker output-power multiplier (unit variation up to ~5 dB).
    pub speaker_gain: f64,
    /// Microphone sensitivity multiplier (rated ±3 dB).
    pub mic_gain: f64,
    /// Constant actuation/sensing delay contribution, detector samples.
    pub delay_samples: f64,
    /// Whether this node's acoustic hardware is faulty.
    pub faulty: bool,
    /// Phantom-window position for faulty hardware, fraction of the buffer.
    pub phantom_fraction: f64,
}

/// Distribution parameters for [`NodeHardware::sample`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareModel {
    /// Log-normal sigma of the speaker gain.
    pub speaker_sigma: f64,
    /// Log-normal sigma of the microphone gain.
    pub mic_sigma: f64,
    /// Gaussian sigma of each node's delay contribution, samples.
    pub delay_sigma_samples: f64,
    /// Per-node faulty-hardware probability.
    pub faulty_probability: f64,
}

impl Default for HardwareModel {
    fn default() -> Self {
        HardwareModel {
            speaker_sigma: 0.11,
            mic_sigma: 0.07,
            delay_sigma_samples: 3.5,
            faulty_probability: 0.02,
        }
    }
}

impl NodeHardware {
    /// Draws one node's hardware from the model.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R, model: &HardwareModel) -> Self {
        NodeHardware {
            speaker_gain: rl_math::rng::normal(rng, 0.0, model.speaker_sigma).exp(),
            mic_gain: rl_math::rng::normal(rng, 0.0, model.mic_sigma).exp(),
            delay_samples: rl_math::rng::normal(rng, 0.0, model.delay_sigma_samples),
            faulty: rng.random::<f64>() < model.faulty_probability,
            phantom_fraction: rng.random::<f64>(),
        }
    }

    /// Nominal hardware (unit gains, no delay, fault-free).
    pub fn nominal() -> Self {
        NodeHardware {
            speaker_gain: 1.0,
            mic_gain: 1.0,
            delay_samples: 0.0,
            faulty: false,
            phantom_fraction: 0.5,
        }
    }

    /// Combines the speaker half of `from` with the microphone half of
    /// `to` into the pair acoustics the reception simulator expects.
    ///
    /// Phantom self-noise lives in the **receiver's** detector, so only a
    /// faulty `to` node produces correlated phantom detections; the two
    /// directions of a pair therefore disagree, which is exactly what the
    /// bidirectional consistency check exploits. A faulty speaker merely
    /// loses output power.
    pub fn pair(from: &NodeHardware, to: &NodeHardware) -> NodeAcoustics {
        let speaker_gain = if from.faulty {
            from.speaker_gain * 0.5
        } else {
            from.speaker_gain
        };
        NodeAcoustics {
            sensitivity: speaker_gain * to.mic_gain,
            delay_offset_samples: from.delay_samples + to.delay_samples,
            faulty: to.faulty,
            phantom_fraction: to.phantom_fraction,
        }
    }
}

/// Configuration of a ranging campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Detection pipeline.
    pub mode: ServiceMode,
    /// Chirp-train shape.
    pub chirps: ChirpTrainConfig,
    /// Refined-mode detector thresholds.
    pub detection: DetectionParams,
    /// Number of measurement rounds (each round is one chirp train per
    /// ordered pair).
    pub rounds: usize,
    /// Only pairs with true distance at most this are attempted (radio
    /// coordination prevents chirping at nodes known to be far away).
    pub max_attempt_m: f64,
    /// Node hardware variation model.
    pub hardware: HardwareModel,
    /// Calibration reference distance (meters) and trial count.
    pub calibration: (f64, usize),
}

impl ServiceConfig {
    /// The refined service as fielded in Section 3.6: paper chirp train,
    /// calibrated thresholds, six rounds.
    pub fn refined() -> Self {
        ServiceConfig {
            mode: ServiceMode::Refined,
            chirps: ChirpTrainConfig::paper(),
            detection: DetectionParams::paper(),
            rounds: 6,
            max_attempt_m: 30.0,
            hardware: HardwareModel::default(),
            calibration: (8.0, 40),
        }
    }

    /// The baseline service of Section 3.3: one long chirp, first
    /// detector hit, three rounds.
    pub fn baseline() -> Self {
        ServiceConfig {
            mode: ServiceMode::Baseline,
            chirps: ChirpTrainConfig::baseline(),
            detection: DetectionParams::paper(),
            rounds: 3,
            max_attempt_m: 30.0,
            hardware: HardwareModel::default(),
            calibration: (8.0, 40),
        }
    }

    /// Validates parameter domains.
    ///
    /// # Errors
    ///
    /// Returns [`RangingError::InvalidConfig`] naming the violated
    /// constraint.
    pub fn validate(&self) -> Result<()> {
        if self.rounds == 0 {
            return Err(RangingError::InvalidConfig("rounds must be nonzero"));
        }
        if !(self.max_attempt_m > 0.0) {
            return Err(RangingError::InvalidConfig(
                "max_attempt_m must be positive",
            ));
        }
        if self.chirps.validate().is_err() {
            return Err(RangingError::InvalidConfig("invalid chirp configuration"));
        }
        if self.detection.validate().is_err() {
            return Err(RangingError::InvalidConfig("invalid detection parameters"));
        }
        if !(self.calibration.0 > 0.0) || self.calibration.1 == 0 {
            return Err(RangingError::InvalidConfig("invalid calibration spec"));
        }
        Ok(())
    }
}

/// The acoustic ranging service for one environment.
#[derive(Debug, Clone)]
pub struct RangingService {
    config: ServiceConfig,
    simulator: ReceptionSimulator,
    converter: TdoaConverter,
}

impl RangingService {
    /// Creates and calibrates a service for `env`.
    ///
    /// Calibration measures the constant detection bias at the configured
    /// reference distance with nominal hardware, exactly as the paper's
    /// pre-deployment calibration does.
    ///
    /// # Errors
    ///
    /// Returns configuration errors and
    /// [`RangingError::CalibrationFailed`] when the reference distance is
    /// undetectable in `env`.
    pub fn new<R: Rng + ?Sized>(
        env: Environment,
        config: ServiceConfig,
        rng: &mut R,
    ) -> Result<Self> {
        config.validate()?;
        let simulator = ReceptionSimulator::new(env.profile(), config.chirps.clone());
        let converter = Self::calibrate(&simulator, &config, rng)?;
        Ok(RangingService {
            config,
            simulator,
            converter,
        })
    }

    fn calibrate<R: Rng + ?Sized>(
        simulator: &ReceptionSimulator,
        config: &ServiceConfig,
        rng: &mut R,
    ) -> Result<TdoaConverter> {
        let (reference_m, trials) = config.calibration;
        let nominal = NodeHardware::nominal();
        let pair = NodeHardware::pair(&nominal, &nominal);
        let mut biases = Vec::with_capacity(trials);
        for _ in 0..trials {
            let outcome = simulator.receive_with(reference_m, &pair, rng);
            if let Some(idx) = Self::detect_in(config.mode, &config.detection, &outcome) {
                biases.push(outcome.error_samples(idx));
            }
        }
        // Require reliable detection at the reference distance; sporadic
        // noise detections must not pass as a calibration.
        if biases.len() * 2 < trials {
            return Err(RangingError::CalibrationFailed);
        }
        let Some(median_bias) = rl_math::stats::median(&mut biases) else {
            return Err(RangingError::CalibrationFailed);
        };
        Ok(TdoaConverter::new(config.chirps.clone(), median_bias))
    }

    fn detect_in(
        mode: ServiceMode,
        detection: &DetectionParams,
        outcome: &ReceptionOutcome,
    ) -> Option<usize> {
        match mode {
            ServiceMode::Baseline => outcome.baseline_first_hit(),
            ServiceMode::Refined => outcome.detect(detection),
        }
    }

    /// The calibrated TDoA converter in use.
    pub fn converter(&self) -> &TdoaConverter {
        &self.converter
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Measures one ordered pair once; returns the measured distance.
    pub fn measure_pair<R: Rng + ?Sized>(
        &self,
        true_distance_m: f64,
        pair: &NodeAcoustics,
        rng: &mut R,
    ) -> Option<f64> {
        let outcome = self.simulator.receive_with(true_distance_m, pair, rng);
        Self::detect_in(self.config.mode, &self.config.detection, &outcome)
            .map(|idx| self.converter.distance(idx))
    }

    /// Runs a full campaign: `rounds` rounds over every ordered pair within
    /// `max_attempt_m`.
    pub fn run_campaign<R: Rng + ?Sized>(
        &self,
        positions: &[Point2],
        rng: &mut R,
    ) -> RangingCampaign {
        let n = positions.len();
        let hardware: Vec<NodeHardware> = (0..n)
            .map(|_| NodeHardware::sample(rng, &self.config.hardware))
            .collect();
        self.campaign_with_hardware(positions, &hardware, rng)
    }

    /// [`Self::run_campaign`] with explicit per-node hardware, one entry per
    /// position.
    fn campaign_with_hardware<R: Rng + ?Sized>(
        &self,
        positions: &[Point2],
        hardware: &[NodeHardware],
        rng: &mut R,
    ) -> RangingCampaign {
        let n = positions.len();
        let mut samples = Vec::new();
        for round in 0..self.config.rounds {
            for from in 0..n {
                for to in 0..n {
                    if from == to {
                        continue;
                    }
                    let d = positions[from].distance(positions[to]);
                    if d > self.config.max_attempt_m {
                        continue;
                    }
                    let pair = NodeHardware::pair(&hardware[from], &hardware[to]);
                    if let Some(measured) = self.measure_pair(d, &pair, rng) {
                        samples.push(DirectedSample {
                            from: NodeId(from),
                            to: NodeId(to),
                            round,
                            measured_m: measured,
                        });
                    }
                }
            }
        }
        RangingCampaign {
            n,
            true_positions: positions.to_vec(),
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::{merge_bidirectional, ConsistencyConfig};
    use crate::filter::StatFilter;
    use rl_math::rng::seeded;

    fn small_line(n: usize, spacing: f64) -> Vec<Point2> {
        (0..n)
            .map(|i| Point2::new(i as f64 * spacing, 0.0))
            .collect()
    }

    #[test]
    fn configs_validate() {
        ServiceConfig::refined().validate().unwrap();
        ServiceConfig::baseline().validate().unwrap();
        let bad = ServiceConfig {
            rounds: 0,
            ..ServiceConfig::refined()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn refined_service_measures_close_pairs_accurately() {
        let mut rng = seeded(1);
        let svc = RangingService::new(Environment::Grass, ServiceConfig::refined(), &mut rng)
            .expect("calibration succeeds on grass");
        let positions = small_line(3, 9.0);
        let campaign = svc.run_campaign(&positions, &mut rng);
        assert!(
            !campaign.samples.is_empty(),
            "9 m pairs on grass should be measured"
        );
        // Median absolute error across samples should be decimeter-scale
        // (the paper reports ~1 % of max range ≈ 20-33 cm).
        let abs_errors: Vec<f64> = campaign.errors().iter().map(|e| e.abs()).collect();
        let med = rl_math::stats::median_of(&abs_errors).unwrap();
        assert!(med < 0.5, "median |error| {med} m");
    }

    #[test]
    fn far_pairs_produce_no_measurements() {
        let mut rng = seeded(2);
        let svc =
            RangingService::new(Environment::Grass, ServiceConfig::refined(), &mut rng).unwrap();
        let positions = small_line(2, 28.0);
        let campaign = svc.run_campaign(&positions, &mut rng);
        assert!(
            campaign.samples.len() <= 2,
            "28 m on grass should rarely yield measurements, got {}",
            campaign.samples.len()
        );
    }

    #[test]
    fn campaign_covers_rounds_and_directions() {
        let mut rng = seeded(3);
        let svc =
            RangingService::new(Environment::Pavement, ServiceConfig::refined(), &mut rng).unwrap();
        let positions = small_line(2, 10.0);
        let campaign = svc.run_campaign(&positions, &mut rng);
        let by_pair = campaign.by_directed_pair();
        assert_eq!(by_pair.len(), 2, "both directions measured");
        for (_, samples) in by_pair {
            assert!(samples.len() >= 4, "most of 6 rounds succeed at 10 m");
        }
    }

    #[test]
    fn max_attempt_limits_pairs() {
        let mut rng = seeded(4);
        let config = ServiceConfig {
            max_attempt_m: 5.0,
            ..ServiceConfig::refined()
        };
        let svc = RangingService::new(Environment::Grass, config, &mut rng).unwrap();
        let positions = small_line(3, 9.0);
        let campaign = svc.run_campaign(&positions, &mut rng);
        assert!(campaign.samples.is_empty());
    }

    #[test]
    fn faulty_node_errors_are_correlated_across_rounds() {
        let mut rng = seeded(5);
        let svc =
            RangingService::new(Environment::Grass, ServiceConfig::refined(), &mut rng).unwrap();
        let positions = small_line(2, 12.0);
        let mut hardware = vec![NodeHardware::nominal(), NodeHardware::nominal()];
        hardware[1].faulty = true;
        hardware[1].phantom_fraction = 0.15; // phantom at ~4.5 m
        let campaign = svc.campaign_with_hardware(&positions, &hardware, &mut rng);
        // Measurements toward the faulty microphone that lock onto the
        // phantom yield ~4.5 m instead of 12 m, consistently.
        let toward_faulty: Vec<f64> = campaign
            .samples
            .iter()
            .filter(|s| s.to == NodeId(1))
            .map(|s| s.measured_m)
            .collect();
        assert!(!toward_faulty.is_empty());
        let med = rl_math::stats::median_of(&toward_faulty).unwrap();
        assert!(
            med < 9.0,
            "faulty phantom should pull measurements low, median {med}"
        );
        let spread = rl_math::stats::std_dev(&toward_faulty).unwrap_or(0.0);
        assert!(
            spread < 2.5,
            "phantom errors should be correlated (small spread), got {spread}"
        );
    }

    #[test]
    fn pipeline_produces_consistent_set() {
        let mut rng = seeded(6);
        let svc =
            RangingService::new(Environment::Grass, ServiceConfig::refined(), &mut rng).unwrap();
        let positions = small_line(4, 9.0);
        let campaign = svc.run_campaign(&positions, &mut rng);
        let directed = StatFilter::Median.apply(&campaign);
        let set = merge_bidirectional(&directed, campaign.n, &ConsistencyConfig::default());
        assert!(campaign.samples.len() > set.len());
        assert!(set.len() >= 3, "adjacent pairs should survive the pipeline");
        // Every surviving distance is close to truth.
        for (a, b, d) in set.iter() {
            let truth = campaign.true_distance(a, b);
            assert!(
                (d - truth).abs() < 1.5,
                "{a}-{b}: measured {d}, true {truth}"
            );
        }
    }

    #[test]
    fn calibration_failure_surfaces() {
        let mut rng = seeded(7);
        let config = ServiceConfig {
            calibration: (29.0, 10), // beyond grass range
            ..ServiceConfig::refined()
        };
        let err = RangingService::new(Environment::Grass, config, &mut rng).unwrap_err();
        assert_eq!(err, RangingError::CalibrationFailed);
    }

    #[test]
    fn baseline_mode_runs() {
        let mut rng = seeded(8);
        let svc =
            RangingService::new(Environment::Urban, ServiceConfig::baseline(), &mut rng).unwrap();
        let positions = small_line(2, 10.0);
        let campaign = svc.run_campaign(&positions, &mut rng);
        assert!(!campaign.samples.is_empty());
    }
}
