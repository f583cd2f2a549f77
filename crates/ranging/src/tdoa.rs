//! Detection-index → distance conversion with `δ_const` calibration.
//!
//! Section 3.1: the receiver computes
//! `d_ij = V_s · (t_detect − (t_recv − δ_xmit) − δ_const)`, where `δ_const`
//! bundles the constant transmit-to-chirp delay and the sensing/actuation
//! delays. "Since the sensing and actuation delays are partially determined
//! by the characteristics of the environment, δ_const must be determined
//! through calibration" — "without such calibration, a constant offset of
//! 10–20 cm may be added to every ranging measurement" (Section 3.6).
//!
//! In the simulation, the analogous constant bias comes from the speaker
//! ramp-up and threshold-crossing delay of the detector; [`calibrate`]
//! measures it at a reference distance exactly as a field calibration
//! would.

use rand::Rng;
use rl_signal::chirp::ChirpTrainConfig;
use rl_signal::detection::DetectionParams;
use rl_signal::detector::ReceptionSimulator;
use serde::{Deserialize, Serialize};

use crate::{RangingError, Result};

/// Converts buffer detection indices to distances.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TdoaConverter {
    config: ChirpTrainConfig,
    delta_const_samples: f64,
}

impl TdoaConverter {
    /// A converter with an explicit `δ_const` (in detector samples).
    pub fn new(config: ChirpTrainConfig, delta_const_samples: f64) -> Self {
        TdoaConverter {
            config,
            delta_const_samples,
        }
    }

    /// The calibration constant in samples.
    pub fn delta_const_samples(&self) -> f64 {
        self.delta_const_samples
    }

    /// The calibration constant expressed in meters.
    pub fn delta_const_meters(&self) -> f64 {
        self.config.sample_to_meters(self.delta_const_samples)
    }

    /// Converts a detection index to a distance (meters, clamped at 0).
    pub fn distance(&self, detection_index: usize) -> f64 {
        self.config
            .sample_to_meters(detection_index as f64 - self.delta_const_samples)
            .max(0.0)
    }
}

/// Calibrates `δ_const` for an environment by running `trials` receptions
/// at a known `reference_m` distance and taking the median detection bias,
/// mirroring the paper's pre-deployment calibration procedure.
///
/// # Errors
///
/// Returns [`RangingError::CalibrationFailed`] when no trial produced a
/// detection (reference distance beyond the environment's range) and
/// [`RangingError::InvalidConfig`] for a zero trial count or a non-positive
/// reference distance.
pub fn calibrate<R: Rng + ?Sized>(
    simulator: &ReceptionSimulator,
    detection: &DetectionParams,
    reference_m: f64,
    trials: usize,
    rng: &mut R,
) -> Result<TdoaConverter> {
    if trials == 0 {
        return Err(RangingError::InvalidConfig("trials must be nonzero"));
    }
    if !(reference_m > 0.0) {
        return Err(RangingError::InvalidConfig(
            "reference distance must be positive",
        ));
    }
    let mut biases = Vec::with_capacity(trials);
    for _ in 0..trials {
        let outcome = simulator.receive(reference_m, rng);
        if let Some(idx) = outcome.detect(detection) {
            biases.push(outcome.error_samples(idx));
        }
    }
    // A usable reference distance must detect reliably; sporadic noise
    // detections beyond range must not pass as a calibration.
    if biases.len() * 2 < trials {
        return Err(RangingError::CalibrationFailed);
    }
    let Some(median_bias) = rl_math::stats::median(&mut biases) else {
        return Err(RangingError::CalibrationFailed);
    };
    Ok(TdoaConverter::new(simulator.config().clone(), median_bias))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_math::rng::seeded;
    use rl_signal::env::Environment;

    fn sim() -> ReceptionSimulator {
        ReceptionSimulator::new(Environment::Grass.profile(), ChirpTrainConfig::paper())
    }

    #[test]
    fn conversion_roundtrip() {
        let cfg = ChirpTrainConfig::paper();
        let conv = TdoaConverter::new(cfg.clone(), 10.0);
        let idx = cfg.meters_to_sample(12.0) as usize + 10;
        let d = conv.distance(idx);
        assert!((d - 12.0).abs() < 0.05, "converted {d}");
        assert!((conv.delta_const_meters() - cfg.sample_to_meters(10.0)).abs() < 1e-12);
    }

    #[test]
    fn distance_clamps_at_zero() {
        let conv = TdoaConverter::new(ChirpTrainConfig::paper(), 100.0);
        assert_eq!(conv.distance(3), 0.0);
    }

    #[test]
    fn calibration_removes_constant_bias() {
        let sim = sim();
        let params = DetectionParams::paper();
        let mut rng = seeded(42);
        let conv = calibrate(&sim, &params, 8.0, 60, &mut rng).unwrap();

        // The calibration constant should be positive (ramp-up delay) and
        // of the 10-30 cm order the paper reports.
        let delta_m = conv.delta_const_meters();
        assert!(delta_m > 0.0, "delta {delta_m} m should be positive");
        assert!(delta_m < 0.6, "delta {delta_m} m unreasonably large");

        // Calibrated measurements at a different distance are near-unbiased;
        // uncalibrated ones carry the constant offset.
        let uncal = TdoaConverter::new(sim.config().clone(), 0.0);
        let mut cal_errors = Vec::new();
        let mut uncal_errors = Vec::new();
        for _ in 0..80 {
            let out = sim.receive(12.0, &mut rng);
            if let Some(idx) = out.detect(&params) {
                cal_errors.push(conv.distance(idx) - 12.0);
                uncal_errors.push(uncal.distance(idx) - 12.0);
            }
        }
        let cal_med = rl_math::stats::median_of(&cal_errors).unwrap();
        let uncal_med = rl_math::stats::median_of(&uncal_errors).unwrap();
        assert!(
            cal_med.abs() < 0.15,
            "calibrated median error {cal_med} m should be near zero"
        );
        assert!(
            uncal_med > cal_med + 0.05,
            "uncalibrated ({uncal_med}) should sit above calibrated ({cal_med})"
        );
    }

    #[test]
    fn calibration_fails_beyond_range() {
        let sim = sim();
        let mut rng = seeded(43);
        let err = calibrate(&sim, &DetectionParams::paper(), 29.0, 10, &mut rng).unwrap_err();
        assert_eq!(err, RangingError::CalibrationFailed);
    }

    #[test]
    fn calibration_validates_arguments() {
        let sim = sim();
        let mut rng = seeded(44);
        assert!(matches!(
            calibrate(&sim, &DetectionParams::paper(), 8.0, 0, &mut rng),
            Err(RangingError::InvalidConfig(_))
        ));
        assert!(matches!(
            calibrate(&sim, &DetectionParams::paper(), 0.0, 5, &mut rng),
            Err(RangingError::InvalidConfig(_))
        ));
    }
}
