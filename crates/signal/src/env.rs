//! Acoustic environment profiles.
//!
//! The paper evaluates ranging in several outdoor settings with very
//! different acoustic behavior (Sections 3.3 and 3.6.2):
//!
//! * **grass (10–15 cm)** — high attenuation; virtually no detections beyond
//!   20 m, consistent (80–85 %) detection up to about 10 m;
//! * **pavement** — detections up to 35 m (occasionally 50 m), consistent up
//!   to about 25 m;
//! * **urban** — pavement-like attenuation but echo-rich ("echoes are
//!   particularly common in urban environments due to the presence of
//!   nearby buildings") and noisier;
//! * **wooded** — tall grass and scattered trees: the harshest attenuation.
//!
//! [`AcousticProfile`] captures these differences as a per-sample tone-
//! detector hit probability that decays with distance, an ambient noise
//! rate, and echo statistics. The shipped presets are calibrated so that the
//! detection-rate-versus-distance curves reproduce the prose table of
//! Section 3.6.2 (see `rl-bench`'s `MAXR` experiment).

use serde::{Deserialize, Serialize};

/// Named environments used in the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Environment {
    /// Flat grassy field, 10–15 cm grass (the 46-node grid experiment).
    Grass,
    /// Paved surface (parking-lot experiments).
    Pavement,
    /// Urban block: pavement with buildings, echoes and ambient noise
    /// (the 60-node baseline experiment of Section 3.3).
    Urban,
    /// Wooded area, >20 cm grass and scattered trees.
    Wooded,
}

impl Environment {
    /// All environments, in presentation order.
    pub const ALL: [Environment; 4] = [
        Environment::Grass,
        Environment::Pavement,
        Environment::Urban,
        Environment::Wooded,
    ];

    /// The calibrated acoustic profile for this environment.
    pub fn profile(self) -> AcousticProfile {
        match self {
            Environment::Grass => AcousticProfile {
                name: "grass",
                p_hit_near: 0.82,
                half_distance: 12.5,
                rolloff: 1.8,
                hard_range: 20.0,
                noise_rate: 0.00006,
                echo_probability: 0.08,
                echo_extra_path: (2.0, 12.0),
                echo_strength: 0.35,
                burst_rate_hz: 0.8,
                burst_len_samples: 10,
                burst_hit_probability: 0.6,
            },
            Environment::Pavement => AcousticProfile {
                name: "pavement",
                p_hit_near: 0.92,
                half_distance: 30.0,
                rolloff: 6.0,
                hard_range: 52.0,
                noise_rate: 0.00005,
                echo_probability: 0.18,
                echo_extra_path: (1.5, 10.0),
                echo_strength: 0.45,
                burst_rate_hz: 0.5,
                burst_len_samples: 8,
                burst_hit_probability: 0.55,
            },
            Environment::Urban => AcousticProfile {
                name: "urban",
                p_hit_near: 0.90,
                half_distance: 27.0,
                rolloff: 6.0,
                hard_range: 45.0,
                noise_rate: 0.00012,
                echo_probability: 0.55,
                echo_extra_path: (1.0, 25.0),
                echo_strength: 0.65,
                burst_rate_hz: 2.5,
                burst_len_samples: 12,
                burst_hit_probability: 0.7,
            },
            Environment::Wooded => AcousticProfile {
                name: "wooded",
                p_hit_near: 0.72,
                half_distance: 8.0,
                rolloff: 2.5,
                hard_range: 14.0,
                noise_rate: 0.00008,
                echo_probability: 0.25,
                echo_extra_path: (1.0, 8.0),
                echo_strength: 0.4,
                burst_rate_hz: 1.5,
                burst_len_samples: 10,
                burst_hit_probability: 0.6,
            },
        }
    }
}

impl core::fmt::Display for Environment {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.profile().name)
    }
}

/// Stochastic acoustic behavior of a deployment environment.
///
/// All probabilities are per tone-detector sample (the MICA service samples
/// the detector at 16 kHz).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcousticProfile {
    /// Short lowercase name, e.g. `"grass"`.
    pub name: &'static str,
    /// Detector hit probability per sample when the chirp is audible at
    /// close range (after speaker ramp-up).
    pub p_hit_near: f64,
    /// Distance (m) at which the hit probability has fallen to half of
    /// `p_hit_near`.
    pub half_distance: f64,
    /// Sigmoid width (m) of the attenuation roll-off around
    /// `half_distance`; smaller values give a sharper cutoff.
    pub rolloff: f64,
    /// Distance (m) beyond which the signal is never detected.
    pub hard_range: f64,
    /// Detector false-positive probability per sample from wide-band
    /// ambient noise.
    pub noise_rate: f64,
    /// Probability that a given source–receiver pair has a usable echo path
    /// (multi-path reflection).
    pub echo_probability: f64,
    /// Extra path length of the echo, `(min, max)` meters, uniform.
    pub echo_extra_path: (f64, f64),
    /// Multiplier on the direct-path hit probability for echo samples.
    pub echo_strength: f64,
    /// Rate (events/s) of discrete noise bursts (birds, footsteps,
    /// aircraft) that excite the detector.
    pub burst_rate_hz: f64,
    /// Duration of a noise burst in detector samples.
    pub burst_len_samples: usize,
    /// Detector hit probability per sample inside a noise burst.
    pub burst_hit_probability: f64,
}

impl AcousticProfile {
    /// Per-sample detector hit probability for a direct-path signal at
    /// distance `d` meters, with `sensitivity` a per-pair unit-variation
    /// multiplier (1.0 = nominal).
    ///
    /// Follows a logistic attenuation model clipped by the hard range:
    /// `p(d) = p_near / (1 + exp((d − d_half) / w))`.
    pub fn p_hit(&self, d: f64, sensitivity: f64) -> f64 {
        if d >= self.hard_range * sensitivity.max(0.25) {
            return 0.0;
        }
        let x = (d - self.half_distance * sensitivity) / self.rolloff;
        (self.p_hit_near / (1.0 + x.exp())).clamp(0.0, 1.0)
    }

    /// Validates the profile's parameter domains.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SignalError::InvalidConfig`] describing the first
    /// violated constraint.
    pub fn validate(&self) -> crate::Result<()> {
        use crate::SignalError::InvalidConfig;
        if !(0.0..=1.0).contains(&self.p_hit_near) {
            return Err(InvalidConfig("p_hit_near must be in [0, 1]"));
        }
        if !(self.half_distance > 0.0) {
            return Err(InvalidConfig("half_distance must be positive"));
        }
        if !(self.rolloff > 0.0) {
            return Err(InvalidConfig("rolloff must be positive"));
        }
        if !(self.hard_range > 0.0) {
            return Err(InvalidConfig("hard_range must be positive"));
        }
        if !(0.0..=1.0).contains(&self.noise_rate) {
            return Err(InvalidConfig("noise_rate must be in [0, 1]"));
        }
        if !(0.0..=1.0).contains(&self.echo_probability) {
            return Err(InvalidConfig("echo_probability must be in [0, 1]"));
        }
        if self.echo_extra_path.0 < 0.0 || self.echo_extra_path.1 < self.echo_extra_path.0 {
            return Err(InvalidConfig("echo_extra_path must be 0 <= min <= max"));
        }
        if !(0.0..=1.0).contains(&self.echo_strength) {
            return Err(InvalidConfig("echo_strength must be in [0, 1]"));
        }
        if self.burst_rate_hz < 0.0 {
            return Err(InvalidConfig("burst_rate_hz must be non-negative"));
        }
        if !(0.0..=1.0).contains(&self.burst_hit_probability) {
            return Err(InvalidConfig("burst_hit_probability must be in [0, 1]"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_are_valid() {
        for env in Environment::ALL {
            env.profile().validate().unwrap_or_else(|e| {
                panic!("{env} profile invalid: {e}");
            });
        }
    }

    #[test]
    fn hit_probability_decreases_with_distance() {
        for env in Environment::ALL {
            let p = env.profile();
            let mut last = f64::INFINITY;
            let mut d = 0.0;
            while d <= p.hard_range + 1.0 {
                let cur = p.p_hit(d, 1.0);
                assert!(cur <= last + 1e-12, "{env}: p_hit not monotone at {d} m");
                assert!((0.0..=1.0).contains(&cur));
                last = cur;
                d += 0.5;
            }
        }
    }

    #[test]
    fn grass_range_is_shorter_than_pavement() {
        let grass = Environment::Grass.profile();
        let pavement = Environment::Pavement.profile();
        // Paper: virtually no detections beyond 20 m on grass; up to 35-50 m
        // on pavement.
        assert!(grass.hard_range < 25.0);
        assert!(pavement.hard_range > 35.0);
        // Distance at which a nominal unit's hit probability drops below 0.4.
        let range = |p: &AcousticProfile| {
            (0..)
                .map(|i| f64::from(i) * 0.1)
                .find(|&d| d >= p.hard_range || p.p_hit(d, 1.0) < 0.4)
                .unwrap()
        };
        assert!(range(&grass) < range(&pavement));
    }

    #[test]
    fn grass_consistent_detection_near_10m() {
        // Section 3.6.2: ~80-85 % of chirps detected at 10 m on grass.
        let grass = Environment::Grass.profile();
        let p10 = grass.p_hit(10.0, 1.0);
        assert!(
            (0.6..=0.95).contains(&p10),
            "grass per-sample hit at 10 m should be strong, got {p10}"
        );
        // And nearly nothing at 20 m.
        assert!(grass.p_hit(20.5, 1.0) < 0.15);
        assert_eq!(grass.p_hit(30.0, 1.0), 0.0);
    }

    #[test]
    fn pavement_consistent_detection_near_25m() {
        let pavement = Environment::Pavement.profile();
        assert!(pavement.p_hit(25.0, 1.0) > 0.5);
        assert!(pavement.p_hit(45.0, 1.0) < 0.1);
    }

    #[test]
    fn urban_is_echo_rich_and_noisy() {
        let urban = Environment::Urban.profile();
        let grass = Environment::Grass.profile();
        assert!(urban.echo_probability > 3.0 * grass.echo_probability);
        assert!(urban.noise_rate > grass.noise_rate);
        assert!(urban.burst_rate_hz > grass.burst_rate_hz);
    }

    #[test]
    fn sensitivity_scales_effective_range() {
        let grass = Environment::Grass.profile();
        // A hot speaker/mic pair reaches farther, a weak one shorter.
        assert!(grass.p_hit(15.0, 1.3) > grass.p_hit(15.0, 1.0));
        assert!(grass.p_hit(15.0, 0.7) < grass.p_hit(15.0, 1.0));
    }

    #[test]
    fn validate_catches_bad_fields() {
        let mut p = Environment::Grass.profile();
        p.p_hit_near = 1.5;
        assert!(p.validate().is_err());
        let mut p = Environment::Grass.profile();
        p.echo_extra_path = (5.0, 1.0);
        assert!(p.validate().is_err());
        let mut p = Environment::Grass.profile();
        p.rolloff = 0.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn display_names() {
        assert_eq!(Environment::Grass.to_string(), "grass");
        assert_eq!(Environment::Urban.to_string(), "urban");
    }
}
