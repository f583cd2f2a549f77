//! Radio propagation model.
//!
//! A simple disk model suffices for the paper's algorithms: radio reaches
//! farther than acoustic ranging (MICA2 radios cover ~100 m outdoors versus
//! ≤30 m acoustic range), so network connectivity is never the bottleneck —
//! but delivery is lossy and MAC access adds a small delay. The model is
//! deliberately parameter-light; everything the localization layer needs is
//! *who hears whom* and *when*.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Disk radio model with per-link loss and MAC delay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RadioModel {
    /// Communication range, meters.
    pub range_m: f64,
    /// Probability that an individual transmission is lost on a link.
    pub loss_probability: f64,
    /// Mean MAC/processing delay per hop, seconds.
    pub mac_delay_s: f64,
    /// Uniform jitter added to the MAC delay, seconds.
    pub mac_jitter_s: f64,
}

impl RadioModel {
    /// MICA2-like defaults: 100 m range, 2 % loss, ~5 ms MAC delay.
    pub fn mica2() -> Self {
        RadioModel {
            range_m: 100.0,
            loss_probability: 0.02,
            mac_delay_s: 5.0e-3,
            mac_jitter_s: 2.0e-3,
        }
    }

    /// A lossless, near-instant radio (useful in unit tests).
    pub fn ideal(range_m: f64) -> Self {
        RadioModel {
            range_m,
            loss_probability: 0.0,
            mac_delay_s: 1.0e-4,
            mac_jitter_s: 0.0,
        }
    }

    /// Samples whether one transmission over an in-range link is delivered.
    pub fn delivered<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.loss_probability <= 0.0 || rng.random::<f64>() >= self.loss_probability
    }

    /// Samples the delivery latency of one hop, seconds.
    pub fn latency<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mac_delay_s
            + if self.mac_jitter_s > 0.0 {
                rng.random::<f64>() * self.mac_jitter_s
            } else {
                0.0
            }
    }

    /// Validates parameter domains.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NetError::InvalidConfig`] naming the violated
    /// constraint.
    pub fn validate(&self) -> crate::Result<()> {
        use crate::NetError::InvalidConfig;
        if !(self.range_m > 0.0) {
            return Err(InvalidConfig("range_m must be positive"));
        }
        if !(0.0..=1.0).contains(&self.loss_probability) {
            return Err(InvalidConfig("loss_probability must be in [0, 1]"));
        }
        if !(self.mac_delay_s >= 0.0) || !(self.mac_jitter_s >= 0.0) {
            return Err(InvalidConfig("delays must be non-negative"));
        }
        Ok(())
    }
}

impl Default for RadioModel {
    fn default() -> Self {
        RadioModel::mica2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_math::rng::seeded;

    #[test]
    fn presets_are_valid() {
        RadioModel::mica2().validate().unwrap();
        RadioModel::ideal(50.0).validate().unwrap();
    }

    #[test]
    fn ideal_radio_always_delivers() {
        let r = RadioModel::ideal(10.0);
        let mut rng = seeded(1);
        assert!((0..100).all(|_| r.delivered(&mut rng)));
        assert_eq!(r.latency(&mut rng), 1.0e-4);
    }

    #[test]
    fn lossy_radio_drops_some() {
        let r = RadioModel {
            loss_probability: 0.3,
            ..RadioModel::mica2()
        };
        let mut rng = seeded(2);
        let delivered = (0..1000).filter(|_| r.delivered(&mut rng)).count();
        assert!((600..800).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn latency_within_bounds() {
        let r = RadioModel::mica2();
        let mut rng = seeded(3);
        for _ in 0..100 {
            let l = r.latency(&mut rng);
            assert!(l >= r.mac_delay_s);
            assert!(l <= r.mac_delay_s + r.mac_jitter_s);
        }
    }

    #[test]
    fn validate_rejects_bad_params() {
        let bad_range = RadioModel {
            range_m: 0.0,
            ..RadioModel::mica2()
        };
        assert!(bad_range.validate().is_err());
        let bad_loss = RadioModel {
            loss_probability: 1.5,
            ..RadioModel::mica2()
        };
        assert!(bad_loss.validate().is_err());
        let bad_delay = RadioModel {
            mac_delay_s: -1.0,
            ..RadioModel::mica2()
        };
        assert!(bad_delay.validate().is_err());
        let nan_jitter = RadioModel {
            mac_jitter_s: f64::NAN,
            ..RadioModel::mica2()
        };
        assert!(nan_jitter.validate().is_err());
    }
}
