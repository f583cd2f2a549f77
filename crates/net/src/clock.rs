//! Per-node clocks with drift, and MAC-layer time synchronization.
//!
//! Section 3.1 of the paper: source and sink are synchronized "using the
//! very same radio message used for TDoA ranging", relying on the MAC-layer
//! time stamping of the Flooding Time Synchronization Protocol (FTSP). The
//! maximum clock rate difference between two MICA2 motes is about
//! **50 µs per second**, which over the ~88 ms flight time of sound at 30 m
//! amounts to a ranging error of only ~0.15 cm — time synchronization "is
//! not a significant source of error". The [`TimeSync`] model reproduces
//! that analysis quantitatively.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A node-local clock related to global (true) time by a fixed offset and a
/// constant rate skew.
///
/// `local = offset + (1 + skew) * global`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftingClock {
    /// Offset of the local clock at global time zero, seconds.
    pub offset_s: f64,
    /// Rate skew, dimensionless: 50 µs/s corresponds to `5.0e-5`.
    pub skew: f64,
}

impl DriftingClock {
    /// A perfect clock.
    pub fn perfect() -> Self {
        DriftingClock {
            offset_s: 0.0,
            skew: 0.0,
        }
    }

    /// Draws a random clock: offset uniform in ±`max_offset_s`, skew uniform
    /// in ±`max_skew`.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R, max_offset_s: f64, max_skew: f64) -> Self {
        DriftingClock {
            offset_s: (rng.random::<f64>() * 2.0 - 1.0) * max_offset_s,
            skew: (rng.random::<f64>() * 2.0 - 1.0) * max_skew,
        }
    }

    /// Local reading at a global instant.
    pub fn local_from_global(&self, global_s: f64) -> f64 {
        self.offset_s + (1.0 + self.skew) * global_s
    }
}

impl Default for DriftingClock {
    fn default() -> Self {
        DriftingClock::perfect()
    }
}

/// FTSP-style MAC-layer timestamp synchronization between a sender and a
/// receiver.
///
/// One radio message carries the sender's local transmission timestamp; MAC
/// layer stamping removes most media-access nondeterminism, leaving a small
/// residual jitter. After the exchange, the receiver can convert the
/// sender's timestamps to its own clock with an error that grows with clock
/// skew over the elapsed time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeSync {
    /// Residual MAC-layer timestamping jitter, seconds (1σ). FTSP achieves
    /// a few microseconds on MICA2.
    pub timestamp_jitter_s: f64,
}

impl TimeSync {
    /// FTSP-like defaults on MICA2: 2 µs timestamp jitter.
    pub fn ftsp() -> Self {
        TimeSync {
            timestamp_jitter_s: 2.0e-6,
        }
    }

    /// Simulates one sync exchange at global time `t_sync` and returns the
    /// receiver-side estimate of the sender's clock offset, including the
    /// sampled timestamping error.
    ///
    /// The returned [`SyncState`] converts sender-local instants to
    /// receiver-local instants; its error grows as
    /// the clocks' relative rate difference × `(t − t_sync)`.
    pub fn synchronize<R: Rng + ?Sized>(
        &self,
        sender: &DriftingClock,
        receiver: &DriftingClock,
        t_sync_global: f64,
        rng: &mut R,
    ) -> SyncState {
        // Ideal mapping at the sync instant: both nodes observe the same
        // global event (first bit of the message, radio propagation treated
        // as instantaneous over <100 m).
        let sender_stamp = sender.local_from_global(t_sync_global);
        let receiver_stamp = receiver.local_from_global(t_sync_global)
            + rl_math::rng::normal(rng, 0.0, self.timestamp_jitter_s);
        SyncState {
            sender_stamp_s: sender_stamp,
            receiver_stamp_s: receiver_stamp,
        }
    }

    /// Worst-case ranging error (meters) caused by clock skew for a sound
    /// flight time over `distance_m`, per the paper's Section 3.1 analysis:
    /// the receiver measures the radio→sound interval with a clock that
    /// drifts by `max_skew` relative to the sender.
    pub fn max_ranging_error_m(max_skew: f64, distance_m: f64, speed_of_sound: f64) -> f64 {
        let flight_s = distance_m / speed_of_sound;
        let time_error_s = max_skew * flight_s;
        time_error_s * speed_of_sound
    }
}

impl Default for TimeSync {
    fn default() -> Self {
        TimeSync::ftsp()
    }
}

/// The result of one pairwise sync exchange: matching local timestamps of
/// the same global instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyncState {
    /// Sender's local timestamp of the sync event, seconds.
    pub sender_stamp_s: f64,
    /// Receiver's local timestamp of the sync event (with jitter), seconds.
    pub receiver_stamp_s: f64,
}

impl SyncState {
    /// Converts a sender-local instant to receiver-local time assuming
    /// equal rates (what the mote actually does over sub-second intervals).
    pub fn sender_to_receiver(&self, sender_local_s: f64) -> f64 {
        self.receiver_stamp_s + (sender_local_s - self.sender_stamp_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_math::rng::seeded;

    #[test]
    fn perfect_clock_is_identity() {
        let c = DriftingClock::perfect();
        assert_eq!(c.local_from_global(12.5), 12.5);
        assert_eq!(DriftingClock::default(), c);
    }

    #[test]
    fn sampled_clocks_within_bounds() {
        let mut rng = seeded(1);
        for _ in 0..100 {
            let c = DriftingClock::sample(&mut rng, 10.0, 5.0e-5);
            assert!(c.offset_s.abs() <= 10.0);
            assert!(c.skew.abs() <= 5.0e-5);
        }
    }

    #[test]
    fn paper_sync_error_bound_at_30m() {
        // Section 3.1: 50 µs/s drift ⇒ ~0.15 cm ranging error at 30 m.
        let err = TimeSync::max_ranging_error_m(5.0e-5, 30.0, 340.0);
        assert!(
            (err - 0.0015).abs() < 1e-6,
            "expected ~0.15 cm, got {} m",
            err
        );
    }

    #[test]
    fn sync_error_is_microsecond_scale() {
        let mut rng = seeded(2);
        let sync = TimeSync::ftsp();
        let a = DriftingClock::sample(&mut rng, 100.0, 5.0e-5);
        let b = DriftingClock::sample(&mut rng, 100.0, 5.0e-5);
        let t0 = 50.0;
        let state = sync.synchronize(&a, &b, t0, &mut rng);

        // A sender-local event shortly after the sync converts to
        // receiver-local time with error bounded by jitter + skew * dt.
        let dt = 0.1; // 100 ms, the scale of a ranging exchange
        let t1 = t0 + dt;
        let sender_local = a.local_from_global(t1);
        let receiver_true = b.local_from_global(t1);
        let converted = state.sender_to_receiver(sender_local);
        let err = (converted - receiver_true).abs();
        assert!(err < 20.0e-6 + 1.0e-4 * dt, "conversion error {err} s");
    }

    #[test]
    fn sync_error_grows_with_elapsed_time() {
        let mut rng = seeded(3);
        let sync = TimeSync {
            timestamp_jitter_s: 0.0,
        };
        let a = DriftingClock {
            offset_s: 0.0,
            skew: 5.0e-5,
        };
        let b = DriftingClock {
            offset_s: 7.0,
            skew: -5.0e-5,
        };
        let state = sync.synchronize(&a, &b, 0.0, &mut rng);
        let err_at = |dt: f64| {
            let sender_local = a.local_from_global(dt);
            let receiver_true = b.local_from_global(dt);
            (state.sender_to_receiver(sender_local) - receiver_true).abs()
        };
        assert!(err_at(1.0) > err_at(0.1));
        // 100 µs/s relative drift over 1 s ≈ 100 µs error.
        assert!((err_at(1.0) - 1.0e-4).abs() < 2.0e-5, "err {}", err_at(1.0));
    }
}
