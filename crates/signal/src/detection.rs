//! The `record-signal` / `detect-signal` routines of Figure 3.
//!
//! The refined ranging service improves detection confidence by adding the
//! binary tone-detector outputs of several chirps "in a manner which
//! amplifies tone detections occurring in the same positions in multiple
//! attempts", then applying two-level threshold detection: an accumulated
//! sample counts as *positive* when its count reaches the threshold `T`, and
//! a chirp is recognized at the first window of `m` consecutive samples
//! containing at least `k` positives whose first sample is itself positive.
//!
//! The pseudocode of Figure 3 is reproduced here with two clarifications
//! documented inline: indices are zero-based, and the returned index is the
//! start of the qualifying window (the paper's 1-based `i - m` is the sample
//! immediately before its window `[i-m+1, i]`; the window start is the
//! detected signal onset).

use serde::{Deserialize, Serialize};

/// Parameters of the two-level threshold detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectionParams {
    /// Accumulation threshold `T`: an offset is positive when at least this
    /// many chirps produced a detector hit there.
    pub threshold: u8,
    /// Window length `m` in samples.
    pub window: usize,
    /// Required positives `k` within the window.
    pub required: usize,
}

impl DetectionParams {
    /// The parameters calibrated for the paper's grass-field experiments:
    /// "the sum of the binary tone detection outputs from the 10 chirps must
    /// exceed the threshold value of 2 for in least 6 of 32 consecutive
    /// samples" (Section 3.6).
    pub fn paper() -> Self {
        DetectionParams {
            threshold: 2,
            window: 32,
            required: 6,
        }
    }

    /// Validates parameter domains.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SignalError::InvalidConfig`] if `window` or
    /// `required` is zero, or `required > window`, or `threshold` is zero.
    pub fn validate(&self) -> crate::Result<()> {
        use crate::SignalError::InvalidConfig;
        if self.threshold == 0 {
            return Err(InvalidConfig("threshold must be at least 1"));
        }
        if self.window == 0 {
            return Err(InvalidConfig("window must be non-empty"));
        }
        if self.required == 0 || self.required > self.window {
            return Err(InvalidConfig("required must be in 1..=window"));
        }
        Ok(())
    }
}

impl Default for DetectionParams {
    fn default() -> Self {
        DetectionParams::paper()
    }
}

/// Figure 3's `record-signal`: adds one chirp's binary detector output into
/// the accumulation buffer, saturating at 15 (the mote stores 4 bits per
/// offset).
///
/// # Panics
///
/// Panics if the buffers differ in length.
pub fn record_signal(accumulated: &mut [u8], chirp_hits: &[bool]) {
    assert_eq!(
        accumulated.len(),
        chirp_hits.len(),
        "accumulation buffer and chirp buffer must have equal length"
    );
    for (acc, &hit) in accumulated.iter_mut().zip(chirp_hits) {
        if hit && *acc < 15 {
            *acc += 1;
        }
    }
}

/// Figure 3's `detect-signal`: returns the index of the first sample of the
/// first window of `params.window` consecutive samples that contains at
/// least `params.required` positives (accumulated count `>= threshold`) and
/// whose first sample is positive. Returns `None` when no window qualifies
/// or the buffer is shorter than the window.
///
/// # Example
///
/// ```
/// use rl_signal::detection::{detect_signal, DetectionParams};
///
/// let mut buf = vec![0u8; 64];
/// for i in 40..52 { buf[i] = 5; } // a strong accumulated signal at 40
/// let params = DetectionParams { threshold: 2, window: 8, required: 4 };
/// assert_eq!(detect_signal(&buf, &params), Some(40));
/// ```
pub fn detect_signal(accumulated: &[u8], params: &DetectionParams) -> Option<usize> {
    params.validate().ok()?;
    let m = params.window;
    if accumulated.len() < m {
        return None;
    }
    let positive = |i: usize| accumulated[i] >= params.threshold;

    // Prime the count over the first window [0, m).
    let mut count = (0..m).filter(|&i| positive(i)).count();
    if count >= params.required && positive(0) {
        return Some(0);
    }
    // Slide: window [start, start + m).
    for start in 1..=(accumulated.len() - m) {
        if positive(start - 1) {
            count -= 1;
        }
        if positive(start + m - 1) {
            count += 1;
        }
        if count >= params.required && positive(start) {
            return Some(start);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn record_signal_accumulates_and_saturates() {
        let mut acc = vec![0u8; 4];
        let hits = [true, false, true, false];
        for _ in 0..20 {
            record_signal(&mut acc, &hits);
        }
        assert_eq!(acc, vec![15, 0, 15, 0], "must saturate at 4 bits");
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn record_signal_length_mismatch_panics() {
        let mut acc = vec![0u8; 4];
        record_signal(&mut acc, &[true; 3]);
    }

    #[test]
    fn detects_clean_signal_at_onset() {
        let mut buf = vec![0u8; 200];
        for v in buf.iter_mut().skip(100).take(30) {
            *v = 8;
        }
        assert_eq!(detect_signal(&buf, &DetectionParams::paper()), Some(100));
    }

    #[test]
    fn ignores_single_spikes() {
        let mut buf = vec![0u8; 200];
        buf[50] = 15; // one lone strong spike
        buf[90] = 3;
        assert_eq!(detect_signal(&buf, &DetectionParams::paper()), None);
    }

    #[test]
    fn requires_window_start_positive() {
        // Enough positives in the window, but scattered after a zero start:
        // detection snaps to the first positive sample of a dense region.
        let mut buf = vec![0u8; 100];
        for v in buf.iter_mut().skip(41).take(20) {
            *v = 4;
        }
        let p = DetectionParams {
            threshold: 2,
            window: 16,
            required: 6,
        };
        // Windows starting at 26..=40 contain >= 6 positives only once they
        // include enough of the signal; the first *qualifying* window must
        // start on a positive sample, i.e. at 41.
        assert_eq!(detect_signal(&buf, &p), Some(41));
    }

    #[test]
    fn detects_weak_signal_over_threshold() {
        let mut buf = vec![0u8; 120];
        // Alternating weak accumulation (simulates distance attenuation).
        for i in (60..100).step_by(3) {
            buf[i] = 2;
        }
        let p = DetectionParams {
            threshold: 2,
            window: 32,
            required: 6,
        };
        assert_eq!(detect_signal(&buf, &p), Some(60));
        // A stricter threshold misses it entirely.
        let strict = DetectionParams { threshold: 3, ..p };
        assert_eq!(detect_signal(&buf, &strict), None);
    }

    #[test]
    fn short_buffer_returns_none() {
        let buf = vec![5u8; 10];
        assert_eq!(detect_signal(&buf, &DetectionParams::paper()), None);
    }

    #[test]
    fn invalid_params_return_none() {
        let buf = vec![5u8; 100];
        let zero_threshold = DetectionParams {
            threshold: 0,
            window: 8,
            required: 4,
        };
        assert_eq!(detect_signal(&buf, &zero_threshold), None);
        let bad_required = DetectionParams {
            threshold: 1,
            window: 8,
            required: 9,
        };
        assert_eq!(detect_signal(&buf, &bad_required), None);
        assert!(zero_threshold.validate().is_err());
        assert!(bad_required.validate().is_err());
        assert!(DetectionParams::paper().validate().is_ok());
    }

    #[test]
    fn detection_at_buffer_start_and_end() {
        let p = DetectionParams {
            threshold: 1,
            window: 4,
            required: 3,
        };
        let start = [1u8, 1, 1, 0, 0, 0, 0, 0];
        assert_eq!(detect_signal(&start, &p), Some(0));
        let end = [0u8, 0, 0, 0, 1, 1, 1, 1];
        assert_eq!(detect_signal(&end, &p), Some(4));
    }

    proptest! {
        /// The detected index is always a positive sample and its window
        /// really contains `required` positives.
        #[test]
        fn prop_detection_invariants(
            buf in proptest::collection::vec(0u8..8, 40..300),
            threshold in 1u8..4,
            window in 4usize..32,
            required in 1usize..16,
        ) {
            prop_assume!(required <= window);
            let params = DetectionParams { threshold, window, required };
            if let Some(idx) = detect_signal(&buf, &params) {
                prop_assert!(buf[idx] >= threshold);
                prop_assert!(idx + window <= buf.len());
                let positives = buf[idx..idx + window]
                    .iter()
                    .filter(|&&v| v >= threshold)
                    .count();
                prop_assert!(positives >= required);
                // No earlier qualifying window exists.
                for earlier in 0..idx {
                    if buf[earlier] >= threshold && earlier + window <= buf.len() {
                        let c = buf[earlier..earlier + window]
                            .iter()
                            .filter(|&&v| v >= threshold)
                            .count();
                        prop_assert!(c < required, "earlier window at {earlier} qualifies");
                    }
                }
            }
        }

        /// Accumulation never decreases counts and is order-independent.
        #[test]
        fn prop_record_signal_monotone(
            hits1 in proptest::collection::vec(proptest::bool::ANY, 64),
            hits2 in proptest::collection::vec(proptest::bool::ANY, 64),
        ) {
            let mut a = vec![0u8; 64];
            record_signal(&mut a, &hits1);
            let snapshot = a.clone();
            record_signal(&mut a, &hits2);
            for (before, after) in snapshot.iter().zip(&a) {
                prop_assert!(after >= before);
            }
            // Order independence.
            let mut b = vec![0u8; 64];
            record_signal(&mut b, &hits2);
            record_signal(&mut b, &hits1);
            prop_assert_eq!(a, b);
        }
    }
}
