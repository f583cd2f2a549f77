//! Robust statistics for ranging measurements.
//!
//! The refined ranging service of the paper relies on **median** and **mode**
//! filtering to discard uncorrelated outliers (Section 3.5, "Statistical
//! Filtering"), and the evaluation reports error histograms and summary
//! statistics. Since the Rust ecosystem has few robust-statistics crates and
//! external dependencies are restricted, this module implements them from
//! scratch.

use serde::{Deserialize, Serialize};

/// Arithmetic mean. Returns `None` for an empty slice.
///
/// # Example
///
/// ```
/// assert_eq!(rl_math::stats::mean(&[1.0, 2.0, 3.0]), Some(2.0));
/// assert_eq!(rl_math::stats::mean(&[]), None);
/// ```
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Unbiased sample variance (`n - 1` denominator).
///
/// Returns `None` when fewer than two samples are given.
pub fn variance(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    let ss: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    Some(ss / (xs.len() - 1) as f64)
}

/// Unbiased sample standard deviation.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Median, computed in place by sorting the provided buffer.
///
/// For an even count, the mean of the two middle elements is returned. This
/// is the statistical filter the ranging service applies to repeated
/// measurements of the same node pair.
///
/// Returns `None` for an empty slice.
pub fn median(xs: &mut [f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
    let n = xs.len();
    Some(if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    })
}

/// Median of a borrowed slice (allocates a scratch copy).
pub fn median_of(xs: &[f64]) -> Option<f64> {
    let mut buf = xs.to_vec();
    median(&mut buf)
}

/// Mode of continuous data via histogram binning.
///
/// The samples are bucketed into bins of width `bin_width`; the center of the
/// most populated bin is returned (ties resolved toward the smaller value).
/// The paper notes the mode "is more resistant to the effects of uncorrelated
/// outliers than the median, but it needs more measurements to be effective".
///
/// Returns `None` for an empty slice or non-positive bin width.
///
/// # Example
///
/// ```
/// let xs = [10.0, 10.1, 10.2, 35.0];
/// let m = rl_math::stats::mode_binned(&xs, 0.5).unwrap();
/// assert!((m - 10.1).abs() < 0.5);
/// ```
pub fn mode_binned(xs: &[f64], bin_width: f64) -> Option<f64> {
    if xs.is_empty() || !(bin_width > 0.0) {
        return None;
    }
    let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut counts: std::collections::BTreeMap<i64, (usize, f64)> =
        std::collections::BTreeMap::new();
    for &x in xs {
        let bin = ((x - lo) / bin_width).floor() as i64;
        let e = counts.entry(bin).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += x;
    }
    counts
        .iter()
        .max_by(|a, b| a.1 .0.cmp(&b.1 .0).then(b.0.cmp(a.0)))
        .map(|(_, &(n, sum))| sum / n as f64)
}

/// Linear-interpolation quantile, `q` in `[0, 1]`; sorts in place.
///
/// Returns `None` for an empty slice or out-of-range `q`.
pub fn quantile(xs: &mut [f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(xs[lo] * (1.0 - frac) + xs[hi] * frac)
}

/// A fixed-width histogram over `[lo, hi)` with out-of-range counters.
///
/// Used to reproduce the ranging-error histograms of Figures 6 and 7.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<usize>,
    underflow: usize,
    overflow: usize,
}

impl Histogram {
    /// Creates a histogram spanning `[lo, hi)` with `n_bins` equal bins.
    ///
    /// # Panics
    ///
    /// Panics if `n_bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, n_bins: usize) -> Self {
        assert!(n_bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range is empty: [{lo}, {hi})");
        Histogram {
            lo,
            hi,
            bins: vec![0; n_bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Adds every sample from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.add(x);
        }
    }

    /// Per-bin counts.
    pub fn bins(&self) -> &[usize] {
        &self.bins
    }

    /// Center coordinate of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.bins.len());
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Samples below the range.
    pub fn underflow(&self) -> usize {
        self.underflow
    }

    /// Samples at or above the upper bound.
    pub fn overflow(&self) -> usize {
        self.overflow
    }

    /// Total number of samples added, including out-of-range ones.
    pub fn total(&self) -> usize {
        self.bins.iter().sum::<usize>() + self.underflow + self.overflow
    }
}

/// Five-number-plus summary of a sample set, as reported in experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for a single sample).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median.
    pub median: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample set. Returns `None` for empty input.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() {
            return None;
        }
        let mut buf = xs.to_vec();
        let med = median(&mut buf)?;
        Some(Summary {
            count: xs.len(),
            mean: mean(xs)?,
            std_dev: std_dev(xs).unwrap_or(0.0),
            min: buf[0],
            median: med,
            max: buf[buf.len() - 1],
        })
    }
}

impl core::fmt::Display for Summary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} med={:.3} max={:.3}",
            self.count, self.mean, self.std_dev, self.min, self.median, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn variance_and_std() {
        // Known: var([1,2,3,4]) = 5/3 (unbiased).
        let v = variance(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((v - 5.0 / 3.0).abs() < 1e-12);
        assert!(variance(&[1.0]).is_none());
        assert!((std_dev(&[1.0, 2.0, 3.0, 4.0]).unwrap() - v.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn median_odd_even() {
        let mut odd = [3.0, 1.0, 2.0];
        assert_eq!(median(&mut odd), Some(2.0));
        let mut even = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut even), Some(2.5));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn median_resists_outlier() {
        // Motivating case from the ranging service: one echo-induced error.
        let mut xs = [10.0, 10.1, 9.9, 10.05, 2.2];
        let m = median(&mut xs).unwrap();
        assert!((m - 10.0).abs() < 0.1);
    }

    #[test]
    fn mode_binned_finds_cluster() {
        let xs = [10.0, 10.1, 10.2, 10.15, 35.0, 2.0];
        let m = mode_binned(&xs, 0.5).unwrap();
        assert!((m - 10.11).abs() < 0.2, "mode {m}");
        assert!(mode_binned(&[], 0.5).is_none());
        assert!(mode_binned(&xs, 0.0).is_none());
        assert!(mode_binned(&xs, -1.0).is_none());
    }

    #[test]
    fn mode_binned_single_value() {
        assert_eq!(mode_binned(&[7.0], 1.0), Some(7.0));
    }

    #[test]
    fn quantile_interpolates() {
        let mut xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&mut xs.clone(), 0.0), Some(1.0));
        assert_eq!(quantile(&mut xs.clone(), 1.0), Some(4.0));
        assert_eq!(quantile(&mut xs.clone(), 0.5), Some(2.5));
        assert_eq!(quantile(&mut xs, 1.5), None);
    }

    #[test]
    fn histogram_counts_and_ranges() {
        let mut h = Histogram::new(-1.0, 1.0, 4);
        h.extend([-2.0, -0.9, -0.1, 0.1, 0.9, 1.0, 5.0]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bins(), &[1, 1, 1, 1]);
        assert_eq!(h.total(), 7);
        assert!((h.bin_center(0) + 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "range is empty")]
    fn histogram_bad_range_panics() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }

    #[test]
    fn summary_reports_all_fields() {
        let s = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!(Summary::of(&[]).is_none());
        let shown = s.to_string();
        assert!(shown.contains("n=3"));
        assert!(shown.contains("med=2.000"));
    }

    proptest! {
        #[test]
        fn prop_median_is_order_statistic(mut xs in proptest::collection::vec(-100.0f64..100.0, 1..50)) {
            let m = median(&mut xs).unwrap();
            let below = xs.iter().filter(|&&x| x <= m + 1e-12).count();
            let above = xs.iter().filter(|&&x| x >= m - 1e-12).count();
            prop_assert!(below * 2 >= xs.len());
            prop_assert!(above * 2 >= xs.len());
        }

        #[test]
        fn prop_mean_within_min_max(xs in proptest::collection::vec(-100.0f64..100.0, 1..50)) {
            let m = mean(&xs).unwrap();
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        }

        #[test]
        fn prop_quantiles_monotone(mut xs in proptest::collection::vec(-100.0f64..100.0, 2..50)) {
            let q25 = quantile(&mut xs, 0.25).unwrap();
            let q50 = quantile(&mut xs, 0.50).unwrap();
            let q75 = quantile(&mut xs, 0.75).unwrap();
            prop_assert!(q25 <= q50 && q50 <= q75);
        }

        #[test]
        fn prop_histogram_total_matches(xs in proptest::collection::vec(-10.0f64..10.0, 0..100)) {
            let mut h = Histogram::new(-5.0, 5.0, 10);
            h.extend(xs.iter().cloned());
            prop_assert_eq!(h.total(), xs.len());
        }
    }
}
