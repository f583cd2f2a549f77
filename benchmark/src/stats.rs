//! Sample statistics, metric names, and the result report.

use std::fmt::Write as _;

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that it is an anecdote, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    xs
}

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    let xs = sorted(samples);
    let n = xs.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(xs[n / 2]),
        _ => Some(0.5 * (xs[n / 2 - 1] + xs[n / 2])),
    }
}

/// The smallest sample: the time of deterministic work with the host's
/// slow spells left out.
pub fn minimum(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().min_by(f64::total_cmp)
}

/// The arithmetic mean.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The geometric mean of positive samples: every sample's relative
/// change moves it by the same share, whatever the sample's size.
pub fn geomean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty() && samples.iter().all(|&x| x > 0.0))
        .then(|| (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp())
}

/// The nearest-rank `q`-quantile (`0 < q < 1`), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie strictly beyond its rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// Seconds to milliseconds, element-wise.
pub fn to_ms(seconds: &[f64]) -> Vec<f64> {
    seconds.iter().map(|s| s * 1e3).collect()
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Number of samples (operations) the value summarizes.
    pub samples: usize,
}

/// Everything one benchmark run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Whether every correctness check passed.
    pub correct: bool,
}

impl Report {
    /// An empty report that is correct until a check fails.
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or repeated name: both are bugs in the
    /// benchmark itself.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        assert!(valid_name(name), "invalid metric name `{name}`");
        assert!(self.get(name).is_none(), "metric `{name}` recorded twice");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records the median of `samples` when there is one.
    pub fn median(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        if let Some(value) = median(samples) {
            self.metric(name, value, unit, samples.len());
        }
    }

    /// Records the smallest of `samples` when there is one.
    pub fn minimum(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        if let Some(value) = minimum(samples) {
            self.metric(name, value, unit, samples.len());
        }
    }

    /// Records the mean of `samples` when there is one.
    pub fn mean(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        if let Some(value) = mean(samples) {
            self.metric(name, value, unit, samples.len());
        }
    }

    /// Records the `q`-quantile of `samples` when the percentile rule
    /// allows it.
    pub fn percentile(&mut self, name: &str, samples: &[f64], q: f64, unit: &'static str) {
        if let Some(value) = percentile(samples, q) {
            self.metric(name, value, unit, samples.len());
        }
    }

    /// A recorded metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Counts `count` attempted operations.
    pub fn attempt(&mut self, count: u64) {
        self.attempted += count;
    }

    /// Counts one failed operation and records why.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.correct = false;
        self.notes.push(format!("FAILED: {}", why.into()));
    }

    /// Records a failed consistency check that is not an operation.
    pub fn inconsistent(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.notes.push(format!("INCONSISTENT: {}", why.into()));
    }

    /// Folds another report into this one.
    pub fn absorb(&mut self, other: Report) {
        for m in other.metrics {
            self.metric(&m.name, m.value, m.unit, m.samples);
        }
        self.notes.extend(other.notes);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.correct &= other.correct;
    }

    /// The human-readable report: notes, then one line per metric with
    /// its unit and sample count.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "metric {:<34} {:>14.6} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let _ = write!(
            out,
            "metric {:<34} {:>14.6} {:<6} n={}\nops attempted={} failed={}",
            "failed_frac",
            self.failed_frac(),
            "ratio",
            self.attempted,
            self.attempted,
            self.failed
        );
        out
    }

    /// Failed or incorrect operations over operations attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }

    /// The one-line JSON result carrying exactly the metrics in `keys`.
    ///
    /// # Errors
    ///
    /// Names a key that was not measured or whose value is not finite.
    pub fn json(&self, keys: &[&str]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(keys.len());
        for &key in keys {
            let m = self
                .get(key)
                .ok_or_else(|| format!("metric `{key}` was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric `{key}` is not finite ({})", m.value));
            }
            metrics.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_metric_alphabet() {
        for good in [
            "setup_s",
            "solve_s.distributed-lss",
            "a",
            "9lives",
            "x.y_z-w",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "sp ace",
            "slash/",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 samples sits at rank 990: exactly ten beyond.
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        assert_eq!(percentile(&xs[..999], 0.99), None);
        // p50 needs twenty samples.
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(minimum(&[3.0, 1.0, 2.0]), Some(1.0));
        assert_eq!(minimum(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert!((geomean(&[1.0, 4.0, 16.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn reports_print_sample_counts_and_gate_percentiles() {
        let mut report = Report::new();
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        report.percentile("p99", &xs, 0.99, "ms");
        report.percentile("p90", &xs, 0.90, "ms");
        report.median("p50", &xs, "ms");
        report.attempt(100);
        assert!(
            report.get("p99").is_none(),
            "1 sample beyond p99 is too few"
        );
        assert_eq!(report.get("p90").map(|m| m.samples), Some(100));
        assert!(report.lines().contains("n=100"));
        let json = report.json(&["p50", "p90"]).unwrap();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 100, \"failed\": 0,"));
        assert!(report.json(&["p99"]).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected_at_record_time() {
        Report::new().metric("bad name", 1.0, "s", 1);
    }
}
