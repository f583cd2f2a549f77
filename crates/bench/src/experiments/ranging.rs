//! Ranging-service experiments: Figures 2, 4, 6, 7, 8 and the §3.6.2
//! maximum-range study.

use rl_math::stats::{median_of, Histogram};
use rl_ranging::consistency::{merge_bidirectional, BidirectionalPolicy, ConsistencyConfig};
use rl_ranging::filter::StatFilter;
use rl_ranging::measurement::RangingCampaign;
use rl_ranging::service::{RangingService, ServiceConfig};
use rl_signal::chirp::ChirpTrainConfig;
use rl_signal::detection::DetectionParams;
use rl_signal::detector::{NodeAcoustics, ReceptionSimulator};
use rl_signal::env::Environment;

use super::ExperimentResult;
use crate::gate::Gate;
use crate::report::{m, pct};
use crate::Table;

/// Error statistics shared by the ranging figures.
fn error_stats(errors: &[f64]) -> Table {
    let mut t = Table::new("error statistics", &["metric", "value"]);
    let n = errors.len();
    t.push(&["samples".into(), n.to_string()]);
    let abs: Vec<f64> = errors.iter().map(|e| e.abs()).collect();
    t.push(&[
        "median |error| (m)".into(),
        m(median_of(&abs).unwrap_or(0.0)),
    ]);
    let gross = errors.iter().filter(|e| e.abs() > 1.0).count();
    t.push(&[
        "|error| > 1 m".into(),
        format!("{gross} ({})", pct(gross as f64 / n.max(1) as f64)),
    ]);
    let under = errors.iter().filter(|&&e| e < -1.0).count();
    let over = errors.iter().filter(|&&e| e > 1.0).count();
    t.push(&["underestimates (< -1 m)".into(), under.to_string()]);
    t.push(&["overestimates (> 1 m)".into(), over.to_string()]);
    let min = errors.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = errors.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    t.push(&["min error (m)".into(), m(min)]);
    t.push(&["max error (m)".into(), m(max)]);
    t
}

/// Scatter table `(true_d, measured, error)` for CSV plotting.
fn scatter_table(campaign: &RangingCampaign) -> Table {
    let mut t = Table::new("samples", &["true_m", "measured_m", "error_m"]);
    for s in &campaign.samples {
        let truth = campaign.true_distance(s.from, s.to);
        t.push(&[m(truth), m(s.measured_m), m(s.measured_m - truth)]);
    }
    t
}

/// The urban 60-node deployment used by the baseline experiments.
fn urban_campaign(seed: u64) -> RangingCampaign {
    let scenario = rl_deploy::Scenario::urban_60(seed);
    let mut rng = rl_math::rng::seeded(seed ^ 0xF2);
    let service = RangingService::new(Environment::Urban, ServiceConfig::baseline(), &mut rng)
        .expect("urban baseline calibrates");
    service.run_campaign(&scenario.deployment.positions, &mut rng)
}

/// The grass-grid deployment used by the refined-service experiments
/// (46 reporting motes, 6 rounds).
pub fn grass_campaign(seed: u64) -> RangingCampaign {
    let deployment = rl_deploy::grid::OffsetGrid::paper_figure5()
        .generate()
        .without_nodes(&[0]);
    let mut rng = rl_math::rng::seeded(seed ^ 0xF6);
    let service = RangingService::new(Environment::Grass, ServiceConfig::refined(), &mut rng)
        .expect("grass refined calibrates");
    service.run_campaign(&deployment.positions, &mut rng)
}

/// **F2** — baseline ranging errors on the urban 60-node deployment
/// (Figure 2: "many of the measurements with >1 m errors are
/// underestimates").
pub fn figure2_baseline_urban(seed: u64) -> ExperimentResult {
    let campaign = urban_campaign(seed);
    let errors = campaign.errors();
    let under = errors.iter().filter(|&&e| e < -1.0).count();
    let over = errors.iter().filter(|&&e| e > 1.0).count();
    ExperimentResult::new(
        "F2",
        "baseline acoustic ranging, urban 60-node deployment, d <= 30 m",
    )
    .with_table(error_stats(&errors))
    .with_table(scatter_table(&campaign))
    .with_note(format!(
        "paper: many >1 m errors, mostly underestimates; measured: {under} under vs {over} over"
    ))
}

/// **F4** — the same baseline data after median filtering of up to five
/// measurements per directed pair (Figure 4).
pub fn figure4_median_filter(seed: u64) -> ExperimentResult {
    let campaign = urban_campaign(seed);
    let raw_errors = campaign.errors();
    let filtered = StatFilter::Median.apply_limited(&campaign, 5);
    let errors: Vec<f64> = filtered
        .iter()
        .map(|(&(a, b), &est)| est - campaign.true_distance(a, b))
        .collect();
    let gross_raw =
        raw_errors.iter().filter(|e| e.abs() > 1.0).count() as f64 / raw_errors.len().max(1) as f64;
    let gross_filtered =
        errors.iter().filter(|e| e.abs() > 1.0).count() as f64 / errors.len().max(1) as f64;
    ExperimentResult::new(
        "F4",
        "baseline ranging + median filter (up to 5 measurements)",
    )
    .with_table(error_stats(&errors))
    .with_note(format!(
        "gross-error rate: raw {} -> filtered {} (paper: most outliers suppressed)",
        pct(gross_raw),
        pct(gross_filtered)
    ))
}

/// Histogram table over ranging errors (the Figure 6/7 presentation).
fn histogram_table(errors: &[f64]) -> Table {
    let mut h = Histogram::new(-2.0, 2.0, 40);
    h.extend(errors.iter().cloned());
    let mut t = Table::new("error histogram", &["bin_center_m", "count"]);
    for (i, &c) in h.bins().iter().enumerate() {
        t.push(&[m(h.bin_center(i)), c.to_string()]);
    }
    t.push(&["< -2".into(), h.underflow().to_string()]);
    t.push(&[">= 2".into(), h.overflow().to_string()]);
    t
}

/// **F6** — refined-service error histogram on the 46-node grass grid
/// after six rounds (Figure 6: zero-mean ±30 cm core plus rare
/// large-magnitude errors).
pub fn figure6_refined_histogram(seed: u64) -> ExperimentResult {
    let campaign = grass_campaign(seed);
    let errors = campaign.errors();
    let mut h = Histogram::new(-0.3, 0.3, 2);
    h.extend(errors.iter().cloned());
    let core = 1.0 - (h.underflow() + h.overflow()) as f64 / errors.len().max(1) as f64;
    let gross = errors.iter().filter(|e| e.abs() > 1.0).count();
    ExperimentResult::new(
        "F6",
        "refined ranging error histogram, 46-node grass grid, 6 rounds",
    )
    .with_table(error_stats(&errors))
    .with_table(histogram_table(&errors))
    .with_note(format!(
        "paper: bell-shaped core within ±30 cm + outliers up to 11 m; measured: {} of samples within ±30 cm, {gross} gross errors",
        pct(core)
    ))
}

/// **F7** — the same data restricted to pairs with *agreeing bidirectional*
/// measurements (Figure 7: the consistency check eliminates most
/// large-magnitude errors).
pub fn figure7_bidirectional(seed: u64) -> ExperimentResult {
    let campaign = grass_campaign(seed);
    let estimates = StatFilter::Median.apply(&campaign);
    let strict = ConsistencyConfig {
        bidirectional_tolerance_m: 1.0,
        policy: BidirectionalPolicy::RequireBoth,
    };
    let set = merge_bidirectional(&estimates, campaign.n, &strict);
    let errors: Vec<f64> = set
        .iter()
        .map(|(a, b, d)| d - campaign.true_distance(a, b))
        .collect();
    let gross = errors.iter().filter(|e| e.abs() > 1.0).count();

    // For comparison: one-way estimates carry the gross errors.
    let lenient = ConsistencyConfig::default();
    let one_way = merge_bidirectional(&estimates, campaign.n, &lenient);
    let gross_oneway = one_way
        .iter()
        .map(|(a, b, d)| d - campaign.true_distance(a, b))
        .filter(|e| e.abs() > 1.0)
        .count();

    ExperimentResult::new("F7", "bidirectional-only error histogram (grass grid)")
        .with_table(error_stats(&errors))
        .with_table(histogram_table(&errors))
        .with_note(format!(
            "paper: most large-magnitude errors eliminated; measured: {gross} gross errors in {} bidirectional pairs vs {gross_oneway} with one-way pairs included ({})",
            set.len(),
            one_way.len()
        ))
        // Fewer gross errors than the unfiltered one-way estimates carry.
        .with_gate(Gate::at_most(
            "gross-errors",
            gross as f64,
            gross_oneway as f64 - 1.0,
        ))
}

/// **F8** — measured and filtered distances versus actual distance
/// (Figure 8: "large-magnitude errors are more common at longer
/// distances").
pub fn figure8_error_vs_distance(seed: u64) -> ExperimentResult {
    let campaign = grass_campaign(seed);
    let mut t = Table::new(
        "error by distance band",
        &["band_m", "samples", "median_|e|_m", "gross_rate"],
    );
    let mut gross_rates = Vec::new();
    let mut band_samples = Vec::new();
    for band in [(0.0, 5.0), (5.0, 10.0), (10.0, 15.0), (15.0, 21.0)] {
        let errors: Vec<f64> = campaign
            .samples
            .iter()
            .filter(|s| {
                let d = campaign.true_distance(s.from, s.to);
                d >= band.0 && d < band.1
            })
            .map(|s| campaign.error_of(s))
            .collect();
        let abs: Vec<f64> = errors.iter().map(|e| e.abs()).collect();
        let gross =
            errors.iter().filter(|e| e.abs() > 1.0).count() as f64 / errors.len().max(1) as f64;
        gross_rates.push(gross);
        band_samples.push(errors.len());
        t.push(&[
            format!("{:.0}-{:.0}", band.0, band.1),
            errors.len().to_string(),
            m(median_of(&abs).unwrap_or(0.0)),
            pct(gross),
        ]);
    }
    let increasing = gross_rates.windows(2).all(|w| w[1] >= w[0] - 0.02);
    // The claim is that large errors grow with distance: the farthest
    // band's gross rate must exceed the nearest populated band's by at
    // least one gross sample's share of the farthest band.
    let nearest = band_samples.iter().position(|&k| k > 0).unwrap_or(0);
    let farthest = gross_rates.len() - 1;
    let one_sample = 1.0 / band_samples[farthest].max(1) as f64;
    ExperimentResult::new("F8", "measured vs actual distance, grass grid")
        .with_table(t)
        .with_table(scatter_table(&campaign))
        .with_note(format!(
            "paper: large errors grow with distance; measured gross rates {} ({})",
            gross_rates
                .iter()
                .map(|g| pct(*g))
                .collect::<Vec<_>>()
                .join(" -> "),
            if increasing {
                "increasing"
            } else {
                "NOT increasing"
            }
        ))
        .with_gate(Gate::at_least(
            "farthest-band-gross-rate",
            gross_rates[farthest],
            gross_rates[nearest] + one_sample,
        ))
}

/// **MAXR** — the §3.6.2 maximum-range study: detection rate versus
/// distance on grass and pavement at thresholds 1 and 2.
pub fn max_range_study(seed: u64) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "MAXR",
        "detection rate vs distance (grass / pavement, thresholds 1 / 2)",
    );
    let mut ranges_note = Vec::new();
    // Maximum range at threshold 1, grass then pavement.
    let mut t1_max_range = Vec::new();
    let mut table = Table::new(
        "detection rate",
        &["environment", "threshold", "distance_m", "rate"],
    );
    for env in [Environment::Grass, Environment::Pavement] {
        for threshold in [1u8, 2] {
            let params = DetectionParams {
                threshold,
                ..DetectionParams::paper()
            };
            let config = ChirpTrainConfig {
                max_distance_m: 55.0,
                ..ChirpTrainConfig::paper()
            };
            // §3.6.2 ran the lowest threshold "in a quiet environment":
            // no noise bursts, minimal ambient floor.
            let mut profile = env.profile();
            profile.burst_rate_hz = 0.0;
            profile.noise_rate *= 0.25;
            let sim = ReceptionSimulator::new(profile, config);
            let mut rng = rl_math::rng::seeded(seed ^ u64::from(threshold) ^ (env as u64) << 8);
            let mut max_range = 0.0f64;
            let mut reliable_range = 0.0f64;
            let trials = 40;
            let mut d = 2.0;
            while d <= 52.0 {
                let mut detections = 0;
                for _ in 0..trials {
                    let pair = NodeAcoustics::nominal();
                    let out = sim.receive_with(d, &pair, &mut rng);
                    if let Some(idx) = out.detect(&params) {
                        // Count only detections near the truth (a noise
                        // detection at 40 m is not "range").
                        if out.error_meters(idx).abs() < 3.0 {
                            detections += 1;
                        }
                    }
                }
                let rate = detections as f64 / trials as f64;
                table.push(&[
                    env.to_string(),
                    threshold.to_string(),
                    format!("{d:.0}"),
                    pct(rate),
                ]);
                if rate >= 0.05 {
                    max_range = d;
                }
                if rate >= 0.80 {
                    reliable_range = d;
                }
                d += 2.0;
            }
            if threshold == 1 {
                t1_max_range.push(max_range);
            }
            ranges_note.push(format!(
                "{env}/T={threshold}: max {max_range:.0} m, reliable {reliable_range:.0} m"
            ));
        }
    }
    result = result.with_table(table);
    result = result.with_note(format!(
        "paper: grass max ~20 m / reliable ~10 m; pavement max 35-50 m / reliable ~25 m. measured: {}",
        ranges_note.join("; ")
    ));
    // Grass carries a shorter range than pavement: at least one 2 m step.
    result.with_gate(Gate::at_most(
        "grass-max-range-m",
        t1_max_range[0],
        t1_max_range[1] - 2.0,
    ))
}

/// **Ablation** — statistical filter comparison (none / median / mode) on
/// the grass campaign, extending §3.5's discussion.
pub fn filter_ablation(seed: u64) -> ExperimentResult {
    let campaign = grass_campaign(seed);
    let mut t = Table::new(
        "statistical filter comparison",
        &["filter", "pairs", "median_|e|_m", "gross_rate"],
    );
    for (name, filter) in [
        ("none (first sample)", StatFilter::None),
        ("median", StatFilter::Median),
        ("mode (0.5 m bins)", StatFilter::mode_default()),
    ] {
        let estimates = filter.apply(&campaign);
        let errors: Vec<f64> = estimates
            .iter()
            .map(|(&(a, b), &est)| est - campaign.true_distance(a, b))
            .collect();
        let abs: Vec<f64> = errors.iter().map(|e| e.abs()).collect();
        let gross =
            errors.iter().filter(|e| e.abs() > 1.0).count() as f64 / errors.len().max(1) as f64;
        t.push(&[
            name.into(),
            estimates.len().to_string(),
            m(median_of(&abs).unwrap_or(0.0)),
            pct(gross),
        ]);
    }
    ExperimentResult::new(
        "ABL-FILTER",
        "median vs mode vs unfiltered (grass campaign)",
    )
    .with_table(t)
    .with_note("paper: median/mode limit the effect of outliers; mode needs more samples")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny smoke seed keeps these fast; full runs happen in the
    /// `figures` binary.
    const SEED: u64 = 9;

    #[test]
    fn figure6_has_core_distribution() {
        let r = figure6_refined_histogram(SEED);
        assert_eq!(r.id, "F6");
        assert!(!r.tables.is_empty());
        assert!(r.notes[0].contains("±30 cm"));
    }

    #[test]
    fn figure7_reduces_gross_errors() {
        let campaign = grass_campaign(SEED);
        let estimates = StatFilter::Median.apply(&campaign);
        let strict = ConsistencyConfig {
            bidirectional_tolerance_m: 1.0,
            policy: BidirectionalPolicy::RequireBoth,
        };
        let set = merge_bidirectional(&estimates, campaign.n, &strict);
        let gross_bidi = set
            .iter()
            .map(|(a, b, d)| d - campaign.true_distance(a, b))
            .filter(|e| e.abs() > 1.0)
            .count() as f64
            / set.len().max(1) as f64;
        let lenient = merge_bidirectional(&estimates, campaign.n, &ConsistencyConfig::default());
        let gross_oneway = lenient
            .iter()
            .map(|(a, b, d)| d - campaign.true_distance(a, b))
            .filter(|e| e.abs() > 1.0)
            .count() as f64
            / lenient.len().max(1) as f64;
        assert!(
            gross_bidi <= gross_oneway + 1e-9,
            "bidirectional {gross_bidi} vs one-way {gross_oneway}"
        );
    }
}
