//! Head-to-head comparison against the Related-Work baselines (§2):
//! centroid localization, DV-hop, MDS-MAP, multilateration (plain and
//! progressive), distributed LSS and centralized LSS on identical data.
//!
//! The comparison is one [`Campaign`](crate::Campaign) invocation — the
//! canonical [`figure5_head_to_head`] grid shared with the
//! `compare_solvers` example — so every algorithm family runs through the
//! same [`Localizer`](rl_core::problem::Localizer) trait on the same
//! instantiated problem.

use crate::campaign::figure5_head_to_head;
use crate::report::m;
use crate::Table;

use super::ExperimentResult;

/// **BASELINES** — every algorithm family on the Figure-5 grass grid (46
/// motes, 13 anchors where applicable, synthetic 22 m / N(0, 0.33 m)
/// ranging): the anchor-free LSS of the paper versus the anchor-based
/// schemes it is positioned against.
pub fn baseline_comparison(seed: u64) -> ExperimentResult {
    let report = figure5_head_to_head(seed).run();

    let mut t = Table::new(
        "head-to-head on the Figure-5 grid (46 nodes, 13 anchors where applicable)",
        &["algorithm", "localized", "mean_error_m", "iterations"],
    );
    for (scenario, localizer) in report.cells() {
        let runs = report.runs_for(&scenario, &localizer);
        let record = runs[0];
        match &record.outcome {
            Ok(outcome) => {
                let (localized, err) = match &outcome.evaluation {
                    Some(eval) => (eval.localized.to_string(), m(eval.mean_error)),
                    None => ("0".into(), "n/a".into()),
                };
                t.push(&[
                    localizer.clone(),
                    localized,
                    err,
                    outcome.solution.stats().iterations.to_string(),
                ]);
            }
            Err(e) => t.push(&[
                localizer.clone(),
                "0".into(),
                format!("error: {e}"),
                "-".into(),
            ]),
        }
    }

    ExperimentResult::new(
        "BASELINES",
        "centroid / DV-hop / MDS-MAP / multilateration / distributed / LSS on identical data",
    )
    .with_table(t)
    .with_table(report.summary_table())
    .with_note(
        "the paper's positioning: connectivity-only schemes are coarse, anchor-based \
         ranging schemes need density, and the anchor-free LSS (the lss-anchor-free row \
         — it never sees the 13 anchors the other schemes get) matches or beats them \
         all; lss+constraint additionally pins the anchors and polishes the rest \
         with Gauss-Newton",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lss_wins_the_comparison() {
        let r = baseline_comparison(5);
        let csv = r.tables[0].to_csv();
        let error_of = |prefix: &str| -> f64 {
            csv.lines()
                .find(|l| l.starts_with(prefix))
                .and_then(|l| l.split(',').nth(2))
                .and_then(|v| v.parse().ok())
                .unwrap_or(f64::INFINITY)
        };
        // The paper's claim rests on the *anchor-free* LSS row: it beats
        // the anchor-consuming baselines without ever seeing an anchor.
        let lss = error_of("lss-anchor-free+constraint");
        let centroid = error_of("centroid");
        let dvhop = error_of("dv-hop");
        assert!(lss < 1.0, "LSS error {lss}");
        assert!(lss < centroid, "LSS {lss} vs centroid {centroid}");
        assert!(lss < dvhop, "LSS {lss} vs DV-hop {dvhop}");
        // All six algorithm families appear in the table.
        for name in [
            "lss-anchor-free+constraint",
            "lss+constraint",
            "multilateration,",
            "multilateration-progressive",
            "distributed-lss",
            "mds-map",
            "dv-hop",
            "centroid",
        ] {
            assert!(csv.contains(name), "missing {name} in:\n{csv}");
        }
    }
}
