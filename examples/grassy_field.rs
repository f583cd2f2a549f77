//! The paper's grass-field pipeline, end to end.
//!
//! Reproduces the full Section 3 + Section 4.2 workflow on the 46-node
//! offset grid: acoustic chirp-train simulation, two-level threshold
//! detection, median filtering, bidirectional consistency checking, and
//! finally centralized LSS with the minimum-spacing soft constraint —
//! compared head-to-head against anchor-based multilateration on the same
//! sparse data.
//!
//! ```text
//! cargo run --release --example grassy_field
//! ```

use resilient_localization::prelude::*;
use rl_ranging::consistency::{merge_bidirectional, ConsistencyConfig};
use rl_ranging::filter::StatFilter;
use rl_ranging::service::{RangingService, ServiceConfig};

// Mixed error types (ranging service + localization), so this example
// keeps the boxed error; the crate's own one-parameter `Result` from the
// prelude is named around it.
fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    let mut rng = rl_math::rng::seeded(7);

    // The 46 reporting motes of the paper's field experiment (one of the
    // 47 grid positions failed to report).
    let field = rl_deploy::grid::OffsetGrid::paper_figure5()
        .generate()
        .without_nodes(&[0]);
    println!(
        "== acoustic ranging on {} ({} nodes) ==",
        field.name,
        field.len()
    );

    // Calibrate and run the refined ranging service: 6 rounds of 10-chirp
    // trains per ordered pair, 4.3 kHz tone, T=2 / k=6-of-32 detection.
    let service = RangingService::new(Environment::Grass, ServiceConfig::refined(), &mut rng)?;
    println!(
        "calibrated delta_const = {:.3} m",
        service.converter().delta_const_meters()
    );
    let campaign = service.run_campaign(&field.positions, &mut rng);
    println!("raw directed samples: {}", campaign.samples.len());

    let abs_errors: Vec<f64> = campaign.errors().iter().map(|e| e.abs()).collect();
    println!(
        "raw ranging: median |error| {:.3} m, gross (>1 m) {:.1}%",
        rl_math::stats::median_of(&abs_errors).unwrap_or(f64::NAN),
        100.0 * abs_errors.iter().filter(|e| **e > 1.0).count() as f64
            / abs_errors.len().max(1) as f64
    );

    // Statistical filtering + bidirectional consistency.
    let estimates = StatFilter::Median.apply(&campaign);
    let set = merge_bidirectional(&estimates, campaign.n, &ConsistencyConfig::default());
    println!(
        "measurement graph: {} pairs, average degree {:.1}",
        set.len(),
        set.average_degree()
    );

    // Multilateration with 13 random anchors (the paper's Figure 14).
    println!("\n== multilateration, 13 random anchors ==");
    let anchor_ids = rl_deploy::AnchorSelection::Random { count: 13 }.select(
        &rl_deploy::Deployment::new("grid", field.positions.clone()),
        &mut rng,
    );
    let anchors = Anchor::from_truth(&anchor_ids, &field.positions);
    let solver = MultilaterationSolver::new(MultilaterationConfig::paper());
    match solver.solve(&set, &anchors) {
        Ok(out) => {
            let non_anchor_localized = out
                .positions
                .localized_nodes()
                .iter()
                .filter(|id| !anchor_ids.contains(id))
                .count();
            println!(
                "localized {} of {} non-anchors (mean {:.2} anchor ranges per node)",
                non_anchor_localized,
                field.len() - anchors.len(),
                out.mean_anchors_available
            );
        }
        Err(e) => println!("multilateration failed: {e}"),
    }

    // Centralized LSS, no anchors at all (the paper's Figure 18).
    println!("\n== centralized LSS + soft constraint, no anchors ==");
    let config = LssConfig::default().with_min_spacing(9.14, 10.0);
    let solution = LssSolver::new(config).solve(&set, &mut rng)?;
    let eval = evaluate_against_truth(&solution.positions(), &field.positions)?;
    println!(
        "all {} nodes localized, average error {:.3} m ({:.3} m without worst 5)",
        eval.localized,
        eval.mean_error,
        eval.mean_error_without_worst(5)
    );
    println!("(paper: 2.2 m / 1.5 m on its 247-pair field data)");
    Ok(())
}
