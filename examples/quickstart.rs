//! Quickstart: localize a sensor field in ~40 lines.
//!
//! Generates the paper's Figure-5 offset grid, produces synthetic ranging
//! measurements (true distances under 22 m perturbed by N(0, 0.33 m)),
//! solves with centralized LSS + the minimum-spacing soft constraint, and
//! evaluates against ground truth.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use resilient_localization::prelude::*;

fn main() -> Result<()> {
    let mut rng = rl_math::rng::seeded(42);

    // 1. The deployment: the paper's 7x7 offset grid (47 motes).
    let field = rl_deploy::grid::OffsetGrid::paper_figure5().generate();
    println!("deployment: {} with {} nodes", field.name, field.len());

    // 2. Ranging: every pair under 22 m gets a noisy distance.
    let measurements = rl_ranging::RangingChannel::paper().measure_all(&field.positions, &mut rng);
    println!(
        "measurements: {} pairs (average degree {:.1})",
        measurements.len(),
        measurements.average_degree()
    );

    // 3. Localization: anchor-free LSS with the 9.14 m spacing constraint.
    let config = LssConfig::default().with_min_spacing(9.14, 10.0);
    let solution = LssSolver::new(config).solve(&measurements, &mut rng)?;
    println!(
        "solved: stress {:.2} after {} descent iterations",
        solution.stress(),
        solution.iterations()
    );

    // 4. Evaluation: best-fit alignment against ground truth, as in the
    //    paper ("translated, rotated and flipped").
    let eval = evaluate_against_truth(&solution.positions(), &field.positions)?;
    println!(
        "localized {}/{} nodes, average error {:.3} m (max {:.3} m)",
        eval.localized, eval.total, eval.mean_error, eval.max_error
    );
    Ok(())
}
