//! The town-map simulation study: multilateration vs centralized LSS vs
//! distributed LSS on the same data.
//!
//! Mirrors the paper's Section 4.2.2 comparison: 59 nodes along the streets
//! of a few city blocks, synthetic ranging (pairs under 22 m, N(0, 0.33 m)
//! noise). Multilateration gets 18 anchors; LSS gets none and still wins.
//!
//! ```text
//! cargo run --release --example city_blocks
//! ```

use resilient_localization::prelude::*;

fn main() -> Result<()> {
    let mut rng = rl_math::rng::seeded(2005);
    let scenario = rl_deploy::Scenario::town(2005);
    let truth = &scenario.deployment.positions;
    println!(
        "town: {} nodes, {} anchors, {} pairs under 22 m",
        truth.len(),
        scenario.anchors.len(),
        scenario.deployment.pairs_within(22.0)
    );

    let set = rl_ranging::RangingChannel::paper().measure_all(truth, &mut rng);
    println!("measured pairs: {}\n", set.len());

    // --- Multilateration with 18 anchors -------------------------------
    let anchors = Anchor::from_truth(&scenario.anchors, truth);
    let out = MultilaterationSolver::new(MultilaterationConfig::paper())
        .solve(&set, &anchors, &mut rng)?;
    let non_anchors: Vec<NodeId> = scenario.non_anchors();
    let localized: Vec<NodeId> = non_anchors
        .iter()
        .copied()
        .filter(|&id| out.positions.is_localized(id))
        .collect();
    let mean_err = if localized.is_empty() {
        f64::NAN
    } else {
        localized
            .iter()
            .map(|&id| out.positions.get(id).unwrap().distance(truth[id.index()]))
            .sum::<f64>()
            / localized.len() as f64
    };
    println!(
        "multilateration: {}/{} non-anchors localized, avg error {:.3} m",
        localized.len(),
        non_anchors.len(),
        mean_err
    );

    // --- Centralized LSS, zero anchors ---------------------------------
    let config = LssConfig::default().with_min_spacing(9.0, 10.0);
    let solution = LssSolver::new(config).solve(&set, &mut rng)?;
    let eval = evaluate_against_truth(&solution.positions(), truth)?;
    println!(
        "centralized LSS:  {}/{} localized, avg error {:.3} m (no anchors!)",
        eval.localized, eval.total, eval.mean_error
    );

    // --- Distributed LSS ------------------------------------------------
    let config = DistributedConfig::default().with_min_spacing(9.0, 10.0);
    let out = DistributedSolver::new(config).solve(&set, truth, &mut rng)?;
    let eval = evaluate_against_truth(&out.positions, truth)?;
    println!(
        "distributed LSS:  {}/{} localized, avg error {:.3} m \
         ({} local maps, {} messages)",
        eval.localized, eval.total, eval.mean_error, out.local_maps_built, out.messages_delivered
    );
    Ok(())
}
