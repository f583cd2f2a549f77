//! The sparse kernel suite: CG refinement budgets and the large-`n`
//! kernels end to end on the metro ladder.

use std::time::{Duration, Instant};

use crate::campaigns::ERROR_BUDGET_M;
use crate::ms;
use rl_bench::gate::Suite;
use rl_bench::MASTER_SEED;
use rl_core::distributed::refine::{refine_aligned, RefineConfig};
use rl_core::distributed::{DistributedConfig, DistributedSolver};
use rl_core::mds::MdsMapLocalizer;
use rl_core::problem::Localizer;
use rl_core::types::PositionMap;
use rl_deploy::presets;
use rl_geom::Point2;
use rl_net::NodeId;

/// Wall budget for sparse MDS-MAP on the metro-2500 rung (~3 s on a
/// 2-core x86-64 box; the margin absorbs slow shared CI runners).
const MDS_2500_WALL_BUDGET: Duration = Duration::from_secs(120);

/// Block steps of the metro-2500 MDS-MAP eigensolve: twice the 9 it
/// reads. The count is deterministic, so this gate catches an eigensolve
/// that needs more cycles whatever the machine's speed.
const MDS_2500_EIGEN_STEPS: f64 = 18.0;

/// Wall budget for drifted Gauss–Newton refinement on the metro-2500
/// rung (~100 ms on a 2-core x86-64 box).
const REFINE_2500_WALL_BUDGET: Duration = Duration::from_secs(60);

/// Distributed LSS on the metro-2500 rung must finish within this factor
/// of the MDS-MAP solve above it. Set by the `metro` suite's method for
/// its wall ratios: about 1.5x the highest ratio read over two sets of
/// 12 runs on a 2-core box; it read 1.58-2.45.
const DIST_2500_WALL_FACTOR: f64 = 3.7;

/// Inner CG iterations of the drifted metro-1000 refinement when every
/// solve started from zero: read once from that path, which the
/// warm-started solves must not exceed.
const ZERO_START_CG_ITERATIONS: f64 = 471.0;

/// Final robust stress of the same zero-started refinement. Warm starts
/// change the path to the solution, not the solution: the final stress
/// stays within 1% of it.
const ZERO_START_FINAL_STRESS: f64 = 1277.6813041924336;

/// Deterministic smooth warp of the true positions: the refinement
/// starting point. Quadratic in `x` so the displacement field is
/// spatially correlated (rigid-ish near the origin, drifting with
/// distance) — the shape of real stitching drift.
fn drifted(truth: &[Point2], scale: f64) -> PositionMap {
    let span = truth.iter().map(|p| p.x.abs()).fold(1.0, f64::max);
    let mut positions = PositionMap::unlocalized(truth.len());
    for (i, p) in truth.iter().enumerate() {
        let t = p.x / span;
        positions.set(
            NodeId(i),
            Point2::new(p.x + scale * t * t, p.y + 0.5 * scale * t * t),
        );
    }
    positions
}

/// Drifted metro-1000 refinement against its zero-start budgets, the
/// metro-2500 wall budgets, and the CG counter reaching `SolveStats`.
pub fn sparse(suite: &mut Suite) {
    let problem_1000 = presets::preset("metro-1000")
        .expect("metro-1000 is a preset")
        .instantiate(MASTER_SEED);
    let truth_1000 = problem_1000.truth_required().expect("metro has truth");
    let set_1000 = problem_1000.measurements();

    // Warm-started refinement never spends more CG iterations than the
    // zero-started path did and lands at the same refined stress.
    let mut positions = drifted(truth_1000, 12.0);
    let config = RefineConfig {
        max_iterations: 30,
        ..RefineConfig::default()
    };
    let refined = refine_aligned(set_1000, &mut positions, &config).expect("metro refines");
    suite.at_most(
        "warm-start-cg-iterations",
        refined.cg_iterations as f64,
        ZERO_START_CG_ITERATIONS,
    );
    suite.at_most(
        "warm-start-stress-rel-diff",
        (refined.final_stress - ZERO_START_FINAL_STRESS).abs() / ZERO_START_FINAL_STRESS,
        1e-2,
    );

    // The metro-2500 rung: multi-source Dijkstra + blocked eigensolver
    // keep sparse MDS-MAP in seconds and in a few eigensolve cycles;
    // drifted refinement exercises the matvec path at 2,500 nodes.
    let problem_2500 = presets::preset("metro-2500")
        .expect("metro-2500 is a preset")
        .instantiate(MASTER_SEED);
    let truth_2500 = problem_2500.truth_required().expect("metro has truth");
    let set_2500 = problem_2500.measurements();
    let t = Instant::now();
    let mds_2500 = MdsMapLocalizer::new()
        .localize(&problem_2500, &mut rl_math::rng::seeded(MASTER_SEED))
        .expect("metro-2500 MDS solves");
    let mds_2500_wall = t.elapsed();
    suite.at_most(
        "mds-2500-wall-ms",
        ms(mds_2500_wall),
        ms(MDS_2500_WALL_BUDGET),
    );
    suite.at_most(
        "mds-2500-eigen-steps",
        mds_2500.stats().iterations as f64,
        MDS_2500_EIGEN_STEPS,
    );
    let mut positions_2500 = drifted(truth_2500, 12.0);
    let t = Instant::now();
    let refine_2500 =
        refine_aligned(set_2500, &mut positions_2500, &config).expect("metro-2500 refines");
    suite.at_most(
        "refine-2500-wall-ms",
        ms(t.elapsed()),
        ms(REFINE_2500_WALL_BUDGET),
    );
    println!(
        "metro-2500 refinement: {} GN / {} CG iters",
        refine_2500.iterations, refine_2500.cg_iterations
    );

    // Distributed LSS end to end at 2,500 nodes: its exchange delivers
    // about 2.8 million messages, so the simulator's event budget must
    // come from the protocol's own bound.
    let t = Instant::now();
    let distributed_2500 = DistributedSolver::new(DistributedConfig::metro())
        .localize(&problem_2500, &mut rl_math::rng::seeded(MASTER_SEED));
    let distributed_2500_wall = t.elapsed();
    println!("metro-2500 distributed LSS: {distributed_2500_wall:.1?}");
    let error = distributed_2500
        .ok()
        .and_then(|solution| problem_2500.evaluate(&solution).ok())
        .map_or(f64::NAN, |e| e.mean_error);
    suite.at_most("distributed-2500-error-m", error, ERROR_BUDGET_M);
    suite.at_most(
        "distributed-2500-vs-mds-wall-ratio",
        distributed_2500_wall.as_secs_f64() / mds_2500_wall.as_secs_f64().max(1e-9),
        DIST_2500_WALL_FACTOR,
    );

    // The CG counter reaches SolveStats through the metro preset's
    // refinement (metro-250 keeps this cell cheap).
    let problem_250 = presets::preset("metro-250")
        .expect("metro-250 is a preset")
        .instantiate(MASTER_SEED);
    let solver = DistributedSolver::new(DistributedConfig::metro());
    let mut rng = rl_math::rng::seeded(MASTER_SEED);
    let solution = solver
        .localize(&problem_250, &mut rng)
        .expect("metro-250 distributed solve");
    suite.at_least(
        "solvestats-cg-iterations",
        solution.stats().cg_iterations.unwrap_or(0) as f64,
        1.0,
    );
}
