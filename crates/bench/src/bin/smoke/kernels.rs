//! The sparse kernel suite: preconditioned, warm-started and batched
//! kernels end to end on the metro ladder.

use std::time::{Duration, Instant};

use crate::ms;
use rl_bench::gate::Suite;
use rl_bench::MASTER_SEED;
use rl_core::distributed::refine::{refine_aligned, RefineConfig};
use rl_core::distributed::{DistributedConfig, DistributedSolver};
use rl_core::mds::mdsmap_coordinates_with;
use rl_core::problem::{Localizer, SolverBackend};
use rl_core::types::PositionMap;
use rl_deploy::presets;
use rl_geom::Point2;
use rl_math::sparse::cg::{
    conjugate_gradient_with, CgConfig, CgWorkspace, IncompleteCholesky, Preconditioner,
};
use rl_math::sparse::CsrMatrix;
use rl_net::NodeId;
use rl_ranging::MeasurementSet;

/// IC(0)-PCG must use at most `1/PCG_MIN_REDUCTION` of plain CG's
/// iterations on the metro-1000 normal equations (measured ~2.4x).
const PCG_MIN_REDUCTION: f64 = 2.0;

/// Wall budget for sparse MDS-MAP on the metro-2500 rung (~3 s on a
/// 2-core x86-64 box; the margin absorbs slow shared CI runners).
const MDS_2500_WALL_BUDGET: Duration = Duration::from_secs(120);

/// Wall budget for drifted Gauss–Newton refinement on the metro-2500
/// rung (~100 ms on a 2-core x86-64 box).
const REFINE_2500_WALL_BUDGET: Duration = Duration::from_secs(60);

/// Tolerance for the tight assembled-system solves: loose enough to
/// converge, tight enough that preconditioning quality dominates the
/// iteration count.
const TIGHT_TOLERANCE: f64 = 1e-10;

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

/// Assembles the damped Gauss–Newton normal equations `(JᵀWJ + λI)`
/// and gradient `−JᵀWr` of the stress objective at `positions`, in the
/// refinement layout (`[x coords; y coords]`, `2n × 2n`). Each edge
/// contributes the rank-1 block `w·ggᵀ` over `(xᵢ, yᵢ, xⱼ, yⱼ)` with
/// `g = (ux, uy, −ux, −uy)`.
fn assemble_normal_equations(
    set: &MeasurementSet,
    positions: &PositionMap,
    lambda: f64,
) -> (CsrMatrix, Vec<f64>) {
    let n = set.node_count();
    let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
    let mut rhs = vec![0.0; 2 * n];
    for i in 0..2 * n {
        triplets.push((i, i, lambda));
    }
    for (a, b, d, w) in set.iter_weighted() {
        let (i, j) = (a.index(), b.index());
        let (pi, pj) = (
            positions.get(a).expect("drifted map is complete"),
            positions.get(b).expect("drifted map is complete"),
        );
        let (dx, dy) = (pi.x - pj.x, pi.y - pj.y);
        let dist = (dx * dx + dy * dy).sqrt().max(1e-9);
        let (ux, uy) = (dx / dist, dy / dist);
        let residual = dist - d;
        let idx = [i, n + i, j, n + j];
        let g = [ux, uy, -ux, -uy];
        for p in 0..4 {
            for q in 0..4 {
                triplets.push((idx[p], idx[q], w * g[p] * g[q]));
            }
            rhs[idx[p]] -= w * g[p] * residual;
        }
    }
    let a = CsrMatrix::from_triplets(2 * n, 2 * n, &triplets).expect("finite, in-bounds triplets");
    (a, rhs)
}

/// IC(0)-PCG against plain CG on the metro-1000 refinement normal
/// equations, warm-started against zero-started refinement, the
/// metro-2500 wall budgets, and the CG counter reaching `SolveStats`.
pub fn sparse(suite: &mut Suite) {
    let problem_1000 = presets::preset("metro-1000")
        .expect("metro-1000 is a preset")
        .instantiate(MASTER_SEED);
    let truth_1000 = problem_1000.truth_required().expect("metro has truth");
    let set_1000 = problem_1000.measurements();

    // Assembled at a drifted iterate with the refinement's default
    // Tikhonov damping (`RefineConfig::default().tikhonov`), solved tight.
    let (a, b) = assemble_normal_equations(set_1000, &drifted(truth_1000, 12.0), 1e-2);
    let cfg = CgConfig::default()
        .with_max_iterations(20_000)
        .with_tolerance(TIGHT_TOLERANCE);
    let mut ws = CgWorkspace::new();
    let plain =
        conjugate_gradient_with(&a, &b, None, None, &cfg, &mut ws).expect("plain CG converges");
    let ic = IncompleteCholesky::factor(&a).expect("SPD normal equations factor");
    let pcg = conjugate_gradient_with(
        &a,
        &b,
        None,
        Some(&ic as &dyn Preconditioner),
        &cfg,
        &mut ws,
    )
    .expect("IC(0)-PCG converges");
    let scale = plain.x.iter().map(|v| v.abs()).fold(1.0, f64::max);
    let max_diff = plain
        .x
        .iter()
        .zip(&pcg.x)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0, f64::max);
    println!(
        "metro-1000 normal equations ({}x{}, nnz {}): plain CG {} iters, IC(0)-PCG {} iters",
        a.rows(),
        a.cols(),
        ic.nnz(),
        plain.iterations,
        pcg.iterations,
    );
    suite.at_least(
        "pcg-iteration-reduction",
        plain.iterations as f64 / pcg.iterations.max(1) as f64,
        PCG_MIN_REDUCTION,
    );
    suite.at_most("pcg-solution-agreement", max_diff / scale, 1e-4);

    // Warm-started refinement never spends more CG iterations than the
    // default path and lands at the same refined stress.
    let run_refine = |cg_warm_start: bool| {
        let mut positions = drifted(truth_1000, 12.0);
        let config = RefineConfig {
            max_iterations: 30,
            cg_warm_start,
            ..RefineConfig::default()
        };
        refine_aligned(set_1000, &mut positions, &config).expect("metro refines")
    };
    let (cold, warm) = (run_refine(false), run_refine(true));
    suite.at_most(
        "warm-start-cg-iterations",
        warm.cg_iterations as f64,
        cold.cg_iterations as f64,
    );
    suite.at_most(
        "warm-start-stress-rel-diff",
        (warm.final_stress - cold.final_stress).abs() / cold.final_stress.max(f64::MIN_POSITIVE),
        1e-2,
    );

    // The metro-2500 rung: multi-source Dijkstra + blocked eigensolver
    // keep sparse MDS-MAP in seconds; drifted refinement exercises the
    // matvec path at 2,500 nodes.
    let problem_2500 = presets::preset("metro-2500")
        .expect("metro-2500 is a preset")
        .instantiate(MASTER_SEED);
    let truth_2500 = problem_2500.truth_required().expect("metro has truth");
    let set_2500 = problem_2500.measurements();
    let t = Instant::now();
    mdsmap_coordinates_with(set_2500, SolverBackend::Sparse).expect("metro-2500 MDS solves");
    suite.at_most(
        "mds-2500-wall-ms",
        ms(t.elapsed()),
        ms(MDS_2500_WALL_BUDGET),
    );
    let mut positions_2500 = drifted(truth_2500, 12.0);
    let t = Instant::now();
    let refine_2500 = refine_aligned(
        set_2500,
        &mut positions_2500,
        &RefineConfig {
            max_iterations: 30,
            cg_warm_start: true,
            ..RefineConfig::default()
        },
    )
    .expect("metro-2500 refines");
    suite.at_most(
        "refine-2500-wall-ms",
        ms(t.elapsed()),
        ms(REFINE_2500_WALL_BUDGET),
    );
    println!(
        "metro-2500 refinement: {} GN / {} CG iters",
        refine_2500.iterations, refine_2500.cg_iterations
    );

    // The CG counter reaches SolveStats through the fast preset
    // (metro-250 keeps this cell cheap).
    let problem_250 = presets::preset("metro-250")
        .expect("metro-250 is a preset")
        .instantiate(MASTER_SEED);
    let solver = DistributedSolver::new(DistributedConfig::metro_fast());
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
