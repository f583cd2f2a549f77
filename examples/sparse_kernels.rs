//! The sparse kernel layer: preconditioned and warm-started CG.
//!
//! Builds an ill-conditioned SPD system (a stiffness-ladder chain, the
//! kind of spectrum refinement normal equations develop as damping
//! shrinks), solves it with plain CG and IC(0)-PCG, and shows the
//! iteration counts side by side; then demonstrates the
//! warm-start contract — a good seed saves iterations, a stale seed is
//! discarded rather than paid for.
//!
//! ```text
//! cargo run --release --example sparse_kernels
//! ```

use resilient_localization::prelude::*;

/// A chain whose diagonal cycles through seven stiffness decades — a
/// condition number plain CG grinds through.
fn ill_conditioned(n: usize) -> (CsrMatrix, Vec<f64>) {
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..n {
        edges.push((i, i, 2.0 + 1000.0 * (i % 7) as f64));
        if i + 1 < n {
            edges.push((i, i + 1, -1.0));
        }
    }
    let a = CsrMatrix::symmetric_from_edges(n, &edges).expect("finite in-bounds edges");
    let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
    (a, b)
}

fn main() -> Result<()> {
    let n = 400;
    let (a, b) = ill_conditioned(n);
    let cfg = CgConfig::default()
        .with_max_iterations(10_000)
        .with_tolerance(1e-10);

    // Plain CG, then the same solve with an IC(0) factor passed to the
    // full-control entry point.
    println!("solving a {n}-node stiffness ladder to 1e-10:");
    let plain = conjugate_gradient(&a, &b, &cfg)?;
    let ic = IncompleteCholesky::factor(&a)?;
    let mut ws = CgWorkspace::new();
    let pcg = conjugate_gradient_with(&a, &b, None, Some(&ic), &cfg, &mut ws)?;
    for (label, out) in [("plain CG", &plain), ("IC(0)-PCG", &pcg)] {
        println!(
            "  {label:>10}: {:>4} iterations (relative residual {:.2e})",
            out.iterations, out.relative_residual
        );
    }
    let scale = plain.x.iter().map(|v| v.abs()).fold(1.0, f64::max);
    let diff = plain
        .x
        .iter()
        .zip(&pcg.x)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0, f64::max);
    assert!(
        diff / scale < 1e-6,
        "preconditioning changed the answer: {diff:e}"
    );

    // Warm starts: seeding with the known solution converges
    // immediately, and a stale seed costs only the one matvec spent
    // detecting it (the never-worse contract).
    let exact = plain.x;
    let warm = conjugate_gradient_with(&a, &b, Some(&exact), Some(&ic), &cfg, &mut ws)?;
    println!(
        "warm start from the exact solution: {} iterations",
        warm.iterations
    );
    let stale: Vec<f64> = (0..n).map(|i| 1e3 + i as f64).collect();
    let cold = conjugate_gradient_with(&a, &b, None, Some(&ic), &cfg, &mut ws)?;
    let guarded = conjugate_gradient_with(&a, &b, Some(&stale), Some(&ic), &cfg, &mut ws)?;
    println!(
        "stale seed discarded by the never-worse guard: {} iterations (cold start: {})",
        guarded.iterations, cold.iterations
    );

    // Warm starts ride into the refinement pipeline as a preset:
    // DistributedConfig::metro_fast() opts the inner Gauss–Newton CG
    // solves into them (the zero-started default is fingerprint-pinned,
    // so the acceleration is opt-in).
    let fast = DistributedConfig::metro_fast();
    let refine = fast.refine.as_ref().expect("metro preset refines");
    println!(
        "DistributedConfig::metro_fast(): cg_warm_start = {}",
        refine.cg_warm_start
    );
    Ok(())
}
