//! Multidimensional-scaling baselines.
//!
//! Classical MDS "requires distances between all pairs of nodes" — the
//! impracticality that motivates LSS (Section 4.2). It is implemented here
//! both as the baseline the paper compares against conceptually and,
//! combined with shortest-path completion of the sparse distance graph (the
//! MDS-MAP idea of Shang et al., discussed in Related Work), as a fast
//! initializer for the LSS descent.

use rl_geom::procrustes::power_of_two_scale;
use rl_geom::Point2;
use rl_math::sparse::{
    dijkstra_into, eigen::topk_symmetric, CsrMatrix, DijkstraWorkspace, LinearOperator,
};
use rl_net::{pool, NodeId};
use rl_ranging::measurement::MeasurementSet;

use crate::problem::pool_workers;
use crate::{LocalizationError, Result};

/// Dijkstra sources per pool task in geodesic completion.
const COMPLETION_BLOCK: usize = 32;

/// Rows of the squared-distance table per pool task in the centered
/// operator's products.
const OPERATOR_BLOCK: usize = 64;

/// MDS-MAP-style coordinates for a *sparse* measurement set: missing
/// pairwise distances are completed with shortest-path distances through
/// the measurement graph, then classical MDS is applied.
///
/// Completion runs per-source Dijkstra over a CSR adjacency matrix of
/// the measurement graph ([`dijkstra_into`]). The eigensolve extracts
/// only the top-2 eigenpairs by restarted block Krylov cycles
/// ([`topk_symmetric`]): the double-centered matrix is applied
/// implicitly (`B x = -1/2 J D² J x`) and never materialized, leaving
/// the `n x n` squared-distance table as the only quadratic cost. The
/// same path runs at every `n`, from a three-node local map up to
/// metro scale; the module's unit tests hold it to a dense
/// [`SymmetricEigen`](rl_math::SymmetricEigen) oracle at local-map and
/// town sizes, degenerate layouts included.
///
/// At `n >= SPARSE_SCALE` nodes the completion's Dijkstra sources and
/// the eigensolve's operator products run in blocks on the
/// [`rl_net::pool`] worker pool, sized to the machine's parallelism;
/// below it they run serially. Every block computes exactly what the
/// serial loop computes, so the coordinates are bit-identical for any
/// core count.
///
/// # Errors
///
/// * [`LocalizationError::InsufficientMeasurements`] when the measurement
///   graph is disconnected (shortest paths undefined) or has fewer than
///   three nodes;
/// * eigensolver convergence failures, surfaced as
///   [`LocalizationError::Numerical`].
pub fn mdsmap_coordinates(set: &MeasurementSet) -> Result<Vec<Point2>> {
    mdsmap_impl(set).map(|(coords, _)| coords)
}

/// Shared implementation returning `(coordinates, eigen iterations)`.
fn mdsmap_impl(set: &MeasurementSet) -> Result<(Vec<Point2>, usize)> {
    let n = set.node_count();
    if n < 3 {
        return Err(LocalizationError::InsufficientMeasurements(
            "MDS-MAP needs at least three nodes",
        ));
    }
    let completed = complete_distances(set, pool_workers(n))?;
    embed(n, completed)
}

/// The measurement graph's CSR adjacency matrix, distances as values,
/// copied row by row from the set's sorted neighbor lists.
fn adjacency(set: &MeasurementSet) -> Result<CsrMatrix> {
    let n = set.node_count();
    CsrMatrix::from_sorted_rows(
        n,
        (0..n).map(|i| set.neighbors_of(NodeId(i)).map(|(j, d)| (j.index(), d))),
    )
    .map_err(LocalizationError::Numerical)
}

/// Geodesic completion: the row-major `n x n` table of shortest-path
/// distances through the measurement graph, one Dijkstra run per source
/// over its CSR [`adjacency`] matrix. The table is the one intrinsically
/// quadratic artifact of MDS-MAP. On `workers` pool threads, each task
/// fills one block of [`COMPLETION_BLOCK`] rows in place, reusing one
/// [`DijkstraWorkspace`] across its sources.
fn complete_distances(set: &MeasurementSet, workers: usize) -> Result<Vec<f64>> {
    let n = set.node_count();
    let adjacency = adjacency(set)?;
    let mut completed = vec![0.0; n * n];
    let mut blocks: Vec<&mut [f64]> = completed.chunks_mut(COMPLETION_BLOCK * n).collect();
    pool::par_for_each_mut(&mut blocks, workers, |b, rows| {
        let mut ws = DijkstraWorkspace::new();
        for (k, row) in rows.chunks_exact_mut(n).enumerate() {
            dijkstra_into(&adjacency, b * COMPLETION_BLOCK + k, row, &mut ws);
        }
    });
    if completed.iter().any(|d| !d.is_finite()) {
        return Err(LocalizationError::InsufficientMeasurements(
            "measurement graph is disconnected",
        ));
    }
    Ok(completed)
}

/// Classical MDS of a completed `n x n` distance table: an implicit
/// double-centering operator over its squared, symmetrized entries
/// (symmetrizing absorbs small asymmetries from summation order) fed to
/// the iterative top-2 eigensolver.
///
/// The table is squared in place, one pair `(i, j)`, `(j, i)` at a time:
/// IEEE addition commutes, so `0.5 * (a + b)` is one value for both
/// entries, and no second `n x n` table is needed.
///
/// The eigensolver squares Gram entries of size up to `n · max(d)²`. When
/// [`power_of_two_scale`] asks for it, the table is first divided by the
/// power of two at or below `max(d)` and the coordinates multiplied back,
/// both exactly; every other table embeds unscaled (a division by `1.0`
/// is exact), bit for bit.
fn embed(n: usize, mut table: Vec<f64>) -> Result<(Vec<Point2>, usize)> {
    let max_d = table.iter().fold(0.0, |m: f64, &d| m.max(d));
    let scale = power_of_two_scale(n, max_d).unwrap_or(1.0);
    for i in 0..n {
        for j in i..n {
            let d = 0.5 * (table[i * n + j] / scale + table[j * n + i] / scale);
            table[i * n + j] = d * d;
            table[j * n + i] = d * d;
        }
    }
    let operator = CenteredOperator::new(n, table, pool_workers(n));
    let top = topk_symmetric(&operator, 2).map_err(LocalizationError::Numerical)?;
    let coords = top.principal_coordinates();
    let points = (0..n)
        .map(|i| Point2::new(coords[(i, 0)] * scale, coords[(i, 1)] * scale))
        .collect();
    Ok((points, top.iterations))
}

/// The classical-MDS Gram operator `B = -1/2 J D² J` (with
/// `J = I - 11ᵀ/n`) applied without materializing `B`:
///
/// ```text
/// (B x)_i = -1/2 [ (D² x)_i  -  r_i Σx  -  Σ_j r_j x_j  +  t Σx ]
/// ```
///
/// where `r` holds the row means of `D²` and `t` its grand mean. One
/// application costs a single dense `D² x` product plus `O(n)` work.
struct CenteredOperator {
    n: usize,
    /// Pool threads for the blocked products.
    workers: usize,
    /// Row-major squared symmetrized distances.
    d2: Vec<f64>,
    /// Row means of `d2`.
    row_mean: Vec<f64>,
    /// Grand mean of `d2`.
    total_mean: f64,
}

impl CenteredOperator {
    fn new(n: usize, d2: Vec<f64>, workers: usize) -> Self {
        debug_assert_eq!(d2.len(), n * n);
        let mut row_mean = vec![0.0; n];
        let mut total = 0.0;
        for i in 0..n {
            let sum: f64 = d2[i * n..(i + 1) * n].iter().sum();
            row_mean[i] = sum / n as f64;
            total += sum;
        }
        CenteredOperator {
            n,
            workers,
            d2,
            row_mean,
            total_mean: total / (n * n) as f64,
        }
    }

    /// `ys[j] = B xs[j]` for a block of vectors: the one product kernel
    /// behind [`LinearOperator::apply`] and
    /// [`LinearOperator::apply_multi`].
    ///
    /// Blocks of [`OPERATOR_BLOCK`] rows run on the pool, each output
    /// slot written by one task. A task walks its rows four at a time
    /// ([`dot4`]): one pass over a vector feeds four rows' `D² x` sums,
    /// and every vector of the block passes over the same four rows
    /// while they are in cache.
    fn product(&self, xs: &[&[f64]], ys: &mut [&mut [f64]]) {
        let n = self.n;
        let sums: Vec<(f64, f64)> = xs
            .iter()
            .map(|x| {
                let sum_x: f64 = x.iter().sum();
                let mean_dot: f64 = self.row_mean.iter().zip(*x).map(|(r, xi)| r * xi).sum();
                (sum_x, mean_dot)
            })
            .collect();
        // blocks[b][j]: rows `b * OPERATOR_BLOCK ..` of output vector j.
        let mut blocks: Vec<Vec<&mut [f64]>> = (0..n.div_ceil(OPERATOR_BLOCK))
            .map(|_| Vec::with_capacity(ys.len()))
            .collect();
        for y in ys.iter_mut() {
            for (block, rows) in blocks.iter_mut().zip(y.chunks_mut(OPERATOR_BLOCK)) {
                block.push(rows);
            }
        }
        pool::par_for_each_mut(&mut blocks, self.workers, |b, block| {
            let first = b * OPERATOR_BLOCK;
            let len = block.first().map_or(0, |rows| rows.len());
            for k in (0..len).step_by(4) {
                // A short last group repeats its last row and drops the
                // repeats' sums.
                let rows = std::array::from_fn(|r| {
                    let i = first + (k + r).min(len - 1);
                    &self.d2[i * n..(i + 1) * n]
                });
                for ((x, y), &(sum_x, mean_dot)) in xs.iter().zip(block.iter_mut()).zip(&sums) {
                    let d2x = dot4(rows, x);
                    for (r, &d2x) in d2x.iter().enumerate().take(len - k) {
                        let i = first + k + r;
                        y[k + r] = -0.5
                            * (d2x - self.row_mean[i] * sum_x - mean_dot + self.total_mean * sum_x);
                    }
                }
            }
        });
    }
}

/// The four dot products `rows[r] · x` in one pass over `x`, with four
/// independent accumulators. Each sums its products in column order
/// starting from `-0.0`, exactly as `Iterator::sum` does for one row, so
/// every sum keeps the one-row loop's bits.
fn dot4(rows: [&[f64]; 4], x: &[f64]) -> [f64; 4] {
    let n = x.len();
    let (r0, r1, r2, r3) = (&rows[0][..n], &rows[1][..n], &rows[2][..n], &rows[3][..n]);
    let mut acc = [-0.0; 4];
    for j in 0..n {
        let xj = x[j];
        acc[0] += r0[j] * xj;
        acc[1] += r1[j] * xj;
        acc[2] += r2[j] * xj;
        acc[3] += r3[j] * xj;
    }
    acc
}

impl LinearOperator for CenteredOperator {
    fn dim(&self) -> usize {
        self.n
    }

    /// One vector through [`CenteredOperator::product`], on the pool like
    /// a block. The eigensolver applies only whole blocks; this is the
    /// single-vector reference [`Self::apply_multi`] is held to.
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.product(&[x], &mut [y]);
    }

    /// The whole block through [`CenteredOperator::product`]: one pass
    /// over the `n x n` distance table, the dominant memory traffic at
    /// metro scale, serves every vector. Each output is bit-identical to
    /// [`Self::apply`] on that vector alone (the campaign fingerprints
    /// pin the eigensolver path).
    fn apply_multi(&self, xs: &[Vec<f64>], ys: &mut [Vec<f64>]) {
        let xs: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
        let mut ys: Vec<&mut [f64]> = ys.iter_mut().map(Vec::as_mut_slice).collect();
        self.product(&xs, &mut ys);
    }
}

/// MDS-MAP as a [`Localizer`](crate::problem::Localizer): shortest-path
/// completion plus classical MDS, producing a relative-frame solution
/// with no per-run randomness. CSR Dijkstra plus the iterative top-2
/// eigensolver at every size, pooled across cores at metro scale, as
/// [`mdsmap_coordinates`] describes; `SolveStats::iterations` counts the
/// eigensolver's block operator applications.
#[derive(Debug, Clone, Copy, Default)]
pub struct MdsMapLocalizer;

impl MdsMapLocalizer {
    /// Creates the localizer.
    pub fn new() -> Self {
        MdsMapLocalizer
    }
}

impl crate::problem::Localizer for MdsMapLocalizer {
    fn name(&self) -> &str {
        "mds-map"
    }

    fn localize(
        &self,
        problem: &crate::problem::Problem,
        _rng: &mut dyn rand::RngCore,
    ) -> Result<crate::problem::Solution> {
        use crate::problem::{Frame, Solution, SolveStats};
        let start = std::time::Instant::now();
        let (coords, eigen_iterations) = mdsmap_impl(problem.measurements())?;
        Ok(Solution::new(
            crate::types::PositionMap::complete(coords),
            Frame::Relative,
            SolveStats {
                iterations: eigen_iterations,
                residual: None,
                // The eigensolver errors out instead of returning an
                // unconverged embedding. Reaching here means converged.
                converged: Some(true),
                cg_iterations: None,
                wall_time: start.elapsed(),
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_against_truth;
    use crate::types::PositionMap;

    fn grid(nx: usize, ny: usize, spacing: f64) -> Vec<Point2> {
        let mut out = Vec::new();
        for gy in 0..ny {
            for gx in 0..nx {
                out.push(Point2::new(gx as f64 * spacing, gy as f64 * spacing));
            }
        }
        out
    }

    #[test]
    fn adjacency_is_bit_equal_to_the_edge_list_build() {
        use rand::Rng;
        let mut rng = rl_math::rng::seeded(11);
        let positions: Vec<Point2> = (0..120)
            .map(|_| Point2::new(rng.random::<f64>() * 90.0, rng.random::<f64>() * 90.0))
            .collect();
        let mut set = MeasurementSet::oracle(&positions, 22.0);
        set.insert(NodeId(0), NodeId(1), 0.0);
        let edges: Vec<(usize, usize, f64)> = set
            .iter()
            .map(|(a, b, d)| (a.index(), b.index(), d))
            .collect();
        let expect = CsrMatrix::symmetric_from_edges(set.node_count(), &edges).unwrap();
        let got = adjacency(&set).unwrap();
        assert_eq!(got, expect);
        for i in 0..set.node_count() {
            let bits = |m: &CsrMatrix| -> Vec<(usize, u64)> {
                m.row(i).map(|(j, v)| (j, v.to_bits())).collect()
            };
            assert_eq!(bits(&got), bits(&expect), "row {i}");
        }
    }

    /// A measurement set holding every pair of `truth` at `distance(i, j)`.
    fn complete_set(
        truth: &[Point2],
        mut distance: impl FnMut(usize, usize) -> f64,
    ) -> MeasurementSet {
        let mut set = MeasurementSet::new(truth.len());
        for i in 0..truth.len() {
            for j in (i + 1)..truth.len() {
                set.insert(NodeId(i), NodeId(j), distance(i, j));
            }
        }
        set
    }

    #[test]
    fn mdsmap_recovers_complete_geometry() {
        let truth = grid(3, 3, 5.0);
        let set = complete_set(&truth, |i, j| truth[i].distance(truth[j]));
        let coords = mdsmap_coordinates(&set).unwrap();
        let eval = evaluate_against_truth(&PositionMap::complete(coords), &truth).unwrap();
        assert!(eval.mean_error < 1e-6, "mean error {}", eval.mean_error);
    }

    #[test]
    fn mdsmap_tolerates_noise() {
        let truth = grid(3, 3, 9.0);
        let mut rng = rl_math::rng::seeded(11);
        let set = complete_set(&truth, |i, j| {
            (truth[i].distance(truth[j]) + rl_math::rng::normal(&mut rng, 0.0, 0.33)).max(0.1)
        });
        let coords = mdsmap_coordinates(&set).unwrap();
        let eval = evaluate_against_truth(&PositionMap::complete(coords), &truth).unwrap();
        assert!(eval.mean_error < 1.0, "mean error {}", eval.mean_error);
    }

    #[test]
    fn mdsmap_completes_sparse_graph() {
        let truth = grid(4, 4, 9.0);
        let set = MeasurementSet::oracle(&truth, 14.0);
        let coords = mdsmap_coordinates(&set).unwrap();
        let eval = evaluate_against_truth(&PositionMap::complete(coords), &truth).unwrap();
        // Shortest-path completion overestimates long distances, so the
        // reconstruction is coarse — but the layout must be recognizable.
        assert!(eval.mean_error < 4.0, "mean error {}", eval.mean_error);
    }

    #[test]
    fn mdsmap_rejects_disconnected_graphs() {
        let mut set = MeasurementSet::new(4);
        set.insert(NodeId(0), NodeId(1), 5.0);
        set.insert(NodeId(2), NodeId(3), 5.0);
        assert!(matches!(
            mdsmap_coordinates(&set),
            Err(LocalizationError::InsufficientMeasurements(_))
        ));
    }

    #[test]
    fn mdsmap_rejects_tiny_networks() {
        let set = MeasurementSet::new(2);
        assert!(mdsmap_coordinates(&set).is_err());
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn completion_is_bit_identical_for_any_worker_count() {
        // Not a multiple of the block: the last block is short.
        let n = 2 * COMPLETION_BLOCK + 7;
        let truth: Vec<Point2> = (0..n)
            .map(|i| {
                Point2::new(
                    (i % 9) as f64 * 8.0 + (i % 5) as f64 * 0.3,
                    (i / 9) as f64 * 8.0,
                )
            })
            .collect();
        let set = MeasurementSet::oracle(&truth, 12.0);
        let reference = complete_distances(&set, 1).unwrap();
        assert_eq!(reference.len(), n * n);
        for workers in [2, 3] {
            let pooled = complete_distances(&set, workers).unwrap();
            assert_eq!(bits(&pooled), bits(&reference), "workers={workers}");
        }
    }

    /// The one-row loop the four-row kernel replaced: `(B x)_i` from the
    /// operator's own means, each row's `D² x` summed by `Iterator::sum`.
    fn one_row_product(op: &CenteredOperator, x: &[f64]) -> Vec<f64> {
        let n = op.n;
        let sum_x: f64 = x.iter().sum();
        let mean_dot: f64 = op.row_mean.iter().zip(x).map(|(r, xi)| r * xi).sum();
        (0..n)
            .map(|i| {
                let row = &op.d2[i * n..(i + 1) * n];
                let d2x: f64 = row.iter().zip(x).map(|(a, b)| a * b).sum();
                -0.5 * (d2x - op.row_mean[i] * sum_x - mean_dot + op.total_mean * sum_x)
            })
            .collect()
    }

    #[test]
    fn four_row_products_match_the_one_row_loop_bitwise() {
        use rand::Rng;
        let mut rng = rl_math::rng::seeded(21);
        // Every short last group of rows, then blocks of the pool with a
        // short last block.
        for n in (1..=9).chain([2 * OPERATOR_BLOCK + 9]) {
            let xs: Vec<Vec<f64>> = (0..3)
                .map(|_| (0..n).map(|_| rng.random::<f64>() - 0.5).collect())
                .collect();
            let mut d2 = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..i {
                    let v = 100.0 * rng.random::<f64>();
                    d2[i * n + j] = v;
                    d2[j * n + i] = v;
                }
            }
            // One row of signed zeros whose every product with the
            // first vector is -0.0.
            let zero_row = n / 2;
            for (d, x) in d2[zero_row * n..(zero_row + 1) * n].iter_mut().zip(&xs[0]) {
                *d = if *x < 0.0 { 0.0 } else { -0.0 };
            }
            for vectors in 1..=3 {
                let xs = &xs[..vectors];
                for workers in 1..=3 {
                    let op = CenteredOperator::new(n, d2.clone(), workers);
                    let mut ys = vec![vec![f64::NAN; n]; vectors];
                    op.apply_multi(xs, &mut ys);
                    for (x, y) in xs.iter().zip(&ys) {
                        let at = format!("n={n} vectors={vectors} workers={workers}");
                        assert_eq!(bits(y), bits(&one_row_product(&op, x)), "{at}");
                        let mut alone = vec![f64::NAN; n];
                        op.apply(x, &mut alone);
                        assert_eq!(bits(&alone), bits(y), "{at}");
                    }
                }
            }
            // Each accumulator starts at -0.0, as `Iterator::sum` does, so
            // the zero row's sum keeps its sign in any of the four lanes.
            let row = |i: usize| &d2[i * n..(i + 1) * n];
            let lanes = [zero_row, 0, n - 1, zero_row];
            let sums = dot4(lanes.map(row), &xs[0]);
            for (sum, i) in sums.iter().zip(lanes) {
                let one_row: f64 = row(i).iter().zip(&xs[0]).map(|(a, b)| a * b).sum();
                assert_eq!(sum.to_bits(), one_row.to_bits(), "n={n} row {i}");
            }
            assert_eq!(sums[0].to_bits(), (-0.0f64).to_bits(), "n={n}");
        }
    }

    /// A jittered `cols x rows` layout at `spacing` meters.
    fn jittered(cols: usize, rows: usize, spacing: f64, seed: u64) -> Vec<Point2> {
        use rand::Rng;
        let mut rng = rl_math::rng::seeded(seed);
        grid(cols, rows, spacing)
            .into_iter()
            .map(|p| {
                let (dx, dy) = (rng.random::<f64>() - 0.5, rng.random::<f64>() - 0.5);
                Point2::new(p.x + 0.4 * spacing * dx, p.y + 0.4 * spacing * dy)
            })
            .collect()
    }

    /// The dense reference: classical MDS of a completed table through
    /// the full Jacobi eigendecomposition of the materialized
    /// double-centered matrix.
    fn dense_embedding(n: usize, completed: &[f64]) -> Vec<Point2> {
        let d2 = rl_math::DMatrix::from_fn(n, n, |i, j| {
            let d = 0.5 * (completed[i * n + j] + completed[j * n + i]);
            d * d
        });
        let eigen = rl_math::SymmetricEigen::new(&d2.double_center().unwrap()).unwrap();
        let coords = eigen.principal_coordinates(2);
        (0..n)
            .map(|i| Point2::new(coords[(i, 0)], coords[(i, 1)]))
            .collect()
    }

    /// Completes `truth` under a `range` cutoff, embeds the table both
    /// ways and compares them. Pairwise distances are invariant to the
    /// eigenvector sign / degenerate-rotation ambiguity between the two
    /// eigensolvers.
    fn assert_embeds_alike(layout: &str, truth: &[Point2], range: f64) {
        let n = truth.len();
        let completed = complete_distances(&MeasurementSet::oracle(truth, range), 1).unwrap();
        let dense = dense_embedding(n, &completed);
        let (iterative, iterations) = embed(n, completed).unwrap();
        assert!(iterations > 0, "{layout}");
        let scale: f64 = dense
            .iter()
            .flat_map(|a| dense.iter().map(move |b| a.distance(*b)))
            .fold(1.0, f64::max);
        for i in 0..n {
            for j in (i + 1)..n {
                let (dd, di) = (
                    dense[i].distance(dense[j]),
                    iterative[i].distance(iterative[j]),
                );
                assert!(
                    (dd - di).abs() < 1e-5 * scale,
                    "{layout} pair {i}-{j}: dense {dd} vs iterative {di}"
                );
            }
        }
        let error = |coords| {
            evaluate_against_truth(&PositionMap::complete(coords), truth)
                .unwrap()
                .mean_error
        };
        let (ed, ei) = (error(dense), error(iterative));
        assert!(
            (ed - ei).abs() < 1e-4,
            "{layout}: dense {ed} vs iterative {ei}"
        );
    }

    #[test]
    fn jacobi_and_iterative_eigensolves_embed_one_table_alike() {
        let p = Point2::new;
        assert_embeds_alike("triangle", &[p(0.0, 0.0), p(7.0, 1.0), p(3.0, 6.0)], 22.0);
        // Equal top eigenvalues: any rotation of the pair is an answer.
        let square = [p(0.0, 0.0), p(10.0, 0.0), p(10.0, 10.0), p(0.0, 10.0)];
        assert_embeds_alike("square", &square, 22.0);
        // Rank one: the second eigenvalue is zero, as is the rest of the
        // spectrum. The 10 m cutoff makes completion walk the line.
        let line = [
            p(0.0, 0.0),
            p(4.0, 0.0),
            p(9.0, 0.0),
            p(15.0, 0.0),
            p(18.0, 0.0),
        ];
        for n in 3..=5 {
            assert_embeds_alike(&format!("{n} collinear"), &line[..n], 10.0);
        }
        // Zigzags 0.5 m wide, of 8 and 300 nodes: the second eigenvalue
        // is a sliver of the first (~4e-4 on the short one), which stalls
        // a shifted power method for thousands of steps but not the
        // Krylov cycles.
        let zigzag = |n: usize| -> Vec<Point2> {
            (0..n)
                .map(|i| p(6.0 * i as f64, if i % 2 == 0 { 0.0 } else { 0.5 }))
                .collect()
        };
        assert_embeds_alike("thin strip", &zigzag(8), 22.0);
        let long = zigzag(300);
        let completed = complete_distances(&MeasurementSet::oracle(&long, 22.0), 1).unwrap();
        let (_, steps) = embed(long.len(), completed).unwrap();
        // A shifted power method needs 2,016 steps here.
        assert!(steps <= 16, "300-node strip: {steps} block steps");
        // A distributed local map's size, then town scale: 60 nodes
        // under the paper's 22 m cutoff.
        assert_embeds_alike("30-node cluster", &jittered(6, 5, 9.0, 5), 22.0);
        assert_embeds_alike("town", &jittered(10, 6, 9.0, 7), 22.0);
    }

    #[test]
    fn collinear_points_need_only_one_dimension() {
        let truth = [
            Point2::new(0.0, 0.0),
            Point2::new(4.0, 0.0),
            Point2::new(9.0, 0.0),
        ];
        let set = complete_set(&truth, |i, j| truth[i].distance(truth[j]));
        let coords = mdsmap_coordinates(&set).unwrap();
        // Second coordinate collapses to ~0 for collinear input.
        for p in &coords {
            assert!(p.y.abs() < 1e-6, "expected 1-D embedding, got {p}");
        }
    }
}
