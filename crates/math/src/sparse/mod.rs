//! Sparse graph shortest paths and matrix-free operators.
//!
//! Connectivity graphs under the paper's 22 m ranging cutoff are
//! inherently sparse — a metro-scale deployment of 1000 nodes measures a
//! few thousand pairs, not the half-million a dense matrix stores — so
//! the large-`n` solver paths run on this module instead of [`DMatrix`]:
//!
//! * [`CsrMatrix`] — a weighted graph adjacency in compressed sparse row
//!   form, built from sorted per-node rows or from an edge list,
//! * [`LinearOperator`] — the matrix-free abstraction the iterative
//!   solvers consume; implemented by [`DMatrix`] and any
//!   problem-specific implicit operator (e.g. the double-centered MDS
//!   Gram operator, which is dense but applied without materialization),
//! * [`cg`] — a conjugate-gradient solver for symmetric
//!   positive-definite systems,
//! * [`eigen`] — a restarted block Krylov top-`k` eigensolver for
//!   symmetric operators, needing only mat-vec applications,
//! * [`dijkstra`] — single-source shortest paths over a [`CsrMatrix`]
//!   adjacency on an indexed 4-ary heap with decrease-key, the sparse
//!   replacement for dense all-pairs completion.
//!
//! MDS-MAP eigensolves through [`eigen`] at every size. The dense
//! counterparts ([`DMatrix`], [`SymmetricEigen`]) remain the small
//! Rayleigh–Ritz solve inside [`eigen`] and the parity oracle in tests.
//!
//! [`SymmetricEigen`]: crate::SymmetricEigen
//!
//! # Example: solve
//!
//! ```
//! use rl_math::sparse::cg;
//! use rl_math::DMatrix;
//!
//! // The 1-D Laplacian [[2,-1,0],[-1,2,-1],[0,-1,2]] — SPD.
//! let a = DMatrix::from_rows(&[&[2.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 2.0]])
//!     .unwrap();
//!
//! // Conjugate gradient recovers x = [1, 1, 1] from b = A x.
//! let out = cg::conjugate_gradient(&a, &[1.0, 0.0, 1.0], &cg::CgConfig::default()).unwrap();
//! assert!(out.converged);
//! for (xi, expect) in out.x.iter().zip([1.0, 1.0, 1.0]) {
//!     assert!((xi - expect).abs() < 1e-9);
//! }
//! ```
//!
//! # Example: top-k eigenpairs from mat-vec alone
//!
//! ```
//! use rl_math::sparse::eigen;
//! use rl_math::DMatrix;
//!
//! let a = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
//! let top = eigen::topk_symmetric(&a, 1).unwrap();
//! assert!((top.eigenvalues[0] - 3.0).abs() < 1e-8);
//! ```

pub mod cg;
pub mod eigen;

use crate::{DMatrix, MathError, Result};

/// A weighted graph adjacency over `n` nodes in compressed sparse row
/// (CSR) form: what [`dijkstra`] and its batched forms walk.
///
/// The neighbours of node `i` live at `col_idx[row_ptr[i]..row_ptr[i + 1]]`
/// and their edge weights at `values[row_ptr[i]..row_ptr[i + 1]]`, with
/// neighbour indices strictly increasing within each row.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds the symmetric adjacency of an undirected weighted graph over
    /// `n` nodes: each edge `(i, j, w)` with `i != j` stores `w` at both
    /// `(i, j)` and `(j, i)`, a self-loop `(i, i, w)` once. Repeated
    /// entries are summed in edge-list order.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidArgument`] when an endpoint is not
    /// below `n` or a stored weight is not finite.
    pub fn symmetric_from_edges(n: usize, edges: &[(usize, usize, f64)]) -> Result<Self> {
        let mut rows = vec![Vec::new(); n];
        for &(i, j, w) in edges {
            if i >= n || j >= n {
                return Err(MathError::InvalidArgument("edge endpoint out of bounds"));
            }
            rows[i].push((j, w));
            if i != j {
                rows[j].push((i, w));
            }
        }
        for row in &mut rows {
            row.sort_by_key(|&(j, _)| j);
            row.dedup_by(|repeat, kept| {
                let same = repeat.0 == kept.0;
                if same {
                    kept.1 += repeat.1;
                }
                same
            });
        }
        CsrMatrix::from_sorted_rows(n, rows)
    }

    /// Builds the adjacency of `n` nodes from their `n` rows, each given
    /// as `(neighbour, weight)` pairs with neighbours strictly increasing:
    /// the CSR arrays are filled in one pass. A graph that already keeps
    /// sorted neighbour lists hands them over as they are.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidArgument`] when a neighbour is not
    /// below `n` or not above its predecessor, a weight is not finite, or
    /// there are not exactly `n` rows.
    pub fn from_sorted_rows<R, I>(n: usize, rows: R) -> Result<Self>
    where
        R: IntoIterator<Item = I>,
        I: IntoIterator<Item = (usize, f64)>,
    {
        let mut row_ptr = vec![0];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for row in rows {
            let start = col_idx.len();
            for (c, v) in row {
                if c >= n {
                    return Err(MathError::InvalidArgument("row entry out of bounds"));
                }
                if col_idx.len() > start && c <= col_idx[col_idx.len() - 1] {
                    return Err(MathError::InvalidArgument("row columns not increasing"));
                }
                if !v.is_finite() {
                    return Err(MathError::InvalidArgument("row value is not finite"));
                }
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        if row_ptr.len() != n + 1 {
            return Err(MathError::InvalidArgument("not one row per node"));
        }
        Ok(CsrMatrix {
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Number of rows: the node count.
    pub fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// The stored entries of row `i` as `(column, value)` pairs, columns
    /// strictly increasing.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(i < self.rows(), "row index {i} out of bounds");
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_idx[span.clone()]
            .iter()
            .copied()
            .zip(self.values[span].iter().copied())
    }
}

/// A matrix-free square linear operator `x -> A x`.
///
/// The iterative solvers in [`cg`] and [`eigen`] only ever apply the
/// operator, so any structure that can multiply a vector qualifies: a
/// dense [`DMatrix`], or an implicit operator that is never materialized
/// (the MDS double-centering operator is the canonical example).
pub trait LinearOperator {
    /// Dimension `n` of the (square) operator.
    fn dim(&self) -> usize;

    /// Writes `A x` into `y` (`x.len() == y.len() == self.dim()`).
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// Writes `A xs[j]` into `ys[j]` for a block of vectors.
    ///
    /// The default simply loops [`LinearOperator::apply`]. The MDS
    /// double-centering operator runs `apply` and `apply_multi` through
    /// one pooled kernel that walks its dense table four rows per pass
    /// and, for each group of rows, passes every vector over them.
    /// Overrides must keep each output bit-identical to the
    /// single-vector `apply` — the blocked eigensolver path is covered by
    /// the campaign determinism fingerprints.
    fn apply_multi(&self, xs: &[Vec<f64>], ys: &mut [Vec<f64>]) {
        for (x, y) in xs.iter().zip(ys.iter_mut()) {
            self.apply(x, y);
        }
    }
}

impl LinearOperator for DMatrix {
    fn dim(&self) -> usize {
        debug_assert!(self.is_square(), "LinearOperator requires a square matrix");
        self.rows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols(), "apply: x has wrong dimension");
        assert_eq!(y.len(), self.rows(), "apply: y has wrong dimension");
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *yi = acc;
        }
    }
}

/// Single-source shortest-path distances over a [`CsrMatrix`] adjacency
/// whose edge weights are non-negative.
///
/// Runs Dijkstra on an indexed 4-ary min-heap with decrease-key (see
/// [`DijkstraWorkspace`]) in `O((n + nnz) log n)`; unreachable nodes get
/// `f64::INFINITY`. A node's final distance is the smallest
/// `dist[u] + w`, rounded in `f64`, over its neighbours `u`. The order
/// in which equal costs leave the heap cannot change that minimum, so
/// the result is deterministic.
///
/// This is the sparse replacement for the dense all-pairs completion in
/// MDS-MAP: calling it once per source node costs
/// `O(n (n + nnz) log n)` total instead of touching `n^2` matrix slots
/// per source.
///
/// # Panics
///
/// Panics if `source` is out of range, or a negative edge weight is
/// encountered (debug assertions).
///
/// # Example
///
/// ```
/// use rl_math::sparse::{dijkstra, CsrMatrix};
///
/// // Path graph 0 -2.0- 1 -3.0- 2, node 3 isolated.
/// let g = CsrMatrix::symmetric_from_edges(4, &[(0, 1, 2.0), (1, 2, 3.0)]).unwrap();
/// let d = dijkstra(&g, 0);
/// assert_eq!(&d[..3], &[0.0, 2.0, 5.0]);
/// assert!(d[3].is_infinite());
/// ```
pub fn dijkstra(adjacency: &CsrMatrix, source: usize) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; adjacency.rows()];
    dijkstra_into(adjacency, source, &mut dist, &mut DijkstraWorkspace::new());
    dist
}

/// [`DijkstraWorkspace`] slot of a node that is not in the heap.
const NOT_QUEUED: usize = usize::MAX;

/// Reusable scratch for [`dijkstra_into`]: an indexed 4-ary min-heap of
/// tentative distances with decrease-key. Each node is queued at most
/// once, so a relaxation that lowers a queued node's distance moves its
/// entry up instead of pushing a stale duplicate.
///
/// Entries are keyed on [`f64::to_bits`] of the costs. Costs are sums of
/// non-negative weights starting from `+0.0`, never `-0.0`, so their bit
/// patterns order like their values. Both buffers survive across calls,
/// so an all-sources sweep allocates them once, and one workspace serves
/// graphs of any size.
#[derive(Debug, Default)]
pub struct DijkstraWorkspace {
    /// Heap entries `(cost bits, node)`; the children of slot `s` are
    /// slots `4s + 1 ..= 4s + 4`.
    heap: Vec<(u64, usize)>,
    /// `slot[node]`: the node's heap slot, or [`NOT_QUEUED`].
    slot: Vec<usize>,
}

impl DijkstraWorkspace {
    /// An empty workspace; the heap grows to fit on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the heap and sizes the slot index for `n` nodes.
    fn reset(&mut self, n: usize) {
        self.heap.clear();
        self.slot.clear();
        self.slot.resize(n, NOT_QUEUED);
    }

    /// Queues `node` at `key`, or lowers the key of its queued entry.
    fn push_or_decrease(&mut self, node: usize, key: u64) {
        let mut s = self.slot[node];
        if s == NOT_QUEUED {
            s = self.heap.len();
            self.heap.push((key, node));
        }
        while s > 0 {
            let parent = (s - 1) / 4;
            let above = self.heap[parent];
            if above.0 <= key {
                break;
            }
            self.heap[s] = above;
            self.slot[above.1] = s;
            s = parent;
        }
        self.heap[s] = (key, node);
        self.slot[node] = s;
    }

    /// Removes and returns the entry with the smallest key.
    fn pop(&mut self) -> Option<(u64, usize)> {
        let top = *self.heap.first()?;
        self.slot[top.1] = NOT_QUEUED;
        let last = self.heap.pop().expect("the heap is not empty");
        let len = self.heap.len();
        if len == 0 {
            return Some(top);
        }
        // Sift the former last entry down from the root.
        let mut s = 0;
        loop {
            let first = 4 * s + 1;
            if first >= len {
                break;
            }
            let mut child = first;
            if first + 4 <= len {
                // A two-round tournament over the four children, free of
                // branches on the keys, which no predictor can guess.
                let keys = &self.heap[first..first + 4];
                let left = first + usize::from(keys[1].0 < keys[0].0);
                let right = first + 2 + usize::from(keys[3].0 < keys[2].0);
                child = if self.heap[right].0 < self.heap[left].0 {
                    right
                } else {
                    left
                };
            } else {
                for c in first + 1..len {
                    if self.heap[c].0 < self.heap[child].0 {
                        child = c;
                    }
                }
            }
            let below = self.heap[child];
            if below.0 >= last.0 {
                break;
            }
            self.heap[s] = below;
            self.slot[below.1] = s;
            s = child;
        }
        self.heap[s] = last;
        self.slot[last.1] = s;
        Some(top)
    }
}

/// [`dijkstra`] into a caller-owned distance buffer with reusable heap
/// scratch — the batched form MDS-MAP's geodesic completion runs once
/// per source.
///
/// `dist` is fully overwritten (`f64::INFINITY` for unreachable nodes);
/// results are identical to [`dijkstra`].
///
/// # Panics
///
/// Panics if `source` is out of range, `dist.len()` is not the node
/// count, or a negative edge weight is encountered (debug assertions).
pub fn dijkstra_into(
    adjacency: &CsrMatrix,
    source: usize,
    dist: &mut [f64],
    ws: &mut DijkstraWorkspace,
) {
    let n = adjacency.rows();
    assert!(source < n, "source {source} out of range ({n} nodes)");
    assert_eq!(dist.len(), n, "distance buffer has wrong length");

    dist.fill(f64::INFINITY);
    dist[source] = 0.0;
    ws.reset(n);
    ws.push_or_decrease(source, 0.0f64.to_bits());
    while let Some((key, node)) = ws.pop() {
        // A queued key is always its node's current distance.
        let cost = f64::from_bits(key);
        let span = adjacency.row_ptr[node]..adjacency.row_ptr[node + 1];
        for (&next, &w) in adjacency.col_idx[span.clone()]
            .iter()
            .zip(&adjacency.values[span])
        {
            debug_assert!(w >= 0.0, "negative edge weight {w}");
            let cand = cost + w;
            if cand < dist[next] {
                dist[next] = cand;
                ws.push_or_decrease(next, cand.to_bits());
            }
        }
    }
}

/// Multi-source Dijkstra into a row-major `sources.len() x n` distance
/// buffer: row `s` holds the distances from `sources[s]`.
///
/// One [`DijkstraWorkspace`] serves every source (the kernel shape geodesic
/// completion needs: `n` sources over the same adjacency). Each row is
/// identical to the corresponding single-source [`dijkstra`] run.
///
/// # Panics
///
/// Same conditions as [`dijkstra_into`], plus a `dist` length that is
/// not exactly `sources.len() * n`.
pub fn dijkstra_multi_into(adjacency: &CsrMatrix, sources: &[usize], dist: &mut [f64]) {
    let n = adjacency.rows();
    assert_eq!(
        dist.len(),
        sources.len() * n,
        "distance buffer has wrong length"
    );
    let mut ws = DijkstraWorkspace::new();
    for (row, &source) in dist.chunks_exact_mut(n.max(1)).zip(sources) {
        dijkstra_into(adjacency, source, row, &mut ws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn symmetric_builder_mirrors_edges_and_sums_repeats() {
        let a = CsrMatrix::symmetric_from_edges(
            3,
            &[(0, 2, 1.0), (0, 0, 2.0), (2, 0, 0.5), (1, 1, 4.0)],
        )
        .unwrap();
        let rows: Vec<Vec<_>> = (0..3).map(|i| a.row(i).collect()).collect();
        assert_eq!(
            rows,
            vec![vec![(0, 2.0), (2, 1.5)], vec![(1, 4.0)], vec![(0, 1.5)]]
        );
    }

    #[test]
    fn symmetric_builder_rejects_out_of_bounds_and_non_finite() {
        for bad in [(2, 0, 1.0), (0, 2, 1.0), (0, 1, f64::NAN)] {
            assert!(matches!(
                CsrMatrix::symmetric_from_edges(2, &[bad]),
                Err(MathError::InvalidArgument(_))
            ));
        }
    }

    #[test]
    fn sorted_rows_match_edges_and_reject_bad_rows() {
        let rows = [
            vec![(0, 2.0), (2, 1.5)],
            vec![(2, -1.0)],
            vec![(0, 1.5), (1, -1.0)],
        ];
        let a = CsrMatrix::from_sorted_rows(3, rows.iter().map(|r| r.iter().copied())).unwrap();
        let b =
            CsrMatrix::symmetric_from_edges(3, &[(0, 0, 2.0), (0, 2, 1.5), (1, 2, -1.0)]).unwrap();
        assert_eq!(a, b);
        for bad in [
            vec![(3, 1.0)],
            vec![(1, 1.0), (1, 2.0)],
            vec![(2, 1.0), (0, 2.0)],
            vec![(0, f64::INFINITY)],
        ] {
            assert!(matches!(
                CsrMatrix::from_sorted_rows(3, [bad, vec![], vec![]]),
                Err(MathError::InvalidArgument(_))
            ));
        }
        assert!(matches!(
            CsrMatrix::from_sorted_rows(3, [vec![(0, 1.0)]]),
            Err(MathError::InvalidArgument(_))
        ));
    }

    #[test]
    fn dijkstra_handles_disconnection_and_alternative_routes() {
        // Square with one expensive diagonal: 0-1-2 cheaper than 0-2.
        let g =
            CsrMatrix::symmetric_from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)]).unwrap();
        let d = dijkstra(&g, 0);
        assert_eq!(d[2], 2.0);
        assert!(d[3].is_infinite());
        let from2 = dijkstra(&g, 2);
        assert_eq!(from2[0], 2.0);
    }

    #[test]
    fn dijkstra_sums_spacings_along_a_line() {
        let g =
            CsrMatrix::symmetric_from_edges(4, &[(0, 1, 8.0), (1, 2, 8.0), (2, 3, 8.0)]).unwrap();
        assert_eq!(dijkstra(&g, 0), vec![0.0, 8.0, 16.0, 24.0]);
        assert_eq!(dijkstra(&g, 3)[0], 24.0);
        assert_eq!(dijkstra(&g, 1)[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dijkstra_rejects_bad_source() {
        let g = CsrMatrix::symmetric_from_edges(2, &[]).unwrap();
        let _ = dijkstra(&g, 5);
    }

    #[test]
    fn dijkstra_multi_matches_per_source_runs() {
        let g = CsrMatrix::symmetric_from_edges(
            5,
            &[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 5.0), (3, 4, 0.5)],
        )
        .unwrap();
        let sources = [0, 2, 4];
        let mut all = vec![0.0; sources.len() * 5];
        dijkstra_multi_into(&g, &sources, &mut all);
        for (row, &s) in all.chunks_exact(5).zip(&sources) {
            let single = dijkstra(&g, s);
            for (a, b) in row.iter().zip(&single) {
                assert_eq!(a.to_bits(), b.to_bits(), "multi-source dijkstra drifted");
            }
        }
    }

    /// The plain `BinaryHeap` Dijkstra with stale entries that the
    /// indexed heap replaced: the bitwise oracle for [`dijkstra_into`].
    fn binary_heap_dijkstra(g: &CsrMatrix, source: usize) -> Vec<f64> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut dist = vec![f64::INFINITY; g.rows()];
        dist[source] = 0.0;
        let mut heap = BinaryHeap::from([Reverse((0.0f64.to_bits(), source))]);
        while let Some(Reverse((key, node))) = heap.pop() {
            let cost = f64::from_bits(key);
            if cost > dist[node] {
                continue;
            }
            for (next, w) in g.row(node) {
                let cand = cost + w;
                if cand < dist[next] {
                    dist[next] = cand;
                    heap.push(Reverse((cand.to_bits(), next)));
                }
            }
        }
        dist
    }

    /// An edge weight drawn as a class: `+0.0`, `-0.0`, one of two
    /// repeated values (ties), or the continuous draw `w`.
    fn weight(class: u8, w: f64) -> f64 {
        match class {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            3 => 2.5,
            _ => w,
        }
    }

    proptest! {
        /// The indexed 4-ary heap settles every node at the bits the
        /// plain binary heap does, with one workspace reused across
        /// graphs of shrinking size. Zero and `-0.0` weights, ties and
        /// isolated nodes are all drawn.
        #[test]
        fn prop_dijkstra_matches_the_binary_heap_bitwise(
            mut graphs in proptest::collection::vec(
                (
                    1usize..40,
                    proptest::collection::vec((0usize..40, 0usize..40, 0u8..7, 0.0f64..10.0), 0..80),
                ),
                1..5,
            ),
        ) {
            graphs.sort_by_key(|g| std::cmp::Reverse(g.0));
            let mut ws = DijkstraWorkspace::new();
            for (n, edges) in &graphs {
                let edges: Vec<(usize, usize, f64)> = edges
                    .iter()
                    .map(|&(i, j, class, w)| (i % n, j % n, weight(class, w)))
                    .collect();
                let g = CsrMatrix::symmetric_from_edges(*n, &edges).unwrap();
                let mut dist = vec![f64::NAN; *n];
                for source in 0..*n {
                    dijkstra_into(&g, source, &mut dist, &mut ws);
                    let expect = binary_heap_dijkstra(&g, source);
                    for (node, (got, want)) in dist.iter().zip(&expect).enumerate() {
                        prop_assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "n={} source={} node={}", n, source, node
                        );
                    }
                }
            }
        }

        /// All-sources Dijkstra over a Euclidean disk graph satisfies the
        /// triangle inequality, and reachability is transitive.
        #[test]
        fn prop_dijkstra_triangle_inequality(
            pts in proptest::collection::vec((-30.0f64..30.0, -30.0f64..30.0), 3..12),
            range in 10.0f64..60.0,
        ) {
            let n = pts.len();
            let mut edges = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    let d = (pts[i].0 - pts[j].0).hypot(pts[i].1 - pts[j].1);
                    if d <= range {
                        edges.push((i, j, d));
                    }
                }
            }
            let g = CsrMatrix::symmetric_from_edges(n, &edges).unwrap();
            let sources: Vec<usize> = (0..n).collect();
            let mut sp = vec![0.0; n * n];
            dijkstra_multi_into(&g, &sources, &mut sp);
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        let (ij, ik, kj) = (sp[i * n + j], sp[i * n + k], sp[k * n + j]);
                        if ik.is_finite() && kj.is_finite() {
                            prop_assert!(ij <= ik + kj + 1e-9);
                        }
                    }
                }
            }
        }
    }
}
