//! Uniform-grid candidate pairs: the near-neighbor walk shared by the
//! disk-graph builder and the LSS soft constraint.
//!
//! Any two points closer than `cell` lie in the same or adjacent cells
//! of a uniform grid with that cell size, so visiting only those cells
//! finds every close pair in `O(n log n + candidates)` instead of the
//! all-pairs `O(n²)` scan.

use crate::Point2;

/// Calls `visit(i, j)` once for every candidate pair `i < j` among the
/// `n` points `point(0..n)` whose grid cells (cell size `cell`) are the
/// same or adjacent. Every pair within distance `cell` is a candidate;
/// the caller applies its own distance test (strict or inclusive) and,
/// since pairs arrive in cell order, its own final sort.
///
/// The grid is a flat sorted `(cell_x, cell_y, node)` index, binary
/// searched per neighbor column — no per-cell allocations. f64-to-i64
/// casts saturate, so neither non-finite coordinates nor degenerate cell
/// sizes can panic: equal points always share a cell (size 0), and an
/// infinite size puts everything in cell `(0, 0)`.
///
/// ```
/// use rl_geom::{grid::for_each_grid_pair, Point2};
///
/// let pts = [Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), Point2::new(9.0, 9.0)];
/// let mut close = Vec::new();
/// for_each_grid_pair(pts.len(), 2.0, |i| pts[i], |i, j| {
///     if pts[i].distance(pts[j]) <= 2.0 {
///         close.push((i, j));
///     }
/// });
/// assert_eq!(close, [(0, 1)]);
/// ```
pub fn for_each_grid_pair(
    n: usize,
    cell: f64,
    point: impl Fn(usize) -> Point2,
    mut visit: impl FnMut(usize, usize),
) {
    let cell_of = |i: usize| -> (i64, i64) {
        let p = point(i);
        ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
    };
    let mut keyed: Vec<(i64, i64, u32)> = (0..n)
        .map(|i| {
            let (cx, cy) = cell_of(i);
            (cx, cy, i as u32)
        })
        .collect();
    keyed.sort_unstable();
    for i in 0..n {
        let (cx, cy) = cell_of(i);
        // Saturation can collapse adjacent column indices onto the same
        // value at the i64 extremes; visiting a collapsed column twice
        // would yield the same pair twice, so duplicates are skipped.
        let columns = [cx.saturating_sub(1), cx, cx.saturating_add(1)];
        for (k, &kx) in columns.iter().enumerate() {
            if columns[..k].contains(&kx) {
                continue;
            }
            // Entries of column kx with cell_y in [cy-1, cy+1] form one
            // contiguous sorted run.
            let y_lo = cy.saturating_sub(1);
            let y_hi = cy.saturating_add(1);
            let lo = keyed.partition_point(|&(a, b, _)| (a, b) < (kx, y_lo));
            let hi = keyed.partition_point(|&(a, b, _)| (a, b) <= (kx, y_hi));
            for &(_, _, j) in &keyed[lo..hi] {
                let j = j as usize;
                if j > i {
                    visit(i, j);
                }
            }
        }
    }
}
