//! Offset-grid deployments (Figure 5).
//!
//! The paper's grass-field experiments place sensors "in a 7×7 offset grid
//! pattern with 9 m and 10 m grid spacing between the nearest neighbors" in
//! a ~64×64 m area, with 9.14 m (30 ft) minimum spacing used later as the
//! LSS soft constraint. The [`OffsetGrid`] generator reproduces that
//! pattern: columns every `column_spacing`, nodes every `row_spacing`
//! within a column, odd columns shifted up by half a row — making
//! within-column neighbors 9.14 m apart and cross-column neighbors
//! `sqrt(9.144² + 4.572²) ≈ 10.2 m` apart.

use rl_geom::Point2;
use serde::{Deserialize, Serialize};

use crate::Deployment;

/// Offset (quincunx) grid generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OffsetGrid {
    /// Number of columns.
    pub columns: usize,
    /// Nodes per column.
    pub rows: usize,
    /// Horizontal distance between adjacent columns, meters.
    pub column_spacing: f64,
    /// Vertical distance between nodes within a column, meters.
    pub row_spacing: f64,
    /// Vertical shift of odd columns, meters (half the row spacing in the
    /// paper's layout).
    pub odd_column_offset: f64,
    /// Indices (row-major: `column * rows + row`) to drop from the full
    /// grid — deployed networks rarely have every position filled.
    pub dropped: Vec<usize>,
}

impl OffsetGrid {
    /// A full regular offset grid with the paper's half-row offset.
    pub fn new(columns: usize, rows: usize, column_spacing: f64, row_spacing: f64) -> Self {
        OffsetGrid {
            columns,
            rows,
            column_spacing,
            row_spacing,
            odd_column_offset: row_spacing / 2.0,
            dropped: Vec::new(),
        }
    }

    /// The Figure 5 deployment: 7×7 offset grid at 30 ft (9.144 m) spacing,
    /// two unfilled positions for the paper's 47 motes.
    pub fn paper_figure5() -> Self {
        OffsetGrid {
            // Drop two far-corner positions: 49 - 2 = 47 motes.
            dropped: vec![6, 48],
            ..OffsetGrid::new(7, 7, 9.144, 9.144)
        }
    }

    /// Generates the deployment.
    pub fn generate(&self) -> Deployment {
        let mut positions = Vec::with_capacity(self.columns * self.rows);
        for c in 0..self.columns {
            for r in 0..self.rows {
                let idx = c * self.rows + r;
                if self.dropped.contains(&idx) {
                    continue;
                }
                let x = c as f64 * self.column_spacing;
                let y = r as f64 * self.row_spacing
                    + if c % 2 == 1 {
                        self.odd_column_offset
                    } else {
                        0.0
                    };
                positions.push(Point2::new(x, y));
            }
        }
        Deployment::new(
            format!(
                "offset-grid-{}x{}-{}",
                self.columns,
                self.rows,
                positions.len()
            ),
            positions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_count() {
        let d = OffsetGrid::new(7, 7, 9.144, 9.144).generate();
        assert_eq!(d.len(), 49);
    }

    #[test]
    fn paper_grid_matches_figure5() {
        let d = OffsetGrid::paper_figure5().generate();
        assert_eq!(d.len(), 47);
        // Area ≈ 55 x 59 m, inside the paper's 64x64 m field.
        let (lo, hi) = d.bounding_box().unwrap();
        assert_eq!(lo, Point2::new(0.0, 0.0));
        assert!(hi.x < 64.0 && hi.y < 64.0, "bbox {hi}");
        // Nearest-neighbor spacings: 9.144 m within columns, ~10.2 m across.
        assert!((d.min_pair_distance().unwrap() - 9.144).abs() < 1e-9);
    }

    #[test]
    fn cross_column_spacing_is_about_ten_meters() {
        let d = OffsetGrid::new(2, 2, 9.144, 9.144).generate();
        // Node (0,0) and the offset node (9.144, 4.572).
        let cross = d.positions[0].distance(d.positions[2]);
        assert!(
            (cross - (9.144f64 * 9.144 + 4.572 * 4.572).sqrt()).abs() < 1e-9,
            "cross spacing {cross}"
        );
        assert!((10.0..10.5).contains(&cross));
    }

    #[test]
    fn odd_columns_are_offset() {
        let d = OffsetGrid::new(3, 2, 10.0, 8.0).generate();
        // Column 0 at y = 0, 8; column 1 at y = 4, 12; column 2 at y = 0, 8.
        assert_eq!(d.positions[0].y, 0.0);
        assert_eq!(d.positions[2].y, 4.0);
        assert_eq!(d.positions[3].y, 12.0);
        assert_eq!(d.positions[4].y, 0.0);
    }

    #[test]
    fn dropped_positions_are_skipped() {
        let d = OffsetGrid {
            dropped: vec![0, 3],
            ..OffsetGrid::new(2, 2, 5.0, 5.0)
        }
        .generate();
        assert_eq!(d.len(), 2);
        assert_eq!(d.positions[0], Point2::new(0.0, 5.0));
    }
}
