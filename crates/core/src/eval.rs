//! Evaluation against ground truth.
//!
//! Anchor-free LSS produces coordinates in an arbitrary frame, so the paper
//! evaluates it after a best-fit match: "the computed coordinates were
//! translated, rotated and flipped to achieve a best-fit match with the
//! actual node coordinates" (Section 4.2.2). The headline metric is the
//! **average localization error** — "the average of the distances between
//! actual node positions and the corresponding estimated positions".

use rl_geom::{fit_rigid_transform, Point2};
use rl_net::NodeId;
use serde::{Deserialize, Serialize};

use crate::types::PositionMap;
use crate::{LocalizationError, Result};

/// The outcome of comparing estimated positions with ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Number of nodes the algorithm localized.
    pub localized: usize,
    /// Total number of nodes.
    pub total: usize,
    /// Average localization error over localized nodes, meters.
    pub mean_error: f64,
    /// Largest single-node error, meters.
    pub max_error: f64,
    /// Per-node errors (only localized nodes, ordered by id).
    pub per_node: Vec<(NodeId, f64)>,
    /// Estimated positions mapped into the ground-truth frame.
    pub aligned: PositionMap,
    /// Estimates skipped because a coordinate was NaN or infinite. A
    /// non-finite estimate is a solver bug, but it must surface as this
    /// flag — not as a NaN `mean_error` silently poisoning every
    /// aggregate built on top of the evaluation.
    pub non_finite: usize,
}

impl Evaluation {
    /// A view of the evaluation with the given nodes excluded from the
    /// metric (and cleared in [`Evaluation::aligned`]). Used to keep
    /// anchors — inputs, not estimates — out of an anchor-based
    /// algorithm's error: the paper reports multilateration error over
    /// non-anchor nodes only.
    pub fn excluding(&self, exclude: &[NodeId]) -> Evaluation {
        let ex: std::collections::BTreeSet<NodeId> = exclude.iter().copied().collect();
        let per_node: Vec<(NodeId, f64)> = self
            .per_node
            .iter()
            .filter(|(id, _)| !ex.contains(id))
            .copied()
            .collect();
        let max_error = per_node.iter().map(|&(_, e)| e).fold(0.0f64, f64::max);
        let mean_error = if per_node.is_empty() {
            0.0
        } else {
            per_node.iter().map(|&(_, e)| e).sum::<f64>() / per_node.len() as f64
        };
        let mut aligned = self.aligned.clone();
        for &id in &ex {
            if id.index() < aligned.len() {
                aligned.clear(id);
            }
        }
        Evaluation {
            localized: per_node.len(),
            total: self
                .total
                .saturating_sub(ex.iter().filter(|id| id.index() < self.total).count()),
            mean_error,
            max_error,
            per_node,
            aligned,
            non_finite: self.non_finite,
        }
    }

    /// Average error after dropping the `k` largest per-node errors (the
    /// paper reports e.g. "without the largest 5 errors, the average
    /// improves to 1.5 m").
    pub fn mean_error_without_worst(&self, k: usize) -> f64 {
        if self.per_node.is_empty() {
            return 0.0;
        }
        let mut errors: Vec<f64> = self.per_node.iter().map(|&(_, e)| e).collect();
        errors.sort_by(f64::total_cmp);
        let keep = errors.len().saturating_sub(k);
        if keep == 0 {
            return 0.0;
        }
        errors[..keep].iter().sum::<f64>() / keep as f64
    }
}

/// Splits the localized nodes into those with finite estimates and a
/// count of those with NaN/infinite coordinates: the latter are skipped
/// by the metrics and surfaced via [`Evaluation::non_finite`].
fn finite_localized(estimated: &PositionMap) -> (Vec<NodeId>, usize) {
    let mut finite = Vec::new();
    let mut non_finite = 0;
    for id in estimated.localized_nodes() {
        let p = estimated.get(id).expect("localized");
        if p.x.is_finite() && p.y.is_finite() {
            finite.push(id);
        } else {
            non_finite += 1;
        }
    }
    (finite, non_finite)
}

/// Evaluates estimates **after best-fit rigid alignment** (translation,
/// rotation, reflection) with the ground truth — the protocol for
/// anchor-free algorithms like LSS.
///
/// Only localized nodes with finite estimates participate in the
/// alignment and the metric; non-finite estimates are skipped and
/// counted in [`Evaluation::non_finite`] instead of poisoning the mean.
///
/// # Errors
///
/// * [`LocalizationError::Evaluation`] when fewer than 2 nodes have
///   finite estimates or the estimate/truth lengths disagree,
/// * geometric errors from a degenerate alignment.
pub fn evaluate_against_truth(estimated: &PositionMap, truth: &[Point2]) -> Result<Evaluation> {
    if estimated.len() != truth.len() {
        return Err(LocalizationError::Evaluation(
            "estimate and truth cover different node counts",
        ));
    }
    let (localized, non_finite) = finite_localized(estimated);
    if localized.len() < 2 {
        return Err(LocalizationError::Evaluation(
            "need at least two finitely localized nodes to align",
        ));
    }
    let source: Vec<Point2> = localized
        .iter()
        .map(|&id| estimated.get(id).expect("localized"))
        .collect();
    let target: Vec<Point2> = localized.iter().map(|&id| truth[id.index()]).collect();
    let fit = fit_rigid_transform(&source, &target, true)?;

    let mut aligned = PositionMap::unlocalized(truth.len());
    let mut per_node = Vec::with_capacity(localized.len());
    let mut max_error: f64 = 0.0;
    for (&id, &src) in localized.iter().zip(&source) {
        let mapped = fit.transform.apply(src);
        aligned.set(id, mapped);
        let err = mapped.distance(truth[id.index()]);
        max_error = max_error.max(err);
        per_node.push((id, err));
    }
    let mean_error = per_node.iter().map(|&(_, e)| e).sum::<f64>() / per_node.len() as f64;

    Ok(Evaluation {
        localized: localized.len(),
        total: truth.len(),
        mean_error,
        max_error,
        per_node,
        aligned,
        non_finite,
    })
}

/// Evaluates estimates **in the absolute frame** (no alignment) — the
/// protocol for anchor-based algorithms like multilateration, whose output
/// already lives in the anchors' coordinate system.
///
/// Non-finite estimates are skipped and counted in
/// [`Evaluation::non_finite`] instead of poisoning the mean.
///
/// # Errors
///
/// * [`LocalizationError::Evaluation`] when nothing is finitely
///   localized or the lengths disagree.
pub fn evaluate_absolute(estimated: &PositionMap, truth: &[Point2]) -> Result<Evaluation> {
    if estimated.len() != truth.len() {
        return Err(LocalizationError::Evaluation(
            "estimate and truth cover different node counts",
        ));
    }
    let (localized, non_finite) = finite_localized(estimated);
    if localized.is_empty() {
        return Err(LocalizationError::Evaluation(
            "no nodes were finitely localized",
        ));
    }
    let mut per_node = Vec::with_capacity(localized.len());
    let mut max_error: f64 = 0.0;
    let mut aligned = PositionMap::unlocalized(truth.len());
    for &id in &localized {
        let est = estimated.get(id).expect("localized");
        aligned.set(id, est);
        let err = est.distance(truth[id.index()]);
        max_error = max_error.max(err);
        per_node.push((id, err));
    }
    let mean_error = per_node.iter().map(|&(_, e)| e).sum::<f64>() / per_node.len() as f64;
    Ok(Evaluation {
        localized: localized.len(),
        total: truth.len(),
        mean_error,
        max_error,
        per_node,
        aligned,
        non_finite,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_geom::{RigidTransform, Vec2};

    fn truth() -> Vec<Point2> {
        vec![
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(10.0, 10.0),
            Point2::new(0.0, 10.0),
        ]
    }

    #[test]
    fn perfect_estimate_scores_zero() {
        let t = truth();
        let est = PositionMap::complete(t.clone());
        let eval = evaluate_against_truth(&est, &t).unwrap();
        assert_eq!(eval.localized, 4);
        assert!(eval.mean_error < 1e-10);
        assert!(eval.max_error < 1e-10);
    }

    #[test]
    fn rotated_flipped_estimate_aligns_to_zero() {
        let t = truth();
        let hidden = RigidTransform::new(1.2, true, Vec2::new(-30.0, 12.0));
        let est = PositionMap::complete(t.iter().map(|&p| hidden.apply(p)).collect::<Vec<_>>());
        let eval = evaluate_against_truth(&est, &t).unwrap();
        assert!(eval.mean_error < 1e-9, "mean error {}", eval.mean_error);
    }

    #[test]
    fn absolute_evaluation_does_not_align() {
        let t = truth();
        let shifted: Vec<Point2> = t.iter().map(|&p| p + Vec2::new(1.0, 0.0)).collect();
        let est = PositionMap::complete(shifted);
        let absolute = evaluate_absolute(&est, &t).unwrap();
        assert!((absolute.mean_error - 1.0).abs() < 1e-12);
        // Aligned evaluation removes the shift entirely.
        let aligned = evaluate_against_truth(&est, &t).unwrap();
        assert!(aligned.mean_error < 1e-9);
    }

    #[test]
    fn partial_localization_counts() {
        let t = truth();
        let mut est = PositionMap::unlocalized(4);
        est.set(NodeId(0), t[0]);
        est.set(NodeId(2), t[2]);
        let eval = evaluate_against_truth(&est, &t).unwrap();
        assert_eq!(eval.localized, 2);
        assert_eq!(eval.total, 4);
        assert_eq!(eval.per_node.len(), 2);
        assert!(!eval.aligned.is_localized(NodeId(1)));
    }

    #[test]
    fn mean_without_worst_drops_outliers() {
        let t = truth();
        let mut positions = t.clone();
        positions[3] = Point2::new(0.0, 30.0); // 20 m outlier
        let est = PositionMap::complete(positions);
        let eval = evaluate_absolute(&est, &t).unwrap();
        assert!(eval.mean_error > 4.0);
        let trimmed = eval.mean_error_without_worst(1);
        assert!(trimmed < 1e-12, "trimmed {trimmed}");
        // Dropping everything yields zero.
        assert_eq!(eval.mean_error_without_worst(10), 0.0);
    }

    #[test]
    fn excluding_drops_nodes_from_metric() {
        let t = truth();
        let mut positions = t.clone();
        positions[0] = Point2::new(0.0, 5.0); // 5 m error on node 0
        let eval = evaluate_absolute(&PositionMap::complete(positions), &t).unwrap();
        assert!((eval.mean_error - 1.25).abs() < 1e-12);

        let trimmed = eval.excluding(&[NodeId(0)]);
        assert_eq!(trimmed.localized, 3);
        assert_eq!(trimmed.total, 3);
        assert!(trimmed.mean_error < 1e-12, "mean {}", trimmed.mean_error);
        assert!(!trimmed.aligned.is_localized(NodeId(0)));
        assert_eq!(trimmed.per_node.len(), 3);

        // Excluding everything leaves a zeroed metric, not a panic.
        let empty = eval.excluding(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(empty.localized, 0);
        assert_eq!(empty.mean_error, 0.0);
    }

    /// A single NaN estimate must be skipped and flagged — not turn the
    /// whole campaign's mean/max into NaN.
    #[test]
    fn a_nan_node_no_longer_poisons_the_summary() {
        let t = truth();
        let mut est = PositionMap::complete(t.clone());
        est.set(NodeId(2), Point2::new(f64::NAN, 3.0));

        for eval in [
            evaluate_against_truth(&est, &t).unwrap(),
            evaluate_absolute(&est, &t).unwrap(),
        ] {
            assert_eq!(eval.non_finite, 1);
            assert_eq!(eval.localized, 3);
            assert!(eval.mean_error.is_finite(), "mean {}", eval.mean_error);
            assert!(eval.max_error.is_finite(), "max {}", eval.max_error);
            assert!(eval.mean_error < 1e-9, "finite nodes are exact");
            assert!(!eval.aligned.is_localized(NodeId(2)), "NaN node skipped");
            // The flag survives exclusion views (campaign summaries
            // aggregate those too).
            assert_eq!(eval.excluding(&[NodeId(0)]).non_finite, 1);
        }

        // An all-NaN / infinite estimate is a structured error, not NaN.
        let mut bad = PositionMap::unlocalized(4);
        bad.set(NodeId(0), Point2::new(f64::NAN, 0.0));
        bad.set(NodeId(1), Point2::new(0.0, f64::INFINITY));
        assert!(matches!(
            evaluate_against_truth(&bad, &t),
            Err(LocalizationError::Evaluation(_))
        ));
        assert!(matches!(
            evaluate_absolute(&bad, &t),
            Err(LocalizationError::Evaluation(_))
        ));
    }

    #[test]
    fn error_cases() {
        let t = truth();
        let too_few = PositionMap::unlocalized(4);
        assert!(matches!(
            evaluate_against_truth(&too_few, &t),
            Err(LocalizationError::Evaluation(_))
        ));
        assert!(matches!(
            evaluate_absolute(&too_few, &t),
            Err(LocalizationError::Evaluation(_))
        ));
        let wrong_len = PositionMap::unlocalized(3);
        assert!(evaluate_against_truth(&wrong_len, &t).is_err());
    }
}
