//! Centralized-LSS experiments: Figures 17/18, 19, 21, 22 and 23, plus the
//! soft-constraint-weight and initialization ablations.
//!
//! The per-trial figures run through the [`Campaign`] grid and the unified
//! [`Localizer`](rl_core::problem::Localizer) trait; only the
//! trace-recording Figure 23 and the ablations drive the inherent
//! [`LssSolver`] API directly (traces are not part of the trait surface).

use rl_core::eval::evaluate_against_truth;
use rl_core::lss::{InitStrategy, LssConfig, LssSolver};
use rl_core::problem::Problem;
use rl_core::types::PositionMap;
use rl_deploy::Scenario;
use rl_geom::Point2;
use rl_ranging::channel::RangingChannel;
use rl_ranging::measurement::MeasurementSet;

use super::multilateration::grass_grid_measurements;
use super::ExperimentResult;
use crate::gate::Gate;
use crate::report::m;
use crate::{Campaign, Table};

/// The paper's grass-grid constraint parameters.
const GRID_MIN_SPACING: f64 = 9.14;
const GRID_WD: f64 = 10.0;

fn aligned_positions_table(aligned: &PositionMap, truth: &[Point2]) -> Table {
    let mut t = Table::new(
        "aligned positions",
        &["node", "true_x", "true_y", "est_x", "est_y", "error_m"],
    );
    for (id, pos) in aligned.iter() {
        let tp = truth[id.index()];
        match pos {
            Some(p) => t.push(&[
                id.to_string(),
                m(tp.x),
                m(tp.y),
                m(p.x),
                m(p.y),
                m(p.distance(tp)),
            ]),
            None => t.push(&[
                id.to_string(),
                m(tp.x),
                m(tp.y),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    t
}

fn run_lss(
    set: &MeasurementSet,
    truth: &[Point2],
    config: LssConfig,
    seed: u64,
) -> (rl_core::eval::Evaluation, rl_core::lss::LssSolution) {
    let mut rng = rl_math::rng::seeded(seed);
    let solution = LssSolver::new(config)
        .solve(set, &mut rng)
        .expect("measurement set is usable");
    let eval =
        evaluate_against_truth(&solution.positions(), truth).expect("all nodes localized by LSS");
    (eval, solution)
}

/// How many independent solver trials the LSS figures run: convergence
/// from random initialization is seed-dependent, so the figures report a
/// distribution instead of the paper's single anecdotal run.
const TRIALS: usize = 10;

/// A trial counts as a convergence failure above this mean error.
const FAIL_THRESHOLD_M: f64 = 3.0;

/// Restart budget used when comparing constrained and unconstrained runs:
/// the paper bounds both by "maximum computation time", and the comparison
/// is only meaningful at equal budgets (given unbounded restarts even the
/// unconstrained problem eventually stumbles into the global basin on
/// dense data).
fn fixed_budget(config: LssConfig) -> LssConfig {
    let mut descent = config.descent.clone();
    descent.restarts = 23;
    LssConfig { descent, ..config }
}

/// Wraps a pre-measured set into an anchor-free [`Problem`] for the
/// campaign runner (the LSS figures always solve anchor-free, as the
/// paper does).
fn lss_problem(set: MeasurementSet, truth: &[Point2], name: &str) -> Problem {
    Problem::builder(set)
        .name(name)
        .truth(truth.to_vec())
        .build()
        .expect("figure measurement sets are consistent")
}

/// Runs `TRIALS` independent LSS solves of one fixed problem through the
/// campaign grid and tabulates per-trial outcomes.
fn trial_table(
    problem: Problem,
    config: LssConfig,
    seed: u64,
) -> (Table, Vec<f64>, rl_core::eval::Evaluation) {
    let report = Campaign::new()
        .problem(problem)
        .localizer(Box::new(LssSolver::new(config)))
        .trials(seed, TRIALS)
        .run();
    let mut t = Table::new(
        "per-trial outcomes",
        &[
            "trial",
            "mean_error_m",
            "w/o_worst_5_m",
            "stress",
            "iterations",
        ],
    );
    let mut errors = Vec::with_capacity(TRIALS);
    let mut best: Option<(f64, rl_core::eval::Evaluation)> = None;
    for (trial, record) in report.runs.iter().enumerate() {
        let outcome = record.outcome.as_ref().expect("measurement set is usable");
        let eval = outcome
            .evaluation
            .as_ref()
            .expect("all nodes localized by LSS");
        let stress = outcome
            .solution
            .stats()
            .residual
            .expect("LSS reports stress");
        t.push(&[
            trial.to_string(),
            m(eval.mean_error),
            m(eval.mean_error_without_worst(5)),
            format!("{stress:.1}"),
            outcome.solution.stats().iterations.to_string(),
        ]);
        errors.push(eval.mean_error);
        if best.as_ref().is_none_or(|(s, _)| stress < *s) {
            best = Some((stress, eval.clone()));
        }
    }
    (t, errors, best.expect("at least one trial").1)
}

fn failures(errors: &[f64]) -> usize {
    errors.iter().filter(|e| **e > FAIL_THRESHOLD_M).count()
}

/// **F17/F18** — centralized LSS with the minimum-spacing soft constraint
/// on the sparse grass-grid field measurements (paper: 2.2 m average,
/// 1.5 m without the largest five errors).
pub fn figure18_grid_constrained(seed: u64) -> ExperimentResult {
    let (scenario, set) = grass_grid_measurements(seed);
    let truth = &scenario.deployment.positions;
    let (trials, errors, best_eval) = trial_table(
        lss_problem(set.clone(), truth, "grass-grid-field"),
        LssConfig::default().with_min_spacing(GRID_MIN_SPACING, GRID_WD),
        seed ^ 0x18,
    );
    let med = rl_math::stats::median_of(&errors).unwrap_or(f64::NAN);
    ExperimentResult::new(
        "F18",
        "centralized LSS + soft constraint, sparse grass-grid measurements",
    )
    .with_table(trials)
    .with_table(aligned_positions_table(&best_eval.aligned, truth))
    .with_note(format!(
        "paper: 2.2 m average (1.5 m w/o worst 5) from 247 pairs; measured over {TRIALS} trials \
         from {} pairs: median {} m, best-stress run {} m ({} m w/o worst 5), {} failures",
        set.len(),
        m(med),
        m(best_eval.mean_error),
        m(best_eval.mean_error_without_worst(5)),
        failures(&errors)
    ))
    .with_gate(Gate::at_most("median-error-m", med, 2.2))
}

/// **F19** — the same data *without* the soft constraint: the
/// configuration folds and never converges near the truth (paper: 16.6 m
/// average after a full day of minimization).
pub fn figure19_grid_unconstrained(seed: u64) -> ExperimentResult {
    let (scenario, set) = grass_grid_measurements(seed);
    let truth = &scenario.deployment.positions;
    let (trials, errors, best_eval) = trial_table(
        lss_problem(set.clone(), truth, "grass-grid-field"),
        LssConfig::default().without_constraint(),
        seed ^ 0x19,
    );
    let med = rl_math::stats::median_of(&errors).unwrap_or(f64::NAN);
    ExperimentResult::new("F19", "centralized LSS without the soft constraint (grid)")
        .with_table(trials)
        .with_note(format!(
            "paper: 16.6 m average, failed to converge; measured over {TRIALS} trials: \
             median {} m, best-stress run {} m, {} of {TRIALS} trials failed (>{FAIL_THRESHOLD_M} m)",
            m(med),
            m(best_eval.mean_error),
            failures(&errors)
        ))
        .with_gate(Gate::at_least(
            "failed-trials",
            failures(&errors) as f64,
            1.0,
        ))
}

/// The town measurement set of Figures 21/22 (synthetic, no anchors used).
fn town_measurements(seed: u64) -> (Scenario, MeasurementSet) {
    let scenario = Scenario::town(seed);
    let mut rng = rl_math::rng::seeded(seed ^ 0x21);
    let set = RangingChannel::paper().measure_all(&scenario.deployment.positions, &mut rng);
    (scenario, set)
}

/// **F21** — centralized LSS with the constraint on the town map (paper:
/// every node localized, 0.55 m average — better than multilateration
/// despite using *no anchors*).
pub fn figure21_town_constrained(seed: u64) -> ExperimentResult {
    let (scenario, set) = town_measurements(seed);
    let truth = &scenario.deployment.positions;
    let (trials, errors, best_eval) = trial_table(
        lss_problem(set.clone(), truth, "town-synthetic"),
        fixed_budget(LssConfig::default().with_min_spacing(9.0, GRID_WD)),
        seed ^ 0x22,
    );
    let med = rl_math::stats::median_of(&errors).unwrap_or(f64::NAN);
    ExperimentResult::new("F21", "centralized LSS + constraint, town map, no anchors")
        .with_table(trials)
        .with_table(aligned_positions_table(&best_eval.aligned, truth))
        .with_note(format!(
            "paper: all 59 localized, 0.548 m average; measured over {TRIALS} trials from {} \
             pairs: median {} m, {} failures",
            set.len(),
            m(med),
            failures(&errors)
        ))
        .with_gate(Gate::at_most("median-error-m", med, 0.548))
}

/// **F22** — the town map without the constraint (paper: 13.6 m average,
/// the lower half of the network never unfolds).
pub fn figure22_town_unconstrained(seed: u64) -> ExperimentResult {
    let (scenario, set) = town_measurements(seed);
    let truth = &scenario.deployment.positions;
    let (trials, errors, best_eval) = trial_table(
        lss_problem(set.clone(), truth, "town-synthetic"),
        fixed_budget(LssConfig::default().without_constraint()),
        seed ^ 0x23,
    );
    let med = rl_math::stats::median_of(&errors).unwrap_or(f64::NAN);
    ExperimentResult::new("F22", "centralized LSS without constraint, town map")
        .with_table(trials)
        .with_note(format!(
            "paper: 13.6 m average, most of the lower half misplaced; measured over {TRIALS} \
             trials: median {} m, best {} m, {} of {TRIALS} trials failed (>{FAIL_THRESHOLD_M} m)",
            m(med),
            m(best_eval.mean_error),
            failures(&errors)
        ))
}

/// **F23** — error-versus-epoch traces for the constrained and
/// unconstrained town runs (paper: the constraint drastically shortens the
/// time to a good minimum).
pub fn figure23_error_vs_epoch(seed: u64) -> ExperimentResult {
    let (scenario, set) = town_measurements(seed);
    let truth = &scenario.deployment.positions;

    let mut result = ExperimentResult::new("F23", "stress E versus descent epoch");
    let mut final_values = Vec::new();
    for (label, config) in [
        (
            "with constraint",
            LssConfig::default()
                .with_min_spacing(9.0, GRID_WD)
                .with_trace(),
        ),
        (
            "without constraint",
            LssConfig::default().without_constraint().with_trace(),
        ),
    ] {
        let (eval, solution) = run_lss(&set, truth, config, seed ^ 0x24);
        let trace = solution.trace().expect("trace enabled");
        let mut t = Table::new(format!("E(t) {label}"), &["epoch", "stress"]);
        // Subsample long traces to keep the CSV manageable.
        let step = (trace.values.len() / 400).max(1);
        for (i, v) in trace.values.iter().enumerate().step_by(step) {
            t.push(&[i.to_string(), format!("{v:.3}")]);
        }
        result = result.with_table(t);
        final_values.push((
            label,
            trace.values.len(),
            solution.stress(),
            eval.mean_error,
        ));
    }
    let (_, epochs_c, stress_c, err_c) = final_values[0];
    let (_, epochs_u, stress_u, err_u) = final_values[1];
    result
        .with_note(format!(
            "constrained: {epochs_c} epochs to stress {stress_c:.1} (err {} m); unconstrained: \
         {epochs_u} epochs to stress {stress_u:.1} (err {} m). paper: the constraint greatly \
         reduces the time to reach a good minimum",
            m(err_c),
            m(err_u)
        ))
        .with_gate(Gate::at_most(
            "constrained-epochs",
            epochs_c as f64,
            epochs_u as f64 - 1.0,
        ))
}

/// **Ablation** — soft-constraint weight sweep `w_D ∈ {0, 1, 10, 100}` on
/// the grass-grid measurements.
pub fn constraint_weight_ablation(seed: u64) -> ExperimentResult {
    let (scenario, set) = grass_grid_measurements(seed);
    let truth = &scenario.deployment.positions;
    let mut t = Table::new(
        "soft-constraint weight sweep (grass grid)",
        &["w_D", "mean_error_m", "stress", "iterations"],
    );
    for wd in [0.0, 1.0, 10.0, 100.0] {
        let config = if wd == 0.0 {
            LssConfig::default().without_constraint()
        } else {
            LssConfig::default().with_min_spacing(GRID_MIN_SPACING, wd)
        };
        let (eval, solution) = run_lss(&set, truth, config, seed ^ 0x25 ^ wd as u64);
        t.push(&[
            format!("{wd:.0}"),
            m(eval.mean_error),
            format!("{:.1}", solution.stress()),
            solution.iterations().to_string(),
        ]);
    }
    ExperimentResult::new("ABL-WD", "soft-constraint weight sensitivity")
        .with_table(t)
        .with_note("paper used w_D = 10 with w_ij = 1")
}

/// **Ablation** — initialization strategy: random restarts versus the
/// MDS-MAP seed (extension beyond the paper).
pub fn init_ablation(seed: u64) -> ExperimentResult {
    let (scenario, set) = town_measurements(seed);
    let truth = &scenario.deployment.positions;
    let mut t = Table::new(
        "LSS initialization comparison (town)",
        &["init", "mean_error_m", "iterations"],
    );
    for (label, init) in [
        ("random", InitStrategy::Random),
        ("MDS-MAP seed", InitStrategy::MdsMap),
    ] {
        let config = LssConfig::default()
            .with_min_spacing(9.0, GRID_WD)
            .with_init(init);
        let (eval, solution) = run_lss(&set, truth, config, seed ^ 0x26);
        t.push(&[
            label.into(),
            m(eval.mean_error),
            solution.iterations().to_string(),
        ]);
    }
    ExperimentResult::new("ABL-INIT", "random vs MDS-MAP initialization")
        .with_table(t)
        .with_note("the MDS-MAP seed typically reaches the stress target in fewer iterations")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_beats_no_constraint_on_town() {
        // The headline claim of the paper: at an equal computation budget,
        // the constraint is what makes the minimization converge — every
        // constrained trial succeeds, unconstrained trials fold or burn
        // far more epochs.
        let with = figure21_town_constrained(3);
        let without = figure22_town_unconstrained(3);
        let column = |r: &ExperimentResult, idx: usize| -> Vec<f64> {
            r.tables[0]
                .to_csv()
                .lines()
                .skip(1)
                .map(|l| l.split(',').nth(idx).unwrap().parse().unwrap())
                .collect()
        };
        let with_fail = failures(&column(&with, 1));
        assert!(
            with_fail <= 1,
            "constrained trials should nearly always converge, {with_fail} failed"
        );
        let with_med = rl_math::stats::median_of(&column(&with, 1)).unwrap();
        assert!(with_med < 1.0, "constrained median error {with_med}");

        let without_fail = failures(&column(&without, 1));
        assert!(
            without_fail >= with_fail + 3,
            "unconstrained should fold far more often: {without_fail} vs {with_fail}"
        );
        let without_med = rl_math::stats::median_of(&column(&without, 1)).unwrap();
        assert!(
            without_med > with_med,
            "unconstrained median should be worse: {without_med} vs {with_med}"
        );
    }
}
