//! Regenerates every figure of the paper's evaluation and gates its
//! claims.
//!
//! ```text
//! cargo run --release -p rl-bench --bin figures            # everything
//! cargo run --release -p rl-bench --bin figures -- F18 F21 # a selection
//! cargo run --release -p rl-bench --bin figures -- --list  # available ids
//! ```
//!
//! Each experiment runs as one suite of the [`rl_bench::gate`] harness,
//! named by its id. Tables print to stdout; CSV dumps land in
//! `experiments/out/`. The gates an experiment returns — the paper's
//! claims, and the budgets of METRO, DEGRADATION and TRACKING — print
//! beside its tables with their verdicts. A failed gate, a panic or a
//! CSV that cannot be written fails the experiment's suite, and the
//! later experiments still run. Every gate lands in
//! `BENCH_figures.json`; the binary exits non-zero if any failed.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use rl_bench::experiments::multilateration as mlat;
use rl_bench::experiments::{
    baselines, degradation, distributed, lss, metro, ranging, signal, sync, tracking,
    ExperimentResult,
};
use rl_bench::gate::{self, Spec, Suite};
use rl_bench::MASTER_SEED;

type Runner = fn(u64) -> ExperimentResult;

/// Every experiment, in presentation order.
#[rustfmt::skip]
const EXPERIMENTS: &[(&str, &str, Runner)] = &[
    ("F2", "baseline ranging errors, urban", ranging::figure2_baseline_urban),
    ("F4", "baseline + median filter", ranging::figure4_median_filter),
    ("F6", "refined ranging histogram, grass", ranging::figure6_refined_histogram),
    ("F7", "bidirectional-only histogram", ranging::figure7_bidirectional),
    ("F8", "error vs distance", ranging::figure8_error_vs_distance),
    ("MAXR", "maximum-range study", ranging::max_range_study),
    ("SYNC", "clock-sync error bound", sync::sync_error_bound),
    ("F10", "DFT tone-detection filter", signal::figure10_dft_filter),
    ("F11", "intersection consistency demo", mlat::figure11_intersection_consistency),
    ("F12", "parking-lot multilateration", mlat::figure12_parking_lot),
    ("F14", "sparse-grid multilateration", mlat::figure14_sparse_grid),
    ("F16", "augmented-grid multilateration", mlat::figure16_augmented_grid),
    ("F18", "centralized LSS + constraint, grid", lss::figure18_grid_constrained),
    ("F19", "centralized LSS, no constraint, grid", lss::figure19_grid_unconstrained),
    ("F20", "town multilateration", mlat::figure20_town),
    ("F21", "town LSS + constraint", lss::figure21_town_constrained),
    ("F22", "town LSS, no constraint", lss::figure22_town_unconstrained),
    ("F23", "stress vs epoch", lss::figure23_error_vs_epoch),
    ("F24", "distributed LSS, sparse", distributed::figure24_sparse),
    ("F25", "distributed LSS, augmented", distributed::figure25_augmented),
    ("BASELINES", "related-work baseline comparison", baselines::baseline_comparison),
    ("METRO", "metro-scale sweep, parallel campaign", metro::metro_sweep),
    ("DEGRADATION", "error-regime degradation ladder", degradation::degradation_ladder),
    ("TRACKING", "warm-started tracking vs cold re-solve", tracking::tracking_stream),
    ("ABL-FILTER", "median vs mode vs none", ranging::filter_ablation),
    ("ABL-CHIRP", "chirp-length sweep", signal::chirp_length_ablation),
    ("ABL-THRESH", "threshold sweep", signal::threshold_ablation),
    ("ABL-CONSIST", "consistency-check ablation", mlat::consistency_ablation),
    ("ABL-WD", "constraint-weight sweep", lss::constraint_weight_ablation),
    ("ABL-INIT", "init-strategy ablation", lss::init_ablation),
    ("ABL-TRANSFORM", "transform-method ablation", distributed::transform_method_ablation),
];

/// The experiments whose campaigns carry a wall budget, and the budget.
const WALL_BUDGETED: [&str; 3] = ["METRO", "DEGRADATION", "TRACKING"];
const WALL_BUDGET: Duration = Duration::from_secs(300);

/// One experiment as a gate suite: print its tables, record its gates,
/// write its CSVs.
fn spec(&(id, about, runner): &(&'static str, &'static str, Runner)) -> Spec {
    let mut spec = Spec::new(id, about, move |suite: &mut Suite| {
        let result = runner(MASTER_SEED);
        println!("{result}");
        for gate in result.gates.iter().cloned() {
            suite.push(gate);
        }
        match result.save_csvs(Path::new("experiments/out")) {
            Ok(paths) => {
                for p in paths {
                    eprintln!("    wrote {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("    CSV write failed: {e}");
                suite.check("csvs-written", false);
            }
        }
    });
    if WALL_BUDGETED.contains(&id) {
        spec.wall_budget = Some(WALL_BUDGET);
    }
    spec
}

fn main() -> ExitCode {
    gate::main(EXPERIMENTS.iter().map(spec).collect(), "BENCH_figures.json")
}
