//! Regenerates every figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p rl-bench --bin figures            # everything
//! cargo run --release -p rl-bench --bin figures -- F18 F21 # a selection
//! cargo run --release -p rl-bench --bin figures -- --list  # available ids
//! ```
//!
//! Tables print to stdout; CSV dumps land in `experiments/out/`. Each
//! paper claim an experiment checks prints beside its tables with its
//! verdict; the binary exits non-zero if a claim fails, an experiment
//! panics or a CSV cannot be written.

use rl_bench::experiments::{self, ExperimentResult};
use rl_bench::MASTER_SEED;

type Runner = fn(u64) -> ExperimentResult;

/// Every experiment, in presentation order.
const EXPERIMENTS: &[(&str, &str, Runner)] = &[
    (
        "F2",
        "baseline ranging errors, urban",
        experiments::ranging::figure2_baseline_urban,
    ),
    (
        "F4",
        "baseline + median filter",
        experiments::ranging::figure4_median_filter,
    ),
    (
        "F6",
        "refined ranging histogram, grass",
        experiments::ranging::figure6_refined_histogram,
    ),
    (
        "F7",
        "bidirectional-only histogram",
        experiments::ranging::figure7_bidirectional,
    ),
    (
        "F8",
        "error vs distance",
        experiments::ranging::figure8_error_vs_distance,
    ),
    (
        "MAXR",
        "maximum-range study",
        experiments::ranging::max_range_study,
    ),
    (
        "SYNC",
        "clock-sync error bound",
        experiments::sync::sync_error_bound,
    ),
    (
        "F10",
        "DFT tone-detection filter",
        experiments::signal::figure10_dft_filter,
    ),
    (
        "F11",
        "intersection consistency demo",
        experiments::multilateration::figure11_intersection_consistency,
    ),
    (
        "F12",
        "parking-lot multilateration",
        experiments::multilateration::figure12_parking_lot,
    ),
    (
        "F14",
        "sparse-grid multilateration",
        experiments::multilateration::figure14_sparse_grid,
    ),
    (
        "F16",
        "augmented-grid multilateration",
        experiments::multilateration::figure16_augmented_grid,
    ),
    (
        "F18",
        "centralized LSS + constraint, grid",
        experiments::lss::figure18_grid_constrained,
    ),
    (
        "F19",
        "centralized LSS, no constraint, grid",
        experiments::lss::figure19_grid_unconstrained,
    ),
    (
        "F20",
        "town multilateration",
        experiments::multilateration::figure20_town,
    ),
    (
        "F21",
        "town LSS + constraint",
        experiments::lss::figure21_town_constrained,
    ),
    (
        "F22",
        "town LSS, no constraint",
        experiments::lss::figure22_town_unconstrained,
    ),
    (
        "F23",
        "stress vs epoch",
        experiments::lss::figure23_error_vs_epoch,
    ),
    (
        "F24",
        "distributed LSS, sparse",
        experiments::distributed::figure24_sparse,
    ),
    (
        "F25",
        "distributed LSS, augmented",
        experiments::distributed::figure25_augmented,
    ),
    (
        "BASELINES",
        "related-work baseline comparison",
        experiments::baselines::baseline_comparison,
    ),
    (
        "METRO",
        "metro-scale sweep, parallel campaign",
        experiments::metro::metro_sweep,
    ),
    (
        "DEGRADATION",
        "error-regime degradation ladder",
        experiments::degradation::degradation_ladder,
    ),
    (
        "TRACKING",
        "warm-started tracking vs cold re-solve, mobility streams",
        experiments::tracking::tracking_stream,
    ),
    (
        "ABL-FILTER",
        "median vs mode vs none",
        experiments::ranging::filter_ablation,
    ),
    (
        "ABL-CHIRP",
        "chirp-length sweep",
        experiments::signal::chirp_length_ablation,
    ),
    (
        "ABL-THRESH",
        "threshold sweep",
        experiments::signal::threshold_ablation,
    ),
    (
        "ABL-CONSIST",
        "consistency-check ablation",
        experiments::multilateration::consistency_ablation,
    ),
    (
        "ABL-WD",
        "constraint-weight sweep",
        experiments::lss::constraint_weight_ablation,
    ),
    (
        "ABL-INIT",
        "init-strategy ablation",
        experiments::lss::init_ablation,
    ),
    (
        "ABL-TRANSFORM",
        "transform-method ablation",
        experiments::distributed::transform_method_ablation,
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for (id, desc, _) in EXPERIMENTS {
            println!("{id:14} {desc}");
        }
        return;
    }
    let selected: Vec<&(&str, &str, Runner)> = if args.is_empty() {
        EXPERIMENTS.iter().collect()
    } else {
        let wanted: Vec<String> = args.iter().map(|a| a.to_uppercase()).collect();
        let picked: Vec<_> = EXPERIMENTS
            .iter()
            .filter(|(id, _, _)| wanted.iter().any(|w| w == id))
            .collect();
        if picked.is_empty() {
            eprintln!("no experiment matches {args:?}; try --list");
            std::process::exit(2);
        }
        picked
    };

    let out_dir = std::path::Path::new("experiments/out");
    let mut failures = 0;
    let mut failed_claims = 0;
    for (id, desc, runner) in selected {
        eprintln!(">>> running {id} ({desc}) ...");
        let started = std::time::Instant::now();
        let result = runner(MASTER_SEED);
        let elapsed = started.elapsed();
        println!("{result}");
        println!("  ({id} completed in {elapsed:.1?})\n");
        failed_claims += result.claims.iter().filter(|c| !c.holds()).count();
        match result.save_csvs(out_dir) {
            Ok(paths) => {
                for p in paths {
                    eprintln!("    wrote {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("    CSV write failed: {e}");
                failures += 1;
            }
        }
    }
    if failed_claims > 0 {
        eprintln!("{failed_claims} paper claim(s) failed: see the `claim FAIL` lines");
    }
    if failures > 0 || failed_claims > 0 {
        std::process::exit(1);
    }
}
