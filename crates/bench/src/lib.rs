//! Experiment harness regenerating every figure of the paper.
//!
//! Each evaluation artifact of Kwon et al. (ICDCS 2005) has a matching
//! experiment function in [`experiments`]; the `figures` binary runs them
//! and prints the same rows/series the paper reports, alongside CSV dumps
//! for plotting, and gates the paper's claims each experiment returns.
//! The `smoke` binary's suites time the underlying algorithms against
//! budgets. Both run on one harness (see [`gate`]).
//!
//! | id | paper artifact | function |
//! |----|----------------|----------|
//! | F2   | Fig. 2 baseline ranging errors (urban) | [`experiments::ranging::figure2_baseline_urban`] |
//! | F4   | Fig. 4 baseline + median filter | [`experiments::ranging::figure4_median_filter`] |
//! | F6   | Fig. 6 refined-service error histogram | [`experiments::ranging::figure6_refined_histogram`] |
//! | F7   | Fig. 7 bidirectional-only histogram | [`experiments::ranging::figure7_bidirectional`] |
//! | F8   | Fig. 8 error vs distance | [`experiments::ranging::figure8_error_vs_distance`] |
//! | MAXR | §3.6.2 maximum-range study | [`experiments::ranging::max_range_study`] |
//! | SYNC | §3.1 clock-sync error bound | [`experiments::sync::sync_error_bound`] |
//! | F10  | Fig. 10 DFT tone-detection filter | [`experiments::signal::figure10_dft_filter`] |
//! | F11  | Fig. 11 intersection consistency demo | [`experiments::multilateration::figure11_intersection_consistency`] |
//! | F12  | Fig. 12 parking-lot multilateration | [`experiments::multilateration::figure12_parking_lot`] |
//! | F13/14 | Figs. 13–14 sparse-grid multilateration | [`experiments::multilateration::figure14_sparse_grid`] |
//! | F15/16 | Figs. 15–16 augmented multilateration | [`experiments::multilateration::figure16_augmented_grid`] |
//! | F17/18 | Figs. 17–18 centralized LSS (grid) | [`experiments::lss::figure18_grid_constrained`] |
//! | F19  | Fig. 19 LSS without constraint (grid) | [`experiments::lss::figure19_grid_unconstrained`] |
//! | F20  | Fig. 20 town multilateration | [`experiments::multilateration::figure20_town`] |
//! | F21  | Fig. 21 town LSS with constraint | [`experiments::lss::figure21_town_constrained`] |
//! | F22  | Fig. 22 town LSS without constraint | [`experiments::lss::figure22_town_unconstrained`] |
//! | F23  | Fig. 23 error vs epoch | [`experiments::lss::figure23_error_vs_epoch`] |
//! | F24  | Fig. 24 distributed LSS, sparse | [`experiments::distributed::figure24_sparse`] |
//! | F25  | Fig. 25 distributed LSS, augmented | [`experiments::distributed::figure25_augmented`] |
//! | METRO | metro-scale sweep (beyond the paper) | [`experiments::metro::metro_sweep`] |
//!
//! Ablations beyond the paper's figures: soft-constraint weight sweep,
//! statistical-filter comparison, chirp-length sweep, detection-threshold
//! sweep, transform-method comparison, and LSS initialization comparison —
//! see the `ablations` module.
//!
//! The [`campaign`] module is the batch-scale seam: a [`Campaign`] shards
//! a (scenarios × localizers × seeds) grid across a `std::thread` worker
//! pool, runs every cell through the unified
//! [`Localizer`](rl_core::problem::Localizer) trait, and summarizes error
//! and per-cell wall time. The report is bit-identical for any worker
//! count (see the module docs for the determinism contract); the
//! solver-comparison experiments above are built on it, and the `METRO`
//! experiment pushes it to 1000-node deployments.
//!
//! The [`gate`] module is the gate harness behind the `smoke` binary
//! (`cargo run --release -p rl-bench --bin smoke [suite…]`) and the
//! `figures` binary, which runs each experiment as one suite: each suite
//! records `(name, value, op, budget, ok)` gates, and one run writes one
//! versioned `BENCH_smoke.json` or `BENCH_figures.json`.
//!
//! ```
//! use rl_bench::campaign::{Campaign, CampaignConfig};
//! use rl_core::baselines::CentroidLocalizer;
//! use rl_core::multilateration::{MultilaterationConfig, MultilaterationSolver};
//! use rl_deploy::Scenario;
//!
//! let campaign = Campaign::new()
//!     .scenario(Scenario::town(2005))
//!     .localizer(Box::new(MultilaterationSolver::new(
//!         MultilaterationConfig::paper().progressive(),
//!     )))
//!     .localizer(Box::new(CentroidLocalizer::new(22.0)))
//!     .trials(2005, 2);
//!
//! // Machine-sized worker pool and an explicit 2-worker pool produce
//! // the bit-identical report.
//! let report = campaign.run();
//! let two = campaign.run_with(CampaignConfig::default().with_workers(2));
//! assert_eq!(report.fingerprint(), two.fingerprint());
//! assert_eq!(report.runs.len(), 4);
//! println!("{}", report.summary_table());
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod experiments;
pub mod gate;
pub mod report;

pub use campaign::{Campaign, CampaignConfig, CampaignReport};
pub use report::Table;

/// The master seed all experiments derive their RNG streams from, so the
/// whole figure set is reproducible bit-for-bit.
pub const MASTER_SEED: u64 = 20050614;
