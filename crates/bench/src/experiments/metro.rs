//! Metro-scale sweep: the campaign grid on deployments ~10× (and beyond)
//! the paper's largest simulation, driven through the parallel runner.
//!
//! The paper tops out at a 59-node town (Figures 20–22). This experiment
//! sweeps that same evaluation shape — identical error model, identical
//! anchor protocol — up through metro deployments of 250, 500 and 1000
//! nodes ([`rl_deploy::MetroMap`] district grids with obstruction
//! belts), and runs **all six solver families** over the whole ladder:
//! the sparse linear-algebra backend (`rl_math::sparse`) makes
//! centralized LSS and MDS-MAP — formerly `O(n²)`-dense / `O(n³)` and
//! town-bound — tractable at the 1000-node rung, so the head-to-head
//! comparison the paper's resilience claims rest on finally covers every
//! family at every scale. The grid runs twice, once serially and once on
//! the machine-sized worker pool; the two reports must be bit-identical.
//! Per-cell error, iterations, convergence and wall time are reported,
//! and the metro cells are gated: no failed cell, distributed LSS within
//! [`ERROR_BUDGET_M`], the metro-1000 wall ratios against MDS-MAP read
//! from the serial report, and the metro-1000 work counts.

use rl_core::baselines::{dv_hop, CentroidLocalizer, DvHopLocalizer};
use rl_core::distributed::{DistributedConfig, DistributedSolver};
use rl_core::lss::{LssConfig, LssSolver};
use rl_core::mds::MdsMapLocalizer;
use rl_core::multilateration::{MultilaterationConfig, MultilaterationSolver};
use rl_core::problem::Localizer;
use rl_core::types::Anchor;
use rl_deploy::Scenario;
use rl_net::RadioModel;

use super::ExperimentResult;
use crate::campaign::{Campaign, CampaignConfig, CampaignReport};
use crate::gate::Gate;
use crate::Table;

/// The paper's ranging cutoff, shared by every metro cell.
const RANGE_M: f64 = 22.0;

/// Mean-error ceiling shared by distributed LSS at metro scale (the
/// refined pipeline lands ~0.13 m at metro-1000; unrefined stitching
/// drifted to ~15 m), its metro-2500 run in the `smoke sparse` suite
/// (~0.12 m), and Cauchy-loss LSS on DEGRADATION's contaminated town
/// rung.
pub const ERROR_BUDGET_M: f64 = 2.0;

/// The metro-1000 wall-ratio gates divide by the MDS-MAP cell on the
/// same rung, which runs neither the LSS descent nor the simulator. The
/// ratios depend on the core count: MDS-MAP's completion and eigensolve
/// products run on the worker pool, as do centralized LSS's MDS-MAP seed
/// and DV-hop's multilateration, while the LSS descent, distributed
/// LSS's exchange and DV-hop's breadth-first hop counts run on one
/// thread. The more cores, the smaller the denominator, and the more a
/// numerator's serial work weighs in its ratio. Each budget is about
/// 1.5x the highest ratio read over two sets of 12 runs on a 2-core box.
///
/// Centralized sparse LSS (the soft constraint's Verlet list is what
/// keeps it here) must finish within this factor of MDS-MAP; it read
/// 1.76-3.09.
const LSS_WALL_FACTOR: f64 = 4.6;

/// Distributed LSS must finish within this factor of MDS-MAP; it read
/// 2.97-4.64 once its exchange stopped queueing ignored deliveries
/// (4.89-8.34 before).
const DIST_WALL_FACTOR: f64 = 7.0;

/// DV-hop (one breadth-first search per anchor, then Gauss–Newton
/// multilateration) must finish within this factor of MDS-MAP; it read
/// 0.68-1.39 (1.62-2.73 while each fix ran gradient descents).
const DVHOP_WALL_FACTOR: f64 = 2.1;

/// Work counts of the metro-1000 cells, each deterministic for the
/// fixed seed and budgeted at about 1.25x its reading, so a solver that
/// needs more steps fails on any machine: `(localizer, gate, budget)`.
/// Centralized LSS's descent read 1,163 iterations, MDS-MAP's eigensolve
/// 9 block steps, and distributed LSS 792,409 counted deliveries.
const WORK_BUDGETS: [(&str, &str, f64); 3] = [
    (
        "lss-anchor-free+constraint",
        "lss-descent-iterations",
        1_450.0,
    ),
    ("mds-map", "mds-eigen-steps", 11.0),
    ("distributed-lss", "distributed-deliveries", 990_000.0),
];

/// DV-hop's multilateration at metro-1000 must take at most this many
/// fused passes over the hop-distance ranges; it read 57,543, about
/// 10.7 per start (the count is deterministic, so any rise is a change
/// of the fix).
const DVHOP_PASSES: f64 = 72_000.0;

/// The metro rungs whose distributed-LSS error is gated, by label.
const GATED_RUNGS: [(&str, &str); 2] = [
    ("metro-250", "metro-250-25anchors"),
    ("metro-1000", METRO_1000),
];

/// The metro-1000 scenario name the wall-ratio and count gates key on.
const METRO_1000: &str = "metro-1000-100anchors";

/// The full six-family panel, metro-tuned where it matters:
///
/// * centralized LSS runs [`LssConfig::metro`] (anchor-free + soft
///   constraint, MDS-MAP seeding, short restart schedule), its soft
///   constraint read from a Verlet candidate list,
/// * distributed LSS runs [`DistributedConfig::metro`]: MDS-seeded local
///   solves sharded on the `rl_net::pool` worker pool, plus the
///   Gauss–Newton/CG refinement that collapses cross-district stitching
///   drift,
/// * MDS-MAP runs its one path (CSR Dijkstra completion + iterative
///   top-2 eigensolver), pooled at sparse scale,
/// * the remaining three families were already metro-tractable and run
///   their standard configurations.
pub fn metro_localizers() -> Vec<Box<dyn Localizer>> {
    vec![
        Box::new(LssSolver::new(LssConfig::metro())),
        Box::new(MultilaterationSolver::new(
            MultilaterationConfig::paper().progressive(),
        )),
        Box::new(DistributedSolver::new(DistributedConfig::metro())),
        Box::new(MdsMapLocalizer::new()),
        Box::new(DvHopLocalizer::new(RadioModel::ideal(RANGE_M))),
        Box::new(CentroidLocalizer::new(RANGE_M)),
    ]
}

/// The sweep's scenario ladder: the paper's town, then metros at 250,
/// 500 and 1000 nodes (10% anchors throughout, like the town's 18 of 59).
fn metro_ladder(seed: u64) -> Vec<Scenario> {
    vec![
        Scenario::town(seed),
        Scenario::metro_sized(250, 0.10, seed),
        Scenario::metro_sized(500, 0.10, seed),
        Scenario::metro(seed),
    ]
}

/// **METRO** — town → metro-1000 scale sweep of the full six-family
/// panel through the parallel campaign: per-scenario geometry, per-cell
/// error / iterations / convergence / wall time, the serial-vs-parallel
/// end-to-end comparison, and the metro gates (see the module docs).
pub fn metro_sweep(seed: u64) -> ExperimentResult {
    let scenarios = metro_ladder(seed);

    let mut geometry = Table::new(
        "metro ladder geometry",
        &["scenario", "nodes", "anchors", "pairs_lt_22m"],
    );
    for s in &scenarios {
        geometry.push(&[
            s.name.clone(),
            s.deployment.len().to_string(),
            s.anchors.len().to_string(),
            s.deployment.pairs_within(RANGE_M).to_string(),
        ]);
    }
    let metro_1000 = scenarios[scenarios.len() - 1].clone();

    let mut campaign = Campaign::new()
        .localizers(metro_localizers())
        .seeds(&[seed]);
    for s in scenarios {
        campaign = campaign.scenario(s);
    }

    let parallel = campaign.run();
    let serial = campaign.run_with(CampaignConfig::serial());

    let speedup = serial.total_wall.as_secs_f64() / parallel.total_wall.as_secs_f64().max(1e-9);
    let mut result = ExperimentResult::new(
        "METRO",
        "metro-scale sweep (town..1000 nodes), all six families, parallel campaign",
    )
    .with_table(geometry)
    .with_table(parallel.summary_table())
    .with_note(format!(
        "serial {:.2?} vs {} workers {:.2?} => {speedup:.2}x end-to-end; fingerprint {:#018x}",
        serial.total_wall,
        parallel.workers,
        parallel.total_wall,
        parallel.fingerprint(),
    ))
    .with_note(
        "all six solver families run at every rung: the sparse backend (CSR shortest paths, \
         iterative top-2 eigensolver, Verlet-list soft constraint) replaces the dense \
         O(n^2)-O(n^3) stages that previously confined LSS and MDS-MAP to town scale",
    )
    .with_note(
        "distributed LSS runs its metro configuration: per-node local solves sharded on the \
         deterministic rl_net::pool workers, and a Tikhonov-regularized Gauss-Newton/CG \
         refinement that collapses cross-district stitching drift to the same error regime \
         as centralized sparse LSS",
    )
    .with_note(
        "the metro generator tiles street-aligned districts behind obstruction belts; \
         the 1000-node cell is ~17x the paper's 59-node town under the identical \
         22 m / N(0, 0.33 m) error model",
    )
    .with_gate(Gate::check(
        "pooled-equals-serial",
        parallel.fingerprint() == serial.fingerprint(),
    ))
    .with_gate(Gate::at_most(
        "failed-cells",
        serial.failed_runs() as f64,
        0.0,
    ));
    for (label, rung) in GATED_RUNGS {
        result = result.with_gate(Gate::at_most(
            format!("{label}-distributed-error-m"),
            serial
                .mean_error(rung, "distributed-lss")
                .unwrap_or(f64::NAN),
            ERROR_BUDGET_M,
        ));
    }
    for (localizer, gate, factor) in [
        (
            "lss-anchor-free+constraint",
            "lss-vs-mds-wall-ratio",
            LSS_WALL_FACTOR,
        ),
        (
            "distributed-lss",
            "distributed-vs-mds-wall-ratio",
            DIST_WALL_FACTOR,
        ),
        ("dv-hop", "dvhop-vs-mds-wall-ratio", DVHOP_WALL_FACTOR),
    ] {
        result = result.with_gate(Gate::at_most(
            gate,
            wall_s(&serial, localizer) / wall_s(&serial, "mds-map").max(1e-9),
            factor,
        ));
    }
    for (localizer, gate, budget) in WORK_BUDGETS {
        result = result.with_gate(Gate::at_most(
            gate,
            serial
                .mean_iterations(METRO_1000, localizer)
                .unwrap_or(f64::NAN),
            budget,
        ));
    }
    let truth = &metro_1000.deployment.positions;
    let passes = dv_hop(
        truth,
        &Anchor::from_truth(&metro_1000.anchors, truth),
        &RadioModel::ideal(RANGE_M),
        &mut rl_math::rng::seeded(seed),
    )
    .map_or(f64::NAN, |out| out.passes as f64);
    result.with_gate(Gate::at_most(
        "dvhop-multilateration-passes",
        passes,
        DVHOP_PASSES,
    ))
}

/// Mean wall time of `localizer`'s metro-1000 cell, in seconds (`NaN`
/// for a missing cell).
fn wall_s(report: &CampaignReport, localizer: &str) -> f64 {
    report
        .wall_stats(METRO_1000, localizer)
        .map_or(f64::NAN, |(mean, _)| mean.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_covers_all_six_families() {
        let names: Vec<String> = metro_localizers()
            .iter()
            .map(|l| l.name().to_string())
            .collect();
        assert_eq!(
            names,
            vec![
                "lss-anchor-free+constraint",
                "multilateration-progressive",
                "distributed-lss",
                "mds-map",
                "dv-hop",
                "centroid",
            ]
        );
    }

    #[test]
    fn six_family_panel_solves_the_town_rung() {
        // The full panel on the ladder's first rung (the paper's town)
        // keeps this test debug-fast while exercising exactly the cells
        // the experiment runs; the metro rungs run in release via the
        // `figures` binary's METRO experiment.
        let campaign = Campaign::new()
            .scenario(Scenario::town(5))
            .localizers(metro_localizers())
            .seeds(&[5]);
        let parallel = campaign.run();
        let serial = campaign.run_with(CampaignConfig::serial());
        assert_eq!(parallel.fingerprint(), serial.fingerprint());
        assert_eq!(parallel.runs.len(), 6);
        for run in &parallel.runs {
            assert!(
                run.outcome.is_ok(),
                "{} failed: {:?}",
                run.localizer,
                run.outcome.as_ref().err()
            );
        }
    }

    #[test]
    fn metro_sweep_covers_the_ladder() {
        // A reduced ladder with the metro-tractable subset keeps the test
        // fast in debug while exercising the same path as the experiment:
        // metro scenarios through the parallel campaign with bit-identical
        // serial replay.
        let cheap: Vec<Box<dyn Localizer>> = vec![
            Box::new(MultilaterationSolver::new(
                MultilaterationConfig::paper().progressive(),
            )),
            Box::new(DvHopLocalizer::new(RadioModel::ideal(RANGE_M))),
            Box::new(CentroidLocalizer::new(RANGE_M)),
        ];
        let campaign = Campaign::new()
            .scenario(Scenario::metro_sized(250, 0.10, 5))
            .localizers(cheap)
            .seeds(&[5]);
        let parallel = campaign.run();
        let serial = campaign.run_with(CampaignConfig::serial());
        assert_eq!(parallel.fingerprint(), serial.fingerprint());
        assert_eq!(parallel.runs.len(), 3);
        let csv = parallel.summary_table().to_csv();
        assert!(csv.contains("metro-250-25anchors"));
        // The anchor-based scheme must beat the connectivity baselines at
        // metro scale too.
        let mlat = parallel
            .mean_error("metro-250-25anchors", "multilateration-progressive")
            .unwrap();
        let centroid = parallel
            .mean_error("metro-250-25anchors", "centroid")
            .unwrap();
        assert!(
            mlat < centroid,
            "multilateration {mlat} vs centroid {centroid}"
        );
    }
}
