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
//! the machine-sized worker pool, asserting the two reports are
//! bit-identical before reporting per-cell error, iterations,
//! convergence and wall time.

use rl_core::baselines::{CentroidLocalizer, DvHopLocalizer};
use rl_core::distributed::{DistributedConfig, DistributedSolver};
use rl_core::lss::{LssConfig, LssSolver};
use rl_core::mds::MdsMapLocalizer;
use rl_core::multilateration::{MultilaterationConfig, MultilaterationSolver};
use rl_core::problem::Localizer;
use rl_deploy::Scenario;
use rl_net::RadioModel;

use super::ExperimentResult;
use crate::campaign::{Campaign, CampaignConfig};
use crate::Table;

/// The paper's ranging cutoff, shared by every metro cell.
const RANGE_M: f64 = 22.0;

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
/// error / iterations / convergence / wall time, and the
/// serial-vs-parallel end-to-end comparison (bit-identical reports
/// asserted).
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

    let mut campaign = Campaign::new()
        .localizers(metro_localizers())
        .seeds(&[seed]);
    for s in scenarios {
        campaign = campaign.scenario(s);
    }

    let parallel = campaign.run();
    let serial = campaign.run_with(CampaignConfig::serial());
    assert_eq!(
        parallel.fingerprint(),
        serial.fingerprint(),
        "parallel metro sweep must reproduce the serial report bit-for-bit"
    );

    let speedup = serial.total_wall.as_secs_f64() / parallel.total_wall.as_secs_f64().max(1e-9);
    ExperimentResult::new(
        "METRO",
        "metro-scale sweep (town..1000 nodes), all six families, parallel campaign",
    )
    .with_table(geometry)
    .with_table(parallel.summary_table())
    .with_note(format!(
        "serial {:.2?} vs {} workers {:.2?} => {speedup:.2}x end-to-end; reports bit-identical \
         (fingerprint {:#018x})",
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
        // `smoke metro` CI suite and the figures experiment.
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
