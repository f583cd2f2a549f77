//! The campaign-driven suites: parallel determinism, the six-family
//! metro panel, and the degradation ladder.

use rl_bench::campaign::{Campaign, CampaignConfig, CampaignReport};
use rl_bench::experiments::degradation::{contaminated_channel, degraded, regimes};
use rl_bench::experiments::metro::metro_localizers;
use rl_bench::gate::Suite;
use rl_bench::MASTER_SEED;
use rl_core::baselines::{dv_hop, CentroidLocalizer, DvHopLocalizer};
use rl_core::lss::{LssConfig, LssSolver};
use rl_core::multilateration::{MultilaterationConfig, MultilaterationSolver};
use rl_core::problem::{Localizer, Problem};
use rl_core::types::Anchor;
use rl_core::RobustLoss;
use rl_deploy::Scenario;
use rl_net::RadioModel;

/// Mean-error ceiling shared by distributed LSS at metro-1000 (the
/// refined pipeline lands ~0.13 m; unrefined stitching drifted to
/// ~15 m) and metro-2500 (~0.12 m), and Cauchy-loss LSS on the
/// contaminated town rung.
pub(crate) const ERROR_BUDGET_M: f64 = 2.0;

/// The metro-1000 wall-ratio gates divide by the MDS-MAP cell on the
/// same rung, which runs neither the LSS descent nor the simulator. The
/// ratios depend on the core count: MDS-MAP's completion and eigensolve
/// products run on the worker pool, as do centralized LSS's MDS-MAP seed
/// and DV-hop's multilateration, while the LSS descent, distributed
/// LSS's exchange and DV-hop's breadth-first hop counts run on one
/// thread. The more cores, the smaller the denominator, and the more a
/// numerator's serial work weighs in its ratio. Each budget is about 1.5x the highest ratio read
/// over two sets of 12 runs on a 2-core box.
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

/// DV-hop's multilateration at metro-1000 must take at most this many
/// fused passes over the hop-distance ranges; it read 57,543, about
/// 10.7 per start (the count is deterministic, so any rise is a change of the fix).
const DVHOP_PASSES: f64 = 72_000.0;

/// The metro-1000 scenario name the distributed gates key on.
const METRO_1000: &str = "metro-1000-100anchors";

/// Counts (and prints) the cells whose solve returned an error.
fn failed_cells(report: &CampaignReport) -> f64 {
    let mut failed = 0;
    for run in &report.runs {
        if let Err(e) = &run.outcome {
            eprintln!("solver failure: {} on {}: {e}", run.localizer, run.scenario);
            failed += 1;
        }
    }
    f64::from(failed)
}

/// A multi-cell grid run three ways — serial, auto-sized pool, 4 workers
/// — must give bit-identical reports (the determinism contract in
/// `rl_bench::campaign`). The serial-vs-parallel speedup is printed, not
/// gated: only a multi-core runner can show it.
pub fn campaign(suite: &mut Suite) {
    let campaign = Campaign::new()
        .scenario(Scenario::town(MASTER_SEED))
        .scenario(Scenario::metro_sized(250, 0.10, MASTER_SEED))
        .localizer(Box::new(MultilaterationSolver::new(
            MultilaterationConfig::paper().progressive(),
        )))
        .localizer(Box::new(DvHopLocalizer::new(RadioModel::ideal(22.0))))
        .localizer(Box::new(CentroidLocalizer::new(22.0)))
        .trials(MASTER_SEED, 2);
    let schedules = [
        ("serial", CampaignConfig::serial()),
        ("auto", CampaignConfig::default()),
        ("workers4", CampaignConfig::default().with_workers(4)),
    ];
    let reports: Vec<_> = schedules
        .into_iter()
        .map(|(label, config)| {
            let report = campaign.run_with(config);
            println!(
                "{label:14} workers={} cells={} wall={:.1?} fingerprint={:#018x}",
                report.workers,
                report.runs.len(),
                report.total_wall,
                report.fingerprint(),
            );
            (label, report)
        })
        .collect();
    let reference = &reports[0].1;
    suite.check(
        "schedules-bit-identical",
        reports.iter().all(|(_, r)| {
            r.fingerprint() == reference.fingerprint() && r.runs.len() == reference.runs.len()
        }),
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serial = reports.iter().find(|(_, r)| r.workers == 1);
    let parallel = reports
        .iter()
        .filter(|(_, r)| r.workers > 1)
        .min_by_key(|(_, r)| r.total_wall);
    match (serial, parallel) {
        (Some((_, serial)), Some((label, parallel))) => println!(
            "serial-vs-parallel speedup: {:.2}x ({:.1?} serial vs {:.1?} `{label}` with {} \
             workers on a {cores}-core runner)",
            serial.total_wall.as_secs_f64() / parallel.total_wall.as_secs_f64().max(1e-9),
            serial.total_wall,
            parallel.total_wall,
            parallel.workers,
        ),
        _ => println!("serial-vs-parallel speedup: n/a (every schedule collapsed to one worker)"),
    }
}

/// Every solver family on the metro-250 and metro-1000 rungs. Cells run
/// serially so the wall ratios against MDS-MAP compare cells that do
/// not contend for cores; distributed LSS still shards its local solves
/// on its own pool inside its cell.
pub fn metro(suite: &mut Suite) {
    let report = Campaign::new()
        .scenario(Scenario::metro_sized(250, 0.10, MASTER_SEED))
        .scenario(Scenario::metro_sized(1000, 0.10, MASTER_SEED))
        .localizers(metro_localizers())
        .seeds(&[MASTER_SEED])
        .run_with(CampaignConfig::serial());
    println!("{}", report.summary_table());

    suite.at_most("failed-cells", failed_cells(&report), 0.0);
    suite.at_most(
        "distributed-error-m",
        report
            .mean_error(METRO_1000, "distributed-lss")
            .unwrap_or(f64::NAN),
        ERROR_BUDGET_M,
    );
    let wall_of = |localizer: &str| {
        report
            .wall_stats(METRO_1000, localizer)
            .map_or(f64::NAN, |(mean, _)| mean.as_secs_f64())
    };
    let mds = wall_of("mds-map").max(1e-9);
    suite.at_most(
        "lss-vs-mds-wall-ratio",
        wall_of("lss-anchor-free+constraint") / mds,
        LSS_WALL_FACTOR,
    );
    suite.at_most(
        "distributed-vs-mds-wall-ratio",
        wall_of("distributed-lss") / mds,
        DIST_WALL_FACTOR,
    );
    suite.at_most(
        "dvhop-vs-mds-wall-ratio",
        wall_of("dv-hop") / mds,
        DVHOP_WALL_FACTOR,
    );

    let metro = Scenario::metro_sized(1000, 0.10, MASTER_SEED);
    let truth = &metro.deployment.positions;
    let passes = dv_hop(
        truth,
        &Anchor::from_truth(&metro.anchors, truth),
        &RadioModel::ideal(22.0),
        &mut rl_math::rng::seeded(MASTER_SEED),
    )
    .map_or(f64::NAN, |out| out.passes as f64);
    suite.at_most("dvhop-multilateration-passes", passes, DVHOP_PASSES);
}

/// Centralized LSS on `problem` with the given loss, evaluated against
/// ground truth.
fn lss_error(problem: &Problem, loss: RobustLoss) -> Option<f64> {
    let solver = LssSolver::new(LssConfig::metro().with_robust_loss(loss));
    let mut rng = rl_math::rng::seeded(MASTER_SEED);
    let solution = solver.localize(problem, &mut rng).ok()?;
    problem.evaluate(&solution).ok().map(|e| e.mean_error)
}

/// The degradation ladder — every family across the error-regime rungs
/// at town and metro-250 scale — must be bit-identical pooled and
/// serial, and on the contaminated town rung Cauchy-loss LSS must hold
/// while squared-loss LSS collapses (or the rung has gone soft and the
/// A/B proves nothing).
pub fn resilience(suite: &mut Suite) {
    let bases = [
        Scenario::town(MASTER_SEED),
        Scenario::metro_sized(250, 0.10, MASTER_SEED),
    ];
    let mut campaign = Campaign::new()
        .localizers(metro_localizers())
        .seeds(&[MASTER_SEED]);
    for base in &bases {
        for (rung, channel) in regimes() {
            campaign = campaign.scenario(degraded(base, rung, &channel));
        }
    }
    let parallel = campaign.run();
    let serial = campaign.run_with(CampaignConfig::serial());
    println!("{}", parallel.summary_table());

    suite.check(
        "pooled-equals-serial",
        parallel.fingerprint() == serial.fingerprint(),
    );
    suite.at_most("failed-cells", failed_cells(&parallel), 0.0);

    let problem =
        degraded(&bases[0], "contaminated-10", &contaminated_channel()).instantiate(MASTER_SEED);
    let cauchy = lss_error(&problem, RobustLoss::Cauchy { scale_m: 1.0 });
    suite.at_most("cauchy-error-m", cauchy.unwrap_or(f64::NAN), ERROR_BUDGET_M);
    // A structured error under contamination is a legitimate collapse.
    let squared = lss_error(&problem, RobustLoss::SquaredL2);
    suite.gate(
        "squared-collapse-error-m",
        squared.unwrap_or(f64::NAN),
        ERROR_BUDGET_M,
        squared.is_none_or(|e| e > ERROR_BUDGET_M),
    );
}
