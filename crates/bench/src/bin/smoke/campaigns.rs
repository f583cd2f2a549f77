//! The campaign suite: parallel determinism of the campaign runner.

use rl_bench::campaign::{Campaign, CampaignConfig};
use rl_bench::gate::Suite;
use rl_bench::MASTER_SEED;
use rl_core::baselines::{CentroidLocalizer, DvHopLocalizer};
use rl_core::multilateration::{MultilaterationConfig, MultilaterationSolver};
use rl_deploy::Scenario;
use rl_net::RadioModel;

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
