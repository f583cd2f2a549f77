//! Determinism contract: every stochastic component draws through an
//! explicit `rl_math::rng::seeded(..)` generator, so a fixed seed must make
//! the entire campaign → filter → solve pipeline reproduce **bit-identical**
//! position estimates run over run.

use resilient_localization::prelude::*;
use rl_core::lss::{LssConfig, LssSolver};
use rl_ranging::consistency::{merge_bidirectional, ConsistencyConfig};
use rl_ranging::filter::StatFilter;
use rl_ranging::service::{RangingService, ServiceConfig};

/// One full pipeline run (acoustic campaign through constrained LSS) from a
/// single seed, returning the raw estimated coordinates.
fn run_pipeline(seed: u64) -> Vec<(u64, u64)> {
    let mut rng = rl_math::rng::seeded(seed);
    let field = rl_deploy::grid::OffsetGrid::new(4, 4, 9.144, 9.144).generate();

    let service = RangingService::new(Environment::Grass, ServiceConfig::refined(), &mut rng)
        .expect("calibration succeeds on grass");
    let campaign = service.run_campaign(&field.positions, &mut rng);
    let estimates = StatFilter::Median.apply(&campaign);
    let set = merge_bidirectional(&estimates, campaign.n, &ConsistencyConfig::default());

    let config = LssConfig::default().with_min_spacing(9.14, 10.0);
    let solution = LssSolver::new(config)
        .solve(&set, &mut rng)
        .expect("solvable");
    solution
        .coordinates()
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect()
}

/// Two runs with the same seed must agree bit-for-bit, not just to a
/// tolerance: any hidden nondeterminism (hash iteration order, thread
/// scheduling, uncontrolled entropy) would break equality here.
#[test]
fn same_seed_gives_bit_identical_estimates() {
    let first = run_pipeline(42);
    let second = run_pipeline(42);
    assert!(!first.is_empty());
    assert_eq!(first, second, "pipeline is not bit-deterministic");
}

/// Different seeds must actually change the noise realization (otherwise the
/// test above would pass vacuously on a seed-ignoring pipeline).
#[test]
fn different_seeds_give_different_estimates() {
    let a = run_pipeline(42);
    let b = run_pipeline(43);
    assert_ne!(a, b, "seed is being ignored somewhere in the pipeline");
}

/// The parallel-execution clause of the seeding contract (rule 5 in
/// `rl_math::rng`): a campaign's report is **bit-identical** for any
/// worker count, because every grid cell owns a whole RNG stream derived
/// from `(trial seed, localizer index)` — never from scheduling — and
/// records are merged in canonical grid order. Asserted here for
/// `workers ∈ {1, 4}` on a multi-scenario, multi-seed grid, comparing
/// both the report fingerprints and the raw coordinate bits.
#[test]
fn campaign_reports_are_bit_identical_for_1_and_4_workers() {
    let campaign = Campaign::new()
        .scenario(rl_deploy::Scenario::parking_lot(9))
        .scenario(rl_deploy::Scenario::town(9))
        .localizer(Box::new(LssSolver::new(
            LssConfig::default().with_min_spacing(9.14, 10.0),
        )))
        .localizer(Box::new(MdsMapLocalizer::new()))
        .trials(9, 2);

    let coordinate_bits = |report: &CampaignReport| -> Vec<Vec<(u64, u64)>> {
        report
            .runs
            .iter()
            .map(|run| {
                let positions = run
                    .outcome
                    .as_ref()
                    .expect("solvable grid")
                    .solution
                    .positions();
                (0..positions.len())
                    .filter_map(|i| positions.get(NodeId(i)))
                    .map(|p| (p.x.to_bits(), p.y.to_bits()))
                    .collect()
            })
            .collect()
    };

    let one = campaign.run_with(CampaignConfig::default().with_workers(1));
    let four = campaign.run_with(CampaignConfig::default().with_workers(4));
    assert_eq!(one.workers, 1);
    assert_eq!(four.workers, 4, "4 instances keep a 4-worker pool full");
    assert_eq!(
        one.fingerprint(),
        four.fingerprint(),
        "worker count leaked into the campaign report"
    );
    assert_eq!(coordinate_bits(&one), coordinate_bits(&four));

    // Cell chunking is the other scheduling axis; it must not leak either.
    let cells = campaign.run_with(
        CampaignConfig::default()
            .with_workers(4)
            .with_chunking(Chunking::Cell),
    );
    assert_eq!(one.fingerprint(), cells.fingerprint());
}

/// The distributed pipeline's local-solve phase shards across the
/// `rl_net::pool` worker pool; its outcome must be **bit-identical** for
/// any worker count, because every node's solve draws from a stream
/// derived from `(run seed, node id)` — never from a generator shared
/// across nodes — and the pool returns results in node order regardless
/// of scheduling. Asserted for simulator worker counts ∈ {1, 4} on the
/// raw coordinate bits (with the Gauss–Newton/CG refinement stage
/// enabled, which is deterministic by construction).
#[test]
fn distributed_pipeline_bit_identical_for_1_and_4_workers() {
    use rl_core::distributed::{run_distributed, DistributedConfig};

    let field = rl_deploy::grid::OffsetGrid::new(5, 4, 9.144, 9.144).generate();
    let mut rng = rl_math::rng::seeded(31);
    let set = rl_ranging::RangingChannel::paper().measure_all(&field.positions, &mut rng);

    let fingerprint = |workers: usize| -> Vec<Option<(u64, u64)>> {
        let mut rng = rl_math::rng::seeded(77);
        let config = DistributedConfig::default()
            .with_min_spacing(9.14, 10.0)
            .with_workers(workers);
        let out = run_distributed(&set, &field.positions, NodeId(5), &config, &mut rng)
            .expect("protocol runs");
        assert!(out.refine.is_some(), "refinement must have run");
        (0..field.positions.len())
            .map(|i| {
                out.positions
                    .get(NodeId(i))
                    .map(|p| (p.x.to_bits(), p.y.to_bits()))
            })
            .collect()
    };

    let one = fingerprint(1);
    let four = fingerprint(4);
    assert!(one.iter().flatten().count() > 0, "some nodes localized");
    assert_eq!(
        one, four,
        "worker count leaked into the distributed outcome"
    );
}

/// The synthetic-ranging path (no acoustic simulation) obeys the same
/// contract, covering the generator used by the benches and examples.
#[test]
fn synthetic_ranging_is_bit_deterministic() {
    let measure = |seed: u64| {
        let mut rng = rl_math::rng::seeded(seed);
        let field = rl_deploy::grid::OffsetGrid::new(5, 5, 9.144, 9.144).generate();
        let set = rl_ranging::RangingChannel::paper().measure_all(&field.positions, &mut rng);
        set.iter()
            .map(|(a, b, d)| (a.index(), b.index(), d.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(measure(7), measure(7));
    assert_ne!(measure(7), measure(8));
}
