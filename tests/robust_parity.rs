//! Bitwise parity pins for the robust-loss refactor.
//!
//! `RobustLoss` promoted two formerly hard-coded kernels — the LSS
//! robust-reweight loop's Cauchy factor and the refinement stage's
//! `robust_scale_m` weighting — into one shared type. These tests prove
//! the promotion changed **no existing numbers**: every golden value
//! below was generated by the pre-refactor code on the same fixed seeds,
//! and the post-refactor configurations must reproduce it bit for bit.
//!
//! Two families of pins:
//!
//! * the historical defaults (plain LSS, Cauchy reweighting, the metro
//!   configs) still hash to their pre-refactor fingerprints, and
//! * `RobustLoss::SquaredL2` is bitwise-identical to the pre-refactor
//!   "robustness off" paths (`robust: None` in LSS,
//!   `robust_scale_m: None` in refinement) — including the RNG stream,
//!   which a naive "reweight by 1.0 and re-solve anyway" implementation
//!   would perturb.
//!
//! One more pin covers the distributed pipeline under
//! `TransformGuards::permissive()`, where receivers filter neighbour maps
//! by the looser three-shared-node guard. Four more hold the metro-250
//! registry solvers whose per-node loops run on the worker pool at that
//! size (MDS-MAP, DV-hop and both multilateration modes), captured from
//! the serial loops.
//!
//! Golden values are fingerprints of the vendored xoshiro256++ stream's
//! output and are not portable to upstream `rand`.

use resilient_localization::prelude::*;
use rl_core::distributed::{DistributedConfig, DistributedSolver};
use rl_core::lss::{LssConfig, LssSolver, RobustReweight};
use rl_ranging::measurement::MeasurementSet;

/// FNV-1a over little-endian coordinate bit patterns: cheap, stable, and
/// sensitive to any single-bit change in any position.
fn fnv1a(bits: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bits {
        for byte in b.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn position_fingerprint(map: &PositionMap) -> u64 {
    fnv1a((0..map.len()).flat_map(|i| {
        let p = map.get(NodeId(i));
        [
            p.map_or(u64::MAX, |p| p.x.to_bits()),
            p.map_or(u64::MAX, |p| p.y.to_bits()),
        ]
    }))
}

/// Pre-refactor fingerprints, captured from the code as of the commit
/// preceding the `RobustLoss` promotion. The town and metro-250 pins
/// were re-generated when scenarios moved onto the single
/// `RangingChannel` measurement path (different noise draws, same
/// solver code); the two refinement pins run on a fixed oracle set and
/// did not move. `GOLDEN_REFINE_PLAIN` and `GOLDEN_METRO250_DIST` were
/// re-generated when every refinement CG solve began warm-starting from
/// the previous accepted step, the latter also when distributed local
/// maps began seeding through the iterative MDS-MAP eigensolve.
/// `GOLDEN_METRO250_LSS` and `GOLDEN_METRO250_DIST` were re-generated
/// when that eigensolve became one restarted block Krylov loop, which
/// moved their MDS-MAP seeds.
const GOLDEN_TOWN_PLAIN: u64 = 0x8ce6d6dee54f7622;
const GOLDEN_TOWN_CAUCHY: u64 = 0xd9d198c6fdfa5fd0;
const GOLDEN_REFINE_PLAIN: u64 = 0x64cd7d69269a19b4;
const GOLDEN_REFINE_CAUCHY: u64 = 0x2c2c86a17396012c;
const GOLDEN_METRO250_LSS: u64 = 0xa11f69b3cd4b2743;
const GOLDEN_METRO250_DIST: u64 = 0xed5e0c4e88bef223;
/// Metro-250 registry solvers whose per-node loops shard on the worker
/// pool at this size (`n >= rl_core::problem::SPARSE_SCALE`), captured
/// from the serial loops before they were pooled. `GOLDEN_METRO250_MDSMAP`
/// was re-generated when the eigensolve became one restarted block
/// Krylov loop; the DV-hop and both multilateration pins when each fix
/// moved from gradient descent to Gauss–Newton.
const GOLDEN_METRO250_MDSMAP: u64 = 0xbc4108abeea8f2f1;
const GOLDEN_METRO250_DVHOP: u64 = 0x98d8133fc3dd0111;
const GOLDEN_METRO250_MULTILAT: u64 = 0x4f25df2935245a2e;
const GOLDEN_METRO250_MULTILAT_PROGRESSIVE: u64 = 0x404ecb7000b0151d;
/// Town distributed LSS under the paper's unguarded transforms, captured
/// before receivers began discarding maps too small to align, and
/// re-generated when local maps began seeding through the iterative
/// MDS-MAP eigensolve.
const GOLDEN_TOWN_DIST_PERMISSIVE: u64 = 0x926de1565a192beb;

fn town_lss(robust: Option<RobustReweight>) -> u64 {
    let problem = rl_deploy::Scenario::town(7).instantiate(7);
    let mut config = LssConfig::default().with_min_spacing(9.14, 10.0);
    config.robust = robust;
    let mut rng = rl_math::rng::seeded(101);
    let sol = LssSolver::new(config)
        .solve(problem.measurements(), &mut rng)
        .expect("town solvable");
    position_fingerprint(&sol.positions())
}

fn refine_direct(loss: RobustLoss) -> u64 {
    use rl_core::distributed::refine::{refine_aligned, RefineConfig};
    let truth: Vec<Point2> = (0..15)
        .map(|i| Point2::new((i % 5) as f64 * 9.0, (i / 5) as f64 * 9.0))
        .collect();
    let mut set = MeasurementSet::oracle(&truth, 15.0);
    set.insert(NodeId(0), NodeId(1), 0.5); // gross outlier, true 9 m
    let mut positions = PositionMap::unlocalized(truth.len());
    for (i, p) in truth.iter().enumerate() {
        let t = p.x / 40.0;
        positions.set(NodeId(i), Point2::new(p.x + 4.0 * t * t, p.y + 2.0 * t * t));
    }
    let config = RefineConfig {
        loss,
        ..RefineConfig::default()
    };
    refine_aligned(&set, &mut positions, &config).expect("refines");
    position_fingerprint(&positions)
}

/// Plain (no-robust) town LSS still matches the pre-refactor bits, and
/// `SquaredL2` robustness is indistinguishable from it: the quadratic
/// loss must skip the reweight re-solves outright, because even a no-op
/// re-solve would consume RNG draws and shift every later number.
#[test]
fn squared_l2_is_bitwise_identical_to_plain_lss_on_town() {
    assert_eq!(town_lss(None), GOLDEN_TOWN_PLAIN, "robust: None drifted");
    assert_eq!(
        town_lss(Some(RobustReweight::with_loss(RobustLoss::SquaredL2))),
        GOLDEN_TOWN_PLAIN,
        "SquaredL2 is not bitwise-identical to the pre-refactor plain path"
    );
}

/// The default Cauchy reweighting reproduces its pre-refactor bits: the
/// shared kernel evaluates the exact same floating-point expression the
/// LSS loop used to inline.
#[test]
fn default_cauchy_reweighting_matches_prerefactor_bits_on_town() {
    assert_eq!(
        town_lss(Some(RobustReweight::default())),
        GOLDEN_TOWN_CAUCHY,
        "the promoted Cauchy kernel changed the LSS robust path"
    );
}

/// The refinement stage: `SquaredL2` reproduces the pre-refactor
/// `robust_scale_m: None` bits, the default Cauchy loss reproduces
/// `Some(2.0)`.
#[test]
fn refinement_losses_match_prerefactor_bits() {
    assert_eq!(
        refine_direct(RobustLoss::SquaredL2),
        GOLDEN_REFINE_PLAIN,
        "SquaredL2 refinement drifted from robust_scale_m: None"
    );
    assert_eq!(
        refine_direct(RobustLoss::Cauchy { scale_m: 2.0 }),
        GOLDEN_REFINE_CAUCHY,
        "Cauchy refinement drifted from robust_scale_m: Some(2.0)"
    );
}

/// Metro-250 centralized LSS (`LssConfig::metro()`, Verlet-list soft
/// constraint, MDS-MAP init) is untouched by the refactor.
#[test]
fn metro250_lss_matches_prerefactor_bits() {
    let problem = rl_deploy::Scenario::metro_sized(250, 0.10, 5).instantiate(5);
    let mut rng = rl_math::rng::seeded(202);
    let sol = LssSolver::new(LssConfig::metro())
        .localize(&problem, &mut rng)
        .expect("metro-250 solvable");
    assert_eq!(
        position_fingerprint(sol.positions()),
        GOLDEN_METRO250_LSS,
        "metro-250 centralized LSS drifted"
    );
}

/// Metro-250 MDS-MAP (geodesic completion and the eigensolve's operator
/// products), DV-hop and both multilateration modes run their per-node
/// loops on the worker pool; the bits must match the serial loops.
#[test]
fn metro250_pooled_families_match_serial_bits() {
    let problem = rl_deploy::Scenario::metro_sized(250, 0.10, 5).instantiate(5);
    for (name, golden) in [
        ("mds-map", GOLDEN_METRO250_MDSMAP),
        ("dv-hop", GOLDEN_METRO250_DVHOP),
        ("multilateration", GOLDEN_METRO250_MULTILAT),
        (
            "multilateration-progressive",
            GOLDEN_METRO250_MULTILAT_PROGRESSIVE,
        ),
    ] {
        let mut rng = rl_math::rng::seeded(202);
        let sol = rl_serve::server::make_solver(name)
            .expect("registry solver")
            .localize(&problem, &mut rng)
            .expect("metro-250 solvable");
        assert_eq!(
            position_fingerprint(sol.positions()),
            golden,
            "metro-250 {name} drifted"
        );
    }
}

/// Metro-250 distributed LSS — local solves, alignment flood, and the
/// Cauchy-reweighted refinement stage end to end — is untouched by the
/// refactor.
#[test]
fn metro250_distributed_matches_prerefactor_bits() {
    let problem = rl_deploy::Scenario::metro_sized(250, 0.10, 5).instantiate(5);
    let mut rng = rl_math::rng::seeded(303);
    let sol = DistributedSolver::new(DistributedConfig::metro())
        .localize(&problem, &mut rng)
        .expect("metro-250 distributed solvable");
    assert_eq!(
        position_fingerprint(sol.positions()),
        GOLDEN_METRO250_DIST,
        "metro-250 distributed pipeline drifted"
    );
}

/// Town distributed LSS under [`TransformGuards::permissive`]: receivers
/// keep only the neighbour maps that can align, and with three shared
/// nodes enough under the paper's guards, that filter must not change
/// which transforms the alignment flood finds.
#[test]
fn town_distributed_permissive_guards_match_prefilter_bits() {
    use rl_core::distributed::{run_distributed, TransformGuards};
    let mut rng = rl_math::rng::seeded(1003);
    let scenario = rl_deploy::Scenario::town(1003);
    let truth = &scenario.deployment.positions;
    let set = rl_ranging::RangingChannel::paper().measure_all(truth, &mut rng);
    let config = DistributedConfig {
        guards: TransformGuards::permissive(),
        ..DistributedConfig::default().with_min_spacing(9.0, 10.0)
    };
    let out = run_distributed(&set, truth, NodeId(0), &config, &mut rng).expect("protocol runs");
    assert_eq!(
        position_fingerprint(&out.positions),
        GOLDEN_TOWN_DIST_PERMISSIVE,
        "permissive-guard distributed pipeline drifted"
    );
}
