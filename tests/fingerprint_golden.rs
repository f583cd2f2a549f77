//! Golden pins for the `rl_math::fingerprint` extraction.
//!
//! PR 7 moved the FNV-1a machinery behind
//! [`CampaignReport::fingerprint`](rl_bench::campaign::CampaignReport)
//! into the shared `rl_math::fingerprint` module so the serving layer can
//! key its solution cache on the same digests. These pins were generated
//! by the **pre-extraction** code on fixed seeds; the re-pointed
//! implementation must reproduce every one bit for bit, or a cache keyed
//! on the new digests would silently diverge from historical campaign
//! records.
//!
//! Both pins were since re-generated on the single channel path: every
//! scenario is now measured through `RangingChannel` (the paper's recipe
//! as `RangingChannel::paper()`), which draws different noise than the
//! retired standalone recipe did, so every campaign cell moved.
//!
//! Golden values hash solver output driven by the vendored xoshiro256++
//! stream and are not portable to upstream `rand`.

use resilient_localization::prelude::*;

/// Pre-extraction fingerprint of the Figure-5 head-to-head campaign
/// (every solver family, seed 2005) — the canonical campaign the
/// comparison figures are built from. Re-generated when paper-scale
/// MDS-MAP moved onto the iterative eigensolve, again when that
/// eigensolve became one restarted block Krylov loop, and again when
/// multilateration's fixes (its own cells and DV-hop's) moved from
/// gradient descent to Gauss–Newton, and again when anchored LSS (the
/// `lss+constraint` cell) moved from a spring descent to the hard-pinned
/// Gauss–Newton polish.
const GOLDEN_FIGURE5_2005: u64 = 0xa67a_c040_0ec6_494d;

/// Pre-extraction fingerprint of a two-scenario mixed grid (parking lot +
/// town, two seeds) covering anchored and anchor-free cells plus a
/// solver failure path (centroid on the anchor-free grass grid).
/// Re-generated when anchored LSS moved from a spring descent to the
/// hard-pinned Gauss–Newton polish (its parking-lot cells are anchored).
const GOLDEN_MIXED_GRID: u64 = 0x666f_c7a5_f817_1119;

fn mixed_grid() -> Campaign {
    Campaign::new()
        .scenario(rl_deploy::Scenario::parking_lot(7))
        .scenario(rl_deploy::Scenario::grass_grid())
        .localizer(Box::new(LssSolver::new(LssConfig::default())))
        .localizer(Box::new(CentroidLocalizer::new(22.0)))
        .seeds(&[1, 2])
}

#[test]
fn figure5_campaign_fingerprint_is_unchanged() {
    let report = rl_bench::campaign::figure5_head_to_head(2005).run();
    assert_eq!(
        report.fingerprint(),
        GOLDEN_FIGURE5_2005,
        "campaign fingerprint changed: got {:#018x}",
        report.fingerprint()
    );
}

#[test]
fn mixed_grid_fingerprint_is_unchanged() {
    let report = mixed_grid().run();
    assert_eq!(
        report.fingerprint(),
        GOLDEN_MIXED_GRID,
        "campaign fingerprint changed: got {:#018x}",
        report.fingerprint()
    );
}
