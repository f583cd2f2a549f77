//! Deterministic random sampling helpers.
//!
//! Every stochastic component of the workspace — the acoustic channel, the
//! measurement error model, the LSS restart perturbations — draws through an
//! explicit `&mut impl Rng` so experiments are reproducible from a single
//! seed. The `rand` crate provides uniform sampling only; Gaussian deviates
//! (the paper's `N(0, 0.33 m)` synthetic ranging noise) come from the
//! Box–Muller implementation here.
//!
//! # Seeding contract
//!
//! The workspace-wide reproducibility guarantee, relied on by the
//! `tests/determinism.rs` suite at the repository root:
//!
//! 1. **One seed, one stream.** An experiment creates exactly one generator
//!    via [`seeded`] and threads `&mut` borrows of it through every
//!    stochastic call, in a fixed order. No component may create its own
//!    generator from ambient entropy, and nothing in the workspace reads
//!    OS randomness, time, or thread identity.
//! 2. **Bit-identical replay.** Two runs of the same code with the same
//!    seed must produce *bit-identical* floating-point results — not merely
//!    results within a tolerance. Iteration over unordered containers
//!    (e.g. `HashMap`) must therefore never feed the RNG or accumulate
//!    floats in iteration order; ordered containers (`BTreeMap`, `Vec`)
//!    are used wherever order can reach an observable result.
//! 3. **Seeds are part of an experiment's identity.** Scenario builders
//!    accept and record the seed they were given (see `rl_deploy::Scenario`),
//!    so a published figure can name the exact stream that produced it.
//! 4. **Different seeds, different noise.** Seeding is injective in
//!    practice: distinct seeds yield uncorrelated streams (SplitMix64
//!    expansion into xoshiro256++ state), so sweeps over `seed in 0..n`
//!    give independent replicates.
//! 5. **Parallelism never touches a stream.** Work may be sharded across
//!    threads only at boundaries where each shard owns a *whole* stream —
//!    a generator created by [`seeded`] from a seed that is a pure
//!    function of the shard's identity (e.g. `(trial seed, localizer
//!    index)` in `rl_bench::campaign`), never of scheduling, thread ids,
//!    or completion order. A single stream must not be drawn from by two
//!    threads, and shard results must be merged in a canonical order
//!    (grid order, node id order) rather than completion order before
//!    they feed anything observable. Under these rules the same seed
//!    produces a bit-identical report for *any* worker count — asserted
//!    for `workers ∈ {1, 4}` by `tests/determinism.rs` at the repository
//!    root and by the `smoke campaign` release suite in CI.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates the workspace-standard deterministic RNG from a `u64` seed.
///
/// # Example
///
/// ```
/// use rand::Rng;
///
/// let mut a = rl_math::rng::seeded(42);
/// let mut b = rl_math::rng::seeded(42);
/// assert_eq!(a.random::<u64>(), b.random::<u64>());
/// ```
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Draws one standard-normal deviate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Rejection-free polar-less form: u1 in (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

/// Draws one `N(mean, std_dev^2)` deviate.
///
/// # Panics
///
/// Panics (debug assertion) if `std_dev` is negative.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    debug_assert!(std_dev >= 0.0, "negative standard deviation");
    mean + std_dev * standard_normal(rng)
}

/// A reusable Gaussian sampler caching the second Box–Muller deviate.
///
/// Useful in hot loops such as waveform synthesis where millions of noise
/// samples are drawn.
#[derive(Debug, Clone, Default)]
pub struct GaussianSampler {
    spare: Option<f64>,
}

impl GaussianSampler {
    /// Creates a sampler with no cached deviate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws one standard-normal deviate, consuming the cached spare if any.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        let u1: f64 = 1.0 - rng.random::<f64>();
        let u2: f64 = rng.random::<f64>();
        let r = (-2.0 * u1.ln()).sqrt();
        let (s, c) = (core::f64::consts::TAU * u2).sin_cos();
        self.spare = Some(r * s);
        r * c
    }

    /// Draws one `N(mean, std_dev^2)` deviate.
    pub fn sample_with<R: Rng + ?Sized>(&mut self, rng: &mut R, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.sample(rng)
    }
}

/// Samples an index in `0..weights.len()` proportionally to `weights`.
///
/// Zero-weight entries are never selected. Returns `None` if the slice is
/// empty or all weights are non-positive.
pub fn weighted_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> Option<usize> {
    let total: f64 = weights.iter().filter(|w| **w > 0.0).sum();
    if !(total > 0.0) {
        return None;
    }
    let mut target = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        if target < w {
            return Some(i);
        }
        target -= w;
    }
    // Floating-point slack: return the last positive-weight index.
    weights.iter().rposition(|&w| w > 0.0)
}

/// Fisher–Yates shuffles indices `0..n` and returns the first `k`.
///
/// Used for random anchor selection ("we randomly chose 13 nodes as anchors
/// from a total of 46"). `k` is clamped to `n`.
pub fn sample_indices<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = rng.random_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(7);
        let mut b = seeded(7);
        let va: Vec<u32> = (0..8).map(|_| a.random()).collect();
        let vb: Vec<u32> = (0..8).map(|_| b.random()).collect();
        assert_eq!(va, vb);
        let mut c = seeded(8);
        let vc: Vec<u32> = (0..8).map(|_| c.random()).collect();
        assert_ne!(va, vc);
    }

    #[test]
    fn normal_moments_are_right() {
        let mut rng = seeded(1);
        let xs: Vec<f64> = (0..20_000).map(|_| normal(&mut rng, 3.0, 0.33)).collect();
        let m = stats::mean(&xs).unwrap();
        let sd = stats::std_dev(&xs).unwrap();
        assert!((m - 3.0).abs() < 0.01, "mean {m}");
        assert!((sd - 0.33).abs() < 0.01, "sd {sd}");
    }

    #[test]
    fn gaussian_sampler_matches_moments_and_uses_spare() {
        let mut rng = seeded(2);
        let mut g = GaussianSampler::new();
        let xs: Vec<f64> = (0..20_001).map(|_| g.sample(&mut rng)).collect();
        let m = stats::mean(&xs).unwrap();
        let sd = stats::std_dev(&xs).unwrap();
        assert!(m.abs() < 0.02, "mean {m}");
        assert!((sd - 1.0).abs() < 0.02, "sd {sd}");
        let y = g.sample_with(&mut rng, 10.0, 2.0);
        assert!(y.is_finite());
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = seeded(3);
        let weights = [0.0, 1.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..4000 {
            counts[weighted_index(&mut rng, &weights).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_degenerate_cases() {
        let mut rng = seeded(4);
        assert_eq!(weighted_index(&mut rng, &[]), None);
        assert_eq!(weighted_index(&mut rng, &[0.0, -1.0]), None);
        assert_eq!(weighted_index(&mut rng, &[0.0, 2.0]), Some(1));
    }

    #[test]
    fn sample_indices_are_unique_and_in_range() {
        let mut rng = seeded(5);
        let picked = sample_indices(&mut rng, 46, 13);
        assert_eq!(picked.len(), 13);
        let set: std::collections::BTreeSet<usize> = picked.iter().cloned().collect();
        assert_eq!(set.len(), 13);
        assert!(picked.iter().all(|&i| i < 46));
        // k > n clamps.
        assert_eq!(sample_indices(&mut rng, 3, 10).len(), 3);
        assert!(sample_indices(&mut rng, 0, 5).is_empty());
    }

    #[test]
    fn sample_indices_covers_everything_eventually() {
        let mut rng = seeded(6);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            seen.extend(sample_indices(&mut rng, 10, 3));
        }
        assert_eq!(seen.len(), 10);
    }
}
