//! Scenario-driven campaign execution: a (scenarios × localizers × seeds)
//! grid run through the unified [`Localizer`] trait, sharded across a
//! worker-thread pool.
//!
//! The paper's experimental object is never a single solve — it is the
//! *comparison matrix*: every algorithm family on the same deployments,
//! summarized as a head-to-head table. A [`Campaign`] encodes that matrix
//! once: problem sources on one axis (named [`Scenario`]s instantiated per
//! seed, or fixed pre-measured [`Problem`]s), boxed localizers on the
//! second, seeds on the third. [`Campaign::run`] executes every cell and
//! returns a [`CampaignReport`] with per-run records (including per-cell
//! wall time) and per-cell [`Evaluation`] summaries.
//!
//! # Parallel execution and the determinism contract
//!
//! Grid cells are independent by construction — each `(source, seed,
//! localizer)` cell instantiates its problem from `(source, seed)` alone
//! and derives a private RNG stream from `(seed, localizer index)` — so
//! [`Campaign::run`] shards them across the [`rl_net::pool`] workers, one
//! `(source, seed)` instance per work unit ([`CampaignConfig`] sets the
//! pool size). The contract, asserted by `tests/determinism.rs` at the
//! repository root and by the `smoke campaign` release suite:
//!
//! **Same campaign, same seeds ⇒ a bit-identical [`CampaignReport`],
//! regardless of worker count.** Records land in canonical
//! grid order (source-major, then seed, then localizer) no matter which
//! worker ran them or when it finished, and no cell's randomness depends
//! on scheduling. Only the wall-clock fields ([`RunRecord::wall_time`],
//! [`CampaignReport::total_wall`]) and [`CampaignReport::workers`] vary
//! between runs; [`CampaignReport::fingerprint`] hashes everything *but*
//! those, so two runs agree iff their fingerprints do.
//!
//! ```
//! use rl_bench::campaign::{Campaign, CampaignConfig};
//! use rl_core::lss::{LssConfig, LssSolver};
//! use rl_core::mds::MdsMapLocalizer;
//! use rl_deploy::Scenario;
//!
//! let campaign = Campaign::new()
//!     .scenario(Scenario::parking_lot(7))
//!     .localizer(Box::new(LssSolver::new(LssConfig::default())))
//!     .localizer(Box::new(MdsMapLocalizer::new()))
//!     .trials(1, 2);
//! let report = campaign.run(); // worker pool sized to the machine
//! assert_eq!(report.runs.len(), 4);
//!
//! // Any explicit worker count reproduces the same report bit-for-bit.
//! let serial = campaign.run_with(CampaignConfig::serial());
//! assert_eq!(serial.fingerprint(), report.fingerprint());
//! println!("{}", report.summary_table());
//! ```

use std::time::{Duration, Instant};

use rl_core::eval::Evaluation;
use rl_core::problem::{Localizer, Problem, Solution};
use rl_core::{LocalizationError, LssConfig, LssSolver, MultilaterationConfig};
use rl_deploy::Scenario;
use rl_net::pool::{par_map_indexed, resolve_workers};

use crate::report::m;
use crate::Table;

/// Where a campaign cell's problems come from.
enum ProblemSource {
    /// A named scenario, instantiated freshly for every seed (new
    /// synthetic measurements per trial).
    Scenario(Scenario),
    /// A fixed, pre-measured problem shared by every trial (seeds then
    /// vary only the solvers' randomness) — e.g. field measurements from
    /// the acoustic ranging service.
    Fixed(Problem),
}

impl ProblemSource {
    fn name(&self) -> &str {
        match self {
            ProblemSource::Scenario(s) => &s.name,
            ProblemSource::Fixed(p) => p.name(),
        }
    }

    fn instantiate(&self, seed: u64) -> Problem {
        match self {
            ProblemSource::Scenario(s) => s.instantiate(seed),
            ProblemSource::Fixed(p) => p.clone(),
        }
    }
}

/// Execution knobs for [`Campaign::run_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CampaignConfig {
    /// Worker threads. `0` (the default) resolves to the machine's
    /// available parallelism; the pool is never larger than the number of
    /// work units.
    pub workers: usize,
}

impl CampaignConfig {
    /// Single-threaded execution (one worker) — the reference schedule
    /// every parallel run must reproduce bit-for-bit.
    pub fn serial() -> Self {
        CampaignConfig { workers: 1 }
    }

    /// Sets the worker count (builder style). `0` means "ask the OS".
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
}

/// A (scenarios × localizers × seeds) execution grid.
///
/// Built with the chained methods below; [`Campaign::run`] executes the
/// full grid across a worker pool ([`Campaign::config`] tunes it,
/// [`Campaign::run_with`] overrides it per call). Runs are deterministic:
/// each `(source, seed, localizer)` cell derives its own RNG stream, so
/// re-running a campaign — serially or on any number of threads —
/// reproduces it bit-for-bit (wall-clock timings aside; see the module
/// docs for the exact contract).
#[derive(Default)]
pub struct Campaign {
    sources: Vec<ProblemSource>,
    localizers: Vec<Box<dyn Localizer>>,
    seeds: Vec<u64>,
    config: CampaignConfig,
}

impl Campaign {
    /// An empty campaign.
    pub fn new() -> Self {
        Campaign::default()
    }

    /// Adds a scenario, instantiated freshly for every seed.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.sources.push(ProblemSource::Scenario(scenario));
        self
    }

    /// Adds a fixed, pre-measured problem shared by every seed.
    pub fn problem(mut self, problem: Problem) -> Self {
        self.sources.push(ProblemSource::Fixed(problem));
        self
    }

    /// Adds a localizer to the comparison.
    pub fn localizer(mut self, localizer: Box<dyn Localizer>) -> Self {
        self.localizers.push(localizer);
        self
    }

    /// Adds several localizers at once.
    pub fn localizers(mut self, localizers: Vec<Box<dyn Localizer>>) -> Self {
        self.localizers.extend(localizers);
        self
    }

    /// Replaces the seed list.
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Derives `n` distinct trial seeds from a base seed.
    pub fn trials(mut self, base_seed: u64, n: usize) -> Self {
        self.seeds = (0..n as u64)
            .map(|i| base_seed ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | i))
            .collect();
        self
    }

    /// Sets the execution configuration [`Campaign::run`] uses.
    pub fn config(mut self, config: CampaignConfig) -> Self {
        self.config = config;
        self
    }

    /// Executes the grid with the campaign's configured
    /// [`CampaignConfig`] (machine-sized worker pool by default).
    pub fn run(&self) -> CampaignReport {
        self.run_with(self.config)
    }

    /// Executes the grid with an explicit execution configuration.
    ///
    /// Every `(source, seed, localizer)` cell runs exactly once; records
    /// land in canonical grid order (source-major, then seed, then
    /// localizer) regardless of which worker ran them. With no seeds
    /// configured, a single seed `0` is used.
    pub fn run_with(&self, config: CampaignConfig) -> CampaignReport {
        let seeds: &[u64] = if self.seeds.is_empty() {
            &[0]
        } else {
            &self.seeds
        };
        let units = self.sources.len() * seeds.len();
        let workers = resolve_workers(config.workers, units);
        let started = Instant::now();
        // The pool returns units in index order, and units cover the grid
        // in canonical order, so the report is schedule-independent.
        let runs = par_map_indexed(units, workers, |unit| self.execute_unit(unit, seeds))
            .into_iter()
            .flatten()
            .collect();
        CampaignReport {
            runs,
            workers,
            total_wall: started.elapsed(),
        }
    }

    /// Executes one work unit — one problem instance, instantiated once
    /// and handed to every localizer — returning its records in canonical
    /// cell order.
    fn execute_unit(&self, unit: usize, seeds: &[u64]) -> Vec<RunRecord> {
        let source = &self.sources[unit / seeds.len()];
        let seed = seeds[unit % seeds.len()];
        let problem = source.instantiate(seed);
        (0..self.localizers.len())
            .map(|li| self.run_cell(&problem, source.name(), seed, li))
            .collect()
    }

    /// Runs one localizer on one instantiated problem, timing the cell.
    fn run_cell(&self, problem: &Problem, scenario: &str, seed: u64, li: usize) -> RunRecord {
        let localizer = &self.localizers[li];
        // Every cell owns a whole stream derived from (trial seed,
        // localizer index), so concurrent cells never share a generator
        // and scheduling cannot perturb any cell's draws. The stream is
        // tied to the localizer's *position* in the list: editing the
        // list shifts later cells onto different streams, so per-cell
        // results are comparable across runs of the same campaign, not
        // across campaigns with different localizer lists.
        let mut rng =
            rl_math::rng::seeded(seed ^ (li as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
        let cell_started = Instant::now();
        let outcome = localizer.localize(problem, &mut rng).map(|solution| {
            let evaluation = problem.evaluate(&solution).ok();
            RunOutcome {
                solution,
                evaluation,
            }
        });
        RunRecord {
            scenario: scenario.to_string(),
            localizer: localizer.name().to_string(),
            seed,
            wall_time: cell_started.elapsed(),
            outcome,
        }
    }
}

/// One executed cell instance: a localizer on one instantiated problem.
#[derive(Debug)]
pub struct RunRecord {
    /// The problem source's name.
    pub scenario: String,
    /// The localizer's name.
    pub localizer: String,
    /// The seed the run derived its problem and RNG stream from.
    pub seed: u64,
    /// Wall-clock time of the whole cell (solve plus evaluation), as
    /// measured on the worker that ran it. Unlike
    /// [`SolveStats::wall_time`](rl_core::problem::SolveStats), this is
    /// populated for failed solves too.
    pub wall_time: Duration,
    /// The solve outcome, or the solver's error.
    pub outcome: Result<RunOutcome, LocalizationError>,
}

/// A successful run: the solution plus its evaluation against ground
/// truth (when the problem carried truth and evaluation succeeded).
#[derive(Debug)]
pub struct RunOutcome {
    /// The localizer's solution.
    pub solution: Solution,
    /// Evaluation against ground truth; `None` without truth or when no
    /// (non-anchor) node was localized.
    pub evaluation: Option<Evaluation>,
}

/// The output of [`Campaign::run`]: per-run records plus aggregation
/// helpers.
#[derive(Debug)]
pub struct CampaignReport {
    /// Every run, in canonical grid order (source-major, then seed, then
    /// localizer) — independent of how cells were scheduled.
    pub runs: Vec<RunRecord>,
    /// Worker threads the run actually used.
    pub workers: usize,
    /// Wall-clock time of the whole campaign.
    pub total_wall: Duration,
}

impl CampaignReport {
    /// The distinct `(scenario, localizer)` cells, in first-appearance
    /// order.
    pub fn cells(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = Vec::new();
        for r in &self.runs {
            let key = (r.scenario.clone(), r.localizer.clone());
            if !out.contains(&key) {
                out.push(key);
            }
        }
        out
    }

    /// Every run of one cell, in execution order.
    pub fn runs_for(&self, scenario: &str, localizer: &str) -> Vec<&RunRecord> {
        self.runs
            .iter()
            .filter(|r| r.scenario == scenario && r.localizer == localizer)
            .collect()
    }

    /// How many runs' solves returned an error.
    pub fn failed_runs(&self) -> usize {
        self.runs.iter().filter(|r| r.outcome.is_err()).count()
    }

    /// Mean localization error of a cell over its evaluated runs, or
    /// `None` when no run produced an evaluation.
    pub fn mean_error(&self, scenario: &str, localizer: &str) -> Option<f64> {
        let errors: Vec<f64> = self
            .runs_for(scenario, localizer)
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .filter_map(|o| o.evaluation.as_ref())
            .map(|e| e.mean_error)
            .collect();
        if errors.is_empty() {
            None
        } else {
            Some(errors.iter().sum::<f64>() / errors.len() as f64)
        }
    }

    /// Mean solver-iteration count of a cell over its successful runs
    /// (descent iterations, protocol messages, eigensolver iterations —
    /// see [`SolveStats::iterations`](rl_core::problem::SolveStats)), or
    /// `None` when every run failed.
    pub fn mean_iterations(&self, scenario: &str, localizer: &str) -> Option<f64> {
        let iters: Vec<usize> = self
            .runs_for(scenario, localizer)
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .map(|o| o.solution.stats().iterations)
            .collect();
        if iters.is_empty() {
            None
        } else {
            Some(iters.iter().sum::<usize>() as f64 / iters.len() as f64)
        }
    }

    /// Convergence tally of a cell: `(converged, reporting)` over the
    /// successful runs whose solver reports a convergence test
    /// (`SolveStats::converged` of `Some(..)`), or `None` when no run
    /// reports one (closed-form baselines, protocol solvers).
    pub fn convergence(&self, scenario: &str, localizer: &str) -> Option<(usize, usize)> {
        let flags: Vec<bool> = self
            .runs_for(scenario, localizer)
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .filter_map(|o| o.solution.stats().converged)
            .collect();
        if flags.is_empty() {
            None
        } else {
            Some((flags.iter().filter(|&&c| c).count(), flags.len()))
        }
    }

    /// Per-cell wall-time statistics `(mean, max)` over every run of the
    /// cell (failed solves included), or `None` for an unknown cell.
    pub fn wall_stats(&self, scenario: &str, localizer: &str) -> Option<(Duration, Duration)> {
        let runs = self.runs_for(scenario, localizer);
        if runs.is_empty() {
            return None;
        }
        let total: Duration = runs.iter().map(|r| r.wall_time).sum();
        let max = runs.iter().map(|r| r.wall_time).max().unwrap_or_default();
        Some((total / runs.len() as u32, max))
    }

    /// A stable digest of the report's deterministic content: every
    /// record's identity, solution positions (bit-exact), solver stats
    /// (minus wall time), evaluations, and error messages. Two runs of the
    /// same campaign agree on this fingerprint **iff** they reproduced
    /// each other — regardless of worker count or scheduling.
    /// Wall-clock fields and [`CampaignReport::workers`] are excluded.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a via the shared `rl_math::fingerprint` machinery (stable
        // across platforms and Rust versions, unlike `DefaultHasher`).
        // Length prefixes and Option discriminant bytes keep the encoding
        // prefix-free: no two distinct reports serialize to the same byte
        // stream. The byte stream is pinned bit-for-bit by the
        // `fingerprint_golden` integration tests — historical campaign
        // fingerprints must never change under refactors.
        let mut h = rl_math::Fnv1a::new();
        for r in &self.runs {
            h.write_str(&r.scenario);
            h.write_str(&r.localizer);
            h.write_u64(r.seed);
            match &r.outcome {
                Ok(o) => {
                    h.write(&[1, o.solution.frame() as u8]);
                    let positions = o.solution.positions();
                    for i in 0..positions.len() {
                        match positions.get(rl_core::types::NodeId(i)) {
                            Some(p) => {
                                h.write_u8(1);
                                h.write_f64(p.x);
                                h.write_f64(p.y);
                            }
                            None => h.write_u8(0),
                        }
                    }
                    let stats = o.solution.stats();
                    h.write_u64(stats.iterations as u64);
                    h.write_opt_f64(stats.residual);
                    match stats.converged {
                        Some(c) => h.write(&[1, c as u8]),
                        None => h.write_u8(0),
                    }
                    match &o.evaluation {
                        Some(e) => {
                            h.write_u8(1);
                            h.write_u64(e.localized as u64);
                            h.write_u64(e.total as u64);
                            h.write_f64(e.mean_error);
                            h.write_f64(e.max_error);
                            h.write_u64(e.per_node.len() as u64);
                            for &(id, err) in &e.per_node {
                                h.write_u64(id.index() as u64);
                                h.write_f64(err);
                            }
                        }
                        None => h.write_u8(0),
                    }
                }
                Err(e) => {
                    h.write_u8(0);
                    h.write_str(&e.to_string());
                }
            }
        }
        h.finish()
    }

    /// The per-cell summary table: runs, solver failures, mean localized
    /// count, mean error, mean iteration count, convergence tally, and
    /// per-cell wall time (mean and max).
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new(
            "campaign summary",
            &[
                "scenario",
                "localizer",
                "runs",
                "failed",
                "localized",
                "mean_error_m",
                "iters_mean",
                "converged",
                "wall_mean_ms",
                "wall_max_ms",
            ],
        );
        for (scenario, localizer) in self.cells() {
            let runs = self.runs_for(&scenario, &localizer);
            let failed = runs.iter().filter(|r| r.outcome.is_err()).count();
            let evals: Vec<&Evaluation> = runs
                .iter()
                .filter_map(|r| r.outcome.as_ref().ok())
                .filter_map(|o| o.evaluation.as_ref())
                .collect();
            let localized = if evals.is_empty() {
                "n/a".to_string()
            } else {
                let mean_loc =
                    evals.iter().map(|e| e.localized as f64).sum::<f64>() / evals.len() as f64;
                format!("{:.1}/{}", mean_loc, evals[0].total)
            };
            let mean_error = self
                .mean_error(&scenario, &localizer)
                .map(m)
                .unwrap_or_else(|| "n/a".to_string());
            let iters_mean = self
                .mean_iterations(&scenario, &localizer)
                .map(|v| format!("{v:.0}"))
                .unwrap_or_else(|| "n/a".to_string());
            let converged = self
                .convergence(&scenario, &localizer)
                .map(|(ok, total)| format!("{ok}/{total}"))
                .unwrap_or_else(|| "n/a".to_string());
            let (wall_mean, wall_max) = match self.wall_stats(&scenario, &localizer) {
                Some((mean, max)) => (
                    format!("{:.1}", mean.as_secs_f64() * 1e3),
                    format!("{:.1}", max.as_secs_f64() * 1e3),
                ),
                None => ("n/a".to_string(), "n/a".to_string()),
            };
            t.push(&[
                scenario,
                localizer,
                runs.len().to_string(),
                failed.to_string(),
                localized,
                mean_error,
                iters_mean,
                converged,
                wall_mean,
                wall_max,
            ]);
        }
        t
    }
}

/// The canonical head-to-head campaign of the paper's evaluation: every
/// algorithm family on the Figure-5 grass grid (46 reporting motes, 13
/// random anchors, synthetic 22 m / N(0, 0.33 m) ranging). Used by both
/// the `BASELINES` bench experiment and the `compare_solvers` example.
///
/// LSS appears twice: anchor-free (the paper's algorithm — it never sees
/// the 13 anchors the other schemes get) and anchored (this library's
/// extension pinning anchors with springs).
pub fn figure5_head_to_head(seed: u64) -> Campaign {
    use rl_core::baselines::{CentroidLocalizer, DvHopLocalizer};
    use rl_core::distributed::{DistributedConfig, DistributedSolver};
    use rl_core::mds::MdsMapLocalizer;
    use rl_core::MultilaterationSolver;
    use rl_net::RadioModel;

    const RANGE_M: f64 = 22.0;
    Campaign::new()
        .scenario(Scenario::grass_grid_multilateration(seed))
        .localizer(Box::new(LssSolver::new(
            LssConfig::default()
                .with_min_spacing(9.14, 10.0)
                .anchor_free(),
        )))
        .localizer(Box::new(LssSolver::new(
            LssConfig::default().with_min_spacing(9.14, 10.0),
        )))
        .localizer(Box::new(MultilaterationSolver::new(
            MultilaterationConfig::paper(),
        )))
        .localizer(Box::new(MultilaterationSolver::new(
            MultilaterationConfig::paper().progressive(),
        )))
        .localizer(Box::new(DistributedSolver::new(
            DistributedConfig::default().with_min_spacing(9.14, 10.0),
        )))
        .localizer(Box::new(MdsMapLocalizer::new()))
        .localizer(Box::new(DvHopLocalizer::new(RadioModel::ideal(RANGE_M))))
        .localizer(Box::new(CentroidLocalizer::new(RANGE_M)))
        .seeds(&[seed])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_core::mds::MdsMapLocalizer;

    #[test]
    fn grid_executes_every_cell_deterministically() {
        let build = || {
            Campaign::new()
                .scenario(Scenario::parking_lot(3))
                .localizer(Box::new(LssSolver::new(LssConfig::default())))
                .localizer(Box::new(MdsMapLocalizer::new()))
                .trials(7, 2)
        };
        let a = build().run();
        assert_eq!(a.runs.len(), 4, "1 scenario x 2 seeds x 2 localizers");
        assert_eq!(a.cells().len(), 2);
        assert_eq!(a.runs_for("parking-lot-15-5anchors", "mds-map").len(), 2);

        let b = build().run();
        assert_eq!(a.fingerprint(), b.fingerprint(), "campaigns must reproduce");
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            let ea = ra.outcome.as_ref().unwrap().evaluation.as_ref().unwrap();
            let eb = rb.outcome.as_ref().unwrap().evaluation.as_ref().unwrap();
            assert_eq!(ea.mean_error, eb.mean_error, "campaigns must reproduce");
        }

        let table = a.summary_table();
        assert_eq!(table.len(), 2);
        let csv = table.to_csv();
        assert!(csv.contains("mds-map"));
        assert!(csv.contains("iters_mean"));
        assert!(csv.contains("converged"));
        assert!(csv.contains("wall_mean_ms"));
        assert!(csv.contains("wall_max_ms"));
        assert!(!csv.contains("NaN"));
        // LSS reports a convergence test (2/2 here), mds-map reports
        // closed-form success; per-cell iteration means are exposed.
        assert_eq!(
            a.convergence("parking-lot-15-5anchors", "lss"),
            Some((2, 2))
        );
        assert_eq!(
            a.convergence("parking-lot-15-5anchors", "mds-map"),
            Some((2, 2))
        );
        assert!(a.mean_iterations("parking-lot-15-5anchors", "lss").unwrap() > 0.0);
        assert_eq!(a.mean_iterations("nope", "lss"), None);
        assert_eq!(a.convergence("nope", "lss"), None);
    }

    #[test]
    fn worker_count_never_changes_the_report() {
        let campaign = Campaign::new()
            .scenario(Scenario::parking_lot(11))
            .scenario(Scenario::town(11))
            .localizer(Box::new(LssSolver::new(LssConfig::default())))
            .localizer(Box::new(MdsMapLocalizer::new()))
            .trials(3, 3);
        let reference = campaign.run_with(CampaignConfig::serial());
        assert_eq!(reference.workers, 1);
        assert_eq!(reference.runs.len(), 12, "2 scenarios x 3 seeds x 2 loc");
        for config in [
            CampaignConfig::default(),
            CampaignConfig::default().with_workers(4),
            CampaignConfig::default().with_workers(3),
        ] {
            let parallel = campaign.run_with(config);
            assert_eq!(
                parallel.fingerprint(),
                reference.fingerprint(),
                "schedule {config:?} must reproduce the serial report"
            );
            // Canonical order, not completion order.
            for (a, b) in reference.runs.iter().zip(&parallel.runs) {
                assert_eq!(a.scenario, b.scenario);
                assert_eq!(a.localizer, b.localizer);
                assert_eq!(a.seed, b.seed);
            }
        }
    }

    #[test]
    fn workers_clamp_to_units_and_zero_means_auto() {
        let campaign = Campaign::new()
            .scenario(Scenario::parking_lot(5))
            .localizer(Box::new(MdsMapLocalizer::new()));
        // One instance: even a 16-worker request uses a single worker.
        let report = campaign.run_with(CampaignConfig::default().with_workers(16));
        assert_eq!(report.workers, 1);
        // Auto sizing resolves to at least one worker.
        let auto = campaign.run_with(CampaignConfig::default());
        assert!(auto.workers >= 1);
        assert_eq!(auto.fingerprint(), report.fingerprint());
    }

    #[test]
    fn wall_time_is_populated_per_record() {
        let report = Campaign::new()
            .scenario(Scenario::parking_lot(3))
            .localizer(Box::new(MdsMapLocalizer::new()))
            .seeds(&[1, 2])
            .run();
        assert!(report.runs.iter().all(|r| r.wall_time > Duration::ZERO));
        let (mean, max) = report
            .wall_stats("parking-lot-15-5anchors", "mds-map")
            .unwrap();
        assert!(mean > Duration::ZERO && max >= mean);
        assert!(report.total_wall >= max);
        assert_eq!(report.wall_stats("nope", "mds-map"), None);
    }

    #[test]
    fn solver_errors_are_recorded_not_fatal() {
        use rl_core::baselines::CentroidLocalizer;
        // A scenario with zero anchors: centroid must fail per run, and
        // the report must say so without panicking.
        let report = Campaign::new()
            .scenario(Scenario::grass_grid())
            .localizer(Box::new(CentroidLocalizer::new(22.0)))
            .seeds(&[1])
            .run();
        assert_eq!(report.runs.len(), 1);
        assert!(report.runs[0].outcome.is_err());
        assert_eq!(report.mean_error("grass-grid-47", "centroid"), None);
        let csv = report.summary_table().to_csv();
        assert!(csv.contains("n/a"));
        // Failed cells still report wall time.
        assert!(report
            .wall_stats("grass-grid-47", "centroid")
            .is_some_and(|(mean, _)| mean > Duration::ZERO));
    }
}
