//! # Resilient Localization for Sensor Networks in Outdoor Environments
//!
//! A full Rust reproduction of Kwon, Mechitov, Sundresh, Kim and Agha,
//! *"Resilient Localization for Sensor Networks in Outdoor Environments"*
//! (ICDCS 2005): long-distance acoustic TDoA ranging plus a family of
//! localization algorithms — multilateration with intersection consistency
//! checking, centralized least-squares scaling (LSS) with minimum-spacing
//! soft constraints, and a distributed LSS variant — together with the
//! simulated substrates (acoustic channel, WSN radio network, deployment
//! generators) needed to evaluate them without MICA2 hardware.
//!
//! This facade crate re-exports the workspace crates under stable paths:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`math`] | `rl-math` | matrices, eigensolver, robust stats, gradient descent |
//! | [`geom`] | `rl-geom` | points, rigid transforms, circles, Procrustes |
//! | [`signal`] | `rl-signal` | acoustic channel, tone detection, chirp patterns |
//! | [`net`] | `rl-net` | discrete-event WSN simulator, time sync, flooding, connectivity graphs and hop counts |
//! | [`ranging`] | `rl-ranging` | TDoA ranging service, filtering, consistency, the `RangingChannel` error stack |
//! | [`deploy`] | `rl-deploy` | deployments, anchors, scenarios, mobility |
//! | [`localization`] | `rl-core` | multilateration, LSS, distributed LSS, MDS, tracking, `Problem`/`Localizer` |
//! | [`bench`](mod@bench) | `rl-bench` | campaign runner, experiment harness, figure reproductions |
//! | [`serve`] | `rl-serve` | TCP localization server: a thread per connection, bounded concurrent solves, request batching, solution cache |
//!
//! # Quickstart
//!
//! ```
//! use resilient_localization::prelude::*;
//!
//! // A 4x4 offset grid in the style of the paper's Figure 5, with
//! // synthetic ranging: true distances under 22 m + N(0, 0.33 m) noise.
//! let mut rng = rl_math::rng::seeded(7);
//! let field = rl_deploy::grid::OffsetGrid::new(4, 4, 9.144, 9.144).generate();
//! let measurements = rl_ranging::RangingChannel::paper()
//!     .measure_all(&field.positions, &mut rng);
//!
//! // Centralized LSS with the minimum-spacing soft constraint.
//! let config = LssConfig::default().with_min_spacing(9.0, 10.0);
//! let solution = LssSolver::new(config).solve(&measurements, &mut rng)?;
//!
//! // Evaluate against ground truth (best-fit alignment, like the paper).
//! let eval = evaluate_against_truth(&solution.positions(), &field.positions)?;
//! assert!(eval.mean_error < 1.0, "average error {} m", eval.mean_error);
//! # Ok::<(), rl_core::LocalizationError>(())
//! ```
//!
//! # The unified solving API
//!
//! Every algorithm family also implements the object-safe
//! [`Localizer`](rl_core::problem::Localizer) trait over a shared
//! [`Problem`](rl_core::problem::Problem), and a
//! [`Campaign`](rl_bench::campaign::Campaign) sweeps
//! (scenarios × localizers × seeds) grids through it — sharded across a
//! worker pool, with a bit-identical report for any worker count:
//!
//! ```
//! use resilient_localization::prelude::*;
//!
//! // A named scenario instantiates directly into a solver-ready Problem.
//! let problem = rl_deploy::Scenario::parking_lot(7).instantiate(1);
//! let solvers: Vec<Box<dyn Localizer>> = vec![
//!     Box::new(LssSolver::new(LssConfig::default())),
//!     Box::new(MultilaterationSolver::new(MultilaterationConfig::paper())),
//! ];
//! let mut rng = rl_math::rng::seeded(1);
//! for solver in &solvers {
//!     let solution = solver.localize(&problem, &mut rng)?;
//!     let eval = problem.evaluate(&solution)?;
//!     println!("{}: {:.3} m", solver.name(), eval.mean_error);
//! }
//! # Ok::<(), LocalizationError>(())
//! ```

#![deny(missing_docs)]

pub use rl_bench as bench;
pub use rl_core as localization;
pub use rl_deploy as deploy;
pub use rl_geom as geom;
pub use rl_math as math;
pub use rl_net as net;
pub use rl_ranging as ranging;
pub use rl_serve as serve;
pub use rl_signal as signal;

/// Commonly used items, importable with one `use`.
///
/// Note that this re-exports [`rl_core::Result`], a one-parameter alias
/// over [`LocalizationError`](rl_core::LocalizationError); code that needs
/// the two-parameter form alongside the glob import should name
/// `std::result::Result` explicitly.
pub mod prelude {
    pub use rl_bench::campaign::{Campaign, CampaignConfig, CampaignReport};
    pub use rl_core::baselines::{CentroidLocalizer, DvHopLocalizer};
    pub use rl_core::distributed::{DistributedConfig, DistributedSolver};
    pub use rl_core::eval::{evaluate_absolute, evaluate_against_truth, Evaluation};
    pub use rl_core::lss::{LssConfig, LssSolver};
    pub use rl_core::mds::MdsMapLocalizer;
    pub use rl_core::multilateration::{MultilaterationConfig, MultilaterationSolver};
    pub use rl_core::problem::{Frame, Localizer, Problem, Solution, SolveStats};
    pub use rl_core::tracking::{
        cold_seed, solution_fingerprint, StreamingTracker, TickObservation, Tracker, TrackerConfig,
    };
    pub use rl_core::types::{Anchor, NodeId, PositionMap};
    pub use rl_core::{LocalizationError, Result, RobustLoss};
    pub use rl_deploy::mobility::{ChurnModel, MobilityScenario, MobilityTrace, MotionModel};
    pub use rl_geom::{Point2, Vec2};
    pub use rl_math::sparse::cg::{
        conjugate_gradient, conjugate_gradient_with, CgConfig, CgOutcome, CgWorkspace,
    };
    pub use rl_math::sparse::{
        dijkstra, dijkstra_multi_into, CsrMatrix, DijkstraWorkspace, LinearOperator,
    };
    pub use rl_ranging::measurement::{DirectedSample, MeasurementSet, RangingCampaign};
    pub use rl_serve::{Client, ServeConfig, Server, StreamSession};
    pub use rl_signal::env::Environment;
}
