//! The wire protocol: length-prefixed `serde_json` frames over TCP.
//!
//! # Frame format
//!
//! Every message — in either direction — is one *frame*:
//!
//! ```text
//! +----------------+---------------------------+
//! | length: u32 BE | payload: `length` bytes   |
//! +----------------+---------------------------+
//! ```
//!
//! The payload is the UTF-8 JSON encoding (via the vendored `serde_json`
//! shim) of one [`Request`] or [`Response`]. The length prefix counts
//! payload bytes only. Frames larger than the receiver's configured
//! maximum ([`DEFAULT_MAX_FRAME`] by default) are rejected with
//! [`ErrorCode::FrameTooLarge`]; because an oversized declaration leaves
//! the byte stream unsynchronized, the connection is closed after the
//! error response. A frame whose payload is not valid JSON for the
//! expected type is rejected with [`ErrorCode::MalformedFrame`] — the
//! frame boundary itself was still intact, so the connection stays open.
//!
//! # Conversation shape
//!
//! The protocol is strict request/response: a client sends one frame and
//! reads one frame back; there is no pipelining and the server never
//! pushes unsolicited frames. A connection serves any number of
//! requests.
//!
//! # Namespaces
//!
//! The message space is split into two namespaces plus a small shared
//! envelope:
//!
//! * **[`batch`]** — the stateless requests: one-shot preset solves
//!   ([`batch::Request::Localize`], optionally projected to a node
//!   subset), counters, shutdown.
//! * **[`stream`]** — the session-scoped requests: open a server-owned
//!   [`StreamingTracker`](rl_core::tracking::StreamingTracker) session,
//!   push [`TickObservation`](rl_core::tracking::TickObservation)
//!   deltas through it, read full or per-node solutions, close.
//! * **Envelope** — [`Request::Hello`] (the version check, shared by
//!   both namespaces) and [`Response::Error`] (typed failures).
//!
//! Every type's serde impls are derived, so the namespace nests on the
//! wire like any other tuple variant: a full-frame localize request is
//! `{"Batch":[{"Localize":{...}}]}` and its answer
//! `{"Batch":[{"Localized":[{...}]}]}`. The golden-frame unit tests pin
//! these bytes.
//!
//! # Versioning
//!
//! The server speaks exactly one version, [`PROTOCOL_VERSION`]. Clients
//! should open with [`Request::Hello`] carrying it; the server answers
//! [`Response::Hello`] with the same version, and any other version
//! with [`ErrorCode::UnsupportedProtocol`] on a connection that keeps
//! serving. A connection that never says `Hello` is assumed to speak
//! the current version. The version is bumped whenever the bytes of an
//! existing field or variant change; purely additive variants and
//! fields keep the version (unknown variants already fail closed as
//! [`ErrorCode::MalformedFrame`], and absent newer `Option` fields read
//! as `None`).
//!
//! # Determinism
//!
//! Replies deliberately carry only *deterministic* content — positions,
//! iteration counts, convergence, fingerprints — and no wall-clock or
//! delivery metadata (whether a response was served from cache,
//! coalesced, or solved cold is observable only through
//! [`batch::Request::Status`] counters). This is what makes the cache
//! and session contracts testable at the byte level: the response frame
//! for a cached solve is **bit-identical** to the frame the cold solve
//! produced, a projected reply is bit-identical to slicing the full
//! frame, and a wire-driven tracker session fingerprint-matches a
//! directly-driven
//! [`StreamingTracker`](rl_core::tracking::StreamingTracker) on the
//! same observation stream, for any worker count — because the vendored
//! `serde_json` shim round-trips every finite `f64` exactly and nothing
//! schedule-dependent is ever serialized.
//!
//! # Session counters
//!
//! [`ServerStats`] exposes the session side of the server:
//!
//! * `sessions_open` — streaming sessions currently alive (a gauge),
//! * `sessions_evicted` — sessions reaped by the idle TTL (cumulative),
//! * `session_capacity` — the configured open-session bound,
//! * `ticks_served` — observations accepted by session trackers
//!   (cumulative).
//!
//! Pushed ticks never wait for a solve turn, so `batch_queued`, the
//! one queue gauge, counts waiting batch solves only.

use std::io::{self, Read, Write};

use serde::{Deserialize, Serialize};

/// The protocol version, the only one the server speaks. See the module
/// docs for the bump policy.
pub const PROTOCOL_VERSION: u32 = 4;

/// Default maximum frame size (1 MiB): comfortably above a metro-1000
/// [`LocalizeReply`] (~50 KiB), far below anything a hostile or confused
/// peer could use to balloon server memory.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// A client-to-server message: the version handshake plus the two
/// namespaces (see the module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Version handshake; answered by [`Response::Hello`].
    Hello {
        /// The client's protocol version (must be [`PROTOCOL_VERSION`]).
        protocol: u32,
    },
    /// A stateless request (localize, status, shutdown).
    Batch(batch::Request),
    /// A session-scoped streaming request.
    Stream(stream::Request),
}

impl Request {
    /// Convenience constructor for the common case: a full-frame
    /// [`batch::Request::Localize`].
    pub fn localize(deployment: impl Into<String>, solver: impl Into<String>, seed: u64) -> Self {
        Request::Batch(batch::Request::Localize {
            deployment: deployment.into(),
            solver: solver.into(),
            seed,
            nodes: None,
        })
    }
}

impl From<batch::Request> for Request {
    fn from(r: batch::Request) -> Self {
        Request::Batch(r)
    }
}

impl From<stream::Request> for Request {
    fn from(r: stream::Request) -> Self {
        Request::Stream(r)
    }
}

/// A server-to-client message: the handshake answer, typed errors, and
/// the two namespaces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Handshake answer.
    Hello {
        /// The server's [`PROTOCOL_VERSION`].
        protocol: u32,
        /// Human-readable server identifier.
        server: String,
    },
    /// A stateless reply.
    Batch(batch::Response),
    /// A session-scoped streaming reply.
    Stream(stream::Response),
    /// A typed failure; the connection stays open unless the error is a
    /// framing-level one ([`ErrorCode::FrameTooLarge`]).
    Error(WireError),
}

impl From<batch::Response> for Response {
    fn from(r: batch::Response) -> Self {
        Response::Batch(r)
    }
}

impl From<stream::Response> for Response {
    fn from(r: stream::Response) -> Self {
        Response::Stream(r)
    }
}

pub mod batch {
    //! The stateless namespace: one-shot preset solves, optionally
    //! projected to a node subset, and server control.

    use super::{ErrorCode, LocalizeReply, ServerStats, WireError};
    use serde::{Deserialize, Serialize};

    /// A stateless client-to-server message.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub enum Request {
        /// Localize a preset deployment: answered by
        /// [`Response::Localized`] (possibly from cache or a coalesced
        /// shared solve), [`Response::Projected`] when `nodes` asks for
        /// a subset, or a typed error.
        Localize {
            /// Preset deployment name (see `rl_deploy::presets`).
            deployment: String,
            /// Solver registry name, e.g. `"lss"` or `"mds-map"`.
            solver: String,
            /// Measurement-instantiation seed; the same
            /// `(deployment, solver, seed)` triple always yields the
            /// same reply, bit for bit.
            seed: u64,
            /// Optional per-node projection: answer with only these node
            /// ids' positions, served against the same cache as full
            /// frames and **byte-identical** to slicing one
            /// ([`Projection::slice`]). `None` (or absent) returns the
            /// full frame.
            nodes: Option<Vec<u64>>,
        },
        /// Server statistics snapshot; answered by [`Response::Status`].
        Status,
        /// Graceful shutdown: the server finishes in-flight work,
        /// answers [`Response::ShuttingDown`], and stops accepting
        /// connections.
        Shutdown,
    }

    /// A stateless server-to-client message.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub enum Response {
        /// A completed full-frame localize request.
        Localized(LocalizeReply),
        /// A completed projected localize request.
        Projected(Projection),
        /// A statistics snapshot.
        Status(ServerStats),
        /// Acknowledges [`Request::Shutdown`]; the connection closes
        /// after this frame.
        ShuttingDown,
    }

    /// A per-node slice of a [`LocalizeReply`]: the answer to a
    /// `Localize` with `nodes`. Carries the same deterministic content
    /// as the full frame, restricted to the requested ids.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Projection {
        /// Echo of the requested deployment preset.
        pub deployment: String,
        /// Echo of the requested solver.
        pub solver: String,
        /// Echo of the request seed.
        pub seed: u64,
        /// `"absolute"` or `"relative"` — the coordinate frame.
        pub frame: String,
        /// Echo of the requested node ids, in request order.
        pub nodes: Vec<u64>,
        /// Estimated position per requested id, aligned with `nodes`.
        pub positions: Vec<Option<(f64, f64)>>,
        /// Nodes with a position estimate, out of `nodes.len()`.
        pub localized: u64,
    }

    impl Projection {
        /// Slices a full reply down to `nodes`. This is the *defining*
        /// computation of a projection: the server answers a projected
        /// request by running exactly this over the same (possibly
        /// cached) full reply, so a served [`Response::Projected`] frame
        /// is byte-identical to slicing the full frame client-side.
        ///
        /// # Errors
        ///
        /// [`ErrorCode::UnknownNode`] when an id is outside the reply's
        /// universe.
        pub fn slice(reply: &LocalizeReply, nodes: &[u64]) -> Result<Projection, WireError> {
            let mut positions = Vec::with_capacity(nodes.len());
            let mut localized = 0u64;
            for &id in nodes {
                let slot = usize::try_from(id)
                    .ok()
                    .filter(|&i| i < reply.positions.len())
                    .ok_or_else(|| {
                        WireError::new(
                            ErrorCode::UnknownNode,
                            format!(
                                "node {id} outside the {}-node deployment",
                                reply.positions.len()
                            ),
                        )
                    })?;
                let p = reply.positions[slot];
                if p.is_some() {
                    localized += 1;
                }
                positions.push(p);
            }
            Ok(Projection {
                deployment: reply.deployment.clone(),
                solver: reply.solver.clone(),
                seed: reply.seed,
                frame: reply.frame.clone(),
                nodes: nodes.to_vec(),
                positions,
                localized,
            })
        }
    }
}

pub mod stream {
    //! The session-scoped namespace: server-owned
    //! [`StreamingTracker`](rl_core::tracking::StreamingTracker)
    //! sessions driven by client-pushed observation deltas.
    //!
    //! # Session lifecycle
    //!
    //! ```text
    //! OpenStream ──► StreamOpened{session}          (token = capability)
    //!     PushTicks{session} ──► TicksPushed        (any number of times)
    //!     ReadSolution{session} ──► Solution        (full or per-node)
    //! CloseStream{session} ──► StreamClosed
    //! ```
    //!
    //! Sessions are server-owned and outlive connections: the token is
    //! the capability, so a client may reconnect and continue a session.
    //! Idle sessions are reaped by a TTL
    //! ([`ErrorCode::SessionEvicted`] on later use); unknown or closed
    //! tokens answer [`ErrorCode::UnknownSession`].
    //!
    //! # Determinism
    //!
    //! A session's replies are a pure function of
    //! `(OpenStream, observation sequence)`: [`PushReply::fingerprint`]
    //! and [`SolutionReply::fingerprint`] match
    //! [`solution_fingerprint`](rl_core::tracking::solution_fingerprint)
    //! of a directly-driven tracker on the same stream, for any worker
    //! count and any batch/stream interleaving.

    use rl_core::tracking::TickObservation;
    use rl_core::types::{Anchor, NodeId};
    use rl_deploy::mobility::{ChurnModel, MotionModel};
    use rl_geom::Point2;
    use rl_ranging::measurement::MeasurementSet;
    use serde::{Deserialize, Serialize};

    use super::{ErrorCode, WireError};

    /// Largest node universe a pushed observation may declare: the same
    /// cap a measurement set read from the wire is held to.
    pub use rl_ranging::measurement::MAX_UNIVERSE;

    /// A session-scoped client-to-server message.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub enum Request {
        /// Creates a server-owned tracker session; answered by
        /// [`Response::StreamOpened`] carrying the session token.
        OpenStream {
            /// What network the observations will describe (fixes the
            /// node universe and the session's identity).
            source: StreamSource,
            /// Tracker configuration.
            tracker: TrackerSpec,
            /// Tracker seed: the base of the session's cold-solve
            /// streams (see `rl_core::tracking::cold_seed`).
            seed: u64,
        },
        /// Feeds observation deltas through the session's tracker, in
        /// order; answered by [`Response::TicksPushed`].
        PushTicks {
            /// Session token from [`Response::StreamOpened`].
            session: u64,
            /// Observations, consumed in sequence.
            observations: Vec<WireObservation>,
        },
        /// Reads the session's latest solution; answered by
        /// [`Response::Solution`].
        ReadSolution {
            /// Session token.
            session: u64,
            /// `None` for the full frame, or node ids for a per-node
            /// partial projection (byte-identical to slicing the full
            /// frame).
            nodes: Option<Vec<u64>>,
        },
        /// Tears the session down; answered by
        /// [`Response::StreamClosed`].
        CloseStream {
            /// Session token.
            session: u64,
        },
    }

    /// A session-scoped server-to-client message.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub enum Response {
        /// The session exists; `session` is the capability for every
        /// later request.
        StreamOpened {
            /// Session token (fingerprint-derived, see the server docs).
            session: u64,
            /// The session's node-universe size; every pushed
            /// observation must declare exactly this universe.
            universe: u64,
        },
        /// Observations were consumed.
        TicksPushed(PushReply),
        /// The latest solution (full or projected).
        Solution(SolutionReply),
        /// The session is gone; its token is now unknown.
        StreamClosed {
            /// Echo of the closed session's token.
            session: u64,
            /// Observations the session consumed over its lifetime.
            ticks: u64,
        },
    }

    /// What network a session's observations describe. Part of the
    /// session's identity (folded into the token fingerprint).
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub enum StreamSource {
        /// A named mobility preset (see `rl_deploy::mobility::NAMES`);
        /// both sides agree bit-for-bit on what it means.
        Preset {
            /// Mobility preset name, e.g. `"town-mobile"`.
            name: String,
        },
        /// A static deployment preset set in motion by a
        /// client-declared recipe.
        Custom {
            /// Static deployment preset name (see
            /// `rl_deploy::presets::NAMES`), e.g. `"town"`.
            deployment: String,
            /// Motion model the client will simulate.
            motion: MotionModel,
            /// Churn model the client will simulate.
            churn: ChurnModel,
        },
    }

    /// Wire-side tracker configuration. Maps onto
    /// [`TrackerConfig`](rl_core::tracking::TrackerConfig) server-side.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct TrackerSpec {
        /// Configuration preset: `"default"`
        /// ([`TrackerConfig::new`](rl_core::tracking::TrackerConfig::new))
        /// or `"metro"`
        /// ([`TrackerConfig::metro`](rl_core::tracking::TrackerConfig::metro),
        /// the same configuration today).
        pub preset: String,
        /// Overrides the warm path's Gauss–Newton step budget per tick.
        pub steps_per_tick: Option<u64>,
        /// Overrides the cold-restart churn threshold.
        pub churn_restart_fraction: Option<f64>,
    }

    impl Default for TrackerSpec {
        fn default() -> Self {
            TrackerSpec {
                preset: "default".to_string(),
                steps_per_tick: None,
                churn_restart_fraction: None,
            }
        }
    }

    /// One tick's observation delta in wire form: the JSON-friendly
    /// mirror of [`TickObservation`]. Conversion is lossless —
    /// [`WireObservation::from_observation`] then
    /// [`WireObservation::to_observation`] reproduces the original
    /// exactly (the measurement set iterates sorted, so reconstruction
    /// is order-stable). Decoding builds the set in one sorted pass,
    /// whatever order the edges arrive in.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct WireObservation {
        /// Observation index in the stream, starting at 0.
        pub tick: u64,
        /// Node-universe size; must match the session's.
        pub universe: u64,
        /// Weighted measured edges as `(a, b, distance_m, weight)` with
        /// `a < b`.
        pub edges: Vec<(u64, u64, f64, f64)>,
        /// Surveyed nodes as `(id, x, y)`.
        pub anchors: Vec<(u64, f64, f64)>,
        /// Every active slot this tick, ascending and unique.
        pub active: Vec<u64>,
        /// Slots that became active this tick.
        pub joined: Vec<u64>,
        /// Slots that became inactive this tick.
        pub left: Vec<u64>,
        /// Ground-truth positions for the whole universe, when the
        /// source is a simulation (scaffolding for protocol-driven cold
        /// solvers and evaluation, never an input to estimates).
        pub truth: Option<Vec<(f64, f64)>>,
    }

    impl WireObservation {
        /// Encodes a [`TickObservation`] for the wire.
        pub fn from_observation(obs: &TickObservation) -> WireObservation {
            WireObservation {
                tick: obs.tick,
                universe: obs.measurements.node_count() as u64,
                edges: obs
                    .measurements
                    .iter_weighted()
                    .map(|(a, b, d, w)| (a.index() as u64, b.index() as u64, d, w))
                    .collect(),
                anchors: obs
                    .anchors
                    .iter()
                    .map(|a| (a.id.index() as u64, a.position.x, a.position.y))
                    .collect(),
                active: obs.active.iter().map(|id| id.index() as u64).collect(),
                joined: obs.joined.iter().map(|id| id.index() as u64).collect(),
                left: obs.left.iter().map(|id| id.index() as u64).collect(),
                truth: obs
                    .truth
                    .as_ref()
                    .map(|t| t.iter().map(|p| (p.x, p.y)).collect()),
            }
        }

        /// Decodes back into a solver-ready [`TickObservation`],
        /// validating everything that could make the server allocate or
        /// index out of bounds. Semantic validation (duplicate actives,
        /// connectivity) stays with the tracker, which already types
        /// those errors.
        ///
        /// # Errors
        ///
        /// [`ErrorCode::InvalidObservation`] with a description of the
        /// first violation.
        pub fn to_observation(&self) -> Result<TickObservation, WireError> {
            let invalid = |what: String| WireError::new(ErrorCode::InvalidObservation, what);
            if self.universe > MAX_UNIVERSE {
                return Err(invalid(format!(
                    "universe of {} exceeds the {MAX_UNIVERSE}-slot limit",
                    self.universe
                )));
            }
            let n = self.universe as usize;
            let slot = |id: u64, what: &str| -> Result<NodeId, WireError> {
                if id < self.universe {
                    Ok(NodeId(id as usize))
                } else {
                    Err(invalid(format!(
                        "{what} id {id} outside the {n}-slot universe"
                    )))
                }
            };
            let node = |id: u64| NodeId(usize::try_from(id).unwrap_or(usize::MAX));
            let measurements = MeasurementSet::try_from_weighted_edges(
                n,
                self.edges
                    .iter()
                    .map(|&(a, b, d, w)| (node(a), node(b), d, w)),
            )
            .map_err(|(k, e)| {
                let (a, b, _, _) = self.edges[k];
                invalid(format!("edge ({a}, {b}): {e}"))
            })?;
            let mut anchors = Vec::with_capacity(self.anchors.len());
            for &(id, x, y) in &self.anchors {
                if !x.is_finite() || !y.is_finite() {
                    return Err(invalid(format!("non-finite anchor position for node {id}")));
                }
                anchors.push(Anchor::new(slot(id, "anchor")?, Point2::new(x, y)));
            }
            let ids = |list: &[u64], what: &str| -> Result<Vec<NodeId>, WireError> {
                list.iter().map(|&id| slot(id, what)).collect()
            };
            let truth = match &self.truth {
                None => None,
                Some(points) => {
                    if points.len() != n {
                        return Err(invalid(format!(
                            "truth covers {} of {n} slots",
                            points.len()
                        )));
                    }
                    let mut truth = Vec::with_capacity(n);
                    for &(x, y) in points {
                        if !x.is_finite() || !y.is_finite() {
                            return Err(invalid("non-finite truth position".to_string()));
                        }
                        truth.push(Point2::new(x, y));
                    }
                    Some(truth)
                }
            };
            Ok(TickObservation {
                tick: self.tick,
                measurements,
                anchors,
                active: ids(&self.active, "active")?,
                joined: ids(&self.joined, "joined")?,
                left: ids(&self.left, "left")?,
                truth,
            })
        }
    }

    /// The deterministic outcome of a [`Request::PushTicks`].
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct PushReply {
        /// Echo of the session token.
        pub session: u64,
        /// Observations this push fed through the tracker successfully.
        pub accepted: u64,
        /// Observations the tracker has consumed over its lifetime
        /// (errors included — the cold-seed contract counts them).
        pub ticks: u64,
        /// Lifetime warm (incremental) updates.
        pub warm_updates: u64,
        /// Lifetime cold (from-scratch) solves.
        pub cold_solves: u64,
        /// [`solution_fingerprint`](rl_core::tracking::solution_fingerprint)
        /// of the tracker's latest solution after this push.
        pub fingerprint: u64,
    }

    /// The deterministic payload of a [`Request::ReadSolution`].
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct SolutionReply {
        /// Echo of the session token.
        pub session: u64,
        /// Observations consumed when this solution was produced.
        pub ticks: u64,
        /// `"absolute"` or `"relative"`.
        pub frame: String,
        /// Echo of the projection (`None` = full frame).
        pub nodes: Option<Vec<u64>>,
        /// Estimated positions: the full universe in id order, or
        /// aligned with `nodes` when projected.
        pub positions: Vec<Option<(f64, f64)>>,
        /// Nodes with an estimate, out of `positions.len()`.
        pub localized: u64,
        /// [`solution_fingerprint`](rl_core::tracking::solution_fingerprint)
        /// of the **full** latest solution (identical whether or not the
        /// read was projected).
        pub fingerprint: u64,
    }
}

/// The deterministic payload of a completed full-frame localize request.
///
/// Coordinates are finite `f64`s (the server refuses to serialize
/// non-finite positions — see [`ErrorCode::SolveFailed`]), so the JSON
/// encoding round-trips every coordinate bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalizeReply {
    /// Echo of the requested deployment preset.
    pub deployment: String,
    /// Echo of the requested solver.
    pub solver: String,
    /// Echo of the request seed.
    pub seed: u64,
    /// `"absolute"` or `"relative"` — the coordinate frame of
    /// `positions` (see `rl_core::problem::Frame`).
    pub frame: String,
    /// Estimated position per node id; `None` for unlocalized nodes.
    pub positions: Vec<Option<(f64, f64)>>,
    /// Solver work counter (descent iterations, protocol messages, …).
    pub iterations: u64,
    /// Final objective value, when the solver reports one.
    pub residual: Option<f64>,
    /// Whether the solver reached its convergence test, when it has
    /// one.
    pub converged: Option<bool>,
    /// Server-side mean localization error against the preset's ground
    /// truth, in meters (anchors excluded).
    pub mean_error_m: Option<f64>,
    /// Nodes with a position estimate, out of `positions.len()`.
    pub localized: u64,
}

/// Server counters reported by [`batch::Response::Status`].
///
/// Counters are cumulative since server start and monotone unless
/// marked as gauges; the cache/batching/fairness tests read them as
/// deltas around a request burst. The session-related fields are
/// documented in the [module docs](self) under "Session counters".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// The server's [`PROTOCOL_VERSION`].
    pub protocol: u32,
    /// Batch solves that may run at once.
    pub workers: u64,
    /// Names of the serveable deployment presets.
    pub deployments: Vec<String>,
    /// Total localize requests accepted (cache hits and coalesced
    /// requests included).
    pub requests: u64,
    /// Localize requests answered straight from the solution cache.
    pub cache_hits: u64,
    /// Localize requests that joined an already-in-flight identical
    /// solve instead of solving their own.
    pub coalesced: u64,
    /// Solves that took a turn.
    pub solves_started: u64,
    /// Solves completed (each may have fanned out to many coalesced
    /// waiters).
    pub solves: u64,
    /// Typed error responses sent.
    pub errors: u64,
    /// Entries currently in the solution cache.
    pub cache_entries: u64,
    /// Solution-cache capacity.
    pub cache_capacity: u64,
    /// Configured bound on batch solves waiting for a turn; `0` means
    /// unbounded.
    pub queue_depth: u64,
    /// Requests rejected with [`ErrorCode::Overloaded`] (full batch
    /// queue, or session capacity).
    pub overloaded: u64,
    /// Streaming sessions currently alive (a gauge).
    pub sessions_open: u64,
    /// Sessions reaped by the idle TTL (cumulative).
    pub sessions_evicted: u64,
    /// Configured open-session capacity.
    pub session_capacity: u64,
    /// Observations accepted by session trackers (cumulative).
    pub ticks_served: u64,
    /// Batch solves waiting for a turn (a gauge).
    pub batch_queued: u64,
}

/// A typed error response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// Machine-readable error class.
    pub code: ErrorCode,
    /// Human-readable context.
    pub message: String,
}

impl WireError {
    /// Builds an error from a code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

/// Machine-readable error classes. All are terminal for the *request*;
/// only [`ErrorCode::FrameTooLarge`] is terminal for the *connection*
/// (the byte stream is unsynchronized past an oversized declaration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The frame's payload was not valid JSON for a known [`Request`].
    MalformedFrame,
    /// The frame's declared length exceeded the receiver's maximum.
    FrameTooLarge,
    /// [`Request::Hello`] carried a version other than
    /// [`PROTOCOL_VERSION`].
    UnsupportedProtocol,
    /// The request named a deployment or mobility source outside the
    /// preset registries.
    UnknownDeployment,
    /// [`batch::Request::Localize`] named a solver outside the registry,
    /// or `OpenStream` named an unknown tracker preset.
    UnknownSolver,
    /// The solver returned an error, produced positions that cannot be
    /// represented on the wire (non-finite coordinates), or a solution
    /// was read from a session before its first successful tick.
    SolveFailed,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// A queue or quota is at its bound: the batch queue, or the
    /// open-session capacity. The request was rejected
    /// without being accepted; retry after a backoff — the connection
    /// stays open.
    Overloaded,
    /// A stream request named a session token the server does not know
    /// (never opened, or already closed).
    UnknownSession,
    /// A stream request named a session the idle TTL reaped. The state
    /// is gone — reopen and replay to continue.
    SessionEvicted,
    /// A projection named a node id outside the deployment's universe.
    UnknownNode,
    /// A pushed observation failed wire-level validation (universe
    /// mismatch, out-of-range ids, non-finite numbers).
    InvalidObservation,
}

/// Frame-level read failures (transport, not application, errors).
#[derive(Debug)]
pub enum FrameError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The declared payload length exceeds the configured maximum.
    TooLarge {
        /// Declared payload length.
        declared: usize,
        /// The receiver's maximum.
        max: usize,
    },
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::TooLarge { declared, max } => {
                write!(
                    f,
                    "frame of {declared} bytes exceeds the {max}-byte maximum"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame: 4-byte big-endian length prefix, then the payload.
///
/// # Errors
///
/// [`FrameError::TooLarge`] when the payload exceeds `max` (nothing is
/// written), or the underlying I/O error.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8], max: usize) -> Result<(), FrameError> {
    if payload.len() > max {
        return Err(FrameError::TooLarge {
            declared: payload.len(),
            max,
        });
    }
    // One write for prefix + payload: splitting them into two small
    // segments interacts with Nagle + delayed ACK into ~40 ms stalls.
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame with blocking I/O. Returns `Ok(None)` on a clean EOF
/// *before* the first prefix byte (the peer closed between frames).
///
/// # Errors
///
/// [`FrameError::TooLarge`] when the declared length exceeds `max` (the
/// stream is left unsynchronized — close it), or the underlying I/O
/// error (including `UnexpectedEof` for a connection dropped
/// mid-frame).
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        let n = r.read(&mut prefix[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-prefix",
            )
            .into());
        }
        filled += n;
    }
    let declared = u32::from_be_bytes(prefix) as usize;
    if declared > max {
        return Err(FrameError::TooLarge { declared, max });
    }
    let mut payload = vec![0u8; declared];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Encodes a message as one whole frame, length prefix included, in a
/// single buffer: the JSON is written after a 4-byte placeholder that
/// the payload length then overwrites. The bytes are exactly what
/// [`write_frame`] sends for the message's `serde_json` encoding.
///
/// # Errors
///
/// [`FrameError::TooLarge`] when the payload exceeds `max`.
pub fn encode_frame<T: Serialize + ?Sized>(message: &T, max: usize) -> Result<Vec<u8>, FrameError> {
    let mut text = String::from("\0\0\0\0");
    message.serialize(&mut text);
    let mut frame = text.into_bytes();
    let declared = frame.len() - 4;
    if declared > max {
        return Err(FrameError::TooLarge { declared, max });
    }
    frame[..4].copy_from_slice(&(declared as u32).to_be_bytes());
    Ok(frame)
}

/// Serializes a message and writes it as one frame ([`encode_frame`]).
///
/// # Errors
///
/// [`FrameError::TooLarge`] when the payload exceeds `max` (nothing is
/// written), or the underlying I/O error. Serialization itself cannot
/// fail for the protocol types.
pub fn send<W: Write, T: Serialize>(w: &mut W, message: &T, max: usize) -> Result<(), FrameError> {
    w.write_all(&encode_frame(message, max)?)?;
    w.flush()?;
    Ok(())
}

/// Decodes a frame payload into a message, mapping JSON/shape failures
/// to a human-readable string (the caller turns it into
/// [`ErrorCode::MalformedFrame`]).
///
/// # Errors
///
/// A description of the decode failure: invalid UTF-8, invalid JSON, or
/// a JSON value of the wrong shape.
pub fn decode<T: Deserialize>(payload: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("payload is not a valid message: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_net::NodeId;
    use rl_ranging::measurement::MeasurementSet;
    use serde::Deserialize;
    use std::io::Cursor;
    use std::time::{Duration, Instant};

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", DEFAULT_MAX_FRAME).unwrap();
        write_frame(&mut buf, b"", DEFAULT_MAX_FRAME).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().as_deref(),
            Some(&b"hello"[..])
        );
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().as_deref(),
            Some(&b""[..])
        );
        // Clean EOF between frames reads as None.
        assert!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().is_none());
    }

    #[test]
    fn oversized_frames_are_rejected_on_both_sides() {
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame(&mut buf, &[0u8; 32], 16),
            Err(FrameError::TooLarge {
                declared: 32,
                max: 16
            })
        ));
        assert!(buf.is_empty(), "nothing written for an oversized frame");

        let mut wire = Vec::new();
        wire.extend_from_slice(&1024u32.to_be_bytes());
        wire.extend_from_slice(&[0u8; 1024]);
        assert!(matches!(
            read_frame(&mut Cursor::new(wire), 16),
            Err(FrameError::TooLarge {
                declared: 1024,
                max: 16
            })
        ));
    }

    #[test]
    fn encoded_frames_are_the_written_frames() {
        let message = Request::localize("town", "lss", 7);
        let json = serde_json::to_string(&message).unwrap();
        let mut written = Vec::new();
        write_frame(&mut written, json.as_bytes(), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(encode_frame(&message, DEFAULT_MAX_FRAME).unwrap(), written);
        let mut sent = Vec::new();
        send(&mut sent, &message, json.len()).unwrap();
        assert_eq!(sent, written, "a payload of exactly `max` bytes is sent");
        assert!(matches!(
            send(&mut Vec::new(), &message, json.len() - 1),
            Err(FrameError::TooLarge { declared, max }) if declared == json.len() && max == json.len() - 1
        ));
    }

    #[test]
    fn truncated_frames_error_not_hang() {
        // Mid-prefix cut.
        let mut r = Cursor::new(vec![0u8, 0]);
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME),
            Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof
        ));
        // Mid-payload cut.
        let mut wire = Vec::new();
        wire.extend_from_slice(&8u32.to_be_bytes());
        wire.extend_from_slice(b"abc");
        assert!(matches!(
            read_frame(&mut Cursor::new(wire), DEFAULT_MAX_FRAME),
            Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof
        ));
    }

    fn sample_reply() -> LocalizeReply {
        LocalizeReply {
            deployment: "town".into(),
            solver: "lss".into(),
            seed: 7,
            frame: "relative".into(),
            positions: vec![Some((1.25, -0.5)), None],
            iterations: 42,
            residual: Some(0.125),
            converged: Some(true),
            mean_error_m: Some(0.75),
            localized: 1,
        }
    }

    /// The wire bytes, pinned: derived-enum encoding (unit variant =
    /// string, tuple variant = single-key map to a list, struct
    /// variant/field order = declaration order), with each namespace
    /// nested as a tuple variant of the envelope. Any change here is a
    /// [`PROTOCOL_VERSION`] bump.
    #[test]
    fn golden_frames_are_byte_identical() {
        fn pin<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(message: T, bytes: &str) {
            assert_eq!(serde_json::to_string(&message).unwrap(), bytes);
            assert_eq!(serde_json::from_str::<T>(bytes).unwrap(), message);
        }
        pin(
            Request::Hello { protocol: 4 },
            r#"{"Hello":{"protocol":4}}"#,
        );
        pin(
            Response::Hello {
                protocol: 4,
                server: "rl-serve/x".into(),
            },
            r#"{"Hello":{"protocol":4,"server":"rl-serve/x"}}"#,
        );
        pin(
            Request::localize("town", "lss", 7),
            r#"{"Batch":[{"Localize":{"deployment":"town","solver":"lss","seed":7,"nodes":null}}]}"#,
        );
        pin(
            Response::Batch(batch::Response::Localized(LocalizeReply {
                deployment: "d".into(),
                solver: "s".into(),
                seed: 1,
                frame: "absolute".into(),
                positions: vec![Some((1.5, -2.0)), None],
                iterations: 3,
                residual: None,
                converged: Some(false),
                mean_error_m: None,
                localized: 1,
            })),
            concat!(
                r#"{"Batch":[{"Localized":[{"deployment":"d","solver":"s","seed":1,"#,
                r#""frame":"absolute","positions":[[1.5,-2.0],null],"#,
                r#""iterations":3,"residual":null,"converged":false,"#,
                r#""mean_error_m":null,"localized":1}]}]}"#
            ),
        );
        pin(
            Request::Stream(stream::Request::PushTicks {
                session: 9,
                observations: vec![stream::WireObservation {
                    tick: 0,
                    universe: 2,
                    edges: vec![(0, 1, 9.5, 1.0)],
                    anchors: vec![(0, 0.0, 0.0)],
                    active: vec![0, 1],
                    joined: vec![0, 1],
                    left: vec![],
                    truth: None,
                }],
            }),
            concat!(
                r#"{"Stream":[{"PushTicks":{"session":9,"observations":[{"tick":0,"#,
                r#""universe":2,"edges":[[0,1,9.5,1.0]],"anchors":[[0,0.0,0.0]],"#,
                r#""active":[0,1],"joined":[0,1],"left":[],"truth":null}]}}]}"#
            ),
        );
        pin(
            Response::Error(WireError::new(ErrorCode::Overloaded, "busy")),
            r#"{"Error":[{"code":"Overloaded","message":"busy"}]}"#,
        );
        // Absent `Option` fields read as `None` (the additive-field rule).
        assert_eq!(
            serde_json::from_str::<Request>(
                r#"{"Batch":[{"Localize":{"deployment":"town","solver":"lss","seed":7}}]}"#
            )
            .unwrap(),
            Request::localize("town", "lss", 7)
        );
    }

    #[test]
    fn projections_slice_full_replies_exactly() {
        let reply = sample_reply();
        let p = batch::Projection::slice(&reply, &[1, 0, 0]).unwrap();
        assert_eq!(p.nodes, vec![1, 0, 0]);
        assert_eq!(
            p.positions,
            vec![None, Some((1.25, -0.5)), Some((1.25, -0.5))]
        );
        assert_eq!(p.localized, 2);
        assert_eq!((p.frame.as_str(), p.seed), ("relative", 7));
        // Out-of-universe ids are typed errors.
        assert_eq!(
            batch::Projection::slice(&reply, &[2]).unwrap_err().code,
            ErrorCode::UnknownNode
        );
        // The empty projection is legal (a liveness probe).
        assert_eq!(batch::Projection::slice(&reply, &[]).unwrap().localized, 0);
    }

    #[test]
    fn wire_observations_round_trip_losslessly() {
        let trace = rl_deploy::mobility::preset("town-mobile")
            .unwrap()
            .with_ticks(3)
            .trace(5);
        for obs in trace.iter() {
            let wire = stream::WireObservation::from_observation(obs);
            let json = serde_json::to_string(&wire).unwrap();
            let back: stream::WireObservation = serde_json::from_str(&json).unwrap();
            assert_eq!(back, wire);
            assert_eq!(&back.to_observation().unwrap(), obs);
        }
    }

    #[test]
    fn wire_observations_validate_before_allocating() {
        let ok = stream::WireObservation {
            tick: 0,
            universe: 4,
            edges: vec![(0, 1, 9.0, 1.0)],
            anchors: vec![(0, 0.0, 0.0)],
            active: vec![0, 1],
            joined: vec![],
            left: vec![],
            truth: None,
        };
        assert!(ok.to_observation().is_ok());
        let cases: Vec<(&str, stream::WireObservation)> = vec![
            (
                "oversized universe",
                stream::WireObservation {
                    universe: stream::MAX_UNIVERSE + 1,
                    ..ok.clone()
                },
            ),
            (
                "edge outside universe",
                stream::WireObservation {
                    edges: vec![(0, 4, 9.0, 1.0)],
                    ..ok.clone()
                },
            ),
            (
                "self edge",
                stream::WireObservation {
                    edges: vec![(1, 1, 9.0, 1.0)],
                    ..ok.clone()
                },
            ),
            (
                "non-finite range",
                stream::WireObservation {
                    edges: vec![(0, 1, f64::NAN, 1.0)],
                    ..ok.clone()
                },
            ),
            (
                "zero weight",
                stream::WireObservation {
                    edges: vec![(0, 1, 5.0, 0.0)],
                    ..ok.clone()
                },
            ),
            (
                "negative range",
                stream::WireObservation {
                    edges: vec![(0, 1, -1.0, 1.0)],
                    ..ok.clone()
                },
            ),
            (
                "non-finite weight",
                stream::WireObservation {
                    edges: vec![(0, 1, 5.0, f64::INFINITY)],
                    ..ok.clone()
                },
            ),
            (
                "anchor outside universe",
                stream::WireObservation {
                    anchors: vec![(9, 0.0, 0.0)],
                    ..ok.clone()
                },
            ),
            (
                "active outside universe",
                stream::WireObservation {
                    active: vec![0, 7],
                    ..ok.clone()
                },
            ),
            (
                "short truth",
                stream::WireObservation {
                    truth: Some(vec![(0.0, 0.0)]),
                    ..ok.clone()
                },
            ),
        ];
        for (what, bad) in cases {
            assert_eq!(
                bad.to_observation().unwrap_err().code,
                ErrorCode::InvalidObservation,
                "{what} must be rejected"
            );
        }
    }

    /// Wall bound on building the frame-cap star below through either
    /// untrusted path, beyond parsing its edge list. Built edge by edge in
    /// descending leaf order, the star shifts the hub's sorted row on
    /// every insert; that quadratic build took 1.76–2.20 s in debug and
    /// release builds on a 2-core x86-64 box, so the bound is more than
    /// 20x below it.
    const STAR_DECODE_BOUND: Duration = Duration::from_millis(85);

    /// The largest star whose compact JSON fits one frame, its leaves
    /// listed in descending id order.
    #[test]
    fn a_frame_cap_star_decodes_in_one_sorted_pass() {
        const LEAVES: usize = 75_000;
        let edges: Vec<String> = (1..=LEAVES)
            .rev()
            .map(|leaf| format!("[0,{leaf},1,1]"))
            .collect();
        let edges = edges.join(",");
        let set_json = format!(r#"{{"n":{},"edges":[{edges}]}}"#, LEAVES + 1);
        let wire_json = format!(
            r#"{{"tick":0,"universe":{},"edges":[{edges}],"anchors":[],"active":[],"joined":[],"left":[],"truth":null}}"#,
            LEAVES + 1
        );
        assert!(
            wire_json.len() <= DEFAULT_MAX_FRAME,
            "{} bytes",
            wire_json.len()
        );
        let wire: stream::WireObservation = serde_json::from_str(&wire_json).unwrap();

        // Best of three, so a busy test runner does not fail the bound.
        fn best_of_three<T>(mut decode: impl FnMut() -> T) -> (Duration, T) {
            (0..3)
                .map(|_| {
                    let start = Instant::now();
                    let out = decode();
                    (start.elapsed(), out)
                })
                .min_by_key(|(took, _)| *took)
                .expect("three runs")
        }
        let (wire_took, pushed) = best_of_three(|| wire.to_observation().unwrap().measurements);
        let (serde_took, set) =
            best_of_three(|| serde_json::from_str::<MeasurementSet>(&set_json).unwrap());
        // The text path parses the edge list, then builds; charge it only
        // the building.
        #[derive(Deserialize)]
        struct Edges {
            edges: Vec<(usize, usize, f64, f64)>,
        }
        let (parse_took, _) =
            best_of_three(|| serde_json::from_str::<Edges>(&set_json).unwrap().edges);
        let serde_took = serde_took.saturating_sub(parse_took);

        assert_eq!(pushed, set);
        assert_eq!(set.degree(NodeId(0)), LEAVES);
        assert!(set
            .neighbors_of(NodeId(0))
            .map(|(j, _)| j.index())
            .eq(1..=LEAVES));
        for (path, took) in [("to_observation", wire_took), ("from_str", serde_took)] {
            assert!(took < STAR_DECODE_BOUND, "{path} took {took:?}");
        }
    }

    #[test]
    fn decode_reports_malformed_payloads() {
        assert!(decode::<Request>(b"not json").is_err());
        assert!(decode::<Request>(&[0xFF, 0xFE]).is_err());
        assert!(decode::<Request>(br#"{"NoSuchVariant":{}}"#).is_err());
        assert!(decode::<Response>(br#"{"Error":[]}"#).is_err());
        assert!(decode::<Response>(br#"{"Error":[{},{}]}"#).is_err());
    }
}
