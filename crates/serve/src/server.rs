//! The long-lived localization server.
//!
//! A [`Server`] owns instantiated deployment state (every
//! [`rl_deploy::presets`] scenario, instantiated into solver-ready
//! [`Problem`]s on demand and memoized) and serves
//! [`Request`]s over TCP with four production behaviors:
//!
//! 1. **Concurrency** — every request runs on the thread of the
//!    connection that sent it, so N clients are served in parallel. A
//!    batch solve first takes a turn from a FIFO ticket gate that lets
//!    at most `workers` solves run at once (sized by
//!    [`rl_net::pool::resolve_workers`], the same resolution rule as the
//!    campaign and simulator pools), then runs on that same thread.
//! 2. **Batching** — concurrent requests for the same
//!    `(deployment, solver, seed)` triple coalesce: the first arrival
//!    solves, later arrivals register as waiters on it, and the finished
//!    job fans out to every waiter. The server never solves the same
//!    triple twice concurrently.
//! 3. **Caching** — completed jobs land in an LRU cache keyed by a
//!    problem/config fingerprint ([`job_key`], built on
//!    [`rl_math::fingerprint`]). A job holds its [`LocalizeReply`] and
//!    the full response frame, encoded once when it is solved: the
//!    solving request, its coalesced waiters and every later cache hit
//!    write those same bytes, so a cached frame is **bit-identical** to
//!    the cold one by construction. A projected request (`Localize`
//!    with `nodes`) is served against the same cache by slicing the
//!    stored reply
//!    ([`Projection::slice`](crate::protocol::batch::Projection::slice)).
//! 4. **Sessions** — the protocol's `stream` namespace maps onto
//!    server-owned [`StreamingTracker`] sessions managed by a
//!    [`SessionManager`]: `OpenStream` hands out a capability token,
//!    `PushTicks` feeds observation deltas through the session's tracker
//!    on the pushing connection's own thread, and idle sessions are
//!    reaped by a TTL. A tick never waits for a turn, so batch solves
//!    that hold every turn cannot stall another client's session.
//!
//! Solves and ticks share one panic boundary on the connection thread.
//! A batch solve that panics gives its requester and every coalesced
//! waiter [`ErrorCode::SolveFailed`], nothing is cached, and the turn
//! passes to the next waiting solve. A tick that panics gives the push
//! [`ErrorCode::SolveFailed`], and the poisoned session is evicted.
//!
//! Determinism is inherited from the solving layers: a batch solve seeds
//! its RNG from the request seed alone ([`solve_direct`] is the
//! in-process equivalent, and the integration suite asserts the served
//! reply matches it bitwise), and a session is exactly a
//! [`StreamingTracker`] fed the pushed observations in order — so the
//! turn count, scheduling order, and cache state can never change any
//! byte of any reply.
//!
//! # Lifecycle
//!
//! [`Server::bind`] binds the listener and starts no thread;
//! [`Server::run`] blocks in the accept loop until a
//! [`batch::Request::Shutdown`] arrives, then joins the connection
//! handlers (each finishes the request it is running, waiting solves
//! included) and returns. Connections are read with a short poll tick,
//! so idle timeouts ([`ServeConfig::read_timeout`]) and shutdown both
//! take effect promptly, even mid-frame, without a signal handler.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rl_core::baselines::{CentroidLocalizer, DvHopLocalizer};
use rl_core::distributed::{DistributedConfig, DistributedSolver};
use rl_core::lss::{LssConfig, LssSolver};
use rl_core::mds::MdsMapLocalizer;
use rl_core::multilateration::{MultilaterationConfig, MultilaterationSolver};
use rl_core::problem::{Frame, Localizer, Problem};
use rl_core::tracking::{StreamingTracker, TrackerConfig};
use rl_deploy::Scenario;
use rl_deploy::{mobility, presets};
use rl_math::Fnv1a;
use rl_net::RadioModel;

use crate::cache::LruCache;
use crate::protocol::{
    self, batch, stream, ErrorCode, FrameError, LocalizeReply, Request, Response, ServerStats,
    WireError, PROTOCOL_VERSION,
};
use crate::session::{Clock, SessionManager, SystemClock};

/// Poll tick for connection reads: short enough that idle timeouts and
/// shutdown are prompt, long enough to stay invisible in profiles.
const READ_TICK: Duration = Duration::from_millis(25);

/// The paper's 22 m ranging cutoff, used by the connectivity-based
/// solver registry entries (DV-hop, centroid).
const RANGE_M: f64 = 22.0;

/// Names accepted in [`batch::Request::Localize`]'s `solver` field, in
/// registry order. Each maps to the same configuration the benchmark
/// harness runs at metro scale, so served numbers match the campaign
/// record.
pub const SOLVER_NAMES: &[&str] = &[
    "lss",
    "multilateration",
    "multilateration-progressive",
    "distributed-lss",
    "mds-map",
    "dv-hop",
    "centroid",
];

/// Names accepted in [`stream::TrackerSpec::preset`], in registry order.
pub const TRACKER_PRESET_NAMES: &[&str] = &["default", "metro"];

/// Resolves a solver registry name, or `None` for an unknown name.
pub fn make_solver(name: &str) -> Option<Box<dyn Localizer>> {
    match name {
        "lss" => Some(Box::new(LssSolver::new(LssConfig::metro()))),
        "multilateration" => Some(Box::new(MultilaterationSolver::new(
            MultilaterationConfig::paper(),
        ))),
        "multilateration-progressive" => Some(Box::new(MultilaterationSolver::new(
            MultilaterationConfig::paper().progressive(),
        ))),
        "distributed-lss" => Some(Box::new(DistributedSolver::new(DistributedConfig::metro()))),
        "mds-map" => Some(Box::new(MdsMapLocalizer::new())),
        "dv-hop" => Some(Box::new(DvHopLocalizer::new(RadioModel::ideal(RANGE_M)))),
        "centroid" => Some(Box::new(CentroidLocalizer::new(RANGE_M))),
        #[cfg(test)]
        tests::PANICKING_SOLVER => Some(Box::new(tests::Panicking)),
        _ => None,
    }
}

/// Resolves a [`stream::TrackerSpec`] into a [`TrackerConfig`], or
/// `None` for an unknown preset name. Pure — sessions opened from equal
/// specs always track identically.
pub fn make_tracker_config(spec: &stream::TrackerSpec, seed: u64) -> Option<TrackerConfig> {
    let mut config = match spec.preset.as_str() {
        "default" => TrackerConfig::new(seed),
        "metro" => TrackerConfig::metro(seed),
        _ => return None,
    };
    if let Some(steps) = spec.steps_per_tick {
        config = config.with_steps_per_tick(steps as usize);
    }
    if let Some(fraction) = spec.churn_restart_fraction {
        config = config.with_churn_restart_fraction(fraction);
    }
    Some(config)
}

/// Server configuration. Set fields directly (struct-update syntax over
/// [`Default`]) or through the few builder setters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port (the default,
    /// `127.0.0.1:0`, is what the tests and benches use).
    pub addr: String,
    /// Batch solves that may run at once; `0` means the machine's
    /// available parallelism (the [`rl_net::pool::resolve_workers`]
    /// rule).
    pub workers: usize,
    /// Solution-cache capacity (entries). An entry holds a reply and
    /// its encoded full response frame: about 2.6 KB of frame for town,
    /// 10 KB for metro-250 and 40 KB for metro-1000, so the default 512
    /// entries hold at most about 20 MB of frames at metro-1000.
    pub cache_capacity: usize,
    /// Instantiated-[`Problem`] memo capacity (entries). Problems are
    /// much heavier than replies, so this is kept small.
    pub problem_capacity: usize,
    /// Idle timeout per connection: a connection with no complete frame
    /// for this long is closed.
    pub read_timeout: Duration,
    /// Maximum accepted frame size (bytes).
    pub max_frame: usize,
    /// Bound on batch solves waiting for a turn: a localize miss arriving
    /// while this many solves already wait is rejected with
    /// [`ErrorCode::Overloaded`] instead of queued (cache hits and
    /// coalesced joins are unaffected — they never take a turn, and
    /// neither do pushed ticks). `0` means unbounded.
    pub queue_depth: usize,
    /// Test instrumentation: a minimum wall-clock floor applied to every
    /// batch solve once it has its turn (pushed ticks never see it). The
    /// batching, quota and isolation tests use it to hold work in
    /// flight long enough that races become *deterministic*; production
    /// configurations leave it at zero (a no-op).
    pub solve_floor: Duration,
    /// Idle TTL for streaming sessions: a session untouched for this
    /// long is evicted (later use answers
    /// [`ErrorCode::SessionEvicted`]). `Duration::ZERO` disables
    /// eviction.
    pub session_ttl: Duration,
    /// Maximum concurrently open streaming sessions; opens beyond it are
    /// rejected with [`ErrorCode::Overloaded`]. `0` means unbounded.
    pub session_capacity: usize,
    /// Time source for session TTL eviction; `None` means the monotonic
    /// [`SystemClock`]. Tests inject a
    /// [`ManualClock`](crate::session::ManualClock) to make eviction
    /// deterministic.
    pub clock: Option<Arc<dyn Clock>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            cache_capacity: 512,
            problem_capacity: 16,
            read_timeout: Duration::from_secs(30),
            max_frame: protocol::DEFAULT_MAX_FRAME,
            queue_depth: 1024,
            solve_floor: Duration::ZERO,
            session_ttl: Duration::from_secs(300),
            session_capacity: 64,
            clock: None,
        }
    }
}

impl ServeConfig {
    /// Sets the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets how many batch solves may run at once (`0` = auto).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the job wall-clock floor (test instrumentation; see the
    /// field docs).
    pub fn with_solve_floor(mut self, floor: Duration) -> Self {
        self.solve_floor = floor;
        self
    }
}

/// The FIFO ticket gate that bounds the batch solves running at once:
/// a miss draws the next ticket and solves once every earlier ticket is
/// admitted and fewer than `workers` solves run.
#[derive(Default)]
struct Turns {
    /// Solves holding a turn.
    running: usize,
    /// Tickets drawn so far.
    issued: u64,
    /// Tickets admitted so far; `issued - admitted` wait.
    admitted: u64,
}

/// A solved localize job, as the cache and the in-flight hand-off hold
/// it: the reply, which projections slice, and the full response frame
/// (length prefix included), encoded once when the job is solved and
/// written as is to every request for the full reply.
struct Solved {
    reply: LocalizeReply,
    frame: Vec<u8>,
}

impl Solved {
    fn new(reply: LocalizeReply) -> Solved {
        let response = Response::from(batch::Response::Localized(reply.clone()));
        let frame = protocol::encode_frame(&response, usize::MAX)
            .expect("the server sends frames of any size");
        Solved { reply, frame }
    }
}

type SolveResult = Result<Arc<Solved>, WireError>;

struct PresetEntry {
    name: String,
    scenario: Scenario,
    /// Fingerprint of the preset's full configuration (name + scenario
    /// JSON), folded into every job's cache key.
    digest: u64,
}

struct Shared {
    config: ServeConfig,
    /// The bound address; shutdown connects to it to wake the accept
    /// loop.
    local_addr: SocketAddr,
    resolved_workers: usize,
    presets: Vec<PresetEntry>,
    turns: Mutex<Turns>,
    turn_cv: Condvar,
    /// In-flight solves: cache key -> coalesced waiters. Lock order is
    /// `inflight` before `cache` (the solving connection publishes
    /// results under both).
    inflight: Mutex<HashMap<u64, Vec<mpsc::Sender<SolveResult>>>>,
    cache: Mutex<LruCache<u64, Arc<Solved>>>,
    problems: Mutex<LruCache<(usize, u64), Arc<Problem>>>,
    sessions: SessionManager,
    stop: AtomicBool,
    requests: AtomicU64,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
    solves_started: AtomicU64,
    solves: AtomicU64,
    errors: AtomicU64,
    overloaded: AtomicU64,
}

impl Shared {
    fn preset_index(&self, name: &str) -> Option<usize> {
        self.presets.iter().position(|p| p.name == name)
    }

    fn stats(&self) -> ServerStats {
        let batch_queued = {
            let turns = self.turns.lock().expect("turns lock");
            turns.issued - turns.admitted
        };
        let cache = self.cache.lock().expect("cache lock");
        ServerStats {
            protocol: PROTOCOL_VERSION,
            workers: self.resolved_workers as u64,
            deployments: self.presets.iter().map(|p| p.name.clone()).collect(),
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            solves_started: self.solves_started.load(Ordering::Relaxed),
            solves: self.solves.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            cache_entries: cache.len() as u64,
            cache_capacity: cache.capacity() as u64,
            queue_depth: self.config.queue_depth as u64,
            overloaded: self.overloaded.load(Ordering::Relaxed),
            sessions_open: self.sessions.open_count(),
            sessions_evicted: self.sessions.evicted_count(),
            session_capacity: self.sessions.capacity() as u64,
            ticks_served: self.sessions.ticks_served(),
            batch_queued,
        }
    }

    /// The memoized problem for `(preset, seed)`, instantiating on a
    /// miss. Instantiation happens outside the lock (it can be heavy at
    /// metro scale); a racing duplicate instantiation is bit-identical
    /// by the scenario determinism contract, so last-write-wins is
    /// harmless.
    fn problem(&self, preset: usize, seed: u64) -> Arc<Problem> {
        if let Some(p) = self
            .problems
            .lock()
            .expect("problems lock")
            .get(&(preset, seed))
        {
            return Arc::clone(p);
        }
        let problem = Arc::new(self.presets[preset].scenario.instantiate(seed));
        self.problems
            .lock()
            .expect("problems lock")
            .insert((preset, seed), Arc::clone(&problem));
        problem
    }

    /// Waits for a turn to solve, in arrival order. Refuses with
    /// [`ErrorCode::Overloaded`] once `queue_depth` misses already wait.
    fn take_turn(&self) -> Result<(), WireError> {
        let mut turns = self.turns.lock().expect("turns lock");
        let depth = self.config.queue_depth as u64;
        if depth > 0 && turns.issued - turns.admitted >= depth {
            self.overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(WireError::new(
                ErrorCode::Overloaded,
                format!("batch solve queue is full ({depth} waiting); retry after a backoff"),
            ));
        }
        let ticket = turns.issued;
        turns.issued += 1;
        while ticket != turns.admitted || turns.running >= self.resolved_workers {
            turns = self.turn_cv.wait(turns).expect("turns lock");
        }
        turns.admitted += 1;
        turns.running += 1;
        drop(turns);
        // The next ticket may fit in a free turn too.
        self.turn_cv.notify_all();
        Ok(())
    }

    fn end_turn(&self) {
        self.turns.lock().expect("turns lock").running -= 1;
        self.turn_cv.notify_all();
    }
}

/// The problem/config fingerprint a solve is cached under: preset
/// digest, solver registry name, and instantiation seed, hashed with
/// the shared prefix-free [`Fnv1a`] writers.
pub fn job_key(preset_digest: u64, solver: &str, seed: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(preset_digest);
    h.write_str(solver);
    h.write_u64(seed);
    h.finish()
}

/// Fingerprint of a preset's full configuration: its registry name plus
/// the canonical JSON encoding of its scenario (deployment geometry,
/// anchors, error model — everything that decides the measurements).
pub fn preset_digest(name: &str, scenario: &Scenario) -> u64 {
    let json = serde_json::to_string(scenario).expect("scenarios serialize infallibly");
    let mut h = Fnv1a::new();
    h.write_str(name);
    h.write_str(&json);
    h.finish()
}

/// The canonical identity of an [`stream::Request::OpenStream`]: what
/// the session token is fingerprinted from (plus a per-server nonce).
fn open_identity(source: &stream::StreamSource, spec: &stream::TrackerSpec, seed: u64) -> String {
    let source = serde_json::to_string(source).expect("stream sources serialize infallibly");
    let spec = serde_json::to_string(spec).expect("tracker specs serialize infallibly");
    format!("{source}|{spec}|{seed}")
}

/// Builds the reply for a solved problem. Fails (typed) when the solver
/// errors or produces coordinates the wire cannot carry exactly.
fn reply_for(
    problem: &Problem,
    deployment: &str,
    solver_name: &str,
    seed: u64,
) -> Result<LocalizeReply, WireError> {
    let solver = make_solver(solver_name)
        .ok_or_else(|| WireError::new(ErrorCode::UnknownSolver, solver_name))?;
    let mut rng = rl_math::rng::seeded(seed);
    let solution = solver
        .localize(problem, &mut rng)
        .map_err(|e| WireError::new(ErrorCode::SolveFailed, e.to_string()))?;
    let map = solution.positions();
    let mut positions = Vec::with_capacity(map.len());
    let mut localized = 0u64;
    for i in 0..map.len() {
        match map.get(rl_core::types::NodeId(i)) {
            Some(p) => {
                if !p.x.is_finite() || !p.y.is_finite() {
                    return Err(WireError::new(
                        ErrorCode::SolveFailed,
                        format!("node {i} has a non-finite position estimate"),
                    ));
                }
                positions.push(Some((p.x, p.y)));
                localized += 1;
            }
            None => positions.push(None),
        }
    }
    let stats = solution.stats();
    Ok(LocalizeReply {
        deployment: deployment.to_string(),
        solver: solver_name.to_string(),
        seed,
        frame: match solution.frame() {
            Frame::Absolute => "absolute".to_string(),
            Frame::Relative => "relative".to_string(),
        },
        positions,
        iterations: stats.iterations as u64,
        residual: stats.residual,
        converged: stats.converged,
        mean_error_m: problem.evaluate(&solution).ok().map(|e| e.mean_error),
        localized,
    })
}

/// The in-process equivalent of one served [`batch::Request::Localize`]:
/// the canonical reference the integration tests compare served replies
/// against, bit for bit. (The server runs exactly this computation,
/// with the problem memoized.)
///
/// # Errors
///
/// The same typed errors a server would send: unknown deployment or
/// solver, or a failed solve.
pub fn solve_direct(deployment: &str, solver: &str, seed: u64) -> Result<LocalizeReply, WireError> {
    let scenario = presets::preset(deployment)
        .ok_or_else(|| WireError::new(ErrorCode::UnknownDeployment, deployment))?;
    let problem = scenario.instantiate(seed);
    reply_for(&problem, deployment, solver, seed)
}

/// A bound, running localization server. See the module docs.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and loads the preset registry; no thread
    /// starts. The server does not accept connections until
    /// [`Server::run`] is called.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let resolved_workers = rl_net::pool::resolve_workers(config.workers, usize::MAX);
        let presets = presets::all()
            .into_iter()
            .map(|(name, scenario)| PresetEntry {
                digest: preset_digest(name, &scenario),
                name: name.to_string(),
                scenario,
            })
            .collect();
        let clock: Arc<dyn Clock> = config
            .clock
            .clone()
            .unwrap_or_else(|| Arc::new(SystemClock::new()));
        let sessions = SessionManager::new(clock, config.session_ttl, config.session_capacity);
        let shared = Arc::new(Shared {
            local_addr,
            resolved_workers,
            presets,
            turns: Mutex::new(Turns::default()),
            turn_cv: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            problems: Mutex::new(LruCache::new(config.problem_capacity)),
            sessions,
            stop: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            solves_started: AtomicU64::new(0),
            solves: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            config,
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves port `0` to the actual ephemeral
    /// port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Serves connections until a [`batch::Request::Shutdown`] arrives,
    /// then joins the connection handlers (each finishes the request it
    /// is running, solves included) and returns. Handlers of closed
    /// connections are joined as each new connection is accepted.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures other than per-connection
    /// errors (which are logged to stderr and skipped).
    pub fn run(self) -> io::Result<()> {
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    reap_finished(&mut handlers);
                    let shared = Arc::clone(&self.shared);
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(stream, &shared)
                    }));
                }
                Err(e) => {
                    eprintln!("rl-serve: accept failed: {e}");
                }
            }
        }
        // Shutdown: handlers answer the request they are running and
        // notice the stop flag on their next read tick.
        for h in handlers {
            let _ = h.join();
        }
        Ok(())
    }

    /// Convenience for tests and benches: binds and serves on a
    /// background thread, returning the bound address and the serving
    /// thread's handle (joinable after a shutdown request).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(config: ServeConfig) -> io::Result<(SocketAddr, JoinHandle<io::Result<()>>)> {
        let server = Server::bind(config)?;
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        Ok((addr, handle))
    }
}

/// Requests a shutdown: raises the stop flag and pokes the accept loop
/// awake with a throwaway connection.
fn trigger_shutdown(shared: &Shared) {
    shared.stop.store(true, Ordering::SeqCst);
    // Unblock the blocking accept; the loop re-checks the stop flag.
    let _ = TcpStream::connect(shared.local_addr);
}

/// The typed error for a deployment outside the preset registry.
fn unknown_deployment(deployment: &str) -> WireError {
    WireError::new(
        ErrorCode::UnknownDeployment,
        format!(
            "unknown deployment `{deployment}` (serveable: {})",
            presets::NAMES.join(", ")
        ),
    )
}

/// The cache/coalesce/solve core of a localize request; returns the
/// solved job every response shape is derived from.
fn localize_job(shared: &Shared, deployment: &str, solver: &str, seed: u64) -> SolveResult {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    let Some(preset) = shared.preset_index(deployment) else {
        return Err(unknown_deployment(deployment));
    };
    if make_solver(solver).is_none() {
        return Err(WireError::new(
            ErrorCode::UnknownSolver,
            format!(
                "unknown solver `{solver}` (serveable: {})",
                SOLVER_NAMES.join(", ")
            ),
        ));
    }
    let key = job_key(shared.presets[preset].digest, solver, seed);

    let mut inflight = shared.inflight.lock().expect("inflight lock");
    if let Some(waiters) = inflight.get_mut(&key) {
        // An identical solve is already in flight: join it.
        shared.coalesced.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        waiters.push(tx);
        drop(inflight);
        return rx.recv().unwrap_or_else(|_| {
            Err(WireError::new(
                ErrorCode::SolveFailed,
                "the coalesced solve was abandoned",
            ))
        });
    }
    // Bound to a local so the cache guard drops before the solve.
    let cached = shared.cache.lock().expect("cache lock").get(&key).cloned();
    if let Some(solved) = cached {
        shared.cache_hits.fetch_add(1, Ordering::Relaxed);
        return Ok(solved);
    }
    inflight.insert(key, Vec::new());
    drop(inflight);
    // The frame is encoded once, after the turn is released.
    let result = solve_miss(shared, preset, solver, seed).map(|reply| Arc::new(Solved::new(reply)));
    // Publish: cache (successes only) and waiter hand-off happen under
    // the in-flight lock so no request can fall between "not in flight"
    // and "not yet cached".
    let waiters = {
        let mut inflight = shared.inflight.lock().expect("inflight lock");
        if let Ok(solved) = &result {
            shared
                .cache
                .lock()
                .expect("cache lock")
                .insert(key, Arc::clone(solved));
        }
        inflight.remove(&key).unwrap_or_default()
    };
    for tx in waiters {
        let _ = tx.send(result.clone());
    }
    result
}

/// Solves a miss on the requesting connection's thread once it has a
/// turn. A panicking solve becomes a typed failure for the requester and
/// its waiters ([`fail_on_panic`]), and the turn is released either way.
fn solve_miss(
    shared: &Shared,
    preset: usize,
    solver: &str,
    seed: u64,
) -> Result<LocalizeReply, WireError> {
    shared.take_turn()?;
    // "Started" means admitted: the gauge moves before the solve floor
    // so tests (and operators) can observe an occupied turn.
    shared.solves_started.fetch_add(1, Ordering::Relaxed);
    let result = fail_on_panic(
        || {
            std::thread::sleep(shared.config.solve_floor);
            let problem = shared.problem(preset, seed);
            reply_for(&problem, &shared.presets[preset].name, solver, seed)
        },
        || format!("solver `{solver}` panicked"),
    );
    shared.solves.fetch_add(1, Ordering::Relaxed);
    shared.end_turn();
    result
}

/// The server's one panic boundary, shared by batch solves and pushed
/// ticks: runs `work` on the calling connection's thread and turns a
/// panic into [`ErrorCode::SolveFailed`] carrying `message()`.
fn fail_on_panic<T>(
    work: impl FnOnce() -> Result<T, WireError>,
    message: impl FnOnce() -> String,
) -> Result<T, WireError> {
    catch_unwind(AssertUnwindSafe(work))
        .unwrap_or_else(|_| Err(WireError::new(ErrorCode::SolveFailed, message())))
}

/// Handles [`stream::Request::OpenStream`]: resolves the source and
/// tracker spec, then asks the [`SessionManager`] for a token.
fn handle_open(
    shared: &Shared,
    source: &stream::StreamSource,
    spec: &stream::TrackerSpec,
    seed: u64,
) -> Response {
    let universe = match source {
        stream::StreamSource::Preset { name } => match mobility::preset(name) {
            Some(scenario) => scenario.base.deployment.len(),
            None => {
                return Response::Error(WireError::new(
                    ErrorCode::UnknownDeployment,
                    format!(
                        "unknown mobility preset `{name}` (serveable: {})",
                        mobility::NAMES.join(", ")
                    ),
                ));
            }
        },
        stream::StreamSource::Custom { deployment, .. } => match presets::preset(deployment) {
            Some(scenario) => scenario.deployment.len(),
            None => return Response::Error(unknown_deployment(deployment)),
        },
    };
    let Some(config) = make_tracker_config(spec, seed) else {
        return Response::Error(WireError::new(
            ErrorCode::UnknownSolver,
            format!(
                "unknown tracker preset `{}` (serveable: {})",
                spec.preset,
                TRACKER_PRESET_NAMES.join(", ")
            ),
        ));
    };
    let tracker = StreamingTracker::with_lss(config);
    match shared
        .sessions
        .open(&open_identity(source, spec, seed), universe, tracker)
    {
        Ok(session) => stream::Response::StreamOpened {
            session,
            universe: universe as u64,
        }
        .into(),
        Err(err) => {
            if err.code == ErrorCode::Overloaded {
                shared.overloaded.fetch_add(1, Ordering::Relaxed);
            }
            Response::Error(err)
        }
    }
}

/// Handles [`stream::Request::PushTicks`]: validates and converts the
/// observations, then feeds them through the session's tracker on this
/// connection's thread.
fn handle_push(
    shared: &Shared,
    session: u64,
    observations: &[stream::WireObservation],
) -> Response {
    let mut converted = Vec::with_capacity(observations.len());
    for obs in observations {
        match obs.to_observation() {
            Ok(obs) => converted.push(obs),
            Err(err) => return Response::Error(err),
        }
    }
    // A panicking tick poisons only its own session, which the next
    // lookup evicts.
    let result = fail_on_panic(
        || shared.sessions.process(session, &converted),
        || "tick processing panicked; the session is evicted".into(),
    );
    match result {
        Ok(reply) => stream::Response::TicksPushed(reply).into(),
        Err(err) => Response::Error(err),
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    // No Nagle: the protocol is strict request/response with small
    // frames, so coalescing delay is pure added latency.
    if stream.set_nodelay(true).is_err()
        || stream.set_read_timeout(Some(READ_TICK)).is_err()
        || stream
            .set_write_timeout(Some(shared.config.read_timeout))
            .is_err()
    {
        return;
    }
    loop {
        let polled = &mut Polled {
            stream: &stream,
            shared,
        };
        let payload = match protocol::read_frame(polled, shared.config.max_frame) {
            Ok(Some(payload)) => payload,
            Err(err @ FrameError::TooLarge { .. }) => {
                // Typed rejection, then close: past an oversized length
                // declaration the byte stream is unsynchronized.
                let response =
                    Response::Error(WireError::new(ErrorCode::FrameTooLarge, err.to_string()));
                let _ = send_response(&mut stream, shared, &response);
                return;
            }
            // A clean close, the idle timeout, shutdown, or a transport
            // failure: nothing to answer.
            Ok(None) | Err(FrameError::Io(_)) => return,
        };
        let request: Request = match protocol::decode(&payload) {
            Ok(request) => request,
            Err(reason) => {
                // The frame boundary was intact, so the connection can
                // keep serving after the typed rejection.
                let response = Response::Error(WireError::new(ErrorCode::MalformedFrame, reason));
                if !send_response(&mut stream, shared, &response) {
                    return;
                }
                continue;
            }
        };
        let response = match request {
            Request::Hello { protocol } if protocol == PROTOCOL_VERSION => Response::Hello {
                protocol,
                server: concat!("rl-serve/", env!("CARGO_PKG_VERSION")).to_string(),
            },
            Request::Hello { protocol } => Response::Error(WireError::new(
                ErrorCode::UnsupportedProtocol,
                format!("client speaks v{protocol}, server speaks v{PROTOCOL_VERSION}"),
            )),
            Request::Batch(batch::Request::Status) => {
                batch::Response::Status(shared.stats()).into()
            }
            Request::Batch(batch::Request::Shutdown) => {
                // Ack first; shutdown is terminal for the connection.
                let _ = send_response(&mut stream, shared, &batch::Response::ShuttingDown.into());
                trigger_shutdown(shared);
                return;
            }
            _ if shared.stop.load(Ordering::SeqCst) => Response::Error(WireError::new(
                ErrorCode::ShuttingDown,
                "server is shutting down",
            )),
            Request::Batch(batch::Request::Localize {
                deployment,
                solver,
                seed,
                nodes,
            }) => match (localize_job(shared, &deployment, &solver, seed), nodes) {
                (Err(err), _) => Response::Error(err),
                // The full reply: the frame its solve encoded, as is.
                (Ok(solved), None) => {
                    if stream.write_all(&solved.frame).is_err() {
                        return;
                    }
                    continue;
                }
                // A projection slices the same (possibly cached) reply,
                // so it is byte-identical to slicing a full frame
                // client-side.
                (Ok(solved), Some(nodes)) => {
                    match batch::Projection::slice(&solved.reply, &nodes) {
                        Ok(projection) => batch::Response::Projected(projection).into(),
                        Err(err) => Response::Error(err),
                    }
                }
            },
            Request::Stream(stream::Request::OpenStream {
                source,
                tracker,
                seed,
            }) => handle_open(shared, &source, &tracker, seed),
            Request::Stream(stream::Request::PushTicks {
                session,
                observations,
            }) => handle_push(shared, session, &observations),
            Request::Stream(stream::Request::ReadSolution { session, nodes }) => {
                match shared.sessions.read(session, nodes.as_deref()) {
                    Ok(reply) => stream::Response::Solution(reply).into(),
                    Err(err) => Response::Error(err),
                }
            }
            Request::Stream(stream::Request::CloseStream { session }) => {
                match shared.sessions.close(session) {
                    Ok(ticks) => stream::Response::StreamClosed { session, ticks }.into(),
                    Err(err) => Response::Error(err),
                }
            }
        };
        if !send_response(&mut stream, shared, &response) {
            return;
        }
    }
}

/// The connection's byte source for [`protocol::read_frame`]. Each read
/// retries [`READ_TICK`] timeouts until [`ServeConfig::read_timeout`]
/// passes with no byte, and fails once the server stops, so the idle
/// timeout and shutdown both take effect mid-frame.
struct Polled<'a> {
    stream: &'a TcpStream,
    shared: &'a Shared,
}

impl Read for Polled<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut idle = Duration::ZERO;
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                return Err(io::Error::other("server is shutting down"));
            }
            match self.stream.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    idle += READ_TICK;
                    if idle >= self.shared.config.read_timeout {
                        return Err(e);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                result => return result,
            }
        }
    }
}

fn send_response(stream: &mut TcpStream, shared: &Shared, response: &Response) -> bool {
    if matches!(response, Response::Error(_)) {
        shared.errors.fetch_add(1, Ordering::Relaxed);
    }
    protocol::send(stream, response, usize::MAX).is_ok()
}

/// Joins and drops the handles of connection threads that have already
/// exited, so a long-running server holds one handle (and its thread's
/// stack reservation) per open connection, not per connection ever
/// accepted.
fn reap_finished(handlers: &mut Vec<JoinHandle<()>>) {
    for finished in handlers.extract_if(.., |h| h.is_finished()) {
        let _ = finished.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientError};

    /// A registry name only test builds resolve: a solver that panics.
    pub(super) const PANICKING_SOLVER: &str = "test-panic";

    pub(super) struct Panicking;

    impl Localizer for Panicking {
        fn name(&self) -> &str {
            PANICKING_SOLVER
        }

        fn localize(
            &self,
            _problem: &Problem,
            _rng: &mut dyn rand::RngCore,
        ) -> rl_core::Result<rl_core::problem::Solution> {
            panic!("deliberate solver panic");
        }
    }

    fn failed_code(result: Result<LocalizeReply, ClientError>) -> ErrorCode {
        match result {
            Err(ClientError::Server(e)) => e.code,
            other => panic!("expected a typed server error, got {other:?}"),
        }
    }

    #[test]
    fn panicking_solve_fails_typed_and_keeps_the_worker() {
        // One worker, and a floor long enough for a duplicate to join the
        // panicking solve while it is in flight. The reply timeout turns
        // a stalled request into a failure instead of a hang.
        let config = ServeConfig::default()
            .with_workers(1)
            .with_solve_floor(Duration::from_millis(200));
        let (addr, handle) = Server::spawn(config).unwrap();
        let connect = move || {
            let mut client = Client::connect(addr).unwrap();
            client
                .set_reply_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            client
        };
        let first = std::thread::spawn(move || connect().localize("town", PANICKING_SOLVER, 1));
        let mut control = connect();
        while control.status().unwrap().solves_started < 1 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let coalesced = connect().localize("town", PANICKING_SOLVER, 1);
        assert_eq!(failed_code(coalesced), ErrorCode::SolveFailed);
        assert_eq!(failed_code(first.join().unwrap()), ErrorCode::SolveFailed);
        // Nothing was cached and the key is no longer in flight: a repeat
        // solves (and fails) again instead of waiting forever.
        let again = control.localize("town", PANICKING_SOLVER, 1);
        assert_eq!(failed_code(again), ErrorCode::SolveFailed);
        // The one turn is free again after both panics.
        let reply = control
            .localize("parking-lot", "multilateration", 3)
            .unwrap();
        assert_eq!(
            reply,
            solve_direct("parking-lot", "multilateration", 3).unwrap()
        );

        let stats = control.status().unwrap();
        control.shutdown().unwrap();
        handle.join().unwrap().unwrap();
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.solves, 3, "two panicking solves, one normal one");
        assert!(
            stats.coalesced >= 1,
            "the duplicate joined the in-flight solve"
        );
        assert_eq!(stats.cache_entries, 1, "only the normal reply is cached");
    }

    #[test]
    fn cache_hits_write_the_frame_their_solve_encoded() {
        let server = Server::bind(ServeConfig::default()).unwrap();
        let shared = Arc::clone(&server.shared);
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let mut client = Client::connect(addr).unwrap();
        let request = Request::localize("parking-lot", "centroid", 5);
        let cold = client.request_raw(&request).unwrap();

        // Every hit answers from the one stored job, whose frame is the
        // cold reply's.
        let job = || localize_job(&shared, "parking-lot", "centroid", 5).unwrap();
        let stored = job();
        assert!(Arc::ptr_eq(&stored, &job()), "hits share the stored job");
        assert_eq!(stored.frame[4..], cold[..]);
        assert_eq!(shared.solves.load(Ordering::Relaxed), 1);

        // Plant another reply's frame in the entry: a hit must write the
        // stored bytes, not encode the stored reply again.
        let other = solve_direct("parking-lot", "centroid", 6).unwrap();
        let planted = Solved {
            reply: stored.reply.clone(),
            frame: Solved::new(other.clone()).frame,
        };
        let preset = shared.preset_index("parking-lot").unwrap();
        let key = job_key(shared.presets[preset].digest, "centroid", 5);
        shared.cache.lock().unwrap().insert(key, Arc::new(planted));
        let hit = client.request_raw(&request).unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
        match protocol::decode(&hit).unwrap() {
            Response::Batch(batch::Response::Localized(reply)) => assert_eq!(reply, other),
            other => panic!("expected Localized, got {other:?}"),
        }
    }

    #[test]
    fn reaping_joins_exited_handlers_and_keeps_running_ones() {
        let (release, parked) = mpsc::channel::<()>();
        let mut handlers: Vec<JoinHandle<()>> = (0..3).map(|_| std::thread::spawn(|| {})).collect();
        handlers.push(std::thread::spawn(move || {
            let _ = parked.recv();
        }));
        while !handlers[..3].iter().all(JoinHandle::is_finished) {
            std::thread::yield_now();
        }
        reap_finished(&mut handlers);
        assert_eq!(handlers.len(), 1, "only the parked handler is left");
        assert!(!handlers[0].is_finished());
        release.send(()).expect("parked thread listens");
        handlers
            .pop()
            .expect("one handler")
            .join()
            .expect("exits cleanly");
    }

    #[test]
    fn solver_registry_resolves_every_listed_name() {
        for &name in SOLVER_NAMES {
            assert!(make_solver(name).is_some(), "solver {name} must resolve");
        }
        assert!(make_solver("gradient-descent-from-mars").is_none());
    }

    #[test]
    fn tracker_registry_resolves_every_listed_preset() {
        for &name in TRACKER_PRESET_NAMES {
            let spec = stream::TrackerSpec {
                preset: name.to_string(),
                ..stream::TrackerSpec::default()
            };
            assert!(
                make_tracker_config(&spec, 7).is_some(),
                "tracker preset {name} must resolve"
            );
        }
        let unknown = stream::TrackerSpec {
            preset: "imaginary".to_string(),
            ..stream::TrackerSpec::default()
        };
        assert!(make_tracker_config(&unknown, 7).is_none());
        let tweaked = stream::TrackerSpec {
            preset: "default".to_string(),
            steps_per_tick: Some(9),
            churn_restart_fraction: Some(0.5),
        };
        let config = make_tracker_config(&tweaked, 7).unwrap();
        assert_eq!(config.warm.max_iterations, 9);
        assert_eq!(config.churn_restart_fraction, 0.5);
    }

    #[test]
    fn job_keys_separate_every_axis() {
        let d1 = 0x1111;
        let d2 = 0x2222;
        let base = job_key(d1, "lss", 7);
        assert_ne!(base, job_key(d2, "lss", 7));
        assert_ne!(base, job_key(d1, "mds-map", 7));
        assert_ne!(base, job_key(d1, "lss", 8));
        assert_eq!(base, job_key(d1, "lss", 7));
    }

    #[test]
    fn preset_digests_are_stable_and_distinct() {
        let town = presets::preset("town").unwrap();
        let grass = presets::preset("grass-grid").unwrap();
        assert_eq!(preset_digest("town", &town), preset_digest("town", &town));
        assert_ne!(
            preset_digest("town", &town),
            preset_digest("grass-grid", &grass)
        );
        // Same geometry under a different registry name is a different
        // serveable thing.
        assert_ne!(preset_digest("town", &town), preset_digest("town2", &town));
    }

    #[test]
    fn solve_direct_is_deterministic_and_typed_on_bad_input() {
        let a = solve_direct("parking-lot", "multilateration", 3).unwrap();
        let b = solve_direct("parking-lot", "multilateration", 3).unwrap();
        assert_eq!(a, b);
        for (pa, pb) in a.positions.iter().zip(&b.positions) {
            match (pa, pb) {
                (Some(pa), Some(pb)) => {
                    assert_eq!(pa.0.to_bits(), pb.0.to_bits());
                    assert_eq!(pa.1.to_bits(), pb.1.to_bits());
                }
                (None, None) => {}
                _ => panic!("localization sets diverged"),
            }
        }
        assert_eq!(
            solve_direct("nowhere", "lss", 1).unwrap_err().code,
            ErrorCode::UnknownDeployment
        );
        assert_eq!(
            solve_direct("town", "nosolver", 1).unwrap_err().code,
            ErrorCode::UnknownSolver
        );
    }
}
