//! The long-lived localization server.
//!
//! A [`Server`] owns instantiated deployment state (every
//! [`rl_deploy::presets`] scenario, instantiated into solver-ready
//! [`Problem`]s on demand and memoized) and serves
//! [`Request`]s over TCP with four production behaviors:
//!
//! 1. **Concurrency** — a fixed pool of solver workers (sized by
//!    [`rl_net::pool::resolve_workers`], the same resolution rule as the
//!    campaign and simulator pools) drains the shared job queues, so N
//!    clients are served in parallel while connection threads stay thin
//!    (framing and dispatch only).
//! 2. **Batching** — concurrent requests for the same
//!    `(deployment, solver, seed)` triple coalesce: the first arrival
//!    enqueues one solve, later arrivals register as waiters on it, and
//!    the finished [`LocalizeReply`] fans out to every waiter. The
//!    server never solves the same triple twice concurrently.
//! 3. **Caching** — completed replies land in an LRU cache keyed by a
//!    problem/config fingerprint ([`job_key`], built on
//!    [`rl_math::fingerprint`]); a repeat request is answered from
//!    cache, and because replies carry only deterministic solve content,
//!    the cached response frame is **bit-identical** to the cold one. A
//!    projected request (`Localize` with `nodes`) is served against the
//!    same cache by slicing the full reply
//!    ([`Projection::slice`](crate::protocol::batch::Projection::slice)).
//! 4. **Sessions** — the protocol's `stream` namespace maps onto
//!    server-owned [`StreamingTracker`] sessions managed by a
//!    [`SessionManager`]: `OpenStream` hands out a capability token,
//!    `PushTicks` feeds observation deltas through the worker pool, and
//!    idle sessions are reaped by a TTL. Tick jobs and batch solves
//!    share the pool through a scheduler that alternates the two
//!    classes, so a firehose of stream ticks cannot starve batch solves
//!    or vice versa.
//!
//! Determinism is inherited from the solving layers: a batch solve seeds
//! its RNG from the request seed alone ([`solve_direct`] is the
//! in-process equivalent, and the integration suite asserts the served
//! reply matches it bitwise), and a session is exactly a
//! [`StreamingTracker`] fed the pushed observations in order — so worker
//! count, scheduling order, and cache state can never change any byte of
//! any reply.
//!
//! # Lifecycle
//!
//! [`Server::bind`] binds the listener and starts the worker pool;
//! [`Server::run`] blocks in the accept loop until a
//! [`batch::Request::Shutdown`] arrives, then drains in-flight jobs,
//! joins the workers and connection handlers, and returns. Connections
//! are read with a short poll tick, so idle timeouts
//! ([`ServeConfig::read_timeout`]) and shutdown both take effect
//! promptly without a signal handler.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
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
use rl_core::tracking::{StreamingTracker, TickObservation, TrackerConfig};
use rl_deploy::Scenario;
use rl_deploy::{mobility, presets};
use rl_math::Fnv1a;
use rl_net::RadioModel;

use crate::cache::LruCache;
use crate::protocol::{
    self, batch, stream, ErrorCode, LocalizeReply, Request, Response, ServerStats, WireError,
    PROTOCOL_VERSION,
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

/// Server configuration (builder style).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port (the default,
    /// `127.0.0.1:0`, is what the tests and benches use).
    pub addr: String,
    /// Solver worker-pool size; `0` means the machine's available
    /// parallelism (the [`rl_net::pool::resolve_workers`] rule).
    pub workers: usize,
    /// Solution-cache capacity (entries).
    pub cache_capacity: usize,
    /// Instantiated-[`Problem`] memo capacity (entries). Problems are
    /// much heavier than replies, so this is kept small.
    pub problem_capacity: usize,
    /// Idle timeout per connection: a connection with no complete frame
    /// for this long is closed.
    pub read_timeout: Duration,
    /// Maximum accepted frame size (bytes).
    pub max_frame: usize,
    /// Per-class job-queue depth bound: a request arriving while this
    /// many jobs of its class are already waiting is rejected with
    /// [`ErrorCode::Overloaded`] instead of enqueued (cache hits and
    /// coalesced joins are unaffected — they never enqueue). `0` means
    /// unbounded.
    pub queue_depth: usize,
    /// Test instrumentation: a minimum wall-clock floor applied to every
    /// job a worker picks up (batch solves and stream ticks alike). The
    /// batching and quota tests use it to hold work in flight long
    /// enough that races become *deterministic*; production
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
    /// Per-session mailbox bound: observations queued (pushed but not
    /// yet processed) beyond it reject the push with
    /// [`ErrorCode::Overloaded`]. `0` means unbounded.
    pub session_mailbox: usize,
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
            session_mailbox: 256,
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

    /// Sets the worker-pool size (`0` = auto).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the solution-cache capacity.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the per-connection idle timeout.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Sets the maximum accepted frame size.
    pub fn with_max_frame(mut self, max: usize) -> Self {
        self.max_frame = max;
        self
    }

    /// Sets the per-class job-queue depth bound (`0` = unbounded).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Sets the job wall-clock floor (test instrumentation; see the
    /// field docs).
    pub fn with_solve_floor(mut self, floor: Duration) -> Self {
        self.solve_floor = floor;
        self
    }

    /// Sets the session idle TTL (`Duration::ZERO` = never evict).
    pub fn with_session_ttl(mut self, ttl: Duration) -> Self {
        self.session_ttl = ttl;
        self
    }

    /// Sets the open-session capacity (`0` = unbounded).
    pub fn with_session_capacity(mut self, capacity: usize) -> Self {
        self.session_capacity = capacity;
        self
    }

    /// Sets the per-session mailbox bound (`0` = unbounded).
    pub fn with_session_mailbox(mut self, mailbox: usize) -> Self {
        self.session_mailbox = mailbox;
        self
    }

    /// Injects a [`Clock`] for session TTL eviction (test
    /// instrumentation).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }
}

/// One queued batch solve: a validated `(deployment, solver, seed)`
/// triple plus its cache key.
struct BatchJob {
    key: u64,
    preset: usize,
    solver: String,
    seed: u64,
}

/// One queued stream push: reserved observations bound for a session's
/// tracker, plus the waiting connection's reply channel.
struct StreamJob {
    session: u64,
    observations: Vec<TickObservation>,
    tx: mpsc::Sender<Result<stream::PushReply, WireError>>,
}

/// The shared scheduler state: both class queues plus the shutdown
/// latch, guarded together so a successful enqueue is always drained
/// before the workers exit.
struct QueueState {
    batch: VecDeque<BatchJob>,
    stream: VecDeque<StreamJob>,
    /// Whether the stream class is offered work first on the next pop;
    /// flips to the class that did *not* supply the last job, which is
    /// what makes the alternation fair under sustained load.
    stream_turn: bool,
    shutdown: bool,
}

enum Job {
    Batch(BatchJob),
    Stream(StreamJob),
}

impl QueueState {
    /// Pops the next job, alternating batch and stream. The scheduler
    /// is work-conserving: when only one class has work, it runs
    /// without waiting on the other's turn.
    fn pop_next(&mut self) -> Option<Job> {
        let batch = |q: &mut Self| q.batch.pop_front().map(Job::Batch);
        let stream = |q: &mut Self| q.stream.pop_front().map(Job::Stream);
        let job = if self.stream_turn {
            stream(self).or_else(|| batch(self))
        } else {
            batch(self).or_else(|| stream(self))
        }?;
        self.stream_turn = matches!(job, Job::Batch(_));
        Some(job)
    }
}

type SolveResult = Result<Arc<LocalizeReply>, WireError>;

struct PresetEntry {
    name: String,
    scenario: Scenario,
    /// Fingerprint of the preset's full configuration (name + scenario
    /// JSON), folded into every job's cache key.
    digest: u64,
}

struct Shared {
    config: ServeConfig,
    resolved_workers: usize,
    presets: Vec<PresetEntry>,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    /// In-flight solves: cache key -> waiters. Lock order is `inflight`
    /// before `cache` (the worker publishes results under both).
    inflight: Mutex<HashMap<u64, Vec<mpsc::Sender<SolveResult>>>>,
    cache: Mutex<LruCache<u64, Arc<LocalizeReply>>>,
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
        // Queue before cache: the cache lock is innermost everywhere
        // else, so it is never held while waiting on the queue.
        let (batch_queued, stream_queued) = {
            let q = self.queue.lock().expect("queue lock");
            (q.batch.len() as u64, q.stream.len() as u64)
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
            stream_queued,
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

    /// Counts and builds an [`ErrorCode::Overloaded`] rejection.
    fn overloaded_error(&self, message: String) -> WireError {
        self.overloaded.fetch_add(1, Ordering::Relaxed);
        WireError::new(ErrorCode::Overloaded, message)
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
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, loads the preset registry, and starts the
    /// solver worker pool. The server does not accept connections until
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
        let sessions = SessionManager::new(
            clock,
            config.session_ttl,
            config.session_capacity,
            config.session_mailbox,
        );
        let shared = Arc::new(Shared {
            resolved_workers,
            presets,
            queue: Mutex::new(QueueState {
                batch: VecDeque::new(),
                stream: VecDeque::new(),
                stream_turn: false,
                shutdown: false,
            }),
            queue_cv: Condvar::new(),
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
        let workers = (0..resolved_workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Server {
            listener,
            local_addr,
            shared,
            workers,
        })
    }

    /// The bound address (resolves port `0` to the actual ephemeral
    /// port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves connections until a [`batch::Request::Shutdown`] arrives,
    /// then drains in-flight jobs, joins workers and connection
    /// handlers, and returns.
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
        // Shutdown: workers drain both queues (every accepted job
        // answers its waiters), handlers notice the stop flag on their
        // next read tick.
        for w in self.workers {
            let _ = w.join();
        }
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

/// Requests a shutdown: latches the queues (no further enqueues), wakes
/// the workers, and pokes the accept loop awake with a throwaway
/// connection.
fn trigger_shutdown(shared: &Shared, local_addr: SocketAddr) {
    {
        let mut q = shared.queue.lock().expect("queue lock");
        q.shutdown = true;
    }
    shared.stop.store(true, Ordering::SeqCst);
    shared.queue_cv.notify_all();
    // Unblock the blocking accept; the loop re-checks the stop flag.
    let _ = TcpStream::connect(local_addr);
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = q.pop_next() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = shared.queue_cv.wait(q).expect("queue lock");
            }
        };
        // "Started" means picked up: the gauge moves before the solve
        // floor so tests (and operators) can observe an occupied worker.
        if let Job::Batch(_) = job {
            shared.solves_started.fetch_add(1, Ordering::Relaxed);
        }
        if !shared.config.solve_floor.is_zero() {
            std::thread::sleep(shared.config.solve_floor);
        }
        match job {
            Job::Batch(job) => run_batch_job(shared, job),
            Job::Stream(job) => {
                let result = shared.sessions.process(job.session, &job.observations);
                let _ = job.tx.send(result);
            }
        }
    }
}

fn run_batch_job(shared: &Shared, job: BatchJob) {
    let problem = shared.problem(job.preset, job.seed);
    let name = shared.presets[job.preset].name.clone();
    let result = reply_for(&problem, &name, &job.solver, job.seed).map(Arc::new);
    shared.solves.fetch_add(1, Ordering::Relaxed);
    // Publish: cache (successes only) and waiter hand-off happen
    // under the in-flight lock so no request can fall between
    // "not in flight" and "not yet cached".
    let waiters = {
        let mut inflight = shared.inflight.lock().expect("inflight lock");
        if let Ok(reply) = &result {
            shared
                .cache
                .lock()
                .expect("cache lock")
                .insert(job.key, Arc::clone(reply));
        }
        inflight.remove(&job.key).unwrap_or_default()
    };
    for tx in waiters {
        let _ = tx.send(result.clone());
    }
}

/// Handles one localize request end to end (cache, coalesce, or
/// enqueue + wait), then shapes the reply: the full frame, or its
/// [`Projection::slice`](batch::Projection::slice) when `nodes` asks
/// for a subset. The projection runs over the same (possibly cached)
/// full reply, so projected frames are byte-identical to slicing a
/// full one client-side.
fn handle_localize(
    shared: &Shared,
    deployment: &str,
    solver: &str,
    seed: u64,
    nodes: Option<&[u64]>,
) -> Response {
    match localize_reply(shared, deployment, solver, seed) {
        Err(err) => Response::Error(err),
        Ok(reply) => match nodes {
            None => batch::Response::Localized((*reply).clone()).into(),
            Some(nodes) => match batch::Projection::slice(&reply, nodes) {
                Ok(projection) => batch::Response::Projected(projection).into(),
                Err(err) => Response::Error(err),
            },
        },
    }
}

/// The cache/coalesce/enqueue core of a localize request; returns the
/// full reply every response shape is derived from.
fn localize_reply(
    shared: &Shared,
    deployment: &str,
    solver: &str,
    seed: u64,
) -> Result<Arc<LocalizeReply>, WireError> {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    let Some(preset) = shared.preset_index(deployment) else {
        return Err(WireError::new(
            ErrorCode::UnknownDeployment,
            format!(
                "unknown deployment `{deployment}` (serveable: {})",
                presets::NAMES.join(", ")
            ),
        ));
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

    let (tx, rx) = mpsc::channel();
    let enqueue = {
        let mut inflight = shared.inflight.lock().expect("inflight lock");
        if let Some(waiters) = inflight.get_mut(&key) {
            // An identical solve is already in flight: join it.
            shared.coalesced.fetch_add(1, Ordering::Relaxed);
            waiters.push(tx);
            false
        } else if let Some(reply) = shared.cache.lock().expect("cache lock").get(&key) {
            shared.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(reply));
        } else {
            inflight.insert(key, vec![tx]);
            true
        }
    };
    if enqueue {
        let mut q = shared.queue.lock().expect("queue lock");
        if q.shutdown {
            // Undo the registration; nobody will drain this job.
            drop(q);
            shared.inflight.lock().expect("inflight lock").remove(&key);
            return Err(WireError::new(
                ErrorCode::ShuttingDown,
                "server is shutting down",
            ));
        }
        let depth = shared.config.queue_depth;
        if depth > 0 && q.batch.len() >= depth {
            // Queue at its bound: reject instead of growing without
            // limit. The registration is undone the same way as the
            // shutdown path; any request that coalesced onto it in the
            // meantime receives the same typed rejection.
            drop(q);
            let err = shared.overloaded_error(format!(
                "batch job queue is full ({depth} waiting); retry after a backoff"
            ));
            let waiters = shared
                .inflight
                .lock()
                .expect("inflight lock")
                .remove(&key)
                .unwrap_or_default();
            for tx in waiters {
                let _ = tx.send(Err(err.clone()));
            }
            return Err(err);
        }
        q.batch.push_back(BatchJob {
            key,
            preset,
            solver: solver.to_string(),
            seed,
        });
        drop(q);
        shared.queue_cv.notify_one();
    }
    match rx.recv() {
        Ok(result) => result,
        Err(_) => Err(WireError::new(
            ErrorCode::SolveFailed,
            "solve abandoned during shutdown",
        )),
    }
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
            None => {
                return Response::Error(WireError::new(
                    ErrorCode::UnknownDeployment,
                    format!(
                        "unknown deployment `{deployment}` (serveable: {})",
                        presets::NAMES.join(", ")
                    ),
                ));
            }
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
/// observations, reserves mailbox room, enqueues one stream job, and
/// waits for the worker's reply.
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
    let universe = match shared.sessions.reserve(session, converted.len()) {
        Ok(universe) => universe,
        Err(err) => {
            if err.code == ErrorCode::Overloaded {
                shared.overloaded.fetch_add(1, Ordering::Relaxed);
            }
            return Response::Error(err);
        }
    };
    if let Some(obs) = converted
        .iter()
        .find(|obs| obs.measurements.node_count() != universe)
    {
        shared.sessions.release(session, converted.len());
        return Response::Error(WireError::new(
            ErrorCode::InvalidObservation,
            format!(
                "tick {} declares a {}-slot universe; the session's is {universe}",
                obs.tick,
                obs.measurements.node_count()
            ),
        ));
    }
    let (tx, rx) = mpsc::channel();
    {
        let mut q = shared.queue.lock().expect("queue lock");
        if q.shutdown {
            drop(q);
            shared.sessions.release(session, converted.len());
            return Response::Error(WireError::new(
                ErrorCode::ShuttingDown,
                "server is shutting down",
            ));
        }
        let depth = shared.config.queue_depth;
        if depth > 0 && q.stream.len() >= depth {
            drop(q);
            shared.sessions.release(session, converted.len());
            return Response::Error(shared.overloaded_error(format!(
                "stream job queue is full ({depth} waiting); retry after a backoff"
            )));
        }
        q.stream.push_back(StreamJob {
            session,
            observations: converted,
            tx,
        });
    }
    shared.queue_cv.notify_one();
    match rx.recv() {
        Ok(Ok(reply)) => stream::Response::TicksPushed(reply).into(),
        Ok(Err(err)) => Response::Error(err),
        Err(_) => Response::Error(WireError::new(
            ErrorCode::SolveFailed,
            "push abandoned during shutdown",
        )),
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
    let local_addr = stream.local_addr().ok();
    loop {
        let payload = match read_frame_polled(&mut stream, shared) {
            ReadOutcome::Frame(payload) => payload,
            ReadOutcome::TooLarge(declared) => {
                // Typed rejection, then close: past an oversized length
                // declaration the byte stream is unsynchronized.
                let response = Response::Error(WireError::new(
                    ErrorCode::FrameTooLarge,
                    format!(
                        "frame of {declared} bytes exceeds the {}-byte maximum",
                        shared.config.max_frame
                    ),
                ));
                let _ = send_response(&mut stream, shared, &response);
                return;
            }
            ReadOutcome::Closed
            | ReadOutcome::IdleTimeout
            | ReadOutcome::Stopped
            | ReadOutcome::Failed => return,
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
            Request::Batch(request) => handle_batch(shared, request, &mut stream),
            Request::Stream(request) => {
                if shared.stop.load(Ordering::SeqCst) {
                    Response::Error(WireError::new(
                        ErrorCode::ShuttingDown,
                        "server is shutting down",
                    ))
                } else {
                    match request {
                        stream::Request::OpenStream {
                            source,
                            tracker,
                            seed,
                        } => handle_open(shared, &source, &tracker, seed),
                        stream::Request::PushTicks {
                            session,
                            observations,
                        } => handle_push(shared, session, &observations),
                        stream::Request::ReadSolution { session, nodes } => {
                            match shared.sessions.read(session, nodes.as_deref()) {
                                Ok(reply) => stream::Response::Solution(reply).into(),
                                Err(err) => Response::Error(err),
                            }
                        }
                        stream::Request::CloseStream { session } => {
                            match shared.sessions.close(session) {
                                Ok(ticks) => {
                                    stream::Response::StreamClosed { session, ticks }.into()
                                }
                                Err(err) => Response::Error(err),
                            }
                        }
                    }
                }
            }
        };
        // Shutdown is terminal for the connection: the ack was already
        // written inside handle_batch.
        let Some(response) = response_or_shutdown(response, shared, local_addr) else {
            return;
        };
        if !send_response(&mut stream, shared, &response) {
            return;
        }
    }
}

/// Marker wrapped around the shutdown acknowledgment so the connection
/// loop knows to stop after triggering it.
fn response_or_shutdown(
    response: Response,
    shared: &Shared,
    local_addr: Option<SocketAddr>,
) -> Option<Response> {
    if matches!(response, Response::Batch(batch::Response::ShuttingDown)) {
        if let Some(addr) = local_addr {
            trigger_shutdown(shared, addr);
        }
        return None;
    }
    Some(response)
}

/// Dispatches one batch-namespace request.
fn handle_batch(shared: &Shared, request: batch::Request, stream: &mut TcpStream) -> Response {
    match request {
        batch::Request::Status => batch::Response::Status(shared.stats()).into(),
        batch::Request::Shutdown => {
            // Ack first (the caller tears the server down right after).
            let ack: Response = batch::Response::ShuttingDown.into();
            let _ = send_response(stream, shared, &ack);
            ack
        }
        batch::Request::Localize {
            deployment,
            solver,
            seed,
            nodes,
        } => {
            if shared.stop.load(Ordering::SeqCst) {
                Response::Error(WireError::new(
                    ErrorCode::ShuttingDown,
                    "server is shutting down",
                ))
            } else {
                handle_localize(shared, &deployment, &solver, seed, nodes.as_deref())
            }
        }
    }
}

/// Outcome of one polled frame read.
enum ReadOutcome {
    Frame(Vec<u8>),
    /// Clean close between frames.
    Closed,
    /// No complete frame within the idle timeout.
    IdleTimeout,
    /// Declared length over the maximum (connection must close).
    TooLarge(usize),
    /// The server is shutting down.
    Stopped,
    /// Transport failure (reset, mid-frame close, …); nothing to answer.
    Failed,
}

/// Reads one frame with a short poll tick so the idle timeout and the
/// server-wide stop flag are both honored, even mid-frame.
fn read_frame_polled(stream: &mut TcpStream, shared: &Shared) -> ReadOutcome {
    use std::io::Read;
    let max = shared.config.max_frame;
    let idle_timeout = shared.config.read_timeout;
    let mut idle = Duration::ZERO;
    let mut buf: Vec<u8> = Vec::with_capacity(4);
    let mut need = 4usize;
    let mut in_payload = false;
    let mut chunk = [0u8; 4096];
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return ReadOutcome::Stopped;
        }
        let want = (need - buf.len()).min(chunk.len());
        match stream.read(&mut chunk[..want]) {
            Ok(0) => {
                return if buf.is_empty() && !in_payload {
                    ReadOutcome::Closed
                } else {
                    // Closed mid-frame: transport failure, nothing to answer.
                    ReadOutcome::Failed
                };
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                idle = Duration::ZERO;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                idle += READ_TICK;
                if idle >= idle_timeout {
                    return ReadOutcome::IdleTimeout;
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::Failed,
        }
        if !in_payload && buf.len() == 4 {
            let declared = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
            if declared > max {
                return ReadOutcome::TooLarge(declared);
            }
            if declared == 0 {
                return ReadOutcome::Frame(Vec::new());
            }
            in_payload = true;
            need = declared;
            buf = Vec::with_capacity(declared);
        } else if in_payload && buf.len() == need {
            return ReadOutcome::Frame(buf);
        }
    }
}

fn send_response(stream: &mut TcpStream, shared: &Shared, response: &Response) -> bool {
    if matches!(response, Response::Error(_)) {
        shared.errors.fetch_add(1, Ordering::Relaxed);
    }
    protocol::send(stream, response, usize::MAX).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn scheduler_alternates_classes_and_conserves_work() {
        let mut q = QueueState {
            batch: VecDeque::new(),
            stream: VecDeque::new(),
            stream_turn: false,
            shutdown: false,
        };
        let (tx, _rx) = mpsc::channel();
        for i in 0..4 {
            q.batch.push_back(BatchJob {
                key: i,
                preset: 0,
                solver: "lss".to_string(),
                seed: i,
            });
        }
        for i in 0..2 {
            q.stream.push_back(StreamJob {
                session: i,
                observations: Vec::new(),
                tx: tx.clone(),
            });
        }
        let mut order = String::new();
        while let Some(job) = q.pop_next() {
            order.push(match job {
                Job::Batch(_) => 'B',
                Job::Stream(_) => 'S',
            });
        }
        // Alternation while both queues are backlogged, then the
        // work-conserving drain of the leftover batch jobs.
        assert_eq!(order, "BSBSBB");
        // A stream job arriving after a batch-only drain is next in line.
        q.batch.push_back(BatchJob {
            key: 9,
            preset: 0,
            solver: "lss".to_string(),
            seed: 9,
        });
        q.stream.push_back(StreamJob {
            session: 9,
            observations: Vec::new(),
            tx,
        });
        assert!(matches!(q.pop_next(), Some(Job::Stream(_))));
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
