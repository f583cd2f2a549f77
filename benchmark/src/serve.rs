//! `serve-mixed`: every service layer of a loopback `rl-serve`.
//!
//! One server with one solver worker serves two closed-loop connections
//! from this process:
//!
//! * the **feeder** opens a `metro-250-mobile` session (tracker preset
//!   `metro`) and pushes a [`TICKS`]-tick trace one tick per request,
//!   reopening the session after each pass over the trace;
//! * the **batch** connection runs a seeded schedule of `Localize`
//!   requests over `town` and `metro-250` with every registry solver —
//!   a fixed share repeats earlier triples (cache hits), the rest use
//!   fresh seeds (cold solves) — interleaved with `ReadSolution` polls
//!   of the feeder's session through its token, and pauses [`THINK`]
//!   after each reply.
//!
//! Both connections send pre-encoded frames and time one round trip from
//! the first byte written to the last reply byte read. After the timed
//! window every push and read reply is checked against a direct tracker
//! replay of the trace, and every `Localize` reply bit for bit against
//! `solve_direct`.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::RwLock;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rand::Rng;
use rl_core::eval::evaluate_absolute;
use rl_core::tracking::{solution_fingerprint, StreamingTracker};
use rl_core::types::PositionMap;
use rl_deploy::mobility::MobilityTrace;
use rl_deploy::presets;
use rl_geom::Point2;
use rl_math::rng::seeded;
use rl_math::Fnv1a;
use rl_net::{pool, NodeId};
use rl_serve::protocol::stream::{
    PushReply, SolutionReply, StreamSource, TrackerSpec, WireObservation,
};
use rl_serve::protocol::{self, batch, stream, LocalizeReply, Request, Response, ServerStats};
use rl_serve::server::{make_solver, make_tracker_config, solve_direct, SOLVER_NAMES};
use rl_serve::{ServeConfig, Server};

use crate::stats::{geomean, mean, median, percentile, to_ms, Report};
use crate::tracking::{self, MOBILITY_PRESET};
use crate::{secs, Args, SETUP_REPEATS};

/// Ticks of the pushed trace. One long trace keeps cold first ticks, which
/// hold the single worker for ~150 ms each, to one push in a thousand.
pub const TICKS: usize = 1000;

/// Deployments the batch schedule localizes.
pub const DEPLOYMENTS: [&str; 2] = ["town", "metro-250"];

/// The batch connection's repeating request pattern: one cold solve,
/// nine cache hits and ten session reads in every twenty requests.
const PATTERN: [Kind; 20] = [
    Kind::Miss,
    Kind::Read,
    Kind::Hit,
    Kind::Read,
    Kind::Hit,
    Kind::Read,
    Kind::Hit,
    Kind::Read,
    Kind::Hit,
    Kind::Read,
    Kind::Hit,
    Kind::Read,
    Kind::Hit,
    Kind::Read,
    Kind::Hit,
    Kind::Read,
    Kind::Hit,
    Kind::Read,
    Kind::Hit,
    Kind::Read,
];

/// The batch connection's pause after each reply. It keeps cold solves
/// to about a fifth of the single worker's time, so most ticks find the
/// worker free and the rest show what waiting behind a solve costs.
const THINK: Duration = Duration::from_millis(4);

/// Cache hits repeat one of this many most recent fresh triples, all of
/// which the server's default 512-entry cache still holds.
const HIT_WINDOW: usize = 64;

/// Cold solves of each (deployment, solver) pair that `error_m` averages:
/// the first ones the seeded schedule sends. A run lasts until all of
/// them are done, so the seed alone fixes the solves behind `error_m`.
const ERROR_MISSES: usize = 6;

/// Salt of the batch schedule's RNG stream.
const SCHEDULE_STREAM: u64 = 0x7363_6865_6475_6C65;

/// Solver worker threads of the server.
pub const SERVER_WORKERS: usize = 1;

/// Replies kept per kind for the traced encode probes.
const CAPTURE: usize = 200;

/// A batch request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A fresh `(deployment, solver, seed)` triple: a cold solve.
    Miss,
    /// A repeat of a recent fresh triple: a cache hit.
    Hit,
    /// A full `ReadSolution` of the feeder's session.
    Read,
}

type Triple = (&'static str, &'static str, u64);

/// The seeded batch schedule: an endless sequence of requests whose
/// kinds follow [`PATTERN`]. Cold solves walk every (deployment, solver)
/// pair in turn from a seeded starting pair, so every run solves the same
/// mix, each with a fresh seeded instance.
struct Schedule {
    rng: rand::rngs::StdRng,
    step: usize,
    pair: usize,
    fresh: Vec<Triple>,
}

impl Schedule {
    fn new(seed: u64) -> Self {
        let mut rng = seeded(seed ^ SCHEDULE_STREAM);
        let pair = rng.gen_range(0..DEPLOYMENTS.len() * SOLVER_NAMES.len());
        Schedule {
            rng,
            step: 0,
            pair,
            fresh: Vec::new(),
        }
    }

    /// The next request: its kind and, for `Localize`, its triple.
    fn next(&mut self) -> (Kind, Option<Triple>) {
        let kind = PATTERN[self.step % PATTERN.len()];
        self.step += 1;
        let triple = match kind {
            Kind::Read => None,
            Kind::Hit => {
                let window = self.fresh.len().min(HIT_WINDOW);
                let back = self.rng.gen_range(0..window);
                Some(self.fresh[self.fresh.len() - 1 - back])
            }
            Kind::Miss => {
                let pair = self.pair % (DEPLOYMENTS.len() * SOLVER_NAMES.len());
                self.pair += 1;
                let deployment = DEPLOYMENTS[pair / SOLVER_NAMES.len()];
                let solver = SOLVER_NAMES[pair % SOLVER_NAMES.len()];
                let triple = (deployment, solver, self.rng.random::<u64>());
                self.fresh.push(triple);
                Some(triple)
            }
        };
        (kind, triple)
    }
}

/// A connection sending pre-encoded frames.
struct Wire {
    stream: TcpStream,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Result<Wire, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Wire { stream })
    }

    /// One round trip; returns the reply payload and the wall seconds from
    /// the first byte written to the last reply byte read.
    fn call(&mut self, payload: &[u8]) -> Result<(Vec<u8>, f64), String> {
        let start = Instant::now();
        protocol::write_frame(&mut self.stream, payload, usize::MAX)
            .map_err(|e| format!("write: {e}"))?;
        let reply = protocol::read_frame(&mut self.stream, usize::MAX)
            .map_err(|e| format!("read: {e}"))?
            .ok_or("the server closed the connection")?;
        Ok((reply, secs(start)))
    }

    /// A round trip decoded into a response.
    fn request(&mut self, request: &Request) -> Result<Response, String> {
        let (reply, _) = self.call(&encode(request))?;
        decode_response(&reply)
    }
}

/// A message as the server and client serialize it.
fn encode<T: serde::Serialize>(message: &T) -> Vec<u8> {
    serde_json::to_string(message)
        .expect("protocol types serialize")
        .into_bytes()
}

fn decode_response(payload: &[u8]) -> Result<Response, String> {
    match protocol::decode::<Response>(payload)? {
        Response::Error(e) => Err(format!("error frame: {e}")),
        response => Ok(response),
    }
}

/// The tracker spec every session opens with.
fn tracker_spec() -> TrackerSpec {
    TrackerSpec {
        preset: "metro".into(),
        ..TrackerSpec::default()
    }
}

fn push_request(session: u64, observation: &WireObservation) -> Request {
    Request::Stream(stream::Request::PushTicks {
        session,
        observations: vec![observation.clone()],
    })
}

/// The serving thread of a spawned server.
type ServerThread = JoinHandle<std::io::Result<()>>;

/// What set-up builds besides the running server.
struct Setup {
    addr: SocketAddr,
    trace: MobilityTrace,
    /// The trace in wire form.
    wire: Vec<WireObservation>,
}

fn set_up(seed: u64) -> Result<(Setup, ServerThread), String> {
    let config = ServeConfig::default().with_workers(SERVER_WORKERS);
    let (addr, server) = Server::spawn(config).map_err(|e| format!("spawn: {e}"))?;
    let trace = tracking::generate(MOBILITY_PRESET, TICKS, seed);
    let wire = trace
        .iter()
        .map(WireObservation::from_observation)
        .collect();
    Ok((Setup { addr, trace, wire }, server))
}

/// Shuts a server down and waits for it; returns its final counters.
fn shut_down(addr: SocketAddr, server: ServerThread) -> Result<ServerStats, String> {
    let mut wire = Wire::connect(addr)?;
    let stats = match wire.request(&Request::Batch(batch::Request::Status))? {
        Response::Batch(batch::Response::Status(stats)) => stats,
        other => return Err(format!("expected Status, got {other:?}")),
    };
    match wire.request(&Request::Batch(batch::Request::Shutdown))? {
        Response::Batch(batch::Response::ShuttingDown) => {}
        other => return Err(format!("expected ShuttingDown, got {other:?}")),
    }
    drop(wire);
    server
        .join()
        .map_err(|_| "the server thread panicked".to_string())?
        .map_err(|e| format!("server: {e}"))?;
    Ok(stats)
}

/// One timed push.
#[derive(Debug, Clone, Copy)]
struct Push {
    /// Trace tick pushed.
    tick: usize,
    rtt_s: f64,
    /// The reply's solution fingerprint, checked after the run.
    fingerprint: u64,
}

/// One timed batch request.
#[derive(Debug, Clone)]
struct BatchCall {
    kind: Kind,
    triple: Option<Triple>,
    rtt_s: f64,
    /// `Localize`: digest of the reply payload. `ReadSolution`: the
    /// solution fingerprint, and the ticks it reflects.
    reply: u64,
    ticks: usize,
    /// `Localize`: the reply's mean localization error.
    error_m: Option<f64>,
}

/// What the feeder saw.
#[derive(Default)]
struct Feed {
    pushes: Vec<Push>,
    push_bytes: Vec<usize>,
    /// Push replies of the first pass, in tick order (traced runs only).
    replies: Vec<PushReply>,
    failures: Vec<String>,
}

/// What the batch connection saw.
#[derive(Default)]
struct Batch {
    calls: Vec<BatchCall>,
    /// Mean error of each read solution against its tick's truth.
    read_errors: Vec<f64>,
    /// Decoded read and localize replies (traced runs only, capped).
    reads: Vec<SolutionReply>,
    localizes: Vec<LocalizeReply>,
    failures: Vec<String>,
}

/// The shared session slot: the feeder's current token.
type Session = RwLock<Option<u64>>;

fn open(wire: &mut Wire, seed: u64) -> Result<u64, String> {
    let request = Request::Stream(stream::Request::OpenStream {
        source: StreamSource::Preset {
            name: MOBILITY_PRESET.into(),
        },
        tracker: tracker_spec(),
        seed,
    });
    match wire.request(&request)? {
        Response::Stream(stream::Response::StreamOpened { session, .. }) => Ok(session),
        other => Err(format!("expected StreamOpened, got {other:?}")),
    }
}

fn close(wire: &mut Wire, session: u64) -> Result<u64, String> {
    match wire.request(&Request::Stream(stream::Request::CloseStream { session }))? {
        Response::Stream(stream::Response::StreamClosed { ticks, .. }) => Ok(ticks),
        other => Err(format!("expected StreamClosed, got {other:?}")),
    }
}

/// Pushes tick `k` and records its reply.
fn push(
    wire: &mut Wire,
    session: u64,
    k: usize,
    setup: &Setup,
    feed: &mut Feed,
    capture: bool,
) -> Result<(), String> {
    let payload = encode(&push_request(session, &setup.wire[k]));
    let (reply, rtt_s) = wire.call(&payload)?;
    let reply = match decode_response(&reply)? {
        Response::Stream(stream::Response::TicksPushed(reply)) => reply,
        other => return Err(format!("expected TicksPushed, got {other:?}")),
    };
    if reply.accepted != 1 || reply.ticks != k as u64 + 1 {
        return Err(format!("tick {k}: reply {reply:?} counts the wrong ticks"));
    }
    feed.pushes.push(Push {
        tick: k,
        rtt_s,
        fingerprint: reply.fingerprint,
    });
    feed.push_bytes.push(payload.len());
    if capture && feed.replies.len() == k {
        feed.replies.push(reply);
    }
    Ok(())
}

/// Starts a pass: closes the previous session, opens a new one and
/// pushes its first tick, all under the write lock, so reads always find
/// a solved session. Returns the new token.
fn restart(
    wire: &mut Wire,
    seed: u64,
    setup: &Setup,
    session: &Session,
    feed: &mut Feed,
    capture: bool,
) -> Result<u64, String> {
    let mut slot = session.write().expect("session slot");
    if let Some(token) = slot.take() {
        let ticks = close(wire, token)?;
        if ticks != TICKS as u64 {
            return Err(format!(
                "closed session consumed {ticks} ticks, not {TICKS}"
            ));
        }
    }
    let token = open(wire, seed)?;
    push(wire, token, 0, setup, feed, capture)?;
    *slot = Some(token);
    Ok(token)
}

/// The feeder: passes over the trace until `stop`, one session each.
fn feeder(setup: &Setup, seed: u64, session: &Session, stop: &AtomicBool, capture: bool) -> Feed {
    let mut feed = Feed::default();
    let mut wire = match Wire::connect(setup.addr) {
        Ok(wire) => wire,
        Err(e) => {
            feed.failures.push(e);
            return feed;
        }
    };
    let mut pass = || -> Result<(), String> {
        while !stop.load(Ordering::SeqCst) {
            let token = restart(&mut wire, seed, setup, session, &mut feed, capture)?;
            for k in 1..TICKS {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                push(&mut wire, token, k, setup, &mut feed, capture)?;
            }
        }
        Ok(())
    };
    let fed = pass();
    if let Err(e) = fed {
        feed.failures.push(e);
    }
    if let Some(token) = session.write().expect("session slot").take() {
        if let Err(e) = close(&mut wire, token) {
            feed.failures.push(e);
        }
    }
    feed
}

/// Mean error of a read solution against the truth of its tick.
fn read_error(solution: &SolutionReply, truth: &[Point2]) -> Result<f64, String> {
    let mut positions = PositionMap::unlocalized(solution.positions.len());
    for (i, p) in solution.positions.iter().enumerate() {
        if let Some((x, y)) = *p {
            positions.set(NodeId(i), Point2::new(x, y));
        }
    }
    evaluate_absolute(&positions, truth)
        .map(|e| e.mean_error)
        .map_err(|e| format!("read after {} ticks is unevaluable: {e}", solution.ticks))
}

/// One batch request: sends it and records what came back.
fn batch_call(
    wire: &mut Wire,
    kind: Kind,
    triple: Option<Triple>,
    session: &Session,
    setup: &Setup,
    out: &mut Batch,
    capture: bool,
) -> Result<(), String> {
    let (reply, rtt_s) = match triple {
        Some((deployment, solver, seed)) => {
            wire.call(&encode(&Request::localize(deployment, solver, seed)))?
        }
        None => {
            // Hold the slot for the round trip so the feeder cannot close
            // the session under the read.
            let slot = session.read().expect("session slot");
            let token = (*slot).ok_or("no open session to read")?;
            let request = Request::Stream(stream::Request::ReadSolution {
                session: token,
                nodes: None,
            });
            wire.call(&encode(&request))?
        }
    };
    let (digest, ticks, error_m) = match decode_response(&reply)? {
        Response::Batch(batch::Response::Localized(localized)) if triple.is_some() => {
            let error_m = localized.mean_error_m;
            if capture && out.localizes.len() < CAPTURE {
                out.localizes.push(localized);
            }
            (Fnv1a::digest(&reply), 0, error_m)
        }
        Response::Stream(stream::Response::Solution(solution)) if triple.is_none() => {
            let ticks = solution.ticks as usize;
            let truth = (ticks >= 1)
                .then(|| setup.trace.observations[ticks - 1].truth.as_ref())
                .flatten()
                .ok_or(format!("read after {ticks} ticks has no truth to compare"))?;
            out.read_errors.push(read_error(&solution, truth)?);
            let fingerprint = solution.fingerprint;
            if capture && out.reads.len() < CAPTURE {
                out.reads.push(solution);
            }
            (fingerprint, ticks, None)
        }
        other => return Err(format!("unexpected reply to a {kind:?} request: {other:?}")),
    };
    out.calls.push(BatchCall {
        kind,
        triple,
        rtt_s,
        reply: digest,
        ticks,
        error_m,
    });
    Ok(())
}

/// The batch connection: the seeded schedule until `stop`, counting the
/// cold solves it has sent in `misses`.
fn batcher(
    setup: &Setup,
    seed: u64,
    session: &Session,
    stop: &AtomicBool,
    misses: &AtomicUsize,
    capture: bool,
) -> Batch {
    let mut out = Batch::default();
    let mut wire = match Wire::connect(setup.addr) {
        Ok(wire) => wire,
        Err(e) => {
            out.failures.push(e);
            return out;
        }
    };
    let mut schedule = Schedule::new(seed);
    while !stop.load(Ordering::SeqCst) {
        let (kind, triple) = schedule.next();
        if kind == Kind::Read && session.read().expect("session slot").is_none() {
            // The feeder has not opened its first session yet.
            thread::yield_now();
            continue;
        }
        if let Err(e) = batch_call(&mut wire, kind, triple, session, setup, &mut out, capture) {
            out.failures.push(e);
        }
        if kind == Kind::Miss {
            misses.fetch_add(1, Ordering::SeqCst);
        }
        thread::sleep(THINK);
    }
    out
}

/// Raw observations of one serve run.
struct ServeRun {
    setup_s: Vec<f64>,
    setup: Setup,
    feed: Feed,
    batch: Batch,
    stats: ServerStats,
    /// Wall seconds of each tick of the direct replay.
    replay_s: Vec<f64>,
    /// Replies that disagree with their references.
    mismatches: Vec<String>,
}

/// How one serve run is driven.
struct Plan {
    /// The least time the window stays open.
    seconds: f64,
    /// The least number of cold solves the batch connection sends.
    misses: usize,
    /// Timed set-ups: about half before the window (the last one serves
    /// it) and the rest after the checks, so they span the host's speeds
    /// over the run; `setup_s` is the fastest, as in `metro-batch`.
    setups: usize,
    /// Whether to keep replies for the traced probes.
    capture: bool,
}

/// Sets up, runs both connections as `plan` says, shuts the server down,
/// and checks every reply.
fn serve_run(seed: u64, plan: &Plan) -> Result<ServeRun, String> {
    let capture = plan.capture;
    let mut setup_s = Vec::with_capacity(plan.setups);
    let mut timed_set_up = || -> Result<(Setup, ServerThread), String> {
        let start = Instant::now();
        let built = set_up(seed)?;
        setup_s.push(secs(start));
        Ok(built)
    };
    for _ in 0..plan.setups / 2 {
        let (setup, server) = timed_set_up()?;
        shut_down(setup.addr, server)?;
    }
    let (setup, server) = timed_set_up()?;

    let session: Session = RwLock::new(None);
    let stop = AtomicBool::new(false);
    let misses = AtomicUsize::new(0);
    let start = Instant::now();
    let (feed, batch) = thread::scope(|scope| {
        let feeder = scope.spawn(|| feeder(&setup, seed, &session, &stop, capture));
        let batcher = scope.spawn(|| batcher(&setup, seed, &session, &stop, &misses, capture));
        while secs(start) < plan.seconds || misses.load(Ordering::SeqCst) < plan.misses {
            thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::SeqCst);
        (
            feeder.join().expect("feeder thread"),
            batcher.join().expect("batch thread"),
        )
    });
    let stats = shut_down(setup.addr, server)?;

    let (reference, replay_s) = replay(&setup.trace, seed)?;
    let mut mismatches = verify_localizes(&batch.calls);
    for p in feed
        .pushes
        .iter()
        .filter(|p| p.fingerprint != reference[p.tick])
    {
        mismatches.push(format!(
            "push of tick {}: fingerprint {:#018x} disagrees with the direct replay",
            p.tick, p.fingerprint
        ));
    }
    for c in batch.calls.iter().filter(|c| c.kind == Kind::Read) {
        if reference.get(c.ticks.wrapping_sub(1)) != Some(&c.reply) {
            mismatches.push(format!(
                "read after {} ticks: fingerprint {:#018x} disagrees with the direct replay",
                c.ticks, c.reply
            ));
        }
    }
    for _ in plan.setups / 2 + 1..plan.setups {
        let (again, server) = timed_set_up()?;
        shut_down(again.addr, server)?;
    }
    Ok(ServeRun {
        setup_s,
        setup,
        feed,
        batch,
        stats,
        replay_s,
        mismatches,
    })
}

/// The direct replay a session must match: per-tick fingerprints and
/// wall seconds of a tracker built from the same spec.
fn replay(trace: &MobilityTrace, seed: u64) -> Result<(Vec<u64>, Vec<f64>), String> {
    let config = make_tracker_config(&tracker_spec(), seed).ok_or("unknown tracker preset")?;
    let mut tracker = StreamingTracker::with_lss(config);
    let mut reference = Vec::with_capacity(trace.len());
    let mut seconds = Vec::with_capacity(trace.len());
    for obs in trace.iter() {
        let tick = tracking::observe(&mut tracker, obs)?;
        reference.push(tick.fingerprint);
        seconds.push(tick.wall_s);
    }
    Ok((reference, seconds))
}

/// Checks every `Localize` reply bit for bit against `solve_direct`, on
/// every core.
fn verify_localizes(calls: &[BatchCall]) -> Vec<String> {
    let mut replies: BTreeMap<Triple, Vec<u64>> = BTreeMap::new();
    for call in calls {
        if let Some(triple) = call.triple {
            replies.entry(triple).or_default().push(call.reply);
        }
    }
    let triples: Vec<(&Triple, &Vec<u64>)> = replies.iter().collect();
    pool::par_map_indexed(triples.len(), 0, |i| {
        let (&(deployment, solver, seed), digests) = triples[i];
        let expected = solve_direct(deployment, solver, seed).map(|reply| {
            Fnv1a::digest(&encode(&Response::Batch(batch::Response::Localized(reply))))
        });
        match expected {
            Ok(expected) if digests.iter().all(|&d| d == expected) => None,
            Ok(_) => Some(format!(
                "{deployment}/{solver}/{seed}: a served reply differs from solve_direct"
            )),
            Err(e) => Some(format!(
                "{deployment}/{solver}/{seed}: solve_direct failed: {e}"
            )),
        }
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Counts one run's operations and failures into `report`.
fn account(run: &ServeRun, report: &mut Report) {
    report.attempt((run.feed.pushes.len() + run.feed.failures.len()) as u64);
    report.attempt((run.batch.calls.len() + run.batch.failures.len()) as u64);
    let failures = run.feed.failures.iter().chain(&run.batch.failures);
    for failure in failures.chain(&run.mismatches) {
        report.fail(failure.clone());
    }
    if run.stats.errors > 0 || run.stats.overloaded > 0 {
        report.inconsistent(format!(
            "the server counted {} error frames and {} overloads",
            run.stats.errors, run.stats.overloaded
        ));
    }
}

fn tick_ms(run: &ServeRun) -> Vec<f64> {
    to_ms(&run.feed.pushes.iter().map(|p| p.rtt_s).collect::<Vec<_>>())
}

/// Round trips of one batch request kind, in milliseconds.
fn kind_ms(run: &ServeRun, kind: Kind) -> Vec<f64> {
    let calls = run.batch.calls.iter().filter(|c| c.kind == kind);
    calls.map(|c| c.rtt_s * 1e3).collect()
}

fn request_ms(run: &ServeRun) -> Vec<f64> {
    to_ms(&run.batch.calls.iter().map(|c| c.rtt_s).collect::<Vec<_>>())
}

/// The geometric mean over (deployment, solver) pairs of each pair's
/// median cold-solve `value`, over the pair's first `limit` cold solves,
/// when every pair has one.
fn per_pair(
    run: &ServeRun,
    limit: usize,
    value: impl Fn(&BatchCall) -> Option<f64>,
) -> Option<f64> {
    let mut by_pair: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for call in run.batch.calls.iter().filter(|c| c.kind == Kind::Miss) {
        if let (Some((deployment, solver, _)), Some(v)) = (call.triple, value(call)) {
            let values = by_pair.entry((deployment, solver)).or_default();
            if values.len() < limit {
                values.push(v);
            }
        }
    }
    let medians: Vec<f64> = by_pair.values().filter_map(|v| median(v)).collect();
    (medians.len() == DEPLOYMENTS.len() * SOLVER_NAMES.len())
        .then(|| geomean(&medians))
        .flatten()
}

/// The untraced workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::new();
    let plan = Plan {
        seconds: args.seconds,
        misses: DEPLOYMENTS.len() * SOLVER_NAMES.len() * ERROR_MISSES,
        setups: SETUP_REPEATS,
        capture: false,
    };
    let run = match serve_run(args.seed, &plan) {
        Ok(run) => run,
        Err(e) => {
            report.attempt(1);
            report.fail(e);
            return report;
        }
    };
    account(&run, &mut report);
    report.minimum("setup_s", &run.setup_s, "s");
    let ticks = tick_ms(&run);
    let requests = request_ms(&run);
    report.median("tick_p50_ms", &ticks, "ms");
    report.percentile("tick_p99_ms", &ticks, 0.99, "ms");
    report.median("request_p50_ms", &requests, "ms");
    report.percentile("request_p99_ms", &requests, 0.99, "ms");
    // The gated latency counts every kind of round trip alike: the mean
    // pushed tick, which includes every wait behind a cold solve on the
    // single worker, the median cache hit and session read, and the
    // median cold solve of each (deployment, solver) pair.
    let kinds = [
        mean(&ticks),
        median(&kind_ms(&run, Kind::Hit)),
        median(&kind_ms(&run, Kind::Read)),
        per_pair(&run, usize::MAX, |c| Some(c.rtt_s * 1e3)),
    ];
    if let [Some(tick), Some(hit), Some(read), Some(miss)] = kinds {
        let latency = geomean(&[tick, hit, read, miss]).expect("round trips take time");
        report.metric("op_latency_ms", latency, "ms", ticks.len() + requests.len());
    }
    // The gated error: the replies of each pair's first cold solves, pair
    // by pair as above. A read's error follows its single trace, which
    // one seed decides.
    if let Some(error) = per_pair(&run, ERROR_MISSES, |c| c.error_m) {
        let samples = DEPLOYMENTS.len() * SOLVER_NAMES.len() * ERROR_MISSES;
        report.metric("error_m", error, "m", samples);
    }
    report.mean("mean_error_m.read", &run.batch.read_errors, "m");
    report
}

/// Milliseconds `f` takes on each of `items`.
fn time_each<T>(items: &[T], mut f: impl FnMut(&T)) -> Vec<f64> {
    items
        .iter()
        .map(|item| {
            let start = Instant::now();
            f(item);
            secs(start) * 1e3
        })
        .collect()
}

/// The traced pass: an untraced run and a traced run at the same seed,
/// each for half the seconds with a single set-up, then the per-layer
/// probes on what the traced run sent and received.
pub fn trace(args: &Args) -> Report {
    let mut report = Report::new();
    let plan = |capture| Plan {
        seconds: args.seconds / 2.0,
        misses: 0,
        setups: 1,
        capture,
    };
    let (untraced, traced) = match serve_run(args.seed, &plan(false))
        .and_then(|u| serve_run(args.seed, &plan(true)).map(|t| (u, t)))
    {
        Ok(runs) => runs,
        Err(e) => {
            report.attempt(1);
            report.fail(e);
            return report;
        }
    };
    account(&untraced, &mut report);
    account(&traced, &mut report);
    for (name, t, u) in [
        ("tick_p50_ms", tick_ms(&traced), tick_ms(&untraced)),
        ("request_p50_ms", request_ms(&traced), request_ms(&untraced)),
    ] {
        if let (Some(t), Some(u)) = (median(&t), median(&u)) {
            report.notes.push(format!(
                "overhead {name} (serve-mixed): traced {t:.4} ms, untraced {u:.4} ms, \
                 difference {:+.4} ms ({:+.1}%)",
                t - u,
                100.0 * (t - u) / u
            ));
        }
    }
    probe(&traced, &mut report);
    report
}

/// The service layers' per-layer metrics, measured on the traced run's
/// own payloads and replies.
fn probe(run: &ServeRun, report: &mut Report) {
    // Decode: the server's `decode::<Request>` on the frames sent. The
    // session token differs per pass; a 19-digit one stands in for it.
    let token = 1u64 << 62;
    let push_payloads: Vec<Vec<u8>> = run
        .setup
        .wire
        .iter()
        .map(|obs| encode(&push_request(token, obs)))
        .collect();
    let decode_push = time_each(&push_payloads, |p| {
        std::hint::black_box(protocol::decode::<Request>(p).expect("pushes decode"));
    });
    let localize_payloads: Vec<Vec<u8>> = run
        .batch
        .calls
        .iter()
        .filter_map(|c| c.triple)
        .take(CAPTURE)
        .map(|(d, s, seed)| encode(&Request::localize(d, s, seed)))
        .collect();
    let decode_localize = time_each(&localize_payloads, |p| {
        std::hint::black_box(protocol::decode::<Request>(p).expect("localizes decode"));
    });
    report.median("protocol.decode_ms.push", &decode_push, "ms");
    report.median("protocol.decode_ms.localize", &decode_localize, "ms");

    // Encode: the captured replies, serialized as the server sends them.
    let pushed: Vec<Response> = run
        .feed
        .replies
        .iter()
        .map(|r| Response::Stream(stream::Response::TicksPushed(r.clone())))
        .collect();
    let reads: Vec<Response> = run
        .batch
        .reads
        .iter()
        .map(|r| Response::Stream(stream::Response::Solution(r.clone())))
        .collect();
    let localized: Vec<Response> = run
        .batch
        .localizes
        .iter()
        .map(|r| Response::Batch(batch::Response::Localized(r.clone())))
        .collect();
    let encode_each = |replies: &[Response]| {
        time_each(replies, |r| {
            std::hint::black_box(encode(r));
        })
    };
    let encode_push = encode_each(&pushed);
    report.median("protocol.encode_ms.push", &encode_push, "ms");
    report.median("protocol.encode_ms.read", &encode_each(&reads), "ms");
    report.median(
        "protocol.encode_ms.localize",
        &encode_each(&localized),
        "ms",
    );
    let push_bytes: Vec<f64> = run.feed.push_bytes.iter().map(|&b| b as f64).collect();
    let read_bytes: Vec<f64> = reads.iter().map(|r| encode(r).len() as f64).collect();
    report.median("protocol.bytes.push", &push_bytes, "bytes");
    report.median("protocol.bytes.read", &read_bytes, "bytes");

    // The tick layer: the direct replay of the pushed observations.
    let replay_ms = to_ms(&run.replay_s);
    report.median("tracking.tick_ms", &replay_ms, "ms");

    // Solve: each fresh triple on a pre-instantiated problem, as the
    // server memoizes problems.
    let mut solve_ms = Vec::new();
    let misses = run.batch.calls.iter().filter(|c| c.kind == Kind::Miss);
    for (deployment, solver, seed) in misses.filter_map(|c| c.triple) {
        let problem = presets::preset(deployment)
            .expect("registered preset")
            .instantiate(seed);
        let solver = make_solver(solver).expect("registry solver");
        let start = Instant::now();
        let solved = solver.localize(&problem, &mut seeded(seed));
        solve_ms.push(secs(start) * 1e3);
        if let Ok(solution) = solved {
            std::hint::black_box(solution_fingerprint(&solution));
        }
    }
    report.median("server.solve_ms", &solve_ms, "ms");

    // Wait: what the client saw beyond decode, tick and encode.
    let at = |v: &[f64], k: usize| v.get(k).copied().unwrap_or(0.0);
    let wait_ms: Vec<f64> = run
        .feed
        .pushes
        .iter()
        .map(|p| {
            p.rtt_s * 1e3
                - at(&decode_push, p.tick)
                - at(&replay_ms, p.tick)
                - at(&encode_push, p.tick)
        })
        .collect();
    report.median("server.wait_p50_ms.tick", &wait_ms, "ms");
    let parts = [
        &tick_ms(run),
        &decode_push,
        &replay_ms,
        &encode_push,
        &wait_ms,
    ]
    .map(|v| median(v));
    if let [Some(rtt), Some(decode), Some(tick), Some(encode), Some(wait)] = parts {
        report.notes.push(format!(
            "served tick split (medians): round trip {rtt:.3} ms = decode {decode:.3} ({:.0}%) \
             + tick {tick:.3} ({:.0}%) + encode {encode:.3} + queue and socket {wait:.3} ms",
            100.0 * decode / rtt,
            100.0 * tick / rtt
        ));
    }
    match percentile(&wait_ms, 0.99) {
        Some(p99) => report.metric("server.wait_p99_ms.tick", p99, "ms", wait_ms.len()),
        None => report.inconsistent(format!(
            "{} traced pushes are too few for a p99 wait",
            wait_ms.len()
        )),
    }

    report.median("session.read_ms", &kind_ms(run, Kind::Read), "ms");

    let stats = &run.stats;
    report.metric(
        "cache.hit_ratio",
        stats.cache_hits as f64 / stats.requests.max(1) as f64,
        "ratio",
        stats.requests as usize,
    );
    for (name, value) in [
        ("server.solves", stats.solves),
        ("server.coalesced", stats.coalesced),
        ("server.overloaded", stats.overloaded),
        ("server.errors", stats.errors),
    ] {
        report.metric(name, value as f64, "count", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_at_one_seed_and_hits_repeat_recent_misses() {
        let draw = |seed| {
            let mut s = Schedule::new(seed);
            (0..600).map(|_| s.next()).collect::<Vec<_>>()
        };
        let a = draw(5);
        assert_eq!(a, draw(5));
        assert_ne!(a, draw(6));
        let mut fresh = Vec::new();
        for (kind, triple) in &a {
            match kind {
                Kind::Miss => {
                    assert!(!fresh.contains(triple), "fresh seeds are fresh");
                    fresh.push(*triple);
                }
                Kind::Hit => {
                    let recent = &fresh[fresh.len().saturating_sub(HIT_WINDOW)..];
                    assert!(recent.contains(triple), "hits repeat a recent miss");
                }
                Kind::Read => assert!(triple.is_none()),
            }
        }
        assert_eq!(a[0].0, Kind::Miss, "the schedule opens with a fresh triple");
        // 30 cold solves walk all 14 pairs twice, then two more.
        let mut pairs: Vec<(&str, &str)> =
            fresh.iter().flatten().map(|&(d, s, _)| (d, s)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(
            (fresh.len(), pairs.len()),
            (30, DEPLOYMENTS.len() * SOLVER_NAMES.len())
        );
    }
}
