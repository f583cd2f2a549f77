//! Server-owned streaming sessions: the state behind the protocol's
//! `stream` namespace.
//!
//! A session pairs a [`StreamingTracker`] with a capability token and a
//! bounded mailbox. The [`SessionManager`] owns every session, hands out
//! tokens on open, enforces the capacity and mailbox quotas, and evicts
//! sessions that sit idle past the TTL. Time is injected through the
//! [`Clock`] trait so eviction is deterministic under test (see
//! [`ManualClock`]).
//!
//! # Lifecycle
//!
//! ```text
//! open ──► active ──┬── push/read (touches last-active) ──► active
//!                   ├── close ──────────────────────────► gone
//!                   └── idle ≥ TTL, mailbox drained ─────► evicted
//! ```
//!
//! Tokens for evicted sessions are remembered (a bounded tombstone set)
//! so clients get the typed [`ErrorCode::SessionEvicted`] instead of an
//! indistinguishable [`ErrorCode::UnknownSession`].
//!
//! # Determinism
//!
//! A token is an FNV-1a fingerprint of the open request's identity plus
//! a per-manager nonce — no wall clock, no randomness — so a scripted
//! client run against a fresh server always sees the same tokens.
//! Session *state* is exactly a [`StreamingTracker`], so solutions and
//! fingerprints read through the wire are bit-identical to driving the
//! tracker directly.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::{Duration, Instant};

use rl_core::tracking::{solution_fingerprint, StreamingTracker, TickObservation, Tracker};
use rl_core::types::NodeId;
use rl_math::fingerprint::Fnv1a;

use crate::protocol::stream::{PushReply, SolutionReply};
use crate::protocol::{ErrorCode, WireError};

/// Tombstones remembered for evicted sessions before the set is
/// cleared wholesale (old evictions then degrade to
/// [`ErrorCode::UnknownSession`], which is honest enough).
const EVICTED_MEMORY: usize = 4096;

/// A monotonic time source, injected so TTL eviction is testable
/// without sleeping. Implementations report elapsed time since their
/// own fixed epoch; only differences are meaningful.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Monotonic now, as elapsed time since the clock's epoch.
    fn now(&self) -> Duration;
}

/// The production [`Clock`]: monotonic time since construction.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// A hand-cranked [`Clock`] for deterministic tests: time only moves
/// when [`ManualClock::advance`] is called.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: Mutex<Duration>,
}

impl ManualClock {
    /// A clock frozen at its epoch.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Moves time forward by `by`.
    pub fn advance(&self, by: Duration) {
        let mut now = self.now.lock().expect("clock poisoned");
        *now += by;
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        *self.now.lock().expect("clock poisoned")
    }
}

/// One live session: a tracker plus the bookkeeping the quotas need.
struct SessionState {
    tracker: StreamingTracker,
    /// Slot-universe size every observation must match.
    universe: usize,
    /// Last time a request touched this session (mailbox reservations
    /// count — a session with queued work is never idle).
    last_active: Duration,
    /// Observations reserved in the mailbox but not yet processed.
    pending: usize,
}

/// Owns every streaming session on a server: token issue, lookup,
/// mailbox accounting, and TTL eviction. All methods take `&self` —
/// the manager is shared freely across connection and worker threads.
///
/// Lock order: the session map is always taken before any individual
/// session's lock, and per-session work (tracker ticks) runs with the
/// map lock released.
pub struct SessionManager {
    clock: Arc<dyn Clock>,
    /// Idle eviction threshold; `Duration::ZERO` disables eviction.
    ttl: Duration,
    /// Maximum concurrently open sessions; `0` means unbounded.
    capacity: usize,
    /// Maximum queued-but-unprocessed observations per session; `0`
    /// means unbounded.
    mailbox: usize,
    sessions: Mutex<HashMap<u64, Arc<Mutex<SessionState>>>>,
    evicted: Mutex<HashSet<u64>>,
    /// Clock reading before which lookups skip the full idle scan.
    next_sweep: Mutex<Duration>,
    /// Full idle scans run so far.
    sweeps: AtomicU64,
    /// Nonce for token derivation; also the lifetime open count.
    opened: AtomicU64,
    evicted_total: AtomicU64,
    ticks_served: AtomicU64,
}

impl fmt::Debug for SessionManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionManager")
            .field("ttl", &self.ttl)
            .field("capacity", &self.capacity)
            .field("mailbox", &self.mailbox)
            .field("open", &self.open_count())
            .finish_non_exhaustive()
    }
}

impl SessionManager {
    /// A manager enforcing the given quotas against the given clock.
    pub fn new(clock: Arc<dyn Clock>, ttl: Duration, capacity: usize, mailbox: usize) -> Self {
        SessionManager {
            clock,
            ttl,
            capacity,
            mailbox,
            sessions: Mutex::new(HashMap::new()),
            evicted: Mutex::new(HashSet::new()),
            next_sweep: Mutex::new(Duration::ZERO),
            sweeps: AtomicU64::new(0),
            opened: AtomicU64::new(0),
            evicted_total: AtomicU64::new(0),
            ticks_served: AtomicU64::new(0),
        }
    }

    /// Opens a session around a fresh tracker and returns its token.
    /// `identity` is the canonical encoding of the open request (source
    /// + tracker spec + seed) — it seeds the token fingerprint.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Overloaded`] when the session capacity is reached.
    pub fn open(
        &self,
        identity: &str,
        universe: usize,
        tracker: StreamingTracker,
    ) -> Result<u64, WireError> {
        self.sweep_if_due();
        if self.capacity > 0 && self.open_count() >= self.capacity as u64 {
            // Idle sessions must not hold capacity until the next
            // scheduled scan.
            self.sweep();
        }
        let now = self.clock.now();
        let mut sessions = self.sessions.lock().expect("session map poisoned");
        if self.capacity > 0 && sessions.len() >= self.capacity {
            return Err(WireError::new(
                ErrorCode::Overloaded,
                format!("session capacity of {} reached", self.capacity),
            ));
        }
        let evicted = self.evicted.lock().expect("tombstones poisoned");
        let token = loop {
            let nonce = self.opened.fetch_add(1, Ordering::Relaxed);
            let mut hash = Fnv1a::new();
            hash.write_str(identity);
            hash.write_u64(nonce);
            let token = hash.finish();
            if !sessions.contains_key(&token) && !evicted.contains(&token) {
                break token;
            }
        };
        drop(evicted);
        sessions.insert(
            token,
            Arc::new(Mutex::new(SessionState {
                tracker,
                universe,
                last_active: now,
                pending: 0,
            })),
        );
        Ok(token)
    }

    /// Reserves `count` mailbox slots ahead of enqueueing a push, and
    /// returns the session's universe size for observation validation.
    /// Must be balanced by [`SessionManager::process`] (normally) or
    /// [`SessionManager::release`] (when the enqueue itself fails).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownSession`] / [`ErrorCode::SessionEvicted`] for
    /// a bad token; [`ErrorCode::Overloaded`] when the reservation would
    /// overflow the mailbox.
    pub fn reserve(&self, token: u64, count: usize) -> Result<usize, WireError> {
        let session = self.lookup(token)?;
        let mut state = session.lock().expect("session poisoned");
        if self.mailbox > 0 && state.pending + count > self.mailbox {
            return Err(WireError::new(
                ErrorCode::Overloaded,
                format!(
                    "push of {count} observations would overflow the session's \
                     {}-slot mailbox ({} already queued)",
                    self.mailbox, state.pending
                ),
            ));
        }
        state.pending += count;
        state.last_active = self.clock.now();
        Ok(state.universe)
    }

    /// Returns `count` reserved mailbox slots without processing them
    /// (the enqueue was rejected after a successful reservation).
    pub fn release(&self, token: u64, count: usize) {
        if let Ok(session) = self.lookup(token) {
            let mut state = session.lock().expect("session poisoned");
            state.pending = state.pending.saturating_sub(count);
            state.last_active = self.clock.now();
        }
    }

    /// Feeds reserved observations through the session's tracker (the
    /// worker half of a push). Frees the reservation whether or not the
    /// tracker accepts every tick.
    ///
    /// # Errors
    ///
    /// A bad token, or [`ErrorCode::SolveFailed`] when the tracker
    /// rejects an observation — the session stays usable and ticks
    /// consumed so far are reflected in the message.
    pub fn process(
        &self,
        token: u64,
        observations: &[TickObservation],
    ) -> Result<PushReply, WireError> {
        let session = self.lookup(token)?;
        let mut state = session.lock().expect("session poisoned");
        state.pending = state.pending.saturating_sub(observations.len());
        state.last_active = self.clock.now();
        let mut accepted = 0u64;
        for obs in observations {
            if let Err(e) = state.tracker.observe(obs) {
                return Err(WireError::new(
                    ErrorCode::SolveFailed,
                    format!(
                        "tick {} rejected after {accepted} of {} accepted: {e}",
                        obs.tick,
                        observations.len()
                    ),
                ));
            }
            accepted += 1;
            self.ticks_served.fetch_add(1, Ordering::Relaxed);
        }
        Ok(PushReply {
            session: token,
            accepted,
            ticks: state.tracker.ticks(),
            warm_updates: state.tracker.warm_updates(),
            cold_solves: state.tracker.cold_solves(),
            fingerprint: state.tracker.latest().map_or(0, solution_fingerprint),
        })
    }

    /// Reads the session's latest solution, optionally projected onto
    /// `nodes`. The reply's fingerprint is always of the full solution.
    ///
    /// # Errors
    ///
    /// A bad token; [`ErrorCode::SolveFailed`] when no tick has been
    /// solved yet; [`ErrorCode::UnknownNode`] for an out-of-universe
    /// projection id.
    pub fn read(&self, token: u64, nodes: Option<&[u64]>) -> Result<SolutionReply, WireError> {
        let session = self.lookup(token)?;
        let mut state = session.lock().expect("session poisoned");
        state.last_active = self.clock.now();
        let universe = state.universe;
        let ticks = state.tracker.ticks();
        let Some(solution) = state.tracker.latest() else {
            return Err(WireError::new(
                ErrorCode::SolveFailed,
                "the session has no solution yet; push at least one tick first",
            ));
        };
        let fingerprint = solution_fingerprint(solution);
        let frame = match solution.frame() {
            rl_core::problem::Frame::Absolute => "absolute".to_string(),
            rl_core::problem::Frame::Relative => "relative".to_string(),
        };
        let slot = |id: usize| solution.positions().get(NodeId(id)).map(|p| (p.x, p.y));
        let (nodes, positions) = match nodes {
            None => (None, (0..universe).map(slot).collect::<Vec<_>>()),
            Some(ids) => {
                let mut positions = Vec::with_capacity(ids.len());
                for &id in ids {
                    if id as usize >= universe {
                        return Err(WireError::new(
                            ErrorCode::UnknownNode,
                            format!("node {id} outside the {universe}-slot universe"),
                        ));
                    }
                    positions.push(slot(id as usize));
                }
                (Some(ids.to_vec()), positions)
            }
        };
        Ok(SolutionReply {
            session: token,
            ticks,
            frame,
            nodes,
            localized: positions.iter().flatten().count() as u64,
            positions,
            fingerprint,
        })
    }

    /// Closes a session and returns the ticks it consumed.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownSession`] / [`ErrorCode::SessionEvicted`]
    /// for a bad token.
    pub fn close(&self, token: u64) -> Result<u64, WireError> {
        self.lookup(token)?;
        let removed = {
            let mut sessions = self.sessions.lock().expect("session map poisoned");
            sessions.remove(&token)
        };
        match removed {
            Some(session) => {
                let state = session.lock().expect("session poisoned");
                Ok(state.tracker.ticks())
            }
            None => Err(self.missing(token)),
        }
    }

    /// Evicts every session idle past the TTL. Sessions with reserved
    /// mailbox slots are never evicted (their work is in flight), and
    /// neither are sessions whose lock is held: a session in the middle
    /// of a tick is not idle, and waiting on it here would stall every
    /// other session's lookup behind that tick. A no-op when the TTL is
    /// zero.
    ///
    /// This scan visits every session. Lookups run it at most once per
    /// quarter TTL of the manager's clock and check only the session
    /// they find in between, so an idle session is evicted by the first
    /// lookup of its own token past the TTL, and by anyone's lookup
    /// within a quarter TTL after that.
    pub fn sweep(&self) {
        *self.next_sweep.lock().expect("sweep schedule poisoned") = Duration::ZERO;
        self.sweep_if_due();
    }

    /// [`SessionManager::sweep`], if a quarter TTL has passed since the
    /// last scan.
    fn sweep_if_due(&self) {
        if self.ttl.is_zero() {
            return;
        }
        let now = self.clock.now();
        {
            let mut next = self.next_sweep.lock().expect("sweep schedule poisoned");
            if now < *next {
                return;
            }
            *next = now + self.ttl / 4;
        }
        self.scan(now);
    }

    /// Whether `session` sits idle past the TTL at `now`: no reserved
    /// mailbox slots, and its lock free.
    fn is_idle(&self, session: &Mutex<SessionState>, now: Duration) -> bool {
        match session.try_lock() {
            Ok(state) => state.pending == 0 && now.saturating_sub(state.last_active) >= self.ttl,
            Err(TryLockError::WouldBlock) => false,
            Err(TryLockError::Poisoned(_)) => panic!("session poisoned"),
        }
    }

    /// The full idle scan behind [`SessionManager::sweep`].
    fn scan(&self, now: Duration) {
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        let mut sessions = self.sessions.lock().expect("session map poisoned");
        let expired: Vec<u64> = sessions
            .iter()
            .filter(|(_, session)| self.is_idle(session, now))
            .map(|(&token, _)| token)
            .collect();
        self.evict(&mut sessions, expired);
    }

    /// Removes `expired` from the open `sessions` and remembers their
    /// tokens.
    fn evict(&self, sessions: &mut HashMap<u64, Arc<Mutex<SessionState>>>, expired: Vec<u64>) {
        if expired.is_empty() {
            return;
        }
        let mut evicted = self.evicted.lock().expect("tombstones poisoned");
        if evicted.len() + expired.len() > EVICTED_MEMORY {
            evicted.clear();
        }
        for token in expired {
            sessions.remove(&token);
            evicted.insert(token);
            self.evicted_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Currently open sessions.
    pub fn open_count(&self) -> u64 {
        self.sessions.lock().expect("session map poisoned").len() as u64
    }

    /// Lifetime TTL evictions.
    pub fn evicted_count(&self) -> u64 {
        self.evicted_total.load(Ordering::Relaxed)
    }

    /// Lifetime observations fed through session trackers.
    pub fn ticks_served(&self) -> u64 {
        self.ticks_served.load(Ordering::Relaxed)
    }

    /// The configured session capacity (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The open session behind `token`. Runs the full idle scan when it
    /// is due, and otherwise evicts just this session if it sits idle
    /// past the TTL, so an expired token always reads as evicted.
    fn lookup(&self, token: u64) -> Result<Arc<Mutex<SessionState>>, WireError> {
        self.sweep_if_due();
        let mut sessions = self.sessions.lock().expect("session map poisoned");
        let Some(session) = sessions.get(&token) else {
            return Err(self.missing(token));
        };
        if !self.ttl.is_zero() && self.is_idle(session, self.clock.now()) {
            self.evict(&mut sessions, vec![token]);
            return Err(self.missing(token));
        }
        Ok(Arc::clone(session))
    }

    fn missing(&self, token: u64) -> WireError {
        let evicted = self.evicted.lock().expect("tombstones poisoned");
        if evicted.contains(&token) {
            WireError::new(
                ErrorCode::SessionEvicted,
                format!("session {token:#018x} was evicted after sitting idle"),
            )
        } else {
            WireError::new(
                ErrorCode::UnknownSession,
                format!("no session {token:#018x}"),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_core::tracking::TrackerConfig;
    use rl_core::types::Anchor;
    use rl_geom::Point2;
    use rl_ranging::measurement::MeasurementSet;

    fn tracker(seed: u64) -> StreamingTracker {
        StreamingTracker::with_lss(TrackerConfig::new(seed))
    }

    /// A rigid 4-node square with 3 anchors: always solvable.
    fn square_tick(tick: u64) -> TickObservation {
        let mut measurements = MeasurementSet::new(4);
        let truth = [
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(10.0, 10.0),
            Point2::new(0.0, 10.0),
        ];
        for a in 0..4usize {
            for b in (a + 1)..4 {
                let d = truth[a].distance(truth[b]);
                measurements.insert_weighted(NodeId(a), NodeId(b), d, 1.0);
            }
        }
        TickObservation {
            tick,
            measurements,
            anchors: vec![
                Anchor::new(NodeId(0), truth[0]),
                Anchor::new(NodeId(1), truth[1]),
                Anchor::new(NodeId(3), truth[3]),
            ],
            active: (0..4).map(NodeId).collect(),
            joined: if tick == 0 {
                (0..4).map(NodeId).collect()
            } else {
                Vec::new()
            },
            left: Vec::new(),
            truth: Some(truth.to_vec()),
        }
    }

    fn manager(
        ttl: Duration,
        capacity: usize,
        mailbox: usize,
    ) -> (SessionManager, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let manager = SessionManager::new(clock.clone(), ttl, capacity, mailbox);
        (manager, clock)
    }

    #[test]
    fn sessions_open_push_read_and_close() {
        let (manager, _) = manager(Duration::from_secs(300), 4, 16);
        let token = manager.open("id", 4, tracker(7)).unwrap();
        assert_eq!(manager.reserve(token, 2).unwrap(), 4);
        let reply = manager
            .process(token, &[square_tick(0), square_tick(1)])
            .unwrap();
        assert_eq!(reply.session, token);
        assert_eq!(reply.accepted, 2);
        assert_eq!(reply.ticks, 2);
        assert_eq!(reply.cold_solves, 1);
        assert_eq!(reply.warm_updates, 1);
        let read = manager.read(token, None).unwrap();
        assert_eq!(read.positions.len(), 4);
        assert_eq!(read.localized, 4);
        assert_eq!(read.fingerprint, reply.fingerprint);
        let projected = manager.read(token, Some(&[2, 2, 0])).unwrap();
        assert_eq!(projected.positions.len(), 3);
        assert_eq!(projected.positions[0], projected.positions[1]);
        assert_eq!(projected.positions[2], read.positions[0]);
        assert_eq!(projected.fingerprint, read.fingerprint);
        assert_eq!(manager.ticks_served(), 2);
        assert_eq!(manager.close(token).unwrap(), 2);
        assert!(matches!(
            manager.read(token, None).unwrap_err().code,
            ErrorCode::UnknownSession
        ));
    }

    #[test]
    fn reads_before_any_tick_are_typed_errors() {
        let (manager, _) = manager(Duration::ZERO, 0, 0);
        let token = manager.open("id", 4, tracker(7)).unwrap();
        assert!(matches!(
            manager.read(token, None).unwrap_err().code,
            ErrorCode::SolveFailed
        ));
        assert!(matches!(
            manager.read(token, Some(&[9])).unwrap_err().code,
            ErrorCode::SolveFailed
        ));
    }

    #[test]
    fn projections_reject_out_of_universe_nodes() {
        let (manager, _) = manager(Duration::ZERO, 0, 0);
        let token = manager.open("id", 4, tracker(7)).unwrap();
        manager.reserve(token, 1).unwrap();
        manager.process(token, &[square_tick(0)]).unwrap();
        assert!(matches!(
            manager.read(token, Some(&[4])).unwrap_err().code,
            ErrorCode::UnknownNode
        ));
    }

    #[test]
    fn capacity_and_mailbox_quotas_reject_with_overloaded() {
        let (manager, _) = manager(Duration::from_secs(300), 1, 2);
        let token = manager.open("a", 4, tracker(1)).unwrap();
        assert!(matches!(
            manager.open("b", 4, tracker(2)).unwrap_err().code,
            ErrorCode::Overloaded
        ));
        manager.reserve(token, 2).unwrap();
        assert!(matches!(
            manager.reserve(token, 1).unwrap_err().code,
            ErrorCode::Overloaded
        ));
        // Releasing the reservation frees the mailbox again.
        manager.release(token, 2);
        assert_eq!(manager.reserve(token, 2).unwrap(), 4);
    }

    #[test]
    fn idle_sessions_evict_after_the_ttl() {
        let ttl = Duration::from_secs(60);
        let (manager, clock) = manager(ttl, 0, 0);
        let idle = manager.open("idle", 4, tracker(1)).unwrap();
        let busy = manager.open("busy", 4, tracker(2)).unwrap();
        clock.advance(Duration::from_secs(59));
        // Touching `busy` resets its idle timer.
        manager.reserve(busy, 1).unwrap();
        manager.process(busy, &[square_tick(0)]).unwrap();
        clock.advance(Duration::from_secs(1));
        manager.sweep();
        assert_eq!(manager.open_count(), 1);
        assert_eq!(manager.evicted_count(), 1);
        assert!(matches!(
            manager.read(idle, None).unwrap_err().code,
            ErrorCode::SessionEvicted
        ));
        assert!(manager.read(busy, None).is_ok());
    }

    #[test]
    fn reads_do_not_wait_behind_another_sessions_tick() {
        let (manager, _) = manager(Duration::from_secs(300), 0, 0);
        let busy = manager.open("busy", 4, tracker(1)).unwrap();
        let idle = manager.open("idle", 4, tracker(2)).unwrap();
        manager.reserve(idle, 1).unwrap();
        manager.process(idle, &[square_tick(0)]).unwrap();
        let busy = Arc::clone(&manager.sessions.lock().unwrap()[&busy]);
        let manager = &manager;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            // Stands in for a worker in the middle of a tick on `busy`.
            let tick = busy.lock().unwrap();
            s.spawn(move || tx.send(manager.read(idle, None).is_ok()).unwrap());
            let read = rx.recv_timeout(Duration::from_secs(2));
            drop(tick);
            assert_eq!(
                read,
                Ok(true),
                "the read waited behind another session's tick"
            );
        });
    }

    #[test]
    fn lookups_scan_every_session_once_per_quarter_ttl() {
        let ttl = Duration::from_secs(60);
        let (manager, clock) = manager(ttl, 0, 0);
        let tokens: Vec<u64> = (0..1_000)
            .map(|k| manager.open(&format!("idle-{k}"), 4, tracker(1)).unwrap())
            .collect();
        let live = tokens[0];
        assert_eq!(
            manager.sweeps.load(Ordering::Relaxed),
            1,
            "the first open scans"
        );
        for _ in 0..5_000 {
            manager.reserve(live, 1).unwrap();
            manager.release(live, 1);
        }
        assert_eq!(manager.sweeps.load(Ordering::Relaxed), 1);
        // A quarter TTL later the next lookup scans once more, and no
        // session is idle long enough to go.
        clock.advance(ttl / 4);
        for _ in 0..5_000 {
            assert!(manager.read(live, None).is_err(), "no tick yet");
        }
        assert_eq!(manager.sweeps.load(Ordering::Relaxed), 2);
        assert_eq!(manager.open_count(), 1_000);

        // Past the TTL, a session whose lock is held survives both the
        // scan and a lookup of its own token, and so does one with queued
        // work; every other idle one goes.
        let held = tokens[1];
        let session = Arc::clone(&manager.sessions.lock().unwrap()[&held]);
        let guard = session.lock().unwrap();
        manager.reserve(live, 1).unwrap();
        clock.advance(ttl);
        manager.release(live, 1);
        assert_eq!(manager.sweeps.load(Ordering::Relaxed), 3);
        assert!(manager.lookup(held).is_ok());
        assert_eq!(manager.open_count(), 2);
        assert_eq!(manager.evicted_count(), 998);
        drop(guard);
        assert_eq!(manager.sweeps.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn an_expired_token_reads_as_evicted_before_the_next_scan() {
        let ttl = Duration::from_secs(60);
        let (manager, clock) = manager(ttl, 0, 0);
        let idle = manager.open("idle", 4, tracker(1)).unwrap();
        clock.advance(ttl - Duration::from_secs(1));
        let fresh = manager.open("fresh", 4, tracker(2)).unwrap();
        let scans = manager.sweeps.load(Ordering::Relaxed);
        // One second later `idle` has sat out the TTL, but the last scan
        // was a second ago: its own lookup evicts it, and nothing else.
        clock.advance(Duration::from_secs(1));
        assert!(matches!(
            manager.reserve(idle, 1).unwrap_err().code,
            ErrorCode::SessionEvicted
        ));
        assert!(matches!(
            manager.close(idle).unwrap_err().code,
            ErrorCode::SessionEvicted
        ));
        assert_eq!(manager.sweeps.load(Ordering::Relaxed), scans);
        assert_eq!(manager.evicted_count(), 1);
        assert_eq!(manager.close(fresh).unwrap(), 0);
    }

    #[test]
    fn a_full_manager_scans_before_refusing_an_open() {
        let ttl = Duration::from_secs(60);
        let (manager, clock) = manager(ttl, 1, 0);
        manager.open("first", 4, tracker(1)).unwrap();
        clock.advance(Duration::from_secs(50));
        // `first` has sat idle 50 s: it stays, and the next scheduled
        // scan is due at 65 s.
        manager.sweep();
        assert_eq!(manager.open_count(), 1);
        // At 61 s it is idle past the TTL, and a full manager scans
        // rather than refuse the open.
        clock.advance(Duration::from_secs(11));
        let scans = manager.sweeps.load(Ordering::Relaxed);
        manager.open("second", 4, tracker(2)).unwrap();
        assert_eq!(manager.sweeps.load(Ordering::Relaxed), scans + 1);
        assert_eq!(manager.evicted_count(), 1);
        // A full manager with no idle session still refuses.
        assert!(matches!(
            manager.open("third", 4, tracker(3)).unwrap_err().code,
            ErrorCode::Overloaded
        ));
        assert_eq!(manager.open_count(), 1);
    }

    #[test]
    fn sessions_with_queued_work_never_evict() {
        let ttl = Duration::from_secs(60);
        let (manager, clock) = manager(ttl, 0, 0);
        let token = manager.open("id", 4, tracker(1)).unwrap();
        manager.reserve(token, 1).unwrap();
        clock.advance(Duration::from_secs(3600));
        manager.sweep();
        assert_eq!(manager.open_count(), 1);
        // Draining the mailbox re-arms the TTL from "now".
        manager.process(token, &[square_tick(0)]).unwrap();
        clock.advance(ttl);
        manager.sweep();
        assert_eq!(manager.open_count(), 0);
        assert!(matches!(
            manager.close(token).unwrap_err().code,
            ErrorCode::SessionEvicted
        ));
    }

    #[test]
    fn zero_ttl_disables_eviction() {
        let (manager, clock) = manager(Duration::ZERO, 0, 0);
        let token = manager.open("id", 4, tracker(1)).unwrap();
        clock.advance(Duration::from_secs(1_000_000));
        manager.sweep();
        assert!(manager.close(token).is_ok());
    }

    #[test]
    fn tokens_are_deterministic_for_a_fresh_manager() {
        let (a, _) = manager(Duration::ZERO, 0, 0);
        let (b, _) = manager(Duration::ZERO, 0, 0);
        let ta = a.open("same-identity", 4, tracker(7)).unwrap();
        let tb = b.open("same-identity", 4, tracker(7)).unwrap();
        assert_eq!(ta, tb);
        // A second open of the same identity gets a distinct token.
        let ta2 = a.open("same-identity", 4, tracker(7)).unwrap();
        assert_ne!(ta, ta2);
    }

    #[test]
    fn tracker_errors_free_the_mailbox_and_keep_the_session() {
        let (manager, _) = manager(Duration::ZERO, 0, 2);
        let token = manager.open("id", 4, tracker(7)).unwrap();
        let mut bad = square_tick(0);
        bad.active.clear(); // empty active set: tracker rejects it
        manager.reserve(token, 1).unwrap();
        let err = manager.process(token, &[bad]).unwrap_err();
        assert!(matches!(err.code, ErrorCode::SolveFailed));
        // The reservation was freed and the session still works.
        manager.reserve(token, 2).unwrap();
        let reply = manager
            .process(token, &[square_tick(1), square_tick(2)])
            .unwrap();
        assert_eq!(reply.accepted, 2);
        // Error ticks still count toward the lifetime tick counter.
        assert_eq!(reply.ticks, 3);
    }
}
