//! Server-owned streaming sessions: the state behind the protocol's
//! `stream` namespace.
//!
//! A session pairs a [`StreamingTracker`] with a capability token. The
//! [`SessionManager`] owns every session, hands out tokens on open,
//! enforces the capacity quota, and evicts sessions that sit idle past
//! the TTL. A push runs its ticks on the caller's thread while holding
//! the session's lock, so pushes to one session run one at a time and
//! a session mid-tick is never idle. Time is injected through the
//! [`Clock`] trait so eviction is deterministic under test (see
//! [`ManualClock`]).
//!
//! # Lifecycle
//!
//! ```text
//! open ──► active ──┬── push/read (touches last-active) ──► active
//!                   ├── close ──────────────────────────► gone
//!                   ├── idle ≥ TTL, no tick running ─────► evicted
//!                   └── a tick panics (lock poisoned) ───► evicted
//! ```
//!
//! Tokens for evicted sessions are remembered (a bounded tombstone set)
//! so clients get the typed [`ErrorCode::SessionEvicted`] instead of an
//! indistinguishable [`ErrorCode::UnknownSession`]. A session whose lock
//! a panicking tick poisoned is dead: the first lookup, lock or scan
//! that meets it evicts it, and every other session carries on.
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
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

use rl_core::problem::{Frame, Solution};
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

/// One live session. A push holds `tracker` for its whole run; a read
/// takes only the short `published` lock, so it never waits for a tick
/// in progress.
struct Session {
    tracker: Mutex<StreamingTracker>,
    /// Slot-universe size every observation must match.
    universe: usize,
    /// Clock reading in nanoseconds when a request last touched this
    /// session (a push touches it as it starts and as it ends).
    last_active: AtomicU64,
    /// What the latest tick left behind, replaced after every tick.
    published: Mutex<Arc<Snapshot>>,
}

/// A tracker's state after one tick, as reads see it.
struct Snapshot {
    ticks: u64,
    /// The latest solution and its fingerprint, once a tick has solved.
    solution: Option<(Solution, u64)>,
}

impl Snapshot {
    fn of(tracker: &StreamingTracker) -> Snapshot {
        Snapshot {
            ticks: tracker.ticks(),
            solution: tracker
                .latest()
                .map(|solution| (solution.clone(), solution_fingerprint(solution))),
        }
    }
}

impl Session {
    fn touch(&self, now: Duration) {
        self.last_active
            .store(now.as_nanos() as u64, Ordering::Relaxed);
    }

    fn publish(&self, tracker: &StreamingTracker) {
        let snapshot = Arc::new(Snapshot::of(tracker));
        *self.published.lock().expect("snapshot poisoned") = snapshot;
    }

    fn latest(&self) -> Arc<Snapshot> {
        Arc::clone(&self.published.lock().expect("snapshot poisoned"))
    }
}

/// Owns every streaming session on a server: token issue, lookup, the
/// capacity quota, and TTL eviction. All methods take `&self` — the
/// manager is shared freely across connection threads.
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
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
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
            .field("open", &self.open_count())
            .finish_non_exhaustive()
    }
}

impl SessionManager {
    /// A manager enforcing the given quotas against the given clock.
    pub fn new(clock: Arc<dyn Clock>, ttl: Duration, capacity: usize) -> Self {
        SessionManager {
            clock,
            ttl,
            capacity,
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
        let published = Mutex::new(Arc::new(Snapshot::of(&tracker)));
        sessions.insert(
            token,
            Arc::new(Session {
                tracker: Mutex::new(tracker),
                universe,
                last_active: AtomicU64::new(now.as_nanos() as u64),
                published,
            }),
        );
        Ok(token)
    }

    /// Feeds `observations` through the session's tracker, in order, on
    /// the caller's thread. The session's lock is held for the whole
    /// push, so pushes to one session never interleave, and the session
    /// is touched as the push starts and as it ends.
    ///
    /// # Errors
    ///
    /// A bad token; [`ErrorCode::InvalidObservation`] when an
    /// observation's universe is not the session's (checked before any
    /// tick runs); or [`ErrorCode::SolveFailed`] when the tracker
    /// rejects an observation — the session stays usable and ticks
    /// consumed so far are reflected in the message.
    pub fn process(
        &self,
        token: u64,
        observations: &[TickObservation],
    ) -> Result<PushReply, WireError> {
        let session = self.lookup(token)?;
        let universe = session.universe;
        if let Some(obs) = observations
            .iter()
            .find(|obs| obs.measurements.node_count() != universe)
        {
            return Err(WireError::new(
                ErrorCode::InvalidObservation,
                format!(
                    "tick {} declares a {}-slot universe; the session's is {universe}",
                    obs.tick,
                    obs.measurements.node_count()
                ),
            ));
        }
        let mut tracker = self.lock(token, &session)?;
        session.touch(self.clock.now());
        let mut accepted = 0u64;
        let ticked = observations.iter().try_for_each(|obs| {
            let observed = tracker.observe(obs).map(drop);
            session.publish(&tracker);
            observed.map_err(|e| {
                WireError::new(
                    ErrorCode::SolveFailed,
                    format!(
                        "tick {} rejected after {accepted} of {} accepted: {e}",
                        obs.tick,
                        observations.len()
                    ),
                )
            })?;
            accepted += 1;
            self.ticks_served.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        session.touch(self.clock.now());
        ticked?;
        let latest = session.latest();
        Ok(PushReply {
            session: token,
            accepted,
            ticks: latest.ticks,
            warm_updates: tracker.warm_updates(),
            cold_solves: tracker.cold_solves(),
            fingerprint: latest.solution.as_ref().map_or(0, |&(_, f)| f),
        })
    }

    /// Reads the session's latest solution, optionally projected onto
    /// `nodes`. The reply's fingerprint is always of the full solution.
    /// A read during a tick answers with the tick before it.
    ///
    /// # Errors
    ///
    /// A bad token; [`ErrorCode::SolveFailed`] when no tick has been
    /// solved yet; [`ErrorCode::UnknownNode`] for an out-of-universe
    /// projection id.
    pub fn read(&self, token: u64, nodes: Option<&[u64]>) -> Result<SolutionReply, WireError> {
        let session = self.lookup(token)?;
        session.touch(self.clock.now());
        let universe = session.universe;
        let snapshot = session.latest();
        let Some((solution, fingerprint)) = &snapshot.solution else {
            return Err(WireError::new(
                ErrorCode::SolveFailed,
                "the session has no solution yet; push at least one tick first",
            ));
        };
        let frame = match solution.frame() {
            Frame::Absolute => "absolute".to_string(),
            Frame::Relative => "relative".to_string(),
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
            ticks: snapshot.ticks,
            frame,
            nodes,
            localized: positions.iter().flatten().count() as u64,
            positions,
            fingerprint: *fingerprint,
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
            // Closed either way; a dead session's tick count still reads.
            Some(session) => Ok(session
                .tracker
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .ticks()),
            None => Err(self.missing(token)),
        }
    }

    /// Evicts every dead session (one whose lock a panicking tick
    /// poisoned) and every one idle past the TTL. Sessions whose lock is
    /// held are never idle: a session in the middle of a push is not
    /// idle, and waiting on it here would stall every other session's
    /// lookup behind that push. A no-op when the TTL is
    /// zero; dead sessions then go at their next lookup.
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

    /// Whether `session` is due for eviction at `now`: dead, or idle
    /// past a nonzero TTL with its lock free. A session whose lock a
    /// panicking tick poisoned is dead.
    fn is_expired(&self, session: &Session, now: Duration) -> bool {
        match session.tracker.try_lock() {
            Ok(_) => {
                let last_active = Duration::from_nanos(session.last_active.load(Ordering::Relaxed));
                !self.ttl.is_zero() && now.saturating_sub(last_active) >= self.ttl
            }
            Err(TryLockError::WouldBlock) => false,
            Err(TryLockError::Poisoned(_)) => true,
        }
    }

    /// Locks the session `lookup` found for `token`. If a tick panicked
    /// while holding the lock, the session is dead: it is evicted and
    /// its token reads as evicted.
    fn lock<'a>(
        &self,
        token: u64,
        session: &'a Session,
    ) -> Result<MutexGuard<'a, StreamingTracker>, WireError> {
        match session.tracker.lock() {
            Ok(tracker) => Ok(tracker),
            Err(dead) => {
                // Lock order: release the session before the map.
                drop(dead);
                self.evict(
                    &mut self.sessions.lock().expect("session map poisoned"),
                    vec![token],
                );
                Err(self.missing(token))
            }
        }
    }

    /// The full idle scan behind [`SessionManager::sweep`].
    fn scan(&self, now: Duration) {
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        let mut sessions = self.sessions.lock().expect("session map poisoned");
        let expired: Vec<u64> = sessions
            .iter()
            .filter(|(_, session)| self.is_expired(session, now))
            .map(|(&token, _)| token)
            .collect();
        self.evict(&mut sessions, expired);
    }

    /// Removes `expired` from the open `sessions` and remembers their
    /// tokens.
    fn evict(&self, sessions: &mut HashMap<u64, Arc<Session>>, expired: Vec<u64>) {
        if expired.is_empty() {
            return;
        }
        let mut evicted = self.evicted.lock().expect("tombstones poisoned");
        if evicted.len() + expired.len() > EVICTED_MEMORY {
            evicted.clear();
        }
        for token in expired {
            // A session that already went (closed, or evicted by a racing
            // lock) is neither remembered nor counted twice.
            if sessions.remove(&token).is_some() {
                evicted.insert(token);
                self.evicted_total.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Currently open sessions.
    pub fn open_count(&self) -> u64 {
        self.sessions.lock().expect("session map poisoned").len() as u64
    }

    /// Lifetime evictions: sessions idle past the TTL, and dead ones.
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
    /// is due, and otherwise evicts just this session if it is dead or
    /// sits idle past the TTL, so an expired token always reads as
    /// evicted.
    fn lookup(&self, token: u64) -> Result<Arc<Session>, WireError> {
        self.sweep_if_due();
        let mut sessions = self.sessions.lock().expect("session map poisoned");
        let Some(session) = sessions.get(&token) else {
            return Err(self.missing(token));
        };
        if self.is_expired(session, self.clock.now()) {
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
                format!(
                    "session {token:#018x} was evicted: idle past the TTL, or a tick \
                     on it panicked"
                ),
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

    fn manager(ttl: Duration, capacity: usize) -> (SessionManager, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let manager = SessionManager::new(clock.clone(), ttl, capacity);
        (manager, clock)
    }

    #[test]
    fn sessions_open_push_read_and_close() {
        let (manager, _) = manager(Duration::from_secs(300), 4);
        let token = manager.open("id", 4, tracker(7)).unwrap();
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
        let (manager, _) = manager(Duration::ZERO, 0);
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
        let (manager, _) = manager(Duration::ZERO, 0);
        let token = manager.open("id", 4, tracker(7)).unwrap();
        manager.process(token, &[square_tick(0)]).unwrap();
        assert!(matches!(
            manager.read(token, Some(&[4])).unwrap_err().code,
            ErrorCode::UnknownNode
        ));
    }

    #[test]
    fn the_capacity_quota_rejects_with_overloaded() {
        let (manager, _) = manager(Duration::from_secs(300), 1);
        let token = manager.open("a", 4, tracker(1)).unwrap();
        assert!(matches!(
            manager.open("b", 4, tracker(2)).unwrap_err().code,
            ErrorCode::Overloaded
        ));
        // Closing frees the capacity again.
        manager.close(token).unwrap();
        manager.open("b", 4, tracker(2)).unwrap();
    }

    #[test]
    fn idle_sessions_evict_after_the_ttl() {
        let ttl = Duration::from_secs(60);
        let (manager, clock) = manager(ttl, 0);
        let idle = manager.open("idle", 4, tracker(1)).unwrap();
        let busy = manager.open("busy", 4, tracker(2)).unwrap();
        clock.advance(Duration::from_secs(59));
        // Touching `busy` resets its idle timer.
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
        let (manager, _) = manager(Duration::from_secs(300), 0);
        let busy = manager.open("busy", 4, tracker(1)).unwrap();
        let idle = manager.open("idle", 4, tracker(2)).unwrap();
        manager.process(idle, &[square_tick(0)]).unwrap();
        let busy = Arc::clone(&manager.sessions.lock().unwrap()[&busy]);
        let manager = &manager;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            // Stands in for a push in the middle of a tick on `busy`.
            let tick = busy.tracker.lock().unwrap();
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
    fn a_read_during_its_own_sessions_tick_returns_the_previous_tick() {
        let (manager, _) = manager(Duration::from_secs(300), 0);
        let token = manager.open("id", 4, tracker(1)).unwrap();
        let pushed = manager.process(token, &[square_tick(0)]).unwrap();
        let session = Arc::clone(&manager.sessions.lock().unwrap()[&token]);
        let manager = &manager;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            // Stands in for a push in the middle of the next tick.
            let tick = session.tracker.lock().unwrap();
            s.spawn(move || tx.send(manager.read(token, None)).unwrap());
            let read = rx.recv_timeout(Duration::from_secs(2));
            drop(tick);
            let read = read.expect("the read waited behind its own session's tick");
            let read = read.unwrap();
            assert_eq!(read.ticks, 1);
            assert_eq!(read.fingerprint, pushed.fingerprint);
        });
    }

    #[test]
    fn lookups_scan_every_session_once_per_quarter_ttl() {
        let ttl = Duration::from_secs(60);
        let (manager, clock) = manager(ttl, 0);
        let tokens: Vec<u64> = (0..1_000)
            .map(|k| manager.open(&format!("idle-{k}"), 4, tracker(1)).unwrap())
            .collect();
        let live = tokens[0];
        assert_eq!(
            manager.sweeps.load(Ordering::Relaxed),
            1,
            "the first open scans"
        );
        for _ in 0..10_000 {
            manager.lookup(live).unwrap();
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
        // scan and a lookup of its own token; every other idle one goes.
        let held = tokens[1];
        let session = Arc::clone(&manager.sessions.lock().unwrap()[&held]);
        let guard = session.tracker.lock().unwrap();
        clock.advance(ttl);
        assert!(manager.lookup(held).is_ok());
        assert_eq!(manager.sweeps.load(Ordering::Relaxed), 3);
        assert_eq!(manager.open_count(), 1);
        assert_eq!(manager.evicted_count(), 999);
        drop(guard);
        assert_eq!(manager.sweeps.load(Ordering::Relaxed), 3);
    }

    /// Poisons `token`'s lock the way a tracker panicking mid-tick would.
    fn poison(manager: &SessionManager, token: u64) -> Arc<Session> {
        let session = Arc::clone(&manager.sessions.lock().unwrap()[&token]);
        let held = Arc::clone(&session);
        std::thread::spawn(move || {
            let _tick = held.tracker.lock().unwrap();
            panic!("a tick panicked");
        })
        .join()
        .unwrap_err();
        assert!(session.tracker.is_poisoned());
        session
    }

    #[test]
    fn a_poisoned_session_is_evicted_and_the_others_carry_on() {
        let ttl = Duration::from_secs(60);
        let (manager, clock) = manager(ttl, 0);
        let dead = manager.open("dead", 4, tracker(1)).unwrap();
        let live = manager.open("live", 4, tracker(2)).unwrap();
        manager.process(live, &[square_tick(0)]).unwrap();
        poison(&manager, dead);
        // A quarter TTL on, the next lookup runs a due sweep. Nothing is
        // idle yet, so only the dead session goes.
        clock.advance(ttl / 4);
        let scans = manager.sweeps.load(Ordering::Relaxed);
        assert!(manager.read(live, None).is_ok());
        assert_eq!(manager.sweeps.load(Ordering::Relaxed), scans + 1);
        assert_eq!(manager.open_count(), 1);
        assert_eq!(manager.evicted_count(), 1);
        for err in [
            manager.read(dead, None).unwrap_err(),
            manager.process(dead, &[square_tick(0)]).unwrap_err(),
            manager.close(dead).unwrap_err(),
        ] {
            assert!(matches!(err.code, ErrorCode::SessionEvicted), "{err:?}");
        }
        assert_eq!(manager.process(live, &[square_tick(1)]).unwrap().ticks, 2);
    }

    #[test]
    fn poisoned_sessions_go_at_lookup_or_lock_without_a_ttl() {
        let (manager, _) = manager(Duration::ZERO, 0);
        let looked_up = manager.open("a", 4, tracker(1)).unwrap();
        let locked = manager.open("b", 4, tracker(2)).unwrap();
        poison(&manager, looked_up);
        assert!(matches!(
            manager.read(looked_up, None).unwrap_err().code,
            ErrorCode::SessionEvicted
        ));
        // A caller that found the session before the panic and then
        // waited on its lock gets the same typed refusal.
        let session = manager.lookup(locked).unwrap();
        poison(&manager, locked);
        assert!(matches!(
            manager.lock(locked, &session).map(drop),
            Err(WireError {
                code: ErrorCode::SessionEvicted,
                ..
            })
        ));
        assert_eq!(manager.open_count(), 0);
        assert_eq!(manager.evicted_count(), 2);
    }

    #[test]
    fn an_expired_token_reads_as_evicted_before_the_next_scan() {
        let ttl = Duration::from_secs(60);
        let (manager, clock) = manager(ttl, 0);
        let idle = manager.open("idle", 4, tracker(1)).unwrap();
        clock.advance(ttl - Duration::from_secs(1));
        let fresh = manager.open("fresh", 4, tracker(2)).unwrap();
        let scans = manager.sweeps.load(Ordering::Relaxed);
        // One second later `idle` has sat out the TTL, but the last scan
        // was a second ago: its own lookup evicts it, and nothing else.
        clock.advance(Duration::from_secs(1));
        assert!(matches!(
            manager.process(idle, &[square_tick(0)]).unwrap_err().code,
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
        let (manager, clock) = manager(ttl, 1);
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
    fn a_session_with_a_push_in_flight_never_evicts() {
        let ttl = Duration::from_secs(60);
        let (manager, clock) = manager(ttl, 0);
        let token = manager.open("id", 4, tracker(1)).unwrap();
        let session = Arc::clone(&manager.sessions.lock().unwrap()[&token]);
        let manager = &manager;
        std::thread::scope(|s| {
            // Stands in for an earlier push in the middle of a tick; a
            // second push finds the session and waits on its lock.
            let tick = session.tracker.lock().unwrap();
            let push = s.spawn(move || manager.process(token, &[square_tick(0)]));
            while Arc::strong_count(&session) < 3 {
                std::thread::yield_now();
            }
            clock.advance(Duration::from_secs(3600));
            manager.sweep();
            assert_eq!(manager.open_count(), 1);
            drop(tick);
            assert_eq!(push.join().unwrap().unwrap().ticks, 1);
        });
        // The push re-armed the TTL from "now".
        clock.advance(ttl - Duration::from_secs(1));
        manager.sweep();
        assert_eq!(manager.open_count(), 1);
        clock.advance(Duration::from_secs(1));
        manager.sweep();
        assert_eq!(manager.open_count(), 0);
        assert!(matches!(
            manager.close(token).unwrap_err().code,
            ErrorCode::SessionEvicted
        ));
    }

    #[test]
    fn zero_ttl_disables_eviction() {
        let (manager, clock) = manager(Duration::ZERO, 0);
        let token = manager.open("id", 4, tracker(1)).unwrap();
        clock.advance(Duration::from_secs(1_000_000));
        manager.sweep();
        assert!(manager.close(token).is_ok());
    }

    #[test]
    fn tokens_are_deterministic_for_a_fresh_manager() {
        let (a, _) = manager(Duration::ZERO, 0);
        let (b, _) = manager(Duration::ZERO, 0);
        let ta = a.open("same-identity", 4, tracker(7)).unwrap();
        let tb = b.open("same-identity", 4, tracker(7)).unwrap();
        assert_eq!(ta, tb);
        // A second open of the same identity gets a distinct token.
        let ta2 = a.open("same-identity", 4, tracker(7)).unwrap();
        assert_ne!(ta, ta2);
    }

    #[test]
    fn tracker_errors_keep_the_session() {
        let (manager, _) = manager(Duration::ZERO, 0);
        let token = manager.open("id", 4, tracker(7)).unwrap();
        let mut bad = square_tick(0);
        bad.active.clear(); // empty active set: tracker rejects it
        let err = manager.process(token, &[bad]).unwrap_err();
        assert!(matches!(err.code, ErrorCode::SolveFailed));
        // The session still works.
        let reply = manager
            .process(token, &[square_tick(1), square_tick(2)])
            .unwrap();
        assert_eq!(reply.accepted, 2);
        // Error ticks still count toward the lifetime tick counter.
        assert_eq!(reply.ticks, 3);
    }
}
