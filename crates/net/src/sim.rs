//! The discrete-event loop: per-node state machines exchanging messages.
//!
//! Nodes implement the [`Node`] trait; the [`Simulator`] owns one state
//! machine per sensor node, delivers broadcast/unicast messages according to
//! the [`crate::RadioModel`] and the disk topology, and fires
//! timers. Everything is deterministic given the seed.
//!
//! # Scheduling
//!
//! Every event carries a `(time, seq)` key, where `seq` counts scheduled
//! events, and events run in ascending key order. A transmission (a
//! broadcast, or a unicast to a neighbour) becomes one *burst*: the
//! message, held once, plus the recipients the radio reached, each with
//! its own key, sorted. The radio draws per neighbour in topology order
//! (`delivered?`, then the latency) and only delivered recipients consume
//! a `seq`. The priority queue holds one entry per burst, keyed by the
//! burst's next pending recipient, so popping it is a k-way merge of the
//! sorted bursts: deliveries come out in exactly the `(time, seq)` order a
//! queue with one entry per delivery would give. After a delivery the
//! burst's entry is re-keyed in place to its next recipient; the
//! sift-down that follows stops at once while the burst still comes
//! first, so a burst drains without queue traffic until another event
//! precedes it.
//!
//! Receivers get the message by reference ([`Node::on_message`]); the
//! simulator never clones one, so a protocol copies a payload only when
//! it keeps or relays it.
//!
//! # Ignored deliveries
//!
//! A protocol may declare, through [`Node::ignores`], that a delivery
//! could change nothing at its recipient. The radio still draws
//! `delivered?` and the latency for that recipient, the delivery still
//! takes its `seq` and still counts in [`SimStats::delivered`] and
//! [`SimStats::events`], but it is never queued. So the random stream,
//! the `(time, seq)` key of every queued event, the statistics and the
//! event budget's meaning are exactly those of a run that queued it and
//! had the recipient drop it. Only [`Simulator::time`], the time of the
//! last queued event, can end earlier.

use std::collections::binary_heap::{BinaryHeap, PeekMut};

use rand::rngs::StdRng;
use rl_geom::Point2;

use crate::{NetError, NodeId, RadioModel, Result, Topology};

/// A per-node protocol state machine.
pub trait Node {
    /// Message type exchanged by this protocol.
    type Msg: core::fmt::Debug;

    /// Called once when the simulation starts.
    fn on_start(&mut self, api: &mut Api<'_, Self::Msg>);

    /// Called when a message from `from` is delivered to this node. Every
    /// recipient of one transmission sees the same message, by reference.
    fn on_message(&mut self, from: NodeId, msg: &Self::Msg, api: &mut Api<'_, Self::Msg>);

    /// Whether this node ignores `msg` from `from`, asked when the message
    /// is sent. Returning `true` promises that [`Node::on_message`] would
    /// change nothing and send nothing, whenever after this call the
    /// message arrived; the simulator then counts the delivery without
    /// queueing it (see the module docs). The default ignores nothing.
    fn ignores(&self, from: NodeId, msg: &Self::Msg) -> bool {
        let _ = (from, msg);
        false
    }

    /// Called when a timer set via [`Api::set_timer`] fires.
    fn on_timer(&mut self, timer: u64, api: &mut Api<'_, Self::Msg>) {
        let _ = (timer, api);
    }
}

/// The side-effect interface handed to node callbacks.
#[derive(Debug)]
pub struct Api<'a, M> {
    now: f64,
    me: NodeId,
    actions: &'a mut Vec<Action<M>>,
}

impl<M> Api<'_, M> {
    /// Current simulation time, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The id of the node being called.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// Broadcasts a message to every radio neighbor (lossy).
    pub fn broadcast(&mut self, msg: M) {
        self.actions.push(Action::Broadcast(msg));
    }

    /// Sends a message to one radio neighbor (lossy; silently dropped if
    /// `to` is out of radio range).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send(to, msg));
    }

    /// Schedules `on_timer(id)` on this node after `delay_s` seconds.
    pub fn set_timer(&mut self, delay_s: f64, id: u64) {
        self.actions.push(Action::Timer(delay_s.max(0.0), id));
    }
}

#[derive(Debug)]
enum Action<M> {
    Broadcast(M),
    Send(NodeId, M),
    Timer(f64, u64),
}

/// What a queue entry stands for.
#[derive(Debug, Clone, Copy)]
enum Event {
    Start(NodeId),
    Timer {
        node: NodeId,
        id: u64,
    },
    /// The next pending delivery of the burst in this slot.
    Burst(usize),
}

/// A queue entry, ordered by its `(time, seq)` key.
struct Scheduled {
    time: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // BinaryHeap is a max-heap: invert so the earliest event pops first,
        // with the sequence number as a deterministic tie-breaker.
        other
            .time
            .partial_cmp(&self.time)
            .expect("finite event times")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One recipient of a burst.
#[derive(Debug, Clone, Copy)]
struct Delivery {
    time: f64,
    seq: u64,
    to: NodeId,
}

/// One transmission: the message, held once, and the recipients the
/// radio reached, in `(time, seq)` order. Slots are reused, so the
/// `deliveries` buffer keeps its capacity across transmissions.
struct Burst<M> {
    from: NodeId,
    msg: Option<M>,
    deliveries: Vec<Delivery>,
    next: usize,
}

/// Statistics of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Events processed (starts + deliveries + timers), ignored
    /// deliveries included.
    pub events: usize,
    /// Messages delivered to a node, ignored ones included.
    pub delivered: usize,
    /// Messages lost to radio loss.
    pub dropped: usize,
}

/// The discrete-event simulator.
///
/// # Example
///
/// ```
/// use rl_net::{Api, Node, NodeId, RadioModel, Simulator};
/// use rl_geom::Point2;
///
/// /// Every node broadcasts a ping once; everyone counts pings heard.
/// struct Ping { heard: usize }
/// impl Node for Ping {
///     type Msg = ();
///     fn on_start(&mut self, api: &mut Api<'_, ()>) { api.broadcast(()); }
///     fn on_message(&mut self, _from: NodeId, _msg: &(), _api: &mut Api<'_, ()>) {
///         self.heard += 1;
///     }
/// }
///
/// let positions = vec![Point2::new(0.0, 0.0), Point2::new(5.0, 0.0)];
/// let nodes = vec![Ping { heard: 0 }, Ping { heard: 0 }];
/// let mut sim = Simulator::new(nodes, &positions, RadioModel::ideal(10.0), 42);
/// sim.run().unwrap();
/// assert_eq!(sim.node(NodeId(0)).heard, 1);
/// assert_eq!(sim.node(NodeId(1)).heard, 1);
/// ```
pub struct Simulator<N: Node> {
    nodes: Vec<N>,
    topology: Topology,
    radio: RadioModel,
    queue: BinaryHeap<Scheduled>,
    bursts: Vec<Burst<N::Msg>>,
    free_bursts: Vec<usize>,
    actions: Vec<Action<N::Msg>>,
    time: f64,
    seq: u64,
    rng: StdRng,
    event_budget: usize,
    stats: SimStats,
}

impl<N: Node> Simulator<N> {
    /// Creates a simulator over nodes placed at `positions`, connected by
    /// the disk radio model, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` and `positions` differ in length or the radio
    /// model is invalid.
    pub fn new(nodes: Vec<N>, positions: &[Point2], radio: RadioModel, seed: u64) -> Self {
        assert_eq!(
            nodes.len(),
            positions.len(),
            "one position per node required"
        );
        radio.validate().expect("invalid radio model");
        let topology = Topology::from_positions(positions, radio.range_m);
        Simulator {
            nodes,
            topology,
            radio,
            queue: BinaryHeap::new(),
            bursts: Vec::new(),
            free_bursts: Vec::new(),
            actions: Vec::new(),
            time: 0.0,
            seq: 0,
            rng: rl_math::rng::seeded(seed),
            event_budget: 1_000_000,
            stats: SimStats::default(),
        }
    }

    /// Overrides the runaway-protocol event budget (builder style).
    pub fn with_event_budget(mut self, budget: usize) -> Self {
        self.event_budget = budget;
        self
    }

    /// The radio topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Current simulation time, seconds: the time of the last queued
    /// event processed. Deliveries a node ignores are never queued, so
    /// they do not advance it.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Statistics of the run so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Immutable access to a node's state machine.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Iterates over all node state machines.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &N)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    fn schedule(&mut self, time: f64, event: Event) {
        self.seq += 1;
        self.queue.push(Scheduled {
            time,
            seq: self.seq,
            event,
        });
    }

    /// Runs the simulation to completion: schedules `on_start` on every
    /// node at time 0 and processes events until the queue drains.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::EventBudgetExhausted`] if the protocol does not
    /// quiesce within the event budget, ignored deliveries counted.
    pub fn run(&mut self) -> Result<SimStats> {
        for i in 0..self.nodes.len() {
            self.schedule(0.0, Event::Start(NodeId(i)));
        }
        self.drain()
    }

    fn drain(&mut self) -> Result<SimStats> {
        loop {
            let Some(mut head) = self.queue.peek_mut() else {
                // Ignored deliveries count when sent, so the last of them
                // can overrun the budget after the last queued event.
                if self.stats.events > self.event_budget {
                    return Err(NetError::EventBudgetExhausted {
                        budget: self.event_budget,
                    });
                }
                return Ok(self.stats);
            };
            let (time, event) = (head.time, head.event);
            let node = match event {
                Event::Start(node) | Event::Timer { node, .. } => {
                    PeekMut::pop(head);
                    node
                }
                Event::Burst(slot) => {
                    let burst = &mut self.bursts[slot];
                    let to = burst.deliveries[burst.next].to;
                    burst.next += 1;
                    match burst.deliveries.get(burst.next) {
                        // Re-key the entry to the burst's next recipient in
                        // place; the sift-down this triggers stops at once
                        // while the burst still comes first.
                        Some(next) => {
                            head.time = next.time;
                            head.seq = next.seq;
                            drop(head);
                        }
                        None => {
                            PeekMut::pop(head);
                        }
                    }
                    to
                }
            };
            if self.stats.events >= self.event_budget {
                return Err(NetError::EventBudgetExhausted {
                    budget: self.event_budget,
                });
            }
            self.stats.events += 1;
            self.time = self.time.max(time);

            let mut actions = std::mem::take(&mut self.actions);
            let mut api = Api {
                now: self.time,
                me: node,
                actions: &mut actions,
            };
            let state = &mut self.nodes[node.index()];
            match event {
                Event::Start(_) => state.on_start(&mut api),
                Event::Timer { id, .. } => state.on_timer(id, &mut api),
                Event::Burst(slot) => {
                    self.stats.delivered += 1;
                    let burst = &mut self.bursts[slot];
                    let msg = burst
                        .msg
                        .as_ref()
                        .expect("a queued burst holds its message");
                    state.on_message(burst.from, msg, &mut api);
                    if burst.next == burst.deliveries.len() {
                        burst.msg = None;
                        burst.deliveries.clear();
                        burst.next = 0;
                        self.free_bursts.push(slot);
                    }
                }
            }
            self.apply(node, actions);
        }
    }

    /// Carries out a callback's actions in order, then hands the emptied
    /// buffer back for the next callback.
    fn apply(&mut self, origin: NodeId, mut actions: Vec<Action<N::Msg>>) {
        for action in actions.drain(..) {
            match action {
                Action::Broadcast(msg) => self.transmit(origin, None, msg),
                Action::Send(to, msg) => {
                    if self.topology.are_neighbors(origin, to) {
                        self.transmit(origin, Some(to), msg);
                    } else {
                        self.stats.dropped += 1;
                    }
                }
                Action::Timer(delay, id) => {
                    self.schedule(self.time + delay, Event::Timer { node: origin, id });
                }
            }
        }
        self.actions = actions;
    }

    /// Sends `msg` from `from` to one neighbour (`Some(to)`) or to all of
    /// them (`None`) as one burst. A recipient that [`Node::ignores`] the
    /// message takes its draws and `seq` and is counted, but not queued.
    fn transmit(&mut self, from: NodeId, to: Option<NodeId>, msg: N::Msg) {
        let slot = self.free_bursts.pop().unwrap_or_else(|| {
            self.bursts.push(Burst {
                from,
                msg: None,
                deliveries: Vec::new(),
                next: 0,
            });
            self.bursts.len() - 1
        });
        let burst = &mut self.bursts[slot];
        let recipients = match &to {
            Some(to) => std::slice::from_ref(to),
            None => self.topology.neighbors(from),
        };
        for &to in recipients {
            if self.radio.delivered(&mut self.rng) {
                let latency = self.radio.latency(&mut self.rng);
                self.seq += 1;
                if self.nodes[to.index()].ignores(from, &msg) {
                    self.stats.delivered += 1;
                    self.stats.events += 1;
                    continue;
                }
                burst.deliveries.push(Delivery {
                    time: self.time + latency,
                    seq: self.seq,
                    to,
                });
            } else {
                self.stats.dropped += 1;
            }
        }
        if burst.deliveries.is_empty() {
            self.free_bursts.push(slot);
            return;
        }
        // Seqs ascend in draw order, so a stable sort by time alone
        // leaves the recipients in `(time, seq)` order.
        burst
            .deliveries
            .sort_by(|a, b| a.time.partial_cmp(&b.time).expect("finite event times"));
        let first = burst.deliveries[0];
        burst.from = from;
        burst.msg = Some(msg);
        self.queue.push(Scheduled {
            time: first.time,
            seq: first.seq,
            event: Event::Burst(slot),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_math::fingerprint::Fnv1a;

    /// Counts pings; used by several tests.
    struct Ping {
        heard: usize,
    }

    impl Ping {
        fn new() -> Self {
            Ping { heard: 0 }
        }
    }

    impl Node for Ping {
        type Msg = u32;
        fn on_start(&mut self, api: &mut Api<'_, u32>) {
            api.broadcast(7);
        }
        fn on_message(&mut self, _from: NodeId, msg: &u32, _api: &mut Api<'_, u32>) {
            assert_eq!(*msg, 7);
            self.heard += 1;
        }
    }

    fn line_positions(n: usize, spacing: f64) -> Vec<Point2> {
        (0..n)
            .map(|i| Point2::new(i as f64 * spacing, 0.0))
            .collect()
    }

    #[test]
    fn broadcast_reaches_neighbors_only() {
        let positions = line_positions(3, 8.0);
        let nodes = vec![Ping::new(), Ping::new(), Ping::new()];
        let mut sim = Simulator::new(nodes, &positions, RadioModel::ideal(10.0), 1);
        let stats = sim.run().unwrap();
        // Middle node hears both ends; ends hear only the middle.
        assert_eq!(sim.node(NodeId(0)).heard, 1);
        assert_eq!(sim.node(NodeId(1)).heard, 2);
        assert_eq!(sim.node(NodeId(2)).heard, 1);
        assert_eq!(stats.delivered, 4);
        assert_eq!(stats.dropped, 0);
        assert!(sim.time() > 0.0);
    }

    #[test]
    fn unicast_respects_range() {
        struct Sender;
        impl Node for Sender {
            type Msg = ();
            fn on_start(&mut self, api: &mut Api<'_, ()>) {
                api.send(NodeId(1), ()); // neighbor
                api.send(NodeId(2), ()); // out of range -> dropped
            }
            fn on_message(&mut self, _f: NodeId, _m: &(), _a: &mut Api<'_, ()>) {}
        }
        let positions = line_positions(3, 8.0);
        let mut sim = Simulator::new(
            vec![Sender, Sender, Sender],
            &positions,
            RadioModel::ideal(10.0),
            2,
        );
        let stats = sim.run().unwrap();
        assert_eq!(stats.dropped, 3); // each node's far send fails
        assert_eq!(stats.delivered, 3);
    }

    #[test]
    fn timers_fire_in_order() {
        struct Timed {
            fired: Vec<u64>,
        }
        impl Node for Timed {
            type Msg = ();
            fn on_start(&mut self, api: &mut Api<'_, ()>) {
                api.set_timer(0.3, 3);
                api.set_timer(0.1, 1);
                api.set_timer(0.2, 2);
            }
            fn on_message(&mut self, _f: NodeId, _m: &(), _a: &mut Api<'_, ()>) {}
            fn on_timer(&mut self, id: u64, _api: &mut Api<'_, ()>) {
                self.fired.push(id);
            }
        }
        let mut sim = Simulator::new(
            vec![Timed { fired: vec![] }],
            &[Point2::ORIGIN],
            RadioModel::ideal(10.0),
            3,
        );
        sim.run().unwrap();
        assert_eq!(sim.node(NodeId(0)).fired, vec![1, 2, 3]);
    }

    #[test]
    fn lossy_radio_drops_messages() {
        let positions = line_positions(2, 5.0);
        let radio = RadioModel {
            loss_probability: 1.0,
            ..RadioModel::mica2()
        };
        let mut sim = Simulator::new(vec![Ping::new(), Ping::new()], &positions, radio, 4);
        let stats = sim.run().unwrap();
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.dropped, 2);
        assert_eq!(sim.node(NodeId(0)).heard, 0);
    }

    #[test]
    fn event_budget_stops_runaway_protocols() {
        /// Echoes every message back forever.
        struct Echo;
        impl Node for Echo {
            type Msg = ();
            fn on_start(&mut self, api: &mut Api<'_, ()>) {
                api.broadcast(());
            }
            fn on_message(&mut self, _f: NodeId, _m: &(), api: &mut Api<'_, ()>) {
                api.broadcast(());
            }
        }
        let positions = line_positions(2, 5.0);
        let mut sim = Simulator::new(vec![Echo, Echo], &positions, RadioModel::ideal(10.0), 5)
            .with_event_budget(500);
        let err = sim.run().unwrap_err();
        assert_eq!(err, NetError::EventBudgetExhausted { budget: 500 });
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let positions = line_positions(5, 8.0);
            let nodes = (0..5).map(|_| Ping::new()).collect();
            let mut sim = Simulator::new(
                nodes,
                &positions,
                RadioModel {
                    loss_probability: 0.3,
                    ..RadioModel::mica2()
                },
                seed,
            );
            sim.run().unwrap();
            sim.iter().map(|(_, n)| n.heard).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }

    /// A shared delivery log: every delivery's time bits, sender,
    /// receiver and message, in the order the simulator delivered them.
    type Log = std::rc::Rc<std::cell::RefCell<Fnv1a>>;

    fn log_delivery(log: &Log, now: f64, from: NodeId, to: NodeId, words: &[u64]) {
        let mut h = log.borrow_mut();
        h.write_f64(now);
        h.write_u64(from.index() as u64);
        h.write_u64(to.index() as u64);
        for &w in words {
            h.write_u64(w);
        }
    }

    fn finish_log(log: &Log, stats: SimStats, end: f64) -> u64 {
        let mut h = log.borrow().clone();
        h.write_u64(stats.events as u64);
        h.write_u64(stats.delivered as u64);
        h.write_u64(stats.dropped as u64);
        h.write_f64(end);
        h.finish()
    }

    /// Jittered 6×5 grid, 10 m pitch: a multi-hop topology at 25 m range.
    fn jittered_grid(seed: u64) -> Vec<Point2> {
        use rand::Rng;
        let mut rng = rl_math::rng::seeded(seed);
        (0..30)
            .map(|i| {
                Point2::new(
                    (i % 6) as f64 * 10.0 + rng.random::<f64>() * 4.0,
                    (i / 6) as f64 * 10.0 + rng.random::<f64>() * 4.0,
                )
            })
            .collect()
    }

    /// Broadcasts, in- and out-of-range unicasts, timers, and relays of
    /// first-hop messages: every scheduling path in one protocol.
    struct Chatty {
        log: Log,
        relayed: usize,
    }

    impl Node for Chatty {
        type Msg = (u32, u32);
        fn on_start(&mut self, api: &mut Api<'_, (u32, u32)>) {
            let me = api.id().index();
            api.broadcast((me as u32, 0));
            api.send(NodeId((me + 1) % 30), (me as u32, 1));
            api.send(NodeId((me + 15) % 30), (me as u32, 2));
            api.set_timer(0.004 + (me % 5) as f64 * 0.001, me as u64);
            api.set_timer(0.0, 99);
        }
        fn on_message(&mut self, from: NodeId, msg: &(u32, u32), api: &mut Api<'_, (u32, u32)>) {
            log_delivery(
                &self.log,
                api.now(),
                from,
                api.id(),
                &[msg.0 as u64, msg.1 as u64],
            );
            if msg.1 == 0 && self.relayed < 3 {
                self.relayed += 1;
                api.broadcast((msg.0, 3));
            }
        }
        fn on_timer(&mut self, id: u64, api: &mut Api<'_, (u32, u32)>) {
            if id != 99 {
                api.broadcast((api.id().index() as u32, 4));
            }
        }
    }

    /// A [`FloodNode`](crate::flood::FloodNode) that logs what it hears.
    struct LoggedFlood {
        log: Log,
        inner: crate::flood::FloodNode<u32>,
    }

    impl Node for LoggedFlood {
        type Msg = crate::flood::FloodMsg<u32>;
        fn on_start(&mut self, api: &mut Api<'_, Self::Msg>) {
            self.inner.on_start(api);
        }
        fn on_message(&mut self, from: NodeId, msg: &Self::Msg, api: &mut Api<'_, Self::Msg>) {
            let words = [
                msg.origin.index() as u64,
                msg.hops as u64,
                msg.payload as u64,
            ];
            log_delivery(&self.log, api.now(), from, api.id(), &words);
            self.inner.on_message(from, msg, api);
        }
    }

    /// Pins the exact delivery order of two runs, so any scheduler change
    /// must reproduce the per-delivery priority queue's `(time, seq)`
    /// order bit for bit. Both digests were generated with the
    /// one-heap-entry-per-delivery scheduler, before deliveries were
    /// grouped into per-transmission bursts.
    #[test]
    fn delivery_order_matches_the_per_delivery_scheduler() {
        const GOLDEN_CHATTY: u64 = 0x18e3d18c927b8f67;
        const GOLDEN_FLOOD: u64 = 0x610e3223e969ac3f;

        let log = Log::default();
        let nodes = (0..30)
            .map(|_| Chatty {
                log: log.clone(),
                relayed: 0,
            })
            .collect();
        let radio = RadioModel {
            range_m: 25.0,
            loss_probability: 0.1,
            ..RadioModel::mica2()
        };
        let mut sim = Simulator::new(nodes, &jittered_grid(11), radio, 12);
        let stats = sim.run().unwrap();
        assert!(stats.dropped > 0 && stats.delivered > 500, "{stats:?}");
        let chatty = finish_log(&log, stats, sim.time());

        let log = Log::default();
        let nodes = (0..30)
            .map(|i| LoggedFlood {
                log: log.clone(),
                inner: if i % 7 == 3 {
                    crate::flood::FloodNode::origin(i as u32 * 10)
                } else {
                    crate::flood::FloodNode::relay()
                },
            })
            .collect();
        let mut sim = Simulator::new(nodes, &jittered_grid(13), RadioModel::ideal(15.0), 14);
        let stats = sim.run().unwrap();
        let flood = finish_log(&log, stats, sim.time());

        assert_eq!(
            chatty, GOLDEN_CHATTY,
            "lossy jittered delivery order drifted"
        );
        assert_eq!(
            flood, GOLDEN_FLOOD,
            "multi-origin flood delivery order drifted"
        );
    }

    /// Lossy chatter in which every odd-tagged message is one its
    /// recipient drops. With `ignoring` the node says so through
    /// [`Node::ignores`]; without it the delivery is queued and dropped in
    /// `on_message`, as under the default.
    struct Picky {
        log: Log,
        ignoring: bool,
        relayed: usize,
        dropped: usize,
    }

    impl Node for Picky {
        type Msg = (u32, u32);
        fn on_start(&mut self, api: &mut Api<'_, (u32, u32)>) {
            let me = api.id().index();
            api.broadcast((me as u32, 0));
            api.broadcast((me as u32, 1));
            api.send(NodeId((me + 1) % 30), (me as u32, 3));
            api.set_timer(0.002 + (me % 3) as f64 * 0.001, me as u64);
        }
        fn on_message(&mut self, from: NodeId, msg: &(u32, u32), api: &mut Api<'_, (u32, u32)>) {
            if msg.1 % 2 == 1 {
                assert!(!self.ignoring, "an ignored delivery reached on_message");
                self.dropped += 1;
                return;
            }
            log_delivery(
                &self.log,
                api.now(),
                from,
                api.id(),
                &[msg.0 as u64, msg.1 as u64],
            );
            if msg.1 == 0 && self.relayed < 2 {
                self.relayed += 1;
                api.broadcast((msg.0, 5));
                api.broadcast((msg.0, 2));
            }
        }
        fn on_timer(&mut self, id: u64, api: &mut Api<'_, (u32, u32)>) {
            api.broadcast((id as u32, 7));
            api.broadcast((id as u32, 4));
        }
        fn ignores(&self, _from: NodeId, msg: &(u32, u32)) -> bool {
            self.ignoring && msg.1 % 2 == 1
        }
    }

    /// Ignored deliveries take their radio draws and `seq` and count in
    /// the statistics and the event budget, so every delivery a node acts
    /// on comes at the same time and in the same order as when each one
    /// is queued; none reaches `on_message`.
    #[test]
    fn ignored_deliveries_keep_draws_order_and_counts() {
        let run = |ignoring: bool, budget: usize| {
            let log = Log::default();
            let nodes = (0..30)
                .map(|_| Picky {
                    log: log.clone(),
                    ignoring,
                    relayed: 0,
                    dropped: 0,
                })
                .collect();
            let radio = RadioModel {
                range_m: 25.0,
                loss_probability: 0.2,
                ..RadioModel::mica2()
            };
            let mut sim =
                Simulator::new(nodes, &jittered_grid(17), radio, 18).with_event_budget(budget);
            let outcome = sim.run();
            let dropped: usize = sim.iter().map(|(_, n)| n.dropped).sum();
            let digest = outcome
                .as_ref()
                .ok()
                .map(|&stats| finish_log(&log, stats, 0.0));
            (outcome, digest, dropped, sim.time())
        };
        let (queued, queued_digest, dropped, queued_end) = run(false, usize::MAX);
        let (ignored, ignored_digest, none, ignored_end) = run(true, usize::MAX);
        let stats = queued.unwrap();
        assert!(dropped > 300 && stats.dropped > 0, "{stats:?}, {dropped}");
        assert_eq!(none, 0);
        assert_eq!(ignored, Ok(stats));
        assert_eq!(ignored_digest, queued_digest);
        assert!(ignored_end <= queued_end);

        // The budget counts ignored deliveries exactly as queued ones.
        let exhausted = Err(NetError::EventBudgetExhausted {
            budget: stats.events - 1,
        });
        assert_eq!(run(false, stats.events - 1).0, exhausted);
        assert_eq!(run(true, stats.events - 1).0, exhausted);
        assert_eq!(run(true, stats.events).0, Ok(stats));
    }

    #[test]
    #[should_panic(expected = "one position per node")]
    fn mismatched_positions_panic() {
        let _ = Simulator::new(vec![Ping::new()], &[], RadioModel::ideal(1.0), 0);
    }
}
