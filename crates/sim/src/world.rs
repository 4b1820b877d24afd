//! The world: event queue, scheduler, and the [`Context`] handed to actors.

use std::collections::HashSet;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::actor::{Actor, Message};
use crate::ids::{NodeId, TimerId};
use crate::metrics::Metrics;
use crate::network::{Delivery, NetFault, Network, NetworkConfig};
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceLog};
use crate::wheel::TimingWheel;

/// Configuration for a [`World`].
///
/// # Examples
///
/// ```
/// use repl_sim::{SimConfig, NetworkConfig};
/// let cfg = SimConfig::new(42).with_network(NetworkConfig::wan());
/// assert_eq!(cfg.seed, 42);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for the world's deterministic RNG.
    pub seed: u64,
    /// Network model configuration.
    pub network: NetworkConfig,
    /// Whether to record a [`TraceLog`] (disable in benchmarks).
    pub trace: bool,
    /// Expected number of kept trace records (marks and fault records): the
    /// log pre-sizes its buffer so recording never reallocates (0 = no hint).
    pub trace_capacity: usize,
    /// Nodes `0..coordination_nodes` form the coordination set (typically
    /// the replica servers): messages with both endpoints inside it are
    /// additionally counted in [`Metrics::coordination_messages`]. Zero
    /// (the default) disables the classification.
    pub coordination_nodes: u32,
}

impl SimConfig {
    /// Creates a configuration with the LAN network profile.
    pub fn new(seed: u64) -> Self {
        SimConfig {
            seed,
            network: NetworkConfig::lan(),
            trace: true,
            trace_capacity: 0,
            coordination_nodes: 0,
        }
    }

    /// Replaces the network configuration.
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Enables or disables trace recording.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the expected kept trace record count (pre-sizing hint).
    pub fn with_trace_capacity(mut self, records: usize) -> Self {
        self.trace_capacity = records;
        self
    }

    /// Declares nodes `0..n` as the coordination set (see
    /// [`Metrics::coordination_messages`]).
    pub fn with_coordination_nodes(mut self, n: u32) -> Self {
        self.coordination_nodes = n;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::new(0)
    }
}

enum Event<M> {
    Deliver {
        to: NodeId,
        from: NodeId,
        msg: M,
    },
    Timer {
        node: NodeId,
        id: TimerId,
        tag: u64,
    },
    Crash {
        node: NodeId,
    },
    Recover {
        node: NodeId,
    },
    VolumeLoss {
        node: NodeId,
    },
    /// A dormant actor boots mid-run (elastic join).
    Spawn {
        node: NodeId,
    },
    /// A planned decommission fires at a live node.
    Drain {
        node: NodeId,
    },
    Net {
        fault: NetFault,
    },
}

/// Everything an actor may touch while handling an event.
struct Core<M> {
    now: SimTime,
    seq: u64,
    queue: TimingWheel<Event<M>>,
    network: Network,
    rng: SmallRng,
    trace: TraceLog,
    metrics: Metrics,
    coordination_nodes: u32,
    next_timer: u64,
    cancelled: HashSet<u64>,
    alive: Vec<bool>,
}

impl<M: Message> Core<M> {
    fn push(&mut self, time: SimTime, event: Event<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(time.ticks(), seq, event);
    }

    /// Metrics, trace, and the network offer (which consumes RNG draws in
    /// send order); queues the delivery unless the network dropped it.
    fn send_from(&mut self, src: NodeId, dst: NodeId, msg: M) {
        let bytes = msg.wire_size();
        self.metrics.messages_sent += 1;
        if src.raw() < self.coordination_nodes && dst.raw() < self.coordination_nodes {
            self.metrics.coordination_messages += 1;
        }
        self.metrics.bytes_sent += bytes as u64;
        if self.trace.is_enabled() {
            self.trace
                .record(self.now, src, TraceEvent::MsgSent { to: dst, bytes });
        }
        match self.network.offer(&mut self.rng, self.now, src, dst) {
            Delivery::At(t) => self.push(
                t,
                Event::Deliver {
                    to: dst,
                    from: src,
                    msg,
                },
            ),
            Delivery::Dropped => {
                self.metrics.messages_dropped += 1;
                if self.trace.is_enabled() {
                    self.trace
                        .record(self.now, src, TraceEvent::MsgDropped { to: dst });
                }
            }
        }
    }
}

/// The handle through which an actor interacts with the simulation while
/// one of its callbacks runs.
pub struct Context<'a, M: Message> {
    core: &'a mut Core<M>,
    me: NodeId,
}

impl<'a, M: Message> Context<'a, M> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The node id of the running actor.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Sends `msg` to `to`, subject to the network model. Sending to
    /// oneself always succeeds and is delivered on the next tick.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.core.send_from(self.me, to, msg);
    }

    /// Sends `msg` to every node in `targets`: one [`Context::send`] per
    /// leg in target order, every leg but the last with a clone, the last
    /// leg taking `msg` itself.
    pub fn multicast<I>(&mut self, targets: I, msg: M)
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut it = targets.into_iter().peekable();
        while let Some(to) = it.next() {
            if it.peek().is_none() {
                return self.send(to, msg);
            }
            self.send(to, msg.clone());
        }
    }

    /// Arms a timer that fires after `delay` with the given `tag`.
    /// Returns an id usable with [`Context::cancel_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let id = TimerId(self.core.next_timer);
        self.core.next_timer += 1;
        let at = self.core.now + delay;
        self.core.push(
            at,
            Event::Timer {
                node: self.me,
                id,
                tag,
            },
        );
        id
    }

    /// Cancels a pending timer. Only cancel an id that has not fired: the
    /// id of a fired (or unknown) timer is never looked up again, so it
    /// stays in the cancelled set for the rest of the run — an actor that
    /// keeps its timer's id must forget it when the timer fires.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.core.cancelled.insert(id.0);
    }

    /// The world's deterministic RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.core.rng
    }

    /// Records an application-level trace marker (see [`TraceEvent::Mark`]).
    pub fn mark(&mut self, tag: &'static str, a: u64, b: u64) {
        if self.core.trace.is_enabled() {
            let now = self.core.now;
            self.core
                .trace
                .record(now, self.me, TraceEvent::Mark { tag, a, b });
        }
    }
}

/// A complete simulated system: actors, network, clock, and event queue.
///
/// # Examples
///
/// ```
/// use repl_sim::*;
///
/// #[derive(Clone, Debug)]
/// struct Ping(u32);
/// impl Message for Ping {}
///
/// struct Counter { seen: u32, peer: Option<NodeId> }
/// impl Actor<Ping> for Counter {
///     fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
///         if let Some(peer) = self.peer {
///             ctx.send(peer, Ping(1));
///         }
///     }
///     fn on_message(&mut self, _ctx: &mut Context<'_, Ping>, _from: NodeId, msg: Ping) {
///         self.seen += msg.0;
///     }
///     impl_as_any!();
/// }
///
/// let mut world = World::new(SimConfig::new(1));
/// let a = world.add_actor(Box::new(Counter { seen: 0, peer: None }));
/// let b = world.add_actor(Box::new(Counter { seen: 0, peer: Some(a) }));
/// # let _ = b;
/// world.start();
/// world.run_to_quiescence(SimTime::from_ticks(10_000));
/// assert_eq!(world.actor_ref::<Counter>(a).seen, 1);
/// ```
pub struct World<M: Message> {
    core: Core<M>,
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    started: bool,
}

impl<M: Message> World<M> {
    /// Creates an empty world.
    pub fn new(config: SimConfig) -> Self {
        // A disabled log stays at capacity 0 — benchmark runs must not
        // pay for trace memory they will never fill.
        let mut trace = if config.trace {
            TraceLog::with_capacity(config.trace_capacity)
        } else {
            TraceLog::new()
        };
        trace.set_enabled(config.trace);
        World {
            core: Core {
                now: SimTime::ZERO,
                seq: 0,
                queue: TimingWheel::new(),
                network: Network::new(config.network),
                rng: SmallRng::seed_from_u64(config.seed),
                trace,
                metrics: Metrics::default(),
                coordination_nodes: config.coordination_nodes,
                next_timer: 0,
                cancelled: HashSet::new(),
                alive: Vec::new(),
            },
            actors: Vec::new(),
            started: false,
        }
    }

    /// Adds an actor and returns its node id. Must be called before
    /// [`World::start`].
    ///
    /// # Panics
    ///
    /// Panics if the world has already started.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> NodeId {
        assert!(!self.started, "cannot add actors after start");
        let id = NodeId::from_index(self.actors.len());
        self.actors.push(Some(actor));
        self.core.alive.push(true);
        id
    }

    /// Adds a *dormant* actor: it occupies a node id but is down from
    /// the start — `on_start` is skipped, messages to it are dropped and
    /// its timers do not fire — until a scheduled
    /// [`World::schedule_spawn`] boots it mid-run. Elastic-membership
    /// joiners are registered this way. Must be called before
    /// [`World::start`].
    ///
    /// # Panics
    ///
    /// Panics if the world has already started.
    pub fn add_dormant_actor(&mut self, actor: Box<dyn Actor<M>>) -> NodeId {
        assert!(!self.started, "cannot add actors after start");
        let id = NodeId::from_index(self.actors.len());
        self.actors.push(Some(actor));
        self.core.alive.push(false);
        id
    }

    /// Number of actors in the world.
    pub fn node_count(&self) -> usize {
        self.actors.len()
    }

    /// Runs every actor's `on_start` callback in node-id order.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self) {
        assert!(!self.started, "world already started");
        self.started = true;
        self.core.network.reserve_nodes(self.actors.len());
        for i in 0..self.actors.len() {
            // Dormant actors (elastic joiners) boot at their scheduled
            // spawn, not here.
            if !self.core.alive[i] {
                continue;
            }
            let node = NodeId::from_index(i);
            self.with_actor(node, |actor, ctx| {
                actor.on_start(ctx);
                actor.on_settle(ctx);
            });
        }
    }

    fn with_actor<F: FnOnce(&mut dyn Actor<M>, &mut Context<'_, M>)>(
        &mut self,
        node: NodeId,
        f: F,
    ) {
        let mut actor = self.actors[node.index()]
            .take()
            .expect("actor re-entrancy is impossible");
        {
            let mut ctx = Context {
                core: &mut self.core,
                me: node,
            };
            f(actor.as_mut(), &mut ctx);
        }
        self.actors[node.index()] = Some(actor);
    }

    /// Hands a delivered message to its (live) target actor.
    fn deliver(&mut self, to: NodeId, from: NodeId, msg: M) {
        self.core.metrics.messages_delivered += 1;
        if self.core.trace.is_enabled() {
            // Hashed, not kept: the size is part of the trace hash.
            let bytes = msg.wire_size();
            let now = self.core.now;
            self.core
                .trace
                .record(now, to, TraceEvent::MsgDelivered { from, bytes });
        }
        self.with_actor(to, |actor, ctx| {
            actor.on_message(ctx, from, msg);
            actor.on_settle(ctx);
        });
    }

    /// Accounts for a message that arrived at a dead node.
    fn drop_at_dead_target(&mut self, to: NodeId, from: NodeId) {
        self.core.metrics.messages_dropped += 1;
        if self.core.trace.is_enabled() {
            let now = self.core.now;
            self.core
                .trace
                .record(now, from, TraceEvent::MsgDropped { to });
        }
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(next) = self.core.queue.pop() else {
            return false;
        };
        let time = SimTime::from_ticks(next.time);
        debug_assert!(time >= self.core.now, "time went backwards");
        self.core.now = time;
        self.core.metrics.events_processed += 1;
        match next.item {
            Event::Deliver { to, from, msg } => {
                if self.core.alive[to.index()] {
                    self.deliver(to, from, msg);
                } else {
                    self.drop_at_dead_target(to, from);
                }
            }
            Event::Timer { node, id, tag } => {
                let cancelled =
                    !self.core.cancelled.is_empty() && self.core.cancelled.remove(&id.0);
                if cancelled || !self.core.alive[node.index()] {
                    return true;
                }
                self.core.metrics.timers_fired += 1;
                self.with_actor(node, |actor, ctx| {
                    actor.on_timer(ctx, id, tag);
                    actor.on_settle(ctx);
                });
            }
            Event::Crash { node } => {
                if self.core.alive[node.index()] {
                    self.core.alive[node.index()] = false;
                    self.core.metrics.crashes_injected += 1;
                    let now = self.core.now;
                    self.core.trace.push(now, node, TraceEvent::Crashed);
                    let actor = self.actors[node.index()].as_mut().expect("actor present");
                    actor.on_crash(now);
                }
            }
            Event::Recover { node } => {
                if !self.core.alive[node.index()] {
                    self.core.alive[node.index()] = true;
                    self.core.metrics.recoveries_injected += 1;
                    let now = self.core.now;
                    self.core.trace.push(now, node, TraceEvent::Recovered);
                    self.with_actor(node, |actor, ctx| {
                        actor.on_recover(ctx);
                        actor.on_settle(ctx);
                    });
                }
            }
            Event::VolumeLoss { node } => {
                // A disaster can strike a live node or one already down
                // from a crash — either way the volume is gone afterwards.
                self.core.alive[node.index()] = false;
                self.core.metrics.volume_losses += 1;
                let now = self.core.now;
                self.core.trace.push(now, node, TraceEvent::VolumeLost);
                let actor = self.actors[node.index()].as_mut().expect("actor present");
                actor.on_volume_loss(now);
            }
            Event::Spawn { node } => {
                if !self.core.alive[node.index()] {
                    self.core.alive[node.index()] = true;
                    self.core.metrics.spawns_injected += 1;
                    let now = self.core.now;
                    self.core.trace.push(now, node, TraceEvent::Spawned);
                    self.with_actor(node, |actor, ctx| {
                        actor.on_start(ctx);
                        actor.on_settle(ctx);
                    });
                }
            }
            Event::Drain { node } => {
                if self.core.alive[node.index()] {
                    self.core.metrics.drains_injected += 1;
                    let now = self.core.now;
                    self.core.trace.push(now, node, TraceEvent::Drained);
                    self.with_actor(node, |actor, ctx| {
                        actor.on_drain(ctx);
                        actor.on_settle(ctx);
                    });
                }
            }
            Event::Net { fault } => {
                match &fault {
                    NetFault::Partition(_) => self.core.metrics.partitions_started += 1,
                    NetFault::Heal => self.core.metrics.partitions_healed += 1,
                    NetFault::Degrade { .. } => self.core.metrics.link_faults_injected += 1,
                    NetFault::Restore { .. } => self.core.metrics.link_faults_repaired += 1,
                }
                let at_node = match &fault {
                    NetFault::Degrade { src, .. } | NetFault::Restore { src, .. } => *src,
                    _ => NodeId::new(0),
                };
                let now = self.core.now;
                self.core
                    .trace
                    .push(now, at_node, TraceEvent::NetFault { kind: fault.kind() });
                self.core.network.apply(&fault);
            }
        }
        true
    }

    /// Processes events with time ≤ `deadline`. The clock ends at
    /// `deadline` even if the queue still holds later events.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(next) = self.core.queue.peek_time() {
            if SimTime::from_ticks(next) > deadline {
                break;
            }
            self.step();
        }
        if self.core.now < deadline {
            self.core.now = deadline;
        }
    }

    /// Runs until the queue drains or the clock would pass `limit`.
    /// Returns true if the queue drained (quiescence reached).
    pub fn run_to_quiescence(&mut self, limit: SimTime) -> bool {
        while let Some(next) = self.core.queue.peek_time() {
            if SimTime::from_ticks(next) > limit {
                return false;
            }
            self.step();
        }
        true
    }

    /// Schedules a crash of `node` at time `at`.
    pub fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        self.core.push(at, Event::Crash { node });
    }

    /// Schedules a recovery of `node` at time `at`.
    pub fn schedule_recover(&mut self, at: SimTime, node: NodeId) {
        self.core.push(at, Event::Recover { node });
    }

    /// Schedules a volume-loss disaster at `node` at time `at`: the node
    /// goes down (if it was not already) and its actor is told to discard
    /// all state modeled as living on the lost volume. The node stays
    /// down until a scheduled recovery.
    pub fn schedule_volume_loss(&mut self, at: SimTime, node: NodeId) {
        self.core.push(at, Event::VolumeLoss { node });
    }

    /// Schedules a dormant actor (added with
    /// [`World::add_dormant_actor`]) to boot at time `at`: the node comes
    /// up and its `on_start` runs, from which an elastic joiner opens its
    /// join handshake. A no-op if the node is already alive.
    pub fn schedule_spawn(&mut self, at: SimTime, node: NodeId) {
        self.core.push(at, Event::Spawn { node });
    }

    /// Schedules a planned decommission of `node` at time `at`: the
    /// actor's [`Actor::on_drain`] hook runs while the node stays alive,
    /// so it can stop accepting new work, hand off roles and leave its
    /// group without dropping in-flight messages. A no-op at dead nodes.
    pub fn schedule_drain(&mut self, at: SimTime, node: NodeId) {
        self.core.push(at, Event::Drain { node });
    }

    /// Schedules a network fault (partition, heal, link degradation or
    /// repair) to be applied at time `at`: the only way to change the
    /// network once the world exists.
    pub fn schedule_net_fault(&mut self, at: SimTime, fault: NetFault) {
        self.core.push(at, Event::Net { fault });
    }

    /// Returns true if `node` is currently alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.core.alive[node.index()]
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The run trace: its hash, its marks and its fault records.
    pub fn trace(&self) -> &TraceLog {
        &self.core.trace
    }

    /// The aggregate metrics.
    pub fn metrics(&self) -> Metrics {
        self.core.metrics
    }

    /// The network's current state (read-only: it changes through
    /// [`World::schedule_net_fault`]).
    pub fn network(&self) -> &Network {
        &self.core.network
    }

    /// Borrows a concrete actor for inspection.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist or the actor is not an `A`.
    pub fn actor_ref<A: 'static>(&self, node: NodeId) -> &A {
        self.actors[node.index()]
            .as_ref()
            .expect("actor present")
            .as_any()
            .downcast_ref::<A>()
            .expect("actor type mismatch")
    }

    /// Mutably borrows a concrete actor for inspection.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist or the actor is not an `A`.
    pub fn actor_mut<A: 'static>(&mut self, node: NodeId) -> &mut A {
        self.actors[node.index()]
            .as_mut()
            .expect("actor present")
            .as_any_mut()
            .downcast_mut::<A>()
            .expect("actor type mismatch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impl_as_any;
    use crate::network::LinkQuality;

    #[derive(Clone, Debug)]
    enum TestMsg {
        Ping(u64),
        Pong(#[allow(dead_code)] u64),
    }
    impl Message for TestMsg {
        fn wire_size(&self) -> usize {
            8
        }
    }

    /// Sends `count` pings to a peer on start; counts pongs.
    struct Pinger {
        peer: NodeId,
        count: u64,
        pongs: u64,
        fired: Vec<u64>,
    }
    impl Actor<TestMsg> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
            for i in 0..self.count {
                ctx.send(self.peer, TestMsg::Ping(i));
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, TestMsg>, _from: NodeId, msg: TestMsg) {
            if let TestMsg::Pong(_) = msg {
                self.pongs += 1;
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, TestMsg>, _id: TimerId, tag: u64) {
            self.fired.push(tag);
        }
        impl_as_any!();
    }

    /// Replies Pong to every Ping, recording arrival order.
    struct Ponger {
        seen: Vec<u64>,
    }
    impl Actor<TestMsg> for Ponger {
        fn on_message(&mut self, ctx: &mut Context<'_, TestMsg>, from: NodeId, msg: TestMsg) {
            if let TestMsg::Ping(i) = msg {
                self.seen.push(i);
                ctx.send(from, TestMsg::Pong(i));
            }
        }
        impl_as_any!();
    }

    fn ping_pong_world(seed: u64) -> (World<TestMsg>, NodeId, NodeId) {
        let mut world = World::new(SimConfig::new(seed));
        let b = world.add_actor(Box::new(Ponger { seen: Vec::new() }));
        let a = world.add_actor(Box::new(Pinger {
            peer: b,
            count: 10,
            pongs: 0,
            fired: Vec::new(),
        }));
        (world, a, b)
    }

    #[test]
    fn ping_pong_roundtrip() {
        let (mut world, a, b) = ping_pong_world(3);
        world.start();
        assert!(world.run_to_quiescence(SimTime::from_ticks(100_000)));
        assert_eq!(world.actor_ref::<Pinger>(a).pongs, 10);
        assert_eq!(world.actor_ref::<Ponger>(b).seen.len(), 10);
        let m = world.metrics();
        assert_eq!(m.messages_sent, 20);
        assert_eq!(m.messages_delivered, 20);
        assert_eq!(m.messages_dropped, 0);
        assert_eq!(m.bytes_sent, 160);
    }

    #[test]
    fn fifo_links_preserve_send_order() {
        let (mut world, _a, b) = ping_pong_world(11);
        world.start();
        world.run_to_quiescence(SimTime::from_ticks(100_000));
        let seen = &world.actor_ref::<Ponger>(b).seen;
        assert_eq!(*seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn disabled_trace_run_allocates_no_trace_memory() {
        let mut world = World::new(SimConfig::new(9).with_trace(false));
        let b = world.add_actor(Box::new(Ponger { seen: Vec::new() }));
        let _a = world.add_actor(Box::new(Pinger {
            peer: b,
            count: 10,
            pongs: 0,
            fired: Vec::new(),
        }));
        world.start();
        world.run_to_quiescence(SimTime::from_ticks(100_000));
        assert_eq!(world.metrics().messages_delivered, 20);
        assert!(world.trace().is_empty());
        assert_eq!(world.trace().capacity(), 0, "disabled trace bought memory");
    }

    #[test]
    fn trace_capacity_hint_presizes_the_log() {
        let mut world = World::<TestMsg>::new(SimConfig::new(9).with_trace_capacity(1_000));
        let _ = world.add_actor(Box::new(Ponger { seen: Vec::new() }));
        assert!(world.trace().capacity() >= 1_000);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let (mut w1, _, _) = ping_pong_world(42);
        let (mut w2, _, _) = ping_pong_world(42);
        w1.start();
        w2.start();
        w1.run_to_quiescence(SimTime::from_ticks(100_000));
        w2.run_to_quiescence(SimTime::from_ticks(100_000));
        let t1: Vec<_> = w1.trace().iter().cloned().collect();
        let t2: Vec<_> = w2.trace().iter().cloned().collect();
        assert_eq!(t1, t2);
        assert_ne!(w1.trace().hash(), TraceLog::new().hash(), "nothing hashed");
        assert_eq!(w1.trace().hash(), w2.trace().hash());
        assert_eq!(w1.now(), w2.now());
    }

    #[test]
    fn crashed_node_receives_nothing() {
        let (mut world, a, b) = ping_pong_world(5);
        world.schedule_crash(SimTime::ZERO, b);
        world.start();
        world.run_to_quiescence(SimTime::from_ticks(100_000));
        assert_eq!(world.actor_ref::<Pinger>(a).pongs, 0);
        assert!(world.actor_ref::<Ponger>(b).seen.is_empty());
        assert!(!world.is_alive(b));
        assert_eq!(world.metrics().messages_dropped, 10);
    }

    #[test]
    fn recovery_restores_message_flow() {
        let mut world: World<TestMsg> = World::new(SimConfig::new(9));
        let b = world.add_actor(Box::new(Ponger { seen: Vec::new() }));
        let a = world.add_actor(Box::new(Pinger {
            peer: b,
            count: 0,
            pongs: 0,
            fired: Vec::new(),
        }));
        world.schedule_crash(SimTime::from_ticks(10), b);
        world.schedule_recover(SimTime::from_ticks(1_000), b);
        world.start();
        world.run_until(SimTime::from_ticks(2_000));
        assert!(world.is_alive(b));
        // Message sent after recovery goes through.
        struct Probe;
        let _ = Probe;
        world.run_to_quiescence(SimTime::from_ticks(10_000));
        let _ = a;
    }

    /// Timer-behaviour actor for cancel tests.
    struct TimerUser {
        fired: Vec<u64>,
        cancel_second: bool,
    }
    impl Actor<TestMsg> for TimerUser {
        fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
            let _t1 = ctx.set_timer(SimDuration::from_ticks(10), 1);
            let t2 = ctx.set_timer(SimDuration::from_ticks(20), 2);
            ctx.set_timer(SimDuration::from_ticks(30), 3);
            if self.cancel_second {
                ctx.cancel_timer(t2);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, TestMsg>, _: NodeId, _: TestMsg) {}
        fn on_timer(&mut self, _ctx: &mut Context<'_, TestMsg>, _id: TimerId, tag: u64) {
            self.fired.push(tag);
        }
        impl_as_any!();
    }

    #[test]
    fn timers_fire_in_order_and_cancel_works() {
        let mut world: World<TestMsg> = World::new(SimConfig::new(1));
        let n = world.add_actor(Box::new(TimerUser {
            fired: Vec::new(),
            cancel_second: true,
        }));
        world.start();
        world.run_to_quiescence(SimTime::from_ticks(1_000));
        assert_eq!(world.actor_ref::<TimerUser>(n).fired, vec![1, 3]);
        assert_eq!(world.metrics().timers_fired, 2);
    }

    #[test]
    fn run_until_stops_the_clock_at_deadline() {
        let mut world: World<TestMsg> = World::new(SimConfig::new(1));
        let _ = world.add_actor(Box::new(TimerUser {
            fired: Vec::new(),
            cancel_second: false,
        }));
        world.start();
        world.run_until(SimTime::from_ticks(15));
        assert_eq!(world.now(), SimTime::from_ticks(15));
        world.run_to_quiescence(SimTime::from_ticks(1_000));
        assert_eq!(world.now(), SimTime::from_ticks(30));
    }

    #[test]
    #[should_panic(expected = "actor type mismatch")]
    fn wrong_downcast_panics() {
        let (world, a, _) = ping_pong_world(1);
        let _ = world.actor_ref::<Ponger>(a);
    }

    #[test]
    #[should_panic(expected = "cannot add actors after start")]
    fn add_after_start_panics() {
        let (mut world, _, _) = ping_pong_world(1);
        world.start();
        world.add_actor(Box::new(Ponger { seen: Vec::new() }));
    }

    #[test]
    fn partition_mid_run_blocks_traffic() {
        let mut world: World<TestMsg> = World::new(SimConfig::new(8));
        let b = world.add_actor(Box::new(Ponger { seen: Vec::new() }));
        let a = world.add_actor(Box::new(Pinger {
            peer: b,
            count: 0,
            pongs: 0,
            fired: Vec::new(),
        }));
        world.start();
        // A fault scheduled at `now` runs on the next step.
        world.schedule_net_fault(world.now(), NetFault::Partition(vec![vec![a], vec![b]]));
        world.run_until(world.now());
        assert!(!world.network().connected(a, b));
        world.schedule_net_fault(world.now(), NetFault::Heal);
        world.run_until(world.now());
        assert!(world.network().connected(a, b));
    }

    #[test]
    fn scheduled_net_faults_apply_at_their_time() {
        let mut world: World<TestMsg> = World::new(SimConfig::new(8));
        let b = world.add_actor(Box::new(Ponger { seen: Vec::new() }));
        let a = world.add_actor(Box::new(Pinger {
            peer: b,
            count: 0,
            pongs: 0,
            fired: Vec::new(),
        }));
        world.schedule_net_fault(
            SimTime::from_ticks(100),
            NetFault::Partition(vec![vec![a], vec![b]]),
        );
        world.schedule_net_fault(SimTime::from_ticks(500), NetFault::Heal);
        world.start();
        world.run_until(SimTime::from_ticks(50));
        assert!(world.network().connected(a, b), "fault applied early");
        world.run_until(SimTime::from_ticks(200));
        assert!(!world.network().connected(a, b), "partition not applied");
        world.run_until(SimTime::from_ticks(600));
        assert!(world.network().connected(a, b), "heal not applied");
        let m = world.metrics();
        assert_eq!(m.partitions_started, 1);
        assert_eq!(m.partitions_healed, 1);
        assert_eq!(m.faults_injected(), 1);
        assert_eq!(m.repairs_applied(), 1);
        // The trace records both fault applications.
        let kinds: Vec<&str> = world
            .trace()
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::NetFault { kind } => Some(kind),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec!["partition", "heal"]);
    }

    /// Records every storage-affecting callback, for fault-kind tests.
    struct FaultProbe {
        crashes: u64,
        volume_losses: u64,
        settles: u64,
    }
    impl Actor<TestMsg> for FaultProbe {
        fn on_message(&mut self, _: &mut Context<'_, TestMsg>, _: NodeId, _: TestMsg) {}
        fn on_crash(&mut self, _now: SimTime) {
            self.crashes += 1;
        }
        fn on_volume_loss(&mut self, _now: SimTime) {
            self.volume_losses += 1;
        }
        fn on_settle(&mut self, _ctx: &mut Context<'_, TestMsg>) {
            self.settles += 1;
        }
        impl_as_any!();
    }

    #[test]
    fn volume_loss_downs_node_and_invokes_disaster_callback() {
        let mut world: World<TestMsg> = World::new(SimConfig::new(2));
        let n = world.add_actor(Box::new(FaultProbe {
            crashes: 0,
            volume_losses: 0,
            settles: 0,
        }));
        world.schedule_volume_loss(SimTime::from_ticks(10), n);
        world.schedule_recover(SimTime::from_ticks(100), n);
        world.start();
        world.run_until(SimTime::from_ticks(50));
        assert!(!world.is_alive(n));
        world.run_to_quiescence(SimTime::from_ticks(1_000));
        assert!(world.is_alive(n));
        let probe = world.actor_ref::<FaultProbe>(n);
        assert_eq!(probe.volume_losses, 1);
        assert_eq!(probe.crashes, 0, "disaster must not double as a crash");
        // on_start + on_recover each settle once.
        assert_eq!(probe.settles, 2);
        let m = world.metrics();
        assert_eq!(m.volume_losses, 1);
        assert_eq!(m.crashes_injected, 0);
        assert_eq!(m.faults_injected(), 1);
        assert!(world
            .trace()
            .iter()
            .any(|r| r.event == TraceEvent::VolumeLost && r.node == n));
    }

    #[test]
    fn volume_loss_on_crashed_node_still_wipes() {
        let mut world: World<TestMsg> = World::new(SimConfig::new(2));
        let n = world.add_actor(Box::new(FaultProbe {
            crashes: 0,
            volume_losses: 0,
            settles: 0,
        }));
        world.schedule_crash(SimTime::from_ticks(10), n);
        world.schedule_volume_loss(SimTime::from_ticks(20), n);
        world.start();
        world.run_to_quiescence(SimTime::from_ticks(1_000));
        let probe = world.actor_ref::<FaultProbe>(n);
        assert_eq!(probe.crashes, 1);
        assert_eq!(probe.volume_losses, 1);
        assert!(!world.is_alive(n));
    }

    #[test]
    fn crash_and_recovery_counters_count_state_changes_only() {
        let (mut world, _a, b) = ping_pong_world(5);
        // Double crash and double recover: only the first of each changes
        // state and only those are counted.
        world.schedule_crash(SimTime::from_ticks(10), b);
        world.schedule_crash(SimTime::from_ticks(20), b);
        world.schedule_recover(SimTime::from_ticks(30), b);
        world.schedule_recover(SimTime::from_ticks(40), b);
        world.start();
        world.run_to_quiescence(SimTime::from_ticks(100_000));
        let m = world.metrics();
        assert_eq!(m.crashes_injected, 1);
        assert_eq!(m.recoveries_injected, 1);
    }

    /// Pings its peer once, from a timer (so scheduled faults can land
    /// before the send); records who each delivery came from, and when.
    struct LatePinger {
        peer: NodeId,
        pongs: u64,
        heard: Vec<(NodeId, SimTime)>,
    }
    impl LatePinger {
        fn new(peer: NodeId) -> Self {
            LatePinger {
                peer,
                pongs: 0,
                heard: Vec::new(),
            }
        }
    }
    impl Actor<TestMsg> for LatePinger {
        fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
            ctx.set_timer(SimDuration::from_ticks(1_000), 0);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, TestMsg>, from: NodeId, msg: TestMsg) {
            self.heard.push((from, ctx.now()));
            if let TestMsg::Pong(_) = msg {
                self.pongs += 1;
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, TestMsg>, _: TimerId, _: u64) {
            ctx.send(self.peer, TestMsg::Ping(0));
        }
        impl_as_any!();
    }

    /// Replies Pong to every Ping, recording who sent it and when.
    struct Echo {
        heard: Vec<(NodeId, SimTime)>,
    }
    impl Actor<TestMsg> for Echo {
        fn on_message(&mut self, ctx: &mut Context<'_, TestMsg>, from: NodeId, msg: TestMsg) {
            self.heard.push((from, ctx.now()));
            if let TestMsg::Ping(i) = msg {
                ctx.send(from, TestMsg::Pong(i));
            }
        }
        impl_as_any!();
    }

    #[test]
    fn scheduled_link_degrade_delays_messages() {
        let mut world: World<TestMsg> = World::new(SimConfig::new(13));
        let b = world.add_actor(Box::new(Echo { heard: Vec::new() }));
        let a = world.add_actor(Box::new(LatePinger::new(b)));
        // Degrade a→b before the timed ping at t=1000: the ping pays the
        // spike, the pong (b→a) does not.
        world.schedule_net_fault(
            SimTime::from_ticks(500),
            NetFault::Degrade {
                src: a,
                dst: b,
                quality: LinkQuality::latency_spike(SimDuration::from_ticks(10_000)),
            },
        );
        world.start();
        world.run_to_quiescence(SimTime::from_ticks(100_000));
        assert_eq!(world.actor_ref::<LatePinger>(a).pongs, 1);
        assert_eq!(world.metrics().link_faults_injected, 1);
        // Delivery of the ping happened after the spike.
        let heard = &world.actor_ref::<Echo>(b).heard;
        assert_eq!(heard.len(), 1, "ping delivered once: {heard:?}");
        let (from, delivered_at) = heard[0];
        assert_eq!(from, a);
        assert!(
            delivered_at.ticks() >= 11_100,
            "spike skipped: {delivered_at}"
        );
    }

    #[test]
    fn scheduled_fully_lossy_degrade_cuts_one_direction() {
        let mut world: World<TestMsg> = World::new(SimConfig::new(13));
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        world.add_actor(Box::new(LatePinger::new(b)));
        world.add_actor(Box::new(LatePinger::new(a)));
        // Cut a→b around both timed pings at t=1000, then repair it.
        world.schedule_net_fault(
            SimTime::from_ticks(500),
            NetFault::Degrade {
                src: a,
                dst: b,
                quality: LinkQuality::lossy(1.0),
            },
        );
        world.schedule_net_fault(
            SimTime::from_ticks(2_000),
            NetFault::Restore { src: a, dst: b },
        );
        world.start();
        world.run_to_quiescence(SimTime::from_ticks(100_000));
        // Only b's ping reaches its peer.
        let delivered: Vec<(NodeId, NodeId)> = [a, b]
            .into_iter()
            .flat_map(|to| {
                let heard = &world.actor_ref::<LatePinger>(to).heard;
                heard.iter().map(move |&(from, _)| (from, to))
            })
            .collect();
        assert_eq!(delivered, vec![(b, a)]);
        let m = world.metrics();
        assert_eq!(m.messages_dropped, 1);
        assert_eq!((m.link_faults_injected, m.link_faults_repaired), (1, 1));
    }
}
