//! Heartbeat failure detector.
//!
//! Any message from a monitored peer is evidence that it is alive: the
//! host feeds each one to [`HeartbeatFd::heard`] before handling it. At
//! every tick the detector suspects a peer after a configurable number of
//! consecutive intervals without evidence, and beats to each peer this
//! node sent no evidence within the last interval (as the host reports
//! with [`HeartbeatFd::note_sends`]) — so a heartbeat crosses only a
//! silent link. In the simulator's crash-stop runs (no loss, bounded latency)
//! this behaves like an eventually perfect detector ◇P: every crashed
//! process is eventually suspected and, after suspicion, a false
//! suspicion is corrected the moment evidence arrives
//! ([`FdEvent::Trust`]).

use repl_sim::{Message, NodeId, SimDuration, SimTime};

use crate::component::{Component, Outbox};

/// Wire message of [`HeartbeatFd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdMsg {
    /// "I am alive."
    Heartbeat,
}

impl Message for FdMsg {
    fn wire_size(&self) -> usize {
        8
    }

    fn is_background(&self) -> bool {
        true
    }
}

/// Suspicion change reported to the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdEvent {
    /// The peer missed enough heartbeats to be considered crashed.
    Suspect(NodeId),
    /// A previously suspected peer produced a heartbeat again.
    Trust(NodeId),
}

/// Configuration of [`HeartbeatFd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdConfig {
    /// Interval between heartbeats (and between checks).
    pub interval: SimDuration,
    /// Consecutive silent intervals before suspicion. Below 3 the detector
    /// beats every peer at every tick: with skipped beats a live peer's
    /// evidence may leave two intervals silent.
    pub miss_threshold: u32,
}

impl Default for FdConfig {
    fn default() -> Self {
        FdConfig {
            interval: SimDuration::from_ticks(500),
            miss_threshold: 3,
        }
    }
}

impl FdConfig {
    /// Worst-case detection latency implied by this configuration.
    pub fn detection_latency(&self) -> SimDuration {
        self.interval.times(self.miss_threshold as u64 + 1)
    }
}

const TICK_TAG: u64 = 0;

/// What the detector knows of one monitored peer.
#[derive(Debug, Clone, Copy, Default)]
struct Liveness {
    /// Consecutive ticks without evidence.
    misses: u32,
    /// Evidence arrived since the last tick.
    heard: bool,
    /// This node sent the peer evidence since the last tick.
    sent: bool,
    suspected: bool,
}

/// Heartbeat-based failure detector over a set of peers.
///
/// # Examples
///
/// ```
/// use repl_gcs::{HeartbeatFd, FdConfig, Outbox, Component};
/// use repl_sim::NodeId;
///
/// let peers = vec![NodeId::new(1), NodeId::new(2)];
/// let mut fd = HeartbeatFd::new(NodeId::new(0), peers, FdConfig::default());
/// let mut out = Outbox::new();
/// fd.on_start(&mut out);
/// assert!(!out.is_empty()); // heartbeats + the first tick timer
/// ```
#[derive(Debug)]
pub struct HeartbeatFd {
    me: NodeId,
    /// The monitored peers, in the order given (the order of the beats).
    peers: Vec<(NodeId, Liveness)>,
    config: FdConfig,
    suspicions: u64,
}

impl HeartbeatFd {
    /// Creates a detector for `me` monitoring `peers` (excluding `me`).
    pub fn new(me: NodeId, peers: Vec<NodeId>, config: FdConfig) -> Self {
        let mut fd = HeartbeatFd {
            me,
            peers: Vec::new(),
            config,
            suspicions: 0,
        };
        fd.set_peers(peers);
        fd
    }

    /// Replaces the timing (before the detector starts: a running tick
    /// keeps its interval until it fires).
    pub fn set_config(&mut self, config: FdConfig) {
        self.config = config;
    }

    /// Suspicions raised so far, false ones included.
    pub fn suspicions(&self) -> u64 {
        self.suspicions
    }

    /// True if `node` is currently suspected.
    pub fn is_suspected(&self, node: NodeId) -> bool {
        self.peers.iter().any(|&(n, l)| n == node && l.suspected)
    }

    /// Forgets all per-peer liveness state (miss counters, evidence,
    /// suspicions) without reporting [`FdEvent::Trust`]: for restarting
    /// the detector after an outage, when pre-crash observations are
    /// meaningless and must not leak into the first post-recovery tick.
    pub fn reset(&mut self) {
        self.peers
            .iter_mut()
            .for_each(|p| p.1 = Liveness::default());
    }

    /// Replaces the monitored peer set (used on view changes). State for
    /// removed peers is discarded; new peers start unsuspected.
    pub fn set_peers(&mut self, peers: Vec<NodeId>) {
        let old = std::mem::take(&mut self.peers);
        let kept = |n: NodeId| old.iter().find(|p| p.0 == n).map(|p| p.1);
        self.peers = (peers.into_iter().filter(|&n| n != self.me))
            .map(|n| (n, kept(n).unwrap_or_default()))
            .collect();
    }

    /// Evidence that `from` is alive: any message of it, fed by the host
    /// before the message is handled. Clears a suspicion at once
    /// ([`FdEvent::Trust`]); a node that is not a peer is ignored.
    pub fn heard(&mut self, from: NodeId, out: &mut Outbox<FdMsg, FdEvent>) {
        if let Some((_, l)) = self.peers.iter_mut().find(|p| p.0 == from) {
            (l.heard, l.misses) = (true, 0);
            if std::mem::take(&mut l.suspected) {
                out.event(FdEvent::Trust(from));
            }
        }
    }

    /// Before a tick at `now`: the peers this node last sent a message
    /// their detector counts as evidence, at `last_send(peer)`, within
    /// the interval before `now` get no beat from it.
    pub fn note_sends(&mut self, now: SimTime, last_send: impl Fn(NodeId) -> SimTime) {
        for (n, l) in &mut self.peers {
            l.sent |= last_send(*n) + self.config.interval > now;
        }
    }

    fn tick(&mut self, out: &mut Outbox<FdMsg, FdEvent>) {
        let may_skip = self.config.miss_threshold >= 3;
        for (n, l) in &mut self.peers {
            if !(may_skip && std::mem::take(&mut l.sent)) {
                out.send(*n, FdMsg::Heartbeat);
            }
            l.misses = if std::mem::take(&mut l.heard) {
                0
            } else {
                l.misses + 1
            };
            if l.misses >= self.config.miss_threshold && !l.suspected {
                (l.suspected, self.suspicions) = (true, self.suspicions + 1);
                out.event(FdEvent::Suspect(*n));
            }
        }
        out.timer(self.config.interval, TICK_TAG);
    }
}

impl Component for HeartbeatFd {
    type Msg = FdMsg;
    type Event = FdEvent;

    /// Starts (or restarts) the ticks; the first beats to every peer.
    fn on_start(&mut self, out: &mut Outbox<FdMsg, FdEvent>) {
        self.peers.iter_mut().for_each(|p| p.1.sent = false);
        self.tick(out);
    }

    fn on_message(&mut self, from: NodeId, _msg: FdMsg, out: &mut Outbox<FdMsg, FdEvent>) {
        self.heard(from, out);
    }

    fn on_timer(&mut self, tag: u64, out: &mut Outbox<FdMsg, FdEvent>) {
        if tag == TICK_TAG {
            self.tick(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::apply_outbox;
    use crate::testkit::ComponentActor;
    use repl_sim::{impl_as_any, Actor, Context, SimConfig, TimerId, World};

    fn build(n: u32, cfg: FdConfig, seed: u64) -> (World<FdMsg>, Vec<NodeId>) {
        let mut world = World::new(SimConfig::new(seed));
        let peers: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        for i in 0..n {
            world.add_actor(Box::new(ComponentActor::new(HeartbeatFd::new(
                NodeId::new(i),
                peers.clone(),
                cfg,
            ))));
        }
        (world, peers)
    }

    fn events_of(world: &World<FdMsg>, n: NodeId) -> Vec<FdEvent> {
        world
            .actor_ref::<ComponentActor<HeartbeatFd>>(n)
            .events
            .iter()
            .map(|(_, e)| *e)
            .collect()
    }

    #[test]
    fn no_suspicions_without_crashes() {
        let (mut world, peers) = build(3, FdConfig::default(), 1);
        world.start();
        world.run_until(SimTime::from_ticks(20_000));
        for &p in &peers {
            assert!(events_of(&world, p).is_empty(), "spurious event at {p}");
        }
    }

    #[test]
    fn crashed_node_is_suspected_within_detection_latency() {
        let cfg = FdConfig::default();
        let (mut world, peers) = build(3, cfg, 2);
        world.start();
        world.schedule_crash(SimTime::from_ticks(1_000), peers[2]);
        world.run_until(SimTime::from_ticks(1_000) + cfg.detection_latency() + cfg.interval);
        for &p in &peers[..2] {
            let evs = events_of(&world, p);
            assert_eq!(evs, vec![FdEvent::Suspect(peers[2])], "at {p}");
            assert!(world
                .actor_ref::<ComponentActor<HeartbeatFd>>(p)
                .inner
                .is_suspected(peers[2]));
        }
    }

    #[test]
    fn recovered_node_is_trusted_again() {
        let cfg = FdConfig::default();
        let (mut world, peers) = build(2, cfg, 3);
        world.start();
        world.schedule_crash(SimTime::from_ticks(1_000), peers[1]);
        world.schedule_recover(SimTime::from_ticks(10_000), peers[1]);
        world.run_until(SimTime::from_ticks(30_000));
        let evs = events_of(&world, peers[0]);
        assert_eq!(evs[0], FdEvent::Suspect(peers[1]));
        assert!(
            evs.contains(&FdEvent::Trust(peers[1])),
            "recovery not detected: {evs:?}"
        );
    }

    #[test]
    fn set_peers_drops_stale_suspicions() {
        let mut fd = HeartbeatFd::new(
            NodeId::new(0),
            vec![NodeId::new(1), NodeId::new(2)],
            FdConfig {
                interval: SimDuration::from_ticks(10),
                miss_threshold: 1,
            },
        );
        let mut out = Outbox::new();
        fd.on_start(&mut out);
        fd.on_timer(TICK_TAG, &mut out); // both peers silent once -> suspected
        assert!(fd.is_suspected(NodeId::new(1)) && fd.is_suspected(NodeId::new(2)));
        fd.set_peers(vec![NodeId::new(1)]);
        assert!(fd.is_suspected(NodeId::new(1)));
        assert!(!fd.is_suspected(NodeId::new(2)));
    }

    /// Traffic of [`Chatty`]: its detector's beats and its own messages.
    #[derive(Debug, Clone)]
    enum Probe {
        Beat,
        App,
    }

    impl Message for Probe {
        fn is_background(&self) -> bool {
            matches!(self, Probe::Beat)
        }
    }

    const FD_TAG: u64 = 0;
    const APP_TAG: u64 = 1;

    /// A host that sends its one peer an application message at gaps of
    /// one to four intervals (at most one per interval), feeds every
    /// message it receives to its detector as evidence and, before each
    /// tick, the send times the world keeps — the replica shell's use.
    struct Chatty {
        fd: HeartbeatFd,
        out: Outbox<FdMsg, FdEvent>,
        peer: NodeId,
        gap: u64,
        events: Vec<(SimTime, FdEvent)>,
    }

    impl Chatty {
        fn flush(&mut self, ctx: &mut Context<'_, Probe>) {
            let now = ctx.now();
            let events = &mut self.events;
            apply_outbox(
                ctx,
                &mut self.out,
                FD_TAG,
                |_| Probe::Beat,
                |_, e| events.push((now, e)),
            );
        }

        fn next_gap(&mut self) -> SimDuration {
            let i = self.fd.config.interval.ticks();
            self.gap = (self.gap.wrapping_mul(6_364_136_223_846_793_005)).wrapping_add(1);
            SimDuration::from_ticks(i + (self.gap >> 33) % (3 * i))
        }
    }

    impl Actor<Probe> for Chatty {
        fn on_start(&mut self, ctx: &mut Context<'_, Probe>) {
            self.fd.on_start(&mut self.out);
            self.flush(ctx);
            let gap = self.next_gap();
            ctx.set_timer(gap, APP_TAG);
        }

        fn on_message(&mut self, ctx: &mut Context<'_, Probe>, from: NodeId, _msg: Probe) {
            self.fd.heard(from, &mut self.out);
            self.flush(ctx);
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, Probe>, _timer: TimerId, tag: u64) {
            if tag == APP_TAG {
                ctx.send(self.peer, Probe::App);
                let gap = self.next_gap();
                ctx.set_timer(gap, APP_TAG);
            } else {
                self.fd.note_sends(ctx.now(), |p| ctx.last_send(p));
                self.fd.on_timer(tag - FD_TAG, &mut self.out);
                self.flush(ctx);
            }
        }

        impl_as_any!();
    }

    fn chatty_pair(seed: u64) -> World<Probe> {
        let mut world = World::new(SimConfig::new(seed).with_coordination_nodes(2));
        for i in 0..2 {
            let (me, peer) = (NodeId::new(i), NodeId::new(1 - i));
            world.add_actor(Box::new(Chatty {
                fd: HeartbeatFd::new(me, vec![peer], FdConfig::default()),
                out: Outbox::new(),
                peer,
                gap: seed * 2 + u64::from(i),
                events: Vec::new(),
            }));
        }
        world
    }

    fn chatty_events(world: &World<Probe>, n: u32) -> Vec<(SimTime, FdEvent)> {
        world.actor_ref::<Chatty>(NodeId::new(n)).events.clone()
    }

    #[test]
    fn a_peer_heard_only_through_protocol_messages_is_never_suspected() {
        let cfg = FdConfig::default();
        for seed in 0..8 {
            let mut world = chatty_pair(seed);
            world.start();
            world.run_until(SimTime::from_ticks(200 * cfg.interval.ticks()));
            for n in 0..2 {
                assert_eq!(chatty_events(&world, n), vec![], "seed {seed}, node {n}");
            }
            // Application messages fill some windows: fewer
            // beats than one per peer per interval.
            let beats = world.metrics().background_messages;
            assert!(beats < 2 * 200 * 3 / 4, "seed {seed}: {beats} beats");
        }
    }

    #[test]
    fn a_crashed_peer_is_suspected_within_detection_latency_and_one_delay() {
        let cfg = FdConfig::default();
        let net = repl_sim::NetworkConfig::lan();
        let max_delay = net.base_latency + net.jitter;
        for seed in 0..8 {
            let mut world = chatty_pair(seed);
            world.start();
            let crash = SimTime::from_ticks(5_000 + 37 * seed);
            world.schedule_crash(crash, NodeId::new(1));
            world.run_until(crash + cfg.detection_latency() + max_delay + cfg.interval);
            let events = chatty_events(&world, 0);
            let [(at, FdEvent::Suspect(n))] = events.as_slice() else {
                panic!("seed {seed}: one suspicion expected: {events:?}");
            };
            assert_eq!(*n, NodeId::new(1));
            assert!(
                *at <= crash + cfg.detection_latency() + max_delay,
                "seed {seed}: suspected at {at}, crash at {crash}"
            );
        }
    }

    /// The peers `actions` beat to.
    fn beats(actions: Vec<crate::component::Action<FdMsg, FdEvent>>) -> Vec<NodeId> {
        (actions.into_iter())
            .filter_map(|a| match a {
                crate::component::Action::Send(to, FdMsg::Heartbeat) => Some(to),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_node_that_sent_to_a_peer_within_the_interval_skips_its_beat() {
        let (n1, n2) = (NodeId::new(1), NodeId::new(2));
        let mut fd = HeartbeatFd::new(NodeId::new(0), vec![n1, n2], FdConfig::default());
        let mut out = Outbox::new();
        let now = SimTime::from_ticks(10_000);
        // Within the interval before `now` (500 ticks) or not.
        let last_send = |p| SimTime::from_ticks(if p == n1 { 9_501 } else { 9_500 });
        fd.note_sends(now, last_send);
        fd.on_start(&mut out);
        assert_eq!(beats(out.drain()), vec![n1, n2], "a start beats to all");
        fd.note_sends(now, last_send);
        fd.on_timer(TICK_TAG, &mut out);
        assert_eq!(beats(out.drain()), vec![n2]);
        fd.on_timer(TICK_TAG, &mut out);
        assert_eq!(beats(out.drain()), vec![n1, n2], "a skip lasts one tick");
    }

    #[test]
    fn a_beat_is_never_skipped_below_a_threshold_of_three() {
        let n1 = NodeId::new(1);
        let cfg = FdConfig {
            miss_threshold: 2,
            ..FdConfig::default()
        };
        let mut fd = HeartbeatFd::new(NodeId::new(0), vec![n1], cfg);
        let mut out = Outbox::new();
        fd.on_start(&mut out);
        out.drain();
        let now = SimTime::from_ticks(10_000);
        fd.note_sends(now, |_| now);
        fd.on_timer(TICK_TAG, &mut out);
        assert_eq!(beats(out.drain()), vec![n1]);
    }

    #[test]
    fn detection_latency_formula() {
        let cfg = FdConfig {
            interval: SimDuration::from_ticks(100),
            miss_threshold: 4,
        };
        assert_eq!(cfg.detection_latency(), SimDuration::from_ticks(500));
    }
}
