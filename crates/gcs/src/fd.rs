//! Heartbeat failure detector.
//!
//! Periodically pings all monitored peers and suspects a peer after a
//! configurable number of consecutive silent intervals. In the simulator's
//! crash-stop runs (no loss, bounded latency) this behaves like an
//! eventually perfect detector ◇P: every crashed process is eventually
//! suspected and, after suspicion, a false suspicion is corrected the
//! moment a heartbeat arrives ([`FdEvent::Trust`]).

use std::collections::{HashMap, HashSet};

use repl_sim::{Message, NodeId, SimDuration};

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
    /// Consecutive silent intervals before suspicion.
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
    peers: Vec<NodeId>,
    config: FdConfig,
    misses: HashMap<NodeId, u32>,
    heard: HashSet<NodeId>,
    suspected: HashSet<NodeId>,
    running: bool,
}

impl HeartbeatFd {
    /// Creates a detector for `me` monitoring `peers` (excluding `me`).
    pub fn new(me: NodeId, peers: Vec<NodeId>, config: FdConfig) -> Self {
        let peers: Vec<NodeId> = peers.into_iter().filter(|&p| p != me).collect();
        HeartbeatFd {
            me,
            peers,
            config,
            misses: HashMap::new(),
            heard: HashSet::new(),
            suspected: HashSet::new(),
            running: false,
        }
    }

    /// True if `node` is currently suspected.
    pub fn is_suspected(&self, node: NodeId) -> bool {
        self.suspected.contains(&node)
    }

    /// The currently suspected peers, sorted.
    pub fn suspected(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.suspected.iter().copied().collect();
        v.sort();
        v
    }

    /// Explicitly clears suspicion of `node` — for application-level
    /// proof of life (e.g. a recovery request from a crashed peer) that
    /// should take effect before the next heartbeat round.
    pub fn trust(&mut self, node: NodeId, out: &mut Outbox<FdMsg, FdEvent>) {
        self.heard.insert(node);
        self.misses.insert(node, 0);
        if self.suspected.remove(&node) {
            out.event(FdEvent::Trust(node));
        }
    }

    /// Forgets all per-peer liveness state (miss counters, heard set,
    /// suspicions) without reporting [`FdEvent::Trust`]: for restarting
    /// the detector after an outage, when pre-crash observations are
    /// meaningless and must not leak into the first post-recovery tick.
    pub fn reset(&mut self) {
        self.misses.clear();
        self.heard.clear();
        self.suspected.clear();
    }

    /// Replaces the monitored peer set (used on view changes). State for
    /// removed peers is discarded; new peers start unsuspected.
    pub fn set_peers(&mut self, peers: Vec<NodeId>) {
        let me = self.me;
        self.peers = peers.into_iter().filter(|&p| p != me).collect();
        self.misses.retain(|n, _| self.peers.contains(n));
        self.heard.retain(|n| self.peers.contains(n));
        self.suspected.retain(|n| self.peers.contains(n));
    }

    fn tick(&mut self, out: &mut Outbox<FdMsg, FdEvent>) {
        for &p in &self.peers {
            out.send(p, FdMsg::Heartbeat);
        }
        for &p in &self.peers {
            if self.heard.contains(&p) {
                self.misses.insert(p, 0);
            } else {
                let m = self.misses.entry(p).or_insert(0);
                *m += 1;
                if *m >= self.config.miss_threshold && self.suspected.insert(p) {
                    out.event(FdEvent::Suspect(p));
                }
            }
        }
        // Cleared, not replaced: the round's set keeps its capacity.
        self.heard.clear();
        out.timer(self.config.interval, TICK_TAG);
    }
}

impl Component for HeartbeatFd {
    type Msg = FdMsg;
    type Event = FdEvent;

    fn on_start(&mut self, out: &mut Outbox<FdMsg, FdEvent>) {
        self.running = true;
        self.tick(out);
    }

    fn on_message(&mut self, from: NodeId, _msg: FdMsg, out: &mut Outbox<FdMsg, FdEvent>) {
        self.heard.insert(from);
        self.misses.insert(from, 0);
        if self.suspected.remove(&from) {
            out.event(FdEvent::Trust(from));
        }
    }

    fn on_timer(&mut self, tag: u64, out: &mut Outbox<FdMsg, FdEvent>) {
        if tag == TICK_TAG && self.running {
            self.tick(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ComponentActor;
    use repl_sim::{SimConfig, SimTime, World};

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
        assert_eq!(fd.suspected().len(), 2);
        fd.set_peers(vec![NodeId::new(1)]);
        assert_eq!(fd.suspected(), vec![NodeId::new(1)]);
        assert!(!fd.is_suspected(NodeId::new(2)));
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
