//! Network model: latency, jitter, FIFO links, message loss and partitions.
//!
//! The model is deliberately simple — the taxonomy this simulator serves is
//! about *message patterns*, not wire-level detail — but it captures the
//! assumptions the replication literature leans on:
//!
//! * per-link latency = `base + U(0, jitter)` drawn from the seeded RNG,
//! * optional FIFO links (delivery order per (src, dst) pair matches send
//!   order), which primary-backup replication requires,
//! * independent message loss with probability `drop_prob`,
//! * dynamic partitions: messages crossing a partition boundary are dropped,
//! * degraded directed links: extra latency and/or extra loss; a cut link
//!   is a degradation with loss probability 1.
//!
//! Mid-run the network changes only through [`Network::apply`], which the
//! world calls for each [`NetFault`] scheduled with
//! [`crate::World::schedule_net_fault`].

use std::collections::HashMap;

use rand::Rng;

use crate::ids::NodeId;
use crate::time::{SimDuration, SimTime};

/// Static configuration of the network model.
///
/// # Examples
///
/// ```
/// use repl_sim::{NetworkConfig, SimDuration};
///
/// let net = NetworkConfig::lan();
/// assert!(net.base_latency > SimDuration::ZERO);
/// assert_eq!(net.drop_prob, 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Fixed one-way latency component applied to every message.
    pub base_latency: SimDuration,
    /// Upper bound of the uniformly distributed jitter added to each message.
    pub jitter: SimDuration,
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub drop_prob: f64,
    /// When true, deliveries on each (src, dst) link never reorder.
    pub fifo_links: bool,
}

impl NetworkConfig {
    /// A local-area network profile: 100-tick base latency, 20-tick jitter,
    /// no loss, FIFO links. This is the default profile used by the
    /// replication experiments.
    pub fn lan() -> Self {
        NetworkConfig {
            base_latency: SimDuration::from_ticks(100),
            jitter: SimDuration::from_ticks(20),
            drop_prob: 0.0,
            fifo_links: true,
        }
    }

    /// A wide-area profile: 5000-tick base latency and 1500-tick jitter.
    pub fn wan() -> Self {
        NetworkConfig {
            base_latency: SimDuration::from_ticks(5_000),
            jitter: SimDuration::from_ticks(1_500),
            drop_prob: 0.0,
            fifo_links: true,
        }
    }

    /// A zero-latency, perfectly reliable network. Useful in unit tests
    /// where message interleaving is irrelevant.
    pub fn instant() -> Self {
        NetworkConfig {
            base_latency: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            drop_prob: 0.0,
            fifo_links: true,
        }
    }

    /// Returns a copy with a different base latency.
    pub fn with_base_latency(mut self, latency: SimDuration) -> Self {
        self.base_latency = latency;
        self
    }

    /// Returns a copy with a different jitter bound.
    pub fn with_jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Returns a copy with a message-loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability must be in [0,1]"
        );
        self.drop_prob = p;
        self
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::lan()
    }
}

/// The outcome of offering a message to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The message will be delivered at the given time.
    At(SimTime),
    /// The message was dropped (loss or partition).
    Dropped,
}

/// Quality degradation of one directed link: a latency spike, extra
/// loss, or both.
///
/// # Examples
///
/// ```
/// use repl_sim::{LinkQuality, SimDuration};
///
/// let q = LinkQuality::latency_spike(SimDuration::from_ticks(5_000));
/// assert_eq!(q.extra_latency.ticks(), 5_000);
/// assert_eq!(q.drop_prob, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQuality {
    /// Extra one-way latency added on top of the profile latency.
    pub extra_latency: SimDuration,
    /// Extra loss probability in `[0, 1]` applied per message on this link,
    /// independent of the profile's `drop_prob`.
    pub drop_prob: f64,
}

impl LinkQuality {
    /// A pure latency spike: slow but lossless.
    pub fn latency_spike(extra: SimDuration) -> Self {
        LinkQuality {
            extra_latency: extra,
            drop_prob: 0.0,
        }
    }

    /// A lossy link with no extra latency.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn lossy(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability must be in [0,1]"
        );
        LinkQuality {
            extra_latency: SimDuration::ZERO,
            drop_prob: p,
        }
    }
}

/// A network fault (or repair), scheduled at a `SimTime` through
/// [`crate::World::schedule_net_fault`] and applied by [`Network::apply`].
///
/// Link faults are *directional*: `Degrade { src, dst, .. }` affects
/// traffic from `src` to `dst` only, modelling asymmetric failures. A cut
/// link is a `Degrade` whose `drop_prob` is 1.
#[derive(Debug, Clone, PartialEq)]
pub enum NetFault {
    /// Partition the network into the given groups. Nodes in no group
    /// keep full connectivity with every group (useful for observers).
    Partition(Vec<Vec<NodeId>>),
    /// Remove all partitions.
    Heal,
    /// Degrade the directed link `src → dst` (latency spike and/or loss).
    Degrade {
        /// Source of the degraded link.
        src: NodeId,
        /// Destination of the degraded link.
        dst: NodeId,
        /// The degradation applied.
        quality: LinkQuality,
    },
    /// Remove any degradation from the directed link `src → dst`.
    Restore {
        /// Source of the link.
        src: NodeId,
        /// Destination of the link.
        dst: NodeId,
    },
}

impl NetFault {
    /// Short label for traces and summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            NetFault::Partition(_) => "partition",
            NetFault::Heal => "heal",
            NetFault::Degrade { .. } => "degrade",
            NetFault::Restore { .. } => "restore",
        }
    }

    /// True for disruptive faults; false for repairs (heal, restore).
    pub fn is_disruptive(&self) -> bool {
        matches!(self, NetFault::Partition(_) | NetFault::Degrade { .. })
    }
}

/// Sentinel partition tag for nodes outside every group.
const NO_GROUP: u32 = u32::MAX;

/// Runtime network state: partition membership and FIFO bookkeeping.
///
/// `offer` sits on the per-message hot path of every simulation, so the
/// per-node and per-link state lives in dense index tables instead of
/// hash maps: partition membership is a `Vec<u32>` indexed by node, FIFO
/// bookkeeping a `stride × stride` matrix indexed by `(src, dst)`. The
/// rarely-populated degraded-link map is gated behind an `is_empty`
/// check so the fault-free fast path never touches it.
#[derive(Debug)]
pub struct Network {
    config: NetworkConfig,
    /// Partition group tag per node (dense); [`NO_GROUP`] means the node
    /// is in no group and talks to everyone. Nodes beyond the vector's
    /// length are implicitly [`NO_GROUP`].
    group_of: Vec<u32>,
    /// Fast flag: true while any partition is installed.
    partitioned: bool,
    /// Row stride of `fifo_last` (max node index + 1, grown on demand).
    fifo_stride: usize,
    /// Last scheduled delivery time per (src, dst), dense
    /// `src * fifo_stride + dst`, for FIFO enforcement.
    fifo_last: Vec<SimTime>,
    /// Per-link quality degradations (latency spikes, extra loss).
    degraded: HashMap<(NodeId, NodeId), LinkQuality>,
}

impl Network {
    /// Creates a fully connected network with the given configuration.
    pub fn new(config: NetworkConfig) -> Self {
        Network {
            config,
            group_of: Vec::new(),
            partitioned: false,
            fifo_stride: 0,
            fifo_last: Vec::new(),
            degraded: HashMap::new(),
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Pre-sizes the dense per-node tables for `nodes` nodes, so the hot
    /// path never grows them mid-run. Called by the world on start;
    /// harmless to skip (tables grow on demand).
    pub fn reserve_nodes(&mut self, nodes: usize) {
        if nodes > self.fifo_stride {
            self.grow_fifo(nodes);
        }
        if nodes > self.group_of.len() {
            self.group_of.resize(nodes, NO_GROUP);
        }
    }

    /// Grows the FIFO matrix to at least `need × need`, preserving
    /// existing link state.
    fn grow_fifo(&mut self, need: usize) {
        let new_stride = need.next_power_of_two().max(8);
        let mut new = vec![SimTime::ZERO; new_stride * new_stride];
        for s in 0..self.fifo_stride {
            for d in 0..self.fifo_stride {
                new[s * new_stride + d] = self.fifo_last[s * self.fifo_stride + d];
            }
        }
        self.fifo_stride = new_stride;
        self.fifo_last = new;
    }

    /// Installs the partition `groups` (none: full connectivity).
    fn set_partition_groups(&mut self, groups: &[Vec<NodeId>]) {
        self.group_of.fill(NO_GROUP);
        self.partitioned = false;
        for (gi, group) in groups.iter().enumerate() {
            for &n in group.iter() {
                if n.index() >= self.group_of.len() {
                    self.group_of.resize(n.index() + 1, NO_GROUP);
                }
                self.group_of[n.index()] = gi as u32;
                self.partitioned = true;
            }
        }
    }

    /// Applies a [`NetFault`] to the runtime state: the one way the
    /// network changes mid-run. A `Degrade` replaces any previous
    /// degradation of its link; a `Restore` of a healthy link is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if a `Degrade`'s `drop_prob` is not within `[0, 1]`.
    pub fn apply(&mut self, fault: &NetFault) {
        match fault {
            NetFault::Partition(groups) => self.set_partition_groups(groups),
            NetFault::Heal => self.set_partition_groups(&[]),
            NetFault::Degrade { src, dst, quality } => {
                assert!(
                    (0.0..=1.0).contains(&quality.drop_prob),
                    "drop probability must be in [0,1]"
                );
                self.degraded.insert((*src, *dst), *quality);
            }
            NetFault::Restore { src, dst } => {
                self.degraded.remove(&(*src, *dst));
            }
        }
    }

    /// Returns true unless a partition separates `src` from `dst`
    /// (degraded links, even fully lossy ones, count as connected).
    pub fn connected(&self, src: NodeId, dst: NodeId) -> bool {
        if !self.partitioned {
            return true;
        }
        let tag = |n: NodeId| self.group_of.get(n.index()).copied().unwrap_or(NO_GROUP);
        let (a, b) = (tag(src), tag(dst));
        // Nodes outside every partition group talk to everyone.
        a == NO_GROUP || b == NO_GROUP || a == b
    }

    /// Computes the delivery schedule for a message sent at `now`.
    ///
    /// Loopback messages (src == dst) are delivered after one tick and are
    /// never lost: an actor can always talk to itself.
    ///
    /// Dropped messages (loss, partition, degraded link) never touch the
    /// FIFO bookkeeping, so a drop cannot wedge or delay later deliveries
    /// on the same link — traffic resumes normally after a heal.
    pub fn offer<R: Rng>(
        &mut self,
        rng: &mut R,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
    ) -> Delivery {
        if src == dst {
            return Delivery::At(now + SimDuration::from_ticks(1));
        }
        // Fault checks are gated so the fault-free fast path (the common
        // case for the whole performance study) touches no hash containers.
        if self.partitioned && !self.connected(src, dst) {
            return Delivery::Dropped;
        }
        if self.config.drop_prob > 0.0 && rng.gen::<f64>() < self.config.drop_prob {
            return Delivery::Dropped;
        }
        let mut spike = SimDuration::ZERO;
        if !self.degraded.is_empty() {
            if let Some(q) = self.degraded.get(&(src, dst)).copied() {
                if q.drop_prob > 0.0 && rng.gen::<f64>() < q.drop_prob {
                    return Delivery::Dropped;
                }
                spike = q.extra_latency;
            }
        }
        let jitter = if self.config.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_ticks(rng.gen_range(0..=self.config.jitter.ticks()))
        };
        let mut at = now + self.config.base_latency + jitter + spike;
        if self.config.fifo_links {
            let need = src.index().max(dst.index()) + 1;
            if need > self.fifo_stride {
                self.grow_fifo(need);
            }
            let last = &mut self.fifo_last[src.index() * self.fifo_stride + dst.index()];
            if at <= *last {
                at = *last + SimDuration::from_ticks(1);
            }
            *last = at;
        }
        Delivery::At(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn latency_within_bounds() {
        let mut net = Network::new(NetworkConfig::lan());
        let mut r = rng();
        for _ in 0..100 {
            match net.offer(&mut r, SimTime::ZERO, NodeId::new(0), NodeId::new(1)) {
                Delivery::At(t) => {
                    assert!(t.ticks() >= 100, "latency below base: {t}");
                }
                Delivery::Dropped => panic!("lossless network dropped a message"),
            }
        }
    }

    #[test]
    fn fifo_links_never_reorder() {
        let mut net = Network::new(NetworkConfig::lan());
        let mut r = rng();
        let mut last = SimTime::ZERO;
        let mut now = SimTime::ZERO;
        for i in 0..200 {
            now = SimTime::from_ticks(i); // sends spaced 1 tick apart
            match net.offer(&mut r, now, NodeId::new(0), NodeId::new(1)) {
                Delivery::At(t) => {
                    assert!(t > last, "FIFO violated: {t} after {last}");
                    last = t;
                }
                Delivery::Dropped => panic!("unexpected drop"),
            }
        }
        let _ = now;
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let mut net = Network::new(NetworkConfig::lan());
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        net.apply(&NetFault::Partition(vec![vec![a], vec![b]]));
        assert!(!net.connected(a, b));
        assert!(net.connected(a, a));
        // c is in no group: talks to both sides.
        assert!(net.connected(a, c));
        assert!(net.connected(c, b));
        net.apply(&NetFault::Heal);
        assert!(net.connected(a, b));
    }

    #[test]
    fn loopback_is_fast_and_reliable() {
        let mut net = Network::new(NetworkConfig::lan().with_drop_prob(1.0));
        let mut r = rng();
        match net.offer(
            &mut r,
            SimTime::from_ticks(5),
            NodeId::new(3),
            NodeId::new(3),
        ) {
            Delivery::At(t) => assert_eq!(t.ticks(), 6),
            Delivery::Dropped => panic!("loopback dropped"),
        }
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut net = Network::new(NetworkConfig::lan().with_drop_prob(1.0));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(
                net.offer(&mut r, SimTime::ZERO, NodeId::new(0), NodeId::new(1)),
                Delivery::Dropped
            );
        }
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn invalid_drop_prob_rejected() {
        let _ = NetworkConfig::lan().with_drop_prob(1.5);
    }

    #[test]
    fn fifo_state_survives_drops_and_partitions() {
        // Regression: a dropped or partition-blocked message must not wedge
        // later deliveries on the same (src, dst) link.
        let mut net = Network::new(NetworkConfig::lan());
        let mut r = rng();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        // Establish FIFO state, then partition and send into the void.
        assert!(matches!(
            net.offer(&mut r, SimTime::ZERO, a, b),
            Delivery::At(_)
        ));
        net.apply(&NetFault::Partition(vec![vec![a], vec![b]]));
        for t in 0..50 {
            assert_eq!(
                net.offer(&mut r, SimTime::from_ticks(t), a, b),
                Delivery::Dropped
            );
        }
        // Heal at t=1000: the next message must go through with normal
        // latency, unaffected by the 50 drops.
        net.apply(&NetFault::Heal);
        let sent = SimTime::from_ticks(1_000);
        match net.offer(&mut r, sent, a, b) {
            Delivery::At(t) => {
                assert!(t >= sent + SimDuration::from_ticks(100), "latency too low");
                assert!(
                    t <= sent + SimDuration::from_ticks(120),
                    "drop during partition delayed post-heal delivery: {t}"
                );
            }
            Delivery::Dropped => panic!("healed link dropped a message"),
        }
        // Same through a cut (fully lossy) link.
        net.apply(&NetFault::Degrade {
            src: a,
            dst: b,
            quality: LinkQuality::lossy(1.0),
        });
        assert_eq!(
            net.offer(&mut r, SimTime::from_ticks(1_001), a, b),
            Delivery::Dropped
        );
        net.apply(&NetFault::Restore { src: a, dst: b });
        assert!(matches!(
            net.offer(&mut r, SimTime::from_ticks(2_000), a, b),
            Delivery::At(_)
        ));
    }

    #[test]
    fn degraded_link_adds_latency_one_direction_only() {
        let mut net = Network::new(NetworkConfig::lan());
        let mut r = rng();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        net.apply(&NetFault::Degrade {
            src: a,
            dst: b,
            quality: LinkQuality::latency_spike(SimDuration::from_ticks(5_000)),
        });
        match net.offer(&mut r, SimTime::ZERO, a, b) {
            Delivery::At(t) => assert!(t.ticks() >= 5_100, "spike not applied: {t}"),
            Delivery::Dropped => panic!("lossless degraded link dropped"),
        }
        // Reverse direction unaffected.
        match net.offer(&mut r, SimTime::ZERO, b, a) {
            Delivery::At(t) => assert!(t.ticks() <= 120, "reverse direction slowed: {t}"),
            Delivery::Dropped => panic!("unexpected drop"),
        }
        net.apply(&NetFault::Restore { src: a, dst: b });
        assert!(net.degraded.is_empty());
        match net.offer(&mut r, SimTime::from_ticks(6_000), a, b) {
            Delivery::At(t) => assert!(t.ticks() <= 6_120, "restore did not take: {t}"),
            Delivery::Dropped => panic!("unexpected drop"),
        }
    }

    #[test]
    fn fully_lossy_degraded_link_drops_everything() {
        // A cut link: a→b loses every message, b→a still delivers.
        let mut net = Network::new(NetworkConfig::lan());
        let mut r = rng();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        net.apply(&NetFault::Degrade {
            src: a,
            dst: b,
            quality: LinkQuality::lossy(1.0),
        });
        for t in 0..10 {
            let now = SimTime::from_ticks(t);
            assert_eq!(net.offer(&mut r, now, a, b), Delivery::Dropped);
            assert!(matches!(net.offer(&mut r, now, b, a), Delivery::At(_)));
        }
    }

    #[test]
    fn apply_covers_every_fault_kind() {
        let mut net = Network::new(NetworkConfig::lan());
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        net.apply(&NetFault::Partition(vec![vec![a, b], vec![c]]));
        assert!(!net.connected(a, c));
        assert!(net.connected(a, b));
        net.apply(&NetFault::Heal);
        assert!(net.connected(a, c));
        let cut = LinkQuality::lossy(1.0);
        net.apply(&NetFault::Degrade {
            src: a,
            dst: b,
            quality: cut,
        });
        let q = LinkQuality::latency_spike(SimDuration::from_ticks(9));
        net.apply(&NetFault::Degrade {
            src: b,
            dst: c,
            quality: q,
        });
        assert_eq!(net.degraded.get(&(a, b)), Some(&cut));
        assert_eq!(net.degraded.get(&(b, c)), Some(&q));
        net.apply(&NetFault::Restore { src: a, dst: b });
        net.apply(&NetFault::Restore { src: b, dst: c });
        assert!(net.degraded.is_empty());
    }

    #[test]
    fn fault_kinds_and_disruptiveness() {
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let cut = NetFault::Degrade {
            src: a,
            dst: b,
            quality: LinkQuality::lossy(1.0),
        };
        assert_eq!(cut.kind(), "degrade");
        assert!(cut.is_disruptive());
        assert!(NetFault::Partition(vec![vec![a]]).is_disruptive());
        assert!(!NetFault::Heal.is_disruptive());
        let restore = NetFault::Restore { src: a, dst: b };
        assert_eq!(restore.kind(), "restore");
        assert!(!restore.is_disruptive());
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn invalid_link_quality_rejected() {
        let mut net = Network::new(NetworkConfig::lan());
        net.apply(&NetFault::Degrade {
            src: NodeId::new(0),
            dst: NodeId::new(1),
            quality: LinkQuality {
                extra_latency: SimDuration::ZERO,
                drop_prob: 2.0,
            },
        });
    }
}
