//! Declarative fault plans: the nemesis.
//!
//! A [`FaultPlan`] schedules node crashes/recoveries and network faults
//! (partitions and heals, directional link degradations — latency
//! spikes and loss, a cut link being a degradation with loss 1) at
//! virtual times.
//! Plans are plain data: the runner validates them against the server
//! count and deadline ([`FaultPlan::validate`]) and schedules every event
//! into the world before the run starts.
//!
//! [`FaultPlan::random`] is a seeded nemesis generator: the same
//! `(seed, intensity)` pair always produces the same plan, so fault
//! sweeps are reproducible tick-for-tick.

use std::collections::BTreeSet;
use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use repl_sim::{LinkQuality, NetFault, NodeId, SimDuration, SimTime};

/// One scheduled fault: a node fault or a network fault at a virtual time.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Crash `node` at `at`.
    Crash {
        /// When the crash happens.
        at: SimTime,
        /// The crashed node.
        node: NodeId,
    },
    /// Recover `node` at `at`.
    Recover {
        /// When the recovery happens.
        at: SimTime,
        /// The recovered node.
        node: NodeId,
    },
    /// Apply a network fault at `at`.
    Net {
        /// When the fault is applied.
        at: SimTime,
        /// The fault.
        fault: NetFault,
    },
    /// Destroy `node`'s durable volume at `at`: the node halts and its
    /// local WAL and store are lost. Recovery must restore from the
    /// durable tier (or from peers). Wiping an already-down node is
    /// allowed — a dead node's disk can still die.
    VolumeLoss {
        /// When the disaster happens.
        at: SimTime,
        /// The wiped node.
        node: NodeId,
    },
}

impl FaultEvent {
    /// The event's time.
    pub fn time(&self) -> SimTime {
        match self {
            FaultEvent::Crash { at, .. }
            | FaultEvent::Recover { at, .. }
            | FaultEvent::Net { at, .. }
            | FaultEvent::VolumeLoss { at, .. } => *at,
        }
    }

    /// Short label for summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultEvent::Crash { .. } => "crash",
            FaultEvent::Recover { .. } => "recover",
            FaultEvent::Net { fault, .. } => fault.kind(),
            FaultEvent::VolumeLoss { .. } => "volume-loss",
        }
    }
}

/// Why a fault plan was rejected by [`FaultPlan::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// An event names a node outside `0..nodes`.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// The valid node count.
        nodes: u32,
        /// When the event was scheduled.
        at: SimTime,
    },
    /// A node is crashed while already down.
    DuplicateCrash {
        /// The node crashed twice.
        node: NodeId,
        /// Time of the second crash.
        at: SimTime,
    },
    /// A node is recovered while not down (including recover-before-crash).
    RecoverWithoutCrash {
        /// The node recovered while alive.
        node: NodeId,
        /// Time of the bogus recovery.
        at: SimTime,
    },
    /// An event is scheduled after the run deadline and could never apply.
    PastMaxTime {
        /// The event's time.
        at: SimTime,
        /// The run deadline.
        max_time: SimTime,
    },
    /// A heal with no partition in effect.
    HealWithoutPartition {
        /// Time of the bogus heal.
        at: SimTime,
    },
    /// A partition with no groups, or with an empty group.
    EmptyPartition {
        /// Time of the malformed partition.
        at: SimTime,
    },
    /// A partition places one node in two groups.
    OverlappingGroups {
        /// The doubly-assigned node.
        node: NodeId,
        /// Time of the malformed partition.
        at: SimTime,
    },
    /// A link fault from a node to itself (loopback is never faulted).
    SelfLink {
        /// The node.
        node: NodeId,
        /// Time of the malformed link fault.
        at: SimTime,
    },
    /// A degradation with a drop probability outside `[0, 1]`.
    InvalidDropProb {
        /// The offending probability.
        p: f64,
        /// Time of the malformed degradation.
        at: SimTime,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::NodeOutOfRange { node, nodes, at } => {
                write!(f, "{at}: node {node} out of range (have {nodes} servers)")
            }
            FaultPlanError::DuplicateCrash { node, at } => {
                write!(f, "{at}: node {node} crashed while already down")
            }
            FaultPlanError::RecoverWithoutCrash { node, at } => {
                write!(f, "{at}: node {node} recovered while not down")
            }
            FaultPlanError::PastMaxTime { at, max_time } => {
                write!(f, "{at}: event past the run deadline {max_time}")
            }
            FaultPlanError::HealWithoutPartition { at } => {
                write!(f, "{at}: heal with no partition in effect")
            }
            FaultPlanError::EmptyPartition { at } => {
                write!(f, "{at}: partition with no or empty groups")
            }
            FaultPlanError::OverlappingGroups { node, at } => {
                write!(f, "{at}: node {node} appears in two partition groups")
            }
            FaultPlanError::SelfLink { node, at } => {
                write!(f, "{at}: link fault from {node} to itself")
            }
            FaultPlanError::InvalidDropProb { p, at } => {
                write!(f, "{at}: link drop probability {p} outside [0,1]")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A declarative fault load: crashes, recoveries, partitions, heals,
/// link degradations and their repairs, each at a virtual time. A cut
/// link is [`FaultPlan::degrade_link_at`] with `drop_prob` 1.
///
/// # Examples
///
/// ```
/// use repl_workload::FaultPlan;
/// use repl_sim::{NodeId, SimDuration, SimTime};
///
/// let plan = FaultPlan::new()
///     .crash_at(SimTime::from_ticks(2_000), NodeId::new(2))
///     .recover_at(SimTime::from_ticks(9_000), NodeId::new(2))
///     .partition_at(
///         SimTime::from_ticks(4_000),
///         vec![vec![NodeId::new(0), NodeId::new(1)], vec![NodeId::new(2)]],
///     )
///     .heal_at(SimTime::from_ticks(8_000))
///     .degrade_link_at(
///         SimTime::from_ticks(5_000),
///         NodeId::new(0),
///         NodeId::new(1),
///         SimDuration::from_ticks(3_000),
///         0.0,
///     )
///     .restore_link_at(SimTime::from_ticks(7_000), NodeId::new(0), NodeId::new(1));
/// assert!(plan.validate(3, SimTime::from_ticks(30_000)).is_ok());
/// assert!(plan.fully_healed());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Creates an empty (failure-free) plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a crash.
    pub fn crash_at(mut self, at: SimTime, node: NodeId) -> Self {
        self.events.push(FaultEvent::Crash { at, node });
        self
    }

    /// Adds a recovery.
    pub fn recover_at(mut self, at: SimTime, node: NodeId) -> Self {
        self.events.push(FaultEvent::Recover { at, node });
        self
    }

    /// Adds a paired outage: `node` crashes at `at` and recovers
    /// `downtime` later. The pairing cannot drift apart the way separate
    /// `crash_at`/`recover_at` calls can, which is what the recovery
    /// studies sweep (outage length → transfer strategy and MTTR).
    pub fn outage_at(self, at: SimTime, node: NodeId, downtime: SimDuration) -> Self {
        self.crash_at(at, node).recover_at(at + downtime, node)
    }

    /// Adds a volume loss: `node` halts at `at` and its durable local
    /// state (WAL, store) is destroyed. Until recovered the node is down
    /// exactly like a crash; on recovery it must restore from the durable
    /// log tier before rejoining.
    pub fn volume_loss_at(mut self, at: SimTime, node: NodeId) -> Self {
        self.events.push(FaultEvent::VolumeLoss { at, node });
        self
    }

    /// Adds a paired disaster: `node` loses its volume at `at` and comes
    /// back `downtime` later, the disaster analogue of
    /// [`FaultPlan::outage_at`]. The P12 study sweeps this against the
    /// durable tier's upload lag (data-loss window vs restore MTTR).
    pub fn disaster_at(self, at: SimTime, node: NodeId, downtime: SimDuration) -> Self {
        self.volume_loss_at(at, node)
            .recover_at(at + downtime, node)
    }

    /// The plan's outages in crash order: each crash paired with its
    /// matching recovery (events walked in time order, ties broken by
    /// insertion order, exactly like [`FaultPlan::validate`]). The
    /// downtime is `None` for a crash that never recovers. This is the
    /// outage-length distribution the recovery experiments bucket by.
    pub fn outages(&self) -> Vec<(NodeId, SimTime, Option<SimDuration>)> {
        let mut order: Vec<(usize, &FaultEvent)> = self.events.iter().enumerate().collect();
        order.sort_by_key(|(i, e)| (e.time(), *i));
        let mut open: Vec<(NodeId, SimTime)> = Vec::new();
        let mut outages: Vec<(NodeId, SimTime, Option<SimDuration>)> = Vec::new();
        for (_, e) in order {
            match e {
                FaultEvent::Crash { at, node } => open.push((*node, *at)),
                FaultEvent::VolumeLoss { at, node } => {
                    // A wipe opens an outage only if the node is not
                    // already down — it extends the existing one.
                    if !open.iter().any(|(n, _)| n == node) {
                        open.push((*node, *at));
                    }
                }
                FaultEvent::Recover { at, node } => {
                    if let Some(pos) = open.iter().position(|(n, _)| n == node) {
                        let (_, crashed) = open.remove(pos);
                        outages.push((*node, crashed, Some(*at - crashed)));
                    }
                }
                FaultEvent::Net { .. } => {}
            }
        }
        outages.extend(open.into_iter().map(|(n, at)| (n, at, None)));
        outages.sort_by_key(|&(n, at, _)| (at, n));
        outages
    }

    /// Adds a partition into the given groups (nodes in no group keep
    /// full connectivity).
    pub fn partition_at(mut self, at: SimTime, groups: Vec<Vec<NodeId>>) -> Self {
        self.events.push(FaultEvent::Net {
            at,
            fault: NetFault::Partition(groups),
        });
        self
    }

    /// Adds a heal of all partitions.
    pub fn heal_at(mut self, at: SimTime) -> Self {
        self.events.push(FaultEvent::Net {
            at,
            fault: NetFault::Heal,
        });
        self
    }

    /// Degrades the directed link `src → dst` at `at`: messages pay
    /// `extra_latency` and face `drop_prob` extra loss until restored
    /// (`drop_prob` 1 cuts the link).
    pub fn degrade_link_at(
        mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        extra_latency: SimDuration,
        drop_prob: f64,
    ) -> Self {
        self.events.push(FaultEvent::Net {
            at,
            fault: NetFault::Degrade {
                src,
                dst,
                quality: LinkQuality {
                    extra_latency,
                    drop_prob,
                },
            },
        });
        self
    }

    /// Removes any degradation from the directed link `src → dst` at `at`.
    pub fn restore_link_at(mut self, at: SimTime, src: NodeId, dst: NodeId) -> Self {
        self.events.push(FaultEvent::Net {
            at,
            fault: NetFault::Restore { src, dst },
        });
        self
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True if the plan is failure-free.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events (faults and repairs).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Number of disruptive events (crashes, volume losses, partitions,
    /// link faults).
    pub fn fault_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| match e {
                FaultEvent::Crash { .. } | FaultEvent::VolumeLoss { .. } => true,
                FaultEvent::Recover { .. } => false,
                FaultEvent::Net { fault, .. } => fault.is_disruptive(),
            })
            .count()
    }

    /// True if the plan ever crashes `node`.
    pub fn crashes(&self, node: NodeId) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, FaultEvent::Crash { node: n, .. } if *n == node))
    }

    /// True if the plan ever destroys `node`'s volume.
    pub fn wipes(&self, node: NodeId) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, FaultEvent::VolumeLoss { node: n, .. } if *n == node))
    }

    /// The time of the earliest node-down fault — crash or volume loss —
    /// if any (the anchor for failover latency).
    pub fn first_crash_time(&self) -> Option<SimTime> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::Crash { at, .. } | FaultEvent::VolumeLoss { at, .. } => Some(*at),
                _ => None,
            })
            .min()
    }

    /// Nodes whose state a fault may have touched: crashed nodes, members
    /// of minority partition groups (every group but the largest; first
    /// listed wins a tie), and both endpoints of degraded (or cut)
    /// links — the destination misses traffic, and the source's delayed
    /// or dropped heartbeats can get it falsely suspected by the group.
    /// Replicas outside this set saw every message a fault-free run would
    /// have delivered to the same side of each cut, so convergence
    /// assertions restrict themselves to the complement.
    pub fn disturbed_nodes(&self) -> BTreeSet<NodeId> {
        let mut disturbed = BTreeSet::new();
        for e in &self.events {
            match e {
                FaultEvent::Crash { node, .. } | FaultEvent::VolumeLoss { node, .. } => {
                    disturbed.insert(*node);
                }
                FaultEvent::Recover { .. } => {}
                FaultEvent::Net { fault, .. } => match fault {
                    NetFault::Partition(groups) => {
                        let largest = groups
                            .iter()
                            .enumerate()
                            .max_by(|(ai, a), (bi, b)| a.len().cmp(&b.len()).then(bi.cmp(ai)))
                            .map(|(i, _)| i);
                        for (gi, group) in groups.iter().enumerate() {
                            if Some(gi) != largest {
                                disturbed.extend(group.iter().copied());
                            }
                        }
                    }
                    NetFault::Degrade { src, dst, .. } => {
                        disturbed.insert(*src);
                        disturbed.insert(*dst);
                    }
                    NetFault::Heal | NetFault::Restore { .. } => {}
                },
            }
        }
        disturbed
    }

    /// True if every fault in the plan is eventually repaired: every
    /// crashed node recovers, every partition heals, every degraded link
    /// is restored.
    pub fn fully_healed(&self) -> bool {
        let mut events: Vec<&FaultEvent> = self.events.iter().collect();
        events.sort_by_key(|e| e.time());
        let mut crashed: BTreeSet<NodeId> = BTreeSet::new();
        let mut partitioned = false;
        let mut degraded: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        for e in events {
            match e {
                FaultEvent::Crash { node, .. } | FaultEvent::VolumeLoss { node, .. } => {
                    crashed.insert(*node);
                }
                FaultEvent::Recover { node, .. } => {
                    crashed.remove(node);
                }
                FaultEvent::Net { fault, .. } => match fault {
                    NetFault::Partition(_) => partitioned = true,
                    NetFault::Heal => partitioned = false,
                    NetFault::Degrade { src, dst, .. } => {
                        degraded.insert((*src, *dst));
                    }
                    NetFault::Restore { src, dst } => {
                        degraded.remove(&(*src, *dst));
                    }
                },
            }
        }
        crashed.is_empty() && !partitioned && degraded.is_empty()
    }

    /// Validates the plan against a server count and run deadline.
    ///
    /// Events are checked in time order (ties broken by insertion order,
    /// matching the world's scheduler). Restores of healthy links (no
    /// matching degradation) are allowed — they are harmless no-ops in
    /// [`repl_sim::Network::apply`] too.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultPlanError`] encountered.
    pub fn validate(&self, nodes: u32, max_time: SimTime) -> Result<(), FaultPlanError> {
        let mut events: Vec<&FaultEvent> = self.events.iter().collect();
        events.sort_by_key(|e| e.time());
        let in_range = |n: NodeId| n.index() < nodes as usize;
        let mut crashed: BTreeSet<NodeId> = BTreeSet::new();
        let mut partitioned = false;
        for e in events {
            let at = e.time();
            if at > max_time {
                return Err(FaultPlanError::PastMaxTime { at, max_time });
            }
            match e {
                FaultEvent::Crash { node, .. } => {
                    if !in_range(*node) {
                        return Err(FaultPlanError::NodeOutOfRange {
                            node: *node,
                            nodes,
                            at,
                        });
                    }
                    if !crashed.insert(*node) {
                        return Err(FaultPlanError::DuplicateCrash { node: *node, at });
                    }
                }
                FaultEvent::VolumeLoss { node, .. } => {
                    if !in_range(*node) {
                        return Err(FaultPlanError::NodeOutOfRange {
                            node: *node,
                            nodes,
                            at,
                        });
                    }
                    // Unlike a crash, wiping an already-down node is
                    // legal: the disk of a crashed node can still die,
                    // and the single matching recovery brings it back.
                    crashed.insert(*node);
                }
                FaultEvent::Recover { node, .. } => {
                    if !in_range(*node) {
                        return Err(FaultPlanError::NodeOutOfRange {
                            node: *node,
                            nodes,
                            at,
                        });
                    }
                    if !crashed.remove(node) {
                        return Err(FaultPlanError::RecoverWithoutCrash { node: *node, at });
                    }
                }
                FaultEvent::Net { fault, .. } => match fault {
                    NetFault::Partition(groups) => {
                        if groups.is_empty() || groups.iter().any(|g| g.is_empty()) {
                            return Err(FaultPlanError::EmptyPartition { at });
                        }
                        let mut seen = BTreeSet::new();
                        for &n in groups.iter().flatten() {
                            if !in_range(n) {
                                return Err(FaultPlanError::NodeOutOfRange { node: n, nodes, at });
                            }
                            if !seen.insert(n) {
                                return Err(FaultPlanError::OverlappingGroups { node: n, at });
                            }
                        }
                        partitioned = true;
                    }
                    NetFault::Heal => {
                        if !partitioned {
                            return Err(FaultPlanError::HealWithoutPartition { at });
                        }
                        partitioned = false;
                    }
                    NetFault::Degrade { src, dst, .. } | NetFault::Restore { src, dst } => {
                        for &n in [src, dst] {
                            if !in_range(n) {
                                return Err(FaultPlanError::NodeOutOfRange { node: n, nodes, at });
                            }
                        }
                        if src == dst {
                            return Err(FaultPlanError::SelfLink { node: *src, at });
                        }
                        if let NetFault::Degrade { quality, .. } = fault {
                            if !(0.0..=1.0).contains(&quality.drop_prob) {
                                return Err(FaultPlanError::InvalidDropProb {
                                    p: quality.drop_prob,
                                    at,
                                });
                            }
                        }
                    }
                },
            }
        }
        Ok(())
    }

    /// The seeded nemesis: a reproducible random fault plan.
    ///
    /// The same `(seed, intensity, nodes, horizon)` always yields the
    /// same plan. `intensity` in `[0, 1]` scales how many fault episodes
    /// are injected and how harsh each is; `nodes` is the server count the
    /// plan targets and `horizon` the approximate length of the workload
    /// (faults land in `[horizon/10, horizon/2]` so they overlap the run).
    ///
    /// Generated plans are valid by construction and deliberately
    /// survivable, in the spirit of the paper's failure assumptions
    /// (crash faults, primary-partition membership):
    ///
    /// * every fault heals: crashes recover, partitions heal, degraded
    ///   links are restored ([`FaultPlan::fully_healed`] is true),
    /// * victims are drawn from the high-ranked tail of the group, so
    ///   rank 0 — the primary/sequencer of the primary-copy techniques —
    ///   and with it a majority of replicas stay untouched,
    /// * each episode composes up to three fault kinds: a crash, a
    ///   partition (splitting off tail nodes), and — when the pool holds
    ///   at least two nodes — a link latency spike/loss burst between two
    ///   pool nodes. Keeping both endpoints in the pool matters: a spiked
    ///   link delays heartbeats, and a falsely suspected *untouched*
    ///   replica could otherwise be evicted from the group,
    /// * at the harshest intensities (above `0.8`) each episode also
    ///   loses a volume: one pool node's disk is destroyed in the second
    ///   half of the episode — after the episode's crash has recovered
    ///   and its partition healed — and recovers before the episode ends.
    ///   One wipe at a time, drawn from the minority pool, so a majority
    ///   is never wiped simultaneously. Disaster draws come from a forked
    ///   RNG stream, so plans at or below intensity `0.8` are
    ///   byte-for-byte what earlier versions generated.
    ///
    /// Plans for fewer than two nodes, a zero intensity or a tiny horizon
    /// are empty. Targeted chaos beyond these guardrails can always be
    /// built explicitly with the `*_at` builders.
    pub fn random(seed: u64, intensity: f64, nodes: u32, horizon: SimTime) -> Self {
        let intensity = intensity.clamp(0.0, 1.0);
        let mut plan = FaultPlan::new();
        if nodes < 2 || intensity == 0.0 || horizon.ticks() < 1_000 {
            return plan;
        }
        let mut rng = SmallRng::seed_from_u64(seed ^ intensity.to_bits().rotate_left(17));
        // The victim pool: the tail ⌊(nodes-1)/2⌋ node ids (at least one).
        // Crashes, partition minorities and faulted-link endpoints all
        // come from here, which keeps rank 0 and a majority untouched.
        let pool_size = ((nodes - 1) / 2).max(1);
        let pool_start = nodes - pool_size;
        // Fault window: [10%, 50%] of the horizon, split into episodes.
        let start = horizon.ticks() / 10;
        let end = horizon.ticks() / 2;
        let episodes = 1 + (intensity * 2.0).floor() as u64;
        let span = (end - start) / episodes;
        if span < 8 {
            return plan;
        }
        for ep in 0..episodes {
            let t0 = start + ep * span;
            // Each fault lives inside the first half of the episode and is
            // repaired by episode end.
            let onset = |rng: &mut SmallRng| t0 + rng.gen_range(0..span / 4);
            let repair = |rng: &mut SmallRng, after: u64| {
                (after + 1 + rng.gen_range(0..span / 4)).min(t0 + span - 1)
            };

            // A crash (always).
            let victim = NodeId::new(pool_start + rng.gen_range(0..pool_size));
            let crash = onset(&mut rng);
            plan = plan
                .crash_at(SimTime::from_ticks(crash), victim)
                .recover_at(SimTime::from_ticks(repair(&mut rng, crash)), victim);

            // A partition splitting off `k` tail nodes (needs a node left
            // in the majority besides rank 0 to make the split non-trivial).
            if nodes >= 3 {
                let k = rng.gen_range(1..=pool_size);
                let minority: Vec<NodeId> = (nodes - k..nodes).map(NodeId::new).collect();
                let majority: Vec<NodeId> = (0..nodes - k).map(NodeId::new).collect();
                let cut = onset(&mut rng);
                plan = plan
                    .partition_at(SimTime::from_ticks(cut), vec![majority, minority])
                    .heal_at(SimTime::from_ticks(repair(&mut rng, cut)));
            }

            // A link latency spike (and, at high intensity, extra loss)
            // between two pool nodes.
            if pool_size >= 2 {
                let dst = NodeId::new(pool_start + rng.gen_range(0..pool_size));
                let src = loop {
                    let s = NodeId::new(pool_start + rng.gen_range(0..pool_size));
                    if s != dst {
                        break s;
                    }
                };
                let spike = SimDuration::from_ticks(
                    rng.gen_range(500..=2_000 + (8_000.0 * intensity) as u64),
                );
                let loss = if intensity > 0.5 {
                    rng.gen_range(0.0..0.3) * intensity
                } else {
                    0.0
                };
                let hit = onset(&mut rng);
                plan = plan
                    .degrade_link_at(SimTime::from_ticks(hit), src, dst, spike, loss)
                    .restore_link_at(SimTime::from_ticks(repair(&mut rng, hit)), src, dst);
            }
        }

        // Disasters ride a forked RNG stream (not `rng`): adding them
        // must not shift the crash/partition/spike draws above, so plans
        // at or below intensity 0.8 stay byte-identical to what earlier
        // versions generated. Each wipe lands in the second half of its
        // episode, after the episode's crash repair (≤ t0 + span/2 - 1)
        // and partition heal, and recovers before the episode ends — at
        // most one node is ever down with it, so a majority always
        // survives with volumes intact.
        if intensity > 0.8 {
            let mut drng = SmallRng::seed_from_u64(seed.rotate_left(32) ^ 0xB077_0E55);
            for ep in 0..episodes {
                let t0 = start + ep * span;
                let victim = NodeId::new(pool_start + drng.gen_range(0..pool_size));
                let wipe = t0 + span / 2 + drng.gen_range(0..span / 8);
                let back = (wipe + 1 + drng.gen_range(0..span / 4)).min(t0 + span - 1);
                plan = plan
                    .volume_loss_at(SimTime::from_ticks(wipe), victim)
                    .recover_at(SimTime::from_ticks(back), victim);
            }
        }
        plan
    }

    /// The seeded nemesis for elastic runs: [`FaultPlan::random`] with
    /// survivability guardrails against a [`MembershipPlan`].
    ///
    /// [`FaultPlan::random`]'s static bound — a majority of `initial`
    /// servers stays untouched — is not enough once membership changes
    /// mid-run: a drain shrinks the view, so a crash that was harmless
    /// against the full group can drop the live member count below a
    /// majority of the *current* membership. Two guardrails restore the
    /// paper's failure assumptions:
    ///
    /// * victims are drawn from the initial servers only (the plan is
    ///   generated against `initial` nodes, never the peak): a planned
    ///   joiner is mid-state-transfer, not yet a quorum participant, and
    ///   crashing it would test crash recovery rather than elasticity,
    /// * the composed schedule must keep live members at or above a
    ///   majority of the current membership at every instant
    ///   ([`MembershipPlan::survivable_with`]). Candidates that violate
    ///   the bound — e.g. a crash overlapping a drained view — are
    ///   discarded and regenerated from a derived seed; if no candidate
    ///   survives, the intensity is stepped down until one does (an
    ///   empty plan always does).
    ///
    /// Fully deterministic in `(seed, intensity, initial, horizon,
    /// membership)`; with an empty membership plan the first candidate
    /// always survives, so the result is byte-identical to
    /// [`FaultPlan::random`].
    ///
    /// [`MembershipPlan`]: crate::MembershipPlan
    /// [`MembershipPlan::survivable_with`]: crate::MembershipPlan::survivable_with
    pub fn random_elastic(
        seed: u64,
        intensity: f64,
        initial: u32,
        horizon: SimTime,
        membership: &crate::MembershipPlan,
    ) -> Self {
        let mut intensity = intensity.clamp(0.0, 1.0);
        loop {
            for attempt in 0u64..16 {
                let s = seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let candidate = FaultPlan::random(s, intensity, initial, horizon);
                if membership.survivable_with(&candidate, initial) {
                    return candidate;
                }
            }
            // No survivable candidate at this harshness: degrade to a
            // gentler nemesis rather than an unsurvivable one.
            intensity -= 0.2;
            if intensity <= 0.0 {
                return FaultPlan::new();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    fn n(id: u32) -> NodeId {
        NodeId::new(id)
    }

    #[test]
    fn builders_accumulate_events() {
        let plan = FaultPlan::new()
            .crash_at(t(10), n(1))
            .recover_at(t(20), n(1))
            .partition_at(t(5), vec![vec![n(0)], vec![n(1)]])
            .heal_at(t(15))
            .degrade_link_at(t(6), n(0), n(1), SimDuration::ZERO, 1.0)
            .restore_link_at(t(7), n(0), n(1))
            .degrade_link_at(t(8), n(1), n(0), SimDuration::from_ticks(100), 0.1)
            .restore_link_at(t(9), n(1), n(0));
        assert_eq!(plan.len(), 8);
        assert_eq!(plan.fault_count(), 4);
        assert!(plan.crashes(n(1)));
        assert!(!plan.crashes(n(0)));
        assert!(!plan.is_empty());
        assert_eq!(plan.first_crash_time(), Some(t(10)));
        assert!(plan.fully_healed());
        assert!(plan.validate(2, t(100)).is_ok());
    }

    #[test]
    fn validation_rejects_recover_before_crash() {
        let plan = FaultPlan::new()
            .recover_at(t(5), n(0))
            .crash_at(t(10), n(0));
        assert_eq!(
            plan.validate(3, t(100)),
            Err(FaultPlanError::RecoverWithoutCrash {
                node: n(0),
                at: t(5)
            })
        );
    }

    #[test]
    fn validation_rejects_duplicate_crash() {
        let plan = FaultPlan::new().crash_at(t(5), n(1)).crash_at(t(10), n(1));
        assert_eq!(
            plan.validate(3, t(100)),
            Err(FaultPlanError::DuplicateCrash {
                node: n(1),
                at: t(10)
            })
        );
        // Crash–recover–crash is fine.
        let ok = FaultPlan::new()
            .crash_at(t(5), n(1))
            .recover_at(t(7), n(1))
            .crash_at(t(10), n(1));
        assert!(ok.validate(3, t(100)).is_ok());
    }

    #[test]
    fn validation_rejects_events_past_max_time() {
        let plan = FaultPlan::new().crash_at(t(500), n(0));
        assert_eq!(
            plan.validate(3, t(100)),
            Err(FaultPlanError::PastMaxTime {
                at: t(500),
                max_time: t(100)
            })
        );
    }

    #[test]
    fn validation_rejects_out_of_range_nodes() {
        let plan = FaultPlan::new().crash_at(t(5), n(7));
        assert!(matches!(
            plan.validate(3, t(100)),
            Err(FaultPlanError::NodeOutOfRange { .. })
        ));
        let plan = FaultPlan::new().partition_at(t(5), vec![vec![n(0)], vec![n(9)]]);
        assert!(matches!(
            plan.validate(3, t(100)),
            Err(FaultPlanError::NodeOutOfRange { .. })
        ));
        let plan = FaultPlan::new().degrade_link_at(t(5), n(0), n(9), SimDuration::ZERO, 1.0);
        assert!(matches!(
            plan.validate(3, t(100)),
            Err(FaultPlanError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn validation_rejects_malformed_partitions_and_links() {
        let plan = FaultPlan::new().partition_at(t(5), vec![]);
        assert_eq!(
            plan.validate(3, t(100)),
            Err(FaultPlanError::EmptyPartition { at: t(5) })
        );
        let plan = FaultPlan::new().partition_at(t(5), vec![vec![n(0)], vec![]]);
        assert_eq!(
            plan.validate(3, t(100)),
            Err(FaultPlanError::EmptyPartition { at: t(5) })
        );
        let plan = FaultPlan::new().partition_at(t(5), vec![vec![n(0)], vec![n(0)]]);
        assert_eq!(
            plan.validate(3, t(100)),
            Err(FaultPlanError::OverlappingGroups {
                node: n(0),
                at: t(5)
            })
        );
        let plan = FaultPlan::new().heal_at(t(5));
        assert_eq!(
            plan.validate(3, t(100)),
            Err(FaultPlanError::HealWithoutPartition { at: t(5) })
        );
        let plan = FaultPlan::new().degrade_link_at(t(5), n(1), n(1), SimDuration::ZERO, 1.0);
        assert_eq!(
            plan.validate(3, t(100)),
            Err(FaultPlanError::SelfLink {
                node: n(1),
                at: t(5)
            })
        );
        let plan = FaultPlan::new().degrade_link_at(t(5), n(0), n(1), SimDuration::ZERO, 1.5);
        assert!(matches!(
            plan.validate(3, t(100)),
            Err(FaultPlanError::InvalidDropProb { .. })
        ));
    }

    #[test]
    fn validation_checks_in_time_order_not_insertion_order() {
        // Recover inserted first but scheduled after the crash: valid.
        let plan = FaultPlan::new()
            .recover_at(t(20), n(1))
            .crash_at(t(10), n(1));
        assert!(plan.validate(3, t(100)).is_ok());
    }

    #[test]
    fn outage_at_pairs_crash_and_recovery() {
        let plan = FaultPlan::new()
            .outage_at(t(1_000), n(2), SimDuration::from_ticks(5_000))
            .outage_at(t(10_000), n(1), SimDuration::from_ticks(500));
        assert_eq!(plan.len(), 4);
        assert!(plan.validate(3, t(20_000)).is_ok());
        assert!(plan.fully_healed());
        assert_eq!(
            plan.outages(),
            vec![
                (n(2), t(1_000), Some(SimDuration::from_ticks(5_000))),
                (n(1), t(10_000), Some(SimDuration::from_ticks(500))),
            ]
        );
    }

    #[test]
    fn outages_pair_in_time_order_and_flag_unrecovered_crashes() {
        // Two outages of the same node out of insertion order, plus a
        // crash that never recovers: pairing follows event time.
        let plan = FaultPlan::new()
            .recover_at(t(8_000), n(1))
            .crash_at(t(6_000), n(1))
            .crash_at(t(1_000), n(1))
            .recover_at(t(2_000), n(1))
            .crash_at(t(9_000), n(2));
        assert_eq!(
            plan.outages(),
            vec![
                (n(1), t(1_000), Some(SimDuration::from_ticks(1_000))),
                (n(1), t(6_000), Some(SimDuration::from_ticks(2_000))),
                (n(2), t(9_000), None),
            ]
        );
    }

    #[test]
    fn disaster_at_pairs_wipe_and_recovery() {
        let plan = FaultPlan::new()
            .disaster_at(t(2_000), n(2), SimDuration::from_ticks(6_000))
            .outage_at(t(12_000), n(1), SimDuration::from_ticks(500));
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.fault_count(), 2);
        assert!(plan.wipes(n(2)));
        assert!(!plan.wipes(n(1)));
        assert!(!plan.crashes(n(2)));
        assert_eq!(plan.first_crash_time(), Some(t(2_000)));
        assert!(plan.validate(3, t(20_000)).is_ok());
        assert!(plan.fully_healed());
        assert_eq!(
            plan.outages(),
            vec![
                (n(2), t(2_000), Some(SimDuration::from_ticks(6_000))),
                (n(1), t(12_000), Some(SimDuration::from_ticks(500))),
            ]
        );
        assert_eq!(plan.disturbed_nodes(), BTreeSet::from([n(1), n(2)]));
    }

    #[test]
    fn validation_allows_wiping_a_down_node() {
        // Crash, then the dead node's disk dies too, then one recovery
        // brings it back: a single down interval, valid.
        let plan = FaultPlan::new()
            .crash_at(t(1_000), n(2))
            .volume_loss_at(t(2_000), n(2))
            .recover_at(t(5_000), n(2));
        assert!(plan.validate(3, t(10_000)).is_ok());
        assert!(plan.fully_healed());
        // The wipe extends the crash outage rather than opening a second.
        assert_eq!(
            plan.outages(),
            vec![(n(2), t(1_000), Some(SimDuration::from_ticks(4_000)))]
        );
        // But a second recovery has nothing to repair.
        let twice = plan.clone().recover_at(t(6_000), n(2));
        assert_eq!(
            twice.validate(3, t(10_000)),
            Err(FaultPlanError::RecoverWithoutCrash {
                node: n(2),
                at: t(6_000)
            })
        );
        // And out-of-range wipes are rejected like any node fault.
        let oob = FaultPlan::new().volume_loss_at(t(5), n(7));
        assert!(matches!(
            oob.validate(3, t(100)),
            Err(FaultPlanError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn fully_healed_detects_unrecovered_wipe() {
        let wiped = FaultPlan::new().volume_loss_at(t(10), n(1));
        assert!(!wiped.fully_healed());
        assert!(wiped.clone().recover_at(t(20), n(1)).fully_healed());
    }

    #[test]
    fn random_disasters_appear_only_above_high_intensity() {
        for seed in 0..20 {
            for nodes in 3..=7u32 {
                let calm = FaultPlan::random(seed, 0.8, nodes, t(80_000));
                assert!(
                    calm.events().iter().all(|e| e.kind() != "volume-loss"),
                    "seed {seed} n={nodes}: disaster at intensity 0.8"
                );
                let harsh = FaultPlan::random(seed, 1.0, nodes, t(80_000));
                assert!(
                    harsh.events().iter().any(|e| e.kind() == "volume-loss"),
                    "seed {seed} n={nodes}: no disaster at intensity 1.0"
                );
                harsh
                    .validate(nodes, t(80_000))
                    .unwrap_or_else(|e| panic!("seed {seed} n={nodes}: {e}"));
                assert!(harsh.fully_healed());
            }
        }
    }

    #[test]
    fn random_disasters_never_down_a_majority_simultaneously() {
        for seed in 0..20 {
            for nodes in 2..=7u32 {
                let plan = FaultPlan::random(seed, 1.0, nodes, t(80_000));
                let mut order: Vec<&FaultEvent> = plan.events().iter().collect();
                order.sort_by_key(|e| e.time());
                let mut down: BTreeSet<NodeId> = BTreeSet::new();
                let minority = ((nodes - 1) / 2).max(1) as usize;
                for e in order {
                    match e {
                        FaultEvent::Crash { node, .. } | FaultEvent::VolumeLoss { node, .. } => {
                            down.insert(*node);
                        }
                        FaultEvent::Recover { node, .. } => {
                            down.remove(node);
                        }
                        FaultEvent::Net { .. } => {}
                    }
                    assert!(
                        down.len() <= minority,
                        "seed {seed} n={nodes}: {} nodes down at {} — majority at risk",
                        down.len(),
                        e.time()
                    );
                }
            }
        }
    }

    #[test]
    fn disturbed_nodes_cover_crashes_minorities_and_link_endpoints() {
        let plan = FaultPlan::new()
            .crash_at(t(10), n(4))
            .partition_at(t(20), vec![vec![n(0), n(1), n(2)], vec![n(3), n(4)]])
            .heal_at(t(30))
            .degrade_link_at(t(40), n(2), n(3), SimDuration::from_ticks(100), 0.0)
            .restore_link_at(t(50), n(2), n(3));
        // Both endpoints of the degraded link count: n(2) as source (its
        // delayed heartbeats can get it falsely suspected), n(3) as
        // destination (it misses traffic).
        let d = plan.disturbed_nodes();
        assert_eq!(d, BTreeSet::from([n(2), n(3), n(4)]));
    }

    #[test]
    fn fully_healed_detects_unrepaired_faults() {
        assert!(FaultPlan::new().fully_healed());
        let unrecovered = FaultPlan::new().crash_at(t(10), n(1));
        assert!(!unrecovered.fully_healed());
        let unhealed = FaultPlan::new().partition_at(t(10), vec![vec![n(0)], vec![n(1)]]);
        assert!(!unhealed.fully_healed());
        let still_down =
            FaultPlan::new().degrade_link_at(t(10), n(0), n(1), SimDuration::ZERO, 1.0);
        assert!(!still_down.fully_healed());
        let still_slow =
            FaultPlan::new().degrade_link_at(t(10), n(0), n(1), SimDuration::from_ticks(5), 0.0);
        assert!(!still_slow.fully_healed());
    }

    #[test]
    fn random_plans_are_deterministic() {
        for seed in 0..30 {
            for &intensity in &[0.2, 0.5, 1.0] {
                let horizon = t(60_000);
                let a = FaultPlan::random(seed, intensity, 5, horizon);
                let b = FaultPlan::random(seed, intensity, 5, horizon);
                assert_eq!(a, b, "seed {seed} intensity {intensity} not reproducible");
            }
        }
    }

    #[test]
    fn random_plans_are_valid_and_survivable() {
        for seed in 0..50 {
            for &intensity in &[0.1, 0.4, 0.7, 1.0] {
                for nodes in 2..=7u32 {
                    let horizon = t(80_000);
                    let plan = FaultPlan::random(seed, intensity, nodes, horizon);
                    plan.validate(nodes, horizon)
                        .unwrap_or_else(|e| panic!("seed {seed} n={nodes}: {e}"));
                    assert!(
                        plan.fully_healed(),
                        "seed {seed} n={nodes}: plan leaves faults unrepaired"
                    );
                    // Rank 0 and a majority stay untouched: everything the
                    // nemesis hits lives in the tail victim pool.
                    let pool_size = ((nodes - 1) / 2).max(1);
                    let disturbed = plan.disturbed_nodes();
                    assert!(
                        !disturbed.contains(&n(0)),
                        "seed {seed} n={nodes}: rank 0 disturbed"
                    );
                    assert!(
                        disturbed
                            .iter()
                            .all(|d| d.index() >= (nodes - pool_size) as usize),
                        "seed {seed} n={nodes}: fault outside the victim pool {disturbed:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn random_plan_composes_crash_partition_and_spike() {
        let plan = FaultPlan::random(42, 0.6, 5, t(80_000));
        assert!(plan.events().iter().any(|e| e.kind() == "crash"));
        assert!(plan.events().iter().any(|e| e.kind() == "partition"));
        assert!(plan.events().iter().any(|e| e.kind() == "degrade"));
        assert!(plan.fault_count() >= 3);
    }

    #[test]
    fn random_plan_degenerate_inputs_are_empty() {
        assert!(FaultPlan::random(1, 0.0, 5, t(80_000)).is_empty());
        assert!(FaultPlan::random(1, 0.5, 1, t(80_000)).is_empty());
        assert!(FaultPlan::random(1, 0.5, 5, t(10)).is_empty());
    }

    #[test]
    fn error_display_is_informative() {
        let e = FaultPlanError::DuplicateCrash {
            node: n(2),
            at: t(9),
        };
        assert!(e.to_string().contains("crashed while already down"));
        let e = FaultPlanError::PastMaxTime {
            at: t(10),
            max_time: t(5),
        };
        assert!(e.to_string().contains("deadline"));
    }
}
