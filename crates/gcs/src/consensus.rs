//! Rotating-coordinator consensus in the Chandra–Toueg ◇S style.
//!
//! Consensus is the agreement engine under the distributed-systems side of
//! the paper: consensus-based Atomic Broadcast (Section 3.2/4.4.2), view
//! agreement for VSCAST (Section 3.3), and semi-passive replication's
//! "consensus with deferred initial values" (Section 3.5) all reduce to it.
//!
//! The algorithm proceeds in rounds; the coordinator of round `r` is
//! `group[r % n]`. Each round is a Paxos-like ballot:
//!
//! 1. every participant entering round `r` sends its current *estimate*
//!    (last adopted value and the round it was adopted in) to the
//!    coordinator — implicitly promising to reject proposals from earlier
//!    rounds;
//! 2. the coordinator collects a majority of round-`r` estimates, picks the
//!    value with the highest adoption timestamp (ties broken by proposer
//!    id), and proposes it;
//! 3. participants adopt and acknowledge the proposal unless they have
//!    moved to a later round;
//! 4. on a majority of acks the coordinator decides and disseminates the
//!    decision with eager relay.
//!
//! Suspicion is implemented by per-round timeouts: an undecided participant
//! whose round stalls moves on, which rotates the coordinator. Safety never
//! depends on the timeouts; liveness requires a majority of the group to
//! stay alive (the usual requirement).
//!
//! A ballot is transient: once an instance decides, its round, estimates,
//! proposal and acks are of no further use, so the ballot returns to a free
//! list and only the decided value stays — the answer to a participant that
//! starts or re-sends an estimate late.

use std::collections::{btree_map, hash_map, BTreeMap, HashMap};

use repl_sim::{Message, NodeId, SimDuration};

use crate::component::{Component, Outbox};

/// Maximum round per instance (bounded so timer tags stay compact).
const MAX_ROUND: u64 = 1 << 16;
/// Maximum instance id (so `inst * MAX_ROUND + round` fits in a sub-tag space).
const MAX_INST: u64 = 1 << 24;

/// Wire message of [`ConsensusPool`].
#[derive(Debug, Clone)]
pub enum ConsMsg<V> {
    /// Proposer → all: an instance has begun; join round 0.
    Start {
        /// Consensus instance.
        inst: u64,
    },
    /// Participant → coordinator: current estimate for a round.
    Estimate {
        /// Consensus instance.
        inst: u64,
        /// Round the estimate is for.
        round: u64,
        /// Last adopted `(value, adoption timestamp)`, if any.
        est: Option<(V, u64)>,
    },
    /// Coordinator → all: proposal for a round.
    Propose {
        /// Consensus instance.
        inst: u64,
        /// Round of the proposal.
        round: u64,
        /// Proposed value.
        value: V,
    },
    /// Participant → coordinator: adoption acknowledgement.
    Ack {
        /// Consensus instance.
        inst: u64,
        /// Acknowledged round.
        round: u64,
    },
    /// Decision dissemination (eagerly relayed).
    Decide {
        /// Consensus instance.
        inst: u64,
        /// Decided value.
        value: V,
    },
}

impl<V: Message> Message for ConsMsg<V> {
    fn wire_size(&self) -> usize {
        match self {
            ConsMsg::Start { .. } => 16,
            ConsMsg::Estimate { est, .. } => {
                24 + est.as_ref().map_or(0, |(v, _)| v.wire_size() + 8)
            }
            ConsMsg::Propose { value, .. } => 24 + value.wire_size(),
            ConsMsg::Ack { .. } => 24,
            ConsMsg::Decide { value, .. } => 16 + value.wire_size(),
        }
    }
}

/// Event delivered by [`ConsensusPool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsEvent<V> {
    /// Instance `inst` decided `value`.
    Decided {
        /// Consensus instance.
        inst: u64,
        /// Decided value.
        value: V,
    },
}

/// Configuration of [`ConsensusPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsensusConfig {
    /// How long a participant waits in a round before rotating coordinators.
    pub round_timeout: SimDuration,
}

impl Default for ConsensusConfig {
    fn default() -> Self {
        ConsensusConfig {
            round_timeout: SimDuration::from_ticks(2_000),
        }
    }
}

/// The last adopted `(value, adoption timestamp)`, if any.
type Estimate<V> = Option<(V, u64)>;

/// What a participant knows of an undecided instance. The group is a
/// handful of nodes, so the per-sender tables are short vectors; a recycled
/// ballot keeps their capacity.
#[derive(Debug)]
struct Ballot<V> {
    round: u64,
    est: Estimate<V>,
    /// Latest estimate received from each node: (sender, round, estimate).
    estimates: Vec<(NodeId, u64, Estimate<V>)>,
    proposal: Option<(u64, V)>, // (round proposed in, value)
    acks: Vec<NodeId>,
    entered: bool,
}

impl<V> Default for Ballot<V> {
    fn default() -> Self {
        Ballot {
            round: 0,
            est: None,
            estimates: Vec::new(),
            proposal: None,
            acks: Vec::new(),
            entered: false,
        }
    }
}

impl<V> Ballot<V> {
    /// Empties the ballot for the next instance, keeping its capacity.
    fn reset(&mut self) {
        self.round = 0;
        self.est = None;
        self.estimates.clear();
        self.proposal = None;
        self.acks.clear();
        self.entered = false;
    }
}

/// A pool of independent consensus instances over one fixed group.
///
/// # Examples
///
/// ```
/// use repl_gcs::{ConsensusPool, ConsensusConfig, Outbox};
/// use repl_sim::NodeId;
///
/// let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
/// let mut pool: ConsensusPool<u64> = ConsensusPool::new(group[0], group.to_vec(),
///     ConsensusConfig::default());
/// let mut out = Outbox::new();
/// pool.propose(0, 42, &mut out);
/// assert!(!out.is_empty());
/// ```
#[derive(Debug)]
pub struct ConsensusPool<V> {
    me: NodeId,
    group: Vec<NodeId>,
    config: ConsensusConfig,
    /// Undecided instances this member has heard of.
    live: HashMap<u64, Ballot<V>>,
    /// Ballots of decided instances, emptied for reuse.
    free: Vec<Ballot<V>>,
    /// Decided values by instance (ordered: ids jump after a catch-up).
    decided: BTreeMap<u64, V>,
}

impl<V: Clone + std::fmt::Debug + 'static> ConsensusPool<V> {
    /// Creates a pool for group member `me`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not in `group`.
    pub fn new(me: NodeId, group: Vec<NodeId>, config: ConsensusConfig) -> Self {
        assert!(
            group.contains(&me),
            "consensus participant must be a group member"
        );
        ConsensusPool {
            me,
            group,
            config,
            live: HashMap::new(),
            free: Vec::new(),
            decided: BTreeMap::new(),
        }
    }

    /// Replaces the participant group (elastic membership). Unlike
    /// [`ConsensusPool::new`] the local process need not belong to the
    /// new group: a decommissioned node keeps relaying decisions for
    /// in-flight instances but never coordinates new rounds (it is
    /// outside the rotation) and its acks stop counting once peers adopt
    /// the same membership. Running instances keep their adopted
    /// estimates; only the coordinator rotation and quorum size change.
    pub fn set_group(&mut self, group: Vec<NodeId>) {
        assert!(!group.is_empty(), "consensus group must not be empty");
        self.group = group;
    }

    fn quorum(&self) -> usize {
        self.group.len() / 2 + 1
    }

    fn coord(&self, round: u64) -> NodeId {
        self.group[(round % self.group.len() as u64) as usize]
    }

    fn tag(inst: u64, round: u64) -> u64 {
        inst * MAX_ROUND + round
    }

    /// The decided value of `inst`, if any.
    pub fn decided(&self, inst: u64) -> Option<&V> {
        self.decided.get(&inst)
    }

    /// The live ballot of `inst`, taken from the free list if this member
    /// has not heard of the instance yet; `None` once it is decided. The
    /// live map is asked first: most messages are about a running round.
    fn ballot(&mut self, inst: u64) -> Option<&mut Ballot<V>> {
        match self.live.entry(inst) {
            hash_map::Entry::Occupied(b) => Some(b.into_mut()),
            hash_map::Entry::Vacant(_) if self.decided.contains_key(&inst) => None,
            hash_map::Entry::Vacant(slot) => Some(slot.insert(self.free.pop().unwrap_or_default())),
        }
    }

    /// Answers a late message about decided instance `inst` with the
    /// decision.
    fn answer_decided(&self, to: NodeId, inst: u64, out: &mut Outbox<ConsMsg<V>, ConsEvent<V>>) {
        let value = self.decided.get(&inst).expect("no ballot: decided").clone();
        out.send(to, ConsMsg::Decide { inst, value });
    }

    /// Proposes `v` for instance `inst`. Idempotent: later proposals for a
    /// running instance only seed the estimate if none exists yet.
    ///
    /// # Panics
    ///
    /// Panics if `inst >= 2^24` (timer-tag space).
    pub fn propose(&mut self, inst: u64, v: V, out: &mut Outbox<ConsMsg<V>, ConsEvent<V>>) {
        assert!(inst < MAX_INST, "consensus instance id too large");
        let Some(b) = self.ballot(inst) else {
            return;
        };
        if b.est.is_none() {
            b.est = Some((v, 0));
        }
        if !b.entered {
            let round = b.round;
            for &m in &self.group {
                if m != self.me {
                    out.send(m, ConsMsg::Start { inst });
                }
            }
            self.enter_round(inst, round, out);
        }
    }

    fn enter_round(&mut self, inst: u64, round: u64, out: &mut Outbox<ConsMsg<V>, ConsEvent<V>>) {
        assert!(round < MAX_ROUND, "consensus round overflow");
        let coord = self.coord(round);
        let b = self.live.get_mut(&inst).expect("entering a live ballot");
        b.round = round;
        b.entered = true;
        let est = b.est.clone();
        out.send(coord, ConsMsg::Estimate { inst, round, est });
        out.timer(self.config.round_timeout, Self::tag(inst, round));
    }

    fn try_propose(&mut self, inst: u64, round: u64, out: &mut Outbox<ConsMsg<V>, ConsEvent<V>>) {
        if self.coord(round) != self.me {
            return;
        }
        let quorum = self.quorum();
        let Some(b) = self.live.get_mut(&inst) else {
            return;
        };
        if let Some((r, _)) = b.proposal {
            if r >= round {
                return;
            }
        }
        // Count this round's estimates and pick the one with the highest
        // adoption timestamp, ties to the lower sender id: a total order,
        // so the table's order cannot leak. `None` carries no value.
        let mut answered = 0;
        let mut best: Option<(u64, NodeId, &V)> = None;
        for (n, r, e) in &b.estimates {
            if *r != round {
                continue;
            }
            answered += 1;
            if let Some((v, ts)) = e {
                if best.is_none_or(|(bts, bn, _)| *ts > bts || (*ts == bts && *n < bn)) {
                    best = Some((*ts, *n, v));
                }
            }
        }
        if answered < quorum {
            return;
        }
        let Some((_, _, value)) = best else {
            // A majority answered but none of them knows a value yet; wait
            // for an estimate that carries one.
            return;
        };
        let value = value.clone();
        b.acks.clear();
        for &m in &self.group {
            out.send(
                m,
                ConsMsg::Propose {
                    inst,
                    round,
                    value: value.clone(),
                },
            );
        }
        b.proposal = Some((round, value));
    }

    /// Re-arms the round timers of every undecided, entered instance
    /// after a crash (state survives a crash, timers do not).
    /// Re-entering the current round re-sends the estimate, which also
    /// prods the coordinator in case its proposal was lost.
    pub fn resume(&mut self, out: &mut Outbox<ConsMsg<V>, ConsEvent<V>>) {
        let mut stalled: Vec<(u64, u64)> = self
            .live
            .iter()
            .filter(|(_, b)| b.entered)
            .map(|(&inst, b)| (inst, b.round))
            .collect();
        stalled.sort_unstable(); // sorted-below: HashMap iteration order must not leak
        for (inst, round) in stalled {
            self.enter_round(inst, round, out);
        }
    }

    /// Records the decision, recycles the ballot and relays the value.
    fn decide(&mut self, inst: u64, value: V, out: &mut Outbox<ConsMsg<V>, ConsEvent<V>>) {
        let btree_map::Entry::Vacant(slot) = self.decided.entry(inst) else {
            return;
        };
        slot.insert(value.clone());
        if let Some(mut b) = self.live.remove(&inst) {
            b.reset();
            self.free.push(b);
        }
        for &m in &self.group {
            if m != self.me {
                out.send(
                    m,
                    ConsMsg::Decide {
                        inst,
                        value: value.clone(),
                    },
                );
            }
        }
        out.event(ConsEvent::Decided { inst, value });
    }

    /// Number of undecided instances holding a ballot.
    #[cfg(test)]
    fn live_ballots(&self) -> usize {
        self.live.len()
    }

    /// Number of emptied ballots waiting for reuse.
    #[cfg(test)]
    fn free_ballots(&self) -> usize {
        self.free.len()
    }
}

impl<V: Clone + std::fmt::Debug + 'static> Component for ConsensusPool<V> {
    type Msg = ConsMsg<V>;
    type Event = ConsEvent<V>;

    fn on_message(
        &mut self,
        from: NodeId,
        msg: ConsMsg<V>,
        out: &mut Outbox<ConsMsg<V>, ConsEvent<V>>,
    ) {
        match msg {
            ConsMsg::Start { inst } => {
                let Some(b) = self.ballot(inst) else {
                    return self.answer_decided(from, inst, out);
                };
                if !b.entered {
                    let round = b.round;
                    self.enter_round(inst, round, out);
                }
            }
            ConsMsg::Estimate { inst, round, est } => {
                let Some(b) = self.ballot(inst) else {
                    return self.answer_decided(from, inst, out);
                };
                match b.estimates.iter_mut().find(|(n, ..)| *n == from) {
                    Some(latest) if round < latest.1 => {}
                    Some(latest) => *latest = (from, round, est),
                    None => b.estimates.push((from, round, est)),
                }
                if !b.entered {
                    let r = b.round.max(round);
                    self.enter_round(inst, r, out);
                }
                self.try_propose(inst, round, out);
            }
            ConsMsg::Propose { inst, round, value } => {
                let me_round_timeout = self.config.round_timeout;
                let Some(b) = self.ballot(inst) else {
                    return; // decided: a late proposal changes nothing
                };
                if round < b.round {
                    return; // promised a later round
                }
                let rearm = round > b.round || !b.entered;
                b.round = round;
                b.entered = true;
                b.est = Some((value, round + 1));
                out.send(from, ConsMsg::Ack { inst, round });
                if rearm {
                    out.timer(me_round_timeout, Self::tag(inst, round));
                }
            }
            ConsMsg::Ack { inst, round } => {
                let quorum = self.quorum();
                // No ballot: decided here, or never proposed by us.
                let Some(b) = self.live.get_mut(&inst) else {
                    return;
                };
                if !matches!(b.proposal, Some((r, _)) if r == round) {
                    return;
                }
                if !b.acks.contains(&from) {
                    b.acks.push(from);
                }
                if b.acks.len() >= quorum {
                    let (_, v) = b.proposal.take().expect("matched above");
                    self.decide(inst, v, out);
                }
            }
            ConsMsg::Decide { inst, value } => {
                self.decide(inst, value, out);
            }
        }
    }

    fn on_timer(&mut self, tag: u64, out: &mut Outbox<ConsMsg<V>, ConsEvent<V>>) {
        let inst = tag / MAX_ROUND;
        let round = tag % MAX_ROUND;
        let Some(b) = self.live.get(&inst) else {
            return; // decided (or never heard of)
        };
        if b.round != round || !b.entered {
            return;
        }
        self.enter_round(inst, round + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ComponentActor;
    use repl_sim::{SimConfig, SimDuration, SimTime, World};

    type Pool = ConsensusPool<u64>;
    type Host = ComponentActor<Pool>;

    fn build(
        n: u32,
        seed: u64,
        proposers: &[(u32, u64, u64)], // (node, at_ticks, value)
    ) -> (World<ConsMsg<u64>>, Vec<NodeId>) {
        let mut world = World::new(SimConfig::new(seed));
        let group: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        for i in 0..n {
            let pool = Pool::new(NodeId::new(i), group.to_vec(), ConsensusConfig::default());
            let mut actor = ComponentActor::new(pool);
            for &(node, at, value) in proposers {
                if node == i {
                    actor = actor.with_step(SimDuration::from_ticks(at), move |p, out| {
                        p.propose(0, value, out);
                    });
                }
            }
            world.add_actor(Box::new(actor));
        }
        (world, group)
    }

    fn decision(world: &World<ConsMsg<u64>>, n: NodeId) -> Option<u64> {
        world
            .actor_ref::<Host>(n)
            .events
            .iter()
            .find_map(|(_, e)| match e {
                ConsEvent::Decided { inst: 0, value } => Some(*value),
                _ => None,
            })
    }

    #[test]
    fn single_proposer_everyone_decides_the_value() {
        let (mut world, group) = build(3, 1, &[(0, 10, 42)]);
        world.start();
        world.run_until(SimTime::from_ticks(50_000));
        for &n in &group {
            assert_eq!(decision(&world, n), Some(42), "node {n}");
        }
    }

    #[test]
    fn concurrent_proposers_agree() {
        for seed in 0..10 {
            let (mut world, group) = build(5, seed, &[(0, 10, 100), (3, 10, 300), (4, 12, 400)]);
            world.start();
            world.run_until(SimTime::from_ticks(100_000));
            let d0 = decision(&world, group[0]).expect("node 0 decided");
            assert!([100, 300, 400].contains(&d0), "validity violated: {d0}");
            for &n in &group {
                assert_eq!(
                    decision(&world, n),
                    Some(d0),
                    "agreement at {n}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn coordinator_crash_rotates_and_still_decides() {
        // Node 0 is coordinator of round 0; crash it just after proposals start.
        let (mut world, group) = build(5, 3, &[(1, 10, 7), (2, 10, 9)]);
        world.schedule_crash(SimTime::from_ticks(50), group[0]);
        world.start();
        world.run_until(SimTime::from_ticks(200_000));
        let d1 = decision(&world, group[1]).expect("survivor decided despite coord crash");
        for &n in &group[1..] {
            assert_eq!(decision(&world, n), Some(d1), "agreement at {n}");
        }
    }

    #[test]
    fn minority_crash_does_not_block() {
        let (mut world, group) = build(5, 4, &[(4, 10, 11)]);
        world.schedule_crash(SimTime::from_ticks(20), group[0]);
        world.schedule_crash(SimTime::from_ticks(20), group[1]);
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        for &n in &group[2..] {
            assert_eq!(decision(&world, n), Some(11), "node {n}");
        }
    }

    #[test]
    fn instances_are_independent() {
        let mut world = World::new(SimConfig::new(9));
        let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        for i in 0..3u32 {
            let pool = Pool::new(NodeId::new(i), group.to_vec(), ConsensusConfig::default());
            let mut actor = ComponentActor::new(pool);
            if i == 0 {
                actor = actor.with_step(SimDuration::from_ticks(10), |p, out| {
                    p.propose(1, 111, out);
                    p.propose(2, 222, out);
                });
            }
            world.add_actor(Box::new(actor));
        }
        world.start();
        world.run_until(SimTime::from_ticks(50_000));
        for i in 0..3u32 {
            let host = world.actor_ref::<Host>(NodeId::new(i));
            let mut decided: Vec<(u64, u64)> = host
                .events
                .iter()
                .map(|(_, e)| match e {
                    ConsEvent::Decided { inst, value } => (*inst, *value),
                })
                .collect();
            decided.sort_unstable();
            assert_eq!(decided, vec![(1, 111), (2, 222)], "node {i}");
        }
    }

    #[test]
    fn random_crash_schedules_preserve_agreement_and_validity() {
        // Pseudo-property test: many seeds, random single-crash schedules.
        for seed in 0..20u64 {
            let n = 5;
            let crash_node = (seed % n as u64) as u32;
            let crash_at = 10 + (seed * 137) % 3_000;
            let (mut world, group) = build(n, seed, &[(1, 10, 1000 + seed), (3, 15, 2000 + seed)]);
            // Never crash both proposers' majority: one crash keeps majority.
            world.schedule_crash(SimTime::from_ticks(crash_at), NodeId::new(crash_node));
            world.start();
            world.run_until(SimTime::from_ticks(500_000));
            let survivors: Vec<NodeId> = group
                .iter()
                .copied()
                .filter(|n| n.raw() != crash_node)
                .collect();
            let decisions: Vec<Option<u64>> =
                survivors.iter().map(|&n| decision(&world, n)).collect();
            let first = decisions[0];
            assert!(first.is_some(), "no decision, seed {seed}");
            for d in &decisions {
                assert_eq!(*d, first, "disagreement, seed {seed}");
            }
            let v = first.expect("checked above");
            assert!(
                v == 1000 + seed || v == 2000 + seed,
                "invalid decision {v}, seed {seed}"
            );
        }
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::component::Action;
    use crate::testkit::ComponentActor;
    use repl_sim::{SimConfig, SimDuration, SimTime, World};

    #[test]
    fn decided_accessor_reflects_outcome() {
        let mut world: World<ConsMsg<u64>> = World::new(SimConfig::new(2));
        let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        for i in 0..3u32 {
            let mut actor = ComponentActor::new(ConsensusPool::<u64>::new(
                NodeId::new(i),
                group.to_vec(),
                ConsensusConfig::default(),
            ));
            if i == 0 {
                actor = actor.with_step(SimDuration::from_ticks(5), |p, out| {
                    p.propose(3, 99, out);
                });
            }
            world.add_actor(Box::new(actor));
        }
        world.start();
        world.run_until(SimTime::from_ticks(50_000));
        for i in 0..3u32 {
            let pool = &world
                .actor_ref::<ComponentActor<ConsensusPool<u64>>>(NodeId::new(i))
                .inner;
            assert_eq!(pool.decided(3), Some(&99), "node {i}");
            assert_eq!(pool.decided(4), None);
        }
    }

    #[test]
    fn late_proposal_to_decided_instance_is_ignored() {
        let mut world: World<ConsMsg<u64>> = World::new(SimConfig::new(7));
        let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        for i in 0..3u32 {
            let mut actor = ComponentActor::new(ConsensusPool::<u64>::new(
                NodeId::new(i),
                group.to_vec(),
                ConsensusConfig::default(),
            ));
            if i == 0 {
                actor = actor.with_step(SimDuration::from_ticks(5), |p, out| {
                    p.propose(0, 1, out);
                });
            }
            if i == 2 {
                // Proposes long after the decision.
                actor = actor.with_step(SimDuration::from_ticks(30_000), |p, out| {
                    p.propose(0, 2, out);
                });
            }
            world.add_actor(Box::new(actor));
        }
        world.start();
        world.run_until(SimTime::from_ticks(100_000));
        for i in 0..3u32 {
            let host = world.actor_ref::<ComponentActor<ConsensusPool<u64>>>(NodeId::new(i));
            let decisions: Vec<u64> = host
                .events
                .iter()
                .map(|(_, e)| match e {
                    ConsEvent::Decided { value, .. } => *value,
                })
                .collect();
            assert_eq!(decisions, vec![1], "node {i}: late proposal leaked");
        }
    }

    #[test]
    fn duplicate_start_messages_are_harmless() {
        let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let mut pool =
            ConsensusPool::<u64>::new(group[1], group.to_vec(), ConsensusConfig::default());
        let mut out = Outbox::new();
        pool.on_message(group[0], ConsMsg::Start { inst: 0 }, &mut out);
        let first = out.drain().len();
        pool.on_message(group[2], ConsMsg::Start { inst: 0 }, &mut out);
        assert!(
            out.drain().len() <= first,
            "second Start must not restart the round"
        );
    }

    type Out = Outbox<ConsMsg<u64>, ConsEvent<u64>>;

    fn pools(n: u32) -> Vec<ConsensusPool<u64>> {
        let group: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        group
            .iter()
            .map(|&me| ConsensusPool::new(me, group.to_vec(), ConsensusConfig::default()))
            .collect()
    }

    /// Delivers what `from` queued and everything it causes, in send
    /// order, over a lossless network without timers.
    fn settle(pools: &mut [ConsensusPool<u64>], from: NodeId, out: &mut Out) {
        let mut queue = std::collections::VecDeque::new();
        let mut sender = from;
        loop {
            for action in out.drain() {
                if let Action::Send(to, msg) = action {
                    queue.push_back((sender, to, msg));
                }
            }
            let Some((src, to, msg)) = queue.pop_front() else {
                return;
            };
            pools[to.raw() as usize].on_message(src, msg, out);
            sender = to;
        }
    }

    #[test]
    fn a_late_start_or_estimate_is_answered_with_the_decision() {
        let mut pools = pools(3);
        let mut out = Out::new();
        pools[0].propose(5, 42, &mut out);
        settle(&mut pools, NodeId::new(0), &mut out);
        let pool = &mut pools[1];
        assert_eq!(pool.decided(5), Some(&42));
        let late = [
            ConsMsg::Start { inst: 5 },
            ConsMsg::Estimate {
                inst: 5,
                round: 3,
                est: Some((7, 1)),
            },
        ];
        for msg in late {
            pool.on_message(NodeId::new(2), msg, &mut out);
            let actions = out.drain();
            assert!(
                matches!(
                    actions.as_slice(),
                    [Action::Send(to, ConsMsg::Decide { inst: 5, value: 42 })] if to.raw() == 2
                ),
                "a late message must get exactly the decision: {actions:?}"
            );
            assert_eq!(pool.live_ballots(), 0);
        }
    }

    #[test]
    fn a_late_propose_or_ack_leaves_no_live_ballot() {
        let mut pools = pools(3);
        let mut out = Out::new();
        pools[0].propose(0, 42, &mut out);
        settle(&mut pools, NodeId::new(0), &mut out);
        for pool in &mut pools {
            let late = [
                ConsMsg::Propose {
                    inst: 0,
                    round: 1,
                    value: 7,
                },
                ConsMsg::Ack { inst: 0, round: 0 },
            ];
            for msg in late {
                pool.on_message(NodeId::new(1), msg, &mut out);
                assert!(out.is_empty(), "a late message was answered");
                assert_eq!(pool.live_ballots(), 0, "a late message re-opened a ballot");
            }
            assert_eq!(pool.decided(0), Some(&42));
        }
    }

    #[test]
    fn decided_instances_keep_no_ballot_and_ballots_are_reused() {
        const WIDTH: u64 = 3;
        let mut pools = pools(3);
        let mut out = Out::new();
        for wave in 0..10 {
            for inst in wave * WIDTH..(wave + 1) * WIDTH {
                pools[0].propose(inst, 100 + inst, &mut out);
            }
            settle(&mut pools, NodeId::new(0), &mut out);
            for (i, pool) in pools.iter_mut().enumerate() {
                assert_eq!(pool.live_ballots(), 0, "node {i}, wave {wave}");
                assert!(
                    (1..=WIDTH as usize).contains(&pool.free_ballots()),
                    "node {i}, wave {wave}: {} free ballots for {WIDTH} concurrent instances",
                    pool.free_ballots()
                );
                pool.resume(&mut out);
                assert!(
                    out.is_empty(),
                    "node {i}: resume re-entered a decided instance"
                );
            }
        }
        for pool in &pools {
            for inst in 0..10 * WIDTH {
                assert_eq!(pool.decided(inst), Some(&(100 + inst)));
            }
        }
    }
}
