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
//!    id), proposes it to the other members and adopts it itself, in
//!    place;
//! 3. participants adopt and acknowledge the proposal unless they have
//!    moved to a later round;
//! 4. on a majority of acks (its own counted) the coordinator decides and
//!    disseminates the decision with eager relay.
//!
//! A decision names its round, not its value: a coordinator proposes once
//! per round, so a member whose estimate was adopted from round `r`'s
//! proposal (timestamp `r + 1`) holds the value `Decide(r)` announces and
//! decides it on the spot. Any other member asks the sender, which has
//! decided and answers with the value; only that answer carries it. So in
//! a fault-free instance the value crosses each link once, in the
//! proposal. Wire sizes: `Start` 16 B, `Estimate` 24 B plus the value and
//! its 8-byte timestamp when it carries one, `Propose` 24 B plus the value,
//! `Ack` 24 B, `Decide` 24 B plus the value in an answer only.
//!
//! Suspicion is implemented by per-round timeouts: an undecided participant
//! whose round stalls moves on, which rotates the coordinator. Safety never
//! depends on the timeouts; liveness requires a majority of the group to
//! stay alive (the usual requirement). A member that asks for a decided
//! value is in a round too, so a lost question or answer ends in the same
//! rotation.
//!
//! A ballot is transient: once an instance decides, its round, estimates,
//! proposal and acks are of no further use, so the ballot returns to a free
//! list and only the decided value and its round stay — the answer to a
//! participant that starts, re-sends an estimate or asks late. A run no
//! member can replay keeps not even that ([`ConsensusPool::forget_decided`]).

use std::collections::{btree_map, hash_map, BTreeMap, HashMap};

use repl_sim::{Message, NodeId, SimDuration};

use crate::component::{Component, Outbox};
use crate::runset::RunSet;

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
    /// Participant → coordinator: current estimate for a round. Also how
    /// a member that cannot decide a `Decide` asks its decided sender.
    Estimate {
        /// Consensus instance.
        inst: u64,
        /// Round the estimate is for.
        round: u64,
        /// Last adopted `(value, adoption timestamp)`, if any.
        est: Option<(V, u64)>,
    },
    /// Coordinator → the other members: proposal for a round.
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
        /// Round whose proposal was decided.
        round: u64,
        /// The decided value, only in the answer to a member that asked:
        /// a decision or relay carries `None`.
        value: Option<V>,
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
            ConsMsg::Decide { value, .. } => 24 + value.as_ref().map_or(0, V::wire_size),
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
    /// Relay mask of the `Decide`s that arrived before this member could
    /// decide (a forgetful pool's, see [`Decided::heard`]).
    heard: u64,
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
            heard: 0,
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
        self.heard = 0;
    }

    /// Adopts round `round`'s proposal `value` unless this member has
    /// promised a later round. `Some(rearm)` if it adopted, where `rearm`
    /// says the round timer must be armed for `round`.
    fn adopt(&mut self, round: u64, value: V) -> Option<bool> {
        if round < self.round {
            return None;
        }
        let rearm = round > self.round || !self.entered;
        self.round = round;
        self.entered = true;
        self.est = Some((value, round + 1));
        Some(rearm)
    }
}

/// What a member keeps of a decided instance.
#[derive(Debug)]
struct Decided<V> {
    value: V,
    /// The round whose proposal was decided: the name a relay gives it.
    round: u64,
    /// The group positions whose `Decide` arrived (a forgetful pool's
    /// relay mask; 0 in a pool that keeps every value).
    heard: u64,
}

/// True if `inst` is one of the `forgotten` decided instances.
fn forgot(forgotten: &Option<RunSet<()>>, inst: u64) -> bool {
    forgotten.as_ref().is_some_and(|f| f.contains((), inst))
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
    /// Decided instances (ordered: ids jump after a catch-up).
    decided: BTreeMap<u64, Decided<V>>,
    /// Decided instances whose value went (`Some` once forgetting).
    forgotten: Option<RunSet<()>>,
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
            forgotten: None,
        }
    }

    /// From now on, in a run no member can replay, drops a value once every
    /// other member's `Decide` arrived (each has decided, so none can ask);
    /// the instance stays decided. Panics past 64 members (mask width).
    pub fn forget_decided(&mut self) {
        assert!(self.group.len() <= 64, "a forgetful pool's relay mask");
        self.forgotten.get_or_insert_with(RunSet::new);
    }

    /// Declares that no member will ever run instances `ids` (a caller
    /// whose instance ids jump); a forgetful pool files them among the
    /// forgotten, so that set stays one run.
    pub fn skip(&mut self, ids: std::ops::Range<u64>) {
        if let Some(forgotten) = &mut self.forgotten {
            for inst in ids {
                forgotten.insert((), inst);
            }
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

    /// The decided value of `inst`, if any and not forgotten.
    pub fn decided(&self, inst: u64) -> Option<&V> {
        self.decided.get(&inst).map(|d| &d.value)
    }

    /// The live ballot of `inst`, taken from the free list if this member
    /// has not heard of the instance yet; `None` once it is decided. The
    /// live map is asked first: most messages are about a running round.
    fn ballot(&mut self, inst: u64) -> Option<&mut Ballot<V>> {
        match self.live.entry(inst) {
            hash_map::Entry::Occupied(b) => Some(b.into_mut()),
            hash_map::Entry::Vacant(_) if self.decided.contains_key(&inst) => None,
            hash_map::Entry::Vacant(_) if forgot(&self.forgotten, inst) => None,
            hash_map::Entry::Vacant(slot) => Some(slot.insert(self.free.pop().unwrap_or_default())),
        }
    }

    /// Answers a late message about decided instance `inst` with the
    /// decision, unless forgotten (then the sender has decided too). The
    /// one `Decide` that carries its value.
    fn answer_decided(&self, to: NodeId, inst: u64, out: &mut Outbox<ConsMsg<V>, ConsEvent<V>>) {
        if let Some(d) = self.decided.get(&inst) {
            out.send(
                to,
                ConsMsg::Decide {
                    inst,
                    round: d.round,
                    value: Some(d.value.clone()),
                },
            );
        }
    }

    /// `from`'s bit in a relay mask: its group position in a forgetful
    /// pool, 0 for this member or in a pool that keeps every value.
    fn relay_bit(&self, from: NodeId) -> u64 {
        if self.forgotten.is_none() || from == self.me {
            return 0;
        }
        (self.group.iter().position(|&m| m == from)).map_or(0, |pos| 1 << pos)
    }

    /// Adds `heard` to decided instance `inst`'s relay mask; a forgetful
    /// pool drops the value once every other member's relay has arrived.
    fn relayed(&mut self, inst: u64, heard: u64) {
        let Some(forgotten) = &mut self.forgotten else {
            return;
        };
        let Some(d) = self.decided.get_mut(&inst) else {
            return;
        };
        d.heard |= heard;
        let others = self.group.iter().filter(|&&m| m != self.me).count();
        if d.heard.count_ones() as usize == others {
            self.decided.remove(&inst);
            forgotten.insert((), inst);
        }
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

    /// [`ConsensusPool::propose`] for consensus with deferred initial
    /// values (paper §3.5), where nobody holds a value until round 0's
    /// coordinator computes one: if that is this member and it has not
    /// proposed yet, it proposes `v` in round 0 at once — no earlier round
    /// exists, so any value is safe there — and skips the round trip that
    /// gathers estimates. Any other member proposes as usual.
    pub fn propose_deferred(
        &mut self,
        inst: u64,
        v: V,
        out: &mut Outbox<ConsMsg<V>, ConsEvent<V>>,
    ) {
        assert!(inst < MAX_INST, "consensus instance id too large");
        let leads = self.coord(0) == self.me;
        if (self.ballot(inst)).is_some_and(|b| leads && b.round == 0 && b.proposal.is_none()) {
            self.send_proposal(inst, 0, v, out);
        } else {
            self.propose(inst, v, out);
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
        self.send_proposal(inst, round, value, out);
    }

    /// Sends `value` to the other members as round `round`'s proposal for
    /// `inst`, adopts it here by the rule every receiver applies and
    /// counts this member's ack: a group of one decides at once.
    fn send_proposal(
        &mut self,
        inst: u64,
        round: u64,
        value: V,
        out: &mut Outbox<ConsMsg<V>, ConsEvent<V>>,
    ) {
        for &m in &self.group {
            if m != self.me {
                let value = value.clone();
                out.send(m, ConsMsg::Propose { inst, round, value });
            }
        }
        let (me, quorum, timeout) = (self.me, self.quorum(), self.config.round_timeout);
        let b = self.live.get_mut(&inst).expect("a live ballot");
        b.acks.clear();
        if let Some(rearm) = b.adopt(round, value.clone()) {
            if rearm {
                out.timer(timeout, Self::tag(inst, round));
            }
            b.acks.push(me);
        }
        if b.acks.len() >= quorum {
            self.decide(inst, round, value, out);
        } else {
            b.proposal = Some((round, value));
        }
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

    /// Records round `round`'s decision, recycles the ballot (keeping its
    /// relay mask) and relays the decision by its round.
    fn decide(
        &mut self,
        inst: u64,
        round: u64,
        value: V,
        out: &mut Outbox<ConsMsg<V>, ConsEvent<V>>,
    ) {
        let btree_map::Entry::Vacant(slot) = self.decided.entry(inst) else {
            return;
        };
        let mut heard = 0;
        if let Some(mut b) = self.live.remove(&inst) {
            heard = b.heard;
            b.reset();
            self.free.push(b);
        }
        let value = slot
            .insert(Decided {
                value,
                round,
                heard,
            })
            .value
            .clone();
        for &m in &self.group {
            if m != self.me {
                out.send(
                    m,
                    ConsMsg::Decide {
                        inst,
                        round,
                        value: None,
                    },
                );
            }
        }
        out.event(ConsEvent::Decided { inst, value });
        self.relayed(inst, 0);
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
                let Some(rearm) = b.adopt(round, value) else {
                    return; // promised a later round
                };
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
                    self.decide(inst, round, v, out);
                }
            }
            ConsMsg::Decide { inst, round, value } => {
                let (bit, timeout) = (self.relay_bit(from), self.config.round_timeout);
                let Some(b) = self.ballot(inst) else {
                    // Decided here (or forgotten: its sender has decided).
                    return self.relayed(inst, bit);
                };
                b.heard |= bit;
                // Round `round` had one proposal: an estimate adopted from
                // it is the decided value.
                let value = match (value, &b.est) {
                    (Some(v), _) => v,
                    (None, Some((v, ts))) if *ts == round + 1 => v.clone(),
                    (None, _) => {
                        // Ask the sender, which has decided and cannot
                        // have forgotten (it waits for this member's
                        // relay). A round timer covers a lost question or
                        // answer: an entered member's is armed already.
                        let (r, est) = (b.round, b.est.clone());
                        if !std::mem::replace(&mut b.entered, true) {
                            out.timer(timeout, Self::tag(inst, r));
                        }
                        return out.send(
                            from,
                            ConsMsg::Estimate {
                                inst,
                                round: r,
                                est,
                            },
                        );
                    }
                };
                self.decide(inst, round, value, out);
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
        settle_but(pools, from, out, |_, _, _| false);
    }

    /// [`settle`], withholding the messages `hold(src, to, msg)` picks;
    /// returns them.
    fn settle_but(
        pools: &mut [ConsensusPool<u64>],
        from: NodeId,
        out: &mut Out,
        mut hold: impl FnMut(NodeId, NodeId, &ConsMsg<u64>) -> bool,
    ) -> Vec<(NodeId, NodeId, ConsMsg<u64>)> {
        let (mut queue, mut held) = (std::collections::VecDeque::new(), Vec::new());
        let mut sender = from;
        loop {
            for action in out.drain() {
                if let Action::Send(to, msg) = action {
                    queue.push_back((sender, to, msg));
                }
            }
            let Some((src, to, msg)) = queue.pop_front() else {
                return held;
            };
            if hold(src, to, &msg) {
                held.push((src, to, msg));
                continue;
            }
            pools[to.raw() as usize].on_message(src, msg, out);
            sender = to;
        }
    }

    fn forgetful(n: u32) -> Vec<ConsensusPool<u64>> {
        let mut pools = pools(n);
        for pool in &mut pools {
            pool.forget_decided();
        }
        pools
    }

    #[test]
    fn a_forgetful_pool_drops_a_value_once_every_other_member_relayed_it() {
        let mut pools = forgetful(3);
        let mut out = Out::new();
        pools[0].propose(5, 42, &mut out);
        let (n0, n2) = (NodeId::new(0), NodeId::new(2));
        let relay = |src, to, m: &ConsMsg<u64>| {
            src == n2 && to == n0 && matches!(m, ConsMsg::Decide { .. })
        };
        let held = settle_but(&mut pools, n0, &mut out, relay);
        assert_eq!(held.len(), 1);
        // Node 0 still waits for node 2's relay; the others heard both.
        assert_eq!(pools[0].decided(5), Some(&42));
        assert_eq!((pools[1].decided(5), pools[2].decided(5)), (None, None));
        for (src, to, msg) in held {
            pools[to.raw() as usize].on_message(src, msg, &mut out);
        }
        assert!(out.drain().is_empty(), "the last relay was answered");
        for (i, pool) in pools.iter().enumerate() {
            assert_eq!(pool.decided(5), None, "node {i}");
            assert_eq!(
                (pool.live_ballots(), pool.decided.len()),
                (0, 0),
                "node {i}"
            );
        }
    }

    #[test]
    fn a_late_message_for_a_forgotten_instance_is_dropped() {
        // Its sender has decided, so nothing is sent, decided or opened
        // (a keeping pool answers with the decision, once every relay has
        // arrived too: `a_late_start_or_estimate_is_answered_with_the_decision`).
        let mut pools = forgetful(3);
        let mut out = Out::new();
        pools[0].propose(5, 42, &mut out);
        settle(&mut pools, NodeId::new(0), &mut out);
        for (i, pool) in pools.iter_mut().enumerate() {
            let late = [
                ConsMsg::Start { inst: 5 },
                ConsMsg::Estimate {
                    inst: 5,
                    round: 3,
                    est: Some((7, 1)),
                },
                ConsMsg::Propose {
                    inst: 5,
                    round: 4,
                    value: 7,
                },
                ConsMsg::Decide {
                    inst: 5,
                    round: 0,
                    value: Some(42),
                },
            ];
            for msg in late {
                pool.on_message(NodeId::new((i as u32 + 1) % 3), msg, &mut out);
                let actions = out.drain();
                assert!(actions.is_empty(), "node {i}: {actions:?}");
                assert_eq!(pool.live_ballots(), 0, "node {i}: a ballot re-opened");
            }
            assert_eq!(pool.decided(5), None, "node {i}");
        }
    }

    #[test]
    fn forgetful_pools_on_reordering_links_decide_each_instance_once_and_keep_nothing() {
        // Non-FIFO links with a jitter as long as a round let a member's
        // `Start`, `Estimate` or answered `Decide` trail its own relayed
        // decision: over these seeds some two hundred messages reach an
        // instance their receiver has forgotten.
        let net = repl_sim::NetworkConfig {
            fifo_links: false,
            ..repl_sim::NetworkConfig::lan().with_jitter(SimDuration::from_ticks(2_000))
        };
        for seed in 0..8 {
            let mut world: World<ConsMsg<u64>> =
                World::new(SimConfig::new(seed).with_network(net.clone()));
            let group: Vec<NodeId> = (0..5).map(NodeId::new).collect();
            for i in 0..5u32 {
                let mut pool = ConsensusPool::new(
                    group[i as usize],
                    group.to_vec(),
                    ConsensusConfig::default(),
                );
                pool.forget_decided();
                let actor = ComponentActor::new(pool).with_step(
                    SimDuration::from_ticks(10),
                    move |p, out| {
                        for inst in 0..20 {
                            p.propose(inst, 100 * inst + u64::from(i), out);
                        }
                    },
                );
                world.add_actor(Box::new(actor));
            }
            world.start();
            world.run_until(SimTime::from_ticks(500_000));
            let decisions = |n| {
                let host = world.actor_ref::<ComponentActor<ConsensusPool<u64>>>(n);
                let mut d: Vec<(u64, u64)> = (host.events.iter())
                    .map(|(_, ConsEvent::Decided { inst, value })| (*inst, *value))
                    .collect();
                d.sort_unstable();
                d
            };
            let first = decisions(group[0]);
            assert_eq!(
                first.iter().map(|d| d.0).collect::<Vec<_>>(),
                (0..20).collect::<Vec<_>>(),
                "seed {seed}: one decision per instance"
            );
            for &n in &group {
                assert_eq!(decisions(n), first, "seed {seed}: agreement at {n}");
                let pool = &world
                    .actor_ref::<ComponentActor<ConsensusPool<u64>>>(n)
                    .inner;
                assert_eq!(
                    (pool.live_ballots(), pool.decided.len()),
                    (0, 0),
                    "seed {seed}, {n}"
                );
            }
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
                    [Action::Send(to, ConsMsg::Decide { inst: 5, round: 0, value: Some(42) })] if to.raw() == 2
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

    /// True if `actions` raise instance 5's decision of 42.
    fn decides_42(actions: &[Action<ConsMsg<u64>, ConsEvent<u64>>]) -> bool {
        (actions.iter())
            .any(|a| matches!(a, Action::Event(ConsEvent::Decided { inst: 5, value: 42 })))
    }

    /// The sends among `actions`, as `(to, message)`.
    fn sends(actions: Vec<Action<ConsMsg<u64>, ConsEvent<u64>>>) -> Vec<(NodeId, ConsMsg<u64>)> {
        (actions.into_iter())
            .filter_map(|a| match a {
                Action::Send(to, msg) => Some((to, msg)),
                _ => None,
            })
            .collect()
    }

    /// Runs instance 5 from node 0 with every message to node 1 held:
    /// nodes 0 and 2 decide 42 in round 0. Returns the held messages.
    fn decided_without_node_1(
        pools: &mut [ConsensusPool<u64>],
    ) -> Vec<(NodeId, NodeId, ConsMsg<u64>)> {
        let mut out = Out::new();
        pools[0].propose(5, 42, &mut out);
        let n1 = NodeId::new(1);
        let held = settle_but(pools, NodeId::new(0), &mut out, |_, to, _| to == n1);
        assert_eq!(
            (pools[0].decided(5), pools[2].decided(5)),
            (Some(&42), Some(&42))
        );
        assert_eq!(pools[1].decided(5), None);
        held
    }

    #[test]
    fn a_member_that_adopted_the_round_decides_a_valueless_decide_without_asking() {
        let mut pools = pools(3);
        let held = decided_without_node_1(&mut pools);
        let mut out = Out::new();
        let (n0, n1) = (NodeId::new(0), NodeId::new(1));
        let propose = held
            .iter()
            .find(|(.., m)| matches!(m, ConsMsg::Propose { .. }));
        let (_, _, propose) = propose.expect("round 0's proposal reached node 1's link");
        pools[1].on_message(n0, propose.clone(), &mut out);
        assert!(matches!(
            sends(out.drain()).as_slice(),
            [(to, ConsMsg::Ack { inst: 5, round: 0 })] if *to == n0
        ));
        let decide = ConsMsg::Decide {
            inst: 5,
            round: 0,
            value: None,
        };
        pools[1].on_message(n0, decide, &mut out);
        let actions = out.drain();
        assert!(decides_42(&actions), "{actions:?}");
        // Nothing asks, nothing carries the value: only the relays.
        let sent = sends(actions);
        assert_eq!(sent.len(), 2, "{sent:?}");
        for (to, msg) in sent {
            assert_ne!(to, n1);
            assert!(
                matches!(
                    msg,
                    ConsMsg::Decide {
                        inst: 5,
                        round: 0,
                        value: None
                    }
                ),
                "{msg:?}"
            );
        }
        assert_eq!(pools[1].decided(5), Some(&42));
    }

    #[test]
    fn a_member_that_did_not_adopt_the_round_asks_the_sender_and_decides_its_answer() {
        let n0 = NodeId::new(0);
        let decide = ConsMsg::Decide {
            inst: 5,
            round: 0,
            value: None,
        };
        // Node 1's estimate: its own initial value (timestamp 0), another
        // round's proposal (timestamp 2), or none at all.
        let seeds: [fn(&mut ConsensusPool<u64>, &mut Out); 3] = [
            |p, out| p.propose(5, 7, out),
            |p, out| {
                let propose = ConsMsg::Propose {
                    inst: 5,
                    round: 1,
                    value: 9,
                };
                p.on_message(NodeId::new(1), propose, out);
            },
            |_, _| {},
        ];
        for (case, seed) in seeds.into_iter().enumerate() {
            let mut pools = pools(3);
            decided_without_node_1(&mut pools);
            let mut out = Out::new();
            seed(&mut pools[1], &mut out);
            let entered = !out.drain().is_empty();
            pools[1].on_message(n0, decide.clone(), &mut out);
            let actions = out.drain();
            assert!(
                !actions.iter().any(|a| matches!(a, Action::Event(_))),
                "case {case}: decided its own estimate: {actions:?}"
            );
            // A member that was in no round yet arms one for its question.
            let timers = (actions.iter())
                .filter(|a| matches!(a, Action::SetTimer(..)))
                .count();
            assert_eq!(timers, usize::from(!entered), "case {case}: {actions:?}");
            let ask = match sends(actions).as_slice() {
                [(to, ask @ ConsMsg::Estimate { inst: 5, .. })] if *to == n0 => ask.clone(),
                other => panic!("case {case}: expected one question to node 0: {other:?}"),
            };
            assert_eq!(pools[1].decided(5), None, "case {case}");
            pools[0].on_message(NodeId::new(1), ask, &mut out);
            let answer = match sends(out.drain()).as_slice() {
                [(to, answer)] if to.raw() == 1 => answer.clone(),
                other => panic!("case {case}: expected one answer: {other:?}"),
            };
            assert!(
                matches!(
                    answer,
                    ConsMsg::Decide {
                        inst: 5,
                        round: 0,
                        value: Some(42)
                    }
                ),
                "case {case}: {answer:?}"
            );
            pools[1].on_message(n0, answer, &mut out);
            let actions = out.drain();
            assert!(decides_42(&actions), "case {case}: {actions:?}");
            for (_, relay) in sends(actions) {
                assert!(
                    matches!(
                        relay,
                        ConsMsg::Decide {
                            inst: 5,
                            round: 0,
                            value: None
                        }
                    ),
                    "case {case}: a relay names the answer's round: {relay:?}"
                );
            }
        }
    }

    #[test]
    fn a_relay_that_arrives_before_the_value_still_counts_toward_forgetting() {
        let mut pools = forgetful(3);
        let held = decided_without_node_1(&mut pools);
        let mut out = Out::new();
        // Both value-less decisions reach node 1 first; it asks each sender.
        let mut asks = Vec::new();
        for (src, to, msg) in held {
            if matches!(msg, ConsMsg::Decide { .. }) {
                pools[to.raw() as usize].on_message(src, msg, &mut out);
                asks.extend(sends(out.drain()));
            }
        }
        assert_eq!(asks.len(), 2, "{asks:?}");
        assert!(asks
            .iter()
            .all(|(_, m)| matches!(m, ConsMsg::Estimate { .. })));
        // The first answer decides, and both early relays are on record:
        // node 1 keeps nothing, and its relays let the others forget.
        let (to, ask) = asks.swap_remove(0);
        pools[to.raw() as usize].on_message(NodeId::new(1), ask, &mut out);
        settle(&mut pools, to, &mut out);
        assert_eq!(pools[1].decided(5), None);
        for (i, pool) in pools.iter().enumerate() {
            assert_eq!(
                (pool.live_ballots(), pool.decided.len()),
                (0, 0),
                "node {i}"
            );
        }
        // The second question's answer comes to a forgotten instance.
        let (to, ask) = asks.pop().expect("two questions");
        pools[to.raw() as usize].on_message(NodeId::new(1), ask, &mut out);
        assert!(
            out.drain().is_empty(),
            "node {to} forgot and answers nothing"
        );
    }

    #[test]
    fn forgetful_pools_on_lossy_links_decide_each_instance_once_and_agree() {
        // Lost proposals, acks, decisions, relays, questions and answers
        // are all recovered by round rotation. A lost relay can leave a
        // value kept, so forgetting is not asserted here.
        let net = repl_sim::NetworkConfig::lan().with_drop_prob(0.05);
        for seed in 0..8 {
            let mut world: World<ConsMsg<u64>> =
                World::new(SimConfig::new(seed).with_network(net.clone()));
            let group: Vec<NodeId> = (0..5).map(NodeId::new).collect();
            for i in 0..5u32 {
                let mut pool = ConsensusPool::new(
                    group[i as usize],
                    group.to_vec(),
                    ConsensusConfig::default(),
                );
                pool.forget_decided();
                let actor = ComponentActor::new(pool).with_step(
                    SimDuration::from_ticks(10),
                    move |p, out| {
                        for inst in 0..20 {
                            p.propose(inst, 100 * inst + u64::from(i), out);
                        }
                    },
                );
                world.add_actor(Box::new(actor));
            }
            world.start();
            world.run_until(SimTime::from_ticks(2_000_000));
            let decisions = |n| {
                let host = world.actor_ref::<ComponentActor<ConsensusPool<u64>>>(n);
                let mut d: Vec<(u64, u64)> = (host.events.iter())
                    .map(|(_, ConsEvent::Decided { inst, value })| (*inst, *value))
                    .collect();
                d.sort_unstable();
                d
            };
            let first = decisions(group[0]);
            assert_eq!(
                first.iter().map(|d| d.0).collect::<Vec<_>>(),
                (0..20).collect::<Vec<_>>(),
                "seed {seed}: one decision per instance"
            );
            for &n in &group {
                assert_eq!(decisions(n), first, "seed {seed}: agreement at {n}");
            }
        }
    }

    /// Counts, by kind, what one fault-free instance at `n` sends over
    /// links and to self, and how many link messages carry the value.
    fn cost(n: u32, deferred: bool) -> (BTreeMap<&'static str, usize>, usize, Vec<&'static str>) {
        let mut pools = pools(n);
        let mut out = Out::new();
        if deferred {
            pools[0].propose_deferred(5, 42, &mut out);
        } else {
            pools[0].propose(5, 42, &mut out);
        }
        let (mut kinds, mut carried, mut to_self) = (BTreeMap::new(), 0, Vec::new());
        settle_but(&mut pools, NodeId::new(0), &mut out, |src, to, msg| {
            let (kind, carries) = match msg {
                ConsMsg::Start { .. } => ("Start", false),
                ConsMsg::Estimate { est, .. } => ("Estimate", est.is_some()),
                ConsMsg::Propose { .. } => ("Propose", true),
                ConsMsg::Ack { .. } => ("Ack", false),
                ConsMsg::Decide { value, .. } => ("Decide", value.is_some()),
            };
            *kinds.entry(kind).or_insert(0) += 1;
            if src == to {
                to_self.push(kind);
            } else {
                carried += usize::from(carries);
            }
            false
        });
        for (i, pool) in pools.iter().enumerate() {
            assert_eq!(pool.decided(5), Some(&42), "n = {n}, node {i}");
        }
        (kinds, carried, to_self)
    }

    #[test]
    fn a_fault_free_instance_sends_the_value_once_over_each_link() {
        for n in [3usize, 5] {
            // `propose`: a `Start` and an estimate from each member (the
            // coordinator's to itself), then what `propose_deferred` sends.
            let (kinds, carried, to_self) = cost(n as u32, false);
            let want = [
                ("Ack", n - 1),
                ("Decide", n * (n - 1)),
                ("Estimate", n),
                ("Propose", n - 1),
                ("Start", n - 1),
            ];
            assert_eq!(kinds, want.into_iter().collect(), "propose, n = {n}");
            assert_eq!(carried, n - 1, "propose, n = {n}");
            assert_eq!(to_self, ["Estimate"], "propose, n = {n}");
            // `propose_deferred`: the proposal to each other member, their
            // acks, and the decision relayed by every member to every other.
            let (kinds, carried, to_self) = cost(n as u32, true);
            let want = [("Ack", n - 1), ("Decide", n * (n - 1)), ("Propose", n - 1)];
            assert_eq!(kinds, want.into_iter().collect(), "deferred, n = {n}");
            assert_eq!(carried, n - 1, "deferred, n = {n}");
            assert!(to_self.is_empty(), "deferred, n = {n}: {to_self:?}");
        }
        // A group of one decides inside the call, sending nothing.
        let mut alone = pools(1);
        let mut out = Out::new();
        alone[0].propose_deferred(5, 42, &mut out);
        let actions = out.drain();
        assert!(
            actions.iter().all(|a| !matches!(a, Action::Send(..))),
            "{actions:?}"
        );
        assert!(decides_42(&actions));
    }
}
