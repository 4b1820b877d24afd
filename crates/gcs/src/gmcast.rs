//! Genuine Atomic Multicast: globally consistent ordering delivered
//! *only* to the groups a message touches.
//!
//! [`GenuineMulticast`] is the ordering primitive behind partial
//! replication's cross-shard path for the ABCAST techniques. Unlike a
//! global sequencer — which would funnel every group's traffic through
//! one total order and reintroduce the single-group bottleneck sharding
//! removes — it is *genuine*: only the destination groups of a message
//! exchange ordering traffic for it. Shard-local messages never leave
//! their own group.
//!
//! The protocol is the classic timestamp agreement of Skeen (as used by
//! fault-tolerant partial replication protocols, cf. Sutra & Shapiro):
//!
//! 1. The initiator submits the message to the *orderer* (first member)
//!    of every destination group.
//! 2. Each destination orderer assigns a tentative local timestamp from
//!    its logical clock and reports it to the *coordinator* — the
//!    orderer of the initiator's own group.
//! 3. Once the coordinator holds every destination's proposal, the final
//!    timestamp is their maximum; it is announced to all destination
//!    orderers.
//! 4. An orderer delivers a finalized message once its `(ts, id)` is
//!    smaller than that of every other message still pending locally —
//!    tentative timestamps only grow when finalized, so a pending
//!    tentative entry is a sound lower bound. On delivery the orderer
//!    assigns the next dense *group-local* sequence number and
//!    disseminates the message to its group, where members deliver in
//!    `gseq` order exactly like [`SequencerAbcast`](crate::abcast).
//!
//! Messages destined to a single group (the common, shard-local case)
//! skip steps 2–3: the sole orderer finalizes from its own clock
//! immediately, so the local fast path costs the same two hops as the
//! fixed sequencer.
//!
//! Overlapping destination sets deliver in final-timestamp order at
//! every common orderer, ties broken by [`MsgId`], which makes the union
//! of per-group orders acyclic — the property the sharded 1SR argument
//! leans on. The primitive assumes a loss-free network and no orderer
//! crashes: the sharded runner forbids fault plans whenever cross-shard
//! traffic is enabled, so no retransmission or takeover machinery is
//! carried here. It sits behind the same [`TotalOrder`] interface and
//! [`AbMsg`] wire enum as the single-group broadcasts (its steps 1–3 are
//! `Multicast`, `Propose` and `Final`, its dissemination the shared
//! `Ordered`), and answers the interface's fault path with no-ops.

use std::collections::{BTreeMap, HashSet};

use repl_sim::{GroupSet, Message, NodeId};

use crate::abcast::{AbDeliver, BatchConfig};
use crate::component::Component;
use crate::ordered::{AbMsg, AbOutbox, TotalOrder};
use crate::receiver::{MsgId, OrderedReceiver};

/// Orderer-side state of one in-flight multicast.
#[derive(Debug)]
struct Entry<P> {
    ts: u64,
    is_final: bool,
    payload: P,
}

/// Coordinator-side proposal collection for one multicast.
#[derive(Debug, Default)]
struct Collect {
    got: BTreeMap<u32, u64>,
    need: usize,
}

/// Genuine Atomic Multicast over static groups (see module docs).
///
/// # Examples
///
/// ```
/// use repl_gcs::{GenuineMulticast, Outbox};
/// use repl_sim::NodeId;
///
/// let groups: Vec<Vec<NodeId>> = vec![
///     (0..3).map(NodeId::new).collect(),
///     (3..6).map(NodeId::new).collect(),
/// ];
/// let mut gm: GenuineMulticast<u32> = GenuineMulticast::new(NodeId::new(0), groups, 0);
/// let mut out = Outbox::new();
/// gm.multicast(9, &[0, 1], &mut out); // ordered at both groups
/// gm.multicast(7, &[0], &mut out); // shard-local fast path
/// ```
#[derive(Debug)]
pub struct GenuineMulticast<P> {
    me: NodeId,
    groups: Vec<Vec<NodeId>>,
    // Node index → group id (`u32::MAX`: in no group).
    gid_of_node: Vec<u32>,
    my_gid: u32,
    next_local: u64,
    // Skeen clock of this group's orderer role.
    clock: u64,
    // Orderer role: in-flight entries, scanned in MsgId order.
    entries: BTreeMap<MsgId, Entry<P>>,
    // Coordinator role: proposals collected per multicast; `early`
    // buffers proposals that outran their own Submit.
    collecting: BTreeMap<MsgId, Collect>,
    early: BTreeMap<MsgId, Vec<(u32, u64)>>,
    // Orderer role: next group-local sequence number to assign.
    next_gseq: u64,
    // Own multicasts not yet confirmed delivered locally.
    pending: HashSet<MsgId>,
    recv: OrderedReceiver<P>,
}

impl<P: Message> GenuineMulticast<P> {
    /// Creates an endpoint for `me`, a member of `groups[my_gid]`; every
    /// group's orderer is its first member.
    ///
    /// # Panics
    ///
    /// Panics if the groups are empty, `my_gid` is out of range, or `me`
    /// is not a member of its own group.
    pub fn new(me: NodeId, groups: Vec<Vec<NodeId>>, my_gid: u32) -> Self {
        assert!(
            (my_gid as usize) < groups.len(),
            "group id {my_gid} out of range"
        );
        assert!(groups.iter().all(|g| !g.is_empty()), "empty group");
        assert!(
            groups[my_gid as usize].contains(&me),
            "{me} not a member of group {my_gid}"
        );
        let nodes = groups.iter().flatten().map(|n| n.index() + 1).max();
        let mut gid_of_node = vec![u32::MAX; nodes.unwrap_or(0)];
        // In reverse, so a node listed twice keeps its first group.
        for (gid, group) in groups.iter().enumerate().rev() {
            for n in group {
                gid_of_node[n.index()] = gid as u32;
            }
        }
        GenuineMulticast {
            me,
            groups,
            gid_of_node,
            my_gid,
            next_local: 0,
            clock: 0,
            entries: BTreeMap::new(),
            collecting: BTreeMap::new(),
            early: BTreeMap::new(),
            next_gseq: 0,
            pending: HashSet::new(),
            recv: OrderedReceiver::new(),
        }
    }

    /// The orderer (first member) of group `g`.
    fn orderer_of(&self, g: u32) -> NodeId {
        self.groups[g as usize][0]
    }

    /// Multicasts `payload` to the destination groups; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `dests` is empty, unsorted, repeats a group, or does
    /// not include the initiator's own group (the coordinator — the
    /// local group's orderer — must see the destination set).
    pub fn multicast(&mut self, payload: P, dests: &[u32], out: &mut AbOutbox<P>) -> MsgId {
        assert!(!dests.is_empty(), "multicast needs a destination");
        assert!(
            dests.windows(2).all(|w| w[0] < w[1]),
            "destinations must be ascending and distinct"
        );
        assert!(
            dests.contains(&self.my_gid),
            "the initiator's group must be a destination"
        );
        let id = MsgId::new(self.me, self.next_local);
        self.next_local += 1;
        self.pending.insert(id);
        let set: GroupSet = dests.iter().copied().collect();
        for &g in dests {
            let orderer = self.orderer_of(g);
            if orderer == self.me {
                self.on_submit(id, payload.clone(), dests.len(), out);
            } else {
                out.send(
                    orderer,
                    AbMsg::Multicast {
                        id,
                        payload: payload.clone(),
                        dests: set.clone(),
                    },
                );
            }
        }
        id
    }

    /// Broadcasts `payload` to the local group only (the shard-local
    /// fast path); returns its id.
    pub fn broadcast(&mut self, payload: P, out: &mut AbOutbox<P>) -> MsgId {
        let gid = self.my_gid;
        self.multicast(payload, &[gid], out)
    }

    /// The group of `node` (every node belongs to exactly one group).
    fn gid_of(&self, node: NodeId) -> u32 {
        match self.gid_of_node.get(node.index()) {
            Some(&gid) if gid != u32::MAX => gid,
            _ => panic!("{node} is in no group"),
        }
    }

    /// Orderer role: a submission for a message my group and `dests - 1`
    /// others must order.
    fn on_submit(&mut self, id: MsgId, payload: P, dests: usize, out: &mut AbOutbox<P>) {
        if self.entries.contains_key(&id) || self.recv.has_delivered(id) {
            return;
        }
        self.clock += 1;
        let proposed = self.clock;
        if dests == 1 {
            // Sole destination: the local proposal *is* the maximum.
            self.entries.insert(
                id,
                Entry {
                    ts: proposed,
                    is_final: true,
                    payload,
                },
            );
            self.try_deliver(out);
            return;
        }
        self.entries.insert(
            id,
            Entry {
                ts: proposed,
                is_final: false,
                payload,
            },
        );
        let coord_gid = self.gid_of(id.origin);
        if coord_gid == self.my_gid {
            // I am the coordinator: open the collection with my own
            // proposal, then fold in any that arrived early.
            let collect = self.collecting.entry(id).or_default();
            collect.need = dests;
            collect.got.insert(self.my_gid, proposed);
            if let Some(early) = self.early.remove(&id) {
                for (gid, ts) in early {
                    self.collecting.entry(id).or_default().got.insert(gid, ts);
                }
            }
            self.maybe_finalize(id, out);
        } else {
            out.send(
                self.orderer_of(coord_gid),
                AbMsg::Propose {
                    id,
                    ts: proposed,
                    gid: self.my_gid,
                },
            );
        }
    }

    /// Coordinator role: a destination orderer's tentative timestamp.
    fn on_propose(&mut self, id: MsgId, ts: u64, gid: u32, out: &mut AbOutbox<P>) {
        match self.collecting.get_mut(&id) {
            Some(collect) => {
                collect.got.insert(gid, ts);
                self.maybe_finalize(id, out);
            }
            // The proposal outran the initiator's own Submit (a late
            // duplicate is ignored).
            None if !self.recv.has_delivered(id) && !self.entries.contains_key(&id) => {
                self.early.entry(id).or_default().push((gid, ts));
            }
            None => {}
        }
    }

    /// Coordinator role: all proposals in → announce the maximum.
    fn maybe_finalize(&mut self, id: MsgId, out: &mut AbOutbox<P>) {
        let done = match self.collecting.get(&id) {
            Some(c) => c.need > 0 && c.got.len() >= c.need,
            None => false,
        };
        if !done {
            return;
        }
        let collect = self.collecting.remove(&id).expect("checked above");
        let ts = collect.got.values().copied().max().expect("nonempty");
        // Announce to every destination orderer; `got`'s keys are exactly
        // the destination groups (BTreeMap — deterministic order).
        for &gid in collect.got.keys() {
            let orderer = self.orderer_of(gid);
            if orderer == self.me {
                self.on_final(id, ts, out);
            } else {
                out.send(orderer, AbMsg::Final { id, ts });
            }
        }
    }

    /// Orderer role: the agreed final timestamp for `id`.
    fn on_final(&mut self, id: MsgId, ts: u64, out: &mut AbOutbox<P>) {
        self.clock = self.clock.max(ts);
        if let Some(e) = self.entries.get_mut(&id) {
            e.ts = ts;
            e.is_final = true;
            self.try_deliver(out);
        }
    }

    /// Orderer role: deliver every finalized entry whose `(ts, id)` is
    /// below all other pending entries', in timestamp order.
    fn try_deliver(&mut self, out: &mut AbOutbox<P>) {
        loop {
            let min = self
                .entries
                .iter()
                .min_by_key(|(id, e)| (e.ts, **id))
                .map(|(id, e)| (*id, e.is_final));
            let Some((id, true)) = min else { break };
            let e = self.entries.remove(&id).expect("min entry present");
            let gseq = self.next_gseq;
            self.next_gseq += 1;
            for &m in &self.groups[self.my_gid as usize] {
                if m != self.me {
                    out.send(
                        m,
                        AbMsg::Ordered {
                            gseq,
                            id,
                            payload: e.payload.clone(),
                        },
                    );
                }
            }
            self.accept(gseq, id, e.payload, out);
        }
    }

    /// Receiver role: deliver in dense gseq order, deduplicating ids.
    fn accept(&mut self, gseq: u64, id: MsgId, payload: P, out: &mut AbOutbox<P>) {
        self.recv.accept(gseq, id, payload, |d| {
            self.pending.remove(&d.id);
            out.event(d);
        });
    }
}

impl<P: Message> Component for GenuineMulticast<P> {
    type Msg = AbMsg<P>;
    type Event = AbDeliver<P>;

    fn on_message(&mut self, _from: NodeId, msg: AbMsg<P>, out: &mut AbOutbox<P>) {
        match msg {
            AbMsg::Multicast { id, payload, dests } => {
                self.on_submit(id, payload, dests.len(), out)
            }
            AbMsg::Propose { id, ts, gid } => self.on_propose(id, ts, gid, out),
            AbMsg::Final { id, ts } => self.on_final(id, ts, out),
            AbMsg::Ordered { gseq, id, payload } => self.accept(gseq, id, payload, out),
            _ => {}
        }
    }
}

/// Sharded runs refuse fault and membership plans, so the fault path of
/// the interface — rewind, skip, rejoin, replay log, handoff — is a no-op
/// here that no run reaches, and the group never changes.
impl<P: Message> TotalOrder<P> for GenuineMulticast<P> {
    fn broadcast(&mut self, payload: P, out: &mut AbOutbox<P>) -> MsgId {
        GenuineMulticast::broadcast(self, payload, out)
    }

    fn multicast(&mut self, payload: P, dests: &[u32], out: &mut AbOutbox<P>) -> MsgId {
        GenuineMulticast::multicast(self, payload, dests, out)
    }

    /// The next group-local gseq the receiver delivers.
    fn position(&self) -> u64 {
        self.recv.position()
    }

    fn delivered_gseq(&self) -> u64 {
        self.recv.position()
    }

    fn rewind_to(&mut self, _pos: u64) {}

    fn skip_to(&mut self, _pos: u64, _gseq: u64) {}

    fn rejoin(&mut self, _out: &mut AbOutbox<P>) {}

    fn take_rejoin_done(&mut self) -> Option<u64> {
        None
    }

    /// The local group.
    fn group(&self) -> &[NodeId] {
        &self.groups[self.my_gid as usize]
    }

    fn set_group(&mut self, _group: Vec<NodeId>) {
        panic!("sharded groups are static")
    }

    /// Own multicasts not yet delivered locally.
    fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Genuine multicast does not batch.
    fn set_batching(&mut self, _batch: BatchConfig) {}

    /// Genuine multicast keeps no replay log.
    fn forget_replay(&mut self) {}

    fn is_orderer(&self) -> bool {
        self.orderer_of(self.my_gid) == self.me
    }

    fn handoff(&mut self, _to: NodeId, _out: &mut AbOutbox<P>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ComponentActor;
    use repl_sim::{SimConfig, SimDuration, SimTime, World};

    type Host = ComponentActor<GenuineMulticast<u32>>;

    fn two_groups() -> Vec<Vec<NodeId>> {
        vec![
            (0..3).map(NodeId::new).collect(),
            (3..6).map(NodeId::new).collect(),
        ]
    }

    fn deliveries(world: &World<AbMsg<u32>>, n: NodeId) -> Vec<(u64, u32)> {
        world
            .actor_ref::<Host>(n)
            .events
            .iter()
            .map(|(_, d)| (d.gseq, d.payload))
            .collect()
    }

    fn build(
        world: &mut World<AbMsg<u32>>,
        groups: &[Vec<NodeId>],
        steps: &[(NodeId, u64, u32, Vec<u32>)],
    ) {
        for (gid, group) in groups.iter().enumerate() {
            for &n in group {
                let mut actor = ComponentActor::new(GenuineMulticast::<u32>::new(
                    n,
                    groups.to_vec(),
                    gid as u32,
                ));
                for &(at, when, value, ref dests) in steps {
                    if at == n {
                        let dests = dests.clone();
                        actor = actor.with_step(SimDuration::from_ticks(when), move |gm, out| {
                            gm.multicast(value, &dests, out);
                        });
                    }
                }
                world.add_actor(Box::new(actor));
            }
        }
    }

    #[test]
    fn local_multicasts_order_independently_per_group() {
        let mut world: World<AbMsg<u32>> = World::new(SimConfig::new(21));
        let groups = two_groups();
        let steps = vec![
            (NodeId::new(1), 10, 100, vec![0]),
            (NodeId::new(2), 12, 101, vec![0]),
            (NodeId::new(4), 10, 200, vec![1]),
            (NodeId::new(5), 12, 201, vec![1]),
        ];
        build(&mut world, &groups, &steps);
        world.start();
        world.run_until(SimTime::from_ticks(100_000));
        for (g, group) in groups.iter().enumerate() {
            let reference = deliveries(&world, group[0]);
            assert_eq!(reference.len(), 2, "group {g} missing deliveries");
            assert_eq!(
                reference.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
                vec![0, 1],
                "group {g} gseq not dense from 0"
            );
            for &n in &group[1..] {
                assert_eq!(deliveries(&world, n), reference, "order differs at {n}");
            }
        }
    }

    #[test]
    fn cross_multicast_delivered_to_all_touched_groups() {
        let mut world: World<AbMsg<u32>> = World::new(SimConfig::new(22));
        let groups = two_groups();
        let steps = vec![(NodeId::new(1), 10, 77, vec![0, 1])];
        build(&mut world, &groups, &steps);
        world.start();
        world.run_until(SimTime::from_ticks(100_000));
        for g in &groups {
            for &n in g {
                assert_eq!(deliveries(&world, n), vec![(0, 77)], "missing at {n}");
            }
        }
    }

    #[test]
    fn overlapping_multicasts_agree_on_relative_order() {
        // Two cross-group messages from different initiators plus local
        // traffic on both sides: every member of a group sees its group's
        // order, and the two cross messages appear in the same relative
        // order in both groups.
        for seed in [1u64, 7, 23, 99, 1234] {
            let mut world: World<AbMsg<u32>> = World::new(SimConfig::new(seed));
            let groups = two_groups();
            let steps = vec![
                (NodeId::new(0), 10, 900, vec![0, 1]),
                (NodeId::new(4), 10, 901, vec![0, 1]),
                (NodeId::new(2), 11, 100, vec![0]),
                (NodeId::new(5), 11, 200, vec![1]),
            ];
            build(&mut world, &groups, &steps);
            world.start();
            world.run_until(SimTime::from_ticks(100_000));
            let mut cross_orders = Vec::new();
            for (g, group) in groups.iter().enumerate() {
                let reference = deliveries(&world, group[0]);
                assert_eq!(
                    reference.len(),
                    3,
                    "group {g} missing deliveries (seed {seed})"
                );
                for &n in &group[1..] {
                    assert_eq!(deliveries(&world, n), reference, "order differs at {n}");
                }
                cross_orders.push(
                    reference
                        .iter()
                        .map(|&(_, v)| v)
                        .filter(|&v| v >= 900)
                        .collect::<Vec<_>>(),
                );
            }
            assert_eq!(
                cross_orders[0], cross_orders[1],
                "cross-group relative order diverged (seed {seed})"
            );
        }
    }

    #[test]
    fn many_seeds_many_messages_stay_consistent() {
        // A heavier interleaving: three groups, cross messages touching
        // each pair, local noise everywhere. The pairwise relative order
        // of common messages must agree between any two groups.
        for seed in [3u64, 17, 41] {
            let mut world: World<AbMsg<u32>> = World::new(SimConfig::new(seed));
            let groups: Vec<Vec<NodeId>> = vec![
                (0..2).map(NodeId::new).collect(),
                (2..4).map(NodeId::new).collect(),
                (4..6).map(NodeId::new).collect(),
            ];
            let steps = vec![
                (NodeId::new(0), 10, 1001, vec![0, 1]),
                (NodeId::new(2), 10, 1002, vec![0, 1]),
                (NodeId::new(3), 12, 1003, vec![1, 2]),
                (NodeId::new(4), 12, 1004, vec![1, 2]),
                (NodeId::new(0), 9, 1005, vec![0, 2]),
                (NodeId::new(5), 13, 1006, vec![0, 2]),
                (NodeId::new(1), 11, 101, vec![0]),
                (NodeId::new(3), 11, 201, vec![1]),
                (NodeId::new(5), 11, 301, vec![2]),
            ];
            build(&mut world, &groups, &steps);
            world.start();
            world.run_until(SimTime::from_ticks(200_000));
            let orders: Vec<Vec<u32>> = groups
                .iter()
                .map(|g| deliveries(&world, g[0]).iter().map(|&(_, v)| v).collect())
                .collect();
            for (g, group) in groups.iter().enumerate() {
                let reference = deliveries(&world, group[0]);
                for &n in &group[1..] {
                    assert_eq!(deliveries(&world, n), reference, "order differs at {n}");
                }
                // Each group delivered exactly its own traffic.
                assert_eq!(reference.len(), 5, "group {g} wrong count: {reference:?}");
            }
            for a in 0..3 {
                for b in (a + 1)..3 {
                    let common: Vec<u32> = orders[a]
                        .iter()
                        .copied()
                        .filter(|v| orders[b].contains(v))
                        .collect();
                    let other: Vec<u32> = orders[b]
                        .iter()
                        .copied()
                        .filter(|v| orders[a].contains(v))
                        .collect();
                    assert_eq!(
                        common, other,
                        "groups {a} and {b} disagree (seed {seed}): {orders:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn initiator_pending_drains() {
        let mut world: World<AbMsg<u32>> = World::new(SimConfig::new(31));
        let groups = two_groups();
        let steps = vec![(NodeId::new(1), 10, 55, vec![0, 1])];
        build(&mut world, &groups, &steps);
        world.start();
        world.run_until(SimTime::from_ticks(100_000));
        assert_eq!(
            world.actor_ref::<Host>(NodeId::new(1)).inner.pending(),
            0,
            "initiator never confirmed"
        );
    }
}
