//! Reliable broadcast: if any group member delivers a message, every
//! correct member eventually delivers it.
//!
//! The implementation is the classic eager-relay algorithm: on first
//! receipt, a process forwards the message to the whole group before
//! delivering. Over the simulator's reliable links the relay only matters
//! when senders crash mid-broadcast or when message loss is configured;
//! [`RelayPolicy::None`] turns it off for cheap best-effort dissemination
//! in failure-free runs.

use repl_sim::{Message, NodeId};

use crate::component::{Component, Outbox};
use crate::runset::RunSet;

/// Globally unique message identifier: origin plus per-origin sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId {
    /// The broadcasting node.
    pub origin: NodeId,
    /// Sequence number local to the origin, starting at 0.
    pub seq: u64,
}

impl MsgId {
    /// Creates a message id.
    pub fn new(origin: NodeId, seq: u64) -> Self {
        MsgId { origin, seq }
    }
}

/// Whether receivers re-forward messages on first receipt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RelayPolicy {
    /// Forward on first receipt (tolerates sender crash mid-broadcast).
    #[default]
    Eager,
    /// Do not forward; reliability rests on the links alone.
    None,
}

/// Wire message of [`ReliableBcast`].
#[derive(Debug, Clone)]
pub enum RbMsg<P> {
    /// Payload dissemination.
    Data {
        /// Unique id of the broadcast.
        id: MsgId,
        /// Application payload.
        payload: P,
    },
}

impl<P: Message> Message for RbMsg<P> {
    fn wire_size(&self) -> usize {
        match self {
            RbMsg::Data { payload, .. } => 16 + payload.wire_size(),
        }
    }
}

/// A delivery event: the payload and its id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RbDeliver<P> {
    /// Unique id of the broadcast.
    pub id: MsgId,
    /// Application payload.
    pub payload: P,
}

/// Reliable broadcast within a fixed group.
///
/// The local process delivers its own broadcasts immediately (an event is
/// queued before the sends), so self-delivery never depends on the network.
///
/// # Examples
///
/// ```
/// use repl_gcs::{ReliableBcast, RelayPolicy, Outbox};
/// use repl_sim::NodeId;
///
/// let group = vec![NodeId::new(0), NodeId::new(1)];
/// let mut rb = ReliableBcast::new(NodeId::new(0), group, RelayPolicy::Eager);
/// let mut out = Outbox::new();
/// rb.broadcast("hello", &mut out);
/// assert_eq!(out.len(), 2); // one local delivery event + one send
/// ```
#[derive(Debug)]
pub struct ReliableBcast<P> {
    me: NodeId,
    group: Vec<NodeId>,
    policy: RelayPolicy,
    next_seq: u64,
    seen: RunSet<NodeId>,
    _marker: std::marker::PhantomData<P>,
}

impl<P: Clone + std::fmt::Debug + 'static> ReliableBcast<P> {
    /// Creates a broadcast endpoint for `me` within `group`.
    ///
    /// `me` does not have to be a member of `group`: non-members may
    /// broadcast *into* the group but never deliver.
    pub fn new(me: NodeId, group: Vec<NodeId>, policy: RelayPolicy) -> Self {
        ReliableBcast {
            me,
            group,
            policy,
            next_seq: 0,
            seen: RunSet::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// The group members.
    pub fn group(&self) -> &[NodeId] {
        &self.group
    }

    /// True if the local process belongs to the group.
    pub fn is_member(&self) -> bool {
        self.group.contains(&self.me)
    }

    /// Broadcasts `payload` to the group. Returns the assigned id.
    pub fn broadcast(&mut self, payload: P, out: &mut Outbox<RbMsg<P>, RbDeliver<P>>) -> MsgId {
        let id = MsgId::new(self.me, self.next_seq);
        self.next_seq += 1;
        self.seen.insert(id.origin, id.seq);
        if self.is_member() {
            out.event(RbDeliver {
                id,
                payload: payload.clone(),
            });
        }
        for &m in &self.group {
            if m != self.me {
                out.send(
                    m,
                    RbMsg::Data {
                        id,
                        payload: payload.clone(),
                    },
                );
            }
        }
        id
    }
}

impl<P: Clone + std::fmt::Debug + 'static> Component for ReliableBcast<P> {
    type Msg = RbMsg<P>;
    type Event = RbDeliver<P>;

    fn on_message(
        &mut self,
        from: NodeId,
        msg: RbMsg<P>,
        out: &mut Outbox<RbMsg<P>, RbDeliver<P>>,
    ) {
        let RbMsg::Data { id, payload } = msg;
        if !self.seen.insert(id.origin, id.seq) {
            return;
        }
        if self.policy == RelayPolicy::Eager {
            for &m in &self.group {
                if m != self.me && m != from && m != id.origin {
                    out.send(
                        m,
                        RbMsg::Data {
                            id,
                            payload: payload.clone(),
                        },
                    );
                }
            }
        }
        out.event(RbDeliver { id, payload });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ComponentActor;
    use repl_sim::{SimConfig, SimDuration, SimTime, World};

    type Rb = ReliableBcast<u32>;

    fn group(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    fn build(n: u32, policy: RelayPolicy, seed: u64) -> (World<RbMsg<u32>>, Vec<NodeId>) {
        let mut world = World::new(SimConfig::new(seed));
        let g = group(n);
        for i in 0..n {
            let actor = ComponentActor::new(Rb::new(NodeId::new(i), g.clone(), policy));
            world.add_actor(Box::new(actor));
        }
        (world, g)
    }

    fn delivered(world: &World<RbMsg<u32>>, node: NodeId) -> Vec<u32> {
        world
            .actor_ref::<ComponentActor<Rb>>(node)
            .events
            .iter()
            .map(|(_, d)| d.payload)
            .collect()
    }

    #[test]
    fn everyone_delivers_exactly_once() {
        let (mut world, g) = build(4, RelayPolicy::Eager, 1);
        let broadcaster = world.actor_mut::<ComponentActor<Rb>>(g[0]);
        *broadcaster = ComponentActor::new(Rb::new(g[0], g.clone(), RelayPolicy::Eager)).with_step(
            SimDuration::from_ticks(10),
            |rb, out| {
                rb.broadcast(7, out);
            },
        );
        world.start();
        world.run_to_quiescence(SimTime::from_ticks(100_000));
        for &n in &g {
            assert_eq!(delivered(&world, n), vec![7], "node {n}");
        }
    }

    #[test]
    fn sender_crash_after_partial_send_still_delivers_everywhere_with_eager_relay() {
        // Node 0 broadcasts then crashes immediately; with eager relay the
        // first receiver re-forwards, so every surviving node delivers.
        let (mut world, g) = build(5, RelayPolicy::Eager, 3);
        let broadcaster = world.actor_mut::<ComponentActor<Rb>>(g[0]);
        *broadcaster = ComponentActor::new(Rb::new(g[0], g.clone(), RelayPolicy::Eager)).with_step(
            SimDuration::from_ticks(10),
            |rb, out| {
                rb.broadcast(9, out);
            },
        );
        world.start();
        // All copies of the initial send leave at t=10; they are in flight
        // when the sender dies, so this exercises relay among receivers.
        world.schedule_crash(SimTime::from_ticks(11), g[0]);
        world.run_to_quiescence(SimTime::from_ticks(100_000));
        for &n in &g[1..] {
            assert_eq!(delivered(&world, n), vec![9], "node {n}");
        }
    }

    #[test]
    fn relay_none_sends_exactly_group_minus_one_messages() {
        let (mut world, g) = build(4, RelayPolicy::None, 5);
        let broadcaster = world.actor_mut::<ComponentActor<Rb>>(g[0]);
        *broadcaster = ComponentActor::new(Rb::new(g[0], g.clone(), RelayPolicy::None)).with_step(
            SimDuration::from_ticks(10),
            |rb, out| {
                rb.broadcast(1, out);
            },
        );
        world.start();
        world.run_to_quiescence(SimTime::from_ticks(100_000));
        assert_eq!(world.metrics().messages_sent, 3);
        for &n in &g {
            assert_eq!(delivered(&world, n).len(), 1);
        }
    }

    #[test]
    fn non_member_can_broadcast_into_group_but_does_not_deliver() {
        let mut world: World<RbMsg<u32>> = World::new(SimConfig::new(2));
        let g = group(3);
        for i in 0..3 {
            world.add_actor(Box::new(ComponentActor::new(Rb::new(
                NodeId::new(i),
                g.clone(),
                RelayPolicy::None,
            ))));
        }
        let outsider = NodeId::new(3);
        let actor = ComponentActor::new(Rb::new(outsider, g.clone(), RelayPolicy::None)).with_step(
            SimDuration::from_ticks(5),
            |rb, out| {
                assert!(!rb.is_member());
                rb.broadcast(42, out);
            },
        );
        world.add_actor(Box::new(actor));
        world.start();
        world.run_to_quiescence(SimTime::from_ticks(100_000));
        for &n in &g {
            assert_eq!(delivered(&world, n), vec![42]);
        }
        assert!(delivered(&world, outsider).is_empty());
    }

    #[test]
    fn duplicate_data_is_suppressed() {
        let g = group(2);
        let mut rb = Rb::new(g[1], g.clone(), RelayPolicy::Eager);
        let mut out = Outbox::new();
        let id = MsgId::new(g[0], 0);
        rb.on_message(g[0], RbMsg::Data { id, payload: 5 }, &mut out);
        let first = out.drain();
        assert_eq!(first.len(), 1); // delivery only (no third member to relay to)
        rb.on_message(g[0], RbMsg::Data { id, payload: 5 }, &mut out);
        assert!(out.is_empty(), "duplicate must be silent");
    }

    #[test]
    fn ids_are_monotone_per_origin() {
        let g = group(2);
        let mut rb = Rb::new(g[0], g.clone(), RelayPolicy::None);
        let mut out = Outbox::new();
        let a = rb.broadcast(1, &mut out);
        let b = rb.broadcast(2, &mut out);
        assert_eq!(a, MsgId::new(g[0], 0));
        assert_eq!(b, MsgId::new(g[0], 1));
        assert!(a < b);
    }
}
