//! FIFO broadcast: reliable broadcast plus per-sender delivery order.
//!
//! If a process broadcasts `m` before `m'`, no member delivers `m'` before
//! `m`. This is the ordering guarantee the paper's passive replication
//! assumes between primary and backups (Section 3.3).

use std::collections::{BTreeMap, HashMap};

use repl_sim::NodeId;

use crate::component::{Component, Outbox};
use crate::rbcast::{MsgId, RbDeliver, RbMsg, RelayPolicy, ReliableBcast};

/// FIFO broadcast within a fixed group.
///
/// Wraps [`ReliableBcast`] and holds back out-of-order messages per origin.
///
/// # Examples
///
/// ```
/// use repl_gcs::{FifoBcast, RelayPolicy, Outbox};
/// use repl_sim::NodeId;
///
/// let group = vec![NodeId::new(0), NodeId::new(1)];
/// let mut fifo: FifoBcast<u32> = FifoBcast::new(NodeId::new(0), group, RelayPolicy::None);
/// let mut out = Outbox::new();
/// fifo.broadcast(1, &mut out);
/// ```
#[derive(Debug)]
pub struct FifoBcast<P> {
    rb: ReliableBcast<P>,
    // What `rb` queued while handling one input, before reordering.
    rb_out: Outbox<RbMsg<P>, RbDeliver<P>>,
    next: HashMap<NodeId, u64>,
    holdback: HashMap<NodeId, BTreeMap<u64, P>>,
}

impl<P: Clone + std::fmt::Debug + 'static> FifoBcast<P> {
    /// Creates a FIFO broadcast endpoint for `me` within `group`.
    pub fn new(me: NodeId, group: Vec<NodeId>, policy: RelayPolicy) -> Self {
        FifoBcast {
            rb: ReliableBcast::new(me, group, policy),
            rb_out: Outbox::new(),
            next: HashMap::new(),
            holdback: HashMap::new(),
        }
    }

    /// Broadcasts `payload`; returns the assigned id.
    pub fn broadcast(&mut self, payload: P, out: &mut Outbox<RbMsg<P>, RbDeliver<P>>) -> MsgId {
        let id = self.rb.broadcast(payload, &mut self.rb_out);
        self.reorder(out);
        id
    }

    /// Number of messages currently held back waiting for predecessors.
    pub fn held_back(&self) -> usize {
        self.holdback.values().map(|m| m.len()).sum()
    }

    /// Moves what `rb` queued into `out`, holding its deliveries back
    /// until their per-origin predecessors are in.
    fn reorder(&mut self, out: &mut Outbox<RbMsg<P>, RbDeliver<P>>) {
        let mut sub = std::mem::take(&mut self.rb_out);
        out.absorb(
            &mut sub,
            0,
            |m| m,
            |out, d| {
                self.holdback
                    .entry(d.id.origin)
                    .or_default()
                    .insert(d.id.seq, d.payload);
                self.release(d.id.origin, out);
            },
        );
        self.rb_out = sub;
    }

    fn release(&mut self, origin: NodeId, out: &mut Outbox<RbMsg<P>, RbDeliver<P>>) {
        let next = self.next.entry(origin).or_insert(0);
        if let Some(buf) = self.holdback.get_mut(&origin) {
            while let Some(payload) = buf.remove(next) {
                out.event(RbDeliver {
                    id: MsgId::new(origin, *next),
                    payload,
                });
                *next += 1;
            }
        }
    }
}

impl<P: Clone + std::fmt::Debug + 'static> Component for FifoBcast<P> {
    type Msg = RbMsg<P>;
    type Event = RbDeliver<P>;

    fn on_message(
        &mut self,
        from: NodeId,
        msg: RbMsg<P>,
        out: &mut Outbox<RbMsg<P>, RbDeliver<P>>,
    ) {
        self.rb.on_message(from, msg, &mut self.rb_out);
        self.reorder(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    fn events(out: &mut Outbox<RbMsg<u32>, RbDeliver<u32>>) -> Vec<u32> {
        out.drain()
            .into_iter()
            .filter_map(|a| match a {
                crate::component::Action::Event(e) => Some(e.payload),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn out_of_order_arrivals_are_reordered() {
        let g = group(2);
        let mut fifo: FifoBcast<u32> = FifoBcast::new(g[1], g.clone(), RelayPolicy::None);
        let mut out = Outbox::new();
        // seq 1 arrives before seq 0.
        fifo.on_message(
            g[0],
            RbMsg::Data {
                id: MsgId::new(g[0], 1),
                payload: 11,
            },
            &mut out,
        );
        assert!(events(&mut out).is_empty());
        assert_eq!(fifo.held_back(), 1);
        fifo.on_message(
            g[0],
            RbMsg::Data {
                id: MsgId::new(g[0], 0),
                payload: 10,
            },
            &mut out,
        );
        assert_eq!(events(&mut out), vec![10, 11]);
        assert_eq!(fifo.held_back(), 0);
    }

    #[test]
    fn self_deliveries_are_in_broadcast_order() {
        let g = group(2);
        let mut fifo: FifoBcast<u32> = FifoBcast::new(g[0], g.clone(), RelayPolicy::None);
        let mut out = Outbox::new();
        fifo.broadcast(1, &mut out);
        fifo.broadcast(2, &mut out);
        assert_eq!(events(&mut out), vec![1, 2]);
    }

    #[test]
    fn independent_origins_do_not_block_each_other() {
        let g = group(3);
        let mut fifo: FifoBcast<u32> = FifoBcast::new(g[2], g.clone(), RelayPolicy::None);
        let mut out = Outbox::new();
        // Origin 0's message 1 is missing, but origin 1's message 0 flows.
        fifo.on_message(
            g[0],
            RbMsg::Data {
                id: MsgId::new(g[0], 1),
                payload: 99,
            },
            &mut out,
        );
        fifo.on_message(
            g[1],
            RbMsg::Data {
                id: MsgId::new(g[1], 0),
                payload: 50,
            },
            &mut out,
        );
        assert_eq!(events(&mut out), vec![50]);
    }

    #[test]
    fn duplicates_do_not_double_deliver() {
        let g = group(2);
        let mut fifo: FifoBcast<u32> = FifoBcast::new(g[1], g.clone(), RelayPolicy::Eager);
        let mut out = Outbox::new();
        let msg = RbMsg::Data {
            id: MsgId::new(g[0], 0),
            payload: 3,
        };
        fifo.on_message(g[0], msg.clone(), &mut out);
        fifo.on_message(g[0], msg, &mut out);
        assert_eq!(events(&mut out), vec![3]);
    }
}
