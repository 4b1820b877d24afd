//! [`MsgId`], and the receiver role
//! [`SequencerAbcast`](crate::SequencerAbcast) and
//! [`GenuineMulticast`](crate::GenuineMulticast) share: hand a group
//! orderer's `(gseq, id, payload)` triples to the host in dense gseq
//! order, each id at most once.

use std::collections::BTreeMap;

use repl_sim::NodeId;

use crate::abcast::AbDeliver;
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

#[derive(Debug)]
pub(crate) struct OrderedReceiver<P> {
    next_deliver: u64,
    holdback: BTreeMap<u64, (MsgId, P)>,
    delivered: RunSet<NodeId>,
}

impl<P> OrderedReceiver<P> {
    pub(crate) fn new() -> Self {
        OrderedReceiver {
            next_deliver: 0,
            holdback: BTreeMap::new(),
            delivered: RunSet::new(),
        }
    }

    /// The stream position: the next gseq to deliver. Everything below
    /// it has already been handed to the host.
    pub(crate) fn position(&self) -> u64 {
        self.next_deliver
    }

    /// The position, while a later message is parked behind it: the
    /// first gseq this member is missing.
    pub(crate) fn hole(&self) -> Option<u64> {
        (!self.holdback.is_empty()).then_some(self.next_deliver)
    }

    /// True once `id` has been handed to the host.
    pub(crate) fn has_delivered(&self, id: MsgId) -> bool {
        self.delivered.contains(id.origin, id.seq)
    }

    /// Fast-forwards the stream to `gseq` (no-op when not ahead).
    pub(crate) fn skip_to(&mut self, gseq: u64) {
        if gseq <= self.next_deliver {
            return;
        }
        self.next_deliver = gseq;
        self.holdback = self.holdback.split_off(&gseq);
    }

    /// Rewinds the stream to `gseq` (no-op if not behind the position).
    pub(crate) fn rewind_to(&mut self, gseq: u64) {
        if gseq >= self.next_deliver {
            return;
        }
        self.next_deliver = gseq;
        self.holdback.clear();
        // Every gseq carries a unique id and re-delivery below the old
        // position is exactly what the caller asked for, so the dedup
        // set restarts empty.
        self.delivered.clear();
    }

    /// Takes the message ordered at `gseq` and passes whatever became
    /// deliverable to `deliver`, in gseq order.
    pub(crate) fn accept(
        &mut self,
        gseq: u64,
        id: MsgId,
        payload: P,
        mut deliver: impl FnMut(AbDeliver<P>),
    ) {
        // Below the position is either a duplicate or covered by the
        // snapshot `skip_to` jumped over (whose ids were never seen
        // here): parked, it could never drain.
        if gseq < self.next_deliver || self.has_delivered(id) {
            return;
        }
        if gseq == self.next_deliver && self.holdback.is_empty() {
            // In order with nothing parked: no detour through the map.
            self.deliver_next(id, payload, &mut deliver);
            return;
        }
        self.holdback.entry(gseq).or_insert((id, payload));
        while let Some((id, payload)) = self.holdback.remove(&self.next_deliver) {
            self.deliver_next(id, payload, &mut deliver);
        }
    }

    /// Entries parked in the holdback and runs in the dedup set: what
    /// the receiver retains between deliveries.
    #[cfg(test)]
    pub(crate) fn retained(&self) -> (usize, usize) {
        (self.holdback.len(), self.delivered.runs())
    }

    fn deliver_next(&mut self, id: MsgId, payload: P, deliver: &mut impl FnMut(AbDeliver<P>)) {
        let gseq = self.next_deliver;
        self.next_deliver += 1;
        if self.delivered.insert(id.origin, id.seq) {
            deliver(AbDeliver { gseq, id, payload });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(origin: u32, seq: u64) -> MsgId {
        MsgId::new(NodeId::new(origin), seq)
    }

    #[test]
    fn stale_ordered_after_skip_to_is_dropped_not_parked() {
        let mut recv: OrderedReceiver<u32> = OrderedReceiver::new();
        recv.skip_to(10);
        // The joiner never saw the ids below its snapshot position, so
        // only the gseq can tell that this one is stale.
        recv.accept(3, id(1, 3), 33, |d| panic!("delivered stale {d:?}"));
        assert!(recv.holdback.is_empty(), "stale entry parked forever");
        let mut got = Vec::new();
        recv.accept(10, id(1, 10), 7, |d| got.push((d.gseq, d.payload)));
        assert_eq!(got, vec![(10, 7)]);
        assert_eq!(recv.position(), 11);
    }

    #[test]
    fn delivers_in_gseq_order_and_each_id_once() {
        let mut recv: OrderedReceiver<u32> = OrderedReceiver::new();
        let mut got = Vec::new();
        recv.accept(1, id(2, 0), 21, |d| got.push((d.gseq, d.payload)));
        recv.accept(1, id(2, 0), 21, |d| got.push((d.gseq, d.payload)));
        assert!(got.is_empty(), "gap at 0");
        recv.accept(0, id(1, 0), 10, |d| got.push((d.gseq, d.payload)));
        assert_eq!(got, vec![(0, 10), (1, 21)]);
        recv.accept(0, id(1, 0), 10, |d| got.push((d.gseq, d.payload)));
        assert_eq!(got.len(), 2, "duplicate delivered");
        assert!(recv.has_delivered(id(2, 0)) && !recv.has_delivered(id(2, 1)));
        // After a rewind the same ids are delivered again, in order.
        recv.rewind_to(0);
        recv.accept(0, id(1, 0), 10, |d| got.push((d.gseq, d.payload)));
        assert_eq!(got.last(), Some(&(0, 10)));
    }
}
