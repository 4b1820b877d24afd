//! One ordered log under the three Atomic Broadcasts (§3.1: one
//! abstraction, interchangeable implementations). [`AbMsg`] is the one
//! wire message of [`SequencerAbcast`], [`ConsensusAbcast`] and
//! [`GenuineMulticast`] — each ignores the variants it does not handle —
//! and [`TotalOrder`] the one interface a host drives them through.
//! `OrderedLog` is the front the two log-keeping flavours share: own ids
//! and pending submissions, batch staging, the optional replay log with
//! its one reader, and the rejoin bookkeeping. [`TotalOrder::position`]
//! keeps each flavour's unit (a gseq, or a consensus instance);
//! [`TotalOrder::delivered_gseq`] counts messages in all three.
//!
//! [`SequencerAbcast`]: crate::SequencerAbcast
//! [`ConsensusAbcast`]: crate::ConsensusAbcast
//! [`GenuineMulticast`]: crate::GenuineMulticast

use std::collections::BTreeMap;
use std::sync::Arc;

use repl_sim::{GroupSet, Message, NodeId, SimDuration};

use crate::abcast::{AbDeliver, Batch, BatchConfig};
use crate::component::{Component, Outbox};
use crate::consensus::ConsMsg;
use crate::receiver::MsgId;

/// Wire message of every Atomic Broadcast flavour.
#[derive(Debug, Clone)]
pub enum AbMsg<P> {
    /// Sender → sequencer, or consensus gossip: order this message.
    Submit {
        /// Unique id of the broadcast.
        id: MsgId,
        /// Application payload.
        payload: P,
    },
    /// [`AbMsg::Submit`] for a whole staged batch (batching on).
    SubmitBatch(Batch<P>),
    /// Group orderer → members: the message at its dense position.
    Ordered {
        /// Global sequence number.
        gseq: u64,
        /// Unique id of the broadcast.
        id: MsgId,
        /// Application payload.
        payload: P,
    },
    /// Recovered member → log keepers: refill the stream from `from`.
    Rejoin {
        /// The requester's next undelivered position.
        from: u64,
    },
    /// Sequencer → group: every message ordered in a batching window.
    OrderedBatch {
        /// `(gseq, id, payload)` in assignment order.
        entries: Arc<Vec<(u64, MsgId, P)>>,
    },
    /// Sequencer → recovered member: the missed suffix of the order (sent
    /// even when empty, so the member learns it is caught up).
    RejoinData {
        /// First gseq carried.
        start: u64,
        /// `(gseq, id, payload)` in order.
        entries: Arc<Vec<(u64, MsgId, P)>>,
        /// The sequencer's next gseq.
        high: u64,
    },
    /// Retiring sequencer → successor: the full retained order, adopted
    /// if longer than the successor's own.
    Handoff {
        /// `(id, payload)`; index == gseq.
        entries: Arc<Vec<(MsgId, P)>>,
    },
    /// Consensus traffic of [`ConsensusAbcast`](crate::ConsensusAbcast).
    Cons(ConsMsg<Batch<P>>),
    /// Consensus member → recovered member: retained decided batches from
    /// instance `start` (sent even when empty).
    RejoinBatches {
        /// Instance of the first batch carried.
        start: u64,
        /// Decided batches in instance order.
        batches: Vec<Batch<P>>,
        /// The responder's next instance.
        high: u64,
    },
    /// Genuine multicast, initiator → destination orderers: order this.
    Multicast {
        /// Unique id of the multicast.
        id: MsgId,
        /// Application payload.
        payload: P,
        /// Destination group ids, ascending and distinct.
        dests: GroupSet,
    },
    /// Genuine multicast, orderer → coordinator: a tentative timestamp.
    Propose {
        /// Unique id of the multicast.
        id: MsgId,
        /// The proposing group's tentative timestamp.
        ts: u64,
        /// The proposing group.
        gid: u32,
    },
    /// Genuine multicast, coordinator → orderers: the final timestamp.
    Final {
        /// Unique id of the multicast.
        id: MsgId,
        /// Maximum of all destination proposals.
        ts: u64,
    },
}

/// Serialized size of ordered entries: a batch still serializes every
/// gseq + id + payload; only the message framing is amortized.
pub(crate) fn ordered_bytes<P: Message>(entries: &[(u64, MsgId, P)]) -> usize {
    entries.iter().map(|(_, _, p)| 24 + p.wire_size()).sum()
}

impl<P: Message> Message for AbMsg<P> {
    fn wire_size(&self) -> usize {
        match self {
            AbMsg::Submit { payload, .. } => 16 + payload.wire_size(),
            AbMsg::SubmitBatch(b) => b.wire_size(),
            AbMsg::Ordered { payload, .. } => 24 + payload.wire_size(),
            AbMsg::Rejoin { .. } => 16,
            AbMsg::OrderedBatch { entries } => 8 + ordered_bytes(entries),
            AbMsg::RejoinData { entries, .. } => 24 + ordered_bytes(entries),
            AbMsg::Handoff { entries } => {
                16 + entries
                    .iter()
                    .map(|(_, p)| 24 + p.wire_size())
                    .sum::<usize>()
            }
            AbMsg::Cons(c) => 8 + c.wire_size(),
            AbMsg::RejoinBatches { batches, .. } => {
                24 + batches.iter().map(Batch::wire_size).sum::<usize>()
            }
            AbMsg::Multicast { payload, dests, .. } => 16 + 4 * dests.len() + payload.wire_size(),
            AbMsg::Propose { .. } => 28,
            AbMsg::Final { .. } => 24,
        }
    }
}

/// What a [`TotalOrder`] endpoint queues while it handles one input.
pub type AbOutbox<P> = Outbox<AbMsg<P>, AbDeliver<P>>;

/// An Atomic Broadcast as a host drives it: a [`Component`] that hands
/// the host [`AbDeliver`]s in one total order. The three flavours
/// implement every method; none has a default.
pub trait TotalOrder<P: Message>: Component<Msg = AbMsg<P>, Event = AbDeliver<P>> {
    /// Broadcasts `payload` to the group; returns its id.
    fn broadcast(&mut self, payload: P, out: &mut AbOutbox<P>) -> MsgId;

    /// Orders `payload` at the groups `dests` (ascending, the local group
    /// included); returns its id.
    ///
    /// # Panics
    ///
    /// On a single-group flavour: only genuine multicast spans groups.
    fn multicast(&mut self, payload: P, dests: &[u32], out: &mut AbOutbox<P>) -> MsgId;

    /// The next stream unit (gseq, or consensus instance) to deliver: the
    /// durable tier's frame token for stream-driven protocols.
    fn position(&self) -> u64;

    /// The count of unique messages delivered so far.
    fn delivered_gseq(&self) -> u64;

    /// Rewinds the stream to `pos` (no-op unless behind it) after a volume
    /// loss: the next [`rejoin`](Self::rejoin) re-delivers from there.
    fn rewind_to(&mut self, pos: u64);

    /// Fast-forwards a new member to its snapshot donor's `position` and
    /// `delivered_gseq` (no-op unless ahead).
    fn skip_to(&mut self, pos: u64, gseq: u64);

    /// Re-enters the stream after a crash (state kept, timers lost):
    /// re-arms the timers and asks for a refill from `position`.
    ///
    /// # Panics
    ///
    /// If the endpoint keeps no replay log.
    fn rejoin(&mut self, out: &mut AbOutbox<P>);

    /// `Some(refill bytes)`, once, when a rejoin has caught up.
    fn take_rejoin_done(&mut self) -> Option<u64>;

    /// The ordering group.
    fn group(&self) -> &[NodeId];

    /// Replaces the ordering group; a process that left it relays
    /// in-flight traffic but originates nothing new.
    fn set_group(&mut self, group: Vec<NodeId>);

    /// Own (or gossiped) messages not yet ordered.
    fn pending(&self) -> usize;

    /// Sets the batching window.
    fn set_batching(&mut self, batch: BatchConfig);

    /// Drops the replay log for good, in a run no member can replay: a
    /// later rejoin, refill answer, rewind or handoff panics.
    fn forget_replay(&mut self);

    /// True when this endpoint holds the group's ordering role.
    fn is_orderer(&self) -> bool;

    /// Hands the ordering role and the retained order to `to`, after
    /// [`set_group`](Self::set_group) moved this process out.
    fn handoff(&mut self, to: NodeId, out: &mut AbOutbox<P>);
}

/// The panic message of a read of a replay log the endpoint does not keep.
const NO_REPLAY_LOG: &str =
    "replay log read, but this endpoint keeps no replay log: its run was built as one no member can replay";

/// The front of a log-keeping Atomic Broadcast (see the module docs). `E`
/// is what the replay log retains per stream unit: `(id, payload)` per
/// gseq at the sequencer, a decided batch per instance at a consensus
/// member.
#[derive(Debug)]
pub(crate) struct OrderedLog<P, E> {
    pub(crate) me: NodeId,
    pub(crate) group: Vec<NodeId>,
    pub(crate) batch: BatchConfig,
    /// Own ids handed out so far.
    pub(crate) next_local: u64,
    /// Submissions not yet ordered, by id: retransmissions and proposals
    /// iterate in `MsgId` order (deterministic).
    pub(crate) pending: BTreeMap<MsgId, P>,
    /// Batching: own broadcasts staged for the next flush.
    staged: Vec<(MsgId, P)>,
    staged_bytes: usize,
    flush_armed: bool,
    /// Retained stream units from position `base` on, for refilling
    /// rejoining members; `None` in a run no member can replay. Read only
    /// through [`OrderedLog::replay`].
    replay_log: Option<Vec<E>>,
    base: u64,
    /// Recovery: a rejoin in flight, the highest watermark a responder
    /// reported, bytes refilled, and the report for the host to take.
    rejoin_wait: bool,
    rejoin_high: u64,
    rejoin_bytes: u64,
    rejoin_done: Option<u64>,
}

impl<P: Message, E> OrderedLog<P, E> {
    pub(crate) fn new(me: NodeId, group: Vec<NodeId>) -> Self {
        OrderedLog {
            me,
            group,
            batch: BatchConfig::disabled(),
            next_local: 0,
            pending: BTreeMap::new(),
            staged: Vec::new(),
            staged_bytes: 0,
            flush_armed: false,
            replay_log: Some(Vec::new()),
            base: 0,
            rejoin_wait: false,
            rejoin_high: 0,
            rejoin_bytes: 0,
            rejoin_done: None,
        }
    }

    /// The id of the next own broadcast.
    pub(crate) fn next_id(&mut self) -> MsgId {
        self.next_local += 1;
        MsgId::new(self.me, self.next_local - 1)
    }

    /// The batching window.
    pub(crate) fn window(&self) -> SimDuration {
        SimDuration::from_ticks(self.batch.max_delay_ticks)
    }

    /// Stages an own broadcast (batching on). True when the stage is full
    /// and must flush now; otherwise the flush window is armed at `tag`.
    pub(crate) fn stage(&mut self, id: MsgId, payload: P, tag: u64, out: &mut AbOutbox<P>) -> bool {
        self.staged_bytes += payload.wire_size();
        self.staged.push((id, payload));
        let full = self.staged.len() >= BatchConfig::MAX_BATCH
            || self.staged_bytes >= BatchConfig::MAX_BYTES;
        if !full {
            self.arm_flush(tag, out);
        }
        full
    }

    /// Arms the flush window at `tag` unless it is armed.
    pub(crate) fn arm_flush(&mut self, tag: u64, out: &mut AbOutbox<P>) {
        if !self.flush_armed {
            self.flush_armed = true;
            out.timer(self.window(), tag);
        }
    }

    /// Takes the staged broadcasts (none, possibly) and closes the window.
    pub(crate) fn take_staged(&mut self) -> Vec<(MsgId, P)> {
        self.flush_armed = false;
        self.staged_bytes = 0;
        std::mem::take(&mut self.staged)
    }

    /// Own broadcasts staged for the next flush.
    pub(crate) fn staged(&self) -> usize {
        self.staged.len()
    }

    /// After a crash, which took the timers: re-arms the flush window at
    /// `tag` if batching is on and anything is staged, or `busy`.
    pub(crate) fn rearm_flush(&mut self, busy: bool, tag: u64, out: &mut AbOutbox<P>) {
        self.flush_armed = self.batch.enabled() && (busy || !self.staged.is_empty());
        if self.flush_armed {
            out.timer(self.window(), tag);
        }
    }

    /// The replay log, whose entry `i` is stream unit `base + i` — its one
    /// reader.
    ///
    /// # Panics
    ///
    /// If the endpoint keeps none ([`OrderedLog::forget`]): a wrong
    /// "cannot replay" fails loudly rather than serve an empty refill.
    pub(crate) fn replay(&mut self) -> &mut Vec<E> {
        self.replay_log.as_mut().expect(NO_REPLAY_LOG)
    }

    /// The stream unit of the replay log's first entry.
    pub(crate) fn base(&self) -> u64 {
        self.base
    }

    /// Retains the next stream unit, built only if a replay log is kept.
    pub(crate) fn retain(&mut self, unit: impl FnOnce() -> E) {
        if let Some(log) = &mut self.replay_log {
            log.push(unit());
        }
    }

    /// Keeps no replay log from now on.
    pub(crate) fn forget(&mut self) {
        self.replay_log = None;
    }

    /// Empties the replay log and re-bases it at stream unit `pos`: a
    /// member bootstrapped mid-stream retains from its snapshot on.
    pub(crate) fn rebase(&mut self, pos: u64) {
        if let Some(log) = &mut self.replay_log {
            log.clear();
        }
        self.base = pos;
    }

    /// Opens a rejoin from stream `position`. Refuses without a replay
    /// log before anyone is asked (a refill needs the group's logs); then
    /// waits for a refill if `wait`, or reports completion at once with
    /// no bytes.
    pub(crate) fn open_rejoin(&mut self, wait: bool, position: u64) {
        self.replay();
        self.rejoin_wait = wait;
        self.rejoin_high = position;
        self.rejoin_bytes = 0;
        self.rejoin_done = (!wait).then_some(0);
    }

    /// True while a rejoin waits for its refill.
    pub(crate) fn rejoining(&self) -> bool {
        self.rejoin_wait
    }

    /// A refill of `bytes` was applied and the stream stands at
    /// `position`: while a rejoin waits, counts the bytes, and closes it
    /// once the stream reached the highest watermark `high` a responder
    /// reported.
    pub(crate) fn refilled(&mut self, bytes: u64, high: u64, position: u64) {
        if self.rejoin_wait {
            self.rejoin_bytes += bytes;
            self.rejoin_high = self.rejoin_high.max(high);
            if position >= self.rejoin_high {
                self.rejoin_wait = false;
                self.rejoin_done = Some(self.rejoin_bytes);
            }
        }
    }

    /// Takes the completed-rejoin report.
    pub(crate) fn take_rejoin_done(&mut self) -> Option<u64> {
        self.rejoin_done.take()
    }
}

#[cfg(test)]
impl<P, E> OrderedLog<P, E> {
    /// The replay log, if one is kept.
    pub(crate) fn kept(&self) -> Option<&Vec<E>> {
        self.replay_log.as_ref()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::ops::Range;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;
    use crate::testkit::{schedule_outage, ComponentActor};
    use crate::{ConsensusAbcast, ConsensusConfig, GenuineMulticast, SequencerAbcast};
    use repl_sim::{SimConfig, SimTime, World};

    /// A total-order endpoint whose host takes the rejoin report after
    /// every input, as a replica does.
    pub(crate) struct Polled<C> {
        pub(crate) inner: C,
        /// Every report taken, in order.
        pub(crate) reports: Vec<u64>,
    }

    impl<C: TotalOrder<u32>> Polled<C> {
        fn poll(&mut self) {
            self.reports.extend(self.inner.take_rejoin_done());
        }
    }

    impl<C: TotalOrder<u32>> Component for Polled<C> {
        type Msg = AbMsg<u32>;
        type Event = AbDeliver<u32>;

        fn on_start(&mut self, out: &mut AbOutbox<u32>) {
            self.inner.on_start(out);
            self.poll();
        }

        fn on_message(&mut self, from: NodeId, msg: AbMsg<u32>, out: &mut AbOutbox<u32>) {
            self.inner.on_message(from, msg, out);
            self.poll();
        }

        fn on_timer(&mut self, tag: u64, out: &mut AbOutbox<u32>) {
            self.inner.on_timer(tag, out);
            self.poll();
        }
    }

    /// One member's outage in a group of three.
    pub(crate) struct Outage {
        pub(crate) seed: u64,
        /// These members broadcast `per_sender` messages each (member `i`
        /// sends `10 i + k` at tick `50 + k · every + i`).
        pub(crate) senders: Range<u32>,
        pub(crate) per_sender: u32,
        pub(crate) every: u64,
        /// The member that is down from `down` to `up`.
        pub(crate) victim: u32,
        pub(crate) down: u64,
        pub(crate) up: u64,
        /// Where the victim rewinds its stream before it rejoins (`None`:
        /// a plain crash, which keeps what it delivered).
        pub(crate) rewind: Option<u64>,
        pub(crate) until: u64,
    }

    /// What an outage left behind.
    pub(crate) struct Recovered {
        /// The deliveries of the first member that never crashed.
        pub(crate) reference: Vec<AbDeliver<u32>>,
        /// The victim's deliveries, before and after its outage.
        pub(crate) victim: Vec<AbDeliver<u32>>,
        /// The victim's rejoin reports.
        pub(crate) reports: Vec<u64>,
    }

    /// Runs `o` over endpoints built by `make(me, group)`.
    pub(crate) fn outage<C: TotalOrder<u32> + 'static>(
        make: impl Fn(NodeId, Vec<NodeId>) -> C,
        o: &Outage,
    ) -> Recovered {
        let mut world: World<AbMsg<u32>> = World::new(SimConfig::new(o.seed));
        let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        for i in 0..3u32 {
            let polled = Polled {
                inner: make(NodeId::new(i), group.clone()),
                reports: Vec::new(),
            };
            let rewind = o.rewind;
            let mut actor = ComponentActor::new(polled).with_recovery(move |p, out| {
                if let Some(pos) = rewind {
                    p.inner.rewind_to(pos);
                }
                p.inner.rejoin(out);
                p.poll();
            });
            for k in 0..o.per_sender {
                if o.senders.contains(&i) {
                    let at = SimDuration::from_ticks(50 + u64::from(k) * o.every + u64::from(i));
                    actor = actor.with_step(at, move |p, out| {
                        p.inner.broadcast(i * 10 + k, out);
                    });
                }
            }
            world.add_actor(Box::new(actor));
        }
        let victim = NodeId::new(o.victim);
        let (down, up) = (SimTime::from_ticks(o.down), SimTime::from_ticks(o.up));
        schedule_outage(&mut world, victim, down, up);
        world.start();
        world.run_until(SimTime::from_ticks(o.until));
        let host = |n: NodeId| world.actor_ref::<ComponentActor<Polled<C>>>(n);
        let events = |n: NodeId| host(n).events.iter().map(|(_, d)| d.clone()).collect();
        let survivor = group.iter().find(|&&n| n != victim).expect("three members");
        Recovered {
            reference: events(*survivor),
            victim: events(victim),
            reports: host(victim).inner.reports.clone(),
        }
    }

    /// The text of a caught panic.
    fn panic_text(caught: Box<dyn std::any::Any + Send>) -> String {
        match caught.downcast::<String>() {
            Ok(s) => *s,
            Err(e) => e
                .downcast_ref::<&str>()
                .map_or_else(String::new, |s| s.to_string()),
        }
    }

    /// The contract of a log-keeping total order: with every member
    /// broadcasting, a member that crashes, rewinds to an earlier
    /// position and rejoins delivers the same ids in the same order as a
    /// member that never crashed, and reports its rejoin exactly once;
    /// built without a replay log, it refuses to rejoin.
    fn keeps_the_contract<C: TotalOrder<u32> + 'static>(
        what: &str,
        make: impl Fn(NodeId, Vec<NodeId>) -> C,
    ) {
        let r = outage(
            &make,
            &Outage {
                seed: 47,
                senders: 0..3,
                per_sender: 4,
                every: 5_000,
                victim: 2,
                down: 12_000,
                up: 40_000,
                rewind: Some(1),
                until: 400_000,
            },
        );
        // The victim's own fourth broadcast fell into its outage.
        assert_eq!(r.reference.len(), 11, "{what}: {:?}", r.reference);
        // What it delivered before its last step back is a prefix of the
        // reference, what it delivered after is the rest of it, from an
        // earlier position.
        let resumed = r
            .victim
            .windows(2)
            .rposition(|w| w[1].gseq <= w[0].gseq)
            .map(|at| at + 1)
            .unwrap_or_else(|| panic!("{what}: nothing re-delivered"));
        let (before, after) = r.victim.split_at(resumed);
        let from = after[0].gseq as usize;
        assert!(from < before.len(), "{what}: rewound to {from}");
        assert_eq!(before, &r.reference[..before.len()], "{what}");
        assert_eq!(after, &r.reference[from..], "{what}");
        assert_eq!(r.reports.len(), 1, "{what}: reports {:?}", r.reports);
        let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let mut forgetful = make(group[1], group);
        forgetful.forget_replay();
        let refused = catch_unwind(AssertUnwindSafe(|| forgetful.rejoin(&mut Outbox::new())));
        let text = panic_text(refused.expect_err("a rejoin without a replay log went ahead"));
        assert!(text.contains("keeps no replay log"), "{what}: {text}");
    }

    #[test]
    fn both_log_keeping_orders_keep_the_total_order_contract() {
        for batch in [BatchConfig::disabled(), BatchConfig::window(200)] {
            keeps_the_contract("sequencer", |me, g| {
                SequencerAbcast::new(me, g).with_batching(batch)
            });
            keeps_the_contract("consensus", |me, g| {
                ConsensusAbcast::new(me, g, ConsensusConfig::default()).with_batching(batch)
            });
        }
    }

    /// Sharded runs refuse fault and membership plans, so genuine
    /// multicast answers the fault path with explicit no-ops and refuses
    /// a new group.
    #[test]
    fn genuine_multicast_answers_the_fault_path_with_no_ops() {
        let groups: Vec<Vec<NodeId>> = vec![
            (0..3).map(NodeId::new).collect(),
            (3..6).map(NodeId::new).collect(),
        ];
        let mut gm = GenuineMulticast::<u32>::new(groups[0][0], groups.clone(), 0);
        let mut out = Outbox::new();
        gm.broadcast(7, &mut out);
        assert_eq!(out.drain().len(), 3, "two Ordered copies and the delivery");
        gm.rewind_to(0);
        gm.skip_to(5, 5);
        gm.forget_replay();
        gm.set_batching(BatchConfig::window(50));
        gm.rejoin(&mut out);
        gm.handoff(groups[0][1], &mut out);
        assert!(out.is_empty(), "a no-op queued {:?}", out.drain());
        assert_eq!((gm.position(), gm.delivered_gseq()), (1, 1));
        assert_eq!(gm.take_rejoin_done(), None);
        assert!(gm.is_orderer() && gm.pending() == 0);
        let moved = catch_unwind(AssertUnwindSafe(|| gm.set_group(groups[1].clone())));
        let text = panic_text(moved.expect_err("a sharded group moved"));
        assert_eq!(text, "sharded groups are static");
    }
}
