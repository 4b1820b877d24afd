//! Atomic Broadcast (ABCAST): totally ordered, reliable dissemination.
//!
//! Two interchangeable implementations of [`TotalOrder`], compared by
//! ablation A2, over the one ordered log of [`crate::ordered`]:
//!
//! * [`SequencerAbcast`] — a fixed sequencer assigns global sequence
//!   numbers. Cheapest in messages (one hop to the sequencer, one
//!   dissemination round) but the sequencer is a single point of failure;
//!   the replication experiments use it in failure-free runs.
//! * [`ConsensusAbcast`] — batches of pending messages are agreed on with
//!   [`ConsensusPool`] instances, in the style of Chandra–Toueg's atomic
//!   broadcast reduction. Tolerates any minority of crashes.
//!
//! Both deliver [`AbDeliver`] events carrying a dense global sequence
//! number; within a batch, messages are ordered by [`MsgId`]. Both embed
//! the shared front and keep only their own ordering here: the sequencer
//! retains the order it assigns, every consensus member the batches it
//! delivered.

use std::collections::BTreeMap;
use std::sync::Arc;

use repl_sim::{Message, NodeId, SimDuration};

use crate::component::{Component, Outbox};
use crate::consensus::{ConsEvent, ConsMsg, ConsensusConfig, ConsensusPool};
use crate::ordered::{ordered_bytes, AbMsg, AbOutbox, OrderedLog, TotalOrder};
use crate::receiver::{MsgId, OrderedReceiver};
use crate::runset::RunSet;

/// A totally ordered delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbDeliver<P> {
    /// Dense position in the group's total order, starting at 0.
    pub gseq: u64,
    /// Unique id of the broadcast.
    pub id: MsgId,
    /// Application payload.
    pub payload: P,
}

/// Batching window shared by both ABCAST implementations.
///
/// With a nonzero window, concurrent `broadcast()` calls at one endpoint
/// are staged for up to `max_delay_ticks` and submitted as one
/// [`Batch`], so a group of messages pays for a single ordering round.
/// The sequencer additionally coalesces submissions that arrive within
/// one window into a single dissemination round.
/// [`BatchConfig::MAX_BATCH`] / [`BatchConfig::MAX_BYTES`] bound a batch
/// and force an early flush.
///
/// `BatchConfig::disabled()` (window 0) is the default and keeps the
/// unbatched code paths byte-for-byte: no staging, no extra timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum staging delay before a batch is flushed (0 = batching off).
    pub max_delay_ticks: u64,
}

impl BatchConfig {
    /// Flush early once this many messages are staged.
    pub const MAX_BATCH: usize = 64;
    /// Flush early once the staged payloads reach this many wire bytes.
    pub const MAX_BYTES: usize = 64 << 10;

    /// Batching off: every broadcast pays its own ordering round.
    pub const fn disabled() -> Self {
        BatchConfig::window(0)
    }

    /// A batching window of `ticks`.
    pub const fn window(ticks: u64) -> Self {
        BatchConfig {
            max_delay_ticks: ticks,
        }
    }

    /// Whether batching is on.
    pub fn enabled(&self) -> bool {
        self.max_delay_ticks > 0
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig::disabled()
    }
}

// ---------------------------------------------------------------------------
// Fixed sequencer
// ---------------------------------------------------------------------------

const RETRANSMIT_TAG: u64 = 0;
/// Sender role: flush the staged batch to the sequencer.
const FLUSH_TAG: u64 = 1;
/// Sequencer role: close the accumulation window and disseminate.
const ORDER_FLUSH_TAG: u64 = 2;

/// "No gseq yet" in a [`GseqIndex`] slot.
const UNASSIGNED: u32 = u32::MAX;

/// Sequencer role: the gseq assigned to each id. Origins number their
/// broadcasts densely from 0, so the map is one slot table per origin,
/// indexed by the origin's local sequence number. A slot is 4 bytes: a
/// gseq that does not fit panics ([`GseqIndex::narrow`]) rather than wrap.
#[derive(Debug, Default)]
struct GseqIndex(BTreeMap<NodeId, Vec<u32>>);

impl GseqIndex {
    /// `gseq` as a slot value.
    ///
    /// # Panics
    ///
    /// Panics if `gseq` is [`UNASSIGNED`] or beyond.
    fn narrow(gseq: u64) -> u32 {
        match u32::try_from(gseq) {
            Ok(g) if g != UNASSIGNED => g,
            _ => panic!("gseq {gseq} overflows the sequencer's 4-byte gseq index"),
        }
    }

    /// The slot of `id`, [`UNASSIGNED`] until written.
    fn slot(&mut self, id: MsgId) -> &mut u32 {
        let slots = self.0.entry(id.origin).or_default();
        let at = id.seq as usize;
        if at >= slots.len() {
            slots.resize(at + 1, UNASSIGNED);
        }
        &mut slots[at]
    }
}

/// Fixed-sequencer Atomic Broadcast.
///
/// The sequencer is the first group member. Senders retransmit unordered
/// submissions periodically, which makes the primitive robust to message
/// loss (but not to a sequencer crash — see [`ConsensusAbcast`]).
///
/// Non-members may broadcast *into* the group: the sequencer confirms the
/// ordering back to them, but only members deliver.
///
/// # Examples
///
/// ```
/// use repl_gcs::{SequencerAbcast, Outbox};
/// use repl_sim::NodeId;
///
/// let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
/// let mut ab: SequencerAbcast<u32> = SequencerAbcast::new(group[1], group.clone());
/// let mut out = Outbox::new();
/// ab.broadcast(9, &mut out);
/// ```
#[derive(Debug)]
pub struct SequencerAbcast<P> {
    // The shared front; its replay log is the sequencer role's order,
    // `(id, payload)` per gseq.
    log: OrderedLog<P, (MsgId, P)>,
    member: bool,
    retransmit_every: SimDuration,
    timer_armed: bool,
    // Own ids issued when the retransmit timer was armed: its firing
    // resends only the submissions below them.
    resend_below: u64,
    // The receiver's hole at the last firing; `behind` once one outlived
    // a period.
    hole_seen: Option<u64>,
    behind: bool,
    // Sequencer role.
    ordered: GseqIndex,
    next_gseq: u64,
    // Sequencer role, batching: submissions accumulated in the window.
    order_staged: Vec<(u64, MsgId, P)>,
    order_flush_armed: bool,
    recv: OrderedReceiver<P>,
}

impl<P: Message> SequencerAbcast<P> {
    /// Creates an endpoint for `me`; the sequencer is `group[0]`.
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty.
    pub fn new(me: NodeId, group: Vec<NodeId>) -> Self {
        assert!(!group.is_empty(), "group must not be empty");
        SequencerAbcast {
            member: group.contains(&me),
            log: OrderedLog::new(me, group),
            retransmit_every: SimDuration::from_ticks(2_000),
            timer_armed: false,
            resend_below: 0,
            hole_seen: None,
            behind: false,
            ordered: GseqIndex::default(),
            next_gseq: 0,
            order_staged: Vec::new(),
            order_flush_armed: false,
            recv: OrderedReceiver::new(),
        }
    }

    /// Sets the batching window (builder form).
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.log.batch = batch;
        self
    }

    /// Sets how long an unconfirmed submission waits before it is sent
    /// again (builder form; 2,000 ticks by default). It must exceed the
    /// network's round trip, or every submission goes out twice.
    pub fn with_retransmit(mut self, every: SimDuration) -> Self {
        self.retransmit_every = every;
        self
    }

    /// The sequencer node.
    pub fn sequencer(&self) -> NodeId {
        self.log.group[0]
    }

    /// Broadcasts `payload`; returns its id.
    pub fn broadcast(&mut self, payload: P, out: &mut AbOutbox<P>) -> MsgId {
        let id = self.log.next_id();
        self.log.pending.insert(id, payload.clone());
        if !self.log.batch.enabled() {
            out.send(self.sequencer(), AbMsg::Submit { id, payload });
        } else if self.log.stage(id, payload, FLUSH_TAG, out) {
            self.flush_submit(out);
        }
        if !self.timer_armed {
            self.timer_armed = true;
            self.arm_retransmit(out);
        }
        id
    }

    /// Arms the retransmit timer and remembers what exists now: the
    /// firing resends only those submissions, by then one period old — a
    /// younger one's confirmation is still on its way.
    fn arm_retransmit(&mut self, out: &mut AbOutbox<P>) {
        self.resend_below = self.log.next_local;
        out.timer(self.retransmit_every, RETRANSMIT_TAG);
    }

    /// Sender role: ship the staged batch to the sequencer in one message.
    fn flush_submit(&mut self, out: &mut AbOutbox<P>) {
        let entries = self.log.take_staged();
        if !entries.is_empty() {
            out.send(self.sequencer(), AbMsg::SubmitBatch(Batch::new(entries)));
        }
    }

    /// Assigns `id` its global sequence number (idempotent) and retains
    /// the payload in the order log, if one is kept, for later refills.
    fn assign_gseq(&mut self, id: MsgId, payload: &P) -> u64 {
        let slot = self.ordered.slot(id);
        if *slot == UNASSIGNED {
            *slot = GseqIndex::narrow(self.next_gseq);
            self.next_gseq += 1;
            self.log.retain(|| (id, payload.clone()));
        }
        u64::from(*slot)
    }

    fn order(&mut self, id: MsgId, payload: P, out: &mut AbOutbox<P>) {
        let gseq = self.assign_gseq(id, &payload);
        let me = self.log.me;
        // The members, then a non-member origin for its confirmation.
        let outsider = !self.log.group.contains(&id.origin) && id.origin != me;
        let members = self.log.group.iter().copied().filter(|&m| m != me);
        for to in members.chain(outsider.then_some(id.origin)) {
            let payload = payload.clone();
            out.send(to, AbMsg::Ordered { gseq, id, payload });
        }
        self.accept(gseq, id, payload, out);
    }

    /// Sequencer role, batching: stage ordered submissions and
    /// disseminate everything accumulated in one window together.
    fn order_batched(&mut self, entries: Vec<(MsgId, P)>, out: &mut AbOutbox<P>) {
        for (id, payload) in entries {
            // A message already staged for the next flush must not be
            // staged twice; a retransmission of an already-disseminated
            // message keeps its first gseq but is re-disseminated (the
            // earlier round may have been lost — receivers dedup).
            if self.order_staged.iter().any(|(_, staged, _)| *staged == id) {
                continue;
            }
            let gseq = self.assign_gseq(id, &payload);
            self.order_staged.push((gseq, id, payload));
        }
        if self.order_staged.len() >= BatchConfig::MAX_BATCH {
            self.flush_order(out);
        } else if !self.order_staged.is_empty() && !self.order_flush_armed {
            self.order_flush_armed = true;
            out.timer(self.log.window(), ORDER_FLUSH_TAG);
        }
    }

    /// Sequencer role, batching: one dissemination round for the window.
    fn flush_order(&mut self, out: &mut AbOutbox<P>) {
        self.order_flush_armed = false;
        if self.order_staged.is_empty() {
            return;
        }
        let me = self.log.me;
        let entries = Arc::new(std::mem::take(&mut self.order_staged));
        for &m in &self.log.group {
            if m != me {
                out.send(
                    m,
                    AbMsg::OrderedBatch {
                        entries: Arc::clone(&entries),
                    },
                );
            }
        }
        // Non-member origins get one confirmation batch each, holding
        // just their own entries.
        let mut outsiders: Vec<(NodeId, Vec<_>)> = Vec::new();
        for e in entries.iter() {
            let origin = e.1.origin;
            if origin != me && !self.log.group.contains(&origin) {
                match outsiders.iter_mut().find(|(o, _)| *o == origin) {
                    Some((_, v)) => v.push(e.clone()),
                    None => outsiders.push((origin, vec![e.clone()])),
                }
            }
        }
        for (origin, mine) in outsiders {
            out.send(
                origin,
                AbMsg::OrderedBatch {
                    entries: Arc::new(mine),
                },
            );
        }
        for (gseq, id, payload) in entries.iter() {
            self.accept(*gseq, *id, payload.clone(), out);
        }
    }

    /// A hole the receiver is left with arms the retransmit timer.
    fn accept(&mut self, gseq: u64, id: MsgId, payload: P, out: &mut AbOutbox<P>) {
        self.log.pending.remove(&id);
        if self.member {
            self.recv.accept(gseq, id, payload, |d| out.event(d));
            if !self.timer_armed && self.recv.hole().is_some() {
                self.timer_armed = true;
                self.arm_retransmit(out);
            }
        }
    }
}

impl<P: Message> TotalOrder<P> for SequencerAbcast<P> {
    fn broadcast(&mut self, payload: P, out: &mut AbOutbox<P>) -> MsgId {
        SequencerAbcast::broadcast(self, payload, out)
    }

    fn multicast(&mut self, _payload: P, _dests: &[u32], _out: &mut AbOutbox<P>) -> MsgId {
        panic!("multicast needs the genuine endpoint")
    }

    fn position(&self) -> u64 {
        self.recv.position()
    }

    fn delivered_gseq(&self) -> u64 {
        self.recv.position()
    }

    /// Only receiver state moves; the sequencer role's retained order is
    /// untouched.
    fn rewind_to(&mut self, pos: u64) {
        self.recv.rewind_to(pos);
    }

    fn skip_to(&mut self, _pos: u64, gseq: u64) {
        self.recv.skip_to(gseq);
    }

    /// A member asks the sequencer, retransmitting until answered; the
    /// sequencer refills its own (rewound) stream from the order it
    /// retains, with zero wire bytes. Non-members deliver nothing.
    fn rejoin(&mut self, out: &mut AbOutbox<P>) {
        let wait = self.member && self.log.me != self.sequencer();
        self.log.open_rejoin(wait, self.recv.position());
        if wait {
            let from = self.recv.position();
            out.send(self.sequencer(), AbMsg::Rejoin { from });
        } else if self.member {
            while self.recv.position() < self.next_gseq {
                let g = self.recv.position();
                let (id, payload) = self.log.replay()[g as usize].clone();
                self.accept(g, id, payload, out);
            }
        }
        self.timer_armed = !self.log.pending.is_empty() || wait || self.recv.hole().is_some();
        if self.timer_armed {
            self.arm_retransmit(out);
        }
        self.log.rearm_flush(false, FLUSH_TAG, out);
        self.order_flush_armed = self.log.batch.enabled() && !self.order_staged.is_empty();
        if self.order_flush_armed {
            out.timer(self.log.window(), ORDER_FLUSH_TAG);
        }
    }

    fn take_rejoin_done(&mut self) -> Option<u64> {
        self.log.take_rejoin_done()
    }

    fn take_behind(&mut self) -> bool {
        std::mem::take(&mut self.behind)
    }

    fn group(&self) -> &[NodeId] {
        &self.log.group
    }

    /// Unconfirmed submissions retransmit to the new sequencer
    /// (`group[0]`); a process that left stops delivering.
    fn set_group(&mut self, group: Vec<NodeId>) {
        assert!(!group.is_empty(), "group must not be empty");
        self.member = group.contains(&self.log.me);
        self.log.group = group;
    }

    fn pending(&self) -> usize {
        self.log.pending.len()
    }

    fn set_batching(&mut self, batch: BatchConfig) {
        self.log.batch = batch;
    }

    fn forget_replay(&mut self) {
        self.log.forget();
    }

    fn is_orderer(&self) -> bool {
        self.log.me == self.sequencer()
    }

    fn is_seq(&self) -> bool {
        true
    }

    /// Ships the full retained order; the successor adopts the longer
    /// log and continues gseq assignment where the retiree stopped.
    fn handoff(&mut self, to: NodeId, out: &mut AbOutbox<P>) {
        let entries = Arc::new(self.log.replay().to_vec());
        out.send(to, AbMsg::Handoff { entries });
    }
}

impl<P: Message> Component for SequencerAbcast<P> {
    type Msg = AbMsg<P>;
    type Event = AbDeliver<P>;

    fn on_message(&mut self, from: NodeId, msg: AbMsg<P>, out: &mut AbOutbox<P>) {
        let sequencer = self.is_orderer();
        match msg {
            AbMsg::Submit { id, payload } if sequencer => {
                if self.log.batch.enabled() {
                    self.order_batched(vec![(id, payload)], out);
                } else {
                    self.order(id, payload, out);
                }
            }
            AbMsg::SubmitBatch(batch) if sequencer => {
                let entries = batch.into_entries();
                if self.log.batch.enabled() {
                    self.order_batched(entries, out);
                } else {
                    for (id, payload) in entries {
                        self.order(id, payload, out);
                    }
                }
            }
            AbMsg::Ordered { gseq, id, payload } => {
                self.accept(gseq, id, payload, out);
            }
            AbMsg::OrderedBatch { entries } => {
                for (gseq, id, payload) in entries.iter() {
                    self.accept(*gseq, *id, payload.clone(), out);
                }
            }
            AbMsg::Rejoin { from: have } if sequencer => {
                let start = have.min(self.next_gseq);
                let log = self.log.replay();
                let entries: Vec<(u64, MsgId, P)> = (start..self.next_gseq)
                    .map(|g| {
                        let (id, p) = log[g as usize].clone();
                        (g, id, p)
                    })
                    .collect();
                out.send(
                    from,
                    AbMsg::RejoinData {
                        start,
                        entries: Arc::new(entries),
                        high: self.next_gseq,
                    },
                );
            }
            AbMsg::RejoinData { entries, high, .. } => {
                let bytes = 24 + ordered_bytes(&entries);
                for (gseq, id, payload) in entries.iter() {
                    self.accept(*gseq, *id, payload.clone(), out);
                }
                self.log.refilled(bytes as u64, high, self.recv.position());
            }
            AbMsg::Handoff { entries } => {
                if entries.len() as u64 > self.next_gseq {
                    self.ordered = GseqIndex::default();
                    for (g, (id, _)) in entries.iter().enumerate() {
                        *self.ordered.slot(*id) = GseqIndex::narrow(g as u64);
                    }
                    *self.log.replay() = entries.to_vec();
                    self.next_gseq = entries.len() as u64;
                }
                // Catch the receiver stream up from the adopted order:
                // the successor must hold every past delivery before it
                // assigns fresh gseqs on top of them.
                for (g, (id, payload)) in entries.iter().enumerate() {
                    if (g as u64) >= self.recv.position() {
                        self.accept(g as u64, *id, payload.clone(), out);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, tag: u64, out: &mut AbOutbox<P>) {
        match tag {
            FLUSH_TAG => self.flush_submit(out),
            ORDER_FLUSH_TAG => self.flush_order(out),
            RETRANSMIT_TAG => {
                let seq = self.sequencer();
                let hole = self.recv.hole();
                if self.log.rejoining() {
                    // An unanswered refill request (lost, or the
                    // sequencer itself was down): ask again.
                    let from = self.recv.position();
                    out.send(seq, AbMsg::Rejoin { from });
                }
                // The same hole a period ago: nothing will fill it.
                self.behind |= !self.log.rejoining() && hole.is_some() && hole == self.hole_seen;
                self.hole_seen = hole;
                if self.log.pending.is_empty() {
                    if self.log.rejoining() || hole.is_some() {
                        self.arm_retransmit(out);
                    } else {
                        self.timer_armed = false;
                    }
                    return;
                }
                // Own ids sort by `seq`: the submissions a period old.
                let aged = MsgId::new(self.log.me, self.resend_below);
                let old = self.log.pending.range(..aged);
                if self.log.batch.enabled() {
                    // Retransmit them as one batch.
                    let entries: Vec<(MsgId, P)> = old.map(|(&id, p)| (id, p.clone())).collect();
                    if !entries.is_empty() {
                        out.send(seq, AbMsg::SubmitBatch(Batch::new(entries)));
                    }
                } else {
                    for (&id, payload) in old {
                        out.send(
                            seq,
                            AbMsg::Submit {
                                id,
                                payload: payload.clone(),
                            },
                        );
                    }
                }
                self.arm_retransmit(out);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Consensus-based
// ---------------------------------------------------------------------------

/// A batch of messages submitted or agreed on together.
///
/// The entry list is behind an [`Arc`]: multicasting a batch to n−1
/// group members (and the round-based consensus re-broadcasts) clones a
/// pointer, not the payloads. [`Batch::wire_size`] keeps reporting the
/// logical serialized size of every entry, so byte accounting is
/// unaffected by the sharing.
#[derive(Debug, Clone)]
pub struct Batch<P>(pub Arc<Vec<(MsgId, P)>>);

impl<P> Batch<P> {
    /// Wraps `entries` into a shareable batch.
    pub fn new(entries: Vec<(MsgId, P)>) -> Self {
        Batch(Arc::new(entries))
    }

    /// The entries, in submission order.
    pub fn entries(&self) -> &[(MsgId, P)] {
        &self.0
    }
}

impl<P: Clone> Batch<P> {
    /// Extracts the entries, cloning only if the batch is still shared.
    pub fn into_entries(self) -> Vec<(MsgId, P)> {
        match Arc::try_unwrap(self.0) {
            Ok(v) => v,
            Err(shared) => (*shared).clone(),
        }
    }
}

impl<P: Message> Message for Batch<P> {
    fn wire_size(&self) -> usize {
        8 + self
            .0
            .iter()
            .map(|(_, p)| 16 + p.wire_size())
            .sum::<usize>()
    }
}

/// Timer-tag base of the embedded consensus pool.
const CONS_BASE: u64 = 1 << 40;
/// Flush the staged batch (batching on); must stay below `CONS_BASE`.
const CONS_FLUSH_TAG: u64 = 0;

/// Consensus-based Atomic Broadcast (Chandra–Toueg reduction).
///
/// Pending messages are gossiped to all members; each member proposes its
/// pending set for the next consensus instance; decided batches are
/// delivered in instance order, messages within a batch ordered by id.
/// Tolerates crashes of any minority of the group.
///
/// # Panics
///
/// [`ConsensusAbcast::new`] panics if `me` is not a group member.
#[derive(Debug)]
pub struct ConsensusAbcast<P> {
    // The shared front; its replay log holds the delivered decided
    // batches, one per instance from `log.base` on (0 except at a member
    // bootstrapped mid-stream by `skip_to`). Batching: own broadcasts
    // enter `log.pending` (and the gossip/proposal machinery) only at
    // the flush.
    log: OrderedLog<P, Batch<P>>,
    pool: ConsensusPool<Batch<P>>,
    // What `pool` queued while handling one input.
    pool_out: Outbox<ConsMsg<Batch<P>>, ConsEvent<Batch<P>>>,
    delivered: RunSet<NodeId>,
    decided: BTreeMap<u64, Batch<P>>,
    next_inst: u64,
    proposed_for: Option<u64>,
    next_gseq: u64,
    // The gseq at `log.base`, where a rewind recounts from.
    base_gseq: u64,
}

impl<P: Message> ConsensusAbcast<P> {
    /// Creates an endpoint for group member `me`.
    pub fn new(me: NodeId, group: Vec<NodeId>, config: ConsensusConfig) -> Self {
        ConsensusAbcast {
            pool: ConsensusPool::new(me, group.clone(), config),
            log: OrderedLog::new(me, group),
            pool_out: Outbox::new(),
            delivered: RunSet::new(),
            decided: BTreeMap::new(),
            next_inst: 0,
            proposed_for: None,
            next_gseq: 0,
            base_gseq: 0,
        }
    }

    /// Sets the batching window (builder form).
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.log.batch = batch;
        self
    }

    /// Broadcasts `payload`; returns its id.
    pub fn broadcast(&mut self, payload: P, out: &mut AbOutbox<P>) -> MsgId {
        let id = self.log.next_id();
        if self.log.batch.enabled() {
            if self.log.stage(id, payload, CONS_FLUSH_TAG, out) {
                self.flush(out);
            }
            return id;
        }
        self.log.pending.insert(id, payload.clone());
        self.gossip(
            || AbMsg::Submit {
                id,
                payload: payload.clone(),
            },
            out,
        );
        self.maybe_propose(out);
        id
    }

    /// Sends `msg()` to every other member.
    fn gossip(&self, msg: impl Fn() -> AbMsg<P>, out: &mut AbOutbox<P>) {
        for &m in &self.log.group {
            if m != self.log.me {
                out.send(m, msg());
            }
        }
    }

    /// Batching: gossip the staged window as one batch and propose. Also
    /// the window-paced proposal point — gossiped-but-undecided messages
    /// (empty stage) still trigger a proposal here, so deferral never
    /// strands a batch.
    fn flush(&mut self, out: &mut AbOutbox<P>) {
        let entries = self.log.take_staged();
        if !entries.is_empty() {
            for (id, p) in &entries {
                self.log.pending.insert(*id, p.clone());
            }
            let batch = Batch::new(entries);
            self.gossip(|| AbMsg::SubmitBatch(batch.clone()), out);
        }
        self.maybe_propose(out);
    }

    /// Gossiped messages arrived: the undelivered ones join the pending
    /// set, and a proposal is scheduled if it grew.
    fn gossiped(&mut self, entries: impl IntoIterator<Item = (MsgId, P)>, out: &mut AbOutbox<P>) {
        let mut grew = false;
        for (id, payload) in entries {
            if !self.delivered.contains(id.origin, id.seq) {
                self.log.pending.insert(id, payload);
                grew = true;
            }
        }
        if grew {
            self.schedule_propose(out);
        }
    }

    /// Schedules the next proposal: immediately when batching is off (the
    /// legacy path), at the next window boundary when it is on. Deferring
    /// keeps the instance rate at one per window instead of one per
    /// network round-trip, so a whole window's traffic is agreed on in a
    /// single instance.
    fn schedule_propose(&mut self, out: &mut AbOutbox<P>) {
        if !self.log.batch.enabled() {
            self.maybe_propose(out);
        } else if !self.log.pending.is_empty() && self.proposed_for != Some(self.next_inst) {
            self.log.arm_flush(CONS_FLUSH_TAG, out);
        }
    }

    fn maybe_propose(&mut self, out: &mut AbOutbox<P>) {
        if self.log.pending.is_empty() || self.proposed_for == Some(self.next_inst) {
            return;
        }
        let batch = Batch::new(
            self.log
                .pending
                .iter()
                .map(|(id, p)| (*id, p.clone()))
                .collect(),
        );
        self.proposed_for = Some(self.next_inst);
        let inst = self.next_inst;
        self.drive_pool(out, |pool, sub| pool.propose(inst, batch, sub));
    }

    /// Runs `f` against the embedded consensus pool with the endpoint's
    /// own scratch outbox, forwards what the pool queued, keeps the
    /// instances it decided and delivers whatever became deliverable.
    fn drive_pool(
        &mut self,
        out: &mut AbOutbox<P>,
        f: impl FnOnce(
            &mut ConsensusPool<Batch<P>>,
            &mut Outbox<ConsMsg<Batch<P>>, ConsEvent<Batch<P>>>,
        ),
    ) {
        let mut sub = std::mem::take(&mut self.pool_out);
        f(&mut self.pool, &mut sub);
        out.absorb(
            &mut sub,
            CONS_BASE,
            AbMsg::Cons,
            |_, ConsEvent::Decided { inst, value }| {
                // Instances below the stream position were already
                // delivered (or are covered by a joiner's bootstrap
                // snapshot): keeping them would leak, they can never
                // drain.
                if inst >= self.next_inst {
                    self.decided.insert(inst, value);
                }
            },
        );
        self.pool_out = sub;
        self.deliver_decided(out);
    }

    /// Delivers the decided batches at the stream position, in instance
    /// order.
    fn deliver_decided(&mut self, out: &mut AbOutbox<P>) {
        let mut progressed = false;
        while let Some(batch) = self.decided.remove(&self.next_inst) {
            self.log.retain(|| batch.clone());
            for (id, payload) in batch.into_entries() {
                self.log.pending.remove(&id);
                if self.delivered.insert(id.origin, id.seq) {
                    let gseq = self.next_gseq;
                    self.next_gseq += 1;
                    out.event(AbDeliver { gseq, id, payload });
                }
            }
            self.next_inst += 1;
            progressed = true;
        }
        if progressed {
            self.schedule_propose(out);
        }
    }
}

impl<P: Message> TotalOrder<P> for ConsensusAbcast<P> {
    fn broadcast(&mut self, payload: P, out: &mut AbOutbox<P>) -> MsgId {
        ConsensusAbcast::broadcast(self, payload, out)
    }

    fn multicast(&mut self, _payload: P, _dests: &[u32], _out: &mut AbOutbox<P>) -> MsgId {
        panic!("multicast needs the genuine endpoint")
    }

    /// The consensus *instance* cursor.
    fn position(&self) -> u64 {
        self.next_inst
    }

    fn delivered_gseq(&self) -> u64 {
        self.next_gseq
    }

    /// The retained decided suffix moves back into the undelivered set,
    /// so the rejoin replays it locally — peers' refills only fill
    /// genuine gaps.
    fn rewind_to(&mut self, inst: u64) {
        let base = self.log.base();
        let log = self.log.replay();
        let inst = inst.max(base);
        if inst >= self.next_inst {
            return;
        }
        let tail = log.split_off((inst - base) as usize);
        // An id can appear in several decided batches (proposals carry
        // whole pending sets), so the delivered-id set and the gseq
        // counter must be recomputed from the retained prefix — not
        // subtracted from the tail, which would double-count repeats.
        let mut delivered = RunSet::new();
        let mut next_gseq = self.base_gseq;
        for batch in log.iter() {
            for (id, _) in batch.entries() {
                if delivered.insert(id.origin, id.seq) {
                    next_gseq += 1;
                }
            }
        }
        self.delivered = delivered;
        self.next_gseq = next_gseq;
        for (k, batch) in tail.into_iter().enumerate() {
            self.decided.entry(inst + k as u64).or_insert(batch);
        }
        self.next_inst = inst;
    }

    /// The (empty) retained log is re-based at `inst`, so later refills
    /// served by this member are indexed correctly.
    fn skip_to(&mut self, inst: u64, gseq: u64) {
        if inst <= self.next_inst {
            return;
        }
        self.decided = self.decided.split_off(&inst);
        self.log.rebase(inst);
        self.next_inst = inst;
        self.next_gseq = self.next_gseq.max(gseq);
        self.base_gseq = self.next_gseq;
    }

    /// Asks every peer for the decided instances from `next_inst`,
    /// re-arms the batching window and resumes stalled consensus rounds.
    fn rejoin(&mut self, out: &mut AbOutbox<P>) {
        let wait = self.log.group.len() > 1;
        self.log.open_rejoin(wait, self.next_inst);
        if wait {
            let from = self.next_inst;
            self.gossip(|| AbMsg::Rejoin { from }, out);
        }
        self.log
            .rearm_flush(!self.log.pending.is_empty(), CONS_FLUSH_TAG, out);
        // Stalled consensus rounds lost their timers in the crash.
        self.drive_pool(out, |pool, sub| pool.resume(sub));
        if !self.log.batch.enabled() {
            self.maybe_propose(out);
        }
    }

    fn take_rejoin_done(&mut self) -> Option<u64> {
        self.log.take_rejoin_done()
    }

    fn group(&self) -> &[NodeId] {
        &self.log.group
    }

    /// Gossip, proposals and the embedded consensus rotation follow the
    /// new membership.
    fn set_group(&mut self, group: Vec<NodeId>) {
        self.pool.set_group(group.clone());
        self.log.group = group;
    }

    fn pending(&self) -> usize {
        self.log.pending.len() + self.log.staged()
    }

    fn set_batching(&mut self, batch: BatchConfig) {
        self.log.batch = batch;
    }

    /// Also the embedded pool's decided values: a batch is then held
    /// only until it is delivered and every other member relayed it.
    fn forget_replay(&mut self) {
        self.log.forget();
        self.pool.forget_decided();
    }

    /// Consensus ordering is symmetric: nobody holds a distinguished role.
    fn is_orderer(&self) -> bool {
        false
    }

    /// No distinguished role, so nothing to hand off.
    fn handoff(&mut self, _to: NodeId, _out: &mut AbOutbox<P>) {}
}

impl<P: Message> Component for ConsensusAbcast<P> {
    type Msg = AbMsg<P>;
    type Event = AbDeliver<P>;

    fn on_message(&mut self, from: NodeId, msg: AbMsg<P>, out: &mut AbOutbox<P>) {
        match msg {
            AbMsg::Submit { id, payload } => self.gossiped([(id, payload)], out),
            AbMsg::SubmitBatch(batch) => self.gossiped(batch.into_entries(), out),
            AbMsg::Cons(c) => {
                self.drive_pool(out, |pool, sub| pool.on_message(from, c, sub));
            }
            AbMsg::Rejoin { from: next_inst } => {
                let (base, high) = (self.log.base(), self.next_inst);
                let log = self.log.replay();
                let idx = ((next_inst.max(base) - base) as usize).min(log.len());
                out.send(
                    from,
                    AbMsg::RejoinBatches {
                        start: base + idx as u64,
                        batches: log[idx..].to_vec(),
                        high,
                    },
                );
            }
            AbMsg::RejoinBatches {
                start,
                batches,
                high,
            } => {
                // Every batch serializes to at least 8 bytes: a refill
                // that grew the decided map counted some.
                let mut bytes = 0;
                for (k, batch) in batches.into_iter().enumerate() {
                    let inst = start + k as u64;
                    if inst >= self.next_inst && !self.decided.contains_key(&inst) {
                        bytes += batch.wire_size() as u64;
                        self.decided.insert(inst, batch);
                    }
                }
                if bytes > 0 {
                    self.deliver_decided(out);
                }
                self.log.refilled(bytes, high, self.next_inst);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, tag: u64, out: &mut AbOutbox<P>) {
        if tag >= CONS_BASE {
            self.drive_pool(out, |pool, sub| pool.on_timer(tag - CONS_BASE, sub));
        } else if tag == CONS_FLUSH_TAG {
            self.flush(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Action;
    use crate::ordered::tests::{outage, Outage, Recovered};
    use crate::testkit::ComponentActor;
    use repl_sim::{NetworkConfig, SimConfig, SimDuration, SimTime, World};
    use std::collections::HashSet;

    type SeqHost = ComponentActor<SequencerAbcast<u32>>;
    type ConsHost = ComponentActor<ConsensusAbcast<u32>>;

    fn deliveries_seq(world: &World<AbMsg<u32>>, n: NodeId) -> Vec<(u64, u32)> {
        world
            .actor_ref::<SeqHost>(n)
            .events
            .iter()
            .map(|(_, d)| (d.gseq, d.payload))
            .collect()
    }

    fn consensus(me: NodeId, group: Vec<NodeId>) -> ConsensusAbcast<u32> {
        ConsensusAbcast::new(me, group, ConsensusConfig::default())
    }

    fn deliveries_cons(world: &World<AbMsg<u32>>, n: NodeId) -> Vec<(u64, u32)> {
        world
            .actor_ref::<ConsHost>(n)
            .events
            .iter()
            .map(|(_, d)| (d.gseq, d.payload))
            .collect()
    }

    #[test]
    fn sequencer_total_order_across_concurrent_broadcasters() {
        let mut world: World<AbMsg<u32>> = World::new(SimConfig::new(5));
        let group: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        for i in 0..4u32 {
            let mut actor =
                ComponentActor::new(SequencerAbcast::<u32>::new(NodeId::new(i), group.clone()));
            // Every node broadcasts three messages at staggered times.
            for k in 0..3u32 {
                let value = i * 10 + k;
                actor = actor.with_step(
                    repl_sim::SimDuration::from_ticks(10 + (k as u64) * 7 + i as u64),
                    move |ab, out| {
                        ab.broadcast(value, out);
                    },
                );
            }
            world.add_actor(Box::new(actor));
        }
        world.start();
        world.run_until(SimTime::from_ticks(100_000));
        let reference = deliveries_seq(&world, group[0]);
        assert_eq!(reference.len(), 12, "all messages delivered");
        let gseqs: Vec<u64> = reference.iter().map(|(g, _)| *g).collect();
        assert_eq!(gseqs, (0..12).collect::<Vec<u64>>(), "dense total order");
        for &n in &group[1..] {
            assert_eq!(deliveries_seq(&world, n), reference, "order differs at {n}");
        }
    }

    #[test]
    fn sequencer_survives_message_loss_via_retransmission() {
        let cfg = SimConfig::new(7).with_network(NetworkConfig::lan().with_drop_prob(0.3));
        let mut world: World<AbMsg<u32>> = World::new(cfg);
        let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        for i in 0..3u32 {
            let mut actor =
                ComponentActor::new(SequencerAbcast::<u32>::new(NodeId::new(i), group.clone()));
            if i == 2 {
                actor = actor.with_step(repl_sim::SimDuration::from_ticks(10), |ab, out| {
                    ab.broadcast(99, out);
                });
            }
            world.add_actor(Box::new(actor));
        }
        world.start();
        world.run_until(SimTime::from_ticks(500_000));
        // Retransmission cannot recover lost *Ordered* copies at other
        // receivers, but the sender must eventually get through.
        assert!(
            deliveries_seq(&world, group[2]).contains(&(0, 99)),
            "sender's own message never confirmed"
        );
    }

    #[test]
    fn retransmission_spares_submissions_younger_than_a_period() {
        // Drives a non-sequencer endpoint by hand; the sequencer never
        // answers, so every submission stays pending.
        fn resent(out: &mut Outbox<AbMsg<u32>, AbDeliver<u32>>) -> Vec<Vec<u32>> {
            let sends = out.drain().into_iter().filter_map(|a| match a {
                Action::Send(_, AbMsg::Submit { payload, .. }) => Some(vec![payload]),
                Action::Send(_, AbMsg::SubmitBatch(b)) => {
                    Some(b.into_entries().into_iter().map(|(_, p)| p).collect())
                }
                _ => None,
            });
            sends.collect()
        }
        let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        for batch in [BatchConfig::disabled(), BatchConfig::window(50)] {
            let mut ab = SequencerAbcast::<u32>::new(group[1], group.clone()).with_batching(batch);
            let mut out = Outbox::new();
            let each = |ps: &[u32]| -> Vec<Vec<u32>> {
                if batch.enabled() {
                    vec![ps.to_vec()]
                } else {
                    ps.iter().map(|&p| vec![p]).collect()
                }
            };
            ab.broadcast(1, &mut out); // arms the timer
            ab.broadcast(2, &mut out); // just before the first firing
            out.drain();
            ab.on_timer(RETRANSMIT_TAG, &mut out);
            assert_eq!(resent(&mut out), each(&[1]), "2 is younger than a period");
            ab.on_timer(RETRANSMIT_TAG, &mut out);
            assert_eq!(
                resent(&mut out),
                each(&[1, 2]),
                "the next firing resends it"
            );
            ab.broadcast(3, &mut out);
            out.drain();
            ab.on_timer(RETRANSMIT_TAG, &mut out);
            assert_eq!(resent(&mut out), each(&[1, 2]), "an old one every period");
            // Confirming everything old leaves nothing to resend: no
            // empty batch goes out.
            for (gseq, seq) in [(0, 0), (1, 1)] {
                let id = MsgId::new(group[1], seq);
                ab.on_message(
                    group[0],
                    AbMsg::Ordered {
                        gseq,
                        id,
                        payload: 0,
                    },
                    &mut out,
                );
            }
            ab.broadcast(4, &mut out);
            out.drain();
            ab.on_timer(RETRANSMIT_TAG, &mut out);
            assert_eq!(resent(&mut out), each(&[3]));
        }
    }

    #[test]
    fn non_member_broadcast_is_ordered_and_confirmed() {
        let mut world: World<AbMsg<u32>> = World::new(SimConfig::new(2));
        let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        for i in 0..3u32 {
            world.add_actor(Box::new(ComponentActor::new(SequencerAbcast::<u32>::new(
                NodeId::new(i),
                group.clone(),
            ))));
        }
        let outsider =
            ComponentActor::new(SequencerAbcast::<u32>::new(NodeId::new(3), group.clone()))
                .with_step(repl_sim::SimDuration::from_ticks(5), |ab, out| {
                    ab.broadcast(77, out);
                });
        let o = world.add_actor(Box::new(outsider));
        world.start();
        world.run_until(SimTime::from_ticks(100_000));
        for &n in &group {
            assert_eq!(deliveries_seq(&world, n), vec![(0, 77)]);
        }
        // The outsider delivers nothing but its pending set drained.
        assert!(deliveries_seq(&world, o).is_empty());
        assert_eq!(world.actor_ref::<SeqHost>(o).inner.pending(), 0);
    }

    #[test]
    fn consensus_abcast_total_order_no_failures() {
        let mut world: World<AbMsg<u32>> = World::new(SimConfig::new(3));
        let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        for i in 0..3u32 {
            let mut actor = ComponentActor::new(ConsensusAbcast::<u32>::new(
                NodeId::new(i),
                group.clone(),
                ConsensusConfig::default(),
            ));
            for k in 0..2u32 {
                let value = i * 10 + k;
                actor = actor.with_step(
                    repl_sim::SimDuration::from_ticks(10 + (k as u64) * 500),
                    move |ab, out| {
                        ab.broadcast(value, out);
                    },
                );
            }
            world.add_actor(Box::new(actor));
        }
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        let reference = deliveries_cons(&world, group[0]);
        assert_eq!(
            reference.len(),
            6,
            "all six messages delivered: {reference:?}"
        );
        for &n in &group[1..] {
            assert_eq!(
                deliveries_cons(&world, n),
                reference,
                "order differs at {n}"
            );
        }
    }

    #[test]
    fn batched_sequencer_total_order_and_fewer_messages() {
        // Same scenario as the unbatched total-order test, once with
        // window 0 and once with a wide window: identical deliveries,
        // strictly fewer network messages.
        fn run(window: u64) -> (Vec<Vec<(u64, u32)>>, u64) {
            let mut world: World<AbMsg<u32>> = World::new(SimConfig::new(5));
            let group: Vec<NodeId> = (0..4).map(NodeId::new).collect();
            for i in 0..4u32 {
                let ab = SequencerAbcast::<u32>::new(NodeId::new(i), group.clone()).with_batching(
                    if window == 0 {
                        BatchConfig::disabled()
                    } else {
                        BatchConfig::window(window)
                    },
                );
                let mut actor = ComponentActor::new(ab);
                for k in 0..3u32 {
                    let value = i * 10 + k;
                    actor = actor.with_step(
                        repl_sim::SimDuration::from_ticks(10 + (k as u64) * 7 + i as u64),
                        move |ab, out| {
                            ab.broadcast(value, out);
                        },
                    );
                }
                world.add_actor(Box::new(actor));
            }
            world.start();
            world.run_until(SimTime::from_ticks(100_000));
            let delivered = group
                .iter()
                .map(|&n| deliveries_seq(&world, n))
                .collect::<Vec<_>>();
            (delivered, world.metrics().messages_sent)
        }
        let (unbatched, msgs_unbatched) = run(0);
        let (batched, msgs_batched) = run(200);
        for d in &batched {
            assert_eq!(d.len(), 12, "all messages delivered under batching");
            assert_eq!(d, &batched[0], "total order violated under batching");
        }
        let values: HashSet<u32> = batched[0].iter().map(|&(_, v)| v).collect();
        let expected: HashSet<u32> = unbatched[0].iter().map(|&(_, v)| v).collect();
        assert_eq!(values, expected, "batching lost or invented messages");
        assert!(
            msgs_batched * 2 <= msgs_unbatched,
            "batching should at least halve message count: {msgs_batched} vs {msgs_unbatched}"
        );
    }

    #[test]
    fn batched_sequencer_window_zero_is_identical() {
        // BatchConfig::disabled() must take the legacy code path: the
        // same world with and without `.with_batching(disabled)` yields
        // identical message counts and deliveries.
        fn run(with_cfg: bool) -> (Vec<(u64, u32)>, u64) {
            let mut world: World<AbMsg<u32>> = World::new(SimConfig::new(9));
            let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
            for i in 0..3u32 {
                let mut ab = SequencerAbcast::<u32>::new(NodeId::new(i), group.clone());
                if with_cfg {
                    ab = ab.with_batching(BatchConfig::disabled());
                }
                let mut actor = ComponentActor::new(ab);
                for k in 0..2u32 {
                    let value = i * 10 + k;
                    actor = actor.with_step(
                        repl_sim::SimDuration::from_ticks(10 + (k as u64) * 13 + i as u64),
                        move |ab, out| {
                            ab.broadcast(value, out);
                        },
                    );
                }
                world.add_actor(Box::new(actor));
            }
            world.start();
            world.run_until(SimTime::from_ticks(100_000));
            (
                deliveries_seq(&world, NodeId::new(0)),
                world.metrics().messages_sent,
            )
        }
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn batched_consensus_total_order_and_fewer_messages() {
        fn run(window: u64) -> (Vec<Vec<(u64, u32)>>, u64) {
            let mut world: World<AbMsg<u32>> = World::new(SimConfig::new(3));
            let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
            for i in 0..3u32 {
                let ab = ConsensusAbcast::<u32>::new(
                    NodeId::new(i),
                    group.clone(),
                    ConsensusConfig::default(),
                )
                .with_batching(if window == 0 {
                    BatchConfig::disabled()
                } else {
                    BatchConfig::window(window)
                });
                let mut actor = ComponentActor::new(ab);
                for k in 0..2u32 {
                    let value = i * 10 + k;
                    actor = actor.with_step(
                        repl_sim::SimDuration::from_ticks(10 + (k as u64) * 40),
                        move |ab, out| {
                            ab.broadcast(value, out);
                        },
                    );
                }
                world.add_actor(Box::new(actor));
            }
            world.start();
            world.run_until(SimTime::from_ticks(300_000));
            let delivered = group
                .iter()
                .map(|&n| deliveries_cons(&world, n))
                .collect::<Vec<_>>();
            (delivered, world.metrics().messages_sent)
        }
        let (unbatched, msgs_unbatched) = run(0);
        let (batched, msgs_batched) = run(300);
        for d in &batched {
            assert_eq!(d.len(), 6, "all six messages delivered under batching");
            assert_eq!(d, &batched[0], "total order violated under batching");
        }
        let values: HashSet<u32> = batched[0].iter().map(|&(_, v)| v).collect();
        let expected: HashSet<u32> = unbatched[0].iter().map(|&(_, v)| v).collect();
        assert_eq!(values, expected, "batching lost or invented messages");
        assert!(
            msgs_batched < msgs_unbatched,
            "batching the consensus abcast should save messages: \
             {msgs_batched} vs {msgs_unbatched}"
        );
    }

    #[test]
    fn batched_consensus_no_partial_batch_after_crash() {
        // A member crashes right after flushing a multi-message batch;
        // the survivors must deliver either the whole batch or none of
        // it, in the same order everywhere — never a partial prefix
        // interleaved differently at different members.
        let mut world: World<AbMsg<u32>> = World::new(SimConfig::new(11));
        let group: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        for i in 0..5u32 {
            let ab = ConsensusAbcast::<u32>::new(
                NodeId::new(i),
                group.clone(),
                ConsensusConfig::default(),
            )
            .with_batching(BatchConfig::window(100));
            let mut actor = ComponentActor::new(ab);
            if i == 0 {
                // The round-0 coordinator broadcasts a 3-message batch
                // (staged together inside one window), then crashes.
                for k in 0..3u32 {
                    actor = actor.with_step(
                        repl_sim::SimDuration::from_ticks(10 + k as u64),
                        move |ab, out| {
                            ab.broadcast(100 + k, out);
                        },
                    );
                }
            }
            if i == 1 {
                actor = actor.with_step(repl_sim::SimDuration::from_ticks(400), |ab, out| {
                    ab.broadcast(7, out);
                });
            }
            world.add_actor(Box::new(actor));
        }
        // Crash right after the batch flush (window 100, staged at ~10).
        world.schedule_crash(SimTime::from_ticks(150), group[0]);
        world.start();
        world.run_until(SimTime::from_ticks(500_000));
        let reference = deliveries_cons(&world, group[1]);
        let batch_vals: Vec<u32> = reference
            .iter()
            .map(|&(_, v)| v)
            .filter(|&v| v >= 100)
            .collect();
        assert!(
            batch_vals == vec![100, 101, 102] || batch_vals.is_empty(),
            "partial batch delivered: {batch_vals:?}"
        );
        assert!(
            reference.iter().any(|&(_, v)| v == 7),
            "survivor broadcast lost"
        );
        for &n in &group[2..] {
            assert_eq!(
                deliveries_cons(&world, n),
                reference,
                "order differs at {n}"
            );
        }
    }

    /// Members 0 and 1 broadcast before, during and after member 2's
    /// outage.
    fn rejoin_outage(seed: u64, per_sender: u32, every: u64, down: u64, up: u64) -> Outage {
        Outage {
            seed,
            senders: 0..2,
            per_sender,
            every,
            victim: 2,
            down,
            up,
            rewind: None,
            until: 0,
        }
    }

    #[test]
    fn sequencer_rejoin_refills_a_recovered_member() {
        let o = Outage {
            until: 200_000,
            ..rejoin_outage(21, 4, 5_000, 1_000, 40_000)
        };
        let r = outage(SequencerAbcast::new, &o);
        assert_eq!(
            r.reference.len(),
            8,
            "all broadcasts ordered: {:?}",
            r.reference
        );
        assert_eq!(r.victim, r.reference, "recovered member's stream has gaps");
        assert_eq!(r.reports.len(), 1, "rejoin never completed");
        assert!(r.reports[0] > 0, "refill carried no bytes");
    }

    #[test]
    fn consensus_rejoin_refills_a_recovered_member() {
        let o = Outage {
            until: 400_000,
            ..rejoin_outage(23, 3, 9_000, 2_000, 60_000)
        };
        let r = outage(consensus, &o);
        assert_eq!(
            r.reference.len(),
            6,
            "all broadcasts ordered: {:?}",
            r.reference
        );
        assert_eq!(r.victim, r.reference, "recovered member's stream has gaps");
        assert_eq!(r.reports.len(), 1, "rejoin never completed");
        assert!(r.reports[0] > 0, "refill carried no bytes");
    }

    /// A disaster recovery: the host lost everything built from past
    /// deliveries, so it rewinds to 0 and refills. The victim's stream is
    /// its pre-outage deliveries plus the full replay, whose suffix must
    /// be the whole reference stream, in order.
    fn replays_after_rewind(r: &Recovered, ordered: usize) {
        assert_eq!(
            r.reference.len(),
            ordered,
            "all broadcasts ordered: {:?}",
            r.reference
        );
        assert!(r.victim.len() >= r.reference.len());
        assert_eq!(
            r.victim[r.victim.len() - r.reference.len()..],
            r.reference[..],
            "replay after rewind differs from the group order"
        );
        assert_eq!(r.reports.len(), 1, "rejoin never completed");
    }

    #[test]
    fn sequencer_rewind_replays_the_stream_after_volume_loss() {
        let o = Outage {
            rewind: Some(0),
            until: 200_000,
            ..rejoin_outage(29, 3, 5_000, 8_000, 40_000)
        };
        replays_after_rewind(&outage(SequencerAbcast::new, &o), 6);
    }

    #[test]
    fn sequencer_member_rewind_self_refills_without_wire_bytes() {
        // The sequencer itself goes down after ordering everything; its
        // retained order log survives (daemon state) and refills its own
        // rewound receiver stream on rejoin.
        let o = Outage {
            seed: 31,
            senders: 1..3,
            per_sender: 2,
            every: 500,
            victim: 0,
            down: 20_000,
            up: 30_000,
            rewind: Some(0),
            until: 200_000,
        };
        let r = outage(SequencerAbcast::new, &o);
        replays_after_rewind(&r, 4);
        assert_eq!(r.reports, [0], "self-refill must carry no wire bytes");
    }

    #[test]
    fn consensus_rewind_replays_the_stream_after_volume_loss() {
        let o = Outage {
            rewind: Some(0),
            until: 400_000,
            ..rejoin_outage(37, 3, 9_000, 12_000, 60_000)
        };
        replays_after_rewind(&outage(consensus, &o), 6);
    }

    /// The `Ordered` copies `out` holds for `to`, as `(gseq, id)`.
    fn ordered_for(out: &mut Outbox<AbMsg<u32>, AbDeliver<u32>>, to: NodeId) -> Vec<(u64, MsgId)> {
        out.drain()
            .into_iter()
            .filter_map(|a| match a {
                crate::Action::Send(n, AbMsg::Ordered { gseq, id, .. }) if n == to => {
                    Some((gseq, id))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn resubmitted_id_keeps_its_first_gseq_also_after_handoff() {
        let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let id = |origin: usize, seq| MsgId::new(group[origin], seq);
        let submit = |id: MsgId| AbMsg::Submit {
            id,
            payload: id.seq as u32,
        };
        let mut seq = SequencerAbcast::<u32>::new(group[0], group.clone());
        let mut out = Outbox::new();
        // Two origins interleaved, one of them out of order, then a
        // retransmission of an id that is already ordered.
        for m in [id(1, 1), id(2, 0), id(1, 0), id(1, 1)] {
            seq.on_message(m.origin, submit(m), &mut out);
        }
        assert_eq!(
            ordered_for(&mut out, group[1]),
            vec![(0, id(1, 1)), (1, id(2, 0)), (2, id(1, 0)), (0, id(1, 1))]
        );
        assert_eq!(
            seq.log.replay().len(),
            3,
            "the retransmission was logged twice"
        );
        // The successor rebuilds the index from the adopted log.
        seq.set_group(group[1..].to_vec());
        seq.handoff(group[1], &mut out);
        let handoff = out
            .drain()
            .into_iter()
            .find_map(|a| match a {
                crate::Action::Send(_, m @ AbMsg::Handoff { .. }) => Some(m),
                _ => None,
            })
            .expect("handoff queued");
        let mut succ = SequencerAbcast::<u32>::new(group[1], group[1..].to_vec());
        succ.on_message(group[0], handoff, &mut out);
        out.drain();
        for m in [id(2, 0), id(2, 1), id(1, 0)] {
            succ.on_message(m.origin, submit(m), &mut out);
        }
        assert_eq!(
            ordered_for(&mut out, group[2]),
            vec![(1, id(2, 0)), (3, id(2, 1)), (2, id(1, 0))]
        );
    }

    #[test]
    fn a_member_reports_a_hole_once_it_outlived_a_retransmit_period() {
        let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let mut ab = SequencerAbcast::<u32>::new(group[2], group.clone());
        let mut out = Outbox::new();
        let ordered = |gseq| AbMsg::Ordered {
            gseq,
            id: MsgId::new(group[1], gseq),
            payload: 0,
        };
        // In order: nothing parked, no timer.
        ab.on_message(group[0], ordered(0), &mut out);
        assert!(!out
            .drain()
            .iter()
            .any(|a| matches!(a, crate::Action::SetTimer(..))));
        // gseq 1 was lost: parking gseq 2 arms the retransmit timer.
        ab.on_message(group[0], ordered(2), &mut out);
        assert!(out
            .drain()
            .iter()
            .any(|a| matches!(a, crate::Action::SetTimer(..))));
        // A hole first seen at a firing may still fill.
        ab.on_timer(RETRANSMIT_TAG, &mut out);
        assert!(!ab.take_behind());
        // The same hole a period later: reported once.
        ab.on_timer(RETRANSMIT_TAG, &mut out);
        assert!(ab.take_behind() && !ab.take_behind());
        // Filled: the next firing disarms the timer and reports nothing.
        ab.on_message(group[0], ordered(1), &mut out);
        assert_eq!(ab.position(), 3);
        out.drain();
        ab.on_timer(RETRANSMIT_TAG, &mut out);
        assert!(!ab.take_behind() && !ab.timer_armed && out.is_empty());
    }

    #[test]
    fn a_gseq_beyond_the_index_panics_rather_than_wrap() {
        let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let mut seq = SequencerAbcast::<u32>::new(group[0], group.clone());
        let mut out = Outbox::new();
        let submit = |seq: &mut SequencerAbcast<u32>, k: u64, out: &mut Outbox<_, _>| {
            let id = MsgId::new(group[1], k);
            seq.on_message(group[1], AbMsg::Submit { id, payload: 0 }, out);
        };
        // The last gseq a 4-byte slot holds is assigned and read back.
        seq.next_gseq = u64::from(UNASSIGNED) - 1;
        submit(&mut seq, 0, &mut out);
        submit(&mut seq, 0, &mut out);
        let copies = ordered_for(&mut out, group[1]);
        assert_eq!(
            copies.iter().map(|c| c.0).collect::<Vec<_>>(),
            [4_294_967_294; 2]
        );
        // The next one does not fit.
        let overflow = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            submit(&mut seq, 1, &mut out);
        }));
        let msg = overflow.expect_err("a gseq past the index wrapped");
        assert_eq!(
            msg.downcast_ref::<String>().map(String::as_str),
            Some("gseq 4294967295 overflows the sequencer's 4-byte gseq index")
        );
    }

    /// Group `0..3`, the sequencer's endpoint (node 0) or a member's,
    /// which keeps no replay log and has delivered one message.
    fn forgetful(me: u32) -> (SequencerAbcast<u32>, Outbox<AbMsg<u32>, AbDeliver<u32>>) {
        let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let mut ab = SequencerAbcast::<u32>::new(group[me as usize], group.clone());
        ab.forget_replay();
        let mut out = Outbox::new();
        let (gseq, id, payload) = (0, MsgId::new(group[1], 0), 5);
        let msg = if me == 0 {
            AbMsg::Submit { id, payload }
        } else {
            AbMsg::Ordered { gseq, id, payload }
        };
        ab.on_message(group[1], msg, &mut out);
        assert_eq!(ab.position(), 1, "the message was delivered");
        (ab, out)
    }

    #[test]
    #[should_panic(expected = "keeps no replay log")]
    fn a_sequencer_without_a_replay_log_refuses_a_rejoin_request() {
        let (mut seq, mut out) = forgetful(0);
        seq.on_message(NodeId::new(2), AbMsg::Rejoin { from: 0 }, &mut out);
    }

    #[test]
    #[should_panic(expected = "keeps no replay log")]
    fn a_sequencer_without_a_replay_log_refuses_its_own_rejoin() {
        let (mut seq, mut out) = forgetful(0);
        seq.rewind_to(0);
        seq.rejoin(&mut out);
    }

    #[test]
    #[should_panic(expected = "keeps no replay log")]
    fn a_member_without_a_replay_log_refuses_to_rejoin() {
        let (mut member, mut out) = forgetful(2);
        member.rejoin(&mut out);
    }

    #[test]
    #[should_panic(expected = "keeps no replay log")]
    fn a_sequencer_without_a_replay_log_refuses_a_handoff() {
        let (mut seq, mut out) = forgetful(0);
        seq.set_group((1..3).map(NodeId::new).collect());
        seq.handoff(NodeId::new(1), &mut out);
    }

    /// A consensus endpoint of group `0..3` that keeps no replay log.
    fn forgetful_consensus() -> ConsensusAbcast<u32> {
        let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let mut ab = ConsensusAbcast::<u32>::new(group[0], group, ConsensusConfig::default());
        ab.forget_replay();
        ab
    }

    #[test]
    #[should_panic(expected = "keeps no replay log")]
    fn a_consensus_endpoint_without_a_replay_log_refuses_a_rejoin_request() {
        let mut out = Outbox::new();
        forgetful_consensus().on_message(NodeId::new(2), AbMsg::Rejoin { from: 0 }, &mut out);
    }

    #[test]
    #[should_panic(expected = "keeps no replay log")]
    fn a_consensus_endpoint_without_a_replay_log_refuses_its_own_rejoin() {
        forgetful_consensus().rejoin(&mut Outbox::new());
    }

    #[test]
    #[should_panic(expected = "keeps no replay log")]
    fn a_consensus_endpoint_without_a_replay_log_refuses_a_rewind() {
        forgetful_consensus().rewind_to(0);
    }

    #[test]
    fn an_endpoint_without_a_replay_log_orders_as_one_with_it() {
        // The total-order scenario of both flavours, once with every
        // endpoint keeping its log and once with none: the same
        // deliveries and the same message count, and nothing retained.
        fn seq(forget: bool) -> (Vec<Vec<(u64, u32)>>, u64) {
            let mut world: World<AbMsg<u32>> = World::new(SimConfig::new(5));
            let group: Vec<NodeId> = (0..4).map(NodeId::new).collect();
            for i in 0..4u32 {
                let mut ab = SequencerAbcast::<u32>::new(NodeId::new(i), group.clone());
                if forget {
                    ab.forget_replay();
                }
                let mut actor = ComponentActor::new(ab);
                for k in 0..3u32 {
                    actor = actor.with_step(
                        SimDuration::from_ticks(10 + u64::from(k) * 7 + u64::from(i)),
                        move |ab, out| {
                            ab.broadcast(i * 10 + k, out);
                        },
                    );
                }
                world.add_actor(Box::new(actor));
            }
            world.start();
            world.run_until(SimTime::from_ticks(100_000));
            for &n in &group {
                let kept = world.actor_ref::<SeqHost>(n).inner.log.kept();
                assert_eq!(
                    kept.map(Vec::len),
                    (!forget).then_some(if n == group[0] { 12 } else { 0 })
                );
            }
            let delivered = group.iter().map(|&n| deliveries_seq(&world, n)).collect();
            (delivered, world.metrics().messages_sent)
        }
        fn cons(forget: bool) -> (Vec<Vec<(u64, u32)>>, u64) {
            let mut world: World<AbMsg<u32>> = World::new(SimConfig::new(3));
            let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
            for i in 0..3u32 {
                let mut ab = ConsensusAbcast::<u32>::new(
                    NodeId::new(i),
                    group.clone(),
                    ConsensusConfig::default(),
                );
                if forget {
                    ab.forget_replay();
                }
                let mut actor = ComponentActor::new(ab);
                for k in 0..2u32 {
                    actor = actor.with_step(
                        SimDuration::from_ticks(10 + u64::from(k) * 500),
                        move |ab, out| {
                            ab.broadcast(i * 10 + k, out);
                        },
                    );
                }
                world.add_actor(Box::new(actor));
            }
            world.start();
            world.run_until(SimTime::from_ticks(300_000));
            for &n in &group {
                let kept = world.actor_ref::<ConsHost>(n).inner.log.kept();
                assert_eq!(kept.is_some(), !forget);
            }
            let delivered = group.iter().map(|&n| deliveries_cons(&world, n)).collect();
            (delivered, world.metrics().messages_sent)
        }
        let (kept, forgot) = (seq(false), seq(true));
        assert_eq!(kept.0[0].len(), 12);
        assert_eq!(kept, forgot);
        let (kept, forgot) = (cons(false), cons(true));
        assert_eq!(kept.0[0].len(), 6);
        assert_eq!(kept, forgot);
    }

    #[test]
    fn member_dedup_state_is_bounded_by_origins_not_by_stream_length() {
        // Links that reorder by more than the send gap: submissions
        // reach the sequencer out of origin order, `Ordered` copies
        // reach the member out of gseq order, and the 2,000-tick
        // retransmit timer re-disseminates young submissions.
        fn retained_at_member(per_origin: u32) -> (usize, usize) {
            let net = NetworkConfig {
                jitter: SimDuration::from_ticks(400),
                fifo_links: false,
                ..NetworkConfig::lan()
            };
            let cfg = SimConfig::new(43).with_network(net).with_trace(false);
            let mut world: World<AbMsg<u32>> = World::new(cfg);
            let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
            for i in 0..3u32 {
                let mut actor =
                    ComponentActor::new(SequencerAbcast::<u32>::new(NodeId::new(i), group.clone()));
                for k in 0..per_origin {
                    actor = actor.with_step(
                        SimDuration::from_ticks(10 + u64::from(k) * 50 + u64::from(i)),
                        move |ab, out| {
                            ab.broadcast(i * 10_000 + k, out);
                        },
                    );
                }
                world.add_actor(Box::new(actor));
            }
            world.start();
            world.run_until(SimTime::from_ticks(1_000_000));
            let host = world.actor_ref::<SeqHost>(group[2]);
            assert_eq!(host.events.len() as u32, 3 * per_origin, "lost deliveries");
            host.inner.recv.retained()
        }
        let short = retained_at_member(60);
        let long = retained_at_member(240);
        assert_eq!(short, long, "(holdback, runs) grew with the stream");
        assert_eq!(long, (0, 3), "one run per origin, nothing parked");
    }

    #[test]
    fn sequencer_handoff_preserves_order_across_decommission() {
        // The sequencer (node 0) retires at t=20k: every endpoint adopts
        // the shrunk group and node 0 ships its order log to node 1, the
        // successor. Broadcasts after the handoff continue the dense
        // gseq stream with no gap and no reordering.
        let mut world: World<AbMsg<u32>> = World::new(SimConfig::new(41));
        let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let shrunk: Vec<NodeId> = group[1..].to_vec();
        for i in 0..3u32 {
            let mut actor =
                ComponentActor::new(SequencerAbcast::<u32>::new(NodeId::new(i), group.clone()));
            for k in 0..2u32 {
                let value = i * 10 + k;
                actor = actor.with_step(
                    repl_sim::SimDuration::from_ticks(10 + (k as u64) * 500 + i as u64),
                    move |ab, out| {
                        ab.broadcast(value, out);
                    },
                );
            }
            let next = shrunk.clone();
            actor = actor.with_step(
                repl_sim::SimDuration::from_ticks(20_000 + i as u64),
                move |ab, out| {
                    let retiring = ab.group()[0];
                    ab.set_group(next.clone());
                    if retiring == NodeId::new(0) && next[0] != NodeId::new(0) {
                        // Only the retiree itself ships the log.
                        if i == 0 {
                            ab.handoff(next[0], out);
                        }
                    }
                },
            );
            if i == 2 {
                actor = actor.with_step(repl_sim::SimDuration::from_ticks(40_000), |ab, out| {
                    ab.broadcast(99, out);
                });
            }
            world.add_actor(Box::new(actor));
        }
        world.start();
        world.run_until(SimTime::from_ticks(200_000));
        let reference = deliveries_seq(&world, group[1]);
        assert_eq!(reference.len(), 7, "all broadcasts ordered: {reference:?}");
        let gseqs: Vec<u64> = reference.iter().map(|(g, _)| *g).collect();
        assert_eq!(
            gseqs,
            (0..7).collect::<Vec<u64>>(),
            "gseq gap after handoff"
        );
        assert_eq!(
            deliveries_seq(&world, group[2]),
            reference,
            "order differs at the other survivor"
        );
        assert!(
            reference.iter().any(|&(_, v)| v == 99),
            "post-handoff broadcast lost"
        );
    }

    #[test]
    fn consensus_abcast_tolerates_member_crash() {
        let mut world: World<AbMsg<u32>> = World::new(SimConfig::new(11));
        let group: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        for i in 0..5u32 {
            let mut actor = ComponentActor::new(ConsensusAbcast::<u32>::new(
                NodeId::new(i),
                group.clone(),
                ConsensusConfig::default(),
            ));
            if i == 1 {
                actor = actor.with_step(repl_sim::SimDuration::from_ticks(10), |ab, out| {
                    ab.broadcast(5, out);
                });
                actor = actor.with_step(repl_sim::SimDuration::from_ticks(5_000), |ab, out| {
                    ab.broadcast(6, out);
                });
            }
            world.add_actor(Box::new(actor));
        }
        // Crash node 0 (the round-0 coordinator) mid-stream.
        world.schedule_crash(SimTime::from_ticks(300), group[0]);
        world.start();
        world.run_until(SimTime::from_ticks(500_000));
        let reference = deliveries_cons(&world, group[1]);
        assert_eq!(
            reference.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![5, 6],
            "survivor missed messages"
        );
        for &n in &group[2..] {
            assert_eq!(
                deliveries_cons(&world, n),
                reference,
                "order differs at {n}"
            );
        }
    }
}
