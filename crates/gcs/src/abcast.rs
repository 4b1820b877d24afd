//! Atomic Broadcast (ABCAST): totally ordered, reliable dissemination.
//!
//! Two interchangeable implementations, compared by ablation A2:
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
//! number; within a batch, messages are ordered by [`MsgId`].

use std::collections::BTreeMap;
use std::sync::Arc;

use repl_sim::{Message, NodeId, SimDuration};

use crate::component::{Component, Outbox};
use crate::consensus::{ConsEvent, ConsMsg, ConsensusConfig, ConsensusPool};
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
/// one window into a single dissemination round. `max_batch` /
/// `max_bytes` bound a batch and force an early flush.
///
/// `BatchConfig::disabled()` (window 0) is the default and keeps the
/// unbatched code paths byte-for-byte: no staging, no extra timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum staging delay before a batch is flushed (0 = batching off).
    pub max_delay_ticks: u64,
    /// Flush early once this many messages are staged.
    pub max_batch: usize,
    /// Flush early once the staged payloads reach this many wire bytes.
    pub max_bytes: usize,
}

impl BatchConfig {
    /// Batching off: every broadcast pays its own ordering round.
    pub const fn disabled() -> Self {
        BatchConfig {
            max_delay_ticks: 0,
            max_batch: usize::MAX,
            max_bytes: usize::MAX,
        }
    }

    /// A batching window of `ticks` with the default size bounds
    /// (64 messages / 64 KiB per batch).
    pub const fn window(ticks: u64) -> Self {
        BatchConfig {
            max_delay_ticks: ticks,
            max_batch: 64,
            max_bytes: 64 << 10,
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

/// Wire message of [`SequencerAbcast`].
#[derive(Debug, Clone)]
pub enum SeqAbMsg<P> {
    /// Sender → sequencer: please order this message.
    Submit {
        /// Unique id of the broadcast.
        id: MsgId,
        /// Application payload.
        payload: P,
    },
    /// Sequencer → group (and non-member origins): ordered message.
    Ordered {
        /// Global sequence number.
        gseq: u64,
        /// Unique id of the broadcast.
        id: MsgId,
        /// Application payload.
        payload: P,
    },
    /// Sender → sequencer: please order this whole batch (batching on).
    SubmitBatch(Batch<P>),
    /// Sequencer → group (and non-member origins): one dissemination
    /// round carrying every message ordered in the window.
    OrderedBatch {
        /// `(gseq, id, payload)` in assignment order.
        entries: Arc<Vec<(u64, MsgId, P)>>,
    },
    /// Recovered member → sequencer: refill the ordered stream from
    /// global sequence number `have`.
    Rejoin {
        /// The requester's next undelivered gseq.
        have: u64,
    },
    /// Sequencer → recovered member: the missed suffix of the order,
    /// plus the current high watermark (sent even when empty, so the
    /// member learns it is caught up).
    RejoinData {
        /// First gseq carried.
        start: u64,
        /// `(gseq, id, payload)` in order.
        entries: Arc<Vec<(u64, MsgId, P)>>,
        /// The sequencer's next gseq: the stream position the member
        /// has caught up to after applying `entries`.
        high: u64,
    },
    /// Retiring sequencer → successor (elastic decommission): the full
    /// retained order. The successor adopts it if longer than its own,
    /// which preserves gseq-assignment continuity across the handoff.
    Handoff {
        /// `(id, payload)`; index == gseq.
        entries: Arc<Vec<(MsgId, P)>>,
    },
}

impl<P: Message> Message for SeqAbMsg<P> {
    fn wire_size(&self) -> usize {
        match self {
            SeqAbMsg::Submit { payload, .. } => 16 + payload.wire_size(),
            SeqAbMsg::Ordered { payload, .. } => 24 + payload.wire_size(),
            SeqAbMsg::SubmitBatch(b) => b.wire_size(),
            // Honest accounting: a batch still serializes every entry's
            // gseq + id + payload; only the per-message framing (8 bytes
            // here) is amortized across the batch.
            SeqAbMsg::OrderedBatch { entries } => {
                8 + entries
                    .iter()
                    .map(|(_, _, p)| 24 + p.wire_size())
                    .sum::<usize>()
            }
            SeqAbMsg::Rejoin { .. } => 16,
            SeqAbMsg::RejoinData { entries, .. } => {
                24 + entries
                    .iter()
                    .map(|(_, _, p)| 24 + p.wire_size())
                    .sum::<usize>()
            }
            SeqAbMsg::Handoff { entries } => {
                16 + entries
                    .iter()
                    .map(|(_, p)| 24 + p.wire_size())
                    .sum::<usize>()
            }
        }
    }
}

const RETRANSMIT_TAG: u64 = 0;
/// Sender role: flush the staged batch to the sequencer.
const FLUSH_TAG: u64 = 1;
/// Sequencer role: close the accumulation window and disseminate.
const ORDER_FLUSH_TAG: u64 = 2;

/// "No gseq yet" in a [`GseqIndex`] slot.
const UNASSIGNED: u64 = u64::MAX;

/// Sequencer role: the gseq assigned to each id. Origins number their
/// broadcasts densely from 0, so the map is one slot table per origin,
/// indexed by the origin's local sequence number.
#[derive(Debug, Default)]
struct GseqIndex(BTreeMap<NodeId, Vec<u64>>);

impl GseqIndex {
    /// The slot of `id`, [`UNASSIGNED`] until written.
    fn slot(&mut self, id: MsgId) -> &mut u64 {
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
    me: NodeId,
    group: Vec<NodeId>,
    member: bool,
    retransmit_every: SimDuration,
    batch: BatchConfig,
    next_local: u64,
    // BTreeMap so retransmission iterates in MsgId order (deterministic).
    pending: BTreeMap<MsgId, P>,
    timer_armed: bool,
    // `next_local` when the retransmit timer was armed: its firing
    // resends only the submissions below it.
    resend_below: u64,
    // Sender role, batching: own broadcasts staged for the next flush.
    staged: Vec<(MsgId, P)>,
    staged_bytes: usize,
    flush_armed: bool,
    // Sequencer role.
    ordered: GseqIndex,
    next_gseq: u64,
    // Sequencer role: retained ordered payloads indexed by gseq, for
    // refilling rejoining members after a crash.
    order_log: Vec<(MsgId, P)>,
    // Sequencer role, batching: submissions accumulated in the window.
    order_staged: Vec<(u64, MsgId, P)>,
    order_flush_armed: bool,
    recv: OrderedReceiver<P>,
    // Recovery: a rejoin handshake in flight, bytes refilled so far,
    // and the completed-rejoin report for the host to take.
    rejoin_wait: bool,
    rejoin_bytes: u64,
    rejoin_done: Option<u64>,
}

impl<P: Message> SequencerAbcast<P> {
    /// Creates an endpoint for `me`; the sequencer is `group[0]`.
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty.
    pub fn new(me: NodeId, group: Vec<NodeId>) -> Self {
        assert!(!group.is_empty(), "group must not be empty");
        let member = group.contains(&me);
        SequencerAbcast {
            me,
            group,
            member,
            retransmit_every: SimDuration::from_ticks(2_000),
            batch: BatchConfig::disabled(),
            next_local: 0,
            pending: BTreeMap::new(),
            timer_armed: false,
            resend_below: 0,
            staged: Vec::new(),
            staged_bytes: 0,
            flush_armed: false,
            ordered: GseqIndex::default(),
            next_gseq: 0,
            order_log: Vec::new(),
            order_staged: Vec::new(),
            order_flush_armed: false,
            recv: OrderedReceiver::new(),
            rejoin_wait: false,
            rejoin_bytes: 0,
            rejoin_done: None,
        }
    }

    /// Sets the batching window (builder form).
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the batching window in place.
    pub fn set_batching(&mut self, batch: BatchConfig) {
        self.batch = batch;
    }

    /// The sequencer node.
    pub fn sequencer(&self) -> NodeId {
        self.group[0]
    }

    /// The current group.
    pub fn group(&self) -> &[NodeId] {
        &self.group
    }

    /// Replaces the group (elastic membership). Membership decides who
    /// receives dissemination rounds and who the sequencer (`group[0]`)
    /// is; unconfirmed submissions simply retransmit to the new
    /// sequencer. The local process may leave the group: it stops
    /// delivering but keeps confirming in-flight submissions.
    pub fn set_group(&mut self, group: Vec<NodeId>) {
        assert!(!group.is_empty(), "group must not be empty");
        self.group = group;
        self.member = self.group.contains(&self.me);
    }

    /// Fast-forwards the receiver stream to `gseq` (no-op when not
    /// ahead): a brand-new member bootstrapped from a state snapshot
    /// taken at stream position `gseq` starts delivering there instead
    /// of replaying history it already holds in the snapshot.
    pub fn skip_to(&mut self, gseq: u64) {
        self.recv.skip_to(gseq);
    }

    /// Sequencer role handoff (planned decommission): ships the full
    /// retained order to `to`, the designated successor. Call after
    /// [`set_group`](Self::set_group) moved the local process out of
    /// `group[0]`; the successor adopts the longer log and continues
    /// gseq assignment where the retiree stopped.
    pub fn handoff(&mut self, to: NodeId, out: &mut Outbox<SeqAbMsg<P>, AbDeliver<P>>) {
        out.send(
            to,
            SeqAbMsg::Handoff {
                entries: Arc::new(self.order_log.clone()),
            },
        );
    }

    /// Number of own broadcasts not yet confirmed ordered.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Broadcasts `payload`; returns its id.
    pub fn broadcast(&mut self, payload: P, out: &mut Outbox<SeqAbMsg<P>, AbDeliver<P>>) -> MsgId {
        let id = MsgId::new(self.me, self.next_local);
        self.next_local += 1;
        self.pending.insert(id, payload.clone());
        if self.batch.enabled() {
            self.staged_bytes += payload.wire_size();
            self.staged.push((id, payload));
            if self.staged.len() >= self.batch.max_batch
                || self.staged_bytes >= self.batch.max_bytes
            {
                self.flush_submit(out);
            } else if !self.flush_armed {
                self.flush_armed = true;
                out.timer(
                    SimDuration::from_ticks(self.batch.max_delay_ticks),
                    FLUSH_TAG,
                );
            }
        } else {
            out.send(self.sequencer(), SeqAbMsg::Submit { id, payload });
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
    fn arm_retransmit(&mut self, out: &mut Outbox<SeqAbMsg<P>, AbDeliver<P>>) {
        self.resend_below = self.next_local;
        out.timer(self.retransmit_every, RETRANSMIT_TAG);
    }

    /// Sender role: ship the staged batch to the sequencer in one message.
    fn flush_submit(&mut self, out: &mut Outbox<SeqAbMsg<P>, AbDeliver<P>>) {
        self.flush_armed = false;
        if self.staged.is_empty() {
            return;
        }
        let entries = std::mem::take(&mut self.staged);
        self.staged_bytes = 0;
        out.send(self.sequencer(), SeqAbMsg::SubmitBatch(Batch::new(entries)));
    }

    /// Assigns `id` its global sequence number (idempotent) and retains
    /// the payload in the order log for later rejoin refills.
    fn assign_gseq(&mut self, id: MsgId, payload: &P) -> u64 {
        let slot = self.ordered.slot(id);
        if *slot == UNASSIGNED {
            *slot = self.next_gseq;
            self.next_gseq += 1;
            self.order_log.push((id, payload.clone()));
        }
        *slot
    }

    fn order(&mut self, id: MsgId, payload: P, out: &mut Outbox<SeqAbMsg<P>, AbDeliver<P>>) {
        let gseq = self.assign_gseq(id, &payload);
        for &m in &self.group {
            if m != self.me {
                out.send(
                    m,
                    SeqAbMsg::Ordered {
                        gseq,
                        id,
                        payload: payload.clone(),
                    },
                );
            }
        }
        if !self.group.contains(&id.origin) && id.origin != self.me {
            out.send(
                id.origin,
                SeqAbMsg::Ordered {
                    gseq,
                    id,
                    payload: payload.clone(),
                },
            );
        }
        self.accept(gseq, id, payload, out);
    }

    /// Sequencer role, batching: stage ordered submissions and
    /// disseminate everything accumulated in one window together.
    fn order_batched(
        &mut self,
        entries: Vec<(MsgId, P)>,
        out: &mut Outbox<SeqAbMsg<P>, AbDeliver<P>>,
    ) {
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
        if self.order_staged.len() >= self.batch.max_batch {
            self.flush_order(out);
        } else if !self.order_staged.is_empty() && !self.order_flush_armed {
            self.order_flush_armed = true;
            out.timer(
                SimDuration::from_ticks(self.batch.max_delay_ticks),
                ORDER_FLUSH_TAG,
            );
        }
    }

    /// Sequencer role, batching: one dissemination round for the window.
    fn flush_order(&mut self, out: &mut Outbox<SeqAbMsg<P>, AbDeliver<P>>) {
        self.order_flush_armed = false;
        if self.order_staged.is_empty() {
            return;
        }
        let entries = Arc::new(std::mem::take(&mut self.order_staged));
        for &m in &self.group {
            if m != self.me {
                out.send(
                    m,
                    SeqAbMsg::OrderedBatch {
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
            if origin != self.me && !self.group.contains(&origin) {
                match outsiders.iter_mut().find(|(o, _)| *o == origin) {
                    Some((_, v)) => v.push(e.clone()),
                    None => outsiders.push((origin, vec![e.clone()])),
                }
            }
        }
        for (origin, mine) in outsiders {
            out.send(
                origin,
                SeqAbMsg::OrderedBatch {
                    entries: Arc::new(mine),
                },
            );
        }
        for (gseq, id, payload) in entries.iter() {
            self.accept(*gseq, *id, payload.clone(), out);
        }
    }

    /// Call once after a crash + recovery (state is retained, timers are
    /// not): re-arms the endpoint's timers and, for a non-sequencer
    /// member, asks the sequencer to refill the ordered stream from
    /// [`position`](Self::position). The refill request is
    /// retransmitted alongside pending submissions until answered.
    /// Completion (with the refill byte count) is reported through
    /// [`SequencerAbcast::take_rejoin_done`].
    pub fn rejoin(&mut self, out: &mut Outbox<SeqAbMsg<P>, AbDeliver<P>>) {
        self.rejoin_bytes = 0;
        if self.member && self.me != self.sequencer() {
            self.rejoin_wait = true;
            self.rejoin_done = None;
            out.send(
                self.sequencer(),
                SeqAbMsg::Rejoin {
                    have: self.recv.position(),
                },
            );
        } else {
            // The sequencer retains the full order itself (and senders
            // retransmit unordered submissions), so it refills its own
            // receiver stream locally — after a disaster rewind the
            // stream restarts behind `next_gseq`. Zero wire bytes.
            // Non-members deliver nothing.
            if self.member {
                while self.recv.position() < self.next_gseq {
                    let g = self.recv.position();
                    let (id, payload) = self.order_log[g as usize].clone();
                    self.accept(g, id, payload, out);
                }
            }
            self.rejoin_wait = false;
            self.rejoin_done = Some(0);
        }
        self.timer_armed = !self.pending.is_empty() || self.rejoin_wait;
        if self.timer_armed {
            self.arm_retransmit(out);
        }
        self.flush_armed = self.batch.enabled() && !self.staged.is_empty();
        if self.flush_armed {
            out.timer(
                SimDuration::from_ticks(self.batch.max_delay_ticks),
                FLUSH_TAG,
            );
        }
        self.order_flush_armed = self.batch.enabled() && !self.order_staged.is_empty();
        if self.order_flush_armed {
            out.timer(
                SimDuration::from_ticks(self.batch.max_delay_ticks),
                ORDER_FLUSH_TAG,
            );
        }
    }

    /// Takes the completed-rejoin report: `Some(refill_bytes)` once the
    /// endpoint has caught up with the stream after [`rejoin`], `None`
    /// before that (and after the report was taken).
    ///
    /// [`rejoin`]: SequencerAbcast::rejoin
    pub fn take_rejoin_done(&mut self) -> Option<u64> {
        self.rejoin_done.take()
    }

    /// The receiver's stream position: the next gseq it will deliver.
    /// Everything below it has already been handed to the host.
    pub fn position(&self) -> u64 {
        self.recv.position()
    }

    /// Rewinds the receiver stream to `gseq` (no-op if not behind the
    /// current position): a host that lost the state derived from
    /// deliveries `[gseq, position())` — e.g. to a volume-loss disaster
    /// — calls this before [`rejoin`](Self::rejoin), and the refill
    /// re-delivers from `gseq` in the original order. Only receiver
    /// state moves; the sequencer role's retained order is untouched.
    pub fn rewind_to(&mut self, gseq: u64) {
        self.recv.rewind_to(gseq);
    }

    fn accept(
        &mut self,
        gseq: u64,
        id: MsgId,
        payload: P,
        out: &mut Outbox<SeqAbMsg<P>, AbDeliver<P>>,
    ) {
        self.pending.remove(&id);
        if self.member {
            self.recv.accept(gseq, id, payload, |d| out.event(d));
        }
    }
}

impl<P: Message> Component for SequencerAbcast<P> {
    type Msg = SeqAbMsg<P>;
    type Event = AbDeliver<P>;

    fn on_message(
        &mut self,
        from: NodeId,
        msg: SeqAbMsg<P>,
        out: &mut Outbox<SeqAbMsg<P>, AbDeliver<P>>,
    ) {
        match msg {
            SeqAbMsg::Submit { id, payload } => {
                if self.me == self.sequencer() {
                    if self.batch.enabled() {
                        self.order_batched(vec![(id, payload)], out);
                    } else {
                        self.order(id, payload, out);
                    }
                }
            }
            SeqAbMsg::SubmitBatch(batch) => {
                if self.me == self.sequencer() {
                    let entries = batch.into_entries();
                    if self.batch.enabled() {
                        self.order_batched(entries, out);
                    } else {
                        for (id, payload) in entries {
                            self.order(id, payload, out);
                        }
                    }
                }
            }
            SeqAbMsg::Ordered { gseq, id, payload } => {
                self.accept(gseq, id, payload, out);
            }
            SeqAbMsg::OrderedBatch { entries } => {
                for (gseq, id, payload) in entries.iter() {
                    self.accept(*gseq, *id, payload.clone(), out);
                }
            }
            SeqAbMsg::Rejoin { have } => {
                if self.me == self.sequencer() {
                    let start = have.min(self.next_gseq);
                    let entries: Vec<(u64, MsgId, P)> = (start..self.next_gseq)
                        .map(|g| {
                            let (id, p) = self.order_log[g as usize].clone();
                            (g, id, p)
                        })
                        .collect();
                    out.send(
                        from,
                        SeqAbMsg::RejoinData {
                            start,
                            entries: Arc::new(entries),
                            high: self.next_gseq,
                        },
                    );
                }
            }
            SeqAbMsg::RejoinData { entries, high, .. } => {
                let bytes: usize = entries
                    .iter()
                    .map(|(_, _, p)| 24 + p.wire_size())
                    .sum::<usize>()
                    + 24;
                for (gseq, id, payload) in entries.iter() {
                    self.accept(*gseq, *id, payload.clone(), out);
                }
                if self.rejoin_wait {
                    self.rejoin_bytes += bytes as u64;
                    if self.recv.position() >= high {
                        self.rejoin_wait = false;
                        self.rejoin_done = Some(self.rejoin_bytes);
                    }
                }
            }
            SeqAbMsg::Handoff { entries } => {
                if entries.len() as u64 > self.next_gseq {
                    self.ordered = GseqIndex::default();
                    for (g, (id, _)) in entries.iter().enumerate() {
                        *self.ordered.slot(*id) = g as u64;
                    }
                    self.order_log = (*entries).clone();
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
        }
    }

    fn on_timer(&mut self, tag: u64, out: &mut Outbox<SeqAbMsg<P>, AbDeliver<P>>) {
        match tag {
            FLUSH_TAG => self.flush_submit(out),
            ORDER_FLUSH_TAG => self.flush_order(out),
            RETRANSMIT_TAG => {
                if self.rejoin_wait {
                    // An unanswered refill request (lost, or the
                    // sequencer itself was down): ask again.
                    out.send(
                        self.sequencer(),
                        SeqAbMsg::Rejoin {
                            have: self.recv.position(),
                        },
                    );
                }
                if self.pending.is_empty() {
                    if self.rejoin_wait {
                        self.arm_retransmit(out);
                    } else {
                        self.timer_armed = false;
                    }
                    return;
                }
                let seq = self.sequencer();
                // Own ids sort by `seq`: the submissions a period old.
                let aged = MsgId::new(self.me, self.resend_below);
                let old = self.pending.range(..aged);
                if self.batch.enabled() {
                    // Retransmit them as one batch.
                    let entries: Vec<(MsgId, P)> = old.map(|(&id, p)| (id, p.clone())).collect();
                    if !entries.is_empty() {
                        out.send(seq, SeqAbMsg::SubmitBatch(Batch::new(entries)));
                    }
                } else {
                    for (&id, payload) in old {
                        out.send(
                            seq,
                            SeqAbMsg::Submit {
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

/// Wire message of [`ConsensusAbcast`].
#[derive(Debug, Clone)]
pub enum CAbMsg<P> {
    /// Gossip of a pending message to all members.
    Submit {
        /// Unique id of the broadcast.
        id: MsgId,
        /// Application payload.
        payload: P,
    },
    /// Gossip of a whole staged batch to all members (batching on).
    SubmitBatch(Batch<P>),
    /// Embedded consensus traffic.
    Cons(ConsMsg<Batch<P>>),
    /// Recovered member → group: refill decided instances from
    /// `next_inst`.
    Rejoin {
        /// The requester's next undelivered consensus instance.
        next_inst: u64,
    },
    /// Peer → recovered member: retained decided batches
    /// `[start, start + batches.len())` plus the responder's own
    /// watermark (sent even when empty, so the member learns it is
    /// caught up).
    RejoinData {
        /// Instance of the first batch carried.
        start: u64,
        /// Decided batches in instance order.
        batches: Vec<Batch<P>>,
        /// The responder's next instance.
        high: u64,
    },
}

impl<P: Message> Message for CAbMsg<P> {
    fn wire_size(&self) -> usize {
        match self {
            CAbMsg::Submit { payload, .. } => 16 + payload.wire_size(),
            CAbMsg::SubmitBatch(b) => b.wire_size(),
            CAbMsg::Cons(c) => 8 + c.wire_size(),
            CAbMsg::Rejoin { .. } => 16,
            CAbMsg::RejoinData { batches, .. } => {
                24 + batches.iter().map(Batch::wire_size).sum::<usize>()
            }
        }
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
    me: NodeId,
    group: Vec<NodeId>,
    pool: ConsensusPool<Batch<P>>,
    // What `pool` queued while handling one input.
    pool_out: Outbox<ConsMsg<Batch<P>>, ConsEvent<Batch<P>>>,
    batch: BatchConfig,
    next_local: u64,
    pending: BTreeMap<MsgId, P>,
    // Batching: own broadcasts staged until the window flushes; they
    // enter `pending` (and the gossip/proposal machinery) at the flush.
    staged: Vec<(MsgId, P)>,
    staged_bytes: usize,
    flush_armed: bool,
    delivered: RunSet<NodeId>,
    decided: BTreeMap<u64, Batch<P>>,
    next_inst: u64,
    proposed_for: Option<u64>,
    next_gseq: u64,
    // Delivered decided batches retained in instance order (index ==
    // instance - log_base), for refilling rejoining members after a
    // crash. log_base/base_gseq are 0 except at elastically joined
    // members bootstrapped mid-stream via `skip_to`, whose log starts
    // at their snapshot position.
    decided_log: Vec<Batch<P>>,
    log_base: u64,
    base_gseq: u64,
    // Recovery: a rejoin handshake in flight, the highest watermark a
    // responder reported, bytes refilled, and the completion report.
    rejoin_wait: bool,
    rejoin_high: u64,
    rejoin_bytes: u64,
    rejoin_done: Option<u64>,
}

impl<P: Message> ConsensusAbcast<P> {
    /// Creates an endpoint for group member `me`.
    pub fn new(me: NodeId, group: Vec<NodeId>, config: ConsensusConfig) -> Self {
        let pool = ConsensusPool::new(me, group.clone(), config);
        ConsensusAbcast {
            me,
            group,
            pool,
            pool_out: Outbox::new(),
            batch: BatchConfig::disabled(),
            next_local: 0,
            pending: BTreeMap::new(),
            staged: Vec::new(),
            staged_bytes: 0,
            flush_armed: false,
            delivered: RunSet::new(),
            decided: BTreeMap::new(),
            next_inst: 0,
            proposed_for: None,
            next_gseq: 0,
            decided_log: Vec::new(),
            log_base: 0,
            base_gseq: 0,
            rejoin_wait: false,
            rejoin_high: 0,
            rejoin_bytes: 0,
            rejoin_done: None,
        }
    }

    /// Sets the batching window (builder form).
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the batching window in place.
    pub fn set_batching(&mut self, batch: BatchConfig) {
        self.batch = batch;
    }

    /// Number of own or gossiped messages not yet delivered.
    pub fn pending(&self) -> usize {
        self.pending.len() + self.staged.len()
    }

    /// The next global sequence number this endpoint will assign — the
    /// count of unique messages delivered so far. Unlike
    /// [`ConsensusAbcast::position`] (the consensus *instance* cursor)
    /// this counts messages, so a snapshot donor can ship both
    /// coordinates to a joiner.
    pub fn delivered_gseq(&self) -> u64 {
        self.next_gseq
    }

    /// The current group.
    pub fn group(&self) -> &[NodeId] {
        &self.group
    }

    /// Replaces the group (elastic membership): gossip, proposals and
    /// the embedded consensus rotation follow the new membership. The
    /// local process may leave the group — it keeps relaying in-flight
    /// decisions but originates nothing new.
    pub fn set_group(&mut self, group: Vec<NodeId>) {
        self.pool.set_group(group.clone());
        self.group = group;
    }

    /// Fast-forwards the delivery stream to instance `inst` / global
    /// sequence `gseq` (no-op when not ahead): a brand-new member
    /// bootstrapped from a state snapshot taken at that stream position
    /// starts delivering there. The (empty) retained log is re-based at
    /// `inst`, so later rejoin refills served by this member are indexed
    /// correctly.
    pub fn skip_to(&mut self, inst: u64, gseq: u64) {
        if inst <= self.next_inst {
            return;
        }
        self.decided = self.decided.split_off(&inst);
        self.decided_log.clear();
        self.next_inst = inst;
        self.log_base = inst;
        self.next_gseq = self.next_gseq.max(gseq);
        self.base_gseq = self.next_gseq;
    }

    /// Broadcasts `payload`; returns its id.
    pub fn broadcast(&mut self, payload: P, out: &mut Outbox<CAbMsg<P>, AbDeliver<P>>) -> MsgId {
        let id = MsgId::new(self.me, self.next_local);
        self.next_local += 1;
        if self.batch.enabled() {
            self.staged_bytes += payload.wire_size();
            self.staged.push((id, payload));
            if self.staged.len() >= self.batch.max_batch
                || self.staged_bytes >= self.batch.max_bytes
            {
                self.flush(out);
            } else if !self.flush_armed {
                self.flush_armed = true;
                out.timer(
                    SimDuration::from_ticks(self.batch.max_delay_ticks),
                    CONS_FLUSH_TAG,
                );
            }
            return id;
        }
        self.pending.insert(id, payload.clone());
        for &m in &self.group {
            if m != self.me {
                out.send(
                    m,
                    CAbMsg::Submit {
                        id,
                        payload: payload.clone(),
                    },
                );
            }
        }
        self.maybe_propose(out);
        id
    }

    /// Batching: gossip the staged window as one batch and propose. Also
    /// the window-paced proposal point — gossiped-but-undecided messages
    /// (empty stage) still trigger a proposal here, so deferral never
    /// strands a batch.
    fn flush(&mut self, out: &mut Outbox<CAbMsg<P>, AbDeliver<P>>) {
        self.flush_armed = false;
        if !self.staged.is_empty() {
            let entries = std::mem::take(&mut self.staged);
            self.staged_bytes = 0;
            for (id, p) in &entries {
                self.pending.insert(*id, p.clone());
            }
            let batch = Batch::new(entries);
            for &m in &self.group {
                if m != self.me {
                    out.send(m, CAbMsg::SubmitBatch(batch.clone()));
                }
            }
        }
        self.maybe_propose(out);
    }

    /// Schedules the next proposal: immediately when batching is off (the
    /// legacy path), at the next window boundary when it is on. Deferring
    /// keeps the instance rate at one per window instead of one per
    /// network round-trip, so a whole window's traffic is agreed on in a
    /// single instance.
    fn schedule_propose(&mut self, out: &mut Outbox<CAbMsg<P>, AbDeliver<P>>) {
        if !self.batch.enabled() {
            self.maybe_propose(out);
            return;
        }
        if self.pending.is_empty() || self.proposed_for == Some(self.next_inst) {
            return;
        }
        if !self.flush_armed {
            self.flush_armed = true;
            out.timer(
                SimDuration::from_ticks(self.batch.max_delay_ticks),
                CONS_FLUSH_TAG,
            );
        }
    }

    fn maybe_propose(&mut self, out: &mut Outbox<CAbMsg<P>, AbDeliver<P>>) {
        if self.pending.is_empty() || self.proposed_for == Some(self.next_inst) {
            return;
        }
        let batch = Batch::new(
            self.pending
                .iter()
                .map(|(id, p)| (*id, p.clone()))
                .collect(),
        );
        self.proposed_for = Some(self.next_inst);
        let inst = self.next_inst;
        self.drive_pool(out, |pool, sub| pool.propose(inst, batch, sub));
    }

    /// Call once after a crash + recovery (state is retained, timers are
    /// not): asks every peer to refill the decided-instance stream from
    /// `next_inst`, re-arms the batching window, and resumes stalled
    /// consensus rounds. Completion (with the refill byte count) is
    /// reported through [`ConsensusAbcast::take_rejoin_done`].
    pub fn rejoin(&mut self, out: &mut Outbox<CAbMsg<P>, AbDeliver<P>>) {
        self.rejoin_bytes = 0;
        self.rejoin_high = self.next_inst;
        if self.group.len() > 1 {
            self.rejoin_wait = true;
            self.rejoin_done = None;
            for &m in &self.group {
                if m != self.me {
                    out.send(
                        m,
                        CAbMsg::Rejoin {
                            next_inst: self.next_inst,
                        },
                    );
                }
            }
        } else {
            self.rejoin_wait = false;
            self.rejoin_done = Some(0);
        }
        // Re-arm the batching flush window if anything was in flight.
        self.flush_armed = false;
        if self.batch.enabled() && (!self.staged.is_empty() || !self.pending.is_empty()) {
            self.flush_armed = true;
            out.timer(
                SimDuration::from_ticks(self.batch.max_delay_ticks),
                CONS_FLUSH_TAG,
            );
        }
        // Stalled consensus rounds lost their timers in the crash.
        self.drive_pool(out, |pool, sub| pool.resume(sub));
        if !self.batch.enabled() {
            self.maybe_propose(out);
        }
    }

    /// Takes the completed-rejoin report: `Some(refill_bytes)` once the
    /// endpoint has caught up to a responder's watermark after
    /// [`rejoin`], `None` before that (and after the report was taken).
    ///
    /// [`rejoin`]: ConsensusAbcast::rejoin
    pub fn take_rejoin_done(&mut self) -> Option<u64> {
        self.rejoin_done.take()
    }

    /// The delivery stream position: the next consensus instance whose
    /// batch this endpoint will deliver.
    pub fn position(&self) -> u64 {
        self.next_inst
    }

    /// Rewinds the delivery stream to instance `inst` (no-op if not
    /// behind the current position): a host that lost the state derived
    /// from instances `[inst, position())` calls this before
    /// [`rejoin`](Self::rejoin). The retained decided suffix moves back
    /// into the undelivered set, so the rejoin replays it locally —
    /// peers' refills only fill genuine gaps.
    pub fn rewind_to(&mut self, inst: u64) {
        let inst = inst.max(self.log_base);
        if inst >= self.next_inst {
            return;
        }
        let tail = self.decided_log.split_off((inst - self.log_base) as usize);
        // An id can appear in several decided batches (proposals carry
        // whole pending sets), so the delivered-id set and the gseq
        // counter must be recomputed from the retained prefix — not
        // subtracted from the tail, which would double-count repeats.
        let mut delivered = RunSet::new();
        let mut next_gseq = self.base_gseq;
        for batch in &self.decided_log {
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

    /// Runs `f` against the embedded consensus pool with the endpoint's
    /// own scratch outbox, forwards what the pool queued, keeps the
    /// instances it decided and delivers whatever became deliverable.
    fn drive_pool(
        &mut self,
        out: &mut Outbox<CAbMsg<P>, AbDeliver<P>>,
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
            CAbMsg::Cons,
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
    fn deliver_decided(&mut self, out: &mut Outbox<CAbMsg<P>, AbDeliver<P>>) {
        let mut progressed = false;
        while let Some(batch) = self.decided.remove(&self.next_inst) {
            self.decided_log.push(batch.clone());
            for (id, payload) in batch.into_entries() {
                self.pending.remove(&id);
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

impl<P: Message> Component for ConsensusAbcast<P> {
    type Msg = CAbMsg<P>;
    type Event = AbDeliver<P>;

    fn on_message(
        &mut self,
        from: NodeId,
        msg: CAbMsg<P>,
        out: &mut Outbox<CAbMsg<P>, AbDeliver<P>>,
    ) {
        match msg {
            CAbMsg::Submit { id, payload } => {
                if !self.delivered.contains(id.origin, id.seq) {
                    self.pending.insert(id, payload);
                    self.schedule_propose(out);
                }
            }
            CAbMsg::SubmitBatch(batch) => {
                let mut grew = false;
                for (id, payload) in batch.into_entries() {
                    if !self.delivered.contains(id.origin, id.seq) {
                        self.pending.insert(id, payload);
                        grew = true;
                    }
                }
                if grew {
                    self.schedule_propose(out);
                }
            }
            CAbMsg::Cons(c) => {
                self.drive_pool(out, |pool, sub| pool.on_message(from, c, sub));
            }
            CAbMsg::Rejoin { next_inst } => {
                let lo = next_inst.max(self.log_base);
                let idx = ((lo - self.log_base) as usize).min(self.decided_log.len());
                out.send(
                    from,
                    CAbMsg::RejoinData {
                        start: self.log_base + idx as u64,
                        batches: self.decided_log[idx..].to_vec(),
                        high: self.next_inst,
                    },
                );
            }
            CAbMsg::RejoinData {
                start,
                batches,
                high,
            } => {
                let mut grew = false;
                for (k, batch) in batches.into_iter().enumerate() {
                    let inst = start + k as u64;
                    if inst >= self.next_inst && !self.decided.contains_key(&inst) {
                        if self.rejoin_wait {
                            self.rejoin_bytes += batch.wire_size() as u64;
                        }
                        self.decided.insert(inst, batch);
                        grew = true;
                    }
                }
                if grew {
                    self.deliver_decided(out);
                }
                if self.rejoin_wait {
                    self.rejoin_high = self.rejoin_high.max(high);
                    if self.next_inst >= self.rejoin_high {
                        self.rejoin_wait = false;
                        self.rejoin_done = Some(self.rejoin_bytes);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, tag: u64, out: &mut Outbox<CAbMsg<P>, AbDeliver<P>>) {
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
    use crate::testkit::ComponentActor;
    use repl_sim::{NetworkConfig, SimConfig, SimDuration, SimTime, World};
    use std::collections::HashSet;

    type SeqHost = ComponentActor<SequencerAbcast<u32>>;
    type ConsHost = ComponentActor<ConsensusAbcast<u32>>;

    fn deliveries_seq(world: &World<SeqAbMsg<u32>>, n: NodeId) -> Vec<(u64, u32)> {
        world
            .actor_ref::<SeqHost>(n)
            .events
            .iter()
            .map(|(_, d)| (d.gseq, d.payload))
            .collect()
    }

    fn deliveries_cons(world: &World<CAbMsg<u32>>, n: NodeId) -> Vec<(u64, u32)> {
        world
            .actor_ref::<ConsHost>(n)
            .events
            .iter()
            .map(|(_, d)| (d.gseq, d.payload))
            .collect()
    }

    #[test]
    fn sequencer_total_order_across_concurrent_broadcasters() {
        let mut world: World<SeqAbMsg<u32>> = World::new(SimConfig::new(5));
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
        let mut world: World<SeqAbMsg<u32>> = World::new(cfg);
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
        fn resent(out: &mut Outbox<SeqAbMsg<u32>, AbDeliver<u32>>) -> Vec<Vec<u32>> {
            let sends = out.drain().into_iter().filter_map(|a| match a {
                Action::Send(_, SeqAbMsg::Submit { payload, .. }) => Some(vec![payload]),
                Action::Send(_, SeqAbMsg::SubmitBatch(b)) => {
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
                    SeqAbMsg::Ordered {
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
        let mut world: World<SeqAbMsg<u32>> = World::new(SimConfig::new(2));
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
        let mut world: World<CAbMsg<u32>> = World::new(SimConfig::new(3));
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
            let mut world: World<SeqAbMsg<u32>> = World::new(SimConfig::new(5));
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
            let mut world: World<SeqAbMsg<u32>> = World::new(SimConfig::new(9));
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
            let mut world: World<CAbMsg<u32>> = World::new(SimConfig::new(3));
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
        let mut world: World<CAbMsg<u32>> = World::new(SimConfig::new(11));
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

    #[test]
    fn sequencer_rejoin_refills_a_recovered_member() {
        use crate::testkit::schedule_outage;
        let mut world: World<SeqAbMsg<u32>> = World::new(SimConfig::new(21));
        let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        for i in 0..3u32 {
            let mut actor =
                ComponentActor::new(SequencerAbcast::<u32>::new(NodeId::new(i), group.clone()))
                    .with_recovery(|ab, out| ab.rejoin(out));
            if i < 2 {
                // Nodes 0 and 1 broadcast before, during, and after
                // node 2's outage.
                for k in 0..4u32 {
                    let value = i * 10 + k;
                    actor = actor.with_step(
                        repl_sim::SimDuration::from_ticks(50 + (k as u64) * 5_000 + i as u64),
                        move |ab, out| {
                            ab.broadcast(value, out);
                        },
                    );
                }
            }
            world.add_actor(Box::new(actor));
        }
        schedule_outage(
            &mut world,
            group[2],
            SimTime::from_ticks(1_000),
            SimTime::from_ticks(40_000),
        );
        world.start();
        world.run_until(SimTime::from_ticks(200_000));
        let reference = deliveries_seq(&world, group[0]);
        assert_eq!(reference.len(), 8, "all broadcasts ordered: {reference:?}");
        assert_eq!(
            deliveries_seq(&world, group[2]),
            reference,
            "recovered member's stream has gaps"
        );
        let host = world.actor_ref::<SeqHost>(group[2]);
        assert!(!host.inner.rejoin_wait, "rejoin never completed");
        assert!(
            host.inner.rejoin_done.expect("rejoin report pending") > 0,
            "refill carried no bytes"
        );
    }

    #[test]
    fn consensus_rejoin_refills_a_recovered_member() {
        use crate::testkit::schedule_outage;
        let mut world: World<CAbMsg<u32>> = World::new(SimConfig::new(23));
        let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        for i in 0..3u32 {
            let mut actor = ComponentActor::new(ConsensusAbcast::<u32>::new(
                NodeId::new(i),
                group.clone(),
                ConsensusConfig::default(),
            ))
            .with_recovery(|ab, out| ab.rejoin(out));
            if i < 2 {
                for k in 0..3u32 {
                    let value = i * 10 + k;
                    actor = actor.with_step(
                        repl_sim::SimDuration::from_ticks(50 + (k as u64) * 9_000 + i as u64),
                        move |ab, out| {
                            ab.broadcast(value, out);
                        },
                    );
                }
            }
            world.add_actor(Box::new(actor));
        }
        schedule_outage(
            &mut world,
            group[2],
            SimTime::from_ticks(2_000),
            SimTime::from_ticks(60_000),
        );
        world.start();
        world.run_until(SimTime::from_ticks(400_000));
        let reference = deliveries_cons(&world, group[0]);
        assert_eq!(reference.len(), 6, "all broadcasts ordered: {reference:?}");
        assert_eq!(
            deliveries_cons(&world, group[2]),
            reference,
            "recovered member's stream has gaps"
        );
        let host = world.actor_ref::<ConsHost>(group[2]);
        assert!(!host.inner.rejoin_wait, "rejoin never completed");
        assert!(
            host.inner.rejoin_done.expect("rejoin report pending") > 0,
            "refill carried no bytes"
        );
    }

    #[test]
    fn sequencer_rewind_replays_the_stream_after_volume_loss() {
        use crate::testkit::schedule_outage;
        let mut world: World<SeqAbMsg<u32>> = World::new(SimConfig::new(29));
        let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        for i in 0..3u32 {
            let mut actor =
                ComponentActor::new(SequencerAbcast::<u32>::new(NodeId::new(i), group.clone()))
                    // A disaster recovery: the host lost everything built
                    // from past deliveries, so rewind to 0 and refill.
                    .with_recovery(|ab, out| {
                        ab.rewind_to(0);
                        ab.rejoin(out);
                    });
            if i < 2 {
                for k in 0..3u32 {
                    let value = i * 10 + k;
                    actor = actor.with_step(
                        repl_sim::SimDuration::from_ticks(50 + (k as u64) * 5_000 + i as u64),
                        move |ab, out| {
                            ab.broadcast(value, out);
                        },
                    );
                }
            }
            world.add_actor(Box::new(actor));
        }
        schedule_outage(
            &mut world,
            group[2],
            SimTime::from_ticks(8_000),
            SimTime::from_ticks(40_000),
        );
        world.start();
        world.run_until(SimTime::from_ticks(200_000));
        let reference = deliveries_seq(&world, group[0]);
        assert_eq!(reference.len(), 6, "all broadcasts ordered: {reference:?}");
        let rewound = deliveries_seq(&world, group[2]);
        // Pre-outage deliveries plus the full replay: the suffix must be
        // the whole reference stream, in order.
        assert!(rewound.len() >= reference.len());
        assert_eq!(
            rewound[rewound.len() - reference.len()..],
            reference[..],
            "replay after rewind differs from the group order"
        );
        let host = world.actor_ref::<SeqHost>(group[2]);
        assert!(!host.inner.rejoin_wait, "rejoin never completed");
    }

    #[test]
    fn sequencer_member_rewind_self_refills_without_wire_bytes() {
        use crate::testkit::schedule_outage;
        let mut world: World<SeqAbMsg<u32>> = World::new(SimConfig::new(31));
        let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        for i in 0..3u32 {
            let mut actor =
                ComponentActor::new(SequencerAbcast::<u32>::new(NodeId::new(i), group.clone()))
                    .with_recovery(|ab, out| {
                        ab.rewind_to(0);
                        ab.rejoin(out);
                    });
            if i > 0 {
                for k in 0..2u32 {
                    let value = i * 10 + k;
                    actor = actor.with_step(
                        repl_sim::SimDuration::from_ticks(50 + (k as u64) * 500 + i as u64),
                        move |ab, out| {
                            ab.broadcast(value, out);
                        },
                    );
                }
            }
            world.add_actor(Box::new(actor));
        }
        // The sequencer itself goes down after ordering everything; its
        // retained order log survives (daemon state) and refills its own
        // rewound receiver stream on rejoin.
        schedule_outage(
            &mut world,
            group[0],
            SimTime::from_ticks(20_000),
            SimTime::from_ticks(30_000),
        );
        world.start();
        world.run_until(SimTime::from_ticks(200_000));
        let reference = deliveries_seq(&world, group[1]);
        assert_eq!(reference.len(), 4, "all broadcasts ordered: {reference:?}");
        let rewound = deliveries_seq(&world, group[0]);
        assert_eq!(
            rewound[rewound.len() - reference.len()..],
            reference[..],
            "sequencer's self-refill differs from the group order"
        );
        let host = world.actor_ref::<SeqHost>(group[0]);
        assert_eq!(
            host.inner.rejoin_done,
            Some(0),
            "self-refill must carry no wire bytes"
        );
    }

    #[test]
    fn consensus_rewind_replays_the_stream_after_volume_loss() {
        use crate::testkit::schedule_outage;
        let mut world: World<CAbMsg<u32>> = World::new(SimConfig::new(37));
        let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        for i in 0..3u32 {
            let mut actor = ComponentActor::new(ConsensusAbcast::<u32>::new(
                NodeId::new(i),
                group.clone(),
                ConsensusConfig::default(),
            ))
            .with_recovery(|ab, out| {
                ab.rewind_to(0);
                ab.rejoin(out);
            });
            if i < 2 {
                for k in 0..3u32 {
                    let value = i * 10 + k;
                    actor = actor.with_step(
                        repl_sim::SimDuration::from_ticks(50 + (k as u64) * 9_000 + i as u64),
                        move |ab, out| {
                            ab.broadcast(value, out);
                        },
                    );
                }
            }
            world.add_actor(Box::new(actor));
        }
        schedule_outage(
            &mut world,
            group[2],
            SimTime::from_ticks(12_000),
            SimTime::from_ticks(60_000),
        );
        world.start();
        world.run_until(SimTime::from_ticks(400_000));
        let reference = deliveries_cons(&world, group[0]);
        assert_eq!(reference.len(), 6, "all broadcasts ordered: {reference:?}");
        let rewound = deliveries_cons(&world, group[2]);
        assert!(rewound.len() >= reference.len());
        assert_eq!(
            rewound[rewound.len() - reference.len()..],
            reference[..],
            "replay after rewind differs from the group order"
        );
        let host = world.actor_ref::<ConsHost>(group[2]);
        assert!(!host.inner.rejoin_wait, "rejoin never completed");
    }

    /// The `Ordered` copies `out` holds for `to`, as `(gseq, id)`.
    fn ordered_for(
        out: &mut Outbox<SeqAbMsg<u32>, AbDeliver<u32>>,
        to: NodeId,
    ) -> Vec<(u64, MsgId)> {
        out.drain()
            .into_iter()
            .filter_map(|a| match a {
                crate::Action::Send(n, SeqAbMsg::Ordered { gseq, id, .. }) if n == to => {
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
        let submit = |id: MsgId| SeqAbMsg::Submit {
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
            seq.order_log.len(),
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
                crate::Action::Send(_, m @ SeqAbMsg::Handoff { .. }) => Some(m),
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
            let mut world: World<SeqAbMsg<u32>> = World::new(cfg);
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
        let mut world: World<SeqAbMsg<u32>> = World::new(SimConfig::new(41));
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
        let mut world: World<CAbMsg<u32>> = World::new(SimConfig::new(11));
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
