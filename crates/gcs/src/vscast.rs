//! View-synchronous broadcast (VSCAST) with group membership.
//!
//! This is the primitive the paper's passive replication rests on
//! (Section 3.3): a sequence of *views* (agreed membership snapshots) with
//! the guarantee that if some process delivers message `m` before
//! installing view `v(i+1)`, then every process installs `v(i+1)` only
//! after delivering `m` — updates from a crashed primary are applied by
//! all survivors or by none.
//!
//! The implementation composes three pieces:
//!
//! 1. a [`HeartbeatFd`] monitoring the current members,
//! 2. a [`ConsensusPool`] (over the *initial* group, the primary-partition
//!    assumption) that agrees on each next membership, and
//! 3. a flush protocol: once a new membership is decided, the surviving
//!    members exchange everything they received in the dying view and
//!    deliver the union before installing.
//!
//! What a member received in the current view is one dense column per
//! `(view, origin)` stream, indexed by seq, `None` in a hole; the flush
//! and the install-time union walk them in `(view, origin, seq)` order.
//!
//! A recovered (or falsely excluded) member rejoins through
//! [`ViewGroup::rejoin`]: it asks the group for readmission, the members
//! run a membership change that includes it again, and the joiner takes
//! part in that view's flush exchange — so the new view is installed
//! only once the joiner holds everything delivered in the dying view.
//! Hosts complete db-level state transfer *before* calling `rejoin`,
//! which closes the remaining gap (data from views the group already
//! garbage-collected).
//!
//! Scope note, recorded here and in DESIGN.md: liveness requires a
//! majority of the *initial* group to stay alive (the membership
//! consensus runs over the initial group — the primary-partition
//! assumption).

use std::collections::{BTreeMap, HashMap, HashSet};

use repl_sim::{Message, NodeId, SimDuration};

use crate::component::{Component, Outbox};
use crate::consensus::{ConsEvent, ConsMsg, ConsensusConfig, ConsensusPool};
use crate::fd::{FdConfig, FdEvent, FdMsg, HeartbeatFd};
use crate::runset::RunSet;

/// An agreed membership snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    /// Dense view number, starting at 0.
    pub id: u64,
    /// Members, sorted by node id.
    pub members: Vec<NodeId>,
}

impl View {
    /// The lowest-id member, conventionally the primary/leader.
    pub fn primary(&self) -> NodeId {
        self.members[0]
    }

    /// True if `n` belongs to the view.
    pub fn contains(&self, n: NodeId) -> bool {
        self.members.contains(&n)
    }
}

/// Membership value agreed by the embedded consensus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership(pub Vec<NodeId>);

impl Message for Membership {
    fn wire_size(&self) -> usize {
        8 + 4 * self.0.len()
    }
}

/// A flush entry: data received in a view, keyed `(view, origin, seq)`.
type FlushEntry<P> = (u64, NodeId, u64, P);

/// Data received in a view: one dense column per `(view, origin)`
/// stream, indexed by seq, `None` in a hole (a seq not received).
type Received<P> = BTreeMap<(u64, NodeId), Vec<Option<P>>>;

/// The slot of `(view, origin, seq)` in `received`, opening it if new.
fn slot<P>(received: &mut Received<P>, view: u64, origin: NodeId, seq: u64) -> &mut Option<P> {
    let column = received.entry((view, origin)).or_default();
    let seq = usize::try_from(seq).expect("a stream's seqs are addressable");
    if column.len() <= seq {
        column.resize_with(seq + 1, || None);
    }
    &mut column[seq]
}

/// Wire message of [`ViewGroup`].
#[derive(Debug, Clone)]
pub enum VsMsg<P> {
    /// View-stamped application data.
    Data {
        /// View the message was sent in.
        view: u64,
        /// Broadcasting member.
        origin: NodeId,
        /// Per-origin sequence number within the view.
        seq: u64,
        /// Application payload.
        payload: P,
    },
    /// State exchange before installing `new_view`.
    Flush {
        /// The decided view being installed.
        new_view: u64,
        /// The decided membership of `new_view`. Carried for elastically
        /// joining members, which are outside the membership consensus
        /// and learn the decision only from the flush exchange.
        members: Vec<NodeId>,
        /// Everything the sender received in the dying view(s).
        received: Vec<FlushEntry<P>>,
    },
    /// Recovered member → group: request readmission into the view.
    JoinReq,
    /// Embedded failure-detector traffic.
    Fd(FdMsg),
    /// Embedded consensus traffic (membership agreement).
    Cons(ConsMsg<Membership>),
}

impl<P: Message> Message for VsMsg<P> {
    fn wire_size(&self) -> usize {
        match self {
            VsMsg::Data { payload, .. } => 28 + payload.wire_size(),
            // The `members` list rides in the existing 16-byte frame
            // accounting: view ids bound membership size, and keeping the
            // formula stable keeps pre-elastic runs byte-identical.
            VsMsg::Flush { received, .. } => {
                16 + received
                    .iter()
                    .map(|(_, _, _, p)| 20 + p.wire_size())
                    .sum::<usize>()
            }
            VsMsg::JoinReq => 8,
            VsMsg::Fd(m) => m.wire_size(),
            VsMsg::Cons(c) => 8 + c.wire_size(),
        }
    }
}

/// Event delivered by [`ViewGroup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VsEvent<P> {
    /// View-synchronous delivery.
    Deliver {
        /// View the message was sent in.
        view: u64,
        /// Broadcasting member.
        from: NodeId,
        /// Application payload.
        payload: P,
    },
    /// A new view was installed.
    ViewInstalled(View),
    /// The local process was excluded from the group (false suspicion
    /// or a crash detected by the survivors); it stops participating
    /// until readmitted through [`ViewGroup::rejoin`].
    Excluded(View),
}

/// Configuration of [`ViewGroup`].
#[derive(Debug, Clone, Copy)]
pub struct VsConfig {
    /// Failure-detector parameters.
    pub fd: FdConfig,
    /// Consensus parameters for membership agreement.
    pub consensus: ConsensusConfig,
    /// Retry interval for the flush exchange.
    pub flush_retry: SimDuration,
    /// Retry interval for an unanswered readmission request.
    pub join_retry: SimDuration,
}

impl Default for VsConfig {
    fn default() -> Self {
        VsConfig {
            fd: FdConfig::default(),
            consensus: ConsensusConfig::default(),
            flush_retry: SimDuration::from_ticks(3_000),
            join_retry: SimDuration::from_ticks(5_000),
        }
    }
}

const FD_BASE: u64 = 0;
const CONS_BASE: u64 = 1 << 40;
const OWN_BASE: u64 = 2 << 40;
const JOIN_TAG: u64 = 3 << 40;

/// View-synchronous process group.
///
/// # Examples
///
/// ```
/// use repl_gcs::{ViewGroup, VsConfig, Outbox};
/// use repl_sim::NodeId;
///
/// let group: Vec<NodeId> = (0..3).map(NodeId::new).collect();
/// let mut vg: ViewGroup<u32> = ViewGroup::new(group[0], group.clone(), VsConfig::default());
/// assert_eq!(vg.view().id, 0);
/// assert_eq!(vg.view().primary(), group[0]);
/// let mut out = Outbox::new();
/// vg.broadcast(1, &mut out);
/// ```
#[derive(Debug)]
pub struct ViewGroup<P> {
    me: NodeId,
    view: View,
    /// The initial group: membership consensus runs over it, and join
    /// requests target it (a joiner's notion of the current view may be
    /// arbitrarily stale).
    initial: Vec<NodeId>,
    fd: HeartbeatFd,
    pool: ConsensusPool<Membership>,
    // What `fd` / `pool` queued while handling one input.
    fd_out: Outbox<FdMsg, FdEvent>,
    pool_out: Outbox<ConsMsg<Membership>, ConsEvent<Membership>>,
    config: VsConfig,
    excluded: bool,
    /// Readmission in progress: cleared when a view containing the
    /// local process is installed.
    joining: bool,
    /// Brand-new site joining with no prior membership state: it learns
    /// decided views from the flush exchange instead of the membership
    /// consensus (which it is not part of yet).
    cold: bool,
    /// Elastic mode: an installed view has contained a node outside the
    /// original group (or the local process left voluntarily). From then
    /// on the consensus substrate follows the installed membership
    /// instead of the fixed initial group.
    elastic: bool,
    /// A voluntary leave is in flight: suppress self-readmission when
    /// the exclusion lands.
    leaving: bool,
    // Data plane (current view).
    next_seq: u64,
    fifo_next: HashMap<NodeId, u64>,
    holdback: HashMap<NodeId, BTreeMap<u64, P>>,
    received: Received<P>,
    // One stream per `(view, origin)`.
    delivered: RunSet<(u64, NodeId)>,
    // Data that arrived stamped with a future view.
    future: BTreeMap<u64, Vec<(NodeId, u64, P)>>,
    // View-change plane.
    decided_views: BTreeMap<u64, Vec<NodeId>>,
    flushes: BTreeMap<u64, HashMap<NodeId, Vec<FlushEntry<P>>>>,
    proposed: HashSet<u64>,
    out_buffer: Vec<P>,
}

impl<P: Clone + std::fmt::Debug + 'static> ViewGroup<P> {
    /// Creates a group endpoint for member `me`; view 0 holds all of
    /// `group`, sorted.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not in `group`.
    pub fn new(me: NodeId, mut group: Vec<NodeId>, config: VsConfig) -> Self {
        group.sort();
        assert!(
            group.contains(&me),
            "view-group member must belong to the group"
        );
        Self::endpoint(me, group.clone(), group, false, config)
    }

    /// Creates an endpoint for a brand-new site `me` joining an already
    /// running group through `seed` (any subset of the running members;
    /// conventionally the original group, whose low ranks survive every
    /// plan). The joiner starts outside every view and learns decided
    /// memberships from the flush exchange — it is not part of the
    /// membership consensus until its admission view installs. Call
    /// [`rejoin`](Self::rejoin) once host-level state transfer is done;
    /// the next installed view admits the joiner.
    ///
    /// # Panics
    ///
    /// Panics if `seed` holds no node other than `me`.
    pub fn join(me: NodeId, mut seed: Vec<NodeId>, config: VsConfig) -> Self {
        seed.retain(|&n| n != me);
        seed.sort();
        assert!(!seed.is_empty(), "join seed must name at least one member");
        let mut substrate = seed.clone();
        substrate.push(me);
        substrate.sort();
        Self::endpoint(me, seed, substrate, true, config)
    }

    /// The one constructor body: view 0 is `view`, the failure detector
    /// and the membership consensus run over `substrate`, and a `cold`
    /// endpoint is an elastic joiner outside every view.
    fn endpoint(
        me: NodeId,
        view: Vec<NodeId>,
        substrate: Vec<NodeId>,
        cold: bool,
        config: VsConfig,
    ) -> Self {
        let fd = HeartbeatFd::new(me, substrate.clone(), config.fd);
        let pool = ConsensusPool::new(me, substrate, config.consensus);
        ViewGroup {
            me,
            view: View {
                id: 0,
                members: view.clone(),
            },
            initial: view,
            fd,
            pool,
            fd_out: Outbox::new(),
            pool_out: Outbox::new(),
            config,
            excluded: false,
            joining: false,
            cold,
            elastic: cold,
            leaving: false,
            next_seq: 0,
            fifo_next: HashMap::new(),
            holdback: HashMap::new(),
            received: BTreeMap::new(),
            delivered: RunSet::new(),
            future: BTreeMap::new(),
            decided_views: BTreeMap::new(),
            flushes: BTreeMap::new(),
            proposed: HashSet::new(),
            out_buffer: Vec::new(),
        }
    }

    /// The currently installed view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// True if the local process has been excluded.
    pub fn is_excluded(&self) -> bool {
        self.excluded
    }

    /// True while a readmission request is outstanding.
    pub fn is_joining(&self) -> bool {
        self.joining
    }

    /// True once [`leave`](Self::leave) has been called: the coming (or
    /// already observed) exclusion is voluntary and must not trigger a
    /// rejoin.
    pub fn is_leaving(&self) -> bool {
        self.leaving
    }

    /// Proposes the current membership minus the local process (planned
    /// decommission). The group runs an ordinary view change; when the
    /// shrunk view installs, the local endpoint observes its own
    /// exclusion ([`VsEvent::Excluded`]) and goes quiet. Hosts quiesce
    /// application traffic *before* calling this, so nothing is buffered
    /// when the exclusion lands.
    pub fn leave(&mut self, out: &mut Outbox<VsMsg<P>, VsEvent<P>>) {
        if self.excluded || self.leaving {
            return;
        }
        self.leaving = true;
        self.elastic = true;
        let (latest_id, latest) = self.latest_membership();
        let next: Vec<NodeId> = latest.iter().copied().filter(|&n| n != self.me).collect();
        if next.is_empty() {
            // Sole member: there is no group to hand anything to.
            self.excluded = true;
            return;
        }
        let inst = latest_id + 1;
        if self.proposed.contains(&inst) {
            return;
        }
        self.proposed.insert(inst);
        self.drive_pool(out, |pool, sub| pool.propose(inst, Membership(next), sub));
    }

    /// Requests readmission into the group after a crash or a false
    /// exclusion: restarts the failure detector's heartbeats, asks the
    /// (initial) group to run a view change that includes the local
    /// process again, and resumes any stalled membership consensus. The
    /// request is retried until a view containing the local process is
    /// installed. Hosts should finish db-level state transfer *before*
    /// calling this, so the new view only ever contains caught-up
    /// members; the join view's flush exchange covers the remainder.
    pub fn rejoin(&mut self, out: &mut Outbox<VsMsg<P>, VsEvent<P>>) {
        self.excluded = false;
        // A singleton group has nobody to ask: the node *is* the view.
        // (A cold joiner always asks — it is outside `initial`.)
        self.joining = self.initial.len() > 1 || !self.initial.contains(&self.me);
        // The restarted detector may fire Suspect immediately (pre-crash
        // miss counters survive the outage); drop those events — the
        // joiner must not propose view changes, and genuine crashes are
        // re-detected by the regular ticks once readmitted.
        self.drive_fd(out, |fd, sub| fd.on_start(sub));
        if self.joining {
            self.send_join(out);
            out.timer(self.config.join_retry, JOIN_TAG);
        }
        // Membership consensus rounds lost their timers in the crash.
        self.drive_pool(out, |pool, sub| pool.resume(sub));
    }

    fn send_join(&mut self, out: &mut Outbox<VsMsg<P>, VsEvent<P>>) {
        // Target the whole initial group: our own view of the current
        // membership may be arbitrarily stale after an outage.
        for &m in &self.initial {
            if m != self.me {
                out.send(m, VsMsg::JoinReq);
            }
        }
    }

    /// Handles a readmission request: proposes the latest membership
    /// plus the joiner for the next view. Even when the joiner is still
    /// a member (it recovered before the group excluded it), the view
    /// change is run anyway — its flush exchange redelivers the data
    /// the joiner missed while it was down.
    fn propose_join(&mut self, joiner: NodeId, out: &mut Outbox<VsMsg<P>, VsEvent<P>>) {
        let (latest_id, latest) = self.latest_membership();
        let mut next = latest.to_vec();
        if !next.contains(&joiner) {
            next.push(joiner);
            next.sort();
        }
        let inst = latest_id + 1;
        if self.proposed.contains(&inst) {
            return;
        }
        self.proposed.insert(inst);
        self.drive_pool(out, |pool, sub| pool.propose(inst, Membership(next), sub));
    }

    /// True while a view change is in progress.
    pub fn is_changing(&self) -> bool {
        !self.decided_views.is_empty() || !self.proposed.is_empty()
    }

    /// The membership the next change will be based on: the latest decided
    /// membership, or the installed view's.
    fn latest_membership(&self) -> (u64, &[NodeId]) {
        match self.decided_views.iter().next_back() {
            Some((&id, m)) => (id, m),
            None => (self.view.id, &self.view.members),
        }
    }

    /// Broadcasts `payload` view-synchronously. During a view change the
    /// message is buffered and sent in the next installed view.
    pub fn broadcast(&mut self, payload: P, out: &mut Outbox<VsMsg<P>, VsEvent<P>>) {
        if self.excluded {
            return;
        }
        if self.is_changing() || self.joining {
            self.out_buffer.push(payload);
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        *slot(&mut self.received, self.view.id, self.me, seq) = Some(payload.clone());
        self.delivered.insert((self.view.id, self.me), seq);
        out.event(VsEvent::Deliver {
            view: self.view.id,
            from: self.me,
            payload: payload.clone(),
        });
        for &m in &self.view.members {
            if m != self.me {
                out.send(
                    m,
                    VsMsg::Data {
                        view: self.view.id,
                        origin: self.me,
                        seq,
                        payload: payload.clone(),
                    },
                );
            }
        }
    }

    fn on_data(
        &mut self,
        view: u64,
        origin: NodeId,
        seq: u64,
        payload: P,
        out: &mut Outbox<VsMsg<P>, VsEvent<P>>,
    ) {
        if view < self.view.id {
            return; // stale view; flush already covered it
        }
        if view > self.view.id {
            self.future
                .entry(view)
                .or_default()
                .push((origin, seq, payload));
            return;
        }
        *slot(&mut self.received, view, origin, seq) = Some(payload.clone());
        self.holdback
            .entry(origin)
            .or_default()
            .insert(seq, payload);
        if !self.is_changing() {
            self.release_fifo(origin, out);
        }
    }

    fn release_fifo(&mut self, origin: NodeId, out: &mut Outbox<VsMsg<P>, VsEvent<P>>) {
        let next = self.fifo_next.entry(origin).or_insert(0);
        if let Some(buf) = self.holdback.get_mut(&origin) {
            while let Some(payload) = buf.remove(next) {
                let seq = *next;
                *next += 1;
                if self.delivered.insert((self.view.id, origin), seq) {
                    out.event(VsEvent::Deliver {
                        view: self.view.id,
                        from: origin,
                        payload,
                    });
                }
            }
        }
    }

    /// Starts a membership change if the latest membership still contains
    /// suspected nodes.
    fn maybe_change(&mut self, out: &mut Outbox<VsMsg<P>, VsEvent<P>>) {
        // A joiner's suspicions are stale from before its outage; it
        // waits for readmission before voting members out.
        if self.excluded || self.joining {
            return;
        }
        let (latest_id, latest) = self.latest_membership();
        // Nothing to vote out (the common case, checked on every
        // view-group input): no membership is copied.
        if !latest.iter().any(|&n| self.fd.is_suspected(n)) {
            return;
        }
        let next: Vec<NodeId> = latest
            .iter()
            .copied()
            .filter(|&n| !self.fd.is_suspected(n))
            .collect();
        if next.is_empty() {
            return;
        }
        let inst = latest_id + 1;
        if self.proposed.contains(&inst) {
            return;
        }
        self.proposed.insert(inst);
        self.drive_pool(out, |pool, sub| pool.propose(inst, Membership(next), sub));
    }

    /// Runs `f` against the membership consensus with the endpoint's own
    /// scratch outbox, forwards what the pool queued, starts the flush
    /// exchange of every view it decided, and installs what is complete.
    fn drive_pool(
        &mut self,
        out: &mut Outbox<VsMsg<P>, VsEvent<P>>,
        f: impl FnOnce(
            &mut ConsensusPool<Membership>,
            &mut Outbox<ConsMsg<Membership>, ConsEvent<Membership>>,
        ),
    ) {
        let mut sub = std::mem::take(&mut self.pool_out);
        f(&mut self.pool, &mut sub);
        out.absorb(
            &mut sub,
            CONS_BASE,
            VsMsg::Cons,
            |out, ConsEvent::Decided { inst, value }| {
                if inst <= self.view.id {
                    return;
                }
                self.decided_views.insert(inst, value.0);
                self.send_flush(inst, out);
                out.timer(self.config.flush_retry, OWN_BASE + inst);
            },
        );
        self.pool_out = sub;
        self.try_install(out);
        self.maybe_change(out);
    }

    /// Runs `f` against the failure detector with the endpoint's own
    /// scratch outbox and forwards what it queued; true if it raised a
    /// new suspicion.
    fn drive_fd(
        &mut self,
        out: &mut Outbox<VsMsg<P>, VsEvent<P>>,
        f: impl FnOnce(&mut HeartbeatFd, &mut Outbox<FdMsg, FdEvent>),
    ) -> bool {
        f(&mut self.fd, &mut self.fd_out);
        let mut suspected = false;
        out.absorb(&mut self.fd_out, FD_BASE, VsMsg::Fd, |_, e| {
            suspected |= matches!(e, FdEvent::Suspect(_));
        });
        suspected
    }

    fn send_flush(&mut self, new_view: u64, out: &mut Outbox<VsMsg<P>, VsEvent<P>>) {
        let Some(members) = self.decided_views.get(&new_view) else {
            return;
        };
        if !members.contains(&self.me) {
            return; // we are being excluded; try_install will notice
        }
        let held = self.received.values().flatten().flatten().count();
        let mut list: Vec<FlushEntry<P>> = Vec::with_capacity(held);
        for (&(v, o), column) in &self.received {
            let column = column.iter().enumerate();
            list.extend(column.filter_map(|(s, p)| Some((v, o, s as u64, p.clone()?))));
        }
        self.flushes
            .entry(new_view)
            .or_default()
            .insert(self.me, list.clone());
        let members = members.clone();
        for &m in &members {
            if m != self.me {
                out.send(
                    m,
                    VsMsg::Flush {
                        new_view,
                        members: members.clone(),
                        received: list.clone(),
                    },
                );
            }
        }
    }

    fn try_install(&mut self, out: &mut Outbox<VsMsg<P>, VsEvent<P>>) {
        if self.excluded {
            return;
        }
        // Exclusion check against the highest decided membership.
        if let Some((&nv, m)) = self.decided_views.iter().next_back() {
            if !m.contains(&self.me) {
                if self.joining {
                    // Readmission not decided yet; the JOIN_TAG retry
                    // keeps asking — don't self-exclude.
                    return;
                }
                self.excluded = true;
                out.event(VsEvent::Excluded(View {
                    id: nv,
                    members: m.clone(),
                }));
                return;
            }
        }
        // Install the highest decided view whose flush set is complete.
        // A view not containing the local process is never installable
        // locally: its flush exchange deliberately excludes us.
        let candidate = self
            .decided_views
            .iter()
            .rev()
            .find(|(nv, m)| {
                let fl = self.flushes.get(nv);
                m.contains(&self.me) && m.iter().all(|q| fl.is_some_and(|f| f.contains_key(q)))
            })
            .map(|(&nv, m)| (nv, m.clone()));
        let Some((nv, members)) = candidate else {
            return;
        };
        // Deliver the union of everything any survivor received, in
        // deterministic (view, origin, seq) order.
        let mut union = std::mem::take(&mut self.received);
        if let Some(fl) = self.flushes.get(&nv) {
            for list in fl.values() {
                for (v, o, s, p) in list {
                    slot(&mut union, *v, *o, *s).get_or_insert_with(|| p.clone());
                }
            }
        }
        for ((v, o), column) in union {
            for (s, p) in column.into_iter().enumerate() {
                let Some(payload) = p else { continue };
                if self.delivered.insert((v, o), s as u64) {
                    out.event(VsEvent::Deliver {
                        view: v,
                        from: o,
                        payload,
                    });
                }
            }
        }
        // Install.
        self.view = View { id: nv, members };
        self.joining = false;
        self.cold = false;
        self.next_seq = 0;
        self.fifo_next.clear();
        self.holdback.clear();
        self.decided_views.retain(|&v, _| v > nv);
        self.flushes.retain(|&v, _| v > nv);
        self.proposed.retain(|&v| v > nv);
        self.fd.set_peers(self.view.members.clone());
        // Elastic membership: once a view has admitted a node from
        // outside the original group, the consensus substrate follows
        // the installed membership (every member installs the same view,
        // so every pool adopts the same group). Static runs — views only
        // ever shrink within `initial` — never take this path and keep
        // the primary-partition substrate untouched.
        if self.elastic || self.view.members.iter().any(|m| !self.initial.contains(m)) {
            self.elastic = true;
            self.initial = self.view.members.clone();
            self.pool.set_group(self.view.members.clone());
        }
        out.event(VsEvent::ViewInstalled(self.view.clone()));
        // Replay data that was stamped with the new view.
        let replay = self.future.remove(&nv).unwrap_or_default();
        self.future.retain(|&v, _| v > nv);
        for (origin, seq, payload) in replay {
            self.on_data(nv, origin, seq, payload, out);
        }
        // Send buffered broadcasts in the new view.
        if !self.is_changing() {
            let buffered = std::mem::take(&mut self.out_buffer);
            for p in buffered {
                self.broadcast(p, out);
            }
        }
    }
}

impl<P: Clone + std::fmt::Debug + 'static> Component for ViewGroup<P> {
    type Msg = VsMsg<P>;
    type Event = VsEvent<P>;

    fn on_start(&mut self, out: &mut Outbox<VsMsg<P>, VsEvent<P>>) {
        let suspected = self.drive_fd(out, |fd, sub| fd.on_start(sub));
        debug_assert!(!suspected);
    }

    fn on_message(&mut self, from: NodeId, msg: VsMsg<P>, out: &mut Outbox<VsMsg<P>, VsEvent<P>>) {
        if self.excluded {
            return;
        }
        match msg {
            VsMsg::Data {
                view,
                origin,
                seq,
                payload,
            } => {
                self.on_data(view, origin, seq, payload, out);
            }
            VsMsg::JoinReq => {
                // Joiners wait for live members to readmit them; they
                // don't propose views from their stale state.
                if !self.joining {
                    self.propose_join(from, out);
                }
            }
            VsMsg::Flush {
                new_view,
                members,
                received,
            } => {
                if new_view <= self.view.id {
                    return;
                }
                // A cold joiner is outside the membership consensus: the
                // flush is how it learns the decided view admitting it.
                // Adopting starts its own flush (completing the all-member
                // exchange try_install waits for) and the retry timer.
                if self.cold && members.contains(&self.me) {
                    #[allow(clippy::map_entry)] // borrow of self in the arm
                    if !self.decided_views.contains_key(&new_view) {
                        self.decided_views.insert(new_view, members);
                        self.send_flush(new_view, out);
                        out.timer(self.config.flush_retry, OWN_BASE + new_view);
                    }
                }
                self.flushes
                    .entry(new_view)
                    .or_default()
                    .insert(from, received);
                self.try_install(out);
            }
            VsMsg::Fd(m) => {
                if self.drive_fd(out, |fd, sub| fd.on_message(from, m, sub)) {
                    self.maybe_change(out);
                }
            }
            VsMsg::Cons(c) => {
                self.drive_pool(out, |pool, sub| pool.on_message(from, c, sub));
            }
        }
    }

    fn on_timer(&mut self, tag: u64, out: &mut Outbox<VsMsg<P>, VsEvent<P>>) {
        if self.excluded {
            return;
        }
        if tag == JOIN_TAG {
            if self.joining {
                self.send_join(out);
                out.timer(self.config.join_retry, JOIN_TAG);
            }
        } else if tag >= OWN_BASE {
            let nv = tag - OWN_BASE;
            if self.decided_views.contains_key(&nv) {
                self.send_flush(nv, out);
                self.try_install(out);
                self.maybe_change(out);
                out.timer(self.config.flush_retry, OWN_BASE + nv);
            }
        } else if tag >= CONS_BASE {
            self.drive_pool(out, |pool, sub| pool.on_timer(tag - CONS_BASE, sub));
        } else if self.drive_fd(out, |fd, sub| fd.on_timer(tag - FD_BASE, sub)) {
            self.maybe_change(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ComponentActor;
    use repl_sim::{LinkQuality, NetFault, SimConfig, SimTime, World};

    type Host = ComponentActor<ViewGroup<u32>>;

    fn build(n: u32, seed: u64) -> (World<VsMsg<u32>>, Vec<NodeId>) {
        let mut world = World::new(SimConfig::new(seed));
        let group: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        for i in 0..n {
            world.add_actor(Box::new(ComponentActor::new(ViewGroup::<u32>::new(
                NodeId::new(i),
                group.clone(),
                VsConfig::default(),
            ))));
        }
        (world, group)
    }

    fn deliveries(world: &World<VsMsg<u32>>, n: NodeId) -> Vec<(u64, u32)> {
        world
            .actor_ref::<Host>(n)
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                VsEvent::Deliver { view, payload, .. } => Some((*view, *payload)),
                _ => None,
            })
            .collect()
    }

    fn installed_views(world: &World<VsMsg<u32>>, n: NodeId) -> Vec<View> {
        world
            .actor_ref::<Host>(n)
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                VsEvent::ViewInstalled(v) => Some(v.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn broadcast_reaches_all_members_in_view_zero() {
        let (mut world, group) = build(3, 1);
        let host = world.actor_mut::<Host>(group[1]);
        *host = ComponentActor::new(ViewGroup::<u32>::new(
            group[1],
            group.clone(),
            VsConfig::default(),
        ))
        .with_step(repl_sim::SimDuration::from_ticks(50), |vg, out| {
            vg.broadcast(42, out);
        });
        world.start();
        world.run_until(SimTime::from_ticks(5_000));
        for &n in &group {
            assert_eq!(deliveries(&world, n), vec![(0, 42)], "node {n}");
        }
    }

    #[test]
    fn member_crash_installs_smaller_view_at_all_survivors() {
        let (mut world, group) = build(4, 2);
        world.start();
        world.schedule_crash(SimTime::from_ticks(2_000), group[3]);
        world.run_until(SimTime::from_ticks(60_000));
        for &n in &group[..3] {
            let views = installed_views(&world, n);
            assert_eq!(views.len(), 1, "exactly one view change at {n}: {views:?}");
            assert_eq!(views[0].id, 1);
            assert_eq!(views[0].members, group[..3].to_vec());
        }
    }

    #[test]
    fn primary_crash_promotes_next_member() {
        let (mut world, group) = build(3, 3);
        world.start();
        world.schedule_crash(SimTime::from_ticks(2_000), group[0]);
        world.run_until(SimTime::from_ticks(60_000));
        for &n in &group[1..] {
            let views = installed_views(&world, n);
            assert_eq!(views.len(), 1, "at {n}");
            assert_eq!(views[0].primary(), group[1]);
        }
    }

    #[test]
    fn view_synchrony_messages_from_dying_view_reach_all_survivors() {
        // Node 0 broadcasts and crashes immediately after: the copies are
        // in flight when it dies. Survivors must agree: either all deliver
        // before installing the new view, or none does. With eager flush
        // they all deliver.
        for seed in 0..10u64 {
            let (mut world, group) = build(4, seed);
            let host = world.actor_mut::<Host>(group[0]);
            *host = ComponentActor::new(ViewGroup::<u32>::new(
                group[0],
                group.clone(),
                VsConfig::default(),
            ))
            .with_step(repl_sim::SimDuration::from_ticks(1_999), |vg, out| {
                vg.broadcast(7, out);
            });
            world.start();
            world.schedule_crash(SimTime::from_ticks(2_000), group[0]);
            world.run_until(SimTime::from_ticks(100_000));
            let got: Vec<bool> = group[1..]
                .iter()
                .map(|&n| deliveries(&world, n).contains(&(0, 7)))
                .collect();
            assert!(
                got.iter().all(|&b| b) || got.iter().all(|&b| !b),
                "view synchrony violated at seed {seed}: {got:?}"
            );
            // With a LAN network and default FD the message always wins the
            // race against detection, so survivors should have it.
            assert!(
                got.iter().all(|&b| b),
                "flush lost the message, seed {seed}"
            );
        }
    }

    #[test]
    fn a_flush_fills_a_hole_and_delivers_each_message_once_in_order() {
        // Node 0 broadcasts 1, 2, 3 (seqs 0, 1, 2) and crashes. The link
        // 0 → 2 is cut while seq 1 is sent, so node 2 holds seqs 0 and 2
        // with a hole between them until the view change's flush brings
        // seq 1 from the other survivors.
        let (mut world, group) = build(4, 7);
        let host = world.actor_mut::<Host>(group[0]);
        *host = ComponentActor::new(ViewGroup::<u32>::new(
            group[0],
            group.clone(),
            VsConfig::default(),
        ))
        .with_step(SimDuration::from_ticks(1_000), |vg, out| {
            vg.broadcast(1, out)
        })
        .with_step(SimDuration::from_ticks(1_100), |vg, out| {
            vg.broadcast(2, out)
        })
        .with_step(SimDuration::from_ticks(1_200), |vg, out| {
            vg.broadcast(3, out)
        });
        world.start();
        let (src, dst) = (group[0], group[2]);
        world.schedule_net_fault(
            SimTime::from_ticks(1_050),
            NetFault::Degrade {
                src,
                dst,
                quality: LinkQuality::lossy(1.0),
            },
        );
        world.schedule_net_fault(SimTime::from_ticks(1_150), NetFault::Restore { src, dst });
        world.schedule_crash(SimTime::from_ticks(2_000), group[0]);
        world.run_until(SimTime::from_ticks(100_000));
        for &n in &group[1..] {
            assert_eq!(installed_views(&world, n).len(), 1, "at {n}");
            assert_eq!(
                deliveries(&world, n),
                vec![(0, 1), (0, 2), (0, 3)],
                "at {n}"
            );
        }
        // The hole was real: node 2 delivered seq 1 only from the flush.
        let late = world
            .actor_ref::<Host>(group[2])
            .events
            .iter()
            .find_map(|(at, e)| matches!(e, VsEvent::Deliver { payload: 2, .. }).then_some(*at));
        assert!(late.expect("delivered") > SimTime::from_ticks(2_000));
    }

    #[test]
    fn cascading_crashes_converge_to_survivor_view() {
        let (mut world, group) = build(5, 4);
        world.start();
        world.schedule_crash(SimTime::from_ticks(2_000), group[4]);
        world.schedule_crash(SimTime::from_ticks(2_500), group[3]);
        world.run_until(SimTime::from_ticks(200_000));
        for &n in &group[..3] {
            let views = installed_views(&world, n);
            let last = views.last().expect("at least one view installed");
            assert_eq!(last.members, group[..3].to_vec(), "at {n}: {views:?}");
        }
    }

    #[test]
    fn broadcasts_during_view_change_are_buffered_and_sent_in_new_view() {
        let (mut world, group) = build(3, 5);
        // Node 1 broadcasts well after node 2's crash is detected but
        // (likely) during/after the change; all survivors deliver it.
        let host = world.actor_mut::<Host>(group[1]);
        *host = ComponentActor::new(ViewGroup::<u32>::new(
            group[1],
            group.clone(),
            VsConfig::default(),
        ))
        .with_step(repl_sim::SimDuration::from_ticks(2_600), |vg, out| {
            vg.broadcast(55, out);
        });
        world.start();
        world.schedule_crash(SimTime::from_ticks(2_000), group[2]);
        world.run_until(SimTime::from_ticks(100_000));
        for &n in &group[..2] {
            let d = deliveries(&world, n);
            assert!(d.iter().any(|&(_, p)| p == 55), "missing at {n}: {d:?}");
        }
        // Both survivors deliver it in the same view.
        let v0 = deliveries(&world, group[0]);
        let v1 = deliveries(&world, group[1]);
        let in0 = v0.iter().find(|&&(_, p)| p == 55).expect("present");
        let in1 = v1.iter().find(|&&(_, p)| p == 55).expect("present");
        assert_eq!(in0.0, in1.0, "delivered in different views");
    }

    #[test]
    fn excluded_member_rejoins_and_receives_new_broadcasts() {
        // Node 2 crashes long enough to be excluded, then recovers and
        // rejoins: the group must install a view containing it again,
        // and broadcasts sent after the rejoin must reach it.
        let (mut world, group) = build(3, 11);
        let host = world.actor_mut::<Host>(group[2]);
        *host = ComponentActor::new(ViewGroup::<u32>::new(
            group[2],
            group.clone(),
            VsConfig::default(),
        ))
        .with_recovery(|vg, out| vg.rejoin(out));
        let host = world.actor_mut::<Host>(group[0]);
        *host = ComponentActor::new(ViewGroup::<u32>::new(
            group[0],
            group.clone(),
            VsConfig::default(),
        ))
        .with_step(repl_sim::SimDuration::from_ticks(150_000), |vg, out| {
            vg.broadcast(77, out);
        });
        world.start();
        crate::testkit::schedule_outage(
            &mut world,
            group[2],
            SimTime::from_ticks(2_000),
            SimTime::from_ticks(60_000),
        );
        world.run_until(SimTime::from_ticks(300_000));
        for &n in &group {
            let views = installed_views(&world, n);
            let last = views.last().expect("views installed at {n}");
            assert_eq!(last.members, group, "final view at {n}: {views:?}");
            let d = deliveries(&world, n);
            assert!(d.iter().any(|&(_, p)| p == 77), "missing at {n}: {d:?}");
        }
        let vg = &world.actor_ref::<Host>(group[2]).inner;
        assert!(!vg.is_excluded() && !vg.is_joining());
    }

    #[test]
    fn fast_recovery_before_exclusion_still_converges() {
        // The outage is shorter than the detection window: the group may
        // or may not have excluded node 2 when it asks to rejoin. Either
        // way everyone ends in a full view and delivers post-rejoin data.
        let (mut world, group) = build(3, 12);
        let host = world.actor_mut::<Host>(group[2]);
        *host = ComponentActor::new(ViewGroup::<u32>::new(
            group[2],
            group.clone(),
            VsConfig::default(),
        ))
        .with_recovery(|vg, out| vg.rejoin(out));
        let host = world.actor_mut::<Host>(group[1]);
        *host = ComponentActor::new(ViewGroup::<u32>::new(
            group[1],
            group.clone(),
            VsConfig::default(),
        ))
        .with_step(repl_sim::SimDuration::from_ticks(120_000), |vg, out| {
            vg.broadcast(88, out);
        });
        world.start();
        crate::testkit::schedule_outage(
            &mut world,
            group[2],
            SimTime::from_ticks(2_000),
            SimTime::from_ticks(4_000),
        );
        world.run_until(SimTime::from_ticks(300_000));
        for &n in &group {
            let d = deliveries(&world, n);
            assert!(d.iter().any(|&(_, p)| p == 88), "missing at {n}: {d:?}");
        }
        let vg = &world.actor_ref::<Host>(group[2]).inner;
        assert!(!vg.is_excluded() && !vg.is_joining());
    }

    #[test]
    fn cold_joiner_is_admitted_and_receives_broadcasts() {
        // A brand-new site (node 3, never part of the initial group)
        // joins through the running members: the group installs a view
        // containing it, and broadcasts sent afterwards reach it.
        let (mut world, group) = build(3, 21);
        let host = world.actor_mut::<Host>(group[0]);
        *host = ComponentActor::new(ViewGroup::<u32>::new(
            group[0],
            group.clone(),
            VsConfig::default(),
        ))
        .with_step(repl_sim::SimDuration::from_ticks(100_000), |vg, out| {
            vg.broadcast(77, out);
        });
        let joiner = ComponentActor::new(ViewGroup::<u32>::join(
            NodeId::new(3),
            group.clone(),
            VsConfig::default(),
        ))
        .with_step(repl_sim::SimDuration::from_ticks(10_000), |vg, out| {
            vg.rejoin(out);
        });
        let j = world.add_actor(Box::new(joiner));
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        let mut wide = group.clone();
        wide.push(j);
        for &n in &wide {
            let views = installed_views(&world, n);
            let last = views.last().expect("view installed");
            assert_eq!(last.members, wide, "final view at {n}: {views:?}");
            let d = deliveries(&world, n);
            assert!(d.iter().any(|&(_, p)| p == 77), "missing at {n}: {d:?}");
        }
        let vg = &world.actor_ref::<Host>(j).inner;
        assert!(!vg.is_excluded() && !vg.is_joining());
    }

    #[test]
    fn voluntary_leave_installs_shrunk_view_without_rejoin() {
        // Node 2 decommissions itself: survivors install the shrunk
        // view and keep broadcasting; the leaver observes its own
        // exclusion and stays out.
        let (mut world, group) = build(3, 22);
        let host = world.actor_mut::<Host>(group[2]);
        *host = ComponentActor::new(ViewGroup::<u32>::new(
            group[2],
            group.clone(),
            VsConfig::default(),
        ))
        .with_step(repl_sim::SimDuration::from_ticks(5_000), |vg, out| {
            vg.leave(out);
        });
        let host = world.actor_mut::<Host>(group[0]);
        *host = ComponentActor::new(ViewGroup::<u32>::new(
            group[0],
            group.clone(),
            VsConfig::default(),
        ))
        .with_step(repl_sim::SimDuration::from_ticks(50_000), |vg, out| {
            vg.broadcast(9, out);
        });
        world.start();
        world.run_until(SimTime::from_ticks(200_000));
        for &n in &group[..2] {
            let views = installed_views(&world, n);
            let last = views.last().expect("view installed at survivor");
            assert_eq!(last.members, group[..2].to_vec(), "at {n}: {views:?}");
            let d = deliveries(&world, n);
            assert!(d.iter().any(|&(_, p)| p == 9), "missing at {n}: {d:?}");
        }
        let vg = &world.actor_ref::<Host>(group[2]).inner;
        assert!(vg.is_excluded() && vg.is_leaving());
        let d = deliveries(&world, group[2]);
        assert!(
            !d.iter().any(|&(_, p)| p == 9),
            "left member still delivering: {d:?}"
        );
    }

    #[test]
    fn no_spurious_view_changes_without_crashes() {
        let (mut world, group) = build(4, 6);
        world.start();
        world.run_until(SimTime::from_ticks(50_000));
        for &n in &group {
            assert!(
                installed_views(&world, n).is_empty(),
                "spurious change at {n}"
            );
            assert!(!world.actor_ref::<Host>(n).inner.is_excluded());
        }
    }
}
