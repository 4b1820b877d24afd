//! The replica shell: the one server actor under all ten techniques.
//!
//! The paper's thesis is that the techniques differ only in how they
//! arrange five phases. Everything else a replica does — tell a retry from
//! a new operation, join a running group, drain out of it, survive a crash
//! or a lost volume, seal durability frames, know its shard — is the same
//! procedure whatever the replication scheme, so it lives here once.
//! [`Replica<T>`] is the only `impl Actor` for a server; a technique is a
//! plain struct implementing [`Technique`]: its five-phase flow plus the
//! few facts the lifecycle needs from it. Decisions stay here: the shell
//! alone decides who admits a joiner, and the runner who runs cross-shard.
//!
//! The lifecycle is gated by a [`Status`] in the shape of `status[r]` in
//! viewstamped replication's specification: a `Restoring` replica is deaf,
//! a `Joining` one buffers client work until welcomed, a `CatchingUp` one
//! has asked its peers for the state it missed, a `Draining` or `Retired`
//! one bounces client work to the remaining members. Join and recovery are
//! one state transfer — pushed in a `Welcome`, pulled with a `StateReq`,
//! same donor, same installer: recovery is a join that remembers.
//!
//! The shell keeps the one client table, as VR does: one entry per client,
//! holding the floor below which the group answered the client's ops
//! elsewhere, and this node's own last reply — its verdict and reads. A
//! recorded client has one operation in flight, so that decides every
//! duplicate, before any technique code runs.
//!
//! Every replica and client speaks one envelope, [`Wire`]: the client
//! protocol, the membership handshake and failure-detector heartbeats are
//! the shell's, and a technique's own message type carries only its
//! coordination traffic.
//!
//! A technique that acts on failure suspicions (Eager Primary Copy moves
//! the primary role, Semi-Passive shortens its deferral) opts into the
//! shell's one heartbeat detector with [`Technique::HEARTBEATS`]: the
//! shell starts it (a cold joiner on its welcome), keeps its peers equal
//! to the view, silences it on retirement and reports each new suspicion
//! through [`Technique::suspected`]; the technique only reads
//! [`Shell::is_suspected`] and says when heartbeats restart after a
//! recovery ([`Shell::restart_heartbeats`]).

use repl_db::{DurableRestore, FxHashMap, Keyspace, SharedArena, Transfer};
use repl_gcs::{Component, FdConfig, FdEvent, FdMsg, HeartbeatFd, Outbox};
use repl_sim::{impl_as_any, Actor, Context, Message, NodeId, SimDuration, SimTime, TimerId};

use crate::durability::DurabilityConfig;
use crate::op::{ClientOp, OpId, Response};
use crate::phase::Phase;
use crate::protocols::common::{ExecutionMode, ServerBase, ShardCtx};

/// Timer tag of the restore-download completion. Far outside all
/// protocol and component tag spaces.
pub const RESTORE_TAG: u64 = u64::MAX - 0xD15A;

/// Timer tag re-sending a joiner's admission request until the group
/// answers.
pub const JOIN_RETRY_TAG: u64 = u64::MAX - 0xADD1;

/// Timer tag polling a draining node's quiesce condition.
pub const DRAIN_TICK_TAG: u64 = u64::MAX - 0xDBA1;

/// Timer tag of the heartbeat detector's tick.
const FD_TICK_TAG: u64 = u64::MAX - 0xFD;

/// Cadence of [`JOIN_RETRY_TAG`] on a LAN (ticks) and its floor on any
/// network (`runner::tuned_join_retry`, handed over by [`Replica::equip`]).
pub const JOIN_RETRY_TICKS: u64 = 5_000;

/// Cadence of [`DRAIN_TICK_TAG`] (ticks).
pub const DRAIN_TICK_TICKS: u64 = 1_000;

/// Where a replica stands in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Status {
    /// Member in good standing: accepts client work.
    #[default]
    Normal,
    /// Cold joiner: from boot until the welcome installs. Client work is
    /// buffered and replayed afterwards.
    Joining,
    /// Downloading a wiped volume from the durable tier: deaf to messages
    /// and protocol timers until the download completes.
    Restoring,
    /// Back after a crash, until the first `StateData` lands: has asked
    /// for state, and neither donates any nor admits joiners.
    CatchingUp,
    /// Drain started: client work is rerouted, in-flight work finishes.
    Draining,
    /// Handed off and removed from the group; stays up as a passive
    /// relay (answers stragglers from its client table, forwards old
    /// traffic) but is no longer a member.
    Retired,
}

/// Wire messages of the membership handshake, shared by every technique
/// (carried as [`Wire::Member`]).
#[derive(Debug, Clone)]
pub enum MemberMsg {
    /// Joiner → group rank 0: admit me (retried until welcomed).
    JoinReq,
    /// Coordinator → members: the group now spans `servers`.
    ViewAdd {
        /// The new membership, sorted.
        servers: Vec<NodeId>,
    },
    /// Coordinator → joiner: membership plus bootstrap state.
    Welcome {
        /// The new membership, sorted (includes the joiner).
        servers: Vec<NodeId>,
        /// Committed-state snapshot, when the technique ships one up
        /// front (techniques with their own pull-style transfer omit it).
        transfer: Option<Box<Transfer>>,
        /// Donor's ordered-stream position at the snapshot instant.
        pos: u64,
        /// Donor's delivered-gseq watermark at the snapshot instant.
        gpos: u64,
        /// Per client, sorted by client, the last operation the donor
        /// itself answered, without the reply: the joiner raises that
        /// client's floor past it, so a client retry that re-enters one
        /// after the snapshot is dropped, never re-executed.
        answered: Vec<OpId>,
    },
    /// Decommissioned member → members: remove me from the group (sent
    /// after the drain quiesced and any role was handed off).
    ViewDrop {
        /// The leaving node.
        node: NodeId,
    },
    /// Recovered replica → peers: send me the state I missed.
    StateReq {
        /// The requester's log position, where the technique keeps a log
        /// (the donor may then ship a suffix).
        have: Option<u64>,
    },
    /// Donor → recovered replica: log suffix or snapshot.
    StateData(Box<Transfer>),
    /// Draining/retired server → client: this node no longer takes work;
    /// re-resolve against `servers` and re-submit `op` there.
    Reroute {
        /// The operation being bounced.
        op: OpId,
        /// The membership without the leaving node, sorted.
        servers: Vec<NodeId>,
    },
}

impl Message for MemberMsg {
    fn wire_size(&self) -> usize {
        match self {
            MemberMsg::JoinReq => 8,
            MemberMsg::ViewAdd { servers } => 8 + 4 * servers.len(),
            MemberMsg::Welcome {
                servers,
                transfer,
                answered,
                ..
            } => {
                24 + 4 * servers.len()
                    + 8 * answered.len()
                    + transfer.as_ref().map_or(0, |t| t.wire_size())
            }
            MemberMsg::ViewDrop { .. } => 12,
            MemberMsg::StateReq { have } => 8 + have.map_or(0, |_| 8),
            MemberMsg::StateData(t) => 8 + t.wire_size(),
            MemberMsg::Reroute { servers, .. } => 16 + 4 * servers.len(),
        }
    }
}

/// The one envelope replicas and clients exchange: the shell's client
/// protocol and membership handshake around a technique's own
/// coordination traffic `P`.
#[derive(Debug, Clone)]
pub enum Wire<P> {
    /// Client → server (or a server forwarding to the one that executes).
    Invoke(ClientOp),
    /// Server → client.
    Reply(Response),
    /// The membership handshake (join / drain / state transfer / reroute).
    Member(MemberMsg),
    /// Failure-detector heartbeats between the servers of a technique
    /// with [`Technique::HEARTBEATS`].
    Fd(FdMsg),
    /// The technique's own Server / Agreement Coordination and Execution
    /// traffic.
    Proto(P),
}

impl<P: Message> Message for Wire<P> {
    fn wire_size(&self) -> usize {
        match self {
            Wire::Invoke(op) => 8 + op.wire_size(),
            Wire::Reply(r) => 8 + r.wire_size(),
            Wire::Member(m) => m.wire_size(),
            Wire::Fd(m) => m.wire_size(),
            Wire::Proto(p) => p.wire_size(),
        }
    }
}

/// The simulator context of an actor speaking [`Wire<P>`].
pub type Ctx<'a, P> = Context<'a, Wire<P>>;

/// Technique-specific counters the run report carries.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExtraStats {
    /// Optimistic writes overridden by reconciliation (lazy UE).
    pub reconciliations: u64,
    /// Wound events observed (distributed locking).
    pub wounds: u64,
    /// Lock-table entries held outside the kernel's dense window
    /// ([`repl_db::LockManager::spilled`]); zero without a lock table.
    pub spilled_locks: u64,
}

/// What makes a replica one technique rather than another: its
/// five-phase flow, and the facts the shell's lifecycle asks of it. Every
/// hook receives the [`Shell`] (database kernel, membership view, shard
/// scope) next to the technique's own state.
pub trait Technique: Sized + 'static {
    /// The technique's own coordination traffic (carried as
    /// [`Wire::Proto`]).
    type Msg: Message;

    /// Whether the shell runs its heartbeat failure detector for this
    /// technique ([`Shell::is_suspected`], [`Technique::suspected`]).
    const HEARTBEATS: bool = false;

    /// A client operation the shell accepted (not yet answered, not
    /// rerouted, not buffered): phases RE onwards.
    fn on_invoke(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, Self::Msg>, op: ClientOp);

    /// A message of the technique's own coordination traffic.
    fn on_protocol_msg(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, Self::Msg>,
        from: NodeId,
        msg: Self::Msg,
    );

    /// A timer that is not one of the shell's.
    fn on_protocol_timer(&mut self, _sh: &mut Shell, _ctx: &mut Ctx<'_, Self::Msg>, _tag: u64) {}

    /// The heartbeat detector ([`Technique::HEARTBEATS`]) began to
    /// suspect `node` ([`Shell::is_suspected`] already says so).
    fn suspected(&mut self, _sh: &mut Shell, _ctx: &mut Ctx<'_, Self::Msg>, _node: NodeId) {}

    /// World start (also for a cold joiner — [`Shell::joining`] — before
    /// its join request). On a cross-shard run [`Shell::shard`] is already
    /// set.
    fn on_start(&mut self, _sh: &mut Shell, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// The membership view changed ([`Shell::servers`] is the new one):
    /// re-derive whatever the technique computes from it.
    fn view_changed(&mut self, _sh: &mut Shell) {}

    /// Coordinator: admit `joiner` (how, never whether: acks the
    /// admission waits for are the technique's own traffic). The default
    /// is [`Shell::admit`] — view change, `ViewAdd` fan-out and welcome.
    fn admit(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, Self::Msg>, joiner: NodeId) {
        sh.admit(self, ctx, joiner);
    }

    /// Member: the coordinator announced a grown view. A retired node
    /// installs nothing: the announcement was sent before its `ViewDrop`
    /// arrived, and the view it names still holds this node.
    fn view_added(
        &mut self,
        sh: &mut Shell,
        _ctx: &mut Ctx<'_, Self::Msg>,
        _from: NodeId,
        servers: &[NodeId],
    ) {
        if !sh.retired() {
            sh.install_view(self, servers);
        }
    }

    /// Coordinator: the bootstrap state for `joiner` — a snapshot if the
    /// technique ships one up front, and the stream coordinates (`pos`,
    /// `gpos`) it was cut at.
    fn welcome_state(&mut self, sh: &mut Shell, joiner: NodeId) -> (Option<Transfer>, u64, u64);

    /// Joiner: the welcome arrived; the view and the donor's answered ops
    /// are installed. Install the state and enter the group.
    fn welcomed(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, Self::Msg>,
        transfer: Option<&Transfer>,
        pos: u64,
        gpos: u64,
    );

    /// Donor (the shell never asks one that is itself joining or catching
    /// up): the state for `to`, which holds the log prefix `[0, have)`. The
    /// default is the join snapshot, unless retired — that store froze. An
    /// override states what differs: a retained log suffix, another gate.
    fn donate(&mut self, sh: &mut Shell, to: NodeId, _have: u64) -> Option<Transfer> {
        if sh.retired() {
            return None;
        }
        self.welcome_state(sh, to).0
    }

    /// A `StateData` arrived; `first` marks the one that ended
    /// [`Status::CatchingUp`] (slower donors, and answers to a `StateReq`
    /// sent without [`Shell::pull_state`], come unmarked). The default
    /// installs the first like a welcome — at stream coordinates (0, 0),
    /// which fast-forward no cursor the replica kept — and drops the rest.
    fn caught_up(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, Self::Msg>,
        t: &Transfer,
        first: bool,
    ) {
        if first {
            self.welcomed(sh, ctx, Some(t), 0, 0);
        }
    }

    /// A decommissioned member left (the view is already shrunk);
    /// `was_first` tells whether it held rank 0.
    fn member_left(
        &mut self,
        _sh: &mut Shell,
        _ctx: &mut Ctx<'_, Self::Msg>,
        _node: NodeId,
        _was_first: bool,
    ) {
    }

    /// Draining: has everything this node must not abandon finished?
    fn quiesced(&self, sh: &Shell) -> bool;

    /// Draining and quiesced: hand off any distinguished role and leave
    /// the technique's own groups; `remaining` is the view without this
    /// node (the shell installs it afterwards).
    fn retire(&mut self, _sh: &mut Shell, _ctx: &mut Ctx<'_, Self::Msg>, _remaining: &[NodeId]) {}

    /// The process crashed: drop volatile state that must not survive.
    fn crashed(&mut self, _sh: &mut Shell) {}

    /// The volume is gone (the shell already wiped the database kernel):
    /// drop what the technique kept on it.
    fn volume_lost(&mut self, _sh: &mut Shell) {}

    /// The process is back up, before any restore: undo in-flight work
    /// that died with it.
    fn recovering(&mut self, _sh: &mut Shell) {}

    /// A wiped volume was restored up to `restore.token`: rewind the
    /// technique's cursors there so the rejoin replays the rest.
    fn rewind_to(&mut self, _sh: &mut Shell, _restore: DurableRestore) {}

    /// Re-enter the group: after a crash, and after a restore download.
    fn rejoin(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, Self::Msg>);

    /// The durable frame token: the position in the technique's stream
    /// that the committed state reflects. Techniques without a stream
    /// keep the committed count.
    fn position(&self, sh: &Shell) -> u64 {
        sh.base.committed
    }

    /// Technique-specific report counters.
    fn extra_stats(&self) -> ExtraStats {
        ExtraStats::default()
    }
}

/// One client's entry in the client table (VR's: the number of its latest
/// request and the result). A recorded client sends op `n` only once op
/// `n - 1` was answered, so every op below either mark was answered.
#[derive(Debug, Default)]
struct ClientEntry {
    /// The group answered every seq below it elsewhere: through the join
    /// welcome or [`Shell::answered_elsewhere`]. A volume loss keeps it.
    floor: u32,
    /// One past this node's last reply; [`Shell::forget`] lowers it.
    own: u32,
    /// This node's last reply (its reads buffer is reused in place); it
    /// stands while `own` is one past its seq.
    last: Response,
}

impl ClientEntry {
    /// This node's last reply to the client, unless forgotten.
    fn reply(&self) -> Option<&Response> {
        (self.own == self.last.op.seq() + 1).then_some(&self.last)
    }
}

/// Everything a replica owns that is not its technique: the database
/// kernel, membership view, lifecycle status, client table, shard scope
/// and failure detector.
#[derive(Debug)]
pub struct Shell {
    /// Database kernel, recovery tracker, durable tier and payload arena
    /// handle (public for post-run inspection).
    pub base: ServerBase,
    me: NodeId,
    /// The one membership view, sorted (includes `me` while a member).
    servers: Vec<NodeId>,
    /// Never [`Status::Restoring`]: that state is the durable tier's.
    membership: Status,
    /// Set by [`Shell::pull_state`], cleared by the first `StateData`.
    catching_up: bool,
    /// Client operations buffered while joining.
    buffered: Vec<ClientOp>,
    /// The client table: one entry per client number.
    clients: FxHashMap<u32, ClientEntry>,
    /// The sharded topology, on cross-shard runs.
    shard: Option<ShardCtx>,
    /// Whether a member of this run can ever ask for a refill.
    can_replay: bool,
    /// Cadence of a joiner's `JoinReq` retry.
    join_retry: SimDuration,
    /// The heartbeat detector, for a technique with
    /// [`Technique::HEARTBEATS`]; it watches the view's other members.
    fd: Option<HeartbeatFd>,
    /// What `fd` queued while handling one input.
    fd_out: Outbox<FdMsg, FdEvent>,
}

impl Shell {
    /// This node.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The current membership view, sorted.
    pub fn servers(&self) -> &[NodeId] {
        &self.servers
    }

    /// The other members of the view, ascending.
    pub fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.servers.iter().copied().filter(|&n| n != self.me)
    }

    /// The membership without this node: role-handoff and reroute
    /// targets.
    pub fn remaining(&self) -> Vec<NodeId> {
        self.peers().collect()
    }

    /// The lifecycle status.
    pub fn status(&self) -> Status {
        if self.base.restoring() {
            Status::Restoring
        } else if self.catching_up {
            Status::CatchingUp
        } else {
            self.membership
        }
    }

    /// True from [`Shell::pull_state`] until the first `StateData`.
    pub fn catching_up(&self) -> bool {
        self.catching_up
    }

    /// True from boot until the join handshake completes.
    pub fn joining(&self) -> bool {
        self.membership == Status::Joining
    }

    /// True while this node bounces client work (draining or retired).
    pub fn rerouting(&self) -> bool {
        matches!(self.membership, Status::Draining | Status::Retired)
    }

    /// True once this node has left the group.
    pub fn retired(&self) -> bool {
        self.membership == Status::Retired
    }

    /// True when this node coordinates membership changes (rank 0).
    pub fn is_coordinator(&self) -> bool {
        self.servers.first() == Some(&self.me)
    }

    /// True if `op` is a duplicate: this node answered it or a later op
    /// of its client, or the group did before this node's floor.
    pub fn already_answered(&self, op: OpId) -> bool {
        (self.clients.get(&op.client())).is_some_and(|e| op.seq() < e.floor.max(e.own))
    }

    /// Records this node's reply, for the retries (a no-op on a lean
    /// server: the open loop never retries). It replaces the client's
    /// last reply unless that one is later; the reads are copied into
    /// the entry's buffer, which allocates only when it grows.
    pub fn answer(&mut self, resp: &Response) {
        if self.base.lean() {
            return;
        }
        let e = self.clients.entry(resp.op.client()).or_default();
        if e.reply().is_some_and(|last| resp.op.seq() < last.op.seq()) {
            return;
        }
        e.own = e.own.max(resp.op.seq() + 1);
        (e.last.op, e.last.committed) = (resp.op, resp.committed);
        e.last.reads.clone_from(&resp.reads);
    }

    /// This node's recorded reply to `op`, rebuilt — the same verdict and
    /// the same reads in the same order — if it is the client's last.
    fn recorded(&self, op: OpId) -> Option<Response> {
        let last = self.clients.get(&op.client())?.reply()?;
        (last.op == op).then(|| last.clone())
    }

    /// Records `resp` and sends it to `to`.
    pub fn reply<P: Message>(&mut self, ctx: &mut Ctx<'_, P>, to: NodeId, resp: Response) {
        self.answer(&resp);
        ctx.send(to, Wire::Reply(resp));
    }

    /// Records `op` as answered by another member: the group answered it
    /// before this node joined, or its delegate committed it here. Raises
    /// the client's floor past it, so a retry of it is dropped (a no-op on
    /// a lean server, as [`Shell::answer`]).
    pub fn answered_elsewhere(&mut self, op: OpId) {
        if !self.base.lean() {
            let e = self.clients.entry(op.client()).or_default();
            e.floor = e.floor.max(op.seq() + 1);
        }
    }

    /// Drops this node's reply to `op`, whose commit is gone: the op runs
    /// again when the group replays it. If this node's replies covered
    /// `op`, its client's own mark falls to `op`; the floor stays. A
    /// client's lost commits are a contiguous suffix of its ops, so the
    /// order they are forgotten in does not matter.
    pub fn forget(&mut self, op: OpId) {
        if let Some(e) = self.clients.get_mut(&op.client()) {
            e.own = e.own.min(op.seq());
        }
    }

    /// The sharded topology, on cross-shard runs.
    pub fn shard(&self) -> Option<&ShardCtx> {
        self.shard.as_ref()
    }

    /// Whether a member of this run can ever crash, lose its volume, join
    /// or retire ([`crate::RunConfig::can_replay`]), and so ask to be
    /// refilled from what the group delivered. Only then does the
    /// ordering layer keep a replay log, a consensus pool keep a value
    /// every member has decided, and Semi-Passive or Eager Primary Copy
    /// keep its decision log's entries. True for a server built by hand.
    pub fn can_replay(&self) -> bool {
        self.can_replay
    }

    /// True if the heartbeat detector suspects `node` (never without
    /// [`Technique::HEARTBEATS`]).
    pub fn is_suspected(&self, node: NodeId) -> bool {
        self.fd.as_ref().is_some_and(|fd| fd.is_suspected(node))
    }

    /// (Re)starts heartbeats, dropping stale miss counters so the first
    /// tick cannot suspect a live peer on old evidence. The shell starts
    /// them at world start and on a welcome; a technique restarts them
    /// where its recovery ends.
    pub fn restart_heartbeats<T: Technique>(&mut self, tech: &mut T, ctx: &mut Ctx<'_, T::Msg>) {
        self.feed_detector(tech, ctx, |fd, out| {
            fd.reset();
            fd.on_start(out);
        });
    }

    /// Clears any suspicion of `node` at once: proof of life that should
    /// not wait for its next heartbeat (a recovering peer's `StateReq`).
    /// The queued `Trust` event reaches no technique.
    pub fn trust(&mut self, node: NodeId) {
        if let Some(fd) = &mut self.fd {
            fd.trust(node, &mut self.fd_out);
        }
    }

    /// Feeds the heartbeat detector one input, sends what it queued and
    /// hands each new suspicion to [`Technique::suspected`].
    fn feed_detector<T: Technique>(
        &mut self,
        tech: &mut T,
        ctx: &mut Ctx<'_, T::Msg>,
        input: impl FnOnce(&mut HeartbeatFd, &mut Outbox<FdMsg, FdEvent>),
    ) {
        let Some(fd) = &mut self.fd else {
            return;
        };
        input(fd, &mut self.fd_out);
        let mut out = std::mem::take(&mut self.fd_out);
        repl_gcs::apply_outbox(ctx, &mut out, FD_TICK_TAG, Wire::Fd, |ctx, ev| {
            if let FdEvent::Suspect(node) = ev {
                tech.suspected(self, ctx, node);
            }
        });
        self.fd_out = out;
    }

    /// Records a phase mark for `op` at site 0 only, the one process
    /// `phase.rs` reads.
    pub fn mark<P: Message>(&self, ctx: &mut Ctx<'_, P>, phase: Phase, op: OpId, b: u64) {
        if self.base.site == 0 {
            ctx.mark(phase.tag(), op.0, b);
        }
    }

    /// The client prologue: resend this node's reply to the client's last
    /// op, drop any other answered op, bounce while leaving, buffer while
    /// joining, else hand the operation to the technique.
    fn invoke<T: Technique>(&mut self, tech: &mut T, ctx: &mut Ctx<'_, T::Msg>, op: ClientOp) {
        if let Some(resp) = self.recorded(op.id) {
            ctx.send(op.client, Wire::Reply(resp));
        } else if self.already_answered(op.id) {
            // A stale retry, or one the group answered elsewhere: dropped.
        } else if self.rerouting() {
            let bounce = MemberMsg::Reroute {
                op: op.id,
                servers: self.remaining(),
            };
            ctx.send(op.client, Wire::Member(bounce));
        } else if self.joining() {
            self.buffered.push(op);
        } else {
            tech.on_invoke(self, ctx, op);
        }
    }

    /// Completes a drain once the technique has quiesced: role handoff,
    /// one `ViewDrop` per remaining member, retirement. Polls again on
    /// [`DRAIN_TICK_TAG`] otherwise. A technique calls this itself where
    /// finishing a piece of work may be what the drain waits for.
    pub fn try_retire<T: Technique>(&mut self, tech: &mut T, ctx: &mut Ctx<'_, T::Msg>) {
        if self.membership != Status::Draining {
            return;
        }
        if !tech.quiesced(self) {
            ctx.set_timer(SimDuration::from_ticks(DRAIN_TICK_TICKS), DRAIN_TICK_TAG);
            return;
        }
        let remaining = self.remaining();
        tech.retire(self, ctx, &remaining);
        for &n in &remaining {
            ctx.send(n, Wire::Member(MemberMsg::ViewDrop { node: self.me }));
        }
        // Go quiet: the survivors drop this node from their detectors on
        // `ViewDrop`, so silence cannot raise a suspicion there.
        if let Some(fd) = &mut self.fd {
            fd.set_peers(Vec::new());
        }
        self.servers = remaining;
        self.membership = Status::Retired;
    }

    /// The default admission: the view grows, every other member hears
    /// `ViewAdd`, and the joiner is welcomed — all in this one event, so
    /// every stream message after it reaches the joiner and everything
    /// before is in the snapshot. A retried `JoinReq` re-sends the
    /// (idempotent) welcome.
    pub fn admit<T: Technique>(&mut self, tech: &mut T, ctx: &mut Ctx<'_, T::Msg>, joiner: NodeId) {
        self.add_member(tech, joiner);
        for &n in &self.servers {
            if n != self.me && n != joiner {
                let grown = MemberMsg::ViewAdd {
                    servers: self.servers.clone(),
                };
                ctx.send(n, Wire::Member(grown));
            }
        }
        self.welcome(tech, ctx, joiner);
    }

    /// Adds `joiner` to the view (a no-op for a known member).
    pub fn add_member<T: Technique>(&mut self, tech: &mut T, joiner: NodeId) {
        if !self.servers.contains(&joiner) {
            self.servers.push(joiner);
            self.servers.sort();
        }
        self.view_changed(tech);
    }

    /// Replaces the view wholesale (`ViewAdd` / `Welcome` install).
    pub fn install_view<T: Technique>(&mut self, tech: &mut T, servers: &[NodeId]) {
        self.servers.clear();
        self.servers.extend_from_slice(servers);
        self.view_changed(tech);
    }

    /// The view changed: the detector watches its other members (none
    /// once retired), and the technique re-derives what it computes from
    /// it.
    fn view_changed<T: Technique>(&mut self, tech: &mut T) {
        let retired = self.retired();
        if let Some(fd) = self.fd.as_mut().filter(|_| !retired) {
            fd.set_peers(self.servers.clone());
        }
        tech.view_changed(self);
    }

    /// Sends `joiner` its welcome: the view, the technique's bootstrap
    /// state, and per client the last operation this server itself
    /// answered.
    pub fn welcome<T: Technique>(
        &mut self,
        tech: &mut T,
        ctx: &mut Ctx<'_, T::Msg>,
        joiner: NodeId,
    ) {
        let (transfer, pos, gpos) = tech.welcome_state(self, joiner);
        let own = self.clients.iter().filter(|(_, e)| e.own > 0);
        let mut answered: Vec<OpId> = own.map(|(&c, e)| OpId::compose(c, e.own - 1)).collect();
        answered.sort_unstable(); // by client: the map iterates in no set order
        let welcome = MemberMsg::Welcome {
            servers: self.servers.clone(),
            transfer: transfer.map(Box::new),
            pos,
            gpos,
            answered,
        };
        ctx.send(joiner, Wire::Member(welcome));
    }

    /// Asks the seed membership's first other member for admission and
    /// arms the retry.
    fn request_join<P: Message>(&self, ctx: &mut Ctx<'_, P>) {
        let target = self
            .peers()
            .next()
            .expect("join seed names at least one member");
        ctx.send(target, Wire::Member(MemberMsg::JoinReq));
        ctx.set_timer(self.join_retry, JOIN_RETRY_TAG);
    }

    /// Recovery's pull: asks every peer for the state this replica missed
    /// (`have` as in [`MemberMsg::StateReq`]); the first answer wins.
    /// Returns false for a lone member — nobody to ask, nothing missed.
    pub fn pull_state<P: Message>(&mut self, ctx: &mut Ctx<'_, P>, have: Option<u64>) -> bool {
        let mut asked = false;
        for n in self.peers() {
            ctx.send(n, Wire::Member(MemberMsg::StateReq { have }));
            asked = true;
        }
        self.catching_up = asked;
        asked
    }

    fn on_member<T: Technique>(
        &mut self,
        tech: &mut T,
        ctx: &mut Ctx<'_, T::Msg>,
        from: NodeId,
        m: &MemberMsg,
    ) {
        match m {
            MemberMsg::JoinReq => {
                let has_state = !self.joining() && !self.catching_up;
                if self.is_coordinator() && has_state && !self.rerouting() {
                    tech.admit(self, ctx, from);
                }
            }
            MemberMsg::ViewAdd { servers } => tech.view_added(self, ctx, from, servers),
            MemberMsg::Welcome {
                servers,
                transfer,
                pos,
                gpos,
                answered,
            } => {
                if !self.joining() {
                    return; // duplicate welcome (retried JoinReq)
                }
                self.membership = Status::Normal;
                self.install_view(tech, servers);
                for &op in answered {
                    self.answered_elsewhere(op);
                }
                // The group knows this node now: heartbeats start.
                self.restart_heartbeats(tech, ctx);
                tech.welcomed(self, ctx, transfer.as_deref(), *pos, *gpos);
                for op in std::mem::take(&mut self.buffered) {
                    self.invoke(tech, ctx, op);
                }
            }
            MemberMsg::ViewDrop { node } => {
                let was_first = self.servers.first() == Some(node);
                self.servers.retain(|n| n != node);
                self.view_changed(tech);
                tech.member_left(self, ctx, *node, was_first);
            }
            MemberMsg::StateReq { have } => {
                // Whoever still waits for state has none to give: a cold
                // joiner's empty store must never end someone's recovery.
                if self.joining() || self.catching_up {
                    return;
                }
                if let Some(t) = tech.donate(self, from, have.unwrap_or(0)) {
                    ctx.send(from, Wire::Member(MemberMsg::StateData(Box::new(t))));
                }
            }
            MemberMsg::StateData(t) => {
                let first = std::mem::take(&mut self.catching_up);
                tech.caught_up(self, ctx, t, first);
            }
            MemberMsg::Reroute { .. } => {}
        }
    }
}

/// A replica server: the lifecycle shell around technique `T`.
pub struct Replica<T: Technique> {
    /// The technique-independent part (public for post-run inspection).
    pub shell: Shell,
    /// The technique's own state (public for post-run inspection).
    pub tech: T,
}

impl<T: Technique> Replica<T> {
    /// Creates server `site` (node `me`) of `group` around `tech`.
    pub fn around(
        site: u32,
        me: NodeId,
        group: Vec<NodeId>,
        keyspace: impl Into<Keyspace>,
        exec: ExecutionMode,
        tech: T,
    ) -> Self {
        let fd = T::HEARTBEATS.then(|| HeartbeatFd::new(me, group.clone(), FdConfig::default()));
        Replica {
            shell: Shell {
                base: ServerBase::new(site, keyspace, exec),
                me,
                servers: group,
                membership: Status::Normal,
                catching_up: false,
                buffered: Vec::new(),
                clients: FxHashMap::default(),
                shard: None,
                can_replay: true,
                join_retry: SimDuration::from_ticks(JOIN_RETRY_TICKS),
                fd,
                fd_out: Outbox::new(),
            },
            tech,
        }
    }

    /// Marks this server a cold joiner: it boots with no state and runs
    /// the join handshake on start before serving.
    pub fn begin_join(&mut self) {
        self.shell.membership = Status::Joining;
    }

    /// Applies the run-wide server setup: durable tier (a no-op when
    /// `durability` is disabled), lean mode, whether the run can replay
    /// ([`Shell::can_replay`]; a technique that owns an ABCAST endpoint
    /// reads it when the world starts), the shared payload arena, the
    /// heartbeat timing (used only with [`Technique::HEARTBEATS`]) and a
    /// joiner's `JoinReq` retry cadence.
    pub fn equip(
        &mut self,
        durability: &DurabilityConfig,
        lean: bool,
        can_replay: bool,
        arena: SharedArena,
        fd: FdConfig,
        join_retry: SimDuration,
    ) {
        self.shell.base.set_durability(durability);
        self.shell.base.set_lean(lean);
        self.shell.can_replay = can_replay;
        self.shell.join_retry = join_retry;
        self.shell.base.set_arena(arena);
        if let Some(detector) = &mut self.shell.fd {
            detector.set_config(fd);
        }
    }

    /// Gives this server the sharded topology ([`Shell::shard`]) before
    /// the run starts. Which techniques may run cross-shard, and only
    /// without faults or membership changes, is the runner's one check.
    pub fn enable_cross_shard(&mut self, ctx: ShardCtx) {
        self.shell.shard = Some(ctx);
    }
}

impl<T: Technique> Actor<Wire<T::Msg>> for Replica<T> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, T::Msg>) {
        let Replica { shell, tech } = self;
        // A cold joiner stays quiet until welcomed.
        if !shell.joining() {
            shell.restart_heartbeats(tech, ctx);
        }
        tech.on_start(shell, ctx);
        if shell.joining() {
            shell.base.recovery.begin(ctx.now().ticks());
            shell.request_join(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, T::Msg>, from: NodeId, msg: Wire<T::Msg>) {
        let Replica { shell, tech } = self;
        if shell.base.restoring() {
            return; // deaf until the volume restore download completes
        }
        match msg {
            Wire::Invoke(op) => shell.invoke(tech, ctx, op),
            Wire::Member(m) => shell.on_member(tech, ctx, from, &m),
            Wire::Fd(m) => shell.feed_detector(tech, ctx, |fd, out| fd.on_message(from, m, out)),
            Wire::Proto(m) => tech.on_protocol_msg(shell, ctx, from, m),
            Wire::Reply(_) => {} // a stray answer: only clients take replies
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, T::Msg>, _timer: TimerId, tag: u64) {
        let Replica { shell, tech } = self;
        match tag {
            RESTORE_TAG => {
                shell.base.finish_restore();
                tech.rejoin(shell, ctx);
            }
            JOIN_RETRY_TAG => {
                if shell.joining() {
                    shell.request_join(ctx);
                }
            }
            DRAIN_TICK_TAG => shell.try_retire(tech, ctx),
            _ if shell.base.restoring() => {}
            FD_TICK_TAG => {
                shell.feed_detector(tech, ctx, |fd, out| fd.on_timer(tag - FD_TICK_TAG, out))
            }
            _ => tech.on_protocol_timer(shell, ctx, tag),
        }
    }

    fn on_crash(&mut self, _now: SimTime) {
        self.tech.crashed(&mut self.shell);
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, T::Msg>) {
        let Replica { shell, tech } = self;
        let now = ctx.now().ticks();
        shell.base.recovery.begin(now);
        tech.recovering(shell);
        if let Some(restore) = shell.base.begin_restore() {
            // The volume is gone: the durable tier restored a prefix;
            // the technique rewinds to it so the rejoin covers the rest.
            let delay = restore.delay;
            tech.rewind_to(shell, restore);
            if delay > 0 {
                ctx.set_timer(SimDuration::from_ticks(delay), RESTORE_TAG);
                return;
            }
            shell.base.finish_restore();
        }
        tech.rejoin(shell, ctx);
    }

    fn on_drain(&mut self, ctx: &mut Ctx<'_, T::Msg>) {
        let Replica { shell, tech } = self;
        if matches!(shell.membership, Status::Normal | Status::Joining) {
            shell.membership = Status::Draining;
            shell.try_retire(tech, ctx);
        }
    }

    fn on_volume_loss(&mut self, now: SimTime) {
        let Replica { shell, tech } = self;
        tech.crashed(shell);
        match shell.base.wipe_volume(now.ticks()) {
            Some(lost) => lost.for_each(|op| shell.forget(op)),
            // A bare loss forgets every own reply and keeps every floor.
            None => shell.clients.retain(|_, e| {
                e.own = 0;
                e.floor > 0
            }),
        }
        tech.volume_lost(shell);
    }

    fn on_settle(&mut self, ctx: &mut Ctx<'_, T::Msg>) {
        let token = self.tech.position(&self.shell);
        self.shell.base.seal_now(ctx.now().ticks(), token);
    }

    impl_as_any!();
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::protocols::common::global_txn;
    use repl_db::{Key, Value};
    use repl_sim::{SimConfig, World};
    use repl_workload::{OpTemplate, TxnTemplate};

    /// The stub technique's whole coordination traffic.
    #[derive(Debug, Clone)]
    struct Ping;
    impl Message for Ping {}
    type StubMsg = Wire<Ping>;

    const TICK: u64 = 7;

    /// Adds `servers` to `world` on one shared payload arena, as the
    /// runner seats them.
    pub(crate) fn seat_all<T: Technique>(
        world: &mut World<Wire<T::Msg>>,
        servers: impl IntoIterator<Item = Replica<T>>,
    ) {
        let arena = repl_db::shared_arena();
        for mut srv in servers {
            srv.shell.base.set_arena(arena.clone());
            world.add_actor(Box::new(srv));
        }
    }

    /// A fake technique: executes invokes locally and logs every hook;
    /// `HB` opts into the shell's heartbeat detector.
    #[derive(Default)]
    struct Stub<const HB: bool = false> {
        invoked: Vec<OpId>,
        pings: Vec<u64>,
        ticks: Vec<u64>,
        views: u32,
        welcomes: Vec<(u64, u64)>,
        retired_with: Vec<Vec<NodeId>>,
        quiet: bool,
        /// Lifecycle hooks in call order; `rejoin` carries its time.
        log: Vec<(&'static str, u64)>,
        /// `rejoin` pulls state (from log position 7).
        pulls: bool,
        /// Has a join snapshot, hence (by default) state to donate.
        donor: bool,
        /// Every `caught_up` call: the transfer's watermark and `first`.
        transfers: Vec<(u64, bool)>,
        /// Every `suspected` call: the node and the time.
        suspicions: Vec<(NodeId, u64)>,
    }

    impl<const HB: bool> Technique for Stub<HB> {
        type Msg = Ping;
        const HEARTBEATS: bool = HB;

        fn on_invoke(&mut self, sh: &mut Shell, ctx: &mut Context<'_, StubMsg>, op: ClientOp) {
            self.invoked.push(op.id);
            let resp = sh.base.execute_commit(&op, global_txn(op.id));
            sh.reply(ctx, op.client, resp);
        }
        fn on_protocol_msg(&mut self, _: &mut Shell, ctx: &mut Ctx<'_, Ping>, _: NodeId, _: Ping) {
            self.pings.push(ctx.now().ticks());
        }
        fn on_protocol_timer(&mut self, _sh: &mut Shell, ctx: &mut Context<'_, StubMsg>, tag: u64) {
            assert_eq!(tag, TICK);
            self.ticks.push(ctx.now().ticks());
        }
        fn on_start(&mut self, _sh: &mut Shell, ctx: &mut Context<'_, StubMsg>) {
            // One-shot protocol timers every 100 ticks: timers set before
            // a crash still fire after the recovery, so some land inside
            // a restore window.
            for i in 1..=300 {
                ctx.set_timer(SimDuration::from_ticks(i * 100), TICK);
            }
        }
        fn suspected(&mut self, _sh: &mut Shell, ctx: &mut Context<'_, StubMsg>, node: NodeId) {
            self.suspicions.push((node, ctx.now().ticks()));
        }
        fn view_changed(&mut self, _sh: &mut Shell) {
            self.views += 1;
        }
        fn welcome_state(&mut self, sh: &mut Shell, _j: NodeId) -> (Option<Transfer>, u64, u64) {
            let snapshot = self.donor.then(|| Transfer::snapshot(&sh.base.store, 0));
            (snapshot, 0, 0)
        }
        fn caught_up(
            &mut self,
            _sh: &mut Shell,
            _ctx: &mut Context<'_, StubMsg>,
            t: &Transfer,
            first: bool,
        ) {
            self.transfers.push((t.high, first));
        }
        fn welcomed(
            &mut self,
            _sh: &mut Shell,
            _ctx: &mut Context<'_, StubMsg>,
            _transfer: Option<&Transfer>,
            pos: u64,
            gpos: u64,
        ) {
            self.welcomes.push((pos, gpos));
        }
        fn quiesced(&self, _sh: &Shell) -> bool {
            self.quiet
        }
        fn retire(&mut self, _sh: &mut Shell, _ctx: &mut Context<'_, StubMsg>, rem: &[NodeId]) {
            self.retired_with.push(rem.to_vec());
        }
        fn volume_lost(&mut self, _sh: &mut Shell) {
            self.log.push(("volume_lost", 0));
        }
        fn recovering(&mut self, _sh: &mut Shell) {
            self.log.push(("recovering", 0));
        }
        fn rewind_to(&mut self, _sh: &mut Shell, restore: DurableRestore) {
            self.log.push(("rewind_to", restore.token));
        }
        fn rejoin(&mut self, sh: &mut Shell, ctx: &mut Context<'_, StubMsg>) {
            self.log.push(("rejoin", ctx.now().ticks()));
            if self.pulls {
                sh.pull_state(ctx, Some(7));
            }
        }
        fn position(&self, _sh: &Shell) -> u64 {
            1_000 + self.invoked.len() as u64
        }
    }

    /// A scripted peer (shared with the ordered-stream host's tests):
    /// sends `script[i]` at its time, records what it receives.
    pub(crate) struct ScriptedPeer<M> {
        pub(crate) script: Vec<(u64, NodeId, M)>,
        pub(crate) got: Vec<(u64, M)>,
    }
    impl<M: Message> Actor<M> for ScriptedPeer<M> {
        fn on_start(&mut self, ctx: &mut Context<'_, M>) {
            for (i, (at, _, _)) in self.script.iter().enumerate() {
                ctx.set_timer(SimDuration::from_ticks(*at), i as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, M>, _t: TimerId, tag: u64) {
            let (_, to, msg) = self.script[tag as usize].clone();
            ctx.send(to, msg);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, M>, _from: NodeId, msg: M) {
            self.got.push((ctx.now().ticks(), msg));
        }
        impl_as_any!();
    }
    type Probe = ScriptedPeer<StubMsg>;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Op `id` writing its seq to the key of that number.
    fn write_op(id: u64, client: NodeId) -> ClientOp {
        let seq = u64::from(OpId(id).seq());
        ClientOp {
            id: OpId(id),
            client,
            txn: TxnTemplate {
                ops: vec![OpTemplate::Write(Key(seq), Value(seq as i64))].into(),
            },
        }
    }

    /// The first op of client 9, which the group answered elsewhere.
    const FLOORED: OpId = OpId(9 << 32);

    fn replica(me: u32, group: &[u32]) -> Replica<Stub> {
        let group = group.iter().map(|&i| n(i)).collect();
        Replica::around(
            me,
            n(me),
            group,
            16,
            ExecutionMode::Deterministic,
            Stub::default(),
        )
    }

    fn probe(script: Vec<(u64, NodeId, StubMsg)>) -> Box<Probe> {
        Box::new(Probe {
            script,
            got: Vec::new(),
        })
    }

    fn at(world: &mut World<StubMsg>, ticks: u64) {
        world.run_until(SimTime::from_ticks(ticks));
    }

    #[test]
    fn cold_join_retries_buffers_and_ignores_a_second_welcome() {
        let welcome = |pos| {
            StubMsg::Member(MemberMsg::Welcome {
                servers: vec![n(0), n(1)],
                transfer: None,
                pos,
                gpos: pos + 2,
                answered: vec![FLOORED],
            })
        };
        let mut world: World<StubMsg> = World::new(SimConfig::new(1));
        let coord = world.add_actor(probe(vec![
            (300, n(1), StubMsg::Invoke(write_op(1, n(0)))),
            (400, n(1), StubMsg::Invoke(write_op(2, n(0)))),
            (12_000, n(1), welcome(7)),
            (12_500, n(1), welcome(70)),
        ]));
        let mut joiner = replica(1, &[0, 1]);
        joiner.begin_join();
        let joiner = world.add_actor(Box::new(joiner));
        world.start();
        at(&mut world, 11_000);
        let j = world.actor_ref::<Replica<Stub>>(joiner);
        assert_eq!(j.shell.status(), Status::Joining);
        assert!(j.tech.invoked.is_empty(), "invokes are buffered, not run");
        assert!(j.shell.base.recovery.is_recovering());
        at(&mut world, 30_000);
        let j = world.actor_ref::<Replica<Stub>>(joiner);
        assert_eq!(j.shell.status(), Status::Normal);
        assert_eq!(j.tech.welcomes, vec![(7, 9)], "the duplicate is ignored");
        assert_eq!(j.tech.views, 1);
        assert_eq!(j.tech.invoked, vec![OpId(1), OpId(2)], "arrival order");
        assert!(j.shell.already_answered(FLOORED));
        let got = &world.actor_ref::<Probe>(coord).got;
        let join_reqs = got
            .iter()
            .filter(|(_, m)| matches!(m, StubMsg::Member(MemberMsg::JoinReq)))
            .count();
        // Sent at 0, 5 000 and 10 000; the welcome at ~12 100 stops them.
        assert_eq!(join_reqs, 3);
        let replies = got
            .iter()
            .filter(|(_, m)| matches!(m, StubMsg::Reply(_)))
            .count();
        assert_eq!(replies, 2);
    }

    #[test]
    fn a_wan_joiner_waits_out_the_round_trip_before_it_retries() {
        let mut world: World<StubMsg> = World::new(SimConfig::new(1));
        let coord = world.add_actor(probe(vec![(13_000, n(1), welcome_with(Vec::new()))]));
        let mut joiner = replica(1, &[0, 1]);
        joiner.begin_join();
        // A WAN round trip is 13 000 ticks; the tuned retry is 78 000.
        joiner.equip(
            &DurabilityConfig::disabled(),
            false,
            true,
            repl_db::shared_arena(),
            FdConfig::default(),
            crate::runner::tuned_join_retry(&repl_sim::NetworkConfig::wan()),
        );
        let joiner = world.add_actor(Box::new(joiner));
        world.start();
        at(&mut world, 40_000);
        let j = world.actor_ref::<Replica<Stub>>(joiner);
        assert_eq!(j.shell.status(), Status::Normal);
        let join_reqs = count(world.actor_ref::<Probe>(coord), |m| {
            matches!(m, MemberMsg::JoinReq)
        });
        assert_eq!(join_reqs, 1, "a retry before the answer re-runs admission");
    }

    /// A welcome into the view {0, 1} carrying the donor's `answered`.
    fn welcome_with(answered: Vec<OpId>) -> StubMsg {
        StubMsg::Member(MemberMsg::Welcome {
            servers: vec![n(0), n(1)],
            transfer: None,
            pos: 0,
            gpos: 0,
            answered,
        })
    }

    #[test]
    fn the_prologue_drops_an_op_the_group_answered_before_the_join() {
        let mut world: World<StubMsg> = World::new(SimConfig::new(12));
        let coord = world.add_actor(probe(vec![(1_000, n(1), welcome_with(vec![OpId(9)]))]));
        let mut joiner = replica(1, &[0, 1]);
        joiner.begin_join();
        let joiner = world.add_actor(Box::new(joiner));
        // One retry of op 9 buffered before the welcome, one after it.
        let client = world.add_actor(probe(vec![
            (500, n(1), StubMsg::Invoke(write_op(9, n(2)))),
            (2_000, n(1), StubMsg::Invoke(write_op(9, n(2)))),
        ]));
        world.start();
        at(&mut world, 10_000);
        let j = world.actor_ref::<Replica<Stub>>(joiner);
        assert_eq!(j.shell.status(), Status::Normal);
        assert_eq!(j.tech.invoked, [], "the technique never sees it");
        assert!(world.actor_ref::<Probe>(client).got.is_empty(), "no reply");
        let got = &world.actor_ref::<Probe>(coord).got;
        assert!(
            matches!(&got[..], [(_, StubMsg::Member(MemberMsg::JoinReq))]),
            "the joiner sent nothing but its join request: {got:?}"
        );
    }

    /// What a client gets back for a duplicate of op `dup` from a replica
    /// that recorded `replies` and ran nothing.
    fn resent(replies: &[Response], dup: u64) -> Vec<Response> {
        let mut r = replica(1, &[0, 1]);
        for resp in replies {
            assert!(!r.shell.already_answered(resp.op));
            r.shell.answer(resp);
            assert!(r.shell.already_answered(resp.op));
        }
        let mut world: World<StubMsg> = World::new(SimConfig::new(13));
        let client = world.add_actor(probe(vec![(
            100,
            n(1),
            StubMsg::Invoke(write_op(dup, n(0))),
        )]));
        let node = world.add_actor(Box::new(r));
        world.start();
        at(&mut world, 1_000);
        let r = world.actor_ref::<Replica<Stub>>(node);
        assert_eq!(
            r.tech.invoked,
            [],
            "a duplicate never reaches the technique"
        );
        let got = &world.actor_ref::<Probe>(client).got;
        got.iter()
            .map(|(_, m)| match m {
                StubMsg::Reply(resp) => resp.clone(),
                other => panic!("not a reply: {other:?}"),
            })
            .collect()
    }

    /// Recorded replies, one per client (2 to 5, each at its op 1);
    /// clients 4 and 5 were aborted, without and with reads.
    fn recorded_replies() -> Vec<Response> {
        let reads = |pairs: &[(u64, i64)]| pairs.iter().map(|&(k, v)| (Key(k), Value(v))).collect();
        vec![
            Response {
                op: OpId::compose(2, 1),
                committed: true,
                reads: reads(&[(1, 10)]),
            },
            Response {
                op: OpId::compose(3, 1),
                committed: true,
                reads: reads(&[(3, 42), (5, -7), (4, 1)]),
            },
            Response::aborted(OpId::compose(4, 1)),
            Response {
                op: OpId::compose(5, 1),
                committed: false,
                reads: reads(&[(9, 9)]),
            },
        ]
    }

    #[test]
    fn a_duplicate_invoke_gets_the_recorded_reply() {
        let recorded = recorded_replies();
        for resp in &recorded {
            let got = resent(&recorded, resp.op.0);
            assert_eq!(
                got,
                std::slice::from_ref(resp),
                "the same op, verdict (an abort stays an abort) and reads in order"
            );
            assert_eq!(got[0].wire_size(), resp.wire_size());
        }
    }

    #[test]
    fn forget_drops_a_reply_and_keeps_the_floor() {
        let mut r = replica(1, &[0, 1]);
        r.shell.answered_elsewhere(FLOORED);
        let own = &recorded_replies()[1];
        r.shell.answer(own);
        r.shell.forget(FLOORED);
        r.shell.forget(own.op);
        assert!(r.shell.already_answered(FLOORED), "the floor stays");
        assert!(!r.shell.already_answered(own.op), "the reply is gone");
        assert!(
            r.shell.already_answered(OpId::compose(3, 0)),
            "below it stays"
        );
        // A lost suffix (ops 3 to 5 of client 0) comes back whatever the
        // order it is forgotten in.
        for order in [[3, 4, 5], [5, 3, 4], [4, 5, 3]] {
            let mut r = replica(1, &[0, 1]);
            (0..6).for_each(|seq| r.shell.answer(&Response::committed(OpId(seq))));
            order.iter().for_each(|&seq| r.shell.forget(OpId(seq)));
            let answered: Vec<u64> = (0..6)
                .filter(|&s| r.shell.already_answered(OpId(s)))
                .collect();
            assert_eq!(answered, [0, 1, 2], "forgotten in order {order:?}");
            assert!(
                r.shell.recorded(OpId(5)).is_none(),
                "the last reply is gone"
            );
        }
    }

    #[test]
    fn the_client_table_keeps_one_entry_per_client() {
        // 1 000 in-order ops of client 0, then one op each of clients 1-3.
        let mut r = replica(1, &[0, 1]);
        (0..1_000).for_each(|seq| r.shell.answer(&Response::committed(OpId(seq))));
        (1..4).for_each(|c| r.shell.answer(&Response::committed(OpId::compose(c, 0))));
        assert_eq!(r.shell.clients.len(), 4, "one entry per client");
        assert!(r.shell.already_answered(OpId(0)) && r.shell.already_answered(OpId(999)));
        assert!(!r.shell.already_answered(OpId(1_000)), "the next op is new");
        let last = r.shell.recorded(OpId(999)).expect("the last reply stands");
        assert_eq!(last, Response::committed(OpId(999)));
        assert!(
            r.shell.recorded(OpId(998)).is_none(),
            "only the last is kept"
        );
    }

    #[test]
    fn a_lean_shell_records_no_reply() {
        let mut r = replica(0, &[0]);
        r.equip(
            &DurabilityConfig::disabled(),
            true,
            true,
            repl_db::shared_arena(),
            FdConfig::default(),
            SimDuration::from_ticks(JOIN_RETRY_TICKS),
        );
        r.shell.answer(&Response::committed(OpId(9)));
        assert!(
            !r.shell.already_answered(OpId(9)),
            "the lean table stays empty"
        );
    }

    /// The ops among {1, 2, `FLOORED`} a replica still counts as answered
    /// after losing its volume at 2 000: `FLOORED` is on its floor, it
    /// answered 1 at 100 and 2 at 1 500, and its tier (if any) uploads a
    /// frame in 1 000 ticks.
    fn answered_after_wipe(tiered: bool) -> Vec<u64> {
        let mut world: World<StubMsg> = World::new(SimConfig::new(14));
        let mut r = replica(0, &[0, 1]);
        if tiered {
            let tier = DurabilityConfig::with_upload_lag(1_000);
            r.equip(
                &tier,
                false,
                true,
                repl_db::shared_arena(),
                FdConfig::default(),
                SimDuration::from_ticks(JOIN_RETRY_TICKS),
            );
        }
        r.shell.answered_elsewhere(FLOORED);
        let node = world.add_actor(Box::new(r));
        world.add_actor(probe(vec![
            (100, n(0), StubMsg::Invoke(write_op(1, n(1)))),
            (1_500, n(0), StubMsg::Invoke(write_op(2, n(1)))),
        ]));
        world.schedule_volume_loss(SimTime::from_ticks(2_000), node);
        world.start();
        let answered = |world: &World<StubMsg>| -> Vec<u64> {
            let sh = &world.actor_ref::<Replica<Stub>>(node).shell;
            [1, 2, FLOORED.0]
                .into_iter()
                .filter(|&op| sh.already_answered(OpId(op)))
                .collect()
        };
        at(&mut world, 1_900);
        assert_eq!(answered(&world), [1, 2, FLOORED.0]);
        at(&mut world, 2_500);
        answered(&world)
    }

    #[test]
    fn a_tiered_wipe_forgets_the_lost_answers_and_keeps_the_floor() {
        // Op 1's frame was uploaded at 1 100; op 2's was still in flight.
        assert_eq!(answered_after_wipe(true), [1, FLOORED.0]);
    }

    #[test]
    fn a_bare_wipe_forgets_every_own_answer_and_keeps_the_floor() {
        assert_eq!(answered_after_wipe(false), [FLOORED.0]);
    }

    #[test]
    fn a_donor_that_joined_welcomes_with_its_own_answers_only() {
        // Node 0 joins through node 1 with client 9's op on its floor,
        // then, as rank 0, answers op 4 and admits node 2.
        let mut world: World<StubMsg> = World::new(SimConfig::new(16));
        let mut donor = replica(0, &[0, 1]);
        donor.begin_join();
        let donor = world.add_actor(Box::new(donor));
        world.add_actor(probe(vec![(1_000, n(0), welcome_with(vec![FLOORED]))]));
        let joiner = world.add_actor(probe(vec![
            (2_000, n(0), StubMsg::Invoke(write_op(4, n(2)))),
            (3_000, n(0), StubMsg::Member(MemberMsg::JoinReq)),
        ]));
        world.start();
        at(&mut world, 5_000);
        let d = world.actor_ref::<Replica<Stub>>(donor);
        assert!(d.shell.already_answered(FLOORED));
        assert_eq!(d.shell.servers(), [n(0), n(1), n(2)]);
        let welcomed: Vec<Vec<OpId>> = world
            .actor_ref::<Probe>(joiner)
            .got
            .iter()
            .filter_map(|(_, m)| match m {
                StubMsg::Member(MemberMsg::Welcome { answered, .. }) => Some(answered.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(welcomed, vec![vec![OpId(4)]]);
    }

    /// Replies, each with its arrival time.
    type Timed = Vec<(u64, Response)>;

    /// The scripted double submission: client 0 (node `servers.len()`)
    /// sends op 0 (`first`) to `to` at 100, again at 5 000 (answered by
    /// then), op 1 (`next`) at 10 000 and op 0 once more at 15 000 — stale:
    /// op 1 was answered there. Without `retries` the two repeats stay out.
    /// Returns every reply the client got, with its time, and each
    /// server's commits and history records.
    fn submit_twice<T: Technique>(
        servers: Vec<Replica<T>>,
        to: NodeId,
        [first, next]: [TxnTemplate; 2],
        retries: bool,
    ) -> (Timed, Vec<(u64, usize)>) {
        let nodes = servers.len() as u32;
        let me = n(nodes);
        let op = |seq, txn: &TxnTemplate| {
            let id = OpId::compose(0, seq);
            let txn = txn.clone();
            Wire::Invoke(ClientOp {
                id,
                client: me,
                txn,
            })
        };
        let mut script = vec![(100, to, op(0, &first)), (10_000, to, op(1, &next))];
        if retries {
            script.extend([(5_000, to, op(0, &first)), (15_000, to, op(0, &first))]);
        }
        let mut world: World<Wire<T::Msg>> = World::new(SimConfig::new(20));
        seat_all(&mut world, servers);
        let client = world.add_actor(Box::new(ScriptedPeer {
            script,
            got: Vec::new(),
        }));
        world.start();
        world.run_until(SimTime::from_ticks(30_000));
        let got = &world.actor_ref::<ScriptedPeer<Wire<T::Msg>>>(client).got;
        let replies = got.iter().filter_map(|(t, m)| match m {
            Wire::Reply(r) => Some((*t, r.clone())),
            _ => None,
        });
        let state = (0..nodes).map(|i| {
            let base = &world.actor_ref::<Replica<T>>(n(i)).shell.base;
            (base.committed, base.history.len())
        });
        (replies.collect(), state.collect())
    }

    /// Runs [`submit_twice`] with and without the repeats and checks that
    /// the retry of the in-flight op gets the recorded reply, with no
    /// second execution or history record, and the stale retry nothing.
    pub(crate) fn a_retry_is_answered_from_the_table_and_a_stale_one_never<T: Technique>(
        servers: impl Fn() -> Vec<Replica<T>>,
        to: NodeId,
        txns: [TxnTemplate; 2],
    ) {
        let (with, state) = submit_twice(servers(), to, txns.clone(), true);
        let (without, once) = submit_twice(servers(), to, txns, false);
        assert_eq!(state, once, "the retries executed and recorded nothing");
        let between = |from: u64, to: u64| -> Vec<&Response> {
            let inside = with.iter().filter(|(t, _)| (from..to).contains(t));
            inside.map(|(_, r)| r).collect()
        };
        let answered = between(0, 5_000);
        assert!(!answered.is_empty(), "op 0 is answered before its retry");
        assert!(answered.iter().all(|r| r.op == OpId(0)), "{answered:?}");
        assert_eq!(between(5_000, 10_000), [answered[0]], "the recorded reply");
        assert!(
            between(15_000, u64::MAX).is_empty(),
            "a stale retry: {with:?}"
        );
        // Network jitter draws differ between the two runs: compare the
        // replies, not their times.
        let rest = with.iter().filter(|(t, _)| !(5_000..10_000).contains(t));
        let rest: Vec<&Response> = rest.map(|(_, r)| r).collect();
        let once: Vec<&Response> = without.iter().map(|(_, r)| r).collect();
        assert_eq!(rest, once, "the repeats changed no other reply");
    }

    #[test]
    fn the_stream_host_answers_a_retry_from_its_client_table() {
        use crate::protocols::active::ActiveServer;
        use crate::protocols::common::AbcastImpl;
        let servers = || {
            let group: Vec<NodeId> = (0..3).map(n).collect();
            let mk = |i| {
                let (exec, ab) = (ExecutionMode::Deterministic, AbcastImpl::Sequencer);
                let cons = repl_gcs::ConsensusConfig::default();
                ActiveServer::new(i, n(i), group.clone(), 16, exec, ab, cons)
            };
            (0..3).map(mk).collect()
        };
        let txns = [write_op(1, n(3)).txn, write_op(2, n(3)).txn];
        a_retry_is_answered_from_the_table_and_a_stale_one_never(servers, n(1), txns);
    }

    #[test]
    fn the_2pc_primary_answers_a_retry_from_its_client_table() {
        use crate::protocols::eager_primary::EagerPrimaryServer;
        let servers = || {
            let group: Vec<NodeId> = (0..3).map(n).collect();
            let mk = |i| {
                let exec = ExecutionMode::Deterministic;
                EagerPrimaryServer::new(i, n(i), group.clone(), 16, exec)
            };
            (0..3).map(mk).collect()
        };
        let txns = [write_op(1, n(3)).txn, write_op(2, n(3)).txn];
        a_retry_is_answered_from_the_table_and_a_stale_one_never(servers, n(0), txns);
    }

    #[test]
    fn a_read_only_local_answer_is_resent_from_the_client_table() {
        use crate::protocols::certification::CertServer;
        use crate::protocols::common::AbcastImpl;
        let servers = || {
            let group: Vec<NodeId> = (0..3).map(n).collect();
            let mk = |i| {
                let (exec, ab) = (ExecutionMode::Deterministic, AbcastImpl::Sequencer);
                let cons = repl_gcs::ConsensusConfig::default();
                CertServer::new(i, n(i), group.clone(), 16, exec, ab, cons)
            };
            (0..3).map(mk).collect()
        };
        let read = TxnTemplate {
            ops: vec![OpTemplate::Read(Key(1)), OpTemplate::Read(Key(2))].into(),
        };
        let txns = [read, write_op(2, n(3)).txn];
        a_retry_is_answered_from_the_table_and_a_stale_one_never(servers, n(1), txns);
    }

    #[test]
    fn drain_reroutes_then_retires_once_quiesced() {
        let mut world: World<StubMsg> = World::new(SimConfig::new(2));
        let node = world.add_actor(Box::new(replica(0, &[0, 1, 2])));
        let peer1 = world.add_actor(probe(vec![
            (100, n(0), StubMsg::Invoke(write_op(1, n(1)))),
            (1_500, n(0), StubMsg::Invoke(write_op(2, n(1)))),
            (6_000, n(0), StubMsg::Invoke(write_op(1, n(1)))),
            (6_100, n(0), StubMsg::Invoke(write_op(3, n(1)))),
        ]));
        let peer2 = world.add_actor(probe(Vec::new()));
        world.schedule_drain(SimTime::from_ticks(1_000), node);
        world.start();
        at(&mut world, 3_400);
        let r = world.actor_ref::<Replica<Stub>>(node);
        assert_eq!(r.shell.status(), Status::Draining);
        assert!(r.tech.retired_with.is_empty(), "not quiesced yet");
        let bounced = |p: &Probe, op: u64| {
            p.got.iter().any(|(_, m)| {
                matches!(m, StubMsg::Member(MemberMsg::Reroute { op: id, servers })
                    if *id == OpId(op) && servers == &[n(1), n(2)])
            })
        };
        assert!(bounced(world.actor_ref::<Probe>(peer1), 2));
        world.actor_mut::<Replica<Stub>>(node).tech.quiet = true;
        at(&mut world, 10_000);
        let r = world.actor_ref::<Replica<Stub>>(node);
        assert_eq!(r.shell.status(), Status::Retired);
        assert_eq!(r.tech.retired_with, vec![vec![n(1), n(2)]]);
        assert_eq!(r.shell.servers(), [n(1), n(2)]);
        assert_eq!(r.tech.invoked, vec![OpId(1)], "nothing ran after the drain");
        for p in [peer1, peer2] {
            let drops = world
                .actor_ref::<Probe>(p)
                .got
                .iter()
                .filter(|(_, m)| {
                    matches!(m, StubMsg::Member(MemberMsg::ViewDrop { node }) if *node == n(0))
                })
                .count();
            assert_eq!(drops, 1, "one ViewDrop per remaining member");
        }
        let p1 = world.actor_ref::<Probe>(peer1);
        let resent = p1
            .got
            .iter()
            .filter(|(t, m)| *t > 6_000 && matches!(m, StubMsg::Reply(r) if r.op == OpId(1)))
            .count();
        assert_eq!(resent, 1, "the client table still answers after retirement");
        assert!(bounced(p1, 3));
    }

    /// One replica with a durable tier (a restore download takes over
    /// 1 000 ticks), a committed op, pings every 100 ticks, and a crash
    /// (with or without the volume) at 2 000 that recovers at 3 000.
    fn crash_run(wipe: bool) -> (World<StubMsg>, NodeId) {
        let mut world: World<StubMsg> = World::new(SimConfig::new(3));
        let mut r = replica(0, &[0, 1]);
        let tier = DurabilityConfig::with_upload_lag(1_000);
        r.equip(
            &tier,
            false,
            true,
            repl_db::shared_arena(),
            FdConfig::default(),
            SimDuration::from_ticks(JOIN_RETRY_TICKS),
        );
        let node = world.add_actor(Box::new(r));
        let mut script = vec![(100, n(0), StubMsg::Invoke(write_op(1, n(1))))];
        script.extend((1..=200).map(|i| (i * 100 + 50, n(0), StubMsg::Proto(Ping))));
        world.add_actor(probe(script));
        if wipe {
            world.schedule_volume_loss(SimTime::from_ticks(2_000), node);
        } else {
            world.schedule_crash(SimTime::from_ticks(2_000), node);
        }
        world.schedule_recover(SimTime::from_ticks(3_000), node);
        world.start();
        at(&mut world, 25_000);
        (world, node)
    }

    #[test]
    fn plain_crash_rejoins_at_once() {
        let (world, node) = crash_run(false);
        let r = world.actor_ref::<Replica<Stub>>(node);
        assert_eq!(r.tech.log, vec![("recovering", 0), ("rejoin", 3_000)]);
        // Down from 2 000 to 3 000, never deaf afterwards.
        assert!(r.tech.ticks.contains(&3_100));
        assert!(r.tech.pings.iter().any(|&t| (3_000..3_400).contains(&t)));
    }

    #[test]
    fn wiped_volume_rewinds_stays_deaf_then_rejoins_once() {
        let (world, node) = crash_run(true);
        let r = world.actor_ref::<Replica<Stub>>(node);
        let tier = r.shell.base.tier.as_ref().expect("tier attached");
        let back = 3_000 + tier.restore_ticks;
        assert!(tier.restore_ticks > 200, "the window must span some timers");
        // `on_settle` sealed the committed op at `position()` (1 000 + one
        // invoke): that is the token the restore rewinds to, before the
        // download delay; exactly one rejoin follows it.
        assert_eq!(
            r.tech.log,
            vec![
                ("volume_lost", 0),
                ("recovering", 0),
                ("rewind_to", 1_001),
                ("rejoin", back)
            ]
        );
        assert_eq!(r.shell.status(), Status::Normal);
        let deaf = |t: &u64| (3_000..back).contains(t);
        assert!(!r.tech.pings.iter().any(deaf), "deaf to messages");
        assert!(!r.tech.ticks.iter().any(deaf), "deaf to protocol timers");
        assert!(r.tech.pings.iter().any(|&t| t > back));
        assert!(r.tech.ticks.iter().any(|&t| t > back));
    }

    fn state_req(have: Option<u64>) -> StubMsg {
        StubMsg::Member(MemberMsg::StateReq { have })
    }

    fn state_data(high: u64) -> StubMsg {
        let t = Transfer::snapshot(&repl_db::Store::new(), high);
        StubMsg::Member(MemberMsg::StateData(Box::new(t)))
    }

    fn count(p: &Probe, f: fn(&MemberMsg) -> bool) -> usize {
        p.got
            .iter()
            .filter(|(_, m)| matches!(m, StubMsg::Member(m) if f(m)))
            .count()
    }

    /// A pulling replica among `group` that crashes at 1 000 and is back
    /// at 2 000, next to one scripted peer per entry of `scripts`.
    fn pull_run(
        group: &[u32],
        donor: bool,
        scripts: Vec<Vec<(u64, NodeId, StubMsg)>>,
    ) -> (World<StubMsg>, NodeId, Vec<NodeId>) {
        let mut world: World<StubMsg> = World::new(SimConfig::new(7));
        let mut r = replica(0, group);
        r.tech.pulls = true;
        r.tech.donor = donor;
        let node = world.add_actor(Box::new(r));
        let peers = scripts
            .into_iter()
            .map(|s| world.add_actor(probe(s)))
            .collect();
        world.schedule_crash(SimTime::from_ticks(1_000), node);
        world.schedule_recover(SimTime::from_ticks(2_000), node);
        world.start();
        (world, node, peers)
    }

    #[test]
    fn a_recovered_replica_asks_every_peer_once_and_a_lone_one_nobody() {
        let (mut world, node, peers) = pull_run(&[0, 1, 2], false, vec![vec![], vec![]]);
        at(&mut world, 5_000);
        let r = world.actor_ref::<Replica<Stub>>(node);
        assert_eq!(r.shell.status(), Status::CatchingUp);
        assert!(r.shell.catching_up());
        for p in peers {
            let p = world.actor_ref::<Probe>(p);
            let asked = |m: &MemberMsg| matches!(m, MemberMsg::StateReq { have: Some(7) });
            assert_eq!(count(p, asked), 1, "one StateReq per peer");
        }
        // Alone in its view: nobody to ask, nothing to wait for.
        let (mut world, node, peers) = pull_run(&[0], false, vec![vec![]]);
        at(&mut world, 5_000);
        let r = world.actor_ref::<Replica<Stub>>(node);
        assert_eq!(r.tech.log, vec![("recovering", 0), ("rejoin", 2_000)]);
        assert_eq!(r.shell.status(), Status::Normal);
        assert!(world.actor_ref::<Probe>(peers[0]).got.is_empty());
    }

    #[test]
    fn the_first_state_data_ends_catch_up_and_later_ones_say_so() {
        let (mut world, node, _) = pull_run(
            &[0, 1, 2],
            false,
            vec![
                vec![(2_500, n(0), state_data(1))],
                vec![(3_500, n(0), state_data(2))],
            ],
        );
        at(&mut world, 2_400);
        let r = world.actor_ref::<Replica<Stub>>(node);
        assert_eq!(r.shell.status(), Status::CatchingUp);
        at(&mut world, 3_400);
        let r = world.actor_ref::<Replica<Stub>>(node);
        assert_eq!(r.shell.status(), Status::Normal, "the first answer wins");
        assert_eq!(r.tech.transfers, vec![(1, true)]);
        at(&mut world, 5_000);
        let r = world.actor_ref::<Replica<Stub>>(node);
        assert_eq!(r.tech.transfers, vec![(1, true), (2, false)]);
        assert_eq!(r.shell.status(), Status::Normal);
    }

    #[test]
    fn a_replica_waiting_for_state_never_donates_any() {
        let data = |m: &MemberMsg| matches!(m, MemberMsg::StateData(_));
        // Catching up itself: silent until its own transfer landed.
        let (mut world, _, peers) = pull_run(
            &[0, 1],
            true,
            vec![vec![
                (500, n(0), state_req(None)),
                (2_500, n(0), state_req(None)),
                (3_000, n(0), state_data(0)),
                (3_500, n(0), state_req(Some(3))),
            ]],
        );
        at(&mut world, 900);
        assert_eq!(count(world.actor_ref::<Probe>(peers[0]), data), 1);
        at(&mut world, 3_400);
        assert_eq!(count(world.actor_ref::<Probe>(peers[0]), data), 1);
        at(&mut world, 5_000);
        assert_eq!(count(world.actor_ref::<Probe>(peers[0]), data), 2);
        // A cold joiner before its welcome: an empty store is no answer.
        let mut world: World<StubMsg> = World::new(SimConfig::new(8));
        let asker = world.add_actor(probe(vec![(300, n(1), state_req(Some(0)))]));
        let mut joiner = replica(1, &[0, 1]);
        joiner.tech.donor = true;
        joiner.begin_join();
        world.add_actor(Box::new(joiner));
        world.start();
        at(&mut world, 4_000);
        assert_eq!(count(world.actor_ref::<Probe>(asker), data), 0);
    }

    #[test]
    fn restoring_outranks_catching_up() {
        let mut world: World<StubMsg> = World::new(SimConfig::new(9));
        let mut r = replica(0, &[0, 1]);
        r.tech.pulls = true;
        r.equip(
            &DurabilityConfig::with_upload_lag(1_000),
            false,
            true,
            repl_db::shared_arena(),
            FdConfig::default(),
            SimDuration::from_ticks(JOIN_RETRY_TICKS),
        );
        let node = world.add_actor(Box::new(r));
        world.add_actor(probe(vec![(100, n(0), StubMsg::Invoke(write_op(1, n(1))))]));
        world.schedule_crash(SimTime::from_ticks(1_000), node);
        world.schedule_recover(SimTime::from_ticks(2_000), node);
        // Still catching up (the peer never answers) when the volume goes.
        world.schedule_volume_loss(SimTime::from_ticks(3_000), node);
        world.schedule_recover(SimTime::from_ticks(4_000), node);
        world.start();
        at(&mut world, 2_900);
        let r = world.actor_ref::<Replica<Stub>>(node);
        assert_eq!(r.shell.status(), Status::CatchingUp);
        at(&mut world, 4_100);
        let r = world.actor_ref::<Replica<Stub>>(node);
        assert!(r.shell.catching_up());
        assert_eq!(r.shell.status(), Status::Restoring);
        at(&mut world, 25_000);
        let r = world.actor_ref::<Replica<Stub>>(node);
        assert_eq!(
            r.shell.status(),
            Status::CatchingUp,
            "the rejoin pulls again"
        );
    }

    #[test]
    fn the_state_exchange_is_sized_like_the_pairs_it_replaced() {
        // The six per-technique pairs: a bare request 8 bytes, one with a
        // log position 16, a reply 8 + the transfer.
        assert_eq!(MemberMsg::StateReq { have: None }.wire_size(), 8);
        assert_eq!(MemberMsg::StateReq { have: Some(9) }.wire_size(), 16);
        let t = Transfer::snapshot(&repl_db::Store::with_items(16, Value(0)), 5);
        assert!(t.wire_size() > 16 * 40);
        let data = MemberMsg::StateData(Box::new(t.clone()));
        assert_eq!(data.wire_size(), 8 + t.wire_size());
    }

    #[test]
    fn the_envelope_is_sized_like_the_variants_it_replaced() {
        // Every technique enum carried these three variants with these
        // sizes: 8 + the operation, 8 + the response, the member message.
        let op = write_op(3, n(1));
        assert_eq!(StubMsg::Invoke(op.clone()).wire_size(), 8 + op.wire_size());
        let resp = Response {
            op: OpId(3),
            committed: true,
            reads: vec![(Key(1), Value(2))],
        };
        assert_eq!(
            StubMsg::Reply(resp.clone()).wire_size(),
            8 + resp.wire_size()
        );
        let joined = MemberMsg::ViewAdd {
            servers: vec![n(0), n(1), n(2)],
        };
        for m in [
            MemberMsg::JoinReq,
            joined,
            MemberMsg::StateReq { have: Some(4) },
        ] {
            assert_eq!(StubMsg::Member(m.clone()).wire_size(), m.wire_size());
        }
        assert_eq!(StubMsg::Proto(Ping).wire_size(), Ping.wire_size());
        // A heartbeat is charged 8 bytes, whichever technique sends it.
        assert_eq!(StubMsg::Fd(FdMsg::Heartbeat).wire_size(), 8);
    }

    #[test]
    fn the_technique_sees_only_its_own_traffic() {
        // Node 1 is not the coordinator: the JoinReq is the shell's to
        // ignore, the stray reply nobody's, the duplicate the table's.
        let mut world: World<StubMsg> = World::new(SimConfig::new(10));
        let stray = Response::committed(OpId(5));
        let peer = world.add_actor(probe(vec![
            (100, n(1), StubMsg::Invoke(write_op(1, n(0)))),
            (1_000, n(1), StubMsg::Invoke(write_op(1, n(0)))),
            (1_100, n(1), StubMsg::Reply(stray)),
            (1_200, n(1), StubMsg::Member(MemberMsg::JoinReq)),
            (1_300, n(1), StubMsg::Proto(Ping)),
        ]));
        let node = world.add_actor(Box::new(replica(1, &[0, 1])));
        world.start();
        at(&mut world, 5_000);
        let r = world.actor_ref::<Replica<Stub>>(node);
        assert_eq!(r.tech.invoked, vec![OpId(1)], "on_invoke runs once");
        assert_eq!(r.tech.pings.len(), 1, "only the ping is protocol traffic");
        assert!(r.tech.pings[0] > 1_300);
        assert_eq!(r.tech.views, 0, "no admission at a non-coordinator");
        let got = &world.actor_ref::<Probe>(peer).got;
        let answers: Vec<u64> = got.iter().map(|(t, _)| *t).collect();
        assert!(
            got.iter()
                .all(|(_, m)| matches!(m, StubMsg::Reply(r) if r.op == OpId(1))),
            "{got:?}"
        );
        assert_eq!(answers.len(), 2, "executed once, answered twice");
        assert!(answers[1] > 1_000, "the duplicate from the table");
    }

    #[test]
    fn coordinator_admits_in_one_event_and_rewelcomes_a_retry() {
        let mut world: World<StubMsg> = World::new(SimConfig::new(5));
        let coord = world.add_actor(Box::new(replica(0, &[0, 1])));
        let member = world.add_actor(probe(vec![(100, n(0), StubMsg::Invoke(write_op(4, n(1))))]));
        let join = || StubMsg::Member(MemberMsg::JoinReq);
        let joiner = world.add_actor(probe(vec![(1_000, n(0), join()), (2_000, n(0), join())]));
        world.start();
        at(&mut world, 5_000);
        let c = world.actor_ref::<Replica<Stub>>(coord);
        assert_eq!(c.shell.servers(), [n(0), n(1), n(2)]);
        assert_eq!(
            c.tech.views, 2,
            "the retry re-runs the (idempotent) admission"
        );
        let view_adds = world
            .actor_ref::<Probe>(member)
            .got
            .iter()
            .filter(|(_, m)| {
                matches!(m, StubMsg::Member(MemberMsg::ViewAdd { servers }) if servers.len() == 3)
            })
            .count();
        assert_eq!(view_adds, 2);
        let welcomes: Vec<_> = world
            .actor_ref::<Probe>(joiner)
            .got
            .iter()
            .filter_map(|(_, m)| match m {
                StubMsg::Member(MemberMsg::Welcome {
                    servers, answered, ..
                }) => Some((servers.len(), answered.clone())),
                _ => None,
            })
            .collect();
        // The welcome carries the view and the donor's answered floor.
        assert_eq!(welcomes, vec![(3, vec![OpId(4)]); 2]);
    }

    #[test]
    fn a_draining_coordinator_admits_nobody() {
        let mut world: World<StubMsg> = World::new(SimConfig::new(11));
        let coord = world.add_actor(Box::new(replica(0, &[0, 1])));
        let member = world.add_actor(probe(Vec::new()));
        let join = StubMsg::Member(MemberMsg::JoinReq);
        let joiner = world.add_actor(probe(vec![(2_000, n(0), join)]));
        // Never quiesced: the coordinator stays draining, still rank 0.
        world.schedule_drain(SimTime::from_ticks(1_000), coord);
        world.start();
        at(&mut world, 5_000);
        let c = world.actor_ref::<Replica<Stub>>(coord);
        assert_eq!(c.shell.status(), Status::Draining);
        assert!(c.shell.is_coordinator());
        assert_eq!(c.shell.servers(), [n(0), n(1)], "the view is unchanged");
        assert_eq!(c.tech.views, 0);
        let view_add = |m: &MemberMsg| matches!(m, MemberMsg::ViewAdd { .. });
        let welcome = |m: &MemberMsg| matches!(m, MemberMsg::Welcome { .. });
        assert_eq!(count(world.actor_ref::<Probe>(member), view_add), 0);
        assert_eq!(count(world.actor_ref::<Probe>(joiner), welcome), 0);
    }

    #[test]
    fn a_joiner_drained_before_its_welcome_retires_and_ignores_it() {
        let mut world: World<StubMsg> = World::new(SimConfig::new(6));
        let coord = world.add_actor(probe(vec![(
            3_000,
            n(1),
            StubMsg::Member(MemberMsg::Welcome {
                servers: vec![n(0), n(1)],
                transfer: None,
                pos: 0,
                gpos: 0,
                answered: Vec::new(),
            }),
        )]));
        let mut joiner = replica(1, &[0, 1]);
        joiner.tech.quiet = true;
        joiner.begin_join();
        let joiner = world.add_actor(Box::new(joiner));
        world.schedule_drain(SimTime::from_ticks(1_000), joiner);
        world.start();
        at(&mut world, 8_000);
        let j = world.actor_ref::<Replica<Stub>>(joiner);
        assert_eq!(j.shell.status(), Status::Retired);
        assert!(j.tech.welcomes.is_empty());
        let got = &world.actor_ref::<Probe>(coord).got;
        let count = |f: fn(&MemberMsg) -> bool| {
            got.iter()
                .filter(|(_, m)| matches!(m, StubMsg::Member(m) if f(m)))
                .count()
        };
        assert_eq!(count(|m| matches!(m, MemberMsg::JoinReq)), 1, "no retry");
        assert_eq!(count(|m| matches!(m, MemberMsg::ViewDrop { .. })), 1);
    }

    #[test]
    fn settle_seals_frames_at_the_technique_position() {
        let mut world: World<StubMsg> = World::new(SimConfig::new(4));
        let mut r = replica(0, &[0, 1]);
        let tier = DurabilityConfig::with_upload_lag(0);
        r.equip(
            &tier,
            false,
            true,
            repl_db::shared_arena(),
            FdConfig::default(),
            SimDuration::from_ticks(JOIN_RETRY_TICKS),
        );
        let node = world.add_actor(Box::new(r));
        world.add_actor(probe(vec![
            (100, n(0), StubMsg::Invoke(write_op(1, n(1)))),
            (300, n(0), StubMsg::Invoke(write_op(2, n(1)))),
        ]));
        world.start();
        at(&mut world, 1_000);
        let r = world.actor_mut::<Replica<Stub>>(node);
        let tier = r.shell.base.tier.as_mut().expect("tier attached");
        assert_eq!(tier.frames_sealed(), 2, "one frame per committing event");
        tier.wipe(1_000);
        let restore = tier.restore().expect("wiped");
        assert_eq!(restore.token, 1_002, "the last frame carries position()");
    }

    /// A heartbeating stub replica `me` of `group`.
    fn hb_replica(me: u32, group: &[u32]) -> Replica<Stub<true>> {
        let group = group.iter().map(|&i| n(i)).collect();
        let tech = Stub::<true>::default();
        Replica::around(me, n(me), group, 16, ExecutionMode::Deterministic, tech)
    }

    /// When `p` received heartbeats.
    fn heartbeats(p: &Probe) -> Vec<u64> {
        let fd = p.got.iter().filter(|(_, m)| matches!(m, StubMsg::Fd(_)));
        fd.map(|(t, _)| *t).collect()
    }

    #[test]
    fn a_cold_joiner_heartbeats_only_once_welcomed_and_to_the_whole_view() {
        let mut world: World<StubMsg> = World::new(SimConfig::new(17));
        let welcome = StubMsg::Member(MemberMsg::Welcome {
            servers: vec![n(0), n(1), n(2)],
            transfer: None,
            pos: 0,
            gpos: 0,
            answered: Vec::new(),
        });
        let coord = world.add_actor(probe(vec![(3_000, n(1), welcome)]));
        let mut joiner = hb_replica(1, &[0, 1]);
        joiner.begin_join();
        world.add_actor(Box::new(joiner));
        let other = world.add_actor(probe(Vec::new()));
        world.start();
        at(&mut world, 6_000);
        for p in [coord, other] {
            let beats = heartbeats(world.actor_ref::<Probe>(p));
            assert!(beats.iter().all(|&t| t > 3_000), "{beats:?}");
            // Started on the welcome (~3 100), one every 500 ticks.
            assert_eq!(beats.len(), 6, "{beats:?}");
        }
    }

    #[test]
    fn a_crashed_peer_is_reported_suspected_exactly_once() {
        let mut world: World<StubMsg> = World::new(SimConfig::new(18));
        for i in 0..3 {
            world.add_actor(Box::new(hb_replica(i, &[0, 1, 2])));
        }
        world.schedule_crash(SimTime::from_ticks(1_000), n(2));
        world.start();
        at(&mut world, 20_000);
        for i in 0..2 {
            let r = world.actor_ref::<Replica<Stub<true>>>(n(i));
            let who: Vec<NodeId> = r.tech.suspicions.iter().map(|&(node, _)| node).collect();
            assert_eq!(who, [n(2)], "at node {i}");
            // Three silent intervals after the last heartbeat it sent.
            let (_, t) = r.tech.suspicions[0];
            assert!((2_000..=3_500).contains(&t), "suspected at {t}");
            assert!(r.shell.is_suspected(n(2)));
            assert!(!r.shell.is_suspected(n(1 - i)));
        }
    }

    #[test]
    fn a_retired_node_watches_nobody() {
        let mut world: World<StubMsg> = World::new(SimConfig::new(19));
        let mut r = hb_replica(0, &[0, 1, 2]);
        r.tech.quiet = true;
        let node = world.add_actor(Box::new(r));
        // A late `ViewAdd` from a coordinator that had not yet heard the
        // `ViewDrop` changes neither the retired node's view nor its
        // detector.
        let late = MemberMsg::ViewAdd {
            servers: vec![n(0), n(1), n(2)],
        };
        let peers = [
            world.add_actor(probe(vec![(2_000, n(0), StubMsg::Member(late))])),
            world.add_actor(probe(Vec::new())),
        ];
        // Retires at once, before two silent intervals could raise a
        // suspicion of the (silent) probes.
        world.schedule_drain(SimTime::from_ticks(700), node);
        world.start();
        at(&mut world, 20_000);
        let r = world.actor_ref::<Replica<Stub<true>>>(node);
        assert_eq!(r.shell.status(), Status::Retired);
        assert_eq!(
            r.shell.servers(),
            [n(1), n(2)],
            "the late view is not installed"
        );
        assert!(!r.shell.is_coordinator());
        assert_eq!(r.tech.suspicions, [], "no peer left to suspect");
        for p in peers {
            let beats = heartbeats(world.actor_ref::<Probe>(p));
            assert_eq!(beats.len(), 2, "the ticks at 0 and 500 only: {beats:?}");
        }
    }
}
