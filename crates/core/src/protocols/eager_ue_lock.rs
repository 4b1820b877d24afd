//! Eager update everywhere with distributed locking (paper §4.4.1 Fig. 8;
//! §5.4.1 Fig. 13).
//!
//! The client's local server becomes the transaction's *delegate*. For
//! each operation it requests the lock at **all** replicas (Server
//! Coordination), executes the operation at all replicas once every site
//! granted (Execution), and after the last operation runs a 2PC
//! (Agreement Coordination) before answering. Skeleton: `RE SC EX AC END`,
//! with the SC/EX pair looping per operation for multi-operation
//! transactions (Fig. 13).
//!
//! Deadlock handling is configurable (ablation A3):
//!
//! * [`DeadlockPolicy::WoundWait`] — prevention: sites wound younger
//!   conflicting holders; the victim's delegate aborts it globally and
//!   retries with the same (old) timestamp.
//! * [`DeadlockPolicy::Detect`] — server 0 periodically collects every
//!   site's wait-for edges, finds cycles in the union, and aborts the
//!   youngest member.
//!
//! The paper notes that quorums are orthogonal to the phase structure and
//! mentions the read-one/write-all extreme (§5.4.1): with
//! [`EulServer::with_rowa`] read operations lock and execute only at the
//! delegate while writes still lock everywhere — same phases, fewer
//! messages for reads.
//!
//! The protocol is *blocking* while a participant is down (the paper,
//! Section 2.1: databases accept blocking protocols) — all-site locking
//! cannot make progress without every replica. Crashes follow fail-stop
//! semantics: volatile state (lock tables, delegate bookkeeping,
//! tentative writes) is lost, so a recovered site grants locks afresh
//! rather than blocking behind phantom holders, and client re-submission
//! re-drives stalled transactions once the site is back.

use std::collections::{BTreeSet, HashMap, HashSet};

use repl_db::{
    Acquire, DeadlockPolicy, Key, Keyspace, LockManager, LockMode, TpcCoordinator, TpcDecision,
    Transfer, TxnId, Value,
};
use repl_sim::{impl_as_any, Actor, Context, Message, NodeId, SimDuration, SimTime, TimerId};
use repl_workload::OpTemplate;

use crate::client::ProtocolMsg;
use crate::op::{ClientOp, OpId, Response};
use crate::phase::Phase;
use crate::protocols::common::{
    global_txn, DrainState, Elastic, ExecutionMode, MemberMsg, ServerBase, ShardCtx,
    DRAIN_TICK_TAG, DRAIN_TICK_TICKS, JOIN_RETRY_TAG, JOIN_RETRY_TICKS, RESTORE_TAG,
};

/// Wire messages of eager update everywhere with distributed locking.
#[derive(Debug, Clone)]
pub enum EulMsg {
    /// Client → delegate server.
    Invoke(ClientOp),
    /// Delegate → all replicas: request a lock for one operation.
    LockReq {
        /// The transaction.
        txn: TxnId,
        /// The operation step within the transaction.
        step: u32,
        /// The item to lock.
        key: Key,
        /// Shared (read) or exclusive (write).
        exclusive: bool,
        /// The delegate to answer (and to notify on wound).
        delegate: NodeId,
    },
    /// Replica → delegate: lock granted at this site.
    LockGrant {
        /// The transaction.
        txn: TxnId,
        /// The granted step.
        step: u32,
    },
    /// Replica → victim's delegate: transaction wounded at some site.
    Wound {
        /// The wounded transaction.
        victim: TxnId,
    },
    /// Delegate → all replicas: execute one operation.
    Exec {
        /// The transaction.
        txn: TxnId,
        /// The step being executed.
        step: u32,
        /// The item.
        key: Key,
        /// `Some(v)` for writes, `None` for reads.
        write: Option<Value>,
        /// Cross-shard reads: `Some(delegate)` asks the receiving member
        /// to send the value it read back to the delegate (whose own
        /// store does not replicate this shard). Set on exactly one
        /// member of the owning group; `None` everywhere else and in
        /// unsharded runs.
        read_back: Option<NodeId>,
    },
    /// Foreign-group member → delegate: the value a cross-shard read
    /// observed (the delegate cannot read a key its group does not
    /// replicate).
    XReadVal {
        /// The transaction.
        txn: TxnId,
        /// The read step within the transaction.
        step: u32,
        /// The item.
        key: Key,
        /// The value observed under the step's lock.
        value: Value,
    },
    /// Delegate → participants: 2PC prepare.
    Prepare {
        /// The transaction.
        txn: TxnId,
    },
    /// Participant → delegate: 2PC vote.
    Vote {
        /// The transaction.
        txn: TxnId,
        /// Yes or no.
        yes: bool,
    },
    /// Delegate → participants: 2PC decision.
    Decision {
        /// The transaction.
        txn: TxnId,
        /// Commit or abort.
        commit: bool,
    },
    /// Detector → all: send me your wait-for edges (Detect policy).
    ProbeReq,
    /// Replica → detector: local wait-for edges.
    ProbeEdges {
        /// `waiter → holder` pairs.
        edges: Vec<(TxnId, TxnId)>,
    },
    /// Recovering replica → group: request a committed-state snapshot
    /// (all-site locking keeps no redo log; snapshots are the only
    /// transfer form).
    SyncReq,
    /// Live replica → recovering replica: committed-state snapshot.
    SyncData(Box<Transfer>),
    /// Server → client.
    Reply(Response),
    /// Elastic-membership traffic (join / drain / reroute).
    Member(MemberMsg),
}

impl Message for EulMsg {
    fn wire_size(&self) -> usize {
        match self {
            EulMsg::Invoke(op) => 8 + op.wire_size(),
            EulMsg::LockReq { .. } => 40,
            EulMsg::LockGrant { .. } => 24,
            EulMsg::Wound { .. } => 20,
            EulMsg::Exec { read_back, .. } => 40 + if read_back.is_some() { 8 } else { 0 },
            EulMsg::XReadVal { .. } => 44,
            EulMsg::Prepare { .. } => 20,
            EulMsg::Vote { .. } => 24,
            EulMsg::Decision { .. } => 24,
            EulMsg::ProbeReq => 8,
            EulMsg::ProbeEdges { edges } => 8 + edges.len() * 24,
            EulMsg::SyncReq => 8,
            EulMsg::SyncData(t) => 8 + t.wire_size(),
            EulMsg::Reply(r) => 8 + r.wire_size(),
            EulMsg::Member(m) => 8 + m.wire_size(),
        }
    }
}

impl ProtocolMsg for EulMsg {
    fn invoke(op: ClientOp) -> Self {
        EulMsg::Invoke(op)
    }
    fn response(&self) -> Option<&Response> {
        match self {
            EulMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
    fn reroute(&self) -> Option<(OpId, &[NodeId])> {
        match self {
            EulMsg::Member(MemberMsg::Reroute { op, servers }) => Some((*op, servers.as_slice())),
            _ => None,
        }
    }
}

#[derive(Debug)]
enum DelPhase {
    /// Waiting for lock grants for `step`.
    Locking {
        step: u32,
        awaiting: HashSet<NodeId>,
    },
    /// 2PC voting.
    Committing(TpcCoordinator<NodeId>),
}

#[derive(Debug)]
struct DelegateTxn {
    op: ClientOp,
    step: usize,
    /// `(step, key, value)` — kept with the step index because
    /// cross-shard read values arrive asynchronously (`XReadVal`) and
    /// must be reassembled into program order for the response.
    reads: Vec<(u32, Key, Value)>,
    phase: DelPhase,
    retries: u32,
    /// Cross-shard runs: the union of the touched groups' members — the
    /// 2PC participant set and decision audience. `None` in unsharded
    /// runs (the live `servers` view is used instead, so elastic
    /// membership keeps working).
    cohort: Option<Vec<NodeId>>,
}

const MAX_RETRIES: u32 = 30;
const DETECT_TICK: u64 = 1;
const RETRY_TICK: u64 = 2;

/// A replica server for eager update everywhere with distributed locking.
pub struct EulServer {
    /// Shared database/server state (public for post-run inspection).
    pub base: ServerBase,
    me: NodeId,
    servers: Vec<NodeId>,
    lm: LockManager,
    policy: DeadlockPolicy,
    detect_every: SimDuration,
    /// Transactions this server delegates.
    delegated: HashMap<TxnId, DelegateTxn>,
    /// Wounded operations awaiting retry here.
    requeue: Vec<(ClientOp, u32)>,
    /// For each txn we hold or queue locks for: its delegate and step.
    lock_owner: HashMap<TxnId, (NodeId, u32)>,
    /// Transactions with tentative local writes.
    tentative: HashSet<TxnId>,
    /// Detect-policy probe state (server 0 only).
    probe_edges: Vec<(TxnId, TxnId)>,
    probe_answers: usize,
    /// Wound events observed (statistic for the conflicts study).
    pub wounds: u64,
    /// Partial replication: this server's place in a sharded topology.
    /// `Some` only when cross-shard transactions are enabled; lock and
    /// exec rounds then target the key-owning group instead of `servers`.
    shard: Option<ShardCtx>,
    /// Read-one/write-all: reads lock and execute locally only.
    rowa: bool,
    /// Waiting for the first snapshot reply after a crash.
    recovering: bool,
    /// Exec/Decision traffic that arrived mid-transfer, replayed once
    /// the snapshot lands (its writes must sit *on top* of the
    /// transferred state, not under it).
    replay: Vec<(NodeId, EulMsg)>,
    marks: bool,
    /// Elastic membership (join/drain) state.
    pub elastic: Elastic,
    /// Coordinator side of an admission: the joiner plus the cohort
    /// members whose `ViewAck` the Welcome snapshot still waits for.
    admitting: Option<(NodeId, HashSet<NodeId>)>,
    /// Member side of an admission: the coordinator to ack, the joiner
    /// being admitted, and the old-view transactions this site delegates
    /// that must decide first (their Execs missed the joiner, so the
    /// donor snapshot has to wait for their outcomes).
    ack_wait: Option<(NodeId, NodeId, BTreeSet<TxnId>)>,
    /// The most recent joiner this member confirmed — lets a re-issued
    /// `ViewAdd` (coordinator retrying after a cohort crash) be acked
    /// even though the view diff is empty the second time.
    last_admitted: Option<NodeId>,
}

impl EulServer {
    /// Creates server `site` of `servers`.
    pub fn new(
        site: u32,
        me: NodeId,
        servers: Vec<NodeId>,
        keyspace: impl Into<Keyspace>,
        exec: ExecutionMode,
        policy: DeadlockPolicy,
    ) -> Self {
        let ks = keyspace.into();
        EulServer {
            base: ServerBase::new(site, ks, exec),
            me,
            servers: servers.clone(),
            lm: LockManager::with_keyspace(policy, ks),
            policy,
            detect_every: SimDuration::from_ticks(2_500),
            delegated: HashMap::new(),
            requeue: Vec::new(),
            lock_owner: HashMap::new(),
            tentative: HashSet::new(),
            probe_edges: Vec::new(),
            probe_answers: 0,
            wounds: 0,
            shard: None,
            rowa: false,
            recovering: false,
            replay: Vec::new(),
            marks: site == 0,
            elastic: Elastic::new(me, servers),
            admitting: None,
            ack_wait: None,
            last_admitted: None,
        }
    }

    /// Marks this server as a cold joiner: it starts outside the view and
    /// acquires state + membership via `JoinReq`/`Welcome`.
    pub fn begin_join(&mut self) {
        self.elastic.begin_join();
    }

    /// Re-syncs the lock/exec/2PC target list from `elastic.servers`.
    fn sync_membership(&mut self) {
        self.servers = self.elastic.servers.clone();
    }

    /// Enables the read-one/write-all optimisation (paper §5.4.1): read
    /// locks are taken only at the delegate; writes still lock all sites.
    pub fn with_rowa(mut self, rowa: bool) -> Self {
        self.rowa = rowa;
        self
    }

    /// Enables cross-shard transactions: per-step lock/exec rounds go to
    /// the key-owning group and the closing 2PC spans the union of the
    /// touched groups. Wound-wait ages are global (`TxnId` order), so
    /// deadlocks across groups resolve the same way as local ones.
    pub fn enable_cross_shard(&mut self, ctx: ShardCtx) {
        assert_eq!(
            self.policy,
            DeadlockPolicy::WoundWait,
            "cross-shard locking needs a global deadlock order (wound-wait)"
        );
        assert!(!self.rowa, "rowa is incompatible with cross-shard locking");
        self.shard = Some(ctx);
    }

    /// Client entry point: cache, reroute-on-drain, join buffering, then
    /// the normal delegate path.
    fn invoke(&mut self, ctx: &mut Context<'_, EulMsg>, op: ClientOp) {
        if let Some(resp) = self.base.cached(op.id) {
            ctx.send(op.client, EulMsg::Reply(resp));
            return;
        }
        if self.elastic.rerouting() {
            let servers = self.elastic.remaining();
            ctx.send(
                op.client,
                EulMsg::Member(MemberMsg::Reroute { op: op.id, servers }),
            );
            return;
        }
        if self.elastic.joining {
            self.elastic.buffered.push(op);
            return;
        }
        if self.elastic.answered.contains(&op.id) {
            // Answered by the join donor before our snapshot: re-running
            // the whole transaction would duplicate it in the merged
            // history; the donor's cache serves the retry.
            return;
        }
        let txn = global_txn(op.id);
        if !self.delegated.contains_key(&txn) && !self.requeue.iter().any(|(o, _)| o.id == op.id) {
            self.start_txn(ctx, op, 0);
        }
    }

    fn start_txn(&mut self, ctx: &mut Context<'_, EulMsg>, op: ClientOp, retries: u32) {
        let txn = global_txn(op.id);
        if self.delegated.contains_key(&txn) {
            return;
        }
        self.base.tm.begin(txn);
        // Sharded: the participant set is the union of the touched
        // groups' members (dests is sorted, groups are contiguous and
        // ascending, so the union is sorted too).
        let cohort = self.shard.as_ref().map(|sc| {
            sc.dests(&op.txn)
                .iter()
                .flat_map(|&g| sc.group_of(g))
                .collect::<Vec<NodeId>>()
        });
        self.delegated.insert(
            txn,
            DelegateTxn {
                op,
                step: 0,
                reads: Vec::new(),
                phase: DelPhase::Locking {
                    step: 0,
                    awaiting: HashSet::new(),
                },
                retries,
                cohort,
            },
        );
        self.request_lock(ctx, txn);
    }

    /// Sends the lock request for the current step to every replica
    /// (including this one, via loopback, for uniformity).
    fn request_lock(&mut self, ctx: &mut Context<'_, EulMsg>, txn: TxnId) {
        let Some(t) = self.delegated.get_mut(&txn) else {
            return;
        };
        let step = t.step;
        if step >= t.op.txn.ops.len() {
            self.start_commit(ctx, txn);
            return;
        }
        let (key, exclusive) = match t.op.txn.ops[step] {
            OpTemplate::Read(k) => (k, false),
            OpTemplate::Write(k, _) => (k, true),
        };
        if self.marks {
            ctx.mark(Phase::ServerCoordination.tag(), t.op.id.0, step as u64);
        }
        // Sharded: the step locks at the key-owning group only (that is
        // the whole point of partial replication — foreign groups never
        // see this key). Read-one/write-all: a read locks only the
        // local copy.
        let targets: Vec<NodeId> = if let Some(sc) = &self.shard {
            sc.group_of(sc.map.shard_of(key))
        } else if self.rowa && !exclusive {
            vec![self.me]
        } else {
            self.servers.clone()
        };
        t.phase = DelPhase::Locking {
            step: step as u32,
            awaiting: targets.iter().copied().collect(),
        };
        for &s in &targets {
            ctx.send(
                s,
                EulMsg::LockReq {
                    txn,
                    step: step as u32,
                    key,
                    exclusive,
                    delegate: self.me,
                },
            );
        }
    }

    /// All sites granted: execute the step everywhere and move on.
    fn step_granted(&mut self, ctx: &mut Context<'_, EulMsg>, txn: TxnId) {
        let Some(t) = self.delegated.get_mut(&txn) else {
            return;
        };
        let step = t.step;
        let (key, write) = match t.op.txn.ops[step] {
            OpTemplate::Read(k) => (k, None),
            OpTemplate::Write(k, v) => (k, Some(v)),
        };
        if self.marks {
            ctx.mark(Phase::Execution.tag(), t.op.id.0, step as u64);
        }
        t.step += 1;
        // Sharded: execute at the key-owning group; a *foreign* read also
        // asks one member (the owning group's first) to send the observed
        // value back, because the delegate's own store does not replicate
        // the key. Reads under read-one/write-all execute only locally.
        let (exec_targets, foreign): (Vec<NodeId>, bool) = if let Some(sc) = &self.shard {
            let gid = sc.map.shard_of(key);
            (sc.group_of(gid), gid != sc.my_gid)
        } else if self.rowa && write.is_none() {
            (vec![self.me], false)
        } else {
            (self.servers.clone(), false)
        };
        for &s in &exec_targets {
            let read_back = if foreign && write.is_none() && s == exec_targets[0] {
                Some(self.me)
            } else {
                None
            };
            ctx.send(
                s,
                EulMsg::Exec {
                    txn,
                    step: step as u32,
                    key,
                    write,
                    read_back,
                },
            );
        }
        // The delegate's local Exec arrives by loopback and records the
        // read value; but the client response needs the value *now* — read
        // it directly (the lock is held, so it cannot change in between).
        // Foreign reads wait for the owning group's XReadVal instead.
        if write.is_none() && !foreign {
            let v = self.base.store.read(key).map_or(Value(0), |v| v.value);
            if let Some(t) = self.delegated.get_mut(&txn) {
                t.reads.push((step as u32, key, v));
            }
        }
        self.request_lock(ctx, txn);
    }

    fn start_commit(&mut self, ctx: &mut Context<'_, EulMsg>, txn: TxnId) {
        let me = self.me;
        let others: Vec<NodeId> = {
            let Some(t) = self.delegated.get(&txn) else {
                return;
            };
            t.cohort
                .as_ref()
                .unwrap_or(&self.servers)
                .iter()
                .copied()
                .filter(|&s| s != me)
                .collect()
        };
        let Some(t) = self.delegated.get_mut(&txn) else {
            return;
        };
        if self.marks {
            ctx.mark(Phase::AgreementCoordination.tag(), t.op.id.0, u64::MAX);
        }
        let mut coord = TpcCoordinator::new(others.clone());
        coord.start();
        t.phase = DelPhase::Committing(coord);
        if others.is_empty() {
            self.finish(ctx, txn, true);
            return;
        }
        for s in others {
            ctx.send(s, EulMsg::Prepare { txn });
        }
    }

    fn finish(&mut self, ctx: &mut Context<'_, EulMsg>, txn: TxnId, commit: bool) {
        let Some(mut t) = self.delegated.remove(&txn) else {
            return;
        };
        let audience = t.cohort.take().unwrap_or_else(|| self.servers.clone());
        for &s in &audience {
            if s != self.me {
                ctx.send(s, EulMsg::Decision { txn, commit });
            }
        }
        self.apply_decision(ctx, txn, commit);
        // Reassemble reads into program order. A retried transaction can
        // receive a late XReadVal from its wounded previous attempt; the
        // fresh value arrives later on the same FIFO link, so keep the
        // *last* entry per step.
        t.reads.sort_by_key(|r| r.0);
        let mut reads: Vec<(Key, Value)> = Vec::with_capacity(t.reads.len());
        let mut last_step = None;
        for (s, k, v) in t.reads.drain(..) {
            if last_step == Some(s) {
                reads.pop();
            }
            last_step = Some(s);
            reads.push((k, v));
        }
        let resp = Response {
            op: t.op.id,
            committed: commit,
            reads,
        };
        if commit {
            self.base.remember(&resp);
            ctx.send(t.op.client, EulMsg::Reply(resp));
        } else if t.retries < MAX_RETRIES {
            self.requeue.push((t.op, t.retries + 1));
            let backoff = SimDuration::from_ticks(400 + 150 * t.retries as u64);
            ctx.set_timer(backoff, RETRY_TICK);
        } else {
            ctx.send(t.op.client, EulMsg::Reply(resp));
        }
        // A pending view-change ack waits for this site's old-view
        // delegated transactions; the Decision sends above precede the
        // ack on each FIFO link, so the donor snapshot sees them.
        let acked = if let Some((_, _, wait)) = &mut self.ack_wait {
            wait.remove(&txn);
            wait.is_empty()
        } else {
            false
        };
        if acked {
            let (coord, joiner, _) = self.ack_wait.take().expect("checked");
            self.deliver_ack(ctx, coord, joiner);
        }
        self.try_retire(ctx);
    }

    /// Member side of an admission: confirm the view change once every
    /// transaction this site delegated under the *old* view has decided.
    fn begin_view_ack(&mut self, ctx: &mut Context<'_, EulMsg>, coord: NodeId, joiner: NodeId) {
        let wait: BTreeSet<TxnId> = self.delegated.keys().copied().collect();
        if wait.is_empty() {
            self.deliver_ack(ctx, coord, joiner);
        } else {
            self.ack_wait = Some((coord, joiner, wait));
        }
    }

    fn deliver_ack(&mut self, ctx: &mut Context<'_, EulMsg>, coord: NodeId, joiner: NodeId) {
        if coord == self.elastic.me {
            self.note_ack(ctx, joiner, self.elastic.me);
        } else {
            ctx.send(coord, EulMsg::Member(MemberMsg::ViewAck { joiner }));
        }
    }

    /// Coordinator side: collect acks; the last one releases the Welcome.
    fn note_ack(&mut self, ctx: &mut Context<'_, EulMsg>, joiner: NodeId, member: NodeId) {
        let done = match &mut self.admitting {
            Some((j, wait)) if *j == joiner => {
                wait.remove(&member);
                wait.is_empty()
            }
            _ => false,
        };
        if done {
            self.admitting = None;
            self.send_welcome(ctx, joiner);
        }
    }

    fn send_welcome(&mut self, ctx: &mut Context<'_, EulMsg>, joiner: NodeId) {
        // All-site locking keeps no redo log, so a committed snapshot
        // (tentative state rolled back) is the whole transfer; new-view
        // transactions reach the joiner through its buffered
        // Exec/Decision replay.
        let t = Transfer::committed_snapshot(&self.base.store, &self.base.tm, 0);
        ctx.send(
            joiner,
            EulMsg::Member(MemberMsg::Welcome {
                servers: self.elastic.servers.clone(),
                transfer: Some(Box::new(t)),
                pos: 0,
                gpos: 0,
                answered: Elastic::answered_floor(&self.base),
            }),
        );
    }

    /// Handles elastic-membership traffic.
    fn member(&mut self, ctx: &mut Context<'_, EulMsg>, from: NodeId, msg: MemberMsg) {
        match msg {
            MemberMsg::JoinReq => {
                if !self.elastic.is_coordinator()
                    || self.elastic.joining
                    || self.recovering
                    || self.elastic.rerouting()
                {
                    return;
                }
                if let Some((j, _)) = &self.admitting {
                    if *j != from {
                        return; // one admission at a time; this joiner retries
                    }
                    // Same joiner retrying while acks are outstanding: a
                    // cohort member may have crashed and lost its pending
                    // ack — re-issue the view change (drained members
                    // re-ack immediately, duplicates are no-ops).
                } else {
                    if !self.elastic.servers.contains(&from) {
                        self.elastic.admit(from);
                        self.sync_membership();
                    }
                    // Re-admission of a known member (lost Welcome, or we
                    // crashed after welcoming) restarts the ack round so
                    // the fresh snapshot again waits for every cohort's
                    // old-view transactions.
                    let cohort: HashSet<NodeId> = self
                        .elastic
                        .servers
                        .iter()
                        .copied()
                        .filter(|&n| n != from)
                        .collect();
                    self.admitting = Some((from, cohort));
                }
                let members: Vec<NodeId> = self
                    .elastic
                    .servers
                    .iter()
                    .copied()
                    .filter(|&n| n != from)
                    .collect();
                let view = self.elastic.servers.clone();
                for &n in &members {
                    if n == self.elastic.me {
                        self.last_admitted = Some(from);
                        self.begin_view_ack(ctx, self.elastic.me, from);
                    } else {
                        ctx.send(
                            n,
                            EulMsg::Member(MemberMsg::ViewAdd {
                                servers: view.clone(),
                            }),
                        );
                    }
                }
            }
            MemberMsg::ViewAdd { servers } => {
                let newcomer = servers
                    .iter()
                    .copied()
                    .find(|n| !self.elastic.servers.contains(n))
                    .or(self.last_admitted);
                self.elastic.install(servers);
                self.sync_membership();
                if let Some(j) = newcomer {
                    self.last_admitted = Some(j);
                    self.begin_view_ack(ctx, from, j);
                }
            }
            MemberMsg::ViewAck { joiner } => {
                self.note_ack(ctx, joiner, from);
            }
            MemberMsg::Welcome {
                servers,
                transfer,
                pos: _,
                gpos: _,
                answered,
            } => {
                if !self.elastic.joining {
                    return; // duplicate welcome
                }
                self.elastic.joining = false;
                self.elastic.install(servers);
                self.sync_membership();
                if let Some(t) = transfer {
                    let _ = self.base.install_transfer(&t);
                }
                self.elastic.answered.extend(answered);
                // Exec/Decision that raced the snapshot replay on top of
                // it (value writes are idempotent when the snapshot
                // already carries them).
                for (peer, m) in std::mem::take(&mut self.replay) {
                    self.on_message(ctx, peer, m);
                }
                self.base.recovery.complete(ctx.now().ticks());
                for op in std::mem::take(&mut self.elastic.buffered) {
                    self.invoke(ctx, op);
                }
            }
            MemberMsg::ViewDrop { node } => {
                self.elastic.remove(node);
                self.sync_membership();
                // In-flight grants and votes the drained site still owes
                // keep flowing from its retired relay, so no delegate
                // bookkeeping needs rewiring. A pending admission treats
                // the departure as an implicit ack.
                let done = if let Some((_, wait)) = &mut self.admitting {
                    wait.remove(&node);
                    wait.is_empty()
                } else {
                    false
                };
                if done {
                    let (j, _) = self.admitting.take().expect("checked");
                    self.send_welcome(ctx, j);
                }
            }
            MemberMsg::Reroute { .. } => {}
        }
    }

    /// Completes a drain once every transaction this site delegates has
    /// decided — its 2PC is the only thing that releases the cohort's
    /// locks. Grants and votes owed to *other* delegates keep flowing
    /// from the retired relay, so they need no draining.
    fn try_retire(&mut self, ctx: &mut Context<'_, EulMsg>) {
        if self.elastic.drain != DrainState::Draining {
            return;
        }
        if !self.delegated.is_empty() || !self.requeue.is_empty() {
            ctx.set_timer(SimDuration::from_ticks(DRAIN_TICK_TICKS), DRAIN_TICK_TAG);
            return;
        }
        let remaining = self.elastic.remaining();
        for &n in &remaining {
            ctx.send(
                n,
                EulMsg::Member(MemberMsg::ViewDrop {
                    node: self.elastic.me,
                }),
            );
        }
        self.elastic.servers = remaining;
        self.sync_membership();
        self.elastic.drain = DrainState::Retired;
    }

    /// Rejoins the group after a crash (or a completed volume restore):
    /// re-arms the deadlock detector and pulls a committed snapshot.
    fn rejoin_now(&mut self, ctx: &mut Context<'_, EulMsg>) {
        // Timers do not survive a crash: re-arm the deadlock detector.
        if self.policy == DeadlockPolicy::Detect && self.base.site == 0 {
            ctx.set_timer(self.detect_every, DETECT_TICK);
        }
        if self.servers.len() == 1 {
            self.base.recovery.complete(ctx.now().ticks());
            return;
        }
        self.recovering = true;
        self.replay.clear();
        for &s in &self.servers.clone() {
            if s != self.me {
                ctx.send(s, EulMsg::SyncReq);
            }
        }
    }

    /// Commits or aborts the local tentative state and releases locks.
    fn apply_decision(&mut self, ctx: &mut Context<'_, EulMsg>, txn: TxnId, commit: bool) {
        if self.tentative.remove(&txn) || self.base.tm.is_active(txn) {
            if commit {
                if let Ok(ws) = self.base.tm.commit(txn) {
                    if let Some(tier) = &mut self.base.tier {
                        tier.note_commit(&ws);
                    }
                }
                self.base.history.mark_committed(txn);
                self.base.committed += 1;
            } else {
                let _ = self.base.tm.abort(&mut self.base.store, txn);
                self.base.history.purge(txn);
                self.base.aborted += 1;
            }
        }
        self.lock_owner.remove(&txn);
        let granted = self.lm.release_all(txn);
        for (g, _, _) in granted {
            self.granted_locally(ctx, g);
        }
    }

    /// A queued lock request of `txn` became grantable at this site.
    fn granted_locally(&mut self, ctx: &mut Context<'_, EulMsg>, txn: TxnId) {
        if let Some(&(delegate, step)) = self.lock_owner.get(&txn) {
            ctx.send(delegate, EulMsg::LockGrant { txn, step });
        }
    }

    /// A site (or the detector) wounded `victim`, for which we delegate.
    fn wound_delegated(&mut self, ctx: &mut Context<'_, EulMsg>, victim: TxnId) {
        if self.delegated.contains_key(&victim) {
            self.wounds += 1;
            self.finish(ctx, victim, false);
        }
    }

    fn run_detection(&mut self, ctx: &mut Context<'_, EulMsg>) {
        self.probe_edges = self.lm.wait_for_edges();
        self.probe_answers = 1;
        for &s in &self.servers {
            if s != self.me {
                ctx.send(s, EulMsg::ProbeReq);
            }
        }
        self.maybe_resolve_deadlock(ctx);
    }

    fn maybe_resolve_deadlock(&mut self, ctx: &mut Context<'_, EulMsg>) {
        if self.probe_answers < self.servers.len() {
            return;
        }
        // Union collected; reuse the lock manager's cycle finder through a
        // scratch structure.
        if let Some(victim) = find_cycle_victim(&self.probe_edges) {
            for &s in &self.servers {
                ctx.send(s, EulMsg::Wound { victim });
            }
        }
        self.probe_answers = 0;
    }
}

/// Finds the youngest transaction on a wait-for cycle, if any.
fn find_cycle_victim(edges: &[(TxnId, TxnId)]) -> Option<TxnId> {
    use std::collections::HashMap as Map;
    let mut adj: Map<TxnId, Vec<TxnId>> = Map::new();
    let mut nodes: Vec<TxnId> = Vec::new();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
        nodes.push(a);
        nodes.push(b);
    }
    nodes.sort_unstable();
    nodes.dedup();
    #[derive(Clone, Copy, PartialEq)]
    enum C {
        W,
        G,
        B,
    }
    let mut color: Map<TxnId, C> = nodes.iter().map(|&n| (n, C::W)).collect();
    for &start in &nodes {
        if color[&start] != C::W {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        let mut path = vec![start];
        color.insert(start, C::G);
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            let next = adj.get(&node).and_then(|v| v.get(*idx).copied());
            *idx += 1;
            match next {
                Some(n) => match color[&n] {
                    C::G => {
                        let pos = path.iter().position(|&p| p == n).expect("on path");
                        return path[pos..].iter().copied().max();
                    }
                    C::W => {
                        color.insert(n, C::G);
                        stack.push((n, 0));
                        path.push(n);
                    }
                    C::B => {}
                },
                None => {
                    color.insert(node, C::B);
                    stack.pop();
                    path.pop();
                }
            }
        }
    }
    None
}

impl Actor<EulMsg> for EulServer {
    fn on_start(&mut self, ctx: &mut Context<'_, EulMsg>) {
        if self.elastic.joining {
            // Cold joiner: ask the coordinator for admission + state. It
            // grants locks and votes from the moment the first ViewAdd
            // lands the group on it, but holds writes until welcomed.
            self.base.recovery.begin(ctx.now().ticks());
            let target = self.elastic.join_target();
            ctx.send(target, EulMsg::Member(MemberMsg::JoinReq));
            ctx.set_timer(SimDuration::from_ticks(JOIN_RETRY_TICKS), JOIN_RETRY_TAG);
            return;
        }
        if self.policy == DeadlockPolicy::Detect && self.base.site == 0 {
            ctx.set_timer(self.detect_every, DETECT_TICK);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, EulMsg>, from: NodeId, msg: EulMsg) {
        if self.base.restoring() {
            return; // deaf until the volume restore download completes
        }
        if self.elastic.drain == DrainState::Retired {
            // A retired site relays just enough to keep delegates that
            // have not yet processed our ViewDrop from wedging: grant and
            // vote vacuously (every remaining site still serializes the
            // conflict), confirm view changes, reroute clients; drop the
            // rest.
            match msg {
                EulMsg::LockReq {
                    txn,
                    step,
                    delegate,
                    ..
                } => {
                    ctx.send(delegate, EulMsg::LockGrant { txn, step });
                }
                EulMsg::Prepare { txn } => {
                    ctx.send(from, EulMsg::Vote { txn, yes: true });
                }
                EulMsg::Invoke(op) => self.invoke(ctx, op),
                EulMsg::Member(MemberMsg::ViewAdd { servers }) => {
                    // We already left; ack vacuously so a join is never
                    // wedged on a departed cohort member (our ViewDrop
                    // may still be in flight toward the coordinator).
                    let j = servers
                        .iter()
                        .copied()
                        .find(|n| !self.elastic.servers.contains(n) && *n != self.elastic.me)
                        .or(self.last_admitted);
                    if let Some(j) = j {
                        ctx.send(from, EulMsg::Member(MemberMsg::ViewAck { joiner: j }));
                    }
                }
                _ => {}
            }
            return;
        }
        if self.elastic.joining && matches!(msg, EulMsg::Exec { .. } | EulMsg::Decision { .. }) {
            // Same discipline as crash recovery: keep granting locks,
            // voting, and answering probes so the group never wedges on
            // us, but hold writes and verdicts back until the Welcome
            // snapshot is in place.
            self.replay.push((from, msg));
            return;
        }
        if self.recovering {
            // Keep granting locks and voting so the group never wedges
            // on us, but hold writes and verdicts back until the
            // snapshot is in place.
            if matches!(msg, EulMsg::Exec { .. } | EulMsg::Decision { .. }) {
                self.replay.push((from, msg));
                return;
            }
            // A delegate with a stale store would serve stale reads.
            if matches!(msg, EulMsg::Invoke(_)) {
                return;
            }
        }
        match msg {
            EulMsg::Invoke(op) => self.invoke(ctx, op),
            EulMsg::LockReq {
                txn,
                step,
                key,
                exclusive,
                delegate,
            } => {
                self.lock_owner.insert(txn, (delegate, step));
                let mode = if exclusive {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                };
                match self.lm.acquire(txn, key, mode) {
                    Acquire::Granted => {
                        ctx.send(delegate, EulMsg::LockGrant { txn, step });
                    }
                    Acquire::Waiting { wounded } => {
                        for v in wounded {
                            self.wounds += 1;
                            if let Some(&(d, _)) = self.lock_owner.get(&v) {
                                ctx.send(d, EulMsg::Wound { victim: v });
                            }
                        }
                    }
                }
            }
            EulMsg::LockGrant { txn, step } => {
                let ready = {
                    let Some(t) = self.delegated.get_mut(&txn) else {
                        return;
                    };
                    match &mut t.phase {
                        DelPhase::Locking { step: s, awaiting } if *s == step => {
                            awaiting.remove(&from);
                            awaiting.is_empty()
                        }
                        _ => false,
                    }
                };
                if ready {
                    self.step_granted(ctx, txn);
                }
            }
            EulMsg::Wound { victim } => {
                self.wound_delegated(ctx, victim);
            }
            EulMsg::Exec {
                txn,
                step,
                key,
                write,
                read_back,
            } => {
                // A live Exec always finds `txn` holding this step's lock
                // here: the grant precedes the delegate's Exec send, and
                // the release travels on the same delegate→member link
                // *after* it. The exception is the delegate's own site,
                // where a wound applies the abort directly (no loopback)
                // while its own Exec is still in flight; executing that
                // straggler would re-record an already-purged attempt in
                // the history and leak a tentative write. Lock-not-held
                // therefore marks the Exec as stale — drop it.
                if !self.lm.holds(txn, key) {
                    return;
                }
                self.base.tm.begin(txn);
                self.tentative.insert(txn);
                match write {
                    Some(v) => {
                        let v = self.base.effective_value(v);
                        let _ = self.base.tm.write(&mut self.base.store, txn, key, v);
                        self.base.history.record(
                            self.base.site,
                            txn,
                            key,
                            repl_db::AccessKind::Write,
                        );
                    }
                    None => {
                        let read = self.base.tm.read(&self.base.store, txn, key);
                        self.base.history.record(
                            self.base.site,
                            txn,
                            key,
                            repl_db::AccessKind::Read,
                        );
                        if let Some(delegate) = read_back {
                            let value = read.ok().flatten().map_or(Value(0), |ver| ver.value);
                            ctx.send(
                                delegate,
                                EulMsg::XReadVal {
                                    txn,
                                    step,
                                    key,
                                    value,
                                },
                            );
                        }
                    }
                }
            }
            EulMsg::XReadVal {
                txn,
                step,
                key,
                value,
            } => {
                if let Some(t) = self.delegated.get_mut(&txn) {
                    t.reads.push((step, key, value));
                }
            }
            EulMsg::Prepare { txn } => {
                ctx.send(from, EulMsg::Vote { txn, yes: true });
            }
            EulMsg::Vote { txn, yes } => {
                let decision = {
                    let Some(t) = self.delegated.get_mut(&txn) else {
                        return;
                    };
                    match &mut t.phase {
                        DelPhase::Committing(c) => c.on_vote(from, yes),
                        _ => None,
                    }
                };
                match decision {
                    Some(TpcDecision::Commit) => self.finish(ctx, txn, true),
                    Some(TpcDecision::Abort) => self.finish(ctx, txn, false),
                    None => {}
                }
            }
            EulMsg::Decision { txn, commit } => {
                self.apply_decision(ctx, txn, commit);
            }
            EulMsg::ProbeReq => {
                ctx.send(
                    from,
                    EulMsg::ProbeEdges {
                        edges: self.lm.wait_for_edges(),
                    },
                );
            }
            EulMsg::ProbeEdges { edges } => {
                self.probe_edges.extend(edges);
                self.probe_answers += 1;
                self.maybe_resolve_deadlock(ctx);
            }
            EulMsg::SyncReq => {
                if !self.recovering && !self.elastic.joining {
                    let t = Transfer::committed_snapshot(&self.base.store, &self.base.tm, 0);
                    ctx.send(from, EulMsg::SyncData(Box::new(t)));
                }
            }
            EulMsg::SyncData(t) => {
                if !self.recovering {
                    return;
                }
                self.recovering = false;
                let _ = self.base.install_transfer(&t);
                for (peer, m) in std::mem::take(&mut self.replay) {
                    self.on_message(ctx, peer, m);
                }
                self.base.recovery.complete(ctx.now().ticks());
            }
            EulMsg::Reply(_) => {}
            EulMsg::Member(m) => self.member(ctx, from, m),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, EulMsg>, _timer: TimerId, tag: u64) {
        if tag == RESTORE_TAG {
            self.base.finish_restore();
            self.rejoin_now(ctx);
            return;
        }
        if self.base.restoring() {
            return;
        }
        // Elastic tags sit near u64::MAX, far above the protocol ticks.
        if tag == JOIN_RETRY_TAG {
            if self.elastic.joining {
                let target = self.elastic.join_target();
                ctx.send(target, EulMsg::Member(MemberMsg::JoinReq));
                ctx.set_timer(SimDuration::from_ticks(JOIN_RETRY_TICKS), JOIN_RETRY_TAG);
            }
            return;
        }
        if tag == DRAIN_TICK_TAG {
            self.try_retire(ctx);
            return;
        }
        match tag {
            DETECT_TICK => {
                self.run_detection(ctx);
                ctx.set_timer(self.detect_every, DETECT_TICK);
            }
            RETRY_TICK => {
                let pending = std::mem::take(&mut self.requeue);
                for (op, retries) in pending {
                    self.start_txn(ctx, op, retries);
                }
            }
            _ => {}
        }
    }

    fn on_crash(&mut self, _now: SimTime) {
        // Fail-stop: volatile state dies with the process. Lock tables,
        // delegate bookkeeping and tentative writes are lost; only the
        // committed store survives. Without this amnesia a recovered site
        // would still "hold" locks for transactions that finished while it
        // was down — the 2PC decision that releases them was dropped — and
        // every later conflicting transaction would queue behind them
        // forever (wound-wait never wounds an older phantom holder).
        let mut active: Vec<TxnId> = self
            .tentative
            .iter()
            .copied()
            .chain(self.delegated.keys().copied()) // sorted-below
            .collect();
        active.sort_unstable(); // set iteration order is unspecified
        for txn in active {
            if self.base.tm.is_active(txn) {
                let _ = self.base.tm.abort(&mut self.base.store, txn);
            }
            self.base.history.purge(txn);
        }
        self.tentative.clear();
        self.delegated.clear();
        self.requeue.clear();
        self.lock_owner.clear();
        self.lm = LockManager::with_keyspace(self.policy, self.base.keyspace());
        self.probe_edges.clear();
        self.probe_answers = 0;
        // Pending membership acks are volatile too; the joiner's JoinReq
        // retry re-issues the view change and re-collects them.
        self.admitting = None;
        self.ack_wait = None;
    }

    fn on_drain(&mut self, ctx: &mut Context<'_, EulMsg>) {
        if self.elastic.drain == DrainState::Active {
            self.elastic.drain = DrainState::Draining;
            self.try_retire(ctx);
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, EulMsg>) {
        // `on_crash` already dropped the volatile state (amnesia); what
        // remains is closing the gap in committed state via a peer
        // snapshot — all-site locking keeps no redo log to replay.
        self.base.recovery.begin(ctx.now().ticks());
        if let Some(plan) = self.base.begin_restore(ctx.now().ticks()) {
            // No stream or cursor exists: the tier restored the committed
            // store, and the rejoin snapshot covers anything lost.
            if plan.delay > 0 {
                ctx.set_timer(SimDuration::from_ticks(plan.delay), RESTORE_TAG);
                return;
            }
            self.base.finish_restore();
        }
        self.rejoin_now(ctx);
    }

    fn on_volume_loss(&mut self, now: SimTime) {
        // Same amnesia as a crash, plus the committed store is gone too.
        self.on_crash(now);
        self.base.wipe_volume(now.ticks());
    }

    fn on_settle(&mut self, ctx: &mut Context<'_, EulMsg>) {
        // No replicated stream exists; the committed count is the frame
        // token (these restores never rewind by token anyway).
        self.base.seal_now(ctx.now().ticks(), self.base.committed);
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientActor;
    use repl_sim::{SimConfig, SimTime, World};
    use repl_workload::TxnTemplate;

    fn write(k: u64, v: i64) -> TxnTemplate {
        TxnTemplate {
            ops: vec![OpTemplate::Write(Key(k), Value(v))].into(),
        }
    }
    fn read(k: u64) -> TxnTemplate {
        TxnTemplate {
            ops: vec![OpTemplate::Read(Key(k))].into(),
        }
    }
    fn multi(ops: Vec<OpTemplate>) -> TxnTemplate {
        TxnTemplate { ops: ops.into() }
    }

    fn build(
        n: u32,
        txns: Vec<Vec<TxnTemplate>>,
        policy: DeadlockPolicy,
        seed: u64,
    ) -> (World<EulMsg>, Vec<NodeId>, Vec<NodeId>) {
        let mut world = World::new(SimConfig::new(seed));
        let servers: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        for i in 0..n {
            world.add_actor(Box::new(EulServer::new(
                i,
                NodeId::new(i),
                servers.clone(),
                16,
                ExecutionMode::Deterministic,
                policy,
            )));
        }
        let mut clients = Vec::new();
        for (c, t) in txns.into_iter().enumerate() {
            // Each client talks to its local server (update everywhere!).
            let client = ClientActor::<EulMsg>::new(
                c as u32,
                servers.clone(),
                c % n as usize,
                t,
                SimDuration::from_ticks(100),
                SimDuration::from_ticks(40_000),
            );
            clients.push(world.add_actor(Box::new(client)));
        }
        (world, servers, clients)
    }

    #[test]
    fn single_op_write_replicates_to_all_sites() {
        let (mut world, servers, clients) = build(
            3,
            vec![vec![write(0, 7), read(0)]],
            DeadlockPolicy::WoundWait,
            1,
        );
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        let client = world.actor_ref::<ClientActor<EulMsg>>(clients[0]);
        assert!(client.is_done());
        assert_eq!(
            client.records[1].response.as_ref().expect("r").reads,
            vec![(Key(0), Value(7))]
        );
        let fp0 = world
            .actor_ref::<EulServer>(servers[0])
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world.actor_ref::<EulServer>(s).base.store.fingerprint(),
                fp0
            );
        }
    }

    #[test]
    fn updates_from_different_delegates_converge() {
        let (mut world, servers, clients) = build(
            3,
            vec![
                vec![write(0, 1), write(1, 2)],
                vec![write(2, 3), write(3, 4)],
                vec![write(4, 5)],
            ],
            DeadlockPolicy::WoundWait,
            2,
        );
        world.start();
        world.run_until(SimTime::from_ticks(500_000));
        for &c in &clients {
            assert!(world.actor_ref::<ClientActor<EulMsg>>(c).is_done());
        }
        let fp0 = world
            .actor_ref::<EulServer>(servers[0])
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world.actor_ref::<EulServer>(s).base.store.fingerprint(),
                fp0
            );
        }
    }

    #[test]
    fn opposite_order_writes_resolved_by_wound_wait() {
        let (mut world, servers, clients) = build(
            2,
            vec![
                vec![multi(vec![
                    OpTemplate::Write(Key(0), Value(1)),
                    OpTemplate::Write(Key(1), Value(2)),
                ])],
                vec![multi(vec![
                    OpTemplate::Write(Key(1), Value(20)),
                    OpTemplate::Write(Key(0), Value(10)),
                ])],
            ],
            DeadlockPolicy::WoundWait,
            3,
        );
        world.start();
        world.run_until(SimTime::from_ticks(3_000_000));
        for &c in &clients {
            assert!(
                world.actor_ref::<ClientActor<EulMsg>>(c).is_done(),
                "deadlock not resolved for {c}"
            );
        }
        let mut merged = repl_db::ReplicatedHistory::new();
        for &s in &servers {
            merged.merge(&world.actor_ref::<EulServer>(s).base.history);
        }
        assert!(merged.check_one_copy_serializable().is_ok());
        let fp0 = world
            .actor_ref::<EulServer>(servers[0])
            .base
            .store
            .fingerprint();
        assert_eq!(
            world
                .actor_ref::<EulServer>(servers[1])
                .base
                .store
                .fingerprint(),
            fp0
        );
    }

    #[test]
    fn opposite_order_writes_resolved_by_detection() {
        let (mut world, servers, clients) = build(
            2,
            vec![
                vec![multi(vec![
                    OpTemplate::Write(Key(0), Value(1)),
                    OpTemplate::Write(Key(1), Value(2)),
                ])],
                vec![multi(vec![
                    OpTemplate::Write(Key(1), Value(20)),
                    OpTemplate::Write(Key(0), Value(10)),
                ])],
            ],
            DeadlockPolicy::Detect,
            4,
        );
        world.start();
        world.run_until(SimTime::from_ticks(5_000_000));
        for &c in &clients {
            assert!(
                world.actor_ref::<ClientActor<EulMsg>>(c).is_done(),
                "deadlock not detected/resolved for {c}"
            );
        }
        let fp0 = world
            .actor_ref::<EulServer>(servers[0])
            .base
            .store
            .fingerprint();
        assert_eq!(
            world
                .actor_ref::<EulServer>(servers[1])
                .base
                .store
                .fingerprint(),
            fp0
        );
    }

    #[test]
    fn phase_skeleton_single_op_matches_figure_8() {
        let (mut world, _s, _c) = build(3, vec![vec![write(0, 1)]], DeadlockPolicy::WoundWait, 5);
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        let pt = crate::phase::PhaseTrace::from_trace(world.trace());
        assert_eq!(
            pt.canonical().expect("op done").to_string(),
            "RE SC EX AC END"
        );
    }

    #[test]
    fn phase_skeleton_multi_op_loops_sc_ex_as_figure_13() {
        let (mut world, _s, _c) = build(
            3,
            vec![vec![multi(vec![
                OpTemplate::Write(Key(0), Value(1)),
                OpTemplate::Write(Key(1), Value(2)),
            ])]],
            DeadlockPolicy::WoundWait,
            6,
        );
        world.start();
        world.run_until(SimTime::from_ticks(500_000));
        let pt = crate::phase::PhaseTrace::from_trace(world.trace());
        let sk = pt.canonical().expect("op done");
        assert_eq!(sk.to_string(), "RE SC EX SC EX AC END");
        assert!(sk.has_loop());
    }

    #[test]
    fn crash_amnesia_releases_stale_locks() {
        let mut s = EulServer::new(
            0,
            NodeId::new(0),
            vec![NodeId::new(0)],
            16,
            ExecutionMode::Deterministic,
            DeadlockPolicy::WoundWait,
        );
        let t1 = global_txn(crate::op::OpId(1));
        assert!(matches!(
            s.lm.acquire(t1, Key(0), LockMode::Exclusive),
            Acquire::Granted
        ));
        s.lock_owner.insert(t1, (NodeId::new(0), 0));
        s.on_crash(SimTime::from_ticks(100));
        // A fresh transaction gets the lock immediately: no phantom holder.
        let t2 = global_txn(crate::op::OpId(2));
        assert!(matches!(
            s.lm.acquire(t2, Key(0), LockMode::Exclusive),
            Acquire::Granted
        ));
        assert!(s.lock_owner.is_empty());
        assert!(s.delegated.is_empty());
        assert!(s.tentative.is_empty());
    }

    #[test]
    fn conflicting_writes_complete_across_a_participant_crash() {
        // Server 2 crashes mid-run (possibly holding grants for an
        // in-flight transaction that commits while it is down) and later
        // recovers; the same hot key keeps being written. Every
        // transaction must still be answered — a stale grant surviving
        // the crash would wedge the key forever.
        let txns: Vec<TxnTemplate> = (0..5).map(|i| write(0, 10 + i)).collect();
        let (mut world, servers, clients) = build(3, vec![txns], DeadlockPolicy::WoundWait, 11);
        world.schedule_crash(SimTime::from_ticks(300), servers[2]);
        world.schedule_recover(SimTime::from_ticks(20_000), servers[2]);
        world.start();
        world.run_until(SimTime::from_ticks(500_000));
        let client = world.actor_ref::<ClientActor<EulMsg>>(clients[0]);
        assert!(
            client.is_done(),
            "writes wedged behind a crashed participant"
        );
        // The survivors agree; the crashed site may have missed decisions.
        assert_eq!(
            world
                .actor_ref::<EulServer>(servers[0])
                .base
                .store
                .fingerprint(),
            world
                .actor_ref::<EulServer>(servers[1])
                .base
                .store
                .fingerprint(),
        );
    }

    #[test]
    fn history_under_contention_is_one_copy_serializable() {
        // Several clients hammering two hot keys with read-modify-write
        // style transactions; whatever commits must be 1SR.
        let mut txns = Vec::new();
        for c in 0..4u64 {
            txns.push(vec![
                multi(vec![
                    OpTemplate::Read(Key(0)),
                    OpTemplate::Write(Key(0), Value(100 + c as i64)),
                ]),
                multi(vec![
                    OpTemplate::Read(Key(1)),
                    OpTemplate::Write(Key(1), Value(200 + c as i64)),
                ]),
            ]);
        }
        let (mut world, servers, clients) = build(3, txns, DeadlockPolicy::WoundWait, 7);
        world.start();
        world.run_until(SimTime::from_ticks(5_000_000));
        for &c in &clients {
            assert!(
                world.actor_ref::<ClientActor<EulMsg>>(c).is_done(),
                "{c} stuck"
            );
        }
        let mut merged = repl_db::ReplicatedHistory::new();
        for &s in &servers {
            merged.merge(&world.actor_ref::<EulServer>(s).base.history);
        }
        merged.check_one_copy_serializable().expect("1SR violated");
        let fp0 = world
            .actor_ref::<EulServer>(servers[0])
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world.actor_ref::<EulServer>(s).base.store.fingerprint(),
                fp0
            );
        }
    }
}
