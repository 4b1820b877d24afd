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
//!   site's wait-for edges, finds a cycle in the union with
//!   [`repl_db::first_cycle`], and aborts its youngest member.
//!
//! The paper notes that quorums are orthogonal to the phase structure and
//! mentions the read-one/write-all extreme (§5.4.1): with
//! [`EulServer::with_rowa`] read operations lock and execute only at the
//! delegate while writes still lock everywhere — same phases, fewer
//! messages for reads.
//!
//! Sharded, a step locks at the key-owning group and the 2PC spans the
//! touched groups; wound-wait ages are global (`TxnId` order), so the
//! runner admits cross-shard locking only under wound-wait, without rowa.
//!
//! The protocol is *blocking* while a participant is down (the paper,
//! Section 2.1: databases accept blocking protocols) — all-site locking
//! cannot make progress without every replica. Crashes follow fail-stop
//! semantics: volatile state (lock tables, delegate bookkeeping,
//! tentative writes) is lost, so a recovered site grants locks afresh
//! rather than blocking behind phantom holders, and a client's retry
//! makes the delegate run a stalled attempt again once the site is back.

use std::collections::{BTreeSet, HashMap, HashSet};

use repl_db::{
    first_cycle, Acquire, DeadlockPolicy, Key, Keyspace, LockManager, LockMode, TpcCoordinator,
    TpcDecision, Transfer, TxnId, Value,
};
use repl_sim::{GroupSet, Message, NodeId, SimDuration};
use repl_workload::OpTemplate;

use crate::op::{ClientOp, Response};
use crate::phase::Phase;
use crate::protocols::common::{global_txn, op_of_txn, ExecutionMode};
use crate::protocols::replica::{Ctx, ExtraStats, MemberMsg, Replica, Shell, Technique, Wire};

/// Coordination traffic of eager update everywhere with distributed
/// locking.
#[derive(Debug, Clone)]
pub enum EulMsg {
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
    /// Cohort member → coordinator: the view change is applied and this
    /// site's old-view transactions decided (the admission barrier).
    ViewAck {
        /// The joiner the acked view change admitted.
        joiner: NodeId,
    },
}

impl Message for EulMsg {
    fn wire_size(&self) -> usize {
        match self {
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
            EulMsg::ViewAck { .. } => 12,
        }
    }
}

#[derive(Debug)]
enum DelPhase {
    /// Waiting for the transaction's `awaiting` lock grants for `step`.
    Locking { step: u32 },
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
    /// The sites the current lock step still waits for. Once they all
    /// granted it is refilled with the step's exec targets (the same
    /// sites), and at commit with the 2PC cohort minus this site. One
    /// list per transaction, taken from and returned to `Eul::spare_acks`.
    awaiting: Vec<NodeId>,
    retries: u32,
    /// Sharded runs: the touched groups. Their members, expanded on
    /// demand by [`cohort_of`], are the 2PC participant set and decision
    /// audience. `None` in unsharded runs (the live `servers` view is
    /// used instead, so elastic membership keeps working).
    cohort: Option<GroupSet>,
}

const MAX_RETRIES: u32 = 30;
const DETECT_TICK: u64 = 1;
const RETRY_TICK: u64 = 2;

/// Eager update everywhere with distributed locking: the delegate locks
/// and executes each operation at all replicas, then runs a 2PC.
pub struct Eul {
    lm: LockManager,
    policy: DeadlockPolicy,
    detect_every: SimDuration,
    /// Transactions this server delegates.
    delegated: HashMap<TxnId, DelegateTxn>,
    /// Ack lists of finished delegations, reused by the next.
    spare_acks: Vec<Vec<NodeId>>,
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
    /// Read-one/write-all: reads lock and execute locally only.
    rowa: bool,
    /// Exec/Decision traffic that arrived mid-transfer, replayed once
    /// the snapshot lands (its writes must sit *on top* of the
    /// transferred state, not under it).
    replay: Vec<(NodeId, EulMsg)>,
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

/// A replica server for eager update everywhere with distributed locking.
pub type EulServer = Replica<Eul>;

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
        let tech = Eul {
            lm: LockManager::with_keyspace(policy, ks),
            policy,
            detect_every: SimDuration::from_ticks(2_500),
            delegated: HashMap::new(),
            spare_acks: Vec::new(),
            requeue: Vec::new(),
            lock_owner: HashMap::new(),
            tentative: HashSet::new(),
            probe_edges: Vec::new(),
            probe_answers: 0,
            wounds: 0,
            rowa: false,
            replay: Vec::new(),
            admitting: None,
            ack_wait: None,
            last_admitted: None,
        };
        Replica::around(site, me, servers, ks, exec, tech)
    }

    /// Enables the read-one/write-all optimisation (paper §5.4.1): read
    /// locks are taken only at the delegate; writes still lock all sites.
    pub fn with_rowa(mut self, rowa: bool) -> Self {
        self.tech.rowa = rowa;
        self
    }
}

/// Fills `out` with the sites that lock and then execute `key`. Sharded,
/// the key-owning group only (that is the whole point of partial
/// replication — foreign groups never see this key); under
/// read-one/write-all a read only the local copy; otherwise every server.
fn step_sites(sh: &Shell, rowa: bool, key: Key, exclusive: bool, out: &mut Vec<NodeId>) {
    out.clear();
    if let Some(sc) = sh.shard() {
        out.extend(sc.group_of(sc.map.shard_of(key)));
    } else if rowa && !exclusive {
        out.push(sh.me());
    } else {
        out.extend_from_slice(sh.servers());
    }
}

/// A delegation's 2PC participant set and decision audience, this site
/// included: the members of the touched `groups` in a sharded run (the
/// groups are ascending and their node blocks contiguous, so the members
/// come out ascending), else the live view.
fn cohort_of<'a>(groups: Option<&'a GroupSet>, sh: &'a Shell) -> impl Iterator<Item = NodeId> + 'a {
    let sharded = groups.zip(sh.shard());
    let members = sharded.map(|(gs, sc)| gs.iter().flat_map(move |&g| sc.group_of(g)));
    let view = sharded.is_none().then(|| sh.servers().iter().copied());
    members
        .into_iter()
        .flatten()
        .chain(view.into_iter().flatten())
}

impl Eul {
    fn start_txn(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EulMsg>, op: ClientOp, retries: u32) {
        let txn = global_txn(op.id);
        // A client retry of a live attempt: a site that crashed or was
        // cut off since may have lost its requests, so it runs again.
        if self.delegated.contains_key(&txn) {
            return self.finish(sh, ctx, txn, false);
        }
        sh.base.begin(txn);
        let cohort = sh.shard().map(|sc| sc.dests(&op.txn));
        let awaiting = self.spare_acks.pop().unwrap_or_default();
        self.delegated.insert(
            txn,
            DelegateTxn {
                op,
                step: 0,
                reads: Vec::new(),
                phase: DelPhase::Locking { step: 0 },
                awaiting,
                retries,
                cohort,
            },
        );
        self.request_lock(sh, ctx, txn);
    }

    /// Sends the lock request for the current step to every replica
    /// (including this one, via loopback, for uniformity).
    fn request_lock(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EulMsg>, txn: TxnId) {
        let Some(t) = self.delegated.get_mut(&txn) else {
            return;
        };
        let step = t.step;
        if step >= t.op.txn.ops.len() {
            self.start_commit(sh, ctx, txn);
            return;
        }
        let (key, exclusive) = match t.op.txn.ops[step] {
            OpTemplate::Read(k) => (k, false),
            OpTemplate::Write(k, _) => (k, true),
        };
        sh.mark(ctx, Phase::ServerCoordination, t.op.id, step as u64);
        step_sites(sh, self.rowa, key, exclusive, &mut t.awaiting);
        t.phase = DelPhase::Locking { step: step as u32 };
        for &s in &t.awaiting {
            ctx.send(
                s,
                Wire::Proto(EulMsg::LockReq {
                    txn,
                    step: step as u32,
                    key,
                    exclusive,
                    delegate: sh.me(),
                }),
            );
        }
    }

    /// All sites granted: execute the step everywhere and move on.
    fn step_granted(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EulMsg>, txn: TxnId) {
        let Some(t) = self.delegated.get_mut(&txn) else {
            return;
        };
        let step = t.step;
        let (key, write) = match t.op.txn.ops[step] {
            OpTemplate::Read(k) => (k, None),
            OpTemplate::Write(k, v) => (k, Some(v)),
        };
        sh.mark(ctx, Phase::Execution, t.op.id, step as u64);
        t.step += 1;
        // The step executes where it locked. Sharded, a *foreign* read
        // also asks one member (the owning group's first) to send the
        // observed value back, because the delegate's own store does not
        // replicate the key.
        let foreign = sh
            .shard()
            .is_some_and(|sc| sc.map.shard_of(key) != sc.my_gid);
        step_sites(sh, self.rowa, key, write.is_some(), &mut t.awaiting);
        for (i, &s) in t.awaiting.iter().enumerate() {
            let read_back = if foreign && write.is_none() && i == 0 {
                Some(sh.me())
            } else {
                None
            };
            ctx.send(
                s,
                Wire::Proto(EulMsg::Exec {
                    txn,
                    step: step as u32,
                    key,
                    write,
                    read_back,
                }),
            );
        }
        // The delegate's local Exec arrives by loopback and records the
        // read value; but the client response needs the value *now* — read
        // it directly (the lock is held, so it cannot change in between).
        // Foreign reads wait for the owning group's XReadVal instead.
        if write.is_none() && !foreign {
            let v = sh.base.store.read(key).map_or(Value(0), |v| v.value);
            t.reads.push((step as u32, key, v));
        }
        self.request_lock(sh, ctx, txn);
    }

    fn start_commit(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EulMsg>, txn: TxnId) {
        let Some(t) = self.delegated.get_mut(&txn) else {
            return;
        };
        sh.mark(ctx, Phase::AgreementCoordination, t.op.id, u64::MAX);
        let me = sh.me();
        t.awaiting.clear();
        t.awaiting
            .extend(cohort_of(t.cohort.as_ref(), sh).filter(|&s| s != me));
        t.phase = DelPhase::Committing(TpcCoordinator::new(t.awaiting.iter().copied()));
        if t.awaiting.is_empty() {
            self.finish(sh, ctx, txn, true);
            return;
        }
        for &s in &t.awaiting {
            ctx.send(s, Wire::Proto(EulMsg::Prepare { txn }));
        }
    }

    fn finish(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EulMsg>, txn: TxnId, commit: bool) {
        let Some(mut t) = self.delegated.remove(&txn) else {
            return;
        };
        for s in cohort_of(t.cohort.as_ref(), sh) {
            if s != sh.me() {
                ctx.send(s, Wire::Proto(EulMsg::Decision { txn, commit }));
            }
        }
        let mut acks = std::mem::take(&mut t.awaiting);
        acks.clear();
        self.spare_acks.push(acks);
        self.apply_decision(sh, ctx, txn, commit);
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
        if commit || t.retries >= MAX_RETRIES {
            sh.reply(ctx, t.op.client, resp);
        } else {
            self.requeue.push((t.op, t.retries + 1));
            let backoff = SimDuration::from_ticks(400 + 150 * t.retries as u64);
            ctx.set_timer(backoff, RETRY_TICK);
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
            self.deliver_ack(sh, ctx, coord, joiner);
        }
        sh.try_retire(self, ctx);
    }

    /// Member side of an admission: confirm the view change once every
    /// transaction this site delegated under the *old* view has decided.
    fn begin_view_ack(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, EulMsg>,
        coord: NodeId,
        joiner: NodeId,
    ) {
        let wait: BTreeSet<TxnId> = self.delegated.keys().copied().collect();
        if wait.is_empty() {
            self.deliver_ack(sh, ctx, coord, joiner);
        } else {
            self.ack_wait = Some((coord, joiner, wait));
        }
    }

    fn deliver_ack(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, EulMsg>,
        coord: NodeId,
        joiner: NodeId,
    ) {
        if coord == sh.me() {
            self.note_ack(sh, ctx, joiner, sh.me());
        } else {
            ctx.send(coord, Wire::Proto(EulMsg::ViewAck { joiner }));
        }
    }

    /// Coordinator side: collect acks; the last one releases the Welcome.
    fn note_ack(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, EulMsg>,
        joiner: NodeId,
        member: NodeId,
    ) {
        let done = match &mut self.admitting {
            Some((j, wait)) if *j == joiner => {
                wait.remove(&member);
                wait.is_empty()
            }
            _ => false,
        };
        if done {
            self.admitting = None;
            sh.welcome(self, ctx, joiner);
        }
    }

    /// Replays the Exec/Decision traffic that raced a snapshot on top of
    /// it (value writes are idempotent when the snapshot already carries
    /// them).
    fn replay_held(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EulMsg>) {
        for (peer, m) in std::mem::take(&mut self.replay) {
            self.on_protocol_msg(sh, ctx, peer, m);
        }
    }

    /// Coordinator: (re)starts the ack round for `joiner` over the
    /// current view and announces the view change; the welcome goes out
    /// once every cohort member confirmed.
    fn announce_view(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EulMsg>, joiner: NodeId) {
        let members: Vec<NodeId> = sh
            .servers()
            .iter()
            .copied()
            .filter(|&n| n != joiner)
            .collect();
        for &n in &members {
            if n == sh.me() {
                self.last_admitted = Some(joiner);
                self.begin_view_ack(sh, ctx, n, joiner);
            } else {
                let grown = MemberMsg::ViewAdd {
                    servers: sh.servers().to_vec(),
                };
                ctx.send(n, Wire::Member(grown));
            }
        }
    }

    /// Commits or aborts the local tentative state and releases locks.
    /// Only a commit forgets `txn`'s delegate, which retries an abort.
    fn apply_decision(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, EulMsg>,
        txn: TxnId,
        commit: bool,
    ) {
        if self.tentative.remove(&txn) || sh.base.is_active(txn) {
            if !commit {
                sh.base.abort(txn);
            } else {
                sh.base.commit_and_note(txn);
            }
        }
        if commit {
            self.lock_owner.remove(&txn);
        }
        let granted = self.lm.release_all(txn);
        for (g, _, _) in granted {
            self.granted_locally(ctx, g);
        }
    }

    /// A queued lock request of `txn` became grantable at this site.
    fn granted_locally(&mut self, ctx: &mut Ctx<'_, EulMsg>, txn: TxnId) {
        if let Some(&(delegate, step)) = self.lock_owner.get(&txn) {
            ctx.send(delegate, Wire::Proto(EulMsg::LockGrant { txn, step }));
        }
    }

    /// A site (or the detector) wounded `victim`, for which we delegate.
    fn wound_delegated(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EulMsg>, victim: TxnId) {
        if self.delegated.contains_key(&victim) {
            self.wounds += 1;
            self.finish(sh, ctx, victim, false);
        }
    }

    fn run_detection(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EulMsg>) {
        self.probe_edges = self.lm.wait_for_edges();
        self.probe_answers = 1;
        for s in sh.peers() {
            ctx.send(s, Wire::Proto(EulMsg::ProbeReq));
        }
        self.maybe_resolve_deadlock(sh, ctx);
    }

    fn maybe_resolve_deadlock(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EulMsg>) {
        if self.probe_answers < sh.servers().len() {
            return;
        }
        // Union collected: this site's edges, then each peer's in arrival
        // order. Not sorted — the order picks between cycles that share a
        // node, and so the victim.
        if let Some(victim) = first_cycle(&self.probe_edges).and_then(|c| c.into_iter().max()) {
            for &s in sh.servers() {
                ctx.send(s, Wire::Proto(EulMsg::Wound { victim }));
            }
        }
        self.probe_answers = 0;
    }
}

impl Technique for Eul {
    type Msg = EulMsg;

    fn on_invoke(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EulMsg>, op: ClientOp) {
        if sh.catching_up() {
            return; // a delegate with a stale store would serve stale reads
        }
        // One delegation per transaction: a retry that reaches a site
        // whose lock table names another delegate goes there.
        match self.lock_owner.get(&global_txn(op.id)) {
            Some(&(d, _)) if d != sh.me() => ctx.send(d, Wire::Invoke(op)),
            _ if self.requeue.iter().any(|(o, _)| o.id == op.id) => {}
            _ => self.start_txn(sh, ctx, op, 0),
        }
    }

    fn on_protocol_msg(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, EulMsg>,
        from: NodeId,
        msg: EulMsg,
    ) {
        if sh.retired() {
            // A retired site relays just enough to keep delegates that
            // have not yet processed our ViewDrop from wedging: grant and
            // vote vacuously (every remaining site still serializes the
            // conflict); drop the rest, view acks too. (The shell
            // reroutes clients.)
            match msg {
                EulMsg::LockReq {
                    txn,
                    step,
                    delegate,
                    ..
                } => {
                    ctx.send(delegate, Wire::Proto(EulMsg::LockGrant { txn, step }));
                }
                EulMsg::Prepare { txn } => {
                    ctx.send(from, Wire::Proto(EulMsg::Vote { txn, yes: true }));
                }
                _ => {}
            }
            return;
        }
        if (sh.joining() || sh.catching_up())
            && matches!(msg, EulMsg::Exec { .. } | EulMsg::Decision { .. })
        {
            // Joining or catching up: keep granting locks, voting, and
            // answering probes so the group never wedges on us, but hold
            // writes and verdicts back until the snapshot is in place.
            self.replay.push((from, msg));
            return;
        }
        match msg {
            // The delegate's own request for an attempt it has since
            // aborted (a wound aborts here without loopback): taken, it
            // would re-lock under the reused id past an older waiter, or
            // re-record the purged attempt in the history.
            EulMsg::LockReq { txn, .. } | EulMsg::Exec { txn, .. }
                if from == sh.me() && !self.delegated.contains_key(&txn) => {}
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
                        ctx.send(delegate, Wire::Proto(EulMsg::LockGrant { txn, step }));
                    }
                    Acquire::Waiting { wounded } => {
                        for v in wounded {
                            self.wounds += 1;
                            if let Some(&(d, _)) = self.lock_owner.get(&v) {
                                ctx.send(d, Wire::Proto(EulMsg::Wound { victim: v }));
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
                    match t.phase {
                        DelPhase::Locking { step: s } if s == step => {
                            t.awaiting.retain(|&n| n != from);
                            t.awaiting.is_empty()
                        }
                        _ => false,
                    }
                };
                if ready {
                    self.step_granted(sh, ctx, txn);
                }
            }
            EulMsg::Wound { victim } => {
                self.wound_delegated(sh, ctx, victim);
            }
            EulMsg::Exec {
                txn,
                step,
                key,
                write,
                read_back,
            } => {
                sh.base.begin(txn);
                self.tentative.insert(txn);
                match write {
                    Some(v) => {
                        let v = sh.base.effective_value(v);
                        sh.base.write(txn, key, v);
                    }
                    None => {
                        let value = sh.base.read(txn, key);
                        if let Some(delegate) = read_back {
                            ctx.send(
                                delegate,
                                Wire::Proto(EulMsg::XReadVal {
                                    txn,
                                    step,
                                    key,
                                    value,
                                }),
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
                ctx.send(from, Wire::Proto(EulMsg::Vote { txn, yes: true }));
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
                    Some(TpcDecision::Commit) => self.finish(sh, ctx, txn, true),
                    Some(TpcDecision::Abort) => self.finish(sh, ctx, txn, false),
                    None => {}
                }
            }
            EulMsg::Decision { txn, commit } => {
                if commit {
                    sh.answered_elsewhere(op_of_txn(txn)); // drop a late retry
                }
                self.apply_decision(sh, ctx, txn, commit);
            }
            EulMsg::ProbeReq => {
                let edges = self.lm.wait_for_edges();
                ctx.send(from, Wire::Proto(EulMsg::ProbeEdges { edges }));
            }
            EulMsg::ProbeEdges { edges } => {
                self.probe_edges.extend(edges);
                self.probe_answers += 1;
                self.maybe_resolve_deadlock(sh, ctx);
            }
            EulMsg::ViewAck { joiner } => self.note_ack(sh, ctx, joiner, from),
        }
    }

    fn on_protocol_timer(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EulMsg>, tag: u64) {
        match tag {
            DETECT_TICK => {
                self.run_detection(sh, ctx);
                ctx.set_timer(self.detect_every, DETECT_TICK);
            }
            RETRY_TICK => {
                let pending = std::mem::take(&mut self.requeue);
                for (op, retries) in pending {
                    self.start_txn(sh, ctx, op, retries);
                }
            }
            _ => {}
        }
    }

    fn on_start(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EulMsg>) {
        // A cold joiner grants locks and votes from the moment the first
        // ViewAdd lands the group on it, but never runs the detector
        // before it is welcomed.
        if !sh.joining() && self.policy == DeadlockPolicy::Detect && sh.base.site == 0 {
            ctx.set_timer(self.detect_every, DETECT_TICK);
        }
    }

    /// Admission with a barrier: the welcome snapshot must wait until
    /// every cohort member has applied the view change *and* decided the
    /// transactions it delegated under the old view (their Execs missed
    /// the joiner).
    fn admit(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EulMsg>, joiner: NodeId) {
        match &self.admitting {
            // One admission at a time; this joiner retries.
            Some((j, _)) if *j != joiner => return,
            // Same joiner retrying while acks are outstanding: a cohort
            // member may have crashed and lost its pending ack — re-issue
            // the view change (drained members re-ack immediately,
            // duplicates are no-ops).
            Some(_) => {}
            // Re-admission of a known member (lost Welcome, or we crashed
            // after welcoming) restarts the ack round so the fresh
            // snapshot again waits for every cohort's old-view
            // transactions.
            None => {
                sh.add_member(self, joiner);
                let cohort = sh
                    .servers()
                    .iter()
                    .copied()
                    .filter(|&n| n != joiner)
                    .collect();
                self.admitting = Some((joiner, cohort));
            }
        }
        self.announce_view(sh, ctx, joiner);
    }

    fn view_added(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, EulMsg>,
        from: NodeId,
        servers: &[NodeId],
    ) {
        let newcomer = servers
            .iter()
            .copied()
            .find(|n| !sh.servers().contains(n) && (!sh.retired() || *n != sh.me()))
            .or(self.last_admitted);
        if sh.retired() {
            // We already left; ack vacuously so a join is never wedged on
            // a departed cohort member (our ViewDrop may still be in
            // flight toward the coordinator).
            if let Some(j) = newcomer {
                ctx.send(from, Wire::Proto(EulMsg::ViewAck { joiner: j }));
            }
            return;
        }
        sh.install_view(self, servers);
        if let Some(j) = newcomer {
            self.last_admitted = Some(j);
            self.begin_view_ack(sh, ctx, from, j);
        }
    }

    fn welcome_state(&mut self, sh: &mut Shell, _joiner: NodeId) -> (Option<Transfer>, u64, u64) {
        // All-site locking keeps no redo log, so a committed snapshot
        // (tentative state rolled back) is the whole transfer; new-view
        // transactions reach the joiner through its buffered
        // Exec/Decision replay.
        (Some(sh.base.committed_snapshot(0)), 0, 0)
    }

    fn welcomed(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, EulMsg>,
        transfer: Option<&Transfer>,
        _pos: u64,
        _gpos: u64,
    ) {
        if let Some(t) = transfer {
            sh.base.install_transfer(t);
        }
        self.replay_held(sh, ctx);
        sh.base.recovery.complete(ctx.now().ticks());
    }

    fn member_left(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, EulMsg>,
        node: NodeId,
        _was_first: bool,
    ) {
        // In-flight grants and votes the drained site still owes keep
        // flowing from its retired relay, so no delegate bookkeeping
        // needs rewiring. A pending admission treats the departure as an
        // implicit ack.
        if !sh.retired() {
            if let Some((joiner, _)) = self.admitting {
                self.note_ack(sh, ctx, joiner, node);
            }
        }
    }

    /// Every transaction this site delegates has decided — its 2PC is
    /// the only thing that releases the cohort's locks. Grants and votes
    /// owed to *other* delegates keep flowing from the retired relay, so
    /// they need no draining.
    fn quiesced(&self, _sh: &Shell) -> bool {
        self.delegated.is_empty() && self.requeue.is_empty()
    }

    /// Fail-stop: volatile state dies with the process. Lock tables,
    /// delegate bookkeeping and tentative writes are lost; only the
    /// committed store survives. Without this amnesia a recovered site
    /// would still "hold" locks for transactions that finished while it
    /// was down — the 2PC decision that releases them was dropped — and
    /// every later conflicting transaction would queue behind them
    /// forever (wound-wait never wounds an older phantom holder).
    fn crashed(&mut self, sh: &mut Shell) {
        let mut active: Vec<TxnId> = self
            .tentative
            .iter()
            .copied()
            .chain(self.delegated.keys().copied()) // sorted-below
            .collect();
        active.sort_unstable(); // set iteration order is unspecified
        for txn in active {
            sh.base.rollback(txn);
        }
        self.tentative.clear();
        self.delegated.clear();
        self.requeue.clear();
        self.lock_owner.clear();
        self.lm = LockManager::with_keyspace(self.policy, sh.base.keyspace());
        self.probe_edges.clear();
        self.probe_answers = 0;
        // Pending membership acks are volatile too; the joiner's JoinReq
        // retry re-issues the view change and re-collects them.
        self.admitting = None;
        self.ack_wait = None;
    }

    /// `crashed` already dropped the volatile state; what remains is
    /// closing the gap in committed state via a peer snapshot — all-site
    /// locking keeps no redo log to replay, and after a volume restore no
    /// stream or cursor exists to rewind either.
    fn rejoin(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EulMsg>) {
        // Timers do not survive a crash: re-arm the deadlock detector.
        if self.policy == DeadlockPolicy::Detect && sh.base.site == 0 {
            ctx.set_timer(self.detect_every, DETECT_TICK);
        }
        self.replay.clear();
        if !sh.pull_state(ctx, None) {
            sh.base.recovery.complete(ctx.now().ticks());
        }
    }

    fn extra_stats(&self) -> ExtraStats {
        ExtraStats {
            reconciliations: 0,
            wounds: self.wounds,
            spilled_locks: self.lm.spilled() as u64,
        }
    }
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
    ) -> (World<Wire<EulMsg>>, Vec<NodeId>, Vec<NodeId>) {
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
            .shell
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<EulServer>(s)
                    .shell
                    .base
                    .store
                    .fingerprint(),
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
            .shell
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<EulServer>(s)
                    .shell
                    .base
                    .store
                    .fingerprint(),
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
            merged.merge(&world.actor_ref::<EulServer>(s).shell.base.history);
        }
        assert!(merged.check_one_copy_serializable().is_ok());
        let fp0 = world
            .actor_ref::<EulServer>(servers[0])
            .shell
            .base
            .store
            .fingerprint();
        assert_eq!(
            world
                .actor_ref::<EulServer>(servers[1])
                .shell
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
            .shell
            .base
            .store
            .fingerprint();
        assert_eq!(
            world
                .actor_ref::<EulServer>(servers[1])
                .shell
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
            s.tech.lm.acquire(t1, Key(0), LockMode::Exclusive),
            Acquire::Granted
        ));
        s.tech.lock_owner.insert(t1, (NodeId::new(0), 0));
        repl_sim::Actor::on_crash(&mut s, SimTime::from_ticks(100));
        // A fresh transaction gets the lock immediately: no phantom holder.
        let t2 = global_txn(crate::op::OpId(2));
        assert!(matches!(
            s.tech.lm.acquire(t2, Key(0), LockMode::Exclusive),
            Acquire::Granted
        ));
        assert!(s.tech.lock_owner.is_empty());
        assert!(s.tech.delegated.is_empty());
        assert!(s.tech.tentative.is_empty());
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
                .shell
                .base
                .store
                .fingerprint(),
            world
                .actor_ref::<EulServer>(servers[1])
                .shell
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
            merged.merge(&world.actor_ref::<EulServer>(s).shell.base.history);
        }
        merged.check_one_copy_serializable().expect("1SR violated");
        let fp0 = world
            .actor_ref::<EulServer>(servers[0])
            .shell
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<EulServer>(s)
                    .shell
                    .base
                    .store
                    .fingerprint(),
                fp0
            );
        }
    }

    #[test]
    fn a_catching_up_replica_starts_no_delegation_for_a_client_invoke() {
        use crate::op::OpId;
        use crate::protocols::replica::tests::ScriptedPeer;
        use crate::protocols::replica::Status;
        type Peer = ScriptedPeer<Wire<EulMsg>>;
        let (me, other) = (NodeId::new(0), NodeId::new(1));
        let invoke = |id: u64| {
            let txn = write(id, 1);
            Wire::Invoke(ClientOp {
                id: OpId(id),
                client: other,
                txn,
            })
        };
        let mut world: World<Wire<EulMsg>> = World::new(SimConfig::new(3));
        let policy = DeadlockPolicy::WoundWait;
        let exec = ExecutionMode::Deterministic;
        world.add_actor(Box::new(EulServer::new(
            0,
            me,
            vec![me, other],
            16,
            exec,
            policy,
        )));
        // The only peer never answers a StateReq: once recovered, the
        // server stays catching up.
        let script = vec![(100, me, invoke(1)), (3_000, me, invoke(2))];
        world.add_actor(Box::new(Peer {
            script,
            got: Vec::new(),
        }));
        world.schedule_crash(SimTime::from_ticks(1_000), me);
        world.schedule_recover(SimTime::from_ticks(2_000), me);
        world.start();
        world.run_until(SimTime::from_ticks(10_000));
        let srv = world.actor_ref::<EulServer>(me);
        assert_eq!(srv.shell.status(), Status::CatchingUp);
        assert!(srv.tech.delegated.is_empty());
        let locked: Vec<TxnId> = (world.actor_ref::<Peer>(other).got.iter())
            .filter_map(|(_, m)| match m {
                Wire::Proto(EulMsg::LockReq { txn, .. }) => Some(*txn),
                _ => None,
            })
            .collect();
        assert_eq!(locked, vec![global_txn(OpId(1))], "only before the crash");
    }

    /// A cold joiner that grants and votes like a joining site, asks the
    /// coordinator for admission at each of `asks`, and logs when every
    /// `Welcome` and 2PC `Decision` lands.
    struct Joiner {
        asks: Vec<u64>,
        log: Vec<(u64, &'static str)>,
    }

    impl repl_sim::Actor<Wire<EulMsg>> for Joiner {
        fn on_start(&mut self, ctx: &mut Ctx<'_, EulMsg>) {
            for &at in &self.asks {
                ctx.set_timer(SimDuration::from_ticks(at), 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, EulMsg>, _t: repl_sim::TimerId, _tag: u64) {
            ctx.send(NodeId::new(0), Wire::Member(MemberMsg::JoinReq));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, EulMsg>, from: NodeId, msg: Wire<EulMsg>) {
            let now = ctx.now().ticks();
            match msg {
                Wire::Member(MemberMsg::Welcome { .. }) => self.log.push((now, "welcome")),
                Wire::Proto(EulMsg::Decision { .. }) => self.log.push((now, "decision")),
                Wire::Proto(EulMsg::LockReq {
                    txn,
                    step,
                    delegate,
                    ..
                }) => ctx.send(delegate, Wire::Proto(EulMsg::LockGrant { txn, step })),
                Wire::Proto(EulMsg::Prepare { txn }) => {
                    ctx.send(from, Wire::Proto(EulMsg::Vote { txn, yes: true }));
                }
                _ => {}
            }
        }
        repl_sim::impl_as_any!();
    }

    #[test]
    fn the_admission_barrier_welcomes_once_after_the_old_view_decides() {
        use crate::op::OpId;
        use crate::protocols::replica::tests::ScriptedPeer;
        type Peer = ScriptedPeer<Wire<EulMsg>>;
        let (coord, member, client) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let server = |site: u32, group: Vec<NodeId>| {
            let (me, exec) = (NodeId::new(site), ExecutionMode::Deterministic);
            Box::new(EulServer::new(
                site,
                me,
                group,
                16,
                exec,
                DeadlockPolicy::WoundWait,
            ))
        };
        // The member delegates a ten-step transaction at 100; the joiner
        // asks at 600, while it runs, and again at 900.
        let steps = (0..10).map(|k| OpTemplate::Write(Key(k), Value(1)));
        let op = ClientOp {
            id: OpId(1),
            client,
            txn: multi(steps.collect()),
        };
        let mut world: World<Wire<EulMsg>> = World::new(SimConfig::new(12));
        world.add_actor(server(0, vec![coord, member]));
        world.add_actor(server(1, vec![coord, member]));
        world.add_actor(Box::new(Peer {
            script: vec![(100, member, Wire::Invoke(op))],
            got: Vec::new(),
        }));
        let joiner = world.add_actor(Box::new(Joiner {
            asks: vec![600, 900],
            log: Vec::new(),
        }));
        world.start();
        world.run_until(SimTime::from_ticks(20_000));
        let replied = world
            .actor_ref::<Peer>(client)
            .got
            .iter()
            .any(|(_, m)| matches!(m, Wire::Reply(r) if r.op == OpId(1) && r.committed));
        assert!(replied, "the old-view transaction commits");
        let log: Vec<&str> = (world.actor_ref::<Joiner>(joiner).log.iter())
            .map(|&(_, what)| what)
            .collect();
        // The member's decision reaches the joiner before the welcome
        // does, and the retried request re-announces the view but
        // welcomes nobody twice.
        assert_eq!(log, ["decision", "welcome"]);
        let c = world.actor_ref::<EulServer>(coord);
        assert_eq!(c.shell.servers(), [coord, member, joiner]);
        assert!(c.tech.admitting.is_none());

        // A retired member acks a view change vacuously and installs
        // nothing.
        let mut world: World<Wire<EulMsg>> = World::new(SimConfig::new(13));
        let (coord, retired) = (NodeId::new(0), NodeId::new(1));
        let grown = MemberMsg::ViewAdd {
            servers: vec![coord, retired, NodeId::new(2)],
        };
        world.add_actor(Box::new(Peer {
            script: vec![(3_000, retired, Wire::Member(grown))],
            got: Vec::new(),
        }));
        world.add_actor(server(1, vec![coord, retired]));
        world.schedule_drain(SimTime::from_ticks(1_000), retired);
        world.start();
        world.run_until(SimTime::from_ticks(5_000));
        let r = world.actor_ref::<EulServer>(retired);
        assert!(r.shell.retired());
        assert_eq!(r.shell.servers(), [coord]);
        let acks: Vec<NodeId> = (world.actor_ref::<Peer>(coord).got.iter())
            .filter_map(|(_, m)| match m {
                Wire::Proto(EulMsg::ViewAck { joiner }) => Some(*joiner),
                _ => None,
            })
            .collect();
        assert_eq!(acks, vec![NodeId::new(2)]);
    }

    /// A world of one scripted peer at node 0 and Eul servers at nodes
    /// 1..=`servers`, the view. The peer plays the client and, where a
    /// test needs one, a foreign delegate or a wounding site.
    fn scripted(servers: u32, script: Vec<(u64, NodeId, Wire<EulMsg>)>) -> World<Wire<EulMsg>> {
        use crate::protocols::replica::tests::ScriptedPeer;
        let view: Vec<NodeId> = (1..=servers).map(NodeId::new).collect();
        let mut world: World<Wire<EulMsg>> = World::new(SimConfig::new(17));
        world.add_actor(Box::new(ScriptedPeer {
            script,
            got: Vec::new(),
        }));
        for i in 1..=servers {
            world.add_actor(Box::new(EulServer::new(
                i,
                NodeId::new(i),
                view.clone(),
                16,
                ExecutionMode::Deterministic,
                DeadlockPolicy::WoundWait,
            )));
        }
        world
    }

    fn invoke(id: u64, key: u64) -> Wire<EulMsg> {
        let client = NodeId::new(0);
        let (id, txn) = (crate::op::OpId(id), write(key, 1));
        Wire::Invoke(ClientOp { id, client, txn })
    }

    /// What the scripted peer at node 0 received.
    fn peer_got(world: &World<Wire<EulMsg>>) -> &[(u64, Wire<EulMsg>)] {
        type Peer = crate::protocols::replica::tests::ScriptedPeer<Wire<EulMsg>>;
        &world.actor_ref::<Peer>(NodeId::new(0)).got
    }

    #[test]
    fn an_own_lock_request_that_lands_after_its_wound_takes_no_lock() {
        // The delegate at node 1 sends its own LockReq by loopback; a
        // Wound right behind the invoke aborts the attempt before that
        // request lands. The retry waits out a 400-tick backoff.
        let txn = global_txn(crate::op::OpId(1));
        let victim = Wire::Proto(EulMsg::Wound { victim: txn });
        let (d, at) = (NodeId::new(1), SimTime::from_ticks(500));
        let mut world = scripted(1, vec![(100, d, invoke(1, 0)), (101, d, victim)]);
        world.start();
        world.run_until(at);
        let srv = world.actor_ref::<EulServer>(d);
        assert!(srv
            .tech
            .requeue
            .iter()
            .any(|(o, _)| global_txn(o.id) == txn));
        assert!(
            !srv.tech.lm.holds(txn, Key(0)),
            "a stale request re-took the lock"
        );
    }

    #[test]
    fn a_retry_at_a_sibling_reaches_the_delegate_and_starts_no_second_delegation() {
        use crate::op::OpId;
        // The peer at node 0 delegates op 2 against node 1, where the
        // older op 1 holds key 0: op 2 queues. The client's retry of op 2
        // reaches node 1 while it queues, and again after a wound aborted
        // the attempt (the delegate will retry it).
        let (older, txn) = (global_txn(OpId(1)), global_txn(OpId(2)));
        assert!(older < txn);
        let (peer, me) = (NodeId::new(0), NodeId::new(1));
        let lock = |txn| {
            let (step, key, exclusive, delegate) = (0, Key(0), true, peer);
            Wire::Proto(EulMsg::LockReq {
                txn,
                step,
                key,
                exclusive,
                delegate,
            })
        };
        let abort = Wire::Proto(EulMsg::Decision { txn, commit: false });
        let script = vec![
            (100, me, lock(older)),
            (101, me, lock(txn)),
            (300, me, invoke(2, 0)),
            (500, me, abort),
            (700, me, invoke(2, 0)),
        ];
        let mut world = scripted(1, script);
        world.start();
        world.run_until(SimTime::from_ticks(2_000));
        let srv = world.actor_ref::<EulServer>(me);
        assert!(srv.tech.delegated.is_empty(), "a second delegation started");
        let got = peer_got(&world);
        let forwarded = got
            .iter()
            .filter(|(_, m)| matches!(m, Wire::Invoke(op) if op.id == OpId(2)));
        assert_eq!(forwarded.count(), 2, "both retries reach the delegate");
    }

    #[test]
    fn a_retry_after_the_commit_decision_is_dropped() {
        // Node 1 delegates op 1 (a write of key 5) and commits it; the
        // client's retry reaches node 2 after the commit Decision did.
        let (d, sibling) = (NodeId::new(1), NodeId::new(2));
        let script = vec![(100, d, invoke(1, 5)), (5_000, sibling, invoke(1, 5))];
        let mut world = scripted(3, script);
        world.start();
        world.run_until(SimTime::from_ticks(20_000));
        let replies = peer_got(&world)
            .iter()
            .filter(|(_, m)| matches!(m, Wire::Reply(r) if r.committed));
        assert_eq!(replies.count(), 1);
        for s in 1..=3 {
            let srv = world.actor_ref::<EulServer>(NodeId::new(s));
            let v = srv.shell.base.store.read(Key(5)).expect("written");
            assert_eq!(v.version, 1, "node {s} applied the write twice");
        }
    }

    /// Node 0 in a view with the delegate at node 1: the client of op 1,
    /// which it submits there at 100 and retries once at `retry_at`, and
    /// the delegate's one other site, which wounds every lock request if
    /// `wound`, else loses the first and grants the rest, and votes yes.
    struct Participant {
        wound: bool,
        retry_at: u64,
        replies: Vec<Response>,
        lock_reqs: usize,
    }

    /// Runs the participant at node 0 against the delegate at node 1
    /// until `until`.
    fn with_participant(wound: bool, retry_at: u64, until: u64) -> World<Wire<EulMsg>> {
        let mut world: World<Wire<EulMsg>> = World::new(SimConfig::new(19));
        let view = vec![NodeId::new(0), NodeId::new(1)];
        let (replies, lock_reqs) = (Vec::new(), 0);
        let site = Participant {
            wound,
            retry_at,
            replies,
            lock_reqs,
        };
        world.add_actor(Box::new(site));
        let (exec, policy) = (ExecutionMode::Deterministic, DeadlockPolicy::WoundWait);
        world.add_actor(Box::new(EulServer::new(1, view[1], view, 16, exec, policy)));
        world.start();
        world.run_until(SimTime::from_ticks(until));
        world
    }

    impl repl_sim::Actor<Wire<EulMsg>> for Participant {
        fn on_start(&mut self, ctx: &mut Ctx<'_, EulMsg>) {
            ctx.set_timer(SimDuration::from_ticks(100), 0);
            ctx.set_timer(SimDuration::from_ticks(self.retry_at), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, EulMsg>, _t: repl_sim::TimerId, _tag: u64) {
            ctx.send(NodeId::new(1), invoke(1, 0));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, EulMsg>, from: NodeId, msg: Wire<EulMsg>) {
            match msg {
                Wire::Reply(r) => self.replies.push(r),
                Wire::Proto(EulMsg::LockReq { txn, step, .. }) => {
                    self.lock_reqs += 1;
                    if self.wound {
                        ctx.send(from, Wire::Proto(EulMsg::Wound { victim: txn }));
                    } else if self.lock_reqs > 1 {
                        ctx.send(from, Wire::Proto(EulMsg::LockGrant { txn, step }));
                    }
                }
                Wire::Proto(EulMsg::Prepare { txn }) => {
                    ctx.send(from, Wire::Proto(EulMsg::Vote { txn, yes: true }));
                }
                _ => {}
            }
        }
        repl_sim::impl_as_any!();
    }

    #[test]
    fn a_retry_at_the_delegate_runs_a_stalled_attempt_again() {
        // The participant lost the first lock request, as a site that
        // crashed would: the attempt waits until the client's retry makes
        // the delegate abort it and run it again.
        let world = with_participant(false, 5_000, 20_000);
        let site = world.actor_ref::<Participant>(NodeId::new(0));
        assert_eq!(site.lock_reqs, 2);
        let verdicts: Vec<bool> = site.replies.iter().map(|r| r.committed).collect();
        assert_eq!(verdicts, [true]);
        let d = world.actor_ref::<EulServer>(NodeId::new(1));
        assert!(d.tech.delegated.is_empty() && d.tech.requeue.is_empty());
    }

    #[test]
    fn the_last_abort_is_answered_from_the_client_table() {
        // Every attempt is wounded: after MAX_RETRIES retries the delegate
        // answers an abort, and the client's retry gets that answer again
        // instead of a fresh round of attempts.
        let world = with_participant(true, 200_000, 400_000);
        let site = world.actor_ref::<Participant>(NodeId::new(0));
        assert_eq!(
            site.lock_reqs,
            MAX_RETRIES as usize + 1,
            "one request per attempt"
        );
        let verdicts: Vec<bool> = site.replies.iter().map(|r| r.committed).collect();
        assert_eq!(
            verdicts,
            [false, false],
            "the retry is answered, not run again"
        );
        let d = world.actor_ref::<EulServer>(NodeId::new(1));
        assert!(d.tech.delegated.is_empty());
    }
}
