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
//! The protocol is *blocking* while a participant is down (the paper,
//! Section 2.1: databases accept blocking protocols) — all-site locking
//! cannot make progress without every replica. Crashes follow fail-stop
//! semantics: volatile state (lock tables, delegate bookkeeping,
//! tentative writes) is lost, so a recovered site grants locks afresh
//! rather than blocking behind phantom holders, and client re-submission
//! re-drives stalled transactions once the site is back.

use std::collections::{BTreeSet, HashMap, HashSet};

use repl_db::{
    first_cycle, Acquire, DeadlockPolicy, Key, Keyspace, LockManager, LockMode, TpcCoordinator,
    TpcDecision, Transfer, TxnId, Value,
};
use repl_sim::{Message, NodeId, SimDuration};
use repl_workload::OpTemplate;

use crate::op::{ClientOp, Response};
use crate::phase::Phase;
use crate::protocols::common::{global_txn, ExecutionMode};
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

/// Eager update everywhere with distributed locking: the delegate locks
/// and executes each operation at all replicas, then runs a 2PC.
pub struct Eul {
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

impl Eul {
    fn start_txn(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EulMsg>, op: ClientOp, retries: u32) {
        let txn = global_txn(op.id);
        if self.delegated.contains_key(&txn) {
            return;
        }
        sh.base.begin(txn);
        // Sharded: the participant set is the union of the touched
        // groups' members (dests is sorted, groups are contiguous and
        // ascending, so the union is sorted too).
        let cohort = sh.shard().map(|sc| {
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
        // Sharded: the step locks at the key-owning group only (that is
        // the whole point of partial replication — foreign groups never
        // see this key). Read-one/write-all: a read locks only the
        // local copy.
        let targets: Vec<NodeId> = if let Some(sc) = sh.shard() {
            sc.group_of(sc.map.shard_of(key))
        } else if self.rowa && !exclusive {
            vec![sh.me()]
        } else {
            sh.servers().to_vec()
        };
        t.phase = DelPhase::Locking {
            step: step as u32,
            awaiting: targets.iter().copied().collect(),
        };
        for &s in &targets {
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
        // Sharded: execute at the key-owning group; a *foreign* read also
        // asks one member (the owning group's first) to send the observed
        // value back, because the delegate's own store does not replicate
        // the key. Reads under read-one/write-all execute only locally.
        let (exec_targets, foreign): (Vec<NodeId>, bool) = if let Some(sc) = sh.shard() {
            let gid = sc.map.shard_of(key);
            (sc.group_of(gid), gid != sc.my_gid)
        } else if self.rowa && write.is_none() {
            (vec![sh.me()], false)
        } else {
            (sh.servers().to_vec(), false)
        };
        for &s in &exec_targets {
            let read_back = if foreign && write.is_none() && s == exec_targets[0] {
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
            if let Some(t) = self.delegated.get_mut(&txn) {
                t.reads.push((step as u32, key, v));
            }
        }
        self.request_lock(sh, ctx, txn);
    }

    fn start_commit(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EulMsg>, txn: TxnId) {
        let me = sh.me();
        let others: Vec<NodeId> = {
            let Some(t) = self.delegated.get(&txn) else {
                return;
            };
            t.cohort
                .as_deref()
                .unwrap_or(sh.servers())
                .iter()
                .copied()
                .filter(|&s| s != me)
                .collect()
        };
        let Some(t) = self.delegated.get_mut(&txn) else {
            return;
        };
        sh.mark(ctx, Phase::AgreementCoordination, t.op.id, u64::MAX);
        let mut coord = TpcCoordinator::new(others.clone());
        coord.start();
        t.phase = DelPhase::Committing(coord);
        if others.is_empty() {
            self.finish(sh, ctx, txn, true);
            return;
        }
        for s in others {
            ctx.send(s, Wire::Proto(EulMsg::Prepare { txn }));
        }
    }

    fn finish(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EulMsg>, txn: TxnId, commit: bool) {
        let Some(mut t) = self.delegated.remove(&txn) else {
            return;
        };
        let audience = t.cohort.take().unwrap_or_else(|| sh.servers().to_vec());
        for &s in &audience {
            if s != sh.me() {
                ctx.send(s, Wire::Proto(EulMsg::Decision { txn, commit }));
            }
        }
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
        if commit {
            sh.base.remember(&resp);
            ctx.send(t.op.client, Wire::Reply(resp));
        } else if t.retries < MAX_RETRIES {
            self.requeue.push((t.op, t.retries + 1));
            let backoff = SimDuration::from_ticks(400 + 150 * t.retries as u64);
            ctx.set_timer(backoff, RETRY_TICK);
        } else {
            ctx.send(t.op.client, Wire::Reply(resp));
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
            ctx.send(coord, Wire::Member(MemberMsg::ViewAck { joiner }));
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
        self.lock_owner.remove(&txn);
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
        if sh.answered_before_join(op.id) {
            // Answered by the join donor before our snapshot: re-running
            // the whole transaction would duplicate it in the merged
            // history; the donor's cache serves the retry.
            return;
        }
        let txn = global_txn(op.id);
        if !self.delegated.contains_key(&txn) && !self.requeue.iter().any(|(o, _)| o.id == op.id) {
            self.start_txn(sh, ctx, op, 0);
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
            // conflict); drop the rest. (The shell reroutes clients.)
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
                    match &mut t.phase {
                        DelPhase::Locking { step: s, awaiting } if *s == step => {
                            awaiting.remove(&from);
                            awaiting.is_empty()
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

    fn can_admit(&self, sh: &Shell) -> bool {
        !sh.rerouting()
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
                ctx.send(from, Wire::Member(MemberMsg::ViewAck { joiner: j }));
            }
            return;
        }
        sh.install_view(self, servers);
        if let Some(j) = newcomer {
            self.last_admitted = Some(j);
            self.begin_view_ack(sh, ctx, from, j);
        }
    }

    fn view_acked(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, EulMsg>,
        from: NodeId,
        joiner: NodeId,
    ) {
        if !sh.retired() {
            self.note_ack(sh, ctx, joiner, from);
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

    /// Per-step lock/exec rounds go to the key-owning group and the
    /// closing 2PC spans the union of the touched groups. Wound-wait ages
    /// are global (`TxnId` order), so deadlocks across groups resolve the
    /// same way as local ones.
    fn enable_cross_shard(&mut self, _sh: &mut Shell) {
        assert_eq!(
            self.policy,
            DeadlockPolicy::WoundWait,
            "cross-shard locking needs a global deadlock order (wound-wait)"
        );
        assert!(!self.rowa, "rowa is incompatible with cross-shard locking");
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
}
