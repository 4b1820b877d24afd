//! Eager primary copy replication (paper §4.3 Fig. 7; §5.2 Fig. 12).
//!
//! All updates execute first at the primary; the resulting log records
//! propagate to the secondaries and a 2PC decides the commit before the
//! client hears anything. Skeleton: `RE EX AC END`; with multi-operation
//! transactions the EX/AC pair loops per operation before the final 2PC
//! (`RE EX AC EX AC … END`, Fig. 12).
//!
//! Read-only transactions may execute at any site (the paper: "reading
//! transactions can be performed on any site and will always see the
//! latest version").
//!
//! Fault tolerance is the paper's hot-standby model: the primary is a
//! single point of failure, and takeover is by rank once the shell's
//! failure detector suspects it (the paper's "operator intervention",
//! mechanised): the primary is the lowest-ranked unsuspected server.
//! Active transactions at the failed primary abort; clients re-submit.
//! A recovered server stays silent — no heartbeats, so it is left out of
//! every 2PC cohort — until its catch-up lands.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use repl_db::{
    Acquire, DeadlockPolicy, DurableRestore, Key, Keyspace, LockManager, LockMode, RedoLog,
    TpcCoordinator, TpcDecision, Transfer, TxnId, Value, WriteRecord, WriteSet, WriteSetRef,
};
use repl_gcs::BatchConfig;
use repl_sim::{Message, NodeId, SimDuration};
use repl_workload::OpTemplate;

use crate::op::{ClientOp, OpId, Response};
use crate::phase::Phase;
use crate::protocols::common::{global_txn, op_of_txn, ExecutionMode};
use crate::protocols::replica::{Ctx, ExtraStats, MemberMsg, Replica, Shell, Technique, Wire};

/// Coordination traffic of eager primary copy replication.
#[derive(Debug, Clone)]
pub enum EagerPrimaryMsg {
    /// Primary → secondaries: one operation's log records (multi-op loop).
    Propagate {
        /// The transaction.
        txn: TxnId,
        /// Which operation of the transaction this is.
        step: u32,
        /// The log records of this step (the fan-out copies the 16-byte
        /// handle per leg).
        ws: WriteSetRef,
    },
    /// Secondary → primary: step applied.
    PropAck {
        /// The transaction.
        txn: TxnId,
        /// The acknowledged step.
        step: u32,
    },
    /// Primary → secondaries: prepare to commit (carries the full
    /// writeset for single-operation transactions).
    Prepare {
        /// The transaction.
        txn: TxnId,
        /// The full writeset (empty if already propagated step-wise).
        ws: WriteSetRef,
        /// The response, recorded by secondaries for retried clients.
        resp: Response,
    },
    /// Secondary → primary: vote.
    Vote {
        /// The transaction.
        txn: TxnId,
        /// Yes or no.
        yes: bool,
    },
    /// Primary → secondaries: global decision.
    Decision {
        /// The transaction.
        txn: TxnId,
        /// Commit or abort.
        commit: bool,
    },
    /// Primary → secondaries: one batching window's worth of commit
    /// decisions, flushed together with a single group-committed log
    /// force at the primary.
    DecisionBatch {
        /// (transaction, commit?) in decision order.
        entries: Arc<Vec<(TxnId, bool)>>,
    },
}

impl Message for EagerPrimaryMsg {
    fn wire_size(&self) -> usize {
        match self {
            EagerPrimaryMsg::Propagate { ws, .. } => 24 + ws.wire_size(),
            EagerPrimaryMsg::PropAck { .. } => 24,
            EagerPrimaryMsg::Prepare { ws, resp, .. } => 16 + ws.wire_size() + resp.wire_size(),
            EagerPrimaryMsg::Vote { .. } => 24,
            EagerPrimaryMsg::Decision { .. } => 24,
            EagerPrimaryMsg::DecisionBatch { entries } => 8 + 24 * entries.len(),
        }
    }
}

/// Where an in-flight primary-side transaction stands.
#[derive(Debug)]
enum TxnPhase {
    /// Waiting for a lock.
    LockWait,
    /// Waiting for the transaction's `awaiting` acks for `step`.
    PropWait { step: u32 },
    /// 2PC in progress.
    Committing(TpcCoordinator<NodeId>),
}

#[derive(Debug)]
struct PrimaryTxn {
    op: ClientOp,
    step: usize,
    reads: Vec<(Key, Value)>,
    phase: TxnPhase,
    /// The secondaries a propagation step still waits for; at commit,
    /// the 2PC cohort, moved into the coordinator. One list per
    /// transaction, taken from and returned to `EagerPrimary::spare_acks`.
    awaiting: Vec<NodeId>,
    retries: u32,
}

const MAX_WOUND_RETRIES: u32 = 25;
const DECISION_FLUSH_TAG: u64 = 0;

/// Eager primary copy: locking and execution at the primary, log
/// propagation and 2PC to the secondaries.
pub struct EagerPrimary {
    lm: LockManager,
    /// Primary-side in-flight transactions.
    inflight: HashMap<TxnId, PrimaryTxn>,
    /// Ack lists of finished transactions, reused by the next.
    spare_acks: Vec<Vec<NodeId>>,
    /// Scratch for the writeset one propagation step or Prepare interns.
    step_ws: WriteSet,
    /// Ops wounded and awaiting re-execution.
    requeue: VecDeque<(ClientOp, u32)>,
    /// Secondary-side tentative transactions (undo-able until decision).
    tentative: HashMap<TxnId, (OpId, Option<Response>)>,
    /// Primary-side redo log (public for post-run inspection); with
    /// batching on, a window's commits share one group-commit force.
    pub wal: RedoLog,
    batching: BatchConfig,
    /// Commit decisions staged during the current batching window.
    staged_decisions: Vec<(TxnId, bool)>,
    /// Client acks deferred until the window's log force.
    staged_replies: Vec<(NodeId, Response)>,
    flush_armed: bool,
    /// Filling a decision gap noticed after rejoining; participates
    /// normally while the suffix is in flight.
    resync: bool,
    /// Transactions wounded at this primary (spared ones excluded).
    wounds: u64,
}

/// An eager-primary-copy server.
pub type EagerPrimaryServer = Replica<EagerPrimary>;

impl EagerPrimaryServer {
    /// Creates server `site` of `servers`; the initial primary is rank 0.
    pub fn new(
        site: u32,
        me: NodeId,
        servers: Vec<NodeId>,
        keyspace: impl Into<Keyspace>,
        exec: ExecutionMode,
    ) -> Self {
        let ks = keyspace.into();
        let tech = EagerPrimary {
            lm: LockManager::with_keyspace(DeadlockPolicy::WoundWait, ks),
            inflight: HashMap::new(),
            spare_acks: Vec::new(),
            step_ws: WriteSet::empty(TxnId::new(0, 0)),
            requeue: VecDeque::new(),
            tentative: HashMap::new(),
            wal: RedoLog::new(),
            batching: BatchConfig::disabled(),
            staged_decisions: Vec::new(),
            staged_replies: Vec::new(),
            flush_armed: false,
            resync: false,
            wounds: 0,
        };
        Replica::around(site, me, servers, ks, exec, tech)
    }

    /// Sets the decision-round batching window (builder form).
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.tech.batching = batch;
        self
    }

    /// Bounds the redo-log retention at every replica: recovery requests
    /// that fall behind the truncation point get a snapshot transfer.
    pub fn with_log_retention(mut self, retention: Option<usize>) -> Self {
        self.tech.wal.set_retention(retention);
        self
    }

    /// The current primary: the lowest-ranked unsuspected server.
    pub fn primary(&self) -> NodeId {
        self.tech.primary(&self.shell)
    }
}

/// The unsuspected servers other than this one, in `servers()` order: the
/// audience of every propagation, Prepare and decision. A free function
/// of the shell, so it can run while `inflight` is borrowed mutably.
fn live_secondaries(sh: &Shell) -> impl Iterator<Item = NodeId> + '_ {
    let me = sh.me();
    sh.servers()
        .iter()
        .copied()
        .filter(move |&s| s != me && !sh.is_suspected(s))
}

/// The after-images a still-active single-operation transaction has
/// written, appended to `out`: `commit` would consume the transaction, so
/// they are read back from the store's pending state.
fn pending_writes(sh: &Shell, op: &ClientOp, out: &mut Vec<WriteRecord>) {
    for tpl in op.txn.ops.iter() {
        if let OpTemplate::Write(k, _) = tpl {
            if let Some(v) = sh.base.store.read(*k) {
                out.push(WriteRecord {
                    key: *k,
                    value: v.value,
                    version: v.version,
                });
            }
        }
    }
}

impl EagerPrimary {
    fn primary(&self, sh: &Shell) -> NodeId {
        sh.servers()
            .iter()
            .copied()
            .find(|&s| !sh.is_suspected(s))
            .unwrap_or(sh.me())
    }

    fn is_primary(&self, sh: &Shell) -> bool {
        self.primary(sh) == sh.me()
    }

    /// Returns a finished transaction's ack list (its 2PC cohort) to the spares.
    fn recycle_acks(&mut self, t: &mut PrimaryTxn) {
        let mut acks = match std::mem::replace(&mut t.phase, TxnPhase::LockWait) {
            TxnPhase::Committing(c) => c.into_cohort(),
            _ => std::mem::take(&mut t.awaiting),
        };
        acks.clear();
        self.spare_acks.push(acks);
    }

    fn abort_tentative(&mut self, sh: &mut Shell, txn: TxnId) {
        if self.tentative.remove(&txn).is_some() {
            sh.base.abort(txn);
        }
    }

    /// Starts or restarts a transaction at the primary.
    fn begin_txn(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, EagerPrimaryMsg>,
        op: ClientOp,
        retries: u32,
    ) {
        let txn = global_txn(op.id);
        if self.inflight.contains_key(&txn) {
            return;
        }
        if retries == 0 {
            sh.mark(ctx, Phase::Execution, op.id, 0);
        }
        sh.base.begin(txn);
        let awaiting = self.spare_acks.pop().unwrap_or_default();
        self.inflight.insert(
            txn,
            PrimaryTxn {
                op,
                step: 0,
                reads: Vec::new(),
                phase: TxnPhase::LockWait,
                awaiting,
                retries,
            },
        );
        self.advance(sh, ctx, txn);
    }

    /// Drives a primary-side transaction as far as possible.
    fn advance(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EagerPrimaryMsg>, txn: TxnId) {
        loop {
            let Some(t) = self.inflight.get(&txn) else {
                return;
            };
            let step = t.step;
            let total = t.op.txn.ops.len();
            if step >= total {
                self.start_commit(sh, ctx, txn);
                return;
            }
            let template = t.op.txn.ops[step];
            let (key, mode) = match template {
                OpTemplate::Read(k) => (k, LockMode::Shared),
                OpTemplate::Write(k, _) => (k, LockMode::Exclusive),
            };
            match self.lm.acquire(txn, key, mode) {
                Acquire::Granted => {}
                Acquire::Waiting { wounded } => {
                    self.inflight.get_mut(&txn).expect("present").phase = TxnPhase::LockWait;
                    for &v in &wounded {
                        self.wound(sh, ctx, v);
                    }
                    self.lm.recycle_wounded(wounded);
                    return;
                }
            }
            // Lock held: execute the step.
            let t = self.inflight.get_mut(&txn).expect("present");
            match template {
                OpTemplate::Read(k) => {
                    t.reads.push((k, sh.base.read(txn, k)));
                    t.step += 1;
                    // Reads propagate nothing.
                }
                OpTemplate::Write(k, v) => {
                    let v = sh.base.effective_value(v);
                    let after = sh.base.write(txn, k, v);
                    t.step += 1;
                    // Per-operation change propagation (Fig. 12) only for
                    // multi-operation transactions; single-op transactions
                    // piggyback the writeset on Prepare (Fig. 7).
                    if total > 1 {
                        let step_no = (t.step - 1) as u32;
                        t.awaiting.clear();
                        t.awaiting.extend(live_secondaries(sh));
                        if !t.awaiting.is_empty() {
                            self.step_ws.txn = txn;
                            self.step_ws.writes.clear();
                            self.step_ws.writes.push(WriteRecord {
                                key: k,
                                value: v,
                                version: after.version,
                            });
                            let legs = t.awaiting.len() as u32;
                            let ws = sh.base.make_payload(&self.step_ws, legs);
                            let step = u64::from(step_no);
                            sh.mark(ctx, Phase::AgreementCoordination, t.op.id, step);
                            t.phase = TxnPhase::PropWait { step: step_no };
                            for &s in &t.awaiting {
                                ctx.send(
                                    s,
                                    Wire::Proto(EagerPrimaryMsg::Propagate {
                                        txn,
                                        step: step_no,
                                        ws,
                                    }),
                                );
                            }
                            return;
                        }
                    }
                }
            }
            if let Some(t) = self.inflight.get(&txn) {
                if t.step < total && total > 1 {
                    sh.mark(ctx, Phase::Execution, t.op.id, t.step as u64);
                }
            }
        }
    }

    /// Resumes a transaction blocked on propagation acks or votes.
    fn resume(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EagerPrimaryMsg>, txn: TxnId) {
        let Some(t) = self.inflight.get_mut(&txn) else {
            return;
        };
        match &t.phase {
            TxnPhase::PropWait { .. } => {
                if t.step < t.op.txn.ops.len() {
                    sh.mark(ctx, Phase::Execution, t.op.id, t.step as u64);
                }
                self.advance(sh, ctx, txn);
            }
            TxnPhase::Committing(_) => self.finish_commit(sh, ctx, txn, true),
            TxnPhase::LockWait => self.advance(sh, ctx, txn),
        }
    }

    /// Begins the final 2PC round (Agreement Coordination).
    fn start_commit(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EagerPrimaryMsg>, txn: TxnId) {
        let t = self.inflight.get_mut(&txn).expect("present");
        sh.mark(ctx, Phase::AgreementCoordination, t.op.id, u64::MAX);
        t.awaiting.clear();
        t.awaiting.extend(live_secondaries(sh));
        if t.awaiting.is_empty() {
            self.finish_commit(sh, ctx, txn, true);
            return;
        }
        // For single-op transactions the Prepare carries the writeset
        // (reconstructed from the store's pending state — we commit
        // locally only at decision time); for multi-op it was already
        // propagated step-wise.
        let resp = Response {
            op: t.op.id,
            committed: true,
            reads: t.reads.clone(),
        };
        self.step_ws.txn = txn;
        self.step_ws.writes.clear();
        if t.op.txn.ops.len() == 1 {
            pending_writes(sh, &t.op, &mut self.step_ws.writes);
        }
        let ws = sh.base.make_payload(&self.step_ws, t.awaiting.len() as u32);
        for &s in &t.awaiting {
            ctx.send(
                s,
                Wire::Proto(EagerPrimaryMsg::Prepare {
                    txn,
                    ws,
                    resp: resp.clone(),
                }),
            );
        }
        t.phase = TxnPhase::Committing(TpcCoordinator::new(std::mem::take(&mut t.awaiting)));
    }

    fn finish_commit(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, EagerPrimaryMsg>,
        txn: TxnId,
        commit: bool,
    ) {
        let Some(mut t) = self.inflight.remove(&txn) else {
            return;
        };
        self.recycle_acks(&mut t);
        let resp = Response {
            op: t.op.id,
            committed: commit,
            reads: t.reads,
        };
        if commit {
            let group = self.batching.enabled();
            sh.base.commit_into(txn, &mut self.wal, group);
            sh.answer(&resp);
            if group {
                // Group commit: the redo record is staged, and both the
                // decision round and the client ack wait for the
                // window's single shared log force. The durable tier
                // waits for the force too, so a volume loss can only
                // erase unacked staged commits (their recorded replies
                // are forgotten).
                self.staged_decisions.push((txn, commit));
                self.staged_replies.push((t.op.client, resp));
                if self.staged_decisions.len() >= BatchConfig::MAX_BATCH {
                    self.flush_decisions(sh, ctx);
                } else if !self.flush_armed {
                    self.flush_armed = true;
                    ctx.set_timer(
                        SimDuration::from_ticks(self.batching.max_delay_ticks),
                        DECISION_FLUSH_TAG,
                    );
                }
            } else {
                for s in live_secondaries(sh) {
                    ctx.send(s, Wire::Proto(EagerPrimaryMsg::Decision { txn, commit }));
                }
                ctx.send(t.op.client, Wire::Reply(resp));
            }
        } else {
            // Aborts are never batched: the sooner secondaries undo a
            // doomed tentative transaction, the sooner its locks clear.
            for s in live_secondaries(sh) {
                ctx.send(s, Wire::Proto(EagerPrimaryMsg::Decision { txn, commit }));
            }
            sh.base.abort(txn);
        }
        let granted = self.lm.release_all(txn);
        for &(g, _, _) in &granted {
            self.resume(sh, ctx, g);
        }
        self.lm.recycle_granted(granted);
        // Retry wounded ops.
        while let Some((op, retries)) = self.requeue.pop_front() {
            self.begin_txn(sh, ctx, op, retries);
        }
    }

    /// Flushes the staged decision window: one shared log force, one
    /// batched decision message per secondary, then the deferred acks.
    fn flush_decisions(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EagerPrimaryMsg>) {
        if self.staged_decisions.is_empty() {
            return;
        }
        sh.base.flush_group(&mut self.wal);
        let entries = Arc::new(std::mem::take(&mut self.staged_decisions));
        for s in live_secondaries(sh) {
            let batch = EagerPrimaryMsg::DecisionBatch {
                entries: entries.clone(),
            };
            ctx.send(s, Wire::Proto(batch));
        }
        for (client, resp) in std::mem::take(&mut self.staged_replies) {
            ctx.send(client, Wire::Reply(resp));
        }
    }

    /// Secondary side: applies one primary decision to a tentative
    /// transaction (shared by `Decision` and `DecisionBatch`). Returns
    /// false for a commit decision whose transaction we never saw —
    /// the writes were propagated while this server was excluded, so
    /// only a state transfer can supply them.
    fn apply_decision(&mut self, sh: &mut Shell, txn: TxnId, commit: bool) -> bool {
        if let Some((_, resp)) = self.tentative.remove(&txn) {
            if commit {
                // Mirror the decision stream into the local redo log so
                // any server can donate a catch-up suffix. FIFO links
                // keep the mirrored order identical to the primary's.
                sh.base.commit_into(txn, &mut self.wal, false);
                if let Some(r) = resp {
                    sh.answer(&r);
                }
            } else {
                sh.base.abort(txn);
            }
            true
        } else {
            !commit
        }
    }

    /// Asks `donor` for the decisions we turned out to have missed
    /// (noticed via a commit decision for an unknown transaction).
    fn request_resync(&mut self, ctx: &mut Ctx<'_, EagerPrimaryMsg>, donor: NodeId) {
        if !self.resync {
            self.resync = true;
            let have = Some(self.wal.len() as u64);
            ctx.send(donor, Wire::Member(MemberMsg::StateReq { have }));
        }
    }

    /// Secondary side: applies a propagated writeset tentatively
    /// (undo-able until the primary's decision).
    fn apply_tentatively(sh: &mut Shell, txn: TxnId, ws: WriteSetRef) {
        sh.base.begin(txn);
        sh.base.read_payload(ws, |base, view| {
            for w in view.iter() {
                base.write(txn, w.key, w.value);
            }
        });
        sh.base.release_payload(ws);
    }

    /// A committed-state snapshot at the redo-log cursor: tentative 2PC
    /// writes are rolled back so the receiver only installs committed
    /// data (in-flight decisions reach it via the resync path if they
    /// race ahead of the snapshot).
    fn committed_snapshot(&self, sh: &Shell) -> Transfer {
        sh.base.committed_snapshot(self.wal.len() as u64)
    }

    fn clear_staged(&mut self) {
        self.staged_decisions.clear();
        self.staged_replies.clear();
        self.flush_armed = false;
    }

    /// Wounds (aborts and requeues) a younger transaction, unless its
    /// Prepares are out: it takes no further lock, so the requester waits
    /// for its decision instead.
    fn wound(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EagerPrimaryMsg>, victim: TxnId) {
        if self
            .inflight
            .get(&victim)
            .is_none_or(|t| matches!(t.phase, TxnPhase::Committing(_)))
        {
            return;
        }
        let mut t = self.inflight.remove(&victim).expect("present");
        self.wounds += 1;
        self.recycle_acks(&mut t);
        for s in live_secondaries(sh) {
            let abort = EagerPrimaryMsg::Decision {
                txn: victim,
                commit: false,
            };
            ctx.send(s, Wire::Proto(abort));
        }
        sh.base.abort(victim);
        let granted = self.lm.release_all(victim);
        if t.retries < MAX_WOUND_RETRIES {
            self.requeue.push_back((t.op, t.retries + 1));
        } else {
            ctx.send(t.op.client, Wire::Reply(Response::aborted(t.op.id)));
        }
        for &(g, _, _) in &granted {
            self.resume(sh, ctx, g);
        }
        self.lm.recycle_granted(granted);
    }
}

impl Technique for EagerPrimary {
    type Msg = EagerPrimaryMsg;
    const HEARTBEATS: bool = true;

    /// Nobody will ask for a logged decision in a run that cannot replay.
    fn on_start(&mut self, sh: &mut Shell, _ctx: &mut Ctx<'_, EagerPrimaryMsg>) {
        if !sh.can_replay() {
            self.wal.forget();
        }
    }

    fn on_invoke(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EagerPrimaryMsg>, op: ClientOp) {
        if sh.catching_up() {
            return; // not a member yet; the client retries elsewhere
        }
        // Read-only transactions execute locally at any secondary —
        // unless this site holds tentative (undecided) writes, in
        // which case the read forwards to the primary to avoid
        // observing dirty data. At the primary, read-only
        // transactions go through the lock manager like any other.
        if op.is_read_only() && !self.is_primary(sh) && self.tentative.is_empty() {
            sh.mark(ctx, Phase::Execution, op.id, 0);
            let resp = sh.base.answer_read_only(&op);
            sh.reply(ctx, op.client, resp);
            return;
        }
        if self.is_primary(sh) {
            let txn = global_txn(op.id);
            if !self.inflight.contains_key(&txn) && !self.requeue.iter().any(|(o, _)| o.id == op.id)
            {
                self.begin_txn(sh, ctx, op, 0);
            }
        } else {
            let p = self.primary(sh);
            if p != sh.me() {
                ctx.send(p, Wire::Invoke(op));
            }
        }
    }

    fn on_protocol_msg(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, EagerPrimaryMsg>,
        from: NodeId,
        msg: EagerPrimaryMsg,
    ) {
        match msg {
            EagerPrimaryMsg::Propagate { txn, step, ws } => {
                if sh.catching_up() {
                    // The primary is not awaiting us while excluded. The
                    // skipped release leaks the span safely: recovery only
                    // happens in fault runs, which disarm arena GC.
                    return;
                }
                Self::apply_tentatively(sh, txn, ws);
                self.tentative.entry(txn).or_insert((OpId(0), None));
                ctx.send(from, Wire::Proto(EagerPrimaryMsg::PropAck { txn, step }));
            }
            EagerPrimaryMsg::PropAck { txn, step } => {
                let done = {
                    let Some(t) = self.inflight.get_mut(&txn) else {
                        return;
                    };
                    match t.phase {
                        TxnPhase::PropWait { step: s } if s == step => {
                            t.awaiting.retain(|&n| n != from);
                            t.awaiting.is_empty()
                        }
                        _ => false,
                    }
                };
                if done {
                    self.resume(sh, ctx, txn);
                }
            }
            EagerPrimaryMsg::Prepare { txn, ws, resp } => {
                if sh.catching_up() {
                    return; // not in this transaction's 2PC cohort
                }
                // The (single-op) writeset rides the Prepare; remember
                // the response, vote.
                Self::apply_tentatively(sh, txn, ws);
                self.tentative.insert(txn, (resp.op, Some(resp)));
                ctx.send(from, Wire::Proto(EagerPrimaryMsg::Vote { txn, yes: true }));
            }
            EagerPrimaryMsg::Vote { txn, yes } => {
                let decision = {
                    let Some(t) = self.inflight.get_mut(&txn) else {
                        return;
                    };
                    match &mut t.phase {
                        TxnPhase::Committing(c) => c.on_vote(from, yes),
                        _ => None,
                    }
                };
                match decision {
                    Some(TpcDecision::Commit) => self.finish_commit(sh, ctx, txn, true),
                    Some(TpcDecision::Abort) => self.finish_commit(sh, ctx, txn, false),
                    None => {}
                }
            }
            EagerPrimaryMsg::Decision { txn, commit } => {
                if sh.catching_up() {
                    return; // covered by the pending state transfer
                }
                if !self.apply_decision(sh, txn, commit) {
                    self.request_resync(ctx, from);
                }
            }
            EagerPrimaryMsg::DecisionBatch { entries } => {
                if sh.catching_up() {
                    return;
                }
                let mut gap = false;
                for &(txn, commit) in entries.iter() {
                    gap |= !self.apply_decision(sh, txn, commit);
                }
                if gap {
                    self.request_resync(ctx, from);
                }
            }
        }
    }

    fn on_protocol_timer(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EagerPrimaryMsg>, tag: u64) {
        if tag == DECISION_FLUSH_TAG {
            self.flush_armed = false;
            self.flush_decisions(sh, ctx);
        }
    }

    /// Reactions to a detected server crash: the primary drops the dead
    /// secondary from pending waits; secondaries of a dead primary abort
    /// its tentative transactions (the paper's takeover semantics).
    fn suspected(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EagerPrimaryMsg>, dead: NodeId) {
        // Primary: stop waiting for the dead secondary.
        let mut ids: Vec<TxnId> = self.inflight.keys().copied().collect(); // sorted-below
        ids.sort_unstable(); // map order is unspecified; resume deterministically
        for txn in ids {
            let advance = {
                let t = self.inflight.get_mut(&txn).expect("present");
                match &mut t.phase {
                    TxnPhase::PropWait { .. } => {
                        t.awaiting.retain(|&n| n != dead);
                        t.awaiting.is_empty()
                    }
                    TxnPhase::Committing(c) => c.on_vote(dead, true) == Some(TpcDecision::Commit),
                    TxnPhase::LockWait => false,
                }
            };
            if advance {
                self.resume(sh, ctx, txn);
            }
        }
        // Secondary: if the dead server was the acting primary (every
        // lower-ranked server is also suspected), abort its tentative
        // transactions. The sim delivers a primary's decision multicast
        // atomically at event granularity, so either every secondary
        // decided or every one is still tentative — the verdicts agree.
        let was_primary = sh
            .servers()
            .iter()
            .take_while(|&&s| s != dead)
            .all(|&s| sh.is_suspected(s));
        if was_primary {
            let mut stale: Vec<TxnId> = self.tentative.keys().copied().collect(); // sorted-below
            stale.sort_unstable();
            for txn in stale {
                self.abort_tentative(sh, txn);
            }
        }
    }

    fn welcome_state(&mut self, sh: &mut Shell, _joiner: NodeId) -> (Option<Transfer>, u64, u64) {
        // The view update and the snapshot are taken in one event, so the
        // joiner's log cursor matches the transferred store, and FIFO
        // links order the welcome before any later decision multicast
        // that now includes the joiner.
        let cursor = self.wal.len() as u64;
        (Some(self.committed_snapshot(sh)), cursor, cursor)
    }

    fn welcomed(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, EagerPrimaryMsg>,
        transfer: Option<&Transfer>,
        _pos: u64,
        _gpos: u64,
    ) {
        if let Some(t) = transfer {
            sh.base.install_catch_up(&mut self.wal, t, 0);
        }
        sh.base.recovery.complete(ctx.now().ticks());
    }

    /// The redo log lets a donor ship just the suffix past `have` (a server
    /// filling a gap of its own has a hole there, and refuses). The request
    /// is proof of life: the shell's detector re-trusted its sender *before*
    /// the transfer is cut, so every later decision is multicast to it — no
    /// gap in between.
    fn donate(&mut self, sh: &mut Shell, _to: NodeId, have: u64) -> Option<Transfer> {
        if self.resync {
            return None;
        }
        Some(if self.wal.has_suffix(have) {
            Transfer::from_log(&self.wal, &sh.base.store, have)
        } else {
            self.committed_snapshot(sh)
        })
    }

    /// Not only the first: several donors may answer, and a gap fill is a
    /// plain `StateReq`. Whatever extends the log is installed, past the
    /// prefix an earlier (staler) transfer already covered.
    fn caught_up(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, EagerPrimaryMsg>,
        t: &Transfer,
        first: bool,
    ) {
        let cur = self.wal.len() as u64;
        if t.high > cur {
            sh.base.install_catch_up(&mut self.wal, t, cur);
        }
        if first {
            // Resume heartbeats only now: announcing earlier would draw
            // 2PC traffic at a server with a stale store.
            sh.restart_heartbeats(self, ctx);
        }
        self.resync = false;
        sh.base.recovery.complete(ctx.now().ticks());
    }

    /// Local 2PC work has finished. (A drained server leaves nothing
    /// tentative behind, so unlike a crash its departure aborts nothing;
    /// primary succession follows from the shrunken rank list.)
    fn quiesced(&self, _sh: &Shell) -> bool {
        self.inflight.is_empty()
            && self.requeue.is_empty()
            && self.tentative.is_empty()
            && self.staged_decisions.is_empty()
    }

    fn volume_lost(&mut self, sh: &mut Shell) {
        // Staged commits never reached the log force: unacked (replies
        // were staged too) and never noted to the tier, so forget their
        // recorded replies — the client must re-execute, not be told
        // "committed" about state that no longer exists anywhere here.
        for (txn, _) in &self.staged_decisions {
            sh.forget(op_of_txn(*txn));
        }
        self.lm = LockManager::with_keyspace(DeadlockPolicy::WoundWait, sh.base.keyspace());
        self.inflight.clear();
        self.requeue.clear();
        self.tentative.clear();
        self.clear_staged();
        self.resync = false;
        self.wal.restart_at(0);
    }

    fn recovering(&mut self, sh: &mut Shell) {
        // In-flight coordination died with the process: undo every
        // tentative and primary-side transaction (clients re-submit).
        let mut stale: Vec<TxnId> = self.tentative.keys().copied().collect(); // sorted-below
        stale.sort_unstable();
        for txn in stale {
            self.abort_tentative(sh, txn);
        }
        let mut mine: Vec<TxnId> = self.inflight.keys().copied().collect(); // sorted-below
        mine.sort_unstable();
        for txn in mine {
            if let Some(mut t) = self.inflight.remove(&txn) {
                self.recycle_acks(&mut t);
            }
            sh.base.abort(txn);
            let _ = self.lm.release_all(txn);
        }
        self.requeue.clear();
        self.clear_staged();
    }

    fn rewind_to(&mut self, _sh: &mut Shell, restore: DurableRestore) {
        // The tier mirrors the flushed decision stream one-for-one, so
        // the restored cursor is a redo-log length; the log itself
        // restarts empty at that position (peers donate anything
        // earlier, exactly as after a snapshot catch-up).
        self.wal.restart_at(restore.token);
    }

    fn rejoin(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EagerPrimaryMsg>) {
        // Stay silent (no heartbeats) until the transfer lands, so the
        // acting primary keeps excluding us from 2PC cohorts meanwhile.
        if !sh.pull_state(ctx, Some(self.wal.len() as u64)) {
            sh.restart_heartbeats(self, ctx);
            sh.base.recovery.complete(ctx.now().ticks());
        }
    }

    /// The flushed redo-log length: tier notes and log entries move in
    /// lockstep on both primaries and secondaries.
    fn position(&self, _sh: &Shell) -> u64 {
        self.wal.len() as u64
    }

    fn extra_stats(&self) -> ExtraStats {
        ExtraStats {
            spilled_locks: self.lm.spilled() as u64,
            wounds: self.wounds,
            ..ExtraStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientActor;
    use crate::protocols::replica::tests::seat_all;
    use repl_sim::{SimConfig, SimDuration, SimTime, World};
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
        seed: u64,
    ) -> (World<Wire<EagerPrimaryMsg>>, Vec<NodeId>, Vec<NodeId>) {
        let mut world = World::new(SimConfig::new(seed));
        let servers: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        seat_all(
            &mut world,
            (0..n).map(|i| {
                EagerPrimaryServer::new(
                    i,
                    NodeId::new(i),
                    servers.clone(),
                    16,
                    ExecutionMode::Deterministic,
                )
            }),
        );
        let mut clients = Vec::new();
        for (c, t) in txns.into_iter().enumerate() {
            let client = ClientActor::<EagerPrimaryMsg>::new(
                c as u32,
                servers.clone(),
                0,
                t,
                SimDuration::from_ticks(100),
                SimDuration::from_ticks(20_000),
            );
            clients.push(world.add_actor(Box::new(client)));
        }
        (world, servers, clients)
    }

    #[test]
    fn single_op_commit_replicates_everywhere() {
        let (mut world, servers, clients) = build(3, vec![vec![write(1, 7), read(1)]], 1);
        world.start();
        world.run_until(SimTime::from_ticks(200_000));
        let client = world.actor_ref::<ClientActor<EagerPrimaryMsg>>(clients[0]);
        assert!(client.is_done());
        let fp0 = world
            .actor_ref::<EagerPrimaryServer>(servers[0])
            .shell
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<EagerPrimaryServer>(s)
                    .shell
                    .base
                    .store
                    .fingerprint(),
                fp0
            );
            assert_eq!(
                world
                    .actor_ref::<EagerPrimaryServer>(s)
                    .shell
                    .base
                    .store
                    .read(Key(1))
                    .expect("e")
                    .value,
                Value(7)
            );
        }
    }

    #[test]
    fn multi_op_transaction_propagates_per_operation() {
        let (mut world, servers, clients) = build(
            3,
            vec![vec![multi(vec![
                OpTemplate::Write(Key(0), Value(1)),
                OpTemplate::Write(Key(1), Value(2)),
                OpTemplate::Read(Key(0)),
            ])]],
            2,
        );
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        let client = world.actor_ref::<ClientActor<EagerPrimaryMsg>>(clients[0]);
        assert!(client.is_done());
        let rec = client.records.last().expect("present");
        assert_eq!(
            rec.response.as_ref().expect("r").reads,
            vec![(Key(0), Value(1))]
        );
        let fp0 = world
            .actor_ref::<EagerPrimaryServer>(servers[0])
            .shell
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<EagerPrimaryServer>(s)
                    .shell
                    .base
                    .store
                    .fingerprint(),
                fp0
            );
        }
    }

    #[test]
    fn reads_execute_at_any_site_and_see_fresh_data() {
        let (mut world, _servers, clients) = build(3, vec![vec![write(2, 5)]], 3);
        // Add a reader client attached to a secondary.
        let reader = ClientActor::<EagerPrimaryMsg>::new(
            1,
            (0..3).map(NodeId::new).collect::<Vec<_>>(),
            2,
            vec![read(2)],
            SimDuration::from_ticks(3_000), // think long enough for the write to land
            SimDuration::from_ticks(20_000),
        );
        let r_id = world.add_actor(Box::new(reader));
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        let _ = clients;
        let reader = world.actor_ref::<ClientActor<EagerPrimaryMsg>>(r_id);
        assert!(reader.is_done());
        // Eager: the secondary read is allowed to run before the write
        // commits (it sees 0) or after (it sees 5) — but the site must
        // answer locally, which we verify by it having answered at all and
        // having recorded a local read.
        let resp = reader.records[0].response.as_ref().expect("responded");
        assert!(resp.committed);
    }

    #[test]
    fn contended_multi_op_transactions_remain_serializable() {
        // Two clients write the same two keys in opposite orders — the
        // classic deadlock pattern. Wound-wait must resolve it and the
        // final history must be 1SR.
        let (mut world, servers, clients) = build(
            3,
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
            4,
        );
        world.start();
        world.run_until(SimTime::from_ticks(2_000_000));
        for &c in &clients {
            assert!(
                world.actor_ref::<ClientActor<EagerPrimaryMsg>>(c).is_done(),
                "client {c} stuck (deadlock?)"
            );
        }
        let mut merged = repl_db::ReplicatedHistory::new();
        for &s in &servers {
            merged.merge(&world.actor_ref::<EagerPrimaryServer>(s).shell.base.history);
        }
        assert!(merged.check_one_copy_serializable().is_ok());
        let fp0 = world
            .actor_ref::<EagerPrimaryServer>(servers[0])
            .shell
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<EagerPrimaryServer>(s)
                    .shell
                    .base
                    .store
                    .fingerprint(),
                fp0
            );
        }
    }

    #[test]
    fn primary_crash_takeover_by_rank() {
        let (mut world, servers, clients) =
            build(3, vec![vec![write(0, 1), write(1, 2), write(2, 3)]], 5);
        world.schedule_crash(SimTime::from_ticks(1_500), servers[0]);
        world.start();
        world.run_until(SimTime::from_ticks(3_000_000));
        let client = world.actor_ref::<ClientActor<EagerPrimaryMsg>>(clients[0]);
        assert!(client.is_done(), "client stuck after primary crash");
        let s1 = world.actor_ref::<EagerPrimaryServer>(servers[1]);
        assert!(s1.primary() == servers[1] || !s1.shell.is_suspected(servers[1]));
        let fp1 = s1.shell.base.store.fingerprint();
        let s2 = world.actor_ref::<EagerPrimaryServer>(servers[2]);
        assert_eq!(s2.shell.base.store.fingerprint(), fp1, "survivors diverged");
    }

    #[test]
    fn batched_decisions_group_commit_and_converge() {
        // Three concurrent writers land in one decision window: the
        // primary logs every commit but shares the log force, and every
        // replica converges after the batched decision round.
        let mut world = World::new(SimConfig::new(11));
        let servers: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        seat_all(
            &mut world,
            (0..3).map(|i| {
                EagerPrimaryServer::new(
                    i,
                    NodeId::new(i),
                    servers.clone(),
                    16,
                    ExecutionMode::Deterministic,
                )
                .with_batching(BatchConfig::window(2_000))
            }),
        );
        let mut clients = Vec::new();
        for c in 0..3u32 {
            let client = ClientActor::<EagerPrimaryMsg>::new(
                c,
                servers.clone(),
                0,
                vec![write(u64::from(c), i64::from(c) + 1)],
                SimDuration::from_ticks(100),
                SimDuration::from_ticks(20_000),
            );
            clients.push(world.add_actor(Box::new(client)));
        }
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        for &c in &clients {
            assert!(world.actor_ref::<ClientActor<EagerPrimaryMsg>>(c).is_done());
        }
        let primary = world.actor_ref::<EagerPrimaryServer>(servers[0]);
        assert_eq!(primary.tech.wal.len(), 3, "every commit must be logged");
        assert!(
            primary.tech.wal.fsyncs() < 3,
            "group commit must share forces"
        );
        let fp0 = primary.shell.base.store.fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<EagerPrimaryServer>(s)
                    .shell
                    .base
                    .store
                    .fingerprint(),
                fp0
            );
        }
    }

    #[test]
    fn an_older_request_waits_for_a_holder_in_its_commit_round() {
        // A scripted client at node 0; primary node 1, secondary node 2.
        // The younger op (client 1) takes key 0 and sends its Prepare; the
        // older op (client 0) then asks for key 0 before the vote is back.
        use crate::op::OpId;
        use crate::protocols::replica::tests::ScriptedPeer;
        let (older, younger) = (OpId::compose(0, 1), OpId::compose(1, 1));
        assert!(global_txn(older).is_older_than(global_txn(younger)));
        let (peer, primary) = (NodeId::new(0), NodeId::new(1));
        let servers = vec![primary, NodeId::new(2)];
        let invoke = |id| {
            let txn = write(0, 1);
            Wire::Invoke(ClientOp {
                id,
                client: peer,
                txn,
            })
        };
        let mut world: World<Wire<EagerPrimaryMsg>> = World::new(SimConfig::new(17));
        let script = vec![
            (100, primary, invoke(younger)),
            (101, primary, invoke(older)),
        ];
        world.add_actor(Box::new(ScriptedPeer {
            script,
            got: Vec::new(),
        }));
        let exec = ExecutionMode::Deterministic;
        seat_all(
            &mut world,
            (0..2).map(|i| {
                EagerPrimaryServer::new(i, servers[i as usize], servers.clone(), 16, exec)
            }),
        );
        world.start();
        world.run_until(SimTime::from_ticks(5_000));
        let got = &world
            .actor_ref::<ScriptedPeer<Wire<EagerPrimaryMsg>>>(peer)
            .got;
        let replies: Vec<(OpId, bool)> = got
            .iter()
            .filter_map(|(_, m)| match m {
                Wire::Reply(r) => Some((r.op, r.committed)),
                _ => None,
            })
            .collect();
        assert_eq!(replies, vec![(younger, true), (older, true)]);
        let srv = world.actor_ref::<EagerPrimaryServer>(primary);
        assert_eq!(
            srv.tech.extra_stats().wounds,
            0,
            "the committing holder was wounded"
        );
    }

    #[test]
    fn phase_skeleton_single_op_matches_figure_7() {
        let (mut world, _s, _c) = build(3, vec![vec![write(0, 1)]], 6);
        world.start();
        world.run_until(SimTime::from_ticks(200_000));
        let pt = crate::phase::PhaseTrace::from_trace(world.trace());
        assert_eq!(pt.canonical().expect("op done").to_string(), "RE EX AC END");
    }

    #[test]
    fn phase_skeleton_multi_op_loops_ex_ac_as_figure_12() {
        let (mut world, _s, _c) = build(
            3,
            vec![vec![multi(vec![
                OpTemplate::Write(Key(0), Value(1)),
                OpTemplate::Write(Key(1), Value(2)),
            ])]],
            7,
        );
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        let pt = crate::phase::PhaseTrace::from_trace(world.trace());
        let sk = pt.canonical().expect("op done");
        assert!(sk.has_loop(), "multi-op transaction should loop: {sk}");
        assert_eq!(sk.to_string(), "RE EX AC EX AC END");
    }
}
