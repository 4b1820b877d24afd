//! Lazy primary copy replication (paper §4.5, Fig. 10).
//!
//! All updates go to the primary, which executes, commits and answers the
//! client *before* any coordination; the changes propagate to the
//! secondaries afterwards (the paper's inverted phase order — the END
//! phase precedes Agreement Coordination). Skeleton: `RE EX END AC`.
//!
//! Reads execute at whatever server the client contacts, so secondaries
//! serve **stale** data until propagation catches up — the price of the
//! one-round-trip response time. The staleness oracle in
//! [`crate::consistency`] quantifies it.
//!
//! Because ordering happens entirely at the primary, secondaries apply
//! updates in primary-commit order (FIFO from the primary) and replicas
//! converge; no reconciliation is ever needed (contrast with
//! [`crate::protocols::lazy_ue`]).
//!
//! Secondaries support **crash recovery with catch-up**: the primary
//! numbers every propagated writeset against its redo log
//! ([`repl_db::RedoLog`]); a recovering (or gap-detecting) secondary asks
//! for the suffix it missed and replays it in order — the classic
//! log-shipping standby pattern. When the log has been truncated past
//! the requester's position (finite retention, long outage) the primary
//! falls back to a full [`Transfer`] snapshot instead.
//!
//! The primary's redo log is also its propagation queue. A commit's
//! records go once, straight from the undo log, into the log's staged
//! group ([`ServerBase::execute_to_log`](crate::protocols::common::ServerBase::execute_to_log));
//! a flush ships them — one arena handle per entry, or one batch message
//! per window — and forces them into the log: one fsync per entry, or
//! one for the batching window. Nothing else holds a copy; a `WriteSet`
//! is materialized only for a batch message and for a re-ship after a
//! restore.

use std::sync::Arc;

use repl_db::{Keyspace, RedoLog, Transfer, TransferStrategy, TxnColumn, WriteSetRef, WsView};
use repl_gcs::BatchConfig;
use repl_sim::{Message, NodeId, SimDuration};

use crate::durability::RestorePlan;
use crate::op::ClientOp;
use crate::phase::Phase;
use crate::protocols::common::{global_txn, op_of_txn, ExecutionMode};
use crate::protocols::replica::{Ctx, MemberMsg, Replica, Shell, Technique, Wire};

/// Coordination traffic of lazy primary copy replication.
#[derive(Debug, Clone)]
pub enum LazyPrimaryMsg {
    /// Primary → secondaries: committed writesets, in commit order.
    /// The writeset rides the payload plane, so the per-secondary
    /// fan-out copies a handle, not the records; `wire_size` still
    /// charges the full logical size.
    Propagate {
        /// Position in the primary's redo log.
        idx: u64,
        /// The committed redo records.
        ws: WriteSetRef,
    },
    /// Primary → secondaries: one batching window's worth of committed
    /// writesets, group-committed to the WAL with one force and shipped
    /// as one message per secondary.
    PropagateBatch {
        /// Log index of the first entry.
        start: u64,
        /// The committed redo records, in commit order.
        entries: Arc<TxnColumn>,
    },
}

impl Message for LazyPrimaryMsg {
    fn wire_size(&self) -> usize {
        match self {
            LazyPrimaryMsg::Propagate { ws, .. } => 16 + ws.wire_size(),
            LazyPrimaryMsg::PropagateBatch { entries, .. } => {
                16 + 8 * entries.len() + entries.wire_size()
            }
        }
    }
}

const FLUSH_TAG: u64 = 1;

/// Lazy primary copy: the primary executes, commits and answers, then
/// ships its numbered redo log to the secondaries.
pub struct LazyPrimary {
    /// Extra delay before propagating committed updates (0 = propagate
    /// immediately after the reply; larger values widen the staleness
    /// window for the experiments).
    propagation_delay: SimDuration,
    flush_armed: bool,
    /// Batching window for the propagation stream: writesets committed
    /// within one window ship as a single [`LazyPrimaryMsg::PropagateBatch`]
    /// per secondary, and the WAL group-commits them under one force.
    batching: BatchConfig,
    /// The primary's redo log (numbering the propagation stream). Its
    /// staged group is the propagation queue: a commit's records are
    /// staged here straight from the undo log, and a flush forces and
    /// ships them.
    pub log: RedoLog,
    /// Secondary: how many log entries have been applied.
    pub applied: u64,
    /// Primary only: a volume restore rebuilt the log, so the retained
    /// suffix must be re-shipped (its tail may never have propagated).
    reship: bool,
}

/// A lazy-primary-copy server.
pub type LazyPrimaryServer = Replica<LazyPrimary>;

impl LazyPrimaryServer {
    /// Creates server `site` of `servers`; the primary is rank 0.
    pub fn new(
        site: u32,
        me: NodeId,
        servers: Vec<NodeId>,
        keyspace: impl Into<Keyspace>,
        exec: ExecutionMode,
        propagation_delay: SimDuration,
    ) -> Self {
        let tech = LazyPrimary {
            propagation_delay,
            flush_armed: false,
            batching: BatchConfig::disabled(),
            log: RedoLog::new(),
            applied: 0,
            reship: false,
        };
        Replica::around(site, me, servers, keyspace, exec, tech)
    }

    /// Sets the propagation batching window (builder form).
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.tech.batching = batch;
        self
    }

    /// Bounds the primary's redo-log retention: requesters that fall
    /// behind the truncation point get a snapshot instead of a suffix.
    pub fn with_log_retention(mut self, retention: Option<usize>) -> Self {
        self.tech.log.set_retention(retention);
        self
    }

    /// The static primary.
    pub fn primary(&self) -> NodeId {
        primary(&self.shell)
    }
}

/// The static primary: rank 0 of the view.
fn primary(sh: &Shell) -> NodeId {
    sh.servers()[0]
}

impl LazyPrimary {
    fn flush(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, LazyPrimaryMsg>) {
        self.flush_armed = false;
        let start = self.log.len() as u64;
        let consumers = (sh.servers().len() - 1) as u32;
        for (v, idx) in self.log.staged().zip(start..) {
            // AC happens *after* END: the lazy signature.
            sh.mark(ctx, Phase::AgreementCoordination, op_of_txn(v.txn), 0);
            if !self.batching.enabled() {
                let handle = sh.base.make_payload(v, consumers);
                for s in sh.peers() {
                    ctx.send(
                        s,
                        Wire::Proto(LazyPrimaryMsg::Propagate { idx, ws: handle }),
                    );
                }
            }
        }
        if !self.batching.enabled() {
            // Unbatched, each entry pays its own force.
            self.log.flush_each();
            return;
        }
        // Group commit: every writeset of the window reaches the redo
        // log under a single force, then one PropagateBatch per
        // secondary carries the whole window.
        let entries = Arc::new(self.log.staged().collect::<TxnColumn>());
        if self.log.flush_group().is_none() {
            return;
        }
        for s in sh.peers() {
            ctx.send(
                s,
                Wire::Proto(LazyPrimaryMsg::PropagateBatch {
                    start,
                    entries: Arc::clone(&entries),
                }),
            );
        }
    }

    /// Secondary: applies one numbered log entry if it is next in order.
    fn apply_entry(&mut self, sh: &mut Shell, idx: u64, ws: WsView<'_>) -> bool {
        if idx != self.applied {
            return false;
        }
        sh.base.install(ws);
        self.applied += 1;
        true
    }

    /// Installs a catch-up transfer and, unless it brought nothing,
    /// records it: a suffix replays in log order from the applied
    /// watermark; a snapshot replaces the store, unless it is no newer
    /// than `floor`.
    fn install_catch_up(&mut self, sh: &mut Shell, t: &Transfer, floor: Option<u64>) {
        match t.strategy {
            TransferStrategy::LogSuffix => {
                for (ws, idx) in t.entries.views().zip(t.start..) {
                    self.apply_entry(sh, idx, ws);
                }
                if t.entries.is_empty() {
                    return;
                }
            }
            TransferStrategy::Snapshot => {
                if floor.is_some_and(|f| t.high <= f) {
                    return;
                }
                sh.base.store.install_snapshot(&t.snapshot);
                sh.base.note_snapshot(&t.snapshot);
                self.applied = t.high;
            }
        }
        sh.base
            .recovery
            .record_transfer(t.strategy, t.wire_size() as u64);
    }

    /// Asks the primary — the one donor, so no "first answer" to wait
    /// for — for the log from the applied watermark onwards.
    fn request_catch_up(&self, sh: &Shell, ctx: &mut Ctx<'_, LazyPrimaryMsg>) {
        let have = Some(self.applied);
        ctx.send(primary(sh), Wire::Member(MemberMsg::StateReq { have }));
    }
}

impl Technique for LazyPrimary {
    type Msg = LazyPrimaryMsg;

    fn on_invoke(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, LazyPrimaryMsg>, op: ClientOp) {
        // Reads answer locally wherever they land (possibly stale).
        if op.is_read_only() {
            let resp = sh.base.answer_read_only(&op);
            sh.reply(ctx, op.client, resp);
            return;
        }
        // Updates must reach the primary.
        if sh.me() != primary(sh) {
            ctx.send(primary(sh), Wire::Invoke(op));
            return;
        }
        sh.mark(ctx, Phase::Execution, op.id, 0);
        // An update writes at least one key, so it always queues.
        let resp = sh
            .base
            .execute_to_log(&op, global_txn(op.id), &mut self.log);
        // Lazy: reply *now*, coordinate later.
        sh.reply(ctx, op.client, resp);
        // With batching on, the flush waits for the wider of the
        // staleness delay and the batching window (or goes out early on
        // a full batch).
        let delay_ticks = if self.batching.enabled() {
            self.propagation_delay
                .ticks()
                .max(self.batching.max_delay_ticks)
        } else {
            self.propagation_delay.ticks()
        };
        let full = self.batching.enabled() && self.log.staged_len() >= BatchConfig::MAX_BATCH;
        if full || delay_ticks == 0 {
            self.flush(sh, ctx);
        } else if !self.flush_armed {
            self.flush_armed = true;
            ctx.set_timer(SimDuration::from_ticks(delay_ticks), FLUSH_TAG);
        }
    }

    fn on_protocol_msg(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, LazyPrimaryMsg>,
        _from: NodeId,
        msg: LazyPrimaryMsg,
    ) {
        match msg {
            LazyPrimaryMsg::Propagate { idx, ws } => {
                // Secondary: install in log order; on a gap (messages sent
                // while this secondary was crashed), ask for the suffix.
                // The handle is consumed either way — catch-up ships a
                // Transfer and never re-reads it.
                let next = idx == self.applied;
                if next {
                    sh.base.install_payload(ws);
                    self.applied += 1;
                }
                sh.base.release_payload(ws);
                if !next && idx > self.applied {
                    self.request_catch_up(sh, ctx);
                }
            }
            LazyPrimaryMsg::PropagateBatch { start, entries } => {
                let mut gap = false;
                for (ws, idx) in entries.views().zip(start..) {
                    if !self.apply_entry(sh, idx, ws) && idx > self.applied {
                        gap = true;
                    }
                }
                if gap {
                    self.request_catch_up(sh, ctx);
                }
            }
        }
    }

    fn on_protocol_timer(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, LazyPrimaryMsg>, tag: u64) {
        if tag == FLUSH_TAG {
            self.flush(sh, ctx);
            // The flush may be what a drain was waiting for.
            sh.try_retire(self, ctx);
        }
    }

    fn welcome_state(&mut self, sh: &mut Shell, _joiner: NodeId) -> (Option<Transfer>, u64, u64) {
        // Everything committed here is already in the store (lazy
        // primaries have no tentative state), so a snapshot at the log
        // cursor is the cheapest consistent transfer, and it is taken in
        // the same event as the view update: the joiner's applied
        // watermark matches the transferred store. Writes still queued
        // (staged) ship via normal propagation, which FIFO orders after
        // the welcome.
        let cursor = self.log.len() as u64;
        let snapshot = Transfer::snapshot(&sh.base.store, cursor);
        (Some(snapshot), cursor, cursor)
    }

    fn welcomed(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, LazyPrimaryMsg>,
        transfer: Option<&Transfer>,
        _pos: u64,
        _gpos: u64,
    ) {
        if let Some(t) = transfer {
            self.install_catch_up(sh, t, None);
        }
        sh.base.recovery.complete(ctx.now().ticks());
    }

    /// Only the primary donates — and a retired ex-primary still does:
    /// gap repairs addressed before its `ViewDrop` landed must not be lost.
    /// Suffix while retained, snapshot once truncated past the requester;
    /// an empty suffix still goes out, to stop the recovery clock.
    fn donate(&mut self, sh: &mut Shell, _to: NodeId, have: u64) -> Option<Transfer> {
        (sh.me() == primary(sh) || sh.retired())
            .then(|| Transfer::from_log(&self.log, &sh.base.store, have))
    }

    /// Gap repairs land here too: whatever passes the watermark installs.
    fn caught_up(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, LazyPrimaryMsg>,
        t: &Transfer,
        _first: bool,
    ) {
        self.install_catch_up(sh, t, Some(self.applied));
        sh.base.recovery.complete(ctx.now().ticks());
    }

    fn member_left(
        &mut self,
        sh: &mut Shell,
        _ctx: &mut Ctx<'_, LazyPrimaryMsg>,
        _node: NodeId,
        was_first: bool,
    ) {
        if was_first && sh.me() == primary(sh) && (self.log.len() as u64) < self.applied {
            // Succession: continue the retired primary's numbered
            // propagation stream from our applied watermark (the
            // drain quiesced, so nothing later is in flight).
            self.log.skip_to(self.applied);
        }
    }

    /// The propagation queue has drained. (A retired ex-primary keeps
    /// answering catch-up requests so in-flight gap repairs still land.)
    fn quiesced(&self, _sh: &Shell) -> bool {
        self.log.staged_len() == 0
    }

    fn volume_lost(&mut self, _sh: &mut Shell) {
        self.log.restart_at(0);
        self.flush_armed = false;
        self.applied = 0;
    }

    fn rewind_to(&mut self, sh: &mut Shell, plan: RestorePlan) {
        if sh.me() == primary(sh) {
            // Tier note order equals log order at the primary, so
            // the restored suffix rebuilds the propagation stream
            // in place.
            self.log.restart_at(plan.start);
            for v in plan.entries.views() {
                self.log.append_view(v);
            }
            self.reship = true;
        } else {
            self.applied = plan.token;
        }
    }

    fn rejoin(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, LazyPrimaryMsg>) {
        if sh.me() != primary(sh) {
            // Ask the primary for everything missed.
            self.request_catch_up(sh, ctx);
            return;
        }
        // The primary's own log and store survive a plain crash; any
        // updates invoked during the outage were retried by clients.
        // Timers die with the crash, so re-arm a pending flush.
        self.flush_armed = false;
        if self.log.staged_len() > 0 {
            self.flush(sh, ctx);
        }
        if std::mem::take(&mut self.reship) {
            // The restored log tail may never have reached the
            // secondaries; re-ship the retained suffix. Entries a
            // secondary already applied are ignored, and a secondary
            // behind the retention point gap-detects into the usual
            // catch-up request.
            let start = self.log.first_retained();
            let entries: TxnColumn = self.log.since(start as usize).collect();
            if !entries.is_empty() {
                let entries = Arc::new(entries);
                for s in sh.peers() {
                    ctx.send(
                        s,
                        Wire::Proto(LazyPrimaryMsg::PropagateBatch {
                            start,
                            entries: Arc::clone(&entries),
                        }),
                    );
                }
            }
        }
        sh.base.recovery.complete(ctx.now().ticks());
    }

    /// The primary's cursor counts every committed (noted) writeset,
    /// logged or still awaiting flush; a secondary's is its applied
    /// watermark. The max covers both (one side is always zero for a
    /// static member) and stays correct across elastic role changes.
    fn position(&self, _sh: &Shell) -> u64 {
        (self.log.len() as u64 + self.log.staged_len() as u64).max(self.applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientActor;
    use crate::protocols::replica::tests::seat_all;
    use repl_db::{Key, Value};
    use repl_sim::{SimConfig, SimTime, World};
    use repl_workload::{OpTemplate, TxnTemplate};

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

    fn build(
        n: u32,
        txns: Vec<Vec<TxnTemplate>>,
        delay: u64,
        seed: u64,
    ) -> (World<Wire<LazyPrimaryMsg>>, Vec<NodeId>, Vec<NodeId>) {
        let mut world = World::new(SimConfig::new(seed));
        let servers: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        seat_all(
            &mut world,
            (0..n).map(|i| {
                LazyPrimaryServer::new(
                    i,
                    NodeId::new(i),
                    servers.clone(),
                    16,
                    ExecutionMode::Deterministic,
                    SimDuration::from_ticks(delay),
                )
            }),
        );
        let mut clients = Vec::new();
        for (c, t) in txns.into_iter().enumerate() {
            let client = ClientActor::<LazyPrimaryMsg>::new(
                c as u32,
                servers.clone(),
                c % n as usize,
                t,
                SimDuration::from_ticks(100),
                SimDuration::from_ticks(20_000),
            );
            clients.push(world.add_actor(Box::new(client)));
        }
        (world, servers, clients)
    }

    #[test]
    fn replicas_converge_after_quiescence() {
        let (mut world, servers, clients) =
            build(3, vec![vec![write(0, 1), write(1, 2), write(0, 3)]], 0, 1);
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        assert!(world
            .actor_ref::<ClientActor<LazyPrimaryMsg>>(clients[0])
            .is_done());
        let fp0 = world
            .actor_ref::<LazyPrimaryServer>(servers[0])
            .shell
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<LazyPrimaryServer>(s)
                    .shell
                    .base
                    .store
                    .fingerprint(),
                fp0
            );
        }
    }

    #[test]
    fn lazy_update_is_faster_than_propagation() {
        // The update's response arrives before secondaries have the data:
        // immediately after the client's reply, a secondary still holds
        // the old value when propagation is delayed.
        let (mut world, servers, clients) = build(2, vec![vec![write(0, 9)]], 50_000, 2);
        world.start();
        world.run_until(SimTime::from_ticks(10_000));
        let client = world.actor_ref::<ClientActor<LazyPrimaryMsg>>(clients[0]);
        assert!(client.is_done(), "lazy reply must not wait for propagation");
        let secondary = world.actor_ref::<LazyPrimaryServer>(servers[1]);
        assert_eq!(
            secondary
                .shell
                .base
                .store
                .read(Key(0))
                .expect("exists")
                .value,
            Value(0),
            "secondary must still be stale"
        );
        // After the propagation delay, it converges.
        world.run_until(SimTime::from_ticks(200_000));
        let secondary = world.actor_ref::<LazyPrimaryServer>(servers[1]);
        assert_eq!(
            secondary
                .shell
                .base
                .store
                .read(Key(0))
                .expect("exists")
                .value,
            Value(9)
        );
    }

    #[test]
    fn secondary_reads_can_be_stale() {
        // Writer commits at the primary; a reader attached to the
        // secondary reads during the staleness window.
        let (mut world, _servers, clients) = build(
            2,
            vec![
                vec![write(0, 7)], // client 0 at primary
                vec![read(0)],     // client 1 at secondary
            ],
            80_000,
            3,
        );
        world.start();
        world.run_until(SimTime::from_ticks(40_000));
        let reader = world.actor_ref::<ClientActor<LazyPrimaryMsg>>(clients[1]);
        assert!(reader.is_done());
        let observed = reader.records[0].response.as_ref().expect("r").reads[0].1;
        assert_eq!(observed, Value(0), "read should be stale in the window");
    }

    #[test]
    fn batched_propagation_group_commits_and_converges() {
        // Three writes land inside one batching window: the primary must
        // ship ONE PropagateBatch per secondary, group-commit the WAL
        // with one force, and still converge every replica.
        let mut world = World::new(SimConfig::new(21));
        let servers: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        seat_all(
            &mut world,
            (0..3).map(|i| {
                LazyPrimaryServer::new(
                    i,
                    NodeId::new(i),
                    servers.clone(),
                    16,
                    ExecutionMode::Deterministic,
                    SimDuration::ZERO,
                )
                .with_batching(repl_gcs::BatchConfig::window(5_000))
            }),
        );
        let client = ClientActor::<LazyPrimaryMsg>::new(
            0,
            servers.clone(),
            0,
            vec![write(0, 1), write(1, 2), write(0, 3)],
            SimDuration::from_ticks(100),
            SimDuration::from_ticks(20_000),
        );
        let c = world.add_actor(Box::new(client));
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        assert!(world.actor_ref::<ClientActor<LazyPrimaryMsg>>(c).is_done());
        let primary = world.actor_ref::<LazyPrimaryServer>(servers[0]);
        assert_eq!(primary.tech.log.len(), 3, "all three writesets logged");
        assert!(
            primary.tech.log.fsyncs() < 3,
            "group commit must share forces: {} forces for 3 records",
            primary.tech.log.fsyncs()
        );
        let fp0 = primary.shell.base.store.fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<LazyPrimaryServer>(s)
                    .shell
                    .base
                    .store
                    .fingerprint(),
                fp0
            );
        }
    }

    #[test]
    fn phase_skeleton_matches_figure_10_end_before_ac() {
        let (mut world, _s, _c) = build(3, vec![vec![write(0, 1)]], 5_000, 4);
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        let pt = crate::phase::PhaseTrace::from_trace(world.trace());
        let sk = pt.canonical().expect("op done");
        assert_eq!(sk.to_string(), "RE EX END AC");
        assert!(sk.responds_before_agreement());
        assert!(!sk.synchronises_before_response());
    }
}
