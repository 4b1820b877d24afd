//! Lazy update everywhere with reconciliation (paper §4.6, Fig. 11).
//!
//! Any copy takes updates, commits and answers immediately; changes
//! propagate afterwards. Because other sites may have committed
//! conflicting transactions in the meantime, copies can be not merely
//! stale but *inconsistent*, and a reconciliation rule decides which
//! updates win (the paper: "Reconciliation is needed to decide which
//! updates are the winners"). Skeleton: `RE EX END AC`.
//!
//! Two reconciliation rules, selectable with [`ReconcileMode`]:
//!
//! * [`ReconcileMode::Lww`] — per-object last-writer-wins by commit
//!   timestamp with site tie-break (the Thomas write rule); exactly the
//!   per-object scheme whose limitation the paper notes.
//! * [`ReconcileMode::AbcastOrder`] — the paper's suggested alternative
//!   ("a straightforward solution … is to run an Atomic Broadcast and
//!   determine the after-commit-order according to the order of the
//!   atomic broadcast"): committed writesets are ABCAST and applied in
//!   total order everywhere.
//!
//! Discarded/overridden optimistic writes are counted in
//! [`LazyUe::reconciliations`] — the conflict-intensity experiment
//! sweeps them.

use std::collections::{HashMap, HashSet};

use repl_db::{
    DurableRestore, Key, Keyspace, Transfer, TransferStrategy, TxnColumn, TxnId, Value,
    WriteRecord, WriteSet, WriteSetRef, WsView,
};
use repl_gcs::{AbDeliver, AbMsg};
use repl_sim::{Message, NodeId, SimDuration};
use repl_workload::OpTemplate;

use crate::op::{ClientOp, Response};
use crate::phase::Phase;
use crate::protocols::common::{
    global_txn, op_of_txn, settle_rejoin, AbcastEndpoint, AbcastImpl, ExecutionMode, ServerBase,
};
use crate::protocols::replica::{Ctx, ExtraStats, Replica, Shell, Technique, Wire};

/// How conflicting lazy updates are reconciled (paper §4.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReconcileMode {
    /// Per-object last-writer-wins (Thomas write rule).
    #[default]
    Lww,
    /// After-commit order decided by Atomic Broadcast.
    AbcastOrder,
}

/// A committed writeset travelling through the ABCAST (AbcastOrder mode).
///
/// The ordering uses the fixed-sequencer ABCAST (`servers[0]` sequences);
/// lazy techniques are not run in the crash experiments (the paper studies
/// them for performance, not fault tolerance), so the cheap primitive is
/// the right default here.
#[derive(Debug, Clone)]
pub struct OrderedWs(pub WriteSetRef);

impl Message for OrderedWs {
    fn wire_size(&self) -> usize {
        self.0.wire_size()
    }
}

/// Coordination traffic of lazy update everywhere.
#[derive(Debug, Clone)]
pub enum LazyUeMsg {
    /// Server → all other servers, after commit.
    Propagate {
        /// The committed redo records.
        ws: WriteSetRef,
        /// Commit timestamp (virtual-time ticks) for last-writer-wins.
        commit_ts: u64,
        /// Committing site (timestamp tie-break).
        site: u32,
    },
    /// ABCAST traffic (AbcastOrder reconciliation).
    Ab(AbMsg<OrderedWs>),
    /// Recovering replica → every peer (Lww mode): send me your stamped
    /// committed state. Propagations sent during the outage were dropped
    /// and are never re-sent, so rejoin is anti-entropy: merge each
    /// peer's state under the same Thomas write rule as live traffic.
    /// (Not the shell's `StateReq`/`StateData`: that exchange ships a
    /// `Transfer`, which carries no stamps, and keeps the first reply
    /// where this one merges every reply.)
    SyncReq,
    /// Peer → recovering replica: stamped committed state, key-sorted.
    SyncData {
        /// `(key, value, commit_ts, site)` for every key the peer has
        /// accepted a stamped write for.
        items: Vec<(Key, Value, u64, u32)>,
    },
}

impl Message for LazyUeMsg {
    fn wire_size(&self) -> usize {
        match self {
            LazyUeMsg::Propagate { ws, .. } => 20 + ws.wire_size(),
            LazyUeMsg::Ab(m) => m.wire_size(),
            LazyUeMsg::SyncReq => 8,
            LazyUeMsg::SyncData { items } => 8 + items.len() * 28,
        }
    }
}

const FLUSH_TAG: u64 = 1;

/// Lazy update everywhere: any copy commits and answers, then
/// propagates; a reconciliation rule picks the winners.
pub struct LazyUe {
    propagation_delay: SimDuration,
    /// Last accepted writer per key: `(commit_ts, site)`.
    last_writer: HashMap<Key, (u64, u32)>,
    /// Logical clock behind `commit_ts`: follows simulated time but
    /// ticks once per local commit and past every stamp seen, so no two
    /// transactions of this site share a stamp and a local commit
    /// supersedes what it overwrote.
    clock: u64,
    /// Committed writesets awaiting propagation, and their stamps.
    outbound: TxnColumn,
    stamps: Vec<u64>,
    /// The executing transaction's records, reused.
    writes: Vec<WriteRecord>,
    flush_armed: bool,
    mode: ReconcileMode,
    ab: AbcastEndpoint<OrderedWs>,
    /// Locally committed transactions not yet confirmed by the total
    /// order (AbcastOrder mode).
    local_pending: HashSet<TxnId>,
    /// Writes discarded by the Thomas write rule (losers of concurrent
    /// conflicting updates).
    pub reconciliations: u64,
    /// Lww only: restored entries to re-propagate at stamp 0 once the
    /// restore download completes (peers adopt only keys they never saw).
    reship: TxnColumn,
}

/// A lazy-update-everywhere server.
pub type LazyUeServer = Replica<LazyUe>;

impl LazyUeServer {
    /// Creates server `site` of `servers`; `cons` times the after-commit
    /// order's retransmissions (its round timeout).
    pub fn new(
        site: u32,
        me: NodeId,
        servers: Vec<NodeId>,
        keyspace: impl Into<Keyspace>,
        exec: ExecutionMode,
        propagation_delay: SimDuration,
        cons: repl_gcs::ConsensusConfig,
    ) -> Self {
        let tech = LazyUe {
            propagation_delay,
            last_writer: HashMap::new(),
            clock: 0,
            outbound: TxnColumn::new(),
            stamps: Vec::new(),
            writes: Vec::new(),
            flush_armed: false,
            mode: ReconcileMode::Lww,
            ab: AbcastImpl::Sequencer.endpoint(me, servers.clone(), cons),
            local_pending: HashSet::new(),
            reconciliations: 0,
            reship: TxnColumn::new(),
        };
        Replica::around(site, me, servers, keyspace, exec, tech)
    }

    /// Selects the reconciliation rule (default: last-writer-wins).
    pub fn with_reconcile(mut self, mode: ReconcileMode) -> Self {
        self.tech.mode = mode;
        self
    }
}

impl LazyUe {
    fn flush(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, LazyUeMsg>) {
        self.flush_armed = false;
        for i in 0..self.outbound.len() {
            let (ws, commit_ts) = (self.outbound.view(i), self.stamps[i]);
            sh.mark(ctx, Phase::AgreementCoordination, op_of_txn(ws.txn), 0);
            match self.mode {
                ReconcileMode::Lww => Self::propagate(sh, ctx, ws, commit_ts),
                ReconcileMode::AbcastOrder => {
                    // Every site (self included) consumes the ordered
                    // delivery once.
                    let ws = sh.base.make_payload(ws, sh.servers().len() as u32);
                    let (ab, out) = self.ab.parts();
                    ab.broadcast(OrderedWs(ws), out);
                    self.drive_ab(sh, ctx);
                }
            }
        }
        self.outbound.clear();
        self.stamps.clear();
    }

    /// Lww: ships a committed writeset to every peer, stamped
    /// `commit_ts`. Only the peers consume the handle (this site
    /// committed already).
    fn propagate(sh: &mut Shell, ctx: &mut Ctx<'_, LazyUeMsg>, ws: WsView<'_>, commit_ts: u64) {
        let site = sh.base.site;
        let ws = sh.base.make_payload(ws, (sh.servers().len() - 1) as u32);
        for s in sh.peers() {
            ctx.send(
                s,
                Wire::Proto(LazyUeMsg::Propagate {
                    ws,
                    commit_ts,
                    site,
                }),
            );
        }
    }

    /// Applies ABCAST-ordered writesets: the total order *is* the
    /// after-commit order, so every site replays the same sequence.
    fn drive_ab(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, LazyUeMsg>) {
        let (pending, reconciliations) = (&mut self.local_pending, &mut self.reconciliations);
        self.ab.drain(
            ctx,
            |m| Wire::Proto(LazyUeMsg::Ab(m)),
            |_, d| apply_ordered(sh, pending, reconciliations, d),
        );
        settle_rejoin(&mut self.ab, &mut sh.base, ctx.now().ticks());
    }

    /// Every key this replica has accepted a stamped write for, with its
    /// winning stamp, key-sorted (the `last_writer` map iterates in hash
    /// order, which must not leak into the wire stream).
    fn stamped_state(&self, sh: &Shell) -> Vec<(Key, Value, u64, u32)> {
        let mut items: Vec<(Key, Value, u64, u32)> = self
            .last_writer
            .iter()
            .map(|(&k, &(ts, site))| {
                let v = sh.base.store.read(k).map_or(Value(0), |v| v.value);
                (k, v, ts, site)
            })
            .collect();
        items.sort_by_key(|e| e.0);
        items
    }

    /// Merges a peer's stamped state under the Thomas write rule. Keys
    /// the peer never saw keep this replica's surviving values; losing
    /// stamps are not counted as reconciliations (nothing optimistic is
    /// being discarded — this is catch-up, not conflict).
    fn merge_stamped(&mut self, sh: &mut Shell, items: Vec<(Key, Value, u64, u32)>) {
        for (k, v, ts, site) in items {
            let stamp = (ts, site);
            let current = self.last_writer.get(&k).copied().unwrap_or((0, u32::MAX));
            let newer = stamp.0 > current.0 || (stamp.0 == current.0 && stamp.1 < current.1);
            if newer {
                self.clock = self.clock.max(ts);
                self.last_writer.insert(k, stamp);
                let txn = TxnId::new(ts, site);
                let after = sh.base.store.write(k, v, txn);
                if let Some(t) = &mut sh.base.tier {
                    let rec = WriteRecord {
                        key: k,
                        value: v,
                        version: after.version,
                    };
                    t.note_records(txn, [rec]);
                }
            }
        }
    }

    /// Applies a remote writeset under the Thomas write rule.
    fn reconcile(&mut self, base: &mut ServerBase, view: WsView<'_>, commit_ts: u64, site: u32) {
        let txn = view.txn;
        self.clock = self.clock.max(commit_ts);
        let mut any_applied = false;
        // The winning subset is collected for the durable tier only.
        let mut applied: Option<Vec<WriteRecord>> = base.tier.is_some().then(Vec::new);
        for w in view.iter() {
            let stamp = (commit_ts, site);
            let current = self
                .last_writer
                .get(&w.key)
                .copied()
                .unwrap_or((0, u32::MAX));
            // Newer stamp wins; on equal timestamps the lower site wins
            // (any deterministic rule works, it just has to be the same
            // everywhere).
            let newer = stamp.0 > current.0 || (stamp.0 == current.0 && stamp.1 < current.1);
            if newer {
                self.last_writer.insert(w.key, stamp);
                let after = base.store.write(w.key, w.value, txn);
                base.history
                    .record(base.site, txn, w.key, repl_db::AccessKind::Write);
                if let Some(a) = &mut applied {
                    a.push(WriteRecord {
                        key: w.key,
                        value: w.value,
                        version: after.version,
                    });
                }
                any_applied = true;
            } else {
                self.reconciliations += 1;
            }
        }
        if any_applied {
            base.commit(txn);
            // Only the winning subset is durable state worth restoring.
            if let (Some(t), Some(applied)) = (&mut base.tier, applied) {
                t.note_records(txn, applied);
            }
        }
    }

    /// Sends `SyncReq` to every peer: anti-entropy under the Thomas write
    /// rule (recovery completes on the first reply).
    fn request_sync(sh: &Shell, ctx: &mut Ctx<'_, LazyUeMsg>) {
        for s in sh.peers() {
            ctx.send(s, Wire::Proto(LazyUeMsg::SyncReq));
        }
    }

    /// Re-enters the ordered stream (AbcastOrder): the stream is the
    /// shared log, so the sequencer resupplies the missed deliveries.
    fn rejoin_stream(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, LazyUeMsg>) {
        let (ab, out) = self.ab.parts();
        ab.rejoin(out);
        self.drive_ab(sh, ctx);
    }
}

/// Installs one ABCAST-ordered writeset. `pending` holds the locally
/// committed transactions the total order has not confirmed yet;
/// overriding one of their optimistic writes counts in `reconciliations`.
fn apply_ordered(
    sh: &mut Shell,
    pending: &mut HashSet<TxnId>,
    reconciliations: &mut u64,
    d: AbDeliver<OrderedWs>,
) {
    let payload = d.payload.0;
    sh.base.read_payload(payload, |base, view| {
        let txn = view.txn;
        let own = pending.remove(&txn);
        let mut noted = base.tier.is_some().then(|| WriteSet {
            txn,
            writes: Vec::with_capacity(view.len()),
        });
        for w in view.iter() {
            // An optimistic local value that had not reached the
            // total order yet is being overridden: that is a
            // reconciliation.
            if let Some(current) = base.store.read(w.key) {
                if let Some(writer) = current.writer {
                    if writer != txn && pending.contains(&writer) {
                        *reconciliations += 1;
                    }
                }
            }
            let after = base.store.write(w.key, w.value, txn);
            if let Some(n) = &mut noted {
                n.writes.push(WriteRecord {
                    key: w.key,
                    value: w.value,
                    version: after.version,
                });
            }
            if !own {
                base.history
                    .record(base.site, txn, w.key, repl_db::AccessKind::Write);
            }
        }
        // The tier notes at *delivery*, not at the optimistic local
        // commit: the sealed state is then exactly a prefix of the
        // total order, so a restore can rewind the stream to the
        // frame token and replay forward consistently.
        if let (Some(t), Some(noted)) = (&mut base.tier, noted) {
            t.note_commit(&noted);
        }
        if !own {
            base.commit(txn);
        }
    });
    sh.base.release_payload(payload);
}

impl Technique for LazyUe {
    type Msg = LazyUeMsg;

    fn on_invoke(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, LazyUeMsg>, op: ClientOp) {
        sh.mark(ctx, Phase::Execution, op.id, 0);
        let txn = global_txn(op.id);
        self.clock = (self.clock + 1).max(ctx.now().ticks());
        let commit_ts = self.clock;
        // Execute locally, against possibly-divergent local state.
        let mut reads = Vec::new();
        self.writes.clear();
        for tpl in op.txn.ops.iter() {
            match *tpl {
                OpTemplate::Read(k) => {
                    reads.push((k, sh.base.read_committed(txn, k)));
                }
                OpTemplate::Write(k, v) => {
                    let v = sh.base.effective_value(v);
                    let after = sh.base.store.write(k, v, txn);
                    sh.base
                        .history
                        .record(sh.base.site, txn, k, repl_db::AccessKind::Write);
                    self.last_writer.insert(k, (commit_ts, sh.base.site));
                    self.writes.push(WriteRecord {
                        key: k,
                        value: v,
                        version: after.version,
                    });
                }
            }
        }
        sh.base.commit(txn);
        let resp = Response {
            op: op.id,
            committed: true,
            reads,
        };
        // Lazy: reply before any coordination.
        sh.reply(ctx, op.client, resp);
        if !self.writes.is_empty() {
            if self.mode == ReconcileMode::AbcastOrder {
                self.local_pending.insert(txn);
            }
            // Lww seals optimistic commits as they happen; in
            // AbcastOrder the tier notes at ordered delivery
            // instead (see `apply_ordered`), so a restored store is a
            // clean prefix of the stream.
            if self.mode == ReconcileMode::Lww {
                if let Some(t) = &mut sh.base.tier {
                    t.note_records(txn, self.writes.iter().copied());
                }
            }
            self.outbound.push(txn, self.writes.iter().copied());
            self.stamps.push(commit_ts);
            if self.propagation_delay.is_zero() {
                self.flush(sh, ctx);
            } else if !self.flush_armed {
                self.flush_armed = true;
                ctx.set_timer(self.propagation_delay, FLUSH_TAG);
            }
        }
    }

    fn on_protocol_msg(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, LazyUeMsg>,
        from: NodeId,
        msg: LazyUeMsg,
    ) {
        match msg {
            LazyUeMsg::Propagate {
                ws,
                commit_ts,
                site,
            } => {
                sh.base
                    .read_payload(ws, |base, view| self.reconcile(base, view, commit_ts, site));
                sh.base.release_payload(ws);
            }
            LazyUeMsg::Ab(m) => {
                let (ab, out) = self.ab.parts();
                ab.on_message(from, m, out);
                self.drive_ab(sh, ctx);
            }
            LazyUeMsg::SyncReq => {
                let items = self.stamped_state(sh);
                ctx.send(from, Wire::Proto(LazyUeMsg::SyncData { items }));
            }
            LazyUeMsg::SyncData { items } => {
                // First reply ends the recovery window (this replica can
                // serve again); later replies still merge — anti-entropy
                // is commutative, extra rounds only add coverage.
                sh.base
                    .recovery
                    .record_transfer(TransferStrategy::Snapshot, (8 + items.len() * 28) as u64);
                self.merge_stamped(sh, items);
                sh.base.recovery.complete(ctx.now().ticks());
            }
        }
    }

    fn on_protocol_timer(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, LazyUeMsg>, tag: u64) {
        if tag == FLUSH_TAG {
            self.flush(sh, ctx);
            // The flush may be what a drain was waiting for.
            sh.try_retire(self, ctx);
        } else {
            let (ab, out) = self.ab.parts();
            ab.on_timer(tag, out);
            self.drive_ab(sh, ctx);
        }
    }

    fn on_start(&mut self, sh: &mut Shell, _ctx: &mut Ctx<'_, LazyUeMsg>) {
        if !sh.can_replay() {
            self.ab.forget_replay();
        }
    }

    fn view_changed(&mut self, sh: &mut Shell) {
        self.ab.set_group(sh.servers().to_vec());
    }

    fn welcome_state(&mut self, sh: &mut Shell, _joiner: NodeId) -> (Option<Transfer>, u64, u64) {
        match self.mode {
            // Lww joiners fetch state by anti-entropy from every member
            // after the welcome.
            ReconcileMode::Lww => (None, 0, 0),
            // AbcastOrder joiners get a snapshot stamped with the
            // ordered-stream position (the sequencer's: a gseq).
            ReconcileMode::AbcastOrder => self.ab.welcome_state(&sh.base),
        }
    }

    fn welcomed(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, LazyUeMsg>,
        transfer: Option<&Transfer>,
        pos: u64,
        gpos: u64,
    ) {
        match self.mode {
            ReconcileMode::Lww => Self::request_sync(sh, ctx),
            ReconcileMode::AbcastOrder => {
                if let Some(t) = transfer {
                    sh.base
                        .recovery
                        .record_transfer(t.strategy, t.wire_size() as u64);
                    sh.base.store.install_snapshot(&t.snapshot);
                    sh.base.note_snapshot(&t.snapshot);
                }
                self.ab.skip_to(pos, gpos);
                self.rejoin_stream(sh, ctx);
                sh.base.recovery.complete(ctx.now().ticks());
            }
        }
    }

    /// The propagation queue (and, under ordered reconciliation, the
    /// local unordered backlog) has drained.
    fn quiesced(&self, _sh: &Shell) -> bool {
        self.outbound.is_empty()
            && (self.mode != ReconcileMode::AbcastOrder || self.local_pending.is_empty())
    }

    fn retire(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, LazyUeMsg>, remaining: &[NodeId]) {
        if self.ab.leave(remaining) {
            self.drive_ab(sh, ctx);
        }
    }

    fn volume_lost(&mut self, sh: &mut Shell) {
        // Acked commits still waiting for the total order vanish with the
        // volume (they were never noted): claim them so silent-loss
        // accounting holds. The sequencer may still resupply the flushed
        // ones — a safe over-claim.
        if self.mode == ReconcileMode::AbcastOrder {
            let mut pend: Vec<TxnId> = self.local_pending.iter().copied().collect();
            pend.sort();
            if let Some(t) = &mut sh.base.tier {
                t.claim_lost(pend);
            }
        }
        self.last_writer.clear();
        self.outbound.clear();
        self.stamps.clear();
        self.flush_armed = false;
        self.local_pending.clear();
        self.reship.clear();
    }

    fn rewind_to(&mut self, _sh: &mut Shell, restore: DurableRestore) {
        match self.mode {
            ReconcileMode::Lww => {
                // Stamps cannot be restored (the tier keeps values,
                // not clocks): re-propagate the restored entries at
                // stamp 0 so peers adopt only keys they never saw,
                // and let the rejoin anti-entropy reinstate the
                // group's winning stamps here.
                self.reship = restore.suffix.map(|t| t.entries).unwrap_or_default();
            }
            ReconcileMode::AbcastOrder => self.ab.rewind_to(restore.token),
        }
    }

    fn rejoin(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, LazyUeMsg>) {
        // Timers died with the crash: anything still queued for
        // propagation goes out now.
        self.flush_armed = false;
        if !self.outbound.is_empty() {
            self.flush(sh, ctx);
        }
        for ws in std::mem::take(&mut self.reship).views() {
            Self::propagate(sh, ctx, ws, 0);
        }
        match self.mode {
            ReconcileMode::Lww if sh.servers().len() <= 1 => {
                sh.base.recovery.complete(ctx.now().ticks());
            }
            ReconcileMode::Lww => Self::request_sync(sh, ctx),
            ReconcileMode::AbcastOrder => self.rejoin_stream(sh, ctx),
        }
    }

    fn position(&self, sh: &Shell) -> u64 {
        match self.mode {
            // No stream exists; Lww restores never rewind by token.
            ReconcileMode::Lww => sh.base.committed,
            ReconcileMode::AbcastOrder => self.ab.position(),
        }
    }

    fn extra_stats(&self) -> ExtraStats {
        ExtraStats {
            reconciliations: self.reconciliations,
            ..ExtraStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientActor;
    use crate::protocols::replica::tests::seat_all;
    use repl_db::Value;
    use repl_sim::{SimConfig, SimTime, World};
    use repl_workload::TxnTemplate;

    fn write(k: u64, v: i64) -> TxnTemplate {
        TxnTemplate {
            ops: vec![OpTemplate::Write(Key(k), Value(v))].into(),
        }
    }

    fn build(
        n: u32,
        txns: Vec<Vec<TxnTemplate>>,
        delay: u64,
        seed: u64,
    ) -> (World<Wire<LazyUeMsg>>, Vec<NodeId>, Vec<NodeId>) {
        let mut world = World::new(SimConfig::new(seed));
        let servers: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        seat_all(
            &mut world,
            (0..n).map(|i| {
                LazyUeServer::new(
                    i,
                    NodeId::new(i),
                    servers.clone(),
                    16,
                    ExecutionMode::Deterministic,
                    SimDuration::from_ticks(delay),
                    repl_gcs::ConsensusConfig::default(),
                )
            }),
        );
        let mut clients = Vec::new();
        for (c, t) in txns.into_iter().enumerate() {
            let client = ClientActor::<LazyUeMsg>::new(
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
    fn disjoint_updates_converge_without_reconciliation() {
        let (mut world, servers, _clients) = build(
            3,
            vec![vec![write(0, 1)], vec![write(1, 2)], vec![write(2, 3)]],
            0,
            1,
        );
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        let fp0 = world
            .actor_ref::<LazyUeServer>(servers[0])
            .shell
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            let srv = world.actor_ref::<LazyUeServer>(s);
            assert_eq!(srv.shell.base.store.fingerprint(), fp0);
            assert_eq!(srv.tech.reconciliations, 0);
        }
    }

    /// Stands in for a peer: logs the stamp of every writeset shipped.
    #[derive(Default)]
    struct StampSpy {
        stamps: Vec<(u64, u32)>,
    }
    impl repl_sim::Actor<Wire<LazyUeMsg>> for StampSpy {
        fn on_message(&mut self, _: &mut Ctx<'_, LazyUeMsg>, _: NodeId, msg: Wire<LazyUeMsg>) {
            if let Wire::Proto(LazyUeMsg::Propagate {
                commit_ts, site, ..
            }) = msg
            {
                self.stamps.push((commit_ts, site));
            }
        }
        repl_sim::impl_as_any!();
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// Last-writer-wins decides a conflicting pair by stamp alone, so
        /// the stamps of one site must totally order its transactions —
        /// also those it commits within one tick (lockstep clients on a
        /// jitter-free link land their invokes together).
        #[test]
        fn writesets_shipped_by_one_site_carry_distinct_stamps(
            clients in 1u32..6,
            txns in 1u64..6,
            seed in proptest::any::<u64>(),
        ) {
            let net = repl_sim::NetworkConfig::lan().with_jitter(SimDuration::ZERO);
            let mut world = World::new(SimConfig::new(seed).with_network(net));
            let nodes = vec![NodeId::new(0), NodeId::new(1)];
            let server = LazyUeServer::new(
                0,
                nodes[0],
                nodes.clone(),
                16,
                ExecutionMode::Deterministic,
                SimDuration::ZERO,
                repl_gcs::ConsensusConfig::default(),
            );
            seat_all(&mut world, [server]);
            let spy = world.add_actor(Box::new(StampSpy::default()));
            for c in 0..clients {
                let txns: Vec<_> = (0..txns).map(|i| write(i % 16, i as i64)).collect();
                let (think, retry_after) = (SimDuration::ZERO, SimDuration::from_ticks(20_000));
                let client = ClientActor::new(c, vec![nodes[0]], 0, txns, think, retry_after);
                world.add_actor(Box::new(client));
            }
            world.start();
            world.run_until(SimTime::from_ticks(100_000));
            let stamps = &world.actor_ref::<StampSpy>(spy).stamps;
            proptest::prop_assert_eq!(stamps.len() as u64, u64::from(clients) * txns);
            let distinct: HashSet<_> = stamps.iter().collect();
            proptest::prop_assert_eq!(distinct.len(), stamps.len(), "{:?}", stamps);
        }
    }

    #[test]
    fn conflicting_updates_reconcile_to_one_winner_everywhere() {
        // Two clients write the same key at different sites at (almost)
        // the same time: each site commits its own value first, then
        // reconciliation picks a single global winner.
        let (mut world, servers, clients) =
            build(2, vec![vec![write(0, 111)], vec![write(0, 222)]], 2_000, 2);
        world.start();
        world.run_until(SimTime::from_ticks(500_000));
        for &c in &clients {
            assert!(world.actor_ref::<ClientActor<LazyUeMsg>>(c).is_done());
        }
        let s0 = world.actor_ref::<LazyUeServer>(servers[0]);
        let s1 = world.actor_ref::<LazyUeServer>(servers[1]);
        let v0 = s0.shell.base.store.read(Key(0)).expect("e").value;
        let v1 = s1.shell.base.store.read(Key(0)).expect("e").value;
        assert_eq!(v0, v1, "reconciliation did not converge");
        assert!(v0 == Value(111) || v0 == Value(222));
        let total_reconciliations = s0.tech.reconciliations + s1.tech.reconciliations;
        assert!(
            total_reconciliations >= 1,
            "a conflicting write must have been discarded"
        );
    }

    #[test]
    fn both_clients_got_optimistic_commits_despite_conflict() {
        // The dark side of lazy update everywhere: both clients were told
        // "committed", but one update was silently reconciled away.
        let (mut world, servers, clients) =
            build(2, vec![vec![write(0, 111)], vec![write(0, 222)]], 2_000, 3);
        world.start();
        world.run_until(SimTime::from_ticks(500_000));
        for &c in &clients {
            let client = world.actor_ref::<ClientActor<LazyUeMsg>>(c);
            assert!(
                client.records[0].committed(),
                "lazy always answers committed"
            );
        }
        let winner = world
            .actor_ref::<LazyUeServer>(servers[0])
            .shell
            .base
            .store
            .read(Key(0))
            .expect("e")
            .value;
        // Exactly one of the two committed values survived.
        assert!(winner == Value(111) || winner == Value(222));
    }

    #[test]
    fn reconciliation_count_grows_with_conflict_rate() {
        // All clients hammer one key vs. spread keys: the hot-key run must
        // reconcile strictly more.
        let run = |spread: bool, seed: u64| -> u64 {
            let txns: Vec<Vec<TxnTemplate>> = (0..4u64)
                .map(|c| {
                    (0..5)
                        .map(|i| write(if spread { c * 8 + i } else { 0 }, (c * 100 + i) as i64))
                        .collect()
                })
                .collect();
            let (mut world, servers, _clients) = build(4, txns, 1_500, seed);
            world.start();
            world.run_until(SimTime::from_ticks(1_000_000));
            servers
                .iter()
                .map(|&s| world.actor_ref::<LazyUeServer>(s).tech.reconciliations)
                .sum()
        };
        let hot = run(false, 4);
        let cold = run(true, 5);
        assert!(
            hot > cold,
            "hot-key workload should reconcile more (hot={hot}, cold={cold})"
        );
    }

    #[test]
    fn phase_skeleton_matches_figure_11() {
        let (mut world, _s, _c) = build(3, vec![vec![write(0, 1)]], 1_000, 6);
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        let pt = crate::phase::PhaseTrace::from_trace(world.trace());
        assert_eq!(pt.canonical().expect("op done").to_string(), "RE EX END AC");
    }
}
