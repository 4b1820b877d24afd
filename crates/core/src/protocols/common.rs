//! Shared plumbing for the protocol implementations: the server base
//! (store + transaction manager + history + durable tier), the Atomic
//! Broadcast endpoint over the three [`TotalOrder`] flavours, and
//! execution-mode handling.

use std::ops::{Deref, DerefMut};

use repl_db::{
    AccessKind, DurableLog, DurableRestore, Key, Keyspace, RecoveryTracker, RedoLog,
    ReplicatedHistory, ShadowStore, SharedArena, Store, Transfer, TransferStrategy, TxnId,
    TxnManager, Value, Versioned, WriteRecord, WriteSetRef, WsView,
};
use repl_gcs::{
    apply_outbox, AbDeliver, AbMsg, AbOutbox, ConsensusAbcast, ConsensusConfig, GenuineMulticast,
    Outbox, SequencerAbcast, TotalOrder,
};
use repl_sim::{Context, GroupSet, Message, NodeId};
use repl_workload::{OpTemplate, ShardMap, TxnTemplate};

use crate::durability::DurabilityConfig;
use crate::op::{accesses, ClientOp, OpId, Response};
use crate::protocols::replica::Shell;

/// Whether servers execute deterministically.
///
/// The paper's central distributed-systems contrast (Sections 3.2–3.4)
/// hinges on this assumption. `NonDeterministic` models scheduling
/// divergence: each site perturbs written values in a site-specific way,
/// so replicas that execute independently visibly diverge — unless a
/// leader imposes its choice (semi-active) or only one site executes
/// (passive and the primary-copy techniques).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Same input, same order ⇒ same output.
    #[default]
    Deterministic,
    /// Site-dependent execution results.
    NonDeterministic,
}

/// Which Atomic Broadcast implementation to use (ablation A2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AbcastImpl {
    /// Fixed sequencer: cheapest, not crash-tolerant.
    #[default]
    Sequencer,
    /// Consensus-based: tolerates any minority of crashes.
    Consensus,
}

impl AbcastImpl {
    /// An endpoint of this flavour for `me` in `group`. `cons` times both:
    /// the consensus variant's rounds and the sequencer's retransmissions
    /// of an unconfirmed submission (the round timeout must exceed the
    /// network RTT).
    pub fn endpoint<P: Message>(
        self,
        me: NodeId,
        group: Vec<NodeId>,
        cons: ConsensusConfig,
    ) -> AbcastEndpoint<P> {
        let ab: Box<dyn TotalOrder<P>> = match self {
            AbcastImpl::Sequencer => {
                Box::new(SequencerAbcast::new(me, group).with_retransmit(cons.round_timeout))
            }
            AbcastImpl::Consensus => Box::new(ConsensusAbcast::new(me, group, cons)),
        };
        let out = Outbox::new();
        AbcastEndpoint { ab, out }
    }
}

/// The sharded-run topology as one protocol instance sees it: the key →
/// shard routing table plus the uniform node layout (shard `g`'s group
/// is the contiguous node range `[g·n, (g+1)·n)`). Every server and
/// client of a sharded run derives the same context independently, so
/// routing needs no shared state — the property the determinism suite
/// checks for [`ShardMap`] directly.
#[derive(Debug, Clone)]
pub struct ShardCtx {
    /// Key → shard routing.
    pub map: ShardMap,
    /// Servers per group (`n`).
    pub group_size: u32,
    /// The group this instance belongs to (== its shard).
    pub my_gid: u32,
}

impl ShardCtx {
    /// Builds the context for group `my_gid` of a sharded run.
    pub fn new(map: ShardMap, group_size: u32, my_gid: u32) -> Self {
        assert!(group_size > 0, "groups need at least one server");
        assert!(my_gid < map.shards(), "group id out of range");
        ShardCtx {
            map,
            group_size,
            my_gid,
        }
    }

    /// Number of shards (== groups).
    pub fn shards(&self) -> u32 {
        self.map.shards()
    }

    /// The members of group `g`, ascending: a range over the contiguous
    /// node block, so a per-step fan-out or a cohort expansion reads the
    /// layout without building a list.
    pub fn group_of(&self, g: u32) -> impl Iterator<Item = NodeId> + Clone {
        let n = self.group_size;
        (g * n..(g + 1) * n).map(NodeId::new)
    }

    /// Every group's members, ascending: the layout the genuine
    /// multicast is constructed over (collected once, at construction).
    pub fn groups(&self) -> Vec<Vec<NodeId>> {
        (0..self.shards())
            .map(|g| self.group_of(g).collect())
            .collect()
    }

    /// The group a server node belongs to.
    pub fn gid_of(&self, node: NodeId) -> u32 {
        node.index() as u32 / self.group_size
    }

    /// The distinct groups a transaction touches, ascending (shard ==
    /// group id).
    pub fn dests(&self, txn: &TxnTemplate) -> GroupSet {
        self.map.shards_of(txn)
    }

    /// True when the operation touches more than one shard.
    pub fn is_cross(&self, op: &ClientOp) -> bool {
        self.dests(&op.txn).len() > 1
    }

    /// The home group of an operation: the shard of its first key. The
    /// client contacts a member of this group, which initiates the
    /// cross-group coordination.
    pub fn home_of(&self, op: &ClientOp) -> u32 {
        self.map.shard_of(op.txn.ops[0].key())
    }

    /// The restriction of `op` to this instance's own shard: same id,
    /// same client, only the operations on keys this shard owns, in
    /// program order. Executing the local part under the op's global
    /// transaction id at every touched group splices the per-shard
    /// histories into one transaction for the merged 1SR oracle.
    pub fn local_part(&self, op: &ClientOp) -> ClientOp {
        ClientOp {
            id: op.id,
            client: op.client,
            txn: TxnTemplate {
                ops: op
                    .txn
                    .ops
                    .iter()
                    .filter(|o| self.map.shard_of(o.key()) == self.my_gid)
                    .cloned()
                    .collect(),
            },
        }
    }
}

/// An Atomic Broadcast endpoint: one of the three [`TotalOrder`]
/// flavours, boxed, with the one outbox it writes into (owned for the
/// endpoint's lifetime, so handling a message allocates nothing here). A
/// host reads and configures it through `Deref` to [`TotalOrder`], hands
/// it input through [`AbcastEndpoint::parts`], and calls
/// [`AbcastEndpoint::drain`] once it has handled its input. The genuine
/// multicast (sharded runs with cross-shard traffic) assumes no faults —
/// the runner forbids fault plans when cross-shard traffic is on.
pub struct AbcastEndpoint<P> {
    ab: Box<dyn TotalOrder<P>>,
    out: AbOutbox<P>,
}

impl<P: Message> AbcastEndpoint<P> {
    /// Creates a genuine-multicast endpoint over a sharded topology.
    pub fn new_genuine(me: NodeId, ctx: &ShardCtx) -> Self {
        let ab = Box::new(GenuineMulticast::new(me, ctx.groups(), ctx.my_gid));
        let out = Outbox::new();
        AbcastEndpoint { ab, out }
    }

    /// The flavour and the outbox it writes into: every input the host
    /// hands the endpoint goes through here.
    pub fn parts(&mut self) -> (&mut dyn TotalOrder<P>, &mut AbOutbox<P>) {
        (&mut *self.ab, &mut self.out)
    }

    /// Applies what the endpoint queued since the last drain to the
    /// simulator: every send (lifted through `wrap`) and timer first, in
    /// queue order, then the deliveries one by one through `on_deliver`
    /// (see [`repl_gcs::apply_outbox`]).
    pub fn drain<W: Message>(
        &mut self,
        ctx: &mut Context<'_, W>,
        wrap: impl Fn(AbMsg<P>) -> W,
        on_deliver: impl FnMut(&mut Context<'_, W>, AbDeliver<P>),
    ) {
        apply_outbox(ctx, &mut self.out, 0, wrap, on_deliver);
    }

    /// Leaves the ordering group on decommission: the group shrinks to
    /// `remaining`, and a departing orderer hands its role to the
    /// successor so gseq assignment continues where this node stopped.
    /// Returns true if a handoff was queued (the host must drain).
    pub fn leave(&mut self, remaining: &[NodeId]) -> bool {
        let (ab, out) = self.parts();
        let was_orderer = ab.is_orderer();
        ab.set_group(remaining.to_vec());
        if was_orderer {
            ab.handoff(remaining[0], out);
        }
        was_orderer
    }

    /// The bootstrap state a stream-driven coordinator hands a joiner: a
    /// snapshot of `base`'s store stamped with the delivered watermark,
    /// and the stream coordinates to resume from. Taken in the same event
    /// as the group switch, so every ordered message after this point
    /// reaches the joiner and everything before is in the snapshot.
    pub fn welcome_state(&self, base: &ServerBase) -> (Option<Transfer>, u64, u64) {
        let gpos = self.delivered_gseq();
        let snapshot = Transfer::snapshot(&base.store, gpos);
        (Some(snapshot), self.position(), gpos)
    }
}

impl<P: Message> Deref for AbcastEndpoint<P> {
    type Target = dyn TotalOrder<P>;

    fn deref(&self) -> &Self::Target {
        &*self.ab
    }
}

impl<P: Message> DerefMut for AbcastEndpoint<P> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut *self.ab
    }
}

/// State every replica server shares: the database kernel pieces and
/// execution statistics. Which client operations were answered is the
/// shell's client table ([`crate::protocols::replica::Shell`]).
#[derive(Debug)]
pub struct ServerBase {
    /// This site's index (dense, 0-based).
    pub site: u32,
    /// This site's physical copies.
    pub store: Store,
    /// The undo log of this site's local transactions: only the
    /// transaction API below (`begin` … `rollback`) drives it.
    tm: TxnManager,
    /// The optimistic executor's overlay, recycled from transaction to
    /// transaction ([`ServerBase::execute_shadow`]).
    shadow: ShadowStore,
    /// This site's recorded execution history.
    pub history: ReplicatedHistory,
    /// Execution mode (determinism injection).
    pub exec: ExecutionMode,
    /// Transactions committed at this site.
    pub committed: u64,
    /// Transactions aborted at this site.
    pub aborted: u64,
    /// Crash-recovery accounting (rejoin time, transfer bytes).
    pub recovery: RecoveryTracker,
    /// Durable log tier (None reproduces pre-tier behaviour exactly).
    /// Boxed: most runs have none, and an untiered server should not
    /// carry its columns' headers.
    pub tier: Option<Box<DurableLog>>,
    /// Volume-loss disasters survived by this server.
    pub volume_wipes: u64,
    /// The run's shared payload arena, attached when the server is
    /// seated ([`ServerBase::set_arena`]).
    arena: Option<SharedArena>,
    /// Set by an untiered wipe; a restore-from-scratch is pending.
    bare_wipe: bool,
    /// Lean mode: skip the per-operation history records and the
    /// shell's recorded replies. Both grow linearly with the number of
    /// operations, which is fine for the oracle-checked studies but rules
    /// out million-operation open-loop runs; the aggregated open-loop
    /// driver never retries and does not run the history oracles, so both
    /// can be dropped wholesale. The history half is the history's own
    /// recording switch, re-applied to a wiped volume's new history; the
    /// shell reads the rest ([`Self::lean`]).
    lean: bool,
}

impl ServerBase {
    /// Creates a server base over the given keyspace (a bare item count
    /// converts to a dense keyspace), all items initialised to 0.
    pub fn new(site: u32, keyspace: impl Into<Keyspace>, exec: ExecutionMode) -> Self {
        let ks = keyspace.into();
        ServerBase {
            site,
            store: Store::with_keyspace(ks, Value(0)),
            tm: TxnManager::new(),
            shadow: ShadowStore::new(),
            history: ReplicatedHistory::new(),
            exec,
            committed: 0,
            aborted: 0,
            recovery: RecoveryTracker::default(),
            tier: None,
            volume_wipes: 0,
            arena: None,
            bare_wipe: false,
            lean: false,
        }
    }

    /// Switches lean mode on or off (see the `lean` field). Off by
    /// default; every pre-existing path is byte-identical with it off.
    ///
    /// The switch is forwarded into the history itself: this base and the
    /// protocols append through `history.record(..)` at many call sites
    /// (reconcile paths, ordered-delivery replays), and gating inside the
    /// history covers them all with no guard at any of them.
    pub fn set_lean(&mut self, lean: bool) {
        self.lean = lean;
        self.history.set_recording(!lean);
    }

    /// True in lean mode.
    pub fn lean(&self) -> bool {
        self.lean
    }

    /// Attaches a durable log tier (no-op when `cfg` is disabled).
    pub fn set_durability(&mut self, cfg: &DurabilityConfig) {
        if cfg.enabled {
            self.tier = Some(Box::new(DurableLog::new(self.keyspace(), cfg.upload_lag)));
        }
    }

    /// Attaches the run's shared payload arena: the one place writesets
    /// live while protocol messages carry their handles.
    pub fn set_arena(&mut self, arena: SharedArena) {
        self.arena = Some(arena);
    }

    /// The run's arena.
    ///
    /// # Panics
    ///
    /// On a server that was never given one: its peers could not read
    /// anything it shipped.
    fn arena(&self) -> &SharedArena {
        self.arena
            .as_ref()
            .expect("no payload arena attached: seat the server with the run's shared arena")
    }

    /// Interns a writeset for dissemination, from a view of its records
    /// wherever they sit; the message carries the 16-byte handle.
    /// `expected` is the number of sites that will
    /// [`release_payload`](Self::release_payload) it — with none, the
    /// span is retired at once.
    pub fn make_payload<'a>(&mut self, ws: impl Into<WsView<'a>>, expected: u32) -> WriteSetRef {
        self.arena().borrow_mut().intern_view(ws.into(), expected)
    }

    /// Runs `f` over this server and a borrow view of the payload's
    /// records — nothing is materialized. Does not release the payload:
    /// consumption and release are separate because some protocols read
    /// a handle more than once before their last use.
    ///
    /// # Panics
    ///
    /// If the span was already retired (a premature release).
    pub fn read_payload<R>(
        &mut self,
        ws: WriteSetRef,
        f: impl FnOnce(&mut Self, WsView<'_>) -> R,
    ) -> R {
        let arena = SharedArena::clone(self.arena());
        let arena = arena.borrow();
        f(self, arena.view(ws))
    }

    /// [`ServerBase::install`] for a payload.
    pub fn install_payload(&mut self, ws: WriteSetRef) {
        self.read_payload(ws, Self::install);
    }

    /// Records this site's release of a payload. Call exactly when the
    /// site will not read the handle again; the span is retired once
    /// every expected site has released it.
    pub fn release_payload(&mut self, ws: WriteSetRef) {
        self.arena().borrow_mut().release(ws, self.site);
    }

    /// Seals the commits of the event just processed into a durable
    /// frame at stream/log position `token`. Protocols call this from
    /// their settle hook; a no-op without a tier or without new commits.
    pub fn seal_now(&mut self, now: u64, token: u64) {
        if let Some(t) = &mut self.tier {
            t.seal(now, token);
        }
    }

    /// A volume-loss disaster: erases the store, transaction manager and
    /// recorded history and arms the restore. Returns the ops of every
    /// commit the durable tier lost — they must re-execute when the group
    /// replays them — or `None` without a tier: everything replays.
    pub fn wipe_volume(&mut self, now: u64) -> Option<impl Iterator<Item = OpId>> {
        let erased = self.tier.as_mut().map(|t| t.wipe(now).into_iter());
        let lost = erased.map(|e| e.map(op_of_txn));
        self.bare_wipe = lost.is_none();
        self.volume_wipes += 1;
        let ks = self.keyspace();
        self.store = Store::with_keyspace(ks, Value(0));
        self.tm = TxnManager::new();
        self.history = ReplicatedHistory::new();
        self.history.set_recording(!self.lean);
        lost
    }

    /// Starts the restore of a wiped volume, if one is pending: installs
    /// the durable snapshot and suffix (through the normal transfer
    /// accounting), rebuilds the folded history, and returns the restore
    /// for the protocol to finish — rewind to `token`, stay deaf for
    /// `delay` ticks, then rejoin. `None` on a normal crash recovery.
    /// Untiered wipes restore from scratch (the default restore: token
    /// 0, no delay): the whole group history replays through the rejoin
    /// path.
    pub fn begin_restore(&mut self) -> Option<DurableRestore> {
        if let Some(tier) = &mut self.tier {
            let restore = tier.restore()?;
            if let Some(s) = &restore.snapshot {
                self.install_transfer(s);
            }
            if let Some(s) = &restore.suffix {
                self.install_transfer(s);
            }
            let folded = self.tier.as_ref().map(|t| t.folded_history().entries());
            for (txn, keys) in folded.into_iter().flatten() {
                for &k in keys {
                    self.history.record(self.site, txn, k, AccessKind::Write);
                }
                self.history.mark_committed(txn);
            }
            Some(restore)
        } else if std::mem::take(&mut self.bare_wipe) {
            Some(DurableRestore::default())
        } else {
            None
        }
    }

    /// Ends the restore's deaf window; the tier resumes sealing.
    pub fn finish_restore(&mut self) {
        if let Some(t) = &mut self.tier {
            t.finish_restore();
        }
    }

    /// True while a restore download is in flight (the node is deaf).
    pub fn restoring(&self) -> bool {
        self.tier.as_ref().is_some_and(|t| t.restoring())
    }

    /// The keyspace this server's kernel structures are built for.
    pub fn keyspace(&self) -> Keyspace {
        self.store.keyspace()
    }

    /// The value actually written for a requested write, after the
    /// execution-mode perturbation.
    pub fn effective_value(&self, v: Value) -> Value {
        match self.exec {
            ExecutionMode::Deterministic => v,
            ExecutionMode::NonDeterministic => Value(v.0 * 1_000 + self.site as i64),
        }
    }

    /// Starts local transaction `txn` (a no-op while it is active).
    pub fn begin(&mut self, txn: TxnId) {
        self.tm.begin(txn);
    }

    /// True while `txn` holds undoable writes here.
    pub fn is_active(&self, txn: TxnId) -> bool {
        self.tm.is_active(txn)
    }

    /// Reads `key` within active transaction `txn`, recording the read.
    ///
    /// # Panics
    ///
    /// If `txn` is not active.
    pub fn read(&mut self, txn: TxnId, key: Key) -> Value {
        assert!(self.tm.is_active(txn), "{txn} is not active");
        self.read_committed(txn, key)
    }

    /// Writes `key := value` in place within active transaction `txn`,
    /// undoably, recording the write. Returns the new version.
    ///
    /// # Panics
    ///
    /// If `txn` is not active.
    pub fn write(&mut self, txn: TxnId, key: Key, value: Value) -> Versioned {
        let after = self.tm.write(&mut self.store, txn, key, value);
        self.history.record(self.site, txn, key, AccessKind::Write);
        after.expect("txn is active")
    }

    /// Commits `txn`: marks it committed in the history and counts it.
    /// Builds no writeset: the writes are in the store already, and a
    /// `txn` with no undo log here (writes installed outside one, as
    /// certified installs and the Thomas write rule do) needs nothing
    /// more. The durable tier is the caller's to note: when a commit
    /// becomes durable is the technique's choice
    /// ([`ServerBase::commit_and_note`] notes it now).
    pub fn commit(&mut self, txn: TxnId) {
        let _ = self.tm.commit_in_place(txn);
        self.mark_committed(txn);
    }

    fn mark_committed(&mut self, txn: TxnId) {
        self.history.mark_committed(txn);
        self.committed += 1;
    }

    /// [`ServerBase::commit`] for a caller that keeps no writeset and
    /// makes the commit durable at once: a tiered server copies the
    /// undo log's redo records into its tier; an untiered one only
    /// recycles the undo log.
    pub fn commit_and_note(&mut self, txn: TxnId) {
        let _ = self.commit_noted(txn, |_| ());
    }

    /// Commits `txn`, noting its redo records in the durable tier (if
    /// any) and handing them to `keep`, the one place they are copied
    /// to; `None` when `txn` has no undo log here.
    fn commit_noted<R>(&mut self, txn: TxnId, keep: impl FnOnce(WsView<'_>) -> R) -> Option<R> {
        let tier = &mut self.tier;
        let kept = self.tm.commit_with(txn, |v| {
            note(tier, v);
            keep(v)
        });
        self.mark_committed(txn);
        kept.ok()
    }

    /// [`ServerBase::commit`] straight into a redo log: the undo log's
    /// records are copied once, into `log`'s column, appended under
    /// their own force or — `group` — staged for the next group commit
    /// (a `txn` with no undo log logs an empty entry). The durable tier
    /// notes the same records: an appended entry at once, a staged one
    /// when [`ServerBase::flush_group`] forces it, so the tier mirrors
    /// the forced stream.
    pub fn commit_into(&mut self, txn: TxnId, log: &mut RedoLog, group: bool) {
        let tier = &mut self.tier;
        let mut put = |v: WsView<'_>| {
            if group {
                log.stage_view(v);
            } else {
                log.append_view(v);
                note(tier, v);
            }
        };
        if self.tm.commit_with(txn, &mut put).is_err() {
            put(WsView::rows(txn, &[]));
        }
        self.mark_committed(txn);
    }

    /// Forces `log`'s staged group with one fsync, after the durable
    /// tier has noted it ([`ServerBase::commit_into`] with `group`).
    pub fn flush_group(&mut self, log: &mut RedoLog) {
        if let Some(t) = &mut self.tier {
            for v in log.staged() {
                t.note_commit(v);
            }
        }
        let _ = log.flush_group();
    }

    /// Aborts `txn`: [`ServerBase::rollback`], counted.
    pub fn abort(&mut self, txn: TxnId) {
        self.rollback(txn);
        self.aborted += 1;
    }

    /// Undoes `txn`'s writes and forgets its history records without
    /// counting an abort (a crash forgets, it does not decide).
    pub fn rollback(&mut self, txn: TxnId) {
        let _ = self.tm.abort(&mut self.store, txn);
        self.history.purge(txn);
    }

    /// A snapshot of committed state stamped with watermark `high`: the
    /// in-place writes of active transactions are rolled back, so a
    /// receiver never installs data this site might still undo.
    pub fn committed_snapshot(&self, high: u64) -> Transfer {
        Transfer::committed_snapshot(&self.store, &self.tm, high)
    }

    /// Executes a whole client transaction locally and commits it,
    /// recording history. Returns the client response; the redo records
    /// are copied only into the durable tier, when there is one.
    pub fn execute_commit(&mut self, op: &ClientOp, txn: TxnId) -> Response {
        self.execute(op, txn, |_| None, |s| s.commit_and_note(txn))
            .1
    }

    /// [`ServerBase::execute_commit`] for a caller that ships the
    /// transaction's writeset: it is interned into the payload arena
    /// straight from the undo log, for `expected` consumers (see
    /// [`ServerBase::make_payload`]), and the handle returned with the
    /// response.
    pub fn execute_to_ship(
        &mut self,
        op: &ClientOp,
        txn: TxnId,
        expected: u32,
    ) -> (WriteSetRef, Response) {
        self.execute(
            op,
            txn,
            |_| None,
            |s| {
                let arena = SharedArena::clone(s.arena());
                s.commit_noted(txn, |v| arena.borrow_mut().intern_view(v, expected))
                    .expect("txn is active")
            },
        )
    }

    /// [`ServerBase::execute_commit`] for a caller that logs the
    /// transaction's writeset later: the undo log's records are staged
    /// in `log` (a lazy primary's propagation queue, forced when it
    /// propagates). The commit is final, so the durable tier notes it
    /// at once.
    pub fn execute_to_log(&mut self, op: &ClientOp, txn: TxnId, log: &mut RedoLog) -> Response {
        self.execute(
            op,
            txn,
            |_| None,
            |s| {
                let _ = s.commit_noted(txn, |v| log.stage_view(v));
            },
        )
        .1
    }

    /// [`ServerBase::execute_commit`] under a semi-active leader's
    /// choices: a write takes the value `chosen` last lists for its key
    /// instead of this site's own.
    pub fn execute_chosen(
        &mut self,
        op: &ClientOp,
        txn: TxnId,
        chosen: &[(Key, Value)],
    ) -> Response {
        let pick = |k| chosen.iter().rev().find(|c| c.0 == k).map(|c| c.1);
        self.execute(op, txn, pick, |s| s.commit_and_note(txn)).1
    }

    /// Runs `op` as local transaction `txn`, then `commit`s it; a write
    /// of key k stores `chosen(k)`, else this site's
    /// [`ServerBase::effective_value`].
    fn execute<R>(
        &mut self,
        op: &ClientOp,
        txn: TxnId,
        chosen: impl Fn(Key) -> Option<Value>,
        commit: impl FnOnce(&mut Self) -> R,
    ) -> (R, Response) {
        self.begin(txn);
        let mut reads = Vec::new();
        for (key, write) in accesses(&op.txn) {
            match write {
                None => reads.push((key, self.read(txn, key))),
                Some(v) => {
                    let v = chosen(key).unwrap_or_else(|| self.effective_value(v));
                    self.write(txn, key, v);
                }
            }
        }
        let committed = commit(self);
        let resp = Response {
            op: op.id,
            committed: true,
            reads,
        };
        (committed, resp)
    }

    /// Executes a transaction on the recycled shadow overlay (no store
    /// mutation) and interns its writeset — the overlay's key-sorted
    /// records — for `expected` consumers. Returns the handle and the
    /// response; the read set stays readable through
    /// [`ServerBase::shadow_read_set`] until the next shadow execution.
    pub fn execute_shadow(
        &mut self,
        op: &ClientOp,
        txn: TxnId,
        expected: u32,
    ) -> (WriteSetRef, Response) {
        self.shadow.begin(txn);
        self.run_shadow(op, expected)
    }

    /// [`ServerBase::execute_shadow`] for the next transaction of a batch:
    /// it runs on top of the writes of every shadow execution since the
    /// last `execute_shadow`, reading them and versioning its own after
    /// theirs, as if they had been installed.
    pub fn execute_shadow_after(
        &mut self,
        op: &ClientOp,
        txn: TxnId,
        expected: u32,
    ) -> (WriteSetRef, Response) {
        self.shadow.begin_after(txn);
        self.run_shadow(op, expected)
    }

    /// Runs `op` in the shadow transaction just begun and interns its
    /// writeset for `expected` consumers.
    fn run_shadow(&mut self, op: &ClientOp, expected: u32) -> (WriteSetRef, Response) {
        let mut reads: Vec<(Key, Value)> = Vec::new();
        for (key, write) in accesses(&op.txn) {
            match write {
                None => {
                    let v = self.shadow.read(&self.store, key);
                    reads.push((key, v.map_or(Value(0), |v| v.value)));
                }
                Some(v) => {
                    let v = self.effective_value(v);
                    self.shadow.write(&self.store, key, v);
                }
            }
        }
        let ws = self
            .arena()
            .borrow_mut()
            .intern_view(self.shadow.view(), expected);
        let resp = Response {
            op: op.id,
            committed: true,
            reads,
        };
        (ws, resp)
    }

    /// The `(key, version)` read set of the last
    /// [`ServerBase::execute_shadow`].
    pub fn shadow_read_set(&self) -> &[(Key, u64)] {
        self.shadow.read_set()
    }

    /// Installs replicated writes (no re-execution), recording history.
    /// Allocation-free on lean untiered servers.
    pub fn install(&mut self, view: WsView<'_>) {
        let txn = view.txn;
        for w in view.iter() {
            self.history
                .record(self.site, txn, w.key, AccessKind::Write);
        }
        self.history.mark_committed(txn);
        self.store.apply_records(txn, view.iter());
        self.committed += 1;
        if let Some(t) = &mut self.tier {
            t.note_commit(view);
        }
    }

    /// Installs a recovery state transfer and records its accounting.
    /// Log suffixes go through the normal writeset-install path so the
    /// recorded history stays aligned with live installs; snapshots
    /// replace the store wholesale (the missed transactions are not
    /// attributable individually). Returns the donor's watermark.
    pub fn install_transfer(&mut self, t: &Transfer) -> u64 {
        self.recovery
            .record_transfer(t.strategy, t.wire_size() as u64);
        match t.strategy {
            TransferStrategy::LogSuffix => {
                for v in t.entries.views() {
                    self.install(v);
                }
            }
            TransferStrategy::Snapshot => {
                self.store.install_snapshot(&t.snapshot);
                self.note_snapshot(&t.snapshot);
            }
        }
        t.high
    }

    /// [`ServerBase::install_transfer`] for a technique that mirrors its
    /// decisions in a redo log: installs `t` from log position `from` on
    /// (a staler transfer may have covered the prefix) and keeps `wal` in
    /// step — a suffix extends it, a snapshot rebases it.
    pub fn install_catch_up(&mut self, wal: &mut RedoLog, t: &Transfer, from: u64) -> u64 {
        match t.strategy {
            TransferStrategy::LogSuffix => {
                self.recovery
                    .record_transfer(t.strategy, t.wire_size() as u64);
                for v in t.entries.views_from(from.saturating_sub(t.start) as usize) {
                    self.install(v);
                    wal.append_view(v);
                }
            }
            TransferStrategy::Snapshot => {
                self.install_transfer(t);
                wal.skip_to(t.high);
            }
        }
        t.high
    }

    /// Re-protects snapshot contents in the durable tier: a snapshot
    /// fast-forwards past entries the tier never saw, and a later
    /// disaster must not restore a store with that hole. Each key
    /// becomes a one-record writeset under its real writer, so loss
    /// attribution and history folding hold. (During a tier restore
    /// `note_commit` is a no-op — the installed state is already
    /// durable.)
    pub fn note_snapshot(&mut self, snapshot: &[(Key, Versioned)]) {
        let Some(tier) = &mut self.tier else {
            return;
        };
        for (k, v) in snapshot {
            if let Some(writer) = v.writer {
                let rec = WriteRecord {
                    key: *k,
                    value: v.value,
                    version: v.version,
                };
                tier.note_records(writer, [rec]);
            }
        }
    }

    /// Reads a single key outside any transaction (lazy/stale reads),
    /// recording history under the given transaction id.
    pub fn read_committed(&mut self, txn: TxnId, key: Key) -> Value {
        self.history.record(self.site, txn, key, AccessKind::Read);
        self.store.read(key).map_or(Value(0), |v| v.value)
    }

    /// Answers a read-only operation from this site's committed state:
    /// every key is read under the op's global transaction id and the
    /// transaction is recorded as committed. The caller keeps its own
    /// guard and phase mark, and replies through the shell.
    pub fn answer_read_only(&mut self, op: &ClientOp) -> Response {
        let txn = global_txn(op.id);
        let mut reads = Vec::new();
        for tpl in op.txn.ops.iter() {
            if let OpTemplate::Read(k) = tpl {
                reads.push((*k, self.read_committed(txn, *k)));
            }
        }
        self.history.mark_committed(txn);
        Response {
            op: op.id,
            committed: true,
            reads,
        }
    }
}

/// Notes a commit's records in the durable tier, if there is one.
fn note(tier: &mut Option<Box<DurableLog>>, v: WsView<'_>) {
    if let Some(t) = tier {
        t.note_commit(v);
    }
}

/// Polls the ABCAST endpoint after every interaction. A stream stalled
/// behind a hole means this member fell behind ([`Shell::fell_behind`]);
/// a completed rejoin closes the recovery window, the refilled bytes
/// counting as a log-suffix transfer (the order log *is* the group's
/// shared log).
pub fn settle_rejoin<P: Message>(ab: &mut AbcastEndpoint<P>, sh: &mut Shell, now: u64) {
    if ab.take_behind() {
        sh.fell_behind();
    }
    if let Some(bytes) = ab.take_rejoin_done() {
        let recovery = &mut sh.base.recovery;
        if bytes > 0 {
            recovery.record_transfer(TransferStrategy::LogSuffix, bytes);
        }
        recovery.complete(now);
    }
}

/// A transaction id derived from an operation id, stable across client
/// retries (so a restarted transaction keeps its age, which is what makes
/// wound-wait starvation-free). The per-client sequence number dominates
/// the age order so that, under closed-loop clients, age roughly tracks
/// submission time instead of privileging low-numbered clients.
pub fn txn_for_op(op: OpId, site: u32) -> TxnId {
    TxnId::new(((op.seq() as u64) << 20) | op.client() as u64, site)
}

/// The site-independent transaction id of an operation: every replica
/// executing (or installing) the same client operation uses the same
/// transaction id, so cross-site histories line up for the one-copy-
/// serializability checker.
pub fn global_txn(op: OpId) -> TxnId {
    txn_for_op(op, op.client())
}

/// Inverts [`txn_for_op`]/[`global_txn`]: recovers the operation id from a
/// transaction id (used to attribute late, post-response phase marks of
/// lazy techniques to the right operation).
pub fn op_of_txn(txn: TxnId) -> OpId {
    let seq = (txn.ts >> 20) as u32;
    let client = (txn.ts & 0xF_FFFF) as u32;
    OpId::compose(client, seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_db::WriteSet;
    use repl_sim::NodeId;
    use repl_workload::{OpTemplate, TxnTemplate};

    fn op(id: u64, ops: Vec<OpTemplate>) -> ClientOp {
        ClientOp {
            id: OpId(id),
            client: NodeId::new(99),
            txn: TxnTemplate { ops: ops.into() },
        }
    }

    #[test]
    fn an_endpoint_is_a_boxed_flavour_and_its_outbox() {
        use std::mem::size_of;
        type P = ClientOp;
        let endpoint = size_of::<AbcastEndpoint<P>>();
        let parts = size_of::<Box<dyn TotalOrder<P>>>() + size_of::<AbOutbox<P>>();
        assert_eq!(
            endpoint,
            parts,
            "endpoint {endpoint} B (sequencer {} B, consensus {} B, genuine {} B)",
            size_of::<SequencerAbcast<P>>(),
            size_of::<ConsensusAbcast<P>>(),
            size_of::<GenuineMulticast<P>>()
        );
    }

    /// A server seated with its own arena.
    fn seated(site: u32, items: u64, exec: ExecutionMode) -> (ServerBase, SharedArena) {
        let arena = repl_db::shared_arena();
        let mut base = ServerBase::new(site, items, exec);
        base.set_arena(arena.clone());
        (base, arena)
    }

    #[test]
    fn execute_commit_reads_and_writes() {
        let (mut base, arena) = seated(0, 4, ExecutionMode::Deterministic);
        let o = op(
            1,
            vec![
                OpTemplate::Write(Key(1), Value(5)),
                OpTemplate::Read(Key(1)),
            ],
        );
        let resp = base.execute_commit(&o, TxnId::new(1, 0));
        assert_eq!(resp.reads, vec![(Key(1), Value(5))]);
        assert!(resp.committed);
        assert_eq!(base.committed, 1);
        assert_eq!(base.store.read(Key(1)).expect("exists").value, Value(5));
        assert!(!base.is_active(TxnId::new(1, 0)));
        let (ws, resp) = base.execute_to_ship(&o, TxnId::new(2, 0), 1);
        let shipped = arena.borrow().view(ws).to_writeset();
        assert_eq!(ws.len, 1);
        assert_eq!(shipped.txn, TxnId::new(2, 0));
        assert_eq!(shipped.writes[0].key, Key(1));
        assert_eq!(resp.reads, vec![(Key(1), Value(5))]);
        assert_eq!(base.committed, 2);
    }

    #[test]
    fn a_tiered_executor_notes_every_writeset_whether_or_not_it_ships_it() {
        let (mut base, arena) = seated(0, 4, ExecutionMode::Deterministic);
        base.set_durability(&DurabilityConfig::with_upload_lag(0));
        let o = op(1, vec![OpTemplate::Write(Key(1), Value(5))]);
        base.execute_commit(&o, TxnId::new(1, 0));
        base.seal_now(10, 1);
        let (ws, _) = base.execute_to_ship(&o, TxnId::new(2, 0), 1);
        assert_eq!(arena.borrow().view(ws).txn, TxnId::new(2, 0));
        base.seal_now(20, 2);
        let mut log = RedoLog::new();
        base.begin(TxnId::new(3, 0));
        base.write(TxnId::new(3, 0), Key(2), Value(6));
        base.commit_into(TxnId::new(3, 0), &mut log, false);
        base.seal_now(30, 3);
        let tier = base.tier.as_ref().expect("tiered");
        assert_eq!(tier.frames_sealed(), 3, "one frame per executed commit");
        assert_eq!(log.len(), 1, "the logged commit is in the log too");
    }

    #[test]
    fn nondeterministic_mode_perturbs_per_site() {
        let mut s0 = ServerBase::new(0, 2, ExecutionMode::NonDeterministic);
        let mut s1 = ServerBase::new(1, 2, ExecutionMode::NonDeterministic);
        let o = op(1, vec![OpTemplate::Write(Key(0), Value(5))]);
        s0.execute_commit(&o, TxnId::new(1, 0));
        s1.execute_commit(&o, TxnId::new(1, 1));
        assert_ne!(
            s0.store.read(Key(0)).expect("exists").value,
            s1.store.read(Key(0)).expect("exists").value,
            "independent execution must diverge"
        );
        assert_ne!(s0.store.fingerprint(), s1.store.fingerprint());
    }

    #[test]
    fn abort_undoes_forgets_and_counts_once_and_rollback_does_not_count() {
        let mut base = ServerBase::new(0, 2, ExecutionMode::Deterministic);
        let fp = base.store.fingerprint();
        for (ts, counted) in [(1, 1), (2, 1)] {
            let txn = TxnId::new(ts, 0);
            base.begin(txn);
            base.read(txn, Key(1));
            base.write(txn, Key(0), Value(9));
            base.write(txn, Key(0), Value(10));
            assert!(base.is_active(txn));
            if ts == 1 {
                base.abort(txn);
            } else {
                base.rollback(txn);
            }
            assert!(!base.is_active(txn));
            assert_eq!(base.store.fingerprint(), fp, "the undo is exact");
            assert!(base.history.is_empty(), "the attempt is forgotten");
            assert_eq!((base.committed, base.aborted), (0, counted));
        }
    }

    #[test]
    fn committing_a_transaction_never_begun_marks_counts_and_yields_nothing() {
        let mut base = ServerBase::new(0, 2, ExecutionMode::Deterministic);
        let txn = TxnId::new(4, 0);
        base.store.write(Key(1), Value(3), txn); // a certified install
        base.commit(txn);
        assert!(base.history.committed().contains(&txn));
        assert_eq!(base.committed, 1);
        // Logged, it is an empty entry; a tier would note the same.
        let mut log = RedoLog::new();
        base.commit_into(txn, &mut log, false);
        assert!(log.since(0).all(|v| v.is_empty() && v.txn == txn));
        assert_eq!((log.len(), base.committed), (1, 2));
    }

    #[test]
    fn a_committed_snapshot_rolls_back_an_active_writer() {
        let mut base = ServerBase::new(0, 2, ExecutionMode::Deterministic);
        let o = op(1, vec![OpTemplate::Write(Key(0), Value(5))]);
        base.execute_commit(&o, TxnId::new(1, 0));
        let writer = TxnId::new(2, 0);
        base.begin(writer);
        base.write(writer, Key(0), Value(6));
        let t = base.committed_snapshot(7);
        assert_eq!(t.high, 7);
        assert_eq!(t.snapshot[0].1.value, Value(5), "tentative write shipped");
        assert_eq!(base.store.read(Key(0)).expect("exists").value, Value(6));
    }

    #[test]
    fn the_chosen_value_executor_writes_the_leaders_value() {
        let mut follower = ServerBase::new(1, 2, ExecutionMode::NonDeterministic);
        let o = op(
            1,
            vec![
                OpTemplate::Write(Key(0), Value(7)),
                OpTemplate::Read(Key(0)),
            ],
        );
        let resp = follower.execute_chosen(&o, TxnId::new(1, 0), &[(Key(0), Value(7_000))]);
        assert_eq!(resp.reads, vec![(Key(0), Value(7_000))]);
        assert_eq!(
            follower.store.read(Key(0)).expect("exists").value,
            Value(7_000),
            "the follower's own choice (7,001) won"
        );
        assert_eq!(follower.committed, 1);
    }

    #[test]
    fn shadow_execution_leaves_store_untouched() {
        let (mut base, arena) = seated(0, 2, ExecutionMode::Deterministic);
        let fp = base.store.fingerprint();
        let o = op(
            2,
            vec![
                OpTemplate::Read(Key(0)),
                OpTemplate::Write(Key(1), Value(9)),
                OpTemplate::Write(Key(0), Value(8)),
                OpTemplate::Read(Key(1)),
            ],
        );
        let (ws, resp) = base.execute_shadow(&o, TxnId::new(2, 0), 1);
        assert_eq!(base.store.fingerprint(), fp);
        assert_eq!(base.shadow_read_set(), &[(Key(0), 0)]);
        assert_eq!(resp.reads, vec![(Key(0), Value(0)), (Key(1), Value(9))]);
        let keys: Vec<Key> = arena.borrow().view(ws).iter().map(|w| w.key).collect();
        assert_eq!(keys, vec![Key(0), Key(1)], "interned key-sorted");
        assert!(resp.committed);
        // The recycled overlay starts the next transaction empty.
        let (ws, _) =
            base.execute_shadow(&op(3, vec![OpTemplate::Read(Key(1))]), TxnId::new(3, 0), 1);
        assert_eq!(ws.len, 0);
        assert_eq!(base.shadow_read_set(), &[(Key(1), 0)]);
    }

    #[test]
    fn install_writeset_converges_replicas() {
        let (mut a, arena) = seated(0, 2, ExecutionMode::Deterministic);
        let mut b = ServerBase::new(1, 2, ExecutionMode::Deterministic);
        let o = op(3, vec![OpTemplate::Write(Key(0), Value(7))]);
        let (ws, _) = a.execute_to_ship(&o, TxnId::new(3, 0), 1);
        b.install(arena.borrow().view(ws));
        assert_eq!(a.store.fingerprint(), b.store.fingerprint());
        assert_eq!(b.committed, 1);
    }

    #[test]
    fn a_payload_installs_like_its_writeset_and_retires_on_the_last_release() {
        let arena = repl_db::shared_arena();
        let mut a = ServerBase::new(0, 2, ExecutionMode::Deterministic);
        let mut b = ServerBase::new(1, 2, ExecutionMode::Deterministic);
        let mut c = ServerBase::new(2, 2, ExecutionMode::Deterministic);
        for base in [&mut a, &mut b] {
            base.set_arena(arena.clone());
        }
        let o = op(3, vec![OpTemplate::Write(Key(0), Value(7))]);
        let (handle, _) = a.execute_to_ship(&o, TxnId::new(3, 0), 1);
        let ws = arena.borrow().view(handle).to_writeset();
        b.install_payload(handle);
        c.install((&ws).into());
        assert_eq!(b.store.fingerprint(), c.store.fingerprint());
        assert_eq!(b.history.committed(), c.history.committed());
        assert_eq!(arena.borrow().stats().retired, 0, "read is not release");
        b.release_payload(handle);
        assert_eq!(arena.borrow().stats().retired, 1);
    }

    #[test]
    #[should_panic(expected = "no payload arena attached")]
    fn an_unseated_server_cannot_ship_a_writeset() {
        let mut base = ServerBase::new(0, 2, ExecutionMode::Deterministic);
        base.make_payload(&WriteSet::empty(TxnId::new(1, 0)), 1);
    }

    #[test]
    fn lean_mode_skips_history_but_not_state() {
        let (mut lean, arena) = seated(0, 4, ExecutionMode::Deterministic);
        lean.set_lean(true);
        assert!(!lean.history.is_recording());
        let o = op(1, vec![OpTemplate::Write(Key(1), Value(5))]);
        let (ws, _) = lean.execute_to_ship(&o, TxnId::new(1, 0), 1);
        let ws = arena.borrow().view(ws).to_writeset();
        assert!(
            lean.history.committed().is_empty(),
            "lean history stays empty"
        );
        assert_eq!(lean.committed, 1);
        // The store state itself is identical to a non-lean execution.
        let mut full = ServerBase::new(1, 4, ExecutionMode::Deterministic);
        full.install((&ws).into());
        assert_eq!(lean.store.fingerprint(), full.store.fingerprint());
        let _ = lean.read_committed(TxnId::new(2, 0), Key(1));
        assert!(lean.history.committed().is_empty());
    }

    #[test]
    fn txn_ids_align_with_submission_order() {
        let a = txn_for_op(OpId::compose(0, 5), 0);
        let b = txn_for_op(OpId::compose(0, 6), 1);
        assert!(a.is_older_than(b));
        // Same sequence number across clients: earlier rounds dominate.
        let c = txn_for_op(OpId::compose(7, 5), 0);
        let d = txn_for_op(OpId::compose(0, 6), 0);
        assert!(
            c.is_older_than(d),
            "round 5 of any client is older than round 6"
        );
        // Retrying the same op yields the same age.
        assert_eq!(
            txn_for_op(OpId::compose(1, 2), 3),
            txn_for_op(OpId::compose(1, 2), 3)
        );
    }
}
