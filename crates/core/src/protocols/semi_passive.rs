//! Semi-passive replication (paper §3.5).
//!
//! A variant of passive replication that needs no view machinery: server
//! coordination and agreement coordination fold into a single run of
//! *consensus with deferred initial values*. Requests queue in arrival
//! order; for each instance, the first-ranked server executes every
//! pending request in that order, each on top of the earlier ones'
//! writes, and proposes the resulting batch of updates; lower-ranked
//! servers defer — they execute their own pending set and propose only
//! after a suspicion delay, so in the failure-free case exactly one
//! server pays the execution (like passive replication) while crashes
//! cost only an aggressive timeout, not a view change. A batch is
//! whatever arrived while the previous instance decided. The deferral
//! rank adapts to suspicions (the paper: "aggressive time-outs … to
//! suspect crashed processes"): servers the shell's failure detector
//! suspects no longer count ahead of this one, and a new suspicion that
//! makes it first in line executes at once.
//!
//! An instance is numbered by the decision-log position of its batch's
//! first operation, and the slot cursor advances by the batch's length:
//! the cursor is the log's length, which a joiner's snapshot, a donor's
//! suffix and a durable restore all resume from.
//!
//! A writeset is copied once per hop: the executing server interns its
//! shadow overlay's records into the payload arena
//! ([`ServerBase::execute_shadow`](crate::protocols::common::ServerBase::execute_shadow)),
//! and every server appends each decided operation to its decision log
//! straight from the arena view (`RedoLog::append_view`), so the log is
//! a record column with no per-slot `WriteSet`. A run no member can
//! replay keeps neither the log's entries nor the pool's decided values.
//!
//! Skeleton: `RE EX AC END`.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use repl_db::{DurableRestore, FxHashSet, Keyspace, RedoLog, Transfer, WriteSetRef};
use repl_gcs::{ConsEvent, ConsMsg, ConsensusConfig, ConsensusPool, Outbox};
use repl_sim::{Message, NodeId, SimDuration};

use crate::op::{ClientOp, OpId, Response};
use crate::phase::Phase;
use crate::protocols::common::{global_txn, ExecutionMode};
use crate::protocols::replica::{Ctx, Replica, Shell, Status, Technique, Wire};

/// One operation of a proposed batch: the operation, the update its
/// execution produced, and the client response.
#[derive(Debug, Clone)]
pub struct Executed {
    /// The operation.
    pub op: ClientOp,
    /// The update to install everywhere.
    pub ws: WriteSetRef,
    /// The response to hand to the client.
    pub resp: Response,
}

/// What a coordinator proposes for an instance: its pending operations,
/// executed in arrival order. Shared, so a consensus message clones a
/// pointer.
#[derive(Debug, Clone)]
pub struct Batch(Arc<[Executed]>);

impl Message for Batch {
    fn wire_size(&self) -> usize {
        self.0
            .iter()
            .map(|e| e.op.wire_size() + e.ws.wire_size() + e.resp.wire_size())
            .sum()
    }
}

/// Timer-tag base of the embedded consensus pool; slot-deferral timers use
/// tags below it.
const CONS_BASE: u64 = 1 << 40;

/// Coordination traffic of semi-passive replication.
#[derive(Debug, Clone)]
pub enum SemiPassiveMsg {
    /// Contact server → all servers (request dissemination).
    Fwd(ClientOp),
    /// Consensus traffic.
    Cons(ConsMsg<Batch>),
}

impl Message for SemiPassiveMsg {
    fn wire_size(&self) -> usize {
        match self {
            SemiPassiveMsg::Fwd(op) => 8 + op.wire_size(),
            SemiPassiveMsg::Cons(c) => 8 + c.wire_size(),
        }
    }
}

/// Semi-passive replication: consensus with deferred initial values.
pub struct SemiPassive {
    rank: usize,
    defer: SimDuration,
    pool: ConsensusPool<Batch>,
    /// What `pool` queued while handling one input; drained by
    /// `drive_pool`.
    pool_out: Outbox<ConsMsg<Batch>, ConsEvent<Batch>>,
    /// Operations awaiting an instance, in arrival order: the next batch.
    pending: VecDeque<ClientOp>,
    /// The ids in `pending`, the arrival dedup.
    queued: FxHashSet<OpId>,
    /// Decided batches by instance, until the cursor reaches them.
    decided: BTreeMap<u64, Batch>,
    /// The slot cursor: the decision log's length, and the number of the
    /// next instance.
    next_slot: u64,
    /// Slot we have armed a deferral timer or proposed for.
    engaged_slot: Option<u64>,
    /// Decided writesets in decision order (one entry per decided
    /// operation), so live servers can donate a catch-up suffix to a
    /// recovering peer.
    wal: RedoLog,
}

/// A semi-passive replication server.
pub type SemiPassiveServer = Replica<SemiPassive>;

impl SemiPassiveServer {
    /// Creates server `site` of `group`; `defer` is the per-rank deferral
    /// step (rank r waits `r × defer` before executing a slot itself).
    pub fn new(
        site: u32,
        me: NodeId,
        group: Vec<NodeId>,
        keyspace: impl Into<Keyspace>,
        exec: ExecutionMode,
        defer: SimDuration,
        cons: ConsensusConfig,
    ) -> Self {
        let tech = SemiPassive {
            rank: group.iter().position(|&n| n == me).expect("member"),
            defer,
            pool: ConsensusPool::new(me, group.clone(), cons),
            pool_out: Outbox::new(),
            pending: VecDeque::new(),
            queued: FxHashSet::default(),
            decided: BTreeMap::new(),
            next_slot: 0,
            engaged_slot: None,
            wal: RedoLog::new(),
        };
        Replica::around(site, me, group, keyspace, exec, tech)
    }

    /// Caps the decision log's retention (`None` = unbounded). A finite
    /// cap forces snapshot transfers for peers that fall behind the
    /// truncation point.
    pub fn with_log_retention(mut self, max_entries: Option<usize>) -> Self {
        self.tech.wal.set_retention(max_entries);
        self
    }
}

impl SemiPassive {
    /// The effective deferral rank: suspected servers no longer count
    /// ahead of us.
    fn effective_rank(&self, sh: &Shell) -> usize {
        sh.servers()[..self.rank]
            .iter()
            .filter(|&&s| !sh.is_suspected(s))
            .count()
    }

    /// Queues `op` unless it is already pending.
    fn enqueue(&mut self, op: ClientOp) {
        if self.queued.insert(op.id) {
            self.pending.push_back(op);
        }
    }

    fn clear_pending(&mut self) {
        self.pending.clear();
        self.queued.clear();
    }

    fn engage(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, SemiPassiveMsg>) {
        if sh.catching_up() || self.pending.is_empty() || self.engaged_slot == Some(self.next_slot)
        {
            return;
        }
        self.engaged_slot = Some(self.next_slot);
        let rank = self.effective_rank(sh);
        if rank == 0 {
            self.execute_and_propose(sh, ctx);
        } else {
            // Deferred initial value: only execute if the slot is still
            // undecided after our rank's suspicion delay.
            ctx.set_timer(self.defer.times(rank as u64), self.next_slot);
        }
    }

    /// Executes every pending operation in arrival order, each on top of
    /// the earlier ones' writes, and proposes the batch.
    fn execute_and_propose(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, SemiPassiveMsg>) {
        if self.pending.is_empty() {
            return;
        }
        // Every member consumes each decided writeset exactly once
        // (losing proposals leak their spans, which is safe and rare).
        let members = sh.servers().len() as u32;
        let batch = self.pending.iter().enumerate().map(|(i, op)| {
            sh.mark(ctx, Phase::Execution, op.id, 0);
            let txn = global_txn(op.id);
            let (ws, resp) = if i == 0 {
                sh.base.execute_shadow(op, txn, members)
            } else {
                sh.base.execute_shadow_after(op, txn, members)
            };
            let op = op.clone();
            Executed { op, ws, resp }
        });
        let batch = Batch(batch.collect());
        self.pool
            .propose_deferred(self.next_slot, batch, &mut self.pool_out);
        self.drive_pool(sh, ctx);
    }

    /// Applies what the consensus pool queued, records the instances it
    /// decided and installs the decided prefix.
    fn drive_pool(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, SemiPassiveMsg>) {
        let mut out = std::mem::take(&mut self.pool_out);
        repl_gcs::apply_outbox(
            ctx,
            &mut out,
            CONS_BASE,
            |m| Wire::Proto(SemiPassiveMsg::Cons(m)),
            |_, ConsEvent::Decided { inst, value }| {
                self.decided.insert(inst, value);
            },
        );
        self.pool_out = out;
        let mut progressed = false;
        while let Some(Batch(batch)) = self.decided.remove(&self.next_slot) {
            progressed = true;
            let end = self.next_slot + batch.len() as u64;
            // Nobody numbers an instance inside a batch.
            self.pool.skip(self.next_slot + 1..end);
            self.next_slot = end;
            self.engaged_slot = None;
            for e in batch.iter() {
                self.queued.remove(&e.op.id);
                // Mirror every decided operation so the log's length is
                // the cursor, even for duplicate decision content (keeps
                // donor watermarks exact); a forgotten log only counts it.
                let wal = &mut self.wal;
                sh.base.read_payload(e.ws, |_, view| wal.append_view(view));
                if sh.already_answered(e.op.id) {
                    // Already installed (duplicate decision content, or
                    // the join donor answered it before the snapshot);
                    // this site still consumed it.
                    sh.base.release_payload(e.ws);
                    continue;
                }
                sh.mark(ctx, Phase::AgreementCoordination, e.op.id, 0);
                sh.base.install_payload(e.ws);
                sh.base.release_payload(e.ws);
                sh.reply(ctx, e.op.client, e.resp.clone());
            }
            let queued = &self.queued;
            self.pending.retain(|op| queued.contains(&op.id));
        }
        if progressed {
            self.engage(sh, ctx);
        }
    }

    /// Installs the bootstrap or catch-up state, moves the slot cursor
    /// past it and re-enters any instance still undecided group-wide.
    fn resume_from(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, SemiPassiveMsg>,
        t: Option<&Transfer>,
    ) {
        if let Some(t) = t {
            let high = sh.base.install_catch_up(&mut self.wal, t, 0);
            self.next_slot = self.next_slot.max(high);
            self.decided = self.decided.split_off(&self.next_slot);
        }
        self.engaged_slot = None;
        sh.base.recovery.complete(ctx.now().ticks());
        self.pool.resume(&mut self.pool_out);
        self.drive_pool(sh, ctx);
    }
}

impl Technique for SemiPassive {
    type Msg = SemiPassiveMsg;
    const HEARTBEATS: bool = true;

    /// Nobody will ask for a decided slot in a run that cannot replay.
    fn on_start(&mut self, sh: &mut Shell, _ctx: &mut Ctx<'_, SemiPassiveMsg>) {
        if !sh.can_replay() {
            self.wal.forget();
            self.pool.forget_decided();
        }
    }

    fn on_invoke(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, SemiPassiveMsg>, op: ClientOp) {
        if sh.catching_up() || self.queued.contains(&op.id) {
            return;
        }
        for m in sh.peers() {
            ctx.send(m, Wire::Proto(SemiPassiveMsg::Fwd(op.clone())));
        }
        self.enqueue(op);
        self.engage(sh, ctx);
    }

    fn on_protocol_msg(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, SemiPassiveMsg>,
        from: NodeId,
        msg: SemiPassiveMsg,
    ) {
        match msg {
            SemiPassiveMsg::Fwd(op) => {
                if sh.status() == Status::Normal && !sh.already_answered(op.id) {
                    self.enqueue(op);
                    self.engage(sh, ctx);
                }
            }
            SemiPassiveMsg::Cons(c) => {
                repl_gcs::Component::on_message(&mut self.pool, from, c, &mut self.pool_out);
                self.drive_pool(sh, ctx);
            }
        }
    }

    fn on_protocol_timer(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, SemiPassiveMsg>, tag: u64) {
        if tag >= CONS_BASE {
            repl_gcs::Component::on_timer(&mut self.pool, tag - CONS_BASE, &mut self.pool_out);
            self.drive_pool(sh, ctx);
        } else if tag == self.next_slot && !self.pending.is_empty() {
            // Deferral timer for a slot: execute only if still undecided.
            self.execute_and_propose(sh, ctx);
        }
    }

    /// A predecessor died: if we are now first in line for the current
    /// slot, act immediately instead of waiting out the deferral timer.
    fn suspected(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, SemiPassiveMsg>, _node: NodeId) {
        if self.effective_rank(sh) == 0
            && !self.pending.is_empty()
            && self.engaged_slot == Some(self.next_slot)
        {
            self.execute_and_propose(sh, ctx);
        }
    }

    /// Re-derives the consensus group and the deferral rank from the view.
    fn view_changed(&mut self, sh: &mut Shell) {
        self.pool.set_group(sh.servers().to_vec());
        self.rank = sh.servers().iter().position(|&n| n == sh.me()).unwrap_or(0);
    }

    fn welcome_state(&mut self, sh: &mut Shell, _joiner: NodeId) -> (Option<Transfer>, u64, u64) {
        // The store reflects log entries `[0, next_slot)` exactly, so a
        // snapshot at the slot cursor hands the joiner a consistent
        // prefix; consensus refills anything beyond.
        let snapshot = Transfer::snapshot(&sh.base.store, self.next_slot);
        (Some(snapshot), self.next_slot, self.next_slot)
    }

    fn welcomed(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, SemiPassiveMsg>,
        transfer: Option<&Transfer>,
        _pos: u64,
        _gpos: u64,
    ) {
        self.resume_from(sh, ctx, transfer);
    }

    /// The decision log lets a donor ship just the suffix past `have`
    /// (a snapshot once retention truncated it).
    fn donate(&mut self, sh: &mut Shell, _to: NodeId, have: u64) -> Option<Transfer> {
        Some(Transfer::from_log(&self.wal, &sh.base.store, have))
    }

    fn member_left(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, SemiPassiveMsg>,
        _node: NodeId,
        _was_first: bool,
    ) {
        self.engage(sh, ctx);
    }

    fn quiesced(&self, _sh: &Shell) -> bool {
        self.pending.is_empty()
    }

    fn retire(
        &mut self,
        _sh: &mut Shell,
        _ctx: &mut Ctx<'_, SemiPassiveMsg>,
        remaining: &[NodeId],
    ) {
        self.pool.set_group(remaining.to_vec());
    }

    fn volume_lost(&mut self, _sh: &mut Shell) {
        self.wal.restart_at(0);
        self.clear_pending();
        self.decided.clear();
        self.engaged_slot = None;
        self.next_slot = 0;
    }

    fn rewind_to(&mut self, _sh: &mut Shell, restore: DurableRestore) {
        // The durable tier cannot reconstruct the slot-indexed decision
        // log (duplicate decisions are logged but never noted), so treat
        // the restore like a snapshot catch-up: an empty log based at the
        // restored cursor. Earlier suffixes are simply donated by peers
        // instead of us.
        self.wal.restart_at(restore.token);
        self.next_slot = restore.token;
        self.decided.clear();
    }

    fn rejoin(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, SemiPassiveMsg>) {
        // Timers died with the process.
        sh.restart_heartbeats(self, ctx);
        // Pending requests may have been decided while we were down;
        // clients re-forward anything genuinely unanswered.
        self.clear_pending();
        self.engaged_slot = None;
        if !sh.pull_state(ctx, Some(self.next_slot)) {
            self.resume_from(sh, ctx, None);
        }
    }

    /// The slot cursor: a restore resumes exactly at the next undecided
    /// slot the sealed state reflects.
    fn position(&self, _sh: &Shell) -> u64 {
        self.next_slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientActor;
    use crate::protocols::replica::tests::{seat_all, ScriptedPeer};
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
        exec: ExecutionMode,
        seed: u64,
    ) -> (World<Wire<SemiPassiveMsg>>, Vec<NodeId>, Vec<NodeId>) {
        let mut world = World::new(SimConfig::new(seed));
        let servers: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        seat_all(
            &mut world,
            (0..n).map(|i| {
                SemiPassiveServer::new(
                    i,
                    NodeId::new(i),
                    servers.clone(),
                    16,
                    exec,
                    SimDuration::from_ticks(3_000),
                    ConsensusConfig::default(),
                )
            }),
        );
        let mut clients = Vec::new();
        for (c, t) in txns.into_iter().enumerate() {
            let client = ClientActor::<SemiPassiveMsg>::new(
                c as u32,
                servers.clone(),
                c % n as usize,
                t,
                SimDuration::from_ticks(100),
                SimDuration::from_ticks(25_000),
            );
            clients.push(world.add_actor(Box::new(client)));
        }
        (world, servers, clients)
    }

    #[test]
    fn failure_free_only_rank_zero_executes() {
        let (mut world, servers, clients) = build(
            3,
            vec![vec![write(0, 1), write(1, 2), read(0)]],
            ExecutionMode::NonDeterministic,
            1,
        );
        world.start();
        world.run_until(SimTime::from_ticks(500_000));
        assert!(world
            .actor_ref::<ClientActor<SemiPassiveMsg>>(clients[0])
            .is_done());
        // Stores converge even with non-deterministic servers: only the
        // coordinator's execution counts.
        let fp0 = world
            .actor_ref::<SemiPassiveServer>(servers[0])
            .shell
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<SemiPassiveServer>(s)
                    .shell
                    .base
                    .store
                    .fingerprint(),
                fp0
            );
        }
    }

    #[test]
    fn coordinator_crash_deferred_backup_takes_over() {
        let (mut world, servers, clients) = build(
            3,
            vec![vec![write(0, 1), write(1, 2)]],
            ExecutionMode::Deterministic,
            2,
        );
        world.schedule_crash(SimTime::from_ticks(200), servers[0]);
        world.start();
        world.run_until(SimTime::from_ticks(3_000_000));
        let client = world.actor_ref::<ClientActor<SemiPassiveMsg>>(clients[0]);
        assert!(client.is_done(), "client stuck after coordinator crash");
        let fp1 = world
            .actor_ref::<SemiPassiveServer>(servers[1])
            .shell
            .base
            .store
            .fingerprint();
        let fp2 = world
            .actor_ref::<SemiPassiveServer>(servers[2])
            .shell
            .base
            .store
            .fingerprint();
        assert_eq!(fp1, fp2);
        assert_eq!(
            world
                .actor_ref::<SemiPassiveServer>(servers[1])
                .shell
                .base
                .store
                .read(Key(1))
                .expect("exists")
                .value,
            Value(2)
        );
    }

    #[test]
    fn concurrent_clients_agree_on_one_order() {
        let (mut world, servers, clients) = build(
            3,
            vec![
                vec![write(0, 1), write(1, 2)],
                vec![write(0, 10), write(1, 20)],
            ],
            ExecutionMode::Deterministic,
            3,
        );
        world.start();
        world.run_until(SimTime::from_ticks(1_000_000));
        for &c in &clients {
            assert!(world.actor_ref::<ClientActor<SemiPassiveMsg>>(c).is_done());
        }
        let fp0 = world
            .actor_ref::<SemiPassiveServer>(servers[0])
            .shell
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<SemiPassiveServer>(s)
                    .shell
                    .base
                    .store
                    .fingerprint(),
                fp0
            );
        }
        let mut merged = repl_db::ReplicatedHistory::new();
        for &s in &servers {
            merged.merge(&world.actor_ref::<SemiPassiveServer>(s).shell.base.history);
        }
        assert!(merged.check_one_copy_serializable().is_ok());
    }

    /// Three servers and a scripted client at node 3 that sends, for each
    /// `(at, server, client, txn)`, client `client`'s first op to `server`
    /// at tick `at`.
    fn scripted(
        exec: ExecutionMode,
        script: Vec<(u64, u32, u32, TxnTemplate)>,
    ) -> World<Wire<SemiPassiveMsg>> {
        let (mut world, _, _) = build(3, Vec::new(), exec, 5);
        let peer = NodeId::new(3);
        let script = script.into_iter().map(|(at, to, client, txn)| {
            let id = OpId::compose(client, 0);
            (
                at,
                NodeId::new(to),
                Wire::Invoke(ClientOp {
                    id,
                    client: peer,
                    txn,
                }),
            )
        });
        world.add_actor(Box::new(ScriptedPeer {
            script: script.collect(),
            got: Vec::new(),
        }));
        world
    }

    fn server(world: &World<Wire<SemiPassiveMsg>>, i: u32) -> &SemiPassiveServer {
        world.actor_ref::<SemiPassiveServer>(NodeId::new(i))
    }

    /// The replies the scripted client got, with their times.
    fn replies(world: &World<Wire<SemiPassiveMsg>>) -> Vec<(u64, Response)> {
        let got = &world
            .actor_ref::<ScriptedPeer<Wire<SemiPassiveMsg>>>(NodeId::new(3))
            .got;
        let replies = got.iter().filter_map(|(t, m)| match m {
            Wire::Reply(r) => Some((*t, r.clone())),
            _ => None,
        });
        replies.collect()
    }

    /// The ops of the batch instance `inst` decided.
    fn batch_ops(s: &SemiPassiveServer, inst: u64) -> Vec<OpId> {
        let batch = s.tech.pool.decided(inst).expect("decided");
        batch.0.iter().map(|e| e.op.id).collect()
    }

    fn read_write(k: u64, v: i64) -> TxnTemplate {
        TxnTemplate {
            ops: vec![
                OpTemplate::Read(Key(k)),
                OpTemplate::Write(Key(k), Value(v)),
            ]
            .into(),
        }
    }

    /// Op 1 goes alone into instance 0; ops 2 and 3 arrive while it
    /// decides and share the next instance, numbered by the log position
    /// of its first op.
    fn batch_script() -> Vec<(u64, u32, u32, TxnTemplate)> {
        vec![
            (100, 0, 1, write(1, 1)),
            (101, 0, 2, write(0, 5)),
            (102, 0, 3, read_write(0, 6)),
        ]
    }

    #[test]
    fn a_batch_runs_each_op_on_the_earlier_ones_writes() {
        let mut world = scripted(ExecutionMode::Deterministic, batch_script());
        world.start();
        world.run_until(SimTime::from_ticks(100_000));
        let (two, three) = (OpId::compose(2, 0), OpId::compose(3, 0));
        for i in 0..3 {
            let s = server(&world, i);
            assert_eq!(batch_ops(s, 0), [OpId::compose(1, 0)]);
            assert_eq!(batch_ops(s, 1), [two, three], "one instance, arrival order");
            assert!(
                s.tech.pool.decided(2).is_none(),
                "no instance inside a batch"
            );
            assert_eq!((s.tech.next_slot, s.tech.wal.len()), (3, 3));
            let k0 = s.shell.base.store.read(Key(0)).expect("exists");
            assert_eq!((k0.value, k0.version), (Value(6), 2));
            // The log holds each op's own writeset: versions 1, then 2.
            let k0_versions: Vec<u64> = (s.tech.wal.since(1))
                .map(|v| {
                    v.iter()
                        .find(|w| w.key == Key(0))
                        .expect("writes key 0")
                        .version
                })
                .collect();
            assert_eq!(k0_versions, [1, 2]);
        }
        let replies = replies(&world);
        let of = |op| replies.iter().filter(move |(_, r)| r.op == op);
        assert_eq!(of(three).count(), 3, "every server answers");
        for (_, r) in of(three) {
            assert_eq!(r.reads, [(Key(0), Value(5))], "op 3 reads op 2's write");
        }
    }

    #[test]
    fn a_deferred_server_takes_over_with_its_own_pending_set() {
        // Server 0 is down from the start: server 1 (rank 1) executes
        // the two ops it queued, non-deterministically, so the store
        // shows whose execution the group installed.
        let script = vec![(100, 1, 1, write(0, 1)), (101, 1, 2, write(1, 2))];
        let mut world = scripted(ExecutionMode::NonDeterministic, script);
        world.schedule_crash(SimTime::ZERO, NodeId::new(0));
        world.start();
        world.run_until(SimTime::from_ticks(200_000));
        for i in [1, 2] {
            let s = server(&world, i);
            assert_eq!(batch_ops(s, 0), [OpId::compose(1, 0), OpId::compose(2, 0)]);
            assert!(
                s.tech.pending.is_empty() && s.tech.queued.is_empty(),
                "site {i}"
            );
            let store = &s.shell.base.store;
            assert_eq!(store.read(Key(0)).expect("exists").value, Value(1_001));
            assert_eq!(store.read(Key(1)).expect("exists").value, Value(2_001));
        }
        assert_eq!(
            replies(&world).len(),
            4,
            "both live servers answer both ops"
        );
    }

    #[test]
    fn a_retry_of_a_batched_op_is_not_executed_again() {
        // Ops 2 and 3 are retried at other servers once their batch has
        // decided: each is answered from the client table.
        let mut script = batch_script();
        script.extend([(5_000, 1, 2, write(0, 5)), (5_000, 2, 3, read_write(0, 6))]);
        let mut world = scripted(ExecutionMode::Deterministic, script);
        world.start();
        world.run_until(SimTime::from_ticks(100_000));
        for i in 0..3 {
            let s = server(&world, i);
            assert_eq!(s.shell.base.committed, 3, "site {i}");
            assert_eq!((s.tech.next_slot, s.tech.wal.len()), (3, 3));
            assert!(s.tech.pending.is_empty());
        }
        let replies = replies(&world);
        let (first, again): (Vec<_>, Vec<_>) = replies.iter().partition(|(t, _)| *t < 5_000);
        assert_eq!((first.len(), again.len()), (9, 2));
        for (_, r) in again {
            assert!(
                first.iter().any(|(_, f)| f == r),
                "the recorded reply: {r:?}"
            );
        }
    }

    #[test]
    fn phase_skeleton_is_re_ex_ac_end() {
        let (mut world, _s, _c) =
            build(3, vec![vec![write(0, 1)]], ExecutionMode::Deterministic, 4);
        world.start();
        world.run_until(SimTime::from_ticks(500_000));
        let pt = crate::phase::PhaseTrace::from_trace(world.trace());
        assert_eq!(pt.canonical().expect("op done").to_string(), "RE EX AC END");
    }
}
