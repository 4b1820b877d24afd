//! Semi-passive replication (paper §3.5).
//!
//! A variant of passive replication that needs no view machinery: server
//! coordination and agreement coordination fold into a single run of
//! *consensus with deferred initial values*. For each slot, the first-
//! ranked server executes the pending request and proposes the resulting
//! update; lower-ranked servers defer — they execute and propose only
//! after a suspicion delay, so in the failure-free case exactly one
//! server pays the execution (like passive replication) while crashes
//! cost only an aggressive timeout, not a view change. The deferral rank
//! adapts to suspicions (the paper: "aggressive time-outs … to suspect
//! crashed processes"): servers the shell's failure detector suspects no
//! longer count ahead of this one, and a new suspicion that makes it
//! first in line executes at once.
//!
//! A writeset is copied once per hop: the executing server interns its
//! shadow overlay's records into the payload arena
//! ([`ServerBase::execute_shadow`](crate::protocols::common::ServerBase::execute_shadow)),
//! and every server appends each decided slot to its decision log
//! straight from the arena view (`RedoLog::append_view`), so the log is
//! a record column with no per-slot `WriteSet`. A run no member can
//! replay keeps neither the log's entries nor the pool's decided values.
//!
//! Skeleton: `RE EX AC END`.

use std::collections::BTreeMap;

use repl_db::{DurableRestore, Keyspace, RedoLog, Transfer, WriteSetRef};
use repl_gcs::{ConsEvent, ConsMsg, ConsensusConfig, ConsensusPool, Outbox};
use repl_sim::{Message, NodeId, SimDuration};

use crate::op::{ClientOp, OpId, Response};
use crate::phase::Phase;
use crate::protocols::common::{global_txn, ExecutionMode};
use crate::protocols::replica::{Ctx, Replica, Shell, Status, Technique, Wire};

/// What a deferred coordinator proposes for a slot: the operation it
/// picked, the update its execution produced, and the client response.
#[derive(Debug, Clone)]
pub struct Proposal {
    /// The chosen operation.
    pub op: ClientOp,
    /// The update to install everywhere.
    pub ws: WriteSetRef,
    /// The response to hand to the client.
    pub resp: Response,
}

impl Message for Proposal {
    fn wire_size(&self) -> usize {
        self.op.wire_size() + self.ws.wire_size() + self.resp.wire_size()
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
    Cons(ConsMsg<Proposal>),
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
    pool: ConsensusPool<Proposal>,
    /// What `pool` queued while handling one input; drained by
    /// `drive_pool`.
    pool_out: Outbox<ConsMsg<Proposal>, ConsEvent<Proposal>>,
    /// Operations awaiting a slot, served lowest id first. Id order lets
    /// low-numbered zero-think clients starve the others past
    /// `retry_after`. Arrival order ends that, but while a slot decides
    /// one request it makes each of a batch of clients wait behind all
    /// the others, a far worse tail; it waits for a batch per slot.
    pending: BTreeMap<OpId, ClientOp>,
    decided: BTreeMap<u64, Proposal>,
    next_slot: u64,
    /// Slot we have armed a deferral timer or proposed for.
    engaged_slot: Option<u64>,
    /// Decided writesets in slot order (slot == log index), so live
    /// servers can donate a catch-up suffix to a recovering peer.
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
            pending: BTreeMap::new(),
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

    fn execute_and_propose(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, SemiPassiveMsg>) {
        let Some((_, op)) = self.pending.iter().next() else {
            return;
        };
        let op = op.clone();
        sh.mark(ctx, Phase::Execution, op.id, 0);
        let txn = global_txn(op.id);
        // Every member consumes the decided slot exactly once (losing
        // proposals leak their span, which is safe and rare).
        let members = sh.servers().len() as u32;
        let (ws, resp) = sh.base.execute_shadow(&op, txn, members);
        self.pool.propose(
            self.next_slot,
            Proposal { op, ws, resp },
            &mut self.pool_out,
        );
        self.drive_pool(sh, ctx);
    }

    /// Applies what the consensus pool queued, records the slots it
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
        while let Some(p) = self.decided.remove(&self.next_slot) {
            progressed = true;
            self.next_slot += 1;
            self.engaged_slot = None;
            self.pending.remove(&p.op.id);
            // Mirror every decision so wal index == slot, even for
            // duplicate decision content (keeps donor watermarks exact);
            // a forgotten log only counts it.
            let wal = &mut self.wal;
            sh.base.read_payload(p.ws, |_, view| wal.append_view(view));
            if sh.already_answered(p.op.id) {
                // Already installed (duplicate decision content, or the
                // join donor answered it before the snapshot); this site
                // still consumed the slot.
                sh.base.release_payload(p.ws);
                continue;
            }
            sh.mark(ctx, Phase::AgreementCoordination, p.op.id, 0);
            sh.base.install_payload(p.ws);
            sh.base.release_payload(p.ws);
            sh.reply(ctx, p.op.client, p.resp);
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
        if sh.catching_up() || self.pending.contains_key(&op.id) {
            return;
        }
        self.pending.insert(op.id, op.clone());
        for m in sh.peers() {
            ctx.send(m, Wire::Proto(SemiPassiveMsg::Fwd(op.clone())));
        }
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
                if sh.status() == Status::Normal
                    && !sh.already_answered(op.id)
                    && !self.pending.contains_key(&op.id)
                {
                    self.pending.insert(op.id, op);
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
        // The store reflects slots `[0, next_slot)` exactly, so a
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
        self.pending.clear();
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
        self.pending.clear();
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
