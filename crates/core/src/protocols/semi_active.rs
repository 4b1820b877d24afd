//! Semi-active replication (paper §3.4, Fig. 4).
//!
//! Like active replication, every replica receives the totally ordered
//! request stream and executes it — but replicas need not be
//! deterministic: at each non-deterministic choice point the *leader*
//! makes the choice and imposes it on the followers with a
//! view-synchronous broadcast. Skeleton: `RE SC EX AC END` (the EX/AC
//! pair repeats per choice point; with deterministic execution the AC
//! phase disappears and the technique degenerates to active replication).
//!
//! Here the non-deterministic choice is the effective value of each write
//! (modelling scheduling-dependent results, see
//! [`ExecutionMode::NonDeterministic`]); the leader resolves all of an
//! operation's writes in one choice message.

use std::collections::{BTreeMap, HashMap, HashSet};

use repl_db::{Key, Keyspace, Transfer, Value};
use repl_gcs::{AbDeliver, BatchConfig, Outbox, ViewGroup, VsConfig, VsEvent, VsMsg};
use repl_sim::{impl_as_any, Actor, Context, Message, NodeId, SimDuration, SimTime, TimerId};

use crate::client::ProtocolMsg;
use crate::op::{accesses, ClientOp, OpId, Response};
use crate::phase::Phase;
use crate::protocols::common::{
    global_txn, settle_rejoin, AbMsg, AbcastEndpoint, AbcastImpl, DrainState, Elastic,
    ExecutionMode, MemberMsg, ServerBase, DRAIN_TICK_TAG, DRAIN_TICK_TICKS, JOIN_RETRY_TAG,
    JOIN_RETRY_TICKS, RESTORE_TAG,
};

/// The leader's resolution of an operation's non-deterministic choices.
#[derive(Debug, Clone)]
pub struct Choice {
    /// The operation the choice belongs to.
    pub op: OpId,
    /// The resolved value for each written key.
    pub writes: Vec<(Key, Value)>,
}

impl Message for Choice {
    fn wire_size(&self) -> usize {
        16 + self.writes.len() * 16
    }
}

/// Timer-tag base for the embedded view group (the ABCAST endpoint owns
/// the lower tag space).
const VG_BASE: u64 = repl_gcs::TAG_SPACE;

/// Wire messages of semi-active replication.
#[derive(Debug, Clone)]
pub enum SemiActiveMsg {
    /// Client → contact replica.
    Invoke(ClientOp),
    /// Request ordering (ABCAST).
    Ab(AbMsg<ClientOp>),
    /// Leader choices (VSCAST).
    Vs(VsMsg<Choice>),
    /// Replica → client.
    Reply(Response),
    /// Recovering replica → group: request a state snapshot.
    SyncReq,
    /// Live member → recovering replica: snapshot stamped with the
    /// donor's applied watermark (missed leader choices cannot be
    /// replayed, so the gap is covered by state, not re-execution).
    SyncData(Box<Transfer>),
    /// Elastic-membership handshake (join / drain / reroute).
    Member(MemberMsg),
}

impl Message for SemiActiveMsg {
    fn wire_size(&self) -> usize {
        match self {
            SemiActiveMsg::Invoke(op) => 8 + op.wire_size(),
            SemiActiveMsg::Ab(m) => m.wire_size(),
            SemiActiveMsg::Vs(m) => 8 + m.wire_size(),
            SemiActiveMsg::Reply(r) => 8 + r.wire_size(),
            SemiActiveMsg::SyncReq => 8,
            SemiActiveMsg::SyncData(t) => 8 + t.wire_size(),
            SemiActiveMsg::Member(m) => m.wire_size(),
        }
    }
}

impl ProtocolMsg for SemiActiveMsg {
    fn invoke(op: ClientOp) -> Self {
        SemiActiveMsg::Invoke(op)
    }
    fn response(&self) -> Option<&Response> {
        match self {
            SemiActiveMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
    fn reroute(&self) -> Option<(OpId, &[NodeId])> {
        match self {
            SemiActiveMsg::Member(MemberMsg::Reroute { op, servers }) => Some((*op, servers)),
            _ => None,
        }
    }
}

/// A semi-active replication server.
pub struct SemiActiveServer {
    /// Shared database/server state (public for post-run inspection).
    pub base: ServerBase,
    me: NodeId,
    group: Vec<NodeId>,
    ab: AbcastEndpoint<ClientOp>,
    vg: ViewGroup<Choice>,
    /// What `ab` / `vg` queued while handling one input; drained by
    /// `drive_ab` / `drive_vs`.
    ab_out: Outbox<AbMsg<ClientOp>, AbDeliver<ClientOp>>,
    vg_out: Outbox<VsMsg<Choice>, VsEvent<Choice>>,
    relayed: HashSet<OpId>,
    /// Waiting for the first snapshot reply after a crash.
    recovering: bool,
    /// Ordered-but-not-yet-applied operations, by global sequence.
    waiting: BTreeMap<u64, ClientOp>,
    next_apply: u64,
    choices: HashMap<OpId, Vec<(Key, Value)>>,
    issued: HashSet<OpId>,
    marks: bool,
    vs: VsConfig,
    /// Elastic-membership lifecycle (dormant without a membership plan).
    pub elastic: Elastic,
}

impl SemiActiveServer {
    /// Creates server `site` of `group`.
    pub fn new(
        site: u32,
        me: NodeId,
        group: Vec<NodeId>,
        keyspace: impl Into<Keyspace>,
        exec: ExecutionMode,
        abcast: AbcastImpl,
        vs: VsConfig,
    ) -> Self {
        let cons = vs.consensus;
        SemiActiveServer {
            base: ServerBase::new(site, keyspace, exec),
            me,
            ab: AbcastEndpoint::new(abcast, me, group.clone(), cons),
            vg: ViewGroup::new(me, group.clone(), vs),
            ab_out: Outbox::new(),
            vg_out: Outbox::new(),
            elastic: Elastic::new(me, group.clone()),
            group,
            relayed: HashSet::new(),
            recovering: false,
            waiting: BTreeMap::new(),
            next_apply: 0,
            choices: HashMap::new(),
            issued: HashSet::new(),
            marks: site == 0,
            vs,
        }
    }

    /// Marks this server a cold joiner: it boots with no state, rebuilds
    /// its view endpoint in join mode, and runs the join handshake on
    /// start before serving.
    pub fn begin_join(&mut self) {
        self.elastic.begin_join();
        self.vg = ViewGroup::join(self.me, self.elastic.remaining(), self.vs);
    }

    /// Sets the ordering-layer batching window (builder form).
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.ab.set_batching(batch);
        self
    }

    /// The current leader (lowest member of the installed view).
    pub fn leader(&self) -> NodeId {
        self.vg.view().primary()
    }

    fn is_leader(&self) -> bool {
        self.leader() == self.me && !self.vg.is_excluded()
    }

    /// Whether `op` needs a leader choice at all.
    fn needs_choice(&self, op: &ClientOp) -> bool {
        self.base.exec == ExecutionMode::NonDeterministic && op.txn.ops.iter().any(|o| o.is_write())
    }

    fn resolve_choice(&self, op: &ClientOp) -> Choice {
        let writes = accesses(&op.txn)
            .filter_map(|(k, w)| w.map(|v| (k, self.base.effective_value(v))))
            .collect();
        Choice { op: op.id, writes }
    }

    /// Applies what the ABCAST endpoint queued, parks what it ordered and
    /// applies whatever became applicable.
    fn drive_ab(&mut self, ctx: &mut Context<'_, SemiActiveMsg>) {
        let mut out = std::mem::take(&mut self.ab_out);
        repl_gcs::apply_outbox(ctx, &mut out, 0, SemiActiveMsg::Ab, |ctx, d| {
            self.on_ordered(ctx, d)
        });
        self.ab_out = out;
        self.process(ctx);
        settle_rejoin(&mut self.ab, &mut self.base, ctx.now().ticks());
    }

    fn on_ordered(&mut self, ctx: &mut Context<'_, SemiActiveMsg>, d: AbDeliver<ClientOp>) {
        if self.marks {
            ctx.mark(Phase::ServerCoordination.tag(), d.payload.id.0, d.gseq);
        }
        self.waiting.insert(d.gseq, d.payload);
    }

    /// Applies what the view group queued, records the choices it
    /// delivered and applies whatever became applicable.
    fn drive_vs(&mut self, ctx: &mut Context<'_, SemiActiveMsg>) {
        let mut out = std::mem::take(&mut self.vg_out);
        repl_gcs::apply_outbox(ctx, &mut out, VG_BASE, SemiActiveMsg::Vs, |_, ev| {
            self.on_vs_event(ev)
        });
        self.vg_out = out;
        self.process(ctx);
    }

    fn on_vs_event(&mut self, ev: VsEvent<Choice>) {
        match ev {
            VsEvent::Deliver { payload, .. } => {
                self.choices.entry(payload.op).or_insert(payload.writes);
            }
            VsEvent::ViewInstalled(_) => {
                // A new leader re-issues choices for everything stuck.
                self.issued.clear();
            }
            VsEvent::Excluded(_) => {}
        }
    }

    /// Applies ordered operations in sequence, pausing at operations whose
    /// choice has not arrived yet.
    fn process(&mut self, ctx: &mut Context<'_, SemiActiveMsg>) {
        loop {
            let Some(op) = self.waiting.get(&self.next_apply).cloned() else {
                return;
            };
            if self.base.cached(op.id).is_some() || self.elastic.answered.contains(&op.id) {
                self.waiting.remove(&self.next_apply);
                self.next_apply += 1;
                continue;
            }
            let needs = self.needs_choice(&op);
            if needs && !self.choices.contains_key(&op.id) {
                // Leader resolves; followers wait.
                if self.is_leader() && !self.issued.contains(&op.id) {
                    self.issued.insert(op.id);
                    if self.marks {
                        ctx.mark(Phase::Execution.tag(), op.id.0, 0);
                    }
                    let choice = self.resolve_choice(&op);
                    self.vg.broadcast(choice, &mut self.vg_out);
                    self.drive_vs(ctx);
                    // drive_vs re-enters process(); stop this iteration.
                }
                return;
            }
            self.waiting.remove(&self.next_apply);
            self.next_apply += 1;
            if self.marks {
                if !needs {
                    ctx.mark(Phase::Execution.tag(), op.id.0, 0);
                } else {
                    ctx.mark(Phase::AgreementCoordination.tag(), op.id.0, 0);
                }
            }
            let resp = self.execute(&op);
            self.base.remember(&resp);
            ctx.send(op.client, SemiActiveMsg::Reply(resp));
        }
    }

    /// Executes with the agreed choice (or deterministically).
    fn execute(&mut self, op: &ClientOp) -> Response {
        let txn = global_txn(op.id);
        let choice: HashMap<Key, Value> = self
            .choices
            .remove(&op.id)
            .map(|w| w.into_iter().collect())
            .unwrap_or_default();
        self.base.tm.begin(txn);
        let mut reads = Vec::new();
        for (key, write) in accesses(&op.txn) {
            match write {
                None => {
                    let v = self
                        .base
                        .tm
                        .read(&self.base.store, txn, key)
                        .expect("txn active")
                        .map_or(Value(0), |v| v.value);
                    self.base
                        .history
                        .record(self.base.site, txn, key, repl_db::AccessKind::Read);
                    reads.push((key, v));
                }
                Some(v) => {
                    // The leader's choice overrides local non-determinism.
                    let v = choice.get(&key).copied().unwrap_or(v);
                    self.base
                        .tm
                        .write(&mut self.base.store, txn, key, v)
                        .expect("txn active");
                    self.base
                        .history
                        .record(self.base.site, txn, key, repl_db::AccessKind::Write);
                }
            }
        }
        let ws = self.base.tm.commit(txn).expect("txn active");
        self.base.history.mark_committed(txn);
        self.base.committed += 1;
        if let Some(t) = &mut self.base.tier {
            t.note_commit(&ws);
        }
        Response {
            op: op.id,
            committed: true,
            reads,
        }
    }

    fn rejoin_now(&mut self, ctx: &mut Context<'_, SemiActiveMsg>) {
        if self.group.len() == 1 {
            self.ab.rejoin(&mut self.ab_out);
            self.drive_ab(ctx);
            self.vg.rejoin(&mut self.vg_out);
            self.drive_vs(ctx);
            return;
        }
        self.recovering = true;
        for &n in &self.group {
            if n != self.me {
                ctx.send(n, SemiActiveMsg::SyncReq);
            }
        }
    }

    fn invoke(&mut self, ctx: &mut Context<'_, SemiActiveMsg>, op: ClientOp) {
        if let Some(resp) = self.base.cached(op.id) {
            ctx.send(op.client, SemiActiveMsg::Reply(resp));
            return;
        }
        if self.elastic.rerouting() {
            ctx.send(
                op.client,
                SemiActiveMsg::Member(MemberMsg::Reroute {
                    op: op.id,
                    servers: self.elastic.remaining(),
                }),
            );
            return;
        }
        if self.elastic.joining {
            self.elastic.buffered.push(op);
            return;
        }
        if !self.relayed.insert(op.id) {
            return;
        }
        self.ab.broadcast(op, &mut self.ab_out);
        self.drive_ab(ctx);
    }

    fn member(&mut self, ctx: &mut Context<'_, SemiActiveMsg>, from: NodeId, m: MemberMsg) {
        match m {
            MemberMsg::JoinReq => {
                if !self.elastic.is_coordinator() || self.elastic.joining || self.recovering {
                    return;
                }
                // Admission, ordering-group switch and snapshot are
                // atomic here: every ordered request past `next_apply`
                // reaches the joiner, everything below is in the
                // snapshot. (The view group runs its own admission: the
                // joiner calls vg.rejoin after installing this state.)
                self.elastic.admit(from);
                self.group = self.elastic.servers.clone();
                self.ab.set_group(self.elastic.servers.clone());
                for &n in &self.elastic.servers {
                    if n != self.elastic.me && n != from {
                        ctx.send(
                            n,
                            SemiActiveMsg::Member(MemberMsg::ViewAdd {
                                servers: self.elastic.servers.clone(),
                            }),
                        );
                    }
                }
                // Mirror the SyncReq donor path: snapshot of applied
                // state only — waiting operations lack leader choices.
                let t =
                    Transfer::committed_snapshot(&self.base.store, &self.base.tm, self.next_apply);
                let (pos, gpos) = if self.ab.is_seq() {
                    (self.next_apply, self.next_apply)
                } else {
                    (0, 0) // full-history refill; instance cursor unknown
                };
                ctx.send(
                    from,
                    SemiActiveMsg::Member(MemberMsg::Welcome {
                        servers: self.elastic.servers.clone(),
                        transfer: Some(Box::new(t)),
                        pos,
                        gpos,
                        answered: Elastic::answered_floor(&self.base),
                    }),
                );
            }
            MemberMsg::ViewAdd { servers } => {
                self.elastic.install(servers);
                self.group = self.elastic.servers.clone();
                self.ab.set_group(self.elastic.servers.clone());
            }
            MemberMsg::ViewAck { .. } => {}
            MemberMsg::Welcome {
                servers,
                transfer,
                pos,
                gpos,
                answered,
            } => {
                if !self.elastic.joining {
                    return; // duplicate welcome (retried JoinReq)
                }
                self.elastic.joining = false;
                self.elastic.install(servers);
                self.group = self.elastic.servers.clone();
                self.ab.set_group(self.elastic.servers.clone());
                if let Some(t) = transfer {
                    let high = self.base.install_transfer(&t);
                    self.next_apply = self.next_apply.max(high);
                    self.waiting = self.waiting.split_off(&self.next_apply);
                }
                self.elastic.answered = answered.into_iter().collect();
                self.ab.skip_to(pos, gpos);
                self.ab.rejoin(&mut self.ab_out);
                self.drive_ab(ctx);
                // State is installed: ask the view group to admit us.
                self.vg.rejoin(&mut self.vg_out);
                self.drive_vs(ctx);
                for op in std::mem::take(&mut self.elastic.buffered) {
                    self.invoke(ctx, op);
                }
            }
            MemberMsg::ViewDrop { node } => {
                self.elastic.remove(node);
                self.group = self.elastic.servers.clone();
                self.ab.set_group(self.elastic.servers.clone());
            }
            MemberMsg::Reroute { .. } => {}
        }
    }

    fn try_retire(&mut self, ctx: &mut Context<'_, SemiActiveMsg>) {
        if self.elastic.drain != DrainState::Draining {
            return;
        }
        if self.ab.pending() > 0 {
            ctx.set_timer(SimDuration::from_ticks(DRAIN_TICK_TICKS), DRAIN_TICK_TAG);
            return;
        }
        let was_orderer = self.ab.is_orderer(self.elastic.me);
        let remaining = self.elastic.remaining();
        self.ab.set_group(remaining.clone());
        if was_orderer {
            // Sequencer flavour: ship the order log to the successor so
            // gseq assignment continues where this node stopped.
            self.ab.handoff(remaining[0], &mut self.ab_out);
            self.drive_ab(ctx);
        }
        // Voluntary view-group exit: survivors install the shrunk view
        // and the next leader re-issues any stuck choices.
        self.vg.leave(&mut self.vg_out);
        self.drive_vs(ctx);
        for &n in &remaining {
            ctx.send(
                n,
                SemiActiveMsg::Member(MemberMsg::ViewDrop {
                    node: self.elastic.me,
                }),
            );
        }
        self.elastic.servers = remaining.clone();
        self.group = remaining;
        self.elastic.drain = DrainState::Retired;
    }
}

impl Actor<SemiActiveMsg> for SemiActiveServer {
    fn on_start(&mut self, ctx: &mut Context<'_, SemiActiveMsg>) {
        repl_gcs::Component::on_start(&mut self.vg, &mut self.vg_out);
        self.drive_vs(ctx);
        if self.elastic.joining {
            self.base.recovery.begin(ctx.now().ticks());
            ctx.send(
                self.elastic.join_target(),
                SemiActiveMsg::Member(MemberMsg::JoinReq),
            );
            ctx.set_timer(SimDuration::from_ticks(JOIN_RETRY_TICKS), JOIN_RETRY_TAG);
        }
    }

    fn on_drain(&mut self, ctx: &mut Context<'_, SemiActiveMsg>) {
        if self.elastic.drain == DrainState::Active {
            self.elastic.drain = DrainState::Draining;
            self.try_retire(ctx);
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, SemiActiveMsg>,
        from: NodeId,
        msg: SemiActiveMsg,
    ) {
        if self.base.restoring() {
            return; // deaf until the volume restore download completes
        }
        match msg {
            SemiActiveMsg::Invoke(op) => self.invoke(ctx, op),
            SemiActiveMsg::Ab(m) => {
                self.ab.on_message(from, m, &mut self.ab_out);
                self.drive_ab(ctx);
            }
            SemiActiveMsg::Vs(m) => {
                repl_gcs::Component::on_message(&mut self.vg, from, m, &mut self.vg_out);
                self.drive_vs(ctx);
            }
            SemiActiveMsg::Reply(_) => {}
            SemiActiveMsg::Member(m) => self.member(ctx, from, m),
            SemiActiveMsg::SyncReq => {
                if !self.recovering
                    && !self.vg.is_excluded()
                    && !self.vg.is_joining()
                    && !self.elastic.joining
                {
                    let t = Transfer::committed_snapshot(
                        &self.base.store,
                        &self.base.tm,
                        self.next_apply,
                    );
                    ctx.send(from, SemiActiveMsg::SyncData(Box::new(t)));
                }
            }
            SemiActiveMsg::SyncData(t) => {
                if self.recovering {
                    self.recovering = false;
                    let high = self.base.install_transfer(&t);
                    // Fast-forward past the snapshot: those operations'
                    // leader choices are gone and their effects are
                    // already in the installed state.
                    self.next_apply = self.next_apply.max(high);
                    self.waiting = self.waiting.split_off(&self.next_apply);
                    self.ab.rejoin(&mut self.ab_out);
                    self.drive_ab(ctx);
                    self.vg.rejoin(&mut self.vg_out);
                    self.drive_vs(ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SemiActiveMsg>, _timer: TimerId, tag: u64) {
        if tag == RESTORE_TAG {
            self.base.finish_restore();
            self.rejoin_now(ctx);
            return;
        }
        if tag == JOIN_RETRY_TAG {
            if self.elastic.joining {
                ctx.send(
                    self.elastic.join_target(),
                    SemiActiveMsg::Member(MemberMsg::JoinReq),
                );
                ctx.set_timer(SimDuration::from_ticks(JOIN_RETRY_TICKS), JOIN_RETRY_TAG);
            }
            return;
        }
        if tag == DRAIN_TICK_TAG {
            self.try_retire(ctx);
            return;
        }
        if self.base.restoring() {
            return;
        }
        if tag >= VG_BASE {
            repl_gcs::Component::on_timer(&mut self.vg, tag - VG_BASE, &mut self.vg_out);
            self.drive_vs(ctx);
        } else {
            self.ab.on_timer(tag, &mut self.ab_out);
            self.drive_ab(ctx);
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, SemiActiveMsg>) {
        self.base.recovery.begin(ctx.now().ticks());
        if let Some(plan) = self.base.begin_restore(ctx.now().ticks()) {
            // The durable tier restored the prefix up to `plan.token`;
            // the leader choices behind the erased suffix are gone, so
            // (as with plain crashes) the remaining gap is covered by a
            // peer snapshot through the normal SyncReq path afterwards.
            self.next_apply = plan.token;
            self.ab.rewind_to(plan.token);
            if plan.delay > 0 {
                ctx.set_timer(SimDuration::from_ticks(plan.delay), RESTORE_TAG);
                return;
            }
            self.base.finish_restore();
        }
        self.rejoin_now(ctx);
    }

    fn on_volume_loss(&mut self, now: SimTime) {
        self.base.wipe_volume(now.ticks());
        // The applied cursor and the buffered stream die with the volume.
        self.waiting.clear();
        self.choices.clear();
        self.issued.clear();
        self.next_apply = 0;
    }

    fn on_settle(&mut self, ctx: &mut Context<'_, SemiActiveMsg>) {
        self.base.seal_now(ctx.now().ticks(), self.next_apply);
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientActor;
    use repl_sim::{SimConfig, SimDuration, SimTime, World};
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
        abcast: AbcastImpl,
        seed: u64,
    ) -> (World<SemiActiveMsg>, Vec<NodeId>, Vec<NodeId>) {
        let mut world = World::new(SimConfig::new(seed));
        let servers: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        for i in 0..n {
            world.add_actor(Box::new(SemiActiveServer::new(
                i,
                NodeId::new(i),
                servers.clone(),
                16,
                exec,
                abcast,
                VsConfig::default(),
            )));
        }
        let mut clients = Vec::new();
        for (c, t) in txns.into_iter().enumerate() {
            let client = ClientActor::<SemiActiveMsg>::new(
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
    fn nondeterministic_execution_converges_under_leader_choices() {
        // The exact scenario that breaks active replication (see
        // active::tests::nondeterminism_breaks_active_replication) is
        // harmless here: the leader's choice is imposed on everyone.
        let (mut world, servers, clients) = build(
            3,
            vec![vec![write(0, 1), write(1, 2)], vec![write(2, 3)]],
            ExecutionMode::NonDeterministic,
            AbcastImpl::Sequencer,
            1,
        );
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        for &c in &clients {
            assert!(world.actor_ref::<ClientActor<SemiActiveMsg>>(c).is_done());
        }
        let fp0 = world
            .actor_ref::<SemiActiveServer>(servers[0])
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<SemiActiveServer>(s)
                    .base
                    .store
                    .fingerprint(),
                fp0,
                "replica {s} diverged despite leader choices"
            );
        }
    }

    #[test]
    fn reads_observe_leader_chosen_values() {
        let (mut world, _servers, clients) = build(
            3,
            vec![vec![write(5, 7), read(5)]],
            ExecutionMode::NonDeterministic,
            AbcastImpl::Sequencer,
            2,
        );
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        let client = world.actor_ref::<ClientActor<SemiActiveMsg>>(clients[0]);
        let recs: Vec<_> = client.completed().collect();
        assert_eq!(recs.len(), 2);
        let observed = recs[1].response.as_ref().expect("responded").reads[0].1;
        // The leader is site 0: its perturbation is v*1000 + 0.
        assert_eq!(observed, Value(7_000), "read must see the leader's choice");
    }

    #[test]
    fn deterministic_mode_degenerates_to_active() {
        let (mut world, servers, _clients) = build(
            3,
            vec![vec![write(0, 1)]],
            ExecutionMode::Deterministic,
            AbcastImpl::Sequencer,
            3,
        );
        world.start();
        world.run_until(SimTime::from_ticks(200_000));
        let pt = crate::phase::PhaseTrace::from_trace(world.trace());
        assert_eq!(pt.canonical().expect("op done").to_string(), "RE SC EX END");
        let fp0 = world
            .actor_ref::<SemiActiveServer>(servers[0])
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<SemiActiveServer>(s)
                    .base
                    .store
                    .fingerprint(),
                fp0
            );
        }
    }

    #[test]
    fn phase_skeleton_matches_figure_4() {
        let (mut world, _s, _c) = build(
            3,
            vec![vec![write(0, 1)]],
            ExecutionMode::NonDeterministic,
            AbcastImpl::Sequencer,
            4,
        );
        world.start();
        world.run_until(SimTime::from_ticks(200_000));
        let pt = crate::phase::PhaseTrace::from_trace(world.trace());
        assert_eq!(
            pt.canonical().expect("op done").to_string(),
            "RE SC EX AC END"
        );
    }

    #[test]
    fn leader_crash_new_leader_reissues_choices() {
        let (mut world, servers, clients) = build(
            3,
            vec![vec![write(0, 1), write(1, 2), write(2, 3)]],
            ExecutionMode::NonDeterministic,
            AbcastImpl::Consensus,
            5,
        );
        world.start();
        world.schedule_crash(SimTime::from_ticks(2_500), servers[0]);
        world.run_until(SimTime::from_ticks(2_000_000));
        let client = world.actor_ref::<ClientActor<SemiActiveMsg>>(clients[0]);
        assert!(client.is_done(), "client stuck after leader crash");
        let fp1 = world
            .actor_ref::<SemiActiveServer>(servers[1])
            .base
            .store
            .fingerprint();
        let fp2 = world
            .actor_ref::<SemiActiveServer>(servers[2])
            .base
            .store
            .fingerprint();
        assert_eq!(fp1, fp2, "survivors diverged after leader failover");
    }
}
