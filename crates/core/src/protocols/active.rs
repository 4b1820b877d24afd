//! Active replication — the state machine approach (paper §3.2, Fig. 2).
//!
//! Every replica receives the same totally ordered request stream (Atomic
//! Broadcast) and executes every request; determinism makes the replicas
//! interchangeable, so failures are fully transparent: the client simply
//! takes the first of the n replies.
//!
//! Phases: RE and SC merge into the ABCAST; there is **no** agreement
//! coordination. Skeleton: `RE SC EX END`.
//!
//! The client addresses the group through a contact replica which relays
//! the request into the ABCAST; on timeout it re-contacts another replica
//! (duplicates are suppressed by the order-delivery path).

use std::collections::HashSet;

use repl_db::Keyspace;
use repl_gcs::{AbDeliver, BatchConfig, Outbox};
use repl_sim::{impl_as_any, Actor, Context, Message, NodeId, SimDuration, SimTime, TimerId};

use crate::client::ProtocolMsg;
use crate::op::{ClientOp, OpId, Response};
use crate::phase::Phase;
use crate::protocols::common::{
    global_txn, settle_rejoin, AbMsg, AbcastEndpoint, AbcastImpl, DrainState, Elastic,
    ExecutionMode, MemberMsg, ServerBase, ShardCtx, DRAIN_TICK_TAG, DRAIN_TICK_TICKS,
    JOIN_RETRY_TAG, JOIN_RETRY_TICKS, RESTORE_TAG,
};
use repl_db::Transfer;
use repl_gcs::ConsensusConfig;

/// Wire messages of active replication.
#[derive(Debug, Clone)]
pub enum ActiveMsg {
    /// Client → contact replica.
    Invoke(ClientOp),
    /// Replica ↔ replica ABCAST traffic.
    Ab(AbMsg<ClientOp>),
    /// Replica → client.
    Reply(Response),
    /// Elastic-membership handshake (join / drain / reroute).
    Member(MemberMsg),
}

impl Message for ActiveMsg {
    fn wire_size(&self) -> usize {
        match self {
            ActiveMsg::Invoke(op) => 8 + op.wire_size(),
            ActiveMsg::Ab(m) => m.wire_size(),
            ActiveMsg::Reply(r) => 8 + r.wire_size(),
            ActiveMsg::Member(m) => m.wire_size(),
        }
    }
}

impl ProtocolMsg for ActiveMsg {
    fn invoke(op: ClientOp) -> Self {
        ActiveMsg::Invoke(op)
    }
    fn response(&self) -> Option<&Response> {
        match self {
            ActiveMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
    fn reroute(&self) -> Option<(OpId, &[NodeId])> {
        match self {
            ActiveMsg::Member(MemberMsg::Reroute { op, servers }) => Some((*op, servers)),
            _ => None,
        }
    }
}

/// An active-replication server.
pub struct ActiveServer {
    /// Shared database/server state (public for post-run inspection).
    pub base: ServerBase,
    ab: AbcastEndpoint<ClientOp>,
    /// What `ab` queued while handling one input; drained by `drain`.
    ab_out: Outbox<AbMsg<ClientOp>, AbDeliver<ClientOp>>,
    relayed: HashSet<OpId>,
    marks: bool,
    /// Elastic-membership lifecycle (dormant without a membership plan).
    pub elastic: Elastic,
    /// Sharded topology (cross-shard runs only): present, the ABCAST is
    /// the genuine multicast, cross-shard operations are ordered only at
    /// the groups they touch, and each member executes just its own
    /// shard's part.
    shard: Option<ShardCtx>,
}

impl ActiveServer {
    /// Creates server `site` of `group`.
    pub fn new(
        site: u32,
        me: NodeId,
        group: Vec<NodeId>,
        keyspace: impl Into<Keyspace>,
        exec: ExecutionMode,
        abcast: AbcastImpl,
        cons: ConsensusConfig,
    ) -> Self {
        ActiveServer {
            base: ServerBase::new(site, keyspace, exec),
            ab: AbcastEndpoint::new(abcast, me, group.clone(), cons),
            ab_out: Outbox::new(),
            relayed: HashSet::new(),
            // Exactly one process marks server-side phases (see phase.rs).
            marks: site == 0,
            elastic: Elastic::new(me, group),
            shard: None,
        }
    }

    /// Switches this server to the sharded cross-shard mode: the ABCAST
    /// endpoint becomes the genuine multicast over `ctx`'s topology.
    /// Call before the run starts; faults and membership changes are not
    /// supported in this mode (the runner rejects such plans).
    pub fn enable_cross_shard(&mut self, ctx: ShardCtx) {
        self.ab = AbcastEndpoint::new_genuine(self.elastic.me, &ctx);
        self.shard = Some(ctx);
    }

    /// Marks this server a cold joiner: it boots with no state and runs
    /// the join handshake on start before serving.
    pub fn begin_join(&mut self) {
        self.elastic.begin_join();
    }

    /// Sets the ordering-layer batching window (builder form).
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.ab.set_batching(batch);
        self
    }

    /// Applies what the ABCAST endpoint queued and executes what it
    /// delivered.
    fn drain(&mut self, ctx: &mut Context<'_, ActiveMsg>) {
        let mut out = std::mem::take(&mut self.ab_out);
        repl_gcs::apply_outbox(ctx, &mut out, 0, ActiveMsg::Ab, |ctx, d| {
            self.deliver(ctx, d)
        });
        self.ab_out = out;
        settle_rejoin(&mut self.ab, &mut self.base, ctx.now().ticks());
    }

    fn deliver(&mut self, ctx: &mut Context<'_, ActiveMsg>, d: AbDeliver<ClientOp>) {
        let op = d.payload;
        if self.base.cached(op.id).is_some() || self.elastic.answered.contains(&op.id) {
            return; // duplicate ordering of a retried op
        }
        if self.marks {
            ctx.mark(Phase::ServerCoordination.tag(), op.id.0, d.gseq);
            ctx.mark(Phase::Execution.tag(), op.id.0, 0);
        }
        // Sharded cross-shard operations: execute only this shard's
        // part, under the op's global transaction id — the touched
        // groups' histories splice into one transaction.
        let resp = match &self.shard {
            Some(sc) if sc.is_cross(&op) => {
                let local = sc.local_part(&op);
                self.base.execute_commit(&local, global_txn(op.id)).1
            }
            _ => self.base.execute_commit(&op, global_txn(op.id)).1,
        };
        self.base.remember(&resp);
        // Every replica answers; the client keeps the first reply
        // (per group, in the sharded mode — partials merge there).
        ctx.send(op.client, ActiveMsg::Reply(resp));
    }

    fn rejoin_now(&mut self, ctx: &mut Context<'_, ActiveMsg>) {
        self.ab.rejoin(&mut self.ab_out);
        self.drain(ctx);
    }

    fn invoke(&mut self, ctx: &mut Context<'_, ActiveMsg>, op: ClientOp) {
        if let Some(resp) = self.base.cached(op.id) {
            ctx.send(op.client, ActiveMsg::Reply(resp));
            return;
        }
        if self.elastic.rerouting() {
            ctx.send(
                op.client,
                ActiveMsg::Member(MemberMsg::Reroute {
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
            return; // already in the ordering pipeline
        }
        match &self.shard {
            Some(sc) => {
                let dests = sc.dests(&op.txn);
                self.ab.multicast(op, &dests, &mut self.ab_out);
            }
            None => {
                self.ab.broadcast(op, &mut self.ab_out);
            }
        }
        self.drain(ctx);
    }

    fn member(&mut self, ctx: &mut Context<'_, ActiveMsg>, from: NodeId, m: MemberMsg) {
        match m {
            MemberMsg::JoinReq => {
                if !self.elastic.is_coordinator() || self.elastic.joining {
                    return;
                }
                // Admission, group switch and snapshot happen atomically
                // in this handler: every Ordered message after this point
                // reaches the joiner, everything before is in the
                // snapshot. A retried JoinReq re-sends the (idempotent)
                // welcome.
                self.elastic.admit(from);
                self.ab.set_group(self.elastic.servers.clone());
                for &n in &self.elastic.servers {
                    if n != self.elastic.me && n != from {
                        ctx.send(
                            n,
                            ActiveMsg::Member(MemberMsg::ViewAdd {
                                servers: self.elastic.servers.clone(),
                            }),
                        );
                    }
                }
                let transfer = Transfer::snapshot(&self.base.store, self.ab.delivered_gseq());
                ctx.send(
                    from,
                    ActiveMsg::Member(MemberMsg::Welcome {
                        servers: self.elastic.servers.clone(),
                        transfer: Some(Box::new(transfer)),
                        pos: self.ab.position(),
                        gpos: self.ab.delivered_gseq(),
                        answered: Elastic::answered_floor(&self.base),
                    }),
                );
            }
            MemberMsg::ViewAdd { servers } => {
                self.elastic.install(servers);
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
                self.ab.set_group(self.elastic.servers.clone());
                if let Some(t) = transfer {
                    self.base.install_transfer(&t);
                }
                self.elastic.answered = answered.into_iter().collect();
                self.ab.skip_to(pos, gpos);
                self.rejoin_now(ctx);
                for op in std::mem::take(&mut self.elastic.buffered) {
                    self.invoke(ctx, op);
                }
            }
            MemberMsg::ViewDrop { node } => {
                self.elastic.remove(node);
                self.ab.set_group(self.elastic.servers.clone());
            }
            MemberMsg::Reroute { .. } => {}
        }
    }

    fn try_retire(&mut self, ctx: &mut Context<'_, ActiveMsg>) {
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
            // gseq assignment continues where this node stopped (no-op
            // for the consensus flavour, which has no fixed role).
            self.ab.handoff(remaining[0], &mut self.ab_out);
            self.drain(ctx);
        }
        for &n in &remaining {
            ctx.send(
                n,
                ActiveMsg::Member(MemberMsg::ViewDrop {
                    node: self.elastic.me,
                }),
            );
        }
        self.elastic.servers = remaining;
        self.elastic.drain = DrainState::Retired;
    }
}

impl Actor<ActiveMsg> for ActiveServer {
    fn on_message(&mut self, ctx: &mut Context<'_, ActiveMsg>, from: NodeId, msg: ActiveMsg) {
        if self.base.restoring() {
            return; // deaf until the volume restore download completes
        }
        match msg {
            ActiveMsg::Invoke(op) => self.invoke(ctx, op),
            ActiveMsg::Ab(m) => {
                self.ab.on_message(from, m, &mut self.ab_out);
                self.drain(ctx);
            }
            ActiveMsg::Reply(_) => {}
            ActiveMsg::Member(m) => self.member(ctx, from, m),
        }
    }

    fn on_start(&mut self, ctx: &mut Context<'_, ActiveMsg>) {
        if self.elastic.joining {
            self.base.recovery.begin(ctx.now().ticks());
            ctx.send(
                self.elastic.join_target(),
                ActiveMsg::Member(MemberMsg::JoinReq),
            );
            ctx.set_timer(SimDuration::from_ticks(JOIN_RETRY_TICKS), JOIN_RETRY_TAG);
        }
    }

    fn on_drain(&mut self, ctx: &mut Context<'_, ActiveMsg>) {
        if self.elastic.drain == DrainState::Active {
            self.elastic.drain = DrainState::Draining;
            self.try_retire(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ActiveMsg>, _timer: TimerId, tag: u64) {
        if tag == RESTORE_TAG {
            self.base.finish_restore();
            self.rejoin_now(ctx);
            return;
        }
        if tag == JOIN_RETRY_TAG {
            if self.elastic.joining {
                ctx.send(
                    self.elastic.join_target(),
                    ActiveMsg::Member(MemberMsg::JoinReq),
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
        self.ab.on_timer(tag, &mut self.ab_out);
        self.drain(ctx);
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, ActiveMsg>) {
        // State survives the crash; the ordered stream does not. Rejoin
        // the ABCAST to refill the missed suffix — replaying it through
        // the normal delivery path re-executes exactly the missed ops
        // (executed ones are suppressed by the response cache).
        self.base.recovery.begin(ctx.now().ticks());
        if let Some(plan) = self.base.begin_restore(ctx.now().ticks()) {
            // The volume is gone: the durable tier restored a prefix;
            // rewind the stream cursor so the rejoin replays the rest.
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
    }

    fn on_settle(&mut self, ctx: &mut Context<'_, ActiveMsg>) {
        self.base.seal_now(ctx.now().ticks(), self.ab.position());
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientActor;
    use repl_db::{Key, Value};
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
        n_servers: u32,
        txns_per_client: Vec<Vec<TxnTemplate>>,
        abcast: AbcastImpl,
        exec: ExecutionMode,
        seed: u64,
    ) -> (World<ActiveMsg>, Vec<NodeId>, Vec<NodeId>) {
        let mut world = World::new(SimConfig::new(seed));
        let servers: Vec<NodeId> = (0..n_servers).map(NodeId::new).collect();
        for i in 0..n_servers {
            world.add_actor(Box::new(ActiveServer::new(
                i,
                NodeId::new(i),
                servers.clone(),
                16,
                exec,
                abcast,
                ConsensusConfig::default(),
            )));
        }
        let mut clients = Vec::new();
        for (c, txns) in txns_per_client.into_iter().enumerate() {
            let client = ClientActor::<ActiveMsg>::new(
                c as u32,
                servers.clone(),
                c % n_servers as usize,
                txns,
                SimDuration::from_ticks(100),
                SimDuration::from_ticks(20_000),
            );
            clients.push(world.add_actor(Box::new(client)));
        }
        (world, servers, clients)
    }

    #[test]
    fn single_client_write_then_read() {
        let (mut world, servers, clients) = build(
            3,
            vec![vec![write(1, 7), read(1)]],
            AbcastImpl::Sequencer,
            ExecutionMode::Deterministic,
            1,
        );
        world.start();
        world.run_until(SimTime::from_ticks(200_000));
        let client = world.actor_ref::<ClientActor<ActiveMsg>>(clients[0]);
        assert!(client.is_done());
        let recs: Vec<_> = client.completed().collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(
            recs[1].response.as_ref().expect("responded").reads,
            vec![(Key(1), Value(7))]
        );
        // All replicas converge.
        let fp0 = world
            .actor_ref::<ActiveServer>(servers[0])
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world.actor_ref::<ActiveServer>(s).base.store.fingerprint(),
                fp0
            );
        }
    }

    #[test]
    fn concurrent_writers_converge_with_determinism() {
        let (mut world, servers, _clients) = build(
            4,
            vec![
                vec![write(0, 1), write(1, 2), write(2, 3)],
                vec![write(0, 10), write(1, 20), write(2, 30)],
                vec![write(0, 100), write(2, 300)],
            ],
            AbcastImpl::Sequencer,
            ExecutionMode::Deterministic,
            7,
        );
        world.start();
        world.run_until(SimTime::from_ticks(500_000));
        let fp0 = world
            .actor_ref::<ActiveServer>(servers[0])
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world.actor_ref::<ActiveServer>(s).base.store.fingerprint(),
                fp0,
                "replica {s} diverged despite total order + determinism"
            );
        }
    }

    #[test]
    fn nondeterminism_breaks_active_replication() {
        // The paper's determinism requirement, demonstrated: with
        // site-dependent execution, replicas diverge.
        let (mut world, servers, _clients) = build(
            3,
            vec![vec![write(0, 1)]],
            AbcastImpl::Sequencer,
            ExecutionMode::NonDeterministic,
            2,
        );
        world.start();
        world.run_until(SimTime::from_ticks(200_000));
        let fp0 = world
            .actor_ref::<ActiveServer>(servers[0])
            .base
            .store
            .fingerprint();
        let fp1 = world
            .actor_ref::<ActiveServer>(servers[1])
            .base
            .store
            .fingerprint();
        assert_ne!(fp0, fp1, "divergence expected without determinism");
    }

    #[test]
    fn replica_crash_is_transparent_to_clients() {
        // With consensus-based ABCAST, a replica crash (even the round-0
        // coordinator) neither loses operations nor requires the client to
        // do anything beyond its normal retry.
        let (mut world, servers, clients) = build(
            5,
            vec![vec![write(0, 1), write(1, 2), read(0)]],
            AbcastImpl::Consensus,
            ExecutionMode::Deterministic,
            3,
        );
        world.schedule_crash(SimTime::from_ticks(500), servers[0]);
        world.start();
        world.run_until(SimTime::from_ticks(2_000_000));
        let client = world.actor_ref::<ClientActor<ActiveMsg>>(clients[0]);
        assert!(client.is_done(), "client did not finish after crash");
        let last = client.records.last().expect("records exist");
        assert_eq!(
            last.response.as_ref().expect("responded").reads,
            vec![(Key(0), Value(1))]
        );
        // Surviving replicas converge.
        let fp1 = world
            .actor_ref::<ActiveServer>(servers[1])
            .base
            .store
            .fingerprint();
        for &s in &servers[2..] {
            assert_eq!(
                world.actor_ref::<ActiveServer>(s).base.store.fingerprint(),
                fp1
            );
        }
    }

    #[test]
    fn history_is_one_copy_serializable() {
        let (mut world, servers, _clients) = build(
            3,
            vec![vec![write(0, 1), read(1)], vec![write(1, 2), read(0)]],
            AbcastImpl::Sequencer,
            ExecutionMode::Deterministic,
            9,
        );
        world.start();
        world.run_until(SimTime::from_ticks(500_000));
        let mut merged = repl_db::ReplicatedHistory::new();
        for &s in &servers {
            merged.merge(&world.actor_ref::<ActiveServer>(s).base.history);
        }
        assert!(merged.check_one_copy_serializable().is_ok());
    }

    #[test]
    fn volume_loss_restores_from_the_durable_tier() {
        // A replica's volume dies mid-run; the durable tier restores the
        // shipped prefix and the ABCAST rejoin replays the rest — the
        // group converges and the client never notices.
        for lag in [0u64, 2_000] {
            let mut world = World::new(SimConfig::new(11));
            let servers: Vec<NodeId> = (0..3).map(NodeId::new).collect();
            for i in 0..3u32 {
                let mut srv = ActiveServer::new(
                    i,
                    NodeId::new(i),
                    servers.clone(),
                    16,
                    ExecutionMode::Deterministic,
                    AbcastImpl::Sequencer,
                    ConsensusConfig::default(),
                );
                srv.base.set_durability(
                    &crate::durability::DurabilityConfig::with_upload_lag(lag),
                    120,
                );
                world.add_actor(Box::new(srv));
            }
            let txns: Vec<TxnTemplate> = (0..12).map(|i| write(i % 16, i as i64)).collect();
            let client = ClientActor::<ActiveMsg>::new(
                0,
                servers.clone(),
                1,
                txns,
                SimDuration::from_ticks(100),
                SimDuration::from_ticks(20_000),
            );
            let client = world.add_actor(Box::new(client));
            world.schedule_volume_loss(SimTime::from_ticks(900), servers[2]);
            world.schedule_recover(SimTime::from_ticks(5_000), servers[2]);
            world.start();
            world.run_until(SimTime::from_ticks(400_000));
            assert!(
                world.actor_ref::<ClientActor<ActiveMsg>>(client).is_done(),
                "lag {lag}: client stalled after the disaster"
            );
            let fp0 = world
                .actor_ref::<ActiveServer>(servers[0])
                .base
                .store
                .fingerprint();
            let wiped = world.actor_ref::<ActiveServer>(servers[2]);
            assert_eq!(
                wiped.base.store.fingerprint(),
                fp0,
                "lag {lag}: wiped replica did not converge"
            );
            assert_eq!(wiped.base.volume_wipes, 1);
            let tier = wiped.base.tier.as_ref().expect("tier attached");
            assert_eq!(tier.restores, 1, "lag {lag}: restore did not run");
            assert!(!tier.restoring());
            if lag == 0 {
                assert!(tier.lost.is_empty(), "a synchronous tier must lose nothing");
            }
            let mut merged = repl_db::ReplicatedHistory::new();
            for &s in &servers {
                merged.merge(&world.actor_ref::<ActiveServer>(s).base.history);
            }
            assert!(merged.check_one_copy_serializable().is_ok());
        }
    }

    #[test]
    fn phase_skeleton_matches_figure_2() {
        let (mut world, _servers, _clients) = build(
            3,
            vec![vec![write(0, 1)]],
            AbcastImpl::Sequencer,
            ExecutionMode::Deterministic,
            4,
        );
        world.start();
        world.run_until(SimTime::from_ticks(200_000));
        let pt = crate::phase::PhaseTrace::from_trace(world.trace());
        let sk = pt.canonical().expect("an op completed");
        assert_eq!(sk.to_string(), "RE SC EX END");
    }
}
