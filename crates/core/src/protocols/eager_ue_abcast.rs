//! Eager update everywhere based on Atomic Broadcast (paper §4.4.2,
//! Fig. 9).
//!
//! The client submits to its local server, which relays the operation to
//! the whole group through ABCAST; every server executes operations in
//! delivery order (conflicting operations are therefore serialized the
//! same way everywhere), and the local server answers as soon as *it* has
//! executed. The total order replaces both distributed locking and the
//! final 2PC — there is **no** Agreement Coordination phase.
//! Skeleton: `RE SC EX END`.
//!
//! Like active replication this relies on deterministic execution; the
//! paper points to \[KA98\] for when that assumption is safe.

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

/// Wire messages of eager update everywhere over ABCAST.
#[derive(Debug, Clone)]
pub enum EuaMsg {
    /// Client → local server.
    Invoke(ClientOp),
    /// Server ↔ server ABCAST traffic.
    Ab(AbMsg<ClientOp>),
    /// Local server → client.
    Reply(Response),
    /// Elastic-membership handshake (join / drain / reroute).
    Member(MemberMsg),
}

impl Message for EuaMsg {
    fn wire_size(&self) -> usize {
        match self {
            EuaMsg::Invoke(op) => 8 + op.wire_size(),
            EuaMsg::Ab(m) => m.wire_size(),
            EuaMsg::Reply(r) => 8 + r.wire_size(),
            EuaMsg::Member(m) => m.wire_size(),
        }
    }
}

impl ProtocolMsg for EuaMsg {
    fn invoke(op: ClientOp) -> Self {
        EuaMsg::Invoke(op)
    }
    fn response(&self) -> Option<&Response> {
        match self {
            EuaMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
    fn reroute(&self) -> Option<(OpId, &[NodeId])> {
        match self {
            EuaMsg::Member(MemberMsg::Reroute { op, servers }) => Some((*op, servers)),
            _ => None,
        }
    }
}

/// A server for eager update everywhere over ABCAST.
pub struct EuaServer {
    /// Shared database/server state (public for post-run inspection).
    pub base: ServerBase,
    ab: AbcastEndpoint<ClientOp>,
    /// What `ab` queued while handling one input; drained by `drain`.
    ab_out: Outbox<AbMsg<ClientOp>, AbDeliver<ClientOp>>,
    /// Operations this server relayed (it is their delegate and answers).
    delegated: HashSet<OpId>,
    marks: bool,
    /// Elastic-membership lifecycle (dormant without a membership plan).
    pub elastic: Elastic,
    /// Sharded topology (cross-shard runs only): the ABCAST becomes the
    /// genuine multicast, and each member executes just its own shard's
    /// part of a cross-shard operation.
    shard: Option<ShardCtx>,
}

impl EuaServer {
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
        EuaServer {
            base: ServerBase::new(site, keyspace, exec),
            ab: AbcastEndpoint::new(abcast, me, group.clone(), cons),
            ab_out: Outbox::new(),
            delegated: HashSet::new(),
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
    fn drain(&mut self, ctx: &mut Context<'_, EuaMsg>) {
        let mut out = std::mem::take(&mut self.ab_out);
        repl_gcs::apply_outbox(ctx, &mut out, 0, EuaMsg::Ab, |ctx, d| self.deliver(ctx, d));
        self.ab_out = out;
        settle_rejoin(&mut self.ab, &mut self.base, ctx.now().ticks());
    }

    fn deliver(&mut self, ctx: &mut Context<'_, EuaMsg>, d: AbDeliver<ClientOp>) {
        let op = d.payload;
        if self.base.cached(op.id).is_some() || self.elastic.answered.contains(&op.id) {
            return;
        }
        if self.marks {
            ctx.mark(Phase::ServerCoordination.tag(), op.id.0, d.gseq);
            ctx.mark(Phase::Execution.tag(), op.id.0, 0);
        }
        // Sharded cross-shard operations: execute only this shard's
        // part, under the op's global transaction id.
        let cross = self.shard.as_ref().is_some_and(|sc| sc.is_cross(&op));
        let resp = if cross {
            let sc = self.shard.as_ref().expect("cross implies sharded");
            let local = sc.local_part(&op);
            self.base.execute_commit(&local, global_txn(op.id)).1
        } else {
            self.base.execute_commit(&op, global_txn(op.id)).1
        };
        self.base.remember(&resp);
        // Only the delegate (the server the client contacted)
        // answers — except the foreign groups of a cross-shard op,
        // where the client's affine member answers the foreign
        // partial (the delegate only holds the home part).
        let answers = if cross {
            let sc = self.shard.as_ref().expect("cross implies sharded");
            if sc.my_gid == sc.home_of(&op) {
                self.delegated.contains(&op.id)
            } else {
                self.base.site % sc.group_size == op.id.client() % sc.group_size
            }
        } else {
            self.delegated.contains(&op.id)
        };
        if answers {
            ctx.send(op.client, EuaMsg::Reply(resp));
        }
    }

    fn rejoin_now(&mut self, ctx: &mut Context<'_, EuaMsg>) {
        self.ab.rejoin(&mut self.ab_out);
        self.drain(ctx);
    }

    fn invoke(&mut self, ctx: &mut Context<'_, EuaMsg>, op: ClientOp) {
        if let Some(resp) = self.base.cached(op.id) {
            ctx.send(op.client, EuaMsg::Reply(resp));
            return;
        }
        if self.elastic.rerouting() {
            ctx.send(
                op.client,
                EuaMsg::Member(MemberMsg::Reroute {
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
        if !self.delegated.insert(op.id) {
            return;
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

    fn member(&mut self, ctx: &mut Context<'_, EuaMsg>, from: NodeId, m: MemberMsg) {
        match m {
            MemberMsg::JoinReq => {
                if !self.elastic.is_coordinator() || self.elastic.joining {
                    return;
                }
                // Admission, group switch and snapshot are atomic here:
                // every Ordered after this point reaches the joiner,
                // everything before is in the snapshot.
                self.elastic.admit(from);
                self.ab.set_group(self.elastic.servers.clone());
                for &n in &self.elastic.servers {
                    if n != self.elastic.me && n != from {
                        ctx.send(
                            n,
                            EuaMsg::Member(MemberMsg::ViewAdd {
                                servers: self.elastic.servers.clone(),
                            }),
                        );
                    }
                }
                let transfer = Transfer::snapshot(&self.base.store, self.ab.delivered_gseq());
                ctx.send(
                    from,
                    EuaMsg::Member(MemberMsg::Welcome {
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

    fn try_retire(&mut self, ctx: &mut Context<'_, EuaMsg>) {
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
                EuaMsg::Member(MemberMsg::ViewDrop {
                    node: self.elastic.me,
                }),
            );
        }
        self.elastic.servers = remaining;
        self.elastic.drain = DrainState::Retired;
    }
}

impl Actor<EuaMsg> for EuaServer {
    fn on_message(&mut self, ctx: &mut Context<'_, EuaMsg>, from: NodeId, msg: EuaMsg) {
        if self.base.restoring() {
            return; // deaf until the volume restore download completes
        }
        match msg {
            EuaMsg::Invoke(op) => self.invoke(ctx, op),
            EuaMsg::Ab(m) => {
                self.ab.on_message(from, m, &mut self.ab_out);
                self.drain(ctx);
            }
            EuaMsg::Reply(_) => {}
            EuaMsg::Member(m) => self.member(ctx, from, m),
        }
    }

    fn on_start(&mut self, ctx: &mut Context<'_, EuaMsg>) {
        if self.elastic.joining {
            self.base.recovery.begin(ctx.now().ticks());
            ctx.send(
                self.elastic.join_target(),
                EuaMsg::Member(MemberMsg::JoinReq),
            );
            ctx.set_timer(SimDuration::from_ticks(JOIN_RETRY_TICKS), JOIN_RETRY_TAG);
        }
    }

    fn on_drain(&mut self, ctx: &mut Context<'_, EuaMsg>) {
        if self.elastic.drain == DrainState::Active {
            self.elastic.drain = DrainState::Draining;
            self.try_retire(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, EuaMsg>, _timer: TimerId, tag: u64) {
        if tag == RESTORE_TAG {
            self.base.finish_restore();
            self.rejoin_now(ctx);
            return;
        }
        if tag == JOIN_RETRY_TAG {
            if self.elastic.joining {
                ctx.send(
                    self.elastic.join_target(),
                    EuaMsg::Member(MemberMsg::JoinReq),
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

    fn on_recover(&mut self, ctx: &mut Context<'_, EuaMsg>) {
        // Refill the missed ABCAST suffix and re-execute it; the
        // response cache suppresses ops executed before the crash.
        self.base.recovery.begin(ctx.now().ticks());
        if let Some(plan) = self.base.begin_restore(ctx.now().ticks()) {
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

    fn on_settle(&mut self, ctx: &mut Context<'_, EuaMsg>) {
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
    fn rmw(k: u64, v: i64) -> TxnTemplate {
        TxnTemplate {
            ops: vec![
                OpTemplate::Read(Key(k)),
                OpTemplate::Write(Key(k), Value(v)),
            ]
            .into(),
        }
    }

    fn build(
        n: u32,
        txns: Vec<Vec<TxnTemplate>>,
        seed: u64,
    ) -> (World<EuaMsg>, Vec<NodeId>, Vec<NodeId>) {
        let mut world = World::new(SimConfig::new(seed));
        let servers: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        for i in 0..n {
            world.add_actor(Box::new(EuaServer::new(
                i,
                NodeId::new(i),
                servers.clone(),
                16,
                ExecutionMode::Deterministic,
                AbcastImpl::Sequencer,
                ConsensusConfig::default(),
            )));
        }
        let mut clients = Vec::new();
        for (c, t) in txns.into_iter().enumerate() {
            let client = ClientActor::<EuaMsg>::new(
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
    fn conflicting_updates_from_different_sites_serialize_identically() {
        let (mut world, servers, clients) = build(
            3,
            vec![
                vec![rmw(0, 1), rmw(1, 2)],
                vec![rmw(0, 10), rmw(1, 20)],
                vec![rmw(0, 100)],
            ],
            1,
        );
        world.start();
        world.run_until(SimTime::from_ticks(500_000));
        for &c in &clients {
            assert!(world.actor_ref::<ClientActor<EuaMsg>>(c).is_done());
        }
        let fp0 = world
            .actor_ref::<EuaServer>(servers[0])
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world.actor_ref::<EuaServer>(s).base.store.fingerprint(),
                fp0
            );
        }
        let mut merged = repl_db::ReplicatedHistory::new();
        for &s in &servers {
            merged.merge(&world.actor_ref::<EuaServer>(s).base.history);
        }
        merged
            .check_one_copy_serializable()
            .expect("total order must imply 1SR");
    }

    #[test]
    fn only_the_delegate_answers() {
        let (mut world, _servers, clients) = build(3, vec![vec![write(0, 1)]], 2);
        world.start();
        world.run_until(SimTime::from_ticks(200_000));
        let client = world.actor_ref::<ClientActor<EuaMsg>>(clients[0]);
        assert!(client.is_done());
        // Exactly one reply reached the client: its record has a response
        // and no duplicate-response path was exercised (active replication
        // sends n replies; here it must be 1). We verify by counting Reply
        // deliveries to the client in the trace.
        let client_node = clients[0];
        let replies = world
            .trace()
            .iter()
            .filter(|r| {
                r.node == client_node
                    && matches!(r.event, repl_sim::TraceEvent::MsgDelivered { .. })
            })
            .count();
        assert_eq!(replies, 1, "non-delegate servers must stay silent");
    }

    #[test]
    fn phase_skeleton_matches_figure_9() {
        let (mut world, _s, _c) = build(3, vec![vec![write(0, 1)]], 3);
        world.start();
        world.run_until(SimTime::from_ticks(200_000));
        let pt = crate::phase::PhaseTrace::from_trace(world.trace());
        assert_eq!(pt.canonical().expect("op done").to_string(), "RE SC EX END");
    }
}
