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

use repl_db::{Keyspace, Transfer};
use repl_gcs::{AbDeliver, BatchConfig, ConsensusConfig, Outbox};
use repl_sim::{Context, Message, NodeId};

use crate::client::impl_protocol_msg;
use crate::durability::RestorePlan;
use crate::op::{ClientOp, OpId, Response};
use crate::phase::Phase;
use crate::protocols::common::{
    global_txn, settle_rejoin, AbMsg, AbcastEndpoint, AbcastImpl, ExecutionMode,
};
use crate::protocols::replica::{MemberMsg, Replica, Shell, Technique};

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

impl_protocol_msg!(EuaMsg);

/// Eager update everywhere over ABCAST: the local server relays, every
/// server executes in delivery order, the delegate answers.
pub struct Eua {
    ab: AbcastEndpoint<ClientOp>,
    /// What `ab` queued while handling one input; drained by `drain`.
    ab_out: Outbox<AbMsg<ClientOp>, AbDeliver<ClientOp>>,
    /// Operations this server relayed (it is their delegate and answers).
    delegated: HashSet<OpId>,
    marks: bool,
}

/// A server for eager update everywhere over ABCAST.
pub type EuaServer = Replica<Eua>;

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
        let tech = Eua {
            ab: AbcastEndpoint::new(abcast, me, group.clone(), cons),
            ab_out: Outbox::new(),
            delegated: HashSet::new(),
            marks: site == 0,
        };
        Replica::around(site, me, group, keyspace, exec, tech)
    }

    /// Sets the ordering-layer batching window (builder form).
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.tech.ab.set_batching(batch);
        self
    }
}

impl Eua {
    /// Applies what the ABCAST endpoint queued and executes what it
    /// delivered.
    fn drain(&mut self, sh: &mut Shell, ctx: &mut Context<'_, EuaMsg>) {
        let mut out = std::mem::take(&mut self.ab_out);
        repl_gcs::apply_outbox(ctx, &mut out, 0, EuaMsg::Ab, |ctx, d| {
            self.deliver(sh, ctx, d)
        });
        self.ab_out = out;
        settle_rejoin(&mut self.ab, &mut sh.base, ctx.now().ticks());
    }

    fn deliver(&mut self, sh: &mut Shell, ctx: &mut Context<'_, EuaMsg>, d: AbDeliver<ClientOp>) {
        let op = d.payload;
        if sh.base.cached(op.id).is_some() || sh.answered_before_join(op.id) {
            return;
        }
        if self.marks {
            ctx.mark(Phase::ServerCoordination.tag(), op.id.0, d.gseq);
            ctx.mark(Phase::Execution.tag(), op.id.0, 0);
        }
        // Sharded cross-shard operations: execute only this shard's
        // part, under the op's global transaction id. Only the delegate
        // (the server the client contacted) answers — except at the
        // foreign groups of a cross-shard op, where the client's affine
        // member answers the foreign partial (the delegate only holds the
        // home part).
        let delegated = self.delegated.contains(&op.id);
        let (local, answers) = match sh.shard().filter(|sc| sc.is_cross(&op)) {
            Some(sc) if sc.my_gid == sc.home_of(&op) => (Some(sc.local_part(&op)), delegated),
            Some(sc) => {
                let affine = sh.base.site % sc.group_size == op.id.client() % sc.group_size;
                (Some(sc.local_part(&op)), affine)
            }
            None => (None, delegated),
        };
        let (_, resp) = sh
            .base
            .execute_commit(local.as_ref().unwrap_or(&op), global_txn(op.id));
        sh.base.remember(&resp);
        if answers {
            ctx.send(op.client, EuaMsg::Reply(resp));
        }
    }
}

impl Technique for Eua {
    type Msg = EuaMsg;

    fn on_invoke(&mut self, sh: &mut Shell, ctx: &mut Context<'_, EuaMsg>, op: ClientOp) {
        if !self.delegated.insert(op.id) {
            return;
        }
        // Sharded: the ABCAST is the genuine multicast; cross-shard
        // operations are ordered only at the groups they touch.
        match sh.shard() {
            Some(sc) => {
                let dests = sc.dests(&op.txn);
                self.ab.multicast(op, &dests, &mut self.ab_out);
            }
            None => {
                self.ab.broadcast(op, &mut self.ab_out);
            }
        }
        self.drain(sh, ctx);
    }

    fn on_protocol_msg(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Context<'_, EuaMsg>,
        from: NodeId,
        msg: EuaMsg,
    ) {
        match msg {
            EuaMsg::Invoke(op) => sh.invoke(self, ctx, op),
            EuaMsg::Ab(m) => {
                self.ab.on_message(from, m, &mut self.ab_out);
                self.drain(sh, ctx);
            }
            EuaMsg::Reply(_) | EuaMsg::Member(_) => {}
        }
    }

    fn on_protocol_timer(&mut self, sh: &mut Shell, ctx: &mut Context<'_, EuaMsg>, tag: u64) {
        self.ab.on_timer(tag, &mut self.ab_out);
        self.drain(sh, ctx);
    }

    fn view_changed(&mut self, sh: &mut Shell) {
        self.ab.set_group(sh.servers().to_vec());
    }

    fn welcome_state(&mut self, sh: &mut Shell, _joiner: NodeId) -> (Option<Transfer>, u64, u64) {
        self.ab.welcome_state(&sh.base)
    }

    fn welcomed(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Context<'_, EuaMsg>,
        transfer: Option<&Transfer>,
        pos: u64,
        gpos: u64,
    ) {
        if let Some(t) = transfer {
            sh.base.install_transfer(t);
        }
        self.ab.skip_to(pos, gpos);
        self.rejoin(sh, ctx);
    }

    fn quiesced(&self, _sh: &Shell) -> bool {
        self.ab.pending() == 0
    }

    fn retire(&mut self, sh: &mut Shell, ctx: &mut Context<'_, EuaMsg>, remaining: &[NodeId]) {
        if self.ab.leave(sh.me(), remaining, &mut self.ab_out) {
            self.drain(sh, ctx);
        }
    }

    fn rewind_to(&mut self, _sh: &mut Shell, plan: RestorePlan) {
        self.ab.rewind_to(plan.token);
    }

    /// Refills the missed ABCAST suffix and re-executes it; the response
    /// cache suppresses ops executed before the crash.
    fn rejoin(&mut self, sh: &mut Shell, ctx: &mut Context<'_, EuaMsg>) {
        self.ab.rejoin(&mut self.ab_out);
        self.drain(sh, ctx);
    }

    fn position(&self, _sh: &Shell) -> u64 {
        self.ab.position()
    }

    fn enable_cross_shard(&mut self, sh: &mut Shell) {
        let ctx = sh.shard().expect("the shell sets the topology first");
        self.ab = AbcastEndpoint::new_genuine(sh.me(), ctx);
    }
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
            .shell
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<EuaServer>(s)
                    .shell
                    .base
                    .store
                    .fingerprint(),
                fp0
            );
        }
        let mut merged = repl_db::ReplicatedHistory::new();
        for &s in &servers {
            merged.merge(&world.actor_ref::<EuaServer>(s).shell.base.history);
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
