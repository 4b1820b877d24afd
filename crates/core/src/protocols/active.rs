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

impl_protocol_msg!(ActiveMsg);

/// Active replication: relay into the ABCAST, execute on delivery.
pub struct Active {
    ab: AbcastEndpoint<ClientOp>,
    /// What `ab` queued while handling one input; drained by `drain`.
    ab_out: Outbox<AbMsg<ClientOp>, AbDeliver<ClientOp>>,
    relayed: HashSet<OpId>,
    marks: bool,
}

/// An active-replication server.
pub type ActiveServer = Replica<Active>;

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
        let tech = Active {
            ab: AbcastEndpoint::new(abcast, me, group.clone(), cons),
            ab_out: Outbox::new(),
            relayed: HashSet::new(),
            // Exactly one process marks server-side phases (see phase.rs).
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

impl Active {
    /// Applies what the ABCAST endpoint queued and executes what it
    /// delivered.
    fn drain(&mut self, sh: &mut Shell, ctx: &mut Context<'_, ActiveMsg>) {
        let mut out = std::mem::take(&mut self.ab_out);
        repl_gcs::apply_outbox(ctx, &mut out, 0, ActiveMsg::Ab, |ctx, d| {
            self.deliver(sh, ctx, d)
        });
        self.ab_out = out;
        settle_rejoin(&mut self.ab, &mut sh.base, ctx.now().ticks());
    }

    fn deliver(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Context<'_, ActiveMsg>,
        d: AbDeliver<ClientOp>,
    ) {
        let op = d.payload;
        if sh.base.cached(op.id).is_some() || sh.answered_before_join(op.id) {
            return; // duplicate ordering of a retried op
        }
        if self.marks {
            ctx.mark(Phase::ServerCoordination.tag(), op.id.0, d.gseq);
            ctx.mark(Phase::Execution.tag(), op.id.0, 0);
        }
        // Sharded cross-shard operations: execute only this shard's
        // part, under the op's global transaction id — the touched
        // groups' histories splice into one transaction.
        let local = sh
            .shard()
            .filter(|sc| sc.is_cross(&op))
            .map(|sc| sc.local_part(&op));
        let (_, resp) = sh
            .base
            .execute_commit(local.as_ref().unwrap_or(&op), global_txn(op.id));
        sh.base.remember(&resp);
        // Every replica answers; the client keeps the first reply
        // (per group, in the sharded mode — partials merge there).
        ctx.send(op.client, ActiveMsg::Reply(resp));
    }
}

impl Technique for Active {
    type Msg = ActiveMsg;

    fn on_invoke(&mut self, sh: &mut Shell, ctx: &mut Context<'_, ActiveMsg>, op: ClientOp) {
        if !self.relayed.insert(op.id) {
            return; // already in the ordering pipeline
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
        ctx: &mut Context<'_, ActiveMsg>,
        from: NodeId,
        msg: ActiveMsg,
    ) {
        match msg {
            ActiveMsg::Invoke(op) => sh.invoke(self, ctx, op),
            ActiveMsg::Ab(m) => {
                self.ab.on_message(from, m, &mut self.ab_out);
                self.drain(sh, ctx);
            }
            ActiveMsg::Reply(_) | ActiveMsg::Member(_) => {}
        }
    }

    fn on_protocol_timer(&mut self, sh: &mut Shell, ctx: &mut Context<'_, ActiveMsg>, tag: u64) {
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
        ctx: &mut Context<'_, ActiveMsg>,
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

    fn retire(&mut self, sh: &mut Shell, ctx: &mut Context<'_, ActiveMsg>, remaining: &[NodeId]) {
        if self.ab.leave(sh.me(), remaining, &mut self.ab_out) {
            self.drain(sh, ctx);
        }
    }

    fn rewind_to(&mut self, _sh: &mut Shell, plan: RestorePlan) {
        self.ab.rewind_to(plan.token);
    }

    /// State survives a crash; the ordered stream does not. Rejoining the
    /// ABCAST refills the missed suffix, and replaying it through the
    /// normal delivery path re-executes exactly the missed ops (executed
    /// ones are suppressed by the response cache).
    fn rejoin(&mut self, sh: &mut Shell, ctx: &mut Context<'_, ActiveMsg>) {
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
            .shell
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<ActiveServer>(s)
                    .shell
                    .base
                    .store
                    .fingerprint(),
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
            .shell
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<ActiveServer>(s)
                    .shell
                    .base
                    .store
                    .fingerprint(),
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
            .shell
            .base
            .store
            .fingerprint();
        let fp1 = world
            .actor_ref::<ActiveServer>(servers[1])
            .shell
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
            .shell
            .base
            .store
            .fingerprint();
        for &s in &servers[2..] {
            assert_eq!(
                world
                    .actor_ref::<ActiveServer>(s)
                    .shell
                    .base
                    .store
                    .fingerprint(),
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
            merged.merge(&world.actor_ref::<ActiveServer>(s).shell.base.history);
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
                srv.shell.base.set_durability(
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
                .shell
                .base
                .store
                .fingerprint();
            let wiped = world.actor_ref::<ActiveServer>(servers[2]);
            assert_eq!(
                wiped.shell.base.store.fingerprint(),
                fp0,
                "lag {lag}: wiped replica did not converge"
            );
            assert_eq!(wiped.shell.base.volume_wipes, 1);
            let tier = wiped.shell.base.tier.as_ref().expect("tier attached");
            assert_eq!(tier.restores, 1, "lag {lag}: restore did not run");
            assert!(!tier.restoring());
            if lag == 0 {
                assert!(tier.lost.is_empty(), "a synchronous tier must lose nothing");
            }
            let mut merged = repl_db::ReplicatedHistory::new();
            for &s in &servers {
                merged.merge(&world.actor_ref::<ActiveServer>(s).shell.base.history);
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
