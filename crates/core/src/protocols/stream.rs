//! The ordered-stream host: the one replica under the three techniques
//! whose Server Coordination *is* a single Atomic Broadcast.
//!
//! The paper gives active replication and eager update everywhere over
//! ABCAST the same skeleton `RE SC EX END` (Figs. 2, 9) and draws
//! certification as the same broadcast with EX moved in front of it and a
//! deterministic test behind it (Fig. 14). [`Stream<F>`] is therefore the
//! only `impl Technique` for the three: it owns the ABCAST endpoint, the
//! relay dedup and the SC mark, and runs the stream's whole lifecycle
//! (view changes, welcome, drain, rewind, rejoin). A technique is an
//! [`Ordered`] flow: what it broadcasts and what a delivery means.
//!
//! A run that cannot replay ([`Shell::can_replay`]) keeps no replay log
//! in its ABCAST endpoint and forgets a relayed operation once it is
//! delivered or answered on the spot.

use std::collections::HashSet;

use repl_db::{DurableRestore, Keyspace, Transfer};
use repl_gcs::{AbMsg, BatchConfig, ConsensusConfig};
use repl_sim::{Message, NodeId};

use crate::op::{ClientOp, OpId};
use crate::phase::Phase;
use crate::protocols::common::{settle_rejoin, AbcastEndpoint, AbcastImpl, ExecutionMode};
use crate::protocols::replica::{Ctx, Replica, Shell, Technique, Wire};

/// What makes an ordered-stream replica one technique rather than
/// another: what precedes the ABCAST and what follows a delivery.
pub trait Ordered: Sized + 'static {
    /// What the technique broadcasts.
    type Payload: Message;

    /// The flow's state for a replica over `keyspace`.
    fn new(keyspace: Keyspace) -> Self;

    /// Whatever precedes the ABCAST for an operation entering the stream
    /// here: the payload to broadcast, or `None` when the operation was
    /// answered on the spot.
    fn submit(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, AbMsg<Self::Payload>>,
        op: ClientOp,
    ) -> Option<Self::Payload>;

    /// The client operation a payload carries.
    fn op(payload: &Self::Payload) -> &ClientOp;

    /// Whatever follows the delivery of an operation not yet answered
    /// here (the host has marked SC). `mine` is true at the server that
    /// relayed the operation into the stream.
    fn deliver(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, AbMsg<Self::Payload>>,
        payload: Self::Payload,
        mine: bool,
    );

    /// A duplicate delivery is dropped: release what the payload holds.
    fn discard(&mut self, _sh: &mut Shell, _payload: &Self::Payload) {}

    /// The store was replaced wholesale (welcome snapshot, volume wipe,
    /// tier restore): rebuild whatever the flow derives from it.
    fn store_replaced(&mut self, _sh: &mut Shell) {}
}

/// The ordered-stream replica: relays operations into one ABCAST and
/// hands every first delivery to its flow.
pub struct Stream<F: Ordered> {
    /// The technique (public for post-run inspection).
    pub flow: F,
    ab: AbcastEndpoint<F::Payload>,
    /// Operations this server relayed into the stream: in a run that can
    /// replay, every one ever (a re-delivery after a rewind is still
    /// `mine`); otherwise only those not yet delivered here.
    relayed: HashSet<OpId>,
}

impl<F: Ordered> Replica<Stream<F>> {
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
        let ks = keyspace.into();
        let tech = Stream {
            flow: F::new(ks),
            ab: abcast.endpoint(me, group.clone(), cons),
            relayed: HashSet::new(),
        };
        Replica::around(site, me, group, ks, exec, tech)
    }

    /// Sets the ordering-layer batching window (builder form).
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.tech.ab.set_batching(batch);
        self
    }
}

impl<F: Ordered> Stream<F> {
    /// Applies what the ABCAST endpoint queued and hands what it
    /// delivered to the flow.
    fn drain(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, AbMsg<F::Payload>>) {
        let Stream { flow, ab, relayed } = self;
        ab.drain(ctx, Wire::Proto, |ctx, d| {
            let id = F::op(&d.payload).id;
            if sh.already_answered(id) {
                flow.discard(sh, &d.payload); // duplicate ordering of a retried op
                return;
            }
            sh.mark(ctx, Phase::ServerCoordination, id, d.gseq);
            let mine = if sh.can_replay() {
                relayed.contains(&id)
            } else {
                relayed.remove(&id)
            };
            flow.deliver(sh, ctx, d.payload, mine);
        });
        settle_rejoin(ab, sh, ctx.now().ticks());
    }
}

impl<F: Ordered> Technique for Stream<F> {
    type Msg = AbMsg<F::Payload>;

    fn on_invoke(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, Self::Msg>, op: ClientOp) {
        let id = op.id;
        if !self.relayed.insert(id) {
            return; // already in the ordering pipeline
        }
        let Some(payload) = self.flow.submit(sh, ctx, op) else {
            if !sh.can_replay() {
                self.relayed.remove(&id); // answered on the spot
            }
            return;
        };
        // Sharded: the ABCAST is the genuine multicast; cross-shard
        // operations are ordered only at the groups they touch.
        let (ab, out) = self.ab.parts();
        match sh.shard() {
            Some(sc) => {
                let dests = sc.dests(&F::op(&payload).txn);
                ab.multicast(payload, &dests, out)
            }
            None => ab.broadcast(payload, out),
        };
        self.drain(sh, ctx);
    }

    fn on_protocol_msg(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, Self::Msg>,
        from: NodeId,
        msg: Self::Msg,
    ) {
        let (ab, out) = self.ab.parts();
        ab.on_message(from, msg, out);
        self.drain(sh, ctx);
    }

    fn on_protocol_timer(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, Self::Msg>, tag: u64) {
        let (ab, out) = self.ab.parts();
        ab.on_timer(tag, out);
        self.drain(sh, ctx);
    }

    /// Sharded: the stream is the genuine multicast to the touched groups.
    /// A run that cannot replay keeps no replay log.
    fn on_start(&mut self, sh: &mut Shell, _ctx: &mut Ctx<'_, Self::Msg>) {
        if let Some(sc) = sh.shard() {
            self.ab = AbcastEndpoint::new_genuine(sh.me(), sc);
        }
        if !sh.can_replay() {
            self.ab.forget_replay();
        }
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
        ctx: &mut Ctx<'_, Self::Msg>,
        transfer: Option<&Transfer>,
        pos: u64,
        gpos: u64,
    ) {
        if let Some(t) = transfer {
            sh.base.install_transfer(t);
            self.flow.store_replaced(sh);
        }
        self.ab.skip_to(pos, gpos);
        self.rejoin(sh, ctx);
    }

    fn quiesced(&self, _sh: &Shell) -> bool {
        self.ab.pending() == 0
    }

    fn retire(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, Self::Msg>, remaining: &[NodeId]) {
        if self.ab.leave(remaining) {
            self.drain(sh, ctx);
        }
    }

    fn volume_lost(&mut self, sh: &mut Shell) {
        self.flow.store_replaced(sh);
    }

    fn rewind_to(&mut self, sh: &mut Shell, restore: DurableRestore) {
        self.flow.store_replaced(sh);
        self.ab.rewind_to(restore.token);
    }

    /// State survives a crash; the ordered stream does not. Rejoining the
    /// ABCAST refills the missed suffix, and replaying it through the
    /// normal delivery path re-runs exactly the missed operations
    /// (answered ones are suppressed by the client table). Whatever a
    /// flow derives from the stream therefore recovers by replay, never
    /// from a peer snapshot.
    fn rejoin(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, Self::Msg>) {
        let (ab, out) = self.ab.parts();
        ab.rejoin(out);
        self.drain(sh, ctx);
    }

    fn position(&self, _sh: &Shell) -> u64 {
        self.ab.position()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::DurabilityConfig;
    use crate::protocols::common::global_txn;
    use crate::protocols::replica::tests::ScriptedPeer;
    use repl_db::{Key, Value};
    use repl_sim::{SimConfig, SimTime, TraceEvent, World};
    use repl_workload::{OpTemplate, TxnTemplate};

    /// A flow that broadcasts the operation itself, executes it on
    /// delivery (the relayer answers) and logs every hook. A read-only
    /// operation is answered on the spot, as Certification does.
    #[derive(Default)]
    struct Probe {
        submitted: Vec<OpId>,
        /// `(op, mine)` per delivery.
        delivered: Vec<(OpId, bool)>,
        discarded: Vec<OpId>,
        /// Written keys in the store at each `store_replaced`.
        replaced: Vec<usize>,
    }

    type ProbeMsg = Wire<AbMsg<ClientOp>>;
    type ProbeCtx<'a> = Ctx<'a, AbMsg<ClientOp>>;
    type ProbeServer = Replica<Stream<Probe>>;

    impl Ordered for Probe {
        type Payload = ClientOp;

        fn new(_keyspace: Keyspace) -> Self {
            Probe::default()
        }
        fn submit(&mut self, sh: &mut Shell, ctx: &mut ProbeCtx, op: ClientOp) -> Option<ClientOp> {
            self.submitted.push(op.id);
            if op.is_read_only() {
                let resp = sh.base.answer_read_only(&op);
                sh.reply(ctx, op.client, resp);
                return None;
            }
            Some(op)
        }
        fn op(op: &ClientOp) -> &ClientOp {
            op
        }
        fn deliver(&mut self, sh: &mut Shell, ctx: &mut ProbeCtx, op: ClientOp, mine: bool) {
            self.delivered.push((op.id, mine));
            sh.mark(ctx, Phase::Execution, op.id, 0);
            let resp = sh.base.execute_commit(&op, global_txn(op.id));
            sh.answer(&resp);
            if mine {
                ctx.send(op.client, ProbeMsg::Reply(resp));
            }
        }
        fn discard(&mut self, _sh: &mut Shell, op: &ClientOp) {
            self.discarded.push(op.id);
        }
        fn store_replaced(&mut self, sh: &mut Shell) {
            let written = sh.base.store.snapshot();
            self.replaced
                .push(written.iter().filter(|(_, v)| v.writer.is_some()).count());
        }
    }

    /// The client of every test: sends its script, records the replies.
    fn client(script: Vec<(u64, NodeId, ProbeMsg)>) -> Box<ScriptedPeer<ProbeMsg>> {
        Box::new(ScriptedPeer {
            script,
            got: Vec::new(),
        })
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn server(site: u32, group: &[u32]) -> ProbeServer {
        ProbeServer::new(
            site,
            n(site),
            group.iter().map(|&i| n(i)).collect(),
            16,
            ExecutionMode::Deterministic,
            AbcastImpl::Sequencer,
            ConsensusConfig::default(),
        )
    }

    /// `(at, server, op)`: the client (always the last node, `client`)
    /// invokes a write of key `op` under id `op`.
    fn invoke(at: u64, to: u32, op: u64, client: u32) -> (u64, NodeId, ProbeMsg) {
        let op = ClientOp {
            id: OpId(op),
            client: n(client),
            txn: TxnTemplate {
                ops: vec![OpTemplate::Write(Key(op), Value(op as i64))].into(),
            },
        };
        (at, n(to), ProbeMsg::Invoke(op))
    }

    /// Like [`invoke`], a read of key `op`.
    fn read(at: u64, to: u32, op: u64, client: u32) -> (u64, NodeId, ProbeMsg) {
        let (at, to, mut msg) = invoke(at, to, op, client);
        if let ProbeMsg::Invoke(op) = &mut msg {
            op.txn.ops = vec![OpTemplate::Read(Key(op.id.0))].into();
        }
        (at, to, msg)
    }

    /// Servers 0..3 (0 sequences) plus the scripted client as node 3.
    fn world(seed: u64, script: Vec<(u64, NodeId, ProbeMsg)>) -> World<ProbeMsg> {
        let mut world = World::new(SimConfig::new(seed));
        for site in 0..3 {
            world.add_actor(Box::new(server(site, &[0, 1, 2])));
        }
        world.add_actor(client(script));
        world
    }

    /// The ids each server still holds as relayed, by site.
    fn still_relayed(world: &World<ProbeMsg>) -> Vec<Vec<OpId>> {
        (0..3)
            .map(|site| {
                let srv = world.actor_ref::<ProbeServer>(n(site));
                let mut ids: Vec<OpId> = srv.tech.relayed.iter().copied().collect();
                ids.sort();
                ids
            })
            .collect()
    }

    fn flow(world: &World<ProbeMsg>, site: u32) -> &Probe {
        &world.actor_ref::<ProbeServer>(n(site)).tech.flow
    }

    #[test]
    fn a_repeated_invoke_relays_once_and_only_the_relayer_owns_it() {
        // The second invoke reaches server 1 before the first delivery
        // (two more network hops away), so the client table cannot
        // answer it.
        let mut world = world(1, vec![invoke(100, 1, 7, 3), invoke(110, 1, 7, 3)]);
        world.start();
        world.run_until(SimTime::from_ticks(5_000));
        assert_eq!(flow(&world, 1).submitted, vec![OpId(7)]);
        for site in 0..3 {
            let f = flow(&world, site);
            assert_eq!(f.delivered, vec![(OpId(7), site == 1)], "site {site}");
            assert!(f.discarded.is_empty(), "site {site}: one ordering only");
        }
        let replies: Vec<OpId> = world
            .actor_ref::<ScriptedPeer<ProbeMsg>>(n(3))
            .got
            .iter()
            .filter_map(|(_, m)| match m {
                ProbeMsg::Reply(r) => Some(r.op),
                _ => None,
            })
            .collect();
        assert_eq!(replies, vec![OpId(7)]);
    }

    #[test]
    fn a_duplicate_delivery_is_discarded_not_delivered() {
        // A retry through a second server: both relay, the stream orders
        // the operation twice, every site runs it once.
        let mut world = world(2, vec![invoke(100, 1, 7, 3), invoke(100, 2, 7, 3)]);
        world.start();
        world.run_until(SimTime::from_ticks(5_000));
        for site in 0..3 {
            let f = flow(&world, site);
            assert_eq!(f.delivered, vec![(OpId(7), site != 0)], "site {site}");
            assert_eq!(f.discarded, vec![OpId(7)], "site {site}");
            let srv = world.actor_ref::<ProbeServer>(n(site));
            assert_eq!(srv.shell.base.committed, 1, "site {site}");
        }
    }

    #[test]
    fn the_sc_mark_carries_the_gseq_and_precedes_the_flows_mark() {
        let mut world = world(3, vec![invoke(100, 1, 7, 3), invoke(2_000, 2, 8, 3)]);
        world.start();
        world.run_until(SimTime::from_ticks(5_000));
        let marks: Vec<_> = world
            .trace()
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::Mark { tag, a, b } if tag == "SC" || tag == "EX" => {
                    Some((r.node, tag, a, b))
                }
                _ => None,
            })
            .collect();
        // Only site 0 marks; SC carries the position in the total order.
        assert_eq!(
            marks,
            vec![
                (n(0), "SC", 7, 0),
                (n(0), "EX", 7, 0),
                (n(0), "SC", 8, 1),
                (n(0), "EX", 8, 0)
            ]
        );
    }

    #[test]
    fn a_welcome_snapshot_replaces_the_store_under_the_flow() {
        let mut world = World::new(SimConfig::new(4));
        for site in 0..3 {
            world.add_actor(Box::new(server(site, &[0, 1, 2])));
        }
        let mut joiner = server(3, &[0, 1, 2, 3]);
        joiner.begin_join();
        let joiner = world.add_dormant_actor(Box::new(joiner));
        world.add_actor(client(vec![invoke(100, 1, 7, 4), invoke(10_000, 2, 8, 4)]));
        world.schedule_spawn(SimTime::from_ticks(2_000), joiner);
        world.start();
        world.run_until(SimTime::from_ticks(20_000));
        // One written key (op 7) was in the snapshot; op 8 arrives by
        // the stream the joiner entered afterwards.
        assert_eq!(flow(&world, 3).replaced, vec![1]);
        assert_eq!(flow(&world, 3).delivered, vec![(OpId(8), false)]);
        for site in 0..3 {
            assert!(flow(&world, site).replaced.is_empty(), "site {site}");
        }
    }

    #[test]
    fn a_lost_volume_replaces_the_store_at_the_wipe_and_at_the_restore() {
        let mut world = World::new(SimConfig::new(5));
        for site in 0..3 {
            let mut srv = server(site, &[0, 1, 2]);
            let tier = DurabilityConfig::with_upload_lag(0);
            srv.equip(
                &tier,
                false,
                true,
                repl_db::shared_arena(),
                repl_gcs::FdConfig::default(),
                repl_sim::SimDuration::from_ticks(crate::protocols::replica::JOIN_RETRY_TICKS),
            );
            world.add_actor(Box::new(srv));
        }
        world.add_actor(client(vec![invoke(100, 1, 7, 3), invoke(400, 1, 8, 3)]));
        world.schedule_volume_loss(SimTime::from_ticks(2_000), n(2));
        world.schedule_recover(SimTime::from_ticks(3_000), n(2));
        world.start();
        world.run_until(SimTime::from_ticks(30_000));
        // Empty after the wipe, both commits back after the restore —
        // each time before the flow hears of it.
        assert_eq!(flow(&world, 2).replaced, vec![0, 2]);
        assert!(flow(&world, 0).replaced.is_empty());
        let wiped = world.actor_ref::<ProbeServer>(n(2));
        assert_eq!(wiped.shell.base.volume_wipes, 1);
        assert!(!wiped.shell.base.recovery.is_recovering());
    }

    #[test]
    fn a_run_that_cannot_replay_forgets_what_it_relayed() {
        // A write through server 1, a read answered on the spot at
        // server 2, a write through server 0, each sent once the one
        // before was answered.
        let script = || {
            vec![
                invoke(100, 1, 7, 3),
                read(2_000, 2, 8, 3),
                invoke(3_000, 0, 9, 3),
            ]
        };
        let mut kept = None;
        for can_replay in [true, false] {
            let mut world = World::new(SimConfig::new(6));
            for site in 0..3 {
                let mut srv = server(site, &[0, 1, 2]);
                let tier = DurabilityConfig::disabled();
                srv.equip(
                    &tier,
                    false,
                    can_replay,
                    repl_db::shared_arena(),
                    repl_gcs::FdConfig::default(),
                    repl_sim::SimDuration::from_ticks(crate::protocols::replica::JOIN_RETRY_TICKS),
                );
                world.add_actor(Box::new(srv));
            }
            world.add_actor(client(script()));
            world.start();
            world.run_until(SimTime::from_ticks(10_000));
            for site in 0..3 {
                let f = flow(&world, site);
                assert_eq!(
                    f.delivered,
                    vec![(OpId(7), site == 1), (OpId(9), site == 0)],
                    "site {site}, can replay: {can_replay}"
                );
            }
            let replies = world.actor_ref::<ScriptedPeer<ProbeMsg>>(n(3)).got.len();
            assert_eq!(replies, 3, "can replay: {can_replay}");
            let ids = still_relayed(&world);
            if can_replay {
                // A rewind may re-deliver any of them: all are kept.
                assert_eq!(ids, vec![vec![OpId(9)], vec![OpId(7)], vec![OpId(8)]]);
                kept = Some(world.metrics().messages_sent);
            } else {
                assert_eq!(ids, vec![Vec::<OpId>::new(); 3], "relayed at quiescence");
                assert_eq!(Some(world.metrics().messages_sent), kept);
            }
        }
    }

    #[test]
    fn a_rewound_delegate_still_answers_its_redelivered_ops() {
        // Node 2 loses its volume at 5,000 ticks, restores the tier's
        // frame, rewinds its stream and is refilled: the operations it
        // relayed before the loss are delivered to it again, and it
        // answers them again as their delegate. 229 messages; a server
        // that forgot what it relayed on the first delivery sends 228.
        use crate::runner::{run, RunConfig};
        use repl_sim::SimDuration;
        use repl_workload::{FaultPlan, WorkloadSpec};
        let cfg = RunConfig::new(crate::Technique::EagerUpdateEverywhereAbcast)
            .with_servers(3)
            .with_clients(3)
            .with_seed(163)
            .with_retry_after(SimDuration::from_ticks(4_000))
            .with_workload(
                WorkloadSpec::default()
                    .with_items(64)
                    .with_read_ratio(0.0)
                    .with_txns_per_client(15)
                    .with_think_time(SimDuration::from_ticks(3_000)),
            )
            .with_durability(DurabilityConfig::with_upload_lag(2_000))
            .with_faults(FaultPlan::new().disaster_at(
                SimTime::from_ticks(5_000),
                n(2),
                SimDuration::from_ticks(15_000),
            ));
        assert!(cfg.can_replay());
        let report = run(&cfg);
        assert_eq!(report.ops_unanswered, 0);
        assert_eq!(report.durability.restores, 1);
        assert_eq!(report.messages.messages_sent, 229);
    }
}
