//! Passive replication — primary-backup over VSCAST (paper §3.3, Fig. 3).
//!
//! The primary executes every request (no determinism needed), then
//! broadcasts the resulting update view-synchronously; backups apply the
//! writeset without re-executing. The response is sent once the backups
//! of the current view have acknowledged — the paper's Agreement
//! Coordination phase. Skeleton: `RE EX AC END`.
//!
//! On a primary crash the view change both elects the next primary and
//! flushes in-flight updates: an update either reaches all surviving
//! backups (and the recorded reply answers the client's retry) or none
//! (and the retry re-executes at the new primary) — never half.

use std::collections::{HashMap, HashSet};

use repl_db::{Keyspace, Transfer, WriteSetRef};
use repl_gcs::{Outbox, ViewGroup, VsConfig, VsEvent, VsMsg};
use repl_sim::{Message, NodeId};

use crate::op::{ClientOp, OpId, Response};
use crate::phase::Phase;
use crate::protocols::common::{global_txn, ExecutionMode};
use crate::protocols::replica::{Ctx, ExtraStats, Replica, Shell, Technique, Wire};

/// The update a primary ships to its backups.
#[derive(Debug, Clone)]
pub struct Update {
    /// The client operation this update came from.
    pub op: OpId,
    /// The redo records to install.
    pub ws: WriteSetRef,
    /// The response the primary computed (recorded by backups so a new
    /// primary can answer retries after failover).
    pub resp: Response,
}

impl Message for Update {
    fn wire_size(&self) -> usize {
        8 + self.ws.wire_size() + self.resp.wire_size()
    }
}

/// Coordination traffic of passive replication.
#[derive(Debug, Clone)]
pub enum PassiveMsg {
    /// View-synchronous group traffic.
    Vs(VsMsg<Update>),
    /// Backup → primary: update applied.
    Ack {
        /// The acknowledged operation.
        op: OpId,
    },
}

impl Message for PassiveMsg {
    fn wire_size(&self) -> usize {
        match self {
            PassiveMsg::Vs(m) => 8 + m.wire_size(),
            PassiveMsg::Ack { .. } => 16,
        }
    }

    fn is_background(&self) -> bool {
        matches!(self, PassiveMsg::Vs(m) if m.is_background())
    }
}

#[derive(Debug)]
struct PendingAck {
    client: NodeId,
    resp: Response,
    /// Backups yet to acknowledge; returned to `Passive::spare_acks`
    /// when the update is answered.
    awaiting: Vec<NodeId>,
}

/// Passive replication: primary or backup, depending on the current
/// view.
pub struct Passive {
    vg: ViewGroup<Update>,
    /// What `vg` queued while handling one input; drained by `drive`.
    vg_out: Outbox<VsMsg<Update>, VsEvent<Update>>,
    pending: HashMap<OpId, PendingAck>,
    /// Ack lists of answered updates, reused by the next.
    spare_acks: Vec<Vec<NodeId>>,
    vs: VsConfig,
}

/// A passive-replication server.
pub type PassiveServer = Replica<Passive>;

impl PassiveServer {
    /// Creates server `site` of `group`; the initial primary is the
    /// lowest-id member.
    pub fn new(
        site: u32,
        me: NodeId,
        group: Vec<NodeId>,
        keyspace: impl Into<Keyspace>,
        exec: ExecutionMode,
        vs: VsConfig,
    ) -> Self {
        let tech = Passive {
            vg: ViewGroup::new(me, group.clone(), vs),
            vg_out: Outbox::new(),
            pending: HashMap::new(),
            spare_acks: Vec::new(),
            vs,
        };
        Replica::around(site, me, group, keyspace, exec, tech)
    }

    /// The primary of the currently installed view.
    pub fn primary(&self) -> NodeId {
        self.tech.primary()
    }
}

impl Passive {
    fn primary(&self) -> NodeId {
        self.vg.view().primary()
    }

    fn is_primary(&self, sh: &Shell) -> bool {
        self.primary() == sh.me() && !self.vg.is_excluded()
    }

    /// Applies what the view group queued and reacts to what it
    /// delivered or installed.
    fn drive(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, PassiveMsg>) {
        let mut out = std::mem::take(&mut self.vg_out);
        repl_gcs::apply_outbox(
            ctx,
            &mut out,
            0,
            |m| Wire::Proto(PassiveMsg::Vs(m)),
            |ctx, ev| self.on_vs_event(sh, ctx, ev),
        );
        self.vg_out = out;
        if self.vg.take_behind() {
            sh.fell_behind();
        }
    }

    fn on_vs_event(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, PassiveMsg>, ev: VsEvent<Update>) {
        match ev {
            VsEvent::Deliver { from, payload, .. } => {
                if from == sh.me() {
                    return; // the primary already executed it
                }
                // Backup path: install without re-execution, record the
                // reply for failover, acknowledge.
                if !sh.already_answered(payload.op) {
                    sh.base.install_payload(payload.ws);
                    sh.answer(&payload.resp);
                }
                sh.base.release_payload(payload.ws);
                ctx.send(from, Wire::Proto(PassiveMsg::Ack { op: payload.op }));
            }
            VsEvent::ViewInstalled(view) => {
                // Back in a view after a crash: recovery is over.
                if sh.base.recovery.is_recovering() && view.contains(sh.me()) {
                    sh.base.recovery.complete(ctx.now().ticks());
                }
                // Crashed backups no longer owe acks.
                let members: HashSet<NodeId> = view.members.iter().copied().collect();
                let mut done: Vec<OpId> = Vec::new();
                for (op, p) in self.pending.iter_mut() {
                    p.awaiting.retain(|n| members.contains(n));
                    if p.awaiting.is_empty() {
                        done.push(*op);
                    }
                }
                // Map iteration order is unspecified; reply in op order
                // so runs stay deterministic.
                done.sort_unstable();
                for op in done {
                    self.finish(ctx, op);
                }
            }
        }
    }

    fn finish(&mut self, ctx: &mut Ctx<'_, PassiveMsg>, op: OpId) {
        if let Some(p) = self.pending.remove(&op) {
            ctx.send(p.client, Wire::Reply(p.resp));
            self.recycle_acks(p.awaiting);
        }
    }

    fn recycle_acks(&mut self, mut acks: Vec<NodeId>) {
        acks.clear();
        self.spare_acks.push(acks);
    }

    fn execute_as_primary(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, PassiveMsg>, op: ClientOp) {
        ctx.mark(Phase::Execution.tag(), op.id.0, 0);
        let mut backups = self.spare_acks.pop().unwrap_or_default();
        let me = sh.me();
        backups.extend(self.vg.view().members.iter().filter(|&&n| n != me));
        let (ws, resp) = sh
            .base
            .execute_to_ship(&op, global_txn(op.id), backups.len() as u32);
        sh.answer(&resp);
        ctx.mark(Phase::AgreementCoordination.tag(), op.id.0, 0);
        // A lean backup records no reply: ship it the verdict alone.
        let lean = sh.base.lean();
        let reads = if lean { Vec::new() } else { resp.reads.clone() };
        let update = Update {
            op: op.id,
            ws,
            resp: Response { reads, ..resp },
        };
        self.vg.broadcast(update, &mut self.vg_out);
        self.drive(sh, ctx);
        if backups.is_empty() {
            ctx.send(op.client, Wire::Reply(resp));
            self.recycle_acks(backups);
        } else {
            self.pending.insert(
                op.id,
                PendingAck {
                    client: op.client,
                    resp,
                    awaiting: backups,
                },
            );
        }
    }

    /// A committed-state snapshot for a recovering or joining peer:
    /// backups hold no redo log to cut a suffix from, and the join view's
    /// flush exchange covers later updates (the view group holds them).
    fn snapshot(&mut self, sh: &Shell) -> Transfer {
        self.vg.hold();
        sh.base.committed_snapshot(0)
    }

    /// State is installed: ask the view group for (re)admission.
    fn enter_view(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, PassiveMsg>) {
        self.vg.rejoin(&mut self.vg_out);
        self.drive(sh, ctx);
    }
}

impl Technique for Passive {
    type Msg = PassiveMsg;

    fn on_invoke(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, PassiveMsg>, op: ClientOp) {
        if sh.catching_up() || self.vg.is_joining() {
            return; // stale view; let the client retry elsewhere
        }
        if self.is_primary(sh) {
            if !self.pending.contains_key(&op.id) {
                self.execute_as_primary(sh, ctx, op);
            }
        } else {
            // Not the primary: forward (replication stays
            // transparent to the client's addressing).
            let primary = self.primary();
            if primary != sh.me() {
                ctx.send(primary, Wire::Invoke(op));
            }
        }
    }

    fn on_protocol_msg(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, PassiveMsg>,
        from: NodeId,
        msg: PassiveMsg,
    ) {
        match msg {
            PassiveMsg::Vs(m) => {
                repl_gcs::Component::on_message(&mut self.vg, from, m, &mut self.vg_out);
                self.drive(sh, ctx);
            }
            PassiveMsg::Ack { op } => {
                if let Some(p) = self.pending.get_mut(&op) {
                    p.awaiting.retain(|&n| n != from);
                    if p.awaiting.is_empty() {
                        self.finish(ctx, op);
                    }
                }
            }
        }
    }

    fn on_protocol_timer(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, PassiveMsg>, tag: u64) {
        repl_gcs::Component::on_timer(&mut self.vg, tag, &mut self.vg_out);
        self.drive(sh, ctx);
    }

    fn on_start(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, PassiveMsg>) {
        if sh.joining() {
            // A cold joiner's view endpoint boots in join mode.
            self.vg = ViewGroup::join(sh.me(), sh.remaining(), self.vs);
        }
        repl_gcs::Component::on_start(&mut self.vg, &mut self.vg_out);
        self.drive(sh, ctx);
    }

    fn welcome_state(&mut self, sh: &mut Shell, _joiner: NodeId) -> (Option<Transfer>, u64, u64) {
        (Some(self.snapshot(sh)), 0, 0)
    }

    fn welcomed(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, PassiveMsg>,
        transfer: Option<&Transfer>,
        _pos: u64,
        _gpos: u64,
    ) {
        if let Some(t) = transfer {
            sh.base.install_transfer(t);
        }
        self.enter_view(sh, ctx);
    }

    /// Only a member of the installed view donates: outside it (excluded,
    /// or readmission still pending) this store misses whole views.
    fn donate(&mut self, sh: &mut Shell, _to: NodeId, _have: u64) -> Option<Transfer> {
        (!self.vg.is_excluded() && !self.vg.is_joining()).then(|| self.snapshot(sh))
    }

    /// Every update this node originated as primary has been acknowledged
    /// and answered (backups owe nothing — their acks ride on delivery,
    /// which continues until the view excludes us).
    fn quiesced(&self, _sh: &Shell) -> bool {
        self.pending.is_empty()
    }

    fn retire(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, PassiveMsg>, _remaining: &[NodeId]) {
        // Voluntary view-group exit: the shrunk view elects the next
        // primary and flushes in-flight updates.
        self.vg.leave(&mut self.vg_out);
        self.drive(sh, ctx);
    }

    fn recovering(&mut self, _sh: &mut Shell) {
        self.pending.clear();
    }

    /// Two-step rejoin: fetch a db-level snapshot from a live member
    /// first, then run the group-level join so the new view only ever
    /// admits a caught-up replica. (There is no ordered stream to rewind
    /// after a volume restore: the tier restored a floor, and the peer
    /// snapshot covers whatever the disaster erased, if any peer is up.)
    fn rejoin(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, PassiveMsg>) {
        if !sh.pull_state(ctx, None) {
            self.enter_view(sh, ctx);
            sh.base.recovery.complete(ctx.now().ticks());
        }
    }

    fn extra_stats(&self) -> ExtraStats {
        ExtraStats {
            suspicions: self.vg.suspicions(),
            ..ExtraStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientActor;
    use crate::protocols::replica::tests::seat_all;
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
        n: u32,
        txns: Vec<Vec<TxnTemplate>>,
        exec: ExecutionMode,
        seed: u64,
    ) -> (World<Wire<PassiveMsg>>, Vec<NodeId>, Vec<NodeId>) {
        let mut world = World::new(SimConfig::new(seed));
        let servers: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        seat_all(
            &mut world,
            (0..n).map(|i| {
                PassiveServer::new(
                    i,
                    NodeId::new(i),
                    servers.clone(),
                    16,
                    exec,
                    VsConfig::default(),
                )
            }),
        );
        let mut clients = Vec::new();
        for (c, t) in txns.into_iter().enumerate() {
            // Clients prefer the initial primary (server 0).
            let client = ClientActor::<PassiveMsg>::new(
                c as u32,
                servers.clone(),
                0,
                t,
                SimDuration::from_ticks(100),
                SimDuration::from_ticks(15_000),
            );
            clients.push(world.add_actor(Box::new(client)));
        }
        (world, servers, clients)
    }

    #[test]
    fn primary_executes_backups_apply() {
        let (mut world, servers, clients) = build(
            3,
            vec![vec![write(1, 5), read(1)]],
            ExecutionMode::Deterministic,
            1,
        );
        world.start();
        world.run_until(SimTime::from_ticks(100_000));
        let client = world.actor_ref::<ClientActor<PassiveMsg>>(clients[0]);
        assert!(client.is_done());
        let fp0 = world
            .actor_ref::<PassiveServer>(servers[0])
            .shell
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            let srv = world.actor_ref::<PassiveServer>(s);
            assert_eq!(srv.shell.base.store.fingerprint(), fp0, "backup diverged");
            // Backups never executed, they only installed: their history
            // holds the write alone, not the read the primary ran.
            assert_eq!(srv.shell.base.history.len(), 1, "a backup executed");
        }
    }

    #[test]
    fn nondeterminism_is_harmless_in_passive_replication() {
        // The paper's key contrast with active replication: only one
        // process executes, so site-dependent results cannot diverge.
        let (mut world, servers, _clients) = build(
            3,
            vec![vec![write(0, 1), write(1, 2)]],
            ExecutionMode::NonDeterministic,
            2,
        );
        world.start();
        world.run_until(SimTime::from_ticks(100_000));
        let fp0 = world
            .actor_ref::<PassiveServer>(servers[0])
            .shell
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<PassiveServer>(s)
                    .shell
                    .base
                    .store
                    .fingerprint(),
                fp0,
                "passive replication must tolerate non-determinism"
            );
        }
    }

    #[test]
    fn primary_crash_fails_over_and_client_completes() {
        let (mut world, servers, clients) = build(
            3,
            vec![vec![write(0, 1), write(1, 2), write(2, 3), read(0)]],
            ExecutionMode::Deterministic,
            3,
        );
        world.start();
        // Let some work happen, then kill the primary.
        world.schedule_crash(SimTime::from_ticks(3_000), servers[0]);
        world.run_until(SimTime::from_ticks(1_000_000));
        let client = world.actor_ref::<ClientActor<PassiveMsg>>(clients[0]);
        assert!(client.is_done(), "client stuck after failover");
        // New primary is server 1.
        let s1 = world.actor_ref::<PassiveServer>(servers[1]);
        assert_eq!(s1.primary(), servers[1]);
        // Survivors agree on the final state and it reflects all writes.
        let fp1 = s1.shell.base.store.fingerprint();
        let s2 = world.actor_ref::<PassiveServer>(servers[2]);
        assert_eq!(s2.shell.base.store.fingerprint(), fp1);
        assert_eq!(
            s1.shell.base.store.read(Key(2)).expect("exists").value,
            Value(3)
        );
    }

    #[test]
    fn no_lost_or_half_applied_update_across_failover() {
        // Run several seeds; in each, the primary dies while updates are in
        // flight. Survivors must agree pairwise (view synchrony) and the
        // client's committed writes must all be present.
        for seed in 0..8u64 {
            let (mut world, servers, clients) = build(
                4,
                vec![vec![write(0, 1), write(1, 2), write(2, 3), write(3, 4)]],
                ExecutionMode::Deterministic,
                100 + seed,
            );
            world.start();
            world.schedule_crash(SimTime::from_ticks(2_000 + seed * 300), servers[0]);
            world.run_until(SimTime::from_ticks(1_000_000));
            let client = world.actor_ref::<ClientActor<PassiveMsg>>(clients[0]);
            assert!(client.is_done(), "seed {seed}: client stuck");
            let fps: Vec<u64> = servers[1..]
                .iter()
                .map(|&s| {
                    world
                        .actor_ref::<PassiveServer>(s)
                        .shell
                        .base
                        .store
                        .fingerprint()
                })
                .collect();
            assert!(
                fps.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: survivors diverged: {fps:?}"
            );
            // Every committed (responded) write is visible at survivors.
            let s1 = world.actor_ref::<PassiveServer>(servers[1]);
            for rec in client.completed() {
                if let OpTemplate::Write(k, v) = rec.txn.ops[0] {
                    let stored = s1.shell.base.store.read(k).expect("exists").value;
                    assert_eq!(stored, v, "seed {seed}: lost committed write to {k}");
                }
            }
        }
    }

    #[test]
    fn phase_skeleton_matches_figure_3() {
        let (mut world, _s, _c) =
            build(3, vec![vec![write(0, 1)]], ExecutionMode::Deterministic, 4);
        world.start();
        world.run_until(SimTime::from_ticks(100_000));
        let pt = crate::phase::PhaseTrace::from_trace(world.trace());
        assert_eq!(
            pt.canonical().expect("op completed").to_string(),
            "RE EX AC END"
        );
    }

    #[test]
    fn backup_receiving_invoke_forwards_to_primary() {
        let (mut world, _servers, clients) =
            build(3, vec![vec![write(0, 9)]], ExecutionMode::Deterministic, 5);
        // Point the client at a backup instead of the primary.
        let client = world.actor_mut::<ClientActor<PassiveMsg>>(clients[0]);
        *client = ClientActor::new(
            0,
            (0..3).map(NodeId::new).collect::<Vec<_>>(),
            2, // backup
            vec![write(0, 9)],
            SimDuration::from_ticks(100),
            SimDuration::from_ticks(15_000),
        );
        world.start();
        world.run_until(SimTime::from_ticks(100_000));
        let client = world.actor_ref::<ClientActor<PassiveMsg>>(clients[0]);
        assert!(client.is_done(), "forwarding failed");
    }
}
