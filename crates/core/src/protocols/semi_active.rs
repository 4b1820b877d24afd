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

use repl_db::{DurableRestore, Key, Keyspace, Transfer, Value};
use repl_gcs::{AbMsg, BatchConfig, Outbox, ViewGroup, VsConfig, VsEvent, VsMsg};
use repl_sim::{Message, NodeId};

use crate::op::{accesses, ClientOp, OpId};
use crate::phase::Phase;
use crate::protocols::common::{
    global_txn, settle_rejoin, AbcastEndpoint, AbcastImpl, ExecutionMode,
};
use crate::protocols::replica::{Ctx, ExtraStats, Replica, Shell, Technique, Wire};

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

/// Coordination traffic of semi-active replication.
#[derive(Debug, Clone)]
pub enum SemiActiveMsg {
    /// Request ordering (ABCAST).
    Ab(AbMsg<ClientOp>),
    /// Leader choices (VSCAST).
    Vs(VsMsg<Choice>),
}

impl Message for SemiActiveMsg {
    fn wire_size(&self) -> usize {
        match self {
            SemiActiveMsg::Ab(m) => m.wire_size(),
            SemiActiveMsg::Vs(m) => 8 + m.wire_size(),
        }
    }

    fn is_background(&self) -> bool {
        matches!(self, SemiActiveMsg::Vs(m) if m.is_background())
    }
}

/// Semi-active replication: the ordered request stream of active
/// replication plus leader-imposed choices over VSCAST.
pub struct SemiActive {
    ab: AbcastEndpoint<ClientOp>,
    vg: ViewGroup<Choice>,
    /// What `vg` queued while handling one input; drained by `drive_vs`.
    vg_out: Outbox<VsMsg<Choice>, VsEvent<Choice>>,
    /// Operations this server relayed into the stream: in a run that can
    /// replay, for the whole run (a rewound stream re-delivers them); in
    /// one that cannot, until their delivery.
    relayed: HashSet<OpId>,
    /// Ordered-but-not-yet-applied operations, by global sequence.
    waiting: BTreeMap<u64, ClientOp>,
    next_apply: u64,
    /// Delivered choices not yet applied, each with its VSCAST stream.
    choices: HashMap<OpId, (u64, NodeId, Choice)>,
    /// Operations whose choice this server broadcast as leader, until
    /// they apply (or a new view re-issues what is stuck).
    issued: HashSet<OpId>,
    vs: VsConfig,
}

/// A semi-active replication server.
pub type SemiActiveServer = Replica<SemiActive>;

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
        let tech = SemiActive {
            ab: abcast.endpoint(me, group.clone(), vs.consensus),
            vg: ViewGroup::new(me, group.clone(), vs),
            vg_out: Outbox::new(),
            relayed: HashSet::new(),
            waiting: BTreeMap::new(),
            next_apply: 0,
            choices: HashMap::new(),
            issued: HashSet::new(),
            vs,
        };
        Replica::around(site, me, group, keyspace, exec, tech)
    }

    /// Sets the ordering-layer batching window (builder form).
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.tech.ab.set_batching(batch);
        self
    }
}

impl SemiActive {
    fn is_leader(&self, sh: &Shell) -> bool {
        self.vg.view().primary() == sh.me() && !self.vg.is_excluded()
    }

    /// Whether `op` needs a leader choice at all.
    fn needs_choice(sh: &Shell, op: &ClientOp) -> bool {
        sh.base.exec == ExecutionMode::NonDeterministic && op.txn.ops.iter().any(|o| o.is_write())
    }

    fn resolve_choice(sh: &Shell, op: &ClientOp) -> Choice {
        let writes = accesses(&op.txn)
            .filter_map(|(k, w)| w.map(|v| (k, sh.base.effective_value(v))))
            .collect();
        Choice { op: op.id, writes }
    }

    /// Applies what the ABCAST endpoint queued, parks what it ordered and
    /// applies whatever became applicable.
    fn drive_ab(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, SemiActiveMsg>) {
        let (waiting, relayed) = (&mut self.waiting, &mut self.relayed);
        let wrap = |m| Wire::Proto(SemiActiveMsg::Ab(m));
        self.ab.drain(ctx, wrap, |ctx, d| {
            sh.mark(ctx, Phase::ServerCoordination, d.payload.id, d.gseq);
            if !sh.can_replay() {
                relayed.remove(&d.payload.id);
            }
            waiting.insert(d.gseq, d.payload);
        });
        self.process(sh, ctx);
        settle_rejoin(&mut self.ab, sh, ctx.now().ticks());
    }

    /// Applies what the view group queued, records the choices it
    /// delivered and applies whatever became applicable.
    fn drive_vs(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, SemiActiveMsg>) {
        let mut out = std::mem::take(&mut self.vg_out);
        let wrap = |m| Wire::Proto(SemiActiveMsg::Vs(m));
        repl_gcs::apply_outbox(ctx, &mut out, VG_BASE, wrap, |_, ev| self.on_vs_event(ev));
        self.vg_out = out;
        if self.vg.take_behind() {
            sh.fell_behind();
        }
        self.process(sh, ctx);
    }

    fn on_vs_event(&mut self, ev: VsEvent<Choice>) {
        match ev {
            VsEvent::Deliver {
                view,
                from,
                payload,
            } => {
                self.choices
                    .entry(payload.op)
                    .or_insert((view, from, payload));
            }
            VsEvent::ViewInstalled(_) => {
                // A new leader re-issues choices for everything stuck.
                self.issued.clear();
            }
        }
    }

    /// Applies ordered operations in sequence, pausing at operations whose
    /// choice has not arrived yet.
    fn process(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, SemiActiveMsg>) {
        loop {
            let Some(op) = self.waiting.get(&self.next_apply).cloned() else {
                return;
            };
            if sh.already_answered(op.id) {
                self.waiting.remove(&self.next_apply);
                self.next_apply += 1;
                continue;
            }
            let needs = Self::needs_choice(sh, &op);
            if needs && !self.choices.contains_key(&op.id) {
                // Leader resolves; followers wait.
                if self.is_leader(sh) && !self.issued.contains(&op.id) {
                    self.issued.insert(op.id);
                    sh.mark(ctx, Phase::Execution, op.id, 0);
                    let choice = Self::resolve_choice(sh, &op);
                    self.vg.broadcast(choice, &mut self.vg_out);
                    self.drive_vs(sh, ctx);
                    // drive_vs re-enters process(); stop this iteration.
                }
                return;
            }
            self.waiting.remove(&self.next_apply);
            self.next_apply += 1;
            let phase = if needs {
                Phase::AgreementCoordination
            } else {
                Phase::Execution
            };
            sh.mark(ctx, phase, op.id, 0);
            // The leader's choice overrides local non-determinism.
            let choice = self.choices.remove(&op.id);
            if let Some(&(view, from, _)) = choice.as_ref() {
                self.vg.release(view, from);
            }
            let chosen = choice.map(|c| c.2.writes).unwrap_or_default();
            self.issued.remove(&op.id);
            let resp = sh.base.execute_chosen(&op, global_txn(op.id), &chosen);
            sh.reply(ctx, op.client, resp);
        }
    }

    /// A snapshot of applied state only, stamped with the applied
    /// watermark: waiting operations lack leader choices, which the view
    /// group holds for the join view's flush, and missed choices cannot be
    /// replayed, so a gap is covered by state, not re-execution.
    fn snapshot(&mut self, sh: &Shell) -> Transfer {
        self.vg.hold();
        sh.base.committed_snapshot(self.next_apply)
    }

    /// Installs a peer snapshot and fast-forwards past it (those
    /// operations' leader choices are gone and their effects are already
    /// in the installed state). A snapshot behind what this replica
    /// applied (a donor lagging a live member) would undo operations the
    /// stream will not deliver again: it is skipped.
    fn install_snapshot(&mut self, sh: &mut Shell, t: &Transfer) {
        if t.high < self.next_apply {
            return;
        }
        let high = sh.base.install_transfer(t);
        self.next_apply = self.next_apply.max(high);
        self.waiting = self.waiting.split_off(&self.next_apply);
    }

    /// State is installed: refill the ordered stream, then ask the view
    /// group for (re)admission.
    fn enter_groups(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, SemiActiveMsg>) {
        let (ab, out) = self.ab.parts();
        ab.rejoin(out);
        self.drive_ab(sh, ctx);
        self.vg.rejoin(&mut self.vg_out);
        self.drive_vs(sh, ctx);
    }
}

impl Technique for SemiActive {
    type Msg = SemiActiveMsg;

    fn on_invoke(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, SemiActiveMsg>, op: ClientOp) {
        if !self.relayed.insert(op.id) {
            return;
        }
        let (ab, out) = self.ab.parts();
        ab.broadcast(op, out);
        self.drive_ab(sh, ctx);
    }

    fn on_protocol_msg(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, SemiActiveMsg>,
        from: NodeId,
        msg: SemiActiveMsg,
    ) {
        match msg {
            SemiActiveMsg::Ab(m) => {
                let (ab, out) = self.ab.parts();
                ab.on_message(from, m, out);
                self.drive_ab(sh, ctx);
            }
            SemiActiveMsg::Vs(m) => {
                repl_gcs::Component::on_message(&mut self.vg, from, m, &mut self.vg_out);
                self.drive_vs(sh, ctx);
            }
        }
    }

    fn on_protocol_timer(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, SemiActiveMsg>, tag: u64) {
        if tag >= VG_BASE {
            repl_gcs::Component::on_timer(&mut self.vg, tag - VG_BASE, &mut self.vg_out);
            self.drive_vs(sh, ctx);
        } else {
            let (ab, out) = self.ab.parts();
            ab.on_timer(tag, out);
            self.drive_ab(sh, ctx);
        }
    }

    fn on_start(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, SemiActiveMsg>) {
        if !sh.can_replay() {
            self.ab.forget_replay();
        }
        if sh.joining() {
            // A cold joiner's view endpoint boots in join mode.
            self.vg = ViewGroup::join(sh.me(), sh.remaining(), self.vs);
        }
        self.vg.defer_marks();
        repl_gcs::Component::on_start(&mut self.vg, &mut self.vg_out);
        self.drive_vs(sh, ctx);
    }

    fn view_changed(&mut self, sh: &mut Shell) {
        // The view group runs its own admission: a joiner calls
        // `vg.rejoin` once welcomed.
        self.ab.set_group(sh.servers().to_vec());
    }

    fn welcome_state(&mut self, sh: &mut Shell, _joiner: NodeId) -> (Option<Transfer>, u64, u64) {
        // Every ordered request past `next_apply` reaches the joiner,
        // everything below is in the snapshot. The applied cursor counts
        // in gseq units, which only the sequencer flavour can resume
        // from; consensus joiners refill the whole history.
        let pos = if self.ab.is_seq() { self.next_apply } else { 0 };
        (Some(self.snapshot(sh)), pos, pos)
    }

    fn welcomed(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, SemiActiveMsg>,
        transfer: Option<&Transfer>,
        pos: u64,
        gpos: u64,
    ) {
        if let Some(t) = transfer {
            self.install_snapshot(sh, t);
        }
        self.ab.skip_to(pos, gpos);
        self.enter_groups(sh, ctx);
    }

    /// Only a member of the installed view donates: outside it (excluded,
    /// or readmission still pending) this store misses leader choices.
    fn donate(&mut self, sh: &mut Shell, _to: NodeId, _have: u64) -> Option<Transfer> {
        (!self.vg.is_excluded() && !self.vg.is_joining()).then(|| self.snapshot(sh))
    }

    fn quiesced(&self, _sh: &Shell) -> bool {
        self.ab.pending() == 0
    }

    fn retire(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, SemiActiveMsg>, remaining: &[NodeId]) {
        if self.ab.leave(remaining) {
            self.drive_ab(sh, ctx);
        }
        // Voluntary view-group exit: survivors install the shrunk view
        // and the next leader re-issues any stuck choices.
        self.vg.leave(&mut self.vg_out);
        self.drive_vs(sh, ctx);
    }

    fn volume_lost(&mut self, _sh: &mut Shell) {
        // The applied cursor and the buffered stream die with the volume.
        self.waiting.clear();
        self.choices.clear();
        self.issued.clear();
        self.next_apply = 0;
    }

    fn rewind_to(&mut self, _sh: &mut Shell, restore: DurableRestore) {
        // The leader choices behind the erased suffix are gone, so (as
        // with plain crashes) the remaining gap is covered by a peer
        // snapshot through the normal catch-up afterwards.
        self.next_apply = restore.token;
        self.ab.rewind_to(restore.token);
    }

    fn rejoin(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, SemiActiveMsg>) {
        if !sh.pull_state(ctx, None) {
            self.enter_groups(sh, ctx);
        }
    }

    fn position(&self, _sh: &Shell) -> u64 {
        self.next_apply
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
    ) -> (World<Wire<SemiActiveMsg>>, Vec<NodeId>, Vec<NodeId>) {
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
            .shell
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<SemiActiveServer>(s)
                    .shell
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
            .shell
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<SemiActiveServer>(s)
                    .shell
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
            .shell
            .base
            .store
            .fingerprint();
        let fp2 = world
            .actor_ref::<SemiActiveServer>(servers[2])
            .shell
            .base
            .store
            .fingerprint();
        assert_eq!(fp1, fp2, "survivors diverged after leader failover");
    }
}
