//! Certification-based database replication (paper §5.4.2, Fig. 14).
//!
//! The delegate executes the whole transaction optimistically on shadow
//! copies (no locks, no coordination), then ABCASTs the transaction's
//! read set and writeset in a single message. Every site processes the
//! certification stream in the same total order and runs the *same
//! deterministic test* — commit unless a concurrently certified
//! transaction overwrote something this one read — so all sites reach the
//! same verdict with no further agreement round.
//! Skeleton: `RE EX SC AC END` (the paper's Fig. 16 folds the ABCAST and
//! the certification into one synchronisation block; we mark the ABCAST
//! as SC and the test as AC).
//!
//! The technique is optimistic: under contention it aborts instead of
//! blocking. Aborts are reported to the client, which may resubmit as a
//! fresh transaction (our closed-loop client records them; the conflicts
//! experiment sweeps the abort rate).

use std::collections::HashSet;
use std::sync::Arc;

use repl_db::{Certifier, Key, Keyspace, WriteRecord, WriteSet, WsPayload};
use repl_gcs::{AbDeliver, BatchConfig, Outbox};
use repl_sim::{impl_as_any, Actor, Context, Message, NodeId, SimDuration, SimTime, TimerId};
use repl_workload::OpTemplate;

use crate::client::ProtocolMsg;
use crate::op::{ClientOp, OpId, Response};
use crate::phase::Phase;
use crate::protocols::common::{
    global_txn, settle_rejoin, AbMsg, AbcastEndpoint, AbcastImpl, DrainState, Elastic,
    ExecutionMode, MemberMsg, ServerBase, DRAIN_TICK_TAG, DRAIN_TICK_TICKS, JOIN_RETRY_TAG,
    JOIN_RETRY_TICKS, RESTORE_TAG,
};
use repl_db::Transfer;
use repl_gcs::ConsensusConfig;

/// What the delegate broadcasts after optimistic execution.
#[derive(Debug, Clone)]
pub struct CertRequest {
    /// The client operation.
    pub op: ClientOp,
    /// Versions read during shadow execution (shared: the request is
    /// cloned once per ordering leg).
    pub read_set: Arc<[(Key, u64)]>,
    /// Buffered writes (arena handle or `Arc`-shared inline).
    pub ws: WsPayload,
    /// The response computed during shadow execution.
    pub resp: Response,
    /// The delegate (answers the client).
    pub delegate: NodeId,
}

impl Message for CertRequest {
    fn wire_size(&self) -> usize {
        self.op.wire_size() + self.read_set.len() * 16 + self.ws.wire_size() + self.resp.wire_size()
    }
}

/// Wire messages of certification-based replication.
#[derive(Debug, Clone)]
pub enum CertMsg {
    /// Client → delegate.
    Invoke(ClientOp),
    /// ABCAST traffic carrying certification requests.
    Ab(AbMsg<CertRequest>),
    /// Delegate → client.
    Reply(Response),
    /// Elastic-membership handshake (join / drain / reroute).
    Member(MemberMsg),
}

impl Message for CertMsg {
    fn wire_size(&self) -> usize {
        match self {
            CertMsg::Invoke(op) => 8 + op.wire_size(),
            CertMsg::Ab(m) => m.wire_size(),
            CertMsg::Reply(r) => 8 + r.wire_size(),
            CertMsg::Member(m) => m.wire_size(),
        }
    }
}

impl ProtocolMsg for CertMsg {
    fn invoke(op: ClientOp) -> Self {
        CertMsg::Invoke(op)
    }
    fn response(&self) -> Option<&Response> {
        match self {
            CertMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
    fn reroute(&self) -> Option<(OpId, &[NodeId])> {
        match self {
            CertMsg::Member(MemberMsg::Reroute { op, servers }) => Some((*op, servers)),
            _ => None,
        }
    }
}

/// A certification-based replication server.
pub struct CertServer {
    /// Shared database/server state (public for post-run inspection).
    pub base: ServerBase,
    me: NodeId,
    ab: AbcastEndpoint<CertRequest>,
    /// What `ab` queued while handling one input; drained by `drain`.
    ab_out: Outbox<AbMsg<CertRequest>, AbDeliver<CertRequest>>,
    /// The deterministic certification state (identical at all sites).
    pub certifier: Certifier,
    relayed: HashSet<OpId>,
    /// Group size: every member consumes each certification request once.
    peers: u32,
    marks: bool,
    /// Elastic-membership lifecycle (dormant without a membership plan).
    pub elastic: Elastic,
}

impl CertServer {
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
        CertServer {
            base: ServerBase::new(site, ks, exec),
            me,
            peers: group.len() as u32,
            ab: AbcastEndpoint::new(abcast, me, group.clone(), cons),
            ab_out: Outbox::new(),
            certifier: Certifier::with_keyspace(ks),
            relayed: HashSet::new(),
            marks: site == 0,
            elastic: Elastic::new(me, group),
        }
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

    /// Applies what the ABCAST endpoint queued and certifies what it
    /// delivered.
    fn drain(&mut self, ctx: &mut Context<'_, CertMsg>) {
        let mut out = std::mem::take(&mut self.ab_out);
        repl_gcs::apply_outbox(ctx, &mut out, 0, CertMsg::Ab, |ctx, d| self.deliver(ctx, d));
        self.ab_out = out;
        settle_rejoin(&mut self.ab, &mut self.base, ctx.now().ticks());
    }

    fn deliver(&mut self, ctx: &mut Context<'_, CertMsg>, d: AbDeliver<CertRequest>) {
        let req = d.payload;
        let op_id = req.op.id;
        if self.base.cached(op_id).is_some() || self.elastic.answered.contains(&op_id) {
            self.base.release_payload(&req.ws); // duplicate delivery
            return;
        }
        if self.marks {
            ctx.mark(Phase::ServerCoordination.tag(), op_id.0, d.gseq);
            ctx.mark(Phase::AgreementCoordination.tag(), op_id.0, 0);
        }
        let txn = global_txn(op_id);
        let arena = self.base.arena.clone();
        let verdict = req.ws.with(arena.as_ref(), |view| {
            self.certifier
                .certify_records(&req.read_set, txn, view.iter())
        });
        let resp = if verdict.is_commit() {
            // Install the writes; local versions track the certifier's
            // counters because every site applies the same stream. The
            // durable tier gets the store-assigned versions (not the
            // shadow's), so a restore reproduces them exactly — it is
            // the only consumer of the materialized records, so the
            // collection is skipped entirely on untiered runs.
            let noted = req.ws.with(arena.as_ref(), |view| {
                let mut noted = self.base.tier.is_some().then(|| WriteSet {
                    txn,
                    writes: Vec::with_capacity(view.len()),
                });
                for w in view.iter() {
                    let v = self.base.store.write(w.key, w.value, txn);
                    if let Some(applied) = &mut noted {
                        applied.writes.push(WriteRecord {
                            key: w.key,
                            value: w.value,
                            version: v.version,
                        });
                    }
                    self.base.history.record(
                        self.base.site,
                        txn,
                        w.key,
                        repl_db::AccessKind::Write,
                    );
                }
                noted
            });
            if let (Some(t), Some(applied)) = (&mut self.base.tier, noted) {
                t.note_commit(&applied);
            }
            for &(k, _) in req.read_set.iter() {
                self.base
                    .history
                    .record(self.base.site, txn, k, repl_db::AccessKind::Read);
            }
            self.base.history.mark_committed(txn);
            self.base.committed += 1;
            Response {
                committed: true,
                ..req.resp.clone()
            }
        } else {
            self.base.aborted += 1;
            Response::aborted(op_id)
        };
        self.base.release_payload(&req.ws);
        self.base.remember(&resp);
        if req.delegate == self.me {
            ctx.send(req.op.client, CertMsg::Reply(resp));
        }
    }

    fn rejoin_now(&mut self, ctx: &mut Context<'_, CertMsg>) {
        self.ab.rejoin(&mut self.ab_out);
        self.drain(ctx);
    }

    fn invoke(&mut self, ctx: &mut Context<'_, CertMsg>, op: ClientOp) {
        if let Some(resp) = self.base.cached(op.id) {
            ctx.send(op.client, CertMsg::Reply(resp));
            return;
        }
        if self.elastic.rerouting() {
            ctx.send(
                op.client,
                CertMsg::Member(MemberMsg::Reroute {
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
        // Read-only transactions answer locally from committed
        // state — no broadcast, no certification (the usual
        // optimisation; their reads are snapshot-consistent at
        // this site).
        if op.is_read_only() {
            let txn = global_txn(op.id);
            let mut reads = Vec::new();
            for tpl in op.txn.ops.iter() {
                if let OpTemplate::Read(k) = tpl {
                    reads.push((*k, self.base.read_committed(txn, *k)));
                }
            }
            self.base.history.mark_committed(txn);
            let resp = Response {
                op: op.id,
                committed: true,
                reads,
            };
            self.base.remember(&resp);
            ctx.send(op.client, CertMsg::Reply(resp));
            return;
        }
        // Phase EX: optimistic shadow execution at the delegate.
        if self.marks {
            ctx.mark(Phase::Execution.tag(), op.id.0, 0);
        }
        let txn = global_txn(op.id);
        let (read_set, ws, resp) = self.base.execute_shadow(&op, txn);
        let req = CertRequest {
            op,
            read_set,
            ws: self.base.make_payload(ws, self.peers),
            resp,
            delegate: self.me,
        };
        self.ab.broadcast(req, &mut self.ab_out);
        self.drain(ctx);
    }

    /// Rebuilds the certifier from the installed store: store versions
    /// track certifier counters one-for-one (same invariant the volume
    /// restore relies on), so verdicts for the replayed suffix match the
    /// group's.
    fn rebuild_certifier(&mut self) {
        self.certifier = Certifier::with_keyspace(self.base.keyspace());
        for (k, v) in self.base.store.snapshot() {
            if let Some(by) = v.writer {
                self.certifier.restore_version(k, v.version, by);
            }
        }
    }

    fn member(&mut self, ctx: &mut Context<'_, CertMsg>, from: NodeId, m: MemberMsg) {
        match m {
            MemberMsg::JoinReq => {
                if !self.elastic.is_coordinator() || self.elastic.joining {
                    return;
                }
                // Admission, group switch and snapshot are atomic here:
                // every ordered request after this point reaches the
                // joiner, everything before is in the snapshot.
                self.elastic.admit(from);
                self.peers = self.elastic.servers.len() as u32;
                self.ab.set_group(self.elastic.servers.clone());
                for &n in &self.elastic.servers {
                    if n != self.elastic.me && n != from {
                        ctx.send(
                            n,
                            CertMsg::Member(MemberMsg::ViewAdd {
                                servers: self.elastic.servers.clone(),
                            }),
                        );
                    }
                }
                let transfer = Transfer::snapshot(&self.base.store, self.ab.delivered_gseq());
                ctx.send(
                    from,
                    CertMsg::Member(MemberMsg::Welcome {
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
                self.peers = self.elastic.servers.len() as u32;
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
                self.peers = self.elastic.servers.len() as u32;
                self.ab.set_group(self.elastic.servers.clone());
                if let Some(t) = transfer {
                    self.base.install_transfer(&t);
                    self.rebuild_certifier();
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
                self.peers = self.elastic.servers.len() as u32;
                self.ab.set_group(self.elastic.servers.clone());
            }
            MemberMsg::Reroute { .. } => {}
        }
    }

    fn try_retire(&mut self, ctx: &mut Context<'_, CertMsg>) {
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
                CertMsg::Member(MemberMsg::ViewDrop {
                    node: self.elastic.me,
                }),
            );
        }
        self.elastic.servers = remaining;
        self.peers = self.elastic.servers.len() as u32;
        self.elastic.drain = DrainState::Retired;
    }
}

impl Actor<CertMsg> for CertServer {
    fn on_message(&mut self, ctx: &mut Context<'_, CertMsg>, from: NodeId, msg: CertMsg) {
        if self.base.restoring() {
            return; // deaf until the volume restore download completes
        }
        match msg {
            CertMsg::Invoke(op) => self.invoke(ctx, op),
            CertMsg::Ab(m) => {
                self.ab.on_message(from, m, &mut self.ab_out);
                self.drain(ctx);
            }
            CertMsg::Reply(_) => {}
            CertMsg::Member(m) => self.member(ctx, from, m),
        }
    }

    fn on_start(&mut self, ctx: &mut Context<'_, CertMsg>) {
        if self.elastic.joining {
            self.base.recovery.begin(ctx.now().ticks());
            ctx.send(
                self.elastic.join_target(),
                CertMsg::Member(MemberMsg::JoinReq),
            );
            ctx.set_timer(SimDuration::from_ticks(JOIN_RETRY_TICKS), JOIN_RETRY_TAG);
        }
    }

    fn on_drain(&mut self, ctx: &mut Context<'_, CertMsg>) {
        if self.elastic.drain == DrainState::Active {
            self.elastic.drain = DrainState::Draining;
            self.try_retire(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, CertMsg>, _timer: TimerId, tag: u64) {
        if tag == RESTORE_TAG {
            self.base.finish_restore();
            self.rejoin_now(ctx);
            return;
        }
        if tag == JOIN_RETRY_TAG {
            if self.elastic.joining {
                ctx.send(
                    self.elastic.join_target(),
                    CertMsg::Member(MemberMsg::JoinReq),
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

    fn on_recover(&mut self, ctx: &mut Context<'_, CertMsg>) {
        // Certification state only advances with the ordered stream, so
        // recovery is a full replay of the missed suffix — a snapshot
        // would leave the certifier's version counters behind and make
        // later verdicts diverge across sites.
        self.base.recovery.begin(ctx.now().ticks());
        if let Some(plan) = self.base.begin_restore(ctx.now().ticks()) {
            // The certifier died with the volume. Store versions track
            // certifier counters one-for-one, so the restored store is
            // exactly the certification state at the durable token;
            // verdicts for the replayed suffix then match the group's.
            // (The commit/abort tallies restart — only verdicts must
            // survive a disaster, and the report counts client-side.)
            for (k, v) in self.base.store.snapshot() {
                if let Some(by) = v.writer {
                    self.certifier.restore_version(k, v.version, by);
                }
            }
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
        self.certifier = Certifier::with_keyspace(self.base.keyspace());
    }

    fn on_settle(&mut self, ctx: &mut Context<'_, CertMsg>) {
        self.base.seal_now(ctx.now().ticks(), self.ab.position());
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientActor;
    use repl_db::Value;
    use repl_sim::{SimConfig, SimDuration, SimTime, World};
    use repl_workload::TxnTemplate;

    fn rmw(k: u64, v: i64) -> TxnTemplate {
        TxnTemplate {
            ops: vec![
                OpTemplate::Read(Key(k)),
                OpTemplate::Write(Key(k), Value(v)),
            ]
            .into(),
        }
    }
    fn write(k: u64, v: i64) -> TxnTemplate {
        TxnTemplate {
            ops: vec![OpTemplate::Write(Key(k), Value(v))].into(),
        }
    }

    fn build(
        n: u32,
        txns: Vec<Vec<TxnTemplate>>,
        seed: u64,
    ) -> (World<CertMsg>, Vec<NodeId>, Vec<NodeId>) {
        let mut world = World::new(SimConfig::new(seed));
        let servers: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        for i in 0..n {
            world.add_actor(Box::new(CertServer::new(
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
            let client = ClientActor::<CertMsg>::new(
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
    fn non_conflicting_transactions_all_commit() {
        let (mut world, servers, clients) = build(
            3,
            vec![vec![rmw(0, 1)], vec![rmw(5, 2)], vec![rmw(10, 3)]],
            1,
        );
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        for &c in &clients {
            let client = world.actor_ref::<ClientActor<CertMsg>>(c);
            assert!(client.is_done());
            assert!(client.records[0].committed());
        }
        let fp0 = world
            .actor_ref::<CertServer>(servers[0])
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world.actor_ref::<CertServer>(s).base.store.fingerprint(),
                fp0
            );
        }
    }

    #[test]
    fn concurrent_conflicting_rmws_one_aborts_identically_everywhere() {
        // Two read-modify-writes of the same key from different delegates,
        // overlapping in time: whichever certifies second read a stale
        // version and must abort — at every site.
        let (mut world, servers, clients) = build(2, vec![vec![rmw(0, 111)], vec![rmw(0, 222)]], 2);
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        let mut verdicts = Vec::new();
        for &c in &clients {
            let client = world.actor_ref::<ClientActor<CertMsg>>(c);
            assert!(client.is_done());
            verdicts.push(client.records[0].committed());
        }
        assert_eq!(
            verdicts.iter().filter(|&&v| v).count(),
            1,
            "exactly one of the conflicting transactions commits: {verdicts:?}"
        );
        // Certifier agreement across sites.
        let stats0 = world.actor_ref::<CertServer>(servers[0]).certifier.stats();
        let stats1 = world.actor_ref::<CertServer>(servers[1]).certifier.stats();
        assert_eq!(stats0, stats1);
        assert_eq!(stats0, (1, 1));
        let fp0 = world
            .actor_ref::<CertServer>(servers[0])
            .base
            .store
            .fingerprint();
        assert_eq!(
            world
                .actor_ref::<CertServer>(servers[1])
                .base
                .store
                .fingerprint(),
            fp0
        );
    }

    #[test]
    fn blind_writes_never_abort() {
        let (mut world, servers, clients) = build(
            3,
            vec![vec![write(0, 1)], vec![write(0, 2)], vec![write(0, 3)]],
            3,
        );
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        for &c in &clients {
            assert!(world.actor_ref::<ClientActor<CertMsg>>(c).records[0].committed());
        }
        let fp0 = world
            .actor_ref::<CertServer>(servers[0])
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world.actor_ref::<CertServer>(s).base.store.fingerprint(),
                fp0
            );
        }
    }

    #[test]
    fn committed_history_is_one_copy_serializable() {
        let (mut world, servers, _clients) = build(
            3,
            vec![
                vec![rmw(0, 1), rmw(1, 2)],
                vec![rmw(1, 20), rmw(0, 10)],
                vec![rmw(2, 30)],
            ],
            4,
        );
        world.start();
        world.run_until(SimTime::from_ticks(1_000_000));
        let mut merged = repl_db::ReplicatedHistory::new();
        for &s in &servers {
            merged.merge(&world.actor_ref::<CertServer>(s).base.history);
        }
        merged
            .check_one_copy_serializable()
            .expect("certification must keep committed history 1SR");
    }

    #[test]
    fn phase_skeleton_matches_figure_14() {
        let (mut world, _s, _c) = build(3, vec![vec![rmw(0, 1)]], 5);
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        let pt = crate::phase::PhaseTrace::from_trace(world.trace());
        assert_eq!(
            pt.canonical().expect("op done").to_string(),
            "RE EX SC AC END",
            "optimistic execution precedes the ordering"
        );
    }
}
