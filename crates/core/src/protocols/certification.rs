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

use std::sync::Arc;

use repl_db::{Certifier, Key, Keyspace, WriteRecord, WriteSetRef};
use repl_sim::{Message, NodeId};

use crate::op::{ClientOp, Response};
use crate::phase::Phase;
use crate::protocols::common::global_txn;
use crate::protocols::replica::{Ctx, Replica, Shell, Wire};
use crate::protocols::stream::{Ordered, Stream};
use repl_gcs::AbMsg;

/// What the delegate broadcasts after optimistic execution.
#[derive(Debug, Clone)]
pub struct CertRequest {
    /// The client operation.
    pub op: ClientOp,
    /// Versions read during shadow execution (shared: the request is
    /// cloned once per ordering leg).
    pub read_set: Arc<[(Key, u64)]>,
    /// Buffered writes.
    pub ws: WriteSetRef,
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

/// Coordination traffic of certification-based replication: the
/// certification-request ABCAST.
pub type CertMsg = AbMsg<CertRequest>;

/// Certification-based replication: optimistic shadow execution at the
/// delegate, one ABCAST, the same deterministic test at every site.
pub struct Cert {
    /// The deterministic certification state (identical at all sites).
    /// It only advances with the ordered stream, so a recovering site
    /// replays the missed suffix — a peer snapshot would leave the
    /// version counters behind and make later verdicts diverge.
    pub certifier: Certifier,
}

/// A certification-based replication server.
pub type CertServer = Replica<Stream<Cert>>;

impl Ordered for Cert {
    type Payload = CertRequest;

    fn new(keyspace: Keyspace) -> Self {
        Cert {
            certifier: Certifier::with_keyspace(keyspace),
        }
    }

    fn submit(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, CertMsg>,
        op: ClientOp,
    ) -> Option<CertRequest> {
        // Read-only transactions answer locally from committed state —
        // no broadcast, no certification (the usual optimisation; their
        // reads are snapshot-consistent at this site).
        if op.is_read_only() {
            let resp = sh.base.answer_read_only(&op);
            sh.reply(ctx, op.client, resp);
            return None;
        }
        // Phase EX: optimistic shadow execution at the delegate.
        sh.mark(ctx, Phase::Execution, op.id, 0);
        // Every member consumes each certification request once.
        let peers = sh.servers().len() as u32;
        let (ws, resp) = sh.base.execute_shadow(&op, global_txn(op.id), peers);
        // Shared: the request carrying it is cloned once per ordering
        // leg. (The empty default does not allocate.)
        let read_set: Arc<[(Key, u64)]> = match sh.base.shadow_read_set() {
            [] => Arc::default(),
            reads => reads.into(),
        };
        Some(CertRequest {
            op,
            read_set,
            ws,
            resp,
            delegate: sh.me(),
        })
    }

    fn op(req: &CertRequest) -> &ClientOp {
        &req.op
    }

    fn deliver(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_, CertMsg>,
        req: CertRequest,
        _mine: bool,
    ) {
        let op_id = req.op.id;
        sh.mark(ctx, Phase::AgreementCoordination, op_id, 0);
        let txn = global_txn(op_id);
        let committed = sh.base.read_payload(req.ws, |base, view| {
            let verdict = self
                .certifier
                .certify_records(&req.read_set, txn, view.iter());
            if !verdict.is_commit() {
                return false;
            }
            // Install the writes; local versions track the certifier's
            // counters because every site applies the same stream. The
            // durable tier gets the store-assigned versions (not the
            // shadow's), so a restore reproduces them exactly — it is
            // the only consumer of those versions, and it reads them back
            // from the store (a writeset's keys are distinct).
            for w in view.iter() {
                base.store.write(w.key, w.value, txn);
                base.history
                    .record(base.site, txn, w.key, repl_db::AccessKind::Write);
            }
            if let Some(t) = &mut base.tier {
                let store = &base.store;
                t.note_records(
                    txn,
                    view.iter().map(|w| WriteRecord {
                        version: store.read(w.key).map_or(0, |v| v.version),
                        ..w
                    }),
                );
            }
            true
        });
        let resp = if committed {
            let base = &mut sh.base;
            for &(k, _) in req.read_set.iter() {
                base.history
                    .record(base.site, txn, k, repl_db::AccessKind::Read);
            }
            base.commit(txn);
            Response {
                committed: true,
                ..req.resp.clone()
            }
        } else {
            sh.base.abort(txn);
            Response::aborted(op_id)
        };
        sh.base.release_payload(req.ws);
        sh.answer(&resp);
        // The request names its delegate: a retry relayed by a second
        // server must still be answered by one site only.
        if req.delegate == sh.me() {
            ctx.send(req.op.client, Wire::Reply(resp));
        }
    }

    fn discard(&mut self, sh: &mut Shell, req: &CertRequest) {
        sh.base.release_payload(req.ws);
    }

    /// Rebuilds the certifier's version counters from the installed
    /// store: store versions track them one-for-one, so the store *is*
    /// the certification state at its position in the stream, and
    /// verdicts for the replayed suffix match the group's. (The
    /// commit/abort tallies restart — only verdicts must survive, and the
    /// report counts client-side.)
    fn store_replaced(&mut self, sh: &mut Shell) {
        self.certifier = Certifier::with_keyspace(sh.base.keyspace());
        for (k, v) in sh.base.store.iter() {
            if let Some(by) = v.writer {
                self.certifier.restore_version(k, v.version, by);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientActor;
    use crate::protocols::common::{AbcastImpl, ExecutionMode};
    use crate::protocols::replica::tests::seat_all;
    use repl_db::Value;
    use repl_gcs::ConsensusConfig;
    use repl_sim::{SimConfig, SimDuration, SimTime, World};
    use repl_workload::{OpTemplate, TxnTemplate};

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
    ) -> (World<Wire<CertMsg>>, Vec<NodeId>, Vec<NodeId>) {
        let mut world = World::new(SimConfig::new(seed));
        let servers: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        seat_all(
            &mut world,
            (0..n).map(|i| {
                CertServer::new(
                    i,
                    NodeId::new(i),
                    servers.clone(),
                    16,
                    ExecutionMode::Deterministic,
                    AbcastImpl::Sequencer,
                    ConsensusConfig::default(),
                )
            }),
        );
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
            .shell
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<CertServer>(s)
                    .shell
                    .base
                    .store
                    .fingerprint(),
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
        let stats0 = world
            .actor_ref::<CertServer>(servers[0])
            .tech
            .flow
            .certifier
            .stats();
        let stats1 = world
            .actor_ref::<CertServer>(servers[1])
            .tech
            .flow
            .certifier
            .stats();
        assert_eq!(stats0, stats1);
        assert_eq!(stats0, (1, 1));
        let fp0 = world
            .actor_ref::<CertServer>(servers[0])
            .shell
            .base
            .store
            .fingerprint();
        assert_eq!(
            world
                .actor_ref::<CertServer>(servers[1])
                .shell
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
            .shell
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<CertServer>(s)
                    .shell
                    .base
                    .store
                    .fingerprint(),
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
            merged.merge(&world.actor_ref::<CertServer>(s).shell.base.history);
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
