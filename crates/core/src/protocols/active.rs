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

use repl_db::Keyspace;

use crate::op::ClientOp;
use crate::phase::Phase;
use crate::protocols::common::{global_txn, AbMsg};
use crate::protocols::replica::{Ctx, Replica, Shell, Wire};
use crate::protocols::stream::{Ordered, Stream};

/// Coordination traffic of active replication: the request ABCAST.
pub type ActiveMsg = AbMsg<ClientOp>;

/// Active replication: the request itself is broadcast; every replica
/// executes it on delivery and answers.
pub struct Active;

/// An active-replication server.
pub type ActiveServer = Replica<Stream<Active>>;

impl Ordered for Active {
    type Payload = ClientOp;
    const CROSS_SHARD: bool = true;

    fn new(_keyspace: Keyspace) -> Self {
        Active
    }

    fn submit(
        &mut self,
        _: &mut Shell,
        _: &mut Ctx<'_, ActiveMsg>,
        op: ClientOp,
    ) -> Option<ClientOp> {
        Some(op)
    }

    fn op(op: &ClientOp) -> &ClientOp {
        op
    }

    fn deliver(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, ActiveMsg>, op: ClientOp, _mine: bool) {
        sh.mark(ctx, Phase::Execution, op.id, 0);
        // Sharded cross-shard operations: execute only this shard's
        // part, under the op's global transaction id — the touched
        // groups' histories splice into one transaction.
        let local = sh
            .shard()
            .filter(|sc| sc.is_cross(&op))
            .map(|sc| sc.local_part(&op));
        let resp = sh
            .base
            .execute_commit(local.as_ref().unwrap_or(&op), global_txn(op.id));
        sh.base.remember(&resp);
        // Every replica answers; the client keeps the first reply
        // (per group, in the sharded mode — partials merge there).
        ctx.send(op.client, Wire::Reply(resp));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientActor;
    use crate::protocols::common::{AbcastImpl, ExecutionMode};
    use repl_db::{Key, Value};
    use repl_gcs::ConsensusConfig;
    use repl_sim::{NodeId, SimConfig, SimDuration, SimTime, World};
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
    ) -> (World<Wire<ActiveMsg>>, Vec<NodeId>, Vec<NodeId>) {
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
                srv.shell
                    .base
                    .set_durability(&crate::durability::DurabilityConfig::with_upload_lag(lag));
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
