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

use repl_db::Keyspace;

use crate::op::ClientOp;
use crate::phase::Phase;
use crate::protocols::common::{global_txn, AbMsg};
use crate::protocols::replica::{Ctx, Replica, Shell, Wire};
use crate::protocols::stream::{Ordered, Stream};

/// Coordination traffic of eager update everywhere over ABCAST: the
/// operation ABCAST.
pub type EuaMsg = AbMsg<ClientOp>;

/// Eager update everywhere over ABCAST: the local server relays, every
/// server executes in delivery order, the delegate answers.
pub struct Eua;

/// A server for eager update everywhere over ABCAST.
pub type EuaServer = Replica<Stream<Eua>>;

impl Ordered for Eua {
    type Payload = ClientOp;
    const CROSS_SHARD: bool = true;

    fn new(_keyspace: Keyspace) -> Self {
        Eua
    }

    fn submit(&mut self, _: &mut Shell, _: &mut Ctx<'_, EuaMsg>, op: ClientOp) -> Option<ClientOp> {
        Some(op)
    }

    fn op(op: &ClientOp) -> &ClientOp {
        op
    }

    fn deliver(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_, EuaMsg>, op: ClientOp, mine: bool) {
        sh.mark(ctx, Phase::Execution, op.id, 0);
        // Sharded cross-shard operations: execute only this shard's
        // part, under the op's global transaction id. Only the delegate
        // (the server the client contacted) answers — except at the
        // foreign groups of a cross-shard op, where the client's affine
        // member answers the foreign partial (the delegate only holds the
        // home part).
        let cross = sh.shard().filter(|sc| sc.is_cross(&op));
        let answers = match cross {
            Some(sc) if sc.my_gid != sc.home_of(&op) => {
                sh.base.site % sc.group_size == op.id.client() % sc.group_size
            }
            _ => mine,
        };
        let local = cross.map(|sc| sc.local_part(&op));
        let resp = sh
            .base
            .execute_commit(local.as_ref().unwrap_or(&op), global_txn(op.id));
        sh.base.remember(&resp);
        if answers {
            ctx.send(op.client, Wire::Reply(resp));
        }
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
    ) -> (World<Wire<EuaMsg>>, Vec<NodeId>, Vec<NodeId>) {
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
