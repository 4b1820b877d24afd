//! The closed-loop client driver for partially replicated (sharded) runs.
//!
//! Unlike [`ClientActor`](crate::ClientActor), which is pinned to one
//! replica group, a [`ShardedClient`] routes every transaction by
//! content: a single-shard transaction goes to a member of the group
//! that owns its keys, a cross-shard transaction goes to its *home*
//! group (the shard of its first key), whose member initiates the
//! cross-group coordination.
//!
//! Techniques answer sharded transactions in two shapes ([`ReplyMode`]):
//!
//! * **Full** — the contacted server returns the complete response once
//!   the closing 2PC decides (eager update-everywhere locking).
//! * **PerShard** — every touched group answers its *own* partial
//!   (its shard's reads, its commit verdict) and the client merges
//!   them: committed is the conjunction, reads are reassembled into
//!   program order. This is how the genuine-multicast techniques
//!   (active, EUA) answer: no single server ever sees a foreign
//!   shard's data, so no single server can answer alone.
//!
//! Retries mirror the unsharded client: the same [`OpId`] re-submits to
//! the next member of the *same* contact group after `retry_after`
//! (server response caches make this exactly-once); partials already
//! collected are kept across retries.

use std::collections::HashMap;

use repl_db::{Key, Value};
use repl_sim::{impl_as_any, Actor, Context, GroupSet, NodeId, SimDuration, TimerId};
use repl_workload::{OpTemplate, ShardMap, TxnTemplate};

use crate::client::{OpRecord, ProtocolMsg};
use crate::op::{ClientOp, OpId, Response};
use crate::phase::Phase;

/// How the touched groups answer a sharded transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyMode {
    /// The contacted server returns the complete response (locking: the
    /// delegate gathers foreign reads and runs the closing 2PC itself).
    Full,
    /// Each touched group answers its own partial; the client merges
    /// them (genuine-multicast techniques).
    PerShard,
}

const RETRY_TAG: u64 = 1;
const THINK_TAG: u64 = 2;

/// The closed-loop client actor for sharded runs.
pub struct ShardedClient<M> {
    client_no: u32,
    map: ShardMap,
    group_size: u32,
    txns: Vec<TxnTemplate>,
    think: SimDuration,
    retry_after: SimDuration,
    mode: ReplyMode,
    /// Completed and in-flight operation records.
    pub records: Vec<OpRecord>,
    next_txn: usize,
    /// Partial responses per touched group for the in-flight op.
    partials: HashMap<u32, Response>,
    /// Touched groups of the in-flight op, ascending.
    expect: GroupSet,
    /// Home group of the in-flight op.
    home: u32,
    /// Member rank within the contact group (rotates on retry).
    rank: u32,
    /// Fixed initial rank (primary-copy techniques pin their group's
    /// primary); `None` spreads clients round-robin over the group.
    pin_rank: Option<u32>,
    /// Whether retries rotate to the next group member. Cross-shard
    /// delegation turns this off: a resend to a *different* member would
    /// spawn a second delegate for the same transaction id, and once the
    /// first delegate's two-phase commit has released its locks the
    /// duplicate re-executes the writes out of order.
    rotate_on_retry: bool,
    done: bool,
    _marker: std::marker::PhantomData<M>,
}

impl<M: ProtocolMsg> ShardedClient<M> {
    /// Creates a sharded client over `map` with groups of `group_size`
    /// contiguous nodes (group `g` owns shard `g` and spans nodes
    /// `g*group_size .. (g+1)*group_size`).
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is zero.
    pub fn new(
        client_no: u32,
        map: ShardMap,
        group_size: u32,
        txns: Vec<TxnTemplate>,
        think: SimDuration,
        retry_after: SimDuration,
        mode: ReplyMode,
    ) -> Self {
        assert!(group_size > 0, "groups need at least one server");
        ShardedClient {
            client_no,
            map,
            group_size,
            txns,
            think,
            retry_after,
            mode,
            records: Vec::new(),
            next_txn: 0,
            partials: HashMap::new(),
            expect: GroupSet::default(),
            home: 0,
            rank: 0,
            pin_rank: None,
            rotate_on_retry: true,
            done: true,
            _marker: std::marker::PhantomData,
        }
    }

    /// Pins the initial contact to member `rank` of the home group (the
    /// primary-copy techniques address rank 0, their group's primary).
    /// Retries still rotate through the group so failover can land on a
    /// promoted backup.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is outside the group.
    pub fn with_pinned_rank(mut self, rank: u32) -> Self {
        assert!(rank < self.group_size, "rank {rank} outside the group");
        self.pin_rank = Some(rank);
        self
    }

    /// Makes retries resend to the *same* contact instead of rotating.
    ///
    /// Delegate-based cross-shard commit (eager UE locking) needs this:
    /// the contact dedups resends against its response cache and its
    /// live-delegation table, so the transaction runs exactly once. A
    /// rotated resend would reach a member with neither, which would
    /// start a second delegation of the same transaction id. Rotation
    /// only buys crash failover, and cross-shard runs reject fault
    /// plans, so a sticky contact costs nothing.
    pub fn with_sticky_retries(mut self) -> Self {
        self.rotate_on_retry = false;
        self
    }

    /// True once every transaction has a response.
    pub fn is_done(&self) -> bool {
        self.done && self.next_txn >= self.txns.len()
    }

    /// The completed operation records.
    pub fn completed(&self) -> impl Iterator<Item = &OpRecord> {
        self.records.iter().filter(|r| r.responded.is_some())
    }

    /// The contact node for the in-flight op: member `rank` of the home
    /// group.
    fn contact(&self) -> NodeId {
        NodeId::new(self.home * self.group_size + self.rank)
    }

    fn submit_next(&mut self, ctx: &mut Context<'_, M>) {
        if self.next_txn >= self.txns.len() {
            return;
        }
        let seq = self.next_txn as u32;
        let id = OpId::compose(self.client_no, seq);
        let txn = self.txns[self.next_txn].clone();
        self.next_txn += 1;
        self.done = false;
        self.expect = self.map.shards_of(&txn);
        self.home = self.map.shard_of(txn.ops[0].key());
        self.rank = self.pin_rank.unwrap_or(self.client_no % self.group_size);
        self.partials.clear();
        self.records.push(OpRecord {
            op: id,
            txn: txn.clone(),
            invoked: ctx.now(),
            responded: None,
            response: None,
            retries: 0,
        });
        ctx.mark(Phase::Request.tag(), id.0, 0);
        let op = ClientOp {
            id,
            client: ctx.me(),
            txn,
        };
        ctx.send(self.contact(), M::invoke(op));
        ctx.set_timer(self.retry_after, RETRY_TAG);
    }

    fn retry(&mut self, ctx: &mut Context<'_, M>) {
        let Some(rec) = self.records.last_mut() else {
            return;
        };
        if rec.responded.is_some() {
            return;
        }
        rec.retries += 1;
        if self.rotate_on_retry {
            self.rank = (self.rank + 1) % self.group_size;
        }
        let op = ClientOp {
            id: rec.op,
            client: ctx.me(),
            txn: rec.txn.clone(),
        };
        ctx.send(self.contact(), M::invoke(op));
        ctx.set_timer(self.retry_after, RETRY_TAG);
    }

    /// Records the merged (or full) response and re-enters think time.
    fn complete(&mut self, ctx: &mut Context<'_, M>, resp: Response) {
        let Some(rec) = self.records.last_mut() else {
            return;
        };
        rec.responded = Some(ctx.now());
        rec.response = Some(resp);
        ctx.mark(Phase::Response.tag(), rec.op.0, 0);
        self.done = true;
        self.partials.clear();
        if self.next_txn < self.txns.len() {
            ctx.set_timer(self.think, THINK_TAG);
        }
    }

    /// Merges the collected partials: committed is the conjunction, and
    /// reads are reassembled into program order via the key each partial
    /// reported (the generator never repeats a key within a transaction,
    /// so the key identifies the step).
    fn merge_partials(&mut self, op: OpId) -> Response {
        let committed = self.expect.iter().all(|g| self.partials[g].committed);
        let mut vals: HashMap<Key, Value> = HashMap::new();
        for g in self.expect.iter() {
            for &(k, v) in &self.partials[g].reads {
                vals.insert(k, v);
            }
        }
        let rec = self.records.last().expect("in-flight op");
        let reads: Vec<(Key, Value)> = rec
            .txn
            .ops
            .iter()
            .filter_map(|o| match o {
                OpTemplate::Read(k) => Some((*k, vals.get(k).copied().unwrap_or(Value(0)))),
                OpTemplate::Write(..) => None,
            })
            .collect();
        Response {
            op,
            committed,
            reads,
        }
    }
}

impl<M: ProtocolMsg> Actor<M> for ShardedClient<M> {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        self.submit_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M) {
        let Some(resp) = msg.response() else {
            return;
        };
        let Some(rec) = self.records.last() else {
            return;
        };
        if rec.op != resp.op || rec.responded.is_some() {
            return; // stale or duplicate (active replication answers n times)
        }
        match self.mode {
            ReplyMode::Full => {
                let resp = resp.clone();
                self.complete(ctx, resp);
            }
            ReplyMode::PerShard => {
                let gid = from.index() as u32 / self.group_size;
                self.partials.entry(gid).or_insert_with(|| resp.clone());
                if self.expect.iter().all(|g| self.partials.contains_key(g)) {
                    let merged = self.merge_partials(resp.op);
                    self.complete(ctx, merged);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, M>, _timer: TimerId, tag: u64) {
        match tag {
            RETRY_TAG if !self.done => self.retry(ctx),
            THINK_TAG if self.done => self.submit_next(ctx),
            _ => {}
        }
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_sim::{Message, SimConfig, SimTime, World};

    /// A trivial wire type for driving the client directly.
    #[derive(Debug, Clone)]
    enum EchoMsg {
        Invoke(ClientOp),
        Reply(Response),
        Member(crate::protocols::replica::MemberMsg),
    }
    impl Message for EchoMsg {}
    crate::client::impl_protocol_msg!(EchoMsg);

    /// A server standing in for one member of a sharded group: answers
    /// only the ops on its own shard's keys (reads echo `key * 10`), and
    /// fans the op out to the other touched groups' first members the
    /// way a home contact would.
    struct ShardEcho {
        map: ShardMap,
        group_size: u32,
        gid: u32,
        served: u32,
    }
    impl Actor<EchoMsg> for ShardEcho {
        fn on_message(&mut self, ctx: &mut Context<'_, EchoMsg>, _from: NodeId, msg: EchoMsg) {
            let EchoMsg::Invoke(op) = msg else { return };
            self.served += 1;
            // Forward to the other touched groups (home-contact role).
            for &g in self.map.shards_of(&op.txn).iter() {
                if g != self.gid {
                    ctx.send(
                        NodeId::new(g * self.group_size),
                        EchoMsg::Invoke(op.clone()),
                    );
                }
            }
            let reads: Vec<(Key, Value)> = op
                .txn
                .ops
                .iter()
                .filter_map(|o| match o {
                    OpTemplate::Read(k) if self.map.shard_of(*k) == self.gid => {
                        Some((*k, Value(k.0 as i64 * 10)))
                    }
                    _ => None,
                })
                .collect();
            ctx.send(
                op.client,
                EchoMsg::Reply(Response {
                    op: op.id,
                    committed: true,
                    reads,
                }),
            );
        }
        impl_as_any!();
    }

    fn shard_world(shards: u32) -> (World<EchoMsg>, ShardMap, Vec<NodeId>) {
        let map = ShardMap::new(64, shards);
        let mut world: World<EchoMsg> = World::new(SimConfig::new(7));
        let mut servers = Vec::new();
        for g in 0..shards {
            servers.push(world.add_actor(Box::new(ShardEcho {
                map,
                group_size: 1,
                gid: g,
                served: 0,
            })));
        }
        (world, map, servers)
    }

    #[test]
    fn single_shard_txns_route_to_the_owning_group() {
        let (mut world, map, servers) = shard_world(4);
        // One write per shard, routed by the key's owner.
        let txns: Vec<TxnTemplate> = (0..4)
            .map(|g| TxnTemplate {
                ops: vec![OpTemplate::Write(Key(map.range(g).0), Value(1))].into(),
            })
            .collect();
        let c = world.add_actor(Box::new(ShardedClient::<EchoMsg>::new(
            0,
            map,
            1,
            txns,
            SimDuration::from_ticks(50),
            SimDuration::from_ticks(50_000),
            ReplyMode::PerShard,
        )));
        world.start();
        world.run_to_quiescence(SimTime::from_ticks(1_000_000));
        let client = world.actor_ref::<ShardedClient<EchoMsg>>(c);
        assert!(client.is_done());
        assert_eq!(client.completed().count(), 4);
        for &s in &servers {
            assert_eq!(world.actor_ref::<ShardEcho>(s).served, 1);
        }
    }

    #[test]
    fn cross_shard_partials_merge_into_program_order() {
        let (mut world, map, _servers) = shard_world(2);
        let k0 = Key(map.range(0).0); // shard 0
        let k1 = Key(map.range(1).0); // shard 1
        let txns = vec![TxnTemplate {
            // Reads interleave the two shards; the merged response must
            // come back in program order regardless of reply order.
            ops: vec![
                OpTemplate::Read(k1),
                OpTemplate::Write(k0, Value(5)),
                OpTemplate::Read(k0),
            ]
            .into(),
        }];
        let c = world.add_actor(Box::new(ShardedClient::<EchoMsg>::new(
            3,
            map,
            1,
            txns,
            SimDuration::from_ticks(50),
            SimDuration::from_ticks(50_000),
            ReplyMode::PerShard,
        )));
        world.start();
        world.run_to_quiescence(SimTime::from_ticks(1_000_000));
        let client = world.actor_ref::<ShardedClient<EchoMsg>>(c);
        assert!(client.is_done());
        let resp = client.records[0].response.as_ref().expect("merged");
        assert!(resp.committed);
        assert_eq!(
            resp.reads,
            vec![(k1, Value(k1.0 as i64 * 10)), (k0, Value(k0.0 as i64 * 10))]
        );
    }

    #[test]
    fn full_mode_takes_the_first_complete_response() {
        let (mut world, map, _servers) = shard_world(2);
        let k1 = Key(map.range(1).0);
        let txns = vec![TxnTemplate {
            ops: vec![OpTemplate::Read(k1)].into(),
        }];
        let c = world.add_actor(Box::new(ShardedClient::<EchoMsg>::new(
            1,
            map,
            1,
            txns,
            SimDuration::from_ticks(50),
            SimDuration::from_ticks(50_000),
            ReplyMode::Full,
        )));
        world.start();
        world.run_to_quiescence(SimTime::from_ticks(1_000_000));
        let client = world.actor_ref::<ShardedClient<EchoMsg>>(c);
        assert!(client.is_done());
        assert!(client.records[0].response.as_ref().expect("resp").committed);
    }
}
