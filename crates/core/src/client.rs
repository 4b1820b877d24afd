//! The client drivers shared by all techniques: one closed-loop actor per
//! client, and one open-loop arrival process per server group.
//!
//! A closed-loop client submits its transactions one at a time: invoke,
//! wait for the response, think, submit the next. On a response timeout it
//! re-submits the *same* operation (same [`OpId`]) to the next server — the
//! paper's "clients can then be connected to another database server and
//! re-submit the transaction" (Section 4.1). Servers suppress duplicates
//! through their client tables, so retries are exactly-once.
//!
//! A retry means "this operation timed out" and nothing else: every
//! attempt waits a constant `retry_after`, the timer is cancelled when the
//! response arrives, and the contact that answered is the next operation's
//! first contact — a client whose preferred server is down pays one
//! timeout, not one per operation.
//!
//! A closed-loop client has at most one operation in flight, so a
//! server's client table keeps one entry per client, as VR's does. The
//! open loop ([`AggregateClients`]) submits at [`ArrivalStream`] times
//! whatever the responses and never retries; it runs on lean servers only.
//!
//! A sharded run switches on content routing ([`ClientActor::with_routing`]):
//! an operation's contact list is then its *home* group (the shard of its
//! first key) instead of the whole server list.

use std::collections::HashMap;
use std::sync::Arc;

use repl_db::Value;
use repl_sim::{
    impl_as_any, Actor, GroupSet, LatencyHistogram, Message, NodeId, SimDuration, SimTime, TimerId,
};
use repl_workload::{ArrivalStream, OpTemplate, ShardMap, TxnList, TxnTemplate, WorkloadGen};

use crate::op::{ClientOp, OpId, Response};
use crate::phase::Phase;
use crate::protocols::replica::{Ctx, MemberMsg, Wire};

/// What a client observed for one operation.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// The operation id.
    pub op: OpId,
    /// The submitted transaction.
    pub txn: TxnTemplate,
    /// Invocation time (first submission).
    pub invoked: SimTime,
    /// Response time, if any arrived before the run ended.
    pub responded: Option<SimTime>,
    /// The response, if any.
    pub response: Option<Response>,
    /// Number of re-submissions (0 = first attempt answered).
    pub retries: u32,
}

impl OpRecord {
    /// The observed latency, if the operation completed.
    pub fn latency(&self) -> Option<SimDuration> {
        self.responded.map(|r| r - self.invoked)
    }

    /// True if the operation completed with a commit.
    pub fn committed(&self) -> bool {
        self.response.as_ref().is_some_and(|r| r.committed)
    }
}

const RETRY_TAG: u64 = 1;
const THINK_TAG: u64 = 2;
const SUBMIT_TAG: u64 = 3;

/// Re-resolves a client's server list after a decommission reroute:
/// keeps the same contact *node* when it survived, otherwise maps the
/// old index onto the new list. Returns the new contact, or `None` (and
/// changes nothing) when the reroute carries no servers.
fn resolve_reroute(
    servers: &mut Arc<[NodeId]>,
    contact: &mut usize,
    new_servers: &[NodeId],
) -> Option<NodeId> {
    if new_servers.is_empty() {
        return None;
    }
    let old = servers.get(*contact).copied();
    *servers = new_servers.into();
    *contact = old
        .and_then(|n| servers.iter().position(|&s| s == n))
        .unwrap_or(*contact % servers.len());
    Some(servers[*contact])
}

/// Submits `txn` as operation `id` to `to`: every client's first
/// submission, retry and reroute goes out through here.
fn send_op<P: Message>(ctx: &mut Ctx<'_, P>, to: NodeId, id: OpId, txn: TxnTemplate) {
    let client = ctx.me();
    ctx.send(to, Wire::Invoke(ClientOp { id, client, txn }));
}

/// How the touched groups answer a sharded transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyMode {
    /// The contacted server returns the complete response (locking: the
    /// delegate gathers foreign reads and runs the closing 2PC itself).
    Full,
    /// Each touched group answers its own partial (its shard's reads, its
    /// commit verdict) and the client merges them: a genuine-multicast
    /// server never sees a foreign shard's data, so none can answer alone.
    PerShard,
}

/// Content routing over contiguous replica groups: group `g` owns shard
/// `g` and is `servers[g * group_size .. (g + 1) * group_size]`.
struct Routing {
    map: ShardMap,
    group_size: usize,
    mode: ReplyMode,
    /// Touched groups of the in-flight op, ascending.
    expect: GroupSet,
    /// The in-flight op's partial responses by group, kept across retries.
    partials: HashMap<u32, Response>,
}

impl Routing {
    /// Files `resp` as the partial of the sender's group. Once every
    /// touched group has answered, returns the merge: committed is the
    /// conjunction, and each read of `txn`, in program order, takes the
    /// value its key's group reported (the generator never repeats a key
    /// within a transaction, so the key identifies the step).
    fn absorb(&mut self, from: NodeId, resp: &Response, txn: &TxnTemplate) -> Option<Response> {
        let gid = (from.index() / self.group_size) as u32;
        self.partials.entry(gid).or_insert_with(|| resp.clone());
        if !self.expect.iter().all(|g| self.partials.contains_key(g)) {
            return None;
        }
        let reads = txn.ops.iter().filter_map(|o| match o {
            OpTemplate::Read(k) => {
                let group = &self.partials[&self.map.shard_of(*k)].reads;
                let reported = group.iter().find(|(key, _)| key == k);
                Some((*k, reported.map_or(Value(0), |&(_, v)| v)))
            }
            OpTemplate::Write(..) => None,
        });
        Some(Response {
            op: resp.op,
            committed: self.expect.iter().all(|g| self.partials[g].committed),
            reads: reads.collect(),
        })
    }
}

/// The closed-loop client actor: one operation in flight at a time.
///
/// Speaks [`Wire<P>`] for the technique's traffic `P`, which it never
/// reads; the technique decides which server the client contacts first
/// (its "local" server, the primary, …) via `preferred`.
pub struct ClientActor<P> {
    client_no: u32,
    /// Every node, or the groups when routed: one list the run's clients
    /// share until a reroute gives one its own.
    servers: Arc<[NodeId]>,
    /// Index into the contact list of the server operations go to:
    /// `preferred` at first, advanced by each retry and kept across
    /// operations, so the contact that answered is asked first next time.
    contact: usize,
    txns: TxnList,
    think: SimDuration,
    retry_after: SimDuration,
    /// `None` at one group: every operation's contact list is `servers`.
    routing: Option<Routing>,
    /// Where the in-flight operation's contact list starts in `servers`:
    /// at its home group when routed, else 0.
    base: usize,
    start_after: SimDuration,
    /// Completed and in-flight operation records, in submission order:
    /// operation `seq` is `records[seq]`.
    pub records: Vec<OpRecord>,
    /// The in-flight operation's armed retry timer; `None` between
    /// operations, so a timer never outlives the attempt it guards.
    retry_timer: Option<TimerId>,
    /// Records that have a response.
    answered: usize,
    _marker: std::marker::PhantomData<P>,
}

impl<P: Message> ClientActor<P> {
    /// Creates a closed-loop client that will submit `txns` in order,
    /// contacting `servers[preferred]` first.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty.
    pub fn new(
        client_no: u32,
        servers: impl Into<Arc<[NodeId]>>,
        preferred: usize,
        txns: impl Into<TxnList>,
        think: SimDuration,
        retry_after: SimDuration,
    ) -> Self {
        let (servers, txns) = (servers.into(), txns.into());
        assert!(!servers.is_empty(), "client needs at least one server");
        let contact = preferred % servers.len();
        ClientActor {
            client_no,
            servers,
            contact,
            records: Vec::with_capacity(txns.len()),
            txns,
            think,
            retry_after,
            routing: None,
            base: 0,
            start_after: SimDuration::ZERO,
            retry_timer: None,
            answered: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Switches on content routing (builder form): `servers` is
    /// `map.shards()` contiguous groups of equal size, an operation's
    /// contact list is its *home* group — the shard of its first key,
    /// whose member initiates any cross-group coordination — `preferred`
    /// indexes that list, and replies are taken as `mode` says. Groups
    /// are addressed by position, so a routed client must not be
    /// rerouted (`validate_sharded` rejects membership plans).
    ///
    /// # Panics
    ///
    /// Panics unless `servers` splits into those groups and `preferred`
    /// lies inside one.
    pub fn with_routing(mut self, map: ShardMap, mode: ReplyMode) -> Self {
        let shards = map.shards() as usize;
        assert_eq!(self.servers.len() % shards, 0, "one group per shard");
        let group_size = self.servers.len() / shards;
        assert!(self.contact < group_size, "preferred outside the group");
        self.routing = Some(Routing {
            map,
            group_size,
            mode,
            expect: GroupSet::default(),
            partials: HashMap::new(),
        });
        self
    }

    /// Delays the first submission (builder form): elasticity runs start
    /// the clients aimed at a mid-run joiner only once it has joined.
    /// `ZERO` (the default) submits on start, byte-identical to before.
    pub fn with_start_after(mut self, d: SimDuration) -> Self {
        self.start_after = d;
        self
    }

    /// True once every transaction has a response.
    pub fn is_done(&self) -> bool {
        self.answered == self.txns.len()
    }

    /// The completed operation records.
    pub fn completed(&self) -> impl Iterator<Item = &OpRecord> {
        self.records.iter().filter(|r| r.responded.is_some())
    }

    /// Submits the next transaction, if one is left, and arms its retry
    /// timer.
    fn submit_next(&mut self, ctx: &mut Ctx<'_, P>) {
        let seq = self.records.len();
        let Some(txn) = self.txns.get(seq).cloned() else {
            return;
        };
        let id = OpId::compose(self.client_no, seq as u32);
        if let Some(r) = &mut self.routing {
            self.base = r.map.shard_of(txn.ops[0].key()) as usize * r.group_size;
            r.expect = r.map.shards_of(&txn);
            r.partials.clear();
        }
        self.records.push(OpRecord {
            op: id,
            txn: txn.clone(),
            invoked: ctx.now(),
            responded: None,
            response: None,
            retries: 0,
        });
        ctx.mark(Phase::Request.tag(), id.0, 0);
        send_op(ctx, self.servers[self.base + self.contact], id, txn);
        self.retry_timer = Some(ctx.set_timer(self.retry_after, RETRY_TAG));
    }

    fn retry(&mut self, ctx: &mut Ctx<'_, P>) {
        let Some(rec) = self.records.last_mut() else {
            return;
        };
        rec.retries += 1;
        let group = self.routing.as_ref().map(|r| r.group_size);
        self.contact = (self.contact + 1) % group.unwrap_or(self.servers.len());
        let to = self.servers[self.base + self.contact];
        send_op(ctx, to, rec.op, rec.txn.clone());
        self.retry_timer = Some(ctx.set_timer(self.retry_after, RETRY_TAG));
    }

    /// A decommissioned server bounced an operation: if it is still in
    /// flight, adopt the new membership, re-resolve the contact, and
    /// re-submit there immediately (the armed retry timer keeps running
    /// as a backstop).
    fn handle_reroute(&mut self, ctx: &mut Ctx<'_, P>, op: OpId, new_servers: &[NodeId]) {
        let Some(rec) = in_flight(&mut self.records, op) else {
            return;
        };
        let Some(to) = resolve_reroute(&mut self.servers, &mut self.contact, new_servers) else {
            return;
        };
        rec.retries += 1;
        send_op(ctx, to, rec.op, rec.txn.clone());
    }
}

/// The record of operation `op` while it awaits its response — the one
/// lookup for replies and reroutes: operation `seq` is `records[seq]`, and
/// only the last can be in flight.
fn in_flight(records: &mut [OpRecord], op: OpId) -> Option<&mut OpRecord> {
    (records.get_mut(op.seq() as usize)).filter(|r| r.op == op && r.responded.is_none())
}

/// The set of virtual clients one [`AggregateClients`] actor stands for:
/// `count` clients with ids `first, first + stride, first + 2·stride, …`.
///
/// The runner groups clients by preferred server; with `servers` replicas
/// and round-robin preference, server `s`'s group is
/// `{first: s, stride: servers}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientGroup {
    /// First virtual client id in the group.
    pub first: u32,
    /// Id spacing between successive members.
    pub stride: u32,
    /// Number of virtual clients in the group.
    pub count: u32,
}

impl ClientGroup {
    /// Total operation budget of the group at `txns_per_client`
    /// transactions per virtual client.
    pub fn budget(&self, txns_per_client: u32) -> u64 {
        u64::from(self.count) * u64::from(txns_per_client)
    }

    /// The virtual client id and per-client sequence number of the
    /// group's `i`-th arrival (round-robin over the members, so every
    /// member advances at the group's aggregate rate divided by count).
    pub fn virtual_op(&self, i: u64) -> (u32, u32) {
        let member = (i % u64::from(self.count)) as u32;
        let seq = (i / u64::from(self.count)) as u32;
        (self.first + member * self.stride, seq)
    }
}

/// Transactions an [`AggregateClients`] draws at a time, in one shared
/// body: the granularity of body lifetime. A block's body lives while any
/// of its transactions does — in flight, or retained by a replica's
/// order log — so a larger block costs fewer allocations and keeps more
/// answered transactions' operations alive.
const AGGREGATE_BLOCK: u64 = 64;

/// One aggregated open-loop arrival process standing for a whole group
/// of virtual clients — the engine that makes the client count a
/// parameter instead of an actor count.
///
/// Instead of one actor (stack, timer, record vector) per client, one
/// actor per *server group* draws arrivals from a single seeded
/// [`ArrivalStream`] whose mean gap is the per-client gap divided by the
/// group size (for Poisson arrivals this superposition is exact).
/// Each arrival is attributed round-robin to a virtual client id, so
/// server-side transaction ids, wound-wait ages and key access patterns
/// look exactly like a real population of that size.
///
/// Memory is constant in the operation count: latencies stream into a
/// [`LatencyHistogram`], only the in-flight operations are tracked, and
/// transactions are drawn `AGGREGATE_BLOCK` at a time.
/// It never retries — an open loop exposes saturation rather than masking
/// it — and a virtual client may have several operations in flight, so it
/// runs on lean servers only, whose client tables record nothing.
pub struct AggregateClients<P> {
    group: ClientGroup,
    servers: Arc<[NodeId]>,
    preferred: usize,
    gen: WorkloadGen,
    /// The rest of the block of transactions drawn last.
    block: std::vec::IntoIter<TxnTemplate>,
    arrivals: ArrivalStream,
    budget: u64,
    issued: u64,
    /// In-flight operations: id → (invocation time, transaction). The
    /// transaction rides along so a decommission reroute can re-submit
    /// the operation; memory stays bounded by the in-flight window.
    pub outstanding: std::collections::HashMap<OpId, (SimTime, TxnTemplate)>,
    /// Streaming latency histogram of answered operations.
    pub hist: LatencyHistogram,
    /// Answered operations that committed.
    pub committed: u64,
    /// Answered operations that aborted.
    pub aborted: u64,
    /// Time of the last response observed.
    pub last_response: Option<SimTime>,
    /// Worst request→response gap among answered operations.
    pub worst_gap: SimDuration,
    /// High-water mark of in-flight operations.
    pub peak_outstanding: u64,
    _marker: std::marker::PhantomData<P>,
}

impl<P: Message> AggregateClients<P> {
    /// Creates the aggregate for `group`, submitting to
    /// `servers[preferred]`. `gen` supplies the transactions (one
    /// generator for the whole group), `arrivals` the aggregate gap
    /// stream (its mean should be the per-client mean divided by
    /// `group.count`), and `txns_per_client` bounds the budget.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty or the group is empty.
    pub fn new(
        group: ClientGroup,
        servers: impl Into<Arc<[NodeId]>>,
        preferred: usize,
        gen: WorkloadGen,
        arrivals: ArrivalStream,
        txns_per_client: u32,
    ) -> Self {
        let servers = servers.into();
        assert!(
            !servers.is_empty(),
            "client group needs at least one server"
        );
        assert!(group.count > 0, "client group must not be empty");
        let preferred = preferred % servers.len();
        let budget = group.budget(txns_per_client);
        AggregateClients {
            group,
            servers,
            preferred,
            gen,
            block: Vec::new().into_iter(),
            arrivals,
            budget,
            issued: 0,
            outstanding: std::collections::HashMap::new(),
            hist: LatencyHistogram::new(),
            committed: 0,
            aborted: 0,
            last_response: None,
            worst_gap: SimDuration::ZERO,
            peak_outstanding: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Operations submitted so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// The group's total operation budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// True once the whole budget was submitted and answered.
    pub fn is_done(&self) -> bool {
        self.issued >= self.budget && self.outstanding.is_empty()
    }

    fn arm_next(&mut self, ctx: &mut Ctx<'_, P>) {
        if self.issued >= self.budget {
            return;
        }
        let gap = self.arrivals.next_gap();
        ctx.set_timer(SimDuration::from_ticks(gap), SUBMIT_TAG);
    }

    fn submit(&mut self, ctx: &mut Ctx<'_, P>) {
        if self.issued >= self.budget {
            return;
        }
        let txn = match self.block.next() {
            Some(txn) => txn,
            None => {
                // The generator's stream feeds nothing else, so drawing
                // ahead in blocks submits exactly what drawing one
                // transaction per arrival would.
                let left = (self.budget - self.issued).min(AGGREGATE_BLOCK);
                self.block = self.gen.take_txns(left as usize).into_iter();
                self.block.next().expect("a block of at least one")
            }
        };
        let (client, seq) = self.group.virtual_op(self.issued);
        self.issued += 1;
        let id = OpId::compose(client, seq);
        self.outstanding.insert(id, (ctx.now(), txn.clone()));
        self.peak_outstanding = self.peak_outstanding.max(self.outstanding.len() as u64);
        ctx.mark(Phase::Request.tag(), id.0, 0);
        send_op(ctx, self.servers[self.preferred], id, txn);
    }
}

impl<P: Message> Actor<Wire<P>> for AggregateClients<P> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, P>) {
        self.arm_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, P>, _from: NodeId, msg: Wire<P>) {
        let resp = match msg {
            Wire::Reply(resp) => resp,
            Wire::Member(MemberMsg::Reroute { op, servers }) => {
                // A late bounce of an answered op changes nothing.
                let Some((_, txn)) = self.outstanding.get(&op) else {
                    return;
                };
                if let Some(to) = resolve_reroute(&mut self.servers, &mut self.preferred, &servers)
                {
                    send_op(ctx, to, op, txn.clone());
                }
                return;
            }
            _ => return,
        };
        // Active-style techniques answer once per replica; only the first
        // response of an op still in flight counts.
        let Some((invoked, _)) = self.outstanding.remove(&resp.op) else {
            return;
        };
        let now = ctx.now();
        let gap = now - invoked;
        self.hist.record(gap);
        if gap > self.worst_gap {
            self.worst_gap = gap;
        }
        self.last_response = Some(now);
        if resp.committed {
            self.committed += 1;
        } else {
            self.aborted += 1;
        }
        ctx.mark(Phase::Response.tag(), resp.op.0, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, P>, _timer: TimerId, tag: u64) {
        if tag == SUBMIT_TAG {
            self.submit(ctx);
            self.arm_next(ctx);
        }
    }

    impl_as_any!();
}

impl<P: Message> Actor<Wire<P>> for ClientActor<P> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, P>) {
        if self.start_after.is_zero() {
            self.submit_next(ctx);
        } else {
            // A start delay is a think time before the first operation.
            ctx.set_timer(self.start_after, THINK_TAG);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, P>, from: NodeId, msg: Wire<P>) {
        let resp = match msg {
            Wire::Reply(resp) => resp,
            Wire::Member(MemberMsg::Reroute { op, servers }) => {
                return self.handle_reroute(ctx, op, &servers);
            }
            _ => return,
        };
        // `None`: stale or duplicate (active replication answers n times).
        let Some(rec) = in_flight(&mut self.records, resp.op) else {
            return;
        };
        let resp = match &mut self.routing {
            Some(r) if r.mode == ReplyMode::PerShard => match r.absorb(from, &resp, &rec.txn) {
                Some(merged) => merged,
                None => return,
            },
            _ => resp,
        };
        rec.responded = Some(ctx.now());
        rec.response = Some(resp);
        ctx.mark(Phase::Response.tag(), rec.op.0, 0);
        self.answered += 1;
        if let Some(timer) = self.retry_timer.take() {
            ctx.cancel_timer(timer);
        }
        if self.records.len() < self.txns.len() {
            ctx.set_timer(self.think, THINK_TAG);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, P>, timer: TimerId, tag: u64) {
        match tag {
            // Only the timer held: a fired id must not be cancelled later
            // (`Context::cancel_timer`), so it is forgotten here.
            RETRY_TAG if self.retry_timer == Some(timer) => {
                self.retry_timer = None;
                self.retry(ctx);
            }
            THINK_TAG if self.answered == self.records.len() => self.submit_next(ctx),
            _ => {}
        }
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_db::{Key, Value};
    use repl_sim::{Context, SimConfig, SimTime, World};
    use repl_workload::{OpTemplate, TxnTemplate};

    /// The envelope with no technique traffic, for driving the clients
    /// directly.
    type EchoMsg = Wire<()>;

    /// A server that answers every invoke — unless mute.
    struct EchoServer {
        mute: bool,
        served: u32,
    }
    impl Actor<EchoMsg> for EchoServer {
        fn on_message(&mut self, ctx: &mut Context<'_, EchoMsg>, _from: NodeId, msg: EchoMsg) {
            if let EchoMsg::Invoke(op) = msg {
                self.served += 1;
                if !self.mute {
                    ctx.send(op.client, EchoMsg::Reply(crate::Response::committed(op.id)));
                }
            }
        }
        impl_as_any!();
    }

    /// A scripted server: logs every invoke's arrival and, unless mute,
    /// repeats its answer to the previous operation — as an abort, so an
    /// overwrite would show — and, given a `bounce` list, reroutes that
    /// answered operation there as a leaving server would, before
    /// answering the new one twice.
    struct Scripted {
        mute: bool,
        previous: Option<OpId>,
        arrivals: Vec<(u64, OpId)>,
        bounce: Vec<NodeId>,
    }
    impl Scripted {
        fn new(mute: bool) -> Box<Self> {
            Box::new(Scripted {
                mute,
                previous: None,
                arrivals: Vec::new(),
                bounce: Vec::new(),
            })
        }
    }
    impl Actor<EchoMsg> for Scripted {
        fn on_message(&mut self, ctx: &mut Context<'_, EchoMsg>, _: NodeId, msg: EchoMsg) {
            let EchoMsg::Invoke(op) = msg else { return };
            self.arrivals.push((ctx.now().ticks(), op.id));
            if self.mute {
                return;
            }
            if let Some(old) = self.previous.replace(op.id) {
                ctx.send(op.client, EchoMsg::Reply(crate::Response::aborted(old)));
                if !self.bounce.is_empty() {
                    let servers = self.bounce.clone();
                    ctx.send(
                        op.client,
                        EchoMsg::Member(MemberMsg::Reroute { op: old, servers }),
                    );
                }
            }
            for _ in 0..2 {
                ctx.send(op.client, EchoMsg::Reply(crate::Response::committed(op.id)));
            }
        }
        impl_as_any!();
    }

    fn txns(n: usize) -> Vec<TxnTemplate> {
        (0..n)
            .map(|i| TxnTemplate {
                ops: vec![OpTemplate::Write(Key(i as u64), Value(1))].into(),
            })
            .collect()
    }

    #[test]
    fn closed_loop_runs_all_transactions_in_order() {
        let mut world: World<EchoMsg> = World::new(SimConfig::new(1));
        let s = world.add_actor(Box::new(EchoServer {
            mute: false,
            served: 0,
        }));
        let c = world.add_actor(Box::new(ClientActor::<()>::new(
            0,
            vec![s],
            0,
            txns(5),
            SimDuration::from_ticks(100),
            SimDuration::from_ticks(10_000),
        )));
        world.start();
        world.run_to_quiescence(SimTime::from_ticks(1_000_000));
        let client = world.actor_ref::<ClientActor<()>>(c);
        assert!(client.is_done());
        assert_eq!(client.completed().count(), 5);
        // Strictly sequential: each op invoked after the previous response.
        for w in client.records.windows(2) {
            assert!(w[1].invoked >= w[0].responded.expect("responded"));
        }
        assert_eq!(world.actor_ref::<EchoServer>(s).served, 5);
    }

    #[test]
    fn closed_loop_retries_rotate_to_the_next_server() {
        let mut world: World<EchoMsg> = World::new(SimConfig::new(2));
        let dead = world.add_actor(Box::new(EchoServer {
            mute: true,
            served: 0,
        }));
        let live = world.add_actor(Box::new(EchoServer {
            mute: false,
            served: 0,
        }));
        let c = world.add_actor(Box::new(ClientActor::<()>::new(
            0,
            vec![dead, live],
            0, // prefers the mute server
            txns(3),
            SimDuration::from_ticks(100),
            SimDuration::from_ticks(2_000),
        )));
        world.start();
        world.run_until(SimTime::from_ticks(100_000));
        let client = world.actor_ref::<ClientActor<()>>(c);
        assert!(client.is_done(), "failover retry did not happen");
        // The first operation times out once; the contact that answered
        // it is asked first from then on.
        let retries: Vec<u32> = client.records.iter().map(|r| r.retries).collect();
        assert_eq!(retries, vec![1, 0, 0]);
        assert_eq!(world.actor_ref::<EchoServer>(dead).served, 1);
        assert_eq!(world.actor_ref::<EchoServer>(live).served, 3);
    }

    /// An aggregate of `count` virtual clients with `txns` transactions
    /// each, submitting to `servers[0]` at a group gap of mean `gap`.
    fn aggregate(servers: Vec<NodeId>, count: u32, txns: u32, gap: f64) -> AggregateClients<()> {
        use repl_workload::{ArrivalDist, WorkloadSpec};
        let group = ClientGroup {
            first: 0,
            stride: 1,
            count,
        };
        let spec = WorkloadSpec::default().with_txns_per_client(txns);
        let gen = WorkloadGen::new(&spec, 5);
        let arrivals = ArrivalStream::new(ArrivalDist::Poisson, gap, 5);
        AggregateClients::new(group, servers, 0, gen, arrivals, txns)
    }

    #[test]
    fn duplicate_responses_are_recorded_once() {
        // The server answers twice, as every replica of an active-style
        // technique does, and repeats the previous answer as an abort:
        // either loop records the first answer and counts it once.
        let s = NodeId::new(0);
        let (think, retry_after) = (SimDuration::from_ticks(50), SimDuration::from_ticks(10_000));
        let closed = ClientActor::<()>::new(0, vec![s], 0, txns(3), think, retry_after);
        let mut world: World<EchoMsg> = World::new(SimConfig::new(3));
        assert_eq!(world.add_actor(Scripted::new(false)), s);
        let c = world.add_actor(Box::new(closed));
        world.start();
        world.run_to_quiescence(SimTime::from_ticks(1_000_000));
        let client = world.actor_ref::<ClientActor<()>>(c);
        assert!(client.is_done());
        assert_eq!(client.records.len(), 3, "no duplicate records");
        assert!(client.records.iter().all(|r| r.committed()));
        let mut world: World<EchoMsg> = World::new(SimConfig::new(3));
        assert_eq!(world.add_actor(Scripted::new(false)), s);
        let c = world.add_actor(Box::new(aggregate(vec![s], 1, 3, 100.0)));
        world.start();
        world.run_to_quiescence(SimTime::from_ticks(1_000_000));
        let agg = world.actor_ref::<AggregateClients<()>>(c);
        assert!(agg.is_done());
        assert_eq!((agg.committed, agg.aborted), (3, 0), "no duplicate answers");
        assert_eq!(agg.hist.count(), 3);
    }

    #[test]
    fn late_duplicate_reply_to_an_older_op_changes_nothing() {
        // The server first repeats its answer to the previous operation.
        let mut world: World<EchoMsg> = World::new(SimConfig::new(5));
        let s = world.add_actor(Scripted::new(false));
        let c = world.add_actor(Box::new(ClientActor::<()>::new(
            0,
            vec![s],
            0,
            txns(4),
            SimDuration::from_ticks(50),
            SimDuration::from_ticks(10_000),
        )));
        world.start();
        world.run_to_quiescence(SimTime::from_ticks(1_000_000));
        let client = world.actor_ref::<ClientActor<()>>(c);
        assert!(client.is_done());
        assert_eq!(client.records.len(), 4);
        for (i, rec) in client.records.iter().enumerate() {
            assert_eq!(rec.op, OpId::compose(0, i as u32));
            assert!(
                rec.committed(),
                "stale abort overwrote the answer of {}",
                rec.op
            );
        }
        for w in client.records.windows(2) {
            assert!(w[1].invoked >= w[0].responded.expect("responded"));
        }
    }

    #[test]
    fn open_loop_pipelines_and_reports_unanswered() {
        let mut world: World<EchoMsg> = World::new(SimConfig::new(4));
        let s = world.add_actor(Box::new(EchoServer {
            mute: true,
            served: 0,
        }));
        // One virtual client, four operations, 100-tick mean gaps.
        let c = world.add_actor(Box::new(aggregate(vec![s], 1, 4, 100.0)));
        world.start();
        world.run_until(SimTime::from_ticks(50_000));
        let agg = world.actor_ref::<AggregateClients<()>>(c);
        // All submitted (server is mute, so none answered) — open loop
        // does not block on responses.
        assert_eq!(agg.issued(), 4);
        assert_eq!((agg.outstanding.len(), agg.peak_outstanding), (4, 4));
        assert!(!agg.is_done());
        assert_eq!(agg.hist.count(), 0);
    }

    #[test]
    fn aggregate_clients_drain_their_whole_budget() {
        let mut world: World<EchoMsg> = World::new(SimConfig::new(11));
        let s = world.add_actor(Box::new(EchoServer {
            mute: false,
            served: 0,
        }));
        // Per-client mean 500 ticks over 10 clients = 50-tick gaps.
        let agg = aggregate(vec![s], 10, 3, 50.0);
        assert_eq!(agg.budget(), 30);
        let c = world.add_actor(Box::new(agg));
        world.start();
        world.run_to_quiescence(SimTime::from_ticks(1_000_000));
        let agg = world.actor_ref::<AggregateClients<()>>(c);
        assert!(agg.is_done());
        assert_eq!(agg.issued(), 30);
        assert_eq!(agg.committed, 30);
        assert_eq!(agg.hist.count(), 30);
        assert!(agg.peak_outstanding >= 1);
        assert!(agg.last_response.is_some());
        assert!(agg.worst_gap >= agg.hist.min());
    }

    #[test]
    fn client_group_round_robins_virtual_ids() {
        let g = ClientGroup {
            first: 2,
            stride: 3,
            count: 4,
        };
        // Members are 2, 5, 8, 11; arrival i advances round-robin.
        assert_eq!(g.virtual_op(0), (2, 0));
        assert_eq!(g.virtual_op(1), (5, 0));
        assert_eq!(g.virtual_op(3), (11, 0));
        assert_eq!(g.virtual_op(4), (2, 1));
        assert_eq!(g.virtual_op(7), (11, 1));
        assert_eq!(g.budget(5), 20);
    }

    /// Stands in for one member of a sharded group (groups of one):
    /// answers only the ops on its own shard's keys (reads echo
    /// `key * 10`) and, as the client's contact, forwards the op to the
    /// other touched groups the way a home contact would.
    struct ShardEcho {
        map: ShardMap,
        gid: u32,
        served: u32,
    }
    impl Actor<EchoMsg> for ShardEcho {
        fn on_message(&mut self, ctx: &mut Context<'_, EchoMsg>, from: NodeId, msg: EchoMsg) {
            let EchoMsg::Invoke(op) = msg else { return };
            self.served += 1;
            for &g in self.map.shards_of(&op.txn).iter() {
                if g != self.gid && from == op.client {
                    ctx.send(NodeId::new(g), EchoMsg::Invoke(op.clone()));
                }
            }
            let mine = |o: &OpTemplate| match o {
                OpTemplate::Read(k) if self.map.shard_of(*k) == self.gid => {
                    Some((*k, Value(k.0 as i64 * 10)))
                }
                _ => None,
            };
            let mut resp = crate::Response::committed(op.id);
            resp.reads = op.txn.ops.iter().filter_map(mine).collect();
            ctx.send(op.client, EchoMsg::Reply(resp));
        }
        impl_as_any!();
    }

    /// The first key of shard `g` in the `shards`-way map of `shard_run`.
    fn first_key(shards: u32, g: u32) -> Key {
        Key(ShardMap::new(64, shards).range(g).0)
    }

    /// Runs a routed client to completion over one `ShardEcho` per shard.
    fn shard_run(
        shards: u32,
        mode: ReplyMode,
        txns: Vec<Vec<OpTemplate>>,
    ) -> (World<EchoMsg>, NodeId) {
        let map = ShardMap::new(64, shards);
        let mut world: World<EchoMsg> = World::new(SimConfig::new(7));
        let echo = |gid| ShardEcho {
            map,
            gid,
            served: 0,
        };
        let servers = (0..shards).map(|g| world.add_actor(Box::new(echo(g))));
        let txns = txns.into_iter().map(|ops| TxnTemplate { ops: ops.into() });
        let (think, retry_after) = (SimDuration::from_ticks(50), SimDuration::from_ticks(50_000));
        let client = ClientActor::<()>::new(
            3,
            servers.collect::<Vec<_>>(),
            0,
            txns.collect::<Vec<_>>(),
            think,
            retry_after,
        );
        let c = world.add_actor(Box::new(client.with_routing(map, mode)));
        world.start();
        world.run_to_quiescence(SimTime::from_ticks(1_000_000));
        assert!(world.actor_ref::<ClientActor<()>>(c).is_done());
        (world, c)
    }

    #[test]
    fn single_shard_txns_route_to_the_owning_group() {
        // One write per shard, routed by the key's owner.
        let writes = (0..4).map(|g| vec![OpTemplate::Write(first_key(4, g), Value(1))]);
        let (world, c) = shard_run(4, ReplyMode::PerShard, writes.collect());
        let client = world.actor_ref::<ClientActor<()>>(c);
        assert_eq!(client.completed().count(), 4);
        for g in 0..4 {
            assert_eq!(world.actor_ref::<ShardEcho>(NodeId::new(g)).served, 1);
        }
    }

    #[test]
    fn cross_shard_partials_merge_into_program_order() {
        let (k0, k1) = (first_key(2, 0), first_key(2, 1));
        // Reads interleave the two shards; the merged response must come
        // back in program order regardless of reply order.
        let ops = vec![
            OpTemplate::Read(k1),
            OpTemplate::Write(k0, Value(5)),
            OpTemplate::Read(k0),
        ];
        let (world, c) = shard_run(2, ReplyMode::PerShard, vec![ops]);
        let client = world.actor_ref::<ClientActor<()>>(c);
        let resp = client.records[0].response.as_ref().expect("merged");
        assert!(resp.committed);
        assert_eq!(
            resp.reads,
            vec![(k1, Value(k1.0 as i64 * 10)), (k0, Value(k0.0 as i64 * 10))]
        );
    }

    #[test]
    fn full_mode_takes_the_first_complete_response() {
        let read = vec![OpTemplate::Read(first_key(2, 1))];
        let (world, c) = shard_run(2, ReplyMode::Full, vec![read]);
        let client = world.actor_ref::<ClientActor<()>>(c);
        assert!(client.records[0].response.as_ref().expect("resp").committed);
    }

    const RETRY_AFTER: SimDuration = SimDuration::from_ticks(1_000);

    /// Runs `shape(client)` against one `Scripted` server per `mute`
    /// entry on a jitter-free network (arrival gaps are send gaps), the
    /// client preferring the first and thinking `think` ticks; returns
    /// its records and every server's arrival sequence.
    fn scripted_run(
        mute: &[bool],
        think: u64,
        shape: impl Fn(ClientActor<()>) -> ClientActor<()>,
    ) -> (Vec<OpRecord>, Vec<Vec<(u64, OpId)>>) {
        let net = repl_sim::NetworkConfig::lan().with_jitter(SimDuration::ZERO);
        let mut world: World<EchoMsg> = World::new(SimConfig::new(13).with_network(net));
        let servers: Vec<NodeId> = (mute.iter())
            .map(|&m| world.add_actor(Scripted::new(m)))
            .collect();
        let (think, retry_after) = (SimDuration::from_ticks(think), RETRY_AFTER);
        let client = ClientActor::new(0, servers.clone(), 0, txns(3), think, retry_after);
        let c = world.add_actor(Box::new(shape(client)));
        world.start();
        world.run_until(SimTime::from_ticks(60_000));
        let records = world.actor_ref::<ClientActor<()>>(c).records.clone();
        let arrivals = |&s| world.actor_ref::<Scripted>(s).arrivals.clone();
        (records, servers.iter().map(arrivals).collect())
    }

    #[test]
    fn one_group_routing_is_the_flat_client() {
        // A mute preferred server makes the first op's retry rotate to the
        // live one, which answers twice and re-answers the previous op.
        let text = |run: (Vec<OpRecord>, Vec<Vec<(u64, OpId)>>)| format!("{run:?}");
        let flat = scripted_run(&[true, false], 50, |c| c);
        assert!(flat.0.iter().all(|r| r.committed()));
        assert_eq!((flat.1[0].len(), flat.1[1].len()), (1, 3));
        let flat = text(flat);
        let one = ShardMap::new(64, 1);
        for mode in [ReplyMode::Full, ReplyMode::PerShard] {
            let routed = scripted_run(&[true, false], 50, |c| c.with_routing(one, mode));
            assert_eq!(flat, text(routed), "{mode:?}");
        }
    }

    #[test]
    fn successive_retries_are_exactly_retry_after_apart() {
        // One mute server: the arrival gaps are exactly the retry waits.
        let (_, arrivals) = scripted_run(&[true], 50, |c| c);
        let gaps: Vec<u64> = arrivals[0].windows(2).map(|w| w[1].0 - w[0].0).collect();
        assert_eq!(gaps, vec![RETRY_AFTER.ticks(); 59]);
    }

    #[test]
    fn an_answered_operation_is_sent_once() {
        // Think 700 on a 100-tick link puts operation 1 in flight
        // (900..1_100) when operation 0's retry timer would have fired.
        let (records, arrivals) = scripted_run(&[false, false], 700, |c| c);
        let at = SimTime::ZERO + RETRY_AFTER;
        assert!(records[1].invoked < at && at < records[1].responded.expect("answered"));
        assert!(records.iter().all(|r| r.retries == 0), "{records:?}");
        let sent: Vec<OpId> = arrivals[0].iter().map(|&(_, op)| op).collect();
        assert_eq!(
            sent,
            (0..3).map(|i| OpId::compose(0, i)).collect::<Vec<_>>()
        );
        assert!(arrivals[1].is_empty(), "hedged to the next server");
    }

    #[test]
    fn a_late_bounce_of_an_answered_op_changes_nothing() {
        // Each invoke makes `s0` bounce the previous, answered, open-loop
        // operation to `s1`: nothing is re-sent, and later operations
        // still go to `s0` — the bounce's membership is not adopted.
        let net = repl_sim::NetworkConfig::lan().with_jitter(SimDuration::ZERO);
        let mut world: World<EchoMsg> = World::new(SimConfig::new(13).with_network(net));
        let (s0, s1) = (
            world.add_actor(Scripted::new(false)),
            world.add_actor(Scripted::new(false)),
        );
        world.actor_mut::<Scripted>(s0).bounce = vec![s1];
        let c = world.add_actor(Box::new(aggregate(vec![s0, s1], 1, 3, 2_000.0)));
        world.start();
        world.run_to_quiescence(SimTime::from_ticks(1_000_000));
        let agg = world.actor_ref::<AggregateClients<()>>(c);
        assert!(agg.is_done());
        assert_eq!(agg.committed, 3);
        assert_eq!((&agg.servers[..], agg.preferred), (&[s0, s1][..], 0));
        let sent = |s| -> Vec<OpId> {
            let arrivals = world.actor_ref::<Scripted>(s).arrivals.iter();
            arrivals.map(|&(_, op)| op).collect()
        };
        assert_eq!(
            sent(s0),
            (0..3).map(|i| OpId::compose(0, i)).collect::<Vec<_>>()
        );
        assert!(
            sent(s1).is_empty(),
            "a bounce of an answered op moved the contact"
        );
    }

    #[test]
    fn op_record_latency_math() {
        let rec = OpRecord {
            op: OpId(1),
            txn: TxnTemplate {
                ops: vec![OpTemplate::Read(Key(0))].into(),
            },
            invoked: SimTime::from_ticks(100),
            responded: Some(SimTime::from_ticks(175)),
            response: Some(crate::Response::committed(OpId(1))),
            retries: 0,
        };
        assert_eq!(rec.latency(), Some(SimDuration::from_ticks(75)));
        assert!(rec.committed());
        let unanswered = OpRecord {
            responded: None,
            response: None,
            ..rec
        };
        assert_eq!(unanswered.latency(), None);
        assert!(!unanswered.committed());
    }
}
