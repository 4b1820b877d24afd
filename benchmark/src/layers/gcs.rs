//! `repl-gcs` drivers: the components are driven through
//! `Component::on_message` + `Outbox::drain` by a loopback router, with
//! no `World`, so the time is gcs self time (plus one `VecDeque`
//! push/pop per message). These should move `events_per_s` on `open_1m`
//! (Active, Certification) and `shard16_closed`, and `msgs_per_txn`
//! everywhere; the message counts are exact.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use super::{ns_per_op, LayerValue, Shape};
use crate::api::{
    Action, BatchConfig, Component, ConsensusAbcast, ConsensusConfig, ConsensusPool,
    GenuineMulticast, NodeId, Outbox, SequencerAbcast, ViewGroup, VsConfig, VsEvent,
};

/// Time slices this layer uses.
pub const DRIVERS: u32 = 8;

/// A zero-latency network for one component type: messages are handed
/// over in FIFO order; timers fire in due order, and only when no
/// message is in flight and the caller still waits for something.
struct Loopback<C: Component> {
    nodes: Vec<C>,
    down: Vec<bool>,
    queue: VecDeque<(NodeId, NodeId, C::Msg)>,
    timers: Vec<(u64, usize, u64)>,
    now: u64,
    /// Messages handed to a component so far.
    msgs: u64,
    /// Events the components delivered to their host so far.
    events: Vec<(usize, C::Event)>,
}

impl<C: Component> Loopback<C> {
    fn new(nodes: Vec<C>) -> Self {
        let mut lb = Loopback {
            down: vec![false; nodes.len()],
            nodes,
            queue: VecDeque::new(),
            timers: Vec::new(),
            now: 0,
            msgs: 0,
            events: Vec::new(),
        };
        for i in 0..lb.nodes.len() {
            lb.call(i, |c, out| c.on_start(out));
        }
        lb
    }

    /// Runs `f` against node `i` and takes in what it asked for.
    fn call(&mut self, i: usize, f: impl FnOnce(&mut C, &mut Outbox<C::Msg, C::Event>)) {
        let mut out = Outbox::new();
        f(&mut self.nodes[i], &mut out);
        let me = NodeId::from_index(i);
        for action in out.drain() {
            match action {
                Action::Send(to, msg) => self.queue.push_back((me, to, msg)),
                Action::SetTimer(delay, tag) => {
                    self.timers.push((self.now + delay.ticks(), i, tag));
                }
                Action::Event(e) => self.events.push((i, e)),
            }
        }
    }

    /// Delivers messages (and, when idle, the next due timer) until
    /// `done` holds. Panics if the group goes quiet first: a driver
    /// that waits for something that never happens is a bug here.
    fn run_until(&mut self, done: impl Fn(&Self) -> bool) {
        while !done(self) {
            if let Some((from, to, msg)) = self.queue.pop_front() {
                let i = to.index();
                if !self.down[i] {
                    self.msgs += 1;
                    self.call(i, |c, out| c.on_message(from, msg, out));
                }
                continue;
            }
            let next = (0..self.timers.len())
                .min_by_key(|&t| self.timers[t].0)
                .expect("loopback group went quiet before the driver's goal");
            let (due, i, tag) = self.timers.swap_remove(next);
            self.now = self.now.max(due);
            if !self.down[i] {
                self.call(i, |c, out| c.on_timer(tag, out));
            }
        }
    }
}

fn group(n: u32) -> Vec<NodeId> {
    (0..n).map(NodeId::new).collect()
}

/// Broadcasts issued per batch of every ordering driver.
const BCASTS: u64 = 2_000;

/// `(ns per delivery, messages per broadcast)` of an atomic broadcast:
/// members take turns broadcasting, `burst` at a time, and everyone
/// delivers everything.
fn abcast<C>(
    n: u32,
    burst: u64,
    budget: Duration,
    make: impl Fn(NodeId, Vec<NodeId>) -> C,
    bcast: impl Fn(&mut C, u64, &mut Outbox<C::Msg, C::Event>),
) -> (f64, f64)
where
    C: Component,
{
    let mut msgs_per_bcast = 0.0;
    let ns = ns_per_op(budget, || {
        let mut lb = Loopback::new(group(n).into_iter().map(|me| make(me, group(n))).collect());
        let start = Instant::now();
        let mut sent = 0;
        while sent < BCASTS {
            for _ in 0..burst {
                lb.call((sent % u64::from(n)) as usize, |c, out| bcast(c, sent, out));
                sent += 1;
            }
            let want = (sent * u64::from(n)) as usize;
            lb.run_until(|lb| lb.events.len() >= want);
        }
        let took = start.elapsed();
        msgs_per_bcast = lb.msgs as f64 / sent as f64;
        (lb.events.len() as u64, took)
    });
    (ns, msgs_per_bcast)
}

fn vscast_deliver(n: u32, budget: Duration) -> f64 {
    ns_per_op(budget, || {
        let mut lb = Loopback::new(
            group(n)
                .into_iter()
                .map(|me| ViewGroup::<u64>::new(me, group(n), VsConfig::default()))
                .collect(),
        );
        let start = Instant::now();
        for k in 0..BCASTS {
            lb.call((k % u64::from(n)) as usize, |c, out| c.broadcast(k, out));
            let want = ((k + 1) * u64::from(n)) as usize;
            lb.run_until(|lb| lb.events.len() >= want);
        }
        (lb.events.len() as u64, start.elapsed())
    })
}

/// Host time from a member falling silent until every survivor has
/// installed the view without it (failure detection by timers, flush,
/// membership consensus), per view change.
fn vscast_view_change(n: u32, budget: Duration) -> f64 {
    ns_per_op(budget, || {
        const CHANGES: u64 = 50;
        let mut took = Duration::ZERO;
        for _ in 0..CHANGES {
            let mut lb = Loopback::new(
                group(n)
                    .into_iter()
                    .map(|me| ViewGroup::<u64>::new(me, group(n), VsConfig::default()))
                    .collect(),
            );
            let victim = (n - 1) as usize;
            let start = Instant::now();
            lb.down[victim] = true;
            lb.run_until(|lb| {
                let installed = lb
                    .events
                    .iter()
                    .filter(|(_, e)| matches!(e, VsEvent::ViewInstalled(_)))
                    .count();
                installed >= victim
            });
            took += start.elapsed();
        }
        (CHANGES, took)
    })
}

/// `(ns per decided instance, messages per instance)`: every member
/// proposes, every member decides.
fn consensus(n: u32, budget: Duration) -> (f64, f64) {
    let mut msgs_per_decide = 0.0;
    let ns = ns_per_op(budget, || {
        let mut lb = Loopback::new(
            group(n)
                .into_iter()
                .map(|me| ConsensusPool::<u64>::new(me, group(n), ConsensusConfig::default()))
                .collect(),
        );
        let start = Instant::now();
        for inst in 0..BCASTS {
            for i in 0..n as usize {
                lb.call(i, |c, out| c.propose(inst, inst + i as u64, out));
            }
            let want = ((inst + 1) * u64::from(n)) as usize;
            lb.run_until(|lb| lb.events.len() >= want);
        }
        let took = start.elapsed();
        msgs_per_decide = lb.msgs as f64 / BCASTS as f64;
        (BCASTS, took)
    });
    (ns, msgs_per_decide)
}

/// Genuine multicast over `groups` groups of `n`: `local` addresses the
/// sender's group only (the 2-hop fast path), otherwise its group and
/// the next one (timestamp agreement between two orderers).
fn gmcast(groups: u32, n: u32, local: bool, budget: Duration) -> f64 {
    let layout: Vec<Vec<NodeId>> = (0..groups)
        .map(|g| (0..n).map(|i| NodeId::new(g * n + i)).collect())
        .collect();
    ns_per_op(budget, || {
        let mut lb = Loopback::new(
            (0..groups * n)
                .map(|i| GenuineMulticast::<u64>::new(NodeId::new(i), layout.clone(), i / n))
                .collect(),
        );
        let start = Instant::now();
        let mut want = 0usize;
        for k in 0..BCASTS {
            let g = (k % u64::from(groups)) as u32;
            let sender = (g * n) as usize;
            if local {
                want += n as usize;
                lb.call(sender, |c, out| {
                    c.broadcast(k, out);
                });
            } else {
                want += 2 * n as usize;
                let other = (g + 1) % groups;
                let dests = [g.min(other), g.max(other)];
                lb.call(sender, |c, out| {
                    c.multicast(k, &dests, out);
                });
            }
            lb.run_until(|lb| lb.events.len() >= want);
        }
        (lb.events.len() as u64, start.elapsed())
    })
}

/// Runs the layer's drivers.
pub fn run(shape: &Shape, slice: Duration) -> Vec<LayerValue> {
    let n = shape.replicas;
    let v = |name, value| LayerValue { name, value };
    let (seq_ns, seq_msgs) = abcast(n, 1, slice, SequencerAbcast::<u64>::new, |c, k, out| {
        c.broadcast(k, out);
    });
    let (cons_ns, cons_msgs) = abcast(
        n,
        1,
        slice,
        |me, g| ConsensusAbcast::<u64>::new(me, g, ConsensusConfig::default()),
        |c, k, out| {
            c.broadcast(k, out);
        },
    );
    // Sixteen submissions share each 250-tick window, as the sixteen
    // clients of the batched study cell do.
    let (batched_ns, _) = abcast(
        n,
        16,
        slice,
        |me, g| SequencerAbcast::<u64>::new(me, g).with_batching(BatchConfig::window(250)),
        |c, k, out| {
            c.broadcast(k, out);
        },
    );
    let (decide_ns, decide_msgs) = consensus(n, slice);
    // Cross-group delivery needs a second group even when the workload
    // has only one.
    let groups = shape.groups.max(2);
    vec![
        v("gcs.abcast_seq.ns_per_deliver", seq_ns),
        v("gcs.abcast_seq.msgs_per_bcast", seq_msgs),
        v("gcs.abcast_cons.ns_per_deliver", cons_ns),
        v("gcs.abcast_cons.msgs_per_bcast", cons_msgs),
        v("gcs.abcast_seq.batched_ns_per_deliver", batched_ns),
        v("gcs.vscast.ns_per_deliver", vscast_deliver(n, slice)),
        v("gcs.vscast.view_change_ns", vscast_view_change(n, slice)),
        v("gcs.consensus.ns_per_decide", decide_ns),
        v("gcs.consensus.msgs_per_decide", decide_msgs),
        v(
            "gcs.gmcast.local_ns_per_deliver",
            gmcast(groups, n, true, slice),
        ),
        v(
            "gcs.gmcast.cross_ns_per_deliver",
            gmcast(groups, n, false, slice),
        ),
    ]
}
