//! `repl-sim` drivers: the event queue, dispatch, fan-out, timers, the
//! streaming histogram and world construction. These should move
//! `events_per_s` / `run_s`, most of all on `open_1m`.

use std::time::{Duration, Instant};

use super::{ns_per_op, LayerValue, Lcg, Shape};
use crate::api::{
    impl_as_any, Actor, Context, LatencyHistogram, Message, NetworkConfig, NodeId, SimConfig,
    SimDuration, SimTime, TimerId, TimingWheel, World,
};

/// Time slices this layer uses.
pub const DRIVERS: u32 = 8;

/// A 16-byte message whose clone is a memcpy, like an arena handle.
#[derive(Clone, Debug)]
struct Handle(u64, u64);
impl Message for Handle {
    fn wire_size(&self) -> usize {
        16
    }
    fn clone_is_cheap(&self) -> bool {
        true
    }
}

/// Answers every message until its budget runs out.
struct Echo {
    first: Option<NodeId>,
    budget: u64,
}
impl Actor<Handle> for Echo {
    fn on_start(&mut self, ctx: &mut Context<'_, Handle>) {
        if let Some(to) = self.first {
            ctx.send(to, Handle(0, 0));
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Handle>, from: NodeId, msg: Handle) {
        if self.budget > 0 {
            self.budget -= 1;
            ctx.send(from, Handle(msg.0 + 1, msg.1));
        }
    }
    impl_as_any!();
}

/// Node 0 multicasts to everyone else each time all legs of the
/// previous round have been answered.
struct FanOut {
    targets: Vec<NodeId>,
    rounds: u64,
    pending: usize,
}
impl Actor<Handle> for FanOut {
    fn on_start(&mut self, ctx: &mut Context<'_, Handle>) {
        if !self.targets.is_empty() {
            self.pending = self.targets.len();
            ctx.multicast(self.targets.iter().copied(), Handle(0, 0));
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Handle>, from: NodeId, msg: Handle) {
        if self.targets.is_empty() {
            ctx.send(from, msg);
            return;
        }
        self.pending -= 1;
        if self.pending == 0 && self.rounds > 0 {
            self.rounds -= 1;
            self.pending = self.targets.len();
            ctx.multicast(self.targets.iter().copied(), Handle(msg.0 + 1, 0));
        }
    }
    impl_as_any!();
}

/// Re-arms a protocol-sized timer until its budget runs out.
struct Rearm {
    budget: u64,
}
impl Actor<Handle> for Rearm {
    fn on_start(&mut self, ctx: &mut Context<'_, Handle>) {
        ctx.set_timer(SimDuration::from_ticks(250), 0);
    }
    fn on_message(&mut self, _: &mut Context<'_, Handle>, _: NodeId, _: Handle) {}
    fn on_timer(&mut self, ctx: &mut Context<'_, Handle>, _: TimerId, tag: u64) {
        if self.budget > 0 {
            self.budget -= 1;
            ctx.set_timer(SimDuration::from_ticks(250), tag + 1);
        }
    }
    impl_as_any!();
}

const FOREVER: SimTime = SimTime::from_ticks(u64::MAX / 2);

/// Steady-state push+pop with `resident` entries queued: every popped
/// entry is pushed back `1..=horizon` ticks later.
fn wheel(resident: u64, ops: u64, horizon: u64, seed: u64, budget: Duration) -> f64 {
    let mut rng = Lcg(seed);
    let mut wheel: TimingWheel<u64> = TimingWheel::new();
    let mut seq = 0u64;
    for _ in 0..resident {
        wheel.push(1 + rng.draw() % horizon, seq, seq);
        seq += 1;
    }
    ns_per_op(budget, || {
        let start = Instant::now();
        for _ in 0..ops {
            let e = wheel.pop().expect("wheel stays full");
            wheel.push(e.time + 1 + rng.draw() % horizon, seq, e.item);
            seq += 1;
        }
        (ops, start.elapsed())
    })
}

fn dispatch(trace: bool, seed: u64, budget: Duration) -> f64 {
    ns_per_op(budget, || {
        let mut world = World::new(SimConfig::new(seed).with_trace(trace));
        let a = world.add_actor(Box::new(Echo {
            first: None,
            budget: 20_000,
        }));
        for _ in 0..2 {
            world.add_actor(Box::new(Echo {
                first: Some(a),
                budget: 20_000,
            }));
        }
        world.start();
        let start = Instant::now();
        world.run_to_quiescence(FOREVER);
        let took = start.elapsed();
        (world.metrics().events_processed, took)
    })
}

fn multicast(fanout: u32, seed: u64, budget: Duration) -> f64 {
    ns_per_op(budget, || {
        let mut world = World::new(SimConfig::new(seed).with_trace(false));
        world.add_actor(Box::new(FanOut {
            targets: (1..=fanout).map(NodeId::new).collect(),
            rounds: 40_000 / u64::from(fanout),
            pending: 0,
        }));
        for _ in 0..fanout {
            world.add_actor(Box::new(FanOut {
                targets: Vec::new(),
                rounds: 0,
                pending: 0,
            }));
        }
        world.start();
        let start = Instant::now();
        world.run_to_quiescence(FOREVER);
        let took = start.elapsed();
        // Each leg is one send out and one answer back.
        (world.metrics().messages_sent / 2, took)
    })
}

fn timers(seed: u64, budget: Duration) -> f64 {
    ns_per_op(budget, || {
        let mut world: World<Handle> = World::new(
            SimConfig::new(seed)
                .with_network(NetworkConfig::instant())
                .with_trace(false),
        );
        for _ in 0..3 {
            world.add_actor(Box::new(Rearm { budget: 10_000 }));
        }
        world.start();
        let start = Instant::now();
        world.run_to_quiescence(FOREVER);
        let took = start.elapsed();
        (world.metrics().timers_fired, took)
    })
}

fn histogram(seed: u64, budget: Duration) -> f64 {
    let mut rng = Lcg(seed);
    let mut hist = LatencyHistogram::new();
    ns_per_op(budget, || {
        const OPS: u64 = 500_000;
        let start = Instant::now();
        for _ in 0..OPS {
            // LAN-sized response times: hundreds to thousands of ticks.
            hist.record(SimDuration::from_ticks(200 + rng.draw() % 8_000));
        }
        std::hint::black_box(hist.count());
        (OPS, start.elapsed())
    })
}

fn world_build(nodes: u32, seed: u64, budget: Duration) -> f64 {
    ns_per_op(budget, || {
        const WORLDS: u64 = 20;
        let start = Instant::now();
        for _ in 0..WORLDS {
            let mut world = World::new(SimConfig::new(seed).with_trace(false));
            for _ in 0..nodes {
                world.add_actor(Box::new(Echo {
                    first: None,
                    budget: 0,
                }));
            }
            world.start();
            std::hint::black_box(world.node_count());
        }
        (WORLDS * u64::from(nodes), start.elapsed())
    })
}

/// Runs the layer's drivers.
pub fn run(shape: &Shape, slice: Duration) -> Vec<LayerValue> {
    let servers = shape.replicas * shape.groups;
    let v = |name, value| LayerValue { name, value };
    vec![
        v(
            "sim.wheel.deep_ns_per_op",
            wheel(
                shape.sized(1_000_000),
                shape.sized(200_000),
                5_000_000,
                shape.seed,
                slice,
            ),
        ),
        v(
            "sim.wheel.shallow_ns_per_op",
            wheel(64, shape.sized(200_000), 2_000, shape.seed, slice),
        ),
        v(
            "sim.dispatch.ns_per_event",
            dispatch(false, shape.seed, slice),
        ),
        v(
            "sim.dispatch.traced_ns_per_event",
            dispatch(true, shape.seed, slice),
        ),
        // A replica multicasts to the rest of its world: 2 peers in one
        // group of three, 47 across sixteen groups.
        v(
            "sim.multicast.ns_per_leg",
            multicast(servers - 1, shape.seed, slice),
        ),
        v("sim.timer.ns_per_fire", timers(shape.seed, slice)),
        v("sim.hist.ns_per_record", histogram(shape.seed, slice)),
        v(
            "sim.world.build_ns_per_node",
            world_build(servers + shape.clients, shape.seed, slice),
        ),
    ]
}
