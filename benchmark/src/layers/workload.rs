//! `repl-workload` drivers: transaction generation, arrival streams and
//! fault-plan construction. These should move `setup_s`, and `run_s` on
//! `study_mix`, where every millisecond-sized run builds its own
//! generators and plans.

use std::time::{Duration, Instant};

use super::{ns_per_op, LayerValue, Shape};
use crate::api::{ArrivalDist, ArrivalStream, FaultPlan, SimTime, WorkloadGen};

/// Time slices this layer uses.
pub const DRIVERS: u32 = 4;

fn generate(shape: &Shape, skew: f64, budget: Duration) -> f64 {
    let spec = shape.spec.clone().with_skew(skew);
    let mut gen = WorkloadGen::new(&spec, shape.seed);
    ns_per_op(budget, || {
        const TXNS: u64 = 50_000;
        let start = Instant::now();
        for _ in 0..TXNS {
            std::hint::black_box(gen.next_txn());
        }
        (TXNS, start.elapsed())
    })
}

fn arrivals(seed: u64, budget: Duration) -> f64 {
    // The per-server stream of `open_1m`: 200k/s over three servers.
    let mut stream = ArrivalStream::new(ArrivalDist::Poisson, 15.0, seed);
    ns_per_op(budget, || {
        const GAPS: u64 = 500_000;
        let start = Instant::now();
        for _ in 0..GAPS {
            std::hint::black_box(stream.next_gap());
        }
        (GAPS, start.elapsed())
    })
}

/// Building and validating the seeded nemesis plan of one small run.
fn fault_plans(shape: &Shape, budget: Duration) -> f64 {
    let horizon = SimTime::from_ticks(100_000);
    let mut seed = shape.seed;
    ns_per_op(budget, || {
        const PLANS: u64 = 2_000;
        let start = Instant::now();
        for _ in 0..PLANS {
            seed += 1;
            let plan = FaultPlan::random(seed, 0.5, shape.replicas, horizon);
            std::hint::black_box(plan.validate(shape.replicas, horizon).is_ok());
        }
        (PLANS, start.elapsed())
    })
}

/// Runs the layer's drivers.
pub fn run(shape: &Shape, slice: Duration) -> Vec<LayerValue> {
    let v = |name, value| LayerValue { name, value };
    vec![
        v(
            "workload.gen.uniform_ns_per_txn",
            generate(shape, 0.0, slice),
        ),
        v("workload.gen.zipf_ns_per_txn", generate(shape, 0.8, slice)),
        v(
            "workload.arrivals.ns_per_arrival",
            arrivals(shape.seed, slice),
        ),
        v("workload.faultplan.ns_per_plan", fault_plans(shape, slice)),
    ]
}
