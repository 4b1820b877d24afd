//! Per-layer drivers: each times calls into the public functions of one
//! `repl-*` crate from outside, shaped by the workload it is reported
//! under, so a layer's cost can be compared before and after a change
//! without the rest of the system in the way. Layers are the crates.
//!
//! A driver runs fixed-size batches until its time slice is used up
//! (at least three) and reports the fastest batch, for the reason the
//! end-to-end host times are best-observed ones (see
//! [`crate::harness::best_s`]). Set-up that users do not pay per
//! operation (building the group, pre-filling the queue) is outside the
//! timed region of every batch.

pub mod db;
pub mod gcs;
pub mod sim;
pub mod workload;

use std::time::{Duration, Instant};

use crate::api::{RunConfig, WorkloadSpec};

/// What a driver needs to know about the workload it is reported under.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Replicas per group.
    pub replicas: u32,
    /// Replica groups (1 when unsharded).
    pub groups: u32,
    /// Client actors in the world.
    pub clients: u32,
    /// Transactions one cell records in its history, capped at the
    /// largest recorded cell of any workload.
    pub cell_txns: u64,
    /// The key distribution, read ratio and transaction length.
    pub spec: WorkloadSpec,
    /// Base seed of the run (driver inputs derive from it).
    pub seed: u64,
    /// Divisor applied to the drivers' fixed sizes (1 when measuring;
    /// larger in the smoke tests, which only check that every driver
    /// runs and reports).
    pub div: u64,
}

impl Shape {
    /// The shape of a workload, read off its first cell.
    pub fn of(cfg: &RunConfig, div: u64) -> Shape {
        Shape {
            replicas: cfg.servers,
            groups: cfg.workload.shards,
            // Aggregated open-loop populations are one actor per server.
            clients: cfg.clients.min(64),
            cell_txns: (u64::from(cfg.clients) * u64::from(cfg.workload.txns_per_client))
                .min(25_600),
            spec: cfg.workload.clone(),
            seed: cfg.seed,
            div,
        }
    }

    /// A driver's fixed size `n`, divided for the smoke tests.
    pub fn sized(&self, n: u64) -> u64 {
        (n / self.div).max(1)
    }
}

/// One per-layer measurement.
#[derive(Debug, Clone)]
pub struct LayerValue {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
}

/// A small deterministic generator for driver inputs (times, values):
/// the benchmark must not pull in `rand`, and the measured crates seed
/// their own streams.
pub struct Lcg(pub u64);

impl Lcg {
    /// The next 31 well-mixed bits.
    pub fn draw(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

/// Runs `batch` until `budget` is used up, at least three times. Each
/// call returns the operations it performed and the time they took;
/// the result is the nanoseconds per operation of the fastest call.
pub fn ns_per_op(budget: Duration, mut batch: impl FnMut() -> (u64, Duration)) -> f64 {
    let start = Instant::now();
    let mut best = f64::INFINITY;
    let mut batches = 0;
    while batches < 3 || start.elapsed() < budget {
        let (ops, took) = batch();
        best = best.min(took.as_nanos() as f64 / ops.max(1) as f64);
        batches += 1;
    }
    best
}

/// Every driver of every layer, each given `slice` of wall time.
pub fn run_all(shape: &Shape, slice: Duration) -> Vec<LayerValue> {
    let mut out = Vec::new();
    out.extend(sim::run(shape, slice));
    out.extend(gcs::run(shape, slice));
    out.extend(db::run(shape, slice));
    out.extend(workload::run(shape, slice));
    out
}

/// How many time slices [`run_all`] hands out.
pub const DRIVERS: u32 = sim::DRIVERS + gcs::DRIVERS + db::DRIVERS + workload::DRIVERS;
