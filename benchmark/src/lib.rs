//! The repo's benchmark: four workloads, exact simulated metrics,
//! bounded host metrics, per-layer drivers. See `README.md` beside this
//! package and `BENCHMARK.json` at the repo root.

pub mod alloc;
pub mod api;
pub mod clock;
pub mod compare;
pub mod harness;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod workloads;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;
