//! # repl-workload — workload and fault-load generation
//!
//! Generators for the performance study the paper promised ("taking into
//! account different workloads and failures assumptions", Section 6):
//!
//! * [`WorkloadSpec`] — declarative workload description: item count,
//!   read ratio, zipfian skew, operations per transaction, think time,
//! * [`TxnTemplate`]/[`OpTemplate`] — generated (multi-operation)
//!   transactions over logical items; a batch of them shares one body
//!   ([`TxnOps`] is a transaction's window into it),
//! * [`WorkloadGen`] — the seeded generator,
//! * [`ArrivalStream`] — seeded open-loop inter-arrival streams
//!   (Poisson or uniform), the arrival half of the open-loop engine,
//! * [`Zipf`] — zipfian key sampler (hotspot contention),
//! * [`ShardMap`] — static key → shard routing for partial replication
//!   (contiguous near-equal ranges; the sharded generator samples
//!   per-shard Zipf and mixes in `cross_shard_ratio` two-shard
//!   transactions),
//! * [`FaultPlan`] — declarative fault loads: crashes/recoveries,
//!   partitions/heals, link degradations (latency spikes, loss, cuts),
//!   plus the seeded nemesis generator [`FaultPlan::random`],
//! * [`MembershipPlan`] — declarative elastic-membership loads: online
//!   joins of brand-new sites and planned decommissions (drains).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrivals;
mod faults;
mod generator;
mod membership;
mod shard;
mod spec;
mod zipf;

pub use arrivals::{ArrivalDist, ArrivalStream};
pub use faults::{FaultEvent, FaultPlan, FaultPlanError};
pub use generator::{OpTemplate, TxnList, TxnOps, TxnTemplate, WorkloadGen};
pub use membership::{MembershipEvent, MembershipPlan, MembershipPlanError};
pub use shard::{ShardMap, ShardMapError};
pub use spec::WorkloadSpec;
pub use zipf::Zipf;
