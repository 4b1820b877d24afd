//! # repl-core — the paper, executable
//!
//! The primary contribution of *Understanding Replication in Databases and
//! Distributed Systems* (Wiesmann, Pedone, Schiper, Kemme, Alonso;
//! ICDCS 2000) is a five-phase functional model that makes replication
//! techniques from the distributed-systems and database communities
//! comparable. This crate makes that framework *executable*:
//!
//! * [`Phase`], [`PhaseSkeleton`], [`PhaseTrace`] — the functional model;
//!   protocols mark phases in the simulator trace and the paper's phase
//!   diagrams are regenerated from real executions,
//! * [`Technique`] — the taxonomy with the classification metadata behind
//!   the paper's Figures 5, 6 and 16,
//! * [`protocols`] — all ten techniques as simulated protocols,
//! * [`ClientActor`] — the client driver, closed or open loop,
//! * [`consistency`] — linearizability, sequential-consistency and
//!   staleness oracles (one-copy serializability lives in `repl-db`),
//! * [`run`]/[`RunConfig`] — one-call experiment execution returning a [`RunReport`],
//! * [`figures`] — generators for every figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod consistency;
mod durability;
pub mod figures;
mod op;
mod phase;
pub mod protocols;
mod report;
mod runner;
mod technique;

pub use client::{AggregateClients, ClientActor, ClientGroup, OpRecord, ReplyMode};
pub use durability::DurabilityConfig;
pub use op::{accesses, ClientOp, OpId, Response};
pub use phase::{Phase, PhaseMark, PhaseSkeleton, PhaseTrace};
pub use protocols::replica::Wire;
pub use repl_gcs::BatchConfig;
pub use report::{
    Availability, DurabilityReport, NodeRecovery, RunReport, ShardingReport, SilentLoss,
};
pub use runner::{run, try_run, Arrival, RunConfig, RunError, MAX_CLIENTS};
pub use technique::{Community, Guarantee, Propagation, Technique, TechniqueInfo, UpdateLocation};
