//! The API seam: every name the benchmark uses from the `repl-*` crates
//! is imported here and nowhere else, so a refactor can read this one
//! file to see what must stay source-compatible (the README lists the
//! same surface). Deliberately absent, because ROADMAP item 2 plans to
//! delete them: `RunConfig::with_crashes` / `CrashSchedule`,
//! `RunConfig::with_payload_arena`, and the sorting accessors of
//! `LatencyStats` (`percentile`, `sorted_samples`).

pub use repl_core::{
    try_run, Arrival, BatchConfig, DurabilityConfig, Guarantee, Propagation, RunConfig, RunError,
    RunReport, Technique,
};
pub use repl_db::{
    AccessKind, Acquire, Certifier, DeadlockPolicy, Key, LockManager, LockMode, PayloadArena,
    RedoLog, ReplicatedHistory, Store, TpcCoordinator, TpcDecision, TpcMsg, TpcParticipant,
    Transfer, TxnId, Value, WriteRecord, WriteSet,
};
pub use repl_gcs::{
    Action, Component, ConsensusAbcast, ConsensusConfig, ConsensusPool, GenuineMulticast, Outbox,
    SequencerAbcast, ViewGroup, VsConfig, VsEvent,
};
pub use repl_sim::{
    impl_as_any, Actor, Context, LatencyHistogram, Message, NetworkConfig, NodeId, SimConfig,
    SimDuration, SimTime, TimerId, TimingWheel, World,
};
pub use repl_workload::{
    ArrivalDist, ArrivalStream, FaultPlan, MembershipPlan, WorkloadGen, WorkloadSpec,
};

/// Pools a report's client response times into `into`, whichever of the
/// two collectors the run used. Closed-loop runs keep exact samples
/// (`RunReport::latencies`), aggregated open-loop runs keep a streaming
/// histogram (`RunReport::latency_hist`); the benchmark only ever reads
/// percentiles from the pooled histogram, so it never needs
/// `LatencyStats` to sort.
pub fn pool_latencies(report: &RunReport, into: &mut LatencyHistogram) {
    for &ticks in report.latencies.samples() {
        into.record(SimDuration::from_ticks(ticks));
    }
    if let Some(hist) = &report.latency_hist {
        into.merge(hist);
    }
}
