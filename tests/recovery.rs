//! Crash-*recovery* tests: a secondary that dies, misses updates, and
//! comes back must catch up from the primary's redo log (log shipping).

use replication::sim::{NodeId, SimTime};
use replication::workload::FaultPlan;
use replication::{run, RunConfig, Technique, WorkloadSpec};

fn updates(n: u32) -> WorkloadSpec {
    WorkloadSpec::default()
        .with_items(32)
        .with_read_ratio(0.0)
        .with_txns_per_client(n)
}

#[test]
fn recovered_secondary_catches_up_from_the_log() {
    // Secondary (server 2) is dead for the middle of the run; updates
    // committed meanwhile are lost on the wire. After recovery it must
    // fetch the log suffix and converge.
    let cfg = RunConfig::new(Technique::LazyPrimary)
        .with_servers(3)
        .with_clients(2)
        .with_seed(307)
        .with_faults(
            FaultPlan::new()
                .crash_at(SimTime::from_ticks(1_500), NodeId::new(2))
                .recover_at(SimTime::from_ticks(15_000), NodeId::new(2)),
        )
        .with_workload(updates(10));
    let report = run(&cfg);
    assert_eq!(report.ops_unanswered, 0, "lazy primary must keep serving");
    assert!(
        report.converged(),
        "recovered secondary did not catch up: {:?}",
        report.fingerprints
    );
}

#[test]
fn recovery_mid_stream_handles_gaps() {
    // Several crash/recover cycles; each gap must be filled via catch-up.
    let cfg = RunConfig::new(Technique::LazyPrimary)
        .with_servers(4)
        .with_clients(3)
        .with_seed(311)
        .with_faults(
            FaultPlan::new()
                .crash_at(SimTime::from_ticks(1_000), NodeId::new(3))
                .recover_at(SimTime::from_ticks(6_000), NodeId::new(3))
                .crash_at(SimTime::from_ticks(9_000), NodeId::new(3))
                .recover_at(SimTime::from_ticks(14_000), NodeId::new(3)),
        )
        .with_workload(updates(12));
    let report = run(&cfg);
    assert_eq!(report.ops_unanswered, 0);
    assert!(
        report.converged(),
        "gapped secondary diverged: {:?}",
        report.fingerprints
    );
}

#[test]
fn never_recovered_secondary_is_the_only_divergent_replica() {
    let cfg = RunConfig::new(Technique::LazyPrimary)
        .with_servers(3)
        .with_clients(2)
        .with_seed(313)
        .with_faults(FaultPlan::new().crash_at(SimTime::from_ticks(1_500), NodeId::new(2)))
        .with_workload(updates(8));
    let report = run(&cfg);
    assert_eq!(report.ops_unanswered, 0);
    // The corpse lags; the live pair agrees.
    assert_eq!(report.fingerprints[0], report.fingerprints[1]);
}
