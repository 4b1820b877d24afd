//! Client retry accounting.
//!
//! A retry means "this operation timed out". A fault-free closed-loop run
//! answers every operation long before `retry_after`, so no client may
//! ever re-submit — under any technique, flat or sharded. (Until PR 21 a
//! retry timer outlived its operation and re-sent the *next* one to the
//! next server: unrequested hedging, 3.46 re-submissions per transaction
//! on the 16-group benchmark cell.)
//!
//! A *legitimate* retry can still reach a second replica while the first
//! attempt lives; making that idempotent is ROADMAP 1(c), and the last
//! test here is its regression test, waiting.

use repl_core::{run, RunConfig, Technique};
use repl_sim::SimDuration;
use repl_workload::WorkloadSpec;

/// Two zero-think clients, 200 transactions each: back-to-back operations
/// for longer than `retry_after`, so a timer that outlived its operation
/// would fire during a later one. (Not more clients: semi-passive
/// replication serves its pending operations in id order, so two
/// zero-think clients starve every higher-numbered one past `retry_after`
/// — a fairness defect, and those retries are legitimate.)
fn busy(technique: Technique) -> RunConfig {
    RunConfig::new(technique)
        .with_clients(2)
        .with_seed(7)
        .with_workload(
            WorkloadSpec::default()
                .with_items(128)
                .with_read_ratio(0.0)
                .with_txns_per_client(200)
                .with_think_time(SimDuration::ZERO),
        )
}

#[test]
fn fault_free_closed_loop_never_retries() {
    let flat = Technique::ALL.map(|t| (t, busy(t).with_servers(3)));
    // Four groups of three, a fifth of the transactions cross-shard.
    let mut sharded = busy(Technique::Active).with_clients(8);
    sharded.workload = sharded.workload.with_shards(4).with_cross_shard_ratio(0.2);
    for (technique, cfg) in flat.into_iter().chain([(Technique::Active, sharded)]) {
        let shards = cfg.workload.shards;
        let report = run(&cfg);
        assert_eq!(
            report.ops_completed,
            u64::from(cfg.clients) * 200,
            "{technique:?} x{shards}"
        );
        assert_eq!(report.ops_unanswered, 0, "{technique:?} x{shards}");
        assert_eq!(
            report.client_retries, 0,
            "{technique:?} x{shards}: no fault, no loss, every reply inside retry_after"
        );
    }
}

#[test]
#[ignore = "ROADMAP 1(c): a legitimate retry reaches a second delegate while the first attempt lives"]
fn eager_ue_locking_hot_mixed_load_is_serializable_despite_retries() {
    // KNOWN_RED 1a's shape at the one seed in 600 that is still red: 8
    // operations wait out `retry_after` behind lock queues, one of them
    // is delegated twice, and the merged history has a cycle.
    let report = run(&RunConfig::new(Technique::EagerUpdateEverywhereLocking)
        .with_servers(3)
        .with_clients(8)
        .with_seed(458)
        .with_trace(false)
        .with_workload(
            WorkloadSpec::default()
                .with_items(1_024)
                .with_skew(0.8)
                .with_read_ratio(0.2)
                .with_ops_per_txn(4)
                .with_txns_per_client(100)
                .with_think_time(SimDuration::ZERO),
        ));
    assert_eq!(report.ops_unanswered, 0);
    assert!(report.converged());
    report
        .check_one_copy_serializable()
        .expect("one delegation per transaction");
}
