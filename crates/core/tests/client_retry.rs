//! Client retry accounting.
//!
//! A retry means "this operation timed out". A fault-free closed-loop run
//! answers every operation long before `retry_after`, so no client may
//! ever re-submit — under any technique, flat or sharded. (Until PR 21 a
//! retry timer outlived its operation and re-sent the *next* one to the
//! next server: unrequested hedging, 3.46 re-submissions per transaction
//! on the 16-group benchmark cell.)
//!
//! A *legitimate* retry goes to the next contact and reaches a second
//! replica while the first attempt lives. Under eager update everywhere
//! with distributed locking that replica must not delegate the same
//! transaction a second time: its lock table names the live delegate,
//! which it forwards the retry to, and its client table names what a
//! delegate committed, which it drops. A retry that reaches the delegate
//! of a live attempt runs that attempt again: a site that crashed since
//! lost its requests. The last tests pin that, at seed 458, under a
//! retry timer short enough to fire on most runs, and across an outage.

use repl_core::{run, RunConfig, RunReport, Technique};
use repl_sim::{NodeId, SimDuration, SimTime};
use repl_workload::{FaultPlan, WorkloadSpec};

/// Four zero-think clients, 200 transactions each: back-to-back
/// operations for longer than `retry_after`, so a timer that outlived its
/// operation would fire during a later one, and every server a contact
/// for more than one client.
fn busy(technique: Technique) -> RunConfig {
    RunConfig::new(technique)
        .with_clients(4)
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
    let mut sharded = busy(Technique::Active).with_clients(16);
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

/// KNOWN_RED 1a's shape under Eager UE (Locking): zero-think clients
/// with `txns` four-operation transactions each, a fifth of them
/// read-only steps, Zipf 0.8 over 1,024 items, three replicas per group.
fn hot_mixed(clients: u32, txns: u32, seed: u64) -> RunConfig {
    RunConfig::new(Technique::EagerUpdateEverywhereLocking)
        .with_servers(3)
        .with_clients(clients)
        .with_seed(seed)
        .with_trace(false)
        .with_workload(
            WorkloadSpec::default()
                .with_items(1_024)
                .with_skew(0.8)
                .with_read_ratio(0.2)
                .with_ops_per_txn(4)
                .with_txns_per_client(txns)
                .with_think_time(SimDuration::ZERO),
        )
}

/// Every operation answered, the replicas converged, the merged history
/// one-copy serializable.
fn assert_one_delegation(report: &RunReport, cfg: &RunConfig, what: &str) {
    let ops = u64::from(cfg.clients) * u64::from(cfg.workload.txns_per_client);
    assert_eq!(report.ops_completed, ops, "{what}");
    assert_eq!(report.ops_unanswered, 0, "{what}");
    assert!(report.converged(), "{what}: replicas diverged");
    if let Err(e) = report.check_one_copy_serializable() {
        panic!("{what}: a transaction ran under two delegations: {e:?}");
    }
}

#[test]
fn eager_ue_locking_hot_mixed_load_is_serializable_despite_retries() {
    // The one seed in 600 that was red at the default `retry_after`: a
    // wound aborted an attempt at its delegate while the attempt's own
    // LockReq was still in flight by loopback. Taken, that request
    // re-locked key 0 under the reused transaction id, the next attempt
    // inherited the lock past an older waiter, and eight transactions
    // wedged until their clients' retries delegated one of them a second
    // time. Dropped, nothing waits out the timer.
    let cfg = hot_mixed(8, 100, 458);
    let report = run(&cfg);
    assert_one_delegation(&report, &cfg, "seed 458");
    assert_eq!(report.client_retries, 0);
}

/// `cfg` with a 3,000-tick retry timer, which fires behind most lock
/// queues, and a deadline that a wedged run reaches fast (a green one
/// ends before 250,000 ticks).
fn short_timer(cfg: RunConfig) -> RunConfig {
    cfg.with_retry_after(SimDuration::from_ticks(3_000))
        .with_max_time(SimTime::from_ticks(1_000_000))
}

#[test]
fn eager_ue_locking_runs_one_delegation_per_transaction_under_a_short_retry_timer() {
    for seed in 0..4 {
        let cfg = short_timer(hot_mixed(8, 100, seed));
        let report = run(&cfg);
        assert!(report.client_retries > 0, "seed {seed}: the timer fires");
        assert_one_delegation(&report, &cfg, &format!("flat, seed {seed}"));
    }
}

#[test]
fn sharded_eager_ue_locking_runs_one_delegation_per_transaction_under_a_short_retry_timer() {
    // Seed 28 wedged even when a routed client retried the same contact.
    for seed in (0..4).chain([28]) {
        // Four groups of three, a fifth of the transactions cross-shard.
        let mut cfg = short_timer(hot_mixed(16, 50, seed));
        cfg.workload = cfg.workload.with_shards(4).with_cross_shard_ratio(0.2);
        let report = run(&cfg);
        assert!(report.client_retries > 0, "seed {seed}: the timer fires");
        assert_one_delegation(&report, &cfg, &format!("sharded, seed {seed}"));
    }
}

#[test]
fn eager_ue_locking_answers_and_converges_across_an_outage() {
    // Node 2 is down from 5,000 to 20,000 ticks and loses what was sent
    // to it meanwhile: the attempts that waited on it finish only when
    // their clients' retries make their delegates run them again, and
    // node 2 applies their writes only because they run again in full.
    let outage = FaultPlan::new().outage_at(
        SimTime::from_ticks(5_000),
        NodeId::new(2),
        SimDuration::from_ticks(15_000),
    );
    for seed in [2, 5, 20] {
        let cfg = hot_mixed(8, 100, seed).with_faults(outage.clone());
        let report = run(&cfg);
        assert!(
            report.client_retries > 0,
            "seed {seed}: the outage stalls some"
        );
        assert_one_delegation(&report, &cfg, &format!("outage, seed {seed}"));
    }
}
