//! End-to-end consistency verification: run each technique on a register
//! workload and feed the *client-observed* history to the oracles of the
//! paper's Section 2.2.

use replication::core::consistency::{
    check_linearizable, check_sequentially_consistent, register_histories,
};
use replication::db::Value;
use replication::sim::SimDuration;
use replication::{run, Guarantee, RunConfig, Technique, WorkloadSpec};

fn register_workload(seed: u64) -> WorkloadSpec {
    // Few items, single-op transactions, mixed reads/writes: a classic
    // register workload the Wing–Gong checker can digest.
    let _ = seed;
    WorkloadSpec::default()
        .with_items(4)
        .with_read_ratio(0.5)
        .with_skew(0.5)
        .with_txns_per_client(8)
}

#[test]
fn distributed_systems_techniques_are_linearizable() {
    for technique in [
        Technique::Active,
        Technique::Passive,
        Technique::SemiActive,
        Technique::SemiPassive,
    ] {
        let cfg = RunConfig::new(technique)
            .with_servers(3)
            .with_clients(3)
            .with_seed(41)
            .with_workload(register_workload(41));
        let report = run(&cfg);
        for (key, ops) in register_histories(&report.records) {
            check_linearizable(&ops, Value(0)).unwrap_or_else(|e| {
                panic!("{technique}: key {key} not linearizable: {e}\nops: {ops:#?}")
            });
        }
    }
}

#[test]
fn eager_database_techniques_are_sequentially_consistent_on_registers() {
    // 1SR does not imply linearizability, but for these implementations
    // the register histories should at least be sequentially consistent.
    for technique in [
        Technique::EagerPrimary,
        Technique::EagerUpdateEverywhereLocking,
        Technique::EagerUpdateEverywhereAbcast,
        Technique::Certification,
    ] {
        let cfg = RunConfig::new(technique)
            .with_servers(3)
            .with_clients(3)
            .with_seed(43)
            .with_workload(register_workload(43));
        let report = run(&cfg);
        for (key, ops) in register_histories(&report.records) {
            check_sequentially_consistent(&ops, Value(0))
                .unwrap_or_else(|e| panic!("{technique}: key {key}: {e}"));
        }
    }
}

#[test]
fn lazy_techniques_produce_stale_reads_that_strong_ones_never_do() {
    let workload = WorkloadSpec::default()
        .with_items(3)
        .with_read_ratio(0.6)
        .with_txns_per_client(12)
        .with_think_time(SimDuration::from_ticks(500));
    // Strong techniques: zero stale reads, across several seeds.
    for technique in [Technique::Active, Technique::EagerUpdateEverywhereAbcast] {
        for seed in [1, 2, 3] {
            let report = run(&RunConfig::new(technique)
                .with_servers(3)
                .with_clients(3)
                .with_seed(seed)
                .with_workload(workload.clone()));
            assert!(
                report.stale_reads().is_empty(),
                "{technique} seed {seed}: stale reads in a strong technique: {:?}",
                report.stale_reads()
            );
        }
    }
    // Lazy primary with a wide propagation window: staleness appears.
    let mut total_stale = 0;
    for seed in [1, 2, 3, 4, 5] {
        let report = run(&RunConfig::new(Technique::LazyPrimary)
            .with_servers(3)
            .with_clients(3)
            .with_seed(seed)
            .with_propagation_delay(SimDuration::from_ticks(30_000))
            .with_workload(workload.clone()));
        total_stale += report.stale_reads().len();
    }
    assert!(
        total_stale > 0,
        "lazy primary with delayed propagation should show stale reads"
    );
}

#[test]
fn certification_aborts_exactly_when_reads_went_stale() {
    // A hot single key with read-modify-writes from several clients: some
    // transactions must abort, and all sites must agree on which.
    let cfg = RunConfig::new(Technique::Certification)
        .with_servers(3)
        .with_clients(4)
        .with_seed(47)
        .with_workload(
            WorkloadSpec::default()
                .with_items(2)
                .with_read_ratio(0.5)
                .with_ops_per_txn(2)
                .with_skew(1.5)
                .with_txns_per_client(8)
                .with_think_time(SimDuration::from_ticks(50)),
        );
    let report = run(&cfg);
    assert!(report.ops_aborted > 0, "hot-key certification should abort");
    assert!(report.converged(), "verdicts must agree at all sites");
    report
        .check_one_copy_serializable()
        .expect("whatever committed must be 1SR");
}

#[test]
fn lazy_update_everywhere_violates_strong_criteria_but_converges() {
    let cfg = RunConfig::new(Technique::LazyUpdateEverywhere)
        .with_servers(3)
        .with_clients(3)
        .with_seed(53)
        .with_propagation_delay(SimDuration::from_ticks(5_000))
        .with_workload(
            WorkloadSpec::default()
                .with_items(2)
                .with_read_ratio(0.3)
                .with_skew(1.0)
                .with_txns_per_client(10),
        );
    let report = run(&cfg);
    assert!(report.converged(), "LWW must converge after quiescence");
    assert_eq!(
        report.technique.info().guarantee,
        Guarantee::Weak,
        "metadata sanity"
    );
    // With hot keys and delayed propagation something must have given:
    // either reads went stale or updates were reconciled away.
    assert!(
        report.reconciliations > 0 || !report.stale_reads().is_empty(),
        "no observable weakness despite conflicts"
    );
}

#[test]
fn lazy_update_everywhere_converges_under_hot_updates() {
    // 16 zero-think clients on 256 Zipf keys commit several transactions
    // per tick at one site; last-writer-wins converges only if each of
    // them gets a stamp of its own. Seeds where (tick, site) stamps did not.
    for seed in [30, 47, 67, 907] {
        let cfg = RunConfig::new(Technique::LazyUpdateEverywhere)
            .with_servers(3)
            .with_clients(16)
            .with_seed(seed)
            .with_trace(false)
            .with_workload(
                WorkloadSpec::default()
                    .with_items(256)
                    .with_skew(0.8)
                    .with_read_ratio(0.0)
                    .with_ops_per_txn(4)
                    .with_txns_per_client(150)
                    .with_think_time(SimDuration::ZERO),
            );
        let report = run(&cfg);
        assert_eq!(report.ops_unanswered, 0, "seed {seed}");
        assert!(report.converged(), "seed {seed}: replicas did not converge");
    }
}
