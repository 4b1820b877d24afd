//! Partial replication: sharded replica groups sharing one world.
//!
//! Contracts pinned here:
//!
//! * **Transparency** — `shards == 1` is the unsharded engine, byte for
//!   byte: same digest, same trace hash, no sharding block in either.
//! * **Independence** — at `cross_shard_ratio == 0` every technique
//!   runs, one stock instance per shard group, and converges group-wise.
//! * **Atomicity across groups** — with cross-shard traffic the three
//!   cross-capable techniques commit transactions spanning two groups
//!   and the *merged* history stays one-copy serializable: a cross
//!   transaction is one serialization point, not two.
//! * **Typed rejection** — every unsupported sharded configuration is a
//!   [`RunError::Sharded`], not a panic.
//! * **Blast-radius isolation** — a composed nemesis (crash + partition)
//!   inside one shard group must not disturb shard-local traffic in the
//!   other groups.

use repl_core::{run, try_run, Arrival, Guarantee, RunConfig, RunError, Technique};
use repl_db::DeadlockPolicy;
use repl_gcs::BatchConfig;
use repl_sim::{NodeId, SimDuration, SimTime};
use repl_workload::{ArrivalDist, FaultPlan, MembershipPlan, WorkloadSpec};

const CROSS_CAPABLE: [Technique; 3] = [
    Technique::Active,
    Technique::EagerUpdateEverywhereAbcast,
    Technique::EagerUpdateEverywhereLocking,
];

fn sharded_spec(shards: u32, ratio: f64) -> WorkloadSpec {
    WorkloadSpec::default()
        .with_items(64)
        .with_txns_per_client(6)
        .with_ops_per_txn(3)
        .with_read_ratio(0.5)
        .with_shards(shards)
        .with_cross_shard_ratio(ratio)
}

fn sharded_cfg(technique: Technique, shards: u32, ratio: f64) -> RunConfig {
    RunConfig::new(technique)
        .with_clients(6)
        .with_workload(sharded_spec(shards, ratio))
        .with_seed(23)
}

#[test]
fn one_shard_is_the_unsharded_engine() {
    // `with_shards(1)` must not merely be *close* to the flat engine —
    // it must BE the flat engine: identical digest and trace hash, and
    // no sharding block in the report; a cross-shard ratio stays inert.
    for technique in Technique::ALL {
        let flat = RunConfig::new(technique)
            .with_clients(4)
            .with_workload(
                WorkloadSpec::default()
                    .with_items(64)
                    .with_txns_per_client(6)
                    .with_ops_per_txn(3)
                    .with_read_ratio(0.5),
            )
            .with_seed(9);
        let mut explicit = flat.clone();
        explicit.workload = explicit.workload.with_shards(1).with_cross_shard_ratio(0.5);
        let (a, b) = (run(&flat), run(&explicit));
        let same = a.digest() == b.digest() && a.trace_hash == b.trace_hash;
        assert!(
            same,
            "{technique}: shards=1 changed the digest or the trace"
        );
        let unsharded = !a.sharding.sharded() && !b.sharding.sharded();
        assert!(unsharded && b.sharding.shards == 1, "{technique}");
    }
}

#[test]
fn every_technique_runs_independent_shard_groups() {
    for technique in Technique::ALL {
        let report = run(&sharded_cfg(technique, 4, 0.0));
        assert_eq!(report.ops_unanswered, 0, "{technique}: unanswered ops");
        assert_eq!(report.ops_completed, 36, "{technique}: budget not drained");
        assert!(
            report.converged(),
            "{technique}: groups diverged internally: {:?}",
            report.fingerprints
        );
        // 4 groups of the default 3 servers share the world.
        assert_eq!(report.servers, 12, "{technique}");
        assert_eq!(report.fingerprints.len(), 12, "{technique}");
        assert!(report.sharding.sharded(), "{technique}");
        assert_eq!(report.sharding.shards, 4, "{technique}");
        assert_eq!(
            report.sharding.cross_shard_ops, 0,
            "{technique}: ratio-0 run produced cross-shard ops"
        );
        assert_eq!(
            report.sharding.single_shard_ops, report.ops_completed,
            "{technique}: classification lost ops"
        );
        assert_eq!(
            report.sharding.per_shard_ops.iter().sum::<u64>(),
            report.ops_completed,
            "{technique}: per-shard accounting lost ops"
        );
        // Load must actually spread: no shard group sat idle.
        assert!(
            report.sharding.per_shard_ops.iter().all(|&n| n > 0),
            "{technique}: a shard group saw no traffic: {:?}",
            report.sharding.per_shard_ops
        );
        if technique.info().guarantee != Guarantee::Weak {
            report
                .check_one_copy_serializable()
                .unwrap_or_else(|e| panic!("{technique}: {e}"));
        }
    }
}

#[test]
fn cross_shard_transactions_commit_and_stay_serializable() {
    for technique in CROSS_CAPABLE {
        let report = run(&sharded_cfg(technique, 4, 0.4));
        assert_eq!(report.ops_unanswered, 0, "{technique}: unanswered ops");
        assert!(
            report.sharding.cross_shard_ops > 0,
            "{technique}: the 40% coin never landed cross-shard"
        );
        assert!(report.sharding.single_shard_ops > 0, "{technique}");
        assert_eq!(
            report.sharding.cross_shard_ops + report.sharding.single_shard_ops,
            report.ops_completed,
            "{technique}: classification lost ops"
        );
        assert_eq!(
            report.sharding.cross_latency.count() as u64,
            report.sharding.cross_shard_ops,
            "{technique}: cross latency accounting"
        );
        assert_eq!(
            report.sharding.single_latency.count() as u64,
            report.sharding.single_shard_ops,
            "{technique}: single latency accounting"
        );
        assert!(
            report.converged(),
            "{technique}: groups diverged: {:?}",
            report.fingerprints
        );
        // The heart of the tentpole: a transaction spanning two groups
        // is ONE serialization point in the merged history.
        report
            .check_one_copy_serializable()
            .unwrap_or_else(|e| panic!("{technique}: merged history not 1SR: {e}"));
    }
}

/// Partial replication is partial in memory: each founder's store and
/// lock table cover its own shard's range only, and cross-shard
/// execution — genuine multicast's local parts, distributed locking's
/// per-owner steps — never makes a server store or lock a foreign key.
#[test]
fn a_sharded_server_materialises_only_its_own_shard() {
    let cells = CROSS_CAPABLE
        .map(|technique| (technique, 0.2))
        .into_iter()
        .chain([(Technique::Passive, 0.0)]);
    for (technique, ratio) in cells {
        let report = run(&sharded_cfg(technique, 4, ratio));
        assert_eq!(report.ops_unanswered, 0, "{technique}: unanswered ops");
        assert!(
            ratio == 0.0 || report.sharding.cross_shard_ops > 0,
            "{technique}: no cross-shard traffic to test"
        );
        assert_eq!(
            report.sharding.foreign_resident, 0,
            "{technique}: a founder holds keys outside its shard"
        );
    }
}

#[test]
fn cross_shard_reads_return_foreign_values() {
    // Update-then-read across shards: an all-write warmup makes foreign
    // keys non-zero, so a later cross-shard read returning Value(0)
    // would expose a delegate that never fetched the foreign version.
    for technique in CROSS_CAPABLE {
        let report = run(&sharded_cfg(technique, 2, 1.0).with_workload(
            sharded_spec(2, 1.0)
                .with_items(8)
                .with_read_ratio(0.5)
                .with_txns_per_client(10),
        ));
        let read_something = report
            .records
            .iter()
            .filter_map(|(_, r)| r.response.as_ref())
            .filter(|resp| resp.committed)
            .flat_map(|resp| resp.reads.iter())
            .any(|&(_, v)| v != repl_db::Value(0));
        assert!(
            read_something,
            "{technique}: every cross-shard read came back zero"
        );
        report
            .check_one_copy_serializable()
            .unwrap_or_else(|e| panic!("{technique}: {e}"));
    }
}

#[test]
fn sharded_runs_are_deterministic() {
    for technique in [Technique::Active, Technique::EagerUpdateEverywhereLocking] {
        let cfg = sharded_cfg(technique, 4, 0.3);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(
            a.digest(),
            b.digest(),
            "{technique}: same seed, same digest"
        );
        assert_eq!(a.trace_hash, b.trace_hash, "{technique}");
        let c = run(&cfg.clone().with_seed(91));
        assert_ne!(
            a.digest(),
            c.digest(),
            "{technique}: different seed, different digest"
        );
    }
}

#[test]
fn unsupported_sharded_configs_are_typed_errors() {
    let expect = |cfg: &RunConfig, needle: &str| {
        let err = try_run(cfg).expect_err(&format!("must reject: {needle}"));
        match &err {
            RunError::Sharded(msg) => assert!(
                msg.contains(needle),
                "wrong message for {needle:?}: {msg:?}"
            ),
            other => panic!("expected RunError::Sharded for {needle:?}, got {other:?}"),
        }
    };

    // Cross-shard traffic on a technique without a cross-group commit
    // path: a primary-backup pair, and an ordered-stream flow whose
    // certification test sees only its own shard.
    for t in [Technique::Passive, Technique::Certification] {
        expect(&sharded_cfg(t, 4, 0.2), "no cross-group commit path");
    }
    // Faults composed with cross-shard traffic.
    expect(
        &sharded_cfg(Technique::Active, 4, 0.2)
            .with_faults(FaultPlan::new().crash_at(SimTime::from_ticks(1_000), NodeId::new(1))),
        "faults",
    );
    // Membership plans in sharded runs.
    expect(
        &sharded_cfg(Technique::Active, 4, 0.0).with_membership(
            MembershipPlan::new().join_at(SimTime::from_ticks(1_000), NodeId::new(12)),
        ),
        "membership",
    );
    // Non-closed arrivals.
    expect(
        &sharded_cfg(Technique::Active, 4, 0.0).with_arrival(Arrival::OpenAggregated {
            mean: 2_000,
            dist: ArrivalDist::Poisson,
        }),
        "closed-loop",
    );
    // Locking without a global deadlock order.
    expect(
        &sharded_cfg(Technique::EagerUpdateEverywhereLocking, 4, 0.2)
            .with_deadlock(DeadlockPolicy::Detect),
        "wound-wait",
    );
    expect(
        &sharded_cfg(Technique::EagerUpdateEverywhereLocking, 4, 0.2).with_rowa(true),
        "rowa",
    );
    // Batching on the genuine-multicast path.
    expect(
        &sharded_cfg(Technique::Active, 4, 0.2).with_batching(BatchConfig::window(500)),
        "batching",
    );
    // More shards than keys.
    let mut tiny = sharded_cfg(Technique::Active, 4, 0.0);
    tiny.workload.items = 2;
    expect(&tiny, "empty shards");
}

/// Satellite nemesis: a crash *and* a partition inside shard group 0
/// while groups 1..3 serve shard-local traffic. The blast radius must
/// stay inside group 0 — ops homed elsewhere complete without a single
/// retry — and once the plan heals, even group 0 answers everything and
/// every group converges internally.
#[test]
fn nemesis_in_one_group_leaves_other_groups_undisturbed() {
    let plan = FaultPlan::new()
        // Crash a group-0 replica...
        .crash_at(SimTime::from_ticks(30_000), NodeId::new(1))
        // ...and cut the survivor pair apart (clients are unlisted, so
        // they keep reaching every server).
        .partition_at(
            SimTime::from_ticks(40_000),
            vec![vec![NodeId::new(0)], vec![NodeId::new(2)]],
        )
        .heal_at(SimTime::from_ticks(400_000))
        .recover_at(SimTime::from_ticks(450_000), NodeId::new(1));

    let cfg = RunConfig::new(Technique::Active)
        .with_clients(8)
        .with_workload(
            sharded_spec(4, 0.0)
                .with_txns_per_client(10)
                .with_think_time(SimDuration::from_ticks(2_000)),
        )
        .with_retry_after(SimDuration::from_ticks(10_000))
        .with_seed(31)
        .with_faults(plan.clone());
    let report = run(&cfg);
    let map = cfg.workload.shard_map();

    assert_eq!(
        report.ops_unanswered, 0,
        "clients left unanswered after the plan healed"
    );
    assert_eq!(report.faults_injected(), plan.fault_count() as u64);

    // Ops homed outside the wounded group must never have needed a retry.
    let mut foreign = 0u64;
    for (_, rec) in &report.records {
        let home = map.shard_of(rec.txn.ops[0].key());
        if home != 0 {
            foreign += 1;
            assert!(rec.responded.is_some(), "op in healthy group unanswered");
            assert_eq!(
                rec.retries, 0,
                "op homed in healthy group {home} was retried — blast radius leaked"
            );
        }
    }
    assert!(foreign > 0, "workload never left shard 0");

    // The untouched groups (nodes 3..12) must each agree internally.
    for g in 1..4usize {
        let group = &report.fingerprints[g * 3..(g + 1) * 3];
        assert!(
            group.windows(2).all(|w| w[0] == w[1]),
            "group {g} diverged: {group:?}"
        );
    }
    // And after heal + recovery, so must group 0.
    assert!(
        report.converged(),
        "group 0 did not converge after heal: {:?}",
        &report.fingerprints[0..3]
    );
}
