//! The payload plane's lifetime invariants, read off
//! [`RunReport::payload`] — the arena's own deterministic counters.
//!
//! Writesets travel as arena handles only. This suite replaces the
//! arena-vs-inline differential suite (`arena_equiv`) with the
//! invariants it stood in for; the equivalence evidence itself is frozen
//! in `golden_digests`, whose 65 `(digest, trace hash)` pairs were
//! recorded while `arena_equiv` was green, so a payload-plane change
//! that moves anything observable still fails there.
//!
//! What is checked here is what a digest cannot see: every interned span
//! is retired exactly when its last consumer is done with it (never
//! earlier — a premature free panics inside the run and surfaces as
//! [`RunError::Internal`]; never later — a leak pins dead-prefix
//! compaction), and the arena's footprint follows the in-flight window,
//! not the length of the run.

use proptest::prelude::*;

use repl_core::{run, try_run, Arrival, RunConfig, RunReport, Technique};
use repl_db::PayloadArena;
use repl_sim::{NodeId, SimDuration, SimTime};
use repl_workload::{ArrivalDist, FaultPlan, WorkloadSpec};

/// The techniques whose protocol messages carry a writeset handle (the
/// rest ship full transactions or decisions and never touch the arena).
const PAYLOAD_TECHNIQUES: [Technique; 6] = [
    Technique::Passive,
    Technique::SemiPassive,
    Technique::EagerPrimary,
    Technique::LazyPrimary,
    Technique::LazyUpdateEverywhere,
    Technique::Certification,
];

fn base_cfg(technique: Technique, seed: u64, clients: u32) -> RunConfig {
    RunConfig::new(technique)
        .with_servers(3)
        .with_clients(clients)
        .with_seed(seed)
        .with_workload(
            WorkloadSpec::default()
                .with_items(16)
                .with_read_ratio(0.25)
                .with_txns_per_client(6)
                .with_think_time(SimDuration::from_ticks(150)),
        )
}

/// Every span was retired: nothing leaked, and (the run having returned
/// at all) nothing was freed under a reader.
fn assert_fully_retired(report: &RunReport, label: &str) {
    assert_eq!(report.ops_unanswered, 0, "{label}: unanswered operations");
    let p = report.payload;
    assert_eq!(
        p.interned,
        p.retired,
        "{label}: {} spans leaked",
        p.interned - p.retired
    );
}

#[test]
fn every_span_retires_whatever_the_group_size() {
    for technique in PAYLOAD_TECHNIQUES {
        for servers in [1, 3, 5] {
            let label = format!("{} / {servers} servers", technique.name());
            let report = run(&base_cfg(technique, 11, 2).with_servers(servers));
            assert_fully_retired(&report, &label);
            // With peers to ship to, every update interns a span; alone,
            // a primary's writesets have no consumer and retire at birth.
            assert!(
                servers == 1 || report.payload.interned > 0,
                "{label}: shipped nothing"
            );
        }
    }
}

#[test]
fn the_arena_is_bounded_by_the_window_not_by_the_run() {
    // 4× the stream, same state: the columns stop growing once they hold
    // one compaction period plus what is in flight. 2 000 ops/s in total,
    // which the slowest technique (semi-passive, a consensus instance per
    // update) still keeps up with.
    let open = |technique: Technique, txns: u32| {
        let report = run(&RunConfig::new(technique)
            .with_servers(3)
            .with_clients(4_000)
            .with_seed(29)
            .with_trace(false)
            .with_max_time(SimTime::from_ticks(200_000_000))
            .with_arrival(Arrival::OpenAggregated {
                mean: 2_000_000,
                dist: ArrivalDist::Poisson,
            })
            .with_workload(
                WorkloadSpec::default()
                    .with_items(256)
                    .with_read_ratio(0.0)
                    .with_txns_per_client(txns),
            ));
        assert_eq!(report.ops_unanswered, 0, "{}", technique.name());
        report.payload
    };
    for technique in PAYLOAD_TECHNIQUES {
        let (short, long) = (open(technique, 5), open(technique, 20));
        let name = technique.name();
        assert!(long.interned >= 4 * short.interned, "{name}: not 4× longer");
        assert!(
            short.compactions > 0,
            "{name}: the short run never compacted"
        );
        assert_eq!(
            short.record_capacity, long.record_capacity,
            "{name}: column capacity grew with the run"
        );
        for p in [short, long] {
            assert!(
                p.spans_resident < 2 * PayloadArena::COMPACT_EVERY,
                "{name}: {} spans resident",
                p.spans_resident
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary seeds, populations and read mixes: no span is read after
    /// its retirement (the run would panic) and none outlives the run.
    #[test]
    fn spans_live_exactly_as_long_as_their_readers(
        seed in 0u64..1_000_000,
        clients in 1u32..4,
        read_pct in 0u32..=80,
    ) {
        for technique in PAYLOAD_TECHNIQUES {
            let cfg = base_cfg(technique, seed, clients).with_workload(
                WorkloadSpec::default()
                    .with_items(24)
                    .with_read_ratio(f64::from(read_pct) / 100.0)
                    .with_txns_per_client(5)
                    .with_think_time(SimDuration::from_ticks(200)),
            );
            let label = format!("{technique:?} seed={seed} c={clients} r={read_pct}");
            let report = try_run(&cfg);
            prop_assert!(report.is_ok(), "{}: {:?}", label, report.err());
            let report = report.expect("checked");
            prop_assert_eq!(report.ops_unanswered, 0, "{}: unanswered", &label);
            prop_assert_eq!(
                report.payload.interned,
                report.payload.retired,
                "{}: spans leaked",
                &label
            );
        }
    }
}

#[test]
fn an_outage_disarms_retirement_and_the_run_stays_green() {
    // A recovering replica may skip releases and a rejoin refill may
    // re-read old handles, so fault runs keep every span readable.
    let plan = FaultPlan::new().outage_at(
        SimTime::from_ticks(5_000),
        NodeId::new(2),
        SimDuration::from_ticks(20_000),
    );
    for technique in PAYLOAD_TECHNIQUES {
        let name = technique.name();
        let report = run(&base_cfg(technique, 23, 2)
            .with_retry_after(SimDuration::from_ticks(4_000))
            .with_faults(plan.clone()));
        assert_eq!(report.ops_unanswered, 0, "{name}: unanswered operations");
        assert!(report.converged(), "{name}: replicas diverged");
        assert!(report.payload.interned > 0, "{name}: shipped nothing");
        assert_eq!(
            report.payload.retired, 0,
            "{name}: retired under a fault plan"
        );
    }
}

#[test]
fn groups_above_the_64th_site_retire_their_spans() {
    // 96 servers: two thirds of the groups sit above site 63.
    for technique in PAYLOAD_TECHNIQUES {
        let report = run(&RunConfig::new(technique)
            .with_servers(3)
            .with_clients(32)
            .with_seed(31)
            .with_trace(false)
            .with_workload(
                WorkloadSpec::default()
                    .with_items(1_024)
                    .with_read_ratio(0.0)
                    .with_txns_per_client(20)
                    .with_shards(32),
            ));
        assert_fully_retired(&report, technique.name());
        assert!(report.converged(), "{}: diverged", technique.name());
    }
}
