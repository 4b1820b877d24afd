//! # repl-bench — the performance study the paper promised
//!
//! "Presently, we are planning a performance study of the different
//! approaches, taking into account different workloads and failures
//! assumptions." — Wiesmann et al., ICDCS 2000, Section 6.
//!
//! This crate *is* that study, over the reproduction's simulator. Each
//! experiment is one [`Study`] declaration — labelled rows of runs and
//! the columns folded from their reports — registered in [`studies`] and
//! shared by:
//!
//! * `cargo run --bin perfstudy` — prints every table (pinned by
//!   `tests/study_tables.rs`, which also holds EXPERIMENTS.md's quotes to
//!   them),
//! * `cargo run --bin figures` — regenerates the paper's figures,
//! * `tests/determinism.rs` — reruns the studies' cells serially and in
//!   parallel.
//!
//! Absolute numbers are simulator ticks (≈ µs at LAN latencies); the
//! *shapes* — who wins, by what factor, where the curves bend — are the
//! reproduction targets.

#![forbid(unsafe_code)]

use repl_core::protocols::common::{AbcastImpl, ExecutionMode};
use repl_core::protocols::lazy_ue::ReconcileMode;
use repl_core::{
    Arrival, BatchConfig, DurabilityConfig, Propagation, RunConfig, RunReport, Technique,
};
use repl_db::DeadlockPolicy;
use repl_sim::{NodeId, SimDuration, SimTime};
use repl_workload::{ArrivalDist, FaultPlan, MembershipPlan, WorkloadSpec};

pub mod study;
pub mod sweep;

pub use study::{col, render, Column, Row, Study, StudyRow};

/// Every study of the evaluation with its canonical axes, in the order
/// `perfstudy` prints them. Adding a study is one constructor below and
/// one line here; the table, the `--<id>-only` flag, the golden-table
/// check and the sweep cells all follow from the declaration.
pub fn studies() -> Vec<Study> {
    vec![
        response_time(&DEGREES),
        throughput(&[1, 2, 4, 8, 16]),
        message_cost(&DEGREES),
        conflicts(&[0.0, 0.5, 1.0, 1.5]),
        failover(),
        availability(),
        eager_vs_lazy(&[1_000, 10_000, 50_000]),
        open_loop(&[2_000, 500, 120, 40]),
        abcast_impls(),
        deadlock(&[0.5, 1.0, 1.5]),
        lock_scope(&[0.2, 0.5, 0.9]),
        reconcile(),
        batching(&P8_CLIENTS, &P8_WINDOWS),
        recovery(&P9_DOWNTIMES, &P9_WRITE_RATIOS),
        kernel(&P10_KEYSPACES, &P10_CLIENTS),
        disaster(&P12_UPLOAD_LAGS),
        open_loop_scale(&P13_TECHNIQUES, &P13_CLIENTS, &P13_RATES),
        payload_plane(),
        elasticity(),
        sharding(),
    ]
}

/// Replication degrees swept by P1 and P3.
const DEGREES: [u32; 4] = [2, 4, 8, 16];

/// The batching windows (in ticks) swept by P8. 0 is the unbatched
/// baseline; 250 is sub-round-trip; 1000 spans several LAN round trips.
pub const P8_WINDOWS: [u64; 3] = [0, 250, 1_000];

/// The closed-loop client counts swept by P8: window amortization scales
/// with how many submissions share a window, so the same window is
/// measured from light load to high concurrency.
pub const P8_CLIENTS: [u32; 3] = [4, 16, 48];

/// The outage lengths (in ticks) swept by P9. Both land while clients are
/// still active, so the rejoined replica always sees post-recovery
/// traffic; the long outage misses roughly a third of the run.
const P9_DOWNTIMES: [u64; 2] = [15_000, 40_000];

/// The update fractions swept by P9: catch-up volume (and so MTTR and the
/// transfer strategy) scales with how much state churned while the victim
/// was down.
const P9_WRITE_RATIOS: [f64; 2] = [0.2, 1.0];

/// The keyspace sizes swept by P10: small enough to fit a cache line's
/// worth of lock slots, the dense sweet spot, and large enough that
/// hashed tables start paying for resizes.
const P10_KEYSPACES: [u64; 3] = [64, 1024, 65536];

/// The client counts swept by P10 (light and heavy load).
const P10_CLIENTS: [u32; 2] = [4, 16];

/// The durable-tier upload lags (in ticks) swept by P12. 0 is the
/// synchronous tier (nothing acknowledged can be lost); 2 000 leaves a
/// couple of rounds of commits in flight when the disaster hits; 20 000
/// leaves essentially everything since the start of the run exposed.
const P12_UPLOAD_LAGS: [u64; 3] = [0, 2_000, 20_000];

/// The techniques P13 prints: an ABCAST-ordered state machine, the eager
/// primary, and the cheapest lazy protocol — three points on the
/// coordination-cost spectrum.
const P13_TECHNIQUES: [Technique; 3] = [
    Technique::Active,
    Technique::EagerPrimary,
    Technique::LazyUpdateEverywhere,
];

/// The virtual client populations P13 prints.
const P13_CLIENTS: [u32; 2] = [1_000, 100_000];

/// The total offered rates (ops/s across the population) P13 prints.
const P13_RATES: [u64; 2] = [100_000, 200_000];

/// The baseline update workload used across the study.
pub fn update_workload(txns: u32) -> WorkloadSpec {
    WorkloadSpec::default()
        .with_items(128)
        .with_read_ratio(0.0)
        .with_txns_per_client(txns)
}

/// The untraced `servers` × `clients` run every study cell starts from.
fn lean(technique: Technique, servers: u32, clients: u32) -> RunConfig {
    RunConfig::new(technique)
        .with_servers(servers)
        .with_clients(clients)
        .with_trace(false)
}

/// Gives lazy techniques a short propagation window, so the traffic that
/// follows a recovery, restore or join settles inside the drain.
fn settle_lazy(cfg: RunConfig) -> RunConfig {
    if cfg.technique.info().propagation == Propagation::Lazy {
        cfg.with_propagation_delay(SimDuration::from_ticks(1_000))
    } else {
        cfg
    }
}

/// Latencies come from the open loop's streamed histogram, else from the
/// per-operation samples.
fn mean(report: &RunReport) -> String {
    let mean = (report.latency_hist.as_ref()).map_or(report.latencies.mean(), |h| h.mean());
    format!("{}t", mean.ticks())
}

fn percentile(report: &RunReport, q: f64) -> String {
    let p = match &report.latency_hist {
        Some(h) => h.percentile(q),
        None => report.latencies.clone().percentile(q),
    };
    format!("{}t", p.ticks())
}

fn msgs_per_op(report: &RunReport) -> String {
    format!("{:.1}", report.messages_per_op())
}

fn bytes_per_op(report: &RunReport) -> String {
    let ops = report.ops_completed.max(1) as f64;
    format!("{:.0}", report.messages.bytes_sent as f64 / ops)
}

fn opt_ticks(ticks: Option<u64>) -> String {
    ticks.map_or_else(|| "-".into(), |t| format!("{t}t"))
}

/// Throughput of the undisturbed run over the disturbed one.
fn dip(baseline: &RunReport, disturbed: &RunReport) -> String {
    let dip = baseline.throughput() / disturbed.throughput().max(f64::MIN_POSITIVE);
    format!("{dip:.2}x")
}

/// A technique × axis study (P1–P3): one row per technique, one run and
/// one column per axis value.
fn per_technique(
    id: &'static str,
    title: &'static str,
    (axis_name, axis): (&str, &[u32]),
    cfg: impl Fn(Technique, u32) -> RunConfig,
    value: fn(&RunReport) -> String,
) -> Study {
    let rows = Technique::ALL
        .iter()
        .map(|&t| {
            let runs: Vec<RunConfig> = axis.iter().map(|&v| cfg(t, v)).collect();
            StudyRow::new(t.name(), runs)
        })
        .collect();
    let columns = axis
        .iter()
        .enumerate()
        .map(|(i, &v)| col(format!("{axis_name}={v}"), move |r| value(&r[i])))
        .collect();
    Study::new(id, title, rows, columns)
}

/// P1 — response time per technique vs replication degree.
pub fn response_time(degrees: &[u32]) -> Study {
    per_technique(
        "P1",
        "mean response time vs replication degree",
        ("n", degrees),
        |technique, n| {
            lean(technique, n, 2)
                .with_seed(101)
                .with_workload(update_workload(12))
        },
        mean,
    )
}

/// P2 — closed-loop throughput per technique vs client count.
pub fn throughput(client_counts: &[u32]) -> Study {
    per_technique(
        "P2",
        "throughput vs clients (3 replicas)",
        ("c", client_counts),
        |technique, c| {
            lean(technique, 3, c)
                .with_seed(103)
                .with_workload(update_workload(10))
        },
        |r| format!("{:.0}/s", r.throughput()),
    )
}

/// P3 — messages and bytes per operation vs replication degree.
///
/// Uses long runs (80 transactions per client) so the failure detectors'
/// O(n²) background heartbeats amortize over real work; the residual
/// per-op cost of FD-based techniques still grows faster with n than the
/// pure protocol cost — an honest finding, recorded in EXPERIMENTS.md.
pub fn message_cost(degrees: &[u32]) -> Study {
    per_technique(
        "P3",
        "messages per operation vs replication degree",
        ("n", degrees),
        |technique, n| {
            lean(technique, n, 2)
                .with_seed(107)
                .with_workload(update_workload(80))
        },
        msgs_per_op,
    )
}

/// P4 — conflict behaviour vs access skew: aborts (certification),
/// wounds (distributed locking) and reconciliations (lazy UE).
pub fn conflicts(skews: &[f64]) -> Study {
    let cfg = |technique: Technique, skew: f64| {
        lean(technique, 3, 4).with_seed(109).with_workload(
            WorkloadSpec::default()
                .with_items(32)
                .with_read_ratio(0.5)
                .with_ops_per_txn(2)
                .with_skew(skew)
                .with_txns_per_client(10)
                .with_think_time(SimDuration::from_ticks(50)),
        )
    };
    let rows = skews
        .iter()
        .map(|&skew| {
            let runs = [
                cfg(Technique::Certification, skew),
                cfg(Technique::EagerUpdateEverywhereLocking, skew),
                cfg(Technique::LazyUpdateEverywhere, skew)
                    .with_propagation_delay(SimDuration::from_ticks(2_000)),
            ];
            StudyRow::new(format!("zipf {skew:.1}"), runs)
        })
        .collect();
    let columns = vec![
        col("cert abort%", |r| {
            format!("{:.1}", r[0].abort_rate() * 100.0)
        }),
        col("lock wounds", |r| r[1].wounds.to_string()),
        col("lock mean", |r| mean(&r[1])),
        col("lazy reconciled", |r| r[2].reconciliations.to_string()),
    ];
    Study::new(
        "P4",
        "conflicts vs access skew (4 clients, 32 items, rmw txns)",
        rows,
        columns,
    )
}

/// The P5/P5b cell: five replicas whose rank-0 server (the primary,
/// where there is one) crashes mid-run. Active and Semi-Active order
/// over consensus ABCAST, which survives the crash of its rank 0.
fn rank0_crash(technique: Technique) -> RunConfig {
    let cfg = lean(technique, 5, 4)
        .with_seed(113)
        .with_faults(FaultPlan::new().crash_at(SimTime::from_ticks(3_000), NodeId::new(0)))
        .with_workload(update_workload(10));
    match technique {
        Technique::Active => cfg.with_abcast(AbcastImpl::Consensus),
        Technique::SemiActive => cfg
            .with_abcast(AbcastImpl::Consensus)
            .with_exec(ExecutionMode::NonDeterministic),
        _ => cfg,
    }
}

/// P5 — failover: crash the rank-0 server mid-run.
///
/// The "unaffected client" column is the paper's failure-transparency
/// axis made visible: under active-style techniques a client attached to
/// a *surviving* replica never notices the crash, while primary-copy
/// techniques stall every client (they all depend on the dead primary).
pub fn failover() -> Study {
    let rows = [
        Technique::Active,
        Technique::SemiActive,
        Technique::SemiPassive,
        Technique::Passive,
        Technique::EagerPrimary,
    ]
    .into_iter()
    .map(|technique| {
        let crashed = rank0_crash(technique);
        let baseline = crashed.clone().with_faults(FaultPlan::new());
        StudyRow::new(technique.name(), [crashed, baseline])
    })
    .collect();
    // Worst latency per client; the best-off client shows whether the
    // technique kept *anyone* fully unaffected.
    fn unaffected(report: &RunReport) -> String {
        let mut per_client_worst = std::collections::HashMap::new();
        for (c, rec) in &report.records {
            if let Some(l) = rec.latency() {
                let e = per_client_worst.entry(*c).or_insert(0);
                *e = l.ticks().max(*e);
            }
        }
        let best = per_client_worst.values().copied().min().unwrap_or(0);
        format!("{best}t")
    }
    let columns = vec![
        col("mean", |r| mean(&r[0])),
        col("worst", |r| percentile(&r[0], 1.0)),
        col("unaffected client", |r| unaffected(&r[0])),
        col("worst (no crash)", |r| percentile(&r[1], 1.0)),
        col("retries", |r| r[0].client_retries.to_string()),
        col("unanswered", |r| r[0].ops_unanswered.to_string()),
    ];
    Study::new(
        "P5",
        "failover: rank-0 server crashes mid-run (5 replicas)",
        rows,
        columns,
    )
}

/// P5b — availability under a primary crash, via the [`FaultPlan`]
/// nemesis and the runner's availability metrics: failover latency
/// (first crash → next committed response anywhere), the worst
/// request→response gap any client saw, and the best-off client's gap
/// (the failure-transparency axis again, now including stalled
/// operations rather than only answered ones).
pub fn availability() -> Study {
    let rows = [
        Technique::Passive,
        Technique::SemiPassive,
        Technique::EagerPrimary,
    ]
    .into_iter()
    .map(|technique| StudyRow::new(technique.name(), [rank0_crash(technique)]))
    .collect();
    let columns = vec![
        col("failover", |r| {
            opt_ticks(r[0].availability.failover_latency.map(|d| d.ticks()))
        }),
        col("worst gap", |r| {
            format!("{}t", r[0].availability.worst_gap().ticks())
        }),
        col("best client gap", |r| {
            format!("{}t", r[0].availability.best_client_gap().ticks())
        }),
        col("faults", |r| r[0].availability.faults_injected.to_string()),
        col("retries", |r| r[0].client_retries.to_string()),
        col("unanswered", |r| r[0].ops_unanswered.to_string()),
    ];
    Study::new(
        "P5b",
        "availability under a primary crash (failover latency, unavailability windows)",
        rows,
        columns,
    )
}

/// P6 — eager vs lazy: response time against staleness as the
/// propagation window widens.
pub fn eager_vs_lazy(delays: &[u64]) -> Study {
    let cfg = |technique: Technique| {
        lean(technique, 3, 3).with_seed(127).with_workload(
            WorkloadSpec::default()
                .with_items(16)
                .with_read_ratio(0.6)
                .with_skew(0.5)
                .with_txns_per_client(12)
                .with_think_time(SimDuration::from_ticks(500)),
        )
    };
    let mut rows = Vec::new();
    for technique in [
        Technique::EagerPrimary,
        Technique::EagerUpdateEverywhereAbcast,
    ] {
        rows.push(StudyRow::new(technique.name(), [cfg(technique)]));
    }
    for &delay in delays {
        for technique in [Technique::LazyPrimary, Technique::LazyUpdateEverywhere] {
            rows.push(StudyRow::new(
                format!("{} (delay {delay}t)", technique.name()),
                [cfg(technique).with_propagation_delay(SimDuration::from_ticks(delay))],
            ));
        }
    }
    let columns = vec![
        col("mean", |r| mean(&r[0])),
        col("p99", |r| percentile(&r[0], 0.99)),
        col("stale reads", |r| r[0].stale_reads().len().to_string()),
        col("reconciled", |r| r[0].reconciliations.to_string()),
    ];
    Study::new(
        "P6",
        "eager vs lazy: latency against staleness",
        rows,
        columns,
    )
}

/// P7 — open-loop saturation: Poisson arrivals at increasing offered
/// load. Closed-loop clients self-throttle; open-loop clients expose the
/// point where a technique's pipeline can no longer keep up (operations
/// left unanswered at the deadline, latency blow-up); one Poisson stream
/// per server group stands for its clients ([`Arrival::OpenAggregated`]).
pub fn open_loop(mean_interarrivals: &[u64]) -> Study {
    let mut rows = Vec::new();
    for technique in [
        Technique::Active,
        Technique::SemiPassive,
        Technique::EagerUpdateEverywhereLocking,
        Technique::LazyUpdateEverywhere,
    ] {
        for &gap in mean_interarrivals {
            let offered = 1_000_000.0 * 4.0 / gap as f64; // ops/s across clients
            rows.push(StudyRow::new(
                format!("{} @ {offered:.0}/s", technique.name()),
                [lean(technique, 3, 4)
                    .with_seed(151)
                    .with_arrival(Arrival::OpenAggregated {
                        mean: gap,
                        dist: ArrivalDist::Poisson,
                    })
                    .with_max_time(SimTime::from_ticks(400_000))
                    .with_workload(update_workload(40))],
            ));
        }
    }
    let columns = vec![
        col("completed", |r| r[0].ops_completed.to_string()),
        col("unanswered", |r| r[0].ops_unanswered.to_string()),
        col("mean", |r| mean(&r[0])),
        col("p99", |r| percentile(&r[0], 0.99)),
    ];
    Study::new(
        "P7",
        "open-loop saturation (4 Poisson clients, 3 replicas)",
        rows,
        columns,
    )
}

/// A2 — sequencer- vs consensus-based ABCAST underneath the same
/// technique.
pub fn abcast_impls() -> Study {
    let mut rows = Vec::new();
    for technique in [
        Technique::Active,
        Technique::EagerUpdateEverywhereAbcast,
        Technique::Certification,
    ] {
        for (label, which) in [
            ("sequencer", AbcastImpl::Sequencer),
            ("consensus", AbcastImpl::Consensus),
        ] {
            rows.push(StudyRow::new(
                format!("{} / {label}", technique.name()),
                [lean(technique, 4, 2)
                    .with_seed(131)
                    .with_abcast(which)
                    .with_workload(update_workload(10))],
            ));
        }
    }
    let columns = vec![
        col("mean", |r| mean(&r[0])),
        col("msgs/op", |r| msgs_per_op(&r[0])),
        col("bytes/op", |r| bytes_per_op(&r[0])),
    ];
    Study::new("A2", "ABCAST implementations", rows, columns)
}

/// A3 — wound-wait vs distributed deadlock detection under rising
/// contention.
pub fn deadlock(skews: &[f64]) -> Study {
    let mut rows = Vec::new();
    for &skew in skews {
        for (label, policy) in [
            ("wound-wait", DeadlockPolicy::WoundWait),
            ("detection", DeadlockPolicy::Detect),
        ] {
            rows.push(StudyRow::new(
                format!("zipf {skew:.1} / {label}"),
                [lean(Technique::EagerUpdateEverywhereLocking, 3, 3)
                    .with_seed(137)
                    .with_deadlock(policy)
                    .with_workload(
                        WorkloadSpec::default()
                            .with_items(8)
                            .with_read_ratio(0.0)
                            .with_ops_per_txn(2)
                            .with_skew(skew)
                            .with_txns_per_client(6)
                            .with_think_time(SimDuration::from_ticks(100)),
                    )],
            ));
        }
    }
    let columns = vec![
        col("duration", |r| format!("{}t", r[0].duration.ticks())),
        col("mean", |r| mean(&r[0])),
        col("wounds", |r| r[0].wounds.to_string()),
        col("server aborts", |r| r[0].server_aborts.to_string()),
        col("unanswered", |r| r[0].ops_unanswered.to_string()),
    ];
    Study::new("A3", "deadlock handling under contention", rows, columns)
}

/// A4 — read-one/write-all vs all-site read locks (paper §5.4.1's quorum
/// note), across read ratios.
pub fn lock_scope(read_ratios: &[f64]) -> Study {
    let mut rows = Vec::new();
    for &ratio in read_ratios {
        for (label, rowa) in [("all-site", false), ("read-one/write-all", true)] {
            rows.push(StudyRow::new(
                format!("{:.0}% reads / {label}", ratio * 100.0),
                [lean(Technique::EagerUpdateEverywhereLocking, 4, 3)
                    .with_seed(139)
                    .with_rowa(rowa)
                    .with_workload(
                        WorkloadSpec::default()
                            .with_items(64)
                            .with_read_ratio(ratio)
                            .with_txns_per_client(12),
                    )],
            ));
        }
    }
    let columns = vec![
        col("mean", |r| mean(&r[0])),
        col("msgs/op", |r| msgs_per_op(&r[0])),
        col("1SR", |r| {
            r[0].check_one_copy_serializable().is_ok().to_string()
        }),
    ];
    Study::new(
        "A4",
        "lock scope: all-site reads vs read-one/write-all (§5.4.1)",
        rows,
        columns,
    )
}

/// A5 — lazy reconciliation rules: per-object LWW vs ABCAST-determined
/// after-commit order (paper §4.6), under hot-key conflicts.
pub fn reconcile() -> Study {
    let rows = [
        ("last-writer-wins", ReconcileMode::Lww),
        ("abcast order", ReconcileMode::AbcastOrder),
    ]
    .into_iter()
    .map(|(label, mode)| {
        let cfg = lean(Technique::LazyUpdateEverywhere, 4, 4)
            .with_seed(149)
            .with_reconcile(mode)
            .with_propagation_delay(SimDuration::from_ticks(2_000))
            .with_workload(
                WorkloadSpec::default()
                    .with_items(4)
                    .with_read_ratio(0.0)
                    .with_skew(1.2)
                    .with_txns_per_client(8),
            );
        StudyRow::new(label, [cfg])
    })
    .collect();
    let columns = vec![
        col("mean", |r| mean(&r[0])),
        col("msgs/op", |r| msgs_per_op(&r[0])),
        col("reconciled", |r| r[0].reconciliations.to_string()),
        col("converged", |r| r[0].converged().to_string()),
    ];
    Study::new(
        "A5",
        "lazy reconciliation: LWW vs ABCAST order (§4.6)",
        rows,
        columns,
    )
}

/// P8 — end-to-end batching: throughput, latency and message cost as the
/// batching window widens (0 = the unbatched baseline; same seeds, same
/// workload, so window 0 reproduces the P2-style numbers exactly).
/// `coord/txn` counts server↔server ordering/agreement messages — the
/// share batching can actually amortize; `msgs/txn` additionally carries
/// the fixed client traffic (one invoke plus one reply per answering
/// replica), which no ordering-layer change can remove.
///
/// The matrix: every abcast-based technique × both ABCAST
/// implementations × each closed-loop client count × each window, plus
/// the eager primary's batched decision round (its own decision
/// multicast, not an ordering layer), all on 3 replicas. Window
/// amortization scales with the number of submissions that share a
/// window, which is why the client count is the second sweep axis; the
/// window axis is innermost, so each series starts at its own baseline.
pub fn batching(clients: &[u32], windows: &[u64]) -> Study {
    let mut series: Vec<(Technique, Option<AbcastImpl>)> = Vec::new();
    for technique in [
        Technique::Active,
        Technique::SemiActive,
        Technique::EagerUpdateEverywhereAbcast,
        Technique::Certification,
    ] {
        for which in [AbcastImpl::Sequencer, AbcastImpl::Consensus] {
            series.push((technique, Some(which)));
        }
    }
    series.push((Technique::EagerPrimary, None));
    let mut rows = Vec::new();
    for (technique, abcast) in series {
        let tag = match abcast {
            Some(AbcastImpl::Sequencer) => " / seq",
            Some(AbcastImpl::Consensus) => " / cons",
            None => "",
        };
        for &c in clients {
            for &w in windows {
                let batch = match w {
                    0 => BatchConfig::disabled(),
                    _ => BatchConfig::window(w),
                };
                let mut cfg = lean(technique, 3, c)
                    .with_seed(157)
                    .with_batching(batch)
                    .with_workload(update_workload(8));
                if let Some(which) = abcast {
                    cfg = cfg.with_abcast(which);
                }
                rows.push(StudyRow::new(
                    format!("{}{tag} / c={c} / w={w}", technique.name()),
                    [cfg],
                ));
            }
        }
    }
    let columns = vec![
        col("thru", |r| format!("{:.0}/s", r[0].throughput())),
        col("p50", |r| percentile(&r[0], 0.5)),
        col("p99", |r| percentile(&r[0], 0.99)),
        col("msgs/txn", |r| msgs_per_op(&r[0])),
        col("coord/txn", |r| {
            format!("{:.2}", r[0].coordination_messages_per_op())
        }),
    ];
    Study::new(
        "P8",
        "end-to-end batching (3 replicas, clients × window in ticks)",
        rows,
        columns,
    )
}

/// The transfer strategies a faulted run actually used, as a short tag.
fn transfer_strategy_tag(report: &RunReport) -> &'static str {
    let recoveries = &report.availability.recoveries;
    let suffix: u64 = recoveries.iter().map(|r| r.log_suffix_transfers).sum();
    let snap: u64 = recoveries.iter().map(|r| r.snapshot_transfers).sum();
    match (suffix > 0, snap > 0) {
        (true, true) => "both",
        (true, false) => "suffix",
        (false, true) => "snapshot",
        (false, false) => "-",
    }
}

/// The P9/P12/P15 load: paced closed-loop transactions over 64 items,
/// with the retry timeout tightened so runs are dominated by the
/// disturbance rather than by client timeouts.
fn paced(
    technique: Technique,
    servers: u32,
    clients: u32,
    write_ratio: f64,
    txns: u32,
) -> RunConfig {
    settle_lazy(
        lean(technique, servers, clients)
            .with_retry_after(SimDuration::from_ticks(4_000))
            .with_workload(
                WorkloadSpec::default()
                    .with_items(64)
                    .with_read_ratio(1.0 - write_ratio)
                    .with_txns_per_client(txns)
                    .with_think_time(SimDuration::from_ticks(3_000)),
            ),
    )
}

/// P9 — crash recovery: MTTR (rejoin → fully caught up), catch-up bytes
/// on the wire, the transfer strategy the donor selected, and the
/// throughput dip against the fault-free baseline, per technique ×
/// write ratio × outage length. The paper stops at "different failure
/// assumptions"; this table is the recovery half of that study.
///
/// Each row pairs the run with one outage injected at tick 5 000 with
/// the identical fault-free run. The victim is replica 2, the tail of
/// the 3-replica group, so primaries and sequencers keep running and the
/// outage measures *recovery*, not failover.
pub fn recovery(downtimes: &[u64], write_ratios: &[f64]) -> Study {
    let mut rows = Vec::new();
    for technique in Technique::ALL {
        for &write_ratio in write_ratios {
            for &downtime in downtimes {
                let baseline = paced(technique, 3, 3, write_ratio, 15).with_seed(163);
                let faulted = baseline.clone().with_faults(FaultPlan::new().outage_at(
                    SimTime::from_ticks(5_000),
                    NodeId::new(2),
                    SimDuration::from_ticks(downtime),
                ));
                rows.push(StudyRow::new(
                    format!(
                        "{} / down={downtime} / wr={write_ratio:.1}",
                        technique.name()
                    ),
                    [faulted, baseline],
                ));
            }
        }
    }
    let columns = vec![
        col("mttr", |r| opt_ticks(r[0].availability.mttr_ticks())),
        col("xfer", |r| {
            format!("{}B", r[0].availability.transfer_bytes())
        }),
        col("strategy", |r| transfer_strategy_tag(&r[0]).to_string()),
        col("thru dip", |r| dip(&r[1], &r[0])),
        col("retries", |r| r[0].client_retries.to_string()),
        col("unanswered", |r| r[0].ops_unanswered.to_string()),
    ];
    Study::new(
        "P9",
        "crash recovery (3 replicas, outage × write ratio, MTTR and catch-up)",
        rows,
        columns,
    )
}

/// The techniques whose servers exercise the db kernel's lock table or
/// certifier on every transaction — the ones keyspace scaling can move.
fn kernel_techniques() -> [Technique; 4] {
    [
        Technique::EagerPrimary,
        Technique::EagerUpdateEverywhereLocking,
        Technique::EagerUpdateEverywhereAbcast,
        Technique::Certification,
    ]
}

/// P10 — kernel scaling: throughput, latency, message cost and server
/// aborts per kernel-bound technique × keyspace × clients. The workload
/// is update-heavy (80% writes) so lock and certification traffic
/// dominates, and uniform so the keyspace axis scales the *table*, not
/// the conflict rate. All printed values are simulator-deterministic;
/// the host cost of the kernel structures is `benchmark/`'s `db.*`
/// drivers.
pub fn kernel(keyspaces: &[u64], clients: &[u32]) -> Study {
    let mut rows = Vec::new();
    for technique in kernel_techniques() {
        for &keyspace in keyspaces {
            for &c in clients {
                rows.push(StudyRow::new(
                    format!("{} / k={keyspace} / c={c}", technique.name()),
                    [lean(technique, 3, c).with_seed(211).with_workload(
                        WorkloadSpec::default()
                            .with_items(keyspace)
                            .with_read_ratio(0.2)
                            .with_txns_per_client(20),
                    )],
                ));
            }
        }
    }
    let columns = vec![
        col("thru", |r| format!("{:.0}/s", r[0].throughput())),
        col("p50", |r| percentile(&r[0], 0.5)),
        col("p99", |r| percentile(&r[0], 0.99)),
        col("msgs/txn", |r| msgs_per_op(&r[0])),
        col("aborts", |r| r[0].server_aborts.to_string()),
    ];
    Study::new(
        "P10",
        "kernel scaling (3 replicas, technique × keyspace × clients)",
        rows,
        columns,
    )
}

/// P12 — disaster recovery over the durable log tier: the realised
/// data-loss window (acknowledged commits the wipe erased before they
/// were durable), restore volume and restore deafness, rejoin MTTR, and
/// the no-silent-loss oracle, per technique × upload lag. At lag 0 the
/// tier is synchronous and the loss column must read 0 everywhere; the
/// loss grows with the lag while the oracle stays green — every erased
/// acknowledgement is claimed by the accounting, never silent.
///
/// Each row pairs the run hit by one volume loss (the victim's WAL and
/// store are destroyed, not merely halted) with the identical fault-free
/// run. As in P9 the victim is the tail replica, so the study measures
/// restore cost rather than failover; it is wiped at tick 5 000 and
/// brought back to restore 15 000 ticks later. The upload lag is the
/// exposure knob: the wider it is, the more of the acknowledged suffix
/// an ill-timed disaster erases.
pub fn disaster(upload_lags: &[u64]) -> Study {
    let mut rows = Vec::new();
    for technique in Technique::ALL {
        for &lag in upload_lags {
            let baseline = paced(technique, 3, 3, 1.0, 15)
                .with_seed(167)
                .with_durability(DurabilityConfig::with_upload_lag(lag));
            let faulted = baseline.clone().with_faults(FaultPlan::new().disaster_at(
                SimTime::from_ticks(5_000),
                NodeId::new(2),
                SimDuration::from_ticks(15_000),
            ));
            rows.push(StudyRow::new(
                format!("{} / lag={lag}", technique.name()),
                [faulted, baseline],
            ));
        }
    }
    let columns = vec![
        col("wipes", |r| r[0].durability.volume_wipes.to_string()),
        col("lost", |r| r[0].durability.lost_commits.to_string()),
        col("restores", |r| r[0].durability.restores.to_string()),
        col("restore B", |r| {
            format!("{}B", r[0].durability.restore_bytes)
        }),
        col("deaf", |r| format!("{}t", r[0].durability.restore_ticks)),
        col("mttr", |r| opt_ticks(r[0].availability.mttr_ticks())),
        col("no silent loss", |r| {
            r[0].check_no_silent_loss().is_ok().to_string()
        }),
        col("thru dip", |r| dip(&r[1], &r[0])),
        col("unanswered", |r| r[0].ops_unanswered.to_string()),
    ];
    Study::new(
        "P12",
        "disaster recovery over the durable tier (3 replicas, technique × upload lag)",
        rows,
        columns,
    )
}

/// Total operations each P13 cell aims for. Populations below this
/// issue several transactions per client; a million clients issue one
/// each (the population itself is the load).
const P13_TARGET_OPS: u64 = 100_000;

/// P13 — the open-loop scale study: events processed, streaming-histogram
/// latency percentiles and the constant-memory footprint per technique ×
/// client population × total offered rate, through the aggregated
/// open-loop engine ([`Arrival::OpenAggregated`]). The client count is a
/// parameter, not an actor count — the same cell shape runs at 10³ and
/// 10⁶ clients. Latencies come from the [`repl_sim::LatencyHistogram`]
/// (bounded relative error, ~30 KiB regardless of operation count);
/// `peak-out` is the high-water mark of in-flight operations across
/// client groups.
pub fn open_loop_scale(
    techniques: &[Technique],
    client_counts: &[u32],
    rates_per_s: &[u64],
) -> Study {
    let mut rows = Vec::new();
    for &technique in techniques {
        for &clients in client_counts {
            for &rate in rates_per_s {
                let txns = (P13_TARGET_OPS / u64::from(clients.max(1))).max(1);
                let txns = u32::try_from(txns).expect("P13 budget fits u32");
                // Per-client gap in ticks (1 tick ≈ 1 µs): population
                // rate R ops/s means each of `clients` clients fires
                // every clients·10⁶/R ticks, so the *population's*
                // aggregate rate is `rate` regardless of its size.
                let mean = (u64::from(clients).saturating_mul(1_000_000) / rate.max(1)).max(1);
                rows.push(StudyRow::new(
                    format!("{} {clients}c @{}k/s", technique.name(), rate / 1_000),
                    [lean(technique, 3, clients)
                        .with_seed(163)
                        .with_arrival(Arrival::OpenAggregated {
                            mean,
                            dist: ArrivalDist::Poisson,
                        })
                        .with_max_time(SimTime::from_ticks(60_000_000))
                        .with_workload(
                            WorkloadSpec::default()
                                .with_items(4_096)
                                .with_read_ratio(0.5)
                                .with_txns_per_client(txns),
                        )],
                ));
            }
        }
    }
    fn hist(report: &RunReport) -> &repl_sim::LatencyHistogram {
        report
            .latency_hist
            .as_ref()
            .expect("aggregated runs stream a histogram")
    }
    let columns = vec![
        col("ops", |r| r[0].ops_completed.to_string()),
        col("unanswered", |r| r[0].ops_unanswered.to_string()),
        col("events", |r| r[0].messages.events_processed.to_string()),
        col("p50", |r| percentile(&r[0], 0.50)),
        col("p99", |r| percentile(&r[0], 0.99)),
        col("peak-out", |r| r[0].peak_outstanding.to_string()),
        col("hist KiB", |r| {
            (hist(&r[0]).memory_bytes() / 1024).to_string()
        }),
    ];
    Study::new(
        "P13",
        "open-loop scale (3 replicas, technique × clients × total offered rate)",
        rows,
        columns,
    )
}

/// The run configuration of one P14 cell: multi-operation update
/// transactions so every commit ships a real multi-record writeset.
fn payload_plane_cfg(technique: Technique) -> RunConfig {
    settle_lazy(
        RunConfig::new(technique)
            .with_servers(3)
            .with_clients(4)
            .with_seed(171)
            .with_trace(true)
            .with_workload(
                WorkloadSpec::default()
                    .with_items(64)
                    .with_read_ratio(0.0)
                    .with_ops_per_txn(4)
                    .with_txns_per_client(10)
                    .with_think_time(SimDuration::from_ticks(200)),
            ),
    )
}

/// P14 — the payload-plane study: per writeset-shipping technique, what
/// shipping costs on the wire (handles are charged at the full logical
/// size of the writeset they stand for) next to the arena's own
/// counters — spans interned, retired, and still resident at the end of
/// the run. A fault-free row must show `interned == retired`.
///
/// The four techniques left out ship full transactions or decisions, not
/// writesets, and never touch the arena.
pub fn payload_plane() -> Study {
    let rows = [
        Technique::Passive,
        Technique::SemiPassive,
        Technique::EagerPrimary,
        Technique::LazyPrimary,
        Technique::LazyUpdateEverywhere,
        Technique::Certification,
    ]
    .into_iter()
    .map(|t| StudyRow::new(t.name(), [payload_plane_cfg(t)]))
    .collect();
    let columns = vec![
        col("txns", |r| r[0].ops_completed.to_string()),
        col("mean", |r| mean(&r[0])),
        col("msgs/txn", |r| msgs_per_op(&r[0])),
        col("B/txn", |r| bytes_per_op(&r[0])),
        col("interned", |r| r[0].payload.interned.to_string()),
        col("retired", |r| r[0].payload.retired.to_string()),
        col("resident", |r| r[0].payload.spans_resident.to_string()),
    ];
    Study::new(
        "P14",
        "payload plane (3 replicas, writesets shipped as arena handles)",
        rows,
        columns,
    )
}

/// Initial replica count of every P15 cell.
pub const P15_INITIAL: u32 = 3;

/// Peak replica count the P15 membership plan scales to.
pub const P15_PEAK: u32 = 7;

/// The P15 membership plan: 3 → 7 → 3. Joins are staggered so each
/// admission (view change + state transfer) completes before the next
/// starts; the drains unwind the group in join order once the run is
/// deep into steady state.
fn elasticity_plan() -> MembershipPlan {
    let mut plan = MembershipPlan::new();
    for (i, at) in [6_000u64, 12_000, 18_000, 24_000].into_iter().enumerate() {
        plan = plan.join_at(SimTime::from_ticks(at), NodeId::new(P15_INITIAL + i as u32));
    }
    for (i, at) in [45_000u64, 50_000, 55_000, 60_000].into_iter().enumerate() {
        plan = plan.drain_at(SimTime::from_ticks(at), NodeId::new(P15_INITIAL + i as u32));
    }
    plan
}

/// The joiner-side accounting of a P15 elastic run: mean join time
/// (spawn → state transfer installed) across the four cold joiners, the
/// total state shipped to them, and how many of them completed.
pub fn joiner_accounting(report: &RunReport) -> (Option<u64>, u64, usize) {
    let joiners: Vec<_> = report
        .availability
        .recoveries
        .iter()
        .filter(|r| r.site >= P15_INITIAL)
        .collect();
    let done: Vec<u64> = joiners.iter().filter_map(|r| r.catch_up_ticks).collect();
    let mean = if done.is_empty() {
        None
    } else {
        Some(done.iter().sum::<u64>() / done.len() as u64)
    };
    let bytes = joiners.iter().map(|r| r.transfer_bytes).sum();
    (mean, bytes, done.len())
}

/// P15 — the elasticity study: per technique, the mean online-join time
/// and transfer volume of the four cold joiners, the traffic
/// disturbance the 3 → 7 → 3 cycle caused (worst request→response gap
/// any client saw, against the static baseline's gap, and the
/// throughput dip), and the steady-state response-time ratio of running
/// at the peak group size (static 7 vs static 3 — what the scale-out
/// costs per operation once the churn is over; the closed-loop load is
/// think-time-bound, so throughput alone would read flat). The
/// no-silent-loss oracle must stay green across every drain.
///
/// Each row runs the same update-only load three times: with the
/// membership plan (four cold joins, four graceful drains) and pinned at
/// the initial and at the peak replica count — the two static baselines
/// separate the *disturbance* of changing membership from the
/// *steady-state* cost of the larger group. The retry timeout is
/// tightened so decommission reroutes are picked up promptly, as in P9.
pub fn elasticity() -> Study {
    let rows = Technique::ALL
        .into_iter()
        .map(|technique| {
            let cfg = |servers: u32| paced(technique, servers, 4, 1.0, 25).with_seed(173);
            StudyRow::new(
                format!(
                    "{} / {P15_INITIAL}→{P15_PEAK}→{P15_INITIAL}",
                    technique.name()
                ),
                [
                    cfg(P15_INITIAL).with_membership(elasticity_plan()),
                    cfg(P15_INITIAL),
                    cfg(P15_PEAK),
                ],
            )
        })
        .collect();
    let columns = vec![
        col("joined", |r| format!("{}/4", joiner_accounting(&r[0]).2)),
        col("join", |r| opt_ticks(joiner_accounting(&r[0]).0)),
        col("xfer", |r| format!("{}B", joiner_accounting(&r[0]).1)),
        col("worst gap", |r| {
            format!("{}t", r[0].availability.worst_gap().ticks())
        }),
        col("base gap", |r| {
            format!("{}t", r[1].availability.worst_gap().ticks())
        }),
        col("thru dip", |r| dip(&r[1], &r[0])),
        col("steady lat 7/3", |r| {
            let initial = r[1].latencies.mean().ticks() as f64;
            let peak = r[2].latencies.mean().ticks() as f64;
            format!("{:.2}x", peak / initial.max(f64::MIN_POSITIVE))
        }),
        col("no silent loss", |r| {
            r[0].check_no_silent_loss().is_ok().to_string()
        }),
        col("unanswered", |r| r[0].ops_unanswered.to_string()),
    ];
    Study::new(
        "P15",
        "elasticity (3→7→3 mid-run per technique: join time, disturbance, steady gain)",
        rows,
        columns,
    )
}

/// Closed-loop clients per shard group in every P16 cell. Per-group
/// offered load is held constant, so the aggregate-throughput curve
/// measures the capacity each extra group adds (weak scaling) — the
/// ROADMAP's horizontal-scaling axis, not speedup at fixed load.
pub const P16_CLIENTS_PER_SHARD: u32 = 4;

/// Builds one P16 run: update-only transactions of two operations over
/// a keyspace wide enough for 16 shards, zero think time (the closed
/// loop saturates at the protocol's own latency), and
/// [`P16_CLIENTS_PER_SHARD`] clients per group.
pub fn sharding_cfg(technique: Technique, shards: u32, cross_ratio: f64) -> RunConfig {
    RunConfig::new(technique)
        .with_clients(P16_CLIENTS_PER_SHARD * shards)
        .with_seed(59)
        .with_trace(false)
        .with_workload(
            WorkloadSpec::default()
                .with_items(256)
                .with_read_ratio(0.0)
                .with_ops_per_txn(2)
                .with_txns_per_client(8)
                .with_think_time(SimDuration::ZERO)
                .with_shards(shards)
                .with_cross_shard_ratio(cross_ratio),
        )
}

/// P16 — the sharding study: per (technique, shard count, cross-shard
/// ratio), the aggregate throughput and its ratio to the same
/// technique's single-group cell, mean latency split into shard-local
/// and cross-shard operations, and the oracles (merged-history 1SR,
/// group convergence, nothing unanswered). Per-group load is constant
/// ([`P16_CLIENTS_PER_SHARD`] clients), so the throughput column reads
/// as capacity added by sharding.
///
/// The matrix: the three cross-shard-capable techniques (genuine
/// multicast for the ABCAST pair, 2PC delegation for eager UE locking)
/// plus one primary-copy representative for the ratio-0 scaling story,
/// over shards {1, 4, 16} at ratio 0; the cross-capable ones additionally
/// at 5 % and 20 % on the multi-shard counts (a single shard has no
/// second shard to cross into). Each row carries its technique's S=1,
/// ratio-0 run as the `vs S=1` denominator.
pub fn sharding() -> Study {
    let mut rows = Vec::new();
    for technique in [
        Technique::Active,
        Technique::EagerUpdateEverywhereAbcast,
        Technique::EagerUpdateEverywhereLocking,
        Technique::Passive,
    ] {
        let mut cells: Vec<(u32, f64)> = [1, 4, 16].map(|shards| (shards, 0.0)).to_vec();
        if technique != Technique::Passive {
            for shards in [4, 16] {
                cells.extend([0.05, 0.20].map(|ratio| (shards, ratio)));
            }
        }
        for (shards, ratio) in cells {
            rows.push(StudyRow::new(
                format!(
                    "{} / S={shards} / x={:.0}%",
                    technique.name(),
                    ratio * 100.0
                ),
                [
                    sharding_cfg(technique, shards, ratio),
                    sharding_cfg(technique, 1, 0.0),
                ],
            ));
        }
    }
    let columns = vec![
        col("servers", |r| r[0].servers.to_string()),
        col("clients", |r| r[0].clients.to_string()),
        col("thru", |r| format!("{:.1}/s", r[0].throughput())),
        col("vs S=1", |r| {
            let speedup = r[0].throughput() / r[1].throughput().max(f64::MIN_POSITIVE);
            format!("{speedup:.2}x")
        }),
        // S=1 cells run the unsharded path, which books latencies in the
        // plain per-run stats rather than the sharding split.
        col("local lat", |r| match r[0].sharding.sharded() {
            true => format!("{}t", r[0].sharding.single_latency.mean().ticks()),
            false => mean(&r[0]),
        }),
        col("cross lat", |r| match r[0].sharding.cross_shard_ops {
            0 => "-".into(),
            _ => format!("{}t", r[0].sharding.cross_latency.mean().ticks()),
        }),
        col("cross ops", |r| r[0].sharding.cross_shard_ops.to_string()),
        col("1SR", |r| {
            r[0].check_one_copy_serializable().is_ok().to_string()
        }),
        col("converged", |r| r[0].converged().to_string()),
        col("unanswered", |r| r[0].ops_unanswered.to_string()),
    ];
    Study::new(
        "P16",
        "sharding (shards × cross-shard ratio, constant per-group load)",
        rows,
        columns,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let row = |label: &str, x: &str, yy: &str| Row {
            label: label.into(),
            cells: vec![("x".into(), x.into()), ("yy".into(), yy.into())],
        };
        let rows = vec![row("a", "1", "long-value"), row("much-longer", "22", "3")];
        let s = render("T", &rows);
        assert!(s.contains("### T"));
        assert!(s.contains("much-longer"));
        assert!(s.contains("long-value"));
    }

    #[test]
    fn axis_headers_name_their_value() {
        // Regression: headers used to come from a five-entry lookup, so
        // any other degree printed as `n=?` and two of them collided.
        let study = response_time(&[3, 5]);
        let rows = study.table(2);
        assert_eq!(rows.len(), Technique::ALL.len());
        let names: Vec<&str> = rows[0].cells.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["n=3", "n=5"]);
        let s = render(&study.heading(), &rows);
        assert!(s.contains("n=3") && s.contains("n=5") && !s.contains('?'));
    }

    #[test]
    fn registry_ids_are_unique_and_every_row_has_a_run() {
        let all = studies();
        assert_eq!(all.len(), 20);
        for (i, s) in all.iter().enumerate() {
            assert!(all[..i].iter().all(|o| o.id != s.id), "duplicate {}", s.id);
            assert!(s.rows.iter().all(|r| !r.runs.is_empty()), "{}", s.id);
            let runs: usize = s.rows.iter().map(|r| r.runs.len()).sum();
            assert_eq!(s.sweep_cells().len(), runs, "{}", s.id);
        }
    }

    #[test]
    fn recovery_table_reports_finite_mttr_and_both_strategies() {
        let rows = recovery(&[15_000], &[1.0]).table(2);
        assert_eq!(rows.len(), Technique::ALL.len());
        for r in &rows {
            assert_ne!(r.get("mttr"), "-", "{}: no MTTR", r.label);
            assert_eq!(r.get("unanswered"), "0", "{}", r.label);
            assert_ne!(r.get("strategy"), "-", "{}: no transfer", r.label);
        }
        let tags: Vec<&str> = rows.iter().map(|r| r.get("strategy")).collect();
        let used = |t: &str| tags.iter().any(|&s| s == t || s == "both");
        assert!(used("suffix"), "no cell used a log suffix: {tags:?}");
        assert!(used("snapshot"), "no cell used a snapshot: {tags:?}");
    }

    #[test]
    fn kernel_table_covers_the_matrix() {
        let rows = kernel(&[64], &[2]).table(2);
        assert_eq!(rows.len(), kernel_techniques().len());
        for r in &rows {
            assert!(r.label.contains("k=64"), "{}", r.label);
        }
    }

    #[test]
    fn conflicts_table_rows_per_skew() {
        let rows = conflicts(&[0.0]).table(1);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cells.len(), 4);
    }
}
