//! # repl-bench — the performance study the paper promised
//!
//! "Presently, we are planning a performance study of the different
//! approaches, taking into account different workloads and failures
//! assumptions." — Wiesmann et al., ICDCS 2000, Section 6.
//!
//! This crate *is* that study, over the reproduction's simulator. Each
//! experiment is a pure function returning printable rows, shared by:
//!
//! * `cargo run --bin perfstudy` — prints every table (the artifact
//!   recorded in EXPERIMENTS.md),
//! * `cargo run --bin figures` — regenerates the paper's figures,
//! * `cargo bench` — Criterion benchmarks, one target per experiment.
//!
//! Absolute numbers are simulator ticks (≈ µs at LAN latencies); the
//! *shapes* — who wins, by what factor, where the curves bend — are the
//! reproduction targets.

use repl_core::protocols::common::{AbcastImpl, ExecutionMode};
use repl_core::{BatchConfig, DurabilityConfig, RunConfig, RunReport, Technique};
use repl_db::DeadlockPolicy;
use repl_sim::{NodeId, SimDuration, SimTime};
use repl_workload::{FaultPlan, MembershipPlan, WorkloadSpec};

pub mod kernel;
pub mod sweep;

pub use kernel::{
    kernel_cell_label, kernel_cells, kernel_table, kernel_techniques, lock_microcycle_secs,
    microcycle_keys, seed_lock_microcycle_secs, KernelCell, SeedLockManager, MICROCYCLE_OPS,
};
use sweep::sweep_reports;

/// One row of an experiment table: a label and named columns.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (technique, parameter value, …).
    pub label: String,
    /// `(column name, value)` pairs.
    pub cells: Vec<(&'static str, String)>,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>) -> Self {
        Row {
            label: label.into(),
            cells: Vec::new(),
        }
    }

    /// Adds a cell.
    pub fn cell(mut self, name: &'static str, value: impl std::fmt::Display) -> Self {
        self.cells.push((name, value.to_string()));
        self
    }
}

/// Renders rows as an aligned text table.
pub fn render(title: &str, rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "### {title}");
    if rows.is_empty() {
        let _ = writeln!(s, "(no rows)");
        return s;
    }
    let label_w = rows.iter().map(|r| r.label.len()).max().unwrap_or(5).max(5);
    let _ = write!(s, "{:<label_w$}", "");
    let mut col_w = Vec::new();
    for (name, _) in &rows[0].cells {
        let w = rows
            .iter()
            .flat_map(|r| r.cells.iter())
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.len())
            .max()
            .unwrap_or(0)
            .max(name.len());
        col_w.push(w);
        let _ = write!(s, "  {name:>w$}");
    }
    let _ = writeln!(s);
    for r in rows {
        let _ = write!(s, "{:<label_w$}", r.label);
        for ((_, v), w) in r.cells.iter().zip(&col_w) {
            let _ = write!(s, "  {v:>w$}");
        }
        let _ = writeln!(s);
    }
    s
}

/// The baseline update workload used across the study.
pub fn update_workload(txns: u32) -> WorkloadSpec {
    WorkloadSpec::default()
        .with_items(128)
        .with_read_ratio(0.0)
        .with_txns_per_client(txns)
}

fn p99(report: &RunReport) -> u64 {
    let mut l = report.latencies.clone();
    l.percentile(0.99).ticks()
}

fn worst(report: &RunReport) -> u64 {
    let mut l = report.latencies.clone();
    l.percentile(1.0).ticks()
}

/// The techniques included in the latency/throughput/message sweeps.
pub fn study_techniques() -> Vec<Technique> {
    Technique::ALL.to_vec()
}

/// P1 — response time per technique vs replication degree.
pub fn response_time_table(degrees: &[u32]) -> Vec<Row> {
    let techniques = study_techniques();
    let mut cfgs = Vec::new();
    for &technique in &techniques {
        for &n in degrees {
            cfgs.push(
                RunConfig::new(technique)
                    .with_servers(n)
                    .with_clients(2)
                    .with_seed(101)
                    .with_trace(false)
                    .with_workload(update_workload(12)),
            );
        }
    }
    let mut reports = sweep_reports(cfgs).into_iter();
    let mut rows = Vec::new();
    for technique in techniques {
        let mut row = Row::new(technique.name());
        for &n in degrees {
            let report = reports.next().expect("one report per sweep cell");
            let name: &'static str = degree_label(n);
            row = row.cell(name, format!("{}t", report.latencies.mean().ticks()));
        }
        rows.push(row);
    }
    rows
}

fn degree_label(n: u32) -> &'static str {
    match n {
        2 => "n=2",
        3 => "n=3",
        4 => "n=4",
        8 => "n=8",
        16 => "n=16",
        _ => "n=?",
    }
}

fn clients_label(n: u32) -> &'static str {
    match n {
        1 => "c=1",
        2 => "c=2",
        4 => "c=4",
        8 => "c=8",
        16 => "c=16",
        _ => "c=?",
    }
}

/// P2 — closed-loop throughput per technique vs client count.
pub fn throughput_table(client_counts: &[u32]) -> Vec<Row> {
    let techniques = study_techniques();
    let mut cfgs = Vec::new();
    for &technique in &techniques {
        for &c in client_counts {
            cfgs.push(
                RunConfig::new(technique)
                    .with_servers(3)
                    .with_clients(c)
                    .with_seed(103)
                    .with_trace(false)
                    .with_workload(update_workload(10)),
            );
        }
    }
    let mut reports = sweep_reports(cfgs).into_iter();
    let mut rows = Vec::new();
    for technique in techniques {
        let mut row = Row::new(technique.name());
        for &c in client_counts {
            let report = reports.next().expect("one report per sweep cell");
            row = row.cell(clients_label(c), format!("{:.0}/s", report.throughput()));
        }
        rows.push(row);
    }
    rows
}

/// P3 — messages and bytes per operation vs replication degree.
///
/// Uses long runs (80 transactions per client) so the failure detectors'
/// O(n²) background heartbeats amortize over real work; the residual
/// per-op cost of FD-based techniques still grows faster with n than the
/// pure protocol cost — an honest finding, recorded in EXPERIMENTS.md.
pub fn message_cost_table(degrees: &[u32]) -> Vec<Row> {
    let techniques = study_techniques();
    let mut cfgs = Vec::new();
    for &technique in &techniques {
        for &n in degrees {
            cfgs.push(
                RunConfig::new(technique)
                    .with_servers(n)
                    .with_clients(2)
                    .with_seed(107)
                    .with_trace(false)
                    .with_workload(update_workload(80)),
            );
        }
    }
    let mut reports = sweep_reports(cfgs).into_iter();
    let mut rows = Vec::new();
    for technique in techniques {
        let mut row = Row::new(technique.name());
        for &n in degrees {
            let report = reports.next().expect("one report per sweep cell");
            row = row.cell(degree_label(n), format!("{:.1}", report.messages_per_op()));
        }
        rows.push(row);
    }
    rows
}

/// P4 — conflict behaviour vs access skew: aborts (certification),
/// wounds (distributed locking) and reconciliations (lazy UE).
pub fn conflicts_table(skews: &[f64]) -> Vec<Row> {
    let contended = |skew: f64| {
        WorkloadSpec::default()
            .with_items(32)
            .with_read_ratio(0.5)
            .with_ops_per_txn(2)
            .with_skew(skew)
            .with_txns_per_client(10)
            .with_think_time(SimDuration::from_ticks(50))
    };
    let mut cfgs = Vec::new();
    for &skew in skews {
        cfgs.push(
            RunConfig::new(Technique::Certification)
                .with_servers(3)
                .with_clients(4)
                .with_seed(109)
                .with_trace(false)
                .with_workload(contended(skew)),
        );
        cfgs.push(
            RunConfig::new(Technique::EagerUpdateEverywhereLocking)
                .with_servers(3)
                .with_clients(4)
                .with_seed(109)
                .with_trace(false)
                .with_workload(contended(skew)),
        );
        cfgs.push(
            RunConfig::new(Technique::LazyUpdateEverywhere)
                .with_servers(3)
                .with_clients(4)
                .with_seed(109)
                .with_trace(false)
                .with_propagation_delay(SimDuration::from_ticks(2_000))
                .with_workload(contended(skew)),
        );
    }
    let mut reports = sweep_reports(cfgs).into_iter();
    let mut rows = Vec::new();
    for &skew in skews {
        let cert = reports.next().expect("one report per sweep cell");
        let lock = reports.next().expect("one report per sweep cell");
        let lazy = reports.next().expect("one report per sweep cell");
        rows.push(
            Row::new(format!("zipf {skew:.1}"))
                .cell("cert abort%", format!("{:.1}", cert.abort_rate() * 100.0))
                .cell("lock wounds", lock.wounds)
                .cell("lock mean", format!("{}t", lock.latencies.mean().ticks()))
                .cell("lazy reconciled", lazy.reconciliations),
        );
    }
    rows
}

/// P5 — failover: crash the rank-0 server mid-run.
///
/// The "unaffected client" column is the paper's failure-transparency
/// axis made visible: under active-style techniques a client attached to
/// a *surviving* replica never notices the crash, while primary-copy
/// techniques stall every client (they all depend on the dead primary).
pub fn failover_table() -> Vec<Row> {
    let crash = FaultPlan::new().crash_at(SimTime::from_ticks(3_000), NodeId::new(0));
    let techniques = [
        Technique::Active,
        Technique::SemiActive,
        Technique::SemiPassive,
        Technique::Passive,
        Technique::EagerPrimary,
    ];
    let mut cfgs = Vec::new();
    for technique in techniques {
        let mut cfg = RunConfig::new(technique)
            .with_servers(5)
            .with_clients(4)
            .with_seed(113)
            .with_trace(false)
            .with_abcast(AbcastImpl::Consensus)
            .with_faults(crash.clone())
            .with_workload(update_workload(10));
        if technique == Technique::SemiActive {
            cfg = cfg.with_exec(ExecutionMode::NonDeterministic);
        }
        let mut baseline = cfg.clone();
        baseline.faults = FaultPlan::new();
        cfgs.push(cfg);
        cfgs.push(baseline);
    }
    let mut reports = sweep_reports(cfgs).into_iter();
    let mut rows = Vec::new();
    for technique in techniques {
        let report = reports.next().expect("one report per sweep cell");
        let baseline = reports.next().expect("one report per sweep cell");
        // Worst latency per client; the best-off client shows whether the
        // technique kept *anyone* fully unaffected.
        let mut per_client_worst: std::collections::HashMap<u32, u64> =
            std::collections::HashMap::new();
        for (c, rec) in &report.records {
            if let Some(l) = rec.latency() {
                let e = per_client_worst.entry(*c).or_insert(0);
                *e = (*e).max(l.ticks());
            }
        }
        let unaffected = per_client_worst.values().copied().min().unwrap_or(0);
        rows.push(
            Row::new(technique.name())
                .cell("mean", format!("{}t", report.latencies.mean().ticks()))
                .cell("worst", format!("{}t", worst(&report)))
                .cell("unaffected client", format!("{unaffected}t"))
                .cell("worst (no crash)", format!("{}t", worst(&baseline)))
                .cell("retries", report.client_retries)
                .cell("unanswered", report.ops_unanswered),
        );
    }
    rows
}

/// P5b — availability under a primary crash, via the [`FaultPlan`]
/// nemesis and the runner's availability metrics: failover latency
/// (first crash → next committed response anywhere), the worst
/// request→response gap any client saw, and the best-off client's gap
/// (the failure-transparency axis again, now including stalled
/// operations rather than only answered ones).
pub fn availability_table() -> Vec<Row> {
    let plan = FaultPlan::new().crash_at(SimTime::from_ticks(3_000), NodeId::new(0));
    let techniques = [
        Technique::Passive,
        Technique::SemiPassive,
        Technique::EagerPrimary,
    ];
    let cfgs = techniques
        .iter()
        .map(|&technique| {
            RunConfig::new(technique)
                .with_servers(5)
                .with_clients(4)
                .with_seed(113)
                .with_trace(false)
                .with_abcast(AbcastImpl::Consensus)
                .with_faults(plan.clone())
                .with_workload(update_workload(10))
        })
        .collect();
    let mut rows = Vec::new();
    for (technique, report) in techniques.iter().zip(sweep_reports(cfgs)) {
        let a = &report.availability;
        let failover = match a.failover_latency {
            Some(d) => format!("{}t", d.ticks()),
            None => "-".into(),
        };
        rows.push(
            Row::new(technique.name())
                .cell("failover", failover)
                .cell("worst gap", format!("{}t", a.worst_gap().ticks()))
                .cell(
                    "best client gap",
                    format!("{}t", a.best_client_gap().ticks()),
                )
                .cell("faults", a.faults_injected)
                .cell("retries", report.client_retries)
                .cell("unanswered", report.ops_unanswered),
        );
    }
    rows
}

/// P6 — eager vs lazy: response time against staleness as the
/// propagation window widens.
pub fn eager_vs_lazy_table(delays: &[u64]) -> Vec<Row> {
    let workload = WorkloadSpec::default()
        .with_items(16)
        .with_read_ratio(0.6)
        .with_skew(0.5)
        .with_txns_per_client(12)
        .with_think_time(SimDuration::from_ticks(500));
    let eager = [
        Technique::EagerPrimary,
        Technique::EagerUpdateEverywhereAbcast,
    ];
    let lazy = [Technique::LazyPrimary, Technique::LazyUpdateEverywhere];
    let mut cfgs = Vec::new();
    let mut labels = Vec::new();
    for technique in eager {
        cfgs.push(
            RunConfig::new(technique)
                .with_servers(3)
                .with_clients(3)
                .with_seed(127)
                .with_trace(false)
                .with_workload(workload.clone()),
        );
        labels.push(technique.name().to_string());
    }
    for &delay in delays {
        for technique in lazy {
            cfgs.push(
                RunConfig::new(technique)
                    .with_servers(3)
                    .with_clients(3)
                    .with_seed(127)
                    .with_trace(false)
                    .with_propagation_delay(SimDuration::from_ticks(delay))
                    .with_workload(workload.clone()),
            );
            labels.push(format!("{} (delay {delay}t)", technique.name()));
        }
    }
    labels
        .into_iter()
        .zip(sweep_reports(cfgs))
        .map(|(label, report)| {
            Row::new(label)
                .cell("mean", format!("{}t", report.latencies.mean().ticks()))
                .cell("p99", format!("{}t", p99(&report)))
                .cell("stale reads", report.stale_reads().len())
                .cell("reconciled", report.reconciliations)
        })
        .collect()
}

/// A2 — sequencer- vs consensus-based ABCAST underneath the same
/// technique.
pub fn abcast_impls_table() -> Vec<Row> {
    let mut cfgs = Vec::new();
    let mut labels = Vec::new();
    for technique in [
        Technique::Active,
        Technique::EagerUpdateEverywhereAbcast,
        Technique::Certification,
    ] {
        for (label, which) in [
            ("sequencer", AbcastImpl::Sequencer),
            ("consensus", AbcastImpl::Consensus),
        ] {
            cfgs.push(
                RunConfig::new(technique)
                    .with_servers(4)
                    .with_clients(2)
                    .with_seed(131)
                    .with_trace(false)
                    .with_abcast(which)
                    .with_workload(update_workload(10)),
            );
            labels.push(format!("{} / {label}", technique.name()));
        }
    }
    let mut rows = Vec::new();
    for (label, report) in labels.into_iter().zip(sweep_reports(cfgs)) {
        rows.push(
            Row::new(label)
                .cell("mean", format!("{}t", report.latencies.mean().ticks()))
                .cell("msgs/op", format!("{:.1}", report.messages_per_op()))
                .cell(
                    "bytes/op",
                    format!(
                        "{:.0}",
                        report.messages.bytes_sent as f64 / report.ops_completed.max(1) as f64
                    ),
                ),
        );
    }
    rows
}

/// A3 — wound-wait vs distributed deadlock detection under rising
/// contention.
pub fn deadlock_table(skews: &[f64]) -> Vec<Row> {
    let contended = |skew: f64| {
        WorkloadSpec::default()
            .with_items(8)
            .with_read_ratio(0.0)
            .with_ops_per_txn(2)
            .with_skew(skew)
            .with_txns_per_client(6)
            .with_think_time(SimDuration::from_ticks(100))
    };
    let mut cfgs = Vec::new();
    let mut labels = Vec::new();
    for &skew in skews {
        for (label, policy) in [
            ("wound-wait", DeadlockPolicy::WoundWait),
            ("detection", DeadlockPolicy::Detect),
        ] {
            cfgs.push(
                RunConfig::new(Technique::EagerUpdateEverywhereLocking)
                    .with_servers(3)
                    .with_clients(3)
                    .with_seed(137)
                    .with_trace(false)
                    .with_deadlock(policy)
                    .with_workload(contended(skew)),
            );
            labels.push(format!("zipf {skew:.1} / {label}"));
        }
    }
    labels
        .into_iter()
        .zip(sweep_reports(cfgs))
        .map(|(label, report)| {
            Row::new(label)
                .cell("duration", format!("{}t", report.duration.ticks()))
                .cell("mean", format!("{}t", report.latencies.mean().ticks()))
                .cell("wounds", report.wounds)
                .cell("server aborts", report.server_aborts)
                .cell("unanswered", report.ops_unanswered)
        })
        .collect()
}

/// P7 — open-loop saturation: Poisson arrivals at increasing offered
/// load. Closed-loop clients self-throttle; open-loop clients expose the
/// point where a technique's pipeline can no longer keep up (operations
/// left unanswered at the deadline, latency blow-up).
pub fn open_loop_table(mean_interarrivals: &[u64]) -> Vec<Row> {
    use repl_core::Arrival;
    let mut cfgs = Vec::new();
    let mut labels = Vec::new();
    for technique in [
        Technique::Active,
        Technique::SemiPassive,
        Technique::EagerUpdateEverywhereLocking,
        Technique::LazyUpdateEverywhere,
    ] {
        for &mean in mean_interarrivals {
            cfgs.push(
                RunConfig::new(technique)
                    .with_servers(3)
                    .with_clients(4)
                    .with_seed(151)
                    .with_arrival(Arrival::Open(mean))
                    .with_trace(false)
                    .with_max_time(SimTime::from_ticks(400_000))
                    .with_workload(update_workload(40)),
            );
            let offered = 1_000_000.0 * 4.0 / mean as f64; // ops/s across clients
            labels.push(format!("{} @ {:.0}/s", technique.name(), offered));
        }
    }
    labels
        .into_iter()
        .zip(sweep_reports(cfgs))
        .map(|(label, report)| {
            Row::new(label)
                .cell("completed", report.ops_completed)
                .cell("unanswered", report.ops_unanswered)
                .cell("mean", format!("{}t", report.latencies.mean().ticks()))
                .cell("p99", format!("{}t", p99(&report)))
        })
        .collect()
}

/// A4 — read-one/write-all vs all-site read locks (paper §5.4.1's quorum
/// note), across read ratios.
pub fn lock_scope_table(read_ratios: &[f64]) -> Vec<Row> {
    let mut cfgs = Vec::new();
    let mut labels = Vec::new();
    for &ratio in read_ratios {
        for (label, rowa) in [("all-site", false), ("read-one/write-all", true)] {
            cfgs.push(
                RunConfig::new(Technique::EagerUpdateEverywhereLocking)
                    .with_servers(4)
                    .with_clients(3)
                    .with_seed(139)
                    .with_rowa(rowa)
                    .with_trace(false)
                    .with_workload(
                        WorkloadSpec::default()
                            .with_items(64)
                            .with_read_ratio(ratio)
                            .with_txns_per_client(12),
                    ),
            );
            labels.push(format!("{:.0}% reads / {label}", ratio * 100.0));
        }
    }
    labels
        .into_iter()
        .zip(sweep_reports(cfgs))
        .map(|(label, report)| {
            Row::new(label)
                .cell("mean", format!("{}t", report.latencies.mean().ticks()))
                .cell("msgs/op", format!("{:.1}", report.messages_per_op()))
                .cell("1SR", report.check_one_copy_serializable().is_ok())
        })
        .collect()
}

/// A5 — lazy reconciliation rules: per-object LWW vs ABCAST-determined
/// after-commit order (paper §4.6), under hot-key conflicts.
pub fn reconcile_table() -> Vec<Row> {
    use repl_core::protocols::lazy_ue::ReconcileMode;
    let hot = WorkloadSpec::default()
        .with_items(4)
        .with_read_ratio(0.0)
        .with_skew(1.2)
        .with_txns_per_client(8);
    let modes = [
        ("last-writer-wins", ReconcileMode::Lww),
        ("abcast order", ReconcileMode::AbcastOrder),
    ];
    let cfgs = modes
        .iter()
        .map(|&(_, mode)| {
            RunConfig::new(Technique::LazyUpdateEverywhere)
                .with_servers(4)
                .with_clients(4)
                .with_seed(149)
                .with_reconcile(mode)
                .with_propagation_delay(SimDuration::from_ticks(2_000))
                .with_trace(false)
                .with_workload(hot.clone())
        })
        .collect();
    modes
        .iter()
        .zip(sweep_reports(cfgs))
        .map(|(&(label, _), report)| {
            Row::new(label)
                .cell("mean", format!("{}t", report.latencies.mean().ticks()))
                .cell("msgs/op", format!("{:.1}", report.messages_per_op()))
                .cell("reconciled", report.reconciliations)
                .cell("converged", report.converged())
        })
        .collect()
}

/// One cell of the P8 batching study: a technique at a batching window
/// and a closed-loop client count, under one ABCAST implementation
/// (`None` for the eager primary, whose batched round is its own
/// decision multicast, not an ordering layer).
pub struct BatchingCell {
    /// The technique under test.
    pub technique: Technique,
    /// Which ABCAST carries the technique (None = no ordering layer).
    pub abcast: Option<AbcastImpl>,
    /// Closed-loop client count.
    pub clients: u32,
    /// The batching window in ticks (0 = batching off).
    pub window: u64,
    /// The fully built run configuration.
    pub cfg: RunConfig,
}

/// The abcast-based techniques swept by the batching study.
pub fn batching_study_techniques() -> Vec<Technique> {
    vec![
        Technique::Active,
        Technique::SemiActive,
        Technique::EagerUpdateEverywhereAbcast,
        Technique::Certification,
    ]
}

/// Builds the P8 cell matrix: every abcast-based technique × both ABCAST
/// implementations × each closed-loop client count × each window, plus
/// the eager primary's batched decision round, all on 3 replicas. Window
/// amortization scales with the number of submissions that share a
/// window, which is why the client count is the second sweep axis.
pub fn batching_cells(clients: &[u32], windows: &[u64]) -> Vec<BatchingCell> {
    let base = |technique: Technique, clients: u32, window: u64| {
        let batch = if window == 0 {
            BatchConfig::disabled()
        } else {
            BatchConfig::window(window)
        };
        RunConfig::new(technique)
            .with_servers(3)
            .with_clients(clients)
            .with_seed(157)
            .with_trace(false)
            .with_batching(batch)
            .with_workload(update_workload(8))
    };
    let mut cells = Vec::new();
    for technique in batching_study_techniques() {
        for which in [AbcastImpl::Sequencer, AbcastImpl::Consensus] {
            for &c in clients {
                for &w in windows {
                    cells.push(BatchingCell {
                        technique,
                        abcast: Some(which),
                        clients: c,
                        window: w,
                        cfg: base(technique, c, w).with_abcast(which),
                    });
                }
            }
        }
    }
    for &c in clients {
        for &w in windows {
            cells.push(BatchingCell {
                technique: Technique::EagerPrimary,
                abcast: None,
                clients: c,
                window: w,
                cfg: base(Technique::EagerPrimary, c, w),
            });
        }
    }
    cells
}

/// The display label of a P8 cell (shared by the table and the JSON).
pub fn batching_cell_label(cell: &BatchingCell) -> String {
    let ab = match cell.abcast {
        Some(AbcastImpl::Sequencer) => " / seq",
        Some(AbcastImpl::Consensus) => " / cons",
        None => "",
    };
    format!(
        "{}{} / c={} / w={}",
        cell.technique.name(),
        ab,
        cell.clients,
        cell.window
    )
}

/// P8 — end-to-end batching: throughput, latency and message cost as the
/// batching window widens (0 = the unbatched baseline; same seeds, same
/// workload, so window 0 reproduces the P2-style numbers exactly).
/// `coord/txn` counts server↔server ordering/agreement messages — the
/// share batching can actually amortize; `msgs/txn` additionally carries
/// the fixed client traffic (one invoke plus one reply per answering
/// replica), which no ordering-layer change can remove.
pub fn batching_table(clients: &[u32], windows: &[u64]) -> Vec<Row> {
    let cells = batching_cells(clients, windows);
    let cfgs = cells.iter().map(|c| c.cfg.clone()).collect();
    cells
        .iter()
        .zip(sweep_reports(cfgs))
        .map(|(cell, report)| {
            let mut lat = report.latencies.clone();
            let p50 = lat.percentile(0.5).ticks();
            Row::new(batching_cell_label(cell))
                .cell("thru", format!("{:.0}/s", report.throughput()))
                .cell("p50", format!("{p50}t"))
                .cell("p99", format!("{}t", p99(&report)))
                .cell("msgs/txn", format!("{:.1}", report.messages_per_op()))
                .cell(
                    "coord/txn",
                    format!("{:.2}", report.coordination_messages_per_op()),
                )
        })
        .collect()
}

/// One cell of the P9 recovery study: one technique under one paired
/// crash→recover outage, plus the identical fault-free run used as the
/// throughput baseline.
#[derive(Debug, Clone)]
pub struct RecoveryCell {
    /// Technique under study.
    pub technique: Technique,
    /// Outage length in ticks (the crash fires at [`RECOVERY_CRASH_AT`]).
    pub downtime: u64,
    /// Update fraction of the workload (1.0 = update-only).
    pub write_ratio: f64,
    /// The run with the outage injected.
    pub faulted: RunConfig,
    /// The same run without any faults.
    pub baseline: RunConfig,
}

/// Crash tick of every P9 outage.
pub const RECOVERY_CRASH_AT: u64 = 5_000;

/// The replica the P9 nemesis takes down: the tail of the 3-replica
/// group, so primaries and sequencers keep running and the outage
/// measures *recovery*, not failover.
pub const RECOVERY_VICTIM: u32 = 2;

/// Builds the P9 cell matrix: every technique × outage length ×
/// write ratio, one tail-replica outage per run. The retry timeout is
/// tightened so runs are dominated by the outage rather than by client
/// backoff, and lazy techniques get a short propagation window so their
/// post-recovery traffic settles inside the drain.
pub fn recovery_cells(downtimes: &[u64], write_ratios: &[f64]) -> Vec<RecoveryCell> {
    let base = |technique: Technique, write_ratio: f64| {
        let mut cfg = RunConfig::new(technique)
            .with_servers(3)
            .with_clients(3)
            .with_seed(163)
            .with_trace(false)
            .with_retry_after(SimDuration::from_ticks(4_000))
            .with_workload(
                WorkloadSpec::default()
                    .with_items(64)
                    .with_read_ratio(1.0 - write_ratio)
                    .with_txns_per_client(15)
                    .with_think_time(SimDuration::from_ticks(3_000)),
            );
        if technique.info().propagation == repl_core::Propagation::Lazy {
            cfg = cfg.with_propagation_delay(SimDuration::from_ticks(1_000));
        }
        cfg
    };
    let mut cells = Vec::new();
    for technique in Technique::ALL {
        for &write_ratio in write_ratios {
            for &downtime in downtimes {
                let baseline = base(technique, write_ratio);
                let faulted = baseline.clone().with_faults(FaultPlan::new().outage_at(
                    SimTime::from_ticks(RECOVERY_CRASH_AT),
                    NodeId::new(RECOVERY_VICTIM),
                    SimDuration::from_ticks(downtime),
                ));
                cells.push(RecoveryCell {
                    technique,
                    downtime,
                    write_ratio,
                    faulted,
                    baseline,
                });
            }
        }
    }
    cells
}

/// The display label of a P9 cell (shared by the table and the JSON).
pub fn recovery_cell_label(cell: &RecoveryCell) -> String {
    format!(
        "{} / down={} / wr={:.1}",
        cell.technique.name(),
        cell.downtime,
        cell.write_ratio
    )
}

/// The transfer strategies a faulted run actually used, as a short tag.
pub fn transfer_strategy_tag(report: &RunReport) -> &'static str {
    let suffix: u64 = report
        .availability
        .recoveries
        .iter()
        .map(|r| r.log_suffix_transfers)
        .sum();
    let snap: u64 = report
        .availability
        .recoveries
        .iter()
        .map(|r| r.snapshot_transfers)
        .sum();
    match (suffix > 0, snap > 0) {
        (true, true) => "both",
        (true, false) => "suffix",
        (false, true) => "snapshot",
        (false, false) => "-",
    }
}

/// P9 — crash recovery: MTTR (rejoin → fully caught up), catch-up bytes
/// on the wire, the transfer strategy the donor selected, and the
/// throughput dip against the fault-free baseline, per technique ×
/// outage length × write ratio. The paper stops at "different failure
/// assumptions"; this table is the recovery half of that study.
pub fn recovery_table(downtimes: &[u64], write_ratios: &[f64]) -> Vec<Row> {
    let cells = recovery_cells(downtimes, write_ratios);
    let mut cfgs = Vec::with_capacity(cells.len() * 2);
    for cell in &cells {
        cfgs.push(cell.faulted.clone());
        cfgs.push(cell.baseline.clone());
    }
    let mut reports = sweep_reports(cfgs).into_iter();
    cells
        .iter()
        .map(|cell| {
            let faulted = reports.next().expect("faulted report per cell");
            let baseline = reports.next().expect("baseline report per cell");
            let a = &faulted.availability;
            let mttr = match a.mttr_ticks() {
                Some(t) => format!("{t}t"),
                None => "-".into(),
            };
            let dip = baseline.throughput() / faulted.throughput().max(f64::MIN_POSITIVE);
            Row::new(recovery_cell_label(cell))
                .cell("mttr", mttr)
                .cell("xfer", format!("{}B", a.transfer_bytes()))
                .cell("strategy", transfer_strategy_tag(&faulted))
                .cell("thru dip", format!("{dip:.2}x"))
                .cell("retries", faulted.client_retries)
                .cell("unanswered", faulted.ops_unanswered)
        })
        .collect()
}

/// One cell of the P12 disaster study: one technique running over the
/// durable log tier at one upload lag, hit by one volume-loss disaster
/// (the victim's WAL and store are destroyed, not merely halted), plus
/// the identical fault-free run used as the throughput baseline.
#[derive(Debug, Clone)]
pub struct DisasterCell {
    /// Technique under study.
    pub technique: Technique,
    /// The durable tier's upload lag in ticks (0 = synchronous: every
    /// acknowledged commit is durable the instant its frame seals).
    pub upload_lag: u64,
    /// The run with the disaster injected.
    pub faulted: RunConfig,
    /// The same run without any faults.
    pub baseline: RunConfig,
}

/// Tick of every P12 volume loss.
pub const DISASTER_AT: u64 = 5_000;

/// The replica the P12 disaster destroys: the tail of the 3-replica
/// group, as in P9, so the study measures restore cost rather than
/// failover.
pub const DISASTER_VICTIM: u32 = 2;

/// Downtime before the wiped replica is brought back to restore.
pub const DISASTER_DOWNTIME: u64 = 15_000;

/// Builds the P12 cell matrix: every technique × upload lag, one
/// tail-replica volume loss per run, all over an enabled durable tier.
/// The upload lag is the exposure knob: at lag 0 nothing acknowledged
/// can be lost; the wider the lag, the more of the acknowledged suffix
/// an ill-timed disaster erases.
pub fn disaster_cells(upload_lags: &[u64]) -> Vec<DisasterCell> {
    let base = |technique: Technique, lag: u64| {
        let mut cfg = RunConfig::new(technique)
            .with_servers(3)
            .with_clients(3)
            .with_seed(167)
            .with_trace(false)
            .with_retry_after(SimDuration::from_ticks(4_000))
            .with_durability(DurabilityConfig::with_upload_lag(lag))
            .with_workload(
                WorkloadSpec::default()
                    .with_items(64)
                    .with_read_ratio(0.0)
                    .with_txns_per_client(15)
                    .with_think_time(SimDuration::from_ticks(3_000)),
            );
        if technique.info().propagation == repl_core::Propagation::Lazy {
            cfg = cfg.with_propagation_delay(SimDuration::from_ticks(1_000));
        }
        cfg
    };
    let mut cells = Vec::new();
    for technique in Technique::ALL {
        for &lag in upload_lags {
            let baseline = base(technique, lag);
            let faulted = baseline.clone().with_faults(FaultPlan::new().disaster_at(
                SimTime::from_ticks(DISASTER_AT),
                NodeId::new(DISASTER_VICTIM),
                SimDuration::from_ticks(DISASTER_DOWNTIME),
            ));
            cells.push(DisasterCell {
                technique,
                upload_lag: lag,
                faulted,
                baseline,
            });
        }
    }
    cells
}

/// The display label of a P12 cell (shared by the table and the JSON).
pub fn disaster_cell_label(cell: &DisasterCell) -> String {
    format!("{} / lag={}", cell.technique.name(), cell.upload_lag)
}

/// P12 — disaster recovery over the durable log tier: the realised
/// data-loss window (acknowledged commits the wipe erased before they
/// were durable), restore volume and restore deafness, rejoin MTTR, and
/// the no-silent-loss oracle, per technique × upload lag. At lag 0 the
/// tier is synchronous and the loss column must read 0 everywhere; the
/// loss grows with the lag while the oracle stays green — every erased
/// acknowledgement is claimed by the accounting, never silent.
pub fn disaster_table(upload_lags: &[u64]) -> Vec<Row> {
    let cells = disaster_cells(upload_lags);
    let mut cfgs = Vec::with_capacity(cells.len() * 2);
    for cell in &cells {
        cfgs.push(cell.faulted.clone());
        cfgs.push(cell.baseline.clone());
    }
    let mut reports = sweep_reports(cfgs).into_iter();
    cells
        .iter()
        .map(|cell| {
            let faulted = reports.next().expect("faulted report per cell");
            let baseline = reports.next().expect("baseline report per cell");
            let d = &faulted.durability;
            let mttr = match faulted.availability.mttr_ticks() {
                Some(t) => format!("{t}t"),
                None => "-".into(),
            };
            let dip = baseline.throughput() / faulted.throughput().max(f64::MIN_POSITIVE);
            Row::new(disaster_cell_label(cell))
                .cell("wipes", d.volume_wipes)
                .cell("lost", d.lost_commits)
                .cell("restores", d.restores)
                .cell("restore B", format!("{}B", d.restore_bytes))
                .cell("deaf", format!("{}t", d.restore_ticks))
                .cell("mttr", mttr)
                .cell("no silent loss", faulted.check_no_silent_loss().is_ok())
                .cell("thru dip", format!("{dip:.2}x"))
                .cell("unanswered", faulted.ops_unanswered)
        })
        .collect()
}

/// One cell of the P13 open-loop scale study: one technique serving a
/// virtual client population at a fixed *total* offered load through the
/// aggregated open-loop engine ([`repl_core::Arrival::OpenAggregated`]).
/// The client count is a parameter, not an actor count — the same cell
/// shape runs at 10³ and 10⁶ clients.
pub struct OpenLoopCell {
    /// The technique under test.
    pub technique: Technique,
    /// Virtual client population.
    pub clients: u32,
    /// Total offered load across the population, operations per second.
    pub rate_per_s: u64,
    /// The full run configuration.
    pub cfg: RunConfig,
}

/// Total operations each P13 cell aims for. Populations below this
/// issue several transactions per client; a million clients issue one
/// each (the population itself is the load).
pub const P13_TARGET_OPS: u64 = 100_000;

/// Builds the P13 cell matrix: every technique × population × total
/// offered rate. The per-client mean inter-arrival gap is derived so the
/// *population's* aggregate rate equals `rate_per_s` regardless of size.
pub fn open_loop_scale_cells(
    techniques: &[Technique],
    client_counts: &[u32],
    rates_per_s: &[u64],
) -> Vec<OpenLoopCell> {
    use repl_core::Arrival;
    use repl_workload::ArrivalDist;
    let mut cells = Vec::new();
    for &technique in techniques {
        for &clients in client_counts {
            for &rate in rates_per_s {
                let txns = (P13_TARGET_OPS / u64::from(clients.max(1))).max(1);
                let txns = u32::try_from(txns).expect("P13 budget fits u32");
                // Per-client gap in ticks (1 tick ≈ 1 µs): population
                // rate R ops/s means each of `clients` clients fires
                // every clients·10⁶/R ticks.
                let mean = (u64::from(clients).saturating_mul(1_000_000) / rate.max(1)).max(1);
                let cfg = RunConfig::new(technique)
                    .with_servers(3)
                    .with_clients(clients)
                    .with_seed(163)
                    .with_arrival(Arrival::OpenAggregated {
                        mean,
                        dist: ArrivalDist::Poisson,
                    })
                    .with_trace(false)
                    .with_max_time(SimTime::from_ticks(60_000_000))
                    .with_workload(
                        WorkloadSpec::default()
                            .with_items(4_096)
                            .with_read_ratio(0.5)
                            .with_txns_per_client(txns),
                    );
                cells.push(OpenLoopCell {
                    technique,
                    clients,
                    rate_per_s: rate,
                    cfg,
                });
            }
        }
    }
    cells
}

/// The display label of a P13 cell (shared by the table and the JSON).
pub fn open_loop_cell_label(cell: &OpenLoopCell) -> String {
    format!(
        "{} {}c @{}k/s",
        cell.technique.name(),
        cell.clients,
        cell.rate_per_s / 1_000
    )
}

/// P13 — the open-loop scale study: events processed, streaming-histogram
/// latency percentiles and the constant-memory footprint per technique ×
/// client population × offered rate. Latencies come from the
/// [`repl_sim::LatencyHistogram`] (bounded relative error, ~30 KiB
/// regardless of operation count); `peak-out` is the high-water mark of
/// in-flight operations across client groups.
pub fn open_loop_scale_table(
    techniques: &[Technique],
    client_counts: &[u32],
    rates_per_s: &[u64],
) -> Vec<Row> {
    let cells = open_loop_scale_cells(techniques, client_counts, rates_per_s);
    let cfgs = cells.iter().map(|c| c.cfg.clone()).collect();
    cells
        .iter()
        .zip(sweep_reports(cfgs))
        .map(|(cell, report)| {
            let hist = report
                .latency_hist
                .as_ref()
                .expect("aggregated runs stream a histogram");
            Row::new(open_loop_cell_label(cell))
                .cell("ops", report.ops_completed)
                .cell("unanswered", report.ops_unanswered)
                .cell("events", report.messages.events_processed)
                .cell("p50", format!("{}t", hist.percentile(0.50).ticks()))
                .cell("p99", format!("{}t", hist.percentile(0.99).ticks()))
                .cell("peak-out", report.peak_outstanding)
                .cell("hist KiB", hist.memory_bytes() / 1024)
        })
        .collect()
}

/// One technique's measurements from the P14 payload-plane study: the
/// same run executed with arena-handle payloads and with inline
/// (`Arc<WriteSet>`) payloads, plus the equality verdicts the study
/// asserts in-line (a digest or trace divergence panics the study — the
/// arena is a representation change and must be observationally
/// invisible).
#[derive(Debug, Clone)]
pub struct PayloadPlaneCell {
    /// The technique under test.
    pub technique: Technique,
    /// Committed transactions (identical between representations).
    pub ops_completed: u64,
    /// Mean response time in ticks (identical between representations).
    pub mean_ticks: u64,
    /// Messages per transaction (identical between representations).
    pub msgs_per_txn: f64,
    /// Wire bytes per transaction (identical between representations —
    /// handles are charged at full logical size per leg).
    pub bytes_per_txn: f64,
    /// Heap allocations per transaction with the arena enabled
    /// (0 when no counting allocator is installed).
    pub arena_allocs_per_txn: f64,
    /// Heap allocations per transaction with inline payloads.
    pub inline_allocs_per_txn: f64,
    /// Wall-clock milliseconds of the arena run.
    pub arena_wall_ms: f64,
    /// Wall-clock milliseconds of the inline run.
    pub inline_wall_ms: f64,
}

/// The techniques whose protocol messages ship writesets (and therefore
/// exercise the payload arena); the other four ship full transactions or
/// decisions and are covered by the equivalence suite instead.
pub fn payload_plane_techniques() -> Vec<Technique> {
    vec![
        Technique::Passive,
        Technique::SemiPassive,
        Technique::EagerPrimary,
        Technique::LazyPrimary,
        Technique::LazyUpdateEverywhere,
        Technique::Certification,
    ]
}

/// The run configuration of one P14 cell: multi-operation update
/// transactions so every commit ships a real multi-record writeset.
pub fn payload_plane_cfg(technique: Technique, arena: bool) -> RunConfig {
    let mut cfg = RunConfig::new(technique)
        .with_servers(3)
        .with_clients(4)
        .with_seed(171)
        .with_trace(true)
        .with_payload_arena(arena)
        .with_workload(
            WorkloadSpec::default()
                .with_items(64)
                .with_read_ratio(0.0)
                .with_ops_per_txn(4)
                .with_txns_per_client(10)
                .with_think_time(SimDuration::from_ticks(200)),
        );
    if technique.info().propagation == repl_core::Propagation::Lazy {
        cfg = cfg.with_propagation_delay(SimDuration::from_ticks(1_000));
    }
    cfg
}

/// Runs the P14 payload-plane study: every writeset-shipping technique
/// twice — arena handles vs inline payloads — asserting digest and
/// trace-hash equality between the two, and measuring what the arena is
/// allowed to change: allocations and wall clock.
///
/// `alloc_count` reads the process-wide allocation counter when the
/// caller (the `perfstudy` binary) has installed a counting global
/// allocator; pass `&|| 0` otherwise and the allocation columns read 0.
/// Cells run serially on the calling thread so the counter diffs are
/// attributable.
pub fn payload_plane_study(alloc_count: &dyn Fn() -> u64) -> Vec<PayloadPlaneCell> {
    use std::time::Instant;
    let mut cells = Vec::new();
    for technique in payload_plane_techniques() {
        // Equality pass, traced: the digest covers every counter and
        // latency sample, the trace hash covers event-level ordering.
        let arena = repl_core::run(&payload_plane_cfg(technique, true));
        let inline = repl_core::run(&payload_plane_cfg(technique, false));
        assert_eq!(
            arena.digest(),
            inline.digest(),
            "P14 {}: arena and inline payloads must produce identical digests",
            technique.name()
        );
        assert_eq!(
            arena.trace_hash,
            inline.trace_hash,
            "P14 {}: arena and inline payloads must produce identical traces",
            technique.name()
        );
        assert!(arena.ops_completed > 0, "P14 {}: no work", technique.name());
        // Measurement pass, lean (trace off): tracing allocates one
        // record per event and would drown the payload-plane signal.
        let timed = |on: bool| {
            let cfg = payload_plane_cfg(technique, on).with_trace(false);
            let a0 = alloc_count();
            let t0 = Instant::now();
            let report = repl_core::run(&cfg);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            (report, alloc_count() - a0, wall_ms)
        };
        let (lean_arena, arena_allocs, arena_wall_ms) = timed(true);
        let (lean_inline, inline_allocs, inline_wall_ms) = timed(false);
        assert_eq!(
            lean_arena.digest(),
            lean_inline.digest(),
            "P14 {}: lean-mode digests must agree too",
            technique.name()
        );
        let per_txn = |n: u64| n as f64 / arena.ops_completed.max(1) as f64;
        cells.push(PayloadPlaneCell {
            technique,
            ops_completed: arena.ops_completed,
            mean_ticks: arena.latencies.mean().ticks(),
            msgs_per_txn: arena.messages_per_op(),
            bytes_per_txn: per_txn(arena.messages.bytes_sent),
            arena_allocs_per_txn: per_txn(arena_allocs),
            inline_allocs_per_txn: per_txn(inline_allocs),
            arena_wall_ms,
            inline_wall_ms,
        });
    }
    cells
}

/// P14 — the payload-plane study: per writeset-shipping technique, the
/// (identical) simulation observables plus the two things the arena may
/// change — heap allocations per transaction and wall clock. The digest
/// and trace equality between the representations is asserted inside
/// [`payload_plane_study`]; a printed row is proof the cell passed.
pub fn payload_plane_table(alloc_count: &dyn Fn() -> u64) -> Vec<Row> {
    payload_plane_study(alloc_count)
        .into_iter()
        .map(|c| {
            Row::new(c.technique.name())
                .cell("txns", c.ops_completed)
                .cell("mean", format!("{}t", c.mean_ticks))
                .cell("msgs/txn", format!("{:.1}", c.msgs_per_txn))
                .cell("B/txn", format!("{:.0}", c.bytes_per_txn))
                .cell("allocs/txn arena", format!("{:.1}", c.arena_allocs_per_txn))
                .cell(
                    "allocs/txn inline",
                    format!("{:.1}", c.inline_allocs_per_txn),
                )
                .cell(
                    "alloc saving",
                    if c.inline_allocs_per_txn > 0.0 {
                        format!(
                            "{:.0}%",
                            (1.0 - c.arena_allocs_per_txn / c.inline_allocs_per_txn) * 100.0
                        )
                    } else {
                        "-".into()
                    },
                )
                .cell("digest", "==")
        })
        .collect()
}

/// One cell of the P15 elasticity study: one technique scaling
/// 3 → 7 → 3 mid-run (four cold joins, four graceful drains), plus two
/// static baselines — the same run pinned at the initial and at the
/// peak replica count — used to separate the *disturbance* of changing
/// membership from the *steady-state* cost/gain of the larger group.
#[derive(Debug, Clone)]
pub struct ElasticityCell {
    /// Technique under study.
    pub technique: Technique,
    /// The run with the 3 → 7 → 3 membership plan.
    pub elastic: RunConfig,
    /// The same run pinned at the initial replica count (no plan).
    pub baseline: RunConfig,
    /// The same run pinned at the peak replica count (no plan).
    pub peak: RunConfig,
}

/// Initial replica count of every P15 cell.
pub const P15_INITIAL: u32 = 3;

/// Peak replica count the P15 membership plan scales to.
pub const P15_PEAK: u32 = 7;

/// The P15 membership plan: 3 → 7 → 3. Joins are staggered so each
/// admission (view change + state transfer) completes before the next
/// starts; the drains unwind the group in join order once the run is
/// deep into steady state.
pub fn elasticity_plan() -> MembershipPlan {
    let mut plan = MembershipPlan::new();
    for (i, at) in [6_000u64, 12_000, 18_000, 24_000].into_iter().enumerate() {
        plan = plan.join_at(SimTime::from_ticks(at), NodeId::new(P15_INITIAL + i as u32));
    }
    for (i, at) in [45_000u64, 50_000, 55_000, 60_000].into_iter().enumerate() {
        plan = plan.drain_at(SimTime::from_ticks(at), NodeId::new(P15_INITIAL + i as u32));
    }
    plan
}

/// Builds the P15 cell matrix: every technique under the same
/// update-only load, once with the 3 → 7 → 3 plan and twice statically
/// (initial and peak group size). The retry timeout is tightened so
/// decommission reroutes are picked up promptly, as in P9.
pub fn elasticity_cells() -> Vec<ElasticityCell> {
    let base = |technique: Technique, servers: u32| {
        let mut cfg = RunConfig::new(technique)
            .with_servers(servers)
            .with_clients(4)
            .with_seed(173)
            .with_trace(false)
            .with_retry_after(SimDuration::from_ticks(4_000))
            .with_workload(
                WorkloadSpec::default()
                    .with_items(64)
                    .with_read_ratio(0.0)
                    .with_txns_per_client(25)
                    .with_think_time(SimDuration::from_ticks(3_000)),
            );
        if technique.info().propagation == repl_core::Propagation::Lazy {
            cfg = cfg.with_propagation_delay(SimDuration::from_ticks(1_000));
        }
        cfg
    };
    Technique::ALL
        .into_iter()
        .map(|technique| ElasticityCell {
            technique,
            elastic: base(technique, P15_INITIAL).with_membership(elasticity_plan()),
            baseline: base(technique, P15_INITIAL),
            peak: base(technique, P15_PEAK),
        })
        .collect()
}

/// The display label of a P15 cell (shared by the table and the JSON).
pub fn elasticity_cell_label(cell: &ElasticityCell) -> String {
    format!(
        "{} / {}→{}→{}",
        cell.technique.name(),
        P15_INITIAL,
        P15_PEAK,
        P15_INITIAL
    )
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
pub fn elasticity_table() -> Vec<Row> {
    let cells = elasticity_cells();
    let mut cfgs = Vec::with_capacity(cells.len() * 3);
    for cell in &cells {
        cfgs.push(cell.elastic.clone());
        cfgs.push(cell.baseline.clone());
        cfgs.push(cell.peak.clone());
    }
    let mut reports = sweep_reports(cfgs).into_iter();
    cells
        .iter()
        .map(|cell| {
            let elastic = reports.next().expect("elastic report per cell");
            let baseline = reports.next().expect("baseline report per cell");
            let peak = reports.next().expect("peak report per cell");
            let (join_mean, xfer, joined) = joiner_accounting(&elastic);
            let join = match join_mean {
                Some(t) => format!("{t}t"),
                None => "-".into(),
            };
            let dip = baseline.throughput() / elastic.throughput().max(f64::MIN_POSITIVE);
            // The closed-loop load is think-time-bound, so throughput is
            // flat across group sizes; the steady-state cost of the
            // larger group shows in response time (the paper's P1 axis).
            let steady = peak.latencies.mean().ticks() as f64
                / (baseline.latencies.mean().ticks() as f64).max(f64::MIN_POSITIVE);
            Row::new(elasticity_cell_label(cell))
                .cell("joined", format!("{joined}/4"))
                .cell("join", join)
                .cell("xfer", format!("{xfer}B"))
                .cell(
                    "worst gap",
                    format!("{}t", elastic.availability.worst_gap().ticks()),
                )
                .cell(
                    "base gap",
                    format!("{}t", baseline.availability.worst_gap().ticks()),
                )
                .cell("thru dip", format!("{dip:.2}x"))
                .cell("steady lat 7/3", format!("{steady:.2}x"))
                .cell("no silent loss", elastic.check_no_silent_loss().is_ok())
                .cell("unanswered", elastic.ops_unanswered)
        })
        .collect()
}

/// One cell of the P16 sharding study: a technique at a shard count and
/// a cross-shard transaction ratio.
#[derive(Debug, Clone)]
pub struct ShardingCell {
    /// Technique under study.
    pub technique: Technique,
    /// Shard (= replica group) count.
    pub shards: u32,
    /// Fraction of transactions spanning two shards.
    pub cross_ratio: f64,
    /// The fully built run.
    pub cfg: RunConfig,
}

/// Shard counts swept by P16.
pub const P16_SHARDS: [u32; 3] = [1, 4, 16];

/// Cross-shard transaction ratios swept by P16 (besides 0).
pub const P16_CROSS_RATIOS: [f64; 2] = [0.05, 0.20];

/// Closed-loop clients per shard group in every P16 cell. Per-group
/// offered load is held constant, so the aggregate-throughput curve
/// measures the capacity each extra group adds (weak scaling) — the
/// ROADMAP's horizontal-scaling axis, not speedup at fixed load.
pub const P16_CLIENTS_PER_SHARD: u32 = 4;

/// The P16 technique subset: the three cross-shard-capable techniques
/// (genuine multicast for the ABCAST pair, 2PC delegation for eager UE
/// locking) plus one primary-copy representative for the ratio-0
/// scaling story.
pub fn sharding_study_techniques() -> Vec<Technique> {
    vec![
        Technique::Active,
        Technique::EagerUpdateEverywhereAbcast,
        Technique::EagerUpdateEverywhereLocking,
        Technique::Passive,
    ]
}

/// Whether `technique` has a cross-group commit path (may run cells
/// with `cross_ratio > 0`).
pub fn cross_shard_capable(technique: Technique) -> bool {
    matches!(
        technique,
        Technique::Active
            | Technique::EagerUpdateEverywhereAbcast
            | Technique::EagerUpdateEverywhereLocking
    )
}

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

/// Builds the P16 matrix: every study technique over [`P16_SHARDS`] at
/// ratio 0, and the cross-capable techniques additionally over
/// [`P16_CROSS_RATIOS`] at the multi-shard counts. (Single-shard cells
/// have no second shard to cross into, so ratio > 0 × S = 1 is not a
/// cell.)
pub fn sharding_cells() -> Vec<ShardingCell> {
    let mut cells = Vec::new();
    for technique in sharding_study_techniques() {
        for shards in P16_SHARDS {
            cells.push(ShardingCell {
                technique,
                shards,
                cross_ratio: 0.0,
                cfg: sharding_cfg(technique, shards, 0.0),
            });
        }
        if cross_shard_capable(technique) {
            for shards in [4u32, 16] {
                for cross_ratio in P16_CROSS_RATIOS {
                    cells.push(ShardingCell {
                        technique,
                        shards,
                        cross_ratio,
                        cfg: sharding_cfg(technique, shards, cross_ratio),
                    });
                }
            }
        }
    }
    cells
}

/// The display label of a P16 cell (shared by the table and the JSON).
pub fn sharding_cell_label(cell: &ShardingCell) -> String {
    format!(
        "{} / S={} / x={:.0}%",
        cell.technique.name(),
        cell.shards,
        cell.cross_ratio * 100.0
    )
}

/// P16 — the sharding study: per (technique, shard count, cross-shard
/// ratio), the aggregate throughput and its ratio to the same
/// technique's single-group cell, mean latency split into shard-local
/// and cross-shard operations, and the oracles (merged-history 1SR,
/// group convergence, nothing unanswered). Per-group load is constant
/// ([`P16_CLIENTS_PER_SHARD`] clients), so the throughput column reads
/// as capacity added by sharding.
pub fn sharding_table() -> Vec<Row> {
    let cells = sharding_cells();
    let reports = sweep_reports(cells.iter().map(|c| c.cfg.clone()).collect());
    // Single-group baseline throughput per technique (the S=1, ratio-0
    // cell each speedup column divides by).
    let mut base = std::collections::HashMap::new();
    for (cell, report) in cells.iter().zip(&reports) {
        if cell.shards == 1 && cell.cross_ratio == 0.0 {
            base.insert(cell.technique, report.throughput());
        }
    }
    cells
        .iter()
        .zip(&reports)
        .map(|(cell, report)| {
            let speedup = report.throughput() / base[&cell.technique].max(f64::MIN_POSITIVE);
            let cross_lat = if report.sharding.cross_shard_ops > 0 {
                format!("{}t", report.sharding.cross_latency.mean().ticks())
            } else {
                "-".into()
            };
            // S=1 cells run the unsharded path, which books latencies in
            // the plain per-run stats rather than the sharding split.
            let local_lat = if report.sharding.sharded() {
                report.sharding.single_latency.mean()
            } else {
                report.latencies.mean()
            };
            Row::new(sharding_cell_label(cell))
                .cell("servers", report.servers)
                .cell("clients", cell.cfg.clients)
                .cell("thru", format!("{:.1}/s", report.throughput()))
                .cell("vs S=1", format!("{speedup:.2}x"))
                .cell("local lat", format!("{}t", local_lat.ticks()))
                .cell("cross lat", cross_lat)
                .cell("cross ops", report.sharding.cross_shard_ops)
                .cell("1SR", report.check_one_copy_serializable().is_ok())
                .cell("converged", report.converged())
                .cell("unanswered", report.ops_unanswered)
        })
        .collect()
}

/// The run used by the phase-trace benchmark and Figures 2–4/7–14.
pub fn figure_config(technique: Technique, ops_per_txn: u32) -> RunConfig {
    let mut cfg = RunConfig::new(technique)
        .with_clients(1)
        .with_seed(42)
        .with_workload(
            WorkloadSpec::default()
                .with_items(16)
                .with_read_ratio(0.0)
                .with_ops_per_txn(ops_per_txn)
                .with_txns_per_client(4),
        );
    if technique == Technique::SemiActive {
        cfg = cfg.with_exec(ExecutionMode::NonDeterministic);
    }
    if technique.info().propagation == repl_core::Propagation::Lazy {
        cfg = cfg.with_propagation_delay(SimDuration::from_ticks(2_000));
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let rows = vec![
            Row::new("a").cell("x", 1).cell("yy", "long-value"),
            Row::new("much-longer").cell("x", 22).cell("yy", 3),
        ];
        let s = render("T", &rows);
        assert!(s.contains("### T"));
        assert!(s.contains("much-longer"));
        assert!(s.contains("long-value"));
    }

    #[test]
    fn response_time_table_has_all_techniques() {
        let rows = response_time_table(&[2]);
        assert_eq!(rows.len(), Technique::ALL.len());
    }

    #[test]
    fn recovery_table_reports_finite_mttr_and_both_strategies() {
        let rows = recovery_table(&[15_000], &[1.0]);
        assert_eq!(rows.len(), Technique::ALL.len());
        let col = |r: &Row, name: &str| {
            r.cells
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.clone())
                .expect("column present")
        };
        for r in &rows {
            assert_ne!(col(r, "mttr"), "-", "{}: no MTTR", r.label);
            assert_eq!(col(r, "unanswered"), "0", "{}", r.label);
            assert_ne!(col(r, "strategy"), "-", "{}: no transfer", r.label);
        }
        let tags: Vec<String> = rows.iter().map(|r| col(r, "strategy")).collect();
        let used = |t: &str| tags.iter().any(|s| s == t || s == "both");
        assert!(used("suffix"), "no cell used a log suffix: {tags:?}");
        assert!(used("snapshot"), "no cell used a snapshot: {tags:?}");
    }

    #[test]
    fn conflicts_table_rows_per_skew() {
        let rows = conflicts_table(&[0.0]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cells.len(), 4);
    }
}
