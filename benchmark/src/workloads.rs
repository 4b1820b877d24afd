//! The four workloads: which cells each one runs, and why.
//!
//! Sizes are operation counts fixed here, never seconds, so every
//! simulated number is identical on any machine for a given seed. The
//! cell shapes of the perfstudy tables (P1–P3, P8, P9, P12, P13, P15,
//! P16) are re-stated here on purpose: the benchmark must not depend on
//! `crates/bench`, which later PRs are free to shrink.

use crate::api::{
    Arrival, ArrivalDist, BatchConfig, DurabilityConfig, FaultPlan, MembershipPlan, NodeId,
    Propagation, RunConfig, SimDuration, SimTime, Technique, WorkloadSpec,
};

/// One run of the program under test: a label and the built config.
/// The program receives nothing else.
pub struct Cell {
    /// `<technique>` or `<variant>/<technique>/<seed index>`.
    pub label: String,
    /// The full run configuration.
    pub cfg: RunConfig,
    /// Whether the cell injects a fault or a membership change (its
    /// availability numbers feed the fault metrics).
    pub fault: bool,
}

impl Cell {
    /// Client operations this cell attempts.
    pub fn attempted(&self) -> u64 {
        u64::from(self.cfg.clients) * u64::from(self.cfg.workload.txns_per_client)
    }
}

/// A benchmark workload (names are normative, see `BENCHMARK.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop, 3 replicas, aggregated Poisson arrivals, lean servers.
    Open1m,
    /// Closed loop, 16 groups × 3 replicas, uniform keys, 5 % cross-shard.
    Shard16Closed,
    /// Closed loop, 3 replicas, hot keys, history recording dominant.
    HotClosed,
    /// The study as users run it: many millisecond-sized traced runs,
    /// including every fault and membership path.
    StudyMix,
}

/// How much of the full size to run: `Full` for timed repetitions,
/// `Warmup` (1/10) for set-up, `Smoke` (1/50) for `cargo test`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// One tenth: the warm-up repetition inside `setup_s`.
    Warmup,
    /// One fiftieth: the smoke tests.
    Smoke,
}

impl Scale {
    /// What the full size is divided by.
    pub fn divisor(self) -> u32 {
        match self {
            Scale::Full => 1,
            Scale::Warmup => 10,
            Scale::Smoke => 50,
        }
    }

    fn div(self, n: u32) -> u32 {
        (n / self.divisor()).max(1)
    }
}

/// Virtual clients per `open_1m` cell (one transaction each). The P13
/// headline cell has a million; a quarter of that keeps a repetition
/// near 2.5 s so that a run fits several (the population is a
/// parameter of the arrival process, so the resident queue depth — set
/// by rate × response time — is the same).
pub const OPEN_CLIENTS: u32 = 250_000;
/// Total offered load of an `open_1m` cell, operations per simulated
/// second (1 tick = 1 µs).
pub const OPEN_RATE_PER_S: u64 = 200_000;
/// Transactions per client in `shard16_closed`.
pub const SHARD_TXNS: u32 = 400;
/// Transactions per client in `hot_closed`.
pub const HOT_TXNS: u32 = 150;
/// Seeds per (variant, technique) in `study_mix`.
pub const STUDY_SEEDS: u32 = 24;

/// The `study_mix` variants, in cell order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// The P1–P3 cell.
    Plain,
    /// The P8 cell: 16 clients sharing a 250-tick window.
    Batched,
    /// The P9 cell: tail replica down for 15k ticks, then recovery.
    Outage,
    /// The P12 cell: volume loss, restore from the durable tier.
    Disaster,
    /// The P15 cell, 3 → 5 → 3.
    Elastic,
}

impl Variant {
    const ALL: [Variant; 5] = [
        Variant::Plain,
        Variant::Batched,
        Variant::Outage,
        Variant::Disaster,
        Variant::Elastic,
    ];

    fn name(self) -> &'static str {
        match self {
            Variant::Plain => "plain",
            Variant::Batched => "batched",
            Variant::Outage => "outage",
            Variant::Disaster => "disaster",
            Variant::Elastic => "elastic",
        }
    }

    /// Whether the variant injects a fault or a membership change.
    fn is_fault(self) -> bool {
        matches!(self, Variant::Outage | Variant::Disaster | Variant::Elastic)
    }
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Open1m,
        Workload::Shard16Closed,
        Workload::HotClosed,
        Workload::StudyMix,
    ];

    /// The normative name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Open1m => "open_1m",
            Workload::Shard16Closed => "shard16_closed",
            Workload::HotClosed => "hot_closed",
            Workload::StudyMix => "study_mix",
        }
    }

    /// Parses a normative name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cell list at `scale`; cell *i* runs with `seed + i`.
    pub fn cells(self, seed: u64, scale: Scale) -> Vec<Cell> {
        let mut cells = match self {
            Workload::Open1m => open_1m(scale),
            Workload::Shard16Closed => shard16_closed(scale),
            Workload::HotClosed => hot_closed(scale),
            Workload::StudyMix => study_mix(scale),
        };
        for (i, cell) in cells.iter_mut().enumerate() {
            cell.cfg.seed = seed + i as u64;
        }
        cells
    }
}

fn plain_cell(technique: Technique, cfg: RunConfig) -> Cell {
    Cell {
        label: technique.name().to_string(),
        cfg,
        fault: false,
    }
}

/// The P13 headline shape: the population is a parameter of one
/// aggregated arrival process per server, not an actor count.
fn open_1m(scale: Scale) -> Vec<Cell> {
    let clients = scale.div(OPEN_CLIENTS);
    // Per-client gap so that the population as a whole offers
    // OPEN_RATE_PER_S regardless of its size.
    let mean = (u64::from(clients) * 1_000_000 / OPEN_RATE_PER_S).max(1);
    [
        Technique::Active,
        Technique::Certification,
        Technique::LazyUpdateEverywhere,
    ]
    .into_iter()
    .map(|technique| {
        let cfg = RunConfig::new(technique)
            .with_servers(3)
            .with_clients(clients)
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
                    .with_txns_per_client(1),
            );
        plain_cell(technique, cfg)
    })
    .collect()
}

/// The P16 headline shape at 16 groups. Passive has no cross-group
/// commit path, so it runs at 0 % cross-shard.
fn shard16_closed(scale: Scale) -> Vec<Cell> {
    [
        (Technique::Active, 0.05),
        (Technique::EagerUpdateEverywhereAbcast, 0.05),
        (Technique::EagerUpdateEverywhereLocking, 0.05),
        (Technique::Passive, 0.0),
    ]
    .into_iter()
    .map(|(technique, cross)| {
        let cfg = RunConfig::new(technique)
            .with_servers(3)
            .with_clients(64)
            .with_trace(false)
            .with_max_time(SimTime::from_ticks(600_000_000))
            .with_workload(
                WorkloadSpec::default()
                    .with_items(4_096)
                    .with_read_ratio(0.0)
                    .with_ops_per_txn(2)
                    .with_txns_per_client(scale.div(SHARD_TXNS))
                    .with_think_time(SimDuration::ZERO)
                    .with_shards(16)
                    .with_cross_shard_ratio(cross),
            );
        plain_cell(technique, cfg)
    })
    .collect()
}

/// Contention plus recording. Update-only, and without Eager UE
/// (Locking) and Lazy Update Everywhere, because the parent commit is
/// red otherwise: see `KNOWN_RED.md`.
fn hot_closed(scale: Scale) -> Vec<Cell> {
    Technique::ALL
        .into_iter()
        .filter(|&t| {
            t != Technique::EagerUpdateEverywhereLocking && t != Technique::LazyUpdateEverywhere
        })
        .map(|technique| {
            let cfg = RunConfig::new(technique)
                .with_servers(3)
                .with_clients(16)
                .with_trace(false)
                .with_max_time(SimTime::from_ticks(600_000_000))
                .with_workload(
                    WorkloadSpec::default()
                        .with_items(256)
                        .with_skew(0.8)
                        .with_read_ratio(0.0)
                        .with_ops_per_txn(4)
                        .with_txns_per_client(scale.div(HOT_TXNS))
                        .with_think_time(SimDuration::ZERO),
                );
            plain_cell(technique, cfg)
        })
        .collect()
}

/// Tick of the crash / volume loss in the `outage` and `disaster`
/// variants, and the replica it hits: the tail of the group, so
/// primaries and sequencers keep running and the cell measures
/// recovery rather than failover of the role holder.
const FAULT_AT: u64 = 5_000;
const FAULT_VICTIM: u32 = 2;

fn lazy_settle(technique: Technique, cfg: RunConfig) -> RunConfig {
    // Lazy techniques get a short propagation window so post-recovery
    // traffic settles inside the drain (as in P9/P12/P15).
    if technique.info().propagation == Propagation::Lazy {
        cfg.with_propagation_delay(SimDuration::from_ticks(1_000))
    } else {
        cfg
    }
}

/// The small faulted cell shared by `outage`, `disaster` and `elastic`.
fn small_cell(technique: Technique, clients: u32, txns: u32, read_ratio: f64) -> RunConfig {
    let cfg = RunConfig::new(technique)
        .with_servers(3)
        .with_clients(clients)
        .with_trace(true)
        .with_retry_after(SimDuration::from_ticks(4_000))
        .with_workload(
            WorkloadSpec::default()
                .with_items(64)
                .with_read_ratio(read_ratio)
                .with_txns_per_client(txns)
                .with_think_time(SimDuration::from_ticks(3_000)),
        );
    lazy_settle(technique, cfg)
}

fn study_variant(variant: Variant, technique: Technique) -> RunConfig {
    let update_only = |txns: u32| {
        WorkloadSpec::default()
            .with_items(128)
            .with_read_ratio(0.0)
            .with_txns_per_client(txns)
    };
    match variant {
        Variant::Plain => RunConfig::new(technique)
            .with_servers(3)
            .with_clients(4)
            .with_trace(true)
            .with_workload(update_only(12)),
        Variant::Batched => RunConfig::new(technique)
            .with_servers(3)
            .with_clients(16)
            .with_trace(true)
            .with_batching(BatchConfig::window(250))
            .with_workload(update_only(8)),
        Variant::Outage => {
            small_cell(technique, 3, 15, 0.5).with_faults(FaultPlan::new().outage_at(
                SimTime::from_ticks(FAULT_AT),
                NodeId::new(FAULT_VICTIM),
                SimDuration::from_ticks(15_000),
            ))
        }
        Variant::Disaster => small_cell(technique, 3, 15, 0.0)
            .with_durability(DurabilityConfig::with_upload_lag(2_000))
            .with_faults(FaultPlan::new().disaster_at(
                SimTime::from_ticks(FAULT_AT),
                NodeId::new(FAULT_VICTIM),
                SimDuration::from_ticks(15_000),
            )),
        Variant::Elastic => small_cell(technique, 4, 25, 0.0).with_membership(
            MembershipPlan::new()
                .join_at(SimTime::from_ticks(6_000), NodeId::new(3))
                .join_at(SimTime::from_ticks(12_000), NodeId::new(4))
                .drain_at(SimTime::from_ticks(45_000), NodeId::new(3))
                .drain_at(SimTime::from_ticks(50_000), NodeId::new(4)),
        ),
    }
}

fn study_mix(scale: Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for s in 0..scale.div(STUDY_SEEDS) {
        for variant in Variant::ALL {
            for technique in Technique::ALL {
                // Eager UE (Locking) is red at the parent commit under
                // membership change (a quarter of the seeds) and under an
                // outage (rarely): see `KNOWN_RED.md`. It stays out of
                // the three fault variants.
                if variant.is_fault() && technique == Technique::EagerUpdateEverywhereLocking {
                    continue;
                }
                cells.push(Cell {
                    label: format!("{}/{}/{s}", variant.name(), technique.name()),
                    cfg: study_variant(variant, technique),
                    fault: variant.is_fault(),
                });
            }
        }
    }
    cells
}
