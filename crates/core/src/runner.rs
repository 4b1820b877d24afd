//! The experiment runner: build a world for a technique, drive the
//! workload to completion, and collect a [`RunReport`].

use std::mem::take;
use std::sync::Arc;

use repl_db::{DeadlockPolicy, Keyspace};
use repl_gcs::{BatchConfig, ConsensusConfig, FdConfig, VsConfig};
use repl_sim::{
    Actor, LatencyHistogram, LatencyStats, NetworkConfig, NodeId, SimConfig, SimDuration, SimTime,
    World,
};
use repl_workload::{
    ArrivalDist, ArrivalStream, FaultEvent, FaultPlan, FaultPlanError, MembershipEvent,
    MembershipPlan, MembershipPlanError, OpTemplate, ShardMap, TxnList, WorkloadGen, WorkloadSpec,
};

use crate::client::{AggregateClients, ClientActor, ClientGroup, OpRecord, ReplyMode};
use crate::durability::DurabilityConfig;
use crate::phase::PhaseTrace;
use crate::protocols::common::{op_of_txn, AbcastImpl, ExecutionMode, ShardCtx};
use crate::protocols::lazy_ue::ReconcileMode;
use crate::protocols::replica::{Replica, Technique as Flow, Wire, JOIN_RETRY_TICKS};
use crate::protocols::{
    active::ActiveServer, certification::CertServer, eager_primary::EagerPrimaryServer,
    eager_ue_abcast::EuaServer, eager_ue_lock::EulServer, lazy_primary::LazyPrimaryServer,
    lazy_ue::LazyUeServer, passive::PassiveServer, semi_active::SemiActiveServer,
    semi_passive::SemiPassiveServer,
};
use crate::report::{Availability, DurabilityReport, NodeRecovery, RunReport, ShardingReport};
use crate::technique::Technique;

/// How clients generate load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Arrival {
    /// Closed loop: one outstanding operation per client, think time
    /// between transactions, timeout-based re-submission ([`ClientActor`]).
    #[default]
    Closed,
    /// Open loop: the whole client population is simulated by one
    /// arrival process per server group instead of one actor per client,
    /// so the client count is a parameter rather than an actor count (a
    /// million clients cost a handful of actors). `mean` is the
    /// *per-client* mean inter-arrival time in ticks; the group stream
    /// runs at `mean / group size` ([`AggregateClients`]). Several
    /// operations may be outstanding, none are retried. Latencies go into
    /// a constant-memory [`LatencyHistogram`] ([`RunReport::latency_hist`])
    /// and no per-operation records are kept.
    OpenAggregated {
        /// Per-client mean inter-arrival time, in ticks.
        mean: u64,
        /// Shape of the arrival process.
        dist: ArrivalDist,
    },
}

/// Everything that parameterises one experiment run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The replication technique to run.
    pub technique: Technique,
    /// Number of replica servers.
    pub servers: u32,
    /// Number of clients.
    pub clients: u32,
    /// The workload.
    pub workload: WorkloadSpec,
    /// Master seed (world RNG and workload generators derive from it).
    pub seed: u64,
    /// Network model.
    pub network: NetworkConfig,
    /// Fault load: crashes/recoveries, partitions/heals, link faults.
    /// Node ids in the plan refer to *servers* (`0..servers`, or up to
    /// the membership plan's peak when one is set).
    pub faults: FaultPlan,
    /// Elastic-membership load: mid-run joins of brand-new sites and
    /// planned decommissions. The empty plan (the default) leaves runs
    /// byte-identical to a build without the membership subsystem.
    pub membership: MembershipPlan,
    /// Which Atomic Broadcast implementation Active, Semi-Active, Eager
    /// UE (ABCAST) and Certification order through. Lazy UE's
    /// ABCAST-order mode always uses the sequencer.
    pub abcast: AbcastImpl,
    /// Batching window for the ordering/propagation rounds of Active,
    /// Semi-Active, Eager UE (ABCAST), Certification, Eager Primary and
    /// Lazy Primary (and for WAL group commit at those two primaries).
    /// `BatchConfig::disabled()` (the default) reproduces the unbatched
    /// behaviour bit-for-bit.
    pub batching: BatchConfig,
    /// Whether server execution is deterministic.
    pub exec: ExecutionMode,
    /// Deadlock policy for Eager UE (Distributed Locking).
    pub deadlock: DeadlockPolicy,
    /// Read-one/write-all reads for Eager UE (Distributed Locking).
    pub rowa: bool,
    /// Reconciliation rule for Lazy UE.
    pub reconcile: ReconcileMode,
    /// Extra propagation delay for Lazy Primary and Lazy UE. It also
    /// lengthens every run's drain.
    pub propagation_delay: SimDuration,
    /// Redo-log retention at the techniques that keep a log
    /// (Semi-Passive, Eager Primary and Lazy Primary): how many entries
    /// stay available for log-suffix recovery transfers before
    /// truncation forces snapshot transfers. `None` retains everything.
    pub log_retention: Option<usize>,
    /// The durable log tier every server uploads committed writesets
    /// into. Disabled (the default) reproduces the untiered behaviour
    /// bit-for-bit; enabling it arms volume-loss survival.
    pub durability: DurabilityConfig,
    /// Client retry timeout: the wait before every re-submission. `None`
    /// (the default) tunes it to `network` ([`RunConfig::retry_after`]).
    pub retry_after: Option<SimDuration>,
    /// Hard deadline for the run.
    pub max_time: SimTime,
    /// Record a trace (needed for phase figures; disable in benches).
    pub trace: bool,
    /// Client arrival process.
    pub arrival: Arrival,
}

impl RunConfig {
    /// A reasonable default configuration for `technique`: 3 servers,
    /// 2 clients, the default workload, LAN network, no failures.
    pub fn new(technique: Technique) -> Self {
        RunConfig {
            technique,
            servers: 3,
            clients: 2,
            workload: WorkloadSpec::default(),
            seed: 1,
            network: NetworkConfig::lan(),
            faults: FaultPlan::new(),
            membership: MembershipPlan::new(),
            abcast: AbcastImpl::Sequencer,
            batching: BatchConfig::disabled(),
            exec: ExecutionMode::Deterministic,
            deadlock: DeadlockPolicy::WoundWait,
            rowa: false,
            reconcile: ReconcileMode::Lww,
            propagation_delay: SimDuration::ZERO,
            log_retention: None,
            durability: DurabilityConfig::disabled(),
            retry_after: None,
            max_time: SimTime::from_ticks(30_000_000),
            trace: true,
            arrival: Arrival::Closed,
        }
    }

    /// Sets the number of servers.
    pub fn with_servers(mut self, n: u32) -> Self {
        assert!(n > 0, "at least one server required");
        self.servers = n;
        self
    }

    /// Sets the number of clients.
    pub fn with_clients(mut self, n: u32) -> Self {
        self.clients = n;
        self
    }

    /// Sets the workload.
    pub fn with_workload(mut self, w: WorkloadSpec) -> Self {
        self.workload = w;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the network model.
    pub fn with_network(mut self, n: NetworkConfig) -> Self {
        self.network = n;
        self
    }

    /// Sets the fault load.
    pub fn with_faults(mut self, f: FaultPlan) -> Self {
        self.faults = f;
        self
    }

    /// Sets the elastic-membership plan (mid-run joins and drains).
    pub fn with_membership(mut self, m: MembershipPlan) -> Self {
        self.membership = m;
        self
    }

    /// Sets the ABCAST implementation.
    pub fn with_abcast(mut self, a: AbcastImpl) -> Self {
        self.abcast = a;
        self
    }

    /// Sets the batching window (ordering rounds + WAL group commit).
    pub fn with_batching(mut self, b: BatchConfig) -> Self {
        self.batching = b;
        self
    }

    /// Sets the execution mode.
    pub fn with_exec(mut self, e: ExecutionMode) -> Self {
        self.exec = e;
        self
    }

    /// Sets the deadlock policy (distributed locking only).
    pub fn with_deadlock(mut self, d: DeadlockPolicy) -> Self {
        self.deadlock = d;
        self
    }

    /// Enables read-one/write-all reads (distributed locking only).
    pub fn with_rowa(mut self, rowa: bool) -> Self {
        self.rowa = rowa;
        self
    }

    /// Sets the lazy reconciliation rule.
    pub fn with_reconcile(mut self, r: ReconcileMode) -> Self {
        self.reconcile = r;
        self
    }

    /// Sets the lazy propagation delay.
    pub fn with_propagation_delay(mut self, d: SimDuration) -> Self {
        self.propagation_delay = d;
        self
    }

    /// Sets the redo-log retention (entries kept for recovery suffixes).
    pub fn with_log_retention(mut self, r: Option<usize>) -> Self {
        self.log_retention = r;
        self
    }

    /// Sets the durable log tier configuration.
    pub fn with_durability(mut self, d: DurabilityConfig) -> Self {
        self.durability = d;
        self
    }

    /// Sets the client retry timeout: the wait before every re-submission.
    /// It overrides the network-tuned default.
    pub fn with_retry_after(mut self, d: SimDuration) -> Self {
        self.retry_after = Some(d);
        self
    }

    /// The client retry timeout the run uses: the one set, else one tuned
    /// to the network — 25,000 ticks, or 13 worst-case one-way delays
    /// where that is longer (a WAN), so a reply still on its way is not
    /// re-requested.
    pub fn retry_after(&self) -> SimDuration {
        self.retry_after
            .unwrap_or_else(|| tuned_retry(&self.network))
    }

    /// Enables or disables tracing.
    pub fn with_trace(mut self, t: bool) -> Self {
        self.trace = t;
        self
    }

    /// Sets the run deadline.
    pub fn with_max_time(mut self, t: SimTime) -> Self {
        self.max_time = t;
        self
    }

    /// Sets the client arrival process.
    pub fn with_arrival(mut self, a: Arrival) -> Self {
        self.arrival = a;
        self
    }

    /// Whether servers should run lean: skip the per-run bookkeeping
    /// (execution history, client table) that the exact collection path
    /// and the retries consume. True exactly for the open loop, which
    /// reads neither and whose pipelined clients never retry.
    pub fn lean_servers(&self) -> bool {
        matches!(self.arrival, Arrival::OpenAggregated { .. })
    }

    /// Whether a member of the run can ever ask to be refilled from what
    /// the group delivered: true iff the fault plan or the membership
    /// plan is non-empty or the network loses messages. A crash, a volume
    /// loss, a join, a retiring sequencer or a lost ordered message needs
    /// the ordering layer's replay log and arena spans that outlive their
    /// last planned read; any other run keeps no replay log and lets the
    /// arena retire spans.
    pub fn can_replay(&self) -> bool {
        let lossy = self.network.drop_prob > 0.0;
        lossy || !self.faults.events().is_empty() || !self.membership.is_empty()
    }
}

/// The maximum client population of a run: virtual client ids are packed
/// into the low 20 bits of server-side transaction ids
/// (`crate::protocols::common::txn_for_op`), so ids must stay below
/// 2^20. One full million clients fits.
pub const MAX_CLIENTS: u32 = 1 << 20;

/// One-way worst-case network delay of a profile.
fn max_delay(net: &NetworkConfig) -> u64 {
    net.base_latency.ticks() + net.jitter.ticks()
}

/// Failure-detector parameters scaled to the network: heartbeats must
/// outpace suspicion even at the profile's worst-case latency, or every
/// member falsely suspects every other on a WAN.
fn tuned_fd(net: &NetworkConfig) -> FdConfig {
    let d = max_delay(net);
    FdConfig {
        interval: SimDuration::from_ticks((2 * d).max(500)),
        miss_threshold: 3,
    }
}

/// Consensus round timeout scaled to the network (a round needs ~3 one-way
/// delays; time out only well after that).
fn tuned_consensus(net: &NetworkConfig) -> ConsensusConfig {
    let d = max_delay(net);
    ConsensusConfig {
        round_timeout: SimDuration::from_ticks((8 * d).max(2_000)),
    }
}

/// View-synchrony parameters scaled to the network.
fn tuned_vs(net: &NetworkConfig) -> VsConfig {
    let d = max_delay(net);
    VsConfig {
        fd: tuned_fd(net),
        consensus: tuned_consensus(net),
        flush_retry: SimDuration::from_ticks((10 * d).max(3_000)),
        join_retry: tuned_join_retry(net),
    }
}

/// A joiner's retry cadence scaled to the network, for VSCAST's join and
/// the replica shell's `JoinReq` alike: a retry must not fire before a
/// round trip can answer it. Exactly [`JOIN_RETRY_TICKS`] on a LAN.
pub(crate) fn tuned_join_retry(net: &NetworkConfig) -> SimDuration {
    SimDuration::from_ticks((12 * max_delay(net)).max(JOIN_RETRY_TICKS))
}

/// Client retry timeout scaled to the network (see
/// [`RunConfig::retry_after`]); exactly 25,000 ticks on a LAN. The factor
/// is twice the longest wait of the WAN probe in
/// `tests/network_profiles.rs`, 6.05 one-way delays (a Semi-Passive
/// operation that arrives while an instance decides waits for the next).
fn tuned_retry(net: &NetworkConfig) -> SimDuration {
    SimDuration::from_ticks((13 * max_delay(net)).max(25_000))
}

/// Semi-passive deferral step scaled to the network.
fn tuned_defer(net: &NetworkConfig) -> SimDuration {
    SimDuration::from_ticks((6 * max_delay(net)).max(3_000))
}

/// Why an experiment run could not be performed.
///
/// Configuration problems are reported as typed variants so sweep
/// drivers can surface them per cell instead of tearing down the whole
/// study; [`RunError::Internal`] wraps a panic from inside the
/// simulation (a bug, not a configuration error).
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// `cfg.faults` is ill-formed for this configuration (see
    /// [`FaultPlan::validate`]): an event names a node outside the
    /// server set, recovers a node that is not down, crashes a node
    /// twice, or is scheduled past `cfg.max_time`.
    InvalidFaultPlan(FaultPlanError),
    /// `cfg.membership` is ill-formed for this configuration (see
    /// [`MembershipPlan::validate`]): a join names an existing or sparse
    /// node id, a drain names a non-member, a node is drained twice, or
    /// an event is scheduled past `cfg.max_time`.
    InvalidMembershipPlan(MembershipPlanError),
    /// The configuration asks for zero servers.
    NoServers,
    /// The configuration asks for more clients than transaction ids can
    /// address (client ids occupy 20 bits; see [`MAX_CLIENTS`]). Packing
    /// larger populations would silently alias distinct clients onto the
    /// same transaction ids.
    TooManyClients {
        /// The requested client count.
        clients: u32,
        /// The maximum supported ([`MAX_CLIENTS`]).
        max: u32,
    },
    /// The sharded (partial-replication) configuration is unsupported:
    /// more shards than keys, a non-closed arrival process, a membership
    /// plan, cross-shard traffic on a technique without a cross-group
    /// commit path, faults combined with cross-shard traffic, or a
    /// locking variant (`Detect`, rowa) that has no global order across
    /// groups. The payload says which rule was violated.
    Sharded(String),
    /// The simulation itself panicked; the payload is the panic message.
    Internal(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::InvalidFaultPlan(e) => write!(f, "invalid fault plan: {e}"),
            RunError::InvalidMembershipPlan(e) => write!(f, "invalid membership plan: {e}"),
            RunError::NoServers => write!(f, "configuration has zero servers"),
            RunError::TooManyClients { clients, max } => write!(
                f,
                "configuration has {clients} clients but transaction ids only address {max}"
            ),
            RunError::Sharded(msg) => write!(f, "invalid sharded configuration: {msg}"),
            RunError::Internal(msg) => write!(f, "run failed internally: {msg}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::InvalidFaultPlan(e) => Some(e),
            RunError::InvalidMembershipPlan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FaultPlanError> for RunError {
    fn from(e: FaultPlanError) -> Self {
        RunError::InvalidFaultPlan(e)
    }
}

impl From<MembershipPlanError> for RunError {
    fn from(e: MembershipPlanError) -> Self {
        RunError::InvalidMembershipPlan(e)
    }
}

/// Runs one experiment and collects the report, reporting configuration
/// problems as a typed [`RunError`] instead of panicking.
///
/// This is the entry point sweep drivers use: the closure
/// `move || try_run(&cfg)` is `Send`, so cells can be fanned out across
/// worker threads, and a bad cell yields an `Err` for that cell only. A
/// panic from inside the simulation is caught and reported as
/// [`RunError::Internal`].
///
/// # Errors
///
/// [`RunError::NoServers`] when `cfg.servers == 0`;
/// [`RunError::TooManyClients`] when `cfg.clients` exceeds [`MAX_CLIENTS`];
/// [`RunError::Sharded`] when a sharded configuration asks for what the
/// engine cannot honour; [`RunError::InvalidMembershipPlan`] when
/// `cfg.membership` fails validation; [`RunError::InvalidFaultPlan`] when
/// `cfg.faults` fails validation against every node the run may hold and
/// `cfg.max_time`; [`RunError::Internal`] when the run panicked.
pub fn try_run(cfg: &RunConfig) -> Result<RunReport, RunError> {
    if cfg.servers == 0 {
        return Err(RunError::NoServers);
    }
    if cfg.clients > MAX_CLIENTS {
        return Err(RunError::TooManyClients {
            clients: cfg.clients,
            max: MAX_CLIENTS,
        });
    }
    if cfg.workload.shards > 1 {
        validate_sharded(cfg)?;
    }
    // `shards` groups of `cfg.servers` founders, then the planned joiners
    // (admitted at one group only); fault ids range over all of them.
    let founders = cfg.workload.shards.max(1) * cfg.servers;
    cfg.membership.validate(founders, cfg.max_time)?;
    cfg.faults
        .validate(cfg.membership.peak_servers(founders), cfg.max_time)?;
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dispatch(cfg))).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic".to_string());
        RunError::Internal(msg)
    })
}

/// Runs one experiment and collects the report.
///
/// # Panics
///
/// Panics if the configuration is rejected by [`try_run`] — most
/// commonly an ill-formed `cfg.faults` (the message starts with
/// `"invalid fault plan"`). Binaries that want a nonzero exit instead
/// of a panic should call [`try_run`] and handle the error.
pub fn run(cfg: &RunConfig) -> RunReport {
    try_run(cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Builds the run's payload arena: one arena shared by every server of
/// the world (worlds are single-threaded, so an `Rc` suffices). A run
/// that can replay ([`RunConfig::can_replay`]) disarms span GC — rejoin
/// and join transfers and re-deliveries to recovering servers may skip
/// releases, so those runs trade a bounded leak for never retiring a span
/// that could still be read.
fn run_arena(cfg: &RunConfig) -> repl_db::SharedArena {
    let arena = repl_db::shared_arena();
    if cfg.can_replay() {
        arena.borrow_mut().set_gc(false);
    }
    arena
}

/// Rejects sharded configurations the engine cannot honour. Called by
/// [`try_run`] only when `cfg.workload.shards > 1`.
///
/// Cross-shard traffic needs genuine cross-group coordination, which
/// only three techniques implement: active replication and eager
/// update-everywhere ABCAST (genuine atomic multicast to the touched
/// groups), and eager update-everywhere locking (2PC over the union of
/// the touched groups). At `cross_shard_ratio == 0` the groups never
/// interact and *every* technique runs, one independent instance per
/// shard. Faults are allowed only in that independent regime — the
/// genuine-multicast and union-2PC paths are not fault-tolerant (the
/// paper's protocols assume a view-synchronous group per *replica set*,
/// not across sets).
fn validate_sharded(cfg: &RunConfig) -> Result<(), RunError> {
    let w = &cfg.workload;
    if let Err(e) = ShardMap::try_new(w.items, w.shards) {
        return Err(RunError::Sharded(e.to_string()));
    }
    if !matches!(cfg.arrival, Arrival::Closed) {
        return Err(RunError::Sharded(
            "sharded runs support the closed-loop arrival process only".into(),
        ));
    }
    if !cfg.membership.is_empty() {
        return Err(RunError::Sharded(
            "membership plans are not supported in sharded runs".into(),
        ));
    }
    if w.cross_shard_ratio > 0.0 {
        match cfg.technique {
            Technique::Active
            | Technique::EagerUpdateEverywhereAbcast
            | Technique::EagerUpdateEverywhereLocking => {}
            t => {
                return Err(RunError::Sharded(format!(
                    "{t} has no cross-group commit path; cross-shard transactions \
                     need active, eager-UE abcast or eager-UE locking"
                )));
            }
        }
        if !cfg.faults.events().is_empty() {
            return Err(RunError::Sharded(
                "faults are not supported together with cross-shard transactions".into(),
            ));
        }
        if cfg.technique == Technique::EagerUpdateEverywhereLocking {
            if cfg.deadlock != DeadlockPolicy::WoundWait {
                return Err(RunError::Sharded(
                    "cross-shard locking needs the wound-wait policy (global deadlock order)"
                        .into(),
                ));
            }
            if cfg.rowa {
                return Err(RunError::Sharded(
                    "rowa reads are incompatible with cross-shard locking".into(),
                ));
            }
        } else if cfg.batching.enabled() {
            return Err(RunError::Sharded(
                "batching is not supported on the genuine-multicast path".into(),
            ));
        }
    }
    Ok(())
}

/// Technique dispatch: monomorphises the driver for the technique's
/// server type; each closure makes one bare server over the keyspace
/// [`drive`] scopes it to, which `drive` then equips and seats. Assumes
/// `cfg` was already validated.
fn dispatch(cfg: &RunConfig) -> RunReport {
    let c = cfg;
    let (cons, vs) = (tuned_consensus(&c.network), tuned_vs(&c.network));
    let (delay, defer) = (c.propagation_delay, tuned_defer(&c.network));
    match c.technique {
        Technique::Active => drive(c, |site, me, group, ks| {
            ActiveServer::new(site, me, group, ks, c.exec, c.abcast, cons).with_batching(c.batching)
        }),
        Technique::Passive => drive(c, |site, me, group, ks| {
            PassiveServer::new(site, me, group, ks, c.exec, vs)
        }),
        Technique::SemiActive => drive(c, |site, me, group, ks| {
            SemiActiveServer::new(site, me, group, ks, c.exec, c.abcast, vs)
                .with_batching(c.batching)
        }),
        Technique::SemiPassive => drive(c, |site, me, group, ks| {
            SemiPassiveServer::new(site, me, group, ks, c.exec, defer, cons)
                .with_log_retention(c.log_retention)
        }),
        Technique::EagerPrimary => drive(c, |site, me, group, ks| {
            EagerPrimaryServer::new(site, me, group, ks, c.exec)
                .with_batching(c.batching)
                .with_log_retention(c.log_retention)
        }),
        Technique::EagerUpdateEverywhereLocking => drive(c, |site, me, group, ks| {
            EulServer::new(site, me, group, ks, c.exec, c.deadlock).with_rowa(c.rowa)
        }),
        Technique::EagerUpdateEverywhereAbcast => drive(c, |site, me, group, ks| {
            EuaServer::new(site, me, group, ks, c.exec, c.abcast, cons).with_batching(c.batching)
        }),
        Technique::LazyPrimary => drive(c, |site, me, group, ks| {
            LazyPrimaryServer::new(site, me, group, ks, c.exec, delay)
                .with_batching(c.batching)
                .with_log_retention(c.log_retention)
        }),
        Technique::LazyUpdateEverywhere => drive(c, |site, me, group, ks| {
            LazyUeServer::new(site, me, group, ks, c.exec, delay, cons).with_reconcile(c.reconcile)
        }),
        Technique::Certification => drive(c, |site, me, group, ks| {
            CertServer::new(site, me, group, ks, c.exec, c.abcast, cons).with_batching(c.batching)
        }),
    }
}

/// A world for `nodes` servers, its trace pre-sized from the workload:
/// the trace keeps only phase marks and fault records — at most 4.62 per
/// transaction in the study (Certification), sends and deliveries are
/// only hashed — so five per transaction. The cap bounds the up-front buy
/// for huge sweeps; a longer run grows the log as it goes.
fn new_world<M: repl_sim::Message>(cfg: &RunConfig, nodes: u32) -> World<M> {
    let txns = u64::from(cfg.clients) * u64::from(cfg.workload.txns_per_client);
    let est = txns.saturating_mul(5).min(1 << 16) as usize;
    World::new(
        SimConfig::new(cfg.seed)
            .with_network(cfg.network.clone())
            .with_trace(cfg.trace)
            .with_trace_capacity(est)
            .with_coordination_nodes(nodes),
    )
}

/// Schedules the fault plan into the world.
fn schedule_faults<M: repl_sim::Message>(world: &mut World<M>, faults: &FaultPlan) {
    for ev in faults.events() {
        match ev {
            FaultEvent::Crash { at, node } => world.schedule_crash(*at, *node),
            FaultEvent::Recover { at, node } => world.schedule_recover(*at, *node),
            FaultEvent::Net { at, fault } => world.schedule_net_fault(*at, fault.clone()),
            FaultEvent::VolumeLoss { at, node } => world.schedule_volume_loss(*at, *node),
        }
    }
}

/// Where the workload stood when the clients finished (or the deadline
/// hit), before the grace drain.
struct Completion {
    /// Message accounting stops here: the drain only exists to let lazy
    /// propagation settle, and its background traffic (heartbeats) must
    /// not be charged to the workload.
    messages: repl_sim::Metrics,
    /// Unanswered operations have their unavailability window measured
    /// to this instant.
    at: SimTime,
}

/// Starts the world, runs it until `all_done` or the deadline, then lets
/// lazy propagation, pending decisions and flush traffic drain so
/// convergence is measured after quiescence.
fn run_to_quiescence<M: repl_sim::Message>(
    world: &mut World<M>,
    cfg: &RunConfig,
    all_done: impl Fn(&World<M>) -> bool,
) -> Completion {
    world.start();
    let chunk = SimDuration::from_ticks(5_000);
    loop {
        let next = world.now() + chunk;
        world.run_until(next);
        if all_done(world) || world.now() >= cfg.max_time {
            break;
        }
    }
    let completion = Completion {
        messages: world.metrics(),
        at: world.now(),
    };
    let grace = cfg.propagation_delay + SimDuration::from_ticks(50_000);
    world.run_until(world.now() + grace);
    completion
}

/// What the clients observed.
struct ClientTally {
    latencies: LatencyStats,
    records: Vec<(u32, OpRecord)>,
    completed: u64,
    committed: u64,
    aborted: u64,
    unanswered: u64,
    retries: u64,
    /// Aggregated open loop only: the merged streaming histogram.
    latency_hist: Option<LatencyHistogram>,
    peak_outstanding: u64,
    /// Aggregated open loop only: one worst gap per client *group*, and
    /// the latest response over all groups.
    group_worst_gaps: Vec<SimDuration>,
    group_last_response: Option<SimTime>,
}

impl ClientTally {
    fn new() -> Self {
        ClientTally {
            latencies: LatencyStats::new(),
            records: Vec::new(),
            completed: 0,
            committed: 0,
            aborted: 0,
            unanswered: 0,
            retries: 0,
            latency_hist: None,
            peak_outstanding: 0,
            group_worst_gaps: Vec::new(),
            group_last_response: None,
        }
    }

    /// Counts and keeps one client's per-operation record.
    fn add(&mut self, client: u32, rec: OpRecord) {
        self.retries += rec.retries as u64;
        match rec.latency() {
            Some(lat) => {
                self.completed += 1;
                if rec.committed() {
                    self.committed += 1;
                } else {
                    self.aborted += 1;
                }
                self.latencies.record(lat);
            }
            None => self.unanswered += 1,
        }
        self.records.push((client, rec));
    }
}

/// What the servers hold after a run.
struct ServerFold {
    history: repl_db::ReplicatedHistory,
    fingerprints: Vec<u64>,
    aborts: u64,
    reconciliations: u64,
    wounds: u64,
    suspicions: u64,
    recoveries: Vec<NodeRecovery>,
    durability: DurabilityReport,
    payload: repl_db::ArenaStats,
    /// Sharded runs: [`ShardingReport::foreign_resident`].
    foreign_resident: u64,
}

/// Folds every node of `nodes` that was ever a member: histories merge,
/// counters and durability figures add up, recoveries are listed per
/// site, and the arena they shared is read once. Convergence
/// fingerprints come from the nodes `converges` admits only — a drained
/// node's store is legitimately frozen at its departure.
///
/// Each replica's history is *taken*: every replica records under its
/// own site only, so the fold moves whole site logs and the run never
/// holds a second copy. Nothing reads a replica's history after this —
/// [`report`] reads `fold.history` and the world's [`WorldEnd`].
fn fold_servers<T: Flow>(
    world: &mut World<Wire<T::Msg>>,
    cfg: &RunConfig,
    arena: &repl_db::SharedArena,
    nodes: u32,
    map: Option<ShardMap>,
    converges: impl Fn(NodeId) -> bool,
) -> ServerFold {
    let mut fold = ServerFold {
        history: repl_db::ReplicatedHistory::new(),
        fingerprints: Vec::new(),
        aborts: 0,
        reconciliations: 0,
        wounds: 0,
        suspicions: 0,
        recoveries: Vec::new(),
        durability: DurabilityReport {
            enabled: cfg.durability.enabled,
            ..Default::default()
        },
        payload: arena.borrow().stats(),
        foreign_resident: 0,
    };
    let d = &mut fold.durability;
    for site in 0..nodes {
        let node = NodeId::new(site);
        let srv = world.actor_mut::<Replica<T>>(node);
        fold.history.absorb(take(&mut srv.shell.base.history));
        let base = &srv.shell.base;
        if converges(node) {
            fold.fingerprints.push(base.store.fingerprint());
        }
        fold.aborts += base.aborted;
        let extra = srv.tech.extra_stats();
        fold.reconciliations += extra.reconciliations;
        fold.wounds += extra.wounds;
        fold.suspicions += extra.suspicions + srv.shell.suspicions();
        // Sharded runs have founders only: each holds one shard.
        if let Some(map) = map {
            let (lo, hi) = map.range(site / cfg.servers);
            let (wlo, whi) = base.keyspace().window();
            let in_shard = whi.min(hi).saturating_sub(wlo.max(lo));
            fold.foreign_resident +=
                whi - wlo - in_shard + base.store.spilled() as u64 + extra.spilled_locks;
        }
        d.volume_wipes += base.volume_wipes;
        if let Some(tier) = &base.tier {
            d.lost_commits += tier.lost().len() as u64;
            d.claimed_lost
                .extend(tier.lost().iter().map(|&t| op_of_txn(t)));
            d.restores += tier.restores;
            d.restore_bytes += tier.restore_bytes;
            d.restore_ticks += tier.restore_ticks;
        }
        let r = &base.recovery;
        if r.recoveries > 0 {
            fold.recoveries.push(NodeRecovery {
                site,
                recoveries: r.recoveries,
                rejoin_at: r.rejoin_at,
                catch_up_ticks: r.catch_up_ticks(),
                transfer_bytes: r.transfer_bytes,
                log_suffix_transfers: r.log_suffix_transfers,
                snapshot_transfers: r.snapshot_transfers,
            });
        }
    }
    d.claimed_lost.sort_unstable();
    d.claimed_lost.dedup();
    fold
}

/// Availability: per-client worst request→response gap (unanswered ops
/// count to `completed_at`), and failover latency anchored at the plan's
/// first crash. Fault counts come from the world's final metrics so
/// faults applied during the drain are still visible. On aggregated runs
/// the gap vector is per *group* (one aggregate actor per server group),
/// not per client.
fn availability(
    cfg: &RunConfig,
    tally: &mut ClientTally,
    completed_at: SimTime,
    final_metrics: &repl_sim::Metrics,
    recoveries: Vec<NodeRecovery>,
) -> Availability {
    let per_client_worst_gap = if tally.latency_hist.is_some() {
        std::mem::take(&mut tally.group_worst_gaps)
    } else {
        let mut worst_gaps = vec![SimDuration::ZERO; cfg.clients as usize];
        for (cno, rec) in &tally.records {
            let gap = rec.responded.unwrap_or(completed_at) - rec.invoked;
            let worst = &mut worst_gaps[*cno as usize];
            *worst = (*worst).max(gap);
        }
        worst_gaps
    };
    let failover_latency = cfg.faults.first_crash_time().and_then(|crash| {
        tally
            .records
            .iter()
            .filter_map(|(_, r)| match (r.responded, r.committed()) {
                (Some(at), true) if at >= crash => Some(at),
                _ => None,
            })
            .min()
            .map(|at| at - crash)
    });
    Availability {
        per_client_worst_gap,
        failover_latency,
        faults_injected: final_metrics.faults_injected(),
        repairs_applied: final_metrics.repairs_applied(),
        recoveries,
    }
}

/// What the report reads of a finished world, kept so the world can be
/// dropped before the client records are copied.
struct WorldEnd {
    metrics: repl_sim::Metrics,
    phase_trace: PhaseTrace,
    trace_hash: u64,
    now: SimTime,
}

/// Assembles the report of a finished run from what its dropped world
/// left, the client tally and the server fold.
fn report(
    cfg: &RunConfig,
    end: WorldEnd,
    servers: u32,
    completion: Completion,
    mut tally: ClientTally,
    fold: ServerFold,
    sharding: ShardingReport,
) -> RunReport {
    let availability = availability(
        cfg,
        &mut tally,
        completion.at,
        &end.metrics,
        fold.recoveries,
    );
    // Duration = completion of the workload (last client response), not
    // the grace period: throughput must not be diluted by idle drain time.
    let duration = tally
        .records
        .iter()
        .filter_map(|(_, r)| r.responded)
        .max()
        .or(tally.group_last_response)
        .unwrap_or(end.now);
    RunReport {
        technique: cfg.technique,
        servers,
        clients: cfg.clients,
        duration,
        latencies: tally.latencies,
        latency_hist: tally.latency_hist,
        peak_outstanding: tally.peak_outstanding,
        ops_completed: tally.completed,
        ops_committed: tally.committed,
        ops_aborted: tally.aborted,
        ops_unanswered: tally.unanswered,
        client_retries: tally.retries,
        messages: completion.messages,
        fingerprints: fold.fingerprints,
        history: fold.history,
        phase_trace: end.phase_trace,
        records: tally.records,
        reconciliations: fold.reconciliations,
        wounds: fold.wounds,
        suspicions: fold.suspicions,
        server_aborts: fold.aborts,
        availability,
        durability: fold.durability,
        payload: fold.payload,
        sharding,
        trace_hash: end.trace_hash,
    }
}

/// The server a given client prefers: the primary for the primary-copy
/// techniques where clients address the master, its "local" server
/// otherwise (the paper's update-everywhere and lazy models).
fn preferred_server(technique: Technique, client: u32, servers: u32) -> usize {
    match technique {
        Technique::Passive | Technique::EagerPrimary => 0,
        _ => (client % servers) as usize,
    }
}

/// Partitions the virtual client population into per-server groups for
/// the aggregated open-loop engine, mirroring [`preferred_server`]: the
/// primary-copy techniques put everyone in one group aimed at the
/// primary, the rest split round-robin by `client % servers`. Empty
/// groups are omitted.
fn client_groups(technique: Technique, clients: u32, servers: u32) -> Vec<(ClientGroup, usize)> {
    match technique {
        Technique::Passive | Technique::EagerPrimary => {
            if clients == 0 {
                return Vec::new();
            }
            vec![(
                ClientGroup {
                    first: 0,
                    stride: 1,
                    count: clients,
                },
                0,
            )]
        }
        _ => (0..servers)
            .filter_map(|s| {
                let count = clients / servers + u32::from(s < clients % servers);
                (count > 0).then_some((
                    ClientGroup {
                        first: s,
                        stride: servers,
                        count,
                    },
                    s as usize,
                ))
            })
            .collect(),
    }
}

/// Per group, the transactions with a write in the group's shard and
/// those writes: what each founder of the group records of `workload`
/// when every member installs every write of its shard. Reads, retried
/// attempts and other sites' executions come on top; aborts, Thomas-rule
/// losses, a member's outage or a wiped volume record less.
fn writes_per_group(
    workload: &TxnList,
    map: Option<ShardMap>,
    groups: usize,
) -> Vec<(usize, usize)> {
    let group = |op: &OpTemplate| map.map_or(0, |m| m.shard_of(op.key()) as usize);
    let mut per_group = vec![(0, 0); groups];
    for txn in workload.iter() {
        for (i, op) in txn.ops.iter().enumerate().filter(|(_, o)| o.is_write()) {
            let g = group(op);
            let earlier = txn.ops[..i].iter().any(|o| o.is_write() && group(o) == g);
            per_group[g].0 += usize::from(!earlier);
            per_group[g].1 += 1;
        }
    }
    per_group
}

/// The driver. `shards` replica groups of `n = cfg.servers` nodes share
/// one simulated world — group `g` owns shard `g` and spans nodes
/// `g*n .. (g+1)*n` — followed by the membership plan's joiners; a fully
/// replicated run is the one-group case. Partial replication is partial
/// in memory: `build` gets the workload's keyspace scoped to the group's
/// [`ShardMap::range`], so a founder's store, lock table and certifier
/// hold slots for its own shard only, while still answering for the
/// whole domain (snapshots and fingerprints cover it, other keys stay
/// implicit). Joiners and one-group runs get the full window.
/// Fingerprints converge per group ([`RunReport::converged`]).
///
/// Single-shard transactions run the stock protocol in the owning group;
/// with `cross_shard_ratio > 0` the three cross-capable techniques
/// coordinate across the touched groups (genuine atomic multicast or
/// union-cohort 2PC), and only then are servers put in cross-shard mode.
/// Histories merge across *all* groups before the 1SR oracle: a
/// cross-shard transaction carries one global id, so the merged history
/// splices its per-shard pieces back into one serialization point.
///
/// A finished run drops its world before it copies the client records:
/// it takes each client's records, folds the servers, keeps the world's
/// [`WorldEnd`], drops the world and only then tallies the records, so
/// the servers' state and the report's copy of the records are never
/// alive together. Records reach the report in client order.
fn drive<T: Flow>(
    cfg: &RunConfig,
    build: impl Fn(u32, NodeId, Vec<NodeId>, Keyspace) -> Replica<T>,
) -> RunReport {
    let n = cfg.servers;
    let shards = cfg.workload.shards.max(1);
    // One group consults no shard map: its clients are not routed.
    let map = (shards > 1).then(|| cfg.workload.shard_map());
    let cross_map = map.filter(|_| cfg.workload.cross_shard_ratio > 0.0);
    // Joiners (one-group runs only, see `validate_sharded`) occupy the
    // actor slots after the founders, dormant until their scheduled spawn.
    let founders = shards * n;
    let nodes = cfg.membership.peak_servers(founders);
    let mut world: World<Wire<T::Msg>> = new_world(cfg, nodes);
    let (arena, fd) = (run_arena(cfg), tuned_fd(&cfg.network));
    let join = tuned_join_retry(&cfg.network);
    let aggregated = matches!(cfg.arrival, Arrival::OpenAggregated { .. });
    // Per-client workloads are drawn up front (an aggregate draws as it
    // goes): one generator restarted on each client's seed, so a
    // client's stream is what a generator of its own would draw, the
    // sampling tables are built once, and every stream sits in one
    // shared body and list.
    let txns_each = cfg.workload.txns_per_client as usize;
    let workload = (!aggregated).then(|| {
        let client_seed = |c: u32| cfg.seed.wrapping_mul(1_000_003) + u64::from(c);
        let mut gen = WorkloadGen::new(&cfg.workload, client_seed(0));
        gen.take_streams((0..cfg.clients).map(client_seed), txns_each)
    });
    let recorded = workload
        .as_ref()
        .map(|w| writes_per_group(w, map, shards as usize));
    for site in 0..nodes {
        let me = NodeId::new(site);
        let joiner = site >= founders;
        // A joiner is seeded with the last group's initial membership
        // plus itself so its join handshake can address rank 0; the
        // Welcome replaces that seed with the live view.
        let gid = (site / n).min(shards - 1);
        let mut group: Vec<NodeId> = (gid * n..(gid + 1) * n).map(NodeId::new).collect();
        if joiner {
            group.push(me);
        }
        // Joiners exist in one-group runs only, which consult no map.
        let ks = map.map_or(cfg.workload.keyspace(), |m| {
            let (lo, hi) = m.range(gid);
            cfg.workload.keyspace().scoped(lo, hi)
        });
        // The run-wide setup: durable tier, lean mode, whether the run
        // can replay, the shared arena, the heartbeat and join timing.
        let mut srv = build(site, me, group, ks);
        let (lean, can_replay) = (cfg.lean_servers(), cfg.can_replay());
        srv.equip(&cfg.durability, lean, can_replay, arena.clone(), fd, join);
        // A founder's history is sized once for the writes its group
        // installs (a no-op on lean servers).
        if let (false, Some(recorded)) = (joiner, &recorded) {
            let (txns, ops) = recorded[gid as usize];
            srv.shell.base.history.reserve(site, txns, ops);
        }
        if let Some(map) = cross_map {
            srv.enable_cross_shard(ShardCtx::new(map, n, gid));
        }
        if joiner {
            srv.begin_join();
            world.add_dormant_actor(Box::new(srv));
        } else {
            world.add_actor(Box::new(srv));
        }
    }
    // Clients know every node (reroutes and retries can land anywhere, a
    // routed client indexes any group); one whose preferred server is a
    // planned joiner starts only after the join plus a transfer margin.
    let client_servers: Arc<[NodeId]> = (0..nodes).map(NodeId::new).collect();
    let join_start_after = |preferred: usize| -> SimDuration {
        cfg.membership
            .events()
            .iter()
            .find_map(|e| match e {
                MembershipEvent::Join { at, node } if node.index() == preferred => {
                    Some(SimDuration::from_ticks(at.ticks() + 5_000))
                }
                _ => None,
            })
            .unwrap_or(SimDuration::ZERO)
    };
    let reply_mode = match cfg.technique {
        // Genuine multicast delivers to the touched groups only; each
        // answers its own partial and the client merges them.
        Technique::Active | Technique::EagerUpdateEverywhereAbcast => ReplyMode::PerShard,
        // Everyone else answers in full from the contacted group (the
        // locking delegate gathers foreign reads itself).
        _ => ReplyMode::Full,
    };
    let mut clients = Vec::new();
    if let Arrival::OpenAggregated { mean, dist } = cfg.arrival {
        // One actor per server group stands for the whole population:
        // the group's stream runs `count` times faster than one client
        // (exact superposition for Poisson). The workload generator is
        // seeded per group; the arrival stream gets an independent seed
        // so gap draws never correlate with key/op draws.
        for (gi, (group, preferred)) in client_groups(cfg.technique, cfg.clients, n)
            .into_iter()
            .enumerate()
        {
            let gen = WorkloadGen::new(&cfg.workload, cfg.seed.wrapping_mul(1_000_003) + gi as u64);
            let group_mean = mean.max(1) as f64 / f64::from(group.count);
            let arrivals = ArrivalStream::new(
                dist,
                group_mean,
                cfg.seed
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(gi as u64 ^ 0x9E37_79B9_7F4A_7C15),
            );
            let actor: Box<dyn Actor<Wire<T::Msg>>> = Box::new(AggregateClients::<T::Msg>::new(
                group,
                Arc::clone(&client_servers),
                preferred,
                gen,
                arrivals,
                cfg.workload.txns_per_client,
            ));
            clients.push(world.add_actor(actor));
        }
    } else {
        let workload = workload.expect("per-client workloads are drawn up front");
        for c in 0..cfg.clients {
            let txns = workload.window(c as usize * txns_each, txns_each);
            // Clients spread over their contact list: the home group when
            // routed, else every node (those aimed at a joiner wait until
            // it is up).
            let contacts = if map.is_some() { n } else { nodes };
            let preferred = preferred_server(cfg.technique, c, contacts);
            let client = ClientActor::<T::Msg>::new(
                c,
                Arc::clone(&client_servers),
                preferred,
                txns,
                cfg.workload.think_time,
                cfg.retry_after(),
            )
            .with_start_after(join_start_after(preferred));
            let client = match map {
                Some(map) => client.with_routing(map, reply_mode),
                None => client,
            };
            clients.push(world.add_actor(Box::new(client)));
        }
    }
    schedule_faults(&mut world, &cfg.faults);
    for ev in cfg.membership.events() {
        match ev {
            MembershipEvent::Join { at, node } => world.schedule_spawn(*at, *node),
            MembershipEvent::Drain { at, node } => world.schedule_drain(*at, *node),
        }
    }
    let completion = run_to_quiescence(&mut world, cfg, |world| {
        clients.iter().all(|&c| match cfg.arrival {
            Arrival::OpenAggregated { .. } => {
                world.actor_ref::<AggregateClients<T::Msg>>(c).is_done()
            }
            _ => world.actor_ref::<ClientActor<T::Msg>>(c).is_done(),
        })
    });

    let mut tally = ClientTally::new();
    // Stays `ShardingReport::default()` at one group.
    let mut sharding = ShardingReport {
        shards,
        per_shard_ops: vec![0; map.map_or(0, |m| m.shards() as usize)],
        ..Default::default()
    };
    let per_client: Vec<Vec<OpRecord>> = if aggregated {
        // Constant-memory collection: merge each group's streaming
        // histogram and counters; no per-operation records exist.
        let mut hist = LatencyHistogram::new();
        for &c in &clients {
            let a = world.actor_ref::<AggregateClients<T::Msg>>(c);
            hist.merge(&a.hist);
            tally.committed += a.committed;
            tally.aborted += a.aborted;
            tally.completed += a.committed + a.aborted;
            tally.unanswered += a.outstanding.len() as u64;
            tally.peak_outstanding = tally.peak_outstanding.max(a.peak_outstanding);
            // The group's worst unavailability window: answered ops use
            // their response gap, in-flight ops count to the end of the
            // run, same convention as the per-client records.
            let in_flight = a.outstanding.values(); // sorted-below: commutative max
            let worst = in_flight.fold(a.worst_gap, |worst, &(invoked, _)| {
                worst.max(completion.at - invoked)
            });
            tally.group_worst_gaps.push(worst);
            tally.group_last_response = tally.group_last_response.max(a.last_response);
        }
        tally.latency_hist = Some(hist);
        Vec::new()
    } else {
        // The run is over: take the records so they exist once.
        let take_records = |&c| take(&mut world.actor_mut::<ClientActor<T::Msg>>(c).records);
        clients.iter().map(take_records).collect()
    };
    // Collect from every node that was ever a member (joiners included);
    // convergence is judged over the *final* membership only.
    let drained = cfg.membership.drained_nodes();
    let fold = fold_servers::<T>(&mut world, cfg, &arena, nodes, map, |node| {
        !drained.contains(&node)
    });
    sharding.foreign_resident = fold.foreign_resident;
    let end = WorldEnd {
        metrics: world.metrics(),
        phase_trace: PhaseTrace::from_trace(world.trace()),
        trace_hash: world.trace().hash(),
        now: world.now(),
    };
    // The servers' state (client tables, ordering logs, stores) goes
    // before the tally copies the records into one list, sized once.
    drop((world, arena));
    tally
        .records
        .reserve_exact(per_client.iter().map(Vec::len).sum());
    let answered = per_client
        .iter()
        .flatten()
        .filter(|r| r.responded.is_some());
    tally.latencies = LatencyStats::with_capacity(answered.count());
    for (cno, recs) in per_client.into_iter().enumerate() {
        for rec in recs {
            // A sharded run classifies its answered records by how
            // many shards they touch.
            if let (Some(map), Some(lat)) = (map, rec.latency()) {
                let touched = map.shards_of(&rec.txn);
                if touched.len() > 1 {
                    sharding.cross_shard_ops += 1;
                    sharding.cross_latency.record(lat);
                } else {
                    sharding.single_shard_ops += 1;
                    sharding.single_latency.record(lat);
                }
                // Home-shard accounting (first key's owner).
                sharding.per_shard_ops[touched[0] as usize] += 1;
            }
            tally.add(cno as u32, rec);
        }
    }
    report(cfg, end, founders, completion, tally, fold, sharding)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(technique: Technique) -> RunConfig {
        RunConfig::new(technique)
            .with_clients(2)
            .with_workload(
                WorkloadSpec::default()
                    .with_items(32)
                    .with_txns_per_client(5)
                    .with_read_ratio(0.5),
            )
            .with_seed(7)
    }

    #[test]
    fn every_technique_completes_a_small_run() {
        for technique in Technique::ALL {
            let report = run(&small(technique));
            assert_eq!(
                report.ops_unanswered, 0,
                "{technique}: unanswered ops ({report:?})"
            );
            assert!(report.ops_completed >= 10, "{technique}: too few ops");
            assert!(
                report.converged(),
                "{technique}: replicas diverged: {:?}",
                report.fingerprints
            );
        }
    }

    #[test]
    fn every_technique_reproduces_its_claimed_skeleton() {
        for technique in Technique::ALL {
            // Use update-only single-op workloads so the canonical
            // skeleton is the figure's update path; semi-active needs
            // non-determinism for its AC phase to exist.
            let mut cfg = small(technique).with_clients(1).with_workload(
                WorkloadSpec::default()
                    .with_items(16)
                    .with_txns_per_client(4)
                    .with_read_ratio(0.0),
            );
            if technique == Technique::SemiActive {
                cfg = cfg.with_exec(ExecutionMode::NonDeterministic);
            }
            if technique.info().propagation == crate::Propagation::Lazy {
                cfg = cfg.with_propagation_delay(SimDuration::from_ticks(2_000));
            }
            let report = run(&cfg);
            let sk = report.canonical_skeleton().expect("ops completed");
            assert_eq!(
                sk.to_string(),
                technique.claimed_skeleton(),
                "{technique}: measured skeleton differs"
            );
        }
    }

    #[test]
    fn strong_techniques_are_one_copy_serializable() {
        for technique in Technique::ALL {
            if technique.info().guarantee == crate::Guarantee::Weak {
                continue;
            }
            let report = run(&small(technique));
            report
                .check_one_copy_serializable()
                .unwrap_or_else(|e| panic!("{technique}: {e}"));
        }
    }

    #[test]
    fn each_replica_log_reaches_the_report_exactly_once() {
        // Fault-free Active, update-only: every replica executes every
        // write once, so the folded history holds exactly one copy of
        // each replica's log.
        let cfg = small(Technique::Active).with_servers(3).with_workload(
            WorkloadSpec::default()
                .with_items(32)
                .with_txns_per_client(5)
                .with_ops_per_txn(3)
                .with_read_ratio(0.0),
        );
        let report = run(&cfg);
        let w = &cfg.workload;
        let expected = cfg.servers * cfg.clients * w.txns_per_client * w.ops_per_txn;
        assert_eq!(report.history.len(), expected as usize);
        report.check_one_copy_serializable().expect("Active is 1SR");
    }

    #[test]
    fn report_accessors_are_consistent() {
        let report = run(&small(Technique::Active));
        assert!(report.throughput() > 0.0);
        assert!(report.messages_per_op() > 0.0);
        assert_eq!(
            report.ops_completed,
            report.ops_committed + report.ops_aborted
        );
        assert!(report.summary().contains("Active"));
        assert!(report.abort_rate() <= 1.0);
    }

    #[test]
    fn fault_free_run_has_trivial_availability() {
        let report = run(&small(Technique::Active));
        assert_eq!(report.faults_injected(), 0);
        assert_eq!(report.availability.failover_latency, None);
        assert_eq!(report.availability.per_client_worst_gap.len(), 2);
        // The worst gap is just the worst response time.
        let mut l = report.latencies.clone();
        assert_eq!(report.availability.worst_gap(), l.percentile(1.0));
    }

    #[test]
    fn ill_formed_fault_plan_is_rejected() {
        // Recover of a node that never crashed.
        let cfg = small(Technique::Active)
            .with_faults(FaultPlan::new().recover_at(SimTime::from_ticks(1_000), NodeId::new(1)));
        let err = try_run(&cfg).expect_err("plan must be rejected");
        assert!(matches!(err, RunError::InvalidFaultPlan(_)), "{err:?}");
        assert!(err.to_string().starts_with("invalid fault plan"));
    }

    #[test]
    fn fault_plan_outside_server_set_is_rejected() {
        // Node 7 does not exist in a 3-server world.
        let cfg = small(Technique::Active)
            .with_faults(FaultPlan::new().crash_at(SimTime::from_ticks(1_000), NodeId::new(7)));
        let err = try_run(&cfg).expect_err("plan must be rejected");
        assert!(matches!(
            err,
            RunError::InvalidFaultPlan(repl_workload::FaultPlanError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn run_still_panics_on_invalid_config_for_compat() {
        let cfg = small(Technique::Active)
            .with_faults(FaultPlan::new().crash_at(SimTime::from_ticks(1_000), NodeId::new(7)));
        let _ = run(&cfg);
    }

    #[test]
    fn zero_servers_is_a_typed_error() {
        let mut cfg = small(Technique::Active);
        cfg.servers = 0; // bypasses with_servers' assert, as struct literals can
        let err = try_run(&cfg).expect_err("zero servers must be rejected");
        assert_eq!(err, RunError::NoServers);
    }

    #[test]
    fn try_run_succeeds_and_matches_run() {
        let cfg = small(Technique::Active);
        let a = try_run(&cfg).expect("valid config");
        let b = run(&cfg);
        assert_eq!(a.digest(), b.digest(), "same seed, same digest");
        assert_ne!(a.trace_hash, 0);
    }

    #[test]
    fn too_many_clients_is_a_typed_error() {
        let cfg = small(Technique::Active).with_clients(MAX_CLIENTS + 1);
        let err = try_run(&cfg).expect_err("population above 2^20 must be rejected");
        assert_eq!(
            err,
            RunError::TooManyClients {
                clients: MAX_CLIENTS + 1,
                max: MAX_CLIENTS,
            }
        );
        assert!(err.to_string().contains("clients"));
        // The boundary itself is fine (ids 0..2^20 all pack).
        assert!(small(Technique::Active).with_clients(MAX_CLIENTS).clients <= MAX_CLIENTS);
    }

    #[test]
    fn client_groups_partition_the_population() {
        for technique in [
            Technique::Active,
            Technique::Passive,
            Technique::EagerPrimary,
        ] {
            for (clients, servers) in [(0u32, 3u32), (1, 3), (7, 3), (9, 3), (5, 8)] {
                let groups = client_groups(technique, clients, servers);
                let mut seen = std::collections::HashSet::new();
                for (g, preferred) in &groups {
                    assert!(*preferred < servers as usize);
                    for i in 0..g.count {
                        let id = g.first + i * g.stride;
                        assert!(id < clients, "virtual id {id} out of range");
                        assert!(seen.insert(id), "virtual id {id} appears twice");
                        assert_eq!(
                            *preferred,
                            preferred_server(technique, id, servers),
                            "group preference must match the per-client rule"
                        );
                    }
                }
                assert_eq!(
                    seen.len() as u32,
                    clients,
                    "{technique} {clients}c/{servers}s: population not covered"
                );
            }
        }
    }

    #[test]
    fn aggregated_open_loop_completes_for_every_technique() {
        for technique in Technique::ALL {
            let cfg = small(technique)
                .with_clients(6)
                .with_arrival(Arrival::OpenAggregated {
                    mean: 2_000,
                    dist: ArrivalDist::Poisson,
                })
                .with_trace(false);
            let report = run(&cfg);
            assert_eq!(
                report.ops_completed + report.ops_unanswered,
                6 * 5,
                "{technique}: budget not drained"
            );
            assert_eq!(report.ops_unanswered, 0, "{technique}: unanswered ops");
            let hist = report
                .latency_hist
                .as_ref()
                .expect("aggregated runs stream a histogram");
            assert_eq!(hist.count(), report.ops_completed, "{technique}");
            assert!(report.peak_outstanding >= 1, "{technique}");
            assert!(
                report.records.is_empty(),
                "{technique}: aggregated runs must not keep per-op records"
            );
            assert!(report.latencies.is_empty(), "{technique}");
            assert!(report.converged(), "{technique}: {:?}", report.fingerprints);
            assert!(report.summary().contains("ops=30"), "{technique}");
        }
    }

    #[test]
    fn aggregated_runs_are_deterministic() {
        let cfg = small(Technique::Certification)
            .with_clients(5)
            .with_arrival(Arrival::OpenAggregated {
                mean: 1_000,
                dist: ArrivalDist::Uniform,
            })
            .with_trace(false);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.digest(), b.digest(), "same seed, same aggregated digest");
        let c = run(&cfg.clone().with_seed(99));
        assert_ne!(a.digest(), c.digest(), "different seed, different digest");
    }

    #[test]
    fn run_closure_is_send() {
        // The sweep engine moves `try_run` closures across threads; this
        // is a compile-time check that they stay Send.
        fn assert_send<T: Send>(_: T) {}
        let cfg = small(Technique::Active);
        assert_send(move || try_run(&cfg));
        fn assert_send_ty<T: Send>() {}
        assert_send_ty::<RunConfig>();
        assert_send_ty::<RunReport>();
        assert_send_ty::<RunError>();
    }
}
