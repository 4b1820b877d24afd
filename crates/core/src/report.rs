//! The result of one experiment run: everything the figures, tables and
//! oracles need.

use repl_db::{ArenaStats, ReplicatedHistory, SerializabilityViolation, TxnId};
use repl_sim::{Fnv1a, LatencyHistogram, LatencyStats, Metrics, SimDuration, SimTime};

use crate::client::OpRecord;
use crate::consistency::{count_stale_reads, StaleRead};
use crate::op::OpId;
use crate::phase::{PhaseSkeleton, PhaseTrace};
use crate::technique::Technique;

/// Crash-recovery metrics of one server, populated when the fault plan
/// recovered it at least once. Times are virtual ticks.
#[derive(Debug, Clone, Default)]
pub struct NodeRecovery {
    /// Site index (dense, 0-based).
    pub site: u32,
    /// Recoveries the node went through.
    pub recoveries: u64,
    /// Tick of the last rejoin start (the recovery event).
    pub rejoin_at: Option<u64>,
    /// Ticks from the last rejoin until fully caught up — the node's
    /// contribution to MTTR. `None` if it never finished catching up.
    pub catch_up_ticks: Option<u64>,
    /// State-transfer bytes received across all recoveries.
    pub transfer_bytes: u64,
    /// Transfers served from a redo-log suffix.
    pub log_suffix_transfers: u64,
    /// Transfers served as full snapshots.
    pub snapshot_transfers: u64,
}

/// Durable-tier and disaster accounting of one run, aggregated across
/// servers. All-zero on runs without volume-loss faults.
#[derive(Debug, Clone, Default)]
pub struct DurabilityReport {
    /// Whether the run configured a durable log tier at all.
    pub enabled: bool,
    /// Volume-loss disasters applied across servers (tiered or not).
    pub volume_wipes: u64,
    /// Acknowledged commits erased before they were durable, summed
    /// over all wipes — the realised data-loss window.
    pub lost_commits: u64,
    /// The operations behind [`DurabilityReport::lost_commits`], for
    /// the no-silent-loss oracle (sorted, deduplicated). A loss is only
    /// acceptable when it is claimed here.
    pub claimed_lost: Vec<OpId>,
    /// Volume restores performed from the durable tier.
    pub restores: u64,
    /// Bytes downloaded from the tier during restores.
    pub restore_bytes: u64,
    /// Ticks servers spent deaf in restore downloads and log replay.
    pub restore_ticks: u64,
}

impl DurabilityReport {
    /// True when a disaster actually touched this run — the digest only
    /// mixes durability state in that case, so runs with a (quiescent or
    /// disabled) tier stay byte-identical to the untiered baseline.
    pub fn disaster(&self) -> bool {
        self.volume_wipes > 0 || self.restores > 0 || self.lost_commits > 0
    }
}

/// An acknowledged commit that a disaster silently erased: the client
/// was told "committed", no surviving replica knows the transaction,
/// and the run's data-loss accounting never claimed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SilentLoss {
    /// The client operation whose commit vanished.
    pub op: OpId,
    /// The transaction id it ran under.
    pub txn: TxnId,
}

impl std::fmt::Display for SilentLoss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "op {:?} (txn {:?}) was acknowledged committed but no replica remembers it \
             and the data-loss accounting never claimed it",
            self.op, self.txn
        )
    }
}

/// Availability metrics of one run, meaningful under a fault load.
///
/// All durations are virtual ticks. For operations still unanswered when
/// the run ended, the gap is measured to the end of the run (deadline or
/// last completion), so a stuck client shows a large — but finite —
/// window rather than disappearing from the metric.
#[derive(Debug, Clone, Default)]
pub struct Availability {
    /// Per-client worst unavailability window: the longest gap between
    /// submitting a request and receiving its response (client order).
    pub per_client_worst_gap: Vec<SimDuration>,
    /// Failover latency: time from the plan's first crash to the next
    /// committed response observed by any client. `None` when the plan
    /// has no crash or nothing committed afterwards.
    pub failover_latency: Option<SimDuration>,
    /// Disruptive fault events actually applied by the world (crashes,
    /// partitions, link faults).
    pub faults_injected: u64,
    /// Repair events actually applied (recoveries, heals, link repairs).
    pub repairs_applied: u64,
    /// Per-server crash-recovery accounting, for servers that recovered
    /// at least once (site order).
    pub recoveries: Vec<NodeRecovery>,
}

impl Availability {
    /// The worst unavailability window across all clients.
    pub fn worst_gap(&self) -> SimDuration {
        self.per_client_worst_gap
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// The best-off client's worst gap: whether the technique kept
    /// *anyone* fully unaffected (the paper's failure-transparency axis).
    pub fn best_client_gap(&self) -> SimDuration {
        self.per_client_worst_gap
            .iter()
            .copied()
            .min()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Mean time to repair across servers that completed a recovery:
    /// the average catch-up window, in ticks. `None` when no server
    /// finished recovering (or none recovered at all).
    pub fn mttr_ticks(&self) -> Option<u64> {
        let done: Vec<u64> = self
            .recoveries
            .iter()
            .filter_map(|r| r.catch_up_ticks)
            .collect();
        if done.is_empty() {
            return None;
        }
        Some(done.iter().sum::<u64>() / done.len() as u64)
    }

    /// Total recovery state-transfer bytes received across servers.
    pub fn transfer_bytes(&self) -> u64 {
        self.recoveries.iter().map(|r| r.transfer_bytes).sum()
    }
}

/// Partial-replication accounting of one sharded run.
///
/// `shards == 1` (the default) marks an unsharded run; the digest then
/// skips this block entirely, keeping unsharded digests byte-identical
/// to pre-sharding builds.
#[derive(Debug, Clone)]
pub struct ShardingReport {
    /// Number of shards (== replica groups). 1 on unsharded runs.
    pub shards: u32,
    /// Answered operations whose keys all lived in one shard.
    pub single_shard_ops: u64,
    /// Answered operations spanning more than one shard.
    pub cross_shard_ops: u64,
    /// Latency samples of the single-shard operations.
    pub single_latency: LatencyStats,
    /// Latency samples of the cross-shard operations.
    pub cross_latency: LatencyStats,
    /// Answered operations attributed to each home shard (shard order).
    pub per_shard_ops: Vec<u64>,
    /// Entries the founders' kernels hold for keys outside their own
    /// group's shard at the end of the run: dense slots their keyspace
    /// window has beyond the shard's range, plus store and lock-table
    /// entries spilled outside the window. Zero when partial replication
    /// is partial in memory. A residency count, not part of the digest.
    pub foreign_resident: u64,
}

impl Default for ShardingReport {
    fn default() -> Self {
        ShardingReport {
            shards: 1,
            single_shard_ops: 0,
            cross_shard_ops: 0,
            single_latency: LatencyStats::default(),
            cross_latency: LatencyStats::default(),
            per_shard_ops: Vec::new(),
            foreign_resident: 0,
        }
    }
}

impl ShardingReport {
    /// True when the run was actually sharded.
    pub fn sharded(&self) -> bool {
        self.shards > 1
    }
}

/// Aggregated outcome of a [`crate::run`] invocation.
#[derive(Debug)]
pub struct RunReport {
    /// The technique that ran.
    pub technique: Technique,
    /// Number of replica servers.
    pub servers: u32,
    /// Number of clients.
    pub clients: u32,
    /// Virtual time when the run ended.
    pub duration: SimTime,
    /// Response-time samples of completed operations. Empty on
    /// aggregated open-loop runs, which record into
    /// [`RunReport::latency_hist`] instead.
    pub latencies: LatencyStats,
    /// Constant-memory latency histogram, populated only by the
    /// aggregated open-loop engine (`None` on the exact store-all path,
    /// keeping its digests byte-identical to earlier revisions).
    pub latency_hist: Option<LatencyHistogram>,
    /// Peak in-flight operations across all client groups (aggregated
    /// open-loop runs; zero otherwise).
    pub peak_outstanding: u64,
    /// Operations answered (committed or aborted).
    pub ops_completed: u64,
    /// Operations answered with a commit.
    pub ops_committed: u64,
    /// Operations answered with an abort.
    pub ops_aborted: u64,
    /// Operations never answered before the deadline.
    pub ops_unanswered: u64,
    /// Client-side re-submissions.
    pub client_retries: u64,
    /// Network counters.
    pub messages: Metrics,
    /// Final store fingerprints, one per server (site order).
    pub fingerprints: Vec<u64>,
    /// The merged multi-site execution history.
    pub history: ReplicatedHistory,
    /// Phase markers (empty when tracing was disabled).
    pub phase_trace: PhaseTrace,
    /// Raw client records `(client, record)`.
    pub records: Vec<(u32, OpRecord)>,
    /// Writes discarded by lazy reconciliation.
    pub reconciliations: u64,
    /// Wound-wait / detection victims across servers.
    pub wounds: u64,
    /// Suspicions the servers' failure detectors raised (a fault-free run
    /// raises none); not part of [`RunReport::digest`].
    pub suspicions: u64,
    /// Server-side transaction aborts (wounds, certification failures).
    pub server_aborts: u64,
    /// Availability metrics (unavailability windows, failover latency,
    /// fault counts).
    pub availability: Availability,
    /// Durable-tier accounting (uploads, disasters, restores, loss).
    pub durability: DurabilityReport,
    /// The payload arena's counters at the end of the run: writesets
    /// interned, retired and still resident. All zero for techniques
    /// that ship no writesets; a representation detail, so not part of
    /// [`RunReport::digest`].
    pub payload: ArenaStats,
    /// Partial-replication accounting (`shards == 1` when unsharded).
    pub sharding: ShardingReport,
    /// FNV-1a hash of the world's full trace log (constant for the empty
    /// log when tracing was disabled). Same seed ⇒ same hash; the
    /// determinism oracle compares these across serial and parallel
    /// sweeps.
    pub trace_hash: u64,
}

impl RunReport {
    /// True if every replica ended in the same state. On sharded runs
    /// only the members *within* each group replicate the same shard, so
    /// convergence is checked group by group (fingerprints are in site
    /// order and groups are contiguous).
    pub fn converged(&self) -> bool {
        let groups = self.sharding.shards.max(1) as usize;
        if groups <= 1 || self.fingerprints.len() < groups {
            return self.fingerprints.windows(2).all(|w| w[0] == w[1]);
        }
        let per_group = self.fingerprints.len() / groups;
        self.fingerprints
            .chunks(per_group)
            .all(|g| g.windows(2).all(|w| w[0] == w[1]))
    }

    /// Completed operations per million ticks (one tick ≈ 1 µs, so this
    /// reads as operations per second).
    pub fn throughput(&self) -> f64 {
        let t = self.duration.ticks().max(1) as f64;
        self.ops_completed as f64 * 1_000_000.0 / t
    }

    /// Messages per completed operation.
    pub fn messages_per_op(&self) -> f64 {
        if self.ops_completed == 0 {
            return 0.0;
        }
        self.messages.messages_sent as f64 / self.ops_completed as f64
    }

    /// Server↔server coordination messages per completed operation —
    /// the ordering/agreement share of [`RunReport::messages_per_op`].
    /// Client request/response traffic (one invoke plus one reply per
    /// replica that answers) is excluded: it is fixed per transaction
    /// and no ordering-layer optimization can amortize it.
    pub fn coordination_messages_per_op(&self) -> f64 {
        if self.ops_completed == 0 {
            return 0.0;
        }
        self.messages.coordination_messages as f64 / self.ops_completed as f64
    }

    /// The most frequent phase skeleton observed (needs tracing).
    pub fn canonical_skeleton(&self) -> Option<PhaseSkeleton> {
        self.phase_trace.canonical()
    }

    /// Checks one-copy serializability of the merged history.
    ///
    /// # Errors
    ///
    /// Returns the serialization-graph cycle if the history is not 1SR.
    pub fn check_one_copy_serializable(&self) -> Result<Vec<TxnId>, SerializabilityViolation> {
        self.history.check_one_copy_serializable()
    }

    /// The stale reads observed by clients (real-time criterion).
    pub fn stale_reads(&self) -> Vec<StaleRead> {
        count_stale_reads(&self.records)
    }

    /// Disruptive fault events applied during the run (crashes,
    /// partitions, link faults).
    pub fn faults_injected(&self) -> u64 {
        self.availability.faults_injected
    }

    /// Fraction of answered operations that aborted.
    pub fn abort_rate(&self) -> f64 {
        if self.ops_completed == 0 {
            return 0.0;
        }
        self.ops_aborted as f64 / self.ops_completed as f64
    }

    /// A 64-bit FNV-1a digest of everything observable in the report:
    /// counters, latency samples (order-insensitive), per-server
    /// fingerprints, raw client records and the trace hash. Two runs of
    /// the same configuration and seed must produce equal digests
    /// regardless of which thread executed them — the determinism tests
    /// assert exactly that.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        let mut mix = |v: u64| h.mix(v);
        mix(self.technique as u64);
        mix(self.servers as u64);
        mix(self.clients as u64);
        mix(self.duration.ticks());
        // Latency samples are hashed through the canonical sorted view so
        // the digest is insensitive to whether a percentile (which sorts
        // in place) was taken first.
        let samples = self.latencies.sorted_samples();
        mix(samples.len() as u64);
        for s in samples {
            mix(s);
        }
        mix(self.ops_completed);
        mix(self.ops_committed);
        mix(self.ops_aborted);
        mix(self.ops_unanswered);
        mix(self.client_retries);
        mix(self.messages.messages_sent);
        mix(self.messages.messages_delivered);
        mix(self.messages.messages_dropped);
        mix(self.messages.bytes_sent);
        mix(self.messages.timers_fired);
        mix(self.messages.events_processed);
        for &f in &self.fingerprints {
            mix(f);
        }
        for (client, rec) in &self.records {
            mix(*client as u64);
            mix(rec.op.0);
            mix(rec.invoked.ticks());
            mix(rec.responded.map_or(u64::MAX, |t| t.ticks()));
            mix(rec.retries as u64);
            match &rec.response {
                None => mix(0),
                Some(resp) => {
                    mix(1 + resp.committed as u64);
                    for (k, v) in &resp.reads {
                        mix(k.0);
                        mix(v.0 as u64);
                    }
                }
            }
        }
        mix(self.reconciliations);
        mix(self.wounds);
        mix(self.server_aborts);
        mix(self.availability.faults_injected);
        mix(self.availability.repairs_applied);
        for &gap in &self.availability.per_client_worst_gap {
            mix(gap.ticks());
        }
        mix(self
            .availability
            .failover_latency
            .map_or(u64::MAX, |d| d.ticks()));
        mix(self.availability.recoveries.len() as u64);
        for r in &self.availability.recoveries {
            mix(r.site as u64);
            mix(r.recoveries);
            mix(r.rejoin_at.unwrap_or(u64::MAX));
            mix(r.catch_up_ticks.unwrap_or(u64::MAX));
            mix(r.transfer_bytes);
            mix(r.log_suffix_transfers);
            mix(r.snapshot_transfers);
        }
        // Durability state is mixed only once a disaster touched the
        // run: a quiescent tier (and upload accounting alone) must keep
        // the digest byte-identical to the untiered baseline.
        if self.durability.disaster() {
            mix(self.durability.volume_wipes);
            mix(self.durability.lost_commits);
            mix(self.durability.claimed_lost.len() as u64);
            for op in &self.durability.claimed_lost {
                mix(op.0);
            }
            mix(self.durability.restores);
            mix(self.durability.restore_bytes);
            mix(self.durability.restore_ticks);
        }
        // Sharding state is mixed only on sharded runs: unsharded
        // digests stay byte-identical to pre-sharding builds.
        if self.sharding.sharded() {
            mix(self.sharding.shards as u64);
            mix(self.sharding.single_shard_ops);
            mix(self.sharding.cross_shard_ops);
            for s in self.sharding.single_latency.sorted_samples() {
                mix(s);
            }
            for s in self.sharding.cross_latency.sorted_samples() {
                mix(s);
            }
            for &n in &self.sharding.per_shard_ops {
                mix(n);
            }
        }
        // The streaming histogram exists only on aggregated open-loop
        // runs; mixing it conditionally keeps every pre-existing mode's
        // digest byte-identical.
        if let Some(hist) = &self.latency_hist {
            mix(hist.fingerprint());
            mix(self.peak_outstanding);
        }
        mix(self.trace_hash);
        h.finish()
    }

    /// The no-silent-loss oracle: every update-only operation that was
    /// acknowledged as committed must either still be remembered by at
    /// least one replica's history or be claimed in the run's data-loss
    /// accounting ([`DurabilityReport::claimed_lost`]). Violations mean
    /// a disaster erased an acknowledged commit and nothing owned up to
    /// it.
    ///
    /// Read-only and read-write acknowledgements are exempt: their
    /// reads pin them in history through the surviving replicas, and a
    /// read-only commit has no durable effect to lose.
    ///
    /// # Errors
    ///
    /// Returns every silently lost operation, in client-record order.
    pub fn check_no_silent_loss(&self) -> Result<(), Vec<SilentLoss>> {
        let committed = self.history.committed();
        let mut violations = Vec::new();
        for (_, rec) in &self.records {
            let Some(resp) = &rec.response else { continue };
            if !resp.committed || !resp.reads.is_empty() {
                continue;
            }
            let txn = crate::protocols::common::global_txn(rec.op);
            if committed.binary_search(&txn).is_ok() {
                continue;
            }
            if self.durability.claimed_lost.binary_search(&rec.op).is_ok() {
                continue;
            }
            violations.push(SilentLoss { op: rec.op, txn });
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let mean = match &self.latency_hist {
            Some(h) if self.latencies.is_empty() => h.mean(),
            _ => self.latencies.mean(),
        };
        format!(
            "{}: n={} clients={} ops={} committed={} aborted={} mean={}t msgs/op={:.1} converged={}",
            self.technique,
            self.servers,
            self.clients,
            self.ops_completed,
            self.ops_committed,
            self.ops_aborted,
            mean.ticks(),
            self.messages_per_op(),
            self.converged(),
        )
    }
}
