//! Allocation guard for the steady-state commit path.
//!
//! From the client's submit to the replicas' replies a transaction
//! crosses three layers — `core` (clients, protocol hosts), `gcs`
//! (ABCAST / VSCAST / genuine multicast and their sub-components) and
//! `db` (the transaction manager) — and none of their *plumbing* may
//! allocate per transaction: hosts and components own their outboxes,
//! transaction bodies are shared, per-transaction manager state is
//! recycled. What is left is the data a transaction really creates (its
//! body, its writeset where a technique ships it, the reads it returns,
//! history records where recording is on).
//!
//! The guard measures *marginal* allocations: the same cell is run at N
//! and at 2N transactions per client, and the difference is divided by
//! the extra transactions, so world construction, warm-up and the
//! logarithmic tail of `Vec` doubling cancel. Counts, not times, so it
//! cannot flake. It lives in its own integration-test crate because the
//! library forbids `unsafe_code` and a `GlobalAlloc` impl is necessarily
//! unsafe.
//!
//! The same two runs also give the marginal *retained heap*: peak live
//! bytes at 2N minus peak at N, per extra transaction — what a
//! transaction leaves behind in the ordering layer's logs and indexes
//! for the rest of the run. It is exact for a seed (table and `Vec`
//! capacities depend on counts only).
//!
//! A second guard holds a whole short run to a budget: the `study_mix`
//! benchmark runs a thousand of them, so what a run builds once (the
//! event wheel's slot buffers, say) is paid per run, not amortised.
//!
//! A third guard holds partial replication to its memory model: the
//! peak heap of a sixteen-group run may grow with the keyspace only as
//! fast as one shard of it per server.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use repl_core::{try_run, Arrival, RunConfig, Technique};
use repl_sim::SimDuration;
use repl_workload::{ArrivalDist, WorkloadSpec};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        grew(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counters are process-global and cargo runs `#[test]` functions
/// concurrently: every test measures while holding this.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    // The guarded value is `()`: a test that panicked left nothing
    // half-updated.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const CLIENTS: u32 = 48;
const TXNS: u32 = 250;

/// Three lean replicas under an aggregated open loop (the `open_1m`
/// shape): no history, no response cache, so what is counted is the
/// commit path itself.
fn open_cell(technique: Technique, txns: u32) -> RunConfig {
    RunConfig::new(technique)
        .with_servers(3)
        .with_clients(CLIENTS)
        .with_seed(29)
        .with_trace(false)
        .with_arrival(Arrival::OpenAggregated {
            mean: 1_000,
            dist: ArrivalDist::Poisson,
        })
        .with_workload(
            WorkloadSpec::default()
                .with_items(1_024)
                .with_read_ratio(0.5)
                .with_txns_per_client(txns),
        )
}

/// Four groups of three, 5 % cross-shard, closed loop (the
/// `shard16_closed` shape; sharded runs are closed-loop only, so these
/// servers record history).
fn sharded_cell(txns: u32) -> RunConfig {
    RunConfig::new(Technique::Active)
        .with_servers(3)
        .with_clients(CLIENTS)
        .with_seed(29)
        .with_trace(false)
        .with_workload(
            WorkloadSpec::default()
                .with_items(1_024)
                .with_read_ratio(0.0)
                .with_ops_per_txn(2)
                .with_txns_per_client(txns)
                .with_think_time(SimDuration::ZERO)
                .with_shards(4)
                .with_cross_shard_ratio(0.05),
        )
}

/// Allocations and peak live heap bytes of one whole run, report drop
/// included.
fn cost(cfg: &RunConfig) -> (u64, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live_before, Ordering::Relaxed);
    let report = try_run(cfg).expect("cell runs");
    assert_eq!(report.ops_unanswered, 0, "cell left operations unanswered");
    assert_eq!(
        report.ops_completed,
        u64::from(cfg.clients) * u64::from(cfg.workload.txns_per_client),
        "cell did not drain its budget"
    );
    drop(report);
    (
        ALLOCATIONS.load(Ordering::Relaxed) - before,
        PEAK_BYTES.load(Ordering::Relaxed) - live_before,
    )
}

/// Marginal (allocations, retained heap bytes) per transaction.
fn marginal(cell: impl Fn(u32) -> RunConfig) -> (f64, f64) {
    let short = cost(&cell(TXNS));
    let long = cost(&cell(2 * TXNS));
    let extra = f64::from(CLIENTS * TXNS);
    (
        (long.0 - short.0) as f64 / extra,
        (long.1 - short.1) as f64 / extra,
    )
}

/// One guarded cell: its marginal allocations per transaction at the
/// commit before the guarded change and the budget it must stay under
/// now; for the lean ABCAST cells, Semi-Passive and the recording cell
/// also a bound on the marginal retained heap.
struct Guard {
    label: &'static str,
    parent: f64,
    budget: f64,
    heap: Option<Heap>,
    cell: fn(u32) -> RunConfig,
}

/// A reference value of the marginal retained bytes per transaction and
/// the share of it the cell may retain now.
///
/// For the lean cells the reference is PR 16, when every delivered id
/// sat in three hash sets and the sequencer's id → gseq map, since
/// run-compressed (measured: 138.3 and 137.1 bytes). Certification
/// broadcasts only its update half and logs a whole `CertRequest` per
/// broadcast, so the order log — not the id sets — is most of what it
/// keeps, and its share is higher. For the recording cell it is PR 23,
/// when each history kept a heap-allocated purge-index entry per
/// transaction and the report a second copy of every replica's log
/// (measured since: 1,220.8 bytes). For Semi-Passive it is the commit
/// before consensus dropped decided ballots, when every member kept each
/// instance's estimates, proposal and acks for the rest of the run
/// (measured since: 898.6 bytes).
struct Heap {
    parent: f64,
    share: f64,
}

// Each budget is the value measured when the commit path was made
// allocation-free (2.494 for Certification, 5.005 for Passive) plus
// 10 %, and at most half the PR 13 value. The two Active cells' are the
// values measured once an executing replica stopped building the
// writeset nobody ships (2.525 from 4.003; the recording cell 1.674
// from 4.829, itself from 9.971 before history recording stopped
// allocating per transaction) plus 10 %. What remains is data: the
// shared body and returned reads per executing replica, the writeset a
// shipping technique builds, and Passive's ack bookkeeping.
//
// Semi-Passive's budget is the value measured once a decided consensus
// instance kept only its value and live rounds recycled their ballots
// (13.107, from 29.132) plus 10 %, under half the value before.
const GUARDS: [Guard; 5] = [
    Guard {
        label: "Active / 3 lean replicas",
        parent: 28.921,
        budget: 2.78,
        heap: Some(Heap {
            parent: 233.9,
            share: 0.6,
        }),
        cell: |t| open_cell(Technique::Active, t),
    },
    Guard {
        label: "Certification / 3 lean replicas",
        parent: 14.058,
        budget: 2.75,
        heap: Some(Heap {
            parent: 186.3,
            share: 0.75,
        }),
        cell: |t| open_cell(Technique::Certification, t),
    },
    Guard {
        label: "Passive / 3 lean replicas",
        parent: 14.878,
        budget: 5.51,
        heap: None,
        cell: |t| open_cell(Technique::Passive, t),
    },
    Guard {
        label: "Semi-Passive / 3 lean replicas",
        parent: 29.132,
        budget: 14.42,
        heap: Some(Heap {
            parent: 2580.2,
            share: 0.4,
        }),
        cell: |t| open_cell(Technique::SemiPassive, t),
    },
    Guard {
        label: "Active / 4 groups, 5 % cross-shard",
        parent: 83.031,
        budget: 1.84,
        heap: Some(Heap {
            parent: 1906.3,
            share: 0.7,
        }),
        cell: sharded_cell,
    },
];

#[test]
fn marginal_allocations_per_transaction_stay_within_budget() {
    let _serial = serial();
    let mut over = Vec::new();
    for g in GUARDS {
        let (per_txn, heap) = marginal(g.cell);
        println!(
            "{}: {per_txn:.3} allocations per transaction (before: {}), \
             {heap:.1} retained bytes per transaction",
            g.label, g.parent
        );
        if let Some(Heap { parent, share }) = g.heap {
            if heap > share * parent {
                over.push(format!(
                    "{}: {heap:.1} retained bytes per transaction, \
                     more than {share} of the reference value {parent}",
                    g.label
                ));
            }
        }
        assert!(
            g.budget <= g.parent / 2.0,
            "{}: budget {} is more than half the value before the change, {}",
            g.label,
            g.budget,
            g.parent
        );
        if per_txn > g.budget {
            over.push(format!("{}: {per_txn:.3}, budget {}", g.label, g.budget));
        }
    }
    assert!(over.is_empty(), "over budget: {over:#?}");
}

/// The `study_mix` benchmark's plain Active cell: a study run as users
/// run it, a few dozen transactions on a fresh world, where what a run
/// builds once weighs as much as what its transactions allocate.
fn study_plain_active() -> RunConfig {
    RunConfig::new(Technique::Active)
        .with_servers(3)
        .with_clients(4)
        .with_seed(163)
        .with_trace(true)
        .with_workload(
            WorkloadSpec::default()
                .with_items(128)
                .with_read_ratio(0.0)
                .with_txns_per_client(12),
        )
}

/// Whole-run allocations of [`study_plain_active`] before the timing
/// wheel pooled its slot buffers and the executor stopped building
/// writesets nobody keeps, and the budget since: the value measured then
/// plus 10 %.
const STUDY_RUN_PARENT: u64 = 550;
const STUDY_RUN_BUDGET: u64 = 307;

#[test]
fn a_study_run_pays_per_transaction_not_per_slot() {
    let _serial = serial();
    let (allocs, _) = cost(&study_plain_active());
    println!(
        "study plain Active, 48 transactions: {allocs} allocations per run \
         (before: {STUDY_RUN_PARENT})"
    );
    assert!(
        allocs <= STUDY_RUN_BUDGET,
        "a study run made {allocs} allocations, budget {STUDY_RUN_BUDGET}"
    );
}

/// Sixteen groups of three under distributed locking — the
/// `shard16_closed` layout and the technique with the most per-item
/// state (store slot and lock-table entry) — for a handful of
/// transactions, so the kernels' tables dominate the difference between
/// two keyspace sizes.
fn shard16_locking(items: u64) -> RunConfig {
    RunConfig::new(Technique::EagerUpdateEverywhereLocking)
        .with_servers(3)
        .with_clients(16)
        .with_seed(29)
        .with_trace(false)
        .with_workload(
            WorkloadSpec::default()
                .with_items(items)
                .with_read_ratio(0.0)
                .with_ops_per_txn(2)
                .with_txns_per_client(2)
                .with_think_time(SimDuration::ZERO)
                .with_shards(16),
        )
}

/// Peak-heap growth from 4,096 to 16,384 items when every one of the 48
/// servers held the whole keyspace, measured: 48 × 12,288 items × 120 B
/// of store slot and lock state is 70,778,880 B of it. With each server
/// holding its shard the slots grow by 48 × 768 × 120 B ≈ 4.4 MB.
const FULL_REPLICA_GROWTH: u64 = 71_172_384;

#[test]
fn sharded_peak_heap_grows_with_the_shard_not_the_keyspace() {
    let _serial = serial();
    let small = cost(&shard16_locking(4_096)).1;
    let large = cost(&shard16_locking(16_384)).1;
    let growth = large.saturating_sub(small);
    println!(
        "16 groups, locking: peak heap {small} B at 4,096 items, {large} B at 16,384 \
         (+{growth} B; {FULL_REPLICA_GROWTH} B with full replicas)"
    );
    assert!(
        growth <= FULL_REPLICA_GROWTH / 8,
        "peak heap grew by {growth} B for 12,288 more items, more than 1/8 of the \
         {FULL_REPLICA_GROWTH} B it grew by when every server held the whole keyspace"
    );
}
