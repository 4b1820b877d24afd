//! Linearity guard for the execution history.
//!
//! Recording, merging and checking a history must cost memory in
//! proportion to its length, however hot its keys: the serialization
//! graph is built from covering edges (at most two per committed
//! access), never from all conflicting pairs. And recording must not
//! allocate per transaction at all: the purge index is one flat table
//! per site log, so the allocation count grows only with the O(log n)
//! doublings of the logs and tables. This test installs a counting
//! global allocator and compares a run against one eight times as long
//! on a single hot key — the worst case for an all-pairs graph, which
//! grows 64-fold there. The same episode bounds what the merged history
//! keeps per recorded access: a site log stores one 16-byte record per
//! access, its purge index one entry per transaction. And checking must
//! allocate independently of the keyspace: the covering pass reuses one
//! stream table and one read list across the site logs, with no list
//! per key.
//! Counts, not times, so it cannot flake. It lives
//! in its own integration-test crate because the library forbids
//! `unsafe_code` and a `GlobalAlloc` impl is necessarily unsafe.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use repl_db::{AccessKind, Key, ReplicatedHistory, TxnId};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SITES: u32 = 3;

/// Three sites each record and commit `txns` transactions that read and
/// then overwrite one hot key; the site histories are merged and the
/// merged history checked. Returns the peak of live heap bytes above
/// the starting level, the number of allocations, and the heap bytes the
/// merged history holds per recorded access.
fn hot_key_episode(txns: u64) -> (usize, u64, f64) {
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    let allocations_before = ALLOCATIONS.load(Ordering::Relaxed);
    PEAK_BYTES.store(live_before, Ordering::Relaxed);
    let mut merged = ReplicatedHistory::new();
    for site in 0..SITES {
        let mut at_site = ReplicatedHistory::new();
        for ts in 1..=txns {
            let txn = TxnId::new(ts, 0);
            at_site.record(site, txn, Key(0), AccessKind::Read);
            at_site.record(site, txn, Key(0), AccessKind::Write);
            at_site.mark_committed(txn);
        }
        merged.merge(&at_site);
    }
    let retained = LIVE_BYTES.load(Ordering::Relaxed) - live_before;
    let per_access = retained as f64 / merged.len() as f64;
    let order = merged
        .check_one_copy_serializable()
        .expect("every site executed the transactions in the same order");
    assert_eq!(order.len() as u64, txns);
    (
        PEAK_BYTES.load(Ordering::Relaxed) - live_before,
        ALLOCATIONS.load(Ordering::Relaxed) - allocations_before,
        per_access,
    )
}

/// Allocations of one 1SR check over three sites' logs of 4,096
/// read-then-write transactions spread round-robin over `keys` keys.
fn check_allocations(keys: u64) -> u64 {
    let mut merged = ReplicatedHistory::new();
    for site in 0..SITES {
        let mut at_site = ReplicatedHistory::new();
        for ts in 1..=4_096 {
            let txn = TxnId::new(ts, 0);
            at_site.record(site, txn, Key(ts % keys), AccessKind::Read);
            at_site.record(site, txn, Key(ts % keys), AccessKind::Write);
            at_site.mark_committed(txn);
        }
        merged.merge(&at_site);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let order = merged
        .check_one_copy_serializable()
        .expect("every site executed the transactions in the same order");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(order.len(), 4_096);
    allocations
}

/// Heap bytes a merged history may hold per recorded access: a 16-byte
/// record plus a share of the per-site purge index and the committed
/// set. It held 71.0 when each access was a 40-byte record naming its
/// transaction in full (measured since: 47.0).
const BYTES_PER_ACCESS_BUDGET: f64 = 70.0;

// One test function on purpose: the counters are process-global, and
// cargo runs `#[test]` functions concurrently.
#[test]
fn history_memory_and_allocations_are_linear_in_run_length() {
    let (short_bytes, short_allocations, _) = hot_key_episode(300);
    let (long_bytes, long_allocations, per_access) = hot_key_episode(2_400);
    assert!(
        long_bytes <= 10 * short_bytes,
        "8x the transactions took {long_bytes} peak bytes against {short_bytes}"
    );
    assert!(
        long_allocations <= 10 * short_allocations,
        "8x the transactions took {long_allocations} allocations against {short_allocations}"
    );
    // Growth, not ratio: 2,100 more transactions per site may cost only
    // a few more doublings (measured 114 → 144; 1,620 → 12,156 with a
    // heap-allocated index entry per transaction).
    assert!(
        long_allocations <= short_allocations + 64,
        "8x the transactions added {} allocations to {short_allocations}: \
         recording allocates per transaction",
        long_allocations - short_allocations
    );
    assert!(
        per_access <= BYTES_PER_ACCESS_BUDGET,
        "the merged history holds {per_access:.1} B per recorded access, \
         budget {BYTES_PER_ACCESS_BUDGET}"
    );
    // The same transactions over 16 or 4,096 keys: a read list per key,
    // dropped with its log, took 77 and 12,318 allocations.
    let (few, many) = (check_allocations(16), check_allocations(4_096));
    assert!(
        many <= 2 * few,
        "checking over 4,096 keys took {many} allocations against {few} over 16"
    );
}
