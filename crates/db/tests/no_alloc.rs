//! Allocation guard for the lock manager's graph query and the
//! transaction manager's per-transaction state.
//!
//! The kernel promises that `wait_for_edges` allocates nothing while no
//! transaction waits: it reads the graph off the table and pushes no
//! edge. The transaction manager promises that a warm begin / write /
//! commit cycle allocates nothing but the writeset `commit` returns,
//! that `commit_in_place` — the commit of a site that ships and keeps
//! no writeset — allocates nothing at all, and so does an abort:
//! finished transactions hand their state back to a free list. This test
//! installs a counting global allocator and holds the kernel to these
//! promises. It lives in its own
//! integration-test crate because the library forbids `unsafe_code` and
//! a `GlobalAlloc` impl is necessarily unsafe.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use repl_db::{
    Acquire, DeadlockPolicy, Key, Keyspace, LockManager, LockMode, Store, TxnId, TxnManager, Value,
};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn t(ts: u64) -> TxnId {
    TxnId::new(ts, 0)
}

// One test function on purpose: the counter is process-global, and
// cargo runs `#[test]` functions concurrently.
#[test]
fn lock_graph_and_txn_manager_do_not_allocate_after_warmup() {
    // Idle table: holders everywhere, no waiters, so no edge to push.
    let mut lm = LockManager::with_keyspace(DeadlockPolicy::Detect, Keyspace::dense(64));
    for i in 0..16u64 {
        assert_eq!(
            lm.acquire(t(i + 1), Key(i), LockMode::Exclusive),
            Acquire::Granted
        );
    }
    let before = allocations();
    for _ in 0..100 {
        assert!(lm.wait_for_edges().is_empty());
    }
    assert_eq!(allocations(), before, "idle wait_for_edges allocated");

    // Transaction manager: four writes in descending key order, one key
    // written twice, then commit — or abort.
    let mut store = Store::with_items(16, Value(0));
    let mut tm = TxnManager::new();
    let write_four = |tm: &mut TxnManager, store: &mut Store, ts: u64| {
        tm.begin(t(ts));
        for k in [9u64, 7, 4, 1, 7] {
            tm.write(store, t(ts), Key(k), Value(ts as i64))
                .expect("active");
        }
    };
    write_four(&mut tm, &mut store, 1); // warm-up: sizes the recycled state
    tm.commit(t(1)).expect("active");
    let before = allocations();
    for ts in 2..102 {
        write_four(&mut tm, &mut store, ts);
        let ws = tm.commit(t(ts)).expect("active");
        assert!(
            ws.keys().eq([Key(1), Key(4), Key(7), Key(9)]),
            "commit yields a key-sorted writeset"
        );
    }
    assert_eq!(
        allocations() - before,
        100,
        "a warm begin/write/commit cycle allocated more than its writeset"
    );
    let before = allocations();
    for ts in 102..202 {
        write_four(&mut tm, &mut store, ts);
        tm.commit_in_place(t(ts)).expect("active");
    }
    assert_eq!(
        allocations(),
        before,
        "a warm begin/write/commit-without-writeset cycle allocated"
    );
    assert_eq!(
        store.read(Key(9)).expect("exists").value,
        Value(201),
        "an in-place commit keeps its writes"
    );
    let fingerprint = store.fingerprint();
    let before = allocations();
    for ts in 202..302 {
        write_four(&mut tm, &mut store, ts);
        tm.abort(&mut store, t(ts)).expect("active");
    }
    assert_eq!(
        allocations(),
        before,
        "a warm begin/write/abort cycle allocated"
    );
    assert_eq!(store.fingerprint(), fingerprint, "abort is a perfect undo");
}
