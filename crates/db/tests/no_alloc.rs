//! Allocation guard for the lock manager, the 2PC coordinator, the
//! transaction manager's per-transaction state, the redo log and the
//! shadow overlay.
//!
//! The kernel promises that `wait_for_edges` allocates nothing while no
//! transaction waits: it reads the graph off the table and pushes no
//! edge. A warm lock table locks, wounds, releases and grants without
//! allocating: a released transaction's key lists, a key's emptied
//! holder and waiter lists, and the wound and grant lists a caller
//! hands back all go to free lists. A 2PC coordinator allocates nothing:
//! it counts votes inside the cohort list it is given and hands the list
//! back. The transaction manager promises that a warm begin /
//! write / commit cycle allocates nothing but the writeset a caller
//! materializes from the redo records `commit_with` lends, that
//! `commit_in_place` — the commit of a site that ships and keeps
//! no writeset — allocates nothing at all, and so does an abort:
//! finished transactions hand their state back to a free list. A
//! writeset is copied once, straight to where it goes: a warm redo log
//! appends, stages and group-commits a borrow view into its columns
//! without allocating, and a warm shadow overlay writes, reads through
//! and hands its records to the payload arena without allocating. This test
//! installs a counting global allocator and holds the kernel to these
//! promises. It lives in its own
//! integration-test crate because the library forbids `unsafe_code` and
//! a `GlobalAlloc` impl is necessarily unsafe. It counts only on the
//! thread that drives the kernel: the test harness's own threads
//! allocate at moments of their choosing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use repl_db::{
    Acquire, DeadlockPolicy, Key, Keyspace, LockManager, LockMode, PayloadArena, RedoLog,
    ShadowStore, Store, TpcCoordinator, TpcDecision, TxnId, TxnManager, Value, WriteRecord, WsView,
};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread whose allocations are counted.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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
    COUNTED.with(|c| c.set(true));
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

    // Wound-wait lock table: four keys per transaction, acquired out of
    // order, then released. The first cycle sizes the recycled state.
    let mut lm = LockManager::with_keyspace(DeadlockPolicy::WoundWait, Keyspace::dense(64));
    let lock_four = |lm: &mut LockManager, ts: u64| {
        for k in [9u64, 3, 7, 1] {
            assert_eq!(
                lm.acquire(t(ts), Key(k), LockMode::Exclusive),
                Acquire::Granted
            );
        }
        assert!(lm.holds(t(ts), Key(7)));
        assert!(lm.release_all(t(ts)).is_empty());
    };
    lock_four(&mut lm, 1);
    let before = allocations();
    for ts in 2..102 {
        lock_four(&mut lm, ts);
    }
    assert_eq!(
        allocations(),
        before,
        "a warm uncontended acquire/release_all cycle allocated"
    );

    // Contended wound-wait on a fresh key each round: a younger holder,
    // an older requester that wounds it, and the wound victim's release
    // that grants the requester; then the requester commits. The wound
    // and grant lists go back to the table, and so do the key's holder
    // and waiter lists once they empty. The first round sizes them.
    let mut lm = LockManager::with_keyspace(DeadlockPolicy::WoundWait, Keyspace::dense(256));
    let wound_cycle = |lm: &mut LockManager, round: u64| {
        let (old, young, key) = (t(2 * round + 1), t(2 * round + 2), Key(round));
        assert_eq!(
            lm.acquire(young, key, LockMode::Exclusive),
            Acquire::Granted
        );
        let Acquire::Waiting { wounded } = lm.acquire(old, key, LockMode::Exclusive) else {
            panic!("an older requester waits");
        };
        assert_eq!(wounded, [young]);
        lm.recycle_wounded(wounded);
        let granted = lm.release_all(young);
        assert_eq!(granted, [(old, key, LockMode::Exclusive)]);
        lm.recycle_granted(granted);
        let granted = lm.release_all(old);
        assert!(granted.is_empty());
        lm.recycle_granted(granted);
    };
    wound_cycle(&mut lm, 0);
    let before = allocations();
    for round in 1..201 {
        wound_cycle(&mut lm, round);
    }
    assert_eq!(
        allocations(),
        before,
        "a warm wound / release / grant cycle on a fresh key allocated"
    );

    // 2PC: a coordinator counts the votes inside the cohort list it is
    // given and hands it back for the next, in whatever order the votes
    // came.
    let mut cohort: Vec<u32> = Vec::with_capacity(8);
    let before = allocations();
    for round in 0..100u32 {
        cohort.clear();
        cohort.extend((0..5u32).filter(|&p| p != round % 5));
        let mut coord = TpcCoordinator::new(cohort);
        let mut votes = [4, 0, 3, 1, 2].into_iter().filter(|&p| p != round % 5);
        for p in votes.by_ref().take(3) {
            assert_eq!(coord.on_vote(p, true), None);
        }
        let last = votes.next().expect("four voters");
        assert_eq!(coord.on_vote(last, true), Some(TpcDecision::Commit));
        cohort = coord.into_cohort();
    }
    assert_eq!(
        allocations(),
        before,
        "a coordinator over a recycled cohort list allocated"
    );

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
    tm.commit_in_place(t(1)).expect("active");
    let before = allocations();
    for ts in 2..102 {
        write_four(&mut tm, &mut store, ts);
        let ws = tm
            .commit_with(t(ts), |redo| redo.to_writeset())
            .expect("active");
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

    // Redo log: one forced append and one staged record per round, a
    // group commit every fourth, under a retention cap that keeps the
    // columns bounded. The warm-up sizes them.
    let records: Vec<WriteRecord> = (0..4u64)
        .map(|k| WriteRecord {
            key: Key(k),
            value: Value(1),
            version: 1,
        })
        .collect();
    let mut log = RedoLog::new().with_retention(64);
    let round = |log: &mut RedoLog, ts: u64| {
        log.append_view(WsView::rows(t(ts), &records));
        log.stage_view(WsView::rows(t(ts), &records[..2]));
        if ts % 4 == 3 {
            assert!(log.flush_group().is_some());
        }
    };
    for ts in 0..256 {
        round(&mut log, ts);
    }
    let before = allocations();
    for ts in 256..1_256 {
        round(&mut log, ts);
    }
    assert_eq!(
        allocations(),
        before,
        "a warm redo log allocated to append, stage or group-commit a view"
    );
    assert_eq!(log.since(log.len() - 10).count(), 10);

    // Shadow overlay: five writes (one key twice) and two reads, one of
    // them through to an own write, then the records go to the arena and
    // are released. The warm-up passes the arena's first compaction.
    let mut shadow = ShadowStore::new();
    let mut arena = PayloadArena::new();
    let shadow_txn = |shadow: &mut ShadowStore, arena: &mut PayloadArena, ts: u64| {
        shadow.begin(t(ts));
        for k in [9u64, 7, 4, 1, 7] {
            shadow.write(&store, Key(k), Value(ts as i64));
        }
        assert_eq!(
            shadow.read(&store, Key(7)).expect("exists").value,
            Value(ts as i64)
        );
        assert!(shadow.read(&store, Key(3)).is_some());
        let handle = arena.intern_view(shadow.view(), 1);
        assert!(
            arena
                .view(handle)
                .iter()
                .map(|w| w.key)
                .eq([Key(1), Key(4), Key(7), Key(9)]),
            "the overlay interns its records key-sorted"
        );
        arena.release(handle, 0);
    };
    let warm = 2 * PayloadArena::COMPACT_EVERY as u64;
    for ts in 0..warm {
        shadow_txn(&mut shadow, &mut arena, ts);
    }
    let before = allocations();
    for ts in warm..2 * warm {
        shadow_txn(&mut shadow, &mut arena, ts);
    }
    assert_eq!(
        allocations(),
        before,
        "a warm shadow overlay allocated to write, read through or intern"
    );
}
