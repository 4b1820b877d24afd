//! Allocation guard for batched transaction generation.
//!
//! `WorkloadGen::take_txns` draws a whole batch into one body that its
//! transactions share (DESIGN.md, "Shared transaction bodies"): the body's
//! buffer, the reference count around it and the returned list are the
//! only allocations, however many transactions the batch holds. A
//! transaction drawn on its own pays a buffer and a reference count.
//!
//! It lives in its own integration-test crate because the counter is
//! process-global and the library forbids `unsafe_code`; it counts only
//! on the thread that drives the generator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use repl_workload::{WorkloadGen, WorkloadSpec};

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

fn allocations_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    COUNTED.with(|c| c.set(true));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    COUNTED.with(|c| c.set(false));
    (made, out)
}

/// The body's buffer, its reference count and the returned list.
const BATCH_BUDGET: u64 = 3;

#[test]
fn a_batch_of_a_thousand_transactions_makes_three_allocations() {
    let flat = WorkloadSpec::default()
        .with_items(1_024)
        .with_ops_per_txn(4)
        .with_read_ratio(0.5)
        .with_skew(0.9);
    let sharded = flat.clone().with_shards(8).with_cross_shard_ratio(0.2);
    for spec in [flat, sharded] {
        let mut gen = WorkloadGen::new(&spec, 163);
        drop(gen.take_txns(10));
        gen.reseed(977);
        let (made, batch) = allocations_of(|| gen.take_txns(1_000));
        println!(
            "{} shard(s): take_txns(1000) made {made} allocations",
            spec.shards
        );
        assert_eq!(batch.len(), 1_000);
        assert!(
            made <= BATCH_BUDGET,
            "{} shard(s): take_txns(1000) made {made} allocations, budget {BATCH_BUDGET}",
            spec.shards
        );
        // A transaction on its own: its buffer and its reference count.
        let (single, _) = allocations_of(|| gen.next_txn());
        assert_eq!(single, 2, "next_txn allocates a buffer and an Arc");
    }
}
