//! A counting global allocator: `allocs_per_txn` and the byte-footprint
//! layer metrics read it.
//!
//! The counters are plain thread-local cells, not atomics: the measured
//! program is single-threaded, a `lock`-prefixed add on every
//! allocation would be the benchmark perturbing what it measures, and
//! per-thread counts are exactly what a test harness running several
//! workloads on parallel threads needs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor, so access never
    // allocates and stays valid during thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn grow(by: i64) {
    LIVE_BYTES.with(|live| {
        let now = live.get() + by;
        live.set(now);
        PEAK_BYTES.with(|peak| peak.set(peak.get().max(now)));
    });
}

/// Counts allocations and live bytes of the calling thread on top of
/// the system allocator.
pub struct CountingAlloc;

// SAFETY: every method forwards the caller's layout and pointer to
// `System` unchanged, so `System`'s contract is what callers get; the
// bookkeeping touches only const-initialised thread-local `Cell`s,
// which neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        grow(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.with(|c| c.set(c.get() - layout.size() as i64));
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (and reallocations) made by this thread so far.
pub fn count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The largest [`live_bytes`] this thread has reached since
/// [`reset_peak`]: heap in use, without what the allocator and the OS
/// add on top (which is what makes `VmHWM` differ between runs of the
/// same work).
pub fn peak_bytes() -> i64 {
    PEAK_BYTES.with(Cell::get)
}

/// Starts a new high-water mark at the current [`live_bytes`].
pub fn reset_peak() {
    PEAK_BYTES.with(|peak| peak.set(live_bytes()));
}

/// Bytes this thread has allocated and not yet freed. Memory freed by
/// another thread than the one that allocated it would skew this; the
/// benchmark never hands memory across threads.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}
