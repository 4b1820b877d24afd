//! Allocation guard for the timing wheel's slot buffers.
//!
//! The wheel pools its slot buffers (DESIGN.md, "Open-loop engine &
//! timing wheel"): a slot that empties hands its `Vec` to a spare list
//! and a slot that fills takes one back, so the buffers alive at once
//! are the most slots ever occupied together, not every slot the cursor
//! has visited. A short run therefore pays for a handful of buffers
//! instead of growing each of the 256 slots it passes through.
//!
//! This test drives a fresh wheel through a schedule the size of one
//! study run — about 5,000 events over 60,000 ticks, with level-1 and
//! level-2 cascades and an overflow re-entry — and holds it to a budget,
//! then drives the same wheel through the same schedule again: the
//! second pass may still grow a pooled buffer or two, and once warm the
//! wheel allocates nothing. It lives in its own integration-test crate
//! because the counter is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use repl_sim::TimingWheel;

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

/// Ticks per top-level window (64⁴): an event further than this from
/// the cursor waits in the overflow heap.
const WINDOW: u64 = 1 << 24;
/// Concurrent event chains: the pending population of a small
/// closed-loop run (clients, in-flight messages, timers).
const CHAINS: u64 = 16;
/// Events pushed per pass.
const EVENTS: u64 = 5_000;

/// One pass of a closed-loop-shaped schedule starting 30,000 ticks
/// before the end of top-level window `window`: every popped event
/// schedules a successor until `EVENTS` have been pushed — mostly
/// message-sized delays (level 0 and 1), some longer ones, and a few
/// retry-sized timers that sit at level 2. The first pushes lie beyond
/// the fresh wheel's top window and re-enter from the overflow heap; the
/// pass then crosses into the next window. Returns the ticks it spans.
fn pass(w: &mut TimingWheel<u64>, window: u64, seq: &mut u64) -> u64 {
    let start = (window + 1) * WINDOW - 30_000;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut pushed = 0;
    for c in 0..CHAINS {
        w.push(start + c * 7, *seq, c);
        *seq += 1;
        pushed += 1;
    }
    let (mut popped, mut last) = (0, (0, 0));
    while let Some(e) = w.pop() {
        assert!((e.time, e.seq) > last, "popped out of (time, seq) order");
        last = (e.time, e.seq);
        popped += 1;
        if pushed < EVENTS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = x >> 33;
            let delay = match r % 100 {
                0..=87 => r % 80,
                88..=97 => 100 + r % 800,
                _ => 4_100 + r % 4_000,
            };
            w.push(e.time + delay, *seq, e.item);
            *seq += 1;
            pushed += 1;
        }
    }
    assert_eq!(popped, EVENTS);
    last.0 - start
}

/// Allocations of the first pass, fresh wheel included: the value
/// measured once the slot buffers were pooled (56) plus 10 %. Before,
/// each slot the cursor reached allocated and grew its own buffer: 245.
const FIRST_PASS_BUDGET: u64 = 62;

/// Growths a second pass may still pay (measured: 2). The pool hands
/// out the buffer freed last, not the one a slot will need, so a buffer
/// that served a quiet slot in the first pass can meet a busier one in
/// the second and grow once more; after that every buffer has met the
/// schedule's demand.
const SECOND_PASS_BUDGET: u64 = 2;

#[test]
fn a_study_sized_schedule_allocates_a_few_buffers_and_a_warm_wheel_none() {
    let before = allocations();
    let mut w: TimingWheel<u64> = TimingWheel::new();
    let mut seq = 0;
    let span = pass(&mut w, 1, &mut seq);
    let first = allocations() - before;
    // Each pass ends one window after it starts, so the next odd window
    // is again beyond the cursor's: the same overflow re-entry, the same
    // slot alignment.
    let mut repeats = [0; 3];
    for (i, window) in [3, 5, 7].into_iter().enumerate() {
        let before = allocations();
        pass(&mut w, window, &mut seq);
        repeats[i] = allocations() - before;
    }
    println!("{EVENTS} events over {span} ticks: {first} allocations, then {repeats:?}");
    assert!(
        (50_000..80_000).contains(&span),
        "the schedule spans {span} ticks, not a study run's ~60,000"
    );
    assert!(
        first <= FIRST_PASS_BUDGET,
        "a fresh wheel made {first} allocations, budget {FIRST_PASS_BUDGET}"
    );
    assert!(
        repeats[0] <= SECOND_PASS_BUDGET,
        "a second pass made {} allocations, budget {SECOND_PASS_BUDGET}",
        repeats[0]
    );
    assert_eq!(
        repeats[1..],
        [0, 0],
        "a warm wheel allocated on a repeated schedule"
    );
}
