//! Allocation guard for the multicast message plane.
//!
//! `Context::multicast` is one `send` per leg, every leg but the last
//! with a clone. The payload-plane contract (DESIGN.md "Payload plane")
//! follows: fanning a clone-cheap message (arena handle, `Copy` fields)
//! out to n targets performs **zero** heap allocations after warm-up —
//! send, queueing and delivery included — and fanning out a deep message
//! costs its n − 1 clones at send time and nothing at delivery. This test
//! installs a counting global allocator and holds `Context::multicast` to
//! that promise. It lives in its own integration-test crate because the
//! counter is process-global and `cargo` runs `#[test]`s concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use repl_sim::{
    impl_as_any, Actor, Context, Message, NetworkConfig, NodeId, SimConfig, SimDuration, SimTime,
    TimerId, World,
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

/// Stand-ins for the two payload shapes the replication protocols ship:
/// a 16-byte arena handle (clone is a memcpy) and an owned row vector
/// (clone allocates).
#[derive(Clone, Debug)]
enum Msg {
    // Never read: the fields only give the handle its real size.
    #[allow(dead_code)]
    Handle(u64, u32),
    Deep(Vec<u8>),
}

impl Message for Msg {
    fn wire_size(&self) -> usize {
        match self {
            Msg::Handle(..) => 16,
            Msg::Deep(v) => 16 + v.len(),
        }
    }
}

const GROUP: u32 = 7;
const WARM_HANDLE: u64 = 1;
const WARM_DEEP: u64 = 2;
const ROUND_HANDLE: u64 = 3;
const ROUND_DEEP: u64 = 4;

/// The timing wheel buckets events by time bits (6-bit levels) into
/// lists through one slab of nodes, which grows only when more events
/// are pending than ever before. Scheduling each measured round exactly
/// one level-1 period after its warm-up twin makes both rounds walk
/// identical bucket paths, so the measured rounds find the slab and the
/// active-tick buffer already sized.
const WHEEL_PERIOD: u64 = 64 * 64;

/// Fires one multicast round per pre-armed timer tag.
struct Driver {
    peers: Vec<NodeId>,
}

impl Actor<Msg> for Driver {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.set_timer(SimDuration::from_ticks(5_000), WARM_HANDLE);
        ctx.set_timer(SimDuration::from_ticks(7_000), WARM_DEEP);
        ctx.set_timer(SimDuration::from_ticks(5_000 + WHEEL_PERIOD), ROUND_HANDLE);
        ctx.set_timer(SimDuration::from_ticks(7_000 + WHEEL_PERIOD), ROUND_DEEP);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, _msg: Msg) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _timer: TimerId, tag: u64) {
        let msg = match tag {
            WARM_HANDLE | ROUND_HANDLE => Msg::Handle(42, 7),
            _ => Msg::Deep(vec![0u8; 1024]),
        };
        ctx.multicast(self.peers.iter().copied(), msg);
    }

    impl_as_any!();
}

/// Counts deliveries without allocating.
struct Sink {
    handles: u64,
    deep_bytes: u64,
}

impl Actor<Msg> for Sink {
    fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        match msg {
            Msg::Handle(..) => self.handles += 1,
            Msg::Deep(v) => self.deep_bytes += v.len() as u64,
        }
    }

    impl_as_any!();
}

// One test function on purpose: the counter is process-global, and
// cargo runs `#[test]` functions concurrently.
#[test]
fn multicast_rounds_meet_the_payload_plane_allocation_contract() {
    // Fixed latency, no jitter, no loss: rounds are deterministic and
    // the send instant is separated from the delivery instants.
    let net = NetworkConfig::lan()
        .with_base_latency(SimDuration::from_ticks(500))
        .with_jitter(SimDuration::ZERO);
    let mut world: World<Msg> = World::new(SimConfig::new(1).with_network(net).with_trace(false));
    let peers: Vec<NodeId> = (1..=GROUP).map(NodeId::new).collect();
    let driver = world.add_actor(Box::new(Driver {
        peers: peers.clone(),
    }));
    assert_eq!(driver, NodeId::new(0));
    for _ in 0..GROUP {
        world.add_actor(Box::new(Sink {
            handles: 0,
            deep_bytes: 0,
        }));
    }
    world.start();

    // Warm-up: one round of each shape sizes the timing-wheel buckets
    // and any other lazily-grown scratch along the exact paths the
    // measured rounds will retrace one WHEEL_PERIOD later.
    world.run_until(SimTime::from_ticks(8_500));

    // Handle round: send at t=9096, deliveries at t=9596. Zero heap
    // allocations for the entire round — per-leg clones are memcpys and
    // the queue reuses warm capacity.
    let before = allocations();
    world.run_until(SimTime::from_ticks(10_000));
    assert_eq!(
        allocations() - before,
        0,
        "arena-handle multicast round must not allocate"
    );

    // Deep round: send at t=11096, deliveries at t=11596. The driver's
    // on_timer allocates the 1 KiB payload once and every leg but the
    // last clones it; the last leg takes the original: 7 for 7 legs.
    let before_send = allocations();
    world.run_until(SimTime::from_ticks(11_200)); // timer fired, legs queued
    let send_allocs = allocations() - before_send;
    assert_eq!(
        send_allocs,
        1 + (u64::from(GROUP) - 1),
        "deep multicast must allocate the payload plus one clone per leg but the last"
    );
    // Each queued leg already owns its message: delivery copies nothing.
    let before_delivery = allocations();
    world.run_until(SimTime::from_ticks(12_500));
    assert_eq!(
        allocations() - before_delivery,
        0,
        "multicast delivery must not allocate"
    );

    // Every sink saw both rounds (warm-up + measured).
    for &p in &peers {
        let sink = world.actor_ref::<Sink>(p);
        assert_eq!(sink.handles, 2);
        assert_eq!(sink.deep_bytes, 2 * 1024);
    }
}
