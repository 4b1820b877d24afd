//! The payload plane: one column of disseminated writesets.
//!
//! Replication fan-out is the dominant cost of the eager techniques
//! (paper phase 3, dissemination). A writeset is *interned once* at its
//! origin as one entry of the arena's [`TxnColumn`] (a span) and travels
//! as a 16-byte `Copy` handle ([`WriteSetRef`]) — the only form a
//! protocol message carries. Receivers read the span's rows through a
//! borrow view ([`WsView`]) without materializing them; the span table
//! keeps only release state.
//!
//! # Lifetime and GC
//!
//! The arena is append-only between compactions. Each interned span
//! carries the number of *expected releases* — one per site that will
//! consume the handle (the protocol knows its fan-out width when it
//! interns). [`PayloadArena::release`] records a per-site bit; when the
//! distinct-release count reaches the expectation the span is retired,
//! and once enough retired spans pile up at the front the dead prefix
//! is compacted away (a memmove, no allocation), keeping the arena
//! bounded in open-loop runs. A span nobody will consume (`expected`
//! 0: a primary with no backup) is retired as it is interned. The
//! release points coincide with the sites' certification/apply
//! watermarks advancing, so retirement never outruns what the
//! `Certifier` has already absorbed.
//!
//! The bit is `site % 64`: consumer sets are replica groups, which are
//! contiguous runs of at most 64 node ids, so their bits are distinct
//! wherever the group sits in a larger (sharded) world.
//!
//! Safety properties (all enforced here, tested below):
//! * releasing twice from the same site is idempotent — spans cannot be
//!   retired early by duplicate deliveries;
//! * an *over*-estimate of expected releases only leaks (safe); an
//!   under-estimate cannot free early because retirement requires
//!   `expected` *distinct* bits, and distinct bits are distinct sites;
//! * two consumers whose ids collide modulo 64 share a bit, so the span
//!   is under-counted and leaks — it is never retired early;
//! * reading a retired or compacted span panics loudly instead of
//!   returning stale records;
//! * with GC disarmed (fault runs, where rejoin refills may re-read old
//!   handles) releases are no-ops and every span stays readable.
//!
//! Wire accounting is unchanged by construction: a handle knows its
//! record count, so [`WriteSetRef::wire_size`] charges the same logical
//! bytes as the `WriteSet` it stands for (see [`crate::wire`]).

use std::cell::RefCell;
use std::rc::Rc;

use crate::column::TxnColumn;
use crate::item::TxnId;
use crate::log::{WriteRecord, WriteSet};
use crate::wire;

/// A cheap `Copy` handle to a writeset interned in a [`PayloadArena`].
///
/// 16 bytes: the span id and the record count. Carrying the count makes
/// the handle's wire size computable without touching the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSetRef {
    /// Arena-wide span id (never reused).
    pub span: u64,
    /// Number of write records in the span.
    pub len: u32,
}

impl WriteSetRef {
    /// Logical wire bytes of the writeset this handle stands for —
    /// identical to the materialized `WriteSet`'s `wire_size`.
    pub fn wire_size(&self) -> usize {
        wire::writeset_bytes(self.len as usize)
    }
}

/// One interned writeset's release state; its records are the arena
/// column's entry of the same index.
#[derive(Debug)]
struct Span {
    /// Bitmask of the sites (modulo 64) that released this span.
    released: u64,
    /// Distinct releases required to retire the span.
    expected: u32,
    /// Retired: all expected sites have consumed it.
    dead: bool,
}

/// Column storage for in-flight writeset payloads.
///
/// # Examples
///
/// ```
/// use repl_db::{Key, PayloadArena, TxnId, Value, WriteRecord, WriteSet};
///
/// let mut arena = PayloadArena::new();
/// let ws = WriteSet {
///     txn: TxnId::new(1, 0),
///     writes: vec![WriteRecord { key: Key(3), value: Value(7), version: 1 }],
/// };
/// let handle = arena.intern(&ws, 2); // two sites will consume it
/// assert_eq!(handle.wire_size(), ws.wire_size());
/// assert_eq!(arena.view(handle).to_writeset(), ws);
/// arena.release(handle, 0);
/// arena.release(handle, 0); // duplicate: idempotent
/// assert_eq!(arena.stats().retired, 0);
/// arena.release(handle, 1);
/// assert_eq!(arena.stats().retired, 1);
/// ```
#[derive(Debug)]
pub struct PayloadArena {
    /// One entry per resident span: entry `i` is span `base_span + i`.
    writesets: TxnColumn,
    /// Release state, one per resident span, in the same order.
    spans: Vec<Span>,
    /// Span ids below this were compacted away.
    base_span: u64,
    /// Whether releases retire spans (disarmed under fault plans, where
    /// rejoin refills may legitimately re-read old handles).
    gc: bool,
    retired: u64,
    compactions: u64,
}

impl PayloadArena {
    /// Retirements between dead-prefix compaction scans: a fully
    /// released arena keeps fewer than this many dead spans resident.
    pub const COMPACT_EVERY: usize = 4096;

    /// Creates an empty arena with GC armed.
    pub fn new() -> Self {
        PayloadArena {
            writesets: TxnColumn::new(),
            spans: Vec::new(),
            base_span: 0,
            gc: true,
            retired: 0,
            compactions: 0,
        }
    }

    /// Arms or disarms release-driven retirement. Disarmed, every span
    /// stays readable forever (used when a fault plan may replay old
    /// handles through rejoin refills).
    pub fn set_gc(&mut self, gc: bool) {
        self.gc = gc;
    }

    /// Copies `ws` into the column and returns its handle: the
    /// materialized-writeset form of [`PayloadArena::intern_view`].
    pub fn intern(&mut self, ws: &WriteSet, expected: u32) -> WriteSetRef {
        self.intern_view(ws.into(), expected)
    }

    /// Copies the viewed records into the column and returns their
    /// handle — the one copy a shipped writeset pays, straight from
    /// wherever its records already sit (an undo log, a shadow overlay,
    /// a log entry).
    ///
    /// `expected` is the number of distinct sites that will
    /// [`release`](Self::release) the handle; the span is retired when
    /// they all have. With `expected == 0` nobody will, and the span is
    /// retired here (while GC is armed) instead of pinning the prefix.
    pub fn intern_view(&mut self, ws: WsView<'_>, expected: u32) -> WriteSetRef {
        self.writesets.push_view(ws);
        let len = ws.len() as u32;
        let id = self.base_span + self.spans.len() as u64;
        self.spans.push(Span {
            released: 0,
            expected,
            dead: false,
        });
        if expected == 0 && self.gc {
            self.retire(self.spans.len() - 1);
        }
        WriteSetRef { span: id, len }
    }

    /// Marks `spans[idx]` dead and compacts the dead prefix every
    /// [`Self::COMPACT_EVERY`] retirements.
    fn retire(&mut self, idx: usize) {
        self.spans[idx].dead = true;
        self.retired += 1;
        if self.retired.is_multiple_of(Self::COMPACT_EVERY as u64) {
            self.compact_prefix();
        }
    }

    /// Borrows the records of an interned writeset.
    ///
    /// # Panics
    ///
    /// Panics if the span was retired or compacted — a premature free
    /// must fail loudly, never return stale records.
    pub fn view(&self, r: WriteSetRef) -> WsView<'_> {
        let idx = r
            .span
            .checked_sub(self.base_span)
            .expect("payload arena: read of a compacted span") as usize;
        assert!(
            !self.spans[idx].dead,
            "payload arena: read of a retired span"
        );
        self.writesets.view(idx)
    }

    /// Records that `site` has consumed the span. Idempotent per site;
    /// retires the span once `expected` distinct sites released it.
    /// No-op while GC is disarmed. Sites are told apart modulo 64 (see
    /// the module doc).
    pub fn release(&mut self, r: WriteSetRef, site: u32) {
        if !self.gc {
            return;
        }
        let Some(idx) = r.span.checked_sub(self.base_span) else {
            return; // already compacted away
        };
        let span = &mut self.spans[idx as usize];
        if span.dead {
            return;
        }
        span.released |= 1u64 << (site % 64);
        if span.released.count_ones() >= span.expected {
            self.retire(idx as usize);
        }
    }

    /// Drops the retired prefix of the span table and its column entries
    /// — a memmove, no allocation. Capacity is retained, so a
    /// steady-state open-loop run stops allocating once the columns
    /// reach their high-water mark.
    fn compact_prefix(&mut self) {
        let mut n = 0;
        while n < self.spans.len() && self.spans[n].dead {
            n += 1;
        }
        if n == 0 {
            return;
        }
        self.writesets.drop_front(n);
        self.spans.drain(..n);
        self.base_span += n as u64;
        self.compactions += 1;
    }

    /// Occupancy and lifetime counters, for studies and boundedness
    /// assertions.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            interned: self.base_span + self.spans.len() as u64,
            retired: self.retired,
            compactions: self.compactions,
            spans_resident: self.spans.len(),
            records_resident: self.writesets.items().0,
            record_capacity: self.writesets.items().1,
        }
    }
}

impl Default for PayloadArena {
    fn default() -> Self {
        PayloadArena::new()
    }
}

/// Snapshot of a [`PayloadArena`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Spans ever interned.
    pub interned: u64,
    /// Spans fully released and retired.
    pub retired: u64,
    /// Dead-prefix compactions performed.
    pub compactions: u64,
    /// Spans currently resident (live + not-yet-compacted dead).
    pub spans_resident: usize,
    /// Write records currently resident in the column.
    pub records_resident: usize,
    /// Column capacity in records (the high-water mark).
    pub record_capacity: usize,
}

/// A per-run arena shared by every server of one simulated world.
///
/// `Rc` (not `Arc`): a world and all its actors live on one thread; the
/// runner's parallelism is across worlds, never within one.
pub type SharedArena = Rc<RefCell<PayloadArena>>;

/// Creates a fresh shared arena.
pub fn shared_arena() -> SharedArena {
    Rc::new(RefCell::new(PayloadArena::new()))
}

/// A borrowed view of a writeset's records: the one form a writeset is
/// read in, wherever its rows sit (a writeset, a column entry, an undo
/// log's after-images, a shadow overlay).
#[derive(Debug, Clone, Copy)]
pub struct WsView<'a> {
    /// The owning transaction.
    pub txn: TxnId,
    records: &'a [WriteRecord],
}

impl<'a> From<&'a WriteSet> for WsView<'a> {
    fn from(ws: &'a WriteSet) -> Self {
        WsView::rows(ws.txn, &ws.writes)
    }
}

impl<'a> WsView<'a> {
    /// A view of `txn`'s records.
    pub fn rows(txn: TxnId, records: &'a [WriteRecord]) -> Self {
        WsView { txn, records }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if there are no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical wire bytes of the viewed writeset.
    pub fn wire_size(&self) -> usize {
        wire::writeset_bytes(self.len())
    }

    /// Iterates the records in order, by value (records are `Copy`); no
    /// allocation, and an exact length.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = WriteRecord> + 'a {
        self.records.iter().copied()
    }

    /// Copies the view into an owned `WriteSet` (one exact-size
    /// allocation).
    pub fn to_writeset(&self) -> WriteSet {
        WriteSet {
            txn: self.txn,
            writes: self.iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::{Key, Value};

    fn ws(txn: u64, n: u64) -> WriteSet {
        WriteSet {
            txn: TxnId::new(txn, 0),
            writes: (0..n)
                .map(|i| WriteRecord {
                    key: Key(i),
                    value: Value((txn * 1000 + i) as i64),
                    version: txn,
                })
                .collect(),
        }
    }

    #[test]
    fn handle_is_16_bytes_and_copy() {
        assert_eq!(std::mem::size_of::<WriteSetRef>(), 16);
        let r = WriteSetRef { span: 1, len: 2 };
        let r2 = r; // Copy
        assert_eq!(r, r2);
    }

    #[test]
    fn intern_view_roundtrips_and_charges_identical_wire_bytes() {
        let mut arena = PayloadArena::new();
        let a = ws(1, 3);
        let b = ws(2, 0);
        let ra = arena.intern(&a, 1);
        let rb = arena.intern(&b, 1);
        assert_eq!(arena.view(ra).to_writeset(), a);
        assert_eq!(arena.view(rb).to_writeset(), b);
        assert_eq!(ra.wire_size(), a.wire_size());
        assert_eq!(rb.wire_size(), b.wire_size());
        assert_eq!(arena.view(ra).wire_size(), a.wire_size());
        assert_eq!(arena.view(ra).txn, a.txn);
        assert_eq!(arena.view(ra).len(), 3);
        let records: Vec<WriteRecord> = arena.view(ra).iter().collect();
        assert_eq!(records, a.writes);
    }

    #[test]
    fn release_counts_distinct_sites_and_is_idempotent() {
        let mut arena = PayloadArena::new();
        let r = arena.intern(&ws(1, 2), 3);
        arena.release(r, 0);
        arena.release(r, 0);
        arena.release(r, 0);
        arena.release(r, 1);
        assert_eq!(
            arena.stats().retired,
            0,
            "duplicate releases must not retire"
        );
        arena.release(r, 2);
        assert_eq!(arena.stats().retired, 1);
    }

    #[test]
    #[should_panic(expected = "retired span")]
    fn reading_a_retired_span_panics() {
        let mut arena = PayloadArena::new();
        let r = arena.intern(&ws(1, 1), 1);
        arena.release(r, 0);
        let _ = arena.view(r);
    }

    #[test]
    fn disarmed_gc_keeps_everything_readable() {
        let mut arena = PayloadArena::new();
        arena.set_gc(false);
        let r = arena.intern(&ws(1, 1), 1);
        arena.release(r, 0);
        arena.release(r, 1);
        assert_eq!(arena.stats().retired, 0);
        assert_eq!(arena.view(r).len(), 1);
    }

    #[test]
    fn groups_above_site_64_retire_their_spans() {
        let mut arena = PayloadArena::new();
        // Group 31 of a 32 × 3 world, and a group straddling the line.
        for group in [[93, 94, 95], [63, 64, 65]] {
            let r = arena.intern(&ws(1, 1), 3);
            for site in group {
                assert_eq!(arena.view(r).len(), 1, "retired before site {site}");
                arena.release(r, site);
                arena.release(r, site); // duplicate: idempotent up here too
            }
        }
        assert_eq!(arena.stats().retired, 2);
    }

    #[test]
    fn untracked_sites_leak_safely() {
        // Sites 1 and 65 share a bit: the second release goes untracked,
        // so the span is under-counted and leaks — never retired early.
        let mut arena = PayloadArena::new();
        let r = arena.intern(&ws(1, 1), 3);
        for site in [1, 65, 2] {
            arena.release(r, site);
        }
        assert_eq!(arena.stats().retired, 0);
        assert_eq!(arena.view(r).len(), 1);
    }

    #[test]
    fn zero_consumer_span_is_dead_at_birth_and_does_not_block_compaction() {
        let mut arena = PayloadArena::new();
        let unconsumed = arena.intern(&ws(0, 2), 0);
        assert_eq!(arena.stats().retired, 1);
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = arena.view(unconsumed);
        }));
        assert!(boom.is_err(), "an unconsumed span must not be readable");
        for i in 1..PayloadArena::COMPACT_EVERY as u64 {
            let r = arena.intern(&ws(i, 1), 1);
            arena.release(r, 0);
        }
        let after = arena.stats();
        assert_eq!(after.compactions, 1);
        assert_eq!(
            after.spans_resident, 0,
            "the unconsumed span pinned the prefix"
        );
        // Disarmed, nothing is retired — not even at birth.
        arena.set_gc(false);
        let kept = arena.intern(&ws(9, 1), 0);
        assert_eq!(arena.stats().retired, after.retired);
        assert_eq!(arena.view(kept).len(), 1);
    }

    #[test]
    fn dead_prefix_compaction_keeps_the_arena_bounded() {
        let mut arena = PayloadArena::new();
        let rounds = PayloadArena::COMPACT_EVERY * 3 + 17;
        let mut live = None;
        for i in 0..rounds {
            let r = arena.intern(&ws(i as u64, 4), 1);
            if i == 0 {
                // Hold the very first span live: compaction must stop
                // at it until it is released.
                live = Some(r);
            } else {
                arena.release(r, 0);
            }
        }
        let held = arena.stats();
        assert_eq!(
            held.spans_resident, rounds,
            "a live span at the front pins the prefix"
        );
        arena.release(live.expect("held"), 0);
        // Releasing the pin lets the next scan drop everything.
        for i in 0..PayloadArena::COMPACT_EVERY {
            let r = arena.intern(&ws(900_000 + i as u64, 1), 1);
            arena.release(r, 0);
        }
        let after = arena.stats();
        assert!(after.compactions > 0, "compaction never ran");
        assert!(
            after.spans_resident < PayloadArena::COMPACT_EVERY + 2,
            "dead prefix retained: {} spans resident",
            after.spans_resident
        );
        assert!(after.records_resident <= after.spans_resident * 4);
    }

    #[test]
    fn compacted_span_release_is_a_noop_and_read_panics() {
        let mut arena = PayloadArena::new();
        let mut first = None;
        for i in 0..PayloadArena::COMPACT_EVERY + 1 {
            let r = arena.intern(&ws(i as u64, 1), 1);
            if i == 0 {
                first = Some(r);
            }
            arena.release(r, 0);
        }
        let first = first.expect("present");
        assert!(arena.stats().compactions > 0);
        arena.release(first, 5); // gone: must not panic
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = arena.view(first);
        }));
        assert!(boom.is_err(), "compacted span must not be readable");
    }
}
