//! Redo log records: the "update" messages replication propagates.
//!
//! In the paper's passive and primary-copy techniques the executing site
//! does not ship the operation but the *changes* it produced — log
//! records. A [`WriteSet`] is exactly that: the after-images of one
//! transaction's writes, applicable at any replica without re-execution.
//! The [`RedoLog`] keeps its committed and staged runs as [`TxnColumn`]s,
//! the one form a run of writesets takes.

use crate::arena::WsView;
use crate::column::TxnColumn;
use crate::item::{Key, TxnId, Value};

/// One write's after-image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRecord {
    /// The written item.
    pub key: Key,
    /// The new value.
    pub value: Value,
    /// The version this write produced at the executing site.
    pub version: u64,
}

/// A transaction's full redo information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteSet {
    /// The writing transaction.
    pub txn: TxnId,
    /// After-images, sorted by key.
    pub writes: Vec<WriteRecord>,
}

impl WriteSet {
    /// An empty writeset (read-only transaction).
    pub fn empty(txn: TxnId) -> Self {
        WriteSet {
            txn,
            writes: Vec::new(),
        }
    }

    /// True if the transaction wrote nothing.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// The written keys, in key order.
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.writes.iter().map(|w| w.key)
    }

    /// True if this writeset writes any key in `keys`.
    pub fn touches_any(&self, keys: &[Key]) -> bool {
        self.writes.iter().any(|w| keys.contains(&w.key))
    }

    /// Approximate wire size in bytes, for message accounting.
    pub fn wire_size(&self) -> usize {
        crate::wire::writeset_bytes(self.writes.len())
    }
}

/// Simulated latency of one stable-storage force (fsync), in virtual
/// ticks. Group commit's whole point is that a window of transactions
/// shares a single such charge; a volume restore pays it once to
/// replay the restored suffix.
pub const FSYNC_TICKS: u64 = 120;

/// An append-only redo log, as kept by each site for propagation and
/// recovery — with **group commit**.
///
/// [`RedoLog::append`] durably commits one record and pays one force
/// ([`RedoLog::fsyncs`] counts them). Under group commit the caller
/// stages records with [`RedoLog::stage`] and later calls
/// [`RedoLog::flush_group`]: every staged record reaches the log in
/// stage order, but the whole group shares a *single* fsync charge —
/// the classic WAL group-commit amortization. The log contents are
/// identical either way; only the force count (and the latency the
/// caller models with [`FSYNC_TICKS`]) differ.
///
/// The log keeps two [`TxnColumn`]s, not owned writesets: one for the
/// committed entries and one for the staged ones, and a group commit
/// moves the staged column's entries after the committed ones
/// ([`TxnColumn::append`]). An entry is written once, from wherever its
/// records already sit ([`RedoLog::append_view`] and
/// [`RedoLog::stage_view`] take a [`WsView`]), and read as a borrow view
/// ([`RedoLog::since`], [`RedoLog::staged`]); a warm log appends and
/// group-commits without allocating. Retention truncates logically and
/// compacts the dead prefix once it outgrows the retained suffix, so
/// each entry moves at most once per retention's worth of appends.
///
/// # Examples
///
/// ```
/// use repl_db::{RedoLog, WriteSet, TxnId};
///
/// let mut log = RedoLog::new();
/// log.append(WriteSet::empty(TxnId::new(1, 0)));
/// assert_eq!(log.len(), 1);
/// assert_eq!(log.since(0).count(), 1);
/// assert_eq!(log.since(1).count(), 0);
/// assert_eq!(log.fsyncs(), 1);
///
/// // Group commit: three records, one force.
/// for i in 2..5 {
///     log.stage(WriteSet::empty(TxnId::new(i, 0)));
/// }
/// assert_eq!(log.flush_group(), Some((1, 3)));
/// assert_eq!(log.len(), 4);
/// assert_eq!(log.fsyncs(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RedoLog {
    /// Committed entries still held: `dead` truncated ones awaiting
    /// compaction, then the retained ones.
    held: TxnColumn,
    /// Held entries below this are truncated away.
    dead: usize,
    /// Entries staged for the next group commit.
    staged: TxnColumn,
    fsyncs: u64,
    /// Logical index of the first held entry (0 until truncation).
    base: u64,
    /// Maximum number of entries retained (`None` = keep everything).
    retention: Option<usize>,
}

impl RedoLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        RedoLog::default()
    }

    /// Caps the number of retained entries (builder form). Once the log
    /// exceeds `max_entries`, the oldest entries are truncated away; a
    /// recovering replica whose position falls before the truncation
    /// point can no longer be served a log suffix and needs a snapshot
    /// (see [`crate::Transfer`]).
    pub fn with_retention(mut self, max_entries: usize) -> Self {
        self.retention = Some(max_entries.max(1));
        self
    }

    /// Caps the number of retained entries in place (`None` = unbounded).
    pub fn set_retention(&mut self, max_entries: Option<usize>) {
        self.retention = max_entries.map(|n| n.max(1));
    }

    /// Logical index of the oldest entry still retained. A suffix
    /// request from any position `>= first_retained()` can be served
    /// from the log; earlier positions require a snapshot.
    pub fn first_retained(&self) -> u64 {
        self.base + self.dead as u64
    }

    /// True if the log still holds every entry from logical index
    /// `from` onwards.
    pub fn has_suffix(&self, from: u64) -> bool {
        from >= self.first_retained()
    }

    /// Truncates past the retention cap, and compacts the dead prefix
    /// once it is as long as the retained suffix.
    fn enforce_retention(&mut self) {
        if let Some(max) = self.retention {
            self.dead = self.dead.max(self.held.len().saturating_sub(max));
            if self.dead >= max {
                self.held.drop_front(self.dead);
                self.base += self.dead as u64;
                self.dead = 0;
            }
        }
    }

    /// Appends a committed transaction's writeset; returns its log index.
    /// Pays one stable-storage force.
    pub fn append(&mut self, ws: WriteSet) -> usize {
        self.append_view((&ws).into())
    }

    /// [`RedoLog::append`] straight from a view of the records, wherever
    /// they sit: the entry is copied into the log's column once.
    pub fn append_view(&mut self, view: WsView<'_>) -> usize {
        self.held.push_view(view);
        self.fsyncs += 1;
        let idx = self.len() - 1;
        self.enforce_retention();
        idx
    }

    /// Stages a record for the next group commit (no force yet; the
    /// record is not durable and not visible to [`RedoLog::since`]
    /// until [`RedoLog::flush_group`]).
    pub fn stage(&mut self, ws: WriteSet) {
        self.stage_view((&ws).into());
    }

    /// [`RedoLog::stage`] straight from a view of the records.
    pub fn stage_view(&mut self, view: WsView<'_>) {
        self.staged.push_view(view);
    }

    /// Number of records staged for the next group commit.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// The staged records, in stage order, as borrow views.
    pub fn staged(&self) -> impl Iterator<Item = WsView<'_>> {
        self.staged.views()
    }

    /// Commits every staged record with a single force. Returns the
    /// logical log index of the first record and the group size, or
    /// `None` if nothing was staged (no force is paid then).
    pub fn flush_group(&mut self) -> Option<(usize, usize)> {
        self.flush(1)
    }

    /// Commits every staged record with a force each, as that many
    /// [`RedoLog::append`]s would: for a caller that queues records
    /// before logging them but does not group-commit.
    pub fn flush_each(&mut self) -> Option<(usize, usize)> {
        self.flush(self.staged.len() as u64)
    }

    fn flush(&mut self, forces: u64) -> Option<(usize, usize)> {
        if self.staged.is_empty() {
            return None;
        }
        let start = self.len();
        let count = self.staged.len();
        self.held.append(&mut self.staged);
        self.fsyncs += forces;
        self.enforce_retention();
        Some((start, count))
    }

    /// Number of stable-storage forces paid so far.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Logical number of entries ever committed (truncated entries
    /// still count: logical indices are stable across truncation).
    pub fn len(&self) -> usize {
        self.base as usize + self.held.len()
    }

    /// True if the log never committed anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Restarts the log empty at logical position `index`, as
    /// [`RedoLog::new`] would — no entries, nothing staged, no forces
    /// paid — except that the retention cap is kept: the fresh log a
    /// replica opens after its volume was lost or restored. The columns
    /// keep their capacity.
    pub fn restart_at(&mut self, index: u64) {
        self.held.clear();
        self.staged.clear();
        self.dead = 0;
        self.fsyncs = 0;
        self.base = index;
    }

    /// Fast-forwards the log to logical position `index`, retaining
    /// nothing below it — used after installing a snapshot stamped with
    /// the donor's watermark, where the skipped entries were never
    /// seen. No-op if the log already reaches `index`.
    pub fn skip_to(&mut self, index: u64) {
        if index as usize > self.len() {
            self.held.clear();
            self.staged.clear();
            self.dead = 0;
            self.base = index;
        }
    }

    /// Entries from *logical* log index `from` onwards (for catch-up
    /// transfer), as borrow views. Positions before
    /// [`RedoLog::first_retained`] cannot be served: callers check
    /// [`RedoLog::has_suffix`] first, and asking for one while the log
    /// retains entries is a debug assertion (a release build starts at
    /// the truncation point).
    pub fn since(&self, from: usize) -> impl Iterator<Item = WsView<'_>> {
        debug_assert!(
            self.has_suffix(from as u64) || self.len() as u64 == self.first_retained(),
            "redo log: suffix from {from} requested, but entries below {} are truncated",
            self.first_retained()
        );
        let phys = (from as u64).saturating_sub(self.base) as usize;
        self.held.views_from(phys.max(self.dead))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touches_any_detects_overlap() {
        let ws = WriteSet {
            txn: TxnId::new(1, 0),
            writes: vec![WriteRecord {
                key: Key(3),
                value: Value(1),
                version: 1,
            }],
        };
        assert!(ws.touches_any(&[Key(2), Key(3)]));
        assert!(!ws.touches_any(&[Key(0)]));
        assert!(!WriteSet::empty(TxnId::new(2, 0)).touches_any(&[Key(3)]));
    }

    #[test]
    fn group_commit_shares_one_fsync() {
        let mut log = RedoLog::new();
        log.append(WriteSet::empty(TxnId::new(0, 0)));
        assert_eq!(log.fsyncs(), 1);
        for i in 1..6 {
            log.stage(WriteSet::empty(TxnId::new(i, 0)));
        }
        assert_eq!(log.staged_len(), 5);
        // Staged records are not yet durable.
        assert_eq!(log.len(), 1);
        assert_eq!(log.since(0).count(), 1);
        assert_eq!(log.flush_group(), Some((1, 5)));
        assert_eq!(log.staged_len(), 0);
        assert_eq!(log.len(), 6);
        assert_eq!(log.fsyncs(), 2, "five records, one shared force");
        // Order preserved: entries appear in stage order.
        let txns: Vec<u64> = log.since(0).map(|w| w.txn.ts).collect();
        assert_eq!(txns, vec![0, 1, 2, 3, 4, 5]);
        // Empty flush pays nothing.
        assert_eq!(log.flush_group(), None);
        assert_eq!(log.fsyncs(), 2);
    }

    #[test]
    fn log_since_returns_suffix() {
        let mut log = RedoLog::new();
        for i in 0..5 {
            log.append(WriteSet::empty(TxnId::new(i, 0)));
        }
        assert_eq!(log.since(2).count(), 3);
        assert_eq!(log.since(99).count(), 0);
        assert!(!log.is_empty());
    }

    #[test]
    fn retention_truncates_but_keeps_logical_indices() {
        let mut log = RedoLog::new().with_retention(3);
        for i in 0..10 {
            assert_eq!(log.append(WriteSet::empty(TxnId::new(i, 0))), i as usize);
        }
        assert_eq!(log.len(), 10, "logical length counts truncated entries");
        assert_eq!(log.first_retained(), 7);
        assert!(log.has_suffix(7));
        assert!(log.has_suffix(9));
        assert!(!log.has_suffix(6));
        // since() is logical: asking from 8 skips entry 7.
        let txns: Vec<u64> = log.since(8).map(|w| w.txn.ts).collect();
        assert_eq!(txns, vec![8, 9]);
        assert_eq!(log.since(10).count(), 0);
        // Group commit respects retention too.
        for i in 10..14 {
            log.stage(WriteSet::empty(TxnId::new(i, 0)));
        }
        assert_eq!(log.flush_group(), Some((10, 4)));
        assert_eq!(log.len(), 14);
        assert_eq!(log.first_retained(), 11);
    }

    #[test]
    fn restart_at_is_a_new_log_that_keeps_its_retention() {
        let mut log = RedoLog::new().with_retention(2);
        for i in 0..5 {
            log.append(WriteSet::empty(TxnId::new(i, 0)));
        }
        log.stage(WriteSet::empty(TxnId::new(9, 0)));
        log.restart_at(7);
        assert_eq!((log.len(), log.first_retained()), (7, 7));
        assert_eq!(log.since(0).count(), 0);
        assert_eq!((log.staged_len(), log.fsyncs()), (0, 0));
        // The cap survived: three appends retain two.
        for i in 0..3 {
            assert_eq!(
                log.append(WriteSet::empty(TxnId::new(i, 0))),
                7 + i as usize
            );
        }
        assert_eq!(log.first_retained(), 8);
        // Position 0 is a plain fresh log.
        log.restart_at(0);
        assert!(log.is_empty());
        assert_eq!(log.first_retained(), 0);
        // A restore then fast-forwards it to the durable watermark.
        log.skip_to(3);
        assert_eq!(log.len(), 3);
        assert!(log.has_suffix(3) && !log.has_suffix(2));
    }

    fn ws(ts: u64, keys: &[u64]) -> WriteSet {
        WriteSet {
            txn: TxnId::new(ts, 0),
            writes: keys
                .iter()
                .map(|&k| WriteRecord {
                    key: Key(k),
                    value: Value(ts as i64 * 10 + k as i64),
                    version: ts,
                })
                .collect(),
        }
    }

    fn logged(log: &RedoLog, from: usize) -> Vec<WriteSet> {
        log.since(from).map(|v| v.to_writeset()).collect()
    }

    #[test]
    fn since_yields_exactly_the_appended_records() {
        let sets: Vec<WriteSet> = (0..7)
            .map(|i| ws(i, &[1, 3, 4][..(i % 4) as usize]))
            .collect();
        let mut log = RedoLog::new();
        log.append(sets[0].clone());
        log.append_view((&sets[1]).into());
        for s in &sets[2..5] {
            log.stage_view(s.into());
        }
        log.append(sets[5].clone());
        let staged: Vec<WriteSet> = log.staged().map(|v| v.to_writeset()).collect();
        assert_eq!(staged, sets[2..5]);
        assert_eq!(log.flush_group(), Some((3, 3)));
        log.stage(sets[6].clone());
        assert_eq!(log.flush_each(), Some((6, 1)));
        assert_eq!(log.fsyncs(), 5, "three appends, one group, one each");
        // Appends land before a group staged earlier: stage order holds
        // within the group, and the group follows what was forced first.
        let order: Vec<u64> = log.since(0).map(|v| v.txn.ts).collect();
        assert_eq!(order, vec![0, 1, 5, 2, 3, 4, 6]);
        let expected: Vec<WriteSet> = [0, 1, 5, 2, 3, 4, 6]
            .iter()
            .map(|&i| sets[i].clone())
            .collect();
        assert_eq!(logged(&log, 0), expected);
        assert_eq!(logged(&log, 4), expected[4..]);
        assert!(log.since(7).next().is_none());
    }

    #[test]
    fn retention_compacts_a_dead_prefix_in_chunks() {
        let mut log = RedoLog::new().with_retention(4);
        for i in 0..40 {
            log.append(ws(i, &[i % 5, 7]));
            assert!(log.held.len() <= 8, "dead prefix never compacted");
            assert_eq!(log.len() as u64 - log.first_retained(), (i + 1).min(4));
        }
        assert_eq!(
            logged(&log, 36),
            (36..40).map(|i| ws(i, &[i % 5, 7])).collect::<Vec<_>>()
        );
        // A compacted log ships the same suffix it would have kept.
        let t = crate::Transfer::from_log(&log, &crate::Store::new(), 37);
        let shipped: Vec<WriteSet> = t.entries.views().map(|v| v.to_writeset()).collect();
        assert_eq!(shipped, logged(&log, 37));
    }

    #[test]
    fn restart_and_skip_work_on_columns() {
        let mut log = RedoLog::new().with_retention(3);
        for i in 0..9 {
            log.append(ws(i, &[1, 2]));
        }
        log.stage(ws(99, &[5]));
        // A restarted log holds nothing of the old columns.
        log.restart_at(20);
        assert_eq!(
            (log.len(), log.first_retained(), log.staged_len()),
            (20, 20, 0)
        );
        log.append(ws(20, &[3]));
        log.stage(ws(21, &[4, 6]));
        log.flush_group();
        assert_eq!(logged(&log, 20), vec![ws(20, &[3]), ws(21, &[4, 6])]);
        // Skipping ahead drops the columns and staged records alike; a
        // skip backwards is a no-op.
        log.stage(ws(22, &[8]));
        log.skip_to(30);
        assert_eq!(
            (log.len(), log.first_retained(), log.staged_len()),
            (30, 30, 0)
        );
        log.skip_to(25);
        assert_eq!(log.len(), 30);
        log.append(ws(30, &[9]));
        assert_eq!(logged(&log, 30), vec![ws(30, &[9])]);
        assert_eq!(log.since(30).next().map(|v| v.len()), Some(1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "truncated")]
    fn since_below_the_truncation_point_is_a_debug_assertion() {
        let mut log = RedoLog::new().with_retention(2);
        for i in 0..5 {
            log.append(ws(i, &[1]));
        }
        let _ = log.since(1).count();
    }

    #[test]
    fn keys_are_iterated_in_order() {
        let ws = WriteSet {
            txn: TxnId::new(1, 0),
            writes: vec![
                WriteRecord {
                    key: Key(1),
                    value: Value(0),
                    version: 1,
                },
                WriteRecord {
                    key: Key(4),
                    value: Value(0),
                    version: 1,
                },
            ],
        };
        assert_eq!(ws.keys().collect::<Vec<_>>(), vec![Key(1), Key(4)]);
        assert_eq!(ws.wire_size(), 16 + 48);
    }
}
