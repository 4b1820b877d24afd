//! Redo log records: the "update" messages replication propagates.
//!
//! In the paper's passive and primary-copy techniques the executing site
//! does not ship the operation but the *changes* it produced — log
//! records. A [`WriteSet`] is exactly that: the after-images of one
//! transaction's writes, applicable at any replica without re-execution.

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
    entries: Vec<WriteSet>,
    staged: Vec<WriteSet>,
    fsyncs: u64,
    /// Logical index of the first retained entry (0 until truncation).
    base: u64,
    /// Maximum number of entries retained (`None` = keep everything).
    retention: Option<usize>,
}

impl RedoLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        RedoLog {
            entries: Vec::new(),
            staged: Vec::new(),
            fsyncs: 0,
            base: 0,
            retention: None,
        }
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
        self.base
    }

    /// True if the log still holds every entry from logical index
    /// `from` onwards.
    pub fn has_suffix(&self, from: u64) -> bool {
        from >= self.base
    }

    fn enforce_retention(&mut self) {
        if let Some(max) = self.retention {
            if self.entries.len() > max {
                let drop = self.entries.len() - max;
                self.entries.drain(..drop);
                self.base += drop as u64;
            }
        }
    }

    /// Appends a committed transaction's writeset; returns its log index.
    /// Pays one stable-storage force.
    pub fn append(&mut self, ws: WriteSet) -> usize {
        self.entries.push(ws);
        self.fsyncs += 1;
        let idx = self.base as usize + self.entries.len() - 1;
        self.enforce_retention();
        idx
    }

    /// Stages a record for the next group commit (no force yet; the
    /// record is not durable and not visible to [`RedoLog::since`]
    /// until [`RedoLog::flush_group`]).
    pub fn stage(&mut self, ws: WriteSet) {
        self.staged.push(ws);
    }

    /// Number of records staged for the next group commit.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Commits every staged record with a single force. Returns the
    /// logical log index of the first record and the group size, or
    /// `None` if nothing was staged (no force is paid then).
    pub fn flush_group(&mut self) -> Option<(usize, usize)> {
        if self.staged.is_empty() {
            return None;
        }
        let start = self.base as usize + self.entries.len();
        let count = self.staged.len();
        self.entries.append(&mut self.staged);
        self.fsyncs += 1;
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
        self.base as usize + self.entries.len()
    }

    /// True if the log never committed anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Restarts the log empty at logical position `index`, as
    /// [`RedoLog::new`] would — no entries, nothing staged, no forces
    /// paid — except that the retention cap is kept: the fresh log a
    /// replica opens after its volume was lost or restored.
    pub fn restart_at(&mut self, index: u64) {
        *self = RedoLog {
            base: index,
            retention: self.retention,
            ..RedoLog::new()
        };
    }

    /// Fast-forwards the log to logical position `index`, retaining
    /// nothing below it — used after installing a snapshot stamped with
    /// the donor's watermark, where the skipped entries were never
    /// seen. No-op if the log already reaches `index`.
    pub fn skip_to(&mut self, index: u64) {
        if index as usize > self.len() {
            self.entries.clear();
            self.staged.clear();
            self.base = index;
        }
    }

    /// Entries from *logical* log index `from` onwards (for catch-up
    /// transfer). Positions before [`RedoLog::first_retained`] cannot be
    /// served; callers should check [`RedoLog::has_suffix`] first —
    /// `since` silently starts at the truncation point otherwise.
    pub fn since(&self, from: usize) -> impl Iterator<Item = &WriteSet> {
        let phys = from.saturating_sub(self.base as usize);
        self.entries[phys.min(self.entries.len())..].iter()
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
