//! State transfer for crash recovery: the db-level half of rejoin.
//!
//! When a replica recovers it must close the gap between its stable
//! state and the group's. The donor (primary, leader, or any up-to-date
//! peer) chooses between two classic strategies:
//!
//! * **Log suffix** — ship the redo records the requester missed. Cheap
//!   for short outages; only possible while the donor's [`RedoLog`]
//!   still retains the requester's position.
//! * **Snapshot** — ship the donor's full versioned store. Needed after
//!   long outages once the log has been truncated past the requester's
//!   position, and for techniques that keep no redo log at all.
//!
//! [`Transfer`] packages either form plus the donor's log watermark so
//! the requester knows where to resume. [`RecoveryTracker`] accumulates
//! the MTTR accounting the experiment reports surface (rejoin time,
//! catch-up time, transfer bytes, strategy counts).

use crate::item::Key;
use crate::log::{RedoLog, WriteSet};
use crate::store::{Store, Versioned};

/// Which state-transfer strategy a donor selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferStrategy {
    /// Redo-log suffix: the writesets the requester missed, in commit
    /// order. Applied like any propagated update.
    LogSuffix,
    /// Full store snapshot: replaces the requester's database state
    /// wholesale.
    Snapshot,
}

/// One state-transfer payload, donor → recovering replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// The strategy the donor chose.
    pub strategy: TransferStrategy,
    /// For [`TransferStrategy::LogSuffix`]: logical log index of the
    /// first shipped entry (the requester's `have`). Unused (0) for
    /// snapshots.
    pub start: u64,
    /// Log-suffix entries, in commit order (empty for snapshots).
    pub entries: Vec<WriteSet>,
    /// Store snapshot, key-sorted (empty for log suffixes).
    pub snapshot: Vec<(Key, Versioned)>,
    /// The donor's logical log length (applied watermark) at transfer
    /// time: the requester's new position after installing.
    pub high: u64,
}

impl Transfer {
    /// Builds a transfer for a requester that has applied the log prefix
    /// `[0, have)`. Ships the log suffix when the donor still retains
    /// it, otherwise falls back to a snapshot of `store`.
    pub fn from_log(log: &RedoLog, store: &Store, have: u64) -> Transfer {
        let high = log.len() as u64;
        if log.has_suffix(have) {
            Transfer {
                strategy: TransferStrategy::LogSuffix,
                start: have,
                entries: log.since(have as usize).map(|v| v.to_writeset()).collect(),
                snapshot: Vec::new(),
                high,
            }
        } else {
            Transfer::snapshot(store, high)
        }
    }

    /// Builds a snapshot transfer from `store`, stamped with the donor's
    /// applied watermark (use 0 for techniques without a log position).
    pub fn snapshot(store: &Store, high: u64) -> Transfer {
        Transfer {
            strategy: TransferStrategy::Snapshot,
            start: 0,
            entries: Vec::new(),
            snapshot: store.snapshot(),
            high,
        }
    }

    /// Builds a snapshot of `store`'s *committed* state: tentative
    /// in-place writes of transactions still active in `tm` are rolled
    /// back to their before-images, so a requester never installs data
    /// that the donor might later undo.
    pub fn committed_snapshot(store: &Store, tm: &crate::TxnManager, high: u64) -> Transfer {
        let mut snap = store.snapshot();
        let before = tm.before_images();
        for (k, v) in snap.iter_mut() {
            if let Some(b) = before.get(k) {
                *v = *b;
            }
        }
        Transfer {
            strategy: TransferStrategy::Snapshot,
            start: 0,
            entries: Vec::new(),
            snapshot: snap,
            high,
        }
    }

    /// Approximate wire size in bytes, for message and MTTR accounting.
    pub fn wire_size(&self) -> usize {
        let entries: usize = self.entries.iter().map(WriteSet::wire_size).sum();
        // Key + value + version + writer per snapshot item.
        32 + entries + self.snapshot.len() * 40
    }

    /// Applies the transfer to a bare store (no history recording) and
    /// returns the requester's new applied watermark. Protocol servers
    /// that track execution histories install log suffixes through
    /// their own writeset-install path instead.
    pub fn apply(&self, store: &mut Store) -> u64 {
        match self.strategy {
            TransferStrategy::LogSuffix => {
                for ws in &self.entries {
                    store.apply_writeset(ws);
                }
            }
            TransferStrategy::Snapshot => store.install_snapshot(&self.snapshot),
        }
        self.high
    }
}

/// Per-replica recovery accounting, surfaced through run reports.
///
/// Protocols call [`RecoveryTracker::begin`] from `on_recover` and
/// [`RecoveryTracker::complete`] once caught up (state transfer
/// installed, or the ordered stream refilled). Times are virtual ticks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryTracker {
    /// Tick of the most recent rejoin attempt (`on_recover`).
    pub rejoin_at: Option<u64>,
    /// Tick when the most recent recovery finished catching up.
    pub caught_up_at: Option<u64>,
    /// Total state-transfer bytes received across all recoveries.
    pub transfer_bytes: u64,
    /// Transfers served from a redo-log suffix.
    pub log_suffix_transfers: u64,
    /// Transfers served as full snapshots.
    pub snapshot_transfers: u64,
    /// Number of recoveries started.
    pub recoveries: u64,
}

impl RecoveryTracker {
    /// Marks the start of a recovery (call from `on_recover`).
    pub fn begin(&mut self, now: u64) {
        self.rejoin_at = Some(now);
        self.caught_up_at = None;
        self.recoveries += 1;
    }

    /// True while a recovery has started but not yet caught up.
    pub fn is_recovering(&self) -> bool {
        self.rejoin_at.is_some() && self.caught_up_at.is_none()
    }

    /// Marks the recovery as caught up (idempotent per recovery).
    pub fn complete(&mut self, now: u64) {
        if self.is_recovering() {
            self.caught_up_at = Some(now);
        }
    }

    /// Records a received transfer's strategy and size.
    pub fn record_transfer(&mut self, strategy: TransferStrategy, bytes: u64) {
        self.transfer_bytes += bytes;
        match strategy {
            TransferStrategy::LogSuffix => self.log_suffix_transfers += 1,
            TransferStrategy::Snapshot => self.snapshot_transfers += 1,
        }
    }

    /// Catch-up duration of the last completed recovery, in ticks.
    pub fn catch_up_ticks(&self) -> Option<u64> {
        match (self.rejoin_at, self.caught_up_at) {
            (Some(r), Some(c)) => Some(c.saturating_sub(r)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::{TxnId, Value};

    fn committed(store: &mut Store, log: &mut RedoLog, key: u64, value: i64, ts: u64) {
        let t = TxnId::new(ts, 0);
        let v = store.write(Key(key), Value(value), t);
        log.append(WriteSet {
            txn: t,
            writes: vec![crate::log::WriteRecord {
                key: Key(key),
                value: Value(value),
                version: v.version,
            }],
        });
    }

    #[test]
    fn short_outage_ships_a_log_suffix() {
        let mut store = Store::with_items(4, Value(0));
        let mut log = RedoLog::new();
        for i in 0..6 {
            committed(&mut store, &mut log, i % 4, i as i64, i + 1);
        }
        // The requester saw the first four commits.
        let t = Transfer::from_log(&log, &store, 4);
        assert_eq!(t.strategy, TransferStrategy::LogSuffix);
        assert_eq!(t.start, 4);
        assert_eq!(t.entries.len(), 2);
        assert_eq!(t.high, 6);
        let mut joiner = store.clone();
        // Roll the joiner back to its pre-crash state by replaying the
        // prefix onto a fresh store.
        let mut behind = Store::with_items(4, Value(0));
        for ws in log.since(0).take(4) {
            behind.apply_writeset(ws);
        }
        assert_ne!(behind.fingerprint(), store.fingerprint());
        assert_eq!(t.apply(&mut behind), 6);
        assert_eq!(behind.fingerprint(), store.fingerprint());
        assert_eq!(t.apply(&mut joiner), 6, "idempotent re-apply");
        assert_eq!(joiner.fingerprint(), store.fingerprint());
    }

    #[test]
    fn truncated_log_falls_back_to_snapshot() {
        let mut store = Store::with_items(4, Value(0));
        let mut log = RedoLog::new().with_retention(2);
        for i in 0..8 {
            committed(&mut store, &mut log, i % 4, 10 + i as i64, i + 1);
        }
        assert_eq!(log.first_retained(), 6);
        // A requester at position 3 fell behind the truncation point.
        let t = Transfer::from_log(&log, &store, 3);
        assert_eq!(t.strategy, TransferStrategy::Snapshot);
        assert_eq!(t.high, 8);
        let mut behind = Store::with_items(4, Value(-1));
        assert_eq!(t.apply(&mut behind), 8);
        assert_eq!(behind.fingerprint(), store.fingerprint());
        // A requester inside the retained window still gets the suffix.
        let t2 = Transfer::from_log(&log, &store, 7);
        assert_eq!(t2.strategy, TransferStrategy::LogSuffix);
        assert_eq!(t2.entries.len(), 1);
    }

    #[test]
    fn tracker_accounts_for_mttr() {
        let mut tr = RecoveryTracker::default();
        assert!(!tr.is_recovering());
        tr.begin(1_000);
        assert!(tr.is_recovering());
        assert_eq!(tr.catch_up_ticks(), None);
        tr.record_transfer(TransferStrategy::Snapshot, 640);
        tr.record_transfer(TransferStrategy::LogSuffix, 64);
        tr.complete(4_500);
        tr.complete(9_999); // idempotent: later completes ignored
        assert_eq!(tr.catch_up_ticks(), Some(3_500));
        assert_eq!(tr.transfer_bytes, 704);
        assert_eq!(tr.snapshot_transfers, 1);
        assert_eq!(tr.log_suffix_transfers, 1);
        assert_eq!(tr.recoveries, 1);
        // A second recovery restarts the clock.
        tr.begin(20_000);
        assert!(tr.is_recovering());
        assert_eq!(tr.catch_up_ticks(), None);
        assert_eq!(tr.recoveries, 2);
    }

    #[test]
    fn wire_size_scales_with_payload() {
        let store = Store::with_items(10, Value(0));
        let snap = Transfer::snapshot(&store, 0);
        assert_eq!(snap.wire_size(), 32 + 10 * 40);
        let log = RedoLog::new();
        let suffix = Transfer::from_log(&log, &store, 0);
        assert_eq!(suffix.strategy, TransferStrategy::LogSuffix);
        assert_eq!(suffix.wire_size(), 32);
    }
}
