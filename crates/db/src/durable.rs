//! The durable log tier: sealed redo frames shipped off-node, surviving
//! total loss of a site's local volume.
//!
//! The local [`RedoLog`](crate::RedoLog) is fsync-durable but lives on a
//! losable volume. A [`DurableLog`] is the off-node copy: an uploader
//! seals the writesets committed since the last seal into a
//! [`DurableFrame`] and ships it to an object store. The tier's caller
//! computes each frame's `durable_at` from its upload model; the
//! `DurableLog` itself is pure bookkeeping (this crate has no simulator
//! dependency).
//!
//! Three moments matter:
//!
//! * **Seal** — a frame's entries are on the wire but *not yet durable*.
//! * **Wipe** — a disaster at time `t` keeps exactly the frames with
//!   `durable_at <= t`; in-flight frames (and their entries) are lost
//!   and returned to the caller so acknowledged-but-lost commits can be
//!   claimed in the data-loss accounting.
//! * **Restore** — the surviving tier state is packaged through the
//!   existing [`Transfer`] machinery as a *durable snapshot* (the
//!   compacted frame prefix) plus a *durable suffix* (the still-framed
//!   entries), mirroring the snapshot/log-suffix split of peer recovery.
//!
//! Old durable frames are periodically folded into an internal backup
//! [`Store`] ("compaction"), so restores don't replay the whole history;
//! the fold keeps each folded transaction's id and key set so a restored
//! site can rebuild its execution history for the 1SR oracle. The framed
//! entries and the fold history are [`TxnColumn`]s; a restore's suffix
//! is a clone of the first.

use std::collections::VecDeque;

use crate::arena::WsView;
use crate::column::TxnColumn;
use crate::item::{Key, Keyspace, TxnId, Value};
use crate::recovery::{Transfer, TransferStrategy};
use crate::store::Store;

/// One sealed upload unit: a contiguous run of redo entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableFrame {
    /// Logical index of the frame's first entry.
    pub start: u64,
    /// Number of entries in the frame.
    pub count: u64,
    /// Serialized size shipped to the object store.
    pub bytes: u64,
    /// Virtual tick at which the frame was sealed and the upload began.
    pub sealed_at: u64,
    /// Virtual tick at which the object store holds the frame durably.
    pub durable_at: u64,
    /// The owning protocol's stream/log position *after* this frame's
    /// entries — where a restored replica resumes if this frame is the
    /// durable high-water mark.
    pub token: u64,
}

/// Everything needed to rebuild a wiped volume from the durable tier.
#[derive(Debug, Clone)]
pub struct DurableRestore {
    /// The compacted durable prefix, as a snapshot transfer (`None`
    /// when nothing was folded yet).
    pub snapshot: Option<Transfer>,
    /// The still-framed durable entries, as a log-suffix transfer
    /// (`None` when no frames survive uncompacted).
    pub suffix: Option<Transfer>,
    /// The keys of every transaction folded into the snapshot, in
    /// commit order — replayed into the restored site's execution
    /// history, which the snapshot transfer alone cannot rebuild.
    pub folded_history: TxnColumn<Key>,
    /// Logical log index after installing both transfers.
    pub high: u64,
    /// Protocol stream/log position to resume from.
    pub token: u64,
    /// Total transfer size, for restore-time accounting.
    pub bytes: u64,
}

/// The off-node durable copy of one site's redo stream. A seal copies
/// its entries' records into one [`TxnColumn`] and compaction moves the
/// folded keys into another, so a warm tier seals and compacts without
/// allocating.
///
/// # Examples
///
/// ```
/// use repl_db::{DurableLog, Keyspace, WriteSet, TxnId};
///
/// let mut tier = DurableLog::new(Keyspace::dense(8));
/// // Seal one frame at t=100 that becomes durable at t=600.
/// tier.seal(100, 600, 1, &[WriteSet::empty(TxnId::new(1, 0))]);
/// assert_eq!(tier.durable_high(599), 0, "still in flight");
/// assert_eq!(tier.durable_high(600), 1);
/// // A disaster at t=500 loses the in-flight frame.
/// let lost = tier.wipe(500);
/// assert_eq!(lost, vec![TxnId::new(1, 0)]);
/// assert_eq!(tier.restore().high, 0);
/// ```
#[derive(Debug, Clone)]
pub struct DurableLog {
    /// Sealed, not-yet-compacted frames, oldest first.
    frames: VecDeque<DurableFrame>,
    /// The frames' entries; entry 0 is logical index `snap_high`.
    entries: TxnColumn,
    /// Compacted durable prefix.
    snap: Store,
    /// Logical entries folded into `snap`.
    snap_high: u64,
    /// Stream token at the `snap_high` boundary.
    snap_token: u64,
    /// History-rebuild records for folded entries, in commit order.
    folded: TxnColumn<Key>,
    /// Frames sealed over the tier's lifetime (survives wipes).
    frames_sealed: u64,
}

/// Durable frames are folded into the backup store once more than this
/// many entries are retained: the bound on a restore's suffix replay.
/// Any positive value is correct.
const COMPACT_AFTER: usize = 64;

impl DurableLog {
    /// Creates an empty tier for a site whose store uses `keyspace`.
    pub fn new(keyspace: Keyspace) -> Self {
        DurableLog {
            frames: VecDeque::new(),
            entries: TxnColumn::new(),
            snap: Store::with_keyspace(keyspace, Value(0)),
            snap_high: 0,
            snap_token: 0,
            folded: TxnColumn::new(),
            frames_sealed: 0,
        }
    }

    /// Seals `entries` into a frame shipped at `sealed_at` and durable
    /// at `durable_at`, stamped with the protocol position `token`
    /// reached after them, copying their records into the tier's
    /// column. Returns the frame's serialized size (0 for an empty
    /// seal, which is a no-op: no frame, no upload).
    ///
    /// `durable_at` values must be non-decreasing across seals (uploads
    /// are FIFO); the durable watermark relies on it.
    pub fn seal<'a, V: Into<WsView<'a>>>(
        &mut self,
        sealed_at: u64,
        durable_at: u64,
        token: u64,
        entries: impl IntoIterator<Item = V>,
    ) -> u64 {
        let first = self.entries.len();
        let mut bytes = 0;
        for v in entries {
            let v = v.into();
            bytes += v.wire_size() as u64;
            self.entries.push_view(v);
        }
        let count = (self.entries.len() - first) as u64;
        if count == 0 {
            return 0;
        }
        debug_assert!(
            self.frames
                .back()
                .is_none_or(|f| f.durable_at <= durable_at),
            "durable tier uploads must be FIFO"
        );
        self.frames.push_back(DurableFrame {
            start: self.snap_high + first as u64,
            count,
            bytes,
            sealed_at,
            durable_at,
            token,
        });
        self.frames_sealed += 1;
        self.compact(sealed_at);
        bytes
    }

    /// Folds frames already durable at `now` into the backup store while
    /// more than [`COMPACT_AFTER`] entries are retained.
    fn compact(&mut self, now: u64) {
        let mut folded = 0;
        while self.entries.len() - folded > COMPACT_AFTER
            && self.frames.front().is_some_and(|f| f.durable_at <= now)
        {
            let frame = self.frames.pop_front().expect("checked above");
            for i in folded..folded + frame.count as usize {
                let v = self.entries.view(i);
                self.folded.push(v.txn, v.iter().map(|w| w.key));
                self.snap.apply_writeset(v);
            }
            folded += frame.count as usize;
            self.snap_high += frame.count;
            self.snap_token = frame.token;
        }
        if folded > 0 {
            self.entries.drop_front(folded);
        }
    }

    /// Highest logical log index durable at `now`: every entry below it
    /// survives a disaster at `now`.
    pub fn durable_high(&self, now: u64) -> u64 {
        let mut high = self.snap_high;
        for f in &self.frames {
            if f.durable_at > now {
                break;
            }
            high = f.start + f.count;
        }
        high
    }

    /// A disaster at `now`: in-flight frames (durable after `now`) are
    /// dropped, and the transactions of their entries — acknowledged
    /// locally but never made durable — are returned, in commit order,
    /// so the caller can claim them as the data-loss window. The durable
    /// prefix is untouched.
    pub fn wipe(&mut self, now: u64) -> Vec<TxnId> {
        let keep = self
            .frames
            .iter()
            .take_while(|f| f.durable_at <= now)
            .count();
        let kept_entries: usize = self
            .frames
            .iter()
            .take(keep)
            .map(|f| f.count as usize)
            .sum();
        self.frames.truncate(keep);
        let lost = self.entries.txns().skip(kept_entries).collect();
        self.entries.truncate(kept_entries);
        lost
    }

    /// Packages the surviving tier state for a restore (see
    /// [`DurableRestore`]). Callable any time; after a [`wipe`]
    /// (Self::wipe) it reflects exactly the durable prefix.
    pub fn restore(&self) -> DurableRestore {
        let snapshot = if self.snap_high > 0 {
            Some(Transfer::snapshot(&self.snap, self.snap_high))
        } else {
            None
        };
        let high = self.len();
        let suffix = (!self.entries.is_empty()).then(|| Transfer {
            strategy: TransferStrategy::LogSuffix,
            start: self.snap_high,
            entries: self.entries.clone(),
            snapshot: Vec::new(),
            high,
        });
        let token = self.frames.back().map_or(self.snap_token, |f| f.token);
        let bytes = snapshot.as_ref().map_or(0, |t| t.wire_size() as u64)
            + suffix.as_ref().map_or(0, |t| t.wire_size() as u64);
        DurableRestore {
            snapshot,
            suffix,
            folded_history: self.folded.clone(),
            high,
            token,
            bytes,
        }
    }

    /// Logical entries the tier has ever sealed (including folded ones).
    pub fn len(&self) -> u64 {
        self.snap_high + self.entries.len() as u64
    }

    /// True if nothing was ever sealed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Frames sealed over the tier's lifetime.
    pub fn frames_sealed(&self) -> u64 {
        self.frames_sealed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{WriteRecord, WriteSet};

    fn ws(ts: u64, key: u64, value: i64, version: u64) -> WriteSet {
        WriteSet {
            txn: TxnId::new(ts, 0),
            writes: vec![WriteRecord {
                key: Key(key),
                value: Value(value),
                version,
            }],
        }
    }

    #[test]
    fn watermark_follows_durable_frames() {
        let mut tier = DurableLog::new(Keyspace::dense(4));
        tier.seal(10, 100, 1, &[ws(1, 0, 5, 1)]);
        tier.seal(20, 200, 2, &[ws(2, 1, 6, 1)]);
        assert_eq!(tier.durable_high(99), 0);
        assert_eq!(tier.durable_high(100), 1);
        assert_eq!(tier.durable_high(200), 2);
        assert_eq!(tier.len(), 2);
        assert_eq!(tier.frames_sealed(), 2);
    }

    #[test]
    fn empty_seal_is_free() {
        let mut tier = DurableLog::new(Keyspace::dense(4));
        assert_eq!(tier.seal(10, 10, 0, &[] as &[WriteSet]), 0);
        assert!(tier.is_empty());
        assert_eq!(tier.frames_sealed(), 0);
    }

    #[test]
    fn wipe_loses_exactly_the_inflight_suffix() {
        let mut tier = DurableLog::new(Keyspace::dense(4));
        tier.seal(10, 50, 1, &[ws(1, 0, 5, 1)]);
        tier.seal(20, 300, 2, &[ws(2, 1, 6, 1), ws(3, 2, 7, 1)]);
        let lost = tier.wipe(100);
        assert_eq!(lost.len(), 2, "second frame was in flight");
        assert_eq!(lost[0], TxnId::new(2, 0));
        assert_eq!(tier.len(), 1);
        let r = tier.restore();
        assert_eq!(r.high, 1);
        assert_eq!(r.token, 1);
        assert!(r.snapshot.is_none());
        assert_eq!(r.suffix.as_ref().map(|t| t.entries.len()), Some(1));
    }

    #[test]
    fn wipe_at_zero_lag_loses_nothing() {
        let mut tier = DurableLog::new(Keyspace::dense(4));
        tier.seal(10, 10, 1, &[ws(1, 0, 5, 1)]);
        tier.seal(20, 20, 2, &[ws(2, 1, 6, 1)]);
        assert!(tier.wipe(20).is_empty());
        assert_eq!(tier.restore().high, 2);
    }

    #[test]
    fn compaction_folds_durable_prefix_and_restore_uses_both_strategies() {
        let mut tier = DurableLog::new(Keyspace::dense(8));
        let n = COMPACT_AFTER as u64 + 6;
        for i in 0..n {
            tier.seal(i * 10, i * 10, i + 1, &[ws(i + 1, i % 8, i as i64, 1)]);
        }
        assert_eq!(tier.snap_high, 6, "the frames past the threshold folded");
        assert_eq!(tier.frames.len(), COMPACT_AFTER);
        let r = tier.restore();
        let snap = r.snapshot.expect("compacted prefix");
        assert_eq!(snap.strategy, TransferStrategy::Snapshot);
        assert_eq!(snap.high, tier.snap_high);
        let suffix = r.suffix.expect("retained frames");
        assert_eq!(suffix.strategy, TransferStrategy::LogSuffix);
        assert_eq!(suffix.start, tier.snap_high);
        assert_eq!(r.high, n);
        assert_eq!(r.token, n);
        assert_eq!(r.folded_history.len(), tier.snap_high as usize);
        assert!(r.bytes > 0);

        // Applying snapshot then suffix reproduces the full state.
        let mut restored = Store::with_keyspace(Keyspace::dense(8), Value(0));
        snap.apply(&mut restored);
        suffix.apply(&mut restored);
        let mut replayed = Store::with_keyspace(Keyspace::dense(8), Value(0));
        for i in 0..n {
            replayed.apply_writeset(&ws(i + 1, i % 8, i as i64, 1));
        }
        assert_eq!(restored.fingerprint(), replayed.fingerprint());
    }

    #[test]
    fn compaction_never_folds_inflight_frames() {
        let mut tier = DurableLog::new(Keyspace::dense(4));
        // Past the threshold but durable far in the future: nothing may
        // fold, so a wipe can still return these entries as lost.
        let n = COMPACT_AFTER as u64 + 5;
        for i in 0..n {
            tier.seal(i, 1_000_000, i + 1, &[ws(i + 1, 0, i as i64, 1)]);
        }
        assert_eq!(tier.frames.len() as u64, n);
        assert_eq!(tier.wipe(10).len() as u64, n);
        assert!(tier.restore().snapshot.is_none());
    }

    /// `(high, token, bytes, suffix entries, folded history)` of a
    /// restore.
    type Restored = (u64, u64, u64, Vec<WriteSet>, Vec<(TxnId, Vec<Key>)>);

    /// The tier as it was kept before the column: owned writesets for
    /// the retained entries and an owned key list per folded
    /// transaction. The column tier must answer every question the same.
    struct RowLog {
        frames: Vec<DurableFrame>,
        entries: Vec<WriteSet>,
        snap: Store,
        snap_high: u64,
        snap_token: u64,
        folded: Vec<(TxnId, Vec<Key>)>,
    }

    impl RowLog {
        fn seal(&mut self, sealed_at: u64, durable_at: u64, token: u64, entries: Vec<WriteSet>) {
            if entries.is_empty() {
                return;
            }
            self.frames.push(DurableFrame {
                start: self.snap_high + self.entries.len() as u64,
                count: entries.len() as u64,
                bytes: entries.iter().map(|w| w.wire_size() as u64).sum(),
                sealed_at,
                durable_at,
                token,
            });
            self.entries.extend(entries);
            while self.entries.len() > COMPACT_AFTER
                && self
                    .frames
                    .first()
                    .is_some_and(|f| f.durable_at <= sealed_at)
            {
                let frame = self.frames.remove(0);
                for ws in self.entries.drain(..frame.count as usize) {
                    self.folded.push((ws.txn, ws.keys().collect()));
                    self.snap.apply_writeset(&ws);
                }
                self.snap_high += frame.count;
                self.snap_token = frame.token;
            }
        }

        fn wipe(&mut self, now: u64) -> Vec<TxnId> {
            let keep = self
                .frames
                .iter()
                .take_while(|f| f.durable_at <= now)
                .count();
            let kept: usize = self.frames[..keep].iter().map(|f| f.count as usize).sum();
            self.frames.truncate(keep);
            self.entries.split_off(kept).iter().map(|w| w.txn).collect()
        }

        fn restore(&self) -> Restored {
            let high = self.snap_high + self.entries.len() as u64;
            let snapshot =
                (self.snap_high > 0).then(|| Transfer::snapshot(&self.snap, self.snap_high));
            let suffix = Transfer {
                strategy: TransferStrategy::LogSuffix,
                start: self.snap_high,
                entries: self.entries.iter().map(WsView::from).collect(),
                snapshot: Vec::new(),
                high,
            };
            let bytes = snapshot.map_or(0, |t| t.wire_size() as u64)
                + if self.entries.is_empty() {
                    0
                } else {
                    suffix.wire_size() as u64
                };
            let token = self.frames.last().map_or(self.snap_token, |f| f.token);
            (
                high,
                token,
                bytes,
                self.entries.clone(),
                self.folded.clone(),
            )
        }
    }

    fn column_restore(tier: &DurableLog) -> Restored {
        let r = tier.restore();
        let suffix = r.suffix.map_or_else(Vec::new, |t| {
            t.entries.views().map(|v| v.to_writeset()).collect()
        });
        let folded = r
            .folded_history
            .entries()
            .map(|(t, k)| (t, k.to_vec()))
            .collect();
        (r.high, r.token, r.bytes, suffix, folded)
    }

    #[test]
    fn the_column_tier_answers_as_the_row_tier_did() {
        let ks = Keyspace::dense(16);
        let mut column = DurableLog::new(ks);
        let mut rows = RowLog {
            frames: Vec::new(),
            entries: Vec::new(),
            snap: Store::with_keyspace(ks, Value(0)),
            snap_high: 0,
            snap_token: 0,
            folded: Vec::new(),
        };
        // Noted since the last seal: a column for the tier, writesets
        // for the reference.
        let mut pending = TxnColumn::new();
        let mut pending_rows: Vec<WriteSet> = Vec::new();
        let mut ts = 0;
        let mut lost = (Vec::new(), Vec::new());
        // Five rounds of 40 commits, sealed in groups of 0 to 3 under a
        // lag that changes per round; a disaster ends rounds 1 and 3.
        for round in 0..5u64 {
            let lag = [0, 700, 30, 2_000, 5][round as usize];
            for step in 0..40u64 {
                let now = round * 100_000 + step * 100;
                for _ in 0..(step % 4) {
                    ts += 1;
                    // 0 to 2 writes over a small keyspace: empty
                    // writesets are entries too.
                    let writes = (0..ts % 3)
                        .map(|j| WriteRecord {
                            key: Key((ts * 7 + j * 3) % 16),
                            value: Value(ts as i64),
                            version: ts,
                        })
                        .collect();
                    let ws = WriteSet {
                        txn: TxnId::new(ts, (ts % 3) as u32),
                        writes,
                    };
                    pending.push_view((&ws).into());
                    pending_rows.push(ws);
                }
                let token = ts * 10 + round;
                let bytes = column.seal(now, now + lag, token, pending.views());
                pending.clear();
                let expected: u64 = pending_rows.iter().map(|w| w.wire_size() as u64).sum();
                assert_eq!(bytes, expected);
                rows.seal(now, now + lag, token, std::mem::take(&mut pending_rows));
                assert_eq!(column.len(), rows.snap_high + rows.entries.len() as u64);
                assert_eq!(column.durable_high(now + lag / 2), {
                    let mut high = rows.snap_high;
                    for f in rows
                        .frames
                        .iter()
                        .take_while(|f| f.durable_at <= now + lag / 2)
                    {
                        high = f.start + f.count;
                    }
                    high
                });
                if step % 9 == 0 {
                    assert_eq!(column_restore(&column), rows.restore());
                }
            }
            if round % 2 == 1 {
                let at = round * 100_000 + 3_950;
                lost.0.extend(column.wipe(at));
                lost.1.extend(rows.wipe(at));
                assert_eq!(lost.0, lost.1, "the same commits lost, in order");
                assert_eq!(column_restore(&column), rows.restore());
            }
        }
        assert!(!lost.0.is_empty(), "the script loses in-flight frames");
        assert!(rows.snap_high > COMPACT_AFTER as u64, "the script compacts");
        assert_eq!(column.restore().snapshot, {
            (rows.snap_high > 0).then(|| Transfer::snapshot(&rows.snap, rows.snap_high))
        });
        assert_eq!(column_restore(&column), rows.restore());
    }
}
