//! The durable log tier: each site's uploader into an off-node object
//! store, and the disaster bookkeeping around it.
//!
//! The local [`RedoLog`](crate::RedoLog) is fsync-durable but lives on a
//! losable volume. A [`DurableLog`] is the off-node copy: every commit is
//! noted in a pending column, and each seal ships what was noted since
//! the last one as a [`DurableFrame`] that the object store holds
//! `upload_lag` ticks later. At any instant the tier therefore splits the
//! site's acknowledged commits into a *durable prefix* and an *exposed
//! suffix* — the data-loss window a volume-loss disaster realises. The
//! tier is pure bookkeeping over virtual ticks (this crate has no
//! simulator dependency): uploads do not travel the simulated network.
//!
//! Three moments matter:
//!
//! * **Seal** — a frame's entries are on the wire but *not yet durable*.
//! * **Wipe** — a disaster at time `t` keeps exactly the frames with
//!   `durable_at <= t`; in-flight frames and the unsealed tail are lost,
//!   claimed in [`DurableLog::lost`] and returned to the caller.
//! * **Restore** — the surviving state is one [`DurableRestore`]: a
//!   *durable snapshot* (the compacted frame prefix) and a *durable
//!   suffix* (the still-framed entries) as [`Transfer`]s, mirroring the
//!   snapshot/log-suffix split of peer recovery, and the download's
//!   delay. Until [`DurableLog::finish_restore`] the site is deaf and
//!   notes nothing: what it installs is already durable.
//!
//! Old durable frames are periodically folded into an internal backup
//! [`Store`] ("compaction"), so restores don't replay the whole history;
//! the fold keeps each folded transaction's id and key set so a restored
//! site can rebuild its execution history for the 1SR oracle, reading
//! them in place ([`DurableLog::folded_history`]). The pending
//! tail, the framed entries and the fold history are [`TxnColumn`]s; a
//! restore's suffix is the one copy of the framed entries, made once per
//! disaster.

use std::collections::VecDeque;

use crate::arena::WsView;
use crate::column::TxnColumn;
use crate::item::{Key, Keyspace, TxnId, Value};
use crate::log::{WriteRecord, FSYNC_TICKS};
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

/// Everything a wiped site needs to rebuild its volume from the durable
/// tier, and how long that takes. The default is the restore of a site
/// without a tier: nothing to install, resume from position 0 at once,
/// and let the group replay the rest.
#[derive(Debug, Clone, Default)]
pub struct DurableRestore {
    /// The compacted durable prefix, as a snapshot transfer (`None`
    /// when nothing was folded yet).
    pub snapshot: Option<Transfer>,
    /// The still-framed durable entries, as a log-suffix transfer from
    /// logical index `start` (`None` when no frames survive
    /// uncompacted).
    pub suffix: Option<Transfer>,
    /// Logical log index after installing both transfers.
    pub high: u64,
    /// Protocol stream/log position to resume from: everything after it
    /// must be re-fetched from the group.
    pub token: u64,
    /// Total transfer size, for restore-time accounting.
    pub bytes: u64,
    /// Ticks the download plus the local fsync replay take; the site
    /// stays deaf until they elapse.
    pub delay: u64,
}

/// Where a tier stands between a wipe and the end of its restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RestoreState {
    /// Uploading as usual.
    Live,
    /// Wiped: the next [`DurableLog::restore`] packages the durable
    /// state.
    Armed,
    /// The restore download is in flight: the site is deaf and notes
    /// nothing.
    Downloading,
}

/// One site's durable tier: the pending tail, the off-node frames and
/// backup store, the loss claims and the restore accounting. A note
/// copies a commit's records into the pending column, a seal moves them
/// into the framed column and compaction moves the folded keys into a
/// third, so a warm tier notes, seals and compacts without allocating.
///
/// # Examples
///
/// ```
/// use repl_db::{DurableLog, Keyspace, WriteSet, TxnId};
///
/// // Uploads take 500 ticks.
/// let mut tier = DurableLog::new(Keyspace::dense(8), 500);
/// tier.note_commit(&WriteSet::empty(TxnId::new(1, 0)));
/// tier.seal(100, 1);
/// assert_eq!(tier.durable_high(599), 0, "still in flight");
/// assert_eq!(tier.durable_high(600), 1);
/// // A disaster at t=500 loses the in-flight frame and arms a restore.
/// assert_eq!(tier.wipe(500), vec![TxnId::new(1, 0)]);
/// assert_eq!(tier.lost(), [TxnId::new(1, 0)]);
/// let restore = tier.restore().expect("the wipe armed a restore");
/// assert_eq!((restore.high, restore.delay), (0, 500));
/// assert!(tier.restoring());
/// tier.finish_restore();
/// assert!(tier.restore().is_none(), "one restore per wipe");
/// ```
#[derive(Debug, Clone)]
pub struct DurableLog {
    /// Ticks from a seal until the object store holds the frame; a
    /// restore's download takes as long. Zero is a synchronous tier,
    /// which loses nothing.
    upload_lag: u64,
    /// Records noted since the last seal (the exposed, not-yet-shipped
    /// tail), one column reused from seal to seal.
    pending: TxnColumn,
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
    /// Acknowledged commits a disaster erased before they were durable.
    lost: Vec<TxnId>,
    /// Where the wipe/restore cycle stands.
    state: RestoreState,
    /// Restores performed.
    pub restores: u64,
    /// Transfer bytes downloaded by restores.
    pub restore_bytes: u64,
    /// Ticks spent deaf in restore downloads.
    pub restore_ticks: u64,
}

/// Durable frames are folded into the backup store once more than this
/// many entries are retained: the bound on a restore's suffix replay.
/// Any positive value is correct.
const COMPACT_AFTER: usize = 64;

impl DurableLog {
    /// Creates an empty tier for a site whose store uses `keyspace`,
    /// with object-store requests that take `upload_lag` ticks.
    pub fn new(keyspace: Keyspace, upload_lag: u64) -> Self {
        DurableLog {
            upload_lag,
            pending: TxnColumn::new(),
            frames: VecDeque::new(),
            entries: TxnColumn::new(),
            snap: Store::with_keyspace(keyspace, Value(0)),
            snap_high: 0,
            snap_token: 0,
            folded: TxnColumn::new(),
            frames_sealed: 0,
            lost: Vec::new(),
            state: RestoreState::Live,
            restores: 0,
            restore_bytes: 0,
            restore_ticks: 0,
        }
    }

    /// Queues a committed writeset for the next seal, from a view of
    /// its records wherever they sit. No-op while a restore is being
    /// installed (those entries are already durable).
    pub fn note_commit<'a>(&mut self, ws: impl Into<WsView<'a>>) {
        let ws = ws.into();
        self.note_records(ws.txn, ws.iter());
    }

    /// [`DurableLog::note_commit`] for records produced on the fly (an
    /// install that reads back the versions it assigned).
    pub fn note_records(
        &mut self,
        txn: TxnId,
        records: impl IntoIterator<Item = WriteRecord, IntoIter: ExactSizeIterator>,
    ) {
        if self.state != RestoreState::Downloading {
            self.pending.push(txn, records);
        }
    }

    /// Seals everything noted since the last seal into one frame shipped
    /// at `now`, durable `upload_lag` ticks later and stamped with the
    /// protocol position `token` reached after those commits. Returns
    /// the frame's serialized size (0 when nothing was noted: no frame,
    /// no upload).
    pub fn seal(&mut self, now: u64, token: u64) -> u64 {
        if self.pending.is_empty() {
            return 0;
        }
        let durable_at = now + self.upload_lag;
        debug_assert!(
            self.frames
                .back()
                .is_none_or(|f| f.durable_at <= durable_at),
            "durable tier uploads must be FIFO"
        );
        let bytes = self.pending.wire_size() as u64;
        self.frames.push_back(DurableFrame {
            start: self.len(),
            count: self.pending.len() as u64,
            bytes,
            sealed_at: now,
            durable_at,
            token,
        });
        self.entries.append(&mut self.pending);
        self.frames_sealed += 1;
        self.compact(now);
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

    /// A disaster at `now`: drops the in-flight frames (durable after
    /// `now`) and the unsealed tail, claims every erased acknowledged
    /// commit in [`DurableLog::lost`], and arms the restore. Returns the
    /// erased transactions in commit order, so the caller can forget
    /// their recorded replies (their ops must re-execute when the group
    /// replays them). The durable prefix is untouched.
    pub fn wipe(&mut self, now: u64) -> Vec<TxnId> {
        // Uploads are FIFO: the durable frames are a prefix.
        let kept = (self.durable_high(now) - self.snap_high) as usize;
        self.frames.retain(|f| f.durable_at <= now);
        let mut erased: Vec<TxnId> = self.entries.txns().skip(kept).collect();
        erased.extend(self.pending.txns());
        self.entries.truncate(kept);
        self.pending.clear();
        self.lost.extend_from_slice(&erased);
        self.state = RestoreState::Armed;
        erased
    }

    /// Claims `txns` as lost in this site's disaster: acknowledged
    /// commits the site held outside the tier (never noted), for the
    /// no-silent-loss accounting.
    pub fn claim_lost(&mut self, txns: impl IntoIterator<Item = TxnId>) {
        self.lost.extend(txns);
    }

    /// Acknowledged commits disasters erased before they were durable —
    /// the claimed data-loss window, in claim order.
    pub fn lost(&self) -> &[TxnId] {
        &self.lost
    }

    /// The keys of every transaction folded into the snapshot, in commit
    /// order: a restore replays them into the site's execution history,
    /// which the snapshot transfer alone cannot rebuild.
    pub fn folded_history(&self) -> &TxnColumn<Key> {
        &self.folded
    }

    /// Starts the restore a wipe armed: packages the surviving durable
    /// state and the download window, counts them in the restore
    /// accounting, and stops noting until [`DurableLog::finish_restore`].
    /// `None` if the volume was not wiped since the last restore. The
    /// caller installs the transfers, stays deaf for `delay` ticks, then
    /// rejoins.
    pub fn restore(&mut self) -> Option<DurableRestore> {
        if self.state != RestoreState::Armed {
            return None;
        }
        self.state = RestoreState::Downloading;
        let restore = self.image();
        self.restores += 1;
        self.restore_bytes += restore.bytes;
        self.restore_ticks += restore.delay;
        Some(restore)
    }

    /// The tier's durable state as a restore would install it now.
    fn image(&self) -> DurableRestore {
        let snapshot = (self.snap_high > 0).then(|| Transfer::snapshot(&self.snap, self.snap_high));
        let high = self.len();
        let suffix = (!self.entries.is_empty()).then(|| Transfer {
            strategy: TransferStrategy::LogSuffix,
            start: self.snap_high,
            entries: self.entries.clone(),
            snapshot: Vec::new(),
            high,
        });
        let bytes = snapshot.as_ref().map_or(0, |t| t.wire_size() as u64)
            + suffix.as_ref().map_or(0, |t| t.wire_size() as u64);
        // One local force replays the restored suffix into the redo log.
        let fsync = if high > 0 { FSYNC_TICKS } else { 0 };
        DurableRestore {
            snapshot,
            suffix,
            high,
            token: self.frames.back().map_or(self.snap_token, |f| f.token),
            bytes,
            delay: self.upload_lag + fsync,
        }
    }

    /// Ends the deaf window; noting resumes.
    pub fn finish_restore(&mut self) {
        if self.state == RestoreState::Downloading {
            self.state = RestoreState::Live;
        }
    }

    /// True during the restore download window.
    pub fn restoring(&self) -> bool {
        self.state == RestoreState::Downloading
    }

    /// Logical entries the tier holds sealed (including folded ones).
    fn len(&self) -> u64 {
        self.snap_high + self.entries.len() as u64
    }

    /// Frames sealed over the tier's lifetime.
    pub fn frames_sealed(&self) -> u64 {
        self.frames_sealed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::WriteSet;

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

    /// Notes `entries` and seals them as one frame shipped at
    /// `sealed_at` and durable at `durable_at`.
    fn seal_at(
        tier: &mut DurableLog,
        sealed_at: u64,
        durable_at: u64,
        token: u64,
        entries: &[WriteSet],
    ) -> u64 {
        tier.upload_lag = durable_at - sealed_at;
        entries.iter().for_each(|w| tier.note_commit(w));
        tier.seal(sealed_at, token)
    }

    #[test]
    fn watermark_follows_durable_frames() {
        let mut tier = DurableLog::new(Keyspace::dense(4), 0);
        seal_at(&mut tier, 10, 100, 1, &[ws(1, 0, 5, 1)]);
        seal_at(&mut tier, 20, 200, 2, &[ws(2, 1, 6, 1)]);
        assert_eq!(tier.durable_high(99), 0);
        assert_eq!(tier.durable_high(100), 1);
        assert_eq!(tier.durable_high(200), 2);
        assert_eq!(tier.len(), 2);
        assert_eq!(tier.frames_sealed(), 2);
    }

    #[test]
    fn empty_seal_is_free() {
        let mut tier = DurableLog::new(Keyspace::dense(4), 0);
        assert_eq!(seal_at(&mut tier, 10, 10, 0, &[]), 0);
        assert_eq!(tier.len(), 0);
        assert_eq!(tier.frames_sealed(), 0);
    }

    #[test]
    fn wipe_loses_exactly_the_inflight_suffix() {
        let mut tier = DurableLog::new(Keyspace::dense(4), 0);
        seal_at(&mut tier, 10, 50, 1, &[ws(1, 0, 5, 1)]);
        seal_at(&mut tier, 20, 300, 2, &[ws(2, 1, 6, 1), ws(3, 2, 7, 1)]);
        let lost = tier.wipe(100);
        assert_eq!(lost.len(), 2, "second frame was in flight");
        assert_eq!(lost[0], TxnId::new(2, 0));
        assert_eq!(tier.len(), 1);
        let r = tier.restore().expect("the wipe armed a restore");
        assert_eq!(r.high, 1);
        assert_eq!(r.token, 1);
        assert!(r.snapshot.is_none());
        assert_eq!(r.suffix.as_ref().map(|t| t.entries.len()), Some(1));
    }

    #[test]
    fn wipe_at_zero_lag_loses_nothing() {
        let mut tier = DurableLog::new(Keyspace::dense(4), 0);
        seal_at(&mut tier, 10, 10, 1, &[ws(1, 0, 5, 1)]);
        seal_at(&mut tier, 20, 20, 2, &[ws(2, 1, 6, 1)]);
        assert!(tier.wipe(20).is_empty());
        assert_eq!(tier.restore().expect("armed").high, 2);
    }

    #[test]
    fn synchronous_tier_has_no_exposure() {
        let mut t = DurableLog::new(Keyspace::dense(8), 0);
        t.note_commit(&ws(1, 0, 5, 1));
        assert_eq!(t.pending.len(), 1, "unsealed tail is exposed");
        t.seal(10, 1);
        assert_eq!(t.durable_high(10), 1, "lag 0: durable at the seal instant");
        assert!(t.wipe(10).is_empty());
        assert!(t.lost().is_empty());
    }

    #[test]
    fn lagged_tier_loses_the_inflight_suffix() {
        let mut t = DurableLog::new(Keyspace::dense(8), 500);
        t.note_commit(&ws(1, 0, 5, 1));
        t.seal(10, 1); // durable at 510
        t.note_commit(&ws(2, 1, 6, 1));
        t.seal(20, 2); // durable at 520
        t.note_commit(&ws(3, 2, 7, 1)); // never sealed
        let erased = t.wipe(512);
        assert_eq!(erased.len(), 2, "one in-flight frame + the unsealed tail");
        assert_eq!(t.lost(), [TxnId::new(2, 0), TxnId::new(3, 0)]);
        let restore = t.restore().expect("wipe armed a restore");
        assert_eq!(restore.high, 1);
        assert_eq!(restore.token, 1);
        assert_eq!(restore.suffix.as_ref().map(|s| s.entries.len()), Some(1));
        assert!(restore.delay >= 120, "fsync replay is charged");
        assert_eq!(t.restores, 1);
        assert!(t.restoring());
        t.note_commit(&ws(9, 0, 9, 1));
        assert!(t.pending.is_empty(), "restore installs are not re-queued");
        t.finish_restore();
        assert!(t.restore().is_none(), "restore is one-shot");
    }

    #[test]
    fn restore_of_an_empty_tier_is_fast() {
        let mut t = DurableLog::new(Keyspace::dense(8), 400);
        t.wipe(5);
        let restore = t.restore().expect("armed");
        assert_eq!(restore.high, 0);
        assert_eq!(restore.delay, 400, "one GET round-trip, no fsync replay");
        assert!(restore.suffix.is_none());
    }

    /// The writeset the pinned script commits at `ts`: one record, two
    /// for every third transaction.
    fn scripted(ts: u64) -> WriteSet {
        let mut writes = vec![WriteRecord {
            key: Key(ts % 16),
            value: Value(ts as i64),
            version: ts,
        }];
        if ts.is_multiple_of(3) {
            writes.push(WriteRecord {
                key: Key((ts * 5 + 1) % 16),
                value: Value(-(ts as i64)),
                version: ts,
            });
        }
        WriteSet {
            txn: TxnId::new(ts, (ts % 4) as u32),
            writes,
        }
    }

    /// One tier history — a frame past `COMPACT_AFTER`, a frame that
    /// folds it away, a lagged frame and an unsealed commit lost
    /// mid-upload — restores exactly what the tier restored when it was
    /// split in two types and a restore was described twice: every
    /// figure below was recorded then.
    #[test]
    fn a_scripted_disaster_restores_the_pinned_value() {
        let mut t = DurableLog::new(Keyspace::dense(16), 500);
        (1..=70).for_each(|ts| t.note_commit(&scripted(ts)));
        t.seal(1_000, 700);
        t.note_commit(&scripted(71));
        t.note_commit(&scripted(72));
        t.seal(2_000, 720); // the first frame is durable: it folds
        t.note_commit(&scripted(73));
        t.seal(3_000, 730); // durable at 3,500
        t.note_commit(&scripted(74)); // never sealed
        let lost = [TxnId::new(73, 1), TxnId::new(74, 2)];
        assert_eq!(t.wipe(3_200), lost);
        assert_eq!(t.lost(), lost);
        let r = t.restore().expect("armed");
        let suffix = r.suffix.as_ref().expect("two framed entries survive");
        assert_eq!((r.token, suffix.start, r.high), (720, 70, 72));
        assert_eq!((r.bytes, r.delay), (808, 620));
        let snap = r.snapshot.as_ref().expect("the first frame folded");
        assert_eq!(
            (snap.high, snap.wire_size(), snap.snapshot.len()),
            (70, 672, 16)
        );
        let folded: Vec<(TxnId, Vec<Key>)> = t
            .folded_history()
            .entries()
            .map(|(txn, keys)| (txn, keys.to_vec()))
            .collect();
        let script: Vec<(TxnId, Vec<Key>)> = (1..=70)
            .map(scripted)
            .map(|w| (w.txn, w.keys().collect()))
            .collect();
        assert_eq!(folded, script);
        let rows: Vec<WriteSet> = suffix.entries.views().map(|v| v.to_writeset()).collect();
        let record = |key, value, version| WriteRecord {
            key: Key(key),
            value: Value(value),
            version,
        };
        assert_eq!(
            rows,
            [
                WriteSet {
                    txn: TxnId::new(71, 3),
                    writes: vec![record(7, 71, 71)],
                },
                WriteSet {
                    txn: TxnId::new(72, 0),
                    writes: vec![record(8, 72, 72), record(9, -72, 72)],
                },
            ]
        );
        assert_eq!(
            (t.restores, t.restore_bytes, t.restore_ticks),
            (1, 808, 620)
        );
    }

    #[test]
    fn compaction_folds_durable_prefix_and_restore_uses_both_strategies() {
        let mut tier = DurableLog::new(Keyspace::dense(8), 0);
        let n = COMPACT_AFTER as u64 + 6;
        for i in 0..n {
            seal_at(
                &mut tier,
                i * 10,
                i * 10,
                i + 1,
                &[ws(i + 1, i % 8, i as i64, 1)],
            );
        }
        assert_eq!(tier.snap_high, 6, "the frames past the threshold folded");
        assert_eq!(tier.frames.len(), COMPACT_AFTER);
        let r = tier.image();
        let snap = r.snapshot.expect("compacted prefix");
        assert_eq!(snap.strategy, TransferStrategy::Snapshot);
        assert_eq!(snap.high, tier.snap_high);
        let suffix = r.suffix.expect("retained frames");
        assert_eq!(suffix.strategy, TransferStrategy::LogSuffix);
        assert_eq!(suffix.start, tier.snap_high);
        assert_eq!(r.high, n);
        assert_eq!(r.token, n);
        assert_eq!(tier.folded_history().len(), tier.snap_high as usize);
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
        let mut tier = DurableLog::new(Keyspace::dense(4), 0);
        // Past the threshold but durable far in the future: nothing may
        // fold, so a wipe can still return these entries as lost.
        let n = COMPACT_AFTER as u64 + 5;
        for i in 0..n {
            seal_at(&mut tier, i, 1_000_000, i + 1, &[ws(i + 1, 0, i as i64, 1)]);
        }
        assert_eq!(tier.frames.len() as u64, n);
        assert_eq!(tier.wipe(10).len() as u64, n);
        assert!(tier.restore().expect("armed").snapshot.is_none());
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
        let r = tier.image();
        let suffix = r.suffix.map_or_else(Vec::new, |t| {
            t.entries.views().map(|v| v.to_writeset()).collect()
        });
        let folded = tier
            .folded_history()
            .entries()
            .map(|(t, k)| (t, k.to_vec()))
            .collect();
        (r.high, r.token, r.bytes, suffix, folded)
    }

    #[test]
    fn the_column_tier_answers_as_the_row_tier_did() {
        let ks = Keyspace::dense(16);
        let mut column = DurableLog::new(ks, 0);
        let mut rows = RowLog {
            frames: Vec::new(),
            entries: Vec::new(),
            snap: Store::with_keyspace(ks, Value(0)),
            snap_high: 0,
            snap_token: 0,
            folded: Vec::new(),
        };
        // Noted since the last seal, for the reference.
        let mut pending_rows: Vec<WriteSet> = Vec::new();
        let mut ts = 0;
        let mut lost = (Vec::new(), Vec::new());
        // Five rounds of 40 commits, sealed in groups of 0 to 3 under a
        // lag that changes per round; a disaster ends rounds 1 and 3.
        for round in 0..5u64 {
            let lag = [0, 700, 30, 2_000, 5][round as usize];
            column.upload_lag = lag;
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
                    column.note_commit(&ws);
                    pending_rows.push(ws);
                }
                let token = ts * 10 + round;
                let bytes = column.seal(now, token);
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
                assert_eq!(column.lost(), lost.1, "and claimed");
                assert_eq!(column_restore(&column), rows.restore());
            }
        }
        assert!(!lost.0.is_empty(), "the script loses in-flight frames");
        assert!(rows.snap_high > COMPACT_AFTER as u64, "the script compacts");
        assert_eq!(column.image().snapshot, {
            (rows.snap_high > 0).then(|| Transfer::snapshot(&rows.snap, rows.snap_high))
        });
        assert_eq!(column_restore(&column), rows.restore());
    }
}
