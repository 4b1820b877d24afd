//! Tiered durability: each server's asynchronous uploader into an
//! off-node object store, and the disaster bookkeeping around it.
//!
//! The local WAL and store live on a losable volume; a
//! [`DurabilityTier`] ships every committed writeset to an off-node
//! [`DurableLog`](repl_db::DurableLog) as sealed frames. A frame becomes
//! durable `upload_lag` ticks after it is sealed, so at any instant the
//! tier splits the node's acknowledged commits into a *durable prefix*
//! and an *exposed suffix* — the data-loss window a volume-loss disaster
//! realises.
//!
//! The tier is strictly passive with respect to the simulation: sealing
//! happens from the settle hook after normal event processing, uploads
//! do not travel the simulated network (backup traffic has its own path
//! and must not contend with replication traffic), and a disabled tier
//! leaves a run bit-for-bit unchanged (the digest-identity tests pin
//! this).

use repl_db::{DurableRestore, TxnColumn, TxnId, WriteRecord, WsView};

/// Configuration of one run's durable log tier.
///
/// # Examples
///
/// ```
/// use repl_core::DurabilityConfig;
///
/// let off = DurabilityConfig::disabled();
/// assert!(!off.enabled);
/// let tiered = DurabilityConfig::with_upload_lag(2_000);
/// assert!(tiered.enabled);
/// assert_eq!(tiered.upload_lag, 2_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Whether servers run an uploader at all. Disabled (the default)
    /// reproduces the untiered behaviour bit-for-bit.
    pub enabled: bool,
    /// Latency of one object-store request, in ticks: a sealed frame is
    /// durable this long after the seal, and a restore's download takes
    /// as long. Zero is a synchronous tier, which loses nothing.
    pub upload_lag: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig::disabled()
    }
}

impl DurabilityConfig {
    /// No durable tier: the pre-tier behaviour.
    pub fn disabled() -> Self {
        DurabilityConfig {
            enabled: false,
            upload_lag: 0,
        }
    }

    /// A tier whose requests take `lag` ticks — the knob the P12 study
    /// sweeps against the data-loss window.
    pub fn with_upload_lag(lag: u64) -> Self {
        DurabilityConfig {
            enabled: true,
            upload_lag: lag,
        }
    }
}

/// What a protocol must do to finish a volume restore: rewind its
/// ordered stream (or WAL position) to `token`, optionally refill its
/// local redo log with the restored `entries`, and only rejoin the
/// group once the simulated download completes, `delay` ticks after
/// the recovery event.
#[derive(Debug)]
pub struct RestorePlan {
    /// Protocol stream/log position to resume from — everything after
    /// it must be re-fetched from the group.
    pub token: u64,
    /// Logical index of the first entry in `entries` (the restored
    /// snapshot's high-water mark).
    pub start: u64,
    /// Logical log index after installing the restore.
    pub high: u64,
    /// The restored durable suffix, for protocols that keep a local
    /// redo log and want it refilled to match the restored store.
    pub entries: TxnColumn,
    /// Ticks the download plus the local fsync replay takes; the node
    /// stays deaf until they elapse.
    pub delay: u64,
}

/// One server's durable log tier: the uploader state machine plus the
/// disaster/restore accounting the report collects.
#[derive(Debug)]
pub struct DurabilityTier {
    /// [`DurabilityConfig::upload_lag`].
    upload_lag: u64,
    log: repl_db::DurableLog,
    /// Records committed since the last seal (the exposed,
    /// not-yet-shipped tail), one column reused from seal to seal.
    pending: TxnColumn,
    /// Volume losses survived.
    pub wipes: u64,
    /// Acknowledged commits a disaster erased before they were durable
    /// — the claimed data-loss window, for the no-silent-loss oracle.
    pub lost: Vec<TxnId>,
    /// Restore transfer bytes downloaded from the tier.
    pub restore_bytes: u64,
    /// Ticks spent deaf in restore downloads.
    pub restore_ticks: u64,
    /// Restores performed.
    pub restores: u64,
    /// Set by a wipe; cleared when the restore is planned.
    needs_restore: bool,
    /// True during the download window (the node is deaf).
    restoring: bool,
}

impl DurabilityTier {
    /// Creates the tier for a server whose store uses `keyspace`.
    pub fn new(cfg: &DurabilityConfig, keyspace: repl_db::Keyspace) -> Self {
        DurabilityTier {
            upload_lag: cfg.upload_lag,
            log: repl_db::DurableLog::new(keyspace),
            pending: TxnColumn::new(),
            wipes: 0,
            lost: Vec::new(),
            restore_bytes: 0,
            restore_ticks: 0,
            restores: 0,
            needs_restore: false,
            restoring: false,
        }
    }

    /// Queues a committed writeset for the next seal, from a view of
    /// its records wherever they sit: they are copied into the pending
    /// column, which a warm tier grows no more. No-op while a restore is
    /// being installed (those entries are already durable).
    pub fn note_commit<'a>(&mut self, ws: impl Into<WsView<'a>>) {
        let ws = ws.into();
        self.note_records(ws.txn, ws.iter());
    }

    /// [`DurabilityTier::note_commit`] for records produced on the fly
    /// (an install that reads back the versions it assigned).
    pub fn note_records(
        &mut self,
        txn: TxnId,
        records: impl IntoIterator<Item = WriteRecord, IntoIter: ExactSizeIterator>,
    ) {
        if !self.restoring {
            self.pending.push(txn, records);
        }
    }

    /// Seals everything committed since the last seal into one frame
    /// and ships it; `token` is the owning protocol's stream/log
    /// position after those commits. Called from the settle hook, so a
    /// frame closes at the end of every event that committed something.
    pub fn seal(&mut self, now: u64, token: u64) {
        if self.pending.is_empty() {
            return;
        }
        let durable_at = now + self.upload_lag;
        self.log.seal(now, durable_at, token, self.pending.views());
        self.pending.clear();
    }

    /// A disaster at `now`: drops in-flight frames and the unsealed
    /// tail, records every erased acknowledged commit in
    /// [`DurabilityTier::lost`], and arms the restore. Returns the
    /// erased transactions so the caller can forget their recorded
    /// replies (their ops must re-execute when the group replays them).
    pub fn wipe(&mut self, now: u64) -> Vec<TxnId> {
        let mut erased = self.log.wipe(now);
        erased.extend(self.pending.txns());
        self.pending.clear();
        self.lost.extend_from_slice(&erased);
        self.wipes += 1;
        self.needs_restore = true;
        erased
    }

    /// Plans the restore at recovery time: packages the surviving
    /// durable state and the download window. `None` if the volume was
    /// not wiped since the last restore. The caller must install the
    /// transfers, stay deaf for `delay` ticks, then rejoin.
    pub fn plan_restore(&mut self, _now: u64) -> Option<(DurableRestore, RestorePlan)> {
        if !self.needs_restore {
            return None;
        }
        self.needs_restore = false;
        self.restoring = true;
        self.restores += 1;
        let restore = self.log.restore();
        // One local force replays the restored suffix into the redo log.
        let fsync = if restore.high > 0 {
            repl_db::FSYNC_TICKS
        } else {
            0
        };
        let delay = self.upload_lag + fsync;
        self.restore_bytes += restore.bytes;
        self.restore_ticks += delay;
        let plan = RestorePlan {
            token: restore.token,
            start: restore.suffix.as_ref().map_or(restore.high, |t| t.start),
            high: restore.high,
            entries: restore
                .suffix
                .as_ref()
                .map(|t| t.entries.clone())
                .unwrap_or_default(),
            delay,
        };
        Some((restore, plan))
    }

    /// Ends the deaf window; sealing resumes.
    pub fn finish_restore(&mut self) {
        self.restoring = false;
    }

    /// True during the restore download window.
    pub fn restoring(&self) -> bool {
        self.restoring
    }

    /// Frames sealed over the tier's lifetime.
    pub fn frames_sealed(&self) -> u64 {
        self.log.frames_sealed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_db::{Key, Keyspace, Value, WriteSet};

    fn ws(ts: u64, key: u64, v: i64) -> WriteSet {
        WriteSet {
            txn: TxnId::new(ts, 0),
            writes: vec![WriteRecord {
                key: Key(key),
                value: Value(v),
                version: 1,
            }],
        }
    }

    fn tier(lag: u64) -> DurabilityTier {
        DurabilityTier::new(&DurabilityConfig::with_upload_lag(lag), Keyspace::dense(8))
    }

    #[test]
    fn synchronous_tier_has_no_exposure() {
        let mut t = tier(0);
        t.note_commit(&ws(1, 0, 5));
        assert_eq!(t.pending.len(), 1, "unsealed tail is exposed");
        t.seal(10, 1);
        assert_eq!(
            t.log.durable_high(10),
            1,
            "lag 0: durable at the seal instant"
        );
        assert!(t.wipe(10).is_empty());
        assert!(t.lost.is_empty());
    }

    #[test]
    fn lagged_tier_loses_the_inflight_suffix() {
        let mut t = tier(500);
        t.note_commit(&ws(1, 0, 5));
        t.seal(10, 1); // durable at 510
        t.note_commit(&ws(2, 1, 6));
        t.seal(20, 2); // durable at 520
        t.note_commit(&ws(3, 2, 7)); // never sealed
        let erased = t.wipe(512);
        assert_eq!(erased.len(), 2, "one in-flight frame + the unsealed tail");
        assert_eq!(t.lost, vec![TxnId::new(2, 0), TxnId::new(3, 0)]);
        let (restore, plan) = t.plan_restore(600).expect("wipe armed a restore");
        assert_eq!(restore.high, 1);
        assert_eq!(plan.token, 1);
        assert_eq!(plan.entries.len(), 1);
        assert!(plan.delay >= 120, "fsync replay is charged");
        assert_eq!(t.restores, 1);
        assert!(t.restoring());
        t.note_commit(&ws(9, 0, 9));
        assert!(t.pending.is_empty(), "restore installs are not re-queued");
        t.finish_restore();
        assert!(t.plan_restore(700).is_none(), "restore is one-shot");
    }

    #[test]
    fn restore_of_an_empty_tier_is_fast() {
        let mut t = tier(400);
        t.wipe(5);
        let (restore, plan) = t.plan_restore(10).expect("armed");
        assert_eq!(restore.high, 0);
        assert_eq!(plan.delay, 400, "one GET round-trip, no fsync replay");
        assert_eq!(plan.entries.len(), 0);
    }
}
