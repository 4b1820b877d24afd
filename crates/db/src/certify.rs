//! The deterministic certification test of certification-based replication
//! (paper Section 5.4.2).
//!
//! A transaction executes optimistically on shadow copies at its delegate
//! site, then its read set (versions read) and writeset are ABCAST to all
//! sites. Every site runs the *same* test in the *same* total order, so
//! all sites reach the same commit/abort verdict without an extra round
//! of coordination: commit iff no transaction that certified earlier (and
//! after the candidate's snapshot) wrote any item the candidate read.
//!
//! The installed-version table is dense over the [`Keyspace`]'s window
//! (a partial replica's shard) and falls back to an Fx-hashed map for
//! every other key; an absent entry means version 0, so both backings
//! give the same verdicts.

use crate::hash::FxHashMap;
use crate::item::{Key, Keyspace, TxnId};
use crate::log::{WriteRecord, WriteSet};

/// The verdict of the certification test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Certification {
    /// No conflicting concurrent writer certified first: commit.
    Commit,
    /// A read item was overwritten by a concurrently certified
    /// transaction: abort.
    Abort {
        /// The item whose version check failed.
        key: Key,
        /// The transaction that overwrote it.
        by: TxnId,
    },
}

impl Certification {
    /// True if the verdict is commit.
    pub fn is_commit(self) -> bool {
        matches!(self, Certification::Commit)
    }
}

/// An installed-version record: certified version and its writer. The
/// initial state (version 0, placeholder writer) is what an absent map
/// entry used to mean, so the dense path can pre-materialize it.
type Installed = (u64, TxnId);

const INITIAL: Installed = (0, TxnId { ts: 0, site: 0 });

/// The per-site certifier: tracks, for every item, the version installed
/// by the last certified writer.
///
/// All sites feed it the same ABCAST-ordered stream, so its verdicts are
/// identical everywhere — this is what lets the technique skip the
/// Agreement Coordination phase.
///
/// The version table is a dense `Vec` over the [`Keyspace`]'s window, at
/// offset `key - lo`, and an Fx-hashed map for every key outside it.
///
/// # Examples
///
/// ```
/// use repl_db::{Certifier, Certification, WriteSet, WriteRecord, Key, Value, TxnId};
///
/// let mut c = Certifier::new();
/// let t1 = TxnId::new(1, 0);
/// let ws1 = WriteSet { txn: t1, writes: vec![WriteRecord { key: Key(0), value: Value(1), version: 1 }] };
/// // t1 read x0 at version 0 and wrote it: certifies.
/// assert!(c.certify(&[(Key(0), 0)], &ws1).is_commit());
/// // t2 also read version 0 of x0 (stale after t1): aborts.
/// let t2 = TxnId::new(2, 1);
/// let ws2 = WriteSet { txn: t2, writes: vec![WriteRecord { key: Key(0), value: Value(2), version: 1 }] };
/// assert!(!c.certify(&[(Key(0), 0)], &ws2).is_commit());
/// ```
#[derive(Debug, Clone)]
pub struct Certifier {
    ks: Keyspace,
    /// Dense installed-version table: slot `i` is `Key(lo + i)`.
    dense: Vec<Installed>,
    /// Installed versions of the keys outside the window.
    sparse: FxHashMap<Key, Installed>,
    committed: u64,
    aborted: u64,
}

impl Default for Certifier {
    fn default() -> Self {
        Certifier::new()
    }
}

impl Certifier {
    /// Creates an empty certifier (every item at initial version 0)
    /// with no window: every key lives in the map.
    pub fn new() -> Self {
        Certifier::with_keyspace(Keyspace::dense(0))
    }

    /// Creates a certifier backed for `ks`.
    pub fn with_keyspace(ks: Keyspace) -> Self {
        Certifier {
            ks,
            dense: vec![INITIAL; ks.slots()],
            sparse: FxHashMap::default(),
            committed: 0,
            aborted: 0,
        }
    }

    #[inline(always)]
    fn get(&self, key: Key) -> Option<Installed> {
        match self.ks.slot(key) {
            Some(i) => Some(self.dense[i]),
            None => self.sparse.get(&key).copied(),
        }
    }

    /// Certifies a transaction given the versions it read and the writes
    /// it wants to install. On commit, the writeset's versions are
    /// recorded as installed.
    pub fn certify(&mut self, read_set: &[(Key, u64)], ws: &WriteSet) -> Certification {
        self.certify_records(read_set, ws.txn, ws.writes.iter().copied())
    }

    /// [`Certifier::certify`] over any record stream — the borrow-view
    /// entry point the payload plane uses, so certifying an arena-backed
    /// writeset never materializes a `Vec<WriteRecord>`.
    pub fn certify_records(
        &mut self,
        read_set: &[(Key, u64)],
        txn: TxnId,
        writes: impl Iterator<Item = WriteRecord>,
    ) -> Certification {
        for &(key, version_read) in read_set {
            if let Some((installed, by)) = self.get(key) {
                if installed > version_read {
                    self.aborted += 1;
                    return Certification::Abort { key, by };
                }
            }
        }
        for w in writes {
            let entry: &mut Installed = match self.ks.slot(w.key) {
                Some(i) => &mut self.dense[i],
                None => self.sparse.entry(w.key).or_insert((0, txn)),
            };
            entry.0 += 1;
            entry.1 = txn;
        }
        self.committed += 1;
        Certification::Commit
    }

    /// Rebuilds one installed-version entry after a volume restore. The
    /// store's per-key versions track the certifier's counters
    /// one-for-one (both advance exactly once per certified write), so
    /// feeding a restored store's `(key, version, writer)` triples into
    /// a fresh certifier reproduces the certification state at the
    /// restore point — verdicts for the replayed stream suffix then
    /// match what the rest of the group already decided.
    pub fn restore_version(&mut self, key: Key, version: u64, by: TxnId) {
        if version == 0 {
            return;
        }
        let entry = match self.ks.slot(key) {
            Some(i) => &mut self.dense[i],
            None => self.sparse.entry(key).or_insert(INITIAL),
        };
        *entry = (version, by);
    }

    /// `(committed, aborted)` counts.
    pub fn stats(&self) -> (u64, u64) {
        (self.committed, self.aborted)
    }

    /// The certified version of `key` (0 if never written).
    pub fn version_of(&self, key: Key) -> u64 {
        self.get(key).map_or(0, |(v, _)| v)
    }

    /// Number of keys with an explicitly tracked installed version
    /// (sparse entries plus written dense slots).
    pub fn tracked_keys(&self) -> usize {
        self.dense
            .iter()
            .filter(|e| e.1 != INITIAL.1 || e.0 != 0)
            .count()
            + self.sparse.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Value;
    use crate::log::WriteRecord;

    fn ws(txn: TxnId, keys: &[u64]) -> WriteSet {
        WriteSet {
            txn,
            writes: keys
                .iter()
                .map(|&k| WriteRecord {
                    key: Key(k),
                    value: Value(1),
                    version: 0,
                })
                .collect(),
        }
    }

    fn t(ts: u64) -> TxnId {
        TxnId::new(ts, 0)
    }

    #[test]
    fn disjoint_transactions_all_commit() {
        let mut c = Certifier::new();
        assert!(c.certify(&[(Key(0), 0)], &ws(t(1), &[0])).is_commit());
        assert!(c.certify(&[(Key(1), 0)], &ws(t(2), &[1])).is_commit());
        assert!(c.certify(&[(Key(2), 0)], &ws(t(3), &[2])).is_commit());
        assert_eq!(c.stats(), (3, 0));
    }

    #[test]
    fn stale_read_aborts_with_culprit() {
        let mut c = Certifier::new();
        assert!(c.certify(&[], &ws(t(1), &[5])).is_commit());
        match c.certify(&[(Key(5), 0)], &ws(t(2), &[5])) {
            Certification::Abort { key, by } => {
                assert_eq!(key, Key(5));
                assert_eq!(by, t(1));
            }
            Certification::Commit => panic!("stale read must abort"),
        }
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn fresh_read_after_write_commits() {
        let mut c = Certifier::new();
        assert!(c.certify(&[], &ws(t(1), &[0])).is_commit());
        assert_eq!(c.version_of(Key(0)), 1);
        // t2 read version 1 — the current one — so it certifies.
        assert!(c.certify(&[(Key(0), 1)], &ws(t(2), &[0])).is_commit());
        assert_eq!(c.version_of(Key(0)), 2);
    }

    #[test]
    fn blind_writes_never_abort() {
        let mut c = Certifier::new();
        for ts in 1..=10 {
            assert!(c.certify(&[], &ws(t(ts), &[0])).is_commit());
        }
        assert_eq!(c.version_of(Key(0)), 10);
    }

    #[test]
    fn aborted_transaction_installs_nothing() {
        let mut c = Certifier::new();
        assert!(c.certify(&[], &ws(t(1), &[0])).is_commit());
        assert!(!c.certify(&[(Key(0), 0)], &ws(t(2), &[7])).is_commit());
        assert_eq!(c.version_of(Key(7)), 0, "abort must not install writes");
    }

    #[test]
    fn dense_and_sparse_certifiers_agree() {
        // The full window is the reference for an all-map table and for
        // a table scoped to keys 3..6 of the same domain.
        let mut d = Certifier::with_keyspace(Keyspace::dense(8));
        let mut others = [
            Keyspace::dense(8).scoped(0, 0),
            Keyspace::dense(8).scoped(3, 6),
        ]
        .map(Certifier::with_keyspace);
        let mut s = 5u64;
        for ts in 1..=200u64 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (s >> 13) % 8;
            let rv = (s >> 33) % 3;
            let w = ws(t(ts), &[k, (k + 1) % 8]);
            let reads = [(Key(k), rv)];
            let verdict = d.certify(&reads, &w);
            for o in &mut others {
                assert_eq!(o.certify(&reads, &w), verdict, "ts {ts}");
            }
        }
        for o in &others {
            assert_eq!(o.stats(), d.stats());
            assert_eq!(o.tracked_keys(), d.tracked_keys());
            for k in 0..8 {
                assert_eq!(o.version_of(Key(k)), d.version_of(Key(k)));
            }
        }
    }

    #[test]
    fn restored_certifier_reproduces_verdicts() {
        let mut live = Certifier::with_keyspace(Keyspace::dense(4));
        assert!(live.certify(&[], &ws(t(1), &[0])).is_commit());
        assert!(live.certify(&[(Key(0), 1)], &ws(t(2), &[0, 1])).is_commit());
        // Rebuild from (key, version, writer) triples as a restored
        // store would supply them.
        let mut rebuilt = Certifier::with_keyspace(Keyspace::dense(4));
        rebuilt.restore_version(Key(0), 2, t(2));
        rebuilt.restore_version(Key(1), 1, t(2));
        rebuilt.restore_version(Key(2), 0, t(2)); // version 0: no-op
        assert_eq!(rebuilt.version_of(Key(2)), 0);
        // The two certifiers agree on every subsequent verdict.
        let stale = (Key(0), 1);
        assert_eq!(
            live.certify(&[stale], &ws(t(3), &[2])),
            rebuilt.certify(&[stale], &ws(t(3), &[2]))
        );
        let fresh = (Key(0), 2);
        assert_eq!(
            live.certify(&[fresh], &ws(t(4), &[3])),
            rebuilt.certify(&[fresh], &ws(t(4), &[3]))
        );
    }
}
