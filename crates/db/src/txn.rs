//! The transaction manager: begin / read / write / commit / abort with
//! undo via before-images.
//!
//! Writes are applied to the store in place (isolation is the lock
//! manager's job under strict 2PL); abort restores the exact prior state.
//! Commit returns the transaction's [`WriteSet`] — the redo records the
//! replication protocols propagate.

use std::collections::HashMap;

use crate::hash::FxHashMap;

use crate::item::{Key, TxnId, Value};
use crate::log::{WriteRecord, WriteSet};
use crate::store::{Store, Versioned};

/// One written key of an in-flight transaction.
#[derive(Debug, Clone, Copy)]
struct Written {
    key: Key,
    /// First-touch before-image, for undo.
    before: Versioned,
    /// Latest after-image.
    value: Value,
    version: u64,
}

/// Bookkeeping for one in-flight transaction: two small vectors, recycled
/// through the manager's free list when the transaction ends.
#[derive(Debug, Clone, Default)]
struct ActiveTxn {
    /// Written keys, ascending.
    writes: Vec<Written>,
    /// Versions read, in read order.
    reads: Vec<(Key, u64)>,
}

/// Error returned when referring to a transaction the manager does not
/// know (never begun, or already finished).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownTxn(pub TxnId);

impl std::fmt::Display for UnknownTxn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown transaction {}", self.0)
    }
}

impl std::error::Error for UnknownTxn {}

/// Per-site transaction manager.
///
/// # Examples
///
/// ```
/// use repl_db::{TxnManager, Store, Key, Value, TxnId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut store = Store::with_items(2, Value(0));
/// let mut tm = TxnManager::new();
/// let t = TxnId::new(1, 0);
/// tm.begin(t);
/// tm.write(&mut store, t, Key(0), Value(7))?;
/// let ws = tm.commit(t)?;
/// assert_eq!(ws.writes.len(), 1);
/// assert_eq!(store.read(Key(0)).expect("exists").value, Value(7));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct TxnManager {
    active: FxHashMap<TxnId, ActiveTxn>,
    /// Cleared state of finished transactions, capacity kept.
    free: Vec<ActiveTxn>,
    committed: u64,
    aborted: u64,
}

impl TxnManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        TxnManager::default()
    }

    /// Starts a transaction. Idempotent for an already-active id.
    pub fn begin(&mut self, id: TxnId) {
        let free = &mut self.free;
        self.active
            .entry(id)
            .or_insert_with(|| free.pop().unwrap_or_default());
    }

    /// True if `id` is in flight.
    pub fn is_active(&self, id: TxnId) -> bool {
        self.active.contains_key(&id)
    }

    /// Number of in-flight transactions.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Committed / aborted counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.committed, self.aborted)
    }

    /// First-touch before-images of every in-flight transaction. Lets a
    /// recovery donor reconstruct fully-committed state from a store
    /// that contains tentative in-place writes: patching these images
    /// over a [`Store::snapshot`] rolls the tentative writes back.
    /// Should two active transactions have touched the same key (locks
    /// normally prevent it), the older image wins.
    pub fn before_images(&self) -> HashMap<Key, Versioned> {
        let mut images: HashMap<Key, Versioned> = HashMap::new();
        for txn in self.active.values() {
            for &Written {
                key: k, before: v, ..
            } in &txn.writes
            {
                match images.get(&k) {
                    Some(prev) if prev.version <= v.version => {}
                    _ => {
                        images.insert(k, v);
                    }
                }
            }
        }
        images
    }

    /// Reads `key` within `id`, recording the version for the read set.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownTxn`] if `id` is not active.
    pub fn read(
        &mut self,
        store: &Store,
        id: TxnId,
        key: Key,
    ) -> Result<Option<Versioned>, UnknownTxn> {
        let txn = self.active.get_mut(&id).ok_or(UnknownTxn(id))?;
        let v = store.read(key);
        if let Some(v) = v {
            txn.reads.push((key, v.version));
        }
        Ok(v)
    }

    /// Writes `key := value` within `id`, keeping the before-image for undo.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownTxn`] if `id` is not active.
    pub fn write(
        &mut self,
        store: &mut Store,
        id: TxnId,
        key: Key,
        value: Value,
    ) -> Result<Versioned, UnknownTxn> {
        let txn = self.active.get_mut(&id).ok_or(UnknownTxn(id))?;
        let slot = txn.writes.binary_search_by_key(&key, |w| w.key);
        let before = match slot {
            Ok(at) => txn.writes[at].before,
            Err(_) => store.read(key).unwrap_or(Versioned::initial(Value(0))),
        };
        let after = store.write(key, value, id);
        let written = Written {
            key,
            before,
            value,
            version: after.version,
        };
        match slot {
            Ok(at) => txn.writes[at] = written,
            Err(at) => txn.writes.insert(at, written),
        }
        Ok(after)
    }

    /// The versions `id` has read so far.
    pub fn read_set(&self, id: TxnId) -> Result<&[(Key, u64)], UnknownTxn> {
        self.active
            .get(&id)
            .map(|t| t.reads.as_slice())
            .ok_or(UnknownTxn(id))
    }

    /// Commits `id`, returning its writeset.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownTxn`] if `id` is not active.
    pub fn commit(&mut self, id: TxnId) -> Result<WriteSet, UnknownTxn> {
        let txn = self.active.remove(&id).ok_or(UnknownTxn(id))?;
        self.committed += 1;
        let writes = txn
            .writes
            .iter()
            .map(|w| WriteRecord {
                key: w.key,
                value: w.value,
                version: w.version,
            })
            .collect();
        self.recycle(txn);
        Ok(WriteSet { txn: id, writes })
    }

    /// Aborts `id`, restoring every written item to its before-image.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownTxn`] if `id` is not active.
    pub fn abort(&mut self, store: &mut Store, id: TxnId) -> Result<(), UnknownTxn> {
        let txn = self.active.remove(&id).ok_or(UnknownTxn(id))?;
        self.aborted += 1;
        for w in &txn.writes {
            store.restore(w.key, w.before);
        }
        self.recycle(txn);
        Ok(())
    }

    /// Returns a finished transaction's state to the free list.
    fn recycle(&mut self, mut txn: ActiveTxn) {
        txn.writes.clear();
        txn.reads.clear();
        self.free.push(txn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ts: u64) -> TxnId {
        TxnId::new(ts, 0)
    }

    #[test]
    fn commit_produces_sorted_writeset() {
        let mut store = Store::with_items(5, Value(0));
        let mut tm = TxnManager::new();
        tm.begin(t(1));
        tm.write(&mut store, t(1), Key(4), Value(40))
            .expect("active");
        tm.write(&mut store, t(1), Key(2), Value(20))
            .expect("active");
        let ws = tm.commit(t(1)).expect("active");
        assert_eq!(ws.keys().collect::<Vec<_>>(), vec![Key(2), Key(4)]);
        assert_eq!(tm.stats(), (1, 0));
    }

    #[test]
    fn abort_restores_all_before_images() {
        let mut store = Store::with_items(2, Value(10));
        let fp = store.fingerprint();
        let mut tm = TxnManager::new();
        tm.begin(t(1));
        tm.write(&mut store, t(1), Key(0), Value(1))
            .expect("active");
        tm.write(&mut store, t(1), Key(0), Value(2))
            .expect("active");
        tm.write(&mut store, t(1), Key(1), Value(3))
            .expect("active");
        assert_ne!(store.fingerprint(), fp);
        tm.abort(&mut store, t(1)).expect("active");
        assert_eq!(store.fingerprint(), fp, "abort must be a perfect undo");
        assert_eq!(tm.stats(), (0, 1));
    }

    #[test]
    fn double_write_keeps_first_before_image() {
        let mut store = Store::with_items(1, Value(5));
        let mut tm = TxnManager::new();
        tm.begin(t(1));
        tm.write(&mut store, t(1), Key(0), Value(6))
            .expect("active");
        tm.write(&mut store, t(1), Key(0), Value(7))
            .expect("active");
        tm.abort(&mut store, t(1)).expect("active");
        assert_eq!(store.read(Key(0)).expect("exists").value, Value(5));
        assert_eq!(store.read(Key(0)).expect("exists").version, 0);
    }

    #[test]
    fn read_set_records_versions_in_order() {
        let mut store = Store::with_items(2, Value(0));
        store.write(Key(1), Value(9), t(0)); // version 1
        let mut tm = TxnManager::new();
        tm.begin(t(2));
        tm.read(&store, t(2), Key(1)).expect("active");
        tm.read(&store, t(2), Key(0)).expect("active");
        assert_eq!(
            tm.read_set(t(2)).expect("active"),
            &[(Key(1), 1), (Key(0), 0)]
        );
    }

    #[test]
    fn unknown_txn_errors() {
        let mut store = Store::new();
        let mut tm = TxnManager::new();
        assert_eq!(tm.commit(t(9)), Err(UnknownTxn(t(9))));
        assert_eq!(tm.abort(&mut store, t(9)), Err(UnknownTxn(t(9))));
        assert!(tm.read(&store, t(9), Key(0)).is_err());
        assert_eq!(UnknownTxn(t(9)).to_string(), "unknown transaction t9.0");
    }

    #[test]
    fn begin_is_idempotent() {
        let mut tm = TxnManager::new();
        tm.begin(t(1));
        tm.begin(t(1));
        assert_eq!(tm.active_count(), 1);
        assert!(tm.is_active(t(1)));
    }
}
