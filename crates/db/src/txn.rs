//! The transaction manager: the undo log of a site's local transactions
//! (begin / write / commit / abort, undo via before-images).
//!
//! Writes are applied to the store in place (isolation is the lock
//! manager's job under strict 2PL); abort restores the exact prior state.
//! The undo log keeps each written key's after-image as a
//! [`WriteRecord`], key-sorted: the redo records the replication
//! protocols propagate. [`TxnManager::commit_with`] lends them as a
//! borrow view, so a shipping or logging caller copies them once,
//! straight to their destination (a caller that wants rows materializes
//! a [`WriteSet`](crate::WriteSet) from the view);
//! [`TxnManager::commit_in_place`] builds nothing, for a site that
//! neither ships nor keeps them.

use std::collections::HashMap;

use crate::hash::FxHashMap;

use crate::arena::WsView;
use crate::item::{Key, TxnId, Value};
use crate::log::WriteRecord;
use crate::store::{Store, Versioned};

/// Bookkeeping for one in-flight transaction, recycled through the
/// manager's free list when the transaction ends: per written key,
/// ascending, its latest after-image — the redo record a commit hands
/// out in place — and its first-touch before-image, for undo.
type ActiveTxn = Vec<(WriteRecord, Versioned)>;

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
/// let ws = tm.commit_with(t, |redo| redo.to_writeset())?;
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

    /// First-touch before-images of every in-flight transaction. Lets a
    /// recovery donor reconstruct fully-committed state from a store
    /// that contains tentative in-place writes: patching these images
    /// over a [`Store::snapshot`] rolls the tentative writes back.
    /// Should two active transactions have touched the same key (locks
    /// normally prevent it), the older image wins.
    pub fn before_images(&self) -> HashMap<Key, Versioned> {
        let mut images: HashMap<Key, Versioned> = HashMap::new();
        for txn in self.active.values() {
            for &(WriteRecord { key: k, .. }, v) in txn {
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
        let slot = txn.binary_search_by_key(&key, |(w, _)| w.key);
        let before = match slot {
            Ok(at) => txn[at].1,
            Err(_) => store.read(key).unwrap_or(Versioned::initial(Value(0))),
        };
        let after = store.write(key, value, id);
        let written = (
            WriteRecord {
                key,
                value,
                version: after.version,
            },
            before,
        );
        match slot {
            Ok(at) => txn[at] = written,
            Err(at) => txn.insert(at, written),
        }
        Ok(after)
    }

    /// Commits `id` without building its writeset, for a caller that
    /// ships and keeps nothing: the writes are already in the store, so
    /// this only recycles the undo log — it allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownTxn`] if `id` is not active.
    pub fn commit_in_place(&mut self, id: TxnId) -> Result<(), UnknownTxn> {
        self.commit_with(id, |_| ())
    }

    /// Commits `id` and hands its redo records — the after-images,
    /// key-sorted — to `f` as a borrow view of the undo log, so a caller
    /// copies them once, straight into wherever they go (a redo log, the
    /// payload arena). Allocates nothing itself.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownTxn`] if `id` is not active.
    pub fn commit_with<R>(
        &mut self,
        id: TxnId,
        f: impl FnOnce(WsView<'_>) -> R,
    ) -> Result<R, UnknownTxn> {
        let txn = self.active.remove(&id).ok_or(UnknownTxn(id))?;
        let r = f(WsView::undo_log(id, &txn));
        self.recycle(txn);
        Ok(r)
    }

    /// Aborts `id`, restoring every written item to its before-image.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownTxn`] if `id` is not active.
    pub fn abort(&mut self, store: &mut Store, id: TxnId) -> Result<(), UnknownTxn> {
        let txn = self.active.remove(&id).ok_or(UnknownTxn(id))?;
        for &(w, before) in &txn {
            store.restore(w.key, before);
        }
        self.recycle(txn);
        Ok(())
    }

    /// Returns a finished transaction's state to the free list.
    fn recycle(&mut self, mut txn: ActiveTxn) {
        txn.clear();
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
        let ws = tm.commit_with(t(1), |v| v.to_writeset()).expect("active");
        assert_eq!(ws.keys().collect::<Vec<_>>(), vec![Key(2), Key(4)]);
        assert!(!tm.is_active(t(1)));
    }

    #[test]
    fn commit_in_place_keeps_the_writes_and_ends_the_txn() {
        let mut store = Store::with_items(2, Value(0));
        let mut tm = TxnManager::new();
        tm.begin(t(1));
        tm.write(&mut store, t(1), Key(1), Value(9))
            .expect("active");
        tm.commit_in_place(t(1)).expect("active");
        assert!(!tm.is_active(t(1)));
        assert_eq!(store.read(Key(1)).expect("exists").value, Value(9));
        assert_eq!(tm.commit_in_place(t(1)), Err(UnknownTxn(t(1))));
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
        assert!(!tm.is_active(t(1)));
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
    fn unknown_txn_errors() {
        let mut store = Store::new();
        let mut tm = TxnManager::new();
        assert_eq!(tm.commit_in_place(t(9)), Err(UnknownTxn(t(9))));
        assert_eq!(tm.abort(&mut store, t(9)), Err(UnknownTxn(t(9))));
        assert!(tm.write(&mut store, t(9), Key(0), Value(1)).is_err());
        assert_eq!(UnknownTxn(t(9)).to_string(), "unknown transaction t9.0");
    }

    #[test]
    fn begin_is_idempotent() {
        let mut tm = TxnManager::new();
        let mut store = Store::with_items(1, Value(5));
        tm.begin(t(1));
        tm.write(&mut store, t(1), Key(0), Value(6))
            .expect("active");
        tm.begin(t(1));
        assert!(tm.is_active(t(1)));
        tm.abort(&mut store, t(1)).expect("active");
        assert_eq!(
            store.read(Key(0)).expect("exists").value,
            Value(5),
            "a second begin keeps the undo log"
        );
    }
}
