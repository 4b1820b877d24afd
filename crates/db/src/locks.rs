//! Strict two-phase locking with shared/exclusive modes.
//!
//! Two deadlock-handling policies, compared by ablation A3:
//!
//! * [`DeadlockPolicy::WoundWait`] — prevention: an older requester
//!   *wounds* (forces the abort of) younger conflicting holders; a younger
//!   requester waits. Wait-for edges only ever point from younger to older
//!   transactions, so no cycle can form.
//! * [`DeadlockPolicy::Detect`] — detection: requests always wait; the
//!   caller periodically reads the wait-for graph
//!   ([`LockManager::wait_for_edges`]), looks for a cycle with
//!   [`first_cycle`](crate::first_cycle) and aborts the youngest member.
//!
//! The manager only *bookkeeps*; aborting a wounded or victim transaction
//! (undoing its writes, releasing its locks) is the caller's job, which is
//! exactly how the replication protocols drive it.
//!
//! ## Hot-path design
//!
//! The lock table is dense (a `Vec` slot per key of the [`Keyspace`]'s
//! window, at offset `key - lo`), with an Fx-hashed map serving every key
//! outside the window. A partial replica's window is its shard, so its
//! table costs O(shard) rather than O(keyspace); a key outside it is
//! locked through the map with the same decisions.
//!
//! The table keeps no wait-for graph: [`LockManager::wait_for_edges`]
//! reads it off the holders and waiters when asked, and allocates nothing
//! while no transaction waits. Only detection asks, once per detection
//! period; wound-wait callers never do — prevention makes cycles
//! impossible — so acquire, promote and release carry no graph upkeep.
//!
//! A transaction's held and awaited keys are sorted, duplicate-free
//! `Vec`s; [`LockManager::release_all`] hands both back to a free list
//! for the next transaction, so a warm table locks and releases without
//! touching the heap.

use std::collections::VecDeque;

use crate::hash::FxHashMap;
use crate::item::{Key, Keyspace, TxnId};

/// Lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared (read) lock; compatible with other shared locks.
    Shared,
    /// Exclusive (write) lock; incompatible with everything.
    Exclusive,
}

impl LockMode {
    /// Lock compatibility matrix.
    pub fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }
}

/// Deadlock-handling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadlockPolicy {
    /// Wound-wait prevention (default).
    #[default]
    WoundWait,
    /// Pure waiting; the caller resolves deadlocks it finds in
    /// [`LockManager::wait_for_edges`].
    Detect,
}

/// Result of a lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Acquire {
    /// The lock was granted immediately.
    Granted,
    /// The requester must wait; under wound-wait, `wounded` lists younger
    /// holders the caller must abort to make progress.
    Waiting {
        /// Transactions wounded by this request (empty under `Detect`).
        wounded: Vec<TxnId>,
    },
}

#[derive(Debug, Default)]
struct LockState {
    holders: Vec<(TxnId, LockMode)>,
    waiters: VecDeque<(TxnId, LockMode)>,
}

impl LockState {
    fn holds(&self, txn: TxnId) -> Option<LockMode> {
        self.holders
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|(_, m)| *m)
    }

    fn compatible_with_holders(&self, txn: TxnId, mode: LockMode) -> bool {
        self.holders
            .iter()
            .all(|(t, m)| *t == txn || m.compatible(mode))
    }
}

/// The lock table of one site.
///
/// # Examples
///
/// ```
/// use repl_db::{LockManager, DeadlockPolicy, LockMode, Acquire, Key, TxnId};
///
/// let mut lm = LockManager::new(DeadlockPolicy::WoundWait);
/// let t1 = TxnId::new(1, 0);
/// let t2 = TxnId::new(2, 0);
/// assert_eq!(lm.acquire(t1, Key(0), LockMode::Exclusive), Acquire::Granted);
/// // Younger t2 must wait, wounding nobody.
/// assert_eq!(lm.acquire(t2, Key(0), LockMode::Shared), Acquire::Waiting { wounded: vec![] });
/// let granted = lm.release_all(t1);
/// assert_eq!(granted, vec![(t2, Key(0), LockMode::Shared)]);
/// ```
#[derive(Debug)]
pub struct LockManager {
    policy: DeadlockPolicy,
    ks: Keyspace,
    /// Dense table: slot `i` is `Key(lo + i)`'s lock state.
    dense: Vec<LockState>,
    /// Lock states of the keys outside the window.
    sparse: FxHashMap<Key, LockState>,
    /// Keys each transaction holds (sorted and unique per txn, for a
    /// deterministic release order).
    held: FxHashMap<TxnId, Vec<Key>>,
    /// Keys each transaction waits on (sorted and unique), maintained so
    /// `release_all` never scans the whole table for pending waits.
    waiting: FxHashMap<TxnId, Vec<Key>>,
    /// Emptied key lists of released transactions, reused by the next.
    spare: Vec<Vec<Key>>,
    /// Scratch for `release_all`'s touched-key list.
    touched_scratch: Vec<Key>,
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager::new(DeadlockPolicy::default())
    }
}

impl LockManager {
    /// Creates an empty lock table with no window: every key lives in the
    /// map.
    pub fn new(policy: DeadlockPolicy) -> Self {
        LockManager::with_keyspace(policy, Keyspace::dense(0))
    }

    /// Creates a lock table backed for `ks`: dense `Vec` slots over the
    /// keyspace's window, a hash table for every other key.
    pub fn with_keyspace(policy: DeadlockPolicy, ks: Keyspace) -> Self {
        let mut dense = Vec::new();
        dense.resize_with(ks.slots(), LockState::default);
        LockManager {
            policy,
            ks,
            dense,
            sparse: FxHashMap::default(),
            held: FxHashMap::default(),
            waiting: FxHashMap::default(),
            spare: Vec::new(),
            touched_scratch: Vec::new(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> DeadlockPolicy {
        self.policy
    }

    /// The keyspace this table was built for.
    pub fn keyspace(&self) -> Keyspace {
        self.ks
    }

    /// Lock-table entries held outside the dense window: a residency
    /// count, zero on a partial replica that
    /// only ever locked keys of its own shard. Entries stay once created.
    pub fn spilled(&self) -> usize {
        self.sparse.len()
    }

    #[inline(always)]
    fn state(&self, key: Key) -> Option<&LockState> {
        match self.ks.slot(key) {
            Some(i) => Some(&self.dense[i]),
            None => self.sparse.get(&key),
        }
    }

    /// Requests `mode` on `key` for `txn`.
    ///
    /// Re-entrant: holding the same or a stronger mode returns `Granted`;
    /// a shared holder requesting exclusive performs an upgrade (granted if
    /// sole holder, otherwise queued with priority).
    pub fn acquire(&mut self, txn: TxnId, key: Key, mode: LockMode) -> Acquire {
        let state: &mut LockState = match self.ks.slot(key) {
            Some(i) => &mut self.dense[i],
            None => self.sparse.entry(key).or_default(),
        };
        if let Some(held_mode) = state.holds(txn) {
            match (held_mode, mode) {
                (LockMode::Exclusive, _) | (LockMode::Shared, LockMode::Shared) => {
                    return Acquire::Granted;
                }
                (LockMode::Shared, LockMode::Exclusive) => {
                    if state.holders.len() == 1 {
                        state.holders[0].1 = LockMode::Exclusive;
                        return Acquire::Granted;
                    }
                    if !state.waiters.iter().any(|(t, _)| *t == txn) {
                        // Under detection, upgrades get priority (front of
                        // queue). Under wound-wait they must queue at the
                        // back: jumping ahead of an already-checked older
                        // waiter would re-introduce cycles.
                        if self.policy == DeadlockPolicy::Detect {
                            state.waiters.push_front((txn, LockMode::Exclusive));
                        } else {
                            state.waiters.push_back((txn, LockMode::Exclusive));
                        }
                        note(&mut self.waiting, &mut self.spare, txn, key);
                    }
                    let wounded = self.wound(txn, key);
                    return Acquire::Waiting { wounded };
                }
            }
        }
        if state.compatible_with_holders(txn, mode) && state.waiters.is_empty() {
            state.holders.push((txn, mode));
            note(&mut self.held, &mut self.spare, txn, key);
            return Acquire::Granted;
        }
        if !state.waiters.iter().any(|(t, _)| *t == txn) {
            state.waiters.push_back((txn, mode));
            note(&mut self.waiting, &mut self.spare, txn, key);
        }
        let wounded = self.wound(txn, key);
        Acquire::Waiting { wounded }
    }

    /// Under wound-wait, returns the younger conflicting transactions the
    /// requester wounds: holders, and waiters queued ahead of it (which
    /// would otherwise block it through queue order). The caller must
    /// abort them.
    fn wound(&mut self, requester: TxnId, key: Key) -> Vec<TxnId> {
        if self.policy != DeadlockPolicy::WoundWait {
            return Vec::new();
        }
        let Some(state) = self.state(key) else {
            return Vec::new();
        };
        let (pos, mode) = match state
            .waiters
            .iter()
            .enumerate()
            .find(|(_, (t, _))| *t == requester)
        {
            Some((i, &(_, m))) => (i, m),
            None => (state.waiters.len(), LockMode::Exclusive),
        };
        let mut wounded: Vec<TxnId> = state
            .holders
            .iter()
            .filter(|(h, hm)| {
                *h != requester && !hm.compatible(mode) && requester.is_older_than(*h)
            })
            .map(|(h, _)| *h)
            .collect();
        for &(w, wm) in state.waiters.iter().take(pos) {
            if w != requester && !wm.compatible(mode) && requester.is_older_than(w) {
                wounded.push(w);
            }
        }
        wounded.sort_unstable();
        wounded.dedup();
        wounded
    }

    /// Releases every lock `txn` holds or waits for; returns the requests
    /// newly granted as a consequence, in grant order.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<(TxnId, Key, LockMode)> {
        let mut touched = std::mem::take(&mut self.touched_scratch);
        touched.clear();
        for keys in [self.held.remove(&txn), self.waiting.remove(&txn)]
            .into_iter()
            .flatten()
        {
            touched.extend_from_slice(&keys);
            self.recycle(keys);
        }
        touched.sort_unstable();
        touched.dedup();
        let mut granted = Vec::new();
        for &key in &touched {
            let state: &mut LockState = match self.ks.slot(key) {
                Some(i) => &mut self.dense[i],
                None => match self.sparse.get_mut(&key) {
                    Some(s) => s,
                    None => continue,
                },
            };
            state.holders.retain(|(t, _)| *t != txn);
            state.waiters.retain(|(t, _)| *t != txn);
            self.promote(key, &mut granted);
        }
        self.touched_scratch = touched;
        granted
    }

    /// Returns a released transaction's key list to the free list.
    fn recycle(&mut self, mut keys: Vec<Key>) {
        keys.clear();
        self.spare.push(keys);
    }

    /// Promotes waiters on `key` that have become grantable.
    fn promote(&mut self, key: Key, granted: &mut Vec<(TxnId, Key, LockMode)>) {
        let state: &mut LockState = match self.ks.slot(key) {
            Some(i) => &mut self.dense[i],
            None => match self.sparse.get_mut(&key) {
                Some(s) => s,
                None => return,
            },
        };
        while let Some(&(txn, mode)) = state.waiters.front() {
            // Upgrade case: txn already holds shared and waits for
            // exclusive, so its own holder entry doesn't block it.
            let compatible = state
                .holders
                .iter()
                .all(|&(t, m)| t == txn || m.compatible(mode));
            if !compatible {
                break;
            }
            state.waiters.pop_front();
            if let Some(h) = state.holders.iter_mut().find(|(t, _)| *t == txn) {
                h.1 = mode;
            } else {
                state.holders.push((txn, mode));
            }
            note(&mut self.held, &mut self.spare, txn, key);
            if let Some(w) = self.waiting.get_mut(&txn) {
                if let Ok(at) = w.binary_search(&key) {
                    w.remove(at);
                }
            }
            granted.push((txn, key, mode));
            if mode == LockMode::Exclusive {
                break;
            }
        }
    }

    /// The current holders of `key`.
    pub fn holders(&self, key: Key) -> Vec<(TxnId, LockMode)> {
        self.state(key)
            .map(|s| s.holders.clone())
            .unwrap_or_default()
    }

    /// The current waiters on `key`, in queue order.
    pub fn waiters(&self, key: Key) -> Vec<(TxnId, LockMode)> {
        self.state(key)
            .map(|s| s.waiters.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The wait-for graph, read off the table: `waiter → holder` edges
    /// for conflicting pairs, plus `waiter → earlier incompatible waiter`
    /// (queue order). Sorted and deduplicated. Allocation-free when no
    /// transaction is waiting.
    pub fn wait_for_edges(&self) -> Vec<(TxnId, TxnId)> {
        let mut edges = Vec::new();
        for state in self.dense.iter().chain(self.sparse.values()) {
            for (wi, &(w, wm)) in state.waiters.iter().enumerate() {
                for &(h, hm) in &state.holders {
                    if h != w && !wm.compatible(hm) {
                        edges.push((w, h));
                    }
                }
                for &(w2, w2m) in state.waiters.iter().take(wi) {
                    if w2 != w && !wm.compatible(w2m) {
                        edges.push((w, w2));
                    }
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// True if `txn` currently holds a lock on `key` (in any mode).
    /// Allocation-free.
    pub fn holds(&self, txn: TxnId, key: Key) -> bool {
        self.held
            .get(&txn)
            .is_some_and(|s| s.binary_search(&key).is_ok())
    }

    /// Keys currently locked by `txn`.
    pub fn locks_of(&self, txn: TxnId) -> Vec<Key> {
        self.held.get(&txn).cloned().unwrap_or_default()
    }
}

/// Adds `key` to `txn`'s sorted key list in `map`, starting the list from
/// `spare` when `txn` has none.
fn note(map: &mut FxHashMap<TxnId, Vec<Key>>, spare: &mut Vec<Vec<Key>>, txn: TxnId, key: Key) {
    let keys = map
        .entry(txn)
        .or_insert_with(|| spare.pop().unwrap_or_default());
    if let Err(at) = keys.binary_search(&key) {
        keys.insert(at, key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::first_cycle;
    use std::collections::HashSet;
    use LockMode::{Exclusive, Shared};

    fn t(ts: u64) -> TxnId {
        TxnId::new(ts, 0)
    }

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new(DeadlockPolicy::WoundWait);
        assert_eq!(lm.acquire(t(1), Key(0), Shared), Acquire::Granted);
        assert_eq!(lm.acquire(t(2), Key(0), Shared), Acquire::Granted);
        assert_eq!(lm.holders(Key(0)).len(), 2);
    }

    #[test]
    fn exclusive_excludes() {
        let mut lm = LockManager::new(DeadlockPolicy::Detect);
        assert_eq!(lm.acquire(t(1), Key(0), Exclusive), Acquire::Granted);
        assert_eq!(
            lm.acquire(t(2), Key(0), Exclusive),
            Acquire::Waiting { wounded: vec![] }
        );
        assert_eq!(
            lm.acquire(t(3), Key(0), Shared),
            Acquire::Waiting { wounded: vec![] }
        );
    }

    #[test]
    fn reentrant_and_upgrade() {
        let mut lm = LockManager::new(DeadlockPolicy::WoundWait);
        assert_eq!(lm.acquire(t(1), Key(0), Shared), Acquire::Granted);
        assert_eq!(lm.acquire(t(1), Key(0), Shared), Acquire::Granted);
        // Sole holder upgrades in place.
        assert_eq!(lm.acquire(t(1), Key(0), Exclusive), Acquire::Granted);
        assert_eq!(lm.acquire(t(1), Key(0), Shared), Acquire::Granted); // X covers S
        assert_eq!(lm.holders(Key(0)), vec![(t(1), Exclusive)]);
    }

    #[test]
    fn contended_upgrade_waits_at_front_and_wins_on_release() {
        let mut lm = LockManager::new(DeadlockPolicy::Detect);
        assert_eq!(lm.acquire(t(1), Key(0), Shared), Acquire::Granted);
        assert_eq!(lm.acquire(t(2), Key(0), Shared), Acquire::Granted);
        assert_eq!(
            lm.acquire(t(1), Key(0), Exclusive),
            Acquire::Waiting { wounded: vec![] }
        );
        let granted = lm.release_all(t(2));
        assert_eq!(granted, vec![(t(1), Key(0), Exclusive)]);
    }

    #[test]
    fn wound_wait_older_wounds_younger_holder() {
        let mut lm = LockManager::new(DeadlockPolicy::WoundWait);
        assert_eq!(lm.acquire(t(5), Key(0), Exclusive), Acquire::Granted);
        // Older t(2) arrives: wounds t(5) and waits.
        assert_eq!(
            lm.acquire(t(2), Key(0), Exclusive),
            Acquire::Waiting {
                wounded: vec![t(5)]
            }
        );
        // Caller aborts the victim; the older transaction is then granted.
        let granted = lm.release_all(t(5));
        assert_eq!(granted, vec![(t(2), Key(0), Exclusive)]);
    }

    #[test]
    fn wound_wait_younger_just_waits() {
        let mut lm = LockManager::new(DeadlockPolicy::WoundWait);
        assert_eq!(lm.acquire(t(2), Key(0), Exclusive), Acquire::Granted);
        assert_eq!(
            lm.acquire(t(5), Key(0), Exclusive),
            Acquire::Waiting { wounded: vec![] }
        );
    }

    #[test]
    fn release_grants_contiguous_shared_waiters() {
        let mut lm = LockManager::new(DeadlockPolicy::Detect);
        assert_eq!(lm.acquire(t(1), Key(0), Exclusive), Acquire::Granted);
        lm.acquire(t(2), Key(0), Shared);
        lm.acquire(t(3), Key(0), Shared);
        lm.acquire(t(4), Key(0), Exclusive);
        let granted = lm.release_all(t(1));
        assert_eq!(
            granted,
            vec![(t(2), Key(0), Shared), (t(3), Key(0), Shared)],
            "both shareds granted, exclusive still queued"
        );
        let granted = lm.release_all(t(2));
        assert!(granted.is_empty(), "t3 still holds shared");
        let granted = lm.release_all(t(3));
        assert_eq!(granted, vec![(t(4), Key(0), Exclusive)]);
    }

    #[test]
    fn deadlock_detected_and_youngest_is_victim() {
        let mut lm = LockManager::new(DeadlockPolicy::Detect);
        // t1 holds x0, t2 holds x1, then each requests the other's key.
        assert_eq!(lm.acquire(t(1), Key(0), Exclusive), Acquire::Granted);
        assert_eq!(lm.acquire(t(2), Key(1), Exclusive), Acquire::Granted);
        lm.acquire(t(1), Key(1), Exclusive);
        let deadlock = |lm: &LockManager| first_cycle(&lm.wait_for_edges());
        assert!(deadlock(&lm).is_none(), "a single wait is no deadlock");
        lm.acquire(t(2), Key(0), Exclusive);
        let cycle = deadlock(&lm).expect("cycle exists");
        assert_eq!(cycle, vec![t(1), t(2)]);
        assert_eq!(
            cycle.into_iter().max(),
            Some(t(2)),
            "the youngest is the victim"
        );
        // Aborting the victim clears the deadlock and unblocks t1.
        let granted = lm.release_all(t(2));
        assert_eq!(granted, vec![(t(1), Key(1), Exclusive)]);
        assert!(deadlock(&lm).is_none());
    }

    #[test]
    fn wait_for_edges_include_queue_order() {
        let mut lm = LockManager::new(DeadlockPolicy::Detect);
        lm.acquire(t(1), Key(0), Exclusive);
        lm.acquire(t(2), Key(0), Exclusive);
        lm.acquire(t(3), Key(0), Exclusive);
        let edges = lm.wait_for_edges();
        assert!(edges.contains(&(t(2), t(1))));
        assert!(edges.contains(&(t(3), t(1))));
        assert!(edges.contains(&(t(3), t(2))), "queue order edge missing");
    }

    #[test]
    fn locks_of_reports_held_keys() {
        let mut lm = LockManager::new(DeadlockPolicy::WoundWait);
        lm.acquire(t(1), Key(3), Shared);
        lm.acquire(t(1), Key(1), Exclusive);
        assert_eq!(lm.locks_of(t(1)), vec![Key(1), Key(3)]);
        lm.release_all(t(1));
        assert!(lm.locks_of(t(1)).is_empty());
    }

    #[test]
    fn out_of_order_acquires_read_back_sorted_and_unique() {
        let mut lm = LockManager::new(DeadlockPolicy::WoundWait);
        for k in [9, 3, 7] {
            assert_eq!(lm.acquire(t(1), Key(k), Exclusive), Acquire::Granted);
        }
        assert_eq!(lm.acquire(t(1), Key(3), Shared), Acquire::Granted);
        assert_eq!(lm.acquire(t(1), Key(7), Exclusive), Acquire::Granted);
        assert_eq!(lm.locks_of(t(1)), vec![Key(3), Key(7), Key(9)]);
    }

    #[test]
    fn a_recycled_key_list_starts_empty() {
        // t1's lists go back to the free list on release; t2 and t3 take
        // them and must see only their own keys.
        let mut lm = LockManager::new(DeadlockPolicy::WoundWait);
        for k in [5, 1, 8] {
            lm.acquire(t(1), Key(k), Exclusive);
        }
        lm.acquire(t(2), Key(5), Exclusive); // waits behind t1
        assert_eq!(lm.release_all(t(1)), vec![(t(2), Key(5), Exclusive)]);
        lm.acquire(t(3), Key(2), Shared);
        assert_eq!(lm.locks_of(t(2)), vec![Key(5)]);
        assert_eq!(lm.locks_of(t(3)), vec![Key(2)]);
        assert!(lm.locks_of(t(1)).is_empty());
        for k in [1, 8] {
            assert!(!lm.holds(t(2), Key(k)) && !lm.holds(t(3), Key(k)));
            assert!(lm.holders(Key(k)).is_empty());
        }
        lm.release_all(t(2));
        lm.release_all(t(3));
        lm.acquire(t(4), Key(0), Exclusive);
        assert_eq!(lm.locks_of(t(4)), vec![Key(0)]);
        assert!(!lm.holds(t(4), Key(2)) && !lm.holds(t(4), Key(5)));
    }

    #[test]
    fn wound_wait_never_deadlocks_under_random_load() {
        // Pseudo-property: random conflicting acquisitions under wound-wait,
        // aborting wounded transactions, never produce a wait-for cycle
        // among live transactions.
        let mut seedgen = 11u64;
        for _ in 0..50 {
            seedgen = seedgen
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mut lm = LockManager::new(DeadlockPolicy::WoundWait);
            let mut dead: HashSet<TxnId> = HashSet::new();
            let mut s = seedgen;
            for step in 0..40u64 {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let txn = t(1 + (s >> 5) % 8);
                if dead.contains(&txn) {
                    continue;
                }
                let key = Key((s >> 20) % 4);
                let mode = if (s >> 40).is_multiple_of(2) {
                    Shared
                } else {
                    Exclusive
                };
                if let Acquire::Waiting { wounded } = lm.acquire(txn, key, mode) {
                    for v in wounded {
                        dead.insert(v);
                        lm.release_all(v);
                    }
                }
                let _ = step;
                assert!(
                    first_cycle(&lm.wait_for_edges()).is_none(),
                    "wound-wait produced a deadlock (seed {seedgen})"
                );
            }
        }
    }

    #[test]
    fn dense_and_sparse_lock_tables_agree() {
        // The full window is the reference for an all-map table and for
        // a table scoped to keys 1..3 of the same domain.
        let mut d = LockManager::with_keyspace(DeadlockPolicy::WoundWait, Keyspace::dense(4));
        let mut others = [
            Keyspace::dense(4).scoped(0, 0),
            Keyspace::dense(4).scoped(1, 3),
        ]
        .map(|ks| LockManager::with_keyspace(DeadlockPolicy::WoundWait, ks));
        let mut s = 31u64;
        for _ in 0..300 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let txn = t(1 + (s >> 9) % 5);
            let key = Key((s >> 25) % 4);
            let mode = if (s >> 44).is_multiple_of(2) {
                Shared
            } else {
                Exclusive
            };
            let release = s.is_multiple_of(7);
            let (granted, acquired) = if release {
                (d.release_all(txn), None)
            } else {
                (Vec::new(), Some(d.acquire(txn, key, mode)))
            };
            for o in &mut others {
                if release {
                    assert_eq!(o.release_all(txn), granted, "{:?}", o.keyspace());
                } else {
                    assert_eq!(Some(o.acquire(txn, key, mode)), acquired);
                }
                assert_eq!(o.wait_for_edges(), d.wait_for_edges());
                assert_eq!(o.locks_of(txn), d.locks_of(txn));
                for k in 0..4 {
                    assert_eq!(o.holders(Key(k)), d.holders(Key(k)));
                    assert_eq!(o.waiters(Key(k)), d.waiters(Key(k)));
                }
            }
        }
        assert_eq!(others[1].spilled(), 2, "keys 0 and 3 live in the map");
    }

    #[test]
    fn upgrade_in_place_refreshes_waiter_edges() {
        // t1 solely holds S; t2 queues for X (edge t2→t1 via S/X conflict);
        // t3 queues for S *behind t2* (queue-order edge t3→t2, and t3→t1
        // only once t1 upgrades to X).
        let mut lm = LockManager::new(DeadlockPolicy::Detect);
        assert_eq!(lm.acquire(t(1), Key(0), Shared), Acquire::Granted);
        lm.acquire(t(2), Key(0), Exclusive);
        lm.acquire(t(3), Key(0), Shared);
        let before = lm.wait_for_edges();
        assert!(before.contains(&(t(2), t(1))));
        assert!(!before.contains(&(t(3), t(1))), "S/S does not conflict yet");
        // Sole-holder upgrade in place: t1's holder mode becomes X, which
        // turns the t3→t1 edge on.
        assert_eq!(lm.acquire(t(1), Key(0), Exclusive), Acquire::Granted);
        let after = lm.wait_for_edges();
        assert!(after.contains(&(t(3), t(1))), "upgrade edge missing");
        assert_eq!(after, vec![(t(2), t(1)), (t(3), t(1)), (t(3), t(2))]);
    }
}
