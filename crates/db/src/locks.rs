//! Strict two-phase locking with shared/exclusive modes.
//!
//! Two deadlock-handling policies, compared by ablation A3:
//!
//! * [`DeadlockPolicy::WoundWait`] — prevention: an older requester
//!   *wounds* (forces the abort of) younger conflicting holders; a younger
//!   requester waits. Wait-for edges only ever point from younger to older
//!   transactions, so no cycle can form.
//! * [`DeadlockPolicy::Detect`] — detection: requests always wait; the
//!   caller periodically asks for a cycle in the wait-for graph and aborts
//!   the youngest member.
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
//! The wait-for graph is maintained *incrementally*: each key caches its
//! own edge contribution and a global sorted multiset is patched on
//! acquire/release/promote, so [`LockManager::wait_for_edges`] and
//! [`LockManager::find_deadlock`] read it off instead of re-scanning the
//! table. With no waiters anywhere, both are allocation-free.
//!
//! Edge maintenance activates *lazily*, on the first wait-for-graph query
//! (a one-time table rebuild, incremental from then on). Wound-wait
//! callers never query the graph — prevention makes cycles impossible —
//! so they never pay for it.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

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
    /// Pure waiting; deadlocks resolved via [`LockManager::find_deadlock`].
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
    /// This key's cached contribution to the wait-for graph: sorted,
    /// deduplicated. Kept in lockstep with `holders`/`waiters` by
    /// `LockManager::refresh_edges`.
    edges: Vec<(TxnId, TxnId)>,
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

/// DFS colors for `find_deadlock`, kept as bytes in a reusable buffer.
const WHITE: u8 = 0;
const GRAY: u8 = 1;
const BLACK: u8 = 2;

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
    /// Keys each transaction holds (sorted per txn for deterministic
    /// release order).
    held: FxHashMap<TxnId, BTreeSet<Key>>,
    /// Keys each transaction waits on, maintained so `release_all` never
    /// scans the whole table for pending waits.
    waiting: FxHashMap<TxnId, BTreeSet<Key>>,
    /// The global wait-for graph as a sorted edge multiset: how many keys
    /// currently contribute each `waiter → blocker` edge.
    edge_counts: BTreeMap<(TxnId, TxnId), u32>,
    /// Whether the edge multiset is live. Off until the first query so
    /// callers that never look at the graph pay nothing.
    track_edges: bool,
    /// Scratch for `refresh_edges` (reused across calls).
    edge_scratch: Vec<(TxnId, TxnId)>,
    /// Scratch for `release_all`'s touched-key list.
    touched_scratch: Vec<Key>,
    // Persistent `find_deadlock` scratch: node list, CSR edge list and
    // per-node ranges, colors, explicit DFS stack and path.
    dl_nodes: Vec<TxnId>,
    dl_edges: Vec<(TxnId, TxnId)>,
    dl_ranges: Vec<(usize, usize)>,
    dl_color: Vec<u8>,
    dl_stack: Vec<(usize, usize)>,
    dl_path: Vec<usize>,
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
            edge_counts: BTreeMap::new(),
            track_edges: false,
            edge_scratch: Vec::new(),
            touched_scratch: Vec::new(),
            dl_nodes: Vec::new(),
            dl_edges: Vec::new(),
            dl_ranges: Vec::new(),
            dl_color: Vec::new(),
            dl_stack: Vec::new(),
            dl_path: Vec::new(),
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
                        // Waiters may exist (queued behind the shared
                        // holder); their edges to this holder change mode.
                        self.refresh_edges(key);
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
                        self.waiting.entry(txn).or_default().insert(key);
                    }
                    let wounded = self.wound(txn, key);
                    self.refresh_edges(key);
                    return Acquire::Waiting { wounded };
                }
            }
        }
        if state.compatible_with_holders(txn, mode) && state.waiters.is_empty() {
            state.holders.push((txn, mode));
            self.held.entry(txn).or_default().insert(key);
            return Acquire::Granted;
        }
        if !state.waiters.iter().any(|(t, _)| *t == txn) {
            state.waiters.push_back((txn, mode));
            self.waiting.entry(txn).or_default().insert(key);
        }
        let wounded = self.wound(txn, key);
        self.refresh_edges(key);
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

    /// Computes `state`'s contribution to the wait-for graph into `out`
    /// (sorted, deduplicated).
    fn state_edges(state: &LockState, out: &mut Vec<(TxnId, TxnId)>) {
        out.clear();
        for (wi, &(w, wm)) in state.waiters.iter().enumerate() {
            for &(h, hm) in &state.holders {
                if h != w && !wm.compatible(hm) {
                    out.push((w, h));
                }
            }
            for &(w2, w2m) in state.waiters.iter().take(wi) {
                if w2 != w && !wm.compatible(w2m) {
                    out.push((w, w2));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Switches incremental edge maintenance on, seeding the per-key
    /// caches and the global multiset from the current table. A no-op
    /// after the first call.
    fn enable_edge_tracking(&mut self) {
        if self.track_edges {
            return;
        }
        self.track_edges = true;
        let scratch = &mut self.edge_scratch;
        let edge_counts = &mut self.edge_counts;
        for state in self.dense.iter_mut().chain(self.sparse.values_mut()) {
            if state.waiters.is_empty() {
                continue;
            }
            Self::state_edges(state, scratch);
            for &e in scratch.iter() {
                *edge_counts.entry(e).or_insert(0) += 1;
            }
            state.edges.clear();
            state.edges.extend_from_slice(scratch);
        }
    }

    /// Recomputes `key`'s contribution to the wait-for graph and patches
    /// the global edge multiset with the difference. Free when tracking is
    /// off, or when the key has no waiters and contributed nothing (the
    /// uncontended fast path).
    fn refresh_edges(&mut self, key: Key) {
        if !self.track_edges {
            return;
        }
        let state: &mut LockState = match self.ks.slot(key) {
            Some(i) => &mut self.dense[i],
            None => match self.sparse.get_mut(&key) {
                Some(s) => s,
                None => return,
            },
        };
        if state.waiters.is_empty() && state.edges.is_empty() {
            return;
        }
        let mut scratch = std::mem::take(&mut self.edge_scratch);
        Self::state_edges(state, &mut scratch);
        if scratch != state.edges {
            for e in &state.edges {
                match self.edge_counts.get_mut(e) {
                    Some(c) if *c > 1 => *c -= 1,
                    Some(_) => {
                        self.edge_counts.remove(e);
                    }
                    None => debug_assert!(false, "cached edge missing from multiset"),
                }
            }
            for &e in &scratch {
                *self.edge_counts.entry(e).or_insert(0) += 1;
            }
            std::mem::swap(&mut state.edges, &mut scratch);
        }
        self.edge_scratch = scratch;
    }

    /// Releases every lock `txn` holds or waits for; returns the requests
    /// newly granted as a consequence, in grant order.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<(TxnId, Key, LockMode)> {
        let mut touched = std::mem::take(&mut self.touched_scratch);
        touched.clear();
        if let Some(keys) = self.held.remove(&txn) {
            touched.extend(keys);
        }
        if let Some(keys) = self.waiting.remove(&txn) {
            touched.extend(keys);
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
            self.refresh_edges(key);
        }
        self.touched_scratch = touched;
        granted
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
            self.held.entry(txn).or_default().insert(key);
            if let Some(w) = self.waiting.get_mut(&txn) {
                w.remove(&key);
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

    /// The wait-for graph: `waiter → holder` edges for conflicting pairs,
    /// plus `waiter → earlier incompatible waiter` (queue order). Sorted
    /// and deduplicated; read off the incrementally maintained multiset
    /// (activated on first call). Allocation-free when no transaction is
    /// waiting.
    pub fn wait_for_edges(&mut self) -> Vec<(TxnId, TxnId)> {
        self.enable_edge_tracking();
        if self.edge_counts.is_empty() {
            return Vec::new();
        }
        self.edge_counts.keys().copied().collect()
    }

    /// Finds a deadlock cycle in the wait-for graph, if any, returning its
    /// members. The conventional victim is the youngest member.
    ///
    /// Runs the DFS entirely in persistent scratch buffers: with no
    /// waiters it is allocation-free, and it only allocates for the
    /// returned cycle.
    pub fn find_deadlock(&mut self) -> Option<Vec<TxnId>> {
        self.enable_edge_tracking();
        if self.edge_counts.is_empty() {
            return None;
        }
        // Load the sorted edge list and node set into scratch.
        self.dl_edges.clear();
        self.dl_edges.extend(self.edge_counts.keys().copied());
        self.dl_nodes.clear();
        for &(a, b) in &self.dl_edges {
            self.dl_nodes.push(a);
            self.dl_nodes.push(b);
        }
        self.dl_nodes.sort_unstable();
        self.dl_nodes.dedup();
        // CSR adjacency: edges are sorted by source, so each node's
        // targets are one contiguous (already sorted) range.
        self.dl_ranges.clear();
        self.dl_ranges.resize(self.dl_nodes.len(), (0, 0));
        let mut ei = 0;
        for (ni, &n) in self.dl_nodes.iter().enumerate() {
            while ei < self.dl_edges.len() && self.dl_edges[ei].0 < n {
                ei += 1;
            }
            let start = ei;
            while ei < self.dl_edges.len() && self.dl_edges[ei].0 == n {
                ei += 1;
            }
            self.dl_ranges[ni] = (start, ei);
        }
        // Iterative DFS with colors, starting from nodes in sorted order.
        self.dl_color.clear();
        self.dl_color.resize(self.dl_nodes.len(), WHITE);
        for start in 0..self.dl_nodes.len() {
            if self.dl_color[start] != WHITE {
                continue;
            }
            self.dl_stack.clear();
            self.dl_path.clear();
            self.dl_stack.push((start, self.dl_ranges[start].0));
            self.dl_path.push(start);
            self.dl_color[start] = GRAY;
            while let Some(&mut (node, ref mut cursor)) = self.dl_stack.last_mut() {
                let cur = *cursor;
                *cursor += 1;
                if cur < self.dl_ranges[node].1 {
                    let target = self.dl_edges[cur].1;
                    let ti = self
                        .dl_nodes
                        .binary_search(&target)
                        .expect("edge target is a node");
                    match self.dl_color[ti] {
                        GRAY => {
                            let pos = self.dl_path.iter().position(|&p| p == ti).expect("on path");
                            return Some(
                                self.dl_path[pos..]
                                    .iter()
                                    .map(|&i| self.dl_nodes[i])
                                    .collect(),
                            );
                        }
                        WHITE => {
                            self.dl_color[ti] = GRAY;
                            self.dl_stack.push((ti, self.dl_ranges[ti].0));
                            self.dl_path.push(ti);
                        }
                        _ => {}
                    }
                } else {
                    self.dl_color[node] = BLACK;
                    self.dl_stack.pop();
                    self.dl_path.pop();
                }
            }
        }
        None
    }

    /// Picks the deadlock victim: the youngest member of a cycle, if any.
    pub fn deadlock_victim(&mut self) -> Option<TxnId> {
        self.find_deadlock()
            .map(|cycle| cycle.into_iter().max().expect("cycle is non-empty"))
    }

    /// True if `txn` currently holds a lock on `key` (in any mode).
    /// Allocation-free; replication protocols use it to recognize
    /// straggler messages from an attempt whose locks were already
    /// released by an abort.
    pub fn holds(&self, txn: TxnId, key: Key) -> bool {
        self.held.get(&txn).is_some_and(|s| s.contains(&key))
    }

    /// Keys currently locked by `txn`.
    pub fn locks_of(&self, txn: TxnId) -> Vec<Key> {
        self.held
            .get(&txn)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Rebuilds the wait-for edge list by re-scanning the whole table (the
    /// pre-incremental algorithm). Test oracle for the maintained multiset.
    #[cfg(test)]
    fn full_rescan_edges(&self) -> Vec<(TxnId, TxnId)> {
        let mut edges = Vec::new();
        let states = self.dense.iter().chain(self.sparse.values());
        for state in states {
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
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(lm.find_deadlock().is_none(), "a single wait is no deadlock");
        lm.acquire(t(2), Key(0), Exclusive);
        let cycle = lm.find_deadlock().expect("cycle exists");
        assert_eq!(cycle.len(), 2);
        assert_eq!(lm.deadlock_victim(), Some(t(2)));
        // Aborting the victim clears the deadlock and unblocks t1.
        let granted = lm.release_all(t(2));
        assert_eq!(granted, vec![(t(1), Key(1), Exclusive)]);
        assert!(lm.find_deadlock().is_none());
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
                    lm.find_deadlock().is_none(),
                    "wound-wait produced a deadlock (seed {seedgen})"
                );
            }
        }
    }

    #[test]
    fn incremental_edges_match_full_rescan_under_random_load() {
        // Drive both policies and every backing through random
        // acquire/release traffic; after every mutation the maintained
        // edge multiset must equal a from-scratch table scan.
        for policy in [DeadlockPolicy::WoundWait, DeadlockPolicy::Detect] {
            for ks in [
                Keyspace::dense(6),
                Keyspace::dense(6).scoped(0, 0),
                Keyspace::dense(6).scoped(2, 4),
            ] {
                let mut lm = LockManager::with_keyspace(policy, ks);
                let mut s = 97u64;
                for _ in 0..400 {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let txn = t(1 + (s >> 7) % 6);
                    let key = Key((s >> 23) % 6);
                    let mode = if (s >> 41).is_multiple_of(2) {
                        Shared
                    } else {
                        Exclusive
                    };
                    if s.is_multiple_of(5) {
                        lm.release_all(txn);
                    } else {
                        let _ = lm.acquire(txn, key, mode);
                    }
                    assert_eq!(
                        lm.wait_for_edges(),
                        lm.full_rescan_edges(),
                        "policy {policy:?} ks {ks:?} diverged"
                    );
                }
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
                assert_eq!(o.find_deadlock(), d.find_deadlock());
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
    fn edge_tracking_activates_on_existing_contention() {
        // The first graph query arrives after contention already exists:
        // the lazy rebuild must reconstruct every edge, and incremental
        // maintenance must take over from there.
        let mut lm = LockManager::new(DeadlockPolicy::Detect);
        lm.acquire(t(1), Key(0), Exclusive);
        lm.acquire(t(2), Key(0), Exclusive);
        lm.acquire(t(3), Key(1), Shared);
        lm.acquire(t(4), Key(1), Exclusive);
        assert_eq!(lm.wait_for_edges(), lm.full_rescan_edges());
        assert!(!lm.wait_for_edges().is_empty());
        lm.release_all(t(1));
        assert_eq!(lm.wait_for_edges(), lm.full_rescan_edges());
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
        // must flip the t3→t1 edge on.
        assert_eq!(lm.acquire(t(1), Key(0), Exclusive), Acquire::Granted);
        let after = lm.wait_for_edges();
        assert!(after.contains(&(t(3), t(1))), "upgrade edge not refreshed");
        assert_eq!(after, lm.full_rescan_edges());
    }
}
