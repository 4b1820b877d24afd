//! Property-based tests for the database kernel: lock-table invariants,
//! wound-wait acyclicity, undo exactness, certification determinism, and
//! serialization-graph witnesses.

use std::collections::BTreeSet;

use proptest::prelude::*;

use repl_db::{
    first_cycle, AccessKind, Acquire, Certifier, DeadlockPolicy, Key, Keyspace, LockManager,
    LockMode, ReplicatedHistory, Store, TxnId, TxnManager, Value, WriteRecord, WriteSet,
};

#[derive(Debug, Clone, Copy)]
enum LockOp {
    Acquire { txn: u8, key: u8, exclusive: bool },
    Release { txn: u8 },
}

fn lock_ops() -> impl Strategy<Value = Vec<LockOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u8..6, 0u8..4, any::<bool>()).prop_map(|(txn, key, exclusive)| LockOp::Acquire {
                txn,
                key,
                exclusive
            }),
            (0u8..6).prop_map(|txn| LockOp::Release { txn }),
        ],
        1..60,
    )
}

fn t(n: u8) -> TxnId {
    TxnId::new(n as u64 + 1, 0)
}

/// A reference model of a [`ReplicatedHistory`]: the live operations in
/// recording order (each site's stream is the subsequence with that
/// site) and the committed set. The serialization graph read off it is
/// the all-pairs one: an edge for every conflicting pair.
#[derive(Debug, Clone, Default)]
struct HistoryModel {
    ops: Vec<(u32, TxnId, Key, AccessKind)>,
    committed: BTreeSet<TxnId>,
}

type Edges = BTreeSet<(TxnId, TxnId)>;

/// One step of history traffic: `(action, site, txn, key, is_write)`.
type HistoryStep = (u8, u32, u8, u64, bool);

impl HistoryModel {
    /// Applies one step to the history and the model alike: mostly
    /// records, some commits, a few purges.
    fn apply(&mut self, h: &mut ReplicatedHistory, (action, site, txn, key, write): HistoryStep) {
        let txn = t(txn);
        match action % 8 {
            0 => {
                h.purge(txn);
                self.ops.retain(|op| op.1 != txn);
                self.committed.remove(&txn);
            }
            1 | 2 => {
                h.mark_committed(txn);
                self.committed.insert(txn);
            }
            _ => {
                let kind = if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                h.record(site, txn, Key(key), kind);
                self.ops.push((site, txn, Key(key), kind));
            }
        }
    }

    fn merge(&mut self, other: &HistoryModel) {
        self.ops.extend(&other.ops);
        self.committed.extend(&other.committed);
    }

    fn all_pairs_edges(&self) -> Edges {
        let mut edges = Edges::new();
        for (i, &(s1, t1, k1, a1)) in self.ops.iter().enumerate() {
            for &(s2, t2, k2, a2) in &self.ops[i + 1..] {
                let both_committed = self.committed.contains(&t1) && self.committed.contains(&t2);
                if s1 == s2 && k1 == k2 && t1 != t2 && a1.conflicts_with(a2) && both_committed {
                    edges.insert((t1, t2));
                }
            }
        }
        edges
    }

    /// Kahn's algorithm, smallest ready transaction first, over explicit
    /// edges; `None` if they are cyclic.
    fn witness_order(&self, edges: &Edges) -> Option<Vec<TxnId>> {
        let mut pending = self.committed.clone();
        let mut order = Vec::new();
        while let Some(&next) = pending
            .iter()
            .find(|&&n| !edges.iter().any(|&(a, b)| b == n && pending.contains(&a)))
        {
            pending.remove(&next);
            order.push(next);
        }
        pending.is_empty().then_some(order)
    }

    /// The history must hold exactly the model's operations, and its
    /// covering graph must agree with the model's all-pairs graph on
    /// everything but the edge set itself.
    fn check(&self, h: &ReplicatedHistory) {
        assert_eq!(h.len(), self.ops.len());
        assert_eq!(
            h.committed().iter().copied().collect::<BTreeSet<_>>(),
            self.committed
        );
        let covering: Edges = h.conflict_edges().into_iter().collect();
        let all_pairs = self.all_pairs_edges();
        assert!(covering.is_subset(&all_pairs));
        assert!(covering.len() <= 2 * h.len());
        assert_eq!(reachability(&covering), reachability(&all_pairs));
        match h.check_one_copy_serializable() {
            Ok(order) => assert_eq!(Some(order), self.witness_order(&all_pairs)),
            Err(violation) => {
                assert_eq!(None, self.witness_order(&all_pairs));
                let cycle = &violation.cycle;
                assert!(cycle.len() >= 2);
                for (i, &a) in cycle.iter().enumerate() {
                    let b = cycle[(i + 1) % cycle.len()];
                    assert!(
                        all_pairs.contains(&(a, b)),
                        "cycle edge {a} -> {b} is not a conflict"
                    );
                }
            }
        }
    }
}

/// The transitive closure of `edges`.
fn reachability(edges: &Edges) -> Edges {
    let mut reach = edges.clone();
    loop {
        let longer: Vec<(TxnId, TxnId)> = reach
            .iter()
            .flat_map(|&(a, b)| {
                edges
                    .iter()
                    .filter(move |e| e.0 == b)
                    .map(move |e| (a, e.1))
            })
            .filter(|pair| !reach.contains(pair))
            .collect();
        if longer.is_empty() {
            return reach;
        }
        reach.extend(longer);
    }
}

/// No two incompatible holders may coexist on any key, ever.
fn check_holder_compatibility(lm: &LockManager) -> Result<(), String> {
    for key in 0..4 {
        let holders = lm.holders(Key(key));
        for (i, &(t1, m1)) in holders.iter().enumerate() {
            for &(t2, m2) in &holders[i + 1..] {
                if t1 != t2 && !m1.compatible(m2) {
                    return Err(format!(
                        "incompatible holders on x{key}: {t1}/{m1:?} and {t2}/{m2:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

#[derive(Default)]
struct RefLockState {
    holders: Vec<(TxnId, LockMode)>,
    waiters: std::collections::VecDeque<(TxnId, LockMode)>,
}

/// A deliberately naive reference model of the lock manager: a plain
/// `HashMap` table, no held/waiting indexes, no cached wait-for edges —
/// `release_all` finds touched keys by scanning the whole table. The
/// dense Vec-backed kernel must make bit-identical grant, wound and
/// promotion decisions.
struct RefLockManager {
    policy: DeadlockPolicy,
    table: std::collections::HashMap<Key, RefLockState>,
}

impl RefLockManager {
    fn new(policy: DeadlockPolicy) -> Self {
        RefLockManager {
            policy,
            table: std::collections::HashMap::new(),
        }
    }

    fn acquire(&mut self, txn: TxnId, key: Key, mode: LockMode) -> Acquire {
        let policy = self.policy;
        let state = self.table.entry(key).or_default();
        if let Some(&(_, held)) = state.holders.iter().find(|&&(t, _)| t == txn) {
            match (held, mode) {
                (LockMode::Exclusive, _) | (LockMode::Shared, LockMode::Shared) => {
                    return Acquire::Granted;
                }
                (LockMode::Shared, LockMode::Exclusive) => {
                    if state.holders.len() == 1 {
                        state.holders[0].1 = LockMode::Exclusive;
                        return Acquire::Granted;
                    }
                    if !state.waiters.iter().any(|&(t, _)| t == txn) {
                        // Upgrades get queue priority under detection; under
                        // wound-wait they queue at the back.
                        if policy == DeadlockPolicy::Detect {
                            state.waiters.push_front((txn, LockMode::Exclusive));
                        } else {
                            state.waiters.push_back((txn, LockMode::Exclusive));
                        }
                    }
                    return Acquire::Waiting {
                        wounded: Self::wound(policy, state, txn),
                    };
                }
            }
        }
        if state
            .holders
            .iter()
            .all(|&(t, m)| t == txn || m.compatible(mode))
            && state.waiters.is_empty()
        {
            state.holders.push((txn, mode));
            return Acquire::Granted;
        }
        if !state.waiters.iter().any(|&(t, _)| t == txn) {
            state.waiters.push_back((txn, mode));
        }
        Acquire::Waiting {
            wounded: Self::wound(policy, state, txn),
        }
    }

    fn wound(policy: DeadlockPolicy, state: &RefLockState, requester: TxnId) -> Vec<TxnId> {
        if policy != DeadlockPolicy::WoundWait {
            return Vec::new();
        }
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
            .filter(|&&(h, hm)| {
                h != requester && !hm.compatible(mode) && requester.is_older_than(h)
            })
            .map(|&(h, _)| h)
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

    fn release_all(&mut self, txn: TxnId) -> Vec<(TxnId, Key, LockMode)> {
        let mut touched: Vec<Key> = self
            .table
            .iter()
            .filter(|(_, s)| {
                s.holders.iter().any(|&(t, _)| t == txn) || s.waiters.iter().any(|&(t, _)| t == txn)
            })
            .map(|(&k, _)| k)
            .collect();
        touched.sort_unstable();
        let mut granted = Vec::new();
        for key in touched {
            let state = self.table.get_mut(&key).expect("touched key present");
            state.holders.retain(|&(t, _)| t != txn);
            state.waiters.retain(|&(t, _)| t != txn);
            while let Some(&(w, mode)) = state.waiters.front() {
                let compatible = state
                    .holders
                    .iter()
                    .all(|&(t, m)| t == w || m.compatible(mode));
                if !compatible {
                    break;
                }
                state.waiters.pop_front();
                if let Some(h) = state.holders.iter_mut().find(|(t, _)| *t == w) {
                    h.1 = mode;
                } else {
                    state.holders.push((w, mode));
                }
                granted.push((w, key, mode));
                if mode == LockMode::Exclusive {
                    break;
                }
            }
        }
        granted
    }

    fn holders(&self, key: Key) -> Vec<(TxnId, LockMode)> {
        self.table
            .get(&key)
            .map(|s| s.holders.clone())
            .unwrap_or_default()
    }

    fn waiters(&self, key: Key) -> Vec<(TxnId, LockMode)> {
        self.table
            .get(&key)
            .map(|s| s.waiters.iter().copied().collect())
            .unwrap_or_default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The dense Vec-backed lock table — over the whole domain, scoped
    /// to a window of it as a partial replica's is, and with no window at
    /// all (every key in the map) — agrees with
    /// the naive reference model decision-for-decision: grants, wound
    /// victims, promotion order and the resulting holder/waiter state,
    /// under both policies (with wounded transactions aborted, as the
    /// protocols do).
    #[test]
    fn dense_lock_table_matches_reference_model(
        ops in lock_ops(),
        detect in any::<bool>(),
    ) {
        let policy = if detect { DeadlockPolicy::Detect } else { DeadlockPolicy::WoundWait };
        let mut tables = [
            Keyspace::dense(4),
            Keyspace::dense(4).scoped(1, 3),
            Keyspace::dense(4).scoped(0, 0),
        ]
        .map(|ks| LockManager::with_keyspace(policy, ks));
        let mut reference = RefLockManager::new(policy);
        let mut dead: std::collections::HashSet<TxnId> = std::collections::HashSet::new();
        for op in ops {
            match op {
                LockOp::Acquire { txn, key, exclusive } => {
                    let txn = t(txn);
                    if dead.contains(&txn) {
                        continue;
                    }
                    let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                    let want = reference.acquire(txn, Key(key as u64), mode);
                    for lm in &mut tables {
                        let got = lm.acquire(txn, Key(key as u64), mode);
                        prop_assert_eq!(&got, &want, "acquire decisions diverged");
                    }
                    if let Acquire::Waiting { wounded } = want {
                        for v in wounded {
                            dead.insert(v);
                            let want = reference.release_all(v);
                            for lm in &mut tables {
                                prop_assert_eq!(&lm.release_all(v), &want, "abort grants diverged");
                            }
                        }
                    }
                }
                LockOp::Release { txn } => {
                    dead.remove(&t(txn));
                    let want = reference.release_all(t(txn));
                    for lm in &mut tables {
                        prop_assert_eq!(&lm.release_all(t(txn)), &want, "release grants diverged");
                    }
                }
            }
            for lm in &tables {
                for key in 0..4 {
                    prop_assert_eq!(lm.holders(Key(key)), reference.holders(Key(key)));
                    prop_assert_eq!(lm.waiters(Key(key)), reference.waiters(Key(key)));
                }
            }
        }
    }

    /// The lock table never grants incompatible holders, under either
    /// policy, for arbitrary acquire/release interleavings.
    #[test]
    fn lock_table_never_grants_conflicts(
        ops in lock_ops(),
        detect in any::<bool>(),
    ) {
        let policy = if detect { DeadlockPolicy::Detect } else { DeadlockPolicy::WoundWait };
        let mut lm = LockManager::new(policy);
        let mut dead: std::collections::HashSet<TxnId> = std::collections::HashSet::new();
        for op in ops {
            match op {
                LockOp::Acquire { txn, key, exclusive } => {
                    let txn = t(txn);
                    if dead.contains(&txn) {
                        continue;
                    }
                    let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                    if let Acquire::Waiting { wounded } = lm.acquire(txn, Key(key as u64), mode) {
                        for v in wounded {
                            dead.insert(v);
                            lm.release_all(v);
                        }
                    }
                }
                LockOp::Release { txn } => {
                    lm.release_all(t(txn));
                }
            }
            check_holder_compatibility(&lm).map_err(TestCaseError::fail)?;
        }
    }

    /// Under wound-wait (with victims actually aborted), the wait-for
    /// graph of live transactions never contains a cycle.
    #[test]
    fn wound_wait_is_deadlock_free(ops in lock_ops()) {
        let mut lm = LockManager::new(DeadlockPolicy::WoundWait);
        let mut dead: std::collections::HashSet<TxnId> = std::collections::HashSet::new();
        for op in ops {
            match op {
                LockOp::Acquire { txn, key, exclusive } => {
                    let txn = t(txn);
                    if dead.contains(&txn) {
                        continue;
                    }
                    let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                    if let Acquire::Waiting { wounded } = lm.acquire(txn, Key(key as u64), mode) {
                        for v in wounded {
                            dead.insert(v);
                            lm.release_all(v);
                        }
                    }
                }
                LockOp::Release { txn } => {
                    dead.remove(&t(txn)); // txn finished; id may be reused fresh
                    lm.release_all(t(txn));
                }
            }
            prop_assert!(first_cycle(&lm.wait_for_edges()).is_none(), "wound-wait deadlocked");
        }
    }

    /// Abort is a perfect undo regardless of the write pattern.
    #[test]
    fn abort_restores_exact_state(
        writes in proptest::collection::vec((0u64..8, any::<i64>()), 1..30),
        committed_prefix in 0usize..10,
    ) {
        let mut store = Store::with_items(8, Value(0));
        let mut tm = TxnManager::new();
        // Some committed history first.
        for (i, &(k, v)) in writes.iter().take(committed_prefix.min(writes.len())).enumerate() {
            let txn = TxnId::new(i as u64 + 1, 0);
            tm.begin(txn);
            tm.write(&mut store, txn, Key(k), Value(v)).expect("active");
            tm.commit_in_place(txn).expect("active");
        }
        let fp = store.fingerprint();
        // Then one big transaction that aborts.
        let txn = TxnId::new(1_000, 0);
        tm.begin(txn);
        for &(k, v) in writes.iter().skip(committed_prefix.min(writes.len())) {
            tm.write(&mut store, txn, Key(k), Value(v.wrapping_add(1))).expect("active");
        }
        tm.abort(&mut store, txn).expect("active");
        prop_assert_eq!(store.fingerprint(), fp);
    }

    /// Two certifiers fed the same request stream reach identical
    /// verdicts and identical version state — the property that lets
    /// certification-based replication skip agreement coordination.
    #[test]
    fn certifier_is_deterministic(
        stream in proptest::collection::vec(
            (
                proptest::collection::vec((0u64..6, 0u64..4), 0..3), // read set (key, version)
                proptest::collection::vec(0u64..6, 0..3),            // written keys
            ),
            1..40,
        ),
    ) {
        let mut a = Certifier::new();
        let mut b = Certifier::new();
        for (i, (reads, writes)) in stream.iter().enumerate() {
            let txn = TxnId::new(i as u64 + 1, 0);
            let read_set: Vec<(Key, u64)> = reads.iter().map(|&(k, v)| (Key(k), v)).collect();
            let ws = WriteSet {
                txn,
                writes: writes
                    .iter()
                    .map(|&k| WriteRecord { key: Key(k), value: Value(1), version: 0 })
                    .collect(),
            };
            let va = a.certify(&read_set, &ws);
            let vb = b.certify(&read_set, &ws);
            prop_assert_eq!(va.is_commit(), vb.is_commit());
        }
        prop_assert_eq!(a.stats(), b.stats());
        for k in 0..6 {
            prop_assert_eq!(a.version_of(Key(k)), b.version_of(Key(k)));
        }
    }

    /// When the 1SR checker produces a witness order, that order is
    /// consistent with every conflict edge; when it reports a violation,
    /// the returned cycle is a real cycle in the edge set.
    #[test]
    fn serializability_witness_is_sound(
        ops in proptest::collection::vec((0u32..2, 0u8..4, 0u64..3, any::<bool>()), 1..40),
        committed in proptest::collection::btree_set(0u8..4, 1..5),
    ) {
        let mut h = ReplicatedHistory::new();
        for &(site, txn, key, write) in &ops {
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            h.record(site, t(txn), Key(key), kind);
        }
        for &c in &committed {
            h.mark_committed(t(c));
        }
        let edges = h.conflict_edges();
        match h.check_one_copy_serializable() {
            Ok(order) => {
                let pos: std::collections::HashMap<TxnId, usize> =
                    order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
                for (a, b) in &edges {
                    prop_assert!(
                        pos[a] < pos[b],
                        "witness order violates edge {} -> {}", a, b
                    );
                }
                // Every committed transaction appears exactly once.
                prop_assert_eq!(order.len(), committed.len());
            }
            Err(violation) => {
                let cycle = &violation.cycle;
                prop_assert!(cycle.len() >= 2);
                for i in 0..cycle.len() {
                    let a = cycle[i];
                    let b = cycle[(i + 1) % cycle.len()];
                    prop_assert!(
                        edges.contains(&(a, b)),
                        "reported cycle edge {} -> {} not in graph", a, b
                    );
                }
            }
        }
    }

    /// The covering-edge graph against the all-pairs reference model:
    /// two histories take interleaved record / commit / purge traffic
    /// (same-transaction operations interleave freely, sites overlap),
    /// are merged, and the merged history takes more traffic. At every
    /// stage: covering ⊆ all-pairs, equal reachability, the same verdict
    /// and witness order as Kahn over all pairs, and any reported cycle
    /// is a cycle of the all-pairs graph.
    #[test]
    fn covering_graph_is_equivalent_to_all_pairs(
        before in proptest::collection::vec(
            (any::<bool>(), (0u8..8, 0u32..3, 0u8..5, 0u64..3, any::<bool>())),
            0..50,
        ),
        after in proptest::collection::vec((0u8..8, 0u32..3, 0u8..5, 0u64..3, any::<bool>()), 0..20),
    ) {
        let mut parts = [ReplicatedHistory::new(), ReplicatedHistory::new()];
        let mut models = [HistoryModel::default(), HistoryModel::default()];
        for &(second, step) in &before {
            models[usize::from(second)].apply(&mut parts[usize::from(second)], step);
        }
        let mut merged = ReplicatedHistory::new();
        let mut model = HistoryModel::default();
        for (part, part_model) in parts.iter().zip(&models) {
            part_model.check(part);
            merged.merge(part);
            model.merge(part_model);
        }
        model.check(&merged);
        for &step in &after {
            model.apply(&mut merged, step);
            model.check(&merged);
        }
    }

    /// Store fingerprints are order-insensitive over the same final state
    /// and sensitive to any value difference.
    #[test]
    fn fingerprint_characterizes_state(
        writes in proptest::collection::vec((0u64..6, any::<i64>()), 1..20),
    ) {
        let mut a = Store::with_items(6, Value(0));
        let mut b = Store::with_items(6, Value(0));
        let txn = TxnId::new(1, 0);
        for &(k, v) in &writes {
            a.write(Key(k), Value(v), txn);
        }
        // Apply to b in reverse, but fix up so final values match: replay
        // only the *last* write per key.
        let mut last: std::collections::HashMap<u64, i64> = std::collections::HashMap::new();
        for &(k, v) in &writes {
            last.insert(k, v);
        }
        for (&k, &v) in &last {
            b.write(Key(k), Value(v), txn);
        }
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        // Any single-value perturbation changes the fingerprint.
        let (&k, &v) = last.iter().next().expect("non-empty");
        b.write(Key(k), Value(v.wrapping_add(1)), txn);
        prop_assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
