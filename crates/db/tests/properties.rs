//! Property-based tests for the database kernel: lock-table invariants,
//! wound-wait acyclicity, undo exactness, certification determinism,
//! serialization-graph witnesses, and every run of writesets — the redo
//! log, the payload arena and a log-suffix transfer — against a plain
//! `Vec<WriteSet>` model.

use std::collections::BTreeSet;

use proptest::prelude::*;

use repl_db::{
    first_cycle, AccessKind, Acquire, Certifier, DeadlockPolicy, Key, Keyspace, LockManager,
    LockMode, PayloadArena, RedoLog, ReplicatedHistory, Store, Transfer, TransferStrategy, TxnId,
    TxnManager, Value, WriteRecord, WriteSet, WriteSetRef,
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
        let held = state
            .holders
            .iter()
            .find(|&&(t, _)| t == txn)
            .map(|&(_, m)| m);
        match (held, mode) {
            (Some(LockMode::Exclusive), _) | (Some(LockMode::Shared), LockMode::Shared) => {
                return Acquire::Granted;
            }
            (Some(LockMode::Shared), LockMode::Exclusive) if state.holders.len() == 1 => {
                state.holders[0].1 = LockMode::Exclusive;
                return Acquire::Granted;
            }
            _ => {}
        }
        if !state.waiters.iter().any(|&(t, _)| t == txn) {
            // Detection: arrival order, upgrades first. Wound-wait: behind
            // exactly the waiters older than the requester.
            let at = match policy {
                DeadlockPolicy::Detect if held.is_some() => 0,
                DeadlockPolicy::Detect => state.waiters.len(),
                DeadlockPolicy::WoundWait => {
                    state.waiters.iter().filter(|&&(w, _)| w < txn).count()
                }
            };
            let compatible = state
                .holders
                .iter()
                .all(|&(t, m)| t == txn || m.compatible(mode));
            if at == 0 && compatible {
                state.holders.push((txn, mode));
                return Acquire::Granted;
            }
            state.waiters.insert(at, (txn, mode));
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

    /// Under wound-wait (with victims aborted), every wait-for edge runs
    /// from a younger to an older transaction, and a request wounds only
    /// holders of its key: a waiter queued ahead of it is older.
    #[test]
    fn wound_wait_edges_run_from_younger_to_older(ops in lock_ops()) {
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
                    let key = Key(key as u64);
                    if let Acquire::Waiting { wounded } = lm.acquire(txn, key, mode) {
                        let holders = lm.holders(key);
                        for v in wounded {
                            prop_assert!(
                                holders.iter().any(|&(h, _)| h == v),
                                "{} wounded {} which does not hold {:?}", txn, v, key
                            );
                            dead.insert(v);
                            lm.release_all(v);
                        }
                    }
                }
                LockOp::Release { txn } => {
                    dead.remove(&t(txn));
                    lm.release_all(t(txn));
                }
            }
            for (w, h) in lm.wait_for_edges() {
                prop_assert!(h.is_older_than(w), "wait-for edge {} -> {}", w, h);
            }
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

/// A writeset of `n` records numbered by `ts`, over a 16-key domain.
fn writeset(ts: u64, n: u8, salt: u8) -> WriteSet {
    WriteSet {
        txn: TxnId::new(ts, u32::from(salt % 3)),
        writes: (0..u64::from(n))
            .map(|j| WriteRecord {
                key: Key((u64::from(salt) + 5 * j) % 16),
                value: Value(ts as i64 * 10 + j as i64),
                version: ts,
            })
            .collect(),
    }
}

/// The records a log or arena view yields, in order.
fn rows<'a>(view: impl Into<repl_db::WsView<'a>>) -> (TxnId, Vec<WriteRecord>) {
    let view = view.into();
    (view.txn, view.iter().collect())
}

/// A reference model of a [`RedoLog`]: every committed writeset since
/// `base`, the staged ones, and the truncation point.
#[derive(Debug, Default)]
struct LogModel {
    base: u64,
    committed: Vec<WriteSet>,
    first_retained: u64,
    staged: Vec<WriteSet>,
    fsyncs: u64,
    retention: Option<usize>,
}

impl LogModel {
    fn len(&self) -> u64 {
        self.base + self.committed.len() as u64
    }

    /// Commits `sets` under `forces` fsyncs, applying them to `donor`.
    fn commit(&mut self, sets: Vec<WriteSet>, forces: u64, donor: &mut Store) {
        for ws in &sets {
            donor.apply_writeset(ws);
        }
        self.committed.extend(sets);
        self.fsyncs += forces;
        if let Some(max) = self.retention {
            self.first_retained = self
                .first_retained
                .max(self.len().saturating_sub(max as u64));
        }
    }

    /// The committed writesets from logical index `from` on.
    fn since(&self, from: u64) -> &[WriteSet] {
        let from = from.max(self.first_retained).min(self.len());
        &self.committed[(from - self.base) as usize..]
    }

    fn reset(&mut self, index: u64) {
        self.base = index;
        self.first_retained = index;
        self.committed.clear();
        self.staged.clear();
    }

    /// Checks `log` answers as the model does, and that a transfer from
    /// it ships the model's suffix or a snapshot of `donor`.
    fn check(&self, log: &RedoLog, donor: &Store, probe: u8) {
        prop_assert_eq!(log.len() as u64, self.len());
        prop_assert_eq!(log.first_retained(), self.first_retained);
        prop_assert_eq!(log.fsyncs(), self.fsyncs);
        prop_assert_eq!(log.staged_len(), self.staged.len());
        let staged: Vec<_> = log.staged().map(rows).collect();
        let want: Vec<_> = self.staged.iter().map(rows).collect();
        prop_assert_eq!(staged, want);
        let len = self.len();
        for from in [
            self.first_retained,
            len,
            self.first_retained + u64::from(probe) % 4,
        ] {
            let got: Vec<_> = log.since(from as usize).map(rows).collect();
            let want: Vec<_> = self.since(from).iter().map(rows).collect();
            prop_assert_eq!(got, want, "since({})", from);
        }
        let below = self.first_retained.checked_sub(1 + u64::from(probe) % 3);
        for have in [Some(self.first_retained), Some(len + 1), below]
            .into_iter()
            .flatten()
        {
            prop_assert_eq!(log.has_suffix(have), have >= self.first_retained);
            self.check_transfer(log, donor, have);
        }
    }

    fn check_transfer(&self, log: &RedoLog, donor: &Store, have: u64) {
        let t = Transfer::from_log(log, donor, have);
        prop_assert_eq!(t.high, self.len());
        let mut got = Store::with_items(16, Value(0));
        prop_assert_eq!(t.apply(&mut got), self.len());
        let mut want = Store::with_items(16, Value(0));
        if have >= self.first_retained {
            let suffix = self.since(have);
            prop_assert_eq!(t.strategy, TransferStrategy::LogSuffix);
            prop_assert_eq!(t.start, have);
            prop_assert_eq!(t.entries.len(), suffix.len());
            let bytes: usize = suffix.iter().map(WriteSet::wire_size).sum();
            prop_assert_eq!(t.wire_size(), 32 + bytes);
            for ws in suffix {
                want.apply_writeset(ws);
            }
        } else {
            prop_assert_eq!(t.strategy, TransferStrategy::Snapshot);
            prop_assert_eq!(t.entries.len(), 0);
            prop_assert_eq!(t.wire_size(), 32 + 40 * donor.snapshot().len());
            want = donor.clone();
        }
        prop_assert_eq!(got.fingerprint(), want.fingerprint());
    }
}

/// One interned span of the arena model.
#[derive(Debug)]
struct SpanModel {
    handle: WriteSetRef,
    ws: WriteSet,
    expected: u32,
    released: u64,
    dead: bool,
}

/// A reference model of a [`PayloadArena`]: every span ever interned,
/// the compacted prefix, and the counters.
#[derive(Debug)]
struct ArenaModel {
    spans: Vec<SpanModel>,
    compacted: usize,
    gc: bool,
    since_scan: usize,
    retired: u64,
    compactions: u64,
}

/// Release sites: a group's, and sites past 63 that share its bits.
const SITES: [u32; 10] = [0, 1, 2, 3, 63, 64, 65, 127, 128, 191];

impl ArenaModel {
    fn intern(&mut self, arena: &mut PayloadArena, ws: WriteSet, expected: u32) {
        let handle = arena.intern(&ws, expected);
        prop_assert_eq!(handle.span, self.spans.len() as u64);
        prop_assert_eq!(handle.len as usize, ws.writes.len());
        prop_assert_eq!(handle.wire_size(), ws.wire_size());
        self.spans.push(SpanModel {
            handle,
            ws,
            expected,
            released: 0,
            dead: false,
        });
        if expected == 0 && self.gc {
            self.retire(self.spans.len() - 1);
        }
    }

    fn release(&mut self, arena: &mut PayloadArena, i: usize, site: u32) {
        arena.release(self.spans[i].handle, site);
        if !self.gc || i < self.compacted || self.spans[i].dead {
            return;
        }
        let span = &mut self.spans[i];
        span.released |= 1 << (site % 64);
        if span.released.count_ones() >= span.expected {
            self.retire(i);
        }
    }

    fn retire(&mut self, i: usize) {
        self.spans[i].dead = true;
        self.retired += 1;
        self.since_scan += 1;
        if self.since_scan >= PayloadArena::COMPACT_EVERY {
            self.since_scan = 0;
            let dead = self.spans[self.compacted..]
                .iter()
                .take_while(|s| s.dead)
                .count();
            if dead > 0 {
                self.compacted += dead;
                self.compactions += 1;
            }
        }
    }

    fn check(&self, arena: &PayloadArena) {
        let stats = arena.stats();
        let resident = &self.spans[self.compacted..];
        prop_assert_eq!(stats.interned, self.spans.len() as u64);
        prop_assert_eq!(stats.retired, self.retired);
        prop_assert_eq!(stats.compactions, self.compactions);
        prop_assert_eq!(stats.spans_resident, resident.len());
        let records: usize = resident.iter().map(|s| s.ws.writes.len()).sum();
        prop_assert_eq!(stats.records_resident, records);
        prop_assert!(stats.record_capacity >= records);
        for s in resident.iter().filter(|s| !s.dead) {
            prop_assert_eq!(rows(arena.view(s.handle)), rows(&s.ws));
            prop_assert_eq!(arena.view(s.handle).wire_size(), s.ws.wire_size());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The redo log against a `Vec<WriteSet>` model, step by step:
    /// appends, staged groups flushed under one force or one each,
    /// retention set, lifted and tightened, restarts and fast-forwards.
    /// After every step the log's length, truncation point, forces,
    /// staged run and suffixes match, and `Transfer::from_log` ships the
    /// model's suffix — or, below the truncation point, the donor's
    /// snapshot.
    #[test]
    fn redo_log_and_transfer_match_a_vec_of_writesets(
        ops in proptest::collection::vec((0u8..10, any::<u8>(), any::<u8>()), 1..80),
    ) {
        let mut log = RedoLog::new();
        let mut model = LogModel::default();
        let mut donor = Store::with_items(16, Value(0));
        let mut ts = 0;
        for (kind, a, b) in ops {
            match kind {
                0..=2 => {
                    ts += 1;
                    let ws = writeset(ts, a % 4, b);
                    prop_assert_eq!(log.append(ws.clone()) as u64, model.len());
                    model.commit(vec![ws], 1, &mut donor);
                }
                3 | 4 => {
                    ts += 1;
                    let ws = writeset(ts, a % 4, b);
                    log.stage(ws.clone());
                    model.staged.push(ws);
                }
                5 | 6 => {
                    let group = std::mem::take(&mut model.staged);
                    let want = (!group.is_empty()).then(|| (model.len() as usize, group.len()));
                    let (got, forces) = if kind == 5 {
                        (log.flush_group(), 1)
                    } else {
                        (log.flush_each(), group.len() as u64)
                    };
                    prop_assert_eq!(got, want);
                    if !group.is_empty() {
                        model.commit(group, forces, &mut donor);
                    }
                }
                7 => {
                    let cap = (a % 3 != 0).then_some(1 + usize::from(b % 6));
                    log.set_retention(cap);
                    model.retention = cap;
                }
                8 => {
                    let index = u64::from(b % 40);
                    log.restart_at(index);
                    model.reset(index);
                    model.fsyncs = 0;
                }
                _ => {
                    let index = u64::from(b % 40);
                    log.skip_to(index);
                    if index > model.len() {
                        model.reset(index);
                    }
                }
            }
            model.check(&log, &donor, a);
        }
    }

    /// The payload arena against a `Vec<WriteSet>` model: interns with 0
    /// to 3 expected releases, releases from sites past 63 and
    /// duplicates, GC disarmed and re-armed, and bursts of released
    /// spans that drive dead-prefix compaction. After every step the
    /// counters match and every live span reads back its writeset.
    #[test]
    fn payload_arena_matches_a_vec_of_writesets(
        ops in proptest::collection::vec((0u8..10, any::<u8>(), any::<u8>()), 1..60),
    ) {
        let mut arena = PayloadArena::new();
        let mut model = ArenaModel {
            spans: Vec::new(),
            compacted: 0,
            gc: true,
            since_scan: 0,
            retired: 0,
            compactions: 0,
        };
        let mut ts = 0;
        for (kind, a, b) in ops {
            match kind {
                0..=3 => {
                    ts += 1;
                    model.intern(&mut arena, writeset(ts, a % 4, b), u32::from(b % 4));
                }
                4..=6 if !model.spans.is_empty() => {
                    let n = model.spans.len();
                    let i = if b % 2 == 0 {
                        n - 1 - usize::from(a) % n.min(6)
                    } else {
                        usize::from(a) * 131 % n
                    };
                    model.release(&mut arena, i, SITES[usize::from(b / 2) % SITES.len()]);
                }
                7 => {
                    let gc = a % 4 != 0;
                    arena.set_gc(gc);
                    model.gc = gc;
                }
                8 => {
                    for _ in 0..200 + usize::from(a) * 12 {
                        ts += 1;
                        model.intern(&mut arena, writeset(ts, 1, b), 1);
                        let last = model.spans.len() - 1;
                        model.release(&mut arena, last, 0);
                    }
                }
                _ => {}
            }
            model.check(&arena);
        }
    }
}
