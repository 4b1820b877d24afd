//! Execution histories over replicated data, and the one-copy-
//! serializability checker.
//!
//! Every site records the order in which it performed physical operations
//! on its copies. The union of the per-site conflict orders (restricted to
//! committed transactions) forms the *replicated-data serialization
//! graph*; the history is one-copy serializable iff that graph is acyclic
//! (Bernstein, Hadzilacos & Goodman 1987) — the paper's correctness
//! criterion for database replication (Section 4.1).
//!
//! Recording is a plain append to the site's log: one column of 16-byte
//! records (seq, site-local transaction index with a write bit, key).
//! The log carries its own purge index (each transaction's local index,
//! its commit mark and the seq of its first op there), so merging the
//! histories of distinct sites moves whole logs
//! ([`ReplicatedHistory::absorb`]) and copies nothing; a site both
//! histories recorded is re-indexed op by op. A transaction is committed
//! if any site's entry carries the mark. The graph is built when it is read, in one linear pass, from the
//! **covering edges** of each (site, key) stream of committed accesses:
//! write → next write, write → each read before the next write, and
//! each read → the next write. Every covering edge joins two
//! conflicting accesses in stream order, and every conflicting pair is
//! joined by a path of covering edges, so the covering graph is a
//! subgraph of the all-pairs conflict graph with the same transitive
//! closure: it is cyclic iff the all-pairs graph is, and — a node being
//! ready exactly when all its ancestors are out — smallest-ready-first
//! topological sorting yields the same witness order. There are at most
//! two covering edges per committed access.

use std::collections::hash_map::Entry;

use crate::graph::{first_cycle, Csr};
use crate::hash::FxHashMap;
use crate::item::{AccessKind, Key, TxnId};

/// One physical operation as recorded by a site (the site is the log's),
/// in 16 bytes: the transaction is its index in the log's purge index.
#[derive(Debug, Clone, Copy)]
struct Access {
    /// Site-local sequence number; survives `purge` compaction.
    seq: u32,
    /// The transaction's site-local index, `WRITE` set for a write.
    txn: u32,
    /// The logical item accessed (this site's physical copy).
    key: Key,
}

const _: () = assert!(std::mem::size_of::<Access>() == 16);

/// The write bit of [`Access::txn`]; the bits below it are the index.
const WRITE: u32 = 1 << 31;

/// The commit mark of a purge-index entry's local index, in the bit
/// [`WRITE`] holds in an access.
const MARK: u32 = WRITE;

impl Access {
    fn local(self) -> usize {
        (self.txn & !WRITE) as usize
    }

    fn kind(self) -> AccessKind {
        if self.txn & WRITE == 0 {
            AccessKind::Read
        } else {
            AccessKind::Write
        }
    }
}

/// One site's operation stream: one column of records, so a
/// transaction's ops can be found again by binary search on `seq` from
/// the seq of its first op.
#[derive(Debug, Clone, Default)]
struct SiteLog {
    next_seq: u32,
    next_local: u32,
    ops: Vec<Access>,
    /// The purge index: each transaction's local index (with [`MARK`]
    /// set once it committed) and the seq of its first op in `ops` (of
    /// the next op, for a mark with no op here). One flat table entry per
    /// transaction, no per-transaction heap allocation, and it travels
    /// with the log when histories merge.
    txns: FxHashMap<TxnId, (u32, u32)>,
}

impl SiteLog {
    /// `txn`'s purge-index entry, made if it has none.
    fn entry(&mut self, txn: TxnId) -> &mut (u32, u32) {
        let (next_local, seq) = (&mut self.next_local, self.next_seq);
        self.txns.entry(txn).or_insert_with(|| {
            let local = *next_local;
            assert!(local < WRITE, "fewer than 2^31 transactions per site");
            *next_local += 1;
            (local, seq)
        })
    }

    fn push(&mut self, txn: TxnId, key: Key, kind: AccessKind) {
        let local = self.entry(txn).0 & !MARK;
        let seq = self.next_seq;
        self.next_seq = seq.checked_add(1).expect("fewer than 2^32 ops per site");
        let write = if kind == AccessKind::Write { WRITE } else { 0 };
        self.ops.push(Access {
            seq,
            txn: local | write,
            key,
        });
    }

    /// Sets `txn`'s commit mark; false if it has no entry here.
    fn mark(&mut self, txn: TxnId) -> bool {
        self.txns.get_mut(&txn).map(|e| e.0 |= MARK).is_some()
    }

    /// The committed transactions this log marks.
    fn marked(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.txns
            .iter()
            .filter(|(_, e)| e.0 & MARK != 0)
            .map(|(&txn, _)| txn)
    }

    /// Removes every op of `txn`, compacting from its first one onward
    /// (an aborted attempt's ops are recent, so the tail that moves is
    /// short). Returns how many ops were removed.
    fn purge(&mut self, txn: TxnId) -> usize {
        let Some((local, first_seq)) = self.txns.remove(&txn) else {
            return 0;
        };
        let local = (local & !MARK) as usize;
        let ops = &mut self.ops;
        let from = ops.partition_point(|a| a.seq < first_seq);
        let mut kept = from;
        for i in from..ops.len() {
            if ops[i].local() != local {
                ops[kept] = ops[i];
                kept += 1;
            }
        }
        let removed = ops.len() - kept;
        ops.truncate(kept);
        removed
    }

    /// The transaction of each local index (`None` once purged).
    fn by_local(&self) -> Vec<Option<TxnId>> {
        let mut txn_of = vec![None; self.next_local as usize];
        for (&txn, &(local, _)) in &self.txns {
            txn_of[(local & !MARK) as usize] = Some(txn);
        }
        txn_of
    }
}

/// A multi-site execution history.
///
/// # Examples
///
/// ```
/// use repl_db::{ReplicatedHistory, AccessKind, Key, TxnId};
///
/// let mut h = ReplicatedHistory::new();
/// let (t1, t2) = (TxnId::new(1, 0), TxnId::new(2, 0));
/// h.record(0, t1, Key(0), AccessKind::Write);
/// h.record(0, t2, Key(0), AccessKind::Write);
/// h.mark_committed(t1);
/// h.mark_committed(t2);
/// let order = h.check_one_copy_serializable().expect("1SR");
/// assert_eq!(order, vec![t1, t2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReplicatedHistory {
    /// Per-site operation streams, in execution order, each with its own
    /// purge index and commit marks.
    per_site: FxHashMap<u32, SiteLog>,
    /// The site last recorded at: a commit mark for a transaction no
    /// site has recorded goes to its log.
    home: u32,
    total_ops: usize,
    /// When set, `record`/`mark_committed` are no-ops: the open-loop
    /// scale path trades post-run serializability checking for constant
    /// memory (the history otherwise grows per operation, unbounded).
    paused: bool,
}

/// A cycle in the serialization graph: evidence of a non-serializable
/// execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerializabilityViolation {
    /// The transactions on the cycle, in edge order.
    pub cycle: Vec<TxnId>,
}

impl std::fmt::Display for SerializabilityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "serialization-graph cycle through {} transactions",
            self.cycle.len()
        )
    }
}

impl std::error::Error for SerializabilityViolation {}

impl ReplicatedHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        ReplicatedHistory::default()
    }

    /// Turns recording on or off. While off, `record` and
    /// `mark_committed` do nothing, so the history stays constant-size
    /// no matter how many operations execute. Already-recorded state is
    /// kept. This is the single switch behind the server "lean" mode:
    /// protocols append through many call sites, and gating here covers
    /// them all.
    pub fn set_recording(&mut self, on: bool) {
        self.paused = !on;
    }

    /// True unless recording has been switched off.
    pub fn is_recording(&self) -> bool {
        !self.paused
    }

    /// Records a physical operation at `site` in execution order.
    pub fn record(&mut self, site: u32, txn: TxnId, key: Key, kind: AccessKind) {
        if self.paused {
            return;
        }
        self.per_site.entry(site).or_default().push(txn, key, kind);
        self.home = site;
        self.total_ops += 1;
    }

    /// Sizes `site`'s log for `ops` more recorded operations of `txns`
    /// more transactions, so a run that knows its workload records
    /// without growth steps. A no-op while recording is off.
    pub fn reserve(&mut self, site: u32, txns: usize, ops: usize) {
        if self.paused {
            return;
        }
        let log = self.per_site.entry(site).or_default();
        log.ops.reserve_exact(ops);
        log.txns.reserve(txns);
    }

    /// Marks a transaction as committed; only committed transactions
    /// participate in the serialization graph. The mark sits in the
    /// transaction's purge-index entry at every site that recorded it
    /// (at the last site recorded at, if none did).
    pub fn mark_committed(&mut self, txn: TxnId) {
        if self.paused {
            return;
        }
        // Each log marks its own entry: the order is unobservable.
        let mut marked = false;
        for log in self.per_site.values_mut() {
            marked |= log.mark(txn);
        }
        if !marked {
            self.per_site.entry(self.home).or_default().entry(txn).0 |= MARK;
        }
    }

    /// Number of recorded operations across all sites.
    pub fn len(&self) -> usize {
        self.total_ops
    }

    /// True if no operations were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The committed transactions — the union of the sites' marks — in
    /// id order. A transaction's position here is its dense index in
    /// the graph routines below, so index order is id order.
    pub fn committed(&self) -> Vec<TxnId> {
        let marks = self.per_site.values().map(|log| log.marked().count()).sum();
        let mut nodes = Vec::with_capacity(marks);
        nodes.extend(self.per_site.values().flat_map(SiteLog::marked));
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Removes every recorded operation and the commit mark of `txn`
    /// (used when an aborted attempt is retried under the same
    /// transaction id: the dead attempt's operations must not count once
    /// the retry commits).
    pub fn purge(&mut self, txn: TxnId) {
        // Removal counts add up, so the map order is unobservable.
        for log in self.per_site.values_mut() {
            self.total_ops -= log.purge(txn);
        }
    }

    /// Merges another history into this one by move (e.g. a replica's
    /// history at the end of a run). A site new here takes `other`'s log
    /// whole, purge index and marks included; a site present in both
    /// gets `other`'s ops appended in order and its marks. A paused
    /// history ignores it.
    pub fn absorb(&mut self, other: ReplicatedHistory) {
        if self.paused {
            return;
        }
        // Site logs are independent streams and a transaction's marks
        // are a union, so the map iteration order cannot reach anything
        // observable.
        for (site, log) in other.per_site {
            self.total_ops += log.ops.len();
            match self.per_site.entry(site) {
                Entry::Vacant(slot) => {
                    slot.insert(log);
                }
                Entry::Occupied(mut mine) => {
                    let mine = mine.get_mut();
                    let txn_of = log.by_local();
                    mine.ops.reserve(log.ops.len());
                    for &a in &log.ops {
                        let txn = txn_of[a.local()].expect("a logged transaction is indexed");
                        mine.push(txn, a.key, a.kind());
                    }
                    for txn in log.marked() {
                        mine.entry(txn).0 |= MARK;
                    }
                }
            }
        }
    }

    /// Merges a copy of another history: [`absorb`](Self::absorb) for a
    /// history the caller keeps.
    pub fn merge(&mut self, other: &ReplicatedHistory) {
        self.absorb(other.clone());
    }

    /// The covering edges over dense indices into `nodes`, sorted and
    /// deduplicated: one pass over the site logs, each of whose local
    /// transaction indices is mapped to a dense one once. The stream
    /// table and the read list are cleared, not dropped, between logs,
    /// so the allocations do not grow with the keyspace.
    fn covering_edges(&self, nodes: &[TxnId]) -> Vec<(u32, u32)> {
        const NONE: u32 = u32::MAX;
        let index: FxHashMap<TxnId, u32> = nodes
            .iter()
            .enumerate()
            .map(|(i, &txn)| {
                let i = u32::try_from(i).expect("fewer than 2^32 committed transactions");
                (txn, i)
            })
            .collect();
        let mut edges = Vec::new();
        // Per (site, key) stream: its latest write and the newest of the
        // reads since (all of them, if no write has been seen yet), each
        // read linking to the one before it in `reads`.
        let mut streams: FxHashMap<Key, (u32, u32)> = FxHashMap::default();
        let mut reads: Vec<(u32, u32)> = Vec::new();
        let widest = self.per_site.values().map(|log| log.next_local);
        let mut dense: Vec<u32> = Vec::with_capacity(widest.max().unwrap_or(0) as usize);
        for log in self.per_site.values() {
            dense.clear();
            dense.resize(log.next_local as usize, NONE);
            for (txn, &(local, _)) in &log.txns {
                if let Some(&i) = index.get(txn) {
                    dense[(local & !MARK) as usize] = i;
                }
            }
            streams.clear();
            reads.clear();
            for &a in &log.ops {
                let txn = dense[a.local()];
                if txn == NONE {
                    continue;
                }
                let (last_write, newest_read) = streams.entry(a.key).or_insert((NONE, NONE));
                let mut edge_from = |earlier: u32| {
                    if earlier != txn && earlier != NONE {
                        edges.push((earlier, txn));
                    }
                };
                edge_from(*last_write);
                match a.kind() {
                    AccessKind::Read => {
                        reads.push((txn, *newest_read));
                        *newest_read = (reads.len() - 1) as u32;
                    }
                    AccessKind::Write => {
                        while *newest_read != NONE {
                            let (read, before) = reads[*newest_read as usize];
                            edge_from(read);
                            *newest_read = before;
                        }
                        *last_write = txn;
                    }
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// The covering edges of the replicated-data serialization graph,
    /// sorted: a subset of all conflicting pairs with the same
    /// transitive closure (see the module docs).
    pub fn conflict_edges(&self) -> Vec<(TxnId, TxnId)> {
        let nodes = self.committed();
        self.covering_edges(&nodes)
            .into_iter()
            .map(|(a, b)| (nodes[a as usize], nodes[b as usize]))
            .collect()
    }

    /// Checks one-copy serializability.
    ///
    /// # Errors
    ///
    /// Returns the violating cycle if the serialization graph is cyclic;
    /// otherwise returns a witness serial order (a topological sort).
    pub fn check_one_copy_serializable(&self) -> Result<Vec<TxnId>, SerializabilityViolation> {
        let nodes = self.committed();
        let graph = Csr::new(nodes.len(), &self.covering_edges(&nodes));
        match graph.topological_order() {
            Some(order) => Ok(order.into_iter().map(|i| nodes[i]).collect()),
            None => Err(SerializabilityViolation {
                cycle: first_cycle(&self.conflict_edges()).expect("the sort stalled on a cycle"),
            }),
        }
    }

    /// Every conflicting pair of committed accesses, from scratch (the
    /// all-pairs graph the covering edges replace). Test reference.
    #[cfg(test)]
    fn full_rescan_edges(&self) -> Vec<(TxnId, TxnId)> {
        use std::collections::{HashMap, HashSet};
        let committed: HashSet<TxnId> = self.committed().into_iter().collect();
        let mut edges = HashSet::new();
        for log in self.per_site.values() {
            let txn_of = log.by_local();
            let mut per_key: HashMap<Key, Vec<(TxnId, AccessKind)>> = HashMap::new();
            for &a in &log.ops {
                let txn = txn_of[a.local()].expect("a logged transaction is indexed");
                if committed.contains(&txn) {
                    per_key.entry(a.key).or_default().push((txn, a.kind()));
                }
            }
            for seq in per_key.values() {
                for (i, &(t1, k1)) in seq.iter().enumerate() {
                    for &(t2, k2) in &seq[i + 1..] {
                        if t1 != t2 && k1.conflicts_with(k2) {
                            edges.insert((t1, t2));
                        }
                    }
                }
            }
        }
        let mut v: Vec<(TxnId, TxnId)> = edges.into_iter().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use AccessKind::{Read, Write};

    fn t(ts: u64) -> TxnId {
        TxnId::new(ts, 0)
    }

    #[test]
    fn empty_history_is_serializable() {
        let h = ReplicatedHistory::new();
        assert!(h.is_empty());
        assert_eq!(
            h.check_one_copy_serializable().expect("trivially 1SR"),
            vec![]
        );
    }

    #[test]
    fn reads_never_conflict() {
        let mut h = ReplicatedHistory::new();
        h.record(0, t(1), Key(0), Read);
        h.record(0, t(2), Key(0), Read);
        h.mark_committed(t(1));
        h.mark_committed(t(2));
        assert!(h.conflict_edges().is_empty());
    }

    #[test]
    fn single_site_serial_order_follows_execution() {
        let mut h = ReplicatedHistory::new();
        h.record(0, t(2), Key(0), Write);
        h.record(0, t(1), Key(0), Write);
        h.mark_committed(t(1));
        h.mark_committed(t(2));
        // Execution order t2 then t1 — the witness must respect it.
        assert_eq!(
            h.check_one_copy_serializable().expect("1SR"),
            vec![t(2), t(1)]
        );
    }

    #[test]
    fn cross_site_write_inversion_is_detected() {
        // Site 0 applies t1's write before t2's; site 1 the reverse:
        // classic replica divergence, not 1SR.
        let mut h = ReplicatedHistory::new();
        h.record(0, t(1), Key(0), Write);
        h.record(0, t(2), Key(0), Write);
        h.record(1, t(2), Key(0), Write);
        h.record(1, t(1), Key(0), Write);
        h.mark_committed(t(1));
        h.mark_committed(t(2));
        let err = h.check_one_copy_serializable().expect_err("must be cyclic");
        assert_eq!(err.cycle.len(), 2);
        assert_eq!(
            err.to_string(),
            "serialization-graph cycle through 2 transactions"
        );
    }

    #[test]
    fn read_write_inversion_across_items_is_detected() {
        // t1 reads x then writes y; t2 reads y then writes x; interleaved
        // so each reads the pre-image: r1(x) r2(y) w1(y) w2(x) — cyclic.
        let mut h = ReplicatedHistory::new();
        h.record(0, t(1), Key(0), Read);
        h.record(0, t(2), Key(1), Read);
        h.record(0, t(1), Key(1), Write);
        h.record(0, t(2), Key(0), Write);
        h.mark_committed(t(1));
        h.mark_committed(t(2));
        assert!(h.check_one_copy_serializable().is_err());
    }

    #[test]
    fn uncommitted_transactions_are_ignored() {
        let mut h = ReplicatedHistory::new();
        h.record(0, t(1), Key(0), Write);
        h.record(0, t(2), Key(0), Write);
        h.record(0, t(1), Key(0), Write); // would be a w1 w2 w1 cycle if t2 counted
        h.mark_committed(t(1));
        assert!(h.check_one_copy_serializable().is_ok());
    }

    #[test]
    fn purge_removes_aborted_attempts() {
        let mut h = ReplicatedHistory::new();
        h.record(0, t(1), Key(0), Write);
        h.record(0, t(2), Key(0), Write);
        h.record(0, t(1), Key(1), Write);
        h.purge(t(1));
        h.record(0, t(1), Key(0), Write); // the retry
        h.mark_committed(t(1));
        h.mark_committed(t(2));
        // Without the purge this would be w1 w2 w1: cyclic.
        assert!(h.check_one_copy_serializable().is_ok());
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn merge_combines_sites() {
        let mut a = ReplicatedHistory::new();
        a.record(0, t(1), Key(0), Write);
        a.mark_committed(t(1));
        let mut b = ReplicatedHistory::new();
        b.record(1, t(2), Key(0), Write);
        b.mark_committed(t(2));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.committed().len(), 2);
    }

    #[test]
    fn purge_after_absorb_uses_the_index_that_travelled_with_the_log() {
        let mut at_site = ReplicatedHistory::new();
        at_site.record(0, t(1), Key(0), Write);
        at_site.record(0, t(2), Key(0), Write);
        at_site.record(0, t(1), Key(1), Write);
        at_site.mark_committed(t(1));
        at_site.mark_committed(t(2));
        let mut merged = ReplicatedHistory::new();
        merged.absorb(at_site);
        merged.purge(t(1));
        assert_eq!(merged.len(), 1);
        assert_eq!(merged.committed().len(), 1);
        // Seqs continue past the moved ones: the retry purges cleanly.
        merged.record(0, t(1), Key(0), Write);
        merged.purge(t(1));
        assert_eq!(merged.len(), 1);
        merged.record(0, t(3), Key(0), Write);
        merged.mark_committed(t(3));
        assert_eq!(merged.conflict_edges(), vec![(t(2), t(3))]);
    }

    #[test]
    fn absorbing_a_shared_site_equals_recording_op_by_op() {
        let ops = |h: &mut ReplicatedHistory, from: u64| {
            for i in from..from + 4 {
                let kind = if i % 3 == 0 { Read } else { Write };
                for site in 0..2 {
                    h.record(site, t(i), Key(i % 2), kind);
                }
                h.mark_committed(t(i));
            }
        };
        let mut a = ReplicatedHistory::new();
        ops(&mut a, 1);
        let mut b = ReplicatedHistory::new();
        ops(&mut b, 5);
        b.record(2, t(5), Key(0), Write);
        let mut by_record = ReplicatedHistory::new();
        ops(&mut by_record, 1);
        ops(&mut by_record, 5);
        by_record.record(2, t(5), Key(0), Write);
        a.absorb(b);
        assert_eq!(a.len(), by_record.len());
        assert_eq!(a.committed(), by_record.committed());
        assert_eq!(a.conflict_edges(), by_record.conflict_edges());
        assert_eq!(
            a.check_one_copy_serializable(),
            by_record.check_one_copy_serializable()
        );
    }

    #[test]
    fn absorb_into_a_paused_history_is_a_no_op() {
        let mut other = ReplicatedHistory::new();
        other.record(0, t(1), Key(0), Write);
        other.mark_committed(t(1));
        let mut paused = ReplicatedHistory::new();
        paused.set_recording(false);
        paused.absorb(other.clone());
        paused.merge(&other);
        assert!(paused.is_empty());
        assert!(paused.committed().is_empty());
    }

    #[test]
    fn consistent_cross_site_order_is_serializable() {
        let mut h = ReplicatedHistory::new();
        for site in 0..3 {
            h.record(site, t(1), Key(0), Write);
            h.record(site, t(2), Key(0), Write);
            h.record(site, t(3), Key(0), Write);
        }
        for ts in 1..=3 {
            h.mark_committed(t(ts));
        }
        assert_eq!(
            h.check_one_copy_serializable().expect("1SR"),
            vec![t(1), t(2), t(3)]
        );
    }

    /// Reachability between transactions: the transitive closure of
    /// `edges`.
    fn closure(edges: &[(TxnId, TxnId)]) -> BTreeSet<(TxnId, TxnId)> {
        let mut reach: BTreeSet<(TxnId, TxnId)> = edges.iter().copied().collect();
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

    /// The pre-covering checker: Kahn's algorithm with smallest-ready
    /// tie-breaking over explicit edges. `None` if cyclic.
    fn reference_order(h: &ReplicatedHistory, edges: &[(TxnId, TxnId)]) -> Option<Vec<TxnId>> {
        let mut pending: BTreeSet<TxnId> = h.committed().iter().copied().collect();
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

    /// Everything the covering graph must share with the all-pairs one.
    /// Returns whether the history is serializable.
    fn assert_equivalent_to_all_pairs(h: &ReplicatedHistory) -> bool {
        let covering = h.conflict_edges();
        let all_pairs = h.full_rescan_edges();
        assert!(covering.iter().all(|e| all_pairs.contains(e)));
        assert_eq!(closure(&covering), closure(&all_pairs));
        match h.check_one_copy_serializable() {
            Ok(order) => {
                assert_eq!(Some(order), reference_order(h, &all_pairs));
                true
            }
            Err(violation) => {
                assert_eq!(None, reference_order(h, &all_pairs));
                let cycle = &violation.cycle;
                assert!(cycle.len() >= 2);
                for (i, &a) in cycle.iter().enumerate() {
                    assert!(all_pairs.contains(&(a, cycle[(i + 1) % cycle.len()])));
                }
                false
            }
        }
    }

    #[test]
    fn covering_edges_are_equivalent_to_all_pairs_under_random_load() {
        // Random record/commit/purge traffic, checked after every
        // mutation; both verdicts must occur for the test to mean much.
        let mut h = ReplicatedHistory::new();
        let mut s = 77u64;
        let (mut acyclic, mut cyclic) = (0, 0);
        for _ in 0..600 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let txn = t(1 + (s >> 7) % 7);
            let site = ((s >> 17) % 3) as u32;
            let key = Key((s >> 27) % 4);
            let kind = if (s >> 37).is_multiple_of(2) {
                Read
            } else {
                Write
            };
            match (s >> 47) % 8 {
                0 => h.purge(txn),
                1 | 2 => h.mark_committed(txn),
                _ => h.record(site, txn, key, kind),
            }
            if assert_equivalent_to_all_pairs(&h) {
                acyclic += 1;
            } else {
                cyclic += 1;
            }
        }
        assert!(
            acyclic > 50 && cyclic > 50,
            "{acyclic} acyclic, {cyclic} cyclic"
        );
    }

    #[test]
    fn covering_edges_are_linear_in_the_history() {
        // One hot key, three sites, reads and writes by distinct
        // transactions: all-pairs would be ~n²/2 edges per site.
        let mut h = ReplicatedHistory::new();
        for i in 1..=600u64 {
            let kind = if i % 3 == 0 { Read } else { Write };
            for site in 0..3 {
                h.record(site, t(i), Key(0), kind);
            }
            h.mark_committed(t(i));
        }
        assert!(h.conflict_edges().len() <= 2 * h.len());
        let in_order: Vec<TxnId> = (1..=600).map(t).collect();
        assert_eq!(h.check_one_copy_serializable(), Ok(in_order));
    }

    #[test]
    fn record_after_commit_still_counts() {
        // Some protocols mark a txn committed and then (via merge or
        // late application) record more of its ops; those must join the
        // graph immediately.
        let mut h = ReplicatedHistory::new();
        h.record(0, t(1), Key(0), Write);
        h.mark_committed(t(1));
        h.mark_committed(t(2));
        h.record(0, t(2), Key(0), Write);
        assert_eq!(h.conflict_edges(), vec![(t(1), t(2))]);
        assert_eq!(h.conflict_edges(), h.full_rescan_edges());
    }

    #[test]
    fn paused_recording_keeps_the_history_constant_size() {
        // The open-loop lean path flips recording off; every append —
        // including the direct protocol call sites — must then be a
        // no-op, while already-recorded state survives.
        let mut h = ReplicatedHistory::new();
        assert!(h.is_recording());
        h.record(0, t(1), Key(0), Write);
        h.mark_committed(t(1));
        h.set_recording(false);
        assert!(!h.is_recording());
        for i in 2..100u64 {
            h.record(0, t(i), Key(i % 4), Write);
            h.mark_committed(t(i));
        }
        assert_eq!(h.len(), 1, "paused history must not grow");
        assert_eq!(h.committed().len(), 1);
        h.set_recording(true);
        h.record(0, t(2), Key(0), Write);
        h.mark_committed(t(2));
        assert_eq!(h.conflict_edges(), vec![(t(1), t(2))]);
    }

    #[test]
    fn merge_preserves_edge_structure() {
        let mut a = ReplicatedHistory::new();
        a.record(0, t(1), Key(0), Write);
        a.record(0, t(2), Key(0), Write);
        a.mark_committed(t(1));
        a.mark_committed(t(2));
        let mut b = ReplicatedHistory::new();
        b.record(1, t(2), Key(0), Write);
        b.record(1, t(3), Key(0), Write);
        b.mark_committed(t(3));
        a.merge(&b);
        // b's site-1 order contributes t2→t3 (t3 committed via merge).
        assert!(a.conflict_edges().contains(&(t(1), t(2))));
        assert!(a.conflict_edges().contains(&(t(2), t(3))));
        assert_eq!(a.conflict_edges(), a.full_rescan_edges());
        assert_eq!(a.len(), 4);
    }
}
