//! P10 — kernel scaling: how the database kernel behaves as the keyspace
//! grows, and how much the dense allocation-free hot path buys.
//!
//! Two instruments share this module:
//!
//! * [`kernel`] — end-to-end simulator runs of the lock- and
//!   certification-based techniques across keyspace sizes and client
//!   counts. The printed numbers are deterministic (simulator ticks); the
//!   dense and sparse backings must produce *identical* reports, which
//!   `dense_and_sparse_kernel_runs_are_identical` checks by digest.
//! * [`microcycle_keys`] / [`SeedLockManager`] — the uncontended lock
//!   acquire→commit→release cycle the `db_kernel` criterion bench times.
//!   The seed baseline is a faithful copy of the pre-dense lock manager
//!   (SipHash `HashMap` table, whole-table scan in `release_all`), kept so
//!   the speedup claim is measured against what the code actually did,
//!   not a strawman.

use repl_core::Technique;
use repl_db::{Key, LockMode, TxnId};
use repl_workload::WorkloadSpec;

use crate::study::{col, Study, StudyRow};

/// The techniques whose servers exercise the db kernel's lock table or
/// certifier on every transaction — the ones keyspace scaling can move.
pub fn kernel_techniques() -> [Technique; 4] {
    [
        Technique::EagerPrimary,
        Technique::EagerUpdateEverywhereLocking,
        Technique::EagerUpdateEverywhereAbcast,
        Technique::Certification,
    ]
}

/// P10 — kernel scaling: throughput, latency, message cost and server
/// aborts per kernel-bound technique × keyspace × clients. The workload
/// is update-heavy (80% writes) so lock and certification traffic
/// dominates, and uniform so the keyspace axis scales the *table*, not
/// the conflict rate. All printed values are simulator-deterministic; the
/// wall-clock payoff of the dense backing is measured separately by the
/// `db_kernel` bench.
pub fn kernel(keyspaces: &[u64], clients: &[u32]) -> Study {
    let mut rows = Vec::new();
    for technique in kernel_techniques() {
        for &keyspace in keyspaces {
            for &c in clients {
                rows.push(StudyRow::new(
                    format!("{} / k={keyspace} / c={c}", technique.name()),
                    [crate::lean(technique, 3, c).with_seed(211).with_workload(
                        WorkloadSpec::default()
                            .with_items(keyspace)
                            .with_read_ratio(0.2)
                            .with_txns_per_client(20),
                    )],
                ));
            }
        }
    }
    let columns = vec![
        col("thru", |r| format!("{:.0}/s", r[0].throughput())),
        col("p50", |r| crate::percentile(&r[0], 0.5)),
        col("p99", |r| crate::percentile(&r[0], 0.99)),
        col("msgs/txn", |r| crate::msgs_per_op(&r[0])),
        col("aborts", |r| r[0].server_aborts.to_string()),
    ];
    Study::new(
        "P10",
        "kernel scaling (3 replicas, technique × keyspace × clients)",
        rows,
        columns,
    )
}

/// Locks each microcycle transaction takes before "committing".
pub const MICROCYCLE_OPS: u64 = 4;

/// The keys transaction number `round` locks: strided across the table so
/// repeated rounds sweep the whole keyspace instead of hammering one
/// cache line.
pub fn microcycle_keys(items: u64, round: u64) -> [Key; MICROCYCLE_OPS as usize] {
    let stride = (items / MICROCYCLE_OPS).max(1);
    let base = round.wrapping_mul(2654435761) % items;
    [
        Key(base),
        Key((base + stride) % items),
        Key((base + 2 * stride) % items),
        Key((base + 3 * stride) % items),
    ]
}

#[derive(Default)]
struct SeedLockState {
    holders: Vec<(TxnId, LockMode)>,
    waiters: std::collections::VecDeque<(TxnId, LockMode)>,
}

/// The grant/release/promote hot path of the lock manager as it stood
/// before the dense-keyspace rework: a SipHash `HashMap` table that
/// grows one entry per touched key, a `HashSet` per transaction, and a
/// `release_all` that scans the *entire table* for pending waits.
/// Deadlock handling is omitted — the microcycle it baselines is
/// uncontended.
#[derive(Default)]
pub struct SeedLockManager {
    table: std::collections::HashMap<Key, SeedLockState>,
    held: std::collections::HashMap<TxnId, std::collections::HashSet<Key>>,
}

impl SeedLockManager {
    /// Grants `mode` on `key` if compatible; queues the request otherwise.
    pub fn acquire(&mut self, txn: TxnId, key: Key, mode: LockMode) -> bool {
        let state = self.table.entry(key).or_default();
        if state.holders.iter().any(|&(t, _)| t == txn) {
            return true;
        }
        if state.holders.iter().all(|&(_, m)| m.compatible(mode)) && state.waiters.is_empty() {
            state.holders.push((txn, mode));
            self.held.entry(txn).or_default().insert(key);
            return true;
        }
        state.waiters.push_back((txn, mode));
        false
    }

    /// Releases everything `txn` holds or waits for — including the
    /// seed's whole-table scan for pending waits.
    pub fn release_all(&mut self, txn: TxnId) {
        let mut touched: Vec<Key> = self
            .held
            .remove(&txn)
            .map(|s| s.into_iter().collect())
            .unwrap_or_default();
        let waiting: Vec<Key> = self
            .table
            .iter()
            .filter(|(_, s)| s.waiters.iter().any(|(t, _)| *t == txn))
            .map(|(k, _)| *k)
            .collect();
        touched.extend(waiting);
        touched.sort_unstable();
        touched.dedup();
        for key in touched {
            if let Some(state) = self.table.get_mut(&key) {
                state.holders.retain(|(t, _)| *t != txn);
                state.waiters.retain(|(t, _)| *t != txn);
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
                    self.held.entry(w).or_default().insert(key);
                    if mode == LockMode::Exclusive {
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_db::{DeadlockPolicy, Keyspace, LockManager};

    #[test]
    fn kernel_table_covers_the_matrix() {
        let rows = kernel(&[64], &[2]).table(2);
        assert_eq!(rows.len(), kernel_techniques().len());
        for r in &rows {
            assert!(r.label.contains("k=64"), "{}", r.label);
        }
    }

    #[test]
    fn microcycle_keys_are_distinct_and_in_range() {
        for items in [64u64, 1024] {
            for round in 0..32 {
                let keys = microcycle_keys(items, round);
                for k in keys {
                    assert!(k.0 < items);
                }
                let mut sorted = keys.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), keys.len(), "duplicate keys at {round}");
            }
        }
    }

    #[test]
    fn seed_manager_grants_and_releases_like_the_kernel() {
        let mut seed = SeedLockManager::default();
        let mut lm = LockManager::with_keyspace(DeadlockPolicy::WoundWait, Keyspace::dense(8));
        let (t1, t2) = (TxnId::new(1, 0), TxnId::new(2, 0));
        assert!(seed.acquire(t1, Key(0), LockMode::Exclusive));
        assert_eq!(
            lm.acquire(t1, Key(0), LockMode::Exclusive),
            repl_db::Acquire::Granted
        );
        assert!(!seed.acquire(t2, Key(0), LockMode::Exclusive));
        seed.release_all(t1);
        assert!(seed.acquire(t2, Key(0), LockMode::Exclusive));
    }
}
