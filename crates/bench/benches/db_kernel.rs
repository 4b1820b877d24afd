//! Database-kernel hot paths: the lock acquire→commit microcycle on the
//! dense, sparse and seed-baseline backings across keyspace sizes, plus
//! certification, deadlock detection and the incremental 1SR history
//! check. The P10 table (`perfstudy --p10-only`) reports the end-to-end
//! view; this bench isolates the kernel cycles themselves.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use repl_bench::sweep::default_threads;
use repl_bench::{kernel, microcycle_keys, SeedLockManager};
use repl_db::{
    AccessKind, Certifier, DeadlockPolicy, Key, Keyspace, LockManager, LockMode, ReplicatedHistory,
    TxnId, Value, WriteRecord, WriteSet,
};

const KEYSPACES: [u64; 3] = [64, 1024, 65536];

fn t(ts: u64) -> TxnId {
    TxnId::new(ts, 0)
}

fn bench_lock_microcycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("db_kernel");
    g.sample_size(20);
    for &items in &KEYSPACES {
        for (label, dense) in [("dense", true), ("sparse", false)] {
            let ks = if dense {
                Keyspace::dense(items)
            } else {
                Keyspace::sparse(items)
            };
            g.bench_function(format!("lock_microcycle/{label}/k={items}"), |b| {
                let mut lm = LockManager::with_keyspace(DeadlockPolicy::WoundWait, ks);
                let mut round = 0u64;
                b.iter(|| {
                    round += 1;
                    let txn = t(round);
                    for key in microcycle_keys(items, round) {
                        black_box(lm.acquire(txn, key, LockMode::Exclusive));
                    }
                    lm.release_all(txn).len()
                });
            });
        }
        g.bench_function(format!("lock_microcycle/seed_baseline/k={items}"), |b| {
            let mut lm = SeedLockManager::default();
            let mut round = 0u64;
            b.iter(|| {
                round += 1;
                let txn = t(round);
                for key in microcycle_keys(items, round) {
                    black_box(lm.acquire(txn, key, LockMode::Exclusive));
                }
                lm.release_all(txn);
            });
        });
    }
    g.finish();
}

fn bench_certification(c: &mut Criterion) {
    let mut g = c.benchmark_group("db_kernel");
    g.sample_size(20);
    for &items in &KEYSPACES {
        for (label, dense) in [("dense", true), ("sparse", false)] {
            let ks = if dense {
                Keyspace::dense(items)
            } else {
                Keyspace::sparse(items)
            };
            g.bench_function(format!("certify/{label}/k={items}"), |b| {
                let mut cert = Certifier::with_keyspace(ks);
                let mut round = 0u64;
                b.iter(|| {
                    round += 1;
                    let keys = microcycle_keys(items, round);
                    let reads: Vec<(Key, u64)> =
                        keys.iter().map(|&k| (k, cert.version_of(k))).collect();
                    let ws = WriteSet {
                        txn: t(round),
                        writes: keys
                            .iter()
                            .map(|&k| WriteRecord {
                                key: k,
                                value: Value(round as i64),
                                version: 0,
                            })
                            .collect(),
                    };
                    black_box(cert.certify(&reads, &ws).is_commit())
                });
            });
        }
    }
    g.finish();
}

fn bench_deadlock_check(c: &mut Criterion) {
    let mut g = c.benchmark_group("db_kernel");
    g.sample_size(20);
    // A contended Detect-policy table: 16 holders, each with a queued
    // conflicting waiter (no cycle), plus graph queries every iteration.
    g.bench_function("find_deadlock/contended_no_cycle", |b| {
        let mut lm = LockManager::with_keyspace(DeadlockPolicy::Detect, Keyspace::dense(64));
        for i in 0..16u64 {
            lm.acquire(t(i + 1), Key(i), LockMode::Exclusive);
            lm.acquire(t(i + 17), Key(i), LockMode::Exclusive);
        }
        b.iter(|| black_box(lm.find_deadlock().is_none()));
    });
    // The idle fast path: no waiters anywhere, the check must be free.
    g.bench_function("find_deadlock/idle", |b| {
        let mut lm = LockManager::with_keyspace(DeadlockPolicy::Detect, Keyspace::dense(64));
        for i in 0..16u64 {
            lm.acquire(t(i + 1), Key(i), LockMode::Exclusive);
        }
        b.iter(|| black_box(lm.find_deadlock().is_none()));
    });
    g.finish();
}

fn bench_history_check(c: &mut Criterion) {
    let mut g = c.benchmark_group("db_kernel");
    g.sample_size(20);
    // 1000 committed single-site transactions over 64 keys; each check
    // builds the covering-edge graph in one pass over the 2000-op log
    // (at most two edges per op) and sorts it topologically.
    g.bench_function("history_1sr_check/1k_txns", |b| {
        let mut h = ReplicatedHistory::new();
        for i in 0..1000u64 {
            let txn = t(i + 1);
            h.record(0, txn, Key(i % 64), AccessKind::Write);
            h.record(0, txn, Key((i + 17) % 64), AccessKind::Read);
            h.mark_committed(txn);
        }
        b.iter(|| black_box(h.check_one_copy_serializable().is_ok()));
    });
    // Three sites record the same transactions on one hot key and the
    // runner merges them: per-record cost must not depend on the run
    // length, so the long run should take 8x the short one, not 64x.
    for txns in [300u64, 2400] {
        g.bench_function(format!("history_record_merge/hot_{txns}_txns"), |b| {
            b.iter(|| {
                let mut merged = ReplicatedHistory::new();
                for site in 0..3 {
                    let mut at_site = ReplicatedHistory::new();
                    for i in 0..txns {
                        at_site.record(site, t(i + 1), Key(0), AccessKind::Write);
                        at_site.mark_committed(t(i + 1));
                    }
                    merged.merge(&at_site);
                }
                black_box(merged.len())
            })
        });
    }
    g.finish();
}

fn report_p10(c: &mut Criterion) {
    let _ = c;
    println!("{}", kernel(&[64, 1024], &[4]).render(default_threads()));
}

criterion_group!(
    benches,
    report_p10,
    bench_lock_microcycle,
    bench_certification,
    bench_deadlock_check,
    bench_history_check
);
criterion_main!(benches);
