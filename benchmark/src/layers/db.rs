//! `repl-db` drivers: history recording and the 1SR check, the lock
//! table, the certifier, the store, the redo log, the payload arena,
//! 2PC and state transfer. These should move `run_s`, `judged_s` and
//! `peak_rss_mb` — the history ones on `hot_closed` above all.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use super::{ns_per_op, LayerValue, Shape};
use crate::alloc;
use crate::api::{
    AccessKind, Acquire, Certifier, DeadlockPolicy, Key, LockManager, LockMode, PayloadArena,
    RedoLog, ReplicatedHistory, Store, TpcCoordinator, TpcDecision, TpcMsg, TpcParticipant,
    Transfer, TxnId, Value, WorkloadGen, WorkloadSpec, WriteRecord, WriteSet,
};
use crate::workloads::HOT_TXNS;

/// Time slices this layer uses.
pub const DRIVERS: u32 = 12;

/// The key lists of `count` generated transactions.
fn txn_keys(spec: &WorkloadSpec, seed: u64, count: usize) -> Vec<Vec<Key>> {
    // Key routing by shard is the client's business, not the kernel's.
    let spec = spec.clone().with_shards(1).with_cross_shard_ratio(0.0);
    WorkloadGen::new(&spec, seed)
        .take_txns(count)
        .iter()
        .map(|t| t.ops.iter().map(|o| o.key()).collect())
        .collect()
}

fn writeset(round: u64, keys: &[Key]) -> WriteSet {
    WriteSet {
        txn: TxnId::new(round + 1, 0),
        writes: keys
            .iter()
            .map(|&key| WriteRecord {
                key,
                value: Value(round as i64),
                version: round,
            })
            .collect(),
    }
}

struct HistoryCost {
    ns_per_record: f64,
    bytes_per_txn: f64,
    check_ns_per_txn: f64,
}

/// What a run pays for its execution history: every replica records
/// every committed update in its own history, the runner merges the
/// per-site histories (which folds each op into the conflict graph),
/// and the oracle reads the graph.
fn history(
    spec: &WorkloadSpec,
    sites: u32,
    txns: usize,
    seed: u64,
    budget: Duration,
) -> HistoryCost {
    let keys = txn_keys(spec, seed, txns);
    let records: u64 = keys.iter().map(|k| k.len() as u64).sum::<u64>() * u64::from(sites);
    let mut bytes_per_txn = 0.0;
    let mut check_ns_per_txn = f64::INFINITY;
    let ns_per_record = ns_per_op(budget, || {
        let live_before = alloc::live_bytes();
        let start = Instant::now();
        let mut per_site: Vec<ReplicatedHistory> =
            (0..sites).map(|_| ReplicatedHistory::new()).collect();
        for (round, keys) in keys.iter().enumerate() {
            let txn = TxnId::new(round as u64 + 1, 0);
            for (site, h) in per_site.iter_mut().enumerate() {
                for &key in keys {
                    h.record(site as u32, txn, key, AccessKind::Write);
                }
                h.mark_committed(txn);
            }
        }
        let mut merged = ReplicatedHistory::new();
        for h in &per_site {
            merged.merge(h);
        }
        let took = start.elapsed();
        bytes_per_txn = (alloc::live_bytes() - live_before) as f64 / txns as f64;
        let start = Instant::now();
        let ok = merged.check_one_copy_serializable().is_ok();
        check_ns_per_txn = check_ns_per_txn.min(start.elapsed().as_nanos() as f64 / txns as f64);
        assert!(ok, "same-order histories must be serializable");
        (records, took)
    });
    HistoryCost {
        ns_per_record,
        bytes_per_txn,
        check_ns_per_txn,
    }
}

/// Acquire → commit → release with nobody else in the table.
fn locks_uncontended(spec: &WorkloadSpec, seed: u64, budget: Duration) -> f64 {
    let keys = txn_keys(spec, seed, 20_000);
    let ops: u64 = keys.iter().map(|k| k.len() as u64).sum();
    let mut lm = LockManager::with_keyspace(DeadlockPolicy::WoundWait, spec.keyspace());
    let mut round = 0u64;
    ns_per_op(budget, || {
        let start = Instant::now();
        for keys in &keys {
            round += 1;
            let txn = TxnId::new(round, 0);
            for &key in keys {
                std::hint::black_box(lm.acquire(txn, key, LockMode::Exclusive));
            }
            std::hint::black_box(lm.release_all(txn).len());
        }
        (ops, start.elapsed())
    })
}

/// Sixteen transactions interleave their exclusive acquires over the
/// hot keys under wound-wait, as the sixteen `hot_closed` clients do at
/// an eager primary: a transaction that must wait sits out until a
/// release grants it the key; a wounded one releases everything and
/// restarts, younger, on the same keys. Returns `(ns per acquire,
/// immediate grants ÷ acquires)`; the ratio is exact for a seed.
fn locks_contended(seed: u64, budget: Duration) -> (f64, f64) {
    const SLOTS: usize = 16;
    struct Slot {
        txn: TxnId,
        script: usize,
        step: usize,
        blocked: bool,
    }
    fn grant(slots: &mut [Slot], granted: Vec<(TxnId, Key, LockMode)>) {
        for (txn, _, _) in granted {
            let waiter = slots
                .iter_mut()
                .find(|w| w.txn == txn)
                .expect("only active transactions wait");
            waiter.blocked = false;
            waiter.step += 1;
        }
    }
    let spec = hot_spec();
    let scripts = txn_keys(&spec, seed, 4_000);
    let mut grant_ratio = 0.0;
    let ns = ns_per_op(budget, || {
        let mut lm = LockManager::with_keyspace(DeadlockPolicy::WoundWait, spec.keyspace());
        let mut next_ts = SLOTS as u64;
        let mut next_script = SLOTS;
        let mut slots: Vec<Slot> = (0..SLOTS)
            .map(|i| Slot {
                txn: TxnId::new(i as u64 + 1, 0),
                script: i,
                step: 0,
                blocked: false,
            })
            .collect();
        let (mut acquires, mut immediate) = (0u64, 0u64);
        let start = Instant::now();
        while slots.iter().any(|s| s.script < scripts.len()) {
            for s in 0..SLOTS {
                if slots[s].blocked || slots[s].script >= scripts.len() {
                    continue;
                }
                let keys = &scripts[slots[s].script];
                if slots[s].step == keys.len() {
                    // Commit: release, and start the next script.
                    let granted = lm.release_all(slots[s].txn);
                    next_ts += 1;
                    slots[s] = Slot {
                        txn: TxnId::new(next_ts, 0),
                        script: next_script,
                        step: 0,
                        blocked: false,
                    };
                    next_script += 1;
                    grant(&mut slots, granted);
                    continue;
                }
                acquires += 1;
                match lm.acquire(slots[s].txn, keys[slots[s].step], LockMode::Exclusive) {
                    Acquire::Granted => {
                        immediate += 1;
                        slots[s].step += 1;
                    }
                    Acquire::Waiting { wounded } => {
                        slots[s].blocked = true;
                        for victim in wounded {
                            let granted = lm.release_all(victim);
                            next_ts += 1;
                            let v = slots
                                .iter_mut()
                                .find(|v| v.txn == victim)
                                .expect("only active transactions hold locks");
                            v.txn = TxnId::new(next_ts, 0);
                            v.step = 0;
                            v.blocked = false;
                            grant(&mut slots, granted);
                        }
                    }
                }
            }
        }
        let took = start.elapsed();
        grant_ratio = immediate as f64 / acquires as f64;
        (acquires, took)
    });
    (ns, grant_ratio)
}

fn hot_spec() -> WorkloadSpec {
    WorkloadSpec::default()
        .with_items(256)
        .with_skew(0.8)
        .with_read_ratio(0.0)
        .with_ops_per_txn(4)
}

/// Certification with eight transactions in flight: each reads the
/// versions current when it executes and is certified eight
/// certifications later. Returns `(ns per transaction, aborts ÷
/// certified)`; the ratio is exact for a seed.
fn certify(spec: &WorkloadSpec, seed: u64, budget: Duration) -> (f64, f64) {
    const IN_FLIGHT: usize = 8;
    let keys = txn_keys(spec, seed, 20_000);
    let mut abort_ratio = 0.0;
    let ns = ns_per_op(budget, || {
        let mut cert = Certifier::with_keyspace(spec.keyspace());
        let mut flight: VecDeque<(Vec<(Key, u64)>, WriteSet)> = VecDeque::new();
        let mut aborts = 0u64;
        let start = Instant::now();
        for (round, keys) in keys.iter().enumerate() {
            let reads = keys.iter().map(|&k| (k, cert.version_of(k))).collect();
            flight.push_back((reads, writeset(round as u64, keys)));
            if flight.len() > IN_FLIGHT {
                let (reads, ws) = flight.pop_front().expect("non-empty");
                aborts += u64::from(!cert.certify(&reads, &ws).is_commit());
            }
        }
        let took = start.elapsed();
        let certified = (keys.len() - IN_FLIGHT) as u64;
        abort_ratio = aborts as f64 / certified as f64;
        (certified, took)
    });
    (ns, abort_ratio)
}

fn store_write(spec: &WorkloadSpec, seed: u64, budget: Duration) -> f64 {
    let keys: Vec<Key> = txn_keys(spec, seed, 50_000).into_iter().flatten().collect();
    let mut store = Store::with_keyspace(spec.keyspace(), Value(0));
    let mut round = 0u64;
    ns_per_op(budget, || {
        let start = Instant::now();
        for &key in &keys {
            round += 1;
            std::hint::black_box(store.write(key, Value(round as i64), TxnId::new(round, 0)));
        }
        (keys.len() as u64, start.elapsed())
    })
}

fn store_read(spec: &WorkloadSpec, seed: u64, budget: Duration) -> f64 {
    let keys: Vec<Key> = txn_keys(spec, seed, 50_000).into_iter().flatten().collect();
    let store = Store::with_keyspace(spec.keyspace(), Value(0));
    ns_per_op(budget, || {
        let start = Instant::now();
        for &key in &keys {
            std::hint::black_box(store.read(key));
        }
        (keys.len() as u64, start.elapsed())
    })
}

/// Appends (`group == 1`, one force each) or group-commits (`group`
/// staged records per force) a batch of writesets; ns per transaction.
fn log(spec: &WorkloadSpec, group: usize, seed: u64, budget: Duration) -> f64 {
    let keys = txn_keys(spec, seed, 20_000);
    ns_per_op(budget, || {
        let sets: Vec<WriteSet> = keys
            .iter()
            .enumerate()
            .map(|(round, keys)| writeset(round as u64, keys))
            .collect();
        let count = sets.len() as u64;
        let mut log = RedoLog::new();
        let start = Instant::now();
        for (i, ws) in sets.into_iter().enumerate() {
            if group == 1 {
                std::hint::black_box(log.append(ws));
            } else {
                log.stage(ws);
                if (i + 1) % group == 0 {
                    std::hint::black_box(log.flush_group());
                }
            }
        }
        std::hint::black_box(log.flush_group());
        (count, start.elapsed())
    })
}

/// One writeset through the payload plane: interned once, released by
/// every replica.
fn arena(spec: &WorkloadSpec, sites: u32, seed: u64, budget: Duration) -> f64 {
    let sets: Vec<WriteSet> = txn_keys(spec, seed, 20_000)
        .iter()
        .enumerate()
        .map(|(round, keys)| writeset(round as u64, keys))
        .collect();
    ns_per_op(budget, || {
        let mut arena = PayloadArena::new();
        let start = Instant::now();
        for ws in &sets {
            let handle = arena.intern(ws, sites);
            for site in 0..sites {
                arena.release(handle, site);
            }
        }
        std::hint::black_box(arena.stats());
        (sets.len() as u64, start.elapsed())
    })
}

/// A cross-shard commit over the union cohort of two groups.
fn twopc(replicas: u32, budget: Duration) -> f64 {
    let cohort: Vec<u32> = (0..2 * replicas).collect();
    ns_per_op(budget, || {
        const COMMITS: u64 = 20_000;
        let start = Instant::now();
        for _ in 0..COMMITS {
            let mut coord = TpcCoordinator::new(cohort.clone());
            let mut parts: Vec<TpcParticipant> =
                cohort.iter().map(|_| TpcParticipant::new()).collect();
            let mut decision = None;
            for p in coord.start() {
                let vote = parts[p as usize].on_prepare(true);
                decision = coord.on_vote(p, matches!(vote, TpcMsg::VoteYes));
            }
            let decision = decision.expect("all-yes votes decide");
            debug_assert_eq!(decision, TpcDecision::Commit);
            for p in parts.iter_mut() {
                p.on_decision(decision);
            }
            std::hint::black_box(&parts);
        }
        (COMMITS, start.elapsed())
    })
}

/// A snapshot state transfer: built at the donor, sized for the wire,
/// installed into an empty store; ns per key shipped.
fn recovery(spec: &WorkloadSpec, seed: u64, budget: Duration) -> f64 {
    let mut donor = Store::with_keyspace(spec.keyspace(), Value(0));
    for (round, keys) in txn_keys(spec, seed, 2_000).iter().enumerate() {
        donor.apply_writeset(&writeset(round as u64, keys));
    }
    ns_per_op(budget, || {
        const TRANSFERS: u64 = 50;
        let mut shipped = 0u64;
        let start = Instant::now();
        for high in 0..TRANSFERS {
            let transfer = Transfer::snapshot(&donor, high);
            std::hint::black_box(transfer.wire_size());
            let mut joiner = Store::with_keyspace(spec.keyspace(), Value(0));
            std::hint::black_box(transfer.apply(&mut joiner));
            shipped += transfer.snapshot.len() as u64;
        }
        (shipped, start.elapsed())
    })
}

/// Runs the layer's drivers.
pub fn run(shape: &Shape, slice: Duration) -> Vec<LayerValue> {
    let v = |name, value| LayerValue { name, value };
    let spec = &shape.spec;
    // The hot shape is fixed (it is what `hot_closed` runs per cell);
    // the uniform one follows the workload's own cells: their length in
    // transactions (the cost per record grows with it), their keyspace
    // and their transaction length.
    let hot_txns = shape.sized(16 * u64::from(HOT_TXNS)) as usize;
    let hot = history(&hot_spec(), 3, hot_txns, shape.seed, slice);
    let uniform_spec = spec.clone().with_skew(0.0).with_read_ratio(0.0);
    let uniform_txns = shape.sized(shape.cell_txns) as usize;
    let uniform = history(
        &uniform_spec,
        shape.replicas,
        uniform_txns,
        shape.seed,
        slice,
    );
    let (contended_ns, grant_ratio) = locks_contended(shape.seed, slice);
    let (certify_ns, abort_ratio) = certify(spec, shape.seed, slice);
    vec![
        v("db.history.hot_ns_per_record", hot.ns_per_record),
        v("db.history.hot_bytes_per_txn", hot.bytes_per_txn),
        v("db.history.uniform_ns_per_record", uniform.ns_per_record),
        v("db.history.check_ns_per_txn", hot.check_ns_per_txn),
        v(
            "db.locks.uncontended_ns_per_op",
            locks_uncontended(spec, shape.seed, slice),
        ),
        v("db.locks.contended_ns_per_op", contended_ns),
        v("db.locks.grant_ratio", grant_ratio),
        v("db.certify.ns_per_txn", certify_ns),
        v("db.certify.abort_ratio", abort_ratio),
        v(
            "db.store.ns_per_write",
            store_write(spec, shape.seed, slice),
        ),
        v("db.store.ns_per_read", store_read(spec, shape.seed, slice)),
        v("db.log.ns_per_append", log(spec, 1, shape.seed, slice)),
        v("db.log.group_ns_per_txn", log(spec, 16, shape.seed, slice)),
        v(
            "db.arena.ns_per_intern_release",
            arena(spec, shape.replicas, shape.seed, slice),
        ),
        v("db.twopc.ns_per_commit", twopc(shape.replicas, slice)),
        v(
            "db.recovery.transfer_ns_per_key",
            recovery(spec, shape.seed, slice),
        ),
    ]
}
