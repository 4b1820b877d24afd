//! The seeded transaction generator.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use repl_db::{Key, Value};

use crate::shard::ShardMap;
use crate::spec::WorkloadSpec;
use crate::zipf::Zipf;

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpTemplate {
    /// Read a logical item.
    Read(Key),
    /// Write a (globally unique) value to a logical item.
    Write(Key, Value),
}

impl OpTemplate {
    /// The accessed key.
    pub fn key(&self) -> Key {
        match self {
            OpTemplate::Read(k) | OpTemplate::Write(k, _) => *k,
        }
    }

    /// True for writes.
    pub fn is_write(&self) -> bool {
        matches!(self, OpTemplate::Write(..))
    }
}

/// One generated transaction: an ordered list of operations.
///
/// Keys within a transaction are distinct and the write values are unique
/// across the whole generator, which the consistency oracles rely on to
/// identify which write a read observed.
///
/// The body is immutable and shared: a clone — into a client's record, a
/// retry, every leg of an ordering fan-out, a retained order log — bumps a
/// reference count instead of copying the operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnTemplate {
    /// The operations, in program order.
    pub ops: Arc<[OpTemplate]>,
}

impl TxnTemplate {
    /// True if the transaction only reads.
    pub fn is_read_only(&self) -> bool {
        self.ops.iter().all(|o| !o.is_write())
    }

    /// The distinct keys accessed.
    pub fn keys(&self) -> Vec<Key> {
        let mut v: Vec<Key> = self.ops.iter().map(|o| o.key()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Seeded workload generator.
///
/// # Examples
///
/// ```
/// use repl_workload::{WorkloadGen, WorkloadSpec};
///
/// let spec = WorkloadSpec::default().with_ops_per_txn(2);
/// let mut gen = WorkloadGen::new(&spec, 42);
/// let txn = gen.next_txn();
/// assert_eq!(txn.ops.len(), 2);
/// ```
#[derive(Debug)]
pub struct WorkloadGen {
    spec: WorkloadSpec,
    zipf: Zipf,
    rng: SmallRng,
    next_value: i64,
    /// The keys of the transaction being generated (scratch).
    keys: Vec<Key>,
    /// Sharded sampling state, present exactly when `spec.shards > 1`:
    /// the routing table and one Zipf sampler per shard sub-range. The
    /// unsharded path never consults either, so `shards == 1` keeps the
    /// pre-sharding draw sequence bit-for-bit.
    sharding: Option<(ShardMap, Vec<Zipf>)>,
}

impl WorkloadGen {
    /// Creates a generator for `spec` with the given seed.
    pub fn new(spec: &WorkloadSpec, seed: u64) -> Self {
        let sharding = (spec.shards > 1).then(|| {
            let map = spec.shard_map();
            let zipfs = (0..spec.shards)
                .map(|s| Zipf::new(map.size(s), spec.skew))
                .collect();
            (map, zipfs)
        });
        WorkloadGen {
            spec: spec.clone(),
            zipf: Zipf::new(spec.items, spec.skew),
            rng: SmallRng::seed_from_u64(seed),
            next_value: 1,
            keys: Vec::new(),
            sharding,
        }
    }

    /// Generates the next transaction.
    pub fn next_txn(&mut self) -> TxnTemplate {
        if self.sharding.is_some() {
            return self.next_txn_sharded();
        }
        let n = self.spec.ops_per_txn as usize;
        let mut keys = std::mem::take(&mut self.keys);
        keys.clear();
        // Distinct keys per transaction (retry sampling; the domain is
        // always at least as large as the transaction in practice).
        let mut guard = 0;
        while keys.len() < n && guard < 10_000 {
            let k = Key(self.zipf.sample(&mut self.rng));
            if !keys.contains(&k) {
                keys.push(k);
            }
            guard += 1;
        }
        while keys.len() < n {
            // Degenerate domains: fill sequentially.
            let k = Key(keys.len() as u64 % self.spec.items);
            keys.push(k);
        }
        self.finish(keys)
    }

    /// The sharded transaction shape: a uniformly drawn home shard, a
    /// `cross_shard_ratio` coin for touching one other (uniform) shard,
    /// keys Zipf-sampled *within* each shard's sub-range. Cross-shard
    /// transactions alternate home/other by operation position, so any
    /// transaction with at least two operations genuinely spans both
    /// shards. Read/write choice and value numbering are identical to
    /// the unsharded path.
    fn next_txn_sharded(&mut self) -> TxnTemplate {
        let (map, _) = self.sharding.as_ref().expect("sharded path");
        let map = *map;
        let shards = self.spec.shards;
        let home = self.rng.gen_range(0..shards);
        let cross = self.rng.gen::<f64>() < self.spec.cross_shard_ratio;
        let other = cross.then(|| (home + 1 + self.rng.gen_range(0..shards - 1)) % shards);
        let n = self.spec.ops_per_txn as usize;
        let shard_at = |pos: usize| match other {
            Some(o) if pos % 2 == 1 => o,
            _ => home,
        };
        let mut keys = std::mem::take(&mut self.keys);
        keys.clear();
        let mut guard = 0;
        while keys.len() < n && guard < 10_000 {
            let target = shard_at(keys.len());
            let (lo, _) = map.range(target);
            let local = self.sharding.as_ref().expect("sharded path").1[target as usize]
                .sample(&mut self.rng);
            let k = Key(lo + local);
            if !keys.contains(&k) {
                keys.push(k);
            }
            guard += 1;
        }
        while keys.len() < n {
            // Degenerate domains: fill sequentially from the target shard.
            let target = shard_at(keys.len());
            let (lo, hi) = map.range(target);
            let k = Key(lo + keys.len() as u64 % (hi - lo));
            keys.push(k);
        }
        self.finish(keys)
    }

    /// Draws read-or-write (and the write's value) for each key, in order.
    fn finish(&mut self, keys: Vec<Key>) -> TxnTemplate {
        let ops = keys
            .iter()
            .map(|&k| {
                if self.rng.gen::<f64>() < self.spec.read_ratio {
                    OpTemplate::Read(k)
                } else {
                    let v = Value(self.next_value);
                    self.next_value += 1;
                    OpTemplate::Write(k, v)
                }
            })
            .collect();
        self.keys = keys;
        TxnTemplate { ops }
    }

    /// Generates a batch of transactions.
    pub fn take_txns(&mut self, count: usize) -> Vec<TxnTemplate> {
        (0..count).map(|_| self.next_txn()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed_same_stream() {
        let spec = WorkloadSpec::default().with_ops_per_txn(3).with_skew(0.9);
        let a: Vec<TxnTemplate> = WorkloadGen::new(&spec, 5).take_txns(20);
        let b: Vec<TxnTemplate> = WorkloadGen::new(&spec, 5).take_txns(20);
        assert_eq!(a, b);
        let c: Vec<TxnTemplate> = WorkloadGen::new(&spec, 6).take_txns(20);
        assert_ne!(a, c);
    }

    #[test]
    fn keys_within_txn_are_distinct() {
        let spec = WorkloadSpec::default().with_items(10).with_ops_per_txn(5);
        let mut gen = WorkloadGen::new(&spec, 1);
        for _ in 0..50 {
            let txn = gen.next_txn();
            let keys = txn.keys();
            assert_eq!(keys.len(), 5, "duplicate keys in {txn:?}");
        }
    }

    #[test]
    fn write_values_are_globally_unique() {
        let spec = WorkloadSpec::default()
            .with_read_ratio(0.0)
            .with_ops_per_txn(2);
        let mut gen = WorkloadGen::new(&spec, 2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            for op in gen.next_txn().ops.iter() {
                if let OpTemplate::Write(_, v) = *op {
                    assert!(seen.insert(v), "duplicate write value {v:?}");
                }
            }
        }
    }

    #[test]
    fn read_ratio_extremes() {
        let spec = WorkloadSpec::default().with_read_ratio(1.0);
        let mut gen = WorkloadGen::new(&spec, 3);
        assert!(gen.take_txns(50).iter().all(|t| t.is_read_only()));
        let spec = WorkloadSpec::default().with_read_ratio(0.0);
        let mut gen = WorkloadGen::new(&spec, 3);
        assert!(gen
            .take_txns(50)
            .iter()
            .all(|t| t.ops.iter().all(|o| o.is_write())));
    }

    #[test]
    fn sharded_generation_is_deterministic() {
        let spec = WorkloadSpec::default()
            .with_items(256)
            .with_ops_per_txn(3)
            .with_shards(4)
            .with_cross_shard_ratio(0.2);
        let a = WorkloadGen::new(&spec, 9).take_txns(40);
        let b = WorkloadGen::new(&spec, 9).take_txns(40);
        assert_eq!(a, b);
    }

    #[test]
    fn single_shard_txns_stay_inside_one_shard() {
        let spec = WorkloadSpec::default()
            .with_items(256)
            .with_ops_per_txn(4)
            .with_shards(8)
            .with_cross_shard_ratio(0.0);
        let map = spec.shard_map();
        let mut gen = WorkloadGen::new(&spec, 11);
        for _ in 0..100 {
            let txn = gen.next_txn();
            assert_eq!(
                map.shards_of(&txn).len(),
                1,
                "shard-local txn leaked: {txn:?}"
            );
        }
    }

    #[test]
    fn cross_shard_txns_span_exactly_two_shards() {
        let spec = WorkloadSpec::default()
            .with_items(256)
            .with_ops_per_txn(2)
            .with_shards(4)
            .with_cross_shard_ratio(1.0);
        let map = spec.shard_map();
        let mut gen = WorkloadGen::new(&spec, 13);
        for _ in 0..100 {
            let txn = gen.next_txn();
            assert_eq!(map.shards_of(&txn).len(), 2, "cross txn not cross: {txn:?}");
        }
    }

    #[test]
    fn one_shard_reproduces_the_unsharded_stream() {
        let base = WorkloadSpec::default().with_ops_per_txn(3).with_skew(0.7);
        let sharded = base.clone().with_shards(1).with_cross_shard_ratio(0.0);
        let a = WorkloadGen::new(&base, 17).take_txns(50);
        let b = WorkloadGen::new(&sharded, 17).take_txns(50);
        assert_eq!(a, b, "S=1 must be bit-identical to unsharded");
    }

    #[test]
    fn skew_prefers_hot_keys() {
        let spec = WorkloadSpec::default().with_items(1000).with_skew(1.2);
        let mut gen = WorkloadGen::new(&spec, 4);
        let hot = gen
            .take_txns(2000)
            .iter()
            .filter(|t| t.ops[0].key().0 < 10)
            .count();
        assert!(hot > 600, "only {hot} of 2000 hit the hot set");
    }
}
