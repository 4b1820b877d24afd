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
/// Keys within a transaction are distinct, and the write values are
/// unique within one seeded stream (one client's transactions, or one
/// aggregated group's), which the consistency oracles rely on to
/// identify which write a read observed.
///
/// The operations are immutable and shared: a clone — into a client's
/// record, a retry, every leg of an ordering fan-out, a retained order
/// log — bumps a reference count instead of copying them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnTemplate {
    /// The operations, in program order.
    pub ops: TxnOps,
}

/// A transaction's operations: a window into a body that every
/// transaction drawn in one batch shares ([`WorkloadGen::take_txns`]).
///
/// Derefs to `[OpTemplate]`, and equality compares the operations, never
/// the body they sit in. Sixteen bytes — a thin pointer and two `u32`s —
/// because a transaction is held per client record, per retry and per
/// order-log entry.
#[derive(Clone)]
pub struct TxnOps {
    body: Arc<Vec<OpTemplate>>,
    start: u32,
    len: u32,
}

const _: () = assert!(std::mem::size_of::<TxnTemplate>() == 16);

impl std::ops::Deref for TxnOps {
    type Target = [OpTemplate];

    fn deref(&self) -> &[OpTemplate] {
        let start = self.start as usize;
        &self.body[start..start + self.len as usize]
    }
}

impl PartialEq for TxnOps {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for TxnOps {}

impl std::fmt::Debug for TxnOps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl From<Vec<OpTemplate>> for TxnOps {
    /// A body of its own: one transaction's operations.
    fn from(ops: Vec<OpTemplate>) -> Self {
        let len = u32::try_from(ops.len()).expect("transaction fits a u32 window");
        TxnOps {
            body: Arc::new(ops),
            start: 0,
            len,
        }
    }
}

impl FromIterator<OpTemplate> for TxnOps {
    fn from_iter<I: IntoIterator<Item = OpTemplate>>(iter: I) -> Self {
        iter.into_iter().collect::<Vec<_>>().into()
    }
}

/// One client's transactions: a window into a list that every stream
/// drawn by one [`WorkloadGen::take_streams`] call shares, so a run's
/// clients hold one list and one body between them. Derefs to
/// `[TxnTemplate]`.
#[derive(Debug, Clone)]
pub struct TxnList {
    list: Arc<Vec<TxnTemplate>>,
    start: usize,
    len: usize,
}

impl std::ops::Deref for TxnList {
    type Target = [TxnTemplate];

    fn deref(&self) -> &[TxnTemplate] {
        &self.list[self.start..self.start + self.len]
    }
}

impl From<Vec<TxnTemplate>> for TxnList {
    /// A list of its own.
    fn from(list: Vec<TxnTemplate>) -> Self {
        let len = list.len();
        TxnList {
            list: Arc::new(list),
            start: 0,
            len,
        }
    }
}

impl TxnList {
    /// The `len` transactions from `start` on, sharing this list.
    ///
    /// # Panics
    ///
    /// If the window reaches past the list.
    pub fn window(&self, start: usize, len: usize) -> TxnList {
        assert!(start + len <= self.len, "window past the list");
        TxnList {
            list: Arc::clone(&self.list),
            start: self.start + start,
            len,
        }
    }
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
            sharding,
        }
    }

    /// Restarts the generator as `WorkloadGen::new(spec, seed)` would
    /// start it, keeping the sampling tables: one generator serves every
    /// client of a run, each from its own seed.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(seed);
        self.next_value = 1;
    }

    /// Generates the next transaction, in a body of its own.
    pub fn next_txn(&mut self) -> TxnTemplate {
        let mut ops = Vec::with_capacity(self.spec.ops_per_txn as usize);
        self.draw(&mut ops);
        TxnTemplate { ops: ops.into() }
    }

    /// Generates the next `count` transactions — exactly what `count`
    /// calls of [`next_txn`](Self::next_txn) would — into one shared
    /// body, each a window of `ops_per_txn` operations.
    pub fn take_txns(&mut self, count: usize) -> Vec<TxnTemplate> {
        let n = self.spec.ops_per_txn;
        let mut body = Vec::with_capacity(count * n as usize);
        for _ in 0..count {
            self.draw(&mut body);
        }
        assert!(
            u32::try_from(body.len()).is_ok(),
            "a batch's body is addressed by u32 windows"
        );
        let body = Arc::new(body);
        (0..count)
            .map(|i| TxnTemplate {
                ops: TxnOps {
                    body: Arc::clone(&body),
                    // Exact: `i * n` indexes the checked body when n > 0.
                    start: i as u32 * n,
                    len: n,
                },
            })
            .collect()
    }

    /// Draws one stream per seed — for each, exactly what
    /// [`reseed`](Self::reseed) and then [`take_txns`](Self::take_txns)
    /// of `count` would draw — into one body and one list that all
    /// streams share: stream `i` is `window(i * count, count)` of the
    /// result. A run's clients take their workload this way.
    pub fn take_streams(
        &mut self,
        seeds: impl ExactSizeIterator<Item = u64>,
        count: usize,
    ) -> TxnList {
        let n = self.spec.ops_per_txn;
        let txns = seeds.len() * count;
        let mut body = Vec::with_capacity(txns * n as usize);
        for seed in seeds {
            self.reseed(seed);
            for _ in 0..count {
                self.draw(&mut body);
            }
        }
        assert!(
            u32::try_from(body.len()).is_ok(),
            "a batch's body is addressed by u32 windows"
        );
        let body = Arc::new(body);
        let list: Vec<TxnTemplate> = (0..txns)
            .map(|i| TxnTemplate {
                ops: TxnOps {
                    body: Arc::clone(&body),
                    // Exact: `i * n` indexes the checked body when n > 0.
                    start: i as u32 * n,
                    len: n,
                },
            })
            .collect();
        list.into()
    }

    /// Appends one transaction's `ops_per_txn` operations to `body`.
    fn draw(&mut self, body: &mut Vec<OpTemplate>) {
        let start = body.len();
        if self.sharding.is_some() {
            self.draw_keys_sharded(body);
        } else {
            self.draw_keys(body);
        }
        self.finish(&mut body[start..]);
    }

    /// Appends the distinct keys of one transaction as reads.
    fn draw_keys(&mut self, body: &mut Vec<OpTemplate>) {
        let start = body.len();
        let n = self.spec.ops_per_txn as usize;
        // Distinct keys per transaction (retry sampling; the domain is
        // always at least as large as the transaction in practice).
        let mut guard = 0;
        while body.len() - start < n && guard < 10_000 {
            let k = Key(self.zipf.sample(&mut self.rng));
            if !body[start..].iter().any(|o| o.key() == k) {
                body.push(OpTemplate::Read(k));
            }
            guard += 1;
        }
        while body.len() - start < n {
            // Degenerate domains: fill sequentially.
            let k = Key((body.len() - start) as u64 % self.spec.items);
            body.push(OpTemplate::Read(k));
        }
    }

    /// The sharded transaction shape: a uniformly drawn home shard, a
    /// `cross_shard_ratio` coin for touching one other (uniform) shard,
    /// keys Zipf-sampled *within* each shard's sub-range. Cross-shard
    /// transactions alternate home/other by operation position, so any
    /// transaction with at least two operations genuinely spans both
    /// shards. Read/write choice and value numbering are identical to
    /// the unsharded path.
    fn draw_keys_sharded(&mut self, body: &mut Vec<OpTemplate>) {
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
        let start = body.len();
        let mut guard = 0;
        while body.len() - start < n && guard < 10_000 {
            let target = shard_at(body.len() - start);
            let (lo, _) = map.range(target);
            let local = self.sharding.as_ref().expect("sharded path").1[target as usize]
                .sample(&mut self.rng);
            let k = Key(lo + local);
            if !body[start..].iter().any(|o| o.key() == k) {
                body.push(OpTemplate::Read(k));
            }
            guard += 1;
        }
        while body.len() - start < n {
            // Degenerate domains: fill sequentially from the target shard.
            let pos = body.len() - start;
            let (lo, hi) = map.range(shard_at(pos));
            body.push(OpTemplate::Read(Key(lo + pos as u64 % (hi - lo))));
        }
    }

    /// Draws read-or-write (and the write's value) for each drawn key, in
    /// order.
    fn finish(&mut self, ops: &mut [OpTemplate]) {
        for op in ops {
            if self.rng.gen::<f64>() >= self.spec.read_ratio {
                *op = OpTemplate::Write(op.key(), Value(self.next_value));
                self.next_value += 1;
            }
        }
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

    fn one_by_one(gen: &mut WorkloadGen, count: usize) -> Vec<TxnTemplate> {
        (0..count).map(|_| gen.next_txn()).collect()
    }

    #[test]
    fn a_batch_is_the_stream_of_successive_draws() {
        let flat = WorkloadSpec::default()
            .with_items(64)
            .with_ops_per_txn(3)
            .with_read_ratio(0.4)
            .with_skew(0.9);
        let sharded = flat.clone().with_shards(4).with_cross_shard_ratio(0.3);
        for spec in [flat, sharded] {
            let mut batched = WorkloadGen::new(&spec, 21);
            let mut single = WorkloadGen::new(&spec, 21);
            // Two batches back to back continue the stream, values included.
            for count in [40, 17] {
                let batch = batched.take_txns(count);
                assert_eq!(batch, one_by_one(&mut single, count));
                assert!(batch.iter().all(|t| t.ops.len() == 3));
            }
        }
    }

    #[test]
    fn reseed_restarts_the_stream_of_a_fresh_generator() {
        let spec = WorkloadSpec::default()
            .with_ops_per_txn(2)
            .with_read_ratio(0.5)
            .with_skew(0.7);
        let mut gen = WorkloadGen::new(&spec, 1);
        gen.take_txns(30);
        for seed in [8, 1, 8] {
            gen.reseed(seed);
            assert_eq!(
                gen.take_txns(12),
                WorkloadGen::new(&spec, seed).take_txns(12)
            );
        }
    }

    #[test]
    fn streams_are_the_reseeded_batches_in_one_list() {
        for shards in [1, 4] {
            let spec = WorkloadSpec::default()
                .with_items(64)
                .with_ops_per_txn(2)
                .with_read_ratio(0.5)
                .with_shards(shards)
                .with_cross_shard_ratio(0.2);
            let mut gen = WorkloadGen::new(&spec, 1);
            let all = gen.take_streams([8, 1, 8, 5].into_iter(), 12);
            assert_eq!(all.len(), 48);
            for (i, seed) in [8, 1, 8, 5].into_iter().enumerate() {
                let own = WorkloadGen::new(&spec, seed).take_txns(12);
                assert_eq!(&*all.window(i * 12, 12), &own[..]);
            }
        }
    }

    #[test]
    fn a_window_equals_a_template_with_the_same_operations() {
        let spec = WorkloadSpec::default().with_ops_per_txn(2);
        let batch = WorkloadGen::new(&spec, 3).take_txns(5);
        let own = TxnTemplate {
            ops: batch[3].ops.to_vec().into(),
        };
        assert_eq!(batch[3], own);
        assert_eq!(format!("{:?}", batch[3]), format!("{own:?}"));
        assert_ne!(batch[2], own);
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
