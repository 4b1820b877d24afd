//! Keyspace sharding: the static key → shard routing table behind
//! partial replication.
//!
//! The keyspace `0..items` is split into `shards` contiguous ranges of
//! near-equal size (sizes differ by at most one item). Contiguity keeps
//! the map O(1) in both directions — `shard_of` is a division, a shard's
//! range is a pair of multiplications — and keeps each shard's sub-range
//! dense, so the per-shard Zipf samplers of the sharded generator stay
//! precomputed-inverse-CDF cheap. Routing is a pure function of
//! `(items, shards)`: every thread, client and server derives the same
//! owner for every key, which the determinism suite relies on.

use repl_db::Key;
use repl_sim::GroupSet;

use crate::generator::TxnTemplate;

/// Why a [`ShardMap`] could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMapError {
    /// `shards == 0`: at least one shard is required.
    NoShards,
    /// More shards than items: some shard would own no keys.
    MoreShardsThanItems {
        /// Requested shard count.
        shards: u32,
        /// Item count of the keyspace.
        items: u64,
    },
}

impl std::fmt::Display for ShardMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardMapError::NoShards => write!(f, "shard map needs at least one shard"),
            ShardMapError::MoreShardsThanItems { shards, items } => write!(
                f,
                "shard map with {shards} shards over {items} items would leave empty shards"
            ),
        }
    }
}

impl std::error::Error for ShardMapError {}

/// The static key → shard routing table.
///
/// # Examples
///
/// ```
/// use repl_workload::ShardMap;
/// use repl_db::Key;
///
/// let map = ShardMap::new(100, 4);
/// assert_eq!(map.shard_of(Key(0)), 0);
/// assert_eq!(map.shard_of(Key(99)), 3);
/// assert_eq!(map.range(0), (0, 25));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    items: u64,
    shards: u32,
}

impl ShardMap {
    /// Builds the map, panicking on an invalid configuration.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `shards > items` (see
    /// [`ShardMap::try_new`]).
    pub fn new(items: u64, shards: u32) -> Self {
        Self::try_new(items, shards).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the map, reporting invalid configurations as a typed error.
    ///
    /// # Errors
    ///
    /// [`ShardMapError::NoShards`] if `shards == 0`;
    /// [`ShardMapError::MoreShardsThanItems`] if a shard would own no
    /// keys.
    pub fn try_new(items: u64, shards: u32) -> Result<Self, ShardMapError> {
        if shards == 0 {
            return Err(ShardMapError::NoShards);
        }
        if u64::from(shards) > items {
            return Err(ShardMapError::MoreShardsThanItems { shards, items });
        }
        Ok(ShardMap { items, shards })
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Number of items the map covers.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// The half-open key range `[lo, hi)` shard `s` owns.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn range(&self, s: u32) -> (u64, u64) {
        assert!(s < self.shards, "shard {s} out of range");
        (self.boundary(s), self.boundary(s + 1))
    }

    /// Number of keys shard `s` owns (≥ 1 by construction).
    pub fn size(&self, s: u32) -> u64 {
        let (lo, hi) = self.range(s);
        hi - lo
    }

    /// The shard owning `key`.
    ///
    /// # Panics
    ///
    /// Panics if the key lies outside the mapped keyspace.
    pub fn shard_of(&self, key: Key) -> u32 {
        assert!(key.0 < self.items, "key {key:?} outside the keyspace");
        // First guess by proportion, then nudge across the floor-division
        // staircase (the guess is off by at most one step either way).
        let mut s = ((u128::from(key.0) * u128::from(self.shards)) / u128::from(self.items)) as u32;
        s = s.min(self.shards - 1);
        while s > 0 && key.0 < self.boundary(s) {
            s -= 1;
        }
        while s + 1 < self.shards && key.0 >= self.boundary(s + 1) {
            s += 1;
        }
        s
    }

    /// The distinct shards a transaction touches, ascending.
    pub fn shards_of(&self, txn: &TxnTemplate) -> GroupSet {
        txn.ops.iter().map(|o| self.shard_of(o.key())).collect()
    }

    fn boundary(&self, s: u32) -> u64 {
        ((u128::from(s) * u128::from(self.items)) / u128::from(self.shards)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_owned_by_exactly_one_shard() {
        for (items, shards) in [(1u64, 1u32), (7, 3), (100, 4), (64, 16), (1000, 13)] {
            let map = ShardMap::new(items, shards);
            let mut counts = vec![0u64; shards as usize];
            for k in 0..items {
                let s = map.shard_of(Key(k));
                assert!(s < shards);
                let (lo, hi) = map.range(s);
                assert!(lo <= k && k < hi, "key {k} outside its shard's range");
                counts[s as usize] += 1;
            }
            for (s, &c) in counts.iter().enumerate() {
                assert_eq!(c, map.size(s as u32), "shard {s} count/range mismatch");
                assert!(c >= 1, "shard {s} owns no keys");
            }
            assert_eq!(counts.iter().sum::<u64>(), items);
        }
    }

    #[test]
    fn ranges_are_contiguous_and_balanced() {
        let map = ShardMap::new(103, 8);
        let mut next = 0;
        let (mut min, mut max) = (u64::MAX, 0u64);
        for s in 0..8 {
            let (lo, hi) = map.range(s);
            assert_eq!(lo, next, "gap before shard {s}");
            next = hi;
            min = min.min(hi - lo);
            max = max.max(hi - lo);
        }
        assert_eq!(next, 103);
        assert!(max - min <= 1, "imbalanced split: {min}..{max}");
    }

    #[test]
    fn invalid_configurations_are_typed_errors() {
        assert_eq!(ShardMap::try_new(10, 0), Err(ShardMapError::NoShards));
        assert_eq!(
            ShardMap::try_new(3, 4),
            Err(ShardMapError::MoreShardsThanItems {
                shards: 4,
                items: 3
            })
        );
        assert!(ShardMap::try_new(4, 4).is_ok());
    }

    #[test]
    #[should_panic(expected = "outside the keyspace")]
    fn out_of_range_key_rejected() {
        let map = ShardMap::new(10, 2);
        let _ = map.shard_of(Key(10));
    }

    #[test]
    fn shards_of_dedups_and_sorts() {
        use crate::generator::OpTemplate;
        use repl_db::Value;
        let map = ShardMap::new(100, 4);
        let txn = TxnTemplate {
            ops: vec![
                OpTemplate::Write(Key(80), Value(1)), // shard 3
                OpTemplate::Read(Key(5)),             // shard 0
                OpTemplate::Write(Key(81), Value(2)), // shard 3
            ]
            .into(),
        };
        assert_eq!(&*map.shards_of(&txn), &[0, 3]);
    }
}
