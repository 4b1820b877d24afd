//! Declarative workload description.

use repl_db::Keyspace;
use repl_sim::SimDuration;

/// Parameters of a synthetic workload.
///
/// # Examples
///
/// ```
/// use repl_workload::WorkloadSpec;
///
/// let spec = WorkloadSpec::default()
///     .with_items(1_000)
///     .with_read_ratio(0.8)
///     .with_skew(0.99)
///     .with_ops_per_txn(1);
/// assert_eq!(spec.items, 1_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Number of logical data items.
    pub items: u64,
    /// Fraction of operations that are reads, in `[0, 1]`.
    pub read_ratio: f64,
    /// Zipf exponent over items (0 = uniform).
    pub skew: f64,
    /// Operations per transaction (1 = the paper's single-operation model).
    pub ops_per_txn: u32,
    /// Transactions each client issues.
    pub txns_per_client: u32,
    /// Client think time between transactions (closed loop).
    pub think_time: SimDuration,
    /// Number of keyspace shards (partial replication). 1 — the default —
    /// reproduces the unsharded workload bit-for-bit; above 1 the
    /// generator routes each transaction to a home shard (uniformly) and
    /// samples its keys from the home shard's sub-range with the same
    /// Zipf exponent.
    pub shards: u32,
    /// Fraction of transactions that touch a second shard, in `[0, 1]`.
    /// Only meaningful with `shards > 1`: a cross-shard transaction
    /// alternates its operations between the home shard and one other,
    /// uniformly chosen, shard.
    pub cross_shard_ratio: f64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            items: 100,
            read_ratio: 0.5,
            skew: 0.0,
            ops_per_txn: 1,
            txns_per_client: 20,
            think_time: SimDuration::from_ticks(200),
            shards: 1,
            cross_shard_ratio: 0.0,
        }
    }
}

impl WorkloadSpec {
    /// Sets the item count.
    ///
    /// # Panics
    ///
    /// Panics if `items == 0`.
    pub fn with_items(mut self, items: u64) -> Self {
        assert!(items > 0, "workload needs at least one item");
        self.items = items;
        self
    }

    /// Sets the read ratio.
    ///
    /// # Panics
    ///
    /// Panics if outside `[0, 1]`.
    pub fn with_read_ratio(mut self, r: f64) -> Self {
        assert!((0.0..=1.0).contains(&r), "read ratio must be in [0,1]");
        self.read_ratio = r;
        self
    }

    /// Sets the zipf skew.
    pub fn with_skew(mut self, theta: f64) -> Self {
        assert!(theta >= 0.0, "skew must be >= 0");
        self.skew = theta;
        self
    }

    /// Sets operations per transaction.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn with_ops_per_txn(mut self, n: u32) -> Self {
        assert!(n > 0, "transactions need at least one operation");
        self.ops_per_txn = n;
        self
    }

    /// Sets transactions per client.
    pub fn with_txns_per_client(mut self, n: u32) -> Self {
        self.txns_per_client = n;
        self
    }

    /// Sets the think time.
    pub fn with_think_time(mut self, t: SimDuration) -> Self {
        self.think_time = t;
        self
    }

    /// Sets the shard count (1 = unsharded, the exact pre-sharding
    /// behaviour).
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn with_shards(mut self, s: u32) -> Self {
        assert!(s > 0, "workload needs at least one shard");
        self.shards = s;
        self
    }

    /// Sets the cross-shard transaction ratio.
    ///
    /// # Panics
    ///
    /// Panics if outside `[0, 1]`.
    pub fn with_cross_shard_ratio(mut self, r: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&r),
            "cross-shard ratio must be in [0,1]"
        );
        self.cross_shard_ratio = r;
        self
    }

    /// The key → shard routing table this workload implies.
    ///
    /// # Panics
    ///
    /// Panics if `shards > items` (validated by
    /// [`crate::ShardMap::try_new`]).
    pub fn shard_map(&self) -> crate::ShardMap {
        crate::ShardMap::new(self.items, self.shards)
    }

    /// The [`Keyspace`] the db kernel should be built for: the window
    /// covers the whole domain, since no generator in this crate draws a
    /// key outside `0..items`.
    pub fn keyspace(&self) -> Keyspace {
        Keyspace::dense(self.items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain_sets_all_fields() {
        let s = WorkloadSpec::default()
            .with_items(7)
            .with_read_ratio(1.0)
            .with_skew(2.0)
            .with_ops_per_txn(3)
            .with_txns_per_client(9)
            .with_think_time(SimDuration::from_ticks(5));
        assert_eq!(s.items, 7);
        assert_eq!(s.read_ratio, 1.0);
        assert_eq!(s.skew, 2.0);
        assert_eq!(s.ops_per_txn, 3);
        assert_eq!(s.txns_per_client, 9);
        assert_eq!(s.think_time, SimDuration::from_ticks(5));
    }

    #[test]
    fn keyspace_is_dense_over_the_items() {
        let ks = WorkloadSpec::default().with_items(64).keyspace();
        assert_eq!((ks.items, ks.window(), ks.slots()), (64, (0, 64), 64));
    }

    #[test]
    #[should_panic(expected = "read ratio")]
    fn bad_read_ratio_rejected() {
        let _ = WorkloadSpec::default().with_read_ratio(1.5);
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_items_rejected() {
        let _ = WorkloadSpec::default().with_items(0);
    }

    #[test]
    #[should_panic(expected = "at least one operation")]
    fn zero_ops_rejected() {
        let _ = WorkloadSpec::default().with_ops_per_txn(0);
    }
}
