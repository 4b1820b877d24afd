//! Aggregate run metrics: message counts, bytes, and latency statistics.

use crate::time::SimDuration;
use crate::trace::Fnv1a;

/// Counters accumulated by the scheduler during a run.
///
/// # Examples
///
/// ```
/// use repl_sim::Metrics;
/// let m = Metrics::default();
/// assert_eq!(m.messages_sent, 0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Messages offered to the network (including ones later dropped).
    pub messages_sent: u64,
    /// Messages sent between coordination nodes (both endpoints below
    /// [`crate::SimConfig::coordination_nodes`]) — the server↔server
    /// share of `messages_sent`, i.e. ordering/agreement traffic as
    /// opposed to client request/response traffic. Zero unless the
    /// config names a coordination set.
    pub coordination_messages: u64,
    /// Background messages ([`crate::Message::is_background`]: failure
    /// detector heartbeats) — a share of `messages_sent`.
    pub background_messages: u64,
    /// Bytes of the background messages — a share of `bytes_sent`.
    pub background_bytes: u64,
    /// Messages actually handed to an actor.
    pub messages_delivered: u64,
    /// Messages lost to the network, partitions, or dead destinations.
    pub messages_dropped: u64,
    /// Total payload bytes sent.
    pub bytes_sent: u64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// Events processed in total.
    pub events_processed: u64,
    /// Node crashes applied (scheduled crashes of live nodes).
    pub crashes_injected: u64,
    /// Node recoveries applied (scheduled recoveries of crashed nodes).
    pub recoveries_injected: u64,
    /// Volume-loss disasters applied (node down with local storage wiped).
    pub volume_losses: u64,
    /// Mid-run spawns applied (dormant elastic-membership joiners booted).
    pub spawns_injected: u64,
    /// Planned decommissions (drains) applied.
    pub drains_injected: u64,
    /// Partitions installed (each `Partition` fault event, including
    /// re-partitions while one is already active).
    pub partitions_started: u64,
    /// Partition heals applied.
    pub partitions_healed: u64,
    /// Link faults applied (`Degrade` events; a cut link is one with
    /// loss probability 1).
    pub link_faults_injected: u64,
    /// Link repairs applied (`Restore` events).
    pub link_faults_repaired: u64,
}

impl Metrics {
    /// Total disruptive fault events applied: crashes, volume losses,
    /// partitions and link faults (repairs and recoveries are not
    /// counted).
    pub fn faults_injected(&self) -> u64 {
        self.crashes_injected
            + self.volume_losses
            + self.partitions_started
            + self.link_faults_injected
    }

    /// Total repair events applied: recoveries, heals and link repairs.
    pub fn repairs_applied(&self) -> u64 {
        self.recoveries_injected + self.partitions_healed + self.link_faults_repaired
    }
}

/// Latency sample accumulator with exact percentiles (stores all samples).
///
/// # Examples
///
/// ```
/// use repl_sim::{LatencyStats, SimDuration};
///
/// let mut s = LatencyStats::new();
/// for t in [10, 20, 30, 40, 50] {
///     s.record(SimDuration::from_ticks(t));
/// }
/// assert_eq!(s.count(), 5);
/// assert_eq!(s.mean().ticks(), 30);
/// assert_eq!(s.percentile(0.5).ticks(), 30);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyStats {
    samples: Vec<u64>,
    sorted: bool,
    /// Running extrema, maintained on record/merge so `min`/`max` are
    /// O(1) instead of rescanning every sample per report line.
    min: u64,
    max: u64,
}

impl Default for LatencyStats {
    fn default() -> Self {
        LatencyStats::new()
    }
}

impl LatencyStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        LatencyStats {
            samples: Vec::new(),
            sorted: true,
            min: u64::MAX,
            max: 0,
        }
    }

    /// An empty accumulator sized for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        LatencyStats {
            samples: Vec::with_capacity(n),
            ..LatencyStats::new()
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: SimDuration) {
        let t = d.ticks();
        self.min = self.min.min(t);
        self.max = self.max.max(t);
        self.samples.push(t);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Returns true if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean; zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let sum: u128 = self.samples.iter().map(|&s| s as u128).sum();
        SimDuration::from_ticks((sum / self.samples.len() as u128) as u64)
    }

    /// Exact percentile by nearest-rank; `q` in `[0, 1]`. Zero when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&mut self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "percentile must be in [0,1]");
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let rank = ((q * self.samples.len() as f64).ceil() as usize).max(1) - 1;
        SimDuration::from_ticks(self.samples[rank.min(self.samples.len() - 1)])
    }

    /// Largest sample; zero when empty. O(1): tracked while recording.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_ticks(if self.samples.is_empty() { 0 } else { self.max })
    }

    /// Smallest sample; zero when empty. O(1): tracked while recording.
    pub fn min(&self) -> SimDuration {
        SimDuration::from_ticks(if self.samples.is_empty() { 0 } else { self.min })
    }

    /// Merges the samples of `other` into `self`.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// The raw samples in recording order (or sorted order if a
    /// percentile was taken). The order is therefore call-history
    /// dependent — anything that needs a canonical view (digests,
    /// comparisons) must use [`LatencyStats::sorted_samples`] instead.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// The samples in canonical (sorted ascending) order, regardless of
    /// whether a percentile was taken first. This is the view digests
    /// must hash: `samples()` flips from recording order to sorted
    /// order as a side effect of `percentile`, so hashing it directly
    /// makes the digest depend on accessor call order.
    pub fn sorted_samples(&self) -> Vec<u64> {
        let mut v = self.samples.clone();
        if !self.sorted {
            v.sort_unstable();
        }
        v
    }
}

/// Streaming, constant-memory latency histogram (log-bucketed,
/// HdrHistogram-style): the scale path's replacement for the
/// store-every-sample [`LatencyStats`].
///
/// Values 0–63 are exact; larger values bucket by a 6-bit mantissa
/// under their power of two, bounding the relative quantile error by
/// [`LatencyHistogram::MAX_RELATIVE_ERROR`] (1/64 ≈ 1.6 %) while the
/// footprint stays fixed (≈30 KiB) no matter how many samples stream
/// through. Mean, count, min and max are exact. Digest-sensitive
/// small-scale paths keep using [`LatencyStats`] (the exact mode);
/// the open-loop engine records here.
///
/// # Examples
///
/// ```
/// use repl_sim::{LatencyHistogram, SimDuration};
/// let mut h = LatencyHistogram::new();
/// for t in 1..=1000u64 {
///     h.record(SimDuration::from_ticks(t));
/// }
/// assert_eq!(h.count(), 1000);
/// assert_eq!(h.min().ticks(), 1);
/// assert_eq!(h.max().ticks(), 1000);
/// let p50 = h.percentile(0.5).ticks() as f64;
/// assert!((p50 - 500.0).abs() / 500.0 <= LatencyHistogram::MAX_RELATIVE_ERROR);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// 6-bit sub-bucket precision: 64 linear buckets per power of two.
const SUB_BITS: u32 = 6;
/// Buckets: 64 exact values + 64 sub-buckets for each exponent 6..63.
const BUCKETS: usize = 64 + 58 * 64;

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// Worst-case relative error of a percentile estimate: one part in
    /// 2⁶ (the sub-bucket width over the bucket's lower bound).
    pub const MAX_RELATIVE_ERROR: f64 = 1.0 / 64.0;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index of a tick value.
    fn index_of(t: u64) -> usize {
        if t < 64 {
            return t as usize;
        }
        let exp = 63 - t.leading_zeros(); // ≥ 6
        let sub = ((t >> (exp - SUB_BITS)) & 63) as usize;
        64 + ((exp - SUB_BITS) as usize) * 64 + sub
    }

    /// The lower bound of bucket `idx` — the value a percentile falling
    /// in this bucket reports.
    fn value_of(idx: usize) -> u64 {
        if idx < 64 {
            return idx as u64;
        }
        let exp = SUB_BITS as usize + (idx - 64) / 64;
        let sub = ((idx - 64) % 64) as u64;
        (64 + sub) << (exp - SUB_BITS as usize)
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: SimDuration) {
        let t = d.ticks();
        self.counts[Self::index_of(t)] += 1;
        self.count += 1;
        self.sum += t as u128;
        self.min = self.min.min(t);
        self.max = self.max.max(t);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns true if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact arithmetic mean; zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_ticks((self.sum / self.count as u128) as u64)
    }

    /// Exact smallest sample; zero when empty.
    pub fn min(&self) -> SimDuration {
        SimDuration::from_ticks(if self.count == 0 { 0 } else { self.min })
    }

    /// Exact largest sample; zero when empty.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_ticks(if self.count == 0 { 0 } else { self.max })
    }

    /// Nearest-rank percentile estimate, `q` in `[0, 1]`; zero when
    /// empty. Off from the exact sample percentile by at most
    /// [`LatencyHistogram::MAX_RELATIVE_ERROR`] relative (exact below
    /// 64 ticks).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "percentile must be in [0,1]");
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return SimDuration::from_ticks(Self::value_of(idx));
            }
        }
        SimDuration::from_ticks(self.max)
    }

    /// Merges `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The fixed heap footprint of the bucket array, in bytes — the
    /// "constant" in constant-memory.
    pub fn memory_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<u64>()
    }

    /// A 64-bit FNV-1a fingerprint of the histogram's full observable
    /// state (count, sum, extrema, every bucket) — what run digests mix
    /// in. Bucket order is fixed, so the fingerprint is canonical.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::default();
        let mut mix = |v: u64| h.mix(v);
        mix(self.count);
        mix(self.sum as u64);
        mix((self.sum >> 64) as u64);
        mix(self.min);
        mix(self.max);
        for &c in &self.counts {
            mix(c);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let mut s = LatencyStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), SimDuration::ZERO);
        assert_eq!(s.percentile(0.99), SimDuration::ZERO);
        assert_eq!(s.max(), SimDuration::ZERO);
        assert_eq!(s.min(), SimDuration::ZERO);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = LatencyStats::new();
        for t in 1..=100u64 {
            s.record(SimDuration::from_ticks(t));
        }
        assert_eq!(s.percentile(0.01).ticks(), 1);
        assert_eq!(s.percentile(0.5).ticks(), 50);
        assert_eq!(s.percentile(0.99).ticks(), 99);
        assert_eq!(s.percentile(1.0).ticks(), 100);
        assert_eq!(s.min().ticks(), 1);
        assert_eq!(s.max().ticks(), 100);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyStats::new();
        a.record(SimDuration::from_ticks(10));
        let mut b = LatencyStats::new();
        b.record(SimDuration::from_ticks(30));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean().ticks(), 20);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn bad_percentile_panics() {
        let mut s = LatencyStats::new();
        s.record(SimDuration::from_ticks(1));
        let _ = s.percentile(1.5);
    }

    #[test]
    fn sorted_samples_is_call_order_independent() {
        let mut a = LatencyStats::new();
        let mut b = LatencyStats::new();
        for t in [50u64, 10, 40, 20, 30] {
            a.record(SimDuration::from_ticks(t));
            b.record(SimDuration::from_ticks(t));
        }
        let _ = b.percentile(0.5); // sorts b's samples in place
        assert_ne!(a.samples(), b.samples(), "raw view depends on call order");
        assert_eq!(
            a.sorted_samples(),
            b.sorted_samples(),
            "canonical view does not"
        );
    }

    #[test]
    fn running_min_max_match_rescans() {
        let mut s = LatencyStats::new();
        for t in [9u64, 2, 77, 2, 31] {
            s.record(SimDuration::from_ticks(t));
        }
        assert_eq!(s.min().ticks(), 2);
        assert_eq!(s.max().ticks(), 77);
        let mut other = LatencyStats::new();
        other.record(SimDuration::from_ticks(1));
        other.record(SimDuration::from_ticks(100));
        s.merge(&other);
        assert_eq!(s.min().ticks(), 1);
        assert_eq!(s.max().ticks(), 100);
    }

    #[test]
    fn histogram_is_exact_below_64() {
        let mut h = LatencyHistogram::new();
        let mut exact = LatencyStats::new();
        for t in [0u64, 1, 5, 17, 63, 63, 40] {
            h.record(SimDuration::from_ticks(t));
            exact.record(SimDuration::from_ticks(t));
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.percentile(q), exact.percentile(q), "q={q}");
        }
        assert_eq!(h.mean(), exact.mean());
        assert_eq!(h.min(), exact.min());
        assert_eq!(h.max(), exact.max());
    }

    #[test]
    fn histogram_percentiles_have_bounded_relative_error() {
        let mut h = LatencyHistogram::new();
        let mut exact = LatencyStats::new();
        // A skewed spread across several powers of two.
        let mut x: u64 = 12345;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = (x >> 40) * ((x >> 60) + 1);
            h.record(SimDuration::from_ticks(t));
            exact.record(SimDuration::from_ticks(t));
        }
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            let e = exact.percentile(q).ticks() as f64;
            let a = h.percentile(q).ticks() as f64;
            assert!(
                (e - a).abs() <= e * LatencyHistogram::MAX_RELATIVE_ERROR + 1.0,
                "q={q}: exact={e} approx={a}"
            );
        }
    }

    #[test]
    fn histogram_merge_matches_single_stream() {
        let mut all = LatencyHistogram::new();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for t in 0..1000u64 {
            all.record(SimDuration::from_ticks(t * 7));
            if t % 2 == 0 {
                a.record(SimDuration::from_ticks(t * 7));
            } else {
                b.record(SimDuration::from_ticks(t * 7));
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.mean(), all.mean());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for q in [0.1, 0.5, 0.99] {
            assert_eq!(a.percentile(q), all.percentile(q));
        }
    }

    #[test]
    fn histogram_memory_is_constant() {
        let mut h = LatencyHistogram::new();
        let before = h.memory_bytes();
        for t in 0..100_000u64 {
            h.record(SimDuration::from_ticks(t * 13));
        }
        assert_eq!(h.memory_bytes(), before);
        assert!(before < 64 * 1024, "footprint stays tens of KiB");
    }

    #[test]
    fn fault_counters_sum() {
        let m = Metrics {
            crashes_injected: 2,
            recoveries_injected: 1,
            partitions_started: 1,
            partitions_healed: 1,
            link_faults_injected: 3,
            link_faults_repaired: 2,
            ..Metrics::default()
        };
        assert_eq!(m.faults_injected(), 6);
        assert_eq!(m.repairs_applied(), 4);
        assert_eq!(Metrics::default().faults_injected(), 0);
    }
}
