//! An exact set of `(stream, seq)` pairs stored as runs.

use std::collections::BTreeMap;

/// A grow-only set of `(stream, seq)` pairs, run-compressed per stream.
///
/// Every origin numbers its broadcasts densely from 0, so a "delivered"
/// or "seen" set is, per origin, everything below a watermark plus a few
/// stragglers. The set stores the disjoint, non-adjacent runs
/// `[lo, hi)` of every stream in one ordered map keyed by
/// `(stream, lo)`: a dense stream costs one entry however long it
/// grows, a sparse one (a group that sees only the cross-shard subset
/// of a foreign origin's ids) one entry per id, and an insert anywhere
/// is `O(log runs)`.
///
/// ```
/// let mut set = repl_gcs::RunSet::new();
/// assert!(set.insert('a', 0) && set.insert('a', 2));
/// assert!(set.insert('a', 1)); // bridges [0, 1) and [2, 3)
/// assert!(!set.insert('a', 1) && !set.contains('b', 1));
/// assert_eq!(set.runs(), 1);
/// ```
#[derive(Debug)]
pub struct RunSet<K> {
    // (stream, lo) → hi.
    runs: BTreeMap<(K, u64), u64>,
}

impl<K: Ord + Copy> RunSet<K> {
    /// Creates an empty set.
    pub fn new() -> Self {
        RunSet {
            runs: BTreeMap::new(),
        }
    }

    /// True if `(stream, seq)` is in the set.
    pub fn contains(&self, stream: K, seq: u64) -> bool {
        self.runs
            .range(..=(stream, seq))
            .next_back()
            .is_some_and(|(&(k, _), &hi)| k == stream && seq < hi)
    }

    /// Adds `(stream, seq)`; false if it was already present.
    ///
    /// # Panics
    ///
    /// Panics on `seq == u64::MAX` (no run `[seq, seq + 1)` exists).
    pub fn insert(&mut self, stream: K, seq: u64) -> bool {
        let next = seq.checked_add(1).expect("sequence number overflow");
        // One descent finds both neighbours: the run starting right
        // above `seq`, if any, and the last run starting at or below it.
        let mut below = self.runs.range_mut(..=(stream, next)).rev().peekable();
        let right = below
            .next_if(|&(&(k, lo), _)| k == stream && lo == next)
            .map(|(_, &mut hi)| hi);
        let hi = right.unwrap_or(next);
        match below.next() {
            Some((&(k, _), left_hi)) if k == stream && seq <= *left_hi => {
                if seq < *left_hi {
                    return false;
                }
                *left_hi = hi;
            }
            _ => {
                self.runs.insert((stream, seq), hi);
            }
        }
        if right.is_some() {
            self.runs.remove(&(stream, next));
        }
        true
    }

    /// Empties the set.
    pub fn clear(&mut self) {
        self.runs.clear();
    }

    /// Number of runs stored — the set's memory footprint in entries.
    pub fn runs(&self) -> usize {
        self.runs.len()
    }
}

impl<K: Ord + Copy> Default for RunSet<K> {
    fn default() -> Self {
        RunSet::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs_of(set: &RunSet<u8>) -> Vec<(u8, u64, u64)> {
        set.runs.iter().map(|(&(k, lo), &hi)| (k, lo, hi)).collect()
    }

    #[test]
    fn first_of_a_stream_opens_its_own_run() {
        let mut set = RunSet::new();
        assert!(set.insert(1u8, 0));
        assert!(set.insert(1, 1));
        // A neighbouring stream's run ending exactly at `seq` is not a
        // left neighbour, and one starting at `seq + 1` not a right one.
        assert!(set.insert(2, 2));
        assert!(set.insert(0, 0));
        assert!(set.insert(3, 3));
        assert_eq!(
            runs_of(&set),
            vec![(0, 0, 1), (1, 0, 2), (2, 2, 3), (3, 3, 4)]
        );
        assert!(!set.contains(2, 1) && !set.contains(2, 3));
        assert!(!set.contains(0, 1) && !set.contains(3, 2));
    }

    #[test]
    fn merge_left_extends_the_run_below() {
        let mut set = RunSet::new();
        for seq in [5, 6, 7] {
            assert!(set.insert(1u8, seq));
        }
        assert_eq!(runs_of(&set), vec![(1, 5, 8)]);
        assert!(!set.insert(1, 6), "a member of the run is a duplicate");
        assert!(!set.contains(1, 4) && !set.contains(1, 8));
    }

    #[test]
    fn merge_right_rekeys_the_run_above() {
        let mut set = RunSet::new();
        for seq in [7, 6, 5] {
            assert!(set.insert(1u8, seq));
        }
        assert_eq!(runs_of(&set), vec![(1, 5, 8)]);
        assert!(set.contains(1, 5) && set.contains(1, 7));
    }

    #[test]
    fn bridge_joins_two_runs() {
        let mut set = RunSet::new();
        for seq in [0, 1, 3, 4] {
            assert!(set.insert(1u8, seq));
        }
        assert_eq!(runs_of(&set), vec![(1, 0, 2), (1, 3, 5)]);
        assert!(!set.contains(1, 2));
        assert!(set.insert(1, 2));
        assert_eq!(runs_of(&set), vec![(1, 0, 5)]);
        set.clear();
        assert_eq!(set.runs(), 0);
        assert!(!set.contains(1, 2));
    }
}
