//! Identifiers for simulated entities.

use std::fmt;

/// Identifies an actor (a process) in a [`crate::World`].
///
/// Node ids are assigned densely, in insertion order, starting at zero.
/// Both replica servers and clients are actors and therefore have node ids.
///
/// # Examples
///
/// ```
/// use repl_sim::NodeId;
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(n.to_string(), "n3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw index as `u32`.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Creates a node id from a `usize` index, panicking if the index
    /// does not fit — a checked replacement for `as u32` truncation on
    /// paths where actor counts are caller-controlled.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    pub fn from_index(index: usize) -> Self {
        let raw = u32::try_from(index)
            .unwrap_or_else(|_| panic!("node index {index} exceeds the u32 id space"));
        NodeId(raw)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A sorted set of distinct group (shard) ids.
///
/// The groups one transaction touches, the destinations of one multicast:
/// almost always one or two, so up to [`GroupSet::INLINE`] members live
/// inside the value and building, cloning and dropping the set never
/// touches the heap; larger sets spill to a vector. Reads go through the
/// slice it dereferences to.
///
/// # Examples
///
/// ```
/// use repl_sim::GroupSet;
/// let set: GroupSet = [3, 0, 3].into_iter().collect();
/// assert_eq!(&*set, &[0, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GroupSet {
    // Unused inline slots stay zero, so the derived equality is exact.
    inline: [u32; GroupSet::INLINE],
    len: usize,
    // Non-empty exactly when the set outgrew the inline slots; it then
    // holds every member and the inline part is cleared.
    spill: Vec<u32>,
}

impl GroupSet {
    /// Members held without a heap allocation.
    pub const INLINE: usize = 4;

    /// Adds `g`, keeping the members ascending and distinct.
    pub fn insert(&mut self, g: u32) {
        if self.spill.is_empty() {
            let at = self.inline[..self.len].partition_point(|&m| m < g);
            if at < self.len && self.inline[at] == g {
                return;
            }
            if self.len < Self::INLINE {
                self.inline.copy_within(at..self.len, at + 1);
                self.inline[at] = g;
                self.len += 1;
                return;
            }
            self.spill = self.inline.to_vec();
            (self.inline, self.len) = ([0; Self::INLINE], 0);
        }
        if let Err(at) = self.spill.binary_search(&g) {
            self.spill.insert(at, g);
        }
    }
}

impl std::ops::Deref for GroupSet {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl FromIterator<u32> for GroupSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut set = GroupSet::default();
        for g in iter {
            set.insert(g);
        }
        set
    }
}

/// Identifies a timer registered with the scheduler.
///
/// Timer ids are unique for the lifetime of a [`crate::World`]; cancelling a
/// timer prevents its callback from firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

impl TimerId {
    /// Returns the raw id.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::new(42);
        assert_eq!(n.index(), 42);
        assert_eq!(n.raw(), 42);
    }

    #[test]
    fn from_index_accepts_the_u32_boundary() {
        assert_eq!(NodeId::from_index(0), NodeId::new(0));
        assert_eq!(NodeId::from_index(u32::MAX as usize), NodeId::new(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 id space")]
    fn from_index_rejects_past_the_boundary() {
        let _ = NodeId::from_index(u32::MAX as usize + 1);
    }

    #[test]
    fn node_id_ordering() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::new(5), NodeId::new(5));
    }

    #[test]
    fn group_set_sorts_dedups_and_spills() {
        let small: GroupSet = [9, 2, 9, 5].into_iter().collect();
        assert_eq!(&*small, &[2, 5, 9]);
        assert_eq!(small, [2, 5, 9].into_iter().collect());
        assert!(GroupSet::default().is_empty());
        // Past the inline capacity the set keeps every member, in order.
        let big: GroupSet = [7, 1, 4, 8, 3, 4, 0].into_iter().collect();
        assert_eq!(&*big, &[0, 1, 3, 4, 7, 8]);
        assert_eq!(big, [0, 1, 3, 4, 7, 8].into_iter().collect());
        assert_ne!(big, small);
    }

    #[test]
    fn timer_id_display() {
        assert_eq!(TimerId(9).to_string(), "timer9");
        assert_eq!(TimerId(9).raw(), 9);
    }
}
