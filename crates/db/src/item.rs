//! Logical data items, values, and transaction identities.
//!
//! The paper's replication model (Section 4.1) distinguishes a *logical*
//! data item `X` from its *physical* copies `Xi` on each site. In this
//! kernel, a [`Key`] names the logical item; each site's
//! [`crate::Store`] holds that site's physical copy.

use std::fmt;

/// Names a logical data item.
///
/// # Examples
///
/// ```
/// use repl_db::Key;
/// let k = Key(7);
/// assert_eq!(k.to_string(), "x7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Key(pub u64);

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// The value stored in a data item.
///
/// A plain integer: rich enough for register semantics (each write carries
/// a distinguishable value, which the consistency oracles rely on) while
/// keeping messages cheap to clone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Value(pub i64);

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Globally unique transaction identity, ordered by `(timestamp, site)`.
///
/// The total order doubles as the age order for wound-wait deadlock
/// prevention: smaller is older.
///
/// # Examples
///
/// ```
/// use repl_db::TxnId;
/// let older = TxnId::new(5, 0);
/// let newer = TxnId::new(9, 0);
/// assert!(older < newer);
/// assert!(older.is_older_than(newer));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId {
    /// Start timestamp (virtual time ticks or any monotone counter).
    pub ts: u64,
    /// Originating site, breaking timestamp ties.
    pub site: u32,
}

impl TxnId {
    /// Creates a transaction id.
    pub fn new(ts: u64, site: u32) -> Self {
        TxnId { ts, site }
    }

    /// True if `self` started before `other` in the global age order.
    pub fn is_older_than(self, other: TxnId) -> bool {
        self < other
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}.{}", self.ts, self.site)
    }
}

/// Declares the shape of the key domain a kernel structure will see.
///
/// Workloads in this reproduction draw keys from a bounded, dense range
/// `0..items` (the paper's experiments fix the database size up front).
/// A structure built for a keyspace backs its **window** `[lo, hi)`
/// inside that domain with a `Vec` indexed by `key - lo` instead of a
/// hash map. The window is the whole domain unless [`Keyspace::scoped`]
/// narrows it to the shard a partial replica stores. Keys outside the
/// window stay legal: a store keeps a domain key *implicit* (at the
/// initial value, costing nothing) until first written, and every
/// structure serves such keys — and keys beyond the domain — from its
/// hash-map fallback with the same answers the full table gives. An
/// empty window is therefore an all-map table.
///
/// A bare item count converts to a keyspace over the whole domain, so
/// existing `new(site, items, ...)` call sites keep working unchanged:
///
/// ```
/// use repl_db::{Key, Keyspace};
/// let ks: Keyspace = 128u64.into();
/// assert_eq!(ks.items, 128);
/// assert_eq!(ks.window(), (0, 128));
/// // A shard's replica: same domain, slots only for keys 32..64.
/// let shard = ks.scoped(32, 64);
/// assert_eq!(shard.items, 128);
/// assert_eq!(shard.slot(Key(40)), Some(8));
/// assert_eq!(shard.slot(Key(7)), None);
/// // No window at all: every key is served from the map.
/// assert_eq!(ks.scoped(0, 0).slots(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Keyspace {
    /// Number of pre-declared items (keys `0..items`). Keys beyond the
    /// range remain legal.
    pub items: u64,
    /// The window `[lo, hi)`: `lo <= hi <= items`.
    lo: u64,
    hi: u64,
}

impl Keyspace {
    /// A bounded keyspace: keys `0..items`, with the window over the
    /// whole domain.
    pub fn dense(items: u64) -> Self {
        Keyspace {
            items,
            lo: 0,
            hi: items,
        }
    }

    /// The same logical domain with the window narrowed to `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// If `lo <= hi <= items` does not hold.
    pub fn scoped(self, lo: u64, hi: u64) -> Self {
        assert!(
            lo <= hi && hi <= self.items,
            "window [{lo}, {hi}) outside the domain 0..{}",
            self.items
        );
        Keyspace { lo, hi, ..self }
    }

    /// The window `(lo, hi)`.
    pub fn window(&self) -> (u64, u64) {
        (self.lo, self.hi)
    }

    /// The number of dense slots a table over this keyspace holds.
    pub fn slots(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// `key`'s dense-table offset, or `None` outside the window.
    #[inline(always)]
    pub fn slot(&self, key: Key) -> Option<usize> {
        let offset = key.0.wrapping_sub(self.lo);
        (offset < self.hi - self.lo).then_some(offset as usize)
    }
}

impl From<u64> for Keyspace {
    fn from(items: u64) -> Self {
        Keyspace::dense(items)
    }
}

/// Read or write access, the conflict-relevant half of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read access.
    Read,
    /// A write access.
    Write,
}

impl AccessKind {
    /// Two accesses conflict if they touch the same item and at least one
    /// of them writes (Section 4.1 of the paper).
    pub fn conflicts_with(self, other: AccessKind) -> bool {
        matches!(
            (self, other),
            (AccessKind::Write, _) | (_, AccessKind::Write)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_age_order_breaks_ties_by_site() {
        let a = TxnId::new(5, 0);
        let b = TxnId::new(5, 1);
        assert!(a.is_older_than(b));
        assert!(!b.is_older_than(a));
        assert!(!a.is_older_than(a));
    }

    #[test]
    fn conflict_matrix() {
        use AccessKind::*;
        assert!(!Read.conflicts_with(Read));
        assert!(Read.conflicts_with(Write));
        assert!(Write.conflicts_with(Read));
        assert!(Write.conflicts_with(Write));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Key(3).to_string(), "x3");
        assert_eq!(Value(-4).to_string(), "-4");
        assert_eq!(TxnId::new(8, 2).to_string(), "t8.2");
    }
}
