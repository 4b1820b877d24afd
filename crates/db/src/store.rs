//! The versioned in-memory store: one site's physical copies.
//!
//! Two backings share one API. When the workload declares a bounded
//! [`Keyspace`], the store is *dense*: a `Vec<Option<Versioned>>` with
//! one slot per key of the keyspace's window, so the hot read/write path
//! is a bounds check and a pointer offset instead of a hash probe. The
//! *sparse* path keeps a hash map (Fx, not SipHash) for open-ended key
//! domains; on a dense store the same map holds the keys outside the
//! window, so the dense assumption can never corrupt semantics — only
//! speed.
//!
//! A partial replica's window is its shard, a slice of the logical
//! domain `0..items`. The store still answers for the whole domain,
//! exactly as a store over the full window would: a domain key outside
//! the window is *implicit* — present at the initial value, stored
//! nowhere — until it is first written, and from then on lives in the
//! map. Snapshots and fingerprints walk the logical domain in key order,
//! so a scoped store ships and hashes what the full store does.

use crate::hash::FxHashMap;
use crate::item::{Key, Keyspace, TxnId, Value};
use crate::log::{WriteRecord, WriteSet};

/// A physical copy: current value, a version counter, and the writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Versioned {
    /// Current value.
    pub value: Value,
    /// Monotone per-item version, starting at 0 for the initial value.
    pub version: u64,
    /// The transaction that produced this version (`None` for the initial
    /// database state).
    pub writer: Option<TxnId>,
}

impl Versioned {
    /// The initial version of an item.
    pub fn initial(value: Value) -> Self {
        Versioned {
            value,
            version: 0,
            writer: None,
        }
    }
}

/// One site's database: the logical keys' physical copies at this site.
///
/// # Examples
///
/// ```
/// use repl_db::{Store, Key, Value, TxnId};
///
/// let mut store = Store::with_items(4, Value(0));
/// let t = TxnId::new(1, 0);
/// store.write(Key(2), Value(9), t);
/// let v = store.read(Key(2)).expect("item exists");
/// assert_eq!(v.value, Value(9));
/// assert_eq!(v.version, 1);
/// assert_eq!(v.writer, Some(t));
/// ```
#[derive(Debug, Clone)]
pub struct Store {
    ks: Keyspace,
    /// Every domain key's initial state, and the value of the implicit
    /// ones.
    initial: Versioned,
    /// Dense backing: slot `i` is `Key(lo + i)`'s copy. Empty when sparse.
    dense: Vec<Option<Versioned>>,
    /// Number of `Some` slots in `dense`.
    dense_len: usize,
    /// Sparse backing; on the dense path this only holds keys outside
    /// the window that have explicit state (a written domain key, or any
    /// key beyond the domain).
    sparse: FxHashMap<Key, Versioned>,
    /// Whether a domain key outside the window that `sparse` lacks
    /// exists at `initial`. True on a dense store until it installs a
    /// snapshot that leaves such a key out.
    implicit: bool,
}

impl Default for Store {
    fn default() -> Self {
        Store::new()
    }
}

impl Store {
    /// Creates an empty store with an open (sparse) keyspace.
    pub fn new() -> Self {
        Store::with_keyspace(Keyspace::sparse(0), Value(0))
    }

    /// Creates a store with keys `0..n`, all at `initial`, densely backed.
    pub fn with_items(n: u64, initial: Value) -> Self {
        Store::with_keyspace(Keyspace::dense(n), initial)
    }

    /// Creates a store with keys `0..ks.items` at `initial`, using the
    /// backing the keyspace declares; a dense store materializes only
    /// its window.
    pub fn with_keyspace(ks: Keyspace, initial: Value) -> Self {
        let initial = Versioned::initial(initial);
        let mut sparse = FxHashMap::default();
        if !ks.dense {
            sparse.reserve(ks.items as usize);
            for k in 0..ks.items {
                sparse.insert(Key(k), initial);
            }
        }
        Store {
            ks,
            initial,
            dense: vec![Some(initial); ks.slots()],
            dense_len: ks.slots(),
            sparse,
            implicit: ks.dense,
        }
    }

    /// The keyspace this store was built for.
    pub fn keyspace(&self) -> Keyspace {
        self.ks
    }

    /// Number of items: the logical count, implicit items included.
    pub fn len(&self) -> usize {
        let implicit = if self.implicit {
            let written = self.sparse.keys().filter(|k| self.is_implicit(**k)).count();
            self.implicit_keys() - written
        } else {
            0
        };
        self.dense_len + self.sparse.len() + implicit
    }

    /// True if the store holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries held outside the dense window: written implicit items and
    /// keys beyond the domain (every entry of a sparse store). A
    /// residency count; zero on a partial replica that was only ever
    /// asked about its own shard.
    pub fn spilled(&self) -> usize {
        self.sparse.len()
    }

    /// True for a domain key outside a dense window: implicit until
    /// written.
    #[inline(always)]
    fn is_implicit(&self, key: Key) -> bool {
        self.ks.dense && key.0 < self.ks.items && self.ks.slot(key).is_none()
    }

    /// How many domain keys lie outside the dense window.
    fn implicit_keys(&self) -> usize {
        if self.ks.dense {
            self.ks.items as usize - self.ks.slots()
        } else {
            0
        }
    }

    /// `key`'s copy, if it exists.
    #[inline(always)]
    fn get(&self, key: Key) -> Option<&Versioned> {
        match self.ks.slot(key) {
            Some(i) => self.dense[i].as_ref(),
            None => self
                .sparse
                .get(&key)
                .or_else(|| (self.implicit && self.is_implicit(key)).then_some(&self.initial)),
        }
    }

    /// Reads the physical copy of `key`.
    #[inline(always)]
    pub fn read(&self, key: Key) -> Option<Versioned> {
        self.get(key).copied()
    }

    /// The slot for `key`, created at `default` if absent. An implicit
    /// item materializes at `default`, so callers pass a version-0 state
    /// or overwrite the whole entry.
    #[inline(always)]
    fn entry_or_insert(&mut self, key: Key, default: Versioned) -> &mut Versioned {
        match self.ks.slot(key) {
            Some(i) => {
                let slot = &mut self.dense[i];
                if slot.is_none() {
                    *slot = Some(default);
                    self.dense_len += 1;
                }
                slot.as_mut().expect("slot populated above")
            }
            None => self.sparse.entry(key).or_insert(default),
        }
    }

    /// Writes `value` to `key` on behalf of `txn`, bumping the version.
    /// Unknown keys are created at version 1 (version 0 is the implicit
    /// initial state). Returns the new version.
    pub fn write(&mut self, key: Key, value: Value, txn: TxnId) -> Versioned {
        let entry = self.entry_or_insert(key, Versioned::initial(Value(0)));
        entry.value = value;
        entry.version += 1;
        entry.writer = Some(txn);
        *entry
    }

    /// Restores `key` to an exact earlier state (undo).
    pub fn restore(&mut self, key: Key, state: Versioned) {
        *self.entry_or_insert(key, state) = state;
    }

    /// Applies a replicated writeset (redo records), overwriting values and
    /// adopting the writer's versions. This is how secondaries install a
    /// primary's updates without re-executing (Section 3.3 / 4.3).
    pub fn apply_writeset(&mut self, ws: &WriteSet) {
        self.apply_records(ws.txn, ws.writes.iter().copied());
    }

    /// [`Store::apply_writeset`] over any record stream — the borrow-view
    /// entry point the payload plane uses, so installing an arena-backed
    /// writeset never materializes a `Vec<WriteRecord>`.
    pub fn apply_records(&mut self, txn: TxnId, records: impl Iterator<Item = WriteRecord>) {
        for rec in records {
            let entry = self.entry_or_insert(rec.key, Versioned::initial(Value(0)));
            entry.value = rec.value;
            entry.version = rec.version;
            entry.writer = Some(txn);
        }
    }

    /// Iterates over all items in key order: the domain `0..items`, then
    /// any keys beyond it. Implicit items are visited at their initial
    /// state, so a scoped store yields what the full store would.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &Versioned)> {
        let domain = (0..self.ks.items).filter_map(|k| self.get(Key(k)).map(|v| (Key(k), v)));
        // Only keys beyond the domain need sorting, and a bounded
        // workload has none: this collects nothing.
        let mut beyond: Vec<(Key, &Versioned)> = self
            .sparse
            .iter()
            .filter(|(k, _)| k.0 >= self.ks.items)
            .map(|(k, v)| (*k, v))
            .collect();
        beyond.sort_unstable_by_key(|(k, _)| *k);
        domain.chain(beyond)
    }

    /// Exports the full database state, key-sorted, for state transfer
    /// to a recovering replica. The order is deterministic so shipping
    /// the snapshot over the simulated network stays reproducible, and
    /// it covers the whole logical domain whatever the window.
    pub fn snapshot(&self) -> Vec<(Key, Versioned)> {
        self.iter().map(|(k, v)| (k, *v)).collect()
    }

    /// Replaces the entire database state with a donor's snapshot
    /// (values, versions and writers). The inverse of
    /// [`Store::snapshot`]: afterwards the two stores have equal
    /// fingerprints. An implicit item the snapshot carries at its
    /// initial state stays implicit.
    pub fn install_snapshot(&mut self, snapshot: &[(Key, Versioned)]) {
        self.dense.fill(None);
        self.dense_len = 0;
        self.sparse.clear();
        self.implicit = self.ks.dense && self.covers_implicit(snapshot);
        for &(k, v) in snapshot {
            if !(self.implicit && v == self.initial && self.is_implicit(k)) {
                *self.entry_or_insert(k, v) = v;
            }
        }
    }

    /// True if `snapshot` is strictly key-sorted and carries every
    /// implicit key — as a snapshot of a store over the same domain does.
    /// Otherwise the install makes every entry explicit, and the keys it
    /// leaves out are absent, as in a full store.
    fn covers_implicit(&self, snapshot: &[(Key, Versioned)]) -> bool {
        snapshot.windows(2).all(|w| w[0].0 < w[1].0)
            && snapshot
                .iter()
                .filter(|(k, _)| self.is_implicit(*k))
                .count()
                == self.implicit_keys()
    }

    /// A deterministic fingerprint of the full database state, used by the
    /// experiments to compare replica convergence. Streams over
    /// [`Store::iter`]'s key order.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over the sorted (key, value) stream.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (k, v) in self.iter() {
            for word in [k.0, v.value.0 as u64] {
                for byte in word.to_le_bytes() {
                    h ^= byte as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }
}

/// A shadow overlay for optimistic execution (certification-based
/// replication, Section 5.4.2): reads fall through to the base store,
/// writes stay in the overlay until the transaction certifies.
///
/// # Examples
///
/// ```
/// use repl_db::{Store, ShadowStore, Key, Value, TxnId};
///
/// let store = Store::with_items(2, Value(0));
/// let mut shadow = ShadowStore::new(&store, TxnId::new(1, 0));
/// shadow.write(Key(0), Value(5));
/// assert_eq!(shadow.read(Key(0)).expect("exists").value, Value(5));
/// assert_eq!(store.read(Key(0)).expect("exists").value, Value(0)); // base untouched
/// let ws = shadow.into_writeset();
/// assert_eq!(ws.writes.len(), 1);
/// ```
#[derive(Debug)]
pub struct ShadowStore<'a> {
    base: &'a Store,
    txn: TxnId,
    overlay: FxHashMap<Key, (Value, u64)>,
    read_versions: Vec<(Key, u64)>,
}

impl<'a> ShadowStore<'a> {
    /// Creates a shadow over `base` for `txn`.
    pub fn new(base: &'a Store, txn: TxnId) -> Self {
        ShadowStore {
            base,
            txn,
            overlay: FxHashMap::default(),
            read_versions: Vec::new(),
        }
    }

    /// Reads through the overlay, recording the version seen for the
    /// transaction's read set.
    pub fn read(&mut self, key: Key) -> Option<Versioned> {
        if let Some(&(value, version)) = self.overlay.get(&key) {
            return Some(Versioned {
                value,
                version,
                writer: Some(self.txn),
            });
        }
        let v = self.base.read(key)?;
        self.read_versions.push((key, v.version));
        Some(v)
    }

    /// Buffers a write in the overlay.
    pub fn write(&mut self, key: Key, value: Value) {
        let base_version = self.base.read(key).map_or(0, |v| v.version);
        self.overlay.insert(key, (value, base_version + 1));
    }

    /// The versions read from the base store (the read set).
    pub fn read_set(&self) -> &[(Key, u64)] {
        &self.read_versions
    }

    /// Converts the buffered writes into a writeset for certification.
    pub fn into_writeset(self) -> WriteSet {
        let mut writes: Vec<WriteRecord> = self
            .overlay
            .into_iter()
            .map(|(key, (value, version))| WriteRecord {
                key,
                value,
                version,
            })
            .collect();
        writes.sort_by_key(|r| r.key);
        WriteSet {
            txn: self.txn,
            writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_are_monotone_per_item() {
        let mut s = Store::with_items(1, Value(0));
        let t1 = TxnId::new(1, 0);
        let t2 = TxnId::new(2, 0);
        assert_eq!(s.read(Key(0)).expect("exists").version, 0);
        assert_eq!(s.write(Key(0), Value(1), t1).version, 1);
        assert_eq!(s.write(Key(0), Value(2), t2).version, 2);
        assert_eq!(s.read(Key(0)).expect("exists").writer, Some(t2));
    }

    #[test]
    fn unknown_key_write_creates_item() {
        let mut s = Store::new();
        assert!(s.is_empty());
        let v = s.write(Key(9), Value(3), TxnId::new(1, 0));
        assert_eq!(v.version, 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn restore_is_exact_undo() {
        let mut s = Store::with_items(1, Value(10));
        let before = s.read(Key(0)).expect("exists");
        s.write(Key(0), Value(99), TxnId::new(5, 1));
        s.restore(Key(0), before);
        assert_eq!(s.read(Key(0)).expect("exists"), before);
    }

    #[test]
    fn apply_writeset_adopts_writer_versions() {
        let mut primary = Store::with_items(2, Value(0));
        let mut backup = Store::with_items(2, Value(0));
        let t = TxnId::new(3, 0);
        primary.write(Key(0), Value(7), t);
        primary.write(Key(1), Value(8), t);
        let ws = WriteSet {
            txn: t,
            writes: vec![
                WriteRecord {
                    key: Key(0),
                    value: Value(7),
                    version: 1,
                },
                WriteRecord {
                    key: Key(1),
                    value: Value(8),
                    version: 1,
                },
            ],
        };
        backup.apply_writeset(&ws);
        assert_eq!(primary.fingerprint(), backup.fingerprint());
    }

    #[test]
    fn fingerprint_detects_divergence() {
        let a = Store::with_items(3, Value(0));
        let mut b = Store::with_items(3, Value(0));
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.write(Key(1), Value(1), TxnId::new(1, 1));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn shadow_records_read_set_and_buffers_writes() {
        let mut base = Store::with_items(2, Value(0));
        base.write(Key(1), Value(5), TxnId::new(1, 0)); // version 1
        let mut shadow = ShadowStore::new(&base, TxnId::new(2, 0));
        assert_eq!(shadow.read(Key(1)).expect("exists").value, Value(5));
        shadow.write(Key(0), Value(42));
        assert_eq!(shadow.read(Key(0)).expect("exists").value, Value(42));
        assert_eq!(shadow.read_set(), &[(Key(1), 1)]);
        let ws = shadow.into_writeset();
        assert_eq!(
            ws.writes,
            vec![WriteRecord {
                key: Key(0),
                value: Value(42),
                version: 1
            }]
        );
    }

    #[test]
    fn shadow_reads_of_own_writes_do_not_pollute_read_set() {
        let base = Store::with_items(1, Value(0));
        let mut shadow = ShadowStore::new(&base, TxnId::new(1, 0));
        shadow.write(Key(0), Value(1));
        let _ = shadow.read(Key(0));
        assert!(shadow.read_set().is_empty());
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn iter_visits_every_item() {
        let s = Store::with_items(5, Value(3));
        let mut keys: Vec<u64> = s.iter().map(|(k, _)| k.0).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![0, 1, 2, 3, 4]);
        assert!(s.iter().all(|(_, v)| v.value == Value(3) && v.version == 0));
    }

    #[test]
    fn fingerprint_is_order_of_insertion_independent() {
        let mut a = Store::new();
        let mut b = Store::new();
        let t = TxnId::new(1, 0);
        for k in 0..10 {
            a.write(Key(k), Value(k as i64), t);
        }
        for k in (0..10).rev() {
            b.write(Key(k), Value(k as i64), t);
        }
        // Versions equal (1 each), values equal → fingerprints equal even
        // though the backing internals differ.
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn snapshot_round_trips_full_state() {
        let mut donor = Store::with_items(4, Value(0));
        let t = TxnId::new(7, 2);
        donor.write(Key(1), Value(11), t);
        donor.write(Key(3), Value(-5), t);
        let snap = donor.snapshot();
        // Key-sorted and complete.
        let keys: Vec<u64> = snap.iter().map(|(k, _)| k.0).collect();
        assert_eq!(keys, vec![0, 1, 2, 3]);
        // Install replaces a diverged store entirely.
        let mut joiner = Store::with_items(9, Value(42));
        joiner.install_snapshot(&snap);
        assert_eq!(joiner.len(), donor.len());
        assert_eq!(joiner.fingerprint(), donor.fingerprint());
        assert_eq!(joiner.read(Key(1)).expect("exists").writer, Some(t));
    }

    #[test]
    fn shadow_writeset_is_key_sorted() {
        let base = Store::with_items(5, Value(0));
        let mut sh = ShadowStore::new(&base, TxnId::new(2, 0));
        sh.write(Key(4), Value(1));
        sh.write(Key(1), Value(2));
        sh.write(Key(3), Value(3));
        let ws = sh.into_writeset();
        let keys: Vec<u64> = ws.keys().map(|k| k.0).collect();
        assert_eq!(keys, vec![1, 3, 4]);
    }

    #[test]
    fn dense_and_sparse_backings_agree() {
        let backings = [
            Keyspace::dense(8),
            Keyspace::sparse(8),
            Keyspace::dense(8).scoped(2, 5),
        ];
        let mut stores = backings.map(|ks| Store::with_keyspace(ks, Value(4)));
        let t = TxnId::new(1, 0);
        let u = TxnId::new(2, 1);
        for (i, k) in [3u64, 0, 7, 3, 5, 9, 0].into_iter().enumerate() {
            let writes = stores
                .each_mut()
                .map(|s| s.write(Key(k), Value(k as i64), t));
            assert!(writes.iter().all(|w| *w == writes[0]), "write #{i} of x{k}");
        }
        let undo = Versioned::initial(Value(4));
        let records = [(6u64, 3u64), (2, 2), (11, 1)].map(|(k, version)| WriteRecord {
            key: Key(k),
            value: Value(-1),
            version,
        });
        for s in &mut stores {
            s.restore(Key(7), undo);
            s.apply_records(u, records.iter().copied());
        }
        let [d, rest @ ..] = &stores;
        for s in rest {
            assert_eq!(d.len(), s.len());
            assert_eq!(d.fingerprint(), s.fingerprint());
            assert_eq!(d.snapshot(), s.snapshot());
            for k in 0..12 {
                assert_eq!(d.read(Key(k)), s.read(Key(k)), "x{k}");
            }
        }
        // A snapshot round trip into a fresh store of each backing.
        let snap = d.snapshot();
        for ks in backings {
            let mut fresh = Store::with_keyspace(ks, Value(4));
            fresh.install_snapshot(&snap);
            assert_eq!(fresh.len(), d.len(), "{ks:?}");
            assert_eq!(fresh.fingerprint(), d.fingerprint(), "{ks:?}");
            assert_eq!(fresh.snapshot(), snap, "{ks:?}");
        }
    }

    #[test]
    fn a_scoped_store_spills_only_what_is_written_outside_its_window() {
        let ks = Keyspace::dense(16).scoped(4, 8);
        let mut s = Store::with_keyspace(ks, Value(1));
        assert_eq!((s.len(), s.spilled()), (16, 0));
        assert_eq!(s.read(Key(12)), Some(Versioned::initial(Value(1))));
        // Writing an implicit item spills exactly that one entry.
        s.write(Key(12), Value(5), TxnId::new(1, 0));
        s.write(Key(6), Value(5), TxnId::new(1, 0));
        assert_eq!((s.len(), s.spilled()), (16, 1));
        // Installing a full-domain snapshot spills nothing but what
        // differs from the initial state outside the window.
        let full = Store::with_items(16, Value(1));
        s.install_snapshot(&full.snapshot());
        assert_eq!((s.len(), s.spilled()), (16, 0));
        assert_eq!(s.fingerprint(), full.fingerprint());
        // A snapshot that leaves domain keys out makes them absent, as in
        // the full store, instead of implicit.
        let mut full = Store::with_items(16, Value(1));
        let partial = Store::with_items(3, Value(1)).snapshot();
        full.install_snapshot(&partial);
        s.install_snapshot(&partial);
        assert_eq!(s.read(Key(12)), None);
        assert_eq!((s.len(), s.fingerprint()), (full.len(), full.fingerprint()));
        assert_eq!(s.write(Key(12), Value(2), TxnId::new(3, 0)).version, 1);
    }

    #[test]
    fn dense_store_tolerates_out_of_range_keys() {
        let mut d = Store::with_keyspace(Keyspace::dense(4), Value(0));
        let t = TxnId::new(2, 1);
        // A key beyond the declared bound lands in the sparse overflow
        // with identical semantics (created at version 1).
        let v = d.write(Key(100), Value(6), t);
        assert_eq!(v.version, 1);
        assert_eq!(d.len(), 5);
        assert_eq!(d.read(Key(100)).expect("exists").value, Value(6));
        let snap = d.snapshot();
        assert_eq!(snap.last().expect("nonempty").0, Key(100));
        // Round-trips through snapshot install, including the overflow key.
        let mut fresh = Store::with_keyspace(Keyspace::dense(4), Value(9));
        fresh.install_snapshot(&snap);
        assert_eq!(fresh.fingerprint(), d.fingerprint());
    }
}
