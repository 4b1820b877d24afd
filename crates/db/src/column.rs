//! The one form a run of committed writesets takes: the redo log's
//! committed and staged runs, the payload arena's spans, the durable
//! tier's entries and fold history, a transfer's log suffix and the lazy
//! techniques' propagation queues are all [`TxnColumn`]s, read as
//! [`WsView`]s.

use crate::arena::WsView;
use crate::item::TxnId;
use crate::log::WriteRecord;

/// A run of per-transaction entries kept as one column: every entry's
/// items sit in one `Vec`, and each entry is a `(txn, start, len)`
/// header into it, so a run costs two buffers however many entries it
/// holds. Redo entries keep their records; the durable tier's fold
/// history keeps only the written keys. A column often lives as long as
/// the run, so its slack is retained heap: a full buffer grows by half
/// its capacity (at least 16 elements), not by doubling.
///
/// # Examples
///
/// ```
/// use repl_db::{Key, TxnColumn, TxnId};
///
/// let mut folded: TxnColumn<Key> = TxnColumn::new();
/// folded.push(TxnId::new(1, 0), [Key(3), Key(5)]);
/// let mut more = TxnColumn::new();
/// more.push(TxnId::new(2, 0), []);
/// folded.append(&mut more); // moves `more`'s entries after these
/// assert_eq!((folded.len(), more.len()), (2, 0));
/// assert_eq!(folded.entry(0), (TxnId::new(1, 0), &[Key(3), Key(5)][..]));
/// assert!(folded.entry(1).1.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnColumn<T = WriteRecord> {
    items: Vec<T>,
    heads: Vec<(TxnId, u32, u32)>,
}

/// The smallest step a column grows by.
const MIN_GROWTH: usize = 16;

/// Makes room for `more` elements, growing a full buffer by half.
fn grow_by_half<T>(col: &mut Vec<T>, more: usize) {
    if col.capacity() - col.len() < more {
        col.reserve_exact(more.max(col.capacity() / 2).max(MIN_GROWTH));
    }
}

/// `n` as a column offset; panics at `2^32` items or more.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("fewer than 2^32 items in a column")
}

impl<T> Default for TxnColumn<T> {
    fn default() -> Self {
        TxnColumn {
            items: Vec::new(),
            heads: Vec::new(),
        }
    }
}

impl<T: Copy> TxnColumn<T> {
    /// An empty column.
    pub fn new() -> Self {
        TxnColumn::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True if the column holds no entry.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Appends `txn`'s entry; panics at `2^32` items or more.
    pub fn push(
        &mut self,
        txn: TxnId,
        items: impl IntoIterator<Item = T, IntoIter: ExactSizeIterator>,
    ) {
        let items = items.into_iter();
        grow_by_half(&mut self.items, items.len());
        grow_by_half(&mut self.heads, 1);
        let start = self.items.len();
        self.items.extend(items);
        let len = offset(self.items.len() - start);
        self.heads.push((txn, offset(start), len));
    }

    /// Moves every entry of `other` after this column's, leaving `other`
    /// empty with its capacity.
    pub fn append(&mut self, other: &mut TxnColumn<T>) {
        let shift = offset(self.items.len());
        grow_by_half(&mut self.items, other.items.len());
        grow_by_half(&mut self.heads, other.heads.len());
        self.items.append(&mut other.items);
        offset(self.items.len()); // every shifted start must fit
        let moved = other
            .heads
            .drain(..)
            .map(|(txn, start, len)| (txn, start + shift, len));
        self.heads.extend(moved);
    }

    /// Entry `i`: its transaction and items.
    pub fn entry(&self, i: usize) -> (TxnId, &[T]) {
        let (txn, start, len) = self.heads[i];
        let start = start as usize;
        (txn, &self.items[start..start + len as usize])
    }

    /// Every entry, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = (TxnId, &[T])> + '_ {
        (0..self.len()).map(|i| self.entry(i))
    }

    /// Every entry's transaction, oldest first.
    pub fn txns(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.heads.iter().map(|h| h.0)
    }

    /// Items held, and the item buffer's capacity.
    pub(crate) fn items(&self) -> (usize, usize) {
        (self.items.len(), self.items.capacity())
    }

    /// Drops every entry, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.items.clear();
        self.heads.clear();
    }

    /// Drops the entries from `n` on.
    pub(crate) fn truncate(&mut self, n: usize) {
        if let Some(&(_, start, _)) = self.heads.get(n) {
            self.items.truncate(start as usize);
            self.heads.truncate(n);
        }
    }

    /// Drops the first `n` entries (a memmove of what stays).
    pub(crate) fn drop_front(&mut self, n: usize) {
        let cut = self.heads.get(n).map_or(self.items.len(), |h| h.1 as usize);
        self.items.drain(..cut);
        self.heads.drain(..n);
        for h in &mut self.heads {
            h.1 -= cut as u32;
        }
    }
}

impl TxnColumn {
    /// Appends a copy of `view`'s records as its transaction's entry.
    pub fn push_view(&mut self, view: WsView<'_>) {
        self.push(view.txn, view.iter());
    }

    /// Entry `i` as a borrow view.
    pub fn view(&self, i: usize) -> WsView<'_> {
        let (txn, records) = self.entry(i);
        WsView::rows(txn, records)
    }

    /// The entries from index `from` on (none past the end) as borrow
    /// views, oldest first.
    pub fn views_from(&self, from: usize) -> impl Iterator<Item = WsView<'_>> + '_ {
        (from.min(self.len())..self.len()).map(|i| self.view(i))
    }

    /// Every entry as a borrow view, oldest first.
    pub fn views(&self) -> impl Iterator<Item = WsView<'_>> + '_ {
        self.views_from(0)
    }

    /// Logical wire bytes of every entry.
    pub fn wire_size(&self) -> usize {
        self.views().map(|v| v.wire_size()).sum()
    }
}

impl<'a> FromIterator<WsView<'a>> for TxnColumn {
    fn from_iter<I: IntoIterator<Item = WsView<'a>>>(views: I) -> Self {
        let mut column = TxnColumn::new();
        views.into_iter().for_each(|v| column.push_view(v));
        column
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::{Key, Value};

    fn rec(k: u64) -> WriteRecord {
        WriteRecord {
            key: Key(k),
            value: Value(k as i64),
            version: 1,
        }
    }

    #[test]
    fn append_rebases_and_keeps_the_donor_capacity() {
        let mut a = TxnColumn::new();
        a.push(TxnId::new(1, 0), [rec(1), rec(2)]);
        let mut b = TxnColumn::new();
        b.push(TxnId::new(2, 0), [rec(3)]);
        b.push(TxnId::new(3, 0), []);
        let cap = b.items().1;
        a.append(&mut b);
        assert!(b.is_empty() && b.items().1 == cap);
        let got: Vec<(TxnId, Vec<WriteRecord>)> =
            a.views().map(|v| (v.txn, v.iter().collect())).collect();
        assert_eq!(
            got,
            vec![
                (TxnId::new(1, 0), vec![rec(1), rec(2)]),
                (TxnId::new(2, 0), vec![rec(3)]),
                (TxnId::new(3, 0), vec![]),
            ]
        );
        a.drop_front(2);
        assert_eq!(a.entry(0), (TxnId::new(3, 0), &[][..]));
        assert_eq!(a.items().0, 0);
    }

    #[test]
    fn a_column_grows_by_half_from_sixteen() {
        let mut c: TxnColumn<Key> = TxnColumn::new();
        c.push(TxnId::new(1, 0), [Key(1)]);
        assert_eq!(c.items().1, MIN_GROWTH);
        for i in 0..MIN_GROWTH as u64 {
            c.push(TxnId::new(i, 0), [Key(i)]);
        }
        assert_eq!(c.items().1, MIN_GROWTH * 2);
        for i in 0..MIN_GROWTH as u64 {
            c.push(TxnId::new(i, 0), [Key(i)]);
        }
        assert_eq!(c.items().1, MIN_GROWTH * 3);
    }
}
