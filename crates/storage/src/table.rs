//! A single table: a multiset of tuples keyed by handle.

use std::collections::BTreeMap;

use crate::schema::TableSchema;
use crate::tuple::{Tuple, TupleHandle};

/// A table holds zero or more tuples; duplicates are allowed (paper §2),
/// distinguished by their handles. Iteration order is handle order, which
/// equals insertion order because handles are issued monotonically — this
/// keeps scans and therefore the whole system deterministic.
#[derive(Debug, Clone)]
pub struct Table {
    /// The immutable schema.
    pub schema: TableSchema,
    rows: BTreeMap<TupleHandle, Tuple>,
}

impl Table {
    /// Create an empty table with the given schema.
    pub fn new(schema: TableSchema) -> Self {
        Table { schema, rows: BTreeMap::new() }
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Get the live tuple with handle `h`, if any.
    pub fn get(&self, h: TupleHandle) -> Option<&Tuple> {
        self.rows.get(&h)
    }

    /// Whether handle `h` identifies a live tuple.
    pub fn contains(&self, h: TupleHandle) -> bool {
        self.rows.contains_key(&h)
    }

    /// Insert a (pre-validated) tuple under handle `h`.
    ///
    /// Panics if `h` is already present — handles are unique by construction.
    pub(crate) fn insert(&mut self, h: TupleHandle, t: Tuple) {
        let prev = self.rows.insert(h, t);
        debug_assert!(prev.is_none(), "tuple handle reused");
    }

    /// Remove the tuple with handle `h`, returning it.
    pub(crate) fn remove(&mut self, h: TupleHandle) -> Option<Tuple> {
        self.rows.remove(&h)
    }

    /// Replace the tuple with handle `h`, returning the old tuple.
    pub(crate) fn replace(&mut self, h: TupleHandle, t: Tuple) -> Option<Tuple> {
        self.rows.get_mut(&h).map(|slot| std::mem::replace(slot, t))
    }

    /// The schema together with mutable access to the tuple with handle
    /// `h`, so an update can coerce its values in place.
    pub(crate) fn schema_and_row_mut(
        &mut self,
        h: TupleHandle,
    ) -> (&TableSchema, Option<&mut Tuple>) {
        (&self.schema, self.rows.get_mut(&h))
    }

    /// Scan the table in handle (= insertion) order.
    pub fn scan(&self) -> impl Iterator<Item = (TupleHandle, &Tuple)> {
        self.rows.iter().map(|(h, t)| (*h, t))
    }

    /// Scan the table in handle order, starting at handle `from`.
    pub fn scan_from(&self, from: TupleHandle) -> impl Iterator<Item = (TupleHandle, &Tuple)> {
        self.rows.range(from..).map(|(h, t)| (*h, t))
    }

    /// All live handles in order.
    pub fn handles(&self) -> impl Iterator<Item = TupleHandle> + '_ {
        self.rows.keys().copied()
    }

    /// Materialize the scan as an indexable vector in handle order — the
    /// shape partitioned parallel scans hand across worker threads, each
    /// worker reading a disjoint contiguous range.
    pub fn snapshot(&self) -> Vec<(TupleHandle, &Tuple)> {
        self.rows.iter().map(|(h, t)| (*h, t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::paper_example_schemas;
    use crate::tuple;

    #[test]
    fn insert_scan_remove() {
        let mut t = Table::new(paper_example_schemas().1);
        t.insert(TupleHandle(1), tuple![5, 100]);
        t.insert(TupleHandle(2), tuple![6, 101]);
        assert_eq!(t.len(), 2);
        let rows: Vec<_> = t.scan().map(|(h, _)| h).collect();
        assert_eq!(rows, vec![TupleHandle(1), TupleHandle(2)]);
        let removed = t.remove(TupleHandle(1)).unwrap();
        assert_eq!(removed, tuple![5, 100]);
        assert!(!t.contains(TupleHandle(1)));
        assert!(t.contains(TupleHandle(2)));
    }

    #[test]
    fn duplicates_coexist_under_distinct_handles() {
        let mut t = Table::new(paper_example_schemas().1);
        t.insert(TupleHandle(1), tuple![5, 100]);
        t.insert(TupleHandle(2), tuple![5, 100]);
        assert_eq!(t.len(), 2, "duplicate tuples may appear in a table (paper §2)");
    }

    #[test]
    fn replace_returns_old() {
        let mut t = Table::new(paper_example_schemas().1);
        t.insert(TupleHandle(1), tuple![5, 100]);
        let old = t.replace(TupleHandle(1), tuple![5, 200]).unwrap();
        assert_eq!(old, tuple![5, 100]);
        assert_eq!(t.get(TupleHandle(1)).unwrap(), &tuple![5, 200]);
    }
}
