//! Tuples and tuple handles.
//!
//! §2 of the paper: "we assume that associated with each tuple is a system
//! *tuple handle* — a distinct, non-reusable value identifying the tuple and
//! its containing table." Handles identify tuples across states: a handle of
//! a deleted tuple still names that (former) tuple in transition effects.

use std::fmt;
use std::sync::Arc;

use crate::value::Value;

/// A distinct, non-reusable identifier for a tuple (paper §2).
///
/// Handles are issued by [`crate::Database`] from a monotone counter and are
/// never reused, even after the tuple is deleted — transition effects and
/// transition tables rely on this to name tuples from previous states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleHandle(pub u64);

impl fmt::Display for TupleHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Identifies a table within a [`crate::Database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u32);

/// Identifies a column within a table (position in the schema).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColumnId(pub u16);

impl ColumnId {
    /// The column position as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A tuple: one value per column of its table, in schema order.
///
/// Duplicate tuples may appear in a table (paper §2); identity is carried by
/// the [`TupleHandle`], not the values.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tuple(pub Vec<Value>);

impl Tuple {
    /// Build a tuple from any values convertible to [`Value`].
    pub fn new(values: Vec<Value>) -> Self {
        Tuple(values)
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Field at column `c`.
    pub fn get(&self, c: ColumnId) -> &Value {
        &self.0[c.index()]
    }

    /// Replace field at column `c`, returning the old value.
    pub fn set(&mut self, c: ColumnId, v: Value) -> Value {
        std::mem::replace(&mut self.0[c.index()], v)
    }

    /// Iterate over the fields in schema order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.0.iter()
    }

    /// The fields as a read-only slice — the shape the query layer's
    /// parallel row-local evaluation shares across worker threads.
    pub fn as_slice(&self) -> &[Value] {
        &self.0
    }
}

/// A sorted, duplicate-free set of columns, shared by reference count.
///
/// One statement assigns (or reads through one `from` item) the same
/// columns for every tuple it touches, so the statement builds the set
/// once and every per-tuple record — the statement's effect, each rule
/// window's entry — holds a clone of the same allocation. A union copies
/// only when the other side adds a column.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ColumnSet(Arc<[ColumnId]>);

impl ColumnSet {
    /// Whether `c` is in the set.
    pub fn contains(&self, c: &ColumnId) -> bool {
        self.0.binary_search(c).is_ok()
    }

    /// The columns in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = &ColumnId> {
        self.0.iter()
    }

    /// The columns in ascending order, as a slice.
    pub fn as_slice(&self) -> &[ColumnId] {
        &self.0
    }

    /// `self ∪ other`, sharing one side's allocation when it already
    /// covers the other.
    pub fn union(&self, other: &ColumnSet) -> ColumnSet {
        let covers = |a: &ColumnSet, b: &ColumnSet| b.iter().all(|c| a.contains(c));
        if Arc::ptr_eq(&self.0, &other.0) || covers(self, other) {
            self.clone()
        } else if covers(other, self) {
            other.clone()
        } else {
            self.iter().chain(other.iter()).copied().collect()
        }
    }
}

impl FromIterator<ColumnId> for ColumnSet {
    fn from_iter<T: IntoIterator<Item = ColumnId>>(iter: T) -> Self {
        let mut cols: Vec<ColumnId> = iter.into_iter().collect();
        cols.sort_unstable();
        cols.dedup();
        ColumnSet(cols.into())
    }
}

impl<'a> IntoIterator for &'a ColumnSet {
    type Item = &'a ColumnId;
    type IntoIter = std::slice::Iter<'a, ColumnId>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl fmt::Debug for ColumnSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.0.iter()).finish()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl<V: Into<Value>> FromIterator<V> for Tuple {
    fn from_iter<T: IntoIterator<Item = V>>(iter: T) -> Self {
        Tuple(iter.into_iter().map(Into::into).collect())
    }
}

/// Convenience macro for building tuples in tests and examples.
///
/// ```
/// use setrules_storage::{tuple, Value};
/// let t = tuple!["Jane", 1, 95000.0];
/// assert_eq!(t.0[0], Value::Text("Jane".into()));
/// ```
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_accessors() {
        let mut t = tuple![1, "a", 2.0];
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(ColumnId(1)), &Value::Text("a".into()));
        let old = t.set(ColumnId(0), Value::Int(9));
        assert_eq!(old, Value::Int(1));
        assert_eq!(t.get(ColumnId(0)), &Value::Int(9));
    }

    #[test]
    fn display() {
        let t = tuple!["Jane", 1];
        assert_eq!(t.to_string(), "('Jane', 1)");
    }

    #[test]
    fn column_sets_share_until_a_union_adds_a_column() {
        let ab: ColumnSet = [ColumnId(1), ColumnId(0), ColumnId(1)].into_iter().collect();
        assert_eq!(ab.as_slice(), &[ColumnId(0), ColumnId(1)]);
        assert!(ab.contains(&ColumnId(1)) && !ab.contains(&ColumnId(2)));
        let b: ColumnSet = [ColumnId(1)].into_iter().collect();
        assert!(Arc::ptr_eq(&ab.union(&b).0, &ab.0), "a covered union shares the left side");
        assert!(Arc::ptr_eq(&b.union(&ab).0, &ab.0), "a covering right side is shared");
        let c: ColumnSet = [ColumnId(2)].into_iter().collect();
        assert_eq!(ab.union(&c).as_slice(), &[ColumnId(0), ColumnId(1), ColumnId(2)]);
    }

    #[test]
    fn handles_order_by_issue_time() {
        assert!(TupleHandle(1) < TupleHandle(2));
        assert_eq!(TupleHandle(7).to_string(), "#7");
    }
}
