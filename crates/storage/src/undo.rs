//! Physical undo logging for transaction rollback.
//!
//! §4 of the paper: "If a rule with a rollback action is executed, the
//! system immediately rolls back to the start state for the transaction."
//! We log every physical mutation; rolling back replays the log in reverse,
//! restoring tuples *with their original handles* (safe because handles are
//! never reissued).
//!
//! Marks are also used at *statement* granularity: the query layer takes a
//! mark before applying a multi-row DML statement and rolls back to it if
//! any row fails, so a statement never leaves partial effects inside an
//! otherwise-live transaction (see `docs/robustness.md`).

use std::sync::Arc;

use crate::tuple::{TableId, Tuple, TupleHandle};

/// One logged physical mutation. The old image of a deleted or updated
/// tuple is built once and shared: the statement's effect and every rule
/// window that records the change hold the same `Arc`, and rollback takes
/// it back without a copy when no one else still holds it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names (table/handle/old) are self-describing
pub enum UndoRecord {
    /// A tuple was inserted; undo removes it.
    Insert { table: TableId, handle: TupleHandle },
    /// A tuple was deleted; undo re-inserts `old` under the same handle.
    Delete { table: TableId, handle: TupleHandle, old: Arc<Tuple> },
    /// A tuple was replaced; undo restores `old`.
    Update { table: TableId, handle: TupleHandle, old: Arc<Tuple> },
}

/// A position in the undo log; rolling back to a mark undoes everything
/// logged after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct UndoMark(pub(crate) usize);

/// An append-only log of physical mutations since the last commit.
#[derive(Debug, Clone, Default)]
pub struct UndoLog {
    records: Vec<UndoRecord>,
}

impl UndoLog {
    /// Create an empty log.
    pub fn new() -> Self {
        UndoLog::default()
    }

    /// Number of records currently logged.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Append a record.
    pub fn push(&mut self, r: UndoRecord) {
        self.records.push(r);
    }

    /// The current position; pass to [`UndoLog::drain_from`] to undo back
    /// to this point.
    pub fn mark(&self) -> UndoMark {
        UndoMark(self.records.len())
    }

    /// Whether a mark is still within the log.
    pub fn mark_valid(&self, m: UndoMark) -> bool {
        m.0 <= self.records.len()
    }

    /// Remove and return, newest first, all records after `mark`.
    pub fn drain_from(&mut self, m: UndoMark) -> impl Iterator<Item = UndoRecord> + '_ {
        self.records.drain(m.0..).rev()
    }

    /// Discard all records (transaction committed).
    pub fn clear(&mut self) {
        self.records.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn mark_and_drain() {
        let mut log = UndoLog::new();
        log.push(UndoRecord::Insert { table: TableId(0), handle: TupleHandle(1) });
        let m = log.mark();
        log.push(UndoRecord::Insert { table: TableId(0), handle: TupleHandle(2) });
        let old = Arc::new(tuple![1]);
        log.push(UndoRecord::Delete { table: TableId(0), handle: TupleHandle(1), old });
        let drained: Vec<_> = log.drain_from(m).collect();
        assert_eq!(drained.len(), 2);
        // Newest first.
        assert!(matches!(drained[0], UndoRecord::Delete { .. }));
        assert!(matches!(drained[1], UndoRecord::Insert { handle: TupleHandle(2), .. }));
        assert_eq!(log.len(), 1);
        assert!(log.mark_valid(m));
        assert!(!log.mark_valid(UndoMark(5)));
    }
}
