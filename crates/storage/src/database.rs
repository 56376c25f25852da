//! The database: a catalog of tables plus the handle generator, handle
//! provenance, undo log, and index maintenance.
//!
//! This is the substrate the paper takes for granted (it was designed for
//! Starburst): all mutations flow through [`Database::insert`],
//! [`Database::delete`], and [`Database::update`], which validate types,
//! maintain indexes, log undo records, and preserve the invariant that
//! tuple handles are never reused (§2).

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::StorageError;
use crate::fault::{FaultInjector, FaultKind};
use crate::index::{ColumnIndex, IndexKind, OrderedIndex, TableIndexes};
use crate::schema::TableSchema;
use crate::stats::StorageStats;
use crate::table::Table;
use crate::tuple::{ColumnId, TableId, Tuple, TupleHandle};
use crate::undo::{UndoLog, UndoMark, UndoRecord};
use crate::value::Value;

/// An in-memory relational database.
#[derive(Debug, Default)]
pub struct Database {
    /// Table slots; `None` marks a dropped table (ids are never reused, so
    /// handle provenance stays meaningful).
    tables: Vec<Option<Table>>,
    indexes: Vec<TableIndexes>,
    by_name: HashMap<String, TableId>,
    /// Table provenance for every handle ever issued. Deleted tuples keep
    /// their provenance: transition effects must still know which table a
    /// deleted handle belonged to.
    provenance: HandleRuns,
    undo: UndoLog,
    stats: StorageStats,
    fault: FaultInjector,
}

/// Run-length handle provenance. Handles are issued densely from 1, and
/// bulk loads, set-oriented inserts and replay issue them a table at a
/// time, so provenance is kept as maximal runs of consecutive handles
/// belonging to one table: memory follows the number of table switches,
/// not the number of handles ever issued.
#[derive(Debug, Default)]
struct HandleRuns {
    /// `(first handle, table)` per run, ascending by first handle; adjacent
    /// runs name different tables. A run ends where the next one starts
    /// (the last one at `issued`).
    runs: Vec<(u64, TableId)>,
    /// Number of handles ever issued (= the highest handle value).
    issued: u64,
}

impl HandleRuns {
    /// Issue handles up to and including number `n`, all for table `t`
    /// (no-op when `n` handles were already issued).
    fn issue_through(&mut self, n: u64, t: TableId) {
        if n <= self.issued {
            return;
        }
        if self.runs.last().map(|r| r.1) != Some(t) {
            self.runs.push((self.issued + 1, t));
        }
        self.issued = n;
    }

    fn table_of(&self, h: TupleHandle) -> Option<TableId> {
        if h.0 == 0 || h.0 > self.issued {
            return None;
        }
        // Handle 1 starts the first run, so at least one run starts at or
        // below any issued handle.
        let run = self.runs.partition_point(|r| r.0 <= h.0) - 1;
        Some(self.runs[run].1)
    }
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    // ------------------------------------------------------------------
    // Catalog
    // ------------------------------------------------------------------

    /// Create a table. DDL is not transactional (it is not part of the
    /// paper's operation blocks, which contain only DML).
    pub fn create_table(&mut self, schema: TableSchema) -> Result<TableId, StorageError> {
        if self.by_name.contains_key(&schema.name) {
            return Err(StorageError::TableExists(schema.name));
        }
        let id = TableId(self.tables.len() as u32);
        self.by_name.insert(schema.name.clone(), id);
        self.tables.push(Some(Table::new(schema)));
        self.indexes.push(TableIndexes::new());
        Ok(id)
    }

    /// Drop a table and its indexes. DDL is not transactional; callers (the
    /// rule engine) must first ensure no production rule references the
    /// table. Its [`TableId`] is never reused.
    pub fn drop_table(&mut self, name: &str) -> Result<TableId, StorageError> {
        let id = self.table_id(name)?;
        self.by_name.remove(name);
        self.tables[id.0 as usize] = None;
        self.indexes[id.0 as usize] = TableIndexes::new();
        Ok(id)
    }

    /// The table with id `t`, if it has not been dropped.
    pub fn try_table(&self, t: TableId) -> Option<&Table> {
        self.tables.get(t.0 as usize).and_then(|s| s.as_ref())
    }

    /// Resolve a table name.
    pub fn table_id(&self, name: &str) -> Result<TableId, StorageError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    /// The table with id `t`.
    ///
    /// # Panics
    /// If the table has been dropped; use [`Database::try_table`] when a
    /// dropped table is possible.
    pub fn table(&self, t: TableId) -> &Table {
        self.tables[t.0 as usize].as_ref().expect("table was dropped")
    }

    /// The schema of table `t`.
    ///
    /// # Panics
    /// If the table has been dropped.
    pub fn schema(&self, t: TableId) -> &TableSchema {
        &self.table(t).schema
    }

    /// All table ids in creation order.
    pub fn table_ids(&self) -> impl Iterator<Item = TableId> + '_ {
        (0..self.tables.len() as u32).map(TableId)
    }

    /// The table a handle was issued for, whether or not the tuple is
    /// still live. `None` only for handles never issued.
    pub fn table_of(&self, h: TupleHandle) -> Option<TableId> {
        self.provenance.table_of(h)
    }

    /// Number of handles ever issued.
    pub fn handles_issued(&self) -> u64 {
        self.provenance.issued
    }

    // ------------------------------------------------------------------
    // Indexes
    // ------------------------------------------------------------------

    /// Create (and populate) a hash index on `t.c`.
    pub fn create_index(&mut self, t: TableId, c: ColumnId) -> Result<(), StorageError> {
        self.create_index_of(t, c, IndexKind::Hash)
    }

    /// Create (and populate) an index of the given kind on `t.c`.
    pub fn create_index_of(
        &mut self,
        t: TableId,
        c: ColumnId,
        kind: IndexKind,
    ) -> Result<(), StorageError> {
        let table = self.tables[t.0 as usize].as_ref().expect("table was dropped");
        if self.indexes[t.0 as usize].has(c) {
            return Err(StorageError::IndexExists {
                table: table.schema.name.clone(),
                column: table.schema.column_name(c).to_string(),
            });
        }
        // Bulk build counts as one index-maintenance site; polled before
        // anything is built, so a fault leaves the catalog untouched.
        self.fault.check(FaultKind::IndexMaintenance)?;
        let mut idx = ColumnIndex::new(kind);
        for (h, tuple) in table.scan() {
            idx.insert(tuple.get(c).clone(), h);
            self.stats.index_maintenance_ops += 1;
        }
        self.indexes[t.0 as usize].add(c, idx);
        Ok(())
    }

    /// Drop the index on `t.c`, if present. Returns whether one existed.
    pub fn drop_index(&mut self, t: TableId, c: ColumnId) -> bool {
        self.indexes[t.0 as usize].drop(c)
    }

    /// Whether `t.c` is indexed.
    pub fn has_index(&self, t: TableId, c: ColumnId) -> bool {
        self.indexes[t.0 as usize].has(c)
    }

    /// The kind of the index on `t.c`, if one exists.
    pub fn index_kind(&self, t: TableId, c: ColumnId) -> Option<IndexKind> {
        self.indexes[t.0 as usize].get(c).map(|i| i.kind())
    }

    /// The ordered index on `t.c`, if one exists *and* it is ordered.
    pub fn ordered_index(&self, t: TableId, c: ColumnId) -> Option<&OrderedIndex> {
        self.indexes[t.0 as usize].get(c).and_then(|i| i.ordered())
    }

    /// Whether `t.c` has an *ordered* index (the precondition for range
    /// access paths, sort elimination, and min/max short-circuits).
    pub fn has_ordered_index(&self, t: TableId, c: ColumnId) -> bool {
        self.ordered_index(t, c).is_some()
    }

    /// Scan the ordered index on `t.c` for handles of tuples whose column
    /// falls within `[lo, hi]` (storage total order; callers coerce bounds
    /// to the column type first). Handles come back sorted ascending.
    /// Returns `None` if the column has no ordered index.
    pub fn index_range(
        &self,
        t: TableId,
        c: ColumnId,
        lo: std::ops::Bound<Value>,
        hi: std::ops::Bound<Value>,
    ) -> Option<Vec<TupleHandle>> {
        self.ordered_index(t, c).map(|idx| idx.range_handles(lo, hi))
    }

    /// Probe the index on `t.c` for tuples whose column equals `v`
    /// (storage-level equality — callers coerce `v` to the column type
    /// first). Returns `None` if no index exists.
    pub fn index_lookup(&self, t: TableId, c: ColumnId, v: &Value) -> Option<Vec<TupleHandle>> {
        self.indexes[t.0 as usize]
            .get(c)
            .map(|idx| idx.get(v).map(|s| s.iter().copied().collect()).unwrap_or_default())
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    /// Insert a tuple into table `t`, returning its fresh handle.
    pub fn insert(&mut self, t: TableId, tuple: Tuple) -> Result<TupleHandle, StorageError> {
        let slot = self.tables[t.0 as usize].as_mut().expect("table was dropped");
        let tuple = slot.schema.check_tuple(tuple)?;
        // Every fault site this operation touches is polled before any
        // mutation, so an injected failure leaves the operation entirely
        // unapplied (single-operation atomicity by construction).
        self.fault.check(FaultKind::TupleInsert)?;
        self.fault.check(FaultKind::HandleAlloc)?;
        if !self.indexes[t.0 as usize].is_empty() {
            self.fault.check(FaultKind::IndexMaintenance)?;
        }
        self.fault.check(FaultKind::UndoAppend)?;
        let h = TupleHandle(self.provenance.issued + 1);
        self.provenance.issue_through(h.0, t);
        self.stats.index_maintenance_ops += self.indexes[t.0 as usize].on_insert(h, &tuple.0);
        self.tables[t.0 as usize].as_mut().expect("checked").insert(h, tuple);
        self.undo.push(UndoRecord::Insert { table: t, handle: h });
        self.stats.tuples_inserted += 1;
        self.stats.undo_records_written += 1;
        Ok(h)
    }

    /// Delete the tuple with handle `h` from table `t`, returning its
    /// final value — the one image the undo log also holds.
    pub fn delete(&mut self, t: TableId, h: TupleHandle) -> Result<Arc<Tuple>, StorageError> {
        {
            let slot = self.tables[t.0 as usize].as_ref().expect("table was dropped");
            if slot.get(h).is_none() {
                return Err(StorageError::NoSuchTuple { table: slot.schema.name.clone() });
            }
        }
        // Fault sites polled after validation, before any mutation (see
        // `insert`).
        self.fault.check(FaultKind::TupleDelete)?;
        if !self.indexes[t.0 as usize].is_empty() {
            self.fault.check(FaultKind::IndexMaintenance)?;
        }
        self.fault.check(FaultKind::UndoAppend)?;
        let slot = self.tables[t.0 as usize].as_mut().expect("checked");
        let old = Arc::new(slot.remove(h).expect("checked live"));
        self.stats.index_maintenance_ops += self.indexes[t.0 as usize].on_delete(h, &old.0);
        self.undo.push(UndoRecord::Delete { table: t, handle: h, old: Arc::clone(&old) });
        self.stats.tuples_deleted += 1;
        self.stats.undo_records_written += 1;
        Ok(old)
    }

    /// Apply column assignments to the tuple with handle `h` in table `t`,
    /// returning the tuple's value *before* the update (needed by the rule
    /// system's trans-info; §4.3) — the one image the undo log also holds.
    pub fn update(
        &mut self,
        t: TableId,
        h: TupleHandle,
        assignments: &[(ColumnId, Value)],
    ) -> Result<Arc<Tuple>, StorageError> {
        // Validate all assignments before mutating anything.
        {
            let schema = &self.table(t).schema;
            for (c, v) in assignments {
                schema.accepts(*c, v)?;
            }
        }
        {
            let table = self.tables[t.0 as usize].as_ref().expect("table was dropped");
            if table.get(h).is_none() {
                return Err(StorageError::NoSuchTuple { table: table.schema.name.clone() });
            }
        }
        // Fault sites polled after validation, before any mutation (see
        // `insert`).
        let indexed = !self.indexes[t.0 as usize].is_empty();
        self.fault.check(FaultKind::TupleUpdate)?;
        if indexed {
            self.fault.check(FaultKind::IndexMaintenance)?;
        }
        self.fault.check(FaultKind::UndoAppend)?;
        let table = self.tables[t.0 as usize].as_mut().expect("checked");
        let (schema, slot) = table.schema_and_row_mut(h);
        let slot = slot.expect("checked live");
        let old = Arc::new(slot.clone());
        for (c, v) in assignments {
            slot.set(*c, v.coerce_to(schema.column_type(*c)).expect("validated above"));
        }
        if indexed {
            self.stats.index_maintenance_ops +=
                self.indexes[t.0 as usize].on_update(h, &old.0, &slot.0);
        }
        self.undo.push(UndoRecord::Update { table: t, handle: h, old: Arc::clone(&old) });
        self.stats.tuples_updated += 1;
        self.stats.undo_records_written += 1;
        Ok(old)
    }

    /// Get the live tuple `h` in table `t`.
    pub fn get(&self, t: TableId, h: TupleHandle) -> Option<&Tuple> {
        self.try_table(t).and_then(|tab| tab.get(h))
    }

    // ------------------------------------------------------------------
    // Redo (WAL replay)
    // ------------------------------------------------------------------
    //
    // Physical redo entry points for write-ahead-log recovery. Unlike the
    // forward DML path they take the tuple handle as an *input* (replay
    // must reproduce the exact handles the original run issued, because
    // `state_image` prints them), write no undo records, and never poll
    // the fault injector — mirroring the undo-replay stance above that
    // recovery itself is assumed not to fail.

    /// Replay an insert of `tuple` into table `t` with the exact handle
    /// `h`. Intervening handle numbers consumed by other tables or by
    /// aborted transactions must already have been accounted for via
    /// [`Database::redo_handle_watermark`].
    pub fn redo_insert(
        &mut self,
        t: TableId,
        h: TupleHandle,
        tuple: Tuple,
    ) -> Result<(), StorageError> {
        let slot = self.tables[t.0 as usize].as_mut().expect("replay targets live table");
        let tuple = slot.schema.check_tuple(tuple)?;
        assert!(
            h.0 > self.provenance.issued,
            "redo_insert handle {} not above watermark {}",
            h.0,
            self.provenance.issued
        );
        // Any gap below `h` joins its run (handles burned by aborted txns
        // on other tables are normally covered by the watermark record;
        // within one committed txn handles are dense per the log order).
        self.provenance.issue_through(h.0, t);
        self.stats.index_maintenance_ops += self.indexes[t.0 as usize].on_insert(h, &tuple.0);
        self.tables[t.0 as usize].as_mut().expect("checked").insert(h, tuple);
        self.stats.tuples_inserted += 1;
        Ok(())
    }

    /// Replay a delete of the tuple with handle `h` from table `t`.
    pub fn redo_delete(&mut self, t: TableId, h: TupleHandle) -> Result<(), StorageError> {
        let slot = self.tables[t.0 as usize].as_mut().expect("replay targets live table");
        let Some(old) = slot.remove(h) else {
            return Err(StorageError::NoSuchTuple { table: slot.schema.name.clone() });
        };
        self.stats.index_maintenance_ops += self.indexes[t.0 as usize].on_delete(h, &old.0);
        self.stats.tuples_deleted += 1;
        Ok(())
    }

    /// Replay an update of the tuple with handle `h` in table `t` to the
    /// full new value `tuple` (WAL update records carry the whole tuple,
    /// not per-column assignments).
    pub fn redo_update(
        &mut self,
        t: TableId,
        h: TupleHandle,
        tuple: Tuple,
    ) -> Result<(), StorageError> {
        let slot = self.tables[t.0 as usize].as_mut().expect("replay targets live table");
        let tuple = slot.schema.check_tuple(tuple)?;
        let new_fields = tuple.0.clone();
        let Some(old) = slot.replace(h, tuple) else {
            return Err(StorageError::NoSuchTuple { table: slot.schema.name.clone() });
        };
        self.stats.index_maintenance_ops +=
            self.indexes[t.0 as usize].on_update(h, &old.0, &new_fields);
        self.stats.tuples_updated += 1;
        Ok(())
    }

    /// Replay a dropped table's id slot: consume the next [`TableId`]
    /// without creating a table, so tables created after it keep their
    /// original ids (ids are never reused). It takes no name, so it can
    /// never collide with a live table's.
    pub fn redo_dropped_table(&mut self) {
        self.tables.push(None);
        self.indexes.push(TableIndexes::new());
    }

    /// Advance the handle high-water mark to `n` handles issued, burning
    /// any numbers in between (with `filler` provenance). Commit and abort
    /// WAL records carry the watermark so replay reissues the exact same
    /// handle numbers the original run did, even across transactions that
    /// aborted (aborted inserts consume handles; §2's never-reuse rule).
    pub fn redo_handle_watermark(&mut self, n: u64, filler: TableId) {
        self.provenance.issue_through(n, filler);
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Record the current undo-log position. Rolling back to the mark
    /// undoes every mutation made after this call.
    pub fn mark(&self) -> UndoMark {
        self.undo.mark()
    }

    /// Undo every mutation made after `mark`, restoring tuples with their
    /// original handles.
    pub fn rollback_to(&mut self, mark: UndoMark) -> Result<(), StorageError> {
        if !self.undo.mark_valid(mark) {
            return Err(StorageError::InvalidMark);
        }
        let records: Vec<UndoRecord> = self.undo.drain_from(mark).collect();
        for rec in records {
            self.stats.undo_records_applied += 1;
            match rec {
                UndoRecord::Insert { table, handle } => {
                    let slot = self.tables[table.0 as usize].as_mut().expect("undo targets live table");
                    if let Some(old) = slot.remove(handle) {
                        self.stats.index_maintenance_ops +=
                            self.indexes[table.0 as usize].on_delete(handle, &old.0);
                    }
                }
                UndoRecord::Delete { table, handle, old } => {
                    self.stats.index_maintenance_ops +=
                        self.indexes[table.0 as usize].on_insert(handle, &old.0);
                    self.tables[table.0 as usize]
                        .as_mut()
                        .expect("undo targets live table")
                        .insert(handle, Arc::unwrap_or_clone(old));
                }
                UndoRecord::Update { table, handle, old } => {
                    let slot = self.tables[table.0 as usize].as_mut().expect("undo targets live table");
                    if let Some(new) = slot.replace(handle, Arc::unwrap_or_clone(old)) {
                        let old = slot.get(handle).expect("just restored");
                        self.stats.index_maintenance_ops +=
                            self.indexes[table.0 as usize].on_update(handle, &new.0, &old.0);
                    }
                }
            }
        }
        Ok(())
    }

    /// Forget the undo log (the transaction is durable).
    pub fn commit(&mut self) {
        self.undo.clear();
    }

    /// Number of undo records pending (0 right after commit).
    pub fn undo_len(&self) -> usize {
        self.undo.len()
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// Cumulative physical-work counters for this database's lifetime.
    /// Snapshot before a unit of work and use [`StorageStats::since`] for
    /// a delta.
    pub fn stats(&self) -> StorageStats {
        self.stats
    }

    /// The fault injector (counters and armed plan).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.fault
    }

    /// The fault injector, mutably (arm / disarm / reset counters).
    pub fn fault_injector_mut(&mut self) -> &mut FaultInjector {
        &mut self.fault
    }

    /// Canonical dump of the full logical database state: every live table
    /// in id order with its rows in handle order, plus every index's entry
    /// count and the handle set it returns for each live value. Two
    /// databases are logically identical iff their images are equal, so
    /// crash-consistency tests compare images before a faulted statement
    /// and after its rollback. Deliberately *excluded*: the undo log and
    /// the handle high-water mark (handles are never reused, so a rolled
    /// back insert legitimately consumes handle numbers).
    pub fn state_image(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for t in self.table_ids() {
            let Some(table) = self.try_table(t) else { continue };
            let _ = writeln!(out, "table {} (id {})", table.schema.name, t.0);
            for (h, tuple) in table.scan() {
                let _ = write!(out, "  {}:", h.0);
                for v in &tuple.0 {
                    let _ = write!(out, " {v:?}");
                }
                out.push('\n');
            }
            let mut cols: Vec<ColumnId> = self.indexes[t.0 as usize].columns().collect();
            cols.sort_by_key(|c| c.index());
            for c in cols {
                let idx = self.indexes[t.0 as usize].get(c).expect("listed column is indexed");
                let _ = writeln!(
                    out,
                    "  index on {} kind={} entries={}",
                    table.schema.column_name(c),
                    idx.kind(),
                    idx.len()
                );
                // Ordered indexes additionally expose their key sequence:
                // BTree ordering corruption shows up here even when every
                // per-value probe still answers correctly.
                if let Some(ord) = idx.ordered() {
                    let keys: Vec<String> = ord.keys().map(|k| format!("{k:?}")).collect();
                    let _ = writeln!(out, "    order: [{}]", keys.join(", "));
                }
                // Probing every live value proves the index agrees with the
                // table; the entry count above catches ghost entries for
                // values no live row holds.
                for (h, tuple) in table.scan() {
                    let hs = self
                        .index_lookup(t, c, tuple.get(c))
                        .expect("listed column is indexed");
                    let _ = writeln!(out, "    {}@{:?} -> {:?}", h.0, tuple.get(c), hs);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::paper_example_schemas;
    use crate::tuple;

    fn db_with_emp() -> (Database, TableId) {
        let mut db = Database::new();
        let (emp, dept) = paper_example_schemas();
        let emp = db.create_table(emp).unwrap();
        db.create_table(dept).unwrap();
        (db, emp)
    }

    #[test]
    fn handles_are_monotone_and_never_reused() {
        let (mut db, emp) = db_with_emp();
        let h1 = db.insert(emp, tuple!["Jane", 1, 95000.0, 1]).unwrap();
        let h2 = db.insert(emp, tuple!["Mary", 2, 85000.0, 1]).unwrap();
        assert!(h2 > h1);
        db.delete(emp, h1).unwrap();
        let h3 = db.insert(emp, tuple!["Jane", 1, 95000.0, 1]).unwrap();
        assert!(h3 > h2, "re-inserting the same value yields a fresh handle");
        assert_eq!(db.table_of(h1), Some(emp), "provenance survives deletion");
    }

    #[test]
    fn provenance_memory_follows_table_switches_not_handles() {
        let mut runs = HandleRuns::default();
        let tables = [TableId(0), TableId(1)];
        for block in 0..1_000u64 {
            for _ in 0..1_000 {
                runs.issue_through(runs.issued + 1, tables[(block % 2) as usize]);
            }
        }
        assert_eq!(runs.issued, 1_000_000);
        assert!(runs.runs.len() <= 1_000, "{} runs", runs.runs.len());
        for block in 0..1_000u64 {
            let want = Some(tables[(block % 2) as usize]);
            assert_eq!(runs.table_of(TupleHandle(block * 1_000 + 1)), want, "block {block} start");
            assert_eq!(runs.table_of(TupleHandle(block * 1_000 + 1_000)), want, "block {block} end");
        }
        // Same-table blocks merge into the run before them.
        runs.issue_through(runs.issued + 500, tables[1]);
        assert!(runs.runs.len() <= 1_000);
        assert_eq!(runs.table_of(TupleHandle(1_000_500)), Some(tables[1]));
        assert_eq!(runs.table_of(TupleHandle(1_000_501)), None);
    }

    #[test]
    fn table_of_covers_live_deleted_rolled_back_gap_and_unissued_handles() {
        let (mut db, emp) = db_with_emp();
        let dept = db.table_id("dept").unwrap();
        assert_eq!(db.table_of(TupleHandle(0)), None, "handles start at 1");
        assert_eq!(db.table_of(TupleHandle(1)), None, "nothing issued yet");
        let live = db.insert(emp, tuple!["Jane", 1, 95000.0, 1]).unwrap();
        let deleted = db.insert(dept, tuple![1, 1]).unwrap();
        db.delete(dept, deleted).unwrap();
        db.commit();
        let mark = db.mark();
        let rolled_back = db.insert(emp, tuple!["Mary", 2, 85000.0, 1]).unwrap();
        db.rollback_to(mark).unwrap();
        assert_eq!(db.table_of(live), Some(emp));
        assert_eq!(db.table_of(deleted), Some(dept));
        assert_eq!(db.table_of(rolled_back), Some(emp), "a rolled-back insert burned its handle");
        assert_eq!(db.handles_issued(), 3);

        // Replay: a watermark burns 4..=6 under the filler table, then an
        // insert at 9 takes the gap 7..=8 into its own run.
        db.redo_handle_watermark(6, dept);
        db.redo_handle_watermark(2, emp); // below the mark: no effect
        assert_eq!(db.handles_issued(), 6);
        db.redo_insert(emp, TupleHandle(9), tuple!["Lee", 3, 70000.0, 2]).unwrap();
        assert_eq!(db.handles_issued(), 9);
        for (h, want) in [(4, dept), (6, dept), (7, emp), (8, emp), (9, emp)] {
            assert_eq!(db.table_of(TupleHandle(h)), Some(want), "handle {h}");
        }
        assert_eq!(db.table_of(TupleHandle(10)), None, "never issued");
        let next = db.insert(dept, tuple![2, 2]).unwrap();
        assert_eq!((next, db.table_of(next)), (TupleHandle(10), Some(dept)));
        assert_eq!(db.provenance.runs.len(), 6, "{:?}", db.provenance.runs);
    }

    #[test]
    fn type_checking_on_insert_and_update() {
        let (mut db, emp) = db_with_emp();
        assert!(db.insert(emp, tuple!["Jane", "not an int", 1.0, 1]).is_err());
        let h = db.insert(emp, tuple!["Jane", 1, 95000, 1]).unwrap();
        // Int 95000 was coerced into the float column.
        assert_eq!(db.get(emp, h).unwrap().get(ColumnId(2)), &Value::Float(95000.0));
        assert!(db.update(emp, h, &[(ColumnId(1), Value::Text("x".into()))]).is_err());
        let old = db.update(emp, h, &[(ColumnId(2), Value::Float(99000.0))]).unwrap();
        assert_eq!(old.get(ColumnId(2)), &Value::Float(95000.0));
    }

    #[test]
    fn update_failed_validation_mutates_nothing() {
        let (mut db, emp) = db_with_emp();
        let h = db.insert(emp, tuple!["Jane", 1, 95000.0, 1]).unwrap();
        let before = db.get(emp, h).unwrap().clone();
        let res = db.update(
            emp,
            h,
            &[(ColumnId(2), Value::Float(0.0)), (ColumnId(1), Value::Text("bad".into()))],
        );
        assert!(res.is_err());
        assert_eq!(db.get(emp, h).unwrap(), &before);
    }

    #[test]
    fn rollback_restores_exact_state_and_handles() {
        let (mut db, emp) = db_with_emp();
        let h1 = db.insert(emp, tuple!["Jane", 1, 95000.0, 1]).unwrap();
        db.commit();
        let mark = db.mark();
        let h2 = db.insert(emp, tuple!["Mary", 2, 85000.0, 1]).unwrap();
        db.update(emp, h1, &[(ColumnId(2), Value::Float(1.0))]).unwrap();
        db.delete(emp, h1).unwrap();
        db.rollback_to(mark).unwrap();
        assert!(db.get(emp, h2).is_none());
        assert_eq!(db.get(emp, h1).unwrap(), &tuple!["Jane", 1, 95000.0, 1]);
        assert_eq!(db.table(emp).len(), 1);
    }

    #[test]
    fn rollback_maintains_indexes() {
        let (mut db, emp) = db_with_emp();
        let dept_no = ColumnId(3);
        db.create_index(emp, dept_no).unwrap();
        let h1 = db.insert(emp, tuple!["Jane", 1, 95000.0, 1]).unwrap();
        db.commit();
        let mark = db.mark();
        db.update(emp, h1, &[(dept_no, Value::Int(2))]).unwrap();
        let h2 = db.insert(emp, tuple!["Mary", 2, 85000.0, 2]).unwrap();
        assert_eq!(db.index_lookup(emp, dept_no, &Value::Int(2)).unwrap(), vec![h1, h2]);
        db.rollback_to(mark).unwrap();
        assert_eq!(db.index_lookup(emp, dept_no, &Value::Int(2)).unwrap(), Vec::<TupleHandle>::new());
        assert_eq!(db.index_lookup(emp, dept_no, &Value::Int(1)).unwrap(), vec![h1]);
    }

    #[test]
    fn index_populated_on_creation() {
        let (mut db, emp) = db_with_emp();
        let h1 = db.insert(emp, tuple!["Jane", 1, 95000.0, 7]).unwrap();
        db.insert(emp, tuple!["Mary", 2, 85000.0, 8]).unwrap();
        db.create_index(emp, ColumnId(3)).unwrap();
        assert_eq!(db.index_lookup(emp, ColumnId(3), &Value::Int(7)).unwrap(), vec![h1]);
        assert!(db.create_index(emp, ColumnId(3)).is_err());
        assert!(db.drop_index(emp, ColumnId(3)));
        assert!(db.index_lookup(emp, ColumnId(3), &Value::Int(7)).is_none());
    }

    #[test]
    fn injected_fault_leaves_single_op_unapplied() {
        use crate::fault::FaultKind;
        let (mut db, emp) = db_with_emp();
        db.create_index(emp, ColumnId(3)).unwrap();
        let h = db.insert(emp, tuple!["Jane", 1, 95000.0, 1]).unwrap();
        db.commit();
        let image = db.state_image();
        let undo_before = db.undo_len();
        // Each DML entry point polls every site before mutating: whichever
        // site fires, the operation must be a complete no-op.
        for kind in FaultKind::ALL {
            for (op, expect_hit) in [
                ("insert", true),
                ("delete", true),
                ("update", true),
            ] {
                db.fault_injector_mut().reset_counts();
                db.fault_injector_mut().arm(kind, 1);
                let res: Result<(), StorageError> = match op {
                    "insert" => db.insert(emp, tuple!["Mary", 2, 1.0, 1]).map(|_| ()),
                    "delete" => db.delete(emp, h).map(|_| ()),
                    _ => db.update(emp, h, &[(ColumnId(2), Value::Float(1.0))]).map(|_| ()),
                };
                db.fault_injector_mut().disarm();
                let applies = match (kind, op) {
                    (FaultKind::TupleInsert | FaultKind::HandleAlloc, o) => o == "insert",
                    (FaultKind::TupleDelete, o) => o == "delete",
                    (FaultKind::TupleUpdate, o) => o == "update",
                    // WAL sites are polled by the engine's durability
                    // layer, never by the raw Database DML path.
                    (FaultKind::WalAppend | FaultKind::WalSync, _) => false,
                    _ => expect_hit, // UndoAppend / IndexMaintenance hit all three
                };
                if applies {
                    assert!(
                        matches!(res, Err(StorageError::FaultInjected { .. })),
                        "{kind} should fail {op}"
                    );
                    assert_eq!(db.state_image(), image, "{kind}/{op} left partial effects");
                    assert_eq!(db.undo_len(), undo_before, "{kind}/{op} logged undo");
                } else {
                    // The op succeeded; undo it so the next round starts clean.
                    assert!(res.is_ok(), "{kind} should not affect {op}");
                    let m = crate::undo::UndoMark(undo_before);
                    db.rollback_to(m).unwrap();
                    assert_eq!(db.state_image(), image);
                }
            }
        }
        assert!(db.fault_injector().injected() > 0);
    }

    #[test]
    fn faulted_index_build_leaves_catalog_unchanged() {
        use crate::fault::FaultKind;
        let (mut db, emp) = db_with_emp();
        db.insert(emp, tuple!["Jane", 1, 95000.0, 1]).unwrap();
        db.fault_injector_mut().arm(FaultKind::IndexMaintenance, 1);
        assert!(matches!(
            db.create_index(emp, ColumnId(3)),
            Err(StorageError::FaultInjected { .. })
        ));
        db.fault_injector_mut().disarm();
        assert!(!db.has_index(emp, ColumnId(3)));
        db.create_index(emp, ColumnId(3)).unwrap();
        assert!(db.has_index(emp, ColumnId(3)));
    }

    #[test]
    fn state_image_distinguishes_logical_state_only() {
        let (mut db, emp) = db_with_emp();
        let h = db.insert(emp, tuple!["Jane", 1, 95000.0, 1]).unwrap();
        db.commit();
        let image = db.state_image();
        let m = db.mark();
        let h2 = db.insert(emp, tuple!["Mary", 2, 85000.0, 1]).unwrap();
        assert_ne!(db.state_image(), image, "image reflects live rows");
        db.rollback_to(m).unwrap();
        assert_eq!(db.state_image(), image, "rollback restores the image");
        assert!(db.handles_issued() >= h2.0, "handle high-water mark excluded by design");
        let _ = h;
    }

    #[test]
    fn ordered_index_range_and_rollback() {
        use std::ops::Bound;
        let (mut db, emp) = db_with_emp();
        let salary = ColumnId(2);
        let h1 = db.insert(emp, tuple!["Jane", 1, 95000.0, 1]).unwrap();
        let h2 = db.insert(emp, tuple!["Mary", 2, 85000.0, 1]).unwrap();
        db.create_index_of(emp, salary, IndexKind::Ordered).unwrap();
        assert_eq!(db.index_kind(emp, salary), Some(IndexKind::Ordered));
        assert!(db.has_ordered_index(emp, salary));
        // Range probing sees the bulk-built contents.
        assert_eq!(
            db.index_range(emp, salary, Bound::Included(Value::Float(90000.0)), Bound::Unbounded)
                .unwrap(),
            vec![h1]
        );
        // Equality probes keep working through the common interface.
        assert_eq!(db.index_lookup(emp, salary, &Value::Float(85000.0)).unwrap(), vec![h2]);
        db.commit();

        let image = db.state_image();
        assert!(image.contains("kind=ordered"), "state image names the kind:\n{image}");
        assert!(image.contains("order: ["), "state image lists the key order:\n{image}");
        let mark = db.mark();
        let h3 = db.insert(emp, tuple!["Lee", 3, 70000.0, 2]).unwrap();
        db.update(emp, h2, &[(salary, Value::Float(99000.0))]).unwrap();
        db.delete(emp, h1).unwrap();
        assert_eq!(
            db.index_range(emp, salary, Bound::Unbounded, Bound::Excluded(Value::Float(80000.0)))
                .unwrap(),
            vec![h3]
        );
        db.rollback_to(mark).unwrap();
        assert_eq!(db.state_image(), image, "rollback restores ordered-index contents");
    }

    #[test]
    fn hash_index_has_no_ordered_capabilities() {
        let (mut db, emp) = db_with_emp();
        db.create_index(emp, ColumnId(3)).unwrap();
        assert_eq!(db.index_kind(emp, ColumnId(3)), Some(IndexKind::Hash));
        assert!(!db.has_ordered_index(emp, ColumnId(3)));
        assert!(db
            .index_range(emp, ColumnId(3), std::ops::Bound::Unbounded, std::ops::Bound::Unbounded)
            .is_none());
    }

    #[test]
    fn commit_invalidates_older_marks() {
        let (mut db, emp) = db_with_emp();
        let mark = db.mark();
        db.insert(emp, tuple!["Jane", 1, 95000.0, 1]).unwrap();
        db.insert(emp, tuple!["Mary", 2, 1.0, 1]).unwrap();
        db.commit();
        // Mark 0 is still "valid" (log empty, nothing to undo).
        db.rollback_to(mark).unwrap();
        assert_eq!(db.table(emp).len(), 2, "committed work survives");
    }
}
