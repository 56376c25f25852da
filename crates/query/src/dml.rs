//! DML execution with affected-set capture (paper §2.1).
//!
//! Every operation runs in two phases:
//!
//! 1. **Read** (immutable): find the tuples the statement acts on in the
//!    pre-operation state, and compute what it will write. The paper's
//!    operational definitions say it this way: "the tuples … satisfying
//!    the given predicate are identified", then changed. An update
//!    therefore cannot observe its own writes. `delete` and `update`
//!    identify their targets through the same planned read
//!    ([`crate::plan::plan_read`]) and `scan → join → filter` chain a
//!    one-item `select … where` lowers to ([`crate::select::lower_read`]):
//!    the filter's surviving rows, borrowed from the database, are the
//!    pre-statement tuples and carry their handles. `delete` takes the
//!    handles; `update` evaluates its compiled `set` expressions over the
//!    borrowed rows (over an owned scope level only when one of them is
//!    not row-local); `insert … (select …)` runs the whole select.
//! 2. **Apply** (mutable): perform the mutations under a statement
//!    savepoint, capturing old values.
//!
//! This module owns only what is DML-specific: resolving `set` columns,
//! evaluating the `set` expressions, the mutation phase, and the effect
//! capture around it. Access paths, predicate evaluation, exchange and
//! operator statistics all belong to the operator tree in [`crate::exec`]
//! (see `docs/query-pipeline.md`).
//!
//! The result of an operation is an [`OpEffect`]: the paper's *affected
//! set*, enriched with the old tuple values the rule system needs for its
//! transition information (§4.3) — so no historical database states are
//! ever retained. Each old value is the image the storage layer built once
//! for its undo log, shared by reference count, and the columns an
//! `update` assigns are one [`ColumnSet`] per statement.

use std::sync::Arc;

use setrules_sql::ast::{
    DeleteStmt, DmlOp, InsertSource, InsertStmt, SelectStmt, TableRef, UpdateStmt,
};
use setrules_storage::{ColumnId, ColumnSet, Database, TableId, Tuple, TupleHandle, Value};

use crate::bindings::Bindings;
use crate::compile::{self, compile, is_rowlocal, CompiledExpr, Env, Layout, RowEnv, Scoped};
use crate::ctx::{QueryCtx, SubqueryCache};
use crate::error::QueryError;
use crate::exec::filter::FilterExec;
use crate::exec::scan::FromItem;
use crate::exec::{ExecCx, Executor};
use crate::plan::{plan_read, ReadPlan};
use crate::provider::TransitionTableProvider;
use crate::refs::referenced_columns;
use crate::relation::Relation;
use crate::select::{lower_read, run_select, run_select_traced};
use crate::stats::{OpStatsCell, StatsCell};

/// The affected set of one executed operation, with captured old values.
#[derive(Debug, Clone, PartialEq)]
pub enum OpEffect {
    /// Tuples inserted into `table` (values live in the database).
    Insert {
        /// Target table.
        table: TableId,
        /// Handles of the inserted tuples.
        handles: Vec<TupleHandle>,
    },
    /// Tuples deleted from `table`, with their final values.
    Delete {
        /// Target table.
        table: TableId,
        /// Deleted handles and the tuples' values at deletion time (the
        /// undo log's image, shared).
        tuples: Vec<(TupleHandle, Arc<Tuple>)>,
    },
    /// Tuples updated in `table`. Per the paper, a tuple/column pair is
    /// affected even if the assigned value equals the old one.
    Update {
        /// Target table.
        table: TableId,
        /// The columns the statement assigns — the same for every tuple.
        columns: ColumnSet,
        /// Updated handle and the tuple's pre-update value (the undo
        /// log's image, shared).
        tuples: Vec<(TupleHandle, Arc<Tuple>)>,
    },
    /// A data retrieval (§5.1 extension): the tuples/columns read and the
    /// query output.
    Select {
        /// `(table, handle, columns)` for every stored tuple that
        /// contributed to a result row, in first-read order. The columns
        /// are the union of those referenced through each top-level `from`
        /// item the tuple contributed through (`None` = all columns); a
        /// tuple read through one item shares that item's set.
        reads: Vec<(TableId, TupleHandle, Option<ColumnSet>)>,
        /// The materialized result.
        output: Relation,
    },
}

impl OpEffect {
    /// Number of affected tuples (result rows for `select`).
    pub fn cardinality(&self) -> usize {
        match self {
            OpEffect::Insert { handles, .. } => handles.len(),
            OpEffect::Delete { tuples, .. } => tuples.len(),
            OpEffect::Update { tuples, .. } => tuples.len(),
            OpEffect::Select { output, .. } => output.len(),
        }
    }
}

/// How a statement executes: stats sinks and the thread budget for
/// deterministic intra-query parallelism (see `exec::exchange`).
/// `ExecOpts::default()` is a plain serial run with no instrumentation.
#[derive(Clone, Copy)]
pub struct ExecOpts<'a> {
    /// Optional statistics accumulator.
    pub stats: Option<&'a StatsCell>,
    /// Thread budget for read-only query phases (clamped to at least 1;
    /// `1` means fully serial execution).
    pub threads: usize,
    /// Optional per-operator counter map: every operator of the lowered
    /// [`crate::exec`] tree attributes its batches and row flow here, on
    /// a side channel separate from the aggregate `stats`.
    pub op_stats: Option<&'a OpStatsCell>,
}

impl Default for ExecOpts<'_> {
    fn default() -> Self {
        ExecOpts { stats: None, threads: 1, op_stats: None }
    }
}

impl<'a> ExecOpts<'a> {
    /// The evaluation context for one statement under these options —
    /// the only place options become a [`QueryCtx`], so no execution path
    /// can drop one of them. `cache` is the statement's subquery memo.
    pub fn ctx<'c>(
        &self,
        db: &'c Database,
        virt: &'c dyn TransitionTableProvider,
        cache: &'c SubqueryCache,
    ) -> QueryCtx<'c>
    where
        'a: 'c,
    {
        QueryCtx {
            db,
            virt,
            cache: Some(cache),
            stats: self.stats,
            op_stats: self.op_stats,
            threads: self.threads.max(1),
        }
    }
}

/// Execute one SQL operation against the database, returning its effect.
/// Only the read phase (the operator tree) ever uses more than one
/// thread; mutation is always applied serially.
pub fn execute_op(
    db: &mut Database,
    virt: &dyn TransitionTableProvider,
    op: &DmlOp,
    opts: &ExecOpts,
) -> Result<OpEffect, QueryError> {
    match op {
        DmlOp::Insert(s) => execute_insert(db, virt, s, opts),
        DmlOp::Delete(s) => execute_delete(db, virt, s, opts),
        DmlOp::Update(s) => execute_update(db, virt, s, opts),
        DmlOp::Select(s) => execute_select_op(db, virt, s, opts),
    }
}

/// Run a read-only `select` (no effect tracking).
pub fn execute_query(
    db: &Database,
    virt: &dyn TransitionTableProvider,
    stmt: &SelectStmt,
    opts: &ExecOpts,
) -> Result<Relation, QueryError> {
    let cache = SubqueryCache::new();
    run_select(opts.ctx(db, virt, &cache), stmt, &mut Bindings::new())
}

/// Run the apply phase of a statement under a statement-level savepoint:
/// if any row fails (type error, injected fault, …), the database is
/// rolled back to the pre-statement state before the error propagates, so
/// a multi-row statement never leaves partial effects inside an
/// otherwise-live transaction (see `docs/robustness.md`).
fn apply_atomically<T>(
    db: &mut Database,
    apply: impl FnOnce(&mut Database) -> Result<T, QueryError>,
) -> Result<T, QueryError> {
    let sp = db.mark();
    match apply(db) {
        Ok(v) => Ok(v),
        Err(e) => {
            // The mark was taken on this same log and nothing commits
            // mid-statement, so it is always still valid.
            db.rollback_to(sp).expect("statement savepoint is valid");
            Err(e)
        }
    }
}

fn execute_insert(
    db: &mut Database,
    virt: &dyn TransitionTableProvider,
    stmt: &InsertStmt,
    opts: &ExecOpts,
) -> Result<OpEffect, QueryError> {
    let table = db.table_id(&stmt.table)?;
    let arity = db.schema(table).arity();

    // Phase 1: compute the rows to insert.
    let cache = SubqueryCache::new();
    let rows: Vec<Tuple> = {
        let ctx = opts.ctx(db, virt, &cache);
        match &stmt.source {
            InsertSource::Values(rows) => {
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    if row.len() != arity {
                        return Err(QueryError::InsertArity {
                            table: stmt.table.clone(),
                            expected: arity,
                            got: row.len(),
                        });
                    }
                    let mut vals = Vec::with_capacity(row.len());
                    for e in row {
                        vals.push(compile::eval_const(ctx, e)?);
                    }
                    out.push(Tuple(vals));
                }
                out
            }
            InsertSource::Select(sel) => {
                let rel = run_select(ctx, sel, &mut Bindings::new())?;
                if rel.columns.len() != arity {
                    return Err(QueryError::InsertArity {
                        table: stmt.table.clone(),
                        expected: arity,
                        got: rel.columns.len(),
                    });
                }
                rel.rows.into_iter().map(Tuple).collect()
            }
        }
    };

    // Phase 2: insert (statement-atomic).
    let handles = apply_atomically(db, |db| {
        let mut handles = Vec::with_capacity(rows.len());
        for t in rows {
            handles.push(db.insert(table, t)?);
        }
        Ok(handles)
    })?;
    Ok(OpEffect::Insert { table, handles })
}

/// Phase 1 of delete/update: the tuples of the target table satisfying
/// the planned read (its one-item `from` and `where`) in the
/// pre-statement state, pulled through the same `scan → join →
/// filter` chain a one-item `select … where` lowers to. Returns the
/// drained filter, whose one item holds the rows, and the row indices of
/// the survivors, in handle order.
fn matching<'a>(
    ctx: QueryCtx<'a>,
    read: ReadPlan<'a>,
) -> Result<(FilterExec<'a>, Vec<usize>), QueryError> {
    let mut bindings = Bindings::new();
    let mut filter = lower_read(read, false);
    let mut cx = ExecCx { ctx, bindings: &mut bindings };
    // One item: a combination is a row index.
    let mut survivors = Vec::new();
    while let Some(batch) = filter.next_batch(&mut cx)? {
        survivors.extend(batch);
    }
    Ok((filter, survivors))
}

/// The handle of stored row `r` of a DML read's item.
fn handle_of(item: &FromItem<'_>, r: usize) -> TupleHandle {
    item.rows[r].0.expect("a DML target is a stored table").1
}

fn execute_delete(
    db: &mut Database,
    virt: &dyn TransitionTableProvider,
    stmt: &DeleteStmt,
    opts: &ExecOpts,
) -> Result<OpEffect, QueryError> {
    let table = db.table_id(&stmt.table)?;
    let cache = SubqueryCache::new();
    let ctx = opts.ctx(db, virt, &cache);
    let from = [TableRef::named(&stmt.table)];
    let read = plan_read(ctx, &from, stmt.predicate.as_ref(), &Layout::new())?;
    let (filter, survivors) = matching(ctx, read)?;
    let item = &filter.items()[0];
    let handles: Vec<TupleHandle> = survivors.iter().map(|&r| handle_of(item, r)).collect();
    // Phase 2: delete (statement-atomic).
    let tuples = apply_atomically(db, |db| {
        let mut tuples = Vec::with_capacity(handles.len());
        for h in handles {
            let old = db.delete(table, h)?;
            tuples.push((h, old));
        }
        Ok(tuples)
    })?;
    Ok(OpEffect::Delete { table, tuples })
}

/// One row's assignments, appended to the statement's flat buffer:
/// every `set` expression evaluated in order in `env` (so the first error
/// surfaces as it would row by row), keeping the value of each column's
/// last assignment.
fn assign<E: Env>(
    compiled: &[CompiledExpr],
    set_cols: &[ColumnId],
    kept: &[bool],
    env: &mut E,
    out: &mut Vec<(ColumnId, Value)>,
) -> Result<(), QueryError> {
    for ((ce, &c), &keep) in compiled.iter().zip(set_cols).zip(kept) {
        let v = compile::eval(ce, env)?;
        if keep {
            out.push((c, v));
        }
    }
    Ok(())
}

fn execute_update(
    db: &mut Database,
    virt: &dyn TransitionTableProvider,
    stmt: &UpdateStmt,
    opts: &ExecOpts,
) -> Result<OpEffect, QueryError> {
    let table = db.table_id(&stmt.table)?;

    // Resolve assigned columns once. A column assigned more than once
    // keeps its last assignment (like SQL): `kept[i]` says whether `set`
    // `i` survives, and the surviving columns are listed in the order of
    // their last assignment.
    let schema = db.schema(table);
    let set_cols: Vec<ColumnId> =
        stmt.sets.iter().map(|(name, _)| schema.column_id(name)).collect::<Result<_, _>>()?;
    let kept: Vec<bool> =
        set_cols.iter().enumerate().map(|(i, c)| !set_cols[i + 1..].contains(c)).collect();
    let width = kept.iter().filter(|&&k| k).count();

    // Phase 1: identify tuples and compute per-tuple assignments against
    // the pre-update state, `width` per tuple in one flat buffer. Every
    // `set` expression is evaluated in order (so the first error surfaces
    // as it would row by row), each compiled once per statement against
    // the read's scope.
    let cache = SubqueryCache::new();
    let (handles, assignments) = {
        let ctx = opts.ctx(db, virt, &cache);
        let from = [TableRef::named(&stmt.table)];
        let read = plan_read(ctx, &from, stmt.predicate.as_ref(), &Layout::new())?;
        let compiled: Vec<CompiledExpr> =
            stmt.sets.iter().map(|(_, e)| compile(e, &read.layout)).collect();
        let rows_local = compiled.iter().all(is_rowlocal);
        let (filter, survivors) = matching(ctx, read)?;
        let item = &filter.items()[0];
        let mut bindings = Bindings::new();
        let mut handles = Vec::with_capacity(survivors.len());
        let mut assignments = Vec::with_capacity(survivors.len() * width);
        for r in survivors {
            let row = item.row(r);
            if rows_local {
                assign(&compiled, &set_cols, &kept, &mut RowEnv(&[row]), &mut assignments)?;
            } else {
                bindings.push_level(vec![item.frame(row.to_vec())]);
                let scoped = &mut Scoped { ctx, bindings: &mut bindings };
                let assigned = assign(&compiled, &set_cols, &kept, scoped, &mut assignments);
                bindings.pop_level();
                assigned?;
            }
            handles.push(handle_of(item, r));
        }
        (handles, assignments)
    };

    // Phase 2: apply (statement-atomic).
    let tuples = apply_atomically(db, |db| {
        let mut tuples = Vec::with_capacity(handles.len());
        for (i, h) in handles.into_iter().enumerate() {
            let old = db.update(table, h, &assignments[i * width..(i + 1) * width])?;
            tuples.push((h, old));
        }
        Ok(tuples)
    })?;
    let columns = set_cols.iter().copied().collect();
    Ok(OpEffect::Update { table, columns, tuples })
}

fn execute_select_op(
    db: &mut Database,
    virt: &dyn TransitionTableProvider,
    stmt: &SelectStmt,
    opts: &ExecOpts,
) -> Result<OpEffect, QueryError> {
    let cache = SubqueryCache::new();
    let ctx = opts.ctx(db, virt, &cache);
    let mut trace = Vec::new();
    let output = run_select_traced(ctx, stmt, &mut Bindings::new(), Some(&mut trace))?;

    // Column attribution (§5.1): a traced tuple was read through one or
    // more top-level `from` items, and gets the union of the columns
    // those items reference (`None` = all columns). Embedded selects'
    // tuples are excluded from S by our documented choice, but their
    // column references on traced tables are counted.
    let per_item: Vec<Option<ColumnSet>> = referenced_columns(db, stmt)
        .into_iter()
        .map(|cols| cols.map(ColumnSet::from_iter))
        .collect();
    // Deduplicate by sorting: trace positions ordered by tuple (ties by
    // position) put each tuple's reads together, first read first; one
    // entry per tuple then goes back to first-read order.
    let mut order: Vec<usize> = (0..trace.len()).collect();
    order.sort_unstable_by_key(|&i| (trace[i].1, trace[i].2, i));
    let mut firsts: Vec<(usize, TableId, TupleHandle, Option<ColumnSet>)> = Vec::new();
    for i in order {
        let (item, tid, h) = trace[i];
        match firsts.last_mut() {
            Some((_, t, u, acc)) if (*t, *u) == (tid, h) => {
                *acc = match (acc.take(), &per_item[item]) {
                    (Some(acc), Some(cols)) => Some(acc.union(cols)),
                    _ => None,
                };
            }
            _ => firsts.push((i, tid, h, per_item[item].clone())),
        }
    }
    firsts.sort_unstable_by_key(|r| r.0);
    let reads = firsts.into_iter().map(|(_, t, h, cols)| (t, h, cols)).collect();
    Ok(OpEffect::Select { reads, output })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::NoTransitionTables;
    use setrules_sql::{ast::Statement, parse_statement};
    use setrules_storage::{paper_example_schemas, tuple};

    fn setup() -> (Database, TableId, TableId) {
        let mut db = Database::new();
        let (emp, dept) = paper_example_schemas();
        let emp = db.create_table(emp).unwrap();
        let dept = db.create_table(dept).unwrap();
        (db, emp, dept)
    }

    fn op(sql: &str) -> DmlOp {
        match parse_statement(sql).unwrap() {
            Statement::Dml(op) => op,
            other => panic!("not dml: {other:?}"),
        }
    }

    fn try_exec(db: &mut Database, sql: &str) -> Result<OpEffect, QueryError> {
        execute_op(db, &NoTransitionTables, &op(sql), &ExecOpts::default())
    }

    fn exec(db: &mut Database, sql: &str) -> OpEffect {
        try_exec(db, sql).unwrap()
    }

    #[test]
    fn insert_values_affected_set() {
        let (mut db, emp, _) = setup();
        let eff = exec(&mut db, "insert into emp values ('Jane', 1, 95000.0, 1), ('Bill', 2, 25000.0, 2)");
        let OpEffect::Insert { table, handles } = eff else { panic!() };
        assert_eq!(table, emp);
        assert_eq!(handles.len(), 2);
        assert_eq!(db.table(emp).len(), 2);
    }

    #[test]
    fn insert_select_copies_rows() {
        let (mut db, _emp, _) = setup();
        exec(&mut db, "insert into emp values ('Jane', 1, 95000.0, 1), ('Bill', 2, 25000.0, 2)");
        let mut db2 = db;
        db2.create_table(setrules_storage::TableSchema::new(
            "rich",
            paper_example_schemas().0.columns.clone(),
        ))
        .unwrap();
        let eff = exec(&mut db2, "insert into rich (select * from emp where salary > 50000)");
        let OpEffect::Insert { handles, .. } = eff else { panic!() };
        assert_eq!(handles.len(), 1);
    }

    #[test]
    fn op_stats_reach_every_read_phase() {
        // Every DML path gets its context from `ExecOpts::ctx`, so the
        // operator counters follow the statement wherever it reads.
        let (mut db, _, _) = setup();
        exec(&mut db, "insert into emp values ('Jane', 1, 95000.0, 1), ('Bill', 2, 25000.0, 2)");
        db.create_table(setrules_storage::TableSchema::new(
            "rich",
            paper_example_schemas().0.columns.clone(),
        ))
        .unwrap();
        // Delete and update identify their targets through the same
        // scan → filter chain, so they report the same operator rows.
        for sql in [
            "insert into rich (select * from emp where salary > 50000)",
            "select name from emp where salary > 50000",
            "update emp set salary = salary where salary > 50000",
            "delete from emp where salary > 50000",
        ] {
            let ops = OpStatsCell::new();
            let opts = ExecOpts { op_stats: Some(&ops), ..Default::default() };
            execute_op(&mut db, &NoTransitionTables, &op(sql), &opts).unwrap();
            let scan = ops.get("seq-scan");
            assert_eq!((scan.batches, scan.rows_out), (1, 2), "{sql}: {:?}", ops.snapshot());
            let filter = ops.get("filter");
            assert_eq!((filter.rows_in, filter.rows_out), (2, 1), "{sql}: {:?}", ops.snapshot());
        }
    }

    #[test]
    fn delete_captures_old_values() {
        let (mut db, emp, _) = setup();
        exec(&mut db, "insert into emp values ('Jane', 1, 95000.0, 1), ('Bill', 2, 25000.0, 2)");
        let eff = exec(&mut db, "delete from emp where salary < 50000");
        let OpEffect::Delete { table, tuples } = eff else { panic!() };
        assert_eq!(table, emp);
        assert_eq!(tuples.len(), 1);
        assert_eq!(*tuples[0].1, tuple!["Bill", 2, 25000.0, 2]);
        assert_eq!(db.table(emp).len(), 1);
    }

    #[test]
    fn delete_without_predicate_means_where_true() {
        let (mut db, emp, _) = setup();
        exec(&mut db, "insert into emp values ('Jane', 1, 95000.0, 1), ('Bill', 2, 25000.0, 2)");
        let eff = exec(&mut db, "delete from emp");
        assert_eq!(eff.cardinality(), 2);
        assert!(db.table(emp).is_empty());
    }

    #[test]
    fn update_affected_even_when_value_unchanged() {
        let (mut db, _, _) = setup();
        exec(&mut db, "insert into emp values ('Jane', 1, 95000.0, 1)");
        // Assign salary to itself: value unchanged but still "affected"
        // (paper §2.1: U is not derivable from states).
        let eff = exec(&mut db, "update emp set salary = salary");
        let OpEffect::Update { columns, tuples, .. } = eff else { panic!() };
        assert_eq!(tuples.len(), 1);
        assert_eq!(columns.as_slice(), &[ColumnId(2)]);
    }

    #[test]
    fn update_is_set_oriented_reads_pre_state() {
        let (mut db, emp, _) = setup();
        exec(&mut db, "insert into emp values ('a', 1, 100.0, 1), ('b', 2, 200.0, 1)");
        // Swap-like self-reference: every salary becomes the pre-statement
        // max. If evaluation leaked intermediate writes, results would
        // depend on scan order.
        let eff = exec(&mut db, "update emp set salary = salary * 2 where salary < 1000");
        assert_eq!(eff.cardinality(), 2);
        let DmlOp::Select(sel) = op("select salary from emp order by salary") else {
            unreachable!()
        };
        let rel = execute_query(&db, &NoTransitionTables, &sel, &ExecOpts::default()).unwrap();
        assert_eq!(rel.rows, vec![vec![Value::Float(200.0)], vec![Value::Float(400.0)]]);
        assert_eq!(db.table(emp).len(), 2);
    }

    #[test]
    fn update_captures_old_tuple() {
        let (mut db, _, _) = setup();
        exec(&mut db, "insert into emp values ('Jane', 1, 95000.0, 1)");
        let eff = exec(&mut db, "update emp set salary = 1.0, dept_no = 9");
        let OpEffect::Update { columns, tuples, .. } = eff else { panic!() };
        assert_eq!(*tuples[0].1, tuple!["Jane", 1, 95000.0, 1]);
        assert_eq!(columns.as_slice(), &[ColumnId(2), ColumnId(3)]);
    }

    #[test]
    fn duplicate_column_assignment_last_wins() {
        let (mut db, emp, _) = setup();
        exec(&mut db, "insert into emp values ('Jane', 1, 95000.0, 1)");
        let eff = exec(&mut db, "update emp set salary = 1.0, salary = 2.0");
        let OpEffect::Update { columns, tuples, .. } = eff else { panic!() };
        assert_eq!(columns.as_slice(), &[ColumnId(2)], "column listed once");
        let h = tuples[0].0;
        assert_eq!(db.get(emp, h).unwrap().get(ColumnId(2)), &Value::Float(2.0));
    }

    #[test]
    fn select_op_traces_reads() {
        let (mut db, emp, _) = setup();
        exec(&mut db, "insert into emp values ('Jane', 1, 95000.0, 1), ('Bill', 2, 25000.0, 2)");
        let eff = exec(&mut db, "select name from emp where salary > 50000");
        let OpEffect::Select { reads, output } = eff else { panic!() };
        assert_eq!(output.len(), 1);
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].0, emp);
        let cols = reads[0].2.as_ref().unwrap();
        assert!(cols.contains(&ColumnId(0)) && cols.contains(&ColumnId(2)));
    }

    #[test]
    fn correlated_subquery_example_3_3_condition() {
        let (mut db, _, _) = setup();
        exec(
            &mut db,
            "insert into emp values ('a', 1, 100.0, 1), ('b', 2, 100.0, 1), ('c', 3, 500.0, 1)",
        );
        // c's salary (500) exceeds 2 * avg(233.3).
        let DmlOp::Select(sel) = op(
            "select name from emp e1 where salary > 2 * (select avg(salary) from emp e2 where e2.dept_no = e1.dept_no)",
        ) else {
            unreachable!()
        };
        let rel = execute_query(&db, &NoTransitionTables, &sel, &ExecOpts::default()).unwrap();
        assert_eq!(rel.rows, vec![vec![Value::Text("c".into())]]);
    }

    #[test]
    fn aggregate_queries() {
        let (mut db, _, _) = setup();
        exec(
            &mut db,
            "insert into emp values ('a', 1, 100.0, 1), ('b', 2, 300.0, 1), ('c', 3, 500.0, 2)",
        );
        let q = |db: &Database, s: &str| {
            let DmlOp::Select(sel) = op(s) else { unreachable!() };
            execute_query(db, &NoTransitionTables, &sel, &ExecOpts::default()).unwrap()
        };
        assert_eq!(q(&db, "select count(*) from emp").rows, vec![vec![Value::Int(3)]]);
        assert_eq!(q(&db, "select sum(salary) from emp").rows, vec![vec![Value::Float(900.0)]]);
        assert_eq!(q(&db, "select avg(salary) from emp where dept_no = 1").rows, vec![vec![Value::Float(200.0)]]);
        assert_eq!(q(&db, "select min(salary), max(salary) from emp").rows, vec![vec![Value::Float(100.0), Value::Float(500.0)]]);
        let grouped = q(&db, "select dept_no, count(*) from emp group by dept_no order by dept_no");
        assert_eq!(
            grouped.rows,
            vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(2), Value::Int(1)]]
        );
        let having = q(&db, "select dept_no from emp group by dept_no having count(*) > 1");
        assert_eq!(having.rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn empty_table_aggregates() {
        let (db, _, _) = setup();
        let q = |s: &str| {
            let DmlOp::Select(sel) = op(s) else { unreachable!() };
            execute_query(&db, &NoTransitionTables, &sel, &ExecOpts::default()).unwrap()
        };
        assert_eq!(q("select count(*) from emp").rows, vec![vec![Value::Int(0)]]);
        assert_eq!(q("select sum(salary) from emp").rows, vec![vec![Value::Null]]);
        // Grouped query over empty input: no groups, no rows.
        assert_eq!(q("select dept_no, count(*) from emp group by dept_no").len(), 0);
    }

    #[test]
    fn join_cross_product_with_predicate() {
        let (mut db, _, _) = setup();
        exec(&mut db, "insert into emp values ('a', 1, 100.0, 1), ('b', 2, 300.0, 2)");
        exec(&mut db, "insert into dept values (1, 1), (2, 2)");
        let DmlOp::Select(sel) =
            op("select name, mgr_no from emp, dept where emp.dept_no = dept.dept_no")
        else {
            unreachable!()
        };
        let rel = execute_query(&db, &NoTransitionTables, &sel, &ExecOpts::default()).unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn distinct_and_limit() {
        let (mut db, _, _) = setup();
        exec(&mut db, "insert into emp values ('a', 1, 100.0, 1), ('b', 2, 300.0, 1), ('c', 3, 1.0, 2)");
        let q = |s: &str| {
            let DmlOp::Select(sel) = op(s) else { unreachable!() };
            execute_query(&db, &NoTransitionTables, &sel, &ExecOpts::default()).unwrap()
        };
        assert_eq!(q("select distinct dept_no from emp").len(), 2);
        assert_eq!(q("select name from emp order by salary desc limit 2").rows.len(), 2);
        assert_eq!(
            q("select name from emp order by salary desc limit 2").rows[0],
            vec![Value::Text("b".into())]
        );
    }

    #[test]
    fn scalar_subquery_in_insert() {
        let (mut db, _, dept) = setup();
        exec(&mut db, "insert into emp values ('a', 7, 100.0, 1)");
        let eff = exec(&mut db, "insert into dept values (1, (select emp_no from emp))");
        assert_eq!(eff.cardinality(), 1);
        let row = db.table(dept).scan().next().unwrap().1.clone();
        assert_eq!(row, tuple![1, 7]);
    }

    #[test]
    fn insert_arity_mismatch_rejected() {
        let (mut db, _, _) = setup();
        let err = try_exec(&mut db, "insert into emp values (1, 2)").unwrap_err();
        assert!(matches!(err, QueryError::InsertArity { expected: 4, got: 2, .. }));
    }

    #[test]
    fn mid_statement_fault_rolls_back_to_pre_statement_state() {
        use setrules_storage::FaultKind;
        let (mut db, _, _) = setup();
        exec(&mut db, "insert into emp values ('a', 1, 100.0, 1), ('b', 2, 200.0, 1), ('c', 3, 300.0, 1)");
        db.commit();
        let image = db.state_image();
        // Fail the 2nd tuple update: row 'a' is modified, then 'b' faults.
        // The statement savepoint must also undo 'a'.
        db.fault_injector_mut().reset_counts();
        db.fault_injector_mut().arm(FaultKind::TupleUpdate, 2);
        let err = try_exec(&mut db, "update emp set salary = salary * 2").unwrap_err();
        assert!(matches!(
            err,
            QueryError::Storage(setrules_storage::StorageError::FaultInjected { .. })
        ));
        db.fault_injector_mut().disarm();
        assert_eq!(db.state_image(), image, "partial update survived the rollback");
        assert_eq!(db.undo_len(), 0, "statement savepoint left ghost undo records");

        // Same for a multi-row delete (2nd delete faults)...
        db.fault_injector_mut().reset_counts();
        db.fault_injector_mut().arm(FaultKind::TupleDelete, 2);
        assert!(try_exec(&mut db, "delete from emp").is_err());
        db.fault_injector_mut().disarm();
        assert_eq!(db.state_image(), image, "partial delete survived the rollback");

        // ... and a multi-row insert (2nd undo append faults).
        db.fault_injector_mut().reset_counts();
        db.fault_injector_mut().arm(FaultKind::UndoAppend, 2);
        assert!(
            try_exec(&mut db, "insert into emp values ('x', 8, 1.0, 1), ('y', 9, 1.0, 1)").is_err()
        );
        db.fault_injector_mut().disarm();
        assert_eq!(db.state_image(), image, "partial insert survived the rollback");
    }

    #[test]
    fn failed_op_leaves_no_partial_planning_effects() {
        let (mut db, emp, _) = setup();
        exec(&mut db, "insert into emp values ('a', 1, 100.0, 1)");
        // Type error in the predicate aborts before any mutation.
        let err = try_exec(&mut db, "delete from emp where name > 5");
        assert!(err.is_err());
        assert_eq!(db.table(emp).len(), 1);
    }
}
