//! `select` execution: joins over `from` items (stored tables and
//! transition tables), three-valued `where` filtering, grouping and
//! aggregation, `distinct`, `order by`, and `limit`.
//!
//! This module is the *lowering driver*: it takes the statement's plan
//! value from [`plan_select`] — access paths, the predicate compiled once
//! to a slot-addressed [`CompiledExpr`](crate::compile::CompiledExpr),
//! single-item conjuncts pushed down to their scan, equi-join edges, the
//! pipeline on top — moves its parts into a tree of batched physical
//! operators (see [`crate::exec`]), and pulls that tree dry. An N-way greedy
//! [`JoinPlan`](crate::planner::JoinPlan) joins items with hash tables on
//! the planned equi-join keys (cross steps only when nothing connects).
//!
//! The *full* predicate is still evaluated per assembled combination
//! (hash probes and pushdown are sound prefilters), and combinations are
//! emitted in row-index lexicographic order, so results are exactly those
//! of a naive nested-loop evaluation (the differential tests check this
//! against a test-only reference executor): scans run in handle order,
//! groups appear in first-seen order, and `order by` uses the storage
//! total order. The one accepted divergence: prefilters may skip
//! combinations whose evaluation would *error*.
//!
//! Every statement lowers to the same chain, `scan → join → filter →
//! project|aggregate → distinct? → sort? → limit?`. Ordered indexes enter
//! only through the scan's access path: a key-order walk leaves the
//! pipeline no sort to run, and a boundary probe leaves the aggregate a
//! few rows to fold.

use setrules_sql::ast::{Expr, SelectStmt};

use crate::bindings::Bindings;
use crate::ctx::QueryCtx;
use crate::error::QueryError;
use crate::exec::aggregate::AggregateExec;
use crate::exec::filter::FilterExec;
use crate::exec::join::JoinExec;
use crate::exec::project::ProjectExec;
use crate::exec::scan::{ScanExec, ScanSource};
use crate::exec::sort::{DistinctExec, LimitExec, SortExec};
use crate::exec::{ExecCx, KeyedRow, Origin, RowSource};
use crate::plan::{plan_select, ItemPlan, ReadPlan, SelectPlan, Top};
use crate::planner::Access;
use crate::relation::Relation;

/// Run a `select` in the given outer scope (empty for top-level queries,
/// populated for correlated subqueries). Returns the materialized result.
pub fn run_select(
    ctx: QueryCtx<'_>,
    stmt: &SelectStmt,
    bindings: &mut Bindings,
) -> Result<Relation, QueryError> {
    run_select_traced(ctx, stmt, bindings, None)
}

/// Like [`run_select`], additionally recording, into `trace`, every
/// stored-table tuple that contributed to a row satisfying `where`, with
/// the index of the `from` item it was bound through. The rule engine
/// uses this for the `S` (selected) component of transition effects
/// (§5.1 extension).
pub(crate) fn run_select_traced(
    ctx: QueryCtx<'_>,
    stmt: &SelectStmt,
    bindings: &mut Bindings,
    trace: Option<&mut Vec<Origin>>,
) -> Result<Relation, QueryError> {
    let plan = plan_select(ctx, stmt, &bindings.layout(), trace.is_none())?;
    let key_order = matches!(
        plan.read.items.as_slice(),
        [ItemPlan { source: ScanSource::Named(Access::IndexOrder { .. }), .. }]
    );
    let result = run_plan(ctx, plan, bindings, trace);
    if result.is_err() && key_order {
        // A key-order walk meets the failing rows in key order, but a
        // statement raises the error of its first failing row in handle
        // order — the one the sort-based plan meets first, since rows
        // reach the filter and the projection in handle order there. Both
        // plans evaluate the same rows, so that plan fails too: re-run it,
        // uncounted, to name the error.
        let ctx = QueryCtx { stats: None, op_stats: None, ..ctx };
        let plan = plan_select(ctx, stmt, &bindings.layout(), false)?;
        return run_plan(ctx, plan, bindings, None);
    }
    result
}

/// Lower `plan` to `scan → join → filter → project|aggregate → distinct?
/// → sort? → limit?` and pull it dry.
fn run_plan(
    ctx: QueryCtx<'_>,
    SelectPlan { read, pipeline }: SelectPlan<'_>,
    bindings: &mut Bindings,
    trace: Option<&mut Vec<Origin>>,
) -> Result<Relation, QueryError> {
    // Scans → join → filter, then project|aggregate → distinct? → sort? →
    // limit?.
    let filter = lower_read(read, trace.is_some());
    let mut top: Box<dyn RowSource<'_> + '_> = match pipeline.top {
        Top::Project { proj, keys } => Box::new(ProjectExec::new(filter, proj, keys)),
        Top::Aggregate(prog) => Box::new(AggregateExec::new(filter, prog)),
    };
    if pipeline.distinct {
        top = Box::new(DistinctExec::new(top));
    }
    if !pipeline.order.is_empty() {
        top = Box::new(SortExec::new(top, pipeline.order, pipeline.limit));
    }
    if let Some(n) = pipeline.limit {
        top = Box::new(LimitExec::new(top, n));
    }

    // Pull the pipeline dry.
    let mut cx = ExecCx { ctx, bindings };
    let mut keyed_rows: Vec<KeyedRow> = Vec::new();
    while let Some(batch) = top.next_batch(&mut cx)? {
        keyed_rows.extend(batch);
    }
    if let Some(trace) = trace {
        trace.extend(top.take_origins());
    }
    let columns = top.output_columns().to_vec();
    Ok(Relation { columns, rows: keyed_rows.into_iter().map(|(_, r)| r).collect() })
}

/// The read every statement shares, lowered to `scan → join → filter`:
/// one scan per planned item (its access path and pushed conjuncts moved
/// in), the join over the planned edges, and the full predicate on top. A
/// `select` builds its projection or aggregation on the filter, and
/// `delete`/`update` pull it directly (their targets are its origins).
pub(crate) fn lower_read(read: ReadPlan<'_>, want_trace: bool) -> FilterExec<'_> {
    let op = read.join_op();
    let scans = read.items.into_iter().map(ScanExec::new).collect();
    FilterExec::new(JoinExec::new(scans, read.edges, op), read.predicate, want_trace)
}

/// Whether an expression contains an aggregate call *at this query level*
/// (aggregates inside subqueries belong to the subquery).
pub fn has_aggregate(e: &Expr) -> bool {
    match e {
        Expr::Aggregate { .. } => true,
        Expr::Literal(_) | Expr::Column { .. } => false,
        Expr::Unary { expr, .. } => has_aggregate(expr),
        Expr::Binary { left, right, .. } => has_aggregate(left) || has_aggregate(right),
        Expr::IsNull { expr, .. } => has_aggregate(expr),
        Expr::InList { expr, list, .. } => has_aggregate(expr) || list.iter().any(has_aggregate),
        Expr::InSubquery { expr, .. } => has_aggregate(expr),
        Expr::Exists { .. } | Expr::ScalarSubquery(_) => false,
        Expr::Between { expr, low, high, .. } => {
            has_aggregate(expr) || has_aggregate(low) || has_aggregate(high)
        }
        Expr::Like { expr, pattern, escape, .. } => {
            has_aggregate(expr)
                || has_aggregate(pattern)
                || escape.as_ref().is_some_and(|e| has_aggregate(e))
        }
    }
}
