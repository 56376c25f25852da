//! `select` execution: joins over `from` items (stored tables and
//! transition tables), three-valued `where` filtering, grouping and
//! aggregation, `distinct`, `order by`, and `limit`.
//!
//! This module is the *lowering driver*: it takes the statement's plan
//! value from [`plan_select`] — access paths, the predicate compiled once
//! to a slot-addressed [`CompiledExpr`](crate::compile::CompiledExpr),
//! single-item conjuncts pushed down to their scan, equi-join edges, the
//! top shape — moves its parts into a tree of batched physical operators
//! (see [`crate::exec`]), and pulls that tree dry. An N-way greedy
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
//! Two planned ordered-index fast paths bypass the operator pipeline:
//! [`min_max`] and [`index_order_scan`] below.

use std::ops::Bound;
use std::sync::Arc;

use setrules_sql::ast::{Expr, SelectStmt};
use setrules_storage::Value;

use crate::bindings::{Bindings, Frame};
use crate::compile::{self, holds, is_rowlocal, CompiledExpr, Env, RowEnv, Scoped};
use crate::ctx::QueryCtx;
use crate::error::QueryError;
use crate::exec::aggregate::AggregateExec;
use crate::exec::filter::FilterExec;
use crate::exec::join::JoinExec;
use crate::exec::project::ProjectExec;
use crate::exec::scan::{ScanExec, ScanSource};
use crate::exec::sort::{DistinctExec, LimitExec, SortExec};
use crate::exec::{ExecCx, KeyedRow, Origin, RowSource};
use crate::plan::{plan_select, IndexOrder, MinMax, ReadPlan, SelectPlan, Shape, Top};
use crate::planner::Access;
use crate::relation::Relation;
use crate::stats;

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
    let SelectPlan { read, shape } =
        plan_select(ctx, stmt, &bindings.layout(), trace.is_some())?;
    let pipeline = match shape {
        Shape::MinMax(m) => return Ok(min_max(ctx, &read, m)),
        Shape::IndexOrder(o) => return index_order_scan(ctx, read, o, bindings),
        Shape::Pipeline(p) => p,
    };

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

/// Record one fused fast-path stage on the per-operator side channel, as
/// the operator of that name would: rows in, and one batch of the rows
/// out when there are any.
fn record_stage(ctx: QueryCtx<'_>, name: &'static str, rows_in: usize, rows_out: usize) {
    if let Some(ops) = ctx.op_stats {
        if rows_in > 0 {
            ops.rows_in(name, rows_in);
        }
        if rows_out > 0 {
            ops.batch_out(name, rows_out);
        }
    }
}

/// Sort-elision fast path: emit rows in ordered-index order up to
/// `limit`, instead of materializing every match and sorting. The walk
/// stops at the cutoff only when no row can fail (no predicate, every
/// projection a column or a constant); otherwise it evaluates the rows
/// past the cutoff and discards them, so an error there surfaces exactly
/// as the draining [`LimitExec`] raises it. The walk fuses the
/// `filter → project → limit` stages the plan names; a
/// `FullScan` access visits the whole index (including the NULL bucket,
/// which sorts first — just as the generic sort puts NULL rows first), a
/// range visits its key interval. Descending order reverses bucket order;
/// handles inside a bucket stay ascending.
fn index_order_scan(
    ctx: QueryCtx<'_>,
    read: ReadPlan<'_>,
    plan: IndexOrder,
    bindings: &mut Bindings,
) -> Result<Relation, QueryError> {
    let proj = plan.proj?;
    let item = &read.items[0];
    let ScanSource::Named(access) = &item.source else {
        unreachable!("the sort-elision path is planned only on a stored item")
    };
    let index = ctx.db.ordered_index(item.tid, plan.column).expect("planned on an ordered index");
    stats::bump(ctx.stats, |s| {
        s.sort_elided += 1;
        match access {
            Access::FullScan => s.full_scans += 1,
            _ => s.range_scans += 1,
        }
    });
    let walk = match access {
        Access::IndexRange { lo, hi, .. } => index.range(lo.clone(), hi.clone()),
        _ => index.range(Bound::Unbounded, Bound::Unbounded),
    };
    let walk: Box<dyn Iterator<Item = _>> =
        if plan.asc { Box::new(walk) } else { Box::new(walk.rev()) };
    // Row-local trees read the stored tuple in place; anything else runs
    // scoped, over an owned level per visited row.
    let rows_local = read.predicate.iter().chain(&proj.exprs).all(is_rowlocal);
    let infallible = read.predicate.is_none()
        && proj.exprs.iter().all(|e| matches!(e, CompiledExpr::Slot { .. } | CompiledExpr::Const(_)));

    let mut rows: Vec<Vec<Value>> = Vec::new();
    let mut visited: usize = 0;
    let mut matched: usize = 0;
    'walk: for (_, bucket) in walk {
        for &h in bucket {
            let full = plan.limit.is_some_and(|n| rows.len() >= n);
            if full && infallible {
                break 'walk;
            }
            visited += 1;
            stats::bump(ctx.stats, |s| s.rows_scanned += 1);
            let tuple = ctx.db.get(item.tid, h).expect("indexed handle is live");
            let result = if rows_local {
                walk_row(&read.predicate, &proj.exprs, &mut RowEnv(&[tuple.0.as_slice()]))
            } else {
                bindings.push_level(vec![Frame {
                    name: item.binding.clone(),
                    columns: Arc::clone(&item.columns),
                    row: tuple.0.clone(),
                }]);
                let result =
                    walk_row(&read.predicate, &proj.exprs, &mut Scoped { ctx, bindings });
                bindings.pop_level();
                result
            };
            if let Some(row) = result? {
                stats::bump(ctx.stats, |s| s.rows_matched += 1);
                matched += 1;
                if !full {
                    rows.push(row);
                }
            }
        }
    }
    if matches!(access, Access::IndexRange { .. }) {
        let skipped = (ctx.db.table(item.tid).len() - visited) as u64;
        stats::bump(ctx.stats, |s| s.range_rows_skipped += skipped);
    }
    record_stage(ctx, "index-order-scan", 0, visited);
    if read.predicate.is_some() {
        record_stage(ctx, "filter", visited, matched);
    }
    record_stage(ctx, "project", matched, matched);
    if plan.limit.is_some() {
        record_stage(ctx, "limit", matched, rows.len());
    }
    Ok(Relation { columns: proj.columns, rows })
}

/// One visited row of the sort-elision walk: `None` when the predicate
/// rejects it, else its projection.
fn walk_row<E: Env>(
    predicate: &Option<CompiledExpr>,
    exprs: &[CompiledExpr],
    env: &mut E,
) -> Result<Option<Vec<Value>>, QueryError> {
    if let Some(cp) = predicate {
        if !holds(cp, env)? {
            return Ok(None);
        }
    }
    let mut out = Vec::with_capacity(exprs.len());
    for e in exprs {
        out.push(compile::eval(e, env)?);
    }
    Ok(Some(out))
}

/// Min/max fast path: answer each planned `min`/`max` from its ordered
/// index's boundary key, without scanning a tuple. The plan already
/// checked that no boundary is a NaN, so every lookup counted here is one
/// the answer used.
fn min_max(ctx: QueryCtx<'_>, read: &ReadPlan<'_>, plan: MinMax) -> Relation {
    let tid = read.items[0].tid;
    let mut row = Vec::with_capacity(plan.cols.len());
    for (col, is_min) in plan.cols {
        let index = ctx.db.ordered_index(tid, col).expect("planned on an ordered index");
        let boundary = if is_min { index.first_key() } else { index.last_key() };
        row.push(match boundary {
            // No non-NULL values: the aggregate over them is NULL.
            None => Value::Null,
            Some(v) => resolve_zero_tie(index, v.clone()),
        });
        stats::bump(ctx.stats, |s| s.index_lookups += 1);
    }
    let rows = if plan.limit_zero { Vec::new() } else { vec![row] };
    record_stage(ctx, "index-minmax", 0, rows.len());
    Relation { columns: plan.names, rows }
}

/// `-0.0` and `0.0` are distinct index keys but SQL-equal, and the
/// aggregate fold keeps the first-encountered (smallest-handle) value of a
/// tied pair — so when the boundary key is a zero and both zero buckets
/// exist, return the value from the bucket holding the smaller handle.
fn resolve_zero_tie(index: &setrules_storage::OrderedIndex, v: Value) -> Value {
    let Value::Float(f) = v else {
        return v;
    };
    if f != 0.0 {
        return v;
    }
    let neg = index.get(&Value::Float(-0.0)).and_then(|b| b.first());
    let pos = index.get(&Value::Float(0.0)).and_then(|b| b.first());
    match (neg, pos) {
        (Some(hn), Some(hp)) => {
            if hn < hp {
                Value::Float(-0.0)
            } else {
                Value::Float(0.0)
            }
        }
        (Some(_), None) => Value::Float(-0.0),
        _ => Value::Float(0.0),
    }
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
