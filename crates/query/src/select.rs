//! `select` execution: joins over `from` items (stored tables and
//! transition tables), three-valued `where` filtering, grouping and
//! aggregation, `distinct`, `order by`, and `limit`.
//!
//! This module is the *lowering driver*: it plans a statement — access
//! selection, predicate compilation, pushdown classification — and lowers
//! it to a tree of batched physical operators (see [`crate::exec`]),
//! then pulls that tree dry. There is one executor: the predicate is
//! lowered once to a slot-addressed [`CompiledExpr`], single-item
//! conjuncts are pushed down to their scan, and an N-way greedy
//! [`JoinPlan`](crate::planner::JoinPlan) joins items with hash tables on
//! equi-join keys (cross steps only when nothing connects).
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
//! Two ordered-index fast paths bypass the operator pipeline entirely:
//! [`min_max_shortcircuit`] and [`index_order_scan`] below.

use std::ops::Bound;
use std::sync::Arc;

use setrules_sql::ast::{AggFunc, Expr, SelectItem, SelectStmt, TableRef, TableSource};
use setrules_storage::{ColumnId, DataType, TableId, Value};

use crate::bindings::{Bindings, Frame};
use crate::compile::{
    compile, compile_cached, eval_compiled, eval_compiled_predicate, CompiledExpr, LayoutFrame,
};
use crate::ctx::QueryCtx;
use crate::error::QueryError;
use crate::exec::aggregate::AggregateExec;
use crate::exec::filter::FilterExec;
use crate::exec::join::JoinExec;
use crate::exec::project::{expand_wildcards_cols, ProjectExec};
use crate::exec::scan::{ScanExec, ScanSource};
use crate::exec::sort::{DistinctExec, LimitExec, SortExec};
use crate::exec::{ExecCx, KeyedRow, Origin, RowSource};
use crate::planner::{choose_access, Access};
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
    // Ordered-index fast paths: answer bare `min`/`max` from the index
    // boundary keys, and answer a single-key `order by` in index order
    // (short-circuiting `limit` without materializing or sorting). Both
    // are gated off when a trace is requested — early stopping would
    // change the selected-transition effects the trace feeds.
    if trace.is_none() {
        if let Some(rel) = min_max_shortcircuit(ctx, stmt)? {
            return Ok(rel);
        }
        if let Some(rel) = index_order_scan(ctx, stmt, bindings)? {
            return Ok(rel);
        }
    }

    // 1–2. Plan and lower the read: scans → join → filter.
    let filter =
        lower_where(ctx, &stmt.from, stmt.predicate.as_ref(), bindings, trace.is_some())?;

    // 3. Lower the rest: project|aggregate → distinct? → sort? → limit?.
    let mut top: Box<dyn RowSource + '_> = if crate::exec::is_grouped(stmt) {
        Box::new(AggregateExec::new(filter, stmt))
    } else {
        Box::new(ProjectExec::new(filter, stmt))
    };
    if stmt.distinct {
        top = Box::new(DistinctExec::new(top));
    }
    let limit = stmt.limit.map(|n| n as usize);
    if !stmt.order_by.is_empty() {
        top = Box::new(SortExec::new(top, &stmt.order_by, limit));
    }
    if let Some(n) = limit {
        top = Box::new(LimitExec::new(top, n));
    }

    // 4. Pull the pipeline dry.
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

/// The read every statement shares: the combinations of `from` that
/// satisfy `predicate`, lowered to `scan → join → filter` — a `select`
/// builds its projection or aggregation on top, and `delete`/`update`
/// pull the filter directly (their targets are its origins).
///
/// Planning happens here, before any row flows: per-item metadata and
/// access selection (the compile-once front-end needs every item's
/// binding and columns before scanning), predicate compilation (once,
/// through the plan cache when one is attached, keyed by `predicate`'s
/// own AST address), and pushdown classification. `bindings` are the
/// outer scopes (empty for a top-level statement).
pub(crate) fn lower_where<'q>(
    ctx: QueryCtx<'_>,
    from: &'q [TableRef],
    predicate: Option<&'q Expr>,
    bindings: &Bindings,
    want_trace: bool,
) -> Result<FilterExec<'q>, QueryError> {
    let sole = from.len() == 1;

    struct ItemMeta<'q> {
        binding: String,
        columns: Arc<Vec<String>>,
        types: Vec<DataType>,
        source: ScanSource<'q>,
    }
    let mut metas = Vec::with_capacity(from.len());
    for tref in from {
        let binding = tref.binding_name().to_string();
        let (TableSource::Named(table_name) | TableSource::Transition { table: table_name, .. }) =
            &tref.source;
        let tid = ctx.db.table_id(table_name)?;
        let schema = ctx.db.schema(tid);
        let columns = Arc::new(schema.columns.iter().map(|c| c.name.clone()).collect::<Vec<_>>());
        let types = schema.columns.iter().map(|c| c.ty).collect();
        let source = match &tref.source {
            TableSource::Named(_) => {
                let access = choose_access(ctx, tid, &binding, sole, predicate);
                ScanSource::Named { tid, access }
            }
            TableSource::Transition { kind, table, column } => {
                ScanSource::Transition { kind: *kind, table, column: column.as_deref() }
            }
        };
        metas.push(ItemMeta { binding, columns, types, source });
    }

    // Compile-once front-end: the scope layout is the outer scopes plus
    // one innermost level holding this query's items. The full predicate
    // compiles once (through the plan cache, when one is attached)
    // against it.
    let mut layout = bindings.layout();
    layout.push_level(
        metas
            .iter()
            .map(|m| LayoutFrame { name: m.binding.clone(), columns: Arc::clone(&m.columns) })
            .collect(),
    );
    let full_pred: Option<Arc<CompiledExpr>> = predicate.map(|p| compile_cached(ctx, p, &layout));

    // Pushdown classification: a conjunct whose innermost-level slots all
    // land in one item filters that item's scan directly. Only fully
    // slot-resolved conjuncts qualify (no subqueries, no interpreter
    // fallbacks), and only rows it evaluates to non-*true* on are dropped
    // — errors defer to the full predicate, so pushdown never surfaces an
    // error early. Re-compiling against the single-item scope the scan
    // evaluates in is sound because resolution is innermost-first:
    // removing sibling frames cannot redirect a reference that already
    // resolved into this item.
    // A sole stored-table item skips pushdown (the full predicate does
    // the identical work), but a sole *transition* item benefits: its
    // provider lends borrowed rows, so dropping a row at the scan avoids
    // ever cloning it.
    let pushdown_worthwhile =
        metas.len() > 1 || metas.iter().any(|m| matches!(m.source, ScanSource::Transition { .. }));
    let mut pushed: Vec<Vec<CompiledExpr>> = (0..metas.len()).map(|_| Vec::new()).collect();
    if pushdown_worthwhile {
        if let Some(p) = predicate {
            let mut conjuncts = Vec::new();
            crate::planner::collect_conjuncts(p, &mut conjuncts);
            for c in conjuncts {
                let cc = compile(c, &layout);
                if !cc.slots_only() {
                    continue;
                }
                // All level-0 slots must target a single item. Conjuncts
                // with no level-0 slots (constants, outer-only references)
                // are left to the full predicate: evaluating them per scan
                // row would be wasted work, not a correctness issue.
                let mut target = None;
                let mut single_item = true;
                cc.for_each_slot(&mut |up, frame, _| {
                    if up == 0 {
                        match target {
                            None => target = Some(frame),
                            Some(t) if t == frame => {}
                            Some(_) => single_item = false,
                        }
                    }
                });
                if !single_item {
                    continue;
                }
                let Some(i) = target else { continue };
                let mut scan_layout = bindings.layout();
                scan_layout.push_level(vec![LayoutFrame {
                    name: metas[i].binding.clone(),
                    columns: Arc::clone(&metas[i].columns),
                }]);
                pushed[i].push(compile(c, &scan_layout));
            }
        }
    }

    // Lower: one scan per item (carrying its pushed conjuncts), the join
    // over them, and the filter on top.
    let scans = metas
        .into_iter()
        .zip(pushed)
        .map(|(m, conjs)| ScanExec::new(m.binding, m.columns, m.types, m.source, conjs))
        .collect();
    Ok(FilterExec::new(JoinExec::new(scans, predicate), full_pred, want_trace))
}

/// When `stmt`'s `order by` can be answered by walking an ordered index
/// instead of sorting, the shape of that walk: the table, the key column,
/// and the access path (`FullScan` = whole-index walk, or an `IndexRange`
/// on the key column itself). `None` means the generic pipeline must run.
///
/// The shape gate requires: a sole named `from` item, a single `order by`
/// key that is a bare column of that item with an ordered index, no
/// `distinct`/`group by`/`having`/aggregates. Soundness argument: the
/// generic pipeline scans in handle order and stably sorts by the key's
/// storage total order, which is exactly the index walk — buckets in key
/// order, ascending handles within a bucket (descending keys reverse the
/// bucket order only).
pub(crate) fn elidable_order_column(
    ctx: QueryCtx<'_>,
    stmt: &SelectStmt,
) -> Option<(TableId, ColumnId, Access)> {
    if stmt.from.len() != 1
        || stmt.distinct
        || !stmt.group_by.is_empty()
        || stmt.having.is_some()
        || stmt.order_by.len() != 1
    {
        return None;
    }
    let TableSource::Named(table_name) = &stmt.from[0].source else {
        return None;
    };
    let binding = stmt.from[0].binding_name();
    let Expr::Column { qualifier, name } = &stmt.order_by[0].0 else {
        return None;
    };
    match qualifier.as_deref() {
        None => {}
        Some(q) if q == binding => {}
        _ => return None,
    }
    let tid = ctx.db.table_id(table_name).ok()?;
    let oc = ctx.db.schema(tid).column_id(name).ok()?;
    ctx.db.ordered_index(tid, oc)?;
    if stmt
        .projection
        .iter()
        .any(|it| matches!(it, SelectItem::Expr { expr, .. } if has_aggregate(expr)))
    {
        return None;
    }
    let access = choose_access(ctx, tid, binding, true, stmt.predicate.as_ref());
    match &access {
        Access::FullScan => {}
        Access::IndexRange { column, .. } if *column == oc => {}
        // Probe paths and ranges on a different column would emit handles
        // out of key order; `Empty` is trivial either way.
        _ => return None,
    }
    Some((tid, oc, access))
}

/// Sort-elision fast path: emit rows in ordered-index order and stop at
/// `limit`, instead of materializing every match and sorting. Returns
/// `None` when the query shape doesn't qualify (the generic pipeline runs).
fn index_order_scan(
    ctx: QueryCtx<'_>,
    stmt: &SelectStmt,
    bindings: &mut Bindings,
) -> Result<Option<Relation>, QueryError> {
    let Some((tid, oc, access)) = elidable_order_column(ctx, stmt) else {
        return Ok(None);
    };
    let asc = stmt.order_by[0].1;
    let binding = stmt.from[0].binding_name();
    let schema = ctx.db.schema(tid);
    let columns_arc =
        Arc::new(schema.columns.iter().map(|c| c.name.clone()).collect::<Vec<_>>());
    let index = ctx.db.ordered_index(tid, oc).expect("elidable_order_column checked");

    // Expand the projection exactly as the generic pipeline does.
    let proj = expand_wildcards_cols(stmt, &[(binding, &columns_arc)])?;
    let out_columns: Vec<String> = proj.iter().map(|(_, n)| n.clone()).collect();

    // Compile once against the same scope layout the generic pipeline
    // would use (outer scopes plus this item's level).
    let mut layout = bindings.layout();
    layout.push_level(vec![LayoutFrame {
        name: binding.to_string(),
        columns: Arc::clone(&columns_arc),
    }]);
    let full_pred: Option<Arc<CompiledExpr>> =
        stmt.predicate.as_ref().map(|p| compile_cached(ctx, p, &layout));
    let compiled_proj: Vec<CompiledExpr> = proj.iter().map(|(e, _)| compile(e, &layout)).collect();

    stats::bump(ctx.stats, |s| {
        s.sort_elided += 1;
        match &access {
            Access::FullScan => s.full_scans += 1,
            Access::IndexRange { .. } => s.range_scans += 1,
            _ => unreachable!("elidable_order_column allows only these"),
        }
    });

    // The walk: a `FullScan` access visits the whole index (including the
    // NULL bucket, which sorts first — just as the generic sort puts NULL
    // rows first); a range visits its key interval. Descending order
    // reverses bucket order; handles inside a bucket stay ascending.
    let walk = match &access {
        Access::FullScan => index.range(Bound::Unbounded, Bound::Unbounded),
        Access::IndexRange { lo, hi, .. } => index.range(lo.clone(), hi.clone()),
        _ => unreachable!("elidable_order_column allows only these"),
    };
    let walk: Box<dyn Iterator<Item = _>> =
        if asc { Box::new(walk) } else { Box::new(walk.rev()) };

    let limit = stmt.limit.map(|n| n as usize);
    let mut rows: Vec<Vec<Value>> = Vec::new();
    let mut visited: u64 = 0;
    'walk: for (_, bucket) in walk {
        for &h in bucket {
            if limit.is_some_and(|n| rows.len() >= n) {
                break 'walk;
            }
            visited += 1;
            stats::bump(ctx.stats, |s| s.rows_scanned += 1);
            let tuple = ctx.db.get(tid, h).expect("indexed handle is live");
            bindings.push_level(vec![Frame {
                name: binding.to_string(),
                columns: Arc::clone(&columns_arc),
                row: tuple.0.clone(),
            }]);
            let result = (|| -> Result<Option<Vec<Value>>, QueryError> {
                let keep = match &full_pred {
                    Some(cp) => eval_compiled_predicate(ctx, bindings, cp)?,
                    None => true,
                };
                if !keep {
                    return Ok(None);
                }
                let mut out = Vec::with_capacity(compiled_proj.len());
                for e in &compiled_proj {
                    out.push(eval_compiled(ctx, bindings, e)?);
                }
                Ok(Some(out))
            })();
            bindings.pop_level();
            if let Some(row) = result? {
                stats::bump(ctx.stats, |s| s.rows_matched += 1);
                rows.push(row);
            }
        }
    }
    if matches!(access, Access::IndexRange { .. }) {
        let skipped = ctx.db.table(tid).len() as u64 - visited;
        stats::bump(ctx.stats, |s| s.range_rows_skipped += skipped);
    }
    Ok(Some(Relation { columns: out_columns, rows }))
}

/// Min/max short-circuit: a projection made entirely of bare `min`/`max`
/// aggregates over ordered-indexed columns of a sole named item — with no
/// predicate, grouping, having, ordering, or distinct — is answered from
/// the index boundary keys without scanning a single tuple. Returns `None`
/// when the shape doesn't qualify.
fn min_max_shortcircuit(
    ctx: QueryCtx<'_>,
    stmt: &SelectStmt,
) -> Result<Option<Relation>, QueryError> {
    if stmt.from.len() != 1
        || stmt.distinct
        || stmt.predicate.is_some()
        || !stmt.group_by.is_empty()
        || stmt.having.is_some()
        || !stmt.order_by.is_empty()
        || stmt.projection.is_empty()
    {
        return Ok(None);
    }
    let TableSource::Named(table_name) = &stmt.from[0].source else {
        return Ok(None);
    };
    let binding = stmt.from[0].binding_name();
    let Ok(tid) = ctx.db.table_id(table_name) else {
        return Ok(None); // let the generic pipeline raise the error
    };
    let schema = ctx.db.schema(tid);
    let mut wanted: Vec<(ColumnId, bool, String)> = Vec::with_capacity(stmt.projection.len());
    for item in &stmt.projection {
        let SelectItem::Expr { expr, alias } = item else {
            return Ok(None);
        };
        // `min(distinct c)` equals `min(c)`: distinct is a no-op here.
        let Expr::Aggregate { func, arg: Some(arg), .. } = expr else {
            return Ok(None);
        };
        let is_min = match func {
            AggFunc::Min => true,
            AggFunc::Max => false,
            _ => return Ok(None),
        };
        let Expr::Column { qualifier, name } = arg.as_ref() else {
            return Ok(None);
        };
        match qualifier.as_deref() {
            None => {}
            Some(q) if q == binding => {}
            _ => return Ok(None),
        }
        let Ok(col) = schema.column_id(name) else {
            return Ok(None);
        };
        // Bool columns aside (no meaningful order shortcut), the column
        // needs an ordered index for its boundary keys.
        if schema.column_type(col) == DataType::Bool || ctx.db.ordered_index(tid, col).is_none() {
            return Ok(None);
        }
        let out_name = alias.clone().unwrap_or_else(|| expr.to_string());
        wanted.push((col, is_min, out_name));
    }
    let mut row = Vec::with_capacity(wanted.len());
    let mut names = Vec::with_capacity(wanted.len());
    for (col, is_min, name) in wanted {
        let index = ctx.db.ordered_index(tid, col).expect("checked above");
        // Any stored NaN sits at an extreme of the IEEE total order; the
        // aggregate's fold may raise "cannot compare" on it, so let the
        // generic pipeline reproduce that exactly.
        let is_nan = |k: Option<&Value>| matches!(k, Some(Value::Float(f)) if f.is_nan());
        if is_nan(index.first_key()) || is_nan(index.last_key()) {
            return Ok(None);
        }
        let boundary = if is_min { index.first_key() } else { index.last_key() };
        let v = match boundary {
            // No non-NULL values: the aggregate over them is NULL.
            None => Value::Null,
            Some(v) => resolve_zero_tie(index, v.clone()),
        };
        stats::bump(ctx.stats, |s| s.index_lookups += 1);
        row.push(v);
        names.push(name);
    }
    let rows = if stmt.limit == Some(0) { Vec::new() } else { vec![row] };
    Ok(Some(Relation { columns: names, rows }))
}

/// Pure shape mirror of [`min_max_shortcircuit`]: `true` exactly when that
/// fast path would answer `stmt` (including its NaN-boundary bail-out),
/// with no stats side effects. The `plan:` line of `explain` uses this —
/// the fast path itself is *not* refactored onto it because its bail-out
/// order is observable in `ExecStats` (a NaN bail after the first column
/// has already counted that column's index lookup).
pub(crate) fn min_max_applies(ctx: QueryCtx<'_>, stmt: &SelectStmt) -> bool {
    if stmt.from.len() != 1
        || stmt.distinct
        || stmt.predicate.is_some()
        || !stmt.group_by.is_empty()
        || stmt.having.is_some()
        || !stmt.order_by.is_empty()
        || stmt.projection.is_empty()
    {
        return false;
    }
    let TableSource::Named(table_name) = &stmt.from[0].source else {
        return false;
    };
    let binding = stmt.from[0].binding_name();
    let Ok(tid) = ctx.db.table_id(table_name) else {
        return false;
    };
    let schema = ctx.db.schema(tid);
    stmt.projection.iter().all(|item| {
        let SelectItem::Expr { expr, .. } = item else { return false };
        let Expr::Aggregate { func, arg: Some(arg), .. } = expr else { return false };
        if !matches!(func, AggFunc::Min | AggFunc::Max) {
            return false;
        }
        let Expr::Column { qualifier, name } = arg.as_ref() else { return false };
        match qualifier.as_deref() {
            None => {}
            Some(q) if q == binding => {}
            _ => return false,
        }
        let Ok(col) = schema.column_id(name) else { return false };
        if schema.column_type(col) == DataType::Bool {
            return false;
        }
        let Some(index) = ctx.db.ordered_index(tid, col) else { return false };
        let is_nan = |k: Option<&Value>| matches!(k, Some(Value::Float(f)) if f.is_nan());
        !is_nan(index.first_key()) && !is_nan(index.last_key())
    })
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
