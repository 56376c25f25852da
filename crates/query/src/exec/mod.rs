//! Volcano-style batched physical operators.
//!
//! The query executor is a tree of composable operators behind the
//! [`Executor`] trait: each call to [`Executor::next_batch`] yields the
//! next batch of rows (up to [`BATCH_ROWS`] per batch) or `None` when the
//! operator is exhausted. The planner in [`crate::select`] *lowers* a
//! statement to this tree — access selection, pushdown classification,
//! join planning, sort-elision and top-K eligibility are all decided
//! before the first batch flows — instead of branching inside one
//! monolithic function. Every read lowers its `from` list and predicate
//! through one helper, [`crate::select::lower_where`]: a `select` stacks
//! its projection or aggregation on the resulting filter, and `delete` /
//! `update` pull the filter directly.
//!
//! # The operator vocabulary
//!
//! * [`scan::ScanExec`] — one `from` item: a stored-table scan through its
//!   chosen [`Access`](crate::planner::Access) path (seq scan, index
//!   probe/multi-probe, index range) or a transition-table scan, with the
//!   pushed-down conjuncts filtering at the scan. Big-enough stored-table
//!   scans with row-local conjuncts partition through the exchange
//!   operator: contiguous ranges, merged in partition order.
//! * [`exchange::Exchange`] — not a tree node but the one gate every
//!   partitioned phase goes through: it decides whether a phase fans out
//!   (thread budget, [`crate::parallel::PAR_THRESHOLD`]), dispatches
//!   contiguous ranges on the worker pool, returns per-partition results
//!   in partition order, and owns the parallelism counters and the
//!   earliest-error merge rule (see [`crate::parallel`] for row-locality,
//!   `docs/parallel-execution.md` for the model).
//! * [`join::JoinExec`] — drains its child scans and assembles row
//!   combinations through the greedy N-way hash/cross
//!   [`JoinPlan`](crate::planner::JoinPlan). Hash-step builds and probes
//!   exchange across partitions. Emits batches of *cursors* (one row index
//!   per item) in row-index lexicographic order.
//! * [`filter::FilterExec`] — evaluates the full `where` predicate per
//!   assembled combination (hash probes and pushdown are sound
//!   prefilters), serially or exchanged when the predicate is
//!   row-local. On request it records each surviving combination's
//!   [`Origin`]s — stored tuples with the `from` item they were bound
//!   through — which are a select trace's reads (§5.1) and a `delete` /
//!   `update`'s target handles. It is the top of the DML read phase:
//!   `update` evaluates its `set` expressions over its surviving levels.
//! * [`project::ProjectExec`] / [`aggregate::AggregateExec`] — expand
//!   wildcards, then evaluate projections row-by-row or per group
//!   (`group by` / `having` / aggregate calls), emitting rows keyed by
//!   their `order by` values. Every grouped statement lowers to a
//!   `GroupProgram` and runs *two-phase*: a streaming `partial-aggregate`
//!   phase accumulates each input batch (exchanged into per-partition
//!   accumulators, merged in encounter order, when its keys and aggregate
//!   arguments are row-local), and a `final-aggregate` phase folds the
//!   groups — itself exchanged when there are enough and its trees are
//!   row-local apart from their aggregate calls.
//! * [`sort::DistinctExec`], [`sort::SortExec`], [`sort::LimitExec`] —
//!   `distinct` dedup, the stable order-by sort with its top-K
//!   partial-selection fast path, and the `limit` truncation. Distinct
//!   exchanges per-partition first-occurrence candidates, sort merges
//!   per-partition runs under the `(key, input index)` total order, and
//!   top-K selects per-partition candidate supersets before the serial
//!   selection.
//!
//! # Batch contract
//!
//! `next_batch` returns `Ok(Some(batch))` with `1..=BATCH_ROWS` rows,
//! `Ok(None)` at end of stream (repeat calls keep returning `None`), or
//! `Err` — after an error the operator must not be pulled again. Blocking
//! operators (join build, filter's parallel WHERE pass, aggregation,
//! distinct, sort, limit) drain their child completely on first pull and
//! then re-emit in batches; this is what preserves the serial executor's
//! error selection bit-for-bit — a later row's error still surfaces even
//! when an earlier operator could have short-circuited.
//!
//! # Determinism and stats
//!
//! Operators contain exactly the code the monolithic executor ran, so
//! results, error selection, and the aggregate [`crate::ExecStats`]
//! totals are bit-identical to the pre-operator pipeline (the
//! differential suites enforce this). Per-operator counters attach via
//! [`crate::OpStatsCell`] on the context — a separate side channel that
//! never perturbs the aggregate counters.

pub(crate) mod aggregate;
pub(crate) mod exchange;
pub(crate) mod filter;
pub(crate) mod join;
pub(crate) mod project;
pub(crate) mod scan;
pub(crate) mod sort;

use std::sync::Arc;

use setrules_sql::ast::{SelectItem, SelectStmt, TableSource};
use setrules_storage::{DataType, TableId, TupleHandle, Value};

use crate::bindings::Bindings;
use crate::compile::{compile, Layout, LayoutFrame};
use crate::ctx::QueryCtx;
use crate::error::QueryError;
use crate::planner::{choose_access, equi_join_edges};
use crate::select::has_aggregate;

/// Maximum rows per emitted batch.
pub(crate) const BATCH_ROWS: usize = 1024;

/// One produced row paired with its evaluated `order by` key.
pub(crate) type KeyedRow = (Vec<Value>, Vec<Value>);

/// A stored tuple one surviving combination read: the index of the
/// `from` item it was bound through, its table, and its handle.
pub(crate) type Origin = (usize, TableId, TupleHandle);

/// Everything an operator needs per pull: the (Copy) query context and
/// the scope stack. The stack is threaded mutably through the tree — only
/// the operator currently evaluating holds it, exactly like the recursive
/// executor it replaces.
pub(crate) struct ExecCx<'a, 'b> {
    /// The query context (database, provider, caches, stats, threads).
    pub ctx: QueryCtx<'a>,
    /// Name-resolution scopes (outer query levels for correlated
    /// subqueries; operators push/pop their own innermost level).
    pub bindings: &'b mut Bindings,
}

impl ExecCx<'_, '_> {
    /// Record a batch emission on the per-operator side channel.
    pub(crate) fn batch_out(&self, name: &'static str, rows: usize) {
        if let Some(cell) = self.ctx.op_stats {
            cell.batch_out(name, rows);
        }
    }

    /// Record rows consumed from a child operator.
    pub(crate) fn rows_in(&self, name: &'static str, rows: usize) {
        if let Some(cell) = self.ctx.op_stats {
            cell.rows_in(name, rows);
        }
    }
}

/// A batched physical operator.
pub(crate) trait Executor {
    /// The unit one pull produces (a vector of rows, cursors, …).
    type Batch;

    /// This operator's display name (stable vocabulary: `"seq-scan"`,
    /// `"hash-join"`, `"filter"`, `"sort"`, …), used for per-operator
    /// stats and the `plan:` line of `explain`.
    fn name(&self) -> &'static str;

    /// Produce the next batch, or `None` when exhausted.
    fn next_batch(&mut self, cx: &mut ExecCx<'_, '_>) -> Result<Option<Self::Batch>, QueryError>;
}

/// The top of a lowered select pipeline: emits [`KeyedRow`] batches and,
/// once opened (first `next_batch`), knows its output column names and
/// the stored-tuple origins of every emitted row (for select tracing).
pub(crate) trait RowSource: Executor<Batch = Vec<KeyedRow>> {
    /// Output column names; valid after the first `next_batch` call.
    fn output_columns(&self) -> &[String];

    /// Take the origins collected by the filter (empty unless the
    /// pipeline was built with tracing on).
    fn take_origins(&mut self) -> Vec<Origin>;
}

/// A materialized result being re-emitted in batches: blocking operators
/// produce their full output once (at open), then hand it out
/// `batch_rows` elements at a time. Advancing is a pointer bump on the
/// owning iterator — no tail copying per batch.
pub(crate) struct Batches<T> {
    iter: std::vec::IntoIter<T>,
    batch_rows: usize,
}

impl<T> Batches<T> {
    pub(crate) fn new(buf: Vec<T>, batch_rows: usize) -> Self {
        Batches { iter: buf.into_iter(), batch_rows }
    }

    /// The next batch of `1..=batch_rows` elements, `None` when drained.
    pub(crate) fn next(&mut self) -> Option<Vec<T>> {
        let b: Vec<T> = self.iter.by_ref().take(self.batch_rows).collect();
        if b.is_empty() {
            None
        } else {
            Some(b)
        }
    }
}

/// Whether `stmt` takes the grouped (aggregate) pipeline. Wildcard
/// expansions only ever add bare column references, so this is decidable
/// from the statement alone — both the lowering driver and the `explain`
/// shape report use this one function.
pub(crate) fn is_grouped(stmt: &SelectStmt) -> bool {
    !stmt.group_by.is_empty()
        || stmt
            .projection
            .iter()
            .any(|it| matches!(it, SelectItem::Expr { expr, .. } if has_aggregate(expr)))
        || stmt.having.as_ref().is_some_and(has_aggregate)
}

/// The plan-time scope of a top-level statement, from schemas alone:
/// per-item column types, the items' frames, and the layout over them
/// (top-level statements have no outer scopes, so this *is* the runtime
/// layout). `None` when a table is unknown.
fn schema_scope(
    ctx: QueryCtx<'_>,
    stmt: &SelectStmt,
) -> Option<(Vec<Vec<DataType>>, Vec<LayoutFrame>, Layout)> {
    let mut types = Vec::new();
    let mut frames = Vec::new();
    for tref in &stmt.from {
        let (TableSource::Named(table) | TableSource::Transition { table, .. }) = &tref.source;
        let schema = ctx.db.schema(ctx.db.table_id(table).ok()?);
        types.push(schema.columns.iter().map(|c| c.ty).collect());
        frames.push(LayoutFrame {
            name: tref.binding_name().to_string(),
            columns: Arc::new(schema.columns.iter().map(|c| c.name.clone()).collect()),
        });
    }
    let mut layout = Layout::new();
    layout.push_level(frames.clone());
    Some((types, frames, layout))
}

/// The two-phase aggregation program of a grouped statement against the
/// schema-derived layout — the plan-time view of
/// [`aggregate::group_program`]; `None` when a wildcard does not expand.
fn plan_group_program(
    stmt: &SelectStmt,
    layout: &Layout,
    frames: &[LayoutFrame],
) -> Option<aggregate::GroupProgram> {
    let cols: Vec<(&str, &Arc<Vec<String>>)> =
        frames.iter().map(|f| (f.name.as_str(), &f.columns)).collect();
    let proj = project::expand_wildcards_cols(stmt, &cols).ok()?;
    Some(aggregate::group_program(stmt, layout, &proj))
}

/// The pipeline stages of `stmt` that are *exchange-eligible* — the
/// stages a multi-threaded run would partition onto the worker pool, in
/// pipeline order — or `None` when there are none (including the fast
/// paths, which never reach the operator pipeline). This is the
/// `parallel:` line of `explain`, derived from the same gates the
/// operators use: the WHERE pass exchanges only a row-local full
/// predicate, the join exchanges its hash build/probe (so it needs an
/// equi-edge), aggregation exchanges when either of its phases may leave
/// the serial environment, and distinct/sort/top-K partition on values
/// alone. Shape-only — the
/// run-time size gate ([`exchange::Exchange::plan`]) cannot be decided
/// here, so the line is identical at every thread count.
pub(crate) fn parallel_stages(ctx: QueryCtx<'_>, stmt: &SelectStmt) -> Option<Vec<&'static str>> {
    if crate::select::min_max_applies(ctx, stmt)
        || crate::select::elidable_order_column(ctx, stmt).is_some()
    {
        return None;
    }
    let (types, frames, layout) = schema_scope(ctx, stmt)?;
    let mut stages = Vec::new();
    if stmt.from.len() > 1
        && !equi_join_edges(stmt.predicate.as_ref(), &layout, &types).is_empty()
    {
        stages.push("join");
    }
    if let Some(p) = stmt.predicate.as_ref() {
        if crate::parallel::is_rowlocal(&compile(p, &layout)) {
            stages.push("where");
        }
    }
    if is_grouped(stmt)
        && plan_group_program(stmt, &layout, &frames)
            .is_some_and(|p| p.rows_exchangeable || p.groups_exchangeable)
    {
        stages.push("aggregate");
    }
    if stmt.distinct {
        stages.push("distinct");
    }
    if !stmt.order_by.is_empty() {
        stages.push("sort");
    }
    if stages.is_empty() {
        None
    } else {
        Some(stages)
    }
}

/// The operator chain `stmt` lowers to, as display names in pull order —
/// the `plan:` line of `explain`. Derived from the *same* gate functions
/// the lowering driver uses ([`crate::select::elidable_order_column`],
/// the min/max shape check, [`is_grouped`]), so the printed tree cannot
/// drift from the executed one.
pub(crate) fn plan_ops(ctx: QueryCtx<'_>, stmt: &SelectStmt) -> Option<Vec<String>> {
    // Fast paths first, mirroring run_select_traced's dispatch order.
    if crate::select::min_max_applies(ctx, stmt) {
        let TableSource::Named(name) = &stmt.from[0].source else { return None };
        return Some(vec![format!("index-minmax({name})")]);
    }
    if let Some((tid, oc, _)) = crate::select::elidable_order_column(ctx, stmt) {
        let mut ops = vec![format!(
            "index-order-scan({}.{})",
            stmt.from[0].binding_name(),
            ctx.db.schema(tid).column_name(oc)
        )];
        if stmt.predicate.is_some() {
            ops.push("filter".into());
        }
        ops.push("project".into());
        if stmt.limit.is_some() {
            ops.push("limit".into());
        }
        return Some(ops);
    }

    let (types, frames, layout) = schema_scope(ctx, stmt)?;
    let sole = stmt.from.len() == 1;
    let mut ops = Vec::new();
    for tref in &stmt.from {
        let binding = tref.binding_name();
        match &tref.source {
            TableSource::Named(name) => {
                let tid = ctx.db.table_id(name).ok()?;
                let access = choose_access(ctx, tid, binding, sole, stmt.predicate.as_ref());
                ops.push(format!("{}({binding})", scan::access_op_name(&access)));
            }
            TableSource::Transition { .. } => ops.push(format!("transition-scan({binding})")),
        }
    }
    if stmt.from.len() > 1 {
        // The greedy join plan places every item; once any equi-edge
        // exists, the step that places that edge's second endpoint is a
        // hash step — so "hash vs nested-loop" depends only on the edge
        // set, not on cardinalities.
        let edges = equi_join_edges(stmt.predicate.as_ref(), &layout, &types);
        ops.push(if edges.is_empty() { "nested-loop".into() } else { "hash-join".into() });
    }
    if stmt.predicate.is_some() {
        ops.push("filter".into());
    }
    if is_grouped(stmt) {
        // Grouped top: always two-phase, with the exchange between the
        // phases when the partial phase may run on the pool (the exact
        // gate the executor uses). Shape-only, so the line is identical at
        // every thread count.
        ops.push("partial-aggregate".into());
        if plan_group_program(stmt, &layout, &frames).is_some_and(|p| p.rows_exchangeable) {
            ops.push("exchange".into());
        }
        ops.push("final-aggregate".into());
    } else {
        ops.push("project".into());
    }
    if stmt.distinct {
        ops.push("distinct".into());
    }
    if !stmt.order_by.is_empty() {
        ops.push("sort".into());
    }
    if stmt.limit.is_some() {
        ops.push("limit".into());
    }
    Some(ops)
}

#[cfg(test)]
mod tests;
