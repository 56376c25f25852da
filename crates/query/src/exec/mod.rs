//! Volcano-style batched physical operators.
//!
//! The query executor is a tree of composable operators behind the
//! [`Executor`] trait: each call to [`Executor::next_batch`] yields the
//! next batch of rows (up to [`BATCH_ROWS`] per batch) or `None` when the
//! operator is exhausted. Every decision — access selection, pushdown
//! classification, equi-join edges, the ordered-index access upgrades,
//! the projection or aggregation program — is made once, before the first batch flows, by
//! [`crate::plan::plan_select`]; the driver in [`crate::select`] moves
//! that plan value's parts into this tree and operators decide nothing
//! but what depends on the rows (join order over scanned cardinalities,
//! exchange and top-K engagement over input sizes). Every read lowers its
//! `from`/`where` half ([`crate::plan::ReadPlan`]) through one helper,
//! [`crate::select::lower_read`]: a `select` stacks its projection or
//! aggregation on the resulting filter, and `delete` / `update` pull the
//! filter directly. The names operators record are the names the `plan:`
//! line of `explain` prints; pass-through stages (a sole item's join, a
//! filter without predicate) record nothing.
//!
//! # Rows flow by reference
//!
//! No operator below the projection owns a row. A scan keeps each row as
//! a `Cow` borrowed from the database (or from the transition provider,
//! which may lend or own it); a combination is a row index into its sole
//! item, or for a join a `k`-wide stride of one flat index vector (one
//! row index per `from` item); the filter keeps the indices of the
//! combinations that survive; and every tree that is row-local
//! ([`crate::compile::is_rowlocal`]) — predicates, projections, group keys,
//! aggregate arguments, `update … set` expressions — is evaluated in
//! `compile::RowEnv` over the borrowed row slices. An owned scope
//! [`Level`](crate::bindings::Level) is built only where a tree that is
//! not row-local (a correlated subquery, an unresolved name) must
//! run in the scoped environment with the combination pushed onto the
//! scope stack. Aggregates fold each argument into a running accumulator
//! as rows stream past, so a group holds its key, its first combination
//! and one accumulator per aggregate call, never its rows.
//!
//! # The operator vocabulary
//!
//! * [`scan::ScanExec`] — one `from` item: a stored-table scan through its
//!   chosen [`Access`](crate::planner::Access) path (seq scan, index
//!   probe/multi-probe, index range) or a transition-table scan, with the
//!   pushed-down conjuncts filtering at the scan. Big-enough stored-table
//!   scans with row-local conjuncts judge them through the exchange
//!   operator: contiguous ranges, merged in partition order. A scan with
//!   no pushed conjunct fetches serially.
//! * [`exchange::Exchange`] — not a tree node but the one gate both
//!   partitioned phases (the scan's pushed conjuncts and the `where`
//!   pass) go through: it decides whether a phase fans out and how wide
//!   (thread budget, `MIN_PARTITION` items per partition), runs
//!   contiguous ranges on scoped threads, returns per-partition results
//!   in partition order, and owns the parallelism counters and the
//!   earliest-error merge rule (see [`crate::compile::is_rowlocal`] for
//!   row-locality, `docs/parallel-execution.md` for the model). Nothing
//!   else partitions: the B16 sweeps measured every other site slower on
//!   two threads than on one.
//! * [`join::JoinExec`] — drains its child scans and assembles row
//!   combinations through the greedy N-way hash/cross
//!   [`JoinPlan`](crate::planner::JoinPlan), serially. Emits batches of
//!   flat combinations (one row index per item) in row-index
//!   lexicographic order.
//! * [`filter::FilterExec`] — evaluates the full `where` predicate per
//!   assembled combination (hash probes and pushdown are sound
//!   prefilters), serially or exchanged when the predicate is
//!   row-local, and emits the surviving combinations. On request it
//!   records each survivor's [`Origin`]s — stored tuples with the `from`
//!   item they were bound through — which are a select trace's reads
//!   (§5.1). It is the top of the DML read phase: `delete` takes its
//!   survivors' handles, and `update` evaluates its `set` expressions
//!   over their rows.
//! * [`project::ProjectExec`] / [`aggregate::AggregateExec`] — expand
//!   wildcards, then evaluate projections row-by-row or per group
//!   (`group by` / `having` / aggregate calls), emitting rows keyed by
//!   their `order by` values. Every grouped statement lowers to a
//!   `GroupProgram` and runs *two-phase*, serially: a streaming
//!   `partial-aggregate` phase folds each input batch into per-group
//!   accumulators, and a `final-aggregate` phase finishes the groups —
//!   over borrowed rows when its trees are row-local apart from their
//!   aggregate calls.
//! * [`sort::DistinctExec`], [`sort::SortExec`], [`sort::LimitExec`] —
//!   `distinct` dedup, the stable order-by sort with its top-K
//!   partial-selection fast path, and the `limit` truncation, all serial.
//!
//! # Batch contract
//!
//! `next_batch` returns `Ok(Some(batch))` with `1..=BATCH_ROWS` rows (a
//! scan or join: its whole materialized output at once),
//! `Ok(None)` at end of stream (repeat calls keep returning `None`), or
//! `Err` — after an error the operator must not be pulled again. Blocking
//! operators (join build, filter's WHERE pass, aggregation,
//! distinct, sort, limit) drain their child completely on first pull and
//! then re-emit in batches; this is what preserves the serial executor's
//! error selection bit-for-bit — a later row's error still surfaces even
//! when an earlier operator could have short-circuited.
//!
//! # Determinism and stats
//!
//! Operators walk combinations in the serial order and bump the counters
//! at the same points whether they read borrowed rows or an owned level,
//! so results, error selection, and the aggregate [`crate::ExecStats`]
//! totals are bit-identical at every thread budget and to the naive
//! reference executor the differential suites compare against.
//! Per-operator counters attach via [`crate::OpStatsCell`] on the
//! context — a separate side channel that never perturbs the aggregate
//! counters.

pub(crate) mod aggregate;
pub(crate) mod exchange;
pub(crate) mod filter;
pub(crate) mod join;
pub(crate) mod project;
pub(crate) mod scan;
pub(crate) mod sort;

use setrules_storage::{TableId, TupleHandle, Value};

use crate::bindings::{Bindings, Level};
use crate::ctx::QueryCtx;
use crate::error::QueryError;

/// Maximum rows per emitted batch above the join. Scans and joins
/// materialize their whole output at open and hand it over as one batch
/// (their test-only `with_batch_rows` knob still cuts it smaller).
pub(crate) const BATCH_ROWS: usize = 1024;

/// One produced row paired with its evaluated `order by` key.
pub(crate) type KeyedRow = (Vec<Value>, Vec<Value>);

/// A stored tuple one surviving combination read: the index of the
/// `from` item it was bound through, its table, and its handle.
pub(crate) type Origin = (usize, TableId, TupleHandle);

/// Combinations of up to this many `from` items lend their rows to
/// [`with_frames`] from a stack buffer.
const INLINE_FRAMES: usize = 4;

/// Run `f` over the rows of one combination (`combo[i]` is the row index
/// into item `i`) as borrowed frame slices — the shape
/// [`RowEnv`](crate::compile::RowEnv) evaluates over. Allocates nothing for
/// up to [`INLINE_FRAMES`] items.
pub(crate) fn with_frames<R>(
    items: &[scan::FromItem<'_>],
    combo: &[usize],
    f: impl FnOnce(&[&[Value]]) -> R,
) -> R {
    if combo.len() <= INLINE_FRAMES {
        let mut buf: [&[Value]; INLINE_FRAMES] = [&[]; INLINE_FRAMES];
        for (slot, (it, &r)) in buf.iter_mut().zip(items.iter().zip(combo)) {
            *slot = it.row(r);
        }
        f(&buf[..combo.len()])
    } else {
        let frames: Vec<&[Value]> = items.iter().zip(combo).map(|(it, &r)| it.row(r)).collect();
        f(&frames)
    }
}

/// The owned scope level of one combination, its rows cloned — built
/// only to run a tree that is not row-local in the scoped environment.
pub(crate) fn level_of(items: &[scan::FromItem<'_>], combo: &[usize]) -> Level {
    items.iter().zip(combo).map(|(it, &r)| it.frame(it.row(r).to_vec())).collect()
}

/// Everything an operator needs per pull: the (Copy) query context and
/// the scope stack. The stack is threaded mutably through the tree — only
/// the operator currently evaluating holds it, exactly like the recursive
/// executor it replaces. The context's lifetime `'a` is the lifetime of
/// the rows the operators borrow from its database.
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

/// A batched physical operator over rows borrowed for `'a`.
pub(crate) trait Executor<'a> {
    /// The unit one pull produces (a vector of rows, cursors, …).
    type Batch;

    /// This operator's display name (stable vocabulary: `"seq-scan"`,
    /// `"hash-join"`, `"filter"`, `"sort"`, …), used for per-operator
    /// stats; `explain` prints the same names on its `plan:` line.
    fn name(&self) -> &'static str;

    /// Produce the next batch, or `None` when exhausted.
    fn next_batch(&mut self, cx: &mut ExecCx<'a, '_>) -> Result<Option<Self::Batch>, QueryError>;
}

/// The top of a lowered select pipeline: emits [`KeyedRow`] batches and,
/// once opened (first `next_batch`), knows its output column names and
/// the stored-tuple origins of every emitted row (for select tracing).
pub(crate) trait RowSource<'a>: Executor<'a, Batch = Vec<KeyedRow>> {
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
    /// The last batch takes the remaining buffer itself — without a copy
    /// when nothing was emitted before it.
    pub(crate) fn next(&mut self) -> Option<Vec<T>> {
        let b: Vec<T> = if self.iter.len() <= self.batch_rows {
            std::mem::take(&mut self.iter).collect()
        } else {
            self.iter.by_ref().take(self.batch_rows).collect()
        };
        if b.is_empty() {
            None
        } else {
            Some(b)
        }
    }
}

/// Append a pulled batch to `acc`, taking the batch's buffer while `acc`
/// is still empty — a child that emits one batch costs no copy.
pub(crate) fn append<T>(acc: &mut Vec<T>, batch: Vec<T>) {
    if acc.is_empty() {
        *acc = batch;
    } else {
        acc.extend(batch);
    }
}

#[cfg(test)]
mod tests;
