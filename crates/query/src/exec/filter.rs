//! The filter operator: evaluates the full `where` predicate per
//! assembled combination.
//!
//! Pushdown and hash probes below are sound *prefilters*; this operator
//! is where three-valued `where` semantics are actually decided, a
//! combination surviving only on a definite `true`. It is blocking — the
//! parallel-WHERE eligibility decision needs the total combination count,
//! and the serial walk's error selection (earliest combination in
//! lexicographic order) must be reproduced exactly — so it drains its
//! child at open, judges every combination (serially, or partitioned on
//! the pool when the predicate is row-local), then emits the surviving
//! scope levels in batches. When tracing is on it also collects, per
//! surviving combination, the stored-tuple origins (with their `from`
//! item index) that a select trace and a `delete`/`update` need.

use setrules_storage::Value;

use crate::bindings::{Bindings, Level};
use crate::compile::{eval_compiled_predicate, holds, CompiledExpr, RowEnv};
use crate::ctx::QueryCtx;
use crate::error::QueryError;
use crate::parallel;
use crate::stats;

use super::exchange::Exchange;
use super::join::JoinExec;
use super::scan::FromItem;
use super::{Batches, ExecCx, Executor, Origin};

/// The scope level of one assembled combination (`cursor[i]` is the row
/// index into item `i`), cloning the rows.
fn level_of(items: &[FromItem], cursor: &[usize]) -> Level {
    items.iter().zip(cursor).map(|(it, &r)| it.frame(it.rows[r].1.clone())).collect()
}

/// [`level_of`], except that a sole item's row *moves* into its level: a
/// sole item's rows each belong to exactly one combination, and nothing
/// reads them once the filter has judged it. A join's rows are shared
/// between combinations and are cloned.
fn take_level(items: &mut [FromItem], cursor: &[usize]) -> Level {
    match items {
        [it] => {
            let row = std::mem::take(&mut it.rows[cursor[0]].1);
            vec![it.frame(row)]
        }
        _ => level_of(items, cursor),
    }
}

/// Append the stored-tuple origins of one combination, each with its item
/// index (tracing).
fn push_origins(items: &[FromItem], cursor: &[usize], out: &mut Vec<Origin>) {
    let rows = items.iter().zip(cursor).map(|(it, &r)| it.rows[r].0);
    out.extend(rows.enumerate().filter_map(|(i, o)| o.map(|(t, h)| (i, t, h))));
}

/// Serially evaluate one assembled combination: count it, run the
/// full predicate, and keep the level (plus origins) on *true*.
#[allow(clippy::too_many_arguments)]
fn consider(
    ctx: QueryCtx<'_>,
    items: &mut [FromItem],
    full_pred: Option<&CompiledExpr>,
    want_trace: bool,
    cursor: &[usize],
    bindings: &mut Bindings,
    matching: &mut Vec<Level>,
    origins: &mut Vec<Origin>,
) -> Result<(), QueryError> {
    stats::bump(ctx.stats, |s| s.join_combinations += 1);
    bindings.push_level(take_level(items, cursor));
    let keep = match full_pred {
        Some(cp) => eval_compiled_predicate(ctx, bindings, cp),
        None => Ok(true),
    };
    let level = bindings.pop_level().expect("pushed above");
    if keep? {
        stats::bump(ctx.stats, |s| s.rows_matched += 1);
        if want_trace {
            push_origins(items, cursor, origins);
        }
        matching.push(level);
    }
    Ok(())
}

/// The WHERE pass may exchange only when the full predicate is
/// row-local; when an exchange was planned (thread budget, enough
/// combinations) but the predicate is not row-local (correlated
/// subquery needing the shared memo, interpreter fallback), that
/// counts an observable fallback.
fn parallel_where<'p>(
    ctx: QueryCtx<'_>,
    full_pred: Option<&'p CompiledExpr>,
    combinations: usize,
) -> Option<(Exchange, &'p CompiledExpr)> {
    let cp = full_pred?;
    let ex = Exchange::plan(ctx, combinations)?;
    if parallel::is_rowlocal(cp) {
        Some((ex, cp))
    } else {
        Exchange::serial_fallback(ctx);
        None
    }
}

/// The `where` operator. Blocking: judges every combination at open,
/// then emits the surviving [`Level`]s in batches. Without a predicate it
/// passes every combination through and records nothing (the plan has no
/// filter stage).
pub(crate) struct FilterExec<'q> {
    join: JoinExec<'q>,
    full_pred: Option<CompiledExpr>,
    want_trace: bool,
    origins: Vec<Origin>,
    batch_rows: usize,
    state: Option<Batches<Level>>,
}

impl<'q> FilterExec<'q> {
    pub(crate) fn new(
        join: JoinExec<'q>,
        full_pred: Option<CompiledExpr>,
        want_trace: bool,
    ) -> Self {
        FilterExec {
            join,
            full_pred,
            want_trace,
            origins: Vec::new(),
            batch_rows: super::BATCH_ROWS,
            state: None,
        }
    }

    #[cfg(test)]
    pub(crate) fn with_batch_rows(mut self, batch_rows: usize) -> Self {
        self.batch_rows = batch_rows;
        self
    }

    /// The materialized `from` items; valid after open (first pull).
    pub(crate) fn items(&self) -> &[FromItem] {
        self.join.items()
    }

    /// Take the origins of every surviving combination (tracing only), in
    /// the order the levels were emitted and, within one, in item order.
    pub(crate) fn take_origins(&mut self) -> Vec<Origin> {
        std::mem::take(&mut self.origins)
    }

    fn open(&mut self, cx: &mut ExecCx<'_, '_>) -> Result<Vec<Level>, QueryError> {
        let ctx = cx.ctx;
        let mut cursors: Vec<Vec<usize>> = Vec::new();
        while let Some(batch) = self.join.next_batch(cx)? {
            if self.full_pred.is_some() {
                cx.rows_in("filter", batch.len());
            }
            cursors.extend(batch);
        }
        let mut matching: Vec<Level> = Vec::new();
        if let Some((ex, cp)) = parallel_where(ctx, self.full_pred.as_ref(), cursors.len()) {
            let items = self.join.items();
            let cursors_ref = &cursors;
            let sole = items.len() == 1;
            // Workers clone a join's surviving scope levels too; a sole
            // item's survivors move into theirs at the merge below.
            let verdicts = ex.judge(ctx, |i| {
                let cursor = &cursors_ref[i];
                let frames: Vec<&[Value]> = cursor
                    .iter()
                    .zip(items.iter())
                    .map(|(&r, it)| it.rows[r].1.as_slice())
                    .collect();
                let kept = holds(cp, &mut RowEnv(&frames))?;
                Ok(kept.then(|| (i, (!sole).then(|| level_of(items, cursor)))))
            });
            // Merge in partition order: counters first, then the kept
            // levels, stopping at the earliest error — reproducing the
            // serial combination walk exactly.
            let items = self.join.items_mut();
            for v in verdicts {
                stats::bump(ctx.stats, |s| {
                    s.join_combinations += v.combos;
                    s.rows_matched += v.matched;
                });
                for (i, level) in v.kept {
                    if self.want_trace {
                        push_origins(items, &cursors[i], &mut self.origins);
                    }
                    matching.push(level.unwrap_or_else(|| take_level(items, &cursors[i])));
                }
                if let Some(e) = v.err {
                    return Err(e);
                }
            }
        } else {
            for c in &cursors {
                consider(
                    ctx,
                    self.join.items_mut(),
                    self.full_pred.as_ref(),
                    self.want_trace,
                    c,
                    cx.bindings,
                    &mut matching,
                    &mut self.origins,
                )?;
            }
        }
        Ok(matching)
    }
}

impl Executor for FilterExec<'_> {
    type Batch = Vec<Level>;

    fn name(&self) -> &'static str {
        "filter"
    }

    fn next_batch(&mut self, cx: &mut ExecCx<'_, '_>) -> Result<Option<Self::Batch>, QueryError> {
        if self.state.is_none() {
            let matching = self.open(cx)?;
            self.state = Some(Batches::new(matching, self.batch_rows));
        }
        let batch = self.state.as_mut().expect("opened above").next();
        if let (Some(b), Some(_)) = (&batch, &self.full_pred) {
            cx.batch_out(self.name(), b.len());
        }
        Ok(batch)
    }
}
