//! The filter operator: evaluates the full `where` predicate per
//! assembled combination.
//!
//! Pushdown and hash probes below are sound *prefilters*; this operator
//! is where three-valued `where` semantics are actually decided, a
//! combination surviving only on a definite `true`. It is blocking — the
//! parallel-WHERE eligibility decision needs the total combination count,
//! and the serial walk's error selection (earliest combination in
//! lexicographic order) must be reproduced exactly — so it drains its
//! child at open, judges every combination (serially, or partitioned
//! through the exchange when the predicate is row-local and the
//! combinations are many — one of the two partitioned phases, with the
//! scan's pushed conjuncts), then emits the surviving
//! combinations in batches, as the join does: flat row indices in strides
//! of the item count. A row-local predicate is judged over the borrowed
//! rows; only a predicate that is not row-local gets an owned scope level
//! per combination. When tracing is on it also collects, per surviving
//! combination, the stored-tuple origins (with their `from` item index)
//! that a select trace needs.

use crate::compile::{eval_compiled_predicate, holds, is_rowlocal, CompiledExpr, RowEnv};
use crate::ctx::QueryCtx;
use crate::error::QueryError;
use crate::stats;

use super::exchange::Exchange;
use super::join::JoinExec;
use super::scan::FromItem;
use super::{append, level_of, with_frames, Batches, ExecCx, Executor, Origin};

/// Append the stored-tuple origins of one combination, each with its item
/// index (tracing).
fn push_origins(items: &[FromItem<'_>], combo: &[usize], out: &mut Vec<Origin>) {
    let rows = items.iter().zip(combo).map(|(it, &r)| it.rows[r].0);
    out.extend(rows.enumerate().filter_map(|(i, o)| o.map(|(t, h)| (i, t, h))));
}

/// The WHERE pass may exchange only when the full predicate is
/// row-local; when an exchange was planned (thread budget, enough
/// combinations) but the predicate is not row-local (correlated
/// subquery needing the shared memo, an unresolved name), that
/// counts an observable fallback.
fn parallel_where(ctx: QueryCtx<'_>, cp: &CompiledExpr, combinations: usize) -> Option<Exchange> {
    let ex = Exchange::plan(ctx, combinations)?;
    if is_rowlocal(cp) {
        Some(ex)
    } else {
        Exchange::serial_fallback(ctx);
        None
    }
}

/// The `where` operator. Blocking: judges every combination at open,
/// then emits the survivors in batches. Without a predicate it passes
/// every combination through and records nothing (the plan has no
/// filter stage).
pub(crate) struct FilterExec<'a> {
    join: JoinExec<'a>,
    full_pred: Option<CompiledExpr>,
    want_trace: bool,
    origins: Vec<Origin>,
    batch_rows: usize,
    state: Option<Batches<usize>>,
}

impl<'a> FilterExec<'a> {
    pub(crate) fn new(
        join: JoinExec<'a>,
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

    /// Row indices per combination (the number of `from` items).
    pub(crate) fn width(&self) -> usize {
        self.join.width()
    }

    /// The materialized `from` items; valid after open (first pull).
    pub(crate) fn items(&self) -> &[FromItem<'a>] {
        self.join.items()
    }

    /// Take the origins of every surviving combination (tracing only), in
    /// the order the combinations were emitted and, within one, in item
    /// order.
    pub(crate) fn take_origins(&mut self) -> Vec<Origin> {
        std::mem::take(&mut self.origins)
    }

    fn open(&mut self, cx: &mut ExecCx<'a, '_>) -> Result<Vec<usize>, QueryError> {
        let ctx = cx.ctx;
        let k = self.width();
        let mut combos: Vec<usize> = Vec::new();
        while let Some(batch) = self.join.next_batch(cx)? {
            if self.full_pred.is_some() {
                cx.rows_in("filter", batch.len() / k);
            }
            append(&mut combos, batch);
        }
        let n = combos.len() / k;
        let items = self.join.items();
        let Some(cp) = &self.full_pred else {
            stats::bump(ctx.stats, |s| {
                s.join_combinations += n as u64;
                s.rows_matched += n as u64;
            });
            if self.want_trace {
                for c in combos.chunks_exact(k) {
                    push_origins(items, c, &mut self.origins);
                }
            }
            return Ok(combos);
        };
        let mut kept: Vec<usize> = Vec::new();
        if let Some(ex) = parallel_where(ctx, cp, n) {
            let combos = &combos;
            let verdicts = ex.judge(ctx, |i| {
                let keep = with_frames(items, &combos[i * k..(i + 1) * k], |frames| {
                    holds(cp, &mut RowEnv(frames))
                })?;
                Ok(keep.then_some(i))
            });
            // Merge in partition order: counters first, then the kept
            // combinations, stopping at the earliest error — reproducing
            // the serial combination walk exactly.
            for v in verdicts {
                stats::bump(ctx.stats, |s| {
                    s.join_combinations += v.combos;
                    s.rows_matched += v.matched;
                });
                for i in v.kept {
                    let c = &combos[i * k..(i + 1) * k];
                    if self.want_trace {
                        push_origins(items, c, &mut self.origins);
                    }
                    kept.extend_from_slice(c);
                }
                if let Some(e) = v.err {
                    return Err(e);
                }
            }
        } else {
            // The serial walk, counting locally and charging the counters
            // once, at the end or at the first error.
            let rowlocal = is_rowlocal(cp);
            let (mut seen, mut matched) = (0u64, 0u64);
            let mut outcome = Ok(());
            for c in combos.chunks_exact(k) {
                seen += 1;
                let keep = if rowlocal {
                    with_frames(items, c, |frames| holds(cp, &mut RowEnv(frames)))
                } else {
                    cx.bindings.push_level(level_of(items, c));
                    let keep = eval_compiled_predicate(ctx, cx.bindings, cp);
                    cx.bindings.pop_level();
                    keep
                };
                match keep {
                    Ok(false) => {}
                    Ok(true) => {
                        matched += 1;
                        if self.want_trace {
                            push_origins(items, c, &mut self.origins);
                        }
                        kept.extend_from_slice(c);
                    }
                    Err(e) => {
                        outcome = Err(e);
                        break;
                    }
                }
            }
            stats::bump(ctx.stats, |s| {
                s.join_combinations += seen;
                s.rows_matched += matched;
            });
            outcome?;
        }
        Ok(kept)
    }
}

impl<'a> Executor<'a> for FilterExec<'a> {
    /// Up to `batch_rows` surviving combinations, flat in strides of
    /// [`FilterExec::width`].
    type Batch = Vec<usize>;

    fn name(&self) -> &'static str {
        "filter"
    }

    fn next_batch(&mut self, cx: &mut ExecCx<'a, '_>) -> Result<Option<Self::Batch>, QueryError> {
        if self.state.is_none() {
            let kept = self.open(cx)?;
            self.state = Some(Batches::new(kept, self.batch_rows * self.width()));
        }
        let batch = self.state.as_mut().expect("opened above").next();
        if let (Some(b), Some(_)) = (&batch, &self.full_pred) {
            cx.batch_out(self.name(), b.len() / self.width());
        }
        Ok(batch)
    }
}
