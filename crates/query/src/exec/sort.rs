//! The order-sensitive tail operators: `distinct`, `sort`/`topk`, and
//! `limit`. Each wraps a boxed [`RowSource`] (project or aggregate, or
//! another tail operator) and is itself a [`RowSource`], so the driver
//! stacks them conditionally.
//!
//! All three are blocking: `distinct` needs the full set to deduplicate
//! in first-occurrence order, `sort` needs it to sort, and `limit` must
//! drain its child fully even past the cutoff so a projection error on a
//! row beyond the limit still surfaces (the historical pipeline projected
//! every row before truncating).
//!
//! Big-enough inputs partition on the pool through the
//! [`exchange`](super::exchange) operator — these stages compare values
//! only, so no row-locality gate applies:
//!
//! * `distinct` — each partition keeps its *local* first-occurrence
//!   indices (a sound superset of the global survivors: a row that is not
//!   even first in its own partition cannot be first overall); the merge
//!   walks the candidates in partition order — ascending input order —
//!   through one global set, reproducing the serial first-occurrence
//!   scan.
//! * `sort` — each partition sorts its range by `(key, input index)`;
//!   the index tiebreak makes the comparator a total order, so the k-way
//!   merge of the runs *is* the stable sort of the whole input.
//! * `topk` — each partition selects its own top K under the same total
//!   order (every global top-K row is in its partition's top K), then
//!   the ≤ partitions·K candidates go through the serial selection.

use std::cmp::Ordering;
use std::collections::HashSet;

use setrules_storage::Value;

use crate::error::QueryError;
use crate::stats;

use super::exchange::Exchange;
use super::{Batches, ExecCx, Executor, KeyedRow, Origin, RowSource};

/// Drain a boxed child fully, charging the rows to `name`'s input side.
fn drain(
    child: &mut Box<dyn RowSource + '_>,
    name: &'static str,
    cx: &mut ExecCx<'_, '_>,
) -> Result<Vec<KeyedRow>, QueryError> {
    let mut rows: Vec<KeyedRow> = Vec::new();
    while let Some(batch) = child.next_batch(cx)? {
        cx.rows_in(name, batch.len());
        rows.extend(batch);
    }
    Ok(rows)
}

/// `select distinct`: keep the first occurrence of each output row, in
/// input order.
pub(crate) struct DistinctExec<'q> {
    child: Box<dyn RowSource + 'q>,
    state: Option<Batches<KeyedRow>>,
    batch_rows: usize,
}

impl<'q> DistinctExec<'q> {
    pub(crate) fn new(child: Box<dyn RowSource + 'q>) -> Self {
        DistinctExec { child, state: None, batch_rows: super::BATCH_ROWS }
    }

    #[cfg(test)]
    pub(crate) fn with_batch_rows(mut self, batch_rows: usize) -> Self {
        self.batch_rows = batch_rows;
        self
    }
}

impl Executor for DistinctExec<'_> {
    type Batch = Vec<KeyedRow>;

    fn name(&self) -> &'static str {
        "distinct"
    }

    fn next_batch(&mut self, cx: &mut ExecCx<'_, '_>) -> Result<Option<Self::Batch>, QueryError> {
        if self.state.is_none() {
            let rows = drain(&mut self.child, "distinct", cx)?;
            // Dedup on the projected row (not the sort key) with borrowed
            // slices, then retain by mask so survivors keep input order.
            let mask: Vec<bool> = if let Some(ex) = Exchange::plan(cx.ctx, rows.len()) {
                // Each partition's local first occurrences, merged in
                // partition order through one global set: candidate
                // indices arrive in ascending input order, so the global
                // survivor set is exactly the serial one.
                let rows_ref = &rows;
                let locals: Vec<Vec<usize>> = ex.run(cx.ctx, |range| {
                    let mut local: HashSet<&[Value]> = HashSet::new();
                    range.filter(|&i| local.insert(rows_ref[i].1.as_slice())).collect()
                });
                let mut seen: HashSet<&[Value]> = HashSet::new();
                let mut mask = vec![false; rows.len()];
                for i in locals.into_iter().flatten() {
                    if seen.insert(rows[i].1.as_slice()) {
                        mask[i] = true;
                    }
                }
                mask
            } else {
                let mut seen: HashSet<&[Value]> = HashSet::with_capacity(rows.len());
                rows.iter().map(|(_, row)| seen.insert(row.as_slice())).collect()
            };
            let mut it = mask.into_iter();
            let mut rows = rows;
            rows.retain(|_| it.next().expect("mask matches rows"));
            self.state = Some(Batches::new(rows, self.batch_rows));
        }
        let batch = self.state.as_mut().expect("opened above").next();
        if let Some(b) = &batch {
            cx.batch_out(self.name(), b.len());
        }
        Ok(batch)
    }
}

impl RowSource for DistinctExec<'_> {
    fn output_columns(&self) -> &[String] {
        self.child.output_columns()
    }

    fn take_origins(&mut self) -> Vec<Origin> {
        self.child.take_origins()
    }
}

/// Reassemble the rows selected by `order`, moving each out of `rows`
/// exactly once (no per-row clone).
fn take_rows(rows: Vec<KeyedRow>, order: &[usize]) -> Vec<KeyedRow> {
    let mut slots: Vec<Option<KeyedRow>> = rows.into_iter().map(Some).collect();
    order.iter().map(|&i| slots[i].take().expect("indices are unique")).collect()
}

/// K-way merge of per-partition index runs under a total order: emit the
/// smallest head until every run drains. Runs are few (at most the
/// thread budget), so a linear scan per element beats a heap's constant
/// factor here.
fn merge_runs(runs: Vec<Vec<usize>>, cmp: impl Fn(usize, usize) -> Ordering) -> Vec<usize> {
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut heads = vec![0usize; runs.len()];
    let mut order = Vec::with_capacity(total);
    for _ in 0..total {
        let mut best: Option<(usize, usize)> = None; // (run, head index value)
        for (r, run) in runs.iter().enumerate() {
            if let Some(&i) = run.get(heads[r]) {
                let better = match best {
                    None => true,
                    Some((_, b)) => cmp(i, b) == Ordering::Less,
                };
                if better {
                    best = Some((r, i));
                }
            }
        }
        let (r, i) = best.expect("total counts the remaining heads");
        heads[r] += 1;
        order.push(i);
    }
    order
}

/// Compare two order-by key vectors under the statement's `asc`/`desc`
/// flags. NULL sorts before every non-NULL value; the rest follows
/// [`Value`]'s total order.
fn order_cmp(order: &[bool], ka: &[Value], kb: &[Value]) -> Ordering {
    for (i, asc) in order.iter().enumerate() {
        let ord = ka[i].cmp(&kb[i]);
        let ord = if *asc { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// `order by`: a full stable sort, or — when a small `limit` makes it
/// profitable — an index-stabilized top-K selection (the operator then
/// reports itself as `topk`).
pub(crate) struct SortExec<'q> {
    child: Box<dyn RowSource + 'q>,
    /// Per key: ascending?
    order: Vec<bool>,
    /// The statement's limit; enables the top-K path when small enough.
    /// Truncation itself stays with [`LimitExec`].
    limit: Option<usize>,
    label: &'static str,
    state: Option<Batches<KeyedRow>>,
    batch_rows: usize,
}

impl<'q> SortExec<'q> {
    pub(crate) fn new(
        child: Box<dyn RowSource + 'q>,
        order: Vec<bool>,
        limit: Option<usize>,
    ) -> Self {
        SortExec {
            child,
            order,
            limit,
            label: "sort",
            state: None,
            batch_rows: super::BATCH_ROWS,
        }
    }

    #[cfg(test)]
    pub(crate) fn with_batch_rows(mut self, batch_rows: usize) -> Self {
        self.batch_rows = batch_rows;
        self
    }
}

impl Executor for SortExec<'_> {
    type Batch = Vec<KeyedRow>;

    fn name(&self) -> &'static str {
        self.label
    }

    fn next_batch(&mut self, cx: &mut ExecCx<'_, '_>) -> Result<Option<Self::Batch>, QueryError> {
        if self.state.is_none() {
            let rows = drain(&mut self.child, self.label, cx)?;
            let order = &self.order;
            let mut rows = rows;
            // Comparing `(key, input index)` makes the comparator a total
            // order, so unstable selection/sorting over indices
            // reproduces the stable sort's ordering among equal keys.
            let cmp_idx =
                |a: usize, b: usize| order_cmp(order, &rows[a].0, &rows[b].0).then(a.cmp(&b));
            match self.limit {
                Some(k) if k > 0 && k < rows.len() / 4 => {
                    // Top-K: select the K smallest, then sort the prefix.
                    stats::bump(cx.ctx.stats, |s| s.topk_selected += 1);
                    self.label = "topk";
                    let mut cand: Vec<usize> = if let Some(ex) = Exchange::plan(cx.ctx, rows.len())
                    {
                        // Every global top-K row is within its own
                        // partition's top K, so the per-partition
                        // selections are a sound candidate superset.
                        ex.run(cx.ctx, |range| {
                            let mut part: Vec<usize> = range.collect();
                            if part.len() > k {
                                part.select_nth_unstable_by(k - 1, |&a, &b| cmp_idx(a, b));
                                part.truncate(k);
                            }
                            part
                        })
                        .concat()
                    } else {
                        (0..rows.len()).collect()
                    };
                    if cand.len() > k {
                        cand.select_nth_unstable_by(k - 1, |&a, &b| cmp_idx(a, b));
                        cand.truncate(k);
                    }
                    cand.sort_unstable_by(|&a, &b| cmp_idx(a, b));
                    rows = take_rows(rows, &cand);
                }
                _ => {
                    if let Some(ex) = Exchange::plan(cx.ctx, rows.len()) {
                        // Sorted per-partition runs, k-way merged under
                        // the same total order: exactly the stable sort.
                        let runs: Vec<Vec<usize>> = ex.run(cx.ctx, |range| {
                            let mut run: Vec<usize> = range.collect();
                            run.sort_unstable_by(|&a, &b| cmp_idx(a, b));
                            run
                        });
                        let order = merge_runs(runs, cmp_idx);
                        rows = take_rows(rows, &order);
                    } else {
                        rows.sort_by(|(ka, _), (kb, _)| order_cmp(order, ka, kb));
                    }
                }
            }
            self.state = Some(Batches::new(rows, self.batch_rows));
        }
        let batch = self.state.as_mut().expect("opened above").next();
        if let Some(b) = &batch {
            cx.batch_out(self.name(), b.len());
        }
        Ok(batch)
    }
}

impl RowSource for SortExec<'_> {
    fn output_columns(&self) -> &[String] {
        self.child.output_columns()
    }

    fn take_origins(&mut self) -> Vec<Origin> {
        self.child.take_origins()
    }
}

/// `limit`: truncate to the first `n` rows. Drains its child fully
/// first — an error on a row past the cutoff must still surface.
pub(crate) struct LimitExec<'q> {
    child: Box<dyn RowSource + 'q>,
    n: usize,
    state: Option<Batches<KeyedRow>>,
    batch_rows: usize,
}

impl<'q> LimitExec<'q> {
    pub(crate) fn new(child: Box<dyn RowSource + 'q>, n: usize) -> Self {
        LimitExec { child, n, state: None, batch_rows: super::BATCH_ROWS }
    }

    #[cfg(test)]
    pub(crate) fn with_batch_rows(mut self, batch_rows: usize) -> Self {
        self.batch_rows = batch_rows;
        self
    }
}

impl Executor for LimitExec<'_> {
    type Batch = Vec<KeyedRow>;

    fn name(&self) -> &'static str {
        "limit"
    }

    fn next_batch(&mut self, cx: &mut ExecCx<'_, '_>) -> Result<Option<Self::Batch>, QueryError> {
        if self.state.is_none() {
            let mut rows = drain(&mut self.child, "limit", cx)?;
            rows.truncate(self.n);
            self.state = Some(Batches::new(rows, self.batch_rows));
        }
        let batch = self.state.as_mut().expect("opened above").next();
        if let Some(b) = &batch {
            cx.batch_out(self.name(), b.len());
        }
        Ok(batch)
    }
}

impl RowSource for LimitExec<'_> {
    fn output_columns(&self) -> &[String] {
        self.child.output_columns()
    }

    fn take_origins(&mut self) -> Vec<Origin> {
        self.child.take_origins()
    }
}
