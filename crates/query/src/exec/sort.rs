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
//! All three run serially. The B16 sweeps measured a partitioned sort
//! 1.05–1.57× slower than the serial one on two threads, top-K level,
//! and a partitioned `distinct` slower at every size, so none of them
//! exchanges.

use std::cmp::Ordering;
use std::collections::HashSet;

use setrules_storage::Value;

use crate::error::QueryError;
use crate::stats;

use super::{Batches, ExecCx, Executor, KeyedRow, Origin, RowSource};

/// Drain a boxed child fully, charging the rows to `name`'s input side.
fn drain<'a>(
    child: &mut Box<dyn RowSource<'a> + 'a>,
    name: &'static str,
    cx: &mut ExecCx<'a, '_>,
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
pub(crate) struct DistinctExec<'a> {
    child: Box<dyn RowSource<'a> + 'a>,
    state: Option<Batches<KeyedRow>>,
    batch_rows: usize,
}

impl<'a> DistinctExec<'a> {
    pub(crate) fn new(child: Box<dyn RowSource<'a> + 'a>) -> Self {
        DistinctExec { child, state: None, batch_rows: super::BATCH_ROWS }
    }

    #[cfg(test)]
    pub(crate) fn with_batch_rows(mut self, batch_rows: usize) -> Self {
        self.batch_rows = batch_rows;
        self
    }
}

impl<'a> Executor<'a> for DistinctExec<'a> {
    type Batch = Vec<KeyedRow>;

    fn name(&self) -> &'static str {
        "distinct"
    }

    fn next_batch(&mut self, cx: &mut ExecCx<'a, '_>) -> Result<Option<Self::Batch>, QueryError> {
        if self.state.is_none() {
            let rows = drain(&mut self.child, "distinct", cx)?;
            // Dedup on the projected row (not the sort key) with borrowed
            // slices, then retain by mask so survivors keep input order.
            let mask: Vec<bool> = {
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

impl<'a> RowSource<'a> for DistinctExec<'a> {
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
pub(crate) struct SortExec<'a> {
    child: Box<dyn RowSource<'a> + 'a>,
    /// Per key: ascending?
    order: Vec<bool>,
    /// The statement's limit; enables the top-K path when small enough.
    /// Truncation itself stays with [`LimitExec`].
    limit: Option<usize>,
    label: &'static str,
    state: Option<Batches<KeyedRow>>,
    batch_rows: usize,
}

impl<'a> SortExec<'a> {
    pub(crate) fn new(
        child: Box<dyn RowSource<'a> + 'a>,
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

impl<'a> Executor<'a> for SortExec<'a> {
    type Batch = Vec<KeyedRow>;

    fn name(&self) -> &'static str {
        self.label
    }

    fn next_batch(&mut self, cx: &mut ExecCx<'a, '_>) -> Result<Option<Self::Batch>, QueryError> {
        if self.state.is_none() {
            let mut rows = drain(&mut self.child, self.label, cx)?;
            let order = &self.order;
            match self.limit {
                Some(k) if k > 0 && k < rows.len() / 4 => {
                    // Top-K: select the K smallest, then sort the prefix.
                    // Comparing `(key, input index)` makes the comparator
                    // a total order, so unstable selection and sorting
                    // over indices reproduce the stable sort's order
                    // among equal keys.
                    stats::bump(cx.ctx.stats, |s| s.topk_selected += 1);
                    self.label = "topk";
                    let cmp_idx = |a: usize, b: usize| {
                        order_cmp(order, &rows[a].0, &rows[b].0).then(a.cmp(&b))
                    };
                    let mut cand: Vec<usize> = (0..rows.len()).collect();
                    cand.select_nth_unstable_by(k - 1, |&a, &b| cmp_idx(a, b));
                    cand.truncate(k);
                    cand.sort_unstable_by(|&a, &b| cmp_idx(a, b));
                    rows = take_rows(rows, &cand);
                }
                _ => rows.sort_by(|(ka, _), (kb, _)| order_cmp(order, ka, kb)),
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

impl<'a> RowSource<'a> for SortExec<'a> {
    fn output_columns(&self) -> &[String] {
        self.child.output_columns()
    }

    fn take_origins(&mut self) -> Vec<Origin> {
        self.child.take_origins()
    }
}

/// `limit`: truncate to the first `n` rows. Drains its child fully
/// first — an error on a row past the cutoff must still surface.
pub(crate) struct LimitExec<'a> {
    child: Box<dyn RowSource<'a> + 'a>,
    n: usize,
    state: Option<Batches<KeyedRow>>,
    batch_rows: usize,
}

impl<'a> LimitExec<'a> {
    pub(crate) fn new(child: Box<dyn RowSource<'a> + 'a>, n: usize) -> Self {
        LimitExec { child, n, state: None, batch_rows: super::BATCH_ROWS }
    }

    #[cfg(test)]
    pub(crate) fn with_batch_rows(mut self, batch_rows: usize) -> Self {
        self.batch_rows = batch_rows;
        self
    }
}

impl<'a> Executor<'a> for LimitExec<'a> {
    type Batch = Vec<KeyedRow>;

    fn name(&self) -> &'static str {
        "limit"
    }

    fn next_batch(&mut self, cx: &mut ExecCx<'a, '_>) -> Result<Option<Self::Batch>, QueryError> {
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

impl<'a> RowSource<'a> for LimitExec<'a> {
    fn output_columns(&self) -> &[String] {
        self.child.output_columns()
    }

    fn take_origins(&mut self) -> Vec<Origin> {
        self.child.take_origins()
    }
}
