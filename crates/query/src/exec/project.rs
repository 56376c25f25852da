//! The projection operator (non-aggregate pipeline): evaluates the
//! planned projection list and `order by` keys per surviving combination,
//! emitting [`KeyedRow`](super::KeyedRow) batches.
//!
//! Error ordering is load-bearing: the filter must complete before a
//! failed wildcard expansion surfaces (a `where` error on the last
//! combination outranks an unknown `q.*` qualifier), so the child is
//! drained first and the plan's expansion error raised even when it
//! produced nothing. Projection evaluation itself streams batch-by-batch
//! — rows are evaluated in combination order and the first failing row's
//! error surfaces, exactly like the per-row loop it replaces. When every
//! projection and key is row-local a row is evaluated over its borrowed
//! frames; otherwise each row gets an owned scope level and runs scoped.

use crate::compile::{self, is_rowlocal, CompiledExpr, Env, RowEnv, Scoped};
use crate::error::QueryError;
use crate::plan::Projection;

use super::filter::FilterExec;
use super::{level_of, with_frames, Batches, ExecCx, Executor, KeyedRow, Origin, RowSource};

/// One output row: the projection, then the `order by` keys, in `env`.
fn project_row<E: Env>(
    exprs: &[CompiledExpr],
    keys: &[CompiledExpr],
    env: &mut E,
) -> Result<KeyedRow, QueryError> {
    let mut out = Vec::with_capacity(exprs.len());
    for e in exprs {
        out.push(compile::eval(e, env)?);
    }
    let mut key = Vec::with_capacity(keys.len());
    for e in keys {
        key.push(compile::eval(e, env)?);
    }
    Ok((key, out))
}

/// The row-by-row projection operator. Implements [`RowSource`]: it is a
/// valid pipeline top for non-aggregate queries.
pub(crate) struct ProjectExec<'a> {
    filter: FilterExec<'a>,
    /// The planned projection; an expansion error surfaces at open, after
    /// the filter's.
    proj: Result<Projection, QueryError>,
    /// Compiled `order by` keys.
    keys: Vec<CompiledExpr>,
    /// Every projection and key is row-local: rows evaluate over their
    /// borrowed frames, with no scope level built.
    rows_local: bool,
    /// The surviving combinations, flat, re-emitted in batches.
    state: Option<Batches<usize>>,
}

impl<'a> ProjectExec<'a> {
    pub(crate) fn new(
        filter: FilterExec<'a>,
        proj: Result<Projection, QueryError>,
        keys: Vec<CompiledExpr>,
    ) -> Self {
        let rows_local =
            proj.as_ref().map_or(true, |p| p.exprs.iter().chain(&keys).all(is_rowlocal));
        ProjectExec { filter, proj, keys, rows_local, state: None }
    }

    fn open(&mut self, cx: &mut ExecCx<'a, '_>) -> Result<Vec<usize>, QueryError> {
        let k = self.filter.width();
        let mut matching: Vec<usize> = Vec::new();
        while let Some(batch) = self.filter.next_batch(cx)? {
            cx.rows_in("project", batch.len() / k);
            matching.extend(batch);
        }
        self.proj.as_ref().map_err(QueryError::clone)?;
        Ok(matching)
    }
}

impl<'a> Executor<'a> for ProjectExec<'a> {
    type Batch = Vec<KeyedRow>;

    fn name(&self) -> &'static str {
        "project"
    }

    fn next_batch(&mut self, cx: &mut ExecCx<'a, '_>) -> Result<Option<Self::Batch>, QueryError> {
        let k = self.filter.width();
        if self.state.is_none() {
            let matching = self.open(cx)?;
            self.state = Some(Batches::new(matching, super::BATCH_ROWS * k));
        }
        let Some(combos) = self.state.as_mut().expect("opened above").next() else {
            return Ok(None);
        };
        let ctx = cx.ctx;
        let exprs = &self.proj.as_ref().expect("open raised the expansion error").exprs;
        let keys = &self.keys;
        let items = self.filter.items();
        let mut out_batch = Vec::with_capacity(combos.len() / k);
        for c in combos.chunks_exact(k) {
            let row = if self.rows_local {
                with_frames(items, c, |frames| project_row(exprs, keys, &mut RowEnv(frames)))
            } else {
                cx.bindings.push_level(level_of(items, c));
                let row = project_row(exprs, keys, &mut Scoped { ctx, bindings: cx.bindings });
                cx.bindings.pop_level();
                row
            };
            out_batch.push(row?);
        }
        cx.batch_out(self.name(), out_batch.len());
        Ok(Some(out_batch))
    }
}

impl<'a> RowSource<'a> for ProjectExec<'a> {
    fn output_columns(&self) -> &[String] {
        self.proj.as_ref().map_or(&[], |p| &p.columns)
    }

    fn take_origins(&mut self) -> Vec<Origin> {
        self.filter.take_origins()
    }
}
