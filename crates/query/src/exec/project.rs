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
//! error surfaces, exactly like the per-row loop it replaces.

use crate::bindings::Level;
use crate::compile::{eval_compiled, CompiledExpr};
use crate::error::QueryError;
use crate::plan::Projection;

use super::filter::FilterExec;
use super::{Batches, ExecCx, Executor, KeyedRow, Origin, RowSource};

/// The row-by-row projection operator. Implements [`RowSource`]: it is a
/// valid pipeline top for non-aggregate queries.
pub(crate) struct ProjectExec<'q> {
    filter: FilterExec<'q>,
    /// The planned projection; an expansion error surfaces at open, after
    /// the filter's.
    proj: Result<Projection, QueryError>,
    /// Compiled `order by` keys.
    keys: Vec<CompiledExpr>,
    state: Option<Batches<Level>>,
}

impl<'q> ProjectExec<'q> {
    pub(crate) fn new(
        filter: FilterExec<'q>,
        proj: Result<Projection, QueryError>,
        keys: Vec<CompiledExpr>,
    ) -> Self {
        ProjectExec { filter, proj, keys, state: None }
    }

    fn open(&mut self, cx: &mut ExecCx<'_, '_>) -> Result<Vec<Level>, QueryError> {
        let mut matching: Vec<Level> = Vec::new();
        while let Some(batch) = self.filter.next_batch(cx)? {
            cx.rows_in("project", batch.len());
            matching.extend(batch);
        }
        self.proj.as_ref().map_err(QueryError::clone)?;
        Ok(matching)
    }
}

impl Executor for ProjectExec<'_> {
    type Batch = Vec<KeyedRow>;

    fn name(&self) -> &'static str {
        "project"
    }

    fn next_batch(&mut self, cx: &mut ExecCx<'_, '_>) -> Result<Option<Self::Batch>, QueryError> {
        if self.state.is_none() {
            let matching = self.open(cx)?;
            self.state = Some(Batches::new(matching, super::BATCH_ROWS));
        }
        let Some(levels) = self.state.as_mut().expect("opened above").next() else {
            return Ok(None);
        };
        let ctx = cx.ctx;
        let exprs = &self.proj.as_ref().expect("open raised the expansion error").exprs;
        let mut out_batch = Vec::with_capacity(levels.len());
        for level in levels {
            cx.bindings.push_level(level);
            let result = (|| -> Result<KeyedRow, QueryError> {
                let mut out = Vec::with_capacity(exprs.len());
                for e in exprs {
                    out.push(eval_compiled(ctx, cx.bindings, e)?);
                }
                let mut key = Vec::with_capacity(self.keys.len());
                for e in &self.keys {
                    key.push(eval_compiled(ctx, cx.bindings, e)?);
                }
                Ok((key, out))
            })();
            cx.bindings.pop_level();
            out_batch.push(result?);
        }
        cx.batch_out(self.name(), out_batch.len());
        Ok(Some(out_batch))
    }
}

impl RowSource for ProjectExec<'_> {
    fn output_columns(&self) -> &[String] {
        self.proj.as_ref().map_or(&[], |p| &p.columns)
    }

    fn take_origins(&mut self) -> Vec<Origin> {
        self.filter.take_origins()
    }
}
