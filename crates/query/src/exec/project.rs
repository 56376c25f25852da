//! The projection operator (non-aggregate pipeline): expands wildcards,
//! then evaluates the projection list and `order by` keys per surviving
//! combination, emitting [`KeyedRow`](super::KeyedRow) batches.
//!
//! Error ordering is load-bearing: the filter must complete before
//! wildcard expansion (a `where` error on the last combination outranks
//! an unknown `q.*` qualifier), so the child is drained first and
//! expansion runs even when it produced nothing. Projection evaluation
//! itself streams batch-by-batch — rows are evaluated in combination
//! order and the first failing row's error surfaces, exactly like the
//! per-row loop it replaces.

use std::sync::Arc;

use setrules_sql::ast::{Expr, SelectItem, SelectStmt};

use crate::bindings::Level;
use crate::compile::{compile, eval_compiled, CompiledExpr};
use crate::error::QueryError;

use super::filter::FilterExec;
use super::scan::{items_layout, FromItem};
use super::{Batches, ExecCx, Executor, KeyedRow, Origin, RowSource};

/// Expand the projection's wildcards against the materialized items,
/// yielding concrete `(expression, output name)` pairs.
pub(crate) fn expand_wildcards(
    stmt: &SelectStmt,
    items: &[FromItem],
) -> Result<Vec<(Expr, String)>, QueryError> {
    let cols: Vec<(&str, &Arc<Vec<String>>)> =
        items.iter().map(|it| (it.binding.as_str(), &it.columns)).collect();
    expand_wildcards_cols(stmt, &cols)
}

/// [`expand_wildcards`] over bare `(binding, columns)` pairs — usable at
/// plan time (the `plan:`/`parallel:` explain lines work from schemas,
/// without materialized items).
pub(crate) fn expand_wildcards_cols(
    stmt: &SelectStmt,
    items: &[(&str, &Arc<Vec<String>>)],
) -> Result<Vec<(Expr, String)>, QueryError> {
    let mut proj: Vec<(Expr, String)> = Vec::new();
    for item in &stmt.projection {
        match item {
            SelectItem::Wildcard => {
                for (binding, columns) in items {
                    for c in columns.iter() {
                        proj.push((Expr::qcol((*binding).to_string(), c.clone()), c.clone()));
                    }
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let (binding, columns) = items
                    .iter()
                    .find(|(b, _)| *b == q)
                    .ok_or_else(|| QueryError::UnknownColumn(format!("{q}.*")))?;
                for c in columns.iter() {
                    proj.push((Expr::qcol((*binding).to_string(), c.clone()), c.clone()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| match expr {
                    Expr::Column { name, .. } => name.clone(),
                    other => other.to_string(),
                });
                proj.push((expr.clone(), name));
            }
        }
    }
    Ok(proj)
}

/// The row-by-row projection operator. Implements [`RowSource`]: it is a
/// valid pipeline top for non-aggregate queries.
pub(crate) struct ProjectExec<'q> {
    filter: FilterExec<'q>,
    stmt: &'q SelectStmt,
    columns: Vec<String>,
    /// Compiled projection and order-by keys. These include synthesized
    /// wildcard expansions, so they compile fresh — never through the
    /// plan cache, whose keys require stable AST addresses.
    proj: Vec<CompiledExpr>,
    keys: Vec<CompiledExpr>,
    state: Option<Batches<Level>>,
}

impl<'q> ProjectExec<'q> {
    pub(crate) fn new(filter: FilterExec<'q>, stmt: &'q SelectStmt) -> Self {
        ProjectExec {
            filter,
            stmt,
            columns: Vec::new(),
            proj: Vec::new(),
            keys: Vec::new(),
            state: None,
        }
    }

    fn open(&mut self, cx: &mut ExecCx<'_, '_>) -> Result<Vec<Level>, QueryError> {
        let mut matching: Vec<Level> = Vec::new();
        while let Some(batch) = self.filter.next_batch(cx)? {
            cx.rows_in("project", batch.len());
            matching.extend(batch);
        }
        let items = self.filter.items();
        let proj = expand_wildcards(self.stmt, items)?;
        self.columns = proj.iter().map(|(_, n)| n.clone()).collect();
        // The same scope layout the filter evaluated in.
        let layout = items_layout(cx.bindings, items);
        self.proj = proj.iter().map(|(e, _)| compile(e, &layout)).collect();
        self.keys = self.stmt.order_by.iter().map(|(e, _)| compile(e, &layout)).collect();
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
        let mut out_batch = Vec::with_capacity(levels.len());
        for level in levels {
            cx.bindings.push_level(level);
            let result = (|| -> Result<KeyedRow, QueryError> {
                let mut out = Vec::with_capacity(self.proj.len());
                for e in &self.proj {
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
        &self.columns
    }

    fn take_origins(&mut self) -> Vec<Origin> {
        self.filter.take_origins()
    }
}
