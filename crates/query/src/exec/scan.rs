//! The scan operators: one per `from` item.
//!
//! A [`ScanExec`] materializes its planned item at open — stored tables
//! through the chosen [`Access`] path, transition tables through the
//! context's provider — filtering through the conjuncts the plan pushed
//! down to it, then emits [`ScanRow`] batches. Rows are borrowed, never
//! cloned: a stored row is a slice of the database's tuple, a transition
//! row is whatever `Cow` the provider lent. A full scan walks the table
//! once ([`Table::snapshot`]); an index path looks up the handles it
//! chose, or walks the table once when they are a large ascending share
//! of it. The two ordered-index upgrades the plan makes for a sole item
//! are scans too: `index-order-scan` emits rows in `order by` key order,
//! stopping early only when the plan says no row past the `limit` can
//! fail, and `index-boundary-scan` emits just the rows holding each bare
//! `min`/`max` column's extreme for the aggregate to fold. A scan's
//! display name tracks the access path (`seq-scan`, `index-scan`,
//! `index-range-scan`, `empty-scan`, `index-order-scan`,
//! `index-boundary-scan`, `transition-scan`).
//!
//! This operator is also one of the two partitioned phases: with a
//! thread budget, a big-enough stored-table scan whose pushed conjuncts
//! are all row-local plans an [`Exchange`] over its tuple vector, judges
//! the conjuncts per partition and concatenates the kept rows in
//! partition order — exactly the serial handle-order walk (see
//! [`crate::exec::exchange`] for the determinism argument). A scan
//! without pushed conjuncts has nothing to judge and fetches serially.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use setrules_sql::ast::TransitionKind;
use setrules_storage::{Table, TableId, Tuple, TupleHandle, Value};

use crate::bindings::Frame;
use crate::compile::{eval_compiled_predicate, holds, is_rowlocal, CompiledExpr, RowEnv};
use crate::error::QueryError;
use crate::plan::ItemPlan;
use crate::planner::{scan_handles, Access};
use crate::stats;

use super::exchange::Exchange;
use super::{Batches, ExecCx, Executor};

/// One scanned row: its origin (stored tuples only) and its field values,
/// borrowed for `'a`.
pub(crate) type ScanRow<'a> = (Option<(TableId, TupleHandle)>, Cow<'a, [Value]>);

/// A fully materialized `from` item, as the join and everything above it
/// sees it: the binding name, column names, and the scanned rows.
pub(crate) struct FromItem<'a> {
    pub(crate) binding: String,
    pub(crate) columns: Arc<Vec<String>>,
    pub(crate) rows: Vec<ScanRow<'a>>,
}

impl FromItem<'_> {
    /// The values of row `r`.
    pub(crate) fn row(&self, r: usize) -> &[Value] {
        &self.rows[r].1
    }

    /// A scope frame over this item holding `row`.
    pub(crate) fn frame(&self, row: Vec<Value>) -> Frame {
        Frame { name: self.binding.clone(), columns: Arc::clone(&self.columns), row }
    }
}

/// Where a scan reads: a stored table through its chosen access path, or
/// a transition table served by the context's provider.
pub(crate) enum ScanSource<'q> {
    Named(Access),
    Transition {
        kind: TransitionKind,
        /// Restrict to tuples whose column was updated/selected.
        column: Option<&'q str>,
    },
}

/// The scan prefilter over pushed-down row-local conjuncts: drop `row`
/// only on a definite non-`true`; an erroring conjunct keeps it, so the
/// full predicate raises the error (or a hash step shows the combination
/// never forms). Never errors.
pub(crate) fn admits(conjs: &[CompiledExpr], row: &[Value]) -> bool {
    conjs.iter().all(|cc| !matches!(holds(cc, &mut RowEnv(&[row])), Ok(false)))
}

/// An index path whose handles are at least this share (one in
/// `WALK_SHARE`) of the table fetches its tuples by one ordered walk.
const WALK_SHARE: usize = 16;

/// The live tuples behind `handles`, in the order given. A few handles,
/// or handles out of ascending order (a key-order walk), are looked up one
/// B-tree descent each; a large ascending share of the table is fetched
/// by one ordered walk from the first handle, skipping the rows not asked
/// for.
fn fetch<'a>(table: &'a Table, handles: &[TupleHandle]) -> Vec<(TupleHandle, &'a Tuple)> {
    let Some(&first) = handles.first() else { return Vec::new() };
    if handles.len() * WALK_SHARE < table.len() || !handles.is_sorted() {
        let live = |h: TupleHandle| table.get(h).expect("scanned handle is live");
        return handles.iter().map(|&h| (h, live(h))).collect();
    }
    let mut out = Vec::with_capacity(handles.len());
    let mut wanted = handles.iter().copied().peekable();
    for (h, t) in table.scan_from(first) {
        match wanted.peek() {
            Some(&w) if w == h => {
                out.push((h, t));
                wanted.next();
            }
            Some(_) => {}
            None => break,
        }
    }
    assert!(wanted.peek().is_none(), "scanned handle is live");
    out
}

/// The display name a scan over `access` gets (also printed on the
/// `plan:` explain line).
pub(crate) fn access_op_name(access: &Access) -> &'static str {
    match access {
        Access::FullScan => "seq-scan",
        Access::IndexEq { .. } | Access::IndexIn { .. } => "index-scan",
        Access::IndexRange { .. } => "index-range-scan",
        Access::Empty => "empty-scan",
        Access::IndexOrder { .. } => "index-order-scan",
        Access::IndexBoundary { .. } => "index-boundary-scan",
    }
}

/// The leaf operator: materializes one planned `from` item at open
/// (filtering through its pushed-down conjuncts, in parallel when
/// eligible) and emits it as [`ScanRow`] batches.
pub(crate) struct ScanExec<'a> {
    pub(crate) item: ItemPlan<'a>,
    name: &'static str,
    batch_rows: usize,
    state: Option<Batches<ScanRow<'a>>>,
}

impl<'a> ScanExec<'a> {
    pub(crate) fn new(item: ItemPlan<'a>) -> Self {
        let name = match &item.source {
            ScanSource::Named(access) => access_op_name(access),
            ScanSource::Transition { .. } => "transition-scan",
        };
        ScanExec { item, name, batch_rows: usize::MAX, state: None }
    }

    #[cfg(test)]
    pub(crate) fn with_batch_rows(mut self, batch_rows: usize) -> Self {
        self.batch_rows = batch_rows;
        self
    }

    /// Materialize the item, filtering through the pushed conjuncts.
    /// Row-local conjuncts run over the borrowed rows while they are
    /// fetched (partitioned across threads when the scan is big enough);
    /// conjuncts that reach outer scopes run afterwards in the scoped
    /// environment. Either way a row is dropped only on a definite
    /// non-`true` — see [`admits`].
    fn open(&mut self, cx: &mut ExecCx<'a, '_>) -> Result<Vec<ScanRow<'a>>, QueryError> {
        let ctx = cx.ctx;
        let item = &self.item;
        let conjs = &item.pushed;
        let local = conjs.iter().all(is_rowlocal);
        let mut dropped = 0u64;
        let mut rows: Vec<ScanRow<'a>> = match &item.source {
            ScanSource::Named(access) => {
                stats::bump(ctx.stats, |s| match access {
                    Access::FullScan => s.full_scans += 1,
                    Access::IndexEq { .. } | Access::IndexIn { .. } => s.index_lookups += 1,
                    Access::IndexRange { .. } => s.range_scans += 1,
                    Access::Empty => s.empty_scans += 1,
                    Access::IndexOrder { range, .. } => {
                        s.sort_elided += 1;
                        match range {
                            None => s.full_scans += 1,
                            Some(_) => s.range_scans += 1,
                        }
                    }
                    Access::IndexBoundary { ends } => s.index_lookups += ends.len() as u64,
                });
                let (db, tid) = (ctx.db, item.tid);
                let tuples: Vec<(TupleHandle, &'a Tuple)> = match access {
                    Access::FullScan => db.table(tid).snapshot(),
                    _ => fetch(db.table(tid), &scan_handles(db, tid, access)),
                };
                if matches!(
                    access,
                    Access::IndexRange { .. } | Access::IndexOrder { range: Some(_), .. }
                ) {
                    let skipped = (db.table(tid).len() - tuples.len()) as u64;
                    stats::bump(ctx.stats, |s| s.range_rows_skipped += skipped);
                }
                // A boundary probe reads index keys, not the table.
                if !matches!(access, Access::IndexBoundary { .. }) {
                    stats::bump(ctx.stats, |s| s.rows_scanned += tuples.len() as u64);
                }
                let tuples = &tuples;
                let fetch = |range: Range<usize>| {
                    let mut kept: Vec<ScanRow<'a>> = Vec::with_capacity(range.len());
                    let mut dropped = 0u64;
                    for &(h, t) in &tuples[range] {
                        if !local || admits(conjs, &t.0) {
                            kept.push((Some((tid, h)), Cow::Borrowed(t.0.as_slice())));
                        } else {
                            dropped += 1;
                        }
                    }
                    (kept, dropped)
                };
                // Only a scan with conjuncts to judge exchanges.
                let exchange =
                    if conjs.is_empty() { None } else { Exchange::plan(ctx, tuples.len()) };
                let mut chunks = match exchange {
                    Some(ex) if local => ex.run(ctx, fetch),
                    ex => {
                        if ex.is_some() {
                            Exchange::serial_fallback(ctx);
                        }
                        vec![fetch(0..tuples.len())]
                    }
                };
                dropped += chunks.iter().map(|(_, d)| d).sum::<u64>();
                if chunks.len() == 1 {
                    chunks.pop().expect("one chunk").0
                } else {
                    chunks.into_iter().flat_map(|(kept, _)| kept).collect()
                }
            }
            ScanSource::Transition { kind, column } => {
                let lent = ctx.virt.rows(ctx.db, *kind, item.table, *column)?;
                stats::bump(ctx.stats, |s| s.rows_scanned += lent.len() as u64);
                let mut kept: Vec<ScanRow<'a>> = Vec::with_capacity(lent.len());
                for vals in lent {
                    if !local || admits(conjs, &vals) {
                        kept.push((None, vals));
                    } else {
                        dropped += 1;
                    }
                }
                kept
            }
        };
        if !local {
            let fetched = rows.len();
            rows.retain(|row| {
                cx.bindings.push_level(vec![Frame {
                    name: item.binding.clone(),
                    columns: Arc::clone(&item.columns),
                    row: row.1.to_vec(),
                }]);
                let keep = conjs.iter().all(|cc| {
                    !matches!(eval_compiled_predicate(ctx, cx.bindings, cc), Ok(false))
                });
                cx.bindings.pop_level();
                keep
            });
            dropped += (fetched - rows.len()) as u64;
        }
        stats::bump(ctx.stats, |s| s.pushdown_filtered += dropped);
        Ok(rows)
    }
}

impl<'a> Executor<'a> for ScanExec<'a> {
    type Batch = Vec<ScanRow<'a>>;

    fn name(&self) -> &'static str {
        self.name
    }

    fn next_batch(&mut self, cx: &mut ExecCx<'a, '_>) -> Result<Option<Self::Batch>, QueryError> {
        if self.state.is_none() {
            let rows = self.open(cx)?;
            self.state = Some(Batches::new(rows, self.batch_rows));
        }
        let batch = self.state.as_mut().expect("opened above").next();
        if let Some(b) = &batch {
            cx.batch_out(self.name(), b.len());
        }
        Ok(batch)
    }
}
