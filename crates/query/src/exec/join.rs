//! The join operator: drains its child scans and assembles row
//! combinations as *cursors* (one row index per `from` item, in item
//! order), emitted in row-index lexicographic order.
//!
//! Every join runs the greedy N-way [`JoinPlan`](crate::planner::JoinPlan)
//! over the plan's equi-join edges and the scanned cardinalities: hash
//! steps on equi-join keys (build and probe partitioned on the pool when
//! big enough), cross steps only when nothing connects. Hash probes
//! are a sound *prefilter* — the filter operator above still evaluates the
//! full predicate per emitted cursor — with one accepted divergence:
//! prefilters may skip combinations whose evaluation would *error*.

use std::collections::HashMap;
use std::sync::Arc;

use setrules_storage::Value;

use crate::error::QueryError;
use crate::planner::{build_join_plan, EquiEdge};
use crate::stats;

use super::exchange::Exchange;
use super::scan::{FromItem, ScanExec};
use super::{Batches, ExecCx, Executor};

/// The combination assembler. Owns its child scans; at open it drains
/// them into [`FromItem`]s, computes the full cursor set through the join
/// plan, and then emits it in batches.
pub(crate) struct JoinExec<'q> {
    scans: Vec<ScanExec<'q>>,
    /// The planned equi-join edges; they become hash steps.
    edges: Vec<EquiEdge>,
    /// The planned operator name; `None` for a sole item, which passes
    /// its rows through as the combinations and records nothing.
    op: Option<&'static str>,
    items: Vec<FromItem>,
    batch_rows: usize,
    state: Option<Batches<Vec<usize>>>,
}

impl<'q> JoinExec<'q> {
    pub(crate) fn new(
        scans: Vec<ScanExec<'q>>,
        edges: Vec<EquiEdge>,
        op: Option<&'static str>,
    ) -> Self {
        JoinExec { scans, edges, op, items: Vec::new(), batch_rows: super::BATCH_ROWS, state: None }
    }

    #[cfg(test)]
    pub(crate) fn with_batch_rows(mut self, batch_rows: usize) -> Self {
        self.batch_rows = batch_rows;
        self
    }

    /// The materialized `from` items; valid after open (first pull).
    pub(crate) fn items(&self) -> &[FromItem] {
        &self.items
    }

    /// The items, for the filter to move a sole item's rows out of.
    pub(crate) fn items_mut(&mut self) -> &mut [FromItem] {
        &mut self.items
    }

    fn open(&mut self, cx: &mut ExecCx<'_, '_>) -> Result<Vec<Vec<usize>>, QueryError> {
        // Drain the scans in item order — a scan error (say, a transition
        // provider failure on item 1) surfaces before any join work, just
        // as the sequential materialization loop did.
        let mut items: Vec<FromItem> = Vec::with_capacity(self.scans.len());
        for scan in &mut self.scans {
            let mut rows = Vec::new();
            while let Some(batch) = scan.next_batch(cx)? {
                if let Some(op) = self.op {
                    cx.rows_in(op, batch.len());
                }
                rows.extend(batch);
            }
            items.push(FromItem {
                binding: std::mem::take(&mut scan.item.binding),
                columns: Arc::clone(&scan.item.columns),
                rows,
            });
        }

        // An empty item means zero combinations; a sole item's rows are
        // the combinations; anything else goes through the join plan.
        let cursors = if items.iter().any(|it| it.rows.is_empty()) {
            Vec::new()
        } else if items.len() == 1 {
            (0..items[0].rows.len()).map(|i| vec![i]).collect()
        } else {
            self.planned(cx, &items)
        };
        self.items = items;
        Ok(cursors)
    }

    /// Run the greedy join plan over two or more non-empty items, emitting
    /// cursors in row-index lexicographic order.
    fn planned(&self, cx: &ExecCx<'_, '_>, items: &[FromItem]) -> Vec<Vec<usize>> {
        let ctx = cx.ctx;
        let cards: Vec<usize> = items.iter().map(|it| it.rows.len()).collect();
        let plan = build_join_plan(&cards, &self.edges);
        stats::bump(ctx.stats, |s| {
            for step in &plan.steps {
                if step.edges.is_empty() {
                    s.nested_loop_joins += 1;
                } else {
                    s.hash_joins += 1;
                }
            }
        });
        let order = plan.order();
        // pos_of[item] = position of that item in join order;
        // a partial combination stores row indices in join
        // order, one per placed item.
        let mut pos_of = vec![0usize; items.len()];
        for (p, &it) in order.iter().enumerate() {
            pos_of[it] = p;
        }
        let mut partials: Vec<Vec<usize>> =
            (0..items[plan.first].rows.len()).map(|i| vec![i]).collect();
        for step in &plan.steps {
            if partials.is_empty() {
                break;
            }
            let new_rows = &items[step.item].rows;
            if step.edges.is_empty() {
                // Cross step: no equi-edge reaches this item.
                let mut next = Vec::with_capacity(partials.len() * new_rows.len());
                for p in &partials {
                    for j in 0..new_rows.len() {
                        let mut q = p.clone();
                        q.push(j);
                        next.push(q);
                    }
                }
                partials = next;
            } else {
                // Hash step: build on the incoming item over
                // the composite key. NULL key components never
                // join (SQL equality with NULL is unknown);
                // the type-equality requirement on edges makes
                // storage-level hash equality agree with SQL
                // equality.
                //
                // Build a range of rows into a local map.
                let build_range =
                    |range: std::ops::Range<usize>| -> HashMap<Vec<&Value>, Vec<usize>> {
                        let mut local: HashMap<Vec<&Value>, Vec<usize>> =
                            HashMap::new();
                        'build: for j in range {
                            let row = &new_rows[j];
                            let mut key = Vec::with_capacity(step.edges.len());
                            for &(_, _, nc) in &step.edges {
                                let v = &row.1[nc];
                                if v.is_null() {
                                    continue 'build;
                                }
                                key.push(v);
                            }
                            local.entry(key).or_default().push(j);
                        }
                        local
                    };
                let table: HashMap<Vec<&Value>, Vec<usize>> =
                    if let Some(ex) = Exchange::plan(ctx, new_rows.len()) {
                        // Exchange the build side; merging the
                        // per-worker maps in partition order
                        // keeps every bucket's row indices
                        // ascending — identical to the serial
                        // build.
                        let maps = ex.run(ctx, build_range);
                        let mut merged: HashMap<Vec<&Value>, Vec<usize>> =
                            HashMap::new();
                        for local in maps {
                            for (key, mut js) in local {
                                merged.entry(key).or_default().append(&mut js);
                            }
                        }
                        merged
                    } else {
                        build_range(0..new_rows.len())
                    };
                // Probe a range of partials against the map,
                // emitting extended combinations in order.
                let probe_range = |range: std::ops::Range<usize>| -> Vec<Vec<usize>> {
                    let mut out = Vec::new();
                    'probe: for p in &partials[range] {
                        let mut key = Vec::with_capacity(step.edges.len());
                        for &(pi, pc, _) in &step.edges {
                            let v = &items[pi].rows[p[pos_of[pi]]].1[pc];
                            if v.is_null() {
                                continue 'probe;
                            }
                            key.push(v);
                        }
                        if let Some(js) = table.get(&key) {
                            for &j in js {
                                let mut q = p.clone();
                                q.push(j);
                                out.push(q);
                            }
                        }
                    }
                    out
                };
                partials = if let Some(ex) = Exchange::plan(ctx, partials.len()) {
                    // Exchange the probe side; concatenating
                    // per-partition outputs in partition order
                    // reproduces the serial probe order.
                    ex.run(ctx, probe_range).concat()
                } else {
                    probe_range(0..partials.len())
                };
            }
        }
        // Back to item order, emitted lexicographically (the order a
        // nested loop over the items would produce).
        let mut cursors: Vec<Vec<usize>> = partials
            .into_iter()
            .map(|p| (0..items.len()).map(|i| p[pos_of[i]]).collect())
            .collect();
        cursors.sort_unstable();
        cursors
    }
}

impl Executor for JoinExec<'_> {
    type Batch = Vec<Vec<usize>>;

    fn name(&self) -> &'static str {
        self.op.unwrap_or("join")
    }

    fn next_batch(&mut self, cx: &mut ExecCx<'_, '_>) -> Result<Option<Self::Batch>, QueryError> {
        if self.state.is_none() {
            let cursors = self.open(cx)?;
            self.state = Some(Batches::new(cursors, self.batch_rows));
        }
        let batch = self.state.as_mut().expect("opened above").next();
        if let (Some(b), Some(op)) = (&batch, self.op) {
            cx.batch_out(op, b.len());
        }
        Ok(batch)
    }
}
