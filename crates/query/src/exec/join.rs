//! The join operator: drains its child scans and assembles row
//! combinations as *cursors* (one row index per `from` item, in item
//! order), emitted in row-index lexicographic order.
//!
//! Compiled mode runs the greedy N-way [`JoinPlan`]: hash steps on
//! equi-join keys (build and probe partitioned on the pool when big
//! enough), cross steps only when nothing connects. Interpreted mode
//! keeps the historical paths: the 2-item hash equi-join special case and
//! the nested-loop odometer. Hash probes are a sound *prefilter* — the
//! filter operator above still evaluates the full predicate per emitted
//! cursor — with one accepted divergence: prefilters may skip
//! combinations whose evaluation would *error* (the historical 2-way hash
//! path already did this).

use std::collections::HashMap;
use std::sync::Arc;

use setrules_sql::ast::{BinaryOp, Expr, SelectStmt};
use setrules_storage::{DataType, Value};

use crate::ctx::ExecMode;
use crate::error::QueryError;
use crate::planner::{build_join_plan, equi_join_edges};
use crate::stats;

use super::exchange::Exchange;
use super::scan::{items_layout, FromItem, ScanExec};
use super::{Batches, ExecCx, Executor};

/// Resolve a (possibly qualified) column reference against the from
/// items: `Some((item, column))` only when unambiguous.
fn resolve_col(items: &[FromItem], qualifier: Option<&str>, name: &str) -> Option<(usize, usize)> {
    match qualifier {
        Some(q) => {
            let idx = items.iter().position(|it| it.binding == q)?;
            let c = items[idx].columns.iter().position(|cn| cn == name)?;
            Some((idx, c))
        }
        None => {
            let mut found = None;
            for (idx, it) in items.iter().enumerate() {
                if let Some(c) = it.columns.iter().position(|cn| cn == name) {
                    if found.is_some() {
                        return None; // ambiguous
                    }
                    found = Some((idx, c));
                }
            }
            found
        }
    }
}

/// Detect a two-item equi-join: a top-level `and`-conjunct
/// `items[0].c0 = items[1].c1` (either operand order) whose columns
/// share a non-float declared type. Float keys are excluded so that
/// storage-level hash equality provably agrees with SQL equality
/// (`-0.0`/`0.0` and NaN make floats unsafe as hash keys).
fn find_equi_join(stmt: &SelectStmt, items: &[FromItem]) -> Option<(usize, usize)> {
    if items.len() != 2 {
        return None;
    }
    let pred = stmt.predicate.as_ref()?;
    let mut conjuncts = Vec::new();
    crate::planner::collect_conjuncts(pred, &mut conjuncts);
    for c in conjuncts {
        let Expr::Binary { left, op: BinaryOp::Eq, right } = c else { continue };
        let (
            Expr::Column { qualifier: lq, name: ln },
            Expr::Column { qualifier: rq, name: rn },
        ) = (left.as_ref(), right.as_ref())
        else {
            continue;
        };
        let a = resolve_col(items, lq.as_deref(), ln);
        let b = resolve_col(items, rq.as_deref(), rn);
        let (Some((ia, ca)), Some((ib, cb))) = (a, b) else { continue };
        let (c0, c1) = match (ia, ib) {
            (0, 1) => (ca, cb),
            (1, 0) => (cb, ca),
            _ => continue,
        };
        let (t0, t1) = (items[0].types[c0], items[1].types[c1]);
        if t0 == t1 && t0 != DataType::Float {
            return Some((c0, c1));
        }
    }
    None
}

/// The combination assembler. Owns its child scans; at open it drains
/// them into [`FromItem`]s, computes the full cursor set for the selected
/// join strategy, and then emits it in batches.
pub(crate) struct JoinExec<'q> {
    scans: Vec<ScanExec<'q>>,
    stmt: &'q SelectStmt,
    items: Vec<FromItem>,
    label: &'static str,
    batch_rows: usize,
    state: Option<Batches<Vec<usize>>>,
}

impl<'q> JoinExec<'q> {
    pub(crate) fn new(scans: Vec<ScanExec<'q>>, stmt: &'q SelectStmt) -> Self {
        JoinExec {
            scans,
            stmt,
            items: Vec::new(),
            label: "join",
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
        &self.items
    }

    fn open(&mut self, cx: &mut ExecCx<'_, '_>) -> Result<Vec<Vec<usize>>, QueryError> {
        let ctx = cx.ctx;
        // Drain the scans in item order — a scan error (say, a transition
        // provider failure on item 1) surfaces before any join work, just
        // as the sequential materialization loop did.
        let mut items: Vec<FromItem> = Vec::with_capacity(self.scans.len());
        for scan in &mut self.scans {
            let mut rows = Vec::new();
            while let Some(batch) = scan.next_batch(cx)? {
                cx.rows_in(self.label, batch.len());
                rows.extend(batch);
            }
            items.push(FromItem {
                binding: std::mem::take(&mut scan.binding),
                columns: Arc::clone(&scan.columns),
                types: std::mem::take(&mut scan.types),
                rows,
            });
        }

        let stmt = self.stmt;
        let all_nonempty = items.iter().all(|it| !it.rows.is_empty());
        let mut cursors: Vec<Vec<usize>> = Vec::new();
        if ctx.mode == ExecMode::Compiled {
            // An empty item means zero combinations (matching the
            // odometer), so only plan when every item has rows.
            if all_nonempty {
                if items.len() == 1 {
                    cursors = (0..items[0].rows.len()).map(|i| vec![i]).collect();
                } else {
                    let layout = items_layout(cx.bindings, &items);
                    let types: Vec<Vec<DataType>> =
                        items.iter().map(|it| it.types.clone()).collect();
                    let edges = equi_join_edges(stmt.predicate.as_ref(), &layout, &types);
                    let cards: Vec<usize> = items.iter().map(|it| it.rows.len()).collect();
                    let plan = build_join_plan(&cards, &edges);
                    self.label = if plan.steps.iter().any(|s| !s.edges.is_empty()) {
                        "hash-join"
                    } else {
                        "nested-loop"
                    };
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
                    // Back to item order, emitted lexicographically so the
                    // two executors produce identical result order.
                    cursors = partials
                        .into_iter()
                        .map(|p| (0..items.len()).map(|i| p[pos_of[i]]).collect())
                        .collect();
                    cursors.sort_unstable();
                }
            }
        } else if let Some((c0, c1)) = find_equi_join(stmt, &items) {
            stats::bump(ctx.stats, |s| s.hash_joins += 1);
            self.label = "hash-join";
            // Hash join: build on the right item, probe with the left.
            // NULL keys never join (SQL equality with NULL is unknown);
            // the type-equality requirement in find_equi_join makes the
            // storage-level hash equality agree with SQL equality.
            let mut table: HashMap<&Value, Vec<usize>> = HashMap::new();
            for (j, row) in items[1].rows.iter().enumerate() {
                let key = &row.1[c1];
                if !key.is_null() {
                    table.entry(key).or_default().push(j);
                }
            }
            for i in 0..items[0].rows.len() {
                let key = &items[0].rows[i].1[c0];
                if key.is_null() {
                    continue;
                }
                if let Some(js) = table.get(key) {
                    for &j in js {
                        cursors.push(vec![i, j]);
                    }
                }
            }
        } else if all_nonempty {
            if items.len() > 1 {
                stats::bump(ctx.stats, |s| s.nested_loop_joins += 1);
                self.label = "nested-loop";
            }
            let mut cursor = vec![0usize; items.len()];
            'outer: loop {
                cursors.push(cursor.clone());
                // Advance the odometer.
                for pos in (0..items.len()).rev() {
                    cursor[pos] += 1;
                    if cursor[pos] < items[pos].rows.len() {
                        continue 'outer;
                    }
                    cursor[pos] = 0;
                    if pos == 0 {
                        break 'outer;
                    }
                }
            }
        }
        self.items = items;
        Ok(cursors)
    }
}

impl Executor for JoinExec<'_> {
    type Batch = Vec<Vec<usize>>;

    fn name(&self) -> &'static str {
        self.label
    }

    fn next_batch(&mut self, cx: &mut ExecCx<'_, '_>) -> Result<Option<Self::Batch>, QueryError> {
        if self.state.is_none() {
            let cursors = self.open(cx)?;
            self.state = Some(Batches::new(cursors, self.batch_rows));
        }
        let batch = self.state.as_mut().expect("opened above").next();
        if let Some(b) = &batch {
            cx.batch_out(self.name(), b.len());
        }
        Ok(batch)
    }
}
