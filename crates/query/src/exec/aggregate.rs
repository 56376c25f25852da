//! The aggregation operator (grouped pipeline).
//!
//! Every grouped statement lowers to one [`GroupProgram`] and runs in two
//! phases:
//!
//! * **Partial.** The filter's batches are folded in as they stream —
//!   per group: the group key, the row count, the group's first
//!   combination (its representative row) and one running [`Acc`] per
//!   aggregate call — so group-by neither materializes its input nor
//!   collects argument values. Groups are found by a key evaluated into
//!   one reused buffer; only a new group's key is copied. Each row is
//!   folded into its group in serial order: over its borrowed frames when
//!   every key and aggregate argument is row-local, otherwise (outer
//!   references, subqueries, unresolvable names) with an owned level
//!   pushed onto the scope stack.
//! * **Final.** `having`, the projection list and the `order by` keys are
//!   evaluated once per group over its representative row, finishing each
//!   aggregate's accumulator: over the row's borrowed frames when those
//!   trees are row-local apart from their aggregate calls, otherwise with
//!   the representative row pushed onto the scope stack, so outer
//!   references, subqueries and unresolved names evaluate per group.
//!
//! Both phases run serially. No workload reached a partitioned final
//! phase, and where the B16 sweep forced one it was level or slower at
//! most sizes (EXPERIMENTS.md B16).
//!
//! Because every row is folded in serial encounter order, fold order —
//! and therefore float rounding, overflow sites, dedup order for
//! `distinct`, and error selection — is exactly that of a naive fold over
//! the collected values (the accumulator oracle in the tests below checks
//! this). Errors surface as in a per-group walk of the statement: the
//! filter is blocking (all its errors surface on the first
//! pull), a failed wildcard expansion right after that first pull,
//! group-key errors surface in combination order, and aggregate-argument
//! errors are *recorded* per (group, leaf) during the partial phase but
//! raised only when the final phase actually reaches that aggregate node
//! — so Kleene short-circuits skip them exactly like a per-group walk of
//! the statement.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

use setrules_sql::ast::{AggFunc, Expr, SelectStmt};
use setrules_storage::Value;

use crate::bindings::Level;
use crate::compile::{self, is_grouplocal, is_rowlocal, CompiledExpr, Env, Layout, RowEnv, Scoped};
use crate::ctx::SubqueryResult;
use crate::error::QueryError;

use super::filter::FilterExec;
use super::scan::FromItem;
use super::{level_of, with_frames, Batches, ExecCx, Executor, KeyedRow, Origin, RowSource};

/// One aggregate call of a grouped statement.
struct Leaf {
    func: AggFunc,
    distinct: bool,
    /// The per-row argument (`None` is `count(*)`): what the partial
    /// phase folds per row.
    arg: Option<CompiledExpr>,
}

/// The whole grouped statement, lowered for two-phase evaluation: the
/// group keys and the group-level expression trees, whose aggregate
/// leaves are numbered jointly in structural reach order (`having`, then
/// projections, then `order by`; a nested call after the one containing
/// it).
pub(crate) struct GroupProgram {
    /// Output column names.
    pub(crate) columns: Vec<String>,
    keys: Vec<CompiledExpr>,
    /// Aggregate leaf `i`.
    leaves: Vec<Leaf>,
    having: Option<CompiledExpr>,
    proj: Vec<CompiledExpr>,
    order: Vec<CompiledExpr>,
    /// Every key and leaf argument is row-local: the partial phase
    /// evaluates each row over its own frames, without the scope stack.
    pub(crate) rows_local: bool,
    /// `having`, projections and `order by` keys are row-local apart from
    /// their aggregate calls: the final phase evaluates each group over
    /// its representative row's borrowed frames, without the scope stack.
    pub(crate) groups_local: bool,
}

/// Append every aggregate leaf under `e`, in leaf order.
fn collect_leaves(e: &CompiledExpr, out: &mut Vec<Leaf>) {
    if let CompiledExpr::Agg { leaf, func, distinct, arg } = e {
        debug_assert_eq!(*leaf, out.len(), "leaves are numbered in reach order");
        out.push(Leaf { func: *func, distinct: *distinct, arg: arg.as_deref().cloned() });
    }
    e.for_each_child(&mut |c| collect_leaves(c, out));
}

/// Lower a grouped statement, its wildcards expanded to `proj`, for
/// two-phase evaluation.
pub(crate) fn group_program(
    stmt: &SelectStmt,
    layout: &Layout,
    proj: &[(Expr, String)],
) -> GroupProgram {
    let keys: Vec<CompiledExpr> =
        stmt.group_by.iter().map(|g| compile::compile(g, layout)).collect();
    let mut next_leaf = 0;
    let mut lower = |e: &Expr| compile::lower(e, layout, &mut next_leaf);
    let having = stmt.having.as_ref().map(&mut lower);
    let proj_exprs: Vec<CompiledExpr> = proj.iter().map(|(e, _)| lower(e)).collect();
    let order: Vec<CompiledExpr> = stmt.order_by.iter().map(|(e, _)| lower(e)).collect();
    let mut leaves = Vec::new();
    for e in having.iter().chain(&proj_exprs).chain(&order) {
        collect_leaves(e, &mut leaves);
    }
    let rows_local = keys.iter().all(is_rowlocal)
        && leaves.iter().filter_map(|l| l.arg.as_ref()).all(is_rowlocal);
    let groups_local = having.iter().chain(&proj_exprs).chain(&order).all(is_grouplocal);
    let columns = proj.iter().map(|(_, n)| n.clone()).collect();
    GroupProgram {
        columns,
        keys,
        leaves,
        having,
        proj: proj_exprs,
        order,
        rows_local,
        groups_local,
    }
}

/// The running fold of one aggregate call over one group. Non-NULL
/// argument values are folded as they arrive, in encounter order, to
/// exactly what a fold over the collected vector computes (the test
/// oracle checks this): the same value bit for bit, or the same error.
/// The first argument *evaluation* error is sticky and outranks
/// any fold error — the serial walk would have raised it before folding.
#[derive(Clone)]
pub(crate) struct Acc {
    func: AggFunc,
    /// `agg(distinct …)`: the values folded so far; a repeat is skipped.
    seen: Option<HashSet<Value>>,
    /// Values folded (after dedup).
    n: u64,
    fold: Fold,
    /// The first argument error.
    err: Option<QueryError>,
}

#[derive(Clone)]
enum Fold {
    /// `count`: the number folded says it all.
    Count,
    /// `sum` / `avg`: the checked and the wide integer sums (the answer
    /// while every value is an `Int`; `None` once the checked one
    /// overflowed), the encounter-order float sum, and the first value
    /// that is not numeric.
    Numeric { all_int: bool, int: Option<i64>, wide: i128, float: f64, non_numeric: Option<Value> },
    /// `min` / `max`: the best value so far, or the error of the first
    /// pair that does not compare (the fold stops there).
    Best(Result<Option<Value>, QueryError>),
}

impl Acc {
    /// An empty accumulator for `func`, deduplicating when `distinct`.
    pub(crate) fn new(func: AggFunc, distinct: bool) -> Acc {
        let fold = match func {
            AggFunc::Count => Fold::Count,
            AggFunc::Sum | AggFunc::Avg => Fold::Numeric {
                all_int: true,
                int: Some(0),
                wide: 0,
                float: 0.0,
                non_numeric: None,
            },
            AggFunc::Min | AggFunc::Max => Fold::Best(Ok(None)),
        };
        Acc { func, seen: distinct.then(HashSet::new), n: 0, fold, err: None }
    }

    /// Whether an argument error was recorded (later rows need not be
    /// evaluated for this call).
    pub(crate) fn failed(&self) -> bool {
        self.err.is_some()
    }

    /// Record an argument evaluation error; the first one sticks.
    pub(crate) fn fail(&mut self, e: QueryError) {
        self.err.get_or_insert(e);
    }

    /// Fold one argument value; NULLs are discarded (SQL aggregate
    /// semantics), and so is a repeat under `distinct`.
    pub(crate) fn push(&mut self, v: Value) {
        if v.is_null() {
            return;
        }
        if let Some(seen) = &mut self.seen {
            if seen.contains(&v) {
                return;
            }
            seen.insert(v.clone());
        }
        self.n += 1;
        match &mut self.fold {
            Fold::Count => {}
            Fold::Numeric { all_int, int, wide, float, non_numeric } => match v {
                Value::Int(i) => {
                    *int = int.and_then(|s| s.checked_add(i));
                    *wide += i128::from(i);
                    *float += i as f64;
                }
                other => {
                    *all_int = false;
                    match other.as_f64() {
                        Some(f) => *float += f,
                        None => {
                            non_numeric.get_or_insert(other);
                        }
                    }
                }
            },
            Fold::Best(state) => {
                let Ok(best) = state else { return };
                let Some(b) = best else {
                    *best = Some(v);
                    return;
                };
                match b.sql_cmp(&v) {
                    Some(ord) => {
                        let keep_b = match self.func {
                            AggFunc::Min => ord != std::cmp::Ordering::Greater,
                            _ => ord != std::cmp::Ordering::Less,
                        };
                        if !keep_b {
                            *b = v;
                        }
                    }
                    None => {
                        let e = QueryError::Type(format!("cannot compare {b} with {v}"));
                        *state = Err(e);
                    }
                }
            }
        }
    }

    /// The aggregate's value: the recorded argument error, else the
    /// fold's result.
    pub(crate) fn finish(&self) -> Result<Value, QueryError> {
        if let Some(e) = &self.err {
            return Err(e.clone());
        }
        match &self.fold {
            Fold::Count => Ok(Value::Int(self.n as i64)),
            _ if self.n == 0 => Ok(Value::Null),
            Fold::Numeric { all_int: true, int, wide, .. } => match self.func {
                AggFunc::Sum => {
                    int.map(Value::Int)
                        .ok_or_else(|| QueryError::Type("integer overflow in sum".into()))
                }
                // Exact integer sum, one division: order-independent, so
                // incremental accumulator repair stays sound.
                _ => Ok(Value::Float(*wide as f64 / self.n as f64)),
            },
            Fold::Numeric { non_numeric: Some(v), .. } => {
                let name = if self.func == AggFunc::Sum { "sum" } else { "avg" };
                Err(QueryError::Type(format!("{name} of non-numeric value {v}")))
            }
            Fold::Numeric { float, .. } => match self.func {
                AggFunc::Sum => Ok(Value::Float(*float)),
                _ => Ok(Value::Float(*float / self.n as f64)),
            },
            Fold::Best(best) => best.clone().map(|b| b.unwrap_or(Value::Null)),
        }
    }
}

/// One group after the partial phase: its row count and one accumulator
/// per aggregate leaf.
struct GroupData {
    rows_n: u64,
    accs: Vec<Acc>,
}

impl GroupData {
    fn new(prog: &GroupProgram) -> Self {
        let accs = prog.leaves.iter().map(|l| Acc::new(l.func, l.distinct)).collect();
        GroupData { rows_n: 0, accs }
    }
}

/// The partial phase's state: the groups in first-seen order, found by
/// their key.
#[derive(Default)]
struct Partial {
    index: HashMap<Vec<Value>, usize>,
    /// The key of the row being folded, evaluated into one reused buffer.
    key: Vec<Value>,
    groups: Vec<GroupData>,
    /// Each group's first combination, flat in strides of the item count
    /// (the synthetic empty group has none).
    reprs: Vec<usize>,
}

impl Partial {
    /// Evaluate the group key of combination `combo` in `env`, then fold
    /// its leaf arguments into that group (a new one, first-seen order,
    /// when the key is new); `Err` is a group-key error.
    fn add_row<E: Env>(
        &mut self,
        prog: &GroupProgram,
        combo: &[usize],
        env: &mut E,
    ) -> Result<(), QueryError> {
        let slot = if prog.keys.is_empty() && !self.groups.is_empty() {
            0
        } else {
            self.key.clear();
            for k in &prog.keys {
                self.key.push(compile::eval(k, env)?);
            }
            match self.index.get(self.key.as_slice()) {
                Some(&g) => g,
                None => {
                    self.index.insert(self.key.clone(), self.groups.len());
                    self.groups.push(GroupData::new(prog));
                    self.reprs.extend_from_slice(combo);
                    self.groups.len() - 1
                }
            }
        };
        let g = &mut self.groups[slot];
        g.rows_n += 1;
        for (leaf, acc) in prog.leaves.iter().zip(&mut g.accs) {
            // count(*) needs only rows_n; after an argument error the
            // serial walk would never have looked further.
            let Some(arg) = &leaf.arg else { continue };
            if acc.failed() {
                continue;
            }
            match compile::eval(arg, env) {
                Ok(v) => acc.push(v),
                Err(e) => acc.fail(e),
            }
        }
        Ok(())
    }
}

/// Phase 1: fold one batch of combinations over `items` into the groups,
/// row by row in serial order, stopping at the first group-key error.
/// With no `scope` each row is evaluated over its borrowed frames
/// (row-local programs only); with one, each row's level is pushed onto
/// the scope stack and evaluated there.
fn accumulate_batch(
    batch: &[usize],
    items: &[FromItem<'_>],
    prog: &GroupProgram,
    mut scope: Option<Scoped<'_, '_>>,
    partial: &mut Partial,
) -> Result<(), QueryError> {
    for c in batch.chunks_exact(items.len()) {
        match &mut scope {
            None => with_frames(items, c, |frames| partial.add_row(prog, c, &mut RowEnv(frames)))?,
            Some(scoped) => {
                scoped.bindings.push_level(level_of(items, c));
                let added = partial.add_row(prog, c, scoped);
                scoped.bindings.pop_level();
                added?;
            }
        }
    }
    Ok(())
}

/// The final-phase environment of one group: everything but aggregate
/// calls goes to `inner`, which reads the group's representative row (a
/// [`RowEnv`] over its frames, or [`Scoped`] with it pushed), and reaching
/// aggregate leaf `i` finishes that leaf's accumulator — raising its
/// recorded argument error, if any, only then, so a short-circuited
/// aggregate's error is skipped exactly like a per-group walk.
struct GroupEnv<'g, E> {
    inner: E,
    rows_n: u64,
    accs: &'g [Acc],
}

impl<E: Env> Env for GroupEnv<'_, E> {
    fn slot(&mut self, level_up: usize, frame: usize, col: usize) -> Result<Value, QueryError> {
        self.inner.slot(level_up, frame, col)
    }

    fn agg(
        &mut self,
        leaf: usize,
        _func: AggFunc,
        _distinct: bool,
        arg: Option<&CompiledExpr>,
    ) -> Result<Value, QueryError> {
        match arg {
            // count(*) counts rows, including all-NULL ones.
            None => Ok(Value::Int(self.rows_n as i64)),
            Some(_) => self.accs[leaf].finish(),
        }
    }

    fn subquery(&mut self, stmt: &Arc<SelectStmt>) -> Result<Rc<SubqueryResult>, QueryError> {
        self.inner.subquery(stmt)
    }
}

/// Phase 2 for one group: `having`, then the projection, then the
/// `order by` keys; `None` when `having` rejects the group.
fn finish_group<E: Env>(
    prog: &GroupProgram,
    env: &mut GroupEnv<'_, E>,
) -> Result<Option<KeyedRow>, QueryError> {
    if let Some(h) = &prog.having {
        if !compile::holds(h, env)? {
            return Ok(None);
        }
    }
    let mut out = Vec::with_capacity(prog.proj.len());
    for e in &prog.proj {
        out.push(compile::eval(e, env)?);
    }
    let mut key = Vec::with_capacity(prog.order.len());
    for e in &prog.order {
        key.push(compile::eval(e, env)?);
    }
    Ok(Some((key, out)))
}

/// All-NULL rows, one per item: the representative row of the empty
/// ungrouped group (`select count(*) from empty`).
fn null_rows(items: &[FromItem<'_>]) -> Vec<Vec<Value>> {
    items.iter().map(|it| vec![Value::Null; it.columns.len()]).collect()
}

/// The grouped pipeline top: one output row per group that passes
/// `having`. Implements [`RowSource`].
pub(crate) struct AggregateExec<'a> {
    filter: FilterExec<'a>,
    /// The planned program; taken at open (an expansion error surfaces
    /// there, after the filter's).
    planned: Option<Result<GroupProgram, QueryError>>,
    columns: Vec<String>,
    state: Option<Batches<KeyedRow>>,
    batch_rows: usize,
}

impl<'a> AggregateExec<'a> {
    pub(crate) fn new(filter: FilterExec<'a>, prog: Result<GroupProgram, QueryError>) -> Self {
        AggregateExec {
            filter,
            planned: Some(prog),
            columns: Vec::new(),
            state: None,
            batch_rows: super::BATCH_ROWS,
        }
    }

    #[cfg(test)]
    pub(crate) fn with_batch_rows(mut self, batch_rows: usize) -> Self {
        self.batch_rows = batch_rows;
        self
    }

    /// Pull the first batch (surfacing every filter error — the filter is
    /// blocking), take the planned [`GroupProgram`], and run both phases.
    fn open(&mut self, cx: &mut ExecCx<'a, '_>) -> Result<Vec<KeyedRow>, QueryError> {
        let first = self.filter.next_batch(cx)?;
        let mut prog = self.planned.take().expect("opened once")?;
        self.columns = std::mem::take(&mut prog.columns);
        self.run_two_phase(cx, &prog, first)
    }

    /// Two-phase streaming aggregation: fold each filter batch into the
    /// groups, then evaluate `having`/projection/`order by` per group.
    /// The partial phase's operator stats count the groups each batch
    /// created.
    fn run_two_phase(
        &mut self,
        cx: &mut ExecCx<'a, '_>,
        prog: &GroupProgram,
        first: Option<Vec<usize>>,
    ) -> Result<Vec<KeyedRow>, QueryError> {
        let ctx = cx.ctx;
        let k = self.filter.width();
        let mut partial = Partial::default();

        // Phase 1: streaming partial accumulation, batch by batch.
        let mut next = first;
        while let Some(batch) = next {
            cx.rows_in("partial-aggregate", batch.len() / k);
            let before = partial.groups.len();
            let scope = (!prog.rows_local).then_some(Scoped { ctx, bindings: &mut *cx.bindings });
            accumulate_batch(&batch, self.filter.items(), prog, scope, &mut partial)?;
            if partial.groups.len() > before {
                cx.batch_out("partial-aggregate", partial.groups.len() - before);
            }
            next = self.filter.next_batch(cx)?;
        }
        let Partial { mut groups, reprs, .. } = partial;
        // The ungrouped empty input still yields one row
        // (`select count(*) from empty` is 0): synthesize the group.
        if prog.keys.is_empty() && groups.is_empty() {
            groups.push(GroupData::new(prog));
        }

        // Phase 2: per-group evaluation in global first-seen order.
        if !groups.is_empty() {
            cx.rows_in("final-aggregate", groups.len());
        }
        let items = self.filter.items();
        // Representative rows for the synthetic empty group.
        let nulls = if reprs.is_empty() { null_rows(items) } else { Vec::new() };
        let repr = |g: usize| reprs.get(g * k..(g + 1) * k);
        let mut rows: Vec<KeyedRow> = Vec::new();
        if prog.groups_local {
            for (g, gd) in groups.iter().enumerate() {
                let finish = |frames: &[&[Value]]| {
                    let inner = RowEnv(frames);
                    finish_group(prog, &mut GroupEnv { inner, rows_n: gd.rows_n, accs: &gd.accs })
                };
                let row = match repr(g) {
                    Some(c) => with_frames(items, c, finish),
                    None => finish(&nulls.iter().map(Vec::as_slice).collect::<Vec<_>>()),
                };
                rows.extend(row?);
            }
        } else {
            for (g, gd) in groups.iter().enumerate() {
                let level: Level = match repr(g) {
                    Some(c) => level_of(items, c),
                    None => {
                        items.iter().zip(&nulls).map(|(it, row)| it.frame(row.clone())).collect()
                    }
                };
                cx.bindings.push_level(level);
                let inner = Scoped { ctx, bindings: &mut *cx.bindings };
                let env = &mut GroupEnv { inner, rows_n: gd.rows_n, accs: &gd.accs };
                let row = finish_group(prog, env);
                cx.bindings.pop_level();
                rows.extend(row?);
            }
        }
        Ok(rows)
    }
}

impl<'a> Executor<'a> for AggregateExec<'a> {
    type Batch = Vec<KeyedRow>;

    fn name(&self) -> &'static str {
        "final-aggregate"
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

impl<'a> RowSource<'a> for AggregateExec<'a> {
    fn output_columns(&self) -> &[String] {
        &self.columns
    }

    fn take_origins(&mut self) -> Vec<Origin> {
        self.filter.take_origins()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::{Bindings, Frame};
    use crate::compile::{compile, eval_compiled, LayoutFrame};
    use crate::ctx::QueryCtx;
    use setrules_sql::ast::{DmlOp, Statement};
    use setrules_sql::{parse_expr, parse_statement};
    use setrules_storage::Database;
    use std::borrow::Cow;
    use std::cmp::Ordering;
    use std::sync::Arc;

    type Outcome = Result<Value, String>;

    fn outcome(r: Result<Value, QueryError>) -> Outcome {
        r.map_err(|e| e.to_string())
    }

    /// `having` and the projection of `select {src} from t having {src}`
    /// over a group holding exactly `level`, through the production
    /// partial phase, merge, and group environment — each phase in the
    /// environment the executor would pick for it.
    fn through_group_env(src: &str, layout: &Layout, level: &Level) -> (Outcome, Outcome) {
        let sql = format!("select {src} from t having {src}");
        let Statement::Dml(DmlOp::Select(stmt)) = parse_statement(&sql).expect("parse") else {
            panic!("not a select: {sql}")
        };
        let proj = [(parse_expr(src).expect("parse"), "x".to_string())];
        let prog = group_program(&stmt, layout, &proj);
        let db = Database::new();
        let ctx = QueryCtx::plain(&db);
        let mut bindings = Bindings::new();
        let items: Vec<FromItem<'_>> = level
            .iter()
            .map(|f| FromItem {
                binding: f.name.clone(),
                columns: Arc::clone(&f.columns),
                rows: vec![(None, Cow::Borrowed(f.row.as_slice()))],
            })
            .collect();
        let mut partial = Partial::default();
        let scope = (!prog.rows_local).then_some(Scoped { ctx, bindings: &mut bindings });
        accumulate_batch(&vec![0; items.len()], &items, &prog, scope, &mut partial)
            .expect("no group keys, so no key error");
        let g = &partial.groups[0];
        let having = prog.having.as_ref().expect("statement has a having");
        // `having`'s leaves are numbered before the projection's, so the
        // two copies of `src` read disjoint accumulators.
        fn both<E: Env>(h: &CompiledExpr, p: &CompiledExpr, env: &mut E) -> (Outcome, Outcome) {
            (outcome(compile::eval(h, env)), outcome(compile::eval(p, env)))
        }
        if prog.groups_local {
            let frames: Vec<&[Value]> = level.iter().map(|f| f.row.as_slice()).collect();
            let inner = RowEnv(&frames);
            both(having, &prog.proj[0], &mut GroupEnv { inner, rows_n: g.rows_n, accs: &g.accs })
        } else {
            bindings.push_level(level.clone());
            let inner = Scoped { ctx, bindings: &mut bindings };
            both(having, &prog.proj[0], &mut GroupEnv { inner, rows_n: g.rows_n, accs: &g.accs })
        }
    }

    /// The accumulator oracle: fold the collected (non-NULL) argument values
    /// of one aggregate call the naive way, over the whole vector in
    /// encounter order.
    fn fold_aggregate(
        func: AggFunc,
        distinct: bool,
        mut vals: Vec<Value>,
    ) -> Result<Value, QueryError> {
        if distinct {
            // Dedup without cloning values: a borrowing seen-set marks first
            // occurrences (keeping first-seen order — float sums fold in
            // encounter order), then the mask drives `retain`.
            let mut seen: HashSet<&Value> = HashSet::with_capacity(vals.len());
            let keep: Vec<bool> = vals.iter().map(|v| seen.insert(v)).collect();
            drop(seen);
            let mut mask = keep.iter();
            vals.retain(|_| *mask.next().expect("one mask bit per value"));
        }

        match func {
            AggFunc::Count => Ok(Value::Int(vals.len() as i64)),
            AggFunc::Sum => {
                if vals.is_empty() {
                    return Ok(Value::Null);
                }
                if vals.iter().all(|v| matches!(v, Value::Int(_))) {
                    let mut acc: i64 = 0;
                    for v in &vals {
                        acc = acc
                            .checked_add(v.as_i64().expect("all ints"))
                            .ok_or_else(|| QueryError::Type("integer overflow in sum".into()))?;
                    }
                    Ok(Value::Int(acc))
                } else {
                    let mut acc = 0.0;
                    for v in &vals {
                        acc += v
                            .as_f64()
                            .ok_or_else(|| QueryError::Type(format!("sum of non-numeric value {v}")))?;
                    }
                    Ok(Value::Float(acc))
                }
            }
            AggFunc::Avg => {
                if vals.is_empty() {
                    return Ok(Value::Null);
                }
                if vals.iter().all(|v| matches!(v, Value::Int(_))) {
                    // Exact integer sum, one division: the result cannot
                    // depend on encounter order (an order-sensitive f64
                    // running sum would make incremental accumulator repair
                    // unsound — see `crate::incremental`).
                    let sum: i128 = vals.iter().map(|v| v.as_i64().expect("all ints") as i128).sum();
                    return Ok(Value::Float(sum as f64 / vals.len() as f64));
                }
                let mut acc = 0.0;
                for v in &vals {
                    acc += v
                        .as_f64()
                        .ok_or_else(|| QueryError::Type(format!("avg of non-numeric value {v}")))?;
                }
                Ok(Value::Float(acc / vals.len() as f64))
            }
            AggFunc::Min | AggFunc::Max => {
                let mut best: Option<Value> = None;
                for v in vals {
                    best = Some(match best {
                        None => v,
                        Some(b) => {
                            let ord = b
                                .sql_cmp(&v)
                                .ok_or_else(|| QueryError::Type(format!("cannot compare {b} with {v}")))?;
                            let keep_b = match func {
                                AggFunc::Min => ord != Ordering::Greater,
                                _ => ord != Ordering::Less,
                            };
                            if keep_b {
                                b
                            } else {
                                v
                            }
                        }
                    });
                }
                Ok(best.unwrap_or(Value::Null))
            }
        }
    }

    /// An aggregate result pinned bit for bit: floats by their bits (NaN
    /// payloads, -0.0), everything else by value, errors by their text.
    fn exact(r: &Result<Value, QueryError>) -> String {
        match r {
            Ok(Value::Float(f)) => format!("float {:#018x}", f.to_bits()),
            Ok(v) => format!("{v:?}"),
            Err(e) => format!("error: {e}"),
        }
    }

    /// Fold `col` through every aggregate function, plain and `distinct`,
    /// two ways: streaming through [`Acc`], and through `fold_aggregate`
    /// over the collected non-NULL values. Returns how many of the folds
    /// were errors.
    fn fold_both_ways(col: &[Value]) -> usize {
        let mut errors = 0;
        for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
            for distinct in [false, true] {
                let vals: Vec<Value> = col.iter().filter(|v| !v.is_null()).cloned().collect();
                let oracle = fold_aggregate(func, distinct, vals);
                let mut acc = Acc::new(func, distinct);
                for v in col {
                    acc.push(v.clone());
                }
                let got = acc.finish();
                let case = format!("{func:?} distinct={distinct} over {col:?}");
                assert_eq!(exact(&got), exact(&oracle), "{case}");
                errors += oracle.is_err() as usize;
            }
        }
        errors
    }

    /// The streaming accumulators are `fold_aggregate` without the
    /// collected vector: over seeded random columns of ints (near the
    /// `i64` edges too), floats (NaN, ±0.0, ±inf), text, booleans and
    /// NULL, every function, plain and `distinct`, gives the same value
    /// bit for bit or the same error text — including the cases where
    /// encounter order decides: an int overflow followed by a float, an
    /// all-int overflow, a non-numeric value after a float, and min/max
    /// over values that do not compare.
    #[test]
    fn accumulators_match_fold_aggregate() {
        use setrules_testkit::{check, Rng};
        let pinned: Vec<Vec<Value>> = vec![
            vec![],
            vec![Value::Null, Value::Null],
            vec![Value::Int(i64::MAX), Value::Int(1), Value::Float(0.5)],
            vec![Value::Int(i64::MAX), Value::Int(1)],
            vec![Value::Int(i64::MAX), Value::Int(1), Value::Int(-5)],
            vec![Value::Int(i64::MIN), Value::Int(-1), Value::Null],
            vec![Value::Float(1.5), Value::Text("x".into()), Value::Int(2)],
            vec![Value::Int(1), Value::Text("a".into())],
            vec![Value::Float(f64::NAN), Value::Float(1.0), Value::Int(3)],
            vec![Value::Float(-0.0), Value::Float(0.0), Value::Int(0), Value::Float(-0.0)],
            vec![Value::Int(1), Value::Int(1), Value::Float(1.0), Value::Null, Value::Int(1)],
            vec![Value::Float(f64::INFINITY), Value::Float(f64::NEG_INFINITY), Value::Int(2)],
            vec![Value::Text("b".into()), Value::Text("a".into()), Value::Text("b".into())],
            vec![Value::Bool(true), Value::Int(1)],
        ];
        let mut errors: usize = pinned.iter().map(|c| fold_both_ways(c)).sum();
        let value = |rng: &mut Rng, palette: usize| -> Value {
            match rng.below(palette) {
                0 => Value::Null,
                1 => Value::Int(rng.range_i64(-3, 3)),
                2 => Value::Int(*rng.pick(&[i64::MAX, i64::MIN, i64::MAX - 1])),
                3 => Value::Float(*rng.pick(&[
                    f64::NAN,
                    -0.0,
                    0.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    0.1,
                    -2.5,
                    1e300,
                ])),
                4 => Value::Text(rng.pick(&["a", "b", ""]).to_string()),
                _ => Value::Bool(rng.chance(1, 2)),
            }
        };
        check("accumulator_oracle", 300, 0xacc0_f01d, |rng| {
            // Palettes widen in order: NULL and small ints; + i64 edges;
            // + floats; + text; + booleans.
            let palette = 2 + rng.below(5);
            let col: Vec<Value> = (0..rng.below(12)).map(|_| value(rng, palette)).collect();
            errors += fold_both_ways(&col);
        });
        assert!(errors >= 100, "the oracle lost its erroring folds ({errors} left)");
        // An argument error outranks a fold error, whatever came first.
        let mut acc = Acc::new(AggFunc::Min, false);
        acc.push(Value::Int(1));
        acc.push(Value::Text("a".into()));
        acc.fail(QueryError::DivisionByZero);
        acc.fail(QueryError::Type("later".into()));
        assert_eq!(acc.finish(), Err(QueryError::DivisionByZero));
    }

    /// One corpus, every environment. The scoped, row and group
    /// environments share one walk, so each expression must come out of
    /// every one that admits it as the same value (bit-for-bit: NaN,
    /// -0.0) or the same error text; an aggregate tree comes out of the
    /// group's `having` and projection alike.
    #[test]
    fn one_corpus_three_environments() {
        let cols: Arc<Vec<String>> = Arc::new(vec!["a".into(), "b".into(), "name".into()]);
        let mut layout = Layout::new();
        layout.push_level(vec![LayoutFrame { name: "t".into(), columns: Arc::clone(&cols) }]);
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Int(1), Value::Float(2.5), Value::Text("ab".into())],
            vec![Value::Int(-3), Value::Float(f64::NAN), Value::Null],
            vec![Value::Null, Value::Float(-0.0), Value::Text("%x_".into())],
            vec![Value::Int(0), Value::Float(1e300), Value::Text("".into())],
            vec![Value::Int(i64::MAX), Value::Float(0.0), Value::Text("!".into())],
        ];
        // (expression, runs in the row environment)
        let corpus = [
            ("a + 1 > 0 and b < 10.0", true),
            ("a is null or name like 'a%'", true),
            ("a in (1, -3, null)", true),
            ("b between -1.0 and 3.0", true),
            ("not (a = 0) or name = ''", true),
            ("a / 0 = 1", true),
            ("b + a > 0.0", true),
            ("b * 1e300", true),
            ("-b", true),
            ("b / 0", true),
            ("b = b", true),
            ("a + 1", true),
            ("-a - 2", true),
            ("name like '%x!_' escape '!'", true),
            ("name like 'a%' escape '!!'", true),
            ("name like 'a%' escape name", true),
            ("name like 'a!'  escape '!'", true),
            ("a", true),
            ("count(*)", false),
            ("count(name) + count(distinct a)", false),
            ("sum(a)", false),
            ("sum(a) + 1", false),
            ("avg(b)", false),
            ("min(b) = max(b)", false),
            ("max(name) like 'a%' escape '!!'", false),
            ("sum(a / 0)", false),
            ("true or sum(a / 0) > 0", false),
            ("false or sum(a / 0) > 0", false),
            ("a = a or sum(a / 0) > 0", false),
            ("false and sum(a / 0) > 0", false),
            ("sum(a) in (1, a, null)", false),
            ("min(a) between -3 and count(*)", false),
        ];
        let db = Database::new();
        let ctx = QueryCtx::plain(&db);
        let mut errors = 0;
        for (src, rowlocal) in corpus {
            let ast = parse_expr(src).expect("parse");
            let ce = compile(&ast, &layout);
            assert_eq!(is_rowlocal(&ce), rowlocal, "{src}");
            assert!(is_grouplocal(&ce), "{src}");
            for row in &rows {
                let level: Level =
                    vec![Frame { name: "t".into(), columns: Arc::clone(&cols), row: row.clone() }];
                let mut b = Bindings::new();
                b.push_level(level.clone());
                let (having, proj) = through_group_env(src, &layout, &level);
                assert_eq!(having, proj, "group: {src} on {row:?}");
                errors += proj.is_err() as usize;
                let scoped = outcome(eval_compiled(ctx, &mut b, &ce));
                let in_row = outcome(compile::eval(&ce, &mut RowEnv(&[row.as_slice()])));
                match (scoped, in_row) {
                    // Outside a group an aggregate leaf that is reached
                    // is an error (one a short-circuit skips is not):
                    // the scoped walk names the call, a worker refuses it.
                    (Err(scoped), Err(refusal)) if !rowlocal => {
                        assert!(scoped.contains("not allowed in this context"), "{src}: {scoped}");
                        assert!(
                            refusal.contains("non-row-local expression reached a row environment"),
                            "row: {src} on {row:?}: {refusal}"
                        );
                    }
                    (scoped, in_row) => {
                        assert_eq!(scoped, proj, "scoped: {src} on {row:?}");
                        assert_eq!(in_row, proj, "row: {src} on {row:?}");
                    }
                }
            }
        }
        assert!(errors >= 20, "the corpus lost its erroring cases ({errors} left)");
        // A nested aggregate's argument is not row-local, so its partial
        // phase runs scoped, where the inner call is rejected.
        let src = "sum(count(*))";
        let nested = compile(&parse_expr(src).expect("parse"), &layout);
        assert!(!is_rowlocal(&nested) && is_grouplocal(&nested));
        let level: Level =
            vec![Frame { name: "t".into(), columns: Arc::clone(&cols), row: rows[0].clone() }];
        let rejected = Err("type error: aggregate count() not allowed in this context".to_string());
        assert_eq!(through_group_env(src, &layout, &level), (rejected.clone(), rejected));
    }
}
