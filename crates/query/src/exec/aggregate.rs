//! The aggregation operator (grouped pipeline).
//!
//! Two implementations live here, selected at open:
//!
//! * **Two-phase streaming aggregation** (compiled mode, when the whole
//!   grouped statement lowers to a [`GroupProgram`]): the filter's
//!   batches are accumulated as they stream — each batch exchanges into
//!   per-partition *partial* accumulators (group key, row count, and the
//!   collected non-NULL argument values of every aggregate call), merged
//!   into global groups in partition order — so group-by never
//!   materializes the full input. The *final* phase then evaluates
//!   `having`, the projection list, and the `order by` keys once per
//!   group (exchanged across groups when there are enough), folding each
//!   aggregate's merged value vector through the same
//!   [`fold_aggregate`] kernel the interpreter uses. Because partial
//!   vectors concatenate in partition order, fold order — and therefore
//!   float rounding, overflow sites, dedup order for `distinct`, and
//!   error selection — is exactly the serial encounter order.
//! * **The legacy drain-then-partition pass** (interpreted mode, or any
//!   statement the program builder refuses: correlated/outer references,
//!   subqueries next to aggregates, unresolvable names): drains the
//!   filter, partitions the combinations into groups in first-seen
//!   order, then evaluates per group through the interpreter.
//!
//! Error ordering is preserved across both paths: the filter is blocking
//! (all its errors surface on the first pull), wildcard expansion runs
//! right after that first pull, group-key errors surface in combination
//! order, and aggregate-argument errors are *recorded* per (group, leaf)
//! during the partial phase but raised only when the final phase actually
//! reaches that aggregate node — so Kleene short-circuits still skip them
//! exactly like the per-group interpreter walk.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;

use setrules_sql::ast::{AggFunc, Expr, SelectStmt};
use setrules_storage::{TableId, TupleHandle, Value};

use crate::bindings::Level;
use crate::compile::{self, CompiledExpr, Env, Layout, RowEnv};
use crate::ctx::ExecMode;
use crate::error::QueryError;
use crate::eval::{eval_expr, fold_aggregate};
use crate::parallel;

use super::exchange::Exchange;
use super::filter::FilterExec;
use super::project::expand_wildcards;
use super::scan::{items_layout, FromItem};
use super::{Batches, ExecCx, Executor, KeyedRow, RowSource};

/// The whole grouped statement, lowered for two-phase evaluation:
/// row-local group keys and the group-level expression trees, whose
/// aggregate leaves are numbered jointly in structural reach order
/// (`having`, then projections, then `order by`). Built only when *every*
/// piece qualifies — anything else (outer references, subqueries,
/// interpreter fallbacks) keeps the legacy serial path.
pub(crate) struct GroupProgram {
    keys: Vec<CompiledExpr>,
    /// The row-local argument of leaf `i` (`None` is `count(*)`): what
    /// the partial phase accumulates per row.
    leaf_args: Vec<Option<CompiledExpr>>,
    having: Option<CompiledExpr>,
    proj: Vec<CompiledExpr>,
    order: Vec<CompiledExpr>,
}

/// Append the argument of every aggregate leaf under `e`, in leaf order.
fn collect_leaf_args(e: &CompiledExpr, out: &mut Vec<Option<CompiledExpr>>) {
    if let CompiledExpr::Agg { leaf, arg, .. } = e {
        debug_assert_eq!(*leaf, out.len(), "leaves are numbered in reach order");
        out.push(arg.as_deref().cloned());
    } else {
        e.for_each_child(&mut |c| collect_leaf_args(c, out));
    }
}

/// Lower a grouped statement for two-phase evaluation; `None` when any
/// piece is not expressible (the legacy path handles it). Shared by the
/// executor and the `plan:`/`parallel:` explain lines, so the printed
/// shape cannot drift from the executed one.
pub(crate) fn group_program(
    stmt: &SelectStmt,
    layout: &Layout,
    proj: &[(Expr, String)],
) -> Option<GroupProgram> {
    let mut keys = Vec::with_capacity(stmt.group_by.len());
    for g in &stmt.group_by {
        let ce = compile::compile(g, layout);
        if !parallel::is_rowlocal(&ce) {
            return None;
        }
        keys.push(ce);
    }
    let mut next_leaf = 0;
    let mut leaf_args = Vec::new();
    let mut lower = |e: &Expr| {
        let ce = compile::lower(e, layout, &mut next_leaf);
        parallel::is_grouplocal(&ce).then(|| {
            collect_leaf_args(&ce, &mut leaf_args);
            ce
        })
    };
    let having = match &stmt.having {
        Some(h) => Some(lower(h)?),
        None => None,
    };
    let proj = proj.iter().map(|(e, _)| lower(e)).collect::<Option<Vec<_>>>()?;
    let order = stmt.order_by.iter().map(|(e, _)| lower(e)).collect::<Option<Vec<_>>>()?;
    Some(GroupProgram { keys, leaf_args, having, proj, order })
}

/// Per-(group, leaf) partial state: the collected non-NULL argument
/// values in encounter order, or the first argument error (sticky — the
/// serial walk would have raised there and never looked further).
#[derive(Clone)]
enum LeafAcc {
    Vals(Vec<Value>),
    Err(QueryError),
}

/// One group discovered by a partial-phase partition, in local
/// first-seen order. `first` indexes the batch row that discovered it
/// (the representative-row candidate).
struct LocalGroup {
    key: Vec<Value>,
    first: usize,
    rows_n: u64,
    leaves: Vec<LeafAcc>,
}

/// A partition's partial-phase output: its local groups, and its first
/// group-key error (evaluation of the range stops there).
struct PartialOutput {
    groups: Vec<LocalGroup>,
    err: Option<QueryError>,
}

/// Phase 1 worker: accumulate one contiguous range of a batch into local
/// groups. Runs on pool workers (row-local expressions only).
fn accumulate_range(batch: &[Level], range: Range<usize>, prog: &GroupProgram) -> PartialOutput {
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut groups: Vec<LocalGroup> = Vec::new();
    for i in range {
        let frames: Vec<&[Value]> = batch[i].iter().map(|f| f.row.as_slice()).collect();
        let mut key = Vec::with_capacity(prog.keys.len());
        let mut key_err = None;
        for k in &prog.keys {
            match compile::eval(k, &mut RowEnv(&frames)) {
                Ok(v) => key.push(v),
                Err(e) => {
                    key_err = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = key_err {
            return PartialOutput { groups, err: Some(e) };
        }
        let slot = match index.entry(key) {
            Entry::Occupied(o) => *o.get(),
            Entry::Vacant(v) => {
                groups.push(LocalGroup {
                    key: v.key().clone(),
                    first: i,
                    rows_n: 0,
                    leaves: vec![LeafAcc::Vals(Vec::new()); prog.leaf_args.len()],
                });
                *v.insert(groups.len() - 1)
            }
        };
        let g = &mut groups[slot];
        g.rows_n += 1;
        for (arg, acc) in prog.leaf_args.iter().zip(g.leaves.iter_mut()) {
            // count(*) needs only rows_n; an already-errored leaf stays
            // errored (the serial fold would have stopped there).
            let (Some(arg), LeafAcc::Vals(vals)) = (arg, &mut *acc) else { continue };
            match compile::eval(arg, &mut RowEnv(&frames)) {
                Ok(v) => {
                    if !v.is_null() {
                        vals.push(v);
                    }
                }
                Err(e) => *acc = LeafAcc::Err(e),
            }
        }
    }
    PartialOutput { groups, err: None }
}

/// One global group after the partial phase: representative row (first
/// row of the group in serial order; `None` only for the synthetic empty
/// ungrouped group), total row count, and per-leaf merged state.
struct GroupData {
    repr: Option<Level>,
    rows_n: u64,
    leaves: Vec<LeafAcc>,
}

/// Merge one partition's partial output into the global groups, in
/// partition order: value vectors concatenate (serial encounter order),
/// errors are sticky earliest-first, and a partition's key error raises
/// after its preceding rows merged — exactly the serial walk's first
/// error.
fn merge_partial(
    batch: &[Level],
    out: PartialOutput,
    index: &mut HashMap<Vec<Value>, usize>,
    groups: &mut Vec<GroupData>,
    n_leaves: usize,
) -> Result<(), QueryError> {
    for lg in out.groups {
        let slot = match index.entry(lg.key) {
            Entry::Occupied(o) => *o.get(),
            Entry::Vacant(v) => {
                groups.push(GroupData {
                    repr: Some(batch[lg.first].clone()),
                    rows_n: 0,
                    leaves: vec![LeafAcc::Vals(Vec::new()); n_leaves],
                });
                *v.insert(groups.len() - 1)
            }
        };
        let g = &mut groups[slot];
        g.rows_n += lg.rows_n;
        for (dst, src) in g.leaves.iter_mut().zip(lg.leaves) {
            match (&mut *dst, src) {
                (LeafAcc::Err(_), _) => {}
                (LeafAcc::Vals(d), LeafAcc::Vals(mut s)) => d.append(&mut s),
                (d, LeafAcc::Err(e)) => *d = LeafAcc::Err(e),
            }
        }
    }
    match out.err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// The final-phase environment of one group: row-local subtrees read the
/// representative row, and reaching aggregate leaf `i` raises that leaf's
/// recorded error or folds its merged values — so a short-circuited
/// aggregate's error is skipped exactly like the per-group interpreter
/// walk.
struct GroupEnv<'a> {
    frames: &'a [&'a [Value]],
    rows_n: u64,
    accs: &'a [LeafAcc],
}

impl Env for GroupEnv<'_> {
    fn slot(&mut self, level_up: usize, frame: usize, col: usize) -> Result<Value, QueryError> {
        RowEnv(self.frames).slot(level_up, frame, col)
    }

    fn agg(
        &mut self,
        leaf: usize,
        func: AggFunc,
        distinct: bool,
        arg: Option<&CompiledExpr>,
    ) -> Result<Value, QueryError> {
        match (&self.accs[leaf], arg) {
            (LeafAcc::Err(e), _) => Err(e.clone()),
            // count(*) counts rows, including all-NULL ones.
            (LeafAcc::Vals(_), None) => Ok(Value::Int(self.rows_n as i64)),
            (LeafAcc::Vals(vals), Some(_)) => fold_aggregate(func, distinct, vals.clone()),
        }
    }
}

/// Representative bindings for the empty ungrouped group (`select
/// count(*) from empty`): all-NULL frames.
fn null_level(items: &[FromItem]) -> Level {
    items.iter().map(|it| it.frame(vec![Value::Null; it.columns.len()])).collect()
}

/// The grouped pipeline top: one output row per group that passes
/// `having`. Implements [`RowSource`].
pub(crate) struct AggregateExec<'q> {
    filter: FilterExec<'q>,
    stmt: &'q SelectStmt,
    columns: Vec<String>,
    proj: Vec<(Expr, String)>,
    label: &'static str,
    legacy: Option<Batches<Vec<Level>>>,
    phased: Option<Batches<KeyedRow>>,
    batch_rows: usize,
}

impl<'q> AggregateExec<'q> {
    pub(crate) fn new(filter: FilterExec<'q>, stmt: &'q SelectStmt) -> Self {
        AggregateExec {
            filter,
            stmt,
            columns: Vec::new(),
            proj: Vec::new(),
            label: "aggregate",
            legacy: None,
            phased: None,
            batch_rows: super::BATCH_ROWS,
        }
    }

    #[cfg(test)]
    pub(crate) fn with_batch_rows(mut self, batch_rows: usize) -> Self {
        self.batch_rows = batch_rows;
        self
    }

    /// Pull the first batch (surfacing every filter error — the filter is
    /// blocking), expand wildcards, and pick the path: two-phase streaming
    /// when the compiled statement lowers to a [`GroupProgram`], the
    /// legacy drain-then-partition pass otherwise.
    fn open(&mut self, cx: &mut ExecCx<'_, '_>) -> Result<(), QueryError> {
        let ctx = cx.ctx;
        let first = self.filter.next_batch(cx)?;
        self.proj = expand_wildcards(self.stmt, self.filter.items())?;
        self.columns = self.proj.iter().map(|(_, n)| n.clone()).collect();

        let prog = if ctx.mode == ExecMode::Compiled {
            // The same scope layout the filter evaluated in.
            let layout = items_layout(cx.bindings, self.filter.items());
            group_program(self.stmt, &layout, &self.proj)
        } else {
            None
        };
        match prog {
            Some(prog) => {
                self.label = "final-aggregate";
                let rows = self.run_two_phase(cx, &prog, first)?;
                self.phased = Some(Batches::new(rows, self.batch_rows));
            }
            None => {
                let groups = self.run_legacy(cx, first)?;
                self.legacy = Some(Batches::new(groups, self.batch_rows));
            }
        }
        Ok(())
    }

    /// Two-phase streaming aggregation: accumulate each filter batch into
    /// partial groups (exchanged when big enough), merge in partition
    /// order, then evaluate `having`/projection/`order by` per group
    /// (exchanged across groups when there are enough).
    fn run_two_phase(
        &mut self,
        cx: &mut ExecCx<'_, '_>,
        prog: &GroupProgram,
        first: Option<Vec<Level>>,
    ) -> Result<Vec<KeyedRow>, QueryError> {
        let ctx = cx.ctx;
        let n_leaves = prog.leaf_args.len();
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut groups: Vec<GroupData> = Vec::new();

        // Phase 1: streaming partial accumulation, batch by batch.
        let mut next = first;
        while let Some(batch) = next {
            cx.rows_in("partial-aggregate", batch.len());
            let outputs = if let Some(ex) = Exchange::plan(ctx, batch.len()) {
                let b = &batch;
                ex.run(ctx, |range| accumulate_range(b, range, prog))
            } else {
                vec![accumulate_range(&batch, 0..batch.len(), prog)]
            };
            for out in outputs {
                if !out.groups.is_empty() {
                    cx.batch_out("partial-aggregate", out.groups.len());
                }
                merge_partial(&batch, out, &mut index, &mut groups, n_leaves)?;
            }
            next = self.filter.next_batch(cx)?;
        }
        drop(index);
        // The ungrouped empty input still yields one row
        // (`select count(*) from empty` is 0): synthesize the group.
        if prog.keys.is_empty() && groups.is_empty() {
            groups.push(GroupData {
                repr: None,
                rows_n: 0,
                leaves: vec![LeafAcc::Vals(Vec::new()); n_leaves],
            });
        }

        // Phase 2: per-group evaluation in global first-seen order.
        if !groups.is_empty() {
            cx.rows_in("final-aggregate", groups.len());
        }
        // Representative bindings for the synthetic empty group: all-NULL
        // frames (the legacy path builds the same).
        let null_repr: Option<Level> =
            groups.iter().any(|g| g.repr.is_none()).then(|| null_level(self.filter.items()));
        let eval_one = |g: &GroupData| -> Result<Option<KeyedRow>, QueryError> {
            let repr = match &g.repr {
                Some(l) => l,
                None => null_repr.as_ref().expect("built above for reprless groups"),
            };
            let frames: Vec<&[Value]> = repr.iter().map(|f| f.row.as_slice()).collect();
            let mut env = GroupEnv { frames: &frames, rows_n: g.rows_n, accs: &g.leaves };
            if let Some(h) = &prog.having {
                if !compile::holds(h, &mut env)? {
                    return Ok(None);
                }
            }
            let mut out = Vec::with_capacity(prog.proj.len());
            for e in &prog.proj {
                out.push(compile::eval(e, &mut env)?);
            }
            let mut key = Vec::with_capacity(prog.order.len());
            for e in &prog.order {
                key.push(compile::eval(e, &mut env)?);
            }
            Ok(Some((key, out)))
        };
        let mut rows: Vec<KeyedRow> = Vec::new();
        if let Some(ex) = Exchange::plan(ctx, groups.len()) {
            let gs = &groups;
            let verdicts = ex.judge(ctx, |i| eval_one(&gs[i]));
            for v in verdicts {
                rows.extend(v.kept);
                if let Some(e) = v.err {
                    return Err(e);
                }
            }
        } else {
            for g in &groups {
                if let Some(r) = eval_one(g)? {
                    rows.push(r);
                }
            }
        }
        Ok(rows)
    }

    /// Drain the filter and partition the matching combinations into
    /// groups in first-seen order — the historical pass, kept verbatim as
    /// the interpreted-mode oracle and the fallback for statements the
    /// program builder refuses.
    fn run_legacy(
        &mut self,
        cx: &mut ExecCx<'_, '_>,
        first: Option<Vec<Level>>,
    ) -> Result<Vec<Vec<Level>>, QueryError> {
        let ctx = cx.ctx;
        let mut matching: Vec<Level> = Vec::new();
        let mut next = first;
        while let Some(batch) = next {
            cx.rows_in("aggregate", batch.len());
            matching.extend(batch);
            next = self.filter.next_batch(cx)?;
        }

        // Partition matching rows into groups.
        let mut group_rows: Vec<Vec<Level>> = Vec::new();
        if self.stmt.group_by.is_empty() {
            group_rows.push(matching);
        } else {
            let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
            for level in matching {
                cx.bindings.push_level(level);
                let mut key = Vec::with_capacity(self.stmt.group_by.len());
                let mut key_err = None;
                for g in &self.stmt.group_by {
                    match eval_expr(ctx, cx.bindings, None, g) {
                        Ok(v) => key.push(v),
                        Err(e) => {
                            key_err = Some(e);
                            break;
                        }
                    }
                }
                let level = cx.bindings.pop_level().expect("pushed above");
                if let Some(e) = key_err {
                    return Err(e);
                }
                let slot = *index.entry(key).or_insert_with(|| {
                    group_rows.push(Vec::new());
                    group_rows.len() - 1
                });
                group_rows[slot].push(level);
            }
        }
        Ok(group_rows)
    }
}

impl Executor for AggregateExec<'_> {
    type Batch = Vec<KeyedRow>;

    fn name(&self) -> &'static str {
        self.label
    }

    fn next_batch(&mut self, cx: &mut ExecCx<'_, '_>) -> Result<Option<Self::Batch>, QueryError> {
        if self.legacy.is_none() && self.phased.is_none() {
            self.open(cx)?;
        }
        if let Some(state) = &mut self.phased {
            let batch = state.next();
            if let Some(b) = &batch {
                cx.batch_out(self.label, b.len());
            }
            return Ok(batch);
        }
        let ctx = cx.ctx;
        // A group can be filtered out by `having`, so keep pulling group
        // batches until one yields at least one output row.
        while let Some(groups) = self.legacy.as_mut().expect("opened above").next() {
            let mut out_batch: Vec<KeyedRow> = Vec::new();
            for rows in groups {
                // Representative bindings for non-aggregate expressions:
                // the first row of the group, or all-NULL frames for the
                // empty ungrouped case (`select count(*) from empty`).
                let repr: Level =
                    rows.first().cloned().unwrap_or_else(|| null_level(self.filter.items()));
                cx.bindings.push_level(repr);
                let result = (|| -> Result<Option<KeyedRow>, QueryError> {
                    if let Some(h) = &self.stmt.having {
                        let v = eval_expr(ctx, cx.bindings, Some(&rows), h)?;
                        if crate::eval::truth(&v)? != Some(true) {
                            return Ok(None);
                        }
                    }
                    let mut out = Vec::with_capacity(self.proj.len());
                    for (e, _) in &self.proj {
                        out.push(eval_expr(ctx, cx.bindings, Some(&rows), e)?);
                    }
                    let mut key = Vec::with_capacity(self.stmt.order_by.len());
                    for (e, _) in &self.stmt.order_by {
                        key.push(eval_expr(ctx, cx.bindings, Some(&rows), e)?);
                    }
                    Ok(Some((key, out)))
                })();
                cx.bindings.pop_level();
                if let Some(pair) = result? {
                    out_batch.push(pair);
                }
            }
            if !out_batch.is_empty() {
                cx.batch_out(self.label, out_batch.len());
                return Ok(Some(out_batch));
            }
        }
        Ok(None)
    }
}

impl RowSource for AggregateExec<'_> {
    fn output_columns(&self) -> &[String] {
        &self.columns
    }

    fn take_origins(&mut self) -> Vec<Vec<(TableId, TupleHandle)>> {
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
    use std::sync::Arc;

    type Outcome = Result<Value, String>;

    fn outcome(r: Result<Value, QueryError>) -> Outcome {
        r.map_err(|e| e.to_string())
    }

    /// `having` and the projection of `select {src} from t having {src}`
    /// over a group holding exactly `level`, through the production
    /// partial phase, merge, and group environment. `None` when the
    /// statement does not lower two-phase.
    fn through_group_env(src: &str, layout: &Layout, level: &Level) -> Option<(Outcome, Outcome)> {
        let sql = format!("select {src} from t having {src}");
        let Statement::Dml(DmlOp::Select(stmt)) = parse_statement(&sql).expect("parse") else {
            panic!("not a select: {sql}")
        };
        let proj = [(parse_expr(src).expect("parse"), "x".to_string())];
        let prog = group_program(&stmt, layout, &proj)?;
        let batch = [level.clone()];
        let (mut index, mut groups) = (HashMap::new(), Vec::new());
        let partial = accumulate_range(&batch, 0..1, &prog);
        merge_partial(&batch, partial, &mut index, &mut groups, prog.leaf_args.len())
            .expect("no group keys, so no key error");
        let g = &groups[0];
        let frames: Vec<&[Value]> = level.iter().map(|f| f.row.as_slice()).collect();
        let mut env = GroupEnv { frames: &frames, rows_n: g.rows_n, accs: &g.leaves };
        let having = prog.having.as_ref().expect("statement has a having");
        // `having`'s leaves are numbered before the projection's, so the
        // two copies of `src` read disjoint accumulators.
        let having = outcome(compile::eval(having, &mut env));
        Some((having, outcome(compile::eval(&prog.proj[0], &mut env))))
    }

    /// One corpus, every environment. The scoped, row and group
    /// environments share one walk, so each expression must come out of
    /// all of them — and out of the AST interpreter — as the same value
    /// (bit-for-bit: NaN, -0.0) or the same error text.
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
            assert_eq!(parallel::is_rowlocal(&ce), rowlocal, "{src}");
            assert!(parallel::is_grouplocal(&ce), "{src}");
            for row in &rows {
                let level: Level =
                    vec![Frame { name: "t".into(), columns: Arc::clone(&cols), row: row.clone() }];
                let group = std::slice::from_ref(&level);
                let mut b = Bindings::new();
                b.push_level(level.clone());
                let oracle = outcome(eval_expr(ctx, &mut b, Some(group), &ast));
                errors += oracle.is_err() as usize;
                let scoped = outcome(eval_compiled(ctx, &mut b, Some(group), &ce));
                assert_eq!(scoped, oracle, "scoped: {src} on {row:?}");
                let in_row = outcome(compile::eval(&ce, &mut RowEnv(&[row.as_slice()])));
                match in_row {
                    // A worker refuses an aggregate leaf it reaches (one a
                    // short-circuit skips is never reached).
                    Err(refusal) if !rowlocal => assert!(
                        refusal.contains("non-row-local expression reached a pool worker"),
                        "row: {src} on {row:?}: {refusal}"
                    ),
                    in_row => assert_eq!(in_row, oracle, "row: {src} on {row:?}"),
                }
                let (having, proj) = through_group_env(src, &layout, &level).expect("lowers");
                assert_eq!(having, oracle, "group (having): {src} on {row:?}");
                assert_eq!(proj, oracle, "group (projection): {src} on {row:?}");
            }
        }
        assert!(errors >= 20, "the corpus lost its erroring cases ({errors} left)");
        // A nested aggregate is neither: it keeps the legacy path, where
        // the interpreter rejects the inner call.
        let nested = compile(&parse_expr("sum(count(*))").expect("parse"), &layout);
        assert!(!parallel::is_rowlocal(&nested) && !parallel::is_grouplocal(&nested));
        let level: Level =
            vec![Frame { name: "t".into(), columns: Arc::clone(&cols), row: rows[0].clone() }];
        assert!(through_group_env("sum(count(*))", &layout, &level).is_none());
    }
}
