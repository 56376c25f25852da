//! The aggregation operator (grouped pipeline).
//!
//! Every grouped statement lowers to one [`GroupProgram`] and runs in two
//! phases:
//!
//! * **Partial.** The filter's batches are accumulated as they stream —
//!   per group: the group key, the row count, and the collected non-NULL
//!   argument values of every aggregate call — so group-by never
//!   materializes the full input. Each row is folded into its group in
//!   serial order: over the row's own frames when every key and
//!   aggregate argument is row-local, otherwise (outer references,
//!   subqueries, unresolvable names) with the row pushed onto the scope
//!   stack. A batch holds at most `BATCH_ROWS` rows, below the exchange's
//!   size gate, so this phase never exchanges.
//! * **Final.** `having`, the projection list and the `order by` keys are
//!   evaluated once per group over its representative row, folding each
//!   aggregate's collected value vector through the [`fold_aggregate`]
//!   kernel. When those trees are row-local apart from their aggregate
//!   calls this phase exchanges across groups; otherwise it runs serially
//!   with the representative row pushed onto the scope stack, so outer
//!   references, subqueries and interpreter fallbacks evaluate per group.
//!
//! Because every row is folded in serial encounter order, fold order —
//! and therefore float rounding, overflow sites, dedup order for
//! `distinct`, and error selection — is exactly the serial one. Errors surface as in a per-group walk of the statement: the filter is
//! blocking (all its errors surface on the first pull), a failed wildcard
//! expansion right after that first pull, group-key errors surface in
//! combination order, and aggregate-argument errors are *recorded* per
//! (group, leaf) during the partial phase but raised only when the final
//! phase actually reaches that aggregate node — so Kleene short-circuits
//! skip them exactly like a per-group walk of the statement.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use setrules_sql::ast::{AggFunc, Expr, SelectStmt};
use setrules_storage::Value;

use crate::bindings::Level;
use crate::compile::{self, CompiledExpr, Env, Layout, RowEnv, Scoped};
use crate::ctx::SubqueryResult;
use crate::error::QueryError;
use crate::eval::fold_aggregate;
use crate::parallel::{is_grouplocal, is_rowlocal};

use super::exchange::Exchange;
use super::filter::FilterExec;
use super::scan::FromItem;
use super::{Batches, ExecCx, Executor, KeyedRow, Origin, RowSource};

/// The whole grouped statement, lowered for two-phase evaluation: the
/// group keys and the group-level expression trees, whose aggregate
/// leaves are numbered jointly in structural reach order (`having`, then
/// projections, then `order by`; a nested call after the one containing
/// it).
pub(crate) struct GroupProgram {
    /// Output column names.
    pub(crate) columns: Vec<String>,
    keys: Vec<CompiledExpr>,
    /// The per-row argument of leaf `i` (`None` is `count(*)`): what the
    /// partial phase accumulates per row.
    leaf_args: Vec<Option<CompiledExpr>>,
    having: Option<CompiledExpr>,
    proj: Vec<CompiledExpr>,
    order: Vec<CompiledExpr>,
    /// Every key and leaf argument is row-local: the partial phase
    /// evaluates each row over its own frames, without the scope stack.
    pub(crate) rows_local: bool,
    /// `having`, projections and `order by` keys are row-local apart from
    /// their aggregate calls: the final phase may run on pool workers.
    pub(crate) groups_exchangeable: bool,
}

/// Append the argument of every aggregate leaf under `e`, in leaf order.
fn collect_leaf_args(e: &CompiledExpr, out: &mut Vec<Option<CompiledExpr>>) {
    if let CompiledExpr::Agg { leaf, arg, .. } = e {
        debug_assert_eq!(*leaf, out.len(), "leaves are numbered in reach order");
        out.push(arg.as_deref().cloned());
    }
    e.for_each_child(&mut |c| collect_leaf_args(c, out));
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
    let mut leaf_args = Vec::new();
    for e in having.iter().chain(&proj_exprs).chain(&order) {
        collect_leaf_args(e, &mut leaf_args);
    }
    let rows_local = keys.iter().all(is_rowlocal) && leaf_args.iter().flatten().all(is_rowlocal);
    let groups_exchangeable = having.iter().chain(&proj_exprs).chain(&order).all(is_grouplocal);
    let columns = proj.iter().map(|(_, n)| n.clone()).collect();
    GroupProgram {
        columns,
        keys,
        leaf_args,
        having,
        proj: proj_exprs,
        order,
        rows_local,
        groups_exchangeable,
    }
}

/// Per-(group, leaf) partial state: the collected non-NULL argument
/// values in encounter order, or the first argument error (sticky — the
/// serial walk would have raised there and never looked further).
#[derive(Clone)]
enum LeafAcc {
    Vals(Vec<Value>),
    Err(QueryError),
}

/// One group after the partial phase: representative row (first row of
/// the group in serial order; `None` only for the synthetic empty
/// ungrouped group), total row count, and per-leaf state.
struct GroupData {
    repr: Option<Level>,
    rows_n: u64,
    leaves: Vec<LeafAcc>,
}

impl GroupData {
    /// The representative row, `null` standing in for the synthetic group.
    fn repr<'a>(&'a self, null: Option<&'a Level>) -> &'a Level {
        self.repr.as_ref().or(null).expect("null level built for reprless groups")
    }
}

/// Evaluate `level`'s group key in `env`, then fold its leaf arguments
/// into that group (a new one, first-seen order, when the key is new);
/// `Err` is a group-key error.
fn add_row<E: Env>(
    index: &mut HashMap<Vec<Value>, usize>,
    groups: &mut Vec<GroupData>,
    prog: &GroupProgram,
    level: &Level,
    env: &mut E,
) -> Result<(), QueryError> {
    let mut key = Vec::with_capacity(prog.keys.len());
    for k in &prog.keys {
        key.push(compile::eval(k, env)?);
    }
    let slot = match index.entry(key) {
        Entry::Occupied(o) => *o.get(),
        Entry::Vacant(v) => {
            groups.push(GroupData {
                repr: Some(level.clone()),
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
        match compile::eval(arg, env) {
            Ok(v) => {
                if !v.is_null() {
                    vals.push(v);
                }
            }
            Err(e) => *acc = LeafAcc::Err(e),
        }
    }
    Ok(())
}

/// Phase 1: fold one batch into the groups, row by row in serial order,
/// stopping at the first group-key error. With no `scope` each row is
/// evaluated over its own frames (row-exchangeable programs only); with
/// one, each row is pushed onto the scope stack and evaluated there.
fn accumulate_batch(
    batch: &[Level],
    prog: &GroupProgram,
    mut scope: Option<Scoped<'_, '_>>,
    index: &mut HashMap<Vec<Value>, usize>,
    groups: &mut Vec<GroupData>,
) -> Result<(), QueryError> {
    for level in batch {
        match &mut scope {
            None => {
                let frames: Vec<&[Value]> = level.iter().map(|f| f.row.as_slice()).collect();
                add_row(index, groups, prog, level, &mut RowEnv(&frames))?;
            }
            Some(scoped) => {
                scoped.bindings.push_level(level.clone());
                let added = add_row(index, groups, prog, level, scoped);
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
/// aggregate leaf `i` raises that leaf's recorded error or folds its
/// collected values — so a short-circuited aggregate's error is skipped
/// exactly like a per-group walk.
struct GroupEnv<'a, E> {
    inner: E,
    rows_n: u64,
    accs: &'a [LeafAcc],
}

impl<E: Env> Env for GroupEnv<'_, E> {
    fn slot(&mut self, level_up: usize, frame: usize, col: usize) -> Result<Value, QueryError> {
        self.inner.slot(level_up, frame, col)
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

    fn subquery(&mut self, stmt: &Arc<SelectStmt>) -> Result<Rc<SubqueryResult>, QueryError> {
        self.inner.subquery(stmt)
    }

    fn interp(&mut self, src: &Expr) -> Result<Value, QueryError> {
        self.inner.interp(src)
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

/// Representative bindings for the empty ungrouped group (`select
/// count(*) from empty`): all-NULL frames.
fn null_level(items: &[FromItem]) -> Level {
    items.iter().map(|it| it.frame(vec![Value::Null; it.columns.len()])).collect()
}

/// The grouped pipeline top: one output row per group that passes
/// `having`. Implements [`RowSource`].
pub(crate) struct AggregateExec<'q> {
    filter: FilterExec<'q>,
    /// The planned program; taken at open (an expansion error surfaces
    /// there, after the filter's).
    planned: Option<Result<GroupProgram, QueryError>>,
    columns: Vec<String>,
    state: Option<Batches<KeyedRow>>,
    batch_rows: usize,
}

impl<'q> AggregateExec<'q> {
    pub(crate) fn new(filter: FilterExec<'q>, prog: Result<GroupProgram, QueryError>) -> Self {
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
    fn open(&mut self, cx: &mut ExecCx<'_, '_>) -> Result<Vec<KeyedRow>, QueryError> {
        let first = self.filter.next_batch(cx)?;
        let mut prog = self.planned.take().expect("opened once")?;
        self.columns = std::mem::take(&mut prog.columns);
        self.run_two_phase(cx, &prog, first)
    }

    /// Two-phase streaming aggregation: fold each filter batch into the
    /// groups, then evaluate `having`/projection/`order by` per group
    /// (exchanged across groups when there are enough and the program is
    /// group-exchangeable). The partial phase's operator stats count the
    /// groups each batch created.
    fn run_two_phase(
        &mut self,
        cx: &mut ExecCx<'_, '_>,
        prog: &GroupProgram,
        first: Option<Vec<Level>>,
    ) -> Result<Vec<KeyedRow>, QueryError> {
        let ctx = cx.ctx;
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut groups: Vec<GroupData> = Vec::new();

        // Phase 1: streaming partial accumulation, batch by batch.
        let mut next = first;
        while let Some(batch) = next {
            cx.rows_in("partial-aggregate", batch.len());
            let before = groups.len();
            let scoped = Scoped { ctx, bindings: &mut *cx.bindings };
            let scope = (!prog.rows_local).then_some(scoped);
            accumulate_batch(&batch, prog, scope, &mut index, &mut groups)?;
            if groups.len() > before {
                cx.batch_out("partial-aggregate", groups.len() - before);
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
                leaves: vec![LeafAcc::Vals(Vec::new()); prog.leaf_args.len()],
            });
        }

        // Phase 2: per-group evaluation in global first-seen order.
        if !groups.is_empty() {
            cx.rows_in("final-aggregate", groups.len());
        }
        // Representative bindings for the synthetic empty group.
        let null_repr: Option<Level> =
            groups.iter().any(|g| g.repr.is_none()).then(|| null_level(self.filter.items()));
        let null_repr = null_repr.as_ref();
        let mut rows: Vec<KeyedRow> = Vec::new();
        let exchange = Exchange::plan(ctx, groups.len());
        if prog.groups_exchangeable {
            let eval_one = |g: &GroupData| {
                let frames: Vec<&[Value]> =
                    g.repr(null_repr).iter().map(|f| f.row.as_slice()).collect();
                let inner = RowEnv(&frames);
                finish_group(prog, &mut GroupEnv { inner, rows_n: g.rows_n, accs: &g.leaves })
            };
            if let Some(ex) = exchange {
                let gs = &groups;
                for v in ex.judge(ctx, |i| eval_one(&gs[i])) {
                    rows.extend(v.kept);
                    if let Some(e) = v.err {
                        return Err(e);
                    }
                }
            } else {
                for g in &groups {
                    rows.extend(eval_one(g)?);
                }
            }
        } else {
            if exchange.is_some() {
                Exchange::serial_fallback(ctx);
            }
            for g in &groups {
                cx.bindings.push_level(g.repr(null_repr).clone());
                let inner = Scoped { ctx, bindings: &mut *cx.bindings };
                let row =
                    finish_group(prog, &mut GroupEnv { inner, rows_n: g.rows_n, accs: &g.leaves });
                cx.bindings.pop_level();
                rows.extend(row?);
            }
        }
        Ok(rows)
    }
}

impl Executor for AggregateExec<'_> {
    type Batch = Vec<KeyedRow>;

    fn name(&self) -> &'static str {
        "final-aggregate"
    }

    fn next_batch(&mut self, cx: &mut ExecCx<'_, '_>) -> Result<Option<Self::Batch>, QueryError> {
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

impl RowSource for AggregateExec<'_> {
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
    use crate::eval::eval_expr;
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
        let batch = [level.clone()];
        let (mut index, mut groups) = (HashMap::new(), Vec::new());
        let scope = (!prog.rows_local).then_some(Scoped { ctx, bindings: &mut bindings });
        accumulate_batch(&batch, &prog, scope, &mut index, &mut groups)
            .expect("no group keys, so no key error");
        let g = &groups[0];
        let having = prog.having.as_ref().expect("statement has a having");
        // `having`'s leaves are numbered before the projection's, so the
        // two copies of `src` read disjoint accumulators.
        fn both<E: Env>(h: &CompiledExpr, p: &CompiledExpr, env: &mut E) -> (Outcome, Outcome) {
            (outcome(compile::eval(h, env)), outcome(compile::eval(p, env)))
        }
        if prog.groups_exchangeable {
            let frames: Vec<&[Value]> = level.iter().map(|f| f.row.as_slice()).collect();
            let inner = RowEnv(&frames);
            both(having, &prog.proj[0], &mut GroupEnv { inner, rows_n: g.rows_n, accs: &g.leaves })
        } else {
            bindings.push_level(level.clone());
            let inner = Scoped { ctx, bindings: &mut bindings };
            both(having, &prog.proj[0], &mut GroupEnv { inner, rows_n: g.rows_n, accs: &g.leaves })
        }
    }

    /// One corpus, every environment. The scoped, row and group
    /// environments share one walk, so each expression must come out of
    /// every one that admits it — and out of the AST interpreter over a
    /// one-row group — as the same value (bit-for-bit: NaN, -0.0) or the
    /// same error text.
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
                let group = std::slice::from_ref(&level);
                let mut b = Bindings::new();
                b.push_level(level.clone());
                let oracle = outcome(eval_expr(ctx, &mut b, Some(group), &ast));
                errors += oracle.is_err() as usize;
                let scoped = outcome(eval_compiled(ctx, &mut b, &ce));
                let in_row = outcome(compile::eval(&ce, &mut RowEnv(&[row.as_slice()])));
                match (scoped, in_row) {
                    // Outside a group an aggregate leaf that is reached
                    // is an error (one a short-circuit skips is not):
                    // the scoped walk names the call, a worker refuses it.
                    (Err(scoped), Err(refusal)) if !rowlocal => {
                        assert!(scoped.contains("not allowed in this context"), "{src}: {scoped}");
                        assert!(
                            refusal.contains("non-row-local expression reached a pool worker"),
                            "row: {src} on {row:?}: {refusal}"
                        );
                    }
                    (scoped, in_row) => {
                        assert_eq!(scoped, oracle, "scoped: {src} on {row:?}");
                        assert_eq!(in_row, oracle, "row: {src} on {row:?}");
                    }
                }
                let (having, proj) = through_group_env(src, &layout, &level);
                assert_eq!(having, oracle, "group (having): {src} on {row:?}");
                assert_eq!(proj, oracle, "group (projection): {src} on {row:?}");
            }
        }
        assert!(errors >= 20, "the corpus lost its erroring cases ({errors} left)");
        // A nested aggregate's argument is not row-local, so its partial
        // phase runs scoped, where the inner call is rejected exactly as
        // the interpreter rejects it.
        let src = "sum(count(*))";
        let nested = compile(&parse_expr(src).expect("parse"), &layout);
        assert!(!is_rowlocal(&nested) && is_grouplocal(&nested));
        let level: Level =
            vec![Frame { name: "t".into(), columns: Arc::clone(&cols), row: rows[0].clone() }];
        let mut b = Bindings::new();
        b.push_level(level.clone());
        let group = std::slice::from_ref(&level);
        let oracle = outcome(eval_expr(ctx, &mut b, Some(group), &parse_expr(src).expect("parse")));
        assert!(oracle.as_ref().is_err_and(|e| e.contains("count() not allowed")), "{oracle:?}");
        assert_eq!(through_group_env(src, &layout, &level), (oracle.clone(), oracle));
    }
}
