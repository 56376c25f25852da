//! Compile-once expression lowering: the one evaluator of the query
//! layer.
//!
//! [`compile`] resolves every column reference *once* per statement
//! against a [`Layout`] — the shape of the name-resolution scopes — and
//! lowers the AST into a [`CompiledExpr`] whose column references are
//! `(level, from-item, column)` slots and whose constant subtrees are
//! folded. Every expression the system evaluates — a select's or a
//! rule's predicate, an `insert … values` constant, a planner probe value,
//! a row trigger's condition — runs through it.
//!
//! Compilation **never fails**; its errors stay lazy:
//!
//! * an unresolvable or ambiguous reference lowers to
//!   [`CompiledExpr::Unresolved`], carrying the `UnknownColumn` /
//!   `AmbiguousColumn` error that evaluation raises only when it reaches
//!   the leaf — an empty input, a short-circuit or an empty subquery hides
//!   it (the subquery-correlation probe in `eval` depends on this);
//! * constant folding only replaces a subtree when its evaluation
//!   *succeeds* — `1 / 0` stays unfolded so the error remains lazy and
//!   `false and 1/0 = 1` still short-circuits to `false`;
//! * aggregate calls lower to numbered [`CompiledExpr::Agg`] leaves; what
//!   a leaf evaluates to is the environment's business.
//!
//! # One walk, three environments
//!
//! Exactly one function — `eval` — gives a [`CompiledExpr`] its meaning
//! (Kleene short-circuit order, NULL handling, error text). It is generic
//! over an `Env`, which supplies only what differs between the places a
//! tree can run: `Scoped` (behind [`eval_compiled`]) has the [`QueryCtx`]
//! and the [`Bindings`] scope stack, and rejects aggregate calls; `RowEnv`
//! has the innermost frames as bare slices and nothing else, for the
//! borrowed-row pipeline, exchange partitions and memo probes (only trees
//! passing [`is_rowlocal`] may be handed to it); the group environment in
//! `exec::aggregate` wraps either of them — `RowEnv` over a group's
//! representative row when the program passes [`is_grouplocal`], `Scoped`
//! with that row pushed otherwise — and answers aggregate leaves from the
//! group's accumulators.
//!
//! Compiled forms are owned by the values that use them — a statement's
//! plan (`plan::SelectPlan`) for one execution, a rule's prepared condition
//! in the engine until the next DDL — never memoized by AST address.

use std::rc::Rc;
use std::sync::Arc;

use setrules_sql::ast::{AggFunc, BinaryOp, Expr, SelectStmt, UnaryOp};
use setrules_storage::{Database, TableId, Value};

use crate::bindings::Bindings;
use crate::ctx::{QueryCtx, SubqueryResult};
use crate::error::QueryError;
use crate::eval;

// ----------------------------------------------------------------------
// Layout: the compile-time shadow of a Bindings stack.
// ----------------------------------------------------------------------

/// One `from`-item binding as seen at compile time: its variable name and
/// column names (no row values).
#[derive(Debug, Clone)]
pub struct LayoutFrame {
    /// The table variable (alias, or the base table name).
    pub name: String,
    /// Column names, shared with the scan's frames.
    pub columns: Arc<Vec<String>>,
}

/// The compile-time shape of a [`Bindings`] stack: one level per nested
/// query, innermost last — the same resolution structure `Bindings` walks
/// per row, walked once at compile time instead.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    levels: Vec<Vec<LayoutFrame>>,
}

impl Layout {
    /// An empty layout (constant expressions only).
    pub fn new() -> Self {
        Layout::default()
    }

    /// Enter a query scope: push its frames (innermost last).
    pub fn push_level(&mut self, level: Vec<LayoutFrame>) {
        self.levels.push(level);
    }

    /// The one-frame layout a statement over stored table `table` (bound
    /// as `binding`) evaluates in, with the column names its frames share.
    pub(crate) fn of_table(
        db: &Database,
        table: TableId,
        binding: &str,
    ) -> (Arc<Vec<String>>, Layout) {
        let columns = Arc::new(db.schema(table).columns.iter().map(|c| c.name.clone()).collect());
        let frame = LayoutFrame { name: binding.to_string(), columns: Arc::clone(&columns) };
        (columns, Layout { levels: vec![vec![frame]] })
    }

    /// Resolve a (possibly qualified) column reference, innermost level
    /// first: an unqualified name must match exactly one frame of the
    /// first level that has it, a qualified one the column of the
    /// innermost frame bound to that variable. `Ok` carries
    /// `(level_up, frame, column)` with `level_up = 0` for the innermost
    /// level.
    fn resolve(
        &self,
        qualifier: Option<&str>,
        name: &str,
    ) -> Result<(usize, usize, usize), QueryError> {
        for (up, level) in self.levels.iter().rev().enumerate() {
            match qualifier {
                Some(q) => {
                    let mut matched_var = false;
                    for (fi, frame) in level.iter().enumerate() {
                        if frame.name == q {
                            matched_var = true;
                            if let Some(ci) = frame.columns.iter().position(|c| c == name) {
                                return Ok((up, fi, ci));
                            }
                        }
                    }
                    if matched_var {
                        // The variable exists at this level but lacks the
                        // column — that is an error, not a reason to
                        // search outer scopes.
                        return Err(QueryError::UnknownColumn(format!("{q}.{name}")));
                    }
                }
                None => {
                    let mut found = None;
                    for (fi, frame) in level.iter().enumerate() {
                        if let Some(ci) = frame.columns.iter().position(|c| c == name) {
                            if found.is_some() {
                                return Err(QueryError::AmbiguousColumn(name.to_string()));
                            }
                            found = Some((up, fi, ci));
                        }
                    }
                    if let Some(hit) = found {
                        return Ok(hit);
                    }
                }
            }
        }
        let full = match qualifier {
            Some(q) => format!("{q}.{name}"),
            None => name.to_string(),
        };
        Err(QueryError::UnknownColumn(full))
    }
}

impl Bindings {
    /// Snapshot the current scope shape for compilation.
    pub fn layout(&self) -> Layout {
        Layout {
            levels: self
                .levels()
                .iter()
                .map(|level| {
                    level
                        .iter()
                        .map(|f| LayoutFrame { name: f.name.clone(), columns: Arc::clone(&f.columns) })
                        .collect()
                })
                .collect(),
        }
    }
}

// ----------------------------------------------------------------------
// CompiledExpr
// ----------------------------------------------------------------------

/// An [`Expr`] lowered for slot-addressed evaluation.
#[derive(Debug, Clone)]
pub enum CompiledExpr {
    /// A literal or folded constant subtree.
    Const(Value),
    /// A resolved column reference: `level_up` scopes above the innermost,
    /// frame `frame` within that level, column `col` within the frame.
    Slot {
        /// Scopes above the innermost level (0 = innermost).
        level_up: usize,
        /// From-item index within the level.
        frame: usize,
        /// Column index within the frame.
        col: usize,
    },
    /// Unary operator over a compiled operand.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<CompiledExpr>,
    },
    /// Binary operator over compiled operands (logical operators keep
    /// their Kleene short-circuit behaviour).
    Binary {
        /// Left operand.
        left: Box<CompiledExpr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<CompiledExpr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// The tested operand.
        expr: Box<CompiledExpr>,
        /// `IS NOT NULL` when true.
        negated: bool,
    },
    /// `expr [NOT] IN (list…)`.
    InList {
        /// The needle.
        expr: Box<CompiledExpr>,
        /// The haystack expressions.
        list: Vec<CompiledExpr>,
        /// `NOT IN` when true.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// The tested operand.
        expr: Box<CompiledExpr>,
        /// Lower bound.
        low: Box<CompiledExpr>,
        /// Upper bound.
        high: Box<CompiledExpr>,
        /// `NOT BETWEEN` when true.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern [ESCAPE c]`.
    Like {
        /// The tested operand.
        expr: Box<CompiledExpr>,
        /// The pattern.
        pattern: Box<CompiledExpr>,
        /// The escape character expression, if given.
        escape: Option<Box<CompiledExpr>>,
        /// `NOT LIKE` when true.
        negated: bool,
    },
    /// `expr [NOT] IN (select …)` — the needle is compiled; the subquery
    /// executes through `run_select` (which compiles its own scope) with
    /// the per-statement uncorrelated-subquery memo intact.
    InSubquery {
        /// The needle.
        expr: Box<CompiledExpr>,
        /// The subquery, shared with the source AST: the statement memo
        /// identifies it by this shared allocation, which the planner
        /// (working on the AST) sees too.
        subquery: Arc<SelectStmt>,
        /// `NOT IN` when true.
        negated: bool,
    },
    /// `[NOT] EXISTS (select …)`.
    Exists {
        /// The subquery.
        subquery: Arc<SelectStmt>,
        /// `NOT EXISTS` when true.
        negated: bool,
    },
    /// A scalar subquery.
    ScalarSubquery(Arc<SelectStmt>),
    /// An aggregate call. Leaves are numbered in the order lowering
    /// reaches them; a grouped statement numbers `having`, then the
    /// projections, then the `order by` keys with one counter, so `leaf`
    /// indexes the per-group accumulators.
    Agg {
        /// This call's number.
        leaf: usize,
        /// The fold to run.
        func: AggFunc,
        /// `agg(distinct …)` when true.
        distinct: bool,
        /// The per-row argument (`None` is `count(*)`).
        arg: Option<Box<CompiledExpr>>,
    },
    /// A reference the layout cannot resolve: evaluation raises this
    /// `UnknownColumn` / `AmbiguousColumn` error when it reaches the leaf.
    /// Boxed, so the cold error does not widen every node of a tree.
    Unresolved(Box<QueryError>),
}

impl CompiledExpr {
    /// Visit the direct sub-expressions in evaluation order. Subquery
    /// bodies are not children (they compile in their own scope); an
    /// `in (select …)` needle and an aggregate's argument are.
    pub(crate) fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a CompiledExpr)) {
        match self {
            CompiledExpr::Const(_)
            | CompiledExpr::Slot { .. }
            | CompiledExpr::Exists { .. }
            | CompiledExpr::ScalarSubquery(_)
            | CompiledExpr::Unresolved(_) => {}
            CompiledExpr::Unary { expr, .. }
            | CompiledExpr::IsNull { expr, .. }
            | CompiledExpr::InSubquery { expr, .. } => f(expr),
            CompiledExpr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            CompiledExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            CompiledExpr::Between { expr, low, high, .. } => {
                f(expr);
                f(low);
                f(high);
            }
            CompiledExpr::Like { expr, pattern, escape, .. } => {
                f(expr);
                f(pattern);
                if let Some(e) = escape {
                    f(e);
                }
            }
            CompiledExpr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    f(a);
                }
            }
        }
    }

    /// Whether evaluation consults nothing beyond the row slots — no
    /// subquery, aggregate, or unresolved name anywhere in the tree.
    /// Predicate pushdown requires this.
    pub fn slots_only(&self) -> bool {
        if matches!(
            self,
            CompiledExpr::InSubquery { .. }
                | CompiledExpr::Exists { .. }
                | CompiledExpr::ScalarSubquery(_)
                | CompiledExpr::Agg { .. }
                | CompiledExpr::Unresolved(_)
        ) {
            return false;
        }
        let mut ok = true;
        self.for_each_child(&mut |c| ok = ok && c.slots_only());
        ok
    }

    /// Visit every resolved slot.
    pub fn for_each_slot(&self, f: &mut impl FnMut(usize, usize, usize)) {
        if let CompiledExpr::Slot { level_up, frame, col } = self {
            f(*level_up, *frame, *col);
        }
        self.for_each_child(&mut |c| c.for_each_slot(f));
    }
}

// ----------------------------------------------------------------------
// Compilation
// ----------------------------------------------------------------------

/// Lower `e` against `layout`. Infallible: a name that cannot be resolved
/// becomes an [`CompiledExpr::Unresolved`] leaf, so its error stays lazy.
pub fn compile(e: &Expr, layout: &Layout) -> CompiledExpr {
    lower(e, layout, &mut 0)
}

/// [`compile`] with the aggregate-leaf counter threaded through, so the
/// expressions of one grouped statement number their leaves jointly.
pub(crate) fn lower(e: &Expr, layout: &Layout, next_leaf: &mut usize) -> CompiledExpr {
    let mut sub = |e: &Expr| Box::new(lower(e, layout, next_leaf));
    match e {
        Expr::Literal(v) => CompiledExpr::Const(v.clone()),
        Expr::Column { qualifier, name } => match layout.resolve(qualifier.as_deref(), name) {
            Ok((level_up, frame, col)) => CompiledExpr::Slot { level_up, frame, col },
            Err(err) => CompiledExpr::Unresolved(Box::new(err)),
        },
        Expr::Unary { op, expr } => fold(CompiledExpr::Unary { op: *op, expr: sub(expr) }),
        Expr::Binary { left, op, right } => {
            fold(CompiledExpr::Binary { left: sub(left), op: *op, right: sub(right) })
        }
        Expr::IsNull { expr, negated } => {
            fold(CompiledExpr::IsNull { expr: sub(expr), negated: *negated })
        }
        Expr::InList { expr, list, negated } => fold(CompiledExpr::InList {
            expr: sub(expr),
            list: list.iter().map(|i| lower(i, layout, next_leaf)).collect(),
            negated: *negated,
        }),
        Expr::Between { expr, low, high, negated } => fold(CompiledExpr::Between {
            expr: sub(expr),
            low: sub(low),
            high: sub(high),
            negated: *negated,
        }),
        Expr::Like { expr, pattern, escape, negated } => fold(CompiledExpr::Like {
            expr: sub(expr),
            pattern: sub(pattern),
            escape: escape.as_deref().map(sub),
            negated: *negated,
        }),
        Expr::InSubquery { expr, subquery, negated } => CompiledExpr::InSubquery {
            expr: sub(expr),
            subquery: subquery.clone(),
            negated: *negated,
        },
        Expr::Exists { subquery, negated } => {
            CompiledExpr::Exists { subquery: subquery.clone(), negated: *negated }
        }
        Expr::ScalarSubquery(s) => CompiledExpr::ScalarSubquery(s.clone()),
        Expr::Aggregate { func, arg, distinct } => {
            let leaf = *next_leaf;
            *next_leaf += 1;
            CompiledExpr::Agg {
                leaf,
                func: *func,
                distinct: *distinct,
                arg: arg.as_deref().map(|a| Box::new(lower(a, layout, next_leaf))),
            }
        }
    }
}

/// Constant-fold a freshly built structural node: when every child is
/// `Const` and the node evaluates *successfully*, replace it with the
/// result. Failed evaluation (e.g. `1 / 0`) keeps the node so the error
/// stays lazy.
fn fold(node: CompiledExpr) -> CompiledExpr {
    let mut all_const = true;
    node.for_each_child(&mut |c| all_const = all_const && matches!(c, CompiledExpr::Const(_)));
    if !all_const {
        return node;
    }
    // Constant children never reach an environment hook.
    match eval(&node, &mut RowEnv(&[])) {
        Ok(v) => CompiledExpr::Const(v),
        Err(_) => node,
    }
}

// ----------------------------------------------------------------------
// Evaluation
// ----------------------------------------------------------------------

/// What [`eval`] asks of the place a tree runs in. The defaults are the
/// row environment's answer: it has no scope stack, subquery memo or
/// group, so reaching any of these hooks there means a tree that is not
/// row-local was handed to it.
pub(crate) trait Env {
    /// The value of slot `(level_up, frame, col)`.
    fn slot(&mut self, level_up: usize, frame: usize, col: usize) -> Result<Value, QueryError>;

    /// The value of aggregate call `leaf`.
    fn agg(
        &mut self,
        _leaf: usize,
        _func: AggFunc,
        _distinct: bool,
        _arg: Option<&CompiledExpr>,
    ) -> Result<Value, QueryError> {
        Err(not_rowlocal())
    }

    /// The result of a subquery in the current scope.
    fn subquery(&mut self, _stmt: &Arc<SelectStmt>) -> Result<Rc<SubqueryResult>, QueryError> {
        Err(not_rowlocal())
    }
}

fn not_rowlocal() -> QueryError {
    QueryError::Type("internal: non-row-local expression reached a row environment".into())
}

/// The one evaluator of compiled expressions: every environment shares
/// this walk, so Kleene short-circuiting, NULL propagation and error
/// selection cannot differ between the scoped path, the row environment
/// (exchange partitions included), memo probes and per-group evaluation.
pub(crate) fn eval<E: Env>(e: &CompiledExpr, env: &mut E) -> Result<Value, QueryError> {
    match e {
        CompiledExpr::Const(v) => Ok(v.clone()),
        CompiledExpr::Slot { level_up, frame, col } => env.slot(*level_up, *frame, *col),
        CompiledExpr::Unary { op, expr } => eval::apply_unary(*op, &eval(expr, env)?),
        CompiledExpr::Binary { left, op, right } => {
            if matches!(op, BinaryOp::And | BinaryOp::Or) {
                let l = eval::truth(&eval(left, env)?)?;
                match (op, l) {
                    (BinaryOp::And, Some(false)) => return Ok(Value::Bool(false)),
                    (BinaryOp::Or, Some(true)) => return Ok(Value::Bool(true)),
                    _ => {}
                }
                let r = eval::truth(&eval(right, env)?)?;
                let out = match op {
                    BinaryOp::And => eval::kleene_and(l, r),
                    _ => eval::kleene_or(l, r),
                };
                return Ok(out.map_or(Value::Null, Value::Bool));
            }
            let l = eval(left, env)?;
            let r = eval(right, env)?;
            eval::apply_binary(&l, *op, &r)
        }
        CompiledExpr::IsNull { expr, negated } => {
            Ok(Value::Bool(eval(expr, env)?.is_null() != *negated))
        }
        CompiledExpr::InList { expr, list, negated } => {
            let needle = eval(expr, env)?;
            let mut vals = Vec::with_capacity(list.len());
            for item in list {
                vals.push(eval(item, env)?);
            }
            eval::in_semantics(&needle, vals.iter(), *negated)
        }
        CompiledExpr::Between { expr, low, high, negated } => {
            let v = eval(expr, env)?;
            let lo = eval(low, env)?;
            let hi = eval(high, env)?;
            eval::between_semantics(&v, &lo, &hi, *negated)
        }
        CompiledExpr::Like { expr, pattern, escape, negated } => {
            let v = eval(expr, env)?;
            let p = eval(pattern, env)?;
            let esc = match escape {
                Some(ex) => Some(eval(ex, env)?),
                None => None,
            };
            eval::like_semantics(&v, &p, esc.as_ref(), *negated)
        }
        CompiledExpr::InSubquery { expr, subquery, negated } => {
            let needle = eval(expr, env)?;
            env.subquery(subquery)?.contains(&needle, *negated)
        }
        CompiledExpr::Exists { subquery, negated } => {
            Ok(Value::Bool(env.subquery(subquery)?.rel.is_empty() == *negated))
        }
        CompiledExpr::ScalarSubquery(subquery) => eval::scalar_of(&env.subquery(subquery)?.rel),
        CompiledExpr::Agg { leaf, func, distinct, arg } => {
            env.agg(*leaf, *func, *distinct, arg.as_deref())
        }
        CompiledExpr::Unresolved(err) => Err(QueryError::clone(err)),
    }
}

/// [`eval`] under SQL `where` semantics: a row qualifies only when the
/// result is *true*.
pub(crate) fn holds<E: Env>(e: &CompiledExpr, env: &mut E) -> Result<bool, QueryError> {
    Ok(eval::truth(&eval(e, env)?)? == Some(true))
}

/// The row environment: the innermost scope's frames as bare slices
/// (`frames[f][c]` is slot `(0, f, c)`) and nothing else. It is `Sync`
/// data only, so an exchange partition may run it on its own thread.
pub(crate) struct RowEnv<'a>(pub(crate) &'a [&'a [Value]]);

/// Whether `e` may be evaluated in a [`RowEnv`] — with nothing but the
/// current row(s): every slot addresses the innermost scope and no node
/// needs a hook the row environment lacks (no correlated or outer
/// references, no subqueries, no aggregates, no unresolved name).
/// Anything else runs in [`Scoped`] with the row pushed onto the scope
/// stack, and never crosses threads.
pub(crate) fn is_rowlocal(e: &CompiledExpr) -> bool {
    local(e, false)
}

/// Whether the final aggregation phase may evaluate `e` per group over a
/// [`RowEnv`]: row-local except for aggregate calls, which the group
/// environment answers from its accumulators (their arguments belong to
/// the partial phase).
pub(crate) fn is_grouplocal(e: &CompiledExpr) -> bool {
    local(e, true)
}

fn local(e: &CompiledExpr, aggs: bool) -> bool {
    match e {
        CompiledExpr::Slot { level_up, .. } => *level_up == 0,
        CompiledExpr::Agg { .. } => aggs,
        CompiledExpr::InSubquery { .. }
        | CompiledExpr::Exists { .. }
        | CompiledExpr::ScalarSubquery(_)
        | CompiledExpr::Unresolved(_) => false,
        _ => {
            let mut ok = true;
            e.for_each_child(&mut |c| ok = ok && local(c, aggs));
            ok
        }
    }
}

impl Env for RowEnv<'_> {
    fn slot(&mut self, level_up: usize, frame: usize, col: usize) -> Result<Value, QueryError> {
        if level_up != 0 {
            return Err(not_rowlocal());
        }
        self.0.get(frame).and_then(|f| f.get(col)).cloned().ok_or_else(|| {
            QueryError::Type(format!(
                "internal: row-local slot ({level_up}, {frame}, {col}) out of range for {} frames",
                self.0.len()
            ))
        })
    }
}

/// The serial environment: the full scope stack and the context's
/// subquery memo. An aggregate call reached here has no group in scope
/// (`where sum(x) > 0`, a nested aggregate argument) and is an error.
pub(crate) struct Scoped<'a, 'b> {
    pub(crate) ctx: QueryCtx<'a>,
    pub(crate) bindings: &'b mut Bindings,
}

impl Env for Scoped<'_, '_> {
    fn slot(&mut self, level_up: usize, frame: usize, col: usize) -> Result<Value, QueryError> {
        self.bindings.slot(level_up, frame, col)
    }

    fn agg(
        &mut self,
        _leaf: usize,
        func: AggFunc,
        _distinct: bool,
        _arg: Option<&CompiledExpr>,
    ) -> Result<Value, QueryError> {
        Err(eval::aggregate_outside_group(func))
    }

    fn subquery(&mut self, stmt: &Arc<SelectStmt>) -> Result<Rc<SubqueryResult>, QueryError> {
        eval::eval_subquery(self.ctx, self.bindings, stmt)
    }
}

/// Evaluate a compiled expression in the serial environment. The
/// innermost level of `bindings` must have the shape of the [`Layout`]
/// the expression was compiled against.
pub fn eval_compiled(
    ctx: QueryCtx<'_>,
    bindings: &mut Bindings,
    e: &CompiledExpr,
) -> Result<Value, QueryError> {
    eval(e, &mut Scoped { ctx, bindings })
}

/// The value of an expression evaluated in no scope (an `insert … values`
/// item, a planner probe value), compiled against the empty layout. A
/// tree that folds completely is moved out of its `Const` leaf; anything
/// else (a failing constant, a subquery, an unresolved name) evaluates in
/// an empty scope and raises its error there.
pub(crate) fn eval_const(ctx: QueryCtx<'_>, e: &Expr) -> Result<Value, QueryError> {
    match compile(e, &Layout::new()) {
        CompiledExpr::Const(v) => Ok(v),
        tree => eval_compiled(ctx, &mut Bindings::new(), &tree),
    }
}

/// Evaluate a compiled predicate; a row qualifies only when the result is
/// *true* (SQL `where` semantics).
pub fn eval_compiled_predicate(
    ctx: QueryCtx<'_>,
    bindings: &mut Bindings,
    e: &CompiledExpr,
) -> Result<bool, QueryError> {
    holds(e, &mut Scoped { ctx, bindings })
}

#[cfg(test)]
mod tests {
    use super::*;
    use setrules_sql::parse_expr;
    use setrules_storage::Database;

    fn layout(frames: &[(&str, &[&str])]) -> Layout {
        let mut l = Layout::new();
        l.push_level(
            frames
                .iter()
                .map(|(n, cols)| LayoutFrame {
                    name: n.to_string(),
                    columns: Arc::new(cols.iter().map(|c| c.to_string()).collect()),
                })
                .collect(),
        );
        l
    }

    fn compile_str(src: &str, l: &Layout) -> CompiledExpr {
        compile(&parse_expr(src).unwrap(), l)
    }

    #[test]
    fn columns_lower_to_slots() {
        let l = layout(&[("emp", &["name", "salary"]), ("dept", &["dept_no"])]);
        match compile_str("salary", &l) {
            CompiledExpr::Slot { level_up: 0, frame: 0, col: 1 } => {}
            other => panic!("{other:?}"),
        }
        match compile_str("dept.dept_no", &l) {
            CompiledExpr::Slot { level_up: 0, frame: 1, col: 0 } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ambiguous_and_unknown_compile_to_unresolved() {
        let l = layout(&[("e1", &["dept_no"]), ("e2", &["dept_no"])]);
        let unresolved = |src: &str| match compile_str(src, &l) {
            CompiledExpr::Unresolved(err) => *err,
            other => panic!("{src}: {other:?}"),
        };
        assert_eq!(unresolved("dept_no"), QueryError::AmbiguousColumn("dept_no".into()));
        assert_eq!(unresolved("bogus"), QueryError::UnknownColumn("bogus".into()));
        assert_eq!(unresolved("ghost.dept_no"), QueryError::UnknownColumn("ghost.dept_no".into()));
        // A qualified match with a missing column stops resolution: an
        // outer `e1.bogus` is never consulted.
        let mut outer = layout(&[("e1", &["bogus"])]);
        outer.push_level(l.levels[0].clone());
        match compile_str("e1.bogus", &outer) {
            CompiledExpr::Unresolved(err) => {
                assert_eq!(*err, QueryError::UnknownColumn("e1.bogus".into()))
            }
            other => panic!("{other:?}"),
        }
        // The error is raised only when evaluation reaches the leaf.
        let db = Database::new();
        let ctx = QueryCtx::plain(&db);
        let mut scope = Bindings::new();
        let skipped = compile_str("false and bogus = 1", &l);
        assert_eq!(eval_compiled(ctx, &mut scope, &skipped), Ok(Value::Bool(false)));
        let reached = compile_str("true and bogus = 1", &l);
        assert_eq!(
            eval_compiled(ctx, &mut scope, &reached),
            Err(QueryError::UnknownColumn("bogus".into()))
        );
    }

    #[test]
    fn outer_scope_references_resolve_upward() {
        let mut l = layout(&[("e1", &["dept_no"])]);
        l.push_level(vec![LayoutFrame {
            name: "e2".into(),
            columns: Arc::new(vec!["dept_no".into()]),
        }]);
        match compile(&parse_expr("e1.dept_no").unwrap(), &l) {
            CompiledExpr::Slot { level_up: 1, frame: 0, col: 0 } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn subqueries_are_not_rowlocal() {
        let l = layout(&[("t", &["a", "b", "name"])]);
        assert!(!is_rowlocal(&compile_str("a in (select a from t)", &l)));
        assert!(!is_rowlocal(&compile_str("count(*) > 0", &l)));
    }

    #[test]
    fn constants_fold_once() {
        let l = Layout::new();
        match compile_str("1 + 2 * 3", &l) {
            CompiledExpr::Const(Value::Int(7)) => {}
            other => panic!("{other:?}"),
        }
        match compile_str("2 in (1, 2)", &l) {
            CompiledExpr::Const(Value::Bool(true)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn failing_constants_stay_lazy() {
        let l = Layout::new();
        // 1/0 must not fold (the error must stay lazy)…
        assert!(matches!(compile_str("1 / 0", &l), CompiledExpr::Binary { .. }));
        // …so short-circuiting still protects it at evaluation time.
        let db = Database::new();
        let ctx = QueryCtx::plain(&db);
        let c = compile_str("false and 1 / 0 = 1", &l);
        assert_eq!(eval_compiled(ctx, &mut Bindings::new(), &c).unwrap(), Value::Bool(false));
        let c = compile_str("1 / 0 = 1", &l);
        assert_eq!(eval_compiled(ctx, &mut Bindings::new(), &c), Err(QueryError::DivisionByZero));
    }
}
