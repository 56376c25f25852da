//! The scalar kernels of SQL three-valued logic, shared by the compiled
//! evaluator ([`crate::compile`]) and everything else that needs one
//! operator's meaning: arithmetic and comparison ([`apply_binary`],
//! [`apply_unary`], [`compare`]), `like` / `in` / `between`, [`truth`] and
//! the Kleene connectives, and the subquery kernels ([`scalar_of`],
//! [`memoized_subquery`], [`eval_subquery`]).
//!
//! `NULL` propagates through arithmetic and comparisons; `and`/`or` use
//! Kleene logic; `where` keeps a row only when the predicate is *true*
//! (not unknown).

use std::cmp::Ordering;
use std::rc::Rc;
use std::sync::Arc;

use setrules_sql::ast::{AggFunc, BinaryOp, SelectStmt, UnaryOp};
use setrules_storage::Value;

use crate::bindings::Bindings;
use crate::ctx::{QueryCtx, SubqueryResult};
use crate::error::QueryError;
use crate::like::{like_match_tokens, like_tokens};
use crate::relation::Relation;
use crate::select::run_select;

/// The error for an aggregate call evaluated where no group is in scope
/// (`where sum(x) > 0`, a nested aggregate argument).
pub(crate) fn aggregate_outside_group(func: AggFunc) -> QueryError {
    QueryError::Type(format!("aggregate {}() not allowed in this context", func.name()))
}

/// The value of a scalar subquery that evaluated to `rel` (shared kernel).
pub(crate) fn scalar_of(rel: &Relation) -> Result<Value, QueryError> {
    if rel.columns.len() != 1 {
        return Err(QueryError::SubqueryColumns(rel.columns.len()));
    }
    match rel.rows.len() {
        0 => Ok(Value::Null),
        1 => Ok(rel.rows[0][0].clone()),
        n => Err(QueryError::ScalarSubqueryRows(n)),
    }
}

/// The statement memo's result for `sub`, evaluating it on first sight.
/// `Ok(None)` means there is nothing to share: no memo is attached to the
/// context, or the subquery is correlated.
///
/// Correlation is detected operationally: the subquery is tried in an
/// *empty* outer scope; success means its result cannot depend on outer
/// bindings (memoized), while an unknown-column error means it references
/// the outer row (memoized as correlated). Any other error propagates and
/// memoizes nothing. Row evaluation ([`eval_subquery`]) and access-path
/// selection ([`crate::planner::choose_access`]) both come through here,
/// so whichever runs first evaluates and the other shares.
pub(crate) fn memoized_subquery(
    ctx: QueryCtx<'_>,
    sub: &Arc<SelectStmt>,
) -> Result<Option<Rc<SubqueryResult>>, QueryError> {
    let Some(cache) = ctx.cache else {
        return Ok(None);
    };
    if let Some(entry) = cache.get(sub) {
        // A "known correlated" verdict still saves the probe evaluation.
        crate::stats::bump(ctx.stats, |s| s.subquery_cache_hits += 1);
        return Ok(entry);
    }
    crate::stats::bump(ctx.stats, |s| s.subquery_cache_misses += 1);
    let entry = match run_select(ctx, sub, &mut Bindings::new()) {
        Ok(rel) => Some(SubqueryResult::shared(rel)),
        Err(QueryError::UnknownColumn(_)) => None,
        Err(e) => return Err(e),
    };
    cache.put(sub, entry.clone());
    Ok(entry)
}

/// Evaluate a subquery in the scope of `bindings`: the shared memoized
/// result when it is uncorrelated (so it is hoisted out of the per-row
/// loop, and no row copies it), a fresh evaluation otherwise.
pub(crate) fn eval_subquery(
    ctx: QueryCtx<'_>,
    bindings: &mut Bindings,
    sub: &Arc<SelectStmt>,
) -> Result<Rc<SubqueryResult>, QueryError> {
    match memoized_subquery(ctx, sub)? {
        Some(shared) => Ok(shared),
        None => run_select(ctx, sub, bindings).map(SubqueryResult::unshared),
    }
}

/// Truth value of a predicate result: `Some(bool)` or `None` (unknown).
/// Non-boolean, non-null values are a type error.
pub fn truth(v: &Value) -> Result<Option<bool>, QueryError> {
    match v {
        Value::Bool(b) => Ok(Some(*b)),
        Value::Null => Ok(None),
        other => Err(QueryError::Type(format!("expected boolean predicate, got {other}"))),
    }
}

pub(crate) fn kleene_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

pub(crate) fn kleene_or(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

/// SQL comparison distinguishing *unknown* (`Ok(None)`, a `NULL` operand)
/// from incomparable types (`Err`).
pub(crate) fn compare(a: &Value, b: &Value) -> Result<Option<Ordering>, QueryError> {
    if a.is_null() || b.is_null() {
        return Ok(None);
    }
    match a.sql_cmp(b) {
        Some(o) => Ok(Some(o)),
        // Two numeric operands that won't order means a NaN is involved.
        // Every predicate comparison against NaN is UNKNOWN — not a type
        // error — even though ORDER BY's total order can still sort it.
        None if a.as_f64().is_some() && b.as_f64().is_some() => Ok(None),
        None => Err(QueryError::Type(format!("cannot compare {a} with {b}"))),
    }
}

/// `v [not] like p [escape e]` over already-evaluated operands.
pub(crate) fn like_semantics(
    v: &Value,
    p: &Value,
    esc: Option<&Value>,
    negated: bool,
) -> Result<Value, QueryError> {
    if v.is_null() || p.is_null() || esc.is_some_and(Value::is_null) {
        return Ok(Value::Null);
    }
    let escape = match esc {
        None => None,
        Some(Value::Text(s)) => {
            let mut cs = s.chars();
            match (cs.next(), cs.next()) {
                (Some(c), None) => Some(c),
                _ => {
                    return Err(QueryError::Type(format!(
                        "escape must be a single character, got '{s}'"
                    )))
                }
            }
        }
        Some(other) => {
            return Err(QueryError::Type(format!("escape must be text, got {other}")))
        }
    };
    match (v, p) {
        (Value::Text(t), Value::Text(pat)) => {
            let toks = like_tokens(pat, escape).map_err(QueryError::Type)?;
            Ok(Value::Bool(like_match_tokens(t, &toks) != negated))
        }
        (a, b) => Err(QueryError::Type(format!("like requires text operands, got {a} and {b}"))),
    }
}

pub(crate) fn in_semantics<'v>(
    needle: &Value,
    haystack: impl Iterator<Item = &'v Value>,
    negated: bool,
) -> Result<Value, QueryError> {
    let mut saw_unknown = false;
    for v in haystack {
        match compare(needle, v)? {
            Some(Ordering::Equal) => return Ok(Value::Bool(!negated)),
            Some(_) => {}
            None => saw_unknown = true,
        }
    }
    if saw_unknown {
        Ok(Value::Null)
    } else {
        Ok(Value::Bool(negated))
    }
}

/// Apply a unary operator to an already-evaluated operand.
pub(crate) fn apply_unary(op: UnaryOp, v: &Value) -> Result<Value, QueryError> {
    match op {
        UnaryOp::Not => match truth(v)? {
            Some(b) => Ok(Value::Bool(!b)),
            None => Ok(Value::Null),
        },
        UnaryOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => i
                .checked_neg()
                .map(Value::Int)
                .ok_or_else(|| QueryError::Type("integer overflow in negation".into())),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(QueryError::Type(format!("cannot negate {other}"))),
        },
    }
}

/// `v [not] between lo and hi` over already-evaluated operands (the
/// Kleene conjunction of the two bound comparisons).
pub(crate) fn between_semantics(
    v: &Value,
    lo: &Value,
    hi: &Value,
    negated: bool,
) -> Result<Value, QueryError> {
    let ge = compare(v, lo).map(|o| o.map(|o| o != Ordering::Less))?;
    let le = compare(v, hi).map(|o| o.map(|o| o != Ordering::Greater))?;
    Ok(match kleene_and(ge, le) {
        Some(b) => Value::Bool(b != negated),
        None => Value::Null,
    })
}

/// Apply a non-logical binary operator (comparison or arithmetic) to
/// already-evaluated operands. `and`/`or` never reach here: the compiled
/// walk short-circuits them before operand evaluation.
pub(crate) fn apply_binary(l: &Value, op: BinaryOp, r: &Value) -> Result<Value, QueryError> {
    debug_assert!(!matches!(op, BinaryOp::And | BinaryOp::Or));
    if op.is_comparison() {
        let cmp = compare(l, r)?;
        let out = cmp.map(|o| match op {
            BinaryOp::Eq => o == Ordering::Equal,
            BinaryOp::NotEq => o != Ordering::Equal,
            BinaryOp::Lt => o == Ordering::Less,
            BinaryOp::LtEq => o != Ordering::Greater,
            BinaryOp::Gt => o == Ordering::Greater,
            BinaryOp::GtEq => o != Ordering::Less,
            _ => unreachable!(),
        });
        return Ok(out.map_or(Value::Null, Value::Bool));
    }

    // Arithmetic.
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let a = *a;
            let b = *b;
            let out = match op {
                BinaryOp::Add => a.checked_add(b),
                BinaryOp::Sub => a.checked_sub(b),
                BinaryOp::Mul => a.checked_mul(b),
                BinaryOp::Div => {
                    if b == 0 {
                        return Err(QueryError::DivisionByZero);
                    }
                    a.checked_div(b)
                }
                BinaryOp::Mod => {
                    if b == 0 {
                        return Err(QueryError::DivisionByZero);
                    }
                    a.checked_rem(b)
                }
                _ => unreachable!(),
            };
            out.map(Value::Int)
                .ok_or_else(|| QueryError::Type("integer overflow".into()))
        }
        _ => {
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return Err(QueryError::Type(format!("cannot apply {op} to {l} and {r}")));
            };
            // Float arithmetic follows IEEE-754 (division by zero yields
            // ±inf, 0/0 yields NaN), matching common SQL engines' float
            // behaviour.
            let out = match op {
                BinaryOp::Add => a + b,
                BinaryOp::Sub => a - b,
                BinaryOp::Mul => a * b,
                BinaryOp::Div => a / b,
                BinaryOp::Mod => a % b,
                _ => unreachable!(),
            };
            Ok(Value::Float(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, eval_compiled, Layout};
    use setrules_sql::parse_expr;
    use setrules_storage::Database;

    /// A constant expression's value, compiled against the empty layout
    /// and evaluated there (folding has already run the kernels on every
    /// subtree that succeeds).
    fn eval(src: &str) -> Result<Value, QueryError> {
        let db = Database::new();
        let ctx = QueryCtx::plain(&db);
        let e = compile(&parse_expr(src).unwrap(), &Layout::new());
        eval_compiled(ctx, &mut Bindings::new(), &e)
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval("1 + 2 * 3").unwrap(), Value::Int(7));
        assert_eq!(eval("7 / 2").unwrap(), Value::Int(3));
        assert_eq!(eval("7.0 / 2").unwrap(), Value::Float(3.5));
        assert_eq!(eval("7 % 3").unwrap(), Value::Int(1));
        assert_eq!(eval("-(3) + 1").unwrap(), Value::Int(-2));
        assert_eq!(eval("0.95 * 100").unwrap(), Value::Float(95.0));
    }

    #[test]
    fn division_by_zero() {
        assert_eq!(eval("1 / 0"), Err(QueryError::DivisionByZero));
        assert_eq!(eval("1 % 0"), Err(QueryError::DivisionByZero));
        // Float division by zero is IEEE.
        assert_eq!(eval("1.0 / 0").unwrap(), Value::Float(f64::INFINITY));
    }

    #[test]
    fn integer_overflow_detected() {
        assert!(matches!(eval("9223372036854775807 + 1"), Err(QueryError::Type(_))));
    }

    #[test]
    fn null_propagation() {
        assert_eq!(eval("1 + NULL").unwrap(), Value::Null);
        assert_eq!(eval("NULL = NULL").unwrap(), Value::Null);
        assert_eq!(eval("NULL is null").unwrap(), Value::Bool(true));
        assert_eq!(eval("1 is not null").unwrap(), Value::Bool(true));
    }

    #[test]
    fn kleene_logic() {
        assert_eq!(eval("false and NULL").unwrap(), Value::Bool(false));
        assert_eq!(eval("true and NULL").unwrap(), Value::Null);
        assert_eq!(eval("true or NULL").unwrap(), Value::Bool(true));
        assert_eq!(eval("false or NULL").unwrap(), Value::Null);
        assert_eq!(eval("not NULL").unwrap(), Value::Null);
        assert_eq!(eval("not false").unwrap(), Value::Bool(true));
    }

    #[test]
    fn and_short_circuits_errors_on_right() {
        // `false and (1/0 = 1)` must not raise: left decides.
        assert_eq!(eval("false and 1 / 0 = 1").unwrap(), Value::Bool(false));
        assert_eq!(eval("true or 1 / 0 = 1").unwrap(), Value::Bool(true));
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval("2 < 3").unwrap(), Value::Bool(true));
        assert_eq!(eval("2 >= 2.0").unwrap(), Value::Bool(true));
        assert_eq!(eval("'a' < 'b'").unwrap(), Value::Bool(true));
        assert_eq!(eval("2 <> 3").unwrap(), Value::Bool(true));
        assert!(matches!(eval("1 < 'a'"), Err(QueryError::Type(_))));
    }

    #[test]
    fn in_list_three_valued() {
        assert_eq!(eval("2 in (1, 2, 3)").unwrap(), Value::Bool(true));
        assert_eq!(eval("5 in (1, 2, 3)").unwrap(), Value::Bool(false));
        assert_eq!(eval("5 in (1, NULL)").unwrap(), Value::Null);
        assert_eq!(eval("1 in (1, NULL)").unwrap(), Value::Bool(true));
        assert_eq!(eval("5 not in (1, NULL)").unwrap(), Value::Null);
        assert_eq!(eval("5 not in (1, 2)").unwrap(), Value::Bool(true));
    }

    #[test]
    fn between() {
        assert_eq!(eval("2 between 1 and 3").unwrap(), Value::Bool(true));
        assert_eq!(eval("0 between 1 and 3").unwrap(), Value::Bool(false));
        assert_eq!(eval("2 not between 1 and 3").unwrap(), Value::Bool(false));
        assert_eq!(eval("2 between NULL and 3").unwrap(), Value::Null);
        assert_eq!(eval("0 between 1 and NULL").unwrap(), Value::Bool(false), "0 >= 1 is false, so unknown upper bound cannot matter");
    }

    #[test]
    fn like() {
        assert_eq!(eval("'Jane' like 'J%'").unwrap(), Value::Bool(true));
        assert_eq!(eval("'Jane' not like '%z%'").unwrap(), Value::Bool(true));
        assert_eq!(eval("NULL like 'J%'").unwrap(), Value::Null);
        assert!(matches!(eval("1 like 'J%'"), Err(QueryError::Type(_))));
    }

    #[test]
    fn like_escape() {
        assert_eq!(eval("'100%' like '100!%' escape '!'").unwrap(), Value::Bool(true));
        assert_eq!(eval("'100x' like '100!%' escape '!'").unwrap(), Value::Bool(false));
        assert_eq!(eval("'a_b' not like 'a!_b' escape '!'").unwrap(), Value::Bool(false));
        assert_eq!(eval("'50% off' like '%!%%' escape '!'").unwrap(), Value::Bool(true));
        assert_eq!(eval("'x' like 'x' escape NULL").unwrap(), Value::Null);
        assert!(matches!(eval("'x' like 'x' escape 'ab'"), Err(QueryError::Type(_))));
        assert!(matches!(eval("'x' like 'x' escape 1"), Err(QueryError::Type(_))));
        assert!(matches!(eval("'x' like 'a!b' escape '!'"), Err(QueryError::Type(_))), "malformed pattern");
    }

    #[test]
    fn nan_comparisons_are_unknown_not_errors() {
        // 0.0/0.0 is IEEE NaN; every comparison with it is UNKNOWN.
        assert_eq!(eval("0.0 / 0.0 = 0.0 / 0.0").unwrap(), Value::Null);
        assert_eq!(eval("1.0 < 0.0 / 0.0").unwrap(), Value::Null);
        assert_eq!(eval("0.0 / 0.0 <> 1").unwrap(), Value::Null);
        assert_eq!(eval("1 in (2, 0.0 / 0.0)").unwrap(), Value::Null);
        assert_eq!(eval("0.0 / 0.0 between 0.0 and 1.0").unwrap(), Value::Null);
        // Mixed non-numeric operands are still type errors.
        assert!(matches!(eval("0.0 / 0.0 = 'x'"), Err(QueryError::Type(_))));
    }

    #[test]
    fn aggregates_require_group_context() {
        assert!(matches!(eval("sum(1)"), Err(QueryError::Type(_))));
    }

    /// Every consumer of an uncorrelated subquery — each row's `in`,
    /// `exists` or scalar use, and the planner — holds the memo's one
    /// result by reference count; nothing copies its rows.
    #[test]
    fn memoized_subquery_is_evaluated_once_and_shared_by_handle() {
        use crate::ctx::SubqueryCache;
        use crate::stats::StatsCell;
        use setrules_sql::ast::{DmlOp, Statement};
        let mut db = Database::new();
        let t = db.create_table(setrules_storage::paper_example_schemas().1).unwrap();
        for k in 0..3 {
            db.insert(t, setrules_storage::tuple![k, k]).unwrap();
        }
        let sel = |sql: &str| match setrules_sql::parse_statement(sql).unwrap() {
            Statement::Dml(DmlOp::Select(s)) => s,
            _ => panic!("not a select: {sql}"),
        };
        let (cache, stats) = (SubqueryCache::new(), StatsCell::new());
        let ctx = QueryCtx { cache: Some(&cache), stats: Some(&stats), ..QueryCtx::plain(&db) };

        let sub = Arc::new(sel("select dept_no from dept"));
        let first = eval_subquery(ctx, &mut Bindings::new(), &sub).unwrap();
        let again = eval_subquery(ctx, &mut Bindings::new(), &sub).unwrap();
        let planned = memoized_subquery(ctx, &sub).unwrap().expect("uncorrelated");
        assert!(Rc::ptr_eq(&first, &again) && Rc::ptr_eq(&first, &planned));
        assert_eq!(Rc::strong_count(&first), 4, "the memo and three handles on one result");
        assert_eq!(first.rel.len(), 3);
        let s = stats.snapshot();
        assert_eq!((s.subquery_cache_misses, s.subquery_cache_hits), (1, 2));

        // Correlated: remembered as such, evaluated per call in its scope.
        let correlated = Arc::new(sel("select dept_no from dept where mgr_no = outer_k"));
        assert!(memoized_subquery(ctx, &correlated).unwrap().is_none());
        assert!(matches!(
            eval_subquery(ctx, &mut Bindings::new(), &correlated),
            Err(QueryError::UnknownColumn(_))
        ));
        // Errors memoize nothing: the next caller raises them again.
        let failing = Arc::new(sel("select 1 / 0 from dept"));
        for _ in 0..2 {
            assert_eq!(memoized_subquery(ctx, &failing).err(), Some(QueryError::DivisionByZero));
        }
        assert_eq!(stats.snapshot().subquery_cache_misses, 4);
        // Without a memo there is nothing to share.
        assert!(memoized_subquery(QueryCtx::plain(&db), &sub).unwrap().is_none());
    }

    #[test]
    fn truth_rejects_non_boolean() {
        assert!(matches!(eval("not 5"), Err(QueryError::Type(_))));
    }
}
