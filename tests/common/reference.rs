//! A deliberately naive reference executor for the differential tests.
//!
//! It shares nothing with the executor under test except the scalar AST
//! evaluator (`eval_expr`, applied to subquery-free subtrees). `select`
//! runs nested loops over every combination of its `from` items in
//! row-index lexicographic order and evaluates the full predicate on each.
//! Grouping partitions the survivors in first-seen order. `having`, the
//! projection and the `order by` keys are then evaluated per group through
//! `eval_expr` with the group's rows; `distinct`, a stable sort in the
//! storage total order and `limit` follow. Subqueries run through this
//! module too, in the scope of the row that reaches them. There is no
//! planner, no index, no hashing, no pushdown and no parallelism.
//! `delete` and `update` are a full scan in handle order followed by a
//! statement-atomic apply.

use std::sync::Arc;

use setrules_query::bindings::{Bindings, Frame, Level};
use setrules_query::{eval_expr, has_aggregate, truth, OpEffect, QueryCtx, QueryError, Relation};
use setrules_sql::ast::{
    BinaryOp, DeleteStmt, Expr, SelectItem, SelectStmt, TableSource, UpdateStmt,
};
use setrules_storage::{Database, TableId, TupleHandle, Value};

/// Run a top-level `select`.
pub fn select(db: &Database, stmt: &SelectStmt) -> Result<Relation, QueryError> {
    select_in(db, stmt, &mut Bindings::new())
}

/// The tuples of `table` satisfying `predicate`, by a full scan in handle
/// order, with their pre-statement values.
fn matching(
    db: &Database,
    table: TableId,
    name: &str,
    predicate: Option<&Expr>,
) -> Result<Vec<(TupleHandle, Vec<Value>)>, QueryError> {
    let columns =
        Arc::new(db.schema(table).columns.iter().map(|c| c.name.clone()).collect::<Vec<_>>());
    let mut scope = Bindings::new();
    let mut matched = Vec::new();
    for (h, t) in db.table(table).scan() {
        scope.push_level(vec![frame(name, &columns, t.0.clone())]);
        let keep = match predicate {
            Some(p) => holds(db, &mut scope, p),
            None => Ok(true),
        };
        scope.pop_level();
        if keep? {
            matched.push((h, t.0.clone()));
        }
    }
    Ok(matched)
}

/// Run a naive `delete`: identify by full scan against the pre-statement
/// state, then delete all or nothing.
pub fn delete(db: &mut Database, stmt: &DeleteStmt) -> Result<OpEffect, QueryError> {
    let table = db.table_id(&stmt.table)?;
    let matched = matching(db, table, &stmt.table, stmt.predicate.as_ref())?;
    let mark = db.mark();
    let mut tuples = Vec::new();
    for (h, _) in matched {
        match db.delete(table, h) {
            Ok(old) => tuples.push((h, old)),
            Err(e) => {
                db.rollback_to(mark).expect("statement mark is valid");
                return Err(e.into());
            }
        }
    }
    Ok(OpEffect::Delete { table, tuples })
}

/// Run a naive `update`: identify by full scan, compute every assignment
/// against the pre-statement state, then apply all or nothing.
pub fn update(db: &mut Database, stmt: &UpdateStmt) -> Result<OpEffect, QueryError> {
    let table = db.table_id(&stmt.table)?;
    let schema = db.schema(table);
    let set_cols = stmt
        .sets
        .iter()
        .map(|(name, _)| schema.column_id(name))
        .collect::<Result<Vec<_>, _>>()?;
    let columns = Arc::new(schema.columns.iter().map(|c| c.name.clone()).collect::<Vec<_>>());
    let matched = matching(db, table, &stmt.table, stmt.predicate.as_ref())?;
    let mut scope = Bindings::new();
    let mut planned = Vec::new();
    for (h, row) in matched {
        scope.push_level(vec![frame(&stmt.table, &columns, row)]);
        let mut assignments = Vec::new();
        let mut err = None;
        for (col, (_, e)) in set_cols.iter().zip(&stmt.sets) {
            match eval(db, &mut scope, None, e) {
                Ok(v) => {
                    assignments.retain(|(c, _)| c != col);
                    assignments.push((*col, v));
                }
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        scope.pop_level();
        if let Some(e) = err {
            return Err(e);
        }
        planned.push((h, assignments));
    }
    let mark = db.mark();
    let mut tuples = Vec::new();
    for (h, assignments) in planned {
        match db.update(table, h, &assignments) {
            Ok(old) => tuples.push((h, assignments.iter().map(|(c, _)| *c).collect(), old)),
            Err(e) => {
                db.rollback_to(mark).expect("statement mark is valid");
                return Err(e.into());
            }
        }
    }
    Ok(OpEffect::Update { table, tuples })
}

/// One output row paired with its `order by` key: `(key, row)`.
type KeyedRow = (Vec<Value>, Vec<Value>);

fn frame(name: &str, columns: &Arc<Vec<String>>, row: Vec<Value>) -> Frame {
    Frame { name: name.to_string(), columns: Arc::clone(columns), row }
}

/// `select` in the scope `outer` (the enclosing rows of a subquery).
fn select_in(
    db: &Database,
    stmt: &SelectStmt,
    outer: &mut Bindings,
) -> Result<Relation, QueryError> {
    // The from items: binding, column names, rows in handle order.
    let mut items = Vec::new();
    for tref in &stmt.from {
        let TableSource::Named(table) = &tref.source else {
            panic!("the reference executor has no transition tables")
        };
        let tid = db.table_id(table)?;
        let columns = Arc::new(db.schema(tid).columns.iter().map(|c| c.name.clone()).collect());
        let rows: Vec<Vec<Value>> = db.table(tid).scan().map(|(_, t)| t.0.clone()).collect();
        items.push((tref.binding_name().to_string(), columns, rows));
    }

    // Every combination, lexicographically, through the full predicate.
    let mut matching: Vec<Level> = Vec::new();
    let mut cursor = vec![0usize; items.len()];
    let total: usize = items.iter().map(|(_, _, rows)| rows.len()).product();
    for _ in 0..total {
        let level: Level = items
            .iter()
            .zip(&cursor)
            .map(|((name, columns, rows), &r)| frame(name, columns, rows[r].clone()))
            .collect();
        outer.push_level(level);
        let keep = match &stmt.predicate {
            Some(p) => holds(db, outer, p),
            None => Ok(true),
        };
        let level = outer.pop_level().expect("pushed above");
        if keep? {
            matching.push(level);
        }
        for pos in (0..items.len()).rev() {
            cursor[pos] += 1;
            if cursor[pos] < items[pos].2.len() {
                break;
            }
            cursor[pos] = 0;
        }
    }

    // Wildcards expand only after the filter has run to completion.
    let mut proj: Vec<(Expr, String)> = Vec::new();
    for item in &stmt.projection {
        match item {
            SelectItem::Wildcard => {
                for (name, columns, _) in &items {
                    proj.extend(columns.iter().map(|c| (Expr::qcol(name, c), c.clone())));
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let (name, columns, _) = items
                    .iter()
                    .find(|(name, _, _)| name == q)
                    .ok_or_else(|| QueryError::UnknownColumn(format!("{q}.*")))?;
                proj.extend(columns.iter().map(|c| (Expr::qcol(name, c), c.clone())));
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

    let mut out: Vec<KeyedRow> = Vec::new();
    let grouped = !stmt.group_by.is_empty()
        || proj.iter().any(|(e, _)| has_aggregate(e))
        || stmt.having.as_ref().is_some_and(has_aggregate);
    if grouped {
        // Partition in first-seen order by a linear search over the keys.
        let mut groups: Vec<(Vec<Value>, Vec<Level>)> = Vec::new();
        if stmt.group_by.is_empty() {
            groups.push((Vec::new(), matching));
        } else {
            for level in matching {
                outer.push_level(level);
                let key: Result<Vec<Value>, QueryError> =
                    stmt.group_by.iter().map(|g| eval(db, outer, None, g)).collect();
                let level = outer.pop_level().expect("pushed above");
                let key = key?;
                match groups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, rows)) => rows.push(level),
                    None => groups.push((key, vec![level])),
                }
            }
        }
        for (_, rows) in &groups {
            // The representative row: the group's first, or all-NULL frames
            // for the empty ungrouped group.
            let nulls = |(name, columns, _): &(String, Arc<Vec<String>>, _)| {
                frame(name, columns, vec![Value::Null; columns.len()])
            };
            let repr = rows.first().cloned().unwrap_or_else(|| items.iter().map(nulls).collect());
            outer.push_level(repr);
            let row = finish(db, outer, Some(rows), stmt, &proj);
            outer.pop_level();
            out.extend(row?);
        }
    } else {
        for level in matching {
            outer.push_level(level);
            let row = finish(db, outer, None, stmt, &proj);
            outer.pop_level();
            out.extend(row?);
        }
    }

    if stmt.distinct {
        let mut kept: Vec<KeyedRow> = Vec::new();
        for row in out {
            if !kept.iter().any(|(_, r)| *r == row.1) {
                kept.push(row);
            }
        }
        out = kept;
    }
    // A stable sort keeps encounter order among equal keys.
    out.sort_by(|(a, _), (b, _)| {
        stmt.order_by
            .iter()
            .zip(a.iter().zip(b))
            .map(|((_, asc), (x, y))| if *asc { x.cmp(y) } else { y.cmp(x) })
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    if let Some(n) = stmt.limit {
        out.truncate(n as usize);
    }
    Ok(Relation {
        columns: proj.into_iter().map(|(_, n)| n).collect(),
        rows: out.into_iter().map(|(_, r)| r).collect(),
    })
}

/// One output row for the innermost scope level (a combination, or a
/// group's representative row with `group` holding its rows): `having`
/// first when grouped, then the projection, then the `order by` keys.
fn finish(
    db: &Database,
    scope: &mut Bindings,
    group: Option<&[Level]>,
    stmt: &SelectStmt,
    proj: &[(Expr, String)],
) -> Result<Option<KeyedRow>, QueryError> {
    if let (Some(_), Some(h)) = (group, &stmt.having) {
        if truth(&eval(db, scope, group, h)?)? != Some(true) {
            return Ok(None);
        }
    }
    let row = proj.iter().map(|(e, _)| eval(db, scope, group, e)).collect::<Result<_, _>>()?;
    let key =
        stmt.order_by.iter().map(|(e, _)| eval(db, scope, group, e)).collect::<Result<_, _>>()?;
    Ok(Some((key, row)))
}

fn holds(db: &Database, scope: &mut Bindings, e: &Expr) -> Result<bool, QueryError> {
    Ok(truth(&eval(db, scope, None, e)?)? == Some(true))
}

/// Evaluate `e` in `scope`. A subquery-free tree goes straight to
/// `eval_expr`. Otherwise this walks the tree in `eval_expr`'s order:
/// operands left to right, `and`/`or` short-circuiting, and the first
/// error wins. Each subquery runs through [`select_in`], and each operator
/// applies to its already evaluated operands through `eval_expr` over
/// literals.
fn eval(
    db: &Database,
    scope: &mut Bindings,
    group: Option<&[Level]>,
    e: &Expr,
) -> Result<Value, QueryError> {
    if !has_subquery(e) {
        return eval_expr(QueryCtx::plain(db), scope, group, e);
    }
    let lit = |v: Value| Box::new(Expr::Literal(v));
    let mut sub = |e: &Expr| eval(db, scope, group, e).map(lit);
    let node = match e {
        Expr::InSubquery { expr, subquery, negated } => {
            let needle = sub(expr)?;
            let list = column0(select_in(db, subquery, scope)?)?.into_iter().map(Expr::Literal);
            Expr::InList { expr: needle, list: list.collect(), negated: *negated }
        }
        Expr::Exists { subquery, negated } => {
            let empty = select_in(db, subquery, scope)?.rows.is_empty();
            return Ok(Value::Bool(empty == *negated));
        }
        Expr::ScalarSubquery(subquery) => {
            let vals = column0(select_in(db, subquery, scope)?)?;
            return match vals.len() {
                0 => Ok(Value::Null),
                1 => Ok(vals.into_iter().next().expect("one value")),
                n => Err(QueryError::ScalarSubqueryRows(n)),
            };
        }
        Expr::Aggregate { func, arg: Some(arg), distinct } if group.is_some() => {
            // Evaluate the argument per group row here, then fold the
            // values with the aggregate over a one-column stand-in group.
            let mut vals = Vec::new();
            for level in group.expect("guarded") {
                scope.push_level(level.clone());
                let v = eval(db, scope, None, arg);
                scope.pop_level();
                vals.push(vec![frame("", &Arc::new(vec!["v".to_string()]), vec![v?])]);
            }
            let agg = Expr::Aggregate {
                func: *func,
                arg: Some(Box::new(Expr::col("v"))),
                distinct: *distinct,
            };
            return eval_expr(QueryCtx::plain(db), &mut Bindings::new(), Some(&vals), &agg);
        }
        Expr::Binary { left, op: op @ (BinaryOp::And | BinaryOp::Or), right } => {
            let l = eval(db, scope, group, left)?;
            let decided = match (truth(&l)?, op) {
                (Some(false), BinaryOp::And) => Some(false),
                (Some(true), BinaryOp::Or) => Some(true),
                _ => None,
            };
            if let Some(b) = decided {
                return Ok(Value::Bool(b));
            }
            let r = eval(db, scope, group, right)?;
            Expr::Binary { left: lit(l), op: *op, right: lit(r) }
        }
        Expr::Binary { left, op, right } => {
            Expr::Binary { left: sub(left)?, op: *op, right: sub(right)? }
        }
        Expr::Unary { op, expr } => Expr::Unary { op: *op, expr: sub(expr)? },
        Expr::IsNull { expr, negated } => Expr::IsNull { expr: sub(expr)?, negated: *negated },
        Expr::InList { expr, list, negated } => {
            let expr = sub(expr)?;
            let list = list.iter().map(|i| sub(i).map(|b| *b)).collect::<Result<_, _>>()?;
            Expr::InList { expr, list, negated: *negated }
        }
        Expr::Between { expr, low, high, negated } => Expr::Between {
            expr: sub(expr)?,
            low: sub(low)?,
            high: sub(high)?,
            negated: *negated,
        },
        Expr::Like { expr, pattern, escape, negated } => Expr::Like {
            expr: sub(expr)?,
            pattern: sub(pattern)?,
            escape: escape.as_deref().map(&mut sub).transpose()?,
            negated: *negated,
        },
        // Outside a group an aggregate is an error `eval_expr` raises
        // without touching its argument.
        Expr::Aggregate { .. } | Expr::Literal(_) | Expr::Column { .. } => e.clone(),
    };
    eval_expr(QueryCtx::plain(db), scope, group, &node)
}

/// The single column of a subquery result, or the column-count error.
fn column0(rel: Relation) -> Result<Vec<Value>, QueryError> {
    if rel.columns.len() != 1 {
        return Err(QueryError::SubqueryColumns(rel.columns.len()));
    }
    Ok(rel.rows.into_iter().map(|mut r| r.swap_remove(0)).collect())
}

/// Whether a subquery appears anywhere in `e` (outside subquery bodies).
fn has_subquery(e: &Expr) -> bool {
    match e {
        Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_) => true,
        Expr::Literal(_) | Expr::Column { .. } => false,
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => has_subquery(expr),
        Expr::Binary { left, right, .. } => has_subquery(left) || has_subquery(right),
        Expr::InList { expr, list, .. } => has_subquery(expr) || list.iter().any(has_subquery),
        Expr::Between { expr, low, high, .. } => {
            has_subquery(expr) || has_subquery(low) || has_subquery(high)
        }
        Expr::Like { expr, pattern, escape, .. } => {
            has_subquery(expr)
                || has_subquery(pattern)
                || escape.as_deref().is_some_and(has_subquery)
        }
        Expr::Aggregate { arg, .. } => arg.as_deref().is_some_and(has_subquery),
    }
}
