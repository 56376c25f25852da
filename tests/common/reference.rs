//! A deliberately naive reference executor for the differential tests.
//!
//! It shares nothing with the executor under test except the scalar
//! kernels: every operator is applied to its already evaluated operands
//! by compiling that one node over literals and evaluating it in an empty
//! scope (`compile` + `eval_compiled`). Everything else is its own: this
//! module walks the AST itself, resolves names by searching its own scope
//! stack on every row, and folds aggregates over the collected values.
//! `select` runs nested loops over every combination of its `from` items
//! in row-index lexicographic order and evaluates the full predicate on
//! each. Grouping partitions the survivors in first-seen order. `having`,
//! the projection and the `order by` keys are then evaluated per group
//! with the group's rows; `distinct`, a stable sort in the storage total
//! order and `limit` follow. Subqueries run through this module too, in
//! the scope of the row that reaches them. There is no planner, no index,
//! no hashing, no pushdown and no parallelism. `delete` and `update` are a
//! full scan in handle order followed by a statement-atomic apply.

use std::cmp::Ordering;
use std::sync::Arc;

use setrules_query::bindings::Bindings;
use setrules_query::{
    compile, eval_compiled, has_aggregate, truth, Layout, OpEffect, QueryCtx, QueryError, Relation,
};
use setrules_sql::ast::{
    AggFunc, BinaryOp, DeleteStmt, Expr, SelectItem, SelectStmt, TableSource, UpdateStmt,
};
use setrules_storage::{Database, TableId, TupleHandle, Value};

/// One `from`-item binding: its variable name, column names and row.
#[derive(Clone)]
struct Frame {
    name: String,
    columns: Arc<Vec<String>>,
    row: Vec<Value>,
}

/// The frames of one query's `from` clause.
type Level = Vec<Frame>;

/// The enclosing queries' levels, innermost last.
type Scope = Vec<Level>;

/// Run a top-level `select`.
pub fn select(db: &Database, stmt: &SelectStmt) -> Result<Relation, QueryError> {
    select_in(db, stmt, &mut Scope::new())
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
    let mut scope = Scope::new();
    let mut matched = Vec::new();
    for (h, t) in db.table(table).scan() {
        scope.push(vec![frame(name, &columns, t.0.clone())]);
        let keep = match predicate {
            Some(p) => holds(db, &mut scope, p),
            None => Ok(true),
        };
        scope.pop();
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
    let mut scope = Scope::new();
    let mut planned = Vec::new();
    for (h, row) in matched {
        scope.push(vec![frame(&stmt.table, &columns, row)]);
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
        scope.pop();
        if let Some(e) = err {
            return Err(e);
        }
        planned.push((h, assignments));
    }
    let mark = db.mark();
    let mut tuples = Vec::new();
    for (h, assignments) in planned {
        match db.update(table, h, &assignments) {
            Ok(old) => tuples.push((h, old)),
            Err(e) => {
                db.rollback_to(mark).expect("statement mark is valid");
                return Err(e.into());
            }
        }
    }
    Ok(OpEffect::Update { table, columns: set_cols.into_iter().collect(), tuples })
}

/// One output row paired with its `order by` key: `(key, row)`.
type KeyedRow = (Vec<Value>, Vec<Value>);

fn frame(name: &str, columns: &Arc<Vec<String>>, row: Vec<Value>) -> Frame {
    Frame { name: name.to_string(), columns: Arc::clone(columns), row }
}

/// `select` in the scope `outer` (the enclosing rows of a subquery).
fn select_in(db: &Database, stmt: &SelectStmt, outer: &mut Scope) -> Result<Relation, QueryError> {
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
        outer.push(level);
        let keep = match &stmt.predicate {
            Some(p) => holds(db, outer, p),
            None => Ok(true),
        };
        let level = outer.pop().expect("pushed above");
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
                outer.push(level);
                let key: Result<Vec<Value>, QueryError> =
                    stmt.group_by.iter().map(|g| eval(db, outer, None, g)).collect();
                let level = outer.pop().expect("pushed above");
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
            outer.push(repr);
            let row = finish(db, outer, Some(rows), stmt, &proj);
            outer.pop();
            out.extend(row?);
        }
    } else {
        for level in matching {
            outer.push(level);
            let row = finish(db, outer, None, stmt, &proj);
            outer.pop();
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
    scope: &mut Scope,
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

fn holds(db: &Database, scope: &mut Scope, e: &Expr) -> Result<bool, QueryError> {
    Ok(truth(&eval(db, scope, None, e)?)? == Some(true))
}

/// Resolve a (possibly qualified) column reference to its value in the
/// current rows, innermost level first. Unqualified, it must match exactly
/// one frame of the first level that has it; qualified, the innermost
/// frame bound to that variable must have the column.
fn resolve(scope: &Scope, qualifier: Option<&str>, name: &str) -> Result<Value, QueryError> {
    let position = |f: &Frame| f.columns.iter().position(|c| c == name);
    for level in scope.iter().rev() {
        match qualifier {
            Some(q) => {
                let mut bound = level.iter().filter(|f| f.name == q).peekable();
                if bound.peek().is_none() {
                    continue;
                }
                return match bound.find_map(|f| position(f).map(|i| f.row[i].clone())) {
                    Some(v) => Ok(v),
                    None => Err(QueryError::UnknownColumn(format!("{q}.{name}"))),
                };
            }
            None => {
                let mut hits = level.iter().filter_map(|f| position(f).map(|i| &f.row[i]));
                match (hits.next(), hits.next()) {
                    (Some(v), None) => return Ok(v.clone()),
                    (Some(_), Some(_)) => return Err(QueryError::AmbiguousColumn(name.into())),
                    _ => {}
                }
            }
        }
    }
    Err(QueryError::UnknownColumn(match qualifier {
        Some(q) => format!("{q}.{name}"),
        None => name.to_string(),
    }))
}

/// Apply one operator node whose operands are literals: compiled against
/// the empty layout and evaluated in an empty scope.
fn apply(db: &Database, node: &Expr) -> Result<Value, QueryError> {
    let tree = compile(node, &Layout::new());
    eval_compiled(QueryCtx::plain(db), &mut Bindings::new(), &tree)
}

/// Evaluate `e` in `scope`, `group` holding the rows of the current group
/// when there is one. Operands evaluate left to right, `and`/`or`
/// short-circuit, and the first error wins. A column is looked up in the
/// scope, a subquery runs through [`select_in`] in the scope of this row,
/// an aggregate folds its argument over the group's rows, and every other
/// operator applies to its evaluated operands through [`apply`].
fn eval(
    db: &Database,
    scope: &mut Scope,
    group: Option<&[Level]>,
    e: &Expr,
) -> Result<Value, QueryError> {
    let lit = |v: Value| Box::new(Expr::Literal(v));
    let mut sub = |e: &Expr| eval(db, scope, group, e).map(lit);
    let node = match e {
        Expr::Literal(v) => return Ok(v.clone()),
        Expr::Column { qualifier, name } => return resolve(scope, qualifier.as_deref(), name),
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
        Expr::Aggregate { func, arg, distinct } => {
            // Outside a group an aggregate is an error, raised without
            // touching its argument.
            let Some(rows) = group else { return apply(db, e) };
            let Some(arg) = arg else { return Ok(Value::Int(rows.len() as i64)) };
            // The argument per group row (aggregates do not nest); NULLs
            // are discarded.
            let mut vals = Vec::new();
            for level in rows {
                scope.push(level.clone());
                let v = eval(db, scope, None, arg);
                scope.pop();
                vals.extend(Some(v?).filter(|v| !v.is_null()));
            }
            return fold(*func, *distinct, vals);
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
    };
    apply(db, &node)
}

/// One aggregate over a group's non-NULL argument values, folded in
/// encounter order: `distinct` keeps first occurrences; an all-int `sum`
/// is checked `i64` arithmetic and an all-int `avg` one exact division,
/// otherwise both are an `f64` running sum; `min`/`max` keep the first of
/// tied values.
fn fold(func: AggFunc, distinct: bool, mut vals: Vec<Value>) -> Result<Value, QueryError> {
    if distinct {
        let mut kept: Vec<Value> = Vec::new();
        for v in vals {
            if !kept.contains(&v) {
                kept.push(v);
            }
        }
        vals = kept;
    }
    let all_int = vals.iter().all(|v| matches!(v, Value::Int(_)));
    let float_sum = |what: &str| -> Result<f64, QueryError> {
        vals.iter().try_fold(0.0, |acc, v| match v.as_f64() {
            Some(x) => Ok(acc + x),
            None => Err(QueryError::Type(format!("{what} of non-numeric value {v}"))),
        })
    };
    match func {
        AggFunc::Count => Ok(Value::Int(vals.len() as i64)),
        AggFunc::Sum | AggFunc::Avg if vals.is_empty() => Ok(Value::Null),
        AggFunc::Sum if all_int => vals
            .iter()
            .try_fold(0i64, |acc, v| acc.checked_add(v.as_i64().expect("an int")))
            .map(Value::Int)
            .ok_or_else(|| QueryError::Type("integer overflow in sum".into())),
        AggFunc::Sum => float_sum("sum").map(Value::Float),
        AggFunc::Avg if all_int => {
            let sum: i128 = vals.iter().map(|v| v.as_i64().expect("an int") as i128).sum();
            Ok(Value::Float(sum as f64 / vals.len() as f64))
        }
        AggFunc::Avg => float_sum("avg").map(|s| Value::Float(s / vals.len() as f64)),
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<Value> = None;
            for v in vals {
                let replace = match &best {
                    None => true,
                    Some(b) => {
                        let ord = b.sql_cmp(&v).ok_or_else(|| {
                            QueryError::Type(format!("cannot compare {b} with {v}"))
                        })?;
                        ord == if func == AggFunc::Min { Ordering::Greater } else { Ordering::Less }
                    }
                };
                if replace {
                    best = Some(v);
                }
            }
            Ok(best.unwrap_or(Value::Null))
        }
    }
}

/// The single column of a subquery result, or the column-count error.
fn column0(rel: Relation) -> Result<Vec<Value>, QueryError> {
    if rel.columns.len() != 1 {
        return Err(QueryError::SubqueryColumns(rel.columns.len()));
    }
    Ok(rel.rows.into_iter().map(|mut r| r.swap_remove(0)).collect())
}
