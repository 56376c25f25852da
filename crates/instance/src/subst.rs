//! Substitution of `old.c` / `new.c` pseudo-row references in trigger
//! bodies with literal values from the current row.
//!
//! Instance-oriented triggers are "applied once for each data item" (paper
//! §1); the classic surface for that is per-row `OLD`/`NEW` bindings.
//! Binding by literal substitution keeps the query layer unchanged and
//! makes each per-row action an ordinary statement — which is exactly the
//! per-row overhead the set-oriented design avoids.

use std::sync::Arc;

use setrules_sql::ast::{DeleteStmt, DmlOp, Expr, InsertSource, InsertStmt, SelectItem, SelectStmt, UpdateStmt};
use setrules_storage::{TableSchema, Tuple, Value};

/// The pseudo-rows available to a trigger body.
#[derive(Debug, Clone, Copy)]
pub struct RowEnv<'a> {
    /// The row's table schema (for column lookup).
    pub schema: &'a TableSchema,
    /// `old.*` values (delete/update triggers).
    pub old: Option<&'a Tuple>,
    /// `new.*` values (insert/update triggers).
    pub new: Option<&'a Tuple>,
}

/// Error for unresolvable pseudo-row references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubstError(pub String);

impl std::fmt::Display for SubstError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SubstError {}

impl RowEnv<'_> {
    fn lookup(&self, which: &str, column: &str) -> Result<Value, SubstError> {
        let row = match which {
            "old" => self.old,
            "new" => self.new,
            _ => unreachable!("caller filters"),
        }
        .ok_or_else(|| SubstError(format!("'{which}' row is not available for this trigger event")))?;
        let c = self
            .schema
            .column_id(column)
            .map_err(|_| SubstError(format!("no column '{column}' in '{}'", self.schema.name)))?;
        Ok(row.get(c).clone())
    }
}

/// Substitute `old.c` / `new.c` throughout an operation.
pub fn bind_op(op: &DmlOp, env: RowEnv<'_>) -> Result<DmlOp, SubstError> {
    Ok(match op {
        DmlOp::Insert(i) => DmlOp::Insert(InsertStmt {
            table: i.table.clone(),
            source: match &i.source {
                InsertSource::Values(rows) => InsertSource::Values(
                    rows.iter()
                        .map(|row| row.iter().map(|e| bind_expr(e, env)).collect())
                        .collect::<Result<_, _>>()?,
                ),
                InsertSource::Select(s) => InsertSource::Select(Box::new(bind_select(s, env)?)),
            },
        }),
        DmlOp::Delete(d) => DmlOp::Delete(DeleteStmt {
            table: d.table.clone(),
            predicate: d.predicate.as_ref().map(|p| bind_expr(p, env)).transpose()?,
        }),
        DmlOp::Update(u) => DmlOp::Update(UpdateStmt {
            table: u.table.clone(),
            sets: u
                .sets
                .iter()
                .map(|(c, e)| Ok((c.clone(), bind_expr(e, env)?)))
                .collect::<Result<_, SubstError>>()?,
            predicate: u.predicate.as_ref().map(|p| bind_expr(p, env)).transpose()?,
        }),
        DmlOp::Select(s) => DmlOp::Select(bind_select(s, env)?),
    })
}

/// Substitute within an expression.
pub fn bind_expr(e: &Expr, env: RowEnv<'_>) -> Result<Expr, SubstError> {
    Ok(match e {
        Expr::Column { qualifier: Some(q), name } if q == "old" || q == "new" => {
            Expr::Literal(env.lookup(q, name)?)
        }
        Expr::Literal(_) | Expr::Column { .. } => e.clone(),
        Expr::Unary { op, expr } => Expr::Unary { op: *op, expr: Box::new(bind_expr(expr, env)?) },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(bind_expr(left, env)?),
            op: *op,
            right: Box::new(bind_expr(right, env)?),
        },
        Expr::IsNull { expr, negated } => {
            Expr::IsNull { expr: Box::new(bind_expr(expr, env)?), negated: *negated }
        }
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(bind_expr(expr, env)?),
            list: list.iter().map(|i| bind_expr(i, env)).collect::<Result<_, _>>()?,
            negated: *negated,
        },
        Expr::InSubquery { expr, subquery, negated } => Expr::InSubquery {
            expr: Box::new(bind_expr(expr, env)?),
            subquery: Arc::new(bind_select(subquery, env)?),
            negated: *negated,
        },
        Expr::Exists { subquery, negated } => Expr::Exists {
            subquery: Arc::new(bind_select(subquery, env)?),
            negated: *negated,
        },
        Expr::ScalarSubquery(s) => Expr::ScalarSubquery(Arc::new(bind_select(s, env)?)),
        Expr::Between { expr, low, high, negated } => Expr::Between {
            expr: Box::new(bind_expr(expr, env)?),
            low: Box::new(bind_expr(low, env)?),
            high: Box::new(bind_expr(high, env)?),
            negated: *negated,
        },
        Expr::Like { expr, pattern, escape, negated } => Expr::Like {
            expr: Box::new(bind_expr(expr, env)?),
            pattern: Box::new(bind_expr(pattern, env)?),
            escape: escape.as_ref().map(|e| bind_expr(e, env).map(Box::new)).transpose()?,
            negated: *negated,
        },
        Expr::Aggregate { func, arg, distinct } => Expr::Aggregate {
            func: *func,
            arg: arg.as_ref().map(|a| bind_expr(a, env)).transpose()?.map(Box::new),
            distinct: *distinct,
        },
    })
}

fn bind_select(s: &SelectStmt, env: RowEnv<'_>) -> Result<SelectStmt, SubstError> {
    Ok(SelectStmt {
        distinct: s.distinct,
        projection: s
            .projection
            .iter()
            .map(|item| {
                Ok(match item {
                    SelectItem::Expr { expr, alias } => {
                        SelectItem::Expr { expr: bind_expr(expr, env)?, alias: alias.clone() }
                    }
                    other => other.clone(),
                })
            })
            .collect::<Result<_, SubstError>>()?,
        from: s.from.clone(),
        predicate: s.predicate.as_ref().map(|p| bind_expr(p, env)).transpose()?,
        group_by: s.group_by.iter().map(|e| bind_expr(e, env)).collect::<Result<_, _>>()?,
        having: s.having.as_ref().map(|h| bind_expr(h, env)).transpose()?,
        order_by: s
            .order_by
            .iter()
            .map(|(e, asc)| Ok((bind_expr(e, env)?, *asc)))
            .collect::<Result<_, SubstError>>()?,
        limit: s.limit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use setrules_sql::{parse_expr, parse_op_block};
    use setrules_storage::{paper_example_schemas, tuple};

    #[test]
    fn substitutes_old_and_new() {
        let (emp, _) = paper_example_schemas();
        let old = tuple!["Jane", 1, 100.0, 1];
        let new = tuple!["Jane", 1, 200.0, 1];
        let env = RowEnv { schema: &emp, old: Some(&old), new: Some(&new) };
        let e = parse_expr("new.salary - old.salary > 50").unwrap();
        let bound = bind_expr(&e, env).unwrap();
        assert_eq!(bound.to_string(), "((200.0 - 100.0) > 50)");
    }

    #[test]
    fn missing_pseudo_row_is_an_error() {
        let (emp, _) = paper_example_schemas();
        let new = tuple!["Jane", 1, 200.0, 1];
        let env = RowEnv { schema: &emp, old: None, new: Some(&new) };
        let e = parse_expr("old.salary > 0").unwrap();
        assert!(bind_expr(&e, env).is_err());
    }

    #[test]
    fn unknown_column_is_an_error() {
        let (emp, _) = paper_example_schemas();
        let new = tuple!["Jane", 1, 200.0, 1];
        let env = RowEnv { schema: &emp, old: None, new: Some(&new) };
        assert!(bind_expr(&parse_expr("new.bogus > 0").unwrap(), env).is_err());
    }

    #[test]
    fn binds_inside_ops_and_subqueries() {
        let (emp, _) = paper_example_schemas();
        let old = tuple!["Jane", 1, 100.0, 7];
        let env = RowEnv { schema: &emp, old: Some(&old), new: None };
        let ops = parse_op_block(
            "delete from emp where dept_no in (select dept_no from dept where dept_no = old.dept_no)",
        )
        .unwrap();
        let bound = bind_op(&ops[0], env).unwrap();
        assert!(bound.to_string().contains("= 7"), "{bound}");
    }

    #[test]
    fn ordinary_qualifiers_untouched() {
        let (emp, _) = paper_example_schemas();
        let new = tuple!["Jane", 1, 200.0, 1];
        let env = RowEnv { schema: &emp, old: None, new: Some(&new) };
        let e = parse_expr("e.salary > new.salary").unwrap();
        let bound = bind_expr(&e, env).unwrap();
        assert_eq!(bound.to_string(), "(e.salary > 200.0)");
    }
}
