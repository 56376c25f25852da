//! Column-reference collection over `select` statements.
//!
//! Used to attribute *which columns* of a stored table a top-level `select`
//! operation read, for the `S` component of transition effects (the §5.1
//! extension). The attribution is syntactic and conservative: qualified
//! references go to the matching top-level binding; unqualified references
//! go to every top-level item whose schema contains the column; a wildcard
//! marks every column of every item it covers. References arising inside
//! subqueries are included (they did read the data). A traced tuple then
//! gets the union of the columns of the items it contributed through.

use std::collections::BTreeSet;

use setrules_sql::ast::{Expr, SelectItem, SelectStmt, TableSource};
use setrules_storage::{ColumnId, Database};

/// The columns of each top-level stored-table `from` item that the
/// statement references. Entry `i` corresponds to `stmt.from[i]`; `None`
/// means "all columns" (wildcard).
pub fn referenced_columns(db: &Database, stmt: &SelectStmt) -> Vec<Option<BTreeSet<ColumnId>>> {
    let mut out: Vec<Option<BTreeSet<ColumnId>>> =
        stmt.from.iter().map(|_| Some(BTreeSet::new())).collect();

    // Gather raw (qualifier, name) references and wildcard coverage.
    let mut refs: BTreeSet<(Option<String>, String)> = BTreeSet::new();
    let mut saw_wildcard = false;
    let mut qualified_wildcards: BTreeSet<String> = BTreeSet::new();
    for item in &stmt.projection {
        match item {
            SelectItem::Wildcard => saw_wildcard = true,
            SelectItem::QualifiedWildcard(q) => {
                qualified_wildcards.insert(q.clone());
            }
            SelectItem::Expr { expr, .. } => collect_expr(expr, &mut refs),
        }
    }
    for e in stmt
        .predicate
        .iter()
        .chain(stmt.group_by.iter())
        .chain(stmt.having.iter())
        .chain(stmt.order_by.iter().map(|(e, _)| e))
    {
        collect_expr(e, &mut refs);
    }

    for (i, tref) in stmt.from.iter().enumerate() {
        let TableSource::Named(table) = &tref.source else {
            out[i] = Some(BTreeSet::new()); // transition tables carry no S entries
            continue;
        };
        let Ok(tid) = db.table_id(table) else {
            continue;
        };
        let schema = db.schema(tid);
        let binding = tref.binding_name();
        if saw_wildcard || qualified_wildcards.contains(binding) {
            out[i] = None;
            continue;
        }
        let cols = out[i].as_mut().expect("initialized Some above");
        for (q, name) in &refs {
            let applies = match q {
                Some(q) => q == binding,
                None => true,
            };
            if applies {
                if let Ok(c) = schema.column_id(name) {
                    cols.insert(c);
                }
            }
        }
    }
    out
}

fn collect_expr(e: &Expr, out: &mut BTreeSet<(Option<String>, String)>) {
    match e {
        Expr::Literal(_) => {}
        Expr::Column { qualifier, name } => {
            out.insert((qualifier.clone(), name.clone()));
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => collect_expr(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_expr(left, out);
            collect_expr(right, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_expr(expr, out);
            for i in list {
                collect_expr(i, out);
            }
        }
        Expr::InSubquery { expr, subquery, .. } => {
            collect_expr(expr, out);
            collect_select(subquery, out);
        }
        Expr::Exists { subquery, .. } => collect_select(subquery, out),
        Expr::ScalarSubquery(s) => collect_select(s, out),
        Expr::Between { expr, low, high, .. } => {
            collect_expr(expr, out);
            collect_expr(low, out);
            collect_expr(high, out);
        }
        Expr::Like { expr, pattern, escape, .. } => {
            collect_expr(expr, out);
            collect_expr(pattern, out);
            if let Some(e) = escape {
                collect_expr(e, out);
            }
        }
        Expr::Aggregate { arg, .. } => {
            if let Some(a) = arg {
                collect_expr(a, out);
            }
        }
    }
}

fn collect_select(s: &SelectStmt, out: &mut BTreeSet<(Option<String>, String)>) {
    for item in &s.projection {
        if let SelectItem::Expr { expr, .. } = item {
            collect_expr(expr, out);
        }
    }
    for e in s
        .predicate
        .iter()
        .chain(s.group_by.iter())
        .chain(s.having.iter())
        .chain(s.order_by.iter().map(|(e, _)| e))
    {
        collect_expr(e, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setrules_sql::{ast::DmlOp, ast::Statement, parse_statement};
    use setrules_storage::paper_example_schemas;

    fn emp_db() -> Database {
        let mut db = Database::new();
        let (emp, dept) = paper_example_schemas();
        db.create_table(emp).unwrap();
        db.create_table(dept).unwrap();
        db
    }

    fn refs_of(db: &Database, sql: &str) -> Vec<Option<BTreeSet<ColumnId>>> {
        let Statement::Dml(DmlOp::Select(sel)) = parse_statement(sql).unwrap() else { panic!() };
        referenced_columns(db, &sel)
    }

    #[test]
    fn explicit_columns() {
        let db = emp_db();
        let r = refs_of(&db, "select name from emp where salary > 100");
        let cols = r[0].as_ref().unwrap();
        // name = col 0, salary = col 2
        assert!(cols.contains(&ColumnId(0)));
        assert!(cols.contains(&ColumnId(2)));
        assert!(!cols.contains(&ColumnId(1)));
    }

    #[test]
    fn wildcard_means_all() {
        let db = emp_db();
        let r = refs_of(&db, "select * from emp");
        assert!(r[0].is_none());
    }

    #[test]
    fn qualified_refs_attributed_to_binding() {
        let db = emp_db();
        let r = refs_of(&db, "select e.name from emp e, dept d where d.mgr_no = e.emp_no");
        let emp_cols = r[0].as_ref().unwrap();
        assert!(emp_cols.contains(&ColumnId(0)), "e.name");
        assert!(emp_cols.contains(&ColumnId(1)), "e.emp_no");
        let dept_cols = r[1].as_ref().unwrap();
        assert!(dept_cols.contains(&ColumnId(1)), "d.mgr_no");
        assert!(!dept_cols.contains(&ColumnId(0)));
    }

    #[test]
    fn unqualified_shared_name_goes_to_all_candidates() {
        let db = emp_db();
        let r = refs_of(&db, "select name from emp, dept where dept_no > 0");
        // dept_no exists in both tables; attributed to both (conservative).
        assert!(r[0].as_ref().unwrap().contains(&ColumnId(3)));
        assert!(r[1].as_ref().unwrap().contains(&ColumnId(0)));
    }

    #[test]
    fn subquery_references_included() {
        let db = emp_db();
        let r = refs_of(&db, "select name from emp where dept_no in (select dept_no from dept)");
        assert!(r[0].as_ref().unwrap().contains(&ColumnId(3)));
    }
}
