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

use setrules_sql::ast::{Expr, SelectItem, SelectStmt, TableRef, TableSource};
use setrules_storage::{ColumnId, Database};

/// The columns of each top-level stored-table `from` item that the
/// statement references. Entry `i` corresponds to `stmt.from[i]`; `None`
/// means "all columns" (wildcard).
pub fn referenced_columns(db: &Database, stmt: &SelectStmt) -> Vec<Option<BTreeSet<ColumnId>>> {
    // Gather raw (qualifier, name) references and wildcard coverage.
    let mut refs: BTreeSet<(Option<&str>, &str)> = BTreeSet::new();
    stmt.for_each_expr(&mut |e| collect(e, &mut refs));
    let mut saw_wildcard = false;
    let mut qualified_wildcards: BTreeSet<&str> = BTreeSet::new();
    for item in &stmt.projection {
        match item {
            SelectItem::Wildcard => saw_wildcard = true,
            SelectItem::QualifiedWildcard(q) => _ = qualified_wildcards.insert(q),
            SelectItem::Expr { .. } => {}
        }
    }

    let per_item = |tref: &TableRef| {
        let tid = match &tref.source {
            TableSource::Named(table) => db.table_id(table).ok(),
            // Transition tables carry no S entries.
            TableSource::Transition { .. } => None,
        };
        let Some(tid) = tid else { return Some(BTreeSet::new()) };
        let binding = tref.binding_name();
        if saw_wildcard || qualified_wildcards.contains(binding) {
            return None;
        }
        let schema = db.schema(tid);
        let applies = |q: &Option<&str>| q.is_none_or(|q| q == binding);
        let cols = refs.iter().filter(|(q, _)| applies(q));
        Some(cols.filter_map(|(_, n)| schema.column_id(n).ok()).collect())
    };
    stmt.from.iter().map(per_item).collect()
}

/// Every column reference in `e`, subqueries included.
fn collect<'a>(e: &'a Expr, out: &mut BTreeSet<(Option<&'a str>, &'a str)>) {
    if let Expr::Column { qualifier, name } = e {
        out.insert((qualifier.as_deref(), name));
    }
    e.for_each_child(&mut |c| collect(c, out));
    if let Some(s) = e.subquery() {
        s.for_each_expr(&mut |c| collect(c, out));
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
