//! Behavioural test suite for the query engine: null handling in grouping
//! and ordering, nested subqueries, joins with wildcards, and edge cases
//! the unit tests don't reach.

use setrules_query::{
    execute_op, execute_query, ExecOpts, NoTransitionTables, QueryError, Relation,
};
use setrules_sql::ast::{DmlOp, Statement};
use setrules_sql::parse_statement;
use setrules_storage::{Database, Value};

fn setup() -> Database {
    let mut db = Database::new();
    for ddl in [
        "create table emp (name text, emp_no int, salary float, dept_no int)",
        "create table dept (dept_no int, mgr_no int)",
    ] {
        let Statement::CreateTable(ct) = parse_statement(ddl).unwrap() else { panic!() };
        let cols = ct
            .columns
            .into_iter()
            .map(|(n, ty)| setrules_storage::ColumnDef::new(n, ty))
            .collect();
        db.create_table(setrules_storage::TableSchema::new(ct.name, cols)).unwrap();
    }
    db
}

fn run(db: &mut Database, sql: &str) {
    let Statement::Dml(op) = parse_statement(sql).unwrap() else { panic!("not dml: {sql}") };
    execute_op(db, &NoTransitionTables, &op, &ExecOpts::default()).unwrap();
}

fn q(db: &Database, sql: &str) -> Relation {
    let Statement::Dml(DmlOp::Select(sel)) = parse_statement(sql).unwrap() else {
        panic!("not select: {sql}")
    };
    execute_query(db, &NoTransitionTables, &sel, &ExecOpts::default()).unwrap()
}

fn q_err(db: &Database, sql: &str) -> QueryError {
    let Statement::Dml(DmlOp::Select(sel)) = parse_statement(sql).unwrap() else {
        panic!("not select: {sql}")
    };
    execute_query(db, &NoTransitionTables, &sel, &ExecOpts::default()).unwrap_err()
}

#[test]
fn group_by_null_keys_form_one_group() {
    let mut db = setup();
    run(&mut db, "insert into emp values ('a', 1, 1.0, NULL), ('b', 2, 2.0, NULL), ('c', 3, 3.0, 1)");
    let rel = q(&db, "select dept_no, count(*) from emp group by dept_no order by dept_no");
    // NULL sorts first under the storage total order.
    assert_eq!(
        rel.rows,
        vec![
            vec![Value::Null, Value::Int(2)],
            vec![Value::Int(1), Value::Int(1)],
        ]
    );
}

#[test]
fn aggregates_skip_nulls() {
    let mut db = setup();
    run(&mut db, "insert into emp values ('a', 1, NULL, 1), ('b', 2, 10.0, 1), ('c', 3, 20.0, 1)");
    let rel = q(&db, "select count(*), count(salary), sum(salary), avg(salary), min(salary), max(salary) from emp");
    assert_eq!(
        rel.rows[0],
        vec![
            Value::Int(3),
            Value::Int(2),
            Value::Float(30.0),
            Value::Float(15.0),
            Value::Float(10.0),
            Value::Float(20.0),
        ]
    );
}

#[test]
fn count_distinct() {
    let mut db = setup();
    run(&mut db, "insert into emp values ('a', 1, 1.0, 1), ('b', 2, 1.0, 1), ('c', 3, 1.0, 2)");
    let rel = q(&db, "select count(distinct dept_no), count(dept_no) from emp");
    assert_eq!(rel.rows[0], vec![Value::Int(2), Value::Int(3)]);
}

#[test]
fn order_by_desc_with_nulls_and_ties() {
    let mut db = setup();
    run(&mut db, "insert into emp values ('a', 1, NULL, 1), ('b', 2, 5.0, 1), ('c', 3, 5.0, 2)");
    let rel = q(&db, "select name from emp order by salary desc, name");
    // Descending: non-null first (5.0s, tie-broken by name), NULL last.
    assert_eq!(
        rel.rows,
        vec![
            vec![Value::Text("b".into())],
            vec![Value::Text("c".into())],
            vec![Value::Text("a".into())],
        ]
    );
}

#[test]
fn limit_zero_and_large() {
    let mut db = setup();
    run(&mut db, "insert into emp values ('a', 1, 1.0, 1)");
    assert_eq!(q(&db, "select * from emp limit 0").len(), 0);
    assert_eq!(q(&db, "select * from emp limit 100").len(), 1);
}

#[test]
fn distinct_treats_nulls_as_one() {
    let mut db = setup();
    run(&mut db, "insert into emp values ('a', 1, NULL, 1), ('b', 2, NULL, 1)");
    assert_eq!(q(&db, "select distinct salary from emp").len(), 1);
}

#[test]
fn triple_nested_correlated_subquery() {
    let mut db = setup();
    run(&mut db, "insert into dept values (1, 1), (2, 3)");
    run(
        &mut db,
        "insert into emp values ('a', 1, 100.0, 1), ('b', 2, 50.0, 1), ('c', 3, 200.0, 2)",
    );
    // Employees who manage a department whose average salary is below
    // their own salary: only 'a' (dept 1 avg 75 < 100); 'c' manages
    // dept 2 whose sole member is c itself (avg 200, not < 200).
    let rel = q(
        &db,
        "select name from emp m where exists \
           (select * from dept d where d.mgr_no = m.emp_no and \
             (select avg(salary) from emp e where e.dept_no = d.dept_no) < m.salary) \
         order by name",
    );
    assert_eq!(rel.rows, vec![vec![Value::Text("a".into())]]);
}

#[test]
fn qualified_wildcards_in_join() {
    let mut db = setup();
    run(&mut db, "insert into emp values ('a', 1, 1.0, 1)");
    run(&mut db, "insert into dept values (1, 1)");
    let rel = q(&db, "select d.*, e.name from emp e, dept d where e.dept_no = d.dept_no");
    assert_eq!(rel.columns, vec!["dept_no", "mgr_no", "name"]);
    assert_eq!(rel.rows[0], vec![Value::Int(1), Value::Int(1), Value::Text("a".into())]);
}

#[test]
fn self_join_with_aliases() {
    let mut db = setup();
    run(&mut db, "insert into emp values ('a', 1, 100.0, 1), ('b', 2, 200.0, 1), ('c', 3, 50.0, 2)");
    // Pairs where e1 earns more than e2 within the same department.
    let rel = q(
        &db,
        "select e1.name, e2.name from emp e1, emp e2 \
         where e1.dept_no = e2.dept_no and e1.salary > e2.salary",
    );
    assert_eq!(rel.len(), 1);
    assert_eq!(rel.rows[0], vec![Value::Text("b".into()), Value::Text("a".into())]);
}

#[test]
fn where_null_predicate_drops_rows() {
    let mut db = setup();
    run(&mut db, "insert into emp values ('a', 1, NULL, 1), ('b', 2, 5.0, 1)");
    // salary > 1 is unknown for the NULL row: dropped, not kept.
    assert_eq!(q(&db, "select name from emp where salary > 1").len(), 1);
    // ... and its negation also drops it (the classic 3VL trap).
    assert_eq!(q(&db, "select name from emp where not (salary > 1)").len(), 0);
    // is null picks it up.
    assert_eq!(q(&db, "select name from emp where salary is null").len(), 1);
}

#[test]
fn in_subquery_with_null_members() {
    let mut db = setup();
    run(&mut db, "insert into emp values ('a', 1, 1.0, 1), ('b', 2, 1.0, NULL)");
    run(&mut db, "insert into dept values (1, 1)");
    // dept_no in (select dept_no from dept) — NULL dept_no is unknown, dropped.
    assert_eq!(q(&db, "select name from emp where dept_no in (select dept_no from dept)").len(), 1);
    // not in with NULL on the *right* makes everything unknown.
    run(&mut db, "insert into dept values (NULL, 2)");
    assert_eq!(
        q(&db, "select name from emp where dept_no not in (select dept_no from dept)").len(),
        0
    );
}

#[test]
fn having_without_group_by() {
    let mut db = setup();
    run(&mut db, "insert into emp values ('a', 1, 1.0, 1), ('b', 2, 2.0, 1)");
    assert_eq!(q(&db, "select count(*) from emp having count(*) > 1").len(), 1);
    assert_eq!(q(&db, "select count(*) from emp having count(*) > 5").len(), 0);
}

#[test]
fn expression_projection_names() {
    let mut db = setup();
    run(&mut db, "insert into emp values ('a', 1, 10.0, 1)");
    let rel = q(&db, "select salary * 2 as double_pay, salary from emp");
    assert_eq!(rel.columns[0], "double_pay");
    assert_eq!(rel.columns[1], "salary");
    assert_eq!(rel.rows[0][0], Value::Float(20.0));
}

#[test]
fn ambiguous_column_in_join_is_an_error() {
    let mut db = setup();
    run(&mut db, "insert into emp values ('a', 1, 1.0, 1)");
    run(&mut db, "insert into dept values (1, 1)");
    let err = q_err(&db, "select dept_no from emp, dept");
    assert!(matches!(err, QueryError::AmbiguousColumn(_)), "{err}");
}

#[test]
fn unknown_table_and_column_errors() {
    let mut db = setup();
    assert!(matches!(q_err(&db, "select * from ghost"), QueryError::Storage(_)));
    // Column resolution is per-row: an unknown column only surfaces once a
    // row is evaluated (zero-row scans return an empty result).
    assert_eq!(q(&db, "select ghost from emp").len(), 0);
    run(&mut db, "insert into emp values ('a', 1, 1.0, 1)");
    assert!(matches!(q_err(&db, "select ghost from emp"), QueryError::UnknownColumn(_)));
    // Qualified wildcards are resolved structurally, rows or not.
    assert!(matches!(q_err(&db, "select g.* from emp"), QueryError::UnknownColumn(_)));

    // The lazy-resolution contract: an unresolvable name raises its error
    // only when evaluation reaches it, so an empty input, a short-circuit
    // or an empty subquery hides it.
    let mut db = Database::new();
    for ddl in ["create table t (k int, v int)", "create table e (k int)", "create table u (k int)"]
    {
        let Statement::CreateTable(ct) = parse_statement(ddl).unwrap() else { panic!() };
        let cols =
            ct.columns.into_iter().map(|(n, ty)| setrules_storage::ColumnDef::new(n, ty)).collect();
        db.create_table(setrules_storage::TableSchema::new(ct.name, cols)).unwrap();
    }
    run(&mut db, "insert into u values (1)");
    let outcome = |db: &Database, sql: &str| {
        let Statement::Dml(DmlOp::Select(sel)) = parse_statement(sql).unwrap() else {
            panic!("not select: {sql}")
        };
        execute_query(db, &NoTransitionTables, &sel, &ExecOpts::default()).map(|r| r.rows)
    };
    let unknown = |name: &str| Err(QueryError::UnknownColumn(name.into()));
    assert_eq!(outcome(&db, "select ghost from t"), Ok(vec![]));
    assert_eq!(outcome(&db, "select k from t where ghost = 1"), Ok(vec![]));
    run(&mut db, "insert into t values (1, 1), (2, 2)");
    let cases = [
        ("select ghost from t", unknown("ghost")),
        ("select k from t where false and ghost = 1", Ok(vec![])),
        ("select k from t where k = 1 or ghost = 1", unknown("ghost")),
        ("select k from t where k in (select k from e where k = t.ghost)", Ok(vec![])),
        ("select k from t where exists (select * from e where ghost = 1)", Ok(vec![])),
        ("select k from t where exists (select * from u where ghost = 1)", unknown("ghost")),
        ("select k from t x, t y where k = 1", Err(QueryError::AmbiguousColumn("k".into()))),
        ("select k from t group by k having false and ghost = 1", Ok(vec![])),
    ];
    for (sql, want) in cases {
        assert_eq!(outcome(&db, sql), want, "{sql}");
    }
}

#[test]
fn scalar_subquery_cardinality_error() {
    let mut db = setup();
    run(&mut db, "insert into emp values ('a', 1, 1.0, 1), ('b', 2, 2.0, 1)");
    let err = q_err(&db, "select name from emp where salary = (select salary from emp)");
    assert!(matches!(err, QueryError::ScalarSubqueryRows(2)));
    let err = q_err(&db, "select name from emp where salary in (select salary, name from emp)");
    assert!(matches!(err, QueryError::SubqueryColumns(2)));
}

#[test]
fn cross_product_cardinality() {
    let mut db = setup();
    run(&mut db, "insert into emp values ('a', 1, 1.0, 1), ('b', 2, 1.0, 1), ('c', 3, 1.0, 1)");
    run(&mut db, "insert into dept values (1, 1), (2, 2)");
    assert_eq!(q(&db, "select * from emp, dept").len(), 6);
    // Empty factor annihilates.
    run(&mut db, "delete from dept");
    assert_eq!(q(&db, "select * from emp, dept").len(), 0);
}

#[test]
fn like_over_rows() {
    let mut db = setup();
    run(&mut db, "insert into emp values ('Jane', 1, 1.0, 1), ('Jim', 2, 1.0, 1), ('Bill', 3, 1.0, 1)");
    assert_eq!(q(&db, "select name from emp where name like 'J%'").len(), 2);
    assert_eq!(q(&db, "select name from emp where name like '_i%'").len(), 2);
    assert_eq!(q(&db, "select name from emp where name not like 'J%'").len(), 1);
}

#[test]
fn update_with_correlated_subquery_in_set() {
    let mut db = setup();
    run(&mut db, "insert into dept values (1, 77)");
    run(&mut db, "insert into emp values ('a', 1, 1.0, 1), ('b', 2, 1.0, 2)");
    // Set each employee's emp_no to their department's manager (NULL if
    // no department row).
    run(
        &mut db,
        "update emp set emp_no = (select mgr_no from dept where dept.dept_no = emp.dept_no)",
    );
    let rel = q(&db, "select emp_no from emp order by name");
    assert_eq!(rel.rows, vec![vec![Value::Int(77)], vec![Value::Null]]);
}

#[test]
fn delete_with_in_subquery_self_reference() {
    let mut db = setup();
    run(&mut db, "insert into emp values ('a', 1, 10.0, 1), ('b', 2, 99.0, 1), ('c', 3, 10.0, 2)");
    // Delete everyone earning the max salary — the subquery is evaluated
    // against pre-statement state (set-oriented semantics).
    run(&mut db, "delete from emp where salary in (select max(salary) from emp)");
    assert_eq!(q(&db, "select count(*) from emp").rows[0][0], Value::Int(2));
}

#[test]
fn insert_select_self_copy_is_stable() {
    let mut db = setup();
    run(&mut db, "insert into emp values ('a', 1, 1.0, 1)");
    // Self-referential insert-select must snapshot: no infinite feed.
    run(&mut db, "insert into emp (select * from emp)");
    assert_eq!(q(&db, "select count(*) from emp").rows[0][0], Value::Int(2));
}
