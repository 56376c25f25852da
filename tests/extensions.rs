//! The §5 extensions: select-triggered rules with the `S` effect
//! component (§5.1) and external-procedure actions (§5.2).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use setrules_core::{EngineConfig, RuleError, RuleSystem};
use setrules_storage::Value;

fn select_tracking_sys() -> RuleSystem {
    let mut sys = RuleSystem::with_config(EngineConfig { track_selects: true, ..Default::default() });
    sys.execute("create table emp (name text, emp_no int, salary float, dept_no int)").unwrap();
    sys.execute("create table audit (who text, what text)").unwrap();
    sys
}

// ----------------------------------------------------------------------
// §5.1: rules triggered by data retrieval
// ----------------------------------------------------------------------

/// The paper's motivating use: authorization/audit checking on reads —
/// "we might want to define a rule that automatically delivers a summary
/// of employee data whenever salaries are [read]".
#[test]
fn selected_predicate_triggers_on_reads() {
    let mut sys = select_tracking_sys();
    sys.execute(
        "create rule audit_reads when selected emp.salary \
         then insert into audit (select name, 'salary-read' from selected emp.salary)",
    )
    .unwrap();
    sys.execute("insert into emp values ('Jane', 1, 95000.0, 1), ('Bill', 2, 25000.0, 2)").unwrap();

    // A select that touches salaries triggers the audit.
    let out = sys.transaction("select name, salary from emp where dept_no = 1").unwrap();
    assert_eq!(out.fired().len(), 1);
    let audit = sys.query("select who from audit").unwrap();
    assert_eq!(audit.rows, vec![vec![Value::Text("Jane".into())]], "only the read tuple is audited");
}

/// Column granularity: reading only names does not trigger a
/// `selected emp.salary` rule.
#[test]
fn selected_column_granularity() {
    let mut sys = select_tracking_sys();
    sys.execute(
        "create rule audit_reads when selected emp.salary \
         then insert into audit values ('x', 'salary-read')",
    )
    .unwrap();
    sys.execute("insert into emp values ('Jane', 1, 95000.0, 1)").unwrap();
    let out = sys.transaction("select name from emp").unwrap();
    assert!(out.fired().is_empty(), "name-only read does not touch salary");
    // But a wildcard read does.
    let out = sys.transaction("select * from emp").unwrap();
    assert_eq!(out.fired().len(), 1);
}

/// Column attribution follows the `from` item a tuple was read through
/// (§5.1). In a self-join the tuple gets the union of the columns of every
/// item it contributed through: salary read only through `e2` still
/// triggers `selected emp.salary`, and a tuple that joined only through
/// `e1` (which reads no salary) is selected, but not its salary.
#[test]
fn selected_columns_follow_the_items_a_tuple_joined_through() {
    let mut sys = select_tracking_sys();
    sys.execute(
        "create rule salary_reads when selected emp.salary \
         then insert into audit (select name, 'salary' from selected emp.salary)",
    )
    .unwrap();
    sys.execute(
        "create rule any_reads when selected emp \
         then insert into audit (select name, 'any' from selected emp)",
    )
    .unwrap();
    sys.execute("insert into emp values ('Jane', 1, 95000.0, 2), ('Bill', 2, 50.0, 2)").unwrap();
    let audit = |sys: &mut RuleSystem| {
        let rel = sys.query("select who, what from audit order by what, who").unwrap();
        sys.execute("delete from audit").unwrap();
        let text = |v: &Value| match v {
            Value::Text(s) => s.clone(),
            other => panic!("not text: {other:?}"),
        };
        rel.rows.iter().map(|r| format!("{}:{}", text(&r[0]), text(&r[1]))).collect::<Vec<_>>()
    };

    // Each tuple joins itself; salary is read only through `e2`.
    let out = sys
        .transaction(
            "select e1.name from emp e1, emp e2 where e1.emp_no = e2.emp_no and e2.salary > 10.0",
        )
        .unwrap();
    assert_eq!(out.fired().len(), 2, "the e2 salary read fires the column rule");
    assert_eq!(audit(&mut sys), ["Bill:any", "Jane:any", "Bill:salary", "Jane:salary"]);

    // Jane joins only as `e1` (name, dept_no); Bill as both `e1` and `e2`.
    sys.transaction(
        "select e1.name from emp e1, emp e2 where e1.dept_no = e2.emp_no and e2.salary > 10.0",
    )
    .unwrap();
    assert_eq!(audit(&mut sys), ["Bill:any", "Jane:any", "Bill:salary"]);
}

/// With tracking disabled (the default), select operations produce no `S`
/// component and `selected` rules never fire.
#[test]
fn select_tracking_disabled_by_default() {
    let mut sys = RuleSystem::new();
    assert!(!sys.config().track_selects);
    sys.execute("create table emp (name text, emp_no int, salary float, dept_no int)").unwrap();
    sys.execute("create table audit (who text, what text)").unwrap();
    sys.execute(
        "create rule audit_reads when selected emp.salary \
         then insert into audit values ('x', 'r')",
    )
    .unwrap();
    sys.execute("insert into emp values ('Jane', 1, 95000.0, 1)").unwrap();
    let out = sys.transaction("select salary from emp").unwrap();
    assert!(out.fired().is_empty());
}

/// Documented composition choice: a tuple read and then deleted in the
/// same window drops out of `S` (mirrors `U`).
#[test]
fn selected_then_deleted_drops_out() {
    let mut sys = select_tracking_sys();
    sys.execute(
        "create rule audit_reads when selected emp.salary \
         then insert into audit values ('x', 'r')",
    )
    .unwrap();
    sys.execute("insert into emp values ('Jane', 1, 95000.0, 1)").unwrap();
    let out = sys
        .transaction("select salary from emp; delete from emp where emp_no = 1")
        .unwrap();
    assert!(out.fired().is_empty(), "the read tuple was deleted within the window");
}

/// Documented choice: only *top-level* select operations contribute to
/// `S`; embedded selects (subqueries, insert-select sources) do not.
#[test]
fn embedded_selects_do_not_contribute_to_s() {
    let mut sys = select_tracking_sys();
    sys.execute(
        "create rule audit_reads when selected emp \
         then insert into audit values ('x', 'r')",
    )
    .unwrap();
    sys.execute("insert into emp values ('Jane', 1, 95000.0, 1)").unwrap();
    sys.execute("create table copycat (name text, emp_no int, salary float, dept_no int)").unwrap();
    let out = sys.transaction("insert into copycat (select * from emp)").unwrap();
    assert!(out.fired().is_empty(), "the embedded select is an insert source, not a retrieval");
}

/// Data retrieval in rule *actions* (§5.1's other half): a select inside an
/// action produces output, visible in the transaction outcome.
#[test]
fn retrieval_in_rule_action() {
    let mut sys = RuleSystem::new();
    sys.execute("create table emp (name text, emp_no int, salary float, dept_no int)").unwrap();
    sys.execute(
        "create rule summary when updated emp.salary \
         then select name, salary from new updated emp.salary",
    )
    .unwrap();
    sys.execute("insert into emp values ('Jane', 1, 95000.0, 1)").unwrap();
    let out = sys.transaction("update emp set salary = 99000.0").unwrap();
    let setrules_core::TxnOutcome::Committed { output: Some(rel), .. } = out else {
        panic!("expected rule-produced output")
    };
    assert_eq!(rel.rows, vec![vec![Value::Text("Jane".into()), Value::Float(99000.0)]]);
}

// ----------------------------------------------------------------------
// §5.2: external procedure actions
// ----------------------------------------------------------------------

#[test]
fn external_action_runs_and_its_dml_forms_a_transition() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.execute("create table log (k int)").unwrap();
    let calls = Arc::new(AtomicUsize::new(0));
    let calls2 = Arc::clone(&calls);
    sys.create_rule_external(
        "native",
        "inserted into t",
        None,
        Arc::new(move |ctx: &mut setrules_core::ActionCtx<'_>| {
            calls2.fetch_add(1, Ordering::SeqCst);
            // Read the transition table natively.
            let rows = ctx
                .transition_table(setrules_sql::ast::TransitionKind::Inserted, "t", None)
                .map_err(setrules_core::RuleError::Query)?;
            for row in rows {
                let k = row[0].as_i64().unwrap();
                ctx.run_sql(&format!("insert into log values ({})", k * 10))?;
            }
            Ok(())
        }),
    )
    .unwrap();
    // A second declarative rule watches the external action's transition.
    sys.execute("create table seen (n int)").unwrap();
    sys.execute("create rule watch when inserted into log then insert into seen values (1)").unwrap();

    let out = sys.transaction("insert into t values (1), (2)").unwrap();
    assert_eq!(calls.load(Ordering::SeqCst), 1, "set-oriented: one call for both inserts");
    let rules: Vec<&str> = out.fired().iter().map(|f| f.rule.as_str()).collect();
    assert_eq!(rules, vec!["native", "watch"], "the external DML triggered the watcher");
    let logged = sys.query("select k from log order by k").unwrap();
    assert_eq!(logged.rows, vec![vec![Value::Int(10)], vec![Value::Int(20)]]);
}

#[test]
fn external_action_error_rolls_back() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.create_rule_external(
        "fail",
        "inserted into t",
        None,
        Arc::new(|ctx: &mut setrules_core::ActionCtx<'_>| {
            ctx.run_sql("delete from t")?; // does some work first
            Err(RuleError::Unsupported("simulated external failure".into()))
        }),
    )
    .unwrap();
    let err = sys.transaction("insert into t values (1)").unwrap_err();
    assert!(matches!(err, RuleError::Unsupported(_)));
    assert_eq!(
        sys.query("select count(*) from t").unwrap().scalar().unwrap(),
        &Value::Int(0),
        "both the external delete and the original insert were undone"
    );
    assert!(!sys.in_transaction());
}

#[test]
fn external_action_condition_gating() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    let calls = Arc::new(AtomicUsize::new(0));
    let calls2 = Arc::clone(&calls);
    sys.create_rule_external(
        "gated",
        "inserted into t",
        Some("exists (select * from inserted t where k > 100)"),
        Arc::new(move |_ctx: &mut setrules_core::ActionCtx<'_>| {
            calls2.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }),
    )
    .unwrap();
    sys.transaction("insert into t values (1)").unwrap();
    assert_eq!(calls.load(Ordering::SeqCst), 0);
    sys.transaction("insert into t values (101)").unwrap();
    assert_eq!(calls.load(Ordering::SeqCst), 1);
}

/// External actions respect the §3 transition-table licensing too.
#[test]
fn external_action_licensing_enforced() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.create_rule_external(
        "nosy",
        "inserted into t",
        None,
        Arc::new(|ctx: &mut setrules_core::ActionCtx<'_>| {
            let r = ctx.transition_table(setrules_sql::ast::TransitionKind::Deleted, "t", None);
            assert!(r.is_err(), "deleted t is not licensed by 'inserted into t'");
            Ok(())
        }),
    )
    .unwrap();
    sys.transaction("insert into t values (1)").unwrap();
}
