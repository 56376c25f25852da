//! Exact reproductions of every worked example in the paper (§3.1 and
//! §4.5), asserted against the traces the text specifies.
//!
//! Running schema (§3.1): `emp(name, emp_no, salary, dept_no)`,
//! `dept(dept_no, mgr_no)`.

use setrules_core::{RuleSystem, TxnOutcome};
use setrules_storage::Value;

fn paper_db() -> RuleSystem {
    let mut sys = RuleSystem::new();
    sys.execute("create table emp (name text, emp_no int, salary float, dept_no int)").unwrap();
    sys.execute("create table dept (dept_no int, mgr_no int)").unwrap();
    sys
}

fn names(sys: &RuleSystem) -> Vec<String> {
    sys.query("select name from emp order by emp_no")
        .unwrap()
        .rows
        .into_iter()
        .map(|r| r[0].as_str().unwrap().to_string())
        .collect()
}

fn count(sys: &RuleSystem, sql: &str) -> i64 {
    sys.query(sql).unwrap().scalar().unwrap().as_i64().unwrap()
}

/// The engine's event stream rendered one line per event — the golden
/// traces below assert these against the execution narratives in the
/// paper's prose.
fn trace(sys: &RuleSystem) -> Vec<String> {
    // Plan-cache and incremental-eval events are execution-strategy
    // details, not part of the paper's semantics; the golden narratives
    // stay mode-independent.
    sys.recent_events()
        .iter()
        .filter(|e| e.kind() != "plan_cache" && e.kind() != "incremental_eval")
        .map(|e| e.to_string())
        .collect()
}

/// Example 3.1: cascaded delete for referential integrity.
#[test]
fn example_3_1_cascaded_delete() {
    let mut sys = paper_db();
    sys.execute(
        "create rule r31 when deleted from dept \
         then delete from emp where dept_no in (select dept_no from deleted dept)",
    )
    .unwrap();
    sys.execute("insert into dept values (1, 10), (2, 20)").unwrap();
    sys.execute(
        "insert into emp values ('a', 1, 10.0, 1), ('b', 2, 10.0, 1), ('c', 3, 10.0, 2)",
    )
    .unwrap();

    // Deleting department 1 deletes exactly its two employees. The rule's
    // own transition deletes from emp, not dept, so it fires exactly once.
    let out = sys.transaction("delete from dept where dept_no = 1").unwrap();
    let TxnOutcome::Committed { fired, .. } = out else { panic!("must commit") };
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].rule, "r31");
    assert_eq!(fired[0].deleted, 2);
    assert_eq!(names(&sys), vec!["c"]);

    // A delete that touches no departments does not trigger the rule.
    let out = sys.transaction("delete from dept where dept_no = 99").unwrap();
    assert!(out.fired().is_empty());
}

/// Example 3.1, set-orientation: one transition deleting *several*
/// departments is handled by a single rule firing over the whole set.
#[test]
fn example_3_1_is_set_oriented() {
    let mut sys = paper_db();
    sys.execute(
        "create rule r31 when deleted from dept \
         then delete from emp where dept_no in (select dept_no from deleted dept)",
    )
    .unwrap();
    sys.execute("insert into dept values (1, 10), (2, 20), (3, 30)").unwrap();
    sys.execute(
        "insert into emp values ('a', 1, 10.0, 1), ('b', 2, 10.0, 2), ('c', 3, 10.0, 3)",
    )
    .unwrap();
    let out = sys.transaction("delete from dept where dept_no < 3").unwrap();
    assert_eq!(out.fired().len(), 1, "one set-oriented firing covers both departments");
    assert_eq!(out.fired()[0].deleted, 2);
    assert_eq!(names(&sys), vec!["c"]);
}

/// Example 3.2: salary-total control with old/new transition tables.
#[test]
fn example_3_2_salary_totals() {
    let mut sys = paper_db();
    sys.execute(
        "create rule r32 when updated emp.salary \
         if (select sum(salary) from new updated emp.salary) > \
            (select sum(salary) from old updated emp.salary) \
         then update emp set salary = 0.95 * salary where dept_no = 2; \
              update emp set salary = 0.85 * salary where dept_no = 3",
    )
    .unwrap();
    sys.execute(
        "insert into emp values \
         ('u', 1, 1000.0, 1), ('v', 2, 1000.0, 2), ('w', 3, 1000.0, 3)",
    )
    .unwrap();

    // Raise u's salary: total of updated salaries rose, so dept 2 takes a
    // 5% cut and dept 3 a 15% cut.
    let out = sys.transaction("update emp set salary = 2000.0 where name = 'u'").unwrap();
    let fired = out.fired();
    assert_eq!(fired.len(), 1, "the rule re-triggers on its own cuts, but they lowered the total");
    assert_eq!(fired[0].rule, "r32");
    assert_eq!(fired[0].updated, 2, "one firing updates both departments");
    let rel = sys.query("select salary from emp order by emp_no").unwrap();
    assert_eq!(
        rel.rows,
        vec![
            vec![Value::Float(2000.0)],
            vec![Value::Float(950.0)],
            vec![Value::Float(850.0)],
        ]
    );

    // Lowering a salary leaves the condition false: no firing at all.
    let out = sys.transaction("update emp set salary = 1.0 where name = 'u'").unwrap();
    assert!(out.fired().is_empty());
}

/// An update that assigns the same values still triggers the rule (`U` is
/// recorded even for no-op assignments, §2.1) but Example 3.2's strict `>`
/// condition is false.
#[test]
fn example_3_2_no_op_update_triggers_but_condition_false() {
    let mut sys = paper_db();
    sys.execute(
        "create rule r32 when updated emp.salary \
         if (select sum(salary) from new updated emp.salary) > \
            (select sum(salary) from old updated emp.salary) \
         then update emp set salary = 0.95 * salary where dept_no = 2",
    )
    .unwrap();
    sys.execute("insert into emp values ('v', 2, 1000.0, 2)").unwrap();
    let out = sys.transaction("update emp set salary = salary where name = 'v'").unwrap();
    assert!(out.fired().is_empty());
    assert_eq!(count(&sys, "select count(*) from emp where salary = 1000.0"), 1);
}

/// Example 3.3: composite transition predicate with a correlated
/// aggregate condition.
#[test]
fn example_3_3_composite_predicate() {
    let mut sys = paper_db();
    sys.execute(
        "create rule r33 when inserted into emp or deleted from emp \
           or updated emp.salary or updated emp.dept_no \
         if exists (select * from emp e1 where salary > \
             2 * (select avg(salary) from emp e2 where e2.dept_no = e1.dept_no)) \
         then delete from emp where emp_no = \
             (select mgr_no from dept where dept_no = 5)",
    )
    .unwrap();
    sys.execute("insert into dept values (5, 50)").unwrap();
    sys.execute(
        "insert into emp values ('mgr5', 50, 100.0, 4), \
         ('x', 10, 100.0, 1), ('y', 11, 100.0, 1)",
    )
    .unwrap();
    // So far nobody is overpaid (dept 4 has one member: salary == avg).
    assert_eq!(count(&sys, "select count(*) from emp"), 3);

    // Insert an employee earning more than twice dept 1's average:
    // avg(100, 100, 1000) = 400; 1000 > 800. The manager of dept 5 dies.
    let out = sys.transaction("insert into emp values ('z', 12, 1000.0, 1)").unwrap();
    let fired = out.fired();
    // First firing deletes mgr5; the rule re-triggers on that deletion and
    // the condition still holds, but the second delete matches nobody —
    // and an empty transition ends the cascade.
    assert_eq!(fired.len(), 2);
    assert_eq!(fired[0].deleted, 1);
    assert_eq!(fired[1].deleted, 0);
    assert_eq!(names(&sys), vec!["x", "y", "z"]);

    // The same rule also watches dept_no updates.
    sys.execute("insert into emp values ('mgr5b', 51, 100.0, 4)").unwrap();
    sys.execute("update dept set mgr_no = 51 where dept_no = 5").unwrap();
    let out = sys.transaction("update emp set dept_no = 1 where name = 'mgr5b'").unwrap();
    assert_eq!(out.fired().len(), 2, "updated emp.dept_no triggers it; mgr5b deleted, then empty");
    assert_eq!(names(&sys), vec!["x", "y", "z"]);
}

/// Example 4.1: recursive manager-cascade delete — a self-triggering rule
/// whose cascade terminates when a transition deletes no employees.
#[test]
fn example_4_1_recursive_cascade() {
    let mut sys = paper_db();
    sys.execute(
        "create rule r41 when deleted from emp \
         then delete from emp where dept_no in \
                (select dept_no from dept where mgr_no in \
                  (select emp_no from deleted emp)); \
              delete from dept where mgr_no in \
                (select emp_no from deleted emp)",
    )
    .unwrap();
    // Three-level hierarchy: root r (emp 1) manages dept 1 = {m1, m2};
    // m1 (emp 2) manages dept 2 = {w1, w2}; m2 manages nothing.
    sys.execute("insert into dept values (1, 1), (2, 2)").unwrap();
    sys.execute(
        "insert into emp values ('r', 1, 1.0, 0), ('m1', 2, 1.0, 1), \
         ('m2', 3, 1.0, 1), ('w1', 4, 1.0, 2), ('w2', 5, 1.0, 2)",
    )
    .unwrap();

    let out = sys.transaction("delete from emp where name = 'r'").unwrap();
    let fired = out.fired();
    // Firing 1 (deleted {r}): deletes m1, m2 and dept 1 → 3 tuples.
    // Firing 2 (deleted {m1, m2}): deletes w1, w2 and dept 2 → 3 tuples.
    // Firing 3 (deleted {w1, w2}): nothing managed → 0 tuples; the empty
    // transition ends the cascade ("until execution of the rule's action
    // deletes no further employees").
    assert_eq!(fired.iter().map(|f| f.deleted).collect::<Vec<_>>(), vec![3, 3, 0]);
    assert_eq!(count(&sys, "select count(*) from emp"), 0);
    assert_eq!(count(&sys, "select count(*) from dept"), 0);

    // Cascade cost tracks depth (§4.1): reaping a complete `fanout`-ary
    // tree takes one set-oriented firing per level, not per node.
    for (depth, fanout) in [(4, 5), (5, 3), (7, 2)] {
        sys.execute("insert into emp values ('root', 0, 1.0, -1)").unwrap();
        let mut level = vec![0];
        let mut next = 1;
        for _ in 1..depth {
            let mut below = Vec::new();
            for &mgr in &level {
                sys.execute(&format!("insert into dept values ({mgr}, {mgr})")).unwrap();
                for _ in 0..fanout {
                    sys.execute(&format!("insert into emp values ('e', {next}, 1.0, {mgr})"))
                        .unwrap();
                    below.push(next);
                    next += 1;
                }
            }
            level = below;
        }
        let out = sys.transaction("delete from emp where emp_no = 0").unwrap();
        assert_eq!(out.fired().len(), depth, "depth {depth}, fan-out {fanout}");
        assert_eq!(count(&sys, "select count(*) from emp"), 0);
    }
}

/// Example 4.2: the paper's Bill/Mary salary scenario, verbatim.
#[test]
fn example_4_2_salary_update_control() {
    let mut sys = paper_db();
    sys.execute(
        "create rule r42 when updated emp.salary \
         if (select avg(salary) from new updated emp.salary) > 50000 \
         then delete from emp where emp_no in \
                (select emp_no from new updated emp.salary) \
              and salary > 80000",
    )
    .unwrap();
    sys.execute(
        "insert into emp values ('Bill', 1, 25000.0, 1), ('Mary', 2, 70000.0, 1)",
    )
    .unwrap();

    // "updates Bill's salary from 25K to 30K and updates Mary's salary
    // from 70K to 85K" — avg(30K, 85K) = 57.5K > 50K, so the action runs
    // and "employee Mary is deleted".
    let out = sys
        .transaction(
            "update emp set salary = 30000.0 where name = 'Bill'; \
             update emp set salary = 85000.0 where name = 'Mary'",
        )
        .unwrap();
    assert_eq!(out.fired().len(), 1);
    assert_eq!(out.fired()[0].deleted, 1);
    assert_eq!(names(&sys), vec!["Bill"]);
}

/// Example 4.2, negative case: if the average stays at or below 50K the
/// rule is triggered but its condition fails.
#[test]
fn example_4_2_condition_false() {
    let mut sys = paper_db();
    sys.execute(
        "create rule r42 when updated emp.salary \
         if (select avg(salary) from new updated emp.salary) > 50000 \
         then delete from emp where emp_no in \
                (select emp_no from new updated emp.salary) \
              and salary > 80000",
    )
    .unwrap();
    sys.execute("insert into emp values ('Bill', 1, 25000.0, 1)").unwrap();
    let out = sys.transaction("update emp set salary = 30000.0").unwrap();
    assert!(out.fired().is_empty());
    assert_eq!(names(&sys), vec!["Bill"]);
}

fn define_r1_r2(sys: &mut RuleSystem) {
    // R1 = Example 4.1's recursive cascade.
    sys.execute(
        "create rule r1 when deleted from emp \
         then delete from emp where dept_no in \
                (select dept_no from dept where mgr_no in \
                  (select emp_no from deleted emp)); \
              delete from dept where mgr_no in \
                (select emp_no from deleted emp)",
    )
    .unwrap();
    // R2 = Example 4.2's salary control.
    sys.execute(
        "create rule r2 when updated emp.salary \
         if (select avg(salary) from new updated emp.salary) > 50000 \
         then delete from emp where emp_no in \
                (select emp_no from new updated emp.salary) \
              and salary > 80000",
    )
    .unwrap();
}

fn load_org(sys: &mut RuleSystem) {
    // "Jane manages Mary and Jim; Mary manages Bill; Jim manages Sam and
    // Sue." Jane=1, Mary=2, Jim=3, Bill=4, Sam=5, Sue=6; Jane manages
    // dept 1 = {Mary, Jim}, Mary dept 2 = {Bill}, Jim dept 3 = {Sam, Sue}.
    sys.execute("insert into dept values (1, 1), (2, 2), (3, 3)").unwrap();
    sys.execute(
        "insert into emp values \
         ('Jane', 1, 100000.0, 0), ('Mary', 2, 70000.0, 1), ('Jim', 3, 60000.0, 1), \
         ('Bill', 4, 25000.0, 2), ('Sam', 5, 40000.0, 3), ('Sue', 6, 45000.0, 3)",
    )
    .unwrap();
}

const EXAMPLE_4_3_BLOCK: &str = "delete from emp where name = 'Jane'; \
     update emp set salary = 30000.0 where name = 'Bill'; \
     update emp set salary = 85000.0 where name = 'Mary'";

/// Example 4.3: rules R1 (Example 4.1) and R2 (Example 4.2) defined
/// together, with R2 prioritized over R1 — the paper's full interaction
/// trace.
#[test]
fn example_4_3_rule_interaction_trace() {
    let mut sys = paper_db();
    define_r1_r2(&mut sys);
    // "Let the rules be ordered so that rule R2 has priority over rule R1."
    sys.execute("create rule priority r2 before r1").unwrap();
    load_org(&mut sys);

    // One externally-generated operation block: delete Jane; update Bill's
    // and Mary's salaries so the updated average exceeds 50K and Mary's
    // exceeds 80K.
    let out = sys.transaction(EXAMPLE_4_3_BLOCK).unwrap();

    let fired = out.fired();
    let summary: Vec<(&str, usize)> =
        fired.iter().map(|f| (f.rule.as_str(), f.deleted)).collect();
    assert_eq!(
        summary,
        vec![
            // "Rule R2 executes its action, deleting employee Mary; R2 is
            // not triggered again."
            ("r2", 1),
            // "Rule R1 is considered with respect to the composite change
            // since the initial state, thus the set of deleted employees is
            // now {Jane, Mary}. … Employees Bill and Jim are deleted by
            // this transition" (plus departments 1 and 2).
            ("r1", 4),
            // "Now the rule is considered only relative to the effect of
            // the most recent transition, so the set of deleted employees
            // is {Bill, Jim}. … employees Sam and Sue are deleted" (plus
            // department 3).
            ("r1", 3),
            // "executes a third time relative to set {Sam, Sue} of deleted
            // employees, but no additional employees are deleted."
            ("r1", 0),
        ],
        "the paper's exact interaction trace"
    );
    assert_eq!(count(&sys, "select count(*) from emp"), 0);
    assert_eq!(count(&sys, "select count(*) from dept"), 0);
}

/// Example 4.3 variant with the priority reversed: R1 reaps the whole
/// tree first, and composition then *untriggers* R2 — the salary-update
/// entries vanish from its window because the updated tuples were
/// subsequently deleted (the "trigger permanence" question of §1,
/// answered by Definition 2.1).
#[test]
fn example_4_3_reversed_priority_untriggers_r2() {
    let mut sys = paper_db();
    define_r1_r2(&mut sys);
    sys.execute("create rule priority r1 before r2").unwrap();
    load_org(&mut sys);

    let out = sys.transaction(EXAMPLE_4_3_BLOCK).unwrap();
    let fired = out.fired();
    let summary: Vec<(&str, usize)> =
        fired.iter().map(|f| (f.rule.as_str(), f.deleted)).collect();
    assert_eq!(
        summary,
        vec![
            // R1 w.r.t. {Jane}: deletes Mary, Jim + dept 1.
            ("r1", 3),
            // R1 w.r.t. {Mary, Jim}: deletes Bill, Sam, Sue + depts 2, 3.
            ("r1", 5),
            // R1 w.r.t. {Bill, Sam, Sue}: nothing left.
            ("r1", 0),
            // R2 never fires: Mary's and Bill's salary updates composed
            // away when the tuples were deleted.
        ],
    );
    assert_eq!(count(&sys, "select count(*) from emp"), 0);
}

// ----------------------------------------------------------------------
// Golden event traces: the same examples, asserted at the granularity of
// the engine's structured event stream. Each trace is checked line by
// line against the paper's execution narrative.
// ----------------------------------------------------------------------

/// Example 3.1 as a golden trace: one external transition, one rule
/// firing, and a window restart after the action (the rule's own
/// transition deletes no departments, so the cascade ends).
#[test]
fn example_3_1_golden_trace() {
    let mut sys = paper_db();
    sys.execute(
        "create rule r31 when deleted from dept \
         then delete from emp where dept_no in (select dept_no from deleted dept)",
    )
    .unwrap();
    sys.execute("insert into dept values (1, 10), (2, 20)").unwrap();
    sys.execute(
        "insert into emp values ('a', 1, 10.0, 1), ('b', 2, 10.0, 1), ('c', 3, 10.0, 2)",
    )
    .unwrap();
    sys.clear_events();
    sys.transaction("delete from dept where dept_no = 1").unwrap();
    assert_eq!(
        trace(&sys),
        vec![
            "txn begin",
            "external block absorbed (I=0 D=1 U=0 S=0)",
            "trans-info init for 'r31'",
            "rule 'r31' considered",
            "rule 'r31' executed (I=0 D=2 U=0)",
            "trans-info init for 'r31'",
            "txn commit (1 fired, 1 transitions)",
        ],
    );
}

/// Example 3.2's no-op update as a golden trace: the update still
/// triggers the rule (§2.1 records `U` even for identity assignments),
/// but the strict `>` condition is false — consideration without
/// execution.
#[test]
fn example_3_2_condition_false_golden_trace() {
    let mut sys = paper_db();
    sys.execute(
        "create rule r32 when updated emp.salary \
         if (select sum(salary) from new updated emp.salary) > \
            (select sum(salary) from old updated emp.salary) \
         then update emp set salary = 0.95 * salary where dept_no = 2",
    )
    .unwrap();
    sys.execute("insert into emp values ('v', 2, 1000.0, 2)").unwrap();
    sys.clear_events();
    sys.transaction("update emp set salary = salary where name = 'v'").unwrap();
    assert_eq!(
        trace(&sys),
        vec![
            "txn begin",
            "external block absorbed (I=0 D=0 U=1 S=0)",
            "trans-info init for 'r32'",
            "rule 'r32' considered",
            "rule 'r32' condition false",
            "txn commit (0 fired, 0 transitions)",
        ],
    );
}

/// Example 4.1 as a golden trace: the recursive cascade shows the §4.2
/// re-triggering discipline — after each execution the acting rule's
/// window restarts (`trans-info init`), and each further consideration is
/// flagged as a re-trigger.
#[test]
fn example_4_1_golden_trace() {
    let mut sys = paper_db();
    sys.execute(
        "create rule r41 when deleted from emp \
         then delete from emp where dept_no in \
                (select dept_no from dept where mgr_no in \
                  (select emp_no from deleted emp)); \
              delete from dept where mgr_no in \
                (select emp_no from deleted emp)",
    )
    .unwrap();
    sys.execute("insert into dept values (1, 1), (2, 2)").unwrap();
    sys.execute(
        "insert into emp values ('r', 1, 1.0, 0), ('m1', 2, 1.0, 1), \
         ('m2', 3, 1.0, 1), ('w1', 4, 1.0, 2), ('w2', 5, 1.0, 2)",
    )
    .unwrap();
    sys.clear_events();
    sys.transaction("delete from emp where name = 'r'").unwrap();
    assert_eq!(
        trace(&sys),
        vec![
            "txn begin",
            "external block absorbed (I=0 D=1 U=0 S=0)",
            "trans-info init for 'r41'",
            // Firing 1 w.r.t. deleted {r}: m1, m2 and dept 1 go.
            "rule 'r41' considered",
            "rule 'r41' executed (I=0 D=3 U=0)",
            "trans-info init for 'r41'",
            // Firing 2 w.r.t. deleted {m1, m2}: w1, w2 and dept 2 go.
            "rule 'r41' re-triggered",
            "rule 'r41' considered",
            "rule 'r41' executed (I=0 D=3 U=0)",
            "trans-info init for 'r41'",
            // Firing 3 w.r.t. deleted {w1, w2}: nothing managed — the
            // empty transition ends the cascade.
            "rule 'r41' re-triggered",
            "rule 'r41' considered",
            "rule 'r41' executed (I=0 D=0 U=0)",
            "trans-info init for 'r41'",
            "txn commit (3 fired, 3 transitions)",
        ],
    );
}

/// Example 4.3 as a golden trace: the paper's full R1/R2 interleaving,
/// event by event. The `trans-info modify for 'r1'` line after R2's
/// execution is the composition step the prose describes: "Rule R1 is
/// considered with respect to the composite change since the initial
/// state, thus the set of deleted employees is now {Jane, Mary}."
#[test]
fn example_4_3_golden_trace() {
    let mut sys = paper_db();
    define_r1_r2(&mut sys);
    sys.execute("create rule priority r2 before r1").unwrap();
    load_org(&mut sys);
    sys.clear_events();
    sys.transaction(EXAMPLE_4_3_BLOCK).unwrap();
    assert_eq!(
        trace(&sys),
        vec![
            "txn begin",
            // One external block: delete Jane, update Bill's and Mary's
            // salaries. Both rules are triggered and get fresh windows.
            "external block absorbed (I=0 D=1 U=2 S=0)",
            "trans-info init for 'r1'",
            "trans-info init for 'r2'",
            // R2 has priority: it executes, deleting Mary. Its deletion
            // composes into R1's window (Jane + Mary) and cancels Mary's
            // salary update out of its own restarted window — "R2 is not
            // triggered again".
            "rule 'r2' considered",
            "rule 'r2' executed (I=0 D=1 U=0)",
            "trans-info modify for 'r1'",
            "trans-info init for 'r2'",
            // R1 w.r.t. deleted {Jane, Mary}: Bill, Jim and depts 1, 2.
            "rule 'r1' considered",
            "rule 'r1' executed (I=0 D=4 U=0)",
            "trans-info init for 'r1'",
            // R1 re-triggered w.r.t. deleted {Bill, Jim}: Sam, Sue, dept 3.
            "rule 'r1' re-triggered",
            "rule 'r1' considered",
            "rule 'r1' executed (I=0 D=3 U=0)",
            "trans-info init for 'r1'",
            // R1 re-triggered w.r.t. deleted {Sam, Sue}: "no additional
            // employees are deleted".
            "rule 'r1' re-triggered",
            "rule 'r1' considered",
            "rule 'r1' executed (I=0 D=0 U=0)",
            "trans-info init for 'r1'",
            "txn commit (4 fired, 4 transitions)",
        ],
        "the paper's Example 4.3 interleaving, at event granularity"
    );
}

/// The reversed-priority variant at event granularity: R2 receives its
/// initial window but is never even *considered* — R1's deletions
/// composed the salary updates away before R2's turn came (Definition
/// 2.1 untriggering).
#[test]
fn example_4_3_reversed_golden_trace() {
    let mut sys = paper_db();
    define_r1_r2(&mut sys);
    sys.execute("create rule priority r1 before r2").unwrap();
    load_org(&mut sys);
    sys.clear_events();
    sys.transaction(EXAMPLE_4_3_BLOCK).unwrap();
    let t = trace(&sys);
    assert_eq!(
        t,
        vec![
            "txn begin",
            "external block absorbed (I=0 D=1 U=2 S=0)",
            "trans-info init for 'r1'",
            "trans-info init for 'r2'",
            "rule 'r1' considered",
            "rule 'r1' executed (I=0 D=3 U=0)",
            "trans-info init for 'r1'",
            "rule 'r1' re-triggered",
            "rule 'r1' considered",
            "rule 'r1' executed (I=0 D=5 U=0)",
            "trans-info init for 'r1'",
            "rule 'r1' re-triggered",
            "rule 'r1' considered",
            "rule 'r1' executed (I=0 D=0 U=0)",
            "trans-info init for 'r1'",
            "txn commit (3 fired, 3 transitions)",
        ],
    );
    assert!(
        !t.iter().any(|l| l.contains("'r2' considered")),
        "r2 was untriggered before it could be considered"
    );
}
