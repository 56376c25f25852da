//! # setrules-instance
//!
//! An **instance-oriented** (per-row) trigger engine over the same storage
//! and query substrate as `setrules-core` — the baseline design the paper
//! contrasts with (§1: "rules that are applied once for each data item
//! satisfying the condition part of the rule", as in `[Esw76, MD89,
//! SJGP90]`).
//!
//! Triggers fire once per affected row, immediately, with `old.c` /
//! `new.c` pseudo-row bindings; their actions are ordinary statements that
//! recurse through the same per-row path. Benchmark B1 uses this engine to
//! regenerate the paper's qualitative claim that set-oriented rules admit
//! efficient set-oriented execution while per-row triggers pay a per-tuple
//! statement cost.
//!
//! ```
//! use setrules_instance::{InstanceEngine, TriggerEvent};
//!
//! let mut eng = InstanceEngine::new();
//! eng.create_table("create table dept (dept_no int, mgr_no int)").unwrap();
//! eng.create_table("create table emp (name text, emp_no int, salary float, dept_no int)").unwrap();
//! // Per-row cascaded delete: Example 3.1, instance-oriented.
//! eng.create_trigger("cascade", "dept", TriggerEvent::Delete, None,
//!     "delete from emp where dept_no = old.dept_no").unwrap();
//! eng.execute("insert into dept values (1, 10)").unwrap();
//! eng.execute("insert into emp values ('Jane', 10, 9.5, 1)").unwrap();
//! eng.execute("delete from dept where dept_no = 1").unwrap();
//! assert!(eng.query("select * from emp").unwrap().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod stats;
pub mod subst;

pub use engine::{InstanceEngine, InstanceError, RowTrigger, TriggerEvent};
pub use stats::InstanceStats;
pub use subst::{bind_expr, bind_op, RowEnv, SubstError};

#[cfg(test)]
mod tests {
    use super::*;
    use setrules_storage::Value;

    fn emp_dept() -> InstanceEngine {
        let mut eng = InstanceEngine::new();
        eng.create_table("create table dept (dept_no int, mgr_no int)").unwrap();
        eng.create_table("create table emp (name text, emp_no int, salary float, dept_no int)")
            .unwrap();
        eng
    }

    #[test]
    fn insert_trigger_fires_per_row() {
        let mut eng = emp_dept();
        eng.create_table("create table log (n int)").unwrap();
        eng.create_trigger("audit", "emp", TriggerEvent::Insert, None, "insert into log values (new.emp_no)")
            .unwrap();
        eng.execute("insert into emp values ('a', 1, 1.0, 1), ('b', 2, 1.0, 1)").unwrap();
        assert_eq!(eng.firings(), 2, "instance-oriented: one firing per row");
        let rel = eng.query("select n from log order by n").unwrap();
        assert_eq!(rel.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    }

    #[test]
    fn delete_trigger_cascades_per_row() {
        let mut eng = emp_dept();
        eng.create_trigger(
            "cascade",
            "dept",
            TriggerEvent::Delete,
            None,
            "delete from emp where dept_no = old.dept_no",
        )
        .unwrap();
        eng.execute("insert into dept values (1, 10), (2, 20)").unwrap();
        eng.execute("insert into emp values ('a', 1, 1.0, 1), ('b', 2, 1.0, 2), ('c', 3, 1.0, 2)")
            .unwrap();
        eng.execute("delete from dept").unwrap();
        assert_eq!(eng.firings(), 2, "one firing per deleted dept row");
        assert!(eng.query("select * from emp").unwrap().is_empty());
    }

    #[test]
    fn update_trigger_with_column_filter_and_condition() {
        let mut eng = emp_dept();
        eng.create_table("create table log (n float)").unwrap();
        eng.create_trigger(
            "raise_watch",
            "emp",
            TriggerEvent::Update(Some("salary".into())),
            Some("new.salary > old.salary"),
            "insert into log values (new.salary - old.salary)",
        )
        .unwrap();
        eng.execute("insert into emp values ('a', 1, 100.0, 1)").unwrap();
        eng.execute("update emp set salary = 150.0").unwrap(); // raise → fires
        eng.execute("update emp set salary = 120.0").unwrap(); // cut → condition false
        eng.execute("update emp set dept_no = 2").unwrap(); // other column → no match
        assert_eq!(eng.firings(), 1);
        let rel = eng.query("select n from log").unwrap();
        assert_eq!(rel.rows, vec![vec![Value::Float(50.0)]]);
    }

    #[test]
    fn recursive_triggers_cascade_transitively() {
        // Manager-cascade (Example 4.1) done per row: deleting an employee
        // deletes their reports, recursively.
        let mut eng = emp_dept();
        eng.create_trigger(
            "mgr_cascade",
            "emp",
            TriggerEvent::Delete,
            None,
            "delete from emp where dept_no in (select dept_no from dept where mgr_no = old.emp_no); \
             delete from dept where mgr_no = old.emp_no",
        )
        .unwrap();
        eng.execute("insert into dept values (1, 1), (2, 2)").unwrap();
        eng.execute(
            "insert into emp values ('r', 1, 1.0, 0), ('m1', 2, 1.0, 1), \
             ('m2', 3, 1.0, 1), ('w1', 4, 1.0, 2), ('w2', 5, 1.0, 2)",
        )
        .unwrap();
        eng.execute("delete from emp where name = 'r'").unwrap();
        assert!(eng.query("select * from emp").unwrap().is_empty());
        assert!(eng.query("select * from dept").unwrap().is_empty());
        // Per-row firings: r, m1, m2, w1, w2 = 5 (vs 3 set-oriented
        // transitions in the rule engine).
        assert_eq!(eng.firings(), 5);
    }

    #[test]
    fn runaway_recursion_hits_depth_limit() {
        let mut eng = emp_dept();
        eng.create_table("create table ping (n int)").unwrap();
        eng.create_trigger("loop", "ping", TriggerEvent::Insert, None, "insert into ping values (new.n + 1)")
            .unwrap();
        let err = eng.execute("insert into ping values (0)").unwrap_err();
        assert!(matches!(err, InstanceError::RecursionLimit(_)));
    }

    #[test]
    fn duplicate_trigger_rejected() {
        let mut eng = emp_dept();
        eng.create_trigger("t1", "emp", TriggerEvent::Insert, None, "delete from dept").unwrap();
        let err = eng
            .create_trigger("t1", "emp", TriggerEvent::Insert, None, "delete from dept")
            .unwrap_err();
        assert!(matches!(err, InstanceError::DuplicateTrigger(_)));
    }

    #[test]
    fn instance_vs_set_orientation_difference() {
        // The paper's key observation: an instance-oriented rule sees one
        // row at a time, so a "total salary" style condition cannot be
        // expressed over the change set — here each row-level firing sees
        // only its own delta.
        let mut eng = emp_dept();
        eng.create_table("create table log (n float)").unwrap();
        eng.create_trigger(
            "delta",
            "emp",
            TriggerEvent::Update(Some("salary".into())),
            None,
            "insert into log values (new.salary - old.salary)",
        )
        .unwrap();
        eng.execute("insert into emp values ('a', 1, 100.0, 1), ('b', 2, 100.0, 1)").unwrap();
        eng.execute("update emp set salary = salary + 10").unwrap();
        let rel = eng.query("select count(*) from log").unwrap();
        assert_eq!(rel.scalar().unwrap(), &Value::Int(2), "two per-row deltas, not one set");
    }
}
