//! # setrules-constraints
//!
//! Semi-automatic translation of declarative integrity constraints into
//! set-oriented production rules — the facility sketched in §6 of Widom &
//! Finkelstein (SIGMOD 1990) and developed in the companion paper
//! \[CW90\] (Ceri & Widom, *Deriving Production Rules for Constraint
//! Maintenance*, VLDB 1990): "the user defines integrity constraints in a
//! high-level non-procedural language \[and\] the system performs
//! semi-automatic translation of these constraints into sets of lower-level
//! production rules that maintain the constraints."
//!
//! Each [`Constraint`] compiles to one or more `create rule` statements;
//! [`install`] defines them on a [`RuleSystem`]. Violations are either
//! *repaired* (cascade / set-null / set-default, following Example 3.1's
//! "cascaded delete" pattern) or *rejected* with a `rollback` action.
//!
//! ```
//! use setrules_core::RuleSystem;
//! use setrules_constraints::{install, Constraint, RepairPolicy};
//!
//! let mut sys = RuleSystem::new();
//! sys.execute("create table dept (dept_no int, mgr_no int)").unwrap();
//! sys.execute("create table emp (name text, emp_no int, salary float, dept_no int)").unwrap();
//! install(&mut sys, &Constraint::referential("emp_dept", "emp", "dept_no", "dept", "dept_no",
//!     RepairPolicy::Cascade)).unwrap();
//! sys.execute("insert into dept values (1, 10)").unwrap();
//! sys.execute("insert into emp values ('Jane', 10, 9.5, 1)").unwrap();
//! sys.execute("delete from dept where dept_no = 1").unwrap();
//! assert!(sys.query("select * from emp").unwrap().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use setrules_core::{RuleError, RuleId, RuleSystem};
use setrules_storage::Value;

/// What to do with orphaned child rows when a referenced parent key
/// disappears (by delete or key update).
#[derive(Debug, Clone, PartialEq)]
pub enum RepairPolicy {
    /// Delete the orphans (Example 3.1's cascaded delete).
    Cascade,
    /// Reject the transaction (`rollback`).
    Restrict,
    /// Set the orphaned foreign keys to `NULL`.
    SetNull,
    /// Set the orphaned foreign keys to a default value.
    SetDefault(Value),
}

/// A declarative integrity constraint.
#[derive(Debug, Clone, PartialEq)]
pub enum Constraint {
    /// Every non-null `child.child_column` must equal some
    /// `parent.parent_column`.
    ReferentialIntegrity {
        /// Constraint name (prefixes the generated rule names).
        name: String,
        /// Referencing table.
        child_table: String,
        /// Referencing (foreign-key) column.
        child_column: String,
        /// Referenced table.
        parent_table: String,
        /// Referenced (key) column.
        parent_column: String,
        /// Repair policy for parent-side violations. Child-side
        /// violations (inserting or re-pointing to a missing parent)
        /// always roll back.
        policy: RepairPolicy,
    },
    /// `table.column` must never be `NULL`.
    NotNull {
        /// Constraint name.
        name: String,
        /// Table.
        table: String,
        /// Column.
        column: String,
    },
    /// `table.column` values must be unique (among non-null values).
    Unique {
        /// Constraint name.
        name: String,
        /// Table.
        table: String,
        /// Column.
        column: String,
    },
    /// Every row of `table` must satisfy `predicate` (an SQL boolean
    /// expression over the row's columns; rows where it evaluates to
    /// *unknown* pass, like SQL `CHECK`).
    Check {
        /// Constraint name.
        name: String,
        /// Table.
        table: String,
        /// The row predicate, as SQL text.
        predicate: String,
    },
}

impl Constraint {
    /// Convenience constructor for referential integrity.
    pub fn referential(
        name: &str,
        child_table: &str,
        child_column: &str,
        parent_table: &str,
        parent_column: &str,
        policy: RepairPolicy,
    ) -> Constraint {
        Constraint::ReferentialIntegrity {
            name: name.into(),
            child_table: child_table.into(),
            child_column: child_column.into(),
            parent_table: parent_table.into(),
            parent_column: parent_column.into(),
            policy,
        }
    }

    /// The constraint's name.
    pub fn name(&self) -> &str {
        match self {
            Constraint::ReferentialIntegrity { name, .. }
            | Constraint::NotNull { name, .. }
            | Constraint::Unique { name, .. }
            | Constraint::Check { name, .. } => name,
        }
    }
}

/// Compile a constraint into `create rule` statements (returned as SQL
/// text so they can be inspected, stored, or edited — the
/// "semi-automatic" part of \[CW90\]).
pub fn compile(c: &Constraint) -> Vec<String> {
    match c {
        Constraint::ReferentialIntegrity {
            name,
            child_table: ct,
            child_column: cc,
            parent_table: pt,
            parent_column: pc,
            policy,
        } => {
            // A parent key has *departed* if it was deleted or updated away
            // and no other live parent row still carries it.
            let departed_by_delete =
                format!("{cc} in (select {pc} from deleted {pt}) and {cc} not in (select {pc} from {pt})");
            let departed_by_update = format!(
                "{cc} in (select {pc} from old updated {pt}.{pc}) and {cc} not in (select {pc} from {pt})"
            );
            let repair = |cond: &str| -> String {
                match policy {
                    RepairPolicy::Cascade => format!("delete from {ct} where {cond}"),
                    RepairPolicy::Restrict => unreachable!("handled separately"),
                    RepairPolicy::SetNull => {
                        format!("update {ct} set {cc} = NULL where {cond}")
                    }
                    RepairPolicy::SetDefault(v) => {
                        format!("update {ct} set {cc} = {v} where {cond}")
                    }
                }
            };
            let mut rules = Vec::new();
            if matches!(policy, RepairPolicy::Restrict) {
                rules.push(format!(
                    "create rule {name}_parent_delete when deleted from {pt} \
                     if exists (select * from {ct} where {departed_by_delete}) then rollback"
                ));
                rules.push(format!(
                    "create rule {name}_parent_update when updated {pt}.{pc} \
                     if exists (select * from {ct} where {departed_by_update}) then rollback"
                ));
            } else {
                rules.push(format!(
                    "create rule {name}_parent_delete when deleted from {pt} then {}",
                    repair(&departed_by_delete)
                ));
                rules.push(format!(
                    "create rule {name}_parent_update when updated {pt}.{pc} then {}",
                    repair(&departed_by_update)
                ));
            }
            // Child-side: inserting or re-pointing a child at a missing
            // parent is always an error.
            rules.push(format!(
                "create rule {name}_child_check \
                 when inserted into {ct} or updated {ct}.{cc} \
                 if exists (select * from inserted {ct} where {cc} is not null \
                            and {cc} not in (select {pc} from {pt})) \
                 or exists (select * from new updated {ct}.{cc} where {cc} is not null \
                            and {cc} not in (select {pc} from {pt})) \
                 then rollback"
            ));
            rules
        }
        Constraint::NotNull { name, table, column } => vec![format!(
            "create rule {name}_notnull \
             when inserted into {table} or updated {table}.{column} \
             if exists (select * from inserted {table} where {column} is null) \
             or exists (select * from new updated {table}.{column} where {column} is null) \
             then rollback"
        )],
        Constraint::Unique { name, table, column } => vec![format!(
            "create rule {name}_unique \
             when inserted into {table} or updated {table}.{column} \
             if exists (select {column} from {table} where {column} is not null \
                        group by {column} having count(*) > 1) \
             then rollback"
        )],
        Constraint::Check { name, table, predicate } => vec![format!(
            "create rule {name}_check \
             when inserted into {table} or updated {table} \
             if exists (select * from {table} where not ({predicate})) \
             then rollback"
        )],
    }
}

/// Compile and define a constraint's rules on a system. Returns the rule
/// ids in definition order.
pub fn install(sys: &mut RuleSystem, c: &Constraint) -> Result<Vec<RuleId>, RuleError> {
    let mut ids = Vec::new();
    for sql in compile(c) {
        ids.push(sys.create_rule_str(&sql)?);
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emp_dept() -> RuleSystem {
        let mut sys = RuleSystem::new();
        sys.execute("create table dept (dept_no int, mgr_no int)").unwrap();
        sys.execute("create table emp (name text, emp_no int, salary float, dept_no int)")
            .unwrap();
        sys
    }

    fn counts(sys: &RuleSystem) -> (i64, i64) {
        let e = sys.query("select count(*) from emp").unwrap().scalar().unwrap().as_i64().unwrap();
        let d = sys.query("select count(*) from dept").unwrap().scalar().unwrap().as_i64().unwrap();
        (e, d)
    }

    #[test]
    fn compiled_sql_parses() {
        for policy in [
            RepairPolicy::Cascade,
            RepairPolicy::Restrict,
            RepairPolicy::SetNull,
            RepairPolicy::SetDefault(Value::Int(0)),
        ] {
            let c = Constraint::referential("ri", "emp", "dept_no", "dept", "dept_no", policy);
            for sql in compile(&c) {
                setrules_sql::parse_statement(&sql)
                    .unwrap_or_else(|e| panic!("generated SQL must parse: {e}\n{sql}"));
            }
        }
    }

    #[test]
    fn cascade_on_parent_delete() {
        let mut sys = emp_dept();
        install(
            &mut sys,
            &Constraint::referential("ri", "emp", "dept_no", "dept", "dept_no", RepairPolicy::Cascade),
        )
        .unwrap();
        sys.execute("insert into dept values (1, 10), (2, 20)").unwrap();
        sys.execute("insert into emp values ('a', 1, 1.0, 1), ('b', 2, 1.0, 2)").unwrap();
        sys.execute("delete from dept where dept_no = 1").unwrap();
        assert_eq!(counts(&sys), (1, 1));
    }

    #[test]
    fn cascade_respects_duplicate_parent_keys() {
        let mut sys = emp_dept();
        install(
            &mut sys,
            &Constraint::referential("ri", "emp", "dept_no", "dept", "dept_no", RepairPolicy::Cascade),
        )
        .unwrap();
        // Two dept rows share dept_no 1 (the schema allows duplicates);
        // deleting one of them must not orphan-cascade.
        sys.execute("insert into dept values (1, 10), (1, 11)").unwrap();
        sys.execute("insert into emp values ('a', 1, 1.0, 1)").unwrap();
        sys.execute("delete from dept where mgr_no = 10").unwrap();
        assert_eq!(counts(&sys), (1, 1), "a parent with key 1 remains");
        sys.execute("delete from dept where mgr_no = 11").unwrap();
        assert_eq!(counts(&sys), (0, 0), "last parent gone, cascade fires");
    }

    #[test]
    fn cascade_on_parent_key_update() {
        let mut sys = emp_dept();
        install(
            &mut sys,
            &Constraint::referential("ri", "emp", "dept_no", "dept", "dept_no", RepairPolicy::Cascade),
        )
        .unwrap();
        sys.execute("insert into dept values (1, 10)").unwrap();
        sys.execute("insert into emp values ('a', 1, 1.0, 1)").unwrap();
        // Renumbering the department orphans its employees.
        let out = sys.transaction("update dept set dept_no = 9 where dept_no = 1").unwrap();
        assert!(out.committed());
        assert_eq!(counts(&sys), (0, 1));
    }

    #[test]
    fn restrict_rolls_back_parent_delete() {
        let mut sys = emp_dept();
        install(
            &mut sys,
            &Constraint::referential("ri", "emp", "dept_no", "dept", "dept_no", RepairPolicy::Restrict),
        )
        .unwrap();
        sys.execute("insert into dept values (1, 10)").unwrap();
        sys.execute("insert into emp values ('a', 1, 1.0, 1)").unwrap();
        let out = sys.transaction("delete from dept where dept_no = 1").unwrap();
        assert!(!out.committed());
        assert_eq!(counts(&sys), (1, 1));
        // Deleting the child first makes the parent delete legal.
        sys.execute("delete from emp").unwrap();
        let out = sys.transaction("delete from dept where dept_no = 1").unwrap();
        assert!(out.committed());
    }

    #[test]
    fn restrict_allows_delete_of_child_and_parent_in_one_block() {
        let mut sys = emp_dept();
        install(
            &mut sys,
            &Constraint::referential("ri", "emp", "dept_no", "dept", "dept_no", RepairPolicy::Restrict),
        )
        .unwrap();
        sys.execute("insert into dept values (1, 10)").unwrap();
        sys.execute("insert into emp values ('a', 1, 1.0, 1)").unwrap();
        // Set-oriented checking at the transition level: deleting both in
        // one block leaves no violation.
        let out = sys
            .transaction("delete from emp where dept_no = 1; delete from dept where dept_no = 1")
            .unwrap();
        assert!(out.committed());
        assert_eq!(counts(&sys), (0, 0));
    }

    #[test]
    fn set_null_and_set_default() {
        let mut sys = emp_dept();
        install(
            &mut sys,
            &Constraint::referential("ri", "emp", "dept_no", "dept", "dept_no", RepairPolicy::SetNull),
        )
        .unwrap();
        sys.execute("insert into dept values (1, 10)").unwrap();
        sys.execute("insert into emp values ('a', 1, 1.0, 1)").unwrap();
        sys.execute("delete from dept where dept_no = 1").unwrap();
        let rel = sys.query("select dept_no from emp").unwrap();
        assert_eq!(rel.rows, vec![vec![Value::Null]]);

        let mut sys = emp_dept();
        sys.execute("insert into dept values (0, 0)").unwrap(); // the default parent
        install(
            &mut sys,
            &Constraint::referential(
                "ri",
                "emp",
                "dept_no",
                "dept",
                "dept_no",
                RepairPolicy::SetDefault(Value::Int(0)),
            ),
        )
        .unwrap();
        sys.execute("insert into dept values (1, 10)").unwrap();
        sys.execute("insert into emp values ('a', 1, 1.0, 1)").unwrap();
        sys.execute("delete from dept where dept_no = 1").unwrap();
        let rel = sys.query("select dept_no from emp").unwrap();
        assert_eq!(rel.rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn orphan_insert_rejected_null_allowed() {
        let mut sys = emp_dept();
        install(
            &mut sys,
            &Constraint::referential("ri", "emp", "dept_no", "dept", "dept_no", RepairPolicy::Cascade),
        )
        .unwrap();
        sys.execute("insert into dept values (1, 10)").unwrap();
        let out = sys.transaction("insert into emp values ('a', 1, 1.0, 99)").unwrap();
        assert!(!out.committed(), "dept 99 does not exist");
        let out = sys.transaction("insert into emp values ('a', 1, 1.0, NULL)").unwrap();
        assert!(out.committed(), "null foreign keys are allowed");
        let out = sys.transaction("insert into emp values ('b', 2, 1.0, 1)").unwrap();
        assert!(out.committed());
        // Re-pointing at a missing parent is also rejected.
        let out = sys.transaction("update emp set dept_no = 42 where name = 'b'").unwrap();
        assert!(!out.committed());
    }

    #[test]
    fn not_null_constraint() {
        let mut sys = emp_dept();
        install(
            &mut sys,
            &Constraint::NotNull { name: "nn".into(), table: "emp".into(), column: "name".into() },
        )
        .unwrap();
        let out = sys.transaction("insert into emp values (NULL, 1, 1.0, 1)").unwrap();
        assert!(!out.committed());
        let out = sys.transaction("insert into emp values ('a', 1, 1.0, 1)").unwrap();
        assert!(out.committed());
        let out = sys.transaction("update emp set name = NULL").unwrap();
        assert!(!out.committed());
    }

    #[test]
    fn unique_constraint() {
        let mut sys = emp_dept();
        install(
            &mut sys,
            &Constraint::Unique { name: "uq".into(), table: "emp".into(), column: "emp_no".into() },
        )
        .unwrap();
        sys.execute("insert into emp values ('a', 1, 1.0, 1)").unwrap();
        let out = sys.transaction("insert into emp values ('b', 1, 1.0, 1)").unwrap();
        assert!(!out.committed(), "duplicate key rejected");
        let out = sys.transaction("insert into emp values ('b', 2, 1.0, 1)").unwrap();
        assert!(out.committed());
        let out = sys.transaction("update emp set emp_no = 2 where name = 'a'").unwrap();
        assert!(!out.committed(), "update creating a duplicate rejected");
    }

    #[test]
    fn check_constraint_with_null_semantics() {
        let mut sys = emp_dept();
        install(
            &mut sys,
            &Constraint::Check {
                name: "pos".into(),
                table: "emp".into(),
                predicate: "salary >= 0".into(),
            },
        )
        .unwrap();
        let out = sys.transaction("insert into emp values ('a', 1, -5.0, 1)").unwrap();
        assert!(!out.committed());
        let out = sys.transaction("insert into emp values ('a', 1, 5.0, 1)").unwrap();
        assert!(out.committed());
        // NULL salary: predicate is unknown → the row passes (SQL CHECK).
        let out = sys.transaction("insert into emp values ('b', 2, NULL, 1)").unwrap();
        assert!(out.committed());
        let out = sys.transaction("update emp set salary = -1.0 where name = 'a'").unwrap();
        assert!(!out.committed());
    }

    #[test]
    fn install_reports_rule_ids_and_names() {
        let mut sys = emp_dept();
        let ids = install(
            &mut sys,
            &Constraint::referential("ri", "emp", "dept_no", "dept", "dept_no", RepairPolicy::Cascade),
        )
        .unwrap();
        assert_eq!(ids.len(), 3);
        assert!(sys.rule("ri_parent_delete").is_some());
        assert!(sys.rule("ri_parent_update").is_some());
        assert!(sys.rule("ri_child_check").is_some());
    }
}
