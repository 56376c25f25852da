//! `oltp_mem` / `oltp_durable`: the B8 end-to-end transaction at
//! realistic size. Small transactions against `emp`/`dept`/`budget` with
//! the paper's Example 3.1 cascade, Example 4.2 salary control, an audit
//! rule, a negative-salary veto and constraint-installed referential and
//! not-null rules. Parse,
//! plan cache, storage apply/undo and rule selection all show; no single
//! layer dominates. `oltp_durable` is the identical stream with a
//! write-ahead log.
//!
//! All salaries are whole numbers held in `float` columns, so sums and
//! averages are exact in any evaluation order and the model can decide
//! `avg(salary) > 50000` exactly as the engine does.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;

use setrules_constraints::{install, Constraint, RepairPolicy};
use setrules_core::{EngineConfig, RuleSystem};

use super::{ddl, load, Expect, Fired, Op, OpKind, TableDigest, Workload};
use crate::digest::Digest;
use crate::prng::Prng;

/// Employees and departments at load: ~100 per department, the size the
/// operation mix keeps stationary (inserts add 0.5 rows per operation,
/// department deletes remove 0.005 × 100).
const EMPS: i64 = 50_000;
const DEPTS: i64 = 500;
/// The audit table is emptied every this many operations so memory does
/// not grow with run length.
const AUDIT_PURGE_EVERY: u64 = 500;
/// Example 4.2's thresholds.
const AVG_LIMIT: i64 = 50_000;
const FIRE_ABOVE: i64 = 80_000;

struct Emp {
    salary: i64,
    dept: i64,
    /// Position in `live`, for O(1) removal.
    pos: usize,
}

struct Dept {
    mgr: i64,
    budget: i64,
    members: Vec<i64>,
    pos: usize,
}

/// The generator's copy of the tables.
struct Model {
    emps: HashMap<i64, Emp>,
    live: Vec<i64>,
    depts: HashMap<i64, Dept>,
    live_depts: Vec<i64>,
    audit: Vec<(i64, i64, i64)>,
    /// salary → employees earning it; answers the range-count selects.
    salaries: BTreeMap<i64, u32>,
    next_emp: i64,
    next_dept: i64,
}

impl Model {
    fn add_emp(&mut self, no: i64, salary: i64, dept: i64) {
        self.emps.insert(
            no,
            Emp {
                salary,
                dept,
                pos: self.live.len(),
            },
        );
        self.live.push(no);
        self.depts
            .get_mut(&dept)
            .expect("insert targets a live dept")
            .members
            .push(no);
        *self.salaries.entry(salary).or_insert(0) += 1;
    }

    /// Remove an employee from `emps`, `live` and the salary histogram
    /// (not from its department's member list; callers handle that).
    fn drop_emp(&mut self, no: i64) -> Emp {
        let e = self.emps.remove(&no).expect("dropping a live emp");
        self.live.swap_remove(e.pos);
        if let Some(moved) = self.live.get(e.pos) {
            self.emps.get_mut(moved).expect("live emp").pos = e.pos;
        }
        self.unhist(e.salary);
        e
    }

    fn unhist(&mut self, salary: i64) {
        let n = self.salaries.get_mut(&salary).expect("salary in histogram");
        *n -= 1;
        if *n == 0 {
            self.salaries.remove(&salary);
        }
    }

    fn set_salary(&mut self, no: i64, salary: i64) -> i64 {
        let e = self.emps.get_mut(&no).expect("updating a live emp");
        let old = std::mem::replace(&mut e.salary, salary);
        self.unhist(old);
        *self.salaries.entry(salary).or_insert(0) += 1;
        old
    }

    fn add_dept(&mut self, no: i64, mgr: i64, budget: i64) {
        self.depts.insert(
            no,
            Dept {
                mgr,
                budget,
                members: Vec::new(),
                pos: self.live_depts.len(),
            },
        );
        self.live_depts.push(no);
    }

    fn drop_dept(&mut self, no: i64) -> Dept {
        let d = self.depts.remove(&no).expect("dropping a live dept");
        self.live_depts.swap_remove(d.pos);
        if let Some(moved) = self.live_depts.get(d.pos) {
            self.depts.get_mut(moved).expect("live dept").pos = d.pos;
        }
        d
    }

    /// Example 4.2 over the employees a transaction updated. Appends the
    /// expected firing; returns tuples deleted.
    fn salary_control(&mut self, updated: &[i64], fired: &mut Vec<Fired>) -> u64 {
        let total: i64 = updated.iter().map(|no| self.emps[no].salary).sum();
        // avg > limit, exactly: all salaries are whole numbers.
        if total <= AVG_LIMIT * updated.len() as i64 {
            return 0;
        }
        let doomed: Vec<i64> = updated
            .iter()
            .copied()
            .filter(|no| self.emps[no].salary > FIRE_ABOVE)
            .collect();
        fired.push(Fired::del("r42", doomed.len()));
        for no in &doomed {
            let e = self.drop_emp(*no);
            let members = &mut self
                .depts
                .get_mut(&e.dept)
                .expect("emp's dept is live")
                .members;
            let at = members
                .iter()
                .position(|m| m == no)
                .expect("emp is a member of its dept");
            members.swap_remove(at);
        }
        doomed.len() as u64
    }
}

/// The mix, per mille: 450 point update, 200 insert of 1–4 rows, 195
/// point or range select, 100 department-wide raise, 5 department delete,
/// 50 expected veto. The schedule is one seeded shuffle of exactly these
/// shares, repeated: a department delete costs ~400 point updates, so
/// drawing each operation's type independently would let the number of
/// deletes in a run, and with it `ops_per_s`, vary by several percent.
const SCHEDULE_LEN: u64 = 1_000;

/// The OLTP workload: model plus operation stream.
pub struct Oltp {
    model: Model,
    rng: Prng,
    schedule: Vec<u16>,
    ops: u64,
}

fn name_of(emp_no: i64) -> String {
    format!("e{emp_no}")
}

impl Oltp {
    /// Schema and indexes, bulk load, then rules and constraints.
    pub fn build(seed: u64, config: EngineConfig) -> (Oltp, RuleSystem) {
        let mut sys = RuleSystem::with_config(config);
        for sql in [
            "create table dept (dept_no int, mgr_no int)",
            "create table emp (name text, emp_no int, salary float, dept_no int)",
            "create table budget (dept_no int, amount float)",
            "create table audit (emp_no int, old_salary float, new_salary float)",
            "create index on emp (emp_no)",
            "create index on emp (dept_no)",
            "create index on emp (salary) using ordered",
            "create index on dept (dept_no)",
            "create index on budget (dept_no)",
        ] {
            ddl(&mut sys, sql);
        }

        let mut data = Prng::new(seed, 1);
        let mut model = Model {
            emps: HashMap::new(),
            live: Vec::new(),
            depts: HashMap::new(),
            live_depts: Vec::new(),
            audit: Vec::new(),
            salaries: BTreeMap::new(),
            next_emp: EMPS,
            next_dept: DEPTS,
        };
        let (mut rows, mut budgets) = (Vec::new(), Vec::new());
        for d in 0..DEPTS {
            let (mgr, budget) = (data.range(0, EMPS - 1), data.range(100, 999) * 1_000);
            model.add_dept(d, mgr, budget);
            rows.push(format!("({d}, {mgr})"));
            budgets.push(format!("({d}, {budget}.0)"));
        }
        load(&mut sys, "dept", &rows);
        load(&mut sys, "budget", &budgets);
        rows.clear();
        for no in 0..EMPS {
            let (salary, dept) = (data.range(20_000, 45_000), data.range(0, DEPTS - 1));
            model.add_emp(no, salary, dept);
            rows.push(format!("('e{no}', {no}, {salary}.0, {dept})"));
        }
        load(&mut sys, "emp", &rows);

        // Vetoes are created first so the default selection strategy
        // (creation order among unordered rules) considers them first.
        ddl(
            &mut sys,
            "create rule veto_neg when updated emp.salary or inserted into emp \
             if exists (select * from new updated emp.salary where salary < 0.0) \
             or exists (select * from inserted emp where salary < 0.0) \
             then rollback",
        );
        install(
            &mut sys,
            &Constraint::NotNull {
                name: "sal_nn".into(),
                table: "emp".into(),
                column: "salary".into(),
            },
        )
        .expect("not-null rule compiles against the schema above");
        for sql in [
            // Example 3.1.
            "create rule cascade when deleted from dept \
             then delete from emp where dept_no in (select dept_no from deleted dept)",
            // Audit before salary control: r42 may delete the updated
            // employee, which would remove the update from audit's window.
            "create rule audit when updated emp.salary \
             then insert into audit (select o.emp_no, o.salary, n.salary \
                  from old updated emp.salary o, new updated emp.salary n \
                  where o.emp_no = n.emp_no)",
            // Example 4.2.
            "create rule r42 when updated emp.salary \
             if (select avg(salary) from new updated emp.salary) > 50000 \
             then delete from emp where emp_no in (select emp_no from new updated emp.salary) \
                  and salary > 80000",
        ] {
            ddl(&mut sys, sql);
        }
        install(
            &mut sys,
            &Constraint::referential(
                "budget_fk",
                "budget",
                "dept_no",
                "dept",
                "dept_no",
                RepairPolicy::Cascade,
            ),
        )
        .expect("referential rules compile against the schema above");
        let mut rng = Prng::new(seed, 2);
        let mut schedule: Vec<u16> = (0..SCHEDULE_LEN as u16).collect();
        for i in (1..schedule.len()).rev() {
            schedule.swap(i, rng.below(i as u64 + 1) as usize);
        }
        (
            Oltp {
                model,
                rng,
                schedule,
                ops: 0,
            },
            sys,
        )
    }

    fn some_emp(&mut self) -> i64 {
        *self.rng.pick(&self.model.live)
    }

    fn some_dept(&mut self) -> i64 {
        *self.rng.pick(&self.model.live_depts)
    }

    fn txn(label: &'static str, sql: String, fired: Vec<Fired>, touched: [u64; 3]) -> Op {
        Op {
            kind: OpKind::Txn,
            label,
            sql,
            expect: Expect {
                veto_by: None,
                fired,
                output: None,
                touched: Some(touched),
            },
        }
    }

    fn veto(sql: String, by: &'static str) -> Op {
        Op {
            kind: OpKind::Txn,
            label: "expected_veto",
            sql,
            expect: Expect {
                veto_by: Some(by),
                ..Default::default()
            },
        }
    }

    fn point_update(&mut self) -> Op {
        let no = self.some_emp();
        let salary = match self.rng.below(100) {
            0 => self.rng.range(FIRE_ABOVE + 1, 95_000),
            1 | 2 => self.rng.range(AVG_LIMIT + 1, FIRE_ABOVE),
            _ => self.rng.range(20_000, 45_000),
        };
        let old = self.model.set_salary(no, salary);
        self.model.audit.push((no, old, salary));
        let mut fired = vec![Fired::ins("audit", 1)];
        let deleted = self.model.salary_control(&[no], &mut fired);
        Self::txn(
            "point_update",
            format!("update emp set salary = {salary}.0 where emp_no = {no}"),
            fired,
            [1, deleted, 1],
        )
    }

    fn insert_emps(&mut self) -> Op {
        let n = self.rng.range(1, 4);
        let mut sql = String::from("insert into emp values ");
        for i in 0..n {
            let no = self.model.next_emp;
            self.model.next_emp += 1;
            let (salary, dept) = (self.rng.range(20_000, 45_000), self.some_dept());
            self.model.add_emp(no, salary, dept);
            let sep = if i == 0 { "" } else { ", " };
            write!(sql, "{sep}('e{no}', {no}, {salary}.0, {dept})").expect("write to String");
        }
        Self::txn("insert", sql, Vec::new(), [n as u64, 0, 0])
    }

    fn select(&mut self) -> Op {
        let (sql, output) = if self.rng.below(3) < 2 {
            let no = self.some_emp();
            let e = &self.model.emps[&no];
            let mut d = Digest::new();
            d.text(&name_of(no))
                .float(e.salary as f64)
                .int(e.dept)
                .end_row();
            (
                format!("select name, salary, dept_no from emp where emp_no = {no}"),
                d.finish(),
            )
        } else {
            let lo = self.rng.range(20_000, 44_800);
            let count: u32 = self
                .model
                .salaries
                .range(lo..lo + 200)
                .map(|(_, n)| n)
                .sum();
            let mut d = Digest::new();
            d.int(i64::from(count)).end_row();
            (
                format!(
                    "select count(*) from emp where salary >= {lo}.0 and salary < {}.0",
                    lo + 200
                ),
                d.finish(),
            )
        };
        Op {
            kind: OpKind::Txn,
            label: "select",
            sql,
            expect: Expect {
                output: Some(output),
                touched: Some([0, 0, 0]),
                ..Default::default()
            },
        }
    }

    fn dept_raise(&mut self) -> Op {
        let dept = self.some_dept();
        let members = self.model.depts[&dept].members.clone();
        let mut fired = Vec::new();
        let mut deleted = 0;
        if !members.is_empty() {
            for no in &members {
                let old = self.model.emps[no].salary;
                self.model.set_salary(*no, old + 50);
                self.model.audit.push((*no, old, old + 50));
            }
            fired.push(Fired::ins("audit", members.len()));
            deleted = self.model.salary_control(&members, &mut fired);
        }
        let n = members.len() as u64;
        Self::txn(
            "dept_raise",
            format!("update emp set salary = salary + 50.0 where dept_no = {dept}"),
            fired,
            [n, deleted, n],
        )
    }

    /// Example 3.1: delete a department (its employees cascade by the
    /// paper's rule, its budget row by the constraint's) and open a new
    /// one, so the number of departments holds.
    fn dept_delete(&mut self) -> Op {
        let dept = self.some_dept();
        let gone = self.model.drop_dept(dept);
        for no in &gone.members {
            self.model.drop_emp(*no);
        }
        let fired = vec![
            Fired::del("cascade", gone.members.len()),
            Fired::del("budget_fk_parent_delete", 1),
        ];
        let fresh = self.model.next_dept;
        self.model.next_dept += 1;
        // A number that is never an employee's, so no row's meaning
        // depends on which employees happen to be alive.
        let mgr = -gone.mgr - 1;
        let budget = self.rng.range(100, 999) * 1_000;
        self.model.add_dept(fresh, mgr, budget);
        Self::txn(
            "dept_delete",
            format!(
                "delete from dept where dept_no = {dept}; insert into dept values ({fresh}, {mgr}); \
                 insert into budget values ({fresh}, {budget}.0)"
            ),
            fired,
            [2, (2 + gone.members.len()) as u64, 0],
        )
    }

    fn expected_veto(&mut self) -> Op {
        match self.rng.below(10) {
            0..=3 => {
                let no = self.some_emp();
                Self::veto(
                    format!("update emp set salary = -1.0 where emp_no = {no}"),
                    "veto_neg",
                )
            }
            4..=6 => {
                let (no, dept) = (self.model.next_emp, self.some_dept());
                Self::veto(
                    format!("insert into emp values ('bad', {no}, NULL, {dept})"),
                    "sal_nn_notnull",
                )
            }
            _ => Self::veto(
                "insert into budget values (-7, 1000.0)".into(),
                "budget_fk_child_check",
            ),
        }
    }

    fn purge_audit(&mut self) -> Op {
        let n = self.model.audit.len() as u64;
        self.model.audit.clear();
        Self::txn(
            "audit_purge",
            "delete from audit".into(),
            Vec::new(),
            [0, n, 0],
        )
    }
}

impl Workload for Oltp {
    fn next_op(&mut self) -> Op {
        self.ops += 1;
        if self.ops.is_multiple_of(AUDIT_PURGE_EVERY) {
            return self.purge_audit();
        }
        match self.schedule[(self.ops % SCHEDULE_LEN) as usize] {
            0..=449 => self.point_update(),
            450..=649 => self.insert_emps(),
            650..=844 => self.select(),
            845..=944 => self.dept_raise(),
            945..=949 => self.dept_delete(),
            _ => self.expected_veto(),
        }
    }

    fn digests(&self, sys: &RuleSystem) -> Vec<TableDigest> {
        let m = &self.model;
        let mut emp = Digest::new();
        let mut nos: Vec<i64> = m.live.clone();
        nos.sort_unstable();
        for no in nos {
            let e = &m.emps[&no];
            emp.text(&name_of(no))
                .int(no)
                .float(e.salary as f64)
                .int(e.dept)
                .end_row();
        }
        let mut dept = Digest::new();
        let mut ds: Vec<i64> = m.live_depts.clone();
        ds.sort_unstable();
        for d in ds {
            dept.int(d).int(m.depts[&d].mgr).end_row();
        }
        let mut budget = Digest::new();
        let mut ds: Vec<i64> = m.live_depts.clone();
        ds.sort_unstable();
        for d in ds {
            budget.int(d).float(m.depts[&d].budget as f64).end_row();
        }
        let mut audit = Digest::new();
        let mut rows = m.audit.clone();
        rows.sort_unstable();
        for (no, old, new) in rows {
            audit.int(no).float(old as f64).float(new as f64).end_row();
        }
        vec![
            TableDigest::of(sys, "emp", "emp_no, name, salary, dept_no", emp.finish()),
            TableDigest::of(sys, "dept", "dept_no, mgr_no", dept.finish()),
            TableDigest::of(sys, "budget", "dept_no, amount", budget.finish()),
            TableDigest::of(
                sys,
                "audit",
                "emp_no, old_salary, new_salary",
                audit.finish(),
            ),
        ]
    }

    fn prefix_ops(&self) -> u64 {
        // Not a multiple of the purge period, so the audit table's digest
        // covers rows.
        4_800
    }

    fn slice_ops(&self) -> u64 {
        2 * SCHEDULE_LEN
    }

    fn probe_rows(&self) -> usize {
        EMPS as usize
    }

    fn rules_defined(&self) -> usize {
        8
    }
}
