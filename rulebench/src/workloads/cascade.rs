//! `cascade_bulk`: set-oriented bulk writes. Three operations alternate:
//! an Example 3.1 delete of 5 % of 1 000 parents × 100 children, a bulk
//! re-insert of what it removed, and an Example 4.1 recursive reap of a
//! depth-6 × fanout-5 org tree (rebuilt untimed). The operator tree
//! (`in`-subquery joins over transition tables) and storage delete/undo
//! dominate; the rule count is tiny. The write-side twin of
//! `analytic_query`.

use std::fmt::Write;

use setrules_core::{EngineConfig, RuleSystem};

use super::{ddl, load, Expect, Fired, Op, OpKind, TableDigest, Workload};
use crate::digest::Digest;
use crate::prng::Prng;

const PARENTS: i64 = 1_000;
const CHILDREN_PER: i64 = 100;
/// Parents deleted per cascade: 5 %.
const BLOCK: i64 = 50;
const TREE_DEPTH: usize = 6;
const TREE_FANOUT: usize = 5;
/// Tuples each r41 firing deletes: the next level's employees plus the
/// departments of the level just deleted; the last firing finds nothing.
const REAP: [usize; TREE_DEPTH] = [6, 30, 150, 750, 3_750, 0];
/// Employee numbers of successive trees are this far apart.
const TREE_STRIDE: i64 = 10_000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Step {
    Cascade,
    Reinsert,
    Reap,
}

/// Model: parent payloads, child payloads by `fk * 100 + c`, the block
/// currently deleted, and the org tree's first employee number.
pub struct Cascade {
    parent: Vec<i64>,
    child_src: Vec<i64>,
    child: Vec<i64>,
    missing: Option<i64>,
    tree_base: Option<i64>,
    next_tree_base: i64,
    step: Step,
    generation: i64,
    rng: Prng,
}

/// The org tree rooted at employee `base`, breadth first: employee `e`
/// manages department `e`, which holds its `TREE_FANOUT` reports.
/// Returns `(emp_no, dept_no)` for every employee and the managers.
fn tree(base: i64) -> (Vec<(i64, i64)>, Vec<i64>) {
    let mut emps = vec![(base, -1)];
    let mut managers = Vec::new();
    let mut frontier = vec![base];
    let mut next = base + 1;
    for _ in 1..TREE_DEPTH {
        let mut below = Vec::new();
        for mgr in frontier {
            managers.push(mgr);
            for _ in 0..TREE_FANOUT {
                emps.push((next, mgr));
                below.push(next);
                next += 1;
            }
        }
        frontier = below;
    }
    (emps, managers)
}

fn plant(sys: &mut RuleSystem, base: i64) {
    let (emps, managers) = tree(base);
    let rows: Vec<String> = emps
        .iter()
        .map(|(no, dept)| format!("('e{no}', {no}, 1.0, {dept})"))
        .collect();
    load(sys, "org_emp", &rows);
    let rows: Vec<String> = managers.iter().map(|m| format!("({m}, {m})")).collect();
    load(sys, "org_dept", &rows);
}

impl Cascade {
    /// Schema, the two paper rules, both data sets.
    pub fn build(seed: u64, config: EngineConfig) -> (Cascade, RuleSystem) {
        let mut sys = RuleSystem::with_config(config);
        for sql in [
            "create table parent (pk int, payload int)",
            "create table child (fk int, payload int)",
            "create table parent_src (pk int, payload int)",
            "create table child_src (fk int, payload int)",
            "create table org_emp (name text, emp_no int, salary float, dept_no int)",
            "create table org_dept (dept_no int, mgr_no int)",
            "create index on parent (pk) using ordered",
            "create index on child (fk)",
            "create index on parent_src (pk) using ordered",
            "create index on child_src (fk) using ordered",
            "create index on org_emp (emp_no)",
            "create index on org_emp (dept_no)",
            "create index on org_dept (mgr_no)",
            // Example 3.1.
            "create rule cascade when deleted from parent \
             then delete from child where fk in (select pk from deleted parent)",
            // Example 4.1.
            "create rule r41 when deleted from org_emp \
             then delete from org_emp where dept_no in \
                    (select dept_no from org_dept where mgr_no in \
                      (select emp_no from deleted org_emp)); \
                  delete from org_dept where mgr_no in (select emp_no from deleted org_emp)",
        ] {
            ddl(&mut sys, sql);
        }
        let mut data = Prng::new(seed, 1);
        let parent: Vec<i64> = (0..PARENTS).map(|_| data.range(0, 999)).collect();
        let child_src: Vec<i64> = (0..PARENTS * CHILDREN_PER)
            .map(|_| data.range(0, 999))
            .collect();
        let rows: Vec<String> = parent
            .iter()
            .enumerate()
            .map(|(pk, p)| format!("({pk}, {p})"))
            .collect();
        load(&mut sys, "parent", &rows);
        load(&mut sys, "parent_src", &rows);
        let rows: Vec<String> = child_src
            .iter()
            .enumerate()
            .map(|(i, p)| format!("({}, {p})", i as i64 / CHILDREN_PER))
            .collect();
        load(&mut sys, "child", &rows);
        load(&mut sys, "child_src", &rows);
        let tree_base = data.range(1, 1_000) * TREE_STRIDE;
        plant(&mut sys, tree_base);
        let w = Cascade {
            parent,
            child: child_src.clone(),
            child_src,
            missing: None,
            tree_base: Some(tree_base),
            next_tree_base: tree_base + TREE_STRIDE,
            step: Step::Cascade,
            generation: 0,
            rng: Prng::new(seed, 2),
        };
        (w, sys)
    }

    fn op(label: &'static str, sql: String, fired: Vec<Fired>, touched: [u64; 3]) -> Op {
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
}

impl Workload for Cascade {
    fn next_op(&mut self) -> Op {
        let step = self.step;
        let kids = (BLOCK * CHILDREN_PER) as u64;
        match step {
            Step::Cascade => {
                self.step = Step::Reinsert;
                let lo = self.rng.range(0, PARENTS - BLOCK);
                self.missing = Some(lo);
                Self::op(
                    "cascade_delete",
                    format!(
                        "delete from parent where pk >= {lo} and pk < {}",
                        lo + BLOCK
                    ),
                    vec![Fired::del("cascade", kids as usize)],
                    [0, BLOCK as u64 + kids, 0],
                )
            }
            Step::Reinsert => {
                self.step = Step::Reap;
                let lo = self
                    .missing
                    .take()
                    .expect("a cascade precedes every re-insert");
                let hi = lo + BLOCK;
                // Re-inserted children carry a new payload, so the state
                // keeps a trace of every operation.
                self.generation += 1;
                let g = self.generation;
                for i in (lo * CHILDREN_PER)..(hi * CHILDREN_PER) {
                    self.child[i as usize] = self.child_src[i as usize] + g;
                }
                let mut sql = String::new();
                write!(
                    sql,
                    "insert into parent (select pk, payload from parent_src where pk >= {lo} and pk < {hi}); \
                     insert into child (select fk, payload + {g} from child_src where fk >= {lo} and fk < {hi})"
                )
                .expect("write to String");
                Self::op(
                    "bulk_reinsert",
                    sql,
                    Vec::new(),
                    [BLOCK as u64 + kids, 0, 0],
                )
            }
            Step::Reap => {
                self.step = Step::Cascade;
                let root = self
                    .tree_base
                    .take()
                    .expect("the tree is replanted after every reap");
                let total: usize = REAP.iter().sum();
                Self::op(
                    "tree_reap",
                    format!("delete from org_emp where emp_no = {root}"),
                    REAP.iter().map(|n| Fired::del("r41", *n)).collect(),
                    [0, 1 + total as u64, 0],
                )
            }
        }
    }

    fn reseed(&mut self, sys: &mut RuleSystem) {
        if self.tree_base.is_none() {
            let base = self.next_tree_base;
            self.next_tree_base += TREE_STRIDE;
            plant(sys, base);
            self.tree_base = Some(base);
        }
    }

    fn digests(&self, sys: &RuleSystem) -> Vec<TableDigest> {
        let gone = |pk: i64| self.missing.is_some_and(|lo| pk >= lo && pk < lo + BLOCK);
        let mut parent = Digest::new();
        let mut child = Digest::new();
        for (pk, payload) in self.parent.iter().enumerate() {
            let pk = pk as i64;
            if gone(pk) {
                continue;
            }
            parent.int(pk).int(*payload).end_row();
            let at = (pk * CHILDREN_PER) as usize;
            let mut kids = self.child[at..at + CHILDREN_PER as usize].to_vec();
            kids.sort_unstable();
            for k in kids {
                child.int(pk).int(k).end_row();
            }
        }
        let (mut emp, mut dept) = (Digest::new(), Digest::new());
        if let Some(base) = self.tree_base {
            let (emps, managers) = tree(base);
            for (no, d) in emps {
                emp.text(&format!("e{no}"))
                    .int(no)
                    .float(1.0)
                    .int(d)
                    .end_row();
            }
            for m in managers {
                dept.int(m).int(m).end_row();
            }
        }
        vec![
            TableDigest::of(sys, "parent", "pk, payload", parent.finish()),
            TableDigest::of(sys, "child", "fk, payload", child.finish()),
            TableDigest::of(
                sys,
                "org_emp",
                "emp_no, name, salary, dept_no",
                emp.finish(),
            ),
            TableDigest::of(sys, "org_dept", "dept_no, mgr_no", dept.finish()),
        ]
    }

    fn prefix_ops(&self) -> u64 {
        30
    }

    fn slice_ops(&self) -> u64 {
        3
    }

    fn probe_rows(&self) -> usize {
        (PARENTS * CHILDREN_PER) as usize
    }

    fn rules_defined(&self) -> usize {
        2
    }
}
