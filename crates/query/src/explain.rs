//! `explain`: print a select's plan value — the access path chosen for
//! each `from` item (a key-order walk also reports the sort it elides),
//! top-K eligibility, the greedy join
//! order over estimated cardinalities, the operator chain and its
//! exchange-eligible stages. It makes no planning decision of its own:
//! the value is the one [`plan_select`] builds for execution, so the
//! printed plan is the executed one. This is the observable face of the
//! planner, and the evidence behind the paper's claim (§1) that
//! relational optimization applies to rule bodies unchanged.

use std::fmt::Write as _;
use std::ops::Bound;

use setrules_sql::ast::{Expr, SelectStmt, TableSource, TransitionKind};
use setrules_storage::{ColumnId, Database, Value};

use crate::compile::{is_rowlocal, Layout};
use crate::ctx::{QueryCtx, SubqueryCache};
use crate::exec::scan::{access_op_name, ScanSource};
use crate::plan::{plan_select, ItemPlan, SelectPlan, Top};
use crate::planner::{build_join_plan, scan_handles, Access};

/// A key interval in mathematical notation: `[4, 6]`, `(5, +inf)`. The
/// `Excluded(NULL)` lower bound the planner uses to skip the NULL bucket
/// means "unbounded below over the column's domain", so it prints as
/// `(-inf`.
fn describe_interval(lo: &Bound<Value>, hi: &Bound<Value>) -> String {
    let lo = match lo {
        Bound::Excluded(Value::Null) | Bound::Unbounded => "(-inf".to_string(),
        Bound::Included(v) => format!("[{v}"),
        Bound::Excluded(v) => format!("({v}"),
    };
    let hi = match hi {
        Bound::Included(v) => format!("{v}]"),
        Bound::Excluded(v) => format!("{v})"),
        Bound::Unbounded => "+inf)".to_string(),
    };
    format!("{lo}, {hi}")
}

/// How many probe values `explain` prints before eliding the rest.
const PROBES_SHOWN: usize = 5;

/// The probe values of a multi-probe: all of them up to [`PROBES_SHOWN`],
/// else the first few and the count (a subquery can supply thousands).
fn describe_probes(values: &[Value]) -> String {
    let mut shown: Vec<String> = values.iter().take(PROBES_SHOWN).map(Value::to_string).collect();
    if values.len() > PROBES_SHOWN {
        shown.push(format!("… ({} probes)", values.len()));
    }
    shown.join(", ")
}

/// Describe whether a rule condition is incrementally evaluable —
/// reporting the per-term materialized state the engine would maintain —
/// or why it falls back to full re-scan. Runs the same analysis the
/// engine caches per rule (`licensed` mirrors the rule's transition
/// licence set).
pub fn explain_condition(
    db: &Database,
    cond: &Expr,
    licensed: &dyn Fn(TransitionKind, &str, Option<&str>) -> bool,
) -> String {
    match crate::incremental::analyze(db, cond, licensed) {
        Ok(plan) => {
            let n = plan.terms.len();
            format!("incremental ({n} term{})\n{}", if n == 1 { "" } else { "s" }, plan.describe())
        }
        Err(reason) => format!("full re-scan [{}] ({reason})\n", reason.label()),
    }
}

/// Describe how each `from` item of `stmt` would be scanned, and how a
/// multi-item `from` would be joined: the statement's plan value, as
/// `plan_select` builds it for execution, printed line by line.
pub fn explain_select(ctx: QueryCtx<'_>, stmt: &SelectStmt) -> String {
    // Plan as execution does — with a statement subquery memo, so the
    // semi-join access is visible.
    let memo = SubqueryCache::new();
    let ctx = QueryCtx { cache: ctx.cache.or(Some(&memo)), ..ctx };
    let mut out = String::new();
    let Ok(plan) = plan_select(ctx, stmt, &Layout::new(), true) else {
        // Planning stops at an unknown table (execution would error
        // before lowering): name the unknown ones, and nothing else.
        for tref in &stmt.from {
            let (TableSource::Named(name) | TableSource::Transition { table: name, .. }) =
                &tref.source;
            if ctx.db.table_id(name).is_err() {
                let _ = writeln!(out, "{}: unknown table '{name}'", tref.binding_name());
            }
        }
        return out;
    };
    let read = &plan.read;
    for item in &read.items {
        let name = item.table;
        let desc = match &item.source {
            ScanSource::Named(Access::FullScan | Access::IndexOrder { range: None, .. }) => {
                format!("seq scan ({} rows)", ctx.db.table(item.tid).len())
            }
            ScanSource::Named(Access::IndexEq { column, value }) => {
                format!("index probe on {name}.{} = {value}", col(item, *column))
            }
            ScanSource::Named(Access::IndexIn { column, values, from_subquery }) => format!(
                "index multi-probe on {name}.{} in ({}){}",
                col(item, *column),
                describe_probes(values),
                if *from_subquery { " from subquery" } else { "" }
            ),
            ScanSource::Named(
                Access::IndexRange { column, lo, hi }
                | Access::IndexOrder { column, range: Some((lo, hi)), .. },
            ) => format!(
                "index range scan on {name}.{} over {}",
                col(item, *column),
                describe_interval(lo, hi)
            ),
            ScanSource::Named(Access::Empty) => "empty (predicate unsatisfiable)".to_string(),
            ScanSource::Named(Access::IndexBoundary { ends }) => {
                let ends: Vec<String> = ends
                    .iter()
                    .map(|&(c, is_min)| {
                        format!("{}({name}.{})", if is_min { "min" } else { "max" }, col(item, c))
                    })
                    .collect();
                format!("index boundary probe on {}", ends.join(", "))
            }
            ScanSource::Transition { kind, column } => {
                format!("transition table {}", crate::provider::describe(*kind, name, *column))
            }
        };
        let _ = writeln!(out, "{}: {desc}", item.binding);
    }

    // Sort-elision report: the scan walks the ordered index in key order,
    // so the pipeline runs no sort.
    if let [item @ ItemPlan { source: ScanSource::Named(Access::IndexOrder { column, .. }), .. }] =
        read.items.as_slice()
    {
        let column = col(item, *column);
        let _ = writeln!(out, "order by: elided via ordered index on {}.{column}", item.table);
    }

    // Top-K report: an ordered, limited pipeline is eligible for the
    // sort's partial-selection path; it engages at run time when the
    // limit is small relative to the result.
    if let Some(k) = plan.pipeline.limit.filter(|&k| k > 0 && !plan.pipeline.order.is_empty()) {
        let _ = writeln!(out, "limit: top-{k} selection eligible (engages when {k} < rows / 4)");
    }

    // Join-order report: the greedy order the join operator computes at
    // run time from scanned cardinalities, here over estimates (index
    // probes are estimated from the index buckets; transition tables are
    // unknown at plan time and estimated as 0, keeping them early in the
    // order — which is where rule conditions want them).
    if read.items.len() > 1 {
        let cards: Vec<usize> = read
            .items
            .iter()
            .map(|item| match &item.source {
                ScanSource::Transition { .. } | ScanSource::Named(Access::Empty) => 0,
                ScanSource::Named(Access::FullScan) => ctx.db.table(item.tid).len(),
                ScanSource::Named(access) => scan_handles(ctx.db, item.tid, access).len(),
            })
            .collect();
        let order = build_join_plan(&cards, &read.edges);
        let bname = |i: usize| read.items[i].binding.as_str();
        let mut line = format!("join order: {} ({} rows)", bname(order.first), cards[order.first]);
        for step in &order.steps {
            let kind = if step.edges.is_empty() {
                "cross".to_string()
            } else {
                let keys = step
                    .edges
                    .iter()
                    .map(|&(pi, pc, nc)| {
                        format!(
                            "{}.{} = {}.{}",
                            bname(step.item),
                            read.items[step.item].columns[nc],
                            bname(pi),
                            read.items[pi].columns[pc]
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("hash on {keys}")
            };
            let _ = write!(line, " -> {} ({}, {} rows)", bname(step.item), kind, cards[step.item]);
        }
        let _ = writeln!(out, "{line}");
    }

    let _ = writeln!(out, "plan: {}", operator_chain(&plan).join(" -> "));
    // The `where` pass is exchange-eligible when its predicate is
    // row-local: a multi-threaded run partitions it once there are enough
    // combinations. Read off the plan — the run-time size gate cannot be
    // decided here, so the line is identical at every thread count — and
    // absent when nothing is eligible, so serial-only plans stay
    // byte-identical to their pre-exchange form.
    if read.predicate.as_ref().is_some_and(is_rowlocal) {
        let _ = writeln!(out, "parallel: where");
    }
    out
}

/// The name of column `c` of `item`.
fn col<'a>(item: &'a ItemPlan, c: ColumnId) -> &'a str {
    &item.columns[usize::from(c.0)]
}

/// The operator chain of `plan` as display names in pull order — the
/// names the operators record on the per-operator side channel.
fn operator_chain(plan: &SelectPlan) -> Vec<String> {
    let (read, pipeline) = (&plan.read, &plan.pipeline);
    let mut ops: Vec<String> = read
        .items
        .iter()
        .map(|item| match &item.source {
            ScanSource::Named(access) => format!("{}({})", access_op_name(access), item.binding),
            ScanSource::Transition { .. } => format!("transition-scan({})", item.binding),
        })
        .collect();
    ops.extend(read.join_op().map(String::from));
    if read.predicate.is_some() {
        ops.push("filter".into());
    }
    match &pipeline.top {
        // Grouped: always two-phase.
        Top::Aggregate(_) => ops.extend(["partial-aggregate".into(), "final-aggregate".into()]),
        Top::Project { .. } => ops.push("project".into()),
    }
    if pipeline.distinct {
        ops.push("distinct".into());
    }
    if !pipeline.order.is_empty() {
        ops.push("sort".into());
    }
    if pipeline.limit.is_some() {
        ops.push("limit".into());
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use setrules_sql::ast::{DmlOp, Statement};
    use setrules_sql::parse_statement;
    use setrules_storage::{paper_example_schemas, ColumnId, Database};

    fn sel(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Dml(DmlOp::Select(s)) => s,
            _ => panic!(),
        }
    }

    #[test]
    fn explains_scan_vs_probe() {
        let mut db = Database::new();
        let (emp, _) = paper_example_schemas();
        let t = db.create_table(emp).unwrap();
        let ctx = QueryCtx::plain(&db);
        let plan = explain_select(ctx, &sel("select * from emp where dept_no = 5"));
        assert!(plan.contains("seq scan"), "{plan}");

        db.create_index(t, ColumnId(3)).unwrap();
        let ctx = QueryCtx::plain(&db);
        let plan = explain_select(ctx, &sel("select * from emp where dept_no = 5"));
        assert!(plan.contains("index probe on emp.dept_no = 5"), "{plan}");

        let plan = explain_select(ctx, &sel("select * from emp where dept_no = NULL"));
        assert!(plan.contains("unsatisfiable"), "{plan}");
    }

    #[test]
    fn explains_multi_probe() {
        let mut db = Database::new();
        let (emp, dept) = paper_example_schemas();
        let t = db.create_table(emp).unwrap();
        let dept = db.create_table(dept).unwrap();
        db.create_index(t, ColumnId(3)).unwrap();
        let ctx = QueryCtx::plain(&db);
        let plan = explain_select(ctx, &sel("select * from emp where dept_no in (3, 5)"));
        assert!(plan.contains("index multi-probe on emp.dept_no in (3, 5)\n"), "{plan}");
        // Up to five probes print in full; beyond that, the first five and
        // the count.
        let plan = explain_select(ctx, &sel("select * from emp where dept_no in (5, 4, 3, 2, 1)"));
        assert!(plan.contains("emp.dept_no in (5, 4, 3, 2, 1)\n"), "{plan}");
        let plan =
            explain_select(ctx, &sel("select * from emp where dept_no in (9, 8, 7, 6, 5, 4, 3)"));
        assert!(plan.contains("emp.dept_no in (9, 8, 7, 6, 5, … (7 probes))\n"), "{plan}");
        // Probes that a subquery supplied say so.
        for (d, m) in [(3, 30), (5, 50)] {
            db.insert(dept, setrules_storage::tuple![d, m]).unwrap();
        }
        for i in 0..3 {
            db.insert(t, setrules_storage::tuple!["e", i, 1.0, 3]).unwrap();
        }
        let ctx = QueryCtx::plain(&db);
        let plan = explain_select(
            ctx,
            &sel("select * from emp where dept_no in (select dept_no from dept)"),
        );
        assert!(plan.contains("index multi-probe on emp.dept_no in (3, 5) from subquery\n"), "{plan}");
        // A hash index has no key order: `between` stays a seq scan.
        let plan = explain_select(ctx, &sel("select * from emp where dept_no between 4 and 6"));
        assert!(plan.contains("seq scan"), "{plan}");
    }

    #[test]
    fn explains_range_scan() {
        let mut db = Database::new();
        let (emp, _) = paper_example_schemas();
        let t = db.create_table(emp).unwrap();
        db.create_index_of(t, ColumnId(3), setrules_storage::IndexKind::Ordered).unwrap();
        let ctx = QueryCtx::plain(&db);
        let plan = explain_select(ctx, &sel("select * from emp where dept_no between 4 and 6"));
        assert!(plan.contains("index range scan on emp.dept_no over [4, 6]"), "{plan}");
        let plan = explain_select(ctx, &sel("select * from emp where dept_no > 5"));
        assert!(plan.contains("index range scan on emp.dept_no over (5, +inf)"), "{plan}");
        let plan = explain_select(ctx, &sel("select * from emp where dept_no <= 9"));
        assert!(plan.contains("index range scan on emp.dept_no over (-inf, 9]"), "{plan}");
    }

    #[test]
    fn explains_sort_elision() {
        let mut db = Database::new();
        let (emp, _) = paper_example_schemas();
        let t = db.create_table(emp).unwrap();
        db.create_index_of(t, ColumnId(2), setrules_storage::IndexKind::Ordered).unwrap();
        let ctx = QueryCtx::plain(&db);
        let plan = explain_select(ctx, &sel("select name from emp order by salary limit 3"));
        assert!(plan.contains("order by: elided via ordered index on emp.salary"), "{plan}");
        // A second order-by key forces a real sort.
        let plan = explain_select(ctx, &sel("select name from emp order by salary, name"));
        assert!(!plan.contains("elided"), "{plan}");
        // So does ordering by a column with only a hash index.
        let plan = explain_select(ctx, &sel("select name from emp order by dept_no"));
        assert!(!plan.contains("elided"), "{plan}");
    }

    #[test]
    fn explains_topk_eligibility() {
        let mut db = Database::new();
        let (emp, _) = paper_example_schemas();
        let t = db.create_table(emp).unwrap();
        let ctx = QueryCtx::plain(&db);
        // Ordered + limited, no ordered index: top-K eligible.
        let plan = explain_select(ctx, &sel("select name from emp order by salary limit 3"));
        assert!(plan.contains("limit: top-3 selection eligible"), "{plan}");
        // No limit: a full sort, no top-K line.
        let plan = explain_select(ctx, &sel("select name from emp order by salary"));
        assert!(!plan.contains("top-"), "{plan}");
        // With an ordered index the sort is elided instead.
        db.create_index_of(t, ColumnId(2), setrules_storage::IndexKind::Ordered).unwrap();
        let ctx = QueryCtx::plain(&db);
        let plan = explain_select(ctx, &sel("select name from emp order by salary limit 3"));
        assert!(plan.contains("elided") && !plan.contains("top-"), "{plan}");
    }

    #[test]
    fn explains_join_order() {
        let mut db = Database::new();
        let (emp, dept) = paper_example_schemas();
        db.create_table(emp).unwrap();
        db.create_table(dept).unwrap();
        let mut exec = |sql: &str| {
            let Statement::Dml(op) = parse_statement(sql).unwrap() else { panic!() };
            let virt = crate::provider::NoTransitionTables;
            crate::execute_op(&mut db, &virt, &op, &Default::default()).unwrap()
        };
        exec("insert into emp values ('a', 1, 100.0, 1), ('b', 2, 300.0, 2)");
        exec("insert into dept values (1, 1)");
        let ctx = QueryCtx::plain(&db);
        // dept (1 row) is smaller, so the join starts there and hashes emp
        // onto it.
        let plan = explain_select(
            ctx,
            &sel("select name from emp, dept where emp.dept_no = dept.dept_no"),
        );
        assert!(
            plan.contains("join order: dept (1 rows) -> emp (hash on emp.dept_no = dept.dept_no, 2 rows)"),
            "{plan}"
        );
        // No connecting conjunct: a cross step.
        let plan = explain_select(ctx, &sel("select name from emp, dept"));
        assert!(plan.contains("(cross, 2 rows)"), "{plan}");
    }

    #[test]
    fn explains_transition_tables() {
        let mut db = Database::new();
        let (emp, _) = paper_example_schemas();
        db.create_table(emp).unwrap();
        let ctx = QueryCtx::plain(&db);
        let plan = explain_select(ctx, &sel("select * from new updated emp.salary"));
        assert!(plan.contains("transition table new updated emp.salary"), "{plan}");
    }
}
