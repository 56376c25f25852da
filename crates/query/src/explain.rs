//! `explain`: report the access path chosen for each `from` item of a
//! select, and — for multi-item `from` clauses — the greedy join order the
//! compiled executor would run. This is the observable face of the
//! planner, and the evidence behind the paper's claim (§1) that relational
//! optimization applies to rule bodies unchanged.

use std::fmt::Write as _;
use std::ops::Bound;
use std::sync::Arc;

use setrules_sql::ast::{Expr, SelectStmt, TableSource, TransitionKind};
use setrules_storage::{Database, Value};

use crate::compile::{Layout, LayoutFrame};
use crate::ctx::{QueryCtx, SubqueryCache};
use crate::planner::{build_join_plan, choose_access, equi_join_edges, scan_handles, Access};

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
/// multi-item `from` would be joined.
pub fn explain_select(ctx: QueryCtx<'_>, stmt: &SelectStmt) -> String {
    // Plan as execution does — with a statement subquery memo, so the
    // semi-join access is visible (and its subquery runs once however
    // many of the reports below ask for the access path).
    let memo = SubqueryCache::new();
    let ctx = QueryCtx { cache: ctx.cache.or(Some(&memo)), ..ctx };
    let mut out = String::new();
    let sole = stmt.from.len() == 1;
    for tref in &stmt.from {
        let binding = tref.binding_name();
        match &tref.source {
            TableSource::Named(name) => match ctx.db.table_id(name) {
                Ok(tid) => {
                    let access = choose_access(ctx, tid, binding, sole, stmt.predicate.as_ref());
                    let desc = match access {
                        Access::FullScan => format!("seq scan ({} rows)", ctx.db.table(tid).len()),
                        Access::IndexEq { column, value } => format!(
                            "index probe on {}.{} = {}",
                            name,
                            ctx.db.schema(tid).column_name(column),
                            value
                        ),
                        Access::IndexIn { column, ref values, from_subquery } => format!(
                            "index multi-probe on {}.{} in ({}){}",
                            name,
                            ctx.db.schema(tid).column_name(column),
                            describe_probes(values),
                            if from_subquery { " from subquery" } else { "" }
                        ),
                        Access::IndexRange { column, ref lo, ref hi } => format!(
                            "index range scan on {}.{} over {}",
                            name,
                            ctx.db.schema(tid).column_name(column),
                            describe_interval(lo, hi)
                        ),
                        Access::Empty => "empty (predicate unsatisfiable)".to_string(),
                    };
                    let _ = writeln!(out, "{binding}: {desc}");
                }
                Err(_) => {
                    let _ = writeln!(out, "{binding}: unknown table '{name}'");
                }
            },
            TableSource::Transition { kind, table, column } => {
                let _ = writeln!(
                    out,
                    "{binding}: transition table {}",
                    crate::provider::describe(*kind, table, column.as_deref())
                );
            }
        }
    }

    // Sort-elision report: when the executor would answer `order by` in
    // ordered-index order (and short-circuit `limit`) instead of sorting.
    if let Some((tid, oc, _)) = crate::select::elidable_order_column(ctx, stmt) {
        if let TableSource::Named(name) = &stmt.from[0].source {
            let _ = writeln!(
                out,
                "order by: elided via ordered index on {}.{}",
                name,
                ctx.db.schema(tid).column_name(oc)
            );
        }
    }

    // Top-K report: an ordered, limited select that cannot elide its sort
    // is eligible for the partial-selection fast path (see the order/limit
    // step of the select executor); it engages at run time when the limit
    // is small relative to the result.
    if !stmt.order_by.is_empty()
        && stmt.limit.is_some_and(|k| k > 0)
        && crate::select::elidable_order_column(ctx, stmt).is_none()
    {
        let k = stmt.limit.expect("checked above");
        let _ = writeln!(out, "limit: top-{k} selection eligible (engages when {k} < rows / 4)");
    }

    // Join-order report: the same greedy planning the compiled executor
    // performs, over estimated per-item cardinalities (index probes are
    // estimated from the index buckets; transition tables are unknown at
    // plan time and estimated as 0, keeping them early in the order —
    // which is where rule conditions want them).
    if stmt.from.len() > 1 {
        let mut frames = Vec::with_capacity(stmt.from.len());
        let mut cols: Vec<Arc<Vec<String>>> = Vec::with_capacity(stmt.from.len());
        let mut types = Vec::with_capacity(stmt.from.len());
        let mut cards = Vec::with_capacity(stmt.from.len());
        for tref in &stmt.from {
            let name = match &tref.source {
                TableSource::Named(n) => n,
                TableSource::Transition { table, .. } => table,
            };
            let Ok(tid) = ctx.db.table_id(name) else { return out };
            let schema = ctx.db.schema(tid);
            let columns =
                Arc::new(schema.columns.iter().map(|c| c.name.clone()).collect::<Vec<_>>());
            cols.push(Arc::clone(&columns));
            frames.push(LayoutFrame { name: tref.binding_name().to_string(), columns });
            types.push(schema.columns.iter().map(|c| c.ty).collect::<Vec<_>>());
            cards.push(match &tref.source {
                TableSource::Transition { .. } => 0,
                TableSource::Named(_) => {
                    let access =
                        choose_access(ctx, tid, tref.binding_name(), sole, stmt.predicate.as_ref());
                    match &access {
                        Access::Empty => 0,
                        Access::FullScan => ctx.db.table(tid).len(),
                        Access::IndexEq { .. }
                        | Access::IndexIn { .. }
                        | Access::IndexRange { .. } => scan_handles(ctx.db, tid, &access).len(),
                    }
                }
            });
        }
        let mut layout = Layout::new();
        layout.push_level(frames);
        let edges = equi_join_edges(stmt.predicate.as_ref(), &layout, &types);
        let plan = build_join_plan(&cards, &edges);
        let bname = |i: usize| stmt.from[i].binding_name();
        let mut line = format!("join order: {} ({} rows)", bname(plan.first), cards[plan.first]);
        for step in &plan.steps {
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
                            cols[step.item][nc],
                            bname(pi),
                            cols[pi][pc]
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

    // Operator-tree report: the chain the statement lowers to, in pull
    // order. Derived from the same gate functions the lowering driver
    // uses (`plan_ops`), so this line cannot drift from executed code.
    // Absent when a `from` item is an unknown table (execution would
    // error before lowering).
    if let Some(ops) = crate::exec::plan_ops(ctx, stmt) {
        let _ = writeln!(out, "plan: {}", ops.join(" -> "));
    }

    // Exchange-eligibility report: the stages of the plan above that a
    // multi-threaded run would partition onto the worker pool, from the
    // same gates the operators use (see `crate::exec::parallel_stages`).
    // Absent when nothing is eligible, so serial-only plans stay
    // byte-identical to their pre-exchange form.
    if let Some(stages) = crate::exec::parallel_stages(ctx, stmt) {
        let _ = writeln!(out, "parallel: {}", stages.join(", "));
    }
    out
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
