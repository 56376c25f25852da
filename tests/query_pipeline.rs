//! The compile-once query pipeline, end to end:
//!
//! * **differential property**: every randomly generated (type-correct)
//!   select returns byte-identical relations under `ExecMode::Compiled`
//!   and `ExecMode::Interpreted` — compilation is an execution strategy,
//!   never a semantics change;
//! * **golden plans**: `explain` output for the paper's Example 3.1 / 4.1
//!   query shapes and for a three-way join is locked down exactly;
//! * **plan cache**: repeated rule processing hits the per-rule cache,
//!   any DDL invalidates it, and the `plan_cache` events narrate both;
//! * **access-path determinism**: index-backed scans return handles in
//!   the same order a full scan would (sorted), even after updates have
//!   scrambled index-bucket insertion order.

use setrules_core::{EngineConfig, FiredRule, RuleSystem};
use setrules_query::planner::{scan_handles, Access};
use setrules_query::{
    execute_op, execute_query, ExecMode, ExecOpts, NoTransitionTables, OpStatsCell, Relation,
};
use setrules_sql::ast::{DmlOp, SelectStmt, Statement};
use setrules_sql::parse_statement;
use setrules_storage::{tuple, ColumnId, Database, TableId, Value};
use setrules_testkit::{check, Rng};

fn exec(db: &mut Database, sql: &str) {
    let Statement::Dml(op) = parse_statement(sql).unwrap() else { panic!("not DML: {sql}") };
    execute_op(db, &NoTransitionTables, &op, &ExecOpts::default()).unwrap();
}

fn sel(sql: &str) -> SelectStmt {
    match parse_statement(sql).unwrap() {
        Statement::Dml(DmlOp::Select(s)) => s,
        _ => panic!("not a select: {sql}"),
    }
}

// ----------------------------------------------------------------------
// Differential property: compiled ≡ interpreted
// ----------------------------------------------------------------------

/// Tables for the generator: `(name, int columns, text columns)`.
const TABLES: &[(&str, &[&str], &[&str])] =
    &[("t1", &["a", "b"], &["s"]), ("t2", &["a", "c"], &[]), ("t3", &["a", "d"], &[])];

fn random_database(rng: &mut Rng) -> Database {
    let mut db = Database::new();
    let mut create = |sql: &str| {
        let Statement::CreateTable(ct) = parse_statement(sql).unwrap() else { panic!() };
        let cols = ct
            .columns
            .into_iter()
            .map(|(n, ty)| setrules_storage::ColumnDef::new(n, ty))
            .collect();
        db.create_table(setrules_storage::TableSchema::new(ct.name, cols)).unwrap()
    };
    let t1 = create("create table t1 (a int, b int, s text)");
    let t2 = create("create table t2 (a int, c int)");
    let t3 = create("create table t3 (a int, d int)");
    // Index column `a` of a random subset of tables, so the same queries
    // run through probe, multi-probe, and seq-scan access paths.
    for t in [t1, t2, t3] {
        if rng.chance(1, 2) {
            db.create_index(t, ColumnId(0)).unwrap();
        }
    }
    let int_lit = |rng: &mut Rng| {
        if rng.chance(1, 6) {
            "NULL".to_string()
        } else {
            rng.range_i64(-2, 5).to_string()
        }
    };
    for (name, ints, texts) in TABLES {
        for _ in 0..rng.below(8) {
            let mut vals: Vec<String> = ints.iter().map(|_| int_lit(rng)).collect();
            for _ in texts.iter() {
                vals.push(rng.pick(&["'ab'", "'ba'", "'abc'", "NULL"]).to_string());
            }
            exec(&mut db, &format!("insert into {name} values ({})", vals.join(", ")));
        }
    }
    db
}

/// A random predicate over the given qualified column names; always
/// type-correct (int comparisons on int columns, `like` on text).
fn random_pred(rng: &mut Rng, ints: &[String], texts: &[String], depth: usize) -> String {
    if depth > 0 && rng.chance(1, 2) {
        let left = random_pred(rng, ints, texts, depth - 1);
        let right = random_pred(rng, ints, texts, depth - 1);
        return match rng.below(3) {
            0 => format!("({left} and {right})"),
            1 => format!("({left} or {right})"),
            _ => format!("not ({left})"),
        };
    }
    let term = |rng: &mut Rng| {
        if rng.chance(1, 3) {
            rng.range_i64(-2, 5).to_string()
        } else {
            rng.pick_cloned(ints)
        }
    };
    match rng.below(if texts.is_empty() { 5 } else { 6 }) {
        0 | 1 => {
            let op = rng.pick(&["=", "<>", "<", "<=", ">", ">="]);
            format!("{} {op} {}", term(rng), term(rng))
        }
        2 => {
            let vals: Vec<String> =
                (0..1 + rng.below(3)).map(|_| rng.range_i64(-2, 5).to_string()).collect();
            let not = if rng.chance(1, 4) { "not " } else { "" };
            format!("{} {not}in ({})", rng.pick_cloned(ints), vals.join(", "))
        }
        3 => {
            let lo = rng.range_i64(-2, 3);
            format!("{} between {lo} and {}", rng.pick_cloned(ints), lo + rng.range_i64(0, 3))
        }
        4 => {
            let not = if rng.chance(1, 2) { " not" } else { "" };
            format!("{} is{not} null", rng.pick_cloned(ints))
        }
        _ => {
            let pat = rng.pick(&["'a%'", "'%b'", "'_b%'", "'ab'"]);
            format!("{} like {pat}", rng.pick_cloned(texts))
        }
    }
}

#[test]
fn compiled_and_interpreted_agree_on_random_queries() {
    check("compiled_vs_interpreted", 300, 0xc0_4411ed, |rng| {
        let db = random_database(rng);
        // 1–3 from items (repeats allowed — distinct aliases).
        let n_items = 1 + rng.below(3);
        let aliases = ["x", "y", "z"];
        let mut from = Vec::new();
        let mut ints = Vec::new();
        let mut texts = Vec::new();
        for alias in aliases.iter().take(n_items) {
            let (table, tints, ttexts) = rng.pick(TABLES);
            from.push(format!("{table} {alias}"));
            ints.extend(tints.iter().map(|c| format!("{alias}.{c}")));
            texts.extend(ttexts.iter().map(|c| format!("{alias}.{c}")));
        }
        let proj = match rng.below(3) {
            0 => "*".to_string(),
            1 => "count(*)".to_string(),
            _ => {
                let k = 1 + rng.below(ints.len().min(3));
                (0..k).map(|_| rng.pick_cloned(&ints)).collect::<Vec<_>>().join(", ")
            }
        };
        let mut sql = format!("select {proj} from {}", from.join(", "));
        if rng.chance(3, 4) {
            sql.push_str(&format!(" where {}", random_pred(rng, &ints, &texts, 2)));
        }
        let stmt = sel(&sql);
        let grouped = proj == "count(*)";
        let run = |mode: ExecMode| {
            let ops = OpStatsCell::new();
            let r = execute_query(
                &db,
                &NoTransitionTables,
                &stmt,
                &ExecOpts { mode, op_stats: Some(&ops), ..Default::default() },
            );
            if let Ok(rel) = &r {
                check_op_stats(&ops, rel, grouped, &sql);
            }
            r
        };
        match (run(ExecMode::Compiled), run(ExecMode::Interpreted)) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "result diverged for: {sql}"),
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "error diverged for: {sql}")
            }
            (a, b) => panic!("outcome diverged for {sql}: {a:?} vs {b:?}"),
        }
    });
}

/// Per-operator counter invariants for one successful run of the random
/// differential: every operator name comes from the executor's fixed
/// vocabulary, batch emission agrees with row emission, row flow is
/// conserved between adjacent operators, and the top operator's output is
/// the returned relation.
fn check_op_stats(ops: &OpStatsCell, rel: &Relation, grouped: bool, sql: &str) {
    const VOCAB: &[&str] = &[
        "seq-scan",
        "index-scan",
        "index-range-scan",
        "empty-scan",
        "transition-scan",
        "join", // JoinExec's drain label (also its emit label for a sole item)
        "hash-join",
        "nested-loop",
        "filter",
        "project",
        "aggregate",
        "partial-aggregate",
        "final-aggregate",
        "exchange",
        "distinct",
        "sort",
        "topk",
        "limit",
    ];
    for (name, c) in ops.snapshot() {
        assert!(VOCAB.contains(&name), "[{sql}] unknown operator {name:?} in op stats");
        assert_eq!(
            c.batches > 0,
            c.rows_out > 0,
            "[{sql}] {name}: batches={} vs rows_out={}",
            c.batches,
            c.rows_out
        );
    }
    // The join stage consumes exactly what the scans emitted...
    let scan_out: u64 = ["seq-scan", "index-scan", "index-range-scan", "empty-scan"]
        .iter()
        .map(|n| ops.get(n).rows_out)
        .sum();
    assert_eq!(ops.get("join").rows_in, scan_out, "[{sql}] join input != scan output");
    // ...and the filter consumes exactly the combinations the join
    // emitted, whichever label the join finished under.
    let join_out: u64 =
        ["join", "hash-join", "nested-loop"].iter().map(|n| ops.get(n).rows_out).sum();
    assert_eq!(ops.get("filter").rows_in, join_out, "[{sql}] filter input != join output");
    // The projection stage consumes the filter's survivors and produces
    // the relation (the generator adds no distinct/sort/limit tail).
    // Grouped statements aggregate either in one pass ("aggregate": the
    // interpreter and ineligible shapes) or in two phases
    // ("partial-aggregate" consumes, "final-aggregate" emits); exactly
    // one label set is populated per run, so the sums conserve flow in
    // both modes.
    if grouped {
        let agg_in = ops.get("aggregate").rows_in + ops.get("partial-aggregate").rows_in;
        let agg_out = ops.get("aggregate").rows_out + ops.get("final-aggregate").rows_out;
        assert_eq!(agg_in, ops.get("filter").rows_out, "[{sql}] aggregate input");
        assert_eq!(agg_out, rel.rows.len() as u64, "[{sql}] aggregate output");
    } else {
        assert_eq!(ops.get("project").rows_in, ops.get("filter").rows_out, "[{sql}] project input");
        assert_eq!(ops.get("project").rows_out, rel.rows.len() as u64, "[{sql}] project output");
    }
}

/// An error-producing predicate: division/modulo by zero, int/text type
/// mismatches, a bad `like ... escape`, or an unknown column — all
/// reached *lazily*, only when a row actually flows through the
/// expression (an empty scan must succeed in both modes).
fn error_prone_pred(rng: &mut Rng, ints: &[String], texts: &[String]) -> String {
    let a = rng.pick_cloned(ints);
    match rng.below(if texts.is_empty() { 4 } else { 6 }) {
        0 => format!("{a} / ({a} - {a}) = 1"),
        1 => format!("{a} % ({a} - {a}) = 0"),
        2 => format!("{a} = 'oops'"),
        3 => format!("no_such_column = {a}"),
        4 => format!("{} > 3", rng.pick_cloned(texts)),
        _ => format!("{} like 'a%' escape '!!'", rng.pick_cloned(texts)),
    }
}

/// The differential extended to error paths: queries that divide by
/// zero, compare across types, hit unknown names, or pass a bad escape
/// must fail identically (same error text) — or succeed identically when
/// no row reaches the poisoned expression — in both modes.
#[test]
fn compiled_and_interpreted_agree_on_error_producing_queries() {
    check("compiled_vs_interpreted_errors", 200, 0xe740_4411, |rng| {
        let db = random_database(rng);
        let (table, tints, ttexts) = rng.pick(TABLES);
        let ints: Vec<String> = tints.iter().map(|c| format!("x.{c}")).collect();
        let texts: Vec<String> = ttexts.iter().map(|c| format!("x.{c}")).collect();
        // Half the time the poison hides behind a guard that may or may
        // not short-circuit it away, so some cases succeed in both modes.
        let poison = error_prone_pred(rng, &ints, &texts);
        let pred = if rng.chance(1, 2) {
            format!("({} and {poison})", random_pred(rng, &ints, &texts, 1))
        } else {
            poison
        };
        let sql = format!("select count(*) from {table} x where {pred}");
        let stmt = sel(&sql);
        let run = |mode: ExecMode| {
            execute_query(&db, &NoTransitionTables, &stmt, &ExecOpts { mode, ..Default::default() })
        };
        match (run(ExecMode::Compiled), run(ExecMode::Interpreted)) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "result diverged for: {sql}"),
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "error diverged for: {sql}")
            }
            (a, b) => panic!("outcome diverged for {sql}: {a:?} vs {b:?}"),
        }
    });
}

/// A random `set` right-hand side over `t1`: column arithmetic, NULL,
/// `i64` overflow, division by zero on some rows, and correlated scalar
/// subqueries (one of which can return several rows, which is an error).
fn random_set_expr(rng: &mut Rng) -> String {
    let col = |rng: &mut Rng| rng.pick(&["a", "b", "t1.a", "t1.b"]).to_string();
    match rng.below(8) {
        0 => format!("{} + {}", col(rng), rng.range_i64(-2, 5)),
        1 => format!("{} * {}", col(rng), col(rng)),
        2 => "NULL".to_string(),
        3 => format!("{} * 9223372036854775807", col(rng)),
        4 => format!("{} / ({} - {})", col(rng), col(rng), rng.range_i64(-2, 5)),
        5 => "(select max(t2.c) from t2 where t2.a = t1.a)".to_string(),
        6 => "(select t2.c from t2 where t2.a = t1.a)".to_string(),
        _ => format!("{} - (select count(*) from t3 where t3.d > t1.b)", col(rng)),
    }
}

/// `update … set` goes through the compiled walk (and the plan cache) in
/// compiled mode and through the AST interpreter in the reference mode:
/// same affected set, same old values, same first error, same final
/// state — also on a second execution, which reads the first one's
/// writes and, compiled, is answered from the plan cache.
#[test]
fn update_set_expressions_agree_across_modes() {
    let (mut cache_hits, mut errors, mut updated) = (0, 0, 0);
    check("update_set_compiled_vs_interpreted", 300, 0x5e7_c0de, |rng| {
        let mut twin = rng.clone();
        let mut dbs = [random_database(rng), random_database(&mut twin)];
        let ints = ["t1.a".to_string(), "t1.b".to_string()];
        let texts = ["t1.s".to_string()];
        let sets: Vec<String> = (0..1 + rng.below(2))
            .map(|_| format!("{} = {}", rng.pick(&["a", "b"]), random_set_expr(rng)))
            .collect();
        let filter = if rng.chance(2, 3) {
            format!(" where {}", random_pred(rng, &ints, &texts, 1))
        } else {
            String::new()
        };
        let sql = format!("update t1 set {}{filter}", sets.join(", "));
        let Statement::Dml(op) = parse_statement(&sql).unwrap() else { panic!("not DML: {sql}") };
        let plans = setrules_query::PlanCache::new();
        let mut outcomes = Vec::new();
        for (db, mode) in dbs.iter_mut().zip([ExecMode::Compiled, ExecMode::Interpreted]) {
            let opts = ExecOpts { mode, plans: Some(&plans), ..Default::default() };
            let runs: Vec<_> = (0..2)
                .map(|_| execute_op(db, &NoTransitionTables, &op, &opts).map_err(|e| e.to_string()))
                .collect();
            outcomes.push((runs, db.state_image()));
        }
        assert_eq!(outcomes[0], outcomes[1], "modes diverged on: {sql}");
        cache_hits += plans.counters().0;
        let first = &outcomes[0].0[0];
        errors += first.is_err() as usize;
        updated += first.as_ref().map_or(0, |eff| eff.cardinality());
    });
    // The generator must keep hitting all three: failing statements,
    // statements that update rows, and plan-cache hits on the rerun.
    assert!(errors >= 20 && updated >= 200 && cache_hits >= 600, "{errors}/{updated}/{cache_hits}");
}

/// Statement-level error agreement: running the same multi-statement
/// script through full engines in both modes fails at the same statement
/// index with the same error text, and both leave identical final state.
#[test]
fn engine_modes_fail_at_the_same_statement() {
    let scripts: &[&[&str]] = &[
        &[
            "insert into t values (1, 'a'), (2, 'b')",
            "update t set k = k / (k - k)", // division by zero on row 1
            "insert into t values (3, 'c')",
        ],
        &[
            "insert into t values (1, 'a')",
            "select * from t where s > 5", // text/int mismatch, lazily
        ],
        &[
            "insert into t values (1, 'a')",
            "delete from t where ghost = 1", // unknown column, lazily
        ],
        &[
            "insert into t values (1, 'a')",
            "select * from t where s like 'a%' escape 'no'", // bad escape
        ],
    ];
    for script in scripts {
        let run = |mode: ExecMode| -> (Option<(usize, String)>, Relation) {
            let mut sys =
                RuleSystem::with_config(EngineConfig { exec_mode: mode, ..Default::default() });
            sys.execute("create table t (k int, s text)").unwrap();
            let mut failure = None;
            for (i, stmt) in script.iter().enumerate() {
                if let Err(e) = sys.execute(stmt) {
                    failure = Some((i, e.to_string()));
                    break;
                }
            }
            (failure, sys.query("select k from t order by k").unwrap())
        };
        let compiled = run(ExecMode::Compiled);
        let interpreted = run(ExecMode::Interpreted);
        assert_eq!(compiled, interpreted, "modes diverged on script {script:?}");
        assert!(compiled.0.is_some(), "script {script:?} was expected to fail");
    }
}

/// The full engine produces identical rule firings and final state in
/// both modes on the paper's cascading-delete scenarios.
#[test]
fn engine_modes_agree_end_to_end() {
    let run = |mode: ExecMode| -> (Vec<FiredRule>, Relation, Relation) {
        let mut sys = RuleSystem::with_config(EngineConfig { exec_mode: mode, ..Default::default() });
        sys.execute("create table dept (dept_no int, mgr_no int)").unwrap();
        sys.execute("create table emp (name text, emp_no int, salary float, dept_no int)").unwrap();
        sys.execute("create index on emp (dept_no)").unwrap();
        sys.execute(
            "create rule r31 when deleted from dept \
             then delete from emp where dept_no in (select dept_no from deleted dept)",
        )
        .unwrap();
        sys.execute(
            "create rule r41 when deleted from emp \
             then delete from dept where mgr_no in (select emp_no from deleted emp)",
        )
        .unwrap();
        sys.execute("insert into dept values (1, 2), (2, 3), (3, 99)").unwrap();
        sys.execute(
            "insert into emp values ('r', 1, 1.0, 0), ('m1', 2, 1.0, 1), \
             ('m2', 3, 1.0, 2), ('w', 4, 1.0, 3)",
        )
        .unwrap();
        let out = sys.transaction("delete from dept where dept_no = 1").unwrap();
        let emp = sys.query("select name, emp_no, salary, dept_no from emp order by emp_no").unwrap();
        let dept = sys.query("select dept_no, mgr_no from dept order by dept_no").unwrap();
        (out.fired().to_vec(), emp, dept)
    };
    assert_eq!(run(ExecMode::Compiled), run(ExecMode::Interpreted));
}

// ----------------------------------------------------------------------
// Golden explain plans
// ----------------------------------------------------------------------

fn paper_system() -> RuleSystem {
    let mut sys = RuleSystem::new();
    sys.execute("create table dept (dept_no int, mgr_no int)").unwrap();
    sys.execute("create table emp (name text, emp_no int, salary float, dept_no int)").unwrap();
    sys.execute("insert into dept values (1, 10), (2, 20)").unwrap();
    sys.execute(
        "insert into emp values ('a', 1, 10.0, 1), ('b', 2, 10.0, 1), ('c', 3, 10.0, 2)",
    )
    .unwrap();
    sys
}

/// Example 3.1's action body: `delete from emp where dept_no in (select
/// dept_no from deleted dept)`. The subquery's probe values exist only
/// per firing, so the general plan is a seq scan; once the values are
/// literal (what the firing sees), an index turns it into a multi-probe.
#[test]
fn golden_explain_example_3_1_action_shape() {
    let mut sys = paper_system();
    let shape = "select * from emp where dept_no in (select dept_no from deleted dept)";
    let generic = "emp: seq scan (3 rows)\nplan: seq-scan(emp) -> filter -> project\n";
    assert_eq!(sys.explain(shape).unwrap(), generic);
    sys.execute("create index on emp (dept_no)").unwrap();
    assert_eq!(sys.explain(shape).unwrap(), generic);
    assert_eq!(
        sys.explain("select * from emp where dept_no in (1, 2)").unwrap(),
        "emp: index multi-probe on emp.dept_no in (1, 2)\n\
         plan: index-scan(emp) -> filter -> project\n\
         parallel: where\n"
    );
}

/// Example 4.1's recursive-cascade action body, with its two-level
/// subquery chain: `delete from emp where dept_no in (select dept_no from
/// dept where mgr_no in (select emp_no from deleted emp))`.
#[test]
fn golden_explain_example_4_1_action_shape() {
    let mut sys = paper_system();
    sys.execute("create index on emp (dept_no)").unwrap();
    assert_eq!(
        sys.explain(
            "select * from emp where dept_no in \
             (select dept_no from dept where mgr_no in (select emp_no from deleted emp))"
        )
        .unwrap(),
        "emp: seq scan (3 rows)\nplan: seq-scan(emp) -> filter -> project\n"
    );
    // The inner dept lookup, as the executor sees it with literal probe
    // values, keys on the equality probe.
    assert_eq!(
        sys.explain("select dept_no from dept where dept_no = 1").unwrap(),
        "dept: seq scan (2 rows)\nplan: seq-scan(dept) -> filter -> project\nparallel: where\n"
    );
}

#[test]
fn golden_explain_three_way_join_order() {
    let mut sys = paper_system();
    sys.execute("create table proj (proj_no int, dept_no int)").unwrap();
    sys.execute("insert into proj values (100, 1)").unwrap();
    let plan = sys
        .explain(
            "select name from emp, dept, proj \
             where emp.dept_no = dept.dept_no and proj.dept_no = dept.dept_no",
        )
        .unwrap();
    assert_eq!(
        plan,
        "emp: seq scan (3 rows)\n\
         dept: seq scan (2 rows)\n\
         proj: seq scan (1 rows)\n\
         join order: proj (1 rows) -> dept (hash on dept.dept_no = proj.dept_no, 2 rows) \
         -> emp (hash on emp.dept_no = dept.dept_no, 3 rows)\n\
         plan: seq-scan(emp) -> seq-scan(dept) -> seq-scan(proj) -> hash-join -> filter -> project\n\
         parallel: join, where\n"
    );
    // Disconnected item: the planner attaches it as a cross step, last.
    let plan = sys.explain("select name from emp, dept, proj where emp.dept_no = dept.dept_no").unwrap();
    assert!(plan.contains("(cross, "), "{plan}");
}

/// Every line `explain` emits maps to either an access choice for a
/// `from` binding or a node of the lowered operator tree — no orphan
/// diagnostics, and no `plan:` operator outside the executor's fixed
/// name vocabulary. Drives explain across statements that exercise every
/// operator kind and asserts full vocabulary coverage, so adding an
/// operator (or renaming one) without teaching `explain` fails here.
#[test]
fn every_explain_line_maps_to_an_operator_or_access_choice() {
    let mut sys = paper_system();
    sys.execute("create index on emp (dept_no)").unwrap();
    sys.execute("create index on emp (salary) using ordered").unwrap();

    // Exact (parameterless) operator names, and the parameterized ones
    // that print as `base(arg)` — together, the executor vocabulary.
    const EXACT_OPS: &[&str] = &[
        "hash-join",
        "nested-loop",
        "filter",
        "project",
        "aggregate",
        "partial-aggregate",
        "exchange",
        "final-aggregate",
        "distinct",
        "sort",
        "limit",
    ];
    const PARAM_OPS: &[&str] = &[
        "seq-scan",
        "index-scan",
        "index-range-scan",
        "empty-scan",
        "transition-scan",
        "index-minmax",
        "index-order-scan",
    ];

    let queries = [
        "select * from emp",                                             // seq-scan, project
        "select * from emp where dept_no = 1",                           // index-scan, filter
        "select * from emp where salary > 5.0 order by name limit 2",    // range, sort, limit
        "select * from emp where dept_no = NULL",                        // empty-scan
        "select name from emp order by salary",                          // index-order-scan
        "select min(salary) from emp",                                   // index-minmax
        "select distinct dept_no from emp",                              // distinct
        "select dept_no, count(*) from emp group by dept_no",            // two-phase aggregate
        // A subquery beside the aggregate is not row-local, so this
        // grouped statement keeps the one-pass aggregate.
        "select count(*) from emp having count(*) > (select count(*) from dept)",
        "select name from emp, dept where emp.dept_no = dept.dept_no",   // hash-join
        "select name from emp, dept",                                    // nested-loop
        "select * from inserted emp",                                    // transition-scan
        "select * from nosuch",                                          // unknown table
    ];

    let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for sql in queries {
        let plan = sys.explain(sql).unwrap();
        for line in plan.lines() {
            let is_access_line = [
                ": seq scan (",
                ": index probe on ",
                ": index multi-probe on ",
                ": index range scan on ",
                ": empty (predicate unsatisfiable)",
                ": transition table ",
                ": unknown table '",
            ]
            .iter()
            .any(|p| line.contains(p));
            if is_access_line {
                continue;
            }
            if line.starts_with("order by: elided via ordered index on ")
                || (line.starts_with("limit: top-") && line.contains(" selection eligible"))
                || line.starts_with("join order: ")
                || line.starts_with("parallel: ")
            {
                continue; // lowering-choice reports (elision / top-K / join
                          // plan / exchange eligibility)
            }
            let Some(ops) = line.strip_prefix("plan: ") else {
                panic!("[{sql}] unmapped explain line: {line:?}");
            };
            for op in ops.split(" -> ") {
                let base = op.split_once('(').map_or(op, |(b, _)| b);
                let known = EXACT_OPS.contains(&op)
                    || (PARAM_OPS.contains(&base) && op.ends_with(')'));
                assert!(known, "[{sql}] operator {op:?} outside the executor vocabulary");
                seen.insert(base.to_string());
            }
        }
    }

    // The query set above must light up the whole vocabulary; a new
    // operator that no query reaches would silently shrink this test.
    let want: std::collections::BTreeSet<String> =
        EXACT_OPS.iter().chain(PARAM_OPS).map(|s| s.to_string()).collect();
    assert_eq!(seen, want, "explain vocabulary coverage drifted");
}

// ----------------------------------------------------------------------
// Plan cache lifecycle
// ----------------------------------------------------------------------

#[test]
fn plan_cache_hits_on_repeated_processing_and_clears_on_ddl() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.execute("create table log (k int)").unwrap();
    sys.execute(
        "create rule copy when inserted into t \
         if exists (select * from inserted t) \
         then insert into log (select k from inserted t)",
    )
    .unwrap();

    sys.execute("insert into t values (1)").unwrap();
    let s1 = sys.stats().clone();
    assert_eq!(s1.plan_cache_hits, 0, "first consideration compiles fresh");
    assert!(s1.plan_cache_misses >= 1);

    sys.execute("insert into t values (2)").unwrap();
    let s2 = sys.stats().clone();
    assert!(s2.plan_cache_hits >= 1, "second transaction reuses the rule's plans");

    // The event stream narrates the cache: at least one miss then a hit.
    let kinds: Vec<String> = sys
        .recent_events()
        .iter()
        .filter(|e| e.kind() == "plan_cache")
        .map(|e| e.to_string())
        .collect();
    assert!(kinds.contains(&"plan cache miss for 'copy'".to_string()), "{kinds:?}");
    assert!(kinds.contains(&"plan cache hit for 'copy'".to_string()), "{kinds:?}");

    // Any DDL drops every cached plan: the next consideration is a miss.
    sys.execute("create index on t (k)").unwrap();
    sys.execute("insert into t values (3)").unwrap();
    let s3 = sys.stats().clone();
    assert_eq!(s3.plan_cache_misses, s2.plan_cache_misses + 1, "DDL invalidated the cache");
    assert_eq!(s3.plan_cache_hits, s2.plan_cache_hits, "no stale hit after DDL");

    // Interpreted mode never touches the cache.
    let mut isys = RuleSystem::with_config(EngineConfig {
        exec_mode: ExecMode::Interpreted,
        ..Default::default()
    });
    isys.execute("create table t (k int)").unwrap();
    isys.execute("create table log (k int)").unwrap();
    isys.execute(
        "create rule copy when inserted into t then insert into log (select k from inserted t)",
    )
    .unwrap();
    isys.execute("insert into t values (1)").unwrap();
    isys.execute("insert into t values (2)").unwrap();
    assert_eq!(isys.stats().plan_cache_hits, 0);
    assert_eq!(isys.stats().plan_cache_misses, 0);
    assert!(isys.recent_events().iter().all(|e| e.kind() != "plan_cache"));
}

/// Regression: DDL executed *inside a rule action* mid-`process rules`
/// (an external action calling [`setrules_core::ActionCtx::create_index`])
/// must invalidate the plan cache just like top-level DDL — cached plans
/// embed catalog-derived slot positions. (`create rule` mid-processing is
/// architecturally impossible: statement-level DDL requires no open
/// transaction, and `ActionCtx` exposes no rule-definition surface.)
#[test]
fn mid_processing_ddl_in_rule_action_invalidates_plan_cache() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.execute("create table log (k int)").unwrap();
    sys.execute(
        "create rule copy when inserted into t \
         if exists (select * from inserted t) \
         then insert into log (select k from inserted t)",
    )
    .unwrap();
    let done = Arc::new(AtomicBool::new(false));
    let flag = done.clone();
    sys.create_rule_external(
        "indexer",
        "inserted into t",
        None,
        Arc::new(move |ctx: &mut setrules_core::ActionCtx<'_>| {
            if !flag.swap(true, Ordering::Relaxed) {
                ctx.create_index("t", "k")?;
            }
            Ok(())
        }),
    )
    .unwrap();
    sys.execute("create rule priority copy before indexer").unwrap();

    // Txn 1: both rules compile fresh; indexer then creates the index,
    // dropping every cached plan.
    sys.execute("insert into t values (1)").unwrap();
    let s1 = sys.stats().clone();
    assert_eq!(s1.plan_cache_hits, 0);
    assert!(s1.plan_cache_misses >= 2);
    assert!(done.load(Ordering::Relaxed), "the external action ran its DDL");

    // Txn 2: the mid-processing DDL invalidated the cache, so both rules
    // miss again — no stale hit against the pre-index catalog.
    sys.execute("insert into t values (2)").unwrap();
    let s2 = sys.stats().clone();
    assert_eq!(s2.plan_cache_hits, 0, "a hit here would be a stale plan surviving mid-txn DDL");
    assert!(s2.plan_cache_misses >= s1.plan_cache_misses + 2);

    // Txn 3: no further DDL — the rebuilt plans are reused.
    sys.execute("insert into t values (3)").unwrap();
    let s3 = sys.stats().clone();
    assert!(s3.plan_cache_hits >= 2, "both rules reuse plans once the catalog is stable");

    // The rule pipeline stayed correct throughout.
    assert_eq!(
        sys.query("select count(*) from log").unwrap().scalar().unwrap(),
        &Value::Int(3)
    );
    assert!(sys.explain("select * from t where k = 2").unwrap().contains("index"));
}

// ----------------------------------------------------------------------
// Access-path determinism
// ----------------------------------------------------------------------

/// NaN float semantics, scan vs index: comparisons involving NaN are
/// UNKNOWN (never true), and NaN literals are excluded from index
/// equi-probes (falling back to scan / skipping the `in` item) — so an
/// indexed table must return exactly the rows an unindexed one does, in
/// both execution modes.
#[test]
fn nan_rows_scan_vs_index_differential() {
    let build = |indexed: bool| -> Database {
        let mut db = Database::new();
        let cols = vec![
            setrules_storage::ColumnDef::new("k", setrules_storage::DataType::Int),
            setrules_storage::ColumnDef::new("v", setrules_storage::DataType::Float),
        ];
        let t = db.create_table(setrules_storage::TableSchema::new("f", cols)).unwrap();
        if indexed {
            db.create_index(t, ColumnId(1)).unwrap();
        }
        // Two NaN rows (0.0 / 0.0 evaluates to NaN for floats) amid
        // ordinary values; the index stores NaN under its bit pattern.
        exec(
            &mut db,
            "insert into f values (1, 1.0), (2, 0.0 / 0.0), (3, 2.0), (4, 0.0 / 0.0), (5, 1.0)",
        );
        db
    };
    let queries = [
        "select k from f where v = 1.0",
        "select k from f where v = 0.0 / 0.0",
        "select k from f where v <> 1.0",
        "select k from f where v in (1.0, 0.0 / 0.0)",
        "select k from f where v in (0.0 / 0.0)",
        "select k from f where v between 0.5 and 1.5",
        "select k from f where not (v = 0.0 / 0.0)",
    ];
    let scan_db = build(false);
    let index_db = build(true);
    for sql in queries {
        let stmt = sel(sql);
        for mode in [ExecMode::Compiled, ExecMode::Interpreted] {
            let opts = ExecOpts { mode, ..Default::default() };
            let via_scan = execute_query(&scan_db, &NoTransitionTables, &stmt, &opts).unwrap();
            let via_index = execute_query(&index_db, &NoTransitionTables, &stmt, &opts).unwrap();
            assert_eq!(via_scan, via_index, "scan/index diverged for {sql} ({mode:?})");
        }
    }
    // Spot-check the semantics themselves: NaN comparisons are UNKNOWN,
    // so `v = NaN`, `v <> 1.0` on NaN rows, and `not (v = NaN)` all
    // exclude the NaN rows.
    let rows = |sql: &str| {
        execute_query(&index_db, &NoTransitionTables, &sel(sql), &ExecOpts::default())
        .unwrap()
        .rows
        .into_iter()
        .map(|r| r[0].as_i64().unwrap())
        .collect::<Vec<_>>()
    };
    assert_eq!(rows("select k from f where v = 1.0 order by k"), vec![1, 5]);
    assert_eq!(rows("select k from f where v = 0.0 / 0.0"), Vec::<i64>::new());
    assert_eq!(rows("select k from f where v <> 1.0"), vec![3]);
    assert_eq!(rows("select k from f where not (v = 0.0 / 0.0)"), Vec::<i64>::new());
    assert_eq!(rows("select k from f where v in (1.0, 0.0 / 0.0) order by k"), vec![1, 5]);
}

#[test]
fn index_scans_return_handles_in_full_scan_order() {
    let mut db = Database::new();
    let t = {
        let cols = vec![setrules_storage::ColumnDef::new("k", setrules_storage::DataType::Int)];
        db.create_table(setrules_storage::TableSchema::new("t", cols)).unwrap()
    };
    db.create_index(t, ColumnId(0)).unwrap();
    for k in [3i64, 5, 7, 5, 3, 7, 5] {
        db.insert(t, tuple![k]).unwrap();
    }
    // Move early-handle rows across buckets so bucket insertion order no
    // longer matches handle order.
    exec(&mut db, "update t set k = 5 where k = 3");
    exec(&mut db, "update t set k = 7 where k = 5");
    exec(&mut db, "update t set k = 5 where k = 7");

    let expect = |db: &Database, t: TableId, keys: &[i64]| {
        scan_handles(db, t, &Access::FullScan)
            .into_iter()
            .filter(|h| {
                let row = db.table(t).get(*h).unwrap();
                keys.iter().any(|k| row.0[0] == Value::Int(*k))
            })
            .collect::<Vec<_>>()
    };
    let eq5 = scan_handles(&db, t, &Access::IndexEq { column: ColumnId(0), value: Value::Int(5) });
    assert_eq!(eq5, expect(&db, t, &[5]), "IndexEq must match full-scan order");
    let multi = scan_handles(
        &db,
        t,
        &Access::IndexIn { column: ColumnId(0), values: vec![Value::Int(5), Value::Int(7)] },
    );
    assert_eq!(multi, expect(&db, t, &[5, 7]), "IndexIn must match full-scan order");
    assert!(multi.windows(2).all(|w| w[0] < w[1]), "sorted and deduplicated");
}
