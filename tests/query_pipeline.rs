//! The compile-once query pipeline, end to end:
//!
//! * **differential property**: every randomly generated (type-correct)
//!   select — and every grouped statement of a fixed corpus — returns the
//!   relation (or the error text) of a deliberately naive reference
//!   executor, `common/reference.rs`: compilation, join planning, pushdown
//!   and two-phase aggregation are execution strategies, never a
//!   semantics change;
//! * **golden plans**: `explain` output for the paper's Example 3.1 / 4.1
//!   query shapes and for a three-way join is locked down exactly;
//! * **prepared rules**: repeated rule processing reuses each rule's
//!   prepared state (reported as plan-cache hits), any DDL drops it, and
//!   the `plan_cache` events narrate both;
//! * **plan drift**: every operator that runs is one the `plan:` line of
//!   `explain` names, and every named one that emits rows runs;
//! * **access-path determinism**: index-backed scans return handles in
//!   the same order a full scan would (sorted), even after updates have
//!   scrambled index-bucket insertion order;
//! * **semi-join access**: `in` / `not in (select …)` agrees with a
//!   test-only linear kernel on every axis (index, threads), and
//!   Example 3.1's action does work proportional to the transition table.

#[path = "common/reference.rs"]
mod reference;

use setrules_core::{FiredRule, RuleSystem};
use setrules_query::planner::{scan_handles, Access};
use setrules_query::{
    execute_op, execute_query, explain_select, ExecOpts, NoTransitionTables, OpStatsCell,
    QueryCtx, QueryError, Relation, StatsCell, TransitionTableProvider,
};
use setrules_sql::ast::{DmlOp, SelectStmt, Statement, TransitionKind};
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
// Differential property: the executor ≡ the naive reference
// ----------------------------------------------------------------------

/// Compare one run with the reference's: the same rows in the same order,
/// or the same error text.
fn assert_same_outcome(
    got: Result<Relation, QueryError>,
    want: Result<Relation, QueryError>,
    what: &str,
) {
    match (got, want) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "result diverged for: {what}"),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "error diverged for: {what}"),
        (a, b) => panic!("outcome diverged for {what}: {a:?} vs reference {b:?}"),
    }
}

/// Tables for the generator: `(name, int columns, text columns)`.
const TABLES: &[(&str, &[&str], &[&str])] =
    &[("t1", &["a", "b"], &["s"]), ("t2", &["a", "c"], &[]), ("t3", &["a", "d"], &[])];

/// Run a `create table` statement against a bare database.
fn create_table(db: &mut Database, sql: &str) -> TableId {
    let Statement::CreateTable(ct) = parse_statement(sql).unwrap() else { panic!("not DDL: {sql}") };
    let cols =
        ct.columns.into_iter().map(|(n, ty)| setrules_storage::ColumnDef::new(n, ty)).collect();
    db.create_table(setrules_storage::TableSchema::new(ct.name, cols)).unwrap()
}

fn random_database(rng: &mut Rng) -> Database {
    random_database_of(rng, 0, 8)
}

/// [`random_database`] with fewer than `max_rows` rows per table, plus
/// `t1_min` more in `t1`.
fn random_database_of(rng: &mut Rng, t1_min: usize, max_rows: usize) -> Database {
    let mut db = Database::new();
    let mut create = |sql: &str| create_table(&mut db, sql);
    let t1 = create("create table t1 (a int, b int, s text)");
    let t2 = create("create table t2 (a int, c int)");
    let t3 = create("create table t3 (a int, d int)");
    // Index column `a` of a random subset of tables, so the same queries
    // run through probe, multi-probe, and seq-scan access paths. A `t1`
    // grown by `t1_min` stays unindexed: `state_image` lists every row's
    // index bucket, which is quadratic over thousands of rows sharing
    // eight key values.
    for t in [t1, t2, t3] {
        if rng.chance(1, 2) && (t != t1 || t1_min == 0) {
            db.create_index(t, ColumnId(0)).unwrap();
        }
    }
    let int_val = |rng: &mut Rng| {
        if rng.chance(1, 6) {
            Value::Null
        } else {
            Value::Int(rng.range_i64(-2, 5))
        }
    };
    for (tid, (_, ints, texts)) in [t1, t2, t3].into_iter().zip(TABLES) {
        let extra = if tid == t1 { t1_min } else { 0 };
        for _ in 0..extra + rng.below(max_rows) {
            let mut vals: Vec<Value> = ints.iter().map(|_| int_val(rng)).collect();
            for _ in texts.iter() {
                let s = rng.pick(&[Some("ab"), Some("ba"), Some("abc"), None]);
                vals.push(s.map_or(Value::Null, |s| Value::Text(s.into())));
            }
            db.insert(tid, setrules_storage::Tuple(vals)).unwrap();
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

/// The compiled executor against the reference interpreter (the naive
/// nested-loop executor over the AST evaluator) on random joins, filters
/// and `count(*)`s.
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
        let ops = OpStatsCell::new();
        let opts = ExecOpts { op_stats: Some(&ops), ..Default::default() };
        let got = execute_query(&db, &NoTransitionTables, &stmt, &opts);
        if let Ok(rel) = &got {
            check_op_stats(&ops, rel, &stmt, grouped, &sql);
        }
        assert_same_outcome(got, reference::select(&db, &stmt), &sql);
    });
}

/// Per-operator counter invariants for one successful run of the random
/// differential: every operator name comes from the executor's fixed
/// vocabulary, batch emission agrees with row emission, row flow is
/// conserved between adjacent operators, and the top operator's output is
/// the returned relation. Pass-through stages — the join of a sole item,
/// the filter of a statement without `where` — record nothing.
fn check_op_stats(
    ops: &OpStatsCell,
    rel: &Relation,
    stmt: &SelectStmt,
    grouped: bool,
    sql: &str,
) {
    const VOCAB: &[&str] = &[
        "seq-scan",
        "index-scan",
        "index-range-scan",
        "empty-scan",
        "transition-scan",
        "hash-join",
        "nested-loop",
        "filter",
        "project",
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
    // Each stage consumes exactly what the stage below it emitted: the
    // join (one of two items or more) what the scans emitted...
    let mut upstream: u64 = ["seq-scan", "index-scan", "index-range-scan", "empty-scan"]
        .iter()
        .map(|n| ops.get(n).rows_out)
        .sum();
    let joins = [ops.get("hash-join"), ops.get("nested-loop")];
    let join_in: u64 = joins.iter().map(|c| c.rows_in).sum();
    if stmt.from.len() > 1 {
        assert_eq!(join_in, upstream, "[{sql}] join input != scan output");
        upstream = joins.iter().map(|c| c.rows_out).sum();
    } else {
        assert_eq!(joins, [Default::default(); 2], "[{sql}] a sole item has no join stage");
    }
    // ...the filter (of a statement with `where`) the combinations...
    let filter = ops.get("filter");
    if stmt.predicate.is_some() {
        assert_eq!(filter.rows_in, upstream, "[{sql}] filter input != join output");
        upstream = filter.rows_out;
    } else {
        assert_eq!(filter, Default::default(), "[{sql}] no `where`, no filter stage");
    }
    // ...and the projection stage the survivors, producing the relation
    // (the generator adds no distinct/sort/limit tail). Grouped statements
    // aggregate in two phases: "partial-aggregate" consumes,
    // "final-aggregate" emits.
    if grouped {
        let agg_in = ops.get("partial-aggregate").rows_in;
        let agg_out = ops.get("final-aggregate").rows_out;
        assert_eq!(agg_in, upstream, "[{sql}] aggregate input");
        assert_eq!(agg_out, rel.rows.len() as u64, "[{sql}] aggregate output");
    } else {
        assert_eq!(ops.get("project").rows_in, upstream, "[{sql}] project input");
        assert_eq!(ops.get("project").rows_out, rel.rows.len() as u64, "[{sql}] project output");
    }
}

/// An error-producing predicate: division/modulo by zero, int/text type
/// mismatches, a bad `like ... escape`, or an unknown column — all
/// reached *lazily*, only when a row actually flows through the
/// expression (an empty scan must succeed).
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
/// must fail as the reference interpreter fails (same error text) — or
/// succeed identically when no row reaches the poisoned expression. One
/// stored item means no hash prefilter and no pushdown, so no prefilter
/// can skip an erroring row.
#[test]
fn compiled_and_interpreted_agree_on_error_producing_queries() {
    check("compiled_vs_interpreted_errors", 200, 0xe740_4411, |rng| {
        let db = random_database(rng);
        let (table, tints, ttexts) = rng.pick(TABLES);
        let ints: Vec<String> = tints.iter().map(|c| format!("x.{c}")).collect();
        let texts: Vec<String> = ttexts.iter().map(|c| format!("x.{c}")).collect();
        // Half the time the poison hides behind a guard that may or may
        // not short-circuit it away, so some cases succeed.
        let poison = error_prone_pred(rng, &ints, &texts);
        let pred = if rng.chance(1, 2) {
            format!("({} and {poison})", random_pred(rng, &ints, &texts, 1))
        } else {
            poison
        };
        let sql = format!("select count(*) from {table} x where {pred}");
        let stmt = sel(&sql);
        let got = execute_query(&db, &NoTransitionTables, &stmt, &ExecOpts::default());
        assert_same_outcome(got, reference::select(&db, &stmt), &sql);
    });
}

/// The tables of the grouped corpus: 420 `t1` rows (`a = i % 7`, NULL
/// every 13th row; `b = i`) and 100 `t2` rows (`a = i % 5`, `c = 3 i`).
fn grouped_database() -> Database {
    let mut db = Database::new();
    create_table(&mut db, "create table t1 (a int, b int)");
    create_table(&mut db, "create table t2 (a int, c int)");
    let t1: Vec<String> = (0..420)
        .map(|i| if i % 13 == 0 { format!("(NULL, {i})") } else { format!("({}, {i})", i % 7) })
        .collect();
    exec(&mut db, &format!("insert into t1 values {}", t1.join(", ")));
    let t2: Vec<String> = (0..100).map(|i| format!("({}, {})", i % 5, i * 3)).collect();
    exec(&mut db, &format!("insert into t2 values {}", t2.join(", ")));
    db
}

/// Grouped statements whose keys, aggregate arguments, `having`,
/// projections or `order by` keys are not row-local — subqueries in
/// `having`, the projection, `order by` and the group key; outer
/// references inside a grouped subquery; a nested aggregate over empty
/// and non-empty input; unknown columns — plus row-local controls. The
/// executor's two-phase aggregation must match the reference at 1 and at
/// 8 threads (the per-batch-size sweep of a small corpus is
/// `exec::tests::grouped_fallback_shapes_run_two_phase_at_every_batch_size`;
/// grouped statements over inputs past the exchange's gate are in
/// `tests/parallel_exec.rs`).
#[test]
fn grouped_statements_match_the_reference() {
    let db = grouped_database();
    let corpus = [
        "select a, count(*), sum(b) from t1 group by a \
         having sum(b) > (select max(c) from t2) * 39",
        "select a, sum(b) from t1 group by a \
         having count(*) > 55 and (select count(*) from t2) > 0 order by a",
        "select a, (select count(*) from t2 where t2.a = t1.a), max(b) from t1 group by a",
        "select a, count(*) from t1 group by a \
         order by (select count(*) from t2 where t2.a = t1.a) desc, a",
        "select a, b from t1 where b < 30 and exists \
         (select t2.a from t2 where t2.a = t1.a group by t2.a having count(*) > t1.b)",
        "select b, (select sum(t2.c * t1.b) from t2 where t2.a = t1.a) from t1 where b < 8",
        "select count(*), min(b) from t1 group by (select max(t2.c) from t2 where t2.a = t1.a)",
        "select sum(count(*)) from t1",
        "select sum(count(*)) from t1 where a > 99",
        "select nosuch, count(*) from t1 group by a",
        "select nosuch, count(*) from t1 where a > 99",
        "select a, count(*) from t1 where a > 99 group by a having nosuch > 0",
        "select a, sum(nosuch) from t1 group by a",
        "select a, count(*), sum(b), avg(b), min(b), max(b) from t1 group by a order by a desc",
        "select count(distinct a), sum(b) from t1 where b > 50",
        "select x.a, count(*), sum(y.c) from t1 x, t2 y where x.a = y.a group by x.a",
        "select b, a, count(*), (select count(*) from t2 where t2.a = t1.a) from t1 group by b, a",
        "select b, sum(a) from t1 group by b \
         having sum(a) > (select count(*) from t2) / 20 order by b desc limit 5",
        "select b, count(*), sum(a) from t1 group by b order by b desc limit 5",
    ];
    for sql in corpus {
        let stmt = sel(sql);
        for threads in [1, 8] {
            let opts = ExecOpts { threads, ..Default::default() };
            let got = execute_query(&db, &NoTransitionTables, &stmt, &opts);
            let want = reference::select(&db, &stmt);
            assert_same_outcome(got, want, &format!("{sql} (threads {threads})"));
        }
    }
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

/// The DML differentials' table sizes as `(t1_min, max_rows)` for
/// [`random_database_of`]: half the cases keep every table under 8 rows,
/// a quarter draw every table under 128 rows, and a quarter give `t1`
/// 4 096 to 4 127 rows, past the exchange's gate (two partitions of
/// `MIN_PARTITION` = 2 048 items), so an 8-thread run exchanges the
/// `where` pass whenever the predicate is row-local (a sole stored table
/// pushes nothing to its scan, and a fetch without conjuncts stays
/// serial). That quarter keeps `t2` and `t3` under 32 rows:
/// the naive reference runs a correlated subquery once per `t1` row, so
/// its cost grows with `t1` times the side table.
fn dml_table_rows(rng: &mut Rng) -> (usize, usize) {
    match rng.below(4) {
        0 | 1 => (0, 8),
        2 => (0, 128),
        _ => (4096, 32),
    }
}

/// Run `op` through `execute_op` `runs` times at each thread budget (1 and
/// 8, each on its own copy of the database) and `naive` as often on a
/// third: the outcomes (effect or error text) and the final
/// `state_image()` must all agree. Returns the serial run's first outcome
/// and whether the 8-thread run exchanged.
fn agree_at_1_and_8_threads(
    dbs: &mut [Database; 3],
    op: &DmlOp,
    runs: usize,
    mut naive: impl FnMut(&mut Database) -> Result<setrules_query::OpEffect, QueryError>,
    sql: &str,
) -> (Result<setrules_query::OpEffect, String>, bool) {
    let [serial, wide, naive_db] = dbs;
    let stats = StatsCell::new();
    let run = |db: &mut Database, opts: &ExecOpts| {
        let outcomes: Vec<_> = (0..runs)
            .map(|_| execute_op(db, &NoTransitionTables, op, opts).map_err(|e| e.to_string()))
            .collect();
        (outcomes, db.state_image())
    };
    let got = run(serial, &ExecOpts::default());
    let wide_got = run(wide, &ExecOpts { threads: 8, stats: Some(&stats), ..Default::default() });
    let outcomes: Vec<_> = (0..runs).map(|_| naive(naive_db).map_err(|e| e.to_string())).collect();
    let want = (outcomes, naive_db.state_image());
    assert_eq!(got, want, "diverged from the naive statement on: {sql}");
    assert_eq!(wide_got, want, "diverged at 8 threads on: {sql}");
    let first = got.0.into_iter().next().expect("at least one run");
    (first, stats.snapshot().parallel_scans > 0)
}

/// `update … set` through the compiled walk against the reference's
/// naive `update`: same affected set, same old values, same first error,
/// same final state — also on a second execution, which reads the first
/// one's writes — at 1 and at 8 threads.
#[test]
fn update_set_expressions_match_a_naive_update() {
    let (mut errors, mut updated, mut exchanged) = (0, 0, 0);
    check("update_set_compiled_vs_interpreted", 300, 0x5e7_c0de, |rng| {
        let (t1_min, max_rows) = dml_table_rows(rng);
        let mut twins = [rng.clone(), rng.clone()];
        let [t1, t2] = &mut twins;
        let mut dbs = [
            random_database_of(rng, t1_min, max_rows),
            random_database_of(t1, t1_min, max_rows),
            random_database_of(t2, t1_min, max_rows),
        ];
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
        let DmlOp::Update(update) = &op else { panic!("not an update: {sql}") };
        let (first, wide) =
            agree_at_1_and_8_threads(&mut dbs, &op, 2, |db| reference::update(db, update), &sql);
        errors += first.is_err() as usize;
        updated += first.as_ref().map_or(0, |eff| eff.cardinality());
        exchanged += wide as usize;
    });
    // The generator must keep hitting all three: failing statements,
    // statements that update rows, and 8-thread runs that exchange.
    assert!(
        errors >= 20 && updated >= 200 && exchanged >= 35,
        "{errors}/{updated}/{exchanged}"
    );
}

/// A random `delete from t1` predicate: a type-correct filter, an
/// error-producing one (bare or behind a guard), or a subquery — `in` /
/// `not in (select …)`, `exists`, and scalar subqueries, correlated or
/// not (a correlated scalar one can return several rows, an error).
fn random_delete_pred(rng: &mut Rng) -> String {
    let ints = ["t1.a".to_string(), "t1.b".to_string()];
    let texts = ["t1.s".to_string()];
    match rng.below(4) {
        0 => random_pred(rng, &ints, &texts, 2),
        1 => {
            let poison = error_prone_pred(rng, &ints, &texts);
            if rng.chance(1, 2) {
                format!("({} and {poison})", random_pred(rng, &ints, &texts, 1))
            } else {
                poison
            }
        }
        _ => match rng.below(6) {
            0 => format!("t1.a in (select t2.a from t2 where t2.c > {})", rng.range_i64(-2, 5)),
            1 => "t1.b not in (select t3.d from t3)".to_string(),
            2 => "exists (select * from t2 where t2.a = t1.b)".to_string(),
            3 => "t1.b > (select max(t3.d) from t3)".to_string(),
            4 => "t1.a = (select t2.c from t2 where t2.a = t1.b)".to_string(),
            _ => {
                let k = rng.range_i64(-2, 5);
                format!("t1.a in (select t3.a from t3 where t3.d / t1.b > {k})")
            }
        },
    }
}

/// `delete … where` through the operator tree against the reference's
/// naive `delete` (a nested loop over the AST evaluator, applied under a
/// statement mark): the same affected set with the same old values, or
/// the same error text, and the same final `state_image()` — at 1 and at
/// 8 threads, on tables on both sides of the exchange's gate.
#[test]
fn delete_predicates_match_a_naive_delete() {
    let (mut errors, mut deleted, mut exchanged) = (0, 0, 0);
    check("delete_compiled_vs_naive", 300, 0xde1e7e, |rng| {
        let (t1_min, max_rows) = dml_table_rows(rng);
        let mut twins = [rng.clone(), rng.clone()];
        let [t1, t2] = &mut twins;
        let mut dbs = [
            random_database_of(rng, t1_min, max_rows),
            random_database_of(t1, t1_min, max_rows),
            random_database_of(t2, t1_min, max_rows),
        ];
        let sql = if rng.chance(1, 10) {
            "delete from t1".to_string()
        } else {
            format!("delete from t1 where {}", random_delete_pred(rng))
        };
        let Statement::Dml(op) = parse_statement(&sql).unwrap() else { panic!("not DML: {sql}") };
        let DmlOp::Delete(delete) = &op else { panic!("not a delete: {sql}") };
        let (first, wide) =
            agree_at_1_and_8_threads(&mut dbs, &op, 1, |db| reference::delete(db, delete), &sql);
        errors += first.is_err() as usize;
        deleted += first.as_ref().map_or(0, |eff| eff.cardinality());
        exchanged += wide as usize;
    });
    assert!(errors >= 20 && deleted >= 200 && exchanged >= 20, "{errors}/{deleted}/{exchanged}");
}

/// Statement-level errors in a full engine: each multi-statement script
/// fails at its pinned statement index with its pinned error text, and
/// leaves exactly the rows the statements before it committed.
#[test]
fn engine_fails_at_the_pinned_statement() {
    type Script = (&'static [&'static str], (usize, &'static str), &'static [i64]);
    let scripts: &[Script] = &[
        (
            &[
                "insert into t values (1, 'a'), (2, 'b')",
                "update t set k = k / (k - k)", // division by zero on row 1
                "insert into t values (3, 'c')",
            ],
            (1, "integer division by zero"),
            &[1, 2],
        ),
        (
            &["insert into t values (1, 'a')", "select * from t where s > 5"], // lazily
            (1, "type error: cannot compare 'a' with 5"),
            &[1],
        ),
        (
            &["insert into t values (1, 'a')", "delete from t where ghost = 1"], // lazily
            (1, "unknown column 'ghost'"),
            &[1],
        ),
        (
            &["insert into t values (1, 'a')", "select * from t where s like 'a%' escape 'no'"],
            (1, "type error: escape must be a single character, got 'no'"),
            &[1],
        ),
    ];
    for (script, (at, text), keys) in scripts {
        let mut sys = RuleSystem::new();
        sys.execute("create table t (k int, s text)").unwrap();
        let mut failure = None;
        for (i, stmt) in script.iter().enumerate() {
            if let Err(e) = sys.execute(stmt) {
                failure = Some((i, e.to_string()));
                break;
            }
        }
        assert_eq!(failure, Some((*at, text.to_string())), "script {script:?}");
        let rows: Vec<Vec<Value>> = keys.iter().map(|k| vec![Value::Int(*k)]).collect();
        assert_eq!(sys.query("select k from t order by k").unwrap().rows, rows, "{script:?}");
    }
}

/// The full engine's rule firings and final state on the paper's
/// cascading-delete scenario, pinned.
#[test]
fn engine_cascade_matches_its_golden_firings() {
    let run = || -> (Vec<FiredRule>, Relation, Relation) {
        let mut sys = RuleSystem::new();
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
    let (fired, emp, dept) = run();
    let fired: Vec<_> =
        fired.iter().map(|f| (f.rule.as_str(), f.inserted, f.deleted, f.updated)).collect();
    assert_eq!(fired, [("r31", 0, 1, 0), ("r41", 0, 0, 0)]);
    let text = |s: &str| Value::Text(s.into());
    let (one, f1) = (Value::Int(1), Value::Float(1.0));
    assert_eq!(
        emp.rows,
        [
            vec![text("r"), one.clone(), f1.clone(), Value::Int(0)],
            vec![text("m2"), Value::Int(3), f1.clone(), Value::Int(2)],
            vec![text("w"), Value::Int(4), f1, Value::Int(3)],
        ]
    );
    assert_eq!(dept.rows, [[Value::Int(2), Value::Int(3)], [Value::Int(3), Value::Int(99)]]);
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
         parallel: where\n"
    );
    // Disconnected item: the planner attaches it as a cross step, last.
    let plan = sys.explain("select name from emp, dept, proj where emp.dept_no = dept.dept_no").unwrap();
    assert!(plan.contains("(cross, "), "{plan}");

    // The planned hash-join chain pays off: emp (200) x dept (40) x proj
    // (10) needs at most half of the 80 000 triples a nested loop visits.
    let combinations = || {
        let mut sys = RuleSystem::new();
        for (table, n, modulus) in [("emp", 200, 40), ("dept", 40, 10), ("proj", 10, 10)] {
            sys.execute(&format!("create table {table} (id int, fk int)")).unwrap();
            let rows: Vec<String> = (0..n).map(|i| format!("({i}, {})", i % modulus)).collect();
            sys.execute(&format!("insert into {table} values {}", rows.join(", "))).unwrap();
        }
        let base = sys.exec_stats();
        let count = sys
            .query("select count(*) from emp, dept, proj where emp.fk = dept.id and dept.fk = proj.id")
            .unwrap();
        assert_eq!(count.scalar(), Some(&Value::Int(200)));
        sys.exec_stats().since(&base).join_combinations
    };
    let compiled = combinations();
    assert!(2 * compiled <= 200 * 40 * 10, "compiled {compiled} vs the nested loop's 80 000");
}

/// Every line `explain` emits maps to either an access choice for a
/// `from` binding or a node of the lowered operator tree — no orphan
/// diagnostics, and no `plan:` operator outside the executor's fixed
/// name vocabulary. Drives explain across statements that exercise every
/// operator kind and asserts full vocabulary coverage, so adding an
/// operator (or renaming one) without teaching `explain` fails here.
/// Queries that between them reach every line kind of `explain` and every
/// operator of the executor (with `emp (dept_no)` hash-indexed and
/// `emp (salary)` ordered-indexed).
const EXPLAIN_QUERIES: &[&str] = &[
    "select * from emp",                                             // seq-scan, project
    "select * from emp where dept_no = 1",                           // index-scan, filter
    "select * from emp where salary > 5.0 order by name limit 2",    // range, sort, limit
    "select * from emp where dept_no = NULL",                        // empty-scan
    "select name from emp order by salary",                          // index-order-scan
    "select min(salary) from emp",                                   // index-boundary-scan
    "select distinct dept_no from emp",                              // distinct
    "select dept_no, count(*) from emp group by dept_no",            // two-phase aggregate
    // A subquery beside the aggregate is not row-local, so this
    // statement's final phase runs serially.
    "select count(*) from emp having count(*) > (select count(*) from dept)",
    "select name from emp, dept where emp.dept_no = dept.dept_no",   // hash-join
    "select name from emp, dept",                                    // nested-loop
    "select * from inserted emp",                                    // transition-scan
    "select * from nosuch",                                          // unknown table
];

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
        "partial-aggregate",
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
        "index-order-scan",
        "index-boundary-scan",
    ];

    let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for sql in EXPLAIN_QUERIES {
        let plan = sys.explain(sql).unwrap();
        for line in plan.lines() {
            let is_access_line = [
                ": seq scan (",
                ": index probe on ",
                ": index multi-probe on ",
                ": index range scan on ",
                ": index boundary probe on ",
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

/// The `plan:` line is the operator tree that runs, not a description of
/// it: each query of [`EXPLAIN_QUERIES`] runs over non-empty tables (big
/// enough for an 8-thread budget to exchange: 4 200 `emp` rows, past two
/// partitions of `MIN_PARTITION` = 2 048), at 1 and 8 threads, with
/// the per-operator side channel attached. Every operator that recorded
/// work is one the plan line names, and every named operator emitted rows
/// — the data gives every stage of every plan rows, except behind an
/// unsatisfiable predicate's `empty-scan`.
#[test]
fn explain_plan_line_names_the_operators_that_ran() {
    let mut db = Database::new();
    let dept = create_table(&mut db, "create table dept (dept_no int, mgr_no int)");
    let emp = "create table emp (name text, emp_no int, salary float, dept_no int)";
    let emp = create_table(&mut db, emp);
    db.create_index(emp, ColumnId(3)).unwrap();
    db.create_index_of(emp, ColumnId(2), setrules_storage::IndexKind::Ordered).unwrap();
    for d in 1..=3 {
        db.insert(dept, tuple![d, 10 * d]).unwrap();
    }
    for i in 0..4200i64 {
        db.insert(emp, tuple![format!("e{i}"), i, (i % 50) as f64, 1 + i % 3]).unwrap();
    }
    let inserted = |i: i64| vec![Value::Text(format!("t{i}")), Value::Int(i), 1.0.into(), 1.into()];
    let virt = FixedTransition((0..3).map(inserted).collect());
    for sql in EXPLAIN_QUERIES {
        let stmt = sel(sql);
        let explain = explain_select(QueryCtx::plain(&db), &stmt);
        let Some(line) = explain.lines().find_map(|l| l.strip_prefix("plan: ")) else {
            // Only an unknown table has no plan, and it cannot run.
            assert!(execute_query(&db, &virt, &stmt, &ExecOpts::default()).is_err(), "[{sql}]");
            continue;
        };
        let planned: Vec<&str> =
            line.split(" -> ").map(|op| op.split_once('(').map_or(op, |(base, _)| base)).collect();
        for threads in [1, 8] {
            let ops = OpStatsCell::new();
            let opts = ExecOpts { threads, op_stats: Some(&ops), ..Default::default() };
            execute_query(&db, &virt, &stmt, &opts).unwrap_or_else(|e| panic!("[{sql}] {e}"));
            let recorded = ops.snapshot();
            let at = format!("[{sql}] at {threads} threads, plan {line:?}, ran {recorded:?}");
            // The sort records as `topk` when its partial selection
            // engages, which the `limit: top-K` line announces; the
            // `exchange` row attributes the fan-out of any
            // partitioned phase (scans included), so it appears only
            // above one thread.
            for name in recorded.keys() {
                let named = match *name {
                    "topk" => planned.contains(&"sort") && explain.contains(" selection eligible"),
                    "exchange" => threads > 1,
                    other => planned.contains(&other),
                };
                assert!(named, "{at}: {name} ran but is not planned");
            }
            for op in &planned {
                let name = if *op == "sort" && recorded.contains_key("topk") { "topk" } else { op };
                if recorded.get(name).is_none_or(|c| c.rows_out == 0) {
                    assert_eq!(planned[0], "empty-scan", "{at}: planned {op} emitted nothing");
                    break;
                }
            }
        }
    }
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

    // A rule that refires 30 times in one transaction compiles once: every
    // later consideration hits the cache.
    let mut sys = RuleSystem::new();
    sys.execute("create table q (v int)").unwrap();
    sys.execute(
        "create rule countdown when inserted into q \
         if exists (select * from inserted q where v > 0) \
         then insert into q (select v - 1 from inserted q where v > 0)",
    )
    .unwrap();
    assert_eq!(sys.transaction("insert into q values (30)").unwrap().fired().len(), 30);
    assert!(sys.stats().plan_cache_hits >= 30, "{:?}", sys.stats());
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
/// indexed table must return exactly the rows an unindexed one does.
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
        let opts = ExecOpts::default();
        let via_scan = execute_query(&scan_db, &NoTransitionTables, &stmt, &opts).unwrap();
        let via_index = execute_query(&index_db, &NoTransitionTables, &stmt, &opts).unwrap();
        assert_eq!(via_scan, via_index, "scan/index diverged for {sql}");
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
        &Access::IndexIn {
            column: ColumnId(0),
            values: vec![Value::Int(5), Value::Int(7)],
            from_subquery: false,
        },
    );
    assert_eq!(multi, expect(&db, t, &[5, 7]), "IndexIn must match full-scan order");
    assert!(multi.windows(2).all(|w| w[0] < w[1]), "sorted and deduplicated");
}

// ----------------------------------------------------------------------
// Semi-join access: `in (select …)`
// ----------------------------------------------------------------------

/// The test-only reference for `needle [not] in (haystack)`: a linear
/// walk under three-valued logic that stops at the first match and raises
/// at the first incomparable pair. `Ok(None)` is UNKNOWN.
fn reference_in(needle: &Value, haystack: &[Value], negated: bool) -> Result<Option<bool>, String> {
    let mut unknown = false;
    for v in haystack {
        if needle.is_null() || v.is_null() {
            unknown = true;
            continue;
        }
        match needle.sql_cmp(v) {
            Some(std::cmp::Ordering::Equal) => return Ok(Some(!negated)),
            Some(_) => {}
            // Two numbers that will not order: a NaN is involved.
            None if needle.as_f64().is_some() && v.as_f64().is_some() => unknown = true,
            None => return Err(format!("type error: cannot compare {needle} with {v}")),
        }
    }
    Ok(if unknown { None } else { Some(negated) })
}

/// SQL literals with the values they evaluate to, per column type. The
/// float domain has NaN, both zeros, and values an int column can and
/// cannot equal.
fn literal_domain(ty: &str) -> Vec<(&'static str, Value)> {
    match ty {
        "int" => vec![
            ("NULL", Value::Null),
            ("-1", Value::Int(-1)),
            ("0", Value::Int(0)),
            ("1", Value::Int(1)),
            ("2", Value::Int(2)),
            ("3", Value::Int(3)),
        ],
        "float" => vec![
            ("NULL", Value::Null),
            ("0.0 / 0.0", Value::Float(f64::NAN)),
            ("-0.0", Value::Float(-0.0)),
            ("0.0", Value::Float(0.0)),
            ("1.0", Value::Float(1.0)),
            ("2.0", Value::Float(2.0)),
            ("2.5", Value::Float(2.5)),
        ],
        _ => vec![
            ("NULL", Value::Null),
            ("'a'", Value::Text("a".into())),
            ("'b'", Value::Text("b".into())),
            ("'c'", Value::Text("c".into())),
        ],
    }
}

/// 300 generated `in` / `not in (select …)` statements, each run as a
/// select on eight configurations (outer column indexed or not, compiled
/// or interpreted, 1 or 4 threads) and as a delete, against
/// [`reference_in`]: the same rows, or the same first error. Haystacks
/// hold NULL, NaN, −0.0 and Int↔Float mixes, are sometimes empty, and are
/// sometimes of a domain the needle cannot be compared with; the subquery
/// is sometimes correlated, and sometimes divides by zero — behind a
/// `false and`, where it must not raise.
#[test]
fn in_subquery_agrees_with_linear_reference_on_every_axis() {
    let (mut errors, mut probed, mut kept, mut unknowns) = (0, 0, 0, 0);
    check("in_subquery_vs_linear_reference", 300, 0x5e41_7013, |rng| {
        let outer_ty = *rng.pick(&["int", "int", "float", "text"]);
        // Mostly the outer column's own domain or its numeric sibling;
        // sometimes one it cannot be compared with.
        let hay_ty = match (outer_ty, rng.below(8)) {
            (_, 0) => *rng.pick(&["int", "float", "text"]),
            ("int", 1..=3) => "float",
            ("float", 1..=3) => "int",
            (ty, _) => ty,
        };
        // Every few cases the outer table is big enough to open the
        // exchange gate at 4 threads.
        let n_outer = if rng.chance(1, 5) { 64 + rng.below(40) } else { rng.below(10) };
        let n_hay = if rng.chance(1, 6) { 0 } else { 1 + rng.below(8) };
        let outer_dom = literal_domain(outer_ty);
        let hay_dom = literal_domain(hay_ty);
        let outer: Vec<(i64, usize)> =
            (0..n_outer).map(|k| (k as i64, rng.below(outer_dom.len()))).collect();
        let hay: Vec<(i64, usize)> = (0..n_hay)
            .map(|_| (rng.range_i64(0, n_outer.clamp(1, 6) as i64), rng.below(hay_dom.len())))
            .collect();

        let negated = rng.chance(1, 3);
        let not = if negated { "not " } else { "" };
        let cut = rng.range_i64(0, 6);
        // (predicate on h inside the subquery, projected expression)
        let form = rng.below(10);
        let (sub_filter, projected) = match form {
            0..=3 => ("", "v"),
            4 | 5 => ("filtered", "v"),
            6 | 7 => ("correlated", "v"),
            _ => ("", "1 / 0"),
        };
        let sub_where = match sub_filter {
            "filtered" => format!(" where g >= {cut}"),
            "correlated" => " where h.g = o.k".to_string(),
            _ => String::new(),
        };
        let membership = format!("x {not}in (select {projected} from h{sub_where})");
        let guard_cut = rng.range_i64(0, 4);
        let (guard, pred) = match (form, rng.below(3)) {
            (9, _) => ("false", format!("false and {membership}")),
            (_, 0) => ("cut", format!("k >= {guard_cut} and {membership}")),
            _ => ("", membership.clone()),
        };

        // The reference: outer rows in handle order, first error wins.
        let mut expect: Result<Vec<Vec<Value>>, String> = Ok(Vec::new());
        for &(k, xi) in &outer {
            if guard == "false" || (guard == "cut" && k < guard_cut) {
                continue;
            }
            let haystack: Vec<Value> = hay
                .iter()
                .filter(|(g, _)| match sub_filter {
                    "filtered" => *g >= cut,
                    "correlated" => *g == k,
                    _ => true,
                })
                .map(|(_, vi)| hay_dom[*vi].1.clone())
                .collect();
            let verdict = if projected == "v" {
                reference_in(&outer_dom[xi].1, &haystack, negated)
            } else if haystack.is_empty() {
                Ok(Some(negated))
            } else {
                Err("integer division by zero".to_string())
            };
            match verdict {
                Ok(Some(true)) => expect.as_mut().unwrap().push(vec![Value::Int(k)]),
                Ok(Some(false)) => {}
                Ok(None) => unknowns += 1,
                Err(e) => {
                    expect = Err(e);
                    break;
                }
            }
        }

        let build = |indexed: bool, kind: &str| {
            let mut db = Database::new();
            let o = create_table(&mut db, &format!("create table o (k int, x {outer_ty})"));
            create_table(&mut db, &format!("create table h (g int, v {hay_ty})"));
            for (k, xi) in &outer {
                exec(&mut db, &format!("insert into o values ({k}, {})", outer_dom[*xi].0));
            }
            for (g, vi) in &hay {
                exec(&mut db, &format!("insert into h values ({g}, {})", hay_dom[*vi].0));
            }
            if indexed {
                let kind = match kind {
                    "ordered" => setrules_storage::IndexKind::Ordered,
                    _ => setrules_storage::IndexKind::Hash,
                };
                db.create_index_of(o, ColumnId(1), kind).unwrap();
            }
            db
        };
        let kind = *rng.pick(&["hash", "ordered"]);
        let sql = format!("select k from o where {pred}");
        let stmt = sel(&sql);
        for indexed in [false, true] {
            let db = build(indexed, kind);
            for threads in [1, 4] {
                let stats = StatsCell::new();
                let opts = ExecOpts { threads, stats: Some(&stats), ..Default::default() };
                let got = execute_query(&db, &NoTransitionTables, &stmt, &opts)
                    .map(|rel| rel.rows)
                    .map_err(|e| e.to_string());
                assert_eq!(
                    got, expect,
                    "[{sql}] indexed={indexed} ({kind}) threads={threads}\n\
                     o({outer_ty})={outer:?}\nh({hay_ty})={hay:?}"
                );
                if indexed && threads == 1 {
                    probed += (stats.snapshot().index_lookups > 0) as usize;
                }
            }
        }
        // The same predicate identifying a delete's tuples.
        let mut db = build(true, kind);
        let deleted = {
            let Statement::Dml(op) = parse_statement(&format!("delete from o where {pred}")).unwrap()
            else {
                panic!()
            };
            execute_op(&mut db, &NoTransitionTables, &op, &ExecOpts::default())
                .map(|eff| eff.cardinality())
                .map_err(|e| e.to_string())
        };
        assert_eq!(deleted, expect.as_ref().map(Vec::len).map_err(String::clone), "[delete] {sql}");
        let left = execute_query(
            &db,
            &NoTransitionTables,
            &sel("select count(*) from o"),
            &ExecOpts::default(),
        )
        .unwrap();
        let gone = expect.as_ref().map_or(0, Vec::len);
        assert_eq!(left.scalar(), Some(&Value::Int((outer.len() - gone) as i64)), "[delete] {sql}");

        errors += expect.is_err() as usize;
        kept += gone;
    });
    // The generator must keep reaching: statements that raise, statements
    // answered through index probes, rows kept, and UNKNOWN verdicts.
    assert!(
        errors >= 25 && probed >= 40 && kept >= 300 && unknowns >= 300,
        "{errors}/{probed}/{kept}/{unknowns}"
    );
}

/// Serves fixed rows as every transition table (the tests below only ask
/// for one).
struct FixedTransition(Vec<Vec<Value>>);

impl TransitionTableProvider for FixedTransition {
    fn rows<'a>(
        &'a self,
        _db: &'a Database,
        _kind: TransitionKind,
        _table: &str,
        _column: Option<&str>,
    ) -> Result<Vec<std::borrow::Cow<'a, [Value]>>, QueryError> {
        Ok(self.0.iter().map(|r| std::borrow::Cow::Borrowed(r.as_slice())).collect())
    }
}

/// Example 3.1's action body as the firing sees it: with `deleted dept`
/// available the indexed `emp` is probed once per deleted department, and
/// `explain` prints the first five probes, their number, and where they
/// came from.
#[test]
fn golden_explain_example_3_1_action_with_transition_rows() {
    let mut sys = paper_system();
    sys.execute("create index on emp (dept_no)").unwrap();
    for d in 3..12 {
        sys.execute(&format!("insert into emp values ('e{d}', {d}, 10.0, {d})")).unwrap();
    }
    let shape = sel("select * from emp where dept_no in (select dept_no from deleted dept)");
    let explain = |deleted: &[i64]| {
        let virt = FixedTransition(
            deleted.iter().map(|d| vec![Value::Int(*d), Value::Int(d * 10)]).collect(),
        );
        explain_select(QueryCtx { virt: &virt, ..QueryCtx::plain(sys.database()) }, &shape)
    };
    assert_eq!(
        explain(&[2, 1, 2]),
        "emp: index multi-probe on emp.dept_no in (2, 1) from subquery\n\
         plan: index-scan(emp) -> filter -> project\n"
    );
    assert_eq!(
        explain(&[1, 2, 3, 4, 5, 6, 7]),
        "emp: index multi-probe on emp.dept_no in (1, 2, 3, 4, 5, … (7 probes)) from subquery\n\
         plan: index-scan(emp) -> filter -> project\n"
    );
    // No deleted department: nothing can match.
    assert_eq!(
        explain(&[]),
        "emp: empty (predicate unsatisfiable)\nplan: empty-scan(emp) -> filter -> project\n"
    );
    // As many probes as rows: the scan is no worse, and hashes membership.
    assert_eq!(
        explain(&(0..12).collect::<Vec<_>>()),
        "emp: seq scan (12 rows)\nplan: seq-scan(emp) -> filter -> project\n"
    );
}

/// The work-counter gate for the semi-join access (named in
/// `scripts/ci.sh`): Example 3.1 at 50 deleted parents × 100 children in
/// a 100 000-row indexed `child`. The action touches the 5 000 matching
/// children and the 50 transition rows that name them — every row it
/// scans it keeps — through index probes alone; without the index it
/// scans the table once, to the same effect.
#[test]
fn semi_join_example_3_1_work_counters() {
    let mut sys = RuleSystem::new();
    for sql in [
        "create table parent (pk int, payload int)",
        "create table child (fk int, payload int)",
        "create table digits (d int)",
        "create index on child (fk)",
        "create rule cascade when deleted from parent \
         then delete from child where fk in (select pk from deleted parent)",
    ] {
        sys.execute(sql).unwrap();
    }
    let tuples = |n: i64| (0..n).map(|i| format!("({i}, {i})")).collect::<Vec<_>>().join(", ");
    sys.execute(&format!("insert into parent values {}", tuples(1000))).unwrap();
    let digits = (0..100).map(|i| format!("({i})")).collect::<Vec<_>>().join(", ");
    sys.execute(&format!("insert into digits values {digits}")).unwrap();
    sys.execute("insert into child (select pk, d from parent, digits)").unwrap();
    assert_eq!(sys.query("select count(*) from child").unwrap().scalar(), Some(&Value::Int(100_000)));

    let cascade = |sys: &mut RuleSystem| {
        sys.begin().unwrap();
        sys.run_op("delete from parent where pk < 50").unwrap();
        let report = sys.process_rules().unwrap();
        let left = sys.query("select count(*) from child").unwrap().scalar().cloned();
        sys.rollback().unwrap();
        (report.stats.exec, report.fired, left)
    };
    let (probed, fired_probed, left_probed) = cascade(&mut sys);
    // 5 000 children and the 50 `deleted parent` rows; nothing else.
    assert_eq!((probed.rows_scanned, probed.rows_matched), (5050, 5050), "{probed:?}");
    assert_eq!((probed.full_scans, probed.index_lookups), (0, 1), "{probed:?}");
    assert_eq!(probed.subquery_cache_misses, 1, "one evaluation, shared by planner and rows");
    assert_eq!(probed.subquery_cache_hits, 5000, "every probed row asks the shared result");
    assert_eq!(left_probed, Some(Value::Int(95_000)));

    sys.execute("drop index on child (fk)").unwrap();
    let (scanned, fired_scanned, left_scanned) = cascade(&mut sys);
    assert_eq!((scanned.full_scans, scanned.index_lookups), (1, 0), "{scanned:?}");
    assert_eq!((scanned.rows_scanned, scanned.rows_matched), (100_050, 5050), "{scanned:?}");
    assert_eq!(fired_scanned, fired_probed, "same firing, same transition effect");
    assert_eq!(left_scanned, left_probed);

    // §1's claim for an equality predicate in a rule action: with
    // `emp.dept_no` indexed, the action's scan stays at its 10 matching
    // rows as the table grows; without the index it scans every row.
    for indexed in [true, false] {
        for n in [1_000, 4_000] {
            let mut sys = RuleSystem::new();
            sys.execute("create table emp (emp_no int, dept_no int)").unwrap();
            sys.execute("create table go (k int)").unwrap();
            if indexed {
                sys.execute("create index on emp (dept_no)").unwrap();
            }
            let rows: Vec<String> =
                (0..n).map(|i| format!("({i}, {})", if i < 10 { 77 } else { i % 10 })).collect();
            sys.execute(&format!("insert into emp values {}", rows.join(", "))).unwrap();
            sys.execute("create rule purge when inserted into go then delete from emp where dept_no = 77")
                .unwrap();
            sys.begin().unwrap();
            sys.run_op("insert into go values (1)").unwrap();
            let report = sys.process_rules().unwrap();
            sys.rollback().unwrap();
            assert_eq!(report.fired[0].deleted, 10);
            let want = if indexed { 10 } else { n as u64 };
            assert_eq!(report.stats.exec.rows_scanned, want, "indexed {indexed}, {n} rows");
        }
    }
}
