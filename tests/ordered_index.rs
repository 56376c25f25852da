//! Ordered secondary indexes, end to end:
//!
//! * **differential property**: random tables and random
//!   range / order-by / limit / min-max queries return byte-identical
//!   relations, or raise the same error, with and without ordered
//!   indexes — an access path is an execution strategy, never a
//!   semantics change;
//! * **boundary semantics**: NULLs never match a range, NaN bounds make a
//!   predicate unsatisfiable, NaN *values* are excluded from every range;
//! * **prepared-rule lifecycle**: creating or dropping an ordered index
//!   from inside a rule action mid-`process rules` drops every rule's
//!   prepared state, exactly like hash-index DDL;
//! * **min/max counters**: a NaN boundary leaves the statement to a full
//!   scan without counting the boundary probe's lookups;
//! * **§4 abort**: rolling back a transaction (explicitly or through a
//!   `rollback` rule action) restores the ordered index's BTree buckets
//!   byte-identically (via `Database::state_image`).

use setrules_core::{RuleSystem, TxnOutcome};
use setrules_query::{
    execute_op, execute_query, explain_select, ExecOpts, NoTransitionTables, QueryCtx, StatsCell,
};
use setrules_sql::ast::{DmlOp, SelectStmt, Statement};
use setrules_sql::parse_statement;
use setrules_storage::{ColumnDef, ColumnId, DataType, Database, IndexKind, TableSchema, Value};
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
// Differential property: ordered-indexed ≡ unindexed
// ----------------------------------------------------------------------

/// Literal pools per column. Range predicates built from these are
/// type-safe for every row (numeric-vs-numeric or text-vs-text); the
/// fallible trees the generator makes on purpose — the `10 / k > 0`
/// conjunct, the `10 / k` and `s + 1` projections, the unexpandable `x.*`
/// — must raise the same error whether or not an ordered index serves
/// the scan.
const INT_LITS: &[&str] = &["-3", "0", "2", "5", "8", "1.5", "-2.5", "1e300", "-1e300", "NULL"];
const FLOAT_LITS: &[&str] = &[
    "0.0",
    "-0.0",
    "1.5",
    "-2.5",
    "7.25",
    "1e300",
    "-1e300",
    "(0.0 / 0.0)",
    "2",
    "NULL",
];
const TEXT_LITS: &[&str] = &["'a'", "'ab'", "'b'", "'c'", "NULL"];

fn lits_for(col: &str) -> &'static [&'static str] {
    match col {
        "k" => INT_LITS,
        "v" => FLOAT_LITS,
        _ => TEXT_LITS,
    }
}

/// Build the same random `t (k int, v float, s text)` twice: once bare,
/// once with ordered indexes on a random non-empty subset of columns.
fn build_pair(rng: &mut Rng) -> (Database, Database) {
    let schema = || {
        TableSchema::new(
            "t".to_string(),
            vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("v", DataType::Float),
                ColumnDef::new("s", DataType::Text),
            ],
        )
    };
    let mut plain = Database::new();
    let mut indexed = Database::new();
    plain.create_table(schema()).unwrap();
    let t = indexed.create_table(schema()).unwrap();
    let mut any = false;
    for c in 0..3u16 {
        if rng.chance(1, 2) {
            indexed.create_index_of(t, ColumnId(c), IndexKind::Ordered).unwrap();
            any = true;
        }
    }
    if !any {
        indexed.create_index_of(t, ColumnId(rng.below(3) as u16), IndexKind::Ordered).unwrap();
    }
    for _ in 0..rng.below(12) {
        let k = if rng.chance(1, 6) {
            "NULL".to_string()
        } else {
            rng.range_i64(-3, 8).to_string()
        };
        let v = rng.pick(&["0.0", "-0.0", "1.5", "-2.5", "7.25", "1e300", "(0.0 / 0.0)", "NULL"]);
        let s = rng.pick(TEXT_LITS);
        let sql = format!("insert into t values ({k}, {v}, {s})");
        exec(&mut plain, &sql);
        exec(&mut indexed, &sql);
    }
    (plain, indexed)
}

/// A random range-flavoured conjunct on one column, type-safe by
/// construction (numeric literals on `k`/`v`, text on `s`).
fn range_conjunct(rng: &mut Rng) -> String {
    let col = *rng.pick(&["k", "v", "s"]);
    let lits = lits_for(col);
    match rng.below(4) {
        0 | 1 => {
            let op = rng.pick(&["<", "<=", ">", ">=", "="]);
            format!("{col} {op} {}", rng.pick(lits))
        }
        2 => format!("{col} between {} and {}", rng.pick(lits), rng.pick(lits)),
        _ => {
            let vals: Vec<&str> = (0..1 + rng.below(3)).map(|_| *rng.pick(lits)).collect();
            format!("{col} in ({})", vals.join(", "))
        }
    }
}

fn random_query(rng: &mut Rng) -> String {
    let proj = *rng.pick(&[
        "*",
        "count(*)",
        "k, v, s",
        "min(k)",
        "max(v), min(v)",
        "k, 10 / k",
        "min(s), max(s)",
        "s + 1",
        "x.*",
        "min(k), max(v)",
        "max(s), min(k), min(v)",
        "min(distinct v)",
    ]);
    let mut sql = format!("select {proj} from t");
    let mut pred = None;
    if rng.chance(3, 4) {
        let mut p = range_conjunct(rng);
        if rng.chance(1, 3) {
            let glue = if rng.chance(2, 3) { "and" } else { "or" };
            p = format!("({p}) {glue} ({})", range_conjunct(rng));
        }
        pred = Some(p);
    }
    if rng.chance(1, 4) {
        // Never and-ed beside a range conjunct: an index range may skip
        // the row the division fails on, the one divergence the executor
        // accepts (a prefilter may skip a row whose evaluation errors).
        pred = Some(pred.map_or("10 / k > 0".to_string(), |p| format!("({p}) or 10 / k > 0")));
    }
    if let Some(p) = pred {
        sql.push_str(&format!(" where {p}"));
    }
    if proj.contains('(') {
        // Aggregates and order-by don't mix in this grammar; a bare
        // aggregate row may still be cut.
        if rng.chance(1, 2) {
            sql.push_str(&format!(" limit {}", rng.below(2)));
        }
        return sql;
    }
    // Bare columns and row expressions may order (the key-order walk
    // needs exactly one order key).
    if rng.chance(2, 3) {
        let col = rng.pick(&["k", "v", "s"]);
        sql.push_str(&format!(" order by {col}"));
        if rng.chance(1, 2) {
            sql.push_str(" desc");
        }
    }
    if rng.chance(1, 2) {
        sql.push_str(&format!(" limit {}", rng.below(5)));
    }
    sql
}

#[test]
fn ordered_index_and_full_scan_agree_on_random_queries() {
    let (mut elided, mut boundary) = (0, 0);
    check("ordered_vs_scan", 300, 0x0b1204de4ed, |rng| {
        let (plain, indexed) = build_pair(rng);
        for _ in 0..4 {
            let sql = random_query(rng);
            let stmt = sel(&sql);
            let stats = StatsCell::new();
            let opts = ExecOpts { stats: Some(&stats), ..ExecOpts::default() };
            let reference = execute_query(&plain, &NoTransitionTables, &stmt, &opts);
            let base = stats.snapshot();
            let got = execute_query(&indexed, &NoTransitionTables, &stmt, &opts);
            elided += usize::from(stats.snapshot().since(&base).sort_elided > 0);
            let plan = explain_select(QueryCtx::plain(&indexed), &stmt);
            boundary += usize::from(plan.contains(": index boundary probe on "));
            match (&reference, &got) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "indexed diverged for: {sql}"),
                (Err(a), Err(b)) => {
                    assert_eq!(a.to_string(), b.to_string(), "indexed error diverged for: {sql}")
                }
                (a, b) => panic!("indexed outcome diverged for {sql}: {a:?} vs {b:?}"),
            }
        }
    });
    // The seed's corpus elides 122 sorts and answers 46 statements by the
    // boundary probe; a gate change that starves either path fails here.
    // The seed's corpus elides 130 sorts and answers 40 statements by the
    // boundary probe; a gate change that starves either path fails here.
    assert!(elided >= 65, "only {elided} statements took the key-order walk");
    assert!(boundary >= 20, "only {boundary} statements took the boundary probe");
}

/// An error on a row past the `limit` cutoff surfaces whether the sort
/// runs or the ordered index elides it: the sort-free walk stops early
/// only when no row can fail, and otherwise evaluates every remaining row.
#[test]
fn an_error_past_the_limit_surfaces_with_and_without_the_index() {
    let build = |ordered: bool| {
        let mut db = Database::new();
        let t = db
            .create_table(TableSchema::new(
                "t".to_string(),
                vec![ColumnDef::new("k", DataType::Int), ColumnDef::new("v", DataType::Int)],
            ))
            .unwrap();
        if ordered {
            db.create_index_of(t, ColumnId(0), IndexKind::Ordered).unwrap();
        }
        exec(&mut db, "insert into t values (1, 1), (2, 2), (3, 3), (4, 0)");
        db
    };
    let run = |db: &Database, sql: &str| {
        let stats = StatsCell::new();
        let opts = ExecOpts { stats: Some(&stats), ..ExecOpts::default() };
        let out = execute_query(db, &NoTransitionTables, &sel(sql), &opts).map(|r| r.rows);
        (out, stats.snapshot())
    };
    for sql in [
        "select 10 / v from t order by k limit 2",
        "select k from t where 10 / v > 0 order by k limit 2",
    ] {
        for ordered in [false, true] {
            let (out, s) = run(&build(ordered), sql);
            let want = Err(setrules_query::QueryError::DivisionByZero);
            assert_eq!(out, want, "{sql}, index {ordered}");
            assert_eq!((s.sort_elided, s.rows_scanned), (u64::from(ordered), 4), "{sql}: {s:?}");
        }
    }
    // Bare columns cannot fail, so the walk still stops at the cutoff.
    let (out, s) = run(&build(true), "select k, v from t order by k limit 2");
    let int = Value::Int;
    assert_eq!(out, Ok(vec![vec![int(1), int(1)], vec![int(2), int(2)]]));
    assert_eq!((s.sort_elided, s.rows_scanned), (1, 2), "{s:?}");
}

/// A `where` error outranks every projection error, so an ordered index
/// on the `order by` key must not let a projection fail first: neither an
/// unexpandable `x.*` nor a row that the key order reaches before the
/// row the predicate fails on. Every run raises the division by zero the
/// unindexed plan raises, with and without a `limit`.
#[test]
fn an_ordered_index_never_changes_which_error_surfaces() {
    let build = |second: (&str, DataType), rows: &str, ordered: bool| {
        let mut db = Database::new();
        let cols = vec![ColumnDef::new("k", DataType::Int), ColumnDef::new(second.0, second.1)];
        let t = db.create_table(TableSchema::new("t", cols)).unwrap();
        if ordered {
            db.create_index_of(t, ColumnId(0), IndexKind::Ordered).unwrap();
        }
        exec(&mut db, &format!("insert into t values {rows}"));
        db
    };
    let cases = [
        (("v", DataType::Int), "(1, 1), (2, 2), (3, 3), (4, 0)", "select x.* from t where 10 / v > 0"),
        (("s", DataType::Text), "(2, 'y'), (1, 'x')", "select s + 1 from t where 10 / (k - 2) > -100"),
    ];
    for (second, rows, select) in cases {
        for ordered in [false, true] {
            let db = build(second, rows, ordered);
            for tail in ["order by k", "order by k limit 1"] {
                let sql = format!("{select} {tail}");
                let stats = StatsCell::new();
                let opts = ExecOpts { stats: Some(&stats), ..ExecOpts::default() };
                let out = execute_query(&db, &NoTransitionTables, &sel(&sql), &opts);
                let want = Err(setrules_query::QueryError::DivisionByZero);
                assert_eq!(out.map(|r| r.rows), want, "{sql}, index {ordered}");
                assert_eq!(stats.snapshot().sort_elided, u64::from(ordered), "{sql}");
            }
        }
    }
}

/// The boundary semantics the differential can only probabilistically
/// hit, pinned down: NULL rows never match a range, a NULL or NaN bound
/// makes the predicate unsatisfiable, NaN values fall outside every
/// range (even `v <= 1e300` / `v >= -1e300`).
#[test]
fn null_and_nan_range_boundaries() {
    let build = |ordered: bool| {
        let mut db = Database::new();
        let t = db
            .create_table(TableSchema::new(
                "t".to_string(),
                vec![ColumnDef::new("k", DataType::Int), ColumnDef::new("v", DataType::Float)],
            ))
            .unwrap();
        if ordered {
            db.create_index_of(t, ColumnId(0), IndexKind::Ordered).unwrap();
            db.create_index_of(t, ColumnId(1), IndexKind::Ordered).unwrap();
        }
        exec(
            &mut db,
            "insert into t values (1, 1.0), (NULL, NULL), (3, 0.0 / 0.0), (4, -1e300), (5, 1e300)",
        );
        db
    };
    let count = |db: &Database, sql: &str| -> i64 {
        execute_query(db, &NoTransitionTables, &sel(sql), &ExecOpts::default())
            .unwrap()
            .scalar()
            .unwrap()
            .as_i64()
            .unwrap()
    };
    for db in [build(false), build(true)] {
        // NULL k-row and NaN v-row match no range.
        assert_eq!(count(&db, "select count(*) from t where k >= -100"), 4);
        assert_eq!(count(&db, "select count(*) from t where v >= -1e300"), 3);
        assert_eq!(count(&db, "select count(*) from t where v <= 1e300"), 3);
        // NULL / NaN bounds are unsatisfiable.
        assert_eq!(count(&db, "select count(*) from t where k < NULL"), 0);
        assert_eq!(count(&db, "select count(*) from t where v > (0.0 / 0.0)"), 0);
        assert_eq!(count(&db, "select count(*) from t where v between 0.0 and (0.0 / 0.0)"), 0);
        // Inverted range.
        assert_eq!(count(&db, "select count(*) from t where k between 7 and 5"), 0);
    }
}

/// The boundary probe serves only NaN-free boundary keys, and the plan
/// decides that before anything is counted: a NaN stored in `f` sends
/// `min(a), max(f)` to a full scan with no index lookup counted for `a`,
/// whose boundary was fine. Without the NaN the probe answers with one
/// lookup per column and no row scanned.
#[test]
fn min_max_on_a_nan_boundary_counts_only_the_path_it_takes() {
    let mut db = Database::new();
    let cols = vec![ColumnDef::new("a", DataType::Int), ColumnDef::new("f", DataType::Float)];
    let t = db.create_table(TableSchema::new("t", cols)).unwrap();
    exec(&mut db, "insert into t values (1, 1.5), (2, 2.5)");
    for c in [0, 1] {
        db.create_index_of(t, ColumnId(c), IndexKind::Ordered).unwrap();
    }
    let work = |db: &Database| {
        let stats = StatsCell::new();
        let opts = ExecOpts { stats: Some(&stats), ..Default::default() };
        let _ = execute_query(db, &NoTransitionTables, &sel("select min(a), max(f) from t"), &opts);
        let s = stats.snapshot();
        (s.index_lookups, s.full_scans)
    };
    assert_eq!(work(&db), (2, 0), "the boundary probe answers");
    exec(&mut db, "insert into t values (3, 0.0 / 0.0)");
    assert_eq!(work(&db), (0, 1), "a full scan answers, and only it counts");
}

/// `-0.0` and `0.0` are distinct index keys but SQL-equal, and the
/// aggregate fold keeps the first-encountered of a tied pair: the boundary
/// probe must hand the fold the zero with the smaller handle, whichever
/// bucket holds it, for `min` and `max`, alone and beside another
/// column's boundary row (here `k`'s, which holds no zero).
#[test]
fn a_signed_zero_boundary_keeps_the_smallest_handle() {
    let build = |ordered: bool, rows: &str| {
        let mut db = Database::new();
        let cols = vec![ColumnDef::new("k", DataType::Int), ColumnDef::new("v", DataType::Float)];
        let t = db.create_table(TableSchema::new("t", cols)).unwrap();
        if ordered {
            for c in [0, 1] {
                db.create_index_of(t, ColumnId(c), IndexKind::Ordered).unwrap();
            }
        }
        exec(&mut db, &format!("insert into t values {rows}"));
        db
    };
    for (first, second) in [("0.0", "-0.0"), ("-0.0", "0.0")] {
        for other in ["1.5", "-1.5"] {
            let rows = format!("(5, {first}), (7, {second}), (1, {other})");
            let (plain, indexed) = (build(false, &rows), build(true, &rows));
            for sql in [
                "select min(v) from t",
                "select max(v) from t",
                "select min(k), min(v) from t",
                "select max(v), min(k) from t",
            ] {
                let stats = StatsCell::new();
                let opts = ExecOpts { stats: Some(&stats), ..ExecOpts::default() };
                let want = execute_query(&plain, &NoTransitionTables, &sel(sql), &opts).unwrap();
                let base = stats.snapshot();
                let got = execute_query(&indexed, &NoTransitionTables, &sel(sql), &opts).unwrap();
                let s = stats.snapshot().since(&base);
                assert_eq!(got, want, "{sql} over {rows}");
                assert_eq!((s.rows_scanned, s.full_scans), (0, 0), "{sql}: the probe answers");
            }
        }
    }
}

/// The three ordering paths — the generic sort comparator, the top-K
/// `select_nth_unstable_by` selection, and the index-order sort-elision
/// walk — must produce *identical* orderings on NaN/-0.0/NULL-bearing
/// data, ascending and descending, with and without `limit`. Each path
/// is proven engaged via its stats counter, so a silent gate change
/// can't turn this into three runs of the same code.
#[test]
fn nan_negzero_null_order_identically_across_all_three_paths() {
    use setrules_query::StatsCell;

    let build = |ordered: bool| {
        let mut db = Database::new();
        let t = db
            .create_table(TableSchema::new(
                "t".to_string(),
                vec![ColumnDef::new("k", DataType::Int), ColumnDef::new("v", DataType::Float)],
            ))
            .unwrap();
        if ordered {
            db.create_index_of(t, ColumnId(1), IndexKind::Ordered).unwrap();
        }
        // 16 rows so `limit 3 < 16/4` engages top-K; duplicate keys
        // (two NaNs, two NULLs, 0.0 vs -0.0, repeated 1.5) expose any
        // tiebreak or signed-zero divergence between the paths.
        let vals = [
            "1.5",
            "(0.0 / 0.0)",
            "NULL",
            "-0.0",
            "1e300",
            "0.0",
            "-2.5",
            "1.5",
            "NULL",
            "(0.0 / 0.0)",
            "-1e300",
            "7.25",
            "0.0",
            "-0.0",
            "2",
            "-2.5",
        ];
        for (k, v) in vals.iter().enumerate() {
            exec(&mut db, &format!("insert into t values ({k}, {v})"));
        }
        db
    };
    let plain = build(false);
    let indexed = build(true);

    let run = |db: &Database, sql: &str, st: &StatsCell| {
        let opts = ExecOpts { stats: Some(st), ..Default::default() };
        execute_query(db, &NoTransitionTables, &sel(sql), &opts)
            .unwrap_or_else(|e| panic!("{sql}: {e}"))
    };

    for dir in ["asc", "desc"] {
        let full_sql = format!("select k, v from t order by v {dir}");
        let lim_sql = format!("select k, v from t order by v {dir} limit 3");

        // Path 1: the generic sort comparator (no index, no limit).
        let st = StatsCell::new();
        let sorted = run(&plain, &full_sql, &st);
        let s = st.snapshot();
        assert_eq!((s.sort_elided, s.topk_selected), (0, 0), "[{dir}] gates");
        assert_eq!(sorted.rows.len(), 16);

        // Path 2: top-K selection (no index, limit 3 < 16/4).
        let st = StatsCell::new();
        let topk = run(&plain, &lim_sql, &st);
        assert_eq!(st.snapshot().topk_selected, 1, "[{dir}] top-K must engage");
        assert_eq!(
            topk.rows,
            sorted.rows[..3].to_vec(),
            "[{dir}] top-K diverged from the generic sort"
        );

        // Path 3: the index-order walk (ordered index elides the sort).
        let st = StatsCell::new();
        let walked = run(&indexed, &full_sql, &st);
        assert_eq!(st.snapshot().sort_elided, 1, "[{dir}] elision must engage");
        assert_eq!(walked.rows, sorted.rows, "[{dir}] index walk diverged from the generic sort");

        // Limit over the walk (early stop) agrees with all of them.
        let st = StatsCell::new();
        let walked_lim = run(&indexed, &lim_sql, &st);
        assert_eq!(st.snapshot().sort_elided, 1, "[{dir}] limited walk elides");
        assert_eq!(walked_lim.rows, topk.rows, "[{dir}] limited walk diverged");
    }

    // Pin the semantics the paths agree on: ascending puts NULLs first,
    // then NaNs (storage total order sorts NaN below -inf), then numeric
    // order with -0.0 strictly before 0.0.
    let st = StatsCell::new();
    let asc = run(&plain, "select v from t order by v asc", &st);
    let desc_of = |r: &setrules_query::Relation| {
        let mut rows = r.rows.clone();
        rows.reverse();
        rows
    };
    let st = StatsCell::new();
    let desc = run(&plain, "select v from t order by v desc", &st);
    let is_nan = |v: &Value| matches!(v, Value::Float(f) if f.is_nan());
    let is_neg_zero = |v: &Value| matches!(v, Value::Float(f) if *f == 0.0 && f.is_sign_negative());
    assert_eq!(asc.rows[0][0], Value::Null);
    assert_eq!(asc.rows[1][0], Value::Null);
    assert!(is_nan(&asc.rows[2][0]) && is_nan(&asc.rows[3][0]), "NaNs sort after NULLs");
    let neg_zero_pos = asc.rows.iter().position(|r| is_neg_zero(&r[0])).unwrap();
    assert!(is_neg_zero(&asc.rows[neg_zero_pos + 1][0]), "-0.0 pair is contiguous");
    assert_eq!(asc.rows[neg_zero_pos + 2][0], Value::Float(0.0), "-0.0 sorts before 0.0");
    // Descending is the exact reverse *by key*; equal keys keep input
    // order in both directions, so compare the key sequence only.
    let desc_keys: Vec<&Value> = desc.rows.iter().map(|r| &r[0]).collect();
    let asc_rev = desc_of(&asc);
    let asc_rev_keys: Vec<&Value> = asc_rev.iter().map(|r| &r[0]).collect();
    let eq_key = |a: &Value, b: &Value| match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
        (a, b) => a == b,
    };
    assert!(
        desc_keys.len() == asc_rev_keys.len()
            && desc_keys.iter().zip(&asc_rev_keys).all(|(a, b)| eq_key(a, b)),
        "desc key order must be the reverse of asc key order"
    );
}

// ----------------------------------------------------------------------
// Plan-cache lifecycle with ordered-index DDL mid-`process rules`
// ----------------------------------------------------------------------

/// Regression: `create index ... using ordered` and `drop index` executed
/// *inside a rule action* mid-`process rules` must invalidate the plan
/// cache — cached plans embed the chosen access paths, and a stale plan
/// would keep range-scanning a dropped index (or full-scanning past a new
/// one).
#[test]
fn ordered_index_ddl_in_rule_action_invalidates_plan_cache() {
    use std::sync::atomic::{AtomicUsize, Ordering};
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
    let firings = Arc::new(AtomicUsize::new(0));
    let counter = firings.clone();
    sys.create_rule_external(
        "ddl",
        "inserted into t",
        None,
        Arc::new(move |ctx: &mut setrules_core::ActionCtx<'_>| {
            match counter.fetch_add(1, Ordering::Relaxed) {
                0 => ctx.create_index_of("t", "k", IndexKind::Ordered)?,
                1 => {
                    assert!(ctx.drop_index("t", "k")?, "the ordered index exists to drop");
                }
                _ => {}
            }
            Ok(())
        }),
    )
    .unwrap();
    sys.execute("create rule priority copy before ddl").unwrap();

    // Txn 1: both rules compile fresh; the action then creates the
    // ordered index, dropping every cached plan.
    sys.execute("insert into t values (1)").unwrap();
    let s1 = sys.stats().clone();
    assert_eq!(s1.plan_cache_hits, 0);
    assert!(s1.plan_cache_misses >= 2);
    let plan = sys.explain("select * from t where k between 0 and 9").unwrap();
    assert!(plan.contains("index range scan"), "{plan}");

    // Txn 2: no stale hit against the pre-index catalog; the action now
    // drops the index, invalidating again.
    sys.execute("insert into t values (2)").unwrap();
    let s2 = sys.stats().clone();
    assert_eq!(s2.plan_cache_hits, 0, "a hit here would be a stale plan surviving the create");
    assert!(s2.plan_cache_misses >= s1.plan_cache_misses + 2);
    let plan = sys.explain("select * from t where k between 0 and 9").unwrap();
    assert!(plan.contains("seq scan"), "{plan}");

    // Txn 3: another miss round (the drop invalidated), no DDL this time.
    sys.execute("insert into t values (3)").unwrap();
    let s3 = sys.stats().clone();
    assert_eq!(s3.plan_cache_hits, 0, "a hit here would be a stale plan surviving the drop");
    assert!(s3.plan_cache_misses >= s2.plan_cache_misses + 2);

    // Txn 4: the catalog is finally stable — plans are reused.
    sys.execute("insert into t values (4)").unwrap();
    assert!(sys.stats().plan_cache_hits >= 2, "both rules reuse plans once the catalog settles");

    assert_eq!(firings.load(Ordering::Relaxed), 4);
    assert_eq!(
        sys.query("select count(*) from log").unwrap().scalar().unwrap(),
        &Value::Int(4),
        "the declarative rule stayed correct across both invalidations"
    );
}

// ----------------------------------------------------------------------
// §4 transaction abort restores ordered-index contents
// ----------------------------------------------------------------------

fn salary_system() -> RuleSystem {
    let mut sys = RuleSystem::new();
    sys.execute("create table emp (name text, emp_no int, salary float, dept_no int)").unwrap();
    sys.execute("create index on emp (salary) using ordered").unwrap();
    sys.execute(
        "insert into emp values ('a', 1, 10.0, 1), ('b', 2, 20.0, 1), \
         ('c', 3, 30.0, 2), ('d', 4, 40.0, 2)",
    )
    .unwrap();
    sys
}

fn salaries_in_range(sys: &RuleSystem) -> Vec<String> {
    sys.query("select name from emp where salary between 15.0 and 35.0 order by salary")
        .unwrap()
        .rows
        .into_iter()
        .map(|r| r[0].to_string())
        .collect()
}

#[test]
fn explicit_abort_restores_ordered_index_contents() {
    let mut sys = salary_system();
    let before = sys.database().state_image();
    assert!(before.contains("kind=ordered"), "state_image must show the index kind:\n{before}");

    sys.begin().unwrap();
    sys.run_op("insert into emp values ('e', 5, 25.0, 3)").unwrap();
    sys.run_op("update emp set salary = salary + 100.0 where salary >= 20.0").unwrap();
    sys.run_op("delete from emp where name = 'a'").unwrap();
    sys.rollback().unwrap();

    assert_eq!(
        sys.database().state_image(),
        before,
        "undo must restore the BTree buckets byte-identically"
    );
    assert_eq!(salaries_in_range(&sys), vec!["'b'", "'c'"]);
    // The index still answers order-by and min/max correctly post-abort.
    let top = sys.query("select name from emp order by salary desc limit 1").unwrap();
    assert_eq!(top.rows[0][0].to_string(), "'d'");
    assert_eq!(
        sys.query("select min(salary) from emp").unwrap().scalar().unwrap(),
        &Value::Float(10.0)
    );

    // ...and still answers them through the index: at 10 004 rows a range
    // walk skips everything outside the interval, `limit` stops the
    // sort-free walk after 10 rows, and min/max read the two extremes.
    // Dropping the index turns each back into a full scan.
    let rows: Vec<String> = (0..10_000).map(|i| format!("('x', {i}, {}.0, 9)", 1000 + i)).collect();
    sys.execute(&format!("insert into emp values {}", rows.join(", "))).unwrap();
    let work = |sys: &RuleSystem, sql: &str| {
        let base = sys.exec_stats();
        sys.query(sql).unwrap();
        sys.exec_stats().since(&base)
    };
    let (range, top, minmax) = (
        "select name from emp where salary between 15.0 and 35.0",
        "select name from emp order by salary limit 10",
        "select min(salary), max(salary) from emp",
    );
    let s = work(&sys, range);
    assert_eq!((s.range_scans, s.range_rows_skipped), (1, 10_002), "{s:?}");
    let s = work(&sys, top);
    assert_eq!((s.sort_elided, s.rows_scanned), (1, 10), "{s:?}");
    let s = work(&sys, minmax);
    assert_eq!((s.rows_scanned, s.index_lookups), (0, 2), "{s:?}");
    sys.execute("drop index on emp (salary)").unwrap();
    for sql in [range, top] {
        let s = work(&sys, sql);
        assert_eq!((s.range_scans, s.sort_elided, s.rows_scanned), (0, 0, 10_004), "{sql}: {s:?}");
    }
}

#[test]
fn rollback_rule_restores_ordered_index_contents() {
    let mut sys = salary_system();
    sys.execute(
        "create rule ceiling when updated emp.salary \
         if exists (select * from new updated emp.salary where salary > 1000.0) then rollback",
    )
    .unwrap();
    let before = sys.database().state_image();

    let out = sys.transaction("update emp set salary = salary * 100.0").unwrap();
    assert!(matches!(out, TxnOutcome::RolledBack { .. }), "the ceiling rule vetoes");
    assert_eq!(
        sys.database().state_image(),
        before,
        "a rule-initiated §4 rollback must restore the ordered index too"
    );
    assert_eq!(salaries_in_range(&sys), vec!["'b'", "'c'"]);

    // A conforming update commits, and the index reflects it.
    let out = sys.transaction("update emp set salary = 35.5 where name = 'b'").unwrap();
    assert!(out.committed());
    assert_eq!(salaries_in_range(&sys), vec!["'c'"], "'b' moved out of the range bucket");
}
