//! Per-operator unit tests: empty input, single batch, batch-boundary
//! off-by-one (driven through every operator's `with_batch_rows` knob),
//! and error-in-mid-batch propagation, plus per-operator stats
//! accounting. The tail operators (`distinct`/`sort`/`limit`) are
//! exercised directly over a stub [`RowSource`]; the row-producing front
//! half (scan → join → filter → project/aggregate) is exercised by
//! lowering real statements with tiny batch sizes and comparing against
//! the default-size pipeline, or against pinned outputs.

use setrules_sql::ast::{DmlOp, Statement};
use setrules_sql::parse_statement;
use setrules_storage::{ColumnDef, Database, DataType, TableSchema};

use super::aggregate::AggregateExec;
use super::filter::FilterExec;
use super::join::JoinExec;
use super::project::ProjectExec;
use super::scan::ScanExec;
use super::sort::{DistinctExec, LimitExec, SortExec};
use super::*;
use crate::plan::{plan_select, Top};
use crate::stats::{OpStatsCell, StatsCell};
use crate::{execute_op, ExecOpts, NoTransitionTables};

#[test]
fn batches_iterator_contract() {
    // Empty buffer: no batches at all.
    let mut b: Batches<i32> = Batches::new(vec![], 4);
    assert_eq!(b.next(), None);
    // Exact multiple: full batches, then None.
    let mut b = Batches::new((0..8).collect::<Vec<_>>(), 4);
    assert_eq!(b.next(), Some(vec![0, 1, 2, 3]));
    assert_eq!(b.next(), Some(vec![4, 5, 6, 7]));
    assert_eq!(b.next(), None);
    // Off-by-one below and above a boundary.
    let mut b = Batches::new((0..3).collect::<Vec<_>>(), 4);
    assert_eq!(b.next(), Some(vec![0, 1, 2]));
    assert_eq!(b.next(), None);
    let mut b = Batches::new((0..5).collect::<Vec<_>>(), 4);
    assert_eq!(b.next(), Some(vec![0, 1, 2, 3]));
    assert_eq!(b.next(), Some(vec![4]));
    assert_eq!(b.next(), None);
}

// ----------------------------------------------------------------------
// Tail operators over a stub source
// ----------------------------------------------------------------------

/// A scripted [`RowSource`]: emits its batches in order, then either ends
/// the stream or fails — the "error arrives mid-drain" case the blocking
/// tail operators must propagate out of their open.
struct StubSource {
    batches: std::collections::VecDeque<Vec<KeyedRow>>,
    fail_at_end: bool,
    cols: Vec<String>,
}

impl StubSource {
    fn new(batches: Vec<Vec<KeyedRow>>) -> Self {
        StubSource {
            batches: batches.into(),
            fail_at_end: false,
            cols: vec!["v".to_string()],
        }
    }

    fn failing(batches: Vec<Vec<KeyedRow>>) -> Self {
        StubSource { fail_at_end: true, ..StubSource::new(batches) }
    }
}

impl<'a> Executor<'a> for StubSource {
    type Batch = Vec<KeyedRow>;

    fn name(&self) -> &'static str {
        "stub"
    }

    fn next_batch(&mut self, _cx: &mut ExecCx<'a, '_>) -> Result<Option<Self::Batch>, QueryError> {
        match self.batches.pop_front() {
            Some(b) => Ok(Some(b)),
            None if self.fail_at_end => Err(QueryError::Type("stub failure".to_string())),
            None => Ok(None),
        }
    }
}

impl<'a> RowSource<'a> for StubSource {
    fn output_columns(&self) -> &[String] {
        &self.cols
    }

    fn take_origins(&mut self) -> Vec<Origin> {
        Vec::new()
    }
}

/// A row keyed for ordering: `key` is the order-by key, `val` tags the
/// input position so stability is observable.
/// The `order by` directions of `stmt`, as a sort operator takes them.
fn dirs(stmt: &setrules_sql::ast::SelectStmt) -> Vec<bool> {
    stmt.order_by.iter().map(|(_, asc)| *asc).collect()
}

fn kr(key: i64, val: i64) -> KeyedRow {
    (vec![Value::Int(key)], vec![Value::Int(val)])
}

fn sel_stmt(sql: &str) -> setrules_sql::ast::SelectStmt {
    match parse_statement(sql).unwrap() {
        Statement::Dml(DmlOp::Select(s)) => s,
        _ => panic!("not a select: {sql}"),
    }
}

/// Pull `op` dry, flattening its batches and recording each batch size.
fn pull_dry<'a>(
    op: &mut dyn RowSource<'a>,
    cx: &mut ExecCx<'a, '_>,
) -> Result<(Vec<KeyedRow>, Vec<usize>), QueryError> {
    let mut rows = Vec::new();
    let mut sizes = Vec::new();
    while let Some(b) = op.next_batch(cx)? {
        assert!(!b.is_empty(), "the batch contract forbids empty batches");
        sizes.push(b.len());
        rows.extend(b);
    }
    // Exhaustion is sticky.
    assert!(op.next_batch(cx)?.is_none());
    Ok((rows, sizes))
}

#[test]
fn tail_operators_on_empty_input_emit_nothing() {
    let db = Database::new();
    let stmt = sel_stmt("select v from t order by v");
    let mut bindings = Bindings::new();
    let mut cx = ExecCx { ctx: QueryCtx::plain(&db), bindings: &mut bindings };
    let empty = || Box::new(StubSource::new(vec![]));
    let mut ops: Vec<Box<dyn RowSource<'_>>> = vec![
        Box::new(DistinctExec::new(empty())),
        Box::new(SortExec::new(empty(), dirs(&stmt), None)),
        Box::new(LimitExec::new(empty(), 3)),
    ];
    for op in &mut ops {
        let (rows, sizes) = pull_dry(op.as_mut(), &mut cx).unwrap();
        assert!(rows.is_empty() && sizes.is_empty());
    }
}

#[test]
fn distinct_dedups_in_first_occurrence_order_across_batch_boundaries() {
    let db = Database::new();
    let mut bindings = Bindings::new();
    let mut cx = ExecCx { ctx: QueryCtx::plain(&db), bindings: &mut bindings };
    // Dedup is on the projected row, not the sort key: (9,1) and (7,1)
    // are duplicates despite different keys.
    let src = StubSource::new(vec![
        vec![kr(9, 1), kr(8, 2)],
        vec![kr(7, 1), kr(6, 3), kr(5, 2)],
    ]);
    let mut op = DistinctExec::new(Box::new(src)).with_batch_rows(2);
    let (rows, sizes) = pull_dry(&mut op, &mut cx).unwrap();
    assert_eq!(rows, vec![kr(9, 1), kr(8, 2), kr(6, 3)]);
    assert_eq!(sizes, vec![2, 1], "3 survivors re-emitted at batch_rows=2");
}

#[test]
fn sort_is_stable_and_respects_direction() {
    let db = Database::new();
    let asc = sel_stmt("select v from t order by v");
    let desc = sel_stmt("select v from t order by v desc");
    let mut bindings = Bindings::new();
    let mut cx = ExecCx { ctx: QueryCtx::plain(&db), bindings: &mut bindings };
    let input = || vec![vec![kr(2, 0), kr(1, 1)], vec![kr(2, 2), kr(1, 3), kr(3, 4)]];

    let mut op = SortExec::new(Box::new(StubSource::new(input())), dirs(&asc), None)
        .with_batch_rows(2);
    let (rows, sizes) = pull_dry(&mut op, &mut cx).unwrap();
    assert_eq!(rows, vec![kr(1, 1), kr(1, 3), kr(2, 0), kr(2, 2), kr(3, 4)]);
    assert_eq!(sizes, vec![2, 2, 1], "5 rows at batch_rows=2: off-by-one tail batch");

    // Descending reverses key order but keeps equal-key input order.
    let mut op = SortExec::new(Box::new(StubSource::new(input())), dirs(&desc), None);
    let (rows, _) = pull_dry(&mut op, &mut cx).unwrap();
    assert_eq!(rows, vec![kr(3, 4), kr(2, 0), kr(2, 2), kr(1, 1), kr(1, 3)]);
}

#[test]
fn sort_topk_gate_and_tiebreak_match_the_full_sort() {
    let db = Database::new();
    let stmt = sel_stmt("select v from t order by v");
    // 16 rows with heavy key duplication: keys 0..4 repeated, value =
    // input index, so the (key, index) tiebreak is observable.
    let rows: Vec<KeyedRow> = (0..16).map(|i| kr(i % 4, i)).collect();
    let full_sorted = {
        let mut s = rows.clone();
        s.sort_by_key(|(k, v)| (k[0].clone(), v[0].clone()));
        s
    };
    let run = |limit: Option<usize>| {
        let mut bindings = Bindings::new();
        let st = StatsCell::new();
        let ops = OpStatsCell::new();
        let ctx =
            QueryCtx { stats: Some(&st), op_stats: Some(&ops), ..QueryCtx::plain(&db) };
        let mut cx = ExecCx { ctx, bindings: &mut bindings };
        let src = StubSource::new(vec![rows.clone()]);
        let mut op = SortExec::new(Box::new(src), dirs(&stmt), limit);
        let (out, _) = pull_dry(&mut op, &mut cx).unwrap();
        (out, st.snapshot().topk_selected, ops.operators().contains(&"topk"))
    };

    // limit 3 < 16/4: the top-K path engages and reports itself as topk.
    let (out, topk, named_topk) = run(Some(3));
    assert_eq!(out, full_sorted[..3].to_vec(), "top-K must match the stable sort prefix");
    assert_eq!((topk, named_topk), (1, true));
    // limit 4 == 16/4: not strictly smaller, the full sort runs.
    let (out, topk, named_topk) = run(Some(4));
    assert_eq!(out, full_sorted);
    assert_eq!((topk, named_topk), (0, false));
    // limit 0 never selects (and truncation belongs to LimitExec anyway).
    let (out, topk, _) = run(Some(0));
    assert_eq!(out, full_sorted);
    assert_eq!(topk, 0);
}

#[test]
fn limit_truncates_but_still_drains_its_child() {
    let db = Database::new();
    let mut bindings = Bindings::new();
    let mut cx = ExecCx { ctx: QueryCtx::plain(&db), bindings: &mut bindings };
    let src = StubSource::new(vec![vec![kr(0, 0), kr(0, 1)], vec![kr(0, 2), kr(0, 3), kr(0, 4)]]);
    let mut op = LimitExec::new(Box::new(src), 3).with_batch_rows(2);
    let (rows, sizes) = pull_dry(&mut op, &mut cx).unwrap();
    assert_eq!(rows, vec![kr(0, 0), kr(0, 1), kr(0, 2)]);
    assert_eq!(sizes, vec![2, 1]);

    // A limit larger than the input is the identity.
    let src = StubSource::new(vec![vec![kr(0, 0)]]);
    let mut op = LimitExec::new(Box::new(src), 99);
    let (rows, _) = pull_dry(&mut op, &mut cx).unwrap();
    assert_eq!(rows, vec![kr(0, 0)]);

    // The child fails *after* enough rows to satisfy the cutoff: the
    // error must still surface, because limit drains fully before
    // truncating (the historical executor projected every row).
    let src = StubSource::failing(vec![vec![kr(0, 0), kr(0, 1), kr(0, 2), kr(0, 3)]]);
    let mut op = LimitExec::new(Box::new(src), 1);
    let err = op.next_batch(&mut cx).unwrap_err();
    assert_eq!(err.to_string(), QueryError::Type("stub failure".to_string()).to_string());
}

#[test]
fn tail_operators_propagate_a_mid_stream_error() {
    let db = Database::new();
    let stmt = sel_stmt("select v from t order by v");
    let mut bindings = Bindings::new();
    let mut cx = ExecCx { ctx: QueryCtx::plain(&db), bindings: &mut bindings };
    let failing = || Box::new(StubSource::failing(vec![vec![kr(1, 0)]]));
    let mut ops: Vec<Box<dyn RowSource<'_>>> = vec![
        Box::new(DistinctExec::new(failing())),
        Box::new(SortExec::new(failing(), dirs(&stmt), None)),
        Box::new(LimitExec::new(failing(), 3)),
    ];
    for op in &mut ops {
        let err = op.next_batch(&mut cx).unwrap_err();
        assert!(err.to_string().contains("stub failure"), "{err}");
    }
}

#[test]
fn tail_operators_account_their_work_per_operator() {
    let db = Database::new();
    let stmt = sel_stmt("select v from t order by v");
    let mut bindings = Bindings::new();
    let ops = OpStatsCell::new();
    let ctx = QueryCtx { op_stats: Some(&ops), ..QueryCtx::plain(&db) };
    let mut cx = ExecCx { ctx, bindings: &mut bindings };
    // stub(5 rows in 2 batches) -> sort -> limit 3, re-batched at 2.
    let src = StubSource::new(vec![vec![kr(2, 0), kr(1, 1)], vec![kr(3, 2), kr(1, 3), kr(2, 4)]]);
    let sort = SortExec::new(Box::new(src), dirs(&stmt), None).with_batch_rows(2);
    let mut op = LimitExec::new(Box::new(sort), 3).with_batch_rows(2);
    let (rows, _) = pull_dry(&mut op, &mut cx).unwrap();
    assert_eq!(rows.len(), 3);

    let sort_c = ops.get("sort");
    assert_eq!((sort_c.rows_in, sort_c.rows_out, sort_c.batches), (5, 5, 3));
    let limit_c = ops.get("limit");
    assert_eq!((limit_c.rows_in, limit_c.rows_out, limit_c.batches), (5, 3, 2));
    assert_eq!(ops.operators(), vec!["limit", "sort"]);
}

// ----------------------------------------------------------------------
// The row-producing front half at tiny batch sizes
// ----------------------------------------------------------------------

fn test_db() -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "t1".to_string(),
        vec![ColumnDef::new("a", DataType::Int), ColumnDef::new("b", DataType::Int)],
    ))
    .unwrap();
    db.create_table(TableSchema::new(
        "t2".to_string(),
        vec![ColumnDef::new("a", DataType::Int), ColumnDef::new("c", DataType::Int)],
    ))
    .unwrap();
    let mut exec = |sql: &str| {
        let Statement::Dml(op) = parse_statement(sql).unwrap() else { panic!() };
        execute_op(&mut db, &NoTransitionTables, &op, &ExecOpts::default()).unwrap();
    };
    exec("insert into t1 values (1, 10), (2, 20), (3, 30), (2, 21), (NULL, 40)");
    exec("insert into t2 values (1, 100), (2, 200), (4, 400)");
    db
}

/// The [`test_db`] tables refilled for the grouped corpus: 200 `t1` rows
/// (`a = i % 7`, NULL every 13th row; `b = i`) and 100 `t2` rows
/// (`a = i % 5`, `c = 3 i`) — enough for an 8-thread budget to exchange.
fn grouped_db() -> Database {
    let mut db = test_db();
    let mut exec = |sql: &str| {
        let Statement::Dml(op) = parse_statement(sql).unwrap() else { panic!() };
        execute_op(&mut db, &NoTransitionTables, &op, &ExecOpts::default()).unwrap();
    };
    exec("delete from t1");
    exec("delete from t2");
    let t1: Vec<String> = (0..200)
        .map(|i| if i % 13 == 0 { format!("(NULL, {i})") } else { format!("({}, {i})", i % 7) })
        .collect();
    exec(&format!("insert into t1 values {}", t1.join(", ")));
    let t2: Vec<String> = (0..100).map(|i| format!("({}, {})", i % 5, i * 3)).collect();
    exec(&format!("insert into t2 values {}", t2.join(", ")));
    db
}

/// Lower `stmt` exactly as `run_select_traced` does — from its plan
/// value — but with every operator's batch size forced to `n` and a
/// thread budget of `threads`, and pull it dry. The executor has no
/// public batch-size knob, so this mirrors the `lower_read` +
/// `run_select_traced` lowering verbatim — if that lowering changes
/// shape, this helper is the unit-level pin that must change with it.
fn run_tiny(
    db: &Database,
    stmt: &setrules_sql::ast::SelectStmt,
    n: usize,
    threads: usize,
) -> Result<(Vec<String>, Vec<Vec<Value>>), QueryError> {
    let ctx = QueryCtx { threads, ..QueryCtx::plain(db) };
    let mut bindings = Bindings::new();
    let plan = plan_select(ctx, stmt, &bindings.layout(), true)?;
    let (read, pipeline) = (plan.read, plan.pipeline);
    let op = read.join_op();
    let scans = read.items.into_iter().map(|it| ScanExec::new(it).with_batch_rows(n)).collect();
    let join = JoinExec::new(scans, read.edges, op).with_batch_rows(n);
    let filter = FilterExec::new(join, read.predicate, false).with_batch_rows(n);
    let mut top: Box<dyn RowSource<'_> + '_> = match pipeline.top {
        Top::Aggregate(prog) => Box::new(AggregateExec::new(filter, prog).with_batch_rows(n)),
        Top::Project { proj, keys } => Box::new(ProjectExec::new(filter, proj, keys)),
    };
    if pipeline.distinct {
        top = Box::new(DistinctExec::new(top).with_batch_rows(n));
    }
    if !pipeline.order.is_empty() {
        top = Box::new(SortExec::new(top, pipeline.order, pipeline.limit).with_batch_rows(n));
    }
    if let Some(k) = pipeline.limit {
        top = Box::new(LimitExec::new(top, k).with_batch_rows(n));
    }
    let mut cx = ExecCx { ctx, bindings: &mut bindings };
    let (rows, _) = pull_dry(top.as_mut(), &mut cx)?;
    Ok((top.output_columns().to_vec(), rows.into_iter().map(|(_, r)| r).collect()))
}

/// One run as a line of text: `columns | row; row; …` (values in their
/// display form), or `error: <text>`.
fn render(r: Result<(Vec<String>, Vec<Vec<Value>>), QueryError>) -> String {
    match r {
        Err(e) => format!("error: {e}"),
        Ok((cols, rows)) => {
            let rows: Vec<String> = rows
                .iter()
                .map(|r| r.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(","))
                .collect();
            format!("{} | {}", cols.join(","), rows.join("; "))
        }
    }
}

#[test]
fn pipeline_results_are_identical_at_every_batch_size() {
    let db = test_db();
    let queries = [
        "select a, b from t1",
        "select b from t1 where a = 2",
        "select x.b, y.c from t1 x, t2 y where x.a = y.a",
        "select a, count(*) from t1 group by a having count(*) >= 1",
        "select distinct a from t1 order by a limit 2",
        "select b from t1 where a > 99", // empty result through every op
        "select b from t1 order by a desc",
    ];
    for sql in queries {
        let stmt = sel_stmt(sql);
        let baseline = run_tiny(&db, &stmt, BATCH_ROWS, 1).unwrap();
        for n in [1, 2, 3] {
            assert_eq!(run_tiny(&db, &stmt, n, 1).unwrap(), baseline, "[{sql}] batch_rows={n}");
        }
    }
}

#[test]
fn pipeline_errors_are_identical_at_every_batch_size() {
    let db = test_db();
    // Division by zero on the a=2 rows only: earlier rows already flowed
    // into batches when the error fires.
    let stmt = sel_stmt("select 10 / (a - 2) from t1 where a is not null");
    let baseline = run_tiny(&db, &stmt, BATCH_ROWS, 1).unwrap_err().to_string();
    for n in [1, 2, 3] {
        let err = run_tiny(&db, &stmt, n, 1).unwrap_err().to_string();
        assert_eq!(err, baseline, "error selection drifted at batch_rows={n}");
    }
}

/// The two-phase aggregation gives the pinned rows at every batch size —
/// the partial phase accumulates per batch, so tiny batches exercise
/// groups spanning batches, which `BATCH_ROWS` never splits.
#[test]
fn two_phase_aggregation_matches_legacy_at_every_batch_size() {
    let db = test_db();
    let cases = [
        (
            "select a, count(*), sum(b), min(b), max(b), avg(b) from t1 group by a",
            "a,count(*),sum(b),min(b),max(b),avg(b) | \
             1,1,10,10,10,10.0; 2,2,41,20,21,20.5; 3,1,30,30,30,30.0; NULL,1,40,40,40,40.0",
        ),
        ("select count(*) from t1", "count(*) | 5"),
        ("select count(*) from t1 where a > 99", "count(*) | 0"), // empty input, ungrouped
        (
            "select a, count(distinct b) from t1 group by a having count(*) >= 1 order by a desc",
            "a,count(distinct b) | 3,1; 2,2; 1,1; NULL,1",
        ),
        (
            "select x.a, count(*), sum(y.c) from t1 x, t2 y where x.a = y.a group by x.a",
            "a,count(*),sum(y.c) | 1,1,100; 2,2,400",
        ),
    ];
    for (sql, legacy) in cases {
        let stmt = sel_stmt(sql);
        for n in [1, 2, 3, BATCH_ROWS] {
            assert_eq!(render(run_tiny(&db, &stmt, n, 1)), legacy, "[{sql}] batch_rows={n}");
        }
    }
}

/// A poisoned aggregate argument (division by zero on one group's row)
/// selects the pinned error at every batch size:
/// leaf errors are sticky per accumulator and raised lazily when the
/// final phase reaches the aggregate.
#[test]
fn two_phase_error_selection_is_batch_size_invariant() {
    let db = test_db();
    let stmt = sel_stmt("select a, sum(10 / (b - 21)) from t1 group by a order by a");
    for n in [1, 2, 3, BATCH_ROWS] {
        let err = run_tiny(&db, &stmt, n, 1).unwrap_err().to_string();
        assert_eq!(err, "integer division by zero", "error selection drifted at batch_rows={n}");
    }
}

/// Grouped statements whose keys, aggregate arguments, `having`,
/// projections or `order by` keys are not row-local — subqueries, outer
/// references, nested aggregates, unknown columns — paired with their
/// outputs. Every one runs the two-phase program; the reference
/// differential in `tests/query_pipeline.rs` checks the same statements on
/// the same data.
const GROUPED_CORPUS: &[(&str, &str)] = &[
    // A subquery in `having`.
    (
        "select a, count(*), sum(b) from t1 group by a having sum(b) > (select max(c) from t2) * 9",
        "a,count(*),sum(b) | 2,27,2679; 3,27,2734",
    ),
    (
        "select a, sum(b) from t1 group by a \
         having count(*) > 26 and (select count(*) from t2) > 0 order by a",
        "a,sum(b) | 1,2624; 2,2679; 3,2734",
    ),
    // A correlated subquery in the projection, over the representative row.
    (
        "select a, (select count(*) from t2 where t2.a = t1.a), max(b) from t1 group by a",
        "a,(select count(*) from t2 where (t2.a = t1.a)),max(b) | \
         NULL,0,195; 1,20,197; 2,20,198; 3,20,199; 4,20,193; 5,0,194; 6,0,188; 0,20,196",
    ),
    // ... and in an `order by` key.
    (
        "select a, count(*) from t1 group by a \
         order by (select count(*) from t2 where t2.a = t1.a) desc, a",
        "a,count(*) | 0,26; 1,27; 2,27; 3,27; 4,26; NULL,16; 5,26; 6,25",
    ),
    // Outer references inside a grouped subquery: in its `having`, and in
    // its aggregate argument.
    (
        "select a, b from t1 where b < 30 and exists \
         (select t2.a from t2 where t2.a = t1.a group by t2.a having count(*) > t1.b)",
        "a,b | 1,1; 2,2; 3,3; 4,4; 0,7; 1,8; 2,9; 3,10; 4,11; 0,14; 1,15; 2,16; 3,17; 4,18",
    ),
    (
        "select b, (select sum(t2.c * t1.b) from t2 where t2.a = t1.a) from t1 where b < 8",
        "b,(select sum((t2.c * t1.b)) from t2 where (t2.a = t1.a)) | \
         0,NULL; 1,2910; 2,5940; 3,9090; 4,12360; 5,NULL; 6,NULL; 7,19950",
    ),
    // A group key containing a subquery.
    (
        "select count(*), min(b) from t1 group by (select max(t2.c) from t2 where t2.a = t1.a)",
        "count(*),min(b) | 67,0; 27,1; 27,2; 27,3; 26,4; 26,7",
    ),
    // A nested aggregate: its inner call fails once a row reaches it.
    (
        "select sum(count(*)) from t1",
        "error: type error: aggregate count() not allowed in this context",
    ),
    ("select sum(count(*)) from t1 where a > 99", "sum(count(*)) | NULL"),
    // An unknown column: raised when a group reaches it, so not at all
    // when there are no groups.
    ("select nosuch, count(*) from t1 group by a", "error: unknown column 'nosuch'"),
    ("select nosuch, count(*) from t1 where a > 99", "error: unknown column 'nosuch'"),
    ("select a, count(*) from t1 where a > 99 group by a having nosuch > 0", "a,count(*) | "),
    ("select a, sum(nosuch) from t1 group by a", "error: unknown column 'nosuch'"),
];

/// Grouped statements with parts that are not row-local give the pinned
/// rows (or error) at every batch size and thread budget.
#[test]
fn grouped_fallback_shapes_run_two_phase_at_every_batch_size() {
    let db = grouped_db();
    for (sql, want) in GROUPED_CORPUS {
        let stmt = sel_stmt(sql);
        for n in [1, 2, 3, BATCH_ROWS] {
            for threads in [1, 8] {
                let got = render(run_tiny(&db, &stmt, n, threads));
                assert_eq!(&got, want, "[{sql}] batch_rows={n} threads={threads}");
            }
        }
    }
}

/// Every grouped statement — the row-local kind and each corpus shape —
/// reports the two phases on the per-operator side channel, and no
/// operator is named `aggregate`. (Over empty input there may be nothing
/// for either phase to count.)
#[test]
fn aggregate_op_stats_labels_follow_the_path() {
    let db = grouped_db();
    let sqls = std::iter::once("select a, count(*) from t1 group by a")
        .chain(GROUPED_CORPUS.iter().map(|(sql, _)| *sql));
    for sql in sqls {
        let ops = OpStatsCell::new();
        let opts = crate::ExecOpts { op_stats: Some(&ops), ..Default::default() };
        let _ = crate::execute_query(&db, &NoTransitionTables, &sel_stmt(sql), &opts);
        let names = ops.operators();
        if !sql.contains("a > 99") {
            assert!(names.contains(&"partial-aggregate"), "[{sql}] {names:?}");
            assert!(names.contains(&"final-aggregate"), "[{sql}] {names:?}");
        }
        assert!(!names.contains(&"aggregate"), "[{sql}] {names:?}");
    }
}
