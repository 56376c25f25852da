//! Deterministic intra-query parallelism, end to end:
//!
//! * **differential property**: every randomly generated select over
//!   adversarial data (NaN, -0.0, NULL, 1e300) returns a byte-identical
//!   relation — and identical row-level `ExecStats` counters — under
//!   thread budgets 1, 2, and 8. Parallelism is an execution strategy,
//!   never a semantics change;
//! * **two sites**: only a scan's pushed conjuncts and the `where` pass
//!   exchange; joins, sorts, top-K, aggregation and bare fetches stay
//!   serial at any budget;
//! * **error determinism**: a poisoned query fails with the same error
//!   text regardless of thread budget, and a full engine with parallelism
//!   forced on fails at the same statement as a serial one;
//! * **serial fallback**: predicates that cannot cross threads
//!   (correlated subqueries) take the observable serial fallback;
//! * **engine wiring**: the `EngineConfig::parallelism` knob engages the
//!   exchange, mirrors counters into `EngineStats`, and emits
//!   `EngineEvent::ParallelScan`;
//! * **crash consistency**: the fault-injection sweep over inflated
//!   Example 3.1 / 4.1 workloads holds with parallelism forced on —
//!   every injected fault still restores a byte-identical state image.

use setrules_core::{EngineConfig, EngineEvent, RuleError, RuleSystem};
use setrules_query::{
    execute_query, ExecOpts, ExecStats, NoTransitionTables, QueryError, Relation,
    StatsCell,
};
use setrules_sql::ast::{DmlOp, SelectStmt, Statement};
use setrules_sql::parse_statement;
use setrules_storage::{
    ColumnDef, ColumnId, Database, DataType, FaultKind, StorageError, TableSchema, Tuple, Value,
};
use setrules_testkit::{check, Rng};

fn sel(sql: &str) -> SelectStmt {
    match parse_statement(sql).unwrap() {
        Statement::Dml(DmlOp::Select(s)) => s,
        _ => panic!("not a select: {sql}"),
    }
}

// ----------------------------------------------------------------------
// Differential property: serial ≡ parallel on adversarial data.
// ----------------------------------------------------------------------

/// A database whose rows deliberately contain every value the float/NULL
/// semantics treat specially. `t` is past the exchange's gate (two
/// partitions of `MIN_PARTITION` = 2 048 items), so thread budgets > 1
/// actually partition its scans' pushed conjuncts and its `where`
/// passes. `u` stays small, which keeps the joins with it, and the
/// correlated subquery over it, cheap.
fn adversarial_db(rng: &mut Rng) -> Database {
    let mut db = Database::new();
    let t = db
        .create_table(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Int),
                ColumnDef::new("b", DataType::Float),
                ColumnDef::new("s", DataType::Text),
                ColumnDef::new("k", DataType::Int),
            ],
        ))
        .unwrap();
    let u = db
        .create_table(TableSchema::new(
            "u",
            vec![ColumnDef::new("k", DataType::Int), ColumnDef::new("w", DataType::Float)],
        ))
        .unwrap();
    if rng.chance(1, 2) {
        db.create_index(t, ColumnId(3)).unwrap();
    }
    if rng.chance(1, 2) {
        db.create_index(u, ColumnId(0)).unwrap();
    }
    for i in 0..4096 + rng.below(140) {
        let a = match rng.below(8) {
            0 => Value::Null,
            1 => Value::Int(-(i as i64)),
            _ => Value::Int(rng.range_i64(-3, 50)),
        };
        let b = match rng.below(8) {
            0 => Value::Float(f64::NAN),
            1 => Value::Float(-0.0),
            2 => Value::Float(1e300),
            3 => Value::Null,
            _ => Value::Float(rng.unit_f64() * 100.0),
        };
        let s = match rng.below(6) {
            0 => Value::Null,
            _ => Value::Text(rng.pick(&["ab", "ba", "abc", "", "%_"]).to_string()),
        };
        let k = Value::Int(rng.range_i64(0, 8));
        db.insert(t, Tuple(vec![a, b, s, k])).unwrap();
    }
    for _ in 0..8 + rng.below(24) {
        db.insert(
            u,
            Tuple(vec![
                Value::Int(rng.range_i64(0, 8)),
                Value::Float(rng.unit_f64() * 10.0),
            ]),
        )
        .unwrap();
    }
    db
}

/// A random select exercising both partitioned phases — a scan's pushed
/// conjuncts and the `where` pass — under every serial stage above them:
/// hash joins, two-phase group-by/having aggregation, `distinct`, the
/// sort and the top-K order/limit path, with occasional poison (division
/// by zero) so error selection is covered too. Half the single-table
/// shapes read all of `t` unfiltered, and one predicate keeps every row,
/// so the serial stages also see inputs past the gate.
fn random_query(rng: &mut Rng) -> String {
    let pred = |rng: &mut Rng, alias: &str| -> String {
        match rng.below(9) {
            0 => format!("{alias}.a > 5 and {alias}.b < 50.0"),
            1 => format!("{alias}.b is not null or {alias}.s like 'a%'"),
            2 => format!("{alias}.a in (1, 2, -3, null)"),
            3 => format!("{alias}.b between -1.0 and 90.0"),
            4 => format!("{alias}.k >= 4"),
            5 => format!("not ({alias}.a = 0) and {alias}.s <> ''"),
            6 => format!("{alias}.a / ({alias}.a - {alias}.a) = 1"), // poison
            7 => format!("{alias}.k >= 0"),                          // keeps every row
            _ => format!("{alias}.b + 1.0 > 0.5"),
        }
    };
    let filter = |rng: &mut Rng| -> String {
        if rng.chance(1, 2) {
            format!(" where {}", pred(rng, "x"))
        } else {
            String::new()
        }
    };
    match rng.below(11) {
        // Single-table scan + pushdown, sorted or top-K over floats.
        0 => {
            let w = filter(rng);
            let mut sql = format!(
                "select x.a, x.b from t x{w} order by {}",
                rng.pick(&["x.a", "x.b desc", "x.b, x.a desc"])
            );
            if rng.chance(1, 2) {
                sql.push_str(&format!(" limit {}", 1 + rng.below(10)));
            }
            sql
        }
        // Distinct over ints, floats (NaN, -0.0) and NULL-bearing pairs.
        1 => {
            let w = filter(rng);
            let cols = rng.pick(&["x.k", "x.b", "x.b, x.s", "x.a, x.k"]);
            let mut sql = format!("select distinct {cols} from t x{w}");
            if rng.chance(1, 2) {
                let first = cols.split(',').next().expect("one column");
                sql.push_str(&format!(" order by {first} desc"));
            }
            sql
        }
        // Hash join on k, with a residual predicate over both sides.
        2 => format!(
            "select x.a, y.w from t x, u y where x.k = y.k and {}",
            pred(rng, "x")
        ),
        3 => "select x.a, y.w from t x, u y where x.k = y.k".to_string(),
        // Aggregates (distinct dedup inside the aggregate).
        4 => format!("select count(distinct x.k) from t x where {}", pred(rng, "x")),
        // Two-phase group-by over adversarial keys/values, with a
        // having filter and an order over an aggregate.
        5 => format!(
            "select x.k, count(*), sum(x.b), min(x.b), max(x.a), avg(x.b) \
             from t x{} group by x.k having count(*) >= {}",
            filter(rng),
            rng.below(3)
        ),
        6 => format!(
            "select x.a, count(distinct x.s) from t x{} \
             group by x.a order by count(distinct x.s) desc, x.a limit {}",
            filter(rng),
            1 + rng.below(6)
        ),
        // Grouped join: the aggregate input crosses the hash join.
        7 => "select x.k, count(*), sum(y.w) from t x, u y where x.k = y.k \
              group by x.k order by x.k"
            .to_string(),
        // Self-join: both sides past the gate, and so is the `where`
        // pass over the residual.
        8 => format!(
            "select x.a, y.b from t x, t y where x.a = y.a and x.k = y.k and ({})",
            rng.pick(&["x.b < y.b", "x.b + y.b > 1.0", "x.s = y.s or y.b is null"])
        ),
        // Thousands of groups keyed by NaN, -0.0 and NULL, maybe sorted.
        9 => {
            let mut sql = format!(
                "select x.b, count(*), sum(x.b), min(x.a), max(x.b), avg(x.b) \
                 from t x{} group by x.b having count(*) >= 1",
                filter(rng)
            );
            if rng.chance(1, 2) {
                sql.push_str(&format!(" order by x.b desc limit {}", 1 + rng.below(10)));
            }
            sql
        }
        // Correlated subquery: must take the serial fallback, identically.
        _ => format!(
            "select count(*) from t x where exists (select * from u where u.k = x.k) and {}",
            pred(rng, "x")
        ),
    }
}

fn run(db: &Database, stmt: &SelectStmt, threads: usize) -> (Result<Relation, String>, ExecStats) {
    let st = StatsCell::new();
    let r = execute_query(
        db,
        &NoTransitionTables,
        stmt,
        &ExecOpts { stats: Some(&st), threads, op_stats: None },
    );
    (r.map_err(|e| e.to_string()), st.snapshot())
}

/// The stats a parallel run must reproduce exactly: everything except the
/// parallelism bookkeeping itself (which by design differs from serial).
fn comparable(mut s: ExecStats) -> ExecStats {
    s.parallel_scans = 0;
    s.parallel_partitions = 0;
    s.serial_fallbacks = 0;
    s
}

#[test]
fn parallel_matches_serial_on_adversarial_queries() {
    // Cases whose scan or `where` pass exchanged at 8 threads.
    let mut exchanged = 0;
    check("parallel_vs_serial", 300, 0x9a7a_11e1, |rng| {
        let db = adversarial_db(rng);
        let sql = random_query(rng);
        let stmt = sel(&sql);
        let (base, base_stats) = run(&db, &stmt, 1);
        for threads in [2, 8] {
            let (par, par_stats) = run(&db, &stmt, threads);
            assert_eq!(base, par, "outcome diverged for {sql} ({threads} threads)");
            assert_eq!(
                comparable(base_stats),
                comparable(par_stats),
                "row-level stats diverged for {sql} ({threads} threads)"
            );
            if threads == 8 {
                exchanged += (par_stats.parallel_scans > 0) as usize;
            }
        }
    });
    // The generator must keep both partitioned phases busy on
    // adversarial data, whatever the gate.
    assert!(exchanged >= 150, "{exchanged}");
}

// ----------------------------------------------------------------------
// Serial fallback: correlated subqueries never cross threads.
// ----------------------------------------------------------------------

#[test]
fn correlated_subqueries_take_the_serial_fallback() {
    let mut rng = Rng::new(0x5e41_a11b);
    let db = adversarial_db(&mut rng);
    let stmt = sel("select count(*) from t x where exists (select * from u where u.k = x.k)");
    let (serial, _) = run(&db, &stmt, 1);
    let (par, par_stats) = run(&db, &stmt, 8);
    assert_eq!(serial, par);
    assert!(
        par_stats.serial_fallbacks > 0,
        "a big scan with a correlated predicate must count its serial fallback: {par_stats:?}"
    );
    // A row-local predicate over the same table does parallelize, so the
    // fallback above is about the predicate, not the plumbing.
    let local = sel("select count(*) from t x where x.k >= 4");
    let (_, local_stats) = run(&db, &local, 8);
    assert!(local_stats.parallel_scans > 0, "{local_stats:?}");
    assert!(local_stats.parallel_partitions > 1, "{local_stats:?}");
}

// ----------------------------------------------------------------------
// Engine wiring: config knob, EngineStats mirror, ParallelScan event.
// ----------------------------------------------------------------------

/// Rows of `big`: past the exchange's gate, so a 4-thread engine fans out.
const BIG_ROWS: usize = 4200;

fn big_engine(parallelism: Option<usize>) -> RuleSystem {
    let mut sys = RuleSystem::with_config(EngineConfig { parallelism, ..Default::default() });
    sys.execute("create table big (k int, v float)").unwrap();
    let rows: Vec<String> = (0..BIG_ROWS).map(|i| format!("({i}, {i}.5)")).collect();
    sys.transaction(&format!("insert into big values {}", rows.join(", "))).unwrap();
    sys
}

#[test]
fn engine_parallelism_knob_mirrors_stats_and_emits_event() {
    let mut par = big_engine(Some(4));
    let mut serial = big_engine(Some(1));
    let sql = "select k from big where v > 10.0";
    let a = par.transaction(sql).unwrap();
    let b = serial.transaction(sql).unwrap();
    // Identical output either way.
    match (a, b) {
        (
            setrules_core::TxnOutcome::Committed { output: Some(x), .. },
            setrules_core::TxnOutcome::Committed { output: Some(y), .. },
        ) => assert_eq!(x, y),
        other => panic!("both transactions must commit with output: {other:?}"),
    }
    // The parallel engine mirrored its exchanges into EngineStats and traced them.
    assert!(par.stats().parallel_scans > 0, "{:?}", par.stats());
    assert!(par.stats().parallel_partitions > 1);
    assert!(par
        .recent_events()
        .iter()
        .any(|e| matches!(e, EngineEvent::ParallelScan { partitions, rows }
            if *partitions > 1 && *rows >= BIG_ROWS as u64)));
    // The pinned-serial engine never exchanged.
    assert_eq!(serial.stats().parallel_scans, 0);
    assert!(!serial
        .recent_events()
        .iter()
        .any(|e| matches!(e, EngineEvent::ParallelScan { .. })));
}

/// Only a partitioned predicate exchanges. At 4 threads, over the
/// 4 200-row `big` — past the gate — a grouped top-K (4 200 groups), a
/// hash join building on `big`, an `order by` and a bare fetch all run
/// serially, with no exchange and no serial fallback, and give output
/// identical to the pinned-serial engine.
#[test]
fn group_by_aggregation_engages_the_pool() {
    let mut par = big_engine(Some(4));
    let mut serial = big_engine(Some(1));
    for sys in [&mut par, &mut serial] {
        sys.execute("create table small (k int)").unwrap();
        sys.transaction("insert into small values (3), (14), (15), (92), (653)").unwrap();
    }
    for sql in [
        "select k, count(*), sum(v) from big group by k order by k limit 5",
        "select count(*) from big a, small b where a.k = b.k",
        "select k, v from big order by v desc",
        "select k from big",
    ] {
        let a = par.transaction(sql).unwrap();
        let b = serial.transaction(sql).unwrap();
        match (a, b) {
            (
                setrules_core::TxnOutcome::Committed { output: Some(x), .. },
                setrules_core::TxnOutcome::Committed { output: Some(y), .. },
            ) => assert_eq!(x, y, "{sql}"),
            other => panic!("both transactions must commit with output: {other:?}"),
        }
        let stats = par.stats();
        assert_eq!((stats.parallel_scans, stats.serial_fallbacks), (0, 0), "{sql}: {stats:?}");
    }
    assert!(par.exec_stats().hash_joins > 0, "the join must be a hash join");
    assert!(!par.recent_events().iter().any(|e| matches!(e, EngineEvent::ParallelScan { .. })));
}

/// Below the exchange's gate nothing partitions even at 8 threads: the
/// statements of an OLTP transaction — a point update, and a department
/// raise over 300 rows whose rule reads the updated rows and deletes some
/// of them — all run serially, and none counts a serial fallback.
#[test]
fn below_the_gate_the_pool_stays_idle() {
    let mut sys =
        RuleSystem::with_config(EngineConfig { parallelism: Some(8), ..Default::default() });
    paper_tables(&mut sys);
    sys.execute("create index on emp (emp_no)").unwrap();
    sys.execute("create index on emp (dept_no)").unwrap();
    sys.execute(
        "create rule cap when updated emp.salary \
         if (select avg(salary) from new updated emp.salary) > 150.0 \
         then delete from emp \
              where emp_no in (select emp_no from new updated emp.salary) and salary > 400.0",
    )
    .unwrap();
    let rows: Vec<String> =
        (0..1200).map(|i| format!("('e{i}', {i}, {}.0, {})", 100 + i % 300, i % 4)).collect();
    sys.transaction(&format!("insert into emp values {}", rows.join(", "))).unwrap();
    sys.transaction("update emp set salary = salary + 1.0 where emp_no = 7").unwrap();
    let raise = sys.transaction("update emp set salary = salary * 2.0 where dept_no = 2").unwrap();
    assert!(raise.committed());
    let left = sys.query("select count(*) from emp").unwrap();
    assert!(left.rows[0][0] < Value::Int(1200), "the rule must fire and delete: {left:?}");
    let stats = sys.stats();
    assert_eq!(stats.parallel_scans, 0, "{stats:?}");
    assert_eq!(stats.serial_fallbacks, 0, "{stats:?}");
}

// ----------------------------------------------------------------------
// Statement-level error determinism with parallelism forced on.
// ----------------------------------------------------------------------

#[test]
fn engines_fail_at_the_same_statement_regardless_of_threads() {
    let script: &[&str] = &[
        "select k from big where v >= 0.0",
        "select k from big where k / (k - k) = 1", // poisoned: division by zero
        "select k from big where v < 5.0",
    ];
    let mut outcomes = Vec::new();
    for threads in [1, 8] {
        let mut sys = big_engine(Some(threads));
        let mut failure: Option<(usize, String)> = None;
        for (i, stmt) in script.iter().enumerate() {
            if let Err(e) = sys.transaction(stmt) {
                failure = Some((i, e.to_string()));
                break;
            }
        }
        outcomes.push(failure.expect("the poisoned statement must fail"));
    }
    assert_eq!(outcomes[0], outcomes[1], "failure site/text must not depend on thread budget");
    assert_eq!(outcomes[0].0, 1, "the poisoned statement is the second one");
}

// ----------------------------------------------------------------------
// Fault-injection sweep with parallelism forced on: inflated Examples
// 3.1 and 4.1, byte-identical restore at every probed site.
// ----------------------------------------------------------------------

struct ParScenario {
    name: &'static str,
    setup: fn(&mut RuleSystem),
    workload: Vec<String>,
}

fn paper_tables(sys: &mut RuleSystem) {
    sys.execute("create table emp (name text, emp_no int, salary float, dept_no int)").unwrap();
    sys.execute("create table dept (dept_no int, mgr_no int)").unwrap();
}

fn inflated_scenarios() -> Vec<ParScenario> {
    // Example 3.1, inflated past the exchange's gate: 4 200 employees over
    // 64 departments (deleting one cascades over 66 of them, and the
    // `dept_no` index keeps small buckets); the update's identification
    // scan and the select run partitioned.
    let emp_rows = |n: usize, dept_of: fn(usize) -> usize| -> String {
        let rows: Vec<String> = (0..n)
            .map(|i| format!("('e{i}', {i}, {}.0, {})", 100 + i, dept_of(i)))
            .collect();
        format!("insert into emp values {}", rows.join(", "))
    };
    vec![
        ParScenario {
            name: "example_3_1_inflated",
            setup: |sys| {
                paper_tables(sys);
                sys.execute(
                    "create rule r31 when deleted from dept \
                     then delete from emp where dept_no in (select dept_no from deleted dept)",
                )
                .unwrap();
                sys.execute("create index on emp (dept_no)").unwrap();
            },
            workload: vec![
                format!(
                    "insert into dept values {}",
                    (1..=64).map(|d| format!("({d}, {})", 10 * d)).collect::<Vec<_>>().join(", ")
                ),
                emp_rows(4200, |i| 1 + i % 64),
                "update emp set salary = salary + 1.0 where salary >= 0.0".into(),
                "select count(*) from emp where salary > 100.0".into(),
                "delete from dept where dept_no = 1".into(),
            ],
        },
        ParScenario {
            name: "example_4_1_inflated",
            setup: |sys| {
                paper_tables(sys);
                sys.execute(
                    "create rule r41 when deleted from emp \
                     then delete from emp where dept_no in \
                            (select dept_no from dept where mgr_no in \
                              (select emp_no from deleted emp)); \
                          delete from dept where mgr_no in \
                            (select emp_no from deleted emp)",
                )
                .unwrap();
            },
            workload: vec![
                "insert into dept values (1, 1), (2, 2)".into(),
                emp_rows(4100, |i| if i == 1 || i == 2 { 1 } else { 2 }),
                "update emp set salary = salary * 2.0 where salary < 1000.0".into(),
                "delete from emp where name = 'e1'".into(),
            ],
        },
    ]
}

fn fresh_par(scenario: &ParScenario) -> RuleSystem {
    let mut sys =
        RuleSystem::with_config(EngineConfig { parallelism: Some(8), ..Default::default() });
    (scenario.setup)(&mut sys);
    sys.fault_injector_mut().reset_counts();
    sys
}

fn fault_of(e: &RuleError) -> Option<(FaultKind, u64)> {
    let se = match e {
        RuleError::Storage(se) => se,
        RuleError::Query(QueryError::Storage(se)) => se,
        _ => return None,
    };
    match se {
        StorageError::FaultInjected { kind, op } => Some((*kind, *op)),
        _ => None,
    }
}

#[test]
fn fault_sweep_holds_with_parallelism_forced_on() {
    for scenario in &inflated_scenarios() {
        // Discovery pass: fault-free, counting sites per kind — and
        // proving the exchange actually engaged (the sweep would otherwise
        // test nothing new over the serial fault sweep).
        let mut sys = fresh_par(scenario);
        for stmt in &scenario.workload {
            let out = sys.transaction(stmt).unwrap();
            assert!(out.committed(), "{}: fault-free run must commit", scenario.name);
        }
        assert!(
            sys.stats().parallel_scans > 0,
            "{}: workload must exchange (stats: {:?})",
            scenario.name,
            sys.stats()
        );
        let totals: Vec<(FaultKind, u64)> = FaultKind::ALL
            .iter()
            .map(|&k| (k, sys.fault_injector().count(k)))
            .filter(|&(_, c)| c > 0)
            .collect();
        assert!(!totals.is_empty(), "{}: no fault sites discovered", scenario.name);

        // Probe first, middle, and last site of each kind (the bounded
        // shape the serial sweep uses under FAULT_SWEEP_FAST).
        for &(kind, total) in &totals {
            let mut sites = vec![1, total.div_ceil(2), total];
            sites.dedup();
            for n in sites {
                let mut sys = fresh_par(scenario);
                sys.fault_injector_mut().arm(kind, n);
                let ctx = format!("[{} kind={kind} n={n}]", scenario.name);
                let mut hit = false;
                for (i, stmt) in scenario.workload.iter().enumerate() {
                    let before = sys.database().state_image();
                    match sys.transaction(stmt) {
                        Ok(_) => continue,
                        Err(e) => {
                            let got = fault_of(&e)
                                .unwrap_or_else(|| panic!("{ctx} stmt {i}: unexpected error {e}"));
                            assert_eq!(got, (kind, n), "{ctx} stmt {i}: wrong fault");
                            assert_eq!(
                                sys.database().state_image(),
                                before,
                                "{ctx} stmt {i}: state diverged after rollback"
                            );
                            assert!(!sys.in_transaction(), "{ctx}: transaction left open");
                            assert_eq!(sys.database().undo_len(), 0, "{ctx}: undo not drained");
                            hit = true;
                            break;
                        }
                    }
                }
                assert!(hit, "{ctx}: armed site was never reached");
            }
        }
    }
}
