//! Differential checks of incremental condition evaluation (delta-driven
//! memo repair) against the full re-scan evaluator it replaces.
//!
//! * 300 random rule programs × random DML batches, run twice — once with
//!   `EngineConfig::incremental` on, once off — must produce identical
//!   firing sequences, identical `state_image()`s, and identical semantic
//!   counters (work counters like `rows_scanned` and the `incr_*` family
//!   legitimately differ: that difference is the optimisation). Programs
//!   span match sets, two-view equality joins (and non-equi fallbacks),
//!   `sum`/`avg`/`min`/`max` accumulators, float-aggregate fallbacks, and
//!   inserts from the NaN/-0.0/NULL/1e300/near-`i64::MAX` corpus.
//! * The paper's worked examples (§3.1, §4.5), the §5 extension programs
//!   and a constraint-compiled program, each run with incremental
//!   evaluation pinned on and pinned off: the event traces, transaction
//!   outcomes and `state_image()`s must be identical statement by
//!   statement. Every other suite runs engines at the default (on), so
//!   this is where the re-scan evaluator meets those programs.
//! * Deterministic programs pinning the widened memo kinds: extremum
//!   deletion, windows drained to empty, join repair from both sides,
//!   the sum overflow guard, the shared-delta-cursor storm, and the
//!   `selected`-window fallback.
//! * A fault sweep over the paper's Example 3.1 / 4.1 workloads (with
//!   exists, join-memory, and accumulator conditions) with incremental
//!   evaluation enabled: every reachable fault site must abort to a
//!   byte-identical pre-statement state on *both* evaluators, and the
//!   post-recovery runs must converge — i.e. an abort invalidates the
//!   memo rather than leaving it stale.
//!
//! Cases come from the deterministic `setrules-testkit` harness; a
//! failure names the case index and seed to replay.

use std::sync::Arc;

use setrules_constraints::{install, Constraint, RepairPolicy};
use setrules_core::{
    ActionCtx, EngineConfig, EngineEvent, FaultKind, RetriggerSemantics, RuleError, RuleSystem,
    SelectionStrategy, TxnOutcome,
};
use setrules_query::QueryError;
use setrules_sql::ast::TransitionKind;
use setrules_storage::{StorageError, Value};
use setrules_testkit::{check, Rng};

// ----------------------------------------------------------------------
// Random rule programs over a shared schema.
// ----------------------------------------------------------------------

/// `t` is the watched table, `tick` drives bounded cascades, `sink`
/// absorbs actions without licensing any `t`/`tick` trigger.
fn build(incremental: bool, retrigger: RetriggerSemantics, rules: &[String]) -> RuleSystem {
    let mut sys = RuleSystem::with_config(EngineConfig {
        incremental: Some(incremental),
        retrigger,
        strategy: SelectionStrategy::PartialOrder,
        ..Default::default()
    });
    sys.execute("create table t (a int, b int, f float)").unwrap();
    sys.execute("create table tick (k int)").unwrap();
    sys.execute("create table sink (r int, v int)").unwrap();
    for r in rules {
        sys.execute(r).unwrap();
    }
    sys
}

/// A row-local (or empty) filter over the licensed view's columns.
fn gen_pred(rng: &mut Rng, tick: bool) -> String {
    if tick {
        return match rng.below(3) {
            0 => String::new(),
            1 => format!(" where k > {}", rng.range_i64(0, 3)),
            _ => format!(" where k < {}", rng.range_i64(1, 4)),
        };
    }
    match rng.below(6) {
        0 => String::new(),
        1 => format!(" where a > {}", rng.range_i64(0, 50)),
        2 => format!(" where b < {}", rng.range_i64(0, 50)),
        3 => format!(" where a + b > {}", rng.range_i64(0, 80)),
        4 => format!(" where f > {}", *rng.pick(&["0.0", "-0.0", "1.5", "1e300"])),
        _ => format!(" where a > {} and b > {}", rng.range_i64(0, 40), rng.range_i64(0, 40)),
    }
}

/// An int literal for inserts: mostly small, sometimes NULL (three-valued
/// predicates and aggregates skipping NULLs), rarely near `i64::MAX` so
/// `sum` repairs cross the overflow guard — and sometimes *must* error,
/// identically on both evaluators.
fn gen_int(rng: &mut Rng) -> String {
    if rng.chance(1, 10) {
        return "NULL".to_string();
    }
    if rng.chance(1, 40) {
        return "9223372036854775000".to_string();
    }
    rng.range_i64(0, 60).to_string()
}

/// A float literal from the adversarial corpus (float aggregates fall
/// back; float predicates stay incremental and must agree on NaN/-0.0).
fn gen_float(rng: &mut Rng) -> &'static str {
    const CORPUS: [&str; 9] =
        ["0.0", "-0.0", "1.5", "-2.5", "7.25", "1e300", "-1e300", "(0.0 / 0.0)", "NULL"];
    CORPUS[rng.below(CORPUS.len())]
}

/// One condition term over the rule's licensed transition views. Roughly
/// one in six terms is deliberately *not* incrementalizable (stored-table
/// reference, join, or non-row-local predicate) so the fallback path runs
/// interleaved with repairs.
fn gen_term(rng: &mut Rng, views: &[&str]) -> String {
    if rng.chance(1, 6) {
        return match rng.below(3) {
            0 => format!("exists (select * from t where a > {})", rng.range_i64(0, 50)),
            1 => "exists (select * from t e1, t e2 where e1.a = e2.b)".to_string(),
            _ => {
                let view = views[rng.below(views.len())];
                format!("exists (select * from {view} where a > (select count(*) from sink))")
            }
        };
    }
    // Two-view join terms for rules licensing a whole-table update window
    // (`old updated t` × `new updated t`): equality joins exercise the
    // join memory; one in three is non-equi, exercising the `JoinShape`
    // fallback.
    if views.len() == 2
        && views.iter().all(|v| v.ends_with(" t"))
        && rng.chance(1, 4)
    {
        let key = if rng.chance(1, 2) { "a" } else { "b" };
        let extra = match rng.below(3) {
            0 => String::new(),
            1 => format!(" and o.a > {}", rng.range_i64(0, 50)),
            _ => format!(" and n.b < {}", rng.range_i64(0, 50)),
        };
        let cmp = if rng.chance(1, 3) { "<" } else { "=" };
        return format!(
            "exists (select * from {} o, {} n where o.{key} {cmp} n.{key}{extra})",
            views[0], views[1]
        );
    }
    let view = views[rng.below(views.len())];
    let tick = view.ends_with("tick");
    let pred = gen_pred(rng, tick);
    // Aggregate thresholds: int columns run on the accumulator memos
    // (`sum`/`avg` as running pairs, `min`/`max` as ordered multisets);
    // float columns exercise the `FloatAccumulator` fallback.
    if !tick && rng.chance(1, 3) {
        let (func, col) = match rng.below(6) {
            0 => ("sum", "a"),
            1 => ("avg", "a"),
            2 => ("min", "b"),
            3 => ("max", "b"),
            4 => ("sum", "f"),
            _ => ("min", "f"),
        };
        let op = ["<", "<=", ">", ">=", "="][rng.below(5)];
        return format!(
            "(select {func}({col}) from {view}{pred}) {op} {}",
            rng.range_i64(0, 120)
        );
    }
    match rng.below(5) {
        0 => format!("exists (select * from {view}{pred})"),
        1 => format!("not exists (select * from {view}{pred})"),
        2 => format!("(select count(*) from {view}{pred}) > {}", rng.below(3)),
        3 => format!("(select count(*) from {view}{pred}) = 0"),
        _ => format!("{} < (select count(*) from {view}{pred})", rng.below(2)),
    }
}

fn gen_condition(rng: &mut Rng, views: &[&str]) -> Option<String> {
    if rng.chance(1, 8) {
        return None; // omitted condition: always fires, no memo involved
    }
    let nterms = 1 + rng.below(3);
    let mut s = gen_term(rng, views);
    for _ in 1..nterms {
        let op = if rng.chance(1, 2) { "and" } else { "or" };
        s = format!("({s} {op} {})", gen_term(rng, views));
    }
    Some(s)
}

fn gen_rule(rng: &mut Rng, i: usize) -> String {
    let (when, views): (&str, Vec<&str>) = match rng.below(6) {
        0 => ("inserted into t", vec!["inserted t"]),
        1 => ("deleted from t", vec!["deleted t"]),
        2 => ("updated t.a", vec!["old updated t.a", "new updated t.a"]),
        3 => ("updated t.b", vec!["old updated t.b", "new updated t.b"]),
        4 => ("updated t", vec!["old updated t", "new updated t"]),
        _ => {
            // Bounded self-triggering cascade: each firing re-inserts
            // strictly smaller keys, so the storm terminates.
            return format!(
                "create rule r{i} when inserted into tick \
                 if exists (select * from inserted tick where k > 0) \
                 then insert into tick (select k - 1 from inserted tick where k > 0)"
            );
        }
    };
    let action = if rng.chance(1, 16) {
        "rollback".to_string()
    } else {
        format!("insert into sink values ({i}, 1)")
    };
    match gen_condition(rng, &views) {
        Some(c) => format!("create rule r{i} when {when} if {c} then {action}"),
        None => format!("create rule r{i} when {when} then {action}"),
    }
}

fn gen_rules(rng: &mut Rng) -> Vec<String> {
    (0..3 + rng.below(5)).map(|i| gen_rule(rng, i)).collect()
}

fn gen_txn(rng: &mut Rng) -> String {
    let n = 1 + rng.below(4);
    let stmts: Vec<String> = (0..n)
        .map(|_| match rng.below(8) {
            0 | 1 => {
                let rows: Vec<String> = (0..1 + rng.below(3))
                    .map(|_| {
                        format!("({}, {}, {})", gen_int(rng), gen_int(rng), gen_float(rng))
                    })
                    .collect();
                format!("insert into t values {}", rows.join(", "))
            }
            2 => format!(
                "update t set b = b + {} where a < {}",
                rng.range_i64(1, 9),
                rng.range_i64(0, 60)
            ),
            3 => format!(
                "update t set a = a + {} where b > {}",
                rng.range_i64(1, 9),
                rng.range_i64(0, 60)
            ),
            4 => format!("delete from t where a > {}", rng.range_i64(10, 70)),
            5 => format!(
                "update t set a = {} where a = {}",
                rng.range_i64(0, 60),
                rng.range_i64(0, 60)
            ),
            6 => format!("update t set f = {} where b < {}", gen_float(rng), rng.range_i64(0, 60)),
            _ => format!("insert into tick values ({})", rng.below(4)),
        })
        .collect();
    stmts.join("; ")
}

const RETRIGGERS: [RetriggerSemantics; 3] = [
    RetriggerSemantics::SinceLastAction,
    RetriggerSemantics::SinceLastConsidered,
    RetriggerSemantics::SinceLastTriggering,
];

/// The headline differential: 300 random programs, each driven by the
/// same batch of transactions on an incremental and a re-scan system.
#[test]
fn incremental_matches_rescan_on_random_programs() {
    let mut incr_answers = 0u64; // repairs + rebuilds across all cases
    check("incremental_matches_rescan", 300, 0x1c4_0001, |rng| {
        let retrigger = RETRIGGERS[rng.below(3)];
        let rules = gen_rules(rng);
        let mut inc = build(true, retrigger, &rules);
        let mut scan = build(false, retrigger, &rules);
        let ctx = || format!("retrigger={retrigger:?} rules={rules:#?}");

        for _ in 0..3 + rng.below(5) {
            let sql = gen_txn(rng);
            let a = inc.transaction(&sql);
            let b = scan.transaction(&sql);
            match (&a, &b) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.committed(), y.committed(), "txn `{sql}`\n{}", ctx());
                    assert_eq!(x.fired(), y.fired(), "firing trace for `{sql}`\n{}", ctx());
                }
                (Err(x), Err(y)) => {
                    assert_eq!(x.to_string(), y.to_string(), "error for `{sql}`\n{}", ctx())
                }
                _ => panic!("evaluators disagree on `{sql}`: {a:?} vs {b:?}\n{}", ctx()),
            }
            assert_eq!(
                inc.database().state_image(),
                scan.database().state_image(),
                "state diverged after `{sql}`\n{}",
                ctx()
            );
        }

        // Semantic counters agree; work counters (`incr_*`, rows scanned)
        // are allowed to differ — they are the point.
        let (si, ss) = (inc.stats(), scan.stats());
        assert_eq!(si.rules_considered, ss.rules_considered, "{}", ctx());
        assert_eq!(si.conditions_false, ss.conditions_false, "{}", ctx());
        assert_eq!(si.rules_executed, ss.rules_executed, "{}", ctx());
        assert_eq!(si.rules_retriggered, ss.rules_retriggered, "{}", ctx());
        assert_eq!(si.txns_committed, ss.txns_committed, "{}", ctx());
        assert_eq!(si.txns_rolled_back, ss.txns_rolled_back, "{}", ctx());
        assert_eq!(si.loop_aborts, ss.loop_aborts, "{}", ctx());

        // The knob is real: the re-scan side never touches the machinery.
        assert_eq!(ss.incr_hits + ss.incr_rebuilds + ss.incr_fallbacks, 0, "{}", ctx());
        incr_answers += si.incr_hits + si.incr_rebuilds;
    });
    assert!(
        incr_answers > 0,
        "the sweep never exercised an authoritative incremental answer"
    );
}

// ----------------------------------------------------------------------
// The paper's examples, the extensions and a constraint program, both ways.
// ----------------------------------------------------------------------

/// A fixed rule program: whether it tracks selects (§5.1), its setup
/// (schema, rules, seed rows) and the transactions it runs.
struct Program {
    name: &'static str,
    track_selects: bool,
    setup: fn(&mut RuleSystem),
    txns: &'static [&'static str],
}

const PAPER_SCHEMA: [&str; 2] = [
    "create table emp (name text, emp_no int, salary float, dept_no int)",
    "create table dept (dept_no int, mgr_no int)",
];

/// Example 4.1's recursive cascade (R1 of Example 4.3).
const R41: &str = "create rule r41 when deleted from emp \
     then delete from emp where dept_no in \
            (select dept_no from dept where mgr_no in (select emp_no from deleted emp)); \
          delete from dept where mgr_no in (select emp_no from deleted emp)";

/// Example 4.2's salary control (R2 of Example 4.3).
const R42: &str = "create rule r42 when updated emp.salary \
     if (select avg(salary) from new updated emp.salary) > 50000 \
     then delete from emp where emp_no in \
            (select emp_no from new updated emp.salary) and salary > 80000";

/// Example 4.3's organisation: Jane manages Mary and Jim; Mary manages
/// Bill; Jim manages Sam and Sue.
const ORG: [&str; 2] = [
    "insert into dept values (1, 1), (2, 2), (3, 3)",
    "insert into emp values ('Jane', 1, 100000.0, 0), ('Mary', 2, 70000.0, 1), \
     ('Jim', 3, 60000.0, 1), ('Bill', 4, 25000.0, 2), ('Sam', 5, 40000.0, 3), \
     ('Sue', 6, 45000.0, 3)",
];

const EXAMPLE_4_3_BLOCK: &str = "delete from emp where name = 'Jane'; \
     update emp set salary = 30000.0 where name = 'Bill'; \
     update emp set salary = 85000.0 where name = 'Mary'";

fn run_all(sys: &mut RuleSystem, stmts: &[&str]) {
    for sql in stmts {
        sys.execute(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
    }
}

fn programs() -> Vec<Program> {
    vec![
        Program {
            name: "example_3_1",
            track_selects: false,
            setup: |sys| {
                run_all(sys, &PAPER_SCHEMA);
                run_all(sys, &[
                    "create rule r31 when deleted from dept \
                     then delete from emp where dept_no in (select dept_no from deleted dept)",
                    "insert into dept values (1, 10), (2, 20), (3, 30)",
                    "insert into emp values ('a', 1, 10.0, 1), ('b', 2, 10.0, 1), \
                     ('c', 3, 10.0, 2), ('d', 4, 10.0, 3)",
                ])
            },
            txns: &[
                "delete from dept where dept_no = 1",
                "delete from dept where dept_no = 99",
                "delete from dept where dept_no in (2, 3)",
            ],
        },
        Program {
            name: "example_3_2",
            track_selects: false,
            setup: |sys| {
                run_all(sys, &PAPER_SCHEMA);
                run_all(sys, &[
                    "create rule r32 when updated emp.salary \
                     if (select sum(salary) from new updated emp.salary) > \
                        (select sum(salary) from old updated emp.salary) \
                     then update emp set salary = 0.95 * salary where dept_no = 2; \
                          update emp set salary = 0.85 * salary where dept_no = 3",
                    "insert into emp values ('u', 1, 1000.0, 1), ('v', 2, 1000.0, 2), \
                     ('w', 3, 1000.0, 3)",
                ])
            },
            txns: &[
                "update emp set salary = 2000.0 where name = 'u'",
                "update emp set salary = 1.0 where name = 'u'",
                "update emp set salary = salary + 1.0",
            ],
        },
        Program {
            name: "example_3_3",
            track_selects: false,
            setup: |sys| {
                run_all(sys, &PAPER_SCHEMA);
                run_all(sys, &[
                    "create rule r33 when inserted into emp or deleted from emp \
                       or updated emp.salary or updated emp.dept_no \
                     if exists (select * from emp e1 where salary > \
                         2 * (select avg(salary) from emp e2 where e2.dept_no = e1.dept_no)) \
                     then delete from emp where emp_no = \
                         (select mgr_no from dept where dept_no = 5)",
                    "insert into dept values (5, 50)",
                    "insert into emp values ('mgr5', 50, 100.0, 4), ('x', 10, 100.0, 1), \
                     ('y', 11, 100.0, 1)",
                ])
            },
            txns: &[
                "insert into emp values ('z', 12, 1000.0, 1)",
                "insert into emp values ('mgr5b', 51, 100.0, 4)",
                "update dept set mgr_no = 51 where dept_no = 5",
                "update emp set dept_no = 1 where name = 'mgr5b'",
            ],
        },
        Program {
            name: "example_4_1",
            track_selects: false,
            setup: |sys| {
                run_all(sys, &PAPER_SCHEMA);
                run_all(sys, &[R41]);
                run_all(sys, &ORG);
            },
            txns: &["delete from emp where name = 'Mary'", "delete from emp where name = 'Jane'"],
        },
        Program {
            name: "example_4_2",
            track_selects: false,
            setup: |sys| {
                run_all(sys, &PAPER_SCHEMA);
                run_all(sys, &[R42]);
                run_all(sys, &ORG);
            },
            txns: &[
                "update emp set salary = 30000.0 where name = 'Bill'; \
                 update emp set salary = 85000.0 where name = 'Mary'",
                "update emp set salary = 30000.0",
            ],
        },
        Program {
            name: "example_4_3",
            track_selects: false,
            setup: |sys| {
                run_all(sys, &PAPER_SCHEMA);
                run_all(sys, &[R41, R42, "create rule priority r42 before r41"]);
                run_all(sys, &ORG);
            },
            txns: &[EXAMPLE_4_3_BLOCK],
        },
        Program {
            name: "example_4_3_reversed",
            track_selects: false,
            setup: |sys| {
                run_all(sys, &PAPER_SCHEMA);
                run_all(sys, &[R41, R42, "create rule priority r41 before r42"]);
                run_all(sys, &ORG);
            },
            txns: &[EXAMPLE_4_3_BLOCK],
        },
        Program {
            name: "selected_reads",
            track_selects: true,
            setup: |sys| {
                run_all(sys, &[
                    PAPER_SCHEMA[0],
                    "create table audit (who text, what text)",
                    "create rule salary_reads when selected emp.salary \
                     if exists (select * from selected emp.salary where salary > 10.0) \
                     then insert into audit (select name, 'salary' from selected emp.salary)",
                    "create rule any_reads when selected emp \
                     then insert into audit (select name, 'any' from selected emp)",
                    "create rule summary when updated emp.salary \
                     then select name, salary from new updated emp.salary",
                    "insert into emp values ('Jane', 1, 95000.0, 2), ('Bill', 2, 50.0, 2)",
                ])
            },
            txns: &[
                "select name, salary from emp where dept_no = 2",
                "select name from emp",
                "select e1.name from emp e1, emp e2 \
                 where e1.dept_no = e2.emp_no and e2.salary > 10.0",
                "update emp set salary = 99000.0 where emp_no = 2",
                "select salary from emp; delete from emp where emp_no = 1",
            ],
        },
        Program {
            name: "external_action",
            track_selects: false,
            setup: |sys| {
                run_all(sys, &["create table t (k int)", "create table log (k int)"]);
                sys.create_rule_external(
                    "native",
                    "inserted into t",
                    Some("exists (select * from inserted t where k > 1)"),
                    Arc::new(|ctx: &mut ActionCtx<'_>| {
                        let rows = ctx
                            .transition_table(TransitionKind::Inserted, "t", None)
                            .map_err(RuleError::Query)?;
                        for row in rows {
                            let k = row[0].as_i64().unwrap();
                            ctx.run_sql(&format!("insert into log values ({})", k * 10))?;
                        }
                        Ok(())
                    }),
                )
                .unwrap();
                run_all(sys, &[
                    "create table seen (n int)",
                    "create rule watch when inserted into log \
                     if (select count(*) from inserted log) > 1 \
                     then insert into seen values (1)",
                ]);
            },
            txns: &["insert into t values (1)", "insert into t values (1), (2), (3)"],
        },
        Program {
            name: "constraints",
            track_selects: false,
            setup: |sys| {
                run_all(sys, &[PAPER_SCHEMA[1], PAPER_SCHEMA[0]]);
                for c in [
                    Constraint::Unique {
                        name: "uq_emp".into(),
                        table: "emp".into(),
                        column: "emp_no".into(),
                    },
                    Constraint::NotNull {
                        name: "nn_name".into(),
                        table: "emp".into(),
                        column: "name".into(),
                    },
                    Constraint::Check {
                        name: "pos_salary".into(),
                        table: "emp".into(),
                        predicate: "salary >= 0".into(),
                    },
                    Constraint::referential(
                        "fk_dept",
                        "emp",
                        "dept_no",
                        "dept",
                        "dept_no",
                        RepairPolicy::Cascade,
                    ),
                ] {
                    install(sys, &c).unwrap();
                }
                run_all(sys, &["insert into dept values (1, 10), (2, 20)"]);
            },
            txns: &[
                "insert into emp values ('a', 1, 100.0, 1)",
                "insert into emp values ('b', 1, 100.0, 1)",
                "insert into emp values (NULL, 2, 100.0, 1)",
                "insert into emp values ('b', 2, -1.0, 1)",
                "insert into emp values ('b', 2, 100.0, 9)",
                "insert into emp values ('b', 2, 100.0, 2); \
                 insert into emp values ('c', 3, 5.0, 2)",
                "delete from dept where dept_no = 1",
                "update emp set salary = salary - 50.0",
            ],
        },
    ]
}

/// The engine's events since the last call, one line each, without the
/// execution-strategy kinds (plan cache, incremental evaluation) that
/// legitimately differ between the evaluators.
fn drain_trace(sys: &mut RuleSystem) -> Vec<String> {
    let trace = sys
        .recent_events()
        .iter()
        .filter(|e| e.kind() != "plan_cache" && e.kind() != "incremental_eval")
        .map(|e| e.to_string())
        .collect();
    sys.clear_events();
    trace
}

/// What ran, what it produced and how the transaction ended — work
/// counters and timings, which legitimately differ, left out.
fn outcome(r: Result<TxnOutcome, RuleError>) -> String {
    match r {
        Ok(TxnOutcome::Committed { fired, transitions, output, .. }) => {
            format!("committed {fired:?} after {transitions} transitions, {output:?}")
        }
        Ok(TxnOutcome::RolledBack { by_rule, fired, .. }) => {
            format!("rolled back by {by_rule} after {fired:?}")
        }
        Err(e) => format!("error: {e}"),
    }
}

/// Every program behaves the same with incremental condition evaluation
/// pinned on and pinned off: after the setup and after each transaction,
/// the same outcome (or error text), the same event trace and the same
/// `state_image()`.
#[test]
fn fixed_programs_match_with_incremental_evaluation_on_and_off() {
    let mut incr_answers = 0;
    for program in programs() {
        let [mut inc, mut scan] = [true, false].map(|incremental| {
            let mut sys = RuleSystem::with_config(EngineConfig {
                incremental: Some(incremental),
                track_selects: program.track_selects,
                ..Default::default()
            });
            (program.setup)(&mut sys);
            sys
        });
        let name = program.name;
        assert_eq!(drain_trace(&mut inc), drain_trace(&mut scan), "{name}: setup trace");
        for sql in program.txns {
            let (a, b) = (outcome(inc.transaction(sql)), outcome(scan.transaction(sql)));
            assert_eq!(a, b, "{name}: outcome of `{sql}`");
            assert_eq!(drain_trace(&mut inc), drain_trace(&mut scan), "{name}: trace of `{sql}`");
            assert_eq!(
                inc.database().state_image(),
                scan.database().state_image(),
                "{name}: state after `{sql}`"
            );
        }
        let (si, ss) = (inc.stats(), scan.stats());
        assert_eq!(ss.incr_hits + ss.incr_rebuilds + ss.incr_fallbacks, 0, "{name}");
        incr_answers += si.incr_hits + si.incr_rebuilds;
    }
    assert!(incr_answers > 0, "no program reached an incremental answer");
}

// ----------------------------------------------------------------------
// Deterministic programs pinning the widened memo kinds.
// ----------------------------------------------------------------------

/// Run the same rule program + transactions on an incremental and a
/// re-scan system, asserting identical firings and images throughout.
fn run_pair(rules: &[String], txns: &[&str]) -> (RuleSystem, RuleSystem) {
    let mut inc = build(true, RetriggerSemantics::SinceLastAction, rules);
    let mut scan = build(false, RetriggerSemantics::SinceLastAction, rules);
    for sql in txns {
        let a = inc.transaction(sql);
        let b = scan.transaction(sql);
        match (&a, &b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.fired(), y.fired(), "firing trace for `{sql}`");
            }
            (Err(x), Err(y)) => assert_eq!(x.to_string(), y.to_string(), "error for `{sql}`"),
            _ => panic!("evaluators disagree on `{sql}`: {a:?} vs {b:?}"),
        }
        assert_eq!(
            inc.database().state_image(),
            scan.database().state_image(),
            "state diverged after `{sql}`"
        );
    }
    (inc, scan)
}

/// Deleting the extremum mid-transaction must repair the ordered-multiset
/// memo, not rescan — and must *flip* the watcher's truth: `w_max`
/// becomes true only after the reaper deletes the rows with `a > 50`
/// from the inserted window (max falls from 60 to 5). `w_sum`'s running
/// pair retires the same contributions.
#[test]
fn aggregate_memo_repairs_extremum_deletion() {
    let rules = vec![
        "create rule w_max when inserted into t \
         if (select max(a) from inserted t) <= 5 \
         then insert into sink values (0, 1)"
            .to_string(),
        "create rule w_sum when inserted into t \
         if (select sum(a) from inserted t) > 100 \
         then insert into sink values (1, 1)"
            .to_string(),
        "create rule w_min when inserted into t \
         if (select min(b) from inserted t) >= 7 \
         then insert into sink values (2, 1)"
            .to_string(),
        "create rule reaper when inserted into t \
         if exists (select * from inserted t where a > 50) \
         then delete from t where a > 50"
            .to_string(),
    ];
    let (inc, _) =
        run_pair(&rules, &["insert into t values (60, 9, 0.0), (55, 8, 1.5), (5, 7, -0.0)"]);
    let fired: Vec<i64> = inc
        .query("select r from sink")
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_i64().unwrap())
        .collect();
    assert!(fired.contains(&0), "w_max must fire after the extremum is deleted: {fired:?}");
    assert!(fired.contains(&1), "w_sum true before the reap: {fired:?}");
    assert!(fired.contains(&2), "w_min true throughout: {fired:?}");
    let si = inc.stats();
    assert!(si.incr_hits > 0, "reconsiderations must repair the accumulators");
    assert_eq!(si.incr_fallbacks, 0, "every condition here is incrementalizable");
}

/// When every row *matching* the watcher's filter is deleted, its memo
/// drains to empty (the whole window cannot drain — Def 2.1 cancels the
/// deletes against the inserts and the rule loses its trigger). The
/// emptied accumulator makes `count` 0 and `max` NULL; three-valued
/// comparisons must agree with the re-scan evaluator.
#[test]
fn aggregate_memo_drains_to_empty() {
    let rules = vec![
        "create rule w_gone when inserted into t \
         if (select count(*) from inserted t where a > 50) = 0 \
         then insert into sink values (1, 1)"
            .to_string(),
        "create rule w_null when inserted into t \
         if (select max(a) from inserted t where a > 50) >= 0 \
         then insert into sink values (0, 1)"
            .to_string(),
        "create rule reaper when inserted into t \
         if exists (select * from inserted t where a > 50) \
         then delete from t where a > 50"
            .to_string(),
    ];
    let (inc, _) =
        run_pair(&rules, &["insert into t values (60, 9, 0.0), (55, 8, 1.5), (5, 7, -0.0)"]);
    let fired: Vec<i64> = inc
        .query("select r from sink")
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_i64().unwrap())
        .collect();
    // w_gone is false while the memo holds {60, 55} and true only after
    // the reaper drains it (the surviving row (5, 7) keeps the window
    // triggered); w_null fires before the drain, and `NULL >= 0` keeps
    // it quiet after.
    assert!(fired.contains(&1), "w_gone must fire once its memo drains: {fired:?}");
    assert!(fired.contains(&0), "w_null must fire before the drain: {fired:?}");
    let si = inc.stats();
    assert!(si.incr_hits > 0, "the drain must be a repair, not a rebuild");
    assert_eq!(si.incr_fallbacks, 0, "every condition here is incrementalizable");
}

/// A two-view equality join repaired from both sides: the condition pairs
/// old and new updated rows on `a` and filters on the new side's `b`.
/// The reaper's follow-up update re-probes the join memory.
#[test]
fn join_memo_matches_rescan_across_both_sides() {
    let rules = vec![
        // False on first consideration (the external update sets b = 1),
        // true only after the pump's second-stage update — so the flip is
        // observed through a *repair* of the join memory, not a rebuild.
        "create rule w_join when updated t \
         if exists (select * from old updated t o, new updated t n \
                    where o.a = n.a and n.b > 10) \
         then insert into sink values (0, 1)"
            .to_string(),
        "create rule pump when updated t \
         if exists (select * from new updated t where b = 1) \
         then update t set b = 11 where b = 1"
            .to_string(),
    ];
    let (inc, _) = run_pair(
        &rules,
        &[
            "insert into t values (1, 1, 0.0), (2, 2, 0.0), (3, 3, 0.0)",
            // `a` never changes (stable join key); `b` rises through the
            // pump, so the pair predicate flips mid-processing while the
            // old-updated side stays frozen at (2, 2).
            "update t set b = 1 where a = 2",
        ],
    );
    assert!(
        inc.query("select count(*) from sink").unwrap().scalar().unwrap().as_i64().unwrap() > 0,
        "the join watcher must fire"
    );
    let si = inc.stats();
    assert!(si.incr_hits > 0, "join memo must repair across considerations");
    assert_eq!(si.incr_fallbacks, 0, "the equality join is incrementalizable");
}

/// The sum overflow guard: a window total outside `i64` errors
/// identically on both evaluators; positive-mass overflow with an
/// in-range total degrades that one evaluation to a full scan (recorded
/// under `sum-overflow-guard`) without giving a wrong answer.
#[test]
fn sum_overflow_guard_degrades_and_errors_identically() {
    let watch = vec![
        "create rule w when inserted into t \
         if (select sum(a) from inserted t) > 0 \
         then insert into sink values (0, 1)"
            .to_string(),
    ];
    // Total 2^63 — guaranteed overflow, identical error from both sides.
    let mut inc = build(true, RetriggerSemantics::SinceLastAction, &watch);
    let mut scan = build(false, RetriggerSemantics::SinceLastAction, &watch);
    let sql =
        "insert into t values (4611686018427387904, 0, 0.0), (4611686018427387904, 1, 0.0)";
    let (a, b) = (inc.transaction(sql), scan.transaction(sql));
    let ea = a.expect_err("sum must overflow").to_string();
    let eb = b.expect_err("sum must overflow").to_string();
    assert_eq!(ea, eb, "overflow must surface identically");
    assert!(ea.contains("integer overflow in sum"), "unexpected error: {ea}");

    // Positive mass exceeds i64 but the running total never does in scan
    // order: the incremental side must degrade (not answer from the
    // accumulator) and agree with the full fold.
    let (inc, _) = run_pair(
        &watch,
        &["insert into t values (6000000000000000000, 0, 0.0), \
           (-6000000000000000000, 1, 0.0), (6000000000000000000, 2, 0.0)"],
    );
    assert_eq!(
        inc.query("select count(*) from sink").unwrap().scalar().unwrap().as_i64(),
        Some(1),
        "the degraded evaluation must still answer true"
    );
    assert!(
        inc.stats().incr_fallback_reasons.get("sum-overflow-guard").copied().unwrap_or(0) > 0,
        "the degrade must be recorded under its own reason: {:?}",
        inc.stats().incr_fallback_reasons
    );
}

/// The 60-watcher shared-cursor storm: all watchers sit at the same
/// cursor when the pump fires, so the first repair folds the delta
/// suffix and the rest consume it from the per-transaction compose
/// cache (`incr_shared_hits`). Semantics stay identical to re-scan.
#[test]
fn shared_delta_cursor_fans_out_across_watchers() {
    let mut rules: Vec<String> = (0..60)
        .map(|i| {
            format!(
                "create rule w{i} when inserted into t \
                 if (select count(*) from inserted t) >= {} \
                 then insert into sink values ({i}, 1)",
                // Unsatisfiable thresholds: every watcher evaluates false
                // both before and after the pump, so all 60 repair from
                // the same cursor between the pump's transitions.
                100 + i
            )
        })
        .collect();
    rules.push(
        // Self-quenching: after acting, the pump's restarted window holds
        // its own insert (a = 99), so the second conjunct goes false and
        // the storm settles after exactly one pumped transition.
        "create rule pump when inserted into t \
         if exists (select * from inserted t where a = 1) \
         and not exists (select * from inserted t where a = 99) \
         then insert into t values (99, 99, 0.0)"
            .to_string(),
    );
    let (inc, scan) = run_pair(&rules, &["insert into t values (1, 1, 0.0)"]);
    let si = inc.stats();
    assert!(si.incr_hits > 0, "watchers must repair after the pump fires");
    assert!(
        si.incr_shared_hits >= 50,
        "the composed delta must fan out across the storm, got {} shared hits",
        si.incr_shared_hits
    );
    assert_eq!(scan.stats().incr_shared_hits, 0, "re-scan engine never shares deltas");

    // The refire storm: one update arms every watcher over a 500-row
    // window, then each step of a 10-step driver cascade clears the
    // considered set, so every watcher is reconsidered against a window
    // the driver never touches. For each memo kind — a match set, a
    // two-view join memory, shared accumulators — one memo is built per
    // (template, window start) and only repaired after that, and nothing
    // falls back. Every watcher's window starts at the storm's first
    // transition; the driver's restarts at each of its DEPTH actions.
    const WATCHERS: u64 = 12;
    const DEPTH: u64 = 10;
    let shapes: [fn(u64) -> String; 3] = [
        |i| format!("exists (select * from new updated t where b < -{})", i + 1),
        |i| {
            format!(
                "exists (select * from old updated t o, new updated t n \
                 where o.a = n.a and n.b < -{})",
                i + 1
            )
        },
        |i| match i % 4 {
            0 => format!("(select sum(b) from new updated t) > {}", 1_000_000 + i),
            1 => format!("(select avg(b) from new updated t) < -{}", i + 1),
            2 => format!("(select min(b) from new updated t) < -{}", i + 1),
            _ => format!("(select max(b) from new updated t) > {}", 1_000 + i),
        },
    ];
    let rows: Vec<String> = (0..500).map(|a| format!("({a}, {}, 0.0)", a % 97)).collect();
    let load = format!("insert into t values {}", rows.join(", "));
    let storm = format!("update t set b = b + 1; insert into tick values ({DEPTH})");
    for (shape, cond) in shapes.iter().enumerate() {
        let mut rules: Vec<String> = (0..WATCHERS)
            .map(|i| {
                format!("create rule w{i} when updated t if {} then insert into sink values ({i}, 1)", cond(i))
            })
            .collect();
        rules.push(
            "create rule driver when inserted into tick \
             if exists (select * from inserted tick where k > 0) \
             then insert into tick (select k - 1 from inserted tick where k > 0)"
                .to_string(),
        );
        let (inc, scan) = run_pair(&rules, &[&load, &storm]);
        let tick = inc.query("select count(*) from tick").unwrap();
        assert_eq!(tick.scalar().unwrap().as_i64(), Some(DEPTH as i64 + 1), "shape {shape}");
        let (si, ss) = (inc.stats(), scan.stats());
        assert_eq!(
            (si.rules_considered, si.conditions_false),
            (ss.rules_considered, ss.conditions_false),
            "shape {shape}: same schedule, same verdicts"
        );
        let reconsiderations = WATCHERS * (DEPTH - 1);
        // Shapes 0 and 1 compare inside `where`, so each watcher has its
        // own template; shape 2 compares four aggregates to literals.
        let templates = if shape == 2 { 4 } else { WATCHERS };
        assert_eq!(si.incr_rebuilds, templates + DEPTH + 1, "shape {shape}: {si:?}");
        // The join watchers' left sides (`old updated t o`, no pushdown)
        // are one side memo; each right side has its own `n.b < -i`.
        let side_builds = if shape == 1 { 1 + WATCHERS } else { 0 };
        assert_eq!(si.incr_side_builds, side_builds, "shape {shape}: {si:?}");
        assert!(si.incr_hits >= reconsiderations, "shape {shape}: repairs, not rebuilds: {si:?}");
        assert_eq!(si.incr_fallbacks, 0, "shape {shape}: {:?}", si.incr_fallback_reasons);
        assert_eq!(
            (ss.incr_hits, ss.incr_rebuilds, ss.incr_fallbacks, ss.incr_shared_hits),
            (0, 0, 0, 0),
            "shape {shape}: re-scan engine never runs incremental evaluation"
        );
        if shape == 2 {
            assert!(si.incr_shared_hits >= reconsiderations / 2, "shape {shape}: {si:?}");
        }
    }
}

/// Memos are shared per (template, window start): rules reading the same
/// subquery over the same window read one memo, whatever literal they
/// compare it with. Three templates here — `sum(a)` compared to four
/// literals, `exists` over `b > 5` and over `b > 7` (a literal inside
/// `where` is part of the template), and a division that raises — under
/// every retrigger semantics. `pump` acts while the others keep their
/// windows, so its `sum(a)` and `a = 1` memos exist over two window
/// starts at once; `w_div` and `w_nodiv` share a memo whose rebuild
/// divides by zero. Both evaluators must agree on every outcome and
/// error, every event (bar the evaluator's own kinds) and every state
/// image.
#[test]
fn shared_memos_are_invisible_across_retrigger_semantics() {
    let rules: Vec<String> = [
        // Self-quenching: its restarted window holds only its own insert.
        "create rule pump when inserted into t \
         if exists (select * from inserted t where a = 1) \
         and (select sum(a) from inserted t) < 1000 \
         then insert into t values (99, 99, 0.0)",
        "create rule w_hi when inserted into t \
         if (select sum(a) from inserted t) > 150 then insert into sink values (1, 1)",
        "create rule w_lo when inserted into t \
         if 5 > (select sum(a) from inserted t) \
         or exists (select * from inserted t where b > 5) \
         then insert into sink values (2, 1)",
        "create rule w_b7 when inserted into t \
         if exists (select * from inserted t where b > 7) \
         and (select sum(a) from inserted t) >= 20 \
         then insert into sink values (3, 1)",
        "create rule w_one when inserted into t \
         if not exists (select * from inserted t where a = 1) \
         then insert into sink values (4, 1)",
        "create rule w_div when inserted into t \
         if exists (select * from inserted t where 10 / a > 1) \
         then insert into sink values (5, 1)",
        "create rule w_nodiv when inserted into t \
         if not exists (select * from inserted t where 10 / a > 1) \
         then insert into sink values (6, 1)",
    ]
    .map(String::from)
    .to_vec();
    let txns = [
        "insert into t values (1, 6, 0.0), (2, 8, 0.0)",
        "insert into t values (50, 1, 0.0), (60, 9, 0.0); insert into t values (1, 2, 0.0)",
        // `10 / 0`: the first rule to read the shared division memo
        // raises while rebuilding it.
        "insert into t values (0, 3, 0.0)",
        "insert into t values (1, 9, 0.0), (70, 1, 0.0), (3, 2, 0.0)",
        "insert into t values (4, 4, 0.0); insert into t values (5, 8, 0.0), (200, 9, 0.0)",
        "insert into t values (1, 1, 0.0), (0, 7, 0.0)",
        "insert into t values (2, 2, 0.0)",
    ];
    for retrigger in RETRIGGERS {
        let mut inc = build(true, retrigger, &rules);
        let mut scan = build(false, retrigger, &rules);
        assert_eq!(drain_trace(&mut inc), drain_trace(&mut scan), "{retrigger:?}: setup");
        let mut errors = 0;
        for sql in txns {
            let (a, b) = (outcome(inc.transaction(sql)), outcome(scan.transaction(sql)));
            assert_eq!(a, b, "{retrigger:?}: outcome of `{sql}`");
            errors += usize::from(a.contains("integer division by zero"));
            assert_eq!(
                drain_trace(&mut inc),
                drain_trace(&mut scan),
                "{retrigger:?}: trace of `{sql}`"
            );
            assert_eq!(
                inc.database().state_image(),
                scan.database().state_image(),
                "{retrigger:?}: state after `{sql}`"
            );
        }
        // In the sixth transaction `pump` acts first; under
        // `SinceLastTriggering` its insert restarts every window, so the
        // `0` row has left them before `w_div` reads.
        let expected = if retrigger == RetriggerSemantics::SinceLastTriggering { 1 } else { 2 };
        assert_eq!(errors, expected, "{retrigger:?}: transactions dividing by zero");
        let pumped = inc.query("select count(*) from t where a = 99").unwrap();
        assert!(pumped.scalar().unwrap().as_i64() > Some(0), "{retrigger:?}: pump never acted");
        let (si, ss) = (inc.stats(), scan.stats());
        assert_eq!(si.incr_fallbacks, 0, "{retrigger:?}: {:?}", si.incr_fallback_reasons);
        assert!(si.incr_shared_hits > 0, "{retrigger:?}: no memo was shared: {si:?}");
        assert_eq!((ss.incr_hits, ss.incr_rebuilds, ss.incr_shared_hits), (0, 0, 0));
    }
}

/// Join sides are shared per (side template, window start): the four
/// `inserted t` joins below share one left side (`inserted t x`, no
/// pushdown) and differ in their right-side pushdowns (`y.b > 5`,
/// `y.b < 3`, `y.b = 1`, none) and in their residual pair predicates, one
/// of which divides by zero on a row with `a = b`. `pump` acts, so while
/// the others keep their windows its sides exist over a second window
/// start; `bumper` updates and `reaper` deletes window rows, so shared
/// sides repair from cursors other rules left. The two `updated t` joins
/// share their `old updated t o` side and read old images through it.
/// Under every retrigger semantics both evaluators must agree on every
/// outcome and error, every event (bar the evaluator's own kinds) and
/// every state image, and the side builds are pinned.
#[test]
fn join_sides_are_shared_and_invisible() {
    let join = |pred: &str| {
        format!("(select * from inserted t x, inserted t y where x.a = y.b and {pred})")
    };
    let rules: Vec<String> = vec![
        // Self-quenching: its restarted window holds only `(99, 1)`.
        format!(
            "create rule pump when inserted into t if exists {} \
             then insert into t values (99, 1, 0.0)",
            join("y.b = 1")
        ),
        format!(
            "create rule j_hi when inserted into t if exists {} \
             then insert into sink values (1, 1)",
            join("y.b > 5")
        ),
        format!(
            "create rule j_lo when inserted into t \
             if (select count(*) from inserted t x, inserted t y \
                 where x.a = y.b and y.b < 3) >= 2 \
             then insert into sink values (2, 1)"
        ),
        format!(
            "create rule j_div when inserted into t if exists {} \
             then insert into sink values (3, 1)",
            join("10 / (x.a - y.a) > 1")
        ),
        "create rule bumper when inserted into t \
         if exists (select * from inserted t where a = 60) \
         then update t set b = b + 1 where a = 60"
            .to_string(),
        "create rule reaper when inserted into t \
         if exists (select * from inserted t where b = 50) \
         then delete from t where b = 50"
            .to_string(),
        "create rule u_grow when updated t \
         if exists (select * from old updated t o, new updated t n \
                    where o.a = n.a and n.b > o.b + 1) \
         then insert into sink values (4, 1)"
            .to_string(),
        "create rule u_hit when updated t \
         if (select count(*) from old updated t o, new updated t n \
             where o.a = n.a and n.b = 61) >= 1 \
         then insert into sink values (5, 1)"
            .to_string(),
    ];
    let txns = [
        "insert into t values (1, 7, 0.0), (7, 1, 0.0), (2, 6, 0.0)",
        // `(5, 5)` pairs with itself: `10 / 0` in `j_div`'s pair probe.
        "insert into t values (5, 5, 0.0)",
        "insert into t values (8, 50, 0.0), (50, 8, 0.0); \
         insert into t values (6, 1, 0.0), (1, 9, 0.0)",
        // `bumper` turns `(60, 59)` into `(60, 60)`, a pair that divides
        // by zero once a window that still holds the insert re-probes it.
        "insert into t values (60, 59, 0.0), (3, 60, 0.0)",
        "update t set b = b + 5 where a = 2; update t set b = 61 where a = 7",
        "insert into t values (1, 1, 0.0)",
        "insert into t values (4, 2, 0.0), (2, 4, 0.0), (9, 2, 0.0)",
        "update t set b = b + 1 where a < 5; update t set b = 61 where a = 9",
    ];
    let mut builds = Vec::new();
    for retrigger in RETRIGGERS {
        let mut inc = build(true, retrigger, &rules);
        let mut scan = build(false, retrigger, &rules);
        assert_eq!(drain_trace(&mut inc), drain_trace(&mut scan), "{retrigger:?}: setup");
        let (mut errors, mut pair_fills) = (0, 0);
        for sql in txns {
            let (a, b) = (outcome(inc.transaction(sql)), outcome(scan.transaction(sql)));
            assert_eq!(a, b, "{retrigger:?}: outcome of `{sql}`");
            errors += usize::from(a.contains("integer division by zero"));
            // Every rule but `bumper` and `reaper` is one join term, so
            // its answered rebuilds are its pair memos' first fills.
            pair_fills += inc
                .recent_events()
                .iter()
                .filter(|e| {
                    matches!(e, EngineEvent::IncrementalEval { rule, mode, .. }
                        if mode == "rebuild" && rule != "bumper" && rule != "reaper")
                })
                .count() as u64;
            assert_eq!(
                drain_trace(&mut inc),
                drain_trace(&mut scan),
                "{retrigger:?}: trace of `{sql}`"
            );
            assert_eq!(
                inc.database().state_image(),
                scan.database().state_image(),
                "{retrigger:?}: state after `{sql}`"
            );
        }
        assert!(errors > 0, "{retrigger:?}: no pair probe divided by zero");
        let (si, ss) = (inc.stats(), scan.stats());
        assert_eq!(si.incr_fallbacks, 0, "{retrigger:?}: {:?}", si.incr_fallback_reasons);
        assert_eq!((ss.incr_hits, ss.incr_rebuilds, ss.incr_side_builds), (0, 0, 0));
        builds.push((si.incr_side_builds, pair_fills));
        let json = si.to_json().get("incr_side_builds").and_then(|v| v.as_i64());
        assert_eq!(json, Some(si.incr_side_builds as i64), "{retrigger:?}: stats JSON");
        assert_eq!(si.plus(si).since(si).incr_side_builds, si.incr_side_builds);
        // The last transaction's store is still live: both `updated t`
        // joins built their pair memos over one `old updated` side.
        let report = inc.incremental_report();
        assert_eq!(
            report.matches("join side [old updated t key a] from transition 0: ").count(),
            1,
            "{retrigger:?}: one shared side in the report:\n{report}"
        );
    }
    // (side builds, answered pair fills) per semantics. Unshared, every
    // answered pair fill would have built two sides of its own.
    assert_eq!(builds, [(40, 29), (40, 29), (41, 30)]);
}

/// The delta log starts at a transaction's first memo read. Here the
/// watchers are first considered only after a condition-free driver has
/// made four transitions (none of which is logged, since no cursor exists
/// yet): they rebuild then, and after the bumper's later transition they
/// repair from the logged suffix, `w2` from `w1`'s fold. `w1` stays false
/// and repairs once more after `w2` fires. Firings and states match
/// re-scan evaluation, and the counters are those of a log kept from the
/// transaction's start.
#[test]
fn watchers_first_considered_late_repair_from_the_log_they_opened() {
    let rules: Vec<String> = vec![
        "create rule driver when inserted into tick \
         then insert into tick (select k - 1 from inserted tick where k > 0)"
            .to_string(),
        "create rule w1 when updated t \
         if exists (select * from new updated t where b > 1000) \
         then insert into sink values (1, 1)"
            .to_string(),
        "create rule w2 when updated t \
         if exists (select * from new updated t where b > 450) \
         then insert into sink values (2, 1)"
            .to_string(),
        "create rule bumper when inserted into tick \
         then update t set b = b + 500 where a = 1"
            .to_string(),
        "create rule priority driver before w1".to_string(),
        "create rule priority driver before w2".to_string(),
        "create rule priority w1 before bumper".to_string(),
        "create rule priority w2 before bumper".to_string(),
        "create rule priority w1 before w2".to_string(),
    ];
    let txns = [
        "insert into t values (1, 1, 0.0), (2, 2, 0.0), (3, 3, 0.0)",
        "update t set b = b + 1; insert into tick values (3)",
    ];
    let (inc, scan) = run_pair(&rules, &txns);
    let sink = inc.query("select r from sink order by r").unwrap();
    assert_eq!(sink.rows, [[Value::Int(2)]], "only w2 fires after the bump");
    let (si, ss) = (inc.stats(), scan.stats());
    assert_eq!(
        (si.rules_considered, si.conditions_false),
        (ss.rules_considered, ss.conditions_false),
        "same schedule, same verdicts"
    );
    assert_eq!(
        (si.incr_rebuilds, si.incr_hits, si.incr_shared_hits, si.incr_delta_rows),
        (2, 3, 1, 8),
        "each watcher rebuilds once, then repairs; w2 shares w1's fold"
    );
    assert_eq!(si.incr_fallbacks, 0, "{:?}", si.incr_fallback_reasons);
    assert_eq!((ss.incr_hits, ss.incr_rebuilds, ss.incr_shared_hits), (0, 0, 0));
}

/// `selected` windows stay on the full evaluator — via a real
/// select-tracking system: the incremental engine must record the
/// `selected-window` fallback and still fire identically.
#[test]
fn selected_window_falls_back_identically() {
    let build_sel = |incremental: bool| {
        let mut sys = RuleSystem::with_config(EngineConfig {
            incremental: Some(incremental),
            track_selects: true,
            ..Default::default()
        });
        sys.execute("create table t (a int, b int, f float)").unwrap();
        sys.execute("create table audit (r int)").unwrap();
        sys.execute(
            "create rule watch_reads when selected t \
             if exists (select * from selected t where a > 1) \
             then insert into audit values (1)",
        )
        .unwrap();
        sys.execute("insert into t values (1, 1, 0.0), (2, 2, 0.0)").unwrap();
        sys
    };
    let mut inc = build_sel(true);
    let mut scan = build_sel(false);
    for sql in ["select a from t where a = 1", "select * from t where a = 2"] {
        let a = inc.transaction(sql).unwrap();
        let b = scan.transaction(sql).unwrap();
        assert_eq!(a.fired(), b.fired(), "selected-window firings for `{sql}`");
    }
    assert_eq!(
        inc.database().state_image(),
        scan.database().state_image(),
        "selected-window rule diverged"
    );
    assert!(
        inc.stats().incr_fallback_reasons.get("selected-window").copied().unwrap_or(0) > 0,
        "fallback must be recorded under selected-window: {:?}",
        inc.stats().incr_fallback_reasons
    );
}

/// The report-level fallback vocabulary: every `FallbackReason` reachable
/// through a creatable rule shows up in `incremental_report` as
/// `full re-scan [label] (reason)`. (`unlicensed` is unreachable here by
/// construction — rule creation rejects conditions referencing
/// unlicensed transition tables — and is pinned by the query-crate unit
/// taxonomy instead.)
#[test]
fn report_prints_fallback_label_vocabulary() {
    let mut sys = RuleSystem::with_config(EngineConfig {
        incremental: Some(true),
        ..Default::default()
    });
    sys.execute("create table t (a int, b int, f float)").unwrap();
    sys.execute("create table sink (r int, v int)").unwrap();
    let cases: &[(&str, &str)] = &[
        ("when inserted into t if a > 1", "shape"),
        ("when inserted into t if exists (select * from sink)", "stored-table"),
        (
            "when updated t if exists (select * from old updated t o, new updated t n \
             where o.a < n.a)",
            "join-shape",
        ),
        ("when selected t if exists (select * from selected t)", "selected-window"),
        (
            "when inserted into t if exists (select * from inserted t order by a)",
            "subquery-shape",
        ),
        ("when inserted into t if exists (select a / b from inserted t)", "projection"),
        (
            "when inserted into t if exists (select * from inserted t \
             where a > (select count(*) from sink))",
            "predicate",
        ),
        (
            "when inserted into t if (select count(*) from inserted t) = 'three'",
            "agg-comparison",
        ),
        ("when inserted into t if (select sum(f) from inserted t) > 0", "float-accumulator"),
        ("when inserted into t if (select count(a) from inserted t) > 0", "agg-argument"),
        (
            "when inserted into t if (select sum(nosuch) from inserted t) > 0",
            "unknown-reference",
        ),
    ];
    for (i, (shape, _)) in cases.iter().enumerate() {
        sys.execute(&format!("create rule v{i} {shape} then insert into sink values ({i}, 1)"))
            .unwrap();
    }
    // One incrementalizable control, so the report shows both renderings.
    sys.execute(
        "create rule ok when inserted into t \
         if (select min(a) from inserted t) < 3 then insert into sink values (99, 1)",
    )
    .unwrap();
    let report = sys.incremental_report();
    for (i, (shape, label)) in cases.iter().enumerate() {
        assert!(
            report.contains(&format!("[{label}]")),
            "rule v{i} ({shape}) must report label [{label}]; report:\n{report}"
        );
    }
    assert!(report.contains("incremental (1 term)"), "control rule must plan:\n{report}");
    assert!(report.contains("ordered multiset"), "memo kind must print:\n{report}");
}

// ----------------------------------------------------------------------
// Fault sweep over the new memo-invalidation sites.
// ----------------------------------------------------------------------

struct Scenario {
    name: &'static str,
    rule: &'static str,
    seed: &'static [&'static str],
    workload: &'static [&'static str],
}

/// Examples 3.1 and 4.1 with conditions attached so the incremental
/// machinery is live while faults fly. (The paper's originals are
/// unconditional; `exists (…)` over the licensed view keeps semantics
/// identical.)
const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "example_3_1",
        rule: "create rule r31 when deleted from dept \
               if exists (select * from deleted dept) \
               then delete from emp where dept_no in (select dept_no from deleted dept)",
        seed: &[
            "insert into dept values (1, 10), (2, 20)",
            "insert into emp values ('a', 1, 10.0, 1), ('b', 2, 10.0, 1), ('c', 3, 10.0, 2)",
        ],
        workload: &[
            "delete from dept where dept_no = 1",
            "insert into dept values (3, 30)",
            "delete from dept where dept_no = 2",
        ],
    },
    Scenario {
        name: "example_4_1",
        rule: "create rule r41 when deleted from emp \
               if exists (select * from deleted emp) \
               then delete from emp where dept_no in \
                      (select dept_no from dept where mgr_no in \
                        (select emp_no from deleted emp)); \
                    delete from dept where mgr_no in \
                      (select emp_no from deleted emp)",
        seed: &[
            "insert into dept values (1, 1), (2, 2)",
            "insert into emp values ('r', 1, 1.0, 0), ('m1', 2, 1.0, 1), \
             ('m2', 3, 1.0, 1), ('w1', 4, 1.0, 2), ('w2', 5, 1.0, 2)",
        ],
        workload: &["delete from emp where name = 'r'", "insert into emp values ('x', 9, 1.0, 9)"],
    },
    // Example 3.1 again, with the condition rephrased as a two-view
    // equality self-join (true exactly when the window is non-empty:
    // every deleted dept pairs with itself on dept_no) — the fault sweep
    // now crosses the join-memory repair path.
    Scenario {
        name: "example_3_1_join_memo",
        rule: "create rule r31j when deleted from dept \
               if exists (select * from deleted dept x, deleted dept y \
                          where x.dept_no = y.dept_no) \
               then delete from emp where dept_no in (select dept_no from deleted dept)",
        seed: &[
            "insert into dept values (1, 10), (2, 20)",
            "insert into emp values ('a', 1, 10.0, 1), ('b', 2, 10.0, 1), ('c', 3, 10.0, 2)",
        ],
        workload: &[
            "delete from dept where dept_no = 1",
            "insert into dept values (3, 30)",
            "delete from dept where dept_no = 2",
        ],
    },
    // Example 4.1 with an accumulator condition (`min` over the deleted
    // window: true exactly when non-empty, since every emp_no >= 1) — the
    // sweep crosses the ordered-multiset repair path, and an abort
    // mid-repair must rebuild rather than trust a half-patched multiset.
    Scenario {
        name: "example_4_1_acc_memo",
        rule: "create rule r41a when deleted from emp \
               if (select min(emp_no) from deleted emp) >= 1 \
               then delete from emp where dept_no in \
                      (select dept_no from dept where mgr_no in \
                        (select emp_no from deleted emp)); \
                    delete from dept where mgr_no in \
                      (select emp_no from deleted emp)",
        seed: &[
            "insert into dept values (1, 1), (2, 2)",
            "insert into emp values ('r', 1, 1.0, 0), ('m1', 2, 1.0, 1), \
             ('m2', 3, 1.0, 1), ('w1', 4, 1.0, 2), ('w2', 5, 1.0, 2)",
        ],
        workload: &["delete from emp where name = 'r'", "insert into emp values ('x', 9, 1.0, 9)"],
    },
];

fn fresh(scenario: &Scenario, incremental: bool) -> RuleSystem {
    let mut sys = RuleSystem::with_config(EngineConfig {
        incremental: Some(incremental),
        ..Default::default()
    });
    sys.execute("create table emp (name text, emp_no int, salary float, dept_no int)").unwrap();
    sys.execute("create table dept (dept_no int, mgr_no int)").unwrap();
    sys.execute(scenario.rule).unwrap();
    for s in scenario.seed {
        sys.execute(s).unwrap();
    }
    sys.fault_injector_mut().reset_counts();
    sys
}

fn is_fault(e: &RuleError, kind: FaultKind, n: u64) -> bool {
    let se = match e {
        RuleError::Storage(se) => se,
        RuleError::Query(QueryError::Storage(se)) => se,
        _ => return false,
    };
    matches!(se, StorageError::FaultInjected { kind: k, op } if *k == kind && *op == n)
}

/// Fail every reachable storage site in the Example 3.1/4.1 workloads
/// with incremental evaluation on: the abort must restore the exact
/// pre-statement state, the memo must not survive stale (the disarmed
/// re-run matches a never-faulted incremental run and a re-scan run),
/// and both evaluators must fault identically.
#[test]
fn fault_sweep_invalidates_memos_on_abort() {
    for scenario in SCENARIOS {
        // Discovery: fault-free incremental run, counting sites and
        // recording the expected final image.
        let mut probe = fresh(scenario, true);
        for stmt in scenario.workload {
            assert!(
                probe.transaction(stmt).unwrap().committed(),
                "{}: fault-free run must commit",
                scenario.name
            );
        }
        assert!(
            probe.stats().incr_hits + probe.stats().incr_rebuilds > 0,
            "{}: scenario must exercise the incremental path",
            scenario.name
        );
        let golden = probe.database().state_image();
        let totals: Vec<(FaultKind, u64)> = FaultKind::ALL
            .iter()
            .map(|&k| (k, probe.fault_injector().count(k)))
            .filter(|&(_, c)| c > 0)
            .collect();

        let mut swept = 0u64;
        for &(kind, total) in &totals {
            for n in 1..=total {
                let mut inc = fresh(scenario, true);
                let mut scan = fresh(scenario, false);
                inc.fault_injector_mut().arm(kind, n);
                scan.fault_injector_mut().arm(kind, n);
                let ctx = format!("[{} kind={kind} n={n}]", scenario.name);

                let mut faulted_at = None;
                for (i, stmt) in scenario.workload.iter().enumerate() {
                    let before = inc.database().state_image();
                    let a = inc.transaction(stmt);
                    let b = scan.transaction(stmt);
                    match (&a, &b) {
                        (Ok(x), Ok(y)) => {
                            assert_eq!(x.fired(), y.fired(), "{ctx} stmt {i}")
                        }
                        (Err(ea), Err(eb)) => {
                            assert!(is_fault(ea, kind, n), "{ctx} stmt {i}: {ea}");
                            assert_eq!(ea.to_string(), eb.to_string(), "{ctx} stmt {i}");
                            assert_eq!(
                                inc.database().state_image(),
                                before,
                                "{ctx} stmt {i}: abort left residue"
                            );
                            faulted_at = Some(i);
                        }
                        _ => panic!("{ctx} stmt {i}: evaluators disagree: {a:?} vs {b:?}"),
                    }
                    assert_eq!(
                        inc.database().state_image(),
                        scan.database().state_image(),
                        "{ctx} stmt {i}: evaluators diverged"
                    );
                    if faulted_at.is_some() {
                        break;
                    }
                }
                let i = faulted_at
                    .unwrap_or_else(|| panic!("{ctx}: armed site was never reached"));

                // Recovery: disarm and resume from the aborted statement.
                // A stale memo would surface here as a wrong firing
                // decision or a diverged image.
                inc.fault_injector_mut().disarm();
                scan.fault_injector_mut().disarm();
                let replay = |sys: &mut RuleSystem| {
                    for stmt in &scenario.workload[i..] {
                        sys.transaction(stmt).unwrap();
                    }
                };
                replay(&mut inc);
                replay(&mut scan);
                assert_eq!(
                    inc.database().state_image(),
                    scan.database().state_image(),
                    "{ctx}: post-recovery divergence"
                );
                assert_eq!(
                    inc.database().state_image(),
                    golden,
                    "{ctx}: recovery did not converge to the fault-free image"
                );
                swept += 1;
            }
        }
        assert!(swept > 0, "{}: no sites swept", scenario.name);
    }
}
