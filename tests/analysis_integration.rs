//! Static analysis (§6) run against the paper's own rule sets: the
//! analyzer must flag exactly the behaviours the examples exhibit.

use setrules_analysis::{analyze, ActionEvent, ConflictKind, TriggerGraph};
use setrules_core::{EngineConfig, RetriggerSemantics, RuleSystem, TxnOutcome};
use setrules_testkit::{check, Rng};

fn paper_db() -> RuleSystem {
    let mut sys = RuleSystem::new();
    sys.execute("create table emp (name text, emp_no int, salary float, dept_no int)").unwrap();
    sys.execute("create table dept (dept_no int, mgr_no int)").unwrap();
    sys
}

/// Example 4.1's rule is recursive by design — the analyzer must warn
/// about the (intentional) self-loop.
#[test]
fn example_4_1_flagged_as_self_triggering() {
    let mut sys = paper_db();
    sys.execute(
        "create rule r41 when deleted from emp \
         then delete from emp where dept_no in \
                (select dept_no from dept where mgr_no in (select emp_no from deleted emp)); \
              delete from dept where mgr_no in (select emp_no from deleted emp)",
    )
    .unwrap();
    let report = analyze(&sys);
    assert_eq!(report.loops.len(), 1);
    assert_eq!(report.loops[0].rules, vec!["r41"]);
}

/// Example 3.2's rule updates the very column it watches: self-loop
/// warning (the paper's footnote 7 scenario — it terminates only because
/// the condition eventually fails, which static analysis cannot know).
#[test]
fn example_3_2_flagged_as_potential_loop() {
    let mut sys = paper_db();
    sys.execute(
        "create rule r32 when updated emp.salary \
         if (select sum(salary) from new updated emp.salary) > \
            (select sum(salary) from old updated emp.salary) \
         then update emp set salary = 0.95 * salary where dept_no = 2",
    )
    .unwrap();
    let report = analyze(&sys);
    assert_eq!(report.loops.len(), 1);
}

/// Example 3.1's cascade is acyclic (dept-delete → emp-delete, and
/// nothing watches emp): no loop warning.
#[test]
fn example_3_1_is_loop_free() {
    let mut sys = paper_db();
    sys.execute(
        "create rule r31 when deleted from dept \
         then delete from emp where dept_no in (select dept_no from deleted dept)",
    )
    .unwrap();
    let report = analyze(&sys);
    assert!(report.loops.is_empty(), "{report}");
}

/// Example 4.3's R1/R2 pair: before the paper adds the priority, the pair
/// is unordered and interferes on `emp` — exactly the situation §6 wants
/// flagged; declaring the priority clears it.
#[test]
fn example_4_3_conflict_cleared_by_priority() {
    let mut sys = paper_db();
    sys.execute(
        "create rule r1 when deleted from emp \
         then delete from emp where dept_no in \
                (select dept_no from dept where mgr_no in (select emp_no from deleted emp)); \
              delete from dept where mgr_no in (select emp_no from deleted emp)",
    )
    .unwrap();
    sys.execute(
        "create rule r2 when updated emp.salary \
         if (select avg(salary) from new updated emp.salary) > 50000 \
         then delete from emp where emp_no in (select emp_no from new updated emp.salary) \
              and salary > 80000",
    )
    .unwrap();
    let report = analyze(&sys);
    assert!(
        report
            .conflicts
            .iter()
            .any(|c| c.kind == ConflictKind::WriteWrite && c.tables.contains(&"emp".to_string())),
        "{report}"
    );

    sys.execute("create rule priority r2 before r1").unwrap();
    let report = analyze(&sys);
    assert!(report.conflicts.is_empty(), "{report}");
    // R1 still self-loops (by design) and R2's delete feeds R1.
    let g = TriggerGraph::build(&sys);
    let (r1, r2) = (sys.rule("r1").unwrap().id, sys.rule("r2").unwrap().id);
    assert!(g.triggers(r2, r1), "R2's emp-delete can trigger R1");
    assert!(!g.triggers(r1, r2), "R1 never updates salaries");
}

/// The analyzer and the runtime guard agree: a rule set the analyzer calls
/// a potential loop actually trips the footnote-7 limit when the data
/// diverges.
#[test]
fn analyzer_warning_matches_runtime_divergence() {
    let mut sys = RuleSystem::with_config(setrules_core::EngineConfig {
        max_rule_transitions: 10,
        ..Default::default()
    });
    sys.execute("create table t (v int)").unwrap();
    sys.execute("create rule up when updated t.v then update t set v = v + 1").unwrap();
    assert_eq!(analyze(&sys).loops.len(), 1, "flagged statically");
    sys.execute("insert into t values (0)").unwrap();
    let err = sys.transaction("update t set v = 1").unwrap_err();
    assert!(matches!(err, setrules_core::RuleError::LoopLimitExceeded { .. }));
}

/// Deactivated rules still analyze (they may be reactivated); dropped
/// rules vanish from the analysis.
#[test]
fn dropped_rules_leave_the_graph() {
    let mut sys = paper_db();
    sys.execute("create rule loopy when updated emp.salary then update emp set salary = salary").unwrap();
    assert_eq!(analyze(&sys).loops.len(), 1);
    sys.execute("drop rule loopy").unwrap();
    assert!(analyze(&sys).is_clean());
}

/// With selects tracked, only a top-level select's stored `from` items
/// leave `S` entries: a select over a transition table (its rows carry
/// no origin) or a subquery read triggers no `selected` rule, so neither
/// is an edge.
#[test]
fn selected_edges_come_only_from_top_level_stored_reads() {
    let config = EngineConfig { track_selects: true, ..Default::default() };
    let mut sys = RuleSystem::with_config(config);
    for t in ["t", "u", "log"] {
        sys.execute(&format!("create table {t} (k int)")).unwrap();
    }
    sys.execute("insert into u values (1)").unwrap();
    sys.execute("create rule watch_t when selected t then insert into log values (1)").unwrap();
    sys.execute("create rule watch_u when selected u then insert into log values (2)").unwrap();
    sys.execute("create rule from_inserted when inserted into t then select * from inserted t")
        .unwrap();
    sys.execute(
        "create rule from_subquery when inserted into t \
         then select * from log where k in (select k from u)",
    )
    .unwrap();
    let g = TriggerGraph::build(&sys);
    let id = |sys: &RuleSystem, n: &str| sys.rule(n).unwrap().id;
    let (watch_t, watch_u) = (id(&sys, "watch_t"), id(&sys, "watch_u"));
    assert!(!g.triggers(id(&sys, "from_inserted"), watch_t), "transition rows have no origin");
    assert!(!g.triggers(id(&sys, "from_subquery"), watch_u), "subquery reads are not traced");

    // Execution agrees: both actions run and neither watcher fires.
    let out = sys.transaction("insert into t values (1)").unwrap();
    let fired: Vec<&str> = out.fired().iter().map(|f| f.rule.as_str()).collect();
    assert!(fired.contains(&"from_inserted") && fired.contains(&"from_subquery"), "{fired:?}");
    assert!(!fired.iter().any(|r| r.starts_with("watch")), "{fired:?}");

    // The control: a top-level read of `u` is an edge, and fires.
    sys.execute("create rule control when inserted into t then select * from u").unwrap();
    assert!(TriggerGraph::build(&sys).triggers(id(&sys, "control"), watch_u));
    let out = sys.transaction("insert into t values (2)").unwrap();
    assert!(out.fired().iter().any(|f| f.rule == "watch_u"), "{:?}", out.fired());
}

// ----------------------------------------------------------------------
// Soundness of the analyser against execution.
// ----------------------------------------------------------------------

const TABLES: [&str; 2] = ["p", "q"];
const COLUMNS: [&str; 2] = ["a", "b"];

/// A basic transition predicate and the transition table it licenses.
fn gen_pred(rng: &mut Rng) -> (String, String) {
    let (t, c) = (*rng.pick(&TABLES), *rng.pick(&COLUMNS));
    match rng.below(6) {
        0 => (format!("inserted into {t}"), format!("inserted {t}")),
        1 => (format!("deleted from {t}"), format!("deleted {t}")),
        2 => (format!("updated {t}"), format!("new updated {t}")),
        3 => (format!("updated {t}.{c}"), format!("old updated {t}.{c}")),
        4 => (format!("selected {t}"), format!("selected {t}")),
        _ => (format!("selected {t}.{c}"), format!("selected {t}.{c}")),
    }
}

/// One action operation over the stored tables and the rule's licensed
/// transition tables `lic`.
fn gen_op(rng: &mut Rng, lic: &[String]) -> String {
    let (t, c) = (*rng.pick(&TABLES), *rng.pick(&COLUMNS));
    let k = rng.range_i64(0, 40);
    let source =
        if rng.chance(1, 2) { rng.pick_cloned(lic) } else { rng.pick(&TABLES).to_string() };
    match rng.below(7) {
        0 => format!("insert into {t} values ({k}, {})", rng.range_i64(0, 40)),
        1 => format!("insert into {t} (select a + 1, b from {source} where a < 50)"),
        2 => format!("delete from {t} where a > {k}"),
        3 => format!("update {t} set {c} = {c} + 1 where a < {k}"),
        4 => format!("select * from {source}"),
        5 => format!("select a from {t} where b in (select b from {})", rng.pick(&TABLES)),
        _ => format!("select {c} from {t} where a < {k}"),
    }
}

fn gen_rule(rng: &mut Rng, i: usize) -> String {
    let (preds, lic): (Vec<String>, Vec<String>) =
        (0..1 + rng.below(2)).map(|_| gen_pred(rng)).unzip();
    let condition = match rng.below(4) {
        0 => String::new(),
        1 => {
            let (t, k) = (rng.pick(&TABLES), rng.below(40));
            format!(" if exists (select * from {t} where a > {k})")
        }
        2 => format!(" if exists (select * from {})", rng.pick_cloned(&lic)),
        _ => format!(" if (select count(*) from {}) < {}", rng.pick(&TABLES), 2 + rng.below(20)),
    };
    let action = if rng.chance(1, 10) {
        "rollback".to_string()
    } else {
        (0..1 + rng.below(2)).map(|_| gen_op(rng, &lic)).collect::<Vec<_>>().join("; ")
    };
    format!("create rule r{i} when {}{condition} then {action}", preds.join(" or "))
}

/// One external statement and the event it may produce, worked out here
/// from the template rather than by the analyser under test.
fn gen_external(rng: &mut Rng, db: &setrules_storage::Database) -> (String, ActionEvent) {
    let (t, c) = (*rng.pick(&TABLES), *rng.pick(&COLUMNS));
    let (tid, k) = (db.table_id(t).unwrap(), rng.range_i64(0, 40));
    let cid = db.schema(tid).column_id(c).unwrap();
    match rng.below(4) {
        0 => (format!("insert into {t} values ({k}, {k})"), ActionEvent::Insert(tid)),
        1 => (format!("delete from {t} where a > {k}"), ActionEvent::Delete(tid)),
        2 => (format!("update {t} set {c} = {k} where b < {k}"), ActionEvent::Update(tid, cid)),
        _ => (format!("select * from {t} where a < {k}"), ActionEvent::Select(tid)),
    }
}

/// Random two-table programs run with selects tracked, under every
/// retrigger semantics. Over each transaction's firing trace (and the
/// rule that rolled it back, if one did):
/// - a rule that fired was triggered by the external statements' events,
///   or the triggering graph has an edge to it from a rule that fired
///   earlier in the transaction — a missed edge would make a §6 loop
///   warning unsound;
/// - a firing that inserted, deleted or updated tuples has an event of
///   that kind in its rule's footprint.
#[test]
fn analysis_is_sound_against_execution() {
    let (mut checked, mut firings) = (0, 0);
    check("analysis_is_sound_against_execution", 300, 0xa7a1_5150, |rng| {
        let retrigger = *rng.pick(&[
            RetriggerSemantics::SinceLastAction,
            RetriggerSemantics::SinceLastConsidered,
            RetriggerSemantics::SinceLastTriggering,
        ]);
        let mut sys = RuleSystem::with_config(EngineConfig {
            track_selects: true,
            max_rule_transitions: 12,
            retrigger,
            ..Default::default()
        });
        for t in TABLES {
            sys.execute(&format!("create table {t} (a int, b int)")).unwrap();
            sys.execute(&format!("insert into {t} values (1, 2), (5, 10), (20, 30)")).unwrap();
        }
        let rules: Vec<String> = (0..2 + rng.below(4)).map(|i| gen_rule(rng, i)).collect();
        for r in &rules {
            sys.execute(r).unwrap_or_else(|e| panic!("{r}: {e}"));
        }
        let graph = TriggerGraph::build(&sys);
        for _ in 0..3 {
            let (stmts, external): (Vec<String>, Vec<ActionEvent>) =
                (0..1 + rng.below(3)).map(|_| gen_external(rng, sys.database())).unzip();
            let Ok(outcome) = sys.transaction(&stmts.join("; ")) else { continue };
            checked += 1;
            let mut names: Vec<&str> = outcome.fired().iter().map(|f| f.rule.as_str()).collect();
            if let TxnOutcome::RolledBack { by_rule, .. } = &outcome {
                names.push(by_rule);
            }
            for (i, name) in names.iter().enumerate() {
                let rule = sys.rule(name).unwrap();
                let external_hit =
                    external.iter().any(|e| rule.when.iter().any(|p| e.satisfies(p)));
                let id = |n: &str| sys.rule(n).unwrap().id;
                let edge = names[..i].iter().any(|a| graph.triggers(id(a), rule.id));
                assert!(
                    external_hit || edge,
                    "{name} fired with no external event and no edge from {:?}\n\
                     rules: {rules:#?}\ntransaction: {stmts:?}",
                    &names[..i]
                );
            }
            for f in outcome.fired() {
                firings += 1;
                let fp = &graph.footprints[&sys.rule(&f.rule).unwrap().id];
                let has = |want: fn(&ActionEvent) -> bool| fp.opaque || fp.writes.iter().any(want);
                let checks = [
                    (f.inserted, has(|e| matches!(e, ActionEvent::Insert(_))), "insert"),
                    (f.deleted, has(|e| matches!(e, ActionEvent::Delete(_))), "delete"),
                    (f.updated, has(|e| matches!(e, ActionEvent::Update(..))), "update"),
                ];
                for (n, covered, kind) in checks {
                    assert!(n == 0 || covered, "{f:?} has no {kind} in {fp:?}\nrules: {rules:#?}");
                }
            }
        }
    });
    // The property must see real work, not a stream of aborted runs.
    assert!(checked >= 600 && firings >= 300, "{checked} transactions, {firings} firings");
}
