//! Engine-level tests of the paper's execution semantics: §2.2 net
//! effects, transition-table contents, consideration rounds, retriggering
//! windows (§4.2 + footnote 8), and the footnote-7 divergence guard.

use setrules_core::{EngineConfig, RetriggerSemantics, RuleError, RuleSystem, SelectionStrategy};
use setrules_storage::Value;

fn sys_with_log() -> RuleSystem {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int, v int)").unwrap();
    sys.execute("create table log (tag text, n int)").unwrap();
    sys
}

fn log_rows(sys: &RuleSystem) -> Vec<(String, i64)> {
    sys.query("select tag, n from log order by n, tag")
        .unwrap()
        .rows
        .into_iter()
        .map(|r| (r[0].as_str().unwrap().to_string(), r[1].as_i64().unwrap()))
        .collect()
}

// ----------------------------------------------------------------------
// §2.2 net effects, observed through rule triggering
// ----------------------------------------------------------------------

/// "an insertion followed by a deletion is not considered at all": a rule
/// watching inserts must not trigger when the block deletes the tuple
/// again.
#[test]
fn net_effect_insert_then_delete_triggers_nothing() {
    let mut sys = sys_with_log();
    sys.execute(
        "create rule on_ins when inserted into t \
         then insert into log values ('ins', 1)",
    )
    .unwrap();
    sys.execute(
        "create rule on_del when deleted from t \
         then insert into log values ('del', 1)",
    )
    .unwrap();
    let out = sys
        .transaction("insert into t values (1, 1); delete from t where k = 1")
        .unwrap();
    assert!(out.fired().is_empty(), "no net change, no rule fires");
    assert!(log_rows(&sys).is_empty());
}

/// "an insertion followed by an update is considered as an insertion of
/// the updated tuple": the update rule stays silent, and `inserted t`
/// shows the post-update values.
#[test]
fn net_effect_insert_then_update_is_insert_of_updated_tuple() {
    let mut sys = sys_with_log();
    sys.execute(
        "create rule on_upd when updated t.v \
         then insert into log values ('upd', 1)",
    )
    .unwrap();
    sys.execute(
        "create rule on_ins when inserted into t \
         then insert into log (select 'ins', v from inserted t)",
    )
    .unwrap();
    let out = sys
        .transaction("insert into t values (1, 10); update t set v = 99 where k = 1")
        .unwrap();
    let rules: Vec<&str> = out.fired().iter().map(|f| f.rule.as_str()).collect();
    assert_eq!(rules, vec!["on_ins"], "only the insert rule fires");
    assert_eq!(log_rows(&sys), vec![("ins".to_string(), 99)], "inserted t carries current values");
}

/// "if a tuple is updated by several operations and then deleted, we
/// consider only the deletion" — and `deleted t` shows the value from the
/// start of the transition, not the intermediate update.
#[test]
fn net_effect_update_then_delete_is_delete_with_window_start_value() {
    let mut sys = sys_with_log();
    sys.execute("insert into t values (1, 10)").unwrap();
    sys.execute(
        "create rule on_upd when updated t.v then insert into log values ('upd', 1)",
    )
    .unwrap();
    sys.execute(
        "create rule on_del when deleted from t \
         then insert into log (select 'del', v from deleted t)",
    )
    .unwrap();
    let out = sys
        .transaction(
            "update t set v = 20 where k = 1; update t set v = 30 where k = 1; \
             delete from t where k = 1",
        )
        .unwrap();
    let rules: Vec<&str> = out.fired().iter().map(|f| f.rule.as_str()).collect();
    assert_eq!(rules, vec!["on_del"]);
    assert_eq!(
        log_rows(&sys),
        vec![("del".to_string(), 10)],
        "deleted t shows the pre-transition value 10, not 20 or 30"
    );
}

/// "we never consider deletion of a tuple followed by insertion of a new
/// tuple as an update to the original tuple": delete and insert rules
/// fire, the update rule does not.
#[test]
fn net_effect_delete_then_insert_is_not_update() {
    let mut sys = sys_with_log();
    sys.execute("insert into t values (1, 10)").unwrap();
    sys.execute("create rule on_upd when updated t then insert into log values ('upd', 1)").unwrap();
    sys.execute("create rule on_del when deleted from t then insert into log values ('del', 1)").unwrap();
    sys.execute("create rule on_ins when inserted into t then insert into log values ('ins', 1)").unwrap();
    let out = sys
        .transaction("delete from t where k = 1; insert into t values (1, 10)")
        .unwrap();
    let mut rules: Vec<&str> = out.fired().iter().map(|f| f.rule.as_str()).collect();
    rules.sort_unstable();
    assert_eq!(rules, vec!["on_del", "on_ins"]);
}

/// Multiple updates to one tuple collapse into a single update whose old
/// value is the window start and whose new value is current.
#[test]
fn net_effect_multiple_updates_collapse() {
    let mut sys = sys_with_log();
    sys.execute("insert into t values (1, 10)").unwrap();
    sys.execute(
        "create rule on_upd when updated t.v \
         then insert into log (select 'old', v from old updated t.v); \
              insert into log (select 'new', v from new updated t.v)",
    )
    .unwrap();
    sys.transaction("update t set v = 20 where k = 1; update t set v = 30 where k = 1")
        .unwrap();
    assert_eq!(
        log_rows(&sys),
        vec![("old".to_string(), 10), ("new".to_string(), 30)]
    );
}

/// Column-granular `updated t.c` predicates: updating only `k` must not
/// trigger a rule watching `t.v`.
#[test]
fn column_granular_update_predicates() {
    let mut sys = sys_with_log();
    sys.execute("insert into t values (1, 10)").unwrap();
    sys.execute("create rule on_v when updated t.v then insert into log values ('v', 1)").unwrap();
    sys.execute("create rule on_any when updated t then insert into log values ('any', 1)").unwrap();
    let out = sys.transaction("update t set k = 2 where k = 1").unwrap();
    let rules: Vec<&str> = out.fired().iter().map(|f| f.rule.as_str()).collect();
    assert_eq!(rules, vec!["on_any"], "only the whole-table predicate matches");
}

/// `old updated t.c` / `new updated t.c` are restricted to tuples where
/// *that column* changed.
#[test]
fn column_specific_transition_tables_filter_rows() {
    let mut sys = sys_with_log();
    sys.execute("insert into t values (1, 10), (2, 20)").unwrap();
    sys.execute(
        "create rule on_v when updated t.v \
         then insert into log (select 'n', v from new updated t.v)",
    )
    .unwrap();
    // Update v of tuple 1 but only k of tuple 2.
    sys.transaction("update t set v = 11 where k = 1; update t set k = 3 where k = 2")
        .unwrap();
    assert_eq!(log_rows(&sys), vec![("n".to_string(), 11)], "tuple 2 is not in new updated t.v");
}

// ----------------------------------------------------------------------
// Consideration rounds and windows (§4.2)
// ----------------------------------------------------------------------

/// A rule whose condition was false is reconsidered after another rule's
/// transition (§4.2: "a rule that was triggered in S1 but whose condition
/// was found to be false may be reconsidered in S2").
#[test]
fn false_condition_rule_reconsidered_after_new_transition() {
    let mut sys = sys_with_log();
    // `late` needs at least 1 row in log; `early` inserts one.
    sys.execute(
        "create rule late when inserted into t \
         if (select count(*) from log) >= 1 \
         then insert into log values ('late', 2)",
    )
    .unwrap();
    sys.execute(
        "create rule early when inserted into t \
         then insert into log values ('early', 1)",
    )
    .unwrap();
    // Make `late` be considered first so its condition fails once.
    sys.execute("create rule priority late before early").unwrap();
    let out = sys.transaction("insert into t values (1, 1)").unwrap();
    let rules: Vec<&str> = out.fired().iter().map(|f| f.rule.as_str()).collect();
    assert_eq!(rules, vec!["early", "late"], "late fails, early fires, late reconsidered");
}

/// A rule untriggered by the external transition can become triggered by
/// a later rule-generated transition (the `Rk` case of §4.2).
#[test]
fn rule_triggered_by_rule_generated_transition() {
    let mut sys = sys_with_log();
    sys.execute("create table sink (n int)").unwrap();
    sys.execute(
        "create rule chain1 when inserted into t \
         then insert into log values ('one', 1)",
    )
    .unwrap();
    sys.execute(
        "create rule chain2 when inserted into log \
         then insert into sink values (2)",
    )
    .unwrap();
    let out = sys.transaction("insert into t values (1, 1)").unwrap();
    let rules: Vec<&str> = out.fired().iter().map(|f| f.rule.as_str()).collect();
    assert_eq!(rules, vec!["chain1", "chain2"]);
    assert_eq!(
        sys.query("select count(*) from sink").unwrap().scalar().unwrap(),
        &Value::Int(1)
    );
}

// ----------------------------------------------------------------------
// Footnote 7: divergence guard
// ----------------------------------------------------------------------

/// A rule that always re-triggers itself trips the transition limit and
/// the transaction rolls back.
#[test]
fn loop_limit_rolls_back() {
    let mut sys = RuleSystem::with_config(EngineConfig {
        max_rule_transitions: 25,
        ..EngineConfig::default()
    });
    sys.execute("create table t (k int, v int)").unwrap();
    sys.execute("insert into t values (1, 0)").unwrap();
    sys.execute(
        "create rule diverge when updated t.v then update t set v = v + 1",
    )
    .unwrap();
    let err = sys.transaction("update t set v = 1").unwrap_err();
    assert_eq!(err, RuleError::LoopLimitExceeded { limit: 25 });
    // Rolled back to the pre-transaction state.
    let v = sys.query("select v from t").unwrap().rows[0][0].clone();
    assert_eq!(v, Value::Int(0));
    assert!(!sys.in_transaction());
    // The system remains usable.
    sys.execute("drop rule diverge").unwrap();
    sys.execute("update t set v = 7").unwrap();
    assert_eq!(sys.query("select v from t").unwrap().rows[0][0], Value::Int(7));
}

// ----------------------------------------------------------------------
// Footnote 8: alternative retriggering semantics
// ----------------------------------------------------------------------

/// Scenario distinguishing the paper's default from `SinceLastConsidered`:
/// a rule is considered (condition false); a later transition alone does
/// not satisfy its condition, but the composite does. Default semantics
/// fire it; `SinceLastConsidered` resets its window at consideration, so
/// it never fires.
#[test]
fn retrigger_since_last_considered_resets_window() {
    let run = |retrigger: RetriggerSemantics| -> usize {
        let mut sys = RuleSystem::with_config(EngineConfig {
            retrigger,
            strategy: SelectionStrategy::PartialOrder,
            ..EngineConfig::default()
        });
        sys.execute("create table t (k int, v int)").unwrap();
        sys.execute("create table log (tag text, n int)").unwrap();
        // Watcher: needs ≥ 2 inserted t-rows in its window.
        sys.execute(
            "create rule watcher when inserted into t \
             if (select count(*) from inserted t) >= 2 \
             then insert into log values ('fired', 0)",
        )
        .unwrap();
        // Helper inserts one more t-row (once).
        sys.execute(
            "create rule helper when inserted into t \
             if (select count(*) from t) < 2 \
             then insert into t values (2, 0)",
        )
        .unwrap();
        // watcher considered first.
        sys.execute("create rule priority watcher before helper").unwrap();
        let out = sys.transaction("insert into t values (1, 0)").unwrap();
        out.fired().iter().filter(|f| f.rule == "watcher").count()
    };
    assert_eq!(run(RetriggerSemantics::SinceLastAction), 1, "composite window has 2 inserts");
    assert_eq!(
        run(RetriggerSemantics::SinceLastConsidered),
        0,
        "window reset at first consideration; helper's single insert is not enough"
    );
}

/// Scenario distinguishing `SinceLastTriggering`: each new triggering
/// transition *replaces* the window instead of extending it.
#[test]
fn retrigger_since_last_triggering_restarts_window() {
    let run = |retrigger: RetriggerSemantics| -> usize {
        let mut sys = RuleSystem::with_config(EngineConfig {
            retrigger,
            ..EngineConfig::default()
        });
        sys.execute("create table t (k int, v int)").unwrap();
        sys.execute("create table log (tag text, n int)").unwrap();
        // Helper (higher priority) inserts one more t-row, so the watcher
        // is re-triggered by that single-row transition.
        sys.execute(
            "create rule helper when inserted into t \
             if (select count(*) from t) < 3 \
             then insert into t values (9, 9)",
        )
        .unwrap();
        sys.execute(
            "create rule watcher when inserted into t \
             if (select count(*) from inserted t) >= 2 \
             then insert into log values ('fired', 0)",
        )
        .unwrap();
        sys.execute("create rule priority helper before watcher").unwrap();
        // External block inserts 2 rows: watcher's initial window has 2.
        let out = sys.transaction("insert into t values (1, 0), (2, 0)").unwrap();
        out.fired().iter().filter(|f| f.rule == "watcher").count()
    };
    // Default: watcher's window accumulates 2 external + 1 helper row; it
    // fires (once — its own action doesn't insert into t).
    assert_eq!(run(RetriggerSemantics::SinceLastAction), 1);
    // [WF89b]: helper's one-row transition re-triggers the watcher and
    // *replaces* its window with just that row — count 1 < 2, never fires.
    assert_eq!(run(RetriggerSemantics::SinceLastTriggering), 0);
}

// ----------------------------------------------------------------------
// Transition-table licensing (§3 restriction)
// ----------------------------------------------------------------------

#[test]
fn illegal_transition_table_reference_rejected_at_creation() {
    let mut sys = sys_with_log();
    let err = sys
        .execute(
            "create rule bad when inserted into t \
             then insert into log (select 'x', v from deleted t)",
        )
        .unwrap_err();
    assert!(matches!(err, RuleError::IllegalTransitionTable { .. }), "{err}");

    // Column-granular: predicate on t.v does not license old updated t.
    let err = sys
        .execute(
            "create rule bad2 when updated t.v \
             then insert into log (select 'x', v from old updated t)",
        )
        .unwrap_err();
    assert!(matches!(err, RuleError::IllegalTransitionTable { .. }), "{err}");

    // The matching reference is fine.
    sys.execute(
        "create rule good when updated t.v \
         then insert into log (select 'x', v from old updated t.v)",
    )
    .unwrap();
}

#[test]
fn transition_tables_unavailable_in_plain_queries() {
    let sys = sys_with_log();
    let err = sys.query("select * from inserted t").unwrap_err();
    assert!(matches!(err, RuleError::Query(_)), "{err}");
}

// ----------------------------------------------------------------------
// Empty external transitions and error handling
// ----------------------------------------------------------------------

/// "If all three sets in E1 are empty, then no rules can be triggered."
#[test]
fn empty_external_effect_triggers_nothing() {
    let mut sys = sys_with_log();
    sys.execute(
        "create rule any when inserted into t or deleted from t or updated t \
         then insert into log values ('x', 1)",
    )
    .unwrap();
    let out = sys.transaction("delete from t where k = 42").unwrap();
    assert!(out.fired().is_empty());

    // A non-empty transition on `t` triggers nothing on an untouched table.
    sys.execute("create table other (k int)").unwrap();
    sys.execute("create rule bystander when inserted into other then delete from other").unwrap();
    sys.execute("insert into t values (1, 1)").unwrap();
    let out = sys.transaction("update t set v = v + 1").unwrap();
    assert_eq!(out.fired().iter().map(|f| f.rule.as_str()).collect::<Vec<_>>(), ["any"]);
}

/// DML errors inside a transaction roll the whole transaction back.
#[test]
fn op_error_aborts_transaction() {
    let mut sys = sys_with_log();
    sys.execute("insert into t values (1, 1)").unwrap();
    let err = sys.transaction("insert into t values (2, 2); insert into t values ('bad', 3)");
    assert!(err.is_err());
    assert_eq!(
        sys.query("select count(*) from t").unwrap().scalar().unwrap(),
        &Value::Int(1),
        "the first insert was rolled back"
    );
    assert!(!sys.in_transaction());
}

/// Errors raised while evaluating a rule's condition also roll back.
#[test]
fn condition_error_aborts_transaction() {
    let mut sys = sys_with_log();
    // Scalar subquery over a two-row table → cardinality error when the
    // rule's condition is evaluated.
    sys.execute("insert into log values ('a', 1), ('b', 2)").unwrap();
    sys.execute(
        "create rule bad_cond when inserted into t \
         if (select n from log) > 0 then delete from t",
    )
    .unwrap();
    let err = sys.transaction("insert into t values (1, 1)");
    assert!(err.is_err());
    assert_eq!(
        sys.query("select count(*) from t").unwrap().scalar().unwrap(),
        &Value::Int(0),
        "insert rolled back"
    );
}

/// Deactivated rules never trigger; reactivated ones do.
#[test]
fn deactivate_and_activate() {
    let mut sys = sys_with_log();
    sys.execute("create rule r when inserted into t then insert into log values ('x', 1)").unwrap();
    sys.execute("deactivate rule r").unwrap();
    let out = sys.transaction("insert into t values (1, 1)").unwrap();
    assert!(out.fired().is_empty());
    sys.execute("activate rule r").unwrap();
    let out = sys.transaction("insert into t values (2, 2)").unwrap();
    assert_eq!(out.fired().len(), 1);
}

/// Dropping a rule removes it from triggering; dropping a table referenced
/// by a rule is refused.
#[test]
fn drop_rule_and_table_protection() {
    let mut sys = sys_with_log();
    sys.execute("create rule r when inserted into t then insert into log values ('x', 1)").unwrap();
    let err = sys.execute("drop table t").unwrap_err();
    assert!(matches!(err, RuleError::TableReferencedByRules { .. }));
    let err = sys.execute("drop table log").unwrap_err();
    assert!(matches!(err, RuleError::TableReferencedByRules { .. }));
    sys.execute("drop rule r").unwrap();
    sys.execute("drop table log").unwrap();
    let out = sys.transaction("insert into t values (1, 1)").unwrap();
    assert!(out.fired().is_empty());
}
