//! Direct inspection of per-rule composite windows (`R.trans-info`)
//! through `RuleSystem::current_window`, validating the §4.2 window
//! bookkeeping at each step of a transaction.

use setrules_core::RuleSystem;
use setrules_storage::Value;

fn sys2() -> RuleSystem {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.execute("create table u (k int)").unwrap();
    // watcher_t fires once, copying t-inserts into u.
    sys.execute(
        "create rule watcher_t when inserted into t \
         then insert into u (select k from inserted t)",
    )
    .unwrap();
    // watcher_u never fires (condition false) but accumulates a window.
    sys.execute(
        "create rule watcher_u when inserted into u if false then delete from u",
    )
    .unwrap();
    sys
}

#[test]
fn windows_outside_transaction_are_absent() {
    let sys = sys2();
    assert!(sys.current_window("watcher_t").is_none());
    assert!(sys.current_window("nope").is_none());
}

#[test]
fn pending_ops_reach_windows_only_at_processing() {
    let mut sys = sys2();
    sys.begin().unwrap();
    sys.run_op("insert into t values (1), (2)").unwrap();
    // Before any rule processing, windows are still empty (changes sit in
    // the pending external window).
    assert!(sys.current_window("watcher_t").unwrap().is_empty());
    let report = sys.process_rules().unwrap();
    assert_eq!(report.fired.len(), 1);
    // watcher_t acted: its window is its own transition (2 u-inserts).
    let w_t = sys.current_window("watcher_t").unwrap();
    assert_eq!(w_t.ins.len(), 2, "watcher_t's window = its own insert-into-u transition");
    // watcher_u did not act: its window is the composite of the external
    // block and watcher_t's transition = 2 t-inserts + 2 u-inserts.
    let w_u = sys.current_window("watcher_u").unwrap();
    assert_eq!(w_u.ins.len(), 4);
    sys.commit().unwrap();
    assert!(sys.current_window("watcher_t").is_none(), "windows die with the transaction");
}

#[test]
fn net_effects_visible_in_windows() {
    let mut sys = sys2();
    sys.begin().unwrap();
    sys.run_op("insert into t values (1)").unwrap();
    sys.run_op("delete from t where k = 1").unwrap();
    sys.run_op("insert into t values (2)").unwrap();
    let report = sys.process_rules().unwrap();
    assert_eq!(report.fired.len(), 1);
    // Only the surviving insert is in watcher_u's composite view of t.
    let w_u = sys.current_window("watcher_u").unwrap();
    let t_inserts = w_u
        .ins
        .iter()
        .filter(|h| {
            let db = sys.database();
            db.table_of(**h) == Some(db.table_id("t").unwrap())
        })
        .count();
    assert_eq!(t_inserts, 1);
    assert!(w_u.del.is_empty(), "insert-then-delete cancelled");
    sys.rollback().unwrap();
    assert_eq!(sys.query("select count(*) from t").unwrap().scalar().unwrap(), &Value::Int(0));
}

#[test]
fn update_windows_capture_old_tuples() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int, v int)").unwrap();
    sys.execute("create rule w when updated t.v if false then delete from t").unwrap();
    sys.execute("insert into t values (1, 10)").unwrap();
    sys.begin().unwrap();
    sys.run_op("update t set v = 20 where k = 1").unwrap();
    sys.run_op("update t set v = 30 where k = 1").unwrap();
    sys.process_rules().unwrap();
    let w = sys.current_window("w").unwrap();
    assert_eq!(w.upd.len(), 1, "two updates to one tuple collapse");
    let entry = w.upd.values().next().unwrap();
    assert_eq!(entry.old.0[1], Value::Int(10), "old tuple is the window-start value");
    sys.rollback().unwrap();
}

/// Exact window work (`EngineStats::trigger_checks` / `window_composes`):
/// with N defined rules that no transition ever triggers, a transaction of
/// one external block tests each rule's predicate once against the block's
/// transition and once against its window, and composes the block into
/// each window once, whatever the block does.
#[test]
fn bystander_rules_cost_two_trigger_checks_and_one_compose_each() {
    const N: u64 = 24;
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int, v int)").unwrap();
    sys.execute("create table quiet (k int)").unwrap();
    for i in 0..N {
        sys.execute(&format!(
            "create rule bystander{i} when inserted into quiet or updated quiet.k \
             then delete from quiet"
        ))
        .unwrap();
    }
    let blocks = [
        "insert into t values (1, 1), (2, 2), (3, 3)",
        "update t set v = v + 1 where k >= 2",
        "insert into t values (4, 4); delete from t where k = 1",
        "delete from t",
    ];
    for block in blocks {
        let out = sys.transaction(block).unwrap();
        let e = &out.stats().engine;
        assert_eq!(e.external_blocks, 1, "{block}");
        assert_eq!(e.rules_considered, 0, "{block}");
        assert_eq!((e.trigger_checks, e.window_composes), (2 * N, N), "{block}");
    }
    let total = sys.full_stats();
    let n = blocks.len() as u64;
    assert_eq!((total.engine.trigger_checks, total.engine.window_composes), (2 * N * n, N * n));
    let json = total.to_json();
    let engine = json.get("engine").unwrap();
    assert_eq!(engine.get("trigger_checks").and_then(|v| v.as_i64()), Some((2 * N * n) as i64));
    assert_eq!(engine.get("window_composes").and_then(|v| v.as_i64()), Some((N * n) as i64));
}

/// A dropped rule holds no window start, and neither does a deactivated
/// one (it keeps its window, which `current_window` shows, but cannot be
/// considered before the transaction ends). So once the only rule that can
/// read the memo built over transition 0 acts and its window restarts,
/// that memo is dropped.
#[test]
fn inert_rules_pin_no_memo() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.execute("create table log (k int)").unwrap();
    sys.execute("create rule gone when inserted into t then delete from log").unwrap();
    sys.execute("create rule idle when inserted into t or inserted into log then delete from log")
        .unwrap();
    sys.execute(
        "create rule big when inserted into t \
         if exists (select * from inserted t where k > 1) then insert into log values (1)",
    )
    .unwrap();
    sys.execute("drop rule gone").unwrap();
    sys.execute("deactivate rule idle").unwrap();
    sys.begin().unwrap();
    sys.run_op("insert into t values (1), (2)").unwrap();
    let report = sys.process_rules().unwrap();
    assert_eq!(report.fired.iter().map(|f| f.rule.as_str()).collect::<Vec<_>>(), ["big"]);
    assert_eq!(report.stats.engine.incr_rebuilds, 1, "big built its memo over transition 0");
    let idle = sys.current_window("idle").unwrap();
    assert_eq!(idle.ins.len(), 3, "the deactivated rule's window spans both transitions");
    let incr = sys.incremental_report();
    assert!(!incr.contains("from transition 0"), "{incr}");
    sys.commit().unwrap();
}
