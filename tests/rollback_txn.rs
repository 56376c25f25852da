//! Rollback actions and transaction boundaries (§4), including explicit
//! `begin`/`commit` with triggering points (§5.3).

use std::sync::Arc;

use setrules_core::{ExecOutcome, RuleError, RuleSystem, TxnOutcome};
use setrules_storage::Value;

fn acct_sys() -> RuleSystem {
    let mut sys = RuleSystem::new();
    sys.execute("create table acct (id int, balance float)").unwrap();
    // Integrity guard: no account may go negative.
    sys.execute(
        "create rule no_overdraft when updated acct.balance or inserted into acct \
         if exists (select * from acct where balance < 0) \
         then rollback",
    )
    .unwrap();
    sys.execute("insert into acct values (1, 100.0), (2, 50.0)").unwrap();
    sys
}

fn balance(sys: &RuleSystem, id: i64) -> f64 {
    sys.query(&format!("select balance from acct where id = {id}"))
        .unwrap()
        .scalar()
        .unwrap()
        .as_f64()
        .unwrap()
}

#[test]
fn rollback_rule_restores_start_state() {
    let mut sys = acct_sys();
    // A transfer that overdraws account 2: the whole block is undone,
    // including the credit to account 1.
    let out = sys
        .transaction(
            "update acct set balance = balance + 80 where id = 1; \
             update acct set balance = balance - 80 where id = 2",
        )
        .unwrap();
    let TxnOutcome::RolledBack { by_rule, .. } = out else { panic!("expected rollback") };
    assert_eq!(by_rule, "no_overdraft");
    assert_eq!(balance(&sys, 1), 100.0);
    assert_eq!(balance(&sys, 2), 50.0);
}

#[test]
fn valid_transfer_commits() {
    let mut sys = acct_sys();
    let out = sys
        .transaction(
            "update acct set balance = balance + 30 where id = 1; \
             update acct set balance = balance - 30 where id = 2",
        )
        .unwrap();
    assert!(out.committed());
    assert_eq!(balance(&sys, 1), 130.0);
    assert_eq!(balance(&sys, 2), 20.0);
}

/// Rollback also undoes the actions of rules that fired *before* the
/// rollback rule was selected.
#[test]
fn rollback_undoes_earlier_rule_actions() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.execute("create table audit (k int)").unwrap();
    // The auditor fires first; then the guard sees the bad row and rolls
    // everything back.
    sys.execute(
        "create rule auditor when inserted into t \
         then insert into audit (select k from inserted t)",
    )
    .unwrap();
    sys.execute(
        "create rule guard when inserted into t \
         if exists (select * from t where k < 0) then rollback",
    )
    .unwrap();
    sys.execute("create rule priority auditor before guard").unwrap();
    let out = sys.transaction("insert into t values (-1)").unwrap();
    let TxnOutcome::RolledBack { by_rule, fired, .. } = out else { panic!() };
    assert_eq!(by_rule, "guard");
    assert_eq!(fired.len(), 1, "auditor fired before the rollback");
    assert_eq!(
        sys.query("select count(*) from audit").unwrap().scalar().unwrap(),
        &Value::Int(0),
        "the audit row was rolled back too"
    );
    assert_eq!(sys.query("select count(*) from t").unwrap().scalar().unwrap(), &Value::Int(0));
}

/// §4: committed transactions are isolated from later rollbacks.
#[test]
fn rollback_does_not_cross_transaction_boundaries() {
    let mut sys = acct_sys();
    sys.transaction("update acct set balance = balance + 30 where id = 1").unwrap();
    let out = sys.transaction("update acct set balance = -1 where id = 2").unwrap();
    assert!(!out.committed());
    assert_eq!(balance(&sys, 1), 130.0, "the earlier committed transaction survives");
    assert_eq!(balance(&sys, 2), 50.0);
}

// ----------------------------------------------------------------------
// Explicit transactions and triggering points (§5.3)
// ----------------------------------------------------------------------

#[test]
fn explicit_begin_commit_processes_rules_at_commit() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.execute("create table log (k int)").unwrap();
    sys.execute(
        "create rule copy when inserted into t then insert into log (select k from inserted t)",
    )
    .unwrap();
    sys.begin().unwrap();
    sys.run_op("insert into t values (1)").unwrap();
    // Rules have not run yet.
    assert_eq!(sys.query("select count(*) from log").unwrap().scalar().unwrap(), &Value::Int(0));
    sys.run_op("insert into t values (2)").unwrap();
    let out = sys.commit().unwrap();
    assert!(out.committed());
    assert_eq!(out.fired().len(), 1, "one set-oriented firing for both inserts");
    assert_eq!(sys.query("select count(*) from log").unwrap().scalar().unwrap(), &Value::Int(2));
}

/// `process rules` mid-transaction: "the externally-generated transition
/// is considered complete, rules are processed, and a new transition
/// begins."
#[test]
fn process_rules_triggering_point() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.execute("create table log (k int)").unwrap();
    sys.execute(
        "create rule copy when inserted into t then insert into log (select k from inserted t)",
    )
    .unwrap();
    sys.begin().unwrap();
    sys.run_op("insert into t values (1)").unwrap();
    let ExecOutcome::RulesProcessed(report) = sys.execute("process rules").unwrap() else {
        panic!()
    };
    assert_eq!(report.fired.len(), 1);
    assert!(report.rolled_back_by.is_none());
    assert_eq!(sys.query("select count(*) from log").unwrap().scalar().unwrap(), &Value::Int(1));

    // A second batch after the triggering point is a fresh transition:
    // `inserted t` at commit contains only row 2.
    sys.run_op("insert into t values (2)").unwrap();
    let out = sys.commit().unwrap();
    assert_eq!(out.fired().len(), 2, "one firing at the triggering point, one at commit");
    assert_eq!(out.fired()[1].inserted, 1, "only the new insert is in the window");
    assert_eq!(sys.query("select count(*) from log").unwrap().scalar().unwrap(), &Value::Int(2));
}

/// A rollback at a triggering point kills the whole transaction, including
/// work done before the triggering point.
#[test]
fn rollback_at_triggering_point_kills_transaction() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.execute(
        "create rule guard when inserted into t \
         if exists (select * from t where k < 0) then rollback",
    )
    .unwrap();
    sys.begin().unwrap();
    sys.run_op("insert into t values (5)").unwrap();
    sys.run_op("insert into t values (-5)").unwrap();
    let report = sys.process_rules().unwrap();
    assert_eq!(report.rolled_back_by.as_deref(), Some("guard"));
    assert!(!sys.in_transaction());
    assert_eq!(sys.query("select count(*) from t").unwrap().scalar().unwrap(), &Value::Int(0));
    // Further mid-transaction calls are errors.
    assert!(matches!(sys.run_op("insert into t values (1)"), Err(RuleError::NoOpenTransaction)));
    assert!(matches!(sys.commit(), Err(RuleError::NoOpenTransaction)));
}

#[test]
fn explicit_rollback_call() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.begin().unwrap();
    sys.run_op("insert into t values (1)").unwrap();
    sys.rollback().unwrap();
    assert_eq!(sys.query("select count(*) from t").unwrap().scalar().unwrap(), &Value::Int(0));
    assert!(matches!(sys.rollback(), Err(RuleError::NoOpenTransaction)));
}

#[test]
fn ddl_rejected_inside_transaction() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.begin().unwrap();
    assert!(matches!(
        sys.execute("create table u (k int)"),
        Err(RuleError::TransactionOpen)
    ));
    assert!(matches!(sys.begin(), Err(RuleError::TransactionOpen)));
    sys.rollback().unwrap();
}

// ----------------------------------------------------------------------
// Deferred rule processing across transactions (§5.3)
// ----------------------------------------------------------------------

#[test]
fn deferred_processing_accumulates_across_transactions() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.execute("create table log (k int)").unwrap();
    sys.execute(
        "create rule copy when inserted into t then insert into log (select k from inserted t)",
    )
    .unwrap();
    // Two externally-committed transactions without rule processing.
    sys.transaction_without_rules("insert into t values (1)").unwrap();
    sys.transaction_without_rules("insert into t values (2); insert into t values (3)").unwrap();
    assert_eq!(sys.query("select count(*) from log").unwrap().scalar().unwrap(), &Value::Int(0));
    assert_eq!(sys.deferred_window().ins.len(), 3);

    // One processing pass sees the composite of both transactions.
    let out = sys.process_deferred().unwrap();
    assert_eq!(out.fired().len(), 1, "one set-oriented firing over all three inserts");
    assert_eq!(out.fired()[0].inserted, 3);
    assert_eq!(sys.query("select count(*) from log").unwrap().scalar().unwrap(), &Value::Int(3));
    assert!(sys.deferred_window().is_empty(), "the deferred window was consumed");
}

/// Deferred net effects: an insert in one deferred transaction cancelled
/// by a delete in the next never reaches the rules.
#[test]
fn deferred_net_effects_compose_across_transactions() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.execute("create table log (k int)").unwrap();
    sys.execute(
        "create rule copy when inserted into t then insert into log (select k from inserted t)",
    )
    .unwrap();
    sys.transaction_without_rules("insert into t values (1)").unwrap();
    sys.transaction_without_rules("delete from t where k = 1").unwrap();
    let out = sys.process_deferred().unwrap();
    assert!(out.fired().is_empty(), "insert+delete across deferred txns nets to nothing");
}

/// A rollback during deferred processing undoes only the rule actions —
/// the deferred external transactions already committed.
#[test]
fn deferred_rollback_scope() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.execute("create table log (k int)").unwrap();
    sys.execute(
        "create rule copy when inserted into t then insert into log (select k from inserted t)",
    )
    .unwrap();
    sys.execute("create rule guard when inserted into log then rollback").unwrap();
    sys.transaction_without_rules("insert into t values (1)").unwrap();
    let out = sys.process_deferred().unwrap();
    assert!(!out.committed());
    assert_eq!(
        sys.query("select count(*) from t").unwrap().scalar().unwrap(),
        &Value::Int(1),
        "the external insert survives (it committed earlier)"
    );
    assert_eq!(
        sys.query("select count(*) from log").unwrap().scalar().unwrap(),
        &Value::Int(0),
        "the rule's insert was undone"
    );
}

/// A changed tuple's old image is shared by the undo log and the rule
/// windows that record the change. A `rollback` rule that runs while a
/// window still holds those images must restore every tuple, both
/// indexes and the handles exactly: the undo log takes the image back by
/// copy when a window shares it.
#[test]
fn rollback_restores_images_a_rule_window_still_shares() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int, name text, w float)").unwrap();
    sys.execute("create index on t (k)").unwrap();
    sys.execute("create index on t (name) using ordered").unwrap();
    sys.execute("create table log (k int)").unwrap();
    sys.execute("create table alarm (k int)").unwrap();
    sys.execute(
        "insert into t values (1, 'ann', 1.5), (2, 'bob', 2.5), (3, 'cy', 3.5), \
         (4, 'di', 4.5), (5, 'ed', 5.5), (6, 'flo', 6.5)",
    )
    .unwrap();
    sys.execute(
        "create rule watcher when updated t or deleted from t \
         then insert into log (select k from deleted t)",
    )
    .unwrap();
    sys.execute("create rule guard when inserted into alarm then rollback").unwrap();
    let before = sys.database().state_image();

    sys.begin().unwrap();
    sys.run_op("update t set w = w * 2, name = 'x' where k <= 4").unwrap();
    sys.run_op("delete from t where k >= 3").unwrap();
    sys.run_op("update t set k = k + 10 where k = 1").unwrap();
    let report = sys.process_rules().unwrap();
    assert_eq!(report.fired.iter().map(|f| f.rule.as_str()).collect::<Vec<_>>(), ["watcher"]);

    // The guard has not been triggered, so its window still spans the
    // whole transaction: the update-then-delete tuples keep their
    // window-start images, and every image is the one the undo log holds.
    let window = sys.current_window("guard").expect("open transaction").clone();
    assert_eq!(window.del.len(), 4, "tuples 3-6 deleted");
    assert_eq!(window.upd.len(), 2, "tuples 1 and 2 updated");
    let olds: Vec<_> =
        window.del.values().map(|e| &e.old).chain(window.upd.values().map(|e| &e.old)).collect();
    for old in &olds {
        let shared = Arc::strong_count(old);
        assert!(shared >= 3, "the undo log, the guard's window and this clone share {old:?}");
    }
    assert_eq!(window.del.values().filter(|e| e.old.0[1] == Value::Text("x".into())).count(), 0);

    sys.run_op("insert into alarm values (1)").unwrap();
    let out = sys.commit().unwrap();
    let TxnOutcome::RolledBack { by_rule, .. } = out else { panic!("expected rollback") };
    assert_eq!(by_rule, "guard");
    assert_eq!(sys.database().state_image(), before);
    // The window's clone outlived the rollback and still reads the
    // window-start values.
    assert!(olds.iter().all(|old| Arc::strong_count(old) == 1));
    let upd_keys: Vec<_> = window.upd.values().map(|e| e.old.0[0].clone()).collect();
    assert_eq!(upd_keys, [Value::Int(1), Value::Int(2)]);
}
