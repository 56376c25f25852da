//! Surface-level API tests for [`setrules_core::RuleSystem`]: statement
//! routing, outcomes, error cases, and introspection.

use setrules_core::{EngineConfig, ExecOutcome, RuleError, RuleSystem, TxnOutcome};
use setrules_storage::Value;

#[test]
fn execute_routes_statements() {
    let mut sys = RuleSystem::new();
    assert!(matches!(sys.execute("create table t (k int)").unwrap(), ExecOutcome::Ddl(_)));
    assert!(matches!(sys.execute("create index on t (k)").unwrap(), ExecOutcome::Ddl(_)));
    assert!(matches!(sys.execute("drop index on t (k)").unwrap(), ExecOutcome::Ddl(_)));
    assert!(matches!(
        sys.execute("create rule r when inserted into t then delete from t where k < 0").unwrap(),
        ExecOutcome::Ddl(_)
    ));
    assert!(matches!(sys.execute("insert into t values (1)").unwrap(), ExecOutcome::Txn(_)));
    // A select outside a transaction runs as a transaction and returns rows.
    let ExecOutcome::Txn(TxnOutcome::Committed { output: Some(rel), .. }) =
        sys.execute("select k from t").unwrap()
    else {
        panic!("select must produce output");
    };
    assert_eq!(rel.rows, vec![vec![Value::Int(1)]]);
}

#[test]
fn execute_script_stops_at_first_error() {
    let mut sys = RuleSystem::new();
    let err = sys
        .execute_script("create table t (k int); insert into t values ('bad'); insert into t values (2)")
        .unwrap_err();
    assert!(matches!(err, RuleError::Query(_) | RuleError::Storage(_)), "{err}");
    // The table exists (first statement ran), but neither insert survives.
    assert_eq!(sys.query("select count(*) from t").unwrap().scalar().unwrap(), &Value::Int(0));
}

#[test]
fn query_rejects_non_select() {
    let sys = RuleSystem::new();
    assert!(matches!(sys.query("process rules"), Err(RuleError::Unsupported(_))));
    assert!(matches!(sys.query("drop rule x"), Err(RuleError::Unsupported(_))));
}

#[test]
fn duplicate_and_missing_rules() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.execute("create rule r when inserted into t then delete from t where k < 0").unwrap();
    let err = sys
        .execute("create rule r when inserted into t then delete from t where k < 0")
        .unwrap_err();
    assert!(matches!(err, RuleError::DuplicateRule(_)));
    assert!(matches!(sys.execute("drop rule nope"), Err(RuleError::NoSuchRule(_))));
    assert!(matches!(sys.execute("activate rule nope"), Err(RuleError::NoSuchRule(_))));
}

#[test]
fn rule_referencing_unknown_table_or_column_rejected() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    assert!(sys
        .execute("create rule r when inserted into ghost then delete from t")
        .is_err());
    assert!(sys
        .execute("create rule r when updated t.ghost then delete from t")
        .is_err());
    // Actions referencing unknown tables fail at first execution (they
    // compile — name resolution for plain tables is dynamic)...
    sys.execute("create rule r when inserted into t then delete from ghost").unwrap();
    let err = sys.transaction("insert into t values (1)");
    assert!(err.is_err());
    assert_eq!(
        sys.query("select count(*) from t").unwrap().scalar().unwrap(),
        &Value::Int(0),
        "...and roll the transaction back"
    );
}

/// A rule protects every table it names from `drop table`, including a
/// table created after the rule (names in actions resolve when they run);
/// a dropped rule protects nothing.
#[test]
fn drop_table_protection_covers_tables_created_after_the_rule() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.execute("create rule a when inserted into t then insert into later values (1)").unwrap();
    sys.execute("create table later (k int)").unwrap();
    for table in ["later", "t"] {
        let err = sys.execute(&format!("drop table {table}")).unwrap_err();
        let refused = matches!(&err, RuleError::TableReferencedByRules { table: t, rule }
            if t == table && rule == "a");
        assert!(refused, "{err}");
    }
    sys.execute("drop rule a").unwrap();
    sys.execute("drop table later").unwrap();
    sys.execute("drop table t").unwrap();
}

#[test]
fn introspection() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.execute("create rule a when inserted into t then delete from t where k < 0").unwrap();
    sys.execute("create rule b when deleted from t then insert into t values (0)").unwrap();
    sys.execute("create rule priority a before b").unwrap();
    assert_eq!(sys.rules().count(), 2);
    assert_eq!(sys.rule("a").unwrap().name, "a");
    assert!(sys.rule("zzz").is_none());
    assert_eq!(sys.priority_pairs(), vec![("a".to_string(), "b".to_string())]);
    sys.execute("drop rule b").unwrap();
    assert_eq!(sys.rules().count(), 1);
    assert!(sys.priority_pairs().is_empty());
    assert!(sys.deferred_window().is_empty());
}

#[test]
fn rule_output_surfaces_in_transaction_outcome() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    // The external block's select output is superseded by a later
    // rule-action select.
    sys.execute(
        "create rule reporter when inserted into t then select count(*) from inserted t",
    )
    .unwrap();
    sys.begin().unwrap();
    sys.run_op("insert into t values (1), (2)").unwrap();
    let first = sys.run_op("select k from t").unwrap().unwrap();
    assert_eq!(first.len(), 2);
    let TxnOutcome::Committed { output: Some(rel), .. } = sys.commit().unwrap() else {
        panic!()
    };
    assert_eq!(rel.rows, vec![vec![Value::Int(2)]], "the rule's select is the last output");
}

#[test]
fn config_defaults() {
    let cfg = EngineConfig::default();
    assert_eq!(cfg.max_rule_transitions, 10_000);
    assert!(!cfg.track_selects);
    let sys = RuleSystem::new();
    assert!(!sys.in_transaction());
    assert_eq!(sys.database().table_ids().count(), 0);
}

#[test]
fn same_name_table_can_be_recreated_after_drop() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.execute("insert into t values (1)").unwrap();
    sys.execute("drop table t").unwrap();
    sys.execute("create table t (k int, extra text)").unwrap();
    assert_eq!(sys.query("select count(*) from t").unwrap().scalar().unwrap(), &Value::Int(0));
    sys.execute("insert into t values (5, 'x')").unwrap();
    assert_eq!(sys.query("select count(*) from t").unwrap().scalar().unwrap(), &Value::Int(1));
}

#[test]
fn queries_see_uncommitted_state_inside_txn() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.begin().unwrap();
    sys.run_op("insert into t values (1)").unwrap();
    assert_eq!(
        sys.query("select count(*) from t").unwrap().scalar().unwrap(),
        &Value::Int(1),
        "query() reads the current (uncommitted) state"
    );
    sys.rollback().unwrap();
    assert_eq!(sys.query("select count(*) from t").unwrap().scalar().unwrap(), &Value::Int(0));
}

#[test]
fn create_rule_str_validates_statement_kind() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    assert!(matches!(
        sys.create_rule_str("drop table t"),
        Err(RuleError::Unsupported(_))
    ));
    assert!(sys
        .create_rule_str("create rule ok when inserted into t then delete from t where k < 0")
        .is_ok());
}
