//! Snapshot/restore round-trips: data, indexes, rules, priorities, and
//! deactivation state survive serialization; restored systems behave
//! identically.

use setrules_core::{
    EngineConfig, EngineEvent, RuleError, RuleSystem, SharedMemSink, Snapshot, WalConfig,
};
use setrules_json::Json;
use setrules_storage::Value;
use setrules_wal::{WalRecord, WalWriter};

fn build() -> RuleSystem {
    let mut sys = RuleSystem::new();
    sys.execute("create table dept (dept_no int, mgr_no int)").unwrap();
    sys.execute("create table emp (name text, emp_no int, salary float, dept_no int)").unwrap();
    sys.execute("create index on emp (dept_no)").unwrap();
    sys.execute(
        "create rule cascade when deleted from dept \
         then delete from emp where dept_no in (select dept_no from deleted dept)",
    )
    .unwrap();
    sys.execute(
        "create rule guard when updated emp.salary \
         if exists (select * from emp where salary < 0) then rollback",
    )
    .unwrap();
    sys.execute("create rule dormant when inserted into emp then delete from emp where salary < 0")
        .unwrap();
    sys.execute("deactivate rule dormant").unwrap();
    sys.execute("create rule priority guard before cascade").unwrap();
    sys.execute("insert into dept values (1, 10), (2, 20)").unwrap();
    sys.execute(
        "insert into emp values ('Jane', 10, 95000.0, 1), ('Bill', 20, 25000.0, 2), \
         ('Nil', 30, NULL, NULL)",
    )
    .unwrap();
    sys
}

#[test]
fn snapshot_round_trips_through_json() {
    let mut sys = build();
    // Values the SQL-text and plain-JSON forms cannot carry: NaN, ±inf,
    // -0.0, a float with no short decimal form, and a quote.
    sys.execute("create table f (k int, v float, s text)").unwrap();
    sys.execute(
        "insert into f values (1, 0.0 / 0.0, 'it''s'), (2, 1e300 * 1e300, NULL), \
         (3, -(1e300 * 1e300), NULL), (4, -0.0, NULL), (5, 0.1, NULL)",
    )
    .unwrap();
    let snap = sys.snapshot().unwrap();
    let json = snap.to_json_string();
    let back = setrules_core::Snapshot::from_json_str(&json).unwrap();
    let restored = RuleSystem::restore(&back, EngineConfig::default()).unwrap();

    // Data identical (including NULLs).
    for q in [
        "select name, emp_no, salary, dept_no from emp order by emp_no",
        "select dept_no, mgr_no from dept order by dept_no",
    ] {
        assert_eq!(sys.query(q).unwrap().rows, restored.query(q).unwrap().rows, "{q}");
    }
    // Metadata identical.
    assert_eq!(restored.rules().count(), 3);
    assert!(!restored.rule("dormant").unwrap().active);
    assert_eq!(restored.priority_pairs(), vec![("guard".to_string(), "cascade".to_string())]);
    // Index restored (observable through explain).
    let plan = restored.explain("select * from emp where dept_no = 1").unwrap();
    assert!(plan.contains("index probe"), "{plan}");

    // The image is exact, in memory and through JSON: rows, handles,
    // index contents and the handle high-water mark, byte for byte.
    let in_memory = RuleSystem::restore(&snap, EngineConfig::default()).unwrap();
    for (how, other) in [("in memory", &in_memory), ("through json", &restored)] {
        assert_eq!(other.database().state_image(), sys.database().state_image(), "{how}");
        assert_eq!(other.database().handles_issued(), sys.database().handles_issued(), "{how}");
    }
}

#[test]
fn ordered_index_kind_survives_the_round_trip() {
    let mut sys = build();
    sys.execute("create index on emp (salary) using ordered").unwrap();
    let snap = sys.snapshot().unwrap();
    let json = snap.to_json_string();
    // The hash index encodes as a bare column name, the ordered one as a
    // [column, kind] pair.
    assert!(json.contains("\"dept_no\""), "{json}");
    assert!(json.contains("\"ordered\""), "{json}");
    let back = setrules_core::Snapshot::from_json_str(&json).unwrap();
    let restored = RuleSystem::restore(&back, EngineConfig::default()).unwrap();
    // The restored index is still ordered: range scans and sort elision
    // remain available.
    let plan = restored.explain("select * from emp where salary > 50000.0").unwrap();
    assert!(plan.contains("index range scan on emp.salary"), "{plan}");
    let plan = restored.explain("select name from emp order by salary").unwrap();
    assert!(plan.contains("order by: elided via ordered index on emp.salary"), "{plan}");
    assert_eq!(
        sys.query("select name from emp order by salary").unwrap().rows,
        restored.query("select name from emp order by salary").unwrap().rows,
    );
}

#[test]
fn restored_rules_behave_identically() {
    let sys = build();
    let snap = sys.snapshot().unwrap();
    let mut restored = RuleSystem::restore(&snap, EngineConfig::default()).unwrap();
    // The cascade still cascades.
    let out = restored.transaction("delete from dept where dept_no = 1").unwrap();
    assert_eq!(out.fired().len(), 1);
    assert_eq!(
        restored.query("select count(*) from emp").unwrap().scalar().unwrap(),
        &Value::Int(2)
    );
    // The guard still vetoes.
    let out = restored.transaction("update emp set salary = -1.0 where emp_no = 20").unwrap();
    assert!(!out.committed());
    // The dormant rule stays dormant.
    let out = restored.transaction("insert into emp values ('x', 99, -5.0, NULL)").unwrap();
    assert!(out.committed());
}

#[test]
fn snapshot_refuses_external_actions_and_open_txns() {
    let mut sys = build();
    sys.begin().unwrap();
    assert!(matches!(sys.snapshot(), Err(RuleError::TransactionOpen)));
    sys.rollback().unwrap();

    sys.create_rule_external(
        "native",
        "inserted into emp",
        None,
        std::sync::Arc::new(|_: &mut setrules_core::ActionCtx<'_>| Ok(())),
    )
    .unwrap();
    assert!(matches!(sys.snapshot(), Err(RuleError::Unsupported(_))));
}

/// A snapshot taken while deferred transitions are pending would silently
/// drop them — the rules they owe would never fire on the restored
/// system. The engine must refuse until the window is processed (or
/// explicitly cleared).
#[test]
fn snapshot_refuses_pending_deferred_transitions() {
    let mut sys = build();
    sys.transaction_without_rules("delete from dept where dept_no = 1").unwrap();
    assert!(
        !sys.deferred_window().is_empty(),
        "flat transaction must leave a deferred window"
    );
    assert!(matches!(sys.snapshot(), Err(RuleError::Unsupported(_))));

    // Processing the window makes the snapshot legal again.
    sys.process_deferred().unwrap();
    sys.snapshot().unwrap();

    // Clearing (consciously discarding) it also works.
    sys.transaction_without_rules("delete from dept where dept_no = 2").unwrap();
    assert!(matches!(sys.snapshot(), Err(RuleError::Unsupported(_))));
    sys.clear_deferred();
    sys.snapshot().unwrap();
}

#[test]
fn dropped_tables_and_rules_are_omitted() {
    let mut sys = build();
    sys.execute("drop rule dormant").unwrap();
    sys.execute("create table scratch (k int)").unwrap();
    sys.execute("drop table scratch").unwrap();
    let snap = sys.snapshot().unwrap();
    assert_eq!(snap.tables.len(), 2);
    assert_eq!(snap.rules.len(), 2);
    let restored = RuleSystem::restore(&snap, EngineConfig::default()).unwrap();
    assert!(restored.rule("dormant").is_none());
}

#[test]
fn empty_system_snapshot() {
    let sys = RuleSystem::new();
    let snap = sys.snapshot().unwrap();
    assert!(snap.tables.is_empty() && snap.rules.is_empty());
    let restored = RuleSystem::restore(&snap, EngineConfig::default()).unwrap();
    assert_eq!(restored.rules().count(), 0);
}

/// Replace `path` (object keys and array indexes) inside `json`.
fn edit(json: &mut Json, path: &[&str], value: Json) {
    let mut at = json;
    for step in path {
        at = match at {
            Json::Object(fields) => {
                &mut fields.iter_mut().find(|(k, _)| k == step).expect("key exists").1
            }
            Json::Array(items) => &mut items[step.parse::<usize>().unwrap()],
            _ => panic!("no '{step}' in {at:?}"),
        };
    }
    *at = value;
}

/// A snapshot string is outside input: every hand-edited inconsistency
/// below is a typed error from `from_json_str` + `restore`, and from
/// replaying it as a log checkpoint, never a panic.
#[test]
fn hostile_snapshots_are_typed_errors() {
    let good = build().snapshot().unwrap().to_json();
    // Slot 1 is `emp`, whose first two rows carry handles 3 and 4.
    let row = |i: &'static str, col: &'static str| vec!["slots", "1", "rows_h", i, col];
    let pair = |a: &str, b: &str| Json::Array(vec![Json::Str(a.into()), Json::Str(b.into())]);
    let cases = [
        ("duplicate row handle", row("1", "0"), Json::Int(3)),
        ("handle 0", row("0", "0"), Json::Int(0)),
        ("high-water mark below a row handle", vec!["handles"], Json::Int(4)),
        ("row arity", vec!["slots", "1", "rows_h", "0"], Json::Array(vec![Json::Int(3)])),
        ("row type", row("0", "2"), Json::Str("ten".into())),
        ("index on an unknown column", vec!["slots", "1", "indexes", "0"], Json::Str("nope".into())),
        ("priority naming an unknown rule", vec!["priorities", "0"], pair("guard", "ghost")),
    ];
    let mut texts: Vec<(&str, String)> = cases
        .into_iter()
        .map(|(what, path, value)| {
            let mut json = good.clone();
            edit(&mut json, &path, value);
            (what, json.pretty())
        })
        .collect();
    let whole = good.pretty();
    texts.push(("truncated json", whole[..whole.len() / 2].to_string()));
    let flood = "[".repeat(200_000);
    texts.push(("bracket flood", flood.clone()));

    for (what, text) in &texts {
        let restored = Snapshot::from_json_str(text)
            .and_then(|snap| RuleSystem::restore(&snap, EngineConfig::default()));
        assert!(restored.is_err(), "{what}: restore accepted a hostile snapshot");

        // The same image as the checkpoint of a log: recovery refuses too.
        let Ok(state) = Json::parse(text) else { continue };
        let sink = SharedMemSink::new();
        let (mut writer, _) = WalWriter::open(WalConfig::memory(sink.clone())).unwrap();
        writer.append_record(&WalRecord::Checkpoint { state });
        writer.sync().unwrap();
        let cfg = EngineConfig {
            durability: Some(WalConfig::memory(sink)),
            ..Default::default()
        };
        assert!(RuleSystem::open(cfg).is_err(), "{what}: recovery accepted a hostile checkpoint");
    }

    // The flood is refused by the JSON parser's depth bound instead of
    // overflowing the stack...
    let err = Snapshot::from_json_str(&flood).unwrap_err();
    assert!(matches!(&err, RuleError::Unsupported(m) if m.contains("nesting deeper")), "{err}");
    // ...and framed into a log as a CRC-valid checkpoint, recovery's
    // scanner stops at it like at any undecodable frame: the frame is
    // truncated as a corrupt tail and nothing is replayed.
    let payload = WalRecord::Checkpoint { state: Json::Null }.to_json().compact();
    let payload = payload.replace("null", &flood);
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend(setrules_wal::crc32(payload.as_bytes()).to_le_bytes());
    frame.extend(payload.as_bytes());
    let sink = SharedMemSink::new();
    sink.set_bytes(frame.clone());
    let durability = Some(WalConfig::memory(sink.clone()));
    let sys = RuleSystem::open(EngineConfig { durability, ..Default::default() }).unwrap();
    let truncated = frame.len() as u64;
    let reported = |e: &EngineEvent| match e {
        EngineEvent::Recovery { records, truncated_bytes } => {
            (*records, *truncated_bytes) == (0, truncated)
        }
        _ => false,
    };
    assert!(sys.recent_events().iter().any(reported), "the flood frame is a truncated tail");
    assert!(sink.bytes().is_empty() && sys.database().state_image().is_empty());
}

/// A durable restore logs the image as one checkpoint that recovers
/// exactly, and refuses a log that already holds records instead of
/// merging into it.
#[test]
fn durable_restore_logs_one_checkpoint_and_refuses_a_used_log() {
    let sys = build();
    let snap = sys.snapshot().unwrap();
    let sink = SharedMemSink::new();
    let cfg = || EngineConfig {
        durability: Some(WalConfig::memory(sink.clone())),
        ..Default::default()
    };
    let restored = RuleSystem::restore(&snap, cfg()).unwrap();
    assert_eq!(restored.database().state_image(), sys.database().state_image());
    drop(restored);
    let (records, _) = setrules_wal::scan(&sink.bytes());
    assert!(
        matches!(records.as_slice(), [WalRecord::Checkpoint { .. }]),
        "one checkpoint record, got {records:?}"
    );
    let reopened = RuleSystem::open(cfg()).unwrap();
    assert_eq!(reopened.database().state_image(), sys.database().state_image());
    assert_eq!(reopened.database().handles_issued(), sys.database().handles_issued());
    drop(reopened);
    assert!(matches!(RuleSystem::restore(&snap, cfg()), Err(RuleError::Unsupported(_))));
}
