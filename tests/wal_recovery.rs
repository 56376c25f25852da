//! Crash-recovery sweep for the write-ahead log: kill the engine at
//! EVERY WAL append and sync site reachable from the paper-example
//! workloads, reopen from the surviving log, and assert the recovered
//! image is byte-identical to the last committed state — with zero ghost
//! rule-action effects — under both sync policies.
//!
//! The crash model: an injected `wal_append`/`wal_sync` fault marks the
//! log crashed and discards its unsynced suffix, which is exactly what a
//! real kill would have lost. The dying system is then dropped and a new
//! one recovers from the shared in-memory sink (the "disk").
//!
//! Also here: exhaustive torn-tail truncation (recovery from every byte
//! prefix of a log), single-byte corruption properties, the 300-case
//! durable-vs-in-memory differential with a reopen after every
//! statement, checkpoint kill/restore coverage, and the durability
//! semantics of graceful rollbacks and deferred processing.
//!
//! Set `FAULT_SWEEP_FAST=1` to probe only the first, middle, and last
//! site of each kind (the CI-bounded mode used by `scripts/ci.sh`).

use setrules_core::{
    EngineConfig, EngineEvent, RuleError, RuleSystem, SharedMemSink, Snapshot, SyncPolicy,
    WalConfig,
};
use setrules_query::QueryError;
use setrules_storage::{FaultKind, StorageError};
use setrules_testkit::check;
use setrules_wal::{scan, WalRecord};

// ----------------------------------------------------------------------
// Scenarios: the paper's running examples (as in tests/fault_injection.rs).
// ----------------------------------------------------------------------

struct Scenario {
    name: &'static str,
    /// DDL and rule definitions; logged, but its fault-site counters are
    /// reset before the workload so site numbering starts at the
    /// workload's first operation.
    setup: &'static [&'static str],
    /// Workload statements, each run as one transaction (operation block
    /// + rule processing). Every WAL append and sync any of them performs
    ///   — directly or through rule actions — is a kill site.
    workload: &'static [&'static str],
}

const RULE_R41: &str = "create rule r41 when deleted from emp \
     then delete from emp where dept_no in \
            (select dept_no from dept where mgr_no in \
              (select emp_no from deleted emp)); \
          delete from dept where mgr_no in \
            (select emp_no from deleted emp)";

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "example_3_1",
        setup: &[
            "create table emp (name text, emp_no int, salary float, dept_no int)",
            "create table dept (dept_no int, mgr_no int)",
            "create rule r31 when deleted from dept \
             then delete from emp where dept_no in (select dept_no from deleted dept)",
            "create index on emp (dept_no)",
        ],
        workload: &[
            "insert into dept values (1, 10), (2, 20)",
            "insert into emp values ('a', 1, 10.0, 1), ('b', 2, 10.0, 1), ('c', 3, 10.0, 2)",
            "delete from dept where dept_no = 1",
        ],
    },
    Scenario {
        name: "example_3_2",
        setup: &[
            "create table emp (name text, emp_no int, salary float, dept_no int)",
            "create table dept (dept_no int, mgr_no int)",
            "create rule r32 when updated emp.salary \
             if (select sum(salary) from new updated emp.salary) > \
                (select sum(salary) from old updated emp.salary) \
             then update emp set salary = 0.95 * salary where dept_no = 2; \
                  update emp set salary = 0.85 * salary where dept_no = 3",
            "create index on emp (salary)",
        ],
        workload: &[
            "insert into emp values ('u', 1, 1000.0, 1), ('v', 2, 1000.0, 2), \
             ('w', 3, 1000.0, 3)",
            "update emp set salary = 2000.0 where name = 'u'",
        ],
    },
    Scenario {
        name: "example_4_1",
        setup: &[
            "create table emp (name text, emp_no int, salary float, dept_no int)",
            "create table dept (dept_no int, mgr_no int)",
            RULE_R41,
        ],
        workload: &[
            "insert into dept values (1, 1), (2, 2)",
            "insert into emp values ('r', 1, 1.0, 0), ('m1', 2, 1.0, 1), \
             ('m2', 3, 1.0, 1), ('w1', 4, 1.0, 2), ('w2', 5, 1.0, 2)",
            "delete from emp where name = 'r'",
        ],
    },
    Scenario {
        name: "example_4_3",
        setup: &[
            "create table emp (name text, emp_no int, salary float, dept_no int)",
            "create table dept (dept_no int, mgr_no int)",
            RULE_R41,
            "create rule r2 when updated emp.salary \
             if (select avg(salary) from new updated emp.salary) > 50000 \
             then delete from emp where emp_no in \
                    (select emp_no from new updated emp.salary) \
                  and salary > 80000",
            "create rule priority r2 before r41",
        ],
        workload: &[
            "insert into dept values (1, 1), (2, 2), (3, 3)",
            "insert into emp values \
             ('Jane', 1, 100000.0, 0), ('Mary', 2, 70000.0, 1), ('Jim', 3, 60000.0, 1), \
             ('Bill', 4, 25000.0, 2), ('Sam', 5, 40000.0, 3), ('Sue', 6, 45000.0, 3)",
            "delete from emp where name = 'Jane'; \
             update emp set salary = 30000.0 where name = 'Bill'; \
             update emp set salary = 85000.0 where name = 'Mary'",
        ],
    },
];

// ----------------------------------------------------------------------
// Harness.
// ----------------------------------------------------------------------

fn durable_config(sink: &SharedMemSink, sync: SyncPolicy) -> EngineConfig {
    EngineConfig {
        durability: Some(WalConfig::memory(sink.clone()).with_sync(sync)),
        ..Default::default()
    }
}

/// "Restart the process": recover a fresh system from the sink's bytes.
fn reopen(sink: &SharedMemSink) -> RuleSystem {
    RuleSystem::open(durable_config(sink, SyncPolicy::GroupCommit))
        .expect("recovery from a crashed log must succeed")
}

fn fresh_durable(scenario: &Scenario, sink: &SharedMemSink, sync: SyncPolicy) -> RuleSystem {
    let mut sys = RuleSystem::open(durable_config(sink, sync)).expect("open durable system");
    for stmt in scenario.setup {
        sys.execute(stmt).unwrap();
    }
    // Rebase site numbering: setup's WAL operations are not kill sites.
    sys.fault_injector_mut().reset_counts();
    sys
}

/// The injected-fault payload of an engine error, if that is what it is.
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

/// Which site numbers of `total` to probe: all of them, or (under
/// `FAULT_SWEEP_FAST`) the first, middle, and last.
fn sites(total: u64) -> Vec<u64> {
    if std::env::var_os("FAULT_SWEEP_FAST").is_some() {
        let mut s = vec![1, total.div_ceil(2), total];
        s.dedup();
        s
    } else {
        (1..=total).collect()
    }
}

const WAL_KINDS: [FaultKind; 2] = [FaultKind::WalAppend, FaultKind::WalSync];

/// Kill `scenario` at WAL site `(kind, n)`: the dying run must roll back
/// to its pre-statement image, the reopened system must recover exactly
/// that committed image (no ghost rule-action effects), and re-running
/// the rest of the workload must land byte-identical to the fault-free
/// final image.
fn kill_and_recover(scenario: &Scenario, sync: SyncPolicy, kind: FaultKind, n: u64, final_image: &str) {
    let sink = SharedMemSink::new();
    let mut sys = fresh_durable(scenario, &sink, sync);
    sys.fault_injector_mut().arm(kind, n);
    let ctx = format!("[{} {sync:?} kind={kind} n={n}]", scenario.name);

    for (i, stmt) in scenario.workload.iter().enumerate() {
        let before = sys.database().state_image();
        match sys.transaction(stmt) {
            Ok(_) => continue,
            Err(e) => {
                let (fk, fn_) =
                    fault_of(&e).unwrap_or_else(|| panic!("{ctx} stmt {i}: unexpected error {e}"));
                assert_eq!((fk, fn_), (kind, n), "{ctx} stmt {i}: wrong fault surfaced");

                // The dying process itself rolled back cleanly.
                assert_eq!(
                    sys.database().state_image(),
                    before,
                    "{ctx} stmt {i}: live state diverged after WAL crash"
                );
                assert!(!sys.in_transaction(), "{ctx}: transaction left open");

                // CRASH: drop the dying process, recover from the "disk".
                drop(sys);
                let mut rec = reopen(&sink);
                assert_eq!(
                    rec.database().state_image(),
                    before,
                    "{ctx} stmt {i}: recovered image is not the pre-statement committed image"
                );
                assert!(!rec.in_transaction(), "{ctx}: recovery opened a transaction");
                assert_eq!(rec.database().undo_len(), 0, "{ctx}: recovery left undo records");
                assert!(
                    rec.stats().wal_replayed_records > 0,
                    "{ctx}: setup DDL alone means recovery replays records"
                );
                assert!(
                    rec.recent_events()
                        .iter()
                        .any(|ev| matches!(ev, EngineEvent::Recovery { .. })),
                    "{ctx}: no Recovery event emitted"
                );

                // Continuation: rerun the killed statement and the rest of
                // the workload on the recovered system — it must land
                // exactly where the fault-free run did (same data AND the
                // same tuple handles).
                for stmt in &scenario.workload[i..] {
                    rec.transaction(stmt)
                        .unwrap_or_else(|e| panic!("{ctx}: continuation failed: {e}"));
                }
                assert_eq!(
                    rec.database().state_image(),
                    final_image,
                    "{ctx}: continuation after recovery diverged from the fault-free run"
                );
                return;
            }
        }
    }
    panic!("{ctx}: armed WAL site was never reached — discovery and sweep disagree");
}

// ----------------------------------------------------------------------
// The headline sweep.
// ----------------------------------------------------------------------

#[test]
fn sweep_kill_at_every_wal_site_on_paper_workloads() {
    for scenario in SCENARIOS {
        for sync in [SyncPolicy::GroupCommit, SyncPolicy::EachRecord] {
            // Discovery: fault-free run, counting WAL operations.
            let sink = SharedMemSink::new();
            let mut sys = fresh_durable(scenario, &sink, sync);
            for stmt in scenario.workload {
                let out = sys.transaction(stmt).unwrap();
                assert!(out.committed(), "{}: fault-free run must commit", scenario.name);
            }
            let final_image = sys.database().state_image();
            let totals: Vec<(FaultKind, u64)> = WAL_KINDS
                .iter()
                .map(|&k| (k, sys.fault_injector().count(k)))
                .filter(|&(_, c)| c > 0)
                .collect();
            assert_eq!(totals.len(), 2, "{}: workload must append and sync", scenario.name);
            drop(sys);

            // A clean log replays to the exact final image.
            assert_eq!(
                reopen(&sink).database().state_image(),
                final_image,
                "{}: clean-log recovery must reproduce the image",
                scenario.name
            );

            let mut swept = 0u64;
            for &(kind, total) in &totals {
                for n in sites(total) {
                    kill_and_recover(scenario, sync, kind, n, &final_image);
                    swept += 1;
                }
            }
            assert!(swept >= 2, "{}: sweep too small", scenario.name);
        }
    }
}

/// Group commit really batches: a whole transaction (Begin + DML + rule
/// actions + Commit) is one sink append and one sync, while the
/// sync-per-record baseline hits the sink once per record — at least 22
/// times for a 20-row insert (Begin + 20 rows + Commit), a 22x sync
/// amplification over group commit.
#[test]
fn group_commit_batches_a_transaction_into_one_append_and_sync() {
    let scenario = &SCENARIOS[0];
    let rows: Vec<String> = (0..20).map(|i| format!("('w{i}', {i}, 1.0, 9)")).collect();
    let wide = format!("insert into emp values {}", rows.join(", "));
    for sync in [SyncPolicy::GroupCommit, SyncPolicy::EachRecord] {
        let sink = SharedMemSink::new();
        let mut sys = fresh_durable(scenario, &sink, sync);
        // Begin + the inserted rows + Commit.
        for (stmt, records) in [(scenario.workload[0], 4), (wide.as_str(), 22)] {
            let (a0, s0) = (sink.appends(), sink.syncs());
            sys.transaction(stmt).unwrap();
            let (appends, syncs) = (sink.appends() - a0, sink.syncs() - s0);
            if sync == SyncPolicy::GroupCommit {
                assert_eq!((appends, syncs), (1, 1), "group commit: one append, one sync");
            } else {
                assert!(appends >= records, "one append per record, got {appends} for `{stmt}`");
                assert_eq!(appends, syncs, "sync-per-record: one sync per append");
            }
        }
    }
}

// ----------------------------------------------------------------------
// Torn tails and corruption.
// ----------------------------------------------------------------------

/// Build a canonical log (sync-per-record, so records land in distinct
/// frames) and collect the committed image at every statement boundary.
fn canonical_log() -> (SharedMemSink, Vec<String>, Vec<u8>) {
    let scenario = &SCENARIOS[0];
    let sink = SharedMemSink::new();
    let mut sys =
        RuleSystem::open(durable_config(&sink, SyncPolicy::EachRecord)).expect("open durable");
    let mut images = vec![sys.database().state_image()];
    for stmt in scenario.setup.iter().chain(scenario.workload) {
        sys.execute(stmt).unwrap();
        images.push(sys.database().state_image());
    }
    let bytes = sink.bytes();
    (sink, images, bytes)
}

/// Recovery from EVERY byte-length prefix of the log: never panics, never
/// fails, and always lands on a statement-boundary image (a torn
/// transaction is discarded whole — no half-applied statements, no
/// partial rule actions).
#[test]
fn truncation_at_every_byte_recovers_a_statement_boundary_image() {
    let (sink, images, bytes) = canonical_log();
    for len in 0..=bytes.len() {
        sink.set_bytes(bytes[..len].to_vec());
        let rec = RuleSystem::open(durable_config(&sink, SyncPolicy::GroupCommit))
            .unwrap_or_else(|e| panic!("truncation at byte {len}: recovery failed: {e}"));
        let img = rec.database().state_image();
        assert!(
            images.contains(&img),
            "truncation at byte {len} recovered a non-boundary image:\n{img}"
        );
    }
}

/// Single-byte corruption anywhere in the log: recovery must not panic
/// and must not replay the corrupt frame — the CRC stops the scan at the
/// last valid record, which is again a statement boundary.
#[test]
fn single_byte_corruption_never_replays_a_corrupt_frame() {
    let (sink, images, bytes) = canonical_log();
    check("wal_byte_flip_recovery", 160, 0xbadc_0de5, |rng| {
        let pos = rng.below(bytes.len());
        let bit = 1u8 << rng.below(8);
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= bit;
        sink.set_bytes(corrupt);
        // Refusing to open would be acceptable for a corrupt log;
        // panicking or replaying garbage is not.
        if let Ok(rec) = RuleSystem::open(durable_config(&sink, SyncPolicy::GroupCommit)) {
            let img = rec.database().state_image();
            assert!(
                images.contains(&img),
                "flip at byte {pos} (bit {bit:#x}) replayed a corrupt frame:\n{img}"
            );
        }
    });
}

// ----------------------------------------------------------------------
// Durable-vs-in-memory differential.
// ----------------------------------------------------------------------

/// 300 randomized workloads run twice — once purely in memory, once
/// durable with a recovery reopen after EVERY statement. All three
/// systems (memory, durable, recovered) must agree byte-for-byte, and
/// the durable run must fire exactly the same rules.
#[test]
fn durable_and_in_memory_systems_agree_with_reopen_after_every_statement() {
    check("wal_durable_vs_memory", 300, 0xd1ff_5eed, |rng| {
        let sink = SharedMemSink::new();
        let sync =
            if rng.chance(1, 2) { SyncPolicy::GroupCommit } else { SyncPolicy::EachRecord };
        let every = [0u64, 1, 3][rng.below(3)];
        let cfg = |sink: &SharedMemSink| EngineConfig {
            durability: Some(
                WalConfig::memory(sink.clone()).with_sync(sync).with_checkpoint_every(every),
            ),
            ..Default::default()
        };
        let mut mem = RuleSystem::new();
        let mut dur = RuleSystem::open(cfg(&sink)).expect("open durable");

        let mut stmts: Vec<String> = Vec::new();
        if rng.chance(1, 3) {
            // A dropped table leaves a dead id slot and burned handles
            // that every image below must keep.
            stmts.extend([
                "create table scratch (x int)".into(),
                "insert into scratch values (1), (2)".into(),
                "drop table scratch".into(),
            ]);
        }
        stmts.push("create table t (k int, v float)".into());
        stmts.push("create table log (k int)".into());
        if rng.chance(1, 2) {
            stmts.push("create index on t (k)".into());
        }
        if rng.chance(1, 2) {
            stmts.push("create index on t (v) using ordered".into());
        }
        if rng.chance(2, 3) {
            stmts.push(
                "create rule audit when deleted from t \
                 then insert into log (select k from deleted t)"
                    .into(),
            );
        }
        if rng.chance(1, 3) {
            stmts.push(
                "create rule cap when updated t.v \
                 if exists (select * from new updated t.v where v > 100.0) then rollback"
                    .into(),
            );
        }
        for _ in 0..2 + rng.below(6) {
            let k = rng.below(6);
            stmts.push(match rng.below(6) {
                0 | 1 => format!("insert into t values ({k}, {}.25)", rng.below(50)),
                // NaN has no SQL literal and no JSON number.
                5 => format!("insert into t values ({k}, 0.0 / 0.0)"),
                2 => format!("update t set v = v + 1.5 where k = {k}"),
                // Trips the `cap` rollback rule when it exists.
                3 => format!("update t set v = 250.0 where k = {k}"),
                _ => format!("delete from t where k = {k}"),
            });
        }

        for (i, stmt) in stmts.iter().enumerate() {
            let a = mem.execute(stmt);
            let b = dur.execute(stmt);
            assert_eq!(
                a.is_ok(),
                b.is_ok(),
                "stmt {i} '{stmt}': durable disagreed ({a:?} vs {b:?})"
            );
            assert_eq!(
                mem.database().state_image(),
                dur.database().state_image(),
                "stmt {i} '{stmt}': durable image diverged from in-memory"
            );
            // Reopen from the log after every statement: recovery must
            // reproduce the live durable image exactly.
            let rec = RuleSystem::open(cfg(&sink)).expect("recovery must succeed");
            assert_eq!(
                rec.database().state_image(),
                dur.database().state_image(),
                "stmt {i} '{stmt}': recovered image diverged"
            );
            // So must a snapshot taken now, through its JSON form.
            if dur.deferred_window().is_empty() {
                let json = dur.snapshot().expect("quiescent").to_json_string();
                let back = Snapshot::from_json_str(&json).expect("own snapshot parses");
                let restored = RuleSystem::restore(&back, EngineConfig::default())
                    .unwrap_or_else(|e| panic!("stmt {i} '{stmt}': restore failed: {e}"));
                assert_eq!(
                    restored.database().state_image(),
                    dur.database().state_image(),
                    "stmt {i} '{stmt}': snapshot round trip diverged"
                );
                assert_eq!(
                    restored.database().handles_issued(),
                    dur.database().handles_issued(),
                    "stmt {i} '{stmt}': snapshot round trip lost the handle high-water mark"
                );
            }
        }
        // Same rule firings and transaction outcomes on both engines.
        assert_eq!(mem.stats().rules_executed, dur.stats().rules_executed);
        assert_eq!(mem.stats().rules_considered, dur.stats().rules_considered);
        assert_eq!(mem.stats().txns_committed, dur.stats().txns_committed);
        assert_eq!(mem.stats().txns_rolled_back, dur.stats().txns_rolled_back);
    });
}

// ----------------------------------------------------------------------
// Checkpoints.
// ----------------------------------------------------------------------

fn checkpoint_config(sink: &SharedMemSink, every: u64) -> EngineConfig {
    EngineConfig {
        durability: Some(WalConfig::memory(sink.clone()).with_checkpoint_every(every)),
        ..Default::default()
    }
}

/// With a checkpoint after every commit: the image still recovers exactly
/// (checkpoint restore preserves tuple handles, dropped table-id slots,
/// and the handle high-water mark), and killing at ANY WAL site — commit
/// records and checkpoint records alike — leaves a log that recovers to
/// the live post-statement image. A checkpoint fault is absorbed: the
/// commit it follows stays committed.
#[test]
fn checkpoint_kill_sweep_recovers_live_image_at_every_site() {
    let scenario = &SCENARIOS[0];
    let run_setup = |sys: &mut RuleSystem| {
        for stmt in scenario.setup {
            sys.execute(stmt).unwrap();
        }
        sys.fault_injector_mut().reset_counts();
    };

    // Discovery with checkpoints on.
    let sink = SharedMemSink::new();
    let mut sys = RuleSystem::open(checkpoint_config(&sink, 1)).unwrap();
    run_setup(&mut sys);
    for stmt in scenario.workload {
        sys.transaction(stmt).unwrap();
    }
    assert!(sys.stats().checkpoints > 0, "checkpoint_every=1 must write checkpoints");
    let final_image = sys.database().state_image();
    let handles = sys.database().handles_issued();
    let totals: Vec<(FaultKind, u64)> = WAL_KINDS
        .iter()
        .map(|&k| (k, sys.fault_injector().count(k)))
        .filter(|&(_, c)| c > 0)
        .collect();
    drop(sys);
    let rec = reopen(&sink);
    assert_eq!(rec.database().state_image(), final_image, "checkpointed log must recover");
    assert_eq!(
        rec.database().handles_issued(),
        handles,
        "checkpoint restore must preserve the handle high-water mark"
    );
    drop(rec);

    // Kill sweep: after every statement — faulted or not — the log must
    // recover to whatever the live system now holds.
    for &(kind, total) in &totals {
        for n in sites(total) {
            let sink = SharedMemSink::new();
            let mut sys = RuleSystem::open(checkpoint_config(&sink, 1)).unwrap();
            run_setup(&mut sys);
            sys.fault_injector_mut().arm(kind, n);
            let ctx = format!("[checkpoint {} kind={kind} n={n}]", scenario.name);
            for (i, stmt) in scenario.workload.iter().enumerate() {
                match sys.transaction(stmt) {
                    Ok(_) => {}
                    Err(e) => {
                        let got = fault_of(&e)
                            .unwrap_or_else(|| panic!("{ctx} stmt {i}: unexpected error {e}"));
                        assert_eq!(got, (kind, n), "{ctx} stmt {i}");
                    }
                }
                let rec = reopen(&sink);
                assert_eq!(
                    rec.database().state_image(),
                    sys.database().state_image(),
                    "{ctx} stmt {i}: log does not recover to the live image"
                );
            }
        }
    }
}

/// A dropped table leaves a dead `TableId` slot; a checkpoint taken
/// afterwards must keep that slot on restore so surviving tables keep
/// their ids (state_image prints them). The second input names a live
/// table after the slot it precedes, `__dropped_1`, which a restore that
/// filled the slot with a named placeholder table would collide with.
#[test]
fn checkpoint_preserves_dropped_table_id_slots_and_rule_state() {
    for head in ["head", "__dropped_1"] {
        let sink = SharedMemSink::new();
        let mut sys = RuleSystem::open(checkpoint_config(&sink, 1)).unwrap();
        sys.execute(&format!("create table {head} (x int)")).unwrap();
        sys.execute("create table scratch (x int)").unwrap();
        sys.execute("create table t (k int, v float)").unwrap();
        sys.execute("create table log (k int)").unwrap();
        sys.execute("insert into scratch values (7)").unwrap();
        sys.execute("drop table scratch").unwrap();
        sys.execute(
            "create rule audit when deleted from t then insert into log (select k from deleted t)",
        )
        .unwrap();
        sys.execute(
            "create rule noisy when inserted into t then insert into log (select k from inserted t)",
        )
        .unwrap();
        sys.execute("deactivate rule noisy").unwrap();
        sys.execute("create rule priority audit before noisy").unwrap();
        sys.execute("insert into t values (1, 1.5), (2, 2.5)").unwrap();
        sys.execute("delete from t where k = 1").unwrap(); // fires audit; commit writes a checkpoint
        let image = sys.database().state_image();
        let handles = sys.database().handles_issued();

        // The same image through snapshot/restore and its JSON form.
        let json = sys.snapshot().unwrap().to_json_string();
        let snap = Snapshot::from_json_str(&json).unwrap();
        let restored = RuleSystem::restore(&snap, EngineConfig::default())
            .unwrap_or_else(|e| panic!("[{head}] restore failed: {e}"));
        assert_eq!(restored.database().state_image(), image, "[{head}] snapshot round trip");
        assert_eq!(restored.database().handles_issued(), handles, "[{head}]");

        let mut rec = RuleSystem::open(checkpoint_config(&sink, 1))
            .unwrap_or_else(|e| panic!("[{head}] recovery failed: {e}"));
        assert_eq!(rec.database().state_image(), image, "[{head}]");
        assert_eq!(rec.database().handles_issued(), handles, "[{head}]");
        assert!(rec.rule("audit").is_some());
        assert!(!rec.rule("noisy").unwrap().active, "deactivation must survive the checkpoint");
        assert_eq!(rec.priority_pairs(), vec![("audit".to_string(), "noisy".to_string())]);
        // The restored system keeps working: the audit rule still fires,
        // and a new table takes the next unused id.
        rec.execute("delete from t where k = 2").unwrap();
        assert_eq!(
            rec.query("select count(*) from log").unwrap().scalar().unwrap().as_i64(),
            Some(2)
        );
        rec.execute("create table fresh (x int)").unwrap();
        assert!(rec.database().state_image().contains("table fresh (id 4)"), "[{head}]");
    }
}

// ----------------------------------------------------------------------
// Graceful rollbacks, deferred processing, DDL, misc semantics.
// ----------------------------------------------------------------------

/// A rule-requested rollback on a live (non-crashed) durable system: the
/// transaction contributes nothing to the recovered image, and under
/// sync-per-record the already-durable records are neutralized by an
/// explicit Abort marker.
#[test]
fn graceful_rollback_is_absent_from_the_recovered_image() {
    for sync in [SyncPolicy::GroupCommit, SyncPolicy::EachRecord] {
        let sink = SharedMemSink::new();
        let mut sys = RuleSystem::open(durable_config(&sink, sync)).unwrap();
        sys.execute("create table t (k int, v float)").unwrap();
        sys.execute(
            "create rule cap when updated t.v \
             if exists (select * from new updated t.v where v > 100.0) then rollback",
        )
        .unwrap();
        sys.execute("insert into t values (1, 50.0)").unwrap();
        let committed = sys.database().state_image();

        let out = sys.transaction("update t set v = 500.0 where k = 1").unwrap();
        assert!(!out.committed(), "cap must roll the transaction back");
        assert_eq!(sys.database().state_image(), committed);

        if sync == SyncPolicy::EachRecord {
            let (records, _) = scan(&sink.bytes());
            assert!(
                records.iter().any(|r| matches!(r, WalRecord::Abort { .. })),
                "sync-per-record graceful rollback must write an Abort marker"
            );
        }
        drop(sys);
        let mut rec = reopen(&sink);
        assert_eq!(rec.database().state_image(), committed, "{sync:?}: rollback leaked");
        // Handles burned by the rolled-back update's transaction stay
        // burned: new inserts must not collide with recycled handles.
        rec.execute("insert into t values (2, 60.0)").unwrap();
        assert_eq!(rec.query("select count(*) from t").unwrap().scalar().unwrap().as_i64(), Some(2));
    }
}

/// Deferred processing on a durable system: the flat external
/// transactions and the later rule-processing pass each recover exactly,
/// and the in-memory deferred *window* is durable too — each flat commit
/// logs the composed window as a `DeferredWindow` record, so a pending
/// `process_deferred` survives a crash (see the kill sweep below).
#[test]
fn deferred_processing_commits_are_durable() {
    let sink = SharedMemSink::new();
    let mut sys = RuleSystem::open(durable_config(&sink, SyncPolicy::GroupCommit)).unwrap();
    sys.execute("create table emp (name text, emp_no int, salary float, dept_no int)").unwrap();
    sys.execute("create table dept (dept_no int, mgr_no int)").unwrap();
    sys.execute(
        "create rule r31 when deleted from dept \
         then delete from emp where dept_no in (select dept_no from deleted dept)",
    )
    .unwrap();
    sys.execute("insert into dept values (1, 10)").unwrap();
    sys.execute("insert into emp values ('a', 1, 10.0, 1)").unwrap();
    sys.transaction_without_rules("delete from dept where dept_no = 1").unwrap();
    // The flat transaction is durable before rules ever run.
    assert_eq!(reopen(&sink).database().state_image(), sys.database().state_image());

    sys.process_deferred().unwrap();
    assert_eq!(
        sys.query("select count(*) from emp").unwrap().scalar().unwrap().as_i64(),
        Some(0),
        "r31's deferred action must fire"
    );
    assert_eq!(reopen(&sink).database().state_image(), sys.database().state_image());
}

/// The §5.3 scenario the deferred-window sweep runs: flat transactions
/// accumulate a window, a later `process_deferred` fires r31 against it.
struct DeferredScenario {
    setup: &'static [&'static str],
    flat: &'static [&'static str],
}

const DEFERRED_SCENARIO: DeferredScenario = DeferredScenario {
    setup: &[
        "create table emp (name text, emp_no int, salary float, dept_no int)",
        "create table dept (dept_no int, mgr_no int)",
        "create rule r31 when deleted from dept \
         then delete from emp where dept_no in (select dept_no from deleted dept)",
        "insert into dept values (1, 10), (2, 20)",
        "insert into emp values ('a', 1, 10.0, 1), ('b', 2, 10.0, 1), ('c', 3, 10.0, 2)",
    ],
    // Two flat transactions so the second *composes* onto a non-empty
    // logged window (delete + an update whose old tuple rides along).
    flat: &[
        "delete from dept where dept_no = 1",
        "update emp set salary = 11.5 where name = 'c'",
    ],
};

fn fresh_deferred(sink: &SharedMemSink, sync: SyncPolicy) -> RuleSystem {
    let mut sys = RuleSystem::open(durable_config(sink, sync)).expect("open durable");
    for stmt in DEFERRED_SCENARIO.setup {
        sys.execute(stmt).unwrap();
    }
    sys.fault_injector_mut().reset_counts();
    sys
}

/// Crash between `transaction_without_rules` and `process_deferred`: the
/// recovered system must hold the pending window *byte-identically* —
/// same handles, same old tuples (bit-exact floats), same column sets —
/// and running `process_deferred` on it must land exactly where the
/// crash-free run does.
#[test]
fn deferred_window_survives_crash_before_process_deferred() {
    for sync in [SyncPolicy::GroupCommit, SyncPolicy::EachRecord] {
        // Crash-free run for the expected final image.
        let sink = SharedMemSink::new();
        let mut sys = fresh_deferred(&sink, sync);
        for stmt in DEFERRED_SCENARIO.flat {
            sys.transaction_without_rules(stmt).unwrap();
        }
        let pending = sys.deferred_window().clone();
        assert!(!pending.is_empty(), "scenario must accumulate a window");
        assert!(!pending.del.is_empty() && !pending.upd.is_empty());
        sys.process_deferred().unwrap();
        assert!(sys.deferred_window().is_empty());
        assert_eq!(
            sys.query("select count(*) from emp").unwrap().scalar().unwrap().as_i64(),
            Some(1),
            "[{sync:?}] r31's deferred cascade must fire"
        );
        let final_image = sys.database().state_image();
        drop(sys);

        // Crashing run: "kill" the process after the flat transactions.
        let sink = SharedMemSink::new();
        let mut sys = fresh_deferred(&sink, sync);
        for stmt in DEFERRED_SCENARIO.flat {
            sys.transaction_without_rules(stmt).unwrap();
        }
        assert_eq!(sys.deferred_window(), &pending);
        let committed = sys.database().state_image();
        drop(sys); // CRASH before process_deferred

        let mut rec = reopen(&sink);
        assert_eq!(rec.database().state_image(), committed, "[{sync:?}] data lost");
        assert_eq!(
            rec.deferred_window(),
            &pending,
            "[{sync:?}] recovered deferred window is not byte-identical"
        );
        rec.process_deferred().unwrap();
        assert_eq!(
            rec.database().state_image(),
            final_image,
            "[{sync:?}] deferred pass after recovery diverged from the crash-free run"
        );
        // The cleared window is durable too: a second crash must not
        // re-present (and re-fire) the already-processed work.
        assert!(rec.deferred_window().is_empty());
        drop(rec);
        let rec2 = reopen(&sink);
        assert!(rec2.deferred_window().is_empty(), "[{sync:?}] processed window reappeared");
        assert_eq!(rec2.database().state_image(), final_image);
    }
}

/// Kill the engine at EVERY WAL site reachable from the deferred
/// workload — the flat transactions (which log the window) and the
/// `process_deferred` pass (which logs its clearing) — and assert the
/// reopened system always recovers the committed image plus exactly the
/// deferred window the live system held, then completes the workload to
/// the crash-free final image.
#[test]
fn deferred_window_kill_sweep_at_every_wal_site() {
    for sync in [SyncPolicy::GroupCommit, SyncPolicy::EachRecord] {
        // Discovery: crash-free run, counting WAL fault sites.
        let sink = SharedMemSink::new();
        let mut sys = fresh_deferred(&sink, sync);
        for stmt in DEFERRED_SCENARIO.flat {
            sys.transaction_without_rules(stmt).unwrap();
        }
        let pending = sys.deferred_window().clone();
        sys.process_deferred().unwrap();
        let final_image = sys.database().state_image();
        let totals: Vec<(FaultKind, u64)> = WAL_KINDS
            .iter()
            .map(|&k| (k, sys.fault_injector().count(k)))
            .filter(|&(_, c)| c > 0)
            .collect();
        assert_eq!(totals.len(), 2, "deferred workload must append and sync");
        drop(sys);

        for &(kind, total) in &totals {
            for n in sites(total) {
                let ctx = format!("[deferred {sync:?} kind={kind} n={n}]");
                let sink = SharedMemSink::new();
                let mut sys = fresh_deferred(&sink, sync);
                sys.fault_injector_mut().arm(kind, n);

                // Run the flat transactions until the fault fires (or not).
                let mut faulted = false;
                for stmt in DEFERRED_SCENARIO.flat {
                    let before_img = sys.database().state_image();
                    let before_win = sys.deferred_window().clone();
                    if let Err(e) = sys.transaction_without_rules(stmt) {
                        let got = fault_of(&e)
                            .unwrap_or_else(|| panic!("{ctx}: unexpected error {e}"));
                        assert_eq!(got, (kind, n), "{ctx}: wrong fault");
                        // Flat-txn crash: data rolled back, window untouched.
                        assert_eq!(sys.database().state_image(), before_img, "{ctx}");
                        assert_eq!(sys.deferred_window(), &before_win, "{ctx}: window leaked");
                        faulted = true;
                        break;
                    }
                }
                if !faulted {
                    // Fault lands inside process_deferred. First verify the
                    // acceptance scenario: a reopen HERE — between the flat
                    // transactions and the deferred pass — re-presents the
                    // window byte-identically.
                    assert_eq!(sys.deferred_window(), &pending, "{ctx}");
                    let committed = sys.database().state_image();
                    {
                        let rec = reopen(&sink);
                        assert_eq!(rec.database().state_image(), committed, "{ctx}");
                        assert_eq!(
                            rec.deferred_window(),
                            &pending,
                            "{ctx}: window lost between flat txn and process_deferred"
                        );
                    }
                    let e = match sys.process_deferred() {
                        Err(e) => e,
                        Ok(_) => panic!("{ctx}: armed WAL site was never reached"),
                    };
                    let got =
                        fault_of(&e).unwrap_or_else(|| panic!("{ctx}: unexpected error {e}"));
                    assert_eq!(got, (kind, n), "{ctx}: wrong fault");
                    // The dying pass rolled its rule actions back. The
                    // live window depends on where the site sat: faults
                    // before the engine takes the window (the `Begin` or
                    // the clearing-record append) leave it pending
                    // untouched, faults after are consumed in memory
                    // (pinned semantics, see tests/fault_injection.rs) —
                    // recovery re-presents the full window either way.
                    assert_eq!(sys.database().state_image(), committed, "{ctx}");
                    let live = sys.deferred_window();
                    assert!(
                        live.is_empty() || live == &pending,
                        "{ctx}: live window after a failed deferred pass must be \
                         empty (consumed) or the untouched pending window"
                    );
                }

                // CRASH at the armed site: the recovered image must match
                // the live committed image, and the recovered window must
                // be the one that image still owes a deferred pass — the
                // live window for a flat-txn crash, the full pending
                // window (re-presented) for a process_deferred crash.
                let live_img = sys.database().state_image();
                let expected_win =
                    if faulted { sys.deferred_window().clone() } else { pending.clone() };
                drop(sys);
                let mut rec = reopen(&sink);
                assert_eq!(rec.database().state_image(), live_img, "{ctx}: image diverged");
                assert_eq!(rec.deferred_window(), &expected_win, "{ctx}: window diverged");

                // Completion: rerun the whole deferred workload on the
                // recovered system (flat statements are idempotent here
                // only as a set — instead, run the *remaining* work: any
                // flat statement not yet committed, then the pass).
                let done = count_flat_commits(&sink);
                for stmt in &DEFERRED_SCENARIO.flat[done..] {
                    rec.transaction_without_rules(stmt)
                        .unwrap_or_else(|e| panic!("{ctx}: continuation failed: {e}"));
                }
                assert_eq!(rec.deferred_window(), &pending, "{ctx}: continuation window");
                rec.process_deferred().unwrap_or_else(|e| panic!("{ctx}: deferred failed: {e}"));
                assert_eq!(
                    rec.database().state_image(),
                    final_image,
                    "{ctx}: continuation diverged from the crash-free run"
                );
                assert!(rec.deferred_window().is_empty(), "{ctx}");
            }
        }
    }
}

/// How many of the scenario's flat transactions are committed in the
/// durable log: commits carrying a `DeferredWindow` record (the flat
/// path logs one whenever the window is or was non-empty).
fn count_flat_commits(sink: &SharedMemSink) -> usize {
    let (records, _) = scan(&sink.bytes());
    let mut open_has_window = false;
    let mut flat = 0;
    for r in &records {
        match r {
            WalRecord::Begin => open_has_window = false,
            WalRecord::DeferredWindow { .. } => open_has_window = true,
            WalRecord::Commit { .. } => {
                if open_has_window {
                    flat += 1;
                }
                open_has_window = false;
            }
            _ => {}
        }
    }
    flat
}

/// `clear_deferred` on a durable system is durable: the discarded window
/// must not reappear after recovery.
#[test]
fn clear_deferred_is_durable() {
    let sink = SharedMemSink::new();
    let mut sys = fresh_deferred(&sink, SyncPolicy::GroupCommit);
    sys.transaction_without_rules(DEFERRED_SCENARIO.flat[0]).unwrap();
    assert!(!sys.deferred_window().is_empty());
    sys.clear_deferred();
    let image = sys.database().state_image();
    drop(sys);
    let rec = reopen(&sink);
    assert!(rec.deferred_window().is_empty(), "cleared window reappeared after recovery");
    assert_eq!(rec.database().state_image(), image);
}

/// All DDL — tables, indexes, rules, activation, priorities, drops — is
/// durable the moment the statement returns.
#[test]
fn ddl_is_durable_immediately() {
    let sink = SharedMemSink::new();
    let mut sys = RuleSystem::open(durable_config(&sink, SyncPolicy::GroupCommit)).unwrap();
    let ddl = [
        "create table t (k int, v float)",
        "create table log (k int)",
        "create table gone (x int)",
        "create index on t (k)",
        "create index on t (v) using ordered",
        "drop index on t (v)",
        "drop table gone",
        "create rule audit when deleted from t then insert into log (select k from deleted t)",
        "create rule noisy when inserted into t then insert into log (select k from inserted t)",
        "deactivate rule noisy",
        "activate rule noisy",
        "deactivate rule noisy",
        "create rule priority audit before noisy",
        "drop rule noisy",
    ];
    for stmt in ddl {
        sys.execute(stmt).unwrap();
        let rec = reopen(&sink);
        assert_eq!(
            rec.database().state_image(),
            sys.database().state_image(),
            "after '{stmt}': recovered image diverged"
        );
    }
    let rec = reopen(&sink);
    assert!(rec.rule("audit").is_some());
    assert!(rec.rule("noisy").is_none(), "dropped rule must stay dropped after recovery");
    assert!(rec.priority_pairs().is_empty(), "priorities of dropped rules disappear");
}

/// External-action rules are native code and cannot be replayed from a
/// log; a durable system must refuse them up front.
#[test]
fn durable_systems_refuse_external_action_rules() {
    use setrules_core::{ActionCtx, ExternalAction};
    struct Noop;
    impl ExternalAction for Noop {
        fn run(&self, _ctx: &mut ActionCtx<'_>) -> Result<(), RuleError> {
            Ok(())
        }
    }
    let sink = SharedMemSink::new();
    let mut sys = RuleSystem::open(durable_config(&sink, SyncPolicy::GroupCommit)).unwrap();
    sys.execute("create table t (k int)").unwrap();
    let err = sys
        .create_rule_external("native", "inserted into t", None, std::sync::Arc::new(Noop))
        .unwrap_err();
    assert!(matches!(err, RuleError::Unsupported(_)), "got {err}");
    // A plain in-memory system still accepts them.
    let mut plain = RuleSystem::new();
    plain.execute("create table t (k int)").unwrap();
    plain.create_rule_external("native", "inserted into t", None, std::sync::Arc::new(Noop)).unwrap();
}

/// The observability surface: WAL counters tick, `wal_status` reports the
/// configuration and positions, and WalAppend events carry record kinds.
#[test]
fn wal_counters_status_and_events() {
    let sink = SharedMemSink::new();
    let mut sys = RuleSystem::open(durable_config(&sink, SyncPolicy::GroupCommit)).unwrap();
    assert!(RuleSystem::new().wal_status().is_none(), "in-memory system has no WAL status");

    sys.execute("create table t (k int)").unwrap();
    sys.execute("insert into t values (1), (2)").unwrap();
    assert!(sys.stats().wal_appends >= 4, "ddl + begin + 2 inserts + commit");
    assert!(sys.stats().wal_syncs >= 2, "one per DDL, one per transaction");

    let status = sys.wal_status().expect("durable system has WAL status");
    assert_eq!(status.get("sync_policy").unwrap().as_str(), Some("group_commit"));
    assert_eq!(status.get("buffered_len").unwrap().as_i64(), Some(0));
    assert_eq!(
        status.get("synced_len").unwrap().as_i64(),
        Some(sink.bytes().len() as i64),
        "everything appended is synced at quiescence"
    );
    assert_eq!(
        status.get("wal_appends").unwrap().as_i64(),
        Some(sys.stats().wal_appends as i64)
    );

    let kinds: Vec<String> = sys
        .recent_events()
        .iter()
        .filter_map(|ev| match ev {
            EngineEvent::WalAppend { kind } => Some(kind.clone()),
            _ => None,
        })
        .collect();
    assert!(kinds.contains(&"table_ddl".to_string()));
    assert!(kinds.contains(&"begin".to_string()));
    assert!(kinds.contains(&"insert".to_string()));
    assert!(kinds.contains(&"commit".to_string()));

    drop(sys);
    let rec = reopen(&sink);
    assert!(rec.stats().wal_replayed_records >= 5);
    let status = rec.wal_status().unwrap();
    assert_eq!(
        status.get("wal_replayed_records").unwrap().as_i64(),
        Some(rec.stats().wal_replayed_records as i64)
    );
}

/// Float payloads round-trip bit-exactly through log records (the codec
/// stores IEEE-754 bits, not JSON numbers).
#[test]
fn float_tuples_recover_bit_exactly() {
    let sink = SharedMemSink::new();
    let mut sys = RuleSystem::open(durable_config(&sink, SyncPolicy::GroupCommit)).unwrap();
    sys.execute("create table t (k int, v float)").unwrap();
    sys.execute("insert into t values (1, 0.1), (2, 2.0), (3, 1e300)").unwrap();
    sys.execute("update t set v = v / 3.0 where k = 1").unwrap();
    let image = sys.database().state_image();
    drop(sys);
    assert_eq!(reopen(&sink).database().state_image(), image);
}

// ----------------------------------------------------------------------
// FileSink: the same contracts against a real filesystem (ROADMAP item:
// fsync-ordering tests for the file-backed sink).
// ----------------------------------------------------------------------

/// A unique log path under the OS temp dir; any stale file is removed.
fn temp_wal_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("setrules-wal-{tag}-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn file_config(path: &std::path::Path, sync: SyncPolicy) -> EngineConfig {
    EngineConfig {
        durability: Some(WalConfig::path(path).with_sync(sync)),
        ..Default::default()
    }
}

/// Under both sync policies, a file-backed log receives byte-for-byte
/// what the instrumented memory sink receives for the same workload —
/// i.e. append ordering survives the buffering of `GroupCommit` — and
/// the engine's `wal_syncs` counter equals the number of sink-level
/// `sync` calls actually issued.
#[test]
fn file_sink_bytes_and_sync_schedule_match_memory_sink() {
    let scenario = &SCENARIOS[0]; // example_3_1: inserts + a cascaded delete
    for sync in [SyncPolicy::GroupCommit, SyncPolicy::EachRecord] {
        let path = temp_wal_path(&format!("bytes-{sync:?}"));
        let sink = SharedMemSink::new();
        let mut fs_sys = RuleSystem::open(file_config(&path, sync)).unwrap();
        let mut mem_sys = RuleSystem::open(durable_config(&sink, sync)).unwrap();
        for stmt in scenario.setup {
            fs_sys.execute(stmt).unwrap();
            mem_sys.execute(stmt).unwrap();
        }
        for stmt in scenario.workload {
            fs_sys.transaction(stmt).unwrap();
            mem_sys.transaction(stmt).unwrap();
        }

        // Identical append ordering ⇒ identical bytes on disk.
        let disk = std::fs::read(&path).unwrap();
        assert!(!disk.is_empty(), "[{sync:?}] log file must have content");
        assert_eq!(disk, sink.bytes(), "[{sync:?}] file bytes diverge from the memory sink");

        // The on-disk frames parse back whole: no torn tail after a
        // graceful run, and the commits are present.
        let (recs, valid) = scan(&disk);
        assert_eq!(valid, disk.len() as u64, "[{sync:?}] trailing garbage in the file log");
        let commits = recs.iter().filter(|r| matches!(r, WalRecord::Commit { .. })).count();
        assert!(
            commits >= scenario.workload.len(),
            "[{sync:?}] at least one commit per workload transaction"
        );

        // `wal_syncs` counts real sink syncs — the instrumented sink saw
        // exactly that many, and the file engine (same policy, same
        // workload) reports the same schedule.
        assert_eq!(
            mem_sys.stats().wal_syncs,
            sink.syncs(),
            "[{sync:?}] wal_syncs must equal observed sink syncs"
        );
        assert_eq!(
            fs_sys.stats().wal_syncs,
            sink.syncs(),
            "[{sync:?}] file engine's sync schedule diverges"
        );
        match sync {
            // One sync per committed transaction (plus none for setup-free
            // reads): group commit batches each txn's records.
            SyncPolicy::GroupCommit => assert!(
                fs_sys.stats().wal_syncs >= scenario.workload.len() as u64,
                "[{sync:?}] at least one sync per transaction"
            ),
            // Every record forced out individually: strictly more syncs
            // than group commit needs for the same workload.
            SyncPolicy::EachRecord => assert!(
                fs_sys.stats().wal_syncs > scenario.workload.len() as u64,
                "[{sync:?}] per-record syncing must sync more than once per txn"
            ),
        }

        drop(fs_sys);
        let _ = std::fs::remove_file(&path);
    }
}

/// Dropping the engine and reopening from the file recovers the exact
/// committed image — the file-backed twin of the memory-sink reopen
/// tests above.
#[test]
fn file_sink_reopen_recovers_committed_image() {
    let scenario = &SCENARIOS[0];
    let path = temp_wal_path("reopen");
    let mut sys = RuleSystem::open(file_config(&path, SyncPolicy::GroupCommit)).unwrap();
    for stmt in scenario.setup {
        sys.execute(stmt).unwrap();
    }
    for stmt in scenario.workload {
        assert!(sys.transaction(stmt).unwrap().committed());
    }
    let committed = sys.database().state_image();
    drop(sys); // "process exit": only the file survives

    let rec = RuleSystem::open(file_config(&path, SyncPolicy::GroupCommit)).unwrap();
    assert_eq!(
        rec.database().state_image(),
        committed,
        "file recovery must restore the committed image"
    );
    assert!(rec.stats().wal_replayed_records > 0, "recovery must actually replay the file");
    drop(rec);
    let _ = std::fs::remove_file(&path);
}

/// A torn tail on disk (a partial final frame, as after a mid-write
/// crash) is ignored by file recovery exactly as by memory recovery:
/// the intact prefix replays, the tail is discarded.
#[test]
fn file_sink_recovery_survives_torn_tail() {
    let path = temp_wal_path("torn");
    let mut sys = RuleSystem::open(file_config(&path, SyncPolicy::GroupCommit)).unwrap();
    sys.execute("create table t (k int)").unwrap();
    sys.transaction("insert into t values (1)").unwrap();
    let committed = sys.database().state_image();
    sys.transaction("insert into t values (2)").unwrap();
    drop(sys);

    // Tear the file mid-way through the last transaction's frames: cut
    // back to the penultimate commit boundary plus a few stray bytes.
    let full = std::fs::read(&path).unwrap();
    let (all, valid) = scan(&full);
    assert_eq!(valid, full.len() as u64);
    let total = all.iter().filter(|r| matches!(r, WalRecord::Commit { .. })).count();
    let mut cut = None;
    for len in 1..=full.len() {
        let (recs, v) = scan(&full[..len]);
        if v == len as u64
            && recs.iter().filter(|r| matches!(r, WalRecord::Commit { .. })).count() == total - 1
        {
            cut = Some(len);
            break;
        }
    }
    let cut = cut.expect("a prefix ending at the penultimate commit exists");
    let mut torn = full[..cut].to_vec();
    torn.extend_from_slice(&full[cut..cut + 3.min(full.len() - cut)]); // partial frame
    std::fs::write(&path, &torn).unwrap();

    let rec = RuleSystem::open(file_config(&path, SyncPolicy::GroupCommit)).unwrap();
    assert_eq!(
        rec.database().state_image(),
        committed,
        "torn-tail file recovery must keep exactly the committed prefix"
    );
    drop(rec);
    let _ = std::fs::remove_file(&path);
}
