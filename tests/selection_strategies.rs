//! Rule selection strategies (§4.4) observed through firing order.

use setrules_core::{
    EngineConfig, RuleError, RuleSystem, SelectionStrategy, SharedMemSink, WalConfig,
};
use setrules_testkit::Rng;

/// Build a system with three independent logging rules all triggered by
/// the same insert. The log table records firing order via a counter read
/// from the table itself.
fn three_rules(strategy: SelectionStrategy) -> RuleSystem {
    let mut sys = RuleSystem::with_config(EngineConfig { strategy, ..Default::default() });
    sys.execute("create table t (k int)").unwrap();
    sys.execute("create table log (rule_name text, seq int)").unwrap();
    for name in ["alpha", "beta", "gamma"] {
        sys.execute(&format!(
            "create rule {name} when inserted into t \
             then insert into log values ('{name}', (select count(*) from log))"
        ))
        .unwrap();
    }
    sys
}

fn firing_order(sys: &RuleSystem) -> Vec<String> {
    sys.query("select rule_name from log order by seq")
        .unwrap()
        .rows
        .into_iter()
        .map(|r| r[0].as_str().unwrap().to_string())
        .collect()
}

#[test]
fn creation_order_fires_in_creation_order() {
    let mut sys = three_rules(SelectionStrategy::CreationOrder);
    sys.transaction("insert into t values (1)").unwrap();
    assert_eq!(firing_order(&sys), vec!["alpha", "beta", "gamma"]);
}

#[test]
fn partial_order_respects_priorities() {
    let mut sys = three_rules(SelectionStrategy::PartialOrder);
    sys.execute("create rule priority gamma before alpha").unwrap();
    sys.execute("create rule priority alpha before beta").unwrap();
    sys.transaction("insert into t values (1)").unwrap();
    assert_eq!(firing_order(&sys), vec!["gamma", "alpha", "beta"]);
}

#[test]
fn partial_order_incomparable_rules_fall_back_to_creation_order() {
    let mut sys = three_rules(SelectionStrategy::PartialOrder);
    // Only beta < gamma declared; alpha incomparable to both.
    sys.execute("create rule priority gamma before beta").unwrap();
    sys.transaction("insert into t values (1)").unwrap();
    // Maximal set initially = {alpha, gamma}: alpha (created first) wins,
    // then gamma, then beta.
    assert_eq!(firing_order(&sys), vec!["alpha", "gamma", "beta"]);
}

#[test]
fn priority_cycle_rejected() {
    let mut sys = three_rules(SelectionStrategy::PartialOrder);
    sys.execute("create rule priority alpha before beta").unwrap();
    sys.execute("create rule priority beta before gamma").unwrap();
    let err = sys.execute("create rule priority gamma before alpha").unwrap_err();
    assert!(matches!(err, RuleError::PriorityCycle { .. }));
}

#[test]
fn priority_on_unknown_rule_rejected() {
    let mut sys = three_rules(SelectionStrategy::PartialOrder);
    let err = sys.execute("create rule priority alpha before nobody").unwrap_err();
    assert!(matches!(err, RuleError::NoSuchRule(_)));
}

/// Least-recently-considered rotates fairness across transactions.
#[test]
fn least_recently_considered_rotates() {
    let mut sys = three_rules(SelectionStrategy::LeastRecentlyConsidered);
    sys.transaction("insert into t values (1)").unwrap();
    // First txn: never-considered rules go in creation order.
    assert_eq!(firing_order(&sys), vec!["alpha", "beta", "gamma"]);
    sys.execute("delete from log").unwrap();
    sys.transaction("insert into t values (2)").unwrap();
    // Second txn: all were considered; oldest timestamps first — same
    // relative order (alpha considered least recently again).
    assert_eq!(firing_order(&sys), vec!["alpha", "beta", "gamma"]);
}

/// Most-recently-considered reverses that preference on the second
/// transaction.
#[test]
fn most_recently_considered_prefers_recent() {
    let mut sys = three_rules(SelectionStrategy::MostRecentlyConsidered);
    sys.transaction("insert into t values (1)").unwrap();
    assert_eq!(firing_order(&sys), vec!["alpha", "beta", "gamma"]);
    sys.execute("delete from log").unwrap();
    sys.transaction("insert into t values (2)").unwrap();
    // gamma was considered most recently in txn 1 → goes first now.
    assert_eq!(firing_order(&sys), vec!["gamma", "beta", "alpha"]);
}

/// Strategy changes are rejected mid-transaction.
#[test]
fn strategy_change_requires_no_txn() {
    let mut sys = three_rules(SelectionStrategy::CreationOrder);
    sys.begin().unwrap();
    assert!(matches!(
        sys.set_strategy(SelectionStrategy::PartialOrder),
        Err(RuleError::TransactionOpen)
    ));
    sys.rollback().unwrap();
    sys.set_strategy(SelectionStrategy::PartialOrder).unwrap();
}

/// §4.4's note that selection strategy can change the final state: a
/// one-slot table written by whichever rule goes first.
#[test]
fn strategy_affects_final_state() {
    let build = |strategy: SelectionStrategy, prio: Option<(&str, &str)>| -> String {
        let mut sys = RuleSystem::with_config(EngineConfig { strategy, ..Default::default() });
        sys.execute("create table t (k int)").unwrap();
        sys.execute("create table winner (name text)").unwrap();
        for name in ["first", "second"] {
            // Each rule claims the slot only if it is still empty.
            sys.execute(&format!(
                "create rule {name} when inserted into t \
                 if not exists (select * from winner) \
                 then insert into winner values ('{name}')"
            ))
            .unwrap();
        }
        if let Some((h, l)) = prio {
            sys.execute(&format!("create rule priority {h} before {l}")).unwrap();
        }
        sys.transaction("insert into t values (1)").unwrap();
        sys.query("select name from winner").unwrap().rows[0][0]
            .as_str()
            .unwrap()
            .to_string()
    };
    assert_eq!(build(SelectionStrategy::CreationOrder, None), "first");
    assert_eq!(
        build(SelectionStrategy::PartialOrder, Some(("second", "first"))),
        "second",
        "priorities flip the outcome"
    );
}

/// Rules in the priority storm below.
const STORM_RULES: usize = 64;

/// Define the storm: `g{i}` is triggered by any insert into `t` and fires
/// once `log` holds at least `need[i]` rows. The priority chain runs
/// against creation order (`g63` before `g62` … before `g0`), then random
/// extra pairs follow: those the chain implies are accepted, the others
/// close a cycle and are rejected.
fn build_storm(sys: &mut RuleSystem, need: &[usize], extra: &[(usize, usize)]) {
    sys.execute("create table t (k int)").unwrap();
    sys.execute("create table log (r int, seq int)").unwrap();
    for (i, n) in need.iter().enumerate() {
        sys.execute(&format!(
            "create rule g{i} when inserted into t \
             if (select count(*) from log) >= {n} \
             then insert into log values ({i}, (select count(*) from log))"
        ))
        .unwrap();
    }
    for i in 1..need.len() {
        sys.execute(&format!("create rule priority g{i} before g{}", i - 1)).unwrap();
    }
    for &(a, b) in extra {
        let res = sys.execute(&format!("create rule priority g{a} before g{b}"));
        if a > b {
            res.unwrap();
        } else {
            assert!(matches!(res, Err(RuleError::PriorityCycle { .. })), "g{a} before g{b}: {res:?}");
        }
    }
}

/// The Figure 1 loop over the storm under a total order: consider the
/// highest unconsidered, unfired rule; a firing adds one `log` row and
/// makes every other rule a candidate again. Returns the firing trace and
/// the number of considerations.
fn storm_model(need: &[usize]) -> (Vec<String>, u64) {
    let mut fired = vec![false; need.len()];
    let mut considered = vec![false; need.len()];
    let (mut trace, mut considerations) = (Vec::new(), 0);
    while let Some(i) = (0..need.len()).rev().find(|&i| !fired[i] && !considered[i]) {
        considerations += 1;
        if trace.len() >= need[i] {
            fired[i] = true;
            trace.push(format!("g{i}"));
            considered.fill(false);
        } else {
            considered[i] = true;
        }
    }
    (trace, considerations)
}

fn run_storm(sys: &mut RuleSystem) -> (Vec<String>, u64) {
    let out = sys.transaction("insert into t values (1)").unwrap();
    let trace = out.fired().iter().map(|f| f.rule.clone()).collect();
    (trace, out.stats().engine.rules_considered)
}

/// Selection at storm scale: 64 triggered rules, every priority pair
/// declared against creation order, so each selection's maximal candidate
/// is the last one created. The exact trace and consideration count
/// match the model, and stay the same on a system restored from a
/// snapshot and on one reopened from its log (both replay the priorities
/// one `create rule priority` at a time).
#[test]
fn reverse_priority_chain_storm_matches_model() {
    let mut rng = Rng::new(0x5E1EC7);
    let need: Vec<usize> = (0..STORM_RULES).map(|_| rng.below(24)).collect();
    let extra: Vec<(usize, usize)> = (0..48)
        .map(|_| (rng.below(STORM_RULES), rng.below(STORM_RULES)))
        .filter(|(a, b)| a != b)
        .collect();
    let expected = storm_model(&need);
    assert_eq!(expected.0.len(), STORM_RULES, "every rule fires once: {:?}", expected.0);
    assert!(expected.1 > 4 * STORM_RULES as u64, "and reconsiders: {}", expected.1);

    let mut plain = RuleSystem::new();
    build_storm(&mut plain, &need, &extra);
    assert_eq!(run_storm(&mut plain), expected, "in-memory system");

    let sink = SharedMemSink::new();
    let durable = EngineConfig {
        durability: Some(WalConfig::memory(sink.clone())),
        ..Default::default()
    };
    let mut sys = RuleSystem::open(durable.clone()).unwrap();
    build_storm(&mut sys, &need, &extra);
    let snap = sys.snapshot().unwrap();
    drop(sys);
    let mut reopened = RuleSystem::open(durable).unwrap();
    assert_eq!(run_storm(&mut reopened), expected, "reopened from the log");
    let mut restored = RuleSystem::restore(&snap, EngineConfig::default()).unwrap();
    assert_eq!(run_storm(&mut restored), expected, "restored from a snapshot");
}
