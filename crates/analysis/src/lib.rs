//! # setrules-analysis
//!
//! Static analysis of set-oriented production rule sets — the §6 "future
//! work" of Widom & Finkelstein (SIGMOD 1990), built here: a triggering
//! graph over the defined rules, SCC-based warnings for potential infinite
//! loops (footnote 7), and order-dependence warnings for unordered rule
//! pairs whose actions interfere (§4.4/§6).
//!
//! What each rule may write and read comes from the engine crate's
//! [`Rule::footprint`](setrules_core::Rule::footprint) (re-exported here
//! with [`ActionEvent`] and [`Footprint`]); this crate only builds the
//! graph and the warnings over those footprints.
//!
//! ```
//! use setrules_core::RuleSystem;
//! use setrules_analysis::analyze;
//!
//! let mut sys = RuleSystem::new();
//! sys.execute("create table t (v int)").unwrap();
//! sys.execute("create rule bump when updated t.v then update t set v = v + 1").unwrap();
//! let report = analyze(&sys);
//! assert_eq!(report.loops.len(), 1, "bump can trigger itself forever");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod report;

pub use graph::TriggerGraph;
pub use report::{analyze, AnalysisReport, ConflictKind, ConflictWarning, LoopWarning};
pub use setrules_core::{ActionEvent, Footprint};

#[cfg(test)]
mod tests {
    use super::*;
    use setrules_core::RuleSystem;

    fn base() -> RuleSystem {
        let mut sys = RuleSystem::new();
        sys.execute("create table t (k int, v int)").unwrap();
        sys.execute("create table u (k int)").unwrap();
        sys.execute("create table log (k int)").unwrap();
        sys
    }

    #[test]
    fn self_loop_detected() {
        let mut sys = base();
        sys.execute("create rule bump when updated t.v then update t set v = v + 1").unwrap();
        let g = TriggerGraph::build(&sys);
        let id = sys.rule("bump").unwrap().id;
        assert!(g.triggers(id, id));
        let report = analyze(&sys);
        assert_eq!(report.loops.len(), 1);
        assert_eq!(report.loops[0].rules, vec!["bump"]);
    }

    #[test]
    fn column_granularity_avoids_false_self_loop() {
        let mut sys = base();
        // Watches t.v but writes only t.k: no self-loop.
        sys.execute("create rule safe when updated t.v then update t set k = k + 1").unwrap();
        let report = analyze(&sys);
        assert!(report.loops.is_empty(), "{report}");
    }

    #[test]
    fn two_rule_cycle_detected() {
        let mut sys = base();
        sys.execute("create rule ping when inserted into t then insert into u values (1)").unwrap();
        sys.execute("create rule pong when inserted into u then insert into t values (1, 1)").unwrap();
        let report = analyze(&sys);
        assert_eq!(report.loops.len(), 1);
        let mut rules = report.loops[0].rules.clone();
        rules.sort();
        assert_eq!(rules, vec!["ping", "pong"]);
    }

    #[test]
    fn acyclic_chain_is_clean_of_loops() {
        let mut sys = base();
        sys.execute("create rule a when inserted into t then insert into u values (1)").unwrap();
        sys.execute("create rule b when inserted into u then insert into log values (1)").unwrap();
        let report = analyze(&sys);
        assert!(report.loops.is_empty(), "{report}");
        let g = TriggerGraph::build(&sys);
        let (a, b) = (sys.rule("a").unwrap().id, sys.rule("b").unwrap().id);
        assert!(g.triggers(a, b));
        assert!(!g.triggers(b, a));
    }

    #[test]
    fn delete_insert_predicates_do_not_cross_match() {
        let mut sys = base();
        // Action deletes from t; watcher watches inserts into t — no edge.
        sys.execute("create rule a when inserted into u then delete from t").unwrap();
        sys.execute("create rule b when inserted into t then insert into log values (1)").unwrap();
        let g = TriggerGraph::build(&sys);
        let (a, b) = (sys.rule("a").unwrap().id, sys.rule("b").unwrap().id);
        assert!(!g.triggers(a, b));
    }

    #[test]
    fn write_write_conflict_reported_and_silenced_by_priority() {
        let mut sys = base();
        sys.execute("create rule w1 when inserted into t then update u set k = 1").unwrap();
        sys.execute("create rule w2 when inserted into t then delete from u").unwrap();
        let report = analyze(&sys);
        assert_eq!(report.conflicts.len(), 1);
        assert_eq!(report.conflicts[0].kind, ConflictKind::WriteWrite);
        assert_eq!(report.conflicts[0].tables, vec!["u"]);

        sys.execute("create rule priority w1 before w2").unwrap();
        let report = analyze(&sys);
        assert!(report.conflicts.is_empty(), "ordered rules do not conflict: {report}");
    }

    #[test]
    fn write_read_conflict_reported() {
        let mut sys = base();
        sys.execute("create rule writer when inserted into t then insert into u values (1)").unwrap();
        sys.execute(
            "create rule reader when inserted into t \
             if exists (select * from u) then insert into log values (1)",
        )
        .unwrap();
        let report = analyze(&sys);
        assert!(report
            .conflicts
            .iter()
            .any(|c| c.kind == ConflictKind::WriteRead && c.tables.contains(&"u".to_string())));
    }

    #[test]
    fn rollback_ordering_conflict() {
        let mut sys = base();
        // Conditional rollback: the worker's writes could flip the guard's
        // condition, so order matters.
        sys.execute(
            "create rule guard when inserted into t              if exists (select * from log) then rollback",
        )
        .unwrap();
        sys.execute("create rule worker when inserted into t then insert into log values (1)").unwrap();
        let report = analyze(&sys);
        assert!(report.conflicts.iter().any(|c| c.kind == ConflictKind::RollbackOrdering));
    }

    #[test]
    fn unconditional_rollback_is_not_a_conflict() {
        let mut sys = base();
        // This guard fires no matter what the worker does: order is moot.
        sys.execute("create rule guard when inserted into t then rollback").unwrap();
        sys.execute("create rule worker when inserted into t then insert into log values (1)").unwrap();
        let report = analyze(&sys);
        assert!(
            !report.conflicts.iter().any(|c| c.kind == ConflictKind::RollbackOrdering),
            "{report}"
        );
    }

    #[test]
    fn independent_rules_are_clean() {
        let mut sys = base();
        sys.execute("create rule a when inserted into t then insert into u values (1)").unwrap();
        sys.execute("create rule b when deleted from t then insert into log values (1)").unwrap();
        // a writes u, b writes log; both only read t (via predicates):
        // no interference.
        let report = analyze(&sys);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn external_action_is_opaque() {
        let mut sys = base();
        sys.create_rule_external(
            "native",
            "inserted into t",
            None,
            std::sync::Arc::new(|_: &mut setrules_core::ActionCtx<'_>| Ok(())),
        )
        .unwrap();
        sys.execute("create rule b when inserted into u then insert into log values (1)").unwrap();
        let g = TriggerGraph::build(&sys);
        let (n, b) = (sys.rule("native").unwrap().id, sys.rule("b").unwrap().id);
        assert!(g.triggers(n, b), "opaque actions may trigger anything");
    }

    #[test]
    fn dot_export() {
        let mut sys = base();
        sys.execute("create rule ping when inserted into t then insert into u values (1)").unwrap();
        sys.execute("create rule guard when inserted into u then rollback").unwrap();
        let dot = TriggerGraph::build(&sys).to_dot();
        assert!(dot.starts_with("digraph triggering {"), "{dot}");
        assert!(dot.contains("label=\"ping\", shape=box"), "{dot}");
        assert!(dot.contains("label=\"guard\", shape=octagon"), "{dot}");
        assert!(dot.contains("0 -> 1;"), "ping (id 0) triggers guard (id 1): {dot}");
    }

    #[test]
    fn report_display() {
        let mut sys = base();
        sys.execute("create rule bump when updated t.v then update t set v = v + 1").unwrap();
        let report = analyze(&sys);
        let text = report.to_string();
        assert!(text.contains("[loop]"), "{text}");
        assert!(text.contains("bump"), "{text}");
        assert!(analyze(&base()).to_string().contains("no warnings"));
    }
}
