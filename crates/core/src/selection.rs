//! Rule selection strategies (paper §4.4).
//!
//! When several rules are triggered at once, `select-triggered-rule` must
//! pick one. The paper discusses: arbitrary choice, a total order, a
//! partial order from `create rule priority` pairings, and recency of
//! consideration ("preferring those rules considered least recently or
//! those considered most recently"). All are implemented; every strategy
//! breaks remaining ties by creation order, so execution is deterministic.

use crate::priority::PriorityGraph;
use crate::rule::RuleId;

/// How [`crate::RuleSystem`] picks among simultaneously triggered rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// Respect the priority partial order; among maximal rules, pick the
    /// one created first. This is the paper's recommended compromise and
    /// the default.
    #[default]
    PartialOrder,
    /// Ignore priorities; pick the triggered rule created first (a simple
    /// deterministic stand-in for "arbitrary").
    CreationOrder,
    /// Among priority-maximal rules, prefer the one considered least
    /// recently (never-considered rules first).
    LeastRecentlyConsidered,
    /// Among priority-maximal rules, prefer the one considered most
    /// recently (never-considered rules last).
    MostRecentlyConsidered,
}

/// Pick one rule from `candidates` (all currently triggered and not yet
/// considered this round), which must be in creation order, as the
/// Figure 1 loop collects them.
///
/// `last_considered[r.0]` is the logical timestamp at which rule `r` was
/// last chosen for consideration (`None` = never).
///
/// One pass, no allocation: a candidate is priority-maximal when none of
/// its dominators (read from the closure [`PriorityGraph`] keeps) is a
/// candidate, each probe a binary search.
pub fn select_rule(
    strategy: SelectionStrategy,
    priorities: &PriorityGraph,
    candidates: &[RuleId],
    last_considered: &[Option<u64>],
) -> Option<RuleId> {
    debug_assert!(candidates.is_sorted(), "candidates out of creation order: {candidates:?}");
    let mut maximal = candidates.iter().copied().filter(|&c| {
        !priorities.dominators(c).any(|d| candidates.binary_search(&d).is_ok())
    });
    match strategy {
        SelectionStrategy::CreationOrder => candidates.first().copied(),
        SelectionStrategy::PartialOrder => maximal.next(),
        SelectionStrategy::LeastRecentlyConsidered => maximal
            .min_by_key(|r| (last_considered[r.0].unwrap_or(0), last_considered[r.0].is_some(), *r)),
        SelectionStrategy::MostRecentlyConsidered => maximal.min_by_key(|r| {
            // Most recent first: invert the timestamp; never-considered last.
            let ts = last_considered[r.0];
            (ts.is_none(), u64::MAX - ts.unwrap_or(0), *r)
        }),
    }
}

#[cfg(test)]
mod tests {

    use setrules_query::OpEffect;
    use setrules_storage::{ColumnDef, DataType, Database, TableSchema, Tuple, Value};

    use super::*;
    use crate::incremental::MemoStore;
    use crate::rule::{CompiledAction, CompiledPred, Rule};
    use crate::stats::EngineStats;
    use crate::transinfo::TransInfo;
    use crate::windows::{RetriggerSemantics, Windows};

    fn r(n: usize) -> RuleId {
        RuleId(n)
    }

    /// A database with tables `t` and `u`, rules `r0..rn` where an even
    /// rule is triggered by inserts into `t` and an odd one by inserts
    /// into `u`, and a transition inserting one tuple into `t`.
    fn trigger_fixture(n: usize) -> (Database, Vec<Rule>, TransInfo) {
        let mut db = Database::new();
        let cols = || vec![ColumnDef::new("a", DataType::Int)];
        let tables = [
            db.create_table(TableSchema::new("t", cols())).unwrap(),
            db.create_table(TableSchema::new("u", cols())).unwrap(),
        ];
        let rules = (0..n)
            .map(|i| Rule {
                name: format!("r{i}"),
                id: r(i),
                when: vec![CompiledPred::Inserted(tables[i % 2])],
                condition: None,
                action: CompiledAction::Rollback,
                active: true,
                dropped: false,
            })
            .collect();
        let h = db.insert(tables[0], Tuple(vec![Value::Int(1)])).unwrap();
        let mut insert = TransInfo::new();
        insert.absorb(OpEffect::Insert { table: tables[0], handles: vec![h] }, false);
        (db, rules, insert)
    }

    /// A rule's trigger verdict is computed once per window: candidate
    /// collection reuses it until that rule's window is reset.
    #[test]
    fn trigger_memo_caches_until_invalidated() {
        let (db, rules, insert) = trigger_fixture(2);
        let mut windows = Windows::new(RetriggerSemantics::SinceLastConsidered);
        let (mut memos, mut stats) = (MemoStore::default(), EngineStats::default());
        windows.begin(rules.len());
        windows.begin_pass();
        windows.apply(&rules, &db, insert, None, &mut memos, &mut stats);

        let before = stats.trigger_checks;
        assert_eq!(windows.candidates(&rules, &db, &mut stats), &[r(0)]);
        assert_eq!(stats.trigger_checks - before, 2, "both verdicts computed on a miss");
        // Hit: no verdict is recomputed.
        assert_eq!(windows.candidates(&rules, &db, &mut stats), &[r(0)]);
        assert_eq!(stats.trigger_checks - before, 2, "cached");

        // Footnote 8: a false condition resets r0's window and only its verdict.
        windows.condition_false(r(0));
        assert!(windows.candidates(&rules, &db, &mut stats).is_empty(), "recomputed after reset");
        assert_eq!(stats.trigger_checks - before, 3, "only r0 recomputed");
        assert!(windows.candidates(&rules, &db, &mut stats).is_empty());
        assert_eq!(stats.trigger_checks - before, 3, "r0 now caches `false`");
    }

    /// A transition changes every window, and a new pass starts afresh:
    /// either drops every rule's cached verdict.
    #[test]
    fn trigger_memo_invalidate_all_clears_every_rule() {
        let (db, rules, insert) = trigger_fixture(3);
        let mut windows = Windows::new(RetriggerSemantics::SinceLastAction);
        let (mut memos, mut stats) = (MemoStore::default(), EngineStats::default());
        windows.begin(rules.len());
        windows.begin_pass();
        assert!(windows.candidates(&rules, &db, &mut stats).is_empty());
        assert_eq!(stats.trigger_checks, 3);

        windows.apply(&rules, &db, insert, None, &mut memos, &mut stats);
        let before = stats.trigger_checks;
        assert_eq!(windows.candidates(&rules, &db, &mut stats), &[r(0), r(2)]);
        assert_eq!(stats.trigger_checks - before, 3, "all verdicts recomputed after a transition");

        windows.begin_pass();
        assert_eq!(windows.candidates(&rules, &db, &mut stats), &[r(0), r(2)]);
        assert_eq!(stats.trigger_checks - before, 6, "all verdicts recomputed in a new pass");
    }

    #[test]
    fn creation_order_ignores_priorities() {
        let mut g = PriorityGraph::new();
        g.add(r(2), r(0));
        let picked = select_rule(SelectionStrategy::CreationOrder, &g, &[r(0), r(2)], &[None; 3]);
        assert_eq!(picked, Some(r(0)));
    }

    #[test]
    fn partial_order_prefers_maximal() {
        let mut g = PriorityGraph::new();
        g.add(r(2), r(0));
        let picked = select_rule(SelectionStrategy::PartialOrder, &g, &[r(0), r(2)], &[None; 3]);
        assert_eq!(picked, Some(r(2)));
        // Incomparable maxima tie-break by creation order.
        let picked = select_rule(SelectionStrategy::PartialOrder, &g, &[r(1), r(2)], &[None; 3]);
        assert_eq!(picked, Some(r(1)));
    }

    #[test]
    fn lrc_prefers_never_considered_then_oldest() {
        let g = PriorityGraph::new();
        let last = vec![Some(5), None, Some(3)];
        let picked =
            select_rule(SelectionStrategy::LeastRecentlyConsidered, &g, &[r(0), r(1), r(2)], &last);
        assert_eq!(picked, Some(r(1)), "never-considered wins");
        let last = vec![Some(5), Some(9), Some(3)];
        let picked =
            select_rule(SelectionStrategy::LeastRecentlyConsidered, &g, &[r(0), r(1), r(2)], &last);
        assert_eq!(picked, Some(r(2)), "timestamp 3 is oldest");
    }

    #[test]
    fn mrc_prefers_most_recent_then_creation() {
        let g = PriorityGraph::new();
        let last = vec![Some(5), None, Some(9)];
        let picked =
            select_rule(SelectionStrategy::MostRecentlyConsidered, &g, &[r(0), r(1), r(2)], &last);
        assert_eq!(picked, Some(r(2)));
        // All never considered: creation order.
        let picked =
            select_rule(SelectionStrategy::MostRecentlyConsidered, &g, &[r(1), r(2)], &[None; 3]);
        assert_eq!(picked, Some(r(1)));
    }

    #[test]
    fn recency_strategies_respect_priorities() {
        let mut g = PriorityGraph::new();
        g.add(r(0), r(1));
        // r1 is least recently considered but r0 dominates it.
        let last = vec![Some(9), Some(1)];
        let picked =
            select_rule(SelectionStrategy::LeastRecentlyConsidered, &g, &[r(0), r(1)], &last);
        assert_eq!(picked, Some(r(0)));
    }

    #[test]
    fn empty_candidates() {
        let g = PriorityGraph::new();
        assert_eq!(select_rule(SelectionStrategy::PartialOrder, &g, &[], &[]), None);
    }

    /// `select_rule` as it was before the one-pass form: materialise the
    /// maximal set by pairwise search, then pick from it.
    fn reference_select_rule(
        strategy: SelectionStrategy,
        priorities: &PriorityGraph,
        candidates: &[RuleId],
        last_considered: &[Option<u64>],
    ) -> Option<RuleId> {
        if candidates.is_empty() {
            return None;
        }
        let maximal = priorities.oracle_maximal(candidates);
        match strategy {
            SelectionStrategy::CreationOrder => candidates.iter().copied().min(),
            SelectionStrategy::PartialOrder => maximal.into_iter().min(),
            SelectionStrategy::LeastRecentlyConsidered => maximal
                .into_iter()
                .min_by_key(|r| (last_considered[r.0].unwrap_or(0), last_considered[r.0].is_some(), *r)),
            SelectionStrategy::MostRecentlyConsidered => maximal.into_iter().min_by_key(|r| {
                let ts = last_considered[r.0];
                (ts.is_none(), u64::MAX - ts.unwrap_or(0), *r)
            }),
        }
    }

    /// Random priority graphs (including drops), candidate sets of every
    /// density, and recency vectors with ties and `None`s: every strategy
    /// picks what the materialise-then-pick reference picks.
    #[test]
    fn select_rule_matches_reference_on_every_strategy() {
        const STRATEGIES: [SelectionStrategy; 4] = [
            SelectionStrategy::PartialOrder,
            SelectionStrategy::CreationOrder,
            SelectionStrategy::LeastRecentlyConsidered,
            SelectionStrategy::MostRecentlyConsidered,
        ];
        setrules_testkit::check("select_rule_matches_reference", 50, 0x445E1, |rng| {
            let n = 1 + rng.below(70);
            let mut g = PriorityGraph::new();
            for _ in 0..rng.below(3 * n) {
                if rng.chance(1, 10) {
                    g.remove_rule(r(rng.below(n)));
                } else {
                    g.add(r(rng.below(n)), r(rng.below(n)));
                }
            }
            let last: Vec<Option<u64>> =
                (0..n).map(|_| rng.chance(2, 3).then(|| rng.below(8) as u64)).collect();
            for _ in 0..6 {
                let density = 1 + rng.below(4) as u32;
                let cands: Vec<RuleId> = (0..n).filter(|_| rng.chance(density, 5)).map(r).collect();
                for strategy in STRATEGIES {
                    assert_eq!(
                        select_rule(strategy, &g, &cands, &last),
                        reference_select_rule(strategy, &g, &cands, &last),
                        "{strategy:?} over {cands:?}"
                    );
                }
            }
        });
    }
}
