//! The rule priority partial order (paper §4.4).
//!
//! `create rule priority r1 before r2` makes `r1` strictly higher than
//! `r2`; "any acyclic group of such pairings induces a partial order on
//! the set of defined rules". Adding a pair that would create a cycle is
//! rejected.
//!
//! The transitive closure is kept as data, extended edge by edge as pairs
//! are declared and rebuilt from the remaining edges when a rule is
//! dropped (rule DDL, never per consideration), so
//! [`PriorityGraph::higher_than`] is one bit test and selection walks a
//! rule's dominators without searching the graph.

use std::collections::{BTreeMap, BTreeSet};

use crate::rule::RuleId;

/// A DAG of `higher → lower` priority edges plus its transitive closure.
#[derive(Debug, Clone, Default)]
pub struct PriorityGraph {
    edges: BTreeMap<RuleId, BTreeSet<RuleId>>,
    /// The closure, derived from `edges`: `above[r]` is the bitset of the
    /// rules strictly above rule `r`, only as many words long as the
    /// highest of them needs (empty when none is). Ids past the end have
    /// no dominators.
    above: Vec<Vec<u64>>,
}

impl PriorityGraph {
    /// An empty (fully unordered) priority relation.
    pub fn new() -> Self {
        PriorityGraph::default()
    }

    /// Declare `higher` before `lower`. Returns `false` (and changes
    /// nothing) if the edge would create a cycle; duplicate edges are
    /// accepted idempotently.
    pub fn add(&mut self, higher: RuleId, lower: RuleId) -> bool {
        if !self.admits(higher, lower) {
            return false;
        }
        if self.edges.entry(higher).or_default().insert(lower) {
            self.close(higher, lower);
        }
        true
    }

    /// Whether [`Self::add`] would accept `higher` before `lower`: the pair
    /// is not a self-loop and closes no cycle.
    pub(crate) fn admits(&self, higher: RuleId, lower: RuleId) -> bool {
        higher != lower && !self.higher_than(lower, higher)
    }

    /// Whether `a` is strictly higher-priority than `b` (transitively).
    pub fn higher_than(&self, a: RuleId, b: RuleId) -> bool {
        self.row(b).get(a.0 / 64).is_some_and(|&w| (w >> (a.0 % 64)) & 1 == 1)
    }

    /// The maximal elements of `candidates` under this partial order: those
    /// with no strictly-higher candidate (§4.4: "a rule is chosen such that
    /// no other triggered rule is strictly higher in the ordering").
    pub fn maximal(&self, candidates: &[RuleId]) -> Vec<RuleId> {
        candidates
            .iter()
            .copied()
            .filter(|&c| !candidates.iter().any(|&o| self.higher_than(o, c)))
            .collect()
    }

    /// The rules strictly above `r`, in ascending id order.
    pub(crate) fn dominators(&self, r: RuleId) -> impl Iterator<Item = RuleId> + '_ {
        self.row(r).iter().enumerate().flat_map(|(i, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                (w != 0).then(|| {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    RuleId(i * 64 + bit)
                })
            })
        })
    }

    /// Remove every edge touching `r` (rule dropped). The closure is
    /// rebuilt from the remaining edges, so an order that held only
    /// through `r` disappears with it.
    pub fn remove_rule(&mut self, r: RuleId) {
        self.edges.remove(&r);
        for lows in self.edges.values_mut() {
            lows.remove(&r);
        }
        self.above.clear();
        let pairs: Vec<(RuleId, RuleId)> = self.pairs().collect();
        for (h, l) in pairs {
            self.close(h, l);
        }
    }

    /// All declared (higher, lower) pairs, for introspection.
    pub fn pairs(&self) -> impl Iterator<Item = (RuleId, RuleId)> + '_ {
        self.edges
            .iter()
            .flat_map(|(h, lows)| lows.iter().map(move |l| (*h, *l)))
    }

    fn row(&self, r: RuleId) -> &[u64] {
        self.above.get(r.0).map_or(&[], Vec::as_slice)
    }

    /// Fold the edge `h → l` into the closure: `h` and every rule above it
    /// become above `l` and every rule below `l`.
    fn close(&mut self, h: RuleId, l: RuleId) {
        let mut up = self.row(h).to_vec();
        up.resize(up.len().max(h.0 / 64 + 1), 0);
        up[h.0 / 64] |= 1 << (h.0 % 64);
        if self.above.len() <= l.0 {
            self.above.resize(l.0 + 1, Vec::new());
        }
        for x in 0..self.above.len() {
            if x == l.0 || self.higher_than(l, RuleId(x)) {
                let row = &mut self.above[x];
                row.resize(row.len().max(up.len()), 0);
                for (word, bits) in row.iter_mut().zip(&up) {
                    *word |= bits;
                }
            }
        }
    }
}

/// The search-based answers this graph gave before it kept a closure:
/// test-only references for the closure and selection differentials.
#[cfg(test)]
impl PriorityGraph {
    /// `higher_than` as a DFS over the declared edges.
    pub(crate) fn oracle_higher_than(&self, a: RuleId, b: RuleId) -> bool {
        if a == b {
            return false;
        }
        let mut stack = vec![a];
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            if let Some(lows) = self.edges.get(&n) {
                if lows.contains(&b) {
                    return true;
                }
                stack.extend(lows.iter().copied());
            }
        }
        false
    }

    /// `maximal` as every-pair [`Self::oracle_higher_than`] tests.
    pub(crate) fn oracle_maximal(&self, candidates: &[RuleId]) -> Vec<RuleId> {
        candidates
            .iter()
            .copied()
            .filter(|&c| !candidates.iter().any(|&o| o != c && self.oracle_higher_than(o, c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setrules_testkit::check;

    fn r(n: usize) -> RuleId {
        RuleId(n)
    }

    #[test]
    fn transitivity() {
        let mut g = PriorityGraph::new();
        assert!(g.add(r(1), r(2)));
        assert!(g.add(r(2), r(3)));
        assert!(g.higher_than(r(1), r(3)));
        assert!(!g.higher_than(r(3), r(1)));
        assert!(!g.higher_than(r(1), r(1)));
    }

    #[test]
    fn cycles_rejected() {
        let mut g = PriorityGraph::new();
        assert!(g.add(r(1), r(2)));
        assert!(g.add(r(2), r(3)));
        assert!(!g.add(r(3), r(1)), "would close a cycle");
        assert!(!g.add(r(1), r(1)), "self-loop");
        // The failed add changed nothing.
        assert!(!g.higher_than(r(3), r(1)));
    }

    #[test]
    fn maximal_elements() {
        let mut g = PriorityGraph::new();
        g.add(r(1), r(2));
        g.add(r(3), r(2));
        // 1 and 3 are incomparable maxima; 2 is dominated.
        let m = g.maximal(&[r(1), r(2), r(3)]);
        assert_eq!(m, vec![r(1), r(3)]);
        // Without 1 and 3 present, 2 is maximal.
        assert_eq!(g.maximal(&[r(2)]), vec![r(2)]);
        // Unrelated rule is always maximal.
        assert_eq!(g.maximal(&[r(2), r(9)]), vec![r(2), r(9)]);
    }

    #[test]
    fn remove_rule_clears_edges() {
        let mut g = PriorityGraph::new();
        g.add(r(1), r(2));
        g.add(r(2), r(3));
        g.remove_rule(r(2));
        assert!(!g.higher_than(r(1), r(3)));
        assert!(g.pairs().all(|(h, l)| h != r(2) && l != r(2)), "no edges touch the removed rule");
    }

    #[test]
    fn duplicate_edge_idempotent() {
        let mut g = PriorityGraph::new();
        assert!(g.add(r(1), r(2)));
        assert!(g.add(r(1), r(2)));
        assert_eq!(g.pairs().count(), 1);
    }

    /// Random `add` / `remove_rule` sequences over up to 70 rules (so rows
    /// span two bitset words), with duplicate edges and rejected cycles:
    /// after every step the closure answers exactly as the DFS oracle over
    /// the same edges — `add`'s verdict, `higher_than` on every pair,
    /// `maximal` on random candidate subsets, and `dominators` as the set
    /// of rules above.
    #[test]
    fn closure_matches_dfs_oracle() {
        check("closure_matches_dfs_oracle", 24, 0x5EC44, |rng| {
            let n = if rng.chance(1, 2) { 65 + rng.below(6) } else { 2 + rng.below(63) };
            let mut g = PriorityGraph::new();
            let mut declared: Vec<(RuleId, RuleId)> = Vec::new();
            for _ in 0..rng.below(50) {
                if rng.chance(1, 12) {
                    g.remove_rule(r(rng.below(n)));
                } else {
                    // Re-declare an earlier edge now and then.
                    let (h, l) = if !declared.is_empty() && rng.chance(1, 6) {
                        *rng.pick(&declared)
                    } else {
                        (r(rng.below(n)), r(rng.below(n)))
                    };
                    let expect = h != l && !g.oracle_higher_than(l, h);
                    assert_eq!(g.add(h, l), expect, "add({h:?}, {l:?})");
                    if expect {
                        declared.push((h, l));
                    }
                }
                let oracle: Vec<Vec<bool>> = (0..n)
                    .map(|a| (0..n).map(|b| g.oracle_higher_than(r(a), r(b))).collect())
                    .collect();
                for (a, row) in oracle.iter().enumerate() {
                    for (b, &higher) in row.iter().enumerate() {
                        assert_eq!(g.higher_than(r(a), r(b)), higher, "higher_than({a}, {b})");
                    }
                    let above: Vec<RuleId> = (0..n).filter(|&b| oracle[b][a]).map(r).collect();
                    assert_eq!(g.dominators(r(a)).collect::<Vec<_>>(), above, "dominators({a})");
                }
                // Ids past every edge (n, n + 1) are unknown to the closure.
                let cands: Vec<RuleId> = (0..n + 2).filter(|_| rng.chance(1, 3)).map(r).collect();
                assert_eq!(g.maximal(&cands), g.oracle_maximal(&cands), "maximal({cands:?})");
            }
        });
    }
}
