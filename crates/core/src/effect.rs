//! Transition effects and their composition — the paper's formal core.
//!
//! §2.2: "the *effect* of a transition is a triple `[I, D, U]`: `I` is a set
//! of handles identifying those tuples inserted by the transition, `D` …
//! deleted …, and `U` is a set of handle-column pairs identifying those
//! tuples and columns updated by the transition." A handle appears in at
//! most one of the three sets.
//!
//! Definition 2.1 (composition, `e1 ⊕ e2` where `e2` happened after `e1`):
//!
//! ```text
//! I = (I1 ∪ I2) − D2
//! D = (D1 ∪ D2) − I1
//! U = (U1 ∪ U2) − (D2 ∪ I1)     (pairs whose handle lies in D2 ∪ I1)
//! ```
//!
//! The `S` component extends the triple for the §5.1 data-retrieval
//! extension; the paper leaves its composition open, and we define it to
//! mirror `U` (`S = (S1 ∪ S2) − (D2 ∪ I1)`): a read of a tuple later
//! deleted in the same window, or of a tuple created within the window,
//! does not survive into the net effect. This choice keeps `⊕` associative.

use std::collections::BTreeSet;

use setrules_storage::{ColumnId, TupleHandle};

/// The effect `[I, D, U]` (+ `S`) of a transition.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransitionEffect {
    /// `I`: handles of tuples inserted by the transition.
    pub inserted: BTreeSet<TupleHandle>,
    /// `D`: handles of tuples deleted by the transition (tuples of a
    /// previous state — handles are never reused).
    pub deleted: BTreeSet<TupleHandle>,
    /// `U`: handle-column pairs updated by the transition (whether or not
    /// the stored value actually changed).
    pub updated: BTreeSet<(TupleHandle, ColumnId)>,
    /// `S` (extension, §5.1): handle-column pairs read by top-level
    /// `select` operations — per tuple, the columns referenced through
    /// the `from` items it contributed through.
    pub selected: BTreeSet<(TupleHandle, ColumnId)>,
}

impl TransitionEffect {
    /// The empty effect.
    pub fn new() -> Self {
        TransitionEffect::default()
    }

    /// Effect of a single insert operation: `[A(op), ∅, ∅]`.
    pub fn of_insert(handles: impl IntoIterator<Item = TupleHandle>) -> Self {
        TransitionEffect { inserted: handles.into_iter().collect(), ..Default::default() }
    }

    /// Effect of a single delete operation: `[∅, A(op), ∅]`.
    pub fn of_delete(handles: impl IntoIterator<Item = TupleHandle>) -> Self {
        TransitionEffect { deleted: handles.into_iter().collect(), ..Default::default() }
    }

    /// Effect of a single update operation: `[∅, ∅, A(op)]`.
    pub fn of_update(pairs: impl IntoIterator<Item = (TupleHandle, ColumnId)>) -> Self {
        TransitionEffect { updated: pairs.into_iter().collect(), ..Default::default() }
    }

    /// Effect of a single select operation (`S` extension).
    pub fn of_select(pairs: impl IntoIterator<Item = (TupleHandle, ColumnId)>) -> Self {
        TransitionEffect { selected: pairs.into_iter().collect(), ..Default::default() }
    }

    /// Whether all components are empty (§4.2: "if all three sets in `E1`
    /// are empty, then no rules can be triggered").
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty()
            && self.deleted.is_empty()
            && self.updated.is_empty()
            && self.selected.is_empty()
    }

    /// Definition 2.1: the effect of executing `self`'s transition followed
    /// by `later`'s, treated as one indivisible unit.
    #[must_use]
    pub fn compose(&self, later: &TransitionEffect) -> TransitionEffect {
        // I = (I1 ∪ I2) − D2. (No need to subtract D1: handles in D1 cannot
        // appear in I1 — disjointness — nor in I2 — handles are not reused.)
        let inserted = self
            .inserted
            .union(&later.inserted)
            .copied()
            .filter(|h| !later.deleted.contains(h))
            .collect();
        // D = (D1 ∪ D2) − I1.
        let deleted = self
            .deleted
            .union(&later.deleted)
            .copied()
            .filter(|h| !self.inserted.contains(h))
            .collect();
        // U = (U1 ∪ U2) − (D2 ∪ I1): the paper's "misuse" of set difference
        // removes every pair whose *handle* appears in D2 ∪ I1.
        let dead = |h: &TupleHandle| later.deleted.contains(h) || self.inserted.contains(h);
        let updated = self
            .updated
            .union(&later.updated)
            .filter(|(h, _)| !dead(h))
            .cloned()
            .collect();
        // S composes like U (documented choice).
        let selected = self
            .selected
            .union(&later.selected)
            .filter(|(h, _)| !dead(h))
            .cloned()
            .collect();
        TransitionEffect { inserted, deleted, updated, selected }
    }

    /// Check the structural invariant that a handle appears in at most one
    /// of `I`/`D`/`U` (§2.2). `S` is exempt: a tuple may be both read and,
    /// say, updated in one window.
    pub fn check_disjoint(&self) -> bool {
        let upd_handles: BTreeSet<_> = self.updated.iter().map(|(h, _)| *h).collect();
        self.inserted.is_disjoint(&self.deleted)
            && self.inserted.iter().all(|h| !upd_handles.contains(h))
            && self.deleted.iter().all(|h| !upd_handles.contains(h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(n: u64) -> TupleHandle {
        TupleHandle(n)
    }
    fn c(n: u16) -> ColumnId {
        ColumnId(n)
    }

    #[test]
    fn single_op_constructors() {
        let e = TransitionEffect::of_insert([h(1), h(2)]);
        assert_eq!(e.inserted.len(), 2);
        assert!(e.deleted.is_empty() && e.updated.is_empty());
        assert!(!e.is_empty());
        assert!(TransitionEffect::new().is_empty());
    }

    #[test]
    fn update_then_delete_is_delete() {
        // §2.2: "if a tuple is updated by several operations and then
        // deleted, we consider only the deletion".
        let e1 = TransitionEffect::of_update([(h(1), c(0)), (h(1), c(1))]);
        let e2 = TransitionEffect::of_delete([h(1)]);
        let net = e1.compose(&e2);
        assert!(net.updated.is_empty());
        assert_eq!(net.deleted, BTreeSet::from([h(1)]));
        assert!(net.check_disjoint());
    }

    #[test]
    fn insert_then_update_is_insert() {
        let e1 = TransitionEffect::of_insert([h(1)]);
        let e2 = TransitionEffect::of_update([(h(1), c(0))]);
        let net = e1.compose(&e2);
        assert_eq!(net.inserted, BTreeSet::from([h(1)]));
        assert!(net.updated.is_empty());
        assert!(net.check_disjoint());
    }

    #[test]
    fn insert_then_delete_vanishes() {
        let e1 = TransitionEffect::of_insert([h(1)]);
        let e2 = TransitionEffect::of_delete([h(1)]);
        let net = e1.compose(&e2);
        assert!(net.is_empty());
    }

    #[test]
    fn delete_then_insert_is_not_an_update() {
        // §2.2: "we never consider deletion of a tuple followed by insertion
        // of a new tuple as an update" — the new tuple has a fresh handle.
        let e1 = TransitionEffect::of_delete([h(1)]);
        let e2 = TransitionEffect::of_insert([h(2)]);
        let net = e1.compose(&e2);
        assert_eq!(net.deleted, BTreeSet::from([h(1)]));
        assert_eq!(net.inserted, BTreeSet::from([h(2)]));
        assert!(net.updated.is_empty());
    }

    #[test]
    fn multiple_updates_collapse() {
        let e1 = TransitionEffect::of_update([(h(1), c(0))]);
        let e2 = TransitionEffect::of_update([(h(1), c(0)), (h(1), c(1))]);
        let net = e1.compose(&e2);
        assert_eq!(net.updated.len(), 2);
    }

    #[test]
    fn composition_is_associative_on_a_realistic_sequence() {
        // insert 1; update 1; insert 2; delete 1; update 2 — grouped both ways.
        let ops = [
            TransitionEffect::of_insert([h(1)]),
            TransitionEffect::of_update([(h(1), c(0))]),
            TransitionEffect::of_insert([h(2)]),
            TransitionEffect::of_delete([h(1)]),
            TransitionEffect::of_update([(h(2), c(1))]),
        ];
        let left = ops
            .iter()
            .cloned()
            .reduce(|a, b| a.compose(&b))
            .unwrap();
        let right = ops[0].compose(&ops[1].compose(&ops[2].compose(&ops[3].compose(&ops[4]))));
        assert_eq!(left, right);
        // Net: only tuple 2 exists, inserted (its update folds in).
        assert_eq!(left.inserted, BTreeSet::from([h(2)]));
        assert!(left.deleted.is_empty(), "tuple 1 was created and destroyed within the window");
        assert!(left.updated.is_empty());
    }

    #[test]
    fn selected_component_mirrors_updated() {
        let e1 = TransitionEffect::of_select([(h(1), c(0)), (h(3), c(0))]);
        let e2 = TransitionEffect::of_delete([h(1)]);
        let net = e1.compose(&e2);
        assert_eq!(net.selected, BTreeSet::from([(h(3), c(0))]));
        // Insert-then-select within the window also drops out.
        let e3 = TransitionEffect::of_insert([h(9)]);
        let e4 = TransitionEffect::of_select([(h(9), c(0))]);
        assert!(e3.compose(&e4).selected.is_empty());
    }

    #[test]
    fn disjointness_detects_violations() {
        let bad = TransitionEffect {
            inserted: BTreeSet::from([h(1)]),
            deleted: BTreeSet::from([h(1)]),
            updated: BTreeSet::new(),
            selected: BTreeSet::new(),
        };
        assert!(!bad.check_disjoint());
    }
}
