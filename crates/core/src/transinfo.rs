//! Per-rule composite transition information — the `R.trans-info` of the
//! paper's Figure 1 algorithm.
//!
//! A [`TransInfo`] describes the net effect of a *window* of transitions
//! (from some start state to the current state) **together with the old
//! values** needed to materialize transition tables, so no historical
//! database states are ever retained (§4.3: "the necessary transition
//! information can be accumulated within transitions"):
//!
//! * `ins` — handles of tuples inserted in the window (current values live
//!   in the database);
//! * `del` — tuples deleted in the window, with their values as of the
//!   window start (Fig. 1's `del` of type *set of tuple value*);
//! * `upd` — tuples updated in the window, with the set of updated columns
//!   and **one full old tuple** as of the window start (Fig. 1 stores
//!   `(h, c, v)` triples where "all `(h,c,v)`'s in `upd` have the same
//!   `v`" — `v` is the whole old tuple);
//! * `sel` — tuples read in the window (§5.1 extension; current values).
//!
//! Old values are never copied: each is the image the storage layer built
//! once for its undo log, moved in from the statement's effect and shared
//! by `Arc` with every other window that records the same change. Column
//! sets are shared the same way ([`ColumnSet`]), copied only when a later
//! transition adds a column to a tuple's entry. A window entry therefore
//! costs its map node and a few reference counts, however many rules'
//! windows hold it.
//!
//! [`TransInfo::absorb`] implements Fig. 1's `init-trans-info` /
//! `modify-trans-info` generalized to compose *any* later window, so a
//! whole operation block can be folded in at once; absorbing op-by-op or
//! block-at-once yields identical results (property-tested).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use setrules_query::OpEffect;
use setrules_storage::{ColumnId, ColumnSet, TableId, Tuple, TupleHandle};

use crate::effect::TransitionEffect;

/// A deleted tuple recorded in a window: its table and its value at the
/// window start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelEntry {
    /// The table the tuple belonged to.
    pub table: TableId,
    /// The tuple's value at the window start (before any in-window updates).
    pub old: Arc<Tuple>,
}

/// An updated tuple recorded in a window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdEntry {
    /// The table the tuple belongs to.
    pub table: TableId,
    /// All columns updated within the window (paper: one element per
    /// updated column, even if a value was re-assigned unchanged).
    pub columns: ColumnSet,
    /// The tuple's full value at the window start.
    pub old: Arc<Tuple>,
}

/// A selected (read) tuple recorded in a window (§5.1 extension).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelEntry {
    /// The table the tuple belongs to.
    pub table: TableId,
    /// Columns read; `None` means all columns (wildcard projection).
    pub columns: Option<ColumnSet>,
}

/// Composite transition information for one window.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransInfo {
    /// Handles inserted in the window.
    pub ins: BTreeSet<TupleHandle>,
    /// Tuples deleted in the window, keyed by handle.
    pub del: BTreeMap<TupleHandle, DelEntry>,
    /// Tuples updated in the window, keyed by handle.
    pub upd: BTreeMap<TupleHandle, UpdEntry>,
    /// Tuples selected in the window, keyed by handle (§5.1 extension).
    pub sel: BTreeMap<TupleHandle, SelEntry>,
}

impl TransInfo {
    /// The empty window.
    pub fn new() -> Self {
        TransInfo::default()
    }

    /// Whether the window saw no changes (and no tracked reads).
    pub fn is_empty(&self) -> bool {
        self.ins.is_empty() && self.del.is_empty() && self.upd.is_empty() && self.sel.is_empty()
    }

    /// Total number of entries (used by benches to size windows).
    pub fn cardinality(&self) -> usize {
        self.ins.len() + self.del.len() + self.upd.len() + self.sel.len()
    }

    /// Fold the affected set of one executed operation into this window —
    /// Fig. 1's `modify-trans-info`, with `init-trans-info` being the same
    /// operation applied to an empty window. The effect's old images and
    /// column sets move in.
    ///
    /// `track_selects` controls whether `Select` effects contribute to
    /// `sel` (the §5.1 extension is optional).
    pub fn absorb(&mut self, eff: OpEffect, track_selects: bool) {
        match eff {
            OpEffect::Insert { handles, .. } => {
                // ins ← ins ∪ I(E).
                self.ins.extend(handles);
            }
            OpEffect::Delete { table, tuples } => {
                for (h, old_now) in tuples {
                    self.absorb_delete(table, h, old_now);
                }
            }
            OpEffect::Update { table, columns, tuples } => {
                for (h, old_now) in tuples {
                    self.absorb_update(table, h, &columns, old_now);
                }
            }
            OpEffect::Select { reads, .. } => {
                if track_selects {
                    for (table, h, cols) in reads {
                        self.absorb_select(table, h, cols);
                    }
                }
            }
        }
    }

    /// Compose a *later* window into this one (this window happened first).
    ///
    /// This is Definition 2.1 lifted to carry old values: for a tuple
    /// deleted or updated in the later window, the old value recorded for
    /// the combined window is this window's old value when one exists
    /// (Fig. 1's `get-old-value`), otherwise the later window's. Old
    /// values and column sets are shared, not copied.
    pub fn compose(&mut self, later: &TransInfo) {
        for (h, e) in &later.del {
            self.absorb_delete(e.table, *h, Arc::clone(&e.old));
        }
        for (h, e) in &later.upd {
            self.absorb_update(e.table, *h, &e.columns, Arc::clone(&e.old));
        }
        for (h, e) in &later.sel {
            self.absorb_select(e.table, *h, e.columns.clone());
        }
        self.ins.extend(later.ins.iter().copied());
    }

    /// A tuple was deleted; `old_now` is its value just before the
    /// deletion (i.e., at the start of the *later* sub-window).
    fn absorb_delete(&mut self, table: TableId, h: TupleHandle, old_now: Arc<Tuple>) {
        if self.ins.remove(&h) {
            // Inserted then deleted within the window: no net effect.
            self.upd.remove(&h); // defensive; ins and upd are disjoint
            self.sel.remove(&h);
            return;
        }
        // get-old-value: prefer the window-start value captured by an
        // earlier in-window update.
        let old = match self.upd.remove(&h) {
            Some(u) => u.old,
            None => old_now,
        };
        self.del.insert(h, DelEntry { table, old });
        self.sel.remove(&h);
    }

    /// A tuple's columns were updated; `old_now` is its value just before
    /// this update.
    fn absorb_update(
        &mut self,
        table: TableId,
        h: TupleHandle,
        cols: &ColumnSet,
        old_now: Arc<Tuple>,
    ) {
        if self.ins.contains(&h) {
            // Insert-then-update is still just an insert (§2.2).
            return;
        }
        debug_assert!(!self.del.contains_key(&h), "cannot update a deleted tuple");
        match self.upd.get_mut(&h) {
            Some(entry) => {
                // Columns not yet recorded get added; the stored old tuple
                // (window-start value) already covers them, because a
                // column absent from `columns` was unchanged between the
                // window start and now.
                entry.columns = entry.columns.union(cols);
            }
            None => {
                self.upd.insert(h, UpdEntry { table, columns: cols.clone(), old: old_now });
            }
        }
    }

    /// A tuple was read by a top-level select (§5.1 extension).
    fn absorb_select(&mut self, table: TableId, h: TupleHandle, cols: Option<ColumnSet>) {
        if self.ins.contains(&h) {
            // Mirror U's composition: reads of tuples created within the
            // window do not surface (documented choice).
            return;
        }
        match self.sel.get_mut(&h) {
            Some(entry) => {
                entry.columns = match (entry.columns.take(), cols) {
                    (Some(set), Some(cs)) => Some(set.union(&cs)),
                    _ => None,
                };
            }
            None => {
                self.sel.insert(h, SelEntry { table, columns: cols });
            }
        }
    }

    /// Project the pure `[I, D, U, S]` effect (Definition 2.1's triple,
    /// plus `S`). Column expansion for `sel` entries with `columns: None`
    /// uses `all_columns(table)`.
    pub fn effect(&self, all_columns: impl Fn(TableId) -> usize) -> TransitionEffect {
        let mut eff = TransitionEffect::new();
        eff.inserted.extend(self.ins.iter().copied());
        eff.deleted.extend(self.del.keys().copied());
        for (h, e) in &self.upd {
            for c in &e.columns {
                eff.updated.insert((*h, *c));
            }
        }
        for (h, e) in &self.sel {
            match &e.columns {
                Some(cols) => {
                    for c in cols {
                        eff.selected.insert((*h, *c));
                    }
                }
                None => {
                    for i in 0..all_columns(e.table) {
                        eff.selected.insert((*h, ColumnId(i as u16)));
                    }
                }
            }
        }
        eff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setrules_storage::tuple;

    fn h(n: u64) -> TupleHandle {
        TupleHandle(n)
    }
    fn c(n: u16) -> ColumnId {
        ColumnId(n)
    }
    const T: TableId = TableId(0);

    fn ins(hs: &[u64]) -> OpEffect {
        OpEffect::Insert { table: T, handles: hs.iter().map(|n| h(*n)).collect() }
    }
    fn del(ts: &[(u64, i64)]) -> OpEffect {
        OpEffect::Delete {
            table: T,
            tuples: ts.iter().map(|(n, v)| (h(*n), Arc::new(tuple![*v]))).collect(),
        }
    }
    /// One update statement per tuple: a statement's columns are shared
    /// by all the tuples it updates.
    fn upd(ts: &[(u64, u16, i64)]) -> Vec<OpEffect> {
        ts.iter()
            .map(|(n, col, v)| OpEffect::Update {
                table: T,
                columns: cols(&[*col]),
                tuples: vec![(h(*n), Arc::new(tuple![*v]))],
            })
            .collect()
    }
    fn cols(cs: &[u16]) -> ColumnSet {
        cs.iter().map(|n| c(*n)).collect()
    }
    fn absorb_all(w: &mut TransInfo, effs: Vec<OpEffect>, track_selects: bool) {
        for eff in effs {
            w.absorb(eff, track_selects);
        }
    }

    #[test]
    fn init_from_single_ops() {
        let mut w = TransInfo::new();
        w.absorb(ins(&[1, 2]), false);
        assert_eq!(w.ins.len(), 2);
        let mut w = TransInfo::new();
        w.absorb(del(&[(3, 30)]), false);
        assert_eq!(*w.del[&h(3)].old, tuple![30]);
        let mut w = TransInfo::new();
        absorb_all(&mut w, upd(&[(4, 0, 40)]), false);
        assert_eq!(*w.upd[&h(4)].old, tuple![40]);
        assert!(w.upd[&h(4)].columns.contains(&c(0)));
    }

    #[test]
    fn windows_share_the_effects_images_and_column_sets() {
        // One statement updates two tuples: both entries hold the
        // statement's one column set, and a composed window holds the
        // same old images, not copies.
        let columns = cols(&[1]);
        let olds = [Arc::new(tuple![10]), Arc::new(tuple![20])];
        let eff = OpEffect::Update {
            table: T,
            columns: columns.clone(),
            tuples: vec![(h(1), Arc::clone(&olds[0])), (h(2), Arc::clone(&olds[1]))],
        };
        let mut w = TransInfo::new();
        w.absorb(eff, false);
        let mut later = TransInfo::new();
        later.compose(&w);
        for (n, old) in [(1, &olds[0]), (2, &olds[1])] {
            for win in [&w, &later] {
                let e = &win.upd[&h(n)];
                assert!(Arc::ptr_eq(&e.old, old), "tuple {n}: the image is shared");
                assert_eq!(e.columns.as_slice().as_ptr(), columns.as_slice().as_ptr());
            }
        }
        // A later update of an already-recorded column keeps the set; a
        // new column makes a fresh one for that entry only.
        absorb_all(&mut later, upd(&[(1, 1, 11), (2, 0, 21)]), false);
        assert_eq!(later.upd[&h(1)].columns.as_slice().as_ptr(), columns.as_slice().as_ptr());
        assert_eq!(later.upd[&h(2)].columns, cols(&[0, 1]));
        assert_eq!(w.upd[&h(2)].columns, cols(&[1]), "the earlier window is untouched");
    }

    #[test]
    fn update_then_delete_keeps_window_start_value() {
        let mut w = TransInfo::new();
        // Tuple 1 was 10 at window start; update saw old=10.
        absorb_all(&mut w, upd(&[(1, 0, 10)]), false);
        // Later it is deleted; its value just before deletion is 99.
        w.absorb(del(&[(1, 99)]), false);
        // Fig. 1's get-old-value: the deleted-tuple value shown to rules is
        // the window-start value 10, not 99.
        assert_eq!(*w.del[&h(1)].old, tuple![10]);
        assert!(w.upd.is_empty());
    }

    #[test]
    fn insert_then_delete_cancels() {
        let mut w = TransInfo::new();
        w.absorb(ins(&[1]), false);
        w.absorb(del(&[(1, 0)]), false);
        assert!(w.is_empty());
    }

    #[test]
    fn insert_then_update_stays_insert() {
        let mut w = TransInfo::new();
        w.absorb(ins(&[1]), false);
        absorb_all(&mut w, upd(&[(1, 0, 5)]), false);
        assert!(w.upd.is_empty());
        assert!(w.ins.contains(&h(1)));
    }

    #[test]
    fn second_update_keeps_first_old_value_and_merges_columns() {
        let mut w = TransInfo::new();
        absorb_all(&mut w, upd(&[(1, 0, 10)]), false);
        absorb_all(&mut w, upd(&[(1, 1, 11)]), false); // the tuple now shows 11 pre-op, but col 1's window-start value is in `old`
        let e = &w.upd[&h(1)];
        assert_eq!(*e.old, tuple![10], "window-start tuple retained");
        assert_eq!(e.columns, cols(&[0, 1]));
    }

    #[test]
    fn compose_blocks_equals_op_by_op() {
        let ops = || {
            let mut ops = vec![ins(&[1])];
            ops.extend(upd(&[(1, 0, 0), (2, 1, 20)]));
            ops.push(del(&[(2, 21)]));
            ops.push(ins(&[3]));
            ops.extend(upd(&[(3, 0, 0)]));
            ops.push(del(&[(1, 1)]));
            ops
        };
        // Op by op into one window.
        let mut whole = TransInfo::new();
        absorb_all(&mut whole, ops(), false);
        // Two sub-windows composed.
        let (first, second): (Vec<_>, Vec<_>) =
            ops().into_iter().enumerate().partition(|(i, _)| *i < 4);
        let mut w1 = TransInfo::new();
        absorb_all(&mut w1, first.into_iter().map(|(_, op)| op).collect(), false);
        let mut w2 = TransInfo::new();
        absorb_all(&mut w2, second.into_iter().map(|(_, op)| op).collect(), false);
        w1.compose(&w2);
        assert_eq!(whole, w1);
        // Net effect: tuple 2 deleted (old 20 from its update capture),
        // tuple 3 inserted; tuple 1 came and went.
        assert_eq!(*whole.del[&h(2)].old, tuple![20]);
        assert_eq!(whole.ins, BTreeSet::from([h(3)]));
        assert!(whole.upd.is_empty());
    }

    #[test]
    fn select_tracking_toggle() {
        let reads = || OpEffect::Select {
            reads: vec![(T, h(1), Some(cols(&[0])))],
            output: setrules_query::Relation::empty(vec![]),
        };
        let mut w = TransInfo::new();
        w.absorb(reads(), false);
        assert!(w.sel.is_empty());
        w.absorb(reads(), true);
        assert_eq!(w.sel[&h(1)].columns, Some(cols(&[0])));
    }

    #[test]
    fn select_column_merging_and_wildcard() {
        let read = |cs: Option<&[u16]>| OpEffect::Select {
            reads: vec![(T, h(1), cs.map(cols))],
            output: setrules_query::Relation::empty(vec![]),
        };
        let mut w = TransInfo::new();
        w.absorb(read(Some(&[0])), true);
        w.absorb(read(Some(&[1])), true);
        assert_eq!(w.sel[&h(1)].columns, Some(cols(&[0, 1])));
        w.absorb(read(None), true);
        assert_eq!(w.sel[&h(1)].columns, None, "wildcard read covers all columns");
        w.absorb(read(Some(&[2])), true);
        assert_eq!(w.sel[&h(1)].columns, None, "stays all-columns");
    }

    #[test]
    fn selected_tuple_deleted_in_window_drops_out() {
        let read = OpEffect::Select {
            reads: vec![(T, h(1), None)],
            output: setrules_query::Relation::empty(vec![]),
        };
        let mut w = TransInfo::new();
        w.absorb(read, true);
        w.absorb(del(&[(1, 0)]), true);
        assert!(w.sel.is_empty());
    }

    #[test]
    fn effect_projection() {
        let mut w = TransInfo::new();
        w.absorb(ins(&[1]), false);
        absorb_all(&mut w, upd(&[(2, 0, 5), (2, 1, 5)]), false);
        w.absorb(del(&[(3, 7)]), false);
        let eff = w.effect(|_| 2);
        assert_eq!(eff.inserted, BTreeSet::from([h(1)]));
        assert_eq!(eff.deleted, BTreeSet::from([h(3)]));
        assert_eq!(eff.updated, BTreeSet::from([(h(2), c(0)), (h(2), c(1))]));
        assert!(eff.check_disjoint());
    }
}
