//! Delta repair for incremental rule-condition evaluation (ISSUE 7,
//! widened by ISSUE 10).
//!
//! `setrules-query::incremental` decides *whether* a condition is
//! incrementalizable and owns the memo representation; this module owns
//! the operations that keep a term memo truthful, because they need the
//! engine's window ([`TransInfo`]) and delta log ([`TransitionEffect`]):
//!
//! * [`refresh_term`] — bring one term's memo up to date: repair it from
//!   the composed `[I, D, U]` suffix of the transaction's delta log when
//!   the term's [`Cursor`] is still valid, or rebuild it by one full scan
//!   of the rule's composite window when it is not (first consideration,
//!   new transaction, window restart, or an interrupted repair).
//!
//! # Shared delta cursors
//!
//! Every transition appends its projected effect to the transaction-wide
//! `delta_log` exactly once — from the transaction's first memo refresh
//! on, since before it no cursor exists to read an entry, and a cursor
//! is taken at the log's end. A term at cursor `seq` needs the composition
//! (Definition 2.1 ⊕) of `log[seq..]`; that composition is a pure
//! function of the suffix — independent of which rule asks — so it is
//! memoized in a per-transaction compose cache keyed by `seq`. When N
//! rules watch the same views at the same cursor (the 60-watcher storm),
//! the first refresh folds the suffix and the other N−1 hit the cache
//! (`shared` in [`TermRefresh::Repaired`], `incr_shared_hits` in stats).
//! The cache is cleared whenever the log grows, keeping entries exact.
//!
//! Window *resets* (footnote-8 `SinceLastConsidered` clears, acting-rule
//! restarts, `SinceLastTriggering` re-triggers) never touch the log: they
//! bump the rule's window generation, which invalidates that rule's
//! cursors only. Other rules' suffixes still compose the same effects
//! over their own unbroken windows, so sharing stays sound.
//!
//! # Why repair is sound
//!
//! Term predicates are *row-local* (the analyzer guarantees it), so a
//! row's membership in a term — and its join key, and its aggregate
//! contribution — depends only on that row's own (old or current)
//! values. Old values (`deleted` / `old updated` views) are fixed once
//! recorded in the window; current values change only through operations
//! that — because every transition is composed into every rule's window
//! and appended to the delta log at the same choke point
//! (`apply_transition`) — are named by the delta's handle sets. Tuple
//! handles are allocated monotonically and never reused, so a handle in
//! the delta denotes the same tuple it denoted at memo time. Hence a
//! tuple not named by the delta cannot have changed term state, and
//! patching exactly the named handles reproduces what a full re-scan
//! would compute.
//!
//! Per view, with `W` the rule's window and `(I, D, U)` the delta:
//!
//! | view            | inserts `I`      | deletes `D`  | updates `U`                 |
//! |-----------------|------------------|--------------|-----------------------------|
//! | `inserted t`    | probe current    | remove       | re-probe if handle ∈ `W.ins`|
//! | `deleted t`     | —                | probe `old`  | —                           |
//! | `old updated t` | —                | remove       | probe `old` if ∈ `W.upd`    |
//! | `new updated t` | —                | remove       | re-probe current if ∈ `W.upd`|
//!
//! (`I` never touches the update views: an insert-then-update tuple
//! stays in `inserted` only — Definition 2.1 keeps `U` disjoint from
//! `I1`. `D` removes everywhere because delete cancels window membership
//! in the current-state views and `upd` entries migrate to `del`.) The
//! same matrix drives all three memo kinds: a match set removes/probes
//! handles, an accumulator retires/patches contributions, and a join
//! memory applies it *per side* and then re-derives exactly the pairs
//! involving a changed handle by probing the opposite side's key index.
//!
//! # Error-order fidelity
//!
//! Probe errors propagate: an erroring row is met here exactly when the
//! full evaluator would scan it, and *in the same order*. Windows
//! iterate in ascending handle order (= the provider's scan order), so
//! rebuilds probe exactly as the executor scans; repairs probe the
//! delta-named handles as one ascending set per view (rows not named by
//! the delta are unchanged and cannot error: they were probed without
//! error when they last changed). Join pair probes run in `(left,
//! right)`-lexicographic order — the hash join's sorted cursor emission
//! — over exactly the changed pairs.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use setrules_query::incremental::{
    Cursor, IncTerm, TermKind, TermMemo, TermRefresh, TermState, ViewScan,
};
use setrules_query::QueryError;
use setrules_sql::ast::TransitionKind;
use setrules_storage::{ColumnId, Database, TableId, TupleHandle, Value};

use crate::effect::TransitionEffect;
use crate::transinfo::TransInfo;

/// Resolved per-view addressing: the view's table/column names mapped to
/// catalog ids once per refresh, not per row.
struct ViewIds {
    tid: TableId,
    col: Option<ColumnId>,
}

fn view_ids(db: &Database, view: &ViewScan) -> Result<ViewIds, QueryError> {
    let tid = db.table_id(&view.table)?;
    let col = match &view.column {
        Some(c) => Some(
            db.schema(tid)
                .column_id(c)
                .map_err(|_| QueryError::UnknownColumn(format!("{}.{c}", view.table)))?,
        ),
        None => None,
    };
    Ok(ViewIds { tid, col })
}

/// The transaction-wide delta source one refresh round reads from: the
/// append-only effect log, the validity coordinates (transaction epoch
/// and this rule's window generation), and the shared compose cache.
pub struct DeltaSource<'a> {
    /// One projected effect per transition, in order.
    pub log: &'a [TransitionEffect],
    /// The owning transaction's epoch (cursor validity).
    pub epoch: u64,
    /// The refreshing rule's current window generation.
    pub wgen: u64,
    /// suffix start → composed effect, shared across rules.
    pub cache: &'a mut HashMap<usize, Arc<TransitionEffect>>,
}

impl DeltaSource<'_> {
    /// The composition of `log[from..]`, served from the shared cache
    /// when another term at the same cursor already folded it. Returns
    /// `(effect, came_from_cache)`.
    fn composed(&mut self, from: usize) -> (Arc<TransitionEffect>, bool) {
        if let Some(d) = self.cache.get(&from) {
            return (Arc::clone(d), true);
        }
        let eff =
            self.log[from..].iter().fold(TransitionEffect::new(), |acc, e| acc.compose(e));
        let arc = Arc::new(eff);
        self.cache.insert(from, Arc::clone(&arc));
        (arc, false)
    }
}

/// Bring one term's memo up to date against the rule's current window,
/// repairing from the delta-log suffix when the cursor is valid and
/// rebuilding from the window otherwise. Returns what was done and how
/// many rows were probed.
pub fn refresh_term(
    db: &Database,
    term: &IncTerm,
    window: &TransInfo,
    src: &mut DeltaSource<'_>,
    state: &mut TermState,
) -> Result<TermRefresh, QueryError> {
    let next = Cursor { epoch: src.epoch, wgen: src.wgen, seq: src.log.len() };
    let valid = state
        .cursor
        .is_some_and(|c| c.epoch == src.epoch && c.wgen == src.wgen && c.seq <= src.log.len());
    if valid {
        let from = state.cursor.expect("validated above").seq;
        // Clear the cursor before patching: a probe error mid-repair
        // leaves the memo half-patched, and the cleared cursor forces the
        // next consideration to rebuild instead of trusting it.
        state.cursor = None;
        let (rows, shared) = if from == src.log.len() {
            (0, false) // nothing happened since the last consideration
        } else {
            let (delta, shared) = src.composed(from);
            (repair_term(db, term, window, &delta, &mut state.memo)?, shared)
        };
        state.cursor = Some(next);
        Ok(TermRefresh::Repaired { rows, shared })
    } else {
        state.cursor = None;
        state.memo = TermMemo::empty_for(term);
        let rows = rebuild_term(db, term, window, &mut state.memo)?;
        state.cursor = Some(next);
        Ok(TermRefresh::Rebuilt { rows })
    }
}

/// A per-row visitor for [`scan_view`]: the handle and the row as the
/// executor would see it.
type RowVisitor<'a> = dyn FnMut(TupleHandle, &[Value]) -> Result<(), QueryError> + 'a;

/// Walk `kind`'s view of `window` in ascending handle order (= the
/// provider's scan order), yielding each row as the executor would see
/// it.
fn scan_view(
    db: &Database,
    ids: &ViewIds,
    kind: TransitionKind,
    window: &TransInfo,
    f: &mut RowVisitor<'_>,
) -> Result<(), QueryError> {
    match kind {
        TransitionKind::Inserted => {
            for h in &window.ins {
                if db.table_of(*h) != Some(ids.tid) {
                    continue;
                }
                let Some(t) = db.get(ids.tid, *h) else { continue };
                f(*h, &t.0)?;
            }
        }
        TransitionKind::Deleted => {
            for (h, e) in &window.del {
                if e.table != ids.tid {
                    continue;
                }
                f(*h, &e.old.0)?;
            }
        }
        TransitionKind::OldUpdated => {
            for (h, e) in &window.upd {
                if e.table != ids.tid || !ids.col.is_none_or(|c| e.columns.contains(&c)) {
                    continue;
                }
                f(*h, &e.old.0)?;
            }
        }
        TransitionKind::NewUpdated => {
            for (h, e) in &window.upd {
                if e.table != ids.tid || !ids.col.is_none_or(|c| e.columns.contains(&c)) {
                    continue;
                }
                let Some(t) = db.get(ids.tid, *h) else { continue };
                f(*h, &t.0)?;
            }
        }
        TransitionKind::Selected => {
            unreachable!("analyzer rejects selected windows")
        }
    }
    Ok(())
}

/// The delta-named handles whose membership in `kind`'s view may have
/// changed: `(removed, probes)`. Removed handles leave unconditionally;
/// probe handles re-resolve against the window through [`probe_row`].
/// `probes` is one ascending set per view — new inserts and re-probed
/// updates interleave in handle order, exactly the scan order the full
/// evaluator would meet them in.
fn delta_changes(
    db: &Database,
    ids: &ViewIds,
    kind: TransitionKind,
    window: &TransInfo,
    delta: &TransitionEffect,
) -> (Vec<TupleHandle>, BTreeSet<TupleHandle>) {
    // The delta names updates per column; membership probes are per
    // tuple, so dedup once.
    let updated: BTreeSet<TupleHandle> = delta.updated.iter().map(|(h, _)| *h).collect();
    match kind {
        TransitionKind::Inserted => {
            let removed = delta.deleted.iter().copied().collect();
            // New inserts probe in; updates of window-inserted tuples
            // re-probe (their current values changed).
            let probes = delta
                .inserted
                .iter()
                .chain(&updated)
                .filter(|h| window.ins.contains(h) && db.table_of(**h) == Some(ids.tid))
                .copied()
                .collect();
            (removed, probes)
        }
        TransitionKind::Deleted => {
            // Deletes only ever join this view; their old values are
            // frozen, so no removals and no re-probes.
            let probes = delta
                .deleted
                .iter()
                .filter(|h| window.del.get(h).is_some_and(|e| e.table == ids.tid))
                .copied()
                .collect();
            (Vec::new(), probes)
        }
        TransitionKind::OldUpdated | TransitionKind::NewUpdated => {
            let removed = delta.deleted.iter().copied().collect();
            // A newly updated column can bring a tuple into a
            // column-restricted view.
            let probes = updated
                .iter()
                .filter(|h| {
                    window.upd.get(h).is_some_and(|e| {
                        e.table == ids.tid && ids.col.is_none_or(|c| e.columns.contains(&c))
                    })
                })
                .copied()
                .collect();
            (removed, probes)
        }
        TransitionKind::Selected => unreachable!("analyzer rejects selected windows"),
    }
}

/// Resolve the row a probe of `h` in `kind`'s view evaluates: current
/// values for the current-state views, frozen old values otherwise.
fn probe_row<'a>(
    db: &'a Database,
    ids: &ViewIds,
    kind: TransitionKind,
    window: &'a TransInfo,
    h: TupleHandle,
) -> Option<&'a [Value]> {
    match kind {
        TransitionKind::Inserted | TransitionKind::NewUpdated => {
            db.get(ids.tid, h).map(|t| t.0.as_slice())
        }
        TransitionKind::Deleted => window.del.get(&h).map(|e| e.old.0.as_slice()),
        TransitionKind::OldUpdated => window.upd.get(&h).map(|e| e.old.0.as_slice()),
        TransitionKind::Selected => unreachable!("analyzer rejects selected windows"),
    }
}

/// Populate `memo` from scratch by scanning the term's view(s) of the
/// whole window. Returns the number of rows probed.
fn rebuild_term(
    db: &Database,
    term: &IncTerm,
    window: &TransInfo,
    memo: &mut TermMemo,
) -> Result<u64, QueryError> {
    let mut rows = 0u64;
    match (&term.kind, memo) {
        (TermKind::Set { view, .. }, TermMemo::Set(set)) => {
            let ids = view_ids(db, view)?;
            scan_view(db, &ids, view.kind, window, &mut |h, row| {
                rows += 1;
                if term.probe_set(row)? {
                    set.insert(h);
                }
                Ok(())
            })?;
        }
        (TermKind::Acc { view, .. }, TermMemo::Acc(acc)) => {
            let ids = view_ids(db, view)?;
            scan_view(db, &ids, view.kind, window, &mut |h, row| {
                rows += 1;
                if let Some(v) = term.probe_acc(row)? {
                    acc.insert(h, v);
                }
                Ok(())
            })?;
        }
        (TermKind::Join { left, right, .. }, TermMemo::Join(j)) => {
            let lids = view_ids(db, left)?;
            let rids = view_ids(db, right)?;
            scan_view(db, &lids, left.kind, window, &mut |h, row| {
                rows += 1;
                if let Some(key) = term.probe_join_side(true, row) {
                    j.left.insert(h, key, row.to_vec());
                }
                Ok(())
            })?;
            scan_view(db, &rids, right.kind, window, &mut |h, row| {
                rows += 1;
                if let Some(key) = term.probe_join_side(false, row) {
                    j.right.insert(h, key, row.to_vec());
                }
                Ok(())
            })?;
            // Probe every key-matching pair in (left, right)-lexicographic
            // order — the hash join's sorted cursor emission feeding the
            // filter.
            let mut matched = Vec::new();
            for (l, (key, lrow)) in &j.left.rows {
                let Some(bucket) = j.right.by_key.get(key) else { continue };
                for r in bucket {
                    rows += 1;
                    if term.probe_join_pair(lrow, &j.right.rows[r].1)? {
                        matched.push((*l, *r));
                    }
                }
            }
            for (l, r) in matched {
                j.add_pair(l, r);
            }
        }
        _ => return Err(QueryError::Type("internal: memo kind does not match term".into())),
    }
    Ok(rows)
}

/// Patch `memo` from the delta composed since the term's cursor.
/// `window` must be the rule's *current* composite window (the delta is
/// a suffix of its composition). Returns the number of rows probed.
fn repair_term(
    db: &Database,
    term: &IncTerm,
    window: &TransInfo,
    delta: &TransitionEffect,
    memo: &mut TermMemo,
) -> Result<u64, QueryError> {
    let mut rows = 0u64;
    match (&term.kind, memo) {
        (TermKind::Set { view, .. }, TermMemo::Set(set)) => {
            let ids = view_ids(db, view)?;
            let (removed, probes) = delta_changes(db, &ids, view.kind, window, delta);
            for h in removed {
                set.remove(&h);
            }
            for h in probes {
                let Some(row) = probe_row(db, &ids, view.kind, window, h) else {
                    set.remove(&h);
                    continue;
                };
                rows += 1;
                if term.probe_set(row)? {
                    set.insert(h);
                } else {
                    set.remove(&h);
                }
            }
        }
        (TermKind::Acc { view, .. }, TermMemo::Acc(acc)) => {
            let ids = view_ids(db, view)?;
            let (removed, probes) = delta_changes(db, &ids, view.kind, window, delta);
            for h in removed {
                acc.remove(h);
            }
            for h in probes {
                let Some(row) = probe_row(db, &ids, view.kind, window, h) else {
                    acc.remove(h);
                    continue;
                };
                rows += 1;
                match term.probe_acc(row)? {
                    Some(v) => acc.insert(h, v),
                    None => acc.remove(h),
                }
            }
        }
        (TermKind::Join { left, right, .. }, TermMemo::Join(j)) => {
            let lids = view_ids(db, left)?;
            let rids = view_ids(db, right)?;
            // 1. Re-resolve each side's delta-named handles against its
            //    own memo (side probes never error: scan and hash both
            //    defer errors to the pair predicate).
            let (lrem, lprobes) = delta_changes(db, &lids, left.kind, window, delta);
            let (rrem, rprobes) = delta_changes(db, &rids, right.kind, window, delta);
            let mut lchanged: BTreeSet<TupleHandle> = lrem.iter().copied().collect();
            let mut rchanged: BTreeSet<TupleHandle> = rrem.iter().copied().collect();
            for h in lrem {
                j.left.remove(h);
            }
            for h in rrem {
                j.right.remove(h);
            }
            for h in lprobes {
                lchanged.insert(h);
                match probe_row(db, &lids, left.kind, window, h)
                    .and_then(|row| term.probe_join_side(true, row).map(|k| (k, row)))
                {
                    Some((key, row)) => {
                        rows += 1;
                        j.left.insert(h, key, row.to_vec());
                    }
                    None => j.left.remove(h),
                }
            }
            for h in rprobes {
                rchanged.insert(h);
                match probe_row(db, &rids, right.kind, window, h)
                    .and_then(|row| term.probe_join_side(false, row).map(|k| (k, row)))
                {
                    Some((key, row)) => {
                        rows += 1;
                        j.right.insert(h, key, row.to_vec());
                    }
                    None => j.right.remove(h),
                }
            }
            // 2. Every pair involving a changed handle is stale: purge
            //    them, then re-derive candidates by probing the opposite
            //    side's key index (Rete beta propagation).
            let mut cand: BTreeSet<(TupleHandle, TupleHandle)> = BTreeSet::new();
            for &h in &lchanged {
                j.purge_left(h);
                if let Some((key, _)) = j.left.rows.get(&h) {
                    if let Some(bucket) = j.right.by_key.get(key) {
                        cand.extend(bucket.iter().map(|r| (h, *r)));
                    }
                }
            }
            for &h in &rchanged {
                j.purge_right(h);
                if let Some((key, _)) = j.right.rows.get(&h) {
                    if let Some(bucket) = j.left.by_key.get(key) {
                        cand.extend(bucket.iter().map(|l| (*l, h)));
                    }
                }
            }
            // 3. Probe the changed pairs in (left, right)-lexicographic
            //    order — unchanged pairs keep their verdict and are
            //    provably error-free, so this reproduces the filter's
            //    error order over the full combination walk.
            for (l, r) in cand {
                rows += 1;
                let ok = term.probe_join_pair(&j.left.rows[&l].1, &j.right.rows[&r].1)?;
                if ok {
                    j.add_pair(l, r);
                }
            }
        }
        _ => return Err(QueryError::Type("internal: memo kind does not match term".into())),
    }
    Ok(rows)
}
