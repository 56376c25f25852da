//! Delta repair for incremental rule-condition evaluation, with memos
//! shared across rules.
//!
//! `setrules-query::incremental` decides *whether* a condition is
//! incrementalizable and owns the memo representation; this module owns
//! the [`MemoStore`] that keeps term memos truthful, because that needs
//! the engine's windows ([`TransInfo`]) and delta log
//! ([`TransitionEffect`]). [`MemoStore::refresh`] repairs a memo from the
//! composed `[I, D, U]` suffix of the transaction's delta log after its
//! cursor, or rebuilds it by one full scan of the window when it has none.
//!
//! # Shared memos
//!
//! A memo is keyed by (template, window start). The template is the
//! interned canonical text of the term's subquery: the memo depends on
//! the subquery, never on the literal the rule compares it with, which
//! stays with the rule's [`IncTerm::truth`]. The window start is the
//! index of the transaction transition at which a rule's window last
//! restarted (acting rule, `SinceLastTriggering` re-trigger or
//! `SinceLastConsidered` clear). `Windows` (`crate::windows`) owns the
//! starts and hands the considered rule's to [`MemoStore::refresh`].
//! `Windows::apply` composes every later transition into every live
//! window, so rules with equal starts have equal windows, and equal
//! templates over equal windows give equal memos: a rule may read a memo
//! another rule built or repaired. The store is scoped to one
//! transaction (cleared at `begin` and on plan invalidation), so a cursor
//! is a plain log position.
//!
//! # Shared join sides
//!
//! A join term keeps three memos here, not one. Each side is a Rete
//! alpha memory keyed by (side template, window start): the side
//! template is the view (kind, table, column restriction), the texts of
//! its pushdown-mirror conjuncts and its key column, interned once when
//! the rule is prepared. A side holds handle → join key and key →
//! handles, never row copies: the pair probe reads each row where the
//! window keeps it ([`probe_row`]: the window's shared old image for
//! `old updated` / `deleted`, the heap for `inserted` / `new updated`).
//! Equal side templates over equal windows give equal sides, whichever
//! term or rule they belong to, by the same argument as for term memos.
//! The term's own memo, keyed by (term template, window start), keeps
//! only its pairs. A side has its own cursor and is repaired at most once
//! per log suffix, by whichever term asks first. A pair memo's refresh
//! first brings both sides to the log's end, then takes its changed
//! handles from its *own* composed suffix (through the compose cache),
//! purges every pair naming one of them, and re-derives candidates
//! against the sides' current key indexes.
//!
//! Every transition appends its projected effect to the delta log once
//! (from the first memo refresh on: before it no cursor exists). The
//! composition of `log[seq..]` is a pure function of the suffix, so it is
//! cached per `seq` until the log grows. A refresh is `shared`
//! (`incr_shared_hits`) when another rule paid for it: the composed
//! suffix came from that cache, or the memo was already current.
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
//! (`Windows::apply`) — are named by the delta's handle sets. Tuple
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
//! side applies it to its keys; the pair memo then re-derives exactly the
//! pairs involving a handle its own suffix names by probing the opposite
//! side's key index. A side repaired from an older cursor than the pair
//! memo's ends in the same state (it reflects the whole current window),
//! and a pair naming no handle of the pair memo's suffix kept both rows'
//! values and memberships since the pair memo last judged it.
//!
//! # Error-order fidelity
//!
//! Probe errors propagate: an erroring row is met here exactly when the
//! full evaluator would scan it, and *in the same order*. Windows
//! iterate in ascending handle order (= the provider's scan order), so
//! rebuilds probe exactly as the executor scans; repairs probe the
//! delta-named handles as one ascending set per view (rows not named by
//! the delta are unchanged and cannot error: they were probed without
//! error when they last changed, by whichever rule refreshed the memo
//! then, since a probe error aborts the transaction). Join pair probes
//! run in `(left, right)`-lexicographic order — the hash join's sorted
//! cursor emission — over exactly the changed pairs.
//!
//! Side probes never error: [`IncTerm::probe_join_side`] mirrors the scan
//! prefilter (drop on a definite false, keep on error) and the hash
//! step's NULL-key skip, and defers every error to the pair predicate.
//! So a side built or repaired ahead of a term — by another rule, or by
//! this rule before its pair probes — raises nothing and cannot move an
//! error: every error a join can raise comes from its own pair probes,
//! which stay per term and run in `(left, right)` order over the same
//! candidates as before the sides were shared.

use std::collections::{BTreeSet, HashMap};

use setrules_query::incremental::{
    IncTerm, JoinSide, Term3, TermKind, TermMemo, TermRefresh, ViewScan,
};
use setrules_query::QueryError;
use setrules_sql::ast::TransitionKind;
use setrules_storage::{ColumnId, Database, TableId, TupleHandle, Value};

use crate::effect::TransitionEffect;
use crate::rule::RuleId;
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

/// A term's interned templates: its own, and a join term's two sides'.
#[derive(Debug, Clone, Copy)]
pub struct TemplateIds {
    /// The term's template (its subquery's canonical text).
    pub term: u32,
    /// A join term's side templates, `[left, right]`.
    pub sides: Option<[u32; 2]>,
}

impl TemplateIds {
    /// Does this term read the memo (term or side) interned as `id`?
    pub fn reads(&self, id: u32) -> bool {
        self.term == id || self.sides.is_some_and(|s| s.contains(&id))
    }
}

/// One shared term memo (a join's pair memo): its state, the log
/// position proving how fresh it is, and the rule that last refreshed it.
struct SharedMemo {
    memo: TermMemo,
    /// Log position: entries `[cursor..]` are not absorbed yet. `None`
    /// means the memo cannot be trusted (a repair or rebuild was
    /// interrupted) and must be rebuilt from the window.
    cursor: Option<usize>,
    /// The last rule to refresh it (a current memo another rule
    /// refreshed is a shared hit).
    reader: RuleId,
}

/// One shared join side (an alpha memory) and its own cursor, which
/// whichever term asks first moves to the log's end.
struct SideMemo {
    side: JoinSide,
    /// As [`SharedMemo::cursor`].
    cursor: Option<usize>,
}

/// The engine's term memos, shared across rules: one memo per (term
/// template, window start) and one join side per (side template, window
/// start), sound for the reasons the module docs give.
#[derive(Default)]
pub struct MemoStore {
    /// Canonical subquery text or side template → template id (the two
    /// kinds of text cannot collide: a side template starts with its
    /// view, a subquery with `select`). Cleared with the prepared plans
    /// that hold the ids.
    templates: HashMap<String, u32>,
    /// (template id, window start) → memo. Cleared at every transaction
    /// start: starts and log positions are per transaction.
    memos: HashMap<(u32, usize), SharedMemo>,
    /// (side template id, window start) → join side; cleared with `memos`.
    sides: HashMap<(u32, usize), SideMemo>,
    /// The delta log: one projected `[I, D, U]` effect per transition
    /// since `log_open` was set. A memo at cursor `seq` repairs from the
    /// composition of `log[seq..]`.
    log: Vec<TransitionEffect>,
    /// Set by the transaction's first memo refresh. Until then no cursor
    /// exists, so transitions are not logged; a cursor is taken at the
    /// log's end, so none can point before the first entry.
    log_open: bool,
    /// suffix start → composed effect; cleared whenever the log grows.
    compose_cache: HashMap<usize, TransitionEffect>,
}

/// The composition of `log[from..]`, from `cache` when another memo at
/// the same cursor folded it already (the composition is a pure function
/// of the suffix).
fn composed<'c>(
    log: &[TransitionEffect],
    cache: &'c mut HashMap<usize, TransitionEffect>,
    from: usize,
) -> &'c TransitionEffect {
    cache
        .entry(from)
        .or_insert_with(|| log[from..].iter().fold(TransitionEffect::new(), |a, e| a.compose(e)))
}

impl MemoStore {
    /// The ids of `term`'s template and, for a join, of its sides'
    /// templates, interning each on first sight. Called once per term
    /// when a rule is prepared, never per consideration.
    pub fn intern(&mut self, term: &IncTerm) -> TemplateIds {
        let mut intern = |text: &str| {
            let next = self.templates.len() as u32;
            *self.templates.entry(text.to_string()).or_insert(next)
        };
        TemplateIds {
            term: intern(&term.template),
            sides: term.join_sides().map(|[(_, l), (_, r)]| [intern(l), intern(r)]),
        }
    }

    /// A new transaction: no memo survives, and the log starts empty.
    /// Keeps the maps' capacity, so a warm engine does not allocate here.
    pub fn begin(&mut self) {
        self.memos.clear();
        self.sides.clear();
        self.log.clear();
        self.log_open = false;
        self.compose_cache.clear();
    }

    /// The prepared plans died: their template ids with them.
    pub fn invalidate(&mut self) {
        self.memos.clear();
        self.sides.clear();
        self.templates.clear();
    }

    /// A transition was composed into every window: log its `effect`
    /// once the log is open, and drop the memos and sides over a window
    /// start no considerable rule holds any more (`live(start)` is false;
    /// starts only move forward, so none of them can be read again).
    pub fn transition_applied(
        &mut self,
        effect: impl FnOnce() -> TransitionEffect,
        live: impl Fn(usize) -> bool,
    ) {
        if self.log_open {
            self.log.push(effect());
            self.compose_cache.clear();
        }
        if !self.memos.is_empty() {
            self.memos.retain(|&(_, start), _| live(start));
        }
        if !self.sides.is_empty() {
            self.sides.retain(|&(_, start), _| live(start));
        }
    }

    /// Bring the memo of `term` (interned as `ids`) over `rid`'s window,
    /// which starts at transition `start`, up to date — a join first
    /// brings both its sides to the log's end — repairing from the
    /// delta-log suffix when the memo has a cursor and rebuilding from the
    /// window otherwise, and answer what was done plus the term's truth
    /// over the memo.
    pub fn refresh(
        &mut self,
        db: &Database,
        term: &IncTerm,
        ids: TemplateIds,
        rid: RuleId,
        start: usize,
        window: &TransInfo,
    ) -> Result<(TermRefresh, Term3), QueryError> {
        // The memo takes a cursor at the log's end: from here on every
        // transition must be logged for it.
        self.log_open = true;
        let len = self.log.len();
        let mut done = TermRefresh::default();
        let st = self.memos.entry((ids.term, start)).or_insert_with(|| SharedMemo {
            memo: TermMemo::empty_for(term),
            cursor: None,
            reader: rid,
        });
        // Whether another rule folded this memo's suffix is judged before
        // a join's sides (this rule's own work) can fold it.
        let folded =
            st.cursor.is_some_and(|from| from != len && self.compose_cache.contains_key(&from));
        let sides = match (ids.sides, term.join_sides()) {
            (Some(side_ids), Some(views)) => {
                for (side, (id, (view, _))) in side_ids.into_iter().zip(views).enumerate() {
                    let ss = self
                        .sides
                        .entry((id, start))
                        .or_insert_with(|| SideMemo { side: JoinSide::default(), cursor: None });
                    let left = side == 0;
                    match ss.cursor {
                        Some(from) if from == len => {}
                        Some(from) => {
                            ss.cursor = None;
                            let delta = composed(&self.log, &mut self.compose_cache, from);
                            done.rows +=
                                repair_side(db, term, left, view, window, delta, &mut ss.side)?;
                        }
                        None => {
                            ss.side = JoinSide::default();
                            done.side_builds += 1;
                            done.rows += build_side(db, term, left, view, window, &mut ss.side)?;
                        }
                    }
                    ss.cursor = Some(len);
                }
                let side = |i: usize| &self.sides[&(side_ids[i], start)].side;
                Some([side(0), side(1)])
            }
            _ => None,
        };
        match st.cursor {
            // Current: nothing happened since the last refresh — by
            // another rule (shared) or by this one.
            Some(from) if from == len => done.shared = st.reader != rid,
            Some(from) => {
                // Clear the cursor before patching: a probe error
                // mid-repair leaves the memo half-patched, and the
                // cleared cursor forces a rebuild instead of trusting it.
                st.cursor = None;
                let delta = composed(&self.log, &mut self.compose_cache, from);
                done.shared = folded;
                done.rows += repair_term(db, term, window, delta, sides, &mut st.memo)?;
            }
            None => {
                st.memo = TermMemo::empty_for(term);
                done.rebuilt = true;
                done.rows += rebuild_term(db, term, window, sides, &mut st.memo)?;
            }
        }
        st.cursor = Some(len);
        st.reader = rid;
        Ok((done, term.truth(&st.memo)?))
    }

    /// One report line per live memo and then per live join side, each
    /// sorted by template text and window start: the template, the
    /// start, the size, and the rules `readers(template, start)` names.
    pub fn describe(&self, readers: &dyn Fn(u32, usize) -> String) -> Vec<String> {
        let text = |t: u32| {
            self.templates.iter().find_map(|(s, id)| (*id == t).then_some(s.as_str()))
        };
        let line = |prefix: &str, t: u32, start: usize, entries: usize, bytes: usize| {
            format!(
                "  {prefix}[{}] from transition {start}: {entries} entries (~{bytes} bytes), \
                 read by {}",
                text(t).unwrap_or("?"),
                readers(t, start)
            )
        };
        let mut memos: Vec<_> = self
            .memos
            .iter()
            .map(|(&(t, start), st)| (text(t), start, t, st.memo.entries(), st.memo.approx_bytes()))
            .collect();
        let mut sides: Vec<_> = self
            .sides
            .iter()
            .map(|(&(t, start), st)| {
                (text(t), start, t, st.side.keys.len(), st.side.approx_bytes())
            })
            .collect();
        memos.sort_unstable_by_key(|&(text, start, ..)| (text, start));
        sides.sort_unstable_by_key(|&(text, start, ..)| (text, start));
        let memos = memos.into_iter().map(|(_, start, t, n, b)| line("", t, start, n, b));
        let sides = sides.into_iter().map(|(_, start, t, n, b)| line("join side ", t, start, n, b));
        memos.chain(sides).collect()
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

/// Fill `side` (the `left` or right side of `term`, scanning `view`)
/// from the whole window. Side probes never error. Returns the number of
/// rows scanned.
fn build_side(
    db: &Database,
    term: &IncTerm,
    left: bool,
    view: &ViewScan,
    window: &TransInfo,
    side: &mut JoinSide,
) -> Result<u64, QueryError> {
    let ids = view_ids(db, view)?;
    let mut rows = 0u64;
    scan_view(db, &ids, view.kind, window, &mut |h, row| {
        rows += 1;
        if let Some(key) = term.probe_join_side(left, row) {
            side.insert(h, key);
        }
        Ok(())
    })?;
    Ok(rows)
}

/// Patch `side` from the delta composed since its cursor: re-resolve
/// each delta-named handle. Side probes never error (scan and hash both
/// defer errors to the pair predicate). Returns the number of rows
/// probed.
fn repair_side(
    db: &Database,
    term: &IncTerm,
    left: bool,
    view: &ViewScan,
    window: &TransInfo,
    delta: &TransitionEffect,
    side: &mut JoinSide,
) -> Result<u64, QueryError> {
    let ids = view_ids(db, view)?;
    let (removed, probes) = delta_changes(db, &ids, view.kind, window, delta);
    for h in removed {
        side.remove(h);
    }
    let mut rows = 0u64;
    for h in probes {
        match probe_row(db, &ids, view.kind, window, h) {
            Some(row) => {
                rows += 1;
                match term.probe_join_side(left, row) {
                    Some(key) => side.insert(h, key),
                    None => side.remove(h),
                }
            }
            None => side.remove(h),
        }
    }
    Ok(rows)
}

/// The pair probe of a join term over handles `l` and `r`, reading each
/// row where its window keeps it: side memos hold keys, not rows.
struct PairProbe<'a> {
    db: &'a Database,
    term: &'a IncTerm,
    window: &'a TransInfo,
    views: [(&'a ViewScan, ViewIds); 2],
}

impl PairProbe<'_> {
    fn holds(&self, l: TupleHandle, r: TupleHandle) -> Result<bool, QueryError> {
        let row = |(view, ids): &(&ViewScan, ViewIds), h| {
            probe_row(self.db, ids, view.kind, self.window, h).ok_or_else(|| {
                QueryError::Type("internal: a join side holds a row its window lacks".into())
            })
        };
        self.term.probe_join_pair(row(&self.views[0], l)?, row(&self.views[1], r)?)
    }
}

/// The sides of a join term and its pair probe, or the internal error a
/// join refreshed without its sides gets.
fn join_parts<'a>(
    db: &'a Database,
    term: &'a IncTerm,
    window: &'a TransInfo,
    sides: Option<[&'a JoinSide; 2]>,
) -> Result<([&'a JoinSide; 2], PairProbe<'a>), QueryError> {
    let (Some(sides), Some([(lv, _), (rv, _)])) = (sides, term.join_sides()) else {
        return Err(QueryError::Type("internal: join term refreshed without its sides".into()));
    };
    let views = [(lv, view_ids(db, lv)?), (rv, view_ids(db, rv)?)];
    Ok((sides, PairProbe { db, term, window, views }))
}

/// Populate `memo` from scratch by scanning the term's view of the whole
/// window, or, for a join, by probing every key-matching pair of its
/// current `sides`. Returns the number of rows probed.
fn rebuild_term(
    db: &Database,
    term: &IncTerm,
    window: &TransInfo,
    sides: Option<[&JoinSide; 2]>,
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
        (TermKind::Join { .. }, TermMemo::Join(j)) => {
            let ([left, right], probe) = join_parts(db, term, window, sides)?;
            // Every key-matching pair (walking the smaller key index),
            // probed in (left, right)-lexicographic order — the hash
            // join's sorted cursor emission feeding the filter.
            let swap = left.by_key.len() > right.by_key.len();
            let (outer, inner) = if swap { (right, left) } else { (left, right) };
            let mut cand = Vec::new();
            for (key, os) in &outer.by_key {
                let Some(is) = inner.by_key.get(key) else { continue };
                let (ls, rs) = if swap { (is, os) } else { (os, is) };
                cand.extend(ls.iter().flat_map(|l| rs.iter().map(move |r| (*l, *r))));
            }
            cand.sort_unstable();
            for (l, r) in cand {
                rows += 1;
                if probe.holds(l, r)? {
                    j.add_pair(l, r);
                }
            }
        }
        _ => return Err(QueryError::Type("internal: memo kind does not match term".into())),
    }
    Ok(rows)
}

/// Patch `memo` from the delta composed since the term's cursor.
/// `window` must be the rule's *current* composite window (the delta is
/// a suffix of its composition), and a join's `sides` must be current.
/// Returns the number of rows probed.
fn repair_term(
    db: &Database,
    term: &IncTerm,
    window: &TransInfo,
    delta: &TransitionEffect,
    sides: Option<[&JoinSide; 2]>,
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
        (TermKind::Join { .. }, TermMemo::Join(j)) => {
            let ([left, right], probe) = join_parts(db, term, window, sides)?;
            // 1. The handles this memo's own suffix names per side: any
            //    pair involving one of them is stale. (The sides were
            //    already repaired, possibly from another cursor.)
            let changed = |side: usize| {
                let (view, ids) = &probe.views[side];
                let (removed, probes) = delta_changes(db, ids, view.kind, window, delta);
                removed.into_iter().chain(probes).collect::<BTreeSet<_>>()
            };
            let (lchanged, rchanged) = (changed(0), changed(1));
            // 2. Purge the stale pairs, then re-derive candidates by
            //    probing the opposite side's key index (Rete beta
            //    propagation).
            let mut cand: BTreeSet<(TupleHandle, TupleHandle)> = BTreeSet::new();
            for &h in &lchanged {
                j.purge_left(h);
                if let Some(bucket) = left.keys.get(&h).and_then(|k| right.by_key.get(k)) {
                    cand.extend(bucket.iter().map(|r| (h, *r)));
                }
            }
            for &h in &rchanged {
                j.purge_right(h);
                if let Some(bucket) = right.keys.get(&h).and_then(|k| left.by_key.get(k)) {
                    cand.extend(bucket.iter().map(|l| (*l, h)));
                }
            }
            // 3. Probe the changed pairs in (left, right)-lexicographic
            //    order — unchanged pairs keep their verdict and are
            //    provably error-free, so this reproduces the filter's
            //    error order over the full combination walk.
            for (l, r) in cand {
                rows += 1;
                if probe.holds(l, r)? {
                    j.add_pair(l, r);
                }
            }
        }
        _ => return Err(QueryError::Type("internal: memo kind does not match term".into())),
    }
    Ok(rows)
}
