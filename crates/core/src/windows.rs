//! The Figure-1 window state machine: every rule's composite window
//! (`R.trans-info`), the pending external block, where each window last
//! restarted, and the trigger verdicts read off the windows.
//!
//! A window is always the Definition-2.1 fold of the transitions since
//! its start: [`Windows::apply`] composes each new transition into every
//! live rule's window, except where one of the restart rules below makes
//! the transition (or nothing) the whole window. Three events restart a
//! window, one per [`RetriggerSemantics`] plus the one all share:
//!
//! * the acting rule's window becomes exactly its own transition (§4.2,
//!   Fig. 1's `init-trans-info`), under every semantics;
//! * `SinceLastTriggering` (footnote 8, \[WF89b\]): a transition that by
//!   itself triggers a rule becomes that rule's whole window;
//! * `SinceLastConsidered` (footnote 8): a rule whose condition was not
//!   true is emptied and starts at the next transition.
//!
//! Starts are transition indexes, so rules with equal starts have equal
//! windows; [`MemoStore`] keys its shared memos by them and learns here,
//! at every transition, which starts a rule that can still be considered
//! holds. A dropped rule is not composed into and holds no start; a
//! deactivated one keeps its window (`RuleSystem::current_window` shows
//! it) but cannot be considered in the transaction, so its start pins no
//! memo either.
//!
//! The per-pass state lives here too: which rules were considered against
//! their current windows, which were considered at all (a second
//! consideration is a re-trigger), and each rule's cached `triggered_by`
//! verdict, dropped whenever its window changes. The engine reaches
//! windows only through this type and emits the events it reports.

use setrules_query::OpEffect;
use setrules_storage::Database;

use crate::incremental::MemoStore;
use crate::rule::{Rule, RuleId};
use crate::stats::EngineStats;
use crate::transinfo::TransInfo;

/// Which composite window a rule is (re)considered against — the paper's
/// default (§4.2) and the two footnote-8 alternatives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetriggerSemantics {
    /// §4.2 (default): a rule's window restarts when *its own action*
    /// executes; otherwise it extends back to the start of the transaction
    /// (or its last action).
    #[default]
    SinceLastAction,
    /// Footnote 8, first alternative: the window restarts whenever the
    /// rule is *chosen for consideration*, whether or not its action runs.
    SinceLastConsidered,
    /// Footnote 8, second alternative (\[WF89b\]): the window restarts at
    /// the most recent transition that triggers the rule by itself.
    SinceLastTriggering,
}

/// Every rule's window in the open (or last) transaction, the pending
/// external block, and the current rule-processing pass's state.
#[derive(Default)]
pub(crate) struct Windows {
    retrigger: RetriggerSemantics,
    /// `infos[rid]`: rule `rid`'s window, Fig. 1's `R.trans-info`.
    infos: Vec<TransInfo>,
    /// `starts[rid]`: the index of the transition at which `rid`'s window
    /// last restarted (0 at transaction start).
    starts: Vec<usize>,
    /// The index the transaction's next transition will get.
    next: usize,
    /// External changes since the last rule-processing pass.
    pending: TransInfo,
    /// Rules considered against their current windows in this pass;
    /// cleared by every transition (§4.2: rules are chosen "until one is
    /// found with a condition that holds or until there are none left").
    considered: Vec<bool>,
    /// Rules considered at least once in this pass.
    ever_considered: Vec<bool>,
    /// Cached `triggered_by` verdict over each rule's current window.
    verdicts: Vec<Option<bool>>,
    /// [`Windows::candidates`]' answer, refilled on each call.
    candidates: Vec<RuleId>,
    /// [`Windows::apply`]'s report, refilled on each call.
    changes: Vec<(RuleId, bool)>,
}

impl Windows {
    /// No windows yet; restarts follow `retrigger`.
    pub fn new(retrigger: RetriggerSemantics) -> Windows {
        Windows { retrigger, ..Windows::default() }
    }

    /// A new transaction over `n` rules: every window is empty and starts
    /// at transition 0, and nothing is pending. The pass state is sized
    /// here and reset by [`Windows::begin_pass`].
    pub fn begin(&mut self, n: usize) {
        self.infos.clear();
        self.infos.resize_with(n, TransInfo::new);
        self.starts.clear();
        self.starts.resize(n, 0);
        self.next = 0;
        self.pending = TransInfo::new();
        self.considered.resize(n, false);
        self.ever_considered.resize(n, false);
        self.verdicts.resize(n, None);
    }

    /// The transaction ended: release every window and the pending block,
    /// whose old images the undo log shared. The starts stay, for the
    /// memos that outlive the transaction to name their readers.
    pub fn end(&mut self) {
        self.infos.clear();
        self.pending = TransInfo::new();
    }

    /// A new rule-processing pass (every `process rules` point and the
    /// commit start one): no rule has been considered in it yet.
    pub fn begin_pass(&mut self) {
        self.considered.fill(false);
        self.ever_considered.fill(false);
        self.verdicts.fill(None);
    }

    /// Fold one external operation's effect into the pending block.
    pub fn absorb(&mut self, eff: OpEffect, track_selects: bool) {
        self.pending.absorb(eff, track_selects);
    }

    /// Make `block` (the window deferred transactions left behind) the
    /// pending block of the transaction just begun.
    pub fn set_pending(&mut self, block: TransInfo) {
        self.pending = block;
    }

    /// Take the pending block out as the pass's external transition, or
    /// `None` when nothing happened since the last pass.
    pub fn take_pending(&mut self) -> Option<TransInfo> {
        (!self.pending.is_empty()).then(|| std::mem::take(&mut self.pending))
    }

    /// Rule `rid`'s window.
    pub fn window(&self, rid: RuleId) -> &TransInfo {
        &self.infos[rid.0]
    }

    /// The index of the transition at which `rid`'s window last
    /// restarted.
    pub fn start(&self, rid: RuleId) -> usize {
        self.starts[rid.0]
    }

    /// A new transition (§4.2, Fig. 1): the acting rule's window becomes
    /// `transition`, a `SinceLastTriggering` rule it triggers by itself
    /// restarts at it, and every other live window composes it, sharing
    /// its old images and column sets. Hands the transition's effect and
    /// the starts still held by considerable rules to `memos`, and drops
    /// every cached verdict and considered flag.
    ///
    /// Reports, in creation order, each rule whose window the transition
    /// initialised (`true`: restarted, or composed into an empty window)
    /// or modified (`false`) — Fig. 1's `init-trans-info` and
    /// `modify-trans-info` — for the rules it triggers by itself and the
    /// acting rule.
    pub fn apply(
        &mut self,
        rules: &[Rule],
        db: &Database,
        transition: TransInfo,
        acting: Option<RuleId>,
        memos: &mut MemoStore,
        stats: &mut EngineStats,
    ) -> &[(RuleId, bool)] {
        let this = self.next;
        self.next += 1;
        self.changes.clear();
        let (mut checks, mut composes) = (0, 0);
        for rule in rules.iter().filter(|r| !r.dropped) {
            let id = rule.id.0;
            checks += 1;
            let triggered = rule.triggered_by(db, &transition);
            if Some(rule.id) == acting {
                // The transition moves in below, once nothing reads it.
                self.starts[id] = this;
                self.changes.push((rule.id, true));
            } else if self.retrigger == RetriggerSemantics::SinceLastTriggering && triggered {
                self.infos[id] = transition.clone();
                self.starts[id] = this;
                self.changes.push((rule.id, true));
            } else {
                let slot = &mut self.infos[id];
                let was_empty = slot.is_empty();
                slot.compose(&transition);
                composes += 1;
                if triggered {
                    self.changes.push((rule.id, was_empty));
                }
            }
        }
        stats.trigger_checks += checks;
        stats.window_composes += composes;
        // Rule DDL waits for the transaction to end, so only an active,
        // undropped rule can read a memo again.
        let starts = &self.starts;
        memos.transition_applied(
            || transition.effect(|t| db.schema(t).arity()),
            |start| rules.iter().any(|r| r.active && !r.dropped && starts[r.id.0] == start),
        );
        if let Some(rid) = acting {
            self.infos[rid.0] = transition;
        }
        self.considered.fill(false);
        self.verdicts.fill(None);
        &self.changes
    }

    /// The rules Fig. 1's `select-triggered-rule` chooses among, in
    /// creation order: each rule not yet considered against its current
    /// window whose window satisfies its transition predicate. A verdict
    /// is computed once per window change.
    pub fn candidates(
        &mut self,
        rules: &[Rule],
        db: &Database,
        stats: &mut EngineStats,
    ) -> &[RuleId] {
        self.candidates.clear();
        for rule in rules {
            let id = rule.id.0;
            if rule.dropped || self.considered[id] {
                continue;
            }
            let triggered = *self.verdicts[id].get_or_insert_with(|| {
                stats.trigger_checks += 1;
                rule.triggered_by(db, &self.infos[id])
            });
            if triggered {
                self.candidates.push(rule.id);
            }
        }
        &self.candidates
    }

    /// `rid` was chosen for consideration: it is not a candidate again
    /// until a transition changes the windows. Answers whether it was
    /// considered earlier in this pass, i.e. re-triggered (§4.2).
    pub fn consider(&mut self, rid: RuleId) -> bool {
        self.considered[rid.0] = true;
        std::mem::replace(&mut self.ever_considered[rid.0], true)
    }

    /// `rid`'s condition did not hold. Under `SinceLastConsidered`
    /// (footnote 8) its window restarts: emptied, from the next
    /// transition on. Other windows, and the memos over them, are
    /// untouched.
    pub fn condition_false(&mut self, rid: RuleId) {
        if self.retrigger == RetriggerSemantics::SinceLastConsidered {
            self.infos[rid.0] = TransInfo::new();
            self.starts[rid.0] = self.next;
            self.verdicts[rid.0] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use setrules_query::Relation;
    use setrules_storage::{
        ColumnDef, ColumnId, DataType, TableId, TableSchema, Tuple, TupleHandle, Value,
    };
    use setrules_testkit::Rng;

    use super::*;
    use crate::rule::{CompiledAction, CompiledPred};

    const SEMANTICS: [RetriggerSemantics; 3] = [
        RetriggerSemantics::SinceLastAction,
        RetriggerSemantics::SinceLastConsidered,
        RetriggerSemantics::SinceLastTriggering,
    ];

    /// Tuples the transitions change: each one of two tables' pre-issued
    /// handles is unborn (a later insert brings it in), live with its
    /// current value, or gone for good (handles are never reused).
    struct World {
        db: Database,
        tables: [TableId; 2],
        unborn: Vec<(TableId, TupleHandle)>,
        live: BTreeMap<TupleHandle, (TableId, Arc<Tuple>)>,
    }

    impl World {
        fn new(rng: &mut Rng) -> World {
            let mut db = Database::new();
            let cols =
                || vec![ColumnDef::new("a", DataType::Int), ColumnDef::new("b", DataType::Int)];
            let tables = [
                db.create_table(TableSchema::new("t", cols())).unwrap(),
                db.create_table(TableSchema::new("u", cols())).unwrap(),
            ];
            let (mut unborn, mut live) = (Vec::new(), BTreeMap::new());
            for i in 0..32 {
                let table = tables[rng.below(2)];
                let value = Tuple(vec![Value::Int(i), Value::Int(0)]);
                let h = db.insert(table, value.clone()).unwrap();
                if i < 16 {
                    live.insert(h, (table, Arc::new(value)));
                } else {
                    unborn.push((table, h));
                }
            }
            World { db, tables, unborn, live }
        }

        /// One transition of up to four single-table operations.
        fn transition(&mut self, rng: &mut Rng) -> TransInfo {
            let mut info = TransInfo::new();
            for _ in 0..1 + rng.below(4) {
                let table = self.tables[rng.below(2)];
                let hs: Vec<TupleHandle> = self
                    .live
                    .iter()
                    .filter(|(_, (t, _))| *t == table)
                    .map(|(h, _)| *h)
                    .filter(|_| rng.chance(1, 3))
                    .collect();
                let eff = match rng.below(4) {
                    0 => {
                        let mut handles = Vec::new();
                        self.unborn.retain(|&(t, h)| {
                            let born = t == table && handles.len() < 2;
                            if born {
                                handles.push(h);
                            }
                            !born
                        });
                        for &h in &handles {
                            let value = Tuple(vec![Value::Int(h.0 as i64), Value::Int(1)]);
                            self.live.insert(h, (table, Arc::new(value)));
                        }
                        OpEffect::Insert { table, handles }
                    }
                    1 => OpEffect::Delete {
                        table,
                        tuples: hs.iter().map(|h| (*h, self.live.remove(h).unwrap().1)).collect(),
                    },
                    2 => {
                        let columns = [ColumnId(rng.below(2) as u16)].into_iter().collect();
                        let tuples = hs
                            .iter()
                            .map(|h| {
                                let (_, value) = self.live.get_mut(h).unwrap();
                                let old = Arc::clone(value);
                                *value = Arc::new(Tuple(vec![Value::Int(rng.below(9) as i64); 2]));
                                (*h, old)
                            })
                            .collect();
                        OpEffect::Update { table, columns, tuples }
                    }
                    _ => OpEffect::Select {
                        reads: hs.iter().map(|h| (table, *h, None)).collect(),
                        output: Relation::empty(vec![]),
                    },
                };
                info.absorb(eff, true);
            }
            info
        }
    }

    fn random_rules(rng: &mut Rng, tables: [TableId; 2]) -> Vec<Rule> {
        (0..2 + rng.below(6))
            .map(|i| {
                let when = (0..1 + rng.below(2))
                    .map(|_| {
                        let (t, c) =
                            (tables[rng.below(2)], rng.chance(1, 2).then_some(ColumnId(0)));
                        match rng.below(4) {
                            0 => CompiledPred::Inserted(t),
                            1 => CompiledPred::Deleted(t),
                            2 => CompiledPred::Updated(t, c),
                            _ => CompiledPred::Selected(t, c),
                        }
                    })
                    .collect();
                Rule {
                    name: format!("r{i}"),
                    id: RuleId(i),
                    when,
                    condition: None,
                    action: CompiledAction::Rollback,
                    active: !rng.chance(1, 6),
                    dropped: rng.chance(1, 6),
                }
            })
            .collect()
    }

    /// The window oracle: driven by random transitions, acting rules,
    /// consideration passes and footnote-8 clears under every retrigger
    /// semantics, each live window equals the Definition-2.1 fold of the
    /// transitions since its start (a dropped rule's stays empty), and
    /// every cached trigger verdict equals a fresh `triggered_by`.
    #[test]
    fn windows_are_the_fold_of_the_transitions_since_their_start() {
        setrules_testkit::check("windows_fold_oracle", 60, 0x1F16, |rng| {
            let mut world = World::new(rng);
            let rules = random_rules(rng, world.tables);
            for semantics in SEMANTICS {
                let mut windows = Windows::new(semantics);
                let (mut memos, mut stats) = (MemoStore::default(), EngineStats::default());
                windows.begin(rules.len());
                windows.begin_pass();
                let mut log: Vec<TransInfo> = Vec::new();
                for _ in 0..24 {
                    let rid = RuleId(rng.below(rules.len()));
                    match rng.below(6) {
                        0 => {
                            let block = world.transition(rng);
                            windows.set_pending(block);
                            if let Some(block) = windows.take_pending() {
                                log.push(block.clone());
                                windows
                                    .apply(&rules, &world.db, block, None, &mut memos, &mut stats);
                            }
                        }
                        1 | 2 if !rules[rid.0].dropped => {
                            let t = world.transition(rng);
                            log.push(t.clone());
                            windows.apply(&rules, &world.db, t, Some(rid), &mut memos, &mut stats);
                        }
                        3 => {
                            let candidates =
                                windows.candidates(&rules, &world.db, &mut stats).to_vec();
                            if let Some(&c) = candidates.first() {
                                windows.consider(c);
                                windows.condition_false(c);
                            }
                        }
                        4 => windows.condition_false(rid),
                        _ => windows.begin_pass(),
                    }
                    for rule in &rules {
                        let window = windows.window(rule.id);
                        let fold = |from: usize| {
                            log[from..].iter().fold(TransInfo::new(), |mut w, t| {
                                w.compose(t);
                                w
                            })
                        };
                        let expected = if rule.dropped {
                            TransInfo::new()
                        } else {
                            fold(windows.start(rule.id))
                        };
                        assert_eq!(*window, expected, "{semantics:?}: window of {}", rule.name);
                        if let Some(verdict) = windows.verdicts[rule.id.0] {
                            assert_eq!(
                                verdict,
                                rule.triggered_by(&world.db, window),
                                "{semantics:?}"
                            );
                        }
                    }
                }
            }
        });
    }
}
