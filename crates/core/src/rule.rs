//! Compiled production rules.
//!
//! A rule (paper §3) has a transition predicate (a disjunction of basic
//! predicates), an optional SQL condition, and an action — an operation
//! block, `rollback`, or (the §5.2 extension) an external procedure.
//! Rules are compiled at creation time: predicate tables are resolved to
//! ids, and every transition-table reference in the condition and action
//! is checked against the predicates that license it (the §3 syntactic
//! restriction). Stored-table names in conditions and actions resolve when
//! they run, so what a rule touches — its [`Footprint`], which the static
//! analyser and drop-table protection read — is worked out on demand
//! against the current catalog, by the same one walk of the rule's AST.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use setrules_sql::ast::{
    BasicTransPred, CreateRule, DmlOp, Expr, RuleAction, SelectStmt, TableSource, TransitionKind,
};
use setrules_storage::{ColumnId, Database, TableId};

use crate::error::RuleError;
use crate::external::ExternalAction;
use crate::transinfo::TransInfo;

/// Identifies a rule within a [`crate::RuleSystem`] (its creation index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleId(pub usize);

/// A compiled basic transition predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledPred {
    /// `inserted into t`
    Inserted(TableId),
    /// `deleted from t`
    Deleted(TableId),
    /// `updated t[.c]`
    Updated(TableId, Option<ColumnId>),
    /// `selected t[.c]` (§5.1 extension)
    Selected(TableId, Option<ColumnId>),
}

impl CompiledPred {
    /// Compile a parsed predicate against the catalog.
    pub fn compile(db: &Database, p: &BasicTransPred) -> Result<CompiledPred, RuleError> {
        let tid = db.table_id(p.table())?;
        Ok(match p {
            BasicTransPred::InsertedInto(_) => CompiledPred::Inserted(tid),
            BasicTransPred::DeletedFrom(_) => CompiledPred::Deleted(tid),
            BasicTransPred::Updated { column, .. } => {
                let c = column.as_ref().map(|c| db.schema(tid).column_id(c)).transpose()?;
                CompiledPred::Updated(tid, c)
            }
            BasicTransPred::Selected { column, .. } => {
                let c = column.as_ref().map(|c| db.schema(tid).column_id(c)).transpose()?;
                CompiledPred::Selected(tid, c)
            }
        })
    }

    /// The one trigger test, shared by the engine's window check
    /// ([`CompiledPred::satisfied_by`]) and the static triggering graph
    /// ([`ActionEvent::satisfies`]): whether an `op` on `table` that
    /// touched the columns `touched` accepts satisfies this predicate. A
    /// column-granular `updated t.c` / `selected t.c` needs `c` touched;
    /// `inserted`/`deleted` ignore columns. Never allocates — the engine
    /// runs it for every defined rule at every transition.
    pub fn matches(&self, op: EventOp, table: TableId, touched: impl Fn(ColumnId) -> bool) -> bool {
        match (self, op) {
            (CompiledPred::Inserted(t), EventOp::Insert)
            | (CompiledPred::Deleted(t), EventOp::Delete) => *t == table,
            (CompiledPred::Updated(t, col), EventOp::Update)
            | (CompiledPred::Selected(t, col), EventOp::Select) => {
                *t == table && col.is_none_or(touched)
            }
            _ => false,
        }
    }

    /// Whether this predicate holds with respect to a window (§3: "holds
    /// with respect to any transition effect in which …"): some entry of
    /// the window it watches [`matches`](CompiledPred::matches) it.
    pub fn satisfied_by(&self, db: &Database, info: &TransInfo) -> bool {
        let all = |_| true;
        match self {
            CompiledPred::Inserted(_) => info
                .ins
                .iter()
                .any(|h| db.table_of(*h).is_some_and(|t| self.matches(EventOp::Insert, t, all))),
            CompiledPred::Deleted(_) => {
                info.del.values().any(|e| self.matches(EventOp::Delete, e.table, all))
            }
            CompiledPred::Updated(..) => info.upd.values().any(|e| {
                self.matches(EventOp::Update, e.table, |c| e.columns.contains(&c))
            }),
            CompiledPred::Selected(..) => info.sel.values().any(|e| {
                let read = |c| e.columns.as_ref().is_none_or(|cols| cols.contains(&c));
                self.matches(EventOp::Select, e.table, read)
            }),
        }
    }

    /// Whether this predicate licenses the transition-table reference
    /// (paper §3): `inserted into t` → `inserted t`; `deleted from t` →
    /// `deleted t`; `updated t[.c]` → `old updated t[.c]` and
    /// `new updated t[.c]`; `selected t[.c]` → `selected t[.c]`. A rule
    /// may reference what one of its `when` predicates licenses.
    pub fn licenses(&self, kind: TransitionKind, table: TableId, column: Option<ColumnId>) -> bool {
        match (self, kind) {
            (CompiledPred::Inserted(t), TransitionKind::Inserted)
            | (CompiledPred::Deleted(t), TransitionKind::Deleted) => {
                *t == table && column.is_none()
            }
            (CompiledPred::Updated(t, c), TransitionKind::OldUpdated | TransitionKind::NewUpdated)
            | (CompiledPred::Selected(t, c), TransitionKind::Selected) => {
                *t == table && *c == column
            }
            _ => false,
        }
    }

    /// The table the predicate watches.
    pub fn table(&self) -> TableId {
        match self {
            CompiledPred::Inserted(t)
            | CompiledPred::Deleted(t)
            | CompiledPred::Updated(t, _)
            | CompiledPred::Selected(t, _) => *t,
        }
    }
}

/// The operation part of the `(table, op, column)` event vocabulary
/// transition predicates are matched against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventOp {
    /// Tuples inserted.
    Insert,
    /// Tuples deleted.
    Delete,
    /// Columns of tuples updated.
    Update,
    /// Columns of tuples read (§5.1 extension).
    Select,
}

/// One kind of change (or read) a rule action may produce, as the static
/// triggering graph sees it: inserts, deletes and column updates per
/// table, and top-level selects (which may read any column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ActionEvent {
    /// May insert into the table.
    Insert(TableId),
    /// May delete from the table.
    Delete(TableId),
    /// May update the given column of the table.
    Update(TableId, ColumnId),
    /// A top-level `select` names the stored table in its `from` list
    /// (relevant when the engine tracks selects, §5.1). Transition tables
    /// and subqueries leave no `S` entries, so they produce no event.
    Select(TableId),
}

impl ActionEvent {
    /// Whether this event can satisfy the basic transition predicate `p`
    /// (through [`CompiledPred::matches`]).
    pub fn satisfies(&self, p: &CompiledPred) -> bool {
        match *self {
            ActionEvent::Insert(t) => p.matches(EventOp::Insert, t, |_| true),
            ActionEvent::Delete(t) => p.matches(EventOp::Delete, t, |_| true),
            ActionEvent::Update(t, c) => p.matches(EventOp::Update, t, |x| x == c),
            ActionEvent::Select(t) => p.matches(EventOp::Select, t, |_| true),
        }
    }
}

/// A compiled rule action.
#[derive(Clone)]
pub enum CompiledAction {
    /// An operation block (one transition when executed). `Arc`d so the
    /// per-firing clone the engine takes (to release the rules borrow) is
    /// a pointer copy.
    Block(Arc<Vec<DmlOp>>),
    /// Roll the transaction back to its start state.
    Rollback,
    /// An external procedure (§5.2 extension). Its database operations
    /// still form an operation block — see [`crate::external`].
    External(Arc<dyn ExternalAction>),
}

impl fmt::Debug for CompiledAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompiledAction::Block(ops) => f.debug_tuple("Block").field(&ops.len()).finish(),
            CompiledAction::Rollback => write!(f, "Rollback"),
            CompiledAction::External(_) => write!(f, "External(..)"),
        }
    }
}

/// What a rule touches, worked out from its definition against the
/// catalog as it stands (see [`Rule::footprint`]). Syntactic and
/// conservative: an `update t set c = …` *may* update `t.c`, whether it
/// does depends on the data.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Events the action may produce.
    pub writes: BTreeSet<ActionEvent>,
    /// Tables the rule mentions anywhere: its predicates' tables, and
    /// every stored or transition table its condition and action name
    /// (write targets included).
    pub reads: BTreeSet<TableId>,
    /// An external action (§5.2): it may do anything.
    pub opaque: bool,
    /// A `rollback` action: it produces no events.
    pub rollback: bool,
}

/// A compiled production rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Unique rule name.
    pub name: String,
    /// Creation index.
    pub id: RuleId,
    /// The transition predicate: a disjunction of basic predicates. Its
    /// members also license the rule's transition-table references
    /// ([`CompiledPred::licenses`]).
    pub when: Vec<CompiledPred>,
    /// Optional condition (omitted ⇒ `if true`).
    pub condition: Option<Expr>,
    /// The action.
    pub action: CompiledAction,
    /// Deactivated rules stay defined but never trigger.
    pub active: bool,
    /// Dropped rules keep their slot (ids are creation indexes) but are
    /// inert and invisible.
    pub dropped: bool,
}

impl Rule {
    /// Whether the rule is triggered by the given window.
    pub fn triggered_by(&self, db: &Database, info: &TransInfo) -> bool {
        self.active && self.when.iter().any(|p| p.satisfied_by(db, info))
    }

    /// Compile a parsed `create rule` against the catalog, enforcing the
    /// §3 restriction on transition-table references.
    pub fn compile(db: &Database, id: RuleId, def: &CreateRule) -> Result<Rule, RuleError> {
        let when: Vec<_> =
            def.when.iter().map(|p| CompiledPred::compile(db, p)).collect::<Result<_, _>>()?;
        let ops = match &def.action {
            RuleAction::Block(ops) => ops.as_slice(),
            RuleAction::Rollback => &[],
        };
        let mut trefs = Vec::new();
        for_each_source(def.condition.as_ref(), ops, &mut |source| {
            if let TableSource::Transition { kind, table, column } = source {
                trefs.push((*kind, table, column.as_deref()));
            }
        });
        for (kind, table, column) in trefs {
            let tid = db.table_id(table)?;
            let col = column.map(|c| db.schema(tid).column_id(c)).transpose()?;
            if !when.iter().any(|p| p.licenses(kind, tid, col)) {
                return Err(RuleError::IllegalTransitionTable {
                    rule: def.name.clone(),
                    reference: setrules_query::describe(kind, table, column),
                });
            }
        }

        let action = match &def.action {
            RuleAction::Block(ops) => CompiledAction::Block(Arc::new(ops.clone())),
            RuleAction::Rollback => CompiledAction::Rollback,
        };
        Ok(Rule {
            name: def.name.clone(),
            id,
            when,
            condition: def.condition.clone(),
            action,
            active: true,
            dropped: false,
        })
    }

    /// The rule's footprint against the catalog as it stands. Computed on
    /// demand: table names in conditions and actions resolve when they
    /// run, so a table created after the rule joins its footprint then.
    pub fn footprint(&self, db: &Database) -> Footprint {
        let reads = self.when.iter().map(CompiledPred::table).collect();
        let mut fp = Footprint { reads, ..Footprint::default() };
        let ops = match &self.action {
            CompiledAction::Block(ops) => ops.as_slice(),
            CompiledAction::Rollback => {
                fp.rollback = true;
                &[]
            }
            CompiledAction::External(_) => {
                fp.opaque = true;
                &[]
            }
        };
        for_each_source(self.condition.as_ref(), ops, &mut |source| {
            let (TableSource::Named(table) | TableSource::Transition { table, .. }) = source;
            fp.reads.extend(db.table_id(table).ok());
        });
        for op in ops {
            let target = op.target().and_then(|n| db.table_id(n).ok());
            fp.reads.extend(target);
            match (op, target) {
                (DmlOp::Insert(_), Some(t)) => _ = fp.writes.insert(ActionEvent::Insert(t)),
                (DmlOp::Delete(_), Some(t)) => _ = fp.writes.insert(ActionEvent::Delete(t)),
                (DmlOp::Update(u), Some(t)) => {
                    let schema = db.schema(t);
                    let cols = u.sets.iter().filter_map(|(c, _)| schema.column_id(c).ok());
                    fp.writes.extend(cols.map(|c| ActionEvent::Update(t, c)));
                }
                (DmlOp::Select(s), _) => {
                    // Only a top-level select's stored `from` items leave
                    // `S` entries: transition rows carry no origin, and
                    // subquery reads are not traced.
                    let named = s.from.iter().filter_map(|t| match &t.source {
                        TableSource::Named(n) => db.table_id(n).ok(),
                        TableSource::Transition { .. } => None,
                    });
                    fp.writes.extend(named.map(ActionEvent::Select));
                }
                _ => {}
            }
        }
        fp
    }
}

/// Every table source a rule's condition and action name, at any subquery
/// depth, in the order they print — the one walk behind the §3 licence
/// check and [`Rule::footprint`]'s reads.
fn for_each_source<'a>(
    condition: Option<&'a Expr>,
    ops: &'a [DmlOp],
    f: &mut impl FnMut(&'a TableSource),
) {
    fn expr<'a>(e: &'a Expr, f: &mut impl FnMut(&'a TableSource)) {
        e.for_each_child(&mut |c| expr(c, f));
        if let Some(s) = e.subquery() {
            select(s, f);
        }
    }
    fn select<'a>(s: &'a SelectStmt, f: &mut impl FnMut(&'a TableSource)) {
        s.from.iter().for_each(|t| f(&t.source));
        s.for_each_expr(&mut |e| expr(e, f));
    }
    if let Some(c) = condition {
        expr(c, f);
    }
    for op in ops {
        if let Some(q) = op.query() {
            q.from.iter().for_each(|t| f(&t.source));
        }
        op.for_each_expr(&mut |e| expr(e, f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transinfo::{DelEntry, SelEntry, UpdEntry};
    use setrules_storage::{tuple, ColumnDef, DataType, TableSchema};

    /// Every basic predicate on table `t` (columns 0 and 1).
    fn preds(t: TableId) -> [CompiledPred; 6] {
        [
            CompiledPred::Inserted(t),
            CompiledPred::Deleted(t),
            CompiledPred::Updated(t, None),
            CompiledPred::Updated(t, Some(ColumnId(1))),
            CompiledPred::Selected(t, None),
            CompiledPred::Selected(t, Some(ColumnId(1))),
        ]
    }

    #[test]
    fn every_predicate_against_every_static_event() {
        let (t, u) = (TableId(0), TableId(1));
        let (c0, c1) = (ColumnId(0), ColumnId(1));
        // One row per event: which of `preds(t)` it satisfies. An update
        // of column 0 misses `updated t.c1`; a select (any column) meets
        // both `selected` forms; no event on `u` triggers a `t` rule.
        let matrix: [(ActionEvent, [bool; 6]); 9] = [
            (ActionEvent::Insert(t), [true, false, false, false, false, false]),
            (ActionEvent::Delete(t), [false, true, false, false, false, false]),
            (ActionEvent::Update(t, c0), [false, false, true, false, false, false]),
            (ActionEvent::Update(t, c1), [false, false, true, true, false, false]),
            (ActionEvent::Select(t), [false, false, false, false, true, true]),
            (ActionEvent::Insert(u), [false; 6]),
            (ActionEvent::Delete(u), [false; 6]),
            (ActionEvent::Update(u, c1), [false; 6]),
            (ActionEvent::Select(u), [false; 6]),
        ];
        for (event, want) in matrix {
            let got: Vec<bool> = preds(t).iter().map(|p| event.satisfies(p)).collect();
            assert_eq!(got, want, "{event:?}");
        }
    }

    #[test]
    fn every_predicate_against_every_window_entry() {
        let mut db = Database::new();
        let cols = vec![ColumnDef::new("a", DataType::Int), ColumnDef::new("b", DataType::Int)];
        let t = db.create_table(TableSchema::new("t", cols.clone())).unwrap();
        let u = db.create_table(TableSchema::new("u", cols)).unwrap();
        let (ht, hu) = (db.insert(t, tuple![1, 2]).unwrap(), db.insert(u, tuple![1, 2]).unwrap());
        let upd = |table, cols: &[u16]| UpdEntry {
            table,
            columns: cols.iter().map(|&c| ColumnId(c)).collect(),
            old: tuple![1, 2].into(),
        };
        let sel = |table, cols: Option<&[u16]>| SelEntry {
            table,
            columns: cols.map(|cs| cs.iter().map(|&c| ColumnId(c)).collect()),
        };
        let window = |f: &dyn Fn(&mut TransInfo)| {
            let mut info = TransInfo::new();
            f(&mut info);
            info
        };
        let no = [false; 6];
        let cases: Vec<(&str, TransInfo, [bool; 6])> = vec![
            (
                "insert t",
                window(&|w| _ = w.ins.insert(ht)),
                [true, false, false, false, false, false],
            ),
            ("insert u", window(&|w| _ = w.ins.insert(hu)), no),
            (
                "delete t",
                window(&|w| _ = w.del.insert(ht, DelEntry { table: t, old: tuple![1, 2].into() })),
                [false, true, false, false, false, false],
            ),
            (
                "delete u",
                window(&|w| _ = w.del.insert(hu, DelEntry { table: u, old: tuple![1, 2].into() })),
                no,
            ),
            (
                "update t.a",
                window(&|w| _ = w.upd.insert(ht, upd(t, &[0]))),
                [false, false, true, false, false, false],
            ),
            (
                "update t.a, t.b",
                window(&|w| _ = w.upd.insert(ht, upd(t, &[0, 1]))),
                [false, false, true, true, false, false],
            ),
            ("update u.b", window(&|w| _ = w.upd.insert(hu, upd(u, &[1]))), no),
            (
                "select t.*",
                window(&|w| _ = w.sel.insert(ht, sel(t, None))),
                [false, false, false, false, true, true],
            ),
            (
                "select t.a",
                window(&|w| _ = w.sel.insert(ht, sel(t, Some(&[0])))),
                [false, false, false, false, true, false],
            ),
            (
                "select t.b",
                window(&|w| _ = w.sel.insert(ht, sel(t, Some(&[1])))),
                [false, false, false, false, true, true],
            ),
            (
                "select no column of t",
                window(&|w| _ = w.sel.insert(ht, sel(t, Some(&[])))),
                [false, false, false, false, true, false],
            ),
            ("select u.*", window(&|w| _ = w.sel.insert(hu, sel(u, None))), no),
        ];
        for (what, info, want) in cases {
            let got: Vec<bool> = preds(t).iter().map(|p| p.satisfied_by(&db, &info)).collect();
            assert_eq!(got, want, "{what}");
        }
    }
}
