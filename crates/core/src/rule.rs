//! Compiled production rules.
//!
//! A rule (paper §3) has a transition predicate (a disjunction of basic
//! predicates), an optional SQL condition, and an action — an operation
//! block, `rollback`, or (the §5.2 extension) an external procedure.
//! Rules are compiled at creation time: table names are resolved to ids,
//! and every transition-table reference in the condition and action is
//! checked against the rule's predicates (the §3 syntactic restriction).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use setrules_sql::ast::{
    BasicTransPred, CreateRule, DmlOp, Expr, InsertSource, RuleAction, SelectItem, SelectStmt,
    TableSource, TransitionKind,
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

    /// The transition tables this predicate licenses (paper §3):
    /// `inserted into t` → `inserted t`; `deleted from t` → `deleted t`;
    /// `updated t[.c]` → `old updated t[.c]` and `new updated t[.c]`;
    /// `selected t[.c]` → `selected t[.c]`.
    pub fn licensed_tables(&self) -> Vec<(TransitionKind, TableId, Option<ColumnId>)> {
        match self {
            CompiledPred::Inserted(t) => vec![(TransitionKind::Inserted, *t, None)],
            CompiledPred::Deleted(t) => vec![(TransitionKind::Deleted, *t, None)],
            CompiledPred::Updated(t, c) => vec![
                (TransitionKind::OldUpdated, *t, *c),
                (TransitionKind::NewUpdated, *t, *c),
            ],
            CompiledPred::Selected(t, c) => vec![(TransitionKind::Selected, *t, *c)],
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
    /// Contains a top-level `select` from the table (relevant when the
    /// engine tracks selects, §5.1).
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

/// A compiled production rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Unique rule name.
    pub name: String,
    /// Creation index.
    pub id: RuleId,
    /// The transition predicate: a disjunction of basic predicates.
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
    /// Transition tables the rule may reference.
    pub licensed: BTreeSet<(TransitionKind, TableId, Option<ColumnId>)>,
    /// Tables mentioned anywhere in the rule (predicates, condition,
    /// action) — used to refuse dropping tables rules depend on.
    pub referenced_tables: BTreeSet<TableId>,
}

impl Rule {
    /// Whether the rule is triggered by the given window.
    pub fn triggered_by(&self, db: &Database, info: &TransInfo) -> bool {
        self.active && self.when.iter().any(|p| p.satisfied_by(db, info))
    }

    /// Compile a parsed `create rule` against the catalog, enforcing the
    /// §3 restriction on transition-table references.
    pub fn compile(db: &Database, id: RuleId, def: &CreateRule) -> Result<Rule, RuleError> {
        let mut when = Vec::with_capacity(def.when.len());
        for p in &def.when {
            when.push(CompiledPred::compile(db, p)?);
        }
        let mut licensed = BTreeSet::new();
        for p in &when {
            licensed.extend(p.licensed_tables());
        }

        // Collect every transition-table reference in condition and action
        // and check it against the licensed set.
        let mut trefs: Vec<(TransitionKind, String, Option<String>)> = Vec::new();
        if let Some(c) = &def.condition {
            collect_trefs_expr(c, &mut trefs);
        }
        if let RuleAction::Block(ops) = &def.action {
            for op in ops {
                collect_trefs_op(op, &mut trefs);
            }
        }
        for (kind, table, column) in &trefs {
            let tid = db.table_id(table)?;
            let col = column.as_ref().map(|c| db.schema(tid).column_id(c)).transpose()?;
            if !licensed.contains(&(*kind, tid, col)) {
                return Err(RuleError::IllegalTransitionTable {
                    rule: def.name.clone(),
                    reference: setrules_query::describe(*kind, table, column.as_deref()),
                });
            }
        }

        // Tables referenced anywhere (for drop-table protection).
        let mut referenced_tables: BTreeSet<TableId> = BTreeSet::new();
        for p in &when {
            referenced_tables.insert(match p {
                CompiledPred::Inserted(t)
                | CompiledPred::Deleted(t)
                | CompiledPred::Updated(t, _)
                | CompiledPred::Selected(t, _) => *t,
            });
        }
        let mut names: BTreeSet<String> = BTreeSet::new();
        if let Some(c) = &def.condition {
            collect_tables_expr(c, &mut names);
        }
        if let RuleAction::Block(ops) = &def.action {
            for op in ops {
                collect_tables_op(op, &mut names);
            }
        }
        for n in names {
            if let Ok(t) = db.table_id(&n) {
                referenced_tables.insert(t);
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
            licensed,
            referenced_tables,
        })
    }
}

// ----------------------------------------------------------------------
// AST walkers: transition-table references and stored-table names.
// ----------------------------------------------------------------------

fn collect_trefs_select(s: &SelectStmt, out: &mut Vec<(TransitionKind, String, Option<String>)>) {
    for t in &s.from {
        if let TableSource::Transition { kind, table, column } = &t.source {
            out.push((*kind, table.clone(), column.clone()));
        }
    }
    for item in &s.projection {
        if let SelectItem::Expr { expr, .. } = item {
            collect_trefs_expr(expr, out);
        }
    }
    for e in s
        .predicate
        .iter()
        .chain(s.group_by.iter())
        .chain(s.having.iter())
        .chain(s.order_by.iter().map(|(e, _)| e))
    {
        collect_trefs_expr(e, out);
    }
}

fn collect_trefs_expr(e: &Expr, out: &mut Vec<(TransitionKind, String, Option<String>)>) {
    match e {
        Expr::Literal(_) | Expr::Column { .. } => {}
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => collect_trefs_expr(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_trefs_expr(left, out);
            collect_trefs_expr(right, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_trefs_expr(expr, out);
            for i in list {
                collect_trefs_expr(i, out);
            }
        }
        Expr::InSubquery { expr, subquery, .. } => {
            collect_trefs_expr(expr, out);
            collect_trefs_select(subquery, out);
        }
        Expr::Exists { subquery, .. } => collect_trefs_select(subquery, out),
        Expr::ScalarSubquery(s) => collect_trefs_select(s, out),
        Expr::Between { expr, low, high, .. } => {
            collect_trefs_expr(expr, out);
            collect_trefs_expr(low, out);
            collect_trefs_expr(high, out);
        }
        Expr::Like { expr, pattern, escape, .. } => {
            collect_trefs_expr(expr, out);
            collect_trefs_expr(pattern, out);
            if let Some(e) = escape {
                collect_trefs_expr(e, out);
            }
        }
        Expr::Aggregate { arg, .. } => {
            if let Some(a) = arg {
                collect_trefs_expr(a, out);
            }
        }
    }
}

fn collect_trefs_op(op: &DmlOp, out: &mut Vec<(TransitionKind, String, Option<String>)>) {
    match op {
        DmlOp::Select(s) => collect_trefs_select(s, out),
        DmlOp::Insert(i) => match &i.source {
            InsertSource::Values(rows) => {
                for row in rows {
                    for e in row {
                        collect_trefs_expr(e, out);
                    }
                }
            }
            InsertSource::Select(s) => collect_trefs_select(s, out),
        },
        DmlOp::Delete(d) => {
            if let Some(p) = &d.predicate {
                collect_trefs_expr(p, out);
            }
        }
        DmlOp::Update(u) => {
            for (_, e) in &u.sets {
                collect_trefs_expr(e, out);
            }
            if let Some(p) = &u.predicate {
                collect_trefs_expr(p, out);
            }
        }
    }
}

fn collect_tables_select(s: &SelectStmt, out: &mut BTreeSet<String>) {
    for t in &s.from {
        match &t.source {
            TableSource::Named(n) => {
                out.insert(n.clone());
            }
            TableSource::Transition { table, .. } => {
                out.insert(table.clone());
            }
        }
    }
    for item in &s.projection {
        if let SelectItem::Expr { expr, .. } = item {
            collect_tables_expr(expr, out);
        }
    }
    for e in s
        .predicate
        .iter()
        .chain(s.group_by.iter())
        .chain(s.having.iter())
        .chain(s.order_by.iter().map(|(e, _)| e))
    {
        collect_tables_expr(e, out);
    }
}

fn collect_tables_expr(e: &Expr, out: &mut BTreeSet<String>) {
    match e {
        Expr::Literal(_) | Expr::Column { .. } => {}
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => collect_tables_expr(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_tables_expr(left, out);
            collect_tables_expr(right, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_tables_expr(expr, out);
            for i in list {
                collect_tables_expr(i, out);
            }
        }
        Expr::InSubquery { expr, subquery, .. } => {
            collect_tables_expr(expr, out);
            collect_tables_select(subquery, out);
        }
        Expr::Exists { subquery, .. } => collect_tables_select(subquery, out),
        Expr::ScalarSubquery(s) => collect_tables_select(s, out),
        Expr::Between { expr, low, high, .. } => {
            collect_tables_expr(expr, out);
            collect_tables_expr(low, out);
            collect_tables_expr(high, out);
        }
        Expr::Like { expr, pattern, escape, .. } => {
            collect_tables_expr(expr, out);
            collect_tables_expr(pattern, out);
            if let Some(e) = escape {
                collect_tables_expr(e, out);
            }
        }
        Expr::Aggregate { arg, .. } => {
            if let Some(a) = arg {
                collect_tables_expr(a, out);
            }
        }
    }
}

/// Collect stored-table names mentioned by an operation (targets and all
/// query references). Public for use by the static analyzer.
pub fn collect_tables_op(op: &DmlOp, out: &mut BTreeSet<String>) {
    match op {
        DmlOp::Select(s) => collect_tables_select(s, out),
        DmlOp::Insert(i) => {
            out.insert(i.table.clone());
            match &i.source {
                InsertSource::Values(rows) => {
                    for row in rows {
                        for e in row {
                            collect_tables_expr(e, out);
                        }
                    }
                }
                InsertSource::Select(s) => collect_tables_select(s, out),
            }
        }
        DmlOp::Delete(d) => {
            out.insert(d.table.clone());
            if let Some(p) = &d.predicate {
                collect_tables_expr(p, out);
            }
        }
        DmlOp::Update(u) => {
            out.insert(u.table.clone());
            for (_, e) in &u.sets {
                collect_tables_expr(e, out);
            }
            if let Some(p) = &u.predicate {
                collect_tables_expr(p, out);
            }
        }
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
