//! Materialization of transition tables (paper §3, semantics §4).
//!
//! Given a rule's composite window (its `trans-info`), this provider
//! serves:
//!
//! * `inserted t` — tuples of `t` **in the current state** inserted within
//!   the window (so updates made after the insert are visible);
//! * `deleted t` — tuples of `t` with their **window-start values**;
//! * `old updated t[.c]` — updated tuples, window-start values;
//! * `new updated t[.c]` — the same tuples, current values;
//! * `selected t[.c]` — read tuples, current values (§5.1 extension).
//!
//! References are checked against the rule's transition predicates, which
//! license them (§3's restriction, [`CompiledPred::licenses`]); a provider
//! without predicates (used for debugging/analysis) allows everything.

use std::borrow::Cow;

use setrules_query::{describe, QueryError, TransitionTableProvider};
use setrules_sql::ast::TransitionKind;
use setrules_storage::{Database, Value};

use crate::rule::CompiledPred;
use crate::transinfo::TransInfo;

/// A [`TransitionTableProvider`] over one rule's window (owning variant,
/// used where the provider must outlive local borrows — external actions).
#[derive(Debug, Clone)]
pub struct RuleWindowProvider {
    info: TransInfo,
    /// The predicates licensing references; `None` = unrestricted
    /// (ad-hoc inspection).
    licensed: Option<Vec<CompiledPred>>,
}

/// A borrowing [`TransitionTableProvider`] over one rule's window — avoids
/// cloning the (potentially large) window for declarative actions and
/// condition checks.
#[derive(Debug, Clone, Copy)]
pub struct RuleWindowRef<'a> {
    /// The rule's composite window.
    pub info: &'a TransInfo,
    /// The rule's transition predicates, which license its references (§3).
    pub licensed: &'a [CompiledPred],
}

impl TransitionTableProvider for RuleWindowRef<'_> {
    fn rows<'a>(
        &'a self,
        db: &'a Database,
        kind: TransitionKind,
        table: &str,
        column: Option<&str>,
    ) -> Result<Vec<Cow<'a, [Value]>>, QueryError> {
        rows_impl(self.info, Some(self.licensed), db, kind, table, column)
    }
}

impl RuleWindowProvider {
    /// Provider enforcing the §3 restriction with the given predicates.
    pub fn licensed(info: TransInfo, licensed: Vec<CompiledPred>) -> Self {
        RuleWindowProvider { info, licensed: Some(licensed) }
    }

    /// Provider allowing any reference (for analysis and the REPL's
    /// post-mortem inspection).
    pub fn unrestricted(info: TransInfo) -> Self {
        RuleWindowProvider { info, licensed: None }
    }

    /// The underlying window.
    pub fn info(&self) -> &TransInfo {
        &self.info
    }
}

impl TransitionTableProvider for RuleWindowProvider {
    fn rows<'a>(
        &'a self,
        db: &'a Database,
        kind: TransitionKind,
        table: &str,
        column: Option<&str>,
    ) -> Result<Vec<Cow<'a, [Value]>>, QueryError> {
        rows_impl(&self.info, self.licensed.as_deref(), db, kind, table, column)
    }
}

/// Shared materialization logic for the owning and borrowing providers.
///
/// Rows are *lent*, not cloned: window-start values (`deleted`,
/// `old updated`) borrow from the window's undo copies, current values
/// (`inserted`, `new updated`, `selected`) borrow from the live tuples —
/// the executor clones only rows that survive its filters. This is the
/// consideration hot path: a storm of reconsiderations over a large
/// window used to clone every row per consideration.
fn rows_impl<'a>(
    info: &'a TransInfo,
    licensed: Option<&[CompiledPred]>,
    db: &'a Database,
    kind: TransitionKind,
    table: &str,
    column: Option<&str>,
) -> Result<Vec<Cow<'a, [Value]>>, QueryError> {
    {
        let tid = db.table_id(table)?;
        let col = match column {
            Some(c) => Some(
                db.schema(tid)
                    .column_id(c)
                    .map_err(|_| QueryError::UnknownColumn(format!("{table}.{c}")))?,
            ),
            None => None,
        };
        if let Some(lic) = licensed {
            if !lic.iter().any(|p| p.licenses(kind, tid, col)) {
                return Err(QueryError::TransitionTableUnavailable(describe(
                    kind, table, column,
                )));
            }
        }
        let rows = match kind {
            TransitionKind::Inserted => info
                .ins
                .iter()
                .filter(|h| db.table_of(**h) == Some(tid))
                .filter_map(|h| db.get(tid, *h))
                .map(|t| Cow::Borrowed(t.0.as_slice()))
                .collect(),
            TransitionKind::Deleted => info
                .del
                .values()
                .filter(|e| e.table == tid)
                .map(|e| Cow::Borrowed(e.old.0.as_slice()))
                .collect(),
            TransitionKind::OldUpdated => info
                .upd
                .values()
                .filter(|e| e.table == tid && col.is_none_or(|c| e.columns.contains(&c)))
                .map(|e| Cow::Borrowed(e.old.0.as_slice()))
                .collect(),
            TransitionKind::NewUpdated => info
                .upd
                .iter()
                .filter(|(_, e)| e.table == tid && col.is_none_or(|c| e.columns.contains(&c)))
                .filter_map(|(h, _)| db.get(tid, *h))
                .map(|t| Cow::Borrowed(t.0.as_slice()))
                .collect(),
            TransitionKind::Selected => info
                .sel
                .iter()
                .filter(|(_, e)| {
                    e.table == tid
                        && col.is_none_or(|c| match &e.columns {
                            None => true,
                            Some(cols) => cols.contains(&c),
                        })
                })
                .filter_map(|(h, _)| db.get(tid, *h))
                .map(|t| Cow::Borrowed(t.0.as_slice()))
                .collect(),
        };
        Ok(rows)
    }
}
