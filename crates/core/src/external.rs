//! External-procedure rule actions (paper §5.2).
//!
//! "This can be done by permitting the action part of a rule to call an
//! arbitrary external procedure. … the effect on the database of executing
//! an external procedure still corresponds to a sequence of data
//! manipulation operations."
//!
//! An [`ExternalAction`] receives an [`ActionCtx`] through which it can run
//! DML operations (which are absorbed into the rule-generated transition,
//! exactly like a declarative action block) and read the rule's transition
//! tables. Errors abort and roll back the transaction (the §5.2 error
//! semantics we adopt).

use setrules_query::{ExecOpts, OpEffect, QueryError, Relation};
use setrules_sql::ast::DmlOp;
use setrules_sql::parse_op_block;
use setrules_storage::Database;

use crate::error::RuleError;
use crate::transition_tables::RuleWindowProvider;

/// A rule action implemented as native code.
pub trait ExternalAction: Send + Sync {
    /// Run the action. Database changes go through [`ActionCtx::run`] /
    /// [`ActionCtx::run_sql`]; anything else (logging, notifying, …) is up
    /// to the implementation.
    fn run(&self, ctx: &mut ActionCtx<'_>) -> Result<(), RuleError>;
}

impl<F> ExternalAction for F
where
    F: Fn(&mut ActionCtx<'_>) -> Result<(), RuleError> + Send + Sync,
{
    fn run(&self, ctx: &mut ActionCtx<'_>) -> Result<(), RuleError> {
        self(ctx)
    }
}

/// The capability handed to an external action: run operations that become
/// part of the rule's transition, and query the database (including the
/// rule's transition tables).
pub struct ActionCtx<'a> {
    pub(crate) db: &'a mut Database,
    pub(crate) provider: RuleWindowProvider,
    pub(crate) effects: Vec<OpEffect>,
    pub(crate) track_selects: bool,
    /// Set when the action ran DDL (e.g. [`ActionCtx::create_index`]);
    /// the engine drops every cached compiled plan after the action
    /// returns, since plans embed catalog-derived positions.
    pub(crate) did_ddl: bool,
}

impl ActionCtx<'_> {
    /// Execute one SQL operation; its affected set joins the rule's
    /// transition. Returns the rows for `select` operations.
    pub fn run(&mut self, op: &DmlOp) -> Result<Option<Relation>, RuleError> {
        let eff = setrules_query::execute_op(self.db, &self.provider, op, &ExecOpts::default())?;
        let out = match &eff {
            OpEffect::Select { output, .. } => Some(output.clone()),
            _ => None,
        };
        self.effects.push(eff);
        Ok(out)
    }

    /// Parse and execute a `;`-separated operation block. Returns the
    /// output of the last `select`, if any.
    pub fn run_sql(&mut self, sql: &str) -> Result<Option<Relation>, RuleError> {
        let ops = parse_op_block(sql)?;
        let mut last = None;
        for op in &ops {
            if let Some(rel) = self.run(op)? {
                last = Some(rel);
            }
        }
        Ok(last)
    }

    /// Read one of the rule's transition tables as raw rows (base-table
    /// schema order). Subject to the same §3 licensing restriction as SQL
    /// references.
    pub fn transition_table(
        &self,
        kind: setrules_sql::ast::TransitionKind,
        table: &str,
        column: Option<&str>,
    ) -> Result<Vec<Vec<setrules_storage::Value>>, QueryError> {
        use setrules_query::TransitionTableProvider;
        let rows = self.provider.rows(self.db, kind, table, column)?;
        Ok(rows.into_iter().map(|r| r.into_owned()).collect())
    }

    /// Create a hash index on `table.column` from inside a rule action —
    /// the one DDL operation permitted mid-transaction (indexes are
    /// redundant structures, so this cannot change logical state). The
    /// engine invalidates every cached compiled plan when the action
    /// returns.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<(), RuleError> {
        self.create_index_of(table, column, setrules_storage::IndexKind::Hash)
    }

    /// Like [`ActionCtx::create_index`] with an explicit index kind
    /// (`Ordered` builds a BTree index usable for range scans and sort
    /// elision).
    pub fn create_index_of(
        &mut self,
        table: &str,
        column: &str,
        kind: setrules_storage::IndexKind,
    ) -> Result<(), RuleError> {
        let tid = self.db.table_id(table)?;
        let c = self.db.schema(tid).column_id(column)?;
        self.db.create_index_of(tid, c, kind)?;
        self.did_ddl = true;
        Ok(())
    }

    /// Drop the index on `table.column` (any kind). Returns `true` when an
    /// index existed. Plans are invalidated when the action returns, just
    /// as for [`ActionCtx::create_index`].
    pub fn drop_index(&mut self, table: &str, column: &str) -> Result<bool, RuleError> {
        let tid = self.db.table_id(table)?;
        let c = self.db.schema(tid).column_id(column)?;
        let dropped = self.db.drop_index(tid, c);
        if dropped {
            self.did_ddl = true;
        }
        Ok(dropped)
    }

    /// Read-only access to the current database state.
    pub fn database(&self) -> &Database {
        self.db
    }

    /// Whether select-effect tracking (§5.1) is enabled — informational.
    pub fn track_selects(&self) -> bool {
        self.track_selects
    }
}
