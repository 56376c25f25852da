//! The instance-oriented trigger engine.
//!
//! Statement execution plans set-oriented-ly (the same two-phase planning
//! as the query layer), then applies the change **row by row**, firing the
//! matching triggers after each row — the `FOR EACH ROW` model of
//! `[Esw76, MD89, SJGP90]`. Trigger actions are statements that recurse
//! through the same path, so cascades happen one row at a time.

use std::sync::Arc;

use setrules_query::{
    compile, eval_compiled_predicate, execute_op, execute_query, ExecOpts, ExecStats, Layout,
    NoTransitionTables, OpEffect, QueryCtx, QueryError, Relation, StatsCell,
};
use setrules_sql::ast::{DmlOp, Expr, Statement};
use setrules_sql::{parse_expr, parse_op_block, parse_statement, SqlError};
use setrules_storage::{ColumnSet, Database, StorageError, TableId, TableSchema, Tuple};

use crate::stats::InstanceStats;
use crate::subst::{bind_op, RowEnv, SubstError};

/// Which row-level event a trigger watches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TriggerEvent {
    /// After a row is inserted (`new` bound).
    Insert,
    /// After a row is deleted (`old` bound).
    Delete,
    /// After a row is updated (`old` and `new` bound); with a column, only
    /// when that column was assigned.
    Update(Option<String>),
}

/// A per-row trigger.
#[derive(Debug, Clone)]
pub struct RowTrigger {
    /// Trigger name.
    pub name: String,
    /// Watched table.
    pub table: TableId,
    /// Watched event.
    pub event: TriggerEvent,
    /// Optional per-row condition (`old.c` / `new.c` allowed).
    pub condition: Option<Expr>,
    /// Per-row action block (`old.c` / `new.c` allowed).
    pub action: Vec<DmlOp>,
}

/// Errors from the instance engine.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceError {
    /// SQL parse error.
    Sql(SqlError),
    /// Storage error.
    Storage(StorageError),
    /// Query evaluation error.
    Query(QueryError),
    /// Pseudo-row binding error.
    Subst(SubstError),
    /// Trigger recursion exceeded the depth limit.
    RecursionLimit(usize),
    /// Duplicate trigger name.
    DuplicateTrigger(String),
    /// Anything else.
    Unsupported(String),
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::Sql(e) => write!(f, "{e}"),
            InstanceError::Storage(e) => write!(f, "{e}"),
            InstanceError::Query(e) => write!(f, "{e}"),
            InstanceError::Subst(e) => write!(f, "{e}"),
            InstanceError::RecursionLimit(n) => write!(f, "trigger recursion exceeded depth {n}"),
            InstanceError::DuplicateTrigger(n) => write!(f, "trigger '{n}' already exists"),
            InstanceError::Unsupported(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for InstanceError {}

impl From<SqlError> for InstanceError {
    fn from(e: SqlError) -> Self {
        InstanceError::Sql(e)
    }
}
impl From<StorageError> for InstanceError {
    fn from(e: StorageError) -> Self {
        InstanceError::Storage(e)
    }
}
impl From<QueryError> for InstanceError {
    fn from(e: QueryError) -> Self {
        InstanceError::Query(e)
    }
}
impl From<SubstError> for InstanceError {
    fn from(e: SubstError) -> Self {
        InstanceError::Subst(e)
    }
}

/// A relational database with per-row (instance-oriented) triggers — the
/// baseline design the paper contrasts with (§1).
pub struct InstanceEngine {
    db: Database,
    triggers: Vec<std::sync::Arc<RowTrigger>>,
    max_depth: usize,
    firings: u64,
    stats: InstanceStats,
    qstats: StatsCell,
}

impl Default for InstanceEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl InstanceEngine {
    /// A fresh engine (trigger recursion depth 64).
    pub fn new() -> Self {
        InstanceEngine {
            db: Database::new(),
            triggers: Vec::new(),
            max_depth: 64,
            firings: 0,
            stats: InstanceStats::default(),
            qstats: StatsCell::new(),
        }
    }

    /// Read-only access to the database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Total trigger firings so far (each is one per-row activation).
    pub fn firings(&self) -> u64 {
        self.firings
    }

    /// Cumulative per-row engine counters (the mirror of the set engine's
    /// `EngineStats`, for side-by-side comparison).
    pub fn stats(&self) -> InstanceStats {
        self.stats
    }

    /// Cumulative query-execution work counters.
    pub fn exec_stats(&self) -> ExecStats {
        self.qstats.snapshot()
    }

    /// Cumulative storage-layer work counters.
    pub fn storage_stats(&self) -> setrules_storage::StorageStats {
        self.db.stats()
    }

    /// Create a table from a `create table` statement.
    pub fn create_table(&mut self, sql: &str) -> Result<TableId, InstanceError> {
        match parse_statement(sql)? {
            Statement::CreateTable(ct) => {
                let cols = ct
                    .columns
                    .into_iter()
                    .map(|(n, ty)| setrules_storage::ColumnDef::new(n, ty))
                    .collect();
                Ok(self.db.create_table(TableSchema::new(ct.name, cols))?)
            }
            _ => Err(InstanceError::Unsupported("expected 'create table'".into())),
        }
    }

    /// Create an index (`create index on t (c)` semantics).
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<(), InstanceError> {
        let t = self.db.table_id(table)?;
        let c = self.db.schema(t).column_id(column)?;
        Ok(self.db.create_index(t, c)?)
    }

    /// Define a per-row trigger. `condition` and `action` are SQL text;
    /// `old.c` / `new.c` refer to the affected row.
    pub fn create_trigger(
        &mut self,
        name: &str,
        table: &str,
        event: TriggerEvent,
        condition: Option<&str>,
        action: &str,
    ) -> Result<(), InstanceError> {
        if self.triggers.iter().any(|t| t.name == name) {
            return Err(InstanceError::DuplicateTrigger(name.into()));
        }
        let table = self.db.table_id(table)?;
        let condition = condition.map(parse_expr).transpose()?;
        let action = parse_op_block(action)?;
        self.triggers.push(std::sync::Arc::new(RowTrigger {
            name: name.into(),
            table,
            event,
            condition,
            action,
        }));
        Ok(())
    }

    /// Run a read-only query.
    pub fn query(&self, sql: &str) -> Result<Relation, InstanceError> {
        match parse_statement(sql)? {
            Statement::Dml(DmlOp::Select(sel)) => Ok(execute_query(
                &self.db,
                &NoTransitionTables,
                &sel,
                &ExecOpts { stats: Some(&self.qstats), ..Default::default() },
            )?),
            _ => Err(InstanceError::Unsupported("query() accepts only select".into())),
        }
    }

    /// Execute a `;`-separated block of DML statements, firing triggers
    /// row by row. Returns the number of directly affected rows.
    pub fn execute(&mut self, sql: &str) -> Result<usize, InstanceError> {
        let ops = parse_op_block(sql)?;
        let mut total = 0;
        for op in &ops {
            total += self.execute_dml(op, 0)?;
        }
        self.db.commit();
        Ok(total)
    }

    fn execute_dml(&mut self, op: &DmlOp, depth: usize) -> Result<usize, InstanceError> {
        if depth > self.max_depth {
            return Err(InstanceError::RecursionLimit(self.max_depth));
        }
        // Plan set-oriented-ly (one statement = one logical change set),
        // then apply + fire per row.
        self.stats.statements_executed += 1;
        let eff = execute_op(
            &mut self.db,
            &NoTransitionTables,
            op,
            &ExecOpts { stats: Some(&self.qstats), ..Default::default() },
        )?;
        match eff {
            OpEffect::Insert { table, handles } => {
                let n = handles.len();
                for h in handles {
                    let new = self.db.get(table, h).cloned();
                    self.fire(table, TriggerSlot::Insert, None, new, depth)?;
                }
                Ok(n)
            }
            OpEffect::Delete { table, tuples } => {
                let n = tuples.len();
                for (_, old) in tuples {
                    self.fire(table, TriggerSlot::Delete, Some(old), None, depth)?;
                }
                Ok(n)
            }
            OpEffect::Update { table, columns, tuples } => {
                let n = tuples.len();
                for (h, old) in tuples {
                    let new = self.db.get(table, h).cloned();
                    let slot = TriggerSlot::Update(columns.clone());
                    self.fire(table, slot, Some(old), new, depth)?;
                }
                Ok(n)
            }
            OpEffect::Select { output, .. } => Ok(output.len()),
        }
    }

    fn fire(
        &mut self,
        table: TableId,
        slot: TriggerSlot,
        old: Option<Arc<Tuple>>,
        new: Option<Tuple>,
        depth: usize,
    ) -> Result<(), InstanceError> {
        // Collect matching triggers first (the trigger list is stable
        // during a statement); Arc clones keep per-row firing cheap.
        let matching: Vec<Arc<RowTrigger>> = self
            .triggers
            .iter()
            .filter(|t| t.table == table && slot.matches(&t.event, &self.db, table))
            .cloned()
            .collect();
        for trig in matching {
            self.stats.triggers_considered += 1;
            let schema = self.db.schema(table).clone();
            let env = RowEnv { schema: &schema, old: old.as_deref(), new: new.as_ref() };
            if let Some(cond) = &trig.condition {
                // The row's values are substituted as literals, so the
                // condition compiles against the empty layout.
                let bound = compile(&crate::subst::bind_expr(cond, env)?, &Layout::new());
                let ctx = QueryCtx { stats: Some(&self.qstats), ..QueryCtx::plain(&self.db) };
                let mut b = setrules_query::bindings::Bindings::new();
                if !eval_compiled_predicate(ctx, &mut b, &bound)? {
                    self.stats.conditions_false += 1;
                    continue;
                }
            }
            self.firings += 1;
            self.stats.triggers_fired += 1;
            for action_op in &trig.action {
                let bound = bind_op(action_op, env)?;
                self.execute_dml(&bound, depth + 1)?;
            }
        }
        Ok(())
    }
}

/// Internal event-slot used when matching fired rows to triggers.
enum TriggerSlot {
    Insert,
    Delete,
    Update(ColumnSet),
}

impl TriggerSlot {
    fn matches(&self, event: &TriggerEvent, db: &Database, table: TableId) -> bool {
        match (self, event) {
            (TriggerSlot::Insert, TriggerEvent::Insert) => true,
            (TriggerSlot::Delete, TriggerEvent::Delete) => true,
            (TriggerSlot::Update(_), TriggerEvent::Update(None)) => true,
            (TriggerSlot::Update(cols), TriggerEvent::Update(Some(c))) => db
                .schema(table)
                .column_id(c)
                .map(|cid| cols.contains(&cid))
                .unwrap_or(false),
            _ => false,
        }
    }
}
