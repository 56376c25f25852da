//! The rule execution engine — the paper's Figure 1 algorithm with the §4
//! semantics, plus the §5.3 transaction-flexibility extensions.
//!
//! A transaction is one externally-generated operation block followed by
//! rule processing (§4): rules are repeatedly selected from the triggered
//! set, their conditions evaluated against their own composite windows, and
//! their actions executed — each action creating a new transition that is
//! composed into every *other* rule's window while resetting the acting
//! rule's window to just that transition (§4.2). Processing ends when no
//! triggered rule has a true condition; then the transaction commits. A
//! `rollback` action restores the transaction's start state.

use std::collections::HashMap;
use std::time::Instant;

use setrules_query::incremental::{analyze, CondVerdict, FallbackReason, IncrementalPlan};
use setrules_query::{
    compile, eval_compiled_predicate, execute_op, execute_query, CompiledExpr, ExecOpts, ExecStats,
    Layout, NoTransitionTables, OpEffect, QueryError, Relation, StatsCell,
};
use setrules_sql::ast::{CreateRule, DmlOp, Expr, Statement, TransitionKind};
use setrules_sql::{parse_op_block, parse_statement, parse_statements};
use setrules_storage::{
    Database, FaultInjector, FaultPlan, StorageError, StorageStats, TableSchema, UndoMark, Value,
};
use setrules_wal::{WalConfig, WalRecord};

use crate::durability::{wal_log_effect, WalState};
use crate::error::RuleError;
use crate::events::{EngineEvent, EventBus, EventSink};
use crate::incremental::{MemoStore, TemplateIds};
use crate::external::{ActionCtx, ExternalAction};
use crate::priority::PriorityGraph;
use crate::rule::{CompiledAction, Rule, RuleId};
use crate::selection::{select_rule, SelectionStrategy};
use crate::stats::{EngineStats, TxnStats};
use crate::transinfo::TransInfo;
use crate::transition_tables::{RuleWindowProvider, RuleWindowRef};
use crate::windows::{RetriggerSemantics, Windows};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Maximum rule-generated transitions per transaction — the run-time
    /// divergence guard of footnote 7. Exceeding it rolls back and raises
    /// [`RuleError::LoopLimitExceeded`].
    pub max_rule_transitions: usize,
    /// Track `select` operations in transition effects (§5.1 extension).
    pub track_selects: bool,
    /// Window semantics for rule reconsideration.
    pub retrigger: RetriggerSemantics,
    /// Rule selection strategy (§4.4).
    pub strategy: SelectionStrategy,
    /// Capacity of the always-on in-memory event ring (most recent N
    /// [`EngineEvent`]s retained; `0` disables retention).
    pub event_capacity: usize,
    /// Deterministic fault plan armed onto the storage layer's
    /// [`FaultInjector`] at construction: the Nth storage operation of the
    /// planned kind fails. For crash-consistency testing; `None` (the
    /// default) injects nothing.
    pub fault: Option<FaultPlan>,
    /// Thread budget for deterministic intra-query parallelism.
    /// `Some(n)` pins it; `None` (the default) uses
    /// `std::thread::available_parallelism()`. `Some(1)` forces fully
    /// serial execution. Results are bit-identical either way (see
    /// `docs/parallel-execution.md`).
    pub parallelism: Option<usize>,
    /// Durability: `Some(cfg)` logs every transaction (its DML and every
    /// triggered rule-action write) plus all DDL to a write-ahead log,
    /// replaying it on open so a crashed system recovers exactly the
    /// committed image (see `docs/durability.md`). `None` (the default)
    /// keeps the system purely in-memory.
    pub durability: Option<WalConfig>,
    /// Incremental (TREAT-style) rule-condition evaluation: maintain
    /// per-rule materialized condition state and repair it from the
    /// composed `[I, D, U]` delta instead of re-scanning transition
    /// tables at every consideration (see
    /// `docs/incremental-evaluation.md`). `Some(b)` pins it; `None` (the
    /// default) means on. Results are observably identical either way.
    pub incremental: Option<bool>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_rule_transitions: 10_000,
            track_selects: false,
            retrigger: RetriggerSemantics::default(),
            strategy: SelectionStrategy::default(),
            event_capacity: 1024,
            fault: None,
            parallelism: None,
            durability: None,
            incremental: None,
        }
    }
}

/// One rule firing in a transaction's trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredRule {
    /// The rule that fired.
    pub rule: String,
    /// Tuples its transition inserted (net).
    pub inserted: usize,
    /// Tuples its transition deleted (net).
    pub deleted: usize,
    /// Tuples its transition updated (net).
    pub updated: usize,
}

/// The result of a committed-or-rolled-back transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum TxnOutcome {
    /// The transaction committed.
    Committed {
        /// Rule firings, in execution order.
        fired: Vec<FiredRule>,
        /// Number of rule-generated transitions.
        transitions: usize,
        /// Output of the last `select` operation in the transaction
        /// (external or rule-generated), if any.
        output: Option<Relation>,
        /// Work counters for the whole transaction.
        stats: TxnStats,
    },
    /// A rule with a `rollback` action fired; the database is back at the
    /// transaction's start state.
    RolledBack {
        /// The rule that requested rollback.
        by_rule: String,
        /// Firings that happened (and were undone) before the rollback.
        fired: Vec<FiredRule>,
        /// Work counters for the whole transaction (including the
        /// rollback replay itself).
        stats: TxnStats,
    },
}

impl TxnOutcome {
    /// Whether the transaction committed.
    pub fn committed(&self) -> bool {
        matches!(self, TxnOutcome::Committed { .. })
    }

    /// The firing trace.
    pub fn fired(&self) -> &[FiredRule] {
        match self {
            TxnOutcome::Committed { fired, .. } | TxnOutcome::RolledBack { fired, .. } => fired,
        }
    }

    /// The transaction's work counters.
    pub fn stats(&self) -> &TxnStats {
        match self {
            TxnOutcome::Committed { stats, .. } | TxnOutcome::RolledBack { stats, .. } => stats,
        }
    }
}

/// Report of a `process rules` triggering point (§5.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessReport {
    /// Rules fired during this processing pass.
    pub fired: Vec<FiredRule>,
    /// Set when a `rollback` action fired — the transaction is gone.
    pub rolled_back_by: Option<String>,
    /// Work counters for this processing pass (per-rule timing and
    /// per-phase counts, plus query- and storage-layer work).
    pub stats: TxnStats,
}

/// Outcome of [`RuleSystem::execute`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// A DDL statement was applied (message describes it).
    Ddl(String),
    /// A DML statement ran as its own transaction.
    Txn(TxnOutcome),
    /// A DML operation ran inside the open transaction (rules not yet
    /// processed).
    OpExecuted {
        /// Tuples affected (rows returned, for `select`).
        affected: usize,
        /// `select` output.
        output: Option<Relation>,
    },
    /// A `process rules` triggering point ran inside the open transaction.
    RulesProcessed(ProcessReport),
}

struct TxnState {
    mark: UndoMark,
    trace: Vec<FiredRule>,
    transitions_used: usize,
    last_output: Option<Relation>,
    /// Cumulative counters at transaction begin, for outcome deltas.
    base: TxnStats,
}

/// A rule's prepared state: its condition compiled once (an omitted
/// condition is `true`) and its incremental-evaluation state (`None`
/// until the incremental path first analyzes the condition). Owned by the
/// engine from the rule's first consideration until the next DDL.
struct Prepared {
    condition: CompiledExpr,
    incr: Option<IncrState>,
}

/// A rule's incremental analysis: the plan, or why the rule falls back
/// (until the next DDL re-analysis), plus each term's template ids in the
/// engine's [`MemoStore`]. The memos themselves live in the store.
struct IncrState {
    plan: Result<IncrementalPlan, FallbackReason>,
    /// `templates[i]` = the interned templates of `plan.terms[i]`.
    templates: Vec<TemplateIds>,
}

impl Prepared {
    fn new(condition: Option<&Expr>) -> Prepared {
        let condition = match condition {
            Some(c) => compile(c, &Layout::new()),
            None => CompiledExpr::Const(Value::Bool(true)),
        };
        Prepared { condition, incr: None }
    }
}

/// What [`RuleSystem::try_incremental`] produced for one consideration.
enum IncOutcome {
    /// Authoritative truth value from the memoized term state.
    Answer { truth: bool, mode: &'static str, rows: u64, shared: bool, side_builds: u64 },
    /// Not incrementalizable (static shape fallback or dynamic degrade);
    /// the label keys the `incr_fallback_reasons` breakdown.
    Fallback(&'static str),
}

/// A relational database with a set-oriented production rules facility —
/// the system of Widom & Finkelstein (SIGMOD 1990).
///
/// ```
/// use setrules_core::RuleSystem;
///
/// let mut sys = RuleSystem::new();
/// sys.execute("create table dept (dept_no int, mgr_no int)").unwrap();
/// sys.execute("create table emp (name text, emp_no int, salary float, dept_no int)").unwrap();
/// // Example 3.1: cascaded delete.
/// sys.execute(
///     "create rule cascade when deleted from dept \
///      then delete from emp where dept_no in (select dept_no from deleted dept)",
/// ).unwrap();
/// sys.execute("insert into dept values (1, 10)").unwrap();
/// sys.execute("insert into emp values ('Jane', 10, 95000.0, 1)").unwrap();
/// sys.execute("delete from dept where dept_no = 1").unwrap();
/// assert_eq!(sys.query("select count(*) from emp").unwrap().scalar().unwrap().as_i64(), Some(0));
/// ```
pub struct RuleSystem {
    pub(crate) db: Database,
    rules: Vec<Rule>,
    by_name: HashMap<String, RuleId>,
    priorities: PriorityGraph,
    config: EngineConfig,
    txn: Option<TxnState>,
    /// Logical consideration timestamps (for the recency strategies).
    last_considered: Vec<Option<u64>>,
    consider_clock: u64,
    /// Windows accumulated by [`RuleSystem::transaction_without_rules`]
    /// awaiting [`RuleSystem::process_deferred`] (§5.3). On a durable
    /// system every committed change to this window is logged as a
    /// `DeferredWindow` record, so recovery re-presents pending work.
    pub(crate) deferred: TransInfo,
    /// Per-rule prepared state, keyed by rule id: built at a rule's first
    /// consideration and reused by every later one, until any DDL drops
    /// the whole map (the state embeds catalog-derived positions).
    prepared: HashMap<RuleId, Prepared>,
    /// Cumulative engine-phase counters and per-rule timing.
    pub(crate) stats: EngineStats,
    /// Cumulative query-execution work (threaded into every executor call).
    qstats: StatsCell,
    /// Incremental condition evaluation, resolved once at open from
    /// `EngineConfig::incremental`.
    incr_enabled: bool,
    /// Thread budget for query execution, resolved once at open: the
    /// config's `parallelism` if pinned, else
    /// `std::thread::available_parallelism()` (1 if unknown); at least 1.
    /// Resolving it per statement would re-read the cgroup limits each
    /// time (about 20 µs per call on a 2-core Linux box).
    threads: usize,
    /// Incremental term memos, shared by every rule that reads the same
    /// subquery over the same window; scoped to one transaction.
    memos: MemoStore,
    /// Every rule's window, the pending external block and the rule
    /// processing pass's state (Fig. 1's `R.trans-info` and loop state).
    windows: Windows,
    /// Event fan-out: the always-on ring plus attached sinks.
    pub(crate) events: EventBus,
    /// Write-ahead-log state; `None` unless configured durable.
    pub(crate) wal: Option<WalState>,
}

impl Default for RuleSystem {
    fn default() -> Self {
        Self::new()
    }
}

impl RuleSystem {
    /// A fresh system with default configuration.
    pub fn new() -> Self {
        Self::with_config(EngineConfig::default())
    }

    /// A fresh system with explicit configuration.
    ///
    /// Panics if a configured write-ahead log cannot be opened or
    /// replayed; use [`RuleSystem::open`] for the fallible form.
    pub fn with_config(config: EngineConfig) -> Self {
        Self::open(config).expect("failed to open durable rule system (use RuleSystem::open)")
    }

    /// A fresh system with explicit configuration, recovering from the
    /// configured write-ahead log (if any): the log is scanned, a torn
    /// tail discarded, and the committed image — checkpoint plus every
    /// committed transaction and all DDL — replayed before the system is
    /// returned.
    pub fn open(config: EngineConfig) -> Result<Self, RuleError> {
        let events = EventBus::new(config.event_capacity);
        let fault_plan = config.fault;
        let durability = config.durability.clone();
        let incr_enabled = config.incremental.unwrap_or(true);
        let available = || std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = config.parallelism.unwrap_or_else(available).max(1);
        let windows = Windows::new(config.retrigger);
        let mut sys = RuleSystem {
            db: Database::new(),
            rules: Vec::new(),
            by_name: HashMap::new(),
            priorities: PriorityGraph::new(),
            config,
            txn: None,
            last_considered: Vec::new(),
            consider_clock: 0,
            deferred: TransInfo::new(),
            prepared: HashMap::new(),
            stats: EngineStats::default(),
            qstats: StatsCell::new(),
            incr_enabled,
            threads,
            memos: MemoStore::default(),
            windows,
            events,
            wal: None,
        };
        if let Some(wal_cfg) = durability {
            sys.recover(wal_cfg)?;
        }
        // Arm the fault plan only after recovery: recovery itself is
        // assumed reliable (like the undo path), and this keeps fault
        // site numbering independent of replayed history.
        if let Some(plan) = fault_plan {
            sys.db.fault_injector_mut().arm(plan.kind, plan.nth);
        }
        Ok(sys)
    }

    /// Read-only access to the database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The storage layer's fault injector (counters and armed plan).
    pub fn fault_injector(&self) -> &FaultInjector {
        self.db.fault_injector()
    }

    /// Mutable access to the fault injector, to arm/disarm plans or reset
    /// site counters between workloads.
    pub fn fault_injector_mut(&mut self) -> &mut FaultInjector {
        self.db.fault_injector_mut()
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// Cumulative engine-phase counters and per-rule timing.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Cumulative query-execution work counters.
    pub fn exec_stats(&self) -> ExecStats {
        self.qstats.snapshot()
    }

    /// Cumulative storage-layer work counters.
    pub fn storage_stats(&self) -> StorageStats {
        self.db.stats()
    }

    /// The full cumulative observability bundle (engine + query +
    /// storage). Snapshot two of these and [`TxnStats::since`] them for
    /// a windowed view.
    pub fn full_stats(&self) -> TxnStats {
        TxnStats { engine: self.stats.clone(), exec: self.qstats.snapshot(), storage: self.db.stats() }
    }

    /// The most recent events, oldest first (bounded by
    /// [`EngineConfig::event_capacity`]).
    pub fn recent_events(&self) -> Vec<EngineEvent> {
        self.events.ring.events()
    }

    /// The most recent `(seq, event)` pairs, oldest first.
    pub fn recent_event_entries(&self) -> Vec<(u64, EngineEvent)> {
        self.events.ring.entries().cloned().collect()
    }

    /// Drop the retained events (the sequence counter keeps increasing).
    pub fn clear_events(&mut self) {
        self.events.ring.clear();
    }

    /// Total events emitted over the system's lifetime.
    pub fn events_emitted(&self) -> u64 {
        self.events.seq()
    }

    /// Attach an additional [`EventSink`] receiving every future event.
    pub fn add_event_sink(&mut self, sink: Box<dyn EventSink>) {
        self.events.attach(sink);
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Change the selection strategy (allowed any time outside a
    /// transaction).
    pub fn set_strategy(&mut self, strategy: SelectionStrategy) -> Result<(), RuleError> {
        self.require_no_txn()?;
        self.config.strategy = strategy;
        Ok(())
    }

    /// The defined (non-dropped) rules, in creation order.
    pub fn rules(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(|r| !r.dropped)
    }

    /// Look up a rule by name.
    pub fn rule(&self, name: &str) -> Option<&Rule> {
        self.by_name.get(name).map(|id| &self.rules[id.0])
    }

    /// The priority partial order (§4.4).
    pub fn priorities(&self) -> &PriorityGraph {
        &self.priorities
    }

    /// The declared priority pairs, as (higher, lower) names.
    pub fn priority_pairs(&self) -> Vec<(String, String)> {
        self.priorities
            .pairs()
            .map(|(h, l)| (self.rules[h.0].name.clone(), self.rules[l.0].name.clone()))
            .collect()
    }

    // ------------------------------------------------------------------
    // Statement interface
    // ------------------------------------------------------------------

    /// Execute one statement: DDL takes effect immediately (not inside a
    /// transaction); DML outside a transaction runs as a complete
    /// transaction (operation block + rule processing + commit); DML
    /// inside an open transaction just runs the operation.
    pub fn execute(&mut self, sql: &str) -> Result<ExecOutcome, RuleError> {
        let stmt = parse_statement(sql)?;
        self.execute_stmt(stmt)
    }

    /// Execute a `;`-separated script, stopping at the first error.
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<ExecOutcome>, RuleError> {
        let stmts = parse_statements(sql)?;
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            out.push(self.execute_stmt(s)?);
        }
        Ok(out)
    }

    fn execute_stmt(&mut self, stmt: Statement) -> Result<ExecOutcome, RuleError> {
        // Canonical SQL for the table/index DDL arms (rule DDL is logged
        // inside the rule-administration methods, which are public API
        // and reachable without a statement).
        let ddl_sql = match &stmt {
            Statement::CreateTable(_)
            | Statement::DropTable(_)
            | Statement::CreateIndex { .. }
            | Statement::DropIndex { .. } => Some(stmt.to_string()),
            _ => None,
        };
        match stmt {
            Statement::CreateTable(ct) => {
                self.require_no_txn()?;
                // Pre-check the only failure mode so the log record can
                // precede an infallible apply: a logged statement that
                // then failed (or an applied one that wasn't logged)
                // would make replay diverge — and reverting a created
                // table would burn its `TableId` slot.
                if self.db.table_id(&ct.name).is_ok() {
                    return Err(StorageError::TableExists(ct.name).into());
                }
                self.wal_ddl(WalRecord::TableDdl { sql: ddl_sql.expect("captured above") })?;
                let cols = ct
                    .columns
                    .into_iter()
                    .map(|(n, ty)| setrules_storage::ColumnDef::new(n, ty))
                    .collect();
                self.db.create_table(TableSchema::new(ct.name.clone(), cols))?;
                self.invalidate_plans();
                Ok(ExecOutcome::Ddl(format!("table '{}' created", ct.name)))
            }
            Statement::DropTable(name) => {
                self.require_no_txn()?;
                let tid = self.db.table_id(&name)?;
                if let Some(r) = self.rules.iter().find(|r| r.referenced_tables.contains(&tid)) {
                    return Err(RuleError::TableReferencedByRules {
                        table: name,
                        rule: r.name.clone(),
                    });
                }
                // All failure modes checked: log, then apply.
                self.wal_ddl(WalRecord::TableDdl { sql: ddl_sql.expect("captured above") })?;
                self.db.drop_table(&name)?;
                self.invalidate_plans();
                Ok(ExecOutcome::Ddl(format!("table '{name}' dropped")))
            }
            Statement::CreateIndex { table, column, kind } => {
                self.require_no_txn()?;
                let tid = self.db.table_id(&table)?;
                let c = self.db.schema(tid).column_id(&column)?;
                // The index build itself can fault (`IndexMaintenance`),
                // so apply first and revert cleanly if the log record
                // cannot be written.
                self.db.create_index_of(tid, c, kind)?;
                if let Err(e) = self.wal_ddl(WalRecord::IndexDdl { sql: ddl_sql.expect("captured above") }) {
                    self.db.drop_index(tid, c);
                    return Err(e);
                }
                self.invalidate_plans();
                Ok(ExecOutcome::Ddl(format!("{kind} index on '{table}.{column}' created")))
            }
            Statement::DropIndex { table, column } => {
                self.require_no_txn()?;
                let tid = self.db.table_id(&table)?;
                let c = self.db.schema(tid).column_id(&column)?;
                self.wal_ddl(WalRecord::IndexDdl { sql: ddl_sql.expect("captured above") })?;
                self.db.drop_index(tid, c);
                self.invalidate_plans();
                Ok(ExecOutcome::Ddl(format!("index on '{table}.{column}' dropped")))
            }
            Statement::CreateRule(def) => {
                self.create_rule(&def)?;
                Ok(ExecOutcome::Ddl(format!("rule '{}' created", def.name)))
            }
            Statement::DropRule(name) => {
                self.drop_rule(&name)?;
                Ok(ExecOutcome::Ddl(format!("rule '{name}' dropped")))
            }
            Statement::ActivateRule(name) => {
                self.set_rule_active(&name, true)?;
                Ok(ExecOutcome::Ddl(format!("rule '{name}' activated")))
            }
            Statement::DeactivateRule(name) => {
                self.set_rule_active(&name, false)?;
                Ok(ExecOutcome::Ddl(format!("rule '{name}' deactivated")))
            }
            Statement::CreatePriority { higher, lower } => {
                self.add_priority(&higher, &lower)?;
                Ok(ExecOutcome::Ddl(format!("priority '{higher}' before '{lower}'")))
            }
            Statement::ProcessRules => {
                let report = self.process_rules()?;
                Ok(ExecOutcome::RulesProcessed(report))
            }
            Statement::Dml(op) => {
                if self.txn.is_some() {
                    let (affected, output) = self.run_op_in_txn(&op)?;
                    Ok(ExecOutcome::OpExecuted { affected, output })
                } else {
                    Ok(ExecOutcome::Txn(self.transaction_ops(&[op])?))
                }
            }
        }
    }

    /// Describe the access path for each `from` item of a select — how
    /// the planner would execute it (seq scan vs index probe).
    pub fn explain(&self, sql: &str) -> Result<String, RuleError> {
        let stmt = parse_statement(sql)?;
        let Statement::Dml(DmlOp::Select(sel)) = stmt else {
            return Err(RuleError::Unsupported("explain() accepts only select statements".into()));
        };
        let ctx = setrules_query::QueryCtx::plain(&self.db);
        Ok(setrules_query::explain_select(ctx, &sel))
    }

    /// Run a read-only query (no rule processing, no effect tracking;
    /// allowed inside or outside transactions).
    pub fn query(&self, sql: &str) -> Result<Relation, RuleError> {
        let stmt = parse_statement(sql)?;
        let Statement::Dml(DmlOp::Select(sel)) = stmt else {
            return Err(RuleError::Unsupported("query() accepts only select statements".into()));
        };
        Ok(execute_query(
            &self.db,
            &NoTransitionTables,
            &sel,
            &ExecOpts {
                stats: Some(&self.qstats),
                threads: self.threads,
                op_stats: None,
            },
        )?)
    }

    /// Emit a [`EngineEvent::ParallelScan`] (and mirror the engine-level
    /// counters) if query execution since `before` ran a phase partitioned.
    fn note_parallelism(&mut self, before: &setrules_query::ExecStats) {
        let d = self.qstats.snapshot().since(before);
        self.stats.parallel_scans += d.parallel_scans;
        self.stats.parallel_partitions += d.parallel_partitions;
        self.stats.serial_fallbacks += d.serial_fallbacks;
        if d.parallel_scans > 0 {
            self.events.emit(EngineEvent::ParallelScan {
                partitions: d.parallel_partitions,
                rows: d.rows_scanned,
            });
        }
    }

    // ------------------------------------------------------------------
    // Rule administration
    // ------------------------------------------------------------------

    /// Drop every rule's prepared state. Called on any DDL: a compiled
    /// condition embeds slot positions derived from the catalog, and an
    /// incremental analysis its shape, both of which DDL may move.
    fn invalidate_plans(&mut self) {
        self.prepared.clear();
        self.memos.invalidate();
    }

    /// Define a rule from its parsed form.
    pub fn create_rule(&mut self, def: &CreateRule) -> Result<RuleId, RuleError> {
        self.require_no_txn()?;
        if self.by_name.contains_key(&def.name) {
            return Err(RuleError::DuplicateRule(def.name.clone()));
        }
        let id = RuleId(self.rules.len());
        let rule = Rule::compile(&self.db, id, def)?;
        // Compiled (all failure modes checked): log, then install.
        self.wal_ddl(WalRecord::RuleDdl {
            sql: Statement::CreateRule(def.clone()).to_string(),
        })?;
        self.by_name.insert(def.name.clone(), id);
        self.rules.push(rule);
        self.last_considered.push(None);
        self.invalidate_plans();
        Ok(id)
    }

    /// Define a rule from SQL text (`create rule ...`).
    pub fn create_rule_str(&mut self, sql: &str) -> Result<RuleId, RuleError> {
        match parse_statement(sql)? {
            Statement::CreateRule(def) => self.create_rule(&def),
            _ => Err(RuleError::Unsupported("expected a 'create rule' statement".into())),
        }
    }

    /// Define a rule whose action is an external procedure (§5.2). `when`
    /// is a transition-predicate list (e.g. `"inserted into emp or updated
    /// emp.salary"`); `condition` is an optional SQL predicate.
    pub fn create_rule_external(
        &mut self,
        name: &str,
        when: &str,
        condition: Option<&str>,
        action: std::sync::Arc<dyn ExternalAction>,
    ) -> Result<RuleId, RuleError> {
        self.require_no_txn()?;
        if self.wal.is_some() {
            return Err(RuleError::Unsupported(
                "external-action rules are native code and cannot be logged to the \
                 write-ahead log; use a non-durable system"
                    .into(),
            ));
        }
        if self.by_name.contains_key(name) {
            return Err(RuleError::DuplicateRule(name.to_string()));
        }
        let when = setrules_sql::parse_trans_pred(when)?;
        let condition = condition.map(setrules_sql::parse_expr).transpose()?;
        let def = CreateRule {
            name: name.to_string(),
            when,
            condition,
            // Compile with a placeholder action; swapped below.
            action: setrules_sql::ast::RuleAction::Rollback,
        };
        let id = RuleId(self.rules.len());
        let mut rule = Rule::compile(&self.db, id, &def)?;
        rule.action = CompiledAction::External(action);
        self.by_name.insert(name.to_string(), id);
        self.rules.push(rule);
        self.last_considered.push(None);
        self.invalidate_plans();
        Ok(id)
    }

    /// Drop a rule by name. Its priority edges are removed; its `RuleId`
    /// is retired (ids are creation indexes and are not reused).
    pub fn drop_rule(&mut self, name: &str) -> Result<(), RuleError> {
        self.require_no_txn()?;
        let id = *self.by_name.get(name).ok_or_else(|| RuleError::NoSuchRule(name.into()))?;
        self.wal_ddl(WalRecord::RuleDdl {
            sql: Statement::DropRule(name.to_string()).to_string(),
        })?;
        self.by_name.remove(name);
        // Keep the slot (ids are indexes) but make it inert and invisible.
        let rule = &mut self.rules[id.0];
        rule.active = false;
        rule.dropped = true;
        rule.when.clear();
        rule.referenced_tables.clear();
        rule.licensed.clear();
        self.priorities.remove_rule(id);
        self.invalidate_plans();
        Ok(())
    }

    /// Activate or deactivate a rule.
    pub fn set_rule_active(&mut self, name: &str, active: bool) -> Result<(), RuleError> {
        self.require_no_txn()?;
        let id = *self.by_name.get(name).ok_or_else(|| RuleError::NoSuchRule(name.into()))?;
        let stmt = if active {
            Statement::ActivateRule(name.to_string())
        } else {
            Statement::DeactivateRule(name.to_string())
        };
        self.wal_ddl(WalRecord::RuleDdl { sql: stmt.to_string() })?;
        self.rules[id.0].active = active;
        Ok(())
    }

    /// Declare `higher` before `lower` (§4.4). Rejects cycles.
    pub fn add_priority(&mut self, higher: &str, lower: &str) -> Result<(), RuleError> {
        self.require_no_txn()?;
        let h = *self.by_name.get(higher).ok_or_else(|| RuleError::NoSuchRule(higher.into()))?;
        let l = *self.by_name.get(lower).ok_or_else(|| RuleError::NoSuchRule(lower.into()))?;
        // Cycle-test first so the log record precedes an infallible apply.
        if !self.priorities.admits(h, l) {
            return Err(RuleError::PriorityCycle { higher: higher.into(), lower: lower.into() });
        }
        self.wal_ddl(WalRecord::RuleDdl {
            sql: Statement::CreatePriority { higher: higher.to_string(), lower: lower.to_string() }
                .to_string(),
        })?;
        self.priorities.add(h, l);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Run a `;`-separated operation block as one complete transaction.
    pub fn transaction(&mut self, sql: &str) -> Result<TxnOutcome, RuleError> {
        let ops = parse_op_block(sql)?;
        self.transaction_ops(&ops)
    }

    /// Run parsed operations as one complete transaction.
    pub fn transaction_ops(&mut self, ops: &[DmlOp]) -> Result<TxnOutcome, RuleError> {
        self.begin()?;
        for op in ops {
            // On error, run_op_in_txn has already aborted the transaction.
            self.run_op_in_txn(op)?;
        }
        self.commit()
    }

    /// Open a transaction explicitly (§5.3 usage: interleave operations and
    /// `process rules` triggering points, then [`RuleSystem::commit`]).
    pub fn begin(&mut self) -> Result<(), RuleError> {
        self.require_no_txn()?;
        self.events.emit(EngineEvent::TxnBegin);
        self.memos.begin();
        self.windows.begin(self.rules.len());
        self.txn = Some(TxnState {
            mark: self.db.mark(),
            trace: Vec::new(),
            transitions_used: 0,
            last_output: None,
            base: self.full_stats(),
        });
        self.wal_begin().map_err(|e| self.fail_txn(e))
    }

    /// Whether a transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Execute one operation inside the open transaction (no rule
    /// processing). Any error aborts and rolls back the transaction.
    pub fn run_op(&mut self, sql: &str) -> Result<Option<Relation>, RuleError> {
        let ops = match parse_op_block(sql) {
            Ok(ops) => ops,
            Err(e) => {
                // A parse error does not abort: nothing was executed.
                return Err(e.into());
            }
        };
        let mut last = None;
        for op in &ops {
            let (_, out) = self.run_op_in_txn(op)?;
            if out.is_some() {
                last = out;
            }
        }
        Ok(last)
    }

    fn run_op_in_txn(&mut self, op: &DmlOp) -> Result<(usize, Option<Relation>), RuleError> {
        if self.txn.is_none() {
            return Err(RuleError::NoOpenTransaction);
        }
        let eff = self.run_external_op(op).map_err(|e| self.fail_txn(e))?;
        let affected = eff.cardinality();
        let output = match &eff {
            OpEffect::Select { output, .. } => Some(output.clone()),
            _ => None,
        };
        if output.is_some() {
            self.txn.as_mut().expect("checked above").last_output = output.clone();
        }
        self.windows.absorb(eff, self.config.track_selects);
        Ok((affected, output))
    }

    /// Execute one externally-generated operation and log its redo
    /// records. They read only handles and heap values, so they are
    /// written before the effect moves into a window.
    fn run_external_op(&mut self, op: &DmlOp) -> Result<OpEffect, RuleError> {
        let before = self.qstats.snapshot();
        let opts = ExecOpts { stats: Some(&self.qstats), threads: self.threads, op_stats: None };
        let result = execute_op(&mut self.db, &NoTransitionTables, op, &opts);
        self.note_parallelism(&before);
        let eff = result?;
        wal_log_effect(&mut self.db, &mut self.wal, &mut self.stats, &mut self.events, &eff)?;
        Ok(eff)
    }

    /// Abandon the open transaction, restoring the start state.
    pub fn rollback(&mut self) -> Result<(), RuleError> {
        if self.txn.is_none() {
            return Err(RuleError::NoOpenTransaction);
        }
        self.abort_internal(None);
        Ok(())
    }

    /// Abandon the open transaction, if any: `by_rule` names the rule
    /// whose `rollback` action asked for it.
    fn abort_internal(&mut self, by_rule: Option<String>) {
        if let Some(txn) = self.txn.take() {
            self.roll_back(txn.mark, by_rule);
        }
    }

    /// Release the rule windows, undo every change since `mark` (the open
    /// or flat transaction's start), abort the transaction in the log,
    /// count it and emit [`EngineEvent::Rollback`] naming the rule whose
    /// `rollback` action asked for it, if one did.
    fn roll_back(&mut self, mark: UndoMark, by_rule: Option<String>) {
        self.windows.end();
        self.db.rollback_to(mark).expect("a transaction's mark is valid until it ends");
        self.wal_graceful_abort();
        self.stats.txns_rolled_back += 1;
        self.events.emit(EngineEvent::Rollback { by_rule });
    }

    /// A statement (or a log write) failed: record it, abandon the open
    /// transaction, and hand the error back.
    fn fail_txn(&mut self, e: RuleError) -> RuleError {
        self.note_statement_failure(&e);
        self.abort_internal(None);
        e
    }

    /// Record a failed DML statement: the query layer has already undone
    /// its partial effects to the statement savepoint, so emit
    /// [`EngineEvent::StatementRollback`] (plus [`EngineEvent::Fault`]
    /// when the cause was an armed fault plan) before the transaction
    /// itself rolls back.
    fn note_statement_failure(&mut self, e: &RuleError) {
        let storage_err = match e {
            RuleError::Storage(se) => Some(se),
            RuleError::Query(QueryError::Storage(se)) => Some(se),
            _ => None,
        };
        if let Some(StorageError::FaultInjected { kind, op }) = storage_err {
            self.stats.faults_injected += 1;
            self.events.emit(EngineEvent::Fault { kind: kind.name().to_string(), n: *op });
        }
        self.stats.stmt_rollbacks += 1;
        self.events.emit(EngineEvent::StatementRollback);
    }

    /// A rule triggering point (§5.3): process rules now, mid-transaction.
    /// "The externally-generated transition is considered complete, rules
    /// are processed, and a new transition begins."
    pub fn process_rules(&mut self) -> Result<ProcessReport, RuleError> {
        if self.txn.is_none() {
            return Err(RuleError::NoOpenTransaction);
        }
        let base = self.full_stats();
        let fired_before = self.txn.as_ref().expect("checked").trace.len();
        let rolled_back_by = self.run_rule_processing()?;
        let trace = &self.txn.as_ref().expect("open unless an error aborted").trace;
        let fired = trace[fired_before..].to_vec();
        if rolled_back_by.is_some() {
            self.abort_internal(rolled_back_by.clone());
        }
        Ok(ProcessReport { fired, rolled_back_by, stats: self.full_stats().since(&base) })
    }

    /// Process rules (unless already done for all changes) and commit the
    /// open transaction.
    pub fn commit(&mut self) -> Result<TxnOutcome, RuleError> {
        if self.txn.is_none() {
            return Err(RuleError::NoOpenTransaction);
        }
        let rolled_back_by = self.run_rule_processing()?;
        if rolled_back_by.is_none() {
            // Durability first: the transaction's records — including
            // every rule-action write above — reach the sink and the
            // fsync boundary before the in-memory commit.
            self.wal_commit().map_err(|e| self.fail_txn(e))?;
        }
        let txn = self.txn.take().expect("open unless an error aborted");
        match rolled_back_by {
            Some(by_rule) => {
                self.roll_back(txn.mark, Some(by_rule.clone()));
                let stats = self.full_stats().since(&txn.base);
                Ok(TxnOutcome::RolledBack { by_rule, fired: txn.trace, stats })
            }
            None => {
                self.windows.end();
                self.db.commit();
                self.stats.txns_committed += 1;
                self.events.emit(EngineEvent::TxnCommit {
                    fired: txn.trace.len(),
                    transitions: txn.transitions_used,
                });
                let stats = self.full_stats().since(&txn.base);
                self.maybe_checkpoint();
                Ok(TxnOutcome::Committed {
                    fired: txn.trace,
                    transitions: txn.transitions_used,
                    output: txn.last_output,
                    stats,
                })
            }
        }
    }

    // ------------------------------------------------------------------
    // Deferred rule processing across transactions (§5.3)
    // ------------------------------------------------------------------

    /// Execute and commit an operation block *without* processing rules;
    /// its changes accumulate for a later [`RuleSystem::process_deferred`]
    /// (§5.3: "it might be advantageous to execute several
    /// externally-generated transactions before considering triggered
    /// rules").
    pub fn transaction_without_rules(&mut self, sql: &str) -> Result<(), RuleError> {
        self.require_no_txn()?;
        let ops = parse_op_block(sql)?;
        let mark = self.db.mark();
        self.events.emit(EngineEvent::TxnBegin);
        if let Err(e) = self.wal_begin() {
            self.fail_flat_txn(mark, &e);
            return Err(e);
        }
        let mut window = TransInfo::new();
        for op in &ops {
            match self.run_external_op(op) {
                Ok(eff) => window.absorb(eff, self.config.track_selects),
                Err(e) => {
                    self.fail_flat_txn(mark, &e);
                    return Err(e);
                }
            }
        }
        // The pending window this commit leaves behind must be durable
        // too: log the *composed* window (everything still awaiting
        // `process_deferred` after this transaction) inside the same
        // commit unit, so a crash between this transaction and the
        // deferred pass re-presents the work on recovery.
        let mut combined = self.deferred.clone();
        combined.compose(&window);
        if !combined.is_empty() || !self.deferred.is_empty() {
            if let Err(e) = self.wal_log_deferred(&combined) {
                self.fail_flat_txn(mark, &e);
                return Err(e);
            }
        }
        if let Err(e) = self.wal_commit() {
            self.fail_flat_txn(mark, &e);
            return Err(e);
        }
        self.db.commit();
        self.stats.txns_committed += 1;
        self.events.emit(EngineEvent::TxnCommit { fired: 0, transitions: 0 });
        self.deferred = combined;
        self.maybe_checkpoint();
        Ok(())
    }

    /// Shared failure path for [`RuleSystem::transaction_without_rules`]
    /// (which has no `TxnState` to abort through): record the failed
    /// statement, undo to the transaction's mark, and roll the log back.
    fn fail_flat_txn(&mut self, mark: UndoMark, e: &RuleError) {
        self.note_statement_failure(e);
        self.roll_back(mark, None);
    }

    /// Process rules against everything accumulated by
    /// [`RuleSystem::transaction_without_rules`]. Rule actions run in a
    /// fresh transaction; a `rollback` action undoes *the rule actions
    /// only* (the deferred external transactions already committed).
    pub fn process_deferred(&mut self) -> Result<TxnOutcome, RuleError> {
        self.begin()?;
        // A committed deferred pass leaves no pending window behind: log
        // the cleared window inside this transaction, so a crash before
        // its `Commit` keeps re-presenting the old one on recovery.
        if !self.deferred.is_empty() {
            self.wal_log_deferred(&TransInfo::new()).map_err(|e| self.fail_txn(e))?;
        }
        // Move the deferred window in only after the `Begin` is logged: a
        // failed begin must not silently drop the pending transitions.
        self.windows.set_pending(std::mem::take(&mut self.deferred));
        self.commit()
    }

    /// Changes awaiting deferred processing.
    pub fn deferred_window(&self) -> &TransInfo {
        &self.deferred
    }

    /// Discard any changes awaiting deferred processing (used after bulk
    /// loads that should not count as a pending transition).
    ///
    /// On a durable system the clear is logged best-effort: if the log
    /// write fails, recovery re-presents the old window — the
    /// conservative direction (pending work reappears rather than
    /// silently vanishing).
    pub fn clear_deferred(&mut self) {
        if !self.deferred.is_empty() {
            let _ = self.wal_clear_deferred();
        }
        self.deferred = TransInfo::new();
    }

    /// The composite window of the named rule in the open transaction —
    /// a debugging aid; `None` when no transaction is open or the rule
    /// does not exist.
    pub fn current_window(&self, rule: &str) -> Option<&TransInfo> {
        self.txn.as_ref()?;
        Some(self.windows.window(*self.by_name.get(rule)?))
    }

    /// Whether a name-level transition reference falls inside `rule`'s
    /// licence set (§3's reference restriction, resolved to catalog ids).
    fn rule_licenses(
        &self,
        rule: &Rule,
        kind: TransitionKind,
        table: &str,
        column: Option<&str>,
    ) -> bool {
        let Ok(tid) = self.db.table_id(table) else { return false };
        let col = match column {
            Some(c) => match self.db.schema(tid).column_id(c) {
                Ok(c) => Some(c),
                Err(_) => return false,
            },
            None => None,
        };
        rule.licensed.contains(&(kind, tid, col))
    }

    /// Whether incremental condition evaluation is enabled for this
    /// system (the `EngineConfig::incremental` knob).
    pub fn incremental_enabled(&self) -> bool {
        self.incr_enabled
    }

    /// Per-rule incremental-evaluation status — each live rule's term
    /// plan or the reason it falls back to full re-scan — then one line
    /// per live shared memo and per live join side (its template, window
    /// start, size and the rules reading it), plus the cumulative fallback
    /// breakdown by reason. A debugging aid (the REPL's `\incr`); prefers
    /// the verdict the engine cached at first consideration and runs the
    /// same analysis otherwise.
    pub fn incremental_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "incremental evaluation: {}\n",
            if self.incremental_enabled() { "on" } else { "off" }
        );
        let live = self.rules.iter().filter(|r| !r.dropped);
        for rule in live.clone() {
            let Some(cond) = &rule.condition else {
                let _ = writeln!(out, "{}: no condition (always fires)", rule.name);
                continue;
            };
            let desc = match self.prepared.get(&rule.id).and_then(|p| p.incr.as_ref()) {
                Some(IncrState { plan: Ok(plan), .. }) => format!(
                    "incremental ({} term{})\n{}",
                    plan.terms.len(),
                    if plan.terms.len() == 1 { "" } else { "s" },
                    plan.describe(),
                ),
                Some(IncrState { plan: Err(reason), .. }) => {
                    format!("full re-scan [{}] ({reason})\n", reason.label())
                }
                None => {
                    let licensed = |kind: TransitionKind, table: &str, column: Option<&str>| {
                        self.rule_licenses(rule, kind, table, column)
                    };
                    setrules_query::explain_condition(&self.db, cond, &licensed)
                }
            };
            let _ = write!(out, "{}: {}", rule.name, desc);
        }
        // A rule reads a memo (or join side) when one of its terms has the
        // memo's template and its window starts at the memo's transition.
        // (Memos exist only over windows of rules the last transaction
        // began with: rule DDL invalidates them all.)
        let readers = |template, start| {
            let reads = |r: &&Rule| {
                self.windows.start(r.id) == start
                    && self.prepared.get(&r.id).and_then(|p| p.incr.as_ref())
                        .is_some_and(|st| st.templates.iter().any(|ids| ids.reads(template)))
            };
            live.clone().filter(reads).map(|r| r.name.as_str()).collect::<Vec<_>>().join(", ")
        };
        let memos = self.memos.describe(&readers);
        if !memos.is_empty() {
            let _ = writeln!(out, "shared memos:");
        }
        for line in memos {
            let _ = writeln!(out, "{line}");
        }
        if !self.stats.incr_fallback_reasons.is_empty() {
            let _ = writeln!(out, "fallbacks by reason:");
            for (label, n) in &self.stats.incr_fallback_reasons {
                let _ = writeln!(out, "  {label}: {n}");
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // The Figure 1 loop
    // ------------------------------------------------------------------

    /// Process rules until quiescence: the loop of Fig. 1 (§4.1–4.2).
    /// Returns `Ok(Some(rule))` if a rollback action fired (caller rolls
    /// back), `Ok(None)` on normal completion. Errors abort and roll back
    /// before returning.
    fn run_rule_processing(&mut self) -> Result<Option<String>, RuleError> {
        // Every pass (each `process rules` point and the commit, §5.3)
        // starts with no rule considered.
        self.windows.begin_pass();
        // Fig. 1: the external transition initialises every rule's
        // trans-info.
        self.flush_pending();
        loop {
            // Fig. 1 `select-triggered-rule` (§4.4) among the rules whose
            // trans-info satisfies their transition predicate and that
            // were not yet considered against it; none left ends the loop.
            let candidates = self.windows.candidates(&self.rules, &self.db, &mut self.stats);
            let Some(rid) =
                select_rule(self.config.strategy, &self.priorities, candidates, &self.last_considered)
            else {
                return Ok(None);
            };
            let name = self.note_consideration(rid);

            // Fig. 1: evaluate the rule's condition over its trans-info.
            let cond_start = Instant::now();
            let cond = self.evaluate_condition(rid, &name);
            self.stats.rule_mut(&name).condition_nanos +=
                cond_start.elapsed().as_nanos() as u64;
            let cond_holds = match cond {
                Ok(b) => b,
                Err(e) => {
                    self.abort_internal(None);
                    return Err(e);
                }
            };
            if !cond_holds {
                self.stats.conditions_false += 1;
                self.stats.rule_mut(&name).condition_false += 1;
                self.events.emit(EngineEvent::RuleConditionFalse { rule: name.clone() });
                // §4.2: choose again; footnote 8 may restart the window.
                self.windows.condition_false(rid);
                continue;
            }

            // Fig. 1: execute the action; `rollback` ends processing (§4.1).
            let action = self.rules[rid.0].action.clone();
            if let CompiledAction::Rollback = action {
                return Ok(Some(name));
            }
            let transition = self.run_action(rid, name, &action)?;
            // Fig. 1: the acting rule's trans-info becomes the action's
            // transition; every other rule's composes it (§4.2).
            self.apply_transition(transition, Some(rid));
        }
    }

    /// Book `rid`'s consideration — the recency clock (§4.4), re-trigger
    /// detection (§4.2), counters and events — and prepare it on its first
    /// consideration since the last DDL (reported as the plan cache: a
    /// rule considered before reuses its compiled condition and
    /// incremental state). Answers the rule's name.
    fn note_consideration(&mut self, rid: RuleId) -> String {
        self.consider_clock += 1;
        self.last_considered[rid.0] = Some(self.consider_clock);
        let name = self.rules[rid.0].name.clone();
        if self.windows.consider(rid) {
            self.stats.rules_retriggered += 1;
            self.stats.rule_mut(&name).retriggered += 1;
            self.events.emit(EngineEvent::RuleRetriggered { rule: name.clone() });
        }
        self.stats.rules_considered += 1;
        self.stats.rule_mut(&name).considered += 1;
        self.events.emit(EngineEvent::RuleConsidered { rule: name.clone() });
        let hit = self.prepared.contains_key(&rid);
        if hit {
            self.stats.plan_cache_hits += 1;
        } else {
            let prepared = Prepared::new(self.rules[rid.0].condition.as_ref());
            self.prepared.insert(rid, prepared);
            self.stats.plan_cache_misses += 1;
        }
        self.events.emit(EngineEvent::PlanCache { rule: name.clone(), hit });
        name
    }

    /// Run the considered rule's (non-rollback) action as one transition,
    /// under the footnote-7 divergence guard, and record the firing.
    fn run_action(
        &mut self,
        rid: RuleId,
        name: String,
        action: &CompiledAction,
    ) -> Result<TransInfo, RuleError> {
        let txn = self.txn.as_mut().expect("open");
        txn.transitions_used += 1;
        if txn.transitions_used > self.config.max_rule_transitions {
            let limit = self.config.max_rule_transitions;
            self.stats.loop_aborts += 1;
            self.events.emit(EngineEvent::LoopSafeguardAbort { limit });
            self.abort_internal(None);
            return Err(RuleError::LoopLimitExceeded { limit });
        }
        let action_start = Instant::now();
        // §4: an aborted rule action aborts the whole transaction — partial
        // statement effects were already undone at the statement boundary.
        let tinfo = self.execute_rule_action(rid, action).map_err(|e| self.fail_txn(e))?;
        self.stats.rule_mut(&name).action_nanos += action_start.elapsed().as_nanos() as u64;
        self.stats.rules_executed += 1;
        self.stats.rule_mut(&name).executed += 1;
        let (inserted, deleted, updated) = (tinfo.ins.len(), tinfo.del.len(), tinfo.upd.len());
        self.events.emit(EngineEvent::RuleExecuted {
            rule: name.clone(),
            inserted,
            deleted,
            updated,
        });
        let fired = FiredRule { rule: name, inserted, deleted, updated };
        self.txn.as_mut().expect("open").trace.push(fired);
        Ok(tinfo)
    }

    /// Fig. 1's external transition: the pending block, if anything is
    /// pending, becomes a transition every window takes in.
    fn flush_pending(&mut self) {
        let Some(block) = self.windows.take_pending() else { return };
        self.stats.external_blocks += 1;
        self.events.emit(EngineEvent::ExternalBlockAbsorbed {
            inserted: block.ins.len(),
            deleted: block.del.len(),
            updated: block.upd.len(),
            selected: block.sel.len(),
        });
        self.apply_transition(block, None);
    }

    /// Take a new transition into every window (`Windows::apply`) and emit
    /// the trans-info maintenance it reports, in creation order: Fig. 1
    /// emits it only for rules the transition triggers by itself, plus
    /// the acting rule, whose window always restarts.
    fn apply_transition(&mut self, transition: TransInfo, acting: Option<RuleId>) {
        let (rules, db) = (&self.rules, &self.db);
        let changes =
            self.windows.apply(rules, db, transition, acting, &mut self.memos, &mut self.stats);
        for &(rid, init) in changes {
            let rule = rules[rid.0].name.clone();
            self.events.emit(if init {
                EngineEvent::TransInfoInit { rule }
            } else {
                EngineEvent::TransInfoModify { rule }
            });
        }
    }

    /// Evaluate the considered rule's condition, preferring the
    /// incremental path — repairing (or rebuilding) the materialized
    /// per-term match sets from the delta since the last consideration —
    /// and falling back to [`Self::check_condition`]'s full window scan
    /// whenever the condition is not incrementalizable. The observable
    /// truth value is identical on either path.
    fn evaluate_condition(&mut self, rid: RuleId, name: &str) -> Result<bool, RuleError> {
        if self.incr_enabled && self.rules[rid.0].condition.is_some() {
            match self.try_incremental(rid)? {
                IncOutcome::Answer { truth, mode, rows, shared, side_builds } => {
                    if mode == "repair" {
                        self.stats.incr_hits += 1;
                    } else {
                        self.stats.incr_rebuilds += 1;
                    }
                    self.stats.incr_delta_rows += rows;
                    self.stats.incr_side_builds += side_builds;
                    if shared {
                        self.stats.incr_shared_hits += 1;
                    }
                    self.events.emit(EngineEvent::IncrementalEval {
                        rule: name.to_string(),
                        mode: mode.to_string(),
                        delta_rows: rows,
                        shared,
                    });
                    return Ok(truth);
                }
                IncOutcome::Fallback(label) => {
                    self.stats.incr_fallbacks += 1;
                    // Allocate the label's key only on its first fallback.
                    match self.stats.incr_fallback_reasons.get_mut(label) {
                        Some(n) => *n += 1,
                        None => {
                            self.stats.incr_fallback_reasons.insert(label.to_string(), 1);
                        }
                    }
                    self.events.emit(EngineEvent::IncrementalEval {
                        rule: name.to_string(),
                        mode: "fallback".to_string(),
                        delta_rows: 0,
                        shared: false,
                    });
                }
            }
        }
        self.check_condition(rid)
    }

    /// The incremental path. `Fallback(label)` means the condition is not
    /// incrementalizable — either at analysis time (the cached
    /// [`FallbackReason`]'s label) or at this evaluation (a dynamic
    /// degrade such as the sum overflow guard) — and the caller must run
    /// the full evaluator. `Answer` is authoritative: `mode` is
    /// `"repair"` when every term patched from the delta log and
    /// `"rebuild"` when any memo was (re)populated from the whole window;
    /// `rows` counts probed rows either way, and `shared` reports whether
    /// another rule paid for any term's refresh: a composed delta suffix
    /// from another fold this round, or a memo another rule already
    /// brought up to date.
    ///
    /// Kept out of line: inlined, it bloats the Figure-1 loop that every
    /// transaction runs (`bystander_rules`, which considers no rule, ran
    /// about 4 % slower).
    ///
    /// [`FallbackReason`]: setrules_query::incremental::FallbackReason
    #[inline(never)]
    fn try_incremental(&mut self, rid: RuleId) -> Result<IncOutcome, RuleError> {
        if self.prepared[&rid].incr.is_none() {
            // First consideration since the rule was (re)prepared:
            // analyze once and intern each term's template; the verdict
            // is kept with the prepared state and dies with it on DDL.
            let rule = &self.rules[rid.0];
            let cond = rule.condition.as_ref().expect("caller checked");
            let licensed = |kind: TransitionKind, table: &str, column: Option<&str>| {
                self.rule_licenses(rule, kind, table, column)
            };
            let plan = analyze(&self.db, cond, &licensed);
            let templates = match &plan {
                Ok(p) => p.terms.iter().map(|t| self.memos.intern(t)).collect(),
                Err(_) => Vec::new(),
            };
            self.prepared.get_mut(&rid).expect("a considered rule is prepared").incr =
                Some(IncrState { plan, templates });
        }
        let st = self.prepared[&rid].incr.as_ref().expect("just filled");
        let plan = match &st.plan {
            Ok(p) => p,
            Err(reason) => return Ok(IncOutcome::Fallback(reason.label())),
        };
        let (window, start) = (self.windows.window(rid), self.windows.start(rid));
        let (db, memos) = (&self.db, &mut self.memos);
        let outcome = plan.evaluate(&mut |i, term| {
            memos.refresh(db, term, st.templates[i], rid, start, window)
        })?;
        self.qstats.bump(|s| s.incr_probe_rows += outcome.rows);
        match outcome.verdict {
            CondVerdict::Truth(truth) => Ok(IncOutcome::Answer {
                truth,
                mode: if outcome.rebuilt > 0 { "rebuild" } else { "repair" },
                rows: outcome.rows,
                shared: outcome.shared > 0,
                side_builds: outcome.side_builds,
            }),
            // A dynamic degrade (e.g. the sum overflow guard): the memo
            // stays live — only this evaluation answers via full scan.
            CondVerdict::Degrade(label) => Ok(IncOutcome::Fallback(label)),
        }
    }

    fn check_condition(&self, rid: RuleId) -> Result<bool, RuleError> {
        let rule = &self.rules[rid.0];
        let prepared = self.prepared.get(&rid).expect("a considered rule is prepared");
        let provider = RuleWindowRef { info: self.windows.window(rid), licensed: &rule.licensed };
        let cache = setrules_query::SubqueryCache::new();
        let opts = ExecOpts { stats: Some(&self.qstats), threads: self.threads, op_stats: None };
        let ctx = opts.ctx(&self.db, &provider, &cache);
        let mut bindings = setrules_query::bindings::Bindings::new();
        Ok(eval_compiled_predicate(ctx, &mut bindings, &prepared.condition)?)
    }

    /// Execute a rule's action as one operation block, returning the
    /// transition's window.
    fn execute_rule_action(
        &mut self,
        rid: RuleId,
        action: &CompiledAction,
    ) -> Result<TransInfo, RuleError> {
        let before = self.qstats.snapshot();
        let effects = self.action_effects(rid, action);
        self.note_parallelism(&before);
        let mut tinfo = TransInfo::new();
        for eff in effects? {
            if let (OpEffect::Select { output, .. }, Some(txn)) = (&eff, self.txn.as_mut()) {
                txn.last_output = Some(output.clone());
            }
            tinfo.absorb(eff, self.config.track_selects);
        }
        Ok(tinfo)
    }

    /// Run a rule's action over its window and answer the effects of its
    /// operations, in order; each write is logged as it happens.
    fn action_effects(
        &mut self,
        rid: RuleId,
        action: &CompiledAction,
    ) -> Result<Vec<OpEffect>, RuleError> {
        let licensed = &self.rules[rid.0].licensed;
        match action {
            CompiledAction::Block(ops) => {
                // Borrow the rule's window directly — `self.db` (mutable)
                // and `self.windows`/`self.rules` (immutable) are disjoint
                // fields, so no O(window) clone is needed.
                let provider = RuleWindowRef { info: self.windows.window(rid), licensed };
                let opts =
                    ExecOpts { stats: Some(&self.qstats), threads: self.threads, op_stats: None };
                let mut effects = Vec::with_capacity(ops.len());
                for op in ops.iter() {
                    let eff = execute_op(&mut self.db, &provider, op, &opts)?;
                    // Rule-action writes join the transaction's commit unit
                    // (free function: `provider` still borrows
                    // `self.windows`/`self.rules`).
                    let (db, wal, stats, events) =
                        (&mut self.db, &mut self.wal, &mut self.stats, &mut self.events);
                    wal_log_effect(db, wal, stats, events, &eff)?;
                    effects.push(eff);
                }
                Ok(effects)
            }
            CompiledAction::External(f) => {
                // External actions hold the provider across arbitrary user
                // code; give them an owning snapshot of the window.
                let window = self.windows.window(rid).clone();
                let mut ctx = ActionCtx {
                    db: &mut self.db,
                    provider: RuleWindowProvider::licensed(window, licensed.clone()),
                    effects: Vec::new(),
                    track_selects: self.config.track_selects,
                    did_ddl: false,
                };
                f.run(&mut ctx)?;
                let ActionCtx { effects, did_ddl, .. } = ctx;
                if did_ddl {
                    // Mid-transaction DDL (index creation) moved the
                    // catalog under every prepared rule's feet.
                    self.invalidate_plans();
                }
                Ok(effects)
            }
            CompiledAction::Rollback => unreachable!("handled by the caller"),
        }
    }

    fn require_no_txn(&self) -> Result<(), RuleError> {
        if self.txn.is_some() {
            Err(RuleError::TransactionOpen)
        } else {
            Ok(())
        }
    }
}
