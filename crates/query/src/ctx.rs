//! Evaluation context: the database, the transition-table provider, and
//! the per-statement subquery cache.

use std::cell::RefCell;
use std::collections::HashMap;

use setrules_storage::Database;

use crate::compile::PlanCache;
use crate::provider::TransitionTableProvider;
use crate::relation::Relation;
use crate::stats::{OpStatsCell, StatsCell};

/// Which executor evaluates expressions and plans joins.
///
/// `Compiled` (the default) lowers expressions to slot-addressed
/// [`CompiledExpr`](crate::compile::CompiledExpr) form and runs the N-way
/// join planner; `Interpreted` keeps the original string-resolving
/// walk-the-AST path. The two must produce identical relations — the
/// interpreted path remains as the differential-testing reference and as
/// the bench baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Compile-once pipeline: slot-resolved expressions, planned joins.
    #[default]
    Compiled,
    /// Reference interpreter: per-row string resolution, odometer joins
    /// with the historical 2-way hash special case.
    Interpreted,
}

/// Per-statement memo for uncorrelated subqueries, keyed by AST node
/// address. `None` records that the subquery was found to be correlated
/// (it references outer columns), so re-evaluation per row is required.
///
/// This is the representative optimization behind the paper's §1 claim
/// that set-oriented rules keep relational optimization applicable: a
/// rule-action predicate like `fk in (select pk from deleted parent)`
/// evaluates its subquery once per statement, not once per scanned row.
#[derive(Debug, Default)]
pub struct SubqueryCache {
    entries: RefCell<HashMap<usize, Option<Relation>>>,
}

impl SubqueryCache {
    /// A fresh, empty cache (one per executed statement).
    pub fn new() -> Self {
        SubqueryCache::default()
    }

    pub(crate) fn get(&self, key: usize) -> Option<Option<Relation>> {
        self.entries.borrow().get(&key).cloned()
    }

    pub(crate) fn put(&self, key: usize, value: Option<Relation>) {
        self.entries.borrow_mut().insert(key, value);
    }
}

/// Everything expression evaluation may consult: the current database state
/// and the transition tables of the rule being processed (if any).
///
/// The paper's rule conditions "may refer to the current state of the
/// database \[and\] to the logical transition tables" (§4.1) — `db` is the
/// current state, `virt` supplies the transition tables.
#[derive(Clone, Copy)]
pub struct QueryCtx<'a> {
    /// The current database state.
    pub db: &'a Database,
    /// Transition tables visible in this context.
    pub virt: &'a dyn TransitionTableProvider,
    /// Uncorrelated-subquery memo for the statement being evaluated;
    /// `None` disables hoisting (every subquery re-evaluates).
    pub cache: Option<&'a SubqueryCache>,
    /// Execution-work accumulator; `None` (the default) disables
    /// instrumentation.
    pub stats: Option<&'a StatsCell>,
    /// Per-operator work counters for the physical operator tree
    /// ([`crate::exec`]); `None` (the default) disables them. This is a
    /// side channel: the aggregate [`crate::ExecStats`] counters are
    /// unaffected by whether it is attached.
    pub op_stats: Option<&'a OpStatsCell>,
    /// Which executor to run (compiled pipeline vs reference interpreter).
    pub mode: ExecMode,
    /// Compiled-expression memo shared across statements (the rule engine
    /// attaches one per rule); `None` compiles fresh per statement.
    pub plans: Option<&'a PlanCache>,
    /// Worker-thread budget for the read-only parallel phases (scan +
    /// pushdown filtering, hash-join build/probe, WHERE pass). `1` (the
    /// default) keeps execution fully serial; see
    /// [`crate::parallel`] for the determinism argument.
    pub threads: usize,
}

impl<'a> QueryCtx<'a> {
    /// Context for plain user queries: no transition tables, no cache,
    /// serial, uninstrumented. Statement execution builds its context from
    /// [`crate::ExecOpts::ctx`]; anything else overrides fields of this
    /// one with struct-update syntax.
    pub fn plain(db: &'a Database) -> Self {
        QueryCtx {
            db,
            virt: &crate::provider::NoTransitionTables,
            cache: None,
            stats: None,
            op_stats: None,
            mode: ExecMode::default(),
            plans: None,
            threads: 1,
        }
    }
}
