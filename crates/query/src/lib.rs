//! # setrules-query
//!
//! Query and DML execution for the `setrules` system: set-oriented
//! evaluation of the paper's SQL dialect against the in-memory storage
//! engine, with the **affected-set** capture (§2.1) the rule system is
//! built on.
//!
//! Key pieces:
//!
//! * [`execute_op`] — run one `insert`/`delete`/`update`/`select` and
//!   return its [`OpEffect`] (affected handles + old values);
//! * [`execute_query`] — run a read-only `select` to a [`Relation`];
//! * [`TransitionTableProvider`] — how the rule engine injects
//!   `inserted t` / `deleted t` / `old|new updated t[.c]` / `selected t`
//!   tables into evaluation (§3, §4);
//! * a small planner ([`planner`]) exploiting hash indexes for equality,
//!   `in`-list, and range predicates, applying the same optimization to
//!   rule bodies as to user queries (§1);
//! * a compile-once pipeline ([`compile`]) lowering expressions to
//!   slot-addressed [`compile::CompiledExpr`] form: each `select` is
//!   planned once per execution into one plan value that the operator
//!   tree runs and [`explain_select`] prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bindings;
pub mod compile;
mod ctx;
mod dml;
mod error;
mod eval;
mod exec;
mod explain;
pub mod incremental;
pub mod like;
mod plan;
pub mod planner;
mod provider;
pub mod refs;
mod relation;
mod select;
mod stats;

pub use compile::{
    compile, eval_compiled, eval_compiled_predicate, CompiledExpr, Layout, LayoutFrame,
};
pub use ctx::{QueryCtx, SubqueryCache};
pub use dml::{execute_op, execute_query, ExecOpts, OpEffect};
pub use error::QueryError;
pub use eval::truth;
pub use explain::{explain_condition, explain_select};
pub use provider::{describe, NoTransitionTables, TransitionTableProvider};
pub use relation::Relation;
pub use select::{has_aggregate, run_select};
pub use stats::{ExecStats, OpCounters, OpStatsCell, StatsCell};
