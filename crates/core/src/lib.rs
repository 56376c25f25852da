//! # setrules-core
//!
//! Set-oriented production rules for a relational database — a full
//! reproduction of **Widom & Finkelstein, "Set-Oriented Production Rules in
//! Relational Database Systems" (SIGMOD 1990)**, the design that became the
//! Starburst rule system and shaped SQL's statement-level triggers with
//! transition tables.
//!
//! The crate provides:
//!
//! * [`TransitionEffect`] — the `[I, D, U]` effect triples and the
//!   Definition 2.1 composition operator (plus the §5.1 `S` extension);
//! * [`TransInfo`] — per-rule composite transition information with old
//!   values (Fig. 1's `trans-info`, `init-trans-info`,
//!   `modify-trans-info`);
//! * [`RuleWindowProvider`] — transition tables (`inserted t`, `deleted t`,
//!   `old/new updated t[.c]`, `selected t[.c]`) materialized into query
//!   evaluation, enforcing §3's reference restriction;
//! * [`RuleSystem`] — the execution engine: the Figure 1 algorithm with §4
//!   semantics (self-triggering, composite retriggering windows, rollback
//!   actions, consideration rounds), §4.4 selection strategies with
//!   priorities, the footnote-7 divergence guard, and the §5 extensions
//!   (select-triggered rules, external actions, `process rules` triggering
//!   points, deferred processing).
//!
//! ```
//! use setrules_core::RuleSystem;
//!
//! let mut sys = RuleSystem::new();
//! sys.execute("create table emp (name text, emp_no int, salary float, dept_no int)").unwrap();
//! sys.execute(
//!     "create rule cap when updated emp.salary \
//!      if exists (select * from new updated emp.salary where salary > 1000000.0) \
//!      then rollback",
//! ).unwrap();
//! sys.execute("insert into emp values ('Jane', 1, 95000.0, 1)").unwrap();
//! let out = sys.transaction("update emp set salary = 2000000.0").unwrap();
//! assert!(!out.committed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod effect;
mod durability;
mod engine;
mod error;
pub mod events;
pub mod external;
mod incremental;
pub mod priority;
pub mod rule;
pub mod selection;
pub mod snapshot;
pub mod stats;
pub mod transinfo;
pub mod transition_tables;
mod windows;

pub use effect::TransitionEffect;
pub use engine::{
    EngineConfig, ExecOutcome, FiredRule, ProcessReport, RuleSystem, TxnOutcome,
};
pub use windows::RetriggerSemantics;
pub use error::RuleError;
pub use events::{EngineEvent, EventSink, JsonLinesSink, RingBufferSink};
// Re-exported so [`EngineConfig::fault`]'s type and the injector it arms
// are nameable from this crate's API without depending on the storage
// crate directly.
pub use setrules_storage::{FaultInjector, FaultKind, FaultPlan};
// And for [`EngineConfig::durability`]: the log configuration plus the
// pieces a crash-recovery harness needs (the shared test sink, its op
// trace, and the record/error types).
pub use setrules_wal::{
    SharedMemSink, SinkOp, SinkSpec, SyncPolicy, WalConfig, WalError, WalRecord,
};
pub use external::{ActionCtx, ExternalAction};
pub use priority::PriorityGraph;
pub use rule::{ActionEvent, CompiledAction, CompiledPred, EventOp, Footprint, Rule, RuleId};
pub use selection::SelectionStrategy;
pub use snapshot::{Snapshot, TableSnapshot};
pub use stats::{EngineStats, RuleTiming, TxnStats};
pub use transinfo::{DelEntry, SelEntry, TransInfo, UpdEntry};
pub use transition_tables::{RuleWindowProvider, RuleWindowRef};
