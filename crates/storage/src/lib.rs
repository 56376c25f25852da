//! # setrules-storage
//!
//! The in-memory relational storage substrate for the `setrules` system — a
//! from-scratch reproduction of the database machinery that Widom &
//! Finkelstein's *Set-Oriented Production Rules in Relational Database
//! Systems* (SIGMOD 1990) assumes:
//!
//! * named tables with fixed, typed columns (§2);
//! * multisets of tuples — duplicates allowed — each carrying a **distinct,
//!   non-reusable tuple handle** (§2);
//! * handle → table provenance that survives deletion, so transition effects
//!   can be filtered per table even for tuples that no longer exist;
//! * a physical undo log supporting the `rollback` rule action (§4);
//! * hash and ordered (BTree) indexes so relational optimization "is
//!   directly applicable to the rules themselves" (§1).
//!
//! The paper abstracts away concurrency and failures ("multiple users,
//! concurrent processing, and failures are all transparent", §2.1); this
//! engine is accordingly volatile and follows a **read-parallel,
//! write-serial** model: all mutation happens on one thread, but the core
//! types ([`Value`], [`Tuple`], [`Table`], [`Database`]) are `Send + Sync`,
//! so the query layer may scan a frozen database from scoped threads
//! between mutations (see `docs/parallel-execution.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod database;
mod error;
mod fault;
mod index;
mod schema;
mod stats;
mod table;
pub mod tuple;
mod undo;
mod value;

pub use database::Database;
pub use error::StorageError;
pub use fault::{FaultInjector, FaultKind, FaultPlan};
pub use index::{ColumnIndex, HashIndex, IndexKind, OrderedIndex, TableIndexes};
pub use schema::{paper_example_schemas, ColumnDef, TableSchema};
pub use stats::StorageStats;
pub use table::Table;
pub use tuple::{ColumnId, ColumnSet, TableId, Tuple, TupleHandle};
pub use undo::{UndoLog, UndoMark, UndoRecord};
pub use value::{DataType, Value};

// The read-parallel model above is load-bearing for the query layer's
// partitioned predicate phases: shared scans hand `&Value` / `&Tuple` / `&Database` across
// threads. Keep the compiler checking that these types stay `Send + Sync`.
const _: () = {
    const fn assert_sync<T: Send + Sync>() {}
    assert_sync::<Value>();
    assert_sync::<Tuple>();
    assert_sync::<Table>();
    assert_sync::<Database>();
};
