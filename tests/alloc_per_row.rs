//! Allocation budgets of the read and the write path.
//!
//! Reads: rows flow through scan, join, filter and aggregation by
//! reference, so a statement's heap allocations must not grow with the
//! rows it reads. A 1-thread engine — every phase on the calling thread —
//! runs each query over a 20 000-row table, a `delete` runs through the
//! serial statement executor, and each statement may allocate fewer than
//! 0.1 times per input row. A pipeline that clones rows, builds a scope
//! level per row, or collects aggregate arguments allocates several times
//! per row and fails here.
//!
//! Writes: a changed tuple's old image is built once by the storage layer
//! and shared by its undo log, the statement's effect and every rule
//! window, and an `update`'s columns travel once per statement. Through
//! `RuleSystem::transaction`, with rules watching, an updated tuple may
//! cost fewer than 5 allocations and a deleted one fewer than 2; a copy
//! of the image per window or a column list per tuple fails here. A
//! traced `select` (§5.1) may cost under 0.5 per matched row. An
//! inserted tuple is checked and widened where it stands: under 0.5
//! allocations per row through `Database::insert`, under 2 through a
//! parsed `insert … values` transaction.
//!
//! A counting global allocator tallies allocations (and reallocations)
//! made on the current thread.
//!
//! Run it alone with `cargo test --test alloc_per_row`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use setrules_core::{EngineConfig, RuleSystem};
use setrules_query::{execute_op, ExecOpts, NoTransitionTables};
use setrules_sql::ast::Statement;
use setrules_sql::parse_statement;
use setrules_storage::{ColumnDef, DataType, Database, TableSchema, Tuple, Value};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may be gone while the thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a const-initialized thread-local `Cell`, which needs no
// allocation or destructor to access.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const ROWS: u64 = 20_000;
/// The bar: allocations per input row.
const PER_ROW: f64 = 0.1;

/// A 1-thread engine with `t` (`ROWS` rows in 200 groups) and `d` (one
/// row per group, 20 regions).
fn engine() -> RuleSystem {
    let mut sys =
        RuleSystem::with_config(EngineConfig { parallelism: Some(1), ..Default::default() });
    sys.execute("create table t (k int, g int, v int)").unwrap();
    sys.execute("create table d (g int, r int)").unwrap();
    for chunk in (0..ROWS).collect::<Vec<_>>().chunks(5_000) {
        let rows: Vec<String> =
            chunk.iter().map(|k| format!("({k}, {}, {})", k % 200, (k * 7919) % 1000)).collect();
        sys.transaction(&format!("insert into t values {}", rows.join(", "))).unwrap();
    }
    let dims: Vec<String> = (0..200).map(|g| format!("({g}, {})", g % 20)).collect();
    sys.transaction(&format!("insert into d values {}", dims.join(", "))).unwrap();
    sys
}

fn assert_under_budget(what: &str, allocs: u64, rows: u64) {
    let per_row = allocs as f64 / rows as f64;
    assert!(
        per_row < PER_ROW,
        "{what}: {allocs} allocations over {rows} input rows ({per_row:.3} per row, bar {PER_ROW})"
    );
}

#[test]
fn reads_allocate_less_than_a_tenth_per_input_row() {
    let sys = engine();
    let queries = [
        ("count(*) … where", "select count(*) from t where v > 250", ROWS),
        (
            "group by with having",
            "select g, count(*), sum(v), min(v), max(v) from t \
             group by g having count(*) > 10 and max(v) > 0",
            ROWS,
        ),
        (
            "hash join with group by",
            "select d.r, count(*), sum(t.v) from t, d where t.g = d.g and t.v > 100 group by d.r",
            ROWS + 200,
        ),
    ];
    for (what, sql, rows) in queries {
        // Warm up once (lazy statics, first-use buffers), then measure.
        let expected = sys.query(sql).unwrap();
        let (out, allocs) = allocations(|| sys.query(sql).unwrap());
        assert_eq!(out, expected, "{what}");
        assert!(!out.rows.is_empty(), "{what}: the statement must produce rows");
        assert_under_budget(what, allocs, rows);
    }
}

/// A delete identifies its targets through the same read pipeline, run
/// here through the statement executor the engine calls per statement,
/// serially, with `t`'s rows in a bare database. The storage layer wraps
/// each deleted tuple's image once in the `Arc` its undo log and the
/// statement's effect share (one allocation per deleted row: the values
/// move, they are not copied); that allocation belongs to the apply
/// phase, so it is budgeted on its own and the rest of the statement
/// must stay under the read bar.
#[test]
fn delete_identification_allocates_less_than_a_tenth_per_input_row() {
    let mut db = Database::new();
    let cols = ["k", "g", "v"].map(|c| ColumnDef::new(c, DataType::Int));
    let t = db.create_table(TableSchema::new("t".to_string(), cols.to_vec())).unwrap();
    for k in 0..ROWS as i64 {
        db.insert(t, Tuple(vec![Value::Int(k), Value::Int(k % 200), Value::Int(k % 1000)]))
            .unwrap();
    }
    db.commit();
    let Statement::Dml(op) = parse_statement("delete from t where k % 2 = 0").unwrap() else {
        panic!("a delete is DML")
    };
    let (effect, allocs) = allocations(|| {
        execute_op(&mut db, &NoTransitionTables, &op, &ExecOpts::default()).unwrap()
    });
    let deleted = ROWS / 2;
    assert_eq!(effect.cardinality() as u64, deleted);
    assert_eq!(db.table(t).len() as u64, ROWS - deleted);
    let undo_images = deleted;
    assert!(allocs >= undo_images, "{allocs} allocations cannot cover {undo_images} undo images");
    assert_under_budget("delete … where", allocs - undo_images, ROWS);
}

/// Allocations per touched tuple of one transaction running `sql` on
/// [`engine`] after `setup` (rules and tables), checked against `bar`:
/// `touched` is the number of tuples the statement changes (for a
/// `select`, the rows it matches). The transaction must commit.
fn assert_transaction_under(what: &str, setup: &[&str], sql: &str, touched: u64, bar: f64) {
    let mut sys = engine();
    for stmt in setup {
        sys.execute(stmt).unwrap();
    }
    let (outcome, allocs) = allocations(|| sys.transaction(sql).unwrap());
    assert!(outcome.committed(), "{what}: the transaction commits");
    let per_tuple = allocs as f64 / touched as f64;
    assert!(
        per_tuple < bar,
        "{what}: {allocs} allocations over {touched} tuples ({per_tuple:.3} per tuple, bar {bar})"
    );
}

#[test]
fn an_update_with_a_watching_rule_allocates_less_than_five_per_tuple() {
    // The old image is copied out of the table once and wrapped once;
    // the undo log, the statement's effect, the pending block and the
    // rule's window share it, and the statement's one column set.
    assert_transaction_under(
        "update with a triggered rule",
        &[
            "create table s (k int)",
            "create rule r1 when updated t then delete from s where k < 0",
        ],
        "update t set v = v + 1",
        ROWS,
        5.0,
    );
}

#[test]
fn a_delete_with_two_watching_rules_allocates_less_than_two_per_tuple() {
    // The deleted tuple moves out of the table into one `Arc`, shared by
    // the undo log, the effect, the pending block and both windows.
    assert_transaction_under(
        "delete with two triggered rules",
        &[
            "create table s (k int)",
            "create rule r1 when deleted from t then delete from s where k < 0",
            "create rule r2 when deleted from t then delete from s where k < 1",
        ],
        "delete from t where k % 2 = 0",
        ROWS / 2,
        2.0,
    );
}

#[test]
fn a_traced_select_allocates_less_than_half_per_matched_row() {
    // §5.1: the statement traces every tuple it reads; the trace is
    // deduplicated by a sort and each tuple shares its `from` item's
    // column set.
    assert_transaction_under(
        "select traced through a transaction",
        &[],
        "select count(*) from t where k % 2 = 0",
        ROWS / 2,
        0.5,
    );
}

/// Rows the insert budgets below load.
const INSERTED: u64 = 5_000;

/// `INSERTED` three-`int` rows.
fn int_rows() -> Vec<Tuple> {
    (0..INSERTED as i64)
        .map(|k| Tuple(vec![Value::Int(k), Value::Int(k % 200), Value::Int(k % 1000)]))
        .collect()
}

#[test]
fn storage_insert_allocates_less_than_half_per_row() {
    // The storage layer checks and coerces each tuple where it stands and
    // moves it into the table: no per-row copy of the values.
    let mut db = Database::new();
    let cols = ["k", "g", "v"].map(|c| ColumnDef::new(c, DataType::Int));
    let t = db.create_table(TableSchema::new("t".to_string(), cols.to_vec())).unwrap();
    let rows = int_rows();
    let ((), allocs) = allocations(|| {
        for row in rows {
            db.insert(t, row).unwrap();
        }
    });
    assert_eq!(db.table(t).len() as u64, INSERTED);
    let per_row = allocs as f64 / INSERTED as f64;
    assert!(
        per_row < 0.5,
        "Database::insert: {allocs} allocations over {INSERTED} rows ({per_row:.3} per row, bar 0.5)"
    );
}

#[test]
fn a_parsed_insert_values_allocates_less_than_two_per_row() {
    // Parsing is done up front; the transaction evaluates each `values`
    // row once and hands the tuple to storage, which widens the `int`
    // literals to the `float` column in place.
    let mut sys =
        RuleSystem::with_config(EngineConfig { parallelism: Some(1), ..Default::default() });
    sys.execute("create table t (k int, g int, v float)").unwrap();
    let values: Vec<String> =
        (0..INSERTED).map(|k| format!("({k}, {}, {})", k % 200, k % 1000)).collect();
    let ops = setrules_sql::parse_op_block(&format!("insert into t values {}", values.join(", ")))
        .unwrap();
    let (outcome, allocs) = allocations(|| sys.transaction_ops(&ops).unwrap());
    assert!(outcome.committed());
    let per_row = allocs as f64 / INSERTED as f64;
    assert!(
        per_row < 2.0,
        "insert … values: {allocs} allocations over {INSERTED} rows ({per_row:.3} per row, bar 2.0)"
    );
}
