//! Direct storage probe: the storage layer cannot be separated from the
//! engine's spans from outside, so its per-row costs are timed on a
//! private `Database` at the workload's row volume, through the same
//! tuple and undo methods the engine calls.

use std::hint::black_box;
use std::time::Instant;

use setrules_storage::{ColumnDef, ColumnId, DataType, Database, TableSchema, Tuple, Value};

/// Per-row storage costs at one row volume.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageProbe {
    /// Rows loaded: the workload's row volume.
    pub rows: usize,
    /// Mean of insert, update and delete (with one hash index and undo
    /// logging), ns per row.
    pub apply_ns_per_row: f64,
    /// `rollback_to` over an equal mix of undone inserts, updates and
    /// deletes, ns per row.
    pub rollback_ns_per_row: f64,
}

fn row(k: i64) -> Tuple {
    Tuple::new(vec![
        Value::Int(k),
        Value::Int(k % 97),
        Value::Float(k as f64),
    ])
}

/// Time the probe at `rows` rows (at least 1 000, so timer resolution
/// does not matter).
pub fn run(rows: usize) -> StorageProbe {
    let rows = rows.max(1_000);
    let mut db = Database::new();
    let schema = TableSchema::new(
        "probe",
        vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("g", DataType::Int),
            ColumnDef::new("x", DataType::Float),
        ],
    );
    let t = db
        .create_table(schema)
        .expect("fresh database has no table named probe");
    db.create_index(t, ColumnId(0)).expect("column 0 exists");

    let start = Instant::now();
    let handles: Vec<_> = (0..rows as i64)
        .map(|k| db.insert(t, row(k)).expect("row matches the schema"))
        .collect();
    let insert_ns = start.elapsed().as_nanos() as f64;
    db.commit();

    let start = Instant::now();
    for (k, h) in handles.iter().enumerate() {
        black_box(
            db.update(t, *h, &[(ColumnId(1), Value::Int(k as i64))])
                .expect("live handle"),
        );
    }
    let update_ns = start.elapsed().as_nanos() as f64;
    db.commit();

    // Roll back a third each of inserts, updates and deletes.
    let third = rows / 3;
    let mark = db.mark();
    for k in 0..third {
        db.insert(t, row((rows + k) as i64))
            .expect("row matches the schema");
        db.update(t, handles[k], &[(ColumnId(1), Value::Int(-1))])
            .expect("live handle");
        db.delete(t, handles[third + k]).expect("live handle");
    }
    let start = Instant::now();
    db.rollback_to(mark).expect("mark taken above");
    let rollback_ns = start.elapsed().as_nanos() as f64;

    let start = Instant::now();
    for h in &handles {
        black_box(db.delete(t, *h).expect("live handle"));
    }
    let delete_ns = start.elapsed().as_nanos() as f64;
    db.commit();

    StorageProbe {
        rows,
        apply_ns_per_row: (insert_ns + update_ns + delete_ns) / (3 * rows) as f64,
        rollback_ns_per_row: rollback_ns / (3 * third) as f64,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn probe_measures_something() {
        let p = super::run(1_000);
        assert_eq!(p.rows, 1_000);
        assert!(p.apply_ns_per_row > 0.0 && p.rollback_ns_per_row > 0.0);
    }
}
