//! Table schemas: named, typed columns (paper §2).

use crate::error::StorageError;
use crate::tuple::{ColumnId, Tuple};
use crate::value::{DataType, Value};

/// A column definition: a name and a type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (case-sensitive, lower-cased by the SQL layer).
    pub name: String,
    /// Declared type.
    pub ty: DataType,
}

impl ColumnDef {
    /// Construct a column definition.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        ColumnDef { name: name.into(), ty }
    }
}

/// A table schema: an ordered list of named, typed columns.
///
/// The paper assumes a fixed schema (§2 fn. 1); schemas are immutable once
/// the table is created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnDef>,
}

impl TableSchema {
    /// Construct a schema.
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>) -> Self {
        TableSchema { name: name.into(), columns }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Resolve a column name to its position.
    pub fn column_id(&self, name: &str) -> Result<ColumnId, StorageError> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .map(|i| ColumnId(i as u16))
            .ok_or_else(|| StorageError::NoSuchColumn {
                table: self.name.clone(),
                column: name.to_string(),
            })
    }

    /// The name of column `c`.
    pub fn column_name(&self, c: ColumnId) -> &str {
        &self.columns[c.index()].name
    }

    /// The declared type of column `c`.
    pub fn column_type(&self, c: ColumnId) -> DataType {
        self.columns[c.index()].ty
    }

    /// Validate a tuple against this schema, coercing fields where a
    /// lossless coercion exists (`Int` → `Float`, `NULL` → anything). The
    /// tuple is checked and widened in place, never copied.
    pub fn check_tuple(&self, mut tuple: Tuple) -> Result<Tuple, StorageError> {
        if tuple.arity() != self.arity() {
            return Err(StorageError::ArityMismatch {
                table: self.name.clone(),
                expected: self.arity(),
                got: tuple.arity(),
            });
        }
        for (i, v) in tuple.0.iter_mut().enumerate() {
            self.accepts(ColumnId(i as u16), v)?;
            if let (Value::Int(n), DataType::Float) = (&*v, self.columns[i].ty) {
                *v = Value::Float(*n as f64);
            }
        }
        Ok(tuple)
    }

    /// Check that `v` can be stored in column `c`: it is `NULL`, has the
    /// column's type, or widens to it losslessly (`Int` → `Float`; see
    /// [`Value::coerce_to`]). The coerced value is not built.
    pub fn accepts(&self, c: ColumnId, v: &Value) -> Result<(), StorageError> {
        let col = &self.columns[c.index()];
        if v.coerces_to(col.ty) {
            return Ok(());
        }
        Err(StorageError::TypeMismatch {
            table: self.name.clone(),
            column: col.name.clone(),
            expected: col.ty,
            got: v.data_type(),
        })
    }
}

/// Convenience constructor for the paper's running example schema
/// (`emp(name, emp_no, salary, dept_no)` and `dept(dept_no, mgr_no)`, §3.1).
pub fn paper_example_schemas() -> (TableSchema, TableSchema) {
    (
        TableSchema::new(
            "emp",
            vec![
                ColumnDef::new("name", DataType::Text),
                ColumnDef::new("emp_no", DataType::Int),
                ColumnDef::new("salary", DataType::Float),
                ColumnDef::new("dept_no", DataType::Int),
            ],
        ),
        TableSchema::new(
            "dept",
            vec![
                ColumnDef::new("dept_no", DataType::Int),
                ColumnDef::new("mgr_no", DataType::Int),
            ],
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn emp() -> TableSchema {
        paper_example_schemas().0
    }

    #[test]
    fn column_lookup() {
        let s = emp();
        assert_eq!(s.column_id("salary").unwrap(), ColumnId(2));
        assert!(s.column_id("bogus").is_err());
        assert_eq!(s.column_name(ColumnId(3)), "dept_no");
        assert_eq!(s.column_type(ColumnId(2)), DataType::Float);
    }

    #[test]
    fn check_tuple_coerces_int_to_float() {
        let s = emp();
        let t = s.check_tuple(tuple!["Jane", 1, 95000, 2]).unwrap();
        assert_eq!(t.get(ColumnId(2)), &Value::Float(95000.0));
    }

    #[test]
    fn check_tuple_rejects_wrong_arity() {
        let s = emp();
        assert!(matches!(
            s.check_tuple(tuple!["Jane", 1]),
            Err(StorageError::ArityMismatch { expected: 4, got: 2, .. })
        ));
    }

    #[test]
    fn check_tuple_rejects_wrong_type() {
        let s = emp();
        assert!(matches!(
            s.check_tuple(tuple!["Jane", "oops", 1.0, 2]),
            Err(StorageError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn nulls_allowed_everywhere() {
        let s = emp();
        let t = s.check_tuple(Tuple(vec![Value::Null, Value::Null, Value::Null, Value::Null]));
        assert!(t.is_ok());
    }
}
