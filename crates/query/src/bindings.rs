//! The scopes compiled expressions evaluate in.
//!
//! A [`Bindings`] is a stack of *levels*, one per nested query; each level
//! holds one [`Frame`] per `from` item of that query. Names are resolved
//! once, at compile time, against the stack's shape
//! ([`Layout`](crate::compile::Layout)): unqualified column names resolve
//! innermost-level-first; within a level, resolving against more than one
//! frame is ambiguous. Qualified names (`tvar.col`) match the frame bound
//! to `tvar`, again innermost-first — this is what makes the paper's
//! correlated conditions (`e2.dept_no = e1.dept_no`, Example 3.3) work.
//! Evaluation then reads values by slot.

use std::sync::Arc;

use setrules_storage::Value;

use crate::error::QueryError;

/// One `from`-item binding: a variable name, its column names, and the
/// current row's values.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The table variable (alias, or the base table name).
    pub name: String,
    /// Column names, shared across all rows of the scan.
    pub columns: Arc<Vec<String>>,
    /// The current row.
    pub row: Vec<Value>,
}

/// One scope level: the frames of a single query's `from` clause.
pub type Level = Vec<Frame>;

/// A stack of scope levels, innermost last.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    levels: Vec<Level>,
}

impl Bindings {
    /// An empty scope (constant expressions only).
    pub fn new() -> Self {
        Bindings::default()
    }

    /// Enter a query: push its frames.
    pub fn push_level(&mut self, level: Level) {
        self.levels.push(level);
    }

    /// Leave a query.
    pub fn pop_level(&mut self) -> Option<Level> {
        self.levels.pop()
    }

    /// Current nesting depth.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The scope levels, innermost last (used to snapshot a compile-time
    /// [`Layout`](crate::compile::Layout)).
    pub(crate) fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// Fetch a value by compiled slot coordinates: `level_up` scopes above
    /// the innermost level, frame `frame` within it, column `col`. The
    /// bounds check only fails when a compiled expression is evaluated
    /// against a scope of a different shape than its compilation
    /// [`Layout`](crate::compile::Layout) — an executor bug, reported as an
    /// error rather than a panic.
    pub fn slot(&self, level_up: usize, frame: usize, col: usize) -> Result<Value, QueryError> {
        let depth = self.levels.len();
        depth
            .checked_sub(1 + level_up)
            .and_then(|li| self.levels.get(li))
            .and_then(|level| level.get(frame))
            .and_then(|f| f.row.get(col))
            .cloned()
            .ok_or_else(|| {
                QueryError::Type(format!(
                    "internal: compiled slot ({level_up}, {frame}, {col}) \
                     out of range for scope depth {depth}"
                ))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, eval_compiled};
    use crate::ctx::QueryCtx;
    use setrules_sql::ast::Expr;
    use setrules_storage::Database;

    /// The value `qualifier.name` resolves to in `b`: compiled against the
    /// stack's layout, then read by slot.
    fn resolve(b: &mut Bindings, qualifier: Option<&str>, name: &str) -> Result<Value, QueryError> {
        let column =
            Expr::Column { qualifier: qualifier.map(str::to_string), name: name.to_string() };
        let db = Database::new();
        eval_compiled(QueryCtx::plain(&db), b, &compile(&column, &b.layout()))
    }

    fn frame(name: &str, cols: &[&str], vals: &[i64]) -> Frame {
        Frame {
            name: name.into(),
            columns: Arc::new(cols.iter().map(|s| s.to_string()).collect()),
            row: vals.iter().map(|v| Value::Int(*v)).collect(),
        }
    }

    #[test]
    fn unqualified_resolution() {
        let mut b = Bindings::new();
        b.push_level(vec![frame("emp", &["name_len", "salary"], &[4, 100])]);
        assert_eq!(resolve(&mut b, None, "salary").unwrap(), Value::Int(100));
        assert!(matches!(resolve(&mut b, None, "bogus"), Err(QueryError::UnknownColumn(_))));
    }

    #[test]
    fn ambiguity_within_level() {
        let mut b = Bindings::new();
        b.push_level(vec![
            frame("e1", &["dept_no"], &[1]),
            frame("e2", &["dept_no"], &[2]),
        ]);
        assert!(matches!(resolve(&mut b, None, "dept_no"), Err(QueryError::AmbiguousColumn(_))));
        assert_eq!(resolve(&mut b, Some("e1"), "dept_no").unwrap(), Value::Int(1));
        assert_eq!(resolve(&mut b, Some("e2"), "dept_no").unwrap(), Value::Int(2));
    }

    #[test]
    fn inner_level_shadows_outer() {
        let mut b = Bindings::new();
        b.push_level(vec![frame("emp", &["salary"], &[100])]);
        b.push_level(vec![frame("emp", &["salary"], &[200])]);
        assert_eq!(resolve(&mut b, None, "salary").unwrap(), Value::Int(200));
        assert_eq!(resolve(&mut b, Some("emp"), "salary").unwrap(), Value::Int(200));
        b.pop_level();
        assert_eq!(resolve(&mut b, None, "salary").unwrap(), Value::Int(100));
    }

    #[test]
    fn correlated_outer_reference() {
        let mut b = Bindings::new();
        b.push_level(vec![frame("e1", &["dept_no"], &[7])]);
        b.push_level(vec![frame("e2", &["dept_no"], &[8])]);
        // Example 3.3's `e2.dept_no = e1.dept_no`: e1 from outer, e2 inner.
        assert_eq!(resolve(&mut b, Some("e1"), "dept_no").unwrap(), Value::Int(7));
        assert_eq!(resolve(&mut b, Some("e2"), "dept_no").unwrap(), Value::Int(8));
    }

    #[test]
    fn qualified_match_with_missing_column_does_not_leak_outward() {
        let mut b = Bindings::new();
        b.push_level(vec![frame("e", &["salary"], &[1])]);
        b.push_level(vec![frame("e", &["dept_no"], &[2])]);
        // Inner `e` exists but has no `salary`; resolution stops there.
        assert!(matches!(resolve(&mut b, Some("e"), "salary"), Err(QueryError::UnknownColumn(_))));
    }
}
