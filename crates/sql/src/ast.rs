//! Abstract syntax for the SQL dialect, including the production-rule DDL
//! of the paper (§3) and its §5 extensions.

use std::sync::Arc;

use setrules_storage::{DataType, IndexKind, Value};

/// A top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `create table t (c1 ty1, ...)`
    CreateTable(CreateTable),
    /// `drop table t`
    DropTable(String),
    /// `create index on t (c) [using hash | using ordered]`
    CreateIndex {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
        /// Physical structure (`using ...`); hash when omitted.
        kind: IndexKind,
    },
    /// `drop index on t (c)`
    DropIndex {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// `create rule name when ... [if ...] then ...` (paper §3)
    CreateRule(CreateRule),
    /// `drop rule name`
    DropRule(String),
    /// `activate rule name` — re-enable a deactivated rule.
    ActivateRule(String),
    /// `deactivate rule name` — the rule stays defined but never triggers.
    DeactivateRule(String),
    /// `create rule priority r1 before r2` (paper §4.4): `r1` has higher
    /// priority than `r2`.
    CreatePriority {
        /// The higher-priority rule.
        higher: String,
        /// The lower-priority rule.
        lower: String,
    },
    /// `process rules` — a user-defined rule triggering point (paper §5.3).
    ProcessRules,
    /// A data manipulation (or retrieval) operation.
    Dml(DmlOp),
}

/// `create table` payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateTable {
    /// Table name.
    pub name: String,
    /// Column names and types in declaration order.
    pub columns: Vec<(String, DataType)>,
}

/// A production rule definition (paper §3):
///
/// ```text
/// create rule name
///   when trans-pred
///   [ if condition ]
///   then action
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CreateRule {
    /// Rule name (unique among defined rules).
    pub name: String,
    /// Disjunction of basic transition predicates.
    pub when: Vec<BasicTransPred>,
    /// Optional condition; omitted means `if true`.
    pub condition: Option<Expr>,
    /// The action: an operation block or `rollback`.
    pub action: RuleAction,
}

/// A basic transition predicate (paper §3, extended with `selected` §5.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BasicTransPred {
    /// `inserted into t`
    InsertedInto(String),
    /// `deleted from t`
    DeletedFrom(String),
    /// `updated t` or `updated t.c`
    Updated {
        /// Table name.
        table: String,
        /// Specific column, or `None` for any column.
        column: Option<String>,
    },
    /// `selected t` or `selected t.c` (extension, §5.1)
    Selected {
        /// Table name.
        table: String,
        /// Specific column, or `None` for any column.
        column: Option<String>,
    },
}

impl BasicTransPred {
    /// The table this predicate watches.
    pub fn table(&self) -> &str {
        match self {
            BasicTransPred::InsertedInto(t) | BasicTransPred::DeletedFrom(t) => t,
            BasicTransPred::Updated { table, .. } | BasicTransPred::Selected { table, .. } => table,
        }
    }
}

/// A rule action (paper §3): an operation block, or transaction rollback.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleAction {
    /// A non-empty sequence of SQL operations, executed as one operation
    /// block (one transition).
    Block(Vec<DmlOp>),
    /// Roll the current transaction back to its start state.
    Rollback,
}

/// One SQL operation inside an operation block. `select` is included per
/// the §5.1 extension (data retrieval in rules' actions and select-triggered
/// rules); plain DML matches the §2.1 grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum DmlOp {
    /// `insert into t values (...) | insert into t (select ...)`
    Insert(InsertStmt),
    /// `delete from t [where p]`
    Delete(DeleteStmt),
    /// `update t set c = e, ... [where p]`
    Update(UpdateStmt),
    /// `select ...`
    Select(SelectStmt),
}

/// `insert` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStmt {
    /// Target table.
    pub table: String,
    /// Row source.
    pub source: InsertSource,
}

/// The source of inserted rows.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// `values (e, ...), (e, ...), ...` — one or more literal rows.
    Values(Vec<Vec<Expr>>),
    /// `( select ... )` — the §2.1 "insert with select operation".
    Select(Box<SelectStmt>),
}

/// `delete` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStmt {
    /// Target table.
    pub table: String,
    /// Optional predicate; omitted means `where true` (§2.1).
    pub predicate: Option<Expr>,
}

/// `update` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStmt {
    /// Target table.
    pub table: String,
    /// `set` assignments in order.
    pub sets: Vec<(String, Expr)>,
    /// Optional predicate; omitted means `where true` (§2.1).
    pub predicate: Option<Expr>,
}

/// `select` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// `select distinct`?
    pub distinct: bool,
    /// Projection list.
    pub projection: Vec<SelectItem>,
    /// `from` items (comma joins).
    pub from: Vec<TableRef>,
    /// `where` predicate.
    pub predicate: Option<Expr>,
    /// `group by` keys.
    pub group_by: Vec<Expr>,
    /// `having` predicate.
    pub having: Option<Expr>,
    /// `order by` items (expression, ascending?).
    pub order_by: Vec<(Expr, bool)>,
    /// `limit` row count.
    pub limit: Option<u64>,
}

impl SelectStmt {
    /// A minimal `select <projection> from <from>` with everything else
    /// defaulted — handy for building queries programmatically.
    pub fn simple(projection: Vec<SelectItem>, from: Vec<TableRef>, predicate: Option<Expr>) -> Self {
        SelectStmt {
            distinct: false,
            projection,
            from,
            predicate,
            group_by: vec![],
            having: None,
            order_by: vec![],
            limit: None,
        }
    }
}

/// One item of a `select` projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// An expression with an optional output alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// `as alias`.
        alias: Option<String>,
    },
}

/// A `from`-clause item: a table source plus an optional variable name
/// ("table variable `tvar`", paper §3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// What is being scanned.
    pub source: TableSource,
    /// The table variable bound to it.
    pub alias: Option<String>,
}

impl TableRef {
    /// A plain named-table reference without alias.
    pub fn named(name: impl Into<String>) -> Self {
        TableRef { source: TableSource::Named(name.into()), alias: None }
    }

    /// The name by which columns of this item are qualified: the alias if
    /// present, else the base table name.
    pub fn binding_name(&self) -> &str {
        if let Some(a) = &self.alias {
            return a;
        }
        match &self.source {
            TableSource::Named(n) => n,
            TableSource::Transition { table, .. } => table,
        }
    }
}

/// The source scanned by a `from` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableSource {
    /// An ordinary stored table.
    Named(String),
    /// A transition table (paper §3): `inserted t`, `deleted t`,
    /// `old updated t[.c]`, `new updated t[.c]`, `selected t[.c]`.
    Transition {
        /// Which transition table.
        kind: TransitionKind,
        /// The underlying stored table.
        table: String,
        /// Restrict to tuples whose *column `c`* was updated/selected.
        column: Option<String>,
    },
}

/// The five kinds of transition table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TransitionKind {
    /// Tuples inserted by the triggering transition (current values).
    Inserted,
    /// Tuples deleted by the triggering transition (pre-transition values).
    Deleted,
    /// Updated tuples, pre-transition values.
    OldUpdated,
    /// Updated tuples, current values.
    NewUpdated,
    /// Selected tuples (extension §5.1, current values).
    Selected,
}

/// Scalar and predicate expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A column reference, optionally qualified by a table variable.
    Column {
        /// Table variable / table name qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Unary operator application.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// Binary operator application.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `e is [not] null`
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// `is not null`?
        negated: bool,
    },
    /// `e [not] in (e1, e2, ...)`
    InList {
        /// The tested expression.
        expr: Box<Expr>,
        /// The candidate list.
        list: Vec<Expr>,
        /// `not in`?
        negated: bool,
    },
    /// `e [not] in (select ...)`. Subqueries are shared (`Arc`), so a
    /// compiled plan holding the node and the statement it was lowered
    /// from agree on its address — the key of the executor's
    /// per-statement subquery memo.
    InSubquery {
        /// The tested expression.
        expr: Box<Expr>,
        /// The subquery (must produce one column).
        subquery: Arc<SelectStmt>,
        /// `not in`?
        negated: bool,
    },
    /// `[not] exists (select ...)`
    Exists {
        /// The subquery.
        subquery: Arc<SelectStmt>,
        /// `not exists`?
        negated: bool,
    },
    /// `(select ...)` used as a scalar (must produce at most one row and
    /// exactly one column; zero rows yield `NULL`).
    ScalarSubquery(Arc<SelectStmt>),
    /// `e [not] between lo and hi`
    Between {
        /// The tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// `not between`?
        negated: bool,
    },
    /// `e [not] like pattern [escape c]` — `%` and `_` wildcards; the
    /// escape character makes the following wildcard (or itself) literal.
    Like {
        /// The tested expression.
        expr: Box<Expr>,
        /// The pattern expression.
        pattern: Box<Expr>,
        /// The `escape` expression, if given (must evaluate to a
        /// single-character string).
        escape: Option<Box<Expr>>,
        /// `not like`?
        negated: bool,
    },
    /// An aggregate call: `count(*)`, `sum(e)`, `avg(e)`, `min(e)`, `max(e)`,
    /// optionally `distinct`.
    Aggregate {
        /// Which aggregate.
        func: AggFunc,
        /// Argument; `None` only for `count(*)`.
        arg: Option<Box<Expr>>,
        /// `count(distinct e)` etc.
        distinct: bool,
    },
}

impl Expr {
    /// Shorthand for an unqualified column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column { qualifier: None, name: name.into() }
    }

    /// Shorthand for a qualified column reference.
    pub fn qcol(qualifier: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column { qualifier: Some(qualifier.into()), name: name.into() }
    }

    /// Shorthand for a literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Shorthand for a binary expression.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary { left: Box::new(left), op, right: Box::new(right) }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical negation (three-valued).
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `and` (three-valued)
    And,
    /// `or` (three-valued)
    Or,
}

impl BinaryOp {
    /// Whether this is a comparison operator.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::NotEq | BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq
        )
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `count`
    Count,
    /// `sum`
    Sum,
    /// `avg`
    Avg,
    /// `min`
    Min,
    /// `max`
    Max,
}

impl AggFunc {
    /// Canonical lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}
