//! TREAT-style incremental rule-condition analysis.
//!
//! A rule condition is re-evaluated at every consideration, but between
//! two considerations the engine already knows *exactly* what changed:
//! the `[I, D, U]` transition effect composed per Definition 2.1. This
//! module decides, once per rule (kept in the engine's prepared state for
//! the rule), whether the condition can be evaluated *incrementally* — by
//! keeping materialized per-term state and repairing it from the delta —
//! instead of re-scanning the transition tables.
//!
//! # Incrementalizable shapes
//!
//! The analyzer accepts boolean combinations (`and` / `or` / `not`) of
//! three term families:
//!
//! * **Match sets** — `[not] exists (select <simple projection> from
//!   <transition t> [where P])` and `(select count(*) from <transition t>
//!   [where P]) <cmp> <numeric literal>` (either operand order), memoized
//!   as the set of window handles whose row satisfies `P`.
//! * **Join memories** (Rete-beta style) — the same two truth forms over
//!   a subquery joining *two* licensed transition views on exactly one
//!   typed non-float equality key (`a.k = b.k`), memoized as two side
//!   memos ([`JoinSide`]: handle → key and key → handles, no row copies)
//!   plus the set of predicate-satisfying pairs ([`JoinMemo`]). Each side
//!   is repaired from the delta and new candidate pairs are probed
//!   against the *opposite* side's key index — never a rescan of either
//!   window. A side depends only on its template (view, pushdown mirror,
//!   key column; [`IncTerm::join_sides`]), so the engine shares it across
//!   terms and rules.
//! * **Aggregate accumulators** — `(select sum|avg|min|max(c) from
//!   <transition t> [where P]) <cmp> <numeric literal>` over an *integer*
//!   column: `sum`/`avg` as a running `(Σ, count)` pair (plus positive /
//!   negative partial sums guarding `sum`'s overflow semantics),
//!   `min`/`max` as an ordered multiset so deleting the extremum repairs
//!   without a rescan. Float columns are excluded (float addition is
//!   non-associative, so a patched sum could differ bit-for-bit from the
//!   executor's fold) under [`FallbackReason::FloatAccumulator`].
//!
//! `P` must compile to *row-local* form against the subquery's frames:
//! slots-only, innermost-scope references, no subqueries, no unresolved
//! name — the same analysis (`compile::is_rowlocal`) the executor
//! uses to prove a predicate safe to evaluate from one row alone. Row-local `P` is what
//! makes delta repair sound: membership depends only on the named row(s),
//! so only tuples named by the delta can change term state.
//!
//! Everything else — stored-table subqueries, non-equi or 3+-way joins
//! ([`FallbackReason::JoinShape`]), correlated or unresolvable predicates,
//! grouped/ordered/limited subqueries, `selected` windows, unlicensed
//! references — falls back to full evaluation with a [`FallbackReason`]
//! naming why (surfaced per-reason in `\incr` and `incr_fallback_reasons`
//! stats). Fallback **is** the semantics: the incremental path must be
//! observably identical to re-scan, so anything it cannot reproduce
//! bit-for-bit (including errors and their order) is simply not
//! incrementalized.
//!
//! # Mirroring the executor exactly
//!
//! Three executor behaviours are reproduced structurally, not assumed:
//!
//! * **Pushdown prefilters** ([`ViewScan::admits`]): the compiled scan
//!   drops a row when any pushed single-item conjunct is definitely
//!   false, and *keeps it on error* (errors defer to the full
//!   predicate). A membership probe therefore first runs the mirrored
//!   conjuncts — returning non-member without error on a definite false —
//!   and only then evaluates the full predicate, whose errors propagate.
//! * **Hash-join NULL keys**: the compiled hash step skips NULL key
//!   components entirely, so a NULL-keyed row joins nothing; join memos
//!   keep such rows out of the key index the same way.
//! * **Kleene short-circuit**: the compiled condition evaluator skips the
//!   right operand of `false and …` / `true or …`, so a term whose probe
//!   would error may never be evaluated at all. [`IncrementalPlan::
//!   evaluate`] refreshes terms *lazily in evaluation order* with the
//!   identical short-circuit, and term truths are three-valued (an empty
//!   aggregate compares as NULL).
//!
//! The *repair rules* that maintain term state live with the engine
//! (`setrules-core`), which owns the windows, the deltas and the memos —
//! one per (term template, window start) and one join side per (side
//! template, window start), shared across rules; this
//! module owns the shape analysis, the memo representation, the per-row
//! probes, and the truth evaluation. See `docs/incremental-evaluation.md`
//! for the full repair matrix and the memo-sharing soundness argument.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use setrules_sql::ast::{
    AggFunc, BinaryOp, Expr, SelectItem, SelectStmt, TableRef, TableSource, TransitionKind,
    UnaryOp,
};
use setrules_storage::{DataType, Database, TableId, TupleHandle, Value};

use crate::compile::{compile, holds, is_rowlocal, CompiledExpr, Layout, LayoutFrame, RowEnv};
use crate::error::QueryError;
use crate::eval;
use crate::planner::collect_conjuncts;
use crate::provider::describe;

/// Dynamic-degrade label: an integer `sum` accumulator whose positive or
/// negative partial sums escape `i64` while the total does not. Whether
/// the executor's sequential fold overflows then depends on encounter
/// order, so the consideration falls back to the full evaluator (which
/// decides exactly). Counted under this label in the fallback breakdown.
pub const SUM_OVERFLOW_GUARD: &str = "sum-overflow-guard";

/// Why a condition (or one of its terms) is not incrementalizable.
///
/// The taxonomy is part of the observable surface: `explain`-style output
/// and the differential tests assert on it, and
/// `docs/incremental-evaluation.md` documents each arm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FallbackReason {
    /// A leaf of the boolean structure is not an `exists` / aggregate
    /// comparison over a transition subquery.
    Shape,
    /// A subquery scans a stored table (its rows are not delta-addressed
    /// by the rule's window).
    StoredTable(String),
    /// The subquery's `from` is not a single view or a two-view join on
    /// exactly one typed non-float equality key.
    JoinShape,
    /// A `selected t[.c]` window (§5.1): membership depends on read
    /// tracking, not the `[I, D, U]` delta.
    SelectedWindow,
    /// The subquery uses `distinct`, `group by`, `having`, `order by`, or
    /// `limit` — shapes whose truth is not a pure term-state property.
    SubqueryShape,
    /// The `exists` projection is not simple (aggregates or subqueries
    /// could change row count or raise their own errors).
    Projection,
    /// The `where` predicate is not row-local (correlated/outer
    /// references, nested subqueries, or an unresolved name).
    Predicate,
    /// The aggregate is not compared to a numeric literal.
    AggComparison,
    /// A `sum`/`avg`/`min`/`max` over a float column: float folds are
    /// order-sensitive, so a patched accumulator is not bit-identical to
    /// the executor's.
    FloatAccumulator,
    /// The aggregate's argument is not a plain integer column (distinct
    /// aggregates, expressions, text/bool columns, `count(c)`).
    AggArgument,
    /// The transition-table reference is not licensed by the rule's
    /// triggering predicates (§3) — full evaluation raises the error.
    Unlicensed(String),
    /// The referenced table or column does not exist — full evaluation
    /// raises the error.
    UnknownReference(String),
}

impl FallbackReason {
    /// Stable short key for the per-reason fallback breakdown
    /// (`EngineStats::incr_fallback_reasons`, `\incr`).
    pub fn label(&self) -> &'static str {
        match self {
            FallbackReason::Shape => "shape",
            FallbackReason::StoredTable(_) => "stored-table",
            FallbackReason::JoinShape => "join-shape",
            FallbackReason::SelectedWindow => "selected-window",
            FallbackReason::SubqueryShape => "subquery-shape",
            FallbackReason::Projection => "projection",
            FallbackReason::Predicate => "predicate",
            FallbackReason::AggComparison => "agg-comparison",
            FallbackReason::FloatAccumulator => "float-accumulator",
            FallbackReason::AggArgument => "agg-argument",
            FallbackReason::Unlicensed(_) => "unlicensed",
            FallbackReason::UnknownReference(_) => "unknown-reference",
        }
    }
}

impl fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FallbackReason::Shape => write!(f, "condition shape is not exists/count over terms"),
            FallbackReason::StoredTable(t) => write!(f, "subquery scans stored table '{t}'"),
            FallbackReason::JoinShape => {
                write!(f, "join is not two views on one typed equality key")
            }
            FallbackReason::SelectedWindow => write!(f, "selected windows are not delta-addressed"),
            FallbackReason::SubqueryShape => {
                write!(f, "distinct/group by/having/order by/limit in subquery")
            }
            FallbackReason::Projection => write!(f, "exists projection is not simple"),
            FallbackReason::Predicate => write!(f, "where predicate is not row-local"),
            FallbackReason::AggComparison => {
                write!(f, "aggregate is not compared to a numeric literal")
            }
            FallbackReason::FloatAccumulator => {
                write!(f, "float aggregates are order-sensitive")
            }
            FallbackReason::AggArgument => {
                write!(f, "aggregate argument is not a plain integer column")
            }
            FallbackReason::Unlicensed(r) => write!(f, "unlicensed reference to {r}"),
            FallbackReason::UnknownReference(r) => write!(f, "unknown reference {r}"),
        }
    }
}

/// How a term's memoized state becomes a truth value.
#[derive(Debug, Clone)]
pub enum TermTruth {
    /// `[not] exists (...)`: true iff the match/pair set is (non-)empty.
    Exists {
        /// `not exists`?
        negated: bool,
    },
    /// `count(*) <cmp> literal`: compare the match/pair cardinality.
    Count {
        /// The comparison operator (already mirrored if the literal was
        /// on the left).
        op: BinaryOp,
        /// The literal operand (Int or Float).
        literal: Value,
    },
    /// `sum|avg|min|max(c) <cmp> literal`: compare the accumulator's
    /// aggregate value (NULL over an empty window, like the executor).
    Agg {
        /// The comparison operator (mirrored if needed).
        op: BinaryOp,
        /// The literal operand (Int or Float).
        literal: Value,
    },
}

/// Which accumulator an aggregate term maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccFunc {
    /// `sum(c)`: running Σ with overflow guards.
    Sum,
    /// `avg(c)`: exact integer Σ divided once at truth time.
    Avg,
    /// `min(c)`: ordered multiset, first key.
    Min,
    /// `max(c)`: ordered multiset, last key.
    Max,
}

impl AccFunc {
    fn name(self) -> &'static str {
        match self {
            AccFunc::Sum => "sum",
            AccFunc::Avg => "avg",
            AccFunc::Min => "min",
            AccFunc::Max => "max",
        }
    }
}

/// One transition view a term scans, with the mirrored pushdown
/// prefilter: the single-item conjuncts the compiled scan would evaluate,
/// compiled against this view's own single frame.
#[derive(Debug, Clone)]
pub struct ViewScan {
    /// Which transition table.
    pub kind: TransitionKind,
    /// The underlying stored table.
    pub table: String,
    /// Column restriction (`old/new updated t.c`).
    pub column: Option<String>,
    /// The binding name the subquery sees (alias or table name).
    pub binding: String,
    /// Pushdown mirror: single-frame conjuncts the scan prefilters with.
    conjs: Vec<CompiledExpr>,
}

impl ViewScan {
    /// Does the compiled scan keep `row`? This *is* the scan prefilter.
    pub fn admits(&self, row: &[Value]) -> bool {
        crate::exec::scan::admits(&self.conjs, row)
    }

    fn describe(&self) -> String {
        describe(self.kind, &self.table, self.column.as_deref())
    }
}

/// The shape of one incrementalizable condition term.
#[derive(Debug, Clone)]
pub enum TermKind {
    /// A match set over one transition view.
    Set {
        /// The scanned view.
        view: ViewScan,
        /// The full row-local `where` predicate (single frame); `None` =
        /// every admitted row matches.
        pred: Option<CompiledExpr>,
    },
    /// A Rete-beta join memory over two transition views.
    Join {
        /// Left `from` item (frame 0 of `pred`).
        left: ViewScan,
        /// Right `from` item (frame 1 of `pred`).
        right: ViewScan,
        /// Column index of the equality key in the left row.
        left_key: usize,
        /// Column index of the equality key in the right row.
        right_key: usize,
        /// Key column names, for `describe`.
        key_names: (String, String),
        /// The key's declared type (non-float, identical on both sides).
        key_ty: DataType,
        /// The full row-local predicate over both frames (includes the
        /// key equality and any residual cross conjuncts).
        pred: CompiledExpr,
        /// Each side's template, `[left, right]`: the view, the texts of
        /// its pushdown-mirror conjuncts and the key column. Everything
        /// a side memo holds is a function of the template and the
        /// window, so sides with equal templates over equal windows (in
        /// this term or another) keep equal memos.
        side_templates: [String; 2],
    },
    /// A running aggregate accumulator over one transition view.
    Acc {
        /// The scanned view.
        view: ViewScan,
        /// Column index of the aggregated integer column.
        arg: usize,
        /// Its name, for `describe`.
        arg_name: String,
        /// Which accumulator.
        func: AccFunc,
        /// The full row-local `where` predicate (single frame).
        pred: Option<CompiledExpr>,
    },
}

/// One incrementalizable condition term: its shape plus how memoized
/// state becomes a truth value.
#[derive(Debug, Clone)]
pub struct IncTerm {
    /// The term's shape (which memo it keeps and how it is probed).
    pub kind: TermKind,
    /// How the memo becomes a truth value.
    pub truth: TermTruth,
    /// The term's template: the canonical text of its subquery
    /// (`SelectStmt`'s `Display`). The memo depends on the subquery and
    /// the window only, never on `truth`'s literal, so terms with equal
    /// templates over equal windows keep equal memos.
    pub template: String,
}

impl IncTerm {
    /// Membership probe for `Set` terms: scan prefilter first (definite
    /// false drops without error), then the full predicate (errors
    /// propagate exactly as the executor's filter would).
    pub fn probe_set(&self, row: &[Value]) -> Result<bool, QueryError> {
        let TermKind::Set { view, pred } = &self.kind else {
            return Err(QueryError::Type(format!("internal: {}", "probe_set on non-set term")));
        };
        if !view.admits(row) {
            return Ok(false);
        }
        match pred {
            None => Ok(true),
            Some(p) => holds(p, &mut RowEnv(&[row])),
        }
    }

    /// Membership probe for `Acc` terms: prefilter, full predicate
    /// (errors propagate), then the argument value — `None` = not a
    /// contributor (filtered out, or NULL argument, exactly the rows the
    /// executor's aggregate skips).
    pub fn probe_acc(&self, row: &[Value]) -> Result<Option<i64>, QueryError> {
        let TermKind::Acc { view, arg, pred, .. } = &self.kind else {
            return Err(QueryError::Type(format!("internal: {}", "probe_acc on non-acc term")));
        };
        if !view.admits(row) {
            return Ok(None);
        }
        if let Some(p) = pred {
            if !holds(p, &mut RowEnv(&[row]))? {
                return Ok(None);
            }
        }
        match &row[*arg] {
            Value::Int(v) => Ok(Some(*v)),
            Value::Null => Ok(None),
            other => Err(QueryError::Type(format!(
                "aggregate over non-integer value {other}"
            ))),
        }
    }

    /// Side probe for `Join` terms: does `row` enter `side`'s memo, and
    /// with which key? `None` = dropped by the prefilter or NULL-keyed
    /// (the hash step skips NULL key components). Never errors — side
    /// membership mirrors scan + hash, both of which defer errors to the
    /// pair predicate.
    pub fn probe_join_side(&self, left_side: bool, row: &[Value]) -> Option<Value> {
        let TermKind::Join { left, right, left_key, right_key, .. } = &self.kind else {
            return None;
        };
        let (view, key) =
            if left_side { (left, *left_key) } else { (right, *right_key) };
        if !view.admits(row) {
            return None;
        }
        match &row[key] {
            Value::Null => None,
            v => Some(v.clone()),
        }
    }

    /// A `Join` term's side `[left, right]` views, with each side's
    /// template; `None` for other terms.
    pub fn join_sides(&self) -> Option<[(&ViewScan, &str); 2]> {
        let TermKind::Join { left, right, side_templates: [lt, rt], .. } = &self.kind else {
            return None;
        };
        Some([(left, lt.as_str()), (right, rt.as_str())])
    }

    /// Pair probe for `Join` terms: the full two-frame predicate, exactly
    /// the filter's per-combination evaluation (errors propagate).
    pub fn probe_join_pair(
        &self,
        lrow: &[Value],
        rrow: &[Value],
    ) -> Result<bool, QueryError> {
        let TermKind::Join { pred, .. } = &self.kind else {
            return Err(QueryError::Type(format!("internal: {}", "probe_join_pair on non-join term")));
        };
        holds(pred, &mut RowEnv(&[lrow, rrow]))
    }

    /// The term's three-valued truth over its memo, or a dynamic degrade.
    pub fn truth(&self, memo: &TermMemo) -> Result<Term3, QueryError> {
        let agg_value = match (&self.kind, memo) {
            (TermKind::Set { .. }, TermMemo::Set(s)) => return self.cardinality_truth(s.len()),
            (TermKind::Join { .. }, TermMemo::Join(j)) => {
                return self.cardinality_truth(j.pairs.len())
            }
            (TermKind::Acc { func, .. }, TermMemo::Acc(a)) => match func {
                AccFunc::Sum => {
                    if a.contrib.is_empty() {
                        Value::Null
                    } else if a.pos <= i64::MAX as i128 && a.neg >= i64::MIN as i128 {
                        // Every prefix of the executor's fold is a subset
                        // sum, bounded by [neg, pos] ⊆ i64: no fold order
                        // can overflow.
                        Value::Int(a.sum as i64)
                    } else if a.sum > i64::MAX as i128 || a.sum < i64::MIN as i128 {
                        // The full fold ends at `sum`, itself a prefix:
                        // the executor errors no matter the order.
                        return Err(QueryError::Type("integer overflow in sum".into()));
                    } else {
                        // Overflow depends on encounter order: let the
                        // full evaluator decide.
                        return Ok(Term3::Degrade(SUM_OVERFLOW_GUARD));
                    }
                }
                AccFunc::Avg => {
                    if a.contrib.is_empty() {
                        Value::Null
                    } else {
                        // The executor's exact-integer average: one i128
                        // sum, one f64 division.
                        Value::Float(a.sum as f64 / a.contrib.len() as f64)
                    }
                }
                AccFunc::Min => a.vals.keys().next().map_or(Value::Null, |v| Value::Int(*v)),
                AccFunc::Max => {
                    a.vals.keys().next_back().map_or(Value::Null, |v| Value::Int(*v))
                }
            },
            _ => {
                return Err(QueryError::Type(format!("internal: {}", "memo kind does not match term")));
            }
        };
        let TermTruth::Agg { op, literal } = &self.truth else {
            return Err(QueryError::Type(format!("internal: {}", "aggregate term without agg truth")));
        };
        let v = eval::apply_binary(&agg_value, *op, literal)?;
        Ok(Term3::Known(eval::truth(&v)?))
    }

    fn cardinality_truth(&self, cardinality: usize) -> Result<Term3, QueryError> {
        match &self.truth {
            TermTruth::Exists { negated } => {
                Ok(Term3::Known(Some((cardinality > 0) != *negated)))
            }
            TermTruth::Count { op, literal } => {
                // The same comparison kernel the full evaluator applies to
                // `(select count(*) ...) <cmp> literal`.
                let v = eval::apply_binary(&Value::Int(cardinality as i64), *op, literal)?;
                Ok(Term3::Known(eval::truth(&v)?))
            }
            TermTruth::Agg { .. } => {
                Err(QueryError::Type(format!("internal: {}", "cardinality truth on aggregate term")))
            }
        }
    }
}

/// A node of the condition's boolean structure over term indices.
#[derive(Debug, Clone)]
pub enum IncNode {
    /// A leaf term (index into [`IncrementalPlan::terms`]).
    Term(usize),
    /// Logical conjunction.
    And(Box<IncNode>, Box<IncNode>),
    /// Logical disjunction.
    Or(Box<IncNode>, Box<IncNode>),
    /// Logical negation.
    Not(Box<IncNode>),
}

/// One side of a join memory — a Rete alpha memory: the window rows the
/// side's scan admits, addressable by handle and by join key. It holds
/// keys, not rows: a pair probe reads each row where the window keeps it
/// (the shared old image, or the heap), so sides with equal templates
/// can be shared across terms and rules.
#[derive(Debug, Clone, Default)]
pub struct JoinSide {
    /// handle → join key.
    pub keys: BTreeMap<TupleHandle, Value>,
    /// join key → handles carrying it (NULL keys never enter).
    pub by_key: BTreeMap<Value, BTreeSet<TupleHandle>>,
}

impl JoinSide {
    /// Insert or replace `h`'s entry.
    pub fn insert(&mut self, h: TupleHandle, key: Value) {
        self.remove(h);
        self.by_key.entry(key.clone()).or_default().insert(h);
        self.keys.insert(h, key);
    }

    /// Remove `h`'s entry if present.
    pub fn remove(&mut self, h: TupleHandle) {
        if let Some(key) = self.keys.remove(&h) {
            if let Some(bucket) = self.by_key.get_mut(&key) {
                bucket.remove(&h);
                if bucket.is_empty() {
                    self.by_key.remove(&key);
                }
            }
        }
    }

    /// Rough resident size, for the `\incr` report (approximate, like
    /// [`TermMemo::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        let entry = std::mem::size_of::<TupleHandle>() + std::mem::size_of::<Value>();
        // Each handle sits in `keys` and in one bucket; each key heads a
        // bucket.
        self.keys.len() * (entry + 8 + 16) + self.by_key.len() * (entry + 24)
    }
}

/// A Rete-beta pair memory: the pairs of two side memories (kept apart,
/// shared per side template) on which the full predicate holds.
#[derive(Debug, Clone, Default)]
pub struct JoinMemo {
    /// Pairs `(l, r)` on which the pair predicate is true.
    pub pairs: BTreeSet<(TupleHandle, TupleHandle)>,
    /// The same pairs keyed `(r, l)`, for right-side purges.
    rev: BTreeSet<(TupleHandle, TupleHandle)>,
}

impl JoinMemo {
    /// Record that the pair predicate holds on `(l, r)`.
    pub fn add_pair(&mut self, l: TupleHandle, r: TupleHandle) {
        self.pairs.insert((l, r));
        self.rev.insert((r, l));
    }

    /// Drop every pair involving left-side handle `l`.
    pub fn purge_left(&mut self, l: TupleHandle) {
        let doomed: Vec<_> = self
            .pairs
            .range((l, TupleHandle(0))..=(l, TupleHandle(u64::MAX)))
            .copied()
            .collect();
        for (l, r) in doomed {
            self.pairs.remove(&(l, r));
            self.rev.remove(&(r, l));
        }
    }

    /// Drop every pair involving right-side handle `r`.
    pub fn purge_right(&mut self, r: TupleHandle) {
        let doomed: Vec<_> = self
            .rev
            .range((r, TupleHandle(0))..=(r, TupleHandle(u64::MAX)))
            .copied()
            .collect();
        for (r, l) in doomed {
            self.pairs.remove(&(l, r));
            self.rev.remove(&(r, l));
        }
    }
}

/// A running integer aggregate: per-contributor values, the value
/// multiset (for `min`/`max`), and the total plus positive/negative
/// partial sums (the `sum` overflow guard).
#[derive(Debug, Clone, Default)]
pub struct AccMemo {
    /// handle → contributed value.
    pub contrib: BTreeMap<TupleHandle, i64>,
    /// value → multiplicity (ordered, so the extremum is an end key).
    pub vals: BTreeMap<i64, u64>,
    /// Exact Σ of all contributions.
    pub sum: i128,
    /// Σ of non-negative contributions (fold-order overflow guard).
    pub pos: i128,
    /// Σ of negative contributions (fold-order overflow guard).
    pub neg: i128,
}

impl AccMemo {
    /// Add (or replace) `h`'s contribution.
    pub fn insert(&mut self, h: TupleHandle, v: i64) {
        self.remove(h);
        self.contrib.insert(h, v);
        *self.vals.entry(v).or_insert(0) += 1;
        self.sum += v as i128;
        if v >= 0 {
            self.pos += v as i128;
        } else {
            self.neg += v as i128;
        }
    }

    /// Remove `h`'s contribution if present.
    pub fn remove(&mut self, h: TupleHandle) {
        let Some(v) = self.contrib.remove(&h) else { return };
        if let Some(n) = self.vals.get_mut(&v) {
            *n -= 1;
            if *n == 0 {
                self.vals.remove(&v);
            }
        }
        self.sum -= v as i128;
        if v >= 0 {
            self.pos -= v as i128;
        } else {
            self.neg -= v as i128;
        }
    }
}

/// One term's memoized state.
#[derive(Debug, Clone)]
pub enum TermMemo {
    /// Handles currently matching a `Set` term.
    Set(BTreeSet<TupleHandle>),
    /// A `Join` term's pair memory (its sides are separate memos).
    Join(JoinMemo),
    /// An `Acc` term's accumulator.
    Acc(AccMemo),
}

impl TermMemo {
    /// A fresh, empty memo shaped for `term`.
    pub fn empty_for(term: &IncTerm) -> TermMemo {
        match &term.kind {
            TermKind::Set { .. } => TermMemo::Set(BTreeSet::new()),
            TermKind::Join { .. } => TermMemo::Join(JoinMemo::default()),
            TermKind::Acc { .. } => TermMemo::Acc(AccMemo::default()),
        }
    }

    /// Memoized entries (match handles, pairs, contributors).
    pub fn entries(&self) -> usize {
        match self {
            TermMemo::Set(s) => s.len(),
            TermMemo::Join(j) => j.pairs.len(),
            TermMemo::Acc(a) => a.contrib.len(),
        }
    }

    /// Rough resident size, for the `\incr` report. Deliberately a
    /// heuristic (container overhead varies); documented as approximate.
    pub fn approx_bytes(&self) -> usize {
        match self {
            TermMemo::Set(s) => s.len() * std::mem::size_of::<TupleHandle>(),
            TermMemo::Join(j) => j.pairs.len() * 32 * 2,
            TermMemo::Acc(a) => (a.contrib.len() + a.vals.len()) * 24 + 48,
        }
    }
}

/// What one term refresh did, reported by the engine's refresh callback.
#[derive(Debug, Clone, Copy, Default)]
pub struct TermRefresh {
    /// The term's memo was rebuilt from the rule's whole window (or, for
    /// a join, its pairs re-derived from whole sides) rather than patched
    /// from the composed delta suffix or found current.
    pub rebuilt: bool,
    /// Rows probed, side repairs and builds included.
    pub rows: u64,
    /// A repair another rule paid for: the composition came from the
    /// transaction's shared compose cache, or another rule had already
    /// brought the memo up to date. Never set on a rebuild.
    pub shared: bool,
    /// Join side memos this refresh filled from the window.
    pub side_builds: u64,
}

/// The final verdict of an incremental condition evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondVerdict {
    /// Authoritative: the condition holds / does not hold (NULL is
    /// not-true, as everywhere in SQL rule conditions).
    Truth(bool),
    /// The memoized state cannot decide bit-exactly this round (e.g. the
    /// sum overflow guard); run the full evaluator. The label feeds the
    /// fallback breakdown.
    Degrade(&'static str),
}

/// Tallies and verdict from one [`IncrementalPlan::evaluate`] round.
#[derive(Debug, Clone, Copy)]
pub struct EvalOutcome {
    /// The verdict.
    pub verdict: CondVerdict,
    /// Terms rebuilt from the window.
    pub rebuilt: u64,
    /// Rows probed across all refreshed terms.
    pub rows: u64,
    /// Term refreshes another rule paid for.
    pub shared: u64,
    /// Join side memos filled from the window.
    pub side_builds: u64,
}

/// A term's (or node's) three-valued truth, or a dynamic degrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Term3 {
    /// SQL truth (NULL = `None`).
    Known(Option<bool>),
    /// Dynamic degrade with its breakdown label.
    Degrade(&'static str),
}

/// The refresh callback of [`IncrementalPlan::evaluate`]: bring term `i`'s
/// memo up to date, then answer what was done and the term's truth.
pub type RefreshFn<'a> =
    dyn FnMut(usize, &IncTerm) -> Result<(TermRefresh, Term3), QueryError> + 'a;

/// The incremental evaluation plan for one rule condition.
#[derive(Debug, Clone)]
pub struct IncrementalPlan {
    root: IncNode,
    /// The condition's terms, in analysis order.
    pub terms: Vec<IncTerm>,
}

impl IncrementalPlan {
    /// Evaluate the condition, refreshing term memos *lazily* through
    /// `refresh` in exactly the order — and with exactly the Kleene
    /// short-circuits — of the compiled full evaluator. A term skipped by
    /// `false and …` / `true or …` is never refreshed, so probe errors
    /// surface if and only if the full evaluator would raise them. The
    /// caller owns the memos: `refresh(i, term)` brings term `i`'s memo up
    /// to date and answers what it did plus [`IncTerm::truth`] over it.
    pub fn evaluate(&self, refresh: &mut RefreshFn<'_>) -> Result<EvalOutcome, QueryError> {
        let mut out = EvalOutcome {
            verdict: CondVerdict::Truth(false),
            rebuilt: 0,
            rows: 0,
            shared: 0,
            side_builds: 0,
        };
        let v = self.node_eval(&self.root, refresh, &mut out)?;
        out.verdict = match v {
            Term3::Known(t) => CondVerdict::Truth(t == Some(true)),
            Term3::Degrade(label) => CondVerdict::Degrade(label),
        };
        Ok(out)
    }

    fn node_eval(
        &self,
        node: &IncNode,
        refresh: &mut RefreshFn<'_>,
        out: &mut EvalOutcome,
    ) -> Result<Term3, QueryError> {
        match node {
            IncNode::Term(i) => {
                let (done, truth) = refresh(*i, &self.terms[*i])?;
                out.rebuilt += u64::from(done.rebuilt);
                out.shared += u64::from(done.shared);
                out.rows += done.rows;
                out.side_builds += done.side_builds;
                Ok(truth)
            }
            IncNode::And(l, r) => {
                let lv = self.node_eval(l, refresh, out)?;
                let lt = match lv {
                    Term3::Degrade(_) => return Ok(lv),
                    // The compiled evaluator short-circuits `false and …`
                    // without touching the right operand.
                    Term3::Known(Some(false)) => return Ok(lv),
                    Term3::Known(t) => t,
                };
                match self.node_eval(r, refresh, out)? {
                    Term3::Degrade(label) => Ok(Term3::Degrade(label)),
                    Term3::Known(rt) => Ok(Term3::Known(eval::kleene_and(lt, rt))),
                }
            }
            IncNode::Or(l, r) => {
                let lv = self.node_eval(l, refresh, out)?;
                let lt = match lv {
                    Term3::Degrade(_) => return Ok(lv),
                    // `true or …` short-circuits likewise.
                    Term3::Known(Some(true)) => return Ok(lv),
                    Term3::Known(t) => t,
                };
                match self.node_eval(r, refresh, out)? {
                    Term3::Degrade(label) => Ok(Term3::Degrade(label)),
                    Term3::Known(rt) => Ok(Term3::Known(eval::kleene_or(lt, rt))),
                }
            }
            IncNode::Not(e) => match self.node_eval(e, refresh, out)? {
                Term3::Degrade(label) => Ok(Term3::Degrade(label)),
                Term3::Known(t) => Ok(Term3::Known(t.map(|b| !b))),
            },
        }
    }

    /// One line per term: the view(s) scanned, the truth form, the memo
    /// kind, and the repair keys — for `explain` output and the REPL.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (i, t) in self.terms.iter().enumerate() {
            let line = match &t.kind {
                TermKind::Set { view, pred } => {
                    let filter = if pred.is_some() { " where <row-local>" } else { "" };
                    format!(
                        "term {i}: {} [{}{filter}; memo: match-set]",
                        truth_text(&t.truth, None),
                        view.describe()
                    )
                }
                TermKind::Join { left, right, key_names, key_ty, .. } => format!(
                    "term {i}: {} [{} join {} on {} = {} ({}); memo: join-memory]",
                    truth_text(&t.truth, None),
                    left.describe(),
                    right.describe(),
                    key_names.0,
                    key_names.1,
                    ty_text(*key_ty),
                ),
                TermKind::Acc { view, arg_name, func, pred, .. } => {
                    let filter = if pred.is_some() { " where <row-local>" } else { "" };
                    format!(
                        "term {i}: {} [{}{filter}; memo: {}]",
                        truth_text(&t.truth, Some((*func, arg_name))),
                        view.describe(),
                        match func {
                            AccFunc::Sum | AccFunc::Avg => "sum/count accumulator",
                            AccFunc::Min | AccFunc::Max => "ordered multiset",
                        },
                    )
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

fn truth_text(truth: &TermTruth, agg: Option<(AccFunc, &str)>) -> String {
    match truth {
        TermTruth::Exists { negated: false } => "exists".to_string(),
        TermTruth::Exists { negated: true } => "not exists".to_string(),
        TermTruth::Count { op, literal } => format!("count {} {literal}", op_text(*op)),
        TermTruth::Agg { op, literal } => {
            let (func, arg) = agg.expect("agg truth implies acc term");
            format!("{}({arg}) {} {literal}", func.name(), op_text(*op))
        }
    }
}

fn op_text(op: BinaryOp) -> &'static str {
    match op {
        BinaryOp::Eq => "=",
        BinaryOp::NotEq => "<>",
        BinaryOp::Lt => "<",
        BinaryOp::LtEq => "<=",
        BinaryOp::Gt => ">",
        BinaryOp::GtEq => ">=",
        _ => "?",
    }
}

fn ty_text(ty: DataType) -> &'static str {
    match ty {
        DataType::Bool => "bool",
        DataType::Int => "int",
        DataType::Float => "float",
        DataType::Text => "text",
    }
}

/// Analyze a rule condition for incremental evaluation.
///
/// `licensed` mirrors the §3 restriction check the window provider
/// applies at evaluation time: a reference it rejects falls back, so full
/// evaluation raises the identical error the re-scan path always raised.
pub fn analyze(
    db: &Database,
    cond: &Expr,
    licensed: &dyn Fn(TransitionKind, &str, Option<&str>) -> bool,
) -> Result<IncrementalPlan, FallbackReason> {
    let mut terms = Vec::new();
    let root = analyze_node(db, cond, licensed, &mut terms)?;
    Ok(IncrementalPlan { root, terms })
}

fn analyze_node(
    db: &Database,
    e: &Expr,
    licensed: &dyn Fn(TransitionKind, &str, Option<&str>) -> bool,
    terms: &mut Vec<IncTerm>,
) -> Result<IncNode, FallbackReason> {
    match e {
        Expr::Binary { left, op: BinaryOp::And, right } => Ok(IncNode::And(
            Box::new(analyze_node(db, left, licensed, terms)?),
            Box::new(analyze_node(db, right, licensed, terms)?),
        )),
        Expr::Binary { left, op: BinaryOp::Or, right } => Ok(IncNode::Or(
            Box::new(analyze_node(db, left, licensed, terms)?),
            Box::new(analyze_node(db, right, licensed, terms)?),
        )),
        Expr::Unary { op: UnaryOp::Not, expr } => {
            Ok(IncNode::Not(Box::new(analyze_node(db, expr, licensed, terms)?)))
        }
        Expr::Exists { subquery, negated } => {
            let term =
                analyze_term(db, subquery, licensed, TermTruth::Exists { negated: *negated })?;
            terms.push(term);
            Ok(IncNode::Term(terms.len() - 1))
        }
        Expr::Binary { left, op, right } if op.is_comparison() => {
            // Aggregate comparison, literal on either side.
            let (sub, lit, op) = match (&**left, &**right) {
                (Expr::ScalarSubquery(s), other) => match numeric_literal(other) {
                    Some(v) => (s, v, *op),
                    None => return Err(comparison_fallback(other)),
                },
                (other, Expr::ScalarSubquery(s)) => match numeric_literal(other) {
                    Some(v) => (s, v, mirror(*op)),
                    None => return Err(comparison_fallback(other)),
                },
                _ => return Err(FallbackReason::Shape),
            };
            let lit = &lit;
            let truth = match agg_projection(sub) {
                None => return Err(FallbackReason::Shape),
                Some((AggFunc::Count, None, false)) => {
                    TermTruth::Count { op, literal: lit.clone() }
                }
                Some((AggFunc::Count, Some(_), _)) | Some((AggFunc::Count, None, true)) => {
                    return Err(FallbackReason::AggArgument);
                }
                Some((_, _, true)) | Some((_, None, false)) => {
                    return Err(FallbackReason::AggArgument);
                }
                Some(_) => TermTruth::Agg { op, literal: lit.clone() },
            };
            let term = analyze_term(db, sub, licensed, truth)?;
            terms.push(term);
            Ok(IncNode::Term(terms.len() - 1))
        }
        _ => Err(FallbackReason::Shape),
    }
}

/// A (possibly sign-prefixed) numeric literal, folded to its value. The
/// fold matches the executor's unary minus exactly: a parsed positive
/// int literal is <= `i64::MAX`, so its negation can never overflow, and
/// float negation is a sign-bit flip either way.
fn numeric_literal(e: &Expr) -> Option<Value> {
    match e {
        Expr::Literal(v @ (Value::Int(_) | Value::Float(_))) => Some(v.clone()),
        Expr::Unary { op: UnaryOp::Neg, expr } => match &**expr {
            Expr::Literal(Value::Int(n)) => Some(Value::Int(-n)),
            Expr::Literal(Value::Float(f)) => Some(Value::Float(-f)),
            _ => None,
        },
        _ => None,
    }
}

/// The fallback for a comparison operand that is not a numeric literal:
/// a literal of the wrong type names the aggregate-comparison gap, any
/// other expression is just the wrong shape.
fn comparison_fallback(e: &Expr) -> FallbackReason {
    match e {
        Expr::Literal(_) => FallbackReason::AggComparison,
        Expr::Unary { op: UnaryOp::Neg, expr } if matches!(&**expr, Expr::Literal(_)) => {
            FallbackReason::AggComparison
        }
        _ => FallbackReason::Shape,
    }
}

/// `a <cmp> b` ⇔ `b <mirror cmp> a`.
fn mirror(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other, // Eq / NotEq are symmetric
    }
}

/// Is `sub`'s projection a single aggregate? Returns `(func, arg,
/// distinct)`.
fn agg_projection(sub: &SelectStmt) -> Option<(AggFunc, Option<&Expr>, bool)> {
    match sub.projection.as_slice() {
        [SelectItem::Expr { expr: Expr::Aggregate { func, arg, distinct }, .. }] => {
            Some((*func, arg.as_deref(), *distinct))
        }
        _ => None,
    }
}

/// Is an `exists` projection item free of anything that could change the
/// subquery's row count or raise its own evaluation error?
fn simple_projection(item: &SelectItem) -> bool {
    match item {
        SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => true,
        SelectItem::Expr { expr, .. } => {
            matches!(expr, Expr::Column { .. } | Expr::Literal(_))
        }
    }
}

/// Resolve one transition `from` item: catches stored tables, `selected`
/// windows, unknown references, and unlicensed views. Returns the view
/// (without its pushdown mirror, filled later) and the table id.
fn resolve_view(
    db: &Database,
    tref: &TableRef,
    licensed: &dyn Fn(TransitionKind, &str, Option<&str>) -> bool,
) -> Result<(ViewScan, TableId), FallbackReason> {
    let (kind, table, column) = match &tref.source {
        TableSource::Named(n) => return Err(FallbackReason::StoredTable(n.clone())),
        TableSource::Transition { kind, table, column } => (*kind, table, column),
    };
    if kind == TransitionKind::Selected {
        return Err(FallbackReason::SelectedWindow);
    }
    let view_name = describe(kind, table, column.as_deref());
    let Ok(tid) = db.table_id(table) else {
        return Err(FallbackReason::UnknownReference(view_name));
    };
    if let Some(c) = column {
        if db.schema(tid).column_id(c).is_err() {
            return Err(FallbackReason::UnknownReference(view_name));
        }
    }
    if !licensed(kind, table, column.as_deref()) {
        return Err(FallbackReason::Unlicensed(view_name));
    }
    Ok((
        ViewScan {
            kind,
            table: table.clone(),
            column: column.clone(),
            binding: tref.binding_name().to_string(),
            conjs: Vec::new(),
        },
        tid,
    ))
}

fn analyze_term(
    db: &Database,
    sub: &SelectStmt,
    licensed: &dyn Fn(TransitionKind, &str, Option<&str>) -> bool,
    truth: TermTruth,
) -> Result<IncTerm, FallbackReason> {
    if sub.distinct
        || !sub.group_by.is_empty()
        || sub.having.is_some()
        || !sub.order_by.is_empty()
        || sub.limit.is_some()
    {
        return Err(FallbackReason::SubqueryShape);
    }
    if matches!(truth, TermTruth::Exists { .. }) && !sub.projection.iter().all(simple_projection) {
        return Err(FallbackReason::Projection);
    }
    match sub.from.len() {
        1 => analyze_single(db, sub, licensed, truth),
        2 if !matches!(truth, TermTruth::Agg { .. }) => analyze_join(db, sub, licensed, truth),
        _ => Err(FallbackReason::JoinShape),
    }
}

/// Analyze a single-view term (`Set` or `Acc`).
fn analyze_single(
    db: &Database,
    sub: &SelectStmt,
    licensed: &dyn Fn(TransitionKind, &str, Option<&str>) -> bool,
    truth: TermTruth,
) -> Result<IncTerm, FallbackReason> {
    let (mut view, tid) = resolve_view(db, &sub.from[0], licensed)?;
    let layout = Layout::of_table(db, tid, &view.binding).1;
    let pred = match &sub.predicate {
        None => None,
        Some(p) => {
            // Compile against the subquery's single frame exactly as the
            // executor would lay it out. Anything not row-local after
            // compilation — outer references (a rule condition has no
            // outer scope, so they lower to `Unresolved` leaves), nested
            // subqueries, unresolved names — falls back.
            let compiled = compile(p, &layout);
            if !is_rowlocal(&compiled) {
                return Err(FallbackReason::Predicate);
            }
            Some(compiled)
        }
    };
    // Pushdown mirror: a sole *transition* item gets scan pushdown (the
    // provider lends borrowed rows), so membership probes must apply the
    // same drop-on-definite-false / keep-on-error prefilter before the
    // full predicate. Conjuncts with no slots stay with the full
    // predicate, as in the executor.
    if let Some(p) = &sub.predicate {
        let mut conjuncts = Vec::new();
        collect_conjuncts(p, &mut conjuncts);
        for c in conjuncts {
            let cc = compile(c, &layout);
            if cc.slots_only() && has_slot(&cc) {
                view.conjs.push(cc);
            }
        }
    }
    match truth {
        TermTruth::Agg { .. } => {
            let (arg, arg_name, func) = resolve_acc(db, sub, &view, tid)?;
            Ok(IncTerm {
                kind: TermKind::Acc { view, arg, arg_name, func, pred },
                truth,
                template: sub.to_string(),
            })
        }
        _ => Ok(IncTerm { kind: TermKind::Set { view, pred }, truth, template: sub.to_string() }),
    }
}

/// Resolve an aggregate term's function and argument column: must be a
/// plain (non-distinct) `sum|avg|min|max` over an integer column of the
/// scanned view.
fn resolve_acc(
    db: &Database,
    sub: &SelectStmt,
    view: &ViewScan,
    tid: TableId,
) -> Result<(usize, String, AccFunc), FallbackReason> {
    let Some((func, Some(arg), false)) = agg_projection(sub) else {
        return Err(FallbackReason::AggArgument);
    };
    let func = match func {
        AggFunc::Sum => AccFunc::Sum,
        AggFunc::Avg => AccFunc::Avg,
        AggFunc::Min => AccFunc::Min,
        AggFunc::Max => AccFunc::Max,
        AggFunc::Count => return Err(FallbackReason::AggArgument),
    };
    let Expr::Column { qualifier, name } = arg else {
        return Err(FallbackReason::AggArgument);
    };
    if let Some(q) = qualifier {
        if q != &view.binding {
            return Err(FallbackReason::UnknownReference(format!("{q}.{name}")));
        }
    }
    let Ok(col) = db.schema(tid).column_id(name) else {
        return Err(FallbackReason::UnknownReference(format!("{}.{name}", view.table)));
    };
    match db.schema(tid).columns[col.0 as usize].ty {
        DataType::Int => {}
        DataType::Float => return Err(FallbackReason::FloatAccumulator),
        DataType::Bool | DataType::Text => return Err(FallbackReason::AggArgument),
    }
    Ok((col.0 as usize, name.clone(), func))
}

/// Analyze a two-view join term.
fn analyze_join(
    db: &Database,
    sub: &SelectStmt,
    licensed: &dyn Fn(TransitionKind, &str, Option<&str>) -> bool,
    truth: TermTruth,
) -> Result<IncTerm, FallbackReason> {
    let (mut left, ltid) = resolve_view(db, &sub.from[0], licensed)?;
    let (mut right, rtid) = resolve_view(db, &sub.from[1], licensed)?;
    // The executor lays both items out as one level with two frames.
    let columns = |tid: TableId| {
        Arc::new(db.schema(tid).columns.iter().map(|c| c.name.clone()).collect::<Vec<_>>())
    };
    let mut layout = Layout::new();
    layout.push_level(vec![
        LayoutFrame { name: left.binding.clone(), columns: columns(ltid) },
        LayoutFrame { name: right.binding.clone(), columns: columns(rtid) },
    ]);
    // The join needs a hash step: no predicate means a cross product.
    let Some(p) = &sub.predicate else {
        return Err(FallbackReason::JoinShape);
    };
    let pred = compile(p, &layout);
    if !is_rowlocal(&pred) {
        return Err(FallbackReason::Predicate);
    }
    // Mirror `planner::equi_join_edges`: conjuncts `col = col` whose
    // sides resolve to different frames and share a non-float declared
    // type. Exactly one edge = one hash key; zero (cross/non-equi) or
    // several (composite key) fall back.
    let mut conjuncts = Vec::new();
    collect_conjuncts(p, &mut conjuncts);
    let mut edges: Vec<(usize, usize, usize, usize)> = Vec::new();
    for c in &conjuncts {
        let Expr::Binary { left: a, op: BinaryOp::Eq, right: b } = c else { continue };
        if !matches!(a.as_ref(), Expr::Column { .. }) || !matches!(b.as_ref(), Expr::Column { .. })
        {
            continue;
        }
        let (
            CompiledExpr::Slot { level_up: 0, frame: fa, col: ca },
            CompiledExpr::Slot { level_up: 0, frame: fb, col: cb },
        ) = (compile(a, &layout), compile(b, &layout))
        else {
            continue;
        };
        if fa == fb {
            continue;
        }
        let (ta, tb) =
            (db.schema(if fa == 0 { ltid } else { rtid }).columns[ca].ty, db.schema(if fb == 0 { ltid } else { rtid }).columns[cb].ty);
        if ta == tb && ta != DataType::Float && !edges.contains(&(fa, ca, fb, cb)) {
            edges.push((fa, ca, fb, cb));
        }
    }
    let [(fa, ca, _, cb)] = edges.as_slice() else {
        return Err(FallbackReason::JoinShape);
    };
    let (lkey, rkey) = if *fa == 0 { (*ca, *cb) } else { (*cb, *ca) };
    // Pushdown mirror per side: single-frame conjuncts recompiled against
    // that side's own scan layout (resolution is innermost-first, so
    // removing the sibling frame cannot redirect a resolved reference).
    // Their texts go into the side's template: with the side's table
    // fixed, the text decides the compiled conjunct (a qualified column
    // names the side's own binding, an unqualified one only its column).
    let mut side_conjs = [Vec::new(), Vec::new()];
    for c in &conjuncts {
        let cc = compile(c, &layout);
        if !cc.slots_only() {
            continue;
        }
        let mut target = None;
        let mut single = true;
        cc.for_each_slot(&mut |up, frame, _| {
            if up == 0 {
                match target {
                    None => target = Some(frame),
                    Some(t) if t == frame => {}
                    Some(_) => single = false,
                }
            }
        });
        if !single {
            continue;
        }
        let side = match target {
            Some(0) => {
                left.conjs.push(compile(c, &Layout::of_table(db, ltid, &left.binding).1));
                0
            }
            Some(1) => {
                right.conjs.push(compile(c, &Layout::of_table(db, rtid, &right.binding).1));
                1
            }
            _ => continue,
        };
        side_conjs[side].push(c.to_string());
    }
    let key_ty = db.schema(ltid).columns[lkey].ty;
    let key_names =
        (db.schema(ltid).columns[lkey].name.clone(), db.schema(rtid).columns[rkey].name.clone());
    let side_template = |view: &ViewScan, key: &str, conjs: &[String]| {
        let mut text = format!("{} key {key}", view.describe());
        if !conjs.is_empty() {
            text.push_str(" where ");
            text.push_str(&conjs.join(" and "));
        }
        text
    };
    let side_templates = [
        side_template(&left, &key_names.0, &side_conjs[0]),
        side_template(&right, &key_names.1, &side_conjs[1]),
    ];
    Ok(IncTerm {
        kind: TermKind::Join {
            left,
            right,
            left_key: lkey,
            right_key: rkey,
            key_names,
            key_ty,
            pred,
            side_templates,
        },
        truth,
        template: sub.to_string(),
    })
}

/// Does the compiled conjunct reference at least one slot? (Slot-free
/// conjuncts are constants: the executor leaves them to the full
/// predicate, never the scan.)
fn has_slot(cc: &CompiledExpr) -> bool {
    let mut any = false;
    cc.for_each_slot(&mut |_, _, _| any = true);
    any
}

#[cfg(test)]
mod tests {
    use super::*;
    use setrules_sql::parse_expr;
    use setrules_storage::{ColumnDef, DataType, TableSchema};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "emp",
            vec![
                ColumnDef::new("name", DataType::Text),
                ColumnDef::new("emp_no", DataType::Int),
                ColumnDef::new("salary", DataType::Float),
            ],
        ))
        .unwrap();
        db.create_table(TableSchema::new(
            "dept",
            vec![
                ColumnDef::new("dept_no", DataType::Int),
                ColumnDef::new("head", DataType::Text),
            ],
        ))
        .unwrap();
        db
    }

    fn allow_all(_: TransitionKind, _: &str, _: Option<&str>) -> bool {
        true
    }

    fn plan(src: &str) -> Result<IncrementalPlan, FallbackReason> {
        analyze(&db(), &parse_expr(src).unwrap(), &allow_all)
    }

    /// One empty memo per term; tests populate them by hand.
    fn memos_for(p: &IncrementalPlan) -> Vec<TermMemo> {
        p.terms.iter().map(TermMemo::empty_for).collect()
    }

    /// Evaluate over the memos as they stand (no refresh work).
    fn eval_over(p: &IncrementalPlan, memos: &[TermMemo]) -> Result<EvalOutcome, QueryError> {
        p.evaluate(&mut |i, t| Ok((TermRefresh::default(), t.truth(&memos[i])?)))
    }

    fn truth_of(p: &IncrementalPlan, memos: &[TermMemo]) -> bool {
        match eval_over(p, memos).unwrap().verdict {
            CondVerdict::Truth(t) => t,
            CondVerdict::Degrade(l) => panic!("unexpected degrade {l}"),
        }
    }

    #[test]
    fn accepts_exists_and_count_combinations() {
        let p = plan(
            "exists (select * from inserted emp where salary > 100.0) \
             and not (select count(*) from deleted emp) > 3",
        )
        .unwrap();
        assert_eq!(p.terms.len(), 2);
        assert!(matches!(p.terms[0].truth, TermTruth::Exists { negated: false }));
        assert!(matches!(
            p.terms[0].kind,
            TermKind::Set { view: ViewScan { kind: TransitionKind::Inserted, .. }, .. }
        ));
        assert!(matches!(p.terms[1].truth, TermTruth::Count { op: BinaryOp::Gt, .. }));
    }

    #[test]
    fn mirrors_reversed_count_comparison() {
        let p = plan("3 < (select count(*) from inserted emp)").unwrap();
        // `3 < count` ⇔ `count > 3`.
        assert!(matches!(p.terms[0].truth, TermTruth::Count { op: BinaryOp::Gt, .. }));
    }

    #[test]
    fn accepts_two_view_equality_join() {
        let p = plan(
            "exists (select * from inserted emp e, deleted dept d \
             where e.emp_no = d.dept_no and e.salary > 10.0)",
        )
        .unwrap();
        let TermKind::Join { left, right, left_key, right_key, key_ty, .. } =
            &p.terms[0].kind
        else {
            panic!("expected join term");
        };
        assert_eq!(left.table, "emp");
        assert_eq!(right.table, "dept");
        assert_eq!(*left_key, 1);
        assert_eq!(*right_key, 0);
        assert_eq!(*key_ty, DataType::Int);
        // The salary conjunct landed in the left side's pushdown mirror.
        assert_eq!(left.conjs.len(), 1);
        // The key-equality conjuncts are single-frame on neither side.
        assert_eq!(right.conjs.len(), 0);
    }

    #[test]
    fn accepts_count_over_join_and_reversed_edge() {
        let p = plan(
            "(select count(*) from inserted emp e, inserted dept d \
             where d.dept_no = e.emp_no) >= 2",
        )
        .unwrap();
        let TermKind::Join { left_key, right_key, .. } = &p.terms[0].kind else {
            panic!("expected join term");
        };
        // Edge written `d.dept_no = e.emp_no`: frames normalize so the
        // left key is emp's column.
        assert_eq!(*left_key, 1);
        assert_eq!(*right_key, 0);
    }

    #[test]
    fn accepts_aggregate_thresholds() {
        let p = plan(
            "(select sum(emp_no) from inserted emp) > 10 \
             and (select min(emp_no) from deleted emp where emp_no > 0) < 5 \
             and 2.5 < (select avg(emp_no) from new updated emp.emp_no) \
             and (select max(emp_no) from old updated emp) >= 7",
        )
        .unwrap();
        assert_eq!(p.terms.len(), 4);
        let funcs: Vec<AccFunc> = p
            .terms
            .iter()
            .map(|t| match &t.kind {
                TermKind::Acc { func, .. } => *func,
                k => panic!("expected acc term, got {k:?}"),
            })
            .collect();
        assert_eq!(funcs, vec![AccFunc::Sum, AccFunc::Min, AccFunc::Avg, AccFunc::Max]);
        // `2.5 < avg` mirrored to `avg > 2.5`.
        assert!(matches!(p.terms[2].truth, TermTruth::Agg { op: BinaryOp::Gt, .. }));
    }

    #[test]
    fn templates_ignore_the_compared_literal_only() {
        let p = plan(
            "(select sum(emp_no) from inserted emp) > 10 \
             and 3 > (select sum(emp_no) from inserted emp) \
             and exists (select * from inserted emp where emp_no > 1) \
             and exists (select * from inserted emp where emp_no > 2)",
        )
        .unwrap();
        let t: Vec<&str> = p.terms.iter().map(|t| t.template.as_str()).collect();
        assert_eq!(t[0], "select sum(emp_no) from inserted emp");
        assert_eq!(t[0], t[1], "the literal stays with the truth, not the template");
        assert_ne!(t[2], t[3], "a literal inside `where` is part of the template");
    }

    #[test]
    fn fallback_taxonomy() {
        let reason = |src: &str| plan(src).unwrap_err();
        assert_eq!(reason("salary > 10.0"), FallbackReason::Shape);
        assert_eq!(
            reason("exists (select * from emp)"),
            FallbackReason::StoredTable("emp".into())
        );
        // Two views without an equality key: cross join.
        assert_eq!(
            reason("exists (select * from inserted emp, deleted dept)"),
            FallbackReason::JoinShape
        );
        // Non-equi cross predicate only.
        assert_eq!(
            reason(
                "exists (select * from inserted emp e, deleted dept d \
                 where e.emp_no < d.dept_no)"
            ),
            FallbackReason::JoinShape
        );
        // Float keys never hash.
        assert_eq!(
            reason(
                "exists (select * from inserted emp e, deleted emp d \
                 where e.salary = d.salary)"
            ),
            FallbackReason::JoinShape
        );
        // Aggregates over joins are not accumulated.
        assert_eq!(
            reason(
                "(select sum(e.emp_no) from inserted emp e, deleted dept d \
                 where e.emp_no = d.dept_no) > 0"
            ),
            FallbackReason::JoinShape
        );
        assert_eq!(
            reason("exists (select * from selected emp)"),
            FallbackReason::SelectedWindow
        );
        assert_eq!(
            reason("exists (select * from inserted emp order by emp_no)"),
            FallbackReason::SubqueryShape
        );
        assert_eq!(
            reason("exists (select count(*) from inserted emp)"),
            FallbackReason::Projection
        );
        assert_eq!(
            reason(
                "exists (select * from inserted emp \
                 where emp_no in (select emp_no from deleted emp))"
            ),
            FallbackReason::Predicate
        );
        assert_eq!(
            reason("(select count(*) from inserted emp) = 'three'"),
            FallbackReason::AggComparison
        );
        assert_eq!(
            reason("(select sum(salary) from inserted emp) > 0"),
            FallbackReason::FloatAccumulator
        );
        assert_eq!(
            reason("(select sum(name) from inserted emp) > 0"),
            FallbackReason::AggArgument
        );
        assert_eq!(
            reason("(select count(emp_no) from inserted emp) > 0"),
            FallbackReason::AggArgument
        );
        assert_eq!(
            reason("exists (select * from inserted nosuch)"),
            FallbackReason::UnknownReference("inserted nosuch".into())
        );
        let deny = |_: TransitionKind, _: &str, _: Option<&str>| false;
        assert_eq!(
            analyze(&db(), &parse_expr("exists (select * from inserted emp)").unwrap(), &deny)
                .unwrap_err(),
            FallbackReason::Unlicensed("inserted emp".into())
        );
    }

    #[test]
    fn fallback_labels_are_unique() {
        let reasons = [
            FallbackReason::Shape,
            FallbackReason::StoredTable("t".into()),
            FallbackReason::JoinShape,
            FallbackReason::SelectedWindow,
            FallbackReason::SubqueryShape,
            FallbackReason::Projection,
            FallbackReason::Predicate,
            FallbackReason::AggComparison,
            FallbackReason::FloatAccumulator,
            FallbackReason::AggArgument,
            FallbackReason::Unlicensed("r".into()),
            FallbackReason::UnknownReference("r".into()),
        ];
        let labels: BTreeSet<&str> = reasons.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), reasons.len(), "labels must be distinct");
        assert!(!labels.contains(SUM_OVERFLOW_GUARD), "dynamic label must not collide");
    }

    #[test]
    fn truth_over_memo() {
        let p = plan(
            "exists (select * from inserted emp) \
             or (select count(*) from deleted emp) >= 2",
        )
        .unwrap();
        let mut memo = memos_for(&p);
        assert!(!truth_of(&p, &memo));
        let TermMemo::Set(s) = &mut memo[1] else { panic!() };
        s.insert(TupleHandle(1));
        assert!(!truth_of(&p, &memo), "count 1 < 2 and no inserts");
        let TermMemo::Set(s) = &mut memo[1] else { panic!() };
        s.insert(TupleHandle(2));
        assert!(truth_of(&p, &memo), "count reached 2");
        let TermMemo::Set(s) = &mut memo[1] else { panic!() };
        s.clear();
        let TermMemo::Set(s) = &mut memo[0] else { panic!() };
        s.insert(TupleHandle(3));
        assert!(truth_of(&p, &memo), "exists arm");
    }

    #[test]
    fn lazy_refresh_short_circuits_like_the_executor() {
        let p = plan(
            "exists (select * from inserted emp) \
             and (select count(*) from deleted emp) >= 1",
        )
        .unwrap();
        let memo = memos_for(&p);
        // Left term empty ⇒ `false and …` never refreshes the right term.
        let mut touched = Vec::new();
        let out = p
            .evaluate(&mut |i, t| {
                touched.push(i);
                Ok((TermRefresh { rebuilt: true, ..Default::default() }, t.truth(&memo[i])?))
            })
            .unwrap();
        assert_eq!(out.verdict, CondVerdict::Truth(false));
        assert_eq!(touched, vec![0], "right term must not be refreshed");
        assert_eq!(out.rebuilt, 1);
    }

    #[test]
    fn aggregate_truth_is_three_valued() {
        // Empty window: sum is NULL, NULL > 0 is not-true, and
        // `not (NULL > 0)` is *also* not-true — Kleene, not classical.
        let p = plan("not (select sum(emp_no) from inserted emp) > 0").unwrap();
        let mut memo = memos_for(&p);
        assert!(!truth_of(&p, &memo), "not NULL is NULL, not true");
        let TermMemo::Acc(a) = &mut memo[0] else { panic!() };
        a.insert(TupleHandle(1), 5);
        assert!(!truth_of(&p, &memo), "5 > 0 holds, negated");
        let TermMemo::Acc(a) = &mut memo[0] else { panic!() };
        a.insert(TupleHandle(1), -5);
        assert!(truth_of(&p, &memo), "replaced contribution flips the sum");
    }

    #[test]
    fn accumulator_repairs_extremum_deletion() {
        let p = plan("(select max(emp_no) from inserted emp) >= 9").unwrap();
        let mut memo = memos_for(&p);
        let TermMemo::Acc(a) = &mut memo[0] else { panic!() };
        a.insert(TupleHandle(1), 9);
        a.insert(TupleHandle(2), 9);
        a.insert(TupleHandle(3), 4);
        assert!(truth_of(&p, &memo));
        let TermMemo::Acc(a) = &mut memo[0] else { panic!() };
        a.remove(TupleHandle(1));
        assert!(truth_of(&p, &memo), "duplicate extremum survives one removal");
        let TermMemo::Acc(a) = &mut memo[0] else { panic!() };
        a.remove(TupleHandle(2));
        assert_eq!(a.sum, 4);
        assert!(!truth_of(&p, &memo), "max fell to 4 without any rescan");
    }

    #[test]
    fn sum_overflow_guard_degrades_only_when_order_matters() {
        let p = plan("(select sum(emp_no) from inserted emp) > 0").unwrap();
        let mut memo = memos_for(&p);
        let TermMemo::Acc(a) = &mut memo[0] else { panic!() };
        a.insert(TupleHandle(1), i64::MAX);
        a.insert(TupleHandle(2), i64::MAX);
        a.insert(TupleHandle(3), -i64::MAX);
        // Total fits i64 but pos escapes: order decides, so degrade.
        match eval_over(&p, &memo).unwrap().verdict {
            CondVerdict::Degrade(l) => assert_eq!(l, SUM_OVERFLOW_GUARD),
            v => panic!("expected degrade, got {v:?}"),
        }
        // Total overflows: every order errors, exactly like the fold.
        let TermMemo::Acc(a) = &mut memo[0] else { panic!() };
        a.remove(TupleHandle(3));
        let err = eval_over(&p, &memo).unwrap_err();
        assert!(err.to_string().contains("integer overflow in sum"), "{err}");
        // Comfortably inside i64: authoritative truth.
        let TermMemo::Acc(a) = &mut memo[0] else { panic!() };
        a.remove(TupleHandle(1));
        a.remove(TupleHandle(2));
        a.insert(TupleHandle(4), 41);
        assert!(truth_of(&p, &memo));
    }

    #[test]
    fn join_memo_tracks_pairs() {
        let p = plan(
            "(select count(*) from inserted emp e, deleted dept d \
             where e.emp_no = d.dept_no) >= 2",
        )
        .unwrap();
        let mut memo = memos_for(&p);
        let TermMemo::Join(j) = &mut memo[0] else { panic!() };
        j.add_pair(TupleHandle(1), TupleHandle(8));
        j.add_pair(TupleHandle(1), TupleHandle(9));
        assert!(truth_of(&p, &memo));
        let TermMemo::Join(j) = &mut memo[0] else { panic!() };
        j.purge_left(TupleHandle(1));
        assert!(j.pairs.is_empty());
        assert!(!truth_of(&p, &memo));
    }

    #[test]
    fn join_side_templates_name_view_pushdown_and_key() {
        let sides = |src: &str| {
            let p = plan(src).unwrap();
            let [(_, l), (_, r)] = p.terms[0].join_sides().unwrap();
            (l.to_string(), r.to_string())
        };
        let a = sides(
            "exists (select * from inserted emp e, deleted dept d \
             where e.emp_no = d.dept_no and d.head = 'x' and e.salary > d.dept_no)",
        );
        let b = sides(
            "exists (select * from inserted emp e, deleted dept d \
             where e.emp_no = d.dept_no and d.head = 'y')",
        );
        // The cross conjunct stays with the pair predicate: both left
        // sides are the same alpha memory, the right pushdowns differ.
        assert_eq!(a.0, "inserted emp key emp_no");
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, "deleted dept key dept_no where (d.head = 'x')");
        assert_ne!(a.1, b.1);
        assert!(plan("exists (select * from inserted emp)").unwrap().terms[0]
            .join_sides()
            .is_none());
        let mut side = JoinSide::default();
        side.insert(TupleHandle(1), Value::Int(7));
        side.insert(TupleHandle(2), Value::Int(7));
        side.insert(TupleHandle(1), Value::Int(8));
        assert_eq!(side.by_key[&Value::Int(7)].len(), 1);
        side.remove(TupleHandle(2));
        assert!(!side.by_key.contains_key(&Value::Int(7)));
        assert!(side.approx_bytes() > 0);
    }

    #[test]
    fn join_side_probe_mirrors_scan_and_hash() {
        let p = plan(
            "exists (select * from inserted emp e, deleted emp d \
             where e.emp_no = d.emp_no and e.name = 'k')",
        )
        .unwrap();
        let t = &p.terms[0];
        let keyed = vec![Value::Text("k".into()), Value::Int(3), Value::Null];
        let filtered = vec![Value::Text("x".into()), Value::Int(3), Value::Null];
        let null_key = vec![Value::Text("k".into()), Value::Null, Value::Null];
        assert_eq!(t.probe_join_side(true, &keyed), Some(Value::Int(3)));
        assert_eq!(t.probe_join_side(true, &filtered), None, "pushdown drops it");
        assert_eq!(t.probe_join_side(true, &null_key), None, "NULL keys never hash");
        // The right side carries no name conjunct.
        assert_eq!(t.probe_join_side(false, &filtered), Some(Value::Int(3)));
        // Pair probe evaluates the full predicate.
        assert!(t.probe_join_pair(&keyed, &filtered).unwrap());
        assert!(!t.probe_join_pair(&filtered, &keyed).unwrap());
    }

    #[test]
    fn set_probe_applies_prefilter_then_full_predicate() {
        // Division can error; the prefilter's definite-false conjunct
        // must drop the row before the error is ever raised — exactly the
        // scan's drop-on-false / keep-on-error rule.
        let p = plan(
            "exists (select * from inserted emp \
             where emp_no > 0 and 10 / emp_no > 2)",
        )
        .unwrap();
        let t = &p.terms[0];
        let ok = vec![Value::Text("a".into()), Value::Int(2), Value::Null];
        let dropped = vec![Value::Text("b".into()), Value::Int(-1), Value::Null];
        let zero = vec![Value::Text("c".into()), Value::Int(0), Value::Null];
        assert!(t.probe_set(&ok).unwrap());
        assert!(!t.probe_set(&dropped).unwrap(), "10 / -1 = -10 fails the full predicate");
        assert!(
            !t.probe_set(&zero).unwrap(),
            "emp_no > 0 is definite false: dropped before the division errors"
        );
    }

    #[test]
    fn row_probe_applies_where_truth() {
        let p = plan("exists (select * from inserted emp where salary > 100.0)").unwrap();
        let t = &p.terms[0];
        let row_hi = vec![Value::Text("a".into()), Value::Int(1), Value::Float(150.0)];
        let row_lo = vec![Value::Text("b".into()), Value::Int(2), Value::Float(50.0)];
        let row_null = vec![Value::Text("c".into()), Value::Int(3), Value::Null];
        assert!(t.probe_set(&row_hi).unwrap());
        assert!(!t.probe_set(&row_lo).unwrap());
        assert!(!t.probe_set(&row_null).unwrap(), "NULL comparison is not true");
    }

    #[test]
    fn describe_names_views_truth_forms_and_memos() {
        let p = plan(
            "not exists (select * from new updated emp.salary where salary > 0.0) \
             and (select count(*) from deleted emp) = 0 \
             and exists (select * from inserted emp e, deleted dept d \
                         where e.emp_no = d.dept_no) \
             and (select sum(emp_no) from inserted emp where emp_no > 0) > 10 \
             and (select min(emp_no) from deleted emp) < 3",
        )
        .unwrap();
        let d = p.describe();
        assert!(
            d.contains(
                "not exists [new updated emp.salary where <row-local>; memo: match-set]"
            ),
            "{d}"
        );
        assert!(d.contains("count = 0 [deleted emp; memo: match-set]"), "{d}");
        assert!(
            d.contains(
                "exists [inserted emp join deleted dept on emp_no = dept_no (int); \
                 memo: join-memory]"
            ),
            "{d}"
        );
        assert!(
            d.contains(
                "sum(emp_no) > 10 [inserted emp where <row-local>; memo: sum/count accumulator]"
            ),
            "{d}"
        );
        assert!(d.contains("min(emp_no) < 3 [deleted emp; memo: ordered multiset]"), "{d}");
    }

    #[test]
    fn memo_accounting_counts_entries() {
        let p = plan(
            "exists (select * from inserted emp) \
             and (select sum(emp_no) from deleted emp) > 0",
        )
        .unwrap();
        let mut memo = memos_for(&p);
        let entries = |m: &[TermMemo]| m.iter().map(TermMemo::entries).sum::<usize>();
        assert_eq!(entries(&memo), 0);
        let TermMemo::Set(s) = &mut memo[0] else { panic!() };
        s.insert(TupleHandle(1));
        s.insert(TupleHandle(2));
        let TermMemo::Acc(a) = &mut memo[1] else { panic!() };
        a.insert(TupleHandle(3), 7);
        assert_eq!(entries(&memo), 3);
        assert!(memo.iter().map(TermMemo::approx_bytes).sum::<usize>() > 0);
    }
}
