//! Access-path selection: the one optimization the paper's argument needs.
//!
//! §1: set-oriented rules keep relational optimization applicable, and that
//! optimization "is directly applicable to the rules themselves". We
//! implement the representative cases: an equality predicate on an indexed
//! column turns a full scan into an index probe, and range-shaped
//! predicates (`<`, `<=`, `>`, `>=`, `between`) on an *ordered*-indexed
//! column turn into a single BTree range scan — whether the scan comes
//! from a user query or from the body of a rule. Benchmarks B7 and B12
//! measure the effects. The select plan (`plan.rs`) may upgrade a sole
//! item's full scan, or its range on the `order by` key, to a key-order
//! walk ([`Access::IndexOrder`]) or a min/max boundary probe
//! ([`Access::IndexBoundary`]); [`scan_handles`] serves those too.

use std::collections::HashSet;
use std::ops::Bound;
use std::sync::Arc;

use setrules_sql::ast::{BinaryOp, Expr, SelectStmt};
use setrules_storage::{ColumnId, DataType, Database, OrderedIndex, TableId, TupleHandle, Value};

use crate::compile::{compile, eval_const, CompiledExpr, Layout};
use crate::ctx::QueryCtx;
use crate::eval::memoized_subquery;

/// How a base-table `from` item will be scanned.
#[derive(Debug, Clone, PartialEq)]
pub enum Access {
    /// Scan every live tuple.
    FullScan,
    /// Probe the hash index on `column` for `value`.
    IndexEq {
        /// The indexed column.
        column: ColumnId,
        /// The probe value (already coerced to the column type).
        value: Value,
    },
    /// Probe the index on `column` once per value of a `col in (...)`
    /// list, or once per distinct value of an uncorrelated
    /// `col in (select ...)` (the semi-join access).
    IndexIn {
        /// The indexed column.
        column: ColumnId,
        /// Deduplicated probe values (already coerced to the column type).
        values: Vec<Value>,
        /// Whether the values are a subquery's result rather than literals.
        from_subquery: bool,
    },
    /// Scan the *ordered* index on `column` for keys within `[lo, hi]`
    /// (storage total order; bounds already coerced to the column type and
    /// normalized to exclude `NULL` and NaN buckets).
    IndexRange {
        /// The ordered-indexed column.
        column: ColumnId,
        /// Lower bound of the key interval.
        lo: Bound<Value>,
        /// Upper bound of the key interval.
        hi: Bound<Value>,
    },
    /// The predicate can never be true for any tuple (e.g. `c = NULL`,
    /// an equality with a fractional float on an int column, or a range
    /// with a `NULL`/NaN bound or a provably empty interval).
    Empty,
    /// Walk the *ordered* index on `column` in key order — the whole
    /// index, NULL bucket first, or the key interval `range` — so the
    /// rows arrive already sorted by the statement's sole `order by` key.
    /// Descending order reverses the bucket order only; handles inside a
    /// bucket stay ascending. The plan's upgrade of a full scan or of a
    /// range on the key itself; never chosen by [`choose_access`].
    IndexOrder {
        /// The ordered-indexed `order by` column.
        column: ColumnId,
        /// Ascending key order.
        asc: bool,
        /// The key interval walked, as [`Access::IndexRange`] bounds it;
        /// `None` walks the whole index.
        range: Option<(Bound<Value>, Bound<Value>)>,
        /// Stop after this many handles: the `limit`, when no row past it
        /// can raise an error.
        stop: Option<usize>,
    },
    /// The first handle of each listed column's boundary bucket — the
    /// smallest non-`NULL` key for `min` (`true`), the largest for `max`
    /// — deduplicated, in handle order: the rows that hold each column's
    /// extreme, enough for the aggregate fold over them to answer bare
    /// `min`/`max` calls. The plan's upgrade of a full scan; never chosen
    /// by [`choose_access`].
    IndexBoundary {
        /// Per bare `min`/`max` call: its ordered-indexed column and
        /// whether it is `min`.
        ends: Vec<(ColumnId, bool)>,
    },
}

impl Access {
    /// Selectivity rank for comparing candidate paths: lower is better.
    fn rank(&self) -> u8 {
        match self {
            Access::Empty => 0,
            Access::IndexEq { .. } => 1,
            Access::IndexIn { .. } => 2,
            Access::IndexRange { .. } => 3,
            Access::FullScan | Access::IndexOrder { .. } | Access::IndexBoundary { .. } => 4,
        }
    }
}

/// Choose an access path for scanning `table` bound as `binding`, given the
/// query's `where` predicate.
///
/// Top-level `and`-conjuncts of five shapes are considered: `col = const`
/// (either operand order), `col in (const, ...)`, `col in (select ...)`
/// with an uncorrelated subquery (evaluated here, once, through the
/// statement's subquery memo — see [`in_subquery_candidate`]), comparisons
/// `col < / <= / > / >= const` (either operand order), and `col between
/// const and const`. Comparison and `between` conjuncts on the same column
/// are intersected into a single key interval, served by an *ordered*
/// index when one exists. Unqualified column names are only trusted when this is
/// the sole `from` item (`sole_item`) — otherwise the name might belong to
/// a different item. The full predicate is still re-checked per row by the
/// executor, so a missed opportunity costs time, never correctness. When
/// several conjuncts are usable the most selective shape wins (empty >
/// equality probe > multi-probe > range scan > full scan).
pub fn choose_access(
    ctx: QueryCtx<'_>,
    table: TableId,
    binding: &str,
    sole_item: bool,
    predicate: Option<&Expr>,
) -> Access {
    let Some(pred) = predicate else {
        return Access::FullScan;
    };
    let schema = ctx.db.schema(table);
    let mut conjuncts = Vec::new();
    collect_conjuncts(pred, &mut conjuncts);
    let mut best = Access::FullScan;
    // Key intervals accumulated across range-shaped conjuncts, one entry
    // per column in first-seen order (keeps plans deterministic).
    let mut ranges: Vec<(ColumnId, Bound<Value>, Bound<Value>)> = Vec::new();
    for c in conjuncts {
        let candidate = match c {
            Expr::Binary { left, op: BinaryOp::Eq, right } => {
                eq_candidate(ctx, schema, table, binding, sole_item, left, right)
            }
            Expr::Binary { left, op, right }
                if matches!(
                    op,
                    BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq
                ) =>
            {
                note_comparison(ctx, schema, table, binding, sole_item, left, *op, right, &mut ranges)
                    .then_some(Access::Empty)
            }
            Expr::InList { expr, list, negated: false } => {
                in_candidate(ctx, schema, table, binding, sole_item, expr, list)
            }
            Expr::InSubquery { expr, subquery, negated: false } => {
                in_subquery_candidate(ctx, schema, table, binding, sole_item, expr, subquery)
            }
            Expr::Between { expr, low, high, negated: false } => {
                note_between(ctx, schema, table, binding, sole_item, expr, low, high, &mut ranges)
                    .then_some(Access::Empty)
            }
            _ => None,
        };
        if let Some(cand) = candidate {
            if cand == Access::Empty {
                return Access::Empty; // nothing beats scanning zero rows
            }
            if cand.rank() < best.rank() {
                best = cand;
            }
        }
    }
    for (column, lo, hi) in ranges {
        // An empty interval means the range conjuncts contradict each
        // other — provably empty whether or not an index exists.
        if range_is_empty(&lo, &hi) {
            return Access::Empty;
        }
        if !ctx.db.has_ordered_index(table, column) {
            continue; // hash buckets have no key order to scan
        }
        let (lo, hi) = finalize_range(lo, hi, schema.column_type(column));
        let cand = Access::IndexRange { column, lo, hi };
        if cand.rank() < best.rank() {
            best = cand;
        }
    }
    best
}

/// The indexed column behind `col_side`, if it is a column reference
/// attributable to this `from` item with an index on it.
fn indexed_column(
    ctx: QueryCtx<'_>,
    schema: &setrules_storage::TableSchema,
    table: TableId,
    binding: &str,
    sole_item: bool,
    col_side: &Expr,
) -> Option<ColumnId> {
    let Expr::Column { qualifier, name } = col_side else {
        return None;
    };
    match qualifier.as_deref() {
        Some(q) if q == binding => {}
        None if sole_item => {}
        _ => return None,
    }
    let column = schema.column_id(name).ok()?;
    ctx.db.has_index(table, column).then_some(column)
}

/// Evaluate a constant expression to its value (`None`: not constant, or
/// evaluation fails — leave the error to per-row evaluation).
fn const_value(ctx: QueryCtx<'_>, e: &Expr) -> Option<Value> {
    if !is_constant(e) {
        return None;
    }
    eval_const(ctx, e).ok()
}

fn eq_candidate(
    ctx: QueryCtx<'_>,
    schema: &setrules_storage::TableSchema,
    table: TableId,
    binding: &str,
    sole_item: bool,
    left: &Expr,
    right: &Expr,
) -> Option<Access> {
    for (col_side, const_side) in [(left, right), (right, left)] {
        let Some(column) = indexed_column(ctx, schema, table, binding, sole_item, col_side) else {
            continue;
        };
        let Some(v) = const_value(ctx, const_side) else {
            continue;
        };
        // Never probe with NaN: the hash index stores NaN by bit pattern,
        // so a probe would *find* stored NaNs even though `= NaN` is
        // UNKNOWN for every row — fall back to the scan, whose per-row
        // predicate check gets the semantics right.
        if matches!(v, Value::Float(f) if f.is_nan()) {
            continue;
        }
        // A cross-domain value makes per-row evaluation raise a type
        // error that probing would swallow: no candidate.
        return Some(match probe_value(&v, schema.column_type(column)).ok()? {
            // `-0.0` and `0.0` are distinct index keys (bit-pattern
            // storage equality) but SQL-equal, so a zero probe must
            // cover both buckets.
            Some(Value::Float(0.0)) => Access::IndexIn {
                column,
                values: vec![Value::Float(-0.0), Value::Float(0.0)],
                from_subquery: false,
            },
            Some(value) => Access::IndexEq { column, value },
            None => Access::Empty,
        });
    }
    None
}

fn in_candidate(
    ctx: QueryCtx<'_>,
    schema: &setrules_storage::TableSchema,
    table: TableId,
    binding: &str,
    sole_item: bool,
    col_side: &Expr,
    list: &[Expr],
) -> Option<Access> {
    let column = indexed_column(ctx, schema, table, binding, sole_item, col_side)?;
    let items = list.iter().map(|item| const_value(ctx, item)).collect::<Option<Vec<_>>>()?;
    let values = probe_values(items.iter(), schema.column_type(column))?;
    Some(multi_probe(column, values, false))
}

/// The semi-join access: `col in (select ...)` over an indexed column
/// probes the index once per distinct subquery value instead of scanning
/// the table, so a rule action like Example 3.1's `delete from emp where
/// dept_no in (select dept_no from deleted dept)` costs what the
/// transition table costs, not what `emp` does.
///
/// The subquery is evaluated here, at plan time, through the statement's
/// subquery memo — the rows re-check the full predicate against that same
/// shared result, so it still runs once per statement. Anything that keeps
/// the memo from holding a result (no memo on the context, a correlated
/// subquery, an evaluation error) means "no candidate": the error, if any,
/// is left for the rows to raise, exactly as without this arm. The probe
/// is chosen only when there are fewer probes than table rows; an empty
/// table is not worth evaluating the subquery for.
fn in_subquery_candidate(
    ctx: QueryCtx<'_>,
    schema: &setrules_storage::TableSchema,
    table: TableId,
    binding: &str,
    sole_item: bool,
    col_side: &Expr,
    subquery: &Arc<SelectStmt>,
) -> Option<Access> {
    let column = indexed_column(ctx, schema, table, binding, sole_item, col_side)?;
    let rows = ctx.db.table(table).len();
    if rows == 0 {
        return None;
    }
    let result = memoized_subquery(ctx, subquery).ok()??;
    if result.rel.columns.len() != 1 {
        return None; // the rows raise the column-count error
    }
    let values = probe_values(result.rel.column0(), schema.column_type(column))?;
    (values.len() < rows).then(|| multi_probe(column, values, true))
}

/// The distinct index probes covering `col in (haystack)` for a column of
/// type `ty`, in first-seen order. `None`: some value is cross-domain, so
/// per-row evaluation would raise a type error that probing would swallow.
fn probe_values<'v>(haystack: impl Iterator<Item = &'v Value>, ty: DataType) -> Option<Vec<Value>> {
    let mut seen = HashSet::new();
    let mut values = Vec::new();
    let mut probe = |p: Value| {
        if seen.insert(p.clone()) {
            values.push(p);
        }
    };
    for v in haystack {
        match probe_value(v, ty).ok()? {
            // Comparable but unmatchable (NULL, NaN, fractional float vs
            // int): skip the probe; the row set is unaffected because
            // `where` only keeps rows where the predicate is *true*.
            None => {}
            // A zero float expands to both signed-zero buckets (see
            // `eq_candidate`); the pattern matches by numeric `==`, so it
            // covers `-0.0` as well.
            Some(Value::Float(0.0)) => {
                probe(Value::Float(-0.0));
                probe(Value::Float(0.0));
            }
            Some(p) => probe(p),
        }
    }
    Some(values)
}

fn multi_probe(column: ColumnId, values: Vec<Value>, from_subquery: bool) -> Access {
    if values.is_empty() {
        Access::Empty
    } else {
        Access::IndexIn { column, values, from_subquery }
    }
}

/// Note a comparison conjunct (`<`, `<=`, `>`, `>=`) in the per-column
/// range accumulator. Returns `true` when the conjunct can never be true
/// for any row (NULL/NaN bound), making the whole predicate provably empty.
#[allow(clippy::too_many_arguments)]
fn note_comparison(
    ctx: QueryCtx<'_>,
    schema: &setrules_storage::TableSchema,
    table: TableId,
    binding: &str,
    sole_item: bool,
    left: &Expr,
    op: BinaryOp,
    right: &Expr,
    ranges: &mut Vec<(ColumnId, Bound<Value>, Bound<Value>)>,
) -> bool {
    for (col_side, const_side, flipped) in [(left, right, false), (right, left, true)] {
        let Some(column) = indexed_column(ctx, schema, table, binding, sole_item, col_side) else {
            continue;
        };
        let Some(v) = const_value(ctx, const_side) else {
            continue;
        };
        // Orient the operator so the column sits on the left.
        let (is_lo, inclusive) = match (op, flipped) {
            (BinaryOp::Gt, false) | (BinaryOp::Lt, true) => (true, false), // col > v
            (BinaryOp::GtEq, false) | (BinaryOp::LtEq, true) => (true, true), // col >= v
            (BinaryOp::Lt, false) | (BinaryOp::Gt, true) => (false, false), // col < v
            _ => (false, true),                                            // col <= v
        };
        match coerce_bound(&v, schema.column_type(column), is_lo, inclusive) {
            BoundRes::Use(b) => add_bound(ranges, column, is_lo, b),
            BoundRes::Never => return true,
            BoundRes::Keep => {}
        }
        return false;
    }
    false
}

/// Note a non-negated `between` conjunct in the range accumulator.
/// Returns `true` when the conjunct is provably empty (NULL/NaN bound).
#[allow(clippy::too_many_arguments)]
fn note_between(
    ctx: QueryCtx<'_>,
    schema: &setrules_storage::TableSchema,
    table: TableId,
    binding: &str,
    sole_item: bool,
    col_side: &Expr,
    low: &Expr,
    high: &Expr,
    ranges: &mut Vec<(ColumnId, Bound<Value>, Bound<Value>)>,
) -> bool {
    let Some(column) = indexed_column(ctx, schema, table, binding, sole_item, col_side) else {
        return false;
    };
    let ty = schema.column_type(column);
    let (Some(lo_v), Some(hi_v)) = (const_value(ctx, low), const_value(ctx, high)) else {
        return false;
    };
    let lo_res = coerce_bound(&lo_v, ty, true, true);
    let hi_res = coerce_bound(&hi_v, ty, false, true);
    // A cross-domain bound disables the whole conjunct — even when the
    // other bound is NULL — so the per-row type error still surfaces.
    if matches!(lo_res, BoundRes::Keep) || matches!(hi_res, BoundRes::Keep) {
        return false;
    }
    match (lo_res, hi_res) {
        (BoundRes::Use(lo), BoundRes::Use(hi)) => {
            add_bound(ranges, column, true, lo);
            add_bound(ranges, column, false, hi);
            false
        }
        // A NULL/NaN bound makes the conjunct unknown-or-false for every
        // row, and `where` only keeps *true* — provably empty.
        _ => true,
    }
}

/// Result of coercing a range-bound constant to a column's stored type.
enum BoundRes {
    /// A usable bound in the storage total order.
    Use(Bound<Value>),
    /// The conjunct can never be true for any row (NULL or NaN bound, or
    /// a bound past the column domain's edge on the shrinking side).
    Never,
    /// Per-row evaluation could raise a type error; leave the conjunct to
    /// the executor and don't prefilter on it.
    Keep,
}

fn coerce_bound(v: &Value, ty: DataType, is_lo: bool, inclusive: bool) -> BoundRes {
    let mk = |v: Value| if inclusive { Bound::Included(v) } else { Bound::Excluded(v) };
    match (v, ty) {
        // Comparisons with NULL or NaN are UNKNOWN for every row, and
        // `where` only keeps *true*.
        (Value::Null, _) => BoundRes::Never,
        (Value::Float(f), _) if f.is_nan() => BoundRes::Never,
        (Value::Int(i), DataType::Int) => BoundRes::Use(mk(Value::Int(*i))),
        (Value::Float(f), DataType::Int) => {
            // Int-vs-float comparison widens to f64, so a bound beyond the
            // i64 range compares the same way against every stored int:
            // always-false on the shrinking side, no-constraint otherwise.
            if *f > i64::MAX as f64 {
                if is_lo {
                    BoundRes::Never
                } else {
                    BoundRes::Use(Bound::Unbounded)
                }
            } else if *f < i64::MIN as f64 {
                if is_lo {
                    BoundRes::Use(Bound::Unbounded)
                } else {
                    BoundRes::Never
                }
            } else if f.fract() == 0.0 {
                BoundRes::Use(mk(Value::Int(*f as i64)))
            } else if is_lo {
                // `col > 4.5` and `col >= 4.5` both mean `col >= 5`.
                BoundRes::Use(Bound::Included(Value::Int(f.ceil() as i64)))
            } else {
                BoundRes::Use(Bound::Included(Value::Int(f.floor() as i64)))
            }
        }
        (Value::Int(i), DataType::Float) => BoundRes::Use(float_bound(*i as f64, is_lo, inclusive)),
        (Value::Float(f), DataType::Float) => BoundRes::Use(float_bound(*f, is_lo, inclusive)),
        (Value::Text(s), DataType::Text) => BoundRes::Use(mk(Value::Text(s.clone()))),
        // Cross-domain bound: per-row comparison raises a type error that
        // a prefilter would swallow.
        _ => BoundRes::Keep,
    }
}

/// Build a float bound, normalizing signed zeros so the storage total
/// order (where `-0.0 < 0.0` as distinct index keys) agrees with SQL
/// comparison (where they are equal): an inclusive bound lands on the far
/// zero bucket, an exclusive bound on the near one, so both buckets end up
/// on the same side of the cut.
fn float_bound(f: f64, is_lo: bool, inclusive: bool) -> Bound<Value> {
    let f = if f == 0.0 {
        match (is_lo, inclusive) {
            (true, true) => -0.0,   // >= 0 keeps the -0.0 bucket
            (true, false) => 0.0,   // > 0 skips both zero buckets
            (false, true) => 0.0,   // <= 0 keeps the 0.0 bucket
            (false, false) => -0.0, // < 0 skips both zero buckets
        }
    } else {
        f
    };
    if inclusive {
        Bound::Included(Value::Float(f))
    } else {
        Bound::Excluded(Value::Float(f))
    }
}

/// Record one side of a column's key interval, keeping the tighter bound
/// when one is already recorded.
fn add_bound(
    ranges: &mut Vec<(ColumnId, Bound<Value>, Bound<Value>)>,
    column: ColumnId,
    is_lo: bool,
    b: Bound<Value>,
) {
    if matches!(b, Bound::Unbounded) {
        return; // no constraint to record
    }
    let entry = match ranges.iter_mut().find(|(c, _, _)| *c == column) {
        Some(e) => e,
        None => {
            ranges.push((column, Bound::Unbounded, Bound::Unbounded));
            ranges.last_mut().expect("just pushed")
        }
    };
    let side = if is_lo { &mut entry.1 } else { &mut entry.2 };
    *side = tighter(std::mem::replace(side, Bound::Unbounded), b, is_lo);
}

/// The tighter of two bounds on the same side of an interval: for lower
/// bounds the larger value wins, for upper bounds the smaller; at equal
/// values exclusion wins.
fn tighter(a: Bound<Value>, b: Bound<Value>, is_lo: bool) -> Bound<Value> {
    let pick_a = match (&a, &b) {
        (Bound::Unbounded, _) => false,
        (_, Bound::Unbounded) => true,
        (Bound::Included(va) | Bound::Excluded(va), Bound::Included(vb) | Bound::Excluded(vb)) => {
            match va.cmp(vb) {
                std::cmp::Ordering::Equal => matches!(a, Bound::Excluded(_)),
                std::cmp::Ordering::Greater => is_lo,
                std::cmp::Ordering::Less => !is_lo,
            }
        }
    };
    if pick_a {
        a
    } else {
        b
    }
}

/// Whether a key interval is provably empty. The coercions in
/// [`coerce_bound`] are exact w.r.t. SQL comparison on the column's
/// domain, so an empty interval means no stored value can satisfy all the
/// range conjuncts that produced it.
fn range_is_empty(lo: &Bound<Value>, hi: &Bound<Value>) -> bool {
    match (lo, hi) {
        (Bound::Unbounded, _) | (_, Bound::Unbounded) => false,
        (Bound::Included(a), Bound::Included(b)) => a > b,
        (Bound::Included(a), Bound::Excluded(b))
        | (Bound::Excluded(a), Bound::Included(b))
        | (Bound::Excluded(a), Bound::Excluded(b)) => a >= b,
    }
}

/// Normalize the open sides of a key interval for the BTree walk: skip the
/// `NULL` bucket (which sorts first) and, for float columns, the NaN
/// buckets (IEEE total order puts -NaN before -inf and +NaN after +inf).
/// Every skipped bucket is provably rejected by the range conjuncts
/// themselves — NULL and NaN compare UNKNOWN with any bound — so the
/// prefilter stays exact.
fn finalize_range(
    lo: Bound<Value>,
    hi: Bound<Value>,
    ty: DataType,
) -> (Bound<Value>, Bound<Value>) {
    let lo = match lo {
        Bound::Unbounded if ty == DataType::Float => {
            Bound::Included(Value::Float(f64::NEG_INFINITY))
        }
        Bound::Unbounded => Bound::Excluded(Value::Null),
        b => b,
    };
    let hi = match hi {
        Bound::Unbounded if ty == DataType::Float => Bound::Included(Value::Float(f64::INFINITY)),
        b => b,
    };
    (lo, hi)
}

/// Handles matching an access path, in handle order — except
/// [`Access::IndexOrder`], whose handles come in key order.
///
/// Index probes return handles in index-bucket order, so they are sorted
/// (and, for multi-probe paths, deduplicated) before returning — the
/// executor's determinism guarantee (`select.rs` module docs) requires
/// index-backed and full-scan plans to produce identical row order.
/// Range scans come back already sorted by the storage layer. The
/// key-order walk yields those handles stably sorted by the key — the
/// order the pipeline's sort would produce.
pub fn scan_handles(db: &Database, table: TableId, access: &Access) -> Vec<TupleHandle> {
    match access {
        Access::FullScan => db.table(table).handles().collect(),
        Access::IndexEq { column, value } => {
            let mut hs = db
                .index_lookup(table, *column, value)
                .expect("planner only chooses IndexEq when the index exists");
            hs.sort_unstable();
            hs
        }
        Access::IndexIn { column, values, .. } => {
            let mut hs = Vec::new();
            for v in values {
                hs.extend(
                    db.index_lookup(table, *column, v)
                        .expect("planner only chooses IndexIn when the index exists"),
                );
            }
            hs.sort_unstable();
            hs.dedup();
            hs
        }
        Access::IndexRange { column, lo, hi } => db
            .index_range(table, *column, lo.clone(), hi.clone())
            .expect("planner only chooses IndexRange when the ordered index exists"),
        Access::Empty => Vec::new(),
        Access::IndexOrder { column, asc, range, stop } => {
            let index = db.ordered_index(table, *column).expect("planned on an ordered index");
            let (lo, hi) = range.clone().unwrap_or((Bound::Unbounded, Bound::Unbounded));
            let buckets = index.range(lo, hi);
            let buckets: Box<dyn Iterator<Item = _>> =
                if *asc { buckets } else { Box::new(buckets.rev()) };
            let handles = buckets.flat_map(|(_, bucket)| bucket.iter().copied());
            handles.take(stop.unwrap_or(usize::MAX)).collect()
        }
        Access::IndexBoundary { ends } => {
            let index = |c| db.ordered_index(table, c).expect("planned on an ordered index");
            let mut hs: Vec<TupleHandle> =
                ends.iter().filter_map(|&(c, is_min)| boundary_handle(index(c), is_min)).collect();
            hs.sort_unstable();
            hs.dedup();
            hs
        }
    }
}

/// The first handle of the index's smallest (`is_min`) or largest
/// non-`NULL` key bucket; `None` when the index holds only `NULL`s.
/// `-0.0` and `0.0` are distinct keys but SQL-equal, and the aggregate
/// fold keeps the first-encountered (smallest-handle) value of a tied
/// pair, so a zero boundary takes the smaller of the two zero buckets'
/// first handles.
fn boundary_handle(index: &OrderedIndex, is_min: bool) -> Option<TupleHandle> {
    let key = if is_min { index.first_key() } else { index.last_key() }?;
    let first = |k: Value| index.get(&k).and_then(|bucket| bucket.first().copied());
    match key {
        Value::Float(f) if *f == 0.0 => {
            [-0.0, 0.0].into_iter().filter_map(|z| first(Value::Float(z))).min()
        }
        k => first(k.clone()),
    }
}

// ----------------------------------------------------------------------
// N-way join planning
// ----------------------------------------------------------------------

/// An equi-join connection between two `from` items, written as
/// `(item_a, col_a, item_b, col_b)`: a top-level `and`-conjunct
/// `a.col_a = b.col_b` whose columns share a non-float declared type.
pub type EquiEdge = (usize, usize, usize, usize);

/// One step of a [`JoinPlan`]: attach `item` to the already-joined prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinStep {
    /// The `from`-item index being attached.
    pub item: usize,
    /// Equi-join keys connecting `item` to already-placed items, as
    /// `(placed_item, placed_col, new_col)`. Empty = cross (nested-loop)
    /// step; non-empty = hash step on the composite key.
    pub edges: Vec<(usize, usize, usize)>,
}

/// A greedy join order over the `from` items: start from the most
/// selective item (fewest rows after access-path selection and predicate
/// pushdown), then repeatedly attach the smallest item reachable through
/// an equi-join edge, falling back to the smallest remaining item as a
/// cross step only when nothing connects. Hash probes are a sound
/// prefilter — the executor still evaluates the full predicate per
/// assembled combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPlan {
    /// The item the join starts from.
    pub first: usize,
    /// The remaining items, in attach order.
    pub steps: Vec<JoinStep>,
}

impl JoinPlan {
    /// Item indices in join order (`first`, then each step's item).
    pub fn order(&self) -> Vec<usize> {
        let mut o = Vec::with_capacity(1 + self.steps.len());
        o.push(self.first);
        o.extend(self.steps.iter().map(|s| s.item));
        o
    }
}

/// Extract the equi-join edges of `predicate` between the items of the
/// innermost `layout` level: conjuncts `col = col` whose two sides resolve
/// to *different* items of this query and share a non-float declared type.
/// Float keys are excluded so that storage-level hash equality provably
/// agrees with SQL equality (`-0.0`/`0.0` and NaN make floats unsafe as
/// hash keys).
pub fn equi_join_edges<T: AsRef<[DataType]>>(
    predicate: Option<&Expr>,
    layout: &Layout,
    types: &[T],
) -> Vec<EquiEdge> {
    let Some(pred) = predicate else {
        return Vec::new();
    };
    let mut conjuncts = Vec::new();
    collect_conjuncts(pred, &mut conjuncts);
    let mut edges = Vec::new();
    for c in conjuncts {
        let Expr::Binary { left, op: BinaryOp::Eq, right } = c else {
            continue;
        };
        if !matches!(left.as_ref(), Expr::Column { .. })
            || !matches!(right.as_ref(), Expr::Column { .. })
        {
            continue;
        }
        let (
            CompiledExpr::Slot { level_up: 0, frame: fa, col: ca },
            CompiledExpr::Slot { level_up: 0, frame: fb, col: cb },
        ) = (compile(left, layout), compile(right, layout))
        else {
            continue;
        };
        if fa == fb {
            continue;
        }
        let (ta, tb) = (types[fa].as_ref()[ca], types[fb].as_ref()[cb]);
        if ta == tb && ta != DataType::Float && !edges.contains(&(fa, ca, fb, cb)) {
            edges.push((fa, ca, fb, cb));
        }
    }
    edges
}

/// Build a greedy [`JoinPlan`] from per-item cardinalities and equi-join
/// edges. Ties break toward the lower item index, keeping plans
/// deterministic.
pub fn build_join_plan(cards: &[usize], edges: &[EquiEdge]) -> JoinPlan {
    let n = cards.len();
    assert!(n > 0, "join plan requires at least one from item");
    let by_size = |&i: &usize| (cards[i], i);
    let first = (0..n).min_by_key(by_size).expect("n > 0");
    let mut placed = vec![false; n];
    placed[first] = true;
    let mut steps = Vec::with_capacity(n - 1);
    for _ in 1..n {
        let connected = |i: usize| {
            edges
                .iter()
                .any(|&(a, _, b, _)| (placed[a] && b == i) || (placed[b] && a == i))
        };
        let next = (0..n)
            .filter(|&i| !placed[i] && connected(i))
            .min_by_key(by_size)
            .unwrap_or_else(|| {
                (0..n).filter(|&i| !placed[i]).min_by_key(by_size).expect("some item unplaced")
            });
        let mut step_edges: Vec<(usize, usize, usize)> = edges
            .iter()
            .filter_map(|&(a, ca, b, cb)| {
                if placed[a] && b == next {
                    Some((a, ca, cb))
                } else if placed[b] && a == next {
                    Some((b, cb, ca))
                } else {
                    None
                }
            })
            .collect();
        step_edges.sort_unstable();
        step_edges.dedup();
        placed[next] = true;
        steps.push(JoinStep { item: next, edges: step_edges });
    }
    JoinPlan { first, steps }
}

/// Flatten a predicate into its top-level `and`-conjuncts (shared with the
/// hash-join detector).
pub(crate) fn collect_conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let Expr::Binary { left, op: BinaryOp::And, right } = e {
        collect_conjuncts(left, out);
        collect_conjuncts(right, out);
    } else {
        out.push(e);
    }
}

/// Whether an expression is evaluable without row bindings, transition
/// tables, or the database (literals and arithmetic over them).
fn is_constant(e: &Expr) -> bool {
    match e {
        Expr::Literal(_) => true,
        Expr::Unary { expr, .. } => is_constant(expr),
        Expr::Binary { left, right, .. } => is_constant(left) && is_constant(right),
        _ => false,
    }
}

/// Coerce an equality or `in`-list probe value to the stored column type.
/// `Ok(None)`: the value can never match, but comparing it is well-defined
/// (`NULL`, fractional float vs int) — safe to skip. `Err(())`: per-row
/// comparison would raise a type error, so the probe cannot soundly
/// replace evaluation.
fn probe_value(v: &Value, ty: DataType) -> Result<Option<Value>, ()> {
    match (v, ty) {
        (Value::Null, _) => Ok(None),
        // NaN compares UNKNOWN with everything (never Equal), so like NULL
        // it can never make the membership test true — skip the probe
        // rather than hit bit-equal stored NaNs.
        (Value::Float(f), _) if f.is_nan() => Ok(None),
        (Value::Int(i), DataType::Float) => Ok(Some(Value::Float(*i as f64))),
        (Value::Float(f), DataType::Int) => {
            if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 {
                Ok(Some(Value::Int(*f as i64)))
            } else {
                Ok(None)
            }
        }
        (v, ty) if v.data_type() == Some(ty) => Ok(Some(v.clone())),
        _ => Err(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setrules_sql::parse_expr;
    use setrules_storage::{paper_example_schemas, Database, IndexKind};

    fn setup() -> (Database, TableId) {
        let mut db = Database::new();
        let (emp, _) = paper_example_schemas();
        let t = db.create_table(emp).unwrap();
        db.create_index(t, ColumnId(3)).unwrap(); // dept_no
        (db, t)
    }

    fn access(db: &Database, t: TableId, pred: &str, sole: bool) -> Access {
        let e = parse_expr(pred).unwrap();
        choose_access(QueryCtx::plain(db), t, "emp", sole, Some(&e))
    }

    #[test]
    fn picks_index_for_equality() {
        let (db, t) = setup();
        assert_eq!(
            access(&db, t, "dept_no = 5", true),
            Access::IndexEq { column: ColumnId(3), value: Value::Int(5) }
        );
        // Reversed operands too.
        assert_eq!(
            access(&db, t, "5 = dept_no", true),
            Access::IndexEq { column: ColumnId(3), value: Value::Int(5) }
        );
        // Constant arithmetic is folded.
        assert_eq!(
            access(&db, t, "dept_no = 2 + 3", true),
            Access::IndexEq { column: ColumnId(3), value: Value::Int(5) }
        );
    }

    #[test]
    fn finds_conjunct_inside_and() {
        let (db, t) = setup();
        assert_eq!(
            access(&db, t, "salary > 100 and dept_no = 5", true),
            Access::IndexEq { column: ColumnId(3), value: Value::Int(5) }
        );
    }

    #[test]
    fn falls_back_to_scan() {
        let (db, t) = setup();
        assert_eq!(access(&db, t, "salary = 100.0", true), Access::FullScan, "salary not indexed");
        assert_eq!(access(&db, t, "dept_no > 5", true), Access::FullScan, "not equality");
        assert_eq!(
            access(&db, t, "dept_no = 5 or salary > 1", true),
            Access::FullScan,
            "disjunction cannot use the probe"
        );
        assert_eq!(
            access(&db, t, "dept_no = salary", true),
            Access::FullScan,
            "rhs not constant"
        );
    }

    #[test]
    fn unqualified_requires_sole_item() {
        let (db, t) = setup();
        assert_eq!(access(&db, t, "dept_no = 5", false), Access::FullScan);
        assert_eq!(
            access(&db, t, "emp.dept_no = 5", false),
            Access::IndexEq { column: ColumnId(3), value: Value::Int(5) }
        );
    }

    #[test]
    fn impossible_probes_yield_empty() {
        let (db, t) = setup();
        assert_eq!(access(&db, t, "dept_no = NULL", true), Access::Empty);
        assert_eq!(access(&db, t, "dept_no = 2.5", true), Access::Empty);
        // A cross-domain value is not impossible but an error per row:
        // the scan keeps it.
        assert_eq!(access(&db, t, "dept_no = 'x'", true), Access::FullScan);
    }

    #[test]
    fn cross_type_probe_coerces() {
        let (db, t) = setup();
        assert_eq!(
            access(&db, t, "dept_no = 5.0", true),
            Access::IndexEq { column: ColumnId(3), value: Value::Int(5) }
        );
    }

    #[test]
    fn scan_handles_respects_access() {
        let (mut db, t) = setup();
        use setrules_storage::tuple;
        let h1 = db.insert(t, tuple!["a", 1, 1.0, 5]).unwrap();
        let _h2 = db.insert(t, tuple!["b", 2, 1.0, 6]).unwrap();
        let acc = access(&db, t, "dept_no = 5", true);
        assert_eq!(scan_handles(&db, t, &acc), vec![h1]);
        assert_eq!(scan_handles(&db, t, &Access::Empty), vec![]);
        assert_eq!(scan_handles(&db, t, &Access::FullScan).len(), 2);
    }

    #[test]
    fn picks_index_for_in_list() {
        let (db, t) = setup();
        assert_eq!(
            access(&db, t, "dept_no in (5, 7)", true),
            Access::IndexIn {
                column: ColumnId(3),
                values: vec![Value::Int(5), Value::Int(7)],
                from_subquery: false,
            }
        );
        // Inside a conjunction, with duplicate and folded values.
        assert_eq!(
            access(&db, t, "salary > 100 and dept_no in (5, 2 + 3, 7)", true),
            Access::IndexIn {
                column: ColumnId(3),
                values: vec![Value::Int(5), Value::Int(7)],
                from_subquery: false,
            }
        );
        // NULL and fractional items can never match: skipped, not probed.
        assert_eq!(
            access(&db, t, "dept_no in (5, NULL, 2.5)", true),
            Access::IndexIn {
                column: ColumnId(3),
                values: vec![Value::Int(5)],
                from_subquery: false,
            }
        );
        // Entirely unmatchable list: provably empty.
        assert_eq!(access(&db, t, "dept_no in (NULL, 2.5)", true), Access::Empty);
    }

    #[test]
    fn in_list_fallbacks() {
        let (db, t) = setup();
        assert_eq!(access(&db, t, "salary in (1.0, 2.0)", true), Access::FullScan, "not indexed");
        assert_eq!(
            access(&db, t, "dept_no not in (5, 7)", true),
            Access::FullScan,
            "negation cannot probe"
        );
        assert_eq!(
            access(&db, t, "dept_no in (5, emp_no)", true),
            Access::FullScan,
            "non-constant item"
        );
        // A cross-domain item would raise a per-row type error; probing
        // would swallow it.
        assert_eq!(access(&db, t, "dept_no in (5, 'x')", true), Access::FullScan);
        assert_eq!(access(&db, t, "dept_no in (5)", false), Access::FullScan, "not sole item");
    }

    /// `setup()` with four emp rows (dept_no 1, 1, 2, 3) and a `dept`
    /// table of (dept_no, mgr_no) rows (1, 10), (2, 20), (2, 21).
    fn setup_semi_join() -> (Database, TableId) {
        use setrules_storage::tuple;
        let (mut db, emp) = setup();
        let dept = db.create_table(paper_example_schemas().1).unwrap();
        for (i, d) in [1, 1, 2, 3].into_iter().enumerate() {
            db.insert(emp, tuple!["e", i as i64, 1.0, d]).unwrap();
        }
        for (d, m) in [(1, 10), (2, 20), (2, 21)] {
            db.insert(dept, tuple![d, m]).unwrap();
        }
        (db, emp)
    }

    #[test]
    fn picks_index_for_uncorrelated_in_subquery() {
        use crate::ctx::SubqueryCache;
        use crate::stats::StatsCell;
        let (mut db, t) = setup_semi_join();
        let plan = |db: &Database, pred: &str| {
            let (cache, stats) = (SubqueryCache::new(), StatsCell::new());
            let ctx = QueryCtx { cache: Some(&cache), stats: Some(&stats), ..QueryCtx::plain(db) };
            let e = parse_expr(pred).unwrap();
            let access = choose_access(ctx, t, "emp", true, Some(&e));
            // Planning again shares the memo's result instead of re-running.
            assert_eq!(choose_access(ctx, t, "emp", true, Some(&e)), access, "{pred}");
            (access, stats.snapshot().subquery_cache_misses)
        };
        let probes = |values: &[i64]| Access::IndexIn {
            column: ColumnId(3),
            values: values.iter().map(|v| Value::Int(*v)).collect(),
            from_subquery: true,
        };
        // Distinct values in first-seen order; one evaluation.
        assert_eq!(plan(&db, "dept_no in (select dept_no from dept)"), (probes(&[1, 2]), 1));
        assert_eq!(
            plan(&db, "salary > 0 and dept_no in (select dept_no from dept where mgr_no > 15)"),
            (probes(&[2]), 1)
        );
        // Float results coerce like in-list items: 2.0 probes 2; 0.5, NaN
        // and NULL can never equal an int and are skipped.
        assert_eq!(
            plan(&db, "dept_no in (select mgr_no / 10.0 from dept)"),
            (probes(&[1, 2]), 1),
            "1.0, 2.0, 2.1"
        );
        assert_eq!(plan(&db, "dept_no in (select 0.0 / 0.0 from dept)"), (Access::Empty, 1));
        assert_eq!(
            plan(&db, "dept_no in (select dept_no from dept where mgr_no > 99)"),
            (Access::Empty, 1),
            "an empty subquery matches nothing"
        );
        // An equality probe still beats the multi-probe.
        assert_eq!(
            plan(&db, "dept_no in (select dept_no from dept) and dept_no = 2").0,
            Access::IndexEq { column: ColumnId(3), value: Value::Int(2) }
        );

        // As many distinct probes as rows: the scan is no worse.
        assert_eq!(
            plan(&db, "dept_no in (select emp_no from emp)"),
            (Access::FullScan, 1),
            "4 probes, 4 rows"
        );
        // No candidate — and never an error — for: negation, a correlated
        // subquery, a failing one, a cross-domain value (the rows must
        // raise its type error), two columns, an unindexed outer column.
        for pred in [
            "dept_no not in (select dept_no from dept)",
            "dept_no in (select dept_no from dept where mgr_no = emp.emp_no)",
            "dept_no in (select 1 / 0 from dept)",
            "dept_no in (select 'x' from dept)",
            "dept_no in (select dept_no, mgr_no from dept)",
            "emp_no in (select dept_no from dept)",
        ] {
            assert_eq!(plan(&db, pred).0, Access::FullScan, "{pred}");
        }
        // ... nor without a statement memo to share the evaluation through.
        assert_eq!(access(&db, t, "dept_no in (select dept_no from dept)", true), Access::FullScan);
        // An empty table is never worth evaluating the subquery for.
        for h in db.table(t).handles().collect::<Vec<_>>() {
            db.delete(t, h).unwrap();
        }
        assert_eq!(plan(&db, "dept_no in (select dept_no from dept)"), (Access::FullScan, 0));
    }

    /// `setup()` plus an *ordered* index on `dept_no` (replacing the hash
    /// one) and on `salary`.
    fn setup_ordered() -> (Database, TableId) {
        let (mut db, t) = setup();
        db.drop_index(t, ColumnId(3));
        db.create_index_of(t, ColumnId(3), IndexKind::Ordered).unwrap(); // dept_no
        db.create_index_of(t, ColumnId(2), IndexKind::Ordered).unwrap(); // salary
        (db, t)
    }

    fn int_range(column: ColumnId, lo: Bound<i64>, hi: Bound<i64>) -> Access {
        Access::IndexRange {
            column,
            lo: lo.map(Value::Int),
            hi: hi.map(Value::Int),
        }
    }

    #[test]
    fn picks_range_for_between() {
        let (db, t) = setup_ordered();
        assert_eq!(
            access(&db, t, "dept_no between 5 and 7", true),
            int_range(ColumnId(3), Bound::Included(5), Bound::Included(7))
        );
        // An arbitrarily wide range is one BTree walk — no enumeration cap.
        assert_eq!(
            access(&db, t, "dept_no between 0 and 100000", true),
            int_range(ColumnId(3), Bound::Included(0), Bound::Included(100000))
        );
        // Fractional bounds tighten inward for int columns.
        assert_eq!(
            access(&db, t, "dept_no between 4.5 and 6.5", true),
            int_range(ColumnId(3), Bound::Included(5), Bound::Included(6))
        );
        // Inverted or NULL-bounded ranges are provably empty.
        assert_eq!(access(&db, t, "dept_no between 7 and 5", true), Access::Empty);
        assert_eq!(access(&db, t, "dept_no between NULL and 5", true), Access::Empty);
    }

    #[test]
    fn picks_range_for_comparisons() {
        let (db, t) = setup_ordered();
        // One-sided bounds leave the other side open; the int-column open
        // lower side starts just past the NULL bucket.
        assert_eq!(
            access(&db, t, "dept_no > 5", true),
            int_range(ColumnId(3), Bound::Excluded(5), Bound::Unbounded)
        );
        assert_eq!(
            access(&db, t, "5 < dept_no", true),
            int_range(ColumnId(3), Bound::Excluded(5), Bound::Unbounded),
            "flipped operand order"
        );
        assert_eq!(
            access(&db, t, "dept_no <= 7", true),
            Access::IndexRange {
                column: ColumnId(3),
                lo: Bound::Excluded(Value::Null),
                hi: Bound::Included(Value::Int(7)),
            }
        );
        // Conjuncts on the same column intersect to the tightest interval.
        assert_eq!(
            access(&db, t, "dept_no > 2 and dept_no <= 7 and dept_no >= 4", true),
            int_range(ColumnId(3), Bound::Included(4), Bound::Included(7))
        );
        // Contradictory conjuncts are provably empty.
        assert_eq!(access(&db, t, "dept_no > 5 and dept_no < 3", true), Access::Empty);
        assert_eq!(access(&db, t, "dept_no > 5 and dept_no <= 5", true), Access::Empty);
    }

    #[test]
    fn float_ranges_normalize_zeros_infinities_and_nan() {
        let (db, t) = setup_ordered();
        // `>= 0.0` must keep the -0.0 bucket (a distinct BTree key that is
        // SQL-equal to 0.0); the open upper side stops at +inf so stored
        // NaNs — which compare UNKNOWN with any bound — stay out.
        assert_eq!(
            access(&db, t, "salary >= 0.0", true),
            Access::IndexRange {
                column: ColumnId(2),
                lo: Bound::Included(Value::Float(-0.0)),
                hi: Bound::Included(Value::Float(f64::INFINITY)),
            }
        );
        assert_eq!(
            access(&db, t, "salary < 0.0", true),
            Access::IndexRange {
                column: ColumnId(2),
                lo: Bound::Included(Value::Float(f64::NEG_INFINITY)),
                hi: Bound::Excluded(Value::Float(-0.0)),
            },
            "< 0 skips both zero buckets; -inf itself is a legal stored value"
        );
        assert_eq!(
            access(&db, t, "salary > 0.0", true),
            Access::IndexRange {
                column: ColumnId(2),
                lo: Bound::Excluded(Value::Float(0.0)),
                hi: Bound::Included(Value::Float(f64::INFINITY)),
            },
            "> 0 starts past the 0.0 bucket (and the -0.0 bucket below it)"
        );
        // NaN bounds make the predicate provably empty.
        assert_eq!(access(&db, t, "salary > 0.0 / 0.0", true), Access::Empty);
        assert_eq!(access(&db, t, "salary between 1.0 and 0.0 / 0.0", true), Access::Empty);
    }

    #[test]
    fn zero_equality_probes_cover_both_signed_zero_buckets() {
        let (db, t) = setup_ordered();
        // `= 0.0` is true for stored `-0.0` too, but the index keys the
        // two zeros separately — the probe must cover both buckets.
        let both = Access::IndexIn {
            column: ColumnId(2),
            values: vec![Value::Float(-0.0), Value::Float(0.0)],
            from_subquery: false,
        };
        assert_eq!(access(&db, t, "salary = 0.0", true), both);
        assert_eq!(access(&db, t, "salary = -0.0", true), both);
        assert_eq!(
            access(&db, t, "salary in (0.0, 1.5)", true),
            Access::IndexIn {
                column: ColumnId(2),
                values: vec![Value::Float(-0.0), Value::Float(0.0), Value::Float(1.5)],
                from_subquery: false,
            }
        );
    }

    #[test]
    fn int_ranges_with_out_of_domain_float_bounds() {
        let (db, t) = setup_ordered();
        // Every int is below 1e300, so `>` can never hold and `<` always
        // does (the latter constrains nothing — scan, not a full-index walk).
        assert_eq!(access(&db, t, "dept_no > 1e300", true), Access::Empty);
        assert_eq!(access(&db, t, "dept_no < 1e300", true), Access::FullScan);
        assert_eq!(access(&db, t, "dept_no < -1e300", true), Access::Empty);
        // Int-column comparisons widen to f64: +inf behaves like 1e300.
        assert_eq!(access(&db, t, "dept_no >= 1e400", true), Access::Empty);
    }

    #[test]
    fn text_ranges_use_the_ordered_index() {
        let (mut db, t) = setup_ordered();
        db.create_index_of(t, ColumnId(0), IndexKind::Ordered).unwrap(); // name
        assert_eq!(
            access(&db, t, "name >= 'e' and name < 'f'", true),
            Access::IndexRange {
                column: ColumnId(0),
                lo: Bound::Included(Value::Text("e".into())),
                hi: Bound::Excluded(Value::Text("f".into())),
            }
        );
    }

    #[test]
    fn between_fallbacks() {
        let (db, t) = setup();
        // `setup()` has only a *hash* index on dept_no: no key order to
        // scan, so range-shaped predicates stay full scans...
        assert_eq!(access(&db, t, "dept_no between 5 and 7", true), Access::FullScan);
        assert_eq!(access(&db, t, "dept_no > 5 and dept_no < 7", true), Access::FullScan);
        // ...but provable emptiness doesn't need an index at all.
        assert_eq!(access(&db, t, "dept_no between 7 and 5", true), Access::Empty);
        assert_eq!(access(&db, t, "dept_no between NULL and 5", true), Access::Empty);
        let (db, t) = setup_ordered();
        assert_eq!(
            access(&db, t, "dept_no not between 5 and 7", true),
            Access::FullScan,
            "negation cannot use the range"
        );
        // Cross-domain bound: per-row evaluation must keep its type error.
        assert_eq!(access(&db, t, "dept_no between 'a' and 'b'", true), Access::FullScan);
        assert_eq!(access(&db, t, "dept_no between 'a' and NULL", true), Access::FullScan);
        assert_eq!(access(&db, t, "dept_no < 'a'", true), Access::FullScan);
        // Non-constant bound is left to the executor.
        assert_eq!(access(&db, t, "dept_no < emp_no", true), Access::FullScan);
    }

    #[test]
    fn equality_beats_range() {
        let (db, t) = setup_ordered();
        assert_eq!(
            access(&db, t, "dept_no > 1 and dept_no = 5", true),
            Access::IndexEq { column: ColumnId(3), value: Value::Int(5) }
        );
        // ...but a range beats a full scan even when another conjunct is
        // unusable.
        assert_eq!(
            access(&db, t, "name like 'e%' and dept_no > 1", true),
            int_range(ColumnId(3), Bound::Excluded(1), Bound::Unbounded)
        );
    }

    #[test]
    fn range_scan_handles_are_sorted_and_exclude_null() {
        let (mut db, t) = setup_ordered();
        use setrules_storage::tuple;
        // Insert out of key order so bucket order differs from handle order.
        let h7 = db.insert(t, tuple!["a", 1, 1.0, 7]).unwrap();
        let h5a = db.insert(t, tuple!["b", 2, 1.0, 5]).unwrap();
        let _h9 = db.insert(t, tuple!["c", 3, 1.0, 9]).unwrap();
        let h5b = db.insert(t, tuple!["d", 4, 1.0, 5]).unwrap();
        let hnull = db.insert(t, tuple!["e", 5, 1.0, Value::Null]).unwrap();
        let acc = access(&db, t, "dept_no between 5 and 7", true);
        assert!(matches!(acc, Access::IndexRange { .. }));
        let mut expect = vec![h7, h5a, h5b];
        expect.sort_unstable();
        assert_eq!(scan_handles(&db, t, &acc), expect, "handle order, not key order");
        // An open-ended range skips the NULL bucket.
        let acc = access(&db, t, "dept_no <= 100", true);
        let hs = scan_handles(&db, t, &acc);
        assert_eq!(hs.len(), 4);
        assert!(!hs.contains(&hnull));
    }

    #[test]
    fn nan_probes_fall_back_to_scan_or_skip() {
        let (mut db, t) = setup();
        db.create_index(t, ColumnId(2)).unwrap(); // salary (float)
        assert_eq!(
            access(&db, t, "salary = 0.0 / 0.0", true),
            Access::FullScan,
            "NaN equi-probe must scan: the hash index would match stored NaNs bitwise"
        );
        assert_eq!(
            access(&db, t, "salary in (1.0, 0.0 / 0.0)", true),
            Access::IndexIn {
                column: ColumnId(2),
                values: vec![Value::Float(1.0)],
                from_subquery: false,
            },
            "NaN in-list item can never match: skipped like NULL"
        );
        assert_eq!(access(&db, t, "salary in (0.0 / 0.0)", true), Access::Empty);
    }

    #[test]
    fn equality_beats_multi_probe() {
        let (db, t) = setup();
        assert_eq!(
            access(&db, t, "dept_no in (5, 7) and dept_no = 5", true),
            Access::IndexEq { column: ColumnId(3), value: Value::Int(5) }
        );
    }

    #[test]
    fn multi_probe_handles_are_sorted_and_deduped() {
        let (mut db, t) = setup();
        use setrules_storage::tuple;
        // Insert in an order that makes bucket order differ from handle
        // order for a naive concat (7 before 5, interleaved).
        let h7a = db.insert(t, tuple!["a", 1, 1.0, 7]).unwrap();
        let h5a = db.insert(t, tuple!["b", 2, 1.0, 5]).unwrap();
        let h7b = db.insert(t, tuple!["c", 3, 1.0, 7]).unwrap();
        let h5b = db.insert(t, tuple!["d", 4, 1.0, 5]).unwrap();
        let acc = access(&db, t, "dept_no in (5, 7)", true);
        let mut expect = vec![h7a, h5a, h7b, h5b];
        expect.sort_unstable();
        assert_eq!(scan_handles(&db, t, &acc), expect, "handle order, not probe order");
    }

    #[test]
    fn greedy_join_plan_orders_by_cardinality() {
        // Items: 0 (100 rows), 1 (5 rows), 2 (50 rows); edges 0-1 and 0-2.
        let edges: Vec<EquiEdge> = vec![(0, 0, 1, 0), (2, 1, 0, 1)];
        let plan = build_join_plan(&[100, 5, 50], &edges);
        assert_eq!(plan.first, 1, "fewest rows starts");
        assert_eq!(plan.order(), vec![1, 0, 2]);
        // Step 1 attaches item 0 through the 0-1 edge (placed item first).
        assert_eq!(plan.steps[0], JoinStep { item: 0, edges: vec![(1, 0, 0)] });
        // Step 2 attaches item 2 through the 2-0 edge, reoriented.
        assert_eq!(plan.steps[1], JoinStep { item: 2, edges: vec![(0, 1, 1)] });
    }

    #[test]
    fn disconnected_items_become_cross_steps() {
        let plan = build_join_plan(&[10, 3, 7], &[]);
        assert_eq!(plan.order(), vec![1, 2, 0], "smallest-first cross order");
        assert!(plan.steps.iter().all(|s| s.edges.is_empty()));
    }

    #[test]
    fn equi_edges_require_distinct_items_and_joinable_types() {
        use crate::compile::LayoutFrame;
        use setrules_sql::parse_expr;
        use std::sync::Arc;
        let mut layout = Layout::new();
        layout.push_level(vec![
            LayoutFrame {
                name: "emp".into(),
                columns: Arc::new(vec!["dept_no".into(), "salary".into()]),
            },
            LayoutFrame { name: "dept".into(), columns: Arc::new(vec!["dept_no".into()]) },
        ]);
        let types =
            vec![vec![DataType::Int, DataType::Float], vec![DataType::Int]];
        let edge_for = |src: &str| {
            let e = parse_expr(src).unwrap();
            equi_join_edges(Some(&e), &layout, &types)
        };
        assert_eq!(edge_for("emp.dept_no = dept.dept_no"), vec![(0, 0, 1, 0)]);
        assert_eq!(
            edge_for("salary > 10 and emp.dept_no = dept.dept_no"),
            vec![(0, 0, 1, 0)],
            "found inside a conjunction"
        );
        assert!(edge_for("emp.dept_no = emp.dept_no").is_empty(), "same item");
        assert!(edge_for("emp.salary = dept.dept_no").is_empty(), "type mismatch");
        assert!(edge_for("emp.dept_no = dept.dept_no or salary > 1").is_empty(), "disjunction");
        assert!(edge_for("dept_no = 5").is_empty(), "ambiguous unqualified name");
    }
}
