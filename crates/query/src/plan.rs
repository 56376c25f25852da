//! The select plan as a value: every decision a `select` — or the read
//! half of a `delete`/`update` — needs, made once per execution by
//! [`plan_select`] before any row flows.
//!
//! A [`SelectPlan`] holds, per `from` item, the binding, [`TableId`],
//! columns, types and chosen [`Access`] path or transition source, with
//! the conjuncts pushed down to its scan; the compiled full predicate and
//! the equi-join edges ([`ReadPlan`]); and the operator [`Pipeline`] on
//! top — its projection or [`GroupProgram`], `distinct`, sort directions
//! and `limit`. Its consumers decide nothing: the lowering code
//! ([`crate::select`]) moves its parts into operators, `delete`/`update`
//! pull the read half ([`plan_read`]) through the same filter, and
//! `explain` prints it.
//!
//! Ordered indexes enter a select plan only as access paths. A sole
//! stored item ordered by one ordered-indexed column of its own is
//! upgraded to [`Access::IndexOrder`], and the pipeline then plans no
//! sort; bare `min`/`max` calls over ordered-indexed columns upgrade it
//! to [`Access::IndexBoundary`], whose few rows the ordinary aggregate
//! folds. Everything above the scan is the pipeline every statement runs,
//! so an ordered index changes how many rows are read, never which result
//! or which error a statement gives.
//!
//! A plan lives for one execution and borrows its statement. Nothing is
//! keyed by AST address and nothing outlives a catalog change: a rule's
//! condition subqueries and action statements plan afresh each time they
//! run.

use std::sync::Arc;

use setrules_sql::ast::{AggFunc, Expr, SelectItem, SelectStmt, TableRef, TableSource};
use setrules_storage::{ColumnId, DataType, TableId, TableSchema, Value};

use crate::compile::{compile, CompiledExpr, Layout, LayoutFrame};
use crate::ctx::QueryCtx;
use crate::error::QueryError;
use crate::exec::aggregate::{group_program, GroupProgram};
use crate::exec::scan::ScanSource;
use crate::planner::{choose_access, collect_conjuncts, equi_join_edges, Access, EquiEdge};
use crate::select::has_aggregate;

/// One resolved `from` item.
pub(crate) struct ItemPlan<'q> {
    /// The table variable (alias, or the base table name).
    pub(crate) binding: String,
    /// The stored table's name (a transition item's underlying table).
    pub(crate) table: &'q str,
    pub(crate) tid: TableId,
    pub(crate) columns: Arc<Vec<String>>,
    pub(crate) types: Vec<DataType>,
    /// A stored table's access path, or the transition table to read.
    pub(crate) source: ScanSource<'q>,
    /// Single-item conjuncts pushed down to this item's scan, compiled
    /// against the item's own scope.
    pub(crate) pushed: Vec<CompiledExpr>,
}

/// The `from`/`where` half of a plan: what `scan → join → filter` runs.
pub(crate) struct ReadPlan<'q> {
    pub(crate) items: Vec<ItemPlan<'q>>,
    /// The full `where` predicate, compiled against `layout`.
    pub(crate) predicate: Option<CompiledExpr>,
    /// Equi-join edges between the items (none for a sole item).
    pub(crate) edges: Vec<EquiEdge>,
    /// The scope everything above the scans evaluates in: the outer
    /// scopes plus one level holding the items.
    pub(crate) layout: Layout,
}

impl ReadPlan<'_> {
    /// The join operator: none for a sole item, whose rows are the
    /// combinations; `hash-join` once any equi-edge exists (the greedy
    /// join places that edge's second endpoint with a hash step, whatever
    /// the cardinalities); `nested-loop` otherwise.
    pub(crate) fn join_op(&self) -> Option<&'static str> {
        match (self.items.len(), self.edges.is_empty()) {
            (1, _) => None,
            (_, false) => Some("hash-join"),
            (_, true) => Some("nested-loop"),
        }
    }
}

/// A projection list: output names and the compiled expressions.
pub(crate) struct Projection {
    pub(crate) columns: Vec<String>,
    pub(crate) exprs: Vec<CompiledExpr>,
}

/// What sits on the filter in the operator pipeline. An expansion error
/// is raised by the operator once the filter has surfaced its own.
pub(crate) enum Top {
    Project { proj: Result<Projection, QueryError>, keys: Vec<CompiledExpr> },
    Aggregate(Result<GroupProgram, QueryError>),
}

/// The operator pipeline over the read: `project|aggregate → distinct? →
/// sort? → limit?`.
pub(crate) struct Pipeline {
    pub(crate) top: Top,
    pub(crate) distinct: bool,
    /// `order by` directions (`true` = ascending); empty means no sort.
    pub(crate) order: Vec<bool>,
    pub(crate) limit: Option<usize>,
}

/// A planned `select`.
pub(crate) struct SelectPlan<'q> {
    pub(crate) read: ReadPlan<'q>,
    pub(crate) pipeline: Pipeline,
}

/// Plan `stmt` in the scope `outer` (empty for a top-level statement).
/// With `upgrade`, a sole stored item may take an ordered-index access.
/// A traced statement plans without: it reports every tuple it reads,
/// and the upgrades' early stop would change the selected-transition
/// effects the trace feeds. Fails only on an unknown table.
pub(crate) fn plan_select<'q>(
    ctx: QueryCtx<'_>,
    stmt: &'q SelectStmt,
    outer: &Layout,
    upgrade: bool,
) -> Result<SelectPlan<'q>, QueryError> {
    let mut read = plan_read(ctx, &stmt.from, stmt.predicate.as_ref(), outer)?;
    let mut pipeline = pipeline(stmt, &read);
    if upgrade {
        let access = index_boundary(ctx, stmt, &read)
            .or_else(|| index_order(ctx, stmt, &read, &mut pipeline));
        if let Some(access) = access {
            read.items[0].source = ScanSource::Named(access);
        }
    }
    Ok(SelectPlan { read, pipeline })
}

/// Plan the read every statement shares: per-item metadata and access
/// selection, the predicate compiled once, pushdown classification, and
/// the equi-join edges.
pub(crate) fn plan_read<'q>(
    ctx: QueryCtx<'_>,
    from: &'q [TableRef],
    predicate: Option<&'q Expr>,
    outer: &Layout,
) -> Result<ReadPlan<'q>, QueryError> {
    let sole = from.len() == 1;
    let mut items = Vec::with_capacity(from.len());
    for tref in from {
        let binding = tref.binding_name().to_string();
        let (TableSource::Named(table) | TableSource::Transition { table, .. }) = &tref.source;
        let tid = ctx.db.table_id(table)?;
        let schema = ctx.db.schema(tid);
        let columns = Arc::new(schema.columns.iter().map(|c| c.name.clone()).collect::<Vec<_>>());
        let types = schema.columns.iter().map(|c| c.ty).collect();
        let source = match &tref.source {
            TableSource::Named(_) => {
                ScanSource::Named(choose_access(ctx, tid, &binding, sole, predicate))
            }
            TableSource::Transition { kind, column, .. } => {
                ScanSource::Transition { kind: *kind, column: column.as_deref() }
            }
        };
        items.push(ItemPlan { binding, table, tid, columns, types, source, pushed: Vec::new() });
    }
    let frame =
        |it: &ItemPlan| LayoutFrame { name: it.binding.clone(), columns: Arc::clone(&it.columns) };
    let mut layout = outer.clone();
    layout.push_level(items.iter().map(frame).collect());

    // Pushdown classification: a conjunct whose innermost-level slots all
    // land in one item filters that item's scan directly. Only fully
    // slot-resolved conjuncts qualify (no subqueries, no unresolved
    // names), and only rows it evaluates to non-*true* on are dropped
    // — errors defer to the full predicate, so pushdown never surfaces an
    // error early. Re-compiling against the single-item scope the scan
    // evaluates in is sound because resolution is innermost-first:
    // removing sibling frames cannot redirect a reference that already
    // resolved into this item.
    // A sole stored-table item skips pushdown (the full predicate does
    // the identical work), but a sole *transition* item benefits: its
    // provider lends borrowed rows, so dropping a row at the scan avoids
    // ever cloning it.
    let pushdown_worthwhile =
        !sole || items.iter().any(|it| matches!(it.source, ScanSource::Transition { .. }));
    if let (true, Some(p)) = (pushdown_worthwhile, predicate) {
        let mut conjuncts = Vec::new();
        collect_conjuncts(p, &mut conjuncts);
        for c in conjuncts {
            let cc = compile(c, &layout);
            if !cc.slots_only() {
                continue;
            }
            // All level-0 slots must target a single item. Conjuncts with
            // no level-0 slots (constants, outer-only references) are left
            // to the full predicate: evaluating them per scan row would be
            // wasted work, not a correctness issue.
            let mut target = None;
            let mut single_item = true;
            cc.for_each_slot(&mut |up, frame, _| {
                if up == 0 {
                    match target {
                        None => target = Some(frame),
                        Some(t) if t == frame => {}
                        Some(_) => single_item = false,
                    }
                }
            });
            let (true, Some(i)) = (single_item, target) else { continue };
            let mut scan_layout = outer.clone();
            scan_layout.push_level(vec![frame(&items[i])]);
            items[i].pushed.push(compile(c, &scan_layout));
        }
    }

    let edges = if sole {
        Vec::new()
    } else {
        let types: Vec<&[DataType]> = items.iter().map(|it| it.types.as_slice()).collect();
        equi_join_edges(predicate, &layout, &types)
    };
    let predicate = predicate.map(|p| compile(p, &layout));
    Ok(ReadPlan { items, predicate, edges, layout })
}

/// Whether `stmt` takes the grouped (aggregate) pipeline. Wildcard
/// expansions only ever add bare column references, so this is decidable
/// from the statement alone.
fn is_grouped(stmt: &SelectStmt) -> bool {
    !stmt.group_by.is_empty()
        || stmt
            .projection
            .iter()
            .any(|it| matches!(it, SelectItem::Expr { expr, .. } if has_aggregate(expr)))
        || stmt.having.as_ref().is_some_and(has_aggregate)
}

/// Expand the projection's wildcards against the planned items, yielding
/// concrete `(expression, output name)` pairs.
fn expand_wildcards(
    stmt: &SelectStmt,
    items: &[ItemPlan],
) -> Result<Vec<(Expr, String)>, QueryError> {
    let mut proj: Vec<(Expr, String)> = Vec::new();
    let expand = |proj: &mut Vec<(Expr, String)>, it: &ItemPlan| {
        for c in it.columns.iter() {
            proj.push((Expr::qcol(it.binding.clone(), c.clone()), c.clone()));
        }
    };
    for item in &stmt.projection {
        match item {
            SelectItem::Wildcard => items.iter().for_each(|it| expand(&mut proj, it)),
            SelectItem::QualifiedWildcard(q) => {
                let it = items
                    .iter()
                    .find(|it| it.binding == *q)
                    .ok_or_else(|| QueryError::UnknownColumn(format!("{q}.*")))?;
                expand(&mut proj, it);
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| match expr {
                    Expr::Column { name, .. } => name.clone(),
                    other => other.to_string(),
                });
                proj.push((expr.clone(), name));
            }
        }
    }
    Ok(proj)
}

/// The projection list compiled against the read's scope.
fn projection(stmt: &SelectStmt, read: &ReadPlan) -> Result<Projection, QueryError> {
    let proj = expand_wildcards(stmt, &read.items)?;
    Ok(Projection {
        exprs: proj.iter().map(|(e, _)| compile(e, &read.layout)).collect(),
        columns: proj.into_iter().map(|(_, n)| n).collect(),
    })
}

fn pipeline(stmt: &SelectStmt, read: &ReadPlan) -> Pipeline {
    let top = if is_grouped(stmt) {
        Top::Aggregate(
            expand_wildcards(stmt, &read.items).map(|p| group_program(stmt, &read.layout, &p)),
        )
    } else {
        Top::Project {
            proj: projection(stmt, read),
            keys: stmt.order_by.iter().map(|(e, _)| compile(e, &read.layout)).collect(),
        }
    };
    Pipeline {
        top,
        distinct: stmt.distinct,
        order: stmt.order_by.iter().map(|(_, asc)| *asc).collect(),
        limit: stmt.limit.map(|n| n as usize),
    }
}

/// The sole item, when it is a stored table, with its access path.
fn sole_stored<'a, 'q>(read: &'a ReadPlan<'q>) -> Option<(&'a ItemPlan<'q>, &'a Access)> {
    match read.items.as_slice() {
        [item @ ItemPlan { source: ScanSource::Named(access), .. }] => Some((item, access)),
        _ => None,
    }
}

/// `e` as a bare column of `item` (unqualified, or qualified by its
/// binding).
fn own_column(e: &Expr, item: &ItemPlan, schema: &TableSchema) -> Option<ColumnId> {
    let Expr::Column { qualifier, name } = e else { return None };
    if qualifier.as_deref().is_some_and(|q| q != item.binding) {
        return None;
    }
    schema.column_id(name).ok()
}

/// The boundary upgrade: a projection made entirely of bare `min`/`max`
/// calls over ordered-indexed, non-boolean columns of a sole stored item
/// — with no predicate, grouping, having, ordering, or distinct — reads
/// only the rows holding each column's extreme. Deciding reads only the
/// boundary keys: a stored NaN sits at an extreme of the IEEE total
/// order, and the aggregate's fold may raise "cannot compare" on it, so
/// such a column leaves the statement to a full scan.
fn index_boundary(ctx: QueryCtx<'_>, stmt: &SelectStmt, read: &ReadPlan) -> Option<Access> {
    if stmt.distinct
        || stmt.predicate.is_some()
        || !stmt.group_by.is_empty()
        || stmt.having.is_some()
        || !stmt.order_by.is_empty()
        || stmt.projection.is_empty()
    {
        return None;
    }
    let (item, _) = sole_stored(read)?;
    let schema = ctx.db.schema(item.tid);
    let is_nan = |k: Option<&Value>| matches!(k, Some(Value::Float(f)) if f.is_nan());
    let mut ends = Vec::with_capacity(stmt.projection.len());
    for p in &stmt.projection {
        let SelectItem::Expr { expr: Expr::Aggregate { func, arg: Some(arg), .. }, .. } = p else {
            return None;
        };
        let is_min = match func {
            AggFunc::Min => true,
            AggFunc::Max => false,
            _ => return None,
        };
        let col = own_column(arg, item, schema)?;
        if schema.column_type(col) == DataType::Bool {
            return None;
        }
        let index = ctx.db.ordered_index(item.tid, col)?;
        if is_nan(index.first_key()) || is_nan(index.last_key()) {
            return None;
        }
        ends.push((col, is_min));
    }
    Some(Access::IndexBoundary { ends })
}

/// The sort-elision upgrade. The gate requires a sole stored item, a
/// single `order by` key that is a bare column of it with an ordered
/// index, an ungrouped projection with no `distinct` or `having`, and an
/// access path that the key-order walk can replace (the whole index, or a
/// range on the key itself). Soundness: the pipeline scans in handle
/// order and stably sorts by the key's storage total order, which is
/// exactly the index walk — buckets in key order, ascending handles
/// within a bucket (descending keys reverse the bucket order only). The
/// walk stops at the `limit` only when no row can fail: no predicate, and
/// every projection a column or a constant; otherwise the rows past the
/// cutoff still flow, so an error there surfaces as the sort would raise
/// it.
fn index_order(
    ctx: QueryCtx<'_>,
    stmt: &SelectStmt,
    read: &ReadPlan,
    pipeline: &mut Pipeline,
) -> Option<Access> {
    let Top::Project { proj, keys } = &mut pipeline.top else { return None };
    if stmt.distinct || stmt.having.is_some() || stmt.order_by.len() != 1 {
        return None;
    }
    let (item, access) = sole_stored(read)?;
    let (key, asc) = &stmt.order_by[0];
    let column = own_column(key, item, ctx.db.schema(item.tid))?;
    ctx.db.ordered_index(item.tid, column)?;
    let range = match access {
        Access::FullScan => None,
        Access::IndexRange { column: c, lo, hi } if *c == column => Some((lo.clone(), hi.clone())),
        // Probe paths and ranges on a different column would emit handles
        // out of key order; `Empty` is trivial either way.
        _ => return None,
    };
    let infallible = read.predicate.is_none()
        && proj.as_ref().is_ok_and(|p| {
            p.exprs.iter().all(|e| matches!(e, CompiledExpr::Slot { .. } | CompiledExpr::Const(_)))
        });
    keys.clear();
    pipeline.order.clear();
    Some(Access::IndexOrder { column, asc: *asc, range, stop: pipeline.limit.filter(|_| infallible) })
}
