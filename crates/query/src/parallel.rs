//! Row-locality: which compiled trees may leave the serial environment.
//!
//! Partitioned dispatch itself lives in the exchange operator
//! ([`crate::exec::exchange`]): every parallel phase plans an
//! `Exchange`, which owns the size gate (`MIN_PARTITION`), the
//! contiguous partitioning on the process-wide
//! [`setrules_exec::WorkerPool`], the partition-order merge, and the
//! parallelism counters. This module keeps what the exchange's *callers*
//! need to decide whether an expression may cross threads at all.
//!
//! # Row-locality (the serial-fallback rule)
//!
//! Workers never see a [`crate::QueryCtx`]: the shared subquery memo
//! (`RefCell`) and the stats cell (`Cell`) are single-threaded interior
//! mutability. There is one evaluator
//! (`compile::eval`); what a worker gets is a smaller *environment* for
//! it — `compile::RowEnv`, the current row(s) and nothing else. A tree
//! may run there only when it is *row-local* (`is_rowlocal`): every
//! slot addresses the innermost scope and no node needs a hook the row
//! environment lacks (no correlated/outer references, no subqueries, no
//! aggregates, no interpreter fallback). Anything else runs serially in
//! the scoped environment; when such a phase was big enough to exchange
//! otherwise, the caller counts a `serial_fallbacks` tick
//! (`Exchange::serial_fallback`) so the fallback is observable.

use crate::compile::CompiledExpr;

/// Whether `e` may be evaluated in a [`crate::compile::RowEnv`] — with
/// nothing but the current row(s).
pub(crate) fn is_rowlocal(e: &CompiledExpr) -> bool {
    local(e, false)
}

/// Whether the final aggregation phase may evaluate `e` per group on a
/// pool worker: row-local except for aggregate calls, which the group
/// environment answers from its accumulators (their arguments belong to
/// the partial phase).
pub(crate) fn is_grouplocal(e: &CompiledExpr) -> bool {
    local(e, true)
}

fn local(e: &CompiledExpr, aggs: bool) -> bool {
    match e {
        CompiledExpr::Slot { level_up, .. } => *level_up == 0,
        CompiledExpr::Agg { .. } => aggs,
        CompiledExpr::InSubquery { .. }
        | CompiledExpr::Exists { .. }
        | CompiledExpr::ScalarSubquery(_)
        | CompiledExpr::Interp(_) => false,
        _ => {
            let mut ok = true;
            e.for_each_child(&mut |c| ok = ok && local(c, aggs));
            ok
        }
    }
}

// The parallel phases share plain references across threads; keep the
// compiler honest about the types that must stay `Send + Sync`.
#[allow(dead_code)]
fn assert_shared_types_are_sync() {
    fn sync<T: Send + Sync>() {}
    sync::<setrules_storage::Value>();
    sync::<CompiledExpr>();
    sync::<crate::error::QueryError>();
    sync::<setrules_storage::Database>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, Layout, LayoutFrame};
    use setrules_sql::parse_expr;
    use std::sync::Arc;

    #[test]
    fn subqueries_are_not_rowlocal() {
        let mut layout = Layout::new();
        layout.push_level(vec![LayoutFrame {
            name: "t".into(),
            columns: Arc::new(vec!["a".into(), "b".into(), "name".into()]),
        }]);
        let ast = parse_expr("a in (select a from t)").expect("parse");
        assert!(!is_rowlocal(&compile(&ast, &layout)));
        let agg = parse_expr("count(*) > 0").expect("parse");
        assert!(!is_rowlocal(&compile(&agg, &layout)));
    }
}
