//! The exchange operator: partitioned execution, expressed once.
//!
//! Every parallel phase of the executor — partitioned scans (selects and
//! DML identification alike), hash-join builds, the WHERE pass, the
//! final-aggregate phase, sorting, and top-K selection — goes through
//! [`Exchange`]. (The hash-join probe and `distinct` run serially: the
//! B16 sweep measured both slower partitioned at every size.) The
//! operator owns three things that would otherwise be hand-threaded at
//! every call site:
//!
//! 1. **Gating.** One measured constant, [`MIN_PARTITION`], is the number
//!    of items one partition must carry to pay for its hand-off to a pool
//!    worker and its place in the ordered merge. [`Exchange::plan`]
//!    admits a phase only when the thread budget exceeds 1 and the phase
//!    has at least two partitions' worth of items, and [`Exchange::run`]
//!    cuts it into `min(threads, n / MIN_PARTITION)` partitions — so the
//!    same number decides whether a phase fans out and how wide, at every
//!    thread budget. Row-locality gating stays with the caller (only it
//!    knows which expressions cross threads); when a big-enough phase is
//!    refused for that reason, [`Exchange::serial_fallback`] makes the
//!    refusal observable.
//! 2. **Partitioned dispatch.** [`Exchange::run`] splits `0..n` into
//!    contiguous ranges of the serial iteration order on the process-wide
//!    [`setrules_exec::WorkerPool`] and returns per-partition results in
//!    partition order, bumping `parallel_scans` / `parallel_partitions`
//!    and recording the per-partition row flow on the `"exchange"`
//!    operator-stats row.
//! 3. **Deterministic merge.** [`Exchange::judge`] runs a per-item
//!    verdict function and returns [`ChunkOutput`]s: each partition stops
//!    at its first error, and the caller merges in partition order,
//!    keeping the kept items and counters of everything that serially
//!    precedes the *earliest* error — so results, error selection, and
//!    row-level statistics are bit-identical to the serial left-to-right
//!    walk (see `docs/parallel-execution.md` for the full argument).
//!
//! Workers never see a [`QueryCtx`] (its caches are single-threaded
//! interior mutability); they receive only `Sync` data — the frozen
//! database, compiled row-local expressions, and value slices.

use std::ops::Range;

use setrules_exec::{partition_ranges, WorkerPool};

use crate::ctx::QueryCtx;
use crate::error::QueryError;
use crate::stats;

/// Items (rows, combinations, build entries, groups) one partition
/// must carry to pay for its hand-off. Set from a 1-against-2-thread
/// sweep of every exchange site at 64 to 65 536 items on a 2-core box
/// (EXPERIMENTS.md B16): below about 4 096 items no site ran faster on
/// two threads. Every golden paper example, and the point and
/// department-sized statements of an OLTP transaction, stay on the exact
/// serial path. Since rows flow by reference the same sweep puts the
/// break-even near 131 072 items, and the join build and sort lose at
/// every size; the constant is left here because a gate that high would
/// push every pool-engaging test past 131 072 rows (B16 has the sweep).
const MIN_PARTITION: usize = 2048;

/// A planned partitioned phase: `0..n` split across `threads` partitions.
/// Existence proves the gate passed (so the phase *will* fan out).
pub(crate) struct Exchange {
    n: usize,
    threads: usize,
}

impl Exchange {
    /// Gate a phase of `n` items: `Some` only when the context's thread
    /// budget exceeds 1 and `n` fills at least two partitions of
    /// [`MIN_PARTITION`] items.
    pub(crate) fn plan(ctx: QueryCtx<'_>, n: usize) -> Option<Exchange> {
        if ctx.threads > 1 && n >= 2 * MIN_PARTITION {
            Some(Exchange { n, threads: ctx.threads })
        } else {
            None
        }
    }

    /// Record that a phase big enough to exchange stayed serial because
    /// its expressions are not row-local — the observable counterpart of
    /// a refused [`Exchange::plan`].
    pub(crate) fn serial_fallback(ctx: QueryCtx<'_>) {
        stats::bump(ctx.stats, |s| s.serial_fallbacks += 1);
    }

    /// Run `work` over `min(threads, n / MIN_PARTITION)` contiguous
    /// partitions of `0..n` and return the per-partition results **in
    /// partition order** (the first partition runs inline on the caller;
    /// the rest on pool workers).
    pub(crate) fn run<R: Send>(
        &self,
        ctx: QueryCtx<'_>,
        work: impl Fn(Range<usize>) -> R + Sync,
    ) -> Vec<R> {
        let results = WorkerPool::global().run_chunked(self.n, self.threads, MIN_PARTITION, work);
        // The gate admitted at least two partitions' worth of items, so
        // the phase did fan out.
        stats::bump(ctx.stats, |s| {
            s.parallel_scans += 1;
            s.parallel_partitions += results.len() as u64;
        });
        if let Some(ops) = ctx.op_stats {
            // One batch per partition, sized by that partition's range —
            // the "rows per partition" view of the fan-out.
            ops.rows_in("exchange", self.n);
            for r in partition_ranges(self.n, self.threads, MIN_PARTITION) {
                ops.batch_out("exchange", r.len());
            }
        }
        results
    }

    /// Run a per-item judge over the partitions: each partition evaluates
    /// its range in order, maps kept items through `Ok(Some(t))`, and
    /// stops at its first error. The caller merges the returned
    /// [`ChunkOutput`]s in partition order.
    pub(crate) fn judge<T: Send>(
        &self,
        ctx: QueryCtx<'_>,
        judge: impl Fn(usize) -> Result<Option<T>, QueryError> + Sync,
    ) -> Vec<ChunkOutput<T>> {
        self.run(ctx, |range| {
            let mut out =
                ChunkOutput { kept: Vec::new(), combos: 0, matched: 0, err: None };
            for i in range {
                out.combos += 1;
                match judge(i) {
                    Ok(Some(t)) => {
                        out.matched += 1;
                        out.kept.push(t);
                    }
                    Ok(None) => {}
                    Err(e) => {
                        out.err = Some(e);
                        break;
                    }
                }
            }
            out
        })
    }
}

/// Per-partition outcome of an [`Exchange::judge`] pass.
pub(crate) struct ChunkOutput<T> {
    /// The kept items, in the partition's (ascending-index) order.
    pub kept: Vec<T>,
    /// Items this partition evaluated (the erroring one included,
    /// matching the serial bump-before-eval order).
    pub combos: u64,
    /// Items that qualified.
    pub matched: u64,
    /// First error in this partition's range, if any; evaluation of the
    /// range stops there.
    pub err: Option<QueryError>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use setrules_storage::Database;

    fn ctx_with_threads(db: &Database, threads: usize) -> QueryCtx<'_> {
        QueryCtx { threads, ..QueryCtx::plain(db) }
    }

    #[test]
    fn plan_gates_on_threads_and_size() {
        let db = Database::new();
        let gate = 2 * MIN_PARTITION;
        assert!(Exchange::plan(ctx_with_threads(&db, 1), 100 * gate).is_none());
        assert!(Exchange::plan(ctx_with_threads(&db, 8), gate - 1).is_none());
        // The partial-aggregate phase never exchanges because of this.
        assert!(Exchange::plan(ctx_with_threads(&db, 8), crate::exec::BATCH_ROWS).is_none());
        let ex = Exchange::plan(ctx_with_threads(&db, 8), gate).expect("gate passes");
        // A planned exchange always fans out: exactly two partitions at
        // the gate, whatever the budget.
        let parts = ex.run(ctx_with_threads(&db, 8), |r| r.len());
        assert_eq!(parts, vec![MIN_PARTITION; 2]);
    }

    #[test]
    fn partitions_carry_at_least_min_partition_items() {
        let db = Database::new();
        let ctx = ctx_with_threads(&db, 8);
        for n in [2 * MIN_PARTITION, 3 * MIN_PARTITION - 1, 5 * MIN_PARTITION + 7, 100_000] {
            let parts = Exchange::plan(ctx, n).expect("above the gate").run(ctx, |r| r.len());
            assert_eq!(parts.len(), (n / MIN_PARTITION).min(8), "n={n}");
            assert!(parts.iter().all(|&len| len >= MIN_PARTITION), "n={n}: {parts:?}");
            assert_eq!(parts.iter().sum::<usize>(), n);
        }
    }

    #[test]
    fn judge_merges_in_order() {
        let db = Database::new();
        let n = 5 * MIN_PARTITION;
        let ex = Exchange::plan(ctx_with_threads(&db, 8), n).unwrap();
        let verdicts =
            ex.judge(ctx_with_threads(&db, 8), |i| Ok((i % 3 == 0).then_some(i)));
        assert!(verdicts.len() > 1);
        let mut kept = Vec::new();
        let mut combos = 0;
        for v in verdicts {
            assert!(v.err.is_none());
            combos += v.combos;
            kept.extend(v.kept);
        }
        assert_eq!(combos as usize, n);
        let expected: Vec<usize> = (0..n).filter(|i| i % 3 == 0).collect();
        assert_eq!(kept, expected);
    }

    #[test]
    fn judge_partitions_stop_at_their_first_error() {
        let db = Database::new();
        let ex = Exchange::plan(ctx_with_threads(&db, 8), 4 * MIN_PARTITION).unwrap();
        let verdicts = ex.judge::<usize>(ctx_with_threads(&db, 8), |i| {
            // Every partition holds an erroring item.
            if i % MIN_PARTITION == 7 {
                Err(QueryError::DivisionByZero)
            } else {
                Ok(Some(i))
            }
        });
        // Merge the way callers do: counters and kept items up to the
        // earliest error, then stop.
        let mut kept = Vec::new();
        let mut err = None;
        for v in verdicts {
            kept.extend(v.kept);
            if let Some(e) = v.err {
                err = Some(e);
                break;
            }
        }
        assert_eq!(err, Some(QueryError::DivisionByZero));
        // The serial walk errors at index 7: indices 0..=6 were kept.
        assert_eq!(kept, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn exchange_records_op_stats_rows() {
        let db = Database::new();
        let ops = crate::stats::OpStatsCell::new();
        let ctx = QueryCtx { threads: 8, op_stats: Some(&ops), ..QueryCtx::plain(&db) };
        let n = 3 * MIN_PARTITION;
        let ex = Exchange::plan(ctx, n).unwrap();
        let parts = ex.run(ctx, |r| r.len());
        let c = ops.get("exchange");
        assert_eq!(c.rows_in as usize, n);
        assert_eq!(c.batches as usize, parts.len());
        assert_eq!(c.rows_out as usize, n, "partition sizes cover the input");
    }
}
