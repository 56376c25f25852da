//! The exchange operator: partitioned execution, expressed once.
//!
//! Every parallel phase of the executor — partitioned scans (selects and
//! DML identification alike), hash-join build/probe, the WHERE pass, the
//! partial-aggregation phase, distinct dedup, sorting, and top-K
//! selection — goes through [`Exchange`]. The operator owns the three
//! things PR 5 used to hand-thread at every call site:
//!
//! 1. **Gating.** [`Exchange::plan`] admits a phase only when the thread
//!    budget exceeds 1 and the phase has at least
//!    [`parallel::PAR_THRESHOLD`] items. With `MIN_CHUNK = 16` that
//!    guarantees at least two partitions, so a planned exchange always
//!    actually fans out. Row-locality gating stays with the caller (only
//!    it knows which expressions cross threads); when a big-enough phase
//!    is refused for that reason, [`Exchange::serial_fallback`] makes the
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

use crate::ctx::QueryCtx;
use crate::error::QueryError;
use crate::parallel;
use crate::stats;

/// A planned partitioned phase: `0..n` split across `threads` partitions.
/// Existence proves the gate passed (so the phase *will* fan out).
pub(crate) struct Exchange {
    n: usize,
    threads: usize,
}

impl Exchange {
    /// Gate a phase of `n` items: `Some` only when the context's thread
    /// budget exceeds 1 and `n` reaches [`parallel::PAR_THRESHOLD`].
    /// Every golden paper example stays below the threshold and therefore
    /// on the exact serial path.
    pub(crate) fn plan(ctx: QueryCtx<'_>, n: usize) -> Option<Exchange> {
        if ctx.threads > 1 && n >= parallel::PAR_THRESHOLD {
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

    /// Run `work` over contiguous partitions of `0..n` and return the
    /// per-partition results **in partition order** (the first partition
    /// runs inline on the caller; the rest on pool workers).
    pub(crate) fn run<R: Send>(
        &self,
        ctx: QueryCtx<'_>,
        work: impl Fn(Range<usize>) -> R + Sync,
    ) -> Vec<R> {
        let results =
            parallel::pool().run_chunked(self.n, self.threads, parallel::MIN_CHUNK, work);
        let parts = results.len();
        if parts > 1 {
            stats::bump(ctx.stats, |s| {
                s.parallel_scans += 1;
                s.parallel_partitions += parts as u64;
            });
        }
        if let Some(ops) = ctx.op_stats {
            // One batch per partition, sized by that partition's range —
            // the "rows per partition" view of the fan-out.
            ops.rows_in("exchange", self.n);
            for r in setrules_exec::partition_ranges(self.n, self.threads, parallel::MIN_CHUNK) {
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
        assert!(Exchange::plan(ctx_with_threads(&db, 1), 1000).is_none());
        assert!(Exchange::plan(ctx_with_threads(&db, 8), 63).is_none());
        let ex = Exchange::plan(ctx_with_threads(&db, 8), 64).expect("gate passes");
        // A planned exchange always fans out: 64 items at MIN_CHUNK=16
        // yield at least two partitions for any budget >= 2.
        let parts = ex.run(ctx_with_threads(&db, 8), |r| r.len());
        assert!(parts.len() > 1, "{parts:?}");
        assert_eq!(parts.iter().sum::<usize>(), 64);
    }

    #[test]
    fn judge_merges_in_order() {
        let db = Database::new();
        let ex = Exchange::plan(ctx_with_threads(&db, 8), 1000).unwrap();
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
        assert_eq!(combos, 1000);
        let expected: Vec<usize> = (0..1000).filter(|i| i % 3 == 0).collect();
        assert_eq!(kept, expected);
    }

    #[test]
    fn judge_partitions_stop_at_their_first_error() {
        let db = Database::new();
        let ex = Exchange::plan(ctx_with_threads(&db, 8), 256).unwrap();
        let verdicts = ex.judge::<usize>(ctx_with_threads(&db, 8), |i| {
            if i % 100 == 7 {
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
        let ex = Exchange::plan(ctx, 100).unwrap();
        let parts = ex.run(ctx, |r| r.len());
        let c = ops.get("exchange");
        assert_eq!(c.rows_in, 100);
        assert_eq!(c.batches as usize, parts.len());
        assert_eq!(c.rows_out, 100, "partition sizes cover the input");
    }
}
