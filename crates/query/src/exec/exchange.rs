//! The exchange operator: partitioned predicate evaluation, expressed
//! once.
//!
//! Intra-query parallelism has exactly one job: judging a row-local
//! predicate over contiguous partitions of a big input. Two sites do it
//! — a stored-table scan's pushed conjuncts (selects and DML
//! identification alike) and [`FilterExec`](super::filter::FilterExec)'s
//! `where` pass — and both go through [`Exchange`]. Everything else
//! (fetching without conjuncts, join builds and probes, aggregation,
//! `distinct`, sorting, top-K) runs serially: the B16 sweeps measured
//! each level or slower partitioned than serial on two threads. The
//! operator owns three things:
//!
//! 1. **Gating.** One measured constant, [`MIN_PARTITION`], is the number
//!    of items one partition must carry to pay for its thread and its
//!    place in the ordered merge. [`Exchange::plan`] admits a phase only
//!    when the thread budget exceeds 1 and the phase has at least two
//!    partitions' worth of items, and [`Exchange::run`] cuts it into
//!    `min(threads, n / MIN_PARTITION)` partitions — so the same number
//!    decides whether a phase fans out and how wide, at every thread
//!    budget. Row-locality gating stays with the caller (only it knows
//!    which expressions cross threads); when a big-enough phase is
//!    refused for that reason, [`Exchange::serial_fallback`] makes the
//!    refusal observable.
//! 2. **Partitioned dispatch.** [`Exchange::run`] splits `0..n` into
//!    contiguous ranges of the serial iteration order, runs the first on
//!    the caller and the rest on scoped threads (`std::thread::scope`),
//!    and returns per-partition results in partition order, bumping
//!    `parallel_scans` / `parallel_partitions` and recording the
//!    per-partition row flow on the `"exchange"` operator-stats row.
//! 3. **Deterministic merge.** [`Exchange::judge`] runs a per-item
//!    verdict function and returns [`ChunkOutput`]s: each partition stops
//!    at its first error, and the caller merges in partition order,
//!    keeping the kept items and counters of everything that serially
//!    precedes the *earliest* error — so results, error selection, and
//!    row-level statistics are bit-identical to the serial left-to-right
//!    walk (see `docs/parallel-execution.md` for the full argument).
//!
//! Partitions never see a [`QueryCtx`] (its caches are single-threaded
//! interior mutability); they receive only `Sync` data — the frozen
//! database, compiled row-local expressions, and value slices.

use std::ops::Range;
use std::panic::resume_unwind;
use std::thread;

use crate::ctx::QueryCtx;
use crate::error::QueryError;
use crate::stats;

/// Items (rows or combinations) one partition must carry to pay for its
/// thread. Set from a 1-against-2-thread sweep at 64 to 65 536 items on
/// a 2-core box (EXPERIMENTS.md B16): below about 4 096 items no site ran
/// faster on two threads. Every golden paper example, and the point and
/// department-sized statements of an OLTP transaction, stay on the exact
/// serial path. On scoped threads both remaining sites win from 8 192
/// items and the `where` pass is level at the 4 096-item gate (B16
/// "PR 35").
const MIN_PARTITION: usize = 2048;

/// Split `0..n` into `min(max_parts, n / min_chunk)` contiguous ranges
/// (at least one), covering `0..n` in order. Range sizes differ by at
/// most one, so none is smaller than `min_chunk` unless `n` itself is.
/// Returns an empty vec when `n == 0`.
fn partition_ranges(n: usize, max_parts: usize, min_chunk: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let parts = max_parts.min(n / min_chunk.max(1)).max(1);
    let (size, extra) = (n / parts, n % parts);
    let mut start = 0usize;
    (0..parts)
        .map(|i| {
            let end = start + size + usize::from(i < extra);
            let range = start..end;
            start = end;
            range
        })
        .collect()
}

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
    /// its predicate is not row-local — the observable counterpart of a
    /// refused [`Exchange::plan`].
    pub(crate) fn serial_fallback(ctx: QueryCtx<'_>) {
        stats::bump(ctx.stats, |s| s.serial_fallbacks += 1);
    }

    /// Run `work` over `min(threads, n / MIN_PARTITION)` contiguous
    /// partitions of `0..n` and return the per-partition results **in
    /// partition order** (the first partition runs inline on the caller,
    /// the rest on scoped threads). A panic in any partition is re-raised
    /// on the caller once every partition has finished.
    pub(crate) fn run<R: Send>(
        &self,
        ctx: QueryCtx<'_>,
        work: impl Fn(Range<usize>) -> R + Sync,
    ) -> Vec<R> {
        let ranges = partition_ranges(self.n, self.threads, MIN_PARTITION);
        let work = &work;
        let results: Vec<R> = thread::scope(|s| {
            let (first, rest) = ranges.split_first().expect("the gate admits two partitions");
            let spawned: Vec<_> = rest
                .iter()
                .map(|r| {
                    let r = r.clone();
                    s.spawn(move || work(r))
                })
                .collect();
            let mut results = Vec::with_capacity(ranges.len());
            results.push(work(first.clone()));
            for h in spawned {
                results.push(h.join().unwrap_or_else(|payload| resume_unwind(payload)));
            }
            results
        });
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
            for r in &ranges {
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

// Partitions share plain references across threads; keep the compiler
// honest about the types that must stay `Send + Sync`.
#[allow(dead_code)]
fn assert_shared_types_are_sync() {
    fn sync<T: Send + Sync>() {}
    sync::<setrules_storage::Value>();
    sync::<crate::compile::CompiledExpr>();
    sync::<QueryError>();
    sync::<setrules_storage::Database>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use setrules_storage::Database;

    fn ctx_with_threads(db: &Database, threads: usize) -> QueryCtx<'_> {
        QueryCtx { threads, ..QueryCtx::plain(db) }
    }

    #[test]
    fn partitions_cover_in_order() {
        for n in [0usize, 1, 5, 64, 100, 1000] {
            for parts in [1usize, 2, 7, 8] {
                for min_chunk in [1usize, 16, 64] {
                    let ranges = partition_ranges(n, parts, min_chunk);
                    let mut next = 0usize;
                    for r in &ranges {
                        assert_eq!(r.start, next, "contiguous");
                        assert!(r.end > r.start, "nonempty");
                        next = r.end;
                    }
                    assert_eq!(next, n, "covers 0..n");
                    let want = if n == 0 { 0 } else { parts.min(n / min_chunk).max(1) };
                    assert_eq!(ranges.len(), want, "n={n} parts={parts} min={min_chunk}");
                    if n >= min_chunk {
                        assert!(ranges.iter().all(|r| r.len() >= min_chunk), "{ranges:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn partition_panics_propagate_to_the_caller() {
        let db = Database::new();
        let ctx = ctx_with_threads(&db, 2);
        let ex = Exchange::plan(ctx, 2 * MIN_PARTITION).expect("gate passes");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ex.run(ctx, |r| {
                if r.start > 0 {
                    panic!("boom in a partition");
                }
            })
        }));
        let payload = caught.expect_err("panic must propagate to the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom in a partition");
        // Nothing is left behind: the next phase runs as usual.
        assert_eq!(ex.run(ctx, |r| r.len()), vec![MIN_PARTITION; 2]);
    }

    #[test]
    fn run_preserves_partition_order() {
        let db = Database::new();
        let ctx = ctx_with_threads(&db, 4);
        let items: Vec<usize> = (0..5 * MIN_PARTITION + 3).collect();
        let ex = Exchange::plan(ctx, items.len()).expect("above the gate");
        // Each partition borrows its slice of `items`; the merged results
        // come back in partition order, so they reproduce the input.
        let chunks = ex.run(ctx, |r| items[r].to_vec());
        assert_eq!(chunks.len(), 4);
        let merged: Vec<usize> = chunks.into_iter().flatten().collect();
        assert_eq!(merged, items);
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
