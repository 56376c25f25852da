//! Query-execution work counters.
//!
//! [`ExecStats`] counts the *logical* work the executor performs — rows
//! scanned and matched, access paths chosen, join strategies, subquery
//! memo effectiveness — as opposed to the storage layer's physical
//! counters. An optional [`StatsCell`] rides on [`crate::QueryCtx`]; when
//! absent (the default), instrumentation is a no-op branch.
//!
//! `StatsCell` uses interior mutability (`Cell`) because `QueryCtx` is a
//! `Copy` bundle of shared references threaded through recursive
//! evaluation; counters must accumulate across all copies.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use setrules_json::Json;

/// Counters of logical query-execution work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows materialized from `from` items (stored tables and transition
    /// tables alike) before predicate filtering.
    pub rows_scanned: u64,
    /// Row combinations that satisfied the `where` predicate (including
    /// the rows a `delete`/`update` identifies).
    pub rows_matched: u64,
    /// Scans answered by an index probe, plus one per `min`/`max` call an
    /// ordered-index boundary probe answers.
    pub index_lookups: u64,
    /// Scans that had to walk every live tuple.
    pub full_scans: u64,
    /// Scans proven empty by the planner (impossible predicates).
    pub empty_scans: u64,
    /// Uncorrelated-subquery memo hits (including the cheap "known
    /// correlated" verdict).
    pub subquery_cache_hits: u64,
    /// Subquery evaluations that had to run (first sight of the node).
    pub subquery_cache_misses: u64,
    /// Two-item equi-joins executed via the hash-join fast path.
    pub hash_joins: u64,
    /// Multi-item joins executed via the nested-loop odometer (or, in the
    /// compiled pipeline, cross-product join steps with no usable
    /// equi-join key).
    pub nested_loop_joins: u64,
    /// Rows dropped during the scan by predicate conjuncts the compiled
    /// pipeline pushed down to their `from` item.
    pub pushdown_filtered: u64,
    /// Row combinations assembled by the join (each is one full-predicate
    /// evaluation) — the per-row-work figure the compile-once pipeline
    /// exists to shrink.
    pub join_combinations: u64,
    /// Scans answered by an ordered-index range walk.
    pub range_scans: u64,
    /// Live tuples a range scan did *not* visit (table size minus range
    /// result) — the work the ordered index saved over a full scan.
    pub range_rows_skipped: u64,
    /// `order by` clauses answered by index order instead of a sort.
    pub sort_elided: u64,
    /// Predicate phases (a scan's pushed conjuncts, the `where` pass)
    /// executed in partitions across threads instead of serially.
    pub parallel_scans: u64,
    /// Total partitions across all parallel phases (a phase with 4
    /// partitions adds 4).
    pub parallel_partitions: u64,
    /// Phases that passed the exchange's gate (a thread budget above 1
    /// and at least two partitions' worth of items) but ran serially
    /// because evaluation is not row-local (correlated subqueries needing
    /// the shared memo, unresolved names, outer references) — proof
    /// the executor never races shared state.
    pub serial_fallbacks: u64,
    /// `order by ... limit k` clauses answered by top-k selection
    /// (partial select + prefix sort) instead of a full sort.
    pub topk_selected: u64,
    /// Rows probed by the incremental condition evaluator (memo rebuilds
    /// and delta repairs) — the per-row work the TREAT-style path does
    /// *instead of* full transition-table scans.
    pub incr_probe_rows: u64,
}

impl ExecStats {
    /// Counter-wise sum.
    pub fn plus(&self, other: &ExecStats) -> ExecStats {
        ExecStats {
            rows_scanned: self.rows_scanned + other.rows_scanned,
            rows_matched: self.rows_matched + other.rows_matched,
            index_lookups: self.index_lookups + other.index_lookups,
            full_scans: self.full_scans + other.full_scans,
            empty_scans: self.empty_scans + other.empty_scans,
            subquery_cache_hits: self.subquery_cache_hits + other.subquery_cache_hits,
            subquery_cache_misses: self.subquery_cache_misses + other.subquery_cache_misses,
            hash_joins: self.hash_joins + other.hash_joins,
            nested_loop_joins: self.nested_loop_joins + other.nested_loop_joins,
            pushdown_filtered: self.pushdown_filtered + other.pushdown_filtered,
            join_combinations: self.join_combinations + other.join_combinations,
            range_scans: self.range_scans + other.range_scans,
            range_rows_skipped: self.range_rows_skipped + other.range_rows_skipped,
            sort_elided: self.sort_elided + other.sort_elided,
            parallel_scans: self.parallel_scans + other.parallel_scans,
            parallel_partitions: self.parallel_partitions + other.parallel_partitions,
            serial_fallbacks: self.serial_fallbacks + other.serial_fallbacks,
            topk_selected: self.topk_selected + other.topk_selected,
            incr_probe_rows: self.incr_probe_rows + other.incr_probe_rows,
        }
    }

    /// Counter-wise difference from an earlier snapshot.
    pub fn since(&self, earlier: &ExecStats) -> ExecStats {
        ExecStats {
            rows_scanned: self.rows_scanned - earlier.rows_scanned,
            rows_matched: self.rows_matched - earlier.rows_matched,
            index_lookups: self.index_lookups - earlier.index_lookups,
            full_scans: self.full_scans - earlier.full_scans,
            empty_scans: self.empty_scans - earlier.empty_scans,
            subquery_cache_hits: self.subquery_cache_hits - earlier.subquery_cache_hits,
            subquery_cache_misses: self.subquery_cache_misses - earlier.subquery_cache_misses,
            hash_joins: self.hash_joins - earlier.hash_joins,
            nested_loop_joins: self.nested_loop_joins - earlier.nested_loop_joins,
            pushdown_filtered: self.pushdown_filtered - earlier.pushdown_filtered,
            join_combinations: self.join_combinations - earlier.join_combinations,
            range_scans: self.range_scans - earlier.range_scans,
            range_rows_skipped: self.range_rows_skipped - earlier.range_rows_skipped,
            sort_elided: self.sort_elided - earlier.sort_elided,
            parallel_scans: self.parallel_scans - earlier.parallel_scans,
            parallel_partitions: self.parallel_partitions - earlier.parallel_partitions,
            serial_fallbacks: self.serial_fallbacks - earlier.serial_fallbacks,
            topk_selected: self.topk_selected - earlier.topk_selected,
            incr_probe_rows: self.incr_probe_rows - earlier.incr_probe_rows,
        }
    }

    /// JSON object with one field per counter.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rows_scanned", Json::Int(self.rows_scanned as i64)),
            ("rows_matched", Json::Int(self.rows_matched as i64)),
            ("index_lookups", Json::Int(self.index_lookups as i64)),
            ("full_scans", Json::Int(self.full_scans as i64)),
            ("empty_scans", Json::Int(self.empty_scans as i64)),
            ("subquery_cache_hits", Json::Int(self.subquery_cache_hits as i64)),
            ("subquery_cache_misses", Json::Int(self.subquery_cache_misses as i64)),
            ("hash_joins", Json::Int(self.hash_joins as i64)),
            ("nested_loop_joins", Json::Int(self.nested_loop_joins as i64)),
            ("pushdown_filtered", Json::Int(self.pushdown_filtered as i64)),
            ("join_combinations", Json::Int(self.join_combinations as i64)),
            ("range_scans", Json::Int(self.range_scans as i64)),
            ("range_rows_skipped", Json::Int(self.range_rows_skipped as i64)),
            ("sort_elided", Json::Int(self.sort_elided as i64)),
            ("parallel_scans", Json::Int(self.parallel_scans as i64)),
            ("parallel_partitions", Json::Int(self.parallel_partitions as i64)),
            ("serial_fallbacks", Json::Int(self.serial_fallbacks as i64)),
            ("topk_selected", Json::Int(self.topk_selected as i64)),
            ("incr_probe_rows", Json::Int(self.incr_probe_rows as i64)),
        ])
    }
}

/// A shared, interior-mutable accumulator for [`ExecStats`].
///
/// Attach one through [`crate::ExecOpts::stats`]; every executor path
/// consulting the statement's context adds its work here.
#[derive(Debug, Default)]
pub struct StatsCell {
    inner: Cell<ExecStats>,
}

impl StatsCell {
    /// A fresh, zeroed accumulator.
    pub fn new() -> Self {
        StatsCell::default()
    }

    /// Current counter values.
    pub fn snapshot(&self) -> ExecStats {
        self.inner.get()
    }

    /// Current counter values, resetting the accumulator to zero.
    pub fn take(&self) -> ExecStats {
        self.inner.replace(ExecStats::default())
    }

    /// Apply a mutation to the counters (used by executor instrumentation).
    pub fn bump(&self, f: impl FnOnce(&mut ExecStats)) {
        let mut s = self.inner.get();
        f(&mut s);
        self.inner.set(s);
    }
}

/// Bump the optional stats cell carried by a context: a no-op when no
/// accumulator is attached.
pub(crate) fn bump(stats: Option<&StatsCell>, f: impl FnOnce(&mut ExecStats)) {
    if let Some(cell) = stats {
        cell.bump(f);
    }
}

/// Per-operator work counters for one physical operator of the
/// [`crate::exec`] pipeline (keyed by operator name in [`OpStatsCell`]).
///
/// These ride a *separate* side channel from [`ExecStats`]: the 19
/// aggregate counters stay the executor's stable, thread-independent
/// vocabulary (the differential suites compare them bit-for-bit), while
/// per-operator counters attribute that work to the operator tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Batches this operator emitted.
    pub batches: u64,
    /// Rows the operator consumed from its child (0 for leaves).
    pub rows_in: u64,
    /// Rows the operator emitted.
    pub rows_out: u64,
}

/// A shared, interior-mutable per-operator counter map, keyed by operator
/// name (`"seq-scan"`, `"hash-join"`, `"filter"`, …). Attach one through
/// [`crate::ExecOpts::op_stats`]; every operator of the [`crate::exec`]
/// tree records into it. `BTreeMap` keeps iteration order deterministic.
#[derive(Debug, Default)]
pub struct OpStatsCell {
    inner: RefCell<BTreeMap<&'static str, OpCounters>>,
}

impl OpStatsCell {
    /// A fresh, empty counter map.
    pub fn new() -> Self {
        OpStatsCell::default()
    }

    /// Current counters for every operator that recorded work.
    pub fn snapshot(&self) -> BTreeMap<&'static str, OpCounters> {
        self.inner.borrow().clone()
    }

    /// Counters for one operator (zeroes if it never ran).
    pub fn get(&self, name: &str) -> OpCounters {
        self.inner.borrow().get(name).copied().unwrap_or_default()
    }

    /// Names of every operator that recorded work, in sorted order.
    pub fn operators(&self) -> Vec<&'static str> {
        self.inner.borrow().keys().copied().collect()
    }

    /// Record one emitted batch of `rows` rows for operator `name`.
    pub(crate) fn batch_out(&self, name: &'static str, rows: usize) {
        let mut m = self.inner.borrow_mut();
        let c = m.entry(name).or_default();
        c.batches += 1;
        c.rows_out += rows as u64;
    }

    /// Record `rows` rows consumed from the child of operator `name`.
    pub(crate) fn rows_in(&self, name: &'static str, rows: usize) {
        self.inner.borrow_mut().entry(name).or_default().rows_in += rows as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_and_since_are_inverse() {
        let a = ExecStats { rows_scanned: 10, rows_matched: 4, hash_joins: 1, ..Default::default() };
        let b = ExecStats {
            rows_scanned: 25,
            rows_matched: 9,
            hash_joins: 2,
            full_scans: 3,
            ..Default::default()
        };
        assert_eq!(a.plus(&b.since(&a)), b);
    }

    #[test]
    fn cell_accumulates_and_takes() {
        let cell = StatsCell::new();
        cell.bump(|s| s.rows_scanned += 5);
        cell.bump(|s| s.rows_scanned += 2);
        assert_eq!(cell.snapshot().rows_scanned, 7);
        assert_eq!(cell.take().rows_scanned, 7);
        assert_eq!(cell.snapshot(), ExecStats::default());
    }

    #[test]
    fn json_has_all_counters() {
        let j = ExecStats { nested_loop_joins: 3, ..Default::default() }.to_json();
        assert_eq!(j.get("nested_loop_joins").unwrap().as_i64(), Some(3));
        assert_eq!(j.get("rows_scanned").unwrap().as_i64(), Some(0));
        assert_eq!(j.as_object().unwrap().len(), 19);
    }
}
