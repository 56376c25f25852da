//! Engine-level counters and per-rule timing.
//!
//! [`EngineStats`] accumulates over the lifetime of a
//! [`crate::RuleSystem`]; deltas for one processing pass or one
//! transaction are taken with [`EngineStats::since`] and surfaced on
//! [`crate::ProcessReport`] / [`crate::TxnOutcome`] as a [`TxnStats`]
//! bundle alongside the query layer's `ExecStats` and the storage
//! layer's `StorageStats`.

use std::collections::BTreeMap;

use setrules_json::Json;
use setrules_query::ExecStats;
use setrules_storage::StorageStats;

/// Per-rule consideration/execution counts and wall-clock timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleTiming {
    /// Times the rule was chosen for consideration.
    pub considered: u64,
    /// Considerations whose condition evaluated to not-true.
    pub condition_false: u64,
    /// Times the rule's action executed.
    pub executed: u64,
    /// Considerations that were re-considerations within one pass.
    pub retriggered: u64,
    /// Nanoseconds spent evaluating the rule's condition.
    pub condition_nanos: u64,
    /// Nanoseconds spent executing the rule's action.
    pub action_nanos: u64,
}

impl RuleTiming {
    /// Counter-wise sum.
    pub fn plus(&self, other: &RuleTiming) -> RuleTiming {
        RuleTiming {
            considered: self.considered + other.considered,
            condition_false: self.condition_false + other.condition_false,
            executed: self.executed + other.executed,
            retriggered: self.retriggered + other.retriggered,
            condition_nanos: self.condition_nanos + other.condition_nanos,
            action_nanos: self.action_nanos + other.action_nanos,
        }
    }

    /// Counter-wise difference from an earlier snapshot.
    pub fn since(&self, earlier: &RuleTiming) -> RuleTiming {
        RuleTiming {
            considered: self.considered - earlier.considered,
            condition_false: self.condition_false - earlier.condition_false,
            executed: self.executed - earlier.executed,
            retriggered: self.retriggered - earlier.retriggered,
            condition_nanos: self.condition_nanos - earlier.condition_nanos,
            action_nanos: self.action_nanos - earlier.action_nanos,
        }
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == RuleTiming::default()
    }

    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("considered", Json::Int(self.considered as i64)),
            ("condition_false", Json::Int(self.condition_false as i64)),
            ("executed", Json::Int(self.executed as i64)),
            ("retriggered", Json::Int(self.retriggered as i64)),
            ("condition_nanos", Json::Int(self.condition_nanos as i64)),
            ("action_nanos", Json::Int(self.action_nanos as i64)),
        ])
    }
}

/// Cumulative engine-phase counters with a per-rule timing breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Transactions committed.
    pub txns_committed: u64,
    /// Transactions rolled back (rule-requested, explicit, or on error).
    pub txns_rolled_back: u64,
    /// Externally-generated blocks absorbed into rule windows.
    pub external_blocks: u64,
    /// Rule considerations (Fig. 1 selections).
    pub rules_considered: u64,
    /// Considerations whose condition evaluated to not-true.
    pub conditions_false: u64,
    /// Rule actions executed.
    pub rules_executed: u64,
    /// Re-considerations of an already-considered rule within one pass.
    pub rules_retriggered: u64,
    /// Footnote-7 loop-safeguard aborts.
    pub loop_aborts: u64,
    /// Rule considerations that found the rule's prepared state (its
    /// compiled condition and incremental state).
    pub plan_cache_hits: u64,
    /// Rule considerations that had to prepare the rule fresh (first
    /// consideration, or after a DDL invalidation).
    pub plan_cache_misses: u64,
    /// Considerations answered by repairing the rule's materialized
    /// condition state from the composed `[I, D, U]` delta instead of
    /// re-scanning its transition tables.
    pub incr_hits: u64,
    /// Considerations that (re)built the condition state by one full
    /// window scan (first consideration, or after a window reset broke
    /// the delta chain).
    pub incr_rebuilds: u64,
    /// Considerations of incrementally-enabled rules that fell back to
    /// full re-scan (non-incrementalizable condition shape).
    pub incr_fallbacks: u64,
    /// Rows probed by incremental repairs and rebuilds combined.
    pub incr_delta_rows: u64,
    /// Incremental considerations whose composed delta suffix was served
    /// from the shared per-transaction compose cache (another rule at the
    /// same cursor already folded it this round).
    pub incr_shared_hits: u64,
    /// Join side memos (shared per side template and window start)
    /// filled by one scan of the window.
    pub incr_side_builds: u64,
    /// `incr_fallbacks` broken down by `FallbackReason` label (plus
    /// dynamic degrade labels such as the sum overflow guard).
    pub incr_fallback_reasons: BTreeMap<String, u64>,
    /// Storage faults deliberately injected by an armed
    /// `setrules_storage::FaultInjector` plan.
    pub faults_injected: u64,
    /// Failed DML statements whose partial effects were undone to the
    /// statement savepoint (each is followed by a transaction rollback).
    pub stmt_rollbacks: u64,
    /// Query phases (a scan's pushed conjuncts, the `where` pass) that
    /// ran partitioned across threads (mirrors the query layer's counter).
    pub parallel_scans: u64,
    /// Total partitions across those parallel phases.
    pub parallel_partitions: u64,
    /// Query phases big enough to parallelize that fell back to serial
    /// because their predicate was not row-local (correlated subqueries,
    /// unresolved names).
    pub serial_fallbacks: u64,
    /// Write-ahead-log records appended (durable configurations only).
    pub wal_appends: u64,
    /// Write-ahead-log syncs — fsync-boundary crossings (durable
    /// configurations only).
    pub wal_syncs: u64,
    /// Records replayed from the log when this system was opened.
    pub wal_replayed_records: u64,
    /// Checkpoint records written to the log.
    pub checkpoints: u64,
    /// Per-rule breakdown, keyed by rule name (deterministic order).
    pub per_rule: BTreeMap<String, RuleTiming>,
}

impl EngineStats {
    /// The timing slot for `rule`, creating it on first touch. Only that
    /// first touch allocates the key; the consideration loop calls this
    /// several times per consideration.
    pub(crate) fn rule_mut(&mut self, rule: &str) -> &mut RuleTiming {
        if !self.per_rule.contains_key(rule) {
            self.per_rule.insert(rule.to_string(), RuleTiming::default());
        }
        self.per_rule.get_mut(rule).expect("slot inserted above")
    }

    /// Counter-wise sum (union of per-rule maps).
    pub fn plus(&self, other: &EngineStats) -> EngineStats {
        let mut per_rule = self.per_rule.clone();
        for (name, t) in &other.per_rule {
            let slot = per_rule.entry(name.clone()).or_default();
            *slot = slot.plus(t);
        }
        EngineStats {
            txns_committed: self.txns_committed + other.txns_committed,
            txns_rolled_back: self.txns_rolled_back + other.txns_rolled_back,
            external_blocks: self.external_blocks + other.external_blocks,
            rules_considered: self.rules_considered + other.rules_considered,
            conditions_false: self.conditions_false + other.conditions_false,
            rules_executed: self.rules_executed + other.rules_executed,
            rules_retriggered: self.rules_retriggered + other.rules_retriggered,
            loop_aborts: self.loop_aborts + other.loop_aborts,
            plan_cache_hits: self.plan_cache_hits + other.plan_cache_hits,
            plan_cache_misses: self.plan_cache_misses + other.plan_cache_misses,
            incr_hits: self.incr_hits + other.incr_hits,
            incr_rebuilds: self.incr_rebuilds + other.incr_rebuilds,
            incr_fallbacks: self.incr_fallbacks + other.incr_fallbacks,
            incr_delta_rows: self.incr_delta_rows + other.incr_delta_rows,
            incr_shared_hits: self.incr_shared_hits + other.incr_shared_hits,
            incr_side_builds: self.incr_side_builds + other.incr_side_builds,
            incr_fallback_reasons: {
                let mut m = self.incr_fallback_reasons.clone();
                for (label, n) in &other.incr_fallback_reasons {
                    *m.entry(label.clone()).or_insert(0) += n;
                }
                m
            },
            faults_injected: self.faults_injected + other.faults_injected,
            stmt_rollbacks: self.stmt_rollbacks + other.stmt_rollbacks,
            parallel_scans: self.parallel_scans + other.parallel_scans,
            parallel_partitions: self.parallel_partitions + other.parallel_partitions,
            serial_fallbacks: self.serial_fallbacks + other.serial_fallbacks,
            wal_appends: self.wal_appends + other.wal_appends,
            wal_syncs: self.wal_syncs + other.wal_syncs,
            wal_replayed_records: self.wal_replayed_records + other.wal_replayed_records,
            checkpoints: self.checkpoints + other.checkpoints,
            per_rule,
        }
    }

    /// Counter-wise difference from an earlier snapshot of the same
    /// system. Rules whose delta is all-zero are omitted from `per_rule`.
    pub fn since(&self, earlier: &EngineStats) -> EngineStats {
        let mut per_rule = BTreeMap::new();
        for (name, t) in &self.per_rule {
            let base = earlier.per_rule.get(name).copied().unwrap_or_default();
            let d = t.since(&base);
            if !d.is_zero() {
                per_rule.insert(name.clone(), d);
            }
        }
        EngineStats {
            txns_committed: self.txns_committed - earlier.txns_committed,
            txns_rolled_back: self.txns_rolled_back - earlier.txns_rolled_back,
            external_blocks: self.external_blocks - earlier.external_blocks,
            rules_considered: self.rules_considered - earlier.rules_considered,
            conditions_false: self.conditions_false - earlier.conditions_false,
            rules_executed: self.rules_executed - earlier.rules_executed,
            rules_retriggered: self.rules_retriggered - earlier.rules_retriggered,
            loop_aborts: self.loop_aborts - earlier.loop_aborts,
            plan_cache_hits: self.plan_cache_hits - earlier.plan_cache_hits,
            plan_cache_misses: self.plan_cache_misses - earlier.plan_cache_misses,
            incr_hits: self.incr_hits - earlier.incr_hits,
            incr_rebuilds: self.incr_rebuilds - earlier.incr_rebuilds,
            incr_fallbacks: self.incr_fallbacks - earlier.incr_fallbacks,
            incr_delta_rows: self.incr_delta_rows - earlier.incr_delta_rows,
            incr_shared_hits: self.incr_shared_hits - earlier.incr_shared_hits,
            incr_side_builds: self.incr_side_builds - earlier.incr_side_builds,
            incr_fallback_reasons: self
                .incr_fallback_reasons
                .iter()
                .filter_map(|(label, n)| {
                    let d = n - earlier.incr_fallback_reasons.get(label).copied().unwrap_or(0);
                    (d != 0).then(|| (label.clone(), d))
                })
                .collect(),
            faults_injected: self.faults_injected - earlier.faults_injected,
            stmt_rollbacks: self.stmt_rollbacks - earlier.stmt_rollbacks,
            parallel_scans: self.parallel_scans - earlier.parallel_scans,
            parallel_partitions: self.parallel_partitions - earlier.parallel_partitions,
            serial_fallbacks: self.serial_fallbacks - earlier.serial_fallbacks,
            wal_appends: self.wal_appends - earlier.wal_appends,
            wal_syncs: self.wal_syncs - earlier.wal_syncs,
            wal_replayed_records: self.wal_replayed_records - earlier.wal_replayed_records,
            checkpoints: self.checkpoints - earlier.checkpoints,
            per_rule,
        }
    }

    /// JSON object form: phase counters plus a `per_rule` object.
    pub fn to_json(&self) -> Json {
        let per_rule =
            self.per_rule.iter().map(|(n, t)| (n.clone(), t.to_json())).collect::<Vec<_>>();
        Json::obj([
            ("txns_committed", Json::Int(self.txns_committed as i64)),
            ("txns_rolled_back", Json::Int(self.txns_rolled_back as i64)),
            ("external_blocks", Json::Int(self.external_blocks as i64)),
            ("rules_considered", Json::Int(self.rules_considered as i64)),
            ("conditions_false", Json::Int(self.conditions_false as i64)),
            ("rules_executed", Json::Int(self.rules_executed as i64)),
            ("rules_retriggered", Json::Int(self.rules_retriggered as i64)),
            ("loop_aborts", Json::Int(self.loop_aborts as i64)),
            ("plan_cache_hits", Json::Int(self.plan_cache_hits as i64)),
            ("plan_cache_misses", Json::Int(self.plan_cache_misses as i64)),
            ("incr_hits", Json::Int(self.incr_hits as i64)),
            ("incr_rebuilds", Json::Int(self.incr_rebuilds as i64)),
            ("incr_fallbacks", Json::Int(self.incr_fallbacks as i64)),
            ("incr_delta_rows", Json::Int(self.incr_delta_rows as i64)),
            ("incr_shared_hits", Json::Int(self.incr_shared_hits as i64)),
            ("incr_side_builds", Json::Int(self.incr_side_builds as i64)),
            (
                "incr_fallback_reasons",
                Json::Object(
                    self.incr_fallback_reasons
                        .iter()
                        .map(|(label, n)| (label.clone(), Json::Int(*n as i64)))
                        .collect(),
                ),
            ),
            ("faults_injected", Json::Int(self.faults_injected as i64)),
            ("stmt_rollbacks", Json::Int(self.stmt_rollbacks as i64)),
            ("parallel_scans", Json::Int(self.parallel_scans as i64)),
            ("parallel_partitions", Json::Int(self.parallel_partitions as i64)),
            ("serial_fallbacks", Json::Int(self.serial_fallbacks as i64)),
            ("wal_appends", Json::Int(self.wal_appends as i64)),
            ("wal_syncs", Json::Int(self.wal_syncs as i64)),
            ("wal_replayed_records", Json::Int(self.wal_replayed_records as i64)),
            ("checkpoints", Json::Int(self.checkpoints as i64)),
            ("per_rule", Json::Object(per_rule)),
        ])
    }
}

/// The observability bundle for one transaction or processing pass:
/// engine-phase counters (with per-rule timing), query-execution work,
/// and physical storage work — all as deltas over the pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Engine-phase counters for the pass.
    pub engine: EngineStats,
    /// Query-layer work (rows scanned/matched, access paths, joins,
    /// subquery memo effectiveness) for the pass.
    pub exec: ExecStats,
    /// Storage-layer work (tuples touched, undo volume, index
    /// maintenance) for the pass.
    pub storage: StorageStats,
}

impl TxnStats {
    /// Component-wise sum.
    pub fn plus(&self, other: &TxnStats) -> TxnStats {
        TxnStats {
            engine: self.engine.plus(&other.engine),
            exec: self.exec.plus(&other.exec),
            storage: self.storage.plus(&other.storage),
        }
    }

    /// Component-wise difference from an earlier snapshot.
    pub fn since(&self, earlier: &TxnStats) -> TxnStats {
        TxnStats {
            engine: self.engine.since(&earlier.engine),
            exec: self.exec.since(&earlier.exec),
            storage: self.storage.since(&earlier.storage),
        }
    }

    /// JSON object with `engine` / `query` / `storage` sections.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("engine", self.engine.to_json()),
            ("query", self.exec.to_json()),
            ("storage", self.storage.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_stats_since_and_plus_roundtrip() {
        let mut a = EngineStats { rules_considered: 3, ..Default::default() };
        a.rule_mut("r1").considered = 3;
        let mut b = EngineStats { rules_considered: 7, rules_executed: 2, ..Default::default() };
        b.rule_mut("r1").considered = 5;
        b.rule_mut("r2").considered = 2;
        b.rule_mut("r2").executed = 2;
        let d = b.since(&a);
        assert_eq!(d.rules_considered, 4);
        assert_eq!(d.per_rule["r1"].considered, 2);
        assert_eq!(d.per_rule["r2"].executed, 2);
        assert_eq!(a.plus(&d), b);
    }

    #[test]
    fn zero_rule_deltas_are_omitted() {
        let mut a = EngineStats::default();
        a.rule_mut("quiet").considered = 4;
        let b = a.clone();
        assert!(b.since(&a).per_rule.is_empty());
    }

    #[test]
    fn txn_stats_json_sections() {
        let j = TxnStats::default().to_json();
        assert!(j.get("engine").is_some());
        assert!(j.get("query").is_some());
        assert!(j.get("storage").is_some());
    }
}
