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

/// Declares [`EngineStats`]: its `u64` counters, listed once, and the
/// counter-wise `plus` / `since` / `to_json` over them and the two maps.
macro_rules! engine_stats {
    ($($(#[doc = $doc:literal])+ $name:ident,)+) => {
        /// Cumulative engine-phase counters with a per-rule timing
        /// breakdown.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct EngineStats {
            $($(#[doc = $doc])+ pub $name: u64,)+
            /// `incr_fallbacks` broken down by `FallbackReason` label (plus
            /// dynamic degrade labels such as the sum overflow guard).
            pub incr_fallback_reasons: BTreeMap<String, u64>,
            /// Per-rule breakdown, keyed by rule name (deterministic order).
            pub per_rule: BTreeMap<String, RuleTiming>,
        }

        impl EngineStats {
            /// Counter-wise sum (union of per-rule maps).
            pub fn plus(&self, other: &EngineStats) -> EngineStats {
                let mut per_rule = self.per_rule.clone();
                for (name, t) in &other.per_rule {
                    let slot = per_rule.entry(name.clone()).or_default();
                    *slot = slot.plus(t);
                }
                let mut incr_fallback_reasons = self.incr_fallback_reasons.clone();
                for (label, n) in &other.incr_fallback_reasons {
                    *incr_fallback_reasons.entry(label.clone()).or_insert(0) += n;
                }
                EngineStats {
                    $($name: self.$name + other.$name,)+
                    incr_fallback_reasons,
                    per_rule,
                }
            }

            /// Counter-wise difference from an earlier snapshot of the
            /// same system. Rules whose delta is all-zero are omitted from
            /// `per_rule`.
            pub fn since(&self, earlier: &EngineStats) -> EngineStats {
                let mut per_rule = BTreeMap::new();
                for (name, t) in &self.per_rule {
                    let base = earlier.per_rule.get(name).copied().unwrap_or_default();
                    let d = t.since(&base);
                    if !d.is_zero() {
                        per_rule.insert(name.clone(), d);
                    }
                }
                let incr_fallback_reasons = self
                    .incr_fallback_reasons
                    .iter()
                    .filter_map(|(label, n)| {
                        let d = n - earlier.incr_fallback_reasons.get(label).copied().unwrap_or(0);
                        (d != 0).then(|| (label.clone(), d))
                    })
                    .collect();
                EngineStats {
                    $($name: self.$name - earlier.$name,)+
                    incr_fallback_reasons,
                    per_rule,
                }
            }

            /// JSON object form: the counters, the fallback breakdown and
            /// a `per_rule` object.
            pub fn to_json(&self) -> Json {
                let reasons = self.incr_fallback_reasons.iter();
                let reasons = reasons.map(|(l, n)| (l.clone(), Json::Int(*n as i64)));
                let per_rule = self.per_rule.iter().map(|(n, t)| (n.clone(), t.to_json()));
                let mut pairs = vec![$((stringify!($name), Json::Int(self.$name as i64)),)+];
                pairs.push(("incr_fallback_reasons", Json::Object(reasons.collect())));
                pairs.push(("per_rule", Json::Object(per_rule.collect())));
                Json::obj(pairs)
            }
        }
    };
}

engine_stats! {
    /// Transactions committed.
    txns_committed,
    /// Transactions rolled back (rule-requested, explicit, or on error).
    txns_rolled_back,
    /// Externally-generated blocks absorbed into rule windows.
    external_blocks,
    /// Rule considerations (Fig. 1 selections).
    rules_considered,
    /// Considerations whose condition evaluated to not-true.
    conditions_false,
    /// Rule actions executed.
    rules_executed,
    /// Re-considerations of an already-considered rule within one pass.
    rules_retriggered,
    /// Footnote-7 loop-safeguard aborts.
    loop_aborts,
    /// Trigger tests (`Rule::triggered_by` calls): one per live rule
    /// against each new transition, plus one per candidate verdict
    /// computed against a rule's window after it changed.
    trigger_checks,
    /// Compositions of a transition into a rule's window that were not a
    /// window restart (Definition 2.1's fold, one per rule per
    /// transition).
    window_composes,
    /// Rule considerations that found the rule's prepared state (its
    /// compiled condition and incremental state).
    plan_cache_hits,
    /// Rule considerations that had to prepare the rule fresh (first
    /// consideration, or after a DDL invalidation).
    plan_cache_misses,
    /// Considerations answered by repairing the rule's materialized
    /// condition state from the composed `[I, D, U]` delta instead of
    /// re-scanning its transition tables.
    incr_hits,
    /// Considerations that (re)built the condition state by one full
    /// window scan (first consideration, or after a window reset broke
    /// the delta chain).
    incr_rebuilds,
    /// Considerations of incrementally-enabled rules that fell back to
    /// full re-scan (non-incrementalizable condition shape).
    incr_fallbacks,
    /// Rows probed by incremental repairs and rebuilds combined.
    incr_delta_rows,
    /// Incremental considerations whose composed delta suffix was served
    /// from the shared per-transaction compose cache (another rule at the
    /// same cursor already folded it this round).
    incr_shared_hits,
    /// Join side memos (shared per side template and window start)
    /// filled by one scan of the window.
    incr_side_builds,
    /// Storage faults deliberately injected by an armed
    /// `setrules_storage::FaultInjector` plan.
    faults_injected,
    /// Failed DML statements whose partial effects were undone to the
    /// statement savepoint (each is followed by a transaction rollback).
    stmt_rollbacks,
    /// Query phases (a scan's pushed conjuncts, the `where` pass) that
    /// ran partitioned across threads (mirrors the query layer's counter).
    parallel_scans,
    /// Total partitions across those parallel phases.
    parallel_partitions,
    /// Query phases big enough to parallelize that fell back to serial
    /// because their predicate was not row-local (correlated subqueries,
    /// unresolved names).
    serial_fallbacks,
    /// Write-ahead-log records appended (durable configurations only).
    wal_appends,
    /// Write-ahead-log syncs — fsync-boundary crossings (durable
    /// configurations only).
    wal_syncs,
    /// Records replayed from the log when this system was opened.
    wal_replayed_records,
    /// Checkpoint records written to the log.
    checkpoints,
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
