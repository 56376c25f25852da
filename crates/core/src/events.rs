//! Structured engine trace events.
//!
//! Every significant step of the Figure 1 algorithm emits an
//! [`EngineEvent`]: transaction boundaries, external blocks being
//! absorbed into rule windows, rule consideration / condition-false /
//! execution / re-triggering, trans-info maintenance, rollbacks, and the
//! footnote-7 loop-safeguard abort. Events flow to [`EventSink`]s; the
//! engine always keeps a bounded in-memory [`RingBufferSink`], and
//! callers may attach extra sinks (e.g. a [`JsonLinesSink`] for durable
//! traces).
//!
//! Events are *descriptive*, not authoritative: they carry names and
//! cardinalities, never handles or values, so emitting them costs a few
//! allocations and cannot change engine behavior.

use std::collections::VecDeque;
use std::fmt;

use setrules_json::Json;

/// One step of the rule-execution algorithm, in emission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineEvent {
    /// A transaction opened (explicitly or implicitly).
    TxnBegin,
    /// The open transaction committed.
    TxnCommit {
        /// Rule firings in the transaction.
        fired: usize,
        /// Rule-generated transitions used.
        transitions: usize,
    },
    /// The open transaction was rolled back to its start state.
    Rollback {
        /// The rule whose `rollback` action fired, or `None` for an
        /// explicit/user abort (including error aborts).
        by_rule: Option<String>,
    },
    /// An externally-generated operation block was composed into the rule
    /// windows (the transition becoming "complete" at a triggering point).
    ExternalBlockAbsorbed {
        /// Net inserted tuples in the block.
        inserted: usize,
        /// Net deleted tuples in the block.
        deleted: usize,
        /// Net updated tuples in the block.
        updated: usize,
        /// Net selected tuples in the block (§5.1 extension).
        selected: usize,
    },
    /// A triggered rule was chosen for consideration (Fig. 1 selection).
    RuleConsidered {
        /// The rule's name.
        rule: String,
    },
    /// The considered rule's prepared state was looked up before
    /// condition evaluation: a hit reuses the rule's compiled condition
    /// and incremental state, a miss prepares them fresh (first
    /// consideration, or after a DDL dropped every rule's prepared
    /// state).
    PlanCache {
        /// The rule's name.
        rule: String,
        /// Whether the rule was already prepared.
        hit: bool,
    },
    /// The considered rule's condition was evaluated by the incremental
    /// (TREAT-style) path: its materialized match sets were repaired from
    /// the composed `[I, D, U]` delta (`mode: "repair"`), rebuilt from
    /// the full window (`mode: "rebuild"`), or the rule fell back to full
    /// re-scan (`mode: "fallback"`, with the analyzer's reason).
    IncrementalEval {
        /// The rule's name.
        rule: String,
        /// `"repair"`, `"rebuild"`, or `"fallback"`.
        mode: String,
        /// Rows probed by the repair/rebuild (0 for fallbacks).
        delta_rows: u64,
        /// Whether any term's composed delta suffix was served from the
        /// shared per-transaction compose cache (another rule already
        /// folded it this round).
        shared: bool,
    },
    /// The considered rule's condition evaluated to not-true.
    RuleConditionFalse {
        /// The rule's name.
        rule: String,
    },
    /// The considered rule's action executed, producing a transition.
    RuleExecuted {
        /// The rule's name.
        rule: String,
        /// Tuples the action's transition inserted (net).
        inserted: usize,
        /// Tuples the action's transition deleted (net).
        deleted: usize,
        /// Tuples the action's transition updated (net).
        updated: usize,
    },
    /// A rule already considered in this processing pass was chosen
    /// again — later transitions re-triggered it (§4.2).
    RuleRetriggered {
        /// The rule's name.
        rule: String,
    },
    /// A rule's trans-info was (re)initialized to a single transition
    /// (Fig. 1 `init-trans-info`).
    TransInfoInit {
        /// The rule's name.
        rule: String,
    },
    /// A new transition was composed into a rule's existing trans-info
    /// (Fig. 1 `modify-trans-info`).
    TransInfoModify {
        /// The rule's name.
        rule: String,
    },
    /// The footnote-7 run-time divergence guard tripped; the transaction
    /// is about to roll back.
    LoopSafeguardAbort {
        /// The configured transition limit that was exceeded.
        limit: usize,
    },
    /// An armed [`setrules_storage::FaultInjector`] fired: the Nth storage
    /// operation of the planned kind failed deliberately. Always followed
    /// by [`EngineEvent::StatementRollback`] and a transaction rollback.
    Fault {
        /// The faulted operation kind (stable snake_case name).
        kind: String,
        /// Which occurrence of that kind failed (1-based).
        n: u64,
    },
    /// A DML statement failed mid-flight and its partial effects (if any)
    /// were undone to the statement savepoint, leaving the database
    /// exactly at the pre-statement state before the transaction itself
    /// rolls back.
    StatementRollback,
    /// One or more predicate phases of a statement (a scan's pushed
    /// conjuncts, the `where` pass) ran partitioned across threads (see
    /// `docs/parallel-execution.md`); results are bit-identical to serial
    /// execution.
    ParallelScan {
        /// Total partitions across the statement's parallel phases.
        partitions: u64,
        /// Rows scanned by the statement (parallel and serial phases).
        rows: u64,
    },
    /// One record was appended to the write-ahead log (durable
    /// configurations only).
    WalAppend {
        /// The record's stable snake_case kind tag (`"begin"`,
        /// `"insert"`, `"commit"`, ...).
        kind: String,
    },
    /// A full-state checkpoint record was written to the write-ahead log.
    Checkpoint {
        /// Size of the encoded checkpoint state, in bytes.
        bytes: u64,
    },
    /// A durable system was opened: the log was scanned and its committed
    /// records replayed onto the fresh image.
    Recovery {
        /// Valid records found in the log (checkpoint + tail).
        records: u64,
        /// Bytes of torn or corrupt tail discarded by the scan.
        truncated_bytes: u64,
    },
}

impl EngineEvent {
    /// Stable machine-readable tag for the event type.
    pub fn kind(&self) -> &'static str {
        match self {
            EngineEvent::TxnBegin => "txn_begin",
            EngineEvent::TxnCommit { .. } => "txn_commit",
            EngineEvent::Rollback { .. } => "rollback",
            EngineEvent::ExternalBlockAbsorbed { .. } => "external_block_absorbed",
            EngineEvent::RuleConsidered { .. } => "rule_considered",
            EngineEvent::PlanCache { .. } => "plan_cache",
            EngineEvent::IncrementalEval { .. } => "incremental_eval",
            EngineEvent::RuleConditionFalse { .. } => "rule_condition_false",
            EngineEvent::RuleExecuted { .. } => "rule_executed",
            EngineEvent::RuleRetriggered { .. } => "rule_retriggered",
            EngineEvent::TransInfoInit { .. } => "trans_info_init",
            EngineEvent::TransInfoModify { .. } => "trans_info_modify",
            EngineEvent::LoopSafeguardAbort { .. } => "loop_safeguard_abort",
            EngineEvent::Fault { .. } => "fault",
            EngineEvent::StatementRollback => "statement_rollback",
            EngineEvent::ParallelScan { .. } => "parallel_scan",
            EngineEvent::WalAppend { .. } => "wal_append",
            EngineEvent::Checkpoint { .. } => "checkpoint",
            EngineEvent::Recovery { .. } => "recovery",
        }
    }

    /// The rule this event concerns, if it concerns one.
    pub fn rule(&self) -> Option<&str> {
        match self {
            EngineEvent::RuleConsidered { rule }
            | EngineEvent::PlanCache { rule, .. }
            | EngineEvent::IncrementalEval { rule, .. }
            | EngineEvent::RuleConditionFalse { rule }
            | EngineEvent::RuleExecuted { rule, .. }
            | EngineEvent::RuleRetriggered { rule }
            | EngineEvent::TransInfoInit { rule }
            | EngineEvent::TransInfoModify { rule } => Some(rule),
            EngineEvent::Rollback { by_rule } => by_rule.as_deref(),
            _ => None,
        }
    }

    /// JSON object form: an `"event"` tag plus the variant's fields.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> =
            vec![("event".into(), Json::Str(self.kind().into()))];
        let mut put = |k: &str, v: Json| fields.push((k.into(), v));
        match self {
            EngineEvent::TxnBegin => {}
            EngineEvent::TxnCommit { fired, transitions } => {
                put("fired", Json::Int(*fired as i64));
                put("transitions", Json::Int(*transitions as i64));
            }
            EngineEvent::Rollback { by_rule } => {
                put(
                    "by_rule",
                    match by_rule {
                        Some(r) => Json::Str(r.clone()),
                        None => Json::Null,
                    },
                );
            }
            EngineEvent::ExternalBlockAbsorbed { inserted, deleted, updated, selected } => {
                put("inserted", Json::Int(*inserted as i64));
                put("deleted", Json::Int(*deleted as i64));
                put("updated", Json::Int(*updated as i64));
                put("selected", Json::Int(*selected as i64));
            }
            EngineEvent::RuleConsidered { rule }
            | EngineEvent::RuleConditionFalse { rule }
            | EngineEvent::RuleRetriggered { rule }
            | EngineEvent::TransInfoInit { rule }
            | EngineEvent::TransInfoModify { rule } => {
                put("rule", Json::Str(rule.clone()));
            }
            EngineEvent::RuleExecuted { rule, inserted, deleted, updated } => {
                put("rule", Json::Str(rule.clone()));
                put("inserted", Json::Int(*inserted as i64));
                put("deleted", Json::Int(*deleted as i64));
                put("updated", Json::Int(*updated as i64));
            }
            EngineEvent::PlanCache { rule, hit } => {
                put("rule", Json::Str(rule.clone()));
                put("hit", Json::Bool(*hit));
            }
            EngineEvent::IncrementalEval { rule, mode, delta_rows, shared } => {
                put("rule", Json::Str(rule.clone()));
                put("mode", Json::Str(mode.clone()));
                put("delta_rows", Json::Int(*delta_rows as i64));
                put("shared", Json::Bool(*shared));
            }
            EngineEvent::LoopSafeguardAbort { limit } => {
                put("limit", Json::Int(*limit as i64));
            }
            EngineEvent::Fault { kind, n } => {
                put("kind", Json::Str(kind.clone()));
                put("n", Json::Int(*n as i64));
            }
            EngineEvent::StatementRollback => {}
            EngineEvent::ParallelScan { partitions, rows } => {
                put("partitions", Json::Int(*partitions as i64));
                put("rows", Json::Int(*rows as i64));
            }
            EngineEvent::WalAppend { kind } => {
                put("kind", Json::Str(kind.clone()));
            }
            EngineEvent::Checkpoint { bytes } => {
                put("bytes", Json::Int(*bytes as i64));
            }
            EngineEvent::Recovery { records, truncated_bytes } => {
                put("records", Json::Int(*records as i64));
                put("truncated_bytes", Json::Int(*truncated_bytes as i64));
            }
        }
        Json::Object(fields)
    }
}

impl fmt::Display for EngineEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineEvent::TxnBegin => write!(f, "txn begin"),
            EngineEvent::TxnCommit { fired, transitions } => {
                write!(f, "txn commit ({fired} fired, {transitions} transitions)")
            }
            EngineEvent::Rollback { by_rule: Some(r) } => write!(f, "rollback by rule '{r}'"),
            EngineEvent::Rollback { by_rule: None } => write!(f, "rollback"),
            EngineEvent::ExternalBlockAbsorbed { inserted, deleted, updated, selected } => {
                write!(
                    f,
                    "external block absorbed (I={inserted} D={deleted} U={updated} S={selected})"
                )
            }
            EngineEvent::RuleConsidered { rule } => write!(f, "rule '{rule}' considered"),
            EngineEvent::PlanCache { rule, hit: true } => {
                write!(f, "plan cache hit for '{rule}'")
            }
            EngineEvent::PlanCache { rule, hit: false } => {
                write!(f, "plan cache miss for '{rule}'")
            }
            EngineEvent::IncrementalEval { rule, mode, delta_rows, shared } => {
                write!(
                    f,
                    "incremental eval ({mode}) for '{rule}' ({delta_rows} delta rows{})",
                    if *shared { ", shared delta" } else { "" }
                )
            }
            EngineEvent::RuleConditionFalse { rule } => {
                write!(f, "rule '{rule}' condition false")
            }
            EngineEvent::RuleExecuted { rule, inserted, deleted, updated } => {
                write!(f, "rule '{rule}' executed (I={inserted} D={deleted} U={updated})")
            }
            EngineEvent::RuleRetriggered { rule } => write!(f, "rule '{rule}' re-triggered"),
            EngineEvent::TransInfoInit { rule } => write!(f, "trans-info init for '{rule}'"),
            EngineEvent::TransInfoModify { rule } => {
                write!(f, "trans-info modify for '{rule}'")
            }
            EngineEvent::LoopSafeguardAbort { limit } => {
                write!(f, "loop safeguard abort (limit {limit})")
            }
            EngineEvent::Fault { kind, n } => {
                write!(f, "injected fault: {kind} #{n}")
            }
            EngineEvent::StatementRollback => write!(f, "statement rollback"),
            EngineEvent::ParallelScan { partitions, rows } => {
                write!(f, "parallel scan ({partitions} partitions, {rows} rows)")
            }
            EngineEvent::WalAppend { kind } => write!(f, "wal append ({kind})"),
            EngineEvent::Checkpoint { bytes } => write!(f, "checkpoint written ({bytes} bytes)"),
            EngineEvent::Recovery { records, truncated_bytes } => {
                write!(f, "recovery replayed {records} records ({truncated_bytes} torn bytes)")
            }
        }
    }
}

/// A consumer of the engine's event stream. `seq` is a monotonically
/// increasing sequence number over the lifetime of the [`crate::RuleSystem`].
pub trait EventSink {
    /// Receive one event. Sinks must not panic; the engine treats them as
    /// fire-and-forget.
    fn emit(&mut self, seq: u64, event: &EngineEvent);
}

/// Bounded in-memory sink retaining the most recent `capacity` events —
/// the engine's always-on default.
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    buf: VecDeque<(u64, EngineEvent)>,
}

impl RingBufferSink {
    /// A ring retaining at most `capacity` events (`0` disables retention).
    pub fn new(capacity: usize) -> Self {
        RingBufferSink { capacity, buf: VecDeque::new() }
    }

    /// Retained `(seq, event)` pairs, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &(u64, EngineEvent)> {
        self.buf.iter()
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<EngineEvent> {
        self.buf.iter().map(|(_, e)| e.clone()).collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drop all retained events (the sequence counter lives in the engine
    /// and keeps increasing).
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

impl EventSink for RingBufferSink {
    fn emit(&mut self, seq: u64, event: &EngineEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back((seq, event.clone()));
    }
}

/// Sink writing each event as one compact JSON object per line
/// (`{"seq": …, "event": …, …}`) — suitable for files or pipes.
pub struct JsonLinesSink<W: std::io::Write> {
    w: W,
}

impl<W: std::io::Write> JsonLinesSink<W> {
    /// Wrap a writer.
    pub fn new(w: W) -> Self {
        JsonLinesSink { w }
    }

    /// Recover the writer (e.g. to flush or inspect a buffer).
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: std::io::Write> EventSink for JsonLinesSink<W> {
    fn emit(&mut self, seq: u64, event: &EngineEvent) {
        let Json::Object(fields) = event.to_json() else { unreachable!("to_json is an object") };
        let mut all = vec![("seq".to_string(), Json::Int(seq as i64))];
        all.extend(fields);
        // Write errors are swallowed: tracing must never fail the engine.
        let _ = writeln!(self.w, "{}", Json::Object(all).compact());
    }
}

/// The engine's event fan-out: an always-on ring buffer plus any number
/// of caller-attached sinks, sharing one sequence counter.
pub(crate) struct EventBus {
    pub(crate) ring: RingBufferSink,
    extra: Vec<Box<dyn EventSink>>,
    seq: u64,
}

impl EventBus {
    pub(crate) fn new(capacity: usize) -> Self {
        EventBus { ring: RingBufferSink::new(capacity), extra: Vec::new(), seq: 0 }
    }

    pub(crate) fn attach(&mut self, sink: Box<dyn EventSink>) {
        self.extra.push(sink);
    }

    pub(crate) fn emit(&mut self, event: EngineEvent) {
        let seq = self.seq;
        self.seq += 1;
        for s in &mut self.extra {
            s.emit(seq, &event);
        }
        self.ring.emit(seq, &event);
    }

    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<EngineEvent> {
        vec![
            EngineEvent::TxnBegin,
            EngineEvent::TxnCommit { fired: 2, transitions: 3 },
            EngineEvent::Rollback { by_rule: Some("r".into()) },
            EngineEvent::Rollback { by_rule: None },
            EngineEvent::ExternalBlockAbsorbed { inserted: 1, deleted: 0, updated: 2, selected: 0 },
            EngineEvent::RuleConsidered { rule: "r".into() },
            EngineEvent::PlanCache { rule: "r".into(), hit: true },
            EngineEvent::RuleConditionFalse { rule: "r".into() },
            EngineEvent::RuleExecuted { rule: "r".into(), inserted: 1, deleted: 1, updated: 0 },
            EngineEvent::RuleRetriggered { rule: "r".into() },
            EngineEvent::TransInfoInit { rule: "r".into() },
            EngineEvent::TransInfoModify { rule: "r".into() },
            EngineEvent::LoopSafeguardAbort { limit: 10 },
            EngineEvent::Fault { kind: "tuple_insert".into(), n: 3 },
            EngineEvent::StatementRollback,
            EngineEvent::ParallelScan { partitions: 4, rows: 100_000 },
            EngineEvent::WalAppend { kind: "commit".into() },
            EngineEvent::Checkpoint { bytes: 512 },
            EngineEvent::Recovery { records: 9, truncated_bytes: 3 },
        ]
    }

    #[test]
    fn kinds_are_unique_and_json_tags_match() {
        let evs = samples();
        let mut kinds: Vec<&str> = evs.iter().map(|e| e.kind()).collect();
        kinds.dedup();
        // Rollback appears twice in samples (named / unnamed).
        assert_eq!(kinds.len(), 18);
        for e in &evs {
            assert_eq!(e.to_json().get("event").unwrap().as_str(), Some(e.kind()));
            assert!(!format!("{e}").is_empty());
        }
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut ring = RingBufferSink::new(3);
        for i in 0..10u64 {
            ring.emit(i, &EngineEvent::LoopSafeguardAbort { limit: i as usize });
        }
        let seqs: Vec<u64> = ring.entries().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_event() {
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.emit(0, &EngineEvent::TxnBegin);
        sink.emit(1, &EngineEvent::RuleConsidered { rule: "r".into() });
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let parsed = Json::parse(lines[1]).unwrap();
        assert_eq!(parsed.get("seq").unwrap().as_i64(), Some(1));
        assert_eq!(parsed.get("event").unwrap().as_str(), Some("rule_considered"));
        assert_eq!(parsed.get("rule").unwrap().as_str(), Some("r"));
    }
}
