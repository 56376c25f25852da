//! Durable operation: write-ahead logging, crash recovery, checkpoints.
//!
//! The engine logs *physical redo*: every DML statement — external or
//! rule-generated — appends records carrying the exact tuple handles the
//! original execution issued, and a transaction's `Commit` record is
//! synced only after the §4 rule-processing loop finishes, so the rule
//! actions it triggered are part of the same all-or-nothing commit unit.
//! Replay applies a transaction only when its `Commit` is present in the
//! durable prefix; everything after the last synced commit is a crash's
//! lost suffix and recovery discards it.
//!
//! Crash model: an injected WAL fault (or a real sink error) marks the
//! log state `crashed`, discards the unsynced suffix — exactly what a
//! kill would have lost — and from then on the dying "process" writes
//! nothing more. A graceful abort (statement error, `rollback` action)
//! on a live process under [`SyncPolicy::EachRecord`] appends an `Abort`
//! marker so the already-durable records are skipped on replay; under
//! group commit the records never left the buffer and are simply
//! dropped. See `docs/durability.md`.

use setrules_json::Json;
use setrules_query::OpEffect;
use setrules_storage::{
    ColumnSet, Database, FaultKind, StorageError, TableId, Tuple, TupleHandle, Value,
};
use setrules_wal::{
    value_from_json, value_to_json, SyncPolicy, WalConfig, WalError, WalRecord, WalWriter,
};

use std::sync::Arc;

use setrules_storage::ColumnId;

use crate::engine::RuleSystem;
use crate::error::RuleError;
use crate::events::{EngineEvent, EventBus};
use crate::snapshot::Snapshot;
use crate::stats::EngineStats;
use crate::transinfo::{DelEntry, SelEntry, TransInfo, UpdEntry};

/// Live write-ahead-log state of a durable [`RuleSystem`].
pub(crate) struct WalState {
    /// The buffered writer over the configured sink.
    pub(crate) writer: WalWriter,
    /// Set while recovery replays the log: every logging helper no-ops,
    /// so replayed DDL/DML does not re-log itself.
    pub(crate) replaying: bool,
    /// Set when a WAL fault (injected or real) "killed the process":
    /// the unsynced suffix is discarded and nothing more is written
    /// until the next transaction begins.
    pub(crate) crashed: bool,
    /// Records appended since the current transaction's `Begin`.
    pub(crate) txn_appends: u64,
    /// Commits since the last checkpoint (for `checkpoint_every`).
    pub(crate) commits_since_checkpoint: u64,
}

fn bad_win(what: &str) -> RuleError {
    RuleError::Wal(WalError::Record(format!(
        "malformed deferred window: bad or missing '{what}'"
    )))
}

// ---------------------------------------------------------------------
// Deferred-window codec (§5.3 durability)
// ---------------------------------------------------------------------
//
// A `TransInfo` window references tables by `TableId`; the log encodes
// table *names* (like the DML records) so the record stays meaningful
// against the replayed catalog, and old-tuple values go through the
// bit-exact WAL value codec so the recovered window compares equal to
// the live one byte for byte.

/// Encode a deferred window for a [`WalRecord::DeferredWindow`] record.
pub(crate) fn window_to_json(db: &Database, w: &TransInfo) -> Json {
    let name = |t: TableId| Json::Str(db.schema(t).name.clone());
    let vals = |t: &Tuple| Json::Array(t.0.iter().map(value_to_json).collect());
    let cols = |cs: &ColumnSet| {
        Json::Array(cs.iter().map(|c| Json::Int(c.0 as i64)).collect())
    };
    let ins = w.ins.iter().map(|h| Json::Int(h.0 as i64)).collect();
    let del = w
        .del
        .iter()
        .map(|(h, e)| Json::Array(vec![Json::Int(h.0 as i64), name(e.table), vals(&e.old)]))
        .collect();
    let upd = w
        .upd
        .iter()
        .map(|(h, e)| {
            Json::Array(vec![Json::Int(h.0 as i64), name(e.table), cols(&e.columns), vals(&e.old)])
        })
        .collect();
    let sel = w
        .sel
        .iter()
        .map(|(h, e)| {
            let cs = match &e.columns {
                Some(cs) => cols(cs),
                None => Json::Null,
            };
            Json::Array(vec![Json::Int(h.0 as i64), name(e.table), cs])
        })
        .collect();
    Json::obj([
        ("ins", Json::Array(ins)),
        ("del", Json::Array(del)),
        ("upd", Json::Array(upd)),
        ("sel", Json::Array(sel)),
    ])
}

/// Decode a [`WalRecord::DeferredWindow`] record's state against the
/// replayed catalog.
pub(crate) fn window_from_json(db: &Database, j: &Json) -> Result<TransInfo, RuleError> {
    let arr = |k: &str| j.get(k).and_then(Json::as_array).ok_or_else(|| bad_win(k));
    let handle = |v: &Json| -> Result<TupleHandle, RuleError> {
        v.as_i64()
            .and_then(|i| u64::try_from(i).ok())
            .map(TupleHandle)
            .ok_or_else(|| bad_win("handle"))
    };
    let tid = |v: &Json| -> Result<TableId, RuleError> {
        let name = v.as_str().ok_or_else(|| bad_win("table"))?;
        db.table_id(name).map_err(|_| bad_win("table"))
    };
    let tup = |v: &Json| -> Result<Arc<Tuple>, RuleError> {
        let vals = v
            .as_array()
            .ok_or_else(|| bad_win("old"))?
            .iter()
            .map(value_from_json)
            .collect::<Result<Vec<_>, WalError>>()
            .map_err(RuleError::Wal)?;
        Ok(Arc::new(Tuple(vals)))
    };
    let cols = |v: &Json| -> Result<ColumnSet, RuleError> {
        v.as_array()
            .ok_or_else(|| bad_win("columns"))?
            .iter()
            .map(|c| {
                c.as_i64()
                    .and_then(|i| u16::try_from(i).ok())
                    .map(ColumnId)
                    .ok_or_else(|| bad_win("columns"))
            })
            .collect()
    };
    let mut w = TransInfo::new();
    for h in arr("ins")? {
        w.ins.insert(handle(h)?);
    }
    for e in arr("del")? {
        let [h, t, old] = e.as_array().ok_or_else(|| bad_win("del"))? else {
            return Err(bad_win("del"));
        };
        w.del.insert(handle(h)?, DelEntry { table: tid(t)?, old: tup(old)? });
    }
    for e in arr("upd")? {
        let [h, t, cs, old] = e.as_array().ok_or_else(|| bad_win("upd"))? else {
            return Err(bad_win("upd"));
        };
        w.upd.insert(
            handle(h)?,
            UpdEntry { table: tid(t)?, columns: cols(cs)?, old: tup(old)? },
        );
    }
    for e in arr("sel")? {
        let [h, t, cs] = e.as_array().ok_or_else(|| bad_win("sel"))? else {
            return Err(bad_win("sel"));
        };
        let columns = match cs {
            Json::Null => None,
            other => Some(cols(other)?),
        };
        w.sel.insert(handle(h)?, SelEntry { table: tid(t)?, columns });
    }
    Ok(w)
}

// ---------------------------------------------------------------------
// Free-function logging helpers
// ---------------------------------------------------------------------
//
// These take the engine's fields separately (rather than `&mut self`) so
// the rule-action loop — which holds immutable borrows of `self.rules`
// and `self.windows` for its window provider — can still log each effect as
// it executes.

/// Append one record: poll the `wal_append` fault site, encode into the
/// group-commit buffer, and (under [`SyncPolicy::EachRecord`]) sync
/// immediately. A fault is a crash: the unsynced suffix is discarded.
pub(crate) fn wal_append(
    db: &mut Database,
    wal: &mut Option<WalState>,
    stats: &mut EngineStats,
    events: &mut EventBus,
    rec: &WalRecord,
) -> Result<(), RuleError> {
    let each = {
        let Some(w) = wal.as_mut() else { return Ok(()) };
        if w.replaying {
            return Ok(());
        }
        if let Err(e) = db.fault_injector_mut().poll(FaultKind::WalAppend) {
            w.crashed = true;
            let _ = w.writer.discard_unsynced();
            return Err(e.into());
        }
        w.writer.append_record(rec);
        w.txn_appends += 1;
        stats.wal_appends += 1;
        w.writer.config().sync == SyncPolicy::EachRecord
    };
    events.emit(EngineEvent::WalAppend { kind: rec.kind().to_string() });
    if each {
        wal_sync(db, wal, stats)?;
    }
    Ok(())
}

/// Cross the fsync boundary: poll the `wal_sync` fault site, flush the
/// buffer, and sync the sink. A fault or sink error is a crash.
pub(crate) fn wal_sync(
    db: &mut Database,
    wal: &mut Option<WalState>,
    stats: &mut EngineStats,
) -> Result<(), RuleError> {
    let Some(w) = wal.as_mut() else { return Ok(()) };
    if w.replaying {
        return Ok(());
    }
    if let Err(e) = db.fault_injector_mut().poll(FaultKind::WalSync) {
        w.crashed = true;
        let _ = w.writer.discard_unsynced();
        return Err(e.into());
    }
    if let Err(e) = w.writer.sync() {
        w.crashed = true;
        let _ = w.writer.discard_unsynced();
        return Err(RuleError::Wal(e));
    }
    stats.wal_syncs += 1;
    Ok(())
}

/// Sync if the policy is group commit (under [`SyncPolicy::EachRecord`]
/// every append already synced, so there is nothing left to make durable).
pub(crate) fn wal_ensure_synced(
    db: &mut Database,
    wal: &mut Option<WalState>,
    stats: &mut EngineStats,
) -> Result<(), RuleError> {
    let group = match wal.as_ref() {
        Some(w) if !w.replaying => w.writer.config().sync == SyncPolicy::GroupCommit,
        _ => return Ok(()),
    };
    if group {
        wal_sync(db, wal, stats)?;
    }
    Ok(())
}

/// The stored values of a tuple the statement just inserted or updated.
/// It is live unless the effect and the heap disagree, which is reported
/// as a typed error rather than a panic in the commit path.
fn live_values(
    db: &Database,
    table: TableId,
    h: TupleHandle,
    name: &str,
) -> Result<Vec<Value>, RuleError> {
    match db.get(table, h) {
        Some(t) => Ok(t.0.clone()),
        None => Err(StorageError::NoSuchTuple { table: name.to_string() }.into()),
    }
}

/// Log the redo records for one executed statement's effect. Reads the
/// *stored* (schema-coerced) tuples back out of the database so replay
/// reproduces them bit for bit; `select` effects write nothing.
pub(crate) fn wal_log_effect(
    db: &mut Database,
    wal: &mut Option<WalState>,
    stats: &mut EngineStats,
    events: &mut EventBus,
    eff: &OpEffect,
) -> Result<(), RuleError> {
    match wal.as_ref() {
        Some(w) if !w.replaying => {}
        _ => return Ok(()),
    }
    match eff {
        OpEffect::Insert { table, handles } => {
            let name = db.schema(*table).name.clone();
            for h in handles {
                let values = live_values(db, *table, *h, &name)?;
                let rec = WalRecord::Insert { table: name.clone(), handle: h.0, values };
                wal_append(db, wal, stats, events, &rec)?;
            }
        }
        OpEffect::Delete { table, tuples } => {
            let name = db.schema(*table).name.clone();
            for (h, _) in tuples {
                let rec = WalRecord::Delete { table: name.clone(), handle: h.0 };
                wal_append(db, wal, stats, events, &rec)?;
            }
        }
        OpEffect::Update { table, tuples, .. } => {
            let name = db.schema(*table).name.clone();
            for (h, _) in tuples {
                let values = live_values(db, *table, *h, &name)?;
                let rec = WalRecord::Update { table: name.clone(), handle: h.0, values };
                wal_append(db, wal, stats, events, &rec)?;
            }
        }
        OpEffect::Select { .. } => {}
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Engine methods: transaction lifecycle, DDL, checkpoints, recovery
// ---------------------------------------------------------------------

impl RuleSystem {
    /// Log the `Begin` of a new transaction (resetting the per-txn crash
    /// bookkeeping first).
    pub(crate) fn wal_begin(&mut self) -> Result<(), RuleError> {
        if let Some(w) = self.wal.as_mut() {
            if !w.replaying {
                w.txn_appends = 0;
                w.crashed = false;
            }
        }
        wal_append(&mut self.db, &mut self.wal, &mut self.stats, &mut self.events, &WalRecord::Begin)
    }

    /// Log and sync the `Commit` record — called *before* the in-memory
    /// commit, so the transaction is durable first. The handle high-water
    /// mark rides along so handles burned by rolled-back statements stay
    /// burned across recovery.
    pub(crate) fn wal_commit(&mut self) -> Result<(), RuleError> {
        match self.wal.as_ref() {
            Some(w) if !w.replaying => {}
            _ => return Ok(()),
        }
        let handles = self.db.handles_issued();
        let rec = WalRecord::Commit { handles };
        wal_append(&mut self.db, &mut self.wal, &mut self.stats, &mut self.events, &rec)?;
        wal_ensure_synced(&mut self.db, &mut self.wal, &mut self.stats)?;
        if let Some(w) = self.wal.as_mut() {
            w.txn_appends = 0;
        }
        Ok(())
    }

    /// Log and immediately sync a DDL (or checkpoint) record. DDL takes
    /// effect outside transactions, so each record is its own durability
    /// unit under both sync policies. On failure the crash bookkeeping is
    /// cleared (there is no transaction to abort) and a fault event is
    /// emitted, mirroring the DML statement-failure path.
    pub(crate) fn wal_ddl(&mut self, rec: WalRecord) -> Result<(), RuleError> {
        let result =
            wal_append(&mut self.db, &mut self.wal, &mut self.stats, &mut self.events, &rec)
                .and_then(|()| wal_sync(&mut self.db, &mut self.wal, &mut self.stats));
        if let Err(e) = result {
            if let Some(w) = self.wal.as_mut() {
                w.crashed = false;
                w.txn_appends = 0;
            }
            if let RuleError::Storage(StorageError::FaultInjected { kind, op }) = &e {
                self.stats.faults_injected += 1;
                self.events.emit(EngineEvent::Fault { kind: kind.name().to_string(), n: *op });
            }
            return Err(e);
        }
        Ok(())
    }

    /// Append the deferred window a commit will leave behind (§5.3). Part
    /// of the surrounding transaction's durability unit: replay applies
    /// the last such record at the transaction's `Commit`, so a crash
    /// before the sync keeps the previously-logged window.
    pub(crate) fn wal_log_deferred(&mut self, window: &TransInfo) -> Result<(), RuleError> {
        match self.wal.as_ref() {
            Some(w) if !w.replaying => {}
            _ => return Ok(()),
        }
        let state = window_to_json(&self.db, window);
        let rec = WalRecord::DeferredWindow { state };
        wal_append(&mut self.db, &mut self.wal, &mut self.stats, &mut self.events, &rec)
    }

    /// Durably clear the logged deferred window *outside* any transaction
    /// (the [`RuleSystem::clear_deferred`] path): its own append-and-sync
    /// unit, like DDL.
    pub(crate) fn wal_clear_deferred(&mut self) -> Result<(), RuleError> {
        match self.wal.as_ref() {
            Some(w) if !w.replaying => {}
            _ => return Ok(()),
        }
        let state = window_to_json(&self.db, &TransInfo::new());
        self.wal_ddl(WalRecord::DeferredWindow { state })
    }

    /// Roll the log back at a graceful (non-crash) transaction abort.
    ///
    /// A *crashed* log writes nothing — the dead process cannot append an
    /// abort marker; its durable prefix simply lacks the `Commit`. A live
    /// abort under group commit drops the still-buffered records; under
    /// [`SyncPolicy::EachRecord`] the records already hit the sink, so an
    /// `Abort` marker is appended (best effort) to carry the handle
    /// high-water mark forward.
    pub(crate) fn wal_graceful_abort(&mut self) {
        let handles = self.db.handles_issued();
        let Some(w) = self.wal.as_mut() else { return };
        if w.replaying {
            return;
        }
        if w.crashed {
            w.crashed = false;
            w.txn_appends = 0;
            return;
        }
        let had = std::mem::take(&mut w.txn_appends);
        let _ = w.writer.discard_unsynced();
        if w.writer.config().sync == SyncPolicy::EachRecord && had > 0 {
            w.writer.append_record(&WalRecord::Abort { handles });
            if w.writer.sync().is_ok() {
                self.stats.wal_appends += 1;
                self.stats.wal_syncs += 1;
                self.events.emit(EngineEvent::WalAppend { kind: "abort".to_string() });
            } else {
                let _ = w.writer.discard_unsynced();
            }
        }
    }

    /// After a successful commit: write a checkpoint if one is due.
    ///
    /// Checkpoints are written only at full quiescence (no deferred
    /// window: its pending transitions live outside the database image
    /// and a checkpoint could not carry them). A checkpoint failure is
    /// absorbed — the commit it follows already succeeded, and the next
    /// eligible commit retries.
    pub(crate) fn maybe_checkpoint(&mut self) {
        let due = match self.wal.as_mut() {
            Some(w) if !w.replaying && w.writer.config().checkpoint_every > 0 => {
                w.commits_since_checkpoint += 1;
                w.commits_since_checkpoint >= w.writer.config().checkpoint_every
            }
            _ => false,
        };
        if !due || !self.deferred_window().is_empty() {
            return;
        }
        // E.g. a rule with a native action snuck in: skip checkpoints,
        // full-log replay still works. The snapshot's row copies are freed
        // before the record is encoded, so they never coexist with the
        // record's own JSON copies.
        let Ok(state) = self.snapshot().map(|snap| snap.to_json()) else { return };
        // `wal_ddl` has already cleared the crash bookkeeping on failure.
        let _ = self.wal_checkpoint(state);
    }

    /// Log `state` (a [`Snapshot`]'s JSON) as one `Checkpoint` record, its
    /// own append-and-sync unit like DDL. Replay restores the last one and
    /// applies only the log suffix after it.
    pub(crate) fn wal_checkpoint(&mut self, state: Json) -> Result<(), RuleError> {
        let bytes = state.compact().len() as u64;
        self.wal_ddl(WalRecord::Checkpoint { state })?;
        self.stats.checkpoints += 1;
        self.events.emit(EngineEvent::Checkpoint { bytes });
        if let Some(w) = self.wal.as_mut() {
            w.commits_since_checkpoint = 0;
        }
        Ok(())
    }

    /// Current write-ahead-log status, for introspection (the REPL's
    /// `\wal`): sync policy, sink positions, and the cumulative counters.
    /// `None` when the system is not durable.
    pub fn wal_status(&self) -> Option<Json> {
        let w = self.wal.as_ref()?;
        let cfg = w.writer.config();
        let policy = match cfg.sync {
            SyncPolicy::GroupCommit => "group_commit",
            SyncPolicy::EachRecord => "each_record",
        };
        Some(Json::obj([
            ("sync_policy", Json::Str(policy.to_string())),
            ("checkpoint_every", Json::Int(cfg.checkpoint_every as i64)),
            ("synced_len", Json::Int(w.writer.synced_len() as i64)),
            ("sink_len", Json::Int(w.writer.sink_len() as i64)),
            ("buffered_len", Json::Int(w.writer.buffered_len() as i64)),
            ("wal_appends", Json::Int(self.stats.wal_appends as i64)),
            ("wal_syncs", Json::Int(self.stats.wal_syncs as i64)),
            ("wal_replayed_records", Json::Int(self.stats.wal_replayed_records as i64)),
            ("checkpoints", Json::Int(self.stats.checkpoints as i64)),
        ]))
    }

    // -----------------------------------------------------------------
    // Recovery
    // -----------------------------------------------------------------

    /// Open the log, truncate any torn tail, and replay the committed
    /// image into this (fresh) system. Recovery itself is assumed
    /// reliable — like the undo path — so it never polls fault sites,
    /// and the injector's site counters are reset afterwards to keep
    /// fault numbering independent of replayed history.
    pub(crate) fn recover(&mut self, cfg: WalConfig) -> Result<(), RuleError> {
        let (writer, outcome) = WalWriter::open(cfg).map_err(RuleError::Wal)?;
        self.wal = Some(WalState {
            writer,
            replaying: true,
            crashed: false,
            txn_appends: 0,
            commits_since_checkpoint: 0,
        });
        let result = self.replay(&outcome.records);
        if let Some(w) = self.wal.as_mut() {
            w.replaying = false;
        }
        result?;
        self.stats.wal_replayed_records += outcome.records.len() as u64;
        self.events.emit(EngineEvent::Recovery {
            records: outcome.records.len() as u64,
            truncated_bytes: outcome.truncated_bytes,
        });
        self.db.fault_injector_mut().reset_counts();
        Ok(())
    }

    /// Replay scanned records: restore the last checkpoint (if any), then
    /// apply DDL as it appears and DML transactionally — a transaction's
    /// buffered records apply only when its `Commit` arrives; a dangling
    /// transaction (crash after `Begin`, before `Commit`) is discarded.
    fn replay(&mut self, records: &[WalRecord]) -> Result<(), RuleError> {
        let mut start = 0;
        if let Some(ci) = records.iter().rposition(|r| matches!(r, WalRecord::Checkpoint { .. }))
        {
            let WalRecord::Checkpoint { state } = &records[ci] else { unreachable!() };
            self.load_image(Snapshot::from_json(state)?)?;
            start = ci + 1;
        }
        let mut open: Option<Vec<&WalRecord>> = None;
        for rec in &records[start..] {
            match rec {
                WalRecord::Begin => open = Some(Vec::new()),
                WalRecord::Insert { .. } | WalRecord::Delete { .. } | WalRecord::Update { .. } => {
                    // A DML record outside a transaction cannot be written
                    // by this engine; tolerate it (skip) rather than fail
                    // recovery on a foreign log.
                    if let Some(buf) = open.as_mut() {
                        buf.push(rec);
                    }
                }
                WalRecord::Commit { handles } => {
                    let buffered = open.take().unwrap_or_default();
                    for &r in &buffered {
                        self.redo(r)?;
                    }
                    self.db.redo_handle_watermark(*handles, TableId(0));
                    self.db.commit();
                    // The last deferred-window record in the transaction
                    // is the pending state this commit leaves behind.
                    for &r in buffered.iter().rev() {
                        if let WalRecord::DeferredWindow { state } = r {
                            self.deferred = window_from_json(&self.db, state)?;
                            break;
                        }
                    }
                }
                WalRecord::Abort { handles } => {
                    open = None;
                    self.db.redo_handle_watermark(*handles, TableId(0));
                }
                WalRecord::TableDdl { sql }
                | WalRecord::IndexDdl { sql }
                | WalRecord::RuleDdl { sql } => {
                    // Normal execution path; `replaying` suppresses
                    // re-logging.
                    self.execute(sql)?;
                }
                WalRecord::DeferredWindow { state } => match open.as_mut() {
                    // In-transaction: applies only if the `Commit` arrives.
                    Some(buf) => buf.push(rec),
                    // A durable `clear_deferred` logs outside any
                    // transaction and takes effect immediately.
                    None => self.deferred = window_from_json(&self.db, state)?,
                },
                // Only the last checkpoint is restored; earlier ones are
                // superseded by the state they precede.
                WalRecord::Checkpoint { .. } => {}
            }
        }
        Ok(())
    }

    /// Apply one DML record's physical redo.
    fn redo(&mut self, rec: &WalRecord) -> Result<(), RuleError> {
        match rec {
            WalRecord::Insert { table, handle, values } => {
                let t = self.db.table_id(table)?;
                self.db.redo_insert(t, TupleHandle(*handle), Tuple(values.clone()))?;
            }
            WalRecord::Delete { table, handle } => {
                let t = self.db.table_id(table)?;
                self.db.redo_delete(t, TupleHandle(*handle))?;
            }
            WalRecord::Update { table, handle, values } => {
                let t = self.db.table_id(table)?;
                self.db.redo_update(t, TupleHandle(*handle), Tuple(values.clone()))?;
            }
            _ => {}
        }
        Ok(())
    }
}
