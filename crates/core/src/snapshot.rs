//! Snapshot and restore: the one serialized form of a quiescent
//! [`RuleSystem`].
//!
//! [`RuleSystem::snapshot`] captures the exact state image: live tables
//! with their [`TableId`]s, rows with their tuple handles, the handle
//! high-water mark, index kinds, rules (canonical SQL), deactivations and
//! priorities. [`Snapshot::to_json`] / [`Snapshot::from_json`] are its only
//! encoder and decoder, and a write-ahead-log `Checkpoint` record carries
//! exactly that JSON. [`RuleSystem::restore`] and log replay load an image
//! through one loader, so a restored system reproduces `state_image()` and
//! `handles_issued()` byte for byte: tuple handles are part of the state
//! and are never reused (§2), and floats travel by their bits, so NaN,
//! ±inf and -0.0 survive.
//!
//! There are no open transactions or rule windows to carry: snapshots are
//! taken at quiescence. Rules with [external actions](crate::external) are
//! native code and cannot be serialized; snapshotting a system that has
//! any raises [`RuleError::Unsupported`].
//!
//! A snapshot string is outside input. Decoding and loading check it, and
//! a malformed or inconsistent image (duplicate or zero handles, a
//! high-water mark below a row's handle, ill-typed rows, unknown columns
//! or rules) is a typed [`RuleError`], never a panic.
//!
//! JSON shape (slot `i` is table id `i`; `null` marks a dropped table):
//!
//! ```text
//! { "slots": [ null | { "name": s, "columns": [[name, type], ...],
//!                       "indexes": [column | [column, kind], ...],
//!                       "rows_h": [[handle, value, ...], ...] }, ... ],
//!   "handles": n, "rules": [sql, ...], "deactivated": [name, ...],
//!   "priorities": [[higher, lower], ...] }
//! ```

use setrules_json::{Json, JsonError};
use setrules_sql::ast::{BasicTransPred, CreateRule, RuleAction};
use setrules_storage::{
    ColumnDef, DataType, IndexKind, TableId, TableSchema, Tuple, TupleHandle, Value,
};
use setrules_wal::{value_from_json, value_to_json};

use crate::engine::RuleSystem;
use crate::error::RuleError;
use crate::rule::{CompiledAction, CompiledPred};

/// The image of one live table.
#[derive(Debug, Clone)]
pub struct TableSnapshot {
    /// The table's id (its creation slot).
    pub id: TableId,
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<(String, DataType)>,
    /// Indexed columns with their index kind.
    pub indexes: Vec<(String, IndexKind)>,
    /// Rows in handle order, each with its tuple handle.
    pub rows: Vec<(TupleHandle, Vec<Value>)>,
}

/// The exact image of a whole quiescent rule system.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Live tables in id order.
    pub tables: Vec<TableSnapshot>,
    /// Table ids ever issued, dropped tables included.
    pub table_slots: u32,
    /// Tuple handles ever issued (the high-water mark).
    pub handles_issued: u64,
    /// `create rule` statements in canonical SQL, in creation order.
    pub rules: Vec<String>,
    /// Names of rules that were deactivated.
    pub deactivated: Vec<String>,
    /// Priority pairs as (higher, lower) rule names.
    pub priorities: Vec<(String, String)>,
}

fn bad_snapshot(what: &str) -> RuleError {
    RuleError::Unsupported(format!("malformed snapshot: {what}"))
}

fn field<'a>(json: &'a Json, name: &str) -> Result<&'a [Json], RuleError> {
    json.get(name)
        .and_then(Json::as_array)
        .ok_or_else(|| bad_snapshot(&format!("bad or missing '{name}'")))
}

fn string(json: &Json, what: &str) -> Result<String, RuleError> {
    json.as_str().map(str::to_string).ok_or_else(|| bad_snapshot(&format!("bad '{what}'")))
}

fn strings(json: &Json, name: &str) -> Result<Vec<String>, RuleError> {
    field(json, name)?.iter().map(|v| string(v, name)).collect()
}

fn str_array(items: &[String]) -> Json {
    Json::Array(items.iter().map(|s| Json::Str(s.clone())).collect())
}

fn table_to_json(t: &TableSnapshot) -> Json {
    let columns = t
        .columns
        .iter()
        .map(|(n, ty)| Json::Array(vec![Json::Str(n.clone()), ty.to_json()]))
        .collect();
    // Hash indexes encode as a bare column name, ordered ones as a
    // `[column, kind]` pair.
    let indexes = t
        .indexes
        .iter()
        .map(|(c, k)| match k {
            IndexKind::Hash => Json::Str(c.clone()),
            IndexKind::Ordered => {
                Json::Array(vec![Json::Str(c.clone()), Json::Str(k.name().to_string())])
            }
        })
        .collect();
    let rows = t
        .rows
        .iter()
        .map(|(h, vals)| {
            let mut row = Vec::with_capacity(1 + vals.len());
            row.push(Json::Int(h.0 as i64));
            row.extend(vals.iter().map(value_to_json));
            Json::Array(row)
        })
        .collect();
    Json::obj([
        ("name", Json::Str(t.name.clone())),
        ("columns", Json::Array(columns)),
        ("indexes", Json::Array(indexes)),
        ("rows_h", Json::Array(rows)),
    ])
}

fn table_from_json(id: TableId, json: &Json) -> Result<TableSnapshot, RuleError> {
    let name = string(json.get("name").unwrap_or(&Json::Null), "name")?;
    let mut columns = Vec::new();
    for col in field(json, "columns")? {
        let Some([n, ty]) = col.as_array() else {
            return Err(bad_snapshot("bad 'columns'"));
        };
        let ty = DataType::from_json(ty).ok_or_else(|| bad_snapshot("bad column type"))?;
        columns.push((string(n, "columns")?, ty));
    }
    let mut indexes = Vec::new();
    for idx in field(json, "indexes")? {
        indexes.push(match idx {
            Json::Str(c) => (c.clone(), IndexKind::Hash),
            Json::Array(pair) => match pair.as_slice() {
                [c, k] if k.as_str() == Some("hash") => (string(c, "indexes")?, IndexKind::Hash),
                [c, k] if k.as_str() == Some("ordered") => {
                    (string(c, "indexes")?, IndexKind::Ordered)
                }
                _ => return Err(bad_snapshot("bad 'indexes'")),
            },
            _ => return Err(bad_snapshot("bad 'indexes'")),
        });
    }
    let mut rows = Vec::new();
    for row in field(json, "rows_h")? {
        let (h, vals) = row
            .as_array()
            .and_then(|r| r.split_first())
            .ok_or_else(|| bad_snapshot("bad 'rows_h'"))?;
        let h = h
            .as_i64()
            .and_then(|i| u64::try_from(i).ok())
            .ok_or_else(|| bad_snapshot("bad row handle"))?;
        let vals = vals
            .iter()
            .map(value_from_json)
            .collect::<Result<Vec<Value>, _>>()
            .map_err(|e| bad_snapshot(&e.to_string()))?;
        rows.push((TupleHandle(h), vals));
    }
    Ok(TableSnapshot { id, name, columns, indexes, rows })
}

impl Snapshot {
    /// JSON form of the whole snapshot: the checkpoint payload.
    pub fn to_json(&self) -> Json {
        // Dropped tables' slots are `null`, so every table keeps its id.
        let pad_to = |slots: &mut Vec<Json>, n: usize| {
            if slots.len() < n {
                slots.resize(n, Json::Null);
            }
        };
        let mut slots = Vec::new();
        for t in &self.tables {
            pad_to(&mut slots, t.id.0 as usize);
            slots.push(table_to_json(t));
        }
        pad_to(&mut slots, self.table_slots as usize);
        let priorities = self
            .priorities
            .iter()
            .map(|(h, l)| Json::Array(vec![Json::Str(h.clone()), Json::Str(l.clone())]))
            .collect();
        Json::obj([
            ("slots", Json::Array(slots)),
            ("handles", Json::Int(self.handles_issued as i64)),
            ("rules", str_array(&self.rules)),
            ("deactivated", str_array(&self.deactivated)),
            ("priorities", Json::Array(priorities)),
        ])
    }

    /// Parse the JSON form written by [`Snapshot::to_json`].
    pub fn from_json(json: &Json) -> Result<Snapshot, RuleError> {
        let slots = field(json, "slots")?;
        let table_slots =
            u32::try_from(slots.len()).map_err(|_| bad_snapshot("too many table slots"))?;
        let mut tables = Vec::new();
        for (i, slot) in slots.iter().enumerate() {
            if !matches!(slot, Json::Null) {
                tables.push(table_from_json(TableId(i as u32), slot)?);
            }
        }
        let handles_issued = json
            .get("handles")
            .and_then(Json::as_i64)
            .and_then(|i| u64::try_from(i).ok())
            .ok_or_else(|| bad_snapshot("bad or missing 'handles'"))?;
        let mut priorities = Vec::new();
        for p in field(json, "priorities")? {
            let Some([h, l]) = p.as_array() else {
                return Err(bad_snapshot("bad 'priorities'"));
            };
            priorities.push((string(h, "priorities")?, string(l, "priorities")?));
        }
        Ok(Snapshot {
            tables,
            table_slots,
            handles_issued,
            rules: strings(json, "rules")?,
            deactivated: strings(json, "deactivated")?,
            priorities,
        })
    }

    /// Serialize to a pretty-printed JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// Parse a JSON string produced by [`Snapshot::to_json_string`].
    pub fn from_json_str(text: &str) -> Result<Snapshot, RuleError> {
        let json = Json::parse(text)
            .map_err(|e: JsonError| RuleError::Unsupported(format!("snapshot parse: {e}")))?;
        Snapshot::from_json(&json)
    }
}

impl RuleSystem {
    /// Capture a snapshot of this system. Fails inside a transaction, with
    /// deferred transitions pending, or if any rule has a native (external)
    /// action.
    pub fn snapshot(&self) -> Result<Snapshot, RuleError> {
        if self.in_transaction() {
            return Err(RuleError::TransactionOpen);
        }
        if !self.deferred_window().is_empty() {
            // A snapshot has no encoding for an in-flight deferred window;
            // taking one here would silently drop the pending transitions
            // on restore.
            return Err(RuleError::Unsupported(
                "snapshot with pending deferred transitions would silently drop them; \
                 call process_deferred() or clear_deferred() first"
                    .into(),
            ));
        }
        let db = self.database();
        let mut tables = Vec::new();
        for id in db.table_ids() {
            let Some(table) = db.try_table(id) else {
                continue; // dropped: `table_slots` keeps its id
            };
            let schema = &table.schema;
            let indexes = (0..schema.arity())
                .map(|i| setrules_storage::ColumnId(i as u16))
                .filter_map(|c| {
                    db.index_kind(id, c).map(|k| (schema.column_name(c).to_string(), k))
                })
                .collect();
            tables.push(TableSnapshot {
                id,
                name: schema.name.clone(),
                columns: schema.columns.iter().map(|c| (c.name.clone(), c.ty)).collect(),
                indexes,
                rows: table.scan().map(|(h, t)| (h, t.0.clone())).collect(),
            });
        }

        let mut rules = Vec::new();
        let mut deactivated = Vec::new();
        for r in self.rules() {
            let def = self.rule_to_ast(r)?;
            rules.push(setrules_sql::ast::Statement::CreateRule(def).to_string());
            if !r.active {
                deactivated.push(r.name.clone());
            }
        }
        Ok(Snapshot {
            tables,
            table_slots: db.table_ids().count() as u32,
            handles_issued: db.handles_issued(),
            rules,
            deactivated,
            priorities: self.priority_pairs(),
        })
    }

    /// Reconstruct a system from a snapshot, with the given engine
    /// configuration. The configured fault plan is armed only after the
    /// load, as [`RuleSystem::open`] arms it only after recovery.
    ///
    /// A durable configuration must open an empty log (anything else is
    /// refused rather than merged); the image is then logged as one
    /// `Checkpoint` record.
    pub fn restore(snap: &Snapshot, config: crate::EngineConfig) -> Result<RuleSystem, RuleError> {
        let mut sys = RuleSystem::open(config)?;
        // `open` armed the plan; the load, like recovery, runs unarmed.
        sys.db.fault_injector_mut().disarm();
        if let Some(w) = sys.wal.as_mut() {
            if w.writer.synced_len() > 0 {
                return Err(RuleError::Unsupported(
                    "restore into a write-ahead log that already holds records".into(),
                ));
            }
            // The image is logged whole below, not statement by statement.
            w.replaying = true;
        }
        let loaded = sys.load_image(snap.clone());
        if let Some(w) = sys.wal.as_mut() {
            w.replaying = false;
        }
        loaded?;
        if sys.wal.is_some() {
            sys.wal_checkpoint(snap.to_json())?;
        }
        let plan = sys.config().fault;
        let fault = sys.db.fault_injector_mut();
        fault.reset_counts();
        if let Some(plan) = plan {
            fault.arm(plan.kind, plan.nth);
        }
        Ok(sys)
    }

    /// Load an image into this fresh system: the one loader behind
    /// [`RuleSystem::restore`] and checkpoint replay. Rows go in through
    /// physical redo with their own handles, in global handle order, so
    /// every check `redo_insert` relies on is made here first and a bad
    /// image is an error rather than a panic.
    pub(crate) fn load_image(&mut self, snap: Snapshot) -> Result<(), RuleError> {
        let Snapshot { tables, table_slots, handles_issued, rules, deactivated, priorities } =
            snap;
        let mut rows = Vec::new();
        let mut tables = tables.into_iter().peekable();
        for slot in 0..table_slots {
            let Some(t) = tables.next_if(|t| t.id.0 == slot) else {
                self.db.redo_dropped_table();
                continue;
            };
            let cols = t.columns.into_iter().map(|(n, ty)| ColumnDef::new(n, ty)).collect();
            let tid = self.db.create_table(TableSchema::new(t.name, cols))?;
            // Indexes fill as the rows are redone below.
            for (c, kind) in &t.indexes {
                let cid = self.db.schema(tid).column_id(c)?;
                self.db.create_index_of(tid, cid, *kind)?;
            }
            rows.extend(t.rows.into_iter().map(|(h, vals)| (h, tid, vals)));
        }
        if let Some(t) = tables.next() {
            return Err(bad_snapshot(&format!(
                "table '{}' has id {}: out of order or beyond the {table_slots} table slots",
                t.name, t.id.0
            )));
        }
        // Handles interleave between tables, and redo must see them
        // ascending and above everything already issued.
        rows.sort_unstable_by_key(|r| r.0);
        for (h, tid, vals) in rows {
            if h.0 <= self.db.handles_issued() {
                return Err(bad_snapshot(&format!("row handle {} is zero or repeated", h.0)));
            }
            self.db.redo_insert(tid, h, Tuple(vals))?;
        }
        if handles_issued < self.db.handles_issued() {
            return Err(bad_snapshot(&format!(
                "handle high-water mark {handles_issued} is below row handle {}",
                self.db.handles_issued()
            )));
        }
        self.db.redo_handle_watermark(handles_issued, TableId(0));
        self.db.commit();

        for sql in &rules {
            self.create_rule_str(sql)?;
        }
        for name in &deactivated {
            self.set_rule_active(name, false)?;
        }
        for (h, l) in &priorities {
            self.add_priority(h, l)?;
        }
        Ok(())
    }

    /// Rebuild the parsed form of a compiled rule (canonical SQL source).
    fn rule_to_ast(&self, r: &crate::Rule) -> Result<CreateRule, RuleError> {
        let db = self.database();
        let mut when = Vec::with_capacity(r.when.len());
        for p in &r.when {
            when.push(match p {
                CompiledPred::Inserted(t) => {
                    BasicTransPred::InsertedInto(db.schema(*t).name.clone())
                }
                CompiledPred::Deleted(t) => BasicTransPred::DeletedFrom(db.schema(*t).name.clone()),
                CompiledPred::Updated(t, c) => BasicTransPred::Updated {
                    table: db.schema(*t).name.clone(),
                    column: c.map(|c| db.schema(*t).column_name(c).to_string()),
                },
                CompiledPred::Selected(t, c) => BasicTransPred::Selected {
                    table: db.schema(*t).name.clone(),
                    column: c.map(|c| db.schema(*t).column_name(c).to_string()),
                },
            });
        }
        let action = match &r.action {
            CompiledAction::Block(ops) => RuleAction::Block(ops.as_ref().clone()),
            CompiledAction::Rollback => RuleAction::Rollback,
            CompiledAction::External(_) => {
                return Err(RuleError::Unsupported(format!(
                    "rule '{}' has a native action and cannot be snapshotted",
                    r.name
                )))
            }
        };
        Ok(CreateRule { name: r.name.clone(), when, condition: r.condition.clone(), action })
    }
}
