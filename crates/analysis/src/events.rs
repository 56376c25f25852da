//! Write/read footprints of rule actions.
//!
//! The analyzer abstracts each rule's action into the set of *events* it
//! may produce — inserts, deletes, and column updates per table — and the
//! set of tables it may read. Event sets are syntactic and conservative:
//! an `update t set c = …` *may* update `t.c` (whether it actually does
//! depends on data), an external action may do anything.

use std::collections::BTreeSet;

use setrules_core::rule::collect_tables_op;
pub use setrules_core::ActionEvent;
use setrules_core::{CompiledAction, Rule};
use setrules_sql::ast::DmlOp;
use setrules_storage::{Database, TableId};

/// The abstract footprint of one rule's action.
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    /// Events the action may produce.
    pub events: BTreeSet<ActionEvent>,
    /// Tables the action or condition may read.
    pub reads: BTreeSet<TableId>,
    /// `true` for external actions (anything is possible) — treated as
    /// producing every event on every table.
    pub opaque: bool,
    /// `true` for rollback actions (no events at all).
    pub rollback: bool,
}

/// Compute the footprint of a rule against the catalog.
pub fn footprint(db: &Database, rule: &Rule) -> Footprint {
    // Reads: every table mentioned by the condition or action (the
    // compiled rule already gathered them) — conservative.
    let mut fp = Footprint { reads: rule.referenced_tables.clone(), ..Footprint::default() };

    match &rule.action {
        CompiledAction::Rollback => {
            fp.rollback = true;
        }
        CompiledAction::External(_) => {
            fp.opaque = true;
        }
        CompiledAction::Block(ops) => {
            for op in ops.iter() {
                match op {
                    DmlOp::Insert(i) => {
                        if let Ok(t) = db.table_id(&i.table) {
                            fp.events.insert(ActionEvent::Insert(t));
                        }
                    }
                    DmlOp::Delete(d) => {
                        if let Ok(t) = db.table_id(&d.table) {
                            fp.events.insert(ActionEvent::Delete(t));
                        }
                    }
                    DmlOp::Update(u) => {
                        if let Ok(t) = db.table_id(&u.table) {
                            let schema = db.schema(t);
                            for (col, _) in &u.sets {
                                if let Ok(c) = schema.column_id(col) {
                                    fp.events.insert(ActionEvent::Update(t, c));
                                }
                            }
                        }
                    }
                    DmlOp::Select(_) => {
                        let mut names = BTreeSet::new();
                        collect_tables_op(op, &mut names);
                        for n in names {
                            if let Ok(t) = db.table_id(&n) {
                                fp.events.insert(ActionEvent::Select(t));
                            }
                        }
                    }
                }
            }
        }
    }
    fp
}

/// Tables an action writes (insert/delete/update targets).
pub fn write_targets(fp: &Footprint) -> BTreeSet<TableId> {
    fp.events
        .iter()
        .filter_map(|e| match e {
            ActionEvent::Insert(t) | ActionEvent::Delete(t) | ActionEvent::Update(t, _) => Some(*t),
            ActionEvent::Select(_) => None,
        })
        .collect()
}
