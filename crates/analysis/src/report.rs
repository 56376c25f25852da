//! The analyzer's warnings: potential infinite loops and
//! order-dependence conflicts (§6: "the programmer might benefit from
//! knowing that a set of rules may create an infinite loop, or from
//! knowing that ordering between certain rules may affect the final
//! database state").

use std::collections::BTreeSet;
use std::fmt;

use setrules_core::{ActionEvent, CompiledAction, Footprint, RuleId, RuleSystem};
use setrules_storage::TableId;

use crate::graph::TriggerGraph;

/// A set of rules that may trigger each other forever.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopWarning {
    /// The rules in the cycle (a single self-triggering rule, or a larger
    /// strongly connected component of the triggering graph).
    pub rules: Vec<String>,
}

impl fmt::Display for LoopWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rules.len() == 1 {
            write!(f, "rule '{}' may trigger itself indefinitely", self.rules[0])
        } else {
            write!(f, "rules {{{}}} may trigger each other indefinitely", self.rules.join(", "))
        }
    }
}

/// Why two rules' relative order can matter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictKind {
    /// One rule writes a table the other reads.
    WriteRead,
    /// Both rules write the same table.
    WriteWrite,
    /// One rule's action is `rollback`: whether the other runs at all
    /// depends on the order.
    RollbackOrdering,
}

impl fmt::Display for ConflictKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConflictKind::WriteRead => write!(f, "write/read interference"),
            ConflictKind::WriteWrite => write!(f, "write/write interference"),
            ConflictKind::RollbackOrdering => write!(f, "rollback ordering"),
        }
    }
}

/// Two unordered rules whose relative execution order may change the
/// final database state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictWarning {
    /// First rule (creation order).
    pub rule_a: String,
    /// Second rule.
    pub rule_b: String,
    /// Why the order matters.
    pub kind: ConflictKind,
    /// The tables involved.
    pub tables: Vec<String>,
}

impl fmt::Display for ConflictWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rules '{}' and '{}' are unordered but interfere ({}) on {{{}}} — \
             consider 'create rule priority'",
            self.rule_a,
            self.rule_b,
            self.kind,
            self.tables.join(", ")
        )
    }
}

/// The full analysis result.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// Potential non-termination warnings.
    pub loops: Vec<LoopWarning>,
    /// Order-dependence warnings.
    pub conflicts: Vec<ConflictWarning>,
}

impl AnalysisReport {
    /// Whether the rule set is free of warnings.
    pub fn is_clean(&self) -> bool {
        self.loops.is_empty() && self.conflicts.is_empty()
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "rule set analysis: no warnings");
        }
        writeln!(f, "rule set analysis: {} warning(s)", self.loops.len() + self.conflicts.len())?;
        for w in &self.loops {
            writeln!(f, "  [loop]     {w}")?;
        }
        for w in &self.conflicts {
            writeln!(f, "  [conflict] {w}")?;
        }
        Ok(())
    }
}

/// Analyze a system's rule set.
pub fn analyze(sys: &RuleSystem) -> AnalysisReport {
    let graph = TriggerGraph::build(sys);
    let mut report = AnalysisReport::default();

    // ------------------------------------------------------------------
    // Potential infinite loops: SCCs of size > 1, or self-loops.
    // ------------------------------------------------------------------
    for comp in graph.sccs() {
        let looping = comp.len() > 1 || (comp.len() == 1 && graph.triggers(comp[0], comp[0]));
        if looping {
            report.loops.push(LoopWarning {
                rules: comp.iter().map(|r| graph.names[r].clone()).collect(),
            });
        }
    }

    // ------------------------------------------------------------------
    // Order-dependence: unordered pairs whose actions interfere.
    // ------------------------------------------------------------------
    let db = sys.database();
    let rules: Vec<_> = sys.rules().collect();
    let table_name = |t: TableId| db.schema(t).name.clone();
    // The tables a rule may write; an opaque action may write whatever
    // the other rule reads.
    let writes = |fp: &Footprint, other: &Footprint| -> BTreeSet<TableId> {
        if fp.opaque {
            return other.reads.clone();
        }
        let table = |e: &ActionEvent| match *e {
            ActionEvent::Insert(t) | ActionEvent::Delete(t) | ActionEvent::Update(t, _) => Some(t),
            ActionEvent::Select(_) => None,
        };
        fp.writes.iter().filter_map(table).collect()
    };
    for (i, a) in rules.iter().enumerate() {
        for b in rules.iter().skip(i + 1) {
            if ordered(sys, a.id, b.id) {
                continue;
            }
            let fa = &graph.footprints[&a.id];
            let fb = &graph.footprints[&b.id];

            // A *conditional* rollback rule conflicts with any writer: the
            // writer may change data so the rollback condition flips, so
            // order decides whether the transaction survives. An
            // *unconditional* rollback fires regardless of order and is
            // not flagged.
            let conditional_rollback = |r: &setrules_core::Rule| {
                matches!(r.action, CompiledAction::Rollback) && r.condition.is_some()
            };
            if conditional_rollback(a) && !fb.rollback || conditional_rollback(b) && !fa.rollback {
                report.conflicts.push(ConflictWarning {
                    rule_a: a.name.clone(),
                    rule_b: b.name.clone(),
                    kind: ConflictKind::RollbackOrdering,
                    tables: Vec::new(),
                });
                continue;
            }

            let (wa, wb) = (writes(fa, fb), writes(fb, fa));
            let ww: BTreeSet<_> = wa.intersection(&wb).copied().collect();
            if !ww.is_empty() {
                report.conflicts.push(ConflictWarning {
                    rule_a: a.name.clone(),
                    rule_b: b.name.clone(),
                    kind: ConflictKind::WriteWrite,
                    tables: ww.into_iter().map(table_name).collect(),
                });
                continue;
            }
            let wr: BTreeSet<_> = wa
                .intersection(&fb.reads)
                .copied()
                .chain(wb.intersection(&fa.reads).copied())
                .collect();
            if !wr.is_empty() {
                report.conflicts.push(ConflictWarning {
                    rule_a: a.name.clone(),
                    rule_b: b.name.clone(),
                    kind: ConflictKind::WriteRead,
                    tables: wr.into_iter().map(table_name).collect(),
                });
            }
        }
    }
    report
}

fn ordered(sys: &RuleSystem, a: RuleId, b: RuleId) -> bool {
    sys.priorities().higher_than(a, b) || sys.priorities().higher_than(b, a)
}
