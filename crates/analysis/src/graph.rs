//! The triggering graph: which rules can trigger which.
//!
//! There is an edge `a → b` when executing `a`'s action may produce a
//! transition whose effect satisfies one of `b`'s basic transition
//! predicates. External actions are opaque and conservatively assumed to
//! trigger everything; `rollback` actions trigger nothing (the transaction
//! ends).

use std::collections::{BTreeMap, BTreeSet};

use setrules_core::{ActionEvent, Footprint, RuleId, RuleSystem};

/// The triggering graph over a rule set.
#[derive(Debug, Clone)]
pub struct TriggerGraph {
    /// Rule ids in creation order (nodes).
    pub nodes: Vec<RuleId>,
    /// Display names per node.
    pub names: BTreeMap<RuleId, String>,
    /// Adjacency: `edges[a]` = rules that `a` may trigger.
    pub edges: BTreeMap<RuleId, BTreeSet<RuleId>>,
    /// Per-rule footprints (kept for the conflict analysis).
    pub footprints: BTreeMap<RuleId, Footprint>,
}

impl TriggerGraph {
    /// Build the graph for all defined rules of a system.
    pub fn build(sys: &RuleSystem) -> TriggerGraph {
        let db = sys.database();
        let track_selects = sys.config().track_selects;
        let rules: Vec<_> = sys.rules().collect();
        let mut g = TriggerGraph {
            nodes: rules.iter().map(|r| r.id).collect(),
            names: rules.iter().map(|r| (r.id, r.name.clone())).collect(),
            edges: BTreeMap::new(),
            footprints: BTreeMap::new(),
        };
        for r in &rules {
            g.footprints.insert(r.id, r.footprint(db));
        }
        for a in &rules {
            let fp = &g.footprints[&a.id];
            let mut out = BTreeSet::new();
            for b in &rules {
                let can_trigger = if fp.opaque {
                    true
                } else {
                    // Selects trigger only when the engine tracks them.
                    fp.writes.iter().any(|e| {
                        (track_selects || !matches!(e, ActionEvent::Select(_)))
                            && b.when.iter().any(|p| e.satisfies(p))
                    })
                };
                if can_trigger {
                    out.insert(b.id);
                }
            }
            g.edges.insert(a.id, out);
        }
        g
    }

    /// Whether `a` may trigger `b`.
    pub fn triggers(&self, a: RuleId, b: RuleId) -> bool {
        self.edges.get(&a).is_some_and(|s| s.contains(&b))
    }

    /// Render the graph in Graphviz `dot` syntax. Rules with opaque
    /// (external) actions are drawn as diamonds, rollback rules as
    /// octagons; self-loops and cycles are what the §6 analysis warns
    /// about.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph triggering {\n    rankdir=LR;\n");
        for id in &self.nodes {
            let fp = &self.footprints[id];
            let shape = if fp.opaque {
                "diamond"
            } else if fp.rollback {
                "octagon"
            } else {
                "box"
            };
            let _ = writeln!(out, "    {} [label=\"{}\", shape={shape}];", id.0, self.names[id]);
        }
        for (a, succs) in &self.edges {
            for b in succs {
                let _ = writeln!(out, "    {} -> {};", a.0, b.0);
            }
        }
        out.push_str("}\n");
        out
    }

    /// Strongly connected components (Tarjan), in discovery order. Each
    /// component is a sorted list of rule ids.
    pub fn sccs(&self) -> Vec<Vec<RuleId>> {
        struct State<'g> {
            g: &'g TriggerGraph,
            index: BTreeMap<RuleId, usize>,
            low: BTreeMap<RuleId, usize>,
            on_stack: BTreeSet<RuleId>,
            stack: Vec<RuleId>,
            next: usize,
            out: Vec<Vec<RuleId>>,
        }
        fn strongconnect(s: &mut State<'_>, v: RuleId) {
            s.index.insert(v, s.next);
            s.low.insert(v, s.next);
            s.next += 1;
            s.stack.push(v);
            s.on_stack.insert(v);
            let succs: Vec<RuleId> =
                s.g.edges.get(&v).map(|e| e.iter().copied().collect()).unwrap_or_default();
            for w in succs {
                if !s.index.contains_key(&w) {
                    strongconnect(s, w);
                    let lw = s.low[&w];
                    let lv = s.low[&v];
                    s.low.insert(v, lv.min(lw));
                } else if s.on_stack.contains(&w) {
                    let iw = s.index[&w];
                    let lv = s.low[&v];
                    s.low.insert(v, lv.min(iw));
                }
            }
            if s.low[&v] == s.index[&v] {
                let mut comp = Vec::new();
                while let Some(w) = s.stack.pop() {
                    s.on_stack.remove(&w);
                    comp.push(w);
                    if w == v {
                        break;
                    }
                }
                comp.sort();
                s.out.push(comp);
            }
        }
        let mut st = State {
            g: self,
            index: BTreeMap::new(),
            low: BTreeMap::new(),
            on_stack: BTreeSet::new(),
            stack: Vec::new(),
            next: 0,
            out: Vec::new(),
        };
        for v in &self.nodes {
            if !st.index.contains_key(v) {
                strongconnect(&mut st, *v);
            }
        }
        st.out
    }
}
