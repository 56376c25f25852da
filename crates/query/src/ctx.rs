//! Evaluation context: the database, the transition-table provider, and
//! the per-statement subquery cache. It carries no choice of executor and
//! no memo of plans: every statement plans once per execution and runs
//! the one compiled pipeline (see [`crate::plan`], [`crate::select`]).

use std::cell::{OnceCell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;

use setrules_sql::ast::SelectStmt;
use setrules_storage::{DataType, Database, Value};

use crate::error::QueryError;
use crate::eval::in_semantics;
use crate::provider::TransitionTableProvider;
use crate::relation::Relation;
use crate::stats::{OpStatsCell, StatsCell};

/// One evaluated subquery as its consumers (`in`, `exists`, scalar) share
/// it: the rows, plus a membership set over its single column that is
/// built the first time an `in` asks. An answer table is computed once and
/// shared by every consumer, never copied per call.
#[derive(Debug)]
pub(crate) struct SubqueryResult {
    pub(crate) rel: Relation,
    /// `Some(None)`: membership is always decided by the linear walk.
    members: OnceCell<Option<Members>>,
}

/// The hashed first column of a single-column [`SubqueryResult`] whose
/// non-NULL values all belong to one exact (non-float) domain — the only
/// shape where storage equality provably is SQL equality and no
/// comparison can raise.
#[derive(Debug)]
struct Members {
    /// The one domain of the non-NULL values (`None`: there are none).
    domain: Option<DataType>,
    set: HashSet<Value>,
    has_null: bool,
}

impl Members {
    fn build(rel: &Relation) -> Option<Members> {
        let mut m = Members { domain: None, set: HashSet::new(), has_null: false };
        for v in rel.column0() {
            match v.data_type() {
                None => m.has_null = true,
                Some(DataType::Float) => return None,
                Some(ty) if *m.domain.get_or_insert(ty) != ty => return None,
                Some(_) => {
                    m.set.insert(v.clone());
                }
            }
        }
        Some(m)
    }
}

impl SubqueryResult {
    /// A memoized result: many rows will ask it, so membership hashes.
    pub(crate) fn shared(rel: Relation) -> Rc<Self> {
        Rc::new(SubqueryResult { rel, members: OnceCell::new() })
    }

    /// A correlated subquery's result for one outer row: asked once, so
    /// building a set would cost more than the walk it replaces.
    pub(crate) fn unshared(rel: Relation) -> Rc<Self> {
        Rc::new(SubqueryResult { rel, members: OnceCell::from(None) })
    }

    /// `needle [not] in (this result)` under three-valued logic. The set
    /// answers in O(1) exactly where it agrees with [`in_semantics`] bit
    /// for bit — a NULL needle, or a needle of the haystack's one exact
    /// domain; everything else (float or mixed-domain haystacks, Int↔Float
    /// needles, needles whose comparison raises) takes the linear walk,
    /// which also selects the earliest error.
    pub(crate) fn contains(&self, needle: &Value, negated: bool) -> Result<Value, QueryError> {
        if self.rel.columns.len() != 1 {
            return Err(QueryError::SubqueryColumns(self.rel.columns.len()));
        }
        if let Some(m) = self.members.get_or_init(|| Members::build(&self.rel)) {
            // A miss is only definite when no NULL could have matched.
            let miss = if m.has_null { Value::Null } else { Value::Bool(negated) };
            match (m.domain, needle.data_type()) {
                // No non-NULL row: nothing to match, nothing to raise.
                (None, _) => return Ok(miss),
                // NULL compares UNKNOWN with every row of a non-empty
                // haystack.
                (Some(_), None) => return Ok(Value::Null),
                (Some(d), Some(n)) if d == n => {
                    return Ok(if m.set.contains(needle) { Value::Bool(!negated) } else { miss })
                }
                _ => {}
            }
        }
        in_semantics(needle, self.rel.column0(), negated)
    }
}

/// Per-statement memo for uncorrelated subqueries. An entry holds the
/// subquery's shared AST allocation and is found by identity with it —
/// the memo keeps that allocation alive, so the identity cannot be
/// reused for another subquery while the memo lives. `None` records that
/// the subquery was found to be correlated (it references outer
/// columns), so re-evaluation per row is required. A statement has few
/// subqueries, so a linear walk beats hashing.
///
/// This is the representative optimization behind the paper's §1 claim
/// that set-oriented rules keep relational optimization applicable: a
/// rule-action predicate like `fk in (select pk from deleted parent)`
/// evaluates its subquery once per statement, not once per scanned row —
/// and every row, and the planner, then share that one result.
#[derive(Debug, Default)]
pub struct SubqueryCache {
    entries: RefCell<Vec<MemoEntry>>,
}

/// One memoized subquery: its AST and its result (`None`: correlated).
type MemoEntry = (Arc<SelectStmt>, Option<Rc<SubqueryResult>>);

impl SubqueryCache {
    /// A fresh, empty cache (one per executed statement).
    pub fn new() -> Self {
        SubqueryCache::default()
    }

    pub(crate) fn get(&self, sub: &Arc<SelectStmt>) -> Option<Option<Rc<SubqueryResult>>> {
        let entries = self.entries.borrow();
        entries.iter().find(|(s, _)| Arc::ptr_eq(s, sub)).map(|(_, r)| r.clone())
    }

    pub(crate) fn put(&self, sub: &Arc<SelectStmt>, value: Option<Rc<SubqueryResult>>) {
        self.entries.borrow_mut().push((Arc::clone(sub), value));
    }
}

/// Everything expression evaluation may consult: the current database state
/// and the transition tables of the rule being processed (if any).
///
/// The paper's rule conditions "may refer to the current state of the
/// database \[and\] to the logical transition tables" (§4.1) — `db` is the
/// current state, `virt` supplies the transition tables.
#[derive(Clone, Copy)]
pub struct QueryCtx<'a> {
    /// The current database state.
    pub db: &'a Database,
    /// Transition tables visible in this context.
    pub virt: &'a dyn TransitionTableProvider,
    /// Uncorrelated-subquery memo for the statement being evaluated;
    /// `None` disables hoisting (every subquery re-evaluates).
    pub cache: Option<&'a SubqueryCache>,
    /// Execution-work accumulator; `None` (the default) disables
    /// instrumentation.
    pub stats: Option<&'a StatsCell>,
    /// Per-operator work counters for the physical operator tree
    /// ([`crate::exec`]); `None` (the default) disables them. This is a
    /// side channel: the aggregate [`crate::ExecStats`] counters are
    /// unaffected by whether it is attached.
    pub op_stats: Option<&'a OpStatsCell>,
    /// Thread budget for the two partitioned phases: a scan's pushed
    /// conjuncts and the `where` pass, each when its predicate is
    /// row-local. `1` (the default) keeps execution fully serial; see
    /// `exec::exchange` for the determinism argument.
    pub threads: usize,
}

impl<'a> QueryCtx<'a> {
    /// Context for plain user queries: no transition tables, no cache,
    /// serial, uninstrumented. Statement execution builds its context from
    /// [`crate::ExecOpts::ctx`]; anything else overrides fields of this
    /// one with struct-update syntax.
    pub fn plain(db: &'a Database) -> Self {
        QueryCtx {
            db,
            virt: &crate::provider::NoTransitionTables,
            cache: None,
            stats: None,
            op_stats: None,
            threads: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setrules_testkit::{check, Rng};

    fn random_value(rng: &mut Rng) -> Value {
        match rng.below(12) {
            0 | 1 => Value::Null,
            2..=5 => Value::Int(rng.range_i64(-1, 4)),
            6 => Value::Float(*rng.pick(&[f64::NAN, -0.0, 0.0, 1.0, 2.5])),
            7..=9 => Value::Text(rng.pick(&["a", "b", "c"]).to_string()),
            _ => Value::Bool(rng.chance(1, 2)),
        }
    }

    /// The membership set is an optimisation of the linear kernel, never a
    /// second semantics: on arbitrary haystacks — homogeneous, mixed-domain
    /// (which no typed column can produce, so only this test reaches
    /// them), float, all-NULL, empty — every needle gets the linear
    /// kernel's value or its error.
    #[test]
    fn hashed_membership_equals_the_linear_kernel() {
        let (mut hashed, mut errors) = (0, 0);
        check("members_vs_in_semantics", 500, 0x3e3b_e125, |rng| {
            // Mostly one domain plus NULLs (the hashable shape), sometimes
            // anything.
            let homogeneous = rng.chance(2, 3);
            let proto = random_value(rng);
            let hay: Vec<Value> = (0..rng.below(7))
                .map(|_| {
                    let v = random_value(rng);
                    let fits = v.is_null() || v.data_type() == proto.data_type();
                    if homogeneous && !fits {
                        proto.clone()
                    } else {
                        v
                    }
                })
                .collect();
            let rel = Relation {
                columns: vec!["v".into()],
                rows: hay.iter().map(|v| vec![v.clone()]).collect(),
            };
            let result = SubqueryResult::shared(rel.clone());
            let walked = SubqueryResult::unshared(rel);
            for _ in 0..8 {
                let needle = random_value(rng);
                for negated in [false, true] {
                    let want = in_semantics(&needle, hay.iter(), negated);
                    assert_eq!(result.contains(&needle, negated), want, "{needle} in {hay:?}");
                    assert_eq!(walked.contains(&needle, negated), want, "{needle} in {hay:?}");
                    errors += want.is_err() as usize;
                }
            }
            hashed += matches!(result.members.get(), Some(Some(_))) as usize;
            assert!(matches!(walked.members.get(), Some(None)), "unshared results never hash");
        });
        assert!(hashed >= 150 && errors >= 300, "{hashed}/{errors}");
    }

    #[test]
    fn membership_needs_exactly_one_column() {
        let rel = Relation { columns: vec!["a".into(), "b".into()], rows: Vec::new() };
        assert_eq!(
            SubqueryResult::shared(rel).contains(&Value::Int(1), false),
            Err(QueryError::SubqueryColumns(2))
        );
    }
}
