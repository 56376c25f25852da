//! The six workloads. Each is generated inside the benchmark from the
//! seed; the engine receives only SQL text and an `EngineConfig`.
//!
//! A workload owns a *model*: the generator's own copy of the tables,
//! advanced by what each operation is expected to do (including the rules
//! it should fire). The model supplies per-operation expectations and the
//! digests the engine's final state must match, so any seed checks itself.

use setrules_core::{EngineConfig, RuleError, RuleSystem, TxnOutcome};
use setrules_query::Relation;

use crate::digest;

pub mod analytic;
pub mod bystander;
pub mod cascade;
pub mod oltp;
pub mod refire;

/// Workload names with why each was chosen, in the order `all` and `aa`
/// run them. The names are permanent: later changes quote results by them.
#[rustfmt::skip]
pub const WORKLOADS: [(&str, &str); 6] = [
    ("oltp_mem", "B8 end-to-end transaction at realistic size: parse, plan cache, storage apply/undo and rule selection all show, no layer dominates"),
    ("oltp_durable", "the identical stream committed through the write-ahead log: isolates wal, shows a WAL gain that would cost the in-memory path"),
    ("bystander_rules", "256 defined but never triggered rules: per-defined-rule transition-info upkeep dominates, conditions and actions do nothing"),
    ("refire_storm", "60 watchers over a 2000-row updated window reconsidered across a 30-step driver cascade: rule reconsideration, condition memos and window upkeep"),
    ("cascade_bulk", "set-oriented bulk deletes and inserts (Examples 3.1 and 4.1): operator tree plus storage delete/undo dominate, few rules"),
    ("analytic_query", "read-only queries over a 200k-row fact table with the rule engine idle: evaluator, operators and exchange; data exceeds CPU cache"),
];

/// The workload names, in order.
pub fn names() -> impl DoubleEndedIterator<Item = &'static str> {
    WORKLOADS.iter().map(|(name, _)| *name)
}

/// How an operation enters the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `RuleSystem::transaction` (traced: `begin` / `run_op` / `commit`).
    Txn,
    /// `RuleSystem::query`.
    Query,
}

/// One expected rule firing: name and net tuples of its transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fired {
    pub rule: &'static str,
    pub inserted: usize,
    pub deleted: usize,
    pub updated: usize,
}

impl Fired {
    pub fn ins(rule: &'static str, n: usize) -> Fired {
        Fired {
            rule,
            inserted: n,
            deleted: 0,
            updated: 0,
        }
    }
    pub fn del(rule: &'static str, n: usize) -> Fired {
        Fired {
            rule,
            inserted: 0,
            deleted: n,
            updated: 0,
        }
    }
}

/// What the generator expects of one operation.
#[derive(Debug, Clone, Default)]
pub struct Expect {
    /// `Some(rule)`: the transaction is rolled back by that rule (an
    /// expected veto is a success). `None`: it commits.
    pub veto_by: Option<&'static str>,
    /// The full firing trace, in order.
    pub fired: Vec<Fired>,
    /// Digest of the rows a `select` returns, in order.
    pub output: Option<u64>,
    /// Tuples inserted, deleted, updated by the whole transaction
    /// (external block and rule actions), from the outcome's counters.
    pub touched: Option<[u64; 3]>,
}

/// One generated operation.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: OpKind,
    /// Operation type within the workload's mix, for the per-type report.
    pub label: &'static str,
    pub sql: String,
    pub expect: Expect,
}

/// What the engine returned for an operation. One exists at a time, on
/// the stack, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Outcome {
    Txn(TxnOutcome),
    Rows(Relation),
}

/// Compare an operation's result with the generator's expectation.
pub fn check(op: &Op, result: &Result<Outcome, RuleError>) -> Result<(), String> {
    let e = &op.expect;
    match result {
        Err(err) => Err(format!("returned Err: {err}")),
        Ok(Outcome::Rows(rel)) => check_output(e, Some(rel)),
        Ok(Outcome::Txn(out)) => {
            match (out, e.veto_by) {
                (TxnOutcome::RolledBack { by_rule, .. }, Some(rule)) if by_rule == rule => {}
                (TxnOutcome::Committed { .. }, None) => {}
                (TxnOutcome::RolledBack { by_rule, .. }, _) => {
                    return Err(format!(
                        "rolled back by {by_rule}, expected {:?}",
                        e.veto_by
                    ))
                }
                (TxnOutcome::Committed { .. }, Some(rule)) => {
                    return Err(format!("committed, expected veto by {rule}"))
                }
            }
            let got = out.fired();
            let same = got.len() == e.fired.len()
                && got.iter().zip(&e.fired).all(|(g, x)| {
                    g.rule == x.rule
                        && g.inserted == x.inserted
                        && g.deleted == x.deleted
                        && g.updated == x.updated
                });
            if !same {
                return Err(format!("fired {:?}, expected {:?}", got, e.fired));
            }
            if let Some([i, d, u]) = e.touched {
                let s = &out.stats().storage;
                if [s.tuples_inserted, s.tuples_deleted, s.tuples_updated] != [i, d, u] {
                    return Err(format!(
                        "touched [{}, {}, {}], expected [{i}, {d}, {u}]",
                        s.tuples_inserted, s.tuples_deleted, s.tuples_updated
                    ));
                }
            }
            let output = match out {
                TxnOutcome::Committed { output, .. } => output.as_ref(),
                TxnOutcome::RolledBack { .. } => None,
            };
            check_output(e, output)
        }
    }
}

fn check_output(e: &Expect, rel: Option<&Relation>) -> Result<(), String> {
    match (e.output, rel) {
        (None, _) => Ok(()),
        (Some(_), None) => Err("no select output".into()),
        (Some(want), Some(rel)) => {
            let got = digest::of_relation(rel);
            if got == want {
                Ok(())
            } else {
                Err(format!(
                    "output digest {got:016x} ({} rows), expected {want:016x}",
                    rel.len()
                ))
            }
        }
    }
}

/// The digest of one table: engine side by SQL, model side by the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDigest {
    pub table: &'static str,
    pub engine: u64,
    pub model: u64,
}

impl TableDigest {
    /// Pair the model's digest of `table` with the engine's:
    /// `select * from <table> order by <every column>`, hashed.
    pub fn of(sys: &RuleSystem, table: &'static str, columns: &str, model: u64) -> TableDigest {
        let engine = match sys.query(&format!("select * from {table} order by {columns}")) {
            Ok(rel) => digest::of_relation(&rel),
            // A failing digest query must not look like any real state.
            Err(_) => 0,
        };
        TableDigest {
            table,
            engine,
            model,
        }
    }
}

/// A workload: schema, rules, data, an endless operation stream and the
/// model that predicts it.
pub trait Workload {
    /// Produce the next operation and advance the model past it.
    fn next_op(&mut self) -> Op;

    /// Untimed re-seeding after an operation (rebuilding what it consumed).
    fn reseed(&mut self, _sys: &mut RuleSystem) {}

    /// Digest every table on both sides.
    fn digests(&self, sys: &RuleSystem) -> Vec<TableDigest>;

    /// Operations in the fixed prefix over which exact counts are taken
    /// and the committed digests are recorded.
    fn prefix_ops(&self) -> u64;

    /// Operations in one slice: a stretch that holds the workload's whole
    /// mix (one cycle of shapes, or whole schedule periods). A measured
    /// pass ends on a slice boundary, and `ops_per_s` is the median of the
    /// slices' rates, so neither the phase at which a run happens to stop
    /// nor a burst of interference in one slice moves it.
    fn slice_ops(&self) -> u64;

    /// Rows the storage probe should load: the workload's row volume.
    fn probe_rows(&self) -> usize;

    /// Rules defined (reported beside `core.overhead_us`).
    fn rules_defined(&self) -> usize;

    /// Workload-specific checks run once after measuring (differential
    /// re-runs at reduced size); each `Err` is one failed check.
    fn cross_checks(&self) -> Vec<Result<(), String>> {
        Vec::new()
    }
}

/// Engine configuration shared by every workload: worker threads pinned
/// to `min(nproc, 4)`, everything else default.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        parallelism: Some(crate::measure::engine_threads()),
        ..Default::default()
    }
}

/// Set up workload `name` for `seed`: schema, rules and constraints, bulk
/// load. `config` carries durability where the workload asks for it.
pub fn build(
    name: &str,
    seed: u64,
    config: EngineConfig,
) -> Option<(Box<dyn Workload>, RuleSystem)> {
    fn boxed<W: Workload + 'static>((w, sys): (W, RuleSystem)) -> (Box<dyn Workload>, RuleSystem) {
        (Box::new(w), sys)
    }
    Some(match name {
        "oltp_mem" | "oltp_durable" => boxed(oltp::Oltp::build(seed, config)),
        "bystander_rules" => boxed(bystander::Bystander::build(seed, config)),
        "refire_storm" => boxed(refire::Refire::build(seed, config, refire::FULL)),
        "cascade_bulk" => boxed(cascade::Cascade::build(seed, config)),
        "analytic_query" => boxed(analytic::Analytic::build(seed, config)),
        _ => return None,
    })
}

/// Run a setup statement; setup SQL is fixed text, so a failure is a bug
/// in the benchmark or an engine regression — either way stop loudly.
pub fn ddl(sys: &mut RuleSystem, sql: &str) {
    if let Err(e) = sys.execute(sql) {
        panic!("setup statement failed: {e}\n  {sql}");
    }
}

/// Bulk-load `rows` (already formatted as `(..)` tuples) in chunks, each
/// chunk one `insert` transaction through `RuleSystem::execute`.
pub fn load(sys: &mut RuleSystem, table: &str, rows: &[String]) {
    for chunk in rows.chunks(500) {
        ddl(
            sys,
            &format!("insert into {table} values {}", chunk.join(", ")),
        );
    }
}
