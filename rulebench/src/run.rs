//! One workload, one process: set-up, the measured closed loop (one
//! client), output checks, and — with `--trace 1` — the traced pass that
//! attributes time to layers.

use std::path::PathBuf;
use std::time::Instant;

use setrules_core::{
    EngineConfig, EngineStats, RuleError, RuleSystem, SharedMemSink, SyncPolicy, TxnOutcome,
    WalConfig,
};
use setrules_sql::parse_op_block;

use crate::digest::Digest;
use crate::measure;
use crate::probe;
use crate::trace::{self, Tracer};
use crate::workloads::{self, Op, OpKind, Outcome, TableDigest, Workload};

/// Commits between checkpoints on `oltp_durable`: several cycles complete
/// in a run without the log (which is never truncated) outgrowing it.
const CHECKPOINT_EVERY: u64 = 2_000;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Spans kept for the span file; totals cover every operation.
const SPAN_CAPACITY: usize = 200_000;
/// The measured loop also stops when its wall clock (timed operations plus
/// untimed generation, checking and re-seeding) reaches this multiple of
/// `--seconds`, so a run's length stays bounded.
const WALL_FACTOR: f64 = 4.0;

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Σ `RuleTiming::condition_nanos` and Σ `action_nanos` over all rules.
fn rule_nanos(stats: &EngineStats) -> (u64, u64) {
    let rules = stats.per_rule.values();
    (
        rules.clone().map(|t| t.condition_nanos).sum(),
        rules.map(|t| t.action_nanos).sum(),
    )
}

/// Cumulative work counters read from outside the engine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    pub exact: Vec<(&'static str, u64)>,
    /// Σ `RuleTiming::condition_nanos` / `action_nanos` (times, not exact).
    pub condition_ns: u64,
    pub action_ns: u64,
}

impl Counters {
    fn read(sys: &RuleSystem, wal_path: Option<&PathBuf>) -> Counters {
        let (e, q, s) = (sys.stats(), sys.exec_stats(), sys.storage_stats());
        let wal_bytes = wal_path
            .and_then(|p| std::fs::metadata(p).ok())
            .map_or(0, |m| m.len());
        Counters {
            exact: vec![
                ("txns_committed", e.txns_committed),
                ("txns_rolled_back", e.txns_rolled_back),
                ("rules_considered", e.rules_considered),
                ("rules_executed", e.rules_executed),
                ("conditions_false", e.conditions_false),
                ("rules_retriggered", e.rules_retriggered),
                ("plan_cache_hits", e.plan_cache_hits),
                ("plan_cache_misses", e.plan_cache_misses),
                ("incr_hits", e.incr_hits),
                ("incr_rebuilds", e.incr_rebuilds),
                ("incr_fallbacks", e.incr_fallbacks),
                ("incr_shared_hits", e.incr_shared_hits),
                ("wal_appends", e.wal_appends),
                ("wal_syncs", e.wal_syncs),
                ("checkpoints", e.checkpoints),
                ("wal_bytes", wal_bytes),
                ("rows_scanned", q.rows_scanned),
                ("rows_matched", q.rows_matched),
                ("index_lookups", q.index_lookups),
                ("full_scans", q.full_scans),
                ("hash_joins", q.hash_joins),
                ("join_combinations", q.join_combinations),
                ("parallel_scans", q.parallel_scans),
                ("parallel_partitions", q.parallel_partitions),
                ("serial_fallbacks", q.serial_fallbacks),
                ("tuples_inserted", s.tuples_inserted),
                ("tuples_deleted", s.tuples_deleted),
                ("tuples_updated", s.tuples_updated),
                ("undo_records_written", s.undo_records_written),
                ("undo_records_applied", s.undo_records_applied),
                ("index_maintenance_ops", s.index_maintenance_ops),
            ],
            condition_ns: rule_nanos(e).0,
            action_ns: rule_nanos(e).1,
        }
    }

    fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            exact: self
                .exact
                .iter()
                .zip(&earlier.exact)
                .map(|((n, a), (_, b))| (*n, a - b))
                .collect(),
            condition_ns: self.condition_ns - earlier.condition_ns,
            action_ns: self.action_ns - earlier.action_ns,
        }
    }

    /// A counter by name (0 if unknown).
    pub fn get(&self, name: &str) -> u64 {
        self.exact
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// What one pass over the stream measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub ops: u64,
    pub failed: u64,
    /// First few failure descriptions, for the report.
    pub failures: Vec<String>,
    /// Per-operation latency in ns, in stream order.
    pub samples_ns: Vec<u64>,
    pub timed_ns: u64,
    /// Timed ns of each complete slice (`Workload::slice_ops` operations).
    pub slice_ns: Vec<u64>,
    pub slice_ops: u64,
    /// Per operation type: `(label, operations, timed ns)`.
    pub by_label: Vec<(&'static str, u64, u64)>,
    pub sql_bytes: u64,
    /// Rule firings summed over the prefix (a semantic count).
    pub prefix_fired: u64,
    /// Every `select` result over the prefix, digested in stream order.
    pub prefix_outputs: Digest,
    /// Operations the prefix figures cover: `prefix_ops`, or the whole
    /// pass if it ended earlier.
    pub prefix_len: u64,
    pub prefix_counts: Counters,
    pub prefix_timed_ns: u64,
    pub prefix_digests: Vec<TableDigest>,
    pub total_counts: Counters,
    pub final_digests: Vec<TableDigest>,
}

impl Pass {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    fn check_digests(&mut self, at: &str, digests: &[TableDigest]) {
        for d in digests {
            if d.engine != d.model {
                self.fail(format!(
                    "{at}: table {} digest {:016x}, model expects {:016x}",
                    d.table, d.engine, d.model
                ));
            }
        }
    }
}

/// Durable recovery, measured on the finished log.
#[derive(Debug, Default)]
pub struct Recovery {
    pub seconds: f64,
    pub records: u64,
    pub log_bytes: u64,
}

/// Everything a run reports.
pub struct Report {
    pub args: Args,
    pub setup_s: Vec<f64>,
    pub pass: Pass,
    pub peak_rss_mb: f64,
    pub cpu_s: f64,
    pub recovery: Option<Recovery>,
    pub rules_defined: usize,
    pub traced: Option<Traced>,
}

/// Results of the traced pass (its `Pass` is the report's).
pub struct Traced {
    pub tracer: Tracer,
    /// Untraced replay of the same operations.
    pub replay: Pass,
    /// Σ (durable commit − memory-sink twin's commit), ns.
    pub sync_ns: u64,
    pub probe: probe::StorageProbe,
    pub span_file: PathBuf,
    pub spans_written: usize,
}

/// Directory for log files and span files: inside the benchmark's own
/// directory, so a run writes nowhere else in the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn wal_path(args: &Args, tag: &str) -> PathBuf {
    out_dir().join(format!(
        "wal-{}-{}-{tag}.log",
        args.workload,
        std::process::id()
    ))
}

fn durable(workload: &str) -> bool {
    workload == "oltp_durable"
}

fn config_with(sink: Option<WalConfig>) -> EngineConfig {
    EngineConfig {
        durability: sink.map(|w| {
            w.with_sync(SyncPolicy::GroupCommit)
                .with_checkpoint_every(CHECKPOINT_EVERY)
        }),
        ..workloads::engine_config()
    }
}

fn file_config(path: &PathBuf) -> EngineConfig {
    // A fresh log every set-up: `open` would otherwise replay the last one.
    let _ = std::fs::remove_file(path);
    config_with(Some(WalConfig::path(path)))
}

fn build(args: &Args, config: EngineConfig) -> (Box<dyn Workload>, RuleSystem) {
    workloads::build(&args.workload, args.seed, config).expect("workload name was validated")
}

fn run_untraced(sys: &mut RuleSystem, op: &Op) -> (Result<Outcome, RuleError>, u64) {
    let start = Instant::now();
    let result = match op.kind {
        OpKind::Txn => sys.transaction(&op.sql).map(Outcome::Txn),
        OpKind::Query => sys.query(&op.sql).map(Outcome::Rows),
    };
    (result, start.elapsed().as_nanos() as u64)
}

/// The split path of `RuleSystem::transaction`: `begin`, `run_op` and
/// `commit`, each handed to `span` under its span name to be timed.
fn run_split(
    sys: &mut RuleSystem,
    sql: &str,
    mut span: impl FnMut(usize, &mut dyn FnMut()),
) -> Result<Outcome, RuleError> {
    let mut begun = Ok(());
    span(trace::CORE_BEGIN, &mut || begun = sys.begin());
    begun?;
    let mut ran = Ok(None);
    span(trace::CORE_EXTERNAL, &mut || ran = sys.run_op(sql));
    // An error in the block has already aborted the transaction.
    ran?;
    let mut out = None;
    span(trace::CORE_OVERHEAD, &mut || out = Some(sys.commit()));
    out.expect("commit span ran").map(Outcome::Txn)
}

/// Twin systems of a durable traced pass: the same stream on the same
/// engine without a log, and with the log on a memory sink.
struct Twins {
    memory: RuleSystem,
    mem_sink: RuleSystem,
}

/// Commit span of `sql` on a twin, with its condition and action nanos.
fn twin_commit(sys: &mut RuleSystem, sql: &str) -> (u64, u64, u64) {
    let mut commit_ns = 0;
    let result = run_split(sys, sql, |name, f| {
        let start = Instant::now();
        f();
        if name == trace::CORE_OVERHEAD {
            commit_ns = start.elapsed().as_nanos() as u64;
        }
    });
    match result {
        Ok(Outcome::Txn(out)) => {
            let (cond, act) = rule_nanos(&out.stats().engine);
            (commit_ns, cond, act)
        }
        _ => (commit_ns, 0, 0),
    }
}

fn run_traced(
    sys: &mut RuleSystem,
    twins: Option<&mut Twins>,
    op: &Op,
    tracer: &mut Tracer,
    sync_ns: &mut u64,
) -> (Result<Outcome, RuleError>, u64) {
    // The parse probe: the engine parses inside `run_op` / `query`; the
    // harness times the same text itself and lays that inside the span.
    let start = Instant::now();
    let parsed = parse_op_block(&op.sql);
    let parse_ns = start.elapsed().as_nanos() as u64;
    drop(parsed);

    let root = tracer.begin_op();
    match op.kind {
        OpKind::Query => {
            let q = tracer.open(trace::QUERY_EXEC, Some(root));
            let result = sys.query(&op.sql).map(Outcome::Rows);
            tracer.close(q);
            tracer.close(root);
            tracer.probe_clipped_ns += tracer.synthetic(q, &[(trace::SQL_PARSE, parse_ns)]);
            (result, tracer.finish_op(root))
        }
        OpKind::Txn => {
            let (mut external, mut commit, mut commit_ns) = (None, None, 0);
            let result = run_split(sys, &op.sql, |name, f| {
                let idx = tracer.open(name, Some(root));
                f();
                let ns = tracer.close(idx);
                match name {
                    trace::CORE_EXTERNAL => external = Some(idx),
                    trace::CORE_OVERHEAD => (commit, commit_ns) = (Some(idx), ns),
                    _ => {}
                }
            });
            tracer.close(root);
            if let Some(x) = external {
                tracer.probe_clipped_ns += tracer.synthetic(x, &[(trace::SQL_PARSE, parse_ns)]);
            }
            if let (Some(c), Ok(Outcome::Txn(out))) = (commit, &result) {
                let (cond, act) = rule_nanos(&out.stats().engine);
                let mut wal = 0;
                if let Some(t) = twins {
                    // What the log adds to the commit step itself: the
                    // difference between the two commit spans, less what
                    // it added inside conditions and actions (buffering
                    // rule-action records stays in `core.action`, as
                    // buffering the block's records stays in
                    // `core.external_block`).
                    let (mem_ns, mem_cond, mem_act) = twin_commit(&mut t.memory, &op.sql);
                    let (sink_ns, _, _) = twin_commit(&mut t.mem_sink, &op.sql);
                    let inside = (cond + act).saturating_sub(mem_cond + mem_act);
                    wal = commit_ns
                        .saturating_sub(mem_ns)
                        .saturating_sub(inside)
                        .min(commit_ns.saturating_sub(cond + act));
                    *sync_ns += commit_ns.saturating_sub(sink_ns);
                }
                tracer.overflow_ns += tracer.synthetic(
                    c,
                    &[
                        (trace::CORE_CONDITION, cond),
                        (trace::CORE_ACTION, act),
                        (trace::WAL_COMMIT, wal),
                    ],
                );
            }
            (result, tracer.finish_op(root))
        }
    }
}

/// How a pass decides it is done.
enum Until {
    /// Timed time reaches this many ns (or the wall guard trips).
    TimedNs(u64),
    /// Exactly this many operations.
    Ops(u64),
}

/// Drive `workload` against `sys` in a closed loop with one client.
fn drive(
    workload: &mut dyn Workload,
    sys: &mut RuleSystem,
    wal: Option<&PathBuf>,
    until: Until,
    mut exec: impl FnMut(&mut RuleSystem, &Op) -> (Result<Outcome, RuleError>, u64),
) -> Pass {
    let mut pass = Pass::default();
    let prefix = workload.prefix_ops();
    pass.slice_ops = workload.slice_ops();
    let mut slice_start_ns = 0;
    let base = Counters::read(sys, wal);
    let wall = Instant::now();
    let wall_limit = match until {
        Until::TimedNs(ns) => ns as f64 * WALL_FACTOR / 1e9,
        Until::Ops(_) => f64::INFINITY,
    };
    loop {
        let done = match until {
            Until::TimedNs(ns) => {
                (pass.timed_ns >= ns && pass.ops.is_multiple_of(pass.slice_ops))
                    || wall.elapsed().as_secs_f64() >= wall_limit
            }
            Until::Ops(n) => pass.ops >= n,
        };
        if done {
            break;
        }
        let op = workload.next_op();
        let (result, ns) = exec(sys, &op);
        pass.ops += 1;
        pass.timed_ns += ns;
        pass.samples_ns.push(ns);
        if pass.ops.is_multiple_of(pass.slice_ops) {
            pass.slice_ns.push(pass.timed_ns - slice_start_ns);
            slice_start_ns = pass.timed_ns;
        }
        match pass.by_label.iter_mut().find(|(l, _, _)| *l == op.label) {
            Some(entry) => (entry.1, entry.2) = (entry.1 + 1, entry.2 + ns),
            None => pass.by_label.push((op.label, 1, ns)),
        }
        pass.sql_bytes += op.sql.len() as u64;
        if let Err(why) = workloads::check(&op, &result) {
            pass.fail(format!("op {} `{}`: {why}", pass.ops, truncate(&op.sql)));
        }
        if pass.ops <= prefix {
            let rows = match &result {
                Ok(Outcome::Txn(out)) => {
                    pass.prefix_fired += out.fired().len() as u64;
                    match out {
                        TxnOutcome::Committed { output, .. } => output.as_ref(),
                        TxnOutcome::RolledBack { .. } => None,
                    }
                }
                Ok(Outcome::Rows(rel)) => Some(rel),
                Err(_) => None,
            };
            if let Some(rel) = rows {
                pass.prefix_outputs.relation(rel).end_row();
            }
        }
        workload.reseed(sys);
        if pass.ops == prefix {
            pass.prefix_len = prefix;
            pass.prefix_counts = Counters::read(sys, wal).since(&base);
            pass.prefix_timed_ns = pass.timed_ns;
            let digests = workload.digests(sys);
            pass.check_digests("prefix", &digests);
            pass.prefix_digests = digests;
        }
    }
    pass.total_counts = Counters::read(sys, wal).since(&base);
    if pass.ops < prefix {
        pass.prefix_len = pass.ops;
        pass.prefix_counts = pass.total_counts.clone();
        pass.prefix_timed_ns = pass.timed_ns;
    }
    let digests = workload.digests(sys);
    pass.check_digests("final", &digests);
    pass.final_digests = digests;
    pass
}

fn truncate(sql: &str) -> String {
    if sql.len() <= 96 {
        sql.to_string()
    } else {
        let cut = (0..=96)
            .rev()
            .find(|i| sql.is_char_boundary(*i))
            .unwrap_or(0);
        format!("{}…", &sql[..cut])
    }
}

/// Reopen the finished log: recovery time, and the recovered state must
/// digest like the model (hence like the live system).
fn recover(workload: &dyn Workload, path: &PathBuf, pass: &mut Pass) -> Recovery {
    let log_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    let start = Instant::now();
    let reopened = RuleSystem::open(config_with(Some(WalConfig::path(path))));
    let seconds = start.elapsed().as_secs_f64();
    let records = match reopened {
        Ok(sys) => {
            let digests = workload.digests(&sys);
            pass.check_digests("recovered", &digests);
            sys.stats().wal_replayed_records
        }
        Err(e) => {
            pass.fail(format!("recovery failed: {e}"));
            0
        }
    };
    Recovery {
        seconds,
        records,
        log_bytes,
    }
}

/// Run one workload as the arguments say.
pub fn run(args: &Args) -> Report {
    std::fs::create_dir_all(out_dir()).expect("create the benchmark's output directory");
    let report = if args.trace {
        run_trace(args)
    } else {
        run_measure(args)
    };
    for tag in ["main", "replay"] {
        let _ = std::fs::remove_file(wal_path(args, tag));
    }
    report
}

fn run_measure(args: &Args) -> Report {
    let path = wal_path(args, "main");
    let wal = durable(&args.workload).then_some(&path);
    let config = || match wal {
        Some(p) => file_config(p),
        None => config_with(None),
    };
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        // Drop the previous system first: two at once would double the
        // peak resident set.
        drop(built.take());
        let start = Instant::now();
        built = Some(build(args, config()));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (mut workload, mut sys) = built.expect("at least one set-up");

    let budget = (args.seconds * 1e9) as u64;
    let mut pass = drive(
        workload.as_mut(),
        &mut sys,
        wal,
        Until::TimedNs(budget),
        run_untraced,
    );
    // Before the checks below allocate anything of their own.
    let (peak_rss_mb, cpu_s) = (measure::peak_rss_mb(), measure::cpu_seconds());

    let rules_defined = workload.rules_defined();
    for (i, check) in workload.cross_checks().into_iter().enumerate() {
        if let Err(why) = check {
            pass.fail(format!("cross-check {i}: {why}"));
        }
    }
    drop(sys);
    let recovery = wal.map(|p| recover(workload.as_ref(), p, &mut pass));
    Report {
        args: args.clone(),
        setup_s,
        pass,
        peak_rss_mb,
        cpu_s,
        recovery,
        rules_defined,
        traced: None,
    }
}

fn run_trace(args: &Args) -> Report {
    let path = wal_path(args, "main");
    let wal = durable(&args.workload).then_some(&path);
    let start = Instant::now();
    let (mut workload, mut sys) = build(args, wal.map_or_else(|| config_with(None), file_config));
    let setup_s = vec![start.elapsed().as_secs_f64()];
    let mut twins = wal.map(|_| Twins {
        memory: build(args, config_with(None)).1,
        mem_sink: build(
            args,
            config_with(Some(WalConfig::memory(SharedMemSink::new()))),
        )
        .1,
    });

    // Half the time traced, then the same operations untraced.
    let budget = (args.seconds * 0.5 * 1e9) as u64;
    let mut tracer = Tracer::new(SPAN_CAPACITY);
    let mut sync_ns = 0;
    let mut pass = drive(
        workload.as_mut(),
        &mut sys,
        wal,
        Until::TimedNs(budget),
        |sys, op| run_traced(sys, twins.as_mut(), op, &mut tracer, &mut sync_ns),
    );
    let (peak_rss_mb, cpu_s) = (measure::peak_rss_mb(), measure::cpu_seconds());
    let rules_defined = workload.rules_defined();
    let probe_rows = workload.probe_rows();
    drop((sys, twins));
    let recovery = wal.map(|p| recover(workload.as_ref(), p, &mut pass));

    let replay_path = wal_path(args, "replay");
    let replay_wal = wal.map(|_| &replay_path);
    let (mut workload, mut sys) = build(
        args,
        replay_wal.map_or_else(|| config_with(None), file_config),
    );
    let replay = drive(
        workload.as_mut(),
        &mut sys,
        replay_wal,
        Until::Ops(pass.ops),
        run_untraced,
    );
    drop(sys);

    // Counts are made by the engine and must not depend on which path
    // the harness took into it.
    if replay.failed > 0 {
        pass.fail(format!(
            "untraced replay: {} failed operations: {:?}",
            replay.failed, replay.failures
        ));
    }
    let differing: Vec<String> = pass
        .total_counts
        .exact
        .iter()
        .zip(&replay.total_counts.exact)
        .filter(|((_, traced), (_, plain))| traced != plain)
        .map(|((name, traced), (_, plain))| {
            format!("count {name}: traced pass {traced}, untraced replay {plain}")
        })
        .collect();
    for d in differing {
        pass.fail(d);
    }
    if pass.final_digests != replay.final_digests {
        pass.fail("traced pass and untraced replay end in different states".into());
    }
    let error = tracer.layer_sum_error();
    if error.abs() > 0.02 {
        pass.fail(format!(
            "layer self times differ from timed wall by {:.2} %",
            error * 100.0
        ));
    }

    let span_file = out_dir().join(format!("trace-{}.jsonl", args.workload));
    let spans_written = match tracer.write_jsonl(&span_file) {
        Ok(n) => n,
        Err(e) => {
            pass.fail(format!("writing {}: {e}", span_file.display()));
            0
        }
    };
    let probe = probe::run(probe_rows);
    let traced = Traced {
        tracer,
        replay,
        sync_ns,
        probe,
        span_file,
        spans_written,
    };
    Report {
        args: args.clone(),
        setup_s,
        pass,
        peak_rss_mb,
        cpu_s,
        recovery,
        rules_defined,
        traced: Some(traced),
    }
}
