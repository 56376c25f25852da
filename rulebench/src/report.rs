//! Metric definitions (the single table `BENCHMARK.json` is written
//! from), the human-readable report, and the final JSON line.

use std::fmt::Write;

use crate::measure;
use crate::run::{Pass, Report};
use crate::trace;

/// One metric definition: name, unit, and whether higher is better.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// End-to-end metrics: what a user of the engine sees. Bounds are backed
/// by the A/A table in the README.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("ops_per_s", "1/s", true, 0.20),
    e2e("op_p50_us", "us", false, 0.24),
    e2e("peak_rss_mb", "MB", false, 0.20),
    e2e("setup_s", "s", false, 0.25),
];

/// Per-layer metrics; the part before the dot is the crate. Times are per
/// operation of the traced pass; counts are per operation (or committed
/// transaction) of the fixed prefix, so they repeat exactly for a seed.
pub const PER_LAYER: [MetricDef; 46] = [
    layer("sql.parse_us_per_op", "us/op", false),
    layer("sql.bytes_per_op", "B/op", false),
    layer("query.exec_us_per_op", "us/op", false),
    layer("query.rows_scanned", "1/op", false),
    layer("query.rows_matched", "1/op", false),
    layer("query.match_ratio", "ratio", true),
    layer("query.index_lookups", "1/op", false),
    layer("query.full_scans", "1/op", false),
    layer("query.hash_joins", "1/op", false),
    layer("query.join_combinations", "1/op", false),
    layer("query.plan_cache_hit_ratio", "ratio", true),
    layer("query.parallel_scans", "1/op", true),
    layer("query.parallel_partitions", "1/op", true),
    layer("query.serial_fallbacks", "1/op", false),
    layer("storage.tuples_inserted", "1/op", false),
    layer("storage.tuples_deleted", "1/op", false),
    layer("storage.tuples_updated", "1/op", false),
    layer("storage.undo_records_written", "1/op", false),
    layer("storage.undo_records_applied", "1/op", false),
    layer("storage.index_maintenance_ops", "1/op", false),
    layer("storage.apply_ns_per_row", "ns/row", false),
    layer("storage.rollback_ns_per_row", "ns/row", false),
    layer("core.begin_us", "us/op", false),
    layer("core.external_block_us", "us/op", false),
    layer("core.rule_processing_us", "us/op", false),
    layer("core.condition_us", "us/op", false),
    layer("core.action_us", "us/op", false),
    layer("core.overhead_us", "us/op", false),
    layer("core.rules_considered", "1/op", false),
    layer("core.rules_executed", "1/op", false),
    layer("core.conditions_false", "1/op", false),
    layer("core.rules_retriggered", "1/op", false),
    layer("core.fire_ratio", "ratio", true),
    layer("core.incr_hit_ratio", "ratio", true),
    layer("core.incr_shared_hits", "1/op", true),
    layer("core.consider_ns", "ns/rule", false),
    layer("wal.appends_per_txn", "1/txn", false),
    layer("wal.syncs_per_txn", "1/txn", false),
    layer("wal.bytes_per_txn", "B/txn", false),
    layer("wal.commit_us", "us/op", false),
    layer("wal.sync_us", "us/op", false),
    layer("wal.recovery_records_per_s", "1/s", true),
    layer("wal.checkpoints", "count", false),
    layer("harness.us_per_op", "us/op", false),
    layer("trace_overhead_pct", "%", false),
    layer("layer_sum_error_pct", "%", false),
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median and tail latency of a pass in µs: `(p50, tail percentile, tail)`.
pub fn latency_us(pass: &Pass) -> (f64, Option<f64>, f64) {
    let mut sorted = pass.samples_ns.clone();
    sorted.sort_unstable();
    if sorted.is_empty() {
        return (0.0, None, 0.0);
    }
    let p50 = measure::percentile(&sorted, 50.0) as f64 / 1e3;
    match measure::tail_percentile(sorted.len()) {
        Some(p) => (p50, Some(p), measure::percentile(&sorted, p) as f64 / 1e3),
        None => (p50, None, *sorted.last().expect("non-empty") as f64 / 1e3),
    }
}

/// Operations per second of timed time: the median over the pass's
/// slices (each holds the workload's whole mix), or the overall rate if
/// the pass ended before one slice did.
pub fn ops_per_s(pass: &Pass) -> f64 {
    if pass.slice_ns.is_empty() {
        return pass.ops as f64 / (pass.timed_ns.max(1) as f64 / 1e9);
    }
    let mut rates: Vec<f64> = pass
        .slice_ns
        .iter()
        .map(|ns| pass.slice_ops as f64 / (*ns as f64 / 1e9))
        .collect();
    measure::median_f64(&mut rates)
}

/// Values of the end-to-end metrics, in `END_TO_END` order.
pub fn end_to_end_values(r: &Report) -> [f64; 4] {
    let mut setups = r.setup_s.clone();
    [
        ops_per_s(&r.pass),
        latency_us(&r.pass).0,
        r.peak_rss_mb,
        measure::median_f64(&mut setups),
    ]
}

/// Values of the per-layer metrics, in `PER_LAYER` order. Only a traced
/// report has them.
pub fn per_layer_values(r: &Report) -> Option<Vec<f64>> {
    let t = r.traced.as_ref()?;
    let pass = &r.pass;
    let ops = pass.ops.max(1) as f64;
    let us = |name: usize| t.tracer.self_ns[name] as f64 / 1e3 / ops;
    let c = &pass.prefix_counts;
    let per_op = |name: &str| ratio(c.get(name), pass.prefix_len);
    let txns = c.get("txns_committed");
    let commit_us = us(trace::CORE_OVERHEAD)
        + us(trace::CORE_CONDITION)
        + us(trace::CORE_ACTION)
        + us(trace::WAL_COMMIT);
    let recovery = r
        .recovery
        .as_ref()
        .map_or(0.0, |rec| rec.records as f64 / rec.seconds);
    let overhead = (pass.timed_ns as f64 - t.replay.timed_ns as f64)
        / (t.replay.timed_ns.max(1) as f64)
        * 100.0;
    Some(vec![
        us(trace::SQL_PARSE),
        pass.sql_bytes as f64 / ops,
        us(trace::QUERY_EXEC),
        per_op("rows_scanned"),
        per_op("rows_matched"),
        ratio(c.get("rows_matched"), c.get("rows_scanned")),
        per_op("index_lookups"),
        per_op("full_scans"),
        per_op("hash_joins"),
        per_op("join_combinations"),
        ratio(
            c.get("plan_cache_hits"),
            c.get("plan_cache_hits") + c.get("plan_cache_misses"),
        ),
        per_op("parallel_scans"),
        per_op("parallel_partitions"),
        per_op("serial_fallbacks"),
        per_op("tuples_inserted"),
        per_op("tuples_deleted"),
        per_op("tuples_updated"),
        per_op("undo_records_written"),
        per_op("undo_records_applied"),
        per_op("index_maintenance_ops"),
        t.probe.apply_ns_per_row,
        t.probe.rollback_ns_per_row,
        us(trace::CORE_BEGIN),
        us(trace::CORE_EXTERNAL),
        commit_us,
        us(trace::CORE_CONDITION),
        us(trace::CORE_ACTION),
        us(trace::CORE_OVERHEAD),
        per_op("rules_considered"),
        per_op("rules_executed"),
        per_op("conditions_false"),
        per_op("rules_retriggered"),
        ratio(c.get("rules_executed"), c.get("rules_considered")),
        ratio(
            c.get("incr_hits"),
            c.get("incr_hits") + c.get("incr_rebuilds") + c.get("incr_fallbacks"),
        ),
        per_op("incr_shared_hits"),
        ratio(pass.prefix_timed_ns, c.get("rules_considered")),
        ratio(c.get("wal_appends"), txns),
        ratio(c.get("wal_syncs"), txns),
        ratio(c.get("wal_bytes"), txns),
        us(trace::WAL_COMMIT),
        t.sync_ns as f64 / 1e3 / ops,
        recovery,
        pass.total_counts.get("checkpoints") as f64,
        us(trace::OP),
        overhead,
        t.tracer.layer_sum_error() * 100.0,
    ])
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn json_line(r: &Report) -> String {
    let (defs, values): (&[MetricDef], Vec<f64>) = match per_layer_values(r) {
        Some(v) => (&PER_LAYER, v),
        None => (&END_TO_END, end_to_end_values(r).to_vec()),
    };
    let mut out = String::new();
    write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.pass.failed == 0,
        r.pass.ops.max(1),
        r.pass.failed
    )
    .expect("write to String");
    for (i, (def, value)) in defs.iter().zip(values).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; a metric that could not be
        // computed reads as 0 and the run is already marked failed.
        let value = if value.is_finite() { value } else { 0.0 };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        )
        .expect("write to String");
    }
    out.push_str("}}");
    out
}

/// The report a person reads: every metric by name with unit and sample
/// count, the exact counts over the prefix, digests, and failures.
pub fn human(r: &Report) -> String {
    let mut o = String::new();
    let pass = &r.pass;
    macro_rules! line {
        ($($arg:tt)*) => { writeln!($($arg)*).expect("write to String") };
    }
    line!(o, "== {} seed={} seconds={} trace={} | closed loop, 1 client, engine threads={} (nproc={}), rules defined={}",
            r.args.workload,
            r.args.seed,
            r.args.seconds,
            u8::from(r.args.trace),
            measure::engine_threads(),
            measure::nproc(),
            r.rules_defined);
    let (p50, tail_p, tail) = latency_us(pass);
    let e = end_to_end_values(r);
    line!(o, "ops_per_s          {:>14.3} 1/s   (median of {} slices of {} ops; overall {} ops in {:.3} s timed = {:.3} 1/s)",
            e[0],
            pass.slice_ns.len(),
            pass.slice_ops,
            pass.ops,
            pass.timed_ns as f64 / 1e9,
            pass.ops as f64 / (pass.timed_ns.max(1) as f64 / 1e9));
    line!(
        o,
        "op_p50_us          {p50:>14.3} us    (n={})",
        pass.samples_ns.len()
    );
    match tail_p {
        Some(p) => line!(
            o,
            "op_tail_us         {tail:>14.3} us    (p{p}, {} samples beyond)",
            measure::samples_beyond(pass.samples_ns.len(), p)
        ),
        None => line!(
            o,
            "op_tail_us         {tail:>14.3} us    (max; too few samples for a percentile)"
        ),
    }
    line!(o, "peak_rss_mb        {:>14.3} MB", r.peak_rss_mb);
    line!(o, "cpu_s              {:>14.3} s", r.cpu_s);
    line!(
        o,
        "setup_s            {:>14.6} s     (median of {:?})",
        e[3],
        r.setup_s
    );
    line!(
        o,
        "failed_ops         {:>14} /{} attempted",
        pass.failed,
        pass.ops
    );
    for (label, n, ns) in &pass.by_label {
        line!(
            o,
            "  op type {label:<15} {n:>8} ops  mean {:>12.3} us  {:>6.2} % of timed",
            *ns as f64 / 1e3 / *n as f64,
            *ns as f64 / pass.timed_ns.max(1) as f64 * 100.0
        );
    }
    let c = &pass.prefix_counts;
    if let Some(rec) = &r.recovery {
        line!(
            o,
            "wal_bytes_per_txn  {:>14.3} B/txn (first {} ops, exact)",
            ratio(c.get("wal_bytes"), c.get("txns_committed")),
            pass.prefix_len
        );
        line!(
            o,
            "recovery_s         {:>14.6} s     ({} records, {} log bytes, {} checkpoints)",
            rec.seconds,
            rec.records,
            rec.log_bytes,
            pass.total_counts.get("checkpoints")
        );
    }
    line!(
        o,
        "-- exact counts over the first {} ops ({} rule firings)",
        pass.prefix_len,
        pass.prefix_fired
    );
    for (name, v) in c.exact.iter().filter(|(_, v)| *v > 0) {
        write!(o, " {name}={v}").expect("write to String");
    }
    o.push('\n');
    for d in &pass.prefix_digests {
        line!(
            o,
            "digest prefix {:<9} {:016x} {}",
            d.table,
            d.engine,
            if d.engine == d.model {
                "== model"
            } else {
                "!= model"
            }
        );
    }
    for d in &pass.final_digests {
        line!(
            o,
            "digest final  {:<9} {:016x} {}",
            d.table,
            d.engine,
            if d.engine == d.model {
                "== model"
            } else {
                "!= model"
            }
        );
    }
    if let (Some(t), Some(values)) = (&r.traced, per_layer_values(r)) {
        line!(
            o,
            "-- traced pass: {} ops, {} spans in {}; storage probe at {} rows",
            pass.ops,
            t.spans_written,
            t.span_file.display(),
            t.probe.rows
        );
        let wall = t.tracer.wall_ns.max(1) as f64;
        for (layer, ns) in t.tracer.layer_ns() {
            line!(
                o,
                "layer {layer:<8} self {:>12.3} ms  {:>6.2} % of timed wall",
                ns as f64 / 1e6,
                ns as f64 / wall * 100.0
            );
        }
        for (name, ns) in trace::NAMES.iter().zip(t.tracer.self_ns) {
            line!(
                o,
                "  span {name:<20} self {:>12.3} ms  {:>6.2} %",
                ns as f64 / 1e6,
                ns as f64 / wall * 100.0
            );
        }
        line!(
            o,
            "parse probe clipped {:.3} ms (probe slower than the span it stands in for)",
            t.tracer.probe_clipped_ns as f64 / 1e6
        );
        for (def, v) in PER_LAYER.iter().zip(values) {
            line!(o, "{:<30} {v:>16.4} {}", def.name, def.unit);
        }
    }
    for f in &pass.failures {
        line!(o, "FAILED: {f}");
    }
    o
}

/// `BENCHMARK.json`, written from the tables above.
pub fn benchmark_json(run_seconds: u64) -> String {
    let whys = crate::workloads::WORKLOADS;
    let mut o = String::from("{\n");
    o.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"rulebench/Cargo.toml\", \"--\"],\n");
    o.push_str("  \"paths\": [\"rulebench\"],\n");
    writeln!(o, "  \"run_seconds\": {run_seconds},").expect("write to String");
    o.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in whys.iter().enumerate() {
        let comma = if i + 1 == whys.len() { "" } else { "," };
        writeln!(o, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}")
            .expect("write to String");
    }
    o.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        writeln!(
            o,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            if m.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            m.bound.expect("end-to-end metrics have bounds")
        )
        .expect("write to String");
    }
    o.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        writeln!(
            o,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            if m.higher_is_better {
                "higher"
            } else {
                "lower"
            }
        )
        .expect("write to String");
    }
    o.push_str("  ]\n}\n");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for name in crate::workloads::names() {
            assert!(valid_name(name) && seen.insert(name));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let run_seconds: u64 = committed
            .lines()
            .find_map(|l| l.trim().strip_prefix("\"run_seconds\": "))
            .and_then(|v| v.trim_end_matches(',').parse().ok())
            .expect("run_seconds in BENCHMARK.json");
        assert_eq!(committed, benchmark_json(run_seconds));
        for (name, why) in committed.lines().filter_map(|l| {
            let l = l.trim().strip_prefix("{\"name\": \"")?;
            let (name, rest) = l.split_once("\", \"why\": \"")?;
            Some((name, rest.trim_end_matches(',').trim_end_matches("\"}")))
        }) {
            assert!(crate::workloads::names().any(|n| n == name));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
        }
    }
}
