//! Spans recorded by the harness around its calls into each layer.
//!
//! The engine has no internal spans yet, so every span here is opened and
//! closed by the benchmark itself, or is *synthetic*: a child whose
//! duration the engine reports (per-rule condition/action nanos) or the
//! harness measured on the side (the parse probe, the in-memory twin's
//! commit), laid inside the parent span it was spent in. A span's self
//! time is its duration minus what its children cover.

use std::io::Write;
use std::time::Instant;

/// Span names; the part before the dot is the layer (a crate name).
pub const NAMES: [&str; 9] = [
    "harness.op",
    "sql.parse",
    "query.exec",
    "core.begin",
    "core.external_block",
    "core.overhead",
    "core.condition",
    "core.action",
    "wal.commit",
];
/// Root span of one operation; its self time is harness overhead.
pub const OP: usize = 0;
/// `parse_op_block` on the operation's text.
pub const SQL_PARSE: usize = 1;
/// `RuleSystem::query`, less the parse inside it.
pub const QUERY_EXEC: usize = 2;
/// `RuleSystem::begin`.
pub const CORE_BEGIN: usize = 3;
/// `RuleSystem::run_op`, less the parse inside it.
pub const CORE_EXTERNAL: usize = 4;
/// `RuleSystem::commit`; its self time is selection, trans-info and
/// window materialisation — what is left after conditions, actions and
/// the log.
pub const CORE_OVERHEAD: usize = 5;
/// Sum of the transaction's `RuleTiming::condition_nanos`.
pub const CORE_CONDITION: usize = 6;
/// Sum of the transaction's `RuleTiming::action_nanos`.
pub const CORE_ACTION: usize = 7;
/// Durable commit span minus the in-memory twin's commit span.
pub const WAL_COMMIT: usize = 8;

/// One recorded span. `parent` is the id of the span that caused it
/// (`0` for an operation's root); spans of one operation share `op_id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op_id: u64,
    pub name: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span in `spans` (same order): duration minus the
/// union of its direct children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|p| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == p.id && c.id != p.id)
                .map(|c| (c.start_ns.max(p.start_ns), c.end_ns.min(p.end_ns)))
                .filter(|(s, e)| e > s)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = p.start_ns;
            for (s, e) in kids {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            p.dur() - covered
        })
        .collect()
}

/// Recorder for a traced pass: spans go to a pre-allocated vector (no
/// allocation while an operation is timed); per-name self-time totals
/// cover every operation, including those past the vector's capacity.
pub struct Tracer {
    origin: Instant,
    kept: Vec<Span>,
    current: Vec<Span>,
    next_id: u64,
    op_id: u64,
    /// Self time per span name over all operations, in ns.
    pub self_ns: [u64; NAMES.len()],
    /// Time engine-reported children (condition, action, log) claimed
    /// beyond the commit span they were supposedly spent in. Shows up in
    /// the layer-sum check: the engine's own timings must fit the spans
    /// the harness measured around them.
    pub overflow_ns: u64,
    /// Time the parse probe took beyond the span it stands in for: the
    /// probe runs on colder caches than the parse inside the engine, and
    /// now and then absorbs a stall that the operation never saw.
    pub probe_clipped_ns: u64,
    /// Sum of root span durations: the traced pass's timed wall.
    pub wall_ns: u64,
}

impl Tracer {
    /// A tracer that keeps the first `capacity` spans for the span file.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            kept: Vec::with_capacity(capacity),
            current: Vec::with_capacity(16),
            next_id: 1,
            op_id: 0,
            self_ns: [0; NAMES.len()],
            overflow_ns: 0,
            probe_clipped_ns: 0,
            wall_ns: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open the root span of the next operation.
    pub fn begin_op(&mut self) -> usize {
        self.op_id += 1;
        self.current.clear();
        self.open(OP, None)
    }

    /// Open a span under `parent` (an index returned by an earlier call
    /// for this operation); returns its index.
    pub fn open(&mut self, name: usize, parent: Option<usize>) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        let parent = parent.map_or(0, |p| self.current[p].id);
        let now = self.now();
        self.current.push(Span {
            id,
            parent,
            op_id: self.op_id,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.current.len() - 1
    }

    /// Close a span; returns its duration in ns.
    pub fn close(&mut self, idx: usize) -> u64 {
        let now = self.now();
        self.current[idx].end_ns = now;
        self.current[idx].dur()
    }

    /// Lay synthetic children of the given durations end to end from the
    /// start of the (closed) span `parent`, clipping at its end. Returns
    /// the time clipped: what the children claimed beyond their parent.
    pub fn synthetic(&mut self, parent: usize, children: &[(usize, u64)]) -> u64 {
        let p = self.current[parent];
        let mut at = p.start_ns;
        let mut clipped = 0;
        for &(name, dur) in children {
            if dur == 0 {
                continue;
            }
            let end = (at + dur).min(p.end_ns);
            clipped += at + dur - end;
            let id = self.next_id;
            self.next_id += 1;
            self.current.push(Span {
                id,
                parent: p.id,
                op_id: self.op_id,
                name,
                start_ns: at,
                end_ns: end,
            });
            at = end;
        }
        clipped
    }

    /// Fold the (closed) root span's operation into the totals and keep
    /// its spans while capacity lasts. The root is closed separately so
    /// that side measurements feeding synthetic children can run between
    /// the two without counting as the operation's time. Returns the root
    /// span's duration: the operation's traced latency.
    pub fn finish_op(&mut self, root: usize) -> u64 {
        let dur = self.current[root].dur();
        self.wall_ns += dur;
        for (span, own) in self.current.iter().zip(self_times(&self.current)) {
            self.self_ns[span.name] += own;
        }
        if self.kept.len() + self.current.len() <= self.kept.capacity() {
            self.kept.extend_from_slice(&self.current);
        }
        dur
    }

    /// Layer self times summed over span names: `(layer, ns)`, in the
    /// order sql, query, core, wal, harness.
    pub fn layer_ns(&self) -> [(&'static str, u64); 5] {
        let by = |layer: &str| -> u64 {
            NAMES
                .iter()
                .zip(self.self_ns)
                .filter(|(n, _)| n.split('.').next() == Some(layer))
                .map(|(_, ns)| ns)
                .sum()
        };
        [
            ("sql", by("sql")),
            ("query", by("query")),
            ("core", by("core")),
            ("wal", by("wal")),
            ("harness", by("harness")),
        ]
    }

    /// Layer self times plus overflow against the timed wall, as a signed
    /// share of the wall: 0 when every nanosecond is attributed once.
    pub fn layer_sum_error(&self) -> f64 {
        let attributed: u64 = self.self_ns.iter().sum::<u64>() + self.overflow_ns;
        (attributed as f64 - self.wall_ns as f64) / (self.wall_ns.max(1) as f64)
    }

    /// Write the kept spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op_id, NAMES[s.name], s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(self.kept.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: usize, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op_id: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = [
            span(1, 0, OP, 0, 100),
            span(2, 1, CORE_BEGIN, 5, 15),
            span(3, 1, CORE_EXTERNAL, 20, 60),
            span(4, 3, SQL_PARSE, 20, 30),
            span(5, 1, CORE_OVERHEAD, 60, 95),
            span(6, 5, CORE_CONDITION, 60, 70),
            span(7, 5, CORE_ACTION, 70, 90),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![15, 10, 30, 10, 5, 10, 20]);
        // Every nanosecond of the root is attributed exactly once.
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(1, 0, OP, 10, 50),
            span(2, 1, CORE_BEGIN, 0, 20),     // overhangs the start
            span(3, 1, CORE_EXTERNAL, 15, 30), // overlaps its sibling
            span(4, 1, CORE_OVERHEAD, 45, 70), // overhangs the end
        ];
        // Covered: [10,30) and [45,50) = 25 of 40.
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn tracer_attributes_synthetic_children_and_reports_overflow() {
        let mut t = Tracer::new(64);
        let root = t.begin_op();
        let commit = t.open(CORE_OVERHEAD, Some(root));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let commit_ns = t.close(commit);
        t.close(root);
        let clipped = t.synthetic(
            commit,
            &[
                (CORE_CONDITION, commit_ns / 4),
                (CORE_ACTION, commit_ns / 4),
            ],
        );
        t.finish_op(root);
        assert_eq!(clipped, 0);
        assert_eq!(t.self_ns[CORE_CONDITION], commit_ns / 4);
        assert_eq!(t.self_ns[CORE_ACTION], commit_ns / 4);
        assert_eq!(t.self_ns[CORE_OVERHEAD], commit_ns - 2 * (commit_ns / 4));
        assert!(t.layer_sum_error().abs() < 1e-9);
        assert_eq!(t.self_ns.iter().sum::<u64>(), t.wall_ns);

        // A child that claims more than its parent's span overflows, and
        // the layer sum no longer matches the wall.
        let root = t.begin_op();
        let commit = t.open(CORE_OVERHEAD, Some(root));
        let commit_ns = t.close(commit);
        t.close(root);
        t.overflow_ns += t.synthetic(commit, &[(WAL_COMMIT, commit_ns + 1_000_000)]);
        t.finish_op(root);
        assert_eq!(t.overflow_ns, 1_000_000);
        assert!(t.layer_sum_error() > 0.0);
    }

    #[test]
    fn spans_past_capacity_still_count() {
        let mut t = Tracer::new(2);
        for _ in 0..3 {
            let root = t.begin_op();
            let b = t.open(CORE_BEGIN, Some(root));
            t.close(b);
            t.close(root);
            t.finish_op(root);
        }
        assert_eq!(t.kept.len(), 2);
        assert_eq!(t.self_ns.iter().sum::<u64>(), t.wall_ns);
    }
}
