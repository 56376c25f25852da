//! `refire_storm`: the B15/B17 shape. Sixty watcher rules (exists,
//! two-view join, and sum/min accumulator conditions) hold the whole
//! `updated big` window and are reconsidered after every step of a driver
//! cascade; one storm per operation. Condition evaluation and its memos
//! dominate; `sql` and `wal` do nothing.

use setrules_core::{EngineConfig, RuleSystem};

use super::{ddl, engine_config, load, Expect, Fired, Op, OpKind, TableDigest, Workload};
use crate::digest::Digest;
use crate::prng::Prng;

/// Size of one storm system.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    rows: i64,
    watchers: usize,
    /// Driver cascade depth, drawn per storm from this range.
    depth: (i64, i64),
}

/// The measured size: a 2 000-row window, 60 watchers, ~30 steps (1 800
/// reconsiderations a storm, ~170 ms), so a run holds ~60 storms. The
/// memos (one per watcher over the window) outgrow any plan cache.
pub const FULL: Size = Size {
    rows: 2_000,
    watchers: 60,
    depth: (28, 32),
};
/// A tenth of it, for the incremental-vs-rescan cross-check.
const TENTH: Size = Size {
    rows: 800,
    watchers: 6,
    depth: (2, 3),
};

/// Model: `big.v` by key; `tick` and `sink` are empty between storms.
pub struct Refire {
    seed: u64,
    size: Size,
    v: Vec<i64>,
    rng: Prng,
}

impl Refire {
    /// Schema, watchers (created before the driver, so the default
    /// selection reconsiders every watcher between driver firings), data.
    pub fn build(seed: u64, config: EngineConfig, size: Size) -> (Refire, RuleSystem) {
        let mut sys = RuleSystem::with_config(config);
        ddl(&mut sys, "create table big (k int, v int)");
        ddl(&mut sys, "create table tick (k int)");
        ddl(&mut sys, "create table sink (r int)");
        for i in 0..size.watchers {
            // Every threshold is out of reach (v stays small and
            // non-negative), so each watcher is reconsidered, found false,
            // and stays in the storm. Distinct constants keep each rule's
            // plan and memo its own.
            let below = -(i as i64) - 1;
            let cond = match i % 4 {
                0 => format!("exists (select * from new updated big where v < {below})"),
                1 => format!(
                    "exists (select * from old updated big o, new updated big n \
                     where o.k = n.k and n.v < {below})"
                ),
                2 => format!(
                    "(select sum(v) from new updated big) > {}",
                    1_000_000_000 + i
                ),
                _ => format!("(select min(v) from new updated big) < {below}"),
            };
            ddl(
                &mut sys,
                &format!("create rule w{i} when updated big if {cond} then insert into sink values ({i})"),
            );
        }
        ddl(
            &mut sys,
            "create rule driver when inserted into tick \
             if exists (select * from inserted tick where k > 0) \
             then insert into tick (select k - 1 from inserted tick where k > 0)",
        );
        let mut data = Prng::new(seed, 1);
        let v: Vec<i64> = (0..size.rows).map(|_| data.range(0, 96)).collect();
        let rows: Vec<String> = v
            .iter()
            .enumerate()
            .map(|(k, v)| format!("({k}, {v})"))
            .collect();
        load(&mut sys, "big", &rows);
        (
            Refire {
                seed,
                size,
                v,
                rng: Prng::new(seed, 2),
            },
            sys,
        )
    }
}

impl Workload for Refire {
    fn next_op(&mut self) -> Op {
        let depth = self.rng.range(self.size.depth.0, self.size.depth.1);
        for v in &mut self.v {
            *v += 1;
        }
        Op {
            kind: OpKind::Txn,
            label: "storm",
            sql: format!("update big set v = v + 1; insert into tick values ({depth})"),
            expect: Expect {
                fired: vec![Fired::ins("driver", 1); depth as usize],
                touched: Some([1 + depth as u64, 0, self.size.rows as u64]),
                ..Default::default()
            },
        }
    }

    fn reseed(&mut self, sys: &mut RuleSystem) {
        ddl(sys, "delete from tick");
    }

    fn digests(&self, sys: &RuleSystem) -> Vec<TableDigest> {
        let mut d = Digest::new();
        for (k, v) in self.v.iter().enumerate() {
            d.int(k as i64).int(*v).end_row();
        }
        let empty = Digest::new().finish();
        vec![
            TableDigest::of(sys, "big", "k, v", d.finish()),
            TableDigest::of(sys, "tick", "k", empty),
            TableDigest::of(sys, "sink", "r", empty),
        ]
    }

    fn prefix_ops(&self) -> u64 {
        20
    }

    fn slice_ops(&self) -> u64 {
        4
    }

    fn probe_rows(&self) -> usize {
        self.size.rows as usize
    }

    fn rules_defined(&self) -> usize {
        self.size.watchers + 1
    }

    /// Incremental evaluation against re-scan at a tenth of the size:
    /// same firing trace, same consideration count, same final digests.
    fn cross_checks(&self) -> Vec<Result<(), String>> {
        let run = |incremental: bool| {
            let config = EngineConfig {
                incremental: Some(incremental),
                ..engine_config()
            };
            let (mut w, mut sys) = Refire::build(self.seed, config, TENTH);
            let mut fired = Vec::new();
            for _ in 0..3 {
                let op = w.next_op();
                match sys.transaction(&op.sql) {
                    Ok(out) => fired.extend(out.fired().iter().map(|f| f.rule.clone())),
                    Err(e) => return Err(format!("storm failed (incremental={incremental}): {e}")),
                }
                w.reseed(&mut sys);
            }
            let digests = w.digests(&sys);
            if let Some(d) = digests.iter().find(|d| d.engine != d.model) {
                return Err(format!(
                    "incremental={incremental}: table {} differs from model",
                    d.table
                ));
            }
            Ok((fired, sys.stats().rules_considered, digests))
        };
        vec![run(true).and_then(|inc| {
            let scan = run(false)?;
            if inc == scan {
                Ok(())
            } else {
                Err(format!(
                    "incremental and re-scan disagree: {} vs {} firings, {} vs {} considerations",
                    inc.0.len(),
                    scan.0.len(),
                    inc.1,
                    scan.1
                ))
            }
        })]
    }
}
