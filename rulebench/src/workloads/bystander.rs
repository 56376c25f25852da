//! `bystander_rules`: B3 at scale. 256 rules are *defined* on another
//! table and never triggered; every transaction is a one-row indexed
//! update. Per-defined-rule transition-information upkeep
//! (`core.overhead_us`) does most of the work; condition, action and query
//! evaluation do almost none.

use setrules_core::{EngineConfig, RuleSystem};

use super::{ddl, load, Expect, Op, OpKind, TableDigest, Workload};
use crate::digest::Digest;
use crate::prng::Prng;

const RULES: usize = 256;
/// Small enough to stay in CPU cache: the table is not what is measured.
const ROWS: i64 = 10_000;

/// Model: `data.v` by key.
pub struct Bystander {
    v: Vec<i64>,
    rng: Prng,
}

impl Bystander {
    /// Schema, the inert rules and the data.
    pub fn build(seed: u64, config: EngineConfig) -> (Bystander, RuleSystem) {
        let mut sys = RuleSystem::with_config(config);
        ddl(&mut sys, "create table data (k int, v int)");
        ddl(&mut sys, "create table other (k int)");
        ddl(&mut sys, "create index on data (k)");
        for i in 0..RULES {
            // Distinct constants keep every rule's plan its own.
            ddl(
                &mut sys,
                &format!(
                    "create rule bystander{i} when inserted into other \
                     if exists (select * from inserted other where k > {i}) \
                     then delete from other where k = {i}"
                ),
            );
        }
        let mut data = Prng::new(seed, 1);
        let v: Vec<i64> = (0..ROWS).map(|_| data.range(0, 999)).collect();
        let rows: Vec<String> = v
            .iter()
            .enumerate()
            .map(|(k, v)| format!("({k}, {v})"))
            .collect();
        load(&mut sys, "data", &rows);
        (
            Bystander {
                v,
                rng: Prng::new(seed, 2),
            },
            sys,
        )
    }
}

impl Workload for Bystander {
    fn next_op(&mut self) -> Op {
        let k = self.rng.below(ROWS as u64) as usize;
        let delta = self.rng.range(1, 9);
        self.v[k] += delta;
        Op {
            kind: OpKind::Txn,
            label: "point_update",
            sql: format!("update data set v = v + {delta} where k = {k}"),
            expect: Expect {
                touched: Some([0, 0, 1]),
                ..Default::default()
            },
        }
    }

    fn digests(&self, sys: &RuleSystem) -> Vec<TableDigest> {
        let mut d = Digest::new();
        for (k, v) in self.v.iter().enumerate() {
            d.int(k as i64).int(*v).end_row();
        }
        vec![
            TableDigest::of(sys, "data", "k, v", d.finish()),
            TableDigest::of(sys, "other", "k", Digest::new().finish()),
        ]
    }

    fn prefix_ops(&self) -> u64 {
        20_000
    }

    fn slice_ops(&self) -> u64 {
        5_000
    }

    fn probe_rows(&self) -> usize {
        ROWS as usize
    }

    fn rules_defined(&self) -> usize {
        RULES
    }
}
