//! `analytic_query`: read-only `RuleSystem::query` over a fact table far
//! larger than CPU cache, cycling group-by + having + order, join + group,
//! distinct, top-K, ordered-index range, an ungrouped aggregate and a
//! correlated subquery (serial fallback). The evaluator / operator / exchange path with the rule
//! engine idle; the read-side twin of `cascade_bulk`.
//!
//! Every column is an integer, so the model's sums are exact, and every
//! query has a total `order by`, so row order is part of the check.

use std::collections::BTreeMap;

use setrules_core::{EngineConfig, RuleSystem};

use super::{ddl, load, Expect, Op, OpKind, TableDigest, Workload};
use crate::digest::Digest;
use crate::prng::Prng;

/// ~20 MB of tuples: far beyond this box's CPU caches, while the OLTP
/// workloads' hot rows fit.
const FACTS: i64 = 200_000;
const DIMS: i64 = 2_000;
const DAYS: i64 = 365;
const REGIONS: i64 = 20;
/// Query shapes in one cycle. An odd number: the median latency then
/// falls inside the middle shape's cluster instead of jumping between two
/// shapes. Literals vary within narrow ranges, so plans and costs do not
/// depend on the seed.
const SHAPES: u64 = 7;

struct Fact {
    dim: i64,
    amount: i64,
    qty: i64,
    day: i64,
}

/// Model: the generated rows; nothing ever changes them.
pub struct Analytic {
    facts: Vec<Fact>,
    region: Vec<i64>,
    rng: Prng,
    next: u64,
    fact_digest: u64,
    dim_digest: u64,
}

impl Analytic {
    /// Schema, indexes and bulk load; no rules.
    pub fn build(seed: u64, config: EngineConfig) -> (Analytic, RuleSystem) {
        let mut sys = RuleSystem::with_config(config);
        for sql in [
            "create table fact (id int, dim_id int, amount int, qty int, day int)",
            "create table dim (dim_id int, region int, label text)",
            "create index on fact (day) using ordered",
            "create index on fact (dim_id)",
            "create index on dim (dim_id)",
        ] {
            ddl(&mut sys, sql);
        }
        let mut data = Prng::new(seed, 1);
        let region: Vec<i64> = (0..DIMS).map(|_| data.range(0, REGIONS - 1)).collect();
        let mut dim_digest = Digest::new();
        let rows: Vec<String> = region
            .iter()
            .enumerate()
            .map(|(d, r)| {
                dim_digest
                    .int(d as i64)
                    .int(*r)
                    .text(&format!("d{d}"))
                    .end_row();
                format!("({d}, {r}, 'd{d}')")
            })
            .collect();
        load(&mut sys, "dim", &rows);
        let facts: Vec<Fact> = (0..FACTS)
            .map(|_| Fact {
                dim: data.range(0, DIMS - 1),
                amount: data.range(1, 10_000),
                qty: data.range(1, 50),
                day: data.range(0, DAYS - 1),
            })
            .collect();
        let mut fact_digest = Digest::new();
        let rows: Vec<String> = facts
            .iter()
            .enumerate()
            .map(|(id, f)| {
                fact_digest
                    .int(id as i64)
                    .int(f.dim)
                    .int(f.amount)
                    .int(f.qty)
                    .int(f.day)
                    .end_row();
                format!("({id}, {}, {}, {}, {})", f.dim, f.amount, f.qty, f.day)
            })
            .collect();
        load(&mut sys, "fact", &rows);
        let w = Analytic {
            facts,
            region,
            rng: Prng::new(seed, 2),
            next: 0,
            fact_digest: fact_digest.finish(),
            dim_digest: dim_digest.finish(),
        };
        (w, sys)
    }

    fn group_having(&mut self) -> (String, u64) {
        let (from_day, min_rows) = (self.rng.range(0, 20), self.rng.range(70, 90));
        // dim → (count, sum, min, max)
        let mut groups: BTreeMap<i64, (i64, i64, i64, i64)> = BTreeMap::new();
        for f in self.facts.iter().filter(|f| f.day >= from_day) {
            let g = groups.entry(f.dim).or_insert((0, 0, i64::MAX, i64::MIN));
            *g = (
                g.0 + 1,
                g.1 + f.amount,
                g.2.min(f.amount),
                g.3.max(f.amount),
            );
        }
        let mut d = Digest::new();
        for (dim, (n, sum, lo, hi)) in groups.into_iter().filter(|(_, g)| g.0 > min_rows) {
            d.int(dim).int(n).int(sum).int(lo).int(hi).end_row();
        }
        (
            format!(
                "select dim_id, count(*), sum(amount), min(amount), max(amount) from fact \
                 where day >= {from_day} group by dim_id having count(*) > {min_rows} order by dim_id"
            ),
            d.finish(),
        )
    }

    fn join_group(&mut self) -> (String, u64) {
        let min_qty = self.rng.range(10, 20);
        let mut groups: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
        for f in self.facts.iter().filter(|f| f.qty > min_qty) {
            let g = groups.entry(self.region[f.dim as usize]).or_insert((0, 0));
            *g = (g.0 + 1, g.1 + f.amount);
        }
        let mut d = Digest::new();
        for (region, (n, sum)) in groups {
            d.int(region).int(n).int(sum).end_row();
        }
        (
            format!(
                "select d.region, count(*), sum(f.amount) from fact f, dim d \
                 where f.dim_id = d.dim_id and f.qty > {min_qty} group by d.region order by d.region"
            ),
            d.finish(),
        )
    }

    fn distinct(&mut self) -> (String, u64) {
        let below = self.rng.range(60, 100);
        let mut seen = vec![false; DIMS as usize];
        for f in self.facts.iter().filter(|f| f.amount < below) {
            seen[f.dim as usize] = true;
        }
        let mut d = Digest::new();
        for (dim, _) in seen.iter().enumerate().filter(|(_, s)| **s) {
            d.int(dim as i64).end_row();
        }
        (
            format!("select distinct dim_id from fact where amount < {below} order by dim_id"),
            d.finish(),
        )
    }

    fn top_k(&mut self) -> (String, u64) {
        let max_qty = self.rng.range(30, 40);
        let mut best: Vec<(i64, i64)> = self
            .facts
            .iter()
            .enumerate()
            .filter(|(_, f)| f.qty <= max_qty)
            .map(|(id, f)| (-f.amount, id as i64))
            .collect();
        best.sort_unstable();
        let mut d = Digest::new();
        for (neg_amount, id) in best.into_iter().take(10) {
            d.int(id).int(-neg_amount).end_row();
        }
        (
            format!(
                "select id, amount from fact where qty <= {max_qty} order by amount desc, id limit 10"
            ),
            d.finish(),
        )
    }

    fn day_range(&mut self) -> (String, u64) {
        let from = self.rng.range(0, DAYS - 8);
        let mut d = Digest::new();
        for (id, f) in self
            .facts
            .iter()
            .enumerate()
            .filter(|(_, f)| f.day >= from && f.day < from + 7)
        {
            d.int(id as i64).int(f.amount).end_row();
        }
        (
            format!(
                "select id, amount from fact where day >= {from} and day < {} order by id",
                from + 7
            ),
            d.finish(),
        )
    }

    fn scalar_aggregate(&mut self) -> (String, u64) {
        let min_qty = self.rng.range(20, 30);
        let (mut n, mut sum, mut lo, mut hi) = (0, 0, i64::MAX, i64::MIN);
        for f in self.facts.iter().filter(|f| f.qty > min_qty) {
            (n, sum, lo, hi) = (n + 1, sum + f.amount, lo.min(f.amount), hi.max(f.amount));
        }
        let mut d = Digest::new();
        d.int(n).int(sum).int(lo).int(hi).end_row();
        (
            format!("select count(*), sum(amount), min(amount), max(amount) from fact where qty > {min_qty}"),
            d.finish(),
        )
    }

    /// One day's large orders whose amount beats a threshold looked up
    /// per row in `dim`: a correlated scalar subquery, which the engine
    /// evaluates serially, once per candidate row.
    fn correlated(&mut self) -> (String, u64) {
        let (day, factor) = (self.rng.range(0, DAYS - 1), self.rng.range(350, 450));
        let mut d = Digest::new();
        for (id, f) in self.facts.iter().enumerate() {
            if f.day == day && f.qty > 45 && f.amount > factor * self.region[f.dim as usize] {
                d.int(id as i64).int(f.amount).end_row();
            }
        }
        (
            format!(
                "select id, amount from fact f where day = {day} and qty > 45 and amount > \
                 (select {factor} * region from dim d where d.dim_id = f.dim_id) order by id"
            ),
            d.finish(),
        )
    }
}

impl Workload for Analytic {
    fn next_op(&mut self) -> Op {
        let shape = self.next % SHAPES;
        self.next += 1;
        let (label, (sql, output)) = match shape {
            0 => ("group_having", self.group_having()),
            1 => ("join_group", self.join_group()),
            2 => ("distinct", self.distinct()),
            3 => ("top_k", self.top_k()),
            4 => ("day_range", self.day_range()),
            5 => ("scalar_aggregate", self.scalar_aggregate()),
            _ => ("correlated", self.correlated()),
        };
        Op {
            kind: OpKind::Query,
            label,
            sql,
            expect: Expect {
                output: Some(output),
                ..Default::default()
            },
        }
    }

    fn digests(&self, sys: &RuleSystem) -> Vec<TableDigest> {
        vec![
            TableDigest::of(
                sys,
                "fact",
                "id, dim_id, amount, qty, day",
                self.fact_digest,
            ),
            TableDigest::of(sys, "dim", "dim_id, region, label", self.dim_digest),
        ]
    }

    fn prefix_ops(&self) -> u64 {
        3 * SHAPES
    }

    fn slice_ops(&self) -> u64 {
        SHAPES
    }

    fn probe_rows(&self) -> usize {
        FACTS as usize
    }

    fn rules_defined(&self) -> usize {
        0
    }
}
