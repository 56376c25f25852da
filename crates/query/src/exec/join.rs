//! The join operator: drains its child scans and assembles row
//! combinations, emitted in row-index lexicographic order.
//!
//! A combination is one row index per `from` item, in item order; a
//! batch of them is one flat index vector in strides of the item count
//! (for a sole item, a batch of row indices). Every join runs the greedy
//! N-way [`JoinPlan`](crate::planner::JoinPlan) over the plan's equi-join
//! edges and the scanned cardinalities: hash steps on equi-join keys,
//! cross steps only when nothing connects. Build and probe run serially:
//! a partitioned build lost 1.4–1.7× at every size measured, because
//! merging the per-partition maps re-inserts every distinct key
//! (EXPERIMENTS.md B16). Hash probes are a sound
//! *prefilter* — the filter operator above still evaluates the full
//! predicate per emitted combination — with one accepted divergence:
//! prefilters may skip combinations whose evaluation would *error*.

use std::collections::HashMap;
use std::sync::Arc;

use setrules_storage::Value;

use crate::error::QueryError;
use crate::planner::{build_join_plan, EquiEdge};
use crate::stats;

use super::scan::{FromItem, ScanExec};
use super::{append, Batches, ExecCx, Executor};

/// A hash step's table: composite key values to the incoming item's row
/// indices, ascending.
type HashTable<'r> = HashMap<Vec<&'r Value>, Vec<usize>>;

/// Refill `key` with one side's join-key values; `false` when one is
/// NULL (SQL equality with NULL is unknown, so the row never joins).
fn fill_key<'v>(key: &mut Vec<&'v Value>, vals: impl Iterator<Item = &'v Value>) -> bool {
    key.clear();
    for v in vals {
        if v.is_null() {
            return false;
        }
        key.push(v);
    }
    true
}

/// The combination assembler. Owns its child scans; at open it drains
/// them into [`FromItem`]s, computes the full combination set through the
/// join plan, and then emits it in batches.
pub(crate) struct JoinExec<'a> {
    scans: Vec<ScanExec<'a>>,
    /// Row indices per combination: the number of `from` items.
    width: usize,
    /// The planned equi-join edges; they become hash steps.
    edges: Vec<EquiEdge>,
    /// The planned operator name; `None` for a sole item, which passes
    /// its rows through as the combinations and records nothing.
    op: Option<&'static str>,
    items: Vec<FromItem<'a>>,
    batch_rows: usize,
    state: Option<Batches<usize>>,
}

impl<'a> JoinExec<'a> {
    pub(crate) fn new(
        scans: Vec<ScanExec<'a>>,
        edges: Vec<EquiEdge>,
        op: Option<&'static str>,
    ) -> Self {
        JoinExec {
            width: scans.len(),
            scans,
            edges,
            op,
            items: Vec::new(),
            batch_rows: usize::MAX,
            state: None,
        }
    }

    #[cfg(test)]
    pub(crate) fn with_batch_rows(mut self, batch_rows: usize) -> Self {
        self.batch_rows = batch_rows;
        self
    }

    /// Row indices per combination (the number of `from` items).
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// The materialized `from` items; valid after open (first pull).
    pub(crate) fn items(&self) -> &[FromItem<'a>] {
        &self.items
    }

    fn open(&mut self, cx: &mut ExecCx<'a, '_>) -> Result<Vec<usize>, QueryError> {
        // Drain the scans in item order — a scan error (say, a transition
        // provider failure on item 1) surfaces before any join work, just
        // as the sequential materialization loop did.
        let mut items: Vec<FromItem<'a>> = Vec::with_capacity(self.scans.len());
        for scan in &mut self.scans {
            let mut rows = Vec::new();
            while let Some(batch) = scan.next_batch(cx)? {
                if let Some(op) = self.op {
                    cx.rows_in(op, batch.len());
                }
                append(&mut rows, batch);
            }
            items.push(FromItem {
                binding: std::mem::take(&mut scan.item.binding),
                columns: Arc::clone(&scan.item.columns),
                rows,
            });
        }

        // An empty item means zero combinations; a sole item's rows are
        // the combinations; anything else goes through the join plan.
        let combos = if items.iter().any(|it| it.rows.is_empty()) {
            Vec::new()
        } else if items.len() == 1 {
            (0..items[0].rows.len()).collect()
        } else {
            self.planned(cx, &items)
        };
        self.items = items;
        Ok(combos)
    }

    /// Run the greedy join plan over two or more non-empty items,
    /// returning the flat combinations in row-index lexicographic order.
    fn planned(&self, cx: &ExecCx<'a, '_>, items: &[FromItem<'a>]) -> Vec<usize> {
        let ctx = cx.ctx;
        let cards: Vec<usize> = items.iter().map(|it| it.rows.len()).collect();
        let plan = build_join_plan(&cards, &self.edges);
        stats::bump(ctx.stats, |s| {
            for step in &plan.steps {
                if step.edges.is_empty() {
                    s.nested_loop_joins += 1;
                } else {
                    s.hash_joins += 1;
                }
            }
        });
        let order = plan.order();
        // pos_of[item] = position of that item in join order. A partial
        // combination holds one row index per placed item, in join
        // order; the partials are one flat vector in strides of `placed`.
        let mut pos_of = vec![0usize; items.len()];
        for (p, &it) in order.iter().enumerate() {
            pos_of[it] = p;
        }
        let mut placed = 1;
        let mut partials: Vec<usize> = (0..items[plan.first].rows.len()).collect();
        for step in &plan.steps {
            if partials.is_empty() {
                break;
            }
            let new_rows = &items[step.item].rows;
            let mut next = Vec::new();
            if step.edges.is_empty() {
                // Cross step: no equi-edge reaches this item.
                next.reserve(partials.len() / placed * new_rows.len() * (placed + 1));
                for p in partials.chunks_exact(placed) {
                    for j in 0..new_rows.len() {
                        next.extend_from_slice(p);
                        next.push(j);
                    }
                }
            } else {
                // Hash step: build on the incoming item over the
                // composite key, then probe it with every partial. The
                // type-equality requirement on edges makes storage-level
                // hash equality agree with SQL equality. Keys are looked
                // up from one reused buffer; only a new key is copied.
                let mut table: HashTable<'_> = HashMap::new();
                let mut key = Vec::with_capacity(step.edges.len());
                for (j, (_, row)) in new_rows.iter().enumerate() {
                    if !fill_key(&mut key, step.edges.iter().map(|&(_, _, nc)| &row[nc])) {
                        continue;
                    }
                    match table.get_mut(key.as_slice()) {
                        Some(js) => js.push(j),
                        None => {
                            table.insert(key.clone(), vec![j]);
                        }
                    }
                }
                for p in partials.chunks_exact(placed) {
                    let probe =
                        step.edges.iter().map(|&(pi, pc, _)| &items[pi].row(p[pos_of[pi]])[pc]);
                    if !fill_key(&mut key, probe) {
                        continue;
                    }
                    for &j in table.get(key.as_slice()).into_iter().flatten() {
                        next.extend_from_slice(p);
                        next.push(j);
                    }
                }
            }
            partials = next;
            placed += 1;
        }
        // Back to item order, emitted lexicographically (the order a
        // nested loop over the items would produce).
        let k = items.len();
        let mut in_items = Vec::with_capacity(partials.len());
        for p in partials.chunks_exact(k) {
            in_items.extend(pos_of.iter().map(|&pos| p[pos]));
        }
        lexicographic(in_items, k, &cards)
    }
}

/// Reorder flat `k`-wide combinations (`cards[i]` rows behind index `i`)
/// into lexicographic order: a least-significant-first radix sort, one
/// stable counting pass per item, skipped when they already are in order.
fn lexicographic(combos: Vec<usize>, k: usize, cards: &[usize]) -> Vec<usize> {
    let n = combos.len() / k;
    let combo = |c: usize| &combos[c * k..(c + 1) * k];
    if (1..n).all(|c| combo(c - 1) <= combo(c)) {
        return combos;
    }
    let mut ids: Vec<usize> = (0..n).collect();
    let mut next = vec![0; n];
    let mut starts = Vec::new();
    for col in (0..k).rev() {
        starts.clear();
        starts.resize(cards[col] + 1, 0);
        for &c in &ids {
            starts[combos[c * k + col] + 1] += 1;
        }
        for r in 1..starts.len() {
            starts[r] += starts[r - 1];
        }
        for &c in &ids {
            let r = combos[c * k + col];
            next[starts[r]] = c;
            starts[r] += 1;
        }
        std::mem::swap(&mut ids, &mut next);
    }
    let mut sorted = Vec::with_capacity(combos.len());
    for c in ids {
        sorted.extend_from_slice(combo(c));
    }
    sorted
}

impl<'a> Executor<'a> for JoinExec<'a> {
    /// Up to `batch_rows` combinations, flat in strides of
    /// [`JoinExec::width`].
    type Batch = Vec<usize>;

    fn name(&self) -> &'static str {
        self.op.unwrap_or("join")
    }

    fn next_batch(&mut self, cx: &mut ExecCx<'a, '_>) -> Result<Option<Self::Batch>, QueryError> {
        if self.state.is_none() {
            let combos = self.open(cx)?;
            self.state = Some(Batches::new(combos, self.batch_rows.saturating_mul(self.width)));
        }
        let batch = self.state.as_mut().expect("opened above").next();
        if let (Some(b), Some(op)) = (&batch, self.op) {
            cx.batch_out(op, b.len() / self.width);
        }
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::lexicographic;

    /// The radix reorder is a comparison sort of the `k`-wide strides.
    #[test]
    fn lexicographic_matches_a_comparison_sort() {
        setrules_testkit::check("join_lexicographic", 200, 0x1e71_c0de, |rng| {
            let k = 1 + rng.below(3);
            let cards: Vec<usize> = (0..k).map(|_| 1 + rng.below(6)).collect();
            let mut combos: Vec<Vec<usize>> = (0..rng.below(40))
                .map(|_| cards.iter().map(|&c| rng.below(c)).collect())
                .collect();
            combos.sort_unstable();
            combos.dedup();
            // Shuffle, then reorder.
            for i in (1..combos.len()).rev() {
                combos.swap(i, rng.below(i + 1));
            }
            let got = lexicographic(combos.concat(), k, &cards);
            combos.sort_unstable();
            assert_eq!(got, combos.concat(), "k={k} cards={cards:?}");
        });
    }
}
