#!/usr/bin/env bash
# CI gate: build, test, lint, and guard the observability vocabulary.
#
#   ./scripts/ci.sh
#
# The last step extracts every `EngineEvent` variant from
# crates/core/src/events.rs and fails if any is missing from
# tests/observability.rs — adding an event without display/serde test
# coverage is a CI failure.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
# The serial and the partitioned side of the two exchange sites (a
# scan's pushed conjuncts, the WHERE pass) are covered by tests that pin
# their thread budget: the adversarial differential at 1/2/8 threads,
# the grouped and DML differentials at 1/8, and the statement-failure
# and fault-sweep tests with parallelism forced on. Incremental condition
# evaluation must be a pure optimisation: tests/incremental_eval.rs runs
# random programs, the paper's examples, the extension programs and a
# constraint program with it pinned on and pinned off and demands the
# same traces and state images.
cargo test -q

echo "==> fault-injection sweep (bounded: first/middle/last site per kind)"
# The full sweep (every (kind, n) site on the paper workloads) runs as part
# of `cargo test` above; this re-runs it explicitly in the env-bounded mode
# so a CI log names the crash-consistency gate even when tests are filtered.
FAULT_SWEEP_FAST=1 cargo test -q -p setrules-core --test fault_injection

echo "==> WAL crash-recovery sweep (bounded: first/middle/last site per kind)"
# Kill-at-every-WAL-record recovery: the full sweep (every wal_append /
# wal_sync site on the paper workloads, both sync policies, plus torn-tail
# truncation at every byte and the 300-case durable-vs-in-memory
# differential) runs under `cargo test` above; this names the durability
# gate explicitly in the CI log with the env-bounded site selection.
FAULT_SWEEP_FAST=1 cargo test -q -p setrules-core --test wal_recovery

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rulebench (unit tests, then a 1-second run of every workload)"
# rulebench predicts every operation's outcome and every table digest
# from a generator-side model, so this checks the engine against that
# model on each CI run: `all` exits non-zero on any failed operation or
# any digest that differs from rulebench/expected/. It is a package of its
# own (not a workspace member), hence the explicit manifest path.
cargo test -q --manifest-path rulebench/Cargo.toml
cargo run --release --quiet --manifest-path rulebench/Cargo.toml -- all --seconds 1 | tail -n 1

echo "==> semi-join access (Example 3.1 work counters + 300-case differential)"
# Both run under `cargo test` above; this names the gates in the CI log
# next to the other acceptance counters. The counter test pins Example
# 3.1's action at 50 deleted parents in a 100k-row indexed child to
# rows_scanned == rows_matched == 5050 (5000 children + the 50 transition
# rows), full_scans == 0, one subquery evaluation; the differential holds
# `in` / `not in (select ...)` to a test-only linear kernel on every
# index / thread axis.
cargo test -q -p setrules-core --test query_pipeline -- \
  semi_join_example_3_1_work_counters in_subquery_agrees_with_linear_reference_on_every_axis

echo "==> one executor (naive reference differentials + grouped shapes that once fell back + DML reads)"
# All run under `cargo test` above; named here so the CI log shows the
# gates behind the single query executor. The differentials hold random
# joins and filters, error-producing queries, a corpus of grouped
# statements (subqueries in having / projection / order by / the group
# key, outer references inside a grouped subquery, a nested aggregate,
# unknown columns) at 1 and 8 threads, and random `update ... set` and
# `delete ... where` statements (error-producing and `in (select ...)`
# predicates included, at 1 and 8 threads on tables on both sides of the
# exchange's gate) to tests/common/reference.rs -- nested loops, its own
# name resolution and aggregate fold, no planner -- exactly: same rows in
# the same order or the same error text, and the same state image after
# DML. The unit tests run the grouped corpus at batch sizes 1, 2, 3 and 1024 under 1
# and 8 threads against pinned outputs, check that every grouped
# statement reports the partial-aggregate / final-aggregate phases and
# no one-pass `aggregate` operator, and that delete and update report
# the seq-scan and filter operators their identification runs through.
# The plan-drift case runs every explain query at 1 and 8 threads and
# checks that the operators which recorded work are exactly the ones the
# `plan:` line names -- explain prints the plan value the executor runs.
# The self-join case checks that a select's traced tuples get the
# columns of every `from` item they were read through (section 5.1).
# The below-the-gate case runs OLTP-shaped statements (a point update, a
# 300-row department update with a rule firing on it) on an 8-thread
# engine and checks that no phase reaches the exchange's gate.
cargo test -q -p setrules-core --test query_pipeline -- \
  compiled_and_interpreted_agree_on_random_queries \
  compiled_and_interpreted_agree_on_error_producing_queries \
  grouped_statements_match_the_reference \
  update_set_expressions_match_a_naive_update \
  delete_predicates_match_a_naive_delete \
  explain_plan_line_names_the_operators_that_ran
cargo test -q -p setrules-query --lib -- \
  exec::tests::grouped_fallback_shapes_run_two_phase_at_every_batch_size \
  exec::tests::aggregate_op_stats_labels_follow_the_path \
  dml::tests::op_stats_reach_every_read_phase
cargo test -q -p setrules-core --test parallel_exec -- \
  below_the_gate_the_pool_stays_idle
cargo test -q -p setrules-core --test extensions -- \
  selected_columns_follow_the_items_a_tuple_joined_through

echo "==> read and write path allocations (rows and images by reference) + accumulator oracle"
# Both run under `cargo test` above; named here so the CI log shows the
# gates behind the borrowed read pipeline and the shared old images. The
# allocation test counts heap allocations on the calling thread while a
# 1-thread engine runs a filtered count, a grouped aggregate with having
# and a grouped hash join over 20 000 rows, and while the statement
# executor runs a `delete ... where` matching half of them (the one `Arc`
# per deleted tuple that the undo log and the effect share budgeted
# apart): each must stay under 0.1 allocations per input row. On the
# write path, through `RuleSystem::transaction` on the same 20 000 rows:
# an_update_with_a_watching_rule_allocates_less_than_five_per_tuple,
# a_delete_with_two_watching_rules_allocates_less_than_two_per_tuple and
# a_traced_select_allocates_less_than_half_per_matched_row (the section
# 5.1 trace, deduplicated by a sort). Inserted tuples are checked and
# widened in place: storage_insert_allocates_less_than_half_per_row and
# a_parsed_insert_values_allocates_less_than_two_per_row. The oracle folds 300 seeded random
# argument columns (ints near the i64 edges, NaN, +-0.0, +-inf, text,
# booleans, NULL) through the streaming accumulators and through the
# test-only fold_aggregate, every function plain and distinct, and
# demands the same bits or error text.
cargo test -q -p setrules-core --test alloc_per_row
cargo test -q -p setrules-query --lib -- \
  exec::aggregate::tests::accumulators_match_fold_aggregate

echo "==> incremental evaluation (shared memos and join sides vs re-scan, every retrigger semantics)"
# Also run under `cargo test` above; named here so the CI log shows the
# gates behind memos shared per (term template, window start) and join
# sides shared per (side template, window start): rule programs whose
# rules share templates (compared to different literals, over windows of
# different starts, with a shared rebuild that divides by zero) and join
# rules sharing one left side (different right pushdowns and pair
# predicates, one dividing by zero) give the same outcomes, errors, event
# traces and state images with incremental evaluation on and off, under
# all three retrigger semantics.
cargo test -q -p setrules-core --test incremental_eval -- \
  shared_memos_are_invisible_across_retrigger_semantics \
  join_sides_are_shared_and_invisible

echo "==> rule windows (window oracle + exact window-work counters)"
# Both run under `cargo test` above; named here so the CI log shows the
# gates behind the one window state machine (crates/core/src/windows.rs).
# The oracle drives `Windows` with random transitions, acting rules,
# consideration passes and footnote-8 clears under all three retrigger
# semantics, and demands after every step that each window equal the
# Definition-2.1 fold of the transitions since its start and each cached
# trigger verdict equal a fresh `triggered_by`. The counter test pins a
# one-block transaction over N never-triggered rules at exactly 2N
# trigger checks and N window composes; the inert-rule test pins that a
# dropped or deactivated rule keeps no memo alive.
cargo test -q -p setrules-core --lib -- \
  windows::tests::windows_are_the_fold_of_the_transitions_since_their_start
cargo test -q -p setrules-core --test windows -- \
  bystander_rules_cost_two_trigger_checks_and_one_compose_each inert_rules_pin_no_memo

echo "==> §4.4 selection (priority closure property + selection differential)"
# Both run under `cargo test` above; named here so the CI log shows the
# gates behind one-pass selection. The closure property holds the
# bitset closure to a test-only graph search over random add/drop
# sequences on up to 70 rules; the unit differential holds select_rule
# under all four strategies to the materialise-then-pick reference; the
# engine case runs a 64-rule storm with a reverse-creation priority
# chain and checks its exact trace and consideration count, also after
# snapshot/restore and a durable reopen.
cargo test -q -p setrules-core --lib -- \
  priority::tests::closure_matches_dfs_oracle \
  selection::tests::select_rule_matches_reference_on_every_strategy
cargo test -q -p setrules-core --test selection_strategies -- \
  reverse_priority_chain_storm_matches_model

echo "==> analysis soundness (triggering graph and footprints vs execution, one AST visitor)"
# Also run under `cargo test` above; named here so the CI log shows the
# gates behind rule footprints (`Rule::footprint`) and the triggering
# graph built from them. The property runs random two-table programs
# (inserts, deletes, single-column updates, selects, rollbacks) with
# selects tracked under every retrigger semantics and demands that every
# rule that fired was triggered by the external statements or has a graph
# edge from a rule that fired before it, and that every firing which
# inserted, deleted or updated tuples has that kind of event in its
# footprint. The edge tests pin that transition-table and subquery reads
# make no `selected` edge, and that drop-table protection covers a table
# created after the rule. The visitor tests hold `Expr::for_each_child`
# to exactly the children the printer shows, for every variant.
cargo test -q -p setrules-core --test analysis_integration --test engine_api -- \
  analysis_is_sound_against_execution \
  selected_edges_come_only_from_top_level_stored_reads \
  drop_table_protection_covers_tables_created_after_the_rule
cargo test -q -p setrules-sql --lib -- \
  ast::tests::for_each_child_yields_the_children_display_prints \
  ast::tests::subquery_bodies_are_reached_only_through_for_each_expr

echo "==> state image codec (exactness, differential, hostile snapshots, dropped slots)"
# Also run under `cargo test` above; named here so the CI log shows the
# gates behind the one snapshot/checkpoint codec. A snapshot round trip,
# in memory and through JSON, reproduces state_image() and
# handles_issued() byte for byte with NaN, +-inf and -0.0 stored; the
# 300-case durable differential also round-trips a snapshot after every
# statement; hand-edited snapshots (duplicate or zero handles, a low
# high-water mark, ill-typed rows, unknown columns or rules, truncated
# JSON) are typed errors through restore and replay alike, and a
# 200 000-bracket flood is a typed error through restore and a truncated
# corrupt tail through replay, never a stack overflow; a dropped
# table's id slot survives checkpoint and snapshot even when a live table
# is named like a placeholder; a durable restore logs one checkpoint and
# refuses a used log.
cargo test -q -p setrules-core --test snapshot_restore --test wal_recovery -- \
  snapshot_round_trips_through_json \
  durable_and_in_memory_systems_agree_with_reopen_after_every_statement \
  hostile_snapshots_are_typed_errors \
  checkpoint_preserves_dropped_table_id_slots_and_rule_state \
  durable_restore_logs_one_checkpoint_and_refuses_a_used_log

echo "==> acceptance counters (B11-B17 work-counter bars)"
# Also run under `cargo test` above; named here so the CI log shows the
# deterministic work-counter bars behind experiments B11-B17
# (EXPERIMENTS.md; their wall-clock side is rulebench): the planned 3-way
# join visits <= half of the 80 000 combinations a nested loop would and
# a refiring rule reuses its prepared state (B11); an ordered index
# serves a sole item through two scan access paths of the one pipeline --
# the key-order walk elides the sort and stops at the limit when no row
# can fail, the boundary probe hands the aggregate only the rows holding
# each min/max extreme -- a NaN boundary leaves min/max to one scan with
# no lookup counted, and an index never changes which error surfaces
# (B12); partitioned runs match serial ones row
# for row, and over inputs past the gate only predicate phases exchange:
# grouped top-K, a hash join, a sort and a bare fetch stay serial
# (B13, B16); group commit is one append + sync per transaction
# against >= 22 for sync-per-record (B14); storm watchers rebuild once,
# repair on every reconsideration, never fall back, and share composed
# deltas (B15, B17).
cargo test -q -p setrules-core \
  --test query_pipeline --test ordered_index --test parallel_exec \
  --test wal_recovery --test incremental_eval -- \
  golden_explain_three_way_join_order plan_cache_hits_on_repeated_processing_and_clears_on_ddl \
  explicit_abort_restores_ordered_index_contents \
  min_max_on_a_nan_boundary_counts_only_the_path_it_takes \
  an_ordered_index_never_changes_which_error_surfaces \
  parallel_matches_serial_on_adversarial_queries group_by_aggregation_engages_the_pool \
  group_commit_batches_a_transaction_into_one_append_and_sync \
  shared_delta_cursor_fans_out_across_watchers

echo "==> non-test lines per crate (informational)"
./scripts/loc.sh

echo "==> panic sites in non-test source (the count may only fall)"
# `unwrap()` / `expect(` / `panic!` / `unreachable!` lines in non-test
# source, scoped the way scripts/loc.sh scopes it. A change that removes
# sites lowers the pin; one that adds a site turns it into a typed error
# instead, or justifies it as an invariant and removes another.
PANIC_SITES_MAX=151
sites=$(find crates/*/src -name '*.rs' ! -name tests.rs -print0 | sort -z \
  | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile }
      /unwrap\(\)|expect\(|panic!|unreachable!/ { n++ } END { print n + 0 }')
if [ "$sites" -gt "$PANIC_SITES_MAX" ]; then
  echo "error: $sites panic sites in non-test source, more than the pinned $PANIC_SITES_MAX" >&2
  exit 1
fi
echo "    $sites panic sites (at most $PANIC_SITES_MAX)"

echo "==> no address-keyed caches (pointer-to-integer casts in non-test source)"
# A memo keyed by an AST node's address cast to an integer is sound only
# while every holder drops it before the node moves, which nothing
# enforces. Plans are values owned by their execution or their rule, and
# the per-statement subquery memo finds entries by the shared allocation
# it holds. Non-test source: every file under crates/*/src except
# `tests.rs` modules, up to its first top-level #[cfg(test)].
casts=$(find crates/*/src -name '*.rs' ! -name tests.rs -print0 \
  | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } /as \*const .* as usize/ { print FILENAME ":" FNR ": " $0 }')
if [ -n "$casts" ]; then
  echo "$casts" >&2
  echo "error: pointer cast to an integer key in non-test source" >&2
  exit 1
fi
echo "    no pointer-to-integer keys"

echo "==> EngineEvent enum guard"
# Variant names: capitalized identifiers at 4-space indent inside the
# `pub enum EngineEvent { ... }` block.
variants=$(awk '/^pub enum EngineEvent \{/,/^\}/' crates/core/src/events.rs \
  | sed -n 's/^    \([A-Z][A-Za-z0-9]*\).*$/\1/p' | sort -u)
if [ -z "$variants" ]; then
  echo "error: could not extract EngineEvent variants" >&2
  exit 1
fi
missing=0
for v in $variants; do
  if ! grep -q "EngineEvent::$v" tests/observability.rs; then
    echo "error: EngineEvent::$v has no display/serde coverage in tests/observability.rs" >&2
    missing=1
  fi
done
if [ "$missing" -ne 0 ]; then
  echo "add a sample for each new variant to event_samples()" >&2
  exit 1
fi
echo "    all $(echo "$variants" | wc -l) EngineEvent variants covered"

echo "CI OK"
