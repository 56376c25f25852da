#!/usr/bin/env bash
# Compare two source trees on the rulebench workloads and record the
# result in BENCH_rulebench.json.
#
#   scripts/bench_compare.sh <parent-tree> <change-tree>
#
# Builds rulebench in each tree (`--manifest-path rulebench/Cargo.toml`,
# release), then runs alternating parent/change pairs -- parent first on
# even pairs, change first on odd ones -- 10 pairs of each of the six
# workloads on seeds 1990 and 2718, untraced and at rulebench's own run
# length, and reads the one-line JSON each run prints last. For every
# (workload, seed, end-to-end metric) it records the median and quartiles
# of both sides, the change/parent ratio of the medians, and the number of
# pairs the change won (in the metric's better direction). The rows go
# into BENCH_rulebench.json at the root of this repository under the
# label given by LABEL; rows already there under the same label are
# replaced, all others kept.
#
# Settings (environment):
#   LABEL     row label, e.g. the change's title (default: the change
#             tree's `git describe --always --dirty`, or "change")
#   RAW_DIR   where each run's output is kept (default: a new temp dir)
#   OUT       the JSON file to update (default: BENCH_rulebench.json here)
#
# Needs cargo and python3. Run it on a quiet machine: each run's wall
# clock is the measurement.

set -euo pipefail

if [ $# -ne 2 ]; then
  sed -n '2,/^$/p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
here="$(cd "$(dirname "$0")/.." && pwd)"
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
PAIRS=10
WORKLOADS="oltp_mem oltp_durable bystander_rules refire_storm cascade_bulk analytic_query"
SEEDS="1990 2718"
RAW_DIR="${RAW_DIR:-$(mktemp -d)}"
OUT="${OUT:-$here/BENCH_rulebench.json}"
LABEL="${LABEL:-$(git -C "$change" describe --always --dirty 2>/dev/null || echo change)}"
mkdir -p "$RAW_DIR"

for tree in "$parent" "$change"; do
  echo "==> building rulebench in $tree" >&2
  cargo build --release --quiet --manifest-path "$tree/rulebench/Cargo.toml"
done

run() { # side tree workload seed pair
  local out="$RAW_DIR/$1.$3.$4.$5.txt"
  (cd "$2" && ./rulebench/target/release/rulebench --workload "$3" --seed "$4" \
    --trace 0 >"$out" 2>&1) || true
}

for w in $WORKLOADS; do
  for s in $SEEDS; do
    for ((i = 0; i < PAIRS; i++)); do
      echo "==> $w seed $s pair $((i + 1))/$PAIRS" >&2
      if ((i % 2 == 0)); then
        run parent "$parent" "$w" "$s" "$i"
        run change "$change" "$w" "$s" "$i"
      else
        run change "$change" "$w" "$s" "$i"
        run parent "$parent" "$w" "$s" "$i"
      fi
    done
  done
done

python3 - "$RAW_DIR" "$OUT" "$LABEL" "$PAIRS" "$WORKLOADS" "$SEEDS" <<'PY'
import json, os, statistics, sys

raw, out, label, pairs, workloads, seeds = sys.argv[1:]
pairs = int(pairs)
# The end-to-end metrics of BENCHMARK.json and their better direction.
metrics = {"ops_per_s": "higher", "op_p50_us": "lower", "peak_rss_mb": "lower", "setup_s": "lower"}

def result(side, w, s, i):
    try:
        with open(os.path.join(raw, f"{side}.{w}.{s}.{i}.txt")) as f:
            last = f.read().strip().splitlines()[-1]
        line = json.loads(last)
    except (OSError, IndexError, ValueError):
        return None
    if not line.get("correct") or line.get("failed", 1) != 0:
        return None
    return {m: v["value"] for m, v in line["metrics"].items()}

def summary(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}

rows = []
for w in workloads.split():
    for s in seeds.split():
        runs = [(result("parent", w, s, i), result("change", w, s, i)) for i in range(pairs)]
        good = [(p, c) for p, c in runs if p is not None and c is not None]
        failed = len(runs) - len(good)
        for m, better in metrics.items():
            row = {"label": label, "workload": w, "seed": int(s), "metric": m, "better": better,
                   "pairs": len(good), "failed_pairs": failed}
            if good:
                ps, cs = [p[m] for p, _ in good], [c[m] for _, c in good]
                win = (lambda p, c: c > p) if better == "higher" else (lambda p, c: c < p)
                row["parent"], row["change"] = summary(ps), summary(cs)
                pm = row["parent"]["median"]
                row["ratio"] = round(row["change"]["median"] / pm, 4) if pm else None
                row["wins"] = sum(win(p, c) for p, c in zip(ps, cs))
            rows.append(row)

doc = {"about": "scripts/bench_compare.sh: alternating parent/change rulebench pairs per "
                "(workload, seed); medians and quartiles of each side, change/parent ratio "
                "of the medians, and the pairs the change won in the metric's better direction.",
       "rows": []}
if os.path.exists(out):
    with open(out) as f:
        doc = json.load(f)
doc["rows"] = [r for r in doc["rows"] if r.get("label") != label] + rows
with open(out, "w") as f:
    f.write("{\n  \"about\": " + json.dumps(doc["about"]) + ",\n  \"rows\": [\n")
    f.write(",\n".join("    " + json.dumps(r) for r in doc["rows"]))
    f.write("\n  ]\n}\n")

print(f"| workload | seed | metric | parent median [q1, q3] | change median [q1, q3] | ratio | wins |")
print("|---|---|---|---|---|---|---|")
for r in rows:
    if "ratio" not in r:
        print(f"| {r['workload']} | {r['seed']} | {r['metric']} | no good pairs | | | |")
        continue
    p, c = r["parent"], r["change"]
    print(f"| {r['workload']} | {r['seed']} | {r['metric']} | {p['median']} [{p['q1']}, {p['q3']}] "
          f"| {c['median']} [{c['q1']}, {c['q3']}] | {r['ratio']} | {r['wins']}/{r['pairs']} |")
PY
echo "raw run outputs: $RAW_DIR" >&2
