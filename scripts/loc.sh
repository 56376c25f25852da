#!/usr/bin/env bash
# Non-test line count per crate and in total, the size measure ROADMAP.md
# tracks:
#
#   ./scripts/loc.sh
#
# Counts every crates/*/src/**/*.rs except `tests.rs` modules, each up to
# its first column-0 `#[cfg(test)]` (the in-file unit tests follow it).

set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
  name=$(basename "$crate")
  n=$(find "$crate/src" -name '*.rs' ! -name tests.rs -print0 | sort -z \
    | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }')
  printf '%-12s %6d\n' "$name" "$n"
  total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
