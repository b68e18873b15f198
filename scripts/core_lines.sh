#!/usr/bin/env bash
# Prints the non-blank lines outside `#[cfg(test)]` items for each file
# of crates/core/src, then their total: the line count ROADMAP.md and
# EXPERIMENTS.md quote for the core crate. An item under `#[cfg(test)]`
# (a test module, a test-only function or import) is skipped from the
# attribute to the brace that closes its body, or to its `;` if it has
# none.
#
#   scripts/core_lines.sh [REPO_DIR]   # default: this script's repo
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0
for f in crates/core/src/*.rs; do
  n=$(awk '
    !skip && /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
    skip {
      line = $0
      o = gsub(/\{/, "", line)
      c = gsub(/\}/, "", line)
      depth += o - c
      if (o > 0) opened = 1
      if ((opened && depth <= 0) || (!opened && $0 ~ /;[[:space:]]*$/)) skip = 0
      next
    }
    NF > 0 { n++ }
    END { print n + 0 }
  ' "$f")
  printf '%6d %s\n' "$n" "$f"
  total=$((total + n))
done
printf '%6d total\n' "$total"
