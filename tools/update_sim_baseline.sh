#!/bin/sh
# Regenerates tests/data/sim_baseline.json — the simulator golden the
# sim_baseline ctest compares byte for byte: cost units, statements,
# parallel instances, speculative outcomes and output hashes of the
# Figure 6 and Figure 7 runs.  Refreshes are deliberate: run this after an
# intentional change to the interpreter's cost accounting, the machine
# model or a parallelization verdict, review the printed diff, and commit
# the new golden with the change that caused it.
#
# usage: tools/update_sim_baseline.sh [BUILD_DIR]   (default: build)
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build"}
dump="$build/tests/sim_baseline_dump"
baseline="$repo/tests/data/sim_baseline.json"

if [ ! -x "$dump" ]; then
  echo "error: $dump not built (cmake --build $build)" >&2
  exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Scrub every POLARIS_* knob from the environment: a golden generated
# under a caller's stray POLARIS_JOBS / POLARIS_FAULT_INJECT / governor
# ceiling would silently pin that configuration's numbers as "expected".
# (env -u is POSIX and tolerates variables that are not set.)
scrubbed_env="env -u POLARIS_TRACE -u POLARIS_STATS -u POLARIS_FAULT_INJECT \
  -u POLARIS_JOBS -u POLARIS_REMARKS -u POLARIS_REPORT_JSON \
  -u POLARIS_COMPILE_BUDGET_MS -u POLARIS_MAX_POLY_TERMS \
  -u POLARIS_MAX_ATOMS_PER_UNIT -u POLARIS_PASS_BUDGET_MS \
  -u POLARIS_BENCH_JSON"

$scrubbed_env "$dump" > "$tmp/sim_baseline.json"

if [ -f "$baseline" ]; then
  echo "--- diff against the current golden ---"
  # Differences here are *expected* when the refresh is intentional; they
  # are printed for review, not gated on.
  diff "$baseline" "$tmp/sim_baseline.json" || true
  echo "---------------------------------------"
fi

mv "$tmp/sim_baseline.json" "$baseline"
echo "wrote $baseline"
