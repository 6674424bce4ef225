#!/usr/bin/env bash
# Perf smoke test: run the live hot-path benchmark (bench_hotpath) against
# the checked-in baseline and fail when the geometric-mean KIPS regresses
# by more than 25%. The baseline (scripts/perf_baseline.json) was recorded
# on the CI/reference host; absolute KIPS are host-dependent, so treat a
# failure on unfamiliar hardware as a prompt to investigate (or to re-record
# with `bench_hotpath --write-baseline scripts/perf_baseline.json`), not as
# proof of a regression by itself.
#
#   scripts/perf_smoke.sh [build-dir]    # default build dir: build/
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir="${1:-build}"
bin="$build_dir/bench/bench_hotpath"

if [[ ! -x "$bin" ]]; then
  echo "perf_smoke: $bin not built; building it" >&2
  cmake -B "$build_dir" -S . >/dev/null
  cmake --build "$build_dir" --target bench_hotpath -j "$(nproc 2>/dev/null || echo 2)"
fi

# The run's JSON goes into the build tree, so the gate never rewrites the
# checked-in BENCH_hotpath.json at the repo root.
json="$build_dir/BENCH_hotpath.json"

if [[ ! -f scripts/perf_baseline.json ]]; then
  echo "perf_smoke: scripts/perf_baseline.json missing; recording one now" >&2
  "$bin" --json "$json" --write-baseline scripts/perf_baseline.json
  exit 0
fi

"$bin" --json "$json" \
       --baseline scripts/perf_baseline.json \
       --max-regress 0.25

# Warn (never fail) when the run oversubscribed the host: every
# BENCH_*.json writer embeds an "oversubscribed" flag when the engine
# thread count exceeds hardware_concurrency, and KIPS measured that way
# quantifies scheduler contention, not the simulator.
if grep -q '"oversubscribed": true' "$json"; then
  echo "perf_smoke: WARNING — $json was recorded with more engine" >&2
  echo "perf_smoke: threads than this host's hardware concurrency; its KIPS" >&2
  echo "perf_smoke: numbers are not comparable to the baseline." >&2
fi
