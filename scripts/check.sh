#!/usr/bin/env bash
# Pre-merge gate: the tier-1 build plus two stricter builds — one that
# promotes warnings to errors and runs the whole test suite under
# AddressSanitizer + UndefinedBehaviorSanitizer, and one that runs it
# under ThreadSanitizer with the parallel engine forced on
# (HACCRG_THREADS > 1) so data races in the simulator itself are caught
# pre-merge, not just determinism violations.
#
#   scripts/check.sh            # all three builds + ctest runs
#   scripts/check.sh --tier1    # only the tier-1 build + test run
#   scripts/check.sh --strict   # only the -Werror + ASan/UBSan build
#   scripts/check.sh --tsan     # only the ThreadSanitizer build
#
# Build trees: build/ (tier-1), build-strict/ and build-tsan/ (gates).
# All are incremental — safe to re-run.
set -euo pipefail

cd "$(dirname "$0")/.."

run_tier1=1
run_strict=1
run_tsan=1
if [[ "${1:-}" == "--tier1" ]]; then
  run_strict=0
  run_tsan=0
elif [[ "${1:-}" == "--strict" ]]; then
  run_tier1=0
  run_tsan=0
elif [[ "${1:-}" == "--tsan" ]]; then
  run_tier1=0
  run_strict=0
fi

jobs=$(nproc 2>/dev/null || echo 2)

# Trace-equivalence gate: record a racy kernel (REDUCE with its barrier
# removed) and a race-free one (PSUM), replay each trace through the
# detectors, and require the replayed race set to equal the live run's.
# `haccrg-trace diff` exits 1 on a mismatch, which fails the gate.
trace_equivalence() {
  local cli="$1/src/trace/haccrg-trace"
  local tmp
  tmp=$(mktemp -d)
  "$cli" record --kernel REDUCE --inject barrier:0 \
    --out "$tmp/reduce.trc" --races "$tmp/reduce.live.txt" >/dev/null
  "$cli" record --kernel PSUM \
    --out "$tmp/psum.trc" --races "$tmp/psum.live.txt" >/dev/null
  for k in reduce psum; do
    "$cli" replay "$tmp/$k.trc" --races "$tmp/$k.replay.txt" >/dev/null
    "$cli" diff "$tmp/$k.trc" "$tmp/$k.live.txt"
    "$cli" diff "$tmp/$k.replay.txt" "$tmp/$k.live.txt"
  done
  rm -rf "$tmp"
}

# Static-soundness gate: every registry kernel plus the 41-case
# injection suite — no provably-safe access may appear in a dynamic
# race set, and every hardware-visible witness must reproduce under
# trace replay. haccrg-analyze exits 1 on any violation.
static_soundness() {
  "$1/src/analysis/haccrg-analyze" soundness --seeds "${2:-1}"
}

# Static-precision gate: the loop-aware dependence tests must never
# lose a PR-1 proof (monotone) and must strictly reduce instrumented
# sites AND cycles on every kernel they improve. Writes BENCH_static.json
# into a scratch dir — the checked-in copy is regenerated explicitly.
static_precision() {
  local tmp
  tmp=$(mktemp -d)
  "$1/bench/bench_static" --json "$tmp/BENCH_static.json" >/dev/null
  rm -rf "$tmp"
}

# Fault-campaign smoke: one low-rate pass per fault site over a sample
# of the injection campaign. bench_resilience exits non-zero if a
# zero-rate FaultPlan perturbs the baseline, if any point misses a race
# without reporting coverage_lost, or if coverage drops below the floor.
fault_smoke() {
  local tmp
  tmp=$(mktemp -d)
  "$1/bench/bench_resilience" --smoke --min-coverage 0.5 \
    --json "$tmp/BENCH_resilience_smoke.json" >/dev/null
  rm -rf "$tmp"
}

# Fuzz smoke: a fixed-seed campaign of generated kernels through every
# detector (soundness vs the ground-truth oracle, differential
# agreement, determinism at HACCRG_THREADS 1/2/8, trace replay, sampled
# fault feeds). haccrg-fuzz exits 1 on any violation and prints the
# auto-shrunk repro. The per-build budget is fixed so merges pay a
# known cost; the nightly CI job runs the extended campaign.
fuzz_smoke() {
  "$1/src/fuzz/haccrg-fuzz" run --seed 1 --count "$2" --progress 50 | tail -n 3
}

# CLI exit-code contracts: run the damaged-input suites for the
# haccrg-trace and haccrg-analyze CLIs against this build explicitly.
# ctest already covers them, but sanitizer builds are where an abort
# hides behind a documented exit code — keep them visible as a named
# gate rather than two lines in a 300-test run.
cli_contracts() {
  local tmp
  tmp=$(mktemp -d)
  bash tests/test_trace_cli.sh "$1/src/trace/haccrg-trace" "$tmp/trace_cli"
  bash tests/test_analyze_cli.sh "$1/src/analysis/haccrg-analyze" "$tmp/analyze_cli"
  rm -rf "$tmp"
}

# Serving smoke: a haccrg-served round trip on a golden recorded trace
# (in-process `once` plus the socket/stdio transports via the CLI
# contract suite) and bench_serving --smoke, which fails on its own if
# served reports diverge from the live race sets, if overload is never
# rejected, or if a drained job loses its result.
serving_smoke() {
  local tmp
  tmp=$(mktemp -d)
  bash tests/test_serve_cli.sh "$1/src/serve/haccrg-served" \
    "$1/src/trace/haccrg-trace" "$tmp/serve_cli"
  "$1/src/trace/haccrg-trace" record --kernel REDUCE --inject barrier:0 \
    --index --out "$tmp/golden.trc" >/dev/null
  "$1/src/serve/haccrg-served" once --trace "$tmp/golden.trc" --workers 8 \
    > "$tmp/report.json"
  grep -q '"unique_races"' "$tmp/report.json"
  "$1/bench/bench_serving" --smoke --json "$tmp/BENCH_serving_smoke.json" >/dev/null
  rm -rf "$tmp"
}

# Chaos smoke: bench_chaos --smoke runs the serving fault campaign —
# zero-rate identity across worker counts, bounded deadline overrun,
# quarantine, timed drain, and seeded storms through all five serve_*
# fault sites — and exits non-zero if any terminal-state, no-loss, or
# stats-reconciliation invariant breaks.
chaos_smoke() {
  local tmp
  tmp=$(mktemp -d)
  "$1/bench/bench_chaos" --smoke --json "$tmp/BENCH_chaos_smoke.json" >/dev/null
  rm -rf "$tmp"
}

if [[ $run_tier1 == 1 ]]; then
  echo "=== tier-1 build (build/) ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs"
  # --schedule-random shuffles test order to flush hidden inter-test
  # state; until-pass:1 keeps it strict (a failure is a failure, no
  # retry masking).
  ctest --test-dir build --output-on-failure -j "$jobs" \
    --schedule-random --repeat until-pass:1
  # Perf smoke is warn-only: absolute KIPS depend on the host, and a loaded
  # or slower machine must not fail the correctness gate. Investigate any
  # warning before merging; re-record the baseline on the reference host
  # with `bench_hotpath --write-baseline scripts/perf_baseline.json`.
  echo "--- perf smoke (warn-only, >25% geomean KIPS regression) ---"
  if ! scripts/perf_smoke.sh build; then
    echo "WARNING: perf smoke reported a hot-path regression (non-fatal here)."
  fi
  echo "--- static-soundness gate (tier-1 build) ---"
  static_soundness build 1
  echo "--- static-precision gate (tier-1 build) ---"
  static_precision build
  echo "--- fuzz smoke (tier-1 build, 200 kernels) ---"
  fuzz_smoke build 200
  echo "--- serving smoke (tier-1 build) ---"
  serving_smoke build
  # The benchmark's own test (about 3 minutes): builds perfbench's runner
  # from src/ into the git-ignored .bench_build/ and runs every workload
  # once, failing on a broken build, a missing metric or a failed
  # correctness check.
  echo "--- perfbench smoke test ---"
  python3 perfbench/smoke_test.py
  # Tidy is warn-only: findings are cleanup candidates, not gate failures
  # (and the reference toolchain may lack clang-tidy entirely).
  echo "--- clang-tidy (warn-only) ---"
  if ! scripts/tidy.sh build; then
    echo "WARNING: clang-tidy reported findings (non-fatal here)."
  fi
fi

if [[ $run_strict == 1 ]]; then
  echo "=== strict build (-Werror + ASan/UBSan, build-strict/) ==="
  cmake -B build-strict -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-Werror -fsanitize=address,undefined -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" >/dev/null
  cmake --build build-strict -j "$jobs"
  ctest --test-dir build-strict --output-on-failure -j "$jobs" \
    --schedule-random --repeat until-pass:1
  echo "--- trace equivalence (strict build) ---"
  trace_equivalence build-strict
  echo "--- CLI exit-code contracts (strict build) ---"
  cli_contracts build-strict
  echo "--- fault-campaign smoke (strict build) ---"
  fault_smoke build-strict
  echo "--- fuzz smoke (strict build, 40 kernels) ---"
  fuzz_smoke build-strict 40
  echo "--- serving smoke (strict build) ---"
  serving_smoke build-strict
  echo "--- chaos smoke (strict build) ---"
  chaos_smoke build-strict
  echo "--- static-soundness gate (strict build, 3 seeds) ---"
  static_soundness build-strict 3
fi

if [[ $run_tsan == 1 ]]; then
  echo "=== ThreadSanitizer build (HACCRG_THREADS=2, build-tsan/) ==="
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
  cmake --build build-tsan -j "$jobs"
  # Force every Gpu constructed without an explicit SimConfig onto the
  # parallel engine so TSan sees the worker pool on the whole suite.
  # halt_on_error: a simulator data race is a gate failure, not a warning.
  HACCRG_THREADS=2 TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
    --schedule-random --repeat until-pass:1
  echo "--- trace equivalence (TSan build, HACCRG_THREADS=2) ---"
  HACCRG_THREADS=2 TSAN_OPTIONS="halt_on_error=1" trace_equivalence build-tsan
  echo "--- fault-campaign smoke (TSan build, HACCRG_THREADS=2) ---"
  HACCRG_THREADS=2 TSAN_OPTIONS="halt_on_error=1" fault_smoke build-tsan
  echo "--- fuzz smoke (TSan build, 20 kernels) ---"
  TSAN_OPTIONS="halt_on_error=1" fuzz_smoke build-tsan 20
  echo "--- serving smoke (TSan build) ---"
  TSAN_OPTIONS="halt_on_error=1" serving_smoke build-tsan
  echo "--- chaos smoke (TSan build) ---"
  TSAN_OPTIONS="halt_on_error=1" chaos_smoke build-tsan
  echo "--- static-soundness gate (TSan build, HACCRG_THREADS=2) ---"
  HACCRG_THREADS=2 TSAN_OPTIONS="halt_on_error=1" static_soundness build-tsan 1
  # Second thread count: 4 workers split the parallel SM and partition
  # phases differently than 2, so the determinism suites get a distinct
  # interleaving schedule under TSan without re-running everything.
  echo "--- targeted determinism suites (TSan build, HACCRG_THREADS=4) ---"
  HACCRG_THREADS=4 TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
    -R 'Determinism' --schedule-random --repeat until-pass:1
fi

echo "=== all checks passed ==="
