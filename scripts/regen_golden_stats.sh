#!/usr/bin/env bash
# Regenerate the golden-stats snapshot files under tests/golden/.
#
# Run after an INTENTIONAL change to timing, detection, or stat plumbing,
# then review `git diff tests/golden/` — every changed counter should be
# explainable by the change you made — and commit the new files together
# with the code.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
if [[ ! -x "$BUILD_DIR/tests/test_golden_stats" ]]; then
  echo "building test_golden_stats..."
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" --target test_golden_stats -j >/dev/null
fi

HACCRG_REGEN_GOLDEN=1 "$BUILD_DIR/tests/test_golden_stats" \
    --gtest_filter='GoldenStats.Reduce:GoldenStats.Psum:GoldenStats.HashRaceRegDrop:GoldenStats.PsumRaceRegDrop:GoldenStats.HistDetectorFaults'
echo "regenerated:"
git -c color.status=always status --short tests/golden/ || true
