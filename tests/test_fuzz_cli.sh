#!/usr/bin/env bash
# Exit-code contract test for the haccrg-fuzz CLI.
#
#   0 clean              2 usage error
#   1 campaign violation 3 I/O or internal failure
#
# Every failure must be a clean diagnosed exit — no aborts, no uncaught
# throws (exit codes >= 128 would betray a signal), and a non-empty
# stderr diagnosis on every usage and I/O path. A harness error (a bad
# --scratch directory) must never be reported as a violation: it exits 3
# before any case runs, with no FAIL line.
set -u

BIN=$1
WORK=${2:-$(mktemp -d)}
# The test runs from inside $WORK, so a relative binary path (as
# scripts/check.sh passes) must be anchored to the caller's cwd first.
case "$BIN" in /*) ;; *) BIN="$PWD/$BIN" ;; esac
mkdir -p "$WORK"
cd "$WORK" || exit 99

fails=0

expect_exit() {
  local want=$1
  shift
  "$@" >cli_stdout.txt 2>cli_stderr.txt
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: expected exit $want, got $got: $*"
    sed 's/^/  stderr: /' cli_stderr.txt
    fails=$((fails + 1))
    return
  fi
  if [ "$want" -ge 2 ] && [ ! -s cli_stderr.txt ]; then
    echo "FAIL: exit $want with empty stderr: $*"
    fails=$((fails + 1))
  fi
  if [ "$want" -eq 3 ] && grep -q '^FAIL' cli_stdout.txt; then
    echo "FAIL: I/O error reported as a violation: $*"
    fails=$((fails + 1))
  fi
}

rm -rf scratch specs empty not_a_dir
mkdir -p scratch specs empty
: > not_a_dir

# --- Clean runs (0) ----------------------------------------------------------
expect_exit 0 "$BIN" generate --seed 1 --count 2 --out specs
expect_exit 0 "$BIN" run --seed 1 --count 2 --scratch scratch
expect_exit 0 "$BIN" corpus --dir specs --scratch scratch
expect_exit 0 "$BIN" disasm --spec specs/fuzz-1.spec

# --- Usage errors (2) --------------------------------------------------------
expect_exit 2 "$BIN"
expect_exit 2 "$BIN" frobnicate
expect_exit 2 "$BIN" run --bogus-flag
expect_exit 2 "$BIN" run --seed notanumber
expect_exit 2 "$BIN" run --count 0
expect_exit 2 "$BIN" run --scratch
expect_exit 2 "$BIN" shrink
expect_exit 2 "$BIN" corpus
expect_exit 2 "$BIN" shrink --spec specs/fuzz-1.spec --class no-such-class

# --- I/O errors (3) ----------------------------------------------------------
expect_exit 3 "$BIN" run --seed 1 --count 2 --scratch /nonexistent
expect_exit 3 "$BIN" run --seed 1 --count 2 --scratch not_a_dir
expect_exit 3 "$BIN" corpus --dir specs --scratch /nonexistent
expect_exit 3 "$BIN" shrink --spec specs/fuzz-1.spec --scratch /nonexistent
expect_exit 3 "$BIN" corpus --dir /nonexistent
expect_exit 3 "$BIN" corpus --dir empty
expect_exit 3 "$BIN" shrink --spec /nonexistent.spec
expect_exit 3 "$BIN" disasm --spec /nonexistent.spec
expect_exit 3 "$BIN" generate --seed 1 --out /nonexistent

if [ "$fails" -ne 0 ]; then
  echo "$fails check(s) failed"
  exit 1
fi
echo "all exit-code checks passed"
exit 0
