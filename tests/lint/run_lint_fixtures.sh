#!/usr/bin/env bash
# Self-test of the custom lint layer: every mrcp-lint rule must flag its
# fixture an exact number of times, and the clean fixture must flag
# nothing. A rule that silently stops matching (regex drift, refactored
# lexer) or starts over-matching fails this test, which runs as a ctest.
#
# Usage: run_lint_fixtures.sh <path-to-mrcp-lint-binary>
set -uo pipefail
cd "$(dirname "$0")"

MRCP_LINT="${1:?usage: $0 <mrcp-lint binary>}"
fail=0

note() { echo "lint-fixtures: $*"; }
die() {
  echo "lint-fixtures: FAIL: $*" >&2
  fail=1
}

expect_rule() {
  local rule="$1" file="$2" expected="$3"
  local got
  got=$("$MRCP_LINT" "$file" 2>/dev/null | grep -c "\[$rule\]")
  if [[ "$got" -eq "$expected" ]]; then
    note "mrcp-lint rule '$rule' fires ${got}x on $(basename "$file")"
  else
    die "mrcp-lint rule '$rule': expected $expected finding(s) on $(basename "$file"), got $got"
  fi
}

expect_rule unordered-iteration fixture_unordered_iteration.cc 2
expect_rule rng-construction fixture_rng_construction.cc 3
expect_rule no-std-rand fixture_no_std_rand.cc 3
expect_rule no-naked-new fixture_no_naked_new.cc 3
expect_rule no-raw-clock fixture_no_raw_clock.cc 4

# Path-scoped rules: their fixtures are staged under src/-shaped paths.
stage=$(mktemp -d)
trap 'rm -rf "$stage"' EXIT
mkdir -p "$stage/src/core" "$stage/src/common/io"
cp fixture_raw_time_literal.cc "$stage/src/core/"
expect_rule raw-time-literal "$stage/src/core/fixture_raw_time_literal.cc" 2

# raw-file-io: fires under a generic src/ path, silent in the sanctioned
# homes (src/common/io/ here; src/sim/trace_export.* is the other).
cp fixture_raw_file_io.cc "$stage/src/core/"
cp fixture_raw_file_io.cc "$stage/src/common/io/"
expect_rule raw-file-io "$stage/src/core/fixture_raw_file_io.cc" 3
expect_rule raw-file-io "$stage/src/common/io/fixture_raw_file_io.cc" 0

# rng-construction inside RandomStream's home flags only unseeded engines.
cp fixture_rng_home_unseeded.cc "$stage/src/common/rng.cc"
expect_rule rng-construction "$stage/src/common/rng.cc" 3

# Clean fixture: zero findings from any rule.
if "$MRCP_LINT" fixture_clean.cc >/dev/null 2>&1; then
  note "mrcp-lint clean fixture passes with 0 findings"
else
  die "mrcp-lint reports findings on fixture_clean.cc"
fi

# A --dir sweep skips the *.cc fixtures: a directory holding nothing else
# has no input files (exit 2), never findings (exit 1).
"$MRCP_LINT" --dir . >/dev/null 2>&1
status=$?
if [[ $status -eq 2 ]]; then
  note "mrcp-lint --dir sweep skips the fixtures"
else
  die "mrcp-lint --dir . over the fixtures exited $status, expected 2"
fi

# JSON output stays machine-readable: a finding run must emit valid-ish
# JSON with the rule name in it.
json=$("$MRCP_LINT" --json fixture_rng_construction.cc 2>/dev/null)
case "$json" in
  \[*rng-construction*\]*) note "mrcp-lint --json emits findings" ;;
  *) die "mrcp-lint --json output malformed: $json" ;;
esac

if [[ $fail -eq 0 ]]; then
  echo "lint-fixtures: all rules fire; clean fixture clean — OK"
else
  exit 1
fi
