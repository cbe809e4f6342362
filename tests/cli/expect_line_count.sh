#!/usr/bin/env bash
# Runs a command that must succeed and print exactly <count> stdout lines
# matching <pattern> (fixed string). Used by ctest to keep each
# `mrcp-sim --stats` counter label unique, so a script that greps one
# label cannot read another counter.
#
# Usage: expect_line_count.sh <pattern> <count> <command> [args...]
set -uo pipefail

pattern="${1:?usage: $0 <pattern> <count> <command> [args...]}"
count="${2:?usage: $0 <pattern> <count> <command> [args...]}"
shift 2
out=$("$@")
status=$?
if [[ $status -ne 0 ]]; then
  echo "expect-line-count: FAIL: exit status $status: $*" >&2
  exit 1
fi
got=$(grep -cF -- "$pattern" <<<"$out")
if [[ $got -ne $count ]]; then
  echo "expect-line-count: FAIL: $got lines match '$pattern', expected $count: $*" >&2
  echo "$out" >&2
  exit 1
fi
echo "expect-line-count: ok ($got line(s) match '$pattern')"
