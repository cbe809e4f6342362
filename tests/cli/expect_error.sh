#!/usr/bin/env bash
# Runs a command that must reject its input: it must exit with status 1
# and print a line matching <pattern> (extended regex) on stderr. Used by
# ctest to check that mrcp-sim names the offending flag instead of
# crashing, hanging or silently wrapping a negative value.
#
# Usage: expect_error.sh <pattern> <command> [args...]
set -uo pipefail

pattern="${1:?usage: $0 <pattern> <command> [args...]}"
shift
err=$("$@" 2>&1 >/dev/null)
status=$?
if [[ $status -ne 1 ]]; then
  echo "expect-error: FAIL: exit status $status, expected 1: $*" >&2
  echo "$err" >&2
  exit 1
fi
if ! grep -qE -- "$pattern" <<<"$err"; then
  echo "expect-error: FAIL: stderr does not match '$pattern': $*" >&2
  echo "$err" >&2
  exit 1
fi
echo "expect-error: ok ($err)"
