#!/usr/bin/env bash
# clang-tidy driver for the MRCP-RM tree. The custom lint rules live in
# tools/mrcp_lint (docs/static_analysis.md), built with the tree:
#
#   ./build/tools/mrcp_lint/mrcp-lint --dir src --dir tools --dir tests \
#       --dir bench --dir examples
#
#   scripts/lint.sh          # clang-tidy if installed, else skip
#   scripts/lint.sh --tidy   # require clang-tidy (fail when missing)
#
# clang-tidy needs a compile database; the script configures one into
# build-tidy/ on first use.
set -euo pipefail
cd "$(dirname "$0")/.."

TIDY_MODE=auto
case "${1:-}" in
  --tidy) TIDY_MODE=require ;;
  "") ;;
  *) echo "usage: $0 [--tidy]" >&2; exit 2 ;;
esac

fail=0

# clang-tidy (configuration in .clang-tidy).
if ! command -v clang-tidy >/dev/null 2>&1; then
  if [[ $TIDY_MODE == require ]]; then
    echo "lint: clang-tidy not found (required by --tidy)" >&2
    exit 1
  fi
  echo "lint: clang-tidy not installed; skipping static analysis"
  exit 0
fi

if [[ ! -f build-tidy/compile_commands.json ]]; then
  cmake -B build-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
        -DMRCP_BUILD_BENCH=OFF -DMRCP_BUILD_EXAMPLES=OFF >/dev/null
fi

mapfile -t files < <(find src tools -name '*.cpp' | sort)
if command -v run-clang-tidy >/dev/null 2>&1; then
  run-clang-tidy -p build-tidy -quiet "${files[@]}" || fail=1
else
  for f in "${files[@]}"; do
    clang-tidy -p build-tidy --quiet "$f" || fail=1
  done
fi

if [[ $fail -eq 0 ]]; then
  echo "lint: OK"
else
  echo "lint: FAILED" >&2
fi
exit $fail
