#!/bin/sh
# Line coverage of the node, client and pool layers (src/fv/*.cc) under the
# whole test suite plus every golden bench driver: the code no test and no
# bench traffic reaches. Advisory, not a CI gate. A simplicity change uses
# it to show that what it deletes never ran; a test change, that its new
# tests reach the lines they claim.
#
# Steps:
#   1. configures <build_dir> as a Debug tree compiled with --coverage and
#      builds everything;
#   2. runs ctest minus bench_identity: at -O0 with coverage the 21-driver
#      sweep takes about 10 minutes, past that test's 640 s timeout;
#   3. runs each driver with a golden under tests/goldens/bench directly
#      (output discarded: the Release bench_identity test checks it);
#   4. prints every line of src/fv/*.cc that gcov reports as never
#      executed, as `file:line: source`, then a per-file count.
#
# Usage: coverage.sh [--no-tests] <build_dir>
#   --no-tests: skip step 2, so the report lists the lines no golden
#               driver reaches: code whose only callers are tests.
#   build_dir: a new directory or an earlier coverage tree (not the Release
#              build/: the coverage flags would rebuild it). Counters left
#              by an earlier run are cleared first.
# Exit: 0 when every test and driver passed, 1 otherwise (the report is
# printed either way).

set -u

run_tests=1
if [ "${1:-}" = "--no-tests" ]; then
  run_tests=0
  shift
fi
build_dir="${1:?usage: coverage.sh [--no-tests] <build_dir>}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"

cmake -S "$repo_root" -B "$build_dir" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage \
  >/dev/null || exit 1
build_dir="$(cd "$build_dir" && pwd)"
# Counters of an earlier run would clash with rebuilt objects, and the test
# discovery the build runs writes counters of its own: clear both.
find "$build_dir" -name '*.gcda' -delete
cmake --build "$build_dir" -j4 >/dev/null || exit 1
find "$build_dir" -name '*.gcda' -delete

fail=0
if [ "$run_tests" = 1 ]; then
  ctest --test-dir "$build_dir" -j4 -E bench_identity --output-on-failure \
    >"$build_dir/coverage-ctest.log" 2>&1 || {
    echo "coverage: ctest failed (see $build_dir/coverage-ctest.log)" >&2
    fail=1
  }
fi
for golden in "$repo_root"/tests/goldens/bench/*.txt; do
  name="$(basename "$golden" .txt)"
  "$build_dir/bench/$name" >/dev/null 2>&1 || {
    echo "coverage: driver $name failed" >&2
    fail=1
  }
done

# gcov prints the .cc file's own listing first, then one listing per header
# it inlines; a template's per-instantiation blocks sit between lines of
# dashes and open with the instantiation's name. Only the .cc listing's
# merged counts are read.
objdir="$build_dir/src/fv/CMakeFiles/fv_core.dir"
for src in "$repo_root"/src/fv/*.cc; do
  name="$(basename "$src")"
  gcov --stdout --object-directory "$objdir/$name.o" "$src" 2>/dev/null |
    awk -v rel="/src/fv/$name" -F: '
      index($0, ":Source:") {
        path = substr($0, index($0, ":Source:") + 8)
        mine = substr(path, length(path) - length(rel) + 1) == rel
        next
      }
      !mine { next }
      /^-+$/ { sep = 1; next }
      sep { sep = 0; inst = $0 ~ /^[^ ].*:$/; if (inst) next }
      inst { next }
      $1 ~ /#####|=====/ {
        text = $0
        sub(/^[^:]*:[^:]*:/, "", text)
        print substr(rel, 2) ":" ($2 + 0) ":" text
        n++
      }
      END { printf "%s: %d never-executed lines\n", substr(rel, 2), n > "/dev/stderr" }'
done
exit "$fail"
