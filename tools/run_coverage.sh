#!/bin/sh
# Coverage gate: build with gcov instrumentation, run the full
# unit-test binary (its trace tests attach recorders, so the
# span-stamping paths are part of the measured surface), and aggregate
# line coverage over the flash, cache and trace sources. Fails when the aggregate drops below
# the recorded floor in tools/coverage_baseline.txt — raise the floor
# when coverage genuinely improves, never lower it to make a regression
# pass.
#
# Usage: tools/run_coverage.sh [build-dir]   (default: build-coverage)
# Output: <build-dir>/coverage_report.txt (per-file + aggregate)
set -eu

BUILD_DIR="${1:-build-coverage}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"
BASELINE_FILE="$SRC_DIR/tools/coverage_baseline.txt"

command -v gcov >/dev/null 2>&1 || {
    echo "run_coverage: FAIL - gcov not found" >&2
    exit 1
}

cmake -B "$BUILD_DIR" -S "$SRC_DIR" \
    -DCMAKE_BUILD_TYPE=Debug -DIDA_COVERAGE=ON
cmake --build "$BUILD_DIR" --parallel "$(getconf _NPROCESSORS_ONLN)" \
    --target idaflash_tests

# Fresh counters: stale .gcda from a previous run would inflate numbers.
find "$BUILD_DIR" -name '*.gcda' -delete

"$BUILD_DIR/tests/idaflash_tests" --gtest_brief=1

REPORT="$BUILD_DIR/coverage_report.txt"
OBJ_ROOT="$BUILD_DIR/src/CMakeFiles/idaflash.dir"

# One gcov pass per flash/cache/trace translation unit; keep
# each TU's own .cc entry (headers repeat across TUs and would
# double-count).
{
    echo "# line coverage of src/flash + src/cache + src/trace (gcov, Debug -O0)"
    find "$OBJ_ROOT/flash" "$OBJ_ROOT/cache" "$OBJ_ROOT/trace" \
         -name '*.gcno' | sort |
    while read -r gcno; do
        gcov -n "$gcno" 2>/dev/null
    done | awk '
        /^File / {
            file = $2
            gsub(/\x27/, "", file)
        }
        /^Lines executed:/ {
            if (file ~ /src\/(flash|cache|trace)\/[^\/]+\.cc$/) {
                pct = $0
                sub(/^Lines executed:/, "", pct)
                sub(/%.*/, "", pct)
                n = $0
                sub(/.* of /, "", n)
                sub(/src\/(flash|cache|trace)\//, "&", file)
                printf "%-40s %6.2f%% of %d\n", file, pct, n
                covered += pct * n
                total += n
            }
            file = ""
        }
        END {
            if (total == 0) {
                print "no coverage data found" > "/dev/stderr"
                exit 1
            }
            printf "TOTAL %.2f\n", covered / total
        }
    '
} > "$REPORT"

cat "$REPORT"
TOTAL="$(awk '/^TOTAL /{print $2}' "$REPORT")"
[ -n "$TOTAL" ] || { echo "run_coverage: FAIL - no total" >&2; exit 1; }

BASELINE="$(cat "$BASELINE_FILE")"
PASS="$(awk -v t="$TOTAL" -v b="$BASELINE" 'BEGIN{print (t >= b) ? 1 : 0}')"
if [ "$PASS" != 1 ]; then
    echo "run_coverage: FAIL - flash+cache+trace line coverage $TOTAL% is" \
         "below the recorded floor $BASELINE%" >&2
    exit 1
fi
echo "run_coverage: OK ($TOTAL% >= floor $BASELINE%)"
