#!/bin/sh
# Project lint gate.
#
#  1. Build tools/lint/ida_lint (the hermetic, compiler-only analyzer)
#     and run it over the tree: any finding fails the gate.
#  2. Rule-coverage self-check: every rule id the binary registers
#     (--list-rule-ids) must be produced by at least one bad_* fixture
#     under tests/lint_fixtures — a new rule without a fixture fails
#     the gate instead of silently never being exercised. Each bad_*
#     fixture must still produce a non-zero exit, and the fully-
#     suppressed fixtures must scan clean.
#  3. clang-tidy (curated .clang-tidy profile, warnings-as-errors)
#     against build/compile_commands.json, file by file so a failure
#     is never swallowed. The default container has no clang tools, so
#     without a binary this degrades to a notice — unless
#     IDA_REQUIRE_CLANG_TIDY=1 (the dedicated CI leg), which makes a
#     missing binary a failure.
#
# Usage: tools/run_lint.sh [build-dir]   (default: build)
set -eu

BUILD_DIR="${1:-build}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"
FIXTURES="$SRC_DIR/tests/lint_fixtures"

cmake -B "$BUILD_DIR" -S "$SRC_DIR" > /dev/null
cmake --build "$BUILD_DIR" --parallel "$(getconf _NPROCESSORS_ONLN)" \
    --target ida_lint > /dev/null
LINT="$BUILD_DIR/tools/lint/ida_lint"

echo "lint: scanning tree"
"$LINT" --root "$SRC_DIR"

echo "lint: self-checking rule pack against fixtures"
FIRED_IDS="$BUILD_DIR/lint_fired_ids.txt"
: > "$FIRED_IDS"
for f in "$FIXTURES"/src/*/bad_*.cc "$FIXTURES"/src/*/bad_*.hh \
         "$FIXTURES"/tools/bad_*.cc; do
    [ -e "$f" ] || continue
    OUT="$("$LINT" --root "$FIXTURES" "$f" 2>/dev/null || true)"
    if [ -z "$OUT" ]; then
        echo "lint: FAIL - fixture produced no findings: $f" >&2
        echo "lint: a rule has silently stopped firing" >&2
        exit 1
    fi
    printf '%s\n' "$OUT" |
        sed -n 's/.*: \(IDA[0-9][0-9][0-9]\): .*/\1/p' >> "$FIRED_IDS"
done

echo "lint: rule-coverage self-check (every rule has a bad_* fixture)"
MISSING=0
for id in $("$LINT" --list-rule-ids); do
    if ! grep -q "^$id\$" "$FIRED_IDS"; then
        echo "lint: FAIL - rule $id has no bad_* fixture firing it" >&2
        MISSING=1
    fi
done
[ "$MISSING" -eq 0 ] || exit 1

if ! "$LINT" --root "$FIXTURES" \
        "$FIXTURES/src/sim/suppressed_ok.cc" > /dev/null; then
    echo "lint: FAIL - suppressions no longer silence findings" >&2
    exit 1
fi
if ! "$LINT" --root "$FIXTURES" \
        "$FIXTURES/src/ssd/suppressed_graph_ok.cc" > /dev/null; then
    echo "lint: FAIL - graph-rule suppressions no longer work" >&2
    exit 1
fi

if command -v clang-tidy > /dev/null 2>&1; then
    echo "lint: running clang-tidy (profile: .clang-tidy," \
         "warnings-as-errors)"
    if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
        echo "lint: FAIL - $BUILD_DIR/compile_commands.json missing" >&2
        exit 1
    fi
    # File-by-file in the main shell (no xargs, no pipeline subshell):
    # a diagnostic in ANY file must fail the gate, not be swallowed.
    TIDY_RC=0
    for f in $(find "$SRC_DIR/src" -name '*.cc' | sort); do
        if ! clang-tidy -p "$BUILD_DIR" --quiet \
                --warnings-as-errors='*' "$f"; then
            echo "lint: clang-tidy failed on $f" >&2
            TIDY_RC=1
        fi
    done
    [ "$TIDY_RC" -eq 0 ] || exit 1
elif [ "${IDA_REQUIRE_CLANG_TIDY:-0}" = "1" ]; then
    echo "lint: FAIL - IDA_REQUIRE_CLANG_TIDY=1 but clang-tidy is" \
         "not installed" >&2
    exit 1
else
    echo "lint: clang-tidy not installed; skipping (ida-lint is the" \
         "portable gate)"
fi

echo "lint: OK"
