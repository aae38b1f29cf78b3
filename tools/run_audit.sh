#!/bin/sh
# Audit gate: run the auditor's own suite plus the seeded replay
# harness at full strength against an existing build tree. The replay
# and model drive loops audit every few thousand events through
# Auditor::maybeRun, in every build configuration; a Debug tree adds
# the library's assertions.
# IDA_AUDIT_REPLAY_SEEDS widens the replay sweep far beyond the tier-1
# default of 4 seeds; each seed is a distinct synthetic workload
# (mixed read/write/TRIM, GC pressure, refresh with IDA on and off).
# The gate also runs the model-based differential suite (FtlModel*) so
# its seeded op sequences run with the full audit catalog.
#
# Usage: tools/run_audit.sh [build-dir] [seeds]
#   build-dir: an already configured tree (default build); only the
#              test binary is (re)built, nothing is configured
#   seeds:     a positive integer, default 50
set -eu

BUILD_DIR="${1:-build}"
SEEDS="${2:-50}"

if ! [ "$SEEDS" -gt 0 ] 2> /dev/null; then
    echo "audit: FAIL - seeds expects a positive integer, got '$SEEDS'" >&2
    exit 1
fi

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
    echo "audit: FAIL - $BUILD_DIR is not a configured build tree" \
        "(run cmake -B $BUILD_DIR -S . first)" >&2
    exit 1
fi
cmake --build "$BUILD_DIR" --parallel "$(getconf _NPROCESSORS_ONLN)" \
    --target idaflash_tests

IDA_AUDIT_REPLAY_SEEDS="$SEEDS" "$BUILD_DIR/tests/idaflash_tests" \
    --gtest_filter='Auditor*:AuditReplay*:FtlModel*' \
    --gtest_brief=1

echo "audit: OK ($SEEDS replay seeds clean in $BUILD_DIR)"
