#!/bin/sh
# Audit gate: build Debug + IDA_AUDIT (the event-kernel hook compiles
# in, so the auditor also fires from the dispatch loop) and run the
# auditor's own suite plus the seeded replay harness at full strength.
# IDA_AUDIT_REPLAY_SEEDS widens the replay sweep far beyond the tier-1
# default of 4 seeds; each seed is a distinct synthetic workload
# (mixed read/write/TRIM, GC pressure, refresh with IDA on and off).
# The gate also runs the model-based differential suite (FtlModel*) so
# its seeded op sequences run with the full audit catalog armed.
#
# Usage: tools/run_audit.sh [build-dir] [seeds]
#   build-dir: default build-audit (kept separate from the release
#              build so the flag flip never forces a full rebuild)
#   seeds:     default 50
set -eu

BUILD_DIR="${1:-build-audit}"
SEEDS="${2:-50}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -S "$SRC_DIR" \
    -DCMAKE_BUILD_TYPE=Debug -DIDA_AUDIT=ON
cmake --build "$BUILD_DIR" --parallel "$(getconf _NPROCESSORS_ONLN)" \
    --target idaflash_tests

IDA_AUDIT_REPLAY_SEEDS="$SEEDS" "$BUILD_DIR/tests/idaflash_tests" \
    --gtest_filter='Auditor*:AuditReplay*:FtlModel*' \
    --gtest_brief=1

echo "audit: OK ($SEEDS replay seeds clean under IDA_AUDIT)"
