#!/bin/sh
# Regenerate the trace-layer golden files (tests/golden/*.json) from the
# current source, then verify the regenerated goldens pass. Run this
# after an intentional change to the instrumentation stamps, the phase
# decomposition, the JSON writer, or anything that moves simulated
# event timing — and commit the resulting diff together with the change
# (see docs/TESTING.md, "Golden tests").
#
# Usage: tools/update_trace_golden.sh [build-dir]   (default: build)
set -eu

BUILD_DIR="${1:-build}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -S "$SRC_DIR"
cmake --build "$BUILD_DIR" --parallel "$(getconf _NPROCESSORS_ONLN)" \
    --target idaflash_tests

IDA_UPDATE_GOLDEN=1 "$BUILD_DIR/tests/idaflash_tests" \
    --gtest_filter='TraceGolden*' --gtest_brief=1
IDA_UPDATE_GOLDEN= "$BUILD_DIR/tests/idaflash_tests" \
    --gtest_filter='TraceGolden*' --gtest_brief=1

echo "update_trace_golden: OK (goldens rewritten in tests/golden/)"
