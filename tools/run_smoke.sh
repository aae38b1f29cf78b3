#!/bin/sh
# Tier-1 smoke gate: configure, build the batch layer, and run one tiny
# experiment matrix through workload::runMatrix at two parallelism
# levels, requiring byte-identical output (the determinism contract of
# src/workload/batch.hh). The fleet layer gets the same treatment one
# level up: two fleet_demo runs must be byte-identical and must report
# pastSchedules == 0 (src/fleet/fleet.hh determinism contract). One
# trace_replay run must print exactly one JSON run record, again with
# pastSchedules == 0. Then run the end-to-end perf gate
# (tools/check_perf.py: every BENCHMARK.json workload through perfbench
# against bench/baselines/perf_*.json), the trace exports and an
# 8-seed audit sweep on the same tree.
#
# Usage: tools/run_smoke.sh [build-dir]   (default: build)
set -eu

BUILD_DIR="${1:-build}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -S "$SRC_DIR"
cmake --build "$BUILD_DIR" --parallel "$(getconf _NPROCESSORS_ONLN)" \
    --target batch_demo fleet_demo trace_demo trace_replay

# Lint first: the scanner gate is seconds, so a violation fails fast
# before the minutes of build/run below. Format gate is diff-only and
# a no-op when clang-format is absent.
"$SRC_DIR/tools/run_lint.sh" "$BUILD_DIR"
"$SRC_DIR/tools/check_format.sh"

OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT

# Separate results dirs so the two runs cannot clobber each other's JSON.
IDA_RESULTS_DIR="$OUT_DIR/j1" "$BUILD_DIR/examples/batch_demo" --jobs 1 \
    > "$OUT_DIR/stdout_j1" 2> /dev/null
IDA_RESULTS_DIR="$OUT_DIR/j2" "$BUILD_DIR/examples/batch_demo" --jobs 2 \
    > "$OUT_DIR/stdout_j2" 2> /dev/null

# Normalize the one path difference we introduced ourselves.
sed "s|$OUT_DIR/j1|RESULTS|" "$OUT_DIR/stdout_j1" > "$OUT_DIR/n1"
sed "s|$OUT_DIR/j2|RESULTS|" "$OUT_DIR/stdout_j2" > "$OUT_DIR/n2"

if ! cmp -s "$OUT_DIR/n1" "$OUT_DIR/n2"; then
    echo "smoke: FAIL - batch_demo output differs between -j1 and -j2" >&2
    diff "$OUT_DIR/n1" "$OUT_DIR/n2" >&2 || true
    exit 1
fi
if ! cmp -s "$OUT_DIR/j1/batch_demo.json" "$OUT_DIR/j2/batch_demo.json"; then
    echo "smoke: FAIL - JSON export differs between -j1 and -j2" >&2
    exit 1
fi

echo "smoke: OK (matrix deterministic across -j1/-j2)"
cat "$OUT_DIR/stdout_j1"

# Fleet determinism: the multi-device loop must emit byte-identical
# archive JSON from run to run, and a run that ever clamped a
# past-time event is a causality bug, not a pass.
"$BUILD_DIR/examples/fleet_demo" > "$OUT_DIR/fleet_run1" 2> /dev/null
"$BUILD_DIR/examples/fleet_demo" > "$OUT_DIR/fleet_run2" 2> /dev/null
if ! cmp -s "$OUT_DIR/fleet_run1" "$OUT_DIR/fleet_run2"; then
    echo "smoke: FAIL - fleet_demo output differs between two runs" >&2
    diff "$OUT_DIR/fleet_run1" "$OUT_DIR/fleet_run2" >&2 || true
    exit 1
fi
# The gauge appears once per fleet and once per member device; every
# occurrence must be zero.
if ! grep -q '"pastSchedules": 0' "$OUT_DIR/fleet_run1" || \
   grep -Eq '"pastSchedules": [1-9]' "$OUT_DIR/fleet_run1"; then
    echo "smoke: FAIL - fleet run clamped past-time events (pastSchedules != 0)" >&2
    grep '"pastSchedules"' "$OUT_DIR/fleet_run1" >&2 || true
    exit 1
fi
echo "smoke: OK (fleet deterministic across two runs, pastSchedules == 0)"

# trace_replay's stdout is the run record and nothing else: one JSON
# object that json.load accepts whole.
"$BUILD_DIR/examples/trace_replay" --workload hm_1 --scale 0.01 \
    > "$OUT_DIR/replay.json"
if ! python3 -c 'import json,sys; r = json.load(open(sys.argv[1])); sys.exit(0 if isinstance(r, dict) and r["pastSchedules"] == 0 else 1)' \
        "$OUT_DIR/replay.json"; then
    echo "smoke: FAIL - trace_replay did not print one JSON record with pastSchedules == 0" >&2
    head -c 2000 "$OUT_DIR/replay.json" >&2
    exit 1
fi
echo "smoke: OK (trace_replay printed one JSON run record, pastSchedules == 0)"

python3 "$SRC_DIR/tools/check_perf.py" "$BUILD_DIR"

# Trace smoke: run the trace demo (it attaches its own recorder) with
# IDA on, and validate both exports — including that the run actually
# saved sensing operations.
"$BUILD_DIR/examples/trace_demo" --ida 1 --requests 500 \
    --trace-out "$OUT_DIR/trace.json" --attr-out "$OUT_DIR/attr.json"
"$SRC_DIR/tools/check_trace_json.sh" \
    "$OUT_DIR/trace.json" "$OUT_DIR/attr.json" --require-savings

# Cross-layer invariant audit on the same tree, smoke scale (8 seeds;
# CI and tools/run_audit.sh default to 50).
"$SRC_DIR/tools/run_audit.sh" "$BUILD_DIR" 8
