#!/bin/sh
# Validate a chrome-trace export and an attribution export against the
# shapes the trace layer promises (src/trace/chrome_trace.hh and
# trace::writeAttributionJson). Grep-based on purpose: runs anywhere
# the tier-1 gate runs, no jq.
#
# Usage: tools/check_trace_json.sh <trace.json> <attr.json> [--require-savings]
#   --require-savings additionally demands a nonzero sensingOpsSaved in
#   the attribution (the IDA-on proof; leave off for baseline runs).
set -eu

TRACE="${1:?usage: check_trace_json.sh <trace.json> <attr.json> [--require-savings]}"
ATTR="${2:?usage: check_trace_json.sh <trace.json> <attr.json> [--require-savings]}"
REQUIRE_SAVINGS=0
[ "${3:-}" = "--require-savings" ] && REQUIRE_SAVINGS=1

fail() {
    echo "check_trace_json: FAIL - $1" >&2
    exit 1
}

[ -f "$TRACE" ] || fail "trace file missing ($TRACE)"
[ -f "$ATTR" ] || fail "attribution file missing ($ATTR)"

# --- chrome trace shape ---------------------------------------------------

grep -q '"traceEvents"' "$TRACE" || \
    fail "no traceEvents array ($TRACE)"
grep -q '"displayTimeUnit": "ms"' "$TRACE" || \
    fail "missing displayTimeUnit ($TRACE)"
# Lane metadata must name the host lane and at least one die/channel.
grep -q '"thread_name"' "$TRACE" || fail "no thread_name metadata ($TRACE)"
grep -q '"host IOs"' "$TRACE" || fail "no host lane ($TRACE)"
grep -q '"die 0' "$TRACE" || fail "no die lane metadata ($TRACE)"
grep -q '"channel 0"' "$TRACE" || fail "no channel lane metadata ($TRACE)"
grep -q '"ph": "M"' "$TRACE" || fail "no metadata events ($TRACE)"

# Duration events only appear when spans were recorded (a recorder was
# attached); require them when savings are required (a real traced run).
if [ "$REQUIRE_SAVINGS" = 1 ]; then
    grep -q '"ph": "X"' "$TRACE" || \
        fail "no duration events in a traced run ($TRACE)"
    grep -q '"name": "sense"' "$TRACE" || \
        fail "no sense events on the die lanes ($TRACE)"
    grep -q '"name": "xfer"' "$TRACE" || \
        fail "no transfer events on the channel lanes ($TRACE)"
fi

# --- attribution shape ----------------------------------------------------

grep -Eq '"enabled": (true|false)' "$ATTR" || \
    fail "missing enabled flag ($ATTR)"
grep -Eq '"spans": [0-9]+' "$ATTR" || fail "missing span count ($ATTR)"
for phase in queueWait sense retrySense channelWait transfer dieBusy \
             ecc dram; do
    grep -q "\"$phase\"" "$ATTR" || fail "missing phase '$phase' ($ATTR)"
done
grep -Eq '"sensingOpsSaved": [0-9]+' "$ATTR" || \
    fail "missing sensingOpsSaved ($ATTR)"

if [ "$REQUIRE_SAVINGS" = 1 ]; then
    grep -Eq '"sensingOpsSaved": 0[,}]?$' "$ATTR" && \
        fail "sensingOpsSaved is zero but savings were required ($ATTR)"
    grep -q '"enabled": true' "$ATTR" || \
        fail "attribution disabled but savings were required ($ATTR)"
fi

echo "check_trace_json: OK ($TRACE, $ATTR)"
