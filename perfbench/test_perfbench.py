#!/usr/bin/env python3
"""The benchmark's own test. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

For every workload, at a small size, it checks that:
  - the host loop reproduces the library runner's archive byte for byte;
  - a repeat with the same seeds gives identical simulated metrics,
    sensing_saved_frac and per-layer counts;
  - another workload seed changes every one of the simulated metrics and
    the counts, and another device seed changes the simulated metrics;
  - the metrics printed are exactly those BENCHMARK.json names, with its
    units.
It also checks that run.py fails without printing a result when the
simulator's sources are missing. Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

SCALE = "0.1"
# Host-time metrics: they differ between runs by nature.
TIMED_UNITS = ("ns", "s", "ms", "1/s", "MiB")
TIMED_NAMES = ("workload.share", "trace.overhead_ratio", "bench.host_speed")


def fail(msg):
    print("FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def bench(binary, workload, seed, trace, *extra):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--scale", SCALE]
    p = subprocess.run(cmd + list(extra), capture_output=True, text=True)
    if p.returncode != 0:
        fail("%s exited %d:\n%s" % (" ".join(cmd), p.returncode,
                                    p.stderr[-2000:]))
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        fail("%s reported a failed check" % " ".join(cmd))
    return result["metrics"]


def fixed(metrics):
    """The metrics that must repeat exactly for a fixed seed."""
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] not in TIMED_UNITS and k not in TIMED_NAMES}


def check_names(metrics, spec, what):
    got = {k: v["unit"] for k, v in metrics.items()}
    want = {m["name"]: m["unit"] for m in spec}
    if got != want:
        fail("%s metrics differ from BENCHMARK.json: %s" % (
            what, sorted(set(got.items()) ^ set(want.items()))))


def check_workload(binary, spec, workload):
    dev = ("--device-seed", "5")
    e2e = bench(binary, workload, 11, 0, "--compare-runner", "1", *dev)
    check_names(e2e, spec["end_to_end"], workload + " end-to-end")
    layers = bench(binary, workload, 11, 1, *dev)
    check_names(layers, spec["per_layer"], workload + " per-layer")
    if fixed(bench(binary, workload, 11, 0, *dev)) != fixed(e2e):
        fail(workload + ": same seed, different simulated metrics")
    if fixed(bench(binary, workload, 11, 1, *dev)) != fixed(layers):
        fail(workload + ": same seed, different layer counts")
    # Another workload seed on the same device changes every simulated
    # metric and the layer counts.
    other = fixed(bench(binary, workload, 12, 0, *dev))
    for name, value in fixed(e2e).items():
        if other[name] == value:
            fail("%s: %s did not change with the workload seed"
                 % (workload, name))
    if fixed(bench(binary, workload, 12, 1, *dev)) == fixed(layers):
        fail(workload + ": layer counts did not change with the seed")
    # Another device seed under the same requests changes the device's
    # draws, and with them the simulated metrics.
    if fixed(bench(binary, workload, 11, 0, "--device-seed", "6")) == \
            fixed(e2e):
        fail(workload + ": the device seed changed nothing")
    print("ok  %s" % workload)


def check_no_sources():
    """Without src/, run.py must fail and print no result."""
    tmp = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_build"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fleet16",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
            env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
        if p.returncode == 0 or p.stdout.strip():
            fail("run.py without sources: exit %d, stdout %r"
                 % (p.returncode, p.stdout[:200]))
    finally:
        shutil.rmtree(tmp)
    print("ok  no sources -> no result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if tuple(names) != run.WORKLOADS:
        fail("workloads differ: %s vs %s" % (names, run.WORKLOADS))
    binary = run.build(run.build_dir())
    if binary is None:
        fail("build failed")
    for w in names:
        check_workload(binary, spec, w)
    check_no_sources()
    print("perfbench: all checks passed")


if __name__ == "__main__":
    main()
