#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the simulator library from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only rebuild what changed. Progress goes to stderr. The last line of
stdout is one JSON object:

    {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

With --trace 1 the first traced trial's spans are written to
<build dir>/spans/<workload>.tsv.

The exit code is 0 only when every check passed. A run that dies inside
the simulator (for example in sim::fatal) still prints a record, with
every op it had attempted counted as failed. If the benchmark cannot be
built, nothing is printed to stdout and the exit code is non-zero.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig10_read", "mixed_gc", "mix_openloop", "fleet16")
# The binary gets this long before it is stopped and its run failed.
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    """Configure and build into @out; return the binary path or None."""
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return None
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        # Two runs started together must not build into one tree at once.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", out, "--parallel", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr,
                              stderr=sys.stderr).returncode != 0:
                print("perfbench: build failed: " + " ".join(cmd),
                      file=sys.stderr)
                return None
    binary = os.path.join(out, "perfbench")
    return binary if os.access(binary, os.X_OK) else None


def failed_record(attempted):
    return {"correct": False, "attempted": max(attempted, 1),
            "failed": max(attempted, 1), "metrics": {}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(out, "spans", args.workload + ".tsv")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, _ = proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        proc.returncode = proc.returncode or 1

    attempted = 0
    result = None
    for line in stdout.splitlines():
        if line.startswith("attempting "):
            attempted += int(line.split()[1])
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None or proc.returncode not in (0, 1):
        # The process died before it could report: every op it had
        # attempted counts as failed.
        print("perfbench: %s exited with %s before reporting"
              % (args.workload, proc.returncode), file=sys.stderr)
        result = failed_record(attempted)
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
