#!/usr/bin/env python3
"""End-to-end perf gate: every BENCHMARK.json workload against its baseline.

    python3 tools/check_perf.py [build-dir]    (default: build)

For each workload W in BENCHMARK.json this runs

    python3 perfbench/run.py --workload W --seed 1 --seconds 5

from the root of the checkout, writes the record (the last line of its
stdout) to <build-dir>/perf_results/W.json, and fails when

  - the run exits non-zero, reports "correct": false, or has failed > 0;
  - any end_to_end metric of BENCHMARK.json is worse than in
    bench/baselines/perf_W.json by more than that metric's bound.

"better" and "bound" are read from BENCHMARK.json on every run. A run
that is correct but out of bounds is repeated, up to RUNS runs in all,
and the workload fails only if every run is out of bounds: one 5 s run
on a shared host reads up to ~30% slow on host times, while a real
regression beyond the bound shows in every run. Seed and seconds are
fixed because perfbench keeps every trial's archive, so peak_rss_mib
grows with run length; a baseline is only comparable with a run of the
same length. docs/PERF.md ("Perf gate") has the loop that refreshes the
baselines.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
SECONDS = 5
RUNS = 3


def regressions(fresh, base, end_to_end):
    """The end-to-end metrics of @fresh worse than @base beyond bound."""
    out = []
    for m in end_to_end:
        name, bound = m["name"], m["bound"]
        if name not in fresh or name not in base:
            out.append("%s missing from the %s" %
                       (name, "run" if name not in fresh else "baseline"))
            continue
        now, was = fresh[name]["value"], base[name]["value"]
        if m["better"] == "higher":
            worse = now < was * (1.0 - bound)
        else:
            worse = now > was * (1.0 + bound)
        if worse:
            out.append("%s %.6g vs baseline %.6g (%s is better, bound %g%%)"
                       % (name, now, was, m["better"], 100.0 * bound))
    return out


def run(w, results):
    """Run @w once; return (record or None, correctness problems, stderr)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", w,
         "--seed", str(SEED), "--seconds", str(SECONDS)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        return None, ["no record (exit %d)" % proc.returncode], proc.stderr
    with open(os.path.join(results, w + ".json"), "w") as f:
        f.write(lines[-1] + "\n")
    record = json.loads(lines[-1])
    problems = []
    if proc.returncode != 0:
        problems.append("exit code %d" % proc.returncode)
    if not record["correct"]:
        problems.append("correct is false")
    if record["failed"] > 0:
        problems.append("%d of %d ops failed"
                        % (record["failed"], record["attempted"]))
    return record, problems, proc.stderr


def main():
    if len(sys.argv) > 2:
        print("usage: check_perf.py [build-dir]", file=sys.stderr)
        return 2
    results = os.path.join(sys.argv[1] if len(sys.argv) > 1 else "build",
                           "perf_results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = bench["end_to_end"]

    ok = True
    for w in (wl["name"] for wl in bench["workloads"]):
        with open(os.path.join(ROOT, "bench", "baselines",
                               "perf_%s.json" % w)) as f:
            base = json.load(f)["metrics"]
        for attempt in range(1, RUNS + 1):
            record, problems, stderr = run(w, results)
            if problems:
                break
            problems = regressions(record["metrics"], base, end_to_end)
            if not problems or attempt == RUNS:
                break
            print("check_perf: %s run %d of %d out of bounds (%s); again"
                  % (w, attempt, RUNS, "; ".join(problems)))
        if problems:
            ok = False
            sys.stderr.write(stderr[-4000:])
            for p in problems:
                print("check_perf: FAIL %s: %s" % (w, p))
            continue
        fresh = record["metrics"]
        print("check_perf: OK %s, run %d (%s)" % (w, attempt, ", ".join(
            "%s %+.1f%%" % (m["name"], 100.0 * (
                fresh[m["name"]]["value"] / base[m["name"]]["value"] - 1.0))
            for m in end_to_end if base[m["name"]]["value"])))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
