#!/usr/bin/env python3
"""The benchmark's own test: a short --smoke run of every workload.

    python3 perfbench/smoke_test.py

Runs each workload untraced and traced (one measured round each) and
checks every result line: every correctness check passed, and the metrics
are exactly those BENCHMARK.json names for that mode (end_to_end
untraced, per_layer traced), each with its unit and a finite value.
Exits 0 when all of that holds, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"]
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if run.returncode != 0:
        return ["exit code %d" % run.returncode]
    result = json.loads(run.stdout.strip().split("\n")[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("checks failed: %s of %s" % (result.get("failed"), result.get("attempted")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted %r" % result.get("attempted"))
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    for name in sorted(set(expected) - set(metrics)):
        problems.append("metric missing: " + name)
    for name, metric in metrics.items():
        if name not in expected:
            problems.append("metric not in BENCHMARK.json: " + name)
        elif metric.get("unit") != expected[name]:
            problems.append("%s: unit %r, expected %r" % (name, metric.get("unit"), expected[name]))
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: value %r" % (name, value))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            print("%s %s --trace %d" % ("FAIL" if problems else "ok  ", workload, trace))
            for problem in problems:
                print("    " + problem)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
