#!/usr/bin/env python3
"""Benchmark entry point: build the runner from source, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout. The runner is built with CMake into
.bench_build/perfbench (perfbench/CMakeLists.txt builds the simulator's
libraries from src/). A 64 MiB random-read sentinel runs in its own
process before and after the workload, so a slow run can be blamed on the
host. The last line of stdout is the result object described in
perfbench/README.md; every line before it is a table or provenance.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("live-suite", "replay", "serve-cold", "serve-memo", "fuzz-campaign")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; return the runner's path."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    steps = [] if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")) else [configure]
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = -1
            if code != 0:
                log.flush()
                with open(log_path) as done:
                    sys.stderr.write("".join(done.readlines()[-30:]))
                if step is configure:
                    # A failed configure must not leave a cache behind.
                    shutil.rmtree(BUILD, ignore_errors=True)
                fail("build failed (log above)")
    return os.path.join(BUILD, "perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", os.path.join("bench", "harness.hpp")):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, names in os.walk(path) for f in names)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def sentinel(binary):
    out = subprocess.run([binary, "--sentinel"], capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        fail("sentinel failed: " + out.stderr.strip())
    sample = json.loads(out.stdout)
    return {"fill_ms": sample["fill_ms"], "read_ms": sample["read_ms"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="one measured round: checks that every metric prints")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    binary = build()
    work = os.path.join(ROOT, ".bench_build", "perfbench-work", "%s-%d" % (args.workload, os.getpid()))
    traces = os.path.join(ROOT, ".bench_build", "perfbench-traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--out", work,
               "--commit", source_id()]
    if args.trace == "1":
        command += ["--chrome-trace",
                    os.path.join(traces, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    if args.smoke:
        command.append("--smoke")

    before = sentinel(binary)
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    after = sentinel(binary)

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = run.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        valid = False
    if not valid:
        sys.stderr.write(run.stdout)
        fail("runner exited %d without a result line" % run.returncode)
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"host_sentinel": {"start": before, "end": after}}))
    print(lines[-1])


if __name__ == "__main__":
    main()
