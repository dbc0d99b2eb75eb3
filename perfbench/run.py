#!/usr/bin/env python3
"""Builds the benchmark from this source tree and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds a Release
tree under $CARGO_TARGET_DIR (default .bench_build) in the checkout; later
runs rebuild incrementally. The benchmark's output is passed through; its last
line is the result object. Exits non-zero, without printing a result, if
the build fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read_hot", "churn_sharded", "offline_anti", "wire_mixed")
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, log_path):
    with open(log_path, "w") as log:
        return subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)


def build(out):
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    if not os.path.exists(os.path.join(out, "Makefile")):
        if run_logged(["cmake", "-S", HERE, "-B", out,
                       "-DCMAKE_BUILD_TYPE=Release"], log) != 0:
            return None, log
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", out, "--target", "perfbench_run",
                   "-j", jobs], log) != 0:
        return None, log
    return os.path.join(out, "perfbench_run"), log


def commit():
    """HEAD of the checkout when it is a git work tree of its own."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) != \
                os.path.realpath(ROOT):
            return "unknown"
        return git("rev-parse", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """sha256 over the library sources, top-level build file and benchmark."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        if not os.path.isfile(path):
            continue
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    binary, log = build(out)
    if binary is None:
        sys.stderr.write("perfbench: build failed; see %s\n" % log)
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-20:]))
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(out, "results"),
           "--commit", commit(), "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write("perfbench: benchmark timed out after %ds\n" % e.timeout)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        sys.stderr.write("perfbench: benchmark printed no result object\n")
        return proc.returncode or 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
