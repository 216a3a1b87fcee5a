#!/usr/bin/env python3
"""Builds the Smart-Iceberg benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload skyband --seed 1 --seconds 20 --trace 0

Workloads: skyband, pairs, served_read, served_write (see
perfbench/README.md). The library and the benchmark are compiled into
.bench_build/perfbench (RelWithDebInfo) on the first run; later runs only
rebuild what changed. Build output goes to stderr. The benchmark's report
goes to stdout, and its last line is the JSON result. The exit status is 0
only when the build succeeded and every output check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def configure():
    cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD, "Makefile")):
        cmd += ["-G", "Ninja"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found at %s" % os.path.join(ROOT, "src"))
        return False
    if not configure():
        # A cache written for another checkout path cannot be reused.
        log("configure failed; retrying in a clean build directory")
        shutil.rmtree(BUILD, ignore_errors=True)
        if not configure():
            return False
    jobs = str(len(os.sched_getaffinity(0)))
    result = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                            stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["skyband", "pairs", "served_read", "served_write"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        log("build failed")
        return 1
    test = subprocess.run([os.path.join(BUILD, "perfbench_helpers_test")],
                          stdout=sys.stderr, stderr=sys.stderr)
    if test.returncode != 0:
        log("helper tests failed")
        return 1

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--revision", revision()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    # A run must end within 180 s; kill a hung benchmark.
    watchdog = threading.Timer(170, proc.kill)
    watchdog.start()
    lines = []
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            lines.append(line)
        proc.wait()
    finally:
        watchdog.cancel()
    if proc.returncode != 0:
        log("benchmark exited with status %d" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
        ok = set(result) == RESULT_KEYS
    except (IndexError, ValueError):
        ok = False
    if not ok:
        log("benchmark printed no result line")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
