#!/usr/bin/env python3
"""Build and run the ulpeak/ulfault end-to-end benchmark.

Run from the root of a source checkout:

    python3 ulbench/run.py --workload suite-cold --seed 1 --seconds 10 --trace 0
    python3 ulbench/run.py --self-test

The benchmark is a CMake package of its own (ulbench/CMakeLists.txt)
that compiles the checkout's src/ tree in Release mode under
.bench_build/ (or $CARGO_TARGET_DIR when set). The last line of standard
output is the result object {"correct", "attempted", "failed",
"metrics"}; see ulbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["suite-cold", "fork-parallel", "scenario-matrix", "fault-campaign"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "ulbench")


def build(target):
    """Configure (once) and build @target; returns its path or exits."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", target, "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("ulbench: build failed (%s)" % " ".join(cmd))
    return os.path.join(bdir, target)


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = out.stdout.split()
        # Only the checkout's own repository, not one that encloses it.
        if (out.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    # Not a git checkout: fingerprint the sources the benchmark builds.
    h = hashlib.sha1()
    for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirnames.sort()
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha1:" + h.hexdigest()


def run(cmd):
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("ulbench: run exceeded %d s" % RUN_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's self-tests")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "peak", "batch.hh")):
        sys.exit("ulbench: no ulpeak sources under %s/src" % ROOT)

    if args.self_test:
        exe = build("ulbench_selftest")
        sys.exit(run([exe, os.path.join(HERE, "digests.txt"),
                      os.path.join(ROOT, "BENCHMARK.json")]))
    if not args.workload:
        ap.error("--workload is required")

    exe = build("ulbench")
    bdir = build_dir()
    scratch = os.path.join(bdir, "scratch-%d" % os.getpid())
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--digests", os.path.join(HERE, "digests.txt"),
           "--scratch", scratch, "--git-commit", git_commit()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            bdir, "trace-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        rc = run(cmd)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
