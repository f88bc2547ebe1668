#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload wire_gallery --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to .bench_build/perfbench
(or $CARGO_TARGET_DIR/perfbench); the run's scratch state and span files
go to .bench_build/runs. The last line of standard output is the result
JSON. Exit codes: 0 every operation verified, 1 an operation failed to
verify, 2 build, set-up or usage error, 3 timeout.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700  # a first run builds; build + run stay under 900 s
WORKLOADS = ("wire_gallery", "wire_large", "native_gallery")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def build(build_dir):
    for needed in ("src/CMakeLists.txt", "examples/fusion_server.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench",
                  "fusion_server"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(step)} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step)} exited {done.returncode}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    broot = build_root()
    build_dir = os.path.join(broot, "perfbench")
    build(build_dir)

    workdir = os.path.join(broot, "runs")
    tmpdir = os.path.join(workdir, "tmp")
    os.makedirs(tmpdir, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmpdir  # the C compiler's temporaries stay in the checkout
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    # Own process group, so a timeout takes the server and sandbox children
    # down with the benchmark.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
