#!/usr/bin/env python3
"""Builds and runs the request-level benchmark of the cvb binder.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/e2e/run.py --workload all [--seed N --seconds S --trace 0|1]
    python3 bench/e2e/run.py --selftest

Run from the root of a checkout. The benchmark is compiled from source
into $CARGO_TARGET_DIR/e2e (default .bench_build/e2e) on first use; every
later run only re-checks the build. One workload prints its result as a
JSON object on the last line of standard output; see
bench/e2e/README.md for the workloads and metrics. The exit code is the
benchmark's: 0 when every response was checked correct, 1 otherwise,
2 when it could not be built or run.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["suite_cold_t1", "serve_repeat", "portfolio_race"]
HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, "e2e")


def build(targets):
    """Configures (once) and builds `targets`; build output goes to stderr."""
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_workload(args, workload):
    # Unix socket paths are limited to ~100 bytes, so the serving workload
    # gets a short path relative to the working directory.
    socket_dir = os.path.relpath(os.path.join(build_dir(), "sockets"))
    os.makedirs(socket_dir, exist_ok=True)
    cmd = [os.path.join(build_dir(), "cvb_e2e"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--socket-dir", socket_dir]
    return subprocess.call(cmd)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        if not build(["cvb_e2e_test"]):
            return 2
        return subprocess.call([os.path.join(build_dir(), "cvb_e2e_test")])
    if args.workload is None:
        parser.error("--workload or --selftest is required")
    if not build(["cvb_e2e"]):
        return 2
    if args.workload != "all":
        return run_workload(args, args.workload)
    worst = 0
    for workload in WORKLOADS:
        sys.stdout.flush()
        worst = max(worst, run_workload(args, workload))
    return worst


if __name__ == "__main__":
    sys.exit(main())
