#!/usr/bin/env python3
"""Builds and runs the Auto-CFD repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload aerofoil-report --seed 1 \
        --seconds 20 --trace 0

`--workload all` runs the three workloads (aerofoil-report,
sprayer-run, compile-sweep) one after another, each in its own process.
`--trace 1` runs the traced variant, which reports the per-layer
metrics and writes its spans to <build dir>/spans/.

The benchmark is a C++ program (perfbench/src) built on the
repository's libraries with CMake, in Release, into $CARGO_TARGET_DIR
when that is set and .bench_build otherwise. Build output goes to
stderr; the benchmark's table and its final JSON line go to stdout.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["aerofoil-report", "sprayer-run", "compile-sweep"]


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                       check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for name in workloads:
        cmd = [binary, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--root", root,
               "--spans-out",
               os.path.join(spans_dir, f"{name}-seed{args.seed}.json")]
        sys.stdout.flush()
        code = subprocess.run(cmd).returncode
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
