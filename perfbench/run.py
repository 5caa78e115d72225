#!/usr/bin/env python3
"""Build and run the NSFlow repo benchmark.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload wide-pool|traced-narrow|elastic-cluster
                           --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (a standalone CMake project that compiles
the library sources under src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the driver. The driver's last stdout line
is the result JSON; build output goes to stderr. With --trace 1 the
benchmark's own spans are written to <build dir>/spans/. Exits non-zero,
without a result, when the checkout has no sources to build.
"""

import argparse
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("wide-pool", "traced-narrow", "elastic-cluster")
DRIVER_TIMEOUT_S = 170


def build(root: pathlib.Path, build_dir: pathlib.Path) -> pathlib.Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_driver", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            sys.exit("perfbench: build failed: " + " ".join(step))
    return build_dir / "perfbench_driver"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    if not (root / "src" / "serve" / "engine.h").is_file():
        sys.exit("perfbench: no NSFlow sources under " + str(root / "src"))
    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    driver = build(root, build_dir)

    command = [str(driver), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        spans_dir = build_dir / "spans"
        spans_dir.mkdir(exist_ok=True)
        command += ["--spans-out",
                    str(spans_dir / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: driver exceeded %d s" % DRIVER_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
