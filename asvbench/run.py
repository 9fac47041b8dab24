#!/usr/bin/env python3
"""Build and run one workload of the ASV system benchmark.

    python3 asvbench/run.py --workload asv_camera --seed 1 --seconds 40 --trace 0

Run from the repository root. The first call configures and builds
asv_sysbench (the library from src/ plus the files in this directory)
under $CARGO_TARGET_DIR/asvbench, default .bench_build/asvbench; later
calls rebuild only what changed. Build output goes to stderr, so the
last line of stdout is the JSON result that asv_sysbench prints. With
--trace 1 the Chrome trace is written next to the binary as
trace_<workload>.json.

Exit code: asv_sysbench's (0 only when every output check passed), or
non-zero without a result when the build fails or the run exceeds its
time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("asv_camera", "sgm_camera", "serve_fleet")
DEFAULT_SEED = 1  # README.md, "Seeds", names the held-out seed
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure once, then build asv_sysbench (a no-op when current)."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "asv_sysbench", "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "asv_sysbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"), "asvbench")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_dir, f"trace_{args.workload}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
