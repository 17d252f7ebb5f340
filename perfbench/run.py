#!/usr/bin/env python3
"""Build and run the GemFI campaign benchmark.

    python3 perfbench/run.py --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]

Run from the root of a checkout. Builds the campaign_bench program from the
checkout's sources with CMake (into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench), then runs it. The program's last stdout line is the
result JSON; build output and diagnostics go to stderr. In traced mode the
per-experiment spans are written to <build dir>/spans-<workload>.jsonl.
"""
import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("dct-pipelined", "jacobi-atomic", "deblock-now")
DEFAULT_SEEDS = {"dct-pipelined": 1401, "jacobi-atomic": 1402, "deblock-now": 1403}
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, help="experiment-list seed (default: per workload)")
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("run.py: no GemFI sources next to the benchmark (expected src/CMakeLists.txt)")
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")

    def step(cmd):
        rc = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            sys.exit(f"run.py: {' '.join(cmd)} failed with code {rc}")

    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        step(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", build, "-j", BUILD_JOBS])

    seed = args.seed if args.seed is not None else DEFAULT_SEEDS[args.workload]
    cmd = [os.path.join(build, "campaign_bench"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(build, f"spans-{args.workload}.jsonl")]
    # Own process group, so a timeout also ends the forked NoW workers.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"run.py: campaign_bench exceeded {RUN_TIMEOUT_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
