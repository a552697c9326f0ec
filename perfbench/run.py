#!/usr/bin/env python3
"""Socket-cluster benchmark for phodis.

Builds perfbench_cluster, phodis_server and phodis_worker from this
checkout's sources (into .bench_build/perfbench), runs one workload for
--seconds, and prints the benchmark's result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run from the repository root:

    python3 perfbench/run.py --workload server_default --seed 1 --seconds 10 --trace 0

--trace 0 times phodis_server and phodis_worker processes end to end,
--trace 1 reports the per-layer metrics of the same plan.
Build output goes to stderr. Exits non-zero, without a result line, when
the sources are missing, the build fails, or the benchmark binary fails;
a run whose outputs differ from the reference prints its result with
"correct": false and exits non-zero.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("server_default", "packet", "fine_chunk")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(command, timeout, **kwargs):
    """subprocess.run in its own process group; on timeout the whole group
    (cmake's make and compiler children too) is killed and reaped."""
    with subprocess.Popen(command, start_new_session=True, **kwargs) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            fail(f"timed out after {timeout} s: {' '.join(command)}")
    return proc.returncode, stdout


def build(root, build_dir):
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"{root} holds no phodis sources to build")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench_cluster",
                  "phodis_server", "phodis_worker", "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        returncode, _ = run(step, 840, stdout=sys.stderr, stderr=sys.stderr)
        if returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build" / "perfbench"
    build(root, build_dir)

    # The binary runs inside the build directory and is given relative
    # paths, so the Unix socket path stays short whatever the checkout's
    # absolute path. The root project builds into its "phodis" subdirectory.
    command = ["./perfbench_cluster", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", "run",
               "--server-bin", "phodis/phodis_server",
               "--worker-bin", "phodis/phodis_worker"]
    returncode, stdout = run(command, args.seconds + 120, cwd=build_dir,
                             stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail(f"benchmark binary exited with {returncode} and no result")
    # An incorrect run still reports its result, but never exits 0.
    print(json.dumps(result))
    if returncode != 0 or not result["correct"]:
        fail("outputs did not match the reference")


if __name__ == "__main__":
    main()
