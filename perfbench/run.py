#!/usr/bin/env python3
"""Build the benchmark driver against the jigsaw library and run one workload.

    python3 perfbench/run.py --workload synth48 --seed 1 --seconds 30 --trace 0

The driver is configured and built on first use (CMake, Release) in the
directory named by $CARGO_TARGET_DIR, or .bench_build at the repository root
when it is unset; later runs only re-check the build. The WAL and snapshot
files of a run live in a scratch directory under the build directory and are
removed when the run ends. The driver's last stdout line, one JSON object, is
the result; build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("synth48", "cab-defrag", "service-ops")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the jigsaw sources (src/) are not next to perfbench/")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_driver", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    try:
        driver = build(build_dir)
    except subprocess.CalledProcessError as e:
        fail("build failed: " + str(e))

    workdir = os.path.join(build_dir, "runs",
                           "%s-%d" % (args.workload, os.getpid()))
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("driver exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed driver result: " + lines[-1])
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
