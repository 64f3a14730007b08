#!/usr/bin/env python3
"""Build the DUST benchmark from source and run one workload.

    python3 perfbench/run.py --workload replan|fleet|fleet_quiet|stream \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
repository's libraries plus the benchmark binary into .bench_build/perfbench
(about a minute on 4 cores); later runs only re-check the build. The
binary's output is passed through: the last stdout line is the JSON result,
and the exit code is 0 only when every output check passed. Traced runs also
write their spans to .bench_build/traces/<workload>-seed<N>.json (Chrome
trace-event format).
"""

import argparse
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("replan", "fleet", "fleet_quiet", "stream")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build():
    """Configure once, then bring the binary up to date; output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no DUST sources under {ROOT / 'src'}; "
                 "run from a full checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "dust_perfbench", "--parallel", BUILD_JOBS],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"run.py: build failed: {error}")

    command = [str(BUILD / "dust_perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
