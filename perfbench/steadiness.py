#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/steadiness.py --seeds 401-410 [--second-seeds 501-510]

For every workload (default: those in BENCHMARK.json) and end-to-end metric
this prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json. A spread above a
third of the bound is flagged. With --second-seeds a second set of runs
follows the first, and each metric's second median is compared with the
first: a change in the worse direction beyond the bound is flagged. Run from
the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text):
    """'1-10' or '3,7,11' -> list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n"
                 f"{out.stdout}{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: output check failed\n{out.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_set(workload, seeds, seconds):
    runs = [run_once(workload, seed, seconds) for seed in seeds]
    return {name: [run[name] for run in runs] for name in runs[0]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated; default: all "
                        "workloads in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--second-seeds", help="seeds of a second set")
    parser.add_argument("--json", help="also write the raw values here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    raw = {}
    print("| workload | set | metric | median | q1 | q3 | spread | bound | |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        sets = [args.seeds] + ([args.second_seeds] if args.second_seeds
                               else [])
        medians = []
        for index, seeds in enumerate(sets, 1):
            values = run_set(workload, seeds_from(seeds), seconds)
            raw[f"{workload}/{seeds}"] = values
            medians.append({})
            for metric in metrics:
                name, bound = metric["name"], metric["bound"]
                q1, median, q3 = statistics.quantiles(values[name], n=4)
                medians[-1][name] = median
                spread = (q3 - q1) / median
                flag = "" if spread <= bound / 3 else "above bound/3"
                print(f"| {workload} | {index} | {name} | {median:.6g} | "
                      f"{q1:.6g} | {q3:.6g} | {spread:.1%} | {bound:.0%} | "
                      f"{flag} |", flush=True)
        if len(medians) == 2:
            for metric in metrics:
                name, bound = metric["name"], metric["bound"]
                change = medians[1][name] / medians[0][name] - 1.0
                worse = change if metric["better"] == "lower" else -change
                flag = "worse beyond bound" if worse > bound else ""
                print(f"| {workload} | 2 vs 1 | {name} | {change:+.1%} | | | "
                      f"| {bound:.0%} | {flag} |", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(raw, indent=1) + "\n")


if __name__ == "__main__":
    main()
