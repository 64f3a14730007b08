#!/usr/bin/env python3
"""Diff two dust-bench-v1 JSON reports and fail on timing regressions.

Usage:
    bench_compare.py <baseline.json> <candidate.json> [--threshold 0.10]
    bench_compare.py --self-test

Every record whose metric name contains "ms_per_cycle" or "failover" with
an "_ms" suffix is treated as a lower-is-better timing; a candidate more
than --threshold (default 10%) slower than the baseline on the same
(metric, config) key fails the compare (exit 1). Records that declare an absolute budget in their config string
("budget=5" — the obs overhead gate, instrumented and scrape-path) fail the
compare when the candidate value meets or exceeds the budget, regardless of
how the baseline did. A record whose metric ends in "_pivots" (the cold
solve's simplex pivot count) repeats exactly from run to run, so it fails
the compare as soon as it rises above the baseline, with zero tolerance.
"samples_per_sec" (the data-plane loopback throughput) is higher-is-better:
a candidate more than --threshold below the baseline fails. Other metrics
are reported informationally.

Rates that are higher-is-neutral telemetry (delegation_rate,
delegated_share, cache_hit_rate, ...) are reported informationally and never
fail the compare — a fleet that delegates more is not slower, just shaped
differently.

Scale safety: reports carry a top-level "topology" object and per-record
nodes=/edges= config fields. A compare across different topology sizes is
refused outright (exit 2) — a k=16 baseline says nothing about a k=32 run.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        report = json.load(f)
    if report.get("schema") != "dust-bench-v1":
        raise SystemExit(f"{path}: not a dust-bench-v1 report")
    return report


def record_key(record):
    return (record.get("metric", ""), record.get("config", ""))


def is_timing(metric):
    """Lower-is-better wall/sim-clock metrics the compare gates on.

    "ms_per_cycle" covers the steady-state benches; "failover...*_ms"
    covers the federation takeover timings (failover_detect_ms,
    failover_ms), which must not quietly drift past the silence timeout
    they are supposed to track.
    """
    return "ms_per_cycle" in metric or (
        "failover" in metric and metric.endswith("_ms"))


def is_throughput(metric):
    """Higher-is-better rates the compare gates on."""
    return metric == "samples_per_sec"


def is_pivot_count(metric):
    """Deterministic pivot counts: any rise above the baseline fails."""
    return metric.endswith("_pivots")


def declared_budget(record):
    """The record's self-declared absolute ceiling, or None.

    A config field "budget=5" means "this value must stay under 5 in
    whatever units the record uses" — the bench binary enforces it at run
    time, and the compare re-enforces it on committed baselines so a stale
    JSON can't hide a blown budget.
    """
    for field in record.get("config", "").split(","):
        if field.startswith("budget="):
            try:
                return float(field[len("budget="):])
            except ValueError:
                return None
    return None


def compare(baseline, candidate, threshold):
    """Return (failures, lines): regressions and a human-readable log."""
    base_topo = baseline.get("topology")
    cand_topo = candidate.get("topology")
    if base_topo != cand_topo:
        raise SystemExit(
            f"refusing cross-scale compare: baseline topology {base_topo} "
            f"!= candidate {cand_topo} (exit 2)"
        )

    base = {record_key(r): r for r in baseline.get("records", [])}
    failures = []
    lines = []
    for record in candidate.get("records", []):
        key = record_key(record)
        budget = declared_budget(record)
        if budget is not None and record["value"] >= budget:
            failures.append(
                f"{key[0]} [{key[1]}]: {record['value']:g} blows its "
                f"declared budget of {budget:g}"
            )
            lines.append(
                f"  BUDGET   {key[0]} [{key[1]}]: "
                f"{record['value']:g} >= {budget:g}"
            )
            continue
        if key not in base:
            lines.append(f"  new      {key[0]} [{key[1]}]")
            continue
        old = base[key]["value"]
        new = record["value"]
        if is_pivot_count(key[0]):
            verdict = "ok"
            if new > old:
                verdict = "ROSE"
                failures.append(
                    f"{key[0]} [{key[1]}]: {old:g} -> {new:g} pivots "
                    f"(a deterministic count may not rise)"
                )
            lines.append(f"  {verdict:8s} {key[0]} [{key[1]}]: {old:g} -> {new:g}")
            continue
        if is_throughput(key[0]):
            verdict = "ok"
            if old > 0 and new < old * (1.0 - threshold):
                verdict = "SLOWER"
                failures.append(
                    f"{key[0]} [{key[1]}]: {old:g} -> {new:g} "
                    f"({(new / old - 1.0) * 100:.1f}% < -{threshold * 100:.0f}%)"
                )
            lines.append(f"  {verdict:8s} {key[0]} [{key[1]}]: {old:g} -> {new:g}")
            continue
        if not is_timing(key[0]):
            lines.append(f"  info     {key[0]} [{key[1]}]: {old:g} -> {new:g}")
            continue
        if old <= 0:
            lines.append(f"  skip     {key[0]} [{key[1]}]: baseline {old:g}")
            continue
        ratio = new / old
        verdict = "ok"
        if ratio > 1.0 + threshold:
            verdict = "REGRESSED"
            failures.append(
                f"{key[0]} [{key[1]}]: {old:g} ms -> {new:g} ms "
                f"(+{(ratio - 1.0) * 100:.1f}% > {threshold * 100:.0f}%)"
            )
        lines.append(
            f"  {verdict:8s} {key[0]} [{key[1]}]: "
            f"{old:g} -> {new:g} ms ({(ratio - 1.0) * 100:+.1f}%)"
        )
    return failures, lines


def self_test():
    topo = {"nodes": 320, "edges": 2048}
    base = {
        "schema": "dust-bench-v1",
        "topology": topo,
        "records": [
            {"metric": "steady_ms_per_cycle", "config": "a", "value": 10.0},
            {"metric": "cache_hit_rate", "config": "a", "value": 0.5},
        ],
    }
    ok = dict(base)
    ok["records"] = [
        {"metric": "steady_ms_per_cycle", "config": "a", "value": 10.5},
        {"metric": "cache_hit_rate", "config": "a", "value": 0.4},
    ]
    failures, _ = compare(base, ok, 0.10)
    assert not failures, f"5% slowdown must pass a 10% threshold: {failures}"

    bad = dict(base)
    bad["records"] = [
        {"metric": "steady_ms_per_cycle", "config": "a", "value": 11.5}
    ]
    failures, _ = compare(base, bad, 0.10)
    assert failures, "15% slowdown must fail a 10% threshold"

    cross = dict(base)
    cross["topology"] = {"nodes": 1280, "edges": 16384}
    try:
        compare(base, cross, 0.10)
    except SystemExit:
        pass
    else:
        raise AssertionError("cross-scale compare must be refused")

    fed_base = dict(base)
    fed_base["records"] = [
        {"metric": "failover_ms", "config": "standby=1", "value": 5000.0},
        {"metric": "delegation_rate", "config": "standby=1", "value": 1.0},
    ]
    fed_ok = dict(fed_base)
    fed_ok["records"] = [
        {"metric": "failover_ms", "config": "standby=1", "value": 5200.0},
        {"metric": "delegation_rate", "config": "standby=1", "value": 0.2},
    ]
    failures, _ = compare(fed_base, fed_ok, 0.10)
    assert not failures, (
        f"4% failover slowdown + any delegation-rate change must pass: "
        f"{failures}")
    fed_bad = dict(fed_base)
    fed_bad["records"] = [
        {"metric": "failover_ms", "config": "standby=1", "value": 6000.0},
    ]
    failures, _ = compare(fed_base, fed_bad, 0.10)
    assert failures, "20% failover slowdown must fail a 10% threshold"

    budgeted = dict(base)
    budgeted["records"] = [
        {"metric": "overhead", "config": "budget=5,path=scrape", "value": 4.2},
    ]
    failures, _ = compare(base, budgeted, 0.10)
    assert not failures, f"4.2 must pass a declared budget of 5: {failures}"
    blown = dict(base)
    blown["records"] = [
        {"metric": "overhead", "config": "budget=5,path=scrape", "value": 5.4},
    ]
    failures, _ = compare(base, blown, 0.10)
    assert failures, "5.4 must fail a declared budget of 5"

    pivots = dict(base)
    pivots["records"] = [
        {"metric": "cold_pivots", "config": "k=32", "value": 40.0},
    ]
    same = dict(base)
    same["records"] = [
        {"metric": "cold_pivots", "config": "k=32", "value": 40.0},
    ]
    failures, _ = compare(pivots, same, 0.10)
    assert not failures, f"an unchanged pivot count must pass: {failures}"
    fewer = dict(base)
    fewer["records"] = [
        {"metric": "cold_pivots", "config": "k=32", "value": 33.0},
    ]
    failures, _ = compare(pivots, fewer, 0.10)
    assert not failures, f"fewer pivots must pass: {failures}"
    one_more = dict(base)
    one_more["records"] = [
        {"metric": "cold_pivots", "config": "k=32", "value": 41.0},
    ]
    failures, _ = compare(pivots, one_more, 0.10)
    assert failures, "one pivot more must fail, whatever the threshold"
    rate = dict(base)
    rate["records"] = [
        {"metric": "samples_per_sec", "config": "mode=full", "value": 2.0e6},
        {"metric": "payload_bytes_per_sec", "config": "mode=full",
         "value": 1.0e7},
    ]
    faster = dict(base)
    faster["records"] = [
        {"metric": "samples_per_sec", "config": "mode=full", "value": 9.0e6},
        {"metric": "payload_bytes_per_sec", "config": "mode=full",
         "value": 1.0e6},
    ]
    failures, _ = compare(rate, faster, 0.10)
    assert not failures, (
        f"a higher sample rate and any byte-rate change must pass: {failures}")
    slight = dict(base)
    slight["records"] = [
        {"metric": "samples_per_sec", "config": "mode=full", "value": 1.85e6},
    ]
    failures, _ = compare(rate, slight, 0.10)
    assert not failures, f"a 7.5% lower sample rate must pass 10%: {failures}"
    slower = dict(base)
    slower["records"] = [
        {"metric": "samples_per_sec", "config": "mode=full", "value": 1.7e6},
    ]
    failures, _ = compare(rate, slower, 0.10)
    assert failures, "a 15% lower sample rate must fail a 10% threshold"
    print("bench_compare self-test: PASS")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("candidate", nargs="?")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max allowed relative slowdown or rate drop "
                             "(default 0.10)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in assertions and exit")
    args = parser.parse_args()

    if args.self_test:
        self_test()
        return 0
    if not args.baseline or not args.candidate:
        parser.error("baseline and candidate files are required")

    baseline = load(args.baseline)
    candidate = load(args.candidate)
    failures, lines = compare(baseline, candidate, args.threshold)

    print(f"bench_compare: {args.baseline} vs {args.candidate} "
          f"(threshold {args.threshold * 100:.0f}%)")
    for line in lines:
        print(line)
    if failures:
        print(f"\nFAIL: {len(failures)} regression(s)")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nPASS: no timing regression beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
