#!/usr/bin/env python3
"""Spread and regression checks over servebench results.

Each RESULTS file holds servebench output for one workload, one run per
line; only the JSON result lines (those starting with '{') are read, so raw
stdout of several runs can be concatenated into one file.

    python3 servebench/compare.py spread RESULTS
        Median and quartile spread of every metric; the spread of every
        end-to-end metric must stay within its bound.

    python3 servebench/compare.py compare BASE NEW
        Accepts NEW when every run is correct and no end-to-end metric's
        median is worse than BASE's by more than the metric's bound.

Bounds come from BENCHMARK.json at the repository root (override with
--benchmark). Exits 0 when the check passes, 1 when it fails.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_results(path):
    results = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("{"):
                results.append(json.loads(line))
    if not results:
        raise SystemExit("%s: no result lines" % path)
    return results


def values(results, name):
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def spread(vals):
    """Interquartile distance as a share of the median."""
    median = statistics.median(vals)
    if len(vals) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / abs(median)


def worsening(base, new, better):
    """How much worse NEW's median is than BASE's, as a share of BASE's."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def check_spread(results, metrics):
    ok = all(r["correct"] for r in results)
    if not ok:
        print("FAIL: a run reported correct=false")
    for m in metrics:
        vals = values(results, m["name"])
        if len(vals) != len(results):
            print("FAIL: %s missing from some runs" % m["name"])
            ok = False
            continue
        s = spread(vals)
        verdict = "ok"
        if s > m["bound"]:
            verdict, ok = "FAIL", False
        print("%-18s median=%-12.6g spread=%6.3f bound=%.3f %s"
              % (m["name"], statistics.median(vals), s, m["bound"], verdict))
    return ok


def check_compare(base, new, metrics):
    ok = all(r["correct"] for r in new)
    if not ok:
        print("FAIL: a run of NEW reported correct=false")
    for m in metrics:
        b, n = values(base, m["name"]), values(new, m["name"])
        if not b or not n:
            print("FAIL: %s missing" % m["name"])
            ok = False
            continue
        w = worsening(statistics.median(b), statistics.median(n), m["better"])
        verdict = "ok"
        if w > m["bound"]:
            verdict, ok = "FAIL", False
        print("%-18s base=%-12.6g new=%-12.6g worse_by=%+.3f bound=%.3f %s"
              % (m["name"], statistics.median(b), statistics.median(n), w,
                 m["bound"], verdict))
    return ok


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    sub = parser.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("results")
    cp = sub.add_parser("compare")
    cp.add_argument("base")
    cp.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    if args.cmd == "spread":
        ok = check_spread(load_results(args.results), metrics)
    else:
        ok = check_compare(load_results(args.base), load_results(args.new), metrics)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
