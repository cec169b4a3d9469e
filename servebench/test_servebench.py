#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 servebench/test_servebench.py

Smoke-runs every workload at tiny size with the oracle on (untraced and
traced), and checks that the comparison rejects a synthetic worsening of one
metric and accepts identical inputs. Run from the repository root; the smoke
runs build the benchmark first, like run.py does.
"""
import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run_bench(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError("run failed (%d): %s" % (out.returncode, out.stderr[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        result = run_bench(workload, trace)
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        section = "per_layer" if trace else "end_to_end"
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in BENCHMARK[section]))
        for m in BENCHMARK[section]:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return result["metrics"]

    def test_count_mix(self):
        self.check("count_mix", 0)
        layers = self.check("count_mix", 1)
        self.assertGreater(layers["segment.topk_dp_s"]["value"], 0)
        self.assertEqual(layers["topk.rank_resolve_s"]["value"], 0)

    def test_rank_sweep(self):
        self.check("rank_sweep", 0)
        layers = self.check("rank_sweep", 1)
        for name in ("segment.topk_dp_s", "topk.pair_scoring_s", "embed.greedy_s"):
            self.assertEqual(layers[name]["value"], 0, name)
        self.assertGreater(layers["dedup.l1.lower_bound_s"]["value"], 0)

    def test_online_ingest(self):
        self.check("online_ingest", 0)
        layers = self.check("online_ingest", 1)
        self.assertGreater(layers["topk.online.rebuild_s"]["value"], 0)
        self.assertGreater(layers["serve.wal.bytes_per_mention"]["value"], 0)


def synthetic_runs():
    runs = []
    for i in range(10):
        metrics = {}
        for m in BENCHMARK["end_to_end"]:
            metrics[m["name"]] = {"value": 1.0 + 0.001 * i, "unit": m["unit"]}
        runs.append({"correct": True, "attempted": 10, "failed": 0, "metrics": metrics})
    return runs


def write_runs(runs):
    f = tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False)
    with f:
        for r in runs:
            f.write("noise line\n" + json.dumps(r) + "\n")
    return f.name


class CompareTest(unittest.TestCase):
    def run_compare(self, base, new):
        paths = [write_runs(base), write_runs(new)]
        try:
            return compare.main(["compare"] + paths)
        finally:
            for p in paths:
                os.unlink(p)

    def test_identical_inputs_accepted(self):
        runs = synthetic_runs()
        self.assertEqual(self.run_compare(runs, copy.deepcopy(runs)), 0)

    def test_worsened_metric_rejected(self):
        for m in BENCHMARK["end_to_end"]:
            base = synthetic_runs()
            new = copy.deepcopy(base)
            factor = 1 + 2 * m["bound"] if m["better"] == "lower" else 1 - 2 * m["bound"]
            for r in new:
                r["metrics"][m["name"]]["value"] *= factor
            self.assertEqual(self.run_compare(base, new), 1, m["name"])

    def test_improvement_and_small_noise_accepted(self):
        for m in BENCHMARK["end_to_end"]:
            base = synthetic_runs()
            new = copy.deepcopy(base)
            factor = 1 + 0.5 * m["bound"] if m["better"] == "higher" else 1 - 0.5 * m["bound"]
            for r in new:
                r["metrics"][m["name"]]["value"] *= factor
            self.assertEqual(self.run_compare(base, new), 0, m["name"])

    def test_incorrect_run_rejected(self):
        base = synthetic_runs()
        new = copy.deepcopy(base)
        new[3]["correct"] = False
        self.assertEqual(self.run_compare(base, new), 1)

    def run_spread(self, runs):
        path = write_runs(runs)
        try:
            return compare.main(["spread", path])
        finally:
            os.unlink(path)

    def test_spread(self):
        self.assertEqual(self.run_spread(synthetic_runs()), 0)

    def test_wide_spread_rejected(self):
        for m in BENCHMARK["end_to_end"]:
            runs = synthetic_runs()
            for i, r in enumerate(runs):
                r["metrics"][m["name"]]["value"] *= 1 + 0.5 * m["bound"] * i
            self.assertEqual(self.run_spread(runs), 1, m["name"])


if __name__ == "__main__":
    unittest.main()
