#!/usr/bin/env python3
"""Self-test of the benchmark runner: statistics on fixed vectors, the
compare verdicts, trace self-time accounting, and BENCHMARK.json /
layers.json validity.

    python3 bench/suite/test_run.py
"""

import json
import os
import re
import statistics
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


class Statistics(unittest.TestCase):
    def test_percentile_interpolates_linearly(self):
        v = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
        self.assertEqual(run.percentile(v, 0), 1)
        self.assertEqual(run.percentile(v, 100), 10)
        self.assertAlmostEqual(run.percentile(v, 50), 5.5)
        self.assertAlmostEqual(run.percentile(v, 90), 9.1)
        self.assertEqual(run.percentile([3.0], 90), 3.0)
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_quartiles_match_statistics_quantiles(self):
        v = [1, 2, 3, 4, 5, 6, 7, 8]
        self.assertEqual(run.quartiles(v), (2.25, 4.5, 6.75))
        self.assertEqual(run.quartiles(v), tuple(statistics.quantiles(v, n=4)))
        self.assertEqual(run.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_relative_spread(self):
        self.assertAlmostEqual(run.rel_spread([1, 2, 3, 4, 5, 6, 7, 8]), 4.5 / 4.5)
        self.assertEqual(run.rel_spread([5.0]), 0.0)


class Verdicts(unittest.TestCase):
    def test_same_within_bound(self):
        self.assertEqual(run.verdict([100, 101, 99], [103, 104, 102], "higher", 0.1),
                         "same")

    def test_better_and_worse_follow_direction(self):
        a, b = [100, 101, 99], [120, 121, 119]
        self.assertEqual(run.verdict(a, b, "higher", 0.1), "better")
        self.assertEqual(run.verdict(a, b, "lower", 0.1), "worse")
        self.assertEqual(run.verdict(b, a, "lower", 0.1), "better")

    def test_wide_overlapping_runs_are_unresolved(self):
        a, b = [70, 100, 130], [60, 85, 115]
        self.assertEqual(run.verdict(a, b, "higher", 0.1), "unresolved")

    def test_wide_but_separated_runs_resolve(self):
        a, b = [80, 90, 100], [130, 140, 150]
        self.assertEqual(run.verdict(a, b, "higher", 0.1), "better")
        self.assertEqual(run.verdict(a, b, "lower", 0.1), "worse")

    def test_single_runs_compare_medians(self):
        self.assertEqual(run.verdict([100.0], [95.0], "higher", 0.1), "same")
        self.assertEqual(run.verdict([100.0], [85.0], "higher", 0.1), "worse")


class Compare(unittest.TestCase):
    """compare fails on a worse gated metric only, and refuses sets from
    different hosts."""

    BENCH = {"end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.1}]}

    def result_set(self, root, name, setup, mlups, cpu="x"):
        runs = [{"metrics": {"setup_s": {"value": s}, "mlups": {"value": m},
                             "call_ms_p90": {"value": 1.0}}}
                for s, m in zip(setup, mlups)]
        host = {k: 0 for k in run.FINGERPRINT_KEYS}
        host["cpu"] = cpu
        os.makedirs(os.path.join(root, name))
        with open(os.path.join(root, name, "results.json"), "w") as f:
            json.dump({"host": host, "workloads": {"w": {"runs": runs}}}, f)
        return os.path.join(root, name)

    def compare(self, a, b):
        args = type("Args", (), {"a": a, "b": b})
        with open(os.devnull, "w") as null:
            stdout, sys.stdout = sys.stdout, null
            try:
                return run.compare(args, self.BENCH)
            finally:
                sys.stdout = stdout

    def test_gated_and_ungated_metrics(self):
        with tempfile.TemporaryDirectory() as root:
            a = self.result_set(root, "a", [1.0, 1.01, 0.99], [100, 101, 99])
            slower = self.result_set(root, "b", [1.0, 1.01, 0.99], [70, 71, 69])
            later = self.result_set(root, "c", [1.3, 1.31, 1.29], [100, 101, 99])
            self.assertEqual(self.compare(a, slower), 0)
            self.assertEqual(self.compare(a, later), 1)

    def test_refuses_other_hosts(self):
        with tempfile.TemporaryDirectory() as root:
            a = self.result_set(root, "a", [1.0], [100])
            b = self.result_set(root, "b", [1.0], [100], cpu="y")
            with self.assertRaises(run.BenchError):
                self.compare(a, b)


RECORD = {"series": {
    "setup_s": [0.3, 0.1, 0.2],
    "mlups": [900.0, 1100.0, 1000.0, 1000.0],
    "call_ms": [float(i) for i in range(1, 11)],
    "rss_mb": [500.0, 512.0, 530.0]}}

CATALOG = {
    "mlups": {"measured_on": ["w"]},
    "obs.overhead_frac": {"measured_on": ["w"]},
    "w.rate": {"measured_on": ["w"]},
    "w.frac": {"measured_on": ["w"]},
    "other.rate": {"measured_on": ["v"]},
    "probe.ns": {"measured_on": ["host"]}}


class Metrics(unittest.TestCase):
    def test_run_metrics_from_samples(self):
        m = run.run_metrics(RECORD)
        self.assertAlmostEqual(m["setup_s"]["value"], 0.2)
        self.assertAlmostEqual(m["mlups"]["value"], 1000.0)
        self.assertAlmostEqual(m["call_ms_p90"]["value"], 9.1)
        self.assertEqual(m["call_ms_p90"]["n"], 10)
        self.assertEqual(m["peak_rss_mb"]["value"], 500.0)

    def test_per_layer_keeps_what_the_workload_measures(self):
        traced = {"series": {"mlups": [900.0]},
                  "layers": {"w.rate": 5.0, "w.frac": 0.0, "other.rate": 1.0}}
        found, missing = run.per_layer(traced, RECORD, "w", CATALOG)
        self.assertEqual(missing, [])
        self.assertEqual(set(found), {"mlups", "obs.overhead_frac", "w.rate", "w.frac"})
        self.assertEqual(found["w.frac"], 0.0)  # a measured zero stays
        self.assertAlmostEqual(found["obs.overhead_frac"], 0.1)

    def test_per_layer_reports_missing_and_null_metrics(self):
        traced = {"series": {"mlups": [1000.0]}, "layers": {"w.frac": None}}
        found, missing = run.per_layer(traced, RECORD, "w", CATALOG)
        self.assertEqual(sorted(missing), ["w.frac", "w.rate"])
        self.assertNotIn("other.rate", found)

    def test_per_layer_of_the_host_run(self):
        found, missing = run.per_layer({"layers": {"probe.ns": 80.0}}, None, "host",
                                       CATALOG)
        self.assertEqual((found, missing), ({"probe.ns": 80.0}, []))

    def test_span_self_time_subtracts_children_on_the_same_thread(self):
        doc = {"traceEvents": [
            {"name": "outer", "ph": "X", "ts": 0, "dur": 100, "pid": 1, "tid": 1},
            {"name": "inner", "ph": "X", "ts": 10, "dur": 30, "pid": 1, "tid": 1},
            {"name": "inner", "ph": "X", "ts": 50, "dur": 20, "pid": 1, "tid": 1},
            {"name": "leaf", "ph": "X", "ts": 55, "dur": 5, "pid": 1, "tid": 1},
            {"name": "other", "ph": "X", "ts": 20, "dur": 50, "pid": 1, "tid": 2}]}
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            json.dump(doc, f)
        try:
            s = run.span_summary(f.name)
        finally:
            os.unlink(f.name)
        self.assertAlmostEqual(s["outer"]["self_ms"], 0.050)
        self.assertAlmostEqual(s["inner"]["self_ms"], 0.045)
        self.assertEqual(s["inner"]["count"], 2)
        self.assertAlmostEqual(s["leaf"]["self_ms"], 0.005)
        self.assertAlmostEqual(s["other"]["self_ms"], 0.050)


class BenchmarkFile(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = run.load_json(run.BENCHMARK)
        cls.layers = run.load_json(os.path.join(HERE, "layers.json"))["metrics"]

    def test_top_level_shape(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertLessEqual(len(json.dumps(b)), 64 * 1024)
        self.assertTrue(1 <= len(b["command"]) <= 32)
        for arg in b["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
            self.assertTrue(os.path.isdir(os.path.join(run.ROOT, p)))
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)

    def test_workloads(self):
        w = self.bench["workloads"]
        self.assertTrue(2 <= len(w) <= 8)
        for entry in w:
            self.assertEqual(set(entry), {"name", "why"})
            self.assertRegex(entry["name"], NAME)
            self.assertTrue(0 < len(entry["why"]) <= 200)
            self.assertNotIn("\n", entry["why"])

    def test_metrics(self):
        e2e, per_layer = self.bench["end_to_end"], self.bench["per_layer"]
        self.assertTrue(1 <= len(e2e) <= 16)
        self.assertTrue(1 <= len(per_layer) <= 128)
        names = [m["name"] for m in e2e + per_layer + self.bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            # Set-up time carries the largest bound (README, "Bounds");
            # every other end-to-end bound is at most 0.10.
            limit = 0.25 if m["name"] == "setup_s" else 0.10
            self.assertTrue(0 < m["bound"] <= limit, m["name"])
        for m in per_layer:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in e2e + per_layer:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in e2e if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in e2e))

    def test_every_layer_metric_names_what_it_moves(self):
        per_layer = {m["name"]: m for m in self.bench["per_layer"]}
        self.assertEqual(set(per_layer), set(self.layers))
        ungated = {n for n, e in self.layers.items() if e["role"] == "ungated"}
        self.assertEqual(ungated, set(run.UNGATED))
        for name, better in run.UNGATED.items():
            self.assertEqual(per_layer[name]["better"], better)
        e2e = {m["name"] for m in self.bench["end_to_end"]} | ungated
        workloads = {w["name"] for w in self.bench["workloads"]}
        for name, entry in self.layers.items():
            self.assertIn(entry["role"],
                          ("layer", "denominator", "modeled", "obs", "ungated"), name)
            self.assertTrue(entry["measured_on"], name)
            for where in entry["measured_on"]:
                self.assertIn(where, workloads | {run.HOST}, name)
            if entry["role"] == "layer":
                self.assertTrue(entry["moves"], name)
            for metric, workload in entry["moves"]:
                self.assertIn(metric, e2e, name)
                self.assertIn(workload, workloads, name)


if __name__ == "__main__":
    unittest.main()
