#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at the smallest sizes.

Run from the repository root:  python3 perfbench/test_smoke.py

Builds perfbench like run.py does, runs every workload untraced and traced
for a fraction of a second on tiny inputs, and checks the BENCHMARK.json
schema, the result line's schema, and every metric's name and unit.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.4", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.splitlines()
    record = json.loads(next(l for l in lines if l.startswith("record: "))[8:])
    return done.returncode, json.loads(lines[-1]), record


class BenchmarkSpec(unittest.TestCase):
    def test_schema(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(names, ["compile_scaled", "service_hot",
                                 "service_mixed"])
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        seen = set(names)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertNotIn(m["name"], seen)
            seen.add(m["name"])
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class WorkloadSmoke(unittest.TestCase):
    def check(self, workload, trace):
        spec = load_spec()
        rc, result, record = run_workload(workload, trace)
        self.assertEqual(rc, 0)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            if not trace:
                self.assertNotEqual(got["value"], 0, m["name"])
        self.assertEqual(record["seed"], 3)
        self.assertEqual(set(record["host"]) >= {"nproc", "build_type",
                                                  "compiler", "kernel"}, True)
        # The rate and latency limit the why text states are the ones run.
        why = next(w["why"] for w in spec["workloads"]
                   if w["name"] == workload)
        detail = record["detail"]
        if "rate_per_s" in detail:
            self.assertIn(f"{detail['rate_per_s']:g} req/s", why)
        if "slo_limit_us" in detail:
            limit = detail["slo_limit_us"]
            text = (f"{limit / 1e6:g} s" if limit >= 1e6 else
                    f"{limit / 1e3:g} ms")
            self.assertIn(f"limit {text}", why)

    def test_compile_scaled(self):
        self.check("compile_scaled", 0)

    def test_compile_scaled_traced(self):
        self.check("compile_scaled", 1)

    def test_service_hot(self):
        self.check("service_hot", 0)

    def test_service_hot_traced(self):
        self.check("service_hot", 1)

    def test_service_mixed(self):
        self.check("service_mixed", 0)

    def test_service_mixed_traced(self):
        self.check("service_mixed", 1)


if __name__ == "__main__":
    unittest.main()
