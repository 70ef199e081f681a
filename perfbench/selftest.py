"""Self-tests of the benchmark itself (not of ellink).

    python3 perfbench/selftest.py

Checks that request lists are a function of the seed, that the correctness
gate rejects corrupted values, nonzero exits and timed-out requests, that
the tracer's structural counters repeat exactly and leave the program as
they found it, that the tracer refuses to run when a target is missing, and that ``BENCHMARK.json`` names the metrics run.py prints.
"""

from __future__ import annotations

import json
import sys
import unittest

import bench
import run
import tracer

CLI = bench.import_cli()
REF = bench.load_reference()


def _cheapest_compute() -> bench.Request:
    stratum = REF["pools"]["compute"]["strata"][0]
    return bench.sampled_request("compute", stratum["patterns"][0], REF["pools"]["compute"]["samples"], 0)


def _slow_compute() -> bench.Request:
    stratum = max(REF["pools"]["compute"]["strata"], key=lambda s: (s["twisted"], s["length"]))
    return bench.sampled_request("compute", stratum["patterns"][0], REF["pools"]["compute"]["samples"], 0)


class Generator(unittest.TestCase):
    def test_same_seed_same_list(self):
        for name, make in bench.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(make(7, REF), make(7, REF))

    def test_different_seeds_different_lists(self):
        for name, make in bench.WORKLOADS.items():
            lists = [tuple(make(seed, REF)) for seed in range(5)]
            with self.subTest(workload=name):
                self.assertEqual(len(set(lists)), len(lists))

    def test_every_sampled_request_has_a_reference(self):
        for name, make in bench.WORKLOADS.items():
            for seed in range(20):
                for req in make(seed, REF):
                    if req.ref is not None:
                        self.assertIn(req.ref, REF["entries"], (name, seed))


class Gate(unittest.TestCase):
    def setUp(self):
        self.req = _cheapest_compute()
        self.out = bench.call_cli(CLI.main, self.req.argv)

    def test_good_output_passes(self):
        doc = bench.check(self.req, self.out, REF)
        self.assertEqual(doc["pattern"], REF["entries"][self.req.ref]["pattern"])

    def test_corrupted_value_fails(self):
        doc = json.loads(self.out.stdout)
        re, im = doc["sample_values"][-1]["value"]
        doc["sample_values"][-1]["value"] = [repr(float(re) * (1 + 1e-5)), im]
        bad = bench.Outcome(self.out.seconds, 0, json.dumps(doc), None)
        with self.assertRaisesRegex(ValueError, "sample 1"):
            bench.check(self.req, bad, REF)

    def test_nonzero_exit_fails(self):
        out = bench.call_cli(CLI.main, ("compute", "8,2:7>7"))
        self.assertEqual(out.code, 2)
        with self.assertRaisesRegex(ValueError, "exit status 2"):
            bench.check(self.req, out, REF)

    def test_timeout_fails(self):
        out = bench.call_cli(CLI.main, _slow_compute().argv, timeout=0.05)
        self.assertEqual(out.error, "timeout")
        self.assertLess(out.seconds, 5.0)
        with self.assertRaisesRegex(ValueError, "timeout"):
            bench.check(self.req, out, REF)

    def test_failed_verify_report_fails(self):
        req = bench.verify_requests(0, REF)[0]
        report = [{"name": "x", "passed": False}]
        out = bench.Outcome(0.0, 0, json.dumps(report), None)
        with self.assertRaisesRegex(ValueError, "not passed"):
            bench.check(req, out, REF)


class Tracing(unittest.TestCase):
    def test_counters_repeat_and_restore(self):
        theta_module = sys.modules["ellink.theta"]
        efun_module = sys.modules["ellink.efun"]
        original = theta_module.theta
        requests = [_cheapest_compute(), bench.restrict_requests(0, REF)[0]]
        counts = []
        for _ in range(2):
            tr = tracer.Tracer()
            tr.install()
            try:
                p = run.run_pass(CLI, requests, REF, deadline=float("inf"))
            finally:
                tr.restore()
            self.assertEqual(p.failures, [])
            snap = run.layer_snapshot(tr, p, {"ref": 0.0, "sizes": {}})
            counts.append({k: snap[k] for k in run.EXACT})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["theta.calls"], 0)
        self.assertGreater(counts[0]["efun.nodes_tree"], 0)
        self.assertIs(theta_module.theta, original)
        self.assertIs(efun_module._theta_product, original)

    def test_missing_target_raises_and_patches_nothing(self):
        theta_module = sys.modules["ellink.theta"]
        original = theta_module.theta
        saved = list(tracer.TRACED)
        tracer.TRACED.append(("theta", "no_such_function", "theta.other"))
        try:
            tr = tracer.Tracer()
            with self.assertRaisesRegex(tracer.MissingTarget, "no_such_function"):
                tr.install()
        finally:
            tracer.TRACED[:] = saved
        self.assertIs(theta_module.theta, original)

    def test_count_nodes_shares(self):
        class Leaf:
            pass

        class Pair:
            def __init__(self, a, b):
                self.children = (a, b)

        leaf = Leaf()
        mid = Pair(leaf, leaf)
        self.assertEqual(tracer.count_nodes(Pair(mid, mid)), (3, 7))


class Metrics(unittest.TestCase):
    def test_tail_leaves_ten_beyond(self):
        xs = list(range(28))
        value, pct = bench.tail(xs)
        self.assertEqual(sum(x > value for x in xs), 10)
        self.assertAlmostEqual(pct, 100 * 18 / 28)

    def test_benchmark_json_matches(self):
        path = bench.ROOT / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json")
        spec = json.loads(path.read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(bench.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
