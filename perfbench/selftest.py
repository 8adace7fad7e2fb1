"""Self-test of the benchmark: its gates catch bad results, its output is whole.

    python3 perfbench/selftest.py        # about 55 s on 2 cores

* The checkers accept the recorded results and reject perturbed ones (a
  price one ulp off, an MC table with one changed entry, a policy variance
  above a delta rung, an excluded path), so the gate is not vacuous.
* A short run of price-tree, untraced and traced, prints every metric named
  in BENCHMARK.json with its unit, and a metric set that covers the layers
  the benchmark promises.
* In a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

import copy
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from workloads import WORKLOADS, load_reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {"setup_s": "s", "op_scaled_p50_s": "s", "peak_rss_mb": "MiB"}
LAYERS = {
    "tree.solve_tree.s", "tree.cells_per_s", "tree.cells",
    "tree.shift_candidates", "tree.stored_mb", "pde.solve_theta.s",
    "pde.cells_per_s", "pde.stored_mb", "pde.policy_lookup.s",
    "simulate.price_paths.s", "simulate.delta_ladder.s",
    "simulate.policy_hedge.s", "simulate.path_steps_per_s",
    "simulate.kept_ratio", "impact.solve_with_impact.s", "cli.load_config.s",
    "setup.import_s", "trace.overhead_ratio", "op.wall_p50_s", "host.probe_s",
}


def _bump(x):
    return float(np.nextafter(x, np.inf))


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ref = load_reference()

    def check(self, workload, summary, seed=0, i=0):
        return WORKLOADS[workload].check(summary, self.ref[workload], seed, i)

    def test_workloads_match_the_spec(self):
        self.assertEqual(set(WORKLOADS), {w["name"] for w in SPEC["workloads"]})
        self.assertEqual(set(WORKLOADS), set(self.ref))

    def test_recorded_results_pass(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(self.check(name, copy.deepcopy(self.ref[name])), [])

    def test_perturbed_tree_price_fails(self):
        s = copy.deepcopy(self.ref["price-tree"])
        s["price"] = _bump(s["price"])
        self.assertTrue(self.check("price-tree", s))

    def test_perturbed_pde_policy_fails(self):
        s = copy.deepcopy(self.ref["hedge-mc"])
        s["price"] *= 1 + 1e-9
        self.assertTrue(self.check("hedge-mc", s, seed=7, i=2))
        s = copy.deepcopy(self.ref["hedge-mc"])
        s["control0"][60, 120] += 1e-9 * np.abs(s["control0"]).max()
        self.assertTrue(self.check("hedge-mc", s, seed=7, i=2))

    def test_perturbed_sweep_price_fails(self):
        s = copy.deepcopy(self.ref["sweep-mix"])
        s["prices"]["tree-impact"] = _bump(s["prices"]["tree-impact"])
        self.assertTrue(self.check("sweep-mix", s))
        s = copy.deepcopy(self.ref["sweep-mix"])
        s["prices"]["pde-cash"] *= 1 + 1e-9
        self.assertTrue(self.check("sweep-mix", s))

    def test_perturbed_mc_table_fails(self):
        s = copy.deepcopy(self.ref["hedge-mc"])
        s["table"][2][2] = _bump(s["table"][2][2])  # mean cost at M = 40
        self.assertTrue(self.check("hedge-mc", s))
        # the same table is not pinned at other seeds or ops
        self.assertEqual(self.check("hedge-mc", s, seed=3, i=0), [])
        self.assertEqual(self.check("hedge-mc", s, seed=0, i=1), [])

    def test_mc_invariants_fail_at_any_seed(self):
        s = copy.deepcopy(self.ref["hedge-mc"])
        s["table"][-1][3] = min(row[3] for row in s["table"][:-1]) * 1.01
        self.assertTrue(self.check("hedge-mc", s, seed=7, i=2))
        s = copy.deepcopy(self.ref["hedge-mc"])
        s["table"][-1][6] = 1  # one path left the surface hull
        self.assertTrue(self.check("hedge-mc", s, seed=7, i=2))


class OutputTest(unittest.TestCase):
    def result(self, trace):
        proc = _run(ROOT, "--workload", "price-tree", "--seed", "0",
                    "--seconds", "0", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        for key in ("nproc", "cpu", "python", "numpy", "scipy", "blas_threads"):
            self.assertIn(key, record["machine"])
        self.assertEqual(record["seed"], 0)
        return result["metrics"]

    def assert_named(self, metrics, spec):
        self.assertEqual({k: v["unit"] for k, v in metrics.items()},
                         {m["name"]: m["unit"] for m in spec})
        for v in metrics.values():
            self.assertIsInstance(v["value"], (int, float))

    def test_end_to_end_metrics(self):
        metrics = self.result(0)
        self.assert_named(metrics, SPEC["end_to_end"])
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, END_TO_END)
        self.assertTrue(all(v["value"] > 0 for v in metrics.values()))

    def test_layer_metrics(self):
        metrics = self.result(1)
        self.assert_named(metrics, SPEC["per_layer"])
        self.assertLessEqual(LAYERS, set(metrics))
        self.assertGreater(metrics["tree.solve_tree.s"]["value"], 0)
        self.assertEqual(metrics["pde.solve_theta.s"]["value"], 0)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = _run(bare, "--workload", "price-tree", "--seconds", "1")
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
