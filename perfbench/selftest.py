"""Self-test of the benchmark itself:

    python3 perfbench/selftest.py

Checks that the generators give the pinned sizes, that the independent
checker agrees with brute force and rejects planted wrong verdicts, and
runs one smoke pass of every workload through run.py.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import tempfile
import unittest
from collections import Counter
from fractions import Fraction
from pathlib import Path

import gen
import oracle
import workloads

HERE = Path(__file__).resolve().parent


class Generators(unittest.TestCase):
    def test_pinned_sizes(self):
        sets = gen.named_sets()
        sizes = {name: (len(rs.rays), len(rs.contexts)) for name, rs in sets.items()}
        self.assertEqual(sizes, {
            "cabello18": (18, 9),
            "peres24": (24, 24),
            "grid01_4": (40, 32),
            "grid01_5": (121, 136),
            "grid012_4": (272, 380),
        })

    def test_cabello18_is_a_parity_set(self):
        cab = gen.cabello18()
        self.assertEqual(set(Counter(r for c in cab.contexts for r in c).values()), {2})
        self.assertEqual(len(gen.embedded_contexts(gen.named_sets()["grid01_4"], cab)), 9)

    def test_chain_contexts_are_disjoint(self):
        rays, _ = gen.chain(1000, random.Random(3))
        self.assertEqual(len({gen.canonical(v) for _, v in rays}), 2000)

    def test_same_seed_same_inputs(self):
        with tempfile.TemporaryDirectory() as d:
            a = workloads.build("scale_sweep", 7, Path(d))[0]
            b = workloads.build("scale_sweep", 7, Path(d))[0]
        self.assertEqual(a, b)


class Oracle(unittest.TestCase):
    def test_search_matches_brute_force(self):
        cab = gen.cabello18()
        grid = gen.named_sets()["grid01_4"]
        rng = random.Random(5)
        cases = [cab.subset("del", [i for i in range(9) if i != k]) for k in (0, 4)]
        cases += [grid.subset("sub", sorted(rng.sample(range(32), 4))) for _ in range(6)]
        for rs in cases:
            ids, _, ctx = oracle.effective(rs.rays, rs.contexts)
            self.assertLessEqual(len(ids), 20)
            self.assertEqual(oracle.search_count(ids, ctx), oracle.brute_count(ids, ctx))
        ids, _, ctx = oracle.effective(cases[0].rays, cases[0].contexts)
        self.assertEqual(oracle.search_count(ids, ctx), 26)

    def test_parity_subset_is_a_certificate(self):
        peres = gen.peres24()
        ids, _, ctx = oracle.effective(peres.rays, peres.contexts)
        subset = oracle.parity_subset(ids, ctx)
        self.assertEqual(len(subset) % 2, 1)
        mult = Counter(r for k in subset for r in ctx[k])
        self.assertTrue(all(m % 2 == 0 for m in mult.values()))
        self.assertEqual(oracle.search_count(ids, ctx), 0)

    def test_lp(self):
        self.assertTrue(oracle.lp_feasible([[1, 1], [1, 0]], [1, Fraction(1, 3)]))
        self.assertFalse(oracle.lp_feasible([[1, 1], [1, 0]], [1, 2]))


class PlantedWrongVerdicts(unittest.TestCase):
    def setUp(self):
        cab = gen.cabello18()
        self.cab = workloads.Expect({"rays": cab.rays, "contexts": cab.contexts, "closed_count": 0})
        deleted = cab.subset("del", range(1, 9))
        self.deleted = workloads.Expect({"rays": deleted.rays, "contexts": deleted.contexts, "closed_count": 26})

    def test_search_verdicts(self):
        valuation = [c[0] for c in self.deleted.ctx]  # one per context, but not exactly one
        self.assertIsNotNone(self.deleted.find(valuation))
        self.assertIsNotNone(self.deleted.find(None))
        self.assertIsNotNone(self.cab.count_verdict(1))
        self.assertIsNotNone(self.cab.parity(None))
        self.assertIsNotNone(self.deleted.parity({"context_count": 8, "mult": dict(self.deleted.mult)}))
        self.assertIsNone(self.cab.parity({"context_count": 9, "mult": dict(self.cab.mult)}))
        bad_graph = {"find": None, "parity": None, "count": 0, "graph": [63, "0" * 64]}
        self.assertIsNotNone(workloads._stage_problems(self.cab, bad_graph, ("graph",)))

    def test_model_verdicts(self):
        mixed = [(Fraction(1, 4), v) for v in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
        probs = {rid: oracle.born(mixed, v) for rid, v in self.deleted.coords.items()}
        self.assertEqual(set(probs.values()), {Fraction(1, 4)})
        # The maximally mixed state has a model here, so INFEASIBLE is wrong.
        self.assertIsNotNone(workloads._check_model(self.deleted, probs, False, []))
        vals = oracle.all_valuations(self.deleted.ids, self.deleted.ctx)
        self.assertEqual(len(vals), 26)
        self.assertIsNotNone(workloads._check_model(self.deleted, probs, True, [("1", sorted(vals[0]))]))
        self.assertIsNone(workloads._check_model(self.cab, probs, False, []))

    def test_rebuilt_model_verdict_must_agree(self):
        with tempfile.TemporaryDirectory() as d:
            _, check = workloads.build("born_model", 1, Path(d))
        key = "model:cabello18/0"
        self.assertIsNone(check(key, {"feasible": False, "weights": [], "from_parts": False}))
        self.assertIsNotNone(check(key, {"feasible": False, "weights": [], "from_parts": True}))

    def test_distribution_verdict(self):
        state = [(Fraction(1), (1, 1, 0, 0))]
        probs = {rid: oracle.born(state, v) for rid, v in self.cab.coords.items()}
        right = [[[rid, str(probs[rid])] for rid in c] for c in self.cab.ctx]
        self.assertIsNone(workloads._check_distributions(self.cab, probs, right))
        right[0][0][1] = "1/3"
        self.assertIsNotNone(workloads._check_distributions(self.cab, probs, right))

    def test_cli_verdicts(self):
        op = {"sub": "color", "argv": ["color", "cab.ks"]}
        self.assertIsNone(workloads._check_cli(op, self.cab, None, {"rc": 1, "out": "NO VALUATION\n"}))
        self.assertIsNotNone(workloads._check_cli(op, self.cab, None, {"rc": 0, "out": "NO VALUATION\n"}))
        count = {"sub": "color", "argv": ["color", "del.ks", "--count"]}
        self.assertIsNotNone(workloads._check_cli(count, self.deleted, None, {"rc": 0, "out": "25\n"}))
        symm = {"sub": "symm", "argv": [], "a": [1, 0, 0], "b": [0, 1, 0], "sign": "-"}
        out = "amplitude 0 1 1\namplitude 1 0 -1\nnorm_squared 2\nparity -1\n"
        self.assertIsNone(workloads._check_cli(symm, None, None, {"rc": 0, "out": out}))
        self.assertIsNotNone(workloads._check_cli(symm, None, None, {"rc": 0, "out": out.replace("-1\n", "+1\n")}))


class Smoke(unittest.TestCase):
    """The shortest run of every workload, and a traced one of born_model."""

    def run_bench(self, workload: str, trace: int) -> dict:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
             "--seconds", "0", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, check=True,
        )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_workload(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        for w in bench["workloads"]:
            with self.subTest(workload=w["name"]):
                result = self.run_bench(w["name"], 0)
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), {m["name"] for m in bench["end_to_end"]})
        result = self.run_bench("born_model", 1)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in bench["per_layer"]})


if __name__ == "__main__":
    unittest.main()
