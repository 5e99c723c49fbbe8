"""Self-tests of the benchmark itself (not of octfield).

Run from the repository root:

    python3 perfbench/selftest.py

They check that item lists are deterministic per seed and differ across
seeds, that a traced pass gives the same outputs as an untraced one, that
exceptions pass through the tracer unchanged and are counted, that every
wrapper and the calibration sampler are gone afterwards, the self-time
arithmetic, the tail quantile estimates, and that the benchmark refuses to
run without the package.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Cheap items covering every item kind and both degree_count outcomes:
# the worked example (one stack, meshed) and a three-stack class whose
# degree_count raises MeshUnavailableError.
SAMPLE_ITEMS = [
    ("construct", {"e": [1, 1, 1], "k": [1, 1, 1], "omega_units": 3}, 0.05, 2),
    ("construct", {"e": [1, 1, 1], "k": [2, 2, 2], "omega_units": -1}, 0.05, 2),
    ("product", 1, 2, 0, 1, 1, "P"),
    ("product", 2, 1, 1, 0, 2, "Q"),
    ("word", 3, (1, 2, -1, 3, -2, -3, 1, 1, -2, 2, 3)),
]


class WorkloadGeneration(unittest.TestCase):
    def test_same_seed_same_items(self):
        for name in workloads.NAMES:
            self.assertEqual(workloads.generate(name, 7), workloads.generate(name, 7))

    def test_seeds_differ(self):
        for name in workloads.NAMES:
            self.assertNotEqual(workloads.generate(name, 7), workloads.generate(name, 8))

    def test_item_sets(self):
        sweep = workloads.generate("sweep-k3", 3)
        refine = workloads.generate("refine-k2", 3)
        spelling = workloads.generate("spelling-products", 3)
        self.assertEqual(len(sweep), 40)
        self.assertEqual(sorted(map(workloads.item_key, sweep)),
                         sorted(map(workloads.item_key, workloads.generate("sweep-k3", 4))))
        self.assertEqual(len(refine), 40)
        self.assertEqual(len({workloads.item_key(i) for i in refine}), 40)
        self.assertEqual(sum(i[0] == "product" for i in spelling), 324)
        words = [i for i in spelling if i[0] == "word"]
        self.assertEqual(len(words), workloads.RANDOM_WORDS)
        self.assertTrue(all(64 <= len(i[2]) <= 96 for i in words))

    def test_reference_covers_every_item(self):
        import json

        reference = json.loads((HERE / "reference.json").read_text())
        for name in workloads.NAMES:
            for item in workloads.generate(name, 1):
                if item[0] != "word":
                    self.assertIn(workloads.item_key(item), reference[item[0]])


class Tracing(unittest.TestCase):
    def test_traced_pass_matches_untraced_and_cleans_up(self):
        import worker

        originals = {(m, a): getattr(sys.modules[f"octfield.{m}"], a)
                     for m, a in tracing.SPANS}
        with tempfile.TemporaryDirectory() as tmp:
            traced = worker.run_items(SAMPLE_ITEMS, True, Path(tmp) / "t")
            plain = worker.run_items(SAMPLE_ITEMS, False, Path(tmp) / "u")
        self.assertEqual(traced["failures"], {})
        self.assertEqual(plain["failures"], {})
        self.assertEqual(traced["digests"], plain["digests"])
        self.assertEqual(traced["leftover_wrappers"], [])
        self.assertEqual(tracing.installed_wrappers(), [])
        self.assertEqual(threading.active_count(), 1, "calibration sampler left running")
        for (module, attr), fn in originals.items():
            self.assertIs(getattr(sys.modules[f"octfield.{module}"], attr), fn)
        layers = traced["layers"]
        self.assertEqual(layers["cli.main.calls"], 2)
        self.assertEqual(layers["numerics.degree_count.calls"], 2)
        self.assertEqual(layers["numerics.degree_count.errors"], 1)
        self.assertEqual(layers["words.min_spelling_over_product.calls"], 2)
        self.assertGreater(layers["rational.realize.candidates"], 0)
        self.assertGreater(layers["numerics.dirichlet_energy.cells"], 0)
        self.assertGreater(layers["words.min_spelling_over_product.dp_calls"], 0)
        self.assertAlmostEqual(traced["covered_s"],
                               sum(v for k, v in layers.items() if k.endswith(".self_s")),
                               places=9)

    def test_exception_passes_through_unchanged(self):
        from octfield import numerics
        from octfield.patchwork import MeshUnavailableError, assemble_patchwork, select_case
        from octfield.topology import OctantTopology

        sm = assemble_patchwork(select_case(OctantTopology((1, 1, 1), (2, 2, 2), -1)))
        t = tracing.Tracer()
        t.install()
        try:
            with self.assertRaises(MeshUnavailableError):
                numerics.degree_count(sm, level=1)
        finally:
            t.uninstall()
        self.assertEqual([s[0] for s in t.spans], ["numerics.degree_count"])
        self.assertEqual(t.spans[0][5], "MeshUnavailableError")
        self.assertEqual(tracing.installed_wrappers(), [])

    def test_self_time_subtracts_children(self):
        # name, start, end, parent, item, error, counts
        spans = [
            ["cli.main", 0.0, 10.0, -1, 0, None, None],
            ["patchwork.assemble_patchwork", 1.0, 5.0, 0, 0, None, None],
            ["rational.realize", 2.0, 4.0, 1, 0, None, {"candidates": 3}],
            ["rational.realize", 6.0, 6.5, 0, 0, None, None],
        ]
        m = tracing.layer_metrics(spans)
        self.assertAlmostEqual(m["cli.main.self_s"], 5.5)
        self.assertAlmostEqual(m["patchwork.assemble_patchwork.self_s"], 2.0)
        self.assertAlmostEqual(m["rational.realize.self_s"], 2.5)
        self.assertEqual(m["rational.realize.calls"], 2)
        self.assertEqual(m["rational.realize.cold_calls"], 1)
        self.assertEqual(m["rational.realize.candidates"], 3)
        self.assertAlmostEqual(tracing.covered_seconds(spans), 10.0)

    def test_assignment_count(self):
        from make_reference import product_spec

        # 187 conjugators over three letters with at most three letters;
        # P with p = n = 1 has two classes of multiplicity one.
        self.assertEqual(tracing.search_assignments(product_spec(0, 0, 0, 1, 1, "P")), 187 ** 2)
        self.assertEqual(tracing.search_assignments(product_spec(0, 0, 0, 2, 0, "Q")),
                         187 * 188 // 2)
        self.assertEqual(tracing.search_assignments(product_spec(1, 1, 1, 0, 0, "P")), 1)


class Statistics(unittest.TestCase):
    def test_tail_percentile(self):
        self.assertEqual(run.tail_percentile(40), 75.0)
        self.assertEqual(run.tail_percentile(524), 95.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)

    def test_quantile(self):
        self.assertAlmostEqual(run.quantile([4.0, 1.0, 3.0, 2.0, 5.0], 0.5), 3.0)
        self.assertAlmostEqual(run.quantile([2.0] * 7, 0.75), 2.0)
        self.assertTrue(3.0 < run.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.75) < 5.0)
        # a gap at the median moves the estimate a little, not a whole cluster
        low, high = [0.20] * 20, [0.26] * 20
        shifted = run.quantile(low[:-1] + high + [0.26], 0.5)
        self.assertLess(abs(shifted - run.quantile(low + high, 0.5)), 0.01)


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_the_printed_metrics(self):
        import json

        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in declared["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in declared["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in declared["workloads"]), workloads.NAMES)


class Refusal(unittest.TestCase):
    def test_exits_nonzero_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench = Path(tmp) / "perfbench"
            bench.mkdir()
            for f in HERE.glob("*.py"):
                (bench / f.name).write_text(f.read_text())
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep-k3",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
