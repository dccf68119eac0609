"""Self-checks for the benchmark: seeded inputs, known cuts, a smoke pass per workload.

Run from the repository root with `python3 -m pytest perfbench` (or
`python3 -m unittest discover -s perfbench`).
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import SPAN_METRICS, Tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for name in workloads.WORKLOADS:
            first = workloads.canonical_bytes(workloads.generate(name, 7))
            self.assertEqual(first, workloads.canonical_bytes(workloads.generate(name, 7)))
            self.assertNotEqual(first, workloads.canonical_bytes(workloads.generate(name, 8)))

    def test_layered_cuts_match_a_max_flow(self):
        rng = random.Random(3)
        for width, both, back in ((5, 1, 0), (6, 1, 9), (4, 4, 0), (7, 3, 12)):
            doc, cuts = workloads.layered(rng, width, 4, both=both, back_edges=back)
            index = {v: i for i, v in enumerate(doc["nodes"])}
            pairs = [(index[e["from"]], index[e["to"]]) for e in doc["edges"]]
            t1, t2 = (index[t] for t in doc["terminals"])
            n = len(doc["nodes"])
            got = tuple(workloads.max_flow_value(n, pairs, 0, sinks)
                        for sinks in ([t1], [t2], [t1, t2]))
            self.assertEqual(got, cuts)

    def test_demands_fit_the_cuts(self):
        for name in ("ladder", "coded-gf16"):
            for case in workloads.generate(name, 1):
                self.assertTrue(all(workloads.feasible(case.cuts, d) for d in case.demands))
                self.assertGreater(case.demands[0][0], 0)


class SmokeTest(unittest.TestCase):
    def test_each_workload_runs_clean_untraced_and_traced(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                modules = run.load_dualcast()
                cases = workloads.generate(name, 0)[:3]
                plain = run.measure(run.Pipeline(modules), cases, 0)
                tracer = Tracer()
                tracer.install(modules)
                traced = run.measure(run.Pipeline(modules, tracer), cases, 0)
                self.assertEqual(plain.broken, 0, plain.problems)
                self.assertGreater(plain.passes[0].verified, 0)
                self.assertEqual(plain.passes[0].digest, traced.passes[0].digest)
                problems: list[str] = []
                metrics, _ = run.per_layer(tracer, traced, plain, problems)
                self.assertEqual(problems, [])
                self.assertLessEqual({m for m, _ in SPAN_METRICS}, set(metrics))

    def test_refuses_to_run_without_the_package(self):
        here = Path(__file__).resolve().parent
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(here, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
