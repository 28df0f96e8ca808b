"""Tests of the benchmark itself: the gates can fail, and the metric lists agree.

    python3 -m unittest perfbench.test_perfbench -v

The negative controls run real, small CLI workloads: the verify corruption
hook and a solve point with a deliberately wrong oracle value must both
push failed_frac above zero, while the same workloads without the fault
stay at zero.
"""

from __future__ import annotations

import json
import unittest
from fractions import Fraction

from perfbench import oracle, run, tracing
from perfbench.workloads import SolveDims, VerifySuite

SMALL_VERIFY = dict(m_values="2", trials=2, expected_cases=142, blocks=1)


class WrongHarmonicOracle(SolveDims):
    """solve-dims whose first point expects a dim H one too large."""

    def points(self, seed, work_dir):
        points = super().points(seed, work_dir)
        points[0].expected_h += 1
        return points


def failed_frac(workload) -> float:
    result = run.run_workload(workload, seed=1, seconds=0, trace=False, layer_names=[])
    return result["failed"] / result["attempted"]


class NegativeControls(unittest.TestCase):
    def test_verify_corruption_hook_fails_the_gate(self):
        self.assertEqual(failed_frac(VerifySuite(**SMALL_VERIFY)), 0)
        self.assertGreater(failed_frac(VerifySuite(**SMALL_VERIFY, corrupt="psi-recursion")), 0)

    def test_wrong_solve_oracle_fails_the_gate(self):
        small = dict(grid=((3, 2), (2, 3)), rational_grid=((2, 3),))
        self.assertEqual(failed_frac(SolveDims(**small)), 0)
        self.assertGreater(failed_frac(WrongHarmonicOracle(**small)), 0)


class Oracle(unittest.TestCase):
    def test_blade_products(self):
        self.assertEqual(oracle.blade_mul((1,), (1,)), (-1, ()))
        self.assertEqual(oracle.blade_mul((2,), (1,)), (-1, (1, 2)))
        self.assertEqual(oracle.blade_mul((1, 2), (1, 2)), (-1, ()))

    def test_canonical_text(self):
        field = oracle.parse_canonical("-3/2*x1^2*x3*e[1,2] + x2 - 4", 3)
        self.assertEqual(field, {((2, 0, 1), (1, 2)): Fraction(-3, 2), ((0, 1, 0), ()): 1, ((0, 0, 0), ()): -4})

    def test_harmonic_dimension(self):
        # degree 2 in m = 3: 6 quadratics, one relation (the Laplacian is a constant), times 8 blades
        self.assertEqual(oracle.harmonic_dim(3, 2), 8 * 5)


class MetricLists(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_per_layer_list_matches_the_tracer(self):
        program = run.import_program()
        checks = program.verify.check_names()
        declared = {m["name"] for m in self.spec["per_layer"]}
        measured = set(tracing.Tracer().metrics(checks)) | {"trace.overhead_s"}
        self.assertEqual(declared, measured)

    def test_end_to_end_list_matches_the_runner(self):
        result = run.run_workload(VerifySuite(**SMALL_VERIFY), seed=2, seconds=0, trace=False, layer_names=[])
        self.assertEqual({m["name"] for m in self.spec["end_to_end"]}, set(result["metrics"]))


if __name__ == "__main__":
    unittest.main()
