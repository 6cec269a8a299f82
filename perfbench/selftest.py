#!/usr/bin/env python3
"""Self-test of the benchmark: pinned work counts, repeatable counters, and
oracles that reject wrong answers.

    python3 perfbench/selftest.py        # about a minute; run from the checkout root
"""

from __future__ import annotations

import random
import sys
import unittest

import run

run.import_package()

from heckeflag import build_space, build_system, cli, eset, HeckeAlgebra  # noqa: E402
from heckeflag.poly import IntPoly  # noqa: E402
from tracer import Tracer  # noqa: E402
import workloads  # noqa: E402


class PinnedCounts(unittest.TestCase):
    def test_count_Y_total_on_gl3_f5_makes_186_relative_positions(self):
        space = build_space(3, 5)
        w = space.weyl.normal_form((1, 2))
        tracer = Tracer()
        with tracer.installed():
            space.count_Y_total(space.default_torus(), w)
        self.assertEqual(tracer.counts["relative_position"], 186)
        self.assertEqual(tracer.counts["conjugate_flag"], 186)

    def test_e_set_on_f4_makes_1152_products(self):
        algebra = HeckeAlgebra(build_system("F4"))
        w = algebra.system.normal_form((1, 2, 3))
        tracer = Tracer()
        with tracer.installed():
            eset.e_set(algebra, w)
        metrics = tracer.layer_metrics()
        self.assertEqual(metrics["hecke.products"][0], 1152)
        self.assertEqual(metrics["eset.candidates"][0], 1152)
        self.assertEqual(metrics["eset.scans"][0], 1)

    def test_tracer_restores_the_package(self):
        originals = (IntPoly.__add__, HeckeAlgebra.product, cli.run, eset.e_set)
        with Tracer().installed():
            self.assertIsNot(HeckeAlgebra.product, originals[1])
        self.assertEqual((IntPoly.__add__, HeckeAlgebra.product, cli.run, eset.e_set),
                         originals)

    def test_counters_repeat_for_a_seed(self):
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                counts = []
                for _ in range(2):
                    metrics, _, _, failed = run.traced(name, seed=11, seconds=0)
                    self.assertEqual(failed, 0)
                    counts.append({k: v for k, (v, unit) in metrics.items()
                                   if unit == "count"})
                self.assertEqual(counts[0], counts[1])
                self.assertTrue(any(counts[0].values()))


class OraclesRejectWrongAnswers(unittest.TestCase):
    def test_e_set_check(self):
        algebra = HeckeAlgebra(build_system("F4"))
        w = algebra.system.normal_form((1, 2, 3, 2))
        w0 = algebra.system.longest_element()
        report = eset.e_set(algebra, w)
        self.assertTrue(workloads.check_e_set(w, w0, report))
        members = report.members
        report.members = [m for m in members if m[0] != w0]
        self.assertFalse(workloads.check_e_set(w, w0, report))
        z, coeffs, deg = members[0]
        report.members = [(z, coeffs + 1, deg)] + members[1:]  # q = 1 sum off by one
        self.assertFalse(workloads.check_e_set(w, w0, report))
        report.members = [(z, coeffs, deg + 1)] + members[1:]  # degree misreported
        self.assertFalse(workloads.check_e_set(w, w0, report))

    def test_trace_check(self):
        algebra = HeckeAlgebra(build_system("B3"))
        s = algebra.system.normal_form((3,))
        trace = algebra.regular_trace(s)
        self.assertTrue(workloads.check_trace(s, 48, trace))
        self.assertFalse(workloads.check_trace(s, 48, trace + 1))
        self.assertFalse(workloads.check_trace(s, 48, IntPoly((-25, 25))))

    def test_flag_checks(self):
        ops = workloads.make_flag_ops(build_space(3, 5), random.Random(0))
        for op in ops:
            got = op.run()
            self.assertTrue(op.check(got), op.label)
            self.assertFalse(op.check(got + 1), op.label)

    def test_verify_check(self):
        self.assertTrue(workloads.check_verify(cli.run(["verify", "dihedral"])))
        bad = cli.CommandResult("verification_failed", "12 checks, 1 mismatches\n")
        self.assertFalse(workloads.check_verify(bad))
        self.assertFalse(workloads.check_verify(cli.CommandResult("ok", "")))


if __name__ == "__main__":
    sys.exit(unittest.main())
