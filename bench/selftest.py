"""Self-test of the benchmark's tracer and checks on small problems.

    PYTHONPATH=src python3 bench/selftest.py

Not collected by pytest (the file name does not start with ``test_``), so
the repository's test suite is unaffected.
"""

import importlib
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import lriga  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL_SCALAR = workloads.SolveWorkload("quarter_annulus", 3, 8)
SMALL_SHELL = workloads.SolveWorkload("spherical_shell", 3, 6)
SMALL_BLOCK = workloads.SolveWorkload("deformed_column", 2, 4, elasticity=True)


def traced_solve(wl, seed=1):
    with spans.Tracer() as tracer:
        out = workloads.run_solve(wl, seed)
    return tracer, out


class LoopStructure(unittest.TestCase):
    def test_scalar_counts_follow_the_loop(self):
        for wl in (SMALL_SCALAR, SMALL_SHELL):
            tracer, out = traced_solve(wl)
            self.assertEqual(out["failures"], [])
            self.assertEqual(
                spans.loop_failures(tracer, out["iterations"], 1), [])

    def test_block_counts_follow_the_loop(self):
        tracer, out = traced_solve(SMALL_BLOCK)
        self.assertEqual(out["failures"], [])
        self.assertEqual(spans.loop_failures(tracer, out["iterations"], 3), [])

    def test_missed_call_site_is_detected(self):
        tpcg_module = importlib.import_module("lriga.tpcg")
        with spans.Tracer() as tracer:
            # undo the patch of one by-name import, as a tracer that only
            # patched the defining module would
            tpcg_module.truncate_rel = tpcg_module.truncate_rel.__wrapped__
            out = workloads.run_solve(SMALL_SCALAR, 1)
        failures = spans.loop_failures(tracer, out["iterations"], 1)
        self.assertTrue(any("truncate_rel" in f for f in failures), failures)

    def test_self_times_add_up_to_the_solve(self):
        tracer, _ = traced_solve(SMALL_SHELL)
        selfs = tracer.self_times()
        roots = tracer.roots()
        inside = sum(t for t, r in zip(selfs, roots)
                     if tracer.spans[r].name == "tpcg")
        self.assertAlmostEqual(inside, spans.solve_span_s(tracer), places=9)
        metrics = spans.layer_metrics(tracer)
        loop = sum(metrics[k] for k in (
            "fastdiag.apply_s", "truncation.truncate_rel_s",
            "truncation.truncate_dynamic_s", "tucker.matvec_s",
            "tucker.inner_s", "tucker.add_s", "tpcg.self_s"))
        self.assertAlmostEqual(loop, spans.solve_span_s(tracer), places=9)

    def test_tracer_restores_every_name(self):
        mods = [importlib.import_module(m) for m in
                ("lriga", "lriga.tpcg", "lriga.truncation", "lriga.tucker")]
        before = [dict(vars(m)) for m in mods]
        apply_before = lriga.fastdiag.LowRankFD.apply
        with spans.Tracer():
            self.assertIsNot(mods[1].truncate_rel, before[1]["truncate_rel"])
        for m, b in zip(mods, before):
            for key, value in b.items():
                self.assertIs(vars(m)[key], value, key)
        self.assertIs(lriga.fastdiag.LowRankFD.apply, apply_before)


class Checks(unittest.TestCase):
    def test_dense_apply_matches_the_library(self):
        wl = SMALL_SHELL
        spaces = workloads._spaces(wl.p, wl.n_el, False)
        system, _ = workloads._scalar_setup(
            spaces, lriga.get_geometry(wl.geometry),
            workloads.smooth_load(3), (workloads.PRECOND_EPS,))
        rng = np.random.default_rng(0)
        x = lriga.TuckerTensor3(
            rng.standard_normal((2, 3, 2)),
            tuple(rng.standard_normal((n, r)) for n, r in
                  zip(system.rhs.dims, (2, 3, 2))))
        ours = workloads.dense_apply(system.op, workloads.dense(x))
        theirs = lriga.to_dense(lriga.tucker_matvec(system.op, x))
        np.testing.assert_allclose(ours, theirs, rtol=1e-12,
                                   atol=1e-12 * np.abs(theirs).max())

    def test_residual_check_rejects_a_wrong_solution(self):
        wl = SMALL_SCALAR
        spaces = workloads._spaces(wl.p, wl.n_el, False)
        system, (precond,) = workloads._scalar_setup(
            spaces, lriga.get_geometry(wl.geometry),
            workloads.smooth_load(1), (workloads.PRECOND_EPS,))
        x, report, _ = workloads._solve(system, precond, False)
        _, failures = workloads._solve_result(system, x, report, False)
        self.assertEqual(failures, [])
        wrong = lriga.TuckerTensor3((1.0 + 1e-3) * x.core, x.factors)
        self.assertGreater(
            workloads.true_residual_rel(system, wrong, False), workloads.TOL)

    def test_operator_check_rejects_a_nonsymmetric_operator(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 5))
        one = np.ones((1, 1, 1))
        spd = lriga.TuckerOperator3(one, ((A @ A.T + 5 * np.eye(5),),) * 3)
        skew = lriga.TuckerOperator3(one, ((A @ A.T + A,),) * 3)
        self.assertEqual(workloads.check_operator(spd, rng), [])
        self.assertNotEqual(workloads.check_operator(skew, rng), [])

    def test_load_depends_only_on_the_seed(self):
        pts = np.random.default_rng(0).random((10, 3))
        f1, f1b, f2 = (workloads.smooth_load(s)(pts) for s in (1, 1, 2))
        np.testing.assert_array_equal(f1, f1b)
        self.assertFalse(np.array_equal(f1, f2))


if __name__ == "__main__":
    unittest.main()
