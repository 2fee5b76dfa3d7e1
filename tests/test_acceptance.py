"""Acceptance gate: one check per shipped guarantee, one line each.

Every test prints a single ``ACCEPTANCE nn <name> PASS|FAIL`` line before
asserting, so a full run reads as a checklist.
"""

import numpy as np
import pytest

from lriga.assembly import assemble_system
from lriga.bsplines import (
    BC_DIRICHLET,
    BC_NEUMANN,
    SplineSpace1D,
    assemble_pencil,
)
from lriga.eigen import approx_eigen
from lriga.elasticity import (
    BlockTuckerVector,
    assemble_elasticity,
    block_preconditioner,
    block_tpcg,
)
from lriga.expsum import build_exp_sum
from lriga.fastdiag import build_lowrank_fd
from lriga.geometry import get_geometry
from lriga.manufactured import poisson_benchmark
from oracle import dense_operator
from lriga.tpcg import TpcgConfig, error_norms, tpcg
from lriga.tucker import (
    TuckerTensor3,
    compression_percent,
    to_dense,
    tucker_add,
    tucker_inner,
    tucker_matvec,
    vec,
)
from lriga.truncation import truncate_rel

from util import dense_kron_sum, densify_apply, random_operator, random_tucker

D, N = BC_DIRICHLET, BC_NEUMANN
DD, NN = (D, D), (N, N)


def report(num, name, failures):
    status = "FAIL" if failures else "PASS"
    print("ACCEPTANCE %02d %-26s %s" % (num, name, status))
    assert not failures, failures[:5]


def make_spaces(p, n_el, bcs=(DD, DD, DD)):
    return tuple(SplineSpace1D(p, n_el, bc) for bc in bcs)


def one(pts):
    return np.ones(np.asarray(pts).shape[:-1])


def solve_poisson(preset, p, n_el, tol_rel=1e-6):
    spaces = make_spaces(p, n_el)
    geo = get_geometry(preset)
    system = assemble_system(spaces, geo, one, max(1e-1 * tol_rel, 1e-12))
    eigs = [approx_eigen(s, assemble_pencil(s)) for s in spaces]
    precond = build_lowrank_fd(eigs, 1e-1)
    cfg = TpcgConfig.relative(tol_rel, system.rhs.norm())
    x, rep = tpcg(system.op, system.rhs, precond, cfg)
    return system, x, rep, cfg


def test_criterion_01_truncation_contract():
    rng = np.random.default_rng(100)
    failures = []
    for i in range(500):
        dims = tuple(rng.integers(3, 17) for _ in range(3))
        ranks = tuple(int(rng.integers(1, min(n, 6) + 1)) for n in dims)
        y = random_tucker(rng, dims, ranks)
        norm = y.norm()
        dense = to_dense(y)
        for eps in (1e-1, 1e-3, 1e-6):
            yt = truncate_rel(y, eps)
            err = np.linalg.norm(dense - to_dense(yt))
            if err > eps * norm * (1.0 + 1e-12):
                failures.append((i, eps, err / norm))
    report(1, "truncation contract", failures)


def test_criterion_02_algebra_oracles():
    rng = np.random.default_rng(200)
    failures = []
    for i in range(200):
        dims = tuple(rng.integers(3, 7) for _ in range(3))
        rx = tuple(rng.integers(1, 4) for _ in range(3))
        ry = tuple(rng.integers(1, 4) for _ in range(3))
        ro = tuple(rng.integers(1, 4) for _ in range(3))
        x = random_tucker(rng, dims, rx)
        y = random_tucker(rng, dims, ry)
        op = random_operator(rng, dims, ro)
        A = dense_operator(op)
        xd, yd = vec(to_dense(x)), vec(to_dense(y))

        m = np.linalg.norm(vec(to_dense(tucker_matvec(op, x))) - A @ xd)
        if m > 1e-12 * max(np.linalg.norm(A @ xd), 1.0):
            failures.append((i, "matvec", m))
        a = np.linalg.norm(vec(to_dense(tucker_add(x, y))) - (xd + yd))
        if a > 1e-12 * max(np.linalg.norm(xd + yd), 1.0):
            failures.append((i, "add", a))
        ip = abs(tucker_inner(x, y) - float(xd @ yd))
        if ip > 1e-12 * max(abs(float(xd @ yd)), 1.0):
            failures.append((i, "inner", ip))
    report(2, "algebra vs dense oracles", failures)


def test_criterion_03_exp_sum_quality():
    failures = []
    for M, r_ref in [(1.6e4, 11), (2.6e5, 16)]:
        es = build_exp_sum(1.0, M, 1e-1)
        if es.error > 1e-1 / M:
            failures.append((M, "sup error", es.error, 1e-1 / M))
        if es.R > 2 * r_ref:
            failures.append((M, "rank", es.R, 2 * r_ref))
    report(3, "exp-sum quality", failures)


def test_criterion_04_spectral_sandwich():
    failures = []
    for bcs in [(DD, DD, DD), (DD, NN, NN), (NN, NN, DD)]:
        spaces = tuple(
            SplineSpace1D(2, 6 if bc == DD else 4, bc) for bc in bcs
        )
        assert tuple(s.n for s in spaces) == (6, 6, 6)
        eigs = [approx_eigen(s, assemble_pencil(s)) for s in spaces]
        P = build_lowrank_fd(eigs, 1e-1)
        Pd = densify_apply(P.apply, (6, 6, 6))
        Dd = dense_kron_sum(spaces, (1.0, 1.0, 1.0))
        ev = np.linalg.eigvals(Pd @ Dd)
        if np.max(np.abs(ev.imag)) > 1e-8:
            failures.append((bcs, "complex spectrum"))
        lo, hi = np.min(ev.real), np.max(ev.real)
        if lo < 0.9 or hi > 1.1:
            failures.append((bcs, lo, hi))
    report(4, "spectral sandwich", failures)


def test_criterion_05_annulus_iteration_sweep():
    failures = []
    iters = []
    for p in (2, 3, 4):
        for n_el in (16, 32, 64):
            _, _, rep, _ = solve_poisson("quarter_annulus", p, n_el)
            if not rep.converged:
                failures.append((p, n_el, "not converged"))
            if rep.iterations > 30:
                failures.append((p, n_el, rep.iterations))
            iters.append(rep.iterations)
    if max(iters) / min(iters) > 1.5:
        failures.append(("max/min", max(iters), min(iters)))
    report(5, "annulus iteration sweep", failures)


def _convergence_errors(p, levels):
    geo = get_geometry("quarter_annulus")
    bench = poisson_benchmark()
    out = []
    for level in levels:
        n_el = 2 ** level
        spaces = make_spaces(p, n_el)
        f = bench.parametric_load(geo)
        eigs = [approx_eigen(s, assemble_pencil(s)) for s in spaces]
        precond = build_lowrank_fd(eigs, 1e-1)

        system = assemble_system(spaces, geo, f, 1e-6)
        rhs_norm = system.rhs.norm()
        x, _ = tpcg(
            system.op, system.rhs, precond, TpcgConfig(tol=1e-4 * rhs_norm)
        )
        l2_est, _ = error_norms(x, spaces, geo, bench.u)

        tol_abs = l2_est / 100.0
        system = assemble_system(
            spaces, geo, f, max(tol_abs / (10.0 * rhs_norm), 1e-12)
        )
        x, _ = tpcg(system.op, system.rhs, precond, TpcgConfig(tol=tol_abs))
        out.append(error_norms(x, spaces, geo, bench.u, bench.grad))
    return out


def test_criterion_06_convergence_orders():
    levels = [3, 4, 5]
    failures = []
    for p in (2, 3):
        errs = _convergence_errors(p, levels)
        logh = [-lv * np.log(2.0) for lv in levels]
        sl2 = np.polyfit(logh, [np.log(e[0]) for e in errs], 1)[0]
        sh1 = np.polyfit(logh, [np.log(e[1]) for e in errs], 1)[0]
        if abs(sl2 - (p + 1)) > 0.3:
            failures.append((p, "l2 slope", round(sl2, 3)))
        if abs(sh1 - p) > 0.3:
            failures.append((p, "h1 slope", round(sh1, 3)))
    report(6, "convergence orders", failures)


def test_criterion_07_assembly_ranks():
    failures = []
    spaces = make_spaces(2, 4)
    annulus = assemble_system(
        spaces, get_geometry("quarter_annulus"), one, 1e-6
    )
    if annulus.op.rank != (3, 3, 3):
        failures.append(("annulus", annulus.op.rank))
    shell = assemble_system(
        spaces, get_geometry("spherical_shell"), one, 1e-6
    )
    for got, want in zip(shell.op.rank, (13, 13, 9)):
        if abs(got - want) > 2:
            failures.append(("shell", shell.op.rank))
            break
    report(7, "assembly ranks", failures)


def test_criterion_08_end_to_end_vs_dense():
    failures = []
    for preset in (
        "unit_cube",
        "quarter_annulus",
        "spherical_shell",
        "deformed_column",
    ):
        for n in (4, 6):
            system, x, rep, cfg = solve_poisson(preset, 2, n)
            A = dense_operator(system.op)
            want = np.linalg.solve(A, vec(to_dense(system.rhs)))
            lam_min = np.linalg.eigvalsh(A)[0]
            err = np.linalg.norm(vec(to_dense(x)) - want)
            if err > cfg.tol / lam_min:
                failures.append((preset, n, err, cfg.tol / lam_min))
    report(8, "end-to-end vs dense solve", failures)


def test_criterion_09_eigen_construction():
    # exact eigenbasis: U^T M U = I and K U = M U diag(lambdas)
    failures = []
    for p in (3, 4, 5):
        for bc in [(D, D), (N, N), (N, D), (D, N)]:
            for n_el in (8, 16):
                space = SplineSpace1D(p, n_el, bc)
                pencil = assemble_pencil(space)
                E = approx_eigen(space, pencil)
                M, K = pencil.M.toarray(), pencil.K.toarray()
                U = E.U
                ortho = np.linalg.norm(U.T @ M @ U - np.eye(E.n))
                resid = np.linalg.norm(K @ U - M @ U * E.lambdas)
                if ortho > 1e-10:
                    failures.append((p, bc, n_el, "M-orthonormal", ortho))
                if resid > 1e-8 * np.linalg.norm(K):
                    failures.append((p, bc, n_el, "eigen residual", resid))
    report(9, "eigen construction", failures)


def test_criterion_10_elasticity_column():
    lam, mu = 0.3 / 0.52, 1.0 / 2.6
    geo = get_geometry("deformed_column")
    failures = []

    def solve(p, n_el, eps):
        spaces = make_spaces(p, n_el, bcs=(NN, NN, DD))
        system = assemble_elasticity(
            spaces, geo, (0.0, 0.0, -1.0), lam, mu, eps,
            dirichlet=((2, 2, 0, 0.0), (2, 2, 1, -0.5)),
        )
        precond = block_preconditioner(spaces, lam, mu, 1e-1)
        cfg = TpcgConfig.relative(1e-6, system.rhs.norm())
        x, rep = block_tpcg(system.op, system.rhs, precond, cfg)
        return system, x, rep, cfg

    for n_el in (8, 16, 32):
        _, _, rep, _ = solve(3, n_el, 1e-7)
        if not rep.converged or rep.breakdown:
            failures.append((n_el, "not converged"))
        if rep.iterations > 60:
            failures.append((n_el, rep.iterations))

    system, x, rep, cfg = solve(2, 2, 1e-10)
    Nn = int(np.prod([s.n for s in system.spaces]))
    A = np.zeros((3 * Nn, 3 * Nn))
    for a in range(3):
        for b in range(3):
            A[a * Nn:(a + 1) * Nn, b * Nn:(b + 1) * Nn] = dense_operator(
                system.op.blocks[a][b]
            )
    rhs = np.concatenate([vec(to_dense(c)) for c in system.rhs.components])
    want = np.linalg.solve(A, rhs)
    got = np.concatenate([vec(to_dense(c)) for c in x.components])
    bound = cfg.tol / np.linalg.eigvalsh(A)[0]
    if np.linalg.norm(got - want) > bound:
        failures.append(("tiny dense match", np.linalg.norm(got - want)))
    report(10, "elasticity column", failures)


def test_criterion_11_memory_compression():
    rng = np.random.default_rng(1100)
    failures = []

    x = random_tucker(rng, (100, 100, 100), (5, 5, 5))
    if compression_percent(x) != 0.1625:
        failures.append(("scalar", compression_percent(x)))

    y = random_tucker(rng, (4, 4, 4), (4, 4, 4))
    if compression_percent(y) != 175.0:
        failures.append(("overcomplete", compression_percent(y)))

    tiny = TuckerTensor3(
        np.ones((1, 1, 1)), tuple(np.ones((1024, 1)) for _ in range(3))
    )
    if abs(compression_percent(tiny) - 2.86e-4) > 1e-6:
        failures.append(("near-zero", compression_percent(tiny)))

    b = BlockTuckerVector(
        tuple(
            random_tucker(rng, (64, 64, 64), r)
            for r in [(3, 2, 4), (1, 1, 1), (2, 2, 2)]
        )
    )
    stored = sum(
        r1 * r2 * r3 + 64 * (r1 + r2 + r3)
        for r1, r2, r3 in [(3, 2, 4), (1, 1, 1), (2, 2, 2)]
    )
    if compression_percent(b) != 100.0 * stored / (3 * 64 ** 3):
        failures.append(("block", compression_percent(b)))
    report(11, "memory compression", failures)
