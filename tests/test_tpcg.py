"""Truncated PCG against dense direct solves plus solver-report contracts."""

import importlib
import io

import numpy as np
import pytest
import scipy.linalg as sla

from lriga.assembly import assemble_system
from lriga.bsplines import (
    BC_DIRICHLET,
    SplineSpace1D,
    assemble_pencil,
)
from lriga.eigen import approx_eigen
from lriga.fastdiag import build_lowrank_fd
from lriga.geometry import GeometryError, GeometryMap, get_geometry
from lriga import manufactured as bench
from oracle import dense_operator
from lriga.tpcg import (
    SolveReport,
    TpcgConfig,
    error_norms,
    tpcg,
)
from lriga.tucker import (
    TuckerOperator3,
    TuckerTensor3,
    compression_percent,
    to_dense,
    tucker_add,
    tucker_scale,
    vec,
)

from test_elasticity import solve_column
from util import (
    dense_kron_sum,
    dense_scaled_fd,
    exact_fd,
    residual_jump,
)

# the module, not the function that the package re-exports under its name
TPCG_MODULE = importlib.import_module("lriga.tpcg")
DD = (BC_DIRICHLET, BC_DIRICHLET)


def make_spaces(p, n_el):
    return tuple(SplineSpace1D(p, n_el, DD) for _ in range(3))


def one(pts):
    return np.ones(np.asarray(pts).shape[:-1])


def lowrank_pc(spaces, eps=1e-1):
    eigs = [approx_eigen(s, assemble_pencil(s)) for s in spaces]
    return build_lowrank_fd(eigs, eps)


def solve_poisson(preset, p, n_el, tol_rel=1e-6, precond=None,
                  diagonal_scaling=True):
    spaces = make_spaces(p, n_el)
    geo = get_geometry(preset)
    system = assemble_system(spaces, geo, one, max(tol_rel * 1e-1, 1e-12))
    if precond is None:
        precond = lowrank_pc(spaces)
    cfg = TpcgConfig.relative(tol_rel, system.rhs.norm(),
                              diagonal_scaling=diagonal_scaling)
    x, report = tpcg(system.op, system.rhs, precond, cfg)
    return system, x, report, cfg


def test_cube_exact_fd_converges_fast():
    spaces = make_spaces(2, 16)
    geo = get_geometry("unit_cube")
    system = assemble_system(spaces, geo, one, 1e-7)
    pc = exact_fd([assemble_pencil(s) for s in spaces])
    cfg = TpcgConfig.relative(1e-6, system.rhs.norm())
    x, report = tpcg(system.op, system.rhs, pc, cfg)
    assert report.converged
    assert not report.breakdown
    # even with the exact inverse as preconditioner, the update-ratio test
    # admits truncation errors up to sqrt(delta) of each step, so the error
    # contracts by ~3% per iteration at best: 1e-6 needs about 5 sweeps
    assert report.iterations <= 6
    # stopping test sees the truncated residual; the exact one logged at
    # exit can exceed it by at most beta * tol
    assert report.final_residual <= 1.2 * cfg.tol


@pytest.mark.parametrize(
    "preset,n_el",
    [("unit_cube", 4), ("quarter_annulus", 4), ("spherical_shell", 6)],
)
def test_matches_dense_direct_solve(preset, n_el):
    system, x, report, cfg = solve_poisson(preset, 2, n_el)
    assert report.converged
    A = dense_operator(system.op)
    b = vec(to_dense(system.rhs))
    ref = np.linalg.solve(A, b)
    lam_min = np.linalg.eigvalsh(A)[0]
    err = np.linalg.norm(vec(to_dense(x)) - ref)
    assert err <= cfg.tol / lam_min


def test_zero_rhs_returns_zero():
    spaces = make_spaces(2, 4)
    geo = get_geometry("unit_cube")
    system = assemble_system(spaces, geo, one, 1e-8)
    pc = exact_fd([assemble_pencil(s) for s in spaces])
    zero = tucker_scale(system.rhs, 0.0)
    cfg = TpcgConfig(tol=1e-12)
    x, report = tpcg(system.op, zero, pc, cfg)
    assert report.converged
    assert report.iterations == 0
    assert x.norm() == 0.0


def test_annulus_sweep_preview():
    iters = []
    for n_el in (8, 16):
        system, x, report, cfg = solve_poisson("quarter_annulus", 2, n_el)
        assert report.converged, (n_el, report.res_norms)
        assert not residual_jump(report)
        iters.append(report.iterations)
        # low-rank directions stay comparable to the solution's ranks
        assert max(report.ranks_r[-1] + report.ranks_p[-1]) <= 3 * max(
            report.ranks_x[-1]
        )
    assert max(iters) <= 30


def test_eps0_independence_on_cube(monkeypatch):
    monkeypatch.setattr(TPCG_MODULE, "EPS0", 1e-1)
    _, xa, ra, cfg = solve_poisson("unit_cube", 2, 8)
    monkeypatch.setattr(TPCG_MODULE, "EPS0", 1e-2)
    _, xb, rb, _ = solve_poisson("unit_cube", 2, 8)
    assert ra.converged and rb.converged
    assert (ra.eps_history[0], rb.eps_history[0]) == (1e-1, 1e-2)
    diff = tucker_add(xa, tucker_scale(xb, -1.0)).norm()
    assert diff <= 10.0 * cfg.tol


def dense_residual(op, rhs, x):
    """``|rhs - A x|`` with every block of ``op`` expanded densely."""
    blocks = op.blocks if hasattr(op, "blocks") else [[op]]
    A = np.block([[dense_operator(b) for b in row] for row in blocks])

    def flat(t):
        parts = t.components if hasattr(t, "components") else (t,)
        return np.concatenate([vec(to_dense(c)) for c in parts])

    return np.linalg.norm(flat(rhs) - A @ flat(x))


@pytest.mark.parametrize("tol_rel, diagonal_scaling", [
    pytest.param(tol, scaled, id=str(tol) + ("" if scaled else "-paper"))
    for tol in (1e-6, 1e-8, 1e-10) for scaled in (True, False)])
@pytest.mark.parametrize("solve, args", [
    (solve_poisson, ("quarter_annulus", 2, 8)),
    (solve_poisson, ("spherical_shell", 3, 5)),
    (solve_column, (2, 3)),
], ids=["quarter_annulus", "spherical_shell", "deformed_column"])
def test_final_residual_matches_dense(solve, args, tol_rel, diagonal_scaling):
    # near convergence f - A x is a difference of nearly equal tensors; the
    # reported norm must still agree with the dense residual, with either
    # preconditioner
    system, x, report, cfg = solve(*args, tol_rel,
                                   diagonal_scaling=diagonal_scaling)
    assert report.converged
    dense = dense_residual(system.op, system.rhs, x)
    assert abs(report.final_residual - dense) <= 1e-2 * dense
    assert report.final_residual <= cfg.tol


RHS_SCALES = (1e-6, 1.0, 1e6)


def solve_scaled(op, rhs, precond, tol_rel):
    """The system op x = s rhs solved at tol_rel for each s in RHS_SCALES:
    (iterations, ranks of x, converged, final residual / |s rhs|) each."""
    out = []
    for s in RHS_SCALES:
        b = s * rhs
        cfg = TpcgConfig.relative(tol_rel, b.norm())
        _, report = tpcg(op, b, precond, cfg)
        out.append((report.iterations, report.ranks_x, report.converged,
                    report.final_residual / report.rhs_norm))
    return out


@pytest.mark.parametrize("tol_rel", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("preset,p,n_el", [
    ("quarter_annulus", 3, 16), ("spherical_shell", 3, 12)])
def test_solve_does_not_depend_on_rhs_scale(preset, p, n_el, tol_rel):
    # every truncation tolerance, the dynamic floor included, is relative,
    # so scaling the rhs scales the iterates and changes nothing else
    spaces = make_spaces(p, n_el)
    system = assemble_system(spaces, get_geometry(preset), one,
                             max(tol_rel * 1e-1, 1e-12))
    runs = solve_scaled(system.op, system.rhs, lowrank_pc(spaces), tol_rel)
    for iterations, ranks, converged, rel_residual in runs:
        assert converged, (iterations, rel_residual)
        assert rel_residual <= tol_rel
        assert (iterations, ranks) == runs[1][:2]


def test_residual_jump_flag():
    rep = SolveReport(tol=1e-6, rhs_norm=1.0)
    rep.res_norms = [1.0, 0.5, 6.0]
    assert residual_jump(rep)
    rep.res_norms = [1.0, 5.0, 0.1]
    assert not residual_jump(rep)


def test_nonconvergence_is_flagged():
    spaces = make_spaces(2, 8)
    geo = get_geometry("quarter_annulus")
    system = assemble_system(spaces, geo, one, 1e-8)
    cfg = TpcgConfig.relative(1e-6, system.rhs.norm(), max_iterations=2)
    x, report = tpcg(system.op, system.rhs, lowrank_pc(spaces), cfg)
    assert not report.converged
    assert report.iterations == 2


def test_negative_operator_is_a_breakdown():
    # -A has p^T (-A) p < 0 on the first direction: flagged, not raised;
    # the diagonal scaling refuses it before the loop, naming the entry
    spaces = make_spaces(2, 4)
    system = assemble_system(spaces, get_geometry("unit_cube"), one, 1e-7)
    negated = TuckerOperator3(-system.op.core, system.op.factors)
    cfg = TpcgConfig.relative(1e-6, system.rhs.norm())
    with pytest.raises(ValueError, match=r"diag\(A\) entry \(0, 0, 0\)"):
        tpcg(negated, system.rhs, lowrank_pc(spaces), cfg)
    cfg.diagonal_scaling = False
    x, report = tpcg(negated, system.rhs, lowrank_pc(spaces), cfg)
    assert report.breakdown
    assert not report.converged
    assert report.iterations == 0
    assert len(report.res_norms) == 1
    assert report.kappa_est is None
    assert x.norm() == 0.0


@pytest.mark.parametrize("preset", ["spherical_shell", "quarter_annulus"])
def test_kappa_estimate_matches_dense_spectrum(preset):
    # the Lanczos tridiagonal of the loop's own coefficients against the
    # generalized eigenvalues of (A, P^-1), for the paper's preconditioner
    # A_FD^-1 and the default H V D^-1 V^T H (its dense oracle); a tight
    # tolerance lets the extreme Ritz values converge
    spaces = make_spaces(3, 10)
    system = assemble_system(spaces, get_geometry(preset), one, 1e-11)
    P = lowrank_pc(spaces)
    A = dense_operator(system.op)
    A_FD = dense_kron_sum(spaces, (1.0, 1.0, 1.0))
    kappa = {}
    for scaled, P_inv in ((False, A_FD),
                          (True, dense_scaled_fd(A, P.eigs).P_inv)):
        cfg = TpcgConfig.relative(1e-10, system.rhs.norm(),
                                  diagonal_scaling=scaled)
        _, report = tpcg(system.op, system.rhs, P, cfg)
        assert report.converged
        assert len(report.omegas) == report.iterations
        assert len(report.betas) == report.iterations - 1
        ev = sla.eigh(A, P_inv, eigvals_only=True)
        exact = ev[-1] / ev[0]
        assert abs(report.kappa_est - exact) <= 0.02 * exact, (scaled, exact)
        kappa[scaled] = report.kappa_est
    if preset == "spherical_shell":
        assert kappa[True] < 0.6 * kappa[False]


def test_csv_round_trip():
    _, _, report, _ = solve_poisson("unit_cube", 2, 4)
    buf = io.StringIO()
    report.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "iter,res_norm,rx1,rx2,rx3,rr1,rr2,rr3,rp1,rp2,rp3,eps_k"
    assert len(lines) == len(report.res_norms) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == report.res_norms[0]


def test_memory_compression_examples():
    rng = np.random.default_rng(0)
    x = TuckerTensor3(
        rng.standard_normal((5, 5, 5)),
        tuple(rng.standard_normal((100, 5)) for _ in range(3)),
    )
    assert compression_percent(x) == 0.1625
    full = TuckerTensor3(
        rng.standard_normal((4, 4, 4)),
        tuple(rng.standard_normal((4, 4)) for _ in range(3)),
    )
    assert compression_percent(full) == 175.0
    tiny = TuckerTensor3(
        np.ones((1, 1, 1)),
        tuple(np.ones((1024, 1)) for _ in range(3)),
    )
    assert abs(compression_percent(tiny) - 2.86e-4) <= 1e-6


def test_error_norms_reproduces_space_member():
    spaces = make_spaces(3, 4)
    geo = get_geometry("unit_cube")
    rng = np.random.default_rng(7)
    a = [rng.standard_normal((s.n, 1)) for s in spaces]
    x = TuckerTensor3(np.ones((1, 1, 1)), tuple(a))

    def u_exact(pts):
        pts = np.asarray(pts)
        flat = pts.reshape(-1, 3)
        vals = [
            np.asarray(s.collocation_matrix(flat[:, k], deriv=0) @ a[k]).ravel()
            for k, s in enumerate(spaces)
        ]
        return (vals[0] * vals[1] * vals[2]).reshape(pts.shape[:-1])

    def grad_exact(pts):
        pts = np.asarray(pts)
        flat = pts.reshape(-1, 3)
        v = [
            np.asarray(s.collocation_matrix(flat[:, k], deriv=0) @ a[k]).ravel()
            for k, s in enumerate(spaces)
        ]
        d = [
            np.asarray(s.collocation_matrix(flat[:, k], deriv=1) @ a[k]).ravel()
            for k, s in enumerate(spaces)
        ]
        g = np.stack(
            [d[0] * v[1] * v[2], v[0] * d[1] * v[2], v[0] * v[1] * d[2]],
            axis=-1,
        )
        return g.reshape(pts.shape[:-1] + (3,))

    l2, h1 = error_norms(x, spaces, geo, u_exact, grad_exact)
    assert l2 <= 1e-10
    assert h1 <= 1e-9


def test_error_norms_zero_vs_zero():
    spaces = make_spaces(2, 4)
    geo = get_geometry("quarter_annulus")
    x = TuckerTensor3(
        np.zeros((1, 1, 1)),
        tuple(np.zeros((s.n, 1)) for s in spaces),
    )
    l2, h1 = error_norms(x, spaces, geo, lambda p: 0.0 * p[..., 0],
                         lambda p: 0.0 * p)
    assert l2 == 0.0
    assert h1 == 0.0


def test_l2_only_error_norms_never_inverts(monkeypatch):
    # the L2 error needs det J alone; J^-1 is formed only for the H1 error,
    # and leaving it out changes no bit of the L2 error
    spaces = make_spaces(2, 4)
    geo = get_geometry("quarter_annulus")
    rng = np.random.default_rng(29)
    x = TuckerTensor3(rng.standard_normal((2, 2, 2)),
                      tuple(rng.standard_normal((s.n, 2)) for s in spaces))
    l2_ref, _ = error_norms(x, spaces, geo, bench.u, bench.grad)
    inverted = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a) or inv(a))
    l2, h1 = error_norms(x, spaces, geo, bench.u)
    assert (l2, h1, inverted) == (l2_ref, None, [])
    error_norms(x, spaces, geo, bench.u, bench.grad)
    assert inverted

    flat = GeometryMap("flat", geo.F, lambda eta: 0.0 * geo.jac(eta))
    with pytest.raises(GeometryError, match="non-positive"):
        error_norms(x, spaces, flat, bench.u)


def test_manufactured_error_drops_with_refinement():
    geo = get_geometry("quarter_annulus")
    errs = []
    for n_el in (8, 16):
        spaces = make_spaces(2, n_el)
        system = assemble_system(spaces, geo, bench.parametric_load(geo), 1e-9)
        cfg = TpcgConfig.relative(1e-8, system.rhs.norm())
        x, report = tpcg(system.op, system.rhs, lowrank_pc(spaces), cfg)
        assert report.converged
        l2, _ = error_norms(x, spaces, geo, bench.u)
        errs.append(l2)
    # cubic convergence for quadratic splines; allow a pre-asymptotic margin
    assert errs[0] / errs[1] >= 4.0
