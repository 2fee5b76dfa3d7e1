"""Fast-diagonalization preconditioners: exact oracle and low-rank form."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from lriga.assembly import assemble_system
from lriga.bsplines import (
    BC_DIRICHLET,
    BC_NEUMANN,
    SplineSpace1D,
    assemble_pencil,
)
from lriga.eigen import approx_eigen
from lriga.elasticity import assemble_elasticity, block_preconditioner
from lriga.expsum import ExpSumError
from lriga import fastdiag
from lriga.fastdiag import FastDiagError, build_lowrank_fd, diagonal_scaling
from lriga.geometry import get_geometry
from lriga.tpcg import TpcgConfig, tpcg
from lriga import tucker
from oracle import dense_operator, expsum_apply, from_dense, kron3
from lriga.tucker import (
    TuckerOperator3,
    identity,
    to_dense,
    tucker_zero,
    vec,
)

from test_elasticity import LAM, MU, column_system
from util import (
    ExactFD,
    dense_scaled_fd,
    densify_apply,
    exact_fd,
    expsum_values,
    kron_fd_scaling,
    random_tucker,
)

D, N = BC_DIRICHLET, BC_NEUMANN


def _cube(p, n_el):
    """Identical spline pencils in all three directions (unit-cube Laplacian)."""
    space = SplineSpace1D(p, n_el, bc=(D, D))
    pencil = assemble_pencil(space)
    return space, pencil


def _kron_sum(pencil):
    K = pencil.K.toarray()
    M = pencil.M.toarray()
    return kron3(K, M, M) + kron3(M, K, M) + kron3(M, M, K)


def _eigs(space, pencil):
    return [approx_eigen(space, pencil) for _ in range(3)]


def _dense_lowrank(P):
    """Densify the exponential-sum preconditioner through its sandwich form
    sum_j omega_j / lam_min kron_k U_k diag(exp(-alpha_j lam_k / lam_min))
    U_k^T, read from ``P.expsum`` and the weighted eigenvalues ``P.lam``."""
    total = 0.0
    for w, a in zip(P.expsum.weights, P.expsum.exponents):
        mats = [e.U @ np.diag(np.exp(-a * v / P.lam_min)) @ e.U.T
                for e, v in zip(P.eigs, P.lam)]
        total = total + (w / P.lam_min) * kron3(*mats)
    return total


# ------------------------------------------------------------- exact path


def test_exact_roundtrip():
    space, pencil = _cube(2, 8)
    fd = exact_fd([pencil] * 3)
    A = _kron_sum(pencil)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(space.n ** 3)
    S = x.reshape((space.n,) * 3, order="F")
    y = vec(fd.apply_array(S.reshape((space.n,) * 3, order="F")))
    # P^-1 (P x) = x through the dense operator
    back = vec(fd.apply_array((A @ x).reshape((space.n,) * 3, order="F")))
    assert np.max(np.abs(back - x)) < 1e-10 * np.max(np.abs(x))
    assert np.max(np.abs(A @ y - x)) < 1e-8 * np.max(np.abs(x))


def test_exact_matches_inverted_kron_sum():
    space, pencil = _cube(1, 4)
    assert space.n == 3
    fd = exact_fd([pencil] * 3)
    A = _kron_sum(pencil)
    Ainv = np.linalg.inv(A)
    cols = []
    for k in range(27):
        e = np.zeros(27)
        e[k] = 1.0
        cols.append(vec(fd.apply_array(e.reshape((3, 3, 3), order="F"))))
    P = np.column_stack(cols)
    assert np.max(np.abs(P - Ainv)) < 1e-10 * np.max(np.abs(Ainv))


def test_exact_apply_tucker_consistent_with_dense():
    space, pencil = _cube(2, 6)
    fd = exact_fd([pencil] * 3)
    rng = np.random.default_rng(1)
    t = random_tucker(rng, (space.n,) * 3, (3, 2, 3))
    out = fd.apply(t)
    expect = fd.apply_array(to_dense(t))
    assert np.max(np.abs(to_dense(out) - expect)) < 1e-12 * np.max(np.abs(expect))


# --------------------------------------------------------- low-rank build


def test_sandwich_eigenvalue_bounds():
    for n_el in (4, 6):
        space, pencil = _cube(2, n_el)
        eigs = _eigs(space, pencil)
        eps = 1e-1
        P = build_lowrank_fd(eigs, eps)
        lam = [np.asarray(e.lambdas) for e in eigs]
        sums = (lam[0][:, None, None] + lam[1][None, :, None]
                + lam[2][None, None, :]).ravel()
        stilde = np.zeros_like(sums)
        for j in range(P.R):
            w = P.expsum.weights[j] / P.lam_min
            stilde += w * np.exp(-P.expsum.exponents[j] * sums / P.lam_min)
        ratios = sums * stilde  # eigenvalues of D^-1 D-tilde
        assert np.all(ratios >= 1.0 - eps - 1e-12)
        assert np.all(ratios <= 1.0 + eps + 1e-12)


def test_lam_min_is_sum_of_direction_minima():
    space, pencil = _cube(2, 5)
    eigs = _eigs(space, pencil)
    P = build_lowrank_fd(eigs, 1e-1)
    assert P.lam_min == pytest.approx(3 * min(eigs[0].lambdas))
    assert P.lam_max == pytest.approx(3 * max(eigs[0].lambdas))


def test_weighted_directions_shift_interval():
    space, pencil = _cube(2, 5)
    eigs = _eigs(space, pencil)
    w = (2.5, 1.0, 1.0)
    P = build_lowrank_fd(eigs, 1e-1, weights=w)
    lam = [wi * np.asarray(e.lambdas) for wi, e in zip(w, eigs)]
    assert P.lam_min == pytest.approx(sum(np.min(v) for v in lam))
    sums = (lam[0][:, None, None] + lam[1][None, :, None]
            + lam[2][None, None, :]).ravel()
    vals = sums * (expsum_values(P.expsum, sums / P.lam_min) / P.lam_min)
    assert np.all(np.abs(vals - 1.0) <= 1e-1 + 1e-12)


def test_expsum_failure_propagates():
    space, pencil = _cube(4, 32)
    eigs = _eigs(space, pencil)
    # M is about 2.5e3 here, so the a-priori floor of eps_rel 1e-60 is
    # 144 terms, above expsum.R_CAP = 128, so no fit runs
    with pytest.raises(ExpSumError):
        build_lowrank_fd(eigs, 1e-60)


def test_direction_with_no_basis_function_raises():
    # p = 1 on one element between two Dirichlet ends keeps no function
    empty = SplineSpace1D(1, 1, bc=(D, D))
    none = approx_eigen(empty, assemble_pencil(empty))
    some = _eigs(*_cube(2, 4))[0]
    with pytest.raises(FastDiagError, match="direction 2 keeps no basis"):
        build_lowrank_fd([some, some, none], 1e-1)
    with pytest.raises(FastDiagError, match="direction 0 keeps no basis"):
        build_lowrank_fd([none] * 3, 1e-1)


def test_bad_eps_rel_raises_at_construction():
    space, pencil = _cube(2, 4)
    for eps in (0.0, -1e-3):
        with pytest.raises(ValueError, match="eps_rel > 0"):
            build_lowrank_fd(_eigs(space, pencil), eps)


# ------------------------------------------------------------ exact apply


def _inputs(dims):
    """A low-rank Tucker tensor and one at the cap, whose factors are the
    shared ``identity(n)`` in one copy and plain ``np.eye(n)`` in another."""
    rng = np.random.default_rng(11)
    capped = tucker.TuckerTensor3(rng.standard_normal(dims),
                                  tuple(identity(n) for n in dims))
    return [random_tucker(rng, dims, (2, 3, 1)), capped, from_dense(to_dense(capped))]


def _assert_exact(P, fd):
    for t in _inputs(P.dims):
        out = P.apply(t)
        assert out.rank == P.dims
        assert all(F is identity(n) for F, n in zip(out.factors, P.dims))
        want = fd.apply_array(to_dense(t))
        err = np.linalg.norm(to_dense(out) - want)
        assert err <= 1e-12 * np.linalg.norm(want)


def test_exact_apply_matches_exact_fd():
    spaces = (SplineSpace1D(3, 5, (D, D)), SplineSpace1D(3, 6, (N, D)),
              SplineSpace1D(2, 7, (D, N)))
    eigs = [approx_eigen(s, assemble_pencil(s)) for s in spaces]
    _assert_exact(build_lowrank_fd(eigs, 1e-1), ExactFD(eigs))


def test_exact_apply_matches_weighted_elasticity_parts():
    lam, mu = 0.3 / 0.52, 1.0 / 2.6
    spaces = (SplineSpace1D(2, 5, (N, N)), SplineSpace1D(2, 4, (N, N)),
              SplineSpace1D(2, 6, (D, D)))
    P = block_preconditioner(spaces, lam, mu, 1e-1)
    for i, part in enumerate(P.parts):
        weights = [2.0 * mu + lam if d == i else mu for d in range(3)]
        _assert_exact(part, ExactFD(part.eigs, weights))


def test_apply_above_guard_raises(monkeypatch):
    # the exact inverse is the only apply: above the guard it is refused,
    # naming the dims and the guard, before any mode product runs
    space, pencil = _cube(2, 8)
    P = build_lowrank_fd(_eigs(space, pencil), 1e-1)
    n1, n2, n3 = P.dims
    t = random_tucker(np.random.default_rng(8), P.dims, (1, 2, 1))
    monkeypatch.setattr(tucker, "DENSE_GUARD", n1 * n2 * n3 - 1)

    def no_product(*args):
        raise AssertionError("mode product above the guard")

    monkeypatch.setattr(fastdiag, "mode_product", no_product)
    with pytest.raises(tucker.MemoryGuardError,
                       match=r"%d x %d x %d exceeds guard %d"
                       % (n1, n2, n3, n1 * n2 * n3 - 1)):
        P.apply(t)
    assert "expsum" not in vars(P)


def test_solve_below_guard_fits_no_sum():
    spaces = tuple(SplineSpace1D(2, 6, (D, D)) for _ in range(3))
    system = assemble_system(spaces, get_geometry("quarter_annulus"),
                             lambda pts: np.ones(pts.shape[:-1]), 1e-7)
    P = build_lowrank_fd(
        [approx_eigen(s, assemble_pencil(s)) for s in spaces], 1e-1)
    _, rep = tpcg(system.op, system.rhs, P,
                  TpcgConfig.relative(1e-6, system.rhs.norm()))
    assert rep.converged
    assert "expsum" not in vars(P)
    # the column's three weighted parts, applied in every block iteration
    lam, mu = 0.3 / 0.52, 1.0 / 2.6
    spaces = (SplineSpace1D(2, 4, (N, N)), SplineSpace1D(2, 4, (N, N)),
              SplineSpace1D(2, 4, (D, D)))
    system = assemble_elasticity(
        spaces, get_geometry("deformed_column"), (0.0, 0.0, -1.0), lam, mu,
        1e-7, dirichlet=((2, 2, 0, 0.0), (2, 2, 1, -0.5)))
    B = block_preconditioner(spaces, lam, mu, 1e-1)
    _, rep = tpcg(system.op, system.rhs, B,
                  TpcgConfig.relative(1e-6, system.rhs.norm()))
    assert rep.converged and rep.iterations > 0
    for part in B.parts:
        assert "expsum" not in vars(part)


# ------------------------------------------------------ diagonal scaling


def _shell_system(spaces):
    return assemble_system(spaces, get_geometry("spherical_shell"),
                           lambda pts: np.ones(pts.shape[:-1]), 1e-7)


def test_scaled_apply_is_h_exact_fd_h():
    # for_operator is H V D^-1 V^T H with D = diag(V^T A V), against the
    # dense oracle built from the dense operator
    spaces = (SplineSpace1D(3, 3, (D, D)), SplineSpace1D(2, 4, (D, D)),
              SplineSpace1D(2, 5, (D, N)))
    system = _shell_system(spaces)
    eigs = [approx_eigen(s, assemble_pencil(s)) for s in spaces]
    P = build_lowrank_fd(eigs, 1e-1)
    scaled = P.for_operator(system.op)
    got = densify_apply(scaled.apply, P.dims)
    want = dense_scaled_fd(dense_operator(system.op), eigs).P
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # the shell is far from the cube: the fitted preconditioner is not the
    # paper's
    assert np.max(np.abs(got - densify_apply(P.apply, P.dims))) > 0.1 * np.max(
        np.abs(want))
    assert (scaled.lam, scaled.spectral_ratio) == (P.lam, P.spectral_ratio)
    assert "expsum" not in vars(scaled) and "expsum" not in vars(P)


def test_scaled_weighted_elasticity_parts():
    # each part is fitted to its own diagonal block; its direction weights
    # still set the spectral ratio
    lam, mu = 0.3 / 0.52, 1.0 / 2.6
    spaces = (SplineSpace1D(2, 4, (N, N)), SplineSpace1D(2, 4, (N, N)),
              SplineSpace1D(2, 5, (D, D)))
    system = assemble_elasticity(
        spaces, get_geometry("deformed_column"), (0.0, 0.0, -1.0), lam, mu,
        1e-7, dirichlet=((2, 2, 0, 0.0), (2, 2, 1, -0.5)))
    B = block_preconditioner(spaces, lam, mu, 1e-1)
    scaled = B.for_operator(system.op)
    assert scaled.spectral_ratio == B.spectral_ratio
    for i, part in enumerate(B.parts):
        got = densify_apply(scaled.parts[i].apply, part.dims)
        want = dense_scaled_fd(dense_operator(system.op.blocks[i][i]),
                               part.eigs).P
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_scaling_fit_allocates_less_than_one_dense_array():
    # for_operator equals the Kronecker-diagonal oracle, keeps no
    # n1 x n2 x n3 array and never allocates one (287 KB of float64 here)
    spaces = tuple(SplineSpace1D(3, 32, (D, D)) for _ in range(3))
    system = _shell_system(spaces)
    P = build_lowrank_fd(
        [approx_eigen(s, assemble_pencil(s)) for s in spaces], 1e-1)
    tracemalloc.start()
    try:
        scaled = P.for_operator(system.op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n1, n2, n3 = P.dims
    assert peak < 8 * n1 * n2 * n3
    divisor = scaled.divisor
    assert all(a.size < n1 * n2 * n3
               for a in (divisor.core,) + divisor.factors)
    D_want, h = kron_fd_scaling(system.op, P.eigs)
    D_got = to_dense(divisor)
    assert np.max(np.abs(D_got - D_want)) <= 1e-12 * np.max(np.abs(D_want))
    for e, fitted, hk in zip(P.eigs, scaled.eigs, h):
        np.testing.assert_allclose(fitted.U, hk[:, None] * e.U, rtol=1e-12)


def test_nonpositive_diagonal_raises_with_its_index():
    space, pencil = _cube(2, 4)
    eigs = _eigs(space, pencil)
    P = build_lowrank_fd(eigs, 1e-1)
    M, K = pencil.M.toarray(), pencil.K.toarray()
    K_zero = K.copy()
    K_zero[2, 2] = 0.0
    op = TuckerOperator3(np.ones((2, 1, 1)), ((K, M), (K_zero,), (M,)))
    with pytest.raises(ValueError, match=r"diag\(A\) entry \(0, 2, 0\)"):
        P.for_operator(op)
    good = TuckerOperator3(np.ones((1, 1, 1)), ((K,), (M,), (M,)))
    with pytest.raises(FastDiagError, match=r"diag\(A_FD\) entry \(0, 0, 0\)"):
        diagonal_scaling(good, eigs, [-v for v in P.lam])


def test_nonpositive_divisor_raises_with_its_index():
    # diag(A) and diag(A_FD) are positive, but K - 12 M has the Rayleigh
    # quotient lam_0 - 12 < 0 on the first eigenvector: D(0, 0, 0) is not
    space, pencil = _cube(2, 4)
    P = build_lowrank_fd(_eigs(space, pencil), 1e-1)
    M, K = pencil.M.toarray(), pencil.K.toarray()
    op = TuckerOperator3(np.ones((1, 1, 1)), ((K - 12.0 * M,), (M,), (M,)))
    assert np.all(np.diag(K - 12.0 * M) > 0.0)
    with pytest.raises(FastDiagError, match=r"^D entry \(0, 0, 0\) is -2\.1"):
        P.for_operator(op)


# ------------------------------------- exp-sum apply (oracle.expsum_apply)


def test_apply_matches_dense_kron_oracle():
    space, pencil = _cube(2, 4)
    eigs = _eigs(space, pencil)
    P = build_lowrank_fd(eigs, 1e-1)
    dense_P = _dense_lowrank(P)
    rng = np.random.default_rng(2)
    t = random_tucker(rng, (space.n,) * 3, (2, 3, 2))
    out = expsum_apply(P, t)
    expect = dense_P @ vec(to_dense(t))
    got = vec(to_dense(out))
    assert np.max(np.abs(got - expect)) < 1e-10 * np.max(np.abs(expect))


def test_apply_rank_is_product():
    space, pencil = _cube(3, 8)
    eigs = _eigs(space, pencil)
    P = build_lowrank_fd(eigs, 1e-1)
    rng = np.random.default_rng(3)
    t = random_tucker(rng, (space.n,) * 3, (2, 3, 1))
    out = expsum_apply(P, t)
    # exact image, QR-reduced: rank min(n_k, R r_k), orthonormal factors
    n = space.n
    assert out.rank == (min(n, 2 * P.R), min(n, 3 * P.R), min(n, 1 * P.R))
    for U in out.factors:
        assert np.allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-12)


def test_image_core_guard(monkeypatch):
    # the guard sees the reduced image core, prod_k min(n_k, R_k r_k), and
    # refuses it before anything of that size is allocated
    space, pencil = _cube(2, 4)
    n = space.n
    t = random_tucker(np.random.default_rng(7), (n,) * 3, (1, 1, 1))
    op = TuckerOperator3(np.ones((2, 1, 1)),
                         tuple((pencil.K,) * r for r in (2, 1, 1)))
    monkeypatch.setattr(tucker, "DENSE_GUARD", 2 * 1 * 1)
    assert tucker.tucker_matvec(op, t).core.size == 2
    monkeypatch.setattr(tucker, "DENSE_GUARD", 1)
    with pytest.raises(tucker.MemoryGuardError):
        tucker.tucker_matvec(op, t)


def test_expsum_image_core_guard(monkeypatch):
    # the exp-sum image goes through the same guard: the core of a
    # rank-(1, 1, 1) input has min(n, R)^3 entries
    space, pencil = _cube(2, 4)
    n = space.n
    P = build_lowrank_fd(_eigs(space, pencil), 1e-1)
    t = random_tucker(np.random.default_rng(7), (n,) * 3, (1, 1, 1))
    pc_core = min(n, P.R) ** 3
    monkeypatch.setattr(tucker, "DENSE_GUARD", pc_core)
    assert expsum_apply(P, t).core.size == pc_core
    monkeypatch.setattr(tucker, "DENSE_GUARD", pc_core - 1)
    with pytest.raises(tucker.MemoryGuardError):
        expsum_apply(P, t)


def test_apply_linear():
    space, pencil = _cube(2, 4)
    eigs = _eigs(space, pencil)
    P = build_lowrank_fd(eigs, 1e-1)
    rng = np.random.default_rng(4)
    x = random_tucker(rng, (space.n,) * 3, (2, 2, 2))
    y = random_tucker(rng, (space.n,) * 3, (3, 1, 2))
    from lriga.tucker import tucker_add, tucker_scale
    combo = tucker_add(tucker_scale(x, 0.7), tucker_scale(y, -1.3))
    lhs = to_dense(P.apply(combo))
    rhs = 0.7 * to_dense(P.apply(x)) - 1.3 * to_dense(P.apply(y))
    scale = max(np.max(np.abs(rhs)), 1e-30)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


def test_dense_preconditioner_symmetric():
    for p, n_el in [(2, 4), (3, 8)]:
        space, pencil = _cube(p, n_el)
        eigs = _eigs(space, pencil)
        P = build_lowrank_fd(eigs, 1e-1)
        dense_P = _dense_lowrank(P)
        assert np.max(np.abs(dense_P - dense_P.T)) < 1e-10 * np.max(np.abs(dense_P))


def test_zero_input_gives_zero():
    space, pencil = _cube(2, 4)
    eigs = _eigs(space, pencil)
    P = build_lowrank_fd(eigs, 1e-1)
    z = tucker_zero((space.n,) * 3)
    out = P.apply(z)
    assert out.norm() == 0.0


def test_lowrank_approaches_exact_fd():
    space, pencil = _cube(2, 5)
    eigs = _eigs(space, pencil)
    P = build_lowrank_fd(eigs, 1e-6)
    fd = ExactFD(eigs)
    rng = np.random.default_rng(5)
    t = random_tucker(rng, (space.n,) * 3, (2, 2, 2))
    got = to_dense(expsum_apply(P, t))
    expect = fd.apply_array(to_dense(t))
    assert np.max(np.abs(got - expect)) < 1e-5 * np.max(np.abs(expect))


# ------------------------------------------- preconditioned cube spectrum


@pytest.mark.parametrize("p", [2, 3, 4])
def test_cube_preconditioned_spectrum_tight(p):
    # The exp-sum sandwich (built from the sum itself, not through apply,
    # which is exact below the memory guard) reproduces the operator up to
    # the exponential-sum tolerance in the exact eigenbasis of every degree.
    space, pencil = _cube(p, 8)
    eigs = _eigs(space, pencil)
    P = build_lowrank_fd(eigs, 1e-2)
    A = _kron_sum(pencil)
    dense_P = _dense_lowrank(P)
    ev = np.linalg.eigvals(dense_P @ A)
    assert np.max(np.abs(ev.imag)) < 1e-8 * np.max(np.abs(ev.real))
    ev = ev.real
    assert np.min(ev) > 0
    assert np.max(ev) / np.min(ev) <= (2.0 if p == 2 else 5.0)


def _kappa(A, P):
    """Condition number of P A from the dense eigh(A, P^-1)."""
    ev = sla.eigh(A, np.linalg.inv(P), eigvals_only=True)
    return ev[-1] / ev[0]


@pytest.mark.parametrize("preset, bound", [
    ("quarter_annulus", 2.5), ("spherical_shell", 3.5)])
def test_default_preconditioner_kappa(preset, bound):
    # H V D^-1 V^T H at p = 3, n_el = 8; the eigenvalue-sum divisor with
    # the same kind of scaling gave 6.56 (annulus) and 6.26 (shell)
    spaces = tuple(SplineSpace1D(3, 8, (D, D)) for _ in range(3))
    system = assemble_system(spaces, get_geometry(preset),
                             lambda pts: np.ones(pts.shape[:-1]), 1e-7)
    P = build_lowrank_fd(_eigs(spaces[0], assemble_pencil(spaces[0])), 1e-1)
    scaled = P.for_operator(system.op)
    kappa = _kappa(dense_operator(system.op),
                   densify_apply(scaled.apply, P.dims))
    assert kappa < bound


def test_default_block_preconditioner_kappa_column():
    # the column's coupling bounds it (exact block Jacobi: 6.40), but each
    # part fitted to its block still gains on the eigenvalue-sum parts (7.00)
    system = column_system(2, 4, 1e-7)
    B = block_preconditioner(system.spaces, LAM, MU, 1e-1)
    scaled = B.for_operator(system.op)
    A = np.block([[dense_operator(b) for b in row] for row in system.op.blocks])
    P = sla.block_diag(*[densify_apply(part.apply, part.dims)
                         for part in scaled.parts])
    assert _kappa(A, P) < 7.0


def test_cube_default_preconditioner_is_exact_inverse():
    # on the unit cube V^T A V is the diagonal of eigenvalue sums, so D
    # equals them, the fit gives H = 1 and P A = I
    spaces = tuple(SplineSpace1D(3, 5, (D, D)) for _ in range(3))
    system = assemble_system(spaces, get_geometry("unit_cube"),
                             lambda pts: np.ones(pts.shape[:-1]), 1e-7)
    P = build_lowrank_fd(_eigs(spaces[0], assemble_pencil(spaces[0])), 1e-1)
    scaled = P.for_operator(system.op)
    sums = to_dense(fastdiag.eigenvalue_sums(P.lam))
    np.testing.assert_allclose(to_dense(scaled.divisor), sums, rtol=1e-12)
    for h in diagonal_scaling(system.op, P.eigs, scaled.divisor):
        np.testing.assert_allclose(h, 1.0, rtol=1e-12)
    A = dense_operator(system.op)
    PA = densify_apply(scaled.apply, P.dims) @ A
    assert np.max(np.abs(PA - np.eye(len(A)))) <= 1e-10


def test_equal_ratio_preconditioners_share_the_sum_and_scale():
    space, pencil = _cube(3, 8)
    eigs = _eigs(space, pencil)
    P1 = build_lowrank_fd(eigs, 1e-1)
    P2 = build_lowrank_fd(eigs, 1e-1, weights=(2.0, 2.0, 2.0))
    assert P2.expsum is P1.expsum
    assert P2.lam_min == 2.0 * P1.lam_min
    x = random_tucker(np.random.default_rng(5), P1.dims, (2, 3, 2))
    # doubling every eigenvalue leaves the scalings' bits and halves the core
    z1, z2 = expsum_apply(P1, x), expsum_apply(P2, x)
    assert np.array_equal(2.0 * z2.core, z1.core)
    for F1, F2 in zip(z1.factors, z2.factors):
        assert np.array_equal(F1, F2)
    y1, y2 = to_dense(P1.apply(x)), to_dense(P2.apply(x))
    assert np.allclose(2.0 * y2, y1, rtol=1e-12, atol=1e-12 * np.abs(y1).max())
