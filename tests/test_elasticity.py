"""Block elasticity assembly and solver vs dense physical-form oracles."""

import io
import re

import numpy as np
import pytest

from lriga import assembly
from lriga.bsplines import BC_DIRICHLET, BC_NEUMANN, SplineSpace1D
from lriga.elasticity import (
    BlockTuckerVector,
    assemble_elasticity,
    block_preconditioner,
    block_tpcg,
    operator_transpose,
)
from lriga.geometry import get_geometry
from oracle import (
    dense_elasticity, dense_load, dense_operator, expsum_apply)
from lriga.tpcg import TpcgConfig, tpcg
from lriga.tucker import (
    TuckerTensor3,
    compression_percent,
    to_dense,
    vec,
)

from util import (
    block_ranks,
    dense_kron_sum,
    densify_apply,
    random_operator,
    random_tucker,
    residual_jump,
)

DD = (BC_DIRICHLET, BC_DIRICHLET)
NN = (BC_NEUMANN, BC_NEUMANN)

# compressible material with E = 1, nu = 0.3
LAM = 0.3 / 0.52
MU = 1.0 / 2.6
GRAVITY = (0.0, 0.0, -1.0)


def make_spaces(p, n_el, bcs=(DD, DD, DD)):
    return tuple(SplineSpace1D(p, n_el, bc) for bc in bcs)


def column_spaces(p, n_el):
    """Clamped bottom/top, traction-free sides: only direction 3 trims."""
    return make_spaces(p, n_el, bcs=(NN, NN, DD))


def dense_block_operator(system):
    ns = [s.n for s in system.spaces]
    N = int(np.prod(ns))
    A = np.zeros((3 * N, 3 * N))
    for a in range(3):
        for b in range(3):
            A[a * N:(a + 1) * N, b * N:(b + 1) * N] = dense_operator(
                system.op.blocks[a][b]
            )
    return A


def concat(x):
    return np.concatenate([vec(to_dense(c)) for c in x.components])


def random_block(rng, dims, ranks):
    return BlockTuckerVector(
        tuple(random_tucker(rng, dims, ranks) for _ in range(3))
    )


def test_lam_zero_identity_geometry_matches_dense_oracle():
    spaces = make_spaces(2, 2)
    system = assemble_elasticity(
        spaces, get_geometry("unit_cube"), GRAVITY, 0.0, 1.0, 1e-10
    )
    A = dense_block_operator(system)
    ref = dense_elasticity(spaces, get_geometry("unit_cube"), 0.0, 1.0, 4)
    assert np.linalg.norm(A - ref) <= 1e-10 * np.linalg.norm(ref)
    # with lam = 0 and the identity map the only off-diagonal coupling is
    # the single mu (d_b v_a)(d_a u_b) term
    for (a, b), r in block_ranks(system).items():
        assert r == ((3, 3, 3) if a == b else (1, 1, 1))


@pytest.mark.parametrize("lam,mu", [(-1.0, 0.0), (LAM, 0.0), (-1.0, MU)])
def test_bad_lame_coefficients_raise(lam, mu):
    named = re.escape("lam = %r, mu = %r" % (lam, mu))
    with pytest.raises(ValueError, match=named):
        assemble_elasticity(make_spaces(2, 2), get_geometry("deformed_column"),
                            GRAVITY, lam, mu, 1e-10)


def test_column_matches_dense_oracle():
    spaces = make_spaces(2, 2)
    geo = get_geometry("deformed_column")
    system = assemble_elasticity(spaces, geo, GRAVITY, LAM, MU, 1e-10)
    A = dense_block_operator(system)
    ref = dense_elasticity(spaces, geo, LAM, MU, 20)
    assert np.linalg.norm(A - ref) <= 1e-8 * np.linalg.norm(ref)


def test_blocks_are_pairwise_transposes():
    spaces = make_spaces(2, 2)
    system = assemble_elasticity(
        spaces, get_geometry("deformed_column"), GRAVITY, LAM, MU, 1e-8
    )
    dense = {
        (a, b): dense_operator(system.op.blocks[a][b])
        for a in range(3)
        for b in range(3)
    }
    scale = max(np.linalg.norm(blk) for blk in dense.values())
    for a in range(3):
        for b in range(3):
            assert np.linalg.norm(dense[(a, b)] - dense[(b, a)].T) <= 1e-10 * scale


def test_operator_transpose_is_dense_transpose():
    rng = np.random.default_rng(7)
    op = random_operator(rng, (3, 4, 2), (2, 1, 2))
    A = dense_operator(op)
    At = dense_operator(operator_transpose(op))
    assert np.linalg.norm(At - A.T) == 0.0


def test_column_block_ranks_near_reference():
    spaces = column_spaces(2, 4)
    system = assemble_elasticity(
        spaces, get_geometry("deformed_column"), GRAVITY, LAM, MU, 1e-8
    )
    ranks = block_ranks(system)
    for a in range(3):
        for got, want in zip(ranks[(a, a)], (6, 5, 6)):
            assert abs(got - want) <= 2, ranks
    for a, b in [(0, 1), (0, 2), (1, 2)]:
        for got, want in zip(ranks[(a, b)], (2, 2, 2)):
            assert abs(got - want) <= 2, ((a, b), ranks[(a, b)])
        assert ranks[(a, b)] == ranks[(b, a)]


def test_block_tpcg_is_the_scalar_solver():
    import lriga

    assert block_tpcg is tpcg is lriga.tpcg


def test_block_inner_matches_concatenated_dot():
    rng = np.random.default_rng(3)
    dims = (5, 4, 6)
    x = random_block(rng, dims, (2, 3, 2))
    y = random_block(rng, dims, (3, 2, 2))
    got = x.inner(y)
    want = float(np.dot(concat(x), concat(y)))
    assert abs(got - want) <= 1e-12 * abs(want)
    assert abs(x.norm() - np.linalg.norm(concat(x))) <= 1e-12 * x.norm()


@pytest.mark.parametrize("preset", ["unit_cube", "deformed_column"])
def test_energy_positivity(preset):
    spaces = make_spaces(2, 3)
    system = assemble_elasticity(
        spaces, get_geometry(preset), GRAVITY, LAM, MU, 1e-8
    )
    A = dense_block_operator(system)
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.standard_normal(A.shape[0])
        assert v @ A @ v > 0.0
    assert np.min(np.linalg.eigvalsh(0.5 * (A + A.T))) > 0.0


def test_block_preconditioner_matches_weighted_inverses():
    spaces = make_spaces(2, 3)
    eps_rel = 1e-6
    P = block_preconditioner(spaces, 0.0, 1.0, eps_rel)
    rng = np.random.default_rng(5)
    x = random_block(rng, tuple(s.n for s in spaces), (2, 2, 2))
    y = P.apply(x)
    for i in range(3):
        weights = [2.0 if d == i else 1.0 for d in range(3)]
        D = dense_kron_sum(spaces, weights)
        lam_min = np.linalg.eigvalsh(D)[0]
        want = np.linalg.solve(D, vec(to_dense(x.components[i])))
        got = vec(to_dense(y.components[i]))
        bound = 2.0 * eps_rel * x.components[i].norm() / lam_min
        assert np.linalg.norm(got - want) <= bound


def test_block_preconditioner_spd():
    spaces = make_spaces(2, 3)
    P = block_preconditioner(spaces, LAM, MU, 1e-1)
    for part in P.parts:
        M = densify_apply(part.apply, tuple(s.n for s in spaces))
        assert np.linalg.norm(M - M.T) <= 1e-10 * np.linalg.norm(M)
        assert np.min(np.linalg.eigvalsh(0.5 * (M + M.T))) > 0.0


def test_block_preconditioner_rank_growth():
    spaces = column_spaces(2, 8)
    P = block_preconditioner(spaces, LAM, MU, 1e-1)
    rng = np.random.default_rng(2)
    x = random_block(rng, tuple(s.n for s in spaces), (2, 1, 3))
    n = tuple(s.n for s in spaces)
    for i in range(3):
        R = P.parts[i].R
        y = expsum_apply(P.parts[i], x.components[i])
        # exact image, QR-reduced: rank min(n_k, R r_k), orthonormal factors
        assert y.rank == (
            min(n[0], 2 * R), min(n[1], 1 * R), min(n[2], 3 * R))
        for U in y.factors:
            assert np.allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-12)


COLUMN_FACES = ((2, 2, 0, 0.0), (2, 2, 1, -0.5))


def column_system(p, n_el, eps, faces=COLUMN_FACES):
    spaces = column_spaces(p, n_el)
    return assemble_elasticity(
        spaces,
        get_geometry("deformed_column"),
        GRAVITY,
        LAM,
        MU,
        eps,
        dirichlet=faces,
    )


def solve_column(p, n_el, tol_rel=1e-6, eps=None, max_iterations=100,
                 faces=COLUMN_FACES, diagonal_scaling=True):
    eps = max(tol_rel * 1e-1, 1e-12) if eps is None else eps
    system = column_system(p, n_el, eps, faces)
    P = block_preconditioner(system.spaces, LAM, MU, 1e-1)
    cfg = TpcgConfig.relative(
        tol_rel, system.rhs.norm(), max_iterations=max_iterations,
        diagonal_scaling=diagonal_scaling
    )
    x, report = tpcg(system.op, system.rhs, P, cfg)
    return system, x, report, cfg


def test_column_solve_does_not_depend_on_rhs_scale():
    # the dynamic truncation's floor is relative to |rhs|: a load a million
    # times larger takes the same iterations to the same ranks
    system = column_system(2, 6, 1e-7)
    P = block_preconditioner(system.spaces, LAM, MU, 1e-1)
    runs = []
    for s in (1.0, 1e6):
        rhs = s * system.rhs
        _, report = tpcg(system.op, rhs, P,
                         TpcgConfig.relative(1e-6, rhs.norm()))
        assert report.converged, report.iterations
        assert report.final_residual <= 1e-6 * report.rhs_norm
        runs.append((report.iterations, report.ranks_x))
    assert runs[0] == runs[1]


def test_tiny_column_matches_dense_block_solve():
    system, x, report, cfg = solve_column(2, 2, eps=1e-10)
    assert report.converged and not report.breakdown
    A = dense_block_operator(system)
    want = np.linalg.solve(A, concat(system.rhs))
    bound = cfg.tol / np.linalg.eigvalsh(A)[0]
    assert np.linalg.norm(concat(x) - want) <= bound


def boundary_elimination(p, n_el, top):
    """Dense column solution by an independent route: assemble on untrimmed
    spaces, set the boundary coefficients of the clamped faces directly
    (``top[a]`` on the eta3 = 1 face of component a, zero elsewhere) and
    eliminate them.  Returns (solution, smallest eigenvalue of the
    interior matrix)."""
    full = make_spaces(p, n_el, bcs=(NN, NN, NN))
    geo = get_geometry("deformed_column")
    ns = [s.n for s in full]
    Nf = int(np.prod(ns))
    A_full = dense_elasticity(full, geo, LAM, MU, 20)

    def minus_det(e1, e2, e3):
        grid = np.stack(np.meshgrid(e1, e2, e3, indexing="ij"), axis=-1)
        return -np.linalg.det(geo.jac(grid))

    b_full = np.zeros(3 * Nf)
    b_full[2 * Nf:] = dense_load(full, minus_det, 4 + p)

    # clamped faces: all of eta3 = 0 and eta3 = 1, for every component;
    # open knots interpolate constants with coefficient equal to the value
    i3 = np.arange(Nf) // (ns[0] * ns[1])
    on_face = (i3 == 0) | (i3 == ns[2] - 1)
    boundary = np.concatenate([on_face] * 3)
    g = np.concatenate([np.where(i3 == ns[2] - 1, value, 0.0) for value in top])

    I = ~boundary
    x_full = np.linalg.solve(
        A_full[np.ix_(I, I)], b_full[I] - A_full[np.ix_(I, boundary)] @ g[boundary]
    )
    return x_full, np.linalg.eigvalsh(A_full[np.ix_(I, I)])[0]


def test_lift_matches_boundary_elimination_oracle():
    system, x, report, cfg = solve_column(2, 2, eps=1e-10)
    x_full, lam_min = boundary_elimination(2, 2, (0.0, 0.0, -0.5))
    assert np.linalg.norm(concat(x) - x_full) <= cfg.tol / lam_min


def test_lift_through_lower_blocks_matches_oracle():
    # a face on component 0 is lifted through blocks (1, 0) and (2, 0),
    # the transposes of the assembled upper blocks
    system, x, report, cfg = solve_column(
        2, 2, eps=1e-10, faces=((0, 2, 1, 0.25), (2, 2, 0, 0.0)))
    assert report.converged
    x_full, lam_min = boundary_elimination(2, 2, (0.25, 0.0, 0.0))
    assert np.linalg.norm(concat(x) - x_full) <= cfg.tol / lam_min
    assert np.linalg.norm(x_full) > 1e3 * cfg.tol / lam_min


def test_lift_reassembles_nothing(monkeypatch):
    calls = []
    real = assembly.assemble_weighted_matrix

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(assembly, "assemble_weighted_matrix", counting)
    column_system(2, 3, 1e-8, faces=())
    without = len(calls)
    calls.clear()
    column_system(2, 3, 1e-8, faces=((0, 2, 1, 0.25), (2, 2, 1, -0.5)))
    assert without > 0 and len(calls) == without


def test_zero_load_converges_immediately():
    spaces = column_spaces(2, 4)
    system = assemble_elasticity(
        spaces, get_geometry("deformed_column"), (0.0, 0.0, 0.0), LAM, MU, 1e-8
    )
    P = block_preconditioner(spaces, LAM, MU, 1e-1)
    cfg = TpcgConfig(tol=1e-10)
    x, report = tpcg(system.op, system.rhs, P, cfg)
    assert report.iterations == 0 and report.converged
    assert x.norm() == 0.0


def test_column_iteration_counts_stay_moderate():
    iters = []
    for n_el in (4, 8):
        _, _, report, _ = solve_column(2, n_el)
        assert report.converged and not report.breakdown
        assert not residual_jump(report)
        iters.append(report.iterations)
    assert max(iters) <= 60, iters


def test_solution_ranks_stay_low_on_column():
    _, x, report, _ = solve_column(2, 8)
    assert max(max(r) for r in x.ranks) <= 12, x.ranks
    # beats dense storage even at this tiny size, and the reported figure
    # is exactly the storage formula applied to the returned iterate
    assert report.memory_compression < 100.0
    assert report.memory_compression == compression_percent(x)


def test_block_csv_round_trip():
    _, _, report, _ = solve_column(2, 4)
    buf = io.StringIO()
    report.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    header = lines[0].split(",")
    assert header[:2] == ["iter", "res_norm"]
    assert header[2] == "rx11" and header[10] == "rx33"
    assert header[11] == "rr11" and header[20] == "rp11"
    assert header[-1] == "eps_k"
    assert len(header) == 30
    assert len(lines) == 1 + len(report.res_norms)
    row = lines[1].split(",")
    assert int(row[0]) == 0
    assert float(row[1]) == report.res_norms[0]
    assert tuple(int(v) for v in row[2:5]) == report.ranks_x[0][0]


def test_block_memory_compression_formula():
    rng = np.random.default_rng(9)
    dims = (30, 40, 50)
    ranks = [(2, 3, 4), (1, 1, 1), (5, 2, 2)]
    x = BlockTuckerVector(
        tuple(random_tucker(rng, dims, r) for r in ranks)
    )
    dense = 3 * 30 * 40 * 50
    stored = sum(
        r[0] * r[1] * r[2] + r[0] * 30 + r[1] * 40 + r[2] * 50 for r in ranks
    )
    assert compression_percent(x) == 100.0 * stored / dense
