"""Low-rank assembly vs dense Kronecker and element-loop oracles."""

import dataclasses
import math

import numpy as np
import pytest

from lriga import assembly, geometry
from lriga.assembly import assemble_system, dirichlet_lift
from lriga.elasticity import assemble_elasticity
from lriga.bsplines import (
    BC_DIRICHLET,
    BC_NEUMANN,
    SplineSpace1D,
    assemble_pencil,
)
from lriga.geometry import get_geometry
from oracle import dense_galerkin, dense_load, dense_operator, kron3
from lriga.tucker import to_dense, vec

from util import eval_grid

DD = (BC_DIRICHLET, BC_DIRICHLET)
NN = (BC_NEUMANN, BC_NEUMANN)


def make_spaces(p, n_el, bcs=(DD, DD, DD)):
    return tuple(SplineSpace1D(p, n_el, bc) for bc in bcs)


def one(pts):
    return np.ones(np.asarray(pts).shape[:-1])


def test_cube_is_kronecker_sum():
    spaces = make_spaces(2, 4)
    system = assemble_system(spaces, get_geometry("unit_cube"), one, 1e-8)
    A = dense_operator(system.op)
    pencils = [assemble_pencil(s) for s in spaces]
    M = [pc.M.toarray() for pc in pencils]
    K = [pc.K.toarray() for pc in pencils]
    ref = (
        kron3(K[0], M[1], M[2])
        + kron3(M[0], K[1], M[2])
        + kron3(M[0], M[1], K[2])
    )
    assert np.linalg.norm(A - ref) <= 1e-10 * np.linalg.norm(ref)
    assert system.op.rank == (3, 3, 3)


def test_annulus_aggregate_ranks():
    spaces = make_spaces(2, 4)
    system = assemble_system(
        spaces, get_geometry("quarter_annulus"), one, 1e-8
    )
    assert system.op.rank == (3, 3, 3)
    # diagonal metric entries are rank one, off-diagonal entries vanish
    entries = system.entries[(0, 0)]
    assert sorted(entries) == [(0, 0), (1, 1), (2, 2)]
    for sf in entries.values():
        assert sf.rank == (1, 1, 1)


def test_shell_aggregate_ranks_near_reference():
    spaces = make_spaces(2, 4)
    system = assemble_system(
        spaces, get_geometry("spherical_shell"), one, 1e-6
    )
    target = (13, 13, 9)
    for got, want in zip(system.op.rank, target):
        assert abs(got - want) <= 2, (system.op.rank, target)


@pytest.mark.parametrize("preset", ["quarter_annulus", "spherical_shell"])
def test_dense_equals_element_loop_oracle(preset):
    spaces = make_spaces(2, 4)
    geo = get_geometry(preset)
    system = assemble_system(spaces, geo, one, 1e-6)

    entries = system.entries[(0, 0)]

    def metric_grid(k, l, e1, e2, e3):
        sf = entries.get((min(k, l), max(k, l)))
        if sf is None:
            return np.zeros((len(e1), len(e2), len(e3)))
        return eval_grid(sf, e1, e2, e3)

    maxdeg = max(max(sf.degrees) for sf in entries.values())
    qpts = 2 + 1 + math.ceil(maxdeg / 2) + 1
    A = dense_operator(system.op)
    ref = dense_galerkin(spaces, metric_grid, qpts)
    assert np.linalg.norm(A - ref) <= 1e-10 * np.linalg.norm(ref)

    # same game for the load vector
    (load,) = system.loads

    def weight_grid(e1, e2, e3):
        return eval_grid(load, e1, e2, e3)

    fq = 2 + 1 + math.ceil(max(load.degrees) / 2) + 1
    f = vec(to_dense(system.rhs))
    ref_f = dense_load(spaces, weight_grid, fq)
    assert np.linalg.norm(f - ref_f) <= 1e-10 * max(np.linalg.norm(ref_f), 1e-300)


@pytest.mark.parametrize("preset", ["unit_cube", "quarter_annulus", "spherical_shell", "deformed_column"])
def test_system_symmetric_positive_definite(preset):
    spaces = make_spaces(2, 3)
    system = assemble_system(spaces, get_geometry(preset), one, 1e-8)
    A = dense_operator(system.op)
    assert np.linalg.norm(A - A.T) <= 1e-10 * np.linalg.norm(A)
    w = np.linalg.eigvalsh(0.5 * (A + A.T))
    assert w[0] > 0


def test_ranks_monotone_in_eps():
    spaces = make_spaces(2, 3)
    geo = get_geometry("spherical_shell")
    prev = (0, 0, 0)
    for eps in (1e-4, 1e-6, 1e-8):
        system = assemble_system(spaces, geo, one, eps)
        assert all(a >= b for a, b in zip(system.op.rank, prev))
        prev = system.op.rank


def test_rhs_rank_for_constant_load_on_cube():
    spaces = make_spaces(2, 4)
    system = assemble_system(spaces, get_geometry("unit_cube"), one, 1e-8)
    assert system.rhs.rank == (1, 1, 1)


def test_dirichlet_lift_zero_data_is_noop():
    spaces = make_spaces(2, 4)
    system = assemble_system(spaces, get_geometry("unit_cube"), one, 1e-8)
    corrected = dirichlet_lift(system, [(0, 2, 1, 0.0)])
    assert np.allclose(
        to_dense(corrected), to_dense(system.rhs), atol=0
    )


def test_dirichlet_lift_linear_ramp():
    # Laplace on the cube, u=1 on the x=1 face, u=0 on x=0, Neumann
    # elsewhere: the solution is the linear ramp u = eta1
    spaces = make_spaces(1, 4, bcs=(DD, NN, NN))

    def zero(pts):
        return np.zeros(np.asarray(pts).shape[:-1])

    system = assemble_system(spaces, get_geometry("unit_cube"), zero, 1e-10)
    corrected = dirichlet_lift(system, [(0, 0, 1, 1.0)])
    A = dense_operator(system.op)
    x = np.linalg.solve(A, vec(to_dense(corrected)))
    # ramp coefficients: p=1 coefficients interpolate at the knots
    ramp = np.array([0.25, 0.5, 0.75])
    expected = vec(
        np.einsum(
            "a,b,c->abc", ramp, np.ones(spaces[1].n), np.ones(spaces[2].n)
        )
    )
    assert np.allclose(x, expected, atol=1e-10)


def test_dirichlet_lift_constant_face_rank():
    # scalar analogue of the column problem: clamp both z faces, pull the
    # top one down by 0.5; the correction adds the rank of the operator's
    # image of the rank-(1,1,1) lifting, min(n_k, R_k), capped at n_k
    spaces = make_spaces(2, 4, bcs=(NN, NN, DD))
    system = assemble_system(spaces, get_geometry("deformed_column"), one, 1e-8)
    corrected = dirichlet_lift(system, [(0, 2, 1, -0.5)])
    R = system.op.rank
    r = system.rhs.rank
    n = tuple(s.n for s in spaces)
    assert corrected.rank == tuple(min(n[k], r[k] + min(n[k], R[k])) for k in range(3))


def test_dirichlet_lift_two_faces_is_sum_of_single_faces():
    # the lift is affine in the face data: f - A (g1 + g2) equals the two
    # single-face lifts minus one copy of f
    spaces = make_spaces(2, 3, bcs=(DD, NN, DD))
    system = assemble_system(spaces, get_geometry("quarter_annulus"), one, 1e-8)
    faces = [(0, 0, 1, 0.75), (0, 2, 0, -0.5)]
    both = to_dense(dirichlet_lift(system, faces))
    single = [to_dense(dirichlet_lift(system, [face])) for face in faces]
    want = single[0] + single[1] - to_dense(system.rhs)
    assert np.linalg.norm(both - want) <= 1e-12 * np.linalg.norm(want)
    assert np.linalg.norm(single[0] - single[1]) > 1e-3 * np.linalg.norm(want)


def test_dirichlet_lift_on_neumann_face_raises():
    # a raise, not an assert: under python -O the face would be lifted
    # silently on its Neumann end
    spaces = make_spaces(2, 4, bcs=(NN, NN, DD))
    with pytest.raises(ValueError, match=r"face \(1, 1\)"):
        assemble_elasticity(spaces, get_geometry("deformed_column"),
                            (0.0, 0.0, -1.0), 0.5, 0.4, 1e-7,
                            dirichlet=((2, 1, 1, -0.5),))


def counting_map(geo):
    """``geo`` with a Jacobian that records every point set it is given."""
    seen = []

    def jac(pts):
        seen.append(np.array(pts, copy=True))
        return geo.jac(pts)

    return dataclasses.replace(geo, jac=jac), seen


def distinct(point_sets):
    out = []
    for pts in point_sets:
        if not any(q.shape == pts.shape and np.array_equal(q, pts)
                   for q in out):
            out.append(pts)
    return out


def assemble_counted(kind, geo):
    if kind == "scalar":
        return assemble_system(make_spaces(2, 6), geo, one, 1e-7)
    spaces = make_spaces(2, 4, (NN, NN, DD))
    return assemble_elasticity(spaces, geo, (0.0, 0.0, one), 0.5, 0.4, 1e-7)


@pytest.mark.parametrize("kind,preset", [
    ("scalar", "quarter_annulus"),
    ("scalar", "spherical_shell"),
    ("elasticity", "deformed_column"),
])
def test_one_jacobian_per_sample_set(kind, preset):
    geo, seen = counting_map(get_geometry(preset))
    assemble_counted(kind, geo)
    # the scale sample, the validation sample and at least one Chebyshev
    # grid, each evaluated once although many coefficients and the load
    # are fitted on them
    assert len(seen) >= 3
    assert len(distinct(seen)) == len(seen)

    # the memo lives for one call: a second assembly evaluates afresh
    n = len(seen)
    assemble_counted(kind, geo)
    assert len(seen) == 2 * n


def unmemoized_metric(geo):
    """:func:`geometry.metric_memo`'s interface, evaluating afresh on
    every call."""

    def pieces(pts):
        return geometry.metric_pieces(geo, pts)

    pieces.tensor = lambda pts: geometry.metric_tensor(*pieces(pts))
    return pieces


@pytest.mark.parametrize("preset", ["quarter_annulus", "spherical_shell"])
def test_one_metric_tensor_per_sample_set(preset, monkeypatch):
    geo, seen = counting_map(get_geometry(preset))
    tensors = []
    metric_tensor = geometry.metric_tensor
    monkeypatch.setattr(geometry, "metric_tensor",
                        lambda *args: tensors.append(1) or metric_tensor(*args))
    spaces = make_spaces(2, 6)
    system = assemble_system(spaces, geo, one, 1e-7)
    # six coefficients, each sampled on every grid its fit visits, and
    # the scale sample: one tensor per point set
    n = len(tensors)
    assert 2 <= n <= len(distinct(seen))

    # without the memo every coefficient computes its own tensors, to the
    # same bits
    monkeypatch.setattr(assembly, "metric_memo", unmemoized_metric)
    plain = assemble_system(spaces, geo, one, 1e-7)
    assert len(tensors) - n > 2 * n
    assert np.array_equal(system.op.core, plain.op.core)
    for Cs, Ds in zip(system.op.factors, plain.op.factors):
        assert len(Cs) == len(Ds)
        for C, D in zip(Cs, Ds):
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(C, name), getattr(D, name))
    assert np.array_equal(system.rhs.core, plain.rhs.core)
    for U, V in zip(system.rhs.factors, plain.rhs.factors):
        assert np.array_equal(U, V)
