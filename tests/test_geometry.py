"""Geometry presets: Jacobians, metric, and the polynomial-map loader."""

import numpy as np
import pytest

from lriga import geometry
from lriga.geometry import (
    GeometryError,
    GeometryMap,
    PRESETS,
    get_geometry,
    metric_memo,
    metric_pieces,
    metric_tensor,
)

from util import (
    load_polynomial_map,
    metric_and_weight,
    metric_data,
    validate_geometry,
)


def fd_jacobian(geo, eta, h=1e-6):
    J = np.zeros((3, 3))
    for b in range(3):
        ep = np.array(eta)
        em = np.array(eta)
        ep[b] += h
        em[b] -= h
        J[:, b] = (geo.F(ep) - geo.F(em)) / (2 * h)
    return J


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_jacobian_matches_finite_differences(name):
    geo = get_geometry(name)
    rng = np.random.default_rng(22)
    for eta in rng.uniform(0.05, 0.95, (25, 3)):
        J = geo.jac(eta)
        assert np.max(np.abs(J - fd_jacobian(geo, eta))) < 1e-7


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_regularity(name):
    min_det, asym, min_eig = validate_geometry(get_geometry(name))
    assert min_det > 0
    assert asym < 1e-12
    assert min_eig > 0


def test_cube_metric_is_identity():
    Q, omega = metric_and_weight(get_geometry("unit_cube"), np.array([0.3, 0.7, 0.1]))
    assert np.allclose(Q, np.eye(3), atol=1e-14)
    assert np.isclose(omega, 1.0)


def test_uniform_scaling_metric():
    geo = GeometryMap(
        "scaled",
        lambda eta: 2.0 * np.asarray(eta, dtype=float),
        lambda eta: np.broadcast_to(
            2.0 * np.eye(3), np.asarray(eta).shape[:-1] + (3, 3)
        ).copy(),
    )
    Q, omega = metric_and_weight(geo, np.array([0.5, 0.5, 0.5]), f=lambda e: 3.0)
    # det = 8, J^-1 J^-T = I/4 -> Q = 2 I; omega = 8 * f
    assert np.allclose(Q, 2.0 * np.eye(3), atol=1e-14)
    assert np.isclose(omega, 24.0)


def test_annulus_metric_value():
    geo = get_geometry("quarter_annulus")
    eta = np.array([0.5, 0.5, 0.5])
    Q, det = metric_data(geo, eta)
    r = 1.5
    expected = np.diag([0.5 * np.pi * r, (2.0 / np.pi) / r, 0.5 * np.pi * r])
    assert np.allclose(Q, expected, atol=1e-13)
    assert np.isclose(det, 0.5 * np.pi * r)


def test_metric_vectorized_consistency():
    geo = get_geometry("spherical_shell")
    rng = np.random.default_rng(23)
    etas = rng.uniform(0, 1, (40, 3))
    Qb, detb = metric_data(geo, etas)
    for i, eta in enumerate(etas):
        Q1, det1 = metric_data(geo, eta)
        assert np.allclose(Q1, Qb[i], atol=1e-13)
        assert np.isclose(det1, detb[i])


def test_metric_memo_evaluates_each_point_set_once():
    base = get_geometry("spherical_shell")
    calls = []

    def jac(pts):
        calls.append(1)
        return base.jac(pts)

    geo = GeometryMap(base.name, base.F, jac)
    metric = metric_memo(geo)
    rng = np.random.default_rng(5)
    a, b = rng.uniform(0, 1, (2, 30, 3))
    Jinv, det = metric(a)
    assert metric(a.copy())[0] is Jinv  # equal points hit
    assert len(calls) == 1
    # same shape, other points: recomputed, never served from the memo
    Jinv_b, det_b = metric(b)
    assert len(calls) == 2
    want = metric_pieces(base, b)
    assert np.array_equal(Jinv_b, want[0]) and np.array_equal(det_b, want[1])
    with pytest.raises(ValueError):
        Jinv_b[0, 0, 0] = 0.0
    Q, d = metric_data(base, b)
    assert np.array_equal(d, det_b)


def test_metric_memo_computes_each_tensor_once(monkeypatch):
    calls = []
    monkeypatch.setattr(geometry, "metric_tensor",
                        lambda *args: calls.append(1) or metric_tensor(*args))
    geo = get_geometry("spherical_shell")
    metric = metric_memo(geo)
    rng = np.random.default_rng(6)
    a, b = rng.uniform(0, 1, (2, 30, 3))
    Q = metric.tensor(a)
    assert metric.tensor(a.copy()) is Q and len(calls) == 1
    assert np.array_equal(Q, metric_tensor(*metric_pieces(geo, a)))
    with pytest.raises(ValueError):
        Q[0, 0, 0] = 0.0
    # another point set of the same shape replaces the entry, tensor too
    assert np.array_equal(metric.tensor(b), metric_tensor(*metric_pieces(geo, b)))
    assert len(calls) == 2


def test_singular_map_raises():
    geo = GeometryMap(
        "flat",
        lambda eta: np.asarray(eta) * np.array([1.0, 1.0, 0.0]),
        lambda eta: np.broadcast_to(
            np.diag([1.0, 1.0, 0.0]), np.asarray(eta).shape[:-1] + (3, 3)
        ).copy(),
    )
    with pytest.raises(GeometryError):
        metric_data(geo, np.array([0.5, 0.5, 0.5]))


def test_unknown_preset():
    with pytest.raises(GeometryError):
        get_geometry("klein_bottle")


def test_polynomial_map_loader(tmp_path):
    # the deformed column is polynomial: write it in the text format and
    # check values and Jacobians against the preset
    # F1 = eta1 + 0.1*4*eta3*(1-eta3)*(2*eta1 - 1)
    #    = eta1 - 0.4*eta3 + 0.4*eta3^2 + 0.8*eta1*eta3 - 0.8*eta1*eta3^2
    d = (1, 1, 2)
    C = [np.zeros((2, 2, 3)) for _ in range(3)]
    C[0][1, 0, 0] = 1.0
    C[0][0, 0, 1] = -0.4
    C[0][0, 0, 2] = 0.4
    C[0][1, 0, 1] = 0.8
    C[0][1, 0, 2] = -0.8
    C[1][0, 1, 0] = 1.0
    C[2][0, 0, 1] = 1.0

    lines = ["%d %d %d" % d, "# coefficients, eta1 index fastest"]
    for a in range(3):
        lines.append(" ".join(repr(float(v)) for v in C[a].ravel(order="F")))
    path = tmp_path / "column.txt"
    path.write_text("\n".join(lines) + "\n")

    geo = load_polynomial_map(path)
    ref = get_geometry("deformed_column")
    rng = np.random.default_rng(24)
    for eta in rng.uniform(0, 1, (20, 3)):
        assert np.allclose(geo.F(eta), ref.F(eta), atol=1e-12)
        assert np.allclose(geo.jac(eta), ref.jac(eta), atol=1e-12)


def test_polynomial_map_bad_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 1 1\n0.0 1.0\n")
    with pytest.raises(GeometryError):
        load_polynomial_map(path)
