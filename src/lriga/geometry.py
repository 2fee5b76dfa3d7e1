"""Analytic geometry maps from the unit cube to physical patches.

Each map supplies vectorized evaluators for F and its Jacobian; the solver
only ever consumes J^-1 and det(J) (and from them the metric
Q = det(J) J^-1 J^-T), so analytic maps with closed-form Jacobians are
sufficient.  Any object with ``name``, ``F`` and ``jac`` in the shape of
:class:`GeometryMap` can stand in for a preset.
"""

from dataclasses import dataclass

import numpy as np


class GeometryError(RuntimeError):
    """Raised for singular or orientation-reversing Jacobians."""


@dataclass(frozen=True)
class GeometryMap:
    """Bundle of map and Jacobian evaluators.

    Attributes:
        name: preset tag.
        F: callable mapping points (..., 3) -> (..., 3).
        jac: callable mapping points (..., 3) -> (..., 3, 3); column a is
            the derivative of F with respect to eta_a.
    """

    name: str
    F: object
    jac: object


def _cube_F(eta):
    return np.array(eta, dtype=float, copy=True)


def _cube_jac(eta):
    eta = np.asarray(eta)
    return np.broadcast_to(np.eye(3), eta.shape[:-1] + (3, 3)).copy()


def _annulus_F(eta):
    eta = np.asarray(eta, dtype=float)
    e1, e2, e3 = eta[..., 0], eta[..., 1], eta[..., 2]
    rad = 1.0 + e1
    ang = 0.5 * np.pi * e2
    return np.stack([rad * np.cos(ang), rad * np.sin(ang), e3], axis=-1)


def _annulus_jac(eta):
    eta = np.asarray(eta, dtype=float)
    e1, e2 = eta[..., 0], eta[..., 1]
    rad = 1.0 + e1
    ang = 0.5 * np.pi * e2
    c, s = np.cos(ang), np.sin(ang)
    J = np.zeros(eta.shape[:-1] + (3, 3))
    J[..., 0, 0] = c
    J[..., 1, 0] = s
    J[..., 0, 1] = -rad * 0.5 * np.pi * s
    J[..., 1, 1] = rad * 0.5 * np.pi * c
    J[..., 2, 2] = 1.0
    return J


# shear applied after the spherical coordinates; it couples the directions so
# that every entry of the metric is active
_SHELL_L = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def _shell_angles(eta):
    eta = np.asarray(eta, dtype=float)
    rho = 1.0 + eta[..., 2]
    phi = 0.25 * np.pi + 0.5 * np.pi * eta[..., 0]
    theta = 0.5 * np.pi * eta[..., 1]
    return rho, phi, theta


def _shell_F(eta):
    rho, phi, theta = _shell_angles(eta)
    xyz = np.stack(
        [
            rho * np.sin(phi) * np.cos(theta),
            rho * np.sin(phi) * np.sin(theta),
            rho * np.cos(phi),
        ],
        axis=-1,
    )
    return xyz @ _SHELL_L.T


def _shell_jac(eta):
    rho, phi, theta = _shell_angles(eta)
    sp_, cp = np.sin(phi), np.cos(phi)
    st, ct = np.sin(theta), np.cos(theta)
    J = np.empty(np.asarray(eta).shape[:-1] + (3, 3))
    # d/d eta1 = rho * phi' * (cos phi cos th, cos phi sin th, -sin phi)
    J[..., 0, 0] = rho * 0.5 * np.pi * cp * ct
    J[..., 1, 0] = rho * 0.5 * np.pi * cp * st
    J[..., 2, 0] = -rho * 0.5 * np.pi * sp_
    # d/d eta2 = rho sin phi * theta' * (-sin th, cos th, 0)
    J[..., 0, 1] = -rho * sp_ * 0.5 * np.pi * st
    J[..., 1, 1] = rho * sp_ * 0.5 * np.pi * ct
    J[..., 2, 1] = 0.0
    # d/d eta3 = (sin phi cos th, sin phi sin th, cos phi)
    J[..., 0, 2] = sp_ * ct
    J[..., 1, 2] = sp_ * st
    J[..., 2, 2] = cp
    return np.einsum("ab,...bc->...ac", _SHELL_L, J)


_COLUMN_C = 0.1


def _column_F(eta):
    eta = np.asarray(eta, dtype=float)
    e1, e2, e3 = eta[..., 0], eta[..., 1], eta[..., 2]
    bulge = 4.0 * e3 * (1.0 - e3)
    return np.stack(
        [e1 + _COLUMN_C * bulge * (2.0 * e1 - 1.0), e2, e3], axis=-1
    )


def _column_jac(eta):
    eta = np.asarray(eta, dtype=float)
    e1, e3 = eta[..., 0], eta[..., 2]
    J = np.zeros(eta.shape[:-1] + (3, 3))
    J[..., 0, 0] = 1.0 + 2.0 * _COLUMN_C * 4.0 * e3 * (1.0 - e3)
    J[..., 0, 2] = _COLUMN_C * (4.0 - 8.0 * e3) * (2.0 * e1 - 1.0)
    J[..., 1, 1] = 1.0
    J[..., 2, 2] = 1.0
    return J


PRESETS = {
    "unit_cube": GeometryMap("unit_cube", _cube_F, _cube_jac),
    "quarter_annulus": GeometryMap("quarter_annulus", _annulus_F, _annulus_jac),
    "spherical_shell": GeometryMap("spherical_shell", _shell_F, _shell_jac),
    "deformed_column": GeometryMap("deformed_column", _column_F, _column_jac),
}


def get_geometry(name):
    try:
        return PRESETS[name]
    except KeyError:
        raise GeometryError(
            "unknown geometry %r (available: %s)" % (name, ", ".join(sorted(PRESETS)))
        ) from None


def checked_jacobian(geo, etas):
    """Vectorized J and det(J).

    Raises:
        GeometryError: if det(J) <= 0 anywhere in the sample.
    """
    J = geo.jac(etas)
    det = np.linalg.det(J)
    if np.any(det <= 1e-13):
        raise GeometryError(
            "geometry %r has non-positive Jacobian determinant (min %g)"
            % (geo.name, float(np.min(det)))
        )
    return J, det


def metric_pieces(geo, etas):
    """Vectorized J^-1 and det(J), the pieces every metric is built from
    (raises as :func:`checked_jacobian`)."""
    J, det = checked_jacobian(geo, etas)
    return np.linalg.inv(J), det


def metric_memo(geo):
    """:func:`metric_pieces` of ``geo`` as ``pts -> (J^-1, det J)``,
    evaluated once per distinct point set; ``.tensor(pts)`` gives that
    point set's :func:`metric_tensor`, computed on its first request.

    Meant to live for one assembly, in which many coefficients are sampled
    on the same few point sets.  Entries are keyed by the points' shape and
    a hit is confirmed by ``np.array_equal`` against the stored points; a
    miss replaces the entry of that shape, tensor included.  The shared
    arrays are read-only.
    """
    seen = {}

    def entry(pts):
        pts = np.asarray(pts)
        hit = seen.get(pts.shape)
        if hit is None or not np.array_equal(hit[0], pts):
            Jinv, det = metric_pieces(geo, pts)
            Jinv.setflags(write=False)
            det.setflags(write=False)
            hit = seen[pts.shape] = [pts.copy(), (Jinv, det), None]
        return hit

    def pieces(pts):
        return entry(pts)[1]

    def tensor(pts):
        hit = entry(pts)
        if hit[2] is None:
            hit[2] = metric_tensor(*hit[1])
            hit[2].setflags(write=False)
        return hit[2]

    pieces.tensor = tensor
    return pieces


def metric_tensor(Jinv, det):
    """Q = det(J) J^-1 J^-T from :func:`metric_pieces`."""
    return det[..., None, None] * np.einsum("...ij,...kj->...ik", Jinv, Jinv)
