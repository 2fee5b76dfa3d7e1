"""Low-rank Galerkin assembly of the Poisson system.

The bilinear form on the parametric domain is

    a(u, v) = int (grad v)^T Q (grad u) deta,   Q = det(J) J^-1 J^-T,

so the operator splits into 3x3 blocks indexed by the (test, trial)
derivative directions (k, l), weighted by the metric entry Q_kl.  Each
entry is approximated separably; a block with coefficient Tucker rank
(R1, R2, R3) becomes a Tucker-format operator whose direction-t factors
are univariate weighted Galerkin matrices, one per factor column.  The
right-hand side is built the same way from omega = det(J) * f.
"""

from dataclasses import dataclass, field

import numpy as np

from .bsplines import assemble_weighted_matrix, assemble_weighted_rhs
from .chebfit import approximate_function, halton_sample
from .geometry import metric_data
from .tucker import TuckerOperator3, TuckerTensor3, operator_sum

#: (k, l) pairs of the six distinct metric entries (upper triangle).
_UPPER = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


@dataclass
class AssembledSystem:
    """Low-rank operator/rhs pair plus the approximation context.

    Attributes:
        op: system operator in Tucker-matrix format.
        rhs: load vector in Tucker format.
        block_ranks: per-(k,l) coefficient ranks; (0,0,0) for blocks whose
            metric entry vanishes identically (they are dropped).
        aggregate_ranks: componentwise sums of the block ranks.
        spaces: the three (reduced) univariate spaces.
        geometry: the geometry map used.
        q_entries: the six approximated metric entries, upper triangle
            order, None where the entry is numerically zero.
        load_entry: the separable approximation of det(J) * f.
        eps: approximation tolerance used throughout.
    """

    op: TuckerOperator3
    rhs: TuckerTensor3
    block_ranks: dict
    aggregate_ranks: tuple
    spaces: tuple
    geometry: object
    q_entries: list
    load_entry: object
    eps: float


def _is_zero_entry(sf):
    return sf is None or np.all(sf.tensor.core == 0.0)


def _metric_scale(geo, n_sample=128):
    """Magnitude of the metric over a low-discrepancy sample."""
    pts = halton_sample(n_sample)
    Q, det = metric_data(geo, pts)
    return float(np.max(np.abs(Q))), float(np.max(np.abs(det)))


def approximate_metric(geo, eps):
    """Separable approximations of the six distinct entries of Q."""
    qscale, _ = _metric_scale(geo)
    entries = []
    for k, l in _UPPER:
        sf = approximate_function(
            lambda pts, k=k, l=l: metric_data(geo, pts)[0][..., k, l],
            eps,
            scale=qscale,
        )
        entries.append(None if _is_zero_entry(sf) else sf)
    return entries


def _entry(q_entries, k, l):
    i = _UPPER.index((min(k, l), max(k, l)))
    return q_entries[i]


def block_operator(spaces, sf, k, l, reduced_col=True):
    """Tucker-format operator for derivative pair (k, l) weighted by sf.

    Direction t pairs a test derivative of order delta_{tk} with a trial
    derivative of order delta_{tl}; factor column r of sf supplies the
    polynomial weight of slot r.
    """
    factors = []
    for t in range(3):
        mats = [
            assemble_weighted_matrix(
                spaces[t],
                spaces[t],
                1 if t == k else 0,
                1 if t == l else 0,
                w_cheb=w,
                reduced_col=reduced_col,
            )
            for w in sf.direction_weights(t)
        ]
        factors.append(tuple(mats))
    return TuckerOperator3(sf.tensor.core, tuple(factors))


def assemble_rhs(spaces, load_sf, reduced=True):
    """Tucker load vector from the separable weight omega."""
    factors = []
    for t in range(3):
        cols = [
            assemble_weighted_rhs(spaces[t], w_cheb=w, reduced=reduced)
            for w in load_sf.direction_weights(t)
        ]
        factors.append(np.column_stack(cols))
    return TuckerTensor3(load_sf.tensor.core.copy(), tuple(factors))


def assemble_system(spaces, geo, f, eps):
    """Assemble the low-rank Poisson system.

    Args:
        spaces: three SplineSpace1D (with the problem's Dirichlet flags).
        geo: GeometryMap.
        f: load evaluator on the parametric cube (vectorized preferred).
        eps: separable-approximation tolerance.
    """
    q_entries = approximate_metric(geo, eps)
    _, dscale = _metric_scale(geo)

    def omega(pts):
        det = metric_data(geo, pts)[1]
        return det * np.asarray(f(pts), dtype=float)

    load_sf = approximate_function(omega, eps, scale=dscale)

    blocks = []
    block_ranks = {}
    for k in range(3):
        for l in range(3):
            sf = _entry(q_entries, k, l)
            if sf is None:
                block_ranks[(k, l)] = (0, 0, 0)
                continue
            block_ranks[(k, l)] = sf.rank
            blocks.append(block_operator(spaces, sf, k, l))
    op = operator_sum(blocks)
    aggregate = tuple(
        sum(block_ranks[(k, l)][t] for k in range(3) for l in range(3))
        for t in range(3)
    )
    rhs = assemble_rhs(spaces, load_sf)
    return AssembledSystem(
        op=op,
        rhs=rhs,
        block_ranks=block_ranks,
        aggregate_ranks=aggregate,
        spaces=spaces,
        geometry=geo,
        q_entries=q_entries,
        load_entry=load_sf,
        eps=eps,
    )


def boundary_coefficient_vector(space, side, value):
    """Coefficients of the spline extension of constant boundary data.

    Open knot vectors are interpolatory at the ends, so constant data g on
    the end ``side`` is represented by g times the first/last basis
    function (full numbering).
    """
    e = np.zeros((space.full_dim, 1))
    e[-1 if side else 0, 0] = value
    return e


def face_extension(spaces, direction, side, value):
    """Rank-1 Tucker tensor of full coefficients extending the constant
    Dirichlet value on face ``(direction, side)`` into the cube.

    The extension is constant along the transversal directions, forced to
    zero at their Dirichlet ends so homogeneous data there stays intact.
    """
    space = spaces[direction]
    assert space.trim[1 if side else 0] == 1, (
        "face (%d, %d) does not carry a Dirichlet condition" % (direction, side)
    )
    factors = []
    for t in range(3):
        if t == direction:
            factors.append(boundary_coefficient_vector(space, side, value))
        else:
            ones = np.ones((spaces[t].full_dim, 1))
            if spaces[t].trim[0]:
                ones[0, 0] = 0.0
            if spaces[t].trim[1]:
                ones[-1, 0] = 0.0
            factors.append(ones)
    return TuckerTensor3(np.ones((1, 1, 1)), tuple(factors))


def dirichlet_lift(system, faces):
    """Correct the rhs for inhomogeneous Dirichlet data on cube faces.

    Args:
        system: AssembledSystem (supplies f, the metric approximations and
            the spaces).
        faces: iterable of (direction, side, value) with side 0 (eta=0) or
            1 (eta=1) and constant value.  Faces must carry Dirichlet
            conditions in the corresponding space.

    Returns:
        TuckerTensor3: f - A_boundary g in Tucker format (exact ranks).
    """
    faces = [face for face in faces if face[2] != 0.0]
    corrected = system.rhs
    if not faces:
        return corrected
    blocks = []
    for k in range(3):
        for l in range(3):
            sf = _entry(system.q_entries, k, l)
            if sf is not None:
                blocks.append(
                    block_operator(system.spaces, sf, k, l, reduced_col=False)
                )
    A_bdry = operator_sum(blocks)
    for direction, side, value in faces:
        g_t = face_extension(system.spaces, direction, side, value)
        corrected = corrected - A_bdry.matvec(g_t)
    return corrected
