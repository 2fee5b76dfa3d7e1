"""Low-rank Galerkin assembly of scalar and block systems.

A problem with m solution components (m = 1 for Poisson, 3 for
elasticity) has one coefficient per test component a, trial component b,
test derivative direction c and trial derivative direction e:

    a(u, v) = sum int W^(a,b)_(c,e) (d_c v_a) (d_e u_b) deta.

For Poisson W_(c,e) = Q_ce with Q = det(J) J^-1 J^-T.  Each coefficient is
approximated separably; one of coefficient Tucker rank (R1, R2, R3) becomes
a Tucker-format operator whose direction-t factors are univariate weighted
Galerkin matrices, one per factor column, and block (a, b) is their sum
over (c, e).  The blocks are assembled once on the untrimmed spline
spaces: the system operator is their restriction to the rows and columns
that the Dirichlet conditions keep, and inhomogeneous Dirichlet data is
lifted into the load through the row-restricted blocks.  The load of
component a is built the same way from omega_a = det(J) f_a.

Every coefficient, load and scale sample is built from J^-1 and det(J),
and the fits sample a handful of point sets over and over (the Chebyshev
grids of each degree and the Halton validation sample).  One assembly
therefore evaluates the map through a per-call memo
(:func:`geometry.metric_memo`): J, J^-1 and det(J) are computed once per
distinct point set and dropped when the assembly returns.
"""

from dataclasses import dataclass

import numpy as np

from .bsplines import assemble_weighted_matrix, assemble_weighted_rhs
from .chebfit import approximate_function, halton_sample
from .geometry import metric_memo, metric_tensor
from .tucker import (
    BlockTuckerOperator,
    BlockTuckerVector,
    TuckerOperator3,
    TuckerTensor3,
    operator_sum,
    operator_transpose,
)


@dataclass
class AssembledSystem:
    """Operator/rhs pair of an m-component problem plus its approximation
    context.

    Attributes:
        op: TuckerOperator3 (m = 1) or BlockTuckerOperator (m = 3) on the
            trimmed spaces.
        rhs: TuckerTensor3 or BlockTuckerVector load on the trimmed spaces
            (Dirichlet-lifted when faces were given).
        blocks: m x m grid of TuckerOperator3 on the untrimmed spaces;
            ``blocks[a][b]`` maps component b to component a.
        entries: {(a, b): {(c, e): separable coefficient}} for a <= b and,
            on diagonal blocks, c <= e; numerically zero coefficients are
            left out and the others follow by symmetry.
        loads: the separable approximations of det(J) f_a, one per
            component.
        spaces: the three univariate spaces (shared by the components).
    """

    op: object
    rhs: object
    blocks: tuple
    entries: dict
    loads: list
    spaces: tuple


def _metric_scale(metric):
    """Magnitude of the metric over a 128-point low-discrepancy sample;
    ``metric`` maps points to (J^-1, det J)."""
    pts = halton_sample(128)
    Jinv, det = metric(pts)
    Q = metric_tensor(Jinv, det)
    return float(np.max(np.abs(Q))), float(np.max(np.abs(det)))


def block_operator(spaces, sf, k, l):
    """Tucker-format operator for derivative pair (k, l) weighted by sf, on
    the untrimmed spaces.

    Direction t pairs a test derivative of order delta_{tk} with a trial
    derivative of order delta_{tl}; factor column r of sf supplies the
    polynomial weight of slot r.
    """
    factors = []
    for t in range(3):
        mats = [
            assemble_weighted_matrix(
                spaces[t], 1 if t == k else 0, 1 if t == l else 0, w_cheb=w)
            for w in sf.direction_weights(t)
        ]
        factors.append(tuple(mats))
    return TuckerOperator3(sf.tensor.core, tuple(factors))


def _restrict(op, spaces, cols=True):
    """``op`` on the rows, and with ``cols`` the columns, that the spaces'
    Dirichlet conditions keep."""

    def cut(C, space):
        return C[space.keep, space.keep] if cols else C[space.keep]

    return TuckerOperator3(op.core, tuple(
        tuple(cut(C, space) for C in Cs) for Cs, space in zip(op.factors, spaces)))


def _vector(parts):
    """One component as itself, three as a BlockTuckerVector."""
    return parts[0] if len(parts) == 1 else BlockTuckerVector(tuple(parts))


def assemble_rhs(spaces, load_sf):
    """Tucker load vector from the separable weight omega, on the kept
    basis functions."""
    factors = []
    for t in range(3):
        cols = [
            assemble_weighted_rhs(spaces[t], w_cheb=w)[spaces[t].keep]
            for w in load_sf.direction_weights(t)
        ]
        factors.append(np.column_stack(cols))
    return TuckerTensor3(load_sf.tensor.core.copy(), tuple(factors))


def assemble_form(spaces, metric, W, scale, loads, eps):
    """Assemble the system of an m-component form, m = len(loads).

    Args:
        spaces: three SplineSpace1D shared by the components.
        metric: ``pts -> (J^-1, det J)`` of the geometry, normally the
            assembly's :func:`geometry.metric_memo`.
        W: ``W(a, b, c, e)`` returns the vectorized evaluator of that
            coefficient on the parametric cube; W^(a,b)_(c,e) =
            W^(b,a)_(e,c), so only a <= b (and c <= e when a = b) is fitted.
        scale: magnitude of the coefficients; a fit below 1e-14 scale is
            numerically zero and its terms are dropped.
        loads: the m component loads on the parametric cube, each a
            vectorized evaluator or a constant.
        eps: separable-approximation tolerance.

    Returns:
        AssembledSystem with homogeneous Dirichlet data.
    """
    m = len(loads)
    entries = {}
    blocks = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            fits = {}
            for c in range(3):
                for e in range(c if a == b else 0, 3):
                    sf = approximate_function(W(a, b, c, e), eps, scale=scale)
                    if not np.all(sf.tensor.core == 0.0):
                        fits[(c, e)] = sf
            entries[(a, b)] = fits
            parts = []
            for c in range(3):
                for e in range(3):
                    sf = fits.get((min(c, e), max(c, e)) if a == b else (c, e))
                    if sf is not None:
                        parts.append(block_operator(spaces, sf, c, e))
            blocks[a][b] = operator_sum(parts)
            if b > a:
                blocks[b][a] = operator_transpose(blocks[a][b])

    _, dscale = _metric_scale(metric)
    load_fits = []
    for f in loads:
        if not callable(f):
            f = lambda pts, val=float(f): np.full(np.asarray(pts).shape[:-1], val)

        def omega(pts, f=f):
            det = metric(pts)[1]
            return det * np.asarray(f(pts), dtype=float)

        load_fits.append(approximate_function(omega, eps, scale=dscale))

    trimmed = [[_restrict(block, spaces) for block in row] for row in blocks]
    return AssembledSystem(
        op=trimmed[0][0] if m == 1 else BlockTuckerOperator(
            tuple(map(tuple, trimmed))),
        rhs=_vector([assemble_rhs(spaces, sf) for sf in load_fits]),
        blocks=tuple(map(tuple, blocks)),
        entries=entries,
        loads=load_fits,
        spaces=spaces,
    )


def assemble_system(spaces, geo, f, eps):
    """Assemble the low-rank Poisson system.

    Args:
        spaces: three SplineSpace1D (with the problem's Dirichlet flags).
        geo: GeometryMap.
        f: load on the parametric cube, a vectorized evaluator or a constant.
        eps: separable-approximation tolerance.
    """

    metric = metric_memo(geo)

    def Q(a, b, c, e):
        return lambda pts: metric_tensor(*metric(pts))[..., c, e]

    qscale, _ = _metric_scale(metric)
    return assemble_form(spaces, metric, Q, qscale, (f,), eps)


def face_extension(spaces, direction, side, value):
    """Rank-1 Tucker tensor of full coefficients extending the constant
    Dirichlet value on face ``(direction, side)`` into the cube.

    Open knot vectors are interpolatory at the ends, so the value sits on
    the first/last basis function of the face direction.  The extension is
    constant along the transversal directions, forced to zero at their
    Dirichlet ends so homogeneous data there stays intact.

    Raises:
        ValueError: if the face does not carry a Dirichlet condition.
    """
    if spaces[direction].trim[1 if side else 0] != 1:
        raise ValueError("face (%d, %d) does not carry a Dirichlet condition"
                         % (direction, side))
    factors = []
    for t, space in enumerate(spaces):
        if t == direction:
            v = np.zeros((space.full_dim, 1))
            v[-1 if side else 0, 0] = value
        else:
            v = np.ones((space.full_dim, 1))
            if space.trim[0]:
                v[0, 0] = 0.0
            if space.trim[1]:
                v[-1, 0] = 0.0
        factors.append(v)
    return TuckerTensor3(np.ones((1, 1, 1)), tuple(factors))


def dirichlet_lift(system, faces):
    """Correct the rhs for inhomogeneous Dirichlet data on cube faces.

    Args:
        system: AssembledSystem.
        faces: iterable of (component, direction, side, value): the
            constant value of that component on the face eta_direction =
            side (0 or 1), which must carry a Dirichlet condition.

    Returns:
        f - A_boundary g in the rhs's type (exact ranks): block (a, b)
        restricted to the kept rows, with all its columns, applied to the
        extension g of each face of component b.  Nothing is re-assembled.
    """
    parts = list(system.rhs.components)
    for component, direction, side, value in faces:
        if value == 0.0:
            continue
        g = face_extension(system.spaces, direction, side, value)
        for a, row in enumerate(system.blocks):
            A = _restrict(row[component], system.spaces, cols=False)
            parts[a] = parts[a] - A.matvec(g)
    return _vector(parts)
