"""Compressible linear elasticity as a 3x3 block Tucker system.

Pulling 2 mu eps(u):eps(v) + lam (div u)(div v) back to the parametric
cube and splitting by displacement components (a = test, b = trial) and
derivative directions (c = test, e = trial) gives one scalar coefficient
per (a, b, c, e):

    W^(a,b)_(c,e) = mu delta_ab Q_ce + mu g B_cb B_ea + lam g B_ca B_eb,

with B = J^-1, g = det J and Q = g B B^T the scalar-problem metric; B and
g come from the assembly's metric memo, so each sample point set is
evaluated once for all coefficients, loads and the scale.  The
coefficients go through the scalar problem's assembly
(:func:`assembly.assemble_form`), so a block is a sum of Tucker-format
operators and the system is a 3x3 grid of them.  Vectors carry one Tucker
tensor per displacement component; inner products sum over components and
truncations act componentwise at shared tolerances.
"""

from dataclasses import dataclass

import numpy as np

from .assembly import assemble_form, dirichlet_lift
from .bsplines import assemble_pencil
from .chebfit import halton_sample
from .eigen import approx_eigen
from .fastdiag import build_lowrank_fd
from .geometry import metric_memo
from .tpcg import tpcg
from .truncation import truncate_dynamic
from .tucker import (  # noqa: F401  (re-exported)
    BlockTuckerOperator,
    BlockTuckerVector,
    operator_transpose,
)


#: Block problems run the one TPCG loop; the old name stays importable.
block_tpcg = tpcg


def block_truncate_dynamic(y_prev, step, eps, alpha, eps_min, delta):
    """Former name of :func:`truncation.truncate_dynamic` for block vectors."""
    return truncate_dynamic(y_prev, step, eps, alpha, eps_min, delta)


def _coefficient(metric, a, b, c, e, lam, mu):
    """Pointwise evaluator of W^(a,b)_(c,e) on the parametric cube;
    ``metric`` maps points to (J^-1, det J)."""

    def w(pts):
        B, g = metric(pts)
        val = mu * g * B[..., c, b] * B[..., e, a]
        val = val + lam * g * B[..., c, a] * B[..., e, b]
        if a == b:
            Q_ce = g * np.einsum("...s,...s->...", B[..., c, :], B[..., e, :])
            val = val + mu * Q_ce
        return val

    return w


def _elastic_scale(metric, lam, mu):
    pts = halton_sample(128)
    B, g = metric(pts)
    bmax = float(np.max(np.abs(B)))
    gmax = float(np.max(np.abs(g)))
    return (2.0 * mu + lam) * gmax * max(bmax * bmax, 1.0)


def assemble_elasticity(spaces, geo, f, lam, mu, eps, dirichlet=()):
    """Assemble the block system for the pulled-back elasticity form.

    Args:
        spaces: three SplineSpace1D shared by all displacement components.
        geo: GeometryMap.
        f: three per-component loads on the parametric cube; each entry a
            vectorized evaluator or a constant.
        lam, mu: Lame coefficients (lam >= 0, mu > 0).
        eps: separable-approximation tolerance.
        dirichlet: iterable of (component, direction, side, value) constant
            Dirichlet faces; nonzero values are lifted into the rhs.

    Returns:
        AssembledSystem with three components.

    Raises:
        ValueError: if mu <= 0 or lam < 0.
    """
    if not (mu > 0.0 and lam >= 0.0):
        raise ValueError("need mu > 0 and lam >= 0, got lam = %r, mu = %r"
                         % (lam, mu))

    metric = metric_memo(geo)

    def W(a, b, c, e):
        return _coefficient(metric, a, b, c, e, lam, mu)

    system = assemble_form(
        spaces, metric, W, _elastic_scale(metric, lam, mu), tuple(f), eps)
    system.rhs = dirichlet_lift(system, dirichlet)
    return system


@dataclass(frozen=True)
class BlockDiagPreconditioner:
    """Independent per-component applicators; off-diagonal blocks ignored.

    Each part is a :class:`lriga.fastdiag.LowRankFD` with its own direction
    weights, so a part applies its own weighted Kronecker sum's exact
    inverse, and fits its exponential sum only when that sum is first read.
    """

    parts: tuple

    @property
    def spectral_ratio(self):
        """Largest ``lam_max / lam_min`` of the parts."""
        return max(P.spectral_ratio for P in self.parts)

    def for_operator(self, op):
        """Part ``i`` fitted to the diagonal block ``op.blocks[i][i]``:
        ``H_i V D_i^-1 V^T H_i`` with ``D_i = diag(V^T A_ii V)`` (see
        :meth:`lriga.fastdiag.LowRankFD.for_operator`); the direction
        weights then set only the spectral ratio."""
        return BlockDiagPreconditioner(tuple(
            P.for_operator(op.blocks[i][i]) for i, P in enumerate(self.parts)))

    def apply(self, x):
        return BlockTuckerVector(
            tuple(P.apply(c) for P, c in zip(self.parts, x.components))
        )


def block_preconditioner(spaces, lam, mu, eps_rel):
    """Block-diagonal fast-diagonalization preconditioner.

    Component i uses the parametric (identity-geometry) diagonal block,
    a Kronecker sum whose direction-i stiffness is weighted 2 mu + lam
    and the transversal ones mu; each inverse is the exact
    fast-diagonalization apply.  ``eps_rel`` is the accuracy of each part's
    exponential sum, which only a reader of ``expsum`` or ``R`` fits.
    """
    eigs = [approx_eigen(s, assemble_pencil(s)) for s in spaces]
    parts = []
    for i in range(3):
        weights = [2.0 * mu + lam if d == i else mu for d in range(3)]
        parts.append(build_lowrank_fd(eigs, eps_rel, weights=weights))
    return BlockDiagPreconditioner(tuple(parts))
