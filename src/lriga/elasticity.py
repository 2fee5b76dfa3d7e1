"""Compressible linear elasticity as a 3x3 block Tucker system.

Pulling 2 mu eps(u):eps(v) + lam (div u)(div v) back to the parametric
cube and splitting by displacement components (a = test, b = trial) and
derivative directions (c = test, e = trial) gives one scalar coefficient
per (a, b, c, e):

    W^(a,b)_(c,e) = mu delta_ab Q_ce + mu g B_cb B_ea + lam g B_ca B_eb,

with B = J^-1, g = det J and Q = g B B^T the scalar-problem metric.  Each
coefficient is approximated separably and assembled with the scalar
pipeline, so a block is a sum of Tucker-format operators and the system
is a 3x3 grid of them.  Vectors carry one Tucker tensor per displacement
component; inner products sum over components and truncations act
componentwise at shared tolerances.
"""

from dataclasses import dataclass

import numpy as np

from .assembly import (
    _metric_scale,
    assemble_rhs,
    block_operator,
    face_extension,
)
from .chebfit import approximate_function, halton_sample
from .fastdiag import build_lowrank_fd
from .tpcg import tpcg
from .truncation import truncate_dynamic
from .tucker import operator_sum, tucker_add, tucker_matvec


@dataclass(frozen=True)
class BlockTuckerVector:
    """Three Tucker tensors, one per displacement component.

    Implements the vector interface of TuckerTensor3 that the solver uses:
    arithmetic acts componentwise, the inner product is the component sum
    and ``map`` applies a Tucker-tensor map (a truncation) per component.
    """

    components: tuple

    def __post_init__(self):
        assert len(self.components) == 3
        dims = self.components[0].dims
        for c in self.components[1:]:
            assert c.dims == dims, "components must share outer dims"

    @property
    def dims(self):
        return self.components[0].dims

    @property
    def rank(self):
        """Per-component multilinear ranks."""
        return tuple(c.rank for c in self.components)

    ranks = rank  # the name bench/workloads.py reads

    def zeros_like(self):
        return BlockTuckerVector(tuple(c.zeros_like() for c in self.components))

    def inner(self, other):
        return sum(a.inner(b) for a, b in zip(self.components, other.components))

    def norm(self):
        return np.sqrt(max(self.inner(self), 0.0))

    def norm_qr(self):
        return np.sqrt(sum(c.norm_qr() ** 2 for c in self.components))

    def map(self, fn):
        """``fn`` (a TuckerTensor3 map) applied to every component."""
        return BlockTuckerVector(tuple(fn(c) for c in self.components))

    def __add__(self, other):
        return BlockTuckerVector(
            tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other):
        return BlockTuckerVector(
            tuple(a - b for a, b in zip(self.components, other.components)))

    def __rmul__(self, a):
        return BlockTuckerVector(tuple(a * c for c in self.components))


@dataclass(frozen=True)
class BlockTuckerOperator:
    """3x3 grid of Tucker-format operator blocks."""

    blocks: tuple  # blocks[i][j] maps component j to component i

    def __post_init__(self):
        assert len(self.blocks) == 3
        for row in self.blocks:
            assert len(row) == 3

    def matvec(self, x):
        out = []
        for row in self.blocks:
            y = tucker_matvec(row[0], x.components[0])
            for j in (1, 2):
                y = tucker_add(y, tucker_matvec(row[j], x.components[j]))
            out.append(y)
        return BlockTuckerVector(tuple(out))


#: Block problems run the one TPCG loop; the old name stays importable.
block_tpcg = tpcg


def block_truncate_dynamic(y_prev, y_prop, eps, alpha, eps_min, delta):
    """Former name of :func:`truncation.truncate_dynamic` for block vectors."""
    return truncate_dynamic(y_prev, y_prop, eps, alpha, eps_min, delta)


def operator_transpose(op):
    """Transpose of a Tucker-format operator (factorwise transposition)."""
    factors = tuple(
        tuple(C.T for C in op.factors[k]) for k in range(3)
    )
    return type(op)(op.core, factors)


def _metric_pieces(geo, pts):
    J = geo.jac(pts)
    det = np.linalg.det(J)
    B = np.linalg.inv(J)
    return B, det


def _coefficient(geo, a, b, c, e, lam, mu):
    """Pointwise evaluator of W^(a,b)_(c,e) on the parametric cube."""

    def w(pts):
        B, g = _metric_pieces(geo, pts)
        val = mu * g * B[..., c, b] * B[..., e, a]
        val = val + lam * g * B[..., c, a] * B[..., e, b]
        if a == b:
            Q_ce = g * np.einsum("...s,...s->...", B[..., c, :], B[..., e, :])
            val = val + mu * Q_ce
        return val

    return w


def _elastic_scale(geo, lam, mu, n_sample=128):
    pts = halton_sample(n_sample)
    B, g = _metric_pieces(geo, pts)
    bmax = float(np.max(np.abs(B)))
    gmax = float(np.max(np.abs(g)))
    return (2.0 * mu + lam) * gmax * max(bmax * bmax, 1.0)


@dataclass
class ElasticSystem:
    """Block operator/rhs pair plus the approximation context.

    Attributes:
        op: BlockTuckerOperator.
        rhs: BlockTuckerVector (Dirichlet-lifted when faces were given).
        block_ranks: {(a, b): per-direction sums of coefficient ranks}.
        coeff_entries: {(a, b): {(c, e): separable approximation}} for the
            upper triangle a <= b; lower blocks are transposes.
        spaces: the three univariate spaces (shared by the components).
        geometry, lam, mu, eps: the problem data.
    """

    op: BlockTuckerOperator
    rhs: BlockTuckerVector
    block_ranks: dict
    coeff_entries: dict
    spaces: tuple
    geometry: object
    lam: float
    mu: float
    eps: float


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
        ElasticSystem.
    """
    assert mu > 0.0 and lam >= 0.0
    wscale = _elastic_scale(geo, lam, mu)
    _, dscale = _metric_scale(geo)

    coeff = {}
    blocks = [[None] * 3 for _ in range(3)]
    block_ranks = {}
    for a in range(3):
        for b in range(a, 3):
            entries = {}
            parts = []
            for c in range(3):
                for e in range(3):
                    if a == b and e < c:
                        continue
                    sf = approximate_function(
                        _coefficient(geo, a, b, c, e, lam, mu),
                        eps,
                        scale=wscale,
                    )
                    if np.all(sf.tensor.core == 0.0):
                        continue
                    entries[(c, e)] = sf
                    parts.append(block_operator(spaces, sf, c, e))
                    if a == b and e > c:
                        parts.append(block_operator(spaces, sf, e, c))
            coeff[(a, b)] = entries
            blocks[a][b] = operator_sum(parts)
            if b > a:
                blocks[b][a] = operator_transpose(blocks[a][b])
            ranks = [sf.rank for sf in entries.values()]
            if a == b:
                ranks += [
                    sf.rank for (c, e), sf in entries.items() if e > c
                ]
            block_ranks[(a, b)] = tuple(
                sum(r[t] for r in ranks) for t in range(3)
            )
            if b > a:
                block_ranks[(b, a)] = block_ranks[(a, b)]

    op = BlockTuckerOperator(tuple(tuple(row) for row in blocks))

    rhs_parts = []
    for a in range(3):
        fa = f[a]
        if not callable(fa):
            val = float(fa)
            fa = lambda pts, val=val: np.full(
                np.asarray(pts).shape[:-1], val
            )

        def omega(pts, fa=fa):
            _, g = _metric_pieces(geo, pts)
            return g * np.asarray(fa(pts), dtype=float)

        load_sf = approximate_function(omega, eps, scale=dscale)
        rhs_parts.append(assemble_rhs(spaces, load_sf))
    rhs = BlockTuckerVector(tuple(rhs_parts))

    system = ElasticSystem(
        op=op,
        rhs=rhs,
        block_ranks=block_ranks,
        coeff_entries=coeff,
        spaces=spaces,
        geometry=geo,
        lam=lam,
        mu=mu,
        eps=eps,
    )
    if dirichlet:
        system.rhs = _lift(system, dirichlet)
    return system


def _unreduced_block(system, a, b):
    """Block (a, b) with unreduced trial space, for boundary lifting.

    The coefficients are stored for the upper triangle only; the
    symmetry W^(a,b)_(c,e) = W^(b,a)_(e,c) recovers the rest.
    """
    parts = []
    for (c, e), sf in system.coeff_entries[(min(a, b), max(a, b))].items():
        if a == b and e > c:
            pairs = [(c, e), (e, c)]
        elif a <= b:
            pairs = [(c, e)]
        else:
            pairs = [(e, c)]
        for cc, ee in pairs:
            parts.append(
                block_operator(system.spaces, sf, cc, ee, reduced_col=False)
            )
    return operator_sum(parts)


def _lift(system, faces):
    """rhs minus boundary columns times the constant-data extension."""
    corrected = list(system.rhs.components)
    for component, direction, side, value in faces:
        if value == 0.0:
            continue
        g_t = face_extension(system.spaces, direction, side, value)
        for a in range(3):
            A_ab = _unreduced_block(system, a, component)
            corrected[a] = corrected[a] - A_ab.matvec(g_t)
    return BlockTuckerVector(tuple(corrected))


@dataclass(frozen=True)
class BlockDiagPreconditioner:
    """Independent per-component applicators; off-diagonal blocks ignored."""

    parts: tuple

    def apply(self, x):
        return BlockTuckerVector(
            tuple(P.apply(c) for P, c in zip(self.parts, x.components))
        )

    def diagnostics(self):
        return [P.diagnostics() for P in self.parts]


def block_preconditioner(spaces, lam, mu, eps_rel, r_cap=128):
    """Block-diagonal fast-diagonalization preconditioner.

    Component i uses the parametric (identity-geometry) diagonal block,
    a Kronecker sum whose direction-i stiffness is weighted 2 mu + lam
    and the transversal ones mu; each inverse is the low-rank FD
    applicator at relative accuracy eps_rel.
    """
    from .bsplines import assemble_pencil
    from .eigen import approx_eigen

    eigs = [approx_eigen(s, assemble_pencil(s)) for s in spaces]
    parts = []
    for i in range(3):
        weights = [2.0 * mu + lam if d == i else mu for d in range(3)]
        parts.append(build_lowrank_fd(eigs, eps_rel, weights=weights,
                                      r_cap=r_cap))
    return BlockDiagPreconditioner(tuple(parts))
