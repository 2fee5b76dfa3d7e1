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

import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    _metric_scale,
    assemble_rhs,
    block_operator,
    boundary_coefficient_vector,
)
from .chebfit import approximate_function, halton_sample
from .fastdiag import build_lowrank_fd
from .truncation import truncate_rel
from .tucker import (
    TuckerTensor3,
    compression_percent,
    operator_sum,
    tucker_add,
    tucker_inner,
    tucker_matvec,
    tucker_norm_qr,
    tucker_scale,
    tucker_zero,
)


@dataclass(frozen=True)
class BlockTuckerVector:
    """Three Tucker tensors, one per displacement component."""

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
    def ranks(self):
        return tuple(c.rank for c in self.components)

    def norm(self):
        return np.sqrt(max(block_inner(self, self), 0.0))


@dataclass(frozen=True)
class BlockTuckerOperator:
    """3x3 grid of Tucker-format operator blocks."""

    blocks: tuple  # blocks[i][j] maps component j to component i

    def __post_init__(self):
        assert len(self.blocks) == 3
        for row in self.blocks:
            assert len(row) == 3

    def matvec(self, x):
        return block_matvec(self, x)


def block_add(x, y):
    return BlockTuckerVector(
        tuple(tucker_add(a, b) for a, b in zip(x.components, y.components))
    )


def block_scale(x, a):
    return BlockTuckerVector(tuple(tucker_scale(c, a) for c in x.components))


def block_inner(x, y):
    return sum(
        tucker_inner(a, b) for a, b in zip(x.components, y.components)
    )


def block_norm(x):
    return x.norm()


def block_zero(dims):
    return BlockTuckerVector(tuple(tucker_zero(dims) for _ in range(3)))


def block_matvec(op, x):
    out = []
    for i in range(3):
        y = tucker_matvec(op.blocks[i][0], x.components[0])
        for j in (1, 2):
            y = tucker_add(y, tucker_matvec(op.blocks[i][j], x.components[j]))
        out.append(y)
    return BlockTuckerVector(tuple(out))


def block_truncate_rel(x, eps):
    return BlockTuckerVector(
        tuple(truncate_rel(c, eps) for c in x.components)
    )


def block_truncate_dynamic(y_prev, y_prop, eps, alpha, eps_min, delta):
    """Blockwise analogue of the adaptive iterate truncation.

    The update-ratio test uses the global (component-summed) inner
    product while the truncation itself acts componentwise at one shared
    tolerance; per-component tolerances would also be defensible, but
    sharing keeps the block vector a single unknown with one accuracy knob.
    """
    dy_exact = block_add(y_prop, block_scale(y_prev, -1.0))
    dd = block_inner(dy_exact, dy_exact)
    if dd == 0.0:
        return y_prev, eps

    eps_new = eps
    while True:
        y_next = block_truncate_rel(y_prop, eps_new)
        dy = block_add(y_next, block_scale(y_prev, -1.0))
        v = block_inner(dy_exact, dy) / dd
        if abs(v - 1.0) < delta:
            break
        if alpha * eps_new > eps_min:
            eps_new = alpha * eps_new
        else:
            break
    return y_next, eps_new


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
        space = system.spaces[direction]
        assert space.trim[1 if side else 0] == 1, (
            "face (%d, %d) carries no Dirichlet condition" % (direction, side)
        )
        factors = []
        for t in range(3):
            if t == direction:
                factors.append(
                    boundary_coefficient_vector(space, side, value)
                )
            else:
                ones = np.ones((system.spaces[t].full_dim, 1))
                if system.spaces[t].trim[0]:
                    ones[0, 0] = 0.0
                if system.spaces[t].trim[1]:
                    ones[-1, 0] = 0.0
                factors.append(ones)
        g_t = TuckerTensor3(np.ones((1, 1, 1)), tuple(factors))
        for a in range(3):
            A_ab = _unreduced_block(system, a, component)
            corrected[a] = tucker_add(
                corrected[a], tucker_scale(tucker_matvec(A_ab, g_t), -1.0)
            )
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


@dataclass
class BlockSolveReport:
    """Per-iteration history of a block TPCG run."""

    tol: float
    rhs_norm: float
    iterations: int = 0
    converged: bool = False
    breakdown: bool = False
    res_norms: list = field(default_factory=list)
    ranks_x: list = field(default_factory=list)
    ranks_r: list = field(default_factory=list)
    ranks_p: list = field(default_factory=list)
    eps_history: list = field(default_factory=list)
    final_residual: float = None
    memory_compression: float = None
    wall_time: float = None

    @property
    def residual_jump(self):
        r = self.res_norms
        return any(r[k + 1] > 10.0 * r[k] for k in range(len(r) - 1)
                   if r[k] > 0.0)

    def record(self, k, res, x, r, p, eps):
        self.res_norms.append(res)
        self.ranks_x.append(x.ranks)
        self.ranks_r.append(r.ranks)
        self.ranks_p.append(p.ranks)
        self.eps_history.append(eps)

    def to_csv(self, fh):
        cols = ["iter", "res_norm"]
        for name in ("rx", "rr", "rp"):
            cols += ["%s%d%d" % (name, c + 1, t + 1)
                     for c in range(3) for t in range(3)]
        cols.append("eps_k")
        fh.write(",".join(cols) + "\n")
        for k in range(len(self.res_norms)):
            ranks = []
            for hist in (self.ranks_x, self.ranks_r, self.ranks_p):
                for comp in hist[k]:
                    ranks.extend(str(int(v)) for v in comp)
            fh.write("%d,%.17g,%s,%.17g\n" % (
                k, self.res_norms[k], ",".join(ranks), self.eps_history[k]))

    def summary(self):
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "breakdown": self.breakdown,
            "residual": self.res_norms[-1] if self.res_norms else 0.0,
            "final_residual": self.final_residual,
            "memory_compression": self.memory_compression,
            "wall_time": self.wall_time,
        }


def block_memory_compression(x):
    """Storage of all three components relative to dense, in percent.

    100 * sum_i (r1 r2 r3 + sum_k rk nk) / sum_i (n1 n2 n3)
    """
    stored = 0
    dense = 0
    for c in x.components:
        n, r = c.dims, c.rank
        stored += r[0] * r[1] * r[2] + sum(r[k] * n[k] for k in range(3))
        dense += n[0] * n[1] * n[2]
    return 100.0 * stored / dense


def block_tpcg(op, rhs, precond, cfg, x0=None):
    """TPCG loop on block vectors; same stepping as the scalar solver.

    Inner products sum over components; truncations act componentwise at
    the shared tolerances.  Returns (BlockTuckerVector, BlockSolveReport).
    """
    t0 = time.perf_counter()
    report = BlockSolveReport(tol=cfg.tol, rhs_norm=block_norm(rhs))
    x = block_zero(rhs.dims) if x0 is None else x0
    eps = cfg.eps0
    eps_min = cfg.resolved_eps_min()

    if x0 is None:
        r = rhs
    else:
        r = block_add(rhs, block_scale(block_matvec(op, x), -1.0))
    res = block_norm(r)
    p = r
    report.record(0, res, x, r, p, eps)

    if res <= cfg.tol:
        report.converged = True
        _block_finalize(report, op, rhs, x, t0)
        return x, report

    eta = cfg.beta * cfg.tol / res
    z = block_truncate_rel(precond.apply(r), eta)
    p = z
    q = block_truncate_rel(block_matvec(op, p), eta)
    xi = block_inner(p, q)
    if xi <= 0.0:
        report.breakdown = True
        _block_finalize(report, op, rhs, x, t0)
        return x, report

    k = 0
    while res > cfg.tol and k < cfg.max_iterations:
        omega = block_inner(r, p) / xi
        x, eps = block_truncate_dynamic(
            x, block_add(x, block_scale(p, omega)), eps,
            cfg.alpha, eps_min, cfg.delta)
        r = block_truncate_rel(
            block_add(rhs, block_scale(block_matvec(op, x), -1.0)), eta)
        res = block_norm(r)
        k += 1
        if res > cfg.tol and k < cfg.max_iterations:
            eta = cfg.beta * cfg.tol / res
            z = block_truncate_rel(precond.apply(r), eta)
            beta_k = -block_inner(z, q) / xi
            p = block_truncate_rel(block_add(z, block_scale(p, beta_k)), eta)
            q = block_truncate_rel(block_matvec(op, p), eta)
            xi = block_inner(p, q)
            report.record(k, res, x, r, p, eps)
            if xi <= 0.0:
                report.breakdown = True
                break
        else:
            report.record(k, res, x, r, p, eps)

    report.iterations = k
    report.converged = res <= cfg.tol
    _block_finalize(report, op, rhs, x, t0)
    return x, report


def _block_finalize(report, op, rhs, x, t0):
    exact = block_add(rhs, block_scale(block_matvec(op, x), -1.0))
    report.final_residual = np.sqrt(
        sum(tucker_norm_qr(c) ** 2 for c in exact.components))
    report.memory_compression = block_memory_compression(x)
    report.wall_time = time.perf_counter() - t0
