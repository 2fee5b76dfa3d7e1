"""Truncated preconditioned conjugate gradient in Tucker format.

Classic PCG with every iterate re-compressed: the solution update goes
through dynamic truncation (tolerance adapts to how much the compression
perturbed the step), while residual, preconditioned residual, search
direction and operator image are truncated at a relative tolerance tied
to the current residual norm — accurate enough not to stall convergence,
loose enough to keep multilinear ranks comparable to the solution's.

The residual is recomputed from the right-hand side every iteration
instead of being updated recursively, which keeps truncation errors from
accumulating in the stopping test.  Also provides the solution-quality
metric of L2/H1 errors against a known solution.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .bsplines import gauss_rule
from .geometry import metric_data
from .truncation import truncate_dynamic, truncate_rel
from .tucker import compression_percent, multi_mode_product

# slab size (elements in the third direction) for quadrature-grid chunking
_ERROR_CHUNK = 8


@dataclass
class TpcgConfig:
    """Solver parameters; tol is the absolute residual target.

    Callers working with relative tolerances multiply by the right-hand
    side norm first.  eps_min defaults to tol/10, which equals the
    usual choice (relative tolerance) * ||f|| / 10 once tol is absolute.
    """

    tol: float
    beta: float = 1e-1
    eps0: float = 1e-1
    alpha: float = 0.5
    eps_min: float = None
    delta: float = 1e-3
    max_iterations: int = 100

    def resolved_eps_min(self):
        return 0.1 * self.tol if self.eps_min is None else self.eps_min

    @classmethod
    def relative(cls, tol_rel, rhs_norm, **kwargs):
        """Build a config from a tolerance relative to the rhs norm."""
        return cls(tol=tol_rel * rhs_norm, **kwargs)


@dataclass
class SolveReport:
    """Per-iteration history of a TPCG run plus exit diagnostics.

    Rank entries are the iterates' ``rank``: one ``(r1, r2, r3)`` for a
    scalar problem, one such tuple per component for a block problem.
    Row k holds the residual, iterate and residual ranks after step k and
    the search direction that step k + 1 takes (the last one taken in the
    final row); row 0, recorded before any direction exists, holds the
    rank of the initial residual in its ``ranks_p`` entry.
    """

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
    residual_tensor: object = None
    eta_final: float = None

    @property
    def residual_jump(self):
        """True when some step increased the residual norm by more than 10x.

        Truncation makes mild non-monotonicity normal; a jump this large
        means the truncation tolerances are fighting the iteration.
        """
        r = self.res_norms
        return any(r[k + 1] > 10.0 * r[k] for k in range(len(r) - 1)
                   if r[k] > 0.0)

    def record(self, k, res, x, r, p, eps):
        self.res_norms.append(res)
        self.ranks_x.append(x.rank)
        self.ranks_r.append(r.rank)
        self.ranks_p.append(p.rank)
        self.eps_history.append(eps)

    def to_csv(self, fh):
        """Header ``iter,res_norm,rx..,rr..,rp..,eps_k`` and one row per
        recorded step; rank columns are ``rx1..rx3`` for a scalar problem
        and ``rx11..rx33`` (component, direction) for a block one."""
        n_comp = np.size(self.ranks_x[0]) // 3
        if n_comp == 1:
            suffixes = ["%d" % (t + 1) for t in range(3)]
        else:
            suffixes = ["%d%d" % (c + 1, t + 1)
                        for c in range(n_comp) for t in range(3)]
        cols = ["iter", "res_norm"]
        for name in ("rx", "rr", "rp"):
            cols += [name + s for s in suffixes]
        fh.write(",".join(cols + ["eps_k"]) + "\n")
        for k in range(len(self.res_norms)):
            ranks = ",".join(
                str(int(v)) for hist in (self.ranks_x, self.ranks_r, self.ranks_p)
                for v in np.ravel(hist[k]))
            fh.write("%d,%.17g,%s,%.17g\n" % (
                k, self.res_norms[k], ranks, self.eps_history[k]))

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


def tpcg(op, rhs, precond, cfg, x0=None):
    """Solve op @ x = rhs with preconditioner precond; returns (x, SolveReport).

    One loop serves scalar and block problems: vectors are TuckerTensor3
    or BlockTuckerVector and are handled only through their vector
    interface (``+``, ``-``, scalar ``*``, ``inner``, ``norm``,
    ``norm_qr``, ``map``, ``rank``); op exposes ``.matvec`` and
    precond ``.apply`` on the same vector type.  Exits when the truncated
    residual norm drops to cfg.tol; non-convergence within
    cfg.max_iterations and loss of positivity (xi <= 0, possible through
    truncation) are flagged on the report rather than raised.
    """
    t0 = time.perf_counter()
    report = SolveReport(tol=cfg.tol, rhs_norm=rhs.norm())
    x = rhs.zeros_like() if x0 is None else x0
    eps = cfg.eps0
    eps_min = cfg.resolved_eps_min()

    r = rhs if x0 is None else rhs - op.matvec(x)
    res = r.norm()
    report.record(0, res, x, r, r, eps)  # no direction yet: rp holds r0's rank
    eta = None
    k = 0
    while res > cfg.tol and k < cfg.max_iterations:
        eta = cfg.beta * cfg.tol / res
        z = _truncate(precond.apply(r), eta)
        p = z if k == 0 else _truncate(z + (-z.inner(q) / xi) * p, eta)
        q = _truncate(op.matvec(p), eta)
        xi = p.inner(q)
        if k > 0:
            report.record(k, res, x, r, p, eps)
        if xi <= 0.0:
            report.breakdown = True
            break
        omega = r.inner(p) / xi
        x, eps = truncate_dynamic(
            x, x + omega * p, eps, cfg.alpha, eps_min, cfg.delta)
        r = _truncate(rhs - op.matvec(x), eta)
        res = r.norm()
        k += 1
    if k > 0 and not report.breakdown:
        report.record(k, res, x, r, p, eps)

    report.iterations = k
    report.converged = res <= cfg.tol
    report.residual_tensor = r
    report.final_residual = (rhs - op.matvec(x)).norm_qr()
    report.memory_compression = compression_percent(x)
    report.wall_time = time.perf_counter() - t0
    report.eta_final = eta
    return x, report


def _truncate(x, eps):
    """Each Tucker component of x truncated to relative accuracy eps.

    ``truncate_rel`` is looked up in this module, so the span tracer of
    ``bench/spans.py``, which patches by-name imports, sees every loop
    truncation as a direct child of ``tpcg``.
    """
    return x.map(lambda c: truncate_rel(c, eps))


def error_norms(x, spaces, geo, u_exact, grad_exact=None, quad_extra=1):
    """L2 and H1-seminorm errors of the spline solution against a known field.

    Args:
        x: TuckerTensor3 of coefficients in the (reduced) spline basis.
        spaces: the three SplineSpace1D.
        geo: GeometryMap from the parametric cube to the physical domain.
        u_exact: vectorized evaluator of the solution at physical points (...,3).
        grad_exact: vectorized physical gradient (...,3)->(...,3); when absent
            only the L2 error is computed and the H1 slot is None.
        quad_extra: Gauss points per element beyond degree+1.

    Integration runs on per-element Gauss grids, evaluated through the
    factorized basis-times-factor matrices, in slabs along the third
    direction to bound the dense grid size.
    """
    rules = [gauss_rule(s.n_el, s.p + 1 + quad_extra) for s in spaces]
    pts = [r.points.ravel() for r in rules]
    wts = [r.weights.ravel() for r in rules]
    val = [np.asarray(s.collocation_matrix(pt, deriv=0, reduced=True) @ x.factors[k])
           for k, (s, pt) in enumerate(zip(spaces, pts))]
    der = [np.asarray(s.collocation_matrix(pt, deriv=1, reduced=True) @ x.factors[k])
           for k, (s, pt) in enumerate(zip(spaces, pts))]

    q3 = len(pts[2]) // spaces[2].n_el
    slab = _ERROR_CHUNK * q3
    l2 = 0.0
    h1 = 0.0
    for start in range(0, len(pts[2]), slab):
        stop = min(start + slab, len(pts[2]))
        sel = slice(start, stop)
        e1, e2, e3 = np.meshgrid(pts[0], pts[1], pts[2][sel], indexing="ij")
        grid = np.stack([e1, e2, e3], axis=-1)
        J = geo.jac(grid)
        det = np.linalg.det(J)
        phys = geo.F(grid)
        w = (wts[0][:, None, None] * wts[1][None, :, None]
             * wts[2][sel][None, None, :]) * det

        uh = multi_mode_product(x.core, (val[0], val[1], val[2][sel]))
        diff = uh - np.asarray(u_exact(phys), dtype=float)
        l2 += float(np.sum(w * diff ** 2))

        if grad_exact is not None:
            g_eta = np.stack([
                multi_mode_product(x.core, (der[0], val[1], val[2][sel])),
                multi_mode_product(x.core, (val[0], der[1], val[2][sel])),
                multi_mode_product(x.core, (val[0], val[1], der[2][sel])),
            ], axis=-1)
            Jinv = np.linalg.inv(J)
            g_phys = np.einsum("...ji,...j->...i", Jinv, g_eta)
            gdiff = g_phys - np.asarray(grad_exact(phys), dtype=float)
            h1 += float(np.sum(w * np.sum(gdiff ** 2, axis=-1)))

    return np.sqrt(l2), (np.sqrt(h1) if grad_exact is not None else None)
