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
from .geometry import checked_jacobian
from .truncation import truncate_dynamic, truncate_rel
from .tucker import compression_percent, multi_mode_product

# slab size (elements in the third direction) for quadrature-grid chunking
_ERROR_CHUNK = 8

# Truncation parameters of the loop.  BETA sets the loop tolerance
# eta = BETA tol / res of residual, direction and operator image; EPS0 is
# the dynamic truncation's tolerance at the first step (later steps start
# from the one the step before used); ALPHA is the factor by which it
# shrinks after a rejected step; DELTA is the update-ratio threshold that
# accepts a truncated step (see truncation.truncate_dynamic).
BETA = 1e-1
EPS0 = 1e-1
ALPHA = 0.5
DELTA = 1e-3


@dataclass
class TpcgConfig:
    """Solver stopping rule: tol is the absolute residual target and
    max_iterations the iteration budget.  With diagonal_scaling the loop
    applies ``precond.for_operator(op)``, fitted to the operator: ``H V
    D^-1 V^T H``, which divides by ``D = diag(V^T A V)`` in the
    fast-diagonalization eigenbasis ``V`` and scales by a separable fit
    ``H`` of ``diag(A)``; without it, precond itself (the paper's
    preconditioner, which divides by the eigenvalue sums and which the
    study tables use).

    Callers working with relative tolerances multiply by the right-hand
    side norm first.  The truncation parameters are the module constants
    BETA, EPS0, ALPHA and DELTA; :func:`tpcg` derives the dynamic
    truncation's floor.
    """

    tol: float
    max_iterations: int = 100
    diagonal_scaling: bool = True

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

    ``omegas`` and ``betas`` are the step lengths and direction
    coefficients of the steps taken (``betas[j]`` forms direction j + 1);
    ``kappa_est`` is the condition number of the preconditioned operator
    that their Lanczos tridiagonal gives (see :func:`lanczos_kappa`), None
    when no step was taken or the loop broke down.
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
    omegas: list = field(default_factory=list)
    betas: list = field(default_factory=list)
    kappa_est: float = None
    final_residual: float = None
    memory_compression: float = None
    wall_time: float = None

    def record(self, res, x, r, p, eps):
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


def tpcg(op, rhs, precond, cfg):
    """Solve op @ x = rhs with preconditioner precond from x = 0; returns
    (x, SolveReport).

    One loop serves scalar and block problems: vectors are TuckerTensor3
    or BlockTuckerVector and are handled only through their vector
    interface (``+``, ``-``, scalar ``*``, ``inner``, ``norm``,
    ``norm_qr``, ``map``, ``rank``); op exposes ``.matvec`` and
    precond ``.apply`` on the same vector type plus ``.spectral_ratio``
    (its lam_max / lam_min), which sets the dynamic truncation's floor
    ``0.1 (cfg.tol / |rhs|) / spectral_ratio``: relative, like the
    tolerances it bounds, so the rhs scale does not matter.  With
    cfg.diagonal_scaling the loop applies ``precond.for_operator(op)``
    (``H V D^-1 V^T H``, see :class:`TpcgConfig`), built once here,
    instead of precond.  Exits when
    the truncated residual norm drops to cfg.tol; non-convergence within
    cfg.max_iterations and loss of positivity (xi <= 0, possible through
    truncation) are flagged on the report rather than raised.
    """
    t0 = time.perf_counter()
    if cfg.diagonal_scaling:
        precond = precond.for_operator(op)
    report = SolveReport(tol=cfg.tol, rhs_norm=rhs.norm())
    x = rhs.zeros_like()
    eps = EPS0
    scale = report.rhs_norm * precond.spectral_ratio
    eps_min = 0.1 * cfg.tol / scale if scale > 0.0 else 0.0

    r = rhs
    res = r.norm()
    report.record(res, x, r, r, eps)  # no direction yet: rp holds r0's rank
    k = 0
    while res > cfg.tol and k < cfg.max_iterations:
        eta = BETA * cfg.tol / res
        z = _truncate(precond.apply(r), eta)
        if k == 0:
            p = z
        else:
            beta = -z.inner(q) / xi
            report.betas.append(beta)
            p = _truncate(z + beta * p, eta)
        q = _truncate(op.matvec(p), eta)
        xi = p.inner(q)
        if k > 0:
            report.record(res, x, r, p, eps)
        if xi <= 0.0:
            report.breakdown = True
            break
        omega = r.inner(p) / xi
        report.omegas.append(omega)
        x, eps = truncate_dynamic(x, omega * p, eps, ALPHA, eps_min, DELTA)
        r = _truncate(rhs - op.matvec(x), eta)
        res = r.norm()
        k += 1
    if k > 0 and not report.breakdown:
        report.record(res, x, r, p, eps)

    report.iterations = k
    report.converged = res <= cfg.tol
    if k > 0 and not report.breakdown:
        report.kappa_est = lanczos_kappa(report.omegas, report.betas)
    report.final_residual = (rhs - op.matvec(x)).norm_qr()
    report.memory_compression = compression_percent(x)
    report.wall_time = time.perf_counter() - t0
    return x, report


def lanczos_kappa(omegas, betas):
    """Condition number of the preconditioned operator estimated from K
    PCG steps: the ratio of the extreme eigenvalues (Ritz values) of the
    K x K Lanczos tridiagonal with diagonal ``1/omega_0`` and ``1/omega_j
    + beta_j / omega_(j-1)`` and off-diagonal ``sqrt(beta_j) / omega_(j-1)``
    (Meurant & Strakos, Acta Numerica 2006), where ``beta_j`` forms
    direction j.  No operator is applied.  The square root takes
    ``|beta_j|``: beta_j > 0 in exact arithmetic, and truncation must not
    turn the estimate into NaN.
    """
    w = np.asarray(omegas, dtype=float)
    b = np.asarray(betas, dtype=float)[: len(w) - 1]
    T = np.diag(1.0 / w)
    T[1:, 1:] += np.diag(b / w[:-1])
    off = np.sqrt(np.abs(b)) / w[:-1]
    T += np.diag(off, 1) + np.diag(off, -1)
    ritz = np.linalg.eigvalsh(T)
    return float(ritz[-1] / ritz[0])


def _truncate(x, eps):
    """Each Tucker component of x truncated to relative accuracy eps.

    ``truncate_rel`` is looked up in this module, so the span tracer of
    ``bench/spans.py``, which patches by-name imports, sees every loop
    truncation as a direct child of ``tpcg``.
    """
    return x.map(lambda c: truncate_rel(c, eps))


def error_norms(x, spaces, geo, u_exact, grad_exact=None):
    """L2 and H1-seminorm errors of the spline solution against a known field.

    Args:
        x: TuckerTensor3 of coefficients in the kept spline basis.
        spaces: the three SplineSpace1D.
        geo: GeometryMap from the parametric cube to the physical domain.
        u_exact: vectorized evaluator of the solution at physical points (...,3).
        grad_exact: vectorized physical gradient (...,3)->(...,3); when absent
            only the L2 error is computed, no J^-1 is formed, and the H1
            slot is None.

    Integration runs on per-element Gauss grids of degree + 2 points,
    evaluated through the factorized basis-times-factor matrices, in slabs
    along the third direction to bound the dense grid size.

    Raises:
        GeometryError: if det(J) <= 1e-13 at a quadrature point.
    """
    rules = [gauss_rule(s.n_el, s.p + 2) for s in spaces]
    pts = [r.points.ravel() for r in rules]
    wts = [r.weights.ravel() for r in rules]
    val = [np.asarray(s.collocation_matrix(pt, deriv=0) @ x.factors[k])
           for k, (s, pt) in enumerate(zip(spaces, pts))]
    der = [np.asarray(s.collocation_matrix(pt, deriv=1) @ x.factors[k])
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
        J, det = checked_jacobian(geo, grid)
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
            g_phys = np.einsum("...ji,...j->...i", np.linalg.inv(J), g_eta)
            gdiff = g_phys - np.asarray(grad_exact(phys), dtype=float)
            h1 += float(np.sum(w * np.sum(gdiff ** 2, axis=-1)))

    return np.sqrt(l2), (np.sqrt(h1) if grad_exact is not None else None)
