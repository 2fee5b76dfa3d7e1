"""The benchmark's workloads: one repetition each, plus its correctness check.

Every workload calls lriga's public API only and looks the functions up on
the ``lriga`` package at call time, so a :class:`spans.Tracer` installed
before the call sees them.  The checks never reuse the solver's own norms:
residuals come from dense expansions computed here, exponential sums are
re-evaluated on a grid of their own, and operators are probed with random
rank-1 vectors contracted factor by factor.
"""

import resource
import time
from dataclasses import dataclass

import numpy as np

import lriga

TOL = 1e-6
PRECOND_EPS = 1e-1
ASSEMBLY_EPS = 1e-7
LAM, MU = 0.3 / 0.52, 1.0 / 2.6  # E = 1, nu = 0.3
COLUMN_TOP = -0.5
COLUMN_FACES = ((2, 2, 0, 0.0), (2, 2, 1, COLUMN_TOP))
N_PROBES = 3


@dataclass(frozen=True)
class SolveWorkload:
    geometry: str
    p: int
    n_el: int
    elasticity: bool = False


@dataclass(frozen=True)
class SweepCell:
    p: int
    n_el: int
    precond_eps: tuple
    column: bool


SOLVES = {
    "annulus-p3-n32": SolveWorkload("quarter_annulus", 3, 32),
    "shell-p3-n20": SolveWorkload("spherical_shell", 3, 20),
    "column-elast-p2-n16": SolveWorkload("deformed_column", 2, 16,
                                         elasticity=True),
}

#: Setup grid: shell assembly and scalar preconditioners on every cell,
#: column assembly where ``column`` is set.  The first cell's shell system
#: is solved once at the end, so the sweep also reports solve metrics.
SWEEP = (
    SweepCell(2, 16, (1e-1,), True),
    SweepCell(3, 64, (1e-1,), True),
    SweepCell(4, 256, (1e-3,), False),
)

def smooth_load(seed):
    """Load 1 + a * eta_3 with a drawn from [0.25, 0.28]: a density that
    grows with height.

    Separable rank (1, 1, 2).  The range of ``a`` is narrow because the
    truncated solution's ranks move by one here and there as ``a`` changes
    (on the annulus, compression jumps between 15.5% and 17.2% over
    [0.1, 0.5]); on [0.25, 0.28] every workload keeps the same ranks and
    iterations, so every seed gives the same amount of work.
    """
    a = np.random.default_rng(seed).uniform(0.25, 0.28)

    def f(pts):
        return 1.0 + a * np.asarray(pts, dtype=float)[..., 2]

    return f


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- independent dense expansions -------------------------------------------

def dense(t):
    """Dense array of a Tucker tensor, expanded here rather than by lriga."""
    U1, U2, U3 = t.factors
    return np.einsum("abc,ia,jb,kc->ijk", t.core, U1, U2, U3, optimize=True)


def _mode(X, axis, C):
    Xm = np.moveaxis(X, axis, 0)
    shape = Xm.shape
    Y = np.asarray(C @ Xm.reshape(shape[0], -1))
    return np.moveaxis(Y.reshape((Y.shape[0],) + shape[1:]), 0, axis)


def dense_apply(op, X):
    """sum_i core[i] * X x1 C1_i1 x2 C2_i2 x3 C3_i3 on a dense array X."""
    core = op.core
    out = 0.0
    for i3, C3 in enumerate(op.factors[2]):
        W = _mode(X, 2, C3)
        V = [_mode(W, 1, C2) for C2 in op.factors[1]]
        for i1, C1 in enumerate(op.factors[0]):
            S = 0.0
            for i2, Vi in enumerate(V):
                if core[i1, i2, i3] != 0.0:
                    S = S + core[i1, i2, i3] * Vi
            if not np.isscalar(S):
                out = out + _mode(S, 0, C1)
    return out


def true_residual_rel(system, x, elasticity):
    """||dense(rhs) - dense(A x)|| / ||dense(rhs)|| from dense expansions."""
    if not elasticity:
        b = dense(system.rhs)
        r = b - dense_apply(system.op, dense(x))
        return float(np.linalg.norm(r) / np.linalg.norm(b))
    xs = [dense(c) for c in x.components]
    num = den = 0.0
    for i, rhs_i in enumerate(system.rhs.components):
        b = dense(rhs_i)
        Ax = sum(dense_apply(system.op.blocks[i][j], xs[j]) for j in range(3))
        num += float(np.sum((b - Ax) ** 2))
        den += float(np.sum(b ** 2))
    return float(np.sqrt(num / den))


def compression_pct(x):
    """Stored Tucker entries over dense entries, in percent."""
    comps = x.components if hasattr(x, "components") else (x,)
    stored = dense_n = 0
    for c in comps:
        r, n = c.core.shape, tuple(U.shape[0] for U in c.factors)
        stored += r[0] * r[1] * r[2] + sum(r[k] * n[k] for k in range(3))
        dense_n += n[0] * n[1] * n[2]
    return 100.0 * stored / dense_n


def _flat_max(history):
    return max(int(v) for entry in history for v in np.ravel(entry))


def _blocks(op):
    """The 3x3 blocks of an elasticity operator, or ((op,),) for a scalar one."""
    return op.blocks if hasattr(op, "blocks") else ((op,),)


def _max_rank(ops):
    """Largest rank per mode over Tucker-format operators."""
    return [max(b.rank[k] for op in ops for row in _blocks(op) for b in row)
            for k in range(3)]


# --- operator and exponential-sum checks ------------------------------------

def _bilinear(op, v, u):
    """<v, op u> for rank-1 v, u given as three vectors each."""
    g = [np.array([v[k] @ np.asarray(C @ u[k]).ravel() for C in op.factors[k]])
         for k in range(3)]
    return float(np.einsum("abc,a,b,c->", op.core, g[0], g[1], g[2]))


def check_operator(op, rng):
    """Symmetry and positivity of a (block) operator on rank-1 probes.

    Returns a list of failure messages.
    """
    blocks = _blocks(op)
    m = len(blocks)
    dims = [tuple(C[0].shape[1] for C in blocks[j][j].factors)
            for j in range(m)]
    failures = []
    for _ in range(N_PROBES):
        u = [[rng.standard_normal(n) for n in dims[j]] for j in range(m)]
        v = [[rng.standard_normal(n) for n in dims[j]] for j in range(m)]
        vAu = sum(_bilinear(blocks[i][j], v[i], u[j])
                  for i in range(m) for j in range(m))
        uAv = sum(_bilinear(blocks[i][j], u[i], v[j])
                  for i in range(m) for j in range(m))
        uAu = sum(_bilinear(blocks[i][j], u[i], u[j])
                  for i in range(m) for j in range(m))
        vAv = sum(_bilinear(blocks[i][j], v[i], v[j])
                  for i in range(m) for j in range(m))
        if not (uAu > 0.0 and vAv > 0.0):
            failures.append("operator not positive on a probe")
        if abs(vAu - uAv) > 1e-10 * np.sqrt(uAu * vAv):
            failures.append("operator not symmetric on a probe: %.3e vs %.3e"
                            % (vAu, uAv))
    return failures


def check_expsum(precond, eps_rel, rng):
    """Sup-error of the exponential sum against its own target eps/M."""
    es = precond.expsum
    lam = np.concatenate([np.geomspace(1.0, es.M, 20001),
                          np.exp(rng.uniform(0.0, np.log(es.M), 2000))])
    err = np.max(np.abs(np.exp(-np.outer(lam, es.exponents)) @ es.weights
                        - 1.0 / lam))
    tau = eps_rel / es.M
    if err > tau:
        return ["exp-sum error %.3e above target %.3e (R=%d)"
                % (err, tau, es.R)]
    return []


# --- repetitions --------------------------------------------------------------

def _spaces(p, n_el, elasticity):
    DD = (lriga.BC_DIRICHLET, lriga.BC_DIRICHLET)
    NN = (lriga.BC_NEUMANN, lriga.BC_NEUMANN)
    bcs = (NN, NN, DD) if elasticity else (DD, DD, DD)
    return tuple(lriga.SplineSpace1D(p, n_el, bc) for bc in bcs)


def _scalar_setup(spaces, geo, f, eps_list):
    system = lriga.assemble_system(spaces, geo, f, ASSEMBLY_EPS)
    eigs = [lriga.approx_eigen(s, lriga.assemble_pencil(s)) for s in spaces]
    precs = [lriga.build_lowrank_fd(eigs, e) for e in eps_list]
    return system, precs


def _column_system(spaces, f):
    return lriga.assemble_elasticity(
        spaces, lriga.get_geometry("deformed_column"),
        (0.0, 0.0, lambda pts: -f(pts)), LAM, MU, ASSEMBLY_EPS,
        dirichlet=COLUMN_FACES)


def _solve(system, precond, elasticity):
    """Run the solver; returns (x, report, solve seconds)."""
    solver = lriga.block_tpcg if elasticity else lriga.tpcg
    cfg = lriga.TpcgConfig.relative(TOL, system.rhs.norm())
    t = time.perf_counter()
    x, report = solver(system.op, system.rhs, precond, cfg)
    return x, report, time.perf_counter() - t


def _solve_result(system, x, report, elasticity):
    """Solve metrics and the dense residual check (after peak RSS is read)."""
    out = {
        "iterations": report.iterations,
        "converged": bool(report.converged),
        "compression_pct": compression_pct(x),
        "final_ranks": [list(map(int, np.ravel(r)))
                        for r in (x.ranks if elasticity else (x.rank,))],
        "rank_x_max": _flat_max(report.ranks_x),
        "rank_r_max": _flat_max(report.ranks_r),
        "rank_p_max": _flat_max(report.ranks_p),
        "reported_residual_rel": report.final_residual / report.rhs_norm,
    }
    out["true_residual_rel"] = true_residual_rel(system, x, elasticity)
    failures = []
    if not report.converged:
        failures.append("solver did not converge in %d iterations"
                        % report.iterations)
    if not out["true_residual_rel"] <= TOL:
        failures.append("true residual %.3e above tolerance %.1e"
                        % (out["true_residual_rel"], TOL))
    return out, failures


def run_solve(wl, seed):
    """One repetition of a SolveWorkload: assemble, precondition, solve."""
    spaces = _spaces(wl.p, wl.n_el, wl.elasticity)
    f = smooth_load(seed)
    t0 = time.perf_counter()
    if wl.elasticity:
        system = _column_system(spaces, f)
        precond = lriga.block_preconditioner(spaces, LAM, MU, PRECOND_EPS)
    else:
        system, (precond,) = _scalar_setup(
            spaces, lriga.get_geometry(wl.geometry), f, (PRECOND_EPS,))
    setup_s = time.perf_counter() - t0
    x, report, solve_s = _solve(system, precond, wl.elasticity)
    time_to_solution_s = time.perf_counter() - t0
    rss = peak_rss_mb()

    out, failures = _solve_result(system, x, report, wl.elasticity)
    parts = precond.parts if wl.elasticity else (precond,)
    out.update(setup_s=setup_s, solve_s=solve_s,
               time_to_solution_s=time_to_solution_s, peak_rss_mb=rss,
               operator_rank=_max_rank([system.op]),
               R_P=max(P.R for P in parts), attempted=1,
               failed=int(bool(failures)), failures=failures)
    return out


def run_sweep(seed):
    """One repetition of the setup sweep, then one small shell solve."""
    f = smooth_load(seed)
    shell = lriga.get_geometry("spherical_shell")
    built = []
    t0 = time.perf_counter()
    for cell in SWEEP:
        spaces = _spaces(cell.p, cell.n_el, False)
        system, precs = _scalar_setup(spaces, shell, f, cell.precond_eps)
        column = (_column_system(_spaces(cell.p, cell.n_el, True), f)
                  if cell.column else None)
        built.append((cell, system, precs, column))
    setup_s = time.perf_counter() - t0
    _, first_system, first_precs, _ = built[0]
    x, report, solve_s = _solve(first_system, first_precs[0], False)
    time_to_solution_s = time.perf_counter() - t0
    rss = peak_rss_mb()

    out, solve_failures = _solve_result(first_system, x, report, False)
    rng = np.random.default_rng(seed)
    checks = []
    for cell, system, precs, column in built:
        checks += [check_expsum(P, eps, rng)
                   for eps, P in zip(cell.precond_eps, precs)]
        checks.append(check_operator(system.op, rng))
        if column is not None:
            checks.append(check_operator(column.op, rng))
    ops = ([s.op for _, s, _, _ in built]
           + [c.op for *_, c in built if c is not None])
    out.update(setup_s=setup_s, solve_s=solve_s,
               time_to_solution_s=time_to_solution_s, peak_rss_mb=rss,
               operator_rank=_max_rank(ops),
               R_P=max(P.R for _, _, precs, _ in built for P in precs),
               attempted=1 + len(checks),
               failed=int(bool(solve_failures)) + sum(map(bool, checks)),
               failures=solve_failures + [m for c in checks for m in c])
    return out


def components(name):
    """Number of solution components (3 for elasticity, else 1)."""
    wl = SOLVES.get(name)
    return 3 if wl is not None and wl.elasticity else 1


def run(name, seed):
    if name == "setup-sweep":
        return run_sweep(seed)
    return run_solve(SOLVES[name], seed)
