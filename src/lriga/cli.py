"""Experiment runner: assembles, preconditions and solves the benchmark
problems from an INI config, emitting deterministic CSV results.

Subcommands: solve | convergence | precond-study | elasticity.  Exit
codes: 0 success, 1 non-convergence, 2 config error, 3 numerical
breakdown.  Command-line flags override config-file values; every run
with the same effective config produces bitwise-identical CSV output.
"""

import argparse
import configparser
import sys

import numpy as np

from .assembly import assemble_system
from .bsplines import BC_DIRICHLET, BC_NEUMANN, SplineSpace1D, assemble_pencil
from .eigen import approx_eigen
from .elasticity import assemble_elasticity, block_preconditioner
from .fastdiag import build_lowrank_fd
from .geometry import GeometryError, get_geometry
from .manufactured import poisson_benchmark
from .tpcg import TpcgConfig, error_norms, tpcg

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 1
EXIT_CONFIG = 2
EXIT_BREAKDOWN = 3

DD = (BC_DIRICHLET, BC_DIRICHLET)
NN = (BC_NEUMANN, BC_NEUMANN)

SCALED_DOWN_HEADER = "# scaled-down parameter grid (desk scale)"

DEFAULTS = {
    "problem": {
        "geometry": "quarter_annulus",
        "p": "2",
        "n_el": "16",
        "load": "one",
        "tol": "1e-6",
        "restarts": "0",
        "seed": "0",
    },
    "truncation": {
        "eps0": "1e-1",
        "alpha": "0.5",
        "delta": "1e-3",
        "beta": "1e-1",
        "eps_min": "",
        "max_iterations": "100",
    },
    "preconditioner": {"eps": "1e-1", "r_cap": "128"},
    "assembly": {"eps": ""},
    "elasticity": {"lam": "", "mu": "", "load": "0,0,-1", "top_value": "-0.5"},
    "convergence": {"levels": "3,4,5"},
    "sweep": {"n_el": "8,16,32", "p": "2,3"},
    "output": {"csv": "", "dir": "."},
}


class ConfigError(Exception):
    pass


def load_config(path=None):
    cfg = configparser.ConfigParser()
    cfg.read_dict(DEFAULTS)
    if path is not None:
        read = cfg.read(path)
        if not read:
            raise ConfigError("cannot read config file %r" % path)
    return cfg


def apply_overrides(cfg, args):
    """Command-line flags override config-file values."""
    mapping = [
        ("geometry", "problem", "geometry"),
        ("p", "problem", "p"),
        ("n_el", "problem", "n_el"),
        ("load", "problem", "load"),
        ("tol", "problem", "tol"),
        ("restarts", "problem", "restarts"),
        ("eps_min", "truncation", "eps_min"),
        ("max_iterations", "truncation", "max_iterations"),
        ("eps_prec", "preconditioner", "eps"),
        ("eps_assembly", "assembly", "eps"),
        ("lam", "elasticity", "lam"),
        ("mu", "elasticity", "mu"),
        ("levels", "convergence", "levels"),
        ("sweep_n_el", "sweep", "n_el"),
        ("sweep_p", "sweep", "p"),
        ("csv", "output", "csv"),
        ("out_dir", "output", "dir"),
    ]
    for attr, section, key in mapping:
        value = getattr(args, attr, None)
        if value is not None:
            cfg[section][key] = str(value)


def _get(cfg, section, key, conv, required=False):
    raw = cfg[section][key].strip()
    if raw == "":
        if required:
            raise ConfigError("missing required key [%s] %s" % (section, key))
        return None
    try:
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(
            "bad value for [%s] %s: %r (%s)" % (section, key, raw, exc)
        )


def _int_list(raw):
    return [int(v) for v in raw.split(",") if v.strip() != ""]


def _float_list(raw):
    return [float(v) for v in raw.split(",") if v.strip() != ""]


def _geometry(cfg):
    name = cfg["problem"]["geometry"]
    try:
        return get_geometry(name)
    except GeometryError as exc:
        raise ConfigError(str(exc))


def _positive(value, what):
    if value is None or value <= 0:
        raise ConfigError("%s must be positive, got %r" % (what, value))
    return value


def _load_function(cfg, geo):
    name = cfg["problem"]["load"]
    if name == "one":
        return lambda pts: np.ones(np.asarray(pts).shape[:-1])
    if name == "zero":
        return lambda pts: np.zeros(np.asarray(pts).shape[:-1])
    if name == "manufactured":
        return poisson_benchmark().parametric_load(geo)
    raise ConfigError("unknown load %r (one|zero|manufactured)" % name)


def _tpcg_config(cfg, tol_abs):
    eps_min = _get(cfg, "truncation", "eps_min", float)
    return TpcgConfig(
        tol=tol_abs,
        beta=_get(cfg, "truncation", "beta", float, required=True),
        eps0=_get(cfg, "truncation", "eps0", float, required=True),
        alpha=_get(cfg, "truncation", "alpha", float, required=True),
        eps_min=eps_min,
        delta=_get(cfg, "truncation", "delta", float, required=True),
        max_iterations=_get(
            cfg, "truncation", "max_iterations", int, required=True
        ),
    )


def _assembly_eps(cfg, tol_rel):
    eps = _get(cfg, "assembly", "eps", float)
    if eps is None:
        eps = max(1e-1 * tol_rel, 1e-12)
    return eps


def _scalar_setup(cfg):
    geo = _geometry(cfg)
    p = _positive(_get(cfg, "problem", "p", int, required=True), "p")
    n_el = _positive(_get(cfg, "problem", "n_el", int, required=True), "n_el")
    tol_rel = _positive(_get(cfg, "problem", "tol", float, required=True), "tol")
    spaces = tuple(SplineSpace1D(p, n_el, DD) for _ in range(3))
    return geo, p, n_el, tol_rel, spaces


def _preconditioner_settings(cfg):
    """([preconditioner] eps, [preconditioner] r_cap)."""
    eps_prec = _positive(
        _get(cfg, "preconditioner", "eps", float, required=True),
        "preconditioner eps",
    )
    r_cap = _positive(
        _get(cfg, "preconditioner", "r_cap", int, required=True), "r_cap"
    )
    return eps_prec, r_cap


def _scalar_preconditioner(cfg, spaces):
    eps_prec, r_cap = _preconditioner_settings(cfg)
    eigs = [approx_eigen(s, assemble_pencil(s)) for s in spaces]
    return build_lowrank_fd(eigs, eps_prec, r_cap=r_cap)


def _solve(cfg, system, precond, tol_rel, restarts=0):
    """TPCG to tol_rel * |rhs|, restarted from the iterate after a breakdown."""
    tpcg_cfg = _tpcg_config(cfg, tol_rel * system.rhs.norm())
    x, report = tpcg(system.op, system.rhs, precond, tpcg_cfg)
    while report.breakdown and restarts > 0:
        restarts -= 1
        x, report = tpcg(system.op, system.rhs, precond, tpcg_cfg, x0=x)
    return x, report


def _finish_solve(cfg, command, p, n_el, x, report):
    """Write the report CSV, print the summary line, return the exit code."""
    _write_report_csv(cfg, report)
    print(
        "%s geometry=%s p=%d n_el=%d iterations=%d converged=%s "
        "max_rank=%d memory=%.6g residual=%.6g wall=%.2fs"
        % (
            command,
            cfg["problem"]["geometry"],
            p,
            n_el,
            report.iterations,
            report.converged,
            max(max(c.rank) for c in x.components),
            report.memory_compression,
            report.final_residual,
            report.wall_time,
        )
    )
    return _exit_code(report)


def _write_report_csv(cfg, report):
    path = cfg["output"]["csv"].strip()
    if path in ("", "-"):
        report.to_csv(sys.stdout)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            report.to_csv(fh)


def _exit_code(report):
    if report.breakdown:
        return EXIT_BREAKDOWN
    if not report.converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_solve(cfg):
    geo, p, n_el, tol_rel, spaces = _scalar_setup(cfg)
    f = _load_function(cfg, geo)
    system = assemble_system(spaces, geo, f, _assembly_eps(cfg, tol_rel))
    precond = _scalar_preconditioner(cfg, spaces)
    restarts = _get(cfg, "problem", "restarts", int, required=True)
    x, report = _solve(cfg, system, precond, tol_rel, restarts)
    return _finish_solve(cfg, "solve", p, n_el, x, report)


def cmd_convergence(cfg):
    """Refinement study against the manufactured solution.

    Each level is solved twice: a loose bootstrap run estimates the
    discretization error, then the final run uses an algebraic tolerance
    of that estimate divided by 100, so the solver error never pollutes
    the measured orders.
    """
    geo = _geometry(cfg)
    p = _positive(_get(cfg, "problem", "p", int, required=True), "p")
    levels = _get(cfg, "convergence", "levels", _int_list, required=True)
    if not levels:
        raise ConfigError("empty level list")
    bench = poisson_benchmark()

    rows = []
    all_converged = True
    for level in levels:
        n_el = 2 ** level
        spaces = tuple(SplineSpace1D(p, n_el, DD) for _ in range(3))
        f = bench.parametric_load(geo)
        precond = _scalar_preconditioner(cfg, spaces)

        system = assemble_system(spaces, geo, f, 1e-6)
        rhs_norm = system.rhs.norm()
        boot_cfg = _tpcg_config(cfg, 1e-4 * rhs_norm)
        x, report = tpcg(system.op, system.rhs, precond, boot_cfg)
        l2_est, _ = error_norms(x, spaces, geo, bench.u)

        tol_abs = l2_est / 100.0
        eps = max(tol_abs / (10.0 * rhs_norm), 1e-12)
        system = assemble_system(spaces, geo, f, eps)
        final_cfg = _tpcg_config(cfg, tol_abs)
        x, report = tpcg(system.op, system.rhs, precond, final_cfg)
        all_converged = all_converged and report.converged

        l2, h1 = error_norms(x, spaces, geo, bench.u, bench.grad)
        rows.append((level, n_el, l2, h1))

    lines = ["level,n_el,l2_error,h1_error,l2_rate,h1_rate"]
    for i, (level, n_el, l2, h1) in enumerate(rows):
        if i == 0:
            rates = ","
        else:
            rates = "%.17g,%.17g" % (
                np.log2(rows[i - 1][2] / l2),
                np.log2(rows[i - 1][3] / h1),
            )
        lines.append("%d,%d,%.17g,%.17g,%s" % (level, n_el, l2, h1, rates))
    _emit(cfg, lines)
    return EXIT_OK if all_converged else EXIT_NO_CONVERGENCE


def _scalar_cell(cfg, geo, p, n_el, tol_rel):
    """Assemble, precondition and solve one scalar sweep cell.

    Returns (preconditioner diagnostics, SolveReport).
    """
    spaces = tuple(SplineSpace1D(p, n_el, DD) for _ in range(3))
    f = _load_function(cfg, geo)
    system = assemble_system(spaces, geo, f, _assembly_eps(cfg, tol_rel))
    precond = _scalar_preconditioner(cfg, spaces)
    _, report = _solve(cfg, system, precond, tol_rel)
    return precond.diagnostics(), report


def _precond_lines(cfg, geo, ps, n_els, tol_rel):
    """Preconditioner rank/cost sweep; returns (CSV lines, all converged)."""
    lines = ["n_el,p,M_P,R_P,expsum_error,iterations"]
    ok = True
    for p in ps:
        for n_el in n_els:
            diag, report = _scalar_cell(cfg, geo, p, n_el, tol_rel)
            lines.append("%d,%d,%.17g,%d,%.17g,%d" % (
                n_el, p, diag["M_P"], diag["R_P"], diag["expsum_error"],
                report.iterations))
            ok = ok and report.converged
    return lines, ok


def cmd_precond_study(cfg):
    geo = _geometry(cfg)
    tol_rel = _positive(_get(cfg, "problem", "tol", float, required=True), "tol")
    n_els = _get(cfg, "sweep", "n_el", _int_list, required=True)
    ps = _get(cfg, "sweep", "p", _int_list, required=True)
    lines, ok = _precond_lines(cfg, geo, ps, n_els, tol_rel)
    _emit(cfg, lines)
    return EXIT_OK if ok else EXIT_NO_CONVERGENCE


def _column_cell(cfg, geo, p, n_el, lam, mu, tol_rel, restarts=0):
    """Assemble, precondition and solve the elasticity column: sides free,
    bottom clamped, top displaced by [elasticity] top_value, load
    [elasticity] load.  Returns (x, SolveReport)."""
    load = _get(cfg, "elasticity", "load", _float_list, required=True)
    if len(load) != 3:
        raise ConfigError("elasticity load must have three components")
    top = _get(cfg, "elasticity", "top_value", float, required=True)
    eps_prec, r_cap = _preconditioner_settings(cfg)
    spaces = (
        SplineSpace1D(p, n_el, NN),
        SplineSpace1D(p, n_el, NN),
        SplineSpace1D(p, n_el, DD),
    )
    system = assemble_elasticity(
        spaces,
        geo,
        tuple(load),
        lam,
        mu,
        _assembly_eps(cfg, tol_rel),
        dirichlet=((2, 2, 0, 0.0), (2, 2, 1, top)),
    )
    precond = block_preconditioner(spaces, lam, mu, eps_prec, r_cap=r_cap)
    return _solve(cfg, system, precond, tol_rel, restarts)


def cmd_elasticity(cfg):
    geo = _geometry(cfg)
    p = _positive(_get(cfg, "problem", "p", int, required=True), "p")
    n_el = _positive(_get(cfg, "problem", "n_el", int, required=True), "n_el")
    tol_rel = _positive(_get(cfg, "problem", "tol", float, required=True), "tol")
    lam = _get(cfg, "elasticity", "lam", float, required=True)
    mu = _get(cfg, "elasticity", "mu", float, required=True)
    if lam < 0 or mu <= 0:
        raise ConfigError("need lam >= 0 and mu > 0")
    restarts = _get(cfg, "problem", "restarts", int, required=True)
    x, report = _column_cell(cfg, geo, p, n_el, lam, mu, tol_rel, restarts)
    return _finish_solve(cfg, "elasticity", p, n_el, x, report)


def _emit(cfg, lines, path=None):
    path = cfg["output"]["csv"].strip() if path is None else path
    text = "\n".join(lines) + "\n"
    if path in ("", "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_paper_tables(cfg):
    """Emit every benchmark result table at desk scale into the output dir."""
    import os

    out_dir = cfg["output"]["dir"].strip() or "."
    os.makedirs(out_dir, exist_ok=True)
    n_els = _get(cfg, "sweep", "n_el", _int_list, required=True)
    ps = _get(cfg, "sweep", "p", _int_list, required=True)
    tol_rel = _positive(_get(cfg, "problem", "tol", float, required=True), "tol")
    wrote = []

    def table(name, lines):
        path = os.path.join(out_dir, name)
        _emit(cfg, [SCALED_DOWN_HEADER] + lines, path=path)
        wrote.append(path)

    # preconditioner cost/rank sweep on the annulus
    lines, _ = _precond_lines(
        cfg, get_geometry("quarter_annulus"), ps, n_els, tol_rel
    )
    table("precond_ranks.csv", lines)

    # iteration counts per geometry
    for name, preset in [
        ("iterations_annulus.csv", "quarter_annulus"),
        ("iterations_shell.csv", "spherical_shell"),
    ]:
        geo = get_geometry(preset)
        lines = ["n_el,p,iterations,converged"]
        for p in ps:
            for n_el in n_els:
                _, report = _scalar_cell(cfg, geo, p, n_el, tol_rel)
                lines.append(
                    "%d,%d,%d,%s"
                    % (n_el, p, report.iterations, report.converged)
                )
        table(name, lines)

    # elasticity iteration counts on the column
    lam = _get(cfg, "elasticity", "lam", float)
    mu = _get(cfg, "elasticity", "mu", float)
    lam = 0.3 / 0.52 if lam is None else lam
    mu = 1.0 / 2.6 if mu is None else mu
    geo = get_geometry("deformed_column")
    lines = ["n_el,p,iterations,converged"]
    for p in ps:
        for n_el in n_els:
            _, report = _column_cell(cfg, geo, p, n_el, lam, mu, tol_rel)
            lines.append(
                "%d,%d,%d,%s" % (n_el, p, report.iterations, report.converged)
            )
    table("iterations_column.csv", lines)

    for path in wrote:
        print("wrote %s" % path)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lriga",
        description="Low-rank Tucker-format solvers for 3D isogeometric "
        "Poisson and linear-elasticity benchmarks.",
    )
    parser.add_argument("-c", "--config", help="INI config file")
    parser.add_argument(
        "--paper-tables",
        action="store_true",
        help="emit all benchmark result tables at desk scale and exit",
    )
    parser.add_argument("--out-dir", help="output directory for table mode")
    sub = parser.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("-c", "--config", help="INI config file")
        sp.add_argument("--geometry")
        sp.add_argument("--p", type=int)
        sp.add_argument("--n-el", dest="n_el", type=int)
        sp.add_argument("--tol", type=float, help="relative residual target")
        sp.add_argument("--load", help="one|zero|manufactured")
        sp.add_argument("--eps-prec", dest="eps_prec", type=float)
        sp.add_argument("--eps-assembly", dest="eps_assembly", type=float)
        sp.add_argument(
            "--eps-min",
            dest="eps_min",
            type=float,
            help="absolute floor of the adaptive iterate-truncation "
            "tolerance (stagnation remedy)",
        )
        sp.add_argument("--max-iterations", dest="max_iterations", type=int)
        sp.add_argument(
            "--restarts",
            type=int,
            help="restart attempts after a breakdown",
        )
        sp.add_argument("--csv", help="CSV output path ('-' for stdout)")
        sp.add_argument("--out-dir", dest="out_dir")

    sp = sub.add_parser("solve", help="single scalar benchmark solve")
    common(sp)
    sp = sub.add_parser(
        "convergence", help="refinement study vs the manufactured solution"
    )
    common(sp)
    sp.add_argument("--levels", help="comma-separated refinement levels")
    sp = sub.add_parser(
        "precond-study", help="preconditioner rank/cost sweep"
    )
    common(sp)
    sp.add_argument("--sweep-n-el", dest="sweep_n_el")
    sp.add_argument("--sweep-p", dest="sweep_p")
    sp = sub.add_parser("elasticity", help="block elasticity benchmark solve")
    common(sp)
    sp.add_argument("--lam", type=float, help="first Lame coefficient")
    sp.add_argument("--mu", type=float, help="second Lame coefficient")
    return parser


COMMANDS = {
    "solve": cmd_solve,
    "convergence": cmd_convergence,
    "precond-study": cmd_precond_study,
    "elasticity": cmd_elasticity,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        apply_overrides(cfg, args)
        if args.paper_tables:
            return cmd_paper_tables(cfg)
        if args.command is None:
            parser.print_help()
            return EXIT_CONFIG
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
