"""Experiment runner: assembles, preconditions and solves the benchmark
problems from an INI config, emitting deterministic CSV results.

Subcommands: solve | convergence | precond-study | elasticity.  Exit
codes: 0 success, 1 non-convergence, 2 config error, 3 numerical
breakdown.  Command-line flags override config-file values; every run
with the same effective config produces bitwise-identical CSV output.
"""

import argparse
import configparser
import io
import os
import sys

import numpy as np

from .assembly import assemble_system
from .bsplines import BC_DIRICHLET, BC_NEUMANN, SplineSpace1D, assemble_pencil
from .eigen import approx_eigen
from .elasticity import assemble_elasticity, block_preconditioner
from .expsum import ExpSumError
from .fastdiag import FastDiagError, build_lowrank_fd
from .geometry import GeometryError, get_geometry
from . import manufactured
from .tpcg import TpcgConfig, error_norms, tpcg
from .tucker import MemoryGuardError

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
    },
    "truncation": {"max_iterations": "100"},
    "preconditioner": {"eps": "1e-1"},
    "elasticity": {"lam": "", "mu": "", "load": "0,0,-1", "top_value": "-0.5"},
    "convergence": {"levels": "3,4,5"},
    "sweep": {"n_el": "8,16,32", "p": "2,3"},
    "output": {"csv": "", "dir": "."},
}

# Lame coefficients (E = 1, nu = 0.3) of the paper-tables column by default
TABLE_LAME = {"lam": 0.3 / 0.52, "mu": 1.0 / 2.6}


class ConfigError(Exception):
    pass


def load_config(path=None):
    """DEFAULTS overlaid with the INI file at path, which must parse and
    may set only sections and keys that DEFAULTS has (ConfigError
    otherwise)."""
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.read_dict(DEFAULTS)
    if path is not None:
        try:
            found = cfg.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError("cannot parse config file %r: %s" % (path, exc))
        if not found:
            raise ConfigError("cannot read config file %r" % path)
        unknown = ["[%s]" % s for s in cfg.sections() if s not in DEFAULTS]
        unknown += ["%s.%s" % (s, k) for s in cfg.sections() if s in DEFAULTS
                    for k in cfg[s] if k not in DEFAULTS[s]]
        if unknown:
            raise ConfigError("unknown section or key in %s: %s"
                              % (path, ", ".join(unknown)))
    return cfg


def apply_overrides(cfg, args):
    """Command-line flags override config-file values: a flag's dest is the
    "section.key" it sets."""
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.split(".")
            cfg[section][key] = str(value)


def _get(cfg, section, key, conv):
    raw = cfg[section][key].strip()
    if raw == "":
        raise ConfigError("missing required key [%s] %s" % (section, key))
    try:
        value = conv(raw)
        if not np.all(np.isfinite(value)):
            raise ValueError("not finite")
    except ValueError as exc:
        raise ConfigError(
            "bad value for [%s] %s: %r (%s)" % (section, key, raw, exc)
        )
    return value


def _positive(cfg, section, key, conv, or_zero=False):
    """Required value, or each entry of a non-empty list, > 0 (>= 0 with
    or_zero)."""
    value = _get(cfg, section, key, conv)
    if value == []:
        raise ConfigError("[%s] %s is an empty list" % (section, key))
    for v in value if isinstance(value, list) else [value]:
        if not (v > 0 or (or_zero and v == 0)):
            raise ConfigError("[%s] %s must be %s, got %r" % (
                section, key, "non-negative" if or_zero else "positive", v))
    return value


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


def _load_function(cfg, geo):
    name = cfg["problem"]["load"]
    if name == "one":
        return lambda pts: np.ones(np.asarray(pts).shape[:-1])
    if name == "zero":
        return lambda pts: np.zeros(np.asarray(pts).shape[:-1])
    if name == "manufactured":
        return manufactured.parametric_load(geo)
    raise ConfigError("unknown load %r (one|zero|manufactured)" % name)


def _assembly_eps(tol_rel):
    """Separable-fit tolerance of a solve to tol_rel: a tenth of it, and
    at least 1e-12."""
    return max(1e-1 * tol_rel, 1e-12)


def _scalar_preconditioner(cfg, spaces):
    eps_prec = _positive(cfg, "preconditioner", "eps", float)
    eigs = [approx_eigen(s, assemble_pencil(s)) for s in spaces]
    return build_lowrank_fd(eigs, eps_prec)


def _solve(cfg, system, precond, tol_abs, diagonal_scaling=True):
    """TPCG on system to the absolute residual tol_abs, within
    [truncation] max_iterations; diagonal_scaling as in TpcgConfig.
    Returns (x, SolveReport)."""
    tpcg_cfg = TpcgConfig(tol=tol_abs, max_iterations=_positive(
        cfg, "truncation", "max_iterations", int, or_zero=True),
        diagonal_scaling=diagonal_scaling)
    return tpcg(system.op, system.rhs, precond, tpcg_cfg)


def _spaces(p, n_el, bcs):
    """One SplineSpace1D per direction, with the boundary conditions bcs;
    a space that keeps no basis function (p = 1 on one element between
    two Dirichlet ends) is a ConfigError."""
    spaces = tuple(SplineSpace1D(p, n_el, bc) for bc in bcs)
    for space in spaces:
        if space.n < 1:
            raise ConfigError("%r keeps no basis function" % space)
    return spaces


def _scalar_cell(cfg, geo, p, n_el, tol_rel):
    """Assemble and precondition one scalar Poisson problem with load
    [problem] load.  Returns (system, preconditioner)."""
    spaces = _spaces(p, n_el, (DD, DD, DD))
    f = _load_function(cfg, geo)
    system = assemble_system(spaces, geo, f, _assembly_eps(tol_rel))
    return system, _scalar_preconditioner(cfg, spaces)


def _column_cell(cfg, geo, p, n_el, tol_rel):
    """Assemble and precondition the elasticity column: sides free, bottom
    clamped, top displaced by [elasticity] top_value, load [elasticity]
    load.  Returns (system, preconditioner)."""
    lam = _get(cfg, "elasticity", "lam", float)
    mu = _get(cfg, "elasticity", "mu", float)
    if lam < 0 or mu <= 0:
        raise ConfigError("need lam >= 0 and mu > 0")
    load = _get(cfg, "elasticity", "load", _float_list)
    if len(load) != 3:
        raise ConfigError("elasticity load must have three components")
    top = _get(cfg, "elasticity", "top_value", float)
    eps_prec = _positive(cfg, "preconditioner", "eps", float)
    spaces = _spaces(p, n_el, (NN, NN, DD))
    system = assemble_elasticity(
        spaces,
        geo,
        tuple(load),
        lam,
        mu,
        _assembly_eps(tol_rel),
        dirichlet=((2, 2, 0, 0.0), (2, 2, 1, top)),
    )
    return system, block_preconditioner(spaces, lam, mu, eps_prec)


def _emit(text, path):
    """Write text to path, or to stdout when path is '' or '-'."""
    if path in ("", "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError("cannot write %s: %s" % (path, exc))


def _run_one(cfg, command, cell):
    """One solve of cell at [problem] p, n_el, tol: write the report CSV,
    print the summary line, return the exit code."""
    geo = _geometry(cfg)
    p = _positive(cfg, "problem", "p", int)
    n_el = _positive(cfg, "problem", "n_el", int)
    tol_rel = _positive(cfg, "problem", "tol", float)
    system, precond = cell(cfg, geo, p, n_el, tol_rel)
    try:
        x, report = _solve(cfg, system, precond, tol_rel * system.rhs.norm())
    except FastDiagError as exc:
        # fitting the preconditioner met a non-positive diagonal: A is not SPD
        print("numerical breakdown: %s" % exc, file=sys.stderr)
        return EXIT_BREAKDOWN
    buf = io.StringIO()
    report.to_csv(buf)
    _emit(buf.getvalue(), cfg["output"]["csv"].strip())
    print(
        "%s geometry=%s p=%d n_el=%d iterations=%d converged=%s "
        "max_rank=%d memory=%.6g residual=%.6g wall=%.2fs"
        % (command, cfg["problem"]["geometry"], p, n_el, report.iterations,
           report.converged, max(max(c.rank) for c in x.components),
           report.memory_compression, report.final_residual,
           report.wall_time)
    )
    if report.breakdown:
        return EXIT_BREAKDOWN
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _sweep(cfg, cell, geo, columns):
    """Solve cell over the [sweep] grid, p outer and n_el inner, at
    [problem] tol, with the paper's preconditioner (no diagonal scaling),
    so the study tables measure it.  columns is (CSV header, row):
    row(n_el, p, precond), read before the solve (so an unfittable sum
    fails first), returns the report's line formatter.  Returns (CSV
    lines, all converged)."""
    header, row = columns
    n_els = _positive(cfg, "sweep", "n_el", _int_list)
    ps = _positive(cfg, "sweep", "p", _int_list)
    tol_rel = _positive(cfg, "problem", "tol", float)
    lines = [header]
    ok = True
    for p in ps:
        for n_el in n_els:
            system, precond = cell(cfg, geo, p, n_el, tol_rel)
            line = row(n_el, p, precond)
            _, report = _solve(cfg, system, precond,
                               tol_rel * system.rhs.norm(),
                               diagonal_scaling=False)
            lines.append(line(report))
            ok = ok and report.converged
    return lines, ok


def _precond_row(n_el, p, precond):
    head = "%d,%d,%.17g,%d,%.17g" % (
        n_el, p, precond.spectral_ratio, precond.R, precond.expsum.error)
    return lambda rep: "%s,%d" % (head, rep.iterations)


def _iterations_row(n_el, p, precond):
    return lambda rep: "%d,%d,%d,%s" % (n_el, p, rep.iterations, rep.converged)


PRECOND = ("n_el,p,M_P,R_P,expsum_error,iterations", _precond_row)
ITERS = ("n_el,p,iterations,converged", _iterations_row)


def cmd_solve(cfg):
    return _run_one(cfg, "solve", _scalar_cell)


def cmd_elasticity(cfg):
    return _run_one(cfg, "elasticity", _column_cell)


def cmd_precond_study(cfg):
    lines, ok = _sweep(cfg, _scalar_cell, _geometry(cfg), PRECOND)
    _emit("\n".join(lines) + "\n", cfg["output"]["csv"].strip())
    return EXIT_OK if ok else EXIT_NO_CONVERGENCE


def cmd_convergence(cfg):
    """Refinement study against the manufactured solution.

    Each level is solved twice: a loose bootstrap run estimates the
    discretization error, then the final run uses an algebraic tolerance
    of that estimate divided by 100, so the solver error never pollutes
    the measured orders.
    """
    geo = _geometry(cfg)
    p = _positive(cfg, "problem", "p", int)
    levels = _positive(cfg, "convergence", "levels", _int_list, or_zero=True)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError("[convergence] levels must be strictly increasing, "
                          "got %r" % levels)

    rows = []
    all_converged = True
    for level in levels:
        n_el = 2 ** level
        spaces = _spaces(p, n_el, (DD, DD, DD))
        f = manufactured.parametric_load(geo)
        precond = _scalar_preconditioner(cfg, spaces)

        system = assemble_system(spaces, geo, f, 1e-6)
        rhs_norm = system.rhs.norm()
        x, report = _solve(cfg, system, precond, 1e-4 * rhs_norm)
        l2_est, _ = error_norms(x, spaces, geo, manufactured.u)

        tol_abs = l2_est / 100.0
        system = assemble_system(
            spaces, geo, f, _assembly_eps(tol_abs / rhs_norm))
        x, report = _solve(cfg, system, precond, tol_abs)
        all_converged = all_converged and report.converged

        l2, h1 = error_norms(x, spaces, geo, manufactured.u,
                             manufactured.grad)
        rows.append((level, n_el, l2, h1))

    # rates per halving of the mesh size: levels may skip
    lines = ["level,n_el,l2_error,h1_error,l2_rate,h1_rate"]
    for i, (level, n_el, l2, h1) in enumerate(rows):
        if i == 0:
            rates = ","
        else:
            prev, _, l2_prev, h1_prev = rows[i - 1]
            rates = "%.17g,%.17g" % (
                np.log2(l2_prev / l2) / (level - prev),
                np.log2(h1_prev / h1) / (level - prev),
            )
        lines.append("%d,%d,%.17g,%.17g,%s" % (level, n_el, l2, h1, rates))
    _emit("\n".join(lines) + "\n", cfg["output"]["csv"].strip())
    return EXIT_OK if all_converged else EXIT_NO_CONVERGENCE


def cmd_paper_tables(cfg):
    """Emit every benchmark result table at desk scale into the output dir."""
    out_dir = cfg["output"]["dir"].strip() or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError("cannot create %s: %s" % (out_dir, exc))
    for key, value in TABLE_LAME.items():
        if cfg["elasticity"][key].strip() == "":
            cfg["elasticity"][key] = repr(value)
    tables = [
        ("precond_ranks.csv", "quarter_annulus", _scalar_cell, PRECOND),
        ("iterations_annulus.csv", "quarter_annulus", _scalar_cell, ITERS),
        ("iterations_shell.csv", "spherical_shell", _scalar_cell, ITERS),
        ("iterations_column.csv", "deformed_column", _column_cell, ITERS),
    ]
    for name, preset, cell, columns in tables:
        lines, _ = _sweep(cfg, cell, get_geometry(preset), columns)
        path = os.path.join(out_dir, name)
        _emit("\n".join([SCALED_DOWN_HEADER] + lines) + "\n", path)
        print("wrote %s" % path)
    return EXIT_OK


# Per subcommand, its flags as (flag, "section.key", type, help): a flag
# becomes argparse dest "section.key", the config key it overrides, and a
# subcommand takes only flags whose key it reads.
GEOMETRY = ("--geometry", "problem.geometry", str, "domain preset")
P = ("--p", "problem.p", int, "spline degree")
N_EL = ("--n-el", "problem.n_el", int, "elements per direction")
TOL = ("--tol", "problem.tol", float, "relative residual target")
LOAD = ("--load", "problem.load", str, "one|zero|manufactured")
SOLVER = [
    ("--eps-prec", "preconditioner.eps", float, "low-rank inverse accuracy"),
    ("--max-iterations", "truncation.max_iterations", int, None),
    ("--csv", "output.csv", str, "CSV output path ('-' for stdout)"),
]
LEVELS = ("--levels", "convergence.levels", str, "e.g. 3,4,5")
SWEEP_N_EL = ("--sweep-n-el", "sweep.n_el", str, "n_el grid, e.g. 8,16,32")
SWEEP_P = ("--sweep-p", "sweep.p", str, "p grid, e.g. 2,3")
LAM = ("--lam", "elasticity.lam", float, "first Lame coefficient")
MU = ("--mu", "elasticity.mu", float, "second Lame coefficient")
FLAGS = {
    "solve": [GEOMETRY, P, N_EL, TOL, LOAD] + SOLVER,
    "convergence": [GEOMETRY, P, LEVELS] + SOLVER,
    "precond-study": [GEOMETRY, TOL, LOAD, SWEEP_N_EL, SWEEP_P] + SOLVER,
    "elasticity": [GEOMETRY, P, N_EL, TOL, LAM, MU] + SOLVER,
}
COMMANDS = {
    "solve": (cmd_solve, "single scalar benchmark solve"),
    "convergence": (
        cmd_convergence, "refinement study vs the manufactured solution"
    ),
    "precond-study": (cmd_precond_study, "preconditioner rank/cost sweep"),
    "elasticity": (cmd_elasticity, "block elasticity benchmark solve"),
}


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
    parser.add_argument(
        "--out-dir", dest="output.dir", help="output directory for table mode"
    )
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_text) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("-c", "--config", default=argparse.SUPPRESS,
                        help="INI config file")  # keeps a top-level -c
        for flag, dest, conv, flag_help in FLAGS[name]:
            sp.add_argument(flag, dest=dest, type=conv, help=flag_help)
    return parser


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
        return COMMANDS[args.command][0](cfg)
    except (ConfigError, MemoryGuardError) as exc:
        # MemoryGuardError: a dense image of this size (named) is refused
        message = str(exc)
    except ExpSumError as exc:
        # no exponential sum of at most expsum.R_CAP terms meets the target
        message = "[preconditioner] eps = %s cannot be met: %s" % (
            cfg["preconditioner"]["eps"].strip(), exc)
    print("config error: %s" % message, file=sys.stderr)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
