"""End-to-end CLI runs: exit codes, CSV schemas, determinism."""

import configparser
import os
import subprocess
import sys

import pytest

import lriga
from lriga import cli
from lriga.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    SCALED_DOWN_HEADER,
    main,
)


def run(argv):
    return main(argv)


def test_solve_smoke_cube_exits_zero(tmp_path, capsys):
    path = tmp_path / "run.csv"
    code = run([
        "solve", "--geometry", "unit_cube", "--p", "2", "--n-el", "8",
        "--csv", str(path),
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "converged=True" in out
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iter,res_norm,rx1,rx2,rx3,rr1,rr2,rr3,rp1,rp2,rp3,eps_k"
    # stopping criterion: final truncated residual at or below the target
    final_res = float(lines[-1].split(",")[1])
    first_res = float(lines[1].split(",")[1])
    assert final_res <= 1e-6 * first_res * 10  # tol is relative to the rhs


def test_annulus_iterations_flat_within_band(tmp_path):
    path = tmp_path / "study.csv"
    code = run([
        "precond-study", "--geometry", "quarter_annulus",
        "--sweep-n-el", "16,32", "--sweep-p", "2,3", "--csv", str(path),
    ])
    assert code == EXIT_OK
    rows = [r.split(",") for r in path.read_text().strip().split("\n")[1:]]
    iters = [int(r[5]) for r in rows]
    assert max(iters) <= 30
    assert max(iters) / min(iters) <= 1.5


def test_trivial_preconditioner_tolerance_gives_tiny_rank(tmp_path):
    path = tmp_path / "study.csv"
    code = run([
        "precond-study", "--sweep-n-el", "4,8", "--sweep-p", "2",
        "--eps-prec", "1", "--csv", str(path),
    ])
    assert code == EXIT_OK
    rows = [r.split(",") for r in path.read_text().strip().split("\n")[1:]]
    for r in rows:
        assert 1 <= int(r[3]) <= 3  # R_P column


# (n_el, p): (M_P, R_P, iterations) of the exact-eigenbasis preconditioner
PRECOND_STUDY = {
    (8, 2): (64.843344567984346, 6, 15),
    (16, 2): (259.38169023494311, 9, 19),
    (32, 2): (1037.5287863559927, 11, 21),
    (8, 3): (97.095977467496709, 7, 16),
    (16, 3): (377.93366974112053, 9, 19),
    (32, 3): (1510.2255765035791, 11, 21),
    (8, 4): (162.78415240243899, 7, 17),
    (16, 4): (635.68488371301771, 10, 19),
    (32, 4): (2540.9503575824488, 14, 21),
}


def test_precond_study_pins_ranks_and_iterations(tmp_path):
    path = tmp_path / "study.csv"
    code = run([
        "precond-study", "--sweep-n-el", "8,16,32", "--sweep-p", "2,3,4",
        "--csv", str(path),
    ])
    assert code == EXIT_OK
    rows = [r.split(",") for r in path.read_text().strip().split("\n")[1:]]
    assert len(rows) == len(PRECOND_STUDY)
    for r in rows:
        M_P, R_P, iterations = PRECOND_STUDY[int(r[0]), int(r[1])]
        assert float(r[2]) == pytest.approx(M_P, rel=1e-12)
        assert (int(r[3]), int(r[5])) == (R_P, iterations)


def test_bad_geometry_is_config_error(capsys):
    code = run(["solve", "--geometry", "moebius_strip"])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_missing_lame_parameters_is_config_error(capsys):
    code = run(["elasticity", "--geometry", "deformed_column"])
    assert code == EXIT_CONFIG
    assert "lam" in capsys.readouterr().err


def test_elasticity_zero_load_trivial(tmp_path, capsys):
    cfg = tmp_path / "zero.ini"
    cfg.write_text(
        "[problem]\ngeometry = deformed_column\np = 2\nn_el = 4\n"
        "[elasticity]\nlam = 0.5\nmu = 0.4\nload = 0,0,0\ntop_value = 0\n"
    )
    path = tmp_path / "run.csv"
    code = run(["elasticity", "-c", str(cfg), "--csv", str(path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "iterations=0" in out and "converged=True" in out


def test_elasticity_csv_has_per_component_ranks(tmp_path):
    path = tmp_path / "run.csv"
    code = run([
        "elasticity", "--geometry", "deformed_column", "--p", "2",
        "--n-el", "4", "--lam", "0.577", "--mu", "0.385",
        "--csv", str(path),
    ])
    assert code == EXIT_OK
    header = path.read_text().split("\n")[0].split(",")
    assert len(header) == 30
    assert header[2] == "rx11" and header[-2] == "rp33"


def test_convergence_single_level_raw_errors_only(tmp_path):
    path = tmp_path / "conv.csv"
    code = run([
        "convergence", "--geometry", "quarter_annulus", "--p", "2",
        "--levels", "2", "--csv", str(path),
    ])
    assert code == EXIT_OK
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "2" and row[1] == "4"
    assert float(row[2]) > 0 and float(row[3]) > 0
    assert row[4] == "" and row[5] == ""  # no fit from one level


def test_flag_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "base.ini"
    cfg.write_text("[problem]\ngeometry = unit_cube\np = 2\nn_el = 4\n")
    code = run(["solve", "-c", str(cfg), "--p", "3", "--csv", "-"])
    assert code == EXIT_OK
    assert "p=3 n_el=4" in capsys.readouterr().out


def test_identical_config_gives_identical_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["solve", "--geometry", "quarter_annulus", "--p", "2",
            "--n-el", "8"]
    assert run(args + ["--csv", str(a)]) == EXIT_OK
    assert run(args + ["--csv", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_table_mode_writes_labeled_files(tmp_path, capsys):
    cfg = tmp_path / "tables.ini"
    cfg.write_text(
        "[problem]\ntol = 1e-4\n[sweep]\nn_el = 4\np = 2\n"
    )
    out_dir = tmp_path / "tables"
    code = run(["--paper-tables", "-c", str(cfg), "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    names = [
        "precond_ranks.csv",
        "iterations_annulus.csv",
        "iterations_shell.csv",
        "iterations_column.csv",
    ]
    for name in names:
        text = (out_dir / name).read_text()
        assert text.startswith(SCALED_DOWN_HEADER + "\n"), name
        assert len(text.strip().split("\n")) >= 3  # label, header, data
    assert capsys.readouterr().out.count("wrote ") == len(names)


def test_table_mode_honours_preconditioner_settings(tmp_path, monkeypatch):
    # the column table builds its preconditioner from [preconditioner] eps,
    # as `lriga elasticity` does
    seen = []
    real = cli.block_preconditioner

    def recording(spaces, lam, mu, eps_rel):
        seen.append(eps_rel)
        return real(spaces, lam, mu, eps_rel)

    monkeypatch.setattr(cli, "block_preconditioner", recording)
    cfg = tmp_path / "tables.ini"
    cfg.write_text(
        "[problem]\ntol = 1e-4\n[sweep]\nn_el = 2\np = 2\n"
        "[preconditioner]\neps = 0.5\n"
    )
    code = run(["--paper-tables", "-c", str(cfg),
                "--out-dir", str(tmp_path / "tables")])
    assert code == EXIT_OK
    assert seen == [0.5]


def test_unreadable_config_is_config_error(tmp_path, capsys):
    code = run(["solve", "-c", str(tmp_path / "missing.ini")])
    assert code == EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("ini,named", [
    ("[truncation]\nesp0 = 0.5\n", "truncation.esp0"),
    ("[bogus]\n", "[bogus]"),
    ("[truncation]\neps_min = 1e-9\n", "truncation.eps_min"),
    ("[truncation]\neps0 = 1e-2\n", "truncation.eps0"),
    ("[preconditioner]\nr_cap = 64\n", "preconditioner.r_cap"),
    ("[assembly]\neps = 1e-7\n", "[assembly]"),
], ids=["typo key", "unknown section", "removed eps_min", "removed eps0",
        "removed r_cap", "removed assembly"])
@pytest.mark.parametrize("top_level", [False, True],
                         ids=["subcommand -c", "top-level -c"])
def test_unknown_config_entry_is_config_error(ini, named, top_level,
                                              tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(ini)
    argv = ["solve", "--geometry", "unit_cube", "--n-el", "2"]
    argv = ["-c", str(cfg)] + argv if top_level else argv + ["-c", str(cfg)]
    assert run(argv) == EXIT_CONFIG
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("ini,named", [
    ("tol = 1e-6\n", "no section headers"),
    ("[problem]\np = 2\np = 3\n", "already exists"),
    ("[problem]\np\n", "parsing errors"),
    ("[problem]\np = \xff\n", "can't decode"),
], ids=["key before section", "duplicate key", "key without value",
        "not utf-8"])
@pytest.mark.parametrize("top_level", [False, True],
                         ids=["subcommand -c", "top-level -c"])
def test_malformed_config_is_config_error(ini, named, top_level, tmp_path,
                                          capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(ini.encode("latin-1"))
    argv = ["solve", "--geometry", "unit_cube", "--n-el", "2"]
    argv = ["-c", str(cfg)] + argv if top_level else argv + ["-c", str(cfg)]
    assert run(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot parse config file")
    assert named in err


def test_python_dash_m_runs_the_cli():
    # `python -m lriga` works from a source checkout, without installing
    src = os.path.dirname(os.path.dirname(os.path.abspath(lriga.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "lriga", "--help"], capture_output=True,
        text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    for command in ("solve", "convergence", "precond-study", "elasticity"):
        assert command in out.stdout


FLAG_CASES = [
    (command, flag, dest, conv)
    for command, flags in cli.FLAGS.items()
    for flag, dest, conv, _ in flags
]


@pytest.mark.parametrize(
    "command,flag,dest,conv", FLAG_CASES,
    ids=["%s %s" % case[:2] for case in FLAG_CASES])
def test_flag_sets_exactly_its_key(command, flag, dest, conv):
    value = {int: "7", float: "0.25", str: "5,6"}[conv]
    args = cli.build_parser().parse_args([command, flag, value])
    cfg = cli.load_config()
    cli.apply_overrides(cfg, args)
    section, key = dest.split(".")
    changed = [
        (s, k) for s in cli.DEFAULTS for k in cli.DEFAULTS[s]
        if cfg[s][k] != cli.DEFAULTS[s][k]
    ]
    assert changed == [(section, key)]
    assert conv(cfg[section][key]) == conv(value)


class RecordingConfig(configparser.ConfigParser):
    """Config that records every "section.key" read through cfg[s][k]."""

    def __init__(self):
        super().__init__()
        self.read_keys = set()

    def get(self, section, option, **kwargs):
        self.read_keys.add("%s.%s" % (section, option))
        return super().get(section, option, **kwargs)


@pytest.mark.parametrize("argv", [
    ["solve", "--geometry", "unit_cube", "--n-el", "2"],
    ["convergence", "--geometry", "unit_cube", "--levels", "1"],
    ["precond-study", "--sweep-n-el", "2", "--sweep-p", "2"],
    ["elasticity", "--geometry", "deformed_column", "--n-el", "2",
     "--lam", "0.5", "--mu", "0.4"],
], ids=lambda argv: argv[0])
def test_subcommand_reads_every_key_its_flags_set(argv, tmp_path,
                                                  monkeypatch):
    seen = []

    def recording_config(path=None):
        cfg = RecordingConfig()
        cfg.read_dict(cli.DEFAULTS)
        seen.append(cfg)
        return cfg

    monkeypatch.setattr(cli, "load_config", recording_config)
    assert run(argv + ["--csv", str(tmp_path / "out.csv")]) == EXIT_OK
    flag_keys = {dest for _, dest, _, _ in cli.FLAGS[argv[0]]}
    assert flag_keys - seen[0].read_keys == set()


@pytest.mark.parametrize("argv", [
    ["elasticity", "--load", "zero"],
    ["convergence", "--restarts", "3"],
    ["convergence", "--load", "zero"],
    ["precond-study", "--p", "2"],
    ["solve", "--out-dir", "tables"],
    ["solve", "--eps-assembly", "1e-7"],
    ["precond-study", "--eps-assembly", "1e-7"],
    ["elasticity", "--eps-assembly", "1e-7"],
])
def test_removed_flag_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["precond-study", "--sweep-n-el", "0", "--sweep-p", "2"],
    ["precond-study", "--sweep-n-el", "4", "--sweep-p", "0"],
    ["convergence", "--levels", "-1"],
    ["solve", "--n-el", "2", "--max-iterations", "-3"],
    ["solve", "--n-el", "2", "--restarts", "-2"],
    ["solve", "--n-el", "2", "--tol", "nan"],
])
def test_out_of_range_value_is_config_error(argv, capsys):
    assert run(argv) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_table_mode_checks_lame_parameters(tmp_path, capsys):
    cfg = tmp_path / "tables.ini"
    cfg.write_text(
        "[problem]\ntol = 1e-4\n[sweep]\nn_el = 2\np = 2\n"
        "[elasticity]\nmu = -1\n"
    )
    code = run(["--paper-tables", "-c", str(cfg),
                "--out-dir", str(tmp_path / "tables")])
    assert code == EXIT_CONFIG
    assert "config error: need lam >= 0 and mu > 0" in capsys.readouterr().err


def test_unwritable_output_is_config_error(tmp_path, capsys):
    blocker = tmp_path / "file.txt"
    blocker.write_text("not a directory\n")
    code = run(["solve", "--geometry", "unit_cube", "--n-el", "2",
                "--csv", str(blocker / "run.csv")])
    assert code == EXIT_CONFIG
    assert "config error: cannot write" in capsys.readouterr().err
    assert run(["--paper-tables", "--out-dir", str(blocker)]) == EXIT_CONFIG
    assert "config error: cannot create" in capsys.readouterr().err


@pytest.mark.parametrize("argv, ini", [
    (["precond-study", "--sweep-n-el", ",", "--sweep-p", "2"], None),
    (["precond-study", "--sweep-n-el", "4", "--sweep-p", ","], None),
    (["convergence", "--levels", ","], None),
    (["--paper-tables"], "[sweep]\nn_el = ,\np = 2\n"),
    (["--paper-tables"], "[sweep]\nn_el = 4\np = ,\n"),
], ids=["sweep-n-el", "sweep-p", "levels", "tables-n_el", "tables-p"])
def test_empty_list_is_config_error(argv, ini, tmp_path, capsys):
    out_dir = tmp_path / "tables"
    if ini is not None:
        cfg = tmp_path / "run.ini"
        cfg.write_text(ini)
        argv = argv + ["-c", str(cfg), "--out-dir", str(out_dir)]
    assert run(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error" in captured.err and "empty list" in captured.err
    assert captured.out == ""
    assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.parametrize("source", ["flag", "file"])
def test_percent_in_value_is_literal(source, tmp_path, monkeypatch):
    # values are not interpolated: '%' is an ordinary character
    monkeypatch.chdir(tmp_path)
    argv = ["solve", "--n-el", "2"]
    if source == "flag":
        argv += ["--csv", "r%1.csv"]
    else:
        (tmp_path / "run.ini").write_text("[output]\ncsv = r%1.csv\n")
        argv += ["-c", "run.ini"]
    assert run(argv) == EXIT_OK
    assert (tmp_path / "r%1.csv").read_text().startswith("iter,res_norm,")
