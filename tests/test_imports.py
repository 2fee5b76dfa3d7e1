"""Static check of the package source: no module imports a name it never uses."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lriga"


def unused_imports(source):
    """(line, name) of each imported name that ``source`` never reads.

    A name counts as read when it appears as an expression name anywhere
    in the module (``np`` in ``np.zeros``).  Import statements whose first
    line carries ``# noqa: F401`` (re-exports) are skipped.
    """
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*":
                imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_checker_flags_unused_and_honours_noqa():
    source = (
        "import numpy as np\n"
        "import scipy.fft\n"
        "from .geometry import metric_data\n"
        "from .tucker import (  # noqa: F401\n"
        "    TuckerTensor3,\n"
        ")\n"
        "x = scipy.fft.dct(np.ones(3))\n"
    )
    assert unused_imports(source) == [(3, "metric_data")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
