"""Static checks of the package source: no module imports a name it never
uses, and nothing is defined that neither the package nor the benchmark
refers to."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lriga"
BENCH = ROOT / "bench"


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


def definitions(source):
    """Qualified and bare names of the top-level functions and classes in
    ``source`` and of their methods, dunder methods excepted."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    out.append(("%s.%s" % (node.name, item.name), item.name))
    return out


def references(source, strings=False):
    """Every name ``source`` reads, as a name, an attribute or an import
    alias; with ``strings``, its string constants too (the benchmark names
    the functions it times by string)."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.update({node.name, node.asname})
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            refs.add(node.value)
    return refs


def unreferenced(sources, bench_sources=()):
    """Qualified names defined in ``sources`` that no source refers to."""
    refs = set()
    for source in sources:
        refs |= references(source)
    for source in bench_sources:
        refs |= references(source, strings=True)
    return [qual for source in sources
            for qual, name in definitions(source) if name not in refs]


def test_dead_code_checker_flags_unreferenced():
    source = (
        "class Used:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def called(self):\n"
        "        return helper()\n"
        "    def never(self):\n"
        "        pass\n"
        "def helper():\n"
        "    return Used().called()\n"
        "def timed():\n"
        "    pass\n"
        "def orphan():\n"
        "    pass\n"
    )
    bench = 'TARGETS = [("pkg.mod", "timed")]\n'
    assert unreferenced([source], [bench]) == ["Used.never", "orphan"]


def test_no_code_without_a_caller():
    # code that only tests use belongs in tests/
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    bench = [path.read_text() for path in sorted(BENCH.glob("*.py"))]
    assert unreferenced(sources, bench) == []
