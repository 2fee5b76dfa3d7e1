"""Static checks of the package source: no module imports a name it never
uses, nothing is defined that neither the package nor the benchmark
refers to, no check is an ``assert``, the third-party packages it imports
are the declared dependencies, and importing the package loads no optional
heavy module."""

import ast
import os
import pathlib
import re
import subprocess
import sys

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
    """(names, attributes) that ``source`` reads: names are read as a
    name or an import alias, attributes after a dot; with ``strings``, its
    string constants count as both (the benchmark names the functions it
    times by string)."""
    names, attrs = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname})
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            names.add(node.value)
            attrs.add(node.value)
    return names, attrs


def unreferenced(sources, bench_sources=()):
    """Qualified names defined in ``sources`` that no source refers to.

    A function or class counts as referred to by any read of its name, a
    method or property only by an attribute read or a benchmark string: a
    local variable of the same name does not call it."""
    refs = [references(source) for source in sources]
    refs += [references(source, strings=True) for source in bench_sources]
    attrs = set().union(*(a for _, a in refs))
    either = attrs.union(*(n for n, _ in refs))
    return [qual for source in sources
            for qual, name in definitions(source)
            if name not in (attrs if "." in qual else either)]


def test_dead_code_checker_flags_unreferenced():
    source = (
        "class Used:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def called(self):\n"
        "        return helper()\n"
        "    def never(self):\n"
        "        pass\n"
        "    def shadowed(self):\n"
        "        pass\n"
        "def helper():\n"
        "    shadowed = 1\n"
        "    return Used().called() + shadowed\n"
        "def timed():\n"
        "    pass\n"
        "def orphan():\n"
        "    pass\n"
    )
    bench = 'TARGETS = [("pkg.mod", "timed")]\n'
    assert unreferenced([source], [bench]) == [
        "Used.never", "Used.shadowed", "orphan"]


def test_no_code_without_a_caller():
    # code that only tests use belongs in tests/; a re-export in the
    # package __init__ is not a caller
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"]
    bench = [path.read_text() for path in sorted(BENCH.glob("*.py"))]
    assert unreferenced(sources, bench) == []


def asserts(source):
    """Line numbers of the ``assert`` statements in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_assert_checker_finds_nested_asserts():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        assert x > 0, 'positive'\n"
        "    return x  # assert in a comment\n"
        "s = 'assert 1'\n"
        "class C:\n"
        "    def g(self):\n"
        "        assert self\n"
    )
    assert asserts(source) == [3, 8]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_in_package(path):
    # python -O strips asserts, so a check written as one stops checking
    assert asserts(path.read_text()) == []


def third_party_imports(sources):
    """Top-level names of the absolute imports in ``sources`` that are not
    in the standard library."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def declared_dependencies(pyproject):
    """Package names in the ``dependencies`` list of a pyproject.toml text,
    read without tomllib, which Python 3.10 lacks."""
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", pyproject,
                      re.MULTILINE | re.DOTALL).group(1)
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
            for spec in re.findall(r'"([^"]*)"', block)}


def test_dependency_checkers_skip_stdlib_relative_and_extras():
    source = (
        "import os.path\n"
        "import numpy as np\n"
        "from scipy.linalg import eigh\n"
        "from . import tucker\n"
        "from .geometry import metric_data\n"
    )
    assert third_party_imports([source]) == {"numpy", "scipy"}
    pyproject = (
        '[project]\ndependencies = [\n    "NumPy>=1.24",\n    "scipy",\n]\n'
        '[project.optional-dependencies]\ntest = ["pytest>=7"]\n'
    )
    assert declared_dependencies(pyproject) == {"numpy", "scipy"}


def test_declared_dependencies_match_imports():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    declared = declared_dependencies((ROOT / "pyproject.toml").read_text())
    assert third_party_imports(sources) == declared == {"numpy", "scipy"}


@pytest.mark.parametrize("code, module", [
    # scipy.optimize (about 15 MB) serves only the exponential-sum fit,
    # which no solve runs: the apply is the exact inverse at every size
    ("import lriga", "scipy.optimize"),
    # nor does a CLI solve or elasticity run (summary line muted)
    ("import io, os, lriga.cli as c; sys.stdout = io.StringIO(); "
     "assert c.main(['solve', '--n-el', '4', '--csv', os.devnull]) == 0; "
     "sys.stdout = sys.__stdout__", "scipy.optimize"),
    ("import io, os, lriga.cli as c; sys.stdout = io.StringIO(); "
     "assert c.main(['elasticity', '--n-el', '2', '--lam', '0.5', '--mu', "
     "'0.4', '--csv', os.devnull]) == 0; sys.stdout = sys.__stdout__",
     "scipy.optimize"),
    # the manufactured solution is closed-form numpy
    ("import numpy, lriga.cli, lriga.manufactured as m; "
     "m.load(numpy.ones((2, 3)))", "sympy"),
], ids=["scipy.optimize", "solve", "elasticity", "sympy"])
def test_import_does_not_load(code, module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = "import sys; %s; print(%r in sys.modules)" % (code, module)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"
