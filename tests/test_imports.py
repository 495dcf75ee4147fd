"""Every library module uses each name it imports, as flake8's F401 asks,
and only ``covariance`` imports ``blas``.

No linter ships with the test dependencies, so this parses the sources
with ``ast``.  ``__init__.py`` is left out: its imports are the package's
exports.  An import line marked ``# noqa: F401`` is exempt, and only the
one the benchmark needs carries the marker.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "jpegns"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def bound_names(source):
    """(name, exempt) for each name ``source``'s imports bind; exempt when
    the import is marked ``# noqa: F401``."""
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            exempt = any("# noqa: F401" in line
                         for line in lines[node.lineno - 1 : node.end_lineno])
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], exempt


def unused_imports(source):
    """Names that ``source``'s unexempted imports bind and nothing reads."""
    bound = {name for name, exempt in bound_names(source) if not exempt}
    used = {n.id for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_checker_finds_unused_and_honours_noqa():
    source = ("import os\nimport os.path as osp\nimport sys\n"
              "from math import (\n    pi,  # noqa: F401\n    tau,\n)\n"
              "sys.exit(tau)\n")
    assert unused_imports(source) == ["os", "osp"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_only_the_benchmark_import_is_exempt():
    # The benchmark's layer map wraps ``embedder.sla``, which nothing in
    # the library calls; no other unused import may hide behind the marker.
    exempt = [(path.name, name) for path in sorted(SRC.glob("*.py"))
              for name, marked in bound_names(path.read_text()) if marked]
    assert exempt == [("embedder.py", "sla")]


def imported_modules(source):
    """Dotted names that ``source``'s imports may bind, relative ones
    resolved inside ``jpegns``: a module and, for ``from`` imports, each
    name it is asked for."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = (".".join(filter(None, ("jpegns", node.module)))
                    if node.level else node.module)
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_import_finder_resolves_relative_imports():
    source = ("import jpegns.rng\nfrom . import blas as b, lattice\n"
              "from .sampler import pmf\nfrom scipy.linalg import blas\n")
    assert {"jpegns.rng", "jpegns.blas", "jpegns.lattice",
            "jpegns.sampler", "scipy.linalg.blas"} <= imported_modules(source)


def test_only_covariance_imports_blas():
    # The factor's layout is known in one module: only it passes pointers
    # into BLAS.
    users = [module for module in MODULES
             if "jpegns.blas" in imported_modules((SRC / module).read_text())]
    assert users == ["covariance.py"]


def bool_checks(node, where=None):
    """The function (None outside any) around each ``isinstance(..., bool)``
    call under ``node``, bool alone or in a tuple."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and any(isinstance(n, ast.Name) and n.id == "bool"
                    for n in ast.walk(node.args[1]))):
        yield where
    for child in ast.iter_child_nodes(node):
        yield from bool_checks(child, where)


def test_bool_check_finder_sees_tuples_nesting_and_module_level():
    source = ("isinstance(a, bool)\n"
              "def f(x):\n"
              "    def g(y):\n"
              "        return isinstance(y, (int, bool))\n"
              "    return isinstance(x, int) and g(x)\n")
    assert list(bool_checks(ast.parse(source))) == [None, "g"]


def test_only_check_int_and_the_json_float_check_refuse_bools():
    # An integer parameter is checked by ``rng.check_int``; a new boundary
    # calls it rather than writing its own "an integer but not a bool".
    found = [(path.name, where) for path in sorted(SRC.glob("*.py"))
             for where in bool_checks(ast.parse(path.read_text()))]
    assert found == [("raw_io.py", "_finite_float"), ("rng.py", "check_int")]
