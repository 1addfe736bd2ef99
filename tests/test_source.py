"""Source checks that need no linter: every name a ``psilab`` module, a test or a demo imports is read there
or listed in its ``__all__``, the package integrates with scipy's ``quad`` in one function only, takes its
Gauss-Legendre rules from one and sets up the blowup closed forms in one, only the CLI draws samples, no
package module imports ``hashlib`` or ``mmap``, only the CLI imports ``argparse`` and its handlers are named
after its commands, and no two package enums encode one choice with the same values."""

import ast
import enum
import importlib
import pathlib
import types

import pytest

import psilab
from psilab import cli

PACKAGE = pathlib.Path(psilab.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent
# package modules by file name, tests and demos by their directory and file name
SOURCES = {path.name: path for path in sorted(PACKAGE.glob("*.py"))}
SOURCES.update({f"{path.parent.name}/{path.name}": path for d in ("tests", "demos")
                for path in sorted((ROOT / d).glob("*.py"))})


def _unused_imports(source: str) -> list[str]:
    """'line L: name' for each name an import binds (at any depth) that no expression reads and ``__all__``
    does not list."""
    imported, read = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def _imports_of(source: str, module: str) -> list[str]:
    """'line L' for each import statement, at any depth, of ``module`` or one of its submodules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}" for name in names if name.split(".")[0] == module]
    return found


@pytest.mark.parametrize("path", SOURCES.values(), ids=list(SOURCES))
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_the_guard_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nimport numpy.linalg\nfrom math import pi as PI\n" \
             "__all__ = ['PI']\n\ndef f():\n    from json import dumps\n    return sys.argv\n"
    assert _unused_imports(source) == ["line 2: os", "line 3: numpy", "line 8: dumps"]


def _callers(source: str, function: str) -> list[str]:
    """The outermost function or class around each call of ``function`` (by that name, an alias or an
    attribute), '<module>' outside any."""
    tree = ast.parse(source)
    names = {function} | {a.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                          for a in node.names if a.name == function and a.asname}
    callers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "id", getattr(child.func, "attr", None)) in names:
                callers.append(scope)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, child.name if named and scope == "<module>" else scope)

    visit(tree, "<module>")
    return callers


def test_one_quadrature_helper():
    callers = {name: set(_callers(path.read_text(), "quad")) for name, path in SOURCES.items() if path.parent == PACKAGE}
    assert {name: found for name, found in callers.items() if found} == {"analytic.py": {"_radial_quad"}}


def test_the_guard_finds_a_second_quadrature():
    source = "from scipy import integrate\nfrom scipy.integrate import quad as q\n\ndef f():\n    def g(x):\n" \
             "        return q(abs, 0, x)[0]\n    return g\n\nclass A:\n    def m(self):\n" \
             "        return integrate.quad(abs, 0, 1)\n\nx = quad(abs, 0, 1)\ny = quadrature(abs, 0, 1)\n"
    assert _callers(source, "quad") == ["f", "A", "<module>"]


SAMPLING = {"sample_field", "rearrange", "_cell_centroids"}


def _sampling_uses(source: str) -> list[str]:
    """'line L: name' for each import, name or attribute of the sampling layer (``SAMPLING``) in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        else:
            names = [getattr(node, "id", None) if isinstance(node, ast.Name) else getattr(node, "attr", None)]
        found += [(node.lineno, name) for name in names if name in SAMPLING]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_verdicts_draw_no_samples():
    # every mesh verdict integrates the field exactly, from its distribution function; outside the two modules
    # that define the sampling layer, only ``psilab rearrange`` uses it
    found = {name: _sampling_uses(path.read_text()) for name, path in SOURCES.items()
             if path.parent == PACKAGE and name not in ("mesh.py", "measure_space.py")}
    assert [name for name, uses in found.items() if uses] == ["cli.py"]


def test_the_guard_finds_a_sample_draw():
    source = "from .mesh import sample_field as draw, p1_gradient_lp\nfrom . import measure_space\n\n" \
             "def f(mesh, u):\n    cells = mesh_module._cell_centroids(2)\n" \
             "    return measure_space.rearrange(draw(mesh, u, 2), None), rearranged(u)\n"
    assert _sampling_uses(source) == ["line 1: sample_field", "line 5: _cell_centroids", "line 6: rearrange"]


def test_no_digest_keys():
    # a kept verify input is found by its bytes, an exact key: no two files can collide, as digests can
    found = {name: _imports_of(path.read_text(), "hashlib") for name, path in SOURCES.items() if path.parent == PACKAGE}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_guard_finds_a_digest():
    source = "import os, hashlib as h\nfrom . import hashlib\n\ndef key(data):\n    from hashlib import sha256\n" \
             "    return sha256(data)\n\nimport hashlibx\n"
    assert _imports_of(source, "hashlib") == ["line 1", "line 5"]


def test_no_private_mappings():
    # kept arrays are plain read-only numpy arrays: no verdict draws samples whose freed memory a kept array
    # in the malloc heap could pin, so none needs a mapping of its own
    found = {name: _imports_of(path.read_text(), "mmap") for name, path in SOURCES.items() if path.parent == PACKAGE}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_guard_finds_a_mapping():
    source = "import os, mmap as m\nfrom . import mmap\n\ndef keep(n):\n    from mmap import MAP_PRIVATE\n" \
             "    return m.mmap(-1, n, flags=MAP_PRIVATE)\n\nimport mmapx\n"
    assert _imports_of(source, "mmap") == ["line 1", "line 5"]


def test_one_gauss_legendre_rule():
    # the profile segments' rule and the level intervals' rule are both ``_unit_rule``'s, moved to [0, 1] once
    callers = {name: _callers(path.read_text(), "leggauss") for name, path in SOURCES.items() if path.parent == PACKAGE}
    assert {name: found for name, found in callers.items() if found} == {"measure_space.py": ["_unit_rule"]}


def test_the_guard_finds_a_second_rule():
    source = "import numpy as np\nfrom numpy.polynomial.legendre import leggauss as gl\n\nX = gl(8)\n\n" \
             "def rule(n):\n    return np.polynomial.legendre.leggauss(n)\n"
    assert _callers(source, "leggauss") == ["<module>", "rule"]


def test_one_blowup_set_up():
    # the public closed forms, sweep and find_lambda_bar all take lambda through the one evaluator, so their
    # numbers cannot drift apart
    callers = {name: _callers(path.read_text(), "_blowup_args") for name, path in SOURCES.items()}
    assert {name: found for name, found in callers.items() if found} == {"analytic.py": ["_blowup_terms"]}


def test_only_the_cli_parses_arguments():
    found = {name: _imports_of(path.read_text(), "argparse") for name, path in SOURCES.items() if path.parent == PACKAGE}
    assert [name for name, lines in found.items() if lines] == ["cli.py"]


def _unpaired_commands(namespace: dict, commands) -> list[str]:
    """The commands of ``commands`` with no ``_cmd_<command>`` handler in ``namespace``, and the handlers'
    commands that no parser has: ``dispatch`` finds a command's handler by this name."""
    return sorted({name[5:] for name in namespace if name.startswith("_cmd_")} ^ set(commands))


def test_each_command_has_its_handler():
    assert _unpaired_commands(vars(cli), cli._parsers()[1]) == []


def test_the_guard_finds_an_unpaired_command():
    namespace = {"_cmd_constants": None, "_cmd_old": None, "cmd_verify": None, "_parse": None}
    assert _unpaired_commands(namespace, {"constants": None, "verify": None}) == ["old", "verify"]


def _twin_enums(modules) -> list[list[str]]:
    """The 'module.Enum' names of each set of ``Enum`` classes defined in ``modules`` with the same set of
    values: two encodings of one choice."""
    by_values = {}
    for module in modules:
        for name, obj in vars(module).items():
            if isinstance(obj, enum.EnumMeta) and obj.__module__ == module.__name__:
                by_values.setdefault(frozenset(m.value for m in obj), []).append(f"{module.__name__}.{name}")
    return [names for names in by_values.values() if len(names) > 1]


def test_one_enum_per_choice():
    modules = [importlib.import_module(f"psilab.{path.stem}") for path in SOURCES.values()
               if path.parent == PACKAGE and path.stem != "__init__"]
    assert _twin_enums(modules) == []


def test_the_guard_finds_twin_enums():
    first, second = types.ModuleType("first"), types.ModuleType("second")
    first.A = enum.Enum("A", {"X": "x", "Y": "y"}, module="first")
    first.B = enum.Enum("B", {"P": "x", "Q": "z"}, module="first")
    second.C = enum.Enum("C", {"Q": "y", "P": "x"}, module="second")
    second.A = first.A  # imported, not defined here
    assert _twin_enums([first, second]) == [["first.A", "second.C"]]
