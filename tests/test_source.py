"""Source checks that need no linter: every name a ``psilab`` module, a test or a demo imports is read there
or listed in its ``__all__``, the package integrates with scipy's ``quad`` in one function only, takes its
Gauss-Legendre rules from one and sets up the blowup closed forms in one, only the CLI draws samples, no
package module imports ``hashlib``, ``mmap`` or ``csv``, only ``_table`` builds a JSON encoder, only the CLI
imports ``argparse`` and its handlers are named after its commands, no two package enums encode one choice
with the same values, only ``mesh`` names the ``_derived`` stores (every derived value is kept through
``mesh._derive``), only the CLI takes a rearrangement target from ``measure_space`` and no rearrangement
energy is asked for on one, only the two target constructors (with the JSON reader and the CLI) read a
``TargetKind`` member, one function refuses a dimension, every name in the ``__all__`` of ``psilab`` and of
its modules exists, no package module imports ``scipy.optimize``, ``scipy.integrate`` or ``scipy.sparse`` outside
a function (so importing the CLI loads none of them), two functions of ``verify`` and one of ``analytic`` write
a report and none is rewritten by ``replace``, ``verify`` neither imports ``analytic`` nor names a radial function
and each of its field checks takes (mesh, f) first, and a failing hypothesis test prints its example under the
repo's warning filters."""

import ast
import dataclasses
import enum
import importlib
import inspect
import pathlib
import subprocess
import sys
import types

import pytest

import psilab
from psilab import cli, verify
from psilab.measure_space import TargetKind
from psilab.verify import VerificationReport

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


LAZY_SCIPY = ("scipy.optimize", "scipy.integrate", "scipy.sparse")


def _eager_imports(source: str, modules) -> list[str]:
    """'line L: module' for each import of one of ``modules`` (or a submodule) that runs when ``source`` is
    imported: anywhere but inside a function."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module, *(f"{child.module}.{alias.name}" for alias in child.names)]
            else:
                names = []
            hits = [m for m in modules if any(name == m or name.startswith(m + ".") for name in names)]
            found.extend(f"line {child.lineno}: {m}" for m in hits)
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", [path for path in SOURCES.values() if path.parent == PACKAGE],
                         ids=[name for name, path in SOURCES.items() if path.parent == PACKAGE])
def test_scipy_beyond_special_is_imported_where_used(path):
    assert _eager_imports(path.read_text(), LAZY_SCIPY) == []


def test_the_guard_finds_an_eager_import():
    source = "import scipy\nfrom scipy.special import jv\nfrom scipy.optimize import brentq\n" \
             "import scipy.sparse.csgraph\nfrom scipy import integrate, special\ntry:\n    import scipy.optimize\n" \
             "except ImportError:\n    pass\n\nclass A:\n    from scipy.sparse import coo_matrix\n\n" \
             "    def m(self):\n        from scipy.integrate import quad\n\ndef f():\n    import scipy.sparse\n"
    assert _eager_imports(source, LAZY_SCIPY) == ["line 3: scipy.optimize", "line 4: scipy.sparse",
                                                  "line 5: scipy.integrate", "line 7: scipy.optimize",
                                                  "line 12: scipy.sparse"]


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


def test_no_csv_module():
    # every table is written by ``_table.format_table``, whose one cell rule no ``csv.writer`` shares
    found = {name: _imports_of(path.read_text(), "csv") for name, path in SOURCES.items() if path.parent == PACKAGE}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_guard_finds_the_csv_module():
    source = "import io, csv as c\nfrom . import csv\n\ndef rows(out):\n    from csv import writer\n" \
             "    return writer(out)\n\nimport csvx\n"
    assert _imports_of(source, "csv") == ["line 1", "line 5"]


def test_one_json_encoder():
    # the indented JSON writer is ``_table.indented_json``; the rest of the package calls ``json.dumps``
    callers = {name: _callers(path.read_text(), "JSONEncoder") for name, path in SOURCES.items()
               if path.parent == PACKAGE}
    assert {name: found for name, found in callers.items() if found} == {"_table.py": ["<module>"]}


def test_the_guard_finds_a_second_encoder():
    source = "import json\nfrom json import JSONEncoder as E\n\nLINES = json.JSONEncoder(indent=1)\n\n" \
             "def dump(x):\n    return E().encode(x)\n\nJSONEncoderish = dict\n"
    assert _callers(source, "JSONEncoder") == ["<module>", "dump"]


def _uses_of(source: str, name: str) -> list[str]:
    """'line L' for each name, attribute or string constant ``name`` in ``source``."""
    nodes = ast.walk(ast.parse(source))
    return [f"line {node.lineno}" for node in nodes
            if name in (getattr(node, "id", None), getattr(node, "attr", None)) or getattr(node, "value", None) == name]


def test_one_derived_store():
    # every lazily derived value is kept by ``mesh._derive``, on the mesh or on a field paired with it there
    found = {name: _uses_of(path.read_text(), "_derived") for name, path in SOURCES.items() if path.parent == PACKAGE}
    assert [name for name, lines in found.items() if lines] == ["mesh.py"]


def test_the_guard_finds_a_derived_store():
    source = "def keep(mesh, f):\n    mesh._derived = {}\n    return getattr(f, '_derived'), _derived\n\n" \
             "_derivedx = mesh._derive\n"
    assert _uses_of(source, "_derived") == ["line 2", "line 3", "line 3"]


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


REPORT_FIELDS = {f.name for f in dataclasses.fields(VerificationReport)}


def _report_replacements(source: str) -> list[str]:
    """'line L' for each call of ``replace`` (by that name, an alias or an attribute) that sets a report field."""
    tree = ast.parse(source)
    names = {"replace"} | {a.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                           for a in node.names if a.name == "replace" and a.asname}
    return [f"line {node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
            and REPORT_FIELDS & {kw.arg for kw in node.keywords}]


def test_one_report_path():
    # every field check's report is written by ``verify._field_report``, the isoperimetric check's, which takes
    # no field, by ``verify_isoperimetric`` and a radial check's by ``analytic._radial_report`` (``from_json``
    # reads one back through ``cls``); no report is rewritten by ``dataclasses.replace``
    package = {name: path.read_text() for name, path in SOURCES.items() if path.parent == PACKAGE}
    builders = {name: found for name, source in package.items() if (found := _callers(source, "VerificationReport"))}
    assert builders == {"verify.py": ["_field_report", "verify_isoperimetric"], "analytic.py": ["_radial_report"]}
    assert {name: lines for name, source in package.items() if (lines := _report_replacements(source))} == {}


def test_the_guard_finds_a_fourth_report_and_a_replace():
    source = "import dataclasses\nfrom dataclasses import replace as swap\n\n" \
             "def verify_x(mesh):\n    ps = VerificationReport('PolyaSzego', 1.0, 1.0, 0.01)\n" \
             "    unit = swap(mesh, log_value=abs)\n" \
             "    return swap(ps, inequality_id='x'), text.replace('a', 'b')\n\ndef verify_y(rep):\n" \
             "    return dataclasses.replace(rep, notes=''), verify.VerificationReport('y', 0, 0, 0)\n"
    assert _callers(source, "VerificationReport") == ["verify_x", "verify_y"]
    assert _report_replacements(source) == ["line 7", "line 10"]


def _analytic_imports(source: str) -> list[str]:
    """'line L' for each import, at any depth, relative or absolute, of ``analytic`` or of a name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
            found += [f"line {node.lineno}"] if any("analytic" in name.split(".") for name in names) else []
    return found


def test_verify_judges_meshes_only():
    # the checks of equality on the radial extremals live beside the radial functions, in ``analytic``: the
    # verdict engine imports nothing of it and switches on no radial function
    source = SOURCES["verify.py"].read_text()
    assert _analytic_imports(source) + _uses_of(source, "RadialFunction") == []


def test_the_guard_finds_analytic_in_verify():
    source = "from .analytic import gn_extremal\nfrom . import analytic\n\ndef f(x):\n    import psilab.analytic\n" \
             "    return isinstance(x, RadialFunction) or isinstance(x, analytic.RadialFunction)\n\n" \
             "from .analytics import y\n"
    assert _analytic_imports(source) == ["line 1", "line 2", "line 5"]
    assert _uses_of(source, "RadialFunction") == ["line 6", "line 6"]


def _not_field_first(module, checks) -> list[str]:
    """The checks of ``checks`` whose verifier in ``module`` does not take (mesh, f) as its first two parameters."""
    return [name for name, check in checks.items()
            if list(inspect.signature(getattr(module, check.verifier)).parameters)[:2] != ["mesh", "f"]]


def test_field_checks_take_the_mesh_and_the_field_first():
    # every check but iso, which takes no field, takes a mesh and its field first: no check switches on the type
    # of its first argument or keeps a default only another input uses
    assert _not_field_first(verify, verify.CHECKS) == ["iso"]


def test_the_guard_finds_a_check_that_takes_no_field_first():
    def verify_radial_or_mesh(obj, p, K=0.0, f=None):
        pass

    def verify_field(mesh, f, p):
        pass

    module = types.SimpleNamespace(verify_radial_or_mesh=verify_radial_or_mesh, verify_field=verify_field)
    checks = {"either": verify.Check("verify_radial_or_mesh", ()), "field": verify.Check("verify_field", ())}
    assert _not_field_first(module, checks) == ["either"]


TARGETS = {"lebesgue", "model_space", "TargetMeasure"}


def _target_uses(source: str) -> list[str]:
    """'line L: name' for each target of ``TARGETS`` imported from ``measure_space`` or read off it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "measure_space":
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in TARGETS]
        elif isinstance(node, ast.Attribute) and node.attr in TARGETS:
            found += [(node.lineno, node.attr)] if getattr(node.value, "id", None) == "measure_space" else []
    return [f"line {line}: {name}" for line, name in sorted(found)]


def _targeted_energies(source: str) -> list[str]:
    """'line L' for each ``rearranged_energy`` call given more than its order p."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "rearranged_energy" and len(node.args) + len(node.keywords) > 1]


def test_verdicts_rearrange_onto_euclidean_space():
    # every verdict's rearrangement energy is on R^n; the model space's is the Euclidean one over PS^p, so
    # outside the module that defines them only ``psilab rearrange --target`` takes a target
    found = {name: _target_uses(path.read_text()) for name, path in SOURCES.items()
             if path.parent == PACKAGE and name != "measure_space.py"}
    assert [name for name, uses in found.items() if uses] == ["cli.py"]
    assert {name: lines for name, path in SOURCES.items() if (lines := _targeted_energies(path.read_text()))} == {}


def test_the_guard_finds_a_target():
    source = "from .measure_space import lebesgue as euclid, rearrange\nfrom . import measure_space\n\n" \
             "def f(mu, p):\n    t = measure_space.model_space(2, 0.0, 1.0)\n" \
             "    return mu.rearranged_energy(p, t) + mu.rearranged_energy(p) + rearranged_energy(p, target=t)\n" \
             "\nfrom psilab.measure_space import TargetMeasure\nx = other.lebesgue\n"
    assert _target_uses(source) == ["line 1: lebesgue", "line 5: model_space", "line 8: TargetMeasure"]
    assert _targeted_energies(source) == ["line 6", "line 6"]


KIND_MEMBERS = {member.name for member in TargetKind}


def _kind_readers(source: str) -> list[str]:
    """The qualified name of the function or class around each read of a ``TargetKind`` member (an attribute
    of a member's name, or ``TargetKind(...)`` or ``TargetKind[...]``), '<module>' outside any."""
    readers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            looked_up = child.func if isinstance(child, ast.Call) else getattr(child, "value", None)
            if (isinstance(child, ast.Attribute) and child.attr in KIND_MEMBERS) or (
                    isinstance(child, (ast.Call, ast.Subscript)) and getattr(looked_up, "id", None) == "TargetKind"):
                readers.append(scope)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
            else:
                visit(child, scope)

    visit(ast.parse(source), "<module>")
    return readers


def test_only_the_target_constructors_know_a_kind():
    # a target is a power measure, n and log a: its kind is read where it is built, where a JSON description
    # is mapped to its constructor, and by the CLI's --target
    found = {name: set(_kind_readers(path.read_text())) for name, path in SOURCES.items()
             if path.parent == PACKAGE and name != "cli.py"}
    assert {name: readers for name, readers in found.items() if readers} == {
        "measure_space.py": {"lebesgue", "model_space", "RadialProfile.from_json"}}


def test_the_guard_finds_a_kind_read():
    source = "class T:\n    def volume(self):\n        if self.kind is TargetKind.MODEL_SPACE:\n" \
             "            return 1.0\n        def inner():\n            return kinds.LEBESGUE_RN\n\n" \
             "KIND = TargetKind('model')\nBY_NAME = TargetKind['LEBESGUE_RN']\nx = TargetKind.value\n"
    assert _kind_readers(source) == ["T.volume", "T.volume.inner", "<module>", "<module>"]


def _dimension_refusers(source: str) -> list[str]:
    """The qualified name of the function or class around each ``raise`` whose message opens with 'dimension
    must' or 'n must' (a refusal of the dimension n), '<module>' outside any."""
    refusers = []

    def opening(node) -> str:
        """The literal text of the first argument of an exception call, its f-string fields left out."""
        arg = node.exc.args[0] if isinstance(node.exc, ast.Call) and node.exc.args else None
        parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
        return "".join(part.value for part in parts if isinstance(getattr(part, "value", None), str))

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and opening(child).startswith(("dimension must", "n must")):
                refusers.append(scope)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
            else:
                visit(child, scope)

    visit(ast.parse(source), "<module>")
    return refusers


def test_one_dimension_rule():
    # every entry point that takes the dimension n refuses it through ``special_fn._check_dimension``
    found = {name: set(_dimension_refusers(path.read_text())) for name, path in SOURCES.items()
             if path.parent == PACKAGE}
    assert {name: refusers for name, refusers in found.items() if refusers} == {"special_fn.py": {"_check_dimension"}}


def test_the_guard_finds_a_second_dimension_rule():
    source = "def check(n):\n    if n < 2:\n        raise ValueError(f'n must be >= 2, got {n}')\n\n" \
             "class Space:\n    def __init__(self, n):\n        if n % 1:\n" \
             "            raise ValueError('dimension must be a whole number')\n\n" \
             "def others(d, n, p):\n    if d < 3:\n        raise ValueError(f'ambient dimension must be >= 3, got {d}')\n" \
             "    if not 1 < p < n:\n        raise ValueError(f'requires 1 < p < n, got p = {p}, n = {n}')\n" \
             "    raise ValueError('Brendle choice requires codimension m >= 1')\n\n" \
             "raise ValueError(f'{n} must be whole')\n"
    assert _dimension_refusers(source) == ["check", "Space.__init__"]


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


def _package_modules() -> list[types.ModuleType]:
    return [importlib.import_module(f"psilab.{path.stem}") for path in SOURCES.values()
            if path.parent == PACKAGE and path.stem != "__init__"]


def test_one_enum_per_choice():
    assert _twin_enums(_package_modules()) == []


def test_the_guard_finds_twin_enums():
    first, second = types.ModuleType("first"), types.ModuleType("second")
    first.A = enum.Enum("A", {"X": "x", "Y": "y"}, module="first")
    first.B = enum.Enum("B", {"P": "x", "Q": "z"}, module="first")
    second.C = enum.Enum("C", {"Q": "y", "P": "x"}, module="second")
    second.A = first.A  # imported, not defined here
    assert _twin_enums([first, second]) == [["first.A", "second.C"]]


def _missing_exports(module: types.ModuleType) -> list[str]:
    """The names ``module.__all__`` lists that the module does not have: ``from module import *`` fails on
    each."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def test_every_export_exists():
    missing = {module.__name__: _missing_exports(module) for module in [psilab, *_package_modules()]}
    assert {name: names for name, names in missing.items() if names} == {}


def test_the_guard_finds_a_missing_export():
    module = types.ModuleType("stale")
    module.__all__ = ["kept", "removed", "renamed"]
    module.kept = module.renamed_to = None
    assert _missing_exports(module) == ["removed", "renamed"]


def test_a_failing_hypothesis_test_prints_its_example(tmp_path):
    # hypothesis meets a DeprecationWarning while it reports a failing example: under the repo's warning
    # filters it must print the example, not end the run in an internal error
    (tmp_path / "test_fails.py").write_text("from hypothesis import given, strategies as st\n\n\n"
                                            "@given(st.integers())\ndef test_fails(x):\n    assert x < 5\n")
    argv = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path), str(tmp_path / "test_fails.py")]
    run = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1
    assert "Falsifying example" in run.stdout and "INTERNALERROR" not in run.stdout + run.stderr
