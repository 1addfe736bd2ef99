"""Every span name the benchmark's per-layer metrics read resolves to a psilab callable.

``perfbench/tracer.py`` names a span after the callable it wraps, and
``perfbench/layers.py`` sums spans by those names; a psilab rename would
leave a layer reading 0 with no error. This test only reads the two files.
"""

import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """Execute perfbench/<name>.py as module ``name``, writing no bytecode next to it."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    sys.modules[name] = module  # layers.py imports tracer by this name
    exec(compile(path.read_text(), path, "exec"), vars(module))
    return module


def _span_names():
    saved = {name: sys.modules.get(name) for name in ("tracer", "layers")}
    try:
        tracer, layers = _load("tracer"), _load("layers")
        names = {n for group in layers.GROUPS.values() for n in group} | set(tracer._SIZED)
        return sorted(names), tracer.MODULES
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


SPAN_NAMES, MODULES = _span_names()


def _traced(span):
    """True when the tracer's install rule wraps a callable under this span name."""
    short, attr, *method = span.split(".")
    if short not in MODULES:
        return False
    mod = importlib.import_module(f"psilab.{short}")
    obj = getattr(mod, attr, None) if attr in getattr(mod, "__all__", ()) else None
    if obj is None or getattr(obj, "__module__", None) != mod.__name__:
        return False
    if not method:
        return inspect.isfunction(obj)
    (name,) = method
    raw = vars(obj).get(name) if inspect.isclass(obj) else None
    if isinstance(raw, (classmethod, staticmethod)):
        raw = raw.__func__
    return inspect.isfunction(raw) and (not name.startswith("_") or name == "__init__")


@pytest.mark.parametrize("span", SPAN_NAMES)
def test_span_resolves_to_a_psilab_callable(span):
    assert _traced(span), f"{span} names no callable the tracer wraps"
