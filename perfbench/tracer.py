"""Span recorder that traces psilab from outside, by rebinding its public callables.

``Tracer.install`` wraps every public function of each psilab module (the
names in ``__all__`` defined there) and every public method of its public
classes, including ``__init__``, then rebinds every module-level reference
to the same function object, so ``mean_curvature`` as imported into
``verify`` and ``cli`` reports to the same span name. ``uninstall``
restores the originals.

Spans are kept in memory as (job, id, parent, name, start, end, size)
tuples and written out at the end; self time and counts are derived from
them afterwards. Nothing inside psilab is changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

MODULES = ("cli", "mesh", "measure_space", "verify", "analytic", "counterexample", "constants", "special_fn")


def _size_of(name, args, result):
    """Work size recorded with selected spans (bytes, triangles, samples, knots)."""
    if name == "mesh.load_mesh" and args and hasattr(args[0], "fileno"):
        return os.fstat(args[0].fileno()).st_size
    if name == "mesh.TriMesh.__init__":
        return len(args[0].triangles)
    if name == "mesh.sample_field":
        return result.values.size
    if name == "measure_space.rearrange":
        return (args[0].values.size, result.radii.size)  # samples, knots
    return None


def _fmt_size(size):
    if size is None:
        return ""
    return ":".join(map(str, size)) if isinstance(size, tuple) else str(size)


_SIZED = {"mesh.load_mesh", "mesh.TriMesh.__init__", "mesh.sample_field", "measure_space.rearrange"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.job = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._last_exc = None
        self._undo: list[tuple] = []

    # -- instrumentation ----------------------------------------------------

    def _wrap(self, name, fn):
        sized = name in _SIZED
        module = name.split(".", 1)[0]
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                if exc is not self._last_exc:  # count once, where it was raised
                    self._last_exc = exc
                    self.errors[module] += 1
                spans.append((self.job, sid, parent, name, t0, t1, None))
                raise
            t1 = clock()
            stack.pop()
            spans.append((self.job, sid, parent, name, t0, t1, _size_of(name, args, result) if sized else None))
            return result

        wrapper.__traced__ = fn
        return wrapper

    def install(self):
        mods = {m: importlib.import_module(f"psilab.{m}") for m in MODULES}
        replace = {}  # id(original function) -> wrapper
        for short, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replace[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and inspect.isfunction(obj):
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, replace[id(obj)])

    def _wrap_class(self, short, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(name, raw)
            else:
                continue
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -- analysis -----------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("job,id,parent,name,start_s,end_s,size\n")
            for job, sid, parent, name, t0, t1, size in self.spans:
                fh.write(f"{job},{sid},{parent},{name},{t0!r},{t1!r},{_fmt_size(size)}\n")

    def summarize(self):
        """Per span name: calls, total and self time, jobs touched, sizes; plus per-parent counts."""
        child_time = defaultdict(float)
        by_id = {}
        for job, sid, parent, name, t0, t1, size in self.spans:
            by_id[sid] = name
            if parent >= 0:
                child_time[parent] += t1 - t0
        stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "jobs": set(), "sizes": []})
        under = defaultdict(lambda: defaultdict(int))  # parent name -> child name -> calls
        for job, sid, parent, name, t0, t1, size in self.spans:
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += t1 - t0
            s["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
            s["jobs"].add(job)
            if size is not None:
                s["sizes"].append(size)
            if parent >= 0:
                under[by_id[parent]][name] += 1
        return stats, under
