"""Command-line surface.

Five subcommands: ``constants`` prints the closed-form constants table,
``curvature`` reports discrete curvature of an OFF/nOFF mesh, ``rearrange``
converts weighted samples or a mesh field into a radial profile, ``verify``
runs one check of ``psilab.verify.CHECKS``, and ``counterexample`` sweeps the
sphere blowup family. Exit code 0 means success with every check passing, 1
means at least one verification failed, and 2 means a usage or domain error.

``verify`` refuses bad arguments before it reads a file, and keeps what it
built between ``dispatch`` calls of one process: up to eight meshes, each
with up to eight fields, keyed by the BLAKE2b digest of the file bytes, so
an edited file is a miss; an input that failed is not kept, and a kept
disconnected mesh warns again on each use.

The defaults prefer the corrected readings of the misprint-suspect
constants and the trace convention for the sphere's total curvature; the
literal printed variants are echoed alongside in every constants table so
nothing is hidden.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import sys
from collections import OrderedDict

from . import constants as const
from . import verify
from .counterexample import find_lambda_bar, sweep, sweep_to_csv
from .errors import PsilabError
from .measure_space import (
    DiscreteMeasuredFunction,
    Interpolation,
    lebesgue,
    model_space,
    rearrange,
)
from .mesh import TriMesh, VertexField, _warn_if_disconnected, load_mesh, mean_curvature, sample_field
from .verify import CHECKS, reports_to_csv

__all__ = ["main", "dispatch"]


def _parse_iso(text: str):
    if text == "michael-simon":
        return const.michael_simon()
    if text.startswith("brendle:"):
        try:
            m = int(text.split(":", 1)[1])
        except ValueError:
            pass  # not a codimension: refused below
        else:
            return const.brendle(m)
    raise ValueError(f"--iso must be michael-simon or brendle:m, got {text!r}")


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _load_mesh_arg(path: str) -> TriMesh:
    with open(path) as fh:
        return load_mesh(fh)


_KEPT_INPUTS = 8  # the most meshes `verify` keeps between dispatch calls, and the most fields per mesh
_kept_meshes: OrderedDict = OrderedDict()  # BLAKE2b digest of a mesh file -> (TriMesh, its kept fields)


def _read_kept(kept: OrderedDict, path: str, build):
    """(``build`` of the file's text, False), or (the value kept for the same bytes, True). The file
    is read once and hashed on every call; a value is kept once ``build`` returns, and the least
    recently used one is dropped beyond ``_KEPT_INPUTS``."""
    with open(path, "rb") as raw:
        data = raw.read()
    key = hashlib.blake2b(data).digest()
    if key in kept:
        kept.move_to_end(key)
        return kept[key], True
    with io.TextIOWrapper(io.BytesIO(data)) as text:
        value = build(text)
    kept[key] = value
    if len(kept) > _KEPT_INPUTS:
        kept.popitem(last=False)
    return value, False


@functools.cache  # parse_args leaves the parser unchanged, so one per process serves every dispatch
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="psilab", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--format", choices=["json", "csv"], default="json")

    pc = sub.add_parser("constants", help="closed-form constants table")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--K", type=float, default=0.0)
    pc.add_argument("--p", type=float)
    pc.add_argument("--q", type=float)
    pc.add_argument("--iso", default="brendle:1")
    common(pc)

    pm = sub.add_parser("curvature", help="discrete mean curvature of an OFF/nOFF mesh")
    pm.add_argument("--mesh", required=True)
    pm.add_argument(
        "--convention",
        choices=["paper", "trace"],
        default="trace",
        help="reference convention echoed for the unit sphere's total curvature",
    )
    common(pm)

    pr = sub.add_parser("rearrange", help="radial rearrangement of samples or a mesh field")
    src = pr.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="CSV of value,weight samples")
    src.add_argument("--mesh", help="OFF/nOFF mesh; requires --field")
    pr.add_argument("--field", help="CSV of vertex_index,value")
    pr.add_argument("--target", choices=["lebesgue", "model"], default="lebesgue")
    pr.add_argument("--n", type=int, default=2)
    pr.add_argument("--K", type=float, default=0.0)
    pr.add_argument("--iso", default="brendle:1")
    pr.add_argument("--interpolation", choices=["step", "linear"], default="step")
    pr.add_argument("--subdivision", type=int, default=2)
    common(pr)

    pv = sub.add_parser("verify", help="run one inequality check")
    pv.add_argument("check", choices=list(CHECKS))
    pv.add_argument("--mesh", required=True)
    pv.add_argument("--field", help="CSV of vertex_index,value")
    pv.add_argument("--p", type=float, default=2.0)
    pv.add_argument("--q", type=float)
    pv.add_argument("--K", type=float, default=0.0)
    pv.add_argument("--iso", default="brendle:1")
    pv.add_argument("--reading", choices=["literal", "corrected"], default="corrected")
    pv.add_argument("--preset", default="sobolev-l1", help="monotone-spec preset for the mono check")
    pv.add_argument("--subdivision", type=int, default=2)
    pv.add_argument("--tolerance", type=float)
    common(pv)

    px = sub.add_parser("counterexample", help="sphere blowup sweep and thresholds")
    px.add_argument("--p", type=float, required=True)
    px.add_argument("--lambda", dest="lams", type=float, nargs="+", default=[10.0])
    px.add_argument("--N", type=float, help="also locate the blowup threshold for this factor")
    px.add_argument("--mesh-check", action="store_true")
    px.add_argument("--subdiv", type=int, default=5)
    px.add_argument("--plot-data", action="store_true", help="emit gnuplot-friendly columns")
    common(px)
    return ap


def _cmd_constants(args) -> int:
    choice = _parse_iso(args.iso)
    table = const.build_constants_table(args.n, args.K, choice, args.p, args.q)
    if args.format == "json":
        _emit(json.dumps(table.as_dict(), indent=2), args.out)
    else:
        rows = table.as_dict()
        lines = ["key,value"] + [f"{k},{v}" for k, v in rows.items()]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _indented_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2)`` of a dict of numbers and flat number lists, a list per C-encoder call."""
    items = []
    for key, value in payload.items():
        text = json.dumps(value)
        if isinstance(value, list) and value:
            text = "[\n    " + text[1:-1].replace(", ", ",\n    ") + "\n  ]"
        items.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}"


def _cmd_curvature(args) -> int:
    mesh = _load_mesh_arg(args.mesh)
    report = mean_curvature(mesh)
    if args.format == "json":
        reference = const.tc_unit_sphere(TriMesh.n, const.TcConvention(args.convention))
        _emit(_indented_json({**report.as_dict(), "unit_sphere_reference": reference}), args.out)
    else:
        _emit(report.to_csv(), args.out)
    return 0


def _cmd_rearrange(args) -> int:
    if args.mesh:
        if not args.field:
            raise ValueError("--mesh requires --field")
        mesh = _load_mesh_arg(args.mesh)
        with open(args.field) as fh:
            dmf = sample_field(mesh, VertexField.from_csv(fh, mesh), args.subdivision)
    else:
        with open(args.input) as fh:
            dmf = DiscreteMeasuredFunction.from_csv(fh)
    if args.target == "lebesgue":
        target = lebesgue(args.n)
    else:
        target = model_space(args.n, args.K, _parse_iso(args.iso).value(args.n))
    profile = rearrange(dmf, target, Interpolation(args.interpolation))
    _emit(profile.to_json() if args.format == "json" else profile.to_csv(), args.out)
    return 0


def _cmd_verify(args) -> int:
    check = CHECKS[args.check]
    if "f" in check.keywords and not args.field:
        raise ValueError(f"verify {args.check} requires --field")
    kw = dict(p=args.p, q=args.q, K=args.K, choice=_parse_iso(args.iso), reading=args.reading, spec=args.preset,
              subdivision=args.subdivision, tolerance=args.tolerance)
    check.refuse_arguments(kw)
    (mesh, fields), was_kept = _read_kept(_kept_meshes, args.mesh, lambda fh: (load_mesh(fh), OrderedDict()))
    if was_kept:  # warn as building it did
        _warn_if_disconnected(mesh)
    if args.field:
        kw["f"], _ = _read_kept(fields, args.field, lambda fh: VertexField.from_csv(fh, mesh))
    reports = getattr(verify, check.verifier)(mesh, **{k: kw[k] for k in check.keywords})
    reports = reports if isinstance(reports, list) else [reports]
    if args.format == "json":
        _emit(json.dumps([r.as_dict() for r in reports], indent=2), args.out)
    else:
        _emit(reports_to_csv(reports), args.out)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_counterexample(args) -> int:
    rows = sweep(args.p, args.lams, mesh_check=args.mesh_check, subdiv=args.subdiv)
    payload: dict = {}
    if args.N is not None:
        payload["lambda_bar"] = {"N": args.N, "p": args.p, "value": find_lambda_bar(args.N, args.p)}
    if args.format == "csv" or args.plot_data:
        text = sweep_to_csv(rows)
        if args.plot_data:  # gnuplot reads whitespace-separated columns; keep the header as a comment
            text = "# " + text.replace(",", " ")
        if payload:
            text += f"# lambda_bar {payload['lambda_bar']['value']!r}\n"
        _emit(text, args.out)
    else:
        payload["rows"] = [r.as_dict() for r in rows]
        _emit(json.dumps(payload, indent=2), args.out)
    return 0


def dispatch(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    handlers = {
        "constants": _cmd_constants,
        "curvature": _cmd_curvature,
        "rearrange": _cmd_rearrange,
        "verify": _cmd_verify,
        "counterexample": _cmd_counterexample,
    }
    try:
        return handlers[args.command](args)
    except (PsilabError, ValueError, ArithmeticError, OSError) as exc:
        print(f"psilab: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
