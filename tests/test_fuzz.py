"""A seeded fuzz of the CLI's input contract: a few hundred ``dispatch`` calls over all five commands, with
argument values and small OFF and CSV inputs mutated at random.

Whatever the input, a call exits 0, 1 or 2; an exit 2 explains itself on stderr (``psilab:`` or argparse's
usage); no warning escapes; and a verdict that fails (exit 1) has finite sides.
"""

import json
import math
import os
import warnings

import numpy as np

from psilab import analytic
from psilab.cli import dispatch
from psilab.mesh import VertexField
from psilab.verify import CHECKS

from conftest import boundary_vanishing_field, mesh_to_off

SEED, CALLS = 20261021, 600
NUMBERS = ["0", "-1", "nan", "inf", "-inf", "1e308", "1e-308", "abc"]  # beside each option's good values


def _inputs(tmp_path, rng) -> dict[str, tuple[list[str], list[str]]]:
    """Paths of small mesh, field and sample files by kind: the good ones, then the mutated ones."""
    meshes, fields, samples = ([], []), ([], []), ([], [])

    def write(name, text, into, mutated=False):
        (tmp_path / name).write_text(text)
        into[mutated].append(str(tmp_path / name))

    disk, cap = analytic.make_disk(1.0, 5), analytic.make_cap(0.6, 5)
    for name, mesh in (("disk", disk), ("cap", cap)):
        off = mesh_to_off(mesh)
        write(f"{name}.off", off, meshes)
        lines = off.splitlines()
        first_face = 2 + len(mesh.vertices)
        for mutant, edit in (("nan", lambda ls: ls.__setitem__(3, "nan 0 0")),
                             ("bad-index", lambda ls: ls.__setitem__(first_face, f"3 0 1 {len(mesh.vertices) + 5}")),
                             ("quad", lambda ls: ls.__setitem__(first_face, "4 0 1 2 3")),
                             ("truncated", lambda ls: ls.__delitem__(slice(len(ls) // 2, None)))):
            mutated = list(lines)
            edit(mutated)
            write(f"{name}-{mutant}.off", "\n".join(mutated) + "\n", meshes, True)
        for scale in (1e-80, 1e80):  # the coordinates scaled in the text: a TriMesh of them would be refused here
            scaled = [" ".join(repr(scale * float(x)) for x in line.split()) for line in lines[2:first_face]]
            write(f"{name}-{scale:g}.off", "\n".join([*lines[:2], *scaled, *lines[first_face:]]) + "\n", meshes, True)
        r = np.linalg.norm(mesh.vertices - mesh.vertices[0], axis=1)
        csv = boundary_vanishing_field(mesh, 1.0 - r / r.max()).to_csv()
        write(f"{name}_hat.csv", csv, fields)
        rows = csv.splitlines()
        for mutant, edit in (("nan", lambda rs: rs.__setitem__(2, "1,nan")),
                             ("bad-index", lambda rs: rs.__setitem__(2, f"{len(mesh.vertices) + 3},0.5")),
                             ("truncated", lambda rs: rs.__setitem__(-1, rs[-1].split(",")[0] + ","))):
            mutated = list(rows)
            edit(mutated)
            write(f"{name}_hat-{mutant}.csv", "\n".join(mutated) + "\n", fields, True)
        for scale in (1e-200, 1e-80, 1e80, 1e200):  # the far ones take a check's sides past the double range
            values = boundary_vanishing_field(mesh, scale * (1.0 - r / r.max()))
            write(f"{name}_hat_{scale:g}.csv", values.to_csv(), fields)
        # lifted off the boundary: ms1, which takes any field, then fails, and the others refuse it
        write(f"{name}_lifted.csv", VertexField(1.5 - r / r.max()).to_csv(), fields)
    values, weights = rng.random(50).tolist(), rng.random(50).tolist()
    good = "value,weight\n" + "".join(f"{v!r},{w!r}\n" for v, w in zip(values, weights))
    write("samples.csv", good, samples)
    write("samples_huge.csv", "value,weight\n1e300,1e300\n2.0,1e-300\n", samples)
    write("samples-nan.csv", good.replace(f"{values[3]!r},", "nan,", 1), samples, True)
    write("samples-negative.csv", good.replace(f",{weights[4]!r}", ",-1.0", 1), samples, True)
    write("samples-truncated.csv", good[: len(good) // 2].rsplit(",", 1)[0] + "\n", samples, True)
    return {"mesh": meshes, "field": fields, "input": samples}


def _argv(rng, files) -> list[str]:
    """One command line: a command and its options, each given a good value, a mutated one (a bad number or a
    typo) or left out."""
    def pick(options):
        return options[rng.integers(len(options))]

    def path(kind, mesh=""):  # a good file four times in five, a field mostly one of the mesh's own
        good, mutated = files[kind]
        stem = os.path.basename(mesh).split("-")[0].split(".")[0]  # disk or cap, "" for no mesh
        own = [p for p in good if os.path.basename(p).startswith(stem + "_")]
        return pick(mutated if rng.random() < 0.2 else own if own and rng.random() < 0.8 else good)

    def value(good, bad=NUMBERS):
        return pick(good) if rng.random() < 0.94 else pick(bad)

    command = pick(["constants", "curvature", "rearrange", "verify", "verify", "verify", "counterexample"])
    if command == "constants":
        opts = {"--n": value(["2", "3"], ["0", "-1", "500", "2.5"]), "--K": value(["0", "0.5"]),
                "--p": value(["1.5"]), "--q": value(["2.5", "2"]),
                "--iso": value(["brendle:1", "michael-simon"], ["brendle:x", "brendle:0", "brendel:1"])}
    elif command == "curvature":
        opts = {"--mesh": path("mesh")}
    elif command == "rearrange":
        source = {"--input": path("input")} if rng.random() < 0.5 else \
            {"--mesh": (mesh := path("mesh")), "--field": path("field", mesh),
             "--subdivision": value(["0", "1"], ["-1"])}
        opts = {**source, "--target": value(["lebesgue", "model"], ["modell"]), "--n": value(["2", "3"], ["0"]),
                "--K": value(["0"], ["0.5", *NUMBERS]), "--interpolation": value(["step", "linear"], ["cubic"])}
    elif command == "verify":
        opts = {"": pick(list(CHECKS)), "--mesh": (mesh := path("mesh")), "--field": path("field", mesh),
                "--p": value(["1.5", "1.5", "2", "1"]), "--q": value(["2.5", "1.8"]), "--K": value(["0", "2"]),
                "--iso": value(["brendle:1", "brendle:1", "michael-simon", "brendle:3"], ["brendel:1", "brendle:"]),
                "--reading": value(["corrected", "literal"], ["literl"]),
                "--preset": value(["sobolev-l1", "p-sobolev"], ["l1"]), "--tolerance": value(["0.01", "0"])}
    else:
        lams = " ".join(value(["2", "10", "1e3"], ["0.5", "nan", "1e200"]) for _ in range(rng.integers(1, 4)))
        opts = {"--p": value(["1.5", "2.5", "1"]), "--lambda": lams, "--N": value(["10", "1e4"])}
        if rng.random() < 0.2:
            opts["--mesh-check"], opts["--subdiv"] = None, value(["1", "2"], ["-1"])
    argv = [command]
    for key, text in opts.items():
        if key and rng.random() < 0.05:  # a missing option: --field, --q and the others alike
            continue
        argv += [text] if not key else [key] if text is None else [key, *text.split(" ")]
    return argv + ["--format", pick(["json", "csv"])]


def _sides_of_failures(out: str) -> list[tuple[float, float]]:
    """(lhs, rhs) of each failing verdict in a verify command's JSON or CSV output."""
    if out.startswith("["):
        return [(r["lhs"], r["rhs"]) for r in json.loads(out) if not r["pass"]]
    header, *rows = out.splitlines()
    names = header.split(",")
    records = [dict(zip(names, row.split(","))) for row in rows]
    return [(float(r["lhs"]), float(r["rhs"])) for r in records if r["pass"] == "0"]


def test_dispatch_keeps_its_contract_on_fuzzed_input(tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    files = _inputs(tmp_path, rng)
    codes = []
    for _ in range(CALLS):
        argv = _argv(rng, files)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = dispatch(argv)
        out, err = capsys.readouterr()
        assert [str(w.message) for w in caught] == [], argv
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.startswith(("psilab: ", "usage: psilab")), (argv, err)
        if code == 1:
            assert argv[0] == "verify", argv
            sides = _sides_of_failures(out)
            assert sides and all(math.isfinite(x) for pair in sides for x in pair), (argv, out)
        codes.append(code)
    # the mutations reach past the argument refusals: every outcome occurs
    assert {0, 1, 2} <= set(codes)
