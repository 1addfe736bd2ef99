import argparse
import json
import math
import os
import subprocess
import sys
from collections import OrderedDict

import numpy as np
import pytest

import psilab
from psilab import analytic
from psilab import constants as const
from psilab import errors
from psilab import cli
from psilab import mesh as mesh_module
from psilab import verify as v
from psilab.cli import dispatch
from psilab.counterexample import find_lambda_bar, sweep, sweep_to_csv
from psilab.errors import ComplexValued
from psilab.mesh import TriMesh, VertexField, load_mesh, mean_curvature

from conftest import boundary_vanishing_field, mesh_to_off


INV_C = "3.544907701811032"  # 1/C for Brendle's constant at n = 2, as the refusal prints it


@pytest.fixture(scope="module")
def disk_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    mesh = analytic.make_disk(1.0, 16)
    r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    field = boundary_vanishing_field(mesh, 1.0 - r)
    mesh_path = base / "disk.off"
    field_path = base / "hat.csv"
    mesh_path.write_text(mesh_to_off(mesh))
    field_path.write_text(field.to_csv())
    return str(mesh_path), str(field_path), base


class TestConstantsCommand:
    def test_json(self, capsys):
        assert dispatch(["constants", "--n", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["PS"] == 1.0
        assert out["iso_choice"] == "brendle:1"

    def test_csv_to_file(self, tmp_path):
        target = tmp_path / "table.csv"
        code = dispatch(
            ["constants", "--n", "3", "--p", "2", "--q", "4", "--format", "csv", "--out", str(target)]
        )
        assert code == 0
        text = target.read_text()
        assert text.startswith("key,value")
        assert "EGN_literal,gamma-pole" in text

    def test_complex_literal_egn_is_a_marker(self, capsys):
        # the printed EGN takes gamma at -q; gamma(-2.5) < 0 under a fractional power
        assert dispatch(["constants", "--n", "3", "--p", "2", "--q", "2.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["EGN_literal"] == "complex"
        assert math.isfinite(out["EGN"])

    def test_michael_simon_choice(self, capsys):
        assert dispatch(["constants", "--n", "2", "--iso", "michael-simon"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["PS"] > 1.0


class TestCurvatureCommand:
    def test_json_includes_reference(self, disk_files, capsys):
        mesh_path, _, _ = disk_files
        assert dispatch(["curvature", "--mesh", mesh_path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["unit_sphere_reference"] == pytest.approx(4.0 * math.sqrt(math.pi))
        assert out["total_mean_curvature"] == pytest.approx(0.0, abs=1e-6)

    def test_paper_convention(self, disk_files, capsys):
        mesh_path, _, _ = disk_files
        assert dispatch(["curvature", "--mesh", mesh_path, "--convention", "paper"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["unit_sphere_reference"] == pytest.approx(2.0 * math.sqrt(2.0 * math.pi))

    def test_csv(self, disk_files, capsys):
        mesh_path, _, _ = disk_files
        assert dispatch(["curvature", "--mesh", mesh_path, "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("vertex_index,h_norm")


class TestRearrangeCommand:
    def test_from_samples_csv(self, tmp_path, capsys):
        src = tmp_path / "samples.csv"
        src.write_text("value,weight\n2.0,3.141592653589793\n1.0,3.0\n")
        assert dispatch(["rearrange", "--input", str(src)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["radii"][0] == pytest.approx(1.0)
        assert out["values"] == [2.0, 1.0]

    def test_from_mesh_field_linear_csv(self, disk_files, capsys):
        mesh_path, field_path, _ = disk_files
        code = dispatch(
            [
                "rearrange", "--mesh", mesh_path, "--field", field_path,
                "--interpolation", "linear", "--format", "csv",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "radius,value"
        assert float(lines[1].split(",")[0]) == 0.0

    def test_model_target(self, disk_files, capsys):
        mesh_path, field_path, _ = disk_files
        code = dispatch(
            ["rearrange", "--mesh", mesh_path, "--field", field_path, "--target", "model", "--K", "0.5"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["target"]["kind"] == "model"

    def test_mesh_without_field_is_usage_error(self, disk_files):
        mesh_path, _, _ = disk_files
        assert dispatch(["rearrange", "--mesh", mesh_path]) == 2


class TestVerifyCommand:
    def test_ps_passes(self, disk_files, capsys):
        mesh_path, field_path, _ = disk_files
        code = dispatch(["verify", "ps", "--mesh", mesh_path, "--field", field_path, "--p", "2"])
        assert code == 0
        (rep,) = json.loads(capsys.readouterr().out)
        assert rep["pass"] is True
        assert rep["inequality_id"] == "PolyaSzego"

    def test_failing_check_returns_one(self, disk_files, capsys):
        # a zero tolerance leaves no room for the discretization margin (ratio 1.003 here)
        mesh_path, field_path, _ = disk_files
        code = dispatch(
            [
                "verify", "ps", "--mesh", mesh_path, "--field", field_path,
                "--p", "2", "--tolerance", "0",
            ]
        )
        assert code == 1
        (rep,) = json.loads(capsys.readouterr().out)
        assert rep["pass"] is False

    def test_iso_csv(self, disk_files, capsys):
        mesh_path, _, _ = disk_files
        code = dispatch(["verify", "iso", "--mesh", mesh_path, "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out.startswith("inequality_id,")

    def test_gn_requires_q(self, disk_files):
        mesh_path, field_path, _ = disk_files
        assert dispatch(["verify", "gn", "--mesh", mesh_path, "--field", field_path, "--p", "1.5"]) == 2

    def test_closed_surface_domain_error(self, tmp_path, capsys):
        sphere_path = tmp_path / "sphere.off"
        sphere_path.write_text(mesh_to_off(analytic.make_sphere(2)))
        field_path = tmp_path / "one.csv"
        mesh = analytic.make_sphere(2)
        field_path.write_text(VertexField(np.ones(len(mesh.vertices))).to_csv())
        code = dispatch(
            ["verify", "ps", "--mesh", str(sphere_path), "--field", str(field_path), "--p", "2"]
        )
        assert code == 2
        assert "closed" in capsys.readouterr().err

    def test_mono_preset(self, disk_files, capsys):
        mesh_path, field_path, _ = disk_files
        code = dispatch(["verify", "mono", "--mesh", mesh_path, "--field", field_path])
        assert code == 0

    @pytest.mark.parametrize("check", ["ps", "model", "sobolev", "gn", "spectral", "logsob", "ms1", "mono"])
    def test_missing_field_is_usage_error(self, disk_files, check, capsys):
        mesh_path, _, _ = disk_files
        assert dispatch(["verify", check, "--mesh", mesh_path, "--q", "2.5"]) == 2
        assert capsys.readouterr().err == f"psilab: verify {check} requires --field\n"

    @pytest.mark.parametrize(
        "check, args, message",
        [
            ("ps", ["--iso", "bad"], "--iso must be michael-simon or brendle:m, got 'bad'"),
            ("iso", ["--iso", "bad"], "--iso must be michael-simon or brendle:m, got 'bad'"),
            ("mono", ["--preset", "bogus"], "unknown preset 'bogus'"),
            ("mono", ["--preset", "p-sobolev", "--p", "2.5"], "requires 1 < p < n, got p = 2.5, n = 2"),
            ("gn", ["--p", "1.5"], "gn check requires --q"),
            *[
                (check, ["--p", "1.5", "--q", "2.5", "--K", "5"], f"K = 5.0 is not in [0, 1/C) with 1/C = {INV_C}")
                for check in ("ps", "model", "iso", "sobolev", "gn", "spectral", "mono")
            ],
            ("model", ["--K", "-1"], f"K = -1.0 is not in [0, 1/C) with 1/C = {INV_C}"),
            ("gn", ["--reading", "literal", "--p", "1.5", "--q", "2.5"],
             "EGN numerator: gamma(-2.5) < 0 under a fractional power"),
            ("gn", ["--reading", "literal", "--p", "1.5", "--q", "2"], "EGN numerator: gamma pole at argument -2.0"),
            # p is refused before K, as the library refuses it
            ("sobolev", ["--p", "3", "--K", "5"], "requires 1 < p < n, got p = 3.0, n = 2"),
            ("logsob", [], "requires 1 < p < n, got p = 2.0, n = 2"),
        ],
        ids=["iso-ps", "iso-iso", "preset", "preset-p", "gn-q",
             *[f"K-{c}" for c in ("ps", "model", "iso", "sobolev", "gn", "spectral", "mono")],
             "K-negative", "egn-complex", "egn-pole", "p-sobolev", "p-logsob-default"],
    )
    def test_bad_arguments_refused_before_the_files_are_read(self, check, args, message, capsys):
        argv = ["verify", check, "--mesh", "/nonexistent/m.off", "--field", "/nonexistent/f.csv", *args]
        assert dispatch(argv) == 2
        assert capsys.readouterr().err == f"psilab: {message}\n"

    def test_iso_needs_no_field(self, disk_files, capsys):
        mesh_path, _, _ = disk_files
        assert dispatch(["verify", "iso", "--mesh", mesh_path]) == 0


B1, MS = const.brendle(1), const.michael_simon()
LITERAL_EGN, LITERAL_SPECTRAL = const.EgnReading.LITERAL, const.SpectralReading.LITERAL

# check, CLI arguments after --field, and the same verifier call from the library
LIBRARY_CALLS = [
    ("ps", ["--p", "1.5", "--iso", "michael-simon", "--subdivision", "1"],
     lambda m, f: v.verify_polya_szego(m, f, 1.5, 0.0, MS, subdivision=1)),
    ("model", ["--p", "1.5", "--tolerance", "0.03"],
     lambda m, f: v.verify_model_space_ps(m, f, 1.5, 0.0, B1, tolerance=0.03)),
    ("iso", ["--iso", "michael-simon"],
     lambda m, f: v.verify_isoperimetric(m, 0.0, MS, [np.arange(len(m.triangles))])),
    ("sobolev", ["--p", "1.5", "--subdivision", "1", "--tolerance", "0.2"],
     lambda m, f: v.verify_p_sobolev(m, f, 1.5, 0.0, B1, subdivision=1, tolerance=0.2)),
    ("gn", ["--p", "1.5", "--q", "2.5", "--iso", "brendle:2"],
     lambda m, f: v.verify_gn(m, 1.5, 2.5, 0.0, const.brendle(2), f=f)),
    ("gn", ["--p", "1.5", "--q", "2.5", "--reading", "literal"],
     lambda m, f: v.verify_gn(m, 1.5, 2.5, 0.0, B1, LITERAL_EGN, f=f)),
    # at q < 2 the printed EGN takes gamma on (-2, -1), where it is positive
    ("gn", ["--p", "1.5", "--q", "1.8", "--reading", "literal"],
     lambda m, f: v.verify_gn(m, 1.5, 1.8, 0.0, B1, LITERAL_EGN, f=f)),
    ("spectral", ["--reading", "literal", "--subdivision", "1"],
     lambda m, f: v.verify_spectral_gap(m, f, 0.0, B1, LITERAL_SPECTRAL, subdivision=1)),
    ("logsob", ["--p", "1.5", "--tolerance", "0.03"],
     lambda m, f: v.verify_log_sobolev(m, 1.5, f=f, tolerance=0.03)),
    ("ms1", ["--iso", "michael-simon", "--subdivision", "1"],
     lambda m, f: v.verify_michael_simon_p1(m, f, MS, subdivision=1)),
    ("mono", ["--preset", "p-sobolev", "--p", "1.5", "--iso", "michael-simon"],
     lambda m, f: v.verify_monotonicity_principle(m, f, v.monotone_preset("p-sobolev", p=1.5), 0.0, MS)),
    ("iso", ["--tolerance", "0.2"],
     lambda m, f: v.verify_isoperimetric(m, 0.0, B1, [np.arange(len(m.triangles))], tolerance=0.2)),
]


class TestVerifyRunsTheLibraryVerifier:
    @pytest.mark.parametrize(
        "check, args, call", LIBRARY_CALLS, ids=[f"{c}-{i}" for i, (c, _, _) in enumerate(LIBRARY_CALLS)]
    )
    def test_same_report_as_the_library(self, disk_files, capsys, check, args, call):
        mesh_path, field_path, _ = disk_files
        with open(mesh_path) as fh:
            mesh = load_mesh(fh)
        with open(field_path) as fh:
            field = VertexField.from_csv(fh, mesh)
        argv = ["verify", check, "--mesh", mesh_path, "--field", field_path, *args]
        try:
            reports = call(mesh, field)
        except ComplexValued as exc:  # the literal EGN reading is complex-valued at q = 2.5
            assert dispatch(argv) == 2
            assert capsys.readouterr().err == f"psilab: {exc}\n"
            return
        reports = reports if isinstance(reports, list) else [reports]
        assert dispatch(argv) == (0 if all(r.passed for r in reports) else 1)
        assert capsys.readouterr().out == json.dumps([r.as_dict() for r in reports], indent=2) + "\n"
        dispatch(argv + ["--format", "csv"])
        text = capsys.readouterr().out
        assert text == v.reports_to_csv(reports)
        for row in text.splitlines()[1:]:
            lhs, rhs, ratio = map(float, row.split(",")[5:8])  # plain floats, not numpy reprs

    def test_help_lists_the_nine_checks_in_order(self, capsys):
        assert dispatch(["verify", "--help"]) == 0
        assert "{ps,model,iso,sobolev,gn,spectral,logsob,ms1,mono}" in capsys.readouterr().out


class TestCounterexampleCommand:
    def test_json_with_threshold(self, capsys):
        code = dispatch(["counterexample", "--p", "1.5", "--lambda", "10", "--N", "1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lambda_bar"]["value"] > 1.0
        assert out["rows"][0]["lambda"] == 10.0

    def test_divergent_spelled_out(self, capsys):
        code = dispatch(["counterexample", "--p", "2", "--lambda", "5"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rows"][0]["plane_grad_p"] == "divergent"
        assert out["rows"][0]["ratio"] == "inf"

    def test_csv(self, capsys):
        code = dispatch(["counterexample", "--p", "1.5", "--lambda", "5", "10", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("lambda,p,")
        assert len(lines) == 3

    def test_no_threshold_below_the_ceiling_exits_2(self, capsys):
        assert dispatch(["counterexample", "--p", "1.01", "--N", "1e6"]) == 2
        assert "no threshold below" in capsys.readouterr().err

    def test_threshold_search_past_the_cancellation_point(self, capsys):
        # the walk passes lambda = 2^27, where 1 - 1/lambda^2 rounds to 1
        assert dispatch(["counterexample", "--p", "1.2", "--N", "1e5"]) == 2
        err = capsys.readouterr().err
        assert "division by zero" not in err
        assert "no threshold below" in err

    def test_plot_data(self, capsys):
        code = dispatch(["counterexample", "--p", "1.5", "--lambda", "5", "--plot-data"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("# lambda p ")
        assert "," not in out.splitlines()[1]


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert dispatch(["frobnicate"]) == 2

    def test_missing_required_argument(self):
        assert dispatch(["curvature"]) == 2

    def test_domain_error(self, disk_files, capsys):
        mesh_path, field_path, _ = disk_files
        code = dispatch(
            ["verify", "ps", "--mesh", mesh_path, "--field", field_path, "--K", "-1"]
        )
        assert code == 2
        assert "psilab:" in capsys.readouterr().err

    def test_missing_file(self):
        assert dispatch(["curvature", "--mesh", "/nonexistent/mesh.off"]) == 2

    def test_non_finite_coordinate(self, tmp_path, capsys):
        path = tmp_path / "nan.off"
        path.write_text("OFF\n3 1 0\n0 0 0\nnan 0 0\n0 1 0\n3 0 1 2\n")
        assert dispatch(["curvature", "--mesh", str(path)]) == 2
        assert capsys.readouterr().err.startswith("psilab: line 4: non-finite")

    def test_field_index_out_of_range(self, disk_files, tmp_path, capsys):
        mesh_path, _, _ = disk_files
        field_path = tmp_path / "bad.csv"
        field_path.write_text("vertex_index,value\n-1,1.0\n")
        assert dispatch(["verify", "ps", "--mesh", mesh_path, "--field", str(field_path)]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert dispatch(["--help"]) == 0

    def test_psilab_error_exits_two(self, monkeypatch, capsys):
        def fail(args):
            raise psilab.PsilabError("no such thing")

        monkeypatch.setattr(cli, "_cmd_constants", fail)
        assert dispatch(["constants", "--n", "2"]) == 2
        assert capsys.readouterr().err == "psilab: no such thing\n"

    @pytest.mark.parametrize(
        "body",
        ["1.0,0.5\nnan,0.5\n", "1.0,0.5\n2.0,inf\n", "1.0,0.5\n2.0\n"],
        ids=["nan-value", "inf-weight", "one-column-row"],
    )
    def test_bad_sample_csv(self, tmp_path, capsys, body):
        path = tmp_path / "samples.csv"
        path.write_text("value,weight\n" + body)
        assert dispatch(["rearrange", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("psilab: ")


def test_every_public_error_is_a_psilab_error():
    public = [obj for name, obj in vars(errors).items() if isinstance(obj, type) and not name.startswith("_")]
    assert len(public) == 12 and set(public) <= {getattr(psilab, name) for name in psilab.__all__}
    for cls in public:
        assert issubclass(cls, psilab.PsilabError)
        # each keeps its built-in base, so callers that catch ValueError or RuntimeError still do
        assert cls is psilab.PsilabError or issubclass(cls, (ValueError, RuntimeError))


def test_bad_sample_csv_names_its_file_line(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_text("value,weight\n1.0,0.5\n\nabc,1\n")
    assert dispatch(["rearrange", "--input", str(path)]) == 2
    assert capsys.readouterr().err == "psilab: line 4: expected value,weight numbers, got 'abc,1'\n"


def test_module_entry_point_runs_main():
    src = os.path.dirname(os.path.dirname(psilab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = [sys.executable, "-m", "psilab.cli"]
    ok = subprocess.run(run + ["constants", "--n", "2"], env=env, capture_output=True, text=True)
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["PS"] == 1.0
    assert subprocess.run(run, env=env, capture_output=True).returncode == 2


# the nine checks on a field that vanishes on the boundary, as (check, arguments after --field)
NINE_CHECKS = [
    ("ps", ["--p", "1.5"]), ("model", []), ("iso", []), ("sobolev", ["--p", "1.5"]),
    ("gn", ["--p", "1.5", "--q", "2.5"]), ("spectral", []), ("logsob", ["--p", "1.5"]), ("ms1", []), ("mono", []),
]

# dispatches the argv lists of argv[1] in one process and prints [exit code, stdout, stderr] of each;
# with argv[2] == "forget" every input is built again for every dispatch
DISPATCH_SCRIPT = r"""
import io, json, sys
from psilab import cli

records = []
for argv in json.loads(sys.argv[1]):
    if sys.argv[2] == "forget":
        cli._kept_meshes.clear()
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.dispatch(argv)
    finally:
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    records.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(records))
"""


def _counted(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call; returns the list of calls."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.fixture
def no_kept_inputs(monkeypatch):
    monkeypatch.setattr(cli, "_kept_meshes", OrderedDict())
    return cli._kept_meshes


class TestVerifyKeepsInputs:
    @pytest.fixture(scope="class")
    def odd_meshes(self, tmp_path_factory):
        """A disconnected mesh and one squashed until nearly every triangle is obtuse, each with a hat field."""
        base = tmp_path_factory.mktemp("odd")
        disk = analytic.make_disk(1.0, 8)
        r = np.hypot(disk.vertices[:, 0], disk.vertices[:, 1])
        nv = len(disk.vertices)
        with pytest.warns(UserWarning, match="not connected"):
            two = TriMesh(np.vstack([disk.vertices, disk.vertices + [3.0, 0.0, 0.0]]),
                          np.vstack([disk.triangles, disk.triangles + nv]))
        squashed = TriMesh(disk.vertices * [1.0, 0.1, 1.0], disk.triangles)
        paths = []
        for name, mesh, values in (("two", two, np.tile(1.0 - r, 2)), ("squashed", squashed, 1.0 - r)):
            (base / f"{name}.off").write_text(mesh_to_off(mesh))
            (base / f"{name}.csv").write_text(boundary_vanishing_field(mesh, values).to_csv())
            paths.append((str(base / f"{name}.off"), str(base / f"{name}.csv")))
        return paths

    @pytest.mark.parametrize("flags", [[], ["-W", "always"]], ids=["default-filter", "always"])
    def test_twice_in_one_process_as_if_built_each_time(self, odd_meshes, flags):
        argvs = [
            ["verify", check, "--mesh", mesh, "--field", field, *args, "--format", fmt]
            for mesh, field in odd_meshes
            for check, args in NINE_CHECKS
            for fmt in ("json", "csv")
            for _ in range(2)
        ]
        # a refusal after the mesh is read (the mesh file given as the field), then the no-field check
        two_mesh = odd_meshes[0][0]
        argvs += [argvs[0] + ["--field", two_mesh], *argvs[:4], *[["verify", "iso", "--mesh", two_mesh]] * 2]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(psilab.__file__))

        def run(mode):
            cmd = [sys.executable, *flags, "-c", DISPATCH_SCRIPT, json.dumps(argvs), mode]
            done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            return json.loads(done.stdout)

        kept, built = run("keep"), run("forget")
        assert kept == built
        warned = [err for _, _, err in kept if "mesh is not connected" in err]
        # the warning comes from one line of mesh.py, built or kept: -W always shows it on every
        # dispatch on the disconnected mesh, the default filter once per process
        assert len(warned) == (43 if flags else 1)
        assert all(f"{mesh_module.__file__}:" in err for err in warned)
        assert {code for code, _, _ in kept} >= {0, 2}

    def test_each_input_built_once(self, disk_files, no_kept_inputs, monkeypatch, capsys):
        mesh_path, field_path, _ = disk_files
        loads = _counted(monkeypatch, cli, "load_mesh")
        validations = _counted(monkeypatch, TriMesh, "_validate")
        reads = _counted(monkeypatch, mesh_module, "read_table")
        curvatures = _counted(monkeypatch, mesh_module, "_curvature_report")
        rearranged = _counted(monkeypatch, v, "rearrange")
        for _ in range(2):
            for check, args in NINE_CHECKS:
                for fmt in ("json", "csv"):
                    assert dispatch(["verify", check, "--mesh", mesh_path, "--field", field_path, *args,
                                     "--format", fmt]) == 0
        assert (len(loads), len(validations), len(reads), len(curvatures)) == (1, 1, 1, 1)
        # ps, ms1 and mono share the Lebesgue profile, model has its own target
        assert sorted(args[1].kind.value for args in rearranged) == ["lebesgue", "model"]
        capsys.readouterr()

    def test_mono_draws_its_samples_once(self, disk_files, no_kept_inputs, monkeypatch, capsys):
        mesh_path, field_path, _ = disk_files
        draws = _counted(monkeypatch, v, "sample_field")
        for kept_before in (0, 1):  # building the profile, then with the profile kept
            assert dispatch(["verify", "mono", "--mesh", mesh_path, "--field", field_path]) == 0
            assert not json.loads(capsys.readouterr().out)[0]["vacuous"]
            assert len(draws) == 1 + kept_before

    def test_same_size_and_mtime_but_other_bytes_is_a_miss(self, tmp_path, no_kept_inputs, monkeypatch, capsys):
        path = tmp_path / "tri.off"
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        stamp = path.stat().st_mtime_ns
        loads = _counted(monkeypatch, cli, "load_mesh")
        assert dispatch(["verify", "iso", "--mesh", str(path)]) == 0
        area = json.loads(capsys.readouterr().out)[0]["lhs"] ** 2
        path.write_text("OFF\n3 1 0\n0 0 0\n2 0 0\n0 1 0\n3 0 1 2\n")
        os.utime(path, ns=(stamp, stamp))
        assert dispatch(["verify", "iso", "--mesh", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)[0]["lhs"] ** 2 == pytest.approx(2.0 * area)
        assert len(loads) == 2

    def test_errors_are_not_kept(self, disk_files, tmp_path, no_kept_inputs, monkeypatch, capsys):
        mesh_path, _, _ = disk_files
        bad_mesh = tmp_path / "bad.off"
        bad_mesh.write_text("OFF\n3 1 0\n0 0 0\nnan 0 0\n0 1 0\n3 0 1 2\n")
        bad_field = tmp_path / "bad.csv"
        bad_field.write_text("vertex_index,value\n-1,1.0\n")
        loads = _counted(monkeypatch, cli, "load_mesh")
        reads = _counted(monkeypatch, mesh_module, "read_table")
        for _ in range(2):
            assert dispatch(["verify", "iso", "--mesh", str(bad_mesh)]) == 2
            assert dispatch(["verify", "ps", "--mesh", mesh_path, "--field", str(bad_field)]) == 2
        assert capsys.readouterr().err.count("out of range") == 2
        assert len(loads) == 3 and len(reads) == 2  # the bad mesh twice, the good one once
        ((_, fields),) = no_kept_inputs.values()
        assert not fields

    def test_bounded(self, tmp_path, no_kept_inputs, capsys):
        disk = analytic.make_disk(1.0, 4)
        for k in range(cli._KEPT_INPUTS + 3):
            mesh_path = tmp_path / f"disk{k}.off"
            mesh_path.write_text(mesh_to_off(TriMesh(disk.vertices * (1.0 + k), disk.triangles)))
            field_path = tmp_path / f"field{k}.csv"
            field_path.write_text(VertexField(np.full(len(disk.vertices), 1.0 + k)).to_csv())
            for mesh in (mesh_path, tmp_path / "disk0.off"):
                assert dispatch(["verify", "ms1", "--mesh", str(mesh), "--field", str(field_path)]) in (0, 1)
                assert len(no_kept_inputs) <= cli._KEPT_INPUTS
                assert all(len(fields) <= cli._KEPT_INPUTS for _, fields in no_kept_inputs.values())
        assert len(no_kept_inputs) == cli._KEPT_INPUTS
        # disk0 is used every other dispatch, so it is never the least recently used
        assert no_kept_inputs[next(reversed(no_kept_inputs))][0].vertices[1, 0] == disk.vertices[1, 0]
        capsys.readouterr()

    def test_mesh_from_a_pipe(self, disk_files):
        mesh_path, _, _ = disk_files
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(psilab.__file__))}
        with open(mesh_path) as fh:
            text = fh.read()
        cmd = [sys.executable, "-m", "psilab.cli", "verify", "iso", "--mesh", "/dev/stdin"]
        done = subprocess.run(cmd, input=text, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)[0]["inequality_id"] == "Isoperimetric"

    def test_kept_arrays_are_read_only(self, disk_files, no_kept_inputs, capsys):
        mesh_path, field_path, _ = disk_files
        for check in ("iso", "ms1", "model"):
            assert dispatch(["verify", check, "--mesh", mesh_path, "--field", field_path]) == 0
        ((mesh, fields),) = no_kept_inputs.values()
        (field,) = fields.values()
        curvature = mean_curvature(mesh)
        arrays = [mesh.vertices, mesh.triangles, field.values, curvature.h_norm, curvature.vertex_areas,
                  curvature.boundary_mask]
        for _, profile in field._profiles.values():
            arrays += [profile.radii, profile.values]
        assert len(arrays) == 10
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]
        capsys.readouterr()


# check name -> the verifier it runs, as perfbench/layers.py names its spans
VERIFIERS = {
    "ps": "verify_polya_szego", "model": "verify_model_space_ps", "iso": "verify_isoperimetric",
    "sobolev": "verify_p_sobolev", "gn": "verify_gn", "spectral": "verify_spectral_gap",
    "logsob": "verify_log_sobolev", "ms1": "verify_michael_simon_p1", "mono": "verify_monotonicity_principle",
}


class TestCheckTable:
    @pytest.mark.parametrize("check, args", NINE_CHECKS, ids=[check for check, _ in NINE_CHECKS])
    def test_runs_the_verifier_bound_on_the_module(self, disk_files, monkeypatch, capsys, check, args):
        # a wrapper rebound on psilab.verify, as perfbench/tracer.py rebinds it, is what the CLI runs
        mesh_path, field_path, _ = disk_files
        calls = _counted(monkeypatch, v, VERIFIERS[check])
        assert dispatch(["verify", check, "--mesh", mesh_path, "--field", field_path, *args]) == 0
        assert len(calls) == 1
        capsys.readouterr()

    def test_names_the_parser_choices_and_public_verifiers(self):
        (commands,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        (check_arg,) = [a for a in commands.choices["verify"]._actions if a.dest == "check"]
        assert list(v.CHECKS) == check_arg.choices == list(VERIFIERS)
        assert {name: check.verifier for name, check in v.CHECKS.items()} == VERIFIERS
        assert set(VERIFIERS.values()) <= set(v.__all__)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "ps", "--p", "nan"], "p must be a finite number >= 1, got nan"),
        (["verify", "model", "--p", "nan"], "p must be a finite number >= 1, got nan"),
        (["verify", "ps", "--p", "inf"], "p must be a finite number >= 1, got inf"),
        (["constants", "--n", "2", "--K", "nan"], f"K = nan is not in [0, 1/C) with 1/C = {INV_C}"),
        (["counterexample", "--p", "nan"], "p must be a finite number >= 1, got nan"),
        (["counterexample", "--p", "inf"], "p must be a finite number >= 1, got inf"),
        (["counterexample", "--p", "1.5", "--N", "nan"], "N must be a finite number > 0, got nan"),
        (["counterexample", "--p", "1.5", "--N", "inf"], "N must be a finite number > 0, got inf"),
        (["rearrange", "--target", "model", "--K", "nan"], f"K = nan is not in [0, 1/C) with 1/C = {INV_C}"),
        *[(["verify", "spectral", "--tolerance", tol], f"tolerance must be a finite number >= 0, got {float(tol)}")
          for tol in ("inf", "nan", "-0.5")],
    ],
    ids=["ps-p-nan", "model-p-nan", "ps-p-inf", "constants-K-nan", "counterexample-p-nan", "counterexample-p-inf",
         "N-nan", "N-inf", "model-target-K-nan", "tolerance-inf", "tolerance-nan", "tolerance-negative"],
)
def test_non_finite_and_negative_arguments_exit_two(disk_files, capsys, argv, message):
    mesh_path, field_path, _ = disk_files
    files = ["--mesh", mesh_path, "--field", field_path] if argv[0] in ("verify", "rearrange") else []
    assert dispatch(argv + files) == 2
    assert capsys.readouterr().err == f"psilab: {message}\n"


CHECK_NAMES = [check for check, _ in NINE_CHECKS]


@pytest.mark.parametrize(
    "check, args, message",
    [
        *[(check, ["--tolerance", tol], f"tolerance must be a finite number >= 0, got {float(tol)}")
          for check in CHECK_NAMES for tol in ("nan", "inf", "-0.5")],
        *[(check, ["--subdivision", "-1"], "subdivision must be >= 0") for check in CHECK_NAMES if check != "iso"],
        *[(check, ["--p", p], f"p must be a finite number >= 1, got {float(p)}")
          for check in ("ps", "model") for p in ("nan", "0.5")],
        # in the order the verifier meets them: K, then the subdivision, then p, then the tolerance
        ("ps", ["--p", "0.5", "--subdivision", "-1", "--tolerance", "nan"], "subdivision must be >= 0"),
        ("ps", ["--p", "0.5", "--tolerance", "nan"], "p must be a finite number >= 1, got 0.5"),
        ("model", ["--p", "nan", "--K", "5"], f"K = 5.0 is not in [0, 1/C) with 1/C = {INV_C}"),
    ],
    ids=[*[f"tolerance-{tol}-{check}" for check in CHECK_NAMES for tol in ("nan", "inf", "negative")],
         *[f"subdivision-{check}" for check in CHECK_NAMES if check != "iso"],
         *[f"p-{p}-{check}" for check in ("ps", "model") for p in ("nan", "0.5")],
         "subdivision-before-p", "p-before-tolerance", "K-before-p"],
)
def test_verify_arguments_refused_before_the_files_are_read(check, args, message, capsys):
    # --p 1.5 --q 2.5 pass the checks' own refusals, so the case's arguments (given last, so they win) are met
    argv = ["verify", check, "--mesh", "/nonexistent/m.off", "--field", "/nonexistent/f.csv",
            "--p", "1.5", "--q", "2.5", *args]
    assert dispatch(argv) == 2
    assert capsys.readouterr().err == f"psilab: {message}\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["--p", "nan"], "p must be a finite number, got nan"),
        (["--p", "inf"], "p must be a finite number, got inf"),
        (["--q", "nan"], "q must be a finite number, got nan"),
        (["--p", "1.5", "--q", "inf"], "q must be a finite number, got inf"),
        (["--iso", "brendle:x"], "--iso must be michael-simon or brendle:m, got 'brendle:x'"),
        (["--iso", "brendle:"], "--iso must be michael-simon or brendle:m, got 'brendle:'"),
        (["--iso", "brendle:0"], "Brendle choice requires codimension m >= 1"),
    ],
    ids=["p-nan", "p-inf", "q-nan-without-p", "q-inf", "brendle-x", "brendle-empty", "brendle-0"],
)
def test_constants_arguments_refused(args, message, capsys):
    assert dispatch(["constants", "--n", "2", *args]) == 2
    assert capsys.readouterr().err == f"psilab: {message}\n"


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("args", [["--n", "400", "--p", "1.5"], ["--n", "1000", "--iso", "brendle:3"]])
def test_constants_at_large_n_are_finite(args, capsys):
    assert dispatch(["constants", *args]) == 0
    table = _strict_json(capsys.readouterr().out)
    assert all(value > 0 for key, value in table.items() if key not in ("n", "K", "iso_choice", "p", "q"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "line 1: empty input"),
        ("# only a comment\n\n", "line 1: empty input"),
        ("nOFF\n3 1 0\n", "line 1: nOFF header missing the dimension"),
        ("nOFF x\n3 1 0\n", "line 1: bad nOFF dimension 'x'"),
        ("\nnOFF 2\n3 1 0\n", "line 2: ambient dimension must be >= 3, got 2"),
        ("OFF\n", "line 1: unexpected end of file"),
        ("OFF\n3\n", "line 2: expected 'nv nf [ne]' counts"),
        ("OFF 3\n", "line 1: expected 'nv nf [ne]' counts"),
        ("OFF\n3 x 0\n", "line 2: counts must be non-negative integers"),
        ("OFF\n3.5 1 0\n", "line 2: counts must be non-negative integers"),
        ("OFF\n-1 0 0\n", "line 2: counts must be non-negative integers"),
        ("OFF 3 -2 0\n", "line 1: counts must be non-negative integers"),
    ],
    ids=["empty", "comments-only", "nOFF-no-dimension", "nOFF-bad-dimension", "nOFF-dimension-2", "no-counts-line",
         "one-count", "one-count-on-header", "count-not-a-number", "count-not-an-integer", "count-negative",
         "count-negative-on-header"],
)
def test_mesh_header_refusals(tmp_path, capsys, text, message):
    path = tmp_path / "bad.off"
    path.write_text(text)
    assert dispatch(["curvature", "--mesh", str(path)]) == 2
    assert capsys.readouterr().err == f"psilab: {message}\n"


@pytest.mark.parametrize("fmt", [["--format", "csv"], ["--plot-data"]], ids=["csv", "plot-data"])
def test_counterexample_text_output_ends_with_the_threshold(fmt, capsys):
    assert dispatch(["counterexample", "--p", "1.5", "--lambda", "5", "10", "--N", "3", *fmt]) == 0
    table = sweep_to_csv(sweep(1.5, [5.0, 10.0]))
    if fmt == ["--plot-data"]:
        table = "# " + table.replace(",", " ")
    assert capsys.readouterr().out == table + f"# lambda_bar {find_lambda_bar(3.0, 1.5)!r}\n"
