import argparse
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import warnings
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from psilab.mesh import TriMesh, VertexField, load_mesh, mean_curvature, p1_gradient_lp

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

    def test_log_sobolev_constant_past_the_separate_power(self, capsys):
        # ((p - 1)/e)^(p - 1) overflows at p = 250 while LS(300, 250) = 4.58e135 is a double
        assert dispatch(["constants", "--n", "300", "--p", "250"]) == 0
        assert json.loads(capsys.readouterr().out)["LS"] == const.log_sobolev_constant(300, 250.0)


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

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--K", "0.7"], "--target lebesgue takes no --K, got 0.7"),
            (["--K", "nan"], "--target lebesgue takes no --K, got nan"),
            (["--iso", "garbage"], "--iso must be michael-simon or brendle:m, got 'garbage'"),
            (["--target", "model", "--iso", "garbage"], "--iso must be michael-simon or brendle:m, got 'garbage'"),
        ],
        ids=["lebesgue-K", "lebesgue-K-nan", "lebesgue-iso", "model-iso"],
    )
    def test_target_arguments_refused(self, tmp_path, capsys, args, message):
        # the Lebesgue target has no curvature, and --iso is read for every target, as verify reads it
        src = tmp_path / "samples.csv"
        src.write_text("value,weight\n2.0,1.0\n")
        assert dispatch(["rearrange", "--input", str(src), *args]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"psilab: {message}\n")

    @pytest.mark.parametrize("source", [["--input", "missing.csv"], ["--mesh", "missing.off", "--field", "missing.csv"]],
                             ids=["input", "mesh"])
    def test_arguments_refused_before_the_input_is_read(self, tmp_path, capsys, source):
        # as verify does: a bad argument is named, not the missing file
        source = [str(tmp_path / arg) if arg.startswith("missing") else arg for arg in source]
        assert dispatch(["rearrange", *source, "--target", "model", "--K", "9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("psilab: K = 9.0 is not in [0, 1/C)")


class TestVerifyCommand:
    def test_ps_passes(self, disk_files, capsys):
        mesh_path, field_path, _ = disk_files
        code = dispatch(["verify", "ps", "--mesh", mesh_path, "--field", field_path, "--p", "2"])
        assert code == 0
        (rep,) = json.loads(capsys.readouterr().out)
        assert rep["pass"] is True
        assert rep["inequality_id"] == "PolyaSzego"

    def test_failing_check_returns_one(self, disk_files, monkeypatch, capsys):
        # Polya-Szego holds on the flat disk (ratio 0.998 here), so the claim is broken by hand: a PS constant
        # of 0.99 with no tolerance
        monkeypatch.setattr(const, "ps_constant", lambda n, K, choice: 0.99)
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


B1, MS = const.brendle(1), const.IsoperimetricChoice()
LITERAL = const.Reading.LITERAL

# check, CLI arguments after --field, and the same verifier call from the library
LIBRARY_CALLS = [
    ("ps", ["--p", "1.5", "--iso", "michael-simon"],
     lambda m, f: v.verify_polya_szego(m, f, 1.5, 0.0, MS)),
    ("model", ["--p", "1.5", "--tolerance", "0.03"],
     lambda m, f: v.verify_model_space_ps(m, f, 1.5, 0.0, B1, tolerance=0.03)),
    ("iso", ["--iso", "michael-simon"],
     lambda m, f: v.verify_isoperimetric(m, 0.0, MS, [np.arange(len(m.triangles))])),
    ("sobolev", ["--p", "1.5", "--tolerance", "0.2"],
     lambda m, f: v.verify_p_sobolev(m, f, 1.5, 0.0, B1, tolerance=0.2)),
    ("gn", ["--p", "1.5", "--q", "2.5", "--iso", "brendle:2"],
     lambda m, f: v.verify_gn(m, f, 1.5, 2.5, 0.0, const.brendle(2))),
    ("gn", ["--p", "1.5", "--q", "2.5", "--reading", "literal"],
     lambda m, f: v.verify_gn(m, f, 1.5, 2.5, 0.0, B1, LITERAL)),
    # at q < 2 the printed EGN takes gamma on (-2, -1), where it is positive
    ("gn", ["--p", "1.5", "--q", "1.8", "--reading", "literal"],
     lambda m, f: v.verify_gn(m, f, 1.5, 1.8, 0.0, B1, LITERAL)),
    ("spectral", ["--reading", "literal"],
     lambda m, f: v.verify_spectral_gap(m, f, 0.0, B1, LITERAL)),
    ("logsob", ["--p", "1.5", "--tolerance", "0.03"],
     lambda m, f: v.verify_log_sobolev(m, f, 1.5, tolerance=0.03)),
    ("ms1", ["--iso", "michael-simon"],
     lambda m, f: v.verify_michael_simon_p1(m, f, MS)),
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

    @pytest.mark.parametrize("subdiv", [0, 3])
    @pytest.mark.parametrize("p", [1.5, 2.5])
    @pytest.mark.parametrize("fmt", [[], ["--format", "csv"], ["--plot-data"]], ids=["json", "csv", "plot-data"])
    @pytest.mark.parametrize("threshold", [[], ["--N", "30"]], ids=["sweep", "with-N"])
    def test_mesh_check_matches_per_lambda_rows(self, subdiv, p, fmt, threshold, capsys):
        lams = [1.0, 2.0, 7.5, 20.0, 300.0, 1e8]
        argv = ["counterexample", "--p", str(p), "--lambda", *map(repr, lams), "--mesh-check", "--subdiv", str(subdiv)]
        assert dispatch([*argv, *fmt, *threshold]) == 0
        # the reference: the closed-form rows, cross-checked one lambda at a time
        mesh, rows = analytic.make_sphere(subdiv), sweep(p, lams)
        for row in rows:
            row.mesh_surface = p1_gradient_lp(mesh, VertexField(analytic.example51_field(row.lam, mesh.vertices)), p)
            row.flagged = row.lam > 20.0 or abs(row.mesh_surface - row.surface_grad_p) / row.surface_grad_p > 0.05
        bar = find_lambda_bar(30.0, p) if threshold else None
        if fmt:
            expected = sweep_to_csv(rows)
            if fmt == ["--plot-data"]:
                expected = "# " + expected.replace(",", " ")
            if threshold:
                expected += f"# lambda_bar {bar!r}\n"
        else:
            payload = {"lambda_bar": {"N": 30.0, "p": p, "value": bar}} if threshold else {}
            payload["rows"] = [r.as_dict() for r in rows]
            expected = json.dumps(payload, indent=2) + "\n"
        assert capsys.readouterr().out == expected

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

    def test_memory_error_exits_two(self, disk_files, monkeypatch, capsys):
        # a subdivision whose samples do not fit in memory is a refusal, not a failed verification (exit 1)
        def too_large(subdivision):
            raise MemoryError("Unable to allocate 30.0 GiB for an array with shape (4026531840,) and data type float64")

        monkeypatch.setattr(mesh_module, "_cell_centroids", too_large)
        mesh_path, field_path, _ = disk_files
        assert dispatch(["rearrange", "--mesh", mesh_path, "--field", field_path, "--subdivision", "12"]) == 2
        assert capsys.readouterr() == ("", "psilab: Unable to allocate 30.0 GiB for an array with shape (4026531840,) "
                                           "and data type float64\n")

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
    assert len(public) == 13 and set(public) <= {getattr(psilab, name) for name in psilab.__all__}
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


# each command's valid arguments, then the options that make argparse refuse a float, and an abbreviation
VALID_ARGS = {
    "constants": ["--n", "2"],
    "curvature": ["--mesh", "{mesh}"],
    "rearrange": ["--input", "{samples}"],
    "verify": ["ps", "--mesh", "{mesh}", "--field", "{field}"],
    "counterexample": ["--p", "1.5", "--lambda", "10", "100"],
}
BAD_FLOAT = {"constants": ["--K", "x"], "curvature": None, "rearrange": ["--K", "x"], "verify": ["--p", "x"],
             "counterexample": ["--p", "x"]}  # curvature takes no number: no such case
ABBREVIATED = {"constants": ["--form", "csv"], "curvature": ["--conv", "paper"], "rearrange": ["--interp", "linear"],
               "verify": ["--tol", "0.1"], "counterexample": ["--lam", "5"]}
ROUTED_CASES = {
    "valid": lambda cmd: [cmd] + VALID_ARGS[cmd],
    "help": lambda cmd: [cmd, "-h"],
    "missing-required": lambda cmd: [cmd] + (["ps"] if cmd == "verify" else []),
    "bad-float": lambda cmd: BAD_FLOAT[cmd] and [cmd] + VALID_ARGS[cmd] + BAD_FLOAT[cmd],
    "bad-choice": lambda cmd: [cmd] + VALID_ARGS[cmd] + ["--format", "xml"],
    "unrecognized-extra": lambda cmd: [cmd] + VALID_ARGS[cmd] + ["--bogus", "1"],
    "abbreviated": lambda cmd: [cmd] + VALID_ARGS[cmd] + ABBREVIATED[cmd],
    # only rearrange and verify have two options that "--f" abbreviates
    "ambiguous-abbreviation": lambda cmd: cmd in ("rearrange", "verify") and [cmd] + VALID_ARGS[cmd] + ["--f", "x"],
    # only verify has a positional to put after "--"; for the other commands it leaves a stray word
    "double-dash": lambda cmd: ([cmd] + VALID_ARGS[cmd][1:] + ["--", "ps"]) if cmd == "verify"
    else [cmd] + VALID_ARGS[cmd] + ["--", "stray"],
}
UNROUTED = {"empty": [], "help": ["-h"], "long-help": ["--help"], "unknown-command": ["bogus", "--n", "2"],
            "option-first": ["--n", "2", "constants"], "help-first": ["-h", "constants"],
            "abbreviated-command": ["const", "--n", "2"]}


def _top_level_parse(argv):
    return cli._parsers()[0].parse_args(argv)


class TestDispatchParsesOnce:
    """``dispatch`` parses argv that starts with a command with that command's parser alone; whatever it
    cannot route goes to the top-level parser. Exit code, stdout and stderr must be those of the top-level
    parse every argv went through before."""

    @pytest.fixture
    def argv_files(self, disk_files, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the same width on both routes
        mesh, field, _ = disk_files
        samples = tmp_path / "samples.csv"
        samples.write_text("value,weight\n1.0,0.5\n2.0,0.25\n")
        return dict(mesh=mesh, field=field, samples=str(samples))

    def _both_routes(self, argv, monkeypatch, capsys):
        routed = (dispatch(argv), *capsys.readouterr())
        with monkeypatch.context() as m:
            m.setattr(cli, "_parse", _top_level_parse)
            top_level = (dispatch(argv), *capsys.readouterr())
        return routed, top_level

    @pytest.mark.parametrize("command, case", [(command, case) for case, argv in ROUTED_CASES.items()
                                               for command in VALID_ARGS if argv(command)])
    def test_routed(self, argv_files, monkeypatch, capsys, command, case):
        argv = [word.format(**argv_files) for word in ROUTED_CASES[case](command)]
        routed, top_level = self._both_routes(argv, monkeypatch, capsys)
        assert routed == top_level
        runs = case in ("valid", "help", "abbreviated") or (case, command) == ("double-dash", "verify")
        assert routed[0] == (0 if runs else 2)

    @pytest.mark.parametrize("argv", list(UNROUTED.values()), ids=list(UNROUTED))
    def test_unrouted(self, argv_files, monkeypatch, capsys, argv):
        routed, top_level = self._both_routes(argv, monkeypatch, capsys)
        assert routed == top_level and routed[0] == (0 if argv[:1] in (["-h"], ["--help"]) else 2)

    def test_a_routed_call_runs_one_pass(self, monkeypatch, capsys):
        progs = []
        real = argparse.ArgumentParser.parse_known_args

        def counted(parser, *args, **kwargs):
            progs.append(parser.prog)
            return real(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        assert dispatch(["counterexample", "--p", "1.5", "--lambda", "10"]) == 0
        assert progs == ["psilab counterexample"]
        progs.clear()
        assert dispatch(["constants", "--n", "2", "--bogus"]) == 2  # the extra is refused by the top-level parse
        assert progs == ["psilab constants", "psilab", "psilab constants"]
        progs.clear()
        assert dispatch(["--n", "2", "constants"]) == 2
        assert progs == ["psilab"]
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [["counterexample", "--p", "1.5", "--lambda", "10"], ["-h"]],
                             ids=["counterexample", "help"])
    def test_argv_none_reads_the_command_line(self, monkeypatch, capsys, argv):
        monkeypatch.setenv("COLUMNS", "80")
        src = os.path.dirname(os.path.dirname(psilab.__file__))
        done = subprocess.run([sys.executable, "-m", "psilab.cli", *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (dispatch(argv), *capsys.readouterr())
        monkeypatch.setattr(sys, "argv", ["psilab", *argv])
        assert (dispatch(), *capsys.readouterr()) == (done.returncode, done.stdout, done.stderr)


def test_lambda_whose_square_overflows_is_refused(capsys):
    assert dispatch(["counterexample", "--p", "1.5", "--lambda", "10", "1e160", "--format", "csv"]) == 2
    assert capsys.readouterr() == ("", "psilab: lambda must be at most 1.3407807929942596e+154, where lambda^2 "
                                       "leaves the double range, got 1e+160\n")


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

LAZY_SCIPY = ("scipy.optimize", "scipy.integrate", "scipy.sparse")

# imports psilab.cli in a fresh interpreter under the default warning filter, then dispatches the argv lists of
# argv[1]; prints which LAZY_SCIPY modules the import loaded, then [exit code, stdout, stderr, those loaded
# after] for each dispatch
LOADS_SCRIPT = r"""
import io, json, sys
from psilab import cli

lazy = %r
records = [[name for name in lazy if name in sys.modules]]
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.dispatch(argv)
    finally:
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    records.append([code, out.getvalue(), err.getvalue(), [name for name in lazy if name in sys.modules]])
print(json.dumps(records))
""" % (LAZY_SCIPY,)


def _run_fresh(argvs):
    """LOADS_SCRIPT's records for ``argvs``, in a fresh interpreter with no PYTHONWARNINGS."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(psilab.__file__))
    done = subprocess.run([sys.executable, "-c", LOADS_SCRIPT, json.dumps(argvs)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_scipy_subpackages_load_where_first_needed(capsys):
    # importing the CLI loads scipy.special only; a blowup sweep or threshold never builds a mesh, so never loads
    # scipy.sparse; the constants table loads scipy.optimize for its Bessel zero; no command integrates radially
    argvs = [["counterexample", "--p", "1.5", "--lambda", "2", "10", "--format", "csv"],
             ["counterexample", "--p", "1.5", "--N", "10"],
             ["constants", "--n", "3", "--K", "0.5", "--p", "1.5", "--q", "2"]]
    loaded, *records = _run_fresh(argvs)
    assert loaded == []
    assert [(code, err, "scipy.sparse" in mods) for code, _, err, mods in records[:2]] == [(0, "", False)] * 2
    assert "scipy.optimize" in records[2][3] and "scipy.integrate" not in records[2][3]
    for argv, (code, out, err, _) in zip(argvs, records):  # the same text as in this process
        assert (code, out, err) == (dispatch(argv), *capsys.readouterr())
    assert '"spectral_gap": ' in records[2][1]


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

    def test_a_later_scipy_import_does_not_warn_again(self, odd_meshes):
        # scipy.optimize is first imported by the constants table, after the disconnected mesh has warned; the
        # default filter keeps its once-per-location record, so the kept mesh does not warn a second time
        two_mesh, two_field = odd_meshes[0]
        ps = ["verify", "ps", "--mesh", two_mesh, "--field", two_field, "--p", "1.5"]
        loaded, *records = _run_fresh([ps, ["constants", "--n", "2"], ps])
        assert ["mesh is not connected" in err for _, _, err, _ in records] == [True, False, False]
        assert loaded == []
        assert [(code, mods) for code, _, _, mods in records] == [
            (0, ["scipy.sparse"]), (0, ["scipy.optimize", "scipy.sparse"]), (0, ["scipy.optimize", "scipy.sparse"])]

    def test_each_input_built_once(self, disk_files, no_kept_inputs, monkeypatch, capsys):
        mesh_path, field_path, _ = disk_files
        loads = _counted(monkeypatch, cli, "load_mesh")
        validations = _counted(monkeypatch, TriMesh, "_validate")
        reads = _counted(monkeypatch, mesh_module, "read_table")
        curvatures = _counted(monkeypatch, mesh_module, "_curvature_report")
        draws = _counted(monkeypatch, mesh_module, "sample_field")
        builds = _counted(monkeypatch, mesh_module, "_build_levels")
        for _ in range(2):
            for check, args in NINE_CHECKS:
                for fmt in ("json", "csv"):
                    assert dispatch(["verify", check, "--mesh", mesh_path, "--field", field_path, *args,
                                     "--format", fmt]) == 0
        assert (len(loads), len(validations), len(reads), len(curvatures)) == (1, 1, 1, 1)
        # every field check reads the one distribution function the field keeps, and none draws a sample
        assert (len(draws), len(builds)) == (0, 1)
        capsys.readouterr()

    def test_mono_builds_its_levels_once(self, disk_files, no_kept_inputs, monkeypatch, capsys):
        mesh_path, field_path, _ = disk_files
        draws = _counted(monkeypatch, mesh_module, "sample_field")
        builds = _counted(monkeypatch, mesh_module, "_build_levels")
        for _ in range(2):  # the levels built once, then kept: the hypothesis and the claim read them
            assert dispatch(["verify", "mono", "--mesh", mesh_path, "--field", field_path]) == 0
            assert not json.loads(capsys.readouterr().out)[0]["vacuous"]
            assert (len(draws), len(builds)) == (0, 1)

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

    def test_same_bytes_at_another_path_is_a_hit(self, disk_files, tmp_path, no_kept_inputs, monkeypatch, capsys):
        # the key is the content: a copy with its own path, inode and mtime finds the kept mesh and field
        mesh_path, field_path, _ = disk_files
        copies = []
        for path in (mesh_path, field_path):
            copy = tmp_path / ("copy-" + os.path.basename(path))
            shutil.copyfile(path, copy)
            os.utime(copy, ns=(1, 1))
            copies.append(str(copy))
        loads = _counted(monkeypatch, cli, "load_mesh")
        reads = _counted(monkeypatch, mesh_module, "read_table")
        outputs = []
        for mesh, field in ((mesh_path, field_path), tuple(copies)):
            assert dispatch(["verify", "ms1", "--mesh", mesh, "--field", field]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert (len(loads), len(reads)) == (1, 1)

    def test_same_length_other_last_byte_is_a_miss(self, tmp_path, no_kept_inputs, monkeypatch, capsys):
        # two files that differ only in their last byte, the last index of the one face: each its own mesh
        paths = []
        for last in "23":
            paths.append(tmp_path / f"tri{last}.off")
            paths[-1].write_text(f"OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n0 2 0\n3 0 1 {last}")
        loads = _counted(monkeypatch, cli, "load_mesh")
        areas = []
        for path in paths * 2:
            assert dispatch(["verify", "iso", "--mesh", str(path)]) == 0
            areas.append(json.loads(capsys.readouterr().out)[0]["lhs"] ** 2)
        assert areas == pytest.approx([0.5, 1.0, 0.5, 1.0])
        assert len(loads) == 2  # the first two dispatches miss, the next two hit

    def test_field_rewritten_with_same_length_is_a_miss(self, disk_files, tmp_path, no_kept_inputs, monkeypatch,
                                                        capsys):
        mesh_path, _, _ = disk_files
        nv = len(load_mesh(pathlib.Path(mesh_path).read_text()).vertices)
        field_path = tmp_path / "flat.csv"
        loads = _counted(monkeypatch, cli, "load_mesh")
        reads = _counted(monkeypatch, mesh_module, "read_table")
        sides = []
        for value in (1.0, 2.0):  # "1.0" and "2.0": the same length, other bytes, in place
            field_path.write_text(VertexField(np.full(nv, value)).to_csv())
            assert dispatch(["verify", "ms1", "--mesh", mesh_path, "--field", str(field_path)]) in (0, 1)
            sides.append(json.loads(capsys.readouterr().out)[0]["lhs"])
        assert sides[1] == pytest.approx(2.0 * sides[0])
        assert (len(loads), len(reads)) == (1, 2)  # the mesh is kept, the field built again

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
        kept_mesh, derived = field._derived
        mu = derived["levels"]  # ms1 and model share it
        assert kept_mesh is mesh
        arrays += [mu.levels, mu.atoms, mu.t, mu.dt, mu.mass, mu.log_mu, mu.log_rho]
        assert len(arrays) == 13
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
        (check_arg,) = [a for a in cli._parsers()[1]["verify"]._actions if a.dest == "check"]
        assert list(v.CHECKS) == check_arg.choices == list(VERIFIERS)
        assert {name: check.verifier for name, check in v.CHECKS.items()} == VERIFIERS
        assert set(VERIFIERS.values()) <= set(v.__all__)

    def test_one_reading_option_serves_gn_and_spectral(self):
        # --reading takes its choices from Reading, and both checks that take a reading are given one
        (reading_arg,) = [a for a in cli._parsers()[1]["verify"]._actions if a.dest == "reading"]
        assert reading_arg.choices == [r.value for r in const.Reading]
        for check in ("gn", "spectral"):
            kw = dict(p=1.5, q=1.8, K=0.0, choice=B1, reading="literal", spec="sobolev-l1", tolerance=None)
            v.CHECKS[check].refuse_arguments(kw)
            assert kw["reading"] is const.Reading.LITERAL


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
        # verify takes no subdivision: argparse refuses the option as it refuses any other it does not know
        *[(check, ["--subdivision", "-1"], "error: unrecognized arguments: --subdivision -1")
          for check in CHECK_NAMES if check != "iso"],
        *[(check, ["--p", p], f"p must be a finite number >= 1, got {float(p)}")
          for check in ("ps", "model") for p in ("nan", "0.5")],
        # in the order they are met: the usage, then K, then p, then the tolerance
        ("ps", ["--p", "0.5", "--subdivision", "-1", "--tolerance", "nan"],
         "error: unrecognized arguments: --subdivision -1"),
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
    expected = f"psilab: {message}\n"
    if message.startswith("error: "):  # argparse's own refusal comes after its usage line
        expected = cli._parsers()[0].format_usage() + expected
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize(
    "check, height, args, check_id",
    [
        ("sobolev", 10.0, ["--p", "1.99"], "PSobolev"),  # the L^398 integral overflows: lhs NaN, a false failure
        ("sobolev", 0.01, ["--p", "1.99"], "PSobolev"),  # ... or underflows: lhs 0, a vacuous pass
        ("mono", 10.0, ["--preset", "p-sobolev", "--p", "1.99"], "MonotonicityPrinciple"),
        ("ps", 1000.0, ["--p", "200"], "PolyaSzego"),  # inf <= inf
        ("ps", 0.01, ["--p", "200"], "PolyaSzego"),  # 0 <= 0
    ],
    ids=["sobolev-overflow", "sobolev-underflow", "mono-overflow", "ps-overflow", "ps-underflow"],
)
def test_a_mesh_side_out_of_the_double_range_is_refused(tmp_path, check, height, args, check_id, capsys):
    # a side that is 0, inf or NaN for a nonzero field would pass or fail on rounding; no RuntimeWarning escapes
    disk = analytic.make_disk(1.0, 16)
    (tmp_path / "d16.off").write_text(mesh_to_off(disk))
    hat = boundary_vanishing_field(disk, height * (1.0 - np.linalg.norm(disk.vertices[:, :2], axis=1)))
    (tmp_path / "hat.csv").write_text(hat.to_csv())
    argv = ["verify", check, "--mesh", str(tmp_path / "d16.off"), "--field", str(tmp_path / "hat.csv"), *args]
    assert dispatch(argv) == 2
    assert capsys.readouterr() == ("", f"psilab: {check_id} at n = 2: the mesh lhs leaves the double range\n")


ZERO_FIELD_REFUSALS = {"spectral": "spectral-gap check needs a nonzero field", "logsob": "cannot normalize a zero field"}


@pytest.mark.parametrize("check, args", NINE_CHECKS, ids=CHECK_NAMES)
def test_zero_field_on_every_check(disk_files, tmp_path, check, args, capsys):
    mesh_path, _, _ = disk_files
    zero = tmp_path / "zero.csv"
    zero.write_text("vertex_index,value\n")
    code = dispatch(["verify", check, "--mesh", mesh_path, "--field", str(zero), *args])
    out, err = capsys.readouterr()
    if check in ZERO_FIELD_REFUSALS:
        assert (code, out, err) == (2, "", f"psilab: {ZERO_FIELD_REFUSALS[check]}\n")
    else:
        (report,) = json.loads(out)
        assert (code, err, report["pass"]) == (0, "", True)
        assert check == "iso" or report["lhs"] == report["rhs"] == 0.0


def test_spectral_refuses_a_support_of_area_zero(tmp_path, capsys):
    # the field is positive only on a vertex that no triangle uses
    disk = analytic.make_disk(1.0, 6)
    mesh_path, field_path = tmp_path / "disk.off", tmp_path / "f.csv"
    mesh_path.write_text(mesh_to_off(TriMesh(np.vstack([disk.vertices, [[2.0, 0.0, 0.0]]]), disk.triangles)))
    field_path.write_text(f"vertex_index,value\n{len(disk.vertices)},1.0\n")
    assert dispatch(["verify", "spectral", "--mesh", str(mesh_path), "--field", str(field_path)]) == 2
    assert capsys.readouterr().err == (
        "psilab: spectral-gap check needs a field positive on some triangle; its support area is 0\n"
    )


def test_rearrange_at_n_500(tmp_path, capsys):
    # omega_500 underflows to 0; the radii come from its logarithm
    path = tmp_path / "s.csv"
    path.write_text("value,weight\n1.0,0.5\n0.5,1.5\n")
    assert dispatch(["rearrange", "--input", str(path), "--n", "500"]) == 0
    radii = json.loads(capsys.readouterr().out)["radii"]
    log_omega = 250.0 * math.log(math.pi) - math.lgamma(251.0)
    assert radii == pytest.approx([math.exp((math.log(w) - log_omega) / 500.0) for w in (0.5, 2.0)], rel=1e-14)


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


MESH_COMMANDS = [["curvature"], ["rearrange", "--field", "FIELD"],
                 *[["verify", check, "--field", "FIELD", *args] for check, args in NINE_CHECKS]]


@pytest.mark.parametrize("text", ["OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n", "OFF\n0 0 0\n"], ids=["3-vertices", "none"])
@pytest.mark.parametrize("command", MESH_COMMANDS, ids=["curvature", "rearrange", *CHECK_NAMES])
def test_a_mesh_without_triangles_is_refused(tmp_path, capsys, text, command):
    mesh_path, field_path = tmp_path / "empty.off", tmp_path / "f.csv"
    mesh_path.write_text(text)
    field_path.write_text("vertex_index,value\n")
    argv = [str(field_path) if a == "FIELD" else a for a in command] + ["--mesh", str(mesh_path)]
    assert dispatch(argv) == 2
    assert capsys.readouterr() == ("", "psilab: mesh has no triangles\n")


@pytest.mark.parametrize("x", ["1e155", "1e200"])
@pytest.mark.parametrize("command", [["curvature"], ["verify", "iso", "--K", "0"]], ids=["curvature", "iso"])
def test_a_far_vertex_is_refused(tmp_path, capsys, x, command):
    # the squared edges to the far vertex overflow, so an area would read NaN: a NaN verdict, or a curvature of 0
    mesh = analytic.make_disk(1.0, 4)
    lines = mesh_to_off(mesh).splitlines(keepends=True)
    lines[2] = x + lines[2][lines[2].index(" "):]  # vertex 0's x coordinate
    path = tmp_path / "far.off"
    path.write_text("".join(lines))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(command + ["--mesh", str(path)]) == 2
    assert capsys.readouterr() == ("", "psilab: vertex coordinates span too wide a range: the edge Gram entries or "
                                       "area of triangle [0, 1, 2] leave the double range\n")


@pytest.mark.parametrize("command", [["curvature"], ["verify", "iso", "--K", "0"]], ids=["curvature", "iso"])
def test_a_wide_rectangle_is_refused(tmp_path, capsys, command):
    # each triangle's Gram entries and area are finite, but its two long edges meet at a corner where their
    # squared lengths multiply past the double range: the curvature kernel would read every vertex area NaN
    path = tmp_path / "wide.off"
    path.write_text("OFF\n4 2 0\n0 0 0\n2e77 0 0\n0 1e70 0\n2e77 1e70 0\n3 0 1 2\n3 1 3 2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(command + ["--mesh", str(path)]) == 2
    assert capsys.readouterr() == ("", "psilab: vertex coordinates span too wide a range: the squared edges met at "
                                       "a corner of triangle [0, 1, 2] multiply past the double range\n")


def test_a_tiny_cap_is_refused(tmp_path, capsys):
    # the cap scaled by 1e-77 has triangles below the area the curvature kernel resolves: it read TC 4.3e-5 and
    # failed ps at K = 0.01 (ratio 1.0123), where the unit cap is refused for its total curvature 1.666
    cap = analytic.make_cap(0.5, 8)
    vertices = 1e-77 * cap.vertices
    mesh_path, field_path = tmp_path / "tiny.off", tmp_path / "z.csv"
    mesh_path.write_text(f"OFF\n{len(vertices)} {len(cap.triangles)} 0\n"
                         + "".join(" ".join("%.17g" % x for x in v) + "\n" for v in vertices)
                         + "".join("3 %d %d %d\n" % tuple(t) for t in cap.triangles))
    field_path.write_text(VertexField(vertices[:, 2] - vertices[:, 2].min()).to_csv())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(["verify", "ps", "--p", "2", "--K", "0.01", "--mesh", str(mesh_path),
                         "--field", str(field_path)]) == 2
    assert capsys.readouterr() == ("", "psilab: vertex coordinates are too small: triangle [0, 1, 2] has area "
                                       "7.47e-158, below the 5e-151 the curvature kernel resolves\n")


@st.composite
def small_off_and_field(draw):
    """OFF text of up to 5 vertices and 4 faces, and a field CSV on it, with NaN, inf, negative values and
    indices out of range among their numbers."""
    nv = draw(st.integers(0, 5))
    number = st.one_of(st.integers(-2, 2).map(str), st.sampled_from(["0.5", "nan", "inf", "-1e-300"]))
    vertices = [" ".join(draw(st.lists(number, min_size=3, max_size=3))) for _ in range(nv)]
    faces = draw(st.lists(st.lists(st.integers(-1, nv), min_size=3, max_size=3), max_size=4))
    off = [f"OFF\n{nv} {len(faces)} 0\n", *[v + "\n" for v in vertices], *[f"3 {a} {b} {c}\n" for a, b, c in faces]]
    rows = draw(st.lists(st.tuples(st.integers(-1, nv), number), max_size=4))
    return "".join(off), "vertex_index,value\n" + "".join(f"{i},{value}\n" for i, value in rows)


@settings(max_examples=60, deadline=None)
@given(small_off_and_field())
def test_dispatch_never_raises_on_small_inputs(tmp_path_factory, off_and_field):
    base = tmp_path_factory.getbasetemp()
    mesh_path, field_path, out = base / "random.off", base / "random.csv", str(base / "random.out")
    mesh_path.write_text(off_and_field[0])
    field_path.write_text(off_and_field[1])
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "mesh is not connected")
        for command in MESH_COMMANDS:
            argv = [str(field_path) if a == "FIELD" else a for a in command]
            assert dispatch(argv + ["--mesh", str(mesh_path), "--out", out]) in (0, 1, 2), argv


@pytest.mark.parametrize("fmt", [["--format", "csv"], ["--plot-data"]], ids=["csv", "plot-data"])
def test_counterexample_text_output_ends_with_the_threshold(fmt, capsys):
    assert dispatch(["counterexample", "--p", "1.5", "--lambda", "5", "10", "--N", "3", *fmt]) == 0
    table = sweep_to_csv(sweep(1.5, [5.0, 10.0]))
    if fmt == ["--plot-data"]:
        table = "# " + table.replace(",", " ")
    assert capsys.readouterr().out == table + f"# lambda_bar {find_lambda_bar(3.0, 1.5)!r}\n"
