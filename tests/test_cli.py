import json
import math

import numpy as np
import pytest

from psilab import analytic
from psilab.cli import dispatch
from psilab.mesh import VertexField

from conftest import boundary_vanishing_field, mesh_to_off


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
        # an absurdly tight tolerance turns the discretization margin into a failure
        mesh_path, field_path, _ = disk_files
        code = dispatch(
            [
                "verify", "ps", "--mesh", mesh_path, "--field", field_path,
                "--p", "2", "--tolerance", "-0.5",
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

    def test_iso_needs_no_field(self, disk_files, capsys):
        mesh_path, _, _ = disk_files
        assert dispatch(["verify", "iso", "--mesh", mesh_path]) == 0


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

    def test_csv_and_jobs_env(self, monkeypatch, capsys):
        monkeypatch.setenv("PSILAB_JOBS", "2")
        code = dispatch(["counterexample", "--p", "1.5", "--lambda", "5", "10", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("lambda,p,")
        assert len(lines) == 3

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
