"""Byte parity of the bulk CSV/JSON writers with the row-by-row writers they replaced.

The reference writers below are the ``csv.writer`` loops and the
``json.dumps(payload, indent=2)`` round trip psilab used before its text
I/O moved onto bulk numpy and C-encoder calls; every output must match
them byte for byte, and every CSV must read back bit for bit. A CSV read
must also leave the warning machinery as it found it.
"""

import csv
import io
import itertools
import json
import math
import os
import threading
import tracemalloc
import warnings
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psilab import analytic
from psilab import cli as cli_module
from psilab import constants as const
from psilab import verify
from psilab._table import _BLOCK, format_table, indented_json, read_table
from psilab.errors import MeshParseError
from psilab.cli import _parsers, dispatch
from psilab.measure_space import (
    DiscreteMeasuredFunction,
    Interpolation,
    RadialProfile,
    lebesgue,
    model_space,
    rearrange,
)
from psilab.mesh import CurvatureReport, TriMesh, VertexField, load_mesh, mean_curvature, sample_field

from conftest import boundary_vanishing_field, mesh_to_off

STEP = Interpolation.RIGHT_CONTINUOUS_STEP
LINEAR = Interpolation.PIECEWISE_LINEAR

# the edge cases of float repr: signed zero, the smallest subnormal, the switch
# to exponent notation at 1e16 and 1e-5, and a 17-digit mantissa
SPECIAL = [-0.0, 5e-324, 1e16, 1e-5, 1.2345678901234567e300]

nonnegative = st.one_of(
    st.sampled_from(SPECIAL + [0.0]), st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
)
positive = st.one_of(
    st.sampled_from(SPECIAL[1:]), st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False)
)
any_float = st.one_of(st.sampled_from(SPECIAL + [float("nan"), float("inf"), -1.5]), st.floats())
# what a flat JSON container holds, with strings that spell the separators and braces the indenting replaces
SCALARS = st.one_of(any_float, st.integers(), st.booleans(), st.none(), st.text(max_size=8),
                    st.sampled_from(["}", "},\n{", ", ", ",\n", "\u00e9{"]))


def reference_rows_csv(header, rows):
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return out.getvalue()


def reference_samples_csv(dmf):
    rows = ([repr(float(v)), repr(float(wt))] for v, wt in zip(dmf.values, dmf.weights))
    return reference_rows_csv(["value", "weight"], rows)


def reference_profile_csv(profile):
    rows = ([repr(float(r)), repr(float(v))] for r, v in zip(profile.radii, profile.values))
    return reference_rows_csv(["radius", "value"], rows)


def reference_field_csv(field):
    return reference_rows_csv(["vertex_index", "value"], ([i, repr(float(v))] for i, v in enumerate(field.values)))


def reference_report_csv(report):
    rows = (
        [i, repr(float(h)), repr(float(a)), int(b)]
        for i, (h, a, b) in enumerate(zip(report.h_norm, report.vertex_areas, report.boundary_mask))
    )
    return reference_rows_csv(["vertex_index", "h_norm", "vertex_area", "is_boundary"], rows)


def reference_summary_csv(reports):
    rows = (
        [r.inequality_id, r.inputs.get("n", ""), r.inputs.get("p", ""), r.inputs.get("q", ""), r.inputs.get("K", ""),
         repr(float(r.lhs)), repr(float(r.rhs)), repr(float(r.ratio)), int(r.passed), r.inputs.get("levels", ""),
         r.inputs.get("merged_levels", "")]
        for r in reports
    )
    header = ["inequality_id", "n", "p", "q", "K", "lhs", "rhs", "ratio", "pass", "levels", "merged_levels"]
    return reference_rows_csv(header, rows)


def reference_curvature_json(report, convention):
    payload = {"total_mean_curvature": report.total, "h_norm": report.h_norm.tolist(),
               "vertex_areas": report.vertex_areas.tolist(), "boundary": report.boundary_mask.astype(int).tolist(),
               "unit_sphere_reference": const.tc_unit_sphere(2, convention)}
    return json.dumps(payload, indent=2)


def reference_table(header, *columns):
    """The "%s" row loop: every cell of an array's ``.tolist()`` or of a list through "%s", a ``None`` as ''."""
    cells = [c.tolist() if isinstance(c, np.ndarray) else ["" if x is None else x for x in c] for c in columns]
    line = ",".join(["%s"] * len(columns)) + "\n"
    return header + "\n" + "".join([line % row for row in zip(*cells)])


def first_difference(got: str, want: str):
    """None if the texts are equal, else the first line they differ on, (1-based number, got's, want's): pytest's
    own diff of two long texts that differ in many lines takes minutes."""
    if got == want:
        return None
    pairs = itertools.zip_longest(got.split("\n"), want.split("\n"))
    return next((k, a, b) for k, (a, b) in enumerate(pairs, start=1) if a != b)


def _nans(bits, dtype):
    return np.array(bits, dtype=f"u{np.dtype(dtype).itemsize}").view(dtype)


# values that spell alike but differ in their bits (signed zeros, NaNs with the sign and payload bits set), the
# edge cases of float repr, and whole numbers and booleans: a few items each, so an array of them repeats a lot
POOLS = {
    "float64": np.concatenate([[-0.0, 0.0, math.inf, -math.inf, 5e-324, 1e16, 1e-5, 0.1, -2.5],
                               _nans([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                                      0xFFFFFFFFFFFFFFFF], np.float64)]),
    "float32": np.concatenate([np.array([-0.0, 0.0, math.inf, -math.inf, 1e-45, 1e16, 1e-5, 0.1, -2.5], np.float32),
                               _nans([0x7FC00000, 0xFFC00000, 0x7FC00001, 0xFFFFFFFF], np.float32)]),
    "int64": np.array([0, -1, 7, 2**63 - 1, -(2**63)], dtype=np.int64),
    "bool": np.array([False, True]),
}
# short arrays, and lengths around the writers' block
LENGTHS = st.one_of(st.integers(0, 40), st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1]))


def _drawn(kind, length, seed):
    return np.random.default_rng(seed).choice(POOLS[kind], length)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestWritersMatchTheRowLoops:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(nonnegative, positive), min_size=1, max_size=40))
    def test_samples(self, rows):
        dmf = DiscreteMeasuredFunction.from_samples(rows)
        text = dmf.to_csv()
        assert text == reference_samples_csv(dmf)
        back = DiscreteMeasuredFunction.from_csv(text)
        assert same_bits(back.values, dmf.values) and same_bits(back.weights, dmf.weights)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(nonnegative, min_size=1, max_size=40), st.sampled_from([STEP, LINEAR]))
    def test_profile(self, xs, interpolation):
        radii = np.unique(xs)
        profile = RadialProfile(lebesgue(2), radii, radii[::-1], interpolation)
        text = profile.to_csv()
        assert text == reference_profile_csv(profile)
        back = RadialProfile.from_csv(text, lebesgue(2), interpolation)
        assert same_bits(back.radii, profile.radii) and same_bits(back.values, profile.values)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_vertex_field(self, data):
        mesh = analytic.make_disk(1.0, 3)
        values = data.draw(st.lists(nonnegative, min_size=len(mesh.vertices), max_size=len(mesh.vertices)))
        field = VertexField(values)
        text = field.to_csv()
        assert text == reference_field_csv(field)
        assert same_bits(VertexField.from_csv(text, mesh).values, field.values)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(any_float, any_float, st.booleans()), max_size=40))
    def test_curvature_report(self, rows):
        h, a, b = (np.array([row[k] for row in rows], dtype=t) for k, t in enumerate((float, float, bool)))
        report = CurvatureReport(h, a, b, total=0.0)  # to_csv does not write the total
        assert report.to_csv() == reference_report_csv(report)

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.text(max_size=8),
            st.one_of(any_float, st.integers(), st.lists(any_float, max_size=6), st.lists(st.integers(), max_size=6)),
            min_size=1,
            max_size=5,
        )
    )
    def test_indented_json(self, payload):
        assert indented_json(payload) == json.dumps(payload, indent=2)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(list(POOLS)), st.sampled_from(list(POOLS)), LENGTHS, st.integers(0, 2**32 - 1))
    @example("float64", "int64", _BLOCK - 1, 0)
    @example("float32", "bool", _BLOCK, 1)
    @example("float64", "float64", _BLOCK + 1, 2)
    def test_array_columns(self, first, second, length, seed):
        a, b = _drawn(first, length, seed), _drawn(second, length, seed + 1)
        listed = _drawn("float64", length, seed + 2).tolist()
        listed[::5] = [None] * len(listed[::5])
        columns = a, b[::-1], listed  # a reversed view: items told apart by bits need no contiguous array
        assert first_difference(format_table("a,b,c", *columns), reference_table("a,b,c", *columns)) is None

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(list(POOLS)), LENGTHS, st.integers(0, 2**32 - 1))
    @example("float64", _BLOCK - 1, 0)
    @example("int64", _BLOCK, 1)
    @example("float32", _BLOCK + 1, 2)
    @example("bool", 0, 3)
    def test_indented_json_of_arrays(self, kind, length, seed):
        values = _drawn(kind, length, seed)
        payload = {"values": values, "scalar": 1.5, "reversed": values[::-1]}
        listed = {key: value.tolist() if isinstance(value, np.ndarray) else value for key, value in payload.items()}
        assert first_difference(indented_json(payload), json.dumps(listed, indent=2)) is None

    def test_a_long_table_peaks_below_the_row_loop(self):
        # a block at a time: only one block's cells exist at once, never the whole columns' texts
        radii = np.cumsum(np.random.default_rng(7).random(100_000))
        profile = RadialProfile(lebesgue(2), radii, radii[::-1].copy(), STEP)

        def peak(write):
            tracemalloc.start()
            try:
                text = write()
                return tracemalloc.get_traced_memory()[1], text
            finally:
                tracemalloc.stop()

        got, text = peak(profile.to_csv)
        want, reference = peak(lambda: reference_table("radius,value", profile.radii, profile.values))
        assert first_difference(text, reference) is None and got <= want

    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(
            st.text(max_size=8),
            st.one_of(
                SCALARS,
                st.lists(SCALARS, max_size=6),
                st.dictionaries(st.text(max_size=8), SCALARS, max_size=6),
                st.lists(st.dictionaries(st.text(max_size=8), SCALARS, min_size=1, max_size=6), max_size=4),
            ),
            max_size=5,
        )
    )
    def test_indented_json_of_dicts_and_lists_of_dicts(self, payload):
        assert indented_json(payload) == json.dumps(payload, indent=2)


B1, MS = const.brendle(1), const.IsoperimetricChoice()
# (mesh, the curvature bound K its checks take): a flat disk, and a cap whose total mean curvature is 2.007
SUMMARY_MESHES = {"disk": (analytic.make_disk(1.0, 8), 0.0), "cap": (analytic.make_cap(0.6, rings=10), 2.1)}


def _nine_checks(mesh, K):
    """The reports of the nine checks; ``logsob`` only on a minimal surface, as it refuses any other."""
    f = boundary_vanishing_field(mesh, 1.0 - np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1]))
    reports = [
        verify.verify_polya_szego(mesh, f, 2.0, K, B1),
        verify.verify_model_space_ps(mesh, f, 1.5, K, B1),
        *verify.verify_isoperimetric(mesh, K, B1),
        verify.verify_p_sobolev(mesh, f, 1.5, K, B1),
        verify.verify_gn(mesh, f, 1.5, 2.5, K, B1),
        verify.verify_spectral_gap(mesh, f, K, B1, const.Reading.LITERAL),
        verify.verify_michael_simon_p1(mesh, f, MS),
        verify.verify_monotonicity_principle(mesh, f, verify.monotone_preset("p-sobolev", p=1.5), K, B1),
    ]
    return reports + ([verify.verify_log_sobolev(mesh, f, 1.5)] if K == 0.0 else [])


class TestSummaryMatchesTheRowLoop:
    @pytest.mark.parametrize("name", list(SUMMARY_MESHES))
    def test_nine_checks(self, name):
        reports = _nine_checks(*SUMMARY_MESHES[name])
        assert len(reports) == 9 - (name == "cap")
        assert verify.reports_to_csv(reports) == reference_summary_csv(reports)

    def test_radial_reports(self):
        reports = [analytic.verify_radial_gn(analytic.gn_extremal(2, 1.5, 2.5), 1.5, 2.5),
                   analytic.verify_radial_log_sobolev(analytic.logsobolev_extremal(2, 1.5, 1.0), 1.5)]
        assert verify.reports_to_csv(reports) == reference_summary_csv(reports)

    def test_regions(self):
        mesh, _ = SUMMARY_MESHES["disk"]
        half = len(mesh.triangles) // 2
        regions = [np.arange(half), np.arange(half, len(mesh.triangles)), np.arange(len(mesh.triangles))]
        reports = verify.verify_isoperimetric(mesh, 0.0, B1, regions)
        assert len(reports) == 3
        assert verify.reports_to_csv(reports) == reference_summary_csv(reports)

    def test_no_reports(self):
        assert verify.reports_to_csv([]) == reference_summary_csv([]) == \
               "inequality_id,n,p,q,K,lhs,rhs,ratio,pass,levels,merged_levels\n"


class TestFormatTable:
    def test_none_in_a_list_is_an_empty_cell(self):
        assert format_table("a,b,c", ["x", None], [None, 1.5], [0, None]) == "a,b,c\nx,,0\n,1.5,\n"

    def test_numpy_scalars_in_a_list_are_their_str(self):
        cells = [np.float64(0.1), np.float32(1.5), np.int64(-3), np.bool_(True)]
        assert format_table("a,b", cells, np.array([1e16, -0.0, 5e-324, 2.5])) == \
               "a,b\n0.1,1e+16\n1.5,-0.0\n-3,5e-324\nTrue,2.5\n"

    def test_lists_and_arrays_write_alike(self):
        values = np.array(SPECIAL + [math.nan, math.inf, 0.1])
        assert format_table("v,i", values, np.arange(len(values))) == \
               format_table("v,i", values.tolist(), list(range(len(values))))


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("parity")
    paths = {}
    for name, mesh in (("disk", analytic.make_disk(1.0, 12)), ("cap", analytic.make_cap(0.6, rings=10))):
        r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        field = boundary_vanishing_field(mesh, 1.0 - r)
        (base / f"{name}.off").write_text(mesh_to_off(mesh))
        (base / f"{name}.csv").write_text(field.to_csv())
        paths[name] = (str(base / f"{name}.off"), str(base / f"{name}.csv"))
    rng = np.random.default_rng(5)
    values = np.concatenate([SPECIAL, np.round(rng.gamma(2.0, 1.0, 300), 9), np.zeros(5)])
    weights = np.concatenate([np.full(len(SPECIAL), 1e-3), rng.uniform(0.5, 1.5, 305) * 1e-3])
    lines = [f"{v!r},{w!r}\n" for v, w in zip(values.tolist(), weights.tolist())]
    (base / "samples.csv").write_text("value,weight\n" + "".join(lines[:100]) + "\n" + "".join(lines[100:]))
    # a rotated icosphere, and a torus in R^4 of more vertices than the writers' block
    for name, mesh in (("sphere", analytic.make_sphere(4)),
                       ("torus", analytic.make_clifford_torus(math.isqrt(_BLOCK) + 2))):
        rotation, _ = np.linalg.qr(rng.standard_normal((mesh.d, mesh.d)))
        (base / f"{name}.off").write_text(mesh_to_off(TriMesh(mesh.vertices @ rotation, mesh.triangles)))
        paths[name] = (str(base / f"{name}.off"), None)
    # a step profile of more knots than the writers' block
    values = np.concatenate([SPECIAL, np.round(rng.gamma(2.0, 1.0, _BLOCK + 2000), 6), np.zeros(5)])
    weights = rng.uniform(0.5, 1.5, len(values)) * 1e-3
    lines = [f"{v!r},{w!r}\n" for v, w in zip(values.tolist(), weights.tolist())]
    (base / "many-samples.csv").write_text("value,weight\n" + "".join(lines))
    paths["samples"], paths["many-samples"] = str(base / "samples.csv"), str(base / "many-samples.csv")
    return base, paths


def run_cli(base, argv):
    out = base / "out.txt"
    assert dispatch(argv + ["--out", str(out)]) == 0
    return out.read_text()


class TestCliOutputsMatchTheRowLoops:
    @pytest.mark.parametrize("name", ["disk", "cap", "sphere", "torus"])
    @pytest.mark.parametrize("convention", ["trace", "paper"])
    def test_curvature(self, cli_inputs, name, convention):
        base, paths = cli_inputs
        mesh_path, _ = paths[name]
        report = mean_curvature(load_mesh(Path(mesh_path).read_text()))
        conv = const.TcConvention.PAPER_FORMULA if convention == "paper" else const.TcConvention.TRACE_DERIVED
        argv = ["curvature", "--mesh", mesh_path, "--convention", convention]
        assert first_difference(run_cli(base, argv), reference_curvature_json(report, conv)) is None
        assert first_difference(run_cli(base, argv + ["--format", "csv"]), reference_report_csv(report)) is None

    @pytest.mark.parametrize("name", ["disk", "cap", "samples", "many-samples"])
    @pytest.mark.parametrize("interp", ["step", "linear"])
    def test_rearrange(self, cli_inputs, name, interp):
        base, paths = cli_inputs
        interpolation = STEP if interp == "step" else LINEAR
        if name.endswith("samples"):
            argv = ["rearrange", "--input", paths[name]]
            dmf = DiscreteMeasuredFunction.from_csv(Path(paths[name]).read_text())
            target = lebesgue(2)
        else:
            mesh_path, field_path = paths[name]
            argv = ["rearrange", "--mesh", mesh_path, "--field", field_path, "--target", "model", "--K", "0.5"]
            mesh = load_mesh(Path(mesh_path).read_text())
            dmf = sample_field(mesh, VertexField.from_csv(Path(field_path).read_text(), mesh), 2)
            target = model_space(2, 0.5, const.brendle(1).value(2))
        profile = rearrange(dmf, target, interpolation)
        if (name, interp) == ("many-samples", "step"):
            assert len(profile.radii) > _BLOCK  # a linear profile is resampled at fewer knots
        argv += ["--interpolation", interp]
        assert first_difference(run_cli(base, argv + ["--format", "csv"]), reference_profile_csv(profile)) is None
        want = {
            "target": {"kind": "lebesgue", "n": 2} if name.endswith("samples")
            else {"kind": "model", "n": 2, "K": 0.5, "C": 0.28209479177387814},
            "interpolation": interp,
            "radii": profile.radii.tolist(),
            "values": profile.values.tolist(),
        }
        assert run_cli(base, argv) == json.dumps(want)


class TestParserBuiltOnce:
    def test_options_do_not_leak_between_calls(self, capsys):
        assert _parsers() is _parsers()
        assert dispatch(["counterexample", "--p", "1.5", "--lambda", "5", "20", "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("lambda,p,")
        assert dispatch(["counterexample", "--p", "1.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [row["lambda"] for row in out["rows"]] == [10.0]
        assert "lambda_bar" not in out

    def test_usage_errors_still_exit_2(self, capsys):
        assert dispatch(["constants", "--n", "2", "--format", "csv"]) == 0
        assert dispatch(["constants"]) == 2
        assert dispatch(["constants", "--n", "2", "--format", "xml"]) == 2
        capsys.readouterr()
        assert dispatch(["constants", "--n", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["PS"] == 1.0


TRIANGLE = TriMesh(np.eye(3), np.array([[0, 1, 2]]))


class TestReadingLeavesWarningsAlone:
    """A CSV read issues no warning and leaves the warning filters alone: changing them, even
    inside ``catch_warnings``, makes every module forget the warnings it has shown."""

    @pytest.mark.parametrize(
        "read",
        [
            lambda: VertexField.from_csv("vertex_index,value\n0,1.0\n", TRIANGLE),
            lambda: DiscreteMeasuredFunction.from_csv("value,weight\n1.0,0.5\n"),
        ],
        ids=["field", "samples"],
    )
    def test_a_warning_shown_before_a_read_is_not_shown_again(self, read):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for _ in range(2):
                warnings.warn("shown once")
                read()
        assert [str(w.message) for w in caught] == ["shown once"]

    @pytest.mark.parametrize(
        "text, rows",
        [("value,weight\n", 0), ("value,weight\n\n\n", 0), ("value,weight\n\n\n1.0,0.5\n\n", 1)],
        ids=["header-only", "blank-only", "blank-lines-first"],
    )
    def test_empty_and_blank_bodies(self, text, rows):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for source in (text, io.StringIO(text), io.BytesIO(text.encode())):
                values, weights = read_table(source, "value,weight")
                assert values.dtype == weights.dtype == np.float64 and len(values) == len(weights) == rows

    @pytest.mark.parametrize(
        "text, line, bad",
        [("value,weight\n1.0,0.5\n\n\nabc,1\n", 5, "abc,1"), ("value,weight\n  \n1.0,0.5\n", 2, "")],
        ids=["after-blank-lines", "whitespace-is-not-blank"],
    )
    def test_bad_line_named_without_a_warning(self, text, line, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for source in (text, io.StringIO(text), io.BytesIO(text.encode())):
                with pytest.raises(ValueError, match=f"^line {line}: expected value,weight numbers, got '{bad}'$"):
                    read_table(source, "value,weight")


ROWS = "".join(f"{k * 0.001!r},{1.0 + k}\n" for k in range(20000))  # well past numpy's and io's read chunks
TABLES = {
    "wrong-header": b"val,weight\n1.0,0.5\n",
    "header-only": b"value,weight\n",
    "blank-lines": b"value,weight\n\n\n1.0,0.5\n\n2.0,0.25\n\n",
    "whitespace-line": b"value,weight\n1.0,0.5\n  \n2.0,0.25\n",
    "short-row": b"value,weight\n1.0,0.5\n2.0\n",
    "non-number": b"value,weight\n1.0,0.5\nabc,1\n",
    "nan": b"value,weight\nnan,0.5\n1.0,0.5\n",
    "non-utf8": b"value,weight\n1.0,0.5\n\xff,1\n",
    "crlf": b"Value,Weight,extra\r\n\r\n1.0,0.5,x\r\n2.0,0.25,y\r\n",
    "long": ("value,weight\n\n" + ROWS).encode(),
    "long-bad-row": ("value,weight\n" + ROWS + "1.0,x\n" + ROWS).encode(),
    "long-non-utf8": ("value,weight\n" + ROWS).encode() + b"1.0,\xe9\n" + ROWS.encode(),
}


def _outcome(call):
    """(the arrays' dtypes and bytes) of what ``call`` returns, or (the type and message) of what it raises."""
    try:
        return [(a.dtype, a.tobytes()) for a in call()]
    except (ValueError, OSError) as exc:
        return type(exc), str(exc)


class TestPathReadsMatchStreams:
    """numpy reads a table given by path with its chunked reader; the header check, the empty-table rule and
    the line-numbered errors must be those of the stream of the same file."""

    @pytest.mark.parametrize("name", list(TABLES) + ["missing"])
    @pytest.mark.parametrize("header, dtypes", [("value,weight", (float, float)), ("value,weight", (np.int64, float))],
                             ids=["floats", "ints"])
    def test_read_table(self, tmp_path, name, header, dtypes):
        path = tmp_path / f"{name}.csv"
        if name != "missing":
            path.write_bytes(TABLES[name])

        def by_stream():
            with open(path) as fh:
                return read_table(fh, header, dtypes)

        want = _outcome(by_stream)
        assert _outcome(lambda: read_table(path, header, dtypes)) == want
        if name in ("long", "crlf") and dtypes[0] is float:
            assert len(want) == 2 and len(want[0][1]) == 8 * (20000 if name == "long" else 2)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "lone-cr"])
    def test_every_source_reads_every_line_end(self, tmp_path, newline):
        text = newline.join(["value,weight", "", "1.0,0.5", "", "2.0,0.25", ""])
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        with open(path) as opened, open(path, "rb") as raw:
            sources = [path, text, text.encode(), io.BytesIO(text.encode()), io.StringIO(text),
                       io.StringIO(text, newline=""), opened, raw]
            for source in sources:
                values, weights = read_table(source, "value,weight")
                assert same_bits(values, [1.0, 2.0]) and same_bits(weights, [0.5, 0.25]), source

    def test_a_pipe_is_read_once(self, tmp_path):
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(TABLES["long"],))
        writer.start()
        try:
            values, weights = read_table(fifo, "value,weight")
        finally:
            writer.join()
        assert same_bits(values, [k * 0.001 for k in range(20000)]) and same_bits(weights, np.arange(1.0, 20001.0))

    @pytest.mark.parametrize("name", list(TABLES) + ["missing"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_rearrange_cli(self, tmp_path, capsys, name, fmt):
        samples, out = tmp_path / "s.csv", tmp_path / "out"
        if name != "missing":
            samples.write_bytes(TABLES[name])
        code = dispatch(["rearrange", "--input", str(samples), "--format", fmt, "--out", str(out)])
        err = capsys.readouterr().err
        try:
            with open(samples) as fh:
                profile = rearrange(DiscreteMeasuredFunction.from_csv(fh), lebesgue(2), STEP)
        except (ValueError, OSError) as exc:
            assert (code, err, out.exists()) == (2, f"psilab: {exc}\n", False)
        else:
            assert (code, err) == (0, "")
            assert out.read_text() == (profile.to_json() if fmt == "json" else profile.to_csv())

    @pytest.mark.parametrize("name", list(TABLES) + ["missing"])
    def test_rearrange_mesh_field_cli(self, tmp_path, capsys, name):
        mesh = analytic.make_disk(1.0, 6)
        mesh_path, field_path, out = tmp_path / "m.off", tmp_path / "f.csv", tmp_path / "out"
        mesh_path.write_text(mesh_to_off(mesh))
        if name != "missing":  # the field table: the same bytes under its own header, indices where they fit
            text = TABLES[name].replace(b"value,weight", b"vertex_index,value").replace(b"Value,Weight", b"vertex_index,value")
            field_path.write_bytes(text.replace(b"1.0,", b"1,").replace(b"2.0,", b"2,"))
        code = dispatch(["rearrange", "--mesh", str(mesh_path), "--field", str(field_path), "--out", str(out)])
        err = capsys.readouterr().err
        try:
            with open(field_path) as fh:
                profile = rearrange(sample_field(mesh, VertexField.from_csv(fh, mesh), 2), lebesgue(2), STEP)
        except (ValueError, OSError) as exc:
            assert (code, err, out.exists()) == (2, f"psilab: {exc}\n", False)
        else:
            assert (code, err) == (0, "")
            assert out.read_text() == profile.to_json()

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "lone-cr"])
    def test_verify_reads_every_line_end(self, tmp_path, capsys, monkeypatch, newline):
        # verify parses the bytes it read and kept; a CRLF or lone-CR mesh and field give the report of their
        # LF twins, as a path or a text stream of the same files would
        monkeypatch.setattr(cli_module, "_kept_meshes", OrderedDict())
        mesh = analytic.make_disk(1.0, 8)
        field = boundary_vanishing_field(mesh, 1.0 - np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1]))
        reports = []
        for name, end in (("lf", "\n"), ("other", newline)):
            (tmp_path / name).mkdir()
            mesh_path, field_path = tmp_path / name / "m.off", tmp_path / name / "f.csv"
            mesh_path.write_text(mesh_to_off(mesh), newline=end)
            field_path.write_text(field.to_csv(), newline=end)
            assert dispatch(["verify", "ps", "--mesh", str(mesh_path), "--field", str(field_path)]) == 0
            reports.append(capsys.readouterr())
        assert reports[1] == reports[0] and reports[0].err == ""
        assert len(cli_module._kept_meshes) == 2  # two files of different bytes, each parsed


DECODE_PROBLEM = "'utf-8' codec can't decode byte 0xe9: invalid continuation byte"


def _bad_byte_on(text: str, line: int) -> bytes:
    """``text`` as UTF-8 with byte 0xe9 put at the start of its 1-based ``line``, before an ASCII byte."""
    lines = text.encode().split(b"\n")
    lines[line - 1] = b"\xe9" + lines[line - 1]
    return b"\n".join(lines)


class TestUndecodableBytesNameTheirLine:
    """A byte that does not decode is refused (exit 2) naming its 1-based file line, as every other CSV and OFF
    refusal does, on each route: a path, a stream, a pipe and the kept bytes of ``verify``. Lines past the
    first read chunks of io and numpy count from the file's start, not from the chunk's."""

    SAMPLES = "value,weight\n" + ROWS[: ROWS.index("\n", 60000) + 1]  # about 3,000 rows, 60 kB

    @pytest.fixture(scope="class")
    def disk(self):
        mesh = analytic.make_disk(1.0, 12)
        return mesh, mesh_to_off(mesh), VertexField(np.linspace(0.0, 1.0, len(mesh.vertices))).to_csv()

    @pytest.mark.parametrize("line", [1, 2, 1501, 2999])
    def test_input(self, tmp_path, capsys, line):
        samples = tmp_path / "s.csv"
        samples.write_bytes(_bad_byte_on(self.SAMPLES, line))
        assert dispatch(["rearrange", "--input", str(samples), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", f"psilab: line {line}: {DECODE_PROBLEM}\n")

    @pytest.mark.parametrize("line", [1, 3, -1])
    @pytest.mark.parametrize("command", [["rearrange"], ["verify", "ps"]])
    def test_field(self, tmp_path, capsys, monkeypatch, disk, command, line):
        monkeypatch.setattr(cli_module, "_kept_meshes", OrderedDict())
        _, off, field = disk
        line = line if line > 0 else field.count("\n")  # -1: the last row
        mesh_path, field_path = tmp_path / "m.off", tmp_path / "f.csv"
        mesh_path.write_text(off)
        field_path.write_bytes(_bad_byte_on(field, line))
        assert dispatch(command + ["--mesh", str(mesh_path), "--field", str(field_path)]) == 2
        assert capsys.readouterr() == ("", f"psilab: line {line}: {DECODE_PROBLEM}\n")

    @pytest.mark.parametrize("line", [1, 5, -1])
    @pytest.mark.parametrize("command", [["curvature"], ["verify", "iso"], ["rearrange", "--field", "f.csv"]])
    def test_mesh(self, tmp_path, capsys, monkeypatch, disk, command, line):
        monkeypatch.setattr(cli_module, "_kept_meshes", OrderedDict())
        monkeypatch.chdir(tmp_path)
        _, off, field = disk
        line = line if line > 0 else off.count("\n")  # -1: the last face
        Path("m.off").write_bytes(_bad_byte_on(off, line))
        Path("f.csv").write_text(field)
        assert dispatch(command + ["--mesh", "m.off"]) == 2
        assert capsys.readouterr() == ("", f"psilab: line {line}: {DECODE_PROBLEM}\n")

    @pytest.mark.parametrize("line", [1, 1501, 2999])
    def test_every_table_source(self, tmp_path, line):
        data = _bad_byte_on(self.SAMPLES, line)
        path = tmp_path / "s.csv"
        path.write_bytes(data)
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,))
        writer.start()
        try:
            with pytest.raises(ValueError, match=f"^line {line}: {DECODE_PROBLEM}$"):
                read_table(fifo, "value,weight")
        finally:
            writer.join()
        with open(path) as text, open(path, "rb") as raw:
            for source in (path, data, io.BytesIO(data), text, raw, io.TextIOWrapper(io.BytesIO(data))):
                with pytest.raises(ValueError, match=f"^line {line}: {DECODE_PROBLEM}$"):
                    read_table(source, "value,weight")

    @pytest.mark.parametrize("line", [1, 5, -1])
    def test_every_mesh_source(self, tmp_path, disk, line):
        _, off, _ = disk
        line = line if line > 0 else off.count("\n")
        data = _bad_byte_on(off, line)
        path = tmp_path / "m.off"
        path.write_bytes(data)
        with open(path) as text, open(path, "rb") as raw:
            for source in (data, io.BytesIO(data), text, raw, io.TextIOWrapper(io.BytesIO(data))):
                with pytest.raises(MeshParseError, match=f"^line {line}: {DECODE_PROBLEM}$") as refused:
                    load_mesh(source)
                assert refused.value.line == line
