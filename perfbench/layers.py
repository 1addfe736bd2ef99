"""Per-layer metrics of the traced run, derived from the recorded spans.

Each metric is named ``<module>.<function>.<stat>``. Times are self times
(span duration minus its child spans) summed over the traced jobs and
divided by their number, so they read as seconds per job; ``calls`` is
calls per job; ``calls_per_job`` is calls per job that made any; sizes are
means per call. ``expectations.json`` says which end-to-end metric and
workload each one should move.
"""

from __future__ import annotations

from statistics import fmean

from tracer import MODULES

VERIFY = {
    "ps": "verify_polya_szego", "model": "verify_model_space_ps", "iso": "verify_isoperimetric",
    "sobolev": "verify_p_sobolev", "gn": "verify_gn", "spectral": "verify_spectral_gap",
    "logsob": "verify_log_sobolev", "ms1": "verify_michael_simon_p1", "mono": "verify_monotonicity_principle",
}

# metric stem -> the span names it covers
GROUPS = {
    "cli.dispatch": ["cli.dispatch"],
    "mesh.load_mesh": ["mesh.load_mesh"],
    "mesh.TriMesh.init": ["mesh.TriMesh.__init__"],
    # boundary_edges is the recomputation; boundary_vertices and is_closed call it
    "mesh.boundary_vertices": ["mesh.TriMesh.boundary_vertices", "mesh.TriMesh.boundary_edges", "mesh.TriMesh.is_closed"],
    "mesh.mean_curvature": ["mesh.mean_curvature"],
    "mesh.boundary_measure": ["mesh.boundary_measure"],
    "mesh.VertexField.from_csv": ["mesh.VertexField.from_csv"],
    "mesh.sample_field": ["mesh.sample_field"],
    "mesh.p1_gradient_lp": ["mesh.p1_gradient_lp"],
    "mesh.report_serialize": ["mesh.CurvatureReport.to_json", "mesh.CurvatureReport.to_csv"],
    "measure_space.from_csv": ["measure_space.DiscreteMeasuredFunction.from_csv",
                               "measure_space.DiscreteMeasuredFunction.from_samples"],
    "measure_space.profile_serialize": ["measure_space.RadialProfile.to_json", "measure_space.RadialProfile.to_csv"],
    "measure_space.rearrange": ["measure_space.rearrange"],
    "measure_space.lp_norm": ["measure_space.lp_norm"],
    "measure_space.gradient_energy": ["measure_space.gradient_energy"],
    **{f"verify.{k}": [f"verify.{fn}"] for k, fn in VERIFY.items()},
    "analytic.example51_gradient_integrals": ["analytic.example51_gradient_integrals"],
    "analytic.example51_surface_lp": ["analytic.example51_surface_lp"],
    "analytic.make_sphere": ["analytic.make_sphere"],
    "counterexample.sweep": ["counterexample.sweep"],
    "counterexample.find_lambda_bar": ["counterexample.find_lambda_bar"],
}

# (metric, unit); every one is "better": "lower"
METRICS = [
    ("cli.dispatch.self_s", "s"), ("cli.output_bytes", "bytes"),
    ("mesh.load_mesh.self_s", "s"), ("mesh.load_mesh.input_bytes", "bytes"),
    ("mesh.TriMesh.init.self_s", "s"), ("mesh.TriMesh.init.calls", "count"), ("mesh.TriMesh.triangles", "count"),
    ("mesh.boundary_vertices.self_s", "s"), ("mesh.boundary_vertices.calls_per_job", "count"),
    ("mesh.mean_curvature.self_s", "s"), ("mesh.mean_curvature.calls_per_job", "count"),
    ("mesh.boundary_measure.self_s", "s"),
    ("mesh.VertexField.from_csv.self_s", "s"),
    ("mesh.sample_field.self_s", "s"), ("mesh.sample_field.samples", "count"),
    ("mesh.p1_gradient_lp.self_s", "s"), ("mesh.p1_gradient_lp.calls", "count"),
    ("mesh.report_serialize.self_s", "s"),
    ("measure_space.from_csv.self_s", "s"), ("measure_space.profile_serialize.self_s", "s"),
    ("measure_space.rearrange.self_s", "s"), ("measure_space.rearrange.samples", "count"),
    ("measure_space.rearrange.knots", "count"),
    ("measure_space.lp_norm.self_s", "s"), ("measure_space.gradient_energy.self_s", "s"),
    *[(f"verify.{k}.{stat}", unit) for k in VERIFY for stat, unit in (("self_s", "s"), ("calls", "count"))],
    ("analytic.example51_gradient_integrals.self_s", "s"), ("analytic.example51_gradient_integrals.calls", "count"),
    ("analytic.example51_surface_lp.self_s", "s"), ("analytic.example51_surface_lp.calls", "count"),
    ("analytic.make_sphere.self_s", "s"),
    ("counterexample.sweep.self_s", "s"), ("counterexample.find_lambda_bar.self_s", "s"),
    ("counterexample.find_lambda_bar.evals", "count"),
    ("constants.self_s", "s"), ("constants.calls", "count"),
    ("special_fn.self_s", "s"), ("special_fn.calls", "count"),
    *[(f"{m}.errors", "count") for m in MODULES],
    ("trace.overhead_s", "s"),
]


def compute(stats, under, errors, traced_jobs, overhead_s):
    """All METRICS from Tracer.summarize() output and the traced job records."""
    njobs = max(len(traced_jobs), 1)

    def agg(names, key):
        return sum(stats[n][key] for n in names if n in stats)

    def sizes(name, pick=lambda s: s):
        vals = [pick(s) for s in stats[name]["sizes"]] if name in stats else []
        return fmean(vals) if vals else 0.0

    out = {}
    for stem, names in GROUPS.items():
        out[f"{stem}.self_s"] = agg(names, "self_s") / njobs
        out[f"{stem}.calls"] = agg(names, "calls") / njobs
    for module in ("constants", "special_fn"):
        names = [n for n in stats if n.startswith(module + ".")]
        out[f"{module}.self_s"] = agg(names, "self_s") / njobs
        out[f"{module}.calls"] = agg(names, "calls") / njobs
    for stem in ("mesh.mean_curvature",):
        jobs = stats.get(stem, {}).get("jobs", ())
        out[f"{stem}.calls_per_job"] = agg([stem], "calls") / max(len(jobs), 1)
    edges = "mesh.TriMesh.boundary_edges"
    out["mesh.boundary_vertices.calls_per_job"] = (
        stats[edges]["calls"] / len(stats[edges]["jobs"]) if edges in stats else 0.0
    )
    out["mesh.load_mesh.input_bytes"] = sizes("mesh.load_mesh")
    out["mesh.TriMesh.triangles"] = sizes("mesh.TriMesh.__init__")
    out["mesh.sample_field.samples"] = sizes("mesh.sample_field")
    out["measure_space.rearrange.samples"] = sizes("measure_space.rearrange", lambda s: s[0])
    out["measure_space.rearrange.knots"] = sizes("measure_space.rearrange", lambda s: s[1])
    searches = stats.get("counterexample.find_lambda_bar", {}).get("calls", 0)
    evals = under.get("counterexample.find_lambda_bar", {}).get("analytic.example51_gradient_integrals", 0)
    out["counterexample.find_lambda_bar.evals"] = evals / searches if searches else 0.0
    out["cli.output_bytes"] = fmean(j["output_bytes"] for j in traced_jobs) if traced_jobs else 0.0
    for m in MODULES:
        out[f"{m}.errors"] = errors.get(m, 0) / njobs
    out["trace.overhead_s"] = overhead_s
    return {name: {"value": float(out[name]), "unit": unit} for name, unit in METRICS}
