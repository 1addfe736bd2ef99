"""Each hypothesis of the inequalities has one owner: every entry point that checks it refuses a bad value
with the same message.

The hypotheses are the curvature bound 0 <= K < 1/C, the range 1 < p < n, the Gagliardo-Nirenberg range
p < q <= p(n-1)/(n-p), the dimension n (a whole number, >= 2, or >= 1 where only a unit ball is taken), Brendle's
codimension m >= 1 and the blowup parameter lambda >= 1 (finite).
"""

import json
import math

import numpy as np
import pytest

from psilab import analytic, counterexample
from psilab import constants as const
from psilab import verify as v
from psilab.errors import CurvatureBoundViolated
from psilab.measure_space import RadialProfile, lebesgue, model_space
from psilab.mesh import VertexField
from psilab.special_fn import log_unit_ball_volume

from conftest import boundary_vanishing_field

B1 = const.brendle(1)
INV_C = 1.0 / B1.value(2)
DISK = analytic.make_disk(1.0, 8)
HAT = boundary_vanishing_field(DISK, 1.0 - np.linalg.norm(DISK.vertices[:, :2], axis=1))
SPHERE = analytic.make_sphere(1)


def _refuse(check, **given):
    """``CHECKS[check].refuse_arguments`` on the CLI's default arguments with ``given`` in their place."""
    kw = dict(p=1.5, q=2.5, K=0.0, choice=B1, reading="corrected", spec="sobolev-l1", tolerance=None)
    kw.update(given)
    v.CHECKS[check].refuse_arguments(kw)


def _ids(entries):
    return [name for name, _ in entries]


K_ENTRIES = [
    ("iso_constant", lambda K: const.iso_constant(2, K, B1)),
    ("ps_constant", lambda K: const.ps_constant(2, K, B1)),
    ("spectral_gap_constant", lambda K: const.spectral_gap_constant(2, K, B1)),
    ("asymptotic_ratio", lambda K: const.asymptotic_ratio(2, K)),
    ("build_constants_table", lambda K: const.build_constants_table(2, K, B1)),
    ("model_space", lambda K: model_space(2, K, B1.value(2))),
    ("verify_polya_szego", lambda K: v.verify_polya_szego(DISK, HAT, 1.5, K, B1)),
    ("verify_model_space_ps", lambda K: v.verify_model_space_ps(DISK, HAT, 1.5, K, B1)),
    ("verify_isoperimetric", lambda K: v.verify_isoperimetric(DISK, K, B1)),
    ("verify_p_sobolev", lambda K: v.verify_p_sobolev(DISK, HAT, 1.5, K, B1)),
    ("verify_gn", lambda K: v.verify_gn(DISK, HAT, 1.5, 2.5, K, B1)),
    ("verify_spectral_gap", lambda K: v.verify_spectral_gap(DISK, HAT, K, B1)),
    ("verify_monotonicity_principle",
     lambda K: v.verify_monotonicity_principle(DISK, HAT, v.monotone_preset("sobolev-l1"), K, B1)),
    *[(f"CHECKS[{c}]", lambda K, c=c: _refuse(c, K=K)) for c in ("ps", "model", "iso", "sobolev", "gn", "spectral")],
    ("CHECKS[mono]", lambda K: _refuse("mono", K=K, spec="p-sobolev")),
]


@pytest.mark.parametrize("K", [math.nan, -1.0, INV_C, 5.0, math.inf])
@pytest.mark.parametrize("entry", [e for _, e in K_ENTRIES], ids=_ids(K_ENTRIES))
def test_curvature_bound(entry, K):
    with pytest.raises(CurvatureBoundViolated) as caught:
        entry(K)
    assert str(caught.value) == f"K = {K} is not in [0, 1/C) with 1/C = {INV_C}"


P_ENTRIES = [
    ("talenti_constant", lambda p: const.talenti_constant(2, p)),
    ("log_sobolev_constant", lambda p: const.log_sobolev_constant(2, p)),
    ("gn_theta", lambda p: const.gn_theta(2, p, 2.5)),
    ("egn_constant", lambda p: const.egn_constant(2, p, 2.5)),
    ("gn_extremal", lambda p: analytic.gn_extremal(2, p, 2.5)),
    ("logsobolev_extremal", lambda p: analytic.logsobolev_extremal(2, p, 1.0)),
    ("monotone_preset", lambda p: v.monotone_preset("p-sobolev", 2, p)),
    ("verify_p_sobolev", lambda p: v.verify_p_sobolev(DISK, HAT, p, 0.0, B1)),
    ("verify_gn", lambda p: v.verify_gn(DISK, HAT, p, 2.5, 0.0, B1)),
    ("verify_log_sobolev", lambda p: v.verify_log_sobolev(DISK, HAT, p)),
    ("verify_log_sobolev-radial",
     lambda p: analytic.verify_radial_log_sobolev(analytic.logsobolev_extremal(2, 1.5, 1.0), p)),
    *[(f"CHECKS[{c}]", lambda p, c=c: _refuse(c, p=p)) for c in ("sobolev", "gn", "logsob")],
    ("CHECKS[mono]", lambda p: _refuse("mono", p=p, spec="p-sobolev")),
]


@pytest.mark.parametrize("p", [math.nan, 0.5, 1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("entry", [e for _, e in P_ENTRIES], ids=_ids(P_ENTRIES))
def test_p_range(entry, p):
    with pytest.raises(ValueError) as caught:
        entry(p)
    assert str(caught.value) == f"requires 1 < p < n, got p = {p}, n = 2"


GN_ENTRIES = [
    ("gn_beta", lambda q: const._gn_exponents(2, 1.5, q)[2]),  # beta's one spelling, beside theta and r
    ("gn_theta", lambda q: const.gn_theta(2, 1.5, q)),
    ("gn_r_exponent", lambda q: const.gn_r_exponent(2, 1.5, q)),
    ("egn_constant", lambda q: const.egn_constant(2, 1.5, q)),
    ("gn_extremal", lambda q: analytic.gn_extremal(2, 1.5, q)),
    ("select_egn_reading", lambda q: analytic.select_egn_reading(2, 1.5, q)),
    ("verify_gn", lambda q: v.verify_gn(DISK, HAT, 1.5, q, 0.0, B1)),
    ("CHECKS[gn]", lambda q: _refuse("gn", q=q)),
]


@pytest.mark.parametrize("q", [math.nan, 1.0, 1.5, 3.1, 9.0, math.inf])
@pytest.mark.parametrize("entry", [e for _, e in GN_ENTRIES], ids=_ids(GN_ENTRIES))
def test_gn_range(entry, q):
    with pytest.raises(ValueError) as caught:
        entry(q)
    assert str(caught.value) == f"requires p < q <= p(n-1)/(n-p) = 3.0, got q = {q}"


def test_gn_extremal_refuses_q_above_q_max():
    with pytest.raises(ValueError, match=r"requires p < q <= p\(n-1\)/\(n-p\) = 3.0, got q = 9.0"):
        analytic.gn_extremal(2, 1.5, 9.0)
    assert analytic.gn_extremal(2, 1.5, 3.0).n == 2  # q_max itself is in range


N_ENTRIES = [
    ("ic_upper_bound", lambda n: const.ic_upper_bound(n)),
    ("brendle_constant", lambda n: const.brendle_constant(n, 1)),
    ("brendle_constant-m3", lambda n: const.brendle_constant(n, 3)),
    ("michael_simon-value", lambda n: const.IsoperimetricChoice().value(n)),
    ("brendle-euclidean_product", lambda n: B1.euclidean_product(n)),
    ("asymptotic_ratio", lambda n: const.asymptotic_ratio(n, 0.0)),
    ("tc_unit_sphere-trace", lambda n: const.tc_unit_sphere(n)),
    ("tc_unit_sphere-paper", lambda n: const.tc_unit_sphere(n, const.TcConvention.PAPER_FORMULA)),
    ("iso_constant", lambda n: const.iso_constant(n, 0.0, B1)),
    ("spectral_gap_constant", lambda n: const.spectral_gap_constant(n, 0.0, B1)),
    ("build_constants_table", lambda n: const.build_constants_table(n, 0.0, B1, 1.5, 1.8)),
    ("talenti_constant", lambda n: const.talenti_constant(n, 1.5)),
    ("log_sobolev_constant", lambda n: const.log_sobolev_constant(n, 1.5)),
    ("gn_beta", lambda n: const._gn_exponents(n, 1.5, 1.8)[2]),
    ("gn_theta", lambda n: const.gn_theta(n, 1.5, 1.8)),
    ("gn_r_exponent", lambda n: const.gn_r_exponent(n, 1.5, 1.8)),
    ("egn_constant", lambda n: const.egn_constant(n, 1.5, 1.8)),
    ("sobolev_conjugate", lambda n: const.sobolev_conjugate(n, 1.5)),
    ("gn_extremal", lambda n: analytic.gn_extremal(n, 1.5, 1.8)),
    ("logsobolev_extremal", lambda n: analytic.logsobolev_extremal(n, 1.5, 1.0)),
    ("monotone_preset", lambda n: v.monotone_preset("sobolev-l1", n)),
    ("monotone_preset-p-sobolev", lambda n: v.monotone_preset("p-sobolev", n, 1.5)),
    ("model_space", lambda n: model_space(n, 0.0, 1.0)),
    ("from_json", lambda n: RadialProfile.from_json(json.dumps(
        {"target": {"kind": "model", "n": n, "K": 0.0, "C": 1.0}, "interpolation": "step", "radii": [1.0],
         "values": [1.0]}))),
]


@pytest.mark.parametrize("n", [1, 0, -1, -2])
@pytest.mark.parametrize("entry", [e for _, e in N_ENTRIES], ids=_ids(N_ENTRIES))
def test_dimension_at_least_two(entry, n):
    with pytest.raises(ValueError) as caught:
        entry(n)
    assert str(caught.value) == f"dimension must be >= 2, got {n}"


M_ENTRIES = [
    ("brendle", const.brendle),
    ("IsoperimetricChoice", const.IsoperimetricChoice),
    ("brendle_constant", lambda m: const.brendle_constant(2, m)),
    ("cli-iso", lambda m: const.IsoperimetricChoice.from_label(f"brendle:{m}")),
]


@pytest.mark.parametrize("m", [0, -1])
@pytest.mark.parametrize("entry", [e for _, e in M_ENTRIES], ids=_ids(M_ENTRIES))
def test_codimension_at_least_one(entry, m):
    with pytest.raises(ValueError) as caught:
        entry(m)
    assert str(caught.value) == "Brendle choice requires codimension m >= 1"


BALL_ENTRIES = [
    ("unit_ball_volume", lambda n: math.exp(log_unit_ball_volume(n))),  # omega_n's one spelling
    ("log_unit_ball_volume", log_unit_ball_volume),
    ("lebesgue", lebesgue),
]


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("entry", [e for _, e in BALL_ENTRIES], ids=_ids(BALL_ENTRIES))
def test_ball_dimension(entry, n):
    with pytest.raises(ValueError) as caught:
        entry(n)
    assert str(caught.value) == f"dimension must be >= 1, got {n}"


# the whole-number rule holds wherever n enters, for the unit ball and for the submanifold alike
DIMENSION_ENTRIES = N_ENTRIES + BALL_ENTRIES
NUMPY_ENTRIES = [(name, entry) for name, entry in DIMENSION_ENTRIES if name != "from_json"]  # JSON has neither


@pytest.mark.parametrize("n", [2.5, math.nan, math.inf])
@pytest.mark.parametrize("entry", [e for _, e in DIMENSION_ENTRIES], ids=_ids(DIMENSION_ENTRIES))
def test_ball_dimension_is_a_whole_number(entry, n):
    with pytest.raises(ValueError) as caught:
        entry(n)
    assert str(caught.value) == f"dimension must be a whole number, got {n}"


@pytest.mark.parametrize("n", [True, np.True_])
@pytest.mark.parametrize("entry", [e for _, e in NUMPY_ENTRIES], ids=_ids(NUMPY_ENTRIES))
def test_ball_dimension_is_not_a_bool(entry, n):
    # True == 1 and True % 1 == 0, so a bool passes both other rules; JSON's true is refused by from_json
    with pytest.raises(ValueError) as caught:
        entry(n)
    assert str(caught.value) == "dimension must be a whole number, got True"


def _comparable(result):
    """``result``, or for a preset or a radial function (whose callables compare by identity) their values."""
    if isinstance(result, v.MonotoneSpec):
        return [result.f(0.5), result.phi(0.5), result.L(0.5, 0.25), result.lam(0.5, 0.25), result.psi_terms]
    if isinstance(result, analytic.RadialFunction):
        return [result.n, result.value(0.5), result.derivative(0.5), result.support]
    return result


@pytest.mark.parametrize("entry", [e for _, e in NUMPY_ENTRIES], ids=_ids(NUMPY_ENTRIES))
def test_ball_dimension_takes_a_numpy_integer(entry):
    assert _comparable(entry(np.int64(3))) == _comparable(entry(3))


LAMBDA_ENTRIES = [
    ("example51_field", lambda lam: analytic.example51_field(lam, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])),
    ("example51_field-point", lambda lam: analytic.example51_field(lam, [0.0, 0.0, 1.0])),
    ("example51_field-array", lambda lam: analytic.example51_field([10.0, lam], [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])),
    ("example51_field-array-point", lambda lam: analytic.example51_field([lam, 2.0], [0.0, 0.0, 1.0])),
    ("example51_vertex_field", lambda lam: VertexField(analytic.example51_field(lam, SPHERE.vertices))),
    ("example51_profile", analytic.example51_profile),
    ("example51_surface_lp", lambda lam: analytic.example51_surface_lp(lam, 1.5)),
    ("example51_gradient_integrals", lambda lam: analytic.example51_gradient_integrals(lam, 1.5)),
    ("example51_gradient_integrals-array", lambda lam: analytic.example51_gradient_integrals([10.0, lam], 1.5)),
    ("asymptotic_check", lambda lam: counterexample.asymptotic_check(1.5, lam)),
    ("sweep", lambda lam: counterexample.sweep(1.5, [2.0, lam, 3.0])),
    ("sweep-mesh-check", lambda lam: counterexample.sweep(1.5, [2.0, lam], mesh_check=True, subdiv=0)),
]


@pytest.mark.parametrize("lam", [math.nan, math.inf, 0.5, -math.inf])
@pytest.mark.parametrize("entry", [e for _, e in LAMBDA_ENTRIES], ids=_ids(LAMBDA_ENTRIES))
def test_blowup_parameter(entry, lam):
    with pytest.raises(ValueError) as caught:
        entry(lam)
    assert str(caught.value) == f"lambda must be a finite number >= 1, got {lam}"
