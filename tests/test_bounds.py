import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from bayeslb.bounds import (BoundReport, fano, lb_diff_entropy,
                            lb_info_density, lb_mi_smallball, mi_ub_cutset,
                            mi_ub_interactive, mi_ub_multi_iid, mi_ub_single)
from bayeslb.info import (DiscreteChannel, DiscreteDistribution, DistortionSpec,
                          DistributionError, InfoDensityDistribution, JointPMF,
                          PriorSpec, bsc, information_density, small_ball)
from bayeslb.sdpi import eta_bsc, eta_numeric

import oracles

INV_2E = 0.18393972058572116  # 1/(2e)


def uniform01_smallball(rho: float) -> float:
    return min(2.0 * rho, 1.0)


# ---------------------------------------------------------------------------
# small-ball and information-density lower bounds


def test_mi_smallball_against_dense_grid():
    report = lb_mi_smallball(1.0, uniform01_smallball)
    oracle = oracles.grid_mi_smallball(1.0, uniform01_smallball)
    assert report.value >= oracle - 1e-12
    assert report.value <= oracle * (1.0 + 1e-3)
    assert report.arguments["branch"] == "direct"
    assert 0.0 < report.arguments["rho"] < 0.5


def test_mi_smallball_zero_information_still_positive():
    report = lb_mi_smallball(0.0, uniform01_smallball)
    assert report.value > 0.0


@given(st.floats(min_value=0.0, max_value=6.0))
@settings(max_examples=60, deadline=None)
def test_mi_smallball_nonincreasing_in_information(mi):
    lo = lb_mi_smallball(mi, uniform01_smallball).value
    hi = lb_mi_smallball(mi + 0.25, uniform01_smallball).value
    assert hi <= lo + 1e-12


def _toy_density() -> InfoDensityDistribution:
    return InfoDensityDistribution(values=np.array([-2.0, 0.5, 1.0, 3.0]),
                                   probs=np.array([0.1, 0.3, 0.4, 0.2]))


def test_info_density_bound_matches_dense_scan():
    density = _toy_density()
    gammas = np.geomspace(1e-3, 1e3, 200)
    report = lb_info_density(density, uniform01_smallball, gamma_grid=gammas)
    p_below = np.array([density.prob_below(math.log2(g)) for g in gammas])
    rhos = np.geomspace(1e-9, 1.0, 20000)
    # rho * (p_below - gamma * L(rho)) on the whole grid, L = uniform01_smallball
    scan = gammas[:, None] * np.minimum(2.0 * rhos, 1.0)
    np.subtract(p_below[:, None], scan, out=scan)
    scan *= rhos
    best = max(0.0, float(scan.max()))
    assert report.value >= best - 1e-12
    assert report.value <= best + 1e-6


def _seeded_density(k: int) -> InfoDensityDistribution:
    rng = np.random.default_rng([k, 5])
    mu = DiscreteDistribution(rng.dirichlet(np.ones(k)))
    channel = DiscreteChannel(rng.dirichlet(np.ones(k), size=k))
    return information_density(JointPMF.from_input_channel(mu, channel))


def _gaussian_smallball(rho: float) -> float:
    return small_ball(PriorSpec.gaussian(0.3), rho, DistortionSpec("absolute"))


@pytest.mark.parametrize("k", [2, 4, 8, 16])
@pytest.mark.parametrize("inf_ratio", [None, 0.2])
def test_info_density_matches_the_per_threshold_loop(k, inf_ratio):
    density = _seeded_density(k)
    for gamma_grid, smallball in ((None, uniform01_smallball),
                                  (np.geomspace(0.05, 40.0, 37), _gaussian_smallball)):
        report = lb_info_density(density, smallball, gamma_grid, inf_ratio)
        value, rho, gamma = oracles.info_density_exhaustive(
            density.prob_below, smallball, gamma_grid, inf_ratio)
        assert not report.clamped
        assert report.value.hex() == value.hex()
        assert (report.arguments["rho"].hex(), report.arguments["gamma"].hex()) \
            == (rho.hex(), gamma.hex())


def test_info_density_refines_a_threshold_whose_grid_peak_is_lower():
    # L is flat just below a jump that falls between grid radii, so golden
    # section lifts the second threshold's grid peak ~7% past the first's
    rhos = np.geomspace(1e-6, 1.0, 200)
    jump1, jump2 = rhos[100] * (1 + 1e-9), rhos[150] * (1 - 1e-5)

    def smallball(rho):
        return 0.01 if rho < jump1 else (0.02 if rho < jump2 else 1.0)

    p_low = 0.02 + 0.97 * 0.4 * rhos[100] / rhos[149]
    density = InfoDensityDistribution(values=[-1.0, 1.0], probs=[p_low, 1.0 - p_low])

    report = lb_info_density(density, smallball, gamma_grid=[60.0, 1.0])
    value, rho, gamma = oracles.info_density_exhaustive(density.prob_below, smallball,
                                                        [60.0, 1.0])
    assert (report.value, report.arguments) == (value, {"rho": rho, "gamma": 1.0})
    assert gamma == 1.0


def test_info_density_refuses_a_decreasing_smallball():
    with pytest.raises(DistributionError, match="decreases"):
        lb_info_density(_toy_density(), lambda rho: 0.5 if rho < 1e-3 else 0.4)


def test_info_density_ratio_floor_only_helps():
    density = _toy_density()
    base = lb_info_density(density, uniform01_smallball)
    strong = lb_info_density(density, uniform01_smallball, inf_ratio=0.2)
    assert strong.value >= base.value - 1e-15


# ---------------------------------------------------------------------------
# differential-entropy lower bound


def test_diff_entropy_scalar_constant():
    assert_allclose(lb_diff_entropy(0.0, 0.0).value, INV_2E, rtol=1e-15)


def test_diff_entropy_halves_per_bit():
    v1 = lb_diff_entropy(1.0, 0.0).value
    assert_allclose(v1, INV_2E / 2.0, rtol=1e-15)


def test_diff_entropy_dimension_and_exponent():
    # d = r makes the exponent one; the constant folds the ball volume
    report = lb_diff_entropy(1.0, 0.5, d=2, r=2.0)
    const = (2.0 / (2.0 * math.e)) * (math.pi * math.gamma(2.0)) ** (-1.0)
    assert_allclose(report.value, const * 2.0 ** (-0.5), rtol=1e-13)


@given(st.floats(min_value=0.0, max_value=3.0),
       st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=100, deadline=None)
def test_diff_entropy_depends_only_on_gap(shift, mi, h):
    a = lb_diff_entropy(mi, h).value
    b = lb_diff_entropy(mi + shift, h + shift).value
    assert_allclose(a, b, rtol=1e-9)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 64, 170, 171, 400, 1000])
@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 5.0])
def test_diff_entropy_constant_matches_mpmath(d, r):
    # V_d and Gamma(1 + d/r) overflow a double past d ~ 170; their
    # combination does not
    report = lb_diff_entropy(0.0, 0.0, d=d, r=r)
    want = oracles.diff_entropy_constant_mp(d, r)
    assert_allclose(report.arguments["constant"], want, rtol=1e-13)
    assert_allclose(report.value, want, rtol=1e-13)


def test_diff_entropy_rejects_bad_dimension():
    with pytest.raises(DistributionError):
        lb_diff_entropy(1.0, 0.0, d=0)


@pytest.mark.parametrize("h, message", [(5000.0, "float range"),
                                        (math.inf, "float range"),
                                        (math.nan, "undefined")])
def test_diff_entropy_non_finite_floor_raises(h, message):
    with pytest.raises(DistributionError, match=message):
        lb_diff_entropy(0.0, h)


# ---------------------------------------------------------------------------
# Fano family


def test_fano_classic_values():
    assert_allclose(fano(0.5, 4).value, 0.25, rtol=1e-15)
    report = fano(3.0, 4)
    assert (report.kind, report.value, report.clamped) == ("fano-classic", 0.0, True)
    assert report.arguments["raw"] == pytest.approx(-1.0)
    with pytest.raises(DistributionError):
        fano(1.0, 1)


@pytest.mark.parametrize("mi", [math.nan, -1.0, -math.inf])
def test_fano_refuses_a_nan_or_negative_information(mi):
    with pytest.raises(DistributionError, match="must be >= 0"):
        fano(mi, 4)


# ---------------------------------------------------------------------------
# information budgets


def test_mi_ub_single_bookkeeping():
    report = mi_ub_single(2.0, 1.5, 3.0, 0.5, 2, 0.9, 0.8)
    assert_allclose(report.arguments["terms"]["source"], 1.6, rtol=1e-15)
    assert_allclose(report.arguments["terms"]["bits"], 1.08, rtol=1e-15)
    assert_allclose(report.arguments["terms"]["capacity"], 0.9, rtol=1e-15)
    assert report.arguments["active"] == "capacity"
    assert_allclose(report.value, 0.9, rtol=1e-15)
    assert_allclose(report.arguments["odpi"], 1.0, rtol=1e-15)


@given(st.floats(min_value=0.0, max_value=5.0),
       st.floats(min_value=0.0, max_value=5.0),
       st.floats(min_value=0.0, max_value=5.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=1, max_value=8),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=150, deadline=None)
def test_mi_ub_single_never_exceeds_odpi(i_wx, h_x, b, cap, T, es, eu):
    report = mi_ub_single(i_wx, h_x, b, cap, T, es, eu)
    assert report.value <= report.arguments["odpi"] + 1e-12


def test_mi_ub_multi_default_group_contraction():
    report = mi_ub_multi_iid(4.0, 1.0, 1.0, 3, 2.0, 0.5, 2, 0.4)
    assert_allclose(report.inputs["eta_uses_mT"], 1.0 - 0.6 ** 3, rtol=1e-15)
    joint = 4.0 * (1.0 - 0.6 ** 3)
    split = 3 * 1.0 * 0.4
    assert_allclose(report.arguments["terms"]["source"], min(joint, split),
                    rtol=1e-15)


def test_mi_ub_multi_explicit_group_contraction():
    report = mi_ub_multi_iid(4.0, 1.0, 1.0, 3, 2.0, 0.5, 2, 0.4,
                             eta_uses_mT=0.5)
    assert_allclose(report.arguments["terms"]["source"], min(2.0, 1.2),
                    rtol=1e-15)


def test_mi_ub_cutset_empty_outside_is_zero():
    report = mi_ub_cutset(2.0, 0.9, 0, 3.0, 0.5, 2, 0.7)
    assert report.value == 0.0
    assert report.arguments["active"] == "empty"


def test_mi_ub_cutset_colocated_and_noiseless():
    base = mi_ub_cutset(2.0, 0.5, 2, 3.0, 0.5, 2, 0.7)
    co = mi_ub_cutset(2.0, 0.5, 2, 3.0, 0.5, 2, 0.7, colocated=True, m=5)
    assert_allclose(co.arguments["terms"]["bits"], 0.5 * 5 * 3.0 * 0.7,
                    rtol=1e-15)
    assert_allclose(base.arguments["terms"]["bits"], 0.5 * 2 * 3.0 * 0.7,
                    rtol=1e-15)
    nl = mi_ub_cutset(2.0, 0.5, 2, 3.0, 0.5, 2, 0.7, noiseless=True)
    assert "capacity" not in nl.arguments["terms"]
    assert_allclose(nl.arguments["terms"]["bits"], 0.5 * 2 * 3.0, rtol=1e-15)


def test_mi_ub_interactive():
    report = mi_ub_interactive(0.5, 3, 4, 2.0, 10.0)
    assert_allclose(report.arguments["terms"]["bits"], (1 - 0.125) * 8.0,
                    rtol=1e-15)
    zero_rounds = mi_ub_interactive(0.5, 0, 4, 2.0, 10.0)
    assert zero_rounds.arguments["terms"]["bits"] == 0.0
    assert zero_rounds.value == 0.0


# each budget with its contraction arguments as keywords, the rest fixed
BUDGETS = {
    "single": lambda eta_stat=0.9, eta_uses=0.8: mi_ub_single(
        2.0, 1.5, 3.0, 0.5, 2, eta_stat, eta_uses),
    "multi-iid": lambda eta_stat=1.0, eta_uses_T=0.4, eta_uses_mT=None:
        mi_ub_multi_iid(4.0, 1.0, eta_stat, 3, 2.0, 0.5, 2, eta_uses_T,
                        eta_uses_mT),
    "cutset": lambda eta_s=0.5, eta_uses=0.7: mi_ub_cutset(
        2.0, eta_s, 2, 3.0, 0.5, 2, eta_uses),
}


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_budgets_refuse_a_numeric_lower_estimate(name):
    budget = BUDGETS[name]
    lower = eta_numeric(np.array([0.5, 0.5]), bsc(0.2))
    exact = eta_bsc(0.2)
    for arg in inspect.signature(budget).parameters:
        # an exact estimate and its bare value build the same budget
        assert budget(**{arg: exact}).value == \
            budget(**{arg: exact.value}).value
        with pytest.raises(DistributionError, match="numeric lower estimate"):
            budget(**{arg: lower})


@pytest.mark.parametrize("report", [
    mi_ub_single(math.inf, math.inf, math.inf, math.inf, 1, 1.0, 0.0),
    mi_ub_single(1.0, math.inf, math.inf, math.inf, 1, 0.0, 1.0),
    mi_ub_multi_iid(math.inf, math.inf, 0.0, 1, math.inf, math.inf, 1, 0.0),
    mi_ub_cutset(math.inf, 0.0, 2, math.inf, math.inf, 1, 1.0),
    mi_ub_interactive(1.0, 3, 1, math.inf, math.inf),
], ids=["single-uses", "single-stat", "multi-iid", "cutset", "interactive"])
def test_zero_contraction_term_is_zero_next_to_unset_budgets(report):
    # 0 * inf would be NaN; a zero contraction passes nothing
    assert report.value == 0.0
    assert not any(math.isnan(v) for v in report.arguments["terms"].values())


@pytest.mark.parametrize("call", [
    lambda: mi_ub_single(math.nan, 1.0, 1.0, 1.0, 1, 1.0, 1.0),
    lambda: mi_ub_single(1.0, math.inf, math.nan, 1.0, 1, 1.0, 1.0),
    lambda: mi_ub_multi_iid(1.0, math.nan, 1.0, 2, 1.0, 1.0, 1, 0.5),
    lambda: mi_ub_cutset(math.nan, 0.5, 2, 1.0, 1.0, 1, 0.5),
    lambda: mi_ub_interactive(0.5, 1, 1, 1.0, math.nan),
    lambda: mi_ub_interactive(1.0, 1, 1, math.nan, 1.0),
], ids=["single", "single-bits", "multi-iid", "cutset", "interactive",
        "interactive-zero-contraction"])
def test_budgets_refuse_a_nan_term(call):
    with pytest.raises(DistributionError, match="is NaN"):
        call()


@given(st.integers(min_value=1, max_value=6),
       st.floats(min_value=0.5, max_value=8.0),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=100, deadline=None)
def test_mi_ub_multi_monotone_in_resources(m, b, T):
    base = mi_ub_multi_iid(3.0, 1.0, 0.9, m, b, 0.5, T, 0.4).value
    more_b = mi_ub_multi_iid(3.0, 1.0, 0.9, m, b + 1.0, 0.5, T, 0.4).value
    more_T = mi_ub_multi_iid(3.0, 1.0, 0.9, m, b, 0.5, T + 1, 0.4).value
    assert more_b >= base - 1e-12
    assert more_T >= base - 1e-12


def test_bound_report_defaults():
    report = BoundReport(0.5, "test-kind")
    assert not report.clamped and not report.asymptotic and not report.infeasible
    assert report.arguments == {} and report.inputs == {}
