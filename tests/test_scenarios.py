import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bayeslb.bounds import lb_diff_entropy
from bayeslb.info import DistributionError, binary_entropy, neyman_pearson_beta
from bayeslb.scenarios import (CONCENTRATION_DELTA, ScenarioSpec,
                               _ball_mass_exceeds, _noncentrality_root,
                               bern_uniform_conditional_mi, bern_uniform_mi,
                               feedback_zero_rate_exponent, fig2_data,
                               fig34_data, random_coding_exponent,
                               scenario_bern_bsc, scenario_bern_uniform,
                               scenario_bsc_bit, scenario_dglm_decentralized,
                               scenario_gauss_ball, scenario_gauss_gauss,
                               scenario_hide_seek, scenario_hypercube,
                               scenario_minimax_cube, scenario_noisy_ceo,
                               scenario_xor)

import oracles


def test_scenario_spec_validation():
    with pytest.raises(DistributionError):
        ScenarioSpec(tag="x", n=0)
    with pytest.raises(DistributionError):
        ScenarioSpec(tag="x", eps=0.6)
    with pytest.raises(DistributionError):
        ScenarioSpec(tag="x", delta=1.5)
    with pytest.raises(DistributionError):
        ScenarioSpec(tag="x", var_noise=0.0)


@pytest.mark.parametrize("field, value", [
    ("eta_uses", 1.5), ("eta_uses", -0.1), ("eta_uses", math.nan),
    ("capacity", -2.0), ("capacity", math.nan), ("total_bits", -50.0),
    ("total_bits", -1e-9), ("total_uses", -1)])
def test_scenario_spec_rejects_channel_overrides_out_of_range(field, value):
    with pytest.raises(DistributionError):
        ScenarioSpec(tag="x", **{field: value})
    with pytest.raises(DistributionError):
        ScenarioSpec(tag="x", r=0.5)


@pytest.mark.parametrize("field, value", [
    ("b", math.inf), ("r", math.nan), ("radius", math.inf),
    ("total_bits", math.nan), ("var_w", math.nan), ("var_noise", math.inf),
    ("eps", math.nan), ("delta", math.nan), ("p", math.nan), ("n", math.inf)])
def test_scenario_spec_rejects_non_finite_fields(field, value):
    with pytest.raises(DistributionError, match=f"{field} must be finite"):
        ScenarioSpec(tag="x", **{field: value})


# ---------------------------------------------------------------------------
# Gaussian location, single processor


GG_LOWER = {1: 0.055389182840797376, 10: 0.023618026920019772,
            100: 0.0077943386102804492}
GG_MMAE = {1: 0.56418958354775629, 10: 0.24057124674551033,
           100: 0.079392481149321438}


@pytest.mark.parametrize("n", [1, 10, 100])
def test_gauss_gauss_frozen_values(n):
    report = scenario_gauss_gauss(ScenarioSpec(tag="gauss-gauss", n=n))
    assert_allclose(report.lower_bounds["corollary"].value, GG_LOWER[n],
                    rtol=1e-13)
    assert_allclose(report.upper_bounds["posterior_mean"],
                    math.sqrt(1.0 / (1.0 + n)), rtol=1e-14)
    assert_allclose(report.derived["mmae_exact"], GG_MMAE[n], rtol=1e-13)
    # posterior-mean absolute risk is sigma_post sqrt(2/pi)
    assert_allclose(report.derived["mmae_exact"],
                    oracles.mmae_gauss(math.sqrt(1.0 / (1.0 + n))), rtol=1e-13)


def test_gauss_gauss_sandwich_order():
    report = scenario_gauss_gauss(ScenarioSpec(tag="gauss-gauss", n=10))
    assert report.lower_bounds["corollary"].value \
        <= report.derived["mmae_exact"] \
        <= report.upper_bounds["posterior_mean"]


def test_gauss_gauss_s_half_chain_frozen():
    report = scenario_gauss_gauss(ScenarioSpec(tag="gauss-gauss", n=1))
    assert_allclose(report.lower_bounds["s_half_chain"].value,
                    0.07385224378772982, rtol=1e-13)


def test_gauss_gauss_asymptotic_flagged():
    report = scenario_gauss_gauss(ScenarioSpec(tag="gauss-gauss", n=100))
    assert report.lower_bounds["unconditioned_asymptotic"].asymptotic
    assert not report.lower_bounds["corollary"].asymptotic


# ---------------------------------------------------------------------------
# Bernoulli bias, clean samples


# log-factorial closed form, cross-checked against quadrature and mpmath below
BU_MI = {1: 0.2786524795555183, 2: 0.47560079316552611,
         3: 0.62843868902713298, 10: 1.2320577353273232}


@pytest.mark.parametrize("n", sorted(BU_MI))
def test_bern_uniform_mi_frozen(n):
    assert_allclose(bern_uniform_mi(n), BU_MI[n], rtol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bern_uniform_mi_matches_quadrature(n):
    assert_allclose(bern_uniform_mi(n), oracles.quad_bern_uniform_mi(n),
                    rtol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 64, 100, 256, 500, 871, 1000])
def test_bern_uniform_mi_matches_mpmath(n):
    want = oracles.bern_uniform_mi_mp(n)
    assert abs(bern_uniform_mi(n) - want) <= 1e-12 * want


def test_bern_uniform_floors_below_bayes_risk():
    # the source-only floors use the whole sample, so the posterior-median
    # risk bounds them; bit- or channel-limited floors may exceed it
    for n in range(1, 201):
        risk = oracles.bern_uniform_bayes_risk(n)
        report = scenario_bern_bsc(ScenarioSpec(tag="bern-bsc", n=n, b=64.0,
                                                eps=0.0, T=None))
        source = report.derived["case1_floor"]
        assert report.lower_bounds["mi"].arguments["active"] == "source"
        assert report.lower_bounds["mi"].value == source
        finite = scenario_bern_uniform(
            ScenarioSpec(tag="bern-uniform", n=n)).lower_bounds["finite"].value
        assert source < risk and finite < risk, n


def test_bern_uniform_conditional_mi():
    assert_allclose(bern_uniform_conditional_mi(10),
                    bern_uniform_mi(20) - bern_uniform_mi(10), rtol=1e-13)
    assert_allclose(bern_uniform_conditional_mi(10), 0.42301472622798374,
                    rtol=1e-13)


def test_bern_uniform_report_frozen():
    report = scenario_bern_uniform(ScenarioSpec(tag="bern-uniform", n=100))
    assert_allclose(report.lower_bounds["finite"].value,
                    0.0021838020607828005, rtol=1e-12)
    assert_allclose(report.lower_bounds["asymptotic"].value,
                    0.0024933892525089542, rtol=1e-13)
    assert report.lower_bounds["asymptotic"].asymptotic
    assert_allclose(report.upper_bounds["sample_mean"],
                    0.040824829046386302, rtol=1e-14)


# ---------------------------------------------------------------------------
# Gaussian location, ball prior


def test_gauss_ball_asymptote_frozen():
    report = scenario_gauss_ball(ScenarioSpec(tag="gauss-ball", n=100))
    assert_allclose(report.lower_bounds["asymptotic"].value,
                    0.012533141373155003, rtol=1e-13)
    assert report.lower_bounds["asymptotic"].asymptotic
    assert_allclose(report.derived["ratio_to_upper"],
                    math.sqrt(2.0 * math.pi) / 20.0, rtol=1e-14)


def test_gauss_ball_mc_chain_deterministic_and_present():
    spec = ScenarioSpec(tag="gauss-ball", n=400, d=3)
    a = scenario_gauss_ball(spec, reps=20000, seed=4)
    b = scenario_gauss_ball(spec, reps=20000, seed=4)
    assert a.lower_bounds["finite_mc_weak"].value \
        == b.lower_bounds["finite_mc_weak"].value
    assert a.lower_bounds["finite_mc_sharp"].value > 0.0
    assert a.derived["p_hat"] > 0.5
    assert not a.lower_bounds["finite_mc_weak"].asymptotic


LEVEL = 1.0 / (1.0 + CONCENTRATION_DELTA)


def _noncentralities(spec, reps, seed):
    """The library's draws, rebuilt: W uniform on the ball, then the sample
    mean, whose scaled squared norm is the noncentrality of the ball mass."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    direction = rng.normal(size=(reps, spec.d))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    w = spec.radius * direction * rng.random(reps)[:, None] ** (1.0 / spec.d)
    xbar = w + math.sqrt(spec.var_noise / spec.n) * rng.normal(size=(reps, spec.d))
    return spec.n * (xbar * xbar).sum(axis=1) / spec.var_noise


@pytest.mark.parametrize("d, seed", [(1, 0), (1, 17), (3, 4), (3, 502),
                                     (40, 9), (40, 2 ** 64 - 1)])
def test_posterior_mass_in_ball_matches_ncx2_oracle(d, seed):
    from scipy.stats import ncx2  # the oracle; the library never imports it

    spec = ScenarioSpec(tag="gauss-ball", n=30, d=d, radius=2.5, var_noise=3.0)
    reps = 4000
    mass = ncx2.cdf(spec.radius ** 2 * spec.n / spec.var_noise, d,
                    _noncentralities(spec, reps, seed))
    exceeds = _ball_mass_exceeds(spec, reps, seed, LEVEL)
    assert np.array_equal(exceeds, mass > LEVEL)
    if d < 40:  # at d = 40 every draw's mass is below the level
        assert 0.0 < exceeds.mean() < 1.0


# ball thresholds a^2 n / sigma^2 from 1e-2 to 1e18
@pytest.mark.parametrize("d", [1, 2, 3, 8, 40, 400])
@pytest.mark.parametrize("log10_x", [-2, 0, 1, 2, 3, 4, 6, 8, 10, 14, 18])
def test_ball_mass_indicator_matches_ncx2_on_a_threshold_corpus(d, log10_x):
    from scipy.stats import ncx2

    spec = ScenarioSpec(tag="gauss-ball", n=1, d=d, radius=10.0 ** (log10_x / 2))
    reps, seed = 500, 7 * d + log10_x
    noncentrality = _noncentralities(spec, reps, seed)
    mass = ncx2.cdf(spec.radius ** 2, d, noncentrality)
    # scipy's CDF is NaN near the ball's edge from a threshold of ~1e10
    for i in np.flatnonzero(np.isnan(mass)):
        mass[i] = oracles.ncx2_cdf_mp(spec.radius ** 2, d, noncentrality[i])
    assert np.array_equal(_ball_mass_exceeds(spec, reps, seed, LEVEL), mass > LEVEL)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 40, 400])
def test_noncentrality_root_hits_the_level(d):
    from scipy.stats import chi2, ncx2

    for log10_x in range(-2, 19):
        x = 10.0 ** log10_x
        lam = _noncentrality_root(x, d, LEVEL)
        if lam == 0.0:
            assert chi2.cdf(x, d) <= LEVEL, x
            continue
        cdf = ncx2.cdf(x, d, lam)
        if math.isnan(cdf):  # scipy gives up near the root from x ~ 1e11
            cdf = oracles.ncx2_cdf_mp(x, d, lam)
        # F moves by at most phi(0) / (2 sqrt(lam)) per unit of lam, so the
        # few ulps to which a double can hold lam move it by 0.8 eps sqrt(lam)
        slack = 0.8 * np.finfo(float).eps * math.sqrt(lam)
        assert abs(cdf - LEVEL) <= 1e-10 + slack, (x, cdf, slack)


def test_gauss_ball_without_reps_has_no_mc_entries():
    report = scenario_gauss_ball(ScenarioSpec(tag="gauss-ball", n=100))
    assert "finite_mc_weak" not in report.lower_bounds


# ---------------------------------------------------------------------------
# single bit over a BSC


def test_bsc_bit_matches_bisection_oracle():
    report = scenario_bsc_bit(ScenarioSpec(tag="bsc-bit", eps=0.25, T=4))
    z = 0.75
    assert_allclose(report.lower_bounds["no_feedback"].value,
                    float(oracles.majority_risk_mp(4, 0.25)), rtol=1e-12)
    assert_allclose(report.lower_bounds["feedback"].value,
                    oracles.h2inv_mp(z ** 4), atol=1e-10)
    assert report.upper_bounds["repetition"] == pytest.approx(z ** 2)


def test_bsc_bit_exponents():
    report = scenario_bsc_bit(ScenarioSpec(tag="bsc-bit", eps=0.25, T=4))
    base = 0.5 * math.log2(4.0 / 3.0)
    assert_allclose(report.derived["exponent_no_feedback"], base, rtol=1e-14)
    assert_allclose(report.derived["exponent_repetition"], base, rtol=1e-14)
    assert_allclose(report.derived["exponent_feedback"], 2 * base, rtol=1e-14)


def test_bsc_bit_floors_stay_below_repetition_at_tiny_eps():
    # the floors are the meta-converse, eps itself, and an inverse entropy near 8e-143
    report = scenario_bsc_bit(ScenarioSpec(tag="bsc-bit", eps=1e-140, T=1))
    assert report.upper_bounds["repetition"] == pytest.approx(2e-70)
    for lower in report.lower_bounds.values():
        assert 0.0 < lower.value <= report.upper_bounds["repetition"]


@given(st.floats(min_value=1e-12, max_value=0.49), st.integers(min_value=1, max_value=60))
@settings(max_examples=200, deadline=None)
def test_bsc_bit_floors_stay_below_the_exact_majority_risk(eps, T):
    # majority-decoded repetition is the best code for one bit without
    # feedback, so no floor may exceed its exact risk; the no-feedback floor
    # is the Neyman-Pearson beta at level 1/2 of Bin(T, 1/2) against Bin(T, eps)
    report = scenario_bsc_bit(ScenarioSpec(tag="bsc-bit", eps=eps, T=T))
    risk = oracles.majority_risk_mp(T, eps)
    for lower in report.lower_bounds.values():
        assert lower.value <= risk * (1 + mpmath.mpf("1e-12"))
    fair = [math.comb(T, d) / 2.0 ** T for d in range(T + 1)]
    noisy = [math.comb(T, d) * eps ** d * (1.0 - eps) ** (T - d) for d in range(T + 1)]
    assert math.isclose(report.lower_bounds["no_feedback"].value,
                        neyman_pearson_beta(0.5, fair, noisy), rel_tol=1e-9,
                        abs_tol=1e-300)


def test_bsc_bit_needs_noisy_channel():
    with pytest.raises(DistributionError):
        scenario_bsc_bit(ScenarioSpec(tag="bsc-bit", eps=None, T=4))


# ---------------------------------------------------------------------------
# hypercube prior with per-coordinate bias


def test_hypercube_budget_terms_frozen():
    spec = ScenarioSpec(tag="hypercube", d=3, delta=0.6, b=2.0, T=2,
                        eps=0.1, p=0.3)
    report = scenario_hypercube(spec)
    terms = report.derived["mi_upper"].arguments["terms"]
    assert_allclose(terms["source"], 0.7261013586301195, rtol=1e-12)
    assert_allclose(terms["bits"], 0.626688, rtol=1e-12)
    assert_allclose(terms["capacity"], 0.3823231726157175, rtol=1e-12)
    assert_allclose(report.lower_bounds["bit_error"].value,
                    0.29299517191748237, rtol=1e-10)
    assert_allclose(report.lower_bounds["rate_per_coordinate"].value,
                    0.3788459353595643, rtol=1e-12)
    assert_allclose(report.derived["noisy_lossy_rate"],
                    0.34997757835164578, rtol=1e-12)
    assert_allclose(report.derived["rate_distortion"],
                    0.1187091007693073, rtol=1e-12)


def test_hypercube_zhang_comparison_crossover():
    # the competing coefficient passes 1 just below delta = 0.133
    spec = ScenarioSpec(tag="hypercube", d=1, delta=0.133, b=8.0, T=1, eps=0.1)
    report = scenario_hypercube(spec)
    assert_allclose(report.derived["zhang_mi_upper"], 1.0017904109605131,
                    rtol=1e-12)


def test_hypercube_infeasible_bit_error_flagged():
    # with no usable budget the binary-entropy argument leaves [0, 1]
    spec = ScenarioSpec(tag="hypercube", d=1, delta=1.0, b=100.0, T=50, eps=0.0)
    report = scenario_hypercube(spec)
    assert report.lower_bounds["bit_error"].value == 0.0


# ---------------------------------------------------------------------------
# quantization-rate curves


def test_fig2_header_and_coincidence_point():
    header, rows = fig2_data()
    assert header == ["delta", "blb_eta_1", "blb_eta_0.75", "blb_eta_0.5",
                      "tildeR", "R"]
    last = rows[-1]
    assert last[0] == pytest.approx(1.0)
    r_p = 1.0 - binary_entropy(0.3)
    assert_allclose(last[1], r_p, atol=1e-9)
    assert_allclose(last[4], r_p, atol=1e-9)
    assert_allclose(last[5], r_p, atol=1e-9)


def test_fig2_smaller_eta_dominates():
    header, rows = fig2_data()
    for row in rows:
        assert row[2] >= row[1] - 1e-12
        assert row[3] >= row[2] - 1e-12


def test_fig2_validates_inputs():
    with pytest.raises(DistributionError):
        fig2_data(p=0.6)
    with pytest.raises(DistributionError):
        fig2_data(etas=(0.0,))


# ---------------------------------------------------------------------------
# Bernoulli bias over a BSC


def test_bern_bsc_case1_frozen():
    report = scenario_bern_bsc(ScenarioSpec(tag="bern-bsc", n=256, b=4.0,
                                            eps=0.0, T=None))
    assert_allclose(report.lower_bounds["case1"].value,
                    0.011496232536607573, rtol=1e-13)
    assert_allclose(report.upper_bounds["case1"],
                    0.088015518153991439, rtol=1e-13)
    # 2^(-I(W; X^256)) / (2e), I(W; X^256) = 3.40592846179801567... bits
    assert_allclose(report.derived["case1_floor"],
                    0.017353572412542772, rtol=1e-13)
    assert_allclose(report.derived["case1_cap"], 1.41 / 16.0, rtol=1e-14)
    # with a noiseless link only sample and bit budgets can bind
    terms = report.lower_bounds["mi"].arguments["terms"]
    assert set(terms) == {"source", "bits"}


def test_bern_bsc_source_term_is_the_exact_information():
    # the Clarke-Barron limit 0.5 log2 n - 0.6 is negative at n = 1, 2
    for n in (1, 2, 3, 100):
        for eps, T in ((0.0, None), (0.1, 40)):
            report = scenario_bern_bsc(ScenarioSpec(tag="bern-bsc", n=n, b=7.0,
                                                    eps=eps, T=T))
            terms = report.lower_bounds["mi"].arguments["terms"]
            assert terms["source"] == report.derived["eta_T"] * bern_uniform_mi(n)
            assert report.derived["i_star"] >= 0.0
            assert not any(bound.asymptotic
                           for bound in report.lower_bounds.values())


# (n, b) for the noiseless scheme; (n, eps, T, b) for the repetition scheme,
# which sends the count's n.bit_length() bits and so needs that many
QUANTIZED = [(n, b) for n in (1, 2, 5, 16) for b in (0.0, 1.0, 2.0, 4.0)]
REPEATED = [(n, eps, T, b) for n in (1, 3, 6) for eps in (0.05, 0.2)
            for T in (n.bit_length(), 3 * n.bit_length() + 1)
            for b in (float(n.bit_length()), 12.0)]


@pytest.mark.parametrize("n, b", QUANTIZED)
def test_bern_bsc_noiseless_floors_below_scheme_risk(n, b):
    report = scenario_bern_bsc(ScenarioSpec(tag="bern-bsc", n=n, b=b, eps=0.0,
                                            T=None))
    risk = oracles.quantized_count_risk(n, b)
    for bound in report.lower_bounds.values():
        assert bound.value < risk


@pytest.mark.parametrize("n, eps, T, b", REPEATED)
def test_bern_bsc_noisy_floors_below_scheme_risk(n, eps, T, b):
    report = scenario_bern_bsc(ScenarioSpec(tag="bern-bsc", n=n, b=b, eps=eps,
                                            T=T))
    risk = oracles.repetition_count_risk(n, eps, T)
    for bound in report.lower_bounds.values():
        assert bound.value < risk


def test_bern_bsc_case2_structure():
    report = scenario_bern_bsc(ScenarioSpec(tag="bern-bsc", n=100, b=7.0,
                                            eps=0.1, T=40))
    case2 = report.lower_bounds["case2"]
    first = case2.arguments["polynomial_term"]
    second = case2.arguments["exponential_term"]
    assert case2.value == pytest.approx(max(first, second))
    assert "case2" in report.upper_bounds
    # each floor is Theorem 3 (h(W) = 0) on a term of the budget
    terms = report.lower_bounds["mi"].arguments["terms"]
    assert first == lb_diff_entropy(terms["source"], 0.0).value
    assert second == lb_diff_entropy(terms["capacity"], 0.0).value
    assert report.lower_bounds["mi"].value \
        == lb_diff_entropy(report.derived["i_star"], 0.0).value


def test_bern_bsc_case2_upper_needs_valid_rate():
    # at T = 20 the message rate exceeds the linear regime of the exponent
    report = scenario_bern_bsc(ScenarioSpec(tag="bern-bsc", n=100, b=7.0,
                                            eps=0.1, T=20))
    assert "case2" not in report.upper_bounds
    assert report.derived["case2_upper_notice"] == (
        "case-2 upper bound omitted: rate log2(n + 1) / T = 0.332911 > 0.188722, "
        "past the linear regime of the random-coding exponent")


def test_bern_bsc_case2_notice_names_a_short_bit_budget():
    # the rate 6.66 / 70 is inside the linear regime; b = 4 bits is the cause
    report = scenario_bern_bsc(ScenarioSpec(tag="bern-bsc", n=100, b=4.0,
                                            eps=0.1, T=70))
    assert "case2" not in report.upper_bounds
    assert report.derived["case2_upper_notice"] \
        == "case-2 upper bound omitted: b = 4 < log2(n + 1) = 6.65821"


def test_random_coding_exponent_frozen():
    assert_allclose(random_coding_exponent(0.1, 0.0), 0.32192809488736235,
                    rtol=1e-13)
    assert_allclose(feedback_zero_rate_exponent(0.1), 0.64231681400944387,
                    rtol=1e-13)


def test_capacity_feedback_exponent_ratio_window():
    # the ratio stays within [1, 9/8] strictly inside (2/9, 1/2)
    for eps in np.linspace(2.0 / 9.0 + 1e-3, 0.5 - 1e-3, 30):
        ratio = (1.0 - binary_entropy(eps)) / feedback_zero_rate_exponent(eps)
        assert 1.0 - 1e-12 <= ratio <= 9.0 / 8.0 + 1e-12


# ---------------------------------------------------------------------------
# decentralized Gaussian location


def test_dglm_channel_noise_term():
    spec = ScenarioSpec(tag="dglm", m=5, d=1, total_samples=100,
                        total_bits=20.0)
    report = scenario_dglm_decentralized(spec)
    assert_allclose(report.lower_bounds["decentralized"].value, 1.0 / 101.0,
                    rtol=1e-14)
    assert_allclose(report.derived["centralized_risk"], 1.0 / 101.0,
                    rtol=1e-14)
    assert_allclose(report.derived["bits_needed_for_centralized"],
                    3.4955610284446923, rtol=1e-13)


def test_dglm_share_of_fewer_uses_than_processors():
    # each of 5 processors gets 2/5 of a channel use
    spec = ScenarioSpec(tag="dglm", m=5, d=1, total_samples=100,
                        total_bits=20.0, total_uses=2, eps=0.1)
    report = scenario_dglm_decentralized(spec)
    assert_allclose(report.derived["eta_split"], 1.0 - 0.36 ** 0.4, rtol=1e-14)
    assert_allclose(report.derived["eta_L"], 1.0 - 0.36 ** 2, rtol=1e-14)


def test_dglm_requires_enough_samples():
    with pytest.raises(DistributionError):
        scenario_dglm_decentralized(ScenarioSpec(tag="dglm", m=5, d=1,
                                                 total_samples=3,
                                                 total_bits=10.0))


def test_dglm_bits_term_binds_when_starved():
    spec = ScenarioSpec(tag="dglm", m=2, d=1, total_samples=100,
                        total_bits=0.5)
    report = scenario_dglm_decentralized(spec)
    assert report.lower_bounds["decentralized"].arguments["active"] \
        == "decentralized_bits"
    assert report.lower_bounds["decentralized"].value > 1.0 / 101.0


# ---------------------------------------------------------------------------
# minimax cube


def test_minimax_cube_frozen():
    spec = ScenarioSpec(tag="minimax-cube", d=8, b=8.0, m=4, T=None)
    report = scenario_minimax_cube(spec)
    assert_allclose(report.lower_bounds["minimax"].value, 0.4, rtol=1e-14)


def test_minimax_cube_caps_at_prior_scale():
    spec = ScenarioSpec(tag="minimax-cube", d=5, b=0.0, m=10, T=None)
    report = scenario_minimax_cube(spec)
    assert_allclose(report.lower_bounds["minimax"].value, 1.0, rtol=1e-14)


# ---------------------------------------------------------------------------
# CEO sum rate


def test_ceo_scalar_gaussian_reduction():
    spec = ScenarioSpec(tag="ceo", d=1, r=2.0, var_w=2.0, m=3, T=None)
    report = scenario_noisy_ceo(spec, alpha=0.5)
    assert_allclose(report.lower_bounds["sum_rate_requirement"].value,
                    0.5 * math.log2(2.0 / 0.5), rtol=1e-13)


@pytest.mark.parametrize("d, r, alpha", [
    (1, 2.0, 0.5), (8, 1.0, 0.01), (48, 2.0, 1e-12), (64, 1.0, 1e-6),
    (128, 2.0, 0.0017782794100389228), (160, 1.0, 1.7782794100389228),
    (400, 1.0, 0.5), (1000, 3.0, 1e-3)])
def test_ceo_requirement_matches_mpmath(d, r, alpha):
    # the ball factor (alpha r e/d)^(d/r) underflows or overflows at most of
    # these points; the requirement itself is a moderate number of bits
    spec = ScenarioSpec(tag="ceo", d=d, r=r, var_w=2.0)
    report = scenario_noisy_ceo(spec, alpha=alpha)
    got = report.lower_bounds["sum_rate_requirement"].arguments["raw"]
    want = oracles.ceo_requirement_mp(d, r, 2.0, alpha)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_ceo_zero_requirement_when_ball_is_big():
    spec = ScenarioSpec(tag="ceo", d=1, r=2.0, var_w=0.001, m=2, T=None)
    report = scenario_noisy_ceo(spec, alpha=100.0)
    assert report.lower_bounds["sum_rate_requirement"].value == 0.0
    assert report.lower_bounds["sum_rate_requirement"].clamped


# ---------------------------------------------------------------------------
# parity estimation


def test_xor_frozen_values():
    spec = ScenarioSpec(tag="xor", m=2, n=16, b=1.0)
    report = scenario_xor(spec)
    assert_allclose(report.lower_bounds["distributed"].value,
                    0.091970833025198246, rtol=1e-13)
    assert_allclose(report.lower_bounds["colocated"].value,
                    0.045985902883912077, rtol=1e-13)
    assert_allclose(report.derived["floor_no_bits"],
                    0.18393972058572116, rtol=1e-14)


def test_xor_penalty_scalings():
    spec = ScenarioSpec(tag="xor", m=2, n=16, b=1.0)
    report = scenario_xor(spec)
    assert_allclose(report.derived["penalty_colocated"],
                    1.0 / (2.0 * math.e * 4.0), rtol=1e-13)
    assert_allclose(report.derived["penalty_distributed"],
                    1.0 / (2.0 * math.e * 2.0), rtol=1e-13)


# ---------------------------------------------------------------------------
# hide and seek


def test_hide_seek_frozen_point():
    spec = ScenarioSpec(tag="hide-seek", m=10, d=512, b=1536.0, n=100,
                        rho_bias=0.01)
    report = scenario_hide_seek(spec)
    assert_allclose(report.lower_bounds["ours"].value, 0.84444444444444444,
                    rtol=1e-13)
    assert report.lower_bounds["shamir"].value == 0.0


FIG3_FROZEN = {1: (0.6111111111111112, 0.0), 10: (0.8611111111111112, 0.0),
               100: (0.8861111111111111, 0.5988559174789525),
               1000: (0.8886111111111111, 0.869140625)}


def test_fig3_rows_frozen():
    header, rows = fig34_data(rho_rule="quarter_n")
    assert header == ["n", "ours", "shamir"]
    table = {int(row[0]): (row[1], row[2]) for row in rows}
    for n, (ours, shamir) in FIG3_FROZEN.items():
        assert_allclose(table[n][0], ours, rtol=1e-12)
        assert_allclose(table[n][1], shamir, rtol=1e-12, atol=1e-15)


def test_fig34_ours_dominates_both_rules():
    for rule, rho in (("quarter_n", None), ("fixed", 0.01)):
        kwargs = {"rho_rule": rule}
        if rho is not None:
            kwargs["rho"] = rho
        _, rows = fig34_data(**kwargs)
        assert len(rows) == 1000
        for row in rows:
            assert row[1] >= row[2] - 1e-12
