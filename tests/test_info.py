import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from bayeslb import info
from bayeslb.info import (ConvergenceError, DiscreteChannel,
                          DiscreteDistribution,
                          DistortionSpec, DistributionError,
                          InfoDensityDistribution, JointPMF, PriorSpec,
                          UnsupportedPairError, bec, bsc, binary_entropy,
                          binary_relative_entropy, channel_capacity,
                          differential_entropy, entropy,
                          information_density, inv_binary_entropy,
                          inv_binary_entropy_floor, kl_divergence,
                          mutual_information, neyman_pearson_beta,
                          small_ball, std_normal_cdf,
                          unit_ball_volume, verify_np_properties)

import oracles

# the pmf and likelihood-ratio code guards its own divisions and logs: no
# RuntimeWarning may escape
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# 50-digit bisection values, see oracles.h2_mp / oracles.h2inv_mp
H2_03 = 0.88129089923069262
H2INV_05 = 0.11002786443835955
H2INV_075 = 0.21450174485982875


def test_binary_entropy_endpoints_and_symmetry():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert_allclose(binary_entropy(0.3), binary_entropy(0.7), rtol=0, atol=1e-15)
    assert_allclose(binary_entropy(0.3), H2_03, rtol=0, atol=1e-15)
    assert oracles.h2_mp(0.3) == H2_03


def test_binary_entropy_rejects_outside_unit_interval():
    with pytest.raises(DistributionError):
        binary_entropy(-0.01)
    with pytest.raises(DistributionError):
        binary_entropy(1.01)


@pytest.mark.parametrize("y,expected", [(0.5, H2INV_05), (0.75, H2INV_075)])
def test_inv_binary_entropy_frozen_values(y, expected):
    assert_allclose(inv_binary_entropy(y), expected, rtol=0, atol=1e-11)


@given(st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=200, deadline=None)
def test_inv_binary_entropy_round_trip(p):
    assert abs(inv_binary_entropy(binary_entropy(p)) - p) < 1e-9


@given(st.floats(min_value=1e-6, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_inv_binary_entropy_floor_is_a_floor(y):
    """x/(2 log2(6/x)) never exceeds the true inverse."""
    assert inv_binary_entropy_floor(y) <= inv_binary_entropy(y) + 1e-12


@pytest.mark.parametrize("y", [1e-300, 1e-140, 1e-12, 0.5, 0.75])
def test_inv_binary_entropy_is_a_lower_estimate_to_a_relative_1e_12(y):
    # an absolute tolerance would put the answer above the inverse at tiny y
    x = inv_binary_entropy(y)
    assert binary_entropy(x) < y <= binary_entropy(x * (1.0 + 2e-12))


def test_inv_binary_entropy_raises_below_its_floor(monkeypatch):
    # a broken entropy drives the bisection to 0, under the closed-form floor
    monkeypatch.setattr(info, "binary_entropy", lambda p: 1.0)
    with pytest.raises(ConvergenceError):
        inv_binary_entropy(0.5)


def test_binary_relative_entropy_matches_kl():
    # the last four violate or sit on the support edge, where both give
    # math.inf, or 0 for equal arguments
    for p, q in [(0.3, 0.1), (0.5, 0.0), (0.0, 0.0), (0.0, 1.0), (0.3, 1.0)]:
        v = binary_relative_entropy(p, q)
        w = kl_divergence([p, 1.0 - p], [q, 1.0 - q])
        assert_allclose(v, w, rtol=1e-14)


def test_entropy_uniform_and_deterministic():
    assert_allclose(entropy(np.full(8, 0.125)), 3.0, rtol=0, atol=1e-14)
    assert entropy([1.0, 0.0, 0.0]) == 0.0


def test_kl_divergence_zero_iff_equal():
    p = np.array([0.2, 0.3, 0.5])
    assert kl_divergence(p, p) == 0.0
    assert kl_divergence([0.5, 0.5, 0.0], [0.25, 0.25, 0.5]) > 0.0
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf


def test_pmf_validation_rejects_rather_than_renormalizes():
    with pytest.raises(DistributionError):
        DiscreteDistribution(np.array([0.5, 0.5 + 1e-9]))
    with pytest.raises(DistributionError):
        DiscreteDistribution(np.array([0.5, -0.5, 1.0]))


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: DiscreteDistribution(np.array([NAN, 1.0])),
    lambda: DiscreteChannel(np.array([[1.0, 0.0], [NAN, 1.0]])),
    lambda: InfoDensityDistribution(values=np.array([0.0, 1.0]),
                                    probs=np.array([NAN, 1.0])),
    lambda: JointPMF(np.array([[0.5, NAN], [0.0, 0.5]])),
], ids=["distribution", "channel-row", "info-density", "joint-pmf"])
def test_pmf_validation_rejects_nan(build):
    with pytest.raises(DistributionError, match=r"lie in \[0, 1\]"):
        build()


def test_channel_compose_tensor():
    k = bsc(0.25)
    composed = k.compose(k)
    # two BSCs in series give a BSC with crossover 2e(1-e)
    assert_allclose(composed.rows[0, 1], 2 * 0.25 * 0.75, rtol=1e-15)
    prod = k.tensor(k)
    assert prod.num_inputs == 4 and prod.num_outputs == 4
    assert_allclose(prod.rows.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_identity_channel_is_noiseless():
    joint = JointPMF.from_input_channel(
        DiscreteDistribution(np.full(4, 0.25)), DiscreteChannel(np.eye(4)))
    assert_allclose(mutual_information(joint), 2.0, rtol=0, atol=1e-12)


def test_mutual_information_bsc_quarter():
    joint = JointPMF.from_input_channel(
        DiscreteDistribution(np.array([0.5, 0.5])), bsc(0.25))
    assert_allclose(mutual_information(joint), 1.0 - binary_entropy(0.25),
                    rtol=0, atol=1e-14)


def test_information_density_mean_is_mi():
    joint = JointPMF.from_input_channel(
        DiscreteDistribution(np.array([0.3, 0.7])), bsc(0.1))
    dens = information_density(joint)
    assert_allclose(dens.mean(), mutual_information(joint), rtol=0, atol=1e-12)


@pytest.mark.parametrize("atom", [math.nan, math.inf, -math.inf])
def test_information_density_refuses_a_non_finite_atom(atom):
    # a NaN atom once fed lb_info_density a floor of 0.0302
    with pytest.raises(DistributionError, match="density values must be finite"):
        InfoDensityDistribution([atom, 0.0], [0.5, 0.5])


def test_information_density_tail_conventions():
    dens = InfoDensityDistribution(values=np.array([-1.0, 0.0, 2.0]),
                                   probs=np.array([0.2, 0.3, 0.5]))
    assert dens.prob_below(0.0) == pytest.approx(0.2)   # strict <
    assert dens.prob_below(3.0) == pytest.approx(1.0)


@pytest.mark.parametrize("k", [2, 5, 16])
def test_prob_below_of_an_array_equals_the_call_per_threshold(k):
    rng = np.random.default_rng([k, 21])
    joint = JointPMF.from_input_channel(DiscreteDistribution(rng.dirichlet(np.ones(k))),
                                        DiscreteChannel(rng.dirichlet(np.ones(k), size=k)))
    dens = information_density(joint)
    thresholds = np.concatenate([dens.values, rng.uniform(-6.0, 6.0, 40),
                                 [-math.inf, math.inf]])
    below = dens.prob_below(thresholds)
    assert below.shape == thresholds.shape
    assert [x.hex() for x in below.tolist()] \
        == [dens.prob_below(t).hex() for t in thresholds.tolist()]
    assert dens.prob_below(thresholds[:40].reshape(4, 10)).tolist() \
        == below[:40].reshape(4, 10).tolist()


@pytest.mark.parametrize("k", [2, 5, 16])
def test_prob_below_of_unsorted_atoms_matches_the_masked_sum(k):
    rng = np.random.default_rng([k, 22])
    values = rng.permutation(np.repeat(rng.normal(0.0, 3.0, k * k // 2 + 1), 2))
    probs = rng.dirichlet(np.ones(values.size))
    dens = InfoDensityDistribution(values, probs)
    assert np.all(dens.values[1:] >= dens.values[:-1])
    thresholds = np.concatenate([values, rng.uniform(-9.0, 9.0, 40),
                                 [-math.inf, math.inf, math.nan]])
    masked = (probs * (values < thresholds[:, None])).sum(-1)
    assert np.max(np.abs(dens.prob_below(thresholds) - masked)) <= 1e-15


def test_derived_pmfs_that_round_above_one_are_clipped():
    # the merged density mass and the pushforward both round to 1.0000000000000002
    dens = information_density(JointPMF.from_input_channel(
        DiscreteDistribution(np.full(10, 0.1)), DiscreteChannel(np.full((10, 2), 0.5))))
    assert dens.probs.tolist() == [1.0]
    report = verify_np_properties([0.2, 0.4, 0.3, 0.1], [0.25] * 4,
                                  DiscreteChannel(np.ones((4, 1))), (0.5,), (1.0,))
    assert report.max_violation <= 1e-9
    composed = DiscreteChannel([[0.2, 0.4, 0.3, 0.1]]).compose(DiscreteChannel(np.ones((4, 1))))
    assert composed.rows.tolist() == [[1.0]]
    # a pmf given as input is still held to [0, 1]
    with pytest.raises(DistributionError, match=r"entries must lie in \[0, 1\]"):
        neyman_pearson_beta(0.5, [1.0000000000000002, 0.0], [0.5, 0.5])


def test_entropy_and_divergence_refuse_what_is_not_a_pmf():
    with pytest.raises(DistributionError, match="entries"):
        entropy([0.5, math.nan])
    with pytest.raises(DistributionError, match="mass"):
        kl_divergence([0.5, 0.5], [0.7, 0.7])
    assert entropy(DiscreteDistribution(np.array([0.5, 0.5]))) == 1.0


# ---------------------------------------------------------------------------
# Neyman-Pearson


def test_np_beta_against_linear_program():
    rng = np.random.default_rng(7)
    for _ in range(25):
        k = rng.integers(2, 9)
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        for alpha in (0.05, 0.3, 0.77, 1.0):
            mine = neyman_pearson_beta(alpha, p, q)
            lp = oracles.lp_np_beta(alpha, p, q)
            assert_allclose(mine, lp, rtol=0, atol=1e-9)


def test_np_beta_edge_levels():
    p = [0.5, 0.5]
    q = [0.9, 0.1]
    assert neyman_pearson_beta(0.0, p, q) == 0.0
    assert_allclose(neyman_pearson_beta(1.0, p, q), 1.0, rtol=0, atol=1e-12)


def test_np_beta_monotone_in_alpha():
    p = np.array([0.1, 0.2, 0.3, 0.4])
    q = np.array([0.4, 0.3, 0.2, 0.1])
    vals = [neyman_pearson_beta(a, p, q) for a in np.linspace(0, 1, 21)]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(vals, vals[1:]))


def _np_corpus(count: int, seed: int):
    """Seeded (p, q) pairs on 1 to 16 outcomes; every fourth pair has zero
    entries in p or q, and every fifth has p = q."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = int(rng.integers(1, 17))
        p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
        if i % 4 == 1 and k > 1:
            for v in (p, q):
                v[rng.random(k) < 0.3] = 0.0
                if v.sum() == 0.0:
                    v[0] = 1.0
                v /= v.sum()
        if i % 5 == 2:
            q = p.copy()
        yield rng, p, q


def test_np_beta_equals_the_per_outcome_loop():
    for rng, p, q in _np_corpus(300, 2121):
        order = np.lexsort((np.arange(p.size), -np.where(q > 0.0, p / np.where(q > 0.0, q, 1.0),
                                                         np.inf)))
        cumulative = np.cumsum(p[order])
        levels = [0.0, 0.5, 1.0, *rng.random(20), *cumulative[cumulative <= 1.0]]
        expected = [oracles.np_beta_loop(a, p, q).hex() for a in levels]
        assert [neyman_pearson_beta(a, p, q).hex() for a in levels] == expected
        assert [b.hex() for b in neyman_pearson_beta(np.array(levels), p, q).tolist()] \
            == expected


def test_np_beta_keeps_the_shape_of_its_levels():
    p, q = [0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]
    assert isinstance(neyman_pearson_beta(0.5, p, q), float)
    assert neyman_pearson_beta(np.full((2, 3), 0.5), p, q).shape == (2, 3)
    with pytest.raises(DistributionError, match="power"):
        neyman_pearson_beta([0.5, math.nan], p, q)


def test_np_routines_warn_nothing_on_a_subnormal_mass():
    # P over a subnormal Q entry, or Q over a subnormal P entry, overflows to
    # inf, which orders the outcomes as a zero entry would; no warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beta = neyman_pearson_beta(0.5, [0.5, 0.5], [1e-310, 1 - 1e-310])
        report = verify_np_properties([1e-310, 1 - 1e-310], [0.5, 0.5],
                                      DiscreteChannel(np.eye(2)), (0.5,), (1.0,))
        # P over a subnormal Q entry overflows, yet both divergences are finite
        divergences = (kl_divergence([0.5, 0.5], [1e-310, 1 - 1e-310]),
                       binary_relative_entropy(0.5, 1e-310))
        reverse = verify_np_properties([0.5, 0.5], [1e-310, 1 - 1e-310],
                                       DiscreteChannel(np.eye(2)), (0.5,), (1.0,))
    assert math.isclose(beta, 1e-310, rel_tol=1e-12)
    assert report.max_violation == 0.0
    # 0.5 log2(0.5 / 1e-310) + 0.5 log2(0.5 / (1 - 1e-310)), at 40 digits
    for value in divergences:
        assert math.isclose(value, 513.89885470754116612, rel_tol=1e-14)
    # the weak converse at level 1/2 compares two of them: no inf - inf = NaN
    assert abs(binary_relative_entropy(0.5, beta) - divergences[0]) <= 1e-12
    assert reverse.max_violation <= 1e-12


def test_np_properties_equal_the_per_level_loop():
    alphas = tuple(0.05 + 0.15 * i for i in range(7))
    gammas = (0.5, 1.0, 2.0, 5.0)
    compared = 0
    for rng, p, q in _np_corpus(300, 2122):
        rows = rng.dirichlet(np.ones(int(rng.integers(1, 9))), size=p.size)
        report = verify_np_properties(p, q, DiscreteChannel(rows), alphas, gammas)
        try:
            expected = oracles.np_properties_loop(p, q, rows, alphas, gammas)
        except ValueError:  # refused before the pushforward was clipped
            assert report.max_violation <= 1e-9
            continue
        compared += 1
        assert [v.hex() for v in (report.dpi_violation, report.weak_converse_violation,
                                  report.strong_converse_violation)] \
            == [v.hex() for v in expected]
    assert compared >= 250


def test_np_properties_on_fixed_instance():
    rng = np.random.default_rng(3)
    p = rng.dirichlet(np.ones(5))
    q = rng.dirichlet(np.ones(5))
    channel = DiscreteChannel(rng.dirichlet(np.ones(4), size=5))
    report = verify_np_properties(p, q, channel,
                                  alphas=np.linspace(0.01, 0.99, 25),
                                  gammas=np.geomspace(0.1, 10, 9))
    assert report.max_violation <= 1e-9


# ---------------------------------------------------------------------------
# small-ball machinery


def test_unit_ball_volume_low_dimensions():
    assert_allclose(unit_ball_volume(1), 2.0, rtol=1e-14)
    assert_allclose(unit_ball_volume(2), math.pi, rtol=1e-14)
    assert_allclose(unit_ball_volume(3), 4.188790204786391, rtol=1e-14)


def test_small_ball_uniform01():
    prior = PriorSpec("uniform01")
    dist = DistortionSpec("absolute")
    assert_allclose(small_ball(prior, 0.1, dist), 0.2, rtol=1e-14)
    assert small_ball(prior, 0.8, dist) == 1.0


def test_small_ball_gaussian_is_centered_interval():
    prior = PriorSpec.gaussian(var=4.0)
    dist = DistortionSpec("absolute")
    expected = std_normal_cdf(0.5) - std_normal_cdf(-0.5)
    assert_allclose(small_ball(prior, 1.0, dist), expected, rtol=1e-12)


def test_small_ball_ball_prior_volume_ratio():
    prior = PriorSpec("ball", radius=2.0, dim=3)
    dist = DistortionSpec("l2r", r=1.0)
    assert_allclose(small_ball(prior, 1.0, dist), 0.125, rtol=1e-12)
    assert small_ball(prior, 2.5, dist) == 1.0


def test_small_ball_squared_reduces_to_absolute():
    prior = PriorSpec("uniform01")
    v1 = small_ball(prior, 0.04, DistortionSpec("squared"))
    v2 = small_ball(prior, 0.2, DistortionSpec("absolute"))
    assert_allclose(v1, v2, rtol=1e-14)


def test_small_ball_discrete_uniform():
    prior = PriorSpec("discrete_uniform", size=6)
    assert_allclose(small_ball(prior, 0.5, DistortionSpec("zero_one")),
                    1.0 / 6.0, rtol=1e-15)


def test_small_ball_unsupported_pair():
    with pytest.raises(UnsupportedPairError):
        small_ball(PriorSpec("gaussian", var=1.0, dim=2), 0.1,
                   DistortionSpec("absolute"))


def test_differential_entropy_gaussian():
    # (1/2) log2(2 pi e), the one-dimensional unit-variance value
    assert_allclose(differential_entropy(PriorSpec.gaussian(var=1.0)),
                    2.0470955851806411, rtol=1e-14)
    assert_allclose(differential_entropy(PriorSpec("uniform01")), 0.0,
                    rtol=0, atol=1e-14)


def test_differential_entropy_ball_is_log_volume():
    prior = PriorSpec("ball", radius=1.0, dim=3)
    assert_allclose(differential_entropy(prior),
                    math.log2(unit_ball_volume(3)), rtol=1e-14)


@pytest.mark.parametrize("dim, radius", [(1, 0.5), (3, 1.0), (64, 3.0),
                                         (1000, 1.0), (1000, 2.0)])
def test_differential_entropy_ball_matches_closed_form(dim, radius):
    # the unit-ball volume underflows to 0 long before d = 1000
    assert_allclose(differential_entropy(PriorSpec("ball", radius=radius, dim=dim)),
                    oracles.ball_entropy_mp(dim, radius), rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------------------
# capacity


def test_capacity_bsc_and_bec():
    assert_allclose(channel_capacity(bsc(0.11)), 1.0 - binary_entropy(0.11),
                    rtol=0, atol=1e-9)
    assert_allclose(channel_capacity(bec(0.3)), 0.7, rtol=0, atol=1e-9)


def test_capacity_useless_channel_is_zero():
    rows = np.array([[0.4, 0.6], [0.4, 0.6]])
    assert channel_capacity(DiscreteChannel(rows)) <= 1e-9


def test_capacity_of_a_near_useless_channel_is_within_tol_of_the_grid_max():
    # seed 12 is one of two 2-input Dirichlet(1) channels among seeds 0-299
    # on which plain Blahut-Arimoto ends its 100 000 steps with the duality
    # bracket still wider than 1e-9
    rows = np.random.default_rng(12).dirichlet(np.ones(2), size=2)
    c = channel_capacity(DiscreteChannel(rows))
    p = np.linspace(0.0, 1.0, 10001)
    inputs = np.stack([p, 1.0 - p], axis=1)
    out = inputs @ rows
    info_grid = (inputs[:, :, None] * rows * np.log2(rows / out[:, None, :])).sum(axis=(1, 2))
    assert math.isfinite(c)
    assert info_grid[5000] <= info_grid.max() <= c <= 1.0 + 1e-9
    assert c <= info_grid.max() + 2e-9


def _zeroed_channel(inputs, outputs, seed):
    """Dirichlet(1) rows with about 40% of the entries set to zero."""
    rng = np.random.default_rng([inputs, outputs, seed])
    rows = rng.dirichlet(np.ones(outputs), size=inputs)
    zero = rng.random((inputs, outputs)) < 0.4
    zero[np.arange(inputs), rng.integers(0, outputs, inputs)] = False
    rows = np.where(zero, 0.0, rows)
    return rows / rows.sum(axis=1, keepdims=True)


def test_capacity_iteration_closes_the_bracket_in_few_iterations():
    # plain Blahut-Arimoto needs a median of 150 to 1 988 steps on such
    # channels at k = 2 to 16, and over 1 000 on about 3 in 4 at k = 16
    channels = [bsc(0.11).rows, bec(0.3).rows]
    for k in (2, 3, 4, 8, 16):
        channels += [np.random.default_rng(seed).dirichlet(np.ones(k), size=k)
                     for seed in range(50)]
    for rows in channels:
        lower, upper, iterations = info._capacity_bracket(rows, 1e-9)
        assert upper - lower <= 1e-9
        assert iterations <= 50


@pytest.mark.parametrize("inputs, outputs, seeds", [(10, 2, (0, 67, 72)),
                                                     (12, 12, (45, 49, 129))],
                         ids=["10x2", "12x12"])
def test_capacity_iteration_closes_the_bracket_on_near_deterministic_channels(
        inputs, outputs, seeds):
    # Dirichlet(0.03) rows hold entries down to 1e-100 and near-duplicate
    # rows: plain Blahut-Arimoto ends its 100 000 steps on the 10 x 2 ones
    # with a bracket of about 1e-6, and a Newton step that lets an output
    # run dry, or stops at a row of negligible mass, stalls
    for seed in seeds:
        rows = np.random.default_rng([seed, inputs, outputs]).dirichlet(
            np.full(outputs, 0.03), size=inputs)
        lower, upper, iterations = info._capacity_bracket(rows, 1e-9)
        assert upper - lower <= 1e-9
        assert iterations <= 50


def test_capacity_iteration_closes_the_bracket_where_newton_stops_helping():
    # a 12 x 12 Dirichlet(0.03) channel that needs some 500 iterations;
    # trying Newton only at powers of two past iteration 200 left plain
    # Blahut-Arimoto to crawl to the 100 000-iteration cap, bracket still open
    rows = np.random.default_rng([19, 12, 12]).dirichlet(np.full(12, 0.03), size=12)
    lower, upper, iterations = info._capacity_bracket(rows, 1e-9)
    assert upper - lower <= 1e-9
    assert iterations < 100_000


def test_capacity_iteration_stops_trying_newton_every_iteration_past_1024():
    # a zero-laden 17 x 7 Dirichlet(0.02) channel on which a Newton step
    # brings the bracket to 1.8e-9 by zeroing an input, the revive step gives
    # that input mass back, and the next Newton step zeroes it again: tried at
    # every iteration, this cycle runs to the 100 000-iteration cap (some
    # 40 s); tried at powers of two past 1 024, it leaves Blahut-Arimoto to
    # close the bracket
    rng = np.random.default_rng([55, 17, 7])
    rows = rng.dirichlet(np.full(7, 0.02), size=17)
    zero = rng.random((17, 7)) < 0.4
    zero[np.arange(17), rng.integers(0, 7, 17)] = False
    rows = np.where(zero, 0.0, rows)
    rows /= rows.sum(axis=1, keepdims=True)
    lower, upper, iterations = info._capacity_bracket(rows, 1e-9)
    assert upper - lower <= 1e-9
    assert iterations <= 2048


@pytest.mark.parametrize("inputs, outputs", [(3, 5), (5, 3), (16, 4), (4, 16)])
def test_capacity_bounds_the_information_of_every_input_law(inputs, outputs):
    rng = np.random.default_rng([inputs, outputs])
    for seed in range(10):
        rows = _zeroed_channel(inputs, outputs, seed)
        c = channel_capacity(DiscreteChannel(rows))
        for _ in range(20):
            law = rng.dirichlet(np.full(inputs, 0.5))
            joint = JointPMF.from_input_channel(DiscreteDistribution(law),
                                                DiscreteChannel(rows))
            assert mutual_information(joint) <= c + 1e-12


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_capacity_bounded_by_log_alphabet(k, seed):
    rng = np.random.default_rng(seed)
    channel = DiscreteChannel(rng.dirichlet(np.ones(k), size=k))
    c = channel_capacity(channel)
    assert -1e-9 <= c <= math.log2(k) + 1e-9
