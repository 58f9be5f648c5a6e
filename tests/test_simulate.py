import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bayeslb.cli import _SCENARIO_FNS
from bayeslb.info import DiscreteChannel, DiscreteDistribution, DistributionError, bsc
from bayeslb.scenarios import (ScenarioSpec, _block_rng, scenario_gauss_gauss,
                               scenario_xor)
from bayeslb.simulate import (BLOCK, SCHEMES, SimulationConfig,
                              SimulationResult, _count_and_parameter, _distortions,
                              _posterior_mean_error, _quantize_midpoint, _repeated_bits,
                              exact_chain_mi, sandwich_check, simulate_multi)

import oracles


def test_config_validation():
    spec = ScenarioSpec(tag="gauss-gauss", n=5)
    with pytest.raises(DistributionError):
        SimulationConfig(spec=spec, replications=0, seed=1)
    cfg = SimulationConfig(spec=spec, replications=10, seed=1,
                           scheme="gauss-gauss")
    assert cfg.scheme_name == "gauss-gauss"
    with pytest.raises(DistributionError):
        cfg._replace(replications=0)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 7, 1.5])
def test_config_rejects_seed_outside_64_bits(seed):
    spec = ScenarioSpec(tag="gauss-gauss", n=5)
    with pytest.raises(DistributionError):
        SimulationConfig(spec=spec, replications=10, seed=seed)
    with pytest.raises(DistributionError):
        SimulationConfig(spec=spec, replications=10, seed=0)._replace(seed=seed)


@pytest.mark.parametrize("reps", [2.5, True, 0, -1])
def test_config_rejects_replication_count_not_a_positive_integer(reps):
    spec = ScenarioSpec(tag="gauss-gauss", n=5)
    with pytest.raises(DistributionError):
        SimulationConfig(spec=spec, replications=reps, seed=1)
    with pytest.raises(DistributionError):
        SimulationConfig(spec=spec, replications=10, seed=1)._replace(replications=reps)


def test_block_rng_keyed_by_seed_and_block():
    a = _block_rng(7, 3).standard_normal(4)
    b = _block_rng(7, 3).standard_normal(4)
    c = _block_rng(7, 4).standard_normal(4)
    d = _block_rng(8, 3).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    # the documented contract: block b of seed s is child b of SeedSequence(s)
    # on SFC64
    child = np.random.SeedSequence(7).spawn(4)[3]
    assert np.array_equal(a, np.random.Generator(np.random.SFC64(child)).standard_normal(4))
    top = 2 ** 64 - 1
    child = np.random.SeedSequence(top).spawn(1)[0]
    assert np.array_equal(_block_rng(top, 0).random(4),
                          np.random.Generator(np.random.SFC64(child)).random(4))


@pytest.mark.parametrize("shape", [1, 257, (257, 3)])
@pytest.mark.parametrize("var_w, var_noise, samples",
                         [(1.0, 1.0, 1), (2.0, 0.3, 40), (1e-3, 1e3, 7), (1e3, 1e-3, 1000)])
def test_posterior_mean_error_matches_out_of_place_form(shape, var_w, var_noise, samples):
    spec = ScenarioSpec(tag="gauss-gauss", var_w=var_w, var_noise=var_noise)
    rng = _block_rng(5, 0)
    w = math.sqrt(var_w) * rng.standard_normal(shape)
    mean = w + math.sqrt(var_noise / samples) * rng.standard_normal(shape)
    reference = w - var_w / (var_w + var_noise / samples) * mean
    assert np.array_equal(_posterior_mean_error(spec, _block_rng(5, 0), shape, samples),
                          reference)


@pytest.mark.parametrize("n", [1, 16, 100])
def test_count_and_parameter_have_the_binomial_joint_law(n):
    """K uniform on {0, ..., n} and W | K ~ Beta(K + 1, n - K + 1) is the law
    of W ~ U[0, 1], K ~ Bin(n, W). Seeds, sizes and tolerances were fixed
    before the first run."""
    from scipy.stats import chisquare, kstest  # the oracle; the library never imports it
    k, w = _count_and_parameter(n, _block_rng(30, n), 200_000)
    counts = np.bincount(k, minlength=n + 1)
    assert counts.size == n + 1
    assert chisquare(counts).pvalue > 1e-3
    # each count's mean of W within 5 standard errors of its Beta mean
    groups = np.arange(n + 1)
    var = (groups + 1) * (n - groups + 1) / ((n + 2) ** 2 * (n + 3))
    means = np.bincount(k, weights=w, minlength=n + 1) / counts
    assert np.all(np.abs(means - (groups + 1) / (n + 2)) <= 5.0 * np.sqrt(var / counts))
    assert kstest(w, "uniform").pvalue > 1e-3


def _count_then_beta(n, size):
    """Block 0 of seed 7 drawn as documented: K uniform on {0, ..., n}, then
    W from Beta(K + 1, n - K + 1)."""
    rng = _block_rng(7, 0)
    k = rng.integers(0, n, size, endpoint=True)
    return k, rng.beta(k + 1.0, n - k + 1.0)


@pytest.mark.parametrize("name, fields", [
    ("bern-bsc", {"n": 100, "b": 4.0, "eps": 0.0}),
    ("xor-colocated", {"m": 2, "n": 100, "b": 2.0}),
])
def test_quantized_samplers_draw_the_count_then_its_parameter(name, fields):
    scheme = SCHEMES[name]
    spec = ScenarioSpec(tag=scheme.tag, **fields)
    k, w = _count_then_beta(100, 300)
    # both carry the mean in 4 bits
    assert np.array_equal(scheme.sample(spec, _block_rng(7, 0), 300),
                          np.abs(w - _quantize_midpoint(k / 100, 4)))


def test_bit_decode_matmul_is_the_weighted_sum():
    # exact integer arithmetic at every width up to the 63 bits of the largest count
    rng = np.random.default_rng(5)
    for width in range(1, 64):
        weights = 1 << np.arange(width)
        bits = rng.random((65, width)) < 0.5
        bits[0] = True
        assert np.array_equal(bits @ weights, (bits * weights).sum(axis=1))


def test_quantize_midpoint_edges():
    got = _quantize_midpoint(np.array([0.0, 0.999999, 1.0]), 2)
    # values at the top of the range stay in the last cell
    assert got.tolist() == [0.125, 0.875, 0.875]
    assert _quantize_midpoint(np.array([0.3]), 0).tolist() == [0.5]
    # 2^2000 cells is not a float; the grid is then the identity
    assert _quantize_midpoint(np.array([0.3, 1.0]), 2000).tolist() == [0.3, 1.0]


def test_majority_ties_report_zero():
    # over a useless channel two looks decode to 1 only on a 2-0 split of
    # ones, probability 1/4 for either sent bit (3/4 if ties went to 1)
    rng = np.random.default_rng(3)
    for sent in (0, 1):
        decoded = _repeated_bits(np.full(20000, sent), 2, 0.5, rng)
        assert abs(decoded.mean() - 0.25) < 0.02
    # with four looks a 2-2 split decodes to 0 whichever bit was sent; over a
    # uniform bit that errs half the time, as the oracle's fair coin does
    spec = ScenarioSpec(tag="bsc-bit", eps=0.1, T=4)
    cfg = SimulationConfig(spec=spec, replications=30000, seed=9)
    result = simulate_multi(cfg)
    target = float(oracles.majority_risk_mp(4, 0.1))
    assert abs(result.empirical_risk - target) <= 3.0 * result.ci_halfwidth


# ---------------------------------------------------------------------------
# exact mutual information along a repeated channel


CHAIN_MI_BSC025 = {1: 0.18872187554086714, 2: 0.33187775400669924,
                   3: 0.44640644156674926, 4: 0.53878560400100779}


@pytest.mark.parametrize("uses", sorted(CHAIN_MI_BSC025))
def test_exact_chain_mi_frozen(uses):
    prior = DiscreteDistribution(np.array([0.5, 0.5]))
    got = exact_chain_mi(prior, [bsc(0.25)], uses)
    assert_allclose(got, CHAIN_MI_BSC025[uses], rtol=1e-13)


def test_exact_chain_mi_of_a_constant_channel_is_zero():
    # the output mixture's single entry rounds to 1.0000000000000002
    prior = DiscreteDistribution(np.array([0.2, 0.4, 0.3, 0.1]))
    assert exact_chain_mi(prior, [DiscreteChannel(np.ones((4, 1)))], 2) == 0.0


def test_exact_chain_mi_zero_uses():
    assert exact_chain_mi(DiscreteDistribution(np.array([0.5, 0.5])), [bsc(0.1)], 0) == 0.0


def test_exact_chain_mi_guards():
    with pytest.raises(DistributionError):
        exact_chain_mi(DiscreteDistribution(np.array([1/3, 1/3, 1/3])), [bsc(0.1)], 1)
    with pytest.raises(DistributionError):
        exact_chain_mi(DiscreteDistribution(np.array([0.5, 0.5])), [bsc(0.1)], 25)


# ---------------------------------------------------------------------------
# determinism


def test_block_boundary_run():
    reps = 2 * BLOCK + 1
    spec = ScenarioSpec(tag="gauss-gauss", n=5)
    cfg = SimulationConfig(spec=spec, replications=reps, seed=21)
    scheme = SCHEMES["gauss-gauss"]
    draws = _distortions(cfg, scheme)
    assert draws.shape == (reps,)
    # blocks are concatenated in index order, the last holding one draw
    assert np.array_equal(draws[:BLOCK],
                          scheme.sample(spec, _block_rng(21, 0), BLOCK))
    assert np.array_equal(draws[2 * BLOCK:],
                          scheme.sample(spec, _block_rng(21, 2), 1))
    first = simulate_multi(cfg)
    assert first.replications == reps
    assert simulate_multi(cfg) == first
    other = simulate_multi(cfg._replace(seed=22))
    assert other.empirical_risk != first.empirical_risk


def test_seed_changes_output():
    spec = ScenarioSpec(tag="gauss-gauss", n=5)
    a = simulate_multi(SimulationConfig(spec=spec, replications=200, seed=1))
    b = simulate_multi(SimulationConfig(spec=spec, replications=200, seed=2))
    assert a.empirical_risk != b.empirical_risk


# ---------------------------------------------------------------------------
# scheme-level statistical checks


def test_gauss_gauss_matches_posterior_risk():
    spec = ScenarioSpec(tag="gauss-gauss", n=10)
    cfg = SimulationConfig(spec=spec, replications=20000, seed=3)
    result = simulate_multi(cfg)
    target = oracles.mmae_gauss(math.sqrt(1.0 / 11.0))
    assert abs(result.empirical_risk - target) <= 3.0 * result.ci_halfwidth


def test_bsc_bit_matches_majority_oracle():
    spec = ScenarioSpec(tag="bsc-bit", eps=0.1, T=5)
    cfg = SimulationConfig(spec=spec, replications=30000, seed=9)
    result = simulate_multi(cfg)
    target = float(oracles.majority_risk_mp(5, 0.1))
    assert abs(result.empirical_risk - target) <= 3.0 * result.ci_halfwidth


DGLM = {"m": 5, "n": 20, "d": 2, "var_w": 1.0, "var_noise": 4.0}

# (scheme, spec fields, exact risk of the scheme)
ORACLE_RUNS = [
    ("gauss-gauss", {"n": 10}, lambda: oracles.mmae_gauss(math.sqrt(1.0 / 11.0))),
    ("bern-bsc", {"n": 64, "b": 4.0, "eps": 0.0, "T": None},
     lambda: oracles.quantized_count_risk(64, 4.0)),
    ("bern-bsc", {"n": 20, "b": 5.0, "eps": 0.15, "T": 20},
     lambda: oracles.repetition_count_risk(20, 0.15, 20)),
    ("bsc-bit", {"eps": 0.1, "T": 7}, lambda: float(oracles.majority_risk_mp(7, 0.1))),
    # E|W - 1/2| for W uniform on [0, 1]
    ("xor", {"m": 2, "n": 16, "b": 0.0}, lambda: 0.25),
    ("xor-colocated", {"m": 2, "n": 16, "b": 2.0},
     lambda: oracles.quantized_count_risk(16, 4.0)),
    # d times the posterior variance var_w var_noise / (var_noise + mn var_w)
    ("gauss-multi", DGLM, lambda: 2 * 4.0 / (4.0 + 100.0)),
]


@pytest.mark.parametrize("name, fields, oracle", ORACLE_RUNS)
def test_scheme_matches_exact_oracle(name, fields, oracle):
    scheme = SCHEMES[name]
    spec = ScenarioSpec(tag=scheme.tag, **fields)
    result = simulate_multi(SimulationConfig(spec=spec, replications=20000, seed=31,
                                             scheme=name))
    assert abs(result.empirical_risk - oracle()) <= 3.0 * result.ci_halfwidth


def test_bern_bsc_routes_on_noise():
    # the noiseless case quantizes and needs no use count at all
    clean = ScenarioSpec(tag="bern-bsc", n=64, b=4.0, eps=0.0, T=None)
    cfg = SimulationConfig(spec=clean, replications=200, seed=2)
    clean_result = simulate_multi(cfg)
    assert clean_result.scheme == "bern-bsc"
    # b = 7 carries the whole count, which a noisy link sends bit by bit
    noisy = ScenarioSpec(tag="bern-bsc", n=64, b=7.0, eps=0.1, T=40)
    cfg = SimulationConfig(spec=noisy, replications=200, seed=2)
    noisy_result = simulate_multi(cfg)
    assert noisy_result.empirical_risk != clean_result.empirical_risk


@pytest.mark.parametrize("n, bits, eps, T", [(100, 4, 0.1, 70), (20, 2, 0.15, 20),
                                             (33, 3, 0.05, 9)])
def test_bern_bsc_sends_the_b_bit_cell_below_the_count(n, bits, eps, T):
    # fewer than bit_length(n) bits carry the sample mean's midpoint cell
    spec = ScenarioSpec(tag="bern-bsc", n=n, b=bits + 0.5, eps=eps, T=T)
    result = simulate_multi(
        SimulationConfig(spec=spec, replications=20000, seed=31))
    oracle = oracles.cell_repetition_risk(n, bits, eps, T)
    assert abs(result.empirical_risk - oracle) <= 3.0 * result.ci_halfwidth


def test_bern_bsc_count_width_is_the_bit_length_of_n():
    n = 2 ** 53
    # the count K = n takes 54 bits, so 53 uses leave one bit without a look
    whole = ScenarioSpec(tag="bern-bsc", n=n, b=54.0, eps=0.1, T=53)
    with pytest.raises(DistributionError):
        simulate_multi(SimulationConfig(spec=whole, replications=1, seed=1))
    # 53 bits carry the mean's 53-bit midpoint cell, K = n in the top one; no
    # flip is drawn at this crossover
    spec = ScenarioSpec(tag="bern-bsc", n=n, b=53.0, eps=1e-300, T=53)
    k, w = _count_then_beta(n, 300)
    assert np.array_equal(SCHEMES["bern-bsc"].sample(spec, _block_rng(7, 0), 300),
                          np.abs(w - (np.minimum(k, n - 1) + 0.5) / n))


def test_bern_bsc_zero_bits_give_the_prior_centroid():
    spec = ScenarioSpec(tag="bern-bsc", n=100, b=0.0, eps=0.1, T=70)
    result = simulate_multi(
        SimulationConfig(spec=spec, replications=20000, seed=31))
    # E|W - 1/2| for W uniform on [0, 1]
    assert abs(result.empirical_risk - 0.25) <= 3.0 * result.ci_halfwidth


def test_bern_bsc_case2_needs_enough_uses():
    # fewer channel uses than message bits leaves no room for even one look
    spec = ScenarioSpec(tag="bern-bsc", n=64, b=4.0, eps=0.1, T=3)
    cfg = SimulationConfig(spec=spec, replications=10, seed=2)
    with pytest.raises(DistributionError):
        simulate_multi(cfg)


def test_xor_block_parity_law():
    rng = np.random.default_rng(12)
    m, n = 4, 2000
    freq_ones = np.zeros(m)
    for _ in range(50):
        w = rng.uniform()
        block = oracles.sample_xor_block(w, m, n, rng)
        assert block.shape == (m, n)
        freq_ones += block.mean(axis=1) / 50.0
        # column parities are Bernoulli(w): a five-sigma band at n = 2000
        parity = np.bitwise_xor.reduce(block, axis=0)
        assert abs(parity.mean() - w) < 0.06
    # each processor's stream is marginally fair whatever w is
    assert np.all(np.abs(freq_ones - 0.5) < 0.02)


def test_xor_single_processor_risk_near_quarter():
    spec = ScenarioSpec(tag="xor", m=2, n=16, b=0.0)
    cfg = SimulationConfig(spec=spec, replications=20000, seed=17,
                           scheme="xor")
    result = simulate_multi(cfg)
    assert abs(result.empirical_risk - 0.25) < 0.01
    assert result.empirical_risk >= 1.0 / (2.0 * math.e)


def test_gauss_multi_near_centralized():
    spec = ScenarioSpec(tag="dglm", m=5, n=20, d=2, var_w=1.0, var_noise=4.0)
    cfg = SimulationConfig(spec=spec, replications=20000, seed=8,
                           scheme="gauss-multi")
    result = simulate_multi(cfg)
    central = 2 * 4.0 / (100.0 + 4.0)
    assert abs(result.empirical_risk - central) <= 4.0 * result.ci_halfwidth


def test_unknown_scheme_rejected():
    spec = ScenarioSpec(tag="gauss-gauss", n=5)
    with pytest.raises(DistributionError, match="unknown scheme 'nonesuch'"):
        SimulationConfig(spec=spec, replications=10, seed=1, scheme="nonesuch")
    # a spec whose tag names no scheme needs one named
    with pytest.raises(DistributionError, match="unknown scheme 'dglm'"):
        SimulationConfig(spec=ScenarioSpec(tag="dglm"), replications=10, seed=1)


# ---------------------------------------------------------------------------
# sandwich checks


def _gauss_pair(n=10, reps=5000, seed=3):
    spec = ScenarioSpec(tag="gauss-gauss", n=n)
    report = scenario_gauss_gauss(spec)
    cfg = SimulationConfig(spec=spec, replications=reps, seed=seed)
    return report, simulate_multi(cfg)


def test_sandwich_passes_on_consistent_pair():
    report, result = _gauss_pair()
    verdict = sandwich_check(report, result)
    assert verdict.passed
    assert not verdict.hard_failures
    assert any(key.startswith("lower:") for key in verdict.margins)
    assert any(key.startswith("upper:") for key in verdict.margins)


def test_sandwich_flags_inflated_lower_bound():
    report, result = _gauss_pair()
    bad = report.lower_bounds["corollary"]._replace(
        value=10.0 * result.empirical_risk)
    report.lower_bounds["corollary"] = bad
    verdict = sandwich_check(report, result)
    assert not verdict.passed
    assert any("corollary" in msg for msg in verdict.hard_failures)


def test_sandwich_asymptotic_violation_is_advisory():
    report, result = _gauss_pair()
    bad = report.lower_bounds["unconditioned_asymptotic"]._replace(
        value=10.0 * result.empirical_risk)
    report.lower_bounds["unconditioned_asymptotic"] = bad
    verdict = sandwich_check(report, result)
    assert verdict.passed
    assert verdict.advisories


def test_sandwich_rejects_mismatched_tags():
    spec = ScenarioSpec(tag="xor", m=2, n=16, b=0.0)
    report = scenario_xor(spec)
    _, result = _gauss_pair(reps=100)
    with pytest.raises(DistributionError):
        sandwich_check(report, result)


def test_sandwich_accepts_dglm_gauss_multi_pairing():
    from bayeslb.scenarios import scenario_dglm_decentralized
    spec = ScenarioSpec(tag="dglm", m=5, n=20, d=2, var_w=1.0, var_noise=4.0)
    cfg = SimulationConfig(spec=spec, replications=2000, seed=8,
                           scheme="gauss-multi")
    report = scenario_dglm_decentralized(cfg.spec)
    result = simulate_multi(cfg)
    verdict = sandwich_check(report, result)
    assert verdict.passed


def test_sandwich_accepts_dglm_gauss_multi_pairing_only_by_table():
    spec = ScenarioSpec(tag="gauss-gauss", n=5)
    result = simulate_multi(
        SimulationConfig(spec=spec, replications=50, seed=1))
    dglm = ScenarioSpec(tag="dglm", m=5, n=20, total_samples=100,
                        total_bits=400.0)
    with pytest.raises(DistributionError):
        sandwich_check(_SCENARIO_FNS["dglm"](dglm), result)


@pytest.mark.parametrize("risk, halfwidth", [
    (math.nan, 0.01), (math.inf, 0.01), (0.3, math.nan), (0.3, math.inf)])
def test_sandwich_non_finite_result_is_hard_failure(risk, halfwidth):
    report = scenario_gauss_gauss(ScenarioSpec(tag="gauss-gauss", n=10))
    result = SimulationResult(risk, halfwidth, 100, 0, "gauss-gauss")
    verdict = sandwich_check(report, result)
    assert verdict.passed is False
    assert any("not finite" in msg for msg in verdict.hard_failures)


# ---------------------------------------------------------------------------
# the scheme table: which bounds each scheme is checked against


def _checked_pair(name, reps=2000, **fields):
    scheme = SCHEMES[name]
    config = SimulationConfig(spec=ScenarioSpec(tag=scheme.tag, **fields),
                              replications=reps, seed=4, scheme=name)
    return _SCENARIO_FNS[scheme.tag](config.spec), simulate_multi(config)


PAIRINGS = [
    ("gauss-gauss", {"n": 10},
     {"lower:corollary", "lower:s_half_chain",
      "lower:unconditioned_asymptotic", "upper:posterior_mean"}),
    ("bern-bsc", {"n": 256, "b": 4.0, "eps": 0.0, "T": None},
     {"lower:mi", "lower:case1", "upper:case1"}),
    ("bern-bsc", {"n": 100, "b": 7.0, "eps": 0.1, "T": 70},
     {"lower:mi", "lower:case2", "upper:case2"}),
    ("bsc-bit", {"eps": 0.1, "T": 7},
     {"lower:no_feedback", "lower:feedback", "upper:repetition"}),
    ("xor", {"m": 2, "n": 16, "b": 2.0},
     {"lower:distributed", "lower:colocated"}),
    ("xor-colocated", {"m": 2, "n": 16, "b": 2.0}, {"lower:colocated"}),
    ("gauss-multi", {"m": 5, "n": 20, "d": 2, "var_w": 1.0, "var_noise": 4.0},
     {"lower:decentralized"}),
]


@pytest.mark.parametrize("name, fields, keys", PAIRINGS)
def test_scheme_checked_against_its_own_bounds(name, fields, keys):
    report, result = _checked_pair(name, **fields)
    verdict = sandwich_check(report, result)
    assert set(verdict.margins) == keys
    assert verdict.passed


@pytest.mark.parametrize("name, inflated, passed", [
    ("xor-colocated", "colocated", False),
    ("xor-colocated", "distributed", True),
    ("xor", "distributed", False),
    ("xor", "colocated", False)])
def test_parity_schemes_fail_only_their_own_inflated_bounds(name, inflated,
                                                            passed):
    report, result = _checked_pair(name, m=2, n=16, b=2.0)
    bound = report.lower_bounds[inflated]
    report.lower_bounds[inflated] = bound._replace(value=1.0)
    assert sandwich_check(report, result).passed is passed
