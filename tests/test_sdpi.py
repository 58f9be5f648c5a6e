import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from bayeslb import sdpi
from bayeslb.info import DiscreteChannel, DiscreteDistribution, DistributionError, bec, bsc
from bayeslb.sdpi import (ContractionEstimate, dobrushin,
                          dobrushin_bern_uniform_posterior, eta_bsc,
                          eta_multi_use, eta_numeric, pairwise_ratio_bound)

import oracles

FAIR = DiscreteDistribution(np.array([0.5, 0.5]))


@pytest.mark.parametrize("eps", [0.0, 0.1, 0.25, 0.4, 0.5])
def test_eta_bsc_closed_form(eps):
    assert_allclose(eta_bsc(eps).value, (1.0 - 2.0 * eps) ** 2, rtol=0, atol=1e-15)
    assert eta_bsc(eps).kind == "exact"


def test_dobrushin_bsc_is_one_minus_two_eps():
    assert_allclose(dobrushin(bsc(0.2)).value, 0.6, rtol=0, atol=1e-15)


def test_dobrushin_dominates_eta_numeric_on_bsc():
    est = eta_numeric(FAIR, bsc(0.2))
    assert est.value <= dobrushin(bsc(0.2)).value + 1e-9


def test_eta_numeric_bsc_tolerance_window():
    for eps in (0.1, 0.25, 0.4):
        est = eta_numeric(FAIR, bsc(eps))
        dev = est.value - (1.0 - 2.0 * eps) ** 2
        assert -1e-3 <= dev <= 1e-9
        assert est.kind == "numeric_lower_estimate"


def test_eta_numeric_bec():
    mu = DiscreteDistribution(np.array([0.5, 0.5]))
    est = eta_numeric(mu, bec(0.25))
    dev = est.value - 0.75
    assert -1e-3 <= dev <= 1e-9


def test_eta_numeric_deterministic():
    a = eta_numeric(FAIR, bsc(0.3))
    b = eta_numeric(FAIR, bsc(0.3))
    assert a.value == b.value


def _eta_chi2(mu, rows) -> float:
    """Squared second singular value of the divergence transition matrix."""
    out = mu @ rows
    used = out > 0.0
    dtm = np.sqrt(mu)[:, None] * rows[:, used] / np.sqrt(out[used])[None, :]
    sv = np.linalg.svd(dtm, compute_uv=False)
    return float(sv[1] ** 2) if sv.size > 1 else 0.0


@given(st.integers(min_value=0, max_value=10**6), st.integers(2, 6),
       st.integers(2, 6), st.sampled_from([0.3, 2.0]))
@settings(max_examples=15, deadline=None)
def test_eta_numeric_below_dobrushin(seed, inputs, outputs, alpha):
    """The numeric lower estimate lies between the chi-square contraction,
    which lower-bounds the KL one, and the Dobrushin coefficient."""
    rng = np.random.default_rng(seed)
    channel = DiscreteChannel(rng.dirichlet(np.full(outputs, alpha), size=inputs))
    mu = DiscreteDistribution(rng.dirichlet(np.ones(inputs)))
    est = eta_numeric(mu, channel)
    assert _eta_chi2(mu.probs, channel.rows) - 1e-6 <= est.value
    assert est.value <= dobrushin(channel).value + 1e-9


@pytest.mark.parametrize("k, outputs", [(2, 2), (3, 5), (4, 4), (8, 12), (16, 16)])
def test_scan_matches_the_step_by_step_loop(k, outputs):
    rng = np.random.default_rng([k, outputs])
    rows = rng.dirichlet(np.full(outputs, 0.5), size=k)
    rows[:, 0] = 0.0  # an output no input reaches is left out of D(. || mu K)
    rows /= rows.sum(axis=1, keepdims=True)
    mu = rng.dirichlet(np.ones(k))
    fracs = np.geomspace(1e-6, 1.0, 60)
    # a zero and a NaN direction cannot move nu
    directions = np.array([*(np.eye(k) - mu), *rng.standard_normal((20, k)),
                           np.zeros(k), np.full(k, np.nan)])
    for grid in (fracs, fracs[::4]):
        one_by_one = [tuple(x[0].item()
                            for x in sdpi._scan_many(mu, mu @ rows, rows, d[None], grid))
                      for d in directions]
        assert one_by_one == [oracles.scan_step_by_step(mu, mu @ rows, rows, d, grid)
                              for d in directions]
        for scan in (sdpi._scan_many, sdpi._scan_blocks):
            ratios, steps = scan(mu, mu @ rows, rows, directions, grid)
            assert list(zip(ratios.tolist(), steps.tolist())) == one_by_one


def _seeded_pair(k, outputs=None):
    rng = np.random.default_rng(k if outputs is None else [k, outputs])
    mu = rng.dirichlet(np.ones(k))
    return mu, DiscreteChannel(rng.dirichlet(np.ones(outputs or k), size=k))


# eta_numeric values, and a SHA-256 prefix of the argmax bytes, as the
# scalar per-step search with one restart after another computed them
PINNED_ETA = {
    "bsc-0.1": (lambda: (FAIR, bsc(0.1)), "0x1.47ae147ae1323p-1", "b27b8205cf6e4858"),
    "bsc-0.25": (lambda: (FAIR, bsc(0.25)), "0x1.ffffffffffb9bp-3", "979c727444412bf3"),
    "bsc-0.4": (lambda: (FAIR, bsc(0.4)), "0x1.47ae147ae10e0p-5", "b27b8205cf6e4858"),
    "bec-0.1": (lambda: (FAIR, bec(0.1)), "0x1.cccccccccccf5p-1", "518d6f1a8047a539"),
    "bec-0.25": (lambda: (FAIR, bec(0.25)), "0x1.8000000000056p-1", "9561b7d647f757d5"),
    "bec-0.4": (lambda: (FAIR, bec(0.4)), "0x1.3333333333377p-1", "9561b7d647f757d5"),
    "dirichlet-k2": (lambda: _seeded_pair(2), "0x1.82a089727d885p-9", "a0c01a06f0d57ea8"),
    "dirichlet-k4": (lambda: _seeded_pair(4), "0x1.4e764d6db0738p-2", "df705da6809d36f2"),
    "dirichlet-k8": (lambda: _seeded_pair(8), "0x1.3642289b797f4p-2", "f941260e1b0ab8ed"),
    "dirichlet-k16": (lambda: _seeded_pair(16), "0x1.38cf4e9b0b6b0p-2", "3b61b5289e816dda"),
    "dirichlet-3x5": (lambda: _seeded_pair(3, outputs=5), "0x1.803f24972bd60p-2",
                      "7984405694f753eb"),
}


@pytest.mark.parametrize("name", PINNED_ETA)
def test_eta_numeric_values_are_pinned(name):
    case, value, argmax = PINNED_ETA[name]
    est = eta_numeric(*case())
    assert est.value.hex() == value
    assert hashlib.sha256(est.argmax.tobytes()).hexdigest()[:16] == argmax


def test_pairwise_ratio_bound_bsc049():
    # alpha = 0.49/0.51 per output, so the n-sample bound is 1 - (49/51)^n
    bound = pairwise_ratio_bound(bsc(0.49), n=100)
    assert_allclose(bound.alpha, 49.0 / 51.0, rtol=1e-15)
    assert_allclose(bound.forward.value, 0.98169412919139994, rtol=1e-13)
    assert not bound.degenerate


def test_pairwise_ratio_bound_degenerate_when_support_differs():
    rows = np.array([[1.0, 0.0], [0.5, 0.5]])
    bound = pairwise_ratio_bound(DiscreteChannel(rows))
    assert bound.degenerate
    assert bound.forward.value == 1.0


def test_eta_multi_use_product_rule():
    est = eta_multi_use(0.25, 4)
    assert_allclose(est.value, 1.0 - 0.75 ** 4, rtol=1e-15)
    assert_allclose(est.value, 0.68359375, rtol=0, atol=1e-15)


def test_eta_multi_use_keeps_lower_estimate_kind():
    lower = eta_numeric(FAIR, bsc(0.1))
    for T in (1, 2, 3, 7.5):
        assert eta_multi_use(lower, T).kind == "numeric_lower_estimate"


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=30))
@settings(max_examples=100, deadline=None)
def test_eta_multi_use_monotone_in_T(eta, T):
    assert eta_multi_use(eta, T + 1).value >= eta_multi_use(eta, T).value - 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_posterior_dobrushin_matches_quadrature(n):
    v = dobrushin_bern_uniform_posterior(n)
    assert_allclose(v, oracles.beta_posterior_tv_extremes(n), rtol=0, atol=1e-10)
    assert_allclose(v, 1.0 - 2.0 ** (-n), rtol=0, atol=1e-12)


def test_contraction_estimate_validation():
    with pytest.raises(DistributionError):
        ContractionEstimate(1.5, "exact")
    with pytest.raises(DistributionError):
        ContractionEstimate(0.5, "guess")
