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

# eta_numeric guards its own logs and divisions: no RuntimeWarning may escape
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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
    """Equal inputs give equal values and argmax bytes, whatever the state of
    numpy's global generator, on a square and a non-square channel."""
    state = np.random.get_state()
    try:
        for case in (lambda: (FAIR, bsc(0.3)), lambda: _seeded_pair(3, outputs=5)):
            np.random.seed(1)
            a = eta_numeric(*case())
            np.random.seed(2)
            b = eta_numeric(*case())
            assert a.value.hex() == b.value.hex()
            assert a.argmax.tobytes() == b.argmax.tobytes()
    finally:
        np.random.set_state(state)


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


def _rng0_3x4():
    rng = np.random.default_rng(0)
    mu = rng.dirichlet(np.ones(3))
    return mu, DiscreteChannel(rng.dirichlet(np.ones(4), size=3))


# eta_numeric values, and a SHA-256 prefix of the argmax bytes, as the scan
# followed by mirror ascent computes them; none is below the value the earlier
# coordinate-ascent restarts gave by more than 1e-12
PINNED_ETA = {
    "bsc-0.1": (lambda: (FAIR, bsc(0.1)), "0x1.47ae147ae1323p-1", "979c727444412bf3"),
    "bsc-0.25": (lambda: (FAIR, bsc(0.25)), "0x1.ffffffffffb9bp-3", "979c727444412bf3"),
    "bsc-0.4": (lambda: (FAIR, bsc(0.4)), "0x1.47ae147ae10e0p-5", "b27b8205cf6e4858"),
    "bec-0.1": (lambda: (FAIR, bec(0.1)), "0x1.cccccccccccf5p-1", "518d6f1a8047a539"),
    "bec-0.25": (lambda: (FAIR, bec(0.25)), "0x1.8000000000036p-1", "a1b11019eefc3aa5"),
    "bec-0.4": (lambda: (FAIR, bec(0.4)), "0x1.333333333334ep-1", "71163c1df553d874"),
    "dirichlet-k2": (lambda: _seeded_pair(2), "0x1.82af4820d1131p-9", "9551f84bd53f266d"),
    "dirichlet-k4": (lambda: _seeded_pair(4), "0x1.4e972eacc30c8p-2", "7d5bc5b11efa6ba7"),
    "dirichlet-k8": (lambda: _seeded_pair(8), "0x1.38d9dfe319137p-2", "33a76b426e0667cb"),
    "dirichlet-k16": (lambda: _seeded_pair(16), "0x1.3e880985bd80fp-2", "718b879452733201"),
    "dirichlet-3x5": (lambda: _seeded_pair(3, outputs=5), "0x1.822c91e65d656p-2",
                      "fca564eef76cae32"),
    "rng0-3x4": (_rng0_3x4, "0x1.5d3bab7bdd878p-3", "53a6dab3539c4342"),
}


@pytest.mark.parametrize("name", PINNED_ETA)
def test_eta_numeric_values_are_pinned(name):
    case, value, argmax = PINNED_ETA[name]
    est = eta_numeric(*case())
    assert est.value.hex() == value
    assert hashlib.sha256(est.argmax.tobytes()).hexdigest()[:16] == argmax


def _assert_argmax_scores_value(mu, channel, est):
    """The argmax is a pmf other than mu, and its ratio, recomputed from two
    plain divergences, is the value."""
    nu = est.argmax
    assert np.all(nu >= 0.0) and abs(nu.sum() - 1.0) <= 1e-12
    din, dout = oracles.kl_pair_mp(getattr(mu, "probs", mu), channel.rows, nu)
    assert din > 0.0
    assert abs(dout / din - est.value) <= 1e-9 * est.value


# a search that drifts onto nu = mu scores the ratio of rounding noise: on
# rng0-3x4, whose Dobrushin coefficient is 0.55, such a search reported 0.98
@pytest.mark.parametrize("name", PINNED_ETA)
def test_eta_numeric_argmax_scores_its_value(name):
    mu, channel = PINNED_ETA[name][0]()
    est = eta_numeric(mu, channel)
    _assert_argmax_scores_value(mu, channel, est)
    assert est.value <= dobrushin(channel).value + 1e-12


def _corpus_pair(k, i):
    """Channel i of the regression corpus: k - 1 to k + 2 outputs, rows from
    Dirichlet(1), Dirichlet(0.3) or near-deterministic Dirichlet(0.03), an
    output no input reaches when i % 4 == 3, and mu from Dirichlet(1 or 4)."""
    rng = np.random.default_rng([16, k, i])
    rows = rng.dirichlet(np.full(max(2, k - 1 + i % 4), (1.0, 0.3, 0.03)[i % 3]), size=k)
    if i % 4 == 3:
        rows[:, 0] = 0.0
        rows /= rows.sum(axis=1, keepdims=True)
    return rng.dirichlet(np.full(k, 4.0 if i % 2 else 1.0)), DiscreteChannel(rows)


# eta_numeric(*_corpus_pair(k, i)) for i = 0..7, computed at the commit before
# mirror ascent replaced the coordinate-ascent restarts; the ascent falls
# short of none of them
CORPUS_ETA = {
    2: ["0x1.3130ee52b0eaep-2", "0x1.086d60305f466p-4", "0x1.ffffffffa110ep-1",
        "0x1.3689150e17328p-7", "0x1.aec468ddaa4fep-4", "0x1.fffffffffffcfp-1",
        "0x1.01c83e1a6ac38p-4", "0x1.a5a8ec29f2a6fp-3"],
    3: ["0x1.bbc4ce5d750dap-2", "0x1.b80f8cf1b93fbp-1", "0x1.fde250452a105p-1",
        "0x1.1276f11cd3e0cp-3", "0x1.068dc6ca96723p-2", "0x1.fffdd480bda58p-1",
        "0x1.56b5d9728acafp-2", "0x1.1584f18333a35p-1"],
    4: ["0x1.7c67df611550bp-3", "0x1.20b3df534da9ep-1", "0x1.feb552adca254p-1",
        "0x1.9e9524d466af5p-3", "0x1.d2ffc4e41beedp-1", "0x1.2adf5270f93cdp-4",
        "0x1.0dc2553aa303ep-2", "0x1.b18372db027f2p-1"],
    8: ["0x1.5fa23491e2c0dp-2", "0x1.e8dd6fac05509p-2", "0x1.fd6d6e4500854p-1",
        "0x1.f005ea1452b04p-3", "0x1.c0e13e0cb8d2dp-2", "0x1.d32240f164698p-1",
        "0x1.9622457b2edbcp-2", "0x1.3c5e0f7a268a7p-1"],
    16: ["0x1.10edb0d431d74p-2", "0x1.49089506db13cp-1", "0x1.f7a1a00686244p-1",
         "0x1.e084d8c7f7841p-3", "0x1.d631228d490c4p-2", "0x1.ec15e894f4bf9p-1",
         "0x1.2cfa4939ee39dp-2", "0x1.d39e5d620b3c7p-2"],
}


@pytest.mark.parametrize("k", CORPUS_ETA)
def test_eta_numeric_keeps_the_corpus_values(k):
    """No earlier value is lost, and each lies between the chi-square and the
    Dobrushin coefficient, at the tolerances of the bound-pipeline check."""
    for i, pinned in enumerate(CORPUS_ETA[k]):
        mu, channel = _corpus_pair(k, i)
        est = eta_numeric(mu, channel)
        assert est.value >= float.fromhex(pinned) - 1e-9, i
        assert _eta_chi2(mu, channel.rows) - 1e-6 <= est.value <= dobrushin(channel).value + 1e-12
        _assert_argmax_scores_value(mu, channel, est)


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
