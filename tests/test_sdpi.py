import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from bayeslb import sdpi
from bayeslb.info import DiscreteChannel, DiscreteDistribution, DistributionError, bec, bsc
from bayeslb.sdpi import (ContractionEstimate, dobrushin, eta_bsc, eta_multi_use,
                          eta_numeric, pairwise_ratio_bound)

import oracles

FAIR = DiscreteDistribution(np.array([0.5, 0.5]))

# eta_numeric guards its own logs and divisions: no RuntimeWarning may escape
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.mark.parametrize("eps", [0.0, 0.1, 0.25, 0.4, 0.5])
def test_eta_bsc_closed_form(eps):
    assert_allclose(eta_bsc(eps).value, (1.0 - 2.0 * eps) ** 2, rtol=0, atol=1e-15)
    assert eta_bsc(eps).upper == eta_bsc(eps).value


def test_dobrushin_bsc_is_one_minus_two_eps():
    assert_allclose(dobrushin(bsc(0.2)).value, 0.6, rtol=0, atol=1e-15)


def test_dobrushin_is_at_most_one_on_a_near_deterministic_channel():
    """Half the rows' summed differences rounds to 1.0000000000000002 here."""
    rows = np.random.default_rng(73).dirichlet(np.full(6, 0.01), size=4)
    assert 0.5 * np.abs(rows[:, None] - rows[None]).sum(axis=-1).max() > 1.0
    assert dobrushin(DiscreteChannel(rows)).value == 1.0


def test_dobrushin_counts_the_mass_one_row_puts_above_the_other():
    """Both rows sum to 1.0 in floats, yet the second puts 1e-40 more on
    output 0: half the L1 distance, 5e-41, falls below the 9.06e-41 that
    the rows score at 50 digits, and the value capped at it would too."""
    channel = DiscreteChannel(np.array([[1e-72, 1.0], [1e-40, 1.0]]))
    assert dobrushin(channel).value == 1e-40
    mu = np.array([0.8180085954320669, 0.18199140456793297])
    _assert_argmax_scores_value(mu, channel, eta_numeric(mu, channel))


def test_dobrushin_dominates_eta_numeric_on_bsc():
    est = eta_numeric(FAIR, bsc(0.2))
    assert est.value <= dobrushin(bsc(0.2)).value + 1e-9


def test_eta_numeric_bsc_tolerance_window():
    for eps in (0.1, 0.25, 0.4):
        est = eta_numeric(FAIR, bsc(eps))
        dev = est.value - (1.0 - 2.0 * eps) ** 2
        assert -1e-3 <= dev <= 1e-9
        assert est.upper == dobrushin(bsc(eps)).value == 1.0 - 2.0 * eps


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
    """The search's value lies between the chi-square contraction,
    which lower-bounds the KL one, and the Dobrushin coefficient."""
    rng = np.random.default_rng(seed)
    channel = DiscreteChannel(rng.dirichlet(np.full(outputs, alpha), size=inputs))
    mu = DiscreteDistribution(rng.dirichlet(np.ones(inputs)))
    est = eta_numeric(mu, channel)
    assert _eta_chi2(mu.probs, channel.rows) - 1e-6 <= est.value
    assert est.value <= dobrushin(channel).value + 1e-9


@pytest.mark.parametrize("k, outputs", [(2, 3), (3, 5), (4, 4), (8, 12), (16, 16)])
def test_ratio_kernel_matches_the_oracles(k, outputs):
    """``_ratio`` scores a batch of diffs as the one-vector Bregman form and
    the 50-digit plain divergences do, leaves out an output no input
    reaches, and gives -inf for a zero diff and one below the floor. Asked
    for its logs, it returns the same scores and log(nu / mu), then
    log(nu K / mu K) on the reached outputs."""
    rng = np.random.default_rng([19, k, outputs])
    rows = rng.dirichlet(np.full(outputs, 0.5), size=k)
    rows[:, 0] = 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    mu = rng.dirichlet(np.ones(k))
    nus = np.concatenate([rng.dirichlet(np.ones(k), 6), mu + 1e-3 * (np.eye(k)[:2] - mu)])
    ratios, dins = sdpi._ratio(mu, rows)((nus - mu).reshape(2, -1, k))
    *scores, logs = sdpi._ratio(mu, rows)((nus - mu).reshape(2, -1, k), logs=True)
    assert all(np.array_equal(a, b) for a, b in zip(scores, (ratios, dins)))
    want = [oracles.log_ratios_mp(mu, rows, nu) for nu in nus]
    assert_allclose(logs.reshape(len(nus), -1), want, rtol=1e-12, atol=0)
    for nu, ratio, din in zip(nus, ratios.ravel(), dins.ravel()):
        want_in = oracles._kl_shifted_1d(mu, nu - mu)
        want = oracles._kl_shifted_1d(mu @ rows, (nu - mu) @ rows) / want_in
        assert_allclose([ratio, din], [want, want_in], rtol=1e-12, atol=0)
        mp_in, mp_out = oracles.kl_pair_mp(mu, rows, nu)
        assert_allclose([ratio, din], [mp_out / mp_in, mp_in], rtol=1e-9, atol=0)
    # 1e-7 of the way to a vertex, D(nu || mu) is about 1e-14 bits
    tiny = 1e-7 * (np.eye(k)[0] - mu)
    ratios, dins = sdpi._ratio(mu, rows)(np.array([np.zeros(k), tiny]))
    assert ratios.tolist() == [-np.inf, -np.inf]
    assert dins[0] == 0.0 and 0.0 < dins[1] < sdpi._FLOOR


def test_ratio_kernel_scores_an_emptied_entry():
    """nu = (0, 1/2, 1/2) against mu = (1/2, 1/4, 1/4) empties input 0 and
    output 0 (u = -1 exactly): each scores g(-1) = 1, so D(nu || mu) = 1
    bit, and its log is cut at -690. The ascent then climbs from nu with a
    finite gradient and no RuntimeWarning, which this module makes an error."""
    mu, nu = np.array([0.5, 0.25, 0.25]), np.array([0.0, 0.5, 0.5])
    rows = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0], [0.0, 0.0, 0.5, 0.5]])
    ratio = sdpi._ratio(mu, rows)
    f, din, logs = ratio(nu - mu, logs=True)
    mp_in, mp_out = oracles.kl_pair_mp(mu, rows, nu)
    assert_allclose([din, f], [1.0, mp_out], rtol=1e-15, atol=0)
    assert logs[0] == logs[3] == -690.0 and np.all(np.isfinite(logs))
    ends, ratios = sdpi._ascend(mu, rows, ratio, nu[None])
    assert np.all(np.isfinite(ends)) and ratios[0] > f


def _seeded_pair(k, outputs=None):
    rng = np.random.default_rng(k if outputs is None else [k, outputs])
    mu = rng.dirichlet(np.ones(k))
    return mu, DiscreteChannel(rng.dirichlet(np.ones(outputs or k), size=k))


def _rng0_3x4():
    rng = np.random.default_rng(0)
    mu = rng.dirichlet(np.ones(3))
    return mu, DiscreteChannel(rng.dirichlet(np.ones(4), size=3))


def _boundary_3x5():
    """A 3x5 channel with an unreached output whose best known point lies
    about 1e-4 from the vertex e_0, next to a face of the simplex."""
    rng = np.random.default_rng([18, 3, 31])
    rows = rng.dirichlet(np.full(5, 0.3), size=3)
    rows[:, 0] = 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    return rng.dirichlet(np.ones(3)), DiscreteChannel(rows)


# eta_numeric values, a SHA-256 prefix of the argmax bytes, and the number
# of ratio-kernel calls, so that fewer iterations cannot pass for a faster
# kernel. At two inputs: the best point of a line search on the segment that
# the scan toward the vertices covers (one scan call, ten rounds). From
# three up: the best end of mirror ascent, with a Newton trial for the
# leading row, started from the points that scan scores best, nudged 1e-6
# toward mu, with no scan of the ends. None is below an earlier pinned value
# by more than 1e-12. Each value is capped at the Dobrushin coefficient,
# which moved the three BEC rows down by 1 to 2 ulps, onto 1 - eps: from
# ...cfp-1, ...002p-1 and ...334p-1
PINNED_ETA = {
    "bsc-0.1": (lambda: (FAIR, bsc(0.1)), "0x1.47ae147ae129dp-1", "667294f99af4522b", 11),
    "bsc-0.25": (lambda: (FAIR, bsc(0.25)), "0x1.ffffffffff9e9p-3", "b710fcd3cb2f0a6f", 11),
    "bsc-0.4": (lambda: (FAIR, bsc(0.4)), "0x1.47ae147ae0f7cp-5", "3be060e993e6dd90", 11),
    "bec-0.1": (lambda: (FAIR, bec(0.1)), "0x1.ccccccccccccdp-1", "d279034093885784", 11),
    "bec-0.25": (lambda: (FAIR, bec(0.25)), "0x1.8000000000000p-1", "4ccdc063676d7960", 11),
    "bec-0.4": (lambda: (FAIR, bec(0.4)), "0x1.3333333333333p-1", "d279034093885784", 11),
    "dirichlet-k2": (lambda: _seeded_pair(2), "0x1.82af4820d115fp-9", "ce5b0c0b70691686", 11),
    "dirichlet-k4": (lambda: _seeded_pair(4), "0x1.4e972eacc3110p-2", "dcb78e62dea04ab6", 17),
    "dirichlet-k8": (lambda: _seeded_pair(8), "0x1.38d9dfe31918bp-2", "ddf8d4a5a1aea935", 20),
    "dirichlet-k16": (lambda: _seeded_pair(16), "0x1.3e880985bd817p-2", "8bbee1c89d83dc75",
                      22),
    "dirichlet-3x5": (lambda: _seeded_pair(3, outputs=5), "0x1.822c91e65d65ep-2",
                      "390322b67803013f", 18),
    "rng0-3x4": (_rng0_3x4, "0x1.5d3bab7bdd8c6p-3", "6055245e38ae235f", 19),
    "boundary-3x5": (_boundary_3x5, "0x1.b19fe74705997p-2", "9e9ebdb445a3f538", 19),
}


def _kernel_calls(monkeypatch) -> list:
    """Make ``sdpi._ratio`` record in the returned list each diff it scores,
    passing every argument through."""
    diffs, kernel = [], sdpi._ratio

    def counting(mu, K):
        ratio = kernel(mu, K)

        def scored(diff, **kwargs):
            diffs.append(diff)
            return ratio(diff, **kwargs)
        return scored

    monkeypatch.setattr(sdpi, "_ratio", counting)
    return diffs


@pytest.mark.parametrize("name", PINNED_ETA)
def test_eta_numeric_values_are_pinned(name, monkeypatch):
    case, value, argmax, calls = PINNED_ETA[name]
    diffs = _kernel_calls(monkeypatch)
    est = eta_numeric(*case())
    assert est.value.hex() == value
    assert hashlib.sha256(est.argmax.tobytes()).hexdigest()[:16] == argmax
    assert len(diffs) == calls


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


def _corpus_pair(k, i, series=16):
    """Channel i of the regression corpus: k - 1 to k + 2 outputs, rows from
    Dirichlet(1), Dirichlet(0.3) or near-deterministic Dirichlet(0.03), an
    output no input reaches when i % 4 == 3, and mu from Dirichlet(1 or 4)."""
    rng = np.random.default_rng([series, k, i])
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
        _assert_keeps_value(*_corpus_pair(k, i), pinned)


@pytest.mark.parametrize("k", range(2, 17))
def test_eta_numeric_upper_end_is_the_dobrushin_coefficient(k):
    """The search's certified end is the Dobrushin coefficient, the value
    never exceeds it, and the tensor bound maps it through 1 - (1 - upper)^T."""
    for i in range(8):
        mu, channel = _corpus_pair(k, i)
        est = eta_numeric(mu, channel)
        assert est.value <= est.upper == dobrushin(channel).value
        for T in (1, 2, 7.5):
            assert eta_multi_use(est, T).upper == 1.0 - (1.0 - est.upper) ** T


def _assert_keeps_value(mu, channel, pinned):
    est = eta_numeric(mu, channel)
    assert est.value >= float.fromhex(pinned) - 1e-9
    assert _eta_chi2(mu, channel.rows) - 1e-6 <= est.value <= dobrushin(channel).value + 1e-12
    _assert_argmax_scores_value(mu, channel, est)


def test_eta_numeric_keeps_the_boundary_optimum():
    """The value the coordinate-pair rays found on boundary-3x5; mirror ascent
    reaches it only from a start nudged off the simplex's face, since a
    multiplicative step cannot grow a zero entry (without the nudge it falls
    1.7e-5 short)."""
    _assert_keeps_value(*_boundary_3x5(), "0x1.b19fe74705992p-2")


def test_eta_numeric_keeps_the_hardest_interior_climb():
    """The value the coordinate-pair rays found on the corpus-style channel
    seeded [18, 8, 23] (near-deterministic rows, an unreached output), whose
    optimum is interior: the ascent's stopping rule once ended 1.6e-9 short
    of it."""
    _assert_keeps_value(*_corpus_pair(8, 23, series=18), "0x1.c4262e6f27bebp-1")


def _series31_pair(k, s):
    """Channel s of series 31: k - 2 to k + 3 outputs (at least 2), rows
    from Dirichlet(1, 0.3, 0.03 or 3) by s % 4, output 0 unreached when
    s % 5 == 4 and every row keeps mass off it, mu from Dirichlet(1, 4 or
    0.5) by s % 3."""
    rng = np.random.default_rng([31, k, s])
    outputs = int(rng.integers(max(2, k - 2), k + 4))
    rows = rng.dirichlet(np.full(outputs, (1.0, 0.3, 0.03, 3.0)[s % 4]), size=k)
    if s % 5 == 4 and np.all(rows[:, 1:].sum(axis=1) > 0.0):
        rows[:, 0] = 0.0
        rows /= rows.sum(axis=1, keepdims=True)
    return rng.dirichlet(np.full(k, (1.0, 4.0, 0.5)[s % 3])), DiscreteChannel(rows)


# two-output series-31 channels whose zeroed output 0 leaves every row [0, 1]:
# the kernel's rounding once scored them 1e-58 to 1e-52
@pytest.mark.parametrize("k, s", [(3, 184), (4, 24), (4, 129)])
def test_eta_numeric_of_a_constant_channel_is_zero(k, s):
    mu, channel = _series31_pair(k, s)
    assert np.all(channel.rows == [0.0, 1.0])
    est = eta_numeric(mu, channel)
    assert (est.value, est.upper) == (0.0, 0.0)


# values that mirror ascent alone stopped short of, each by more than 1e-9:
# its stop rule reads only the best row, which climbed too slowly there
@pytest.mark.parametrize("pair, pinned", [
    (lambda: _series31_pair(3, 51), "0x1.337ba9e7657e7p-5"),  # 3 x 3, 9.6e-7 short
    (lambda: _corpus_pair(16, 41, series=18), "0x1.f0817f2026ecdp-1"),  # 3.4e-9 short
    (lambda: _corpus_pair(8, 23, series=18), "0x1.c4262e81a0056p-1"),  # 2.2e-9 short
], ids=["31-3-51", "18-16-41", "18-8-23"])
def test_newton_trial_reaches_what_mirror_ascent_stopped_short_of(pair, pinned):
    mu, channel = pair()
    est = eta_numeric(mu, channel)
    want = float.fromhex(pinned)
    assert est.value >= want - 1e-12 * want
    assert _eta_chi2(mu, channel.rows) - 1e-6 <= est.value <= dobrushin(channel).value + 1e-12
    _assert_argmax_scores_value(mu, channel, est)


@st.composite
def _ascent_pairs(draw):
    """mu and a k x m channel, k from 3 to 8 and m from 2 to k + 3, with rows
    from Dirichlet(1), Dirichlet(0.3) or near-deterministic Dirichlet(0.03),
    output 0 sometimes unreached when m > 2 and every row keeps mass off it,
    and mu from Dirichlet(1 or 4)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(3, 8))
    outputs = draw(st.integers(2, k + 3))
    rows = rng.dirichlet(np.full(outputs, draw(st.sampled_from([1.0, 0.3, 0.03]))), size=k)
    if outputs > 2 and draw(st.booleans()) and np.all(rows[:, 1:].sum(axis=1) > 0.0):
        rows[:, 0] = 0.0
        rows /= rows.sum(axis=1, keepdims=True)
    return rng.dirichlet(np.full(k, draw(st.sampled_from([1.0, 4.0])))), DiscreteChannel(rows)


@given(_ascent_pairs())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_newton_trial_keeps_the_mirror_ascent_value(pair):
    """From three inputs up the search reaches at least what mirror ascent
    without the Newton trial reaches from the same starts, stays below the
    Dobrushin coefficient, and its argmax scores its value."""
    mu, channel = pair
    ratio = sdpi._ratio(mu, channel.rows)
    starts = sdpi._starts(mu, *sdpi._scan(mu, channel.rows, ratio))
    reference = oracles.mirror_ascent(mu, channel.rows, ratio, starts)[1].max()
    reference = min(max(reference, 0.0), 1.0)
    est = eta_numeric(mu, channel)
    assert est.value >= reference - max(1e-12 * reference, 1e-15)
    assert est.value <= dobrushin(channel).value + 1e-12
    _assert_argmax_scores_value(mu, channel, est)


def test_candidate_scan_is_linear_in_the_alphabet(monkeypatch):
    """The candidate scan scores the k vertex rays and both signs of the
    k - 1 chi-square directions, each over a (rays, steps, k) block of
    diffs: 3k - 2 rays, not the k(k - 1) coordinate pairs."""
    diffs = _kernel_calls(monkeypatch)
    eta_numeric(*_seeded_pair(16))
    assert sum(len(diff) for diff in diffs if diff.ndim == 3) == 3 * 16 - 2


def test_two_inputs_search_the_line_without_the_ascent(monkeypatch):
    """At two inputs the scan and the line search score everything: one
    scan block of the two vertex rays, whose points the chi-square rays
    would repeat, one ratio call per round, and no mirror ascent."""
    diffs, calls = _kernel_calls(monkeypatch), []

    def no_ascent(*args):
        raise AssertionError("mirror ascent ran at two inputs")

    monkeypatch.setattr(sdpi, "_ascend", no_ascent)
    for mu, channel in [(FAIR, bsc(0.1)), (FAIR, bec(0.4)), _seeded_pair(2),
                        _seeded_pair(2, outputs=7)]:
        before = len(diffs)
        assert eta_numeric(mu, channel).argmax is not None
        calls.append(len(diffs) - before)
    assert calls == [11] * 4
    assert [len(diff) for diff in diffs if diff.ndim == 3] == [2] * 4


@st.composite
def _two_input_pairs(draw):
    """mu and a 2 x m channel, m from 2 to 8, with rows from Dirichlet(1),
    Dirichlet(0.1) or near-deterministic Dirichlet(0.01) and, when both rows
    keep some mass, output 0 sometimes unreached."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    outputs = draw(st.integers(2, 8))
    rows = rng.dirichlet(np.full(outputs, draw(st.sampled_from([1.0, 0.1, 0.01]))), size=2)
    if outputs > 2 and draw(st.booleans()) and np.all(rows[:, 1:].sum(axis=1) > 0.0):
        rows[:, 0] = 0.0
        rows /= rows.sum(axis=1, keepdims=True)
    return rng.dirichlet(np.ones(2)), DiscreteChannel(rows)


@given(_two_input_pairs())
# rows 1e-40 apart: a diff's float mass miss, squared, once scored 8e-34
@example((np.array([0.8180085954320669, 0.18199140456793297]),
          DiscreteChannel(np.array([[1e-72, 1.0], [1e-40, 1.0]]))))
@settings(max_examples=40, deadline=None)
def test_line_search_keeps_the_ascent_value(pair):
    """At two inputs the line search reaches at least what mirror ascent
    reaches from the starts it would take, stays between the chi-square
    and the Dobrushin coefficient, and its argmax scores its value."""
    mu, channel = pair
    ratio = sdpi._ratio(mu, channel.rows)
    starts = sdpi._starts(mu, *sdpi._scan(mu, channel.rows, ratio))
    reference = oracles.mirror_ascent(mu, channel.rows, ratio, starts)[1].max()
    est = eta_numeric(mu, channel)
    assert est.value >= min(max(reference, 0.0), 1.0) - 1e-12
    assert _eta_chi2(mu, channel.rows) - 1e-6 <= est.value <= dobrushin(channel).value + 1e-12
    _assert_argmax_scores_value(mu, channel, est)


def test_pairwise_ratio_bound_bsc049():
    # alpha = 0.49/0.51 per output, so the bound is 1 - 49/51 = 2/51
    bound = pairwise_ratio_bound(bsc(0.49))
    assert_allclose(bound.value, 2.0 / 51.0, rtol=1e-13)
    assert bound.upper == bound.value


def test_pairwise_ratio_bound_degenerate_when_support_differs():
    rows = np.array([[1.0, 0.0], [0.5, 0.5]])
    bound = pairwise_ratio_bound(DiscreteChannel(rows))
    assert bound.value == bound.upper == 1.0


def test_eta_multi_use_product_rule():
    est = eta_multi_use(0.25, 4)
    assert_allclose(est.value, 1.0 - 0.75 ** 4, rtol=1e-15)
    assert_allclose(est.value, 0.68359375, rtol=0, atol=1e-15)


def test_eta_multi_use_maps_both_ends():
    est = eta_numeric(FAIR, bsc(0.1))
    assert est.value < est.upper
    for T in (1, 2, 3, 7.5):
        multi = eta_multi_use(est, T)
        assert multi.value == 1.0 - (1.0 - est.value) ** T
        assert multi.upper == 1.0 - (1.0 - est.upper) ** T


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=30))
@settings(max_examples=100, deadline=None)
def test_eta_multi_use_monotone_in_T(eta, T):
    assert eta_multi_use(eta, T + 1).value >= eta_multi_use(eta, T).value - 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_posterior_dobrushin_matches_quadrature(n):
    v = oracles.dobrushin_bern_uniform_posterior(n)
    assert_allclose(v, oracles.beta_posterior_tv_extremes(n), rtol=0, atol=1e-10)
    assert_allclose(v, 1.0 - 2.0 ** (-n), rtol=0, atol=1e-12)


def test_contraction_estimate_validation():
    """0 <= value <= upper <= 1, with NaN on either end refused, also where
    a valid estimate's ends are replaced."""
    assert ContractionEstimate(0.0, 1.0).upper == 1.0
    for value, upper in [(1.5, 1.5), (0.5, 1.5), (-0.1, 0.5), (0.6, 0.5),
                         (np.nan, 1.0), (0.5, np.nan)]:
        with pytest.raises(DistributionError):
            ContractionEstimate(value, upper)
        with pytest.raises(DistributionError):
            ContractionEstimate(0.0, 1.0)._replace(value=value, upper=upper)
