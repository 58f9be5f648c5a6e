"""Worked estimation scenarios with closed-form lower and upper bounds.

Each ``scenario_*`` function, listed by its tag in ``SCENARIOS``, evaluates
one model end to end: the risk lower bounds, the matching achievability
(upper) formulas, and the auxiliary quantities (capacities, contraction
coefficients, exponents) that go into them. The Bernoulli-bias, parity,
hide-and-seek and decentralized Gaussian floors are a ``bounds`` theorem
(Theorem 3 or Fano) on an information budget. Asymptotic entries are flagged
and must not be used in hard lower-vs-upper comparisons. ``fig2_data`` and
``fig34_data`` emit the rows behind the quantization-rate and hide-and-seek
comparison plots.

Only the Monte Carlo ball mass of ``scenario_gauss_ball`` and the block
streams it shares with ``simulate`` need numpy, which they read through the
module's ``np`` handle, so importing this module, or evaluating any closed
form in it, does not load numpy. The ball's noncentral chi-square root is
computed with ``math`` alone; nothing here uses scipy.
"""
from __future__ import annotations

import math
import sys
from typing import Callable

from .bounds import (BoundReport, _clamped_report, fano, lb_diff_entropy,
                     log_diff_entropy_constant, mi_ub_cutset, mi_ub_interactive,
                     mi_ub_single)
from .info import (DistributionError, PriorSpec, _check_count, _check_field,
                   _Numpy, _Record, _set, binary_entropy, differential_entropy,
                   inv_binary_entropy, log_unit_ball_volume)
from .sdpi import eta_bsc, eta_multi_use

np = _Numpy(globals())

__all__ = [
    "ScenarioSpec",
    "ScenarioReport",
    "bern_uniform_mi",
    "bern_uniform_conditional_mi",
    "scenario_gauss_gauss",
    "scenario_bern_uniform",
    "scenario_gauss_ball",
    "scenario_bsc_bit",
    "scenario_hypercube",
    "fig2_data",
    "scenario_bern_bsc",
    "scenario_dglm_decentralized",
    "scenario_minimax_cube",
    "scenario_noisy_ceo",
    "scenario_xor",
    "scenario_hide_seek",
    "fig34_data",
    "SCENARIOS",
]

_LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
_ZETA_PRIME_M1 = -0.16542114370045092  # zeta'(-1), the derivative of Riemann's zeta at -1
_POSITIVE = 5e-324  # the least float above 0, so a real >= it is > 0

# ScenarioSpec's fields after its tag, in order: (name, type, default[, least
# [, most]]), each checked by ``_check_field``; least and most default to the
# float range, in which the scenarios compute.
SPEC_FIELDS = (
    ("n", int, 1, 1),
    ("b", float, 0.0, 0.0),
    ("T", int | None, 1, 1),
    ("m", int, 1, 1),
    ("d", int, 1, 1),
    ("eps", float | None, None, 0.0, 0.5),
    ("var_w", float, 1.0, _POSITIVE),
    ("var_noise", float, 1.0, _POSITIVE),
    ("delta", float, 1.0, 0.0, 1.0),
    ("rho_bias", float, 0.0, 0.0, 0.5),
    ("radius", float, 1.0, _POSITIVE),
    ("total_samples", int | None, None, 1),
    ("total_bits", float | None, None, 0.0),
    ("total_uses", int | None, None, 0),
    ("feedback", bool, False),
    ("r", float, 1.0, 1.0),
    ("p", float | None, None, 0.0, 0.5),
    ("capacity", float | None, None, 0.0),
    ("eta_uses", float | None, None, 0.0, 1.0),
)


class ScenarioSpec(_Record):
    """Parameter bundle for a scenario evaluation: a tag and the fields of
    ``SPEC_FIELDS``, by name or in its order. A value outside its field's row
    raises ``DistributionError`` naming the field, and a name that is no
    field ``TypeError``. Only the fields a given scenario reads need to be
    set. ``T=None`` means the channel-use budget is not binding (noiseless-style
    evaluations drop the capacity term). ``eps=None`` with no explicit
    ``capacity``/``eta_uses`` means a noiseless channel.
    """

    __slots__ = _fields = ("tag",) + tuple(row[0] for row in SPEC_FIELDS)

    def __init__(self, tag: str, *args, **kwargs):
        extra = sorted(kwargs.keys() - self._fields[len(args) + 1:]) + list(args[len(SPEC_FIELDS):])
        if extra:
            raise TypeError(f"ScenarioSpec() got unknown, repeated or surplus fields {extra}")
        _set(self, "tag", tag)
        for i, (name, kind, default, *span) in enumerate(SPEC_FIELDS):
            value = args[i] if i < len(args) else kwargs.get(name, default)
            _check_field(value, name, kind, *span)
            _set(self, name, value)


class ScenarioReport(_Record):
    """A model's bounds, each finite, and its derived values, which may be
    inf; each dict defaults to a new empty one."""

    __slots__ = _fields = ("tag", "lower_bounds", "upper_bounds", "derived")

    def __init__(self, tag: str, lower_bounds: dict | None = None,
                 upper_bounds: dict | None = None, derived: dict | None = None):
        self._set_fields(tag, *({} if group is None else group
                                for group in (lower_bounds, upper_bounds, derived)))
        for group, bounds in (("lower", self.lower_bounds), ("upper", self.upper_bounds)):
            for name, bound in bounds.items():
                value = getattr(bound, "value", bound)
                if not math.isfinite(value):
                    raise DistributionError(f"{self.tag} {group} bound {name} is {value}: "
                                            "the model leaves the float range")


def _channel_profile(spec: ScenarioSpec, uses: float | None = None) -> tuple[float, float]:
    """Per-protocol (eta over the channel uses, capacity per use)."""
    T = spec.T if uses is None else uses
    if spec.eta_uses is not None:
        eta_T = spec.eta_uses
    elif spec.eps is not None and T is not None:
        eta_T = eta_multi_use(eta_bsc(spec.eps), T).upper
    else:
        eta_T = 1.0
    if spec.capacity is not None:
        cap = spec.capacity
    elif spec.eps is not None:
        cap = 1.0 - binary_entropy(spec.eps)
    else:
        cap = 1.0
    return eta_T, cap


def _budget(i_wx: float, b: float, cap: float, T: int | None, eta_stat: float,
            eta_T: float) -> BoundReport:
    """Single-processor information budget; T=None drops the capacity term."""
    return mi_ub_single(i_wx, math.inf, b, cap if T else math.inf, T or 1,
                        eta_stat, eta_T)


# ---------------------------------------------------------------------------
# scalar Gaussian mean, Gaussian prior


def scenario_gauss_gauss(spec: ScenarioSpec) -> ScenarioReport:
    """Gaussian mean with Gaussian prior under absolute loss.

    The finite-n lower bound conditions on an independent sample copy; the
    posterior-mean estimator gives the matching upper bound. The report also
    carries the pre-weakening value of the conditioning chain at s = 1/2 and
    the unconditioned asymptotic bound that loses a log factor.
    """
    snr = spec.n * spec.var_w / spec.var_noise
    scale = math.sqrt(math.pi * spec.var_w / (2.0 * (1.0 + snr)))
    lower = BoundReport(scale / 16.0, "gauss-gauss-lower", {"s": 0.5})
    s_half = BoundReport((snr + 1.0) / (8.0 * (2.0 * snr + 1.0)) * scale,
                         "gauss-gauss-s-half-chain", {"s": 0.5})
    log_snr = math.log2(1.0 + snr)
    if log_snr > 0.0:
        asym = BoundReport(
            math.sqrt(math.pi * spec.var_w / (1.0 + snr)) / (4.0 * log_snr),
            "gauss-gauss-unconditioned", asymptotic=True)
    else:
        asym = BoundReport(0.0, "gauss-gauss-unconditioned", asymptotic=True,
                           infeasible=True)
    posterior_var = spec.var_w / (1.0 + snr)
    i_cond = 0.5 * math.log2((1.0 + 2.0 * snr) / (1.0 + snr))
    return ScenarioReport(
        spec.tag,
        lower_bounds={"corollary": lower, "s_half_chain": s_half,
                      "unconditioned_asymptotic": asym},
        upper_bounds={"posterior_mean": math.sqrt(posterior_var)},
        derived={
            "i_cond_bits": i_cond,
            "posterior_std": math.sqrt(posterior_var),
            "mmae_exact": math.sqrt(2.0 * posterior_var / math.pi),
            "envelope_slope": math.sqrt(
                (2.0 / math.pi) * (1.0 / spec.var_w + spec.n / spec.var_noise)),
        })


# ---------------------------------------------------------------------------
# Bernoulli bias, uniform prior


def bern_uniform_mi(n: int) -> float:
    """I(W; X^n) in bits for W ~ U[0,1] and X_i ~ Bern(W).

    The sample sum K is sufficient and uniform on {0, ..., n}, so
    I = log2(n+1) - H(K|W), and averaging the binomial log-likelihood over
    the Beta(k+1, n-k+1) posteriors gives -H(K|W) in nats as the mean over k
    of ln C(n,k) + k psi(k+1) + (n-k) psi(n-k+1) - n psi(n+2). With
    psi(j+1) = H_j - gamma and sum_{k<=n} k H_k = n(n+1)(2 H_{n+1} - 1)/4
    (summation by parts), the digamma terms add up to -n(n+1)/2 exactly.

    From n = 10^4 on, where that O(n) sum loses accuracy, the Stirling form
    of the Barnes G function it adds up to takes over: with z = n + 1, I =
    log2(z e / (2 pi)) / 2 + (ln z / 6 + 1/12 - 2 zeta'(-1)) / (z ln 2) + O(z^-2).
    """
    if n < 1:
        raise DistributionError("need at least one sample")
    if n >= 10_000:
        z = n + 1.0
        return 0.5 * math.log2(z * math.e / (2.0 * math.pi)) \
            + (math.log(z) / 6.0 + 1.0 / 12.0 - 2.0 * _ZETA_PRIME_M1) / (z * _LN2)
    sum_log_binom = math.fsum(_log_binomials(n))
    return math.log2(n + 1.0) \
        + (sum_log_binom - 0.5 * n * (n + 1.0)) / ((n + 1.0) * _LN2)


def _log_binomials(n: int):
    """lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1) for k = 0..n; k and n-k share lgammas."""
    L = math.lgamma(n + 1.0)
    for k in range(n // 2 + 1):
        a, b = math.lgamma(k + 1.0), math.lgamma(n - k + 1.0)
        yield L - a - b
        if k != n - k:
            yield L - b - a


def bern_uniform_conditional_mi(n: int) -> float:
    """I(W; X^n | X'^n) with X'^n an independent conditional sample copy."""
    return bern_uniform_mi(2 * n) - bern_uniform_mi(n)


def scenario_bern_uniform(spec: ScenarioSpec) -> ScenarioReport:
    n = spec.n
    i_cond = bern_uniform_conditional_mi(n)
    envelope_const = 2.0 + math.sqrt(math.pi * n / 2.0)
    finite = BoundReport(
        2.0 ** (-2.0 * (i_cond + 1.0)) / (4.0 * envelope_const),
        "bern-uniform-finite", {"s": 0.5, "i_cond": i_cond})
    asym = BoundReport(1.0 / (16.0 * math.sqrt(2.0 * math.pi * n)),
                       "bern-uniform-asymptotic", asymptotic=True)
    return ScenarioReport(
        spec.tag,
        lower_bounds={"finite": finite, "asymptotic": asym},
        upper_bounds={"sample_mean": 1.0 / math.sqrt(6.0 * n)},
        derived={"i_cond_bits": i_cond, "i_n_bits": bern_uniform_mi(n),
                 "envelope_const": envelope_const})


# ---------------------------------------------------------------------------
# Monte Carlo streams, shared with ``simulate``

BLOCK = 4096
SEED_LIMIT = 2 ** 64
REPS_LIMIT = sys.maxsize // 8  # the most float64 entries one array can address


def _block_rng(seed: int, block: int) -> np.random.Generator:
    """The stream of block ``block`` of a run seeded with ``seed``: child
    ``block`` of ``SeedSequence(seed)``, on SFC64."""
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=(block,))))


def _draw_blocks(seed: int, reps: int, draw: Callable, dtype=float) -> np.ndarray:
    """``reps`` draws of ``draw(rng, size)``, filled ``BLOCK`` rows at a time
    in block order, block b from ``_block_rng(seed, b)``."""
    out = np.empty(reps, dtype)
    for block, start in enumerate(range(0, reps, BLOCK)):
        stop = min(start + BLOCK, reps)
        out[start:stop] = draw(_block_rng(seed, block), stop - start)
    return out


# ---------------------------------------------------------------------------
# d-dimensional Gaussian mean, uniform prior on a ball


# the margin delta: a draw counts when its posterior mass inside the ball
# exceeds 1/(1+delta)
CONCENTRATION_DELTA = 0.05


def _gauss_legendre(m: int) -> list[tuple[float, float]]:
    """Nodes and weights of the m-point Gauss-Legendre rule on [-1, 1]."""
    rule = []
    for i in range(1, m + 1):
        z = math.cos(math.pi * (i - 0.25) / (m + 0.5))
        for _ in range(100):  # Newton on the Legendre polynomial P_m
            p0, p1 = 1.0, z
            for j in range(2, m + 1):
                p0, p1 = p1, ((2 * j - 1) * z * p1 - (j - 1) * p0) / j
            dp = m * (z * p1 - p0) / (z * z - 1.0)
            step = p1 / dp
            z -= step
            if abs(step) <= 1e-15:
                break
        rule.append((z, 2.0 / ((1.0 - z * z) * dp * dp)))
    return rule


def _noncentrality_root(x: float, d: int, level: float) -> float:
    """The noncentrality lam* at which the noncentral chi-square CDF
    F(x; d, lam) equals ``level`` (in (1/2, 1)), or 0 if F(x; d, 0) <= level.

    F decreases in lam, so F(x; d, lam) > level exactly when lam < lam*. With
    Z ~ N(sqrt(lam) e_1, I_d) and R the norm of its last d - 1 coordinates,
    F = E[P(|Z_1| <= sqrt(x - R^2))]. Putting R = sqrt(x) sin(theta) makes the
    integrand smooth in theta, also where R^2 reaches x; 12-point Gauss-Legendre
    panels of arc length sqrt(x) dtheta <= 2 cover R within 9 of sqrt(d - 1),
    outside which the chi density has mass below 1e-16. The unknown is
    t = sqrt(x) - sqrt(lam) in (0, sqrt(x)], for which
    P(|Z_1| <= sqrt(x) - u) = Phi(t - u) - Phi(t - 2 sqrt(x) + u) with
    u = 2 sqrt(x) sin^2(theta / 2): no cancellation however large x is, and
    a node count that grows like sqrt(d) at most, never with x. Newton on t,
    kept inside its bracket, finds the root.
    """
    rx, k = math.sqrt(x), d - 1
    if k == 0:
        nodes = [(1.0, 0.0)]  # (weight, u): Z_1 alone
    else:
        r_lo, r_hi = max(0.0, math.sqrt(k) - 9.0), math.sqrt(k) + 9.0
        if r_lo >= rx:  # F(x; d, 0) < 1e-16
            return 0.0
        th_lo, th_hi = math.asin(r_lo / rx), math.asin(min(1.0, r_hi / rx))
        panels = math.ceil(rx * (th_hi - th_lo) / 2.0)
        half = 0.5 * (th_hi - th_lo) / panels
        log_norm = (0.5 * k - 1.0) * _LN2 + math.lgamma(0.5 * k)
        rule, nodes = _gauss_legendre(12), []
        for i in range(panels):
            for z, weight in rule:
                th = th_lo + (2 * i + 1 + z) * half
                r = rx * math.sin(th)
                density = math.exp((k - 1) * math.log(r) - 0.5 * r * r - log_norm)
                nodes.append((weight * half * density * rx * math.cos(th),
                              2.0 * rx * math.sin(0.5 * th) ** 2))

    def excess(t):  # F - level and dF/dt
        f = df = 0.0
        for w, u in nodes:
            a, b = t - u, t - 2.0 * rx + u
            f += w * (math.erfc(-a / _SQRT2) - math.erfc(-b / _SQRT2))
            df += w * (math.exp(-0.5 * a * a) - math.exp(-0.5 * b * b))
        return 0.5 * f - level, df / math.sqrt(2.0 * math.pi)

    if excess(rx)[0] <= 0.0:
        return 0.0
    lo, hi = 0.0, rx  # F <= Phi(t) <= 1/2 < level at t = 0
    mean_u = sum(w * u for w, u in nodes) / sum(w for w, _ in nodes)
    t = min(rx, mean_u + 2.0)
    for _ in range(100):
        f, df = excess(t)
        if f > 0.0:
            hi = t
        else:
            lo = t
        new = t - f / df if df > 0.0 else math.nan
        if not lo <= new <= hi:  # a step out of the bracket, or a flat spot
            new = 0.5 * (lo + hi)
        if abs(new - t) <= 1e-12 * max(1.0, t):
            break
        t = new
    return (rx - new) ** 2


def _ball_mass_exceeds(spec: ScenarioSpec, reps: int, seed: int,
                       level: float) -> np.ndarray:
    """Per Monte Carlo draw, whether the posterior mass c_n(sample mean)
    inside the ball exceeds ``level``.

    Given the mean of n Gaussian observations of a ball-uniform W, the mass
    the untruncated Gaussian posterior puts inside the ball is the noncentral
    chi-square CDF F(a^2 n / sigma^2; d, n |sample mean|^2 / sigma^2), which
    exceeds ``level`` exactly when the noncentrality is below the one root
    ``_noncentrality_root`` finds, so no CDF is evaluated per draw.
    """
    d, n = spec.d, spec.n
    sigma2, a = spec.var_noise, spec.radius
    threshold = a * a * n / sigma2
    if math.isinf(threshold):
        raise DistributionError("the ball threshold a^2 n / sigma^2 exceeds the float range")
    root = _noncentrality_root(threshold, d, level)

    def draw(rng, size):
        direction = rng.normal(size=(size, d))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        w = a * direction * rng.random(size)[:, None] ** (1.0 / d)
        xbar = w + math.sqrt(sigma2 / n) * rng.normal(size=(size, d))
        # a sample mean beyond ~1e154 overflows its square to +inf, a draw
        # whose mass is 0: the limit for a mean that far outside a smaller ball
        with np.errstate(over="ignore"):
            return n * (xbar * xbar).sum(axis=1) / sigma2 < root

    return _draw_blocks(seed, reps, draw, bool)


def scenario_gauss_ball(spec: ScenarioSpec, reps: int | None = None,
                        seed: int = 0) -> ScenarioReport:
    """Gaussian mean with uniform prior on the radius-a ball, l2 loss.

    The asymptotic lower bound and the sample-mean upper bound are closed
    forms. With ``reps`` set, the finite-n information-density chain is
    evaluated by Monte Carlo: the probability that the posterior mass inside
    the ball exceeds 1/(1+delta) feeds both the sharp-constant chain and the
    weakened-constant chain that the asymptote is derived from. Its ``reps``
    draws, an integer in [1, sys.maxsize // 8], run in the blocks of
    ``simulate``: block b of ``BLOCK`` draws reads child b of
    ``SeedSequence(seed)`` on SFC64, for a ``seed`` in [0, 2^64), an integer.
    """
    _check_count(seed, "seed", 0, SEED_LIMIT - 1)
    d, n = spec.d, spec.n
    sigma2, a = spec.var_noise, spec.radius
    asym_value = math.sqrt(2.0 * math.pi * sigma2 * d / n) / 20.0
    lower = {"asymptotic": BoundReport(asym_value, "gauss-ball-asymptotic", asymptotic=True)}
    derived = {
        "ratio_to_upper": math.sqrt(2.0 * math.pi) / 20.0,
        "mmse_lower_asymptotic": asym_value ** 2,
        "mmse_upper": sigma2 * d / n,
    }
    if reps is not None:
        _check_count(reps, "replication count", most=REPS_LIMIT)
        delta = CONCENTRATION_DELTA
        p_hat = float(_ball_mass_exceeds(spec, reps, seed, 1.0 / (1.0 + delta)).mean())
        gap = p_hat - 0.5
        root_term = math.sqrt(2.0 * math.pi * sigma2 / n)
        sharp = (1.0 / (2.0 * (1.0 + delta))) ** (1.0 / d) \
            * math.exp(-log_unit_ball_volume(d) / d) * root_term * gap
        # the root (1/(2(1+delta)))^{1/d} is at least 1/2 whenever
        # 2(1+delta) <= 2^d; outside that regime keep the plain reciprocal
        weak_const = 0.5 if math.log2(2.0 * (1.0 + delta)) <= d else 0.5 / (1.0 + delta)
        weak = weak_const * (math.sqrt(d) / 5.0) * root_term * gap
        mc_args = {"p_hat": p_hat, "delta": delta, "reps": reps, "seed": seed}
        lower["finite_mc_sharp"] = _clamped_report(sharp, "gauss-ball-mc-sharp", dict(mc_args))
        lower["finite_mc_weak"] = _clamped_report(weak, "gauss-ball-mc-weak", dict(mc_args))
        derived["p_hat"] = p_hat
    return ScenarioReport(
        spec.tag, lower_bounds=lower,
        upper_bounds={"sample_mean": math.sqrt(sigma2 * d / n)},
        derived=derived)


# ---------------------------------------------------------------------------
# one bit over a BSC


def _repetition_converse(eps: float, T: int) -> float:
    """Neyman-Pearson meta-converse for one equiprobable bit over T uses of
    a BSC(eps), eps in (0, 1/2), without feedback.

    Under Q, the uniform law on the T outputs, any decoder is right with
    probability 1/2, so it errs under the channel P with at least the P-mass
    that the level-1/2 test rejects, on the Hamming distance d from the sent
    codeword: d ~ Bin(T, eps) under P against Bin(T, 1/2) under Q. That is the
    tail sum_{d > T/2} P(d), plus P(T/2)/2 when T is even, which majority
    decoding attains. Each term is the last times (T - d)/(d + 1) eps/(1 - eps),
    from a first one found in logs less a relative 2^-50 of their size, more
    than their rounding. A tail below the smallest normal float is 0, since a
    subnormal sum can lose about 2e-5 relative and so rise above the risk.
    """
    d = (T + 1) // 2
    logs = (math.lgamma(T + 1.0), -math.lgamma(d + 1.0), -math.lgamma(T - d + 1.0),
            d * math.log(eps), (T - d) * math.log1p(-eps))
    term = math.exp(math.fsum(logs) - 2.0 ** -50 * sum(map(abs, logs)))
    total = 0.5 * term if 2 * d == T else term
    odds = eps / (1.0 - eps)
    while d < T and term > 2.0 ** -60 * total:
        term *= (T - d) / (d + 1.0) * odds
        total += term
        d += 1
    return total if total >= 2.0 ** -1022 else 0.0


def scenario_bsc_bit(spec: ScenarioSpec) -> ScenarioReport:
    """Equiprobable bit sent over T uses of a BSC, with and without feedback.

    The no-feedback floor is the Neyman-Pearson meta-converse, which the
    repetition code with majority decoding attains; the feedback floor
    inverts the binary entropy at z^T, with z = 4 eps (1 - eps).
    """
    if spec.eps is None or not 0.0 < spec.eps < 0.5:
        raise DistributionError("this scenario needs a crossover in (0, 1/2)")
    eps, T = spec.eps, spec.T
    if T is None:
        raise DistributionError("this scenario needs a finite use count")
    z = 4.0 * eps * (1.0 - eps)
    no_fb = _repetition_converse(eps, T)
    fb = inv_binary_entropy(z ** T)
    exponent = 0.5 * math.log2(1.0 / z)
    return ScenarioReport(
        spec.tag,
        lower_bounds={"no_feedback": BoundReport(no_fb, "bsc-bit-meta-converse"),
                      "feedback": BoundReport(fb, "bsc-bit-feedback")},
        upper_bounds={"repetition": z ** (T / 2.0)},
        derived={
            "exponent_no_feedback": exponent,
            "exponent_feedback": 2.0 * exponent,
            "exponent_repetition": exponent,
        })


# ---------------------------------------------------------------------------
# uniform hypercube parameter observed through per-coordinate flips


def _rate_floor(p: float, delta: float, eta: float) -> float:
    """(1 - h(p)) / (delta^2 eta): bits per coordinate needed for distortion p."""
    return (1.0 - binary_entropy(p)) / (delta * delta * eta)


def _noisy_lossy_rate(p: float, delta: float) -> float:
    """R~ = 1 - h((2p + delta - 1) / (2 delta)), the asymptotic noisy-lossy rate."""
    return 1.0 - binary_entropy((2.0 * p + delta - 1.0) / (2.0 * delta))


def scenario_hypercube(spec: ScenarioSpec) -> ScenarioReport:
    """Uniform W on {-1,1}^d observed coordinatewise with bias delta.

    Emits the three-term information budget, the Zhang-style comparison
    value, the average-bit-error lower bound, and (when a target distortion
    p is set) the quantization-rate lower bound next to the asymptotic
    noisy-lossy rate and the rate-distortion function.
    """
    d, b, delta = spec.d, spec.b, spec.delta
    eta_T, cap = _channel_profile(spec)
    i_wx = d * (1.0 - binary_entropy((1.0 - delta) / 2.0))
    mi_ub = _budget(i_wx, b, cap, spec.T, delta * delta, eta_T)._replace(
        kind="hypercube-mi-ub")
    if delta < 1.0:
        zhang = 32.0 * delta * delta * min(d, b) / (1.0 - delta) ** 4
    else:
        zhang = math.inf
    arg = 1.0 - mi_ub.value / d
    if 0.0 <= arg <= 1.0:
        bit_error = BoundReport(inv_binary_entropy(arg), "hypercube-bit-error",
                                {"h2_arg": arg})
    else:
        bit_error = BoundReport(0.0, "hypercube-bit-error", {"h2_arg": arg},
                                infeasible=True)
    lower = {"bit_error": bit_error}
    derived = {"mi_upper": mi_ub, "zhang_mi_upper": zhang, "eta_T": eta_T,
               "capacity": cap}
    if spec.p is not None:
        p = spec.p
        derived["rate_distortion"] = 1.0 - binary_entropy(p)
        if delta * delta * eta_T > 0.0:  # also skips a product that underflows to 0
            lower["rate_per_coordinate"] = BoundReport(_rate_floor(p, delta, eta_T),
                                                       "hypercube-rate-lb")
        if delta > 0.0 and (1.0 - delta) / 2.0 <= p:
            derived["noisy_lossy_rate"] = _noisy_lossy_rate(p, delta)
    return ScenarioReport(spec.tag, lower_bounds=lower, upper_bounds={},
                          derived=derived)


def fig2_data(p: float = 0.3, points: int = 61, etas=(1.0, 0.75, 0.5)):
    """Quantization-rate comparison rows: one per delta, one bound per eta.

    Returns (header, rows) where each row is
    (delta, rate bound at each eta, asymptotic noisy-lossy rate, R(p)), for
    ``points`` values of delta evenly spaced on [1 - 2p, 1], where the noisy
    source can meet distortion p. The rate bound treats eta as the end-to-end
    contraction of the uses.
    """
    if not 0.0 < p < 0.5:
        raise DistributionError("target distortion must lie in (0, 1/2)")
    rate = 1.0 - binary_entropy(p)
    low = 1.0 - 2.0 * p  # the smallest delta, where each rate bound is largest
    for eta in etas:
        if not 0.0 < eta <= 1.0:
            raise DistributionError("contraction values must lie in (0, 1]")
        if low * low * eta == 0.0 or math.isinf(_rate_floor(p, low, eta)):
            raise DistributionError(f"the rate bound at eta {eta:g} exceeds the float range")
    if points < 0:
        raise DistributionError("point count cannot be negative")
    header = ["delta"] + [f"blb_eta_{eta:g}" for eta in etas] + ["tildeR", "R"]
    # np.linspace(low, 1.0, points) bit for bit, without loading numpy
    step = (1.0 - low) / (points - 1) if points > 1 else 1.0 - low
    deltas = [i * step + low for i in range(points)]
    if points > 1:
        deltas[-1] = 1.0
    rows = []
    for delta in deltas:
        bounds = [_rate_floor(p, delta, eta) for eta in etas]
        rows.append((delta, *bounds, _noisy_lossy_rate(p, delta), rate))
    return header, rows


# ---------------------------------------------------------------------------
# Bernoulli bias over a BSC


def random_coding_exponent(eps: float, rate: float) -> float:
    """E_r(rate) for a BSC in the low-rate linear regime."""
    return 1.0 - math.log2(1.0 + math.sqrt(4.0 * eps * (1.0 - eps))) - rate


def feedback_zero_rate_exponent(eps: float) -> float:
    return -math.log2(eps ** (1.0 / 3.0) * (1.0 - eps) ** (2.0 / 3.0)
                      + eps ** (2.0 / 3.0) * (1.0 - eps) ** (1.0 / 3.0))


def scenario_bern_bsc(spec: ScenarioSpec) -> ScenarioReport:
    """Bernoulli bias with uniform prior, quantized and sent over a BSC.

    Each floor is ``lb_diff_entropy`` (h(W) = 0) of a term of the budget,
    whose source term is the exact ``bern_uniform_mi(n)``: ``mi`` of the
    smallest term, case 1 (eps = 0) of the bits term, case 2 (eps > 0) of the
    source or the capacity term. Each special regime is evaluated when its
    premise holds: quantization-limited (eps = 0) and channel-limited (b
    large enough to carry the sample mean exactly).
    """
    if spec.eps is None:
        raise DistributionError("this scenario needs a crossover probability")
    eps, n, b, T = spec.eps, spec.n, spec.b, spec.T
    if T is None and eps > 0.0:
        raise DistributionError("this scenario needs a finite use count")
    eta_T, cap = _channel_profile(spec)
    eta_stat = 1.0 - 2.0 ** (-n)
    # with a noiseless link the delivered bits are the only channel
    # constraint, so the use-count term applies to the noisy case only
    budget = _budget(bern_uniform_mi(n), b, cap, T if eps > 0.0 else None,
                     eta_stat, eta_T)
    i_star, active = budget.value, budget.arguments["active"]
    terms = {key: value for key, value in budget.arguments["terms"].items()
             if eps > 0.0 or key != "capacity"}
    floor = {key: lb_diff_entropy(value, 0.0).value for key, value in terms.items()}
    lower = {
        "mi": BoundReport(floor[active], "bern-bsc-mi", {"active": active, "terms": terms}),
    }
    upper: dict = {}
    derived = {"i_star": i_star, "eta_T": eta_T, "eta_stat": eta_stat,
               "capacity": cap}
    if eps == 0.0:
        lower["case1"] = BoundReport(floor["bits"], "bern-bsc-case1")
        upper["case1"] = 1.0 / math.sqrt(6.0 * n) + 2.0 ** (-b)
        derived["case1_floor"] = floor["source"]
        derived["case1_cap"] = 1.41 / math.sqrt(n)
    else:
        first, second = floor["source"], floor["capacity"]
        lower["case2"] = BoundReport(
            max(first, second), "bern-bsc-case2",
            {"polynomial_term": first, "exponential_term": second})
        count_bits = math.log2(n + 1.0)
        rate = count_bits / T
        linear_end = 1.0 - binary_entropy(
            math.sqrt(eps) / (math.sqrt(eps) + math.sqrt(1.0 - eps)))
        failed = [why for holds, why in (
            (b >= count_bits, f"b = {b:.6g} < log2(n + 1) = {count_bits:.6g}"),
            (rate <= linear_end, f"rate log2(n + 1) / T = {rate:.6g} > {linear_end:.6g}, "
                                 "past the linear regime of the random-coding exponent"))
            if not holds]
        if failed:
            derived["case2_upper_notice"] = "case-2 upper bound omitted: " + " and ".join(failed)
        else:
            upper["case2"] = 1.0 / math.sqrt(6.0 * n) \
                + 2.0 ** (-random_coding_exponent(eps, rate) * T)
        derived["random_coding_exponent_0"] = random_coding_exponent(eps, 0.0)
        feedback = feedback_zero_rate_exponent(eps)
        derived["feedback_exponent_0"] = feedback
        if feedback > 0.0:  # both terms vanish on a useless channel
            derived["capacity_to_feedback_exponent"] = cap / feedback
    return ScenarioReport(spec.tag, lower_bounds=lower, upper_bounds=upper,
                          derived=derived)


# ---------------------------------------------------------------------------
# decentralized Gaussian location model


def scenario_dglm_decentralized(spec: ScenarioSpec) -> ScenarioReport:
    """Gaussian location model with resources split across m processors.

    Needs the total budgets: N samples, B quantization bits, L channel uses
    (L=None with no eps means noiseless channels with no use constraint).
    """
    if spec.total_samples is None or spec.total_bits is None:
        raise DistributionError("this scenario needs total sample and bit budgets")
    N, B, L, m, d = (spec.total_samples, spec.total_bits, spec.total_uses,
                     spec.m, spec.d)
    if N < m:
        raise DistributionError("each processor needs at least one sample")
    var_w, var_noise = spec.var_w, spec.var_noise
    snr = N * var_w / var_noise
    eta_L, cap = _channel_profile(spec, uses=L)
    eta_split, cl = ((1.0, math.inf) if L is None
                     else (_channel_profile(spec, uses=L / m)[0], cap * L))
    # Theorem 3 at r = 2 on the channel's budget and on the shrunk bit budget
    h_w = differential_entropy(PriorSpec.gaussian(var_w, d))
    first = lb_diff_entropy(eta_L * (d / 2.0) * math.log2(1.0 + snr), h_w, d, 2).value
    shrink = N * var_w / (N * var_w + m * var_noise)
    second = lb_diff_entropy(shrink * min(B * eta_split, cl), h_w, d, 2).value
    active = "channel_noise" if first >= second else "decentralized_bits"
    lower = BoundReport(max(first, second), "dglm-lower",
                        {"active": active, "channel_noise": first,
                         "decentralized_bits": second})
    bits_needed = (1.0 + m * var_noise / (N * var_w)) * (d / 2.0) \
        * math.log2(1.0 + snr)
    return ScenarioReport(
        spec.tag, lower_bounds={"decentralized": lower},
        upper_bounds={},
        derived={"centralized_risk": d * var_w / (1.0 + snr),
                 "bits_needed_for_centralized": bits_needed,
                 "eta_L": eta_L, "eta_split": eta_split})


# ---------------------------------------------------------------------------
# minimax mean estimation on the cube


def scenario_minimax_cube(spec: ScenarioSpec) -> ScenarioReport:
    """Minimax mean estimation over distributions on [-1,1]^d, m processors."""
    d, b, m = spec.d, spec.b, spec.m
    eta_T, cap = _channel_profile(spec)
    inner = _budget(d, b, cap, spec.T, 1.0, eta_T).value
    if inner <= 0.0:
        ratio, delta_sq = 1.0, 1.0
    else:
        ratio = min(1.0, d / (m * inner))
        delta_sq = min(1.0, d / (2.0 * m * inner))
    lower = BoundReport((d / 5.0) * ratio, "minimax-cube",
                        {"inner_min": inner, "delta_star_sq": delta_sq})
    return ScenarioReport(spec.tag, lower_bounds={"minimax": lower},
                          upper_bounds={},
                          derived={"eta_T": eta_T, "capacity": cap})


# ---------------------------------------------------------------------------
# CEO problem over noisy channels


def scenario_noisy_ceo(spec: ScenarioSpec, alpha: float) -> ScenarioReport:
    """Sum-rate requirement for estimating an i.i.d. Gaussian sequence.

    ``alpha`` is the per-letter distortion target; each of the m processors
    observes through a contraction of 1 and sends at an equal rate.
    """
    if not 0.0 < alpha < math.inf:
        raise DistributionError(f"distortion target must lie in (0, inf), not {alpha}")
    d, r = spec.d, spec.r
    eta_T, _ = _channel_profile(spec)
    h_w = differential_entropy(PriorSpec.gaussian(spec.var_w, d))
    # lb_diff_entropy solved for the budget that brings the floor to alpha
    rhs = h_w + (d / r) * (log_diff_entropy_constant(d, r) / _LN2 - math.log2(alpha))
    requirement = _clamped_report(rhs, "ceo-sum-rate", {"raw": rhs})
    derived = {"h_w_bits": h_w, "eta_T": eta_T}
    eta_sum = eta_T * spec.m
    if rhs <= 0.0:
        derived["min_equal_rate"] = 0.0
        derived["feasible"] = True
    elif eta_sum > 0.0:
        derived["min_equal_rate"] = rhs / eta_sum
    else:
        derived["min_equal_rate"] = math.inf
    return ScenarioReport(spec.tag,
                          lower_bounds={"sum_rate_requirement": requirement},
                          upper_bounds={}, derived=derived)


# ---------------------------------------------------------------------------
# parity-coupled samples


def scenario_xor(spec: ScenarioSpec) -> ScenarioReport:
    """Parity-coupled binary samples: any m-1 processors see pure noise.

    Distributed: each of the m processors quantizes its own n-sample stream
    to b bits. Colocated: one processor holds all streams and mb bits.
    """
    if spec.m < 2:
        raise DistributionError("the parity construction needs at least two processors")
    n, b, m = spec.n, spec.b, spec.m
    eta_stat = 1.0 - 2.0 ** (-n)
    lower = {}
    for name, colocated in (("distributed", False), ("colocated", True)):
        # the cut holds one processor's stream; its bits bind over noiseless links
        bits = mi_ub_cutset(math.inf, eta_stat, 1, b, math.inf, 1, 1.0,
                            colocated=colocated, m=m, noiseless=True).value
        lower[name] = BoundReport(lb_diff_entropy(bits, 0.0).value, f"xor-{name}",
                                  {"eta_stat": eta_stat})
    return ScenarioReport(
        spec.tag, lower_bounds=lower, upper_bounds={},
        derived={
            "floor_no_bits": lb_diff_entropy(0.0, 0.0).value,
            "penalty_colocated": lb_diff_entropy(0.5 * math.log2(n), 0.0).value,
            "penalty_distributed": lb_diff_entropy(math.log2(n) / (2.0 * m), 0.0).value,
        })


# ---------------------------------------------------------------------------
# hide-and-seek


def _hide_seek_ours(n: int, m: int, d: int, b: float, rho: float) -> float:
    """Fano's bound over the d hiding places on the interactive budget, whose
    per-sample likelihood-ratio floor is (1 - 2 rho)/(1 + 2 rho)."""
    if d < 2:
        raise DistributionError("need at least two coordinates to hide in")
    if not 0.0 <= rho <= 0.5:
        raise DistributionError("coordinate bias must lie in [0, 1/2]")
    budget = mi_ub_interactive((1.0 - 2.0 * rho) / (1.0 + 2.0 * rho), n, m, b,
                               min(4.0 * m * n * rho * rho, math.log2(d)))
    return fano(budget.value, d).value


def _hide_seek_shamir(n: int, m: int, d: int, b: float, rho: float) -> float:
    if rho > 1.0 / (4.0 * n):
        return 0.0
    value = 1.0 - (3.0 / d + 5.0 * math.sqrt(
        min(10.0 * rho * n * m * b / d, m * n * rho * rho)))
    return min(max(value, 0.0), 1.0)


def scenario_hide_seek(spec: ScenarioSpec) -> ScenarioReport:
    """Identify which of d coordinates is biased, b bits per processor.

    Compares our error-probability lower bound against the earlier one,
    which is only stated for rho <= 1/(4n) and is zeroed outside that range.
    """
    n, m, d, b, rho = spec.n, spec.m, spec.d, spec.b, spec.rho_bias
    ours = BoundReport(_hide_seek_ours(n, m, d, b, rho), "hide-seek-ours")
    shamir = BoundReport(_hide_seek_shamir(n, m, d, b, rho), "hide-seek-shamir",
                         {"valid": rho <= 1.0 / (4.0 * n)})
    return ScenarioReport(spec.tag,
                          lower_bounds={"ours": ours, "shamir": shamir},
                          upper_bounds={},
                          derived={"log2_d": math.log2(d)})


def fig34_data(m: int = 10, d: int = 512, b: float | None = None,
               rho_rule: str = "quarter_n", rho: float = 0.01):
    """Hide-and-seek comparison rows (n, ours, shamir) for n = 1, ..., 1000.

    ``rho_rule`` is ``quarter_n`` (rho = 1/(4n), always inside the earlier
    bound's validity range) or ``fixed`` (constant rho, the earlier bound
    zeroed once n exceeds 1/(4 rho)). ``b`` defaults to 3d.
    """
    if rho_rule not in ("quarter_n", "fixed"):
        raise DistributionError(f"unknown rho rule {rho_rule!r}")
    if b is None:
        b = 3.0 * d
    if not 0.0 <= b < math.inf:
        raise DistributionError(f"bit budget must be finite and >= 0, not {b}")
    rows = []
    for n in range(1, 1001):
        r = 1.0 / (4.0 * n) if rho_rule == "quarter_n" else rho
        rows.append((n, _hide_seek_ours(n, m, d, b, r),
                     _hide_seek_shamir(n, m, d, b, r)))
    return ["n", "ours", "shamir"], rows


# Each scenario tag's report function. The CLI and ``simulate.Scheme.report``
# look it up here at each call, so rebinding an entry reaches every caller.
SCENARIOS = {
    "gauss-gauss": scenario_gauss_gauss,
    "bern-uniform": scenario_bern_uniform,
    "gauss-ball": scenario_gauss_ball,
    "bsc-bit": scenario_bsc_bit,
    "hypercube": scenario_hypercube,
    "bern-bsc": scenario_bern_bsc,
    "dglm": scenario_dglm_decentralized,
    "minimax-cube": scenario_minimax_cube,
    "ceo": scenario_noisy_ceo,
    "xor": scenario_xor,
    "hide-seek": scenario_hide_seek,
}
