"""Strong data-processing contraction coefficients and their upper bounds.

For an input distribution mu and channel K, the contraction coefficient is

    eta(mu, K) = sup_{nu != mu} D(nu K || mu K) / D(nu || mu),

and eta(K) is its supremum over mu. Every estimate carries a ``kind`` tag:
``exact`` for closed forms, ``upper_bound`` for structural bounds (Dobrushin,
the pairwise row ratio, the multi-use tensor bound), and
``numeric_lower_estimate`` for ``eta_numeric``: mirror ascent on nu that
skips D(nu || mu) < 1e-12 bits, started where a scan of mixture paths toward
the vertices and along both signs of the chi-square directions scores best.
Scan and ascent score through one ratio kernel, the value is the ascent's
best end, and every point is a feasible mixture, so the estimate can only
undershoot the supremum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .info import (
    DiscreteChannel,
    DiscreteDistribution,
    DistributionError,
    _Numpy,
    _validated_pmf,
)

np = _Numpy(globals())

__all__ = [
    "ContractionEstimate",
    "PairwiseRatioBound",
    "eta_bsc",
    "dobrushin",
    "pairwise_ratio_bound",
    "eta_numeric",
    "eta_multi_use",
    "dobrushin_bern_uniform_posterior",
]

_KIND_RANK = {"exact": 0, "upper_bound": 1, "numeric_lower_estimate": 2}


@dataclass(frozen=True)
class ContractionEstimate:
    """A contraction coefficient value with its epistemic status."""

    value: float
    kind: str
    provenance: str = ""
    argmax: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KIND_RANK:
            raise DistributionError(f"unknown estimate kind {self.kind!r}")
        if not 0.0 <= self.value <= 1.0:
            raise DistributionError("contraction coefficients lie in [0, 1]")


def eta_bsc(eps: float) -> ContractionEstimate:
    """Contraction of the binary symmetric channel at uniform input: (1-2eps)^2."""
    if not 0.0 <= eps <= 0.5:
        raise DistributionError("crossover must lie in [0, 1/2]")
    return ContractionEstimate((1.0 - 2.0 * eps) ** 2, "exact", "bsc closed form")


def dobrushin(channel: DiscreteChannel) -> ContractionEstimate:
    """Dobrushin coefficient: the largest total variation between two rows, capped at 1."""
    rows = channel.rows
    worst = min(0.5 * float(np.abs(rows[:, None] - rows[None]).sum(axis=-1).max()), 1.0)
    return ContractionEstimate(worst, "upper_bound", "dobrushin coefficient")


@dataclass(frozen=True)
class PairwiseRatioBound:
    """Row-ratio contraction bound; ``forward`` holds in both chain directions."""

    alpha: float
    forward: ContractionEstimate
    degenerate: bool


def pairwise_ratio_bound(channel: DiscreteChannel, n: int = 1) -> PairwiseRatioBound:
    """Bound 1 - alpha^n from alpha = min over outputs and row pairs of K(y|x)/K(y|x').

    The same constant bounds the contraction of the channel and of its
    posterior (reverse) channel; with n conditionally independent
    observations the bound weakens to 1 - alpha^n. A zero entry forces
    alpha = 0 and the vacuous bound 1, flagged ``degenerate``.
    """
    if n < 1:
        raise DistributionError("sample count must be at least 1")
    rows = channel.rows
    degenerate = bool(np.any(rows == 0.0))
    if degenerate:
        alpha = 0.0
    else:
        alpha = float((rows.min(axis=0) / rows.max(axis=0)).min())
    note = f"pairwise row ratio, {n} sample(s)"
    return PairwiseRatioBound(
        alpha, ContractionEstimate(1.0 - alpha ** n, "upper_bound", note), degenerate)


# ---------------------------------------------------------------------------
# numeric lower estimate


_LN2 = math.log(2.0)
# no nu with D(nu || mu) below this many bits is scored, about where a step
# of 1e-6 toward a vertex lands: nearer mu, nu - mu is rounding noise
_FLOOR = 1e-12


def _ratio(mu, K):
    """The map diff -> (D(nu K || mu K) / D(nu || mu), D(nu || mu) in bits)
    for nu = mu + diff along the last axis, with the ratio -inf where
    D(nu || mu) < ``_FLOOR``; what depends on mu and K alone is built once.

    Evaluates each D(base + diff || base) in the Bregman form
    sum_i base_i * g(diff_i / base_i) with g(u) = (1+u) log1p(u) - u, which
    equals the divergence whenever ``diff`` sums to zero. Each summand is
    nonnegative and of order diff^2, so there is no cancellation, and
    residual mass error from floating point enters only quadratically; a
    truncated series handles |u| below 1e-2. Entries with base == 0, such as
    outputs no input reaches, must have diff == 0 and are left out of the sum.
    """
    base = np.concatenate([mu, mu @ K])
    mask = base > 0.0
    b, cut, every = base[mask], int(mask[:mu.size].sum()), bool(mask.all())

    def ratio(diff) -> tuple[np.ndarray, np.ndarray]:
        u = np.concatenate([diff, diff @ K], axis=-1)
        u = (u if every else u[..., mask]) / b
        small = np.abs(u) <= 1e-2
        dead = u <= -1.0
        us = np.where(small, u, 0.0)
        series = us * us * (1.0 / 2.0 - us * (1.0 / 6.0 - us * (
            1.0 / 12.0 - us * (1.0 / 20.0 - us * (1.0 / 30.0 - us / 42.0)))))
        ub = np.where(small | dead, 0.0, u)
        g = np.where(small, series, np.where(dead, 1.0, (1.0 + ub) * np.log1p(ub) - ub))
        terms = b * g
        din, dout = terms[..., :cut].sum(axis=-1) / _LN2, terms[..., cut:].sum(axis=-1) / _LN2
        return np.where(din >= _FLOOR, dout / np.maximum(din, _FLOOR), -math.inf), din
    return ratio


def _ascend(mu, K, ratio, nu) -> tuple[np.ndarray, np.ndarray]:
    """Mirror ascent of D(nu K || mu K) / D(nu || mu) from each row of ``nu``,
    scored by ``ratio``, the ``_ratio(mu, K)`` map; returns each end nu and
    its ratio, -inf if below the floor. Each iteration scores two trials per
    row in one array, nu * exp(s grad) and mu + e^l (nu - mu), as the ratio
    is far flatter along the ray from mu than across it, and a row takes the
    best if it scores higher. s doubles on a rise, else halves; l doubles,
    else flips sign and halves (1e-8 <= |l| <= 1). Stops after 500
    iterations, or 10 that raised the best ratio at most 1e-12 relative.
    """
    muK = mu @ K
    Ku, muKu = K[:, muK > 0.0], muK[muK > 0.0]
    (f, din), S = ratio(nu - mu), len(nu)
    step, lam, best = np.ones(S), np.full(S, 0.25), [float(f.max())]
    for _ in range(500):
        # the gradient up to a constant per row and a scale; log 0 is cut at -690
        grad = ((np.log(np.maximum(nu @ Ku, 1e-300) / muKu) @ Ku.T
                 - np.where(f > -math.inf, f, 0.0)[:, None] * np.log(np.maximum(nu, 1e-300) / mu))
                / np.maximum(din, _FLOOR)[:, None])
        z = np.where(nu > 0.0, step[:, None] * grad, -math.inf)
        trials = np.concatenate([nu * np.exp(z - z.max(axis=1, keepdims=True)),
                                 np.maximum(mu + np.exp(lam)[:, None] * (nu - mu), 0.0)])
        trials /= trials.sum(axis=1, keepdims=True)
        ft, dt = ratio(trials - mu)
        step *= np.where(ft[:S] > f, 2.0, 0.5)
        lam *= np.where(ft[S:] > f, 2.0, -0.5)
        lam = np.copysign(np.minimum(np.maximum(np.abs(lam), 1e-8), 1.0), lam)
        # per row, the first maximal of nu and its two trials
        pick = np.concatenate([f, ft]).reshape(3, S).argmax(axis=0)
        one, two = pick == 1, pick == 2
        nu = np.where(one[:, None], trials[:S], np.where(two[:, None], trials[S:], nu))
        f, din = (np.where(one, b[:S], np.where(two, b[S:], a)) for a, b in ((f, ft), (din, dt)))
        best.append(float(f.max()))
        if len(best) > 10 and not best[-1] > best[-11] * (1.0 + 1e-12):
            break
    return nu, f


def eta_numeric(mu, channel: DiscreteChannel) -> ContractionEstimate:
    """Numeric lower estimate of eta(mu, K), with its argmax, for a
    full-support ``mu`` of up to 16 symbols.

    Scans mixture paths from mu toward every vertex and along both signs of
    the principal chi-square directions (singular vectors of the divergence
    transition matrix, whose local KL ratio attains the chi-square
    contraction; the SVD fixes no sign), at 60 log-spaced steps: at most 3k
    rays. The scan only chooses where mirror ascent (``_ascend``, no nu with
    D(nu || mu) < 1e-12 bits) starts: from its 8 best points, each moved
    1e-6 of the way to mu, the k points (mu + e_x) / 2 and 4 Dirichlet(1)
    points from default_rng(0). The value is the ascent's best end and the
    argmax that end. Every point is a feasible mixture, so the value can
    only undershoot the supremum.
    """
    mu = _validated_pmf(mu.probs if isinstance(mu, DiscreteDistribution) else mu, "input")
    if mu.size > 16:
        raise DistributionError("numeric search is limited to alphabets of size 16")
    if np.any(mu == 0.0):
        raise DistributionError("numeric search needs a full-support input")
    if mu.size != channel.num_inputs:
        raise DistributionError("input distribution does not match channel")
    K, k = channel.rows, mu.size
    muK, ratio = mu @ K, _ratio(mu, K)

    # vertices, then the chi-square principal directions with both signs
    eye, used = np.eye(k), muK > 0.0
    A = (np.sqrt(mu)[:, None] * K[:, used]) / np.sqrt(muK[used])[None, :]
    U, _, _ = np.linalg.svd(A, full_matrices=False)
    chi = (np.sqrt(mu)[:, None] * U[:, 1:]).T
    rays = np.concatenate([eye - mu, chi, -chi])
    rays -= rays.sum(axis=1)[:, None] * mu
    neg = rays < 0.0
    with np.errstate(divide="ignore"):
        t_max = np.where(neg, mu / -rays, math.inf).min(axis=1)
    # a ray that cannot move nu scans as zero steps, so its ratios are -inf
    steps = np.where(neg.any(axis=1), t_max, 0.0)[:, None] * np.geomspace(1e-6, 1.0, 60)
    # blocks of at most 8 192 elements: each call costs a fixed numpy
    # overhead, and larger blocks fall out of cache and raise peak memory
    rows = max(1, 8192 // (steps.shape[1] * k))
    scores = np.concatenate([ratio(steps[i:i + rows, :, None] * rays[i:i + rows, None])[0]
                             for i in range(0, len(rays), rows)])
    at = np.take_along_axis(steps, scores.argmax(axis=1)[:, None], axis=1)
    points = np.maximum(mu + at * rays, 0.0)

    # a multiplicative step cannot grow a zero entry, so each scanned start
    # moves 1e-6 of the way to mu: one on a face of the simplex can leave it
    top = points[np.argsort(-scores.max(axis=1), kind="stable")[:8]]
    starts = [top + 1e-6 * (mu - top), (mu + eye) / 2,
              np.random.default_rng(0).dirichlet(np.ones(k), 4)]
    ends, ratios = _ascend(mu, K, ratio, np.concatenate(starts))
    i = int(np.argmax(ratios))
    best = float(ratios[i])
    return ContractionEstimate(min(max(best, 0.0), 1.0), "numeric_lower_estimate",
                               "mixture-path scan, then mirror ascent above the floor",
                               ends[i] if best > -math.inf else None)


# ---------------------------------------------------------------------------
# combinators


def _as_estimate(eta, lower_ok: bool = False) -> ContractionEstimate:
    """``eta`` as a range-checked estimate; a bare float counts as exact.

    A numeric lower estimate is refused unless ``lower_ok``: an information
    budget is an upper bound only if every contraction in it is one.
    """
    if not isinstance(eta, ContractionEstimate):
        eta = ContractionEstimate(float(eta), "exact")
    if not lower_ok and eta.kind == "numeric_lower_estimate":
        raise DistributionError(
            "a budget needs an exact or upper-bound contraction coefficient, "
            f"not a numeric lower estimate ({eta.provenance})")
    return eta


def eta_multi_use(eta_single, T: float) -> ContractionEstimate:
    """Contraction bound for T channel uses: 1 - (1 - eta)^T.

    T may be fractional, as for one processor's share of a use budget.
    """
    if not T >= 0:
        raise DistributionError("use count cannot be negative")
    single = _as_estimate(eta_single, lower_ok=True)
    bound = 1.0 - (1.0 - single.value) ** T
    # the tensor bound is eta itself at T = 1 and an upper bound on the exact
    # coefficient otherwise, so it stays a lower estimate if eta was one
    kind = single.kind if T == 1 else max(single.kind, "upper_bound",
                                          key=_KIND_RANK.get)
    return ContractionEstimate(bound, kind, "tensor bound 1-(1-eta)^T")


# ---------------------------------------------------------------------------
# exact posterior-channel Dobrushin coefficient for the Bernoulli bias model


def _beta_cdf_int(a: int, b: int, x: float) -> float:
    """CDF of Beta(a, b) with integer parameters: P[Bin(a+b-1, x) >= a]."""
    m = a + b - 1
    return float(sum(math.comb(m, j) * x ** j * (1.0 - x) ** (m - j)
                     for j in range(a, m + 1)))


def _beta_density_coeffs(n: int, s: int) -> np.ndarray:
    """Monomial coefficients of (n+1) C(n,s) w^s (1-w)^{n-s}."""
    coeffs = np.zeros(n + 1)
    lead = (n + 1) * math.comb(n, s)
    for j in range(n - s + 1):
        coeffs[s + j] = lead * math.comb(n - s, j) * (-1) ** j
    return coeffs


def _beta_tv(n: int, s: int, sp: int) -> float:
    """Total variation between Beta(s+1, n-s+1) and Beta(sp+1, n-sp+1)."""
    diff = _beta_density_coeffs(n, s) - _beta_density_coeffs(n, sp)
    roots = np.polynomial.polynomial.polyroots(diff)
    cuts = [0.0]
    for r in roots:
        if abs(r.imag) < 1e-9 and 1e-12 < r.real < 1.0 - 1e-12:
            cuts.append(float(r.real))
    cuts.append(1.0)
    cuts.sort()
    gap = [
        _beta_cdf_int(s + 1, n - s + 1, x) - _beta_cdf_int(sp + 1, n - sp + 1, x)
        for x in cuts
    ]
    return 0.5 * float(sum(abs(b - a) for a, b in zip(gap, gap[1:])))


def dobrushin_bern_uniform_posterior(n: int) -> float:
    """Dobrushin coefficient of the posterior channel of a uniform Bernoulli bias.

    With W uniform on [0, 1] and n conditionally independent bits, the
    posterior given a sample with s ones is Beta(s+1, n-s+1); the coefficient
    is the largest total variation between two such rows, computed exactly
    via polynomial root isolation (the value is 1 - 2^{-n}, attained by the
    all-zeros and all-ones samples).
    """
    if n < 1:
        raise DistributionError("sample count must be at least 1")
    return max(_beta_tv(n, s, sp) for s in range(n + 1) for sp in range(s + 1, n + 1))
