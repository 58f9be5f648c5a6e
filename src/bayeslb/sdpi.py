"""Strong data-processing contraction coefficients and their upper bounds.

For an input distribution mu and channel K, the contraction coefficient is

    eta(mu, K) = sup_{nu != mu} D(nu K || mu K) / D(nu || mu),

and eta(K) is its supremum over mu. Every estimate carries a ``kind`` tag:
``exact`` for closed forms, ``upper_bound`` for structural bounds (Dobrushin,
the pairwise row ratio, the multi-use tensor bound), and
``numeric_lower_estimate`` for the search in ``eta_numeric``, which scans
feasible mixtures and therefore can only undershoot the supremum.
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
    """Dobrushin coefficient: the largest total variation between two rows."""
    rows = channel.rows
    worst = 0.5 * float(np.abs(rows[:, None] - rows[None]).sum(axis=-1).max())
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
_RESTARTS = 8  # restart r of the ascent in ``eta_numeric`` draws from default_rng(r)
_BLOCK = 8192


def _kl_shifted(base: np.ndarray, diff: np.ndarray, split: int) -> tuple[np.ndarray, np.ndarray]:
    """D(base + diff || base) in bits along the last axis, over base[:split]
    and over base[split:] apart, for diff that preserves the mass of each part.

    Evaluates the Bregman form sum_i base_i * g(diff_i / base_i) with
    g(u) = (1+u) log1p(u) - u, which equals the divergence whenever ``diff``
    sums to zero. Each summand is nonnegative and of order diff^2, so there
    is no cancellation, and residual mass error from floating point enters
    only quadratically; a truncated series handles |u| below 1e-2. Entries
    with base == 0 must have diff == 0 and are left out of the sum.
    """
    mask = base > 0.0
    b = base[mask]
    cut = int(mask[:split].sum())
    # C order, so that each row sums in numpy's pairwise order for a 1-D array
    u = np.ascontiguousarray(diff[..., mask]) / b
    small = np.abs(u) <= 1e-2
    dead = u <= -1.0
    us = np.where(small, u, 0.0)
    series = us * us * (1.0 / 2.0 - us * (1.0 / 6.0 - us * (
        1.0 / 12.0 - us * (1.0 / 20.0 - us * (1.0 / 30.0 - us / 42.0)))))
    ub = np.where(small | dead, 0.0, u)
    g = np.where(small, series, np.where(dead, 1.0, (1.0 + ub) * np.log1p(ub) - ub))
    terms = b * g
    return terms[..., :cut].sum(axis=-1) / _LN2, terms[..., cut:].sum(axis=-1) / _LN2


def _scan_many(mu, muK, K, directions, fracs) -> tuple[np.ndarray, np.ndarray]:
    """Best ratio D(nu K || mu K) / D(nu || mu) over nu = mu + t d, for each
    row of ``directions``, scored as one (R, T, k) array.

    d is the mass-preserving part of the row and t each of ``fracs`` times
    the longest feasible step. Returns, per row, the ratio and t of the
    first maximal step, or (-inf, 0) if no step moves nu. Row r of the
    result is bit for bit what a one-row call gives: sums run along
    contiguous rows in numpy's pairwise order, and d @ K is taken one row
    at a time, since a batched product may sum in another order.
    """
    directions = directions - directions.sum(axis=1)[:, None] * mu
    neg = directions < 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_max = np.where(neg, mu / -directions, math.inf).min(axis=1)
    t_max = np.where(neg.any(axis=1), t_max, 1.0)
    # a direction that cannot move nu scans as zero steps, so its ratios are -inf
    ok = (t_max > 0.0) & np.isfinite(directions).all(axis=1)
    steps = fracs * np.where(ok, t_max, 0.0)[:, None]
    moved = np.where(ok[:, None], directions, 0.0)
    out = np.array([d @ K for d in moved])
    # one pass scores D(nu || mu) and D(nu K || mu K) side by side
    din, dout = _kl_shifted(np.concatenate([mu, muK]),
                            steps[:, :, None] * np.concatenate([moved, out], axis=1)[:, None],
                            mu.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = dout / din
    ratios = np.where((din > 0.0) & ~np.isnan(ratios), ratios, -math.inf)
    best = np.argmax(ratios, axis=1)
    rows = np.arange(best.size)
    ratio = ratios[rows, best]
    return ratio, np.where(ratio == -math.inf, 0.0, steps[rows, best])


def _scan_blocks(mu, muK, K, directions, fracs) -> tuple[np.ndarray, np.ndarray]:
    """``_scan_many`` in blocks of at most ``_BLOCK`` elements (R * T * k):
    each call costs a fixed numpy overhead, and blocks larger than that
    fall out of cache and score slower per row."""
    rows = max(1, _BLOCK // (fracs.size * mu.size))
    parts = [_scan_many(mu, muK, K, directions[i:i + rows], fracs)
             for i in range(0, len(directions), rows)]
    return (np.concatenate([ratios for ratios, _ in parts]),
            np.concatenate([steps for _, steps in parts]))


def eta_numeric(mu, channel: DiscreteChannel) -> ContractionEstimate:
    """Numeric lower estimate of eta(mu, K) for alphabets up to 16.

    Strategy: scan mixture paths from mu toward every vertex and along every
    coordinate-pair direction with log-spaced step sizes, add the principal
    chi-square directions (singular vectors of the divergence transition
    matrix, whose local KL ratio attains the chi-square contraction), then
    run 8 random restarts of coordinate ascent over the direction, restart r
    drawing from seed r; the restarts step in lockstep, so each round scores
    all their trial directions as one array. Every candidate is a feasible
    mixture, so the result can only undershoot the true supremum.

    Parameters
    ----------
    mu : input distribution (full support required).
    channel : the channel K.

    Returns
    -------
    ContractionEstimate
        kind ``numeric_lower_estimate`` with the best ratio and its argmax.
    """
    mu = _validated_pmf(mu.probs if isinstance(mu, DiscreteDistribution) else mu, "input")
    if mu.size > 16:
        raise DistributionError("numeric search is limited to alphabets of size 16")
    if np.any(mu == 0.0):
        raise DistributionError("numeric search needs a full-support input")
    if mu.size != channel.num_inputs:
        raise DistributionError("input distribution does not match channel")
    K = channel.rows
    muK = mu @ K
    k = mu.size
    t_grid = np.geomspace(1e-6, 1.0, 60)

    # vertices, then coordinate pairs, then the chi-square principal directions
    eye = np.eye(k)
    used = muK > 0.0
    A = (np.sqrt(mu)[:, None] * K[:, used]) / np.sqrt(muK[used])[None, :]
    U, _, _ = np.linalg.svd(A, full_matrices=False)
    candidates = np.concatenate([eye - mu,
                                 (eye[:, None] - eye[None])[~np.eye(k, dtype=bool)],
                                 (np.sqrt(mu)[:, None] * U[:, 1:]).T])

    scores, steps = _scan_blocks(mu, muK, K, candidates, t_grid)

    # each restart keeps its own generator, acceptance, step and stop, so
    # the lockstep changes only how the trials are scored, not which win
    coarse = t_grid[::4]
    rngs = [np.random.default_rng(r) for r in range(_RESTARTS)]
    vs = []
    for rng in rngs:
        v = rng.standard_normal(k)
        v -= v.mean()
        vs.append(v)
    cur = list(_scan_many(mu, muK, K, np.array(vs), coarse)[0])
    step = [0.5] * _RESTARTS
    active = list(range(_RESTARTS))
    for _ in range(40):
        improved = set()
        for _ in range(k):
            owners, trials = [], []
            for r in active:
                i, j = rngs[r].integers(0, k, 2)
                if i != j:
                    owners.append(r)
                    trials.append(vs[r] + step[r] * (eye[i] - eye[j]))
            if not trials:
                continue
            ratios, _ = _scan_many(mu, muK, K, np.array(trials), coarse)
            for r, trial, ratio in zip(owners, trials, ratios):
                if ratio > cur[r]:
                    cur[r], vs[r] = ratio, trial
                    improved.add(r)
        for r in [r for r in active if r not in improved]:
            step[r] *= 0.5
            if step[r] < 1e-4:
                active.remove(r)
        if not active:
            break
    # the first maximal candidate wins, then the first maximal restart
    directions = np.concatenate([candidates, vs])
    final_scores, final_steps = _scan_blocks(mu, muK, K, directions[len(candidates):], t_grid)
    scores = np.concatenate([scores, final_scores])
    i = int(np.argmax(scores))
    best = float(scores[i])
    argmax = None
    if best > -math.inf:
        t = np.concatenate([steps, final_steps])[i]
        argmax = mu + t * (directions[i] - directions[i].sum() * mu)
    value = min(max(best, 0.0), 1.0)
    return ContractionEstimate(value, "numeric_lower_estimate",
                               "mixture-path scan with restarts", argmax)


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
