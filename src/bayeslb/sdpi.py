"""Strong data-processing contraction coefficients and their upper bounds.

For an input distribution mu and channel K, the contraction coefficient is

    eta(mu, K) = sup_{nu != mu} D(nu K || mu K) / D(nu || mu),

and eta(K) is its supremum over mu. Every estimate carries a ``kind`` tag:
``exact`` for closed forms, ``upper_bound`` for structural bounds (Dobrushin,
the pairwise row ratio, the multi-use tensor bound), and
``numeric_lower_estimate`` for ``eta_numeric``, which skips every nu with
D(nu || mu) < 1e-12 bits. It scans mixture paths toward the vertices and
along both signs of the chi-square directions. At two inputs these paths
cover one segment through mu, and a line search on that segment gives the
value; from three inputs up, mirror ascent on nu starts where the scan
scores best, and its best end is the value. Everything scores through one
ratio kernel, and every point is a feasible mixture, so the estimate can
only undershoot the supremum.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .info import (
    DiscreteChannel,
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


@functools.cache
def _fractions() -> np.ndarray:
    """The scan's 60 log-spaced fractions of each ray's longest step,
    built once, on first use, as a read-only array."""
    grid = np.geomspace(1e-6, 1.0, 60)
    grid.flags.writeable = False
    return grid


def _scan(mu, K, ratio) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scores, through ``ratio``, the mixture paths from mu toward every
    vertex and along both signs of the principal chi-square directions
    (singular vectors of the divergence transition matrix, whose local KL
    ratio attains the chi-square contraction; the SVD fixes no sign), at 60
    log-spaced steps up to each ray's longest: at most 3k rays. Returns the
    mass-preserving rays, their (rays, 60) steps and the steps' ratios.
    """
    k, muK = mu.size, mu @ K
    used = muK > 0.0
    A = (np.sqrt(mu)[:, None] * K[:, used]) / np.sqrt(muK[used])[None, :]
    U, _, _ = np.linalg.svd(A, full_matrices=False)
    chi = (np.sqrt(mu)[:, None] * U[:, 1:]).T
    rays = np.concatenate([np.eye(k) - mu, chi, -chi])
    rays -= rays.sum(axis=1)[:, None] * mu
    neg = rays < 0.0
    with np.errstate(divide="ignore"):
        t_max = np.where(neg, mu / -rays, math.inf).min(axis=1)
    # a ray that cannot move nu scans as zero steps, so its ratios are -inf
    steps = np.where(neg.any(axis=1), t_max, 0.0)[:, None] * _fractions()
    # blocks of at most 8 192 elements: each call costs a fixed numpy
    # overhead, and larger blocks fall out of cache and raise peak memory
    rows = max(1, 8192 // (steps.shape[1] * k))
    scores = np.concatenate([ratio(steps[i:i + rows, :, None] * rays[i:i + rows, None])[0]
                             for i in range(0, len(rays), rows)])
    return rays, steps, scores


def _starts(mu, rays, steps, scores) -> np.ndarray:
    """The mirror ascent's starts: the scan's 8 best points, each moved 1e-6
    of the way to mu, since a multiplicative step cannot grow a zero entry
    and a start on a face of the simplex must be able to leave it; the k
    points (mu + e_x) / 2; and 4 Dirichlet(1) points from default_rng(0)."""
    at = np.take_along_axis(steps, scores.argmax(axis=1)[:, None], axis=1)
    points = np.maximum(mu + at * rays, 0.0)
    top = points[np.argsort(-scores.max(axis=1), kind="stable")[:8]]
    return np.concatenate([top + 1e-6 * (mu - top), (mu + np.eye(mu.size)) / 2,
                           np.random.default_rng(0).dirichlet(np.ones(mu.size), 4)])


def _line_search(mu, ratio, rays, steps, scores) -> tuple[np.ndarray, float]:
    """At two inputs every ray lies on one segment through mu, so the best
    scanned step's two neighbours bracket the search: 10 rounds each score
    61 evenly spaced steps in one ``ratio`` call and narrow the bracket to
    the neighbours of the round's best. Returns the best point seen, the
    scanned step included, and its ratio."""
    r, j = divmod(int(scores.argmax()), steps.shape[1])
    ray, at, best = rays[r], steps[r, j], float(scores[r, j])
    lo, hi = steps[r, j - 1] if j else 0.0, steps[r, min(j + 1, steps.shape[1] - 1)]
    for _ in range(10):
        t = np.linspace(lo, hi, 61)
        f = ratio(t[:, None] * ray)[0]
        i = int(f.argmax())
        if f[i] > best:
            at, best = t[i], float(f[i])
        lo, hi = t[max(i - 1, 0)], t[min(i + 1, 60)]
    return np.maximum(mu + at * ray, 0.0), best


def eta_numeric(mu, channel: DiscreteChannel) -> ContractionEstimate:
    """Numeric lower estimate of eta(mu, K), with its argmax, for a
    full-support ``mu`` of up to 16 symbols.

    Scans mixture paths toward the vertices and along both signs of the
    chi-square directions (``_scan``); no nu with D(nu || mu) < 1e-12 bits
    is scored. At two inputs these paths cover one segment through mu, and
    a line search on it (``_line_search``) from the best scanned step gives
    the value and the argmax. From three inputs up the scan only chooses
    where mirror ascent (``_ascend``) starts (``_starts``), and the value is
    the ascent's best end and the argmax that end. Every point is a
    feasible mixture, so the value can only undershoot the supremum.
    """
    mu = _validated_pmf(mu, "input")
    if mu.size > 16:
        raise DistributionError("numeric search is limited to alphabets of size 16")
    if np.any(mu == 0.0):
        raise DistributionError("numeric search needs a full-support input")
    if mu.size != channel.num_inputs:
        raise DistributionError("input distribution does not match channel")
    K, ratio = channel.rows, _ratio(mu, channel.rows)
    rays, steps, scores = _scan(mu, K, ratio)
    if mu.size == 2:
        nu, best = _line_search(mu, ratio, rays, steps, scores)
        how = "a line search on the scanned segment"
    else:
        ends, ratios = _ascend(mu, K, ratio, _starts(mu, rays, steps, scores))
        i = int(np.argmax(ratios))
        nu, best, how = ends[i], float(ratios[i]), "mirror ascent"
    return ContractionEstimate(min(max(best, 0.0), 1.0), "numeric_lower_estimate",
                               f"mixture-path scan, then {how} above the floor",
                               nu if best > -math.inf else None)


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
