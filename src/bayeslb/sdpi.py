"""Strong data-processing contraction coefficients and their upper bounds.

For an input distribution mu and channel K, the contraction coefficient is

    eta(mu, K) = sup_{nu != mu} D(nu K || mu K) / D(nu || mu),

and eta(K) is its supremum over mu. Every estimate carries a value and a
certified upper end: the two agree for closed forms and for structural
bounds (Dobrushin, the pairwise row ratio), and budgets read the upper end.
``eta_numeric`` searches for the value, skipping every nu with
D(nu || mu) < 1e-12 bits, and takes the Dobrushin coefficient, which bounds
eta(mu, K) for every mu, as its upper end. It scans mixture paths toward
the vertices and along both signs of the chi-square directions. At two
inputs these paths cover one segment through mu, and a line search on that
segment gives the value; from three inputs up, mirror ascent on nu starts
where the scan scores best, and its best end is the value. Each ascent
iteration also scores a safeguarded Newton step for the leading row, which
cuts the iterations about threefold and lets climbs that the mirror steps
end early finish. Everything scores through one ratio kernel, one matmul
into the Bregman form and one out of it, whose logs make the ascent's
gradient and the Newton step's Hessian. Every point is a feasible mixture,
so the value can only undershoot the supremum; it is capped at the upper end.
"""
from __future__ import annotations

import functools
import math

from .info import (
    DiscreteChannel,
    DistributionError,
    _Numpy,
    _Record,
    _set,
    _validated_pmf,
)

np = _Numpy(globals())

__all__ = [
    "ContractionEstimate",
    "eta_bsc",
    "dobrushin",
    "pairwise_ratio_bound",
    "eta_numeric",
    "eta_multi_use",
]

class ContractionEstimate(_Record):
    """A contraction coefficient's best value and its certified upper end."""

    __slots__ = _fields = ("value", "upper", "provenance", "argmax")

    def __init__(self, value: float, upper: float, provenance: str = "",
                 argmax: np.ndarray | None = None):
        _set(self, "value", value)
        _set(self, "upper", upper)
        _set(self, "provenance", provenance)
        _set(self, "argmax", argmax)
        if not (0.0 <= self.value <= 1.0 and 0.0 <= self.upper <= 1.0):
            raise DistributionError("contraction coefficients lie in [0, 1]")
        if self.value > self.upper:
            raise DistributionError("a contraction estimate's value exceeds its upper end")


def eta_bsc(eps: float) -> ContractionEstimate:
    """Contraction of the binary symmetric channel at uniform input: (1-2eps)^2."""
    if not 0.0 <= eps <= 0.5:
        raise DistributionError("crossover must lie in [0, 1/2]")
    eta = (1.0 - 2.0 * eps) ** 2
    return ContractionEstimate(eta, eta, "bsc closed form")


def dobrushin(channel: DiscreteChannel) -> ContractionEstimate:
    """Dobrushin coefficient, capped at 1: the most mass one row puts above
    another (for rows that sum to 1 only up to rounding, half the L1 is less)."""
    rows = channel.rows
    worst = min(float(np.maximum(rows[:, None] - rows[None], 0.0).sum(axis=-1).max()), 1.0)
    return ContractionEstimate(worst, worst, "dobrushin coefficient")


def pairwise_ratio_bound(channel: DiscreteChannel) -> ContractionEstimate:
    """Bound 1 - alpha from alpha = min over outputs and row pairs of K(y|x)/K(y|x').

    The same constant bounds the contraction of the channel and of its
    posterior (reverse) channel. A zero entry forces alpha = 0 and the
    vacuous bound 1.
    """
    rows = channel.rows
    alpha = 0.0 if np.any(rows == 0.0) else float((rows.min(axis=0) / rows.max(axis=0)).min())
    return ContractionEstimate(1.0 - alpha, 1.0 - alpha, "pairwise row ratio")


# ---------------------------------------------------------------------------
# numeric search


_LN2 = math.log(2.0)
# no nu with D(nu || mu) below this many bits is scored, about where a step
# of 1e-6 toward a vertex lands: nearer mu, nu - mu is rounding noise
_FLOOR = 1e-12


def _ratio(mu, K):
    """The map diff -> (D(nu K || mu K) / D(nu || mu), D(nu || mu) in bits)
    for nu = mu + diff along the last axis, the ratio -inf where
    D(nu || mu) < ``_FLOOR``; ``logs=True`` adds the logs it computes,
    log(nu / mu) then log(nu K / mu K), with log 0 cut at -690.

    With base = [mu, mu K] and u = [diff, diff K] / base, each divergence
    is the Bregman form sum_i base_i * g(u_i), g(u) = (1+u) log1p(u) - u,
    whenever ``diff`` sums to zero: each summand is nonnegative and of
    order diff^2, so nothing cancels; a series handles |u| <= 1e-2. A float
    diff misses zero sum by up to ~1e-16, whose square (~1e-33) would swamp
    the output divergence of rows that differ by 1e-40; so the kernel scores
    diff - (sum diff) mu, which sums to zero, with u - sum diff: nu is mu +
    diff moved along mu to mu's mass. Entries with base == 0 (outputs no
    input reaches) must have diff == 0 and are left out. M = [I | K] / base
    - 1 and W, base / ln 2 in an input and an output column, are built
    once: a score is u = diff @ M, then g(u) @ W.
    """
    base = np.concatenate([mu, mu @ K])
    mask = base > 0.0
    b, cut = base[mask], int(mask[:mu.size].sum())
    M = np.concatenate([np.eye(mu.size), K], axis=1)[:, mask] / b - 1.0
    W = np.zeros((b.size, 2))
    W[:cut, 0], W[cut:, 1] = b[:cut] / _LN2, b[cut:] / _LN2

    def ratio(diff, logs=False):
        u = diff @ M
        small, dead = np.abs(u) <= 1e-2, u <= -1.0
        us = u * small
        series = us * us * (1.0 / 2.0 - us * (1.0 / 6.0 - us * (
            1.0 / 12.0 - us * (1.0 / 20.0 - us * (1.0 / 30.0 - us / 42.0)))))
        ud = np.where(dead, 0.0, u)
        lg = np.log1p(ud)
        d = (np.where(small, series, (1.0 + ud) * lg - ud) + dead) @ W  # g(-1) = 1
        din = d[..., 0]
        f = np.where(din >= _FLOOR, d[..., 1] / np.maximum(din, _FLOOR), -math.inf)
        return (f, din, np.where(dead, -690.0, lg)) if logs else (f, din)
    return ratio


def _newton(Ku, nu, f, din, lin, lout, lam) -> np.ndarray:
    """A safeguarded Newton step from ``nu`` for f(nu) = D(nu K || mu K) /
    D(nu || mu) on the simplex's sum-zero tangent space, with ``f``, D(nu ||
    mu) in bits and the logs as ``_ratio`` returns them and ``Ku`` the rows
    on the reached outputs. With a = log(nu / mu), G = K log(nu K / mu K) -
    f a (D times the gradient) and D in nats, D times the Hessian is
    K diag(1 / nu K) K^T - f diag(1 / nu) - (a G^T + G a^T) / D. The
    projected system takes a Levenberg shift of ``lam`` times its largest
    diagonal entry; the step is cut to 0.999 of the longest that stays in
    the simplex, then clipped at 0 and renormalized. Returns ``nu`` itself
    when its ratio is below the floor, when it or nu K has a zero entry,
    or when the step is not finite.
    """
    nuK, k = nu @ Ku, nu.size
    if not (din >= _FLOOR and nu.min() > 0.0 and nuK.min() > 0.0):
        return nu
    G = Ku @ lout - f * lin
    with np.errstate(all="ignore"):
        cross = lin[:, None] * (G / (din * _LN2))
        H = cross + cross.T - (Ku / nuK) @ Ku.T  # -D times the Hessian
        H.flat[::k + 1] += f / nu
        # P H P with P = I - 11^T / k; H is symmetric, so its row and
        # column sums agree
        c = H.sum(axis=0) / k
        H -= c + (c - c.sum() / k)[:, None]
        H.flat[::k + 1] += lam * np.abs(H.diagonal()).max()
        try:
            d = np.linalg.solve(H, G - G.sum() / k)
        except np.linalg.LinAlgError:
            return nu
        d -= d.sum() / k
        reach = (-d / nu).max()  # the step leaves the simplex past 1 / reach
        trial = np.maximum(nu + d * (0.999 / reach if reach > 1.0 else 1.0), 0.0)
        total = float(trial.sum())
    # the entries are >= 0 or NaN, so a finite positive sum makes them all finite
    return trial / total if 0.0 < total < math.inf else nu


def _ascend(mu, K, ratio, nu) -> tuple[np.ndarray, np.ndarray]:
    """Mirror ascent of D(nu K || mu K) / D(nu || mu) from each row of ``nu``
    for a full-support mu, scored by ``ratio``, the ``_ratio(mu, K)`` map;
    returns each end nu and its ratio, -inf if below the floor. Each
    iteration scores, in one call, two trials per row, nu * exp(s grad) and
    mu + e^l (nu - mu), as the ratio is far flatter along the ray from mu
    than across it, and one for the leading row, a Newton step (``_newton``);
    a row takes its best trial if it scores higher, with the logs scored
    with it for its gradient, and the leader then takes the Newton trial if
    that scores higher still. s doubles on a rise, else halves; l doubles,
    else flips sign and halves (1e-8 <= |l| <= 1); the Newton shift lam is
    quartered on a rise, else quadrupled (1e-12 <= lam <= 1e6). A rise is
    a trial above its row's ratio before the iteration, so a Newton step
    that rises but loses to the leader's mirror trial does not grow lam.
    Stops after 500 iterations, or 10 that raised the best ratio at most
    1e-12 relative.
    """
    (S, k), Ku = nu.shape, K[:, mu @ K > 0.0]
    # rows S to 3S hold the two trials per row, row 3S the Newton trial; a
    # row is nu, its ratio, D(nu || mu), logs
    pool = np.empty((3 * S + 1, 2 * k + 2 + Ku.shape[1]))
    pool[:S, :k] = nu
    pool[:S, k], pool[:S, k + 1], pool[:S, k + 2:] = ratio(nu - mu, logs=True)
    nu, trials, fs, din = pool[:S, :k], pool[S:, :k], pool[:3 * S, k].reshape(3, S), pool[:S, k + 1]
    f, lin, lout, rows = fs[0], pool[:S, k + 2:2 * k + 2], pool[:S, 2 * k + 2:], np.arange(S)
    step, lam, shift, best = np.ones(S), np.full(S, 0.25), 1e-3, [float(f.max())]
    for _ in range(500):
        # the gradient up to a constant per row and a scale; f is -inf or >= 0
        grad = (lout @ Ku.T - np.maximum(f, 0.0)[:, None] * lin) / np.maximum(din, _FLOOR)[:, None]
        z = np.where(nu > 0.0, step[:, None] * grad, -math.inf)
        lead = int(f.argmax())
        trials[:S] = nu * np.exp(z - z.max(axis=1, keepdims=True))
        trials[S:2 * S] = np.maximum(mu + np.exp(lam)[:, None] * (nu - mu), 0.0)
        trials[:2 * S] /= trials[:2 * S].sum(axis=1, keepdims=True)
        trials[2 * S] = _newton(Ku, nu[lead], f[lead], din[lead], lin[lead], lout[lead], shift)
        pool[S:, k], pool[S:, k + 1], pool[S:, k + 2:] = ratio(trials - mu, logs=True)
        step *= np.where(fs[1] > f, 2.0, 0.5)
        lam *= np.where(fs[2] > f, 2.0, -0.5)
        lam = np.copysign(np.minimum(np.maximum(np.abs(lam), 1e-8), 1.0), lam)
        rose = pool[3 * S, k] > f[lead]
        shift = min(max(shift * (0.25 if rose else 4.0), 1e-12), 1e6)
        pool[:S] = pool[fs.argmax(axis=0) * S + rows]  # the first best of each row's three
        if pool[3 * S, k] > f[lead]:
            pool[lead] = pool[3 * S]
        best.append(float(f.max()))
        if len(best) > 10 and not best[-1] > best[-11] * (1.0 + 1e-12):
            break
    return nu.copy(), f.copy()


def _constant(build):
    """``build`` cached per argument, its array handed out read-only."""
    @functools.cache
    def cached(*args) -> np.ndarray:
        array = build(*args)
        array.flags.writeable = False
        return array
    return cached


_fractions = _constant(lambda: np.geomspace(1e-6, 1.0, 60))  # of each ray's longest step
_i61 = _constant(lambda: np.arange(61.0))
_dirichlet = _constant(lambda k: np.random.default_rng(0).dirichlet(np.ones(k), 4))


def _scan(mu, K, ratio) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scores, through ``ratio``, the mixture paths from mu toward every
    vertex and along both signs of the principal chi-square directions
    (singular vectors of the divergence transition matrix, whose local KL
    ratio attains the chi-square contraction; the SVD fixes no sign), at 60
    log-spaced steps up to each ray's longest: 3k - 2 rays, 2 at two inputs,
    where the chi-square rays would repeat the vertex rays' points. Returns
    the mass-preserving rays, their (rays, 60) steps and the steps' ratios.
    """
    k, rays = mu.size, np.eye(mu.size) - mu
    if k > 2:
        muK = mu @ K
        A = np.sqrt(mu)[:, None] * K[:, muK > 0.0] / np.sqrt(muK[muK > 0.0])
        chi = (np.sqrt(mu)[:, None] * np.linalg.svd(A, full_matrices=False)[0][:, 1:]).T
        rays = np.concatenate([rays, chi, -chi])
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
                           _dirichlet(mu.size)])


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
        t = _i61() * ((hi - lo) / 60) + lo  # np.linspace(lo, hi, 61) bit for bit
        t[-1] = hi
        f = ratio(t[:, None] * ray)[0]
        i = int(f.argmax())
        if f[i] > best:
            at, best = t[i], float(f[i])
        lo, hi = t[max(i - 1, 0)], t[min(i + 1, 60)]
    return np.maximum(mu + at * ray, 0.0), best


def eta_numeric(mu, channel: DiscreteChannel) -> ContractionEstimate:
    """Numeric search for eta(mu, K), with its argmax, for a full-support
    ``mu`` of up to 16 symbols; the upper end is the Dobrushin coefficient.

    ``_scan`` scores the mixture paths. At two inputs a line search on the
    scanned segment (``_line_search``) gives the value and the argmax; from
    three up they are the best end of mirror ascent (``_ascend``) from
    ``_starts``, whose leading row also tries a safeguarded Newton step each
    iteration (``_newton``). Every point is a feasible mixture, so the
    value can only undershoot the supremum; it is capped at the upper end,
    which the kernel's rounding can pass (1e-52 on a constant channel).
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
        nu, best, how = ends[i], float(ratios[i]), "mirror ascent with Newton trials"
    upper = dobrushin(channel).value
    return ContractionEstimate(min(max(best, 0.0), upper), upper,
                               f"mixture-path scan, then {how} above the floor",
                               nu if best > -math.inf else None)


# ---------------------------------------------------------------------------
# combinators


def _as_estimate(eta) -> ContractionEstimate:
    """``eta`` as an estimate; a bare number counts as exact and is range-checked.

    A budget reads the ``upper`` end: it is an upper bound only if every
    contraction in it is one.
    """
    if isinstance(eta, ContractionEstimate):
        return eta
    return ContractionEstimate(float(eta), float(eta))


def eta_multi_use(eta_single, T: float) -> ContractionEstimate:
    """Contraction bound for T channel uses: 1 - (1 - eta)^T at both ends.

    T may be fractional, as for one processor's share of a use budget.
    """
    if not T >= 0:
        raise DistributionError("use count cannot be negative")
    single = _as_estimate(eta_single)
    value, upper = (1.0 - (1.0 - x) ** T for x in (single.value, single.upper))
    return ContractionEstimate(value, upper, "tensor bound 1-(1-eta)^T")
