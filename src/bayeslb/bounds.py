"""Risk lower bounds and mutual-information upper bounds.

The lower-bound routines turn an information budget (a mutual information or
an information-density distribution) plus a small-ball profile of the prior
into a bound on Bayes risk; the ``mi_ub_*`` routines compute the information
budgets themselves for single-processor, replicated i.i.d., cutset and
interactive protocols. Every result is wrapped in a ``BoundReport`` carrying
the optimizing arguments and status flags. Negative lower bounds are clamped
to zero and flagged, never silently returned.
"""
from __future__ import annotations

import math

from .info import (DistributionError, InfoDensityDistribution, _Numpy, _Record,
                   log_unit_ball_volume)
from .sdpi import _as_estimate, _constant, eta_multi_use

np = _Numpy(globals())

__all__ = [
    "BoundReport",
    "lb_mi_smallball",
    "lb_info_density",
    "lb_diff_entropy",
    "log_diff_entropy_constant",
    "fano",
    "mi_ub_single",
    "mi_ub_multi_iid",
    "mi_ub_cutset",
    "mi_ub_interactive",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class BoundReport(_Record):
    """A bound value with the argument that achieved it and status flags;
    ``arguments`` and ``inputs`` default to a new empty dict each."""

    __slots__ = _fields = ("value", "kind", "arguments", "inputs", "clamped",
                           "asymptotic", "infeasible")

    def __init__(self, value: float, kind: str, arguments: dict | None = None,
                 inputs: dict | None = None, clamped: bool = False,
                 asymptotic: bool = False, infeasible: bool = False):
        self._set_fields(value, kind, {} if arguments is None else arguments,
                         {} if inputs is None else inputs, clamped, asymptotic, infeasible)


_log_grid = _constant(lambda lo, hi: np.geomspace(lo, hi, 200))


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization of f on [lo, hi], in 60 steps."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(60):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def _refine(f, grid: np.ndarray, vals: np.ndarray) -> tuple[float, float]:
    """Golden-refine f between the grid neighbours of the first maximum of
    ``vals`` = f(grid); the refined point wins only if strictly better."""
    i = int(np.argmax(vals))
    if not math.isfinite(vals[i]):
        return float(grid[i]), float(vals[i])
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    x, fx = _golden_max(f, float(lo), float(hi))
    if fx > vals[i]:
        return x, float(fx)
    return float(grid[i]), float(vals[i])


def _clamped_report(value, kind, arguments, inputs=None) -> BoundReport:
    return BoundReport(max(value, 0.0), kind, arguments, inputs, clamped=value < 0.0)


def _checked_smallball(smallball, rho: float) -> float:
    val = float(smallball(rho))
    if not 0.0 < val <= 1.0:
        raise DistributionError(
            f"small-ball value {val:.6g} at radius {rho:.6g} is outside (0, 1]")
    return val


# ---------------------------------------------------------------------------
# risk lower bounds


def lb_mi_smallball(mi: float, smallball) -> BoundReport:
    """Risk lower bound from a mutual-information budget and small-ball profile.

    Maximizes rho * (1 - (mi + 1) / log2(1 / L(rho))) over a log grid of
    radii over [1e-6, 1], where L is the (expected conditional) small-ball
    probability.

    Parameters
    ----------
    mi : information budget in bits (conditional or unconditional).
    smallball : callable rho -> L(rho), values required to lie in (0, 1];
        it must be nondecreasing, as a small-ball probability is.
    """
    if not mi >= 0.0:  # also refuses NaN
        raise DistributionError(f"mutual information must be >= 0, not {mi}")

    def objective(rho):
        L = _checked_smallball(smallball, rho)
        if L >= 1.0:
            return -math.inf
        return rho * (1.0 - (mi + 1.0) / math.log2(1.0 / L))

    grid = _log_grid(1e-6, 1.0)
    rho_star, val = _refine(objective, grid, np.array([objective(x) for x in grid.tolist()]))
    best, arguments = -math.inf, {}
    if val > best:  # false when every radius scores -inf or NaN
        best, arguments = val, {"rho": rho_star, "branch": "direct"}
    return _clamped_report(best, "mi-smallball", arguments, {"mi": mi})


def lb_info_density(density: InfoDensityDistribution, smallball, gamma_grid=None,
                    inf_ratio: float | None = None) -> BoundReport:
    """Risk lower bound from the information-density distribution.

    Maximizes rho * (P[i < log2 gamma] - gamma * L(rho)) jointly over the
    threshold grid and a log grid of radii over [1e-6, 1]. With ``inf_ratio``
    (the essential infimum of the prior-to-posterior density ratio) the
    sharper form adds gamma * inf_ratio * P[i >= log2 gamma].

    ``density`` is an ``InfoDensityDistribution``, e.g. from
    ``info.information_density``. ``smallball`` maps a radius to L(rho) in
    (0, 1] and must be nondecreasing, as a small-ball probability is; a
    profile that decreases on the radius grid is refused.

    At fixed P[i < log2 gamma] the objective is affine in gamma, so on a
    strictly increasing grid only the first threshold of a run of equal P can
    win (both ends with ``inf_ratio``); these are scored on the radius grid as
    one array. Each one's best grid radius is refined by golden section, in
    descending order of a bound on what refinement can reach, until that bound
    falls below the best value found; ties go to the earliest threshold.
    """
    rho_grid = _log_grid(1e-6, 1.0)
    if gamma_grid is None:
        gamma_grid = _log_grid(1e-3, 1e3)
    gammas = np.asarray(gamma_grid, dtype=float)
    p_below = density.prob_below([math.log2(g) for g in gammas.tolist()])
    if gammas.size > 1 and np.all(gammas[1:] > gammas[:-1]):
        # threshold j starts a run of equal P if cut[j], and ends one if cut[j + 1]
        cut = np.concatenate(([True], p_below[1:] != p_below[:-1], [True]))
        keep = cut[:-1] | cut[1:] if inf_ratio is not None else cut[:-1]
        gammas, p_below = gammas[keep], p_below[keep]
    extra = (gammas * inf_ratio * (1.0 - p_below) if inf_ratio is not None
             else np.zeros_like(p_below))
    L = np.array([_checked_smallball(smallball, rho) for rho in rho_grid.tolist()])
    if np.any(L[1:] < L[:-1]):
        i = int(np.argmax(L[1:] < L[:-1]))
        raise DistributionError(
            f"small-ball profile decreases from {L[i]:.6g} at radius "
            f"{rho_grid[i]:.6g} to {L[i + 1]:.6g} at {rho_grid[i + 1]:.6g}")
    vals = rho_grid * ((p_below[:, None] - gammas[:, None] * L) + extra[:, None])

    # L >= L(lo) on a bracket [lo, hi], so golden section there can reach at
    # most x * y with y = p - gamma * L(lo) + e, i.e. lo * y or hi * y
    top = np.argmax(vals, axis=1)
    peak = vals[np.arange(gammas.size), top]
    lo = np.maximum(top - 1, 0)
    hi = np.minimum(top + 1, rho_grid.size - 1)
    y = (p_below - gammas * L[lo]) + extra
    reach = np.maximum(np.maximum(rho_grid[lo] * y, rho_grid[hi] * y), peak)

    best, best_g = -math.inf, None
    arguments: dict = {}
    gam, pb, ex = gammas.tolist(), p_below.tolist(), extra.tolist()
    for g in np.argsort(-reach, kind="stable").tolist():
        if not reach[g] >= best:  # also ends at the NaN rows, sorted last
            break

        def objective(rho, _g=gam[g], _p=pb[g], _e=ex[g]):
            return rho * (_p - _g * _checked_smallball(smallball, rho) + _e)

        rho_star, val = _refine(objective, rho_grid, vals[g])
        if val > best or (val == best and best_g is not None and g < best_g):
            best, best_g = val, g
            arguments = {"rho": rho_star, "gamma": gam[g]}

    return _clamped_report(best, "info-density", arguments)


def lb_diff_entropy(mi: float, h: float, d: int = 1, r: float = 1.0) -> BoundReport:
    """Risk lower bound for r-th power of norm loss via differential entropy.

    Value: (d / (r e)) (V_d Gamma(1 + d/r))^{-r/d} 2^{-(mi - h) r / d} with
    V_d the unit-ball volume, ``h`` the (conditional) differential entropy of
    the estimand in bits and ``mi`` the information budget in bits.
    """
    if d < 1 or not 1.0 <= r < math.inf:
        raise DistributionError("need dimension >= 1 and a finite norm exponent >= 1")
    if mi < 0.0:
        raise DistributionError("mutual information cannot be negative")
    log_const = log_diff_entropy_constant(d, r)
    const, exponent = math.exp(log_const), -(mi - h) * r / d
    try:
        value = const * 2.0 ** exponent
    except OverflowError:  # 2^exponent alone overflows: form the floor in logs
        try:
            value = math.exp(log_const + exponent * math.log(2.0))
        except OverflowError:
            value = math.inf
    if not math.isfinite(value):
        why = "exceeds the float range" if value > 0.0 else "is undefined"
        raise DistributionError(f"the risk floor for I={mi}, h={h}, d={d}, r={r} {why}")
    return BoundReport(value, "diff-entropy", {"constant": const},
                       {"mi": mi, "h": h, "d": d, "r": r})


def log_diff_entropy_constant(d: int, r: float) -> float:
    """ln of (d / (r e)) (V_d Gamma(1 + d/r))^{-r/d}, finite where its factors overflow."""
    return math.log(d / (r * math.e)) \
        - (r / d) * (log_unit_ball_volume(d) + math.lgamma(1.0 + d / r))


def fano(mi: float, m: int) -> BoundReport:
    """Fano's lower bound 1 - (mi + 1)/log2(m) on the error probability of
    identifying one of m equiprobable hypotheses from ``mi`` bits.

    The raw right-hand side is recorded under ``arguments['raw']``; the
    returned value is clamped to be a valid probability lower bound.
    """
    if m < 2:
        raise DistributionError("need at least two hypotheses")
    if not mi >= 0.0:  # also refuses NaN
        raise DistributionError(f"mutual information must be >= 0, not {mi}")
    raw = 1.0 - (mi + 1.0) / math.log2(m)
    return _clamped_report(raw, "fano-classic", {"raw": raw}, {"mi": mi, "m": m})


# ---------------------------------------------------------------------------
# mutual-information upper bounds for communication protocols


def _term(*factors) -> float:
    """Product of a budget term's factors. A zero factor makes it 0 even next
    to an unset (infinite) budget, since a zero contraction or resource passes
    nothing; a NaN factor still makes it NaN."""
    if 0.0 in factors and not any(math.isnan(f) for f in factors):
        return 0.0
    return math.prod(factors)


def _min_terms(terms: dict) -> tuple[float, str]:
    """The smallest budget term and its name; a NaN or negative term is refused,
    since no information or bit budget is negative."""
    for name, value in terms.items():
        if not value >= 0.0:
            why = "NaN" if math.isnan(value) else f"negative ({value})"
            raise DistributionError(f"budget term {name!r} is {why}")
    active = min(terms, key=terms.get)
    return terms[active], active


def mi_ub_single(i_wx: float, h_x: float, b: float, capacity: float, T: int,
                 eta_stat, eta_uses) -> BoundReport:
    """Information budget of one processor talking over a noisy channel.

    Three ways the data pipe can be the bottleneck: the source information
    itself (contracted by the channel uses), the quantization budget b or
    source entropy (whichever is smaller, contracted twice), and the channel
    capacity over T uses. Records which term is active, and the ordinary
    data-processing value min(i_wx, min(h_x, b), capacity * T) for comparison.
    """
    if T < 1:
        raise DistributionError("use count must be at least 1")
    eta_stat = _as_estimate(eta_stat).upper
    eta_uses = _as_estimate(eta_uses).upper
    data, _ = _min_terms({"h_x": h_x, "b": b})
    terms = {
        "source": _term(i_wx, eta_uses),
        "bits": _term(eta_stat, data, eta_uses),
        "capacity": _term(eta_stat, capacity, T),
    }
    value, active = _min_terms(terms)
    odpi = min(i_wx, data, capacity * T)
    return BoundReport(value, "mi-ub-single",
                       {"active": active, "terms": terms, "odpi": odpi},
                       {"i_wx": i_wx, "h_x": h_x, "b": b,
                        "capacity": capacity, "T": T,
                        "eta_stat": eta_stat, "eta_uses": eta_uses})


def mi_ub_multi_iid(i_w_all: float, i_w_single: float, eta_stat, m: int,
                    b: float, capacity: float, T: int, eta_uses_T,
                    eta_uses_mT=None) -> BoundReport:
    """Information budget of m processors with conditionally i.i.d. sample sets.

    The source term takes the smaller of the joint information contracted
    over all m T uses and m times the per-processor information contracted
    over T uses. ``eta_uses_mT`` defaults to the tensor bound
    ``eta_multi_use(eta_uses_T, m)``, which is eta_uses_T at m = 1.
    """
    if m < 1:
        raise DistributionError("processor count must be at least 1")
    eta_stat = _as_estimate(eta_stat).upper
    eta_T = _as_estimate(eta_uses_T).upper
    eta_mT = (eta_multi_use(eta_T, m) if eta_uses_mT is None
              else _as_estimate(eta_uses_mT)).upper
    terms = {
        "source": _min_terms({"joint": _term(i_w_all, eta_mT),
                              "split": _term(m, i_w_single, eta_T)})[0],
        "bits": _term(eta_stat, m, b, eta_T),
        "capacity": _term(eta_stat, m, capacity, T),
    }
    value, active = _min_terms(terms)
    return BoundReport(value, "mi-ub-multi-iid",
                       {"active": active, "terms": terms},
                       {"i_w_all": i_w_all, "i_w_single": i_w_single, "m": m,
                        "b": b, "capacity": capacity, "T": T,
                        "eta_stat": eta_stat, "eta_uses_T": eta_T,
                        "eta_uses_mT": eta_mT})


def mi_ub_cutset(i_cond: float, eta_s, num_outside: int, b: float,
                 capacity: float, T: int, eta_uses, colocated: bool = False,
                 m: int | None = None, noiseless: bool = False) -> BoundReport:
    """Information budget across a cutset of processors.

    ``i_cond`` is the information of the estimand with the samples outside
    the cutset given those inside, ``eta_s`` the contraction of the posterior
    channel given the cutset samples, and ``num_outside`` the number of
    processors outside. In the colocated regime the bit and capacity terms
    count all ``m`` transmissions instead of ``num_outside``. With
    ``noiseless`` communication the channel-use contraction disappears and
    the capacity term is dropped.
    """
    if num_outside < 0:
        raise DistributionError("cutset complement size cannot be negative")
    if num_outside == 0:
        return BoundReport(0.0, "mi-ub-cutset", {"active": "empty"}, {"num_outside": 0})
    if colocated and m is None:
        raise DistributionError("colocated form needs the processor count m")
    eta_s = _as_estimate(eta_s).upper
    eta_uses = 1.0 if noiseless else _as_estimate(eta_uses).upper
    mult = m if colocated else num_outside
    terms = {
        "source": _term(i_cond, eta_uses),
        "bits": _term(eta_s, mult, b, eta_uses),
    }
    if not noiseless:
        terms["capacity"] = _term(eta_s, mult, capacity, T)
    value, active = _min_terms(terms)
    return BoundReport(value, "mi-ub-cutset",
                       {"active": active, "terms": terms},
                       {"i_cond": i_cond, "eta_s": eta_s,
                        "num_outside": num_outside, "b": b, "capacity": capacity,
                        "T": T, "colocated": colocated, "m": m,
                        "noiseless": noiseless})


def mi_ub_interactive(alpha: float, n: int, m: int, b: float,
                      i_w_all: float) -> BoundReport:
    """Information budget for one round of serial (interactive) transmissions.

    ``alpha`` is the pairwise likelihood-ratio floor of the per-sample
    observation channel; n conditionally independent samples weaken it to
    alpha^n, so the messages carry at most (1 - alpha^n) m b bits about the
    estimand regardless of the interaction pattern.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DistributionError("ratio floor must lie in [0, 1]")
    if n < 0 or m < 1:
        raise DistributionError("need n >= 0 samples and m >= 1 processors")
    terms = {
        "source": i_w_all,
        "bits": _term(1.0 - alpha ** n, m, b),
    }
    value, active = _min_terms(terms)
    return BoundReport(value, "mi-ub-interactive",
                       {"active": active, "terms": terms},
                       {"alpha": alpha, "n": n, "m": m, "b": b})

