"""Shared information-theoretic primitives on finite alphabets and simple priors.

Conventions used across the package:

* every information quantity is measured in bits (log base 2),
* 0 log 0 = 0,
* probability vectors must already be normalized: anything whose mass
  deviates from 1 by more than ``PROB_ATOL`` is rejected, never silently
  renormalized,
* quantities that are infinite (e.g. KL divergence under support
  violation) come back as ``math.inf``, not NaN.
"""
from __future__ import annotations

import math
import operator
import sys
from typing import NamedTuple


class _Numpy:
    """Stands in for numpy as a module's global ``np``, so that the
    closed-form commands start without it: the first attribute read imports
    numpy and rebinds that global to numpy itself."""

    def __init__(self, namespace: dict):
        self._namespace = namespace

    def __getattr__(self, name: str):
        import numpy
        self._namespace["np"] = numpy
        return getattr(numpy, name)


np = _Numpy(globals())

PROB_ATOL = 1e-12
_LN2 = math.log(2.0)
_FLOAT_MAX = sys.float_info.max

__all__ = [
    "PROB_ATOL",
    "DistributionError",
    "UnsupportedPairError",
    "ConvergenceError",
    "DiscreteDistribution",
    "DiscreteChannel",
    "JointPMF",
    "PriorSpec",
    "DistortionSpec",
    "InfoDensityDistribution",
    "NPPropertyReport",
    "bsc",
    "bec",
    "binary_entropy",
    "binary_relative_entropy",
    "inv_binary_entropy",
    "inv_binary_entropy_floor",
    "entropy",
    "kl_divergence",
    "mutual_information",
    "information_density",
    "neyman_pearson_beta",
    "verify_np_properties",
    "std_normal_cdf",
    "small_ball",
    "differential_entropy",
    "unit_ball_volume",
    "log_unit_ball_volume",
    "channel_capacity",
]


class DistributionError(ValueError):
    """A probability object failed validation."""


class UnsupportedPairError(ValueError):
    """No closed form is known for the requested (prior, distortion) pair."""


class ConvergenceError(RuntimeError):
    """An iterative routine exhausted its iteration cap."""


# sets a field of a _Record, past the guard that refuses every other assignment
_set = object.__setattr__


class _Record:
    """Base of the records that validate their fields or give each instance
    its own dicts; the others are named tuples. A subclass lists its
    constructor's parameters, in order, as ``_fields`` and in ``__slots__``;
    its ``__init__`` sets each field once, through ``_set_fields`` or ``_set``,
    and any later assignment or deletion raises ``AttributeError``.
    ``_replace`` builds its copy through ``__init__``, so a replaced field is
    validated like a new one. Records compare and hash by identity."""

    __slots__ = ()
    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def _set_fields(self, *values) -> None:
        """Set the fields, in order, to ``values``."""
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        """A copy with ``changes`` applied, validated as a new record is."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields},
                             **changes})


def _check_count(value, what: str, least: int = 1, most: float = _FLOAT_MAX) -> None:
    """Refuse a count that is not an integer in [``least``, ``most``]."""
    _check_field(value, what, int, least, most)


def _check_field(value, what: str, kind, least=-_FLOAT_MAX, most=_FLOAT_MAX) -> None:
    """The rule of a record field of type ``kind``: an ``int`` field takes an
    integer and a ``float`` field a real, neither a bool and each in [``least``,
    ``most``], by default the float range, so that a real is finite; a ``bool``
    field takes a bool; and an ``int | None`` or ``float | None`` field also
    takes None, unset. Anything else raises ``DistributionError`` naming it."""
    if value is None and isinstance(None, kind) or kind is bool and isinstance(value, bool):
        return
    real = isinstance(0.5, kind)
    try:  # + 0.0 refuses a str, None, a Decimal and an int past the float range
        number = float(value + 0.0) if real else operator.index(value)
        valid = kind is not bool and not isinstance(value, bool) and least <= number <= most
    except (TypeError, OverflowError):
        valid = False
    if not valid:
        noun = "a bool" if kind is bool else "a real" if real else "an integer"
        span = "" if kind is bool else f" in [{least}, {most}]" if most < _FLOAT_MAX \
            else (f" >= {least}" if least > -_FLOAT_MAX else "") + " in the float range"
        raise DistributionError(f"{what} {value!r} is not {noun}{span}")


def _validated_pmf(p, what: str) -> np.ndarray:
    """``p``, a vector or a ``DiscreteDistribution``, as a checked float array."""
    p = np.asarray(p.probs if isinstance(p, DiscreteDistribution) else p, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise DistributionError(f"{what} must be a nonempty vector")
    # written so that a NaN entry fails the range check
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise DistributionError(f"{what} entries must lie in [0, 1]")
    if abs(float(p.sum()) - 1.0) > PROB_ATOL:
        raise DistributionError(
            f"{what} mass {p.sum():.17g} deviates from 1 by more than {PROB_ATOL}"
        )
    return p


class DiscreteDistribution(_Record):
    """Probability vector on a finite alphabet {0, ..., k-1}."""

    __slots__ = _fields = ("probs",)

    def __init__(self, probs: np.ndarray):
        _set(self, "probs", _validated_pmf(probs, "distribution"))

    @property
    def size(self) -> int:
        return self.probs.size


class DiscreteChannel(_Record):
    """Row-stochastic matrix; ``rows[x, y]`` is the probability of output y on input x."""

    __slots__ = _fields = ("rows",)

    def __init__(self, rows: np.ndarray):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise DistributionError("channel must be a nonempty matrix")
        for x in range(rows.shape[0]):
            _validated_pmf(rows[x], f"channel row {x}")
        _set(self, "rows", rows)

    @property
    def num_inputs(self) -> int:
        return self.rows.shape[0]

    @property
    def num_outputs(self) -> int:
        return self.rows.shape[1]

    def compose(self, other: "DiscreteChannel") -> "DiscreteChannel":
        """Feed this channel's output into ``other``."""
        if self.num_outputs != other.num_inputs:
            raise DistributionError("composition dimensions do not match")
        # a product entry may round above 1 while its row's mass is within PROB_ATOL
        return DiscreteChannel(np.minimum(self.rows @ other.rows, 1.0))

    def tensor(self, other: "DiscreteChannel") -> "DiscreteChannel":
        """Independent parallel use of two channels."""
        return DiscreteChannel(np.kron(self.rows, other.rows))


def bsc(eps: float) -> DiscreteChannel:
    """Binary symmetric channel with crossover probability ``eps``."""
    if not 0.0 <= eps <= 1.0:
        raise DistributionError("crossover probability must lie in [0, 1]")
    return DiscreteChannel(np.array([[1.0 - eps, eps], [eps, 1.0 - eps]]))


def bec(eps: float) -> DiscreteChannel:
    """Binary erasure channel; output alphabet is (0, erasure, 1)."""
    if not 0.0 <= eps <= 1.0:
        raise DistributionError("erasure probability must lie in [0, 1]")
    return DiscreteChannel(np.array([[1.0 - eps, eps, 0.0], [0.0, eps, 1.0 - eps]]))


class JointPMF(_Record):
    """Joint PMF of a pair (W, X); ``table[w, x]`` with total mass 1."""

    __slots__ = _fields = ("table",)

    def __init__(self, table: np.ndarray):
        t = np.asarray(table, dtype=float)
        if t.ndim != 2 or t.shape[0] < 1 or t.shape[1] < 1:
            raise DistributionError("joint PMF must be a nonempty matrix")
        _validated_pmf(t.ravel(), "joint PMF")
        _set(self, "table", t)

    @classmethod
    def from_input_channel(cls, dist: DiscreteDistribution, channel: DiscreteChannel) -> "JointPMF":
        if dist.size != channel.num_inputs:
            raise DistributionError("input distribution does not match channel")
        return cls(dist.probs[:, None] * channel.rows)


class PriorSpec(_Record):
    """Prior on the estimand W; one of a small set of named families.

    Families and their parameters:

    * ``uniform01``: uniform on [0, 1] (scalar),
    * ``gaussian``: N(0, var I) in ``dim`` dimensions,
    * ``ball``: uniform on the centered ell-2 ball of radius ``radius``,
    * ``discrete_uniform``: uniform on ``size`` symbols.
    """

    __slots__ = _fields = ("family", "var", "dim", "radius", "size")

    def __init__(self, family: str, var: float = 0.0, dim: int = 1,
                 radius: float = 0.0, size: int = 0):
        self._set_fields(family, var, dim, radius, size)
        if self.family not in ("uniform01", "gaussian", "ball", "discrete_uniform"):
            raise DistributionError(f"unknown prior family {self.family!r}")
        _check_field(var, "prior var", float)
        _check_count(dim, "prior dim")
        _check_field(radius, "prior radius", float)
        _check_count(size, "prior size", 0)
        if self.family == "gaussian" and not self.var > 0.0:
            raise DistributionError("gaussian prior needs a positive variance")
        if self.family == "ball" and not self.radius > 0.0:
            raise DistributionError("ball prior needs a positive radius")
        if self.family == "discrete_uniform" and self.size < 2:
            raise DistributionError("discrete uniform prior needs at least 2 symbols")

    @classmethod
    def gaussian(cls, var: float, dim: int = 1) -> "PriorSpec":
        return cls("gaussian", var=var, dim=dim)


class DistortionSpec(_Record):
    """Distortion function used in small-ball probabilities and risk bounds.

    Kinds: ``absolute`` |w - v|, ``squared`` (w - v)^2, ``l2r`` the ell-2 norm
    raised to exponent ``r``, and ``zero_one`` the indicator of a miss.
    """

    __slots__ = _fields = ("kind", "r")

    def __init__(self, kind: str, r: float = 1.0):
        self._set_fields(kind, r)
        if self.kind not in ("absolute", "squared", "l2r", "zero_one"):
            raise DistributionError(f"unknown distortion kind {self.kind!r}")
        _check_field(r, "distortion exponent r", float)
        if self.kind == "l2r" and not self.r >= 1.0:
            raise DistributionError("norm exponent must be at least 1")


# ---------------------------------------------------------------------------
# scalar entropy helpers


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) bit, in bits."""
    if not 0.0 <= p <= 1.0:
        raise DistributionError("binary entropy argument must lie in [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def binary_relative_entropy(p: float, q: float) -> float:
    """Divergence between Bernoulli(p) and Bernoulli(q), in bits; ``math.inf``
    when q is 0 or 1 and p is not equal to it."""
    if not 0.0 <= p <= 1.0:
        raise DistributionError("first argument must lie in [0, 1]")
    if not 0.0 <= q <= 1.0:
        raise DistributionError("second argument must lie in [0, 1]")
    if q in (0.0, 1.0):
        return 0.0 if p == q else math.inf
    out = 0.0
    if p > 0.0:
        # over a subnormal q the ratio may overflow where its logs do not
        ratio = p / q
        out += p * (math.log2(ratio) if ratio < math.inf else math.log2(p) - math.log2(q))
    if p < 1.0:
        out += (1.0 - p) * math.log2((1.0 - p) / (1.0 - q))
    return out


def inv_binary_entropy_floor(y: float) -> float:
    """Closed-form lower bound y / (2 log2(6/y)) on the inverse binary entropy."""
    if not 0.0 <= y <= 1.0:
        raise DistributionError("argument must lie in [0, 1]")
    if y == 0.0:
        return 0.0
    return y / (2.0 * math.log2(6.0 / y))


def inv_binary_entropy(y: float) -> float:
    """Inverse of the binary entropy on [0, 1/2], from below.

    Bisects until the bracket [lo, hi] is narrower than 1e-12 * hi or has no
    float strictly inside, then returns lo, at which the entropy is below y:
    a lower estimate within a relative 1e-12 however small the inverse is.
    The result always dominates the closed-form floor
    ``inv_binary_entropy_floor``.
    """
    if not 0.0 <= y <= 1.0:
        raise DistributionError("argument must lie in [0, 1]")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid
    if lo < inv_binary_entropy_floor(y) - 1e-12:
        raise ConvergenceError(f"bisection for h^-1({y}) fell below its floor")
    return lo


def entropy(p) -> float:
    """Shannon entropy of a probability vector, in bits."""
    p = _validated_pmf(p, "distribution")
    pos = p[p > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def kl_divergence(p, q) -> float:
    """D(p || q) in bits; ``math.inf`` when p is not dominated by q."""
    p, q = _validated_pmf(p, "P"), _validated_pmf(q, "Q")
    if p.shape != q.shape:
        raise DistributionError("distributions must share an alphabet")
    mask = p > 0.0
    p, q = p[mask], q[mask]
    if np.any(q == 0.0):
        return math.inf
    # over a subnormal Q entry the ratio may overflow where its logs do not
    with np.errstate(over="ignore"):
        ratio = p / q
    logs = np.where(ratio < math.inf, np.log2(ratio), np.log2(p) - np.log2(q))
    return float((p * logs).sum())


def mutual_information(joint: JointPMF) -> float:
    """I(W; X) of a joint PMF, in bits."""
    pw = joint.table.sum(axis=1)
    px = joint.table.sum(axis=0)
    prod = np.outer(pw, px)
    mask = joint.table > 0.0
    return float((joint.table[mask] * np.log2(joint.table[mask] / prod[mask])).sum())


# ---------------------------------------------------------------------------
# information density


class InfoDensityDistribution(_Record):
    """Distribution of the information density i(W; X), values in bits.

    The atoms are kept in increasing order of value, next to their cumulative
    mass, so that ``prob_below`` is one ``searchsorted``."""

    _fields = ("values", "probs")
    __slots__ = _fields + ("_below",)

    def __init__(self, values: np.ndarray, probs: np.ndarray):
        values = np.asarray(values, dtype=float)
        probs = _validated_pmf(probs, "density probabilities")
        if values.shape != probs.shape:
            raise DistributionError("values and probabilities must align")
        bad = values[~np.isfinite(values)]
        if bad.size:
            raise DistributionError(f"density values must be finite, not {bad[0]}")
        order = np.argsort(values, kind="stable")
        self._set_fields(values[order], probs[order])
        # _below[j] is the mass of the j smallest atoms
        _set(self, "_below", np.concatenate(([0.0], np.cumsum(self.probs))))

    def mean(self) -> float:
        return float((self.values * self.probs).sum())

    def prob_below(self, threshold):
        """P[i(W;X) < threshold] with strict inequality; ``threshold`` may be
        a number, giving a float, or an array, giving one value per entry.
        No atom lies below a NaN threshold."""
        t = np.asarray(threshold, dtype=float)
        below = np.where(np.isnan(t), 0.0, self._below[np.searchsorted(self.values, t)])
        return float(below) if below.ndim == 0 else below


def information_density(joint: JointPMF) -> InfoDensityDistribution:
    """Distribution of i(w; x) = log2 P(w|x)/P(w) under the joint PMF.

    Atoms whose values agree to a relative 1e-12 are merged. The expectation
    of the result is I(W; X); construction fails if the two disagree by more
    than 1e-9, which would indicate a corrupted joint.
    """
    pw = joint.table.sum(axis=1)
    px = joint.table.sum(axis=0)
    if np.any(pw == 0.0) or np.any(px == 0.0):
        raise DistributionError("information density needs full-support marginals")
    mask = joint.table > 0.0
    vals = np.log2(joint.table[mask] / np.outer(pw, px)[mask])
    ps = joint.table[mask]
    order = np.argsort(vals)
    vals, ps = vals[order], ps[order]
    merged_v, merged_p = [vals[0]], [ps[0]]
    for v, p in zip(vals[1:], ps[1:]):
        if v - merged_v[-1] <= 1e-12 * max(1.0, abs(v)):
            merged_p[-1] += p
        else:
            merged_v.append(v)
            merged_p.append(p)
    # a merged mass may round above 1 while the total is within PROB_ATOL
    dens = InfoDensityDistribution(np.array(merged_v), np.minimum(merged_p, 1.0))
    if abs(dens.mean() - mutual_information(joint)) > 1e-9:
        raise DistributionError("information density mean disagrees with I(W;X)")
    return dens


# ---------------------------------------------------------------------------
# binary hypothesis testing


def _np_order(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The outcomes with P-mass in decreasing order of dP/dQ, ties broken by
    outcome index, and dP/dQ itself (inf where Q is 0)."""
    # over a subnormal Q entry the ratio overflows to inf, which ranks that
    # outcome as a zero Q entry would
    with np.errstate(over="ignore"):
        ratio = np.where(q > 0.0, p / np.where(q > 0.0, q, 1.0), np.inf)
    support = np.flatnonzero(p > 0.0)
    return support[np.argsort(-ratio[support], kind="stable")], ratio


def neyman_pearson_beta(alpha, p, q):
    """Smallest type-II error of any randomized test with type-I power >= alpha.

    Computed exactly by the likelihood-ratio construction: outcomes are taken
    in decreasing order of dP/dQ (ties broken by outcome index), accumulated
    until their P-mass reaches ``alpha``, and the boundary outcome is included
    fractionally.

    Parameters
    ----------
    alpha : required power in [0, 1], a number or an array of levels.
    p, q : probability vectors on a common alphabet.

    Returns
    -------
    float or np.ndarray
        beta_alpha(p, q), the exact infimum, in the shape of ``alpha``.
    """
    levels = np.asarray(alpha, dtype=float)
    if not np.all((levels >= 0.0) & (levels <= 1.0)):
        raise DistributionError("power requirement must lie in [0, 1]")
    p, q = _validated_pmf(p, "P"), _validated_pmf(q, "Q")
    if p.shape != q.shape:
        raise DistributionError("distributions must share an alphabet")
    order, _ = _np_order(p, q)
    # P- and Q-mass taken before each outcome, then in all
    taken_p, taken_q = (np.cumsum(np.append(0.0, x[order])) for x in (p, q))
    # the first outcome whose P-mass reaches the level; beyond the last, unit P- and no Q-mass
    edge = np.searchsorted(taken_p[1:], levels)
    ps, qs = np.append(p[order], 1.0), np.append(q[order], 0.0)
    beta = taken_q[edge] + qs[edge] * (levels - taken_p[edge]) / ps[edge]
    return float(beta) if beta.ndim == 0 else beta


class NPPropertyReport(NamedTuple):
    """Worst observed violations of the testing inequalities on a grid."""

    dpi_violation: float
    weak_converse_violation: float
    strong_converse_violation: float

    @property
    def max_violation(self) -> float:
        return max(self.dpi_violation, self.weak_converse_violation,
                   self.strong_converse_violation)


def verify_np_properties(p, q, channel: DiscreteChannel, alphas, gammas) -> NPPropertyReport:
    """Check data-processing, weak-converse and strong-converse inequalities.

    For each alpha on the grid the data-processing inequality
    beta_alpha(PK, QK) >= beta_alpha(P, Q) and the weak converse
    d2(alpha || beta_alpha) <= D(P || Q) are evaluated; for each (alpha, gamma)
    pair the strong converse
    alpha - gamma beta_alpha <= (1 - gamma inf dQ/dP) P[dP/dQ >= gamma]
    is evaluated. All three hold with exact arithmetic, so the reported
    violations measure floating-point error only.
    """
    p, q = _validated_pmf(p, "P"), _validated_pmf(q, "Q")
    alphas, gammas = np.asarray(alphas, dtype=float), np.asarray(gammas, dtype=float)
    beta = neyman_pearson_beta(alphas, p, q)
    # a pushed-forward entry may round above 1 while its mass is within PROB_ATOL
    beta_k = neyman_pearson_beta(alphas, np.minimum(p @ channel.rows, 1.0),
                                 np.minimum(q @ channel.rows, 1.0))
    d_pq = kl_divergence(p, q)
    weak = [binary_relative_entropy(a, b) - d_pq for a, b in zip(alphas.tolist(), beta.tolist())]
    sup = p > 0.0
    with np.errstate(over="ignore"):  # Q over a subnormal P entry: inf, which min() skips
        inf_ratio = float((q[sup] / p[sup]).min())
    ratio = _np_order(p, q)[1][sup]
    tail = np.array([p[sup][ratio >= gamma].sum() for gamma in gammas])
    strong = alphas[:, None] - gammas * beta[:, None] - (1.0 - gammas * inf_ratio) * tail
    # a NaN never wins a max() whose first entry is 0
    return NPPropertyReport(max([0.0, *(beta - beta_k).tolist()]), max([0.0, *weak]),
                            max([0.0, *strong.ravel().tolist()]))


# ---------------------------------------------------------------------------
# continuous priors: small-ball probabilities and differential entropy


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc; absolute error below 1e-12."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def log_unit_ball_volume(d: int) -> float:
    """Natural log of the unit ell-2 ball volume, finite for every d >= 1."""
    if d < 1:
        raise DistributionError("dimension must be at least 1")
    return 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ell-2 ball in d dimensions (underflows to 0 for large d)."""
    return math.exp(log_unit_ball_volume(d))


def _ball_radius_for(rho: float, distortion: DistortionSpec) -> float:
    """Radius of the set {distortion < rho} when it is a metric ball."""
    if distortion.kind in ("absolute",):
        return rho
    if distortion.kind == "squared":
        return math.sqrt(rho)
    if distortion.kind == "l2r":
        return rho ** (1.0 / distortion.r)
    raise UnsupportedPairError(f"distortion {distortion.kind!r} is not a norm ball")


def small_ball(prior: PriorSpec, rho: float, distortion: DistortionSpec) -> float:
    """Largest probability the prior puts on a distortion ball of radius rho.

    Closed forms: uniform [0,1] and scalar Gaussian priors under absolute
    (or squared, by monotone reduction) distortion, the uniform d-ball under
    ell-2 norm distortion, and the discrete uniform prior under 0-1 loss.
    Other pairs raise ``UnsupportedPairError``.
    """
    if not rho > 0.0:
        raise DistributionError("ball radius must be positive")
    if prior.family == "uniform01" and distortion.kind in ("absolute", "squared"):
        return min(2.0 * _ball_radius_for(rho, distortion), 1.0)
    if prior.family == "gaussian" and prior.dim == 1 and distortion.kind in ("absolute", "squared"):
        r = _ball_radius_for(rho, distortion)
        return 2.0 * std_normal_cdf(r / math.sqrt(prior.var)) - 1.0
    if prior.family == "ball" and distortion.kind in ("absolute", "squared", "l2r"):
        r = _ball_radius_for(rho, distortion)
        return min((r / prior.radius) ** prior.dim, 1.0)
    if prior.family == "discrete_uniform" and distortion.kind == "zero_one":
        return 1.0 if rho > 1.0 else 1.0 / prior.size
    raise UnsupportedPairError(
        f"no closed form for prior {prior.family!r} with distortion {distortion.kind!r}"
    )


def differential_entropy(prior: PriorSpec) -> float:
    """Differential entropy in bits of a continuous prior family."""
    if prior.family == "uniform01":
        return 0.0
    if prior.family == "gaussian":
        scaled = 2.0 * math.pi * math.e * prior.var
        # the log is split only where the product overflows, so finite values keep their bits
        return 0.5 * prior.dim * (math.log2(scaled) if scaled < math.inf else
                                  math.log2(2.0 * math.pi * math.e) + math.log2(prior.var))
    if prior.family == "ball":
        return (log_unit_ball_volume(prior.dim)
                + prior.dim * math.log(prior.radius)) / math.log(2.0)
    raise UnsupportedPairError(f"prior {prior.family!r} has no differential entropy")


# ---------------------------------------------------------------------------
# channel capacity


def _project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of ``v`` onto the probability simplex."""
    u = np.sort(v)[::-1]
    cum = np.cumsum(u) - 1.0
    kept = np.nonzero(u * np.arange(1, v.size + 1) > cum)[0][-1]
    return np.maximum(v - cum[kept] / (kept + 1), 0.0)


def _newton_direction(K, r, q, per_input, lower):
    """Newton step for max I(r) subject to sum r = 1, over the inputs that
    carry mass or whose D(K_x || q) exceeds I(r); returns (inputs, step),
    or (inputs, None) when fewer than two inputs take part.

    The Hessian -(1/ln 2) K diag(1/q) K^T is taken on an orthonormal basis of
    the mass-preserving moves and inverted where it curves (a min-norm
    solve). Along a direction it leaves flat (dependent rows) I(r) is
    linear, so the step also follows the slope there, at least to the first
    boundary of the simplex it meets; without that, channels with more
    inputs than outputs stall.
    """
    inputs = (r > 0.0) | (per_input > lower)
    m = int(inputs.sum())
    if m < 2:
        return inputs, None
    used = q > 0.0
    rows = K[inputs][:, used]
    hessian = -(rows / q[used]) @ rows.T / _LN2
    basis = np.linalg.svd(np.ones((1, m)))[2][1:].T
    curvature, axes = np.linalg.eigh(basis.T @ hessian @ basis)
    slope = axes.T @ (basis.T @ per_input[inputs])
    # relative to the strongest curvature; below it I(r) is linear to working precision
    flat = curvature >= -1e-12 * np.abs(curvature).max()
    step = basis @ (axes @ np.where(flat, 0.0, slope / -np.where(flat, -1.0, curvature)))
    drift = basis @ (axes @ np.where(flat, slope, 0.0))
    out = drift < 0.0
    if out.any():
        # to the first boundary the drift meets, or further if that one is
        # an input of negligible mass; the projection clips the overshoot
        step += max(float((r[inputs][out] / -drift[out]).min()),
                    1.0 / float(np.abs(drift).max())) * drift
    if not np.isfinite(step).all():
        return inputs, None
    return inputs, step


def _newton_move(K, evaluate, r, point):
    """The Newton step from r, projected onto the simplex and halved until
    I(r) rises; returns (r, point) after it, or None if no length is taken.

    ``point`` is ``evaluate(r)``: (q, D(K_x || q) per input, I(r), the
    upper end). A step longer than the longest one inside the simplex is
    also tried at exactly that length, which zeroes one input. A length is
    taken only if no output loses more than half its probability. Near the
    optimum I(r) stops rising in floating point before the upper end stops
    falling, so a step that keeps I(r) and lowers the upper end also counts.
    """
    q, per_input, lower, upper = point
    inputs, step = _newton_direction(K, r, q, per_input, lower)
    if step is None:
        return None
    r_in = r[inputs]
    shrink = step < 0.0
    ratios = np.where(shrink, r_in, math.inf) / -np.where(shrink, step, -1.0)
    edge = int(np.argmin(ratios))
    inside = float(ratios[edge])
    alpha = 1.0
    for _ in range(60):  # lengths far below any that can still raise I(r)
        if alpha > inside:
            trial_in = _project_to_simplex(r_in + alpha * step)
        else:
            trial_in = np.maximum(r_in + alpha * step, 0.0)
            if alpha == inside:
                trial_in[edge] = 0.0
            trial_in /= trial_in.sum()
        trial = np.zeros_like(r)
        trial[inputs] = trial_in
        found = evaluate(trial)
        # the quadratic model misses the log barrier of an output running dry
        if (found[0] >= 0.5 * q).all() and (
                found[2] > lower or (found[2] == lower and found[3] < upper)):
            return trial, found
        alpha = inside if alpha > inside > alpha / 2.0 else alpha / 2.0
    return None


def _capacity_bracket(K: np.ndarray, tol: float) -> tuple[float, float, int]:
    """(I(r), max_x D(K_x || rK), iterations) at the first iterate r whose
    bracket is at most ``tol`` wide, or after 100 000 iterations.

    Each iteration takes a Newton step (``_newton_move``) and then one
    Blahut-Arimoto step. Before the latter, an input at exactly zero whose
    D(K_x || q) exceeds I(r) gets a small mass back, since the
    multiplicative update cannot revive it. A refused Newton step doubles
    the wait before the next try and an accepted one resets it to 1; past
    iteration 1 024 Newton is tried only at powers of two. That bounds its
    cost where accepted steps stop paying: steps taken at tiny lengths (up
    to 60 evaluations each), or a step undone by the revive that follows.
    """
    mask = K > 0.0
    logK = np.zeros_like(K)
    logK[mask] = np.log2(K[mask])

    def evaluate(r):
        q = r @ K
        logq = np.zeros_like(q)
        used = q > 0.0
        logq[used] = np.log2(q[used])
        per_input = np.where(mask, K * (logK - logq[None, :]), 0.0).sum(axis=1)
        return q, per_input, float(r @ per_input), float(per_input.max())

    r = np.full(K.shape[0], 1.0 / K.shape[0])
    point = evaluate(r)
    wait, skip = 0, 1
    for iteration in range(1, 100_001):
        if point[3] - point[2] <= tol:
            return point[2], point[3], iteration - 1
        if wait > 0:
            wait -= 1
        elif iteration <= 1024 or iteration & (iteration - 1) == 0:
            if (moved := _newton_move(K, evaluate, r, point)) is None:
                wait, skip = skip, 2 * skip
            else:
                (r, point), skip = moved, 1
                if point[3] - point[2] <= tol:
                    return point[2], point[3], iteration
        _, per_input, lower, upper = point
        revive = (r == 0.0) & (per_input > lower)
        if revive.any():
            r = np.where(revive, 1e-3 / r.size, r)
            r /= r.sum()
            _, per_input, lower, upper = evaluate(r)
        r = r * np.exp2(per_input - upper)
        r /= r.sum()
        point = evaluate(r)
    return point[2], point[3], 100_000


def channel_capacity(channel: DiscreteChannel) -> float:
    """Capacity of a DMC in bits per use, by Newton-polished Blahut-Arimoto.

    Each iteration takes a Newton step for max I(r) over the input laws r,
    on the inputs that carry mass or whose D(K_x || q) exceeds I(r),
    projected onto the simplex and halved until I(r) rises; then one
    Blahut-Arimoto (alternating maximization) step, after giving a small
    mass back to any input the projection zeroed while its D(K_x || q)
    exceeds I(r). Close to the optimum the Newton steps converge
    quadratically, so a few iterations replace the thousands of plain
    Blahut-Arimoto steps that near-useless or ill-conditioned channels take.

    The contract is unchanged: the result is the upper end
    max_x D(K_x || q) of the duality bracket [I(r), max_x D(K_x || q)] at
    the last iterate, whatever path r took. For every output law q that
    maximum bounds the capacity from above (the min-max form of capacity),
    so the result is an upper estimate and may feed a budget. Iteration
    stops once the bracket is at most 1e-9 bits wide or after 100 000
    iterations, whichever comes first; the result is within 1e-9 of the
    capacity in the first case and only an upper estimate in the second,
    so the solver never raises.
    """
    return _capacity_bracket(channel.rows, 1e-9)[1]
