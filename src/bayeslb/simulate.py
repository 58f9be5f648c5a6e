"""Monte Carlo simulation of achievability schemes and exact small-chain oracles.

Replications run in fixed blocks of ``BLOCK``; block b of a run with seed s
draws all of its randomness from child b of ``SeedSequence(s)`` on SFC64,
i.e. ``SFC64(SeedSequence(s, spawn_key=(b,)))``, as ``scenario gauss-ball
--reps`` does. The block size is fixed, so results are bit-identical for a
given (config, seed). Blocks fill one replication array in index order, and
the mean and confidence half-width are computed over it with pairwise
summation.

Each sampler draws, for a whole block at once, the statistic its estimator
actually reads (a sample mean, a flip count, a success count), which has
exactly the law of the statistic computed from the full sample. The
parity-coupled law behind the ``xor`` samplers is drawn in full by
``sample_xor_block`` in ``tests/oracles.py``. The Bernoulli samplers
(``bern-bsc`` and ``xor-colocated``) draw the success count K uniformly on
{0, ..., n} first and then W from its Beta(K + 1, n - K + 1) posterior, the
joint law of W ~ U[0, 1] and K ~ Bin(n, W), in that order within a block.
Drawing in this order moved the outputs of ``simulate bern-bsc`` and
``simulate xor-colocated`` off those of the earlier binomial draw given W;
no other output moved.

The simulated schemes are the ones whose risk the closed-form achievability
bounds analyze, with one exception: the channel-limited Bernoulli scheme
replaces the optimal block code by bit-wise repetition of the count (or of the
sample mean's floor(b)-bit midpoint cell when b bits cannot carry the count),
which is weaker, so its empirical risk may exceed the closed-form upper bound.

Each entry of the scheme table ``SCHEMES`` names the scenario a run is checked
against and the bounds of its own protocol class in that scenario's report;
``simulate_multi`` runs every entry, a single-processor scheme as its m = 1 case.
"""
from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

from .info import (DiscreteChannel, DiscreteDistribution, DistributionError,
                   _Numpy, _Record, _set, entropy)
from .scenarios import (BLOCK, REPS_LIMIT, ScenarioReport, ScenarioSpec,
                        _check_count, _check_seed, _draw_blocks)

np = _Numpy(globals())

__all__ = [
    "BLOCK",
    "SimulationConfig",
    "SimulationResult",
    "SandwichVerdict",
    "Scheme",
    "SCHEMES",
    "simulate_multi",
    "exact_chain_mi",
    "sandwich_check",
]

# numpy's samplers draw 64-bit integers, a block of gauss-multi draws is a
# (BLOCK, d) float array, and numpy addresses no array past sys.maxsize bytes
_COUNT_LIMITS = (
    *((name, 2 ** 63 - 1, "the samplers' 64-bit range")
      for name in ("n", "T", "m", "total_samples", "total_uses")),
    ("d", sys.maxsize // (8 * BLOCK), f"the size one {BLOCK}-row block of draws can address"),
)


class SimulationConfig(_Record):
    """One Monte Carlo run, and the intake of every run, the CLI's too:
    ``replications`` draws, an integer in [1, sys.maxsize // 8], of the model
    ``spec`` under seed ``seed``, an integer in [0, 2^64), by the protocol
    ``SCHEMES[scheme]`` (by default the spec's tag's). The spec's counts must
    stay in the samplers' ranges (``_COUNT_LIMITS``) and leave each value the
    scheme fixes unset or equal; ``spec`` is then the model run, those filled in."""

    __slots__ = _fields = ("spec", "replications", "seed", "scheme")

    def __init__(self, spec: ScenarioSpec, replications: int, seed: int,
                 scheme: str | None = None):
        _check_count(replications, "replication count", most=REPS_LIMIT)
        _check_seed(seed)
        name = spec.tag if scheme is None else scheme
        if name not in SCHEMES:
            raise DistributionError(f"unknown scheme {name!r}")
        for field, most, reason in _COUNT_LIMITS:
            value = getattr(spec, field)
            if value is not None and value > most:
                raise DistributionError(f"{field} {value} lies beyond {reason}")
        if SCHEMES[name].fixed is not None:
            fixed = SCHEMES[name].fixed(spec)
            refused = [f"{field}={getattr(spec, field)!r}" for field, value in fixed.items()
                       if getattr(spec, field) not in (None, value)]
            if refused:
                runs = ", ".join(f"{field}={value!r}" for field, value in fixed.items())
                raise DistributionError(f"scheme {name} runs {runs}, so it refuses "
                                        + ", ".join(refused))
            spec = spec._replace(**fixed)
        _set(self, "spec", spec)
        _set(self, "replications", replications)
        _set(self, "seed", seed)
        _set(self, "scheme", scheme)

    @property
    def scheme_name(self) -> str:
        return self.scheme if self.scheme is not None else self.spec.tag


class SimulationResult(NamedTuple):
    """A run's mean distortion and the 1.96-sigma half-width of its normal
    interval (0 for one replication), with the run's size, seed and scheme."""

    empirical_risk: float
    ci_halfwidth: float
    replications: int
    seed: int
    scheme: str


def _cell_index(values: np.ndarray, cells: int) -> np.ndarray:
    """Index of each value's cell among ``cells`` equal cells of [0, 1]."""
    return np.minimum(np.floor(values * cells), cells - 1)


def _quantize_midpoint(values: np.ndarray, bits: float) -> np.ndarray:
    """Uniform quantization of [0, 1] to the midpoint of each value's cell."""
    # 2.0 ** bits overflows from bits = 1024 on, and 2^1023 cells already move
    # no value in [0, 1] by more than 2^-1024
    cells = round(2.0 ** bits) if bits < 1024 else 2 ** 1023
    if cells <= 1:
        return np.full_like(values, 0.5)
    return (_cell_index(values, cells) + 0.5) / cells


def _repeated_bits(sent: np.ndarray, looks: int, eps: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Majority decode of the ``sent`` bits, each repeated ``looks`` times over
    a BSC(eps); only the flip count of each bit is drawn."""
    flips = rng.binomial(looks, eps, size=sent.shape)
    ones = np.where(sent, looks - flips, flips)
    # ties go to 0, which only matters for an even number of looks
    return 2 * ones > looks


def _posterior_mean_error(spec: ScenarioSpec, rng: np.random.Generator,
                          shape: int | tuple, samples: int) -> np.ndarray:
    """W ~ N(0, var_w) minus its posterior mean given the mean of ``samples``
    observations, which is all the estimator reads: N(w, var_noise / samples)."""
    # in place, so that a gauss-multi block allocates two arrays, not five;
    # each step rounds as its out-of-place form would
    w = rng.standard_normal(shape)
    w *= math.sqrt(spec.var_w)
    mean = rng.standard_normal(shape)
    mean *= math.sqrt(spec.var_noise / samples)
    mean += w
    mean *= spec.var_w / (spec.var_w + spec.var_noise / samples)
    w -= mean
    return w


def _count_and_parameter(n: int, rng: np.random.Generator,
                         size: int) -> tuple[np.ndarray, np.ndarray]:
    """``size`` draws of (K, W) with W ~ U[0, 1] and K ~ Bin(n, W), drawn in
    the other order: K uniform on {0, ..., n}, then W | K ~ Beta(K + 1,
    n - K + 1), which is the same joint law.

    From n = 2^53 on, the Beta parameters are rounded to floats; that is
    rounding only, as in numpy's binomial at that size.
    """
    k = rng.integers(0, n, size, endpoint=True)
    return k, rng.beta(k + 1.0, n - k + 1.0)


def _quantized_mean_error(spec: ScenarioSpec, rng: np.random.Generator,
                          size: int, bits: float) -> np.ndarray:
    """|W - the midpoint of the mean's cell at ``bits`` bits| for W ~ U[0, 1],
    when the estimator reads the mean of n Bern(W) bits, Bin(n, W) / n."""
    k, w = _count_and_parameter(spec.n, rng, size)
    return np.abs(w - _quantize_midpoint(k / spec.n, bits))


# ---------------------------------------------------------------------------
# single-processor schemes


def _sample_gauss_gauss(spec: ScenarioSpec, rng: np.random.Generator,
                        size: int) -> np.ndarray:
    return np.abs(_posterior_mean_error(spec, rng, size, spec.n))


def _sample_bsc_bit(spec: ScenarioSpec, rng: np.random.Generator,
                    size: int) -> np.ndarray:
    if spec.eps is None or spec.T is None:
        raise DistributionError("bit transmission needs a crossover and a use count")
    w = rng.random(size) < 0.5
    decoded = _repeated_bits(w, spec.T, spec.eps, rng)
    return (w != decoded).astype(float)


def _sample_bern_bsc(spec: ScenarioSpec, rng: np.random.Generator,
                     size: int) -> np.ndarray:
    if not spec.eps:
        # a noiseless link carries the sample mean's midpoint cell
        return _quantized_mean_error(spec, rng, size, spec.b)
    k, w = _count_and_parameter(spec.n, rng, size)
    # K = n needs every bit of n; a float log2 of n + 1 is one short at 2^53
    num_bits = int(spec.n).bit_length()
    whole = spec.b >= num_bits
    # the count's bits if b bits carry it, else its floor(b)-bit midpoint cell
    bits = num_bits if whole else int(spec.b)
    if bits == 0:
        return np.abs(w - 0.5)
    looks = (spec.T or 0) // bits
    if looks < 1:
        raise DistributionError("too few channel uses to repeat each message bit")
    message = k if whole else _cell_index(k / spec.n, 1 << bits).astype(np.int64)
    weights = 1 << np.arange(bits)
    sent = (message[:, None] & weights) != 0
    decoded = _repeated_bits(sent, looks, spec.eps, rng) @ weights
    if whole:
        return np.abs(w - np.minimum(decoded, spec.n) / spec.n)
    return np.abs(w - (decoded + 0.5) / (1 << bits))


# ---------------------------------------------------------------------------
# multi-processor schemes


def _sample_xor_oneproc(spec: ScenarioSpec, rng: np.random.Generator,
                        size: int) -> np.ndarray:
    # any single processor's stream is fair coin flips whatever w is, so the
    # best the estimator can do is the prior centroid; the stream is never read
    return np.abs(rng.random(size) - 0.5)


def _sample_xor_colocated(spec: ScenarioSpec, rng: np.random.Generator,
                          size: int) -> np.ndarray:
    # the column parities are i.i.d. Bern(w), and m b bits carry their mean
    return _quantized_mean_error(spec, rng, size, spec.m * spec.b)


def _sample_gauss_multi(spec: ScenarioSpec, rng: np.random.Generator,
                        size: int) -> np.ndarray:
    # the mean of the m local means is the pooled mean of all m n samples
    error = _posterior_mean_error(spec, rng, (size, spec.d), spec.m * spec.n)
    error *= error
    return error.sum(axis=1)


def _gauss_multi_model(spec: ScenarioSpec) -> dict:
    # raw local means over a noiseless link, modelled as 64-bit words so that
    # the paired report's bit budget is not the binding term
    return {"eps": None, "eta_uses": None, "capacity": None, "total_uses": None,
            "total_samples": spec.m * spec.n, "total_bits": 64.0 * spec.m * spec.d}


class Scheme(NamedTuple):
    """A simulated protocol: its scenario ``tag``, block sampler, the report
    keys of the bounds it is held to, and the model values it fixes.

    ``sample(spec, rng, size)`` returns the distortions of ``size``
    independent replications drawn from ``rng``. ``fixed(spec)``, when set,
    maps the fields of the model the scheme runs, whatever it is given, to
    their values; ``SimulationConfig`` refuses a spec that sets one otherwise.
    """

    tag: str
    sample: Callable[[ScenarioSpec, np.random.Generator, int], np.ndarray]
    lower: tuple
    upper: tuple = ()
    fixed: Callable[[ScenarioSpec], dict] | None = None


SCHEMES = {
    "gauss-gauss": Scheme("gauss-gauss", _sample_gauss_gauss,
                          ("corollary", "s_half_chain", "unconditioned_asymptotic"),
                          ("posterior_mean",)),
    "bern-bsc": Scheme("bern-bsc", _sample_bern_bsc,
                       ("mi", "case1", "case2"), ("case1", "case2")),
    "bsc-bit": Scheme("bsc-bit", _sample_bsc_bit,
                      ("no_feedback", "feedback"), ("repetition",)),
    "xor": Scheme("xor", _sample_xor_oneproc, ("distributed", "colocated")),
    "xor-colocated": Scheme("xor", _sample_xor_colocated, ("colocated",)),
    "gauss-multi": Scheme("dglm", _sample_gauss_multi, ("decentralized",),
                          fixed=_gauss_multi_model),
}


def _distortions(config: SimulationConfig, scheme: Scheme) -> np.ndarray:
    return _draw_blocks(config.seed, config.replications,
                        lambda rng, size: scheme.sample(config.spec, rng, size))


def simulate_multi(config: SimulationConfig) -> SimulationResult:
    """Run the scheme of ``config`` on its m processors, one for a
    single-processor scheme. ``gauss-gauss`` is the posterior mean;
    ``bsc-bit`` repetition with majority decoding, ties to 0; ``bern-bsc``
    the sample mean's midpoint cell over a noiseless link (eps = 0), else
    each bit of the count, or of the floor(b)-bit cell below bit_length(n)
    bits, T // bits times (b < 1: the prior centroid 1/2). ``xor`` reads one
    processor's stream, pure noise; ``xor-colocated`` one processor's mb-bit
    parity mean; ``gauss-multi`` pools the local Gaussian means with
    posterior shrinkage under squared loss.
    """
    distortions = _distortions(config, SCHEMES[config.scheme_name])
    ci = (1.96 * float(np.std(distortions, ddof=1)) / math.sqrt(config.replications)
          if config.replications > 1 else 0.0)
    return SimulationResult(float(np.mean(distortions)), ci, config.replications,
                            config.seed, config.scheme_name)


# ---------------------------------------------------------------------------
# exact enumeration oracle


def exact_chain_mi(prior: DiscreteDistribution, stages: list[DiscreteChannel],
                   uses: int) -> float:
    """Exact I(W; V^T) in bits for W repeated over T uses of a channel chain.

    The per-use channel is the composition of ``stages``; the T outputs are
    conditionally independent given W. Computed by enumerating the full
    output-tuple law, so the output alphabet to the power T must stay at or
    below 2^20.
    """
    if uses < 0:
        raise DistributionError("use count cannot be negative")
    if uses == 0:
        return 0.0
    if not stages:
        raise DistributionError("at least one channel stage is required")
    channel = stages[0]
    for stage in stages[1:]:
        channel = channel.compose(stage)
    if channel.num_inputs != prior.size:
        raise DistributionError("prior size does not match the first stage")
    if channel.num_outputs ** uses > 2 ** 20:
        raise DistributionError("output tuple space exceeds the enumeration cap")
    mixture = np.zeros(channel.num_outputs ** uses)
    h_cond = 0.0
    for w, p_w in enumerate(prior.probs):
        if p_w == 0.0:
            continue
        row = channel.rows[w]
        tuple_law = row
        for _ in range(uses - 1):
            tuple_law = np.kron(tuple_law, row)
        mixture += p_w * tuple_law
        h_cond += p_w * uses * entropy(row)
    # an entry may round above 1 when every row puts its mass on one tuple
    return entropy(np.minimum(mixture, 1.0)) - h_cond


# ---------------------------------------------------------------------------
# sandwich verdicts


class SandwichVerdict(NamedTuple):
    """A sandwich check's outcome: ``passed`` when ``hard_failures`` is
    empty; ``advisories`` for asymptotic or infeasible lower bounds above the
    risk; and each checked bound's margin, keyed "lower:<name>" or
    "upper:<name>", negative where the bound and the risk cross."""

    passed: bool
    hard_failures: tuple
    advisories: tuple
    margins: dict


def sandwich_check(report: ScenarioReport, result: SimulationResult) -> SandwichVerdict:
    """Check a simulation against the bounds its scheme's table entry names.

    Exact lower bounds must not exceed the empirical risk by more than
    three half-widths, and the empirical risk must not exceed any
    exact upper bound by more than that; asymptotic or infeasible entries
    produce advisories instead of failures. A non-finite margin, which any
    non-finite risk or half-width makes, is always a hard failure.
    """
    scheme = SCHEMES.get(result.scheme)
    if scheme is None or scheme.tag != report.tag:
        raise DistributionError(
            f"scenario tag {report.tag!r} does not match scheme {result.scheme!r}")
    risk, slack = result.empirical_risk, 3.0 * result.ci_halfwidth
    checks = [(f"lower:{name}", risk + slack - bound.value,
               f"asymptotic lower bound {name} above empirical risk"
               if bound.asymptotic or bound.infeasible else None,
               f"lower bound {name} = {bound.value:.6g} exceeds "
               f"empirical risk {risk:.6g} + slack")
              for name, bound in report.lower_bounds.items() if name in scheme.lower]
    checks += [(f"upper:{name}", value - (risk - slack), None,
                f"empirical risk {risk:.6g} exceeds upper bound {name} = "
                f"{value:.6g} + slack")
               for name, value in report.upper_bounds.items() if name in scheme.upper]
    hard, advice, margins = [], [], {}
    for label, margin, advisory, failure in checks:
        margins[label] = margin
        if not math.isfinite(margin):
            hard.append(f"{label} margin {margin:.6g} is not finite")
        elif margin < 0.0 and advisory:
            advice.append(advisory)
        elif margin < 0.0:
            hard.append(failure)
    return SandwichVerdict(not hard, tuple(hard), tuple(advice), margins)
