"""Monte Carlo simulation of achievability schemes and exact small-chain oracles.

Replications run in fixed blocks of ``BLOCK``; block b of a run with seed s
draws all of its randomness from the counter-based substream keyed by
(s, b), i.e. ``Philox(key=s + (b << 64))``. The block size is fixed, so
results are bit-identical for a given (config, seed). Blocks are concatenated
in index order and the mean and confidence half-width are computed over the
full replication array with pairwise summation.

Each sampler draws, for a whole block at once, the statistic its estimator
actually reads (a sample mean, a flip count, a success count), which has
exactly the law of the statistic computed from the full sample. The
parity-coupled law behind the ``xor`` samplers is drawn in full by
``sample_xor_block`` in ``tests/oracles.py``.

The simulated schemes are the ones whose risk the closed-form achievability
bounds analyze, with one exception: the channel-limited Bernoulli scheme
replaces the optimal block code by bit-wise repetition of the count (or of the
sample mean's floor(b)-bit midpoint cell when b bits cannot carry the count),
which is weaker, so its empirical risk may exceed the closed-form upper bound.

Each entry of the scheme table ``SCHEMES`` names the scenario a run is checked
against and the bounds of its own protocol class in that scenario's report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .info import (DiscreteChannel, DiscreteDistribution, DistributionError,
                   _Numpy, entropy)
from .scenarios import ScenarioReport, ScenarioSpec

np = _Numpy(globals())

__all__ = [
    "BLOCK",
    "SimulationConfig",
    "SimulationResult",
    "SandwichVerdict",
    "Scheme",
    "SCHEMES",
    "simulate_single_processor",
    "simulate_multi",
    "exact_chain_mi",
    "sandwich_check",
]

BLOCK = 4096
SEED_LIMIT = 2 ** 64


@dataclass(frozen=True)
class SimulationConfig:
    spec: ScenarioSpec
    replications: int
    seed: int
    scheme: str | None = None

    def __post_init__(self):
        if self.replications < 1:
            raise DistributionError("replication count must be >= 1")
        if not 0 <= self.seed < SEED_LIMIT:
            raise DistributionError(f"seed {self.seed} is outside [0, 2^64)")

    @property
    def scheme_name(self) -> str:
        return self.scheme if self.scheme is not None else self.spec.tag


@dataclass(frozen=True)
class SimulationResult:
    empirical_risk: float
    ci_halfwidth: float
    replications: int
    seed: int
    scheme: str


def _block_rng(seed: int, block: int) -> np.random.Generator:
    """Counter-based substream for block ``block`` of a run seeded with seed."""
    return np.random.Generator(np.random.Philox(key=seed + (block << 64)))


def _aggregate(distortions: np.ndarray, config: SimulationConfig) -> SimulationResult:
    risk = float(np.mean(distortions))
    if config.replications > 1:
        ci = 1.96 * float(np.std(distortions, ddof=1)) / math.sqrt(config.replications)
    else:
        ci = 0.0
    return SimulationResult(risk, ci, config.replications, config.seed,
                            config.scheme_name)


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
    w = math.sqrt(spec.var_w) * rng.standard_normal(shape)
    mean = w + math.sqrt(spec.var_noise / samples) * rng.standard_normal(shape)
    shrink = spec.var_w / (spec.var_w + spec.var_noise / samples)
    return w - shrink * mean


def _quantized_mean_error(spec: ScenarioSpec, rng: np.random.Generator,
                          size: int, bits: float) -> np.ndarray:
    """|W - the midpoint of the mean's cell at ``bits`` bits| for W ~ U[0, 1],
    when the estimator reads the mean of n Bern(W) bits, Bin(n, W) / n."""
    w = rng.random(size)
    return np.abs(w - _quantize_midpoint(rng.binomial(spec.n, w) / spec.n, bits))


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
    w = rng.random(size)
    k = rng.binomial(spec.n, w)
    num_bits = max(int(math.ceil(math.log2(spec.n + 1))), 1)
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
    decoded = (_repeated_bits(sent, looks, spec.eps, rng) * weights).sum(axis=1)
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
    return (error ** 2).sum(axis=1)


@dataclass(frozen=True)
class Scheme:
    """A simulated protocol: its scenario ``tag``, block sampler, whether it runs
    on m processors, and the report keys of the bounds it is held to.

    ``sample(spec, rng, size)`` returns the distortions of ``size``
    independent replications drawn from ``rng``.
    """

    tag: str
    sample: Callable[[ScenarioSpec, np.random.Generator, int], np.ndarray]
    multi: bool
    lower: tuple
    upper: tuple = ()


SCHEMES = {
    "gauss-gauss": Scheme("gauss-gauss", _sample_gauss_gauss, False,
                          ("corollary", "s_half_chain", "unconditioned_asymptotic"),
                          ("posterior_mean",)),
    "bern-bsc": Scheme("bern-bsc", _sample_bern_bsc, False,
                       ("mi", "case1", "case2"), ("case1", "case2")),
    "bsc-bit": Scheme("bsc-bit", _sample_bsc_bit, False,
                      ("no_feedback", "feedback"), ("repetition",)),
    "xor": Scheme("xor", _sample_xor_oneproc, True, ("distributed", "colocated")),
    "xor-colocated": Scheme("xor", _sample_xor_colocated, True, ("colocated",)),
    "gauss-multi": Scheme("dglm", _sample_gauss_multi, True, ("decentralized",)),
}


def _distortions(config: SimulationConfig, scheme: Scheme) -> np.ndarray:
    reps = config.replications
    return np.concatenate([
        scheme.sample(config.spec, _block_rng(config.seed, block),
                      min(BLOCK, reps - start))
        for block, start in enumerate(range(0, reps, BLOCK))])


def _simulate(config: SimulationConfig, multi: bool) -> SimulationResult:
    scheme = SCHEMES.get(config.scheme_name)
    if scheme is None or scheme.multi != multi:
        kind = "multi" if multi else "single"
        raise DistributionError(f"unsupported {kind}-processor scheme {config.scheme_name!r}")
    return _aggregate(_distortions(config, scheme), config)


def simulate_single_processor(config: SimulationConfig) -> SimulationResult:
    """Run a single-processor scheme: sample, quantize/encode, transmit, estimate.

    Supported schemes: ``gauss-gauss`` (posterior mean, no channel),
    ``bsc-bit`` (repetition code with majority decoding, ties to 0), and
    ``bern-bsc``: the sample mean to midpoint cells over a noiseless link
    (eps = 0); otherwise each bit of the count, or of the floor(b)-bit midpoint
    cell if b is below the count's ceil(log2(n+1)) bits, repeated T // bits
    times over the channel (b < 1 gives the prior centroid 1/2).
    """
    return _simulate(config, multi=False)


def simulate_multi(config: SimulationConfig) -> SimulationResult:
    """Run an m-processor scheme over independent per-processor channels.

    ``xor`` estimates from a single processor's stream (pure noise, prior
    centroid); ``xor-colocated`` gives one processor all streams and an
    mb-bit quantizer for the parity mean; ``gauss-multi`` averages local
    Gaussian sample means with posterior shrinkage under squared loss.
    """
    return _simulate(config, multi=True)


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


@dataclass(frozen=True)
class SandwichVerdict:
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
