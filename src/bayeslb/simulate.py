"""Monte Carlo simulation of achievability schemes and exact small-chain oracles.

Replication k of a run with seed s draws all of its randomness from the
counter-based substream keyed by (s, k), so results are bit-identical for a
given (config, seed) no matter how the replications are scheduled. The mean
and confidence half-width are computed over the full replication array in
index order with pairwise summation.

The simulated schemes are the ones whose risk the closed-form achievability
bounds analyze, with one exception: the channel-limited Bernoulli scheme
replaces the optimal block code by bit-wise repetition, which is weaker, so
its empirical risk may exceed the corresponding closed-form upper bound.

Each entry of the scheme table ``SCHEMES`` names the scenario a run is checked
against and the bounds of its own protocol class in that scenario's report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .info import DiscreteChannel, DiscreteDistribution, DistributionError, entropy
from .scenarios import ScenarioReport, ScenarioSpec

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "SandwichVerdict",
    "Scheme",
    "SCHEMES",
    "simulate_single_processor",
    "simulate_multi",
    "sample_xor_block",
    "exact_chain_mi",
    "sandwich_check",
]


@dataclass(frozen=True)
class SimulationConfig:
    spec: ScenarioSpec
    replications: int
    seed: int
    parallelism: int = 1
    scheme: str | None = None

    def __post_init__(self):
        if self.replications < 1:
            raise DistributionError("replication count must be >= 1")
        if self.parallelism < 1:
            raise DistributionError("parallelism hint must be >= 1")

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


def _rep_rng(seed: int, k: int) -> np.random.Generator:
    """Counter-based substream for replication k of a run seeded with seed."""
    return np.random.Generator(np.random.Philox(key=seed + (k << 64)))


def _aggregate(distortions: np.ndarray, config: SimulationConfig) -> SimulationResult:
    risk = float(np.mean(distortions))
    if config.replications > 1:
        ci = 1.96 * float(np.std(distortions, ddof=1)) / math.sqrt(config.replications)
    else:
        ci = 0.0
    return SimulationResult(risk, ci, config.replications, config.seed,
                            config.scheme_name)


def _quantize_midpoint(value: float, bits: float) -> float:
    """Uniform quantization of [0, 1] to the midpoint of the value's cell."""
    cells = round(2.0 ** bits)
    if cells <= 1:
        return 0.5
    idx = min(int(value * cells), cells - 1)
    return (idx + 0.5) / cells


def _majority(bits: np.ndarray) -> int:
    # ties go to 0, which only matters for an even number of looks
    return 1 if int(bits.sum()) * 2 > bits.size else 0


# ---------------------------------------------------------------------------
# single-processor schemes


def _rep_gauss_gauss(spec: ScenarioSpec, rng: np.random.Generator) -> float:
    sd_w = math.sqrt(spec.var_w)
    sd = math.sqrt(spec.var_noise)
    w = sd_w * rng.standard_normal()
    samples = w + sd * rng.standard_normal(spec.n)
    shrink = spec.var_w / (spec.var_w + spec.var_noise / spec.n)
    w_hat = shrink * float(samples.mean())
    return abs(w - w_hat)


def _rep_bsc_bit(spec: ScenarioSpec, rng: np.random.Generator) -> float:
    if spec.eps is None or spec.T is None:
        raise DistributionError("bit transmission needs a crossover and a use count")
    w = int(rng.random() < 0.5)
    flips = rng.random(spec.T) < spec.eps
    received = np.bitwise_xor(w, flips.astype(np.int64))
    return float(w != _majority(received))


def _rep_bern_bsc(spec: ScenarioSpec, rng: np.random.Generator) -> float:
    w = rng.random()
    k = int(rng.binomial(spec.n, w))
    if not spec.eps:
        # a noiseless link carries the sample mean's midpoint cell
        return abs(w - _quantize_midpoint(k / spec.n, spec.b))
    num_bits = max(int(math.ceil(math.log2(spec.n + 1))), 1)
    looks = spec.T // num_bits
    if looks < 1:
        raise DistributionError("too few channel uses to repeat each message bit")
    flips = rng.random(num_bits * looks) < spec.eps
    k_hat = 0
    for j in range(num_bits):
        sent = (k >> j) & 1
        noisy = np.bitwise_xor(sent, flips[j * looks:(j + 1) * looks].astype(np.int64))
        k_hat |= _majority(noisy) << j
    return abs(w - min(k_hat, spec.n) / spec.n)


# ---------------------------------------------------------------------------
# multi-processor schemes


def sample_xor_block(w: float, m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """One m x n sample array from the parity-coupled law with parameter w.

    Column parities are Bern(w); each column is uniform over the vectors
    with its parity, realized by drawing the first m-1 entries fair and
    setting the last to match.
    """
    parity = (rng.random(n) < w).astype(np.int64)
    block = np.empty((m, n), dtype=np.int64)
    block[:m - 1] = (rng.random((m - 1, n)) < 0.5).astype(np.int64)
    block[m - 1] = np.bitwise_xor(block[:m - 1].sum(axis=0) % 2, parity)
    return block


def _rep_xor_oneproc(spec: ScenarioSpec, rng: np.random.Generator) -> float:
    w = rng.random()
    sample_xor_block(w, spec.m, spec.n, rng)
    # any single processor's stream is fair coin flips whatever w is, so the
    # best the estimator can do is the prior centroid
    return abs(w - 0.5)


def _rep_xor_colocated(spec: ScenarioSpec, rng: np.random.Generator) -> float:
    w = rng.random()
    block = sample_xor_block(w, spec.m, spec.n, rng)
    z_mean = float((block.sum(axis=0) % 2).mean())
    return abs(w - _quantize_midpoint(z_mean, spec.m * spec.b))


def _rep_gauss_multi(spec: ScenarioSpec, rng: np.random.Generator) -> float:
    sd_w = math.sqrt(spec.var_w)
    sd = math.sqrt(spec.var_noise)
    w = sd_w * rng.standard_normal(spec.d)
    local_means = w + sd / math.sqrt(spec.n) * rng.standard_normal((spec.m, spec.d))
    total = spec.m * spec.n
    shrink = spec.var_w / (spec.var_w + spec.var_noise / total)
    w_hat = shrink * local_means.mean(axis=0)
    return float(((w - w_hat) ** 2).sum())


@dataclass(frozen=True)
class Scheme:
    """A simulated protocol: its scenario ``tag``, per-replication sampler, whether
    it runs on m processors, and the report keys of the bounds it is held to."""

    tag: str
    sample: Callable[[ScenarioSpec, np.random.Generator], float]
    multi: bool
    lower: tuple
    upper: tuple = ()


SCHEMES = {
    "gauss-gauss": Scheme("gauss-gauss", _rep_gauss_gauss, False,
                          ("corollary", "s_half_chain", "unconditioned_asymptotic"),
                          ("posterior_mean",)),
    "bern-bsc": Scheme("bern-bsc", _rep_bern_bsc, False,
                       ("mi", "case1", "case2"), ("case1", "case2")),
    "bsc-bit": Scheme("bsc-bit", _rep_bsc_bit, False,
                      ("no_feedback", "feedback"), ("repetition",)),
    "xor": Scheme("xor", _rep_xor_oneproc, True, ("distributed", "colocated")),
    "xor-colocated": Scheme("xor", _rep_xor_colocated, True, ("colocated",)),
    "gauss-multi": Scheme("dglm", _rep_gauss_multi, True, ("decentralized",)),
}


def _simulate(config: SimulationConfig, multi: bool) -> SimulationResult:
    scheme = SCHEMES.get(config.scheme_name)
    if scheme is None or scheme.multi != multi:
        kind = "multi" if multi else "single"
        raise DistributionError(f"unsupported {kind}-processor scheme {config.scheme_name!r}")
    distortions = np.empty(config.replications)
    for k in range(config.replications):
        distortions[k] = scheme.sample(config.spec, _rep_rng(config.seed, k))
    return _aggregate(distortions, config)


def simulate_single_processor(config: SimulationConfig) -> SimulationResult:
    """Run a single-processor scheme: sample, quantize/encode, transmit, estimate.

    Supported schemes: ``gauss-gauss`` (posterior mean, no channel),
    ``bsc-bit`` (repetition code with majority decoding, ties to 0), and
    ``bern-bsc``: the sample mean to midpoint cells over a noiseless link
    (eps = 0), or its bits each repeated over the channel otherwise.
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
    return entropy(mixture) - h_cond


# ---------------------------------------------------------------------------
# sandwich verdicts


@dataclass(frozen=True)
class SandwichVerdict:
    passed: bool
    hard_failures: tuple
    advisories: tuple
    margins: dict


def sandwich_check(report: ScenarioReport, result: SimulationResult,
                   ci_multiple: float = 3.0) -> SandwichVerdict:
    """Check a simulation against the bounds its scheme's table entry names.

    Exact lower bounds must not exceed the empirical risk by more than
    ``ci_multiple`` half-widths, and the empirical risk must not exceed any
    exact upper bound by more than that; asymptotic or infeasible entries
    produce advisories instead of failures. A non-finite margin, which any
    non-finite risk or half-width makes, is always a hard failure.
    """
    scheme = SCHEMES.get(result.scheme)
    if scheme is None or scheme.tag != report.tag:
        raise DistributionError(
            f"scenario tag {report.tag!r} does not match scheme {result.scheme!r}")
    risk, slack = result.empirical_risk, ci_multiple * result.ci_halfwidth
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
