"""End-to-end acceptance checks, one recorded pass/fail line apiece."""

import math
import time

import numpy as np

from bayeslb.bounds import lb_diff_entropy, lb_mi_smallball, mi_ub_single
from bayeslb.info import (DiscreteChannel, DiscreteDistribution, bec,
                          binary_entropy, bsc, verify_np_properties)
from bayeslb.scenarios import (ScenarioSpec, fig2_data, fig34_data,
                               scenario_bern_bsc, scenario_bern_uniform,
                               scenario_gauss_ball, scenario_gauss_gauss,
                               scenario_hypercube, scenario_xor)
from bayeslb.sdpi import eta_numeric
from bayeslb.simulate import (SimulationConfig, exact_chain_mi,
                              simulate_multi, simulate_single_processor)

import oracles
from conftest import record_acceptance


def test_criterion_1_contraction_closed_forms():
    start = time.perf_counter()
    uniform = DiscreteDistribution(np.array([0.5, 0.5]))
    worst = 0.0
    ok = True
    for eps in (0.1, 0.25, 0.4):
        for channel, target in ((bsc(eps), (1.0 - 2.0 * eps) ** 2),
                                (bec(eps), 1.0 - eps)):
            gap = eta_numeric(uniform, channel).value - target
            worst = max(worst, abs(gap))
            ok = ok and -1e-3 <= gap <= 1e-9
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 10.0
    record_acceptance(1, ok,
                      f"BSC/BEC contraction max |gap| {worst:.2e}, "
                      f"{elapsed:.1f} s")


def test_criterion_2_posterior_channel_dobrushin():
    worst = max(abs(oracles.dobrushin_bern_uniform_posterior(n) - (1.0 - 2.0 ** -n))
                for n in range(1, 9))
    record_acceptance(2, worst <= 1e-12,
                      f"posterior-channel coefficient max error {worst:.2e} "
                      f"over n=1..8")


def test_criterion_3_np_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(314159)
    alphas = np.linspace(0.05, 0.95, 7)
    gammas = np.array([0.5, 1.0, 2.0, 5.0])
    worst = 0.0
    for _ in range(100):
        size_in = int(rng.integers(2, 9))
        size_out = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(size_in))
        q = rng.dirichlet(np.ones(size_in))
        rows = rng.dirichlet(np.ones(size_out), size=size_in)
        report = verify_np_properties(p, q, DiscreteChannel(rows),
                                      alphas, gammas)
        worst = max(worst, report.max_violation)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 5.0
    record_acceptance(3, ok,
                      f"100 NP instances, max violation {worst:.2e}, "
                      f"{elapsed:.1f} s")


def test_criterion_4_chain_information_cap():
    start = time.perf_counter()
    prior = DiscreteDistribution(np.array([0.5, 0.5]))
    ok = True
    min_slack = math.inf
    for eps in (0.1, 0.25, 0.4):
        eta = (1.0 - 2.0 * eps) ** 2
        for uses in range(1, 5):
            mi = exact_chain_mi(prior, [bsc(eps)], uses)
            cap = 1.0 - (1.0 - eta) ** uses
            ok = ok and mi <= cap + 1e-12
            if uses >= 2:
                min_slack = min(min_slack, cap - mi)
                ok = ok and cap - mi > 1e-12
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 1.0
    record_acceptance(4, ok,
                      f"chain MI under contraction cap, min strict slack "
                      f"{min_slack:.3e}, {elapsed:.2f} s")


def test_criterion_5_tensorized_contraction():
    uniform4 = DiscreteDistribution(np.full(4, 0.25))
    channel = bsc(0.25).tensor(bsc(0.25))
    value = eta_numeric(uniform4, channel).value
    record_acceptance(5, abs(value - 0.25) <= 2e-3,
                      f"product-channel contraction {value:.6f} vs 0.25")


def test_criterion_6_quantization_rate_curves():
    start = time.perf_counter()
    header, rows = fig2_data(p=0.3)
    last = rows[-1]
    r_p = 1.0 - binary_entropy(0.3)
    ok = abs(last[0] - 1.0) < 1e-15
    ok = ok and abs(last[1] - r_p) <= 1e-9 and abs(r_p - 0.118709) <= 1e-6
    ok = ok and abs(last[1] - last[4]) <= 1e-9
    dominated = all(row[2] >= row[1] - 1e-12 and row[3] >= row[2] - 1e-12
                    for row in rows)
    elapsed = time.perf_counter() - start
    ok = ok and dominated and elapsed <= 1.0
    record_acceptance(6, ok,
                      f"rate curves: endpoint {last[1]:.9f}, dominance "
                      f"{dominated}, {elapsed:.2f} s")


def test_criterion_7_hide_seek_comparison():
    dominated = True
    for rule, rho in (("quarter_n", None), ("fixed", 0.01)):
        kwargs = {"rho_rule": rule}
        if rho is not None:
            kwargs["rho"] = rho
        _, rows = fig34_data(**kwargs)
        dominated = dominated and len(rows) == 1000 \
            and all(row[1] >= row[2] - 1e-12 for row in rows)
    # independent recomputation of the n=100, rho=0.01 point
    alpha = 0.98 / 1.02
    ratio_term = (1.0 - alpha ** 100) * 10 * 1536.0 + 1.0
    info_term = min(4.0 * 10 * 100 * 0.01 ** 2, 9.0) + 1.0
    recomputed = 1.0 - min(ratio_term, info_term) / 9.0
    _, fixed_rows = fig34_data(rho_rule="fixed", rho=0.01)
    point = fixed_rows[99][1]
    ok = dominated and abs(point - recomputed) <= 1e-12 \
        and abs(point - 0.844444) <= 1e-6
    record_acceptance(7, ok,
                      f"dominance {dominated}, n=100 point {point:.9f} vs "
                      f"recomputed {recomputed:.9f}")


def test_criterion_8_sandwich_monte_carlo():
    reps = 100000
    ok = True
    notes = []

    for n in (1, 10, 100):
        start = time.perf_counter()
        spec = ScenarioSpec(tag="gauss-gauss", n=n)
        result = simulate_single_processor(
            SimulationConfig(spec=spec, replications=reps, seed=11))
        elapsed = time.perf_counter() - start
        report = scenario_gauss_gauss(spec)
        lower = report.lower_bounds["corollary"].value
        upper = math.sqrt(1.0 / (1.0 + n))
        mmae = report.derived["mmae_exact"]
        slack = 3.0 * result.ci_halfwidth
        ok = ok and lower <= result.empirical_risk + slack
        ok = ok and result.empirical_risk <= upper + slack
        ok = ok and abs(result.empirical_risk - mmae) <= slack
        ok = ok and elapsed <= 60.0
        notes.append(f"gauss n={n} {elapsed:.0f}s")

    start = time.perf_counter()
    spec = ScenarioSpec(tag="bern-bsc", n=256, b=4.0, eps=0.0, T=None)
    result = simulate_single_processor(
        SimulationConfig(spec=spec, replications=reps, seed=12))
    elapsed = time.perf_counter() - start
    ok = ok and 1.0 / (2.0 * math.e * 16.0) <= result.empirical_risk \
        <= 1.41 / 16.0
    ok = ok and elapsed <= 60.0
    notes.append(f"quantized mean {elapsed:.0f}s")

    start = time.perf_counter()
    spec = ScenarioSpec(tag="xor", m=2, n=16, b=0.0)
    result = simulate_multi(
        SimulationConfig(spec=spec, replications=reps, seed=13, scheme="xor"))
    elapsed = time.perf_counter() - start
    ok = ok and abs(result.empirical_risk - 0.25) <= 3.0 * result.ci_halfwidth
    ok = ok and result.empirical_risk >= 1.0 / (2.0 * math.e)
    ok = ok and elapsed <= 60.0
    notes.append(f"parity {elapsed:.0f}s")

    record_acceptance(8, ok, "sandwich runs: " + ", ".join(notes))


def test_criterion_9_asymptote_consistency():
    start = time.perf_counter()
    bern = scenario_bern_uniform(ScenarioSpec(tag="bern-uniform", n=10000))
    ratio_bern = bern.lower_bounds["finite"].value \
        / bern.lower_bounds["asymptotic"].value
    flagged = bern.lower_bounds["asymptotic"].asymptotic

    ball = scenario_gauss_ball(ScenarioSpec(tag="gauss-ball", n=10000, d=3),
                               reps=100000, seed=20240817)
    ratio_ball = ball.lower_bounds["finite_mc_weak"].value \
        / ball.lower_bounds["asymptotic"].value
    flagged = flagged and ball.lower_bounds["asymptotic"].asymptotic
    elapsed = time.perf_counter() - start
    ok = flagged and 0.8 <= ratio_bern <= 1.2 and 0.8 <= ratio_ball <= 1.2 \
        and elapsed <= 120.0
    record_acceptance(9, ok,
                      f"finite/asymptote ratios {ratio_bern:.3f} (coin), "
                      f"{ratio_ball:.3f} (ball), flagged {flagged}, "
                      f"{elapsed:.0f} s")


def test_criterion_10_ordering_and_monotonicity():
    start = time.perf_counter()
    rng = np.random.default_rng(271828)
    ok = True
    for _ in range(1000):
        report = mi_ub_single(i_wx=float(rng.uniform(0, 5)),
                              h_x=float(rng.uniform(0, 4)),
                              b=float(rng.uniform(0, 6)),
                              capacity=float(rng.uniform(0, 2)),
                              T=int(rng.integers(1, 7)),
                              eta_stat=float(rng.uniform(0, 1)),
                              eta_uses=float(rng.uniform(0, 1)))
        ok = ok and report.value <= report.arguments["odpi"] + 1e-12

    def nonincreasing(values):
        return all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    smallball = lambda rho: min(2.0 * rho, 1.0)
    i_grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
    ok = ok and nonincreasing([lb_diff_entropy(i, 0.0).value for i in i_grid])
    ok = ok and nonincreasing(
        [lb_mi_smallball(i, smallball).value for i in i_grid])

    def hypercube_lower(**kw):
        spec = ScenarioSpec(tag="hypercube", d=3, delta=0.6, eps=0.1, p=0.3,
                            **kw)
        return scenario_hypercube(spec).lower_bounds["bit_error"].value

    ok = ok and nonincreasing(
        [hypercube_lower(b=b, T=2) for b in (0.0, 1.0, 2.0, 4.0, 8.0)])
    ok = ok and nonincreasing(
        [hypercube_lower(b=2.0, T=T) for T in (1, 2, 3, 4, 6)])

    def bern_bsc_lower(b, T):
        spec = ScenarioSpec(tag="bern-bsc", n=100, b=b, eps=0.1, T=T)
        return scenario_bern_bsc(spec).lower_bounds["mi"].value

    ok = ok and nonincreasing(
        [bern_bsc_lower(b, 32) for b in (1.0, 2.0, 4.0, 8.0)])
    ok = ok and nonincreasing(
        [bern_bsc_lower(4.0, T) for T in (8, 16, 32, 64)])

    def xor_lower(m, b):
        spec = ScenarioSpec(tag="xor", m=m, n=16, b=b)
        return scenario_xor(spec).lower_bounds["colocated"].value

    ok = ok and nonincreasing(
        [xor_lower(2, b) for b in (0.0, 0.5, 1.0, 2.0, 4.0)])
    ok = ok and nonincreasing([xor_lower(m, 1.0) for m in (2, 3, 4, 8)])
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 10.0
    record_acceptance(10, ok,
                      f"1000 ordered budget bounds and monotone grids, "
                      f"{elapsed:.1f} s")


def test_criterion_11_simulation_determinism(tmp_path):
    from bayeslb.cli import main
    argv = ["simulate", "gauss-gauss", "--n", "10", "--reps", "5000",
            "--seed", "7"]
    outputs = []
    for label, workers in (("a", "1"), ("b", "1"), ("c", "6")):
        path = tmp_path / f"{label}.csv"
        code = main(argv + ["--parallel", workers, "--out", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    record_acceptance(11, ok,
                      "equal-seed runs byte-identical across parallelism "
                      f"{ok}")
