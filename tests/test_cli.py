import itertools
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bayeslb import cli
from bayeslb.bounds import (lb_diff_entropy, lb_mi_smallball, mi_ub_cutset,
                            mi_ub_interactive, mi_ub_multi_iid, mi_ub_single)
from bayeslb.info import DistortionSpec, DistributionError, PriorSpec, small_ball
from bayeslb.scenarios import REPS_LIMIT, ScenarioSpec, scenario_gauss_ball, scenario_gauss_gauss
from bayeslb.simulate import (BLOCK, SCHEMES, SimulationConfig, sandwich_check,
                              simulate_multi)


# the largest gauss-multi dimension whose (BLOCK, d) block numpy can address
D_LIMIT = sys.maxsize // (8 * BLOCK)


def run(argv, capsys):
    """Run the CLI in process, returning (exit code, stdout, stderr)."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(text):
    return [line for line in text.splitlines()
            if line and not line.startswith("#")]


def kv(text):
    pairs = {}
    for line in data_rows(text):
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


# ---------------------------------------------------------------------------
# bound


def test_bound_thm3_point(capsys):
    code, out, _ = run(["bound", "--thm", "3", "--I", "0", "--h", "0",
                        "--d", "1", "--r", "1"], capsys)
    assert code == 0
    assert float(kv(out)["value"]) == pytest.approx(0.183940, abs=5e-7)


def test_bound_thm4_zero_budget(capsys):
    code, out, _ = run(["bound", "--thm", "4", "--b", "0", "--T", "1"],
                       capsys)
    assert code == 0
    assert float(kv(out)["value"]) == 0.0


def test_bound_missing_flag_exits_2(capsys):
    code, _, err = run(["bound", "--thm", "3", "--I", "0"], capsys)
    assert code == 2
    assert "error:" in err


def test_bound_without_thm_exits_2(capsys):
    code, _, _ = run(["bound"], capsys)
    assert code == 2


# per theorem: the flags it needs, a few more, and the same bound called
# directly; unset budgets are infinite
INF = math.inf
THEOREM_RUNS = {
    1: ({"I": "1", "prior": "gaussian"}, {"prior_var": "2"},
        lambda: lb_mi_smallball(1.0, lambda rho: small_ball(
            PriorSpec.gaussian(2.0), rho, DistortionSpec("absolute")))),
    3: ({"I": "1", "h": "0.5"}, {"d": "2"},
        lambda: lb_diff_entropy(1.0, 0.5, d=2)),
    4: ({}, {"I": "2", "b": "3", "eta_uses": "0.6"},
        lambda: mi_ub_single(2.0, INF, 3.0, INF, 1, 1.0, 0.6)),
    5: ({}, {"i_single": "1", "m": "3", "capacity": "0.5"},
        lambda: mi_ub_multi_iid(INF, 1.0, 1.0, 3, INF, 0.5, 1, 1.0)),
    6: ({"outside": "2"}, {"b": "3", "eta_s": "0.5", "colocated": True,
                           "m": "4"},
        lambda: mi_ub_cutset(INF, 0.5, 2, 3.0, INF, 1, 1.0, colocated=True,
                             m=4)),
    7: ({"alpha": "0.5"}, {"n": "3", "b": "4"},
        lambda: mi_ub_interactive(0.5, 3, 1, 4.0, INF)),
}


def bound_argv(thm, flags):
    argv = ["bound", "--thm", str(thm)]
    for dest, value in flags.items():
        argv.append(cli._flag(dest))
        if value is not True:
            argv.append(value)
    return argv


def test_theorem_runs_cover_the_table():
    assert sorted(THEOREM_RUNS) == sorted(cli._THEOREMS)
    for thm, (needs, _, _) in THEOREM_RUNS.items():
        assert tuple(needs) == cli._THEOREMS[thm][0]


@pytest.mark.parametrize("thm", sorted(THEOREM_RUNS))
def test_bound_theorem_row_matches_direct_call(thm, capsys):
    needs, more, direct = THEOREM_RUNS[thm]
    code, out, err = run(bound_argv(thm, {**needs, **more}), capsys)
    assert (code, err) == (0, "")
    value = direct().value
    assert math.isfinite(value)
    assert kv(out)["value"] == cli._text(value)
    for dest in needs:
        rest = {key: text for key, text in {**needs, **more}.items()
                if key != dest}
        code, out, err = run(bound_argv(thm, rest), capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --thm {thm} needs {cli._flag(dest)}\n"


@pytest.mark.parametrize("thm", ["2", "8"])
def test_bound_theorem_outside_table_exits_2(thm, capsys):
    code, out, err = run(["bound", "--thm", thm, "--I", "1"], capsys)
    assert (code, out) == (2, "")
    assert "invalid choice" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--thm", "4", "--eta-uses", "0"],
    ["--thm", "5", "--eta-stat", "0", "--eta-uses", "0"],
    ["--thm", "4", "--eta-stat", "0", "--I", "1"],
    ["--thm", "6", "--outside", "2", "--eta-s", "0"],
    ["--thm", "7", "--alpha", "1", "--n", "3"],
])
def test_bound_zero_contraction_passes_nothing(argv, capsys):
    code, out, _ = run(["bound", *argv], capsys)
    assert code == 0
    pairs = kv(out)
    assert pairs["value"] == "0"
    assert "nan" not in pairs.values()


def test_bound_nan_budget_exits_2(capsys):
    code, out, err = run(["bound", "--thm", "4", "--I", "nan"], capsys)
    assert (code, out) == (2, "")
    assert "is NaN" in err


@pytest.mark.parametrize("argv", [
    ["--thm", "4", "--I", "-1"],
    ["--thm", "7", "--alpha", "0.5", "--b", "-3"],
    ["--thm", "1", "--I", "nan", "--prior", "uniform01"],
    ["--thm", "3", "--I", "3", "--h", "3", "--r", "inf"],
])
def test_bound_impossible_budget_exits_2(argv, capsys):
    # a negative or NaN information, or an infinite norm exponent
    code, out, err = run(["bound", *argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_bound_csv_output(capsys):
    code, out, _ = run(["bound", "--thm", "3", "--I", "1", "--h", "0",
                        "--csv"], capsys)
    assert code == 0
    assert out.startswith("# bayeslb")
    rows = data_rows(out)
    assert rows[0] == "key,value"
    table = dict(row.split(",", 1) for row in rows[1:])
    assert float(table["value"]) == pytest.approx(0.18393972058572116 / 2.0,
                                                  rel=1e-8)


# ---------------------------------------------------------------------------
# scenario


def test_scenario_hide_seek_point(capsys):
    code, out, _ = run(["scenario", "hide-seek", "--m", "10", "--d", "512",
                        "--b", "1536", "--rho", "0.01", "--n", "100"], capsys)
    assert code == 0
    rows = {tuple(line.split(",")[:2]): line.split(",")[2]
            for line in data_rows(out)[1:]}
    assert float(rows[("lower", "ours")]) == pytest.approx(0.844444444,
                                                           abs=1e-9)
    assert float(rows[("lower", "shamir")]) == 0.0


def test_scenario_ceo_requires_alpha(capsys):
    code, _, err = run(["scenario", "ceo", "--m", "3"], capsys)
    assert code == 2
    assert "alpha" in err


@pytest.mark.parametrize("alpha", ["inf", "nan"])
def test_scenario_ceo_rejects_non_finite_alpha(alpha, capsys):
    code, out, err = run(["scenario", "ceo", "--alpha", alpha], capsys)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert f"error: distortion target must lie in (0, inf), not {alpha}" in err


def test_scenario_unknown_tag_exits_2(capsys):
    code, _, _ = run(["scenario", "nonesuch"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["scenario", "hypercube", "--d", "4", "--b", "3", "--eta-uses", "1.5"],
    ["scenario", "minimax-cube", "--capacity", "-2", "--T", "3"],
    ["scenario", "dglm", "--total-samples", "100", "--total-bits", "-50",
     "--m", "4"],
    ["scenario", "dglm", "--total-samples", "100", "--total-bits", "50",
     "--m", "4", "--total-uses", "-1"],
])
def test_scenario_channel_override_out_of_range_exits_2(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_bound_thm3_floor_beyond_float_range_exits_2(capsys):
    code, out, err = run(["bound", "--thm", "3", "--I", "0", "--h", "5000",
                          "--d", "1"], capsys)
    assert (code, out) == (2, "")
    assert "error:" in err and "float range" in err


@pytest.mark.parametrize("argv, flag, reason", [
    (["bound", "--thm", "4", "--T", "9" * 401], "--T", "float range"),
    (["scenario", "gauss-gauss", "--n", "9" * 401], "--n", "float range"),
    (["simulate", "bsc-bit", "--eps", "0.1", "--T", str(2 ** 63), "--reps", "1"], "--T",
     "samplers' 64-bit range"),
    (["simulate", "xor-colocated", "--eps", "0.1", "--n", str(2 ** 63), "--reps", "1"],
     "--n", "samplers' 64-bit range"),
    (["simulate", "gauss-multi", "--d", str(D_LIMIT + 1), "--reps", "1"], "--d",
     f"size one {BLOCK}-row block of draws can address"),
])
def test_integer_flag_out_of_range_exits_2_naming_it(argv, flag, reason, tmp_path, capsys):
    """Bounds and scenarios compute in floats, so argparse refuses a larger
    integer flag by name; a simulated run's record refuses a count past the
    samplers' 64-bit integers by field name. Both hold for a --config file
    too, and both come before any computation sees the value."""
    at = argv.index(flag)
    message = (f"{flag[2:]} {argv[at + 1]} lies beyond the {reason}" if argv[0] == "simulate"
               else f"argument {flag}: lies beyond the {reason}")
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert message in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]}={argv[at + 1]}\n")
    code, out, err = run(["--config", str(cfg)] + argv[:at] + argv[at + 2:], capsys)
    assert (code, out) == (2, "")
    assert message in err


def test_simulate_gauss_multi_out_of_memory_exits_2(monkeypatch, capsys):
    """The largest --d numpy can address passes the intake, and a block too
    large to allocate exits 2; the stub sampler allocates nothing."""
    assert 8 * BLOCK * D_LIMIT <= sys.maxsize < 8 * BLOCK * (D_LIMIT + 1)

    def sample(spec, rng, size):
        assert (size, spec.d) == (1, D_LIMIT)
        raise MemoryError("Unable to allocate 8.00 EiB")

    monkeypatch.setitem(SCHEMES, "gauss-multi",
                        SCHEMES["gauss-multi"]._replace(sample=sample))
    code, out, err = run(["simulate", "gauss-multi", "--d", str(D_LIMIT), "--reps", "1"],
                         capsys)
    assert (code, out) == (2, "")
    assert "error: Unable to allocate" in err and "Traceback" not in err


def test_simulate_takes_the_largest_64_bit_count(capsys):
    code, out, _ = run(["simulate", "bsc-bit", "--eps", "0.1", "--T", str(2 ** 63 - 1),
                        "--reps", "1"], capsys)
    assert code == 0
    assert data_rows(out)[1].startswith("bsc-bit,")


@pytest.mark.parametrize("scheme, flags", [
    ("bern-bsc", ["--b", "4", "--eps", "0"]),
    ("bern-bsc", ["--b", "4", "--eps", "0.1", "--T", "70"]),
    ("xor-colocated", ["--m", "2", "--b", "2"]),
])
def test_simulate_bernoulli_takes_the_largest_64_bit_count(scheme, flags, capsys):
    # the count is drawn uniformly up to n, then W from Beta(K + 1, n - K + 1)
    code, out, _ = run(["simulate", scheme, "--n", str(2 ** 63 - 1), "--reps", "3"] + flags,
                       capsys)
    assert code == 0
    name, risk, halfwidth, *_ = data_rows(out)[1].split(",")
    assert name == scheme
    assert math.isfinite(float(risk)) and math.isfinite(float(halfwidth))


# the Python intake of a Monte Carlo run that each replication-count test
# pairs with its command
REPS_INTAKES = {
    "simulate": lambda reps: SimulationConfig(ScenarioSpec("gauss-gauss"), reps, 0),
    "scenario": lambda reps: scenario_gauss_ball(ScenarioSpec("gauss-ball"), reps=reps),
}
REPS_COMMANDS = [["simulate", "gauss-gauss"], ["scenario", "gauss-ball"]]


@pytest.mark.parametrize("reps", [REPS_LIMIT + 1, 2 ** 63 - 1, 10 ** 19])
@pytest.mark.parametrize("command", REPS_COMMANDS, ids=["simulate", "gauss-ball"])
def test_replication_count_past_one_array_exits_2_naming_it(command, reps, capsys):
    """No float64 array holds more than sys.maxsize // 8 entries, so a larger
    replication count raises in Python and exits 2 on the CLI."""
    message = f"replication count {reps} is not an integer in [1, {REPS_LIMIT}]"
    with pytest.raises(DistributionError, match=re.escape(message)):
        REPS_INTAKES[command[0]](reps)
    code, out, err = run(command + ["--reps", str(reps)], capsys)
    assert (code, out) == (2, "")
    assert f"error: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", REPS_COMMANDS, ids=["simulate", "gauss-ball"])
def test_replication_count_at_the_limit_fails_to_allocate_and_exits_2(command, capsys):
    # the intake takes the count, and numpy refuses its 2^63-byte (or, for
    # gauss-ball's booleans, 2^60-byte) array at once, allocating nothing
    SimulationConfig(ScenarioSpec("gauss-gauss"), REPS_LIMIT, 0)
    code, out, err = run(command + ["--reps", str(REPS_LIMIT)], capsys)
    assert (code, out) == (2, "")
    assert "error: Unable to allocate" in err and "Traceback" not in err


# each integer model field's range on a simulated run, and the replication
# count's; ScenarioSpec holds the lower ends and SimulationConfig the upper
INTAKE_RANGES = {"n": (1, 2 ** 63 - 1), "m": (1, 2 ** 63 - 1), "T": (1, 2 ** 63 - 1),
                 "total_samples": (1, 2 ** 63 - 1), "total_uses": (0, 2 ** 63 - 1),
                 "d": (1, D_LIMIT), "reps": (1, REPS_LIMIT)}


@st.composite
def _intake_cases(draw):
    """A scheme, a field of INTAKE_RANGES and a value within 3 of either end
    of its range or far past both. A replication count is drawn only past
    its top: at the top, the run fails to allocate its array (tested above)."""
    field = draw(st.sampled_from(sorted(INTAKE_RANGES)))
    low, high = INTAKE_RANGES[field]
    near_low = st.integers(low - 3, low + 3)
    near_high = st.integers(high + 1 if field == "reps" else high - 3, high + 3)
    value = draw(near_low | near_high | st.sampled_from([-2 ** 64, 2 ** 64, 10 ** 400]))
    return draw(st.sampled_from(sorted(SCHEMES))), field, value


@pytest.fixture
def no_draws(monkeypatch):
    """Every sampler returns zeros, so that no accepted input allocates."""
    for name, scheme in SCHEMES.items():
        monkeypatch.setitem(SCHEMES, name, scheme._replace(
            sample=lambda spec, rng, size: np.zeros(size)))


@given(case=_intake_cases())
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_and_python_intake_refuse_the_same_inputs(case, no_draws, capsys):
    """``simulate`` exits 2 exactly when ScenarioSpec and SimulationConfig
    refuse the same values in Python, with the same message, and otherwise
    runs; it never raises past ``main``."""
    scheme, field, value = case
    reps, model = (value, {}) if field == "reps" else (1, {field: value})
    try:
        SimulationConfig(ScenarioSpec(SCHEMES[scheme].tag, **model), reps, 0, scheme)
    except DistributionError as exc:
        refusal = f"error: {exc}\n"
    else:
        refusal = None
    flag = cli._flag(field)
    argv = ["simulate", scheme, "--reps", str(reps)] + [
        token for name, text in model.items() for token in (cli._flag(name), str(text))]
    code, out, err = run(argv, capsys)
    assert "Traceback" not in err
    if refusal is None:
        assert (code, err) == (0, "")
        assert data_rows(out)[1].startswith(f"{scheme},")
    else:
        assert (code, out) == (2, "")
        # argparse refuses a value past the float range first, naming the flag
        assert err == refusal or f"argument {flag}: lies beyond the float range" in err


@pytest.mark.parametrize("argv", [
    ["scenario", "ceo", "--d", "64", "--alpha", "1e-6"],
    ["bound", "--thm", "3", "--I", "0", "--h", "0", "--d", "400", "--r", "1"],
    ["scenario", "ceo", "--d", "400", "--alpha", "0.5"],
    ["scenario", "gauss-ball", "--d", "400", "--n", "10", "--reps", "10"],
])
def test_high_dimension_ball_constants_stay_finite(argv, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    cells = {cell for line in data_rows(out)
             for cell in line.replace("=", ",").split(",")}
    assert not cells & {"nan", "inf", "-inf"}


# ---------------------------------------------------------------------------
# simulate


def test_simulate_reports_and_checks(capsys):
    code, out, _ = run(["simulate", "gauss-gauss", "--n", "10", "--reps",
                        "2000", "--seed", "7", "--check"], capsys)
    assert code == 0
    assert "# check: pass" in out
    rows = data_rows(out)
    assert rows[0] == "scheme,empirical_risk,ci_halfwidth,replications,seed"
    fields = rows[1].split(",")
    assert fields[0] == "gauss-gauss"
    assert fields[3] == "2000"
    assert fields[4] == "7"


def test_simulate_requires_positive_reps(capsys):
    code, _, err = run(["simulate", "gauss-gauss", "--reps", "0"], capsys)
    assert code == 2
    assert "error:" in err


def test_simulate_requires_reps_flag(capsys):
    code, _, _ = run(["simulate", "gauss-gauss"], capsys)
    assert code == 2


def test_simulate_byte_identical_across_parallelism(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path, workers in zip(paths, ("1", "8")):
        code, _, _ = run(["simulate", "xor", "--m", "2", "--n", "16",
                          "--reps", "300", "--seed", "3",
                          "--parallel", workers, "--out", str(path)], capsys)
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_manifest_command_replays_byte_identically(tmp_path, capsys):
    first = tmp_path / "first.csv"
    code, _, _ = run(["simulate", "bsc-bit", "--eps", "0.1", "--T", "5",
                      "--reps", "500", "--seed", "21", "--out", str(first)],
                     capsys)
    assert code == 0
    text = first.read_text()
    command = next(line for line in text.splitlines()
                   if line.startswith("# command: "))
    tokens = command.removeprefix("# command: ").split()
    second = tmp_path / "second.csv"
    code, _, _ = run(tokens + ["--out", str(second)], capsys)
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_simulate_colocated_parity_meets_its_own_floor(capsys):
    # one processor holds every stream, so the distributed floor (0.046)
    # does not apply; the scheme's risk is about 0.016
    code, out, _ = run(["simulate", "xor-colocated", "--m", "2", "--n",
                        "10000", "--b", "2", "--reps", "2000", "--check"],
                       capsys)
    assert code == 0
    assert "# check: pass" in out


@pytest.mark.parametrize("argv", [
    ["scenario", "bern-bsc", "--eps", "0.5", "--T", "1"],
    ["simulate", "bern-bsc", "--n", "10", "--b", "4", "--eps", "0.5", "--T",
     "8", "--reps", "1000", "--check"],
])
def test_bern_bsc_useless_channel_runs(argv, capsys):
    # capacity and feedback exponent are both 0 at eps = 1/2
    code, out, err = run(argv, capsys)
    assert code == 0
    assert "Traceback" not in err
    assert "nan" not in out
    assert "capacity_to_feedback_exponent" not in out
    # i_star and the feedback exponent are 0 here, printed without a sign
    assert "-0" not in {cell for line in data_rows(out)
                        for cell in line.split(",")}
    if argv[0] == "simulate":
        assert "# check: pass" in out


@pytest.mark.parametrize("n", [5, 100, 1000])
def test_bern_bsc_noisy_grid_passes_check(n, capsys):
    # below ceil(log2(n+1)) bits the scheme sends the sample mean's b-bit cell
    for b, eps, T in itertools.product((0, 1, 2, 3), (0.05, 0.1), (30, 70)):
        code, out, _ = run(["simulate", "bern-bsc", "--n", str(n), "--b", str(b),
                            "--eps", str(eps), "--T", str(T), "--reps", "5000",
                            "--check"], capsys)
        assert (code, "# check: pass" in out) == (0, True), (b, eps, T)


# (scheme, flags) runs, one per scheme in the table
MARGIN_RUNS = {
    "gauss-gauss": {"n": 10},
    "bern-bsc": {"n": 100, "b": 7.0, "eps": 0.1, "T": 70},
    "bsc-bit": {"eps": 0.1, "T": 7},
    "xor": {"m": 2, "n": 16, "b": 2.0},
    "xor-colocated": {"m": 2, "n": 16, "b": 2.0},
    "gauss-multi": {"m": 4, "n": 10, "d": 8},
}


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_simulate_prints_each_checked_margin(name, capsys):
    fields = MARGIN_RUNS[name]
    flags = [tok for key, value in fields.items()
             for tok in (f"--{key}", str(value))]
    code, out, _ = run(["simulate", name, *flags, "--reps", "2000",
                        "--seed", "5", "--check"], capsys)
    assert code == 0
    lines = out.splitlines()
    check = next(i for i, line in enumerate(lines)
                 if line.startswith("# check: "))
    margins = [line.removeprefix("# margin: ").split("=")
               for line in lines if line.startswith("# margin: ")]
    assert lines[check + 1].startswith("# margin: ")
    scheme = SCHEMES[name]
    config = SimulationConfig(spec=ScenarioSpec(tag=scheme.tag, **fields),
                              replications=2000, seed=5, scheme=name)
    verdict = sandwich_check(cli._SCENARIO_FNS[scheme.tag](config.spec),
                             simulate_multi(config))
    assert [label for label, _ in margins] == list(verdict.margins)
    assert [value for _, value in margins] == \
        [cli._text(value) for value in verdict.margins.values()]


# gauss-multi ships pooled means over a noiseless link, so a channel or
# budget flag would check it against a model it never ran (--eta-uses 0
# --reps 2000 --check fails a correct bound); the record refuses the field
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("flag, value", [
    ("--eps", "0.1"), ("--eta-uses", "0"), ("--capacity", "0.5"),
    ("--total-uses", "4"), ("--total-samples", "16"), ("--total-bits", "1"),
])
def test_simulate_gauss_multi_refuses_model_flags(flag, value, source,
                                                  tmp_path, capsys):
    argv = ["simulate", "gauss-multi", "--m", "3", "--n", "5", "--d", "2",
            "--reps", "2000", "--check"]
    if source == "flag":
        argv += [flag, value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:]}={value}\n")
        argv = ["--config", str(cfg), *argv]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert f"refuses {flag[2:].replace('-', '_')}=" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "gauss-gauss", "--var-w", "inf", "--reps", "50", "--check"],
    ["scenario", "gauss-gauss", "--var-w", "nan"],
], ids=["simulate-var-w-inf", "scenario-var-w-nan"])
def test_non_finite_model_value_exits_2(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert "var_w must be finite" in err


@pytest.mark.parametrize("argv, field", [
    (["--prior", "ball", "--prior-radius", "1", "--prior-dim", "2",
      "--distortion", "l2r", "--distortion-r", "inf"], "distortion exponent r"),
    (["--prior", "gaussian", "--prior-var", "inf"], "prior var"),
    (["--prior", "ball", "--prior-radius", "inf"], "prior radius"),
], ids=["distortion-r-inf", "prior-var-inf", "prior-radius-inf"])
def test_non_finite_small_ball_value_exits_2(argv, field, capsys):
    # an infinite exponent once gave a floor of 0 with exit 0, and an
    # infinite variance was refused as a small-ball value of 0
    code, out, err = run(["bound", "--thm", "1", "--I", "1", *argv], capsys)
    assert (code, out) == (2, "")
    assert f"{field} must be finite, not inf" in err


@pytest.mark.parametrize("argv", [
    ["scenario", "gauss-gauss", "--var-w", "1e308", "--n", "1000"],
    ["scenario", "gauss-ball", "--d", "1", "--n", "1", "--reps", "10",
     "--var-noise", "1e308"],
    ["figure", "fig2", "--etas", "1e-320"],
], ids=["gauss-gauss-nan", "gauss-ball-inf", "fig2-inf"])
def test_non_finite_bound_exits_2(argv, capsys):
    # finite model values whose bounds leave the float range print no row
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert "exceeds the float range" in err or "leaves the float range" in err


def test_gauss_ball_overflowing_sample_mean_warns_nothing(capsys):
    # a noise variance near the float limit overflows the squared sample
    # mean, whose ball mass is then 0, the limit: nothing to warn about
    argv = ["scenario", "gauss-ball", "--d", "1", "--n", "1", "--reps", "2000",
            "--var-noise", "2e307", "--seed", "0"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(argv, capsys)
    assert (code, err, caught) == (0, "", [])


def test_gauss_ball_threshold_up_to_the_float_range(capsys):
    # ball thresholds a^2 n / sigma^2 of 1e10 and 1e40: nearly every draw
    # lies deep inside the ball, so p_hat is 1; one that overflows exits 2
    argv = ["scenario", "gauss-ball", "--d", "2", "--n", "1", "--reps", "200",
            "--seed", "0", "--radius"]
    for radius in ["1e5", "1e20"]:
        code, out, _ = run(argv + [radius], capsys)
        assert code == 0
        assert any(row.startswith("derived,p_hat,1,") for row in data_rows(out))
    code, out, err = run(argv + ["1e200"], capsys)
    assert (code, out) == (2, "")
    assert "float range" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["simulate", "bern-bsc", "--n", "10", "--b", "2000", "--eps", "0"],
    ["simulate", "xor-colocated", "--m", "2", "--n", "16", "--b", "600"],
])
def test_simulate_bit_budget_past_float_range(argv, capsys):
    # from 2^1024 cells on, the quantizer is the identity, as it already is
    # (to the printed digits) at 2^64
    code, out, _ = run(argv + ["--reps", "3000", "--seed", "1"], capsys)
    assert code == 0
    row = data_rows(out)[1]
    assert "nan" not in row and "inf" not in row
    fine = argv[:argv.index("--b") + 1] + ["64"] + argv[argv.index("--b") + 2:]
    code, out, _ = run(fine + ["--reps", "3000", "--seed", "1"], capsys)
    assert code == 0
    assert data_rows(out)[1] == row


def test_check_failure_exits_1(tmp_path, capsys, monkeypatch):
    def inflated(spec):
        report = scenario_gauss_gauss(spec)
        bound = report.lower_bounds["corollary"]
        report.lower_bounds["corollary"] = bound._replace(value=50.0)
        return report

    monkeypatch.setitem(cli._SCENARIO_FNS, "gauss-gauss", inflated)
    code, out, _ = run(["simulate", "gauss-gauss", "--n", "10", "--reps",
                        "200", "--seed", "7", "--check"], capsys)
    assert code == 1
    assert "# check: FAIL" in out
    assert "# check-failure:" in out


# ---------------------------------------------------------------------------
# figure


def test_figure_fig2_coincidence_row(capsys):
    code, out, _ = run(["figure", "fig2"], capsys)
    assert code == 0
    rows = data_rows(out)
    assert rows[0] == "delta,blb_eta_1,blb_eta_0.75,blb_eta_0.5,tildeR,R"
    last = rows[-1].split(",")
    assert float(last[0]) == 1.0
    assert last[1] == "0.118709101"
    assert last[4] == "0.118709101"
    assert last[5] == "0.118709101"


@pytest.mark.parametrize("argv", [
    ["fig3", "--d", "1"], ["fig3", "--d", "0"], ["fig4", "--d", "1"],
    ["fig4", "--rho", "-1"], ["fig4", "--rho", "-0.5"], ["fig4", "--rho", "0.7"],
    ["fig3", "--m", "0"], ["fig4", "--b", "-5"], ["fig2", "--points", "-1"],
])
def test_figure_impossible_model_exits_2(argv, capsys):
    code, out, err = run(["figure", *argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_scenario_prints_a_text_entry_as_a_notice_after_the_manifest(capsys):
    code, out, _ = run(["scenario", "bern-bsc", "--n", "100", "--b", "4",
                        "--eps", "0.1", "--T", "70"], capsys)
    assert code == 0
    lines = out.splitlines()
    header = lines.index("group,name,value,kind,asymptotic,clamped,infeasible")
    assert lines[header - 2].startswith("# seed: ")
    assert lines[header - 1] \
        == "# notice: case-2 upper bound omitted: b = 4 < log2(n + 1) = 6.65821"
    assert not any(line.startswith("upper,case2,") for line in lines)


def test_bern_bsc_honours_channel_overrides(capsys):
    code, out, _ = run(["scenario", "bern-bsc", "--n", "100", "--b", "7",
                        "--eps", "0.1", "--T", "40", "--capacity", "0.01",
                        "--eta-uses", "0.5"], capsys)
    assert code == 0
    rows = {tuple(line.split(",")[:2]): line.split(",")[2]
            for line in data_rows(out)}
    assert rows["derived", "capacity"] == "0.01"
    assert rows["derived", "eta_T"] == "0.5"
    # 0.01 bits a use over 40 uses is the binding term, far below 7 bits
    assert float(rows["lower", "mi"]) == pytest.approx(
        lb_diff_entropy(40 * 0.01 * (1.0 - 2.0 ** -100), 0.0).value, rel=1e-8)


def test_figure_fig4_frozen_row(capsys):
    code, out, _ = run(["figure", "fig4"], capsys)
    assert code == 0
    rows = data_rows(out)
    assert rows[0] == "n,ours,shamir"
    assert "100,0.844444444,0" in rows
    assert len(rows) == 1001


def test_figure_fig3_first_row(capsys):
    code, out, _ = run(["figure", "fig3"], capsys)
    assert code == 0
    assert data_rows(out)[1] == "1,0.611111111,0"


# ---------------------------------------------------------------------------
# manifest details, config, environment


def test_timestamp_line_is_opt_in(capsys):
    _, plain, _ = run(["bound", "--thm", "3", "--I", "0", "--h", "0",
                       "--csv"], capsys)
    assert "# timestamp:" not in plain
    _, stamped, _ = run(["bound", "--thm", "3", "--I", "0", "--h", "0",
                         "--csv", "--timestamp"], capsys)
    assert "# timestamp:" in stamped


def test_config_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=41\nn=10\n# a comment\n")
    _, out, _ = run(["--config", str(cfg), "simulate", "gauss-gauss",
                     "--reps", "50"], capsys)
    assert data_rows(out)[1].split(",")[4] == "41"
    for explicit in (["--seed", "9"], ["--see", "9"], ["--seed=9"]):
        _, out, _ = run(["--config", str(cfg), "simulate", "gauss-gauss",
                         "--reps", "50", *explicit], capsys)
        assert data_rows(out)[1].split(",")[4] == "9"


def test_config_does_not_outlive_its_call(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=7\n")
    argv = ["simulate", "gauss-gauss", "--reps", "50"]
    for prefix, n in (([], 1), (["--config", str(cfg)], 7), ([], 1)):
        _, out, _ = run([*prefix, *argv], capsys)
        assert f" n={n} " in out


def test_config_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    # no subcommand has these keys: a made-up one, the global --config,
    # a positional, and the --out/--help flags
    for key in ("volume", "config", "tag", "out", "help"):
        cfg.write_text(f"{key}=11\n")
        code, out, err = run(["--config", str(cfg), "simulate", "gauss-gauss",
                              "--reps", "50"], capsys)
        assert (code, out) == (2, "")
        assert f"unknown config key '{key}'" in err


# per subcommand, and for gauss-multi, whose manifest spells out the budgets
# its scheme fixes: argv, a config for it (with a key of another subcommand,
# which is ignored), and a configured flag, an abbreviation of it and a new
# value for it
CONFIG_RUNS = {
    "bound": (["bound", "--thm", "7", "--csv"],
              "alpha=0.5\nn=3\nm=2\nb=4\nI=5\nseed=8\n",
              "--alpha", "--alph", "0.9"),
    "scenario": (["scenario", "hide-seek"],
                 "m=10\nd=512\nb=1536\nrho=0.01\nn=100\netas=1,0.5\n",
                 "--rho", "--rh", "0.02"),
    "simulate": (["simulate", "gauss-gauss"],
                 "n=10\nvar-w=2\nreps=500\nseed=41\ncheck=yes\nparallel=2\n"
                 "thm=4\n", "--seed", "--see", "9"),
    "simulate-gauss-multi": (["simulate", "gauss-multi"],
                             "m=3\nn=5\nd=2\nreps=200\nseed=4\n",
                             "--seed", "--see", "9"),
    "figure": (["figure", "fig2"], "p=0.2\npoints=11\netas=1,0.3\nreps=9\n",
               "--points", "--poi", "5"),
}


def manifest_command(text):
    line = next(line for line in text.splitlines()
                if line.startswith("# command: "))
    return line.removeprefix("# command: ").split()


@pytest.mark.parametrize("name", sorted(CONFIG_RUNS))
def test_config_run_replays_without_config(name, tmp_path, capsys):
    argv, text, *_ = CONFIG_RUNS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    code, _, _ = run(["--config", str(cfg), *argv, "--out", str(first)], capsys)
    assert code == 0
    tokens = manifest_command(first.read_text())
    # --csv and --out pick the output form and are not echoed
    form = ["--csv"] if "--csv" in argv else []
    code, _, _ = run(tokens + form + ["--out", str(second)], capsys)
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("name", sorted(CONFIG_RUNS))
def test_config_explicit_flag_wins(name, tmp_path, capsys):
    argv, text, flag, short, value = CONFIG_RUNS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    for explicit in ([flag, value], [short, value], [f"{flag}={value}"]):
        code, out, _ = run(["--config", str(cfg), *argv, *explicit], capsys)
        assert code == 0
        tokens = manifest_command(out)
        assert tokens[tokens.index(flag) + 1] == value


@pytest.mark.parametrize("argv, text", [
    (["bound", "--thm", "3", "--I", "0"], "h=abc"),
    (["bound", "--thm", "6", "--outside", "2"], "colocated=sometimes"),
    (["scenario", "gauss-gauss"], "n=abc"),
    (["scenario", "gauss-ball"], "reps=1e3"),
    (["simulate", "gauss-gauss", "--reps", "50"], "n=abc"),
    (["simulate", "gauss-gauss", "--reps", "50"], "seed=1.5"),
    (["simulate", "gauss-gauss", "--reps", "50"], "check=maybe"),
    (["simulate", "gauss-gauss", "--reps", "50"], "n="),
    (["simulate", "gauss-gauss", "--reps", "50"], "parallel=0"),
    (["figure", "fig2"], "etas=a,b"),
    (["figure", "fig3"], "d=1.5"),
    (["figure", "fig2"], "points"),
])
def test_config_malformed_value_exits_2(argv, text, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + "\n")
    code, out, err = run(["--config", str(cfg), *argv], capsys)
    assert (code, out) == (2, "")
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_malformed_etas_names_its_type(source, tmp_path, capsys):
    """argparse names a flag's type by its parser's __name__; a private
    function name there reads as an internal error."""
    argv = ["figure", "fig2", "--etas", "1,,2"]
    if source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("etas=1,,2\n")
        argv = ["--config", str(cfg), *argv[:2]]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert "argument --etas: invalid float list value: '1,,2'" in err
    assert "_parse_etas" not in err


def test_config_binary_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xff\xfe\x00n=1\n")
    code, out, err = run(["--config", str(cfg), "figure", "fig2"], capsys)
    assert (code, out) == (2, "")
    assert "not text" in err


def test_config_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run(["--config", str(tmp_path / "absent.cfg"),
                        "simulate", "gauss-gauss", "--reps", "50"], capsys)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("seed", ["-5", str(2 ** 64)])
def test_seed_outside_64_bits_exits_2(seed, tmp_path, capsys, monkeypatch):
    code, out, err = run(["simulate", "gauss-gauss", "--reps", "50",
                          "--seed", seed], capsys)
    assert (code, out) == (2, "")
    assert "error:" in err and "Traceback" not in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed={seed}\n")
    code, out, err = run(["--config", str(cfg), "simulate", "gauss-gauss",
                          "--reps", "50"], capsys)
    assert (code, out) == (2, "")
    assert f"error: config key seed {seed} is outside" in err
    # a flag given next to the config is the seed, and the message names it
    for explicit in (["--seed", seed], ["--see", seed], [f"--seed={seed}"]):
        code, out, err = run(["--config", str(cfg), "simulate", "gauss-gauss",
                              "--reps", "50", *explicit], capsys)
        assert (code, out) == (2, "")
        assert f"error: --seed {seed} is outside" in err
    monkeypatch.setenv("BAYESLB_SEED", seed)
    code, out, err = run(["simulate", "gauss-gauss", "--reps", "50"], capsys)
    assert (code, out) == (2, "")
    assert "BAYESLB_SEED" in err


def test_largest_seed_runs(capsys):
    top = str(2 ** 64 - 1)
    code, out, _ = run(["simulate", "gauss-gauss", "--reps", "50",
                        "--seed", top, "--check"], capsys)
    assert code == 0
    assert data_rows(out)[1].split(",")[4] == top


def test_env_seed_used_when_flag_absent(capsys, monkeypatch):
    monkeypatch.setenv("BAYESLB_SEED", "123")
    _, out, _ = run(["simulate", "gauss-gauss", "--reps", "50"], capsys)
    assert data_rows(out)[1].split(",")[4] == "123"
    _, out, _ = run(["simulate", "gauss-gauss", "--reps", "50",
                     "--seed", "4"], capsys)
    assert data_rows(out)[1].split(",")[4] == "4"
