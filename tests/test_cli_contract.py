"""Contract of every CLI run: exit 0, 1 or 2, no traceback, no NaN, finite bounds.

Argv are drawn from the CLI's own tables (``cli._COMMAND_FLAGS``,
``cli._THEOREMS``, ``cli._FIGURES``, ``SCENARIOS`` and ``SCHEMES``), with
float flags taking extreme values: signed zeros, subnormals, 1e308, NaN and
infinities. The runs are derandomized so the suite is the same every time.
"""
import contextlib
import io
import math

from hypothesis import example, given, settings, strategies as st

from bayeslb import cli
from bayeslb.scenarios import SCENARIOS
from bayeslb.simulate import SCHEMES

EXTREME = [0.0, -0.0, 5e-324, 1e-320, 2.2e-308, 1e-12, 0.1, 0.5, 1.0, 3.0,
           1e308, -1e308, -1.0, math.nan, math.inf, -math.inf]
FLOATS = st.one_of(st.sampled_from(EXTREME), st.floats())
# a run draws O(reps) values, and gauss-multi and gauss-ball O(reps d), so
# --reps stops at 200 and every other count at 1e4 to keep the suite within
# seconds
INTS = st.integers(min_value=-2, max_value=10_000)
CHOICES = {"prior": ["uniform01", "gaussian", "ball", "hypercube", "discrete-uniform",
                     "nope"],
           "distortion": ["absolute", "squared", "l2r", "zero-one", "nope"]}
HEADS = {
    "bound": [["bound", "--thm", str(thm)] for thm in sorted(cli._THEOREMS)],
    "scenario": [["scenario", tag] for tag in sorted(SCENARIOS)],
    "simulate": [["simulate", name] for name in sorted(SCHEMES)],
    "figure": [["figure", which] for which in sorted(cli._FIGURES)],
}


def _value(dest, kind):
    if kind is float:
        return FLOATS.map(repr)
    if kind in (int, cli._int):
        return (st.integers(min_value=-2, max_value=200) if dest == "reps"
                else INTS).map(str)
    if kind is str:
        return st.sampled_from(CHOICES[dest])
    # the --etas list of the figures
    return st.lists(FLOATS, min_size=1, max_size=3).map(
        lambda parts: ",".join(map(repr, parts)))


@st.composite
def argvs(draw, command):
    argv = list(draw(st.sampled_from(HEADS[command])))
    rows = draw(st.lists(st.sampled_from(cli._COMMAND_FLAGS[command]),
                         max_size=6, unique_by=lambda row: row[0]))
    for dest, kind, *_ in rows:
        argv.append(cli._flag(dest))
        if kind is not bool:
            argv.append(draw(_value(dest, kind)))
    return argv


def _check(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # main returns 2 on a usage error and should not raise
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    for line in out.getvalue().splitlines():
        if line.startswith("#"):
            continue
        cells = line.replace("=", ",").split(",")
        assert "nan" not in [cell.strip().lower() for cell in cells], (argv, line)
        if cells[0] in ("lower", "upper"):
            assert math.isfinite(float(cells[2])), (argv, line)


# an integer beyond the float range once ended in an OverflowError traceback
BIG = "9" * 401


@given(argvs("bound"))
@example(["bound", "--thm", "4", "--T", BIG])
@settings(max_examples=150, deadline=None, derandomize=True)
def test_bound_contract(argv):
    _check(argv)


@given(argvs("scenario"))
# each of these ended in a traceback once
@example(["scenario", "hypercube", "--delta", "0", "--p", "0.5"])
@example(["scenario", "hypercube", "--delta", "5e-324", "--p", "0"])
@example(["scenario", "gauss-ball", "--d", "6523", "--reps", "1"])
@example(["scenario", "gauss-gauss", "--n", BIG])
@example(["scenario", "bsc-bit", "--eps", "0.1", "--T", BIG])
@settings(max_examples=250, deadline=None, derandomize=True)
def test_scenario_contract(argv):
    _check(argv)


@given(argvs("simulate"))
# past 2^63 numpy's samplers once raised an OverflowError
@example(["simulate", "bsc-bit", "--eps", "0.1", "--T", "9223372036854775808", "--reps", "1"])
@settings(max_examples=150, deadline=None, derandomize=True)
def test_simulate_contract(argv):
    # without --reps a simulation exits 2 at once, so add one where it is missing
    _check(argv + ["--reps", "50"] if "--reps" not in argv else argv)


@given(argvs("figure"))
# these ended in a traceback and in nan cells once
@example(["figure", "fig4", "--rho", "1e-320", "--b", "-0.125"])
@example(["figure", "fig4", "--rho", "0", "--b", "inf"])
@example(["figure", "fig3", "--m", BIG])
@settings(max_examples=100, deadline=None, derandomize=True)
def test_figure_contract(argv):
    _check(argv)
