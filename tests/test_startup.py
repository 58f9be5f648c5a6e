"""The CLI starts without numpy or scipy, and no command loads scipy. The
closed-form commands (bounds other than Theorem 1, scenarios without Monte
Carlo, figures) load neither; numpy is loaded on first use by the commands
that build arrays, such as ``simulate`` and ``scenario gauss-ball --reps``:
each module reads it through its own global ``np``, a handle whose first
attribute read imports numpy and rebinds that global to numpy itself.

No command adds ``dataclasses`` or ``inspect`` to the modules a bare
interpreter holds: the records are plain classes, since importing
``dataclasses`` (with ``inspect``, ``ast`` and ``dis``) and generating its
methods took about three quarters of the time ``import bayeslb.cli`` took.
Nor does any command add ``argparse``, ``gettext`` or ``locale``, since the
CLI parses its own flag rows, and no closed-form command adds ``datetime``,
which only ``--timestamp`` imports (numpy imports it itself, so the
commands that build arrays are exempt from that one).

Each command case runs in a fresh interpreter, since this test session has
numpy and scipy loaded already. Wall times are not asserted; the module set
is the contract.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is not None:
    import bayeslb.cli
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = bayeslb.cli.main(argv)
    assert code == 0, code
print(json.dumps(sorted(sys.modules)))
"""


def modules_after(argv):
    """The modules a fresh interpreter holds after importing bayeslb.cli and
    running cli.main(argv); with argv None, those of the bare probe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


_LOADED = {}


def loaded_by(argv):
    """``modules_after(argv)``, run once per argv in this session."""
    key = json.dumps(argv)
    if key not in _LOADED:
        _LOADED[key] = modules_after(argv)
    return _LOADED[key]


# (id, argv, whether the command builds arrays and so may load numpy)
CASES = [
    ("import", [], False),
    ("bound", ["bound", "--thm", "3", "--I", "2", "--h", "1", "--d", "2"], False),
    ("bound-thm4-csv", ["bound", "--thm", "4", "--I", "2", "--hx", "3", "--b",
                        "2", "--capacity", "0.5", "--T", "4", "--eta-stat",
                        "0.8", "--eta-uses", "0.6", "--csv"], False),
    ("scenario-hide-seek", ["scenario", "hide-seek", "--n", "100", "--m", "10",
                            "--d", "512", "--b", "1536", "--rho", "0.01"], False),
    ("scenario-bern-uniform", ["scenario", "bern-uniform", "--n", "50"], False),
    ("scenario-bern-bsc", ["scenario", "bern-bsc", "--n", "100", "--b", "7",
                           "--eps", "0.1", "--T", "40"], False),
    ("figure-fig2", ["figure", "fig2"], False),
    ("figure-fig3", ["figure", "fig3"], False),
    ("figure-fig4", ["figure", "fig4"], False),
    ("simulate", ["simulate", "gauss-gauss", "--n", "10", "--reps", "200",
                  "--check"], True),
    ("simulate-bern-bsc", ["simulate", "bern-bsc", "--n", "100", "--b", "4",
                           "--eps", "0.1", "--T", "70", "--reps", "200",
                           "--check"], True),
    ("scenario-gauss-ball-reps", ["scenario", "gauss-ball", "--n", "400", "--d",
                                  "3", "--reps", "200"], True),
]


@pytest.fixture(scope="module")
def bare_modules():
    return modules_after(None)


@pytest.mark.parametrize("argv, arrays", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_cli_loads_no_scipy(argv, arrays, bare_modules):
    loaded = loaded_by(argv)
    assert not {name for name in loaded if name.split(".")[0] == "scipy"}
    if not arrays:
        assert "numpy" not in loaded
        assert not {"dataclasses", "inspect"} & (loaded - bare_modules)


@pytest.mark.parametrize("argv, arrays", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_cli_loads_no_argparse(argv, arrays, bare_modules):
    added = loaded_by(argv) - bare_modules
    assert not {"argparse", "gettext", "locale"} & added
    if not arrays:
        assert "datetime" not in added


def test_numpy_handle_rebinds_to_numpy_on_first_use():
    import numpy

    from bayeslb import info, sdpi
    sdpi.dobrushin(info.bsc(0.1))
    # later reads go to numpy through an ordinary module global
    assert sdpi.np is numpy
