"""The CLI starts without scipy: only the Monte Carlo ball mass of
``scenario gauss-ball --reps`` loads scipy.special, and nothing loads
scipy.stats.

Each case runs in a fresh interpreter, since this test session has scipy
loaded already. Wall times are not asserted; the module set is the contract.
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
import bayeslb.cli
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = bayeslb.cli.main(argv)
    assert code == 0, code
print(json.dumps(sorted(name for name in sys.modules
                        if name == "scipy" or name.startswith("scipy."))))
"""


def scipy_modules_after(argv):
    """The scipy modules a fresh interpreter holds after cli.main(argv)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


@pytest.mark.parametrize("argv", [
    [],
    ["bound", "--thm", "3", "--I", "2", "--h", "1", "--d", "2"],
    ["scenario", "hide-seek", "--n", "100", "--m", "10", "--d", "512",
     "--b", "1536", "--rho", "0.01"],
    ["figure", "fig2"],
    ["simulate", "gauss-gauss", "--n", "10", "--reps", "200", "--check"],
    ["scenario", "bern-uniform", "--n", "50"],
    ["scenario", "bern-bsc", "--n", "100", "--b", "7", "--eps", "0.1", "--T",
     "40"],
    ["simulate", "bern-bsc", "--n", "100", "--b", "4", "--eps", "0.1", "--T",
     "70", "--reps", "200", "--check"],
], ids=["import", "bound", "scenario-hide-seek", "figure-fig2", "simulate",
        "scenario-bern-uniform", "scenario-bern-bsc", "simulate-bern-bsc"])
def test_cli_loads_no_scipy(argv):
    assert scipy_modules_after(argv) == set()


@pytest.mark.parametrize("argv", [
    ["scenario", "gauss-ball", "--n", "400", "--d", "3", "--reps", "200"],
], ids=["gauss-ball-reps"])
def test_scipy_special_only_where_needed(argv):
    loaded = scipy_modules_after(argv)
    assert "scipy.special" in loaded
    assert "scipy.stats" not in loaded
