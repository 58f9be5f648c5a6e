"""The three benchmark workloads, built from a seed into lists of operations.

Every workload is closed-loop and single-client: one operation at a time
from one process. An operation returns an ``Outcome``; one that raises or
returns ``ok=False`` counts as failed. ``bayeslb`` is imported inside the
workload constructors and operations, never at module import, so that the
``cli-readme`` benchmark process stays free of numpy and scipy.

Why these workloads:

* ``cli-readme`` runs the README's commands (plus the remaining CLI paths)
  as fresh ``python -m bayeslb`` processes. Importing ``cli`` and
  ``scenarios`` (scipy.stats, scipy.special) costs ~1.3 s of every command,
  so CLI start-up carries this load.
* ``sandwich-mc`` runs every simulate scheme and path in process, with
  ``--check``. ``simulate`` does >90% of the work; start-up is paid once,
  in set-up.
* ``bound-pipeline`` takes seeded (mu, K) pairs from contraction to risk
  floor. The ``sdpi`` numeric search is most of the work, and neither
  other workload calls ``sdpi``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("cli-readme", "sandwich-mc", "bound-pipeline")


@dataclass
class Outcome:
    ok: bool
    note: str = ""
    facts: dict = field(default_factory=dict)


@dataclass
class Op:
    """One timed operation; ``reps``, ``scheme`` and ``k`` label its spans."""

    name: str
    run: Callable[[], Outcome]
    reps: int = 0
    scheme: str = ""
    k: int = 0


@dataclass
class Workload:
    # the operations of pass p of a run, built from the seed and p; each pass
    # draws fresh inputs so that no pass can be served from an earlier one
    make_ops: Callable[[int], list]
    # in-process operations for the traced run, if make_ops(0) are not
    replay: Callable[[], list] | None = None
    # the work runs in child processes, so peak RSS is read from those
    in_children: bool = False

    def traced_ops(self) -> list:
        return self.replay() if self.replay else self.make_ops(0)


# Failures the program shows today, listed so that they stay counted in
# ``failed`` without marking the run incorrect. Anything else is a
# regression and clears ``correct``.
KNOWN_DEFECTS = {
    # the colocated lower bound (0.046) exceeds the simulated risk (0.016)
    "sandwich FAIL: simulate xor-colocated",
    # alternating maximization misses its 1e-9 gap within 100 000 steps on
    # 0.2-1.5% of Dirichlet(1) channels, depending on the alphabet size
    "ConvergenceError: capacity iteration cap",
}


def is_known_defect(note: str) -> bool:
    return any(note.startswith(prefix) for prefix in KNOWN_DEFECTS)


def derived_seed(seed: int, pass_index: int, slot: int) -> int:
    """Seed handed to the program by the operation in ``slot`` of a pass."""
    return random.Random(f"{seed}:{pass_index}:{slot}").randrange(2 ** 31)


# ---------------------------------------------------------------------------
# judging CLI output

# SHA-256 of the closed-form outputs at the seed commit. These bytes must not
# change: refactors and start-up work are judged by identical CSV.
DIGESTS = {
    "bound --thm 3 --I 0 --h 0 --d 1 --r 1":
        "a7d0a454b2fcad76d730af5c464d90d625cfefd9ba4d4573e00e4cb38859ee9c",
    "scenario hide-seek --m 10 --d 512 --b 1536 --rho 0.01 --n 100":
        "bb1a0ed28147f1ecc8e8ed31eaace0312ca4d41e1bff0d1ac146b442f2d4199f",
    "figure fig2":
        "27f30a16096a79413d985086622dbeda5d51da6bd00ef2638a837e581adbc407",
    "figure fig4 --out fig4.csv":
        "282842ae041110934dab2594d20abc8c5aa1eae7e06652040139e8422740c330",
    "bound --thm 4 --I 2 --hx 3 --b 2 --capacity 0.5 --T 4 --eta-stat 0.8 "
    "--eta-uses 0.6 --csv":
        "6c06a2a7082579b12aed50a5ff79adbdf4cc64daef024244a51b2041193263fa",
    "scenario bern-uniform --n 100":
        "98f42729ca2f8ed382f2d4cf026374d0babe6f66fff39b95b17cd5fe3c7c4959",
    "figure fig3":
        "282ca1b365fbfba4430d6bae54e56860b75e0f073e6bcaac6f9a3373c761b8ef",
}

_NON_FINITE = {"nan", "-nan", "inf", "-inf", "+inf"}


def judge_cli(argv: list, code: int, out: bytes, err: bytes) -> Outcome:
    """Judge one CLI run: exit code, traceback, digest or finite values, check line.

    Closed-form outputs must match their pinned digest byte for byte.
    Simulation outputs change by design when the sampler changes, so they
    are judged by exit code, ``# check: pass`` and finite values instead.
    """
    key = " ".join(argv)
    facts = {}
    if b"# check: " in out:
        facts["check"] = b"# check: pass" in out
    if code == 1 and facts.get("check") is False:
        return Outcome(False, f"sandwich FAIL: simulate {argv[1]}", facts)
    if code != 0:
        tail = (err or out).decode(errors="replace").strip().splitlines()[-1:]
        return Outcome(False, f"exit {code}: {' '.join(tail)}", facts)
    if b"Traceback" in err:
        return Outcome(False, "traceback on stderr", facts)
    if "--check" in argv and not facts.get("check"):
        return Outcome(False, "no '# check: pass' line", facts)
    if key in DIGESTS:
        digest = hashlib.sha256(out).hexdigest()
        if digest != DIGESTS[key]:
            return Outcome(False, f"digest {digest[:12]} != pinned", facts)
        return Outcome(True, "", facts)
    rows = [line for line in out.decode().splitlines()
            if line and not line.startswith("#")]
    if len(rows) < 2:
        return Outcome(False, "no CSV rows", facts)
    cells = {cell.strip().lower() for row in rows[1:] for cell in row.split(",")}
    if cells & _NON_FINITE:
        return Outcome(False, "non-finite value in CSV", facts)
    return Outcome(True, "", facts)


def _take_output(argv: list, work: Path) -> bytes | None:
    """Bytes of the ``--out`` file named in argv, removed after reading."""
    if "--out" not in argv:
        return None
    path = work / argv[argv.index("--out") + 1]
    if not path.is_file():  # the command failed before writing
        return None
    data = path.read_bytes()
    path.unlink()
    return data


def _inprocess_op(argv: list, work: Path, **labels) -> Op:
    def run() -> Outcome:
        from bayeslb import cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.chdir(work), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        data = _take_output(argv, work)
        if data is None:
            data = out.getvalue().encode()
        return judge_cli(argv, code, data, err.getvalue().encode())
    return Op(" ".join(argv), run, **labels)


def _subprocess_op(argv: list, work: Path, env: dict, **labels) -> Op:
    def run() -> Outcome:
        proc = subprocess.run([sys.executable, "-m", "bayeslb", *argv],
                              cwd=work, env=env, capture_output=True,
                              timeout=150)
        data = _take_output(argv, work)
        if data is None:
            data = proc.stdout
        return judge_cli(argv, proc.returncode, data, proc.stderr)
    return Op(" ".join(argv), run, **labels)


def _sim_labels(argv: list) -> dict:
    if argv[0] != "simulate":
        return {}
    return {"reps": int(argv[argv.index("--reps") + 1]), "scheme": argv[1]}


# ---------------------------------------------------------------------------
# cli-readme


def _readme_commands(seed: int, pass_index: int, quick: bool) -> list:
    def s(slot):
        return str(derived_seed(seed, pass_index, slot))

    readme_reps = "2000" if quick else "100000"
    return [
        # the README's commands, verbatim
        "bound --thm 3 --I 0 --h 0 --d 1 --r 1".split(),
        "scenario hide-seek --m 10 --d 512 --b 1536 --rho 0.01 --n 100".split(),
        ["simulate", "gauss-gauss", "--n", "10", "--reps", readme_reps,
         "--seed", "7", "--check"],
        ["figure", "fig2"],
        ["figure", "fig4", "--out", "fig4.csv"],
        # the remaining CLI paths
        ("bound --thm 4 --I 2 --hx 3 --b 2 --capacity 0.5 --T 4 --eta-stat 0.8 "
         "--eta-uses 0.6 --csv").split(),
        "scenario bern-uniform --n 100".split(),
        ["scenario", "gauss-ball", "--n", "400", "--d", "3", "--reps", "20000",
         "--seed", s(0)],
        ["figure", "fig3"],
        # too small to amortise any process pool's spawn cost
        ["simulate", "gauss-gauss", "--n", "10", "--reps", "2000", "--seed",
         s(1), "--parallel", "2", "--check"],
    ]


def build_cli_readme(seed: int, quick: bool, work: Path, env: dict) -> Workload:
    def make_ops(p):
        return [_subprocess_op(argv, work, env, **_sim_labels(argv))
                for argv in _readme_commands(seed, p, quick)]

    def replay():
        import bayeslb.cli  # noqa: F401  (keep the import out of the timed ops)
        return [_inprocess_op(argv, work, **_sim_labels(argv))
                for argv in _readme_commands(seed, 0, quick)]

    return Workload(make_ops, replay, in_children=True)


# ---------------------------------------------------------------------------
# sandwich-mc

# (scheme arguments, replications, scheme name inside simulate)
SANDWICH = [
    ("gauss-gauss --n 1", 20000, "gauss-gauss"),
    ("gauss-gauss --n 10", 20000, "gauss-gauss"),
    ("gauss-gauss --n 100", 20000, "gauss-gauss"),
    ("bern-bsc --n 256 --b 4 --eps 0", 20000, "bern-quantize"),
    ("bern-bsc --n 100 --b 4 --eps 0.1 --T 70", 10000, "bern-bsc-case2"),
    ("bsc-bit --eps 0.1 --T 7", 20000, "bsc-bit"),
    ("xor --m 2 --n 16", 20000, "xor"),
    # its check FAILs at the seed commit; kept so the defect stays counted
    ("xor-colocated --m 2 --n 10000 --b 2", 2000, "xor-colocated"),
    ("gauss-multi --m 4 --n 10 --d 8", 20000, "gauss-multi"),
]


def build_sandwich_mc(seed: int, quick: bool, work: Path, env: dict) -> Workload:
    import bayeslb.cli  # noqa: F401  (start-up belongs to set-up)

    def make_ops(p):
        ops = []
        for slot, (args, reps, scheme) in enumerate(SANDWICH):
            reps = max(reps // 20, 100) if quick else reps
            argv = ["simulate", *args.split(), "--reps", str(reps),
                    "--seed", str(derived_seed(seed, p, slot)), "--check",
                    "--parallel", "1", "--out", f"sim{slot}.csv"]
            ops.append(_inprocess_op(argv, work, reps=reps, scheme=scheme))
        return ops

    return Workload(make_ops)


# ---------------------------------------------------------------------------
# bound-pipeline

BSC_BEC_EPS = (0.1, 0.25, 0.4)
# (input alphabet size, channels per run); every run has a 16-symbol one
STRATA = ((2, 2), (4, 2), (8, 1), (16, 1))
QUICK_STRATA = ((2, 1), (4, 1))
NP_ALPHAS = tuple(0.05 + 0.15 * i for i in range(7))
NP_GAMMAS = (0.5, 1.0, 2.0, 5.0)


def _eta_chi2(mu, rows) -> float:
    """Chi-square contraction: the squared second singular value of the
    divergence transition matrix, a lower bound on the KL coefficient."""
    import numpy as np
    out = mu @ rows
    used = out > 0.0
    dtm = np.sqrt(mu)[:, None] * rows[:, used] / np.sqrt(out[used])[None, :]
    sv = np.linalg.svd(dtm, compute_uv=False)
    return float(sv[1] ** 2) if sv.size > 1 else 0.0


def _pipeline_op(name: str, mu, rows, q, oracle: float | None) -> Op:
    """Contraction, capacity, NP checks, budget and both risk floors for one pair."""

    def run() -> Outcome:
        from bayeslb import bounds, info, sdpi
        channel = info.DiscreteChannel(rows)
        try:
            eta = sdpi.eta_numeric(mu, channel).value
            dob = sdpi.dobrushin(channel).value
            sdpi.pairwise_ratio_bound(channel)
            cap = info.channel_capacity(channel)
        except info.ConvergenceError as exc:
            return Outcome(False, f"ConvergenceError: {exc}")
        joint = info.JointPMF.from_input_channel(info.DiscreteDistribution(mu),
                                                 channel)
        mi = info.mutual_information(joint)
        density = info.information_density(joint)
        np_report = info.verify_np_properties(mu, q, channel, NP_ALPHAS,
                                              NP_GAMMAS)
        budget = bounds.mi_ub_single(mi, info.entropy(mu @ rows), 1.0, cap, 2,
                                     eta, dob)
        prior = info.PriorSpec("uniform01")
        loss = info.DistortionSpec("absolute")
        evals = 0

        def smallball(rho):
            nonlocal evals
            evals += 1
            return info.small_ball(prior, rho, loss)

        floor_mi = bounds.lb_mi_smallball(budget.value, smallball)
        floor_id = bounds.lb_info_density(density, smallball)

        chi2 = _eta_chi2(mu, rows)
        k = len(mu)
        checks = {
            "chi2 <= eta <= dobrushin": chi2 - 1e-6 <= eta <= dob + 1e-12,
            "closed-form window": oracle is None
            or -1e-3 <= eta - oracle <= 1e-9,
            "mi <= capacity": mi <= cap + 1e-9,
            "capacity <= log2 k": cap <= math.log2(k) + 1e-9,
            "NP violation <= 1e-9": np_report.max_violation <= 1e-9,
            "budget <= odpi": budget.value <= budget.arguments["odpi"],
        }
        for label, report in (("mi_ub_single", budget),
                              ("lb_mi_smallball", floor_mi),
                              ("lb_info_density", floor_id)):
            checks[f"{label} finite, >= 0"] = (math.isfinite(report.value)
                                                and report.value >= 0.0)
        broken = [label for label, ok in checks.items() if not ok]
        return Outcome(not broken, "; ".join(broken),
                       {"eta_gain": eta - chi2, "smallball_evals": evals})

    return Op(name, run, k=len(mu))


def build_bound_pipeline(seed: int, quick: bool, work: Path, env: dict) -> Workload:
    import numpy as np
    import bayeslb.bounds  # noqa: F401  (start-up belongs to set-up)
    import bayeslb.sdpi  # noqa: F401

    uniform2 = np.array([0.5, 0.5])

    def make_ops(p):
        rng = np.random.default_rng([seed, p])
        ops = []
        for eps in BSC_BEC_EPS[:1] if quick else BSC_BEC_EPS:
            bsc = np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])
            bec = np.array([[1.0 - eps, eps, 0.0], [0.0, eps, 1.0 - eps]])
            ops.append(_pipeline_op(f"bsc {eps}", uniform2, bsc,
                                    rng.dirichlet(np.ones(2)), (1.0 - 2.0 * eps) ** 2))
            ops.append(_pipeline_op(f"bec {eps}", uniform2, bec,
                                    rng.dirichlet(np.ones(2)), 1.0 - eps))
        for k, count in QUICK_STRATA if quick else STRATA:
            for i in range(count):
                mu = rng.dirichlet(np.full(k, 4.0))
                rows = rng.dirichlet(np.ones(k), size=k)
                q = rng.dirichlet(np.ones(k))
                ops.append(_pipeline_op(f"dirichlet k={k} #{i}", mu, rows, q, None))
        return ops

    return Workload(make_ops)


FACTORIES = {
    "cli-readme": build_cli_readme,
    "sandwich-mc": build_sandwich_mc,
    "bound-pipeline": build_bound_pipeline,
}


def build(name: str, seed: int, quick: bool, work: Path, env: dict) -> Workload:
    return FACTORIES[name](seed, quick, work, env)
