"""bayeslb benchmark: three workloads, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload cli-readme|sandwich-mc|bound-pipeline \\
        --seed N --seconds S --trace 0|1

Run it from the root of a bayeslb checkout; the package is loaded from that
checkout's ``src/`` and nothing is installed. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``. A results file with the environment stamp, every
operation's time and outcome, and every span of a traced run is written to
``perfbench/out/``.

The BLAS and OpenMP pools of this process and of every child it starts are
pinned to one thread.

``--trace 0`` times three fresh set-up processes, then runs passes over the
workload's list of operations, each pass with fresh seeded inputs, while the
next pass is predicted to end within ``--seconds``. ``--trace 1`` times the
import of each module in fresh interpreters, then runs pass 0 in process
once untraced and once traced; the difference is the tracing overhead. End-to-end metrics are never taken
with tracing on. Every time except the per-layer span and import times is
scaled to a nominal host speed (see REFERENCE_S).
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, build, is_known_defect  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
# The vCPUs of a shared host flip between a fast state and one up to 1.7x
# slower (a busy neighbour on the same physical core), for seconds to
# minutes at a time. So the start-up of a bare interpreter is timed
# REFERENCE_REPEATS times before and after every timed interval, and the
# interval is scaled by REFERENCE_S (that start-up's median on the quiet
# 2-core Xeon the benchmark was defined on) over the mean of the two
# medians. On that host this cut the run-to-run spread of op_p50_s on
# cli-readme from 22% to 2%. Raw times stay in the results file.
REFERENCE_REPEATS = 3
REFERENCE_S = 0.050
SCHEMES = ("gauss-gauss", "bern-quantize", "bern-bsc-case2", "bsc-bit", "xor",
           "xor-colocated", "gauss-multi")
ALPHABETS = (2, 4, 8, 16)


def child_env() -> dict:
    """Environment for this process's children: checkout's src, one BLAS thread."""
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), os.environ.get("PYTHONPATH")) if part)
    return env


def prepare() -> None:
    """Pin threads and load bayeslb from this checkout; before numpy loads."""
    os.environ.update(child_env())
    sys.path.insert(0, str(SRC))


def work_dir(workload: str) -> Path:
    path = OUT / f"work-{workload}"
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# running operations


def host_slowness() -> float:
    """Median start-up time of a bare interpreter now, over REFERENCE_S."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / REFERENCE_S


def run_op(op) -> tuple:
    start = time.perf_counter()
    try:
        outcome = op.run()
        ok, note, facts = outcome.ok, outcome.note, outcome.facts
    except Exception as exc:  # a crash is a failed operation, not a dead run
        ok, facts = False, {}
        note = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    return time.perf_counter() - start, ok, note, facts


def run_ops(ops, tracer=None) -> list:
    """Run ops in order; "s" is the host-scaled time, "raw_s" the wall time."""
    samples = []
    before = host_slowness()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = index
        seconds, ok, note, facts = run_op(op)
        after = host_slowness()
        samples.append({"op": op.name, "raw_s": seconds,
                        "s": seconds / (0.5 * (before + after)),
                        "ok": ok, "note": note, "facts": facts,
                        "reps": op.reps, "scheme": op.scheme, "k": op.k})
        before = after
    return samples


def tally(samples: list) -> dict:
    failed = [s for s in samples if not s["ok"]]
    return {"correct": all(is_known_defect(s["note"]) for s in failed),
            "attempted": len(samples), "failed": len(failed)}


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics


def setup_seconds(workload: str, seed: int, quick: bool) -> float:
    """Median time from starting a fresh benchmark process to its first operation."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--probe"] + (["--quick"] if quick else [])
    times = []
    before = host_slowness()
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=170, check=True)
        seconds = float(proc.stdout.split()[-1]) - start
        after = host_slowness()
        times.append(seconds / (0.5 * (before + after)))
        before = after
    return statistics.median(times)


def measure(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    setup_s = setup_seconds(workload, seed, quick)
    wl = build(workload, seed, quick, work_dir(workload), child_env())
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_ops(wl.make_ops(len(passes))))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    who = resource.RUSAGE_CHILDREN if wl.in_children else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    samples = [s for p in passes for s in p]
    times = [s["s"] for s in samples]
    result = tally(samples)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "ok_frac": (1.0 - result["failed"] / result["attempted"], "ratio"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    result["detail"] = {"passes": len(passes),
                        "fail_frac": result["failed"] / result["attempted"],
                        "samples": samples}
    return result


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics


def import_seconds() -> dict:
    """Cumulative ``-X importtime`` of each module, each in a fresh interpreter."""
    out = {}
    for layer in LAYERS:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", f"import bayeslb.{layer}"],
            env=child_env(), capture_output=True, text=True, timeout=120,
            check=True)
        for line in proc.stderr.splitlines():
            cells = line.split("|")
            if len(cells) == 3 and cells[2].strip() == f"bayeslb.{layer}":
                out[layer] = int(cells[1]) / 1e6
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace(workload: str, seed: int, quick: bool) -> dict:
    imports = import_seconds()
    wl = build(workload, seed, quick, work_dir(workload), child_env())
    ops = wl.traced_ops()  # in process, whatever the workload
    plain = run_ops(ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_ops(ops, tracer)
    finally:
        tracer.uninstall()
    plain_s = sum(s["s"] for s in plain)
    traced_s = sum(s["s"] for s in traced)
    calls, self_s = tracer.layer_totals()

    def busy_s(*functions) -> float:
        return sum((sum(d) for d in tracer.durations(set(functions)).values()), 0.0)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.import_s"] = (imports[layer], "s")
        m[f"{layer}.calls"] = (calls[layer], "count")
        m[f"{layer}.self_s"] = (self_s[layer], "s")

    sim = tracer.durations({"simulate.simulate_single_processor",
                            "simulate.simulate_multi"})
    for scheme in SCHEMES:
        ops_of = [i for i, s in enumerate(traced) if s["scheme"] == scheme]
        busy = sum(sum(sim[i]) for i in ops_of)
        reps = sum(traced[i]["reps"] for i in ops_of)
        m[f"simulate.us_per_rep.{scheme}"] = (_ratio(busy, reps) * 1e6, "us")
    with_reps = [s for s in plain if s["reps"]]
    m["simulate.reps_per_s"] = (_ratio(sum(s["reps"] for s in with_reps),
                                       sum(s["s"] for s in with_reps)), "1/s")
    checks = [s["facts"]["check"] for s in traced if "check" in s["facts"]]
    m["simulate.check_s"] = (busy_s("simulate.sandwich_check"), "s")
    m["simulate.check_pass_ratio"] = (_ratio(sum(checks), len(checks)), "ratio")

    eta = tracer.durations({"sdpi.eta_numeric"})
    for k in ALPHABETS:
        per_call = [d for i, s in enumerate(traced) if s["k"] == k
                    for d in eta[i]]
        m[f"sdpi.eta_numeric_s.k{k}"] = (
            statistics.median(per_call) if per_call else 0.0, "s")
    m["sdpi.eta_gain_over_chi2"] = (sum(s["facts"].get("eta_gain", 0.0)
                                        for s in traced), "ratio")
    m["info.capacity_s"] = (busy_s("info.channel_capacity"), "s")
    m["bounds.smallball_evals"] = (sum(s["facts"].get("smallball_evals", 0)
                                       for s in traced), "count")
    m["trace.overhead_s"] = (traced_s - plain_s, "s")
    m["trace.overhead_frac"] = (_ratio(traced_s - plain_s, plain_s), "ratio")

    result = tally(plain + traced)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in m.items()}
    result["detail"] = {"untraced_s": plain_s, "traced_s": traced_s,
                        "samples": plain + traced, "spans": len(tracer)}
    tracer.write(OUT / f"{workload}-spans.csv.gz")
    return result


# ---------------------------------------------------------------------------
# environment stamp


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it has one."""
    import numpy
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs")
                      .glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "git_commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(),
            "thread_env": {var: os.environ.get(var) for var in THREAD_VARS}}


# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative integers")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smallest size of each workload (self-tests)")
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "bayeslb" / "__init__.py").is_file():
        print(f"error: {SRC / 'bayeslb'} is missing; run from a bayeslb checkout",
              file=sys.stderr)
        return 2
    prepare()
    if args.probe:
        build(args.workload, args.seed, args.quick, work_dir(args.workload),
              child_env())
        print(time.monotonic())
        return 0

    if args.trace:
        result = trace(args.workload, args.seed, args.quick)
    else:
        result = measure(args.workload, args.seed, args.seconds, args.quick)
    detail = result.pop("detail")
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "quick": args.quick,
              "environment": environment(), **result, **detail}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"{args.workload} fail_frac = {detail['fail_frac']:.6g} ratio "
              f"({result['failed']}/{result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
