"""Self-tests of the benchmark at its smallest size.

    python3 -m pytest perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# layers each workload calls into, each of which must show spans when traced
USED = {
    "cli-readme": {"cli", "scenarios", "simulate", "bounds", "info"},
    "sandwich-mc": {"cli", "scenarios", "simulate", "info"},
    "bound-pipeline": {"sdpi", "info", "bounds"},
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    return result


def units(metrics: dict) -> dict:
    return {name: metric["unit"] for name, metric in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    result = result_of(bench(workload, 0))
    assert units(result["metrics"]) == {m["name"]: m["unit"]
                                        for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "sandwich-mc":
        # xor-colocated's check FAILs at the seed commit: one op in nine
        assert result["failed"] * 9 == result["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_spans_every_layer_the_workload_uses(workload):
    result = result_of(bench(workload, 1))
    metrics = result["metrics"]
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for layer in USED[workload]:
        assert metrics[f"{layer}.calls"]["value"] > 0, layer
        assert metrics[f"{layer}.import_s"]["value"] > 0, layer


def test_corrupted_digest_raises_fail_frac(monkeypatch):
    sys.path.insert(0, str(BENCH))
    import run
    import workloads
    monkeypatch.setitem(workloads.DIGESTS, "figure fig2", "0" * 64)
    result = run.measure("cli-readme", 3, 1.0, quick=True)
    assert result["failed"] == 1 and not result["correct"]
    assert result["detail"]["fail_frac"] == 1 / result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("sandwich-mc", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
