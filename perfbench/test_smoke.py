"""Smoke test of the benchmark: each workload at minimal size, untraced and
traced.  Checks that every metric declared in BENCHMARK.json is emitted with
its unit and that the correctness checks run and pass.

    python3 -m pytest perfbench/test_smoke.py
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
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    checks = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    assert checks and all(line.startswith("PASS ") for line in checks), checks


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "simulate", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_patch_point_reports_metric_absent():
    import tracing

    renamed = [
        (owner, "relevant_filtered_renamed" if attr == "relevant_filtered" else attr, span, hook)
        for owner, attr, span, hook in tracing.PATCH_POINTS
    ]
    tracer = tracing.Tracer()
    tracer.install(renamed)
    tracer.uninstall()
    metrics, absent = tracer.metrics(batches=1)
    gone = {"model.index_enum_ms_p50", "model.index_enum_ms_p90", "model.index_enum_calls"}
    assert set(absent) == gone
    assert set(metrics) | gone == set(tracing.metric_units()) - {"trace.overhead"}
