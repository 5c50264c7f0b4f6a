"""Smoke tests of the benchmark: every workload at a tiny size, untraced and
traced, passes its correctness check and emits exactly the metrics that
BENCHMARK.json lists, with their units.

    python3 -m pytest -q benchmarks/smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    report, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert set(report["metrics"]) == set(result["metrics"])
    if workload == "eval-http" and trace:
        assert 0 < result["metrics"]["backend.http.connections_per_request"]["value"] < 1


def test_missing_engine_source_fails_without_a_result(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for path in (ROOT / "benchmarks").glob("*.py"):
        (tmp_path / "benchmarks" / path.name).write_bytes(path.read_bytes())
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "train-scripted", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
