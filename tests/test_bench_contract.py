"""The benchmark (benchmarks/workloads.py) drives the engine through its
public names; an engine change that breaks a workload fails here, inside the
test suite, instead of only in the benchmark's own smoke run."""

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    return workloads


@pytest.mark.parametrize("name", ["train-scripted", "eval-http", "simulate-long"])
def test_workload_runs_and_checks(workloads, name, tmp_path):
    # eval-http's stub is a child process that imports the engine from src/
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    workload = workloads.WORKLOADS[name](3, True, tmp_path, env)
    try:
        workload.setup()
        outcomes = []
        for index in range(2):
            elapsed, result = workload.run(index, workload.calls())
            outcomes.append(workload.check(index, elapsed, result))
        workload.finish(outcomes)
    finally:
        workload.close()
    assert all(o.failed == 0 and o.episodes > 0 for o in outcomes)
