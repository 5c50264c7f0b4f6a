"""The traced benchmark (benchmarks/tracing.py) patches engine attributes by
name; a rename in src/ would otherwise break only ``--trace 1``."""

import importlib.util
from pathlib import Path

import pytest

from thinker import grading
from thinker.backend import PolicyParams, ScriptedPolicyBackend
from thinker.dataset import QAItem
from thinker.rollout import run_episode
from thinker.task import Mode

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("owner,attr", [(owner, attr) for owner, attr, _ in tracing.TARGETS],
                         ids=[f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in tracing.TARGETS])
def test_target_resolves(owner, attr):
    # class targets are read from the class itself, as the tracer does
    raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    assert callable(raw.__func__ if isinstance(raw, classmethod) else raw)


def test_from_raw_is_a_classmethod():
    assert isinstance(vars(grading.ExtractedAnswer)["from_raw"], classmethod)


def test_tracer_counts_grading_calls_and_restores():
    before = {(owner, attr): vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)
              for owner, attr, _ in tracing.TARGETS}
    item = QAItem(id="q1", question="Compute 3 + 4.", answer="7")
    with tracing.Tracer().installed() as tracer:
        run_episode(ScriptedPolicyBackend(PolicyParams(p_fast=0.0, t_n=1.0)), item, Mode.TRAINING, seed=1)
    summary = tracer.summary()
    for name in ("grading.from_raw", "grading.extract_boxed", "grading.answers_equal"):
        assert summary.count(name) > 0
    for (owner, attr), raw in before.items():
        now = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)
        assert now is raw
