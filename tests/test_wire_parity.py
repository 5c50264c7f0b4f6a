"""The scripted policy answers the same through the real HTTP client as in process.

benchmarks/stub.py's responder answers a chat-completions payload exactly as
ScriptedPolicyBackend answers the same dialogue and wire seed. Served from
tests/stub_server.py, it lets every record the HTTP client produces be
compared with the in-process backend's, field by field: what differs is
what the wire loses (the backend name, and the summary's log-probability,
which the HTTP client does not offer).

single_turn stays out: the responder finds the question only by the
fast-thinking prompt, so every one-shot request is answered 400.
"""

import importlib.util
from contextlib import closing
from dataclasses import asdict
from pathlib import Path

import pytest

from thinker.backend import BackendConfig, HttpBackend, PolicyParams, ScriptedPolicyBackend
from thinker.evaluation import THINKER, THINKER_FAST, evaluate
from thinker.rollout import run_batch, transcript_record
from thinker.sim import SyntheticTaskConfig, gen_synthetic
from thinker.task import Mode

from stub_server import StubServer

_spec = importlib.util.spec_from_file_location(
    "bench_stub", Path(__file__).resolve().parents[1] / "benchmarks" / "stub.py")
bench_stub = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_stub)

DATA = SyntheticTaskConfig(n_items=16, seed=4)
POLICY = PolicyParams(p_fast=0.4, p_slow=0.7)
# what the wire loses in an episode that reached summarization: the HTTP client
# scores no summary log-probability, so the consistency term is 0 there
SUMMARY_KEYS = {"backend", "summary_logprob", "logprob_available", "stages.summarization.reward",
                "stage_rewards"}


@pytest.fixture(scope="module")
def backends():
    respond = bench_stub.make_responder({"dataset": asdict(DATA), "policy": asdict(POLICY)})

    def behavior(payload, index):
        text, tokens, finish = respond(payload)
        return {"choices": [{"message": {"role": "assistant", "content": text}, "finish_reason": finish}],
                "usage": {"completion_tokens": tokens}}

    with StubServer(behavior, keep_alive=True) as stub:
        settings = BackendConfig(kind="http", base_url=stub.base_url, max_attempts=1)
        with closing(HttpBackend(settings)) as http:
            yield ScriptedPolicyBackend(POLICY), http


def _differing(local: dict, wire: dict) -> set[str]:
    """Keys whose values differ; a stage's fields are named stages.<stage>.<field>."""
    assert local.keys() == wire.keys()
    keys = {key for key in local if key != "stages" and local[key] != wire[key]}
    assert len(local["stages"]) == len(wire["stages"])
    for a, b in zip(local["stages"], wire["stages"]):
        assert a.keys() == b.keys()
        keys |= {f"stages.{a['stage']}.{field}" for field in a if a[field] != b[field]}
    return keys


def _batches(backends, mode):
    return [run_batch(backend, gen_synthetic(DATA).items, mode, seed=3, samples_per_prompt=4, parallelism=2)
            for backend in backends]


def test_training_batch_differs_only_where_the_wire_loses(backends):
    local, wire = _batches(backends, Mode.TRAINING)
    assert local.trailing.p == wire.trailing.p == 0.421875
    summaries = 0
    for a, b in zip(local.transcripts, wire.transcripts):
        reached_summary = any(turn.key == "summarization" for turn in a.turns)
        summaries += reached_summary
        expected = SUMMARY_KEYS if reached_summary else {"backend"}
        assert _differing(transcript_record(a, "h"), transcript_record(b, "h")) == expected, a.episode_id
    assert (len(local.transcripts), summaries) == (64, 26)


def test_inference_batch_differs_only_in_backend(backends):
    local, wire = _batches(backends, Mode.INFERENCE)
    assert len(local.transcripts) == 64
    for a, b in zip(local.transcripts, wire.transcripts):
        assert _differing(transcript_record(a, "h"), transcript_record(b, "h")) == {"backend"}


@pytest.mark.parametrize("mode", [THINKER, THINKER_FAST])
def test_eval_reports_are_equal(backends, mode):
    local, wire = (evaluate(backend, gen_synthetic(DATA), mode, k=4, seed=2, parallelism=2).to_dict()
                   for backend in backends)
    assert local == wire
